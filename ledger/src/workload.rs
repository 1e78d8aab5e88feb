//! The four ledger workloads: what each one simulates, its set-up, and
//! one repetition through the sweep runner.
//!
//! Every workload is a batch of sweep cells (a [`Job`] each), measured
//! closed-loop: a repetition submits the whole batch and waits for it.
//! The seed reaches the simulator only through [`Workload::seed`], so it
//! changes the generated reference streams and nothing else.

use crate::spans::{now, within, Tracer};
use rampage_core::experiments::{
    grids, set_trace_dir, trace_dir, CacheLoad, Cell, CellCache, Job, LeaseConfig, SweepRunner,
    Workload, PAPER_SIZES,
};
use rampage_core::{DramKind, HierarchyKind, IssueRate, SystemConfig};
use rampage_json::Json;
use rampage_trace::corpus::{record_profiles, Manifest, DEFAULT_BLOCK_BYTES};
use rampage_trace::profiles::TABLE2;
use rampage_trace::TraceSource;
use std::path::{Path, PathBuf};

/// The seed whose cell digests are pinned in `golden/`.
pub const DEFAULT_SEED: u64 = 1;

/// One of the benchmark's workloads (the names `BENCHMARK.json` lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Table 3 grid over one synthesized 8-program workload.
    GridSynth,
    /// Every Table 2 program alone, replayed from a recorded corpus.
    SoloCorpus,
    /// Table 4's switch-on-miss RAMpage at small pages, flat and banked DRAM.
    PagingSwitch,
    /// Every preset grid through a journaled runner, then a resume pass.
    SweepJournaled,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::GridSynth,
        Kind::SoloCorpus,
        Kind::PagingSwitch,
        Kind::SweepJournaled,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GridSynth => "grid_synth",
            Kind::SoloCorpus => "solo_corpus",
            Kind::PagingSwitch => "paging_switch",
            Kind::SweepJournaled => "sweep_journaled",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How much input a workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few thousand references per cell, for the crate's own tests.
    Tiny,
}

/// The cells of one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub kind: Kind,
    /// Every job, in submission order.
    pub jobs: Vec<Job>,
    /// Index into `jobs` of each distinct job's first submission — the
    /// cells a cold runner computes.
    pub distinct: Vec<usize>,
    /// Sweep-runner worker threads (never more than the 2 cores the
    /// ledger is sized for).
    pub workers: usize,
}

fn suite(nbench: usize, scale: u64, seed: u64) -> Workload {
    Workload {
        nbench,
        scale,
        seed,
        solo: None,
    }
}

impl Plan {
    /// The jobs `kind` submits at `size`, with inputs drawn from `seed`.
    pub fn new(kind: Kind, size: Size, seed: u64) -> Plan {
        let full = size == Size::Full;
        let (jobs, workers) = match kind {
            Kind::GridSynth => {
                let w = suite(8, if full { 2_000 } else { 200_000 }, seed);
                let mut jobs = Vec::new();
                for rate in [IssueRate::MHZ200, IssueRate::GHZ1, IssueRate::GHZ4] {
                    for unit in PAPER_SIZES {
                        jobs.push(Job::new(SystemConfig::baseline(rate, unit), w));
                        jobs.push(Job::new(SystemConfig::rampage(rate, unit), w));
                    }
                }
                (jobs, 2)
            }
            Kind::SoloCorpus => {
                let scale = if full { 100 } else { 20_000 };
                let jobs = (0..TABLE2.len())
                    .map(|i| {
                        let cfg = if i % 2 == 0 {
                            SystemConfig::baseline(IssueRate::GHZ1, 4096)
                        } else {
                            SystemConfig::rampage(IssueRate::GHZ1, 4096)
                        };
                        Job::new(cfg, Workload::solo(i, scale, seed))
                    })
                    .collect();
                (jobs, 1)
            }
            Kind::PagingSwitch => {
                let w = suite(8, if full { 1_000 } else { 50_000 }, seed);
                let mut jobs = Vec::new();
                for page in [128, 256, 512] {
                    for dram in [DramKind::Rambus, DramKind::banked()] {
                        let mut cfg = SystemConfig::rampage_switching(IssueRate::GHZ4, page);
                        cfg.dram = dram;
                        jobs.push(Job::new(cfg, w));
                    }
                }
                (jobs, 1)
            }
            Kind::SweepJournaled => {
                let w = suite(2, if full { 100_000 } else { 1_000_000 }, seed);
                let jobs = grids::preset_grids()
                    .into_iter()
                    .flat_map(|g| g.cells)
                    .map(|(_, cfg)| Job::new(cfg, w))
                    .collect();
                (jobs, 2)
            }
        };
        let mut seen = std::collections::BTreeSet::new();
        let distinct = (0..jobs.len())
            .filter(|&i| seen.insert(jobs[i].fingerprint()))
            .collect();
        Plan {
            kind,
            jobs,
            distinct,
            workers,
        }
    }

    /// A short name for each job, in submission order (`golden/` uses them).
    pub fn labels(&self) -> Vec<String> {
        self.jobs
            .iter()
            .map(|job| {
                let system = match job.cfg.hierarchy {
                    HierarchyKind::Conventional(l2) if l2.ways == 1 => "baseline",
                    HierarchyKind::Conventional(_) => "two_way",
                    HierarchyKind::Rampage(_) if job.cfg.switch_on_miss => "rampage_switching",
                    HierarchyKind::Rampage(_) => "rampage",
                };
                let dram = match job.cfg.dram {
                    DramKind::Banked(_) => "+banked",
                    _ => "",
                };
                let program = job.workload.solo.map_or("", |i| TABLE2[i].name);
                format!(
                    "{program}{}{system}{dram}@{}MHz/{}B",
                    if program.is_empty() { "" } else { ":" },
                    job.cfg.issue.mhz(),
                    job.cfg.hierarchy.unit_bytes()
                )
            })
            .collect()
    }

    /// The distinct jobs, in first-submission order.
    pub fn distinct_jobs(&self) -> Vec<Job> {
        self.distinct.iter().map(|&i| self.jobs[i]).collect()
    }

    /// User references a cold pass simulates.
    pub fn refs_per_rep(&self) -> u64 {
        self.distinct
            .iter()
            .map(|&i| self.jobs[i].workload.total_refs())
            .sum()
    }
}

/// A workload after set-up: its plan, its scratch directory and, for
/// `solo_corpus`, the corpus every source replays from. Dropping it
/// removes the directory and the corpus routing.
#[derive(Debug)]
pub struct Prepared {
    /// The cells to run.
    pub plan: Plan,
    /// Scratch space inside the checkout (corpus, journals, `cells.json`).
    pub dir: PathBuf,
    /// The recorded corpus (`solo_corpus` only).
    pub corpus: Option<Manifest>,
    /// Seconds spent recording the corpus.
    pub record_s: f64,
    /// FNV-1a over every input record (or, for a corpus, over every
    /// shard checksum): pins the generated inputs apart from the results.
    pub input_digest: u64,
}

impl Prepared {
    /// Set `kind` up in the fresh directory `dir`.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the directory or recording the corpus.
    pub fn new(kind: Kind, size: Size, seed: u64, dir: PathBuf) -> Result<Prepared, String> {
        let plan = Plan::new(kind, size, seed);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut prep = Prepared {
            plan,
            dir,
            corpus: None,
            record_s: 0.0,
            input_digest: 0,
        };
        if kind == Kind::SoloCorpus {
            let corpus_dir = prep.corpus_dir();
            let w = prep.plan.jobs[0].workload;
            let t = now();
            let manifest =
                record_profiles(&corpus_dir, &TABLE2, w.scale, w.seed, DEFAULT_BLOCK_BYTES)
                    .map_err(|e| format!("recording the corpus: {e}"))?;
            prep.record_s = t.elapsed().as_secs_f64();
            let sums: Vec<u8> = manifest
                .shards
                .iter()
                .flat_map(|s| s.checksum.to_le_bytes())
                .collect();
            prep.input_digest = crate::check::fnv1a(&sums);
            prep.corpus = Some(manifest);
            set_trace_dir(Some(corpus_dir));
        } else {
            prep.input_digest = input_digest(&prep.plan);
        }
        Ok(prep)
    }

    /// Where the corpus is recorded (`solo_corpus`).
    pub fn corpus_dir(&self) -> PathBuf {
        self.dir.join("corpus")
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if self.corpus.is_some() && trace_dir() == Some(self.corpus_dir()) {
            set_trace_dir(None);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// FNV-1a over every record of every distinct workload the plan uses.
fn input_digest(plan: &Plan) -> u64 {
    let mut workloads: Vec<Workload> = Vec::new();
    for &i in &plan.distinct {
        let w = plan.jobs[i].workload;
        if !workloads.contains(&w) {
            workloads.push(w);
        }
    }
    let mut h = crate::check::FNV_OFFSET;
    for w in workloads {
        for mut source in w.sources() {
            while let Some(rec) = source.next_record() {
                h = crate::check::fnv1a_extend(h, &rec.addr.0.to_le_bytes());
                h = crate::check::fnv1a_extend(h, &[rec.kind as u8]);
            }
        }
    }
    h
}

/// The journal, save and resume half of a `sweep_journaled` repetition.
#[derive(Debug)]
pub struct JournalRep {
    /// Seconds to open the fresh journal.
    pub open_s: f64,
    /// Journal size after the cold pass.
    pub bytes: u64,
    /// Seconds for `CellCache::save_file`.
    pub save_s: f64,
    /// Seconds for the second owner to open the journal and re-run the
    /// batch.
    pub resume_s: f64,
    /// Cells the resume pass computed (must be 0).
    pub resume_computed: u64,
    /// The resume pass's cells, in submission order.
    pub resume_cells: Vec<Cell>,
    /// What reloading the saved `cells.json` found.
    pub reload: CacheLoad,
}

/// One repetition through the sweep runner.
#[derive(Debug)]
pub struct RunnerRep {
    /// Host seconds for the whole repetition.
    pub wall_s: f64,
    /// Cells in submission order.
    pub cells: Vec<Cell>,
    /// Cells the cold runner computed.
    pub computed: u64,
    /// Lookups the cold runner served without simulating.
    pub cache_hits: u64,
    /// Cells the cold runner recorded as failed.
    pub failures: u64,
    /// Host seconds per computed cell (`wall.cells[].secs`).
    pub cell_secs: Vec<f64>,
    /// Host seconds the cold runner spent in batches (`wall.total_secs`).
    pub batch_s: f64,
    /// The journaled half, for `sweep_journaled`.
    pub journal: Option<JournalRep>,
}

fn telemetry_secs(runner: &SweepRunner) -> (Vec<f64>, f64) {
    let doc = runner.telemetry_json();
    let wall = doc.get("wall");
    let cells = wall
        .and_then(|w| w.get("cells"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|c| c.get("secs").and_then(Json::as_f64))
        .collect();
    let total = wall
        .and_then(|w| w.get("total_secs"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    (cells, total)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Run the prepared batch once through a fresh runner. `rep` names the
/// repetition's scratch directory; `tracer`, when given, records the
/// `runner.*` spans.
///
/// # Errors
///
/// A journal that cannot be opened or a `cells.json` that cannot be saved.
pub fn runner_rep(
    prep: &Prepared,
    rep: usize,
    tracer: Option<&Tracer>,
) -> Result<RunnerRep, String> {
    let plan = &prep.plan;
    let journaled = plan.kind == Kind::SweepJournaled;
    let dir = prep.dir.join(format!("rep{rep}"));
    let journal_path = dir.join("journal.jsonl");
    let cells_path = dir.join("cells.json");
    if journaled {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // A fresh runner; on the journaled workload each owner has its own lease.
    let new_runner = |owner: &str| -> Result<SweepRunner, String> {
        let runner = SweepRunner::new(plan.workers);
        if !journaled {
            return Ok(runner);
        }
        let lease = LeaseConfig::new(format!("ledger-{owner}-{}", std::process::id()));
        runner
            .with_journal(&journal_path, lease)
            .map_err(|e| format!("opening {}: {e}", journal_path.display()))
    };

    let t0 = now();
    let (runner, open_s, cells) = within(tracer, "runner.batch", || {
        let runner = new_runner("cold")?;
        let open_s = t0.elapsed().as_secs_f64();
        let cells = runner.run_labeled("ledger", &plan.jobs);
        Ok::<_, String>((runner, open_s, cells))
    })?;
    let mut journal = None;
    if journaled {
        let bytes = file_len(&journal_path);
        let t = now();
        within(tracer, "runner.save", || {
            runner.cache().save_file(&cells_path)
        })
        .map_err(|e| format!("saving {}: {e}", cells_path.display()))?;
        let save_s = t.elapsed().as_secs_f64();
        let t = now();
        let (second, resume_cells) = within(tracer, "runner.resume", || {
            let second = new_runner("resume")?;
            let cells = second.run_labeled("ledger", &plan.jobs);
            Ok::<_, String>((second, cells))
        })?;
        journal = Some(JournalRep {
            open_s,
            bytes,
            save_s,
            resume_s: t.elapsed().as_secs_f64(),
            resume_computed: second.cache().computed(),
            resume_cells,
            reload: CacheLoad::default(),
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();

    if let Some(j) = journal.as_mut() {
        j.reload = CellCache::new().load_file(&cells_path);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (cell_secs, batch_s) = telemetry_secs(&runner);
    Ok(RunnerRep {
        wall_s,
        cells,
        computed: runner.cache().computed(),
        cache_hits: runner.cache().hits(),
        failures: runner.failure_count() as u64,
        cell_secs,
        batch_s,
        journal,
    })
}
