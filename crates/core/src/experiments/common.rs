//! Shared experiment machinery: workloads, cells, sweeps.

use crate::config::SystemConfig;
use crate::engine::Engine;
use crate::experiments::runner::{Job, SweepRunner};
use crate::metrics::LevelFractions;
use crate::time::IssueRate;
use rampage_json::{obj, Json, ToJson};
use rampage_trace::corpus::{CorpusReader, Manifest};
use rampage_trace::{profiles, TraceSource};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The block/page size sweep of every table: 128 B – 4 KB.
pub const PAPER_SIZES: [u64; 6] = [128, 256, 512, 1024, 2048, 4096];

/// Corpus directory workloads replay from instead of synthesizing, when
/// set. Process-global rather than a [`Workload`] field on purpose: job
/// fingerprints (and therefore the cell cache and every persisted
/// artifact) must be identical whether a workload was synthesized or
/// replayed from a recorded corpus — the corpus is a *transport*, not a
/// different experiment.
static TRACE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Sources opened from the corpus since the last [`reset`] /
/// process start.
static CORPUS_OPENED: AtomicU64 = AtomicU64::new(0);

/// Sources that fell back to synthesis (no loadable manifest, no
/// matching shard, mismatched identity, or an unreadable file).
static CORPUS_FALLBACK: AtomicU64 = AtomicU64::new(0);

/// Counters describing how workload sources were built since the last
/// [`reset`](CorpusSourceStats::reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSourceStats {
    /// Sources replayed from recorded corpus shards.
    pub opened: u64,
    /// Sources that fell back to in-memory synthesis.
    pub fallback: u64,
}

impl CorpusSourceStats {
    /// Zero both counters (tests use this to isolate assertions).
    pub fn reset() {
        CORPUS_OPENED.store(0, Ordering::SeqCst);
        CORPUS_FALLBACK.store(0, Ordering::SeqCst);
    }
}

/// Route subsequent [`Workload::sources`] calls through the corpus in
/// `dir` (`None` restores pure synthesis). Shards are matched by
/// benchmark name *and* the workload's seed and scale; anything
/// unmatched silently falls back to synthesis (counted in
/// [`corpus_source_stats`]), so a partial corpus still works.
pub fn set_trace_dir(dir: Option<PathBuf>) {
    let mut guard = TRACE_DIR.lock().unwrap_or_else(|p| p.into_inner());
    *guard = dir;
}

/// The corpus directory replay currently routes through, if any.
pub fn trace_dir() -> Option<PathBuf> {
    TRACE_DIR.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// How sources have been built so far (corpus replay vs synthesis).
pub fn corpus_source_stats() -> CorpusSourceStats {
    CorpusSourceStats {
        opened: CORPUS_OPENED.load(Ordering::SeqCst),
        fallback: CORPUS_FALLBACK.load(Ordering::SeqCst),
    }
}

/// The multiprogrammed workload driving a sweep: the first `nbench`
/// programs of Table 2, each at `1/scale` of its paper reference count —
/// or, with [`solo`](Workload::solo), one program running alone (the
/// per-benchmark study's shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// How many of the 18 Table 2 programs to run (ignored when `solo`
    /// is set).
    pub nbench: usize,
    /// Trace-volume divisor (1 = the paper's full 1.1 G references).
    pub scale: u64,
    /// Generator seed.
    pub seed: u64,
    /// Run a single Table 2 program alone, by index, instead of the
    /// interleaved suite.
    pub solo: Option<usize>,
}

impl Workload {
    /// The full suite at `1/scale` volume.
    pub fn paper(scale: u64) -> Self {
        Workload {
            nbench: profiles::TABLE2.len(),
            scale,
            seed: 0x7a9e,
            solo: None,
        }
    }

    /// A small, fast workload for tests and the ledger's smoke checks.
    pub fn quick() -> Self {
        Workload {
            nbench: 4,
            scale: 20_000,
            seed: 0x7a9e,
            solo: None,
        }
    }

    /// One Table 2 program (by index) running alone at `1/scale` volume.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for Table 2.
    pub fn solo(index: usize, scale: u64, seed: u64) -> Self {
        assert!(index < profiles::TABLE2.len(), "no Table 2 program {index}");
        Workload {
            nbench: 1,
            scale,
            seed,
            solo: Some(index),
        }
    }

    /// The profiles this workload draws from.
    fn profiles(&self) -> &'static [profiles::Profile] {
        match self.solo {
            Some(i) => &profiles::TABLE2[i..i + 1],
            None => &profiles::TABLE2[..self.nbench],
        }
    }

    /// Build the trace sources.
    ///
    /// With a corpus directory set ([`set_trace_dir`]), each profile
    /// whose recorded shard matches this workload's seed, scale, and
    /// reference count is replayed from disk; everything else, including
    /// every profile of a directory whose manifest does not load, is
    /// synthesized and counted as a fallback. Either way the record
    /// stream is bit-identical, so downstream results do not depend on
    /// the route.
    pub fn sources(&self) -> Vec<Box<dyn TraceSource + Send>> {
        let Some(dir) = trace_dir() else {
            return self.profiles().iter().map(|p| self.synth(p)).collect();
        };
        let manifest = Manifest::load(&dir).ok();
        self.profiles()
            .iter()
            .map(|p| self.corpus_or_synth(p, &dir, manifest.as_ref()))
            .collect()
    }

    fn synth(&self, p: &'static profiles::Profile) -> Box<dyn TraceSource + Send> {
        Box::new(p.source(self.scale, self.seed))
    }

    /// Replay `p` from the corpus when a shard with the right identity
    /// (name, seed, scale) and record count exists and opens; otherwise
    /// synthesize. Each path bumps its [`corpus_source_stats`] counter.
    fn corpus_or_synth(
        &self,
        p: &'static profiles::Profile,
        dir: &std::path::Path,
        manifest: Option<&Manifest>,
    ) -> Box<dyn TraceSource + Send> {
        let replay = manifest
            .and_then(|m| m.find_recorded(p.name, self.seed, self.scale))
            .filter(|meta| meta.records == p.scaled_refs(self.scale))
            .and_then(|meta| CorpusReader::open(dir.join(&meta.file)).ok());
        match replay {
            Some(reader) => {
                CORPUS_OPENED.fetch_add(1, Ordering::SeqCst);
                Box::new(reader.with_name(p.name))
            }
            None => {
                CORPUS_FALLBACK.fetch_add(1, Ordering::SeqCst);
                self.synth(p)
            }
        }
    }

    /// Total references this workload will produce.
    pub fn total_refs(&self) -> u64 {
        self.profiles()
            .iter()
            .map(|p| p.scaled_refs(self.scale))
            .sum()
    }
}

/// One simulated configuration's results — the unit every table and
/// figure is assembled from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// L2 block size or SRAM page size in bytes.
    pub unit_bytes: u64,
    /// Issue rate in MHz.
    pub issue_mhz: u32,
    /// Simulated run time in seconds (the paper's headline number).
    pub seconds: f64,
    /// Cycles per user reference (scale-independent).
    pub cycles_per_ref: f64,
    /// Per-level time fractions (Figures 2/3).
    pub fractions: LevelFractions,
    /// Handler-reference overhead ratio (Figure 4).
    pub overhead: f64,
    /// Page faults (RAMpage) or DRAM block fetches (conventional).
    pub dram_events: u64,
    /// TLB miss ratio.
    pub tlb_miss_ratio: f64,
    /// L1 instruction-cache miss ratio.
    pub l1i_miss_ratio: f64,
    /// L1 data-cache miss ratio.
    pub l1d_miss_ratio: f64,
    /// L2 local miss ratio (conventional; 0 for RAMpage).
    pub l2_miss_ratio: f64,
}

impl ToJson for LevelFractions {
    fn to_json(&self) -> Json {
        obj! {
            "l1i" => self.l1i,
            "l1d" => self.l1d,
            "l2_sram" => self.l2_sram,
            "dram" => self.dram,
            "idle" => self.idle,
        }
    }
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        obj! {
            "unit_bytes" => self.unit_bytes,
            "issue_mhz" => self.issue_mhz,
            "seconds" => self.seconds,
            "cycles_per_ref" => self.cycles_per_ref,
            "fractions" => self.fractions,
            "overhead" => self.overhead,
            "dram_events" => self.dram_events,
            "tlb_miss_ratio" => self.tlb_miss_ratio,
            "l1i_miss_ratio" => self.l1i_miss_ratio,
            "l1d_miss_ratio" => self.l1d_miss_ratio,
            "l2_miss_ratio" => self.l2_miss_ratio,
        }
    }
}

impl ToJson for Workload {
    fn to_json(&self) -> Json {
        obj! {
            "nbench" => self.nbench,
            "scale" => self.scale,
            "seed" => self.seed,
            "solo" => self.solo,
        }
    }
}

impl Cell {
    /// The inert all-zero cell a sweep records in place of a failed job,
    /// so tables keep their shape while the failure itself is reported
    /// through [`SweepRunner::failures`]. Never cached or persisted.
    pub fn failed_placeholder(cfg: &SystemConfig) -> Cell {
        Cell {
            unit_bytes: cfg.hierarchy.unit_bytes(),
            issue_mhz: cfg.issue.mhz(),
            seconds: 0.0,
            cycles_per_ref: 0.0,
            fractions: LevelFractions {
                l1i: 0.0,
                l1d: 0.0,
                l2_sram: 0.0,
                dram: 0.0,
                idle: 0.0,
            },
            overhead: 0.0,
            dram_events: 0,
            tlb_miss_ratio: 0.0,
            l1i_miss_ratio: 0.0,
            l1d_miss_ratio: 0.0,
            l2_miss_ratio: 0.0,
        }
    }

    /// Summarize a finished run as a cell (what [`run_config`] returns).
    pub fn from_run(cfg: &SystemConfig, out: &crate::engine::RunOutcome) -> Cell {
        let m = &out.metrics;
        Cell {
            unit_bytes: cfg.hierarchy.unit_bytes(),
            issue_mhz: cfg.issue.mhz(),
            seconds: out.seconds,
            cycles_per_ref: m.cycles_per_ref(),
            fractions: m.time.fractions(),
            overhead: m.counts.handler_overhead_ratio(),
            dram_events: m.counts.page_faults + m.counts.dram_block_fetches,
            tlb_miss_ratio: m.counts.tlb.miss_ratio(),
            l1i_miss_ratio: m.counts.l1i.miss_ratio(),
            l1d_miss_ratio: m.counts.l1d.miss_ratio(),
            l2_miss_ratio: m.counts.l2.miss_ratio(),
        }
    }

    /// Rebuild a cell from its [`ToJson`] form (the persisted-cache
    /// format); `None` on any missing or mistyped field.
    pub fn from_json(doc: &Json) -> Option<Cell> {
        let f = doc.get("fractions")?;
        let fractions = LevelFractions {
            l1i: f.get("l1i")?.as_f64()?,
            l1d: f.get("l1d")?.as_f64()?,
            l2_sram: f.get("l2_sram")?.as_f64()?,
            dram: f.get("dram")?.as_f64()?,
            idle: f.get("idle")?.as_f64()?,
        };
        Some(Cell {
            unit_bytes: doc.get("unit_bytes")?.as_u64()?,
            issue_mhz: u32::try_from(doc.get("issue_mhz")?.as_u64()?).ok()?,
            seconds: doc.get("seconds")?.as_f64()?,
            cycles_per_ref: doc.get("cycles_per_ref")?.as_f64()?,
            fractions,
            overhead: doc.get("overhead")?.as_f64()?,
            dram_events: doc.get("dram_events")?.as_u64()?,
            tlb_miss_ratio: doc.get("tlb_miss_ratio")?.as_f64()?,
            l1i_miss_ratio: doc.get("l1i_miss_ratio")?.as_f64()?,
            l1d_miss_ratio: doc.get("l1d_miss_ratio")?.as_f64()?,
            l2_miss_ratio: doc.get("l2_miss_ratio")?.as_f64()?,
        })
    }
}

/// Run one configuration over a workload and summarize it as a [`Cell`].
///
/// This is the raw, uncached simulation; sweeps should go through a
/// [`SweepRunner`] instead.
pub fn run_config(cfg: &SystemConfig, workload: &Workload) -> Cell {
    #[expect(
        clippy::disallowed_methods,
        reason = "the raw simulation that SweepRunner wraps"
    )]
    let mut engine = Engine::new(cfg, workload.sources());
    let out = engine.run();
    Cell::from_run(cfg, &out)
}

/// Like [`run_config`], but with event tracing enabled into a ring of at
/// most `trace_cap` events. Returns the cell together with the full
/// [`RunOutcome`](crate::RunOutcome) (events, per-process summaries,
/// histograms); the cell is bit-identical to the untraced one — the
/// observability suite proves it.
pub fn run_config_traced(
    cfg: &SystemConfig,
    workload: &Workload,
    trace_cap: usize,
) -> (Cell, crate::engine::RunOutcome) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the raw traced simulation that the observability suite drives"
    )]
    let mut engine = Engine::new(cfg, workload.sources());
    engine.enable_trace(trace_cap);
    let out = engine.run();
    (Cell::from_run(cfg, &out), out)
}

/// A preset constructor such as [`SystemConfig::baseline`]: issue rate
/// and L2 block or SRAM page size in, config out.
pub(crate) type Preset = fn(IssueRate, u64) -> SystemConfig;

/// A preset's labelled grid: at each `(rate, size)`, rate-major, one
/// cell per `(kind, make)` system in order, labelled
/// `kind@1000MHz/1024B`.
pub(crate) fn sweep_grid(
    rates: &[IssueRate],
    sizes: &[u64],
    systems: &[(&str, Preset)],
) -> Vec<(String, SystemConfig)> {
    let mut cells = Vec::with_capacity(rates.len() * sizes.len() * systems.len());
    for &rate in rates {
        for &size in sizes {
            for &(kind, make) in systems {
                let label = format!("{kind}@{}MHz/{size}B", rate.mhz());
                cells.push((label, make(rate, size)));
            }
        }
    }
    cells
}

/// Submit every config of `grid` over `workload` as one batch, labelled
/// `label` in journaled `done` and `failed` records; cells come back in
/// grid order.
pub fn run_grid(
    runner: &SweepRunner,
    label: &str,
    grid: &[(String, SystemConfig)],
    workload: &Workload,
) -> Vec<Cell> {
    let jobs: Vec<Job> = grid
        .iter()
        .map(|(_, cfg)| Job::new(*cfg, *workload))
        .collect();
    runner.run_labeled(label, &jobs)
}

/// Split a flat sweep into `n` consecutive rows of `width` cells.
pub(crate) fn rows(cells: Vec<Cell>, n: usize, width: usize) -> Vec<Vec<Cell>> {
    let mut cells = cells.into_iter();
    (0..n)
        .map(|_| cells.by_ref().take(width).collect())
        .collect()
}

/// The fastest cell of a row as `(unit_bytes, seconds)`; the first
/// wins a tie, and an empty row gives the inert `(0, 0.0)`.
pub(crate) fn fastest(row: &[Cell]) -> (u64, f64) {
    row.iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .map_or((0, 0.0), |c| (c.unit_bytes, c.seconds))
}

/// An issue rate as the tables print it: `200 MHz`, `4 GHz`.
pub(crate) fn fmt_rate(mhz: u32) -> String {
    if mhz >= 1000 && mhz.is_multiple_of(1000) {
        format!("{} GHz", mhz / 1000)
    } else {
        format!("{mhz} MHz")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_presets() {
        let w = Workload::paper(1000);
        assert_eq!(w.nbench, 18);
        assert_eq!(w.sources().len(), 18);
        // 1.1 G / 1000 ≈ 1.09 M refs.
        assert!((1_000_000..1_200_000).contains(&w.total_refs()));
        assert!(Workload::quick().total_refs() < 20_000);
    }

    #[test]
    fn solo_workload_runs_one_program() {
        let w = Workload::solo(3, 10_000, 7);
        assert_eq!(w.sources().len(), 1);
        assert!(w.total_refs() > 0);
        assert!(w.total_refs() < Workload::paper(10_000).total_refs());
    }

    #[test]
    fn run_config_produces_consistent_cell() {
        let cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        let cell = run_config(&cfg, &Workload::quick());
        assert_eq!(cell.unit_bytes, 1024);
        assert_eq!(cell.issue_mhz, 1000);
        assert!(cell.seconds > 0.0);
        assert!(cell.cycles_per_ref >= 1.0 * 0.5, "ifetches alone give ~0.8");
        assert!(cell.overhead > 0.0, "some handler activity");
        let f = cell.fractions;
        let sum = f.l1i + f.l1d + f.l2_sram + f.dram + f.idle;
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1, got {sum}");
    }

    #[test]
    fn cell_json_roundtrips_bit_exactly() {
        let cell = run_config(
            &SystemConfig::two_way(IssueRate::GHZ4, 256),
            &Workload::quick(),
        );
        let back = Cell::from_json(&cell.to_json()).expect("roundtrip");
        assert_eq!(back, cell);
        // Through text as well (the persisted form).
        let text = cell.to_json().pretty();
        let back = Cell::from_json(&Json::parse(&text).expect("parses")).expect("roundtrip");
        assert_eq!(back, cell);
    }
}
