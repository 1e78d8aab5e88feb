//! The two kinds of run: `run` measures the end-to-end metrics with
//! tracing off; `trace` measures the per-layer metrics and writes spans.
//! Both check every cell they produce.

use crate::check::{Checks, Golden};
use crate::layers;
use crate::report::{median, quantile, ratio, sheet, Metric, END_TO_END, PER_LAYER};
use crate::spans::{engine_pass, now, CellRun, Tracer};
use crate::workload::{runner_rep, Kind, Prepared, RunnerRep, Size, DEFAULT_SEED};
use rampage_cache::CacheStats;
use rampage_core::experiments::{corpus_source_stats, Cell, CorpusSourceStats, Job};
use rampage_core::{DramKind, HierarchyKind};
use rampage_trace::corpus::CorpusReader;
use rampage_trace::profiles::TABLE2;
use rampage_trace::TraceSource;
use std::hint::black_box;
use std::path::PathBuf;

/// Set-ups before the warm-up repetition.
const MIN_SETUPS: usize = 2;
/// Share of the measured time spent on further set-ups, interleaved with
/// the repetitions so that `setup_s` samples the same host conditions.
const SETUP_SHARE: f64 = 0.15;

/// The samples an end-to-end metric summarizes: the fastest tenth of
/// `n` (at least two, or all of them when there are fewer).
///
/// Every repetition (and every set-up) does the same work, so the
/// fastest ones are those the host disturbed least. On a shared 2-vCPU
/// VM, neighbours slow whole repetitions by up to 1.9x for seconds at a
/// time; a median over every repetition moves with how long that lasted,
/// while the fastest tenth moves with the code (README.md § Noise).
fn fastest(n: usize) -> usize {
    (n / 10).max(2).min(n)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured repetitions continue until this many seconds have passed
    /// (at least one always runs).
    pub seconds: f64,
    /// Input size.
    pub size: Size,
    /// Scratch directory (created, and removed when done).
    pub scratch: PathBuf,
}

/// A finished run: the checks, the metrics, and the sample counts behind
/// them.
#[derive(Debug)]
pub struct Outcome {
    /// Everything checked.
    pub checks: Checks,
    /// Every metric of the run's kind, in declaration order.
    pub metrics: Vec<Metric>,
    /// Sample counts behind the metrics.
    pub counts: Vec<(&'static str, u64)>,
}

/// Check a warm-up repetition: its own cells, and at the default seed
/// the pinned digests. Returns the reference cells later reps must match.
fn check_warm_up(
    opts: &Options,
    prep: &Prepared,
    warm: &RunnerRep,
    checks: &mut Checks,
) -> Vec<Cell> {
    check_rep("warm-up", prep, warm, &warm.cells, checks);
    if opts.seed == DEFAULT_SEED && opts.size == Size::Full {
        let got = Golden::of(prep.input_digest, &warm.cells);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            if let Err(e) = got.save(opts.kind, &prep.plan.labels()) {
                checks.invariant(false, || format!("writing golden digests: {e}"));
            }
        } else {
            match Golden::load(opts.kind) {
                Some(pinned) => checks.golden(&pinned, &got),
                None => checks.invariant(false, || "no pinned digests in golden/".to_string()),
            }
        }
    }
    warm.cells.clone()
}

/// Check one runner repetition against the reference cells.
fn check_rep(
    what: &str,
    prep: &Prepared,
    rep: &RunnerRep,
    reference: &[Cell],
    checks: &mut Checks,
) {
    checks.cells(what, reference, &rep.cells);
    checks.runner_failures(what, rep.failures);
    if let Some(j) = &rep.journal {
        checks.cells(&format!("{what} resume"), reference, &j.resume_cells);
        checks.invariant(j.resume_computed == 0, || {
            format!(
                "{what}: the resume pass recomputed {} cells",
                j.resume_computed
            )
        });
        let distinct = prep.plan.distinct.len();
        checks.invariant(j.reload.is_clean() && j.reload.loaded == distinct, || {
            format!(
                "{what}: cells.json reloaded {} of {distinct} cells ({})",
                j.reload.loaded,
                j.reload.describe()
            )
        });
    }
}

fn corpus_fallback_is_zero(kind: Kind, checks: &mut Checks) {
    if kind == Kind::SoloCorpus {
        let stats = corpus_source_stats();
        checks.invariant(stats.fallback == 0 && stats.opened > 0, || {
            format!(
                "corpus replay: {} source(s) opened, {} fell back to synthesis",
                stats.opened, stats.fallback
            )
        });
    }
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Set `opts`'s workload up in the scratch directory `setup<n>`, timed.
fn timed_setup(opts: &Options, n: usize) -> Result<(Prepared, f64), String> {
    let dir = opts.scratch.join(format!("setup{n}"));
    let t = now();
    let prep = Prepared::new(opts.kind, opts.size, opts.seed, dir)?;
    Ok((prep, t.elapsed().as_secs_f64()))
}

/// The end-to-end run: [`MIN_SETUPS`] set-ups, one unmeasured warm-up
/// repetition (after which peak memory is read), then measured
/// repetitions for `opts.seconds`, with more set-ups in between.
///
/// # Errors
///
/// An I/O failure in set-up, the journal, or `/proc`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (mut prep, first) = timed_setup(opts, 0)?;
    let mut setup_s = vec![first];
    while setup_s.len() < MIN_SETUPS {
        let (next, s) = timed_setup(opts, setup_s.len())?;
        setup_s.push(s);
        prep = next;
    }
    CorpusSourceStats::reset();

    let mut checks = Checks::default();
    let warm = runner_rep(&prep, 0, None)?;
    // Read after one whole batch: later repetitions start fresh worker
    // threads, and how much of their allocators' memory the process keeps
    // varies run to run by whole arenas (17, 27 or 38 MiB on grid_synth).
    let rss_mib = peak_rss_mib()?;
    let reference = check_warm_up(opts, &prep, &warm, &mut checks);

    let mut reps: Vec<(f64, u64, Vec<f64>)> = Vec::new();
    let start = now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let rep = runner_rep(&prep, reps.len() + 1, None)?;
        check_rep("rep", &prep, &rep, &reference, &mut checks);
        reps.push((rep.wall_s, rep.computed, rep.cell_secs));
        while setup_s.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let (next, s) = timed_setup(opts, setup_s.len())?;
            setup_s.push(s);
            prep = next;
        }
    }
    corpus_fallback_is_zero(opts.kind, &mut checks);
    let refs = prep.plan.refs_per_rep() as f64;
    drop(prep);

    reps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let fast = &reps[..fastest(reps.len())];
    let n_setups = setup_s.len() as u64;
    setup_s.sort_by(f64::total_cmp);
    setup_s.truncate(fastest(setup_s.len()));
    let refs_per_s: Vec<f64> = fast.iter().map(|r| refs / r.0).collect();
    let cells_per_s: Vec<f64> = fast.iter().map(|r| r.1 as f64 / r.0).collect();
    let cell_ms: Vec<f64> = fast
        .iter()
        .flat_map(|r| r.2.iter().map(|s| s * 1e3))
        .collect();
    let metrics = sheet(
        &END_TO_END,
        &[
            ("refs_per_s", median(&refs_per_s)),
            ("cells_per_s", median(&cells_per_s)),
            ("cell_ms_p50", median(&cell_ms)),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mib", rss_mib),
        ],
    );
    Ok(Outcome {
        checks,
        metrics,
        counts: vec![
            ("reps", reps.len() as u64),
            ("fast_reps", fast.len() as u64),
            ("setups", n_setups),
            ("cells_timed", cell_ms.len() as u64),
        ],
    })
}

/// Sums over one engine pass.
#[derive(Debug, Default, Clone, Copy)]
struct PassTotals {
    build_ns: f64,
    run_ns: f64,
    fill_ns: f64,
    fill_records: f64,
    user_refs: f64,
    sim_refs: f64,
}

fn totals(runs: &[CellRun]) -> PassTotals {
    let mut t = PassTotals::default();
    for r in runs {
        let c = &r.metrics.counts;
        t.build_ns += r.build_ns as f64;
        t.run_ns += r.run_ns as f64;
        t.fill_ns += r.fill_ns as f64;
        t.fill_records += r.fill_records as f64;
        t.user_refs += c.user_refs as f64;
        t.sim_refs +=
            (c.user_refs + c.tlb_handler_refs + c.fault_handler_refs + c.switch_refs) as f64;
    }
    t
}

/// Host ns per `Job::fingerprint` over the workload's job list.
fn fingerprint_ns(jobs: &[Job]) -> f64 {
    let rounds = 20_000usize.div_ceil(jobs.len().max(1));
    let t = now();
    for _ in 0..rounds {
        for job in jobs {
            black_box(job.fingerprint());
        }
    }
    ratio(t.elapsed().as_nanos() as f64, (rounds * jobs.len()) as f64)
}

/// The simulated counts of one traced pass, and the layer-cost estimates
/// they imply against `engine_ns` of engine time.
fn count_metrics(
    runs: &[CellRun],
    jobs: &[Job],
    costs: &layers::LayerCosts,
    engine_ns: f64,
) -> Vec<(&'static str, f64)> {
    let (mut l1i, mut l1d, mut l2) = (
        CacheStats::default(),
        CacheStats::default(),
        CacheStats::default(),
    );
    let (mut tlb_hits, mut tlb_misses, mut ipt_walks) = (0u64, 0u64, 0u64);
    let (mut cycles, mut idle, mut dram_cycles) = (0u64, 0u64, 0u64);
    let (mut transfers, mut dram_est_ns) = (0u64, 0.0);
    let mut c_sum = rampage_core::Counters::default();
    for (run, job) in runs.iter().zip(jobs) {
        let c = &run.metrics.counts;
        l1i += c.l1i;
        l1d += c.l1d;
        l2 += c.l2;
        tlb_hits += c.tlb.hits;
        tlb_misses += c.tlb.misses;
        if matches!(job.cfg.hierarchy, HierarchyKind::Rampage(_)) {
            ipt_walks += c.tlb.misses;
        }
        cycles += run.metrics.total_cycles();
        idle += run.metrics.time.idle_cycles;
        dram_cycles += run.metrics.time.dram_cycles;
        let t = c.page_faults + c.dram_block_fetches + c.dram_writebacks + c.prefetches;
        transfers += t;
        let per_request = match job.cfg.dram {
            DramKind::Banked(_) => costs.banked_ns,
            _ => costs.flat_ns,
        };
        dram_est_ns += t as f64 * per_request;
        c_sum.user_refs += c.user_refs;
        c_sum.tlb_handler_refs += c.tlb_handler_refs;
        c_sum.fault_handler_refs += c.fault_handler_refs;
        c_sum.context_switches += c.context_switches;
        c_sum.switches_on_miss += c.switches_on_miss;
        c_sum.inclusion_probes += c.inclusion_probes;
        c_sum.page_faults += c.page_faults;
        c_sum.soft_faults += c.soft_faults;
    }
    let l1_accesses = (l1i.accesses() + l1d.accesses()) as f64;
    let tlb_lookups = (tlb_hits + tlb_misses) as f64;
    vec![
        (
            "engine.handler_refs_per_ref",
            c_sum.handler_overhead_ratio(),
        ),
        ("engine.switches", c_sum.context_switches as f64),
        ("engine.switches_on_miss", c_sum.switches_on_miss as f64),
        ("engine.idle_frac", ratio(idle as f64, cycles as f64)),
        ("cache.l1i.accesses", l1i.accesses() as f64),
        ("cache.l1i.miss_ratio", l1i.miss_ratio()),
        ("cache.l1d.accesses", l1d.accesses() as f64),
        ("cache.l1d.miss_ratio", l1d.miss_ratio()),
        ("cache.l2.accesses", l2.accesses() as f64),
        ("cache.l2.miss_ratio", l2.miss_ratio()),
        ("cache.inclusion_probes", c_sum.inclusion_probes as f64),
        ("cache.l1.ns_per_access", costs.l1_ns),
        ("cache.l2.ns_per_access", costs.l2_ns),
        (
            "cache.est_frac",
            ratio(
                l1_accesses * costs.l1_ns + l2.accesses() as f64 * costs.l2_ns,
                engine_ns,
            ),
        ),
        ("vm.tlb.lookups", tlb_lookups),
        ("vm.tlb.miss_ratio", ratio(tlb_misses as f64, tlb_lookups)),
        ("vm.page_faults", c_sum.page_faults as f64),
        ("vm.soft_faults", c_sum.soft_faults as f64),
        ("vm.tlb.ns_per_lookup", costs.tlb_ns),
        ("vm.ipt.ns_per_lookup", costs.ipt_ns),
        (
            "vm.est_frac",
            ratio(
                tlb_lookups * costs.tlb_ns + ipt_walks as f64 * costs.ipt_ns,
                engine_ns,
            ),
        ),
        ("dram.transfers", transfers as f64),
        ("dram.frac", ratio(dram_cycles as f64, cycles as f64)),
        ("dram.flat.ns_per_request", costs.flat_ns),
        ("dram.banked.ns_per_request", costs.banked_ns),
        ("dram.banked.row_hit_ratio", costs.banked_row_hit_ratio),
        ("dram.est_frac", ratio(dram_est_ns, engine_ns)),
    ]
}

/// The traced run's extra output.
#[derive(Debug)]
pub struct Traced {
    /// Checks and per-layer metrics.
    pub outcome: Outcome,
    /// Every span recorded.
    pub tracer: Tracer,
    /// The per-program cost table (`solo_corpus` at full size only).
    pub programs: Option<String>,
}

/// The per-layer run: set up once, one untraced warm-up repetition, then
/// for `opts.seconds` repetitions of three passes — through the runner,
/// through `Engine::new` + `run` untraced, and the same traced — whose
/// cells must all match.
///
/// # Errors
///
/// An I/O failure in set-up or the journal.
pub fn trace(opts: &Options) -> Result<Traced, String> {
    let prep = Prepared::new(opts.kind, opts.size, opts.seed, opts.scratch.join("setup0"))?;
    let plan = &prep.plan;
    let mut checks = Checks::default();
    let warm = runner_rep(&prep, 0, None)?;
    let reference = check_warm_up(opts, &prep, &warm, &mut checks);
    let jobs = plan.distinct_jobs();
    let distinct_ref: Vec<Cell> = plan.distinct.iter().map(|&i| reference[i]).collect();
    let costs = layers::measure(&jobs[0]);
    let fp_ns = fingerprint_ns(&plan.jobs);

    let tracer = Tracer::new();
    let mut per_rep: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut overhead = Vec::new();
    let mut cell_ms = Vec::new();
    let mut sim_ns_per_ref: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut last_traced = Vec::new();
    let start = now();
    while per_rep.is_empty() || start.elapsed().as_secs_f64() < opts.seconds {
        let rep = per_rep.len() + 1;
        CorpusSourceStats::reset();
        let r = runner_rep(&prep, rep, Some(&tracer))?;
        let corpus = corpus_source_stats();
        check_rep("rep", &prep, &r, &reference, &mut checks);

        let t = now();
        let plain = engine_pass(&jobs, plan.workers, None);
        let plain_s = t.elapsed().as_secs_f64();
        let t = now();
        let traced = engine_pass(&jobs, plan.workers, Some(&tracer));
        let traced_s = t.elapsed().as_secs_f64();
        let cells = |runs: &[CellRun]| runs.iter().map(|r| r.cell).collect::<Vec<_>>();
        checks.cells("untraced engine pass", &distinct_ref, &cells(&plain));
        checks.cells("traced engine pass", &distinct_ref, &cells(&traced));
        corpus_fallback_is_zero(opts.kind, &mut checks);

        let p = totals(&plain);
        let tr = totals(&traced);
        overhead.push(1.0 - ratio(tr.user_refs / traced_s, p.user_refs / plain_s));
        for (k, run) in plain.iter().enumerate() {
            sim_ns_per_ref[k].push(ratio(
                run.run_ns as f64,
                run.metrics.counts.user_refs as f64,
            ));
        }
        let engine_ns = tr.run_ns - tr.fill_ns;
        let cell_s: f64 = r.cell_secs.iter().sum();
        cell_ms.extend(r.cell_secs.iter().map(|s| s * 1e3));
        let journal = r.journal.as_ref();
        per_rep.push(vec![
            ("trace.records", tr.fill_records),
            ("trace.ns_per_record", ratio(tr.fill_ns, tr.fill_records)),
            ("trace.busy_frac", ratio(tr.fill_ns, tr.run_ns)),
            ("trace.corpus_opened", corpus.opened as f64),
            ("trace.corpus_fallback", corpus.fallback as f64),
            (
                "engine.build_us",
                ratio(tr.build_ns, 1e3 * traced.len() as f64),
            ),
            ("engine.ns_per_ref", ratio(engine_ns, tr.user_refs)),
            ("engine.ns_per_sim_ref", ratio(engine_ns, tr.sim_refs)),
            ("engine_ns", engine_ns),
            ("runner.cells_computed", r.computed as f64),
            ("runner.cache_hits", r.cache_hits as f64),
            ("runner.failures", r.failures as f64),
            ("runner.pool_speedup", ratio(cell_s, r.batch_s)),
            (
                "runner.overhead_ms_per_cell",
                1e3 * ratio(r.batch_s * plan.workers as f64 - cell_s, r.computed as f64),
            ),
            (
                "runner.journal_open_ms",
                journal.map_or(0.0, |j| 1e3 * j.open_s),
            ),
            (
                "runner.journal_bytes",
                journal.map_or(0.0, |j| j.bytes as f64),
            ),
            ("runner.save_ms", journal.map_or(0.0, |j| 1e3 * j.save_s)),
            (
                "runner.resume_ms",
                journal.map_or(0.0, |j| 1e3 * j.resume_s),
            ),
        ]);
        last_traced = traced;
    }

    let rep_median = |name: &str| {
        let v: Vec<f64> = per_rep
            .iter()
            .filter_map(|m| m.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
            .collect();
        median(&v)
    };
    let mut values: Vec<(&str, f64)> = per_rep[0]
        .iter()
        .filter(|(name, _)| *name != "engine_ns")
        .map(|&(name, _)| (name, rep_median(name)))
        .collect();
    values.extend(count_metrics(
        &last_traced,
        &jobs,
        &costs,
        rep_median("engine_ns"),
    ));
    let bits = prep.corpus.as_ref().map_or(0.0, |m| {
        ratio(8.0 * m.total_bytes() as f64, m.total_records() as f64)
    });
    values.extend([
        ("trace.corpus_bits_per_record", bits),
        ("trace.record_s", prep.record_s),
        ("runner.cell_ms_p90", quantile(&cell_ms, 0.9)),
        ("runner.fingerprint_ns", fp_ns),
        ("bench.trace_overhead_frac", median(&overhead)),
    ]);
    let programs = match (&prep.corpus, opts.size) {
        (Some(_), Size::Full) => Some(programs_table(&prep, &sim_ns_per_ref)),
        _ => None,
    };
    drop(prep);
    Ok(Traced {
        outcome: Outcome {
            checks,
            metrics: sheet(&PER_LAYER, &values),
            counts: vec![("reps", per_rep.len() as u64)],
        },
        tracer,
        programs,
    })
}

/// Host ns to pull every record out of `source`.
fn drain_ns(mut source: impl TraceSource) -> f64 {
    let t = now();
    while let Some(rec) = source.next_record() {
        black_box(rec);
    }
    t.elapsed().as_nanos() as f64
}

/// One row per Table 2 program: its trace size, how fast it synthesizes
/// and replays, and how much slower simulating it is than replaying it.
fn programs_table(prep: &Prepared, sim_ns_per_ref: &[Vec<f64>]) -> String {
    let manifest = prep.corpus.as_ref().expect("solo_corpus records a corpus");
    let w = prep.plan.jobs[0].workload;
    let mut out = format!(
        "# Per-program cost of the Table 2 suite\n\n\
         Each program alone at scale {} (seed {}), replayed from the corpus\n\
         `solo_corpus` records during set-up, on {} core(s). Regenerate with\n\
         `cargo run --release --manifest-path ledger/Cargo.toml --bin ledger -- trace --workload solo_corpus`.\n\n\
         - *Sim ns/ref*: host ns per reference of `Engine::run` replaying the\n  \
         program (median over the traced run's repetitions).\n\
         - *Sim ÷ replay*: how many times slower simulating is than decoding.\n\n\
         | Program | Records | Corpus bits/record | Synth ns/record | Replay ns/record | Sim ns/ref | Sim ÷ replay |\n\
         |---|---:|---:|---:|---:|---:|---:|\n",
        w.scale,
        w.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let (mut total_records, mut total_bytes) = (0u64, 0u64);
    let (mut synth_ns, mut replay_ns, mut sim_ns) = (0.0, 0.0, 0.0);
    for (i, p) in TABLE2.iter().enumerate() {
        let shard = &manifest.shards[i];
        let synth = drain_ns(p.source(w.scale, w.seed));
        let replay = CorpusReader::open(prep.corpus_dir().join(&shard.file)).map_or(0.0, drain_ns);
        let records = shard.records as f64;
        let sim = median(&sim_ns_per_ref[i]);
        total_records += shard.records;
        total_bytes += shard.bytes;
        synth_ns += synth;
        replay_ns += replay;
        sim_ns += sim * records;
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.1} | {:.1} | {:.1} | {:.1}x |\n",
            p.name,
            shard.records,
            ratio(8.0 * shard.bytes as f64, records),
            ratio(synth, records),
            ratio(replay, records),
            sim,
            ratio(sim * records, replay),
        ));
    }
    let n = total_records as f64;
    out.push_str(&format!(
        "| **all** | {total_records} | {:.2} | {:.1} | {:.1} | {:.1} | {:.1}x |\n",
        ratio(8.0 * total_bytes as f64, n),
        ratio(synth_ns, n),
        ratio(replay_ns, n),
        ratio(sim_ns, n),
        ratio(sim_ns, replay_ns),
    ));
    out
}
