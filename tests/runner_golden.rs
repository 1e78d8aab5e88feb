//! Golden tests for the sweep runner: the parallel pool must be
//! bit-identical to the serial path, the cell cache must dedup
//! overlapping sweeps across artifacts, and a failing job must be
//! isolated to its own cell instead of killing the sweep.

use rampage_core::experiments::{
    ablations, run_config_traced, table3, table4, table5, timeslice, Job, SweepRunner, Workload,
};
use rampage_core::obs::to_jsonl;
use rampage_core::{HierarchyKind, IssueRate, SystemConfig};
use rampage_json::{Json, ToJson};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A job that passes [`SystemConfig::validate`] but panics inside the
/// simulation: the standby list's capacity check only trips once the
/// RAMpage system computes its real frame count. This is a genuine
/// (undiagnosable-at-validation) runtime invariant, which is exactly
/// what the runner's isolation boundary exists for.
fn panicking_job(w: Workload) -> Job {
    let mut cfg = SystemConfig::rampage(IssueRate::GHZ1, 512);
    match cfg.hierarchy {
        HierarchyKind::Rampage(ref mut r) => r.standby_pages = Some(1_000_000),
        HierarchyKind::Conventional(_) => unreachable!("rampage preset"),
    }
    cfg.validate()
        .expect("job must pass validation to reach the panic");
    Job::new(cfg, w)
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let w = Workload::quick();
    let rates = [IssueRate::MHZ200, IssueRate::GHZ4];
    let sizes = [256u64, 2048];
    let serial = table3::run(&SweepRunner::serial(), &w, &rates, &sizes);
    let parallel = table3::run(&SweepRunner::new(4), &w, &rates, &sizes);
    // Cell-for-cell equality in submission order...
    assert_eq!(serial.baseline, parallel.baseline);
    assert_eq!(serial.rampage, parallel.rampage);
    // ...and the rendered JSON (the persisted form) matches byte-for-byte.
    assert_eq!(serial.to_json().pretty(), parallel.to_json().pretty());
}

#[test]
fn parallel_batch_with_duplicates_keeps_order_and_dedups() {
    let w = Workload::quick();
    let a = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 512), w);
    let b = Job::new(SystemConfig::rampage(IssueRate::GHZ1, 512), w);
    // Duplicates interleaved: each unique config simulates once.
    let jobs = [a, b, a, b, a];
    let runner = SweepRunner::new(4);
    let cells = runner.run_batch(&jobs);
    assert_eq!(cells.len(), 5);
    assert_eq!(cells[0], cells[2]);
    assert_eq!(cells[0], cells[4]);
    assert_eq!(cells[1], cells[3]);
    assert_ne!(cells[0], cells[1]);
    assert_eq!(runner.cache().computed(), 2, "two unique jobs simulated");
    assert_eq!(
        runner.cache().hits(),
        3,
        "three duplicates served from cache"
    );
    // The serial path returns the same vector.
    assert_eq!(SweepRunner::serial().run_batch(&jobs), cells);
}

/// Two workers simulate two cells at once. Each cell's progress
/// callback counts it finished, then waits until both cells have
/// finished. A pool that runs one cell at a time fires the callbacks
/// one after the other, so its first callback times out.
#[test]
fn two_workers_run_two_cells_at_once() {
    let w = Workload::quick();
    let jobs = [
        Job::new(SystemConfig::baseline(IssueRate::GHZ1, 512), w),
        Job::new(SystemConfig::rampage(IssueRate::GHZ1, 512), w),
    ];
    // (cells finished, callbacks that saw both finish), and its signal.
    let rendezvous = Arc::new((Mutex::new((0usize, 0usize)), Condvar::new()));
    let runner = SweepRunner::new(2).with_progress({
        let rendezvous = Arc::clone(&rendezvous);
        move |_| {
            let (state, finished) = &*rendezvous;
            let mut s = state.lock().unwrap();
            s.0 += 1;
            finished.notify_all();
            let (mut s, _) = finished
                .wait_timeout_while(s, Duration::from_secs(20), |s| s.0 < 2)
                .unwrap();
            if s.0 == 2 {
                s.1 += 1;
            }
        }
    });
    let cells = runner.run_batch(&jobs);
    assert!(
        cells.iter().all(|c| c.seconds > 0.0),
        "both cells simulated"
    );
    let saw_both = rendezvous.0.lock().unwrap().1;
    assert_eq!(
        saw_both, 2,
        "a cell's callback never saw the other cell finish"
    );
}

#[test]
fn panicking_job_yields_failed_cell_while_siblings_complete() {
    let w = Workload::quick();
    let good_a = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 256), w);
    let bad = panicking_job(w);
    let good_b = Job::new(SystemConfig::rampage(IssueRate::GHZ1, 1024), w);
    for (label, runner) in [
        ("serial", SweepRunner::serial()),
        ("parallel", SweepRunner::new(4)),
    ] {
        let cells = runner.run_batch(&[good_a, bad, good_b]);
        assert_eq!(cells.len(), 3, "{label}: sweep keeps its shape");
        assert!(cells[0].seconds > 0.0, "{label}: first sibling simulated");
        assert_eq!(
            cells[1].seconds, 0.0,
            "{label}: failed slot holds the inert placeholder"
        );
        assert_eq!(cells[1].unit_bytes, 512, "{label}: placeholder is labelled");
        assert!(cells[2].seconds > 0.0, "{label}: second sibling simulated");

        let failures = runner.failures();
        assert_eq!(failures.len(), 1, "{label}: one failure recorded");
        let f = &failures[0];
        assert_eq!(f.unit_bytes, 512);
        assert_eq!(f.fingerprint, bad.fingerprint());
        assert!(
            f.error.contains("standby capacity"),
            "{label}: carries the panic message: {}",
            f.error
        );
        assert_eq!(
            runner.cache().len(),
            2,
            "{label}: failed cells are never cached"
        );
        assert!(runner.failure_report().contains("standby capacity"));
    }
}

#[test]
fn failed_cells_do_not_break_golden_equality() {
    let w = Workload::quick();
    let jobs = [
        Job::new(SystemConfig::baseline(IssueRate::GHZ1, 256), w),
        panicking_job(w),
        Job::new(SystemConfig::two_way(IssueRate::GHZ1, 512), w),
        panicking_job(w), // duplicate of the bad job: dedup still applies
    ];
    let serial = SweepRunner::serial();
    let parallel = SweepRunner::new(4);
    assert_eq!(
        serial.run_batch(&jobs),
        parallel.run_batch(&jobs),
        "pools must not change results, failures included"
    );
    assert_eq!(serial.failures(), parallel.failures());
    assert_eq!(serial.failure_count(), 1, "duplicate bad job fails once");
}

/// Drop keys whose values are wall-clock-derived (and therefore vary
/// run to run) before byte comparison. `telemetry_json` isolates all
/// of them under `"wall"`; `"workers"` is stripped too so documents
/// from different pool widths stay comparable.
fn strip_nondeterministic(doc: Json) -> String {
    match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "wall" && k != "workers")
                .collect(),
        )
        .pretty(),
        other => other.pretty(),
    }
}

/// The persisted sweep outputs — `cells.json`, wall-stripped
/// `metrics.json`, and the event-trace JSONL — must be byte-identical
/// across repeat runs and across `--jobs 1` vs `--jobs N`.
#[test]
fn persisted_outputs_are_deterministic_across_jobs_and_reruns() {
    let w = Workload::quick();
    let rates = [IssueRate::MHZ200, IssueRate::GHZ4];
    let sizes = [256u64, 2048];
    let sweep = |jobs: usize| {
        let runner = SweepRunner::new(jobs);
        table3::run(&runner, &w, &rates, &sizes);
        (
            runner.cache().to_json().pretty(),
            strip_nondeterministic(runner.telemetry_json()),
        )
    };
    let (cells_1, metrics_1) = sweep(1);
    let (cells_n, metrics_n) = sweep(4);
    let (cells_n2, metrics_n2) = sweep(4);
    assert_eq!(cells_1, cells_n, "cells.json differs between jobs 1 and 4");
    assert_eq!(cells_n, cells_n2, "cells.json differs across reruns");
    assert_eq!(metrics_1, metrics_n, "metrics.json (wall-stripped) differs");
    assert_eq!(metrics_n, metrics_n2, "metrics.json differs across reruns");

    // The event trace of the same config is byte-identical across runs.
    let cfg = SystemConfig::rampage_switching(IssueRate::GHZ1, 4096);
    let (_, a) = run_config_traced(&cfg, &w, 1 << 20);
    let (_, b) = run_config_traced(&cfg, &w, 1 << 20);
    assert_eq!(
        to_jsonl(&a.events),
        to_jsonl(&b.events),
        "event-trace JSONL differs across reruns"
    );

    // And a runner whose workload also produced a trace yields the same
    // cells as one that never traced: tracing cannot leak into sweeps.
    let runner = SweepRunner::new(4);
    table3::run(&runner, &w, &rates, &sizes);
    assert_eq!(
        runner.cache().to_json().pretty(),
        cells_1,
        "a traced run alongside the sweep changed cached cells"
    );
}

#[test]
fn cache_dedups_across_artifacts() {
    // Table 5 and the time-slice study's fixed-refs regime sweep the same
    // 2-way configurations; Table 4's cells reappear as the ablations'
    // rampage Base knob and the ablations' two_way Base knob is a Table 5
    // cell. One shared runner must compute each unique config only once.
    let w = Workload::quick();
    let runner = SweepRunner::new(0);
    let rates = [IssueRate::GHZ1];
    let sizes = [1024u64];

    let t5 = table5::run(&runner, &w, &rates, &sizes);
    assert_eq!(runner.cache().hits(), 0, "first sweep is all cold");
    let after_t5 = runner.cache().computed();

    let ts = timeslice::run(&runner, &w, &rates, &sizes, timeslice::DEFAULT_SLICE_PS);
    assert!(
        runner.cache().hits() >= (rates.len() * sizes.len()) as u64,
        "the fixed-refs regime must come from the cache"
    );
    // The shared cells really are the same simulation results.
    assert_eq!(t5.cells[0][0], ts.fixed_refs[0][0]);

    let t3 = table3::run(&runner, &w, &rates, &sizes);
    table4::run(&runner, &w, &t3);
    let hits_before_ablations = runner.cache().hits();
    let a = ablations::run(&runner, &w, rates[0], sizes[0]);
    assert!(
        runner.cache().hits() >= hits_before_ablations + 2,
        "the ablations' Base pair must come from the cache"
    );
    assert_eq!(a.rows[0].two_way, t5.cells[0][0]);
    assert!(
        runner.cache().computed() > after_t5,
        "later sweeps still simulated their unique configs"
    );
}
