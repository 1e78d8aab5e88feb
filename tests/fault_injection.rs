//! The fault-injection suite (`cargo test --features fault`): arm a
//! deterministic fault, run the machinery that should absorb it, and
//! check the typed failure surfaces exactly where the design says it
//! does. Injection state is process-global, so every test holds a
//! [`fault::InjectionScope`] — it serializes tests against each other
//! and disarms everything on entry and on drop.

#![cfg(feature = "fault")]

use rampage_core::experiments::{fault, Job, SweepRunner, Workload};
use rampage_core::{IssueRate, SystemConfig};

/// Every test opens with this: exclusive, disarmed injection state that
/// re-disarms when the guard drops, even if the test fails.
fn armed_section() -> fault::InjectionScope {
    fault::InjectionScope::acquire()
}

#[test]
fn scope_isolates_armed_state_between_tests() {
    let job = Job::new(
        SystemConfig::rampage(IssueRate::GHZ1, 512),
        Workload::quick(),
    );
    {
        let _g = armed_section();
        // Armed but never fired: a test that bails here must not leak
        // the armed panic into whoever acquires the scope next.
        fault::arm_cell_panic(job.fingerprint());
    }
    let _g = armed_section();
    let runner = SweepRunner::serial();
    let cells = runner.run_batch(&[job]);
    assert!(cells[0].seconds > 0.0, "stale armed state was disarmed");
    assert_eq!(runner.failure_count(), 0);
}

#[test]
fn persistent_panic_becomes_failed_cell_while_siblings_complete() {
    let _g = armed_section();
    let w = Workload::quick();
    let bad = Job::new(SystemConfig::rampage(IssueRate::GHZ1, 512), w);
    let good = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 256), w);
    fault::arm_cell_panic(bad.fingerprint());
    let runner = SweepRunner::new(4);
    let cells = runner.run_batch(&[good, bad]);
    assert!(cells[0].seconds > 0.0, "sibling completes");
    assert_eq!(cells[1].seconds, 0.0, "failed slot holds the placeholder");
    let failures = runner.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].fingerprint, bad.fingerprint());
    assert!(
        failures[0].error.contains("injected fault"),
        "{}",
        failures[0].error
    );
    assert_eq!(runner.cache().len(), 1, "failed cells are never cached");
}
