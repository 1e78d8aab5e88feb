//! Shape tests: small-scale versions of the paper's qualitative claims.
//!
//! These use workloads big enough for the shapes to emerge but small
//! enough for CI (the full-scale reproduction lives in `repro` /
//! EXPERIMENTS.md).

use rampage::prelude::*;
use rampage_core::experiments::{self, SweepRunner, Workload};
use rampage_dram::{efficiency, DramModel};

fn workload() -> Workload {
    Workload {
        nbench: 6,
        scale: 2000,
        seed: 0x7a9e,
        solo: None,
    }
}

fn runner() -> SweepRunner {
    SweepRunner::new(0)
}

#[test]
fn table1_dram_shares_disks_preference_for_large_units() {
    let rambus = DramModel::rambus();
    let disk = DramModel::disk();
    // Both devices' efficiency grows with transfer size...
    for dev in [&rambus, &disk] {
        let mut prev = 0.0;
        for bytes in [128u64, 1024, 64 * 1024, 4 << 20] {
            let e = efficiency(dev, bytes);
            assert!(e > prev, "{}: monotone at {bytes}", dev.name());
            prev = e;
        }
    }
    // ...but DRAM reaches high efficiency at page-sized units where disk
    // is still dismal (§3.5's 2,600-instruction vs 10-million-instruction
    // contrast).
    assert!(efficiency(&rambus, 4096) > 0.95);
    assert!(efficiency(&disk, 4096) < 0.05);
}

#[test]
fn fig4_shape_rampage_overhead_falls_with_page_size_baseline_flat() {
    let w = workload();
    let t3 = experiments::table3::run(&runner(), &w, &[IssueRate::GHZ1], &[128, 512, 4096]);
    let f4 = experiments::figures::figure4(&t3);
    // RAMpage: steep fall from 128 B to 4 KB (the paper's ~60% → ~5%).
    assert!(
        f4.rampage[0] > 3.0 * f4.rampage[2],
        "RAMpage overhead must collapse with page size: {:?}",
        f4.rampage
    );
    // Conventional: flat (the DRAM page size never changes).
    let spread = (f4.baseline[0] - f4.baseline[2]).abs();
    assert!(
        spread < 0.02,
        "baseline overhead flat across block size: {:?}",
        f4.baseline
    );
}

#[test]
fn table3_shape_dm_cache_suffers_at_huge_blocks() {
    let w = workload();
    let t3 = experiments::table3::run(&runner(), &w, &[IssueRate::MHZ200], &[128, 4096]);
    let small = t3.baseline[0][0].seconds;
    let huge = t3.baseline[0][1].seconds;
    assert!(
        huge > 1.2 * small,
        "4 KB blocks must hurt the DM cache at 200 MHz: {small} vs {huge}"
    );
}

#[test]
fn table3_shape_rampage_prefers_larger_pages_than_the_cache() {
    let w = workload();
    let t3 = experiments::table3::run(&runner(), &w, &[IssueRate::GHZ1], &[128, 1024]);
    // RAMpage 128 B pages lose to RAMpage 1 KB pages (TLB overhead).
    assert!(
        t3.rampage[0][0].seconds > t3.rampage[0][1].seconds,
        "small pages must hurt RAMpage"
    );
    // The cache prefers the smaller block at this scale.
    assert!(t3.baseline[0][0].seconds < t3.baseline[0][1].seconds);
}

#[test]
fn fig23_shape_dram_fraction_grows_with_issue_rate() {
    let w = workload();
    let t3 = experiments::table3::run(&runner(), &w, &[IssueRate::MHZ200, IssueRate::GHZ4], &[512]);
    for rows in [&t3.baseline, &t3.rampage] {
        let slow = rows[0][0].fractions.dram;
        let fast = rows[1][0].fractions.dram;
        assert!(
            fast > slow,
            "unimproved DRAM eats a growing fraction: {slow} -> {fast}"
        );
    }
    // And RAMpage spends a smaller fraction of its time in DRAM than the
    // DM cache at the fast end (the §5.3 claim).
    assert!(
        t3.rampage[1][0].fractions.dram < t3.baseline[1][0].fractions.dram,
        "RAMpage is more tolerant of DRAM latency"
    );
}

#[test]
fn rampage_has_fewer_dram_events_than_dm_cache_at_same_unit() {
    // Full associativity (paging) vs direct mapping, same transfer unit:
    // fewer misses is the paper's core mechanism.
    let w = workload();
    let t3 = experiments::table3::run(&runner(), &w, &[IssueRate::GHZ1], &[1024]);
    assert!(
        t3.rampage[0][0].dram_events < t3.baseline[0][0].dram_events,
        "RAMpage {} events vs DM {}",
        t3.rampage[0][0].dram_events,
        t3.baseline[0][0].dram_events
    );
}

#[test]
fn two_way_l2_beats_direct_mapped_l2() {
    let w = workload();
    let t3 = experiments::table3::run(&runner(), &w, &[IssueRate::GHZ1], &[512]);
    let t5 = experiments::table5::run(&runner(), &w, &[IssueRate::GHZ1], &[512]);
    // The 2-way run includes the switch trace, so compare miss counts
    // (associativity must reduce them) rather than raw seconds.
    assert!(
        t5.cells[0][0].l2_miss_ratio <= t3.baseline[0][0].l2_miss_ratio,
        "2-way associativity cannot increase the L2 miss ratio"
    );
}

#[test]
fn fig5_best_config_has_zero_slowdown() {
    let w = workload();
    let rates = [IssueRate::GHZ1];
    let sizes = [512, 2048];
    let t3 = experiments::table3::run(&runner(), &w, &rates, &sizes);
    let t4 = experiments::table4::run(&runner(), &w, &t3);
    let t5 = experiments::table5::run(&runner(), &w, &rates, &sizes);
    let f5 = experiments::fig5::derive(&t4, &t5);
    let min = f5.rampage[0]
        .iter()
        .chain(f5.two_way[0].iter())
        .copied()
        .fold(f64::MAX, f64::min);
    assert!(min.abs() < 1e-12, "someone is the best: {min}");
}
