//! Cross-crate integration tests: the full simulator stack driven
//! end-to-end on small workloads.

use rampage::prelude::*;
use rampage_core::experiments::Workload;
use rampage_core::{DramKind, HierarchyKind, TlbConfig};

fn run(cfg: &SystemConfig, nbench: usize, refs: u64) -> RunOutcome {
    Engine::for_suite(cfg, nbench, refs, 1234).run()
}

#[test]
fn all_three_systems_complete_and_account_time() {
    for cfg in [
        SystemConfig::baseline(IssueRate::GHZ1, 512),
        SystemConfig::two_way(IssueRate::GHZ1, 512),
        SystemConfig::rampage(IssueRate::GHZ1, 512),
        SystemConfig::rampage_switching(IssueRate::GHZ1, 512),
    ] {
        let out = run(&cfg, 4, 30_000);
        let m = out.metrics;
        assert!(
            m.counts.user_refs >= 4 * 29_000,
            "{}: all refs consumed",
            cfg.label()
        );
        // Time conservation: the bucket sum is the total.
        let t = m.time;
        assert_eq!(
            m.total_cycles(),
            t.l1i_cycles + t.l1d_cycles + t.l2_sram_cycles + t.dram_cycles + t.idle_cycles
        );
        // Fractions sum to 1.
        let f = t.fractions();
        assert!((f.l1i + f.l1d + f.l2_sram + f.dram + f.idle - 1.0).abs() < 1e-9);
        // Base time: at least one cycle per instruction fetch.
        assert!(m.total_cycles() >= m.counts.user_ifetches);
        assert!(out.seconds > 0.0);
    }
}

#[test]
fn identical_configs_are_bit_deterministic() {
    let cfg = SystemConfig::rampage_switching(IssueRate::GHZ2, 1024);
    let a = run(&cfg, 5, 20_000);
    let b = run(&cfg, 5, 20_000);
    assert_eq!(a.metrics.total_cycles(), b.metrics.total_cycles());
    assert_eq!(a.metrics.counts, b.metrics.counts);
    assert_eq!(a.elapsed, b.elapsed);
}

#[test]
fn issue_rate_scales_simulated_seconds_not_dram_work() {
    // The same workload at a faster issue rate finishes sooner in wall
    // clock but performs at least as many DRAM cycles (fixed nanoseconds
    // cost more cycles).
    let slow = run(&SystemConfig::baseline(IssueRate::MHZ200, 512), 4, 30_000);
    let fast = run(&SystemConfig::baseline(IssueRate::GHZ4, 512), 4, 30_000);
    assert!(
        fast.seconds < slow.seconds,
        "faster CPU, less simulated time"
    );
    assert!(
        fast.metrics.time.dram_cycles > slow.metrics.time.dram_cycles,
        "same transfers cost more cycles at 4 GHz"
    );
    // DRAM *events* are identical — the workload didn't change.
    assert_eq!(
        fast.metrics.counts.dram_block_fetches,
        slow.metrics.counts.dram_block_fetches
    );

    // More widely: with switch-on-miss and time-based quanta off, no
    // counter depends on the issue rate or the DRAM device, on any
    // hierarchy at any unit size.
    let w = Workload::quick();
    let systems: [fn(IssueRate, u64) -> SystemConfig; 3] = [
        SystemConfig::baseline,
        SystemConfig::two_way,
        SystemConfig::rampage,
    ];
    let drams = [
        DramKind::Rambus,
        DramKind::RambusPipelined,
        DramKind::Sdram,
        DramKind::banked(),
    ];
    for make in systems {
        for unit in [128, 1024, 4096] {
            let counts = |rate, dram| {
                let mut cfg = make(rate, unit);
                cfg.dram = dram;
                Engine::new(&cfg, w.sources()).run().metrics.counts
            };
            let reference = counts(IssueRate::MHZ200, DramKind::Rambus);
            for rate in IssueRate::PAPER_SWEEP {
                for dram in drams {
                    assert_eq!(
                        counts(rate, dram),
                        reference,
                        "{} at {rate} on {dram:?}",
                        make(rate, unit).label()
                    );
                }
            }
        }
    }
}

#[test]
fn rampage_never_references_dram_on_pure_tlb_misses() {
    // A workload fitting comfortably in SRAM: after warm-up, TLB misses
    // must not produce DRAM traffic (§2.3's guarantee).
    let cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
    let out = run(&cfg, 2, 40_000);
    let m = out.metrics;
    assert!(
        m.counts.tlb.misses > m.counts.page_faults,
        "some TLB misses hit resident pages ({} misses, {} faults)",
        m.counts.tlb.misses,
        m.counts.page_faults
    );
    // Every DRAM byte moved is page transfers (faults + writebacks) —
    // no block fetches exist in RAMpage.
    assert_eq!(m.counts.dram_block_fetches, 0);
}

#[test]
fn conventional_inclusion_holds_under_load() {
    // The debug_assert inside the system enforces inclusion per write-back;
    // this test just drives enough traffic through both L2 flavours that
    // a violation would trip it.
    for cfg in [
        SystemConfig::baseline(IssueRate::GHZ1, 128),
        SystemConfig::two_way(IssueRate::GHZ1, 4096),
    ] {
        let out = run(&cfg, 6, 40_000);
        assert!(
            out.metrics.counts.inclusion_probes > 0,
            "L2 evictions probed L1"
        );
    }
}

#[test]
fn bigger_tlb_reduces_handler_overhead() {
    let small = SystemConfig::rampage(IssueRate::GHZ1, 128);
    let mut big = small;
    big.tlb = TlbConfig::large_2way();
    let a = run(&small, 4, 40_000);
    let b = run(&big, 4, 40_000);
    assert!(
        b.metrics.counts.handler_overhead_ratio() < a.metrics.counts.handler_overhead_ratio(),
        "1K-entry TLB must cut refill overhead ({:.3} vs {:.3})",
        b.metrics.counts.handler_overhead_ratio(),
        a.metrics.counts.handler_overhead_ratio()
    );
    assert!(b.seconds < a.seconds, "and run time with it");
}

#[test]
fn standby_list_turns_hard_faults_into_soft_faults() {
    // A short quantum makes processes alternate, so replaced pages get
    // revisited soon — the reuse pattern a standby list exists for. The
    // workload must also overflow the ~1025 user frames of 4 KB each.
    let mut base = SystemConfig::rampage(IssueRate::GHZ1, 4096);
    base.quantum = 50_000;
    let mut with_standby = base;
    if let HierarchyKind::Rampage(ref mut r) = with_standby.hierarchy {
        r.standby_pages = Some(128);
    }
    let a = run(&base, 12, 500_000);
    let b = run(&with_standby, 12, 500_000);
    assert_eq!(
        a.metrics.counts.soft_faults, 0,
        "no standby, no soft faults"
    );
    assert!(b.metrics.counts.soft_faults > 0, "standby reclaims happen");
    // Soft faults avoid DRAM page transfers; the list also reserves
    // frames (reducing effective capacity), so hard faults stay at most
    // equal, not strictly lower.
    assert!(
        b.metrics.counts.page_faults <= a.metrics.counts.page_faults,
        "standby must not increase DRAM page transfers ({} vs {})",
        b.metrics.counts.page_faults,
        a.metrics.counts.page_faults
    );
}

#[test]
fn switch_on_miss_converts_dram_stall_into_overlap() {
    let stall_cfg = SystemConfig::rampage(IssueRate::GHZ4, 4096);
    let mut switch_cfg = SystemConfig::rampage_switching(IssueRate::GHZ4, 4096);
    switch_cfg.switch_trace = true;
    let a = run(&stall_cfg, 8, 30_000);
    let b = run(&switch_cfg, 8, 30_000);
    assert!(b.metrics.counts.switches_on_miss > 0);
    assert!(
        b.metrics.time.dram_cycles < a.metrics.time.dram_cycles,
        "blocked transfers are not charged as DRAM stall"
    );
}

#[test]
fn pipelined_rambus_never_slows_a_run() {
    let mut base = SystemConfig::rampage_switching(IssueRate::GHZ4, 1024);
    base.switch_trace = true;
    let mut piped = base;
    piped.dram = rampage_core::DramKind::RambusPipelined;
    let a = run(&base, 6, 30_000);
    let b = run(&piped, 6, 30_000);
    assert!(
        b.seconds <= a.seconds * 1.0 + 1e-12,
        "pipelining queued transfers cannot hurt ({} vs {})",
        b.seconds,
        a.seconds
    );
}
