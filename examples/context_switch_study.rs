//! Context-switch-on-miss study (the paper's §4.6 / Table 4 idea):
//! when is a page fault to DRAM long enough to be worth a context
//! switch?
//!
//! Runs RAMpage with and without switch-on-miss across the issue-rate
//! sweep and prints the speedup, plus the raw DRAM-transfer-vs-switch
//! cost arithmetic that §3.5 uses to motivate the idea.
//!
//! ```text
//! cargo run --release --example context_switch_study
//! ```

use rampage::prelude::*;
use rampage_core::TableBuilder;
use rampage_dram::DramModel;

fn main() {
    // First the analytic view: a context switch costs ~400 references
    // (≈400+ cycles); a page transfer costs 50 ns + 0.625 ns/byte.
    println!("When does a switch fit inside a page transfer?\n");
    let rambus = DramModel::rambus();
    let mut t = TableBuilder::new(vec![
        "page".into(),
        "transfer".into(),
        "cycles @200MHz".into(),
        "cycles @1GHz".into(),
        "cycles @4GHz".into(),
    ]);
    for page in [128u64, 512, 1024, 4096] {
        let tt = rambus.transfer_time(page);
        t.row(vec![
            format!("{page} B"),
            tt.to_string(),
            tt.cycles_ceil(IssueRate::MHZ200.cycle()).to_string(),
            tt.cycles_ceil(IssueRate::GHZ1.cycle()).to_string(),
            tt.cycles_ceil(IssueRate::GHZ4.cycle()).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "A ~400-reference switch only pays off once the transfer is much\n\
         longer than the switch itself — i.e. for larger pages and faster\n\
         CPUs. Now the simulated verdict:\n"
    );

    let mut t = TableBuilder::new(vec![
        "issue rate".into(),
        "page".into(),
        "no switch".into(),
        "switch-on-miss".into(),
        "speedup".into(),
        "switches on miss".into(),
        "idle %".into(),
    ]);
    for rate in IssueRate::PAPER_SWEEP {
        for page in [1024u64, 4096] {
            let base = Engine::for_suite(&SystemConfig::rampage(rate, page), 8, 120_000, 42).run();
            let mut cfg = SystemConfig::rampage_switching(rate, page);
            cfg.switch_trace = true;
            let sw = Engine::for_suite(&cfg, 8, 120_000, 42).run();
            t.row(vec![
                rate.to_string(),
                format!("{page} B"),
                format!("{:.3} ms", 1000.0 * base.seconds),
                format!("{:.3} ms", 1000.0 * sw.seconds),
                format!("{:.3}x", base.seconds / sw.seconds),
                sw.metrics.counts.switches_on_miss.to_string(),
                format!("{:.1}", 100.0 * sw.metrics.time.fractions().idle),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "As the CPU-DRAM gap grows, hiding page transfers behind other\n\
         processes buys more — the paper's Table 4 found up to 16% at 4 GHz."
    );
}
