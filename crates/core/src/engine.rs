//! The multiprogramming engine.

use crate::config::SystemConfig;
use crate::metrics::Metrics;
use crate::obs::{Event, EventKind, TraceSink, ASID_NONE};
use crate::report::TableBuilder;
use crate::system::MemorySystem;
use rampage_dram::Picos;
use rampage_trace::{profiles, AccessKind, Asid, TraceSource};
use std::fmt::Write as _;

/// One simulated process: a trace plus scheduling state.
struct Process {
    source: Box<dyn TraceSource + Send>,
    asid: Asid,
    blocked_until: Option<Picos>,
    finished: bool,
    refs: u64,
    ifetches: u64,
    stall_cycles: u64,
    faults: u64,
}

impl Process {
    fn runnable(&self, now: Picos) -> bool {
        !self.finished && self.blocked_until.is_none_or(|t| t <= now)
    }
}

/// What a completed run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Accumulated time and counters.
    pub metrics: Metrics,
    /// Simulated elapsed time.
    pub elapsed: Picos,
    /// Simulated elapsed seconds (the paper's tables).
    pub seconds: f64,
    /// The memory system's description.
    pub system_label: String,
    /// Per-process accounting, in process-table order.
    pub per_process: Vec<ProcessSummary>,
    /// Recorded trace events, oldest first (empty unless
    /// [`Engine::enable_trace`] was called).
    pub events: Vec<Event>,
    /// Events the bounded ring had to discard (oldest-first eviction).
    pub events_dropped: u64,
}

impl RunOutcome {
    /// Render the full per-run report: headline metrics, the per-process
    /// table (stalls and blocked faults included), and the three latency
    /// histograms.
    pub fn report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "system: {}", self.system_label);
        let _ = writeln!(
            s,
            "simulated: {:.4} s ({} ps elapsed)",
            self.seconds, self.elapsed.0
        );
        let _ = writeln!(s, "{}", self.metrics);
        let mut t = TableBuilder::new(vec![
            "process".into(),
            "refs".into(),
            "ifetches".into(),
            "stall cycles".into(),
            "blocked faults".into(),
        ]);
        for p in &self.per_process {
            t.row(vec![
                p.name.clone(),
                p.refs.to_string(),
                p.ifetches.to_string(),
                p.stall_cycles.to_string(),
                p.faults_blocked.to_string(),
            ]);
        }
        s.push_str(&t.render());
        s.push_str(&self.metrics.hist.dram.render("dram service (cycles)"));
        s.push_str(&self.metrics.hist.fault.render("fault service (cycles)"));
        s.push_str(&self.metrics.hist.tlb.render("tlb walk (cycles)"));
        if !self.events.is_empty() || self.events_dropped > 0 {
            let _ = writeln!(
                s,
                "trace: {} event(s) recorded, {} dropped",
                self.events.len(),
                self.events_dropped
            );
        }
        s
    }
}

/// How one process fared within the multiprogrammed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessSummary {
    /// The trace's name (its Table 2 program, for suite workloads).
    pub name: String,
    /// References it issued.
    pub refs: u64,
    /// Of which instruction fetches.
    pub ifetches: u64,
    /// Stall cycles charged while it ran (memory system + handlers).
    pub stall_cycles: u64,
    /// Times it blocked on a page fault (switch-on-miss runs).
    pub faults_blocked: u64,
}

/// Drives interleaved traces through a memory system.
///
/// Reproduces the paper's workload construction (§4.2): round-robin over
/// the benchmark traces with a 500 000-reference quantum. Depending on the
/// configuration it also:
///
/// * inserts the ~400-reference context-switch trace at each switch
///   (§4.6, `switch_trace`);
/// * on a RAMpage page fault, blocks the faulting process until its DRAM
///   transfer completes and switches to another process
///   (`switch_on_miss`, Table 4), accounting idle time when no process is
///   runnable.
pub struct Engine {
    cfg: SystemConfig,
    system: MemorySystem,
    processes: Vec<Process>,
    current: usize,
    used_in_quantum: u64,
    /// Simulated time consumed in the current quantum (time-based mode).
    quantum_started: Picos,
    now: Picos,
    cycle: Picos,
    metrics: Metrics,
}

impl Engine {
    /// Build an engine over explicit trace sources (one process each).
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty.
    pub fn new(cfg: &SystemConfig, sources: Vec<Box<dyn TraceSource + Send>>) -> Self {
        assert!(!sources.is_empty(), "need at least one process");
        let processes = sources
            .into_iter()
            .enumerate()
            .map(|(i, source)| Process {
                source,
                asid: Asid(i as u16),
                blocked_until: None,
                finished: false,
                refs: 0,
                ifetches: 0,
                stall_cycles: 0,
                faults: 0,
            })
            .collect();
        Engine {
            cfg: *cfg,
            system: MemorySystem::new(cfg),
            processes,
            current: 0,
            used_in_quantum: 0,
            quantum_started: Picos::ZERO,
            now: Picos::ZERO,
            cycle: cfg.issue.cycle(),
            metrics: Metrics::default(),
        }
    }

    /// Turn on event tracing into a fresh ring bounded at `cap` events.
    /// The memory system owns the ring and records the engine's switch
    /// and idle events in it too; they come back in
    /// [`RunOutcome::events`].
    pub fn enable_trace(&mut self, cap: usize) {
        *self.system.trace() = TraceSink::bounded(cap);
    }

    /// Convenience: the first `nbench` programs of the paper's Table 2
    /// suite, each scaled to roughly `refs_per_bench` references.
    ///
    /// # Panics
    ///
    /// Panics if `nbench` is zero or `refs_per_bench` is zero.
    #[expect(
        clippy::disallowed_methods,
        reason = "a constructor over `Engine::new`; sweeps still go through SweepRunner"
    )]
    pub fn for_suite(cfg: &SystemConfig, nbench: usize, refs_per_bench: u64, seed: u64) -> Self {
        assert!(nbench > 0 && refs_per_bench > 0, "empty workload");
        let sources: Vec<Box<dyn TraceSource + Send>> = profiles::TABLE2
            .iter()
            .cycle()
            .take(nbench)
            .map(|p| {
                Box::new(p.source(p.scale_for(refs_per_bench), seed)) as Box<dyn TraceSource + Send>
            })
            .collect();
        Engine::new(cfg, sources)
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn next_runnable_after(&self, from: usize) -> Option<usize> {
        let n = self.processes.len();
        (1..=n)
            .map(|d| (from + d) % n)
            .find(|&i| self.processes[i].runnable(self.now))
    }

    /// Rotate to the next runnable process, charging switch cost when the
    /// configuration includes the switch trace. Returns false when no
    /// other process could be scheduled (single-process case).
    fn rotate(&mut self, m_switch_on_miss: bool) {
        self.used_in_quantum = 0;
        self.quantum_started = self.now;
        let Some(next) = self.next_runnable_after(self.current) else {
            return;
        };
        if next == self.current {
            return;
        }
        let at = self.now;
        if self.cfg.switch_trace {
            let stall = self
                .system
                .run_switch(self.current, next, self.now, &mut self.metrics);
            self.now += Picos(stall * self.cycle.0);
        }
        if m_switch_on_miss {
            self.metrics.counts.switches_on_miss += 1;
        } else {
            self.metrics.counts.context_switches += 1;
        }
        let dur = self.now.saturating_sub(at);
        let from_asid = self.processes[self.current].asid;
        self.system.trace().emit(|| Event {
            at,
            dur,
            kind: if m_switch_on_miss {
                EventKind::SwitchOnMiss
            } else {
                EventKind::ContextSwitch
            },
            asid: from_asid.0,
            arg: next as u64,
        });
        self.current = next;
    }

    /// Make sure `self.current` is runnable, idling the clock forward if
    /// every live process is blocked. Returns false when all processes
    /// have finished.
    fn ensure_runnable(&mut self) -> bool {
        // The common case, once per reference. Clearing expired blocks
        // is bookkeeping only: `runnable` treats them as expired, and
        // the idle branch below runs only after the loop clears them.
        if self.processes[self.current].runnable(self.now) {
            return true;
        }
        loop {
            if self.processes.iter().all(|p| p.finished) {
                return false;
            }
            // Clear expired blocks.
            for p in &mut self.processes {
                if let Some(t) = p.blocked_until {
                    if t <= self.now {
                        p.blocked_until = None;
                    }
                }
            }
            if self.processes[self.current].runnable(self.now) {
                return true;
            }
            if let Some(next) = self.next_runnable_after(self.current) {
                self.current = next;
                self.used_in_quantum = 0;
                return true;
            }
            // Everyone is blocked on DRAM: idle until the earliest wakes.
            let Some(wake) = self
                .processes
                .iter()
                .filter(|p| !p.finished)
                .filter_map(|p| p.blocked_until)
                .min()
            else {
                // Scheduler invariant: this branch is only reached when no
                // process is runnable yet some are unfinished, and an
                // unfinished, non-runnable process always carries a wake
                // time.
                unreachable!("engine invariant: unfinished processes are blocked");
            };
            let idle = wake.saturating_sub(self.now).cycles_ceil(self.cycle).max(1);
            self.metrics.time.idle_cycles += idle;
            let at = self.now;
            let cycle = self.cycle;
            self.system.trace().emit(|| Event {
                at,
                dur: Picos(idle * cycle.0),
                kind: EventKind::Idle,
                asid: ASID_NONE,
                arg: idle,
            });
            self.now += Picos(idle * self.cycle.0);
        }
    }

    /// Run every trace to completion and report the outcome.
    pub fn run(&mut self) -> RunOutcome {
        while self.ensure_runnable() {
            let p = &mut self.processes[self.current];
            let asid = p.asid;
            match p.source.next_record() {
                None => {
                    p.finished = true;
                    self.rotate(false);
                }
                Some(rec) => {
                    self.metrics.counts.user_refs += 1;
                    p.refs += 1;
                    if rec.kind == AccessKind::InstrFetch {
                        // Only instruction fetches add base time (§4.3).
                        self.metrics.counts.user_ifetches += 1;
                        p.ifetches += 1;
                        self.metrics.time.l1i_cycles += 1;
                        self.now += self.cycle;
                    }
                    let out = self
                        .system
                        .access_user(asid, rec, self.now, &mut self.metrics);
                    self.now += Picos(out.stall_cycles * self.cycle.0);
                    self.processes[self.current].stall_cycles += out.stall_cycles;
                    if let Some(ready_at) = out.blocked_until {
                        let p = &mut self.processes[self.current];
                        p.blocked_until = Some(ready_at);
                        p.faults += 1;
                        self.rotate(true);
                    } else {
                        self.used_in_quantum += 1;
                        let expired = match self.cfg.quantum_time {
                            // Real-time-clock slice (§5.5): a faster CPU
                            // packs more references into each quantum.
                            Some(slice) => self.now - self.quantum_started >= slice,
                            None => self.used_in_quantum >= self.cfg.quantum,
                        };
                        if expired {
                            self.rotate(false);
                        }
                    }
                }
            }
        }
        self.system.finalize(&mut self.metrics);
        let (events, events_dropped) = self.system.trace().drain();
        RunOutcome {
            metrics: self.metrics,
            events,
            events_dropped,
            elapsed: self.now,
            seconds: self.cfg.issue.cycles_to_secs(
                // Elapsed picoseconds back to cycles exactly.
                self.now.0 / self.cycle.0,
            ),
            system_label: self.system.label(),
            per_process: self
                .processes
                .iter()
                .map(|p| ProcessSummary {
                    name: p.source.name().to_string(),
                    refs: p.refs,
                    ifetches: p.ifetches,
                    stall_cycles: p.stall_cycles,
                    faults_blocked: p.faults,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::time::IssueRate;
    use rampage_trace::{TraceRecord, VecSource};

    fn tiny_sources(n: usize, refs: usize) -> Vec<Box<dyn TraceSource + Send>> {
        (0..n)
            .map(|p| {
                let recs = (0..refs)
                    .map(|i| TraceRecord::fetch(0x40_0000 + ((p * 7919 + i) as u64 % 4096) * 4))
                    .collect();
                Box::new(VecSource::new(format!("p{p}"), recs)) as Box<dyn TraceSource + Send>
            })
            .collect()
    }

    #[test]
    fn consumes_every_reference() {
        let cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        let mut e = Engine::new(&cfg, tiny_sources(3, 1000));
        let out = e.run();
        assert_eq!(out.metrics.counts.user_refs, 3000);
        assert_eq!(out.metrics.counts.user_ifetches, 3000);
        assert!(out.metrics.total_cycles() >= 3000, "at least 1 cycle/fetch");
        assert!(out.seconds > 0.0);
    }

    #[test]
    fn quantum_switching_counts() {
        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        cfg.quantum = 100;
        cfg.switch_trace = true;
        let mut e = Engine::new(&cfg, tiny_sources(2, 300));
        let out = e.run();
        // 600 refs, quantum 100: at least 5 switches (plus end-of-trace).
        assert!(
            out.metrics.counts.context_switches >= 5,
            "switches: {}",
            out.metrics.counts.context_switches
        );
        assert!(out.metrics.counts.switch_refs > 0, "switch trace charged");
    }

    #[test]
    fn no_switch_trace_means_no_switch_refs() {
        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        cfg.quantum = 100;
        let mut e = Engine::new(&cfg, tiny_sources(2, 300));
        let out = e.run();
        assert_eq!(out.metrics.counts.switch_refs, 0);
        assert!(out.metrics.counts.context_switches >= 5, "still rotates");
    }

    #[test]
    fn rampage_switch_on_miss_overlaps_and_may_idle() {
        let cfg = SystemConfig::rampage_switching(IssueRate::GHZ4, 4096);
        // Two processes touching disjoint pages: faults overlap.
        let sources: Vec<Box<dyn TraceSource + Send>> = (0..2)
            .map(|p| {
                let recs = (0..200)
                    .map(|i| TraceRecord::read((p as u64) << 24 | (i as u64 * 4096)))
                    .collect();
                Box::new(VecSource::new(format!("p{p}"), recs)) as Box<dyn TraceSource + Send>
            })
            .collect();
        let mut e = Engine::new(&cfg, sources);
        let out = e.run();
        assert!(out.metrics.counts.switches_on_miss > 0, "misses switched");
        assert_eq!(out.metrics.counts.user_refs, 400);
        // With only faulting processes, sometimes everyone blocks.
        assert!(
            out.metrics.time.idle_cycles > 0,
            "pure-fault workload must idle sometimes"
        );
    }

    #[test]
    fn single_process_never_switches() {
        let mut cfg = SystemConfig::baseline(IssueRate::GHZ1, 128);
        cfg.quantum = 10;
        cfg.switch_trace = true;
        let mut e = Engine::new(&cfg, tiny_sources(1, 100));
        let out = e.run();
        assert_eq!(out.metrics.counts.context_switches, 0);
        assert_eq!(out.metrics.counts.user_refs, 100);
    }

    #[test]
    fn for_suite_builds_scaled_workload() {
        let cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        let mut e = Engine::for_suite(&cfg, 4, 5_000, 1);
        let out = e.run();
        // 4 benchmarks × ~5000 refs (±rounding from integer scale).
        assert!(
            (15_000..30_000).contains(&out.metrics.counts.user_refs),
            "refs: {}",
            out.metrics.counts.user_refs
        );
    }

    #[test]
    fn per_process_accounting_sums_to_totals() {
        let cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        let mut e = Engine::for_suite(&cfg, 4, 10_000, 7);
        let out = e.run();
        assert_eq!(out.per_process.len(), 4);
        let refs: u64 = out.per_process.iter().map(|p| p.refs).sum();
        assert_eq!(refs, out.metrics.counts.user_refs);
        let ifetches: u64 = out.per_process.iter().map(|p| p.ifetches).sum();
        assert_eq!(ifetches, out.metrics.counts.user_ifetches);
        // Names come from the Table 2 suite.
        assert_eq!(out.per_process[0].name, "alvinn");
        assert!(out.per_process.iter().any(|p| p.stall_cycles > 0));
    }

    #[test]
    fn blocked_fault_counts_attributed_to_faulting_process() {
        let cfg = SystemConfig::rampage_switching(IssueRate::GHZ1, 4096);
        let sources: Vec<Box<dyn TraceSource + Send>> = (0..2)
            .map(|p| {
                let recs = (0..50)
                    .map(|i| TraceRecord::read(((p as u64) << 28) + i * 4096))
                    .collect();
                Box::new(VecSource::new(format!("p{p}"), recs)) as Box<dyn TraceSource + Send>
            })
            .collect();
        let out = Engine::new(&cfg, sources).run();
        let blocked: u64 = out.per_process.iter().map(|p| p.faults_blocked).sum();
        // Every blocking fault is a page fault; an actual switch only
        // happens when another process is runnable, so the switch count
        // is bounded by (not equal to) the block count.
        assert_eq!(blocked, out.metrics.counts.page_faults);
        assert!(out.metrics.counts.switches_on_miss <= blocked);
        assert!(out.metrics.counts.switches_on_miss > 0);
        assert!(out.per_process.iter().all(|p| p.faults_blocked > 0));
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SystemConfig::rampage(IssueRate::GHZ1, 512);
        let run = || Engine::for_suite(&cfg, 3, 10_000, 7).run();
        let (a, b) = (run(), run());
        assert_eq!(a.metrics.total_cycles(), b.metrics.total_cycles());
        assert_eq!(a.metrics.counts, b.metrics.counts);
    }

    #[test]
    fn report_surfaces_per_process_stalls_and_blocked_faults() {
        let cfg = SystemConfig::rampage_switching(IssueRate::GHZ1, 4096);
        let sources: Vec<Box<dyn TraceSource + Send>> = (0..2)
            .map(|p| {
                let recs = (0..50)
                    .map(|i| TraceRecord::read(((p as u64) << 28) + i * 4096))
                    .collect();
                Box::new(VecSource::new(format!("p{p}"), recs)) as Box<dyn TraceSource + Send>
            })
            .collect();
        let out = Engine::new(&cfg, sources).run();
        let text = out.report();
        assert!(text.contains("stall cycles"), "column header present");
        assert!(text.contains("blocked faults"), "column header present");
        for p in &out.per_process {
            assert!(p.stall_cycles > 0 && p.faults_blocked > 0);
            assert!(
                text.contains(&p.stall_cycles.to_string()),
                "stall figure for {} rendered",
                p.name
            );
            assert!(text.contains(&p.name), "process name rendered");
        }
        assert!(text.contains("fault service (cycles)"));
    }

    #[test]
    fn tracing_records_events_without_changing_metrics() {
        let cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        let plain = Engine::new(&cfg, tiny_sources(2, 500)).run();
        let mut traced = Engine::new(&cfg, tiny_sources(2, 500));
        traced.enable_trace(1 << 16);
        let traced = traced.run();
        assert_eq!(plain.metrics.time, traced.metrics.time);
        assert_eq!(plain.metrics.counts, traced.metrics.counts);
        assert!(plain.events.is_empty() && plain.events_dropped == 0);
        assert!(!traced.events.is_empty(), "events recorded when enabled");
        // Events arrive in nondecreasing simulated-time order per source,
        // and every event carries a named kind.
        assert!(traced.events.iter().all(|e| !e.kind.name().is_empty()));
    }
}
