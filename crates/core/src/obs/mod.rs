//! The observability layer: event tracing, latency histograms, exports.
//!
//! Three pillars, all provably non-perturbing (see
//! `tests/observability.rs`):
//!
//! * **Event tracing** — the memory system's [`TraceSink`] owns a bounded
//!   [`EventRing`] of simulated-time [`Event`]s, which the engine's
//!   switch and idle events also go through. Disabled by default: the hot
//!   path pays exactly one `Option` discriminant check per potential
//!   event, and the event value itself is never even constructed (the
//!   emit closure is not called).
//! * **Latency histograms** — [`LatencyHistograms`] inside
//!   [`crate::Metrics`] record log2-bucketed distributions of DRAM
//!   service time, page-fault service, and TLB-walk cost. Always on:
//!   pure counters over already-computed quantities cannot change them.
//! * **Sweep telemetry** — lives in
//!   [`crate::experiments::SweepRunner`] (progress callbacks and the
//!   `metrics.json` document); see that module.
//!
//! Traces export as JSONL ([`to_jsonl`]) and Chrome `trace_event` JSON
//! ([`chrome_trace`]) — load the latter in `chrome://tracing` or
//! <https://ui.perfetto.dev>.

mod event;
mod export;
mod hist;

pub use event::{Event, EventKind, EventRing, ASID_NONE};
pub use export::{chrome_trace, to_jsonl};
pub use hist::{Hist, LatencyHistograms};

/// An [`EventRing`], or nothing.
///
/// The memory system owns the one sink of a run. The disabled sink is a
/// `None`: an [`emit`](TraceSink::emit) call is a single branch and the
/// closure building the [`Event`] never runs, which is what makes tracing
/// zero-cost when off.
#[derive(Debug, Default)]
pub struct TraceSink(Option<EventRing>);

impl TraceSink {
    /// The disabled sink (what every memory system starts with).
    pub fn disabled() -> Self {
        TraceSink(None)
    }

    /// An enabled sink over a fresh ring holding at most `cap` events.
    pub fn bounded(cap: usize) -> Self {
        TraceSink(Some(EventRing::new(cap)))
    }

    /// Record the event `f` produces — but only when enabled; `f` is not
    /// called otherwise.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> Event) {
        if let Some(ring) = &mut self.0 {
            ring.push(f());
        }
    }

    /// Take everything recorded so far: `(events oldest-first, dropped)`.
    /// The ring is left empty. Returns `(vec![], 0)` when disabled.
    pub fn drain(&mut self) -> (Vec<Event>, u64) {
        match &mut self.0 {
            None => (Vec::new(), 0),
            Some(ring) => (ring.drain(), ring.dropped()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rampage_dram::Picos;

    fn ev(at: u64) -> Event {
        Event {
            at: Picos(at),
            dur: Picos::ZERO,
            kind: EventKind::TlbMiss,
            asid: 0,
            arg: 0,
        }
    }

    #[test]
    fn disabled_sink_never_calls_the_closure() {
        let mut sink = TraceSink::disabled();
        let mut called = false;
        sink.emit(|| {
            called = true;
            ev(0)
        });
        assert!(!called, "emit must not build events when disabled");
        assert_eq!(sink.drain(), (Vec::new(), 0));
    }

    #[test]
    fn bounded_sink_reports_drops() {
        let mut sink = TraceSink::bounded(2);
        for i in 0..5 {
            sink.emit(|| ev(i));
        }
        let (events, dropped) = sink.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 3);
    }
}
