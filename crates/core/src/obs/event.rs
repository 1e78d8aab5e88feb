//! Simulated-time events and the bounded ring that records them.

use rampage_dram::Picos;
use rampage_json::{obj, Json, ToJson};
use std::collections::VecDeque;

/// Sentinel ASID for events not attributable to a user process (kernel
/// handler references, DRAM channel activity, idle time).
pub const ASID_NONE: u16 = u16::MAX;

/// What kind of simulated activity an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// An L1 instruction-cache miss (`arg` = physical address).
    L1iMiss,
    /// An L1 data-cache miss (`arg` = physical address).
    L1dMiss,
    /// A conventional L2 miss (`arg` = physical address).
    L2Miss,
    /// One DRAM channel transfer, start to completion (`arg` = bytes).
    DramTransfer,
    /// A TLB miss plus its table-walk refill (`arg` = IPT probes walked).
    TlbMiss,
    /// A demand page fault with a DRAM page transfer (`arg` = VPN).
    PageFault,
    /// A fault served from the standby list, no DRAM traffic
    /// (`arg` = VPN).
    SoftFault,
    /// A scheduled (quantum / end-of-trace) context switch
    /// (`arg` = incoming process index).
    ContextSwitch,
    /// A context switch taken on a miss to DRAM (`arg` = incoming
    /// process index).
    SwitchOnMiss,
    /// One clock-hand sweep selecting a replacement victim
    /// (`arg` = frames scanned).
    ClockSweep,
    /// Cycles with every process blocked on DRAM (`arg` = 0).
    Idle,
}

impl EventKind {
    /// Stable snake_case name used in the JSONL and Chrome exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::L1iMiss => "l1i_miss",
            EventKind::L1dMiss => "l1d_miss",
            EventKind::L2Miss => "l2_miss",
            EventKind::DramTransfer => "dram_transfer",
            EventKind::TlbMiss => "tlb_miss",
            EventKind::PageFault => "page_fault",
            EventKind::SoftFault => "soft_fault",
            EventKind::ContextSwitch => "context_switch",
            EventKind::SwitchOnMiss => "switch_on_miss",
            EventKind::ClockSweep => "clock_sweep",
            EventKind::Idle => "idle",
        }
    }
}

/// One recorded simulated-time event.
///
/// Timestamps are simulated picoseconds (never wall clock), so a trace is
/// a pure function of the run and byte-identical across reruns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated time the activity began.
    pub at: Picos,
    /// Simulated duration (zero for instantaneous markers).
    pub dur: Picos,
    /// What happened.
    pub kind: EventKind,
    /// Owning user ASID, or [`ASID_NONE`].
    pub asid: u16,
    /// Kind-specific payload (see [`EventKind`] variants).
    pub arg: u64,
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        obj! {
            "at_ps" => self.at.0,
            "dur_ps" => self.dur.0,
            "kind" => self.kind.name(),
            "asid" => if self.asid == ASID_NONE { Json::Null } else { (self.asid as u64).to_json() },
            "arg" => self.arg,
        }
    }
}

/// A bounded ring of [`Event`]s: when full, the oldest event is dropped
/// (and counted), so a trace of a long run keeps its tail — the part a
/// timeline viewer usually wants — at a fixed memory ceiling. Storage
/// grows with the events actually recorded, so a generous cap costs
/// nothing until a run fills it.
#[derive(Debug)]
pub struct EventRing {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `cap` events (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        EventRing {
            buf: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Record an event, evicting the oldest when the ring is full.
    pub fn push(&mut self, e: Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(e);
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the ring into a vector (oldest first), leaving it empty but
    /// keeping the drop counter.
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: EventKind) -> Event {
        Event {
            at: Picos(at),
            dur: Picos::ZERO,
            kind,
            asid: 1,
            arg: at,
        }
    }

    #[test]
    fn ring_keeps_newest_when_full() {
        let mut r = EventRing::new(3);
        for i in 0..5 {
            r.push(ev(i, EventKind::TlbMiss));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.events().map(|e| e.at.0).collect();
        assert_eq!(kept, [2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = EventRing::new(0);
        r.push(ev(0, EventKind::Idle));
        r.push(ev(1, EventKind::Idle));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn huge_cap_allocates_on_demand_and_drops_nothing() {
        let mut r = EventRing::new(usize::MAX);
        for i in 0..1000 {
            r.push(ev(i, EventKind::DramTransfer));
        }
        assert_eq!(r.len(), 1000);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn event_json_shape() {
        let e = ev(7, EventKind::PageFault);
        let j = e.to_json();
        assert_eq!(j.get("at_ps").and_then(Json::as_u64), Some(7));
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("page_fault"));
        assert_eq!(j.get("asid").and_then(Json::as_u64), Some(1));
        let kernel = Event {
            asid: ASID_NONE,
            ..e
        };
        assert!(matches!(kernel.to_json().get("asid"), Some(Json::Null)));
    }

    #[test]
    fn drain_empties_but_keeps_drop_count() {
        let mut r = EventRing::new(2);
        for i in 0..4 {
            r.push(ev(i, EventKind::ClockSweep));
        }
        let out = r.drain();
        assert_eq!(out.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 2);
    }
}
