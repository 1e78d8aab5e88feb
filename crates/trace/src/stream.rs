//! Sources of trace records.

use crate::record::TraceRecord;

/// A stream of trace records.
///
/// This is the interface between workload generation and the simulator: the
/// engine pulls records one at a time until the source is exhausted. All
/// generators in [`crate::synth`] implement it, as does [`VecSource`] for
/// pre-recorded traces.
///
/// Implementations must be deterministic for a given construction (seeded
/// RNGs), so that experiments are exactly reproducible.
pub trait TraceSource {
    /// Produce the next record, or `None` when the trace is exhausted.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// A short human-readable name for reports (e.g. the benchmark name).
    fn name(&self) -> &str {
        "trace"
    }

    /// Why the stream that ended is not the whole trace: one line per
    /// problem, empty when every record was delivered. A source cannot
    /// return an error mid-stream, so readers of files record what cut
    /// them short, and the caller asks once the stream has ended.
    fn problems(&self) -> Vec<String> {
        Vec::new()
    }
}

/// A trace source backed by an in-memory vector of records.
///
/// Useful in tests and for replaying captured reference sequences.
///
/// ```
/// use rampage_trace::{TraceRecord, TraceSource, VecSource};
/// let mut s = VecSource::new("tiny", vec![TraceRecord::fetch(0), TraceRecord::read(64)]);
/// assert_eq!(s.next_record(), Some(TraceRecord::fetch(0)));
/// assert_eq!(s.next_record(), Some(TraceRecord::read(64)));
/// assert_eq!(s.next_record(), None);
/// ```
#[derive(Debug, Clone)]
pub struct VecSource {
    name: String,
    records: Vec<TraceRecord>,
    pos: usize,
}

impl VecSource {
    /// Create a source that yields `records` in order.
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        VecSource {
            name: name.into(),
            records,
            pos: 0,
        }
    }

    /// Number of records remaining.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.pos
    }
}

impl TraceSource for VecSource {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let r = self.records.get(self.pos).copied();
        if r.is_some() {
            self.pos += 1;
        }
        r
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Caps an inner source at a fixed number of records.
///
/// Synthetic generators are infinite; experiments bound them to the
/// per-benchmark reference counts of the paper's Table 2 (scaled).
pub struct BoundedSource<S> {
    inner: S,
    remaining: u64,
}

impl<S: TraceSource> BoundedSource<S> {
    /// Wrap `inner`, yielding at most `limit` records.
    pub fn new(inner: S, limit: u64) -> Self {
        BoundedSource {
            inner,
            remaining: limit,
        }
    }

    /// Records still allowed to flow.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Consume the wrapper, returning the inner source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSource> TraceSource for BoundedSource<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        match self.inner.next_record() {
            Some(r) => {
                self.remaining -= 1;
                Some(r)
            }
            None => {
                self.remaining = 0;
                None
            }
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn problems(&self) -> Vec<String> {
        self.inner.problems()
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        (**self).next_record()
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn problems(&self) -> Vec<String> {
        (**self).problems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> VecSource {
        VecSource::new(
            "three",
            vec![
                TraceRecord::fetch(0),
                TraceRecord::fetch(4),
                TraceRecord::fetch(8),
            ],
        )
    }

    #[test]
    fn vec_source_yields_in_order_then_none() {
        let mut s = three();
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.next_record().unwrap().addr.0, 0);
        assert_eq!(s.next_record().unwrap().addr.0, 4);
        assert_eq!(s.next_record().unwrap().addr.0, 8);
        assert_eq!(s.next_record(), None);
        assert_eq!(s.next_record(), None, "stays exhausted");
    }

    #[test]
    fn bounded_source_caps_records() {
        let mut s = BoundedSource::new(three(), 2);
        assert!(s.next_record().is_some());
        assert!(s.next_record().is_some());
        assert_eq!(s.next_record(), None);
    }

    #[test]
    fn bounded_source_handles_short_inner() {
        let mut s = BoundedSource::new(three(), 10);
        let mut n = 0;
        while s.next_record().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert_eq!(s.remaining(), 0, "inner exhaustion zeroes the budget");
    }

    #[test]
    fn boxed_source_delegates() {
        let mut s: Box<dyn TraceSource> = Box::new(three());
        assert_eq!(s.name(), "three");
        assert!(s.next_record().is_some());
    }
}
