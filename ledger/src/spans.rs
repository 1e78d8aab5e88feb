//! Spans recorded from the ledger's own calls into each layer, and the
//! traced way of running a cell (`Engine::new` + `run` instead of the
//! runner, with every trace source behind a timing adapter).
//!
//! Spans stay in memory and are written once, when the traced run ends.
//! A span's parent is the index of another span in the same document.

use rampage_core::experiments::{Cell, Job};
use rampage_core::{Engine, Metrics};
use rampage_json::{obj, Json};
use rampage_trace::{TraceRecord, TraceSource};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Records per refill of a [`TimedSource`]. One `Instant` pair costs
/// about as much as synthesizing four records, so timing every record
/// would mostly measure the clock; 4096 records amortize it to about 0.1 %.
pub const FILL_RECORDS: usize = 4096;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer: `cell`, `engine.new`, `engine.run`, `trace.fill`,
    /// `runner.batch`, `runner.save` or `runner.resume`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (0 while still open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the distinct cell the span belongs to.
    pub cell: Option<usize>,
}

/// The current time: every host-time reading the ledger takes goes
/// through here.
pub fn now() -> Instant {
    // lint: allow(wall-clock) — the ledger exists to measure host time; no reading reaches a simulated cell
    Instant::now()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a span recorder panicked while holding the lock")
}

/// An in-memory span recorder shared by the worker threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer::default()
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; returns its index for [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: Option<usize>, cell: Option<usize>) -> usize {
        let start_ns = self.ns(now());
        self.record(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            cell,
        })
    }

    /// Close the span `id` now.
    pub fn close(&self, id: usize) {
        let end_ns = self.ns(now());
        if let Some(s) = lock(&self.spans).get_mut(id) {
            s.end_ns = end_ns;
        }
    }

    /// Record a finished span; returns its index.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = lock(&self.spans);
        spans.push(span);
        spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        lock(&self.spans).clone()
    }

    /// The spans as the JSON document the traced run writes.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans: Vec<Json> = lock(&self.spans)
            .iter()
            .map(|s| {
                obj! {
                    "name" => s.name,
                    "start_ns" => s.start_ns,
                    "end_ns" => s.end_ns,
                    "parent" => s.parent,
                    "cell" => s.cell,
                }
            })
            .collect();
        obj! { "workload" => workload, "seed" => seed, "spans" => spans }
    }
}

/// Run `f` inside a top-level span `name` when `tracer` is given.
pub fn within<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tracer.map(|t| t.open(name, None, None));
    let out = f();
    if let (Some(t), Some(id)) = (tracer, id) {
        t.close(id);
    }
    out
}

/// What one cell's [`TimedSource`]s measured.
#[derive(Debug, Default)]
struct FillLog {
    ns: u64,
    records: u64,
    /// `(start, end)` instants of every refill.
    fills: Vec<(Instant, Instant)>,
}

/// A trace source that pulls [`FILL_RECORDS`] records at a time from its
/// inner source under one `Instant` pair, so the time spent producing
/// records (synthesis or corpus decode) is measured apart from the
/// engine that consumes them. The records and their order are unchanged.
struct TimedSource {
    inner: Box<dyn TraceSource + Send>,
    buf: Vec<TraceRecord>,
    pos: usize,
    exhausted: bool,
    log: Arc<Mutex<FillLog>>,
}

impl TimedSource {
    fn refill(&mut self) {
        self.buf.clear();
        self.pos = 0;
        let t0 = now();
        while self.buf.len() < FILL_RECORDS {
            match self.inner.next_record() {
                Some(rec) => self.buf.push(rec),
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        let t1 = now();
        let mut log = lock(&self.log);
        log.ns += t1.duration_since(t0).as_nanos() as u64;
        log.records += self.buf.len() as u64;
        log.fills.push((t0, t1));
    }
}

impl TraceSource for TimedSource {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.pos == self.buf.len() {
            if self.exhausted {
                return None;
            }
            self.refill();
        }
        let rec = self.buf.get(self.pos).copied();
        self.pos += 1;
        rec
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One cell run through `Engine::new` + `run`.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell, which must equal the runner's.
    pub cell: Cell,
    /// The run's simulated counts and times.
    pub metrics: Metrics,
    /// Host ns in `Engine::new`.
    pub build_ns: u64,
    /// Host ns in `Engine::run`.
    pub run_ns: u64,
    /// Host ns of those spent producing records (0 untraced).
    pub fill_ns: u64,
    /// Records produced under timing (0 untraced).
    pub fill_records: u64,
}

fn run_cell(k: usize, job: &Job, tracer: Option<&Tracer>) -> CellRun {
    let cell_span = tracer.map(|t| t.open("cell", None, Some(k)));
    let log = Arc::new(Mutex::new(FillLog::default()));
    let mut sources = job.workload.sources();
    if tracer.is_some() {
        sources = sources
            .into_iter()
            .map(|inner| {
                Box::new(TimedSource {
                    inner,
                    buf: Vec::with_capacity(FILL_RECORDS),
                    pos: 0,
                    exhausted: false,
                    log: Arc::clone(&log),
                }) as Box<dyn TraceSource + Send>
            })
            .collect();
    }
    let t0 = now();
    let mut engine = Engine::new(&job.cfg, sources);
    let t1 = now();
    let out = engine.run();
    let t2 = now();
    drop(engine);
    let log = std::mem::take(&mut *lock(&log));
    if let (Some(t), Some(cell_span)) = (tracer, cell_span) {
        let span = |name, a, b, parent| Span {
            name,
            start_ns: t.ns(a),
            end_ns: t.ns(b),
            parent: Some(parent),
            cell: Some(k),
        };
        t.record(span("engine.new", t0, t1, cell_span));
        let run = t.record(span("engine.run", t1, t2, cell_span));
        for (a, b) in log.fills {
            t.record(span("trace.fill", a, b, run));
        }
        t.close(cell_span);
    }
    CellRun {
        cell: Cell::from_run(&job.cfg, &out),
        metrics: out.metrics,
        build_ns: t1.duration_since(t0).as_nanos() as u64,
        run_ns: t2.duration_since(t1).as_nanos() as u64,
        fill_ns: log.ns,
        fill_records: log.records,
    }
}

/// Run `jobs` through `Engine::new` + `run` on `workers` threads, the
/// way the runner's pool would, returning results in job order. With a
/// tracer, every source is timed and every layer boundary recorded.
pub fn engine_pass(jobs: &[Job], workers: usize, tracer: Option<&Tracer>) -> Vec<CellRun> {
    if workers <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(k, job)| run_cell(k, job, tracer))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, CellRun)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(k) else { break };
                let run = run_cell(k, job, tracer);
                lock(&done).push((k, run));
            });
        }
    });
    let mut done = done.into_inner().expect("a cell worker panicked");
    done.sort_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, run)| run).collect()
}
