//! The parallel memoized sweep runner — the engine room of every table
//! and figure.
//!
//! Each paper artifact is a sweep of independent
//! [`run_config`]`(cfg, workload)` cells, and artifacts overlap: the
//! Table 5 sweep is exactly the fixed-reference half of the time-slice
//! study, the ablation study's base row is a Table 4 cell, and Figures
//! 2–4 are views over Table 3. The [`SweepRunner`] exploits both facts:
//!
//! * **Parallelism** — a batch of [`Job`]s is executed by a pool of
//!   worker threads (bounded by available cores, overridable via
//!   [`SweepRunner::new`]) pulling from a shared queue, so a sweep's
//!   wall-clock approaches `total / cores`. Results are returned in
//!   submission order regardless of completion order, and every cell is
//!   a deterministic function of its job, so parallel and serial runs
//!   are bit-identical (a golden test enforces this).
//! * **Memoization** — the [`CellCache`] fingerprints each job and
//!   returns finished [`Cell`]s, so overlapping sweeps across artifacts
//!   are simulated exactly once per `repro` invocation.
//! * **Fault tolerance** — each cell runs behind a validation gate and a
//!   panic boundary. A job whose configuration fails
//!   [`SystemConfig::validate`], or whose simulation panics, is recorded
//!   as a [`FailedCell`] and replaced by an inert
//!   [`Cell::failed_placeholder`]; the rest of the sweep completes. The
//!   runner installs no panic hook: the standard one prints a panic's
//!   message and location on stderr (and a backtrace under
//!   `RUST_BACKTRACE=1`), and the failure record keeps the message.
//! * **Crash safety** — a runner given [`SweepRunner::with_journal`]
//!   appends every cell it finishes to a durable append-only journal
//!   ([`journal`] module) as the pool completes it. The journal is the
//!   store: its `done` records carry full cells, and they are the only
//!   thing a later run resumes from. `cells.json` is the snapshot:
//!   [`CellCache::save_file`] writes the cache out once at exit (version
//!   header, per-cell checksums, temp file + fsync + rename), and no run
//!   reads it back. One process per journal is the supported use; two
//!   at once each finish correctly, but each computes every cell. A
//!   shutdown flag ([`SweepRunner::with_shutdown_flag`]) turns
//!   SIGINT/SIGTERM into a graceful checkpoint instead of lost work.

mod cache;
mod journal;

pub use cache::{CacheLoad, CellCache, CACHE_FORMAT_VERSION};
pub use journal::{
    scan_path as scan_journal, Journal, JournalOp, JournalOpenReport, JournalRecord,
};

use crate::config::{DramKind, SystemConfig};
use crate::error::CacheIoError;
use crate::experiments::common::{run_config, Cell, Workload};
use rampage_json::{obj, Json};
use rampage_trace::corpus::fnv1a;
use std::any::Any;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One unit of sweep work: simulate `cfg` over `workload`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// The system to simulate.
    pub cfg: SystemConfig,
    /// The workload to drive it with.
    pub workload: Workload,
}

impl Job {
    /// Package a configuration and workload as a job.
    pub fn new(cfg: SystemConfig, workload: Workload) -> Self {
        Job { cfg, workload }
    }

    /// A stable fingerprint of the job: FNV-1a over the `Debug`
    /// rendering of the configuration and workload. Both types derive
    /// `Debug` over every field, so the rendering is a complete encoding
    /// of everything the simulation depends on; two jobs with equal
    /// fingerprints produce identical cells.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(format!("{:?}|{:?}", self.cfg, self.workload).as_bytes())
    }
}

/// Lock a mutex, recovering the data from a poisoned lock: a worker
/// that panicked mid-insert can at worst lose its own entry, and the
/// cache is a memo table, so a lost entry only costs recomputation.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The record of one job the runner could not complete: its identity
/// and why it failed. Sweeps that contain failed cells still return a
/// full-shape result (with [`Cell::failed_placeholder`] standing in), so
/// a single bad configuration cannot kill a multi-hour run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCell {
    /// [`Job::fingerprint`] of the failed job.
    pub fingerprint: u64,
    /// The job's L2 block / SRAM page size (for identifying the cell).
    pub unit_bytes: u64,
    /// The job's issue rate in MHz.
    pub issue_mhz: u32,
    /// Why it failed: `invalid configuration: …` or `simulation
    /// invariant violated: …` followed by the panic message.
    pub error: String,
}

impl FailedCell {
    fn new(job: &Job, fp: u64, error: String) -> Self {
        FailedCell {
            fingerprint: fp,
            unit_bytes: job.cfg.hierarchy.unit_bytes(),
            issue_mhz: job.cfg.issue.mhz(),
            error,
        }
    }

    /// Two-line human rendering for the failure report.
    pub fn describe(&self) -> String {
        format!(
            "cell {:#018x} (unit {} B, {} MHz):\n    {}",
            self.fingerprint, self.unit_bytes, self.issue_mhz, self.error
        )
    }
}

/// The message a caught panic carries: `panic!` with a literal gives a
/// `&str` payload and a formatted one a `String`.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// What a sweep's progress callback sees each time a cell finishes
/// computing (cache hits never fire it — only real simulations do).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressUpdate {
    /// [`Job::fingerprint`] of the finished cell.
    pub fingerprint: u64,
    /// The cell's L2 block / SRAM page size.
    pub unit_bytes: u64,
    /// The cell's issue rate in MHz.
    pub issue_mhz: u32,
    /// Whether the cell failed (and holds a placeholder).
    pub failed: bool,
    /// Wall-clock seconds this cell's simulation took.
    pub cell_secs: f64,
    /// Cells finished so far in the current batch (this one included).
    pub batch_done: usize,
    /// Cells the current batch set out to compute.
    pub batch_total: usize,
    /// Cells of the current batch served from the cache instead.
    pub batch_cached: usize,
    /// Naive remaining-work estimate: mean cell time × cells left ÷
    /// workers.
    pub eta_secs: f64,
}

/// Shared batch state snapshotted when a cell finishes, feeding the
/// ETA of the [`ProgressUpdate`] it triggers.
#[derive(Debug, Clone, Copy)]
struct BatchProgress {
    done: usize,
    total: usize,
    cached: usize,
    mean_secs: f64,
    workers: usize,
}

/// Wall-clock record of one computed cell, for `metrics.json`.
#[derive(Debug, Clone, PartialEq)]
struct CellTiming {
    fingerprint: u64,
    unit_bytes: u64,
    issue_mhz: u32,
    secs: f64,
    failed: bool,
}

/// Accumulated sweep telemetry (wall-clock side; the deterministic
/// counters live in [`CellCache`]).
#[derive(Debug, Default)]
struct Telemetry {
    batches: u64,
    total_secs: f64,
    cells: Vec<CellTiming>,
}

type ProgressFn = Box<dyn Fn(&ProgressUpdate) + Send + Sync>;

/// The identity a journaled runner writes on each of its records. The
/// name predates the single-owner journal; the performance ledger
/// builds against it.
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// This process's owner id (`pid<N>` in `repro`).
    pub owner: String,
}

impl LeaseConfig {
    /// An identity with the given owner id.
    pub fn new(owner: String) -> Self {
        LeaseConfig { owner }
    }
}

/// The crash-safety state of a journaled runner: the open journal, its
/// path and owner id, and the counters that feed the `journal` subtree
/// of `metrics.json`.
#[derive(Debug)]
struct Durable {
    journal: Mutex<Journal>,
    path: PathBuf,
    owner: String,
    /// Finished cells recovered from the journal at open.
    resumed_cells: u64,
    corrupt_lines: u64,
    truncated_bytes: u64,
    /// Journal I/O failures, and batches that found the journal gone
    /// from its path (the run degrades to non-resumable instead of
    /// aborting; the count surfaces in telemetry).
    errors: AtomicU64,
}

impl Durable {
    /// Append one finished cell's record under this runner's owner id;
    /// an interrupted cell leaves none. Failures are counted, never
    /// fatal: losing the journal costs resumability, not the sweep.
    fn record(&self, label: &str, fp: u64, outcome: &JobOutcome) {
        let op = match outcome {
            JobOutcome::Done(cell) => JournalOp::Done {
                fp,
                label: label.to_string(),
                cell: *cell,
            },
            JobOutcome::Failed(f) => JournalOp::Failed {
                fp,
                label: label.to_string(),
                error: f.error.clone(),
            },
            JobOutcome::Interrupted => return,
        };
        let rec = JournalRecord {
            op,
            owner: self.owner.clone(),
        };
        if lock_recovering(&self.journal).append(&rec).is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The `journal` subtree of `metrics.json`.
    fn telemetry(&self) -> Json {
        obj! {
            "owner" => self.owner.as_str(),
            "resumed" => self.resumed_cells,
            "corrupt_lines" => self.corrupt_lines,
            "truncated_bytes" => self.truncated_bytes,
            "errors" => self.errors.load(Ordering::Relaxed),
        }
    }
}

/// The parallel memoized sweep runner every experiment module submits
/// its simulations through.
#[derive(Default)]
pub struct SweepRunner {
    jobs: usize,
    cache: CellCache,
    failures: Mutex<Vec<FailedCell>>,
    telemetry: Mutex<Telemetry>,
    progress: Option<ProgressFn>,
    durable: Option<Durable>,
    shutdown: Option<&'static AtomicBool>,
    interrupted: AtomicBool,
    dram_override: Option<DramKind>,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("jobs", &self.jobs)
            .field("cache", &self.cache)
            .field("failures", &self.failures)
            .field("telemetry", &self.telemetry)
            .field("progress", &self.progress.as_ref().map(|_| "Fn"))
            .field("durable", &self.durable)
            .field(
                "shutdown",
                &self.shutdown.map(|f| f.load(Ordering::Relaxed)),
            )
            .field("interrupted", &self.interrupted)
            .field("dram_override", &self.dram_override)
            .finish()
    }
}

/// How a single pending job ended.
enum JobOutcome {
    /// Computed: cached (counted as computed) and, when journaled,
    /// appended as a `done` record.
    Done(Cell),
    /// Failed deterministically: recorded, slot holds the placeholder.
    Failed(Box<FailedCell>),
    /// Never computed — a shutdown request drained the queue. The slot
    /// holds a placeholder and the runner reports itself interrupted.
    Interrupted,
}

impl SweepRunner {
    /// A runner with `jobs` worker threads; `0` means one per available
    /// core.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        SweepRunner {
            jobs,
            ..SweepRunner::default()
        }
    }

    /// Install a progress callback, fired from worker threads once per
    /// computed cell (heartbeat lines, progress bars). The callback must
    /// not submit work back into this runner.
    pub fn with_progress(mut self, f: impl Fn(&ProgressUpdate) + Send + Sync + 'static) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Attach a durable cell journal at `path` (conventionally
    /// `journal.jsonl` next to `cells.json`), making every batch
    /// crash-safe and resumable:
    ///
    /// * finished cells already journaled (by a killed previous run)
    ///   seed the cache, so resumption skips them;
    /// * every cell is appended durably as it finishes, recorded under
    ///   `lease`'s owner id, so a `kill -9` loses at most the cells
    ///   mid-compute.
    ///
    /// # Errors
    ///
    /// [`CacheIoError`] when the journal cannot be opened or its torn
    /// tail cannot be truncated.
    pub fn with_journal(mut self, path: &Path, lease: LeaseConfig) -> Result<Self, CacheIoError> {
        let (mut journal, report) = Journal::open(path)?;
        let before = self.cache.len();
        for rec in report.records {
            if let JournalOp::Done { fp, cell, .. } = rec.op {
                self.cache.seed(fp, cell);
            }
        }
        journal.append(&JournalRecord {
            op: JournalOp::Open,
            owner: lease.owner.clone(),
        })?;
        self.durable = Some(Durable {
            journal: Mutex::new(journal),
            path: path.to_path_buf(),
            owner: lease.owner,
            resumed_cells: (self.cache.len() - before) as u64,
            corrupt_lines: report.corrupt_lines as u64,
            truncated_bytes: report.truncated_bytes,
            errors: AtomicU64::new(0),
        });
        Ok(self)
    }

    /// Force every job this runner executes onto the given DRAM backend
    /// (the `repro --dram-backend` knob): each submitted job's
    /// `cfg.dram` is rewritten *before* fingerprinting, so caching,
    /// journaling, and persisted `cells.json` files key on the backend
    /// actually simulated, and flat-run caches are never polluted.
    pub fn with_dram(mut self, kind: DramKind) -> Self {
        self.dram_override = Some(kind);
        self
    }

    /// Install a shutdown flag (typically set by a SIGINT/SIGTERM
    /// handler). Once the flag reads true, workers finish the cells
    /// they have started, unstarted cells drain as interrupted
    /// placeholders that leave no journal record, and
    /// [`interrupted`](Self::interrupted) reports true.
    pub fn with_shutdown_flag(mut self, flag: &'static AtomicBool) -> Self {
        self.shutdown = Some(flag);
        self
    }

    /// Whether any batch was cut short by the shutdown flag. Results
    /// from an interrupted runner contain placeholder cells and must
    /// not be published as experiment output — the journal already
    /// holds every finished cell, so resume later from it.
    pub fn interrupted(&self) -> bool {
        self.interrupted.load(Ordering::Relaxed)
    }

    /// Finished cells recovered from the journal when it was attached
    /// (0 for a fresh journal or an unjournaled runner).
    pub fn resumed_cells(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.resumed_cells)
    }

    /// One human-readable line describing what attaching the journal
    /// recovered; `None` when no journal is attached.
    pub fn resume_summary(&self) -> Option<String> {
        let d = self.durable.as_ref()?;
        let mut s = format!(
            "journal: owner {}, resumed {} finished cell(s)",
            d.owner, d.resumed_cells
        );
        if d.truncated_bytes > 0 {
            s.push_str(&format!(", truncated {}-byte torn tail", d.truncated_bytes));
        }
        if d.corrupt_lines > 0 {
            s.push_str(&format!(", skipped {} corrupt line(s)", d.corrupt_lines));
        }
        Some(s)
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// The machine-readable sweep telemetry document (`metrics.json`):
    /// deterministic counters at the top level, every wall-clock-derived
    /// quantity isolated under the `"wall"` key so determinism checks can
    /// strip one subtree and compare the rest byte-for-byte.
    pub fn telemetry_json(&self) -> Json {
        let t = lock_recovering(&self.telemetry);
        let mut cells: Vec<CellTiming> = t.cells.clone();
        cells.sort_by(|a, b| {
            (a.fingerprint, a.unit_bytes, a.issue_mhz).cmp(&(
                b.fingerprint,
                b.unit_bytes,
                b.issue_mhz,
            ))
        });
        let mut doc = obj! {
            "version" => 1u64,
            "workers" => self.jobs,
            "batches" => t.batches,
            "cells_computed" => self.cache.computed(),
            "cache_hits" => self.cache.hits(),
            "distinct_cells" => self.cache.len(),
            "failures" => self.failure_count(),
            "interrupted" => self.interrupted(),
            "wall" => obj! {
                "total_secs" => t.total_secs,
                "cells" => cells
                    .iter()
                    .map(|c| obj! {
                        "fp" => c.fingerprint,
                        "unit_bytes" => c.unit_bytes,
                        "issue_mhz" => c.issue_mhz,
                        "secs" => c.secs,
                        "failed" => c.failed,
                    })
                    .collect::<Vec<Json>>(),
            },
        };
        if let Some(d) = &self.durable {
            if let Json::Obj(pairs) = &mut doc {
                pairs.push(("journal".to_string(), d.telemetry()));
            }
        }
        doc
    }

    /// A single-threaded runner (still memoized) — the reference the
    /// golden-equality test compares the pool against.
    pub fn serial() -> Self {
        SweepRunner::new(1)
    }

    /// Worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The memo table (for stats and persistence).
    pub fn cache(&self) -> &CellCache {
        &self.cache
    }

    /// Every failure recorded so far, in deterministic submission order
    /// within each batch.
    pub fn failures(&self) -> Vec<FailedCell> {
        lock_recovering(&self.failures).clone()
    }

    /// Number of failed cells recorded so far.
    pub fn failure_count(&self) -> usize {
        lock_recovering(&self.failures).len()
    }

    /// A human-readable failure report; empty string when every cell
    /// succeeded.
    pub fn failure_report(&self) -> String {
        let failures = lock_recovering(&self.failures);
        if failures.is_empty() {
            return String::new();
        }
        let mut s = format!(
            "{} cell(s) failed; their table slots hold inert zero cells:\n",
            failures.len()
        );
        for f in failures.iter() {
            s.push_str("  ");
            s.push_str(&f.describe());
            s.push('\n');
        }
        s
    }

    /// Run one configuration through the cache and the same isolation
    /// boundary as batches; a failure is recorded and yields the inert
    /// placeholder cell.
    pub fn run_one(&self, cfg: &SystemConfig, workload: &Workload) -> Cell {
        let mut cells = self.run_batch(&[Job::new(*cfg, *workload)]);
        let Some(cell) = cells.pop() else {
            // invariant: run_batch returns exactly one cell per job.
            unreachable!("run_batch returns one cell per job");
        };
        cell
    }

    /// Run a batch of jobs, in parallel, returning cells in submission
    /// order. Duplicate jobs (within the batch or against the cache) are
    /// simulated once and fanned out to every submitter. Failed jobs
    /// yield [`Cell::failed_placeholder`] (never cached) and are
    /// recorded in [`failures`](Self::failures).
    pub fn run_batch(&self, jobs: &[Job]) -> Vec<Cell> {
        self.run_labeled("batch", jobs)
    }

    /// [`run_batch`](Self::run_batch) with a label (the calling
    /// artifact's name) that journaled `done` and `failed` records
    /// carry, so a journal reads as a per-artifact work log.
    pub fn run_labeled(&self, label: &str, jobs: &[Job]) -> Vec<Cell> {
        // Apply the DRAM-backend override before fingerprinting, so the
        // cache keys on what actually runs.
        let rewritten: Vec<Job>;
        let jobs = match self.dram_override {
            Some(kind) => {
                rewritten = jobs
                    .iter()
                    .map(|j| {
                        let mut j = *j;
                        j.cfg.dram = kind;
                        j
                    })
                    .collect();
                &rewritten[..]
            }
            None => jobs,
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "batch wall time feeds only the `wall` subtree of metrics.json"
        )]
        let batch_start = std::time::Instant::now();
        let mut slots: Vec<Option<Cell>> = vec![None; jobs.len()];
        // First occurrence of each uncached fingerprint, in order.
        let mut pending: Vec<(u64, Job)> = Vec::new();
        // fingerprint -> slots awaiting it. Ordered so any walk over the
        // waiters (now or under future refactors) stays deterministic.
        let mut waiters: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut cached = 0usize;
        for (i, job) in jobs.iter().enumerate() {
            let fp = job.fingerprint();
            if let Some(cell) = self.cache.get(fp) {
                slots[i] = Some(cell);
                cached += 1;
                continue;
            }
            match waiters.entry(fp) {
                Entry::Occupied(mut e) => {
                    // Deduplicated within the batch: count as a hit.
                    self.cache.hits.fetch_add(1, Ordering::Relaxed);
                    cached += 1;
                    e.get_mut().push(i);
                }
                Entry::Vacant(e) => {
                    e.insert(vec![i]);
                    pending.push((fp, *job));
                }
            }
        }

        let mut computed = self.execute(label, &pending, cached);
        {
            let mut t = lock_recovering(&self.telemetry);
            t.batches += 1;
            t.total_secs += batch_start.elapsed().as_secs_f64();
        }
        // Completion order is nondeterministic under the pool; submission
        // order keeps results — and the failure log — deterministic.
        computed.sort_by_key(|&(k, _)| k);

        for (k, outcome) in computed {
            let (fp, job) = pending[k];
            match outcome {
                JobOutcome::Done(cell) => {
                    self.cache.insert(fp, cell);
                    for &slot in &waiters[&fp] {
                        slots[slot] = Some(cell);
                    }
                }
                JobOutcome::Failed(failed) => {
                    let placeholder = Cell::failed_placeholder(&job.cfg);
                    for &slot in &waiters[&fp] {
                        slots[slot] = Some(placeholder);
                    }
                    lock_recovering(&self.failures).push(*failed);
                }
                JobOutcome::Interrupted => {
                    self.interrupted.store(true, Ordering::Relaxed);
                    let placeholder = Cell::failed_placeholder(&job.cfg);
                    for &slot in &waiters[&fp] {
                        slots[slot] = Some(placeholder);
                    }
                }
            }
        }
        slots
            .into_iter()
            .map(|c| match c {
                Some(cell) => cell,
                // invariant: the cache-fill and compute loops above
                // populate every slot, including failed ones.
                None => unreachable!("every slot is cached, computed, or failed"),
            })
            .collect()
    }

    /// Record one computed cell's wall time and fire the progress
    /// callback. The [`BatchProgress`] comes back from shared batch
    /// counters so the ETA improves as the batch drains.
    fn observe_cell(&self, fp: u64, job: &Job, secs: f64, failed: bool, batch: BatchProgress) {
        let unit_bytes = job.cfg.hierarchy.unit_bytes();
        let issue_mhz = job.cfg.issue.mhz();
        lock_recovering(&self.telemetry).cells.push(CellTiming {
            fingerprint: fp,
            unit_bytes,
            issue_mhz,
            secs,
            failed,
        });
        if let Some(cb) = &self.progress {
            let remaining = batch.total.saturating_sub(batch.done);
            cb(&ProgressUpdate {
                fingerprint: fp,
                unit_bytes,
                issue_mhz,
                failed,
                cell_secs: secs,
                batch_done: batch.done,
                batch_total: batch.total,
                batch_cached: batch.cached,
                eta_secs: batch.mean_secs * remaining as f64 / batch.workers.max(1) as f64,
            });
        }
    }

    /// Run one job: validate its configuration, then simulate it behind
    /// a panic boundary. A cell is a deterministic function of its job,
    /// so a panicking cell runs once. The standard panic hook has already
    /// printed the panic's location on stderr; the failure keeps its
    /// message.
    #[expect(
        clippy::disallowed_methods,
        reason = "the runner is where sweep cells are simulated"
    )]
    fn compute_cell(&self, job: &Job, fp: u64) -> JobOutcome {
        if let Err(e) = job.cfg.validate() {
            let error = format!("invalid configuration: {e}");
            return JobOutcome::Failed(Box::new(FailedCell::new(job, fp, error)));
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault")]
            crate::experiments::fault::cell_panic_point(fp);
            run_config(&job.cfg, &job.workload)
        }));
        match run {
            Ok(cell) => JobOutcome::Done(cell),
            Err(payload) => {
                let msg = panic_message(&*payload);
                let error = format!("simulation invariant violated: {msg}");
                JobOutcome::Failed(Box::new(FailedCell::new(job, fp, error)))
            }
        }
    }

    /// Simulate `pending` on the worker pool; returns `(index, outcome)`
    /// pairs in arbitrary order. `cached` is how many of the batch's
    /// slots were already served from the cache (reported to the
    /// progress callback). With a journal attached, each cell's `done`
    /// or `failed` record, under `label`, is appended as it finishes.
    fn execute(
        &self,
        label: &str,
        pending: &[(u64, Job)],
        cached: usize,
    ) -> Vec<(usize, JobOutcome)> {
        if let Some(d) = &self.durable {
            // Appends to an unlinked or replaced journal land in an
            // orphaned inode that no later run reads.
            if !d.path.exists() {
                d.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        let total = pending.len();
        let workers = self.jobs.min(total).max(1);
        let finished = AtomicUsize::new(0);
        let spent_secs = Mutex::new(0.0f64);
        let timed = |k: usize| {
            if self.shutdown_requested() {
                return (k, JobOutcome::Interrupted);
            }
            let (fp, job) = &pending[k];
            #[expect(
                clippy::disallowed_methods,
                reason = "cell wall time feeds only progress updates and the `wall` subtree"
            )]
            let t0 = std::time::Instant::now();
            let outcome = self.compute_cell(job, *fp);
            let secs = t0.elapsed().as_secs_f64();
            if let Some(d) = &self.durable {
                d.record(label, *fp, &outcome);
            }
            let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
            let mean = {
                let mut spent = lock_recovering(&spent_secs);
                *spent += secs;
                *spent / done as f64
            };
            self.observe_cell(
                *fp,
                job,
                secs,
                !matches!(outcome, JobOutcome::Done(_)),
                BatchProgress {
                    done,
                    total,
                    cached,
                    mean_secs: mean,
                    workers,
                },
            );
            (k, outcome)
        };
        if workers <= 1 {
            return (0..total).map(timed).collect();
        }
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, JobOutcome)>> = Mutex::new(Vec::with_capacity(total));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= total {
                        break;
                    }
                    // Simulate before taking the lock: a guard taken
                    // first would be held across the whole cell.
                    let outcome = timed(k);
                    lock_recovering(&done).push(outcome);
                });
            }
        });
        done.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::IssueRate;
    use rampage_json::ToJson;

    fn quick_jobs() -> Vec<Job> {
        let w = Workload::quick();
        [128u64, 1024, 4096]
            .iter()
            .flat_map(|&s| {
                [
                    Job::new(SystemConfig::baseline(IssueRate::GHZ1, s), w),
                    Job::new(SystemConfig::rampage(IssueRate::GHZ1, s), w),
                ]
            })
            .collect()
    }

    #[test]
    fn fingerprints_separate_configs_and_workloads() {
        let w = Workload::quick();
        let a = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 128), w);
        let b = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 256), w);
        let c = Job::new(SystemConfig::rampage(IssueRate::GHZ1, 128), w);
        let mut w2 = w;
        w2.scale += 1;
        let d = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 128), w2);
        let fps = [a, b, c, d].map(|j| j.fingerprint());
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "jobs {i} and {j} collide");
            }
        }
        assert_eq!(a.fingerprint(), Job::new(a.cfg, a.workload).fingerprint());
    }

    #[test]
    fn parallel_batch_matches_serial_batch_exactly() {
        let jobs = quick_jobs();
        let serial = SweepRunner::serial().run_batch(&jobs);
        let parallel = SweepRunner::new(4).run_batch(&jobs);
        assert_eq!(serial, parallel, "pools must not change results");
        assert_eq!(serial.len(), jobs.len());
        // Submission order survives the pool.
        for (job, cell) in jobs.iter().zip(&serial) {
            assert_eq!(job.cfg.hierarchy.unit_bytes(), cell.unit_bytes);
        }
    }

    #[test]
    fn cache_deduplicates_within_and_across_batches() {
        let runner = SweepRunner::new(2);
        let jobs = quick_jobs();
        // Submit every job twice in one batch.
        let doubled: Vec<Job> = jobs.iter().chain(jobs.iter()).copied().collect();
        let cells = runner.run_batch(&doubled);
        assert_eq!(&cells[..jobs.len()], &cells[jobs.len()..]);
        assert_eq!(runner.cache().computed(), jobs.len() as u64);
        assert_eq!(runner.cache().hits(), jobs.len() as u64);
        // A second batch is served entirely from the cache.
        let again = runner.run_batch(&jobs);
        assert_eq!(again, &cells[..jobs.len()]);
        assert_eq!(runner.cache().computed(), jobs.len() as u64);
        assert_eq!(runner.cache().hits(), 2 * jobs.len() as u64);
    }

    #[test]
    fn cache_persistence_roundtrips() {
        let runner = SweepRunner::serial();
        let jobs = quick_jobs();
        let cells = runner.run_batch(&jobs);
        let doc = runner.cache().to_json();

        let fresh = CellCache::new();
        let (loaded, errors) = fresh.load_json(&doc).expect("clean load");
        assert_eq!((loaded, errors.len()), (jobs.len(), 0));
        for (job, cell) in jobs.iter().zip(&cells) {
            assert_eq!(fresh.get(job.fingerprint()), Some(*cell));
        }

        // The JSON text itself roundtrips (checksums included).
        let reparsed = Json::parse(&doc.pretty()).expect("valid JSON");
        let fresh2 = CellCache::new();
        let (loaded2, errors2) = fresh2.load_json(&reparsed).expect("clean load");
        assert_eq!((loaded2, errors2.len()), (jobs.len(), 0));
        assert_eq!(fresh2.get(jobs[0].fingerprint()), Some(cells[0]));
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let bad = obj! { "version" => 999u64, "cells" => Vec::<Json>::new() };
        match CellCache::new().load_json(&bad) {
            Err(CacheIoError::VersionMismatch { found, expected }) => {
                assert_eq!(found, 999);
                assert_eq!(expected, CACHE_FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let no_header = obj! { "cells" => Vec::<Json>::new() };
        assert!(matches!(
            CellCache::new().load_json(&no_header),
            Err(CacheIoError::BadHeader(_))
        ));
    }

    #[test]
    fn corrupt_entries_are_skipped_individually() {
        let runner = SweepRunner::serial();
        let jobs = quick_jobs();
        runner.run_batch(&jobs);
        let doc = runner.cache().to_json();
        // Flip one entry's checksum.
        let text = doc.pretty().replacen("\"sum\":", "\"sum\": 1, \"was\":", 1);
        let tampered = Json::parse(&text).expect("still JSON");
        let fresh = CellCache::new();
        let (loaded, errors) = fresh.load_json(&tampered).expect("envelope still valid");
        assert!(
            matches!(errors.as_slice(), [CacheIoError::BadChecksum { .. }]),
            "the tampered entry is dropped with a typed checksum error: {errors:?}"
        );
        assert_eq!(loaded, jobs.len() - 1, "its neighbours survive");

        // An issue rate past u32, under a valid checksum, is undecodable
        // rather than truncated to 1000 MHz.
        let body = runner.cache().get(jobs[0].fingerprint()).expect("cached");
        let body = Json::parse(&body.to_json().compact().replacen(
            "\"issue_mhz\":1000,",
            "\"issue_mhz\":4294968296,",
            1,
        ))
        .expect("still JSON");
        let sum = fnv1a(body.compact().as_bytes());
        let wide = obj! {
            "version" => CACHE_FORMAT_VERSION,
            "cells" => vec![obj! { "fp" => 1u64, "sum" => sum, "cell" => body }],
        };
        let fresh = CellCache::new();
        let (loaded, errors) = fresh.load_json(&wide).expect("envelope valid");
        assert!(
            matches!(errors.as_slice(), [CacheIoError::Parse(_)]),
            "an out-of-range issue rate is a typed parse error: {errors:?}"
        );
        assert_eq!(loaded, 0);
    }

    #[test]
    fn run_one_memoizes() {
        let runner = SweepRunner::serial();
        let w = Workload::quick();
        let cfg = SystemConfig::two_way(IssueRate::MHZ200, 512);
        let a = runner.run_one(&cfg, &w);
        let b = runner.run_one(&cfg, &w);
        assert_eq!(a, b);
        assert_eq!(runner.cache().computed(), 1);
        assert_eq!(runner.cache().hits(), 1);
    }

    #[test]
    fn progress_and_telemetry_track_the_batch() {
        let updates = std::sync::Arc::new(Mutex::new(Vec::new()));
        let seen = std::sync::Arc::clone(&updates);
        let runner = SweepRunner::new(2).with_progress(move |u| {
            lock_recovering(&seen).push(*u);
        });
        let jobs = quick_jobs();
        runner.run_batch(&jobs);
        {
            let ups = lock_recovering(&updates);
            assert_eq!(ups.len(), jobs.len(), "one update per computed cell");
            assert!(ups.iter().all(|u| u.batch_total == jobs.len()));
            assert!(ups.iter().all(|u| !u.failed && u.cell_secs >= 0.0));
            assert!(ups.iter().any(|u| u.batch_done == jobs.len()));
            let last_done = ups.iter().map(|u| u.batch_done).max().unwrap();
            assert_eq!(last_done, jobs.len());
        }
        let doc = runner.telemetry_json();
        assert_eq!(doc.get("batches").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("cells_computed").and_then(Json::as_u64),
            Some(jobs.len() as u64)
        );
        assert_eq!(doc.get("failures").and_then(Json::as_u64), Some(0));
        let wall = doc.get("wall").expect("wall subtree");
        let cells = wall.get("cells").and_then(Json::as_array).expect("cells");
        assert_eq!(cells.len(), jobs.len());
        // Fingerprints are sorted, so the document is deterministic
        // modulo the wall-clock figures themselves.
        let fps: Vec<u64> = cells
            .iter()
            .map(|c| c.get("fp").and_then(Json::as_u64).expect("fp"))
            .collect();
        assert!(fps.windows(2).all(|w| w[0] <= w[1]));

        // A fully cached re-run fires no further updates but counts the
        // batch.
        runner.run_batch(&jobs);
        assert_eq!(lock_recovering(&updates).len(), jobs.len());
        let doc = runner.telemetry_json();
        assert_eq!(doc.get("batches").and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.get("cache_hits").and_then(Json::as_u64),
            Some(jobs.len() as u64)
        );
    }

    #[test]
    fn failed_cells_appear_in_progress_updates() {
        let updates = std::sync::Arc::new(Mutex::new(Vec::new()));
        let seen = std::sync::Arc::clone(&updates);
        let runner = SweepRunner::serial().with_progress(move |u| {
            lock_recovering(&seen).push(*u);
        });
        let mut bad = SystemConfig::baseline(IssueRate::GHZ1, 128);
        bad.quantum = 0;
        runner.run_batch(&[Job::new(bad, Workload::quick())]);
        let ups = lock_recovering(&updates);
        assert_eq!(ups.len(), 1);
        assert!(ups[0].failed);
        drop(ups);
        let doc = runner.telemetry_json();
        assert_eq!(doc.get("failures").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn invalid_config_becomes_failed_cell_not_abort() {
        let runner = SweepRunner::new(2);
        let mut bad = SystemConfig::baseline(IssueRate::GHZ1, 128);
        bad.quantum = 0;
        let good = SystemConfig::baseline(IssueRate::GHZ1, 256);
        let w = Workload::quick();
        let cells = runner.run_batch(&[Job::new(bad, w), Job::new(good, w)]);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].seconds, 0.0, "failed slot holds the placeholder");
        assert!(cells[1].seconds > 0.0, "sibling still simulated");
        let failures = runner.failures();
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].error.starts_with("invalid configuration: ")
                && failures[0].error.contains("quantum"),
            "{}",
            failures[0].error
        );
        assert!(!runner.failure_report().is_empty());
        // Failed cells are never cached: only the good one is held.
        assert_eq!(runner.cache().len(), 1);
    }

    #[test]
    fn panic_message_reads_str_and_string_payloads() {
        let literal: Box<dyn Any + Send> = Box::new("victim is mapped");
        let formatted: Box<dyn Any + Send> = Box::new(format!("frame {}", 7));
        let other: Box<dyn Any + Send> = Box::new(7i32);
        assert_eq!(panic_message(&*literal), "victim is mapped");
        assert_eq!(panic_message(&*formatted), "frame 7");
        assert_eq!(panic_message(&*other), "panic payload of unknown type");
    }
}
