//! Deterministic fault injection for the sweep runner (behind the
//! `fault` feature — test builds only).
//!
//! The robustness suite uses these hooks to prove the runner's isolation
//! and crash-safety guarantees without depending on real bugs: a cell
//! can be made to panic on every execution (exercising the panic
//! boundary and the [`FailedCell`](crate::experiments::FailedCell)
//! path), and a journaled run can be made to die mid-append (exercising
//! torn-tail recovery and resume from the journal, the only store a run
//! reads back).
//!
//! Injection state is process-global. Tests must hold an
//! [`InjectionScope`] while armed: the scope serializes tests against
//! each other and guarantees a disarmed state on entry and on drop (even
//! across a failed assertion), so `cargo test` parallelism can never
//! cross-contaminate armed state between tests.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Exit code of an injected process death (`die-mid-append`): 128 +
/// SIGKILL, the same code a real `kill -9` produces, so drills and real
/// kills look identical to wrappers.
pub const INJECTED_CRASH_EXIT: i32 = 137;

/// Exclusive, self-cleaning access to the process-global injection
/// state (this module's cell panics and crash points, plus the trace
/// crate's corrupt-block hook, which the `fault` feature enables
/// together).
///
/// Acquiring blocks until no other scope is alive, then disarms
/// everything; dropping disarms again. Arm faults only while holding a
/// scope.
#[derive(Debug)]
pub struct InjectionScope {
    _lock: MutexGuard<'static, ()>,
}

static SCOPE_LOCK: Mutex<()> = Mutex::new(());

impl InjectionScope {
    /// Block until exclusive, then start from a disarmed state.
    pub fn acquire() -> Self {
        // A poisoned lock just means another test failed while holding
        // the scope; its Drop already disarmed, and we re-disarm anyway.
        let lock = SCOPE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        rampage_trace::fault::disarm();
        InjectionScope { _lock: lock }
    }
}

impl Drop for InjectionScope {
    fn drop(&mut self) {
        reset();
        rampage_trace::fault::disarm();
    }
}

fn cell_panics() -> MutexGuard<'static, BTreeSet<u64>> {
    static ARMED: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    ARMED.lock().unwrap_or_else(|p| p.into_inner())
}

/// Arm every execution of the cell with this fingerprint to panic at
/// the start of simulation, so the runner records it as failed.
pub fn arm_cell_panic(fp: u64) {
    cell_panics().insert(fp);
}

/// Called by the runner inside its per-cell isolation boundary.
pub(crate) fn cell_panic_point(fp: u64) {
    if cell_panics().contains(&fp) {
        // lint: allow(panic-doc) — the injected fault IS the deliberate panic; the runner's catch_unwind boundary records it
        panic!("injected fault: cell {fp:#018x}");
    }
}

/// Countdown crash point for the journaled runner: armed with N, it
/// fires on the Nth journal append.
static DIE_MID_APPEND: AtomicU32 = AtomicU32::new(0);

/// Arm the `nth` upcoming journal append to write half a record and
/// die (exit [`INJECTED_CRASH_EXIT`]) — the torn tail
/// [`Journal::open`](crate::experiments::Journal::open) must truncate on
/// resume.
pub fn arm_die_mid_append(nth: u32) {
    DIE_MID_APPEND.store(nth, Ordering::SeqCst);
}

/// Consume the mid-append crash, if this append is the armed one:
/// decrement the countdown, true exactly when it just reached zero.
pub(crate) fn take_die_mid_journal_append() -> bool {
    DIE_MID_APPEND
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok_and(|prev| prev == 1)
}

/// Disarm every injection point.
pub fn reset() {
    cell_panics().clear();
    DIE_MID_APPEND.store(0, Ordering::SeqCst);
}

/// Arm one injection from a CLI spec — how a crash-drill child process
/// (`repro … --fault SPEC`) arms itself. Specs: `die-mid-append[=N]`,
/// `cell-panic=<fp>` (fp in hex with `0x`, or decimal).
///
/// # Errors
///
/// A human-readable message when the spec does not parse.
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    let (name, arg) = match spec.split_once('=') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    match name {
        "die-mid-append" => arm_die_mid_append(match arg {
            None => 1,
            Some(a) => a.parse().map_err(|_| format!("bad count in {spec:?}"))?,
        }),
        "cell-panic" => arm_cell_panic(
            arg.and_then(parse_u64_maybe_hex)
                .ok_or_else(|| format!("{spec:?} needs cell-panic=<fp>"))?,
        ),
        _ => return Err(format!("unknown fault spec {spec:?}")),
    }
    Ok(())
}

/// Parse a u64 that may carry a `0x` prefix (fingerprints are usually
/// quoted in hex).
fn parse_u64_maybe_hex(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(h) => u64::from_str_radix(h, 16).ok(),
        None => s.parse().ok(),
    }
}
