//! Deterministic fault injection for the sweep runner (behind the
//! `fault` feature — test builds only).
//!
//! The robustness suite uses these hooks to prove the runner's isolation
//! and crash-safety guarantees without depending on real bugs: a cell
//! can be made to panic a fixed number of times (exercising
//! catch-and-retry and the [`FailedCell`](crate::experiments::FailedCell)
//! path), and a journaled run can be made to die after a claim or
//! mid-append (exercising resume from the journal, the only store a run
//! reads back).
//!
//! Injection state is process-global. Tests must hold an
//! [`InjectionScope`] while armed: the scope serializes tests against
//! each other and guarantees a disarmed state on entry and on drop (even
//! across a failed assertion), so `cargo test` parallelism can never
//! cross-contaminate armed state between tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Exit code of an injected process death (`die-after-claim`,
/// `die-mid-append`): 128 + SIGKILL, the same code a real `kill -9`
/// produces, so drills and real kills look identical to wrappers.
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

fn cell_panics() -> MutexGuard<'static, HashMap<u64, u32>> {
    static MAP: OnceLock<Mutex<HashMap<u64, u32>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Arm the next `times` executions of the cell with this fingerprint to
/// panic at the start of simulation. With `times = 1` the retry
/// succeeds; with `times >= 2` the cell is recorded as failed.
pub fn arm_cell_panic(fp: u64, times: u32) {
    cell_panics().insert(fp, times);
}

/// Called by the runner inside its per-cell isolation boundary.
pub(crate) fn cell_panic_point(fp: u64) {
    let fire = {
        let mut map = cell_panics();
        match map.get_mut(&fp) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    };
    if fire {
        // lint: allow(panic-doc) — the injected fault IS the deliberate panic; the runner's catch_unwind boundary records it
        panic!("injected fault: cell {fp:#018x}");
    }
}

/// Countdown crash points for the journaled runner: each counter is
/// armed with N and fires on the Nth hit of its injection point.
static DIE_AFTER_CLAIM: AtomicU32 = AtomicU32::new(0);
static DIE_MID_APPEND: AtomicU32 = AtomicU32::new(0);

/// Decrement a countdown; true exactly when it just reached zero.
fn countdown_hit(counter: &AtomicU32) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok_and(|prev| prev == 1)
}

/// Arm the process to die (exit [`INJECTED_CRASH_EXIT`]) immediately
/// after the `nth` batch of journal claim records is appended — the
/// worst crash point for lease reclaim: claims are durable, results
/// never arrive.
pub fn arm_die_after_claim(nth: u32) {
    DIE_AFTER_CLAIM.store(nth, Ordering::SeqCst);
}

/// Called by the journaled orchestrator right after appending claims.
pub(crate) fn die_after_claim_point() {
    if countdown_hit(&DIE_AFTER_CLAIM) {
        std::process::exit(INJECTED_CRASH_EXIT);
    }
}

/// Arm the `nth` upcoming journal append to write half a record and
/// die — the torn tail [`Journal::open`](crate::experiments::Journal::open)
/// must truncate on resume.
pub fn arm_die_mid_append(nth: u32) {
    DIE_MID_APPEND.store(nth, Ordering::SeqCst);
}

/// Consume the mid-append crash, if this append is the armed one.
pub(crate) fn take_die_mid_journal_append() -> bool {
    countdown_hit(&DIE_MID_APPEND)
}

/// Disarm every injection point.
pub fn reset() {
    cell_panics().clear();
    DIE_AFTER_CLAIM.store(0, Ordering::SeqCst);
    DIE_MID_APPEND.store(0, Ordering::SeqCst);
}

/// Arm one injection from a CLI spec — how a crash-drill child process
/// (`repro … --fault SPEC`) arms itself. Specs: `die-after-claim[=N]`,
/// `die-mid-append[=N]`, `cell-panic=<fp>x<times>`.
///
/// # Errors
///
/// A human-readable message when the spec does not parse.
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    let (name, arg) = match spec.split_once('=') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    let nth = |default: u32| -> Result<u32, String> {
        match arg {
            None => Ok(default),
            Some(a) => a.parse().map_err(|_| format!("bad count in {spec:?}")),
        }
    };
    match name {
        "die-after-claim" => arm_die_after_claim(nth(1)?),
        "die-mid-append" => arm_die_mid_append(nth(1)?),
        "cell-panic" => {
            let a = arg.ok_or_else(|| format!("{spec:?} needs <fp>x<times>"))?;
            let (fp, times) = a
                .split_once('x')
                .ok_or_else(|| format!("{spec:?} needs <fp>x<times>"))?;
            let fp = parse_u64_maybe_hex(fp).ok_or_else(|| format!("bad fp in {spec:?}"))?;
            let times = times
                .parse()
                .map_err(|_| format!("bad times in {spec:?}"))?;
            arm_cell_panic(fp, times);
        }
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
