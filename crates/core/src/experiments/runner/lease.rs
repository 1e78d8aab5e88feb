//! Lease-based claiming over the journal: who owns a cell, when a lease
//! goes stale, and who wins a contested claim.
//!
//! The protocol is append-then-read-back: a process appends a `claim`
//! record, rescans the journal, and the first *live* claim in file order
//! wins (the `O_APPEND` writer makes file order a total order across
//! processes). Losers do not compute the cell — they adopt the winner's
//! `done` record when it lands. Liveness is two-tiered:
//!
//! * **pid check** — the default owner id is `pid<N>`; on Linux a dead
//!   pid (`/proc/<N>` missing) makes every lease it held immediately
//!   reclaimable, so a `kill -9`'d run resumes with no waiting.
//! * **TTL** — for non-pid owner ids (or off-Linux), a lease is stale
//!   once the owner's most recent journal record (claim, done, or
//!   `renew` heartbeat) is older than [`TTL_MS`] (60 s). Owners renew
//!   every [`RENEW_EVERY`] (8) completed cells and heartbeat while
//!   idle-waiting, so a healthy process stays fresh; note a single cell
//!   slower than the TTL can still look stale to a *different host* —
//!   the pid check prevents that on one machine, which is the supported
//!   drain topology.
//!
//! The read-back is a type: appending a chunk's claims yields
//! [`PendingClaims`], whose only consumer, [`PendingClaims::confirm`],
//! yields the [`Confirmed`] set the runner's executor requires.

use super::journal::{JournalOp, JournalRecord};
use crate::experiments::common::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Milliseconds after an owner's last journal record before its leases
/// may be reclaimed (TTL tier).
pub(crate) const TTL_MS: u64 = 60_000;

/// Completed cells between `renew` heartbeats.
pub(crate) const RENEW_EVERY: u64 = 8;

/// The lease identity of a journaled runner.
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// This process's owner id (`pid<N>` by default in `repro`; any
    /// unique string works, but only `pid<N>` gets the fast dead-pid
    /// reclaim).
    pub owner: String,
}

impl LeaseConfig {
    /// A lease for the given owner id.
    pub fn new(owner: String) -> Self {
        LeaseConfig { owner }
    }
}

/// One unresolved claim on a cell, in journal file order.
#[derive(Debug, Clone)]
pub struct ClaimView {
    /// Claiming owner.
    pub owner: String,
    /// Wall-clock ms of the claim record itself.
    pub t_ms: u64,
}

/// Everything the journal says about one fingerprint.
#[derive(Debug, Clone, Default)]
pub struct CellView {
    /// The finished cell, when any `done` record exists.
    pub done: Option<Cell>,
    /// Total `done` records seen (1 in a duplication-free drain).
    pub done_count: u32,
    /// `failed` records seen.
    pub failed: u32,
    /// Total `claim` records ever seen (attempt numbering).
    pub claims_total: u32,
    /// Claims not yet resolved by a done/failed/released record, in
    /// file order.
    pub open_claims: Vec<ClaimView>,
}

/// The replayed journal: per-cell state plus per-owner freshness.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Per-fingerprint state.
    pub cells: BTreeMap<u64, CellView>,
    /// Most recent record timestamp per owner (freshness for the TTL
    /// tier).
    pub owner_last_ms: BTreeMap<String, u64>,
}

/// How the claim table currently disposes one fingerprint for `me`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimDecision {
    /// No live claim: free to claim (`reclaim` says whether a stale
    /// claim is being taken over).
    Claimable {
        /// True when a stale claim exists and this would take it over.
        reclaim: bool,
    },
    /// We already hold the live claim.
    Ours,
    /// A live claim by someone else: wait and adopt their result.
    Theirs(String),
}

impl JournalState {
    /// Replay a record stream into per-cell and per-owner state.
    pub fn replay(records: &[JournalRecord]) -> JournalState {
        let mut state = JournalState::default();
        for rec in records {
            let last = state.owner_last_ms.entry(rec.owner.clone()).or_insert(0);
            *last = (*last).max(rec.t_ms);
            match &rec.op {
                JournalOp::Open | JournalOp::Renew => {}
                JournalOp::Claim { fp, .. } => {
                    let cell = state.cells.entry(*fp).or_default();
                    cell.claims_total += 1;
                    if cell.done.is_none() {
                        cell.open_claims.push(ClaimView {
                            owner: rec.owner.clone(),
                            t_ms: rec.t_ms,
                        });
                    }
                }
                JournalOp::Done { fp, cell } => {
                    let view = state.cells.entry(*fp).or_default();
                    view.done = Some(*cell);
                    view.done_count += 1;
                    view.open_claims.clear();
                }
                JournalOp::Failed { fp, .. } => {
                    let view = state.cells.entry(*fp).or_default();
                    view.failed += 1;
                    view.open_claims.retain(|c| c.owner != rec.owner);
                }
                JournalOp::Released { fp } => {
                    let view = state.cells.entry(*fp).or_default();
                    view.open_claims.retain(|c| c.owner != rec.owner);
                }
            }
        }
        state
    }

    /// The finished cell for `fp`, if any process journaled one.
    pub fn done_cell(&self, fp: u64) -> Option<Cell> {
        self.cells.get(&fp).and_then(|c| c.done)
    }

    /// Claims ever made for `fp` (the next claim's attempt number is
    /// this plus one).
    pub fn claims_total(&self, fp: u64) -> u32 {
        self.cells.get(&fp).map_or(0, |c| c.claims_total)
    }

    /// Is `owner` live at `now_ms`? Own records are always live; pid
    /// owners are live iff the process exists; anything else falls back
    /// to TTL freshness.
    fn owner_live(&self, owner: &str, lease: &LeaseConfig, now_ms: u64) -> bool {
        if owner == lease.owner {
            return true;
        }
        if let Some(alive) = pid_alive(owner) {
            if alive {
                return true;
            }
            // A dead pid is stale regardless of record age.
            return false;
        }
        let last = self.owner_last_ms.get(owner).copied().unwrap_or(0);
        now_ms.saturating_sub(last) <= TTL_MS
    }

    /// Resolve the claim table for `fp` from `me`'s point of view: the
    /// first live claim in file order wins.
    pub fn decide(&self, fp: u64, lease: &LeaseConfig, now_ms: u64) -> ClaimDecision {
        let Some(view) = self.cells.get(&fp) else {
            return ClaimDecision::Claimable { reclaim: false };
        };
        let mut saw_stale = false;
        for claim in &view.open_claims {
            if self.owner_live(&claim.owner, lease, now_ms) {
                return if claim.owner == lease.owner {
                    ClaimDecision::Ours
                } else {
                    ClaimDecision::Theirs(claim.owner.clone())
                };
            }
            saw_stale = true;
        }
        ClaimDecision::Claimable { reclaim: saw_stale }
    }
}

/// The claims one chunk of a batch just appended, not yet read back.
#[must_use = "a claim counts only once `confirm` reads it back"]
#[derive(Debug)]
pub(super) struct PendingClaims {
    /// `(batch index, fingerprint, attempt number written)` per claim.
    claims: Vec<(usize, u64, u32)>,
}

/// Batch indices this runner may compute: its claims that won the
/// file-order race, or every index of an unjournaled batch.
#[derive(Debug)]
pub(super) struct Confirmed(Vec<usize>);

impl PendingClaims {
    /// Append a `claim` record through `append` for each `(index, fp,
    /// reclaim)` in `chunk`, numbering its attempt after the claims
    /// `state` already holds for that cell.
    pub(super) fn append(
        chunk: &[(usize, u64, bool)],
        state: &JournalState,
        label: &str,
        mut append: impl FnMut(JournalOp),
    ) -> PendingClaims {
        let claims = chunk
            .iter()
            .map(|&(k, fp, reclaim)| {
                let attempt = state.claims_total(fp) + 1;
                append(JournalOp::Claim {
                    fp,
                    attempt,
                    reclaim,
                    label: label.to_string(),
                });
                (k, fp, attempt)
            })
            .collect();
        PendingClaims { claims }
    }

    /// Keep the claims that `readback`, a rescan taken after the append,
    /// shows `lease` winning: the cell has no `done` record and the first
    /// live claim on it in file order is ours.
    ///
    /// If not one claim reads back (each cell's claim count is below the
    /// attempt just written), the journal was unlinked, replaced or made
    /// unreadable under the open handle, and no claim can ever win. Then
    /// one error is counted in `errors` and the whole chunk is
    /// confirmed: a journal failure costs resumability, not the sweep. A
    /// torn line hides at most one claim, so it cannot trigger this for
    /// a chunk of two or more.
    pub(super) fn confirm(
        self,
        readback: &JournalState,
        lease: &LeaseConfig,
        now_ms: u64,
        errors: &AtomicU64,
    ) -> Confirmed {
        let lost = !self.claims.is_empty()
            && self
                .claims
                .iter()
                .all(|&(_, fp, attempt)| readback.claims_total(fp) < attempt);
        if lost {
            errors.fetch_add(1, Ordering::Relaxed);
        }
        Confirmed(
            self.claims
                .into_iter()
                .filter(|&(_, fp, _)| {
                    lost || (readback.done_cell(fp).is_none()
                        && readback.decide(fp, lease, now_ms) == ClaimDecision::Ours)
                })
                .map(|(k, ..)| k)
                .collect(),
        )
    }
}

impl Confirmed {
    /// Every index of an unjournaled batch of `len` jobs: with no journal
    /// there is no other owner to race.
    pub(super) fn unjournaled(len: usize) -> Confirmed {
        Confirmed((0..len).collect())
    }

    /// The confirmed batch indices.
    pub(super) fn indices(&self) -> &[usize] {
        &self.0
    }
}

/// Liveness of a `pid<N>` owner: `Some(exists)` on Linux, `None` when
/// the owner id is not pid-shaped (TTL applies instead). Pid reuse can
/// in principle resurrect a dead owner's lease; the TTL tier and the
/// idempotence of cell computation bound the damage to one duplicated
/// cell.
fn pid_alive(owner: &str) -> Option<bool> {
    let n: u32 = owner.strip_prefix("pid")?.parse().ok()?;
    if cfg!(target_os = "linux") {
        Some(std::path::Path::new(&format!("/proc/{n}")).exists())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: JournalOp, owner: &str, t_ms: u64) -> JournalRecord {
        JournalRecord {
            op,
            owner: owner.into(),
            lease: 0,
            t_ms,
        }
    }

    fn claim(fp: u64, owner: &str, t_ms: u64) -> JournalRecord {
        rec(
            JournalOp::Claim {
                fp,
                attempt: 1,
                reclaim: false,
                label: "t".into(),
            },
            owner,
            t_ms,
        )
    }

    fn lease(owner: &str) -> LeaseConfig {
        LeaseConfig::new(owner.into())
    }

    #[test]
    fn first_live_claim_in_file_order_wins() {
        let state = JournalState::replay(&[claim(1, "a", 100), claim(1, "b", 101)]);
        assert_eq!(state.decide(1, &lease("a"), 150), ClaimDecision::Ours);
        assert_eq!(
            state.decide(1, &lease("b"), 150),
            ClaimDecision::Theirs("a".into())
        );
        assert_eq!(
            state.decide(2, &lease("b"), 150),
            ClaimDecision::Claimable { reclaim: false }
        );
    }

    #[test]
    fn ttl_staleness_makes_a_claim_reclaimable() {
        let state = JournalState::replay(&[claim(1, "a", 100)]);
        let me = lease("b");
        assert_eq!(
            state.decide(1, &me, 100 + TTL_MS),
            ClaimDecision::Theirs("a".into()),
            "fresh within the TTL"
        );
        assert_eq!(
            state.decide(1, &me, 101 + TTL_MS),
            ClaimDecision::Claimable { reclaim: true },
            "stale past the TTL"
        );
    }

    #[test]
    fn renew_heartbeats_keep_an_owner_fresh() {
        let me = lease("b");
        let late = 101 + TTL_MS;
        let state = JournalState::replay(&[claim(1, "a", 100), rec(JournalOp::Renew, "a", late)]);
        assert_eq!(
            state.decide(1, &me, late),
            ClaimDecision::Theirs("a".into())
        );
    }

    #[test]
    fn dead_pid_owner_is_immediately_reclaimable() {
        if !cfg!(target_os = "linux") {
            return;
        }
        // A pid from the unreachable end of the default pid space.
        let state = JournalState::replay(&[claim(1, "pid4194304", 100)]);
        assert_eq!(
            state.decide(1, &lease("b"), 101),
            ClaimDecision::Claimable { reclaim: true },
            "dead pid needs no TTL wait"
        );
        // Our own live pid stays a live claim.
        let own = format!("pid{}", std::process::id());
        let state = JournalState::replay(&[claim(2, &own, 100)]);
        assert_eq!(
            state.decide(2, &lease("b"), u64::MAX / 2),
            ClaimDecision::Theirs(own)
        );
    }

    #[test]
    fn done_and_released_resolve_claims() {
        let cell = Cell::failed_placeholder(&crate::config::SystemConfig::baseline(
            crate::time::IssueRate::GHZ1,
            128,
        ));
        let state = JournalState::replay(&[
            claim(1, "a", 100),
            rec(JournalOp::Done { fp: 1, cell }, "a", 101),
            claim(2, "a", 100),
            rec(JournalOp::Released { fp: 2 }, "a", 102),
            claim(3, "a", 100),
            rec(
                JournalOp::Failed {
                    fp: 3,
                    error: "boom".into(),
                },
                "a",
                103,
            ),
        ]);
        assert_eq!(state.done_cell(1), Some(cell));
        assert_eq!(state.cells[&1].done_count, 1);
        assert_eq!(
            state.decide(2, &lease("b"), 104),
            ClaimDecision::Claimable { reclaim: false },
            "released claims are free again"
        );
        assert_eq!(
            state.decide(3, &lease("b"), 104),
            ClaimDecision::Claimable { reclaim: false },
            "failed cells may be recomputed"
        );
        assert_eq!(state.cells[&3].failed, 1);
    }
}
