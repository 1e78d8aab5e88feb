//! The 3C miss classification (compulsory / capacity / conflict).
//!
//! Hill's classic taxonomy, via Hennessy & Patterson (which the paper
//! cites as [HP96]): a miss is *compulsory* if the block was never seen
//! before, *capacity* if a fully-associative LRU cache of the same size
//! would also have missed, and *conflict* otherwise. Conflict misses are
//! precisely what RAMpage's full associativity removes, so this
//! classifier quantifies the paper's core mechanism.

use crate::addr::PhysAddr;
use crate::cache::Cache;
use crate::geometry::Geometry;
use crate::policy::ReplacementPolicy;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The class of one miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First-ever reference to the block (cold).
    Compulsory,
    /// A fully-associative cache of equal size would also miss.
    Capacity,
    /// Only the restricted mapping misses (what associativity removes).
    Conflict,
}

/// Counts per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissProfile {
    /// Hits observed.
    pub hits: u64,
    /// Cold misses.
    pub compulsory: u64,
    /// Capacity misses.
    pub capacity: u64,
    /// Conflict misses.
    pub conflict: u64,
}

impl MissProfile {
    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Fraction of misses that are conflicts (0 for no misses) — the
    /// share of misses full associativity would eliminate.
    pub fn conflict_share(&self) -> f64 {
        let m = self.misses();
        if m == 0 {
            0.0
        } else {
            self.conflict as f64 / m as f64
        }
    }
}

/// The shadow structures that classify misses of *any* cache of a given
/// capacity: a seen-set (compulsory detection) and an exact
/// fully-associative LRU cache of equal capacity (capacity detection),
/// tracked as a timestamped map.
///
/// The LRU shadow is a dual index: `shadow` answers membership, and
/// `by_stamp` orders blocks by last touch so eviction takes the true
/// oldest in O(log n) — with no dependence on hash iteration order
/// (stamps are unique, so the BTreeMap ordering is total).
///
/// Use this directly to classify an existing cache's misses (the
/// simulator's conventional system does, when diagnosis is enabled), or
/// via [`MissClassifier`] for a self-contained cache-plus-classifier.
#[derive(Debug)]
pub struct ShadowTracker {
    block_size: u64,
    /// Blocks ever touched (for compulsory detection).
    seen: HashSet<u64>,
    /// Fully-associative LRU shadow: block number → last-touch stamp.
    shadow: HashMap<u64, u64>,
    /// Mirror of `shadow` keyed by stamp: the first entry is the LRU
    /// block.
    by_stamp: BTreeMap<u64, u64>,
    capacity: usize,
    stamp: u64,
    profile: MissProfile,
}

impl ShadowTracker {
    /// A tracker for a cache of `capacity` blocks of `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `block_size` is not a power of two.
    pub fn new(capacity: usize, block_size: u64) -> Self {
        assert!(capacity > 0, "shadow needs capacity");
        assert!(block_size.is_power_of_two(), "block size");
        ShadowTracker {
            block_size,
            seen: HashSet::new(),
            shadow: HashMap::new(),
            by_stamp: BTreeMap::new(),
            capacity,
            stamp: 0,
            profile: MissProfile::default(),
        }
    }

    /// Observe one access to the real cache and its hit/miss outcome;
    /// returns the class of a miss.
    pub fn observe(&mut self, addr: PhysAddr, real_hit: bool) -> Option<MissClass> {
        let block = addr.block_number(self.block_size);
        self.stamp += 1;
        let prev_stamp = self.shadow.insert(block, self.stamp);
        let shadow_hit = prev_stamp.is_some();
        if let Some(old) = prev_stamp {
            self.by_stamp.remove(&old);
        }
        self.by_stamp.insert(self.stamp, block);
        if !shadow_hit && self.shadow.len() > self.capacity {
            // The first by_stamp entry is the least-recently-touched
            // block; evicting through it keeps the shadow exact without
            // ever walking the hash map.
            if let Some((&oldest_stamp, &oldest_block)) = self.by_stamp.first_key_value() {
                self.by_stamp.remove(&oldest_stamp);
                self.shadow.remove(&oldest_block);
            }
        }
        if real_hit {
            self.profile.hits += 1;
            return None;
        }
        let class = if self.seen.insert(block) {
            self.profile.compulsory += 1;
            MissClass::Compulsory
        } else if !shadow_hit {
            self.profile.capacity += 1;
            MissClass::Capacity
        } else {
            self.profile.conflict += 1;
            MissClass::Conflict
        };
        Some(class)
    }

    /// The classification so far.
    pub fn profile(&self) -> MissProfile {
        self.profile
    }
}

/// A cache under study plus the shadow structures that classify its
/// misses.
///
/// ```
/// use rampage_cache::{Geometry, MissClassifier, PhysAddr, ReplacementPolicy};
/// let geo = Geometry::new(1024, 32, 1);
/// let mut mc = MissClassifier::new(geo, ReplacementPolicy::Lru);
/// mc.access(PhysAddr(0), false);      // compulsory
/// mc.access(PhysAddr(1024), false);   // compulsory (conflicts with 0)
/// mc.access(PhysAddr(0), false);      // conflict: FA cache still holds it
/// assert_eq!(mc.profile().conflict, 1);
/// ```
#[derive(Debug)]
pub struct MissClassifier {
    cache: Cache,
    tracker: ShadowTracker,
}

impl MissClassifier {
    /// Wrap a cache of the given geometry/policy with its classifier.
    pub fn new(geo: Geometry, policy: ReplacementPolicy) -> Self {
        MissClassifier {
            cache: Cache::new(geo, policy),
            tracker: ShadowTracker::new(geo.blocks() as usize, geo.block()),
        }
    }

    /// Access the cache, classifying any miss. Returns the class, or
    /// `None` on a hit.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> Option<MissClass> {
        let res = self.cache.access(addr, is_write);
        self.tracker.observe(addr, res.hit)
    }

    /// The classification so far.
    pub fn profile(&self) -> MissProfile {
        self.tracker.profile()
    }

    /// The cache under study.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(size: u64, block: u64) -> MissClassifier {
        MissClassifier::new(Geometry::new(size, block, 1), ReplacementPolicy::Lru)
    }

    #[test]
    fn first_touch_is_compulsory() {
        let mut mc = dm(1024, 32);
        assert_eq!(mc.access(PhysAddr(0), false), Some(MissClass::Compulsory));
        assert_eq!(mc.access(PhysAddr(0), false), None, "then hits");
        assert_eq!(mc.profile().hits, 1);
    }

    #[test]
    fn ping_pong_in_one_set_is_conflict() {
        let mut mc = dm(1024, 32);
        mc.access(PhysAddr(0), false); // compulsory
        mc.access(PhysAddr(1024), false); // compulsory, evicts 0 in DM
                                          // Both fit easily in a 32-block FA cache, so these are conflicts.
        assert_eq!(mc.access(PhysAddr(0), false), Some(MissClass::Conflict));
        assert_eq!(mc.access(PhysAddr(1024), false), Some(MissClass::Conflict));
        assert_eq!(mc.profile().conflict, 2);
        assert!((mc.profile().conflict_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn streaming_past_capacity_is_capacity() {
        // 4-block cache; stream 8 blocks twice: second pass misses even
        // fully-associatively.
        let mut mc = dm(128, 32);
        for _ in 0..2 {
            for i in 0..8u64 {
                mc.access(PhysAddr(i * 32), false);
            }
        }
        let p = mc.profile();
        assert_eq!(p.compulsory, 8);
        assert!(p.capacity >= 7, "second sweep re-misses: {p:?}");
        assert_eq!(p.hits, 0);
    }

    #[test]
    fn associativity_turns_conflicts_into_hits() {
        // Same ping-pong, 2-way: no misses after the cold ones.
        let mut mc = MissClassifier::new(Geometry::new(1024, 32, 2), ReplacementPolicy::Lru);
        mc.access(PhysAddr(0), false);
        mc.access(PhysAddr(1024), false);
        assert_eq!(mc.access(PhysAddr(0), false), None);
        assert_eq!(mc.access(PhysAddr(1024), false), None);
        assert_eq!(mc.profile().conflict, 0);
    }

    #[test]
    fn profile_totals_are_consistent() {
        let mut mc = dm(256, 32);
        for i in 0..1000u64 {
            mc.access(PhysAddr((i * 7919) % 4096), i % 3 == 0);
        }
        let p = mc.profile();
        assert_eq!(p.hits + p.misses(), 1000);
        assert_eq!(p.misses(), mc.cache().stats().misses());
    }

    #[test]
    fn empty_profile_conflict_share_is_zero() {
        assert_eq!(MissProfile::default().conflict_share(), 0.0);
    }
}
