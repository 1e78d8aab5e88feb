//! The inverted page table.

use crate::page::{FrameId, Vpn};
use rampage_cache::PhysAddr;
use rampage_trace::Asid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::num::NonZeroU32;

/// What a frame currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Owning address space.
    pub asid: Asid,
    /// Virtual page mapped into this frame.
    pub vpn: Vpn,
    /// Referenced bit for the clock algorithm.
    pub referenced: bool,
    /// Dirty: the frame must be written back on replacement.
    pub dirty: bool,
    /// Pinned frames (OS code, the page table itself) are never replaced.
    pub pinned: bool,
}

/// Result of a table lookup: the frame (if mapped) and the physical
/// addresses the lookup touched — one hash-anchor-table slot plus one
/// entry per chain step. The TLB-miss handler in [`crate::os`] replays
/// these through the simulated hierarchy, so longer chains genuinely cost
/// more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IptLookup<'a> {
    /// The mapped frame, or `None` (page fault).
    pub frame: Option<FrameId>,
    /// Physical addresses probed, in order. They live in a buffer the
    /// table reuses on its next lookup, so a lookup allocates nothing.
    pub probe_addrs: &'a [PhysAddr],
}

impl IptLookup<'_> {
    /// How many table reads the walk performed (the HAT slot plus one
    /// per chain step) — the cost figure observability events carry.
    pub fn probes(&self) -> usize {
        self.probe_addrs.len()
    }
}

/// A hash-chain link, 4 bytes like the HAT entry it models: the frame
/// index plus one, so the all-zero value ends the chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Link(Option<NonZeroU32>);

impl Link {
    fn to(frame: FrameId) -> Self {
        Link(NonZeroU32::new(frame.0 + 1))
    }

    fn frame(self) -> Option<FrameId> {
        self.0.map(|n| FrameId(n.get() - 1))
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    mapping: Option<Mapping>,
    /// Next frame on the same hash chain.
    next: Link,
    /// Handed out of the free pool and not yet returned to it.
    taken: bool,
}

/// Entries per storage chunk of a large [`Paged`] array. Small, because
/// the shuffled free pool scatters a conventional table's mapped frames
/// over its 2^18 entries, so nearly every mapped frame pages in a chunk
/// of its own.
const CHUNK: usize = 16;

/// Arrays of up to this many entries are allocated in full. That covers
/// the RAMpage table (33,792 frames and 65,536 buckets at 128-byte
/// pages), which maps most of its frames, so its lookups skip the chunk
/// directory. The conventional table's 2^18 DRAM frames are paged in.
const FLAT_MAX: usize = 1 << 16;

/// A fixed-length array whose entries read as `T::default()` until
/// written. Above [`FLAT_MAX`] entries, storage is allocated one
/// [`CHUNK`] at a time on first write, so memory and construction time
/// follow what has been written, not the length, and a read of an
/// entry never written allocates nothing.
#[derive(Debug)]
struct Paged<T> {
    len: usize,
    /// Per chunk, the index in `data` where its entries start; 0, the
    /// all-default chunk at the front of `data`, until the chunk is
    /// first written. Empty when `data` holds every entry in order.
    /// A `u32` each: `data` never holds more than `len + CHUNK` entries,
    /// and `len` follows a `u32` frame count.
    dir: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy + Default> Paged<T> {
    fn new(len: usize) -> Self {
        if len <= FLAT_MAX {
            return Paged {
                len,
                dir: Vec::new(),
                data: vec![T::default(); len],
            };
        }
        Paged {
            len,
            dir: vec![0; len.div_ceil(CHUNK)],
            data: vec![T::default(); CHUNK],
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// # Panics
    ///
    /// Panics if `i` is out of range, as indexing a slice does.
    #[inline]
    fn get(&self, i: usize) -> &T {
        if self.dir.is_empty() {
            return &self.data[i];
        }
        assert!(i < self.len, "index {i} out of range for {}", self.len);
        &self.data[self.dir[i / CHUNK] as usize + i % CHUNK]
    }

    /// # Panics
    ///
    /// Panics if `i` is out of range, as indexing a slice does, or if
    /// the written chunks outgrow `u32` offsets.
    #[inline]
    fn get_mut(&mut self, i: usize) -> &mut T {
        if self.dir.is_empty() {
            return &mut self.data[i];
        }
        assert!(i < self.len, "index {i} out of range for {}", self.len);
        let start = &mut self.dir[i / CHUNK];
        if *start == 0 {
            let Ok(at) = u32::try_from(self.data.len()) else {
                panic!("paged storage of {} entries outgrew u32 offsets", self.len)
            };
            *start = at;
            self.data.resize(self.data.len() + CHUNK, T::default());
        }
        &mut self.data[*start as usize + i % CHUNK]
    }
}

/// The free-frame pool.
///
/// It behaves as a list that starts with every frame in descending
/// order, hands frames out from its back and takes returned frames back
/// on top, so low frames go first. A shuffled pool first runs
/// `rand::seq::SliceRandom::shuffle` over that list. That Fisher–Yates
/// shuffle swaps top-down: step *i* swaps position *i* with a uniform
/// position `j <= i` and never touches *i* again. So this pool runs step
/// *i*, with its one draw, only when position *i* is handed out, and
/// keeps only the values earlier steps moved into lower positions. It
/// hands out the same frames in the same order as the eager shuffle, at
/// a cost that follows the frames handed out, not the table size.
#[derive(Debug)]
struct FreePool {
    frames: u32,
    /// Positions `0..unpopped` of the list have never been handed out.
    unpopped: u32,
    /// Never-popped positions whose value a shuffle step replaced;
    /// every other position `k` still holds its initial `frames - 1 - k`.
    displaced: BTreeMap<u32, u32>,
    /// The shuffle's generator; `None` keeps the list in order.
    rng: Option<StdRng>,
    /// Frames returned to the pool, last in first out.
    returned: Vec<FrameId>,
}

impl FreePool {
    fn new(frames: u32, shuffle_seed: Option<u64>) -> Self {
        FreePool {
            frames,
            unpopped: frames,
            displaced: BTreeMap::new(),
            rng: shuffle_seed.map(StdRng::seed_from_u64),
            returned: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.unpopped as usize + self.returned.len()
    }

    fn pop(&mut self) -> Option<FrameId> {
        if let Some(f) = self.returned.pop() {
            return Some(f);
        }
        let i = self.unpopped.checked_sub(1)?;
        self.unpopped = i;
        let initial = |k: u32| self.frames - 1 - k;
        let Some(rng) = self.rng.as_mut() else {
            return Some(FrameId(initial(i)));
        };
        let top = self.displaced.remove(&i).unwrap_or(initial(i));
        // The shuffle's step i swaps positions i and j <= i; there is no
        // step 0, and so no draw for it.
        let j = if i == 0 { 0 } else { rng.gen_range(0..i + 1) };
        if j == i {
            return Some(FrameId(top));
        }
        let below = self.displaced.insert(j, top).unwrap_or(initial(j));
        Some(FrameId(below))
    }

    fn push(&mut self, frame: FrameId) {
        self.returned.push(frame);
    }
}

/// An inverted page table: one entry per physical frame, reached through a
/// hash anchor table (HAT) with per-bucket chains (the structure of
/// Huck & Hays 1993, which the paper cites in §2.2).
///
/// The paper chooses an inverted table because the SRAM main memory is
/// small, the table size is fixed (so it can be pinned in SRAM), and with
/// the whole of SRAM mapped by a pinned table "a TLB miss need never
/// reference DRAM or disk, until there is a page fault from SRAM."
///
/// The table knows its own physical layout (`table_base`): the HAT is an
/// array of 4-byte frame indices, followed by 16-byte entries, so lookups
/// report the exact addresses a software handler would touch. Those
/// addresses follow from bucket and frame indices alone; the host-side
/// storage of a large table is allocated only as entries are written.
#[derive(Debug)]
pub struct InvertedPageTable {
    slots: Paged<Slot>,
    hat: Paged<Link>,
    /// `64 - log2(buckets)`: the hash bits above it pick the bucket.
    bucket_shift: u32,
    free: FreePool,
    table_base: PhysAddr,
    mapped: u32,
    /// The last lookup's probe addresses (reused, never shrunk).
    probes: Vec<PhysAddr>,
}

/// Bytes per hash-anchor-table slot (a frame index).
const HAT_ENTRY_BYTES: u64 = 4;
/// Bytes per table entry (ASID + VPN + flags + chain link).
pub(crate) const ENTRY_BYTES: u64 = 16;

impl InvertedPageTable {
    /// Create a table covering `num_frames` frames, resident at
    /// `table_base` in the physical space it maps. The free pool hands
    /// out low frame numbers first.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` is zero.
    pub fn new(num_frames: u32, table_base: PhysAddr) -> Self {
        Self::build(num_frames, table_base, None)
    }

    /// As [`new`](Self::new), but the free pool hands frames out in an
    /// order shuffled deterministically by `seed`: the order of
    /// `rand::seq::SliceRandom::shuffle` over the unshuffled pool.
    ///
    /// A real OS's free list is effectively randomly ordered, which is
    /// what makes large direct-mapped caches suffer page-placement
    /// conflicts (the problem the paper's §3.2 cites page-coloring work
    /// [KH92b, BLRC94] for). Sequential allocation would amount to
    /// perfect page coloring and unrealistically flatter the baseline.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` is zero.
    pub fn with_shuffled_free(num_frames: u32, table_base: PhysAddr, seed: u64) -> Self {
        Self::build(num_frames, table_base, Some(seed))
    }

    /// The table of both constructors.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` is zero.
    fn build(num_frames: u32, table_base: PhysAddr, shuffle_seed: Option<u64>) -> Self {
        assert!(num_frames > 0, "a paged memory needs frames");
        // One bucket per frame (rounded up to a power of two): the
        // classic inverted-table load factor, and it keeps the pinned
        // table within the paper's §4.5 OS-region budget.
        let buckets = (num_frames as usize).next_power_of_two();
        InvertedPageTable {
            slots: Paged::new(num_frames as usize),
            hat: Paged::new(buckets),
            bucket_shift: 64 - buckets.trailing_zeros(),
            free: FreePool::new(num_frames, shuffle_seed),
            table_base,
            mapped: 0,
            probes: Vec::new(),
        }
    }

    /// Number of frames covered.
    pub fn num_frames(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Number of currently mapped frames.
    pub fn mapped_frames(&self) -> u32 {
        self.mapped
    }

    /// Total bytes the table occupies (HAT + entries) — the quantity the
    /// OS pins in SRAM (paper §4.5: 6 pages at a 4 KB page size, up to
    /// 5336 pages at 128 bytes).
    pub fn table_bytes(&self) -> u64 {
        self.hat.len() as u64 * HAT_ENTRY_BYTES + self.slots.len() as u64 * ENTRY_BYTES
    }

    fn bucket_of(&self, asid: Asid, vpn: Vpn) -> usize {
        let key = ((asid.0 as u64) << 48) ^ vpn.0;
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // A one-bucket table shifts by 64, which leaves no bits: bucket 0.
        h.checked_shr(self.bucket_shift).unwrap_or(0) as usize
    }

    fn hat_addr(&self, bucket: usize) -> PhysAddr {
        PhysAddr(self.table_base.0 + bucket as u64 * HAT_ENTRY_BYTES)
    }

    /// Physical address of the table entry for `frame` (used by the OS
    /// model to generate clock-scan and update references).
    pub fn entry_addr(&self, frame: FrameId) -> PhysAddr {
        PhysAddr(
            self.table_base.0
                + self.hat.len() as u64 * HAT_ENTRY_BYTES
                + frame.0 as u64 * ENTRY_BYTES,
        )
    }

    /// Look up `(asid, vpn)`, recording the probe addresses. On a hit the
    /// referenced bit is set (feeding the clock algorithm).
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> IptLookup<'_> {
        let bucket = self.bucket_of(asid, vpn);
        self.probes.clear();
        self.probes.push(self.hat_addr(bucket));
        let mut cur = self.hat.get(bucket).frame();
        let mut frame = None;
        while let Some(f) = cur {
            self.probes.push(self.entry_addr(f));
            let slot = self.slots.get_mut(f.0 as usize);
            let Some(m) = slot.mapping.as_mut() else {
                // invariant: frames on a collision chain always hold a
                // mapping; unmapped frames are unlinked on free.
                unreachable!("IPT invariant: chained frames are always mapped")
            };
            if m.asid == asid && m.vpn == vpn {
                m.referenced = true;
                frame = Some(f);
                break;
            }
            cur = slot.next.frame();
        }
        IptLookup {
            frame,
            probe_addrs: &self.probes,
        }
    }

    /// Behavioural lookup: no probe recording, no referenced-bit update.
    pub fn frame_of(&self, asid: Asid, vpn: Vpn) -> Option<FrameId> {
        let bucket = self.bucket_of(asid, vpn);
        let mut cur = self.hat.get(bucket).frame();
        while let Some(f) = cur {
            let slot = self.slots.get(f.0 as usize);
            let m = slot.mapping.as_ref()?;
            if m.asid == asid && m.vpn == vpn {
                return Some(f);
            }
            cur = slot.next.frame();
        }
        None
    }

    /// Take a frame from the free pool: the most recently returned frame
    /// if any, else the next in the pool's initial order (low frame
    /// numbers first, unless built with
    /// [`with_shuffled_free`](Self::with_shuffled_free)).
    pub fn alloc_free(&mut self) -> Option<FrameId> {
        let f = self.free.pop()?;
        self.slots.get_mut(f.0 as usize).taken = true;
        Some(f)
    }

    /// Number of unmapped frames remaining.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Map `(asid, vpn)` into `frame`, linking it onto its hash chain.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already mapped or the pair is already
    /// mapped elsewhere (both are OS bugs in a real system).
    pub fn insert(&mut self, frame: FrameId, asid: Asid, vpn: Vpn) {
        assert!(
            self.slots.get(frame.0 as usize).mapping.is_none(),
            "IPT insert: {frame} is already mapped"
        );
        assert!(
            self.frame_of(asid, vpn).is_none(),
            "IPT insert: ({asid}, {vpn}) is already mapped elsewhere"
        );
        let head = self.hat.get_mut(self.bucket_of(asid, vpn));
        let slot = self.slots.get_mut(frame.0 as usize);
        slot.mapping = Some(Mapping {
            asid,
            vpn,
            referenced: true,
            dirty: false,
            pinned: false,
        });
        slot.next = *head;
        *head = Link::to(frame);
        self.mapped += 1;
    }

    /// Map and pin a frame (OS code / page-table residency). Pinned
    /// frames are skipped by the clock replacer.
    ///
    /// # Panics
    ///
    /// As [`insert`](Self::insert).
    pub fn insert_pinned(&mut self, frame: FrameId, asid: Asid, vpn: Vpn) {
        self.insert(frame, asid, vpn);
        if let Some(m) = self.slots.get_mut(frame.0 as usize).mapping.as_mut() {
            m.pinned = true;
        }
    }

    /// Unmap a frame, unlinking it from its chain. Returns the old
    /// mapping (with dirty flag, for write-back).
    ///
    /// # Panics
    ///
    /// Panics if the frame is pinned.
    pub fn remove(&mut self, frame: FrameId) -> Option<Mapping> {
        let m = self.remove_reserved(frame)?;
        self.return_to_pool(frame);
        Some(m)
    }

    /// Unmap a frame but keep it out of the free pool — the standby-list
    /// path, where the frame's contents stay intact until the page is
    /// discarded for real. Pair with [`release`](Self::release).
    ///
    /// # Panics
    ///
    /// Panics if the frame is pinned (pinned frames hold the OS and the
    /// table itself; replacing one is a kernel bug).
    pub fn remove_reserved(&mut self, frame: FrameId) -> Option<Mapping> {
        let Slot {
            mapping: Some(m),
            next: after,
            ..
        } = *self.slots.get(frame.0 as usize)
        else {
            return None;
        };
        assert!(
            !m.pinned,
            "IPT remove: {frame} is pinned and cannot be replaced"
        );
        // Unlink from the chain: point whichever link names `frame` past it.
        let link = Link::to(frame);
        let mut prev = self.hat.get_mut(self.bucket_of(m.asid, m.vpn));
        while *prev != link {
            let Some(f) = prev.frame() else {
                // invariant: a mapped frame is on its bucket's chain.
                unreachable!("IPT invariant: mapped {frame} is on its chain")
            };
            prev = &mut self.slots.get_mut(f.0 as usize).next;
        }
        *prev = after;
        let slot = self.slots.get_mut(frame.0 as usize);
        slot.mapping = None;
        slot.next = Link::default();
        self.mapped -= 1;
        Some(m)
    }

    /// Return a frame previously detached with
    /// [`remove_reserved`](Self::remove_reserved) to the free pool (its
    /// standby contents have been discarded).
    ///
    /// # Panics
    ///
    /// Panics if the frame is still mapped, or is already in the free
    /// pool (a double release).
    pub fn release(&mut self, frame: FrameId) {
        let slot = self.slots.get(frame.0 as usize);
        assert!(slot.mapping.is_none(), "releasing a mapped frame {frame}");
        assert!(slot.taken, "double release of {frame}");
        self.return_to_pool(frame);
    }

    fn return_to_pool(&mut self, frame: FrameId) {
        self.slots.get_mut(frame.0 as usize).taken = false;
        self.free.push(frame);
    }

    /// The mapping currently in `frame`, if any.
    pub fn mapping(&self, frame: FrameId) -> Option<&Mapping> {
        self.slots.get(frame.0 as usize).mapping.as_ref()
    }

    /// Set the dirty bit of a mapped frame (on write-back into the page).
    ///
    /// # Panics
    ///
    /// Panics if the frame is unmapped (the caller just resolved the
    /// frame through the TLB or table, so this is an internal invariant).
    pub fn set_dirty(&mut self, frame: FrameId) {
        match self.slots.get_mut(frame.0 as usize).mapping.as_mut() {
            Some(m) => m.dirty = true,
            None => panic!("VM invariant: dirtying unmapped {frame}"),
        }
    }

    /// Clear the referenced bit (the clock hand sweeping past).
    pub(crate) fn clear_referenced(&mut self, frame: FrameId) {
        if let Some(m) = self.slots.get_mut(frame.0 as usize).mapping.as_mut() {
            m.referenced = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(frames: u32) -> InvertedPageTable {
        InvertedPageTable::new(frames, PhysAddr(0x1000))
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t = table(8);
        let f = t.alloc_free().unwrap();
        assert_eq!(f, FrameId(0), "low frames first");
        t.insert(f, Asid(1), Vpn(42));
        assert_eq!(t.frame_of(Asid(1), Vpn(42)), Some(f));
        assert_eq!(t.mapped_frames(), 1);
        let m = t.remove(f).unwrap();
        assert_eq!(m.vpn, Vpn(42));
        assert_eq!(t.frame_of(Asid(1), Vpn(42)), None);
        assert_eq!(t.free_frames(), 8);
    }

    #[test]
    fn lookup_records_hat_and_chain_probes() {
        let mut t = table(8);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        let r = t.lookup(Asid(1), Vpn(1));
        assert_eq!(r.frame, Some(f));
        // One HAT probe + one entry probe.
        assert_eq!(r.probe_addrs.len(), 2);
        assert_eq!(r.probes(), r.probe_addrs.len());
        assert!(r.probe_addrs[0].0 >= 0x1000);
        // A missing page probes at least the HAT slot.
        let miss = t.lookup(Asid(9), Vpn(9));
        assert_eq!(miss.frame, None);
        assert!(!miss.probe_addrs.is_empty());
    }

    #[test]
    fn chains_grow_probe_sequences() {
        // Force every page into the same bucket by brute force: insert
        // many pages and find a bucket with a chain of length >= 2.
        let mut t = table(64);
        for i in 0..64u64 {
            let f = t.alloc_free().unwrap();
            t.insert(f, Asid(1), Vpn(i));
        }
        let max_probes = (0..64u64)
            .map(|i| t.lookup(Asid(1), Vpn(i)).probe_addrs.len())
            .max()
            .unwrap();
        assert!(
            max_probes >= 2,
            "with 64 pages in 128 buckets some chain should exist; max {max_probes}"
        );
    }

    #[test]
    fn remove_from_middle_of_chain_preserves_rest() {
        let mut t = table(64);
        // Fill completely so chains certainly form.
        for i in 0..64u64 {
            let f = t.alloc_free().unwrap();
            t.insert(f, Asid(1), Vpn(i));
        }
        // Remove every even page, then verify all odd pages still resolve.
        for i in (0..64u64).step_by(2) {
            let f = t.frame_of(Asid(1), Vpn(i)).unwrap();
            t.remove(f);
        }
        for i in (1..64u64).step_by(2) {
            assert!(
                t.frame_of(Asid(1), Vpn(i)).is_some(),
                "odd page {i} lost its mapping"
            );
        }
        assert_eq!(t.mapped_frames(), 32);
    }

    #[test]
    fn referenced_bit_set_on_lookup() {
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(7));
        t.clear_referenced(f);
        assert!(!t.mapping(f).unwrap().referenced);
        t.lookup(Asid(1), Vpn(7));
        assert!(t.mapping(f).unwrap().referenced);
    }

    #[test]
    fn dirty_bit_lifecycle() {
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(7));
        assert!(!t.mapping(f).unwrap().dirty);
        t.set_dirty(f);
        let m = t.remove(f).unwrap();
        assert!(m.dirty, "write-back needed");
    }

    #[test]
    #[should_panic(expected = "IPT remove: frame:0 is pinned and cannot be replaced")]
    fn pinned_frames_cannot_be_removed() {
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert_pinned(f, Asid(0), Vpn(0));
        t.remove(f);
    }

    #[test]
    #[should_panic(expected = "IPT insert: frame:0 is already mapped")]
    fn double_insert_is_a_bug() {
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        t.insert(f, Asid(1), Vpn(2));
    }

    #[test]
    #[should_panic(expected = "IPT insert: (asid1, vpn:0x1) is already mapped elsewhere")]
    fn mapping_one_page_into_a_second_frame_is_a_bug() {
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        let g = t.alloc_free().unwrap();
        t.insert(g, Asid(1), Vpn(1));
    }

    #[test]
    fn table_bytes_scale_with_frames() {
        // 4.125 MB of SRAM at 128-byte pages = 33792 frames: entries alone
        // are 528 KB, matching the order of the paper's 667 KB OS region.
        let t = InvertedPageTable::new(33792, PhysAddr(0));
        let bytes = t.table_bytes();
        assert!(bytes > 528 * 1024, "entries: {bytes}");
        assert!(bytes < 1024 * 1024, "but below 1 MB: {bytes}");
    }

    #[test]
    fn remove_reserved_keeps_frame_out_of_pool() {
        let mut t = table(2);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        let m = t.remove_reserved(f).unwrap();
        assert_eq!(m.vpn, Vpn(1));
        assert_eq!(t.frame_of(Asid(1), Vpn(1)), None, "unmapped");
        assert_eq!(t.free_frames(), 1, "frame 0 reserved, frame 1 free");
        t.release(f);
        assert_eq!(t.free_frames(), 2);
    }

    #[test]
    #[should_panic(expected = "releasing a mapped frame")]
    fn release_of_mapped_frame_is_a_bug() {
        let mut t = table(2);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        t.release(f);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_a_bug() {
        let mut t = table(2);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        t.remove_reserved(f);
        t.release(f);
        t.release(f);
    }

    #[test]
    fn large_table_storage_follows_what_is_written() {
        let mut t = InvertedPageTable::with_shuffled_free(1 << 18, PhysAddr(0), 7);
        let chunks = |t: &InvertedPageTable| (t.slots.data.len() / CHUNK, t.hat.data.len() / CHUNK);
        // Only the shared all-default chunk exists, and reads never
        // written allocate nothing.
        assert_eq!(chunks(&t), (1, 1));
        for vpn in 0..1000 {
            assert_eq!(t.lookup(Asid(1), Vpn(vpn)).frame, None);
        }
        assert!((0..1 << 18).all(|f| t.mapping(FrameId(f)).is_none()));
        assert_eq!(chunks(&t), (1, 1));
        // One mapping pages in one chunk of entries and one of buckets.
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(5));
        assert_eq!(chunks(&t), (2, 2));
        assert_eq!(t.frame_of(Asid(1), Vpn(5)), Some(f));
        assert_eq!(t.table_bytes(), (1 << 18) * (HAT_ENTRY_BYTES + ENTRY_BYTES));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn large_table_rejects_frames_past_its_end() {
        // 65,537 frames: the last chunk is mostly past the end.
        let t = InvertedPageTable::new((1 << 16) + 1, PhysAddr(0));
        t.mapping(FrameId((1 << 16) + 1));
    }

    #[test]
    fn alloc_exhausts_then_none() {
        let mut t = table(2);
        assert!(t.alloc_free().is_some());
        assert!(t.alloc_free().is_some());
        assert!(t.alloc_free().is_none());
    }
}
