//! Randomized model-based tests over the core data structures.
//!
//! Originally property-based; now driven by the in-tree seeded PRNG
//! (`crates/rand`) because the build environment is offline (see
//! README.md § Offline builds). Every case is deterministic: a fixed
//! seed per test, many sampled scenarios per run.

use rampage::cache::{Cache, Geometry, PhysAddr, ReplacementPolicy};
use rampage::dram::{DramModel, Picos};
use rampage::vm::{ClockReplacer, FrameId, InvertedPageTable, Tlb, Vpn};
use rampage_trace::Asid;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

// ---------- Cache vs a reference LRU model ----------

/// A straightforward model of an LRU set-associative write-back cache.
struct ModelCache {
    geo: Geometry,
    /// Per set: (tag, dirty), most recent at the back.
    sets: Vec<VecDeque<(u64, bool)>>,
}

impl ModelCache {
    fn new(geo: Geometry) -> Self {
        ModelCache {
            sets: vec![VecDeque::new(); geo.sets() as usize],
            geo,
        }
    }

    /// Returns (hit, eviction).
    fn access(&mut self, addr: PhysAddr, write: bool) -> (bool, Option<(PhysAddr, bool)>) {
        let set = self.geo.set_index(addr) as usize;
        let tag = self.geo.tag(addr);
        let q = &mut self.sets[set];
        if let Some(pos) = q.iter().position(|&(t, _)| t == tag) {
            let (t, d) = q.remove(pos).expect("position is valid");
            q.push_back((t, d || write));
            return (true, None);
        }
        let mut evicted = None;
        if q.len() == self.geo.ways() as usize {
            let (t, d) = q.pop_front().expect("set is full");
            evicted = Some((self.geo.block_base(set as u64, t), d));
        }
        q.push_back((tag, write));
        (false, evicted)
    }
}

#[test]
fn cache_matches_lru_model() {
    let mut rng = StdRng::seed_from_u64(0x11a1);
    for _ in 0..64 {
        let size_kb = pick(&mut rng, &[1u64, 2, 4]);
        let block = pick(&mut rng, &[32u64, 64]);
        let ways = pick(&mut rng, &[1u32, 2, 4]);
        let geo = Geometry::new(size_kb * 1024, block, ways);
        let mut cache = Cache::new(geo, ReplacementPolicy::Lru);
        let mut model = ModelCache::new(geo);
        let nops = rng.gen_range(1..400usize);
        let mut read_hits = 0;
        for _ in 0..nops {
            let a = PhysAddr(rng.gen_range(0..4096u64)).align_down(4);
            let write = rng.gen::<bool>();
            // Now and then, reads of a resident block as counted hits.
            if let Some(line) = cache
                .line_of(a)
                .filter(|_| !write && rng.gen_range(0..3u8) == 0)
            {
                let n = rng.gen_range(1..5u64);
                cache.count_read_hits(line, n);
                for _ in 0..n {
                    assert_eq!(
                        model.access(a, false),
                        (true, None),
                        "counted a miss at {a:?}"
                    );
                }
                read_hits += n;
                continue;
            }
            let got = cache.access(a, write);
            let (hit, evicted) = model.access(a, write);
            read_hits += u64::from(hit && !write);
            assert_eq!(got.hit, hit, "hit/miss diverged at {a:?}");
            let got_ev = got.eviction.map(|e| (e.addr, e.dirty));
            assert_eq!(got_ev, evicted, "eviction diverged at {a:?}");
        }
        assert_eq!(cache.stats().read_hits, read_hits);
    }
}

/// Counted read hits leave every policy where repeated reads would:
/// a twin cache that only ever calls `access` agrees on every outcome
/// and every counter, so on every later eviction too.
#[test]
fn counted_hits_keep_every_policy_in_step_with_access() {
    let mut rng = StdRng::seed_from_u64(0x11af);
    let policies = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ];
    for _ in 0..64 {
        let ways = pick(&mut rng, &[1u32, 2, 4]);
        let geo = Geometry::new(1024, 32, ways);
        let policy = pick(&mut rng, &policies);
        let seed = rng.gen::<u64>();
        let mut counted = Cache::with_seed(geo, policy, seed);
        let mut accessed = Cache::with_seed(geo, policy, seed);
        let nops = rng.gen_range(1..400usize);
        for _ in 0..nops {
            let a = PhysAddr(rng.gen_range(0..4096u64)).align_down(4);
            let write = rng.gen_range(0..4u8) == 0;
            match counted.line_of(a).filter(|_| !write) {
                Some(line) => {
                    let n = rng.gen_range(1..5u64);
                    counted.count_read_hits(line, n);
                    for _ in 0..n {
                        assert!(accessed.access(a, false).hit, "{policy:?} {ways}-way");
                    }
                }
                None => assert_eq!(
                    counted.access(a, write),
                    accessed.access(a, write),
                    "{policy:?} {ways}-way at {a:?}"
                ),
            }
            assert_eq!(counted.stats(), accessed.stats(), "{policy:?} {ways}-way");
            assert_eq!(counted.generation(), accessed.generation());
        }
    }
}

#[test]
fn cache_occupancy_and_probe_invariants() {
    let mut rng = StdRng::seed_from_u64(0x11a2);
    for _ in 0..64 {
        let geo = Geometry::new(4096, 32, 2);
        let mut cache = Cache::new(geo, ReplacementPolicy::Random);
        let nops = rng.gen_range(1..300usize);
        for _ in 0..nops {
            let addr = rng.gen_range(0..100_000u64);
            let a = PhysAddr(addr);
            cache.access(a, rng.gen::<bool>());
            assert!(cache.occupancy() <= geo.blocks());
            // Just-accessed blocks are present.
            assert!(cache.probe(a));
            // Probe never mutates hit/miss accounting.
            let s = cache.stats();
            let _ = cache.probe(PhysAddr(addr ^ 0xfff));
            assert_eq!(cache.stats(), s);
        }
    }
}

#[test]
fn geometry_index_tag_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x11a3);
    for _ in 0..256 {
        let addr = rng.gen::<u64>();
        let size_kb = pick(&mut rng, &[16u64, 64, 4096]);
        let block = pick(&mut rng, &[32u64, 128, 4096]);
        let ways = pick(&mut rng, &[1u32, 2]);
        let geo = Geometry::new(size_kb * 1024, block, ways);
        let a = PhysAddr(addr).align_down(block);
        assert_eq!(geo.block_base(geo.set_index(a), geo.tag(a)), a);
        assert!(geo.set_index(a) < geo.sets());
    }
}

// ---------- Inverted page table vs a hash-map model ----------

#[test]
fn ipt_matches_map_model() {
    let mut rng = StdRng::seed_from_u64(0x11a4);
    for _ in 0..64 {
        // One frame is one bucket: the hash keeps no bits at all.
        let frames = pick(&mut rng, &[1u32, 2, 32]);
        let mut ipt = InvertedPageTable::new(frames, PhysAddr(0x1000));
        let mut model: HashMap<u64, FrameId> = HashMap::new();
        let asid = Asid(1);
        let nops = rng.gen_range(1..300usize);
        for _ in 0..nops {
            let op = rng.gen_range(0..3u8);
            let vpn_raw = rng.gen_range(0..64u64);
            let vpn = Vpn(vpn_raw);
            match op {
                // Insert if absent and a frame is free.
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(vpn_raw) {
                        if let Some(f) = ipt.alloc_free() {
                            ipt.insert(f, asid, vpn);
                            e.insert(f);
                        }
                    }
                }
                // Remove if present.
                1 => {
                    if let Some(f) = model.remove(&vpn_raw) {
                        let m = ipt.remove(f).expect("model says mapped");
                        assert_eq!(m.vpn, vpn);
                    }
                }
                // Lookup.
                _ => {
                    let got = ipt.lookup(asid, vpn).frame;
                    assert_eq!(got, model.get(&vpn_raw).copied());
                }
            }
            assert_eq!(ipt.mapped_frames() as usize, model.len());
            assert_eq!(ipt.free_frames(), frames as usize - model.len());
        }
        // Final coherence: every model entry resolves through the chains.
        for (vpn_raw, f) in &model {
            assert_eq!(ipt.frame_of(asid, Vpn(*vpn_raw)), Some(*f));
            let m = ipt.mapping(*f).expect("mapped frame has a mapping");
            assert_eq!(m.vpn, Vpn(*vpn_raw));
        }
    }
}

// ---------- The lazily shuffled free pool vs the eager shuffle ----------

/// The free pool as an eager list: every frame in descending order,
/// shuffled in full with `SliceRandom`, handed out from the back, with
/// returned frames pushed on top.
fn eager_pool(frames: u32, shuffle_seed: Option<u64>) -> Vec<FrameId> {
    let mut pool: Vec<FrameId> = (0..frames).rev().map(FrameId).collect();
    if let Some(seed) = shuffle_seed {
        pool.shuffle(&mut StdRng::seed_from_u64(seed));
    }
    pool
}

#[test]
fn lazy_free_pool_matches_the_eager_shuffle() {
    let mut rng = StdRng::seed_from_u64(0x11aa);
    for frames in [1u32, 2, 3, 64, 4096] {
        for shuffle_seed in [None, Some(0x00a1_10c8), Some(rng.gen::<u64>())] {
            for _ in 0..8 {
                let mut ipt = match shuffle_seed {
                    Some(seed) => InvertedPageTable::with_shuffled_free(frames, PhysAddr(0), seed),
                    None => InvertedPageTable::new(frames, PhysAddr(0)),
                };
                let mut model = eager_pool(frames, shuffle_seed);
                // Frames out of the pool: mapped (at vpn = frame) or reserved.
                let mut mapped: Vec<FrameId> = Vec::new();
                let mut reserved: Vec<FrameId> = Vec::new();
                let nops = rng.gen_range(1..4 * frames as usize + 16);
                for _ in 0..nops {
                    match rng.gen_range(0..4u8) {
                        0 | 1 => {
                            let got = ipt.alloc_free();
                            assert_eq!(got, model.pop(), "{frames} frames, {shuffle_seed:?}");
                            if let Some(f) = got {
                                ipt.insert(f, Asid(1), Vpn(f.0 as u64));
                                mapped.push(f);
                            }
                        }
                        2 if !mapped.is_empty() => {
                            let f = mapped.swap_remove(rng.gen_range(0..mapped.len()));
                            if rng.gen::<bool>() {
                                assert_eq!(ipt.remove(f).map(|m| m.vpn), Some(Vpn(f.0 as u64)));
                                model.push(f);
                            } else {
                                assert!(ipt.remove_reserved(f).is_some());
                                reserved.push(f);
                            }
                        }
                        3 if !reserved.is_empty() => {
                            let f = reserved.swap_remove(rng.gen_range(0..reserved.len()));
                            ipt.release(f);
                            model.push(f);
                        }
                        _ => {}
                    }
                    assert_eq!(ipt.free_frames(), model.len());
                }
                // The rest of the pool comes out in the eager order too.
                while let Some(f) = model.pop() {
                    assert_eq!(ipt.alloc_free(), Some(f));
                }
                assert_eq!(ipt.alloc_free(), None);
                assert_eq!(ipt.free_frames(), 0);
            }
        }
    }
}

#[test]
fn conventional_free_order_is_pinned() {
    // The first frames the conventional hierarchy's pool (2^18 DRAM
    // frames, seed 0x00a1_10c8) hands out, as the eager shuffle of the
    // whole pool gave them.
    let mut ipt = InvertedPageTable::with_shuffled_free(1 << 18, PhysAddr(0), 0x00a1_10c8);
    let first: Vec<u32> = (0..16).map(|_| ipt.alloc_free().unwrap().0).collect();
    assert_eq!(
        first,
        [
            203435, 42718, 248031, 204287, 649, 224924, 44125, 238339, 197973, 27323, 182816,
            247694, 95874, 239792, 128364, 135646
        ]
    );
}

// ---------- TLB ----------

#[test]
fn tlb_capacity_and_lookup_invariants() {
    let mut rng = StdRng::seed_from_u64(0x11a5);
    for _ in 0..64 {
        let ways = pick(&mut rng, &[1usize, 4, 64]);
        let mut tlb = Tlb::new(4, ways, 99);
        let asid = Asid(7);
        let nops = rng.gen_range(1..300usize);
        for _ in 0..nops {
            let op = rng.gen_range(0..3u8);
            let vpn_raw = rng.gen_range(0..256u64);
            let vpn = Vpn(vpn_raw);
            match op {
                0 => {
                    tlb.insert(asid, vpn, FrameId(vpn_raw as u32));
                    // An entry is visible immediately after insertion.
                    assert_eq!(tlb.peek(asid, vpn), Some(FrameId(vpn_raw as u32)));
                }
                1 => {
                    tlb.flush_page(asid, vpn);
                    assert_eq!(tlb.peek(asid, vpn), None);
                }
                _ => {
                    // A hit always returns the frame that was inserted
                    // for exactly this vpn (frames encode their vpn).
                    if let Some(f) = tlb.lookup(asid, vpn) {
                        assert_eq!(f, FrameId(vpn_raw as u32));
                    }
                }
            }
            assert!(tlb.occupancy() <= tlb.capacity());
        }
    }
}

// ---------- Clock replacement ----------

#[test]
fn clock_victims_are_legal() {
    let mut rng = StdRng::seed_from_u64(0x11a6);
    for _ in 0..64 {
        // 16 frames, some pinned by the mask (never all: bit 15 clear).
        let pin_mask = rng.gen_range(0..0x7fffu32);
        let mut ipt = InvertedPageTable::new(16, PhysAddr(0));
        for i in 0..16u32 {
            let f = ipt.alloc_free().unwrap();
            if pin_mask & (1 << i) != 0 {
                ipt.insert_pinned(f, Asid(0), Vpn(i as u64));
            } else {
                ipt.insert(f, Asid(1), Vpn(i as u64));
            }
        }
        let mut clock = ClockReplacer::new();
        for _ in 0..8 {
            let (victim, scanned) = clock.select_victim(&mut ipt);
            let m = *ipt.mapping(victim).expect("victim is mapped");
            assert!(!m.pinned, "pinned frame selected");
            assert!(!m.referenced || scanned > 0);
            assert!(scanned <= 32, "at most two sweeps");
            // Replace it with a fresh page, as the OS would.
            ipt.remove(victim);
            let f = ipt.alloc_free().unwrap();
            ipt.insert(f, Asid(1), Vpn(1000 + victim.0 as u64));
        }
    }
}

// ---------- Timing arithmetic ----------

#[test]
fn picos_cycles_ceil_is_a_proper_ceiling() {
    let mut rng = StdRng::seed_from_u64(0x11a7);
    for _ in 0..256 {
        let t = rng.gen_range(0..u64::MAX / 2);
        let c = rng.gen_range(1..100_000u64);
        let cycles = Picos(t).cycles_ceil(Picos(c));
        assert!(cycles * c >= t, "covers the duration");
        if cycles > 0 {
            assert!((cycles - 1) * c < t, "minimal");
        }
    }
}

#[test]
fn rambus_transfer_time_is_monotone_and_superlinear_free() {
    let mut rng = StdRng::seed_from_u64(0x11a8);
    let r = DramModel::rambus();
    for _ in 0..256 {
        let a = rng.gen_range(0..1_000_000u64);
        let b = rng.gen_range(0..1_000_000u64);
        if a <= b {
            assert!(r.transfer_time(a) <= r.transfer_time(b));
        }
        // One combined transfer never costs more than two separate ones
        // (the latency is paid once) — the Table 1 economics.
        if a > 0 && b > 0 {
            assert!(r.transfer_time(a + b) <= r.transfer_time(a) + r.transfer_time(b));
        }
    }
}

// ---------- Victim cache, standby list, classifier ----------

use rampage::cache::Eviction;
use rampage::cache::{MissClassifier, VictimCache};
use rampage::vm::StandbyList;
use rampage_trace::{TraceRecord, VecSource};

#[test]
fn victim_cache_never_exceeds_capacity_and_take_removes() {
    let mut rng = StdRng::seed_from_u64(0x11a9);
    for _ in 0..64 {
        let cap = rng.gen_range(1..16usize);
        let mut vc = VictimCache::new(cap, 32);
        let nops = rng.gen_range(1..200usize);
        for _ in 0..nops {
            let addr = PhysAddr(rng.gen_range(0..64u64) * 32);
            if rng.gen::<bool>() {
                if let Some(e) = vc.take(addr) {
                    assert_eq!(e.addr, addr);
                    assert!(vc.take(addr).is_none(), "take removes");
                }
            } else {
                vc.insert(Eviction {
                    addr,
                    dirty: rng.gen::<bool>(),
                });
            }
            assert!(vc.len() <= cap);
        }
    }
}

#[test]
fn standby_list_is_fifo_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0x11aa);
    for _ in 0..64 {
        let cap = rng.gen_range(1..16usize);
        let mut sb = StandbyList::new(cap);
        let mut order: Vec<u64> = Vec::new();
        let nvpns = rng.gen_range(1..100usize);
        for i in 0..nvpns {
            let vpn = rng.gen_range(0..1000u64);
            if order.contains(&vpn) {
                continue; // the simulator never double-lists a page
            }
            let out = sb.push(rampage::vm::StandbyEntry {
                asid: Asid(1),
                vpn: rampage::vm::Vpn(vpn),
                frame: rampage::vm::FrameId(i as u32),
                dirty: false,
            });
            order.push(vpn);
            if let Some(discarded) = out {
                assert_eq!(discarded.vpn.0, order.remove(0), "FIFO discard");
            }
            assert!(sb.len() <= cap);
        }
        // Everything still listed is reclaimable exactly once.
        for vpn in order {
            assert!(sb.reclaim(Asid(1), rampage::vm::Vpn(vpn)).is_some());
            assert!(sb.reclaim(Asid(1), rampage::vm::Vpn(vpn)).is_none());
        }
    }
}

// ---------- Whole-engine invariants: time identity and histograms ----------

use rampage::core::{
    DramKind, Engine, HierarchyKind, IssueRate, L1Config, SystemConfig, TlbConfig,
};
use rampage_trace::TraceSource;

/// A random valid system: preset × unit size × issue rate × DRAM model,
/// with each ablation knob (2-way L1, victim buffer, finite write
/// buffer, standby list, prefetch, 1 K-entry TLB, banked DRAM) on now
/// and then. Combinations the validator rejects are resampled.
fn random_config(rng: &mut StdRng) -> SystemConfig {
    loop {
        let rate = pick(rng, &[IssueRate::MHZ200, IssueRate::GHZ1, IssueRate::GHZ4]);
        let size = pick(rng, &[256u64, 512, 1024, 2048, 4096]);
        let mut cfg = match rng.gen_range(0..4u8) {
            0 => SystemConfig::baseline(rate, size),
            1 => SystemConfig::two_way(rate, size),
            2 => SystemConfig::rampage(rate, size),
            _ => SystemConfig::rampage_switching(rate, size),
        };
        cfg.dram = pick(
            rng,
            &[
                DramKind::Rambus,
                DramKind::RambusPipelined,
                DramKind::Sdram,
                DramKind::banked(),
            ],
        );
        let mut knob = || rng.gen_range(0..3u8) == 0;
        if knob() {
            cfg.l1 = L1Config {
                ways: 2,
                ..L1Config::paper_default()
            };
        }
        if knob() {
            cfg.tlb = TlbConfig::large_2way();
        }
        if knob() {
            cfg.l1_victim_blocks = Some(8);
        }
        if knob() {
            cfg.write_buffer_depth = Some(2);
        }
        let (standby, prefetch) = (knob(), knob());
        if let HierarchyKind::Rampage(ref mut r) = cfg.hierarchy {
            r.standby_pages = standby.then_some(16);
            r.prefetch_next = prefetch;
        }
        if cfg.validate().is_ok() {
            return cfg;
        }
    }
}

/// A short synthetic multiprogrammed trace: a few processes, each a mix
/// of fetches, loads, and stores over a handful of pages, with runs of
/// straight-line fetches that repeat a fetch's page and L1 block.
fn random_sources(rng: &mut StdRng) -> Vec<Vec<TraceRecord>> {
    let nprocs = rng.gen_range(1..4usize);
    (0..nprocs)
        .map(|_| {
            let n = rng.gen_range(20..300usize);
            let mut recs = Vec::with_capacity(n + 24);
            while recs.len() < n {
                let addr = rng.gen_range(0..32u64) * 4096 + rng.gen_range(0..1024u64) * 4;
                match rng.gen_range(0..4u8) {
                    0 => recs.push(TraceRecord::fetch(addr)),
                    1 => recs.push(TraceRecord::read(addr)),
                    2 => recs.push(TraceRecord::write(addr)),
                    _ => {
                        let len = rng.gen_range(2..24u64);
                        recs.extend((0..len).map(|i| TraceRecord::fetch(addr + 4 * i)));
                    }
                }
            }
            recs.truncate(n);
            recs
        })
        .collect()
}

fn boxed(recs: &[Vec<TraceRecord>]) -> Vec<Box<dyn TraceSource + Send>> {
    recs.iter()
        .enumerate()
        .map(|(p, r)| {
            Box::new(VecSource::new(format!("p{p}"), r.clone())) as Box<dyn TraceSource + Send>
        })
        .collect()
}

/// For any valid config and trace: every record reaches the engine, the
/// per-level time breakdown sums exactly to the engine's elapsed cycles,
/// and the latency histograms reconcile sample-for-sample with the event
/// counters. Odd iterations draw a tiny quantum, so the round-robin
/// scheduler switches many times mid-trace.
#[test]
fn engine_time_identity_and_histogram_counts_hold() {
    let mut rng = StdRng::seed_from_u64(0x11ad);
    for i in 0..24 {
        let mut cfg = random_config(&mut rng);
        if i % 2 == 1 {
            cfg.quantum = rng.gen_range(1..20u64);
        }
        let recs = random_sources(&mut rng);
        let out = Engine::new(&cfg, boxed(&recs)).run();
        for (p, r) in recs.iter().enumerate() {
            assert_eq!(out.per_process[p].refs, r.len() as u64, "p{p} delivered");
        }
        assert_eq!(
            out.metrics.counts.user_refs,
            recs.iter().map(|r| r.len() as u64).sum::<u64>()
        );
        let cycle = cfg.issue.cycle().0;
        assert_eq!(
            out.metrics.total_cycles(),
            out.elapsed.0 / cycle,
            "time breakdown must sum to elapsed cycles for {}",
            cfg.label()
        );
        let (h, c) = (&out.metrics.hist, &out.metrics.counts);
        // Every user reference looks up the TLB once, and every user or
        // handler reference accesses one L1 once.
        assert_eq!(c.tlb.hits + c.tlb.misses, c.user_refs, "{}", cfg.label());
        assert_eq!(
            c.l1i.accesses() + c.l1d.accesses(),
            c.user_refs + c.tlb_handler_refs + c.fault_handler_refs + c.switch_refs,
            "{}",
            cfg.label()
        );
        assert_eq!(h.tlb.count(), c.tlb.misses, "{}", cfg.label());
        assert_eq!(
            h.fault.count(),
            c.page_faults + c.soft_faults,
            "{}",
            cfg.label()
        );
        assert_eq!(
            h.dram.count(),
            c.page_faults + c.dram_block_fetches + c.dram_writebacks + c.prefetches,
            "{}",
            cfg.label()
        );
        for hist in [&h.tlb, &h.fault, &h.dram] {
            assert_eq!(hist.bucket_sum(), hist.count());
            assert!(hist.mean() <= hist.max() as f64);
        }
    }
}

/// Tracing must be a pure observer under randomized configs too, and
/// the ring's count conservation (kept + dropped is cap-independent)
/// must hold for arbitrary capacities.
#[test]
fn tracing_never_perturbs_randomized_runs() {
    let mut rng = StdRng::seed_from_u64(0x11ae);
    for _ in 0..12 {
        let cfg = random_config(&mut rng);
        let recs = random_sources(&mut rng);
        let plain = Engine::new(&cfg, boxed(&recs)).run();
        let cap = rng.gen_range(1..5000usize);
        let mut traced = Engine::new(&cfg, boxed(&recs));
        traced.enable_trace(cap);
        let traced = traced.run();
        assert_eq!(plain.metrics.time, traced.metrics.time, "{}", cfg.label());
        assert_eq!(
            plain.metrics.counts,
            traced.metrics.counts,
            "{}",
            cfg.label()
        );
        assert_eq!(plain.elapsed, traced.elapsed, "{}", cfg.label());
        assert!(traced.events.len() <= cap, "ring exceeded cap {cap}");
        let mut full = Engine::new(&cfg, boxed(&recs));
        full.enable_trace(1 << 22);
        let full = full.run();
        assert_eq!(
            traced.events.len() as u64 + traced.events_dropped,
            full.events.len() as u64,
            "count conservation at cap {cap} for {}",
            cfg.label()
        );
    }
}

#[test]
fn classifier_agrees_with_plain_cache() {
    let mut rng = StdRng::seed_from_u64(0x11ac);
    for _ in 0..64 {
        let geo = Geometry::new(2048, 32, 1);
        let mut mc = MissClassifier::new(geo, ReplacementPolicy::Lru);
        let mut plain = Cache::new(geo, ReplacementPolicy::Lru);
        let nops = rng.gen_range(1..300usize);
        for _ in 0..nops {
            let a = PhysAddr(rng.gen_range(0..2048u64));
            let w = rng.gen::<bool>();
            let classified_miss = mc.access(a, w).is_some();
            let plain_miss = !plain.access(a, w).hit;
            assert_eq!(classified_miss, plain_miss);
        }
        let p = mc.profile();
        assert_eq!(p.misses(), plain.stats().misses());
        // Compulsory misses are bounded by distinct blocks touched.
        assert!(p.compulsory <= 2048 / 32 * 32, "sanity");
    }
}
