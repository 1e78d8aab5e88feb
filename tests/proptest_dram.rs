//! Randomized invariants over the banked Direct Rambus backend,
//! driven by the in-tree seeded PRNG (see `proptest_invariants.rs` for
//! the convention). Every case is deterministic: fixed seed, many
//! sampled scenarios per run.

use rampage_core::DramChannel;
use rampage_dram::{
    AddressMapping, BankPlacement, BankTiming, BankedChannel, BankedConfig, DramCoord, DramModel,
    Picos, RowOutcome,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// A random valid bitfield geometry (validator-rejected draws resampled).
fn random_mapping(rng: &mut StdRng) -> AddressMapping {
    loop {
        let m = AddressMapping {
            col_bits: rng.gen_range(1..16u32),
            bank_bits: rng.gen_range(0..8u32),
            row_bits: rng.gen_range(0..56u32),
            placement: if rng.gen::<bool>() {
                BankPlacement::LowAboveColumn
            } else {
                BankPlacement::HighAboveRow
            },
        };
        if m.validate().is_ok() {
            return m;
        }
    }
}

/// A random valid bank timing.
fn random_timing(rng: &mut StdRng) -> BankTiming {
    loop {
        let t = BankTiming {
            t_rp: Picos(rng.gen_range(0..60_000u64)),
            t_rcd: Picos(rng.gen_range(0..60_000u64)),
            t_cas: Picos(rng.gen_range(0..60_000u64)),
            per_pair: Picos(rng.gen_range(0..4_000u64)),
        };
        if t.validate().is_ok() {
            return t;
        }
    }
}

/// A random valid banked configuration across both policies and modes.
fn random_banked(rng: &mut StdRng) -> BankedConfig {
    BankedConfig {
        mapping: random_mapping(rng),
        timing: random_timing(rng),
        open_rows: rng.gen::<bool>(),
        pipelined: rng.gen::<bool>(),
    }
}

// ---------- Address mapping ----------

/// `decompose ∘ compose` is the identity on in-range coordinates, for
/// any valid geometry and either bank placement.
#[test]
fn mapping_round_trips_random_coordinates() {
    let mut rng = StdRng::seed_from_u64(0xd4a1);
    for _ in 0..512 {
        let m = random_mapping(&mut rng);
        let mask = |bits: u32| -> u64 {
            if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            }
        };
        let coord = DramCoord {
            row: rng.gen::<u64>() & mask(m.row_bits),
            bank: rng.gen::<u64>() & mask(m.bank_bits),
            col: rng.gen::<u64>() & mask(m.col_bits),
        };
        assert_eq!(m.decompose(m.compose(coord)), coord, "{m:?}");
        // And the other direction on full-width geometries: any address
        // below 2^width survives compose ∘ decompose.
        let addr = rng.gen::<u64>() & mask(m.width());
        assert_eq!(m.compose(m.decompose(addr)), addr, "{m:?} addr {addr:#x}");
        // Fields are always in range, whatever the input address.
        let c = m.decompose(rng.gen::<u64>());
        assert!(c.col <= mask(m.col_bits) && c.bank <= mask(m.bank_bits));
        assert!(c.row <= mask(m.row_bits));
    }
}

// ---------- Bank timing ----------

/// The row-outcome cost hierarchy holds for every valid timing: an open
/// row is never dearer than an idle bank, which is never dearer than
/// evicting another row first.
#[test]
fn row_outcome_costs_are_ordered() {
    let mut rng = StdRng::seed_from_u64(0xd4a2);
    for _ in 0..512 {
        let t = random_timing(&mut rng);
        let hit = t.overhead(RowOutcome::Hit);
        let miss = t.overhead(RowOutcome::Miss);
        let conflict = t.overhead(RowOutcome::Conflict);
        assert!(hit <= miss, "{t:?}");
        assert!(miss <= conflict, "{t:?}");
        // Data time is monotone and proper: a pair is never free.
        let a = rng.gen_range(1..100_000u64);
        let b = rng.gen_range(1..100_000u64);
        if a <= b {
            assert!(t.data_time(a) <= t.data_time(b));
        }
        assert!(t.data_time(a) >= t.per_pair);
        assert_eq!(t.data_time(0), Picos::ZERO);
    }
}

// ---------- Banked channel ----------

/// No transfer time-travels: for any valid config and any request
/// sequence with non-decreasing issue times, `now ≤ start ≤ done` and
/// the bus high-water mark never recedes.
#[test]
fn banked_transfers_never_time_travel() {
    let mut rng = StdRng::seed_from_u64(0xd4a3);
    for _ in 0..64 {
        let cfg = random_banked(&mut rng);
        let mut ch = BankedChannel::new(cfg);
        let mut now = Picos::ZERO;
        let mut bus_seen = Picos::ZERO;
        let mut nonzero = 0u64;
        let nops = rng.gen_range(1..80usize);
        for _ in 0..nops {
            now += Picos(rng.gen_range(0..200_000u64));
            let bytes = pick(&mut rng, &[0u64, 1, 2, 128, 2048, 4096, 10_000]);
            let addr = rng.gen::<u64>();
            let t = ch.request(now, addr, bytes);
            assert!(t.start >= now, "{cfg:?}: start {} < now {now}", t.start);
            assert!(t.done >= t.start, "{cfg:?}: done precedes start");
            if bytes > 0 {
                assert!(t.done > t.start, "{cfg:?}: nonzero burst took no time");
            }
            assert!(ch.bus_free() >= bus_seen, "{cfg:?}: bus receded");
            bus_seen = ch.bus_free();
            nonzero += u64::from(bytes > 0);
        }
        // Every non-empty transfer touches at least one row; empty ones
        // touch none.
        let rows = ch.row_stats();
        let outcomes = rows.hits + rows.misses + rows.conflicts;
        assert!(
            outcomes >= nonzero,
            "{cfg:?}: fewer row outcomes ({outcomes}) than non-empty transfers ({nonzero})"
        );
    }
}

/// Adding bytes to a request never makes it finish earlier, whatever
/// the bank state it lands on (monotonicity in transfer size).
#[test]
fn banked_timing_is_monotone_in_bytes() {
    let mut rng = StdRng::seed_from_u64(0xd4a4);
    for _ in 0..64 {
        let cfg = random_banked(&mut rng);
        let mut ch = BankedChannel::new(cfg);
        // Random warmup to land in an arbitrary bank/bus state.
        let mut now = Picos::ZERO;
        for _ in 0..rng.gen_range(0..20usize) {
            now += Picos(rng.gen_range(0..100_000u64));
            ch.request(now, rng.gen::<u64>(), pick(&mut rng, &[128u64, 2048, 4096]));
        }
        let addr = rng.gen::<u64>();
        let a = rng.gen_range(0..20_000u64);
        let b = rng.gen_range(0..20_000u64);
        let (small, large) = (a.min(b), a.max(b));
        let t_small = ch.clone().request(now, addr, small);
        let t_large = ch.clone().request(now, addr, large);
        assert!(
            t_small.done <= t_large.done,
            "{cfg:?}: {small} B finished after {large} B ({} vs {})",
            t_small.done,
            t_large.done
        );
    }
}

/// The degenerate banked configuration tracks the flat channel
/// transfer-for-transfer on arbitrary request sequences — the
/// conformance theorem at the channel level, beyond the preset grids.
#[test]
fn degenerate_banked_matches_flat_on_random_sequences() {
    let mut rng = StdRng::seed_from_u64(0xd4a5);
    for _ in 0..64 {
        let mut flat = DramChannel::new(DramModel::rambus());
        let mut banked = BankedChannel::new(BankedConfig::flat_equivalent());
        let mut now = Picos::ZERO;
        let nops = rng.gen_range(1..200usize);
        for _ in 0..nops {
            now += Picos(rng.gen_range(0..3_000_000u64));
            let bytes = pick(&mut rng, &[0u64, 1, 2, 127, 128, 1024, 4096, 9999]);
            let addr = rng.gen::<u64>();
            let f = flat.request(now, bytes);
            let b = banked.request(now, addr, bytes);
            assert_eq!(f.start, b.start, "start diverged at {bytes} B");
            assert_eq!(f.done, b.done, "done diverged at {bytes} B");
        }
    }
}

/// With open rows on, re-reading the same address is never slower than
/// it was starting cold, and an idle single request is never *faster*
/// than the closed-page cost floor of the same geometry.
#[test]
fn open_rows_never_hurt_repeated_access() {
    let mut rng = StdRng::seed_from_u64(0xd4a6);
    for _ in 0..128 {
        let mut cfg = random_banked(&mut rng);
        cfg.open_rows = true;
        cfg.pipelined = false;
        // Keep the burst inside one row so the repeat is a pure hit.
        let bytes = rng.gen_range(1..cfg.mapping.row_bytes().min(4096) + 1);
        let addr = rng.gen::<u64>() & !(cfg.mapping.row_bytes() - 1);
        let mut ch = BankedChannel::new(cfg);
        let t1 = ch.request(Picos::ZERO, addr, bytes);
        let gap = t1.done + Picos(rng.gen_range(0..100_000u64));
        let t2 = ch.request(gap, addr, bytes);
        let d1 = t1.done - t1.start;
        let d2 = t2.done - t2.start;
        assert!(
            d2 <= d1,
            "{cfg:?}: row-buffer hit slower than cold access ({d2} > {d1})"
        );
        let rows = ch.row_stats();
        assert!(rows.hits >= 1, "{cfg:?}: repeat did not hit: {rows:?}");
    }
}
