//! Data-reference generators.

use crate::record::{AccessKind, TraceRecord, VirtAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator of data reference addresses.
///
/// Each call yields the next address; the caller (the
/// [mixer](crate::synth::BenchmarkSynth)) decides whether the reference is a
/// load or a store.
pub trait DataGen {
    /// Next data address.
    fn next_addr(&mut self) -> VirtAddr;

    /// Produce a full record with the given kind.
    fn next_data(&mut self, kind: AccessKind) -> TraceRecord {
        debug_assert!(kind.is_data());
        TraceRecord {
            addr: self.next_addr(),
            kind,
        }
    }
}

/// Unit-or-strided streaming over an array region, wrapping at the end.
///
/// This is the dominant access pattern of the paper's SPECfp92 codes
/// (`swm256`, `su2cor`, `nasa7`, …): long sequential runs with near-perfect
/// spatial locality, which is what makes large blocks and pages profitable.
#[derive(Debug, Clone)]
pub struct SequentialSweep {
    base: u64,
    len: u64,
    stride: u64,
    pos: u64,
}

impl SequentialSweep {
    /// Stream over `[base, base+len)` advancing `stride` bytes per
    /// reference (unit stride for byte/word streaming, larger strides for
    /// column-major or struct-field sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `len` or `stride` is zero or `stride > len`.
    pub fn new(base: u64, len: u64, stride: u64) -> Self {
        assert!(len > 0 && stride > 0, "empty sweep");
        assert!(stride <= len, "stride larger than region");
        SequentialSweep {
            base,
            len,
            stride,
            pos: 0,
        }
    }
}

impl DataGen for SequentialSweep {
    fn next_addr(&mut self) -> VirtAddr {
        let a = self.base + self.pos;
        self.pos += self.stride;
        if self.pos >= self.len {
            self.pos = 0;
        }
        VirtAddr(a)
    }
}

/// A dependent pointer chase over a shuffled pool of fixed-size nodes.
///
/// Visits nodes in a fixed random permutation (a single cycle), modelling
/// linked-list / tree traversals with essentially no spatial locality —
/// the pattern that makes large transfer units waste bandwidth.
#[derive(Debug, Clone)]
pub struct PointerChase {
    base: u64,
    node_size: u64,
    /// next[i] = index of the node after node i (one big cycle).
    next: Vec<u32>,
    cur: u32,
}

impl PointerChase {
    /// Build a chase over `nodes` nodes of `node_size` bytes starting at
    /// `base`, shuffled with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or does not fit in `u32`.
    pub fn new(base: u64, nodes: usize, node_size: u64, seed: u64) -> Self {
        assert!(nodes > 0, "empty node pool");
        assert!(u32::try_from(nodes).is_ok(), "node pool too large");
        let mut rng = StdRng::seed_from_u64(seed);
        // Sattolo's algorithm: a uniformly random single n-cycle, so the
        // chase visits every node before repeating.
        let mut next: Vec<u32> = (0..nodes as u32).collect();
        for i in (1..nodes).rev() {
            let j = rng.gen_range(0..i);
            next.swap(i, j);
        }
        PointerChase {
            base,
            node_size: node_size.max(1),
            next,
            cur: 0,
        }
    }

    /// Number of nodes in the pool.
    pub fn nodes(&self) -> usize {
        self.next.len()
    }
}

impl DataGen for PointerChase {
    fn next_addr(&mut self) -> VirtAddr {
        let a = self.base + self.cur as u64 * self.node_size;
        self.cur = self.next[self.cur as usize];
        VirtAddr(a)
    }
}

/// A hot set with occasional cold excursions.
///
/// With probability `p_hot` the next reference lands uniformly in a small
/// hot region (cache-resident reuse); otherwise it continues a *cold run*:
/// a sequential walk through the cold region that starts at a uniformly
/// random point and advances `align` bytes per cold reference for a
/// geometrically distributed number of references (mean `mean_run`).
///
/// `p_hot` is the temporal-locality knob (steady-state miss rate out of
/// any level between the two region sizes); `mean_run` is the *spatial*
/// locality knob — real programs process records and rows sequentially,
/// so cold data arrives in runs, which is precisely what makes large
/// transfer units (the paper's L2 blocks and SRAM pages) pay off.
#[derive(Debug, Clone)]
pub struct HotCold {
    hot_base: u64,
    hot_size: u64,
    cold_base: u64,
    cold_size: u64,
    p_hot: f64,
    align: u64,
    mean_run: u32,
    run_left: u32,
    run_pos: u64,
    rng: StdRng,
}

impl HotCold {
    /// Default mean cold-run length in references (× `align` bytes of
    /// sequential window per excursion).
    pub const DEFAULT_MEAN_RUN: u32 = 48;

    /// Create a hot/cold generator; addresses are aligned to `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if either region is empty or `p_hot` is outside `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        hot_base: u64,
        hot_size: u64,
        cold_base: u64,
        cold_size: u64,
        p_hot: f64,
        align: u64,
        seed: u64,
    ) -> Self {
        Self::with_run(
            hot_base,
            hot_size,
            cold_base,
            cold_size,
            p_hot,
            align,
            Self::DEFAULT_MEAN_RUN,
            seed,
        )
    }

    /// As [`new`](Self::new) with an explicit mean cold-run length
    /// (`mean_run == 1` reproduces fully random cold touches).
    ///
    /// # Panics
    ///
    /// Panics if either region is empty, `p_hot` is outside `[0, 1]`, or
    /// `mean_run` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn with_run(
        hot_base: u64,
        hot_size: u64,
        cold_base: u64,
        cold_size: u64,
        p_hot: f64,
        align: u64,
        mean_run: u32,
        seed: u64,
    ) -> Self {
        assert!(hot_size > 0 && cold_size > 0, "empty region");
        assert!((0.0..=1.0).contains(&p_hot), "p_hot out of range");
        assert!(mean_run > 0, "runs must have positive length");
        HotCold {
            hot_base,
            hot_size,
            cold_base,
            cold_size,
            p_hot,
            align: align.max(1),
            mean_run,
            run_left: 0,
            run_pos: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DataGen for HotCold {
    fn next_addr(&mut self) -> VirtAddr {
        if self.rng.gen::<f64>() < self.p_hot {
            let off = self.rng.gen_range(0..self.hot_size);
            return VirtAddr(self.hot_base + off).align_down(self.align);
        }
        // Cold excursion: continue the current run or start a new one.
        if self.run_left == 0 {
            self.run_pos = self.rng.gen_range(0..self.cold_size);
            // Geometric run length with the configured mean.
            let p = 1.0 / self.mean_run as f64;
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            self.run_left = ((u.ln() / (1.0 - p).ln()).ceil() as u32).max(1);
        }
        let a = VirtAddr(self.cold_base + self.run_pos).align_down(self.align);
        self.run_left -= 1;
        self.run_pos = (self.run_pos + self.align) % self.cold_size;
        a
    }
}

/// Call-stack traffic: references random-walk near the top of a
/// downward-growing stack.
///
/// Models save/restore and local-variable traffic of branchy integer codes:
/// intense reuse of a few hundred bytes, drifting slowly as frames push and
/// pop.
#[derive(Debug, Clone)]
pub struct StackSim {
    top: u64,
    max_depth: u64,
    depth: u64,
    rng: StdRng,
}

impl StackSim {
    /// Create a stack generator below `top` with maximum depth `max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth` is zero or exceeds `top`.
    pub fn new(top: u64, max_depth: u64, seed: u64) -> Self {
        assert!(max_depth > 0, "stack needs depth");
        assert!(max_depth <= top, "stack would underflow address zero");
        StackSim {
            top,
            max_depth,
            depth: 64,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DataGen for StackSim {
    fn next_addr(&mut self) -> VirtAddr {
        // Drift the frame depth: push (grow) or pop (shrink) a frame
        // occasionally, reference within the current frame otherwise.
        match self.rng.gen_range(0..8u32) {
            0 => {
                let frame = 16 * self.rng.gen_range(1..8u64);
                self.depth = (self.depth + frame).min(self.max_depth);
            }
            1 => {
                let frame = 16 * self.rng.gen_range(1..8u64);
                self.depth = self.depth.saturating_sub(frame).max(16);
            }
            _ => {}
        }
        let within = self.rng.gen_range(0..self.depth.min(256));
        VirtAddr(self.top - self.depth + within).align_down(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sweep_walks_sequentially_and_wraps() {
        let mut s = SequentialSweep::new(0x1000, 256, 8);
        let first = s.next_addr();
        assert_eq!(first.0, 0x1000);
        let mut last = first.0;
        for _ in 0..(256 / 8 - 1) {
            let a = s.next_addr().0;
            assert_eq!(a, last + 8, "unit-stride advance");
            last = a;
        }
        assert_eq!(s.next_addr().0, 0x1000, "wraps to base");
    }

    #[test]
    fn sweep_covers_whole_region() {
        let mut s = SequentialSweep::new(0, 1024, 32);
        let mut seen = HashSet::new();
        for _ in 0..(1024 / 32) {
            seen.insert(s.next_addr().0 / 32);
        }
        assert_eq!(seen.len(), 32, "touches every stride slot");
    }

    #[test]
    fn chase_visits_every_node_once_per_cycle() {
        let mut c = PointerChase::new(0x2000, 100, 64, 5);
        let mut seen = HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(c.next_addr().0), "no repeats within a cycle");
        }
        assert_eq!(seen.len(), 100);
        // Second cycle repeats the same set.
        for _ in 0..100 {
            assert!(seen.contains(&c.next_addr().0));
        }
    }

    #[test]
    fn chase_nodes_are_node_size_apart() {
        let mut c = PointerChase::new(0, 16, 128, 9);
        for _ in 0..32 {
            assert_eq!(c.next_addr().0 % 128, 0);
        }
    }

    #[test]
    fn hot_cold_respects_probability_roughly() {
        let mut g = HotCold::new(0x0, 4096, 0x10_0000, 1 << 20, 0.9, 4, 13);
        let mut hot = 0;
        const N: usize = 20_000;
        for _ in 0..N {
            if g.next_addr().0 < 4096 {
                hot += 1;
            }
        }
        let frac = hot as f64 / N as f64;
        assert!((0.88..0.92).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn hot_cold_addresses_stay_in_regions() {
        let mut g = HotCold::new(0x1000, 512, 0x8000, 512, 0.5, 8, 21);
        for _ in 0..1000 {
            let a = g.next_addr().0;
            assert!(
                (0x1000..0x1200).contains(&a) || (0x8000..0x8200).contains(&a),
                "address {a:#x} escaped both regions"
            );
            assert_eq!(a % 8, 0, "alignment respected");
        }
    }

    #[test]
    fn cold_excursions_form_sequential_runs() {
        // p_hot = 0: every ref is cold. Consecutive refs should mostly
        // advance by `align` (runs), with occasional jumps (new runs).
        let mut g = HotCold::with_run(0, 8, 0x10_0000, 1 << 20, 0.0, 8, 32, 5);
        let mut sequential = 0;
        let mut prev = g.next_addr().0;
        const N: usize = 10_000;
        for _ in 0..N {
            let a = g.next_addr().0;
            if a == prev + 8 {
                sequential += 1;
            }
            prev = a;
        }
        let frac = sequential as f64 / N as f64;
        assert!(
            frac > 0.9,
            "mean-32 runs should make >90% of steps sequential, got {frac}"
        );
    }

    #[test]
    fn mean_run_one_is_effectively_random() {
        let mut g = HotCold::with_run(0, 8, 0x10_0000, 1 << 20, 0.0, 8, 1, 5);
        let mut sequential = 0;
        let mut prev = g.next_addr().0;
        for _ in 0..5000 {
            let a = g.next_addr().0;
            if a == prev + 8 {
                sequential += 1;
            }
            prev = a;
        }
        assert!(sequential < 200, "short runs ≈ random: {sequential}");
    }

    #[test]
    fn stack_stays_below_top_within_depth() {
        let mut s = StackSim::new(0x7fff_f000, 64 * 1024, 17);
        for _ in 0..50_000 {
            let a = s.next_addr().0;
            assert!(a < 0x7fff_f000);
            assert!(a >= 0x7fff_f000 - 64 * 1024);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = HotCold::new(0, 4096, 0x10000, 4096, 0.5, 4, 99);
        let mut b = HotCold::new(0, 4096, 0x10000, 4096, 0.5, 4, 99);
        for _ in 0..1000 {
            assert_eq!(a.next_addr(), b.next_addr());
        }
    }
}
