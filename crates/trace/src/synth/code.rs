//! Instruction-fetch generation.

use crate::record::{TraceRecord, VirtAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates instruction fetch addresses over a looping code working set.
///
/// The model is a program whose text segment is `code_size` bytes of 4-byte
/// instructions. The program counter walks forward sequentially; at the end
/// of each basic block (geometric length, mean `mean_block_len`) it either
///
/// * loops back a short distance (probability `p_loop` — inner loops, the
///   dominant behaviour in the paper's FP codes),
/// * calls a random function in the working set (probability `p_call` —
///   branchy integer codes), or
/// * falls through to the next block.
///
/// The result is an instruction stream whose L1-instruction-cache behaviour
/// is governed by `code_size` relative to the 16 KB L1i of the paper's
/// configuration, with realistic run lengths for spatial locality.
#[derive(Debug, Clone)]
pub struct CodeGen {
    base: u64,
    code_size: u64,
    /// `ln(1 - 1/mean_block_len)`, the log of the chance a basic block
    /// goes on past any instruction.
    ln_go_on: f64,
    p_loop: f64,
    p_call: f64,
    pc: u64,
    /// Remaining instructions in the current basic block.
    block_left: u32,
    /// Loop context: when looping we return to `loop_start` a few times.
    loop_start: u64,
    loop_trips_left: u32,
    rng: StdRng,
}

impl CodeGen {
    /// Create a code generator.
    ///
    /// # Panics
    ///
    /// Panics if `code_size` is zero or `mean_block_len` is zero, or if the
    /// probabilities are outside `[0, 1]` or sum above 1.
    pub fn new(
        base: u64,
        code_size: u64,
        mean_block_len: u32,
        p_loop: f64,
        p_call: f64,
        seed: u64,
    ) -> Self {
        assert!(code_size >= 4, "code working set must hold an instruction");
        assert!(mean_block_len > 0, "basic blocks must be non-empty");
        assert!((0.0..=1.0).contains(&p_loop) && (0.0..=1.0).contains(&p_call));
        assert!(p_loop + p_call <= 1.0, "branch probabilities exceed 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let ln_go_on = (1.0 - 1.0 / mean_block_len as f64).ln();
        let block_left = Self::block_len(ln_go_on, &mut rng);
        CodeGen {
            base,
            code_size,
            ln_go_on,
            p_loop,
            p_call,
            pc: base,
            block_left,
            loop_start: base,
            loop_trips_left: 0,
            rng,
        }
    }

    /// Size of the code working set in bytes.
    pub fn code_size(&self) -> u64 {
        self.code_size
    }

    /// A geometric length with the mean whose `ln_go_on` is given,
    /// clamped to at least 1.
    fn block_len(ln_go_on: f64, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let len = (u.ln() / ln_go_on).ceil() as u32;
        len.max(1)
    }

    fn wrap(&self, pc: u64) -> u64 {
        let d = pc - self.base;
        // Every fetch lands less than one working set past the end,
        // where one subtraction is the remainder.
        let off = match d.checked_sub(self.code_size) {
            None => d,
            Some(r) if r < self.code_size => r,
            Some(_) => d % self.code_size,
        };
        self.base + (off & !3)
    }

    /// Produce the next instruction fetch.
    pub fn next_fetch(&mut self) -> TraceRecord {
        let rec = TraceRecord {
            addr: VirtAddr(self.pc),
            kind: crate::AccessKind::InstrFetch,
        };
        // Advance.
        if self.block_left > 1 {
            self.block_left -= 1;
            self.pc = self.wrap(self.pc + 4);
        } else {
            // End of basic block: decide the control transfer.
            if self.loop_trips_left > 0 {
                self.loop_trips_left -= 1;
                self.pc = self.loop_start;
            } else {
                let r: f64 = self.rng.gen();
                if r < self.p_loop {
                    // Begin a loop: jump back a short distance and iterate.
                    let body = 4 * self.rng.gen_range(4..64u64);
                    let start = self.pc.saturating_sub(body).max(self.base);
                    self.loop_start = self.wrap(start);
                    self.loop_trips_left = self.rng.gen_range(4..128);
                    self.pc = self.loop_start;
                } else if r < self.p_loop + self.p_call {
                    // Call a random function somewhere in the working set.
                    let target = self.base + 4 * self.rng.gen_range(0..self.code_size / 4);
                    self.pc = self.wrap(target);
                } else {
                    self.pc = self.wrap(self.pc + 4);
                }
            }
            self.block_left = Self::block_len(self.ln_go_on, &mut self.rng);
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;
    use std::collections::HashSet;

    #[test]
    fn fetches_stay_in_working_set_and_aligned() {
        let mut g = CodeGen::new(0x40_0000, 64 * 1024, 6, 0.4, 0.1, 7);
        for _ in 0..100_000 {
            let r = g.next_fetch();
            assert_eq!(r.kind, AccessKind::InstrFetch);
            assert!(r.addr.0 >= 0x40_0000);
            assert!(r.addr.0 < 0x40_0000 + 64 * 1024);
            assert_eq!(r.addr.0 % 4, 0, "instructions are word aligned");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = CodeGen::new(0x40_0000, 32 * 1024, 6, 0.4, 0.1, 11);
        let mut b = CodeGen::new(0x40_0000, 32 * 1024, 6, 0.4, 0.1, 11);
        for _ in 0..10_000 {
            assert_eq!(a.next_fetch(), b.next_fetch());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = CodeGen::new(0x40_0000, 32 * 1024, 6, 0.4, 0.1, 1);
        let mut b = CodeGen::new(0x40_0000, 32 * 1024, 6, 0.4, 0.1, 2);
        let mut same = 0;
        for _ in 0..1000 {
            if a.next_fetch() == b.next_fetch() {
                same += 1;
            }
        }
        assert!(same < 1000, "streams should diverge");
    }

    #[test]
    fn loops_create_temporal_locality() {
        // With a strong loop probability, the footprint visited in a window
        // should be much smaller than pure sequential walking.
        let mut g = CodeGen::new(0x40_0000, 1 << 20, 6, 0.8, 0.0, 3);
        let mut pages = HashSet::new();
        for _ in 0..50_000 {
            pages.insert(g.next_fetch().addr.page_number(4096));
        }
        // Sequential walking would touch ~48 pages; loops revisit.
        assert!(
            pages.len() < 40,
            "expected loopy reuse, footprint {} pages",
            pages.len()
        );
    }

    #[test]
    #[should_panic(expected = "branch probabilities")]
    fn rejects_bad_probabilities() {
        let _ = CodeGen::new(0, 1024, 6, 0.9, 0.2, 0);
    }
}
