//! The paper's benchmark suite (Table 2), rebuilt synthetically.
//!
//! Table 2 of the paper lists 18 traces (SPEC92 programs and Unix
//! utilities) with their instruction-fetch and total reference counts —
//! 1.1 billion references in all. The traces themselves are gone; each
//! [`Profile`] here carries the Table 2 numbers verbatim plus a workload
//! class whose generator parameters reproduce the program's locality
//! structure (see `DESIGN.md` §4 for the substitution argument).
//!
//! [`standard_suite`] builds all 18 at a chosen scale; the experiments in
//! `rampage-core` interleave them with a 500 000-reference quantum exactly
//! as §4.2 of the paper describes.

use crate::stream::BoundedSource;
use crate::synth::{
    layout, BenchmarkSynth, CodeGen, HotCold, MixSpec, PointerChase, SequentialSweep, StackSim,
    WeightedData,
};

/// Broad locality classes covering the Table 2 programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// SPECfp92 streaming codes (`swm256`, `su2cor`, `nasa7`, …): long
    /// unit-stride sweeps over large arrays, small loopy code.
    FpStream {
        /// Total array footprint in KiB.
        array_kb: u64,
        /// Sweep stride in bytes (8 = double-precision unit stride).
        stride: u64,
    },
    /// SPECfp92 stencil/relaxation codes (`hydro2d`, `ear`, `alvinn`):
    /// sweeps plus a hot coefficient region.
    FpLoop {
        /// Swept array footprint in KiB.
        array_kb: u64,
        /// Hot (reused) region in KiB.
        hot_kb: u64,
    },
    /// Branchy integer utilities (`awk`, `sed`, `yacc`, `tex`, `gcc`,
    /// `cexp`): hot/cold data, stack traffic, pointer-linked structures,
    /// larger code working sets.
    IntBranchy {
        /// Hot data region in KiB.
        hot_kb: u64,
        /// Cold data region in KiB.
        cold_kb: u64,
        /// Nodes in the pointer-chased pool (64-byte nodes).
        chase_nodes: usize,
    },
    /// `compress`/`uncompress`: sequential input/output streaming plus
    /// random hash-table probes.
    Stream {
        /// Streamed buffer in KiB.
        buffer_kb: u64,
        /// Hash-table region in KiB (randomly probed).
        table_kb: u64,
    },
    /// `ora`-style ray tracing / `wave5` particle codes: pointer-heavy
    /// traversal over a large pool with a modest hot set.
    PointerHeavy {
        /// Node-pool footprint in KiB (64-byte nodes).
        pool_kb: u64,
        /// Hot region in KiB.
        hot_kb: u64,
    },
}

/// One benchmark of the paper's Table 2.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Program name as printed in Table 2 (`gcc` restored for the OCR'd "SC").
    pub name: &'static str,
    /// Table 2 description.
    pub description: &'static str,
    /// Millions of instruction fetches (Table 2).
    pub instr_millions: f64,
    /// Millions of total references (Table 2).
    pub refs_millions: f64,
    /// Code working set in KiB (chosen per class; not in Table 2).
    pub code_kb: u64,
    /// Fraction of data references that are writes.
    pub write_frac: f64,
    /// Locality class and its parameters.
    pub class: WorkloadClass,
}

impl Profile {
    /// Instruction-fetch fraction implied by Table 2.
    pub fn ifetch_frac(&self) -> f64 {
        self.instr_millions / self.refs_millions
    }

    /// Total references this profile contributes at `1/scale` of the
    /// paper's volume (scale = 1 reproduces Table 2 exactly).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn scaled_refs(&self, scale: u64) -> u64 {
        assert!(scale > 0, "scale divides the trace volume");
        ((self.refs_millions * 1e6) as u64 / scale).max(1)
    }

    /// Build the synthetic trace source for this profile.
    ///
    /// `scale` divides the Table 2 reference count (e.g. 100 → 1/100 of
    /// the paper's volume); `seed` perturbs all generator seeds so suites
    /// can be re-rolled while staying deterministic.
    pub fn source(&self, scale: u64, seed: u64) -> BoundedSource<BenchmarkSynth> {
        let s = seed ^ fxhash(self.name);
        let code = CodeGen::new(
            layout::CODE_BASE,
            self.code_kb * 1024,
            6,
            self.p_loop(),
            self.p_call(),
            s,
        );
        let data = self.data_generators(s);
        let bench = BenchmarkSynth::new(
            self.name,
            MixSpec::new(self.ifetch_frac(), self.write_frac),
            code,
            data,
            s.wrapping_mul(0x9e37_79b9),
        );
        BoundedSource::new(bench, self.scaled_refs(scale))
    }

    fn p_loop(&self) -> f64 {
        match self.class {
            WorkloadClass::FpStream { .. } | WorkloadClass::FpLoop { .. } => 0.65,
            WorkloadClass::Stream { .. } => 0.55,
            WorkloadClass::PointerHeavy { .. } => 0.45,
            WorkloadClass::IntBranchy { .. } => 0.30,
        }
    }

    fn p_call(&self) -> f64 {
        match self.class {
            WorkloadClass::FpStream { .. } | WorkloadClass::FpLoop { .. } => 0.02,
            WorkloadClass::Stream { .. } => 0.05,
            WorkloadClass::PointerHeavy { .. } => 0.10,
            WorkloadClass::IntBranchy { .. } => 0.15,
        }
    }

    /// Bytes of the always-hot (L1-resident) data tier. Real programs
    /// concentrate most data references on a few KB of locals, globals
    /// and top-of-structure fields; without this tier the synthetic L1
    /// miss ratios come out an order of magnitude above SPEC92's.
    const L1_HOT_BYTES: u64 = 8 * 1024;

    fn data_generators(&self, seed: u64) -> Vec<WeightedData> {
        // Common tier: a small hot set with occasional excursions into a
        // `warm_kb`-sized (typically L2-resident) region.
        let hot = |warm_kb: u64, p_hot: f64, seed: u64| {
            HotCold::new(
                layout::GLOBAL_BASE,
                Self::L1_HOT_BYTES,
                layout::GLOBAL_BASE + (1 << 24),
                warm_kb * 1024,
                p_hot,
                8,
                seed,
            )
        };
        match self.class {
            WorkloadClass::FpStream { array_kb, stride } => vec![
                WeightedData::new(
                    SequentialSweep::new(layout::HEAP_BASE, array_kb * 1024, stride),
                    2.5,
                ),
                WeightedData::new(hot(128, 0.95, seed ^ 1), 6.5),
                WeightedData::new(StackSim::new(layout::STACK_TOP, 16 * 1024, seed ^ 2), 1.0),
            ],
            WorkloadClass::FpLoop { array_kb, hot_kb } => vec![
                WeightedData::new(
                    SequentialSweep::new(layout::HEAP_BASE, array_kb * 1024, 8),
                    2.0,
                ),
                WeightedData::new(hot(hot_kb, 0.93, seed ^ 3), 7.0),
                WeightedData::new(StackSim::new(layout::STACK_TOP, 32 * 1024, seed ^ 4), 1.0),
            ],
            WorkloadClass::IntBranchy {
                hot_kb: _,
                cold_kb,
                chase_nodes,
            } => vec![
                WeightedData::new(hot(cold_kb, 0.95, seed ^ 5), 5.0),
                WeightedData::new(
                    PointerChase::new(layout::HEAP_BASE, chase_nodes, 64, seed ^ 6),
                    1.0,
                ),
                WeightedData::new(StackSim::new(layout::STACK_TOP, 64 * 1024, seed ^ 7), 3.0),
            ],
            WorkloadClass::Stream {
                buffer_kb,
                table_kb,
            } => vec![
                WeightedData::new(
                    SequentialSweep::new(layout::HEAP_BASE, buffer_kb * 1024, 1),
                    3.0,
                ),
                WeightedData::new(hot(table_kb, 0.90, seed ^ 8), 3.0),
            ],
            WorkloadClass::PointerHeavy { pool_kb, hot_kb } => vec![
                WeightedData::new(
                    PointerChase::new(
                        layout::HEAP_BASE,
                        (pool_kb * 1024 / 64) as usize,
                        64,
                        seed ^ 9,
                    ),
                    1.5,
                ),
                WeightedData::new(hot(8 * hot_kb, 0.93, seed ^ 10), 5.5),
                WeightedData::new(StackSim::new(layout::STACK_TOP, 32 * 1024, seed ^ 11), 2.0),
            ],
        }
    }
}

/// Tiny deterministic string hash for seeding. FNV-1a-shaped, but its
/// multiplier is not the FNV prime, so it is not
/// [`corpus::fnv1a`](crate::corpus::fnv1a): every workload's seeds derive
/// from it, and switching hashes would change every simulated cell.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The 18 programs of the paper's Table 2, with its reference counts.
pub const TABLE2: [Profile; 18] = [
    Profile {
        name: "alvinn",
        description: "neural net training (fp92)",
        instr_millions: 59.0,
        refs_millions: 72.8,
        code_kb: 12,
        write_frac: 0.30,
        class: WorkloadClass::FpLoop {
            array_kb: 1536,
            hot_kb: 96,
        },
    },
    Profile {
        name: "awk",
        description: "unix text utility",
        instr_millions: 62.8,
        refs_millions: 86.4,
        code_kb: 64,
        write_frac: 0.30,
        class: WorkloadClass::IntBranchy {
            hot_kb: 64,
            cold_kb: 1024,
            chase_nodes: 1024,
        },
    },
    Profile {
        name: "cexp",
        description: "expression evaluator (int92)",
        instr_millions: 28.5,
        refs_millions: 37.5,
        code_kb: 48,
        write_frac: 0.25,
        class: WorkloadClass::IntBranchy {
            hot_kb: 32,
            cold_kb: 512,
            chase_nodes: 512,
        },
    },
    Profile {
        name: "compress",
        description: "file compression (int92)",
        instr_millions: 8.0,
        refs_millions: 10.5,
        code_kb: 16,
        write_frac: 0.35,
        class: WorkloadClass::Stream {
            buffer_kb: 2048,
            table_kb: 512,
        },
    },
    Profile {
        name: "ear",
        description: "human ear simulator (fp92)",
        instr_millions: 65.0,
        refs_millions: 80.4,
        code_kb: 24,
        write_frac: 0.30,
        class: WorkloadClass::FpLoop {
            array_kb: 2048,
            hot_kb: 128,
        },
    },
    Profile {
        name: "gcc",
        description: "C compiler (int92)",
        instr_millions: 78.8,
        refs_millions: 100.0,
        code_kb: 128,
        write_frac: 0.30,
        class: WorkloadClass::IntBranchy {
            hot_kb: 128,
            cold_kb: 3072,
            chase_nodes: 4096,
        },
    },
    Profile {
        name: "hydro2d",
        description: "physics computation (fp92)",
        instr_millions: 8.2,
        refs_millions: 11.0,
        code_kb: 20,
        write_frac: 0.30,
        class: WorkloadClass::FpLoop {
            array_kb: 3072,
            hot_kb: 64,
        },
    },
    Profile {
        name: "mdljdp2",
        description: "solves motion eqns (fp92)",
        instr_millions: 65.0,
        refs_millions: 84.2,
        code_kb: 16,
        write_frac: 0.25,
        class: WorkloadClass::FpStream {
            array_kb: 2048,
            stride: 8,
        },
    },
    Profile {
        name: "mdljsp2",
        description: "solves motion eqns (fp92)",
        instr_millions: 65.0,
        refs_millions: 77.0,
        code_kb: 16,
        write_frac: 0.25,
        class: WorkloadClass::FpStream {
            array_kb: 2048,
            stride: 4,
        },
    },
    Profile {
        name: "nasa7",
        description: "NASA applications (fp92)",
        instr_millions: 65.0,
        refs_millions: 99.7,
        code_kb: 32,
        write_frac: 0.30,
        class: WorkloadClass::FpStream {
            array_kb: 4096,
            stride: 8,
        },
    },
    Profile {
        name: "ora",
        description: "ray tracing (fp92)",
        instr_millions: 65.0,
        refs_millions: 82.9,
        code_kb: 24,
        write_frac: 0.20,
        class: WorkloadClass::PointerHeavy {
            pool_kb: 128,
            hot_kb: 64,
        },
    },
    Profile {
        name: "sed",
        description: "unix text utility",
        instr_millions: 7.7,
        refs_millions: 9.8,
        code_kb: 40,
        write_frac: 0.30,
        class: WorkloadClass::IntBranchy {
            hot_kb: 48,
            cold_kb: 768,
            chase_nodes: 512,
        },
    },
    Profile {
        name: "su2cor",
        description: "physics computation (fp92)",
        instr_millions: 65.0,
        refs_millions: 88.8,
        code_kb: 28,
        write_frac: 0.30,
        class: WorkloadClass::FpStream {
            array_kb: 3072,
            stride: 8,
        },
    },
    Profile {
        name: "swm256",
        description: "physics computation (fp92)",
        instr_millions: 65.0,
        refs_millions: 87.4,
        code_kb: 16,
        write_frac: 0.30,
        class: WorkloadClass::FpStream {
            array_kb: 4096,
            stride: 8,
        },
    },
    Profile {
        name: "tex",
        description: "unix text utility",
        instr_millions: 50.3,
        refs_millions: 66.8,
        code_kb: 96,
        write_frac: 0.30,
        class: WorkloadClass::IntBranchy {
            hot_kb: 96,
            cold_kb: 2048,
            chase_nodes: 2048,
        },
    },
    Profile {
        name: "uncompress",
        description: "file decompression (int92)",
        instr_millions: 5.7,
        refs_millions: 7.5,
        code_kb: 16,
        write_frac: 0.35,
        class: WorkloadClass::Stream {
            buffer_kb: 2048,
            table_kb: 512,
        },
    },
    Profile {
        name: "wave5",
        description: "solves particle equations",
        instr_millions: 65.0,
        refs_millions: 78.3,
        code_kb: 32,
        write_frac: 0.30,
        class: WorkloadClass::PointerHeavy {
            pool_kb: 256,
            hot_kb: 128,
        },
    },
    Profile {
        name: "yacc",
        description: "unix text utility",
        instr_millions: 9.7,
        refs_millions: 12.1,
        code_kb: 56,
        write_frac: 0.30,
        class: WorkloadClass::IntBranchy {
            hot_kb: 48,
            cold_kb: 768,
            chase_nodes: 1024,
        },
    },
];

/// Total references in Table 2, in millions (≈ 1.1 billion references).
pub fn table2_total_refs_millions() -> f64 {
    TABLE2.iter().map(|p| p.refs_millions).sum()
}

/// Build the full 18-program suite at `1/scale` of the paper's volume.
///
/// The returned sources are in Table 2 order; feed them to an
/// [`Interleaver`](crate::Interleaver) with a 500 000-reference quantum to
/// reproduce the paper's multiprogrammed workload.
pub fn standard_suite(scale: u64, seed: u64) -> Vec<BoundedSource<BenchmarkSynth>> {
    TABLE2.iter().map(|p| p.source(scale, seed)).collect()
}

/// A reduced suite (first `n` programs) for fast tests and examples.
pub fn small_suite(n: usize, scale: u64, seed: u64) -> Vec<BoundedSource<BenchmarkSynth>> {
    TABLE2
        .iter()
        .take(n)
        .map(|p| p.source(scale, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSource;

    #[test]
    fn table2_has_18_programs_totalling_1_1_billion() {
        assert_eq!(TABLE2.len(), 18);
        let total = table2_total_refs_millions();
        assert!(
            (1090.0..1100.0).contains(&total),
            "total {total} Mrefs should be ~1.1 billion"
        );
    }

    #[test]
    fn ifetch_fractions_are_sane() {
        for p in &TABLE2 {
            let f = p.ifetch_frac();
            assert!(
                (0.5..1.0).contains(&f),
                "{}: ifetch fraction {f} out of range",
                p.name
            );
        }
    }

    #[test]
    fn scaled_refs_divides_volume() {
        let p = &TABLE2[0];
        assert_eq!(p.scaled_refs(1), 72_800_000);
        assert_eq!(p.scaled_refs(100), 728_000);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = TABLE2.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn sources_are_bounded_and_deterministic() {
        let mut a = TABLE2[3].source(10_000, 1);
        let mut b = TABLE2[3].source(10_000, 1);
        let mut n = 0u64;
        loop {
            let (ra, rb) = (a.next_record(), b.next_record());
            assert_eq!(ra, rb);
            if ra.is_none() {
                break;
            }
            n += 1;
        }
        assert_eq!(n, TABLE2[3].scaled_refs(10_000));
    }

    #[test]
    fn suite_builders() {
        assert_eq!(standard_suite(100_000, 0).len(), 18);
        assert_eq!(small_suite(4, 100_000, 0).len(), 4);
    }

    #[test]
    fn mix_tracks_table2_fraction() {
        let p = &TABLE2[5]; // gcc, ifetch 0.788
        let mut s = p.source(1000, 3);
        let mut ifetch = 0u64;
        let mut total = 0u64;
        while let Some(r) = s.next_record() {
            if r.kind == crate::AccessKind::InstrFetch {
                ifetch += 1;
            }
            total += 1;
            if total == 50_000 {
                break;
            }
        }
        let f = ifetch as f64 / total as f64;
        let want = p.ifetch_frac();
        assert!(
            (f - want).abs() < 0.02,
            "gcc ifetch fraction {f} vs Table 2 {want}"
        );
    }
}
