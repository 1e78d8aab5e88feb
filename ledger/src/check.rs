//! Correctness checks: pinned digests of the default seed's cells, and
//! a tally of every cell and invariant the ledger verifies.
//!
//! Simulated results are never metrics; they must stay bit-identical.
//! Each cell is identified by FNV-1a over its compact `Cell::to_json`.

use crate::workload::Kind;
use rampage_core::experiments::Cell;
use rampage_json::ToJson;
use std::path::PathBuf;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash over more bytes.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// A cell's digest.
fn cell_digest(cell: &Cell) -> u64 {
    fnv1a(cell.to_json().compact().as_bytes())
}

/// The pinned digests of one workload at the default seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// Digest of the generated inputs.
    pub input: u64,
    /// One digest per cell, in submission order.
    pub cells: Vec<u64>,
}

fn golden_path(kind: Kind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.txt", kind.name()))
}

impl Golden {
    /// Digest `cells` and the input digest.
    pub fn of(input: u64, cells: &[Cell]) -> Golden {
        Golden {
            input,
            cells: cells.iter().map(cell_digest).collect(),
        }
    }

    /// The checked-in digests for `kind`, if the file exists and parses.
    pub fn load(kind: Kind) -> Option<Golden> {
        let text = std::fs::read_to_string(golden_path(kind)).ok()?;
        let mut input = None;
        let mut cells = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut words = line.split_whitespace();
            let (Some(what), Some(hex)) = (words.next(), words.next_back()) else {
                continue;
            };
            let value = u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?;
            match what {
                "input" => input = Some(value),
                "cell" => cells.push(value),
                _ => return None,
            }
        }
        Some(Golden {
            input: input?,
            cells,
        })
    }

    /// Write these digests as the checked-in file for `kind`.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing the file.
    pub fn save(&self, kind: Kind, labels: &[String]) -> std::io::Result<()> {
        let mut text = format!(
            "# {} at seed {}: FNV-1a of the inputs, then of each cell's compact\n\
             # Cell::to_json in submission order. Regenerate with\n\
             # UPDATE_GOLDEN=1 ledger run --workload {}\n",
            kind.name(),
            crate::workload::DEFAULT_SEED,
            kind.name()
        );
        text.push_str(&format!("input {:#018x}\n", self.input));
        for (i, d) in self.cells.iter().enumerate() {
            let label = labels.get(i).map_or("", String::as_str);
            text.push_str(&format!("cell {i} {label} {d:#018x}\n"));
        }
        std::fs::write(golden_path(kind), text)
    }
}

/// The running tally behind `correct`, `attempted` and `failed`.
#[derive(Debug, Default)]
pub struct Checks {
    /// Cells simulated and checked.
    pub attempted: u64,
    /// Failed cells, mismatched cells and failed invariants.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub notes: Vec<String>,
}

impl Checks {
    /// Whether everything checked so far passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Count one invariant; a false `ok` is a failure described by `what`.
    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Count `got` as attempted cells; each one that differs from
    /// `expected` (or whose time fractions do not sum to 1) fails.
    pub fn cells(&mut self, what: &str, expected: &[Cell], got: &[Cell]) {
        self.attempted += got.len() as u64;
        self.invariant(expected.len() == got.len(), || {
            format!("{what}: {} cells, expected {}", got.len(), expected.len())
        });
        for (i, (e, g)) in expected.iter().zip(got).enumerate() {
            if e != g {
                self.failed += 1;
                self.notes.push(format!("{what}: cell {i} differs"));
            } else if !fractions_sum_to_one(g) {
                self.failed += 1;
                self.notes
                    .push(format!("{what}: cell {i} fractions do not sum to 1"));
            }
        }
    }

    /// Count failed cells a runner reported.
    pub fn runner_failures(&mut self, what: &str, failures: u64) {
        if failures > 0 {
            self.failed += failures;
            self.notes
                .push(format!("{what}: {failures} failed cell(s)"));
        }
    }

    /// Compare digests against the pinned ones.
    pub fn golden(&mut self, expected: &Golden, got: &Golden) {
        self.invariant(expected.input == got.input, || {
            format!(
                "input digest {:#018x}, pinned {:#018x}",
                got.input, expected.input
            )
        });
        self.invariant(expected.cells.len() == got.cells.len(), || {
            format!("{} cells, {} pinned", got.cells.len(), expected.cells.len())
        });
        for (i, (e, g)) in expected.cells.iter().zip(&got.cells).enumerate() {
            self.invariant(e == g, || {
                format!("cell {i} digest {g:#018x}, pinned {e:#018x}")
            });
        }
    }
}

fn fractions_sum_to_one(cell: &Cell) -> bool {
    let f = cell.fractions;
    ((f.l1i + f.l1d + f.l2_sram + f.dram + f.idle) - 1.0).abs() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use rampage_core::experiments::{run_config, Workload};
    use rampage_core::{IssueRate, SystemConfig};

    #[test]
    fn every_mismatch_counts_as_a_failure() {
        let cfg = SystemConfig::rampage(IssueRate::GHZ1, 1024);
        let cell = run_config(&cfg, &Workload::quick());
        let mut other = cell;
        other.seconds += 1e-12;

        let mut checks = Checks::default();
        checks.cells("same", &[cell, cell], &[cell, cell]);
        assert!(checks.correct() && checks.attempted == 2);
        checks.cells("changed", &[cell, cell], &[cell, other]);
        assert_eq!((checks.attempted, checks.failed), (4, 1));
        let zero = Cell::failed_placeholder(&cfg);
        checks.cells("placeholder", &[zero], &[zero]);
        assert_eq!(checks.failed, 2, "fractions of a placeholder sum to 0");
        checks.runner_failures("runner", 3);
        assert_eq!(checks.failed, 5);

        let mut pinned = Checks::default();
        pinned.golden(&Golden::of(1, &[cell, cell]), &Golden::of(1, &[cell, cell]));
        assert!(pinned.correct());
        pinned.golden(
            &Golden::of(1, &[cell, cell]),
            &Golden::of(2, &[other, cell]),
        );
        assert_eq!(pinned.failed, 2, "the input and one cell differ");
        assert!(!pinned.correct() && pinned.notes.len() == 2);
    }
}
