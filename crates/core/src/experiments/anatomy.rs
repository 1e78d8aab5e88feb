//! Miss anatomy: 3C classification of L2 misses inside the real
//! simulated systems.
//!
//! The paper's core mechanism is that RAMpage's paged SRAM is *fully
//! associative*, so it takes none of the conflict misses a direct-mapped
//! (or 2-way) L2 takes. This experiment measures that directly: it runs
//! the conventional hierarchy with the shadow classifier enabled and
//! reports what fraction of its L2 misses are conflicts — i.e. the
//! misses RAMpage structurally cannot have.

use crate::config::SystemConfig;
use crate::engine::Engine;
use crate::experiments::common::{sweep_grid, Workload};
use crate::report::TableBuilder;
use crate::time::IssueRate;
use rampage_cache::MissProfile;
use rampage_json::{obj, Json, ToJson};

/// One organization's classified misses at one block size.
#[derive(Debug, Clone, Copy)]
pub struct AnatomyCell {
    /// L2 block size in bytes.
    pub block: u64,
    /// Associativity (1 or 2).
    pub ways: u32,
    /// The classification.
    pub profile: MissProfile,
}

/// The study: DM and 2-way L2 across the block-size sweep.
#[derive(Debug, Clone)]
pub struct Anatomy {
    /// Issue rate used (MHz) — classification is timing-independent, but
    /// the run needs one.
    pub issue_mhz: u32,
    /// One cell per (organization, size).
    pub cells: Vec<AnatomyCell>,
}

/// The study's grid: the plain direct-mapped then 2-way presets at each
/// block size.
///
/// [`run`] does not submit these exact configs: it also sets
/// `classify_l2` and clears `switch_trace`, and it builds each engine
/// itself instead of going through a `SweepRunner`, because the 3C
/// profile lives in the run's counters, which a `Cell` does not carry.
/// Neither flag changes what `SystemConfig::validate` checks, so
/// `repro lint --configs` still covers the run. The grid keeps the plain
/// presets because the ledger's `sweep_journaled` workload pins it.
pub fn grid(issue: IssueRate, sizes: &[u64]) -> Vec<(String, SystemConfig)> {
    sweep_grid(
        &[issue],
        sizes,
        &[
            ("baseline", SystemConfig::baseline),
            ("two_way", SystemConfig::two_way),
        ],
    )
}

/// Run the classification sweep over the [`grid`].
pub fn run(workload: &Workload, issue: IssueRate, sizes: &[u64]) -> Anatomy {
    let mut cells = Vec::new();
    for (_, mut cfg) in grid(issue, sizes) {
        cfg.classify_l2 = true;
        // Table 5's switch trace would perturb the comparison; keep
        // both organizations on the plain workload.
        cfg.switch_trace = false;
        #[expect(
            clippy::disallowed_methods,
            reason = "the 3C classification lives in the RunOutcome, which a Cell does not carry"
        )]
        let out = Engine::new(&cfg, workload.sources()).run();
        let ways = match cfg.hierarchy {
            crate::config::HierarchyKind::Conventional(l2) => l2.ways,
            // invariant: the anatomy grid holds only conventional
            // presets.
            crate::config::HierarchyKind::Rampage(_) => unreachable!("conventional only"),
        };
        cells.push(AnatomyCell {
            block: cfg.hierarchy.unit_bytes(),
            ways,
            profile: out.metrics.counts.l2_miss_profile,
        });
    }
    Anatomy {
        issue_mhz: issue.mhz(),
        cells,
    }
}

impl ToJson for AnatomyCell {
    fn to_json(&self) -> Json {
        obj! {
            "block" => self.block,
            "ways" => self.ways,
            "hits" => self.profile.hits,
            "compulsory" => self.profile.compulsory,
            "capacity" => self.profile.capacity,
            "conflict" => self.profile.conflict,
        }
    }
}

impl ToJson for Anatomy {
    fn to_json(&self) -> Json {
        obj! {
            "issue_mhz" => self.issue_mhz,
            "cells" => self.cells,
        }
    }
}

impl Anatomy {
    /// Render the classification table.
    pub fn render(&self) -> String {
        let mut t = TableBuilder::new(vec![
            "L2".into(),
            "block".into(),
            "misses".into(),
            "compulsory".into(),
            "capacity".into(),
            "conflict".into(),
            "conflict share".into(),
        ]);
        for c in &self.cells {
            let p = c.profile;
            t.row(vec![
                format!("{}-way", c.ways),
                c.block.to_string(),
                p.misses().to_string(),
                p.compulsory.to_string(),
                p.capacity.to_string(),
                p.conflict.to_string(),
                format!("{:.1}%", 100.0 * p.conflict_share()),
            ]);
        }
        format!(
            "Miss anatomy: 3C classification of L2 misses (conflict = what RAMpage's full associativity removes)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_sweep_is_consistent() {
        let w = Workload::quick();
        let a = run(&w, IssueRate::GHZ1, &[128, 2048]);
        assert_eq!(a.cells.len(), 4);
        for c in &a.cells {
            assert!(c.profile.misses() > 0, "workload misses L2 somewhere");
        }
        // At equal block size, the 2-way cache must have no more
        // conflict misses than the direct-mapped one.
        for pair in a.cells.chunks(2) {
            let (dm, two) = (&pair[0], &pair[1]);
            assert_eq!(dm.block, two.block);
            assert!(
                two.profile.conflict <= dm.profile.conflict,
                "associativity reduces conflicts ({} vs {})",
                two.profile.conflict,
                dm.profile.conflict
            );
        }
        assert!(a.render().contains("conflict share"));
    }
}
