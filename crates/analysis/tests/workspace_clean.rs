//! The meta-test: the live workspace must carry zero unwaived
//! diagnostics. This is the same gate `scripts/check.sh` and CI run via
//! `repro lint`; keeping it in the test suite means a plain
//! `cargo test` also refuses regressions.

use rampage_analysis::{analyze_workspace, find_workspace_root};
use std::path::Path;

#[test]
fn live_workspace_has_no_unwaived_findings() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the analysis crate lives inside the workspace");
    let report = analyze_workspace(&root).expect("workspace walks cleanly");
    let active: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.is_active())
        .map(|d| d.render_text())
        .collect();
    assert!(
        active.is_empty(),
        "unwaived findings in the live workspace:\n{}",
        active.join("\n")
    );
    assert!(report.files > 0, "the walk must visit the workspace");
}
