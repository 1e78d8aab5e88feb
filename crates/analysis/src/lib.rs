//! `rampage-analysis` — an offline, dependency-free static analyzer for
//! the workspace's panic-discipline, journal, unit and determinism
//! invariants.
//!
//! The analyzer lexes every `.rs` file once with its own hand-rolled
//! lexer (see [`lexer`]) and runs, in one pass, every repo-specific rule
//! that rustc and clippy cannot express: token-stream rules (see
//! [`rules`]) for undocumented panics, raw journal writes, and
//! exhaustive error matching; and AST/CFG dataflow rules (see [`flow`])
//! for unit mixing and nondeterminism taint. Findings can be suppressed
//! site-by-site with `// lint: allow(<rule>) — <reason>` waivers; a
//! waiver without a reason or without a matching finding is itself a
//! diagnostic.
//!
//! Checks that only look for a call live in the toolchain instead: the
//! root `clippy.toml` denies hash-ordered iteration, wall-clock and
//! environment reads, `thread::sleep` and direct simulation calls in
//! library code, and the sweep runner's claim types make reading a
//! claim back before computing its cell a compile-time requirement.
//! `EXPERIMENTS.md` § Static analysis documents both halves and the
//! waiver syntax.

#![forbid(unsafe_code)]

pub mod ast;
pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod flow;
pub mod lexer;
pub mod rules;
pub mod sarif;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diag::Diagnostic;

/// How a file's path classifies it for rule selection.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Test/bench/example/fixture code: exempt from every rule.
    pub is_test: bool,
    /// Library code (crate `src/` trees, minus binaries): panic-doc,
    /// error-match, and nondet-taint apply.
    pub is_lib: bool,
    /// Unit-domain-checked timing code: the simulation crates, the
    /// engine, the channel router, and `SystemConfig`.
    pub unit_checked: bool,
}

/// Path prefixes whose contents count as simulation code.
const SIM_PREFIXES: [&str; 6] = [
    "crates/cache/src/",
    "crates/vm/src/",
    "crates/dram/src/",
    "crates/trace/src/",
    "crates/core/src/system/",
    "crates/core/src/obs/",
];

/// Individual files that count as simulation code. `channel.rs` routes
/// every DRAM request into the flat or banked backend, so its
/// determinism matters as much as the engine's.
const SIM_FILES: [&str; 3] = [
    "crates/core/src/engine.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/channel.rs",
];

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let p = rel.replace('\\', "/");
    let is_fixture = p.contains("fixtures/");
    let is_test = is_fixture
        || p.starts_with("tests/")
        || p.contains("/tests/")
        || p.starts_with("benches/")
        || p.contains("/benches/")
        || p.contains("/examples/");
    let is_bin = p.contains("/bin/")
        || p == "src/main.rs"
        || p.ends_with("/src/main.rs")
        || p.ends_with("build.rs");
    let in_crate_src = p.starts_with("crates/") && p.contains("/src/");
    let in_root_src = p.starts_with("src/");
    let is_lib = !is_test && !is_bin && (in_crate_src || in_root_src);
    let unit_checked = !is_test
        && (SIM_PREFIXES.iter().any(|pre| p.starts_with(pre))
            || SIM_FILES.contains(&p.as_str())
            || p == "crates/core/src/config.rs");
    FileClass {
        is_test,
        is_lib,
        unit_checked,
    }
}

/// Analyze a set of in-memory sources (used by the fixture tests).
pub fn analyze_sources(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (rel, text) in files {
        diags.extend(rules::analyze_source(rel, &classify(rel), text));
    }
    sort_diags(&mut diags);
    diags
}

/// Analyze one in-memory source, classified by its path (fixture tests).
pub fn analyze_one(rel: &str, text: &str) -> Vec<Diagnostic> {
    analyze_sources(&[(rel, text)])
}

/// A workspace analysis run: the findings plus what the timing line
/// reports.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// All findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files were analyzed.
    pub files: usize,
}

/// Walk the workspace rooted at `root` and run every rule over every
/// `.rs` file. Files are read up front, then analyzed in parallel with
/// scoped threads; each file is tokenized exactly once and the token
/// stream is shared across every pass. The final sort makes the report
/// order independent of scheduling.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(path)?;
        sources.push((rel, text));
    }

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(sources.len().max(1));
    let chunk = sources.len().div_ceil(workers.max(1)).max(1);
    let mut diags = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for slice in sources.chunks(chunk) {
            handles.push(scope.spawn(move || {
                let mut diags = Vec::new();
                for (rel, text) in slice {
                    diags.extend(rules::analyze_source(rel, &classify(rel), text));
                }
                diags
            }));
        }
        for h in handles {
            if let Ok(part) = h.join() {
                diags.extend(part);
            }
        }
    });
    sort_diags(&mut diags);
    Ok(WorkspaceReport {
        diagnostics: diags,
        files: sources.len(),
    })
}

/// Recursively collect `.rs` files, skipping build output, VCS state,
/// the analyzer's own lint fixtures, and nested workspaces (a
/// subdirectory whose `Cargo.toml` declares `[workspace]`, such as the
/// frozen `ledger/`). Directory entries are sorted so the walk (and
/// therefore the report order) is deterministic.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target"
                || name == "fixtures"
                || name.starts_with('.')
                || declares_workspace(&path)
            {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Does `dir/Cargo.toml` declare `[workspace]`?
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if declares_workspace(&dir) {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_of_known_paths() {
        let c = classify("crates/core/src/experiments/runner/mod.rs");
        assert!(c.is_lib && !c.is_test);

        let c = classify("src/bin/repro.rs");
        assert!(!c.is_lib && !c.is_test);

        let c = classify("tests/runner_golden.rs");
        assert!(c.is_test && !c.is_lib);

        let c = classify("crates/analysis/tests/fixtures/bad/panic_doc.rs");
        assert!(c.is_test);

        let c = classify("src/lib.rs");
        assert!(c.is_lib);

        let c = classify("crates/analysis/src/lib.rs");
        assert!(c.is_lib && !c.unit_checked);
    }

    #[test]
    fn dataflow_scopes_of_known_paths() {
        for f in ["bank.rs", "channel.rs", "mapping.rs"] {
            let c = classify(&format!("crates/dram/src/{f}"));
            assert!(c.unit_checked && c.is_lib, "banked backend module {f}");
        }

        let c = classify("crates/cache/src/classify.rs");
        assert!(c.unit_checked && c.is_lib);

        let c = classify("crates/core/src/system/mod.rs");
        assert!(c.unit_checked);

        let c = classify("crates/core/src/channel.rs");
        assert!(c.unit_checked, "the channel router carries Picos timing");

        let c = classify("crates/core/src/config.rs");
        assert!(
            c.unit_checked,
            "SystemConfig declares the timing vocabulary"
        );

        let c = classify("crates/core/src/experiments/runner/mod.rs");
        assert!(!c.unit_checked);

        let c = classify("crates/core/src/experiments/grids.rs");
        assert!(!c.unit_checked);

        let c = classify("crates/analysis/tests/fixtures/bad/unit_mix.rs");
        assert!(c.is_test && !c.unit_checked);
    }
}
