//! Fixture-driven rule tests: every rule has at least one failing and
//! one passing fixture under `tests/fixtures/{bad,good}/`, analyzed
//! under a synthetic workspace-relative path that gives it the right
//! classification (library, unit-checked timing code, runner tree,
//! test, …). Every fixture runs through the full single pass, so each
//! test also proves the other rules stay quiet on it. Positions are
//! asserted exactly — `file:line:col` is computed from the fixture
//! text, not hard-coded.

use rampage_analysis::analyze_one;
use rampage_analysis::diag::{Diagnostic, RuleId, WaiverStatus};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// 1-based (line, col) of the first occurrence of `needle`.
fn loc(text: &str, needle: &str) -> (u32, u32) {
    for (i, line) in text.lines().enumerate() {
        if let Some(p) = line.find(needle) {
            return ((i + 1) as u32, (p + 1) as u32);
        }
    }
    panic!("needle {needle:?} not found in fixture");
}

fn active(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.is_active()).collect()
}

/// Assert the active diagnostics are exactly `(rule, line, col)` in order.
fn assert_findings(diags: &[Diagnostic], expected: &[(RuleId, u32, u32)]) {
    let got: Vec<(RuleId, u32, u32)> = active(diags)
        .iter()
        .map(|d| (d.rule, d.line, d.col))
        .collect();
    assert_eq!(got, expected, "diagnostics: {diags:#?}");
}

#[test]
fn panic_doc_fires_on_undocumented_panic() {
    let text = fixture("bad/panic_doc.rs");
    let diags = analyze_one("crates/core/src/panic_doc.rs", &text);
    let at = loc(&text, "panic!");
    let any_test = loc(&text, "assert!(x % 3");
    assert_findings(
        &diags,
        &[
            (RuleId::PanicDoc, at.0, at.1),
            (RuleId::PanicDoc, any_test.0, any_test.1),
        ],
    );
}

#[test]
fn panic_doc_satisfied_by_panics_section_or_invariant_comment() {
    let text = fixture("good/panic_doc.rs");
    let diags = analyze_one("crates/core/src/panic_doc.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn error_match_fires_on_wildcard_over_error_enum() {
    let text = fixture("bad/error_match.rs");
    let diags = analyze_one("crates/core/src/error_match.rs", &text);
    let at = loc(&text, "_ =>");
    assert_findings(&diags, &[(RuleId::ErrorMatch, at.0, at.1)]);
}

#[test]
fn error_match_quiet_on_exhaustive_and_non_error_matches() {
    let text = fixture("good/error_match.rs");
    let diags = analyze_one("crates/core/src/error_match.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn journal_append_fires_on_raw_journal_writes() {
    let text = fixture("bad/journal_append.rs");
    let diags = analyze_one("crates/core/src/experiments/journal_append.rs", &text);
    let raw = loc(&text, "write_all");
    let mac = loc(&text, "writeln!");
    let fsw = loc(&text, "write(dir.join");
    assert_findings(
        &diags,
        &[
            (RuleId::JournalAppend, raw.0, raw.1),
            (RuleId::JournalAppend, mac.0, mac.1),
            (RuleId::JournalAppend, fsw.0, fsw.1),
        ],
    );
}

#[test]
fn journal_append_quiet_on_the_helper_and_unrelated_writes() {
    let text = fixture("good/journal_append.rs");
    let diags = analyze_one("crates/core/src/experiments/journal_append.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn journal_append_exempt_in_tests() {
    // Tests may stage torn or corrupt journals by hand.
    let text = fixture("bad/journal_append.rs");
    let diags = analyze_one("tests/journal_append.rs", &text);
    assert_findings(&diags, &[]);
}

// ---------------------------------------------------------------------------
// unit-mix
// ---------------------------------------------------------------------------

#[test]
fn unit_mix_fires_on_decls_mixed_arithmetic_and_casts() {
    let text = fixture("bad/unit_mix.rs");
    let diags = analyze_one("crates/dram/src/unit_mix.rs", &text);
    let decl = loc(&text, "slice_time: u64");
    let add = loc(&text, "t_rcd + quantum_refs");
    let cmp = loc(&text, "total > unit_bytes");
    let cast = loc(&text, "elapsed_ns as u64");
    assert_findings(
        &diags,
        &[
            (RuleId::UnitMix, decl.0, decl.1),
            (RuleId::UnitMix, add.0, add.1),
            (RuleId::UnitMix, cmp.0, cmp.1),
            (RuleId::UnitMix, cast.0, cast.1),
        ],
    );
}

#[test]
fn unit_mix_quiet_on_typed_fields_same_domain_math_and_rates() {
    let text = fixture("good/unit_mix.rs");
    let diags = analyze_one("crates/dram/src/unit_mix.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn unit_mix_waiver_suppresses_the_site() {
    let text = fixture("good/unit_mix_waiver.rs");
    let diags = analyze_one("crates/dram/src/unit_mix_waiver.rs", &text);
    assert_findings(&diags, &[]);
    let waived: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.waiver == WaiverStatus::Waived)
        .collect();
    assert_eq!(waived.len(), 1, "exactly one waived finding: {diags:#?}");
    assert_eq!(waived[0].rule, RuleId::UnitMix);
}

#[test]
fn stale_dataflow_waiver_is_reported_unused() {
    let text = fixture("bad/dataflow_unused_waiver.rs");
    let diags = analyze_one("crates/dram/src/dataflow_unused_waiver.rs", &text);
    let w = loc(&text, "// lint: allow(unit-mix)");
    assert_findings(&diags, &[(RuleId::UnusedWaiver, w.0, w.1)]);
}

// ---------------------------------------------------------------------------
// nondet-taint
// ---------------------------------------------------------------------------

#[test]
fn nondet_taint_fires_on_cell_payloads_and_fingerprints() {
    let text = fixture("bad/nondet_taint.rs");
    let diags = analyze_one("crates/core/src/experiments/runner/nondet_taint.rs", &text);
    let cell = loc(&text, "measured }");
    let fp = loc(&text, "stamp_ms)");
    assert_findings(
        &diags,
        &[
            (RuleId::NondetTaint, cell.0, cell.1),
            (RuleId::NondetTaint, fp.0, fp.1),
        ],
    );
}

#[test]
fn nondet_taint_quiet_on_progress_telemetry() {
    let text = fixture("good/nondet_taint.rs");
    let diags = analyze_one("crates/core/src/experiments/runner/nondet_taint.rs", &text);
    assert_findings(&diags, &[]);
}

// ---------------------------------------------------------------------------
// cross-cutting
// ---------------------------------------------------------------------------

#[test]
fn rules_skip_test_code() {
    // Every bad source under a tests/ path produces no rule finding.
    // Only the waiver meta rules still apply: they police the waiver
    // comments themselves, wherever those appear.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("the bad fixtures exist")
        .map(|e| {
            e.expect("readable dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert!(names.len() >= 8, "{names:?}");
    for name in names {
        let text = fixture(&format!("bad/{name}"));
        let diags = analyze_one("tests/fixture_copy.rs", &text);
        let rules: Vec<RuleId> = active(&diags)
            .iter()
            .map(|d| d.rule)
            .filter(|r| !matches!(r, RuleId::WaiverMissingReason | RuleId::UnusedWaiver))
            .collect();
        assert!(rules.is_empty(), "bad/{name} under tests/: {diags:#?}");
    }
}

// ---------------------------------------------------------------------------
// waivers and rendering
// ---------------------------------------------------------------------------

#[test]
fn waiver_with_reason_suppresses_the_next_line() {
    let text = fixture("good/waiver.rs");
    let diags = analyze_one("crates/cache/src/waiver.rs", &text);
    assert_findings(&diags, &[]);
    // The finding still exists — it is recorded as waived, not dropped.
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, RuleId::PanicDoc);
    assert!(!diags[0].is_active());
    assert!(diags[0].render_text().ends_with("(waived)"));
}

#[test]
fn waiver_without_reason_suppresses_nothing() {
    let text = fixture("bad/waiver_missing_reason.rs");
    let diags = analyze_one("crates/cache/src/waiver.rs", &text);
    let site = loc(&text, "assert!");
    let waiver = loc(&text, "// lint: allow(panic-doc)");
    assert_findings(
        &diags,
        &[
            (RuleId::WaiverMissingReason, waiver.0, waiver.1),
            (RuleId::PanicDoc, site.0, site.1),
        ],
    );
}

#[test]
fn unused_and_unknown_waivers_are_findings() {
    let text = fixture("bad/unused_waiver.rs");
    let diags = analyze_one("crates/cache/src/waiver.rs", &text);
    let unused = loc(&text, "// lint: allow(panic-doc)");
    let unknown = loc(&text, "// lint: allow(no-such-rule)");
    assert_findings(
        &diags,
        &[
            (RuleId::UnusedWaiver, unused.0, unused.1),
            (RuleId::UnusedWaiver, unknown.0, unknown.1),
        ],
    );
    assert!(diags[1].message.contains("unknown rule"), "{diags:#?}");
}

#[test]
fn test_items_are_exempt_even_in_library_files() {
    let text = fixture("good/test_code_exempt.rs");
    let diags = analyze_one("crates/core/src/exempt.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn diagnostics_render_file_line_col() {
    let text = fixture("bad/panic_doc.rs");
    let diags = analyze_one("crates/core/src/panic_doc.rs", &text);
    let (line, col) = loc(&text, "panic!");
    let rendered = diags[0].render_text();
    assert!(
        rendered.starts_with(&format!(
            "crates/core/src/panic_doc.rs:{line}:{col}: [panic-doc]"
        )),
        "{rendered}"
    );
}
