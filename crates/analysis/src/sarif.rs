//! SARIF 2.1.0 rendering of analyzer findings, for CI annotation.
//!
//! Hand-rolled like the rest of the crate (dependency-free). The output
//! is one `run` with the full rule catalog in `tool.driver.rules` and
//! one `result` per diagnostic; waived findings carry an in-source
//! `suppression`, so the unsuppressed results are exactly the findings
//! that fail `repro lint`.

use crate::diag::{json_string, Diagnostic, RuleId, WaiverStatus};

/// Render a full report as a SARIF 2.1.0 document.
pub fn render_sarif(diags: &[Diagnostic]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
    out.push_str("\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
    out.push_str("\"name\":\"rampage-analysis\",\"informationUri\":");
    out.push_str(&json_string("https://example.invalid/rampage/analysis"));
    out.push_str(",\"rules\":[");
    for (i, rule) in RuleId::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            json_string(rule.as_str()),
            json_string(rule.short_description()),
        ));
    }
    out.push_str("]}},\"results\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_result(d));
    }
    out.push_str("]}]}");
    out
}

fn render_result(d: &Diagnostic) -> String {
    let suppressions = match d.waiver {
        WaiverStatus::None => String::new(),
        WaiverStatus::Waived => ",\"suppressions\":[{\"kind\":\"inSource\"}]".to_string(),
    };
    format!(
        "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
         \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},\
         \"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]{}}}",
        json_string(d.rule.as_str()),
        json_string(&d.message),
        json_string(&d.file),
        d.line,
        d.col,
        suppressions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(rule: RuleId, waiver: WaiverStatus) -> Diagnostic {
        Diagnostic {
            file: "crates/dram/src/model.rs".into(),
            line: 7,
            col: 13,
            rule,
            message: "a \"quoted\" message".into(),
            waiver,
        }
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        let doc = render_sarif(&[
            mk(RuleId::UnitMix, WaiverStatus::None),
            mk(RuleId::NondetTaint, WaiverStatus::Waived),
        ]);
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("\"name\":\"rampage-analysis\""));
        // Every rule appears in the catalog.
        for rule in RuleId::ALL {
            assert!(
                doc.contains(&format!("\"id\":\"{}\"", rule.as_str())),
                "rule {rule} missing from driver.rules"
            );
        }
        assert!(doc.contains("\"startLine\":7"));
        assert!(doc.contains("\"startColumn\":13"));
        // The waived finding is suppressed; the active one is not.
        assert_eq!(doc.matches("\"suppressions\"").count(), 1);
    }

    #[test]
    fn sarif_escapes_messages() {
        let doc = render_sarif(&[mk(RuleId::UnitMix, WaiverStatus::None)]);
        assert!(doc.contains("a \\\"quoted\\\" message"));
    }
}
