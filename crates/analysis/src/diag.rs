//! Diagnostics: rule identifiers, findings, and their text rendering.

use std::fmt;

/// Every rule the analyzer can fire. The string form is the stable id
/// used in waiver comments (`// lint: allow(<id>) — reason`) and in the
/// SARIF output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `panic!`/`unreachable!`/`assert!` in library code without an
    /// `// invariant:` comment or `# Panics` doc section.
    PanicDoc,
    /// Wildcard `_ =>` arm in a `match` over a typed error enum.
    ErrorMatch,
    /// A raw write to a sweep journal (`journal.jsonl`) bypassing the
    /// checksummed `Journal::append` helper.
    JournalAppend,
    /// Arithmetic/comparison mixing two inferred unit
    /// domains (picoseconds vs. cycles vs. bytes vs. refs), or a time
    /// quantity declared as a raw integer.
    UnitMix,
    /// A wall-clock/env/thread-identity value flowing
    /// into simulated state, a fingerprint, or a serialized cell.
    NondetTaint,
    /// A `// lint: allow(...)` waiver with no `— <reason>` text.
    WaiverMissingReason,
    /// A waiver that matched no diagnostic on its line.
    UnusedWaiver,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 7] = [
        RuleId::PanicDoc,
        RuleId::ErrorMatch,
        RuleId::JournalAppend,
        RuleId::UnitMix,
        RuleId::NondetTaint,
        RuleId::WaiverMissingReason,
        RuleId::UnusedWaiver,
    ];

    /// The stable string id (used in waivers and SARIF).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::PanicDoc => "panic-doc",
            RuleId::ErrorMatch => "error-match",
            RuleId::JournalAppend => "journal-append",
            RuleId::UnitMix => "unit-mix",
            RuleId::NondetTaint => "nondet-taint",
            RuleId::WaiverMissingReason => "waiver-missing-reason",
            RuleId::UnusedWaiver => "unused-waiver",
        }
    }

    /// Parse a waiver id back into a rule. Waiver-meta rules cannot be
    /// waived, so they don't parse.
    pub fn from_waiver_str(s: &str) -> Option<RuleId> {
        Some(match s {
            "panic-doc" => RuleId::PanicDoc,
            "error-match" => RuleId::ErrorMatch,
            "journal-append" => RuleId::JournalAppend,
            "unit-mix" => RuleId::UnitMix,
            "nondet-taint" => RuleId::NondetTaint,
            _ => return None,
        })
    }

    /// One-line description, used by SARIF rule metadata.
    pub fn short_description(self) -> &'static str {
        match self {
            RuleId::PanicDoc => "undocumented panic in library code",
            RuleId::ErrorMatch => "wildcard arm in a typed error match",
            RuleId::JournalAppend => "raw journal write bypassing Journal::append",
            RuleId::UnitMix => "arithmetic mixing unit domains (ps/ns/cycles/bytes/refs)",
            RuleId::NondetTaint => "wall-clock-derived value reaching sim state or a fingerprint",
            RuleId::WaiverMissingReason => "waiver without a `— <reason>`",
            RuleId::UnusedWaiver => "waiver matching no finding",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether a diagnostic was suppressed by a waiver, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaiverStatus {
    /// No waiver applies: the diagnostic counts against the exit code.
    None,
    /// A `// lint: allow(<rule>) — <reason>` waiver suppresses it.
    Waived,
}

/// One finding at an exact source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable description of the finding.
    pub message: String,
    /// Whether a waiver suppressed it.
    pub waiver: WaiverStatus,
}

impl Diagnostic {
    /// Does this diagnostic count against the exit code?
    pub fn is_active(&self) -> bool {
        self.waiver == WaiverStatus::None
    }

    /// `file:line:col: [rule] message` — the human rendering.
    pub fn render_text(&self) -> String {
        let suffix = match self.waiver {
            WaiverStatus::None => "",
            WaiverStatus::Waived => " (waived)",
        };
        format!(
            "{}:{}:{}: [{}] {}{}",
            self.file, self.line, self.col, self.rule, self.message, suffix
        )
    }
}

/// Minimal JSON string escaping: quotes, backslashes, control chars.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip_through_waiver_syntax() {
        for rule in RuleId::ALL {
            let parsed = RuleId::from_waiver_str(rule.as_str());
            if matches!(rule, RuleId::WaiverMissingReason | RuleId::UnusedWaiver) {
                assert_eq!(parsed, None, "meta rules must not be waivable");
            } else {
                assert_eq!(parsed, Some(rule));
            }
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
