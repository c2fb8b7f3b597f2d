//! Report rendering: human text and SARIF.
//!
//! SARIF is emitted by hand (the workspace vendors no JSON library)
//! with a fixed field order and no timestamps, so two runs over the
//! same tree produce byte-identical output — a property the golden-file
//! tests assert. It follows the 2.1.0 schema that GitHub code scanning
//! ingests.

use crate::{Report, RULES};
use std::path::Path;

/// Renders the human report body (one violation per line plus the
/// summary trailer main() prints today).
pub fn render_human(report: &Report, root: &Path) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&v.to_string());
        out.push('\n');
    }
    if report.is_clean() {
        out.push_str(&format!(
            "magellan-lint: {} files clean ({})\n",
            report.files_scanned,
            root.display()
        ));
    }
    out
}

/// Escapes `s` for a JSON string literal (RFC 8259).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Paths in reports always use `/`, regardless of host separator.
fn json_path(p: &Path) -> String {
    let s = p.display().to_string();
    json_escape(&s.replace('\\', "/"))
}

/// Renders a SARIF 2.1.0 log (the subset GitHub code scanning loads):
/// one run, the full rule table on the driver, one result per
/// violation with a physical location relative to the repo root.
pub fn render_sarif(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"magellan-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/magellan\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        env!("CARGO_PKG_VERSION")
    ));
    out.push_str("          \"rules\": [");
    for (i, rule) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n            {\n");
        out.push_str(&format!("              \"id\": \"{}\",\n", rule.id()));
        out.push_str(&format!(
            "              \"shortDescription\": {{ \"text\": \"{}\" }},\n",
            json_escape(rule.describe())
        ));
        out.push_str(&format!(
            "              \"help\": {{ \"text\": \"{}\" }}\n",
            json_escape(rule.fix_guidance())
        ));
        out.push_str("            }");
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n        {\n");
        out.push_str(&format!("          \"ruleId\": \"{}\",\n", v.rule.id()));
        out.push_str(&format!(
            "          \"ruleIndex\": {},\n",
            RULES.iter().position(|r| *r == v.rule).unwrap_or_default()
        ));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{ \"text\": \"{}\" }},\n",
            json_escape(&v.message)
        ));
        out.push_str("          \"locations\": [\n            {\n");
        out.push_str("              \"physicalLocation\": {\n");
        out.push_str(&format!(
            "                \"artifactLocation\": {{ \"uri\": \"{}\" }},\n",
            json_path(&v.file)
        ));
        out.push_str(&format!(
            "                \"region\": {{ \"startLine\": {} }}\n",
            v.line.max(1)
        ));
        out.push_str("              }\n            }\n          ]\n");
        out.push_str("        }");
    }
    if report.violations.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n      ]\n");
    }
    out.push_str("    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rule, Violation};
    use std::path::PathBuf;

    fn sample_report() -> Report {
        Report {
            violations: vec![
                Violation {
                    file: PathBuf::from("crates/overlay/src/a.rs"),
                    line: 3,
                    rule: Rule::D1,
                    message: "HashMap in a simulation path — say \"no\"".to_owned(),
                },
                Violation {
                    file: PathBuf::from("crates/graph/src/b.rs"),
                    line: 9,
                    rule: Rule::C4,
                    message: "unchecked arithmetic in index `[u + 1]`".to_owned(),
                },
            ],
            files_scanned: 2,
            unwrap_counts: Default::default(),
        }
    }

    #[test]
    fn empty_report_renders_empty_array() {
        let r = Report {
            files_scanned: 5,
            ..Report::default()
        };
        let s = render_sarif(&r);
        assert!(s.contains("\"results\": []"), "{s}");
    }

    #[test]
    fn sarif_carries_rules_and_locations() {
        let s = render_sarif(&sample_report());
        assert!(s.contains("\"version\": \"2.1.0\""));
        for rule in RULES {
            assert!(s.contains(&format!("\"id\": \"{}\"", rule.id())), "{s}");
            assert!(
                s.contains(&json_escape(rule.fix_guidance())),
                "rule {} must ship its fix guidance as SARIF help text",
                rule.id()
            );
        }
        assert!(s.contains("\"uri\": \"crates/overlay/src/a.rs\""));
        assert!(s.contains("\"startLine\": 3"));
        assert!(s.contains("\"ruleId\": \"D1\""));
        assert!(s.contains("say \\\"no\\\""), "{s}");
    }
}
