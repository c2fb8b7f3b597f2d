//! Golden-file tests: the full lint pipeline run over the fixture
//! workspace in `tests/fixtures/mini` and byte-compared against
//! checked-in expected output.
//!
//! The fixture tree seeds one violation per interesting rule — and,
//! critically, the cross-crate transitive D4 chain (a public entry in
//! `magellan-analysis` reaching a hash-ordered iteration in
//! `magellan-trace`) plus raw-string and nested-block-comment
//! distractors that must stay inert. Regenerate the goldens after an
//! intentional output change with:
//!
//! ```text
//! MAGELLAN_LINT_BLESS=1 cargo test -p magellan-lint --test golden
//! ```

use magellan_lint::{lint_workspace, render_human, render_sarif, Config, RULES};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os("MAGELLAN_LINT_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); bless with MAGELLAN_LINT_BLESS=1")
    });
    assert_eq!(
        expected, actual,
        "{name} drifted — if the change is intentional, rerun with MAGELLAN_LINT_BLESS=1"
    );
}

#[test]
fn human_output_matches_golden() {
    let root = fixture_root();
    let report = lint_workspace(&root, &Config::default()).expect("fixture tree readable");
    check_golden("expected_human.txt", &render_human(&report, &root));
}

#[test]
fn sarif_output_matches_golden_and_is_byte_stable() {
    let root = fixture_root();
    let a = render_sarif(&lint_workspace(&root, &Config::default()).expect("first run"));
    let b = render_sarif(&lint_workspace(&root, &Config::default()).expect("second run"));
    assert_eq!(a, b, "two runs over the same tree must be byte-identical");
    check_golden("expected_report.sarif", &a);
}

#[test]
fn transitive_d4_chain_crosses_the_crate_boundary() {
    let report = lint_workspace(&fixture_root(), &Config::default()).expect("fixture tree");
    let d4: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "D4")
        .collect();
    assert_eq!(d4.len(), 2, "{d4:?}");
    // The cross-crate chain anchors at the analysis entry point...
    let cross = d4
        .iter()
        .find(|v| v.file == Path::new("crates/analysis/src/metrics.rs"))
        .expect("chain must anchor at the entry point");
    let m = &cross.message;
    assert!(m.contains("total_report_id()"), "{m}");
    assert!(m.contains("freshest_reports()"), "{m}");
    assert!(m.contains("crates/trace/src/store.rs:12"), "{m}");
    // ...and the trace crate, itself an entry crate, reports the same sink
    // directly from its own public surface.
    let direct = d4
        .iter()
        .find(|v| v.file == Path::new("crates/trace/src/store.rs"))
        .expect("trace entry crate must report its own public chain");
    assert!(direct.message.contains("freshest_reports"), "{direct:?}");
}

#[test]
fn hot_chain_crosses_the_crate_boundary() {
    let report = lint_workspace(&fixture_root(), &Config::default()).expect("fixture tree");
    let h2: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "H2")
        .collect();
    assert_eq!(h2.len(), 1, "{h2:?}");
    let m = &h2[0].message;
    assert!(m.contains("sample_boundary()"), "{m}");
    assert!(m.contains("scratch_degrees()"), "{m}");
    assert!(m.contains("budget 0"), "{m}");
    assert!(
        h2[0].file == Path::new("crates/graph/src/scratch.rs"),
        "H2 must anchor at the sink, got {:?}",
        h2[0].file
    );
    // The cold allocation and the fn-line-justified hot one stay inert.
    assert!(!m.contains("cold_histogram"), "{m}");
    // `Window::finalize`'s `self.flush()` is the analysis crate's own
    // `flush`, not the allocating one in `magellan-trace`.
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.message.contains("finalize()")),
        "{:?}",
        report.violations
    );
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.message.contains("audited_scratch")),
        "{:?}",
        report.violations
    );
    // H3 anchors at the hot entry's own scan.
    let h3: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "H3")
        .collect();
    assert_eq!(h3.len(), 1, "{h3:?}");
    assert!(
        h3[0].message.contains("horizon_scan()"),
        "{}",
        h3[0].message
    );
}

#[test]
fn unsafe_contract_and_budget_findings_fire() {
    let report = lint_workspace(&fixture_root(), &Config::default()).expect("fixture tree");
    let u1: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "U1")
        .collect();
    // raw.rs seeds: one missing contract, one empty contract, and a
    // named one that only counts toward the budget (3 sites > 0).
    assert_eq!(u1.len(), 3, "{u1:?}");
    assert!(
        u1.iter()
            .any(|v| v.message.contains("without a safety contract")),
        "{u1:?}"
    );
    assert!(
        u1.iter()
            .any(|v| v.message.contains("empty SAFETY: contract")),
        "{u1:?}"
    );
    assert!(
        u1.iter()
            .any(|v| v.message.contains("3 unsafe site(s)") && v.message.contains("budget of 0")),
        "{u1:?}"
    );
    assert!(
        u1.iter()
            .all(|v| v.file == Path::new("crates/graph/src/raw.rs")),
        "{u1:?}"
    );
}

#[test]
fn distractors_in_strings_and_comments_stay_inert() {
    let report = lint_workspace(&fixture_root(), &Config::default()).expect("fixture tree");
    // kernels.rs carries SystemTime::now / hash iteration text inside
    // a raw string and a nested block comment; only its real C4 may
    // fire, nothing clock- or hash-shaped.
    let kernel_rules: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.file.ends_with("kernels.rs"))
        .map(|v| v.rule.id())
        .collect();
    assert_eq!(kernel_rules, ["C4"], "{:?}", report.violations);
}

#[test]
fn sarif_output_has_the_code_scanning_shape() {
    let report = lint_workspace(&fixture_root(), &Config::default()).expect("fixture tree");
    let s = render_sarif(&report);
    assert!(s.contains("\"$schema\""), "{s}");
    assert!(s.contains("sarif-schema-2.1.0.json"), "{s}");
    assert!(s.contains("\"version\": \"2.1.0\""));
    assert!(s.contains("\"name\": \"magellan-lint\""));
    for rule in RULES {
        assert!(s.contains(&format!("\"id\": \"{}\"", rule.id())), "{s}");
    }
    assert!(s.contains("\"ruleId\": \"D4\""), "{s}");
    assert!(s.contains("\"uri\": \"crates/analysis/src/metrics.rs\""));
    // Every result must carry a positive startLine for the uploader.
    assert!(!s.contains("\"startLine\": 0"), "{s}");
}

#[test]
fn retired_flags_exit_one() {
    // The cache, the baseline, and the JSON format are gone: their
    // flags must fail loudly rather than be silently ignored.
    for args in [
        &["--no-cache"][..],
        &["--write-baseline"],
        &["--no-baseline"],
        &["--format", "json"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_magellan-lint"))
            .args(args)
            .output()
            .expect("run magellan-lint");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown"), "{args:?}: {err}");
    }
}

#[test]
fn rule_table_in_design_doc_matches_the_binary() {
    let design = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let text = std::fs::read_to_string(design).expect("DESIGN.md at the workspace root");
    // Rows look like `| `D1` | scope | … |` inside §9's rule table.
    let mut documented: Vec<String> = text
        .lines()
        .filter_map(|l| {
            let row = l.strip_prefix("| `")?;
            let id: String = row.chars().take_while(|c| *c != '`').collect();
            let mut chars = id.chars();
            matches!(
                (chars.next(), chars.next(), chars.next()),
                (Some('A'..='Z'), Some('0'..='9'), None)
            )
            .then_some(id)
        })
        .collect();
    documented.sort();
    documented.dedup();
    let mut shipped: Vec<String> = RULES.iter().map(|r| r.id().to_owned()).collect();
    shipped.sort();
    assert_eq!(
        documented, shipped,
        "DESIGN.md §9 rule table and `magellan-lint --list-rules` must agree"
    );
}
