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

use magellan_lint::{
    lint_workspace, lint_workspace_cached, render_human, render_json, render_sarif, Config, RULES,
};
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
fn json_output_matches_golden_and_is_byte_stable() {
    let root = fixture_root();
    let a = render_json(&lint_workspace(&root, &Config::default()).expect("first run"));
    let b = render_json(&lint_workspace(&root, &Config::default()).expect("second run"));
    assert_eq!(a, b, "two runs over the same tree must be byte-identical");
    check_golden("expected_report.json", &a);
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
    // H3 anchors at the hot entry's own scan; P2 at the justified lock.
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
    let p2: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "P2")
        .collect();
    assert_eq!(p2.len(), 1, "{p2:?}");
    assert!(
        p2[0].message.contains("behind a lint:allow(P1)"),
        "{}",
        p2[0].message
    );
    assert!(
        p2[0].file == Path::new("crates/netsim/src/pump.rs"),
        "{:?}",
        p2[0].file
    );
}

#[test]
fn lock_order_cycle_crosses_the_crate_boundary() {
    let report = lint_workspace(&fixture_root(), &Config::default()).expect("fixture tree");
    let l1: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "L1")
        .collect();
    assert_eq!(l1.len(), 1, "{l1:?}");
    let m = &l1[0].message;
    // The cycle ring, named from its lexicographically smallest class.
    assert!(m.contains("`INGEST` -> `JOURNAL` -> `INGEST`"), "{m}");
    // Both directions carry their full chains: the ingest side calls
    // into the trace crate, the journal side re-acquires admission.
    assert!(m.contains("admit_batch()"), "{m}");
    assert!(m.contains("rotate_journal()"), "{m}");
    assert!(m.contains("flush_and_admit()"), "{m}");
    assert!(m.contains("admit()"), "{m}");
    assert!(m.contains("crates/trace/src/locks.rs"), "{m}");
    assert!(
        l1[0].file == Path::new("crates/analysis/src/ingest.rs"),
        "cycle must anchor at the first edge's held acquisition, got {:?}",
        l1[0].file
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
fn pool_boundary_hazards_fire() {
    let report = lint_workspace(&fixture_root(), &Config::default()).expect("fixture tree");
    let s1: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "S1")
        .collect();
    assert_eq!(s1.len(), 2, "{s1:?}");
    assert!(
        s1.iter()
            .any(|v| v.message.contains("manual `unsafe impl Send`")),
        "{s1:?}"
    );
    assert!(
        s1.iter().any(|v| {
            v.message.contains("guard of `TELEMETRY`")
                && v.message
                    .contains("held across pool call `par_map_collect`")
        }),
        "{s1:?}"
    );
    assert!(
        s1.iter()
            .all(|v| v.file == Path::new("crates/netsim/src/boundary.rs")),
        "{s1:?}"
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

/// Copies the fixture tree into a scratch directory so the cache test
/// can write `target/` without dirtying the repo.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("readdir") {
        let entry = entry.expect("entry");
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy");
        }
    }
}

#[test]
fn cold_and_warm_cache_runs_are_identical() {
    let scratch = std::env::temp_dir().join(format!("magellan-lint-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_tree(&fixture_root(), &scratch);

    let cold = lint_workspace_cached(&scratch, &Config::default(), true).expect("cold run");
    assert!(
        scratch.join("target/magellan-lint-cache.v3").is_file(),
        "cold run must persist the cache"
    );
    let warm = lint_workspace_cached(&scratch, &Config::default(), true).expect("warm run");
    assert_eq!(render_json(&cold), render_json(&warm));
    assert_eq!(cold.files_scanned, warm.files_scanned);

    // And the cache must never change the answer vs. an uncached run.
    let uncached = lint_workspace_cached(&scratch, &Config::default(), false).expect("uncached");
    assert_eq!(render_json(&uncached), render_json(&warm));

    let _ = std::fs::remove_dir_all(&scratch);
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
