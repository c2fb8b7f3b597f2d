//! Self-test for the lint gate, in three layers:
//!
//! 1. the real workspace must be clean under the default config (this
//!    is the same check CI runs via `scripts/check.sh`);
//! 2. every rule must actually fire when a violation is injected
//!    in-memory — a lint that silently stops matching is worse than no
//!    lint, because it keeps green-lighting regressions;
//! 3. the runtime invariant layer in `magellan-graph` must hold on
//!    generated topologies: the lint gate and the invariant checks are
//!    two halves of the same determinism policy, so the gate's
//!    self-test exercises both.

use magellan_lint::{
    default_unsafe_budgets, default_unwrap_budgets, find_workspace_root, lint_sources,
    lint_workspace, Config, SourceFile,
};
use std::path::{Path, PathBuf};

fn parse(path: &str, text: &str) -> SourceFile {
    SourceFile::parse(PathBuf::from(path), text)
}

fn rule_ids(sources: &[SourceFile], config: &Config) -> Vec<String> {
    lint_sources(sources, config)
        .violations
        .into_iter()
        .map(|v| v.rule.id().to_owned())
        .collect()
}

#[test]
fn workspace_is_lint_clean() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(manifest_dir).expect("selftest runs inside the workspace");
    let report = lint_workspace(&root, &Config::default()).expect("workspace sources readable");
    assert!(
        report.files_scanned > 50,
        "walker found only {} files",
        report.files_scanned
    );
    let rendered: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn injected_hash_iteration_is_detected() {
    let src = parse(
        "crates/overlay/src/injected.rs",
        "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"D1".to_owned()), "got {ids:?}");
}

#[test]
fn injected_wall_clock_is_detected() {
    let src = parse(
        "crates/graph/src/injected.rs",
        "pub fn now_ms() -> u128 {\n    std::time::SystemTime::now().elapsed().unwrap().as_millis()\n}\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"D2".to_owned()), "got {ids:?}");
}

#[test]
fn injected_float_equality_is_detected() {
    let src = parse(
        "crates/analysis/src/injected.rs",
        "pub fn is_half(x: f64) -> bool {\n    x == 0.5\n}\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"C2".to_owned()), "got {ids:?}");
}

#[test]
fn injected_lossy_cast_is_detected() {
    let src = parse(
        "crates/graph/src/injected.rs",
        "pub fn small(v: &[u64]) -> u16 {\n    v.len() as u16\n}\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"C3".to_owned()), "got {ids:?}");
}

#[test]
fn injected_budget_overrun_is_detected() {
    let src = parse(
        "crates/lint/src/injected.rs",
        "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"C1".to_owned()), "got {ids:?}");
}

#[test]
fn injected_transitive_taint_is_detected() {
    // The entry point itself is hash-free; the taint sits in a private
    // helper, so only the call-graph pass (D4) can see it.
    let src = parse(
        "crates/analysis/src/injected.rs",
        "pub fn entry() -> Vec<u32> {\n    helper()\n}\nfn helper() -> Vec<u32> {\n    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();\n    m.keys().copied().collect()\n}\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"D4".to_owned()), "got {ids:?}");
}

#[test]
fn injected_hot_allocation_is_detected_with_chain() {
    // The hot entry itself is allocation-free; the `.collect()` sits in
    // a private helper, so only the forward call-graph pass (H2) can
    // see it — and the finding must carry the full chain.
    let src = parse(
        "crates/overlay/src/injected.rs",
        "// lint:hot: per-tick driver\npub fn drive(xs: &[u32]) -> Vec<u32> {\n    widen(xs)\n}\nfn widen(xs: &[u32]) -> Vec<u32> {\n    xs.iter().map(|x| x + 1).collect()\n}\n",
    );
    let report = lint_sources(&[src], &Config::default());
    let h2: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "H2")
        .collect();
    assert_eq!(h2.len(), 1, "{:?}", report.violations);
    assert!(h2[0].message.contains("drive()"), "{}", h2[0].message);
    assert!(h2[0].message.contains("widen()"), "{}", h2[0].message);
}

#[test]
fn self_method_call_resolves_to_the_callers_crate() {
    // Both crates define `flush`; only the trace one allocates. The hot
    // entry's `self.flush()` is its own type's method, so no H2 chain
    // may cross into `magellan-trace` — while a call on any other
    // receiver still over-approximates across the crate edge.
    let trace = parse(
        "crates/trace/src/uplink.rs",
        "pub fn flush(q: &mut Vec<u32>) -> Vec<u32> {\n    q.drain(..).collect()\n}\n",
    );
    let window = |call: &str| {
        parse(
            "crates/analysis/src/window.rs",
            &format!(
                "// lint:hot: per-boundary finalizer\npub fn finalize(&mut self) {{\n    {call};\n}}\nfn flush(&mut self) {{\n    self.n = 0;\n}}\n"
            ),
        )
    };
    let h2 = |sources: &[SourceFile]| {
        lint_sources(sources, &Config::default())
            .violations
            .into_iter()
            .filter(|v| v.rule.id() == "H2")
            .count()
    };
    assert_eq!(h2(&[window("self.flush()"), trace.clone()]), 0);
    assert_eq!(h2(&[window("self.uplink.flush()"), trace]), 1);
}

#[test]
fn injected_hot_scan_is_detected() {
    let src = parse(
        "crates/overlay/src/injected.rs",
        "// lint:hot\npub fn drive(xs: &[u32]) -> u32 {\n    let mut t = 0;\n    for i in 0..xs.len() {\n        t += xs[i];\n    }\n    t\n}\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"H3".to_owned()), "got {ids:?}");
}

#[test]
fn injected_lock_is_detected() {
    let src = parse(
        "crates/netsim/src/injected.rs",
        "pub fn f() -> bool {\n    let m: std::sync::Mutex<u32> = std::sync::Mutex::new(0);\n    m.lock().is_ok()\n}\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"P1".to_owned()), "got {ids:?}");
}

#[test]
fn injected_unsafe_without_contract_is_detected() {
    let src = parse(
        "crates/graph/src/injected.rs",
        "pub fn first(xs: &[u32]) -> u32 {\n    unsafe { *xs.as_ptr() }\n}\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"U1".to_owned()), "got {ids:?}");

    // A named contract satisfies the per-site rule; the only remaining
    // U1 is the budget ratchet (magellan-graph's budget is 0).
    let contracted = parse(
        "crates/graph/src/injected.rs",
        "pub fn first(xs: &[u32]) -> u32 {\n    // SAFETY: caller guarantees xs is non-empty\n    unsafe { *xs.as_ptr() }\n}\n",
    );
    let report = lint_sources(&[contracted], &Config::default());
    let u1: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "U1")
        .collect();
    assert_eq!(u1.len(), 1, "{u1:?}");
    assert!(u1[0].message.contains("over its audited budget"), "{u1:?}");
}

#[test]
fn injected_manual_send_impl_is_a_u1_finding() {
    // A hand-written `Send`/`Sync` claim is an `unsafe impl` like any
    // other: it needs a written contract and counts against the budget.
    let src = parse(
        "crates/overlay/src/injected.rs",
        "pub struct Slot(pub *mut u8);\n\nunsafe impl Sync for Slot {}\n",
    );
    let report = lint_sources(&[src], &Config::default());
    let u1: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule.id() == "U1")
        .collect();
    assert_eq!(u1.len(), 2, "{:?}", report.violations);
    assert!(
        u1.iter().any(|v| v
            .message
            .contains("`unsafe impl` without a safety contract")),
        "{u1:?}"
    );
    assert!(
        u1.iter()
            .any(|v| v.message.contains("over its audited budget")),
        "{u1:?}"
    );
}

#[test]
fn injected_index_arithmetic_is_detected() {
    let src = parse(
        "crates/graph/src/injected.rs",
        "pub fn row(off: &[usize], i: usize) -> usize {\n    off[i + 1]\n}\n",
    );
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"C4".to_owned()), "got {ids:?}");
}

#[test]
fn injected_missing_headers_are_detected() {
    let src = parse("crates/graph/src/lib.rs", "//! Docs.\n\npub mod x;\n");
    let ids = rule_ids(&[src], &Config::default());
    assert!(ids.contains(&"H1".to_owned()), "got {ids:?}");
}

#[test]
fn allow_annotation_suppresses_and_malformed_allow_fires_m1() {
    let allowed = parse(
        "crates/analysis/src/injected.rs",
        "pub fn near_zero(x: f64) -> bool {\n    // lint:allow(C2): exact sentinel comparison\n    x == 0.0\n}\n",
    );
    assert!(
        rule_ids(&[allowed], &Config::default()).is_empty(),
        "justified allow should suppress C2"
    );

    let unjustified = parse(
        "crates/analysis/src/injected.rs",
        "pub fn near_zero(x: f64) -> bool {\n    // lint:allow(C2)\n    x == 0.0\n}\n",
    );
    let ids = rule_ids(&[unjustified], &Config::default());
    assert!(ids.contains(&"M1".to_owned()), "got {ids:?}");
}

#[test]
fn tighter_budget_flags_existing_counts() {
    let mut config = Config::default();
    config.unwrap_budgets.insert("magellan-demo".to_owned(), 1);
    let src = parse(
        "crates/demo/src/injected.rs",
        "pub fn f(v: Option<u32>, w: Option<u32>) -> u32 {\n    v.unwrap() + w.unwrap()\n}\n",
    );
    let report = lint_sources(&[src], &config);
    assert_eq!(report.unwrap_counts.get("magellan-demo"), Some(&2));
    assert!(
        report.violations.iter().any(|v| v.rule.id() == "C1"),
        "2 unwraps over a budget of 1 must fire C1"
    );
}

#[test]
fn default_budgets_cover_every_workspace_crate() {
    let budgets = default_unwrap_budgets();
    for name in [
        "magellan",
        "magellan-analysis",
        "magellan-bench",
        "magellan-graph",
        "magellan-lint",
        "magellan-netsim",
        "magellan-overlay",
        "magellan-trace",
        "magellan-workload",
    ] {
        assert!(budgets.contains_key(name), "no C1 budget for {name}");
    }
    assert_eq!(
        budgets.get("magellan-lint"),
        Some(&0),
        "the lint crate leads by example"
    );
    let unsafe_budgets = default_unsafe_budgets();
    assert_eq!(
        unsafe_budgets.get("magellan-par"),
        Some(&4),
        "the pool's four lifetime-erasure sites"
    );
    assert_eq!(
        unsafe_budgets.get("magellan"),
        Some(&1),
        "the facade's one audited site: the traced drain-signal binding"
    );
    assert!(
        unsafe_budgets
            .iter()
            .all(|(k, v)| matches!(k.as_str(), "magellan-par" | "magellan") || *v == 0),
        "every other crate stays at an unsafe budget of zero: {unsafe_budgets:?}"
    );
}

mod graph_invariants {
    //! Layer 3: the runtime invariant suite holds on generated
    //! topologies across deterministic seeds and arbitrary edge lists.

    use magellan_graph::invariants::{check_all, check_unit_interval};
    use magellan_graph::random::{barabasi_albert, gnm_directed, watts_strogatz};
    use magellan_graph::{Csr, NodeId};
    use proptest::prelude::*;

    #[test]
    fn generated_topologies_satisfy_all_invariants() {
        for seed in [1u64, 7, 42, 2006] {
            let g = gnm_directed(60, 240, seed);
            check_all(&g).unwrap_or_else(|v| panic!("gnm seed {seed}: {v}"));
            let g = watts_strogatz(40, 4, 0.2, seed);
            check_all(&g).unwrap_or_else(|v| panic!("watts-strogatz seed {seed}: {v}"));
            let g = barabasi_albert(50, 3, seed);
            check_all(&g).unwrap_or_else(|v| panic!("barabasi-albert seed {seed}: {v}"));
        }
    }

    #[test]
    fn unit_interval_checker_rejects_bad_metrics() {
        assert!(check_unit_interval("r", 0.5).is_ok());
        assert!(check_unit_interval("r", 1.0 + 1e-9).is_err());
        assert!(check_unit_interval("r", f64::NAN).is_err());
    }

    fn arb_graph() -> impl Strategy<Value = Csr> {
        proptest::collection::vec((0usize..16, 0usize..16, 1u64..50), 0..100).prop_map(|edges| {
            let edges: Vec<_> = edges
                .into_iter()
                .map(|(a, b, w)| (NodeId::from_index(a), NodeId::from_index(b), w))
                .collect();
            Csr::from_edges(16, &edges)
        })
    }

    proptest! {
        #[test]
        fn arbitrary_graphs_never_violate_invariants(g in arb_graph()) {
            if let Err(v) = check_all(&g) {
                return Err(TestCaseError::fail(format!("invariant violated: {v}")));
            }
        }
    }
}
