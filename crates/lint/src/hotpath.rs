//! Rules H2/H3: hot-path cost analysis over the workspace call
//! graph.
//!
//! The paper's flash crowds put ~10⁵ concurrent viewers in one
//! channel, so the per-tick and per-sample code paths live or die on
//! per-event cost. The line rules cannot see *where* an allocation
//! sits relative to those paths; this pass can, because it walks
//! the same call graph rule D4 uses ([`crate::reach`]) — just in the
//! opposite direction:
//!
//! 1. **Seed** hot entry points: functions marked with a `lint:hot`
//!    comment (on or above the `fn` line) plus a built-in registry
//!    (`OverlaySim::tick_once`, the per-sample `*_csr` kernel surface,
//!    `analysis::study`'s boundary finalizer) so the gate survives
//!    marker-less refactors.
//! 2. **Propagate** forward over callees: everything a hot entry
//!    reaches is hot.
//! 3. **Report** cost sinks inside hot functions, with the full call
//!    chain from the entry point:
//!    * **H2** — heap allocation: `.collect()`, `.clone()`,
//!      `.to_vec()`, `.to_string()`, `format!`, `Box::new`, plus
//!      collection constructors (`Vec::new`, `with_capacity`,
//!      `vec![`, …) when they sit inside a loop. Governed by
//!      per-crate budgets ([`crate::rules::default_hot_alloc_budgets`]).
//!    * **H3** — whole-collection iteration: `.iter()`/`.keys()`/
//!      `.values()`/`.retain()` over map/set-typed bindings and
//!      `0..len()` range scans — the "no global scans per tick"
//!      invariant the timer-wheel refactor depends on.
//!
//! Suppression: `lint:allow(H2|H3): <why>` on the sink line
//! un-seeds that sink; on a function's `fn` line it exempts every sink
//! in that body; on a hot entry's `fn` line it waives the entry (and
//! with it the whole subtree only that entry makes hot).

use crate::reach::{render_hop, CallGraph, Direction, FnKey};
use crate::rules::over_budget;
use crate::rules::{contains_ident, Rule};
use crate::source::{SourceFile, TargetKind};
use crate::taint::{enclosing_fn, iteration_of, typed_names};
use crate::{Config, CostKind, CostSink, FileSummary, FnSummary, Report, Violation};
use std::collections::BTreeMap;

/// Crates whose code can carry cost sinks: the simulation tick path
/// and the per-sample metric surface. `magellan-par` is deliberately
/// absent — its chunk buffers and scoped spawns *are* the sanctioned
/// parallelism cost, proven worthwhile by the bench baselines.
const COST_GOVERNED: [&str; 6] = [
    "magellan-overlay",
    "magellan-netsim",
    "magellan-workload",
    "magellan-graph",
    "magellan-analysis",
    "magellan-trace",
];

/// Built-in hot entry points (`(crate, fn)`), independent of source
/// markers: the per-tick driver, the per-sample study surface, and the
/// Csr kernel surface the study fans out to via `magellan-par`.
const HOT_REGISTRY: [(&str, &str); 21] = [
    ("magellan-overlay", "tick_once"),
    ("magellan-analysis", "finalize_boundary"),
    ("magellan-graph", "local_clustering_csr"),
    ("magellan-graph", "clustering_coefficient_csr"),
    ("magellan-graph", "sampled_clustering_csr"),
    ("magellan-graph", "bfs_distances_csr"),
    ("magellan-graph", "bfs_multi64_csr"),
    ("magellan-graph", "average_path_length_csr"),
    ("magellan-graph", "core_decomposition_csr"),
    ("magellan-graph", "garlaschelli_reciprocity_csr"),
    ("magellan-graph", "weighted_reciprocity_csr"),
    ("magellan-graph", "label_split_link_counts_csr"),
    ("magellan-graph", "assess_csr"),
    ("magellan-graph", "apply_delta"),
    ("magellan-graph", "sync_snapshot"),
    // The networked service's per-datagram admission path: every
    // report a client puts on the wire goes through these.
    ("magellan-trace", "ingest_wire"),
    ("magellan-trace", "ingest_payload"),
    // Defense hot paths: the per-report token-bucket admission check
    // and the per-chunk chaos-schedule decision.
    ("magellan-trace", "try_admit"),
    ("magellan-netsim", "next_action"),
    // The archive lane both headline paths end in: an append stages
    // a frame in the writer's buffer and a commit hands the disk its
    // work — neither may allocate per report.
    ("magellan-trace", "append"),
    ("magellan-trace", "commit"),
];

/// Allocation needles that cost on every execution: method/macro
/// sinks that materialize a fresh heap object.
const ALLOC_ANYWHERE: [(&str, &str); 6] = [
    (".collect()", "`.collect()` materializes a fresh collection"),
    (
        ".collect::<",
        "`.collect()` materializes a fresh collection",
    ),
    (".to_vec()", "`.to_vec()` copies the slice"),
    (".to_string()", "`.to_string()` allocates"),
    ("format!(", "`format!` allocates"),
    ("Box::new(", "`Box::new` allocates"),
];

/// `.clone()` is listed separately so `Rc::clone`-style refcount bumps
/// can be told apart in the message (they still flag — a hot path
/// should not be bumping refcounts either without saying why).
const CLONE_NEEDLE: (&str, &str) = (".clone()", "`.clone()` deep-copies");

/// Constructors that only flag inside a loop: a one-off buffer at fn
/// entry is amortized, the same buffer re-made per iteration is not.
const ALLOC_IN_LOOP: [&str; 10] = [
    "Vec::new(",
    "Vec::with_capacity(",
    "String::new(",
    "String::with_capacity(",
    "VecDeque::new(",
    "BTreeMap::new(",
    "BTreeSet::new(",
    "HashMap::new(",
    "HashSet::new(",
    "vec![",
];

/// Map/set types whose whole-collection iteration is an H3 scan.
const SCAN_TYPES: [&str; 4] = ["BTreeMap", "BTreeSet", "HashMap", "HashSet"];

/// Detects the cost sinks inside `src`, attributed per function.
///
/// Returns `(fn_index_in_items, sink)` pairs. At most one sink per
/// line and kind, so a line that both clones and collects reads as a
/// single allocation finding.
pub fn detect_sinks(src: &SourceFile, fns: &[crate::items::FnItem]) -> Vec<(usize, CostSink)> {
    if src.kind != TargetKind::Lib || !COST_GOVERNED.contains(&src.crate_name.as_str()) {
        return Vec::new();
    }
    let scan_names = typed_names(src, &SCAN_TYPES);
    let in_loop = mark_loop_lines(&src.code);
    let mut out = Vec::new();
    let mut push = |fn_idx: usize, line: usize, kind: CostKind, what: String| {
        out.push((fn_idx, CostSink { line, kind, what }));
    };
    for (idx, line) in src.code.iter().enumerate() {
        let lineno = idx + 1;
        if src.in_test_module[idx] {
            continue;
        }
        let Some(fn_idx) = enclosing_fn(fns, lineno) else {
            continue;
        };
        // H2 — allocation.
        if !src.is_allowed(lineno, Rule::H2.id()) {
            let anywhere = ALLOC_ANYWHERE
                .iter()
                .find(|(needle, _)| line.contains(needle))
                .map(|&(_, what)| what)
                .or_else(|| line.contains(CLONE_NEEDLE.0).then_some(CLONE_NEEDLE.1));
            let looped = in_loop[idx]
                .then(|| {
                    ALLOC_IN_LOOP
                        .iter()
                        .find(|needle| line.contains(*needle))
                        .map(|n| (*n, "constructor inside a loop allocates per iteration"))
                })
                .flatten();
            if let Some(what) = anywhere {
                push(fn_idx, lineno, CostKind::Alloc, what.to_owned());
            } else if let Some((needle, why)) = looped {
                let ctor = needle.trim_end_matches(['(', '[']);
                push(fn_idx, lineno, CostKind::Alloc, format!("`{ctor}` {why}"));
            }
        }
        // H3 — whole-collection iteration and range scans.
        if !src.is_allowed(lineno, Rule::H3.id()) {
            let mut hit = None;
            for name in &scan_names {
                if let Some(how) = iteration_of(line, name) {
                    hit = Some(format!("whole-collection scan `{how}`"));
                    break;
                }
            }
            if hit.is_none() && is_range_scan(line) {
                hit = Some("range scan over `..len()`".to_owned());
            }
            if let Some(what) = hit {
                push(fn_idx, lineno, CostKind::Scan, what);
            }
        }
    }
    out
}

/// Flags every line inside (or opening) a `for`/`while`/`loop` body.
fn mark_loop_lines(code: &[String]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    // Brace depths at which a loop body opened.
    let mut loop_stack: Vec<i32> = Vec::new();
    let mut depth: i32 = 0;
    for (idx, line) in code.iter().enumerate() {
        // `impl Trait for Type` also contains the `for` keyword; a real
        // for-loop always carries ` in `, so require it.
        let header = (contains_ident(line, "for")
            && contains_ident(line, "in")
            && !contains_ident(line, "impl"))
            || contains_ident(line, "while")
            || contains_ident(line, "loop");
        flags[idx] = header || !loop_stack.is_empty();
        let mut pending = header;
        for c in line.chars() {
            match c {
                '{' => {
                    if pending {
                        loop_stack.push(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if loop_stack.last() == Some(&depth) {
                        loop_stack.pop();
                    }
                }
                _ => {}
            }
        }
    }
    flags
}

/// `for i in 0..xs.len()`-style whole-slab scans.
fn is_range_scan(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("for ")
        && t.find(" in ")
            .map(|p| &t[p + 4..])
            .is_some_and(|tail| tail.contains("..") && tail.contains(".len()"))
}

/// Runs the H2/H3 analysis over the shared call graph and appends
/// violations to `report`.
pub fn check_hot_paths(
    graph: &CallGraph,
    files: &[FileSummary],
    config: &Config,
    report: &mut Report,
) {
    for kind in [CostKind::Alloc, CostKind::Scan] {
        check_kind(graph, files, config, kind, report);
    }
}

/// Whether any definition of the node is a hot entry for `kind`
/// (marker or registry, not waived on its `fn` line).
fn is_hot_seed(
    node: &crate::reach::Node,
    key: &FnKey,
    files: &[FileSummary],
    kind: CostKind,
) -> bool {
    node.defs.iter().any(|d| {
        let f = &files[d.file].fns[d.fun];
        let marked = f.hot_marked || HOT_REGISTRY.contains(&(key.0.as_str(), key.1.as_str()));
        marked && !waived(f, kind)
    })
}

/// Whether the summary's `fn` line carries `lint:allow` for `kind`'s rule.
fn waived(f: &FnSummary, kind: CostKind) -> bool {
    match kind {
        CostKind::Alloc => f.h2_allowed,
        CostKind::Scan => f.h3_allowed,
    }
}

fn check_kind(
    graph: &CallGraph,
    files: &[FileSummary],
    config: &Config,
    kind: CostKind,
    report: &mut Report,
) {
    let rule = kind.rule();
    let seeds: Vec<&FnKey> = graph
        .nodes
        .iter()
        .filter(|(k, n)| is_hot_seed(n, k, files, kind))
        .map(|(k, _)| k)
        .collect();
    if seeds.is_empty() {
        return;
    }
    let dist = graph.reach(&seeds, Direction::Callees);

    // Gather findings: every matching sink inside a hot-reachable
    // definition whose `fn` line does not waive the rule.
    let mut found: Vec<(String, Violation)> = Vec::new();
    for (key, node) in &graph.nodes {
        if !dist.contains_key(key) {
            continue;
        }
        for def in &node.defs {
            let f = &files[def.file].fns[def.fun];
            if waived(f, kind) {
                continue;
            }
            for sink in f.sinks.iter().filter(|s| s.kind == kind) {
                let chain = render_chain(graph, key, &dist, files, sink, def.file);
                let crate_name = files[def.file].crate_name.clone();
                found.push((
                    crate_name,
                    Violation {
                        file: files[def.file].path.clone(),
                        line: sink.line,
                        rule,
                        message: message_for(kind, &key.1, &chain),
                    },
                ));
            }
        }
    }

    if kind == CostKind::Scan {
        report.violations.extend(found.into_iter().map(|(_, v)| v));
        return;
    }
    // H2 is budgeted per sink crate, mirroring the C1 unwrap ratchet:
    // counts at or under the audited budget are the signed-off residue;
    // one over reports the whole crate.
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    for (crate_name, _) in &found {
        *per_crate.entry(crate_name.clone()).or_insert(0) += 1;
    }
    let over = over_budget(&per_crate, &config.hot_alloc_budgets);
    for (crate_name, v) in found {
        if let Some(&(count, budget)) = over.get(crate_name.as_str()) {
            report.violations.push(Violation {
                message: format!(
                    "{} [crate `{crate_name}`: {count} hot allocation(s), budget {budget}]",
                    v.message
                ),
                ..v
            });
        }
    }
}

/// Renders `entry (file:line) -> … -> sink-fn (file:line) -> what at
/// file:line` — the hops run entry-first, so the chain reads in call
/// order even though the BFS recorded it sink-first.
fn render_chain(
    graph: &CallGraph,
    sink_key: &FnKey,
    dist: &BTreeMap<&FnKey, (usize, Option<&FnKey>)>,
    files: &[FileSummary],
    sink: &CostSink,
    sink_file: usize,
) -> String {
    let mut keys = graph.chain(sink_key, dist);
    keys.reverse(); // entry … sink-fn
    let parts: Vec<String> = keys
        .iter()
        .map(|k| render_hop(k, &graph.nodes[*k], files))
        .collect();
    format!(
        "{} -> {} at {}:{}",
        parts.join(" -> "),
        sink.what,
        files[sink_file].path.display(),
        sink.line
    )
}

fn message_for(kind: CostKind, fn_name: &str, chain: &str) -> String {
    match kind {
        CostKind::Alloc => format!(
            "hot-path allocation in `{fn_name}`: {chain} — hoist the buffer out of the \
             per-tick/per-sample path, reuse scratch storage, or justify with lint:allow(H2)"
        ),
        CostKind::Scan => format!(
            "hot-path whole-collection scan in `{fn_name}`: {chain} — per-tick code must \
             touch only the peers an event names (ROADMAP item 1); index or bucket instead, \
             or justify with lint:allow(H3)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn summarize(path: &str, text: &str) -> FileSummary {
        let src = SourceFile::parse(PathBuf::from(path), text);
        crate::analyze_file(&src)
    }

    fn hot(files: &[FileSummary]) -> Vec<Violation> {
        let graph = CallGraph::build(files, &BTreeMap::new());
        let mut report = Report::default();
        check_hot_paths(&graph, files, &crate::Config::default(), &mut report);
        report.violations
    }

    #[test]
    fn registry_entries_resolve_to_workspace_fns() {
        // `is_hot_seed` matches the registry by name only, so a stale
        // or renamed entry would silently guard nothing.
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate::find_workspace_root(here).expect("runs inside the workspace");
        let mut defined = std::collections::BTreeSet::new();
        for path in crate::collect_workspace_sources(&root).expect("workspace walkable") {
            let text = std::fs::read_to_string(root.join(&path)).expect("source readable");
            let summary = crate::analyze_file(&SourceFile::parse(path, &text));
            for f in summary.fns.iter().filter(|f| !f.in_test) {
                defined.insert((summary.crate_name.clone(), f.name.clone()));
            }
        }
        for (krate, name) in HOT_REGISTRY {
            assert!(
                defined.contains(&(krate.to_owned(), name.to_owned())),
                "HOT_REGISTRY entry {krate}::{name} names no fn in the workspace"
            );
        }
    }

    #[test]
    fn loop_lines_are_marked() {
        let src = SourceFile::parse(
            PathBuf::from("crates/overlay/src/x.rs"),
            "fn f() {\n    let a = 1;\n    for i in 0..3 {\n        let b = i;\n    }\n    let c = 2;\n}\n",
        );
        let flags = mark_loop_lines(&src.code);
        assert_eq!(flags, vec![false, false, true, true, true, false, false]);
    }

    #[test]
    fn direct_allocation_in_marked_hot_fn_fires() {
        let f = summarize(
            "crates/overlay/src/x.rs",
            "// lint:hot: per-tick driver\npub fn drive(xs: &[u32]) -> Vec<u32> {\n    xs.iter().copied().collect()\n}\n",
        );
        let vs = hot(&[f]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, Rule::H2);
        assert!(vs[0].message.contains("drive()"), "{}", vs[0].message);
    }

    #[test]
    fn constructor_outside_loop_is_amortized() {
        let f = summarize(
            "crates/overlay/src/x.rs",
            "// lint:hot\npub fn drive(n: usize) -> usize {\n    let buf: Vec<u32> = Vec::with_capacity(n);\n    buf.capacity()\n}\n",
        );
        assert!(hot(&[f]).is_empty());
    }

    #[test]
    fn constructor_inside_loop_fires() {
        let f = summarize(
            "crates/overlay/src/x.rs",
            "// lint:hot\npub fn drive(n: usize) -> usize {\n    let mut total = 0;\n    for _ in 0..n {\n        let buf: Vec<u32> = Vec::with_capacity(4);\n        total += buf.capacity();\n    }\n    total\n}\n",
        );
        let vs = hot(&[f]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, Rule::H2);
        assert_eq!(vs[0].line, 5);
    }

    #[test]
    fn cold_allocation_is_inert() {
        let f = summarize(
            "crates/overlay/src/x.rs",
            "pub fn setup(xs: &[u32]) -> Vec<u32> {\n    xs.to_vec()\n}\n",
        );
        assert!(hot(&[f]).is_empty());
    }

    #[test]
    fn transitive_chain_is_rendered_entry_first() {
        let helper = summarize(
            "crates/graph/src/h.rs",
            "pub fn degree_sequence(off: &[usize]) -> Vec<usize> {\n    off.to_vec()\n}\n",
        );
        let entry = summarize(
            "crates/analysis/src/e.rs",
            "use magellan_graph::h::degree_sequence;\n// lint:hot: per-sample surface\npub fn sample(off: &[usize]) -> usize {\n    degree_sequence(off).len()\n}\n",
        );
        let vs = hot(&[helper, entry]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        let m = &vs[0].message;
        let sample_pos = m.find("sample()").expect("entry hop");
        let helper_pos = m.find("degree_sequence()").expect("sink hop");
        assert!(sample_pos < helper_pos, "{m}");
        assert!(m.contains("crates/graph/src/h.rs:2"), "{m}");
    }

    #[test]
    fn sink_line_allow_suppresses() {
        let f = summarize(
            "crates/overlay/src/x.rs",
            "// lint:hot\npub fn drive(xs: &[u32]) -> Vec<u32> {\n    // lint:allow(H2): bounded by fanout, not population\n    xs.iter().copied().collect()\n}\n",
        );
        assert!(hot(&[f]).is_empty());
    }

    #[test]
    fn entry_fn_allow_waives_the_subtree() {
        let f = summarize(
            "crates/overlay/src/x.rs",
            "// lint:hot\npub fn drive(xs: &[u32]) -> Vec<u32> { // lint:allow(H2): startup-only path measured cold\n    helper(xs)\n}\nfn helper(xs: &[u32]) -> Vec<u32> {\n    xs.to_vec()\n}\n",
        );
        assert!(hot(&[f]).is_empty());
    }

    #[test]
    fn range_scan_fires_h3() {
        let f = summarize(
            "crates/overlay/src/x.rs",
            "// lint:hot\npub fn drive(xs: &[u32]) -> u32 {\n    let mut t = 0;\n    for i in 0..xs.len() {\n        t += xs[i];\n    }\n    t\n}\n",
        );
        let vs = hot(&[f]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, Rule::H3);
        assert_eq!(vs[0].line, 4);
    }

    #[test]
    fn map_iteration_fires_h3() {
        let f = summarize(
            "crates/overlay/src/x.rs",
            "// lint:hot\npub fn drive(peers: &std::collections::BTreeMap<u32, u32>) -> u32 {\n    let known: BTreeMap<u32, u32> = peers.clone();\n    // lint:allow(H2): test scaffold\n    known.values().sum()\n}\n",
        );
        let vs = hot(&[f]);
        // line 3: H2 (.clone()); line 5: H3 (values over a map).
        let h3: Vec<_> = vs.iter().filter(|v| v.rule == Rule::H3).collect();
        assert_eq!(h3.len(), 1, "{vs:?}");
        assert_eq!(h3[0].line, 5);
    }

    #[test]
    fn h2_budget_absorbs_audited_residue() {
        let f = summarize(
            "crates/overlay/src/x.rs",
            "// lint:hot\npub fn drive(xs: &[u32]) -> Vec<u32> {\n    xs.to_vec()\n}\n",
        );
        let graph = CallGraph::build(std::slice::from_ref(&f), &BTreeMap::new());
        let mut config = crate::Config::default();
        config
            .hot_alloc_budgets
            .insert("magellan-overlay".to_owned(), 1);
        let mut report = Report::default();
        check_hot_paths(&graph, &[f], &config, &mut report);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn registry_seeds_without_marker() {
        let f = summarize(
            "crates/overlay/src/sim.rs",
            "pub fn tick_once(xs: &[u32]) -> Vec<u32> {\n    xs.to_vec()\n}\n",
        );
        let vs = hot(&[f]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, Rule::H2);
    }
}
