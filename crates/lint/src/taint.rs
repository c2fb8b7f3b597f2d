//! Rule D4: transitive determinism-taint analysis over the workspace
//! call graph.
//!
//! The line-local rules (D1–D3) catch nondeterminism at the use site,
//! but only inside the crates they govern. A simulation entry point
//! can still reach ambient entropy *through a helper in another
//! crate* — exactly how a hash-ordered `HashSet` in
//! `magellan_graph::random` once leaked into `barabasi_albert`'s
//! output. This module closes that hole:
//!
//! 1. **Seed** taint sources: wall-clock reads, OS entropy, raw thread
//!    spawns, and — the subtle one — *iteration over hash-ordered
//!    collections* (declared `HashMap`/`HashSet` locals and fields
//!    whose `.iter()`/`.keys()`/`.values()`/`.drain()`/`for … in`
//!    sites leak per-process order).
//! 2. **Propagate** reachability backwards over the workspace call
//!    graph ([`crate::reach`] — name-based resolution through `use`
//!    imports and the crate dependency graph, an over-approximation
//!    documented in DESIGN.md §9).
//! 3. **Report** every public entry point in the simulation, metric,
//!    and trace-substrate crates (`overlay`, `netsim`, `workload`,
//!    `graph`, `analysis`, `trace`) that can reach a source, printing
//!    the full call chain from the entry point down to the offending
//!    line.
//!
//! A `lint:allow(D4): <why>` on the *source line* certifies the
//! iteration (or read) as order-insensitive and un-seeds it for every
//! caller; on an *entry point's `fn` line* it waives that one entry.

use crate::reach::{render_hop, CallGraph, Direction, FnKey};
use crate::rules::Rule;
use crate::source::{SourceFile, TargetKind};
use crate::{FileSummary, Report, TaintKind, TaintSource, Violation};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose public functions are D4 entry points.
const ENTRY_CRATES: [&str; 6] = [
    "magellan-overlay",
    "magellan-netsim",
    "magellan-workload",
    "magellan-graph",
    "magellan-analysis",
    "magellan-trace",
];

/// Crates whose internals never seed taint: the bench harness times
/// things by design, and `magellan-par`'s order-preserving primitives
/// are proven deterministic by the parallel-equivalence tests.
const SEED_EXEMPT: [&str; 2] = ["magellan-bench", "magellan-par"];

/// Sim-path crates where rule D1 already bans hash collections
/// wholesale; depth-0 hash findings there would double-report.
const D1_CRATES: [&str; 3] = ["magellan-overlay", "magellan-netsim", "magellan-workload"];

/// Direct needles: pattern, taint kind, human label.
const NEEDLES: [(&str, TaintKind, &str); 7] = [
    ("SystemTime::now", TaintKind::Clock, "wall-clock read"),
    ("Instant::now", TaintKind::Clock, "wall-clock read"),
    ("thread_rng", TaintKind::Entropy, "ambient OS entropy"),
    ("rand::rng()", TaintKind::Entropy, "ambient OS entropy"),
    ("from_entropy", TaintKind::Entropy, "ambient OS entropy"),
    ("thread::spawn", TaintKind::Spawn, "raw thread spawn"),
    ("thread::Builder", TaintKind::Spawn, "raw thread spawn"),
];

/// Method suffixes whose iteration walks the whole collection.
const ITER_TOKENS: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".retain(",
];

/// Detects the taint sources inside `src`, attributed per function.
///
/// Returns `(fn_index_in_items, source)` pairs; sources outside any
/// function (e.g. in `const` initializers) are dropped — they cannot
/// be reached through the call graph anyway.
pub fn detect_sources(src: &SourceFile, fns: &[crate::items::FnItem]) -> Vec<(usize, TaintSource)> {
    if src.kind != TargetKind::Lib || SEED_EXEMPT.contains(&src.crate_name.as_str()) {
        return Vec::new();
    }
    let hash_names = typed_names(src, &["HashMap", "HashSet"]);
    let mut out = Vec::new();
    for (idx, line) in src.code.iter().enumerate() {
        let lineno = idx + 1;
        if src.in_test_module[idx] || src.is_allowed(lineno, Rule::D4.id()) {
            continue;
        }
        let Some(fn_idx) = enclosing_fn(fns, lineno) else {
            continue;
        };
        for (needle, kind, label) in NEEDLES {
            if line.contains(needle) {
                out.push((
                    fn_idx,
                    TaintSource {
                        line: lineno,
                        kind,
                        what: format!("{label} `{needle}`"),
                    },
                ));
            }
        }
        for name in &hash_names {
            if let Some(how) = iteration_of(line, name) {
                out.push((
                    fn_idx,
                    TaintSource {
                        line: lineno,
                        kind: TaintKind::HashOrder,
                        what: format!(
                            "hash-ordered iteration `{how}` — \
                             HashMap/HashSet order varies per process"
                        ),
                    },
                ));
            }
        }
    }
    out
}

/// Collects names bound (or typed) as any of the `markers` collection
/// types anywhere in the file: `let` bindings, struct fields, and
/// parameters. Tracking is file-local by design — a field iterated
/// from another file needs its own binding there to be seen.
pub(crate) fn typed_names(src: &SourceFile, markers: &[&str]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in &src.code {
        if !markers.iter().any(|m| line.contains(m)) {
            continue;
        }
        let t = line.trim_start();
        // `let [mut] name ... = HashMap::…` / `let name: HashMap<…>`.
        if let Some(rest) = t.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                names.insert(name);
            }
            continue;
        }
        // `name: HashMap<…>` — struct field or parameter.
        if let Some(colon) = t.find(':') {
            if markers.iter().any(|m| t[colon..].contains(m)) {
                let head = t[..colon].trim();
                let head = head.strip_prefix("pub ").unwrap_or(head);
                let head = head.split_whitespace().last().unwrap_or("");
                if !head.is_empty()
                    && head.chars().all(|c| c.is_alphanumeric() || c == '_')
                    && head
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_')
                {
                    names.insert(head.to_owned());
                }
            }
        }
    }
    names
}

/// Whether `line` iterates the whole of the binding `name` (directly
/// or through `self.`), returning a `name.method` / `for … in name`
/// description when it does.
pub(crate) fn iteration_of(line: &str, name: &str) -> Option<String> {
    for owner in [name.to_owned(), format!("self.{name}")] {
        for token in ITER_TOKENS {
            let pat = format!("{owner}{token}");
            if let Some(pos) = line.find(&pat) {
                if ident_boundary_before(line, pos) {
                    let method = token.trim_start_matches('.');
                    let method = &method[..method.find(['(', ')']).unwrap_or(method.len())];
                    return Some(format!("{name}.{method}"));
                }
            }
        }
        // `for x in &name` / `for x in name` at statement level.
        if let Some(in_pos) = line.find(" in ") {
            let tail = line[in_pos + 4..].trim_start();
            let tail = tail.strip_prefix("&mut ").unwrap_or(tail);
            let tail = tail.strip_prefix('&').unwrap_or(tail);
            let stripped = tail.strip_prefix(owner.as_str());
            if line.trim_start().starts_with("for ")
                && stripped.is_some_and(|rest| {
                    !rest
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.')
                })
            {
                return Some(format!("for … in {name}"));
            }
        }
    }
    None
}

fn ident_boundary_before(line: &str, pos: usize) -> bool {
    pos == 0
        || !line[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.')
}

/// The innermost function whose body span covers `lineno`.
pub(crate) fn enclosing_fn(fns: &[crate::items::FnItem], lineno: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, f) in fns.iter().enumerate() {
        if f.body_start <= lineno && lineno <= f.body_end {
            let tighter = match best {
                None => true,
                Some(b) => (f.body_end - f.body_start) < (fns[b].body_end - fns[b].body_start),
            };
            if tighter {
                best = Some(i);
            }
        }
    }
    best
}

/// Taint sources inside any definition of `key`'s node, as
/// `(file_idx, source)` pairs in definition order.
fn node_sources<'a>(
    graph: &CallGraph,
    key: &FnKey,
    files: &'a [FileSummary],
) -> Vec<(usize, &'a TaintSource)> {
    let Some(node) = graph.nodes.get(key) else {
        return Vec::new();
    };
    node.defs
        .iter()
        .flat_map(|d| {
            files[d.file].fns[d.fun]
                .sources
                .iter()
                .map(move |s| (d.file, s))
        })
        .collect()
}

/// Runs the D4 analysis over the shared call graph and appends
/// violations to `report`.
pub fn check_taint(graph: &CallGraph, files: &[FileSummary], report: &mut Report) {
    // Seeds: every node containing at least one taint source.
    let seeds: Vec<&FnKey> = graph
        .nodes
        .iter()
        .filter(|(_, n)| {
            n.defs
                .iter()
                .any(|d| !files[d.file].fns[d.fun].sources.is_empty())
        })
        .map(|(k, _)| k)
        .collect();
    let dist = graph.reach(&seeds, Direction::Callers);

    // Report tainted entry points.
    for (key, node) in &graph.nodes {
        let Some(&(d, _)) = dist.get(key) else {
            continue;
        };
        let entry_def = node.defs.iter().find(|def| {
            let f = &files[def.file].fns[def.fun];
            f.is_pub && ENTRY_CRATES.contains(&files[def.file].crate_name.as_str()) && !f.d4_allowed
        });
        let Some(def) = entry_def else {
            continue;
        };
        if d == 0 {
            // Depth 0: the entry contains the source itself. Wall
            // clock, entropy, and spawns are D2/D3's findings; hash
            // iteration in D1-governed crates is D1's. Only
            // hash-order sources in the metric crates are D4's alone.
            let direct_hash = node_sources(graph, key, files).iter().any(|(_, s)| {
                s.kind == TaintKind::HashOrder && !D1_CRATES.contains(&key.0.as_str())
            });
            if !direct_hash {
                continue;
            }
        }
        let chain = render_chain(graph, key, &dist, files);
        report.violations.push(Violation {
            file: files[def.file].path.clone(),
            line: files[def.file].fns[def.fun].def_line,
            rule: Rule::D4,
            message: format!(
                "public entry point `{}` can transitively reach nondeterminism: {chain} — \
                 make the sink order-insensitive (sort / BTree collections / seeded RNG) or \
                 justify the source line with lint:allow(D4)",
                key.1
            ),
        });
    }
}

/// Renders `entry -> hop (file:line) -> … : source at file:line`.
fn render_chain(
    graph: &CallGraph,
    entry: &FnKey,
    dist: &BTreeMap<&FnKey, (usize, Option<&FnKey>)>,
    files: &[FileSummary],
) -> String {
    let keys = graph.chain(entry, dist);
    let parts: Vec<String> = keys
        .iter()
        .map(|k| render_hop(k, &graph.nodes[*k], files))
        .collect();
    // The BFS only reaches nodes whose chain ends at a seeded node, so
    // the last hop has sources; the fallback keeps the walk total.
    let sources = keys
        .last()
        .map(|k| node_sources(graph, k, files))
        .unwrap_or_default();
    let Some(source) = sources.iter().min_by_key(|(f, s)| (*f, s.line)) else {
        return parts.join(" -> ");
    };
    format!(
        "{} -> {} at {}:{}",
        parts.join(" -> "),
        source.1.what,
        files[source.0].path.display(),
        source.1.line
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn summarize(path: &str, text: &str) -> FileSummary {
        let src = SourceFile::parse(PathBuf::from(path), text);
        crate::analyze_file(&src)
    }

    fn d4_with(files: &[FileSummary], deps: &BTreeMap<String, BTreeSet<String>>) -> Vec<Violation> {
        let graph = CallGraph::build(files, deps);
        let mut report = Report::default();
        check_taint(&graph, files, &mut report);
        report.violations
    }

    fn d4(files: &[FileSummary]) -> Vec<Violation> {
        d4_with(files, &BTreeMap::new())
    }

    #[test]
    fn hash_typed_names_are_collected() {
        let src = SourceFile::parse(
            PathBuf::from("crates/analysis/src/x.rs"),
            "struct S {\n    recent: HashMap<u32, u32>,\n}\nfn f() {\n    let mut times: HashMap<u32, u32> = HashMap::new();\n    let seen = HashSet::new();\n    let plain: Vec<u32> = vec![];\n}\n",
        );
        let names = typed_names(&src, &["HashMap", "HashSet"]);
        assert!(names.contains("recent"));
        assert!(names.contains("times"));
        assert!(names.contains("seen"));
        assert!(!names.contains("plain"));
    }

    #[test]
    fn direct_hash_iteration_in_metric_entry_fires_depth_zero() {
        let f = summarize(
            "crates/analysis/src/x.rs",
            "pub fn shares() -> Vec<u32> {\n    let counts: HashMap<u32, u32> = HashMap::new();\n    counts.values().copied().collect()\n}\n",
        );
        let vs = d4(&[f]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, Rule::D4);
        assert!(vs[0].message.contains("counts.values"), "{}", vs[0].message);
    }

    #[test]
    fn transitive_chain_across_crates_is_reported_with_path() {
        let helper = summarize(
            "crates/trace/src/helper.rs",
            "pub fn leak() -> Vec<u32> {\n    let m: HashMap<u32, u32> = HashMap::new();\n    m.keys().copied().collect()\n}\n",
        );
        let entry = summarize(
            "crates/analysis/src/entry.rs",
            "use magellan_trace::helper::leak;\npub fn study() -> Vec<u32> {\n    leak()\n}\n",
        );
        let vs = d4(&[helper, entry]);
        // Two findings: `study` transitively, and — since the trace
        // substrate is itself an entry crate — `leak` at depth 1.
        assert_eq!(vs.len(), 2, "{vs:?}");
        let m = vs
            .iter()
            .map(|v| v.message.as_str())
            .find(|m| m.contains("study()"))
            .expect("chain from study");
        assert!(m.contains("leak()"), "{m}");
        assert!(m.contains("crates/trace/src/helper.rs:3"), "{m}");
    }

    #[test]
    fn sorted_after_collect_is_justified_with_allow() {
        let f = summarize(
            "crates/analysis/src/x.rs",
            "pub fn ordered() -> Vec<u32> {\n    let m: HashMap<u32, u32> = HashMap::new();\n    // lint:allow(D4): keys collected then sorted before use\n    let mut v: Vec<u32> = m.keys().copied().collect();\n    v.sort();\n    v\n}\n",
        );
        assert!(d4(&[f]).is_empty());
    }

    #[test]
    fn point_lookups_do_not_seed() {
        let f = summarize(
            "crates/analysis/src/x.rs",
            "pub fn lookup(k: u32) -> bool {\n    let m: HashSet<u32> = HashSet::new();\n    m.contains(&k)\n}\n",
        );
        assert!(d4(&[f]).is_empty());
    }

    #[test]
    fn wall_clock_depth_zero_left_to_d2_but_transitive_fires() {
        // Depth 0: D2's finding, not D4's.
        let direct = summarize(
            "crates/graph/src/x.rs",
            "pub fn t() -> u64 {\n    let _ = std::time::Instant::now();\n    0\n}\n",
        );
        assert!(d4(&[direct]).is_empty());
        // Transitive through a private helper: D4's finding.
        let chained = summarize(
            "crates/graph/src/y.rs",
            "pub fn outer() -> u64 {\n    inner()\n}\nfn inner() -> u64 {\n    let _ = std::time::Instant::now();\n    0\n}\n",
        );
        let vs = d4(&[chained]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("Instant::now"), "{}", vs[0].message);
    }

    #[test]
    fn dep_graph_gates_method_resolution() {
        let helper = summarize(
            "crates/trace/src/h.rs",
            "pub fn snap(&self) -> u32 {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for v in m.values() { return *v; }\n    0\n}\n",
        );
        let entry = summarize(
            "crates/overlay/src/e.rs",
            "pub fn run(x: &X) -> u32 {\n    x.snap()\n}\n",
        );
        // With overlay -> trace in the dep graph, the method call
        // resolves and the chain fires.
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        deps.insert(
            "magellan-overlay".into(),
            ["magellan-trace".to_owned()].into_iter().collect(),
        );
        deps.insert("magellan-trace".into(), BTreeSet::new());
        let vs = d4_with(&[helper.clone(), entry.clone()], &deps);
        // `run` fires through the resolved method call; `snap` also
        // fires directly now that trace is an entry crate.
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs.iter().any(|v| v.message.contains("run()")), "{vs:?}");
        // Without the dep edge, the method call cannot target trace —
        // only trace's own entry point fires.
        let mut no_edge: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        no_edge.insert("magellan-overlay".into(), BTreeSet::new());
        no_edge.insert("magellan-trace".into(), BTreeSet::new());
        let vs = d4_with(&[helper, entry], &no_edge);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(!vs[0].message.contains("run()"), "{}", vs[0].message);
    }

    #[test]
    fn entry_allow_waives_one_entry_point() {
        let f = summarize(
            "crates/analysis/src/x.rs",
            "// lint:allow(D4): exposition only, output unordered by contract\npub fn unordered() -> Vec<u32> {\n    let m: HashMap<u32, u32> = HashMap::new();\n    m.values().copied().collect()\n}\n",
        );
        assert!(d4(&[f]).is_empty());
    }

    #[test]
    fn cycles_terminate() {
        let f = summarize(
            "crates/graph/src/x.rs",
            "pub fn a() { b() }\npub fn b() { a(); c() }\nfn c() {\n    let m: HashSet<u32> = HashSet::new();\n    for v in &m { let _ = v; }\n}\n",
        );
        let vs = d4(&[f]);
        assert_eq!(vs.len(), 2, "{vs:?}"); // a and b both tainted
    }
}
