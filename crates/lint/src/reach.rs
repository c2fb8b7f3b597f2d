//! Reusable workspace call-graph reachability.
//!
//! Rule D4 (determinism taint) and the hot-path cost rules (H2/H3)
//! ask the same structural question with opposite orientations: which
//! functions can reach / be reached from a seed set, and by what
//! chain? This module owns the shared machinery — building the
//! `(crate, fn-name)` call graph out of per-file summaries, resolving
//! call sites through `use` imports and the crate dependency graph,
//! and running a deterministic multi-source BFS in either direction —
//! so each rule only supplies its seed and sink sets.
//!
//! Resolution is name-based (no type inference): same-name functions
//! in one crate share a node, and method calls over-approximate across
//! dependency edges. That errs toward reporting, which is the right
//! direction for a gate whose findings can be waived with a written
//! justification.

use crate::items::{CallSite, UseImport};
use crate::{FileSummary, TargetKind};
use std::collections::{BTreeMap, BTreeSet};

/// Path prefixes that never resolve into the workspace.
const EXTERNAL_ROOTS: [&str; 9] = [
    "std",
    "core",
    "alloc",
    "rand",
    "proptest",
    "serde",
    "bytes",
    "parking_lot",
    "criterion",
];

/// Prelude types usable as a path qualifier without a `use` import.
/// `Vec::new()` must not resolve to a workspace function named `new` —
/// without this list, every such call would edge into the caller
/// crate's `new` node and fabricate reachability chains.
const PRELUDE_TYPES: [&str; 10] = [
    "Vec", "String", "Box", "Option", "Result", "Some", "Ok", "Err", "Arc", "Rc",
];

/// Derivable-trait method names that are never treated as call edges.
/// Nodes merge per `(crate, name)`, so `TickOutcome::default()` would
/// otherwise edge into *every* manual `Default` impl in scope and
/// fabricate chains between unrelated types. The cost is that work
/// hidden inside a manual `Clone`/`Default` impl is invisible to
/// reachability — a documented under-approximation; the impl bodies
/// themselves are still scanned when they are reachable by name.
const TRAIT_DISPATCH: [&str; 9] = [
    "default",
    "clone",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
];

/// A call-graph node key: functions are merged per `(crate, name)` —
/// impl blocks are not resolved, so same-name functions in one crate
/// share a node (a documented over-approximation).
pub type FnKey = (String, String);

/// One definition of a node's function, as indices into the file
/// summaries the graph was built from.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Index into the `files` slice.
    pub file: usize,
    /// Index into `files[file].fns`.
    pub fun: usize,
}

/// One call-graph node.
#[derive(Debug, Default)]
pub struct Node {
    /// Every definition merged into this node (non-test, lib targets).
    pub defs: Vec<Def>,
    /// Resolved callees: callee key → `(caller file_idx, call line)`
    /// with the smallest call line, for deterministic chains.
    pub callees: BTreeMap<FnKey, (usize, usize)>,
}

/// Which way reachability propagates from the seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Toward callers: "who can reach the seeds?" (rule D4 walks from
    /// nondeterminism sources up to public entry points).
    Callers,
    /// Toward callees: "what do the seeds reach?" (rules H2/H3 walk
    /// from hot entry points down to cost sinks).
    Callees,
}

/// The workspace call graph over per-file summaries.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All nodes, keyed by `(crate, fn name)`.
    pub nodes: BTreeMap<FnKey, Node>,
}

impl CallGraph {
    /// Builds the graph from path-sorted per-file summaries, resolving
    /// call sites through imports and `crate_deps` (when empty, calls
    /// resolve across every crate pair — the in-memory fallback).
    pub fn build(files: &[FileSummary], crate_deps: &BTreeMap<String, BTreeSet<String>>) -> Self {
        let workspace_crates: BTreeSet<&str> =
            files.iter().map(|f| f.crate_name.as_str()).collect();

        // Index: simple fn name → set of crates defining it.
        let mut by_name: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for f in files {
            if f.kind != TargetKind::Lib {
                continue;
            }
            for func in &f.fns {
                if !func.in_test {
                    by_name
                        .entry(func.name.as_str())
                        .or_default()
                        .insert(f.crate_name.as_str());
                }
            }
        }

        let mut nodes: BTreeMap<FnKey, Node> = BTreeMap::new();
        for (file_idx, f) in files.iter().enumerate() {
            if f.kind != TargetKind::Lib {
                continue;
            }
            let import_map: BTreeMap<&str, &UseImport> =
                f.uses.iter().map(|u| (u.name.as_str(), u)).collect();
            for (fn_idx, func) in f.fns.iter().enumerate() {
                if func.in_test {
                    continue;
                }
                let key: FnKey = (f.crate_name.clone(), func.name.clone());
                let node = nodes.entry(key).or_default();
                node.defs.push(Def {
                    file: file_idx,
                    fun: fn_idx,
                });
                for call in &func.calls {
                    for callee_crate in resolve_call(
                        call,
                        &f.crate_name,
                        &import_map,
                        &by_name,
                        &workspace_crates,
                        crate_deps,
                    ) {
                        let Some(callee_name) = call.path.last() else {
                            continue;
                        };
                        let callee_key: FnKey = (callee_crate, callee_name.clone());
                        let entry = node
                            .callees
                            .entry(callee_key)
                            .or_insert((file_idx, call.line));
                        if call.line < entry.1 {
                            *entry = (file_idx, call.line);
                        }
                    }
                }
            }
        }
        CallGraph { nodes }
    }

    /// Multi-source BFS from `seeds` in `dir`. Returns, per reached
    /// node, its depth and the deterministic next hop *toward the
    /// nearest seed* (`None` for the seeds themselves) — follow the
    /// hops to reconstruct the chain.
    pub fn reach<'a>(
        &'a self,
        seeds: &[&'a FnKey],
        dir: Direction,
    ) -> BTreeMap<&'a FnKey, (usize, Option<&'a FnKey>)> {
        // Adjacency in the direction of propagation, borrowed from the
        // node map so keys stay comparable.
        let mut adj: BTreeMap<&FnKey, BTreeSet<&FnKey>> = BTreeMap::new();
        for (key, node) in &self.nodes {
            for callee in node.callees.keys() {
                let Some((callee_key, _)) = self.nodes.get_key_value(callee) else {
                    continue;
                };
                match dir {
                    Direction::Callers => adj.entry(callee_key).or_default().insert(key),
                    Direction::Callees => adj.entry(key).or_default().insert(callee_key),
                };
            }
        }
        let mut dist: BTreeMap<&FnKey, (usize, Option<&FnKey>)> = BTreeMap::new();
        let mut frontier: Vec<&FnKey> = seeds.to_vec();
        frontier.sort();
        frontier.dedup();
        for k in &frontier {
            dist.insert(k, (0, None));
        }
        while !frontier.is_empty() {
            let mut next: Vec<&FnKey> = Vec::new();
            for from in frontier {
                let d = dist[&from].0;
                if let Some(ns) = adj.get(&from) {
                    for n in ns {
                        dist.entry(n).or_insert_with(|| {
                            next.push(n);
                            (d + 1, Some(from))
                        });
                    }
                }
            }
            next.sort();
            next.dedup();
            frontier = next;
        }
        dist
    }

    /// The chain of node keys from `start` along the recorded hops to
    /// the nearest seed (inclusive of both ends). Empty when `start`
    /// was not reached.
    pub fn chain<'a>(
        &'a self,
        start: &'a FnKey,
        dist: &BTreeMap<&'a FnKey, (usize, Option<&'a FnKey>)>,
    ) -> Vec<&'a FnKey> {
        let mut out = Vec::new();
        let mut key = match self.nodes.get_key_value(start) {
            Some((k, _)) => k,
            None => return out,
        };
        if !dist.contains_key(key) {
            return out;
        }
        loop {
            out.push(key);
            match dist.get(key).and_then(|&(_, via)| via) {
                Some(next) => key = next,
                None => break,
            }
        }
        out
    }
}

/// Renders one chain hop as `name() (file:line)` using the node's
/// first definition.
pub fn render_hop(key: &FnKey, node: &Node, files: &[FileSummary]) -> String {
    match node.defs.first() {
        Some(d) => format!(
            "{}() ({}:{})",
            key.1,
            files[d.file].path.display(),
            files[d.file].fns[d.fun].def_line
        ),
        None => format!("{}()", key.1),
    }
}

/// Resolves one call site to the set of workspace crates that may
/// define the callee.
fn resolve_call(
    call: &CallSite,
    caller_crate: &str,
    imports: &BTreeMap<&str, &UseImport>,
    by_name: &BTreeMap<&str, BTreeSet<&str>>,
    workspace_crates: &BTreeSet<&str>,
    crate_deps: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<String> {
    let Some(name) = call.path.last().map(String::as_str) else {
        return Vec::new();
    };
    if TRAIT_DISPATCH.contains(&name) {
        return Vec::new();
    }
    let Some(defining) = by_name.get(name) else {
        return Vec::new();
    };
    let visible = |c: &str| {
        c == caller_crate
            || crate_deps.is_empty()
            || crate_deps
                .get(caller_crate)
                .is_some_and(|deps| deps.contains(c))
    };
    // Fully-qualified path or an import naming the first segment.
    let mut path = call.path.clone();
    if path.len() == 1 {
        if let Some(u) = imports.get(name) {
            path = u.path.clone();
        }
    } else if let Some(u) = imports.get(path[0].as_str()) {
        let mut full = u.path.clone();
        full.extend_from_slice(&path[1..]);
        path = full;
    }
    if path.len() > 1 {
        let root = path[0].as_str();
        if EXTERNAL_ROOTS.contains(&root) || PRELUDE_TYPES.contains(&root) {
            return Vec::new();
        }
        let as_crate = root.replace('_', "-");
        if workspace_crates.contains(as_crate.as_str()) {
            return if defining.contains(as_crate.as_str()) && visible(&as_crate) {
                vec![as_crate]
            } else {
                Vec::new()
            };
        }
        if matches!(root, "crate" | "self" | "super" | "Self") {
            return if defining.contains(caller_crate) {
                vec![caller_crate.to_owned()]
            } else {
                Vec::new()
            };
        }
        // Unresolvable qualifier (local module, local type): within
        // the caller's crate only.
        return if defining.contains(caller_crate) {
            vec![caller_crate.to_owned()]
        } else {
            Vec::new()
        };
    }
    // Bare or method call: the caller's crate, plus (for methods) its
    // workspace dependencies — receiver types are not resolved, so
    // method calls over-approximate across the dep edge. The one
    // receiver known without types is `self`: a `self.name(..)` call
    // is the caller's own type's method, so when the caller's crate
    // defines `name` it resolves there alone.
    let mut out: Vec<String> = Vec::new();
    let local = defining.contains(caller_crate);
    if local {
        out.push(caller_crate.to_owned());
    }
    if call.method && !(call.on_self && local) {
        for &c in defining.iter() {
            if c != caller_crate && visible(c) {
                out.push(c.to_owned());
            }
        }
    }
    out
}
