//! `magellan-lint` — the workspace's determinism and invariant
//! static-analysis gate.
//!
//! Magellan's findings (non-power-law degree mix, ISP clustering,
//! reciprocity) must *emerge* from simulated protocol dynamics, so any
//! hidden nondeterminism — unseeded RNG, hash-order iteration,
//! wall-clock reads — silently corrupts reproduced figures the same
//! way measurement artifacts distorted early crawler studies. This
//! crate is a fast, dependency-light (no `syn`) pass over every
//! workspace `.rs` file that enforces the policy *before* code lands:
//!
//! | Rule | Scope | What it catches |
//! |------|-------|-----------------|
//! | `D1` | sim crates (`overlay`, `netsim`, `workload`) | `HashMap`/`HashSet` use — iteration order is seed-hostile; use `BTreeMap`/`BTreeSet` or sort |
//! | `D2` | all lib crates | `thread_rng`, `rand::rng()`, `SystemTime::now`, `Instant::now` — ambient entropy / wall clock in simulation code |
//! | `D3` | sim + metric crates | raw `thread::spawn` outside `magellan-par` |
//! | `D4` | entry crates (`overlay`, `netsim`, `workload`, `graph`, `analysis`, `trace`) | public entry point that *transitively* reaches a nondeterminism source through the workspace call graph |
//! | `P1` | sim + metric crates | locks, channels, non-SeqCst atomic orderings outside `magellan-par` |
//! | `C1` | all lib crates | `unwrap()` / `expect(` in non-test library code beyond the per-crate budget |
//! | `C2` | metric crates (`graph`, `analysis`) | float `==` / `!=` comparisons |
//! | `C3` | metric crates (`graph`, `analysis`) | lossy `as` casts: narrow widths (`u8`/`u16`/`i8`/`i16`/`f32`) and `len() as u32`-style truncations |
//! | `C4` | metric crates (`graph`, `analysis`) | unchecked `+`/`*` arithmetic inside index brackets — debug overflow panics where release wraps |
//! | `H1` | every workspace crate | missing `#![forbid(unsafe_code)]` / `#![deny(missing_docs)]` crate header (`magellan-par` may `deny` unsafe instead — its pool opts one audited module back in) |
//! | `H2` | hot-path crates (`overlay`, `netsim`, `workload`, `graph`, `analysis`, `trace`) | heap allocation (collect/clone/to_vec/format!/`Box::new`, or a constructor in a loop) reachable from a hot entry point, beyond the per-crate budget |
//! | `H3` | hot-path crates | whole-collection iteration (map/set `.iter()`/`.keys()`/`.values()`/`.retain()`, `0..len()` range scans) reachable from a hot entry point |
//! | `U1` | all lib crates | `unsafe` block/impl/fn without a structured `// SAFETY:` contract (or `# Safety` doc section), or a crate over its audited per-crate unsafe-site budget |
//! | `M1` | everywhere | malformed `lint:allow` (missing rule id or justification) |
//!
//! The line-local rules run per file; `D4` and `H2`/`H3` are the
//! semantic passes — they parse `fn` items, `use` imports, and call
//! sites out of every file ([`items`]), link them into a workspace
//! call graph ([`reach`]), and propagate reachability: `D4` walks
//! *backwards* from nondeterminism sources to public entry points
//! ([`taint`]); the hot-path cost pass walks *forward* from `lint:hot`
//! entry points (plus a built-in registry) to allocation and scan
//! sinks ([`hotpath`]). Both print the full call chain in the
//! violation.
//!
//! Any finding can be waived *with a written justification* by
//! annotating the offending line (or the line above it):
//!
//! ```text
//! let order = peers.keys().collect(); // lint:allow(D1): keys are sorted two lines below
//! ```
//!
//! String literals and comments are stripped before rules run, so
//! mentioning `thread_rng` in a doc comment is fine; the allow
//! annotations themselves are read from the raw comment text.
//!
//! Reports render as human text or `--format sarif` (SARIF 2.1.0,
//! byte-reproducible, loadable by GitHub code scanning).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

mod hotpath;
mod items;
mod output;
mod reach;
mod rules;
mod source;
mod taint;
mod walk;

pub use items::{parse_items, CallSite, FileItems, FnItem, UseImport};
pub use output::{render_human, render_sarif};
pub use reach::{CallGraph, Direction, FnKey};
pub use rules::{
    default_hot_alloc_budgets, default_unsafe_budgets, default_unwrap_budgets, Rule, RULES,
};
pub use source::{SourceFile, TargetKind};
pub use walk::{collect_workspace_sources, find_workspace_root, parse_crate_deps};

/// One finding: a rule violated at a specific file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description of this occurrence.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file.display(),
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Lint configuration: scopes and budgets.
#[derive(Debug, Clone)]
pub struct Config {
    /// Per-crate `unwrap()`/`expect(` budgets for rule C1. Crates not
    /// listed have budget 0.
    pub unwrap_budgets: BTreeMap<String, usize>,
    /// Per-crate budgets for hot-path allocation sinks (rule H2).
    /// Crates not listed have budget 0.
    pub hot_alloc_budgets: BTreeMap<String, usize>,
    /// Per-crate budgets for audited `unsafe` sites (rule U1). Crates
    /// not listed have budget 0.
    pub unsafe_budgets: BTreeMap<String, usize>,
    /// Workspace crate dependency edges (`crate -> deps`), used to
    /// gate call resolution in the semantic passes (D4, H2/H3).
    /// When empty (in-memory runs), calls resolve across every crate
    /// pair — a fully connected fallback.
    pub crate_deps: BTreeMap<String, BTreeSet<String>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            unwrap_budgets: rules::default_unwrap_budgets(),
            hot_alloc_budgets: rules::default_hot_alloc_budgets(),
            unsafe_budgets: rules::default_unsafe_budgets(),
            crate_deps: BTreeMap::new(),
        }
    }
}

/// What kind of nondeterminism a taint source introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// Wall-clock reads (`SystemTime::now`, `Instant::now`).
    Clock,
    /// Ambient OS entropy (`thread_rng`, `from_entropy`, …).
    Entropy,
    /// Raw thread spawns (scheduler-dependent interleaving).
    Spawn,
    /// Iteration over hash-ordered collections.
    HashOrder,
}

/// One nondeterminism source seeded inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintSource {
    /// 1-based line of the source.
    pub line: usize,
    /// Source category.
    pub kind: TaintKind,
    /// Human description (`"wall-clock read `Instant::now`"`).
    pub what: String,
}

/// What kind of hot-path cost a sink incurs (rules H2/H3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostKind {
    /// Heap allocation (rule H2).
    Alloc,
    /// Whole-collection iteration / range scan (rule H3).
    Scan,
}

impl CostKind {
    /// The rule that reports this sink kind.
    pub fn rule(self) -> Rule {
        match self {
            CostKind::Alloc => Rule::H2,
            CostKind::Scan => Rule::H3,
        }
    }
}

/// One hot-path cost sink inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostSink {
    /// 1-based line of the sink.
    pub line: usize,
    /// Cost category.
    pub kind: CostKind,
    /// Human description (`"`.collect()` materializes a fresh collection"`).
    pub what: String,
}

/// Per-function analysis product: everything the call-graph passes
/// (D4, H2/H3) need, detached from the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSummary {
    /// Bare function name (call-graph node key within its crate).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub def_line: usize,
    /// Whether the definition carries a visibility qualifier.
    pub is_pub: bool,
    /// Whether the definition sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Whether the `fn` line carries a `lint:allow(D4): <why>`
    /// annotation (waives this entry point).
    pub d4_allowed: bool,
    /// Whether the `fn` line (or the line above) carries a `lint:hot`
    /// marker declaring a hot entry point.
    pub hot_marked: bool,
    /// Whether the `fn` line carries a `lint:allow(H2): <why>`
    /// annotation — exempts every allocation sink in this body (and,
    /// on a hot entry, waives its subtree).
    pub h2_allowed: bool,
    /// Whether the `fn` line carries a `lint:allow(H3): <why>`
    /// annotation (scan analogue of `h2_allowed`).
    pub h3_allowed: bool,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
    /// Nondeterminism sources inside the body.
    pub sources: Vec<TaintSource>,
    /// Hot-path cost sinks inside the body.
    pub sinks: Vec<CostSink>,
}

/// Per-file analysis product: line-local violations plus the call
/// graph fragment. The global phases (budgets, D4 taint, H2/H3 cost)
/// run over these.
#[derive(Debug, Clone)]
pub struct FileSummary {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// Owning crate.
    pub crate_name: String,
    /// Library code vs test-like target.
    pub kind: TargetKind,
    /// Line-local violations (already `lint:allow`-filtered).
    pub violations: Vec<Violation>,
    /// Non-test, non-allowed `unwrap()`/`expect(` count (C1 input).
    pub unwrap_count: usize,
    /// Non-test, non-allowed `unsafe` site count (U1 budget input).
    pub unsafe_count: usize,
    /// Function definitions with calls and taint sources.
    pub fns: Vec<FnSummary>,
    /// `use` imports (D4 call resolution input).
    pub uses: Vec<UseImport>,
}

/// Outcome of a whole-workspace lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations found, in path order.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Per-crate non-test `unwrap()`/`expect(` counts (rule C1 input).
    pub unwrap_counts: BTreeMap<String, usize>,
}

impl Report {
    /// Whether the run found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every line-local rule and the item/taint-source extraction
/// over one file.
pub fn analyze_file(src: &SourceFile) -> FileSummary {
    let mut scratch = Report::default();
    rules::check_file(src, &mut scratch);
    let (items, unwrap_count, unsafe_count) = if src.kind == TargetKind::Lib {
        (
            items::parse_items(src),
            rules::count_unwraps(src),
            rules::check_unsafe_contracts(src, &mut scratch),
        )
    } else {
        (FileItems::default(), 0, 0)
    };
    let sources = taint::detect_sources(src, &items.fns);
    let sinks = hotpath::detect_sinks(src, &items.fns);
    let fns = items
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| FnSummary {
            name: f.name.clone(),
            def_line: f.def_line,
            is_pub: f.is_pub,
            in_test: f.in_test,
            d4_allowed: src.is_allowed(f.def_line, Rule::D4.id()),
            hot_marked: src.is_hot_marked(f.def_line),
            h2_allowed: src.is_allowed(f.def_line, Rule::H2.id()),
            h3_allowed: src.is_allowed(f.def_line, Rule::H3.id()),
            calls: f.calls.clone(),
            sources: sources
                .iter()
                .filter(|(idx, _)| *idx == i)
                .map(|(_, s)| s.clone())
                .collect(),
            sinks: sinks
                .iter()
                .filter(|(idx, _)| *idx == i)
                .map(|(_, s)| s.clone())
                .collect(),
        })
        .collect();
    FileSummary {
        path: src.path.clone(),
        crate_name: src.crate_name.clone(),
        kind: src.kind,
        violations: scratch.violations,
        unwrap_count,
        unsafe_count,
        fns,
        uses: items.uses,
    }
}

/// Runs the global phases (C1/U1 budgets, D4 taint, H2/H3 hot-path
/// cost) over per-file summaries and assembles the sorted report.
/// `summaries` must be path-sorted for deterministic chain rendering.
pub fn finalize(summaries: &[FileSummary], config: &Config) -> Report {
    let mut report = Report {
        files_scanned: summaries.len(),
        ..Report::default()
    };
    for s in summaries {
        report.violations.extend(s.violations.iter().cloned());
        *report
            .unwrap_counts
            .entry(s.crate_name.clone())
            .or_insert(0) += s.unwrap_count;
    }
    rules::check_budgets(summaries, config, &mut report);
    let graph = CallGraph::build(summaries, &config.crate_deps);
    taint::check_taint(&graph, summaries, &mut report);
    hotpath::check_hot_paths(&graph, summaries, config, &mut report);
    report.violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    report
}

/// Lints pre-parsed sources (the in-memory entry point self-tests use).
pub fn lint_sources(sources: &[SourceFile], config: &Config) -> Report {
    let mut summaries: Vec<FileSummary> = sources.iter().map(analyze_file).collect();
    summaries.sort_by(|a, b| a.path.cmp(&b.path));
    finalize(&summaries, config)
}

/// Lints every workspace source under `root` with `config`, reading
/// the crate dependency graph from the workspace `Cargo.toml`s when
/// `config.crate_deps` is empty.
///
/// # Errors
///
/// Returns an error when the tree cannot be walked or a file cannot be
/// read.
pub fn lint_workspace(root: &Path, config: &Config) -> std::io::Result<Report> {
    let mut config = config.clone();
    if config.crate_deps.is_empty() {
        config.crate_deps = parse_crate_deps(root);
    }
    let mut paths = collect_workspace_sources(root)?;
    paths.sort();
    let mut summaries = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(root.join(&path))?;
        summaries.push(analyze_file(&SourceFile::parse(path, &text)));
    }
    Ok(finalize(&summaries, &config))
}
