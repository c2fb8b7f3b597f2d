//! The rule set: what each rule scans for and where it applies.

use crate::source::{allow_of, justified, SourceFile, TargetKind};
use crate::{Config, FileSummary, Report, Violation};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Identifier and metadata for one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash-order iteration hazard in simulation paths.
    D1,
    /// Ambient entropy / wall-clock reads in simulation code.
    D2,
    /// Raw `thread::spawn` outside the deterministic fork-join crate.
    D3,
    /// Entry point transitively reaching a nondeterminism source.
    D4,
    /// Shared-state concurrency primitives outside `magellan-par`.
    P1,
    /// `unwrap()`/`expect(` beyond the per-crate budget.
    C1,
    /// Float `==`/`!=` comparisons in metric code.
    C2,
    /// Lossy `as` casts in metric code.
    C3,
    /// Unchecked index arithmetic in metric kernels.
    C4,
    /// Missing crate hygiene headers.
    H1,
    /// Heap allocation reachable from a hot entry point.
    H2,
    /// Whole-collection iteration reachable from a hot entry point.
    H3,
    /// `unsafe` site without a structured `SAFETY:` contract, or a
    /// crate over its unsafe-site budget.
    U1,
    /// Malformed `lint:allow` annotation.
    M1,
}

/// Every rule, in reporting order.
pub const RULES: [Rule; 14] = [
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::D4,
    Rule::P1,
    Rule::C1,
    Rule::C2,
    Rule::C3,
    Rule::C4,
    Rule::H1,
    Rule::H2,
    Rule::H3,
    Rule::U1,
    Rule::M1,
];

impl Rule {
    /// The short id used in reports and `lint:allow(...)`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::P1 => "P1",
            Rule::C1 => "C1",
            Rule::C2 => "C2",
            Rule::C3 => "C3",
            Rule::C4 => "C4",
            Rule::H1 => "H1",
            Rule::H2 => "H2",
            Rule::H3 => "H3",
            Rule::U1 => "U1",
            Rule::M1 => "M1",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::D1 => {
                "HashMap/HashSet in simulation crates: iteration order varies per process; \
                 use BTreeMap/BTreeSet or sort explicitly"
            }
            Rule::D2 => {
                "thread_rng()/rand::rng()/SystemTime::now()/Instant::now() in library code: \
                 all randomness must come from the seeded RngFactory, all time from SimTime"
            }
            Rule::D3 => {
                "raw thread::spawn in simulation/metric crates: scheduling-dependent results \
                 break parallel equivalence; use magellan-par's deterministic primitives"
            }
            Rule::D4 => {
                "public entry point in overlay/netsim/workload/graph/analysis/trace that \
                 transitively reaches a nondeterminism source through the workspace call graph; the violation \
                 prints the full call chain"
            }
            Rule::P1 => {
                "locks, channels, or non-SeqCst atomic orderings in simulation/metric crates: \
                 shared-state concurrency belongs in magellan-par's order-preserving primitives"
            }
            Rule::C1 => {
                "unwrap()/expect( in non-test library code beyond the per-crate budget: \
                 return typed errors instead"
            }
            Rule::C2 => "float == / != comparison in metric code: compare against a tolerance",
            Rule::C3 => "lossy `as` cast in metric code: narrow-width target or len()-truncation",
            Rule::C4 => {
                "unchecked `+`/`*` arithmetic inside an index expression in metric code: \
                 debug builds panic on overflow where release wraps; use checked/saturating \
                 ops or a guarded helper"
            }
            Rule::H1 => {
                "crate root missing #![forbid(unsafe_code)] and #![deny(missing_docs)] \
                 (magellan-par may deny instead of forbid unsafe: its worker pool opts one \
                 audited module back in)"
            }
            Rule::H2 => {
                "heap allocation (collect/clone/to_vec/format!/Box::new, or a constructor \
                 inside a loop) transitively reachable from a hot entry point, beyond the \
                 per-crate budget; the violation prints the full call chain from the entry"
            }
            Rule::H3 => {
                "whole-collection iteration (iter()/keys()/values()/retain on a map or set, \
                 or a 0..len() range scan) transitively reachable from a hot entry point: \
                 per-tick code must touch only the peers an event names, never the population"
            }
            Rule::U1 => {
                "`unsafe` block/impl/fn without a structured safety contract (a `// SAFETY:` \
                 comment naming the invariant, or a `# Safety` doc section on an `unsafe fn`), \
                 or a crate holding more unsafe sites than its audited budget"
            }
            Rule::M1 => "lint:allow annotation without a rule id or justification",
        }
    }

    /// Fix guidance for `--explain` and the SARIF `help` field: what to
    /// do when the rule fires, as opposed to [`Rule::describe`]'s what
    /// and why.
    pub fn fix_guidance(self) -> &'static str {
        match self {
            Rule::D1 => {
                "Switch the collection to BTreeMap/BTreeSet, or sort before iterating. If \
                 only point lookups ever touch it, annotate the line with lint:allow(D1) \
                 and say so."
            }
            Rule::D2 => {
                "Thread a seeded rng (RngFactory fork) or SimTime value into the function \
                 instead of reading ambient entropy or the wall clock."
            }
            Rule::D3 => {
                "Express the parallelism as magellan_par::par_map_collect or join; those \
                 primitives are order-preserving, so outputs stay byte-identical at every \
                 thread count."
            }
            Rule::D4 => {
                "Follow the printed chain to the source line and make the sink \
                 order-insensitive (sort, BTree collections, seeded RNG). lint:allow(D4) on \
                 the source line certifies it for every caller; on the entry's fn line it \
                 waives that one entry point."
            }
            Rule::P1 => {
                "Move the shared state behind magellan-par's primitives, or keep the lock \
                 and write lint:allow(P1): <why the interleaving cannot reach an output>."
            }
            Rule::C1 => {
                "Return a typed error (TransferError, SimError, GraphError) instead of \
                 unwrapping, or annotate an invariant-guarded site with lint:allow(C1): \
                 <why the invariant holds>. Budgets only ratchet down."
            }
            Rule::C2 => {
                "Compare |a - b| against an explicit tolerance, or lint:allow(C2) an exact \
                 sentinel comparison."
            }
            Rule::C3 => {
                "Use try_from with an explicit error path, widen the target type, or guard \
                 the bound and justify with lint:allow(C3)."
            }
            Rule::C4 => {
                "Use checked_add/checked_mul (or saturating ops) for the index computation, \
                 or centralize it behind one audited, justified helper like Csr::row."
            }
            Rule::H1 => {
                "Add #![forbid(unsafe_code)] and #![deny(missing_docs)] to the crate root \
                 (magellan-par may deny unsafe instead of forbidding it)."
            }
            Rule::H2 => {
                "Hoist the buffer out of the per-tick/per-sample path and reuse scratch \
                 storage; a constructor at function entry is amortized and exempt. \
                 lint:allow(H2) on the sink waives one site; on the fn line, the body."
            }
            Rule::H3 => {
                "Index or bucket so per-tick code touches only the peers an event names; \
                 whole-population scans belong at sample boundaries, not in the tick loop."
            }
            Rule::U1 => {
                "Write the invariant down: `// SAFETY: <why this cannot violate memory \
                 safety>` on or above the unsafe site (a `# Safety` doc section for an \
                 unsafe fn). Over-budget crates need the new site removed or the audited \
                 budget consciously raised in default_unsafe_budgets."
            }
            Rule::M1 => {
                "Write lint:allow(<RULE>): <reason> with a real rule id and a non-empty \
                 justification — an escape hatch without a reason is a suppressed warning, \
                 not a decision."
            }
        }
    }
}

/// Crates whose internals drive the simulation and therefore must not
/// iterate hash-ordered collections (rule D1).
const SIM_PATH_CRATES: [&str; 3] = ["magellan-overlay", "magellan-netsim", "magellan-workload"];

/// Crates exempt from determinism rules: the bench harness measures
/// wall time by design, and vendor stubs are third-party API mirrors.
const DETERMINISM_EXEMPT: [&str; 1] = ["magellan-bench"];

/// Default per-crate `unwrap()`/`expect(` budgets (rule C1). Budgets
/// reflect the current audited count of invariant-guarding uses; new
/// code must not raise them — prefer typed errors, or annotate the
/// line with `lint:allow(C1): <why the invariant holds>`.
pub fn default_unwrap_budgets() -> BTreeMap<String, usize> {
    // Ratchet values: the audited count at the time the budget was
    // last reviewed, plus at most two of slack. Lower them as crates
    // migrate to typed errors; never raise one without an audit.
    let mut m = BTreeMap::new();
    m.insert("magellan-graph".to_owned(), 18);
    m.insert("magellan-par".to_owned(), 0);
    m.insert("magellan-analysis".to_owned(), 12);
    m.insert("magellan-trace".to_owned(), 6);
    m.insert("magellan-netsim".to_owned(), 6);
    m.insert("magellan-overlay".to_owned(), 2);
    m.insert("magellan-workload".to_owned(), 2);
    m.insert("magellan".to_owned(), 2);
    m.insert("magellan-bench".to_owned(), 18);
    m.insert("magellan-lint".to_owned(), 0);
    m
}

/// Default per-crate budgets for hot-path allocation sinks (rule H2).
/// Same ratchet discipline as the unwrap budgets: the value is the
/// audited count of *justified-by-design* allocations reachable from a
/// hot entry point. The policy default is zero — a per-tick or
/// per-sample allocation is either hoisted out of the hot path or
/// carries an individual `lint:allow(H2): <why>`; budget slack is for
/// crates where an audit has signed off a stable residue wholesale.
pub fn default_hot_alloc_budgets() -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    m.insert("magellan-overlay".to_owned(), 0);
    m.insert("magellan-netsim".to_owned(), 0);
    m.insert("magellan-workload".to_owned(), 0);
    m.insert("magellan-graph".to_owned(), 0);
    m.insert("magellan-analysis".to_owned(), 0);
    m
}

/// Default per-crate budgets for `unsafe` sites (rule U1). The policy
/// is zero everywhere: the workspace is safe Rust by construction
/// (rule H1 forbids `unsafe` at every crate root). The one audited
/// exception is `magellan-par`, whose worker pool erases a job-box
/// borrow lifetime behind a scoped-thread-style completion contract —
/// exactly four sites (the erasing fn, its transmute, and the two
/// submit call sites), each carrying a written contract. The facade
/// crate `magellan` carries one audited site: the `magellan-traced`
/// drain handler binds ISO C `signal(2)` directly (no signal crate in
/// the approved dependency set) to flip an `AtomicBool` — the sole
/// async-signal-safe operation it performs. A new unsafe site
/// anywhere is a conscious budget decision, never a drive-by.
pub fn default_unsafe_budgets() -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    m.insert("magellan-par".to_owned(), 4);
    m.insert("magellan".to_owned(), 1);
    m
}

fn push(report: &mut Report, src: &SourceFile, line: usize, rule: Rule, message: String) {
    if src.is_allowed(line, rule.id()) {
        return;
    }
    report.violations.push(Violation {
        file: src.path.clone(),
        line,
        rule,
        message,
    });
}

/// Runs every line-local rule over `src`.
pub fn check_file(src: &SourceFile, report: &mut Report) {
    check_allow_annotations(src, report);
    check_hash_iteration(src, report);
    check_wall_clock_and_entropy(src, report);
    check_raw_thread_spawn(src, report);
    check_concurrency_primitives(src, report);
    check_float_equality(src, report);
    check_lossy_casts(src, report);
    check_index_arithmetic(src, report);
    check_crate_headers(src, report);
}

/// M1: every `lint:allow` must name a known rule and justify itself.
fn check_allow_annotations(src: &SourceFile, report: &mut Report) {
    for (idx, comment) in src.comments.iter().enumerate() {
        let Some((id, justification)) = allow_of(comment) else {
            continue;
        };
        let known = RULES.iter().any(|r| r.id() == id);
        if !known {
            report.violations.push(Violation {
                file: src.path.clone(),
                line: idx + 1,
                rule: Rule::M1,
                message: format!("lint:allow names unknown rule `{id}`"),
            });
        } else if !crate::source::justified(justification) {
            report.violations.push(Violation {
                file: src.path.clone(),
                line: idx + 1,
                rule: Rule::M1,
                message: format!(
                    "lint:allow({id}) has no justification — write `lint:allow({id}): <why>`"
                ),
            });
        }
    }
}

/// D1: hash-ordered collections in simulation crates.
fn check_hash_iteration(src: &SourceFile, report: &mut Report) {
    if !SIM_PATH_CRATES.contains(&src.crate_name.as_str()) || src.kind != TargetKind::Lib {
        return;
    }
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test_module[idx] {
            continue;
        }
        for needle in ["HashMap", "HashSet"] {
            if contains_ident(line, needle) {
                push(
                    report,
                    src,
                    idx + 1,
                    Rule::D1,
                    format!(
                        "{needle} in a simulation path — iteration order is \
                         nondeterministic across processes; use BTree{} or sort \
                         before iterating",
                        &needle[4..]
                    ),
                );
            }
        }
    }
}

/// D2: ambient entropy and wall-clock reads.
fn check_wall_clock_and_entropy(src: &SourceFile, report: &mut Report) {
    if DETERMINISM_EXEMPT.contains(&src.crate_name.as_str()) || src.kind != TargetKind::Lib {
        return;
    }
    const FORBIDDEN: [(&str, &str); 5] = [
        (
            "thread_rng",
            "ambient OS entropy breaks seed reproducibility",
        ),
        (
            "rand::rng()",
            "ambient OS entropy breaks seed reproducibility",
        ),
        (
            "SystemTime::now",
            "wall-clock reads do not replay; use SimTime",
        ),
        (
            "Instant::now",
            "wall-clock reads do not replay; use SimTime",
        ),
        (
            "from_entropy",
            "ambient OS entropy breaks seed reproducibility",
        ),
    ];
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test_module[idx] {
            continue;
        }
        for (needle, why) in FORBIDDEN {
            if line.contains(needle) {
                push(
                    report,
                    src,
                    idx + 1,
                    Rule::D2,
                    format!("`{needle}` in simulation code — {why}"),
                );
            }
        }
    }
}

/// D3: raw thread spawns outside magellan-par.
///
/// Applies to the simulation and metric crates: ad-hoc threads make
/// results depend on the scheduler, which breaks the parallel
/// equivalence guarantee (same bytes at every thread count). All
/// parallelism must go through `magellan-par`'s deterministic
/// primitives — whose own scoped spawns (`scope.spawn`) the needle
/// deliberately does not match.
fn check_raw_thread_spawn(src: &SourceFile, report: &mut Report) {
    let governed = SIM_PATH_CRATES.contains(&src.crate_name.as_str())
        || metric_crate(&src.crate_name)
        || src.crate_name == "magellan-trace"
        || src.crate_name == "magellan";
    if !governed
        || DETERMINISM_EXEMPT.contains(&src.crate_name.as_str())
        || src.kind != TargetKind::Lib
    {
        return;
    }
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test_module[idx] {
            continue;
        }
        if line.contains("thread::spawn") || line.contains("thread::Builder") {
            push(
                report,
                src,
                idx + 1,
                Rule::D3,
                "raw thread spawn in a simulation/metric crate — route parallelism \
                 through magellan-par so results stay identical at every thread count"
                    .to_owned(),
            );
        }
    }
}

/// P1: shared-state concurrency primitives outside magellan-par.
///
/// Locks introduce acquisition-order nondeterminism, channels
/// interleave by scheduler whim, and any atomic ordering weaker than
/// SeqCst permits observably different interleavings across runs.
/// `magellan-par` is the one sanctioned home for such machinery (its
/// primitives are proven order-preserving by the parallel-equivalence
/// tests); everywhere else in the sim/metric path they need a written
/// `lint:allow(P1): <why>` justification.
fn check_concurrency_primitives(src: &SourceFile, report: &mut Report) {
    let governed = SIM_PATH_CRATES.contains(&src.crate_name.as_str())
        || metric_crate(&src.crate_name)
        || src.crate_name == "magellan-trace"
        || src.crate_name == "magellan";
    if !governed
        || DETERMINISM_EXEMPT.contains(&src.crate_name.as_str())
        || src.kind != TargetKind::Lib
    {
        return;
    }
    const LOCKS: [&str; 4] = ["Mutex", "RwLock", "Condvar", "Barrier"];
    const ORDERINGS: [&str; 4] = [
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
    ];
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test_module[idx] {
            continue;
        }
        for lock in LOCKS {
            if contains_ident(line, lock) {
                push(
                    report,
                    src,
                    idx + 1,
                    Rule::P1,
                    format!(
                        "`{lock}` in a simulation/metric crate — lock acquisition order is \
                         scheduler-dependent; route shared state through magellan-par or \
                         justify with lint:allow(P1)"
                    ),
                );
            }
        }
        if contains_ident(line, "mpsc") || line.contains("sync_channel(") {
            push(
                report,
                src,
                idx + 1,
                Rule::P1,
                "channel in a simulation/metric crate — message interleaving is \
                 scheduler-dependent; use magellan-par's order-preserving primitives"
                    .to_owned(),
            );
        }
        for ord in ORDERINGS {
            if line.contains(ord) {
                push(
                    report,
                    src,
                    idx + 1,
                    Rule::P1,
                    format!(
                        "atomic `{ord}` — orderings weaker than SeqCst admit per-run \
                         interleaving differences; use SeqCst or justify with lint:allow(P1)"
                    ),
                );
            }
        }
    }
}

/// C2: float equality in metric crates.
fn check_float_equality(src: &SourceFile, report: &mut Report) {
    if !metric_crate(&src.crate_name) || src.kind != TargetKind::Lib {
        return;
    }
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test_module[idx] {
            continue;
        }
        if has_float_equality(line) {
            push(
                report,
                src,
                idx + 1,
                Rule::C2,
                "float == / != comparison — compare |a - b| against a tolerance".to_owned(),
            );
        }
    }
}

/// C3: lossy casts in metric crates.
fn check_lossy_casts(src: &SourceFile, report: &mut Report) {
    if !metric_crate(&src.crate_name) || src.kind != TargetKind::Lib {
        return;
    }
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test_module[idx] {
            continue;
        }
        for narrow in [" as u8", " as u16", " as i8", " as i16", " as f32"] {
            if let Some(pos) = line.find(narrow) {
                let after = line[pos + narrow.len()..].chars().next();
                if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    push(
                        report,
                        src,
                        idx + 1,
                        Rule::C3,
                        format!("narrowing cast `{}` — use try_from or widen", narrow.trim()),
                    );
                }
            }
        }
        if line.contains("len() as u32") || line.contains("len() as u16") {
            push(
                report,
                src,
                idx + 1,
                Rule::C3,
                "length truncated by `as` — guard the bound explicitly".to_owned(),
            );
        }
    }
}

/// C4: unchecked `+`/`*` arithmetic inside index brackets in metric
/// kernels.
///
/// `off[u.index() + 1]` panics on overflow in debug builds but wraps
/// in release — the two profiles would disagree exactly when an
/// invariant is already broken, which is the worst time for the gate
/// to diverge. Hot CSR loops must use checked/saturating arithmetic
/// or a guarded row helper.
fn check_index_arithmetic(src: &SourceFile, report: &mut Report) {
    if !metric_crate(&src.crate_name) || src.kind != TargetKind::Lib {
        return;
    }
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test_module[idx] {
            continue;
        }
        for expr in index_arithmetic_exprs(line) {
            push(
                report,
                src,
                idx + 1,
                Rule::C4,
                format!(
                    "unchecked arithmetic in index `[{expr}]` — debug overflow panics \
                     where release wraps; use checked/saturating ops or a guarded helper"
                ),
            );
        }
    }
}

/// The bracketed index expressions on `line` containing a `+` or a
/// binary `*`. Only genuine indexing counts: the character before `[`
/// must close an expression (identifier, `)`, or `]`), which excludes
/// macros (`vec![`), slice types (`&[`), and array literals.
fn index_arithmetic_exprs(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'[' {
            i += 1;
            continue;
        }
        let indexing = i > 0
            && (bytes[i - 1].is_ascii_alphanumeric() || matches!(bytes[i - 1], b'_' | b')' | b']'));
        // Find the matching `]` on this line (nesting-aware).
        let mut depth = 1usize;
        let mut j = i + 1;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let end = if depth == 0 { j - 1 } else { bytes.len() };
        if indexing {
            let inner = &line[i + 1..end];
            if has_unchecked_arithmetic(inner) {
                out.push(inner.to_owned());
            }
        }
        i += 1; // nested brackets get their own look
    }
    out
}

/// Whether `expr` contains a `+` or a *binary* `*` (a `*` whose
/// preceding non-space character ends an operand; leading `*` is a
/// deref).
fn has_unchecked_arithmetic(expr: &str) -> bool {
    let bytes = expr.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'+' => {
                // `+=` never appears in an index; any `+` counts.
                return true;
            }
            b'*' => {
                let prev = expr[..i].trim_end().as_bytes().last().copied();
                if prev
                    .is_some_and(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b')' | b']'))
                {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// H1: hygiene headers on crate roots.
fn check_crate_headers(src: &SourceFile, report: &mut Report) {
    let name = src.path.file_name().map(|f| f.to_string_lossy());
    if name.as_deref() != Some("lib.rs") || src.kind != TargetKind::Lib {
        return;
    }
    // `magellan-par` is the one crate allowed to downgrade the unsafe
    // header to `deny`: its worker pool erases a borrow lifetime in a
    // single `#[allow(unsafe_code)]` module, and `deny` at the root
    // still rejects unsafe everywhere that module-level opt-in is
    // absent.
    let unsafe_ok = |l: &String| {
        l.contains("#![forbid(unsafe_code)]")
            || (src.crate_name == "magellan-par" && l.contains("#![deny(unsafe_code)]"))
    };
    if !src.code.iter().any(unsafe_ok) {
        push(
            report,
            src,
            1,
            Rule::H1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
        );
    }
    if !src
        .code
        .iter()
        .any(|l| l.contains("#![deny(missing_docs)]"))
    {
        push(
            report,
            src,
            1,
            Rule::H1,
            "crate root is missing `#![deny(missing_docs)]`".to_owned(),
        );
    }
}

/// C1 input: the non-test, non-allowed `unwrap()`/`expect(` count of
/// one library file.
pub fn count_unwraps(src: &SourceFile) -> usize {
    let mut n = 0usize;
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test_module[idx] {
            continue;
        }
        let hits = line.matches(".unwrap()").count() + line.matches(".expect(").count();
        if hits > 0 && !src.is_allowed(idx + 1, "C1") {
            n += hits;
        }
    }
    n
}

/// U1 per-site pass: every `unsafe` block, `unsafe impl`, and `unsafe
/// fn` in non-test library code needs a written contract — a `//
/// SAFETY: <invariant>` on the site or in the contiguous comment block
/// above it (an `unsafe fn` may use a `# Safety` doc section instead).
/// Returns the number of non-test, non-allowed unsafe sites (the
/// crate-budget input).
pub fn check_unsafe_contracts(src: &SourceFile, report: &mut Report) -> usize {
    let mut count = 0usize;
    for (idx, line) in src.code.iter().enumerate() {
        if src.in_test_module[idx] || !contains_ident(line, "unsafe") {
            continue;
        }
        let lineno = idx + 1;
        if src.is_allowed(lineno, Rule::U1.id()) {
            continue;
        }
        count += 1;
        let is_fn = line.contains("unsafe fn");
        let what = if line.contains("unsafe impl") {
            "`unsafe impl`"
        } else if is_fn {
            "`unsafe fn`"
        } else {
            "`unsafe` block"
        };
        let message = match safety_contract(src, idx, is_fn) {
            Contract::Named => continue,
            Contract::Empty => format!(
                "{what} has an empty SAFETY: contract — name the invariant the \
                 unsafe code relies on (an empty contract is a suppressed \
                 obligation, not an audit)"
            ),
            Contract::Missing => format!(
                "{what} without a safety contract — write `// SAFETY: <invariant>` \
                 on or directly above the site{}",
                if is_fn {
                    " (or a `# Safety` doc section)"
                } else {
                    ""
                }
            ),
        };
        report.violations.push(Violation {
            file: src.path.clone(),
            line: lineno,
            rule: Rule::U1,
            message,
        });
    }
    count
}

/// Outcome of looking for a safety contract on an unsafe site.
enum Contract {
    /// A contract naming a non-empty invariant.
    Named,
    /// A `SAFETY:` marker with no invariant after it.
    Empty,
    /// No contract at all.
    Missing,
}

/// Looks for a `SAFETY:` contract on 0-based line `idx` or in the
/// contiguous comment/attribute block directly above it; `unsafe fn`
/// sites may carry a `# Safety` doc section instead.
fn safety_contract(src: &SourceFile, idx: usize, is_fn: bool) -> Contract {
    let mut best = Contract::Missing;
    let mut consider = |comment: &str| {
        if let Some(pos) = comment.find("SAFETY:") {
            if justified(&comment[pos + "SAFETY:".len()..]) {
                best = Contract::Named;
            } else if matches!(best, Contract::Missing) {
                best = Contract::Empty;
            }
        }
        if is_fn && comment.contains("# Safety") {
            best = Contract::Named;
        }
    };
    if let Some(comment) = src.comments.get(idx) {
        consider(comment);
    }
    let mut above = idx;
    while above > 0 {
        above -= 1;
        let raw = src.raw.get(above).map(|l| l.trim_start()).unwrap_or("");
        // The contract may sit anywhere in the contiguous run of
        // comment-only (or attribute) lines directly above the site.
        if !(raw.starts_with("//") || raw.starts_with("#[")) {
            break;
        }
        if let Some(comment) = src.comments.get(above) {
            consider(comment);
        }
    }
    best
}

/// The per-crate ratchet shared by C1, H2, and U1: every crate whose
/// count exceeds its budget (unlisted crates have budget 0), mapped to
/// `(count, budget)`.
pub(crate) fn over_budget<'a>(
    counts: &'a BTreeMap<String, usize>,
    budgets: &BTreeMap<String, usize>,
) -> BTreeMap<&'a str, (usize, usize)> {
    counts
        .iter()
        .filter_map(|(name, &count)| {
            let budget = budgets.get(name).copied().unwrap_or(0);
            (count > budget).then_some((name.as_str(), (count, budget)))
        })
        .collect()
}

/// The C1 and U1 budget phases: per-crate counts against the audited
/// ratchets. C1 anchors at the crate root, U1 at the first file in the
/// crate holding an unsafe site.
pub fn check_budgets(summaries: &[FileSummary], config: &Config, report: &mut Report) {
    for (crate_name, (count, budget)) in over_budget(&report.unwrap_counts, &config.unwrap_budgets)
    {
        report.violations.push(Violation {
            file: anchor(summaries, crate_name, |s| {
                s.path.file_name().is_some_and(|f| f == "lib.rs")
            }),
            line: 1,
            rule: Rule::C1,
            message: format!(
                "{crate_name} has {count} unwrap()/expect( calls in non-test library \
                 code, over its budget of {budget} — convert to typed errors or \
                 annotate invariant-guarding sites with lint:allow(C1)"
            ),
        });
    }
    let mut unsafe_counts: BTreeMap<String, usize> = BTreeMap::new();
    for s in summaries {
        *unsafe_counts.entry(s.crate_name.clone()).or_insert(0) += s.unsafe_count;
    }
    for (crate_name, (count, budget)) in over_budget(&unsafe_counts, &config.unsafe_budgets) {
        report.violations.push(Violation {
            file: anchor(summaries, crate_name, |s| s.unsafe_count > 0),
            line: 1,
            rule: Rule::U1,
            message: format!(
                "{crate_name} has {count} unsafe site(s) in non-test library code, over \
                 its audited budget of {budget} — the workspace is safe Rust by \
                 construction; remove the site or consciously raise \
                 default_unsafe_budgets after an audit"
            ),
        });
    }
}

/// The first file of `crate_name` matching `pick`, for a stable
/// budget-finding path (the bare crate name when none matches).
fn anchor(
    summaries: &[FileSummary],
    crate_name: &str,
    pick: impl Fn(&FileSummary) -> bool,
) -> PathBuf {
    summaries
        .iter()
        .find(|s| s.crate_name == crate_name && pick(s))
        .map(|s| s.path.clone())
        .unwrap_or_else(|| PathBuf::from(crate_name))
}

fn metric_crate(name: &str) -> bool {
    name == "magellan-graph" || name == "magellan-analysis"
}

/// Whether `line` contains `needle` as a standalone identifier
/// (not a substring of a longer identifier).
pub(crate) fn contains_ident(line: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = line[abs + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + needle.len();
    }
    false
}

/// Detects `== 1.0`, `0.5 !=`, `== 1e-9` style comparisons against
/// float literals, leaving `<=`, `>=`, and integer comparisons alone.
fn has_float_equality(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (i, w) in bytes.windows(2).enumerate() {
        let op = matches!(w, b"==" | b"!=");
        if !op {
            continue;
        }
        // Exclude `<=`, `>=`, `!==`-like runs handled naturally: `<=`
        // and `>=` never match the `==`/`!=` windows at this offset
        // unless preceded by `<`/`>`/`=`/`!`.
        if i > 0 && matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!') {
            continue;
        }
        if bytes.get(i + 2) == Some(&b'=') {
            continue;
        }
        let left = line[..i].trim_end();
        let right = line[i + 2..].trim_start();
        if float_literal_at_end(left) || float_literal_at_start(right) {
            return true;
        }
    }
    false
}

fn float_literal_at_start(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    let mut digits = false;
    let mut dot = false;
    let mut exp = false;
    for c in s.chars() {
        match c {
            '0'..='9' | '_' => digits = true,
            '.' if digits && !dot => dot = true,
            'e' | 'E' if digits && !exp => exp = true,
            '-' | '+' if exp => {}
            _ => break,
        }
    }
    digits && (dot || exp) || s.starts_with("f64::") || s.starts_with("f32::")
}

fn float_literal_at_end(s: &str) -> bool {
    let tail: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '-' | '+'))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    let t = tail.trim_start_matches(['-', '+']);
    t.contains('.') && t.chars().next().is_some_and(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint_one(path: &str, text: &str) -> Vec<Violation> {
        let src = SourceFile::parse(PathBuf::from(path), text);
        let config = Config::default();
        crate::lint_sources(&[src], &config).violations
    }

    fn ids(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule.id()).collect()
    }

    const CLEAN_HEADER: &str = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";

    #[test]
    fn d1_fires_in_sim_crates_only() {
        let bad = "use std::collections::HashMap;\n";
        assert!(ids(&lint_one("crates/overlay/src/x.rs", bad)).contains(&"D1"));
        assert!(ids(&lint_one("crates/netsim/src/x.rs", bad)).contains(&"D1"));
        assert!(!ids(&lint_one("crates/graph/src/x.rs", bad)).contains(&"D1"));
        assert!(!ids(&lint_one("crates/overlay/tests/x.rs", bad)).contains(&"D1"));
    }

    #[test]
    fn d1_allow_with_justification_suppresses() {
        let ok = "use std::collections::HashMap; // lint:allow(D1): only point lookups\n";
        assert!(lint_one("crates/overlay/src/x.rs", ok).is_empty());
        let noreason = "use std::collections::HashMap; // lint:allow(D1)\n";
        let vs = lint_one("crates/overlay/src/x.rs", noreason);
        assert!(ids(&vs).contains(&"M1"), "{vs:?}");
        assert!(ids(&vs).contains(&"D1"), "{vs:?}");
    }

    #[test]
    fn d2_fires_on_clock_and_entropy() {
        for bad in [
            "let t = std::time::Instant::now();\n",
            "let t = SystemTime::now();\n",
            "let mut r = rand::rng();\n",
            "let mut r = thread_rng();\n",
        ] {
            let vs = lint_one("crates/workload/src/x.rs", bad);
            assert!(ids(&vs).contains(&"D2"), "{bad:?} -> {vs:?}");
        }
        // Doc comments and strings do not trip the rule.
        let doc = "//! Never call `thread_rng` here.\nconst X: &str = \"Instant::now\";\n";
        assert!(!ids(&lint_one("crates/workload/src/x.rs", doc)).contains(&"D2"));
        // The bench harness may time things.
        let bench = "let t = std::time::Instant::now();\n";
        assert!(lint_one("crates/bench/src/x.rs", bench).is_empty());
    }

    #[test]
    fn d3_fires_on_raw_thread_spawn_in_governed_crates() {
        for bad in [
            "let h = std::thread::spawn(move || work());\n",
            "let h = thread::spawn(f);\n",
            "let b = thread::Builder::new();\n",
        ] {
            for file in [
                "crates/overlay/src/x.rs",
                "crates/graph/src/x.rs",
                "crates/analysis/src/x.rs",
                "crates/trace/src/x.rs",
                "src/lib.rs",
            ] {
                let vs = lint_one(file, bad);
                assert!(ids(&vs).contains(&"D3"), "{file} {bad:?} -> {vs:?}");
            }
        }
    }

    #[test]
    fn d3_spares_magellan_par_tests_and_the_escape_hatch() {
        let spawn = "let h = std::thread::spawn(f);\n";
        // magellan-par is the sanctioned home of spawns (its own scoped
        // `scope.spawn` calls would not match the needle anyway).
        assert!(!ids(&lint_one("crates/par/src/lib.rs", spawn)).contains(&"D3"));
        // The bench harness is determinism-exempt; test modules are free.
        assert!(!ids(&lint_one("crates/bench/src/x.rs", spawn)).contains(&"D3"));
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{spawn}}}\n");
        assert!(!ids(&lint_one("crates/graph/src/x.rs", &in_test)).contains(&"D3"));
        // Annotated escape with justification.
        let allowed =
            "let h = std::thread::spawn(f); // lint:allow(D3): detached IO thread, output unused\n";
        assert!(!ids(&lint_one("crates/graph/src/x.rs", allowed)).contains(&"D3"));
        // scope.spawn (the magellan-par implementation idiom) is fine.
        let scoped = "let h = scope.spawn(f);\n";
        assert!(!ids(&lint_one("crates/graph/src/x.rs", scoped)).contains(&"D3"));
    }

    #[test]
    fn c1_budget_is_enforced_per_crate() {
        // magellan-lint has budget 0, so one unwrap in lib code trips C1.
        let bad = format!("{CLEAN_HEADER}fn f() {{ x.unwrap(); }}\n");
        let vs = lint_one("crates/lint/src/lib.rs", &bad);
        assert!(ids(&vs).contains(&"C1"), "{vs:?}");
        // Inside #[cfg(test)] it is free.
        let test_only =
            format!("{CLEAN_HEADER}#[cfg(test)]\nmod tests {{\n fn t() {{ x.unwrap(); }}\n}}\n");
        assert!(lint_one("crates/lint/src/lib.rs", &test_only).is_empty());
        // An allow-annotated site does not count against the budget.
        let allowed = format!(
            "{CLEAN_HEADER}fn f() {{ x.unwrap(); // lint:allow(C1): index checked above\n}}\n"
        );
        assert!(lint_one("crates/lint/src/lib.rs", &allowed).is_empty());
    }

    #[test]
    fn c2_fires_on_float_equality_only() {
        let bad = "if x == 0.0 { }\n";
        assert!(ids(&lint_one("crates/graph/src/x.rs", bad)).contains(&"C2"));
        let bad2 = "if 1.5 != y { }\n";
        assert!(ids(&lint_one("crates/analysis/src/x.rs", bad2)).contains(&"C2"));
        for ok in [
            "if x <= 0.5 { }\n",
            "if x >= 1.0 { }\n",
            "if (a - b).abs() < 1e-9 { }\n",
            "if n == 0 { }\n",
            "if version == 10 { }\n",
        ] {
            let vs = lint_one("crates/graph/src/x.rs", ok);
            assert!(!ids(&vs).contains(&"C2"), "{ok:?} -> {vs:?}");
        }
    }

    #[test]
    fn c3_fires_on_narrowing_casts() {
        let bad = "let x = big as u16;\n";
        assert!(ids(&lint_one("crates/graph/src/x.rs", bad)).contains(&"C3"));
        let bad2 = "let n = v.len() as u32;\n";
        assert!(ids(&lint_one("crates/analysis/src/x.rs", bad2)).contains(&"C3"));
        let ok = "let x = small as u64;\nlet y = n as f64;\nlet z = w as usize;\n";
        assert!(!ids(&lint_one("crates/graph/src/x.rs", ok)).contains(&"C3"));
    }

    #[test]
    fn h1_requires_both_headers() {
        let vs = lint_one("crates/graph/src/lib.rs", "#![forbid(unsafe_code)]\n");
        assert_eq!(ids(&vs), vec!["H1"]);
        assert!(lint_one("crates/graph/src/lib.rs", CLEAN_HEADER).is_empty());
        // Non-root files need no headers.
        assert!(lint_one("crates/graph/src/degree.rs", "fn f() {}\n").is_empty());
    }

    #[test]
    fn m1_fires_on_unknown_rule() {
        let vs = lint_one("crates/graph/src/x.rs", "// lint:allow(Z9): whatever\n");
        assert_eq!(ids(&vs), vec!["M1"]);
    }

    #[test]
    fn violations_are_sorted_and_displayed() {
        let src_a = SourceFile::parse(
            PathBuf::from("crates/overlay/src/a.rs"),
            "use std::collections::HashSet;\n",
        );
        let src_b = SourceFile::parse(
            PathBuf::from("crates/overlay/src/b.rs"),
            "use std::collections::HashMap;\n",
        );
        let report = crate::lint_sources(&[src_b, src_a], &Config::default());
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations[0].file < report.violations[1].file);
        let shown = report.violations[0].to_string();
        assert!(shown.contains("crates/overlay/src/a.rs:1: D1"), "{shown}");
    }
}
