//! Incremental cache: per-file analysis summaries keyed by
//! mtime+size with an FNV-1a content-hash fallback.
//!
//! The cache stores exactly the per-file products of
//! [`crate::analyze_file`] — line-local violations, the unwrap count,
//! and the call-graph fragment (functions, calls, taint sources,
//! cost sinks, imports). The *global* phases (C1 budgets, D4 taint
//! propagation, H2/H3/P2 hot-path cost) are cheap and always recompute
//! from the summaries, so a cached file still participates fully in
//! cross-file analysis.
//!
//! Invalidation is layered: the whole cache is dropped when the
//! ruleset/config fingerprint changes (new rules via
//! [`crate::RULES_VERSION`], changed budgets, changed dep graph, new
//! crate version); a single entry is reused
//! when mtime+size match, or — when only the mtime moved — when the
//! re-hashed content matches. The file lives under `target/`, which
//! the workspace walker already skips.

use crate::output::fnv64;
use crate::{
    CallSite, Config, CostKind, CostSink, FileSummary, FnSummary, LockAcquire, TaintKind,
    TaintSource, UseImport, Violation, RULES, RULES_VERSION,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::UNIX_EPOCH;

/// Cache location relative to the workspace root. The `.v3` suffix
/// changed with the concurrency pass (lock records, unsafe counts,
/// wider `K` records) so older caches are never even opened.
pub const CACHE_FILE: &str = "target/magellan-lint-cache.v3";

/// Freshness stamp for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStamp {
    /// Modification time in nanoseconds since the epoch (0 when the
    /// filesystem reports none).
    pub mtime_ns: u128,
    /// File size in bytes.
    pub size: u64,
    /// FNV-1a 64 of the contents; 0 until [`full_stamp`] fills it.
    pub hash: u64,
}

/// Reads the cheap (metadata-only) stamp of `path`.
///
/// # Errors
///
/// Propagates metadata read failures.
pub fn file_stamp(path: &Path) -> io::Result<FileStamp> {
    let meta = std::fs::metadata(path)?;
    let mtime_ns = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    Ok(FileStamp {
        mtime_ns,
        size: meta.len(),
        hash: 0,
    })
}

/// Completes a metadata stamp with the content hash.
pub fn full_stamp(stamp: FileStamp, text: &str) -> FileStamp {
    FileStamp {
        hash: fnv64(text.as_bytes()),
        ..stamp
    }
}

/// Whether a cached entry is still valid for the file at `abs`:
/// mtime+size fast path, content re-hash when only the mtime moved.
///
/// # Errors
///
/// Propagates read failures from the re-hash path.
pub fn stamp_fresh(entry: &FileStamp, now: &FileStamp, abs: &Path) -> io::Result<bool> {
    if entry.size != now.size {
        return Ok(false);
    }
    if entry.mtime_ns == now.mtime_ns {
        return Ok(true);
    }
    if entry.hash == 0 {
        return Ok(false);
    }
    let text = std::fs::read_to_string(abs)?;
    Ok(fnv64(text.as_bytes()) == entry.hash)
}

/// Fingerprint over everything that invalidates the whole cache: the
/// rule set (ids *and* [`RULES_VERSION`], so behavior changes inside
/// an existing rule also bust warm caches), the budgets, the dep
/// graph, and the crate version.
fn config_fingerprint(config: &Config) -> String {
    format!("{:016x}", fnv64(fingerprint_key(config).as_bytes()))
}

/// The unhashed fingerprint key: crate version, rules version, rule
/// ids, budgets, and the crate dependency graph. Any drift in these
/// invalidates every cache entry.
fn fingerprint_key(config: &Config) -> String {
    let mut key = String::from(env!("CARGO_PKG_VERSION"));
    key.push_str(&format!("|rv{RULES_VERSION}"));
    for rule in RULES {
        key.push('|');
        key.push_str(rule.id());
    }
    for (k, v) in &config.unwrap_budgets {
        key.push_str(&format!("|{k}={v}"));
    }
    for (k, v) in &config.hot_alloc_budgets {
        key.push_str(&format!("|hot:{k}={v}"));
    }
    for (k, v) in &config.unsafe_budgets {
        key.push_str(&format!("|unsafe:{k}={v}"));
    }
    for (k, deps) in &config.crate_deps {
        key.push_str(&format!("|{k}->"));
        for d in deps {
            key.push_str(d);
            key.push(',');
        }
    }
    key
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn kind_tag(kind: crate::TargetKind) -> &'static str {
    match kind {
        crate::TargetKind::Lib => "lib",
        crate::TargetKind::TestLike => "test",
    }
}

fn kind_from_tag(tag: &str) -> Option<crate::TargetKind> {
    match tag {
        "lib" => Some(crate::TargetKind::Lib),
        "test" => Some(crate::TargetKind::TestLike),
        _ => None,
    }
}

/// Serializes cache entries to the versioned line format.
fn render(config: &Config, entries: &[(PathBuf, FileStamp, FileSummary)]) -> String {
    let mut out = format!("magellan-lint-cache/3 {}\n", config_fingerprint(config));
    for (path, stamp, s) in entries {
        out.push_str(&format!(
            "F {} {} {:016x} {}\n",
            stamp.mtime_ns,
            stamp.size,
            stamp.hash,
            path.display()
        ));
        out.push_str(&format!(
            "K {} {} {} {}\n",
            kind_tag(s.kind),
            s.unwrap_count,
            s.unsafe_count,
            s.crate_name
        ));
        for v in &s.violations {
            out.push_str(&format!(
                "V {} {} {}\n",
                v.line,
                v.rule.id(),
                escape(&v.message)
            ));
        }
        for u in &s.uses {
            out.push_str(&format!("I {} {}\n", u.name, u.path.join("::")));
        }
        for f in &s.fns {
            out.push_str(&format!(
                "N {} {} {} {} {} {} {} {} {}\n",
                f.def_line,
                u8::from(f.is_pub),
                u8::from(f.in_test),
                u8::from(f.d4_allowed),
                u8::from(f.hot_marked),
                u8::from(f.h2_allowed),
                u8::from(f.h3_allowed),
                u8::from(f.p2_allowed),
                f.name
            ));
            for c in &f.calls {
                out.push_str(&format!(
                    "C {} {} {} {}\n",
                    c.line,
                    u8::from(c.method),
                    u8::from(c.on_self),
                    c.path.join("::")
                ));
            }
            for src in &f.sources {
                out.push_str(&format!(
                    "S {} {} {}\n",
                    src.line,
                    src.kind.id(),
                    escape(&src.what)
                ));
            }
            for sink in &f.sinks {
                out.push_str(&format!(
                    "T {} {} {}\n",
                    sink.line,
                    sink.kind.id(),
                    escape(&sink.what)
                ));
            }
            for l in &f.locks {
                out.push_str(&format!(
                    "L {} {} {} {}\n",
                    l.line,
                    l.until,
                    u8::from(l.l1_allowed),
                    l.class
                ));
            }
        }
    }
    out
}

/// Parses the cache text. Any malformed line drops the remainder of
/// its file entry (never the whole cache); a fingerprint mismatch
/// drops everything.
fn parse(text: &str, config: &Config) -> BTreeMap<PathBuf, (FileStamp, FileSummary)> {
    let mut lines = text.lines();
    let expected = format!("magellan-lint-cache/3 {}", config_fingerprint(config));
    if lines.next() != Some(expected.as_str()) {
        return BTreeMap::new();
    }
    let mut out: BTreeMap<PathBuf, (FileStamp, FileSummary)> = BTreeMap::new();
    let mut current: Option<(PathBuf, FileStamp, FileSummary)> = None;
    for line in lines {
        let (tag, rest) = match line.split_once(' ') {
            Some(t) => t,
            None => continue,
        };
        if tag == "F" {
            if let Some((p, st, s)) = current.take() {
                out.insert(p, (st, s));
            }
            let mut parts = rest.splitn(4, ' ');
            let (Some(mtime), Some(size), Some(hash), Some(path)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let (Ok(mtime_ns), Ok(size), Ok(hash)) = (
                mtime.parse::<u128>(),
                size.parse::<u64>(),
                u64::from_str_radix(hash, 16),
            ) else {
                continue;
            };
            let path = PathBuf::from(path);
            current = Some((
                path.clone(),
                FileStamp {
                    mtime_ns,
                    size,
                    hash,
                },
                FileSummary {
                    path,
                    crate_name: String::new(),
                    kind: crate::TargetKind::TestLike,
                    violations: Vec::new(),
                    unwrap_count: 0,
                    unsafe_count: 0,
                    fns: Vec::new(),
                    uses: Vec::new(),
                },
            ));
            continue;
        }
        let Some((_, _, summary)) = current.as_mut() else {
            continue;
        };
        match tag {
            "K" => {
                let mut parts = rest.splitn(4, ' ');
                let (Some(kind), Some(count), Some(unsafe_count), Some(name)) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    current = None;
                    continue;
                };
                let (Some(kind), Ok(count), Ok(unsafe_count)) = (
                    kind_from_tag(kind),
                    count.parse::<usize>(),
                    unsafe_count.parse::<usize>(),
                ) else {
                    current = None;
                    continue;
                };
                summary.kind = kind;
                summary.unwrap_count = count;
                summary.unsafe_count = unsafe_count;
                summary.crate_name = name.to_owned();
            }
            "V" => {
                let mut parts = rest.splitn(3, ' ');
                let (Some(line_no), Some(rule), Some(msg)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    current = None;
                    continue;
                };
                let (Ok(line_no), Some(rule)) = (
                    line_no.parse::<usize>(),
                    RULES.iter().copied().find(|r| r.id() == rule),
                ) else {
                    current = None;
                    continue;
                };
                summary.violations.push(Violation {
                    file: summary.path.clone(),
                    line: line_no,
                    rule,
                    message: unescape(msg),
                });
            }
            "I" => {
                let Some((name, path)) = rest.split_once(' ') else {
                    current = None;
                    continue;
                };
                summary.uses.push(UseImport {
                    name: name.to_owned(),
                    path: path.split("::").map(str::to_owned).collect(),
                });
            }
            "N" => {
                let mut parts = rest.splitn(9, ' ');
                let (
                    Some(def),
                    Some(p),
                    Some(t),
                    Some(a),
                    Some(h),
                    Some(h2),
                    Some(h3),
                    Some(p2),
                    Some(name),
                ) = (
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                )
                else {
                    current = None;
                    continue;
                };
                let Ok(def_line) = def.parse::<usize>() else {
                    current = None;
                    continue;
                };
                summary.fns.push(FnSummary {
                    name: name.to_owned(),
                    def_line,
                    is_pub: p == "1",
                    in_test: t == "1",
                    d4_allowed: a == "1",
                    hot_marked: h == "1",
                    h2_allowed: h2 == "1",
                    h3_allowed: h3 == "1",
                    p2_allowed: p2 == "1",
                    calls: Vec::new(),
                    sources: Vec::new(),
                    sinks: Vec::new(),
                    locks: Vec::new(),
                });
            }
            "C" => {
                let mut parts = rest.splitn(4, ' ');
                let (Some(line_no), Some(method), Some(on_self), Some(path)) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    current = None;
                    continue;
                };
                let (Ok(line_no), Some(f)) = (line_no.parse::<usize>(), summary.fns.last_mut())
                else {
                    current = None;
                    continue;
                };
                f.calls.push(CallSite {
                    line: line_no,
                    method: method == "1",
                    on_self: on_self == "1",
                    path: path.split("::").map(str::to_owned).collect(),
                });
            }
            "S" => {
                let mut parts = rest.splitn(3, ' ');
                let (Some(line_no), Some(kind), Some(what)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    current = None;
                    continue;
                };
                let (Ok(line_no), Some(kind), Some(f)) = (
                    line_no.parse::<usize>(),
                    TaintKind::from_id(kind),
                    summary.fns.last_mut(),
                ) else {
                    current = None;
                    continue;
                };
                f.sources.push(TaintSource {
                    line: line_no,
                    kind,
                    what: unescape(what),
                });
            }
            "T" => {
                let mut parts = rest.splitn(3, ' ');
                let (Some(line_no), Some(kind), Some(what)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    current = None;
                    continue;
                };
                let (Ok(line_no), Some(kind), Some(f)) = (
                    line_no.parse::<usize>(),
                    CostKind::from_id(kind),
                    summary.fns.last_mut(),
                ) else {
                    current = None;
                    continue;
                };
                f.sinks.push(CostSink {
                    line: line_no,
                    kind,
                    what: unescape(what),
                });
            }
            "L" => {
                let mut parts = rest.splitn(4, ' ');
                let (Some(line_no), Some(until), Some(allowed), Some(class)) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    current = None;
                    continue;
                };
                let (Ok(line_no), Ok(until), Some(f)) = (
                    line_no.parse::<usize>(),
                    until.parse::<usize>(),
                    summary.fns.last_mut(),
                ) else {
                    current = None;
                    continue;
                };
                f.locks.push(LockAcquire {
                    line: line_no,
                    class: class.to_owned(),
                    until,
                    l1_allowed: allowed == "1",
                });
            }
            _ => {}
        }
    }
    if let Some((p, st, s)) = current.take() {
        out.insert(p, (st, s));
    }
    out
}

/// Loads the cache under `root/target/`; any failure or fingerprint
/// mismatch yields an empty map (a cold run).
pub fn load_cache(root: &Path, config: &Config) -> BTreeMap<PathBuf, (FileStamp, FileSummary)> {
    match std::fs::read_to_string(root.join(CACHE_FILE)) {
        Ok(text) => parse(&text, config),
        Err(_) => BTreeMap::new(),
    }
}

/// Writes the cache under `root/target/`.
///
/// # Errors
///
/// Propagates directory-creation and write failures (callers treat
/// them as non-fatal).
pub fn store_cache(
    root: &Path,
    config: &Config,
    entries: &[(PathBuf, FileStamp, FileSummary)],
) -> io::Result<()> {
    let path = root.join(CACHE_FILE);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    atomic_write(&path, render(config, entries).as_bytes())
}

/// Writes `bytes` to `path` through a sibling temp file and an atomic
/// rename, so an interrupted run never leaves a torn artifact (a
/// half-written cache or baseline would silently skew the next run).
/// Local stand-in for `magellan_trace::atomic_write` — the lint gate
/// stays dependency-free so it builds before anything else does.
///
/// # Errors
///
/// Propagates creation, write, sync, and rename failures.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn sample_entry() -> (PathBuf, FileStamp, FileSummary) {
        let src = SourceFile::parse(
            PathBuf::from("crates/analysis/src/x.rs"),
            "use magellan_trace::helper::leak;\npub fn study() -> Vec<u32> {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for v in m.values() { leak(); }\n    vec![]\n}\n",
        );
        let summary = crate::analyze_file(&src, &Config::default());
        (
            src.path.clone(),
            FileStamp {
                mtime_ns: 123,
                size: 456,
                hash: 789,
            },
            summary,
        )
    }

    #[test]
    fn roundtrip_preserves_summaries() {
        let config = Config::default();
        let entry = sample_entry();
        let text = render(&config, std::slice::from_ref(&entry));
        let parsed = parse(&text, &config);
        let (stamp, summary) = parsed.get(&entry.0).expect("entry survives");
        assert_eq!(stamp, &entry.1);
        assert_eq!(summary.crate_name, entry.2.crate_name);
        assert_eq!(summary.kind, entry.2.kind);
        assert_eq!(summary.unwrap_count, entry.2.unwrap_count);
        assert_eq!(summary.violations, entry.2.violations);
        assert_eq!(summary.uses, entry.2.uses);
        assert_eq!(summary.fns, entry.2.fns);
    }

    #[test]
    fn fingerprint_mismatch_drops_cache() {
        let config = Config::default();
        let entry = sample_entry();
        let text = render(&config, std::slice::from_ref(&entry));
        let mut other = config.clone();
        other.unwrap_budgets.insert("magellan-lint".to_owned(), 99);
        assert!(parse(&text, &other).is_empty());
        assert!(!parse(&text, &config).is_empty());
    }

    #[test]
    fn garbage_is_ignored_not_fatal() {
        let config = Config::default();
        let text = format!(
            "magellan-lint-cache/3 {}\nF not numbers at all\nV 1 D1 orphan\n",
            super::config_fingerprint(&config)
        );
        assert!(parse(&text, &config).is_empty());
    }

    #[test]
    fn hot_budget_change_drops_cache() {
        let config = Config::default();
        let entry = sample_entry();
        let text = render(&config, std::slice::from_ref(&entry));
        let mut other = config.clone();
        other
            .hot_alloc_budgets
            .insert("magellan-overlay".to_owned(), 7);
        assert!(parse(&text, &other).is_empty());
    }

    /// A warm cache from an older rule set must not mask findings from
    /// rules added since: the prior-format header parses to nothing,
    /// and the fingerprint hashes the `|rv{RULES_VERSION}` component so
    /// a behavior bump inside an existing rule also forces a cold run.
    #[test]
    fn stale_rules_version_forces_cold_run() {
        let config = Config::default();
        let entry = sample_entry();
        let current = render(&config, std::slice::from_ref(&entry));
        let doctored = current.replacen("magellan-lint-cache/3", "magellan-lint-cache/2", 1);
        assert!(parse(&doctored, &config).is_empty(), "old header rejected");
        assert!(
            fingerprint_key(&config).contains(&format!("|rv{RULES_VERSION}")),
            "fingerprint key must carry the rules version"
        );
    }

    #[test]
    fn stamp_freshness_paths() {
        let dir = std::env::temp_dir().join("magellan-lint-stamp-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let file = dir.join("probe.rs");
        std::fs::write(&file, "fn probe() {}\n").expect("write");
        let now = file_stamp(&file).expect("stamp");
        let full = full_stamp(now.clone(), "fn probe() {}\n");
        // Identical metadata: fresh.
        assert!(stamp_fresh(&full, &now, &file).expect("fresh"));
        // Moved mtime, same content: hash path says fresh.
        let moved = FileStamp {
            mtime_ns: full.mtime_ns.wrapping_add(1),
            ..full.clone()
        };
        assert!(stamp_fresh(&moved, &now, &file).expect("hash fresh"));
        // Different size: stale.
        let resized = FileStamp {
            size: full.size + 1,
            ..full
        };
        assert!(!stamp_fresh(&resized, &now, &file).expect("stale"));
        std::fs::remove_file(&file).ok();
    }
}
