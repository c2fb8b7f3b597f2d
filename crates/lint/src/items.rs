//! Item extraction: the lightweight per-file Rust parser behind the
//! call-graph rules.
//!
//! Built on the comment/string-stripped view from [`crate::source`],
//! this module recognizes just enough structure for a workspace call
//! graph: `fn` definitions with their body extents, `use` imports
//! (so cross-crate calls resolve), and call sites attributed to the
//! innermost enclosing function. It is deliberately not a full Rust
//! parser — macro-generated items and trait dispatch are invisible —
//! which is why rule D4 over-approximates by resolving calls by name
//! (see [`crate::taint`]) and offers the `lint:allow(D4): <why>` hatch.

use crate::source::SourceFile;

/// One `fn` definition found in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's bare name (impl/trait qualification is not
    /// recorded; same-name functions in one crate share a call-graph
    /// node).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub def_line: usize,
    /// 1-based inclusive line span of the body (signature line through
    /// the closing brace). Declarations without bodies are skipped.
    pub body_start: usize,
    /// End of the body span (inclusive).
    pub body_end: usize,
    /// Whether the definition is `pub` (any visibility qualifier).
    pub is_pub: bool,
    /// Whether the definition sits inside a `#[cfg(test)]` module.
    pub in_test: bool,
    /// Call sites inside this function's body.
    pub calls: Vec<CallSite>,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the call.
    pub line: usize,
    /// Whether the call is a method call (`receiver.name(...)`).
    pub method: bool,
    /// Whether the method's receiver is `self` itself (`self.name(..)`,
    /// not `self.field.name(..)`): the callee is then a method of the
    /// caller's own type, which lets resolution stay in the caller's
    /// crate (see [`crate::reach`]).
    pub on_self: bool,
    /// Path segments as written (`["magellan_graph", "random",
    /// "watts_strogatz"]`, or just `["helper"]` for a bare call).
    pub path: Vec<String>,
}

/// One `use` import: the name it binds mapped to its full path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// The bound name (the last segment, or the `as` alias).
    pub name: String,
    /// Full path segments, ending with the imported item.
    pub path: Vec<String>,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Function definitions in source order.
    pub fns: Vec<FnItem>,
    /// `use` imports (glob imports are ignored).
    pub uses: Vec<UseImport>,
}

/// Keywords that look like call heads but never are.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "loop", "return", "break", "continue", "move", "in", "as", "fn",
    "let", "else", "where", "impl",
];

/// Parses the item structure of `src`.
pub fn parse_items(src: &SourceFile) -> FileItems {
    let mut items = FileItems::default();
    parse_uses(src, &mut items);
    parse_fns(src, &mut items);
    items
}

fn parse_uses(src: &SourceFile, items: &mut FileItems) {
    let mut pending = String::new();
    for line in &src.code {
        let t = line.trim();
        if pending.is_empty() {
            if let Some(rest) = t.strip_prefix("use ") {
                pending.push_str(rest);
            } else if let Some(rest) = t.strip_prefix("pub use ") {
                pending.push_str(rest);
            } else {
                continue;
            }
        } else {
            pending.push(' ');
            pending.push_str(t);
        }
        if pending.contains(';') {
            let stmt = pending
                .split(';')
                .next()
                .unwrap_or_default()
                .trim()
                .to_owned();
            pending.clear();
            expand_use(&stmt, &mut items.uses);
        }
    }
}

/// Expands one `use` statement body (without the `use`/`;`) into flat
/// imports. Handles one level of `{...}` grouping and `as` aliases;
/// glob imports are skipped.
fn expand_use(stmt: &str, out: &mut Vec<UseImport>) {
    let stmt = stmt.trim();
    if let Some(open) = stmt.find('{') {
        let prefix = stmt[..open].trim_end_matches("::").trim();
        let Some(close) = stmt.rfind('}') else {
            return;
        };
        for part in split_top_level(&stmt[open + 1..close]) {
            let joined = if prefix.is_empty() {
                part.trim().to_owned()
            } else {
                format!("{prefix}::{}", part.trim())
            };
            expand_use(&joined, out);
        }
        return;
    }
    if stmt.ends_with('*') || stmt.is_empty() {
        return;
    }
    let (path_part, alias) = match stmt.split_once(" as ") {
        Some((p, a)) => (p.trim(), Some(a.trim())),
        None => (stmt, None),
    };
    let path: Vec<String> = path_part
        .split("::")
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect();
    let Some(last) = path.last() else {
        return;
    };
    let name = alias.unwrap_or(last).to_owned();
    if name == "self" {
        // `use a::b::{self}` binds `b`.
        if path.len() >= 2 {
            let bound = path[path.len() - 2].clone();
            out.push(UseImport {
                name: bound,
                path: path[..path.len() - 1].to_vec(),
            });
        }
        return;
    }
    out.push(UseImport { name, path });
}

/// Splits a brace-group body on top-level commas (nested `{}` groups
/// stay intact and recurse through [`expand_use`]).
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '{' => {
                depth += 1;
                cur.push(c);
            }
            '}' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

/// A function currently open during the scan.
struct OpenFn {
    item: FnItem,
    /// Brace depth at which the body opened; the body closes when the
    /// running depth returns to this value.
    open_depth: i32,
}

/// A signature seen but whose body brace has not opened yet.
struct PendingFn {
    item: FnItem,
}

fn parse_fns(src: &SourceFile, items: &mut FileItems) {
    let mut depth: i32 = 0;
    let mut open: Vec<OpenFn> = Vec::new();
    let mut pending: Option<PendingFn> = None;

    for (idx, line) in src.code.iter().enumerate() {
        let lineno = idx + 1;
        // Resolve a pending signature: its body opens at the first
        // `{`, or it turns out to be a bodyless trait declaration.
        if let Some(p) = pending.take() {
            if let Some(brace_col) = line.find('{') {
                if line[..brace_col].contains(';') {
                    // declaration only
                    pending = None;
                } else {
                    open.push(OpenFn {
                        item: p.item,
                        open_depth: depth,
                    });
                }
            } else if line.contains(';') {
                // declaration only
            } else {
                pending = Some(p);
            }
        }

        // New fn definitions on this line.
        if let Some(mut item) = fn_def_on_line(line, lineno, src) {
            // Does the body open on the same line (after the name)?
            let after_name = line.find("fn ").map(|p| p + 3).unwrap_or(0);
            let rest = &line[after_name..];
            if let Some(brace_rel) = rest.find('{') {
                if !rest[..brace_rel].contains(';') {
                    item.body_start = lineno;
                    // Depth *before* this line's braces are counted is
                    // the open depth; we add this line's delta below.
                    open.push(OpenFn {
                        item,
                        open_depth: depth,
                    });
                } // `fn f(); { ... }` — declaration, ignore
            } else if rest.contains(';') {
                // bodyless declaration
            } else {
                item.body_start = lineno;
                pending = Some(PendingFn { item });
            }
        }

        // Call sites on this line belong to the innermost open fn.
        if let Some(inner) = open.last_mut() {
            if !line.trim_start().starts_with("#[") {
                collect_calls(line, lineno, &mut inner.item.calls);
            }
        }

        // Update depth and close any fns whose body ends here.
        depth += brace_delta(line);
        while let Some(top) = open.last() {
            if depth <= top.open_depth {
                let Some(popped) = open.pop() else {
                    break;
                };
                let mut done = popped.item;
                done.body_end = lineno;
                // Inner fns' calls also belong to callers?  No —
                // nested fns own their calls; the outer fn merely
                // *defines* them. Keep attribution exact.
                items.fns.push(done);
            } else {
                break;
            }
        }
    }
    // Unclosed fns at EOF (truncated input): close at the last line.
    while let Some(top) = open.pop() {
        let mut done = top.item;
        done.body_end = src.code.len();
        items.fns.push(done);
    }
    items.fns.sort_by_key(|f| f.def_line);
}

/// Recognizes `fn name` on a code line, returning a skeleton item.
fn fn_def_on_line(line: &str, lineno: usize, src: &SourceFile) -> Option<FnItem> {
    let mut search = 0usize;
    while let Some(pos) = line[search..].find("fn ") {
        let abs = search + pos;
        search = abs + 3;
        // Word boundary before `fn`.
        if abs > 0 {
            let before = line[..abs].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
        }
        let rest = line[abs + 3..].trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue; // `fn(` pointer type
        }
        let is_pub = line[..abs].contains("pub");
        return Some(FnItem {
            name,
            def_line: lineno,
            body_start: lineno,
            body_end: lineno,
            is_pub,
            in_test: src.in_test_module.get(lineno - 1).copied().unwrap_or(false),
            calls: Vec::new(),
        });
    }
    None
}

/// Extracts call heads from one code line.
fn collect_calls(line: &str, lineno: usize, out: &mut Vec<CallSite>) {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        // Back-scan the path: identifiers and `::` separators.
        let mut j = i;
        while j > 0 {
            let c = bytes[j - 1];
            if c.is_ascii_alphanumeric() || c == b'_' || c == b':' {
                j -= 1;
            } else {
                break;
            }
        }
        let head = &line[j..i];
        if head.is_empty() || head.starts_with(':') {
            continue;
        }
        // Macro invocation (`println!(`) or keyword head.
        if j > 0 && bytes[j - 1] == b'!' {
            continue;
        }
        // Definition, not a call: `fn name(`.
        let before = line[..j].trim_end();
        if before.ends_with("fn")
            && !before
                .chars()
                .rev()
                .nth(2)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        let segments: Vec<String> = head.split("::").map(str::to_owned).collect();
        if segments.iter().any(String::is_empty) {
            continue;
        }
        let Some(last) = segments.last() else {
            continue;
        };
        // Types, tuple structs, and enum variants are capitalized;
        // function calls in this workspace are snake_case.
        if !last.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
            continue;
        }
        if segments.len() == 1 && NON_CALL_KEYWORDS.contains(&last.as_str()) {
            continue;
        }
        let method = j > 0 && bytes[j - 1] == b'.' && segments.len() == 1;
        out.push(CallSite {
            line: lineno,
            method,
            on_self: method && is_self_receiver(&line[..j - 1]),
            path: segments,
        });
    }
}

/// Whether the code before a method call's `.` ends in the bare
/// receiver `self` (so `self.flush()` and `&self.flush()` do, but
/// `self.inner.flush()` and `myself.flush()` do not).
fn is_self_receiver(before_dot: &str) -> bool {
    before_dot
        .strip_suffix("self")
        .is_some_and(|rest| !rest.ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == '.'))
}

fn brace_delta(line: &str) -> i32 {
    let mut d = 0;
    for c in line.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn items(text: &str) -> FileItems {
        let src = SourceFile::parse(PathBuf::from("crates/graph/src/x.rs"), text);
        parse_items(&src)
    }

    #[test]
    fn fn_definitions_and_spans() {
        let text = "pub fn outer(x: u32) -> u32 {\n    helper(x)\n}\n\nfn helper(x: u32) -> u32 {\n    x + 1\n}\n";
        let fi = items(text);
        assert_eq!(fi.fns.len(), 2);
        assert_eq!(fi.fns[0].name, "outer");
        assert!(fi.fns[0].is_pub);
        assert_eq!((fi.fns[0].body_start, fi.fns[0].body_end), (1, 3));
        assert_eq!(fi.fns[1].name, "helper");
        assert!(!fi.fns[1].is_pub);
        assert_eq!(fi.fns[0].calls.len(), 1);
        assert_eq!(fi.fns[0].calls[0].path, vec!["helper"]);
        assert!(!fi.fns[0].calls[0].method);
    }

    #[test]
    fn multiline_signature_and_trait_decl() {
        let text = "pub fn long(\n    a: u32,\n    b: u32,\n) -> u32 {\n    a\n}\ntrait T {\n    fn decl(&self) -> u32;\n}\n";
        let fi = items(text);
        assert_eq!(fi.fns.len(), 1, "{:?}", fi.fns);
        assert_eq!(fi.fns[0].name, "long");
        assert_eq!(fi.fns[0].body_end, 6);
    }

    #[test]
    fn method_and_qualified_calls() {
        let text = "fn f(g: &G) {\n    let v = g.und(x);\n    magellan_graph::random::watts_strogatz(10, 2, 0.1, 7);\n    Csr::from_digraph(g);\n    Some(1);\n    println!(\"no\");\n}\n";
        let fi = items(text);
        let calls = &fi.fns[0].calls;
        let paths: Vec<&Vec<String>> = calls.iter().map(|c| &c.path).collect();
        assert!(paths.iter().any(|p| p.as_slice() == ["und"]));
        assert!(paths
            .iter()
            .any(|p| p.as_slice() == ["magellan_graph", "random", "watts_strogatz"]));
        assert!(paths
            .iter()
            .any(|p| p.as_slice() == ["Csr", "from_digraph"]));
        // `Some(` (variant) and `println!(` (macro) are not calls.
        assert!(!paths.iter().any(|p| p.last().unwrap() == "println"));
        assert!(!paths.iter().any(|p| p.last().unwrap() == "Some"));
        let und = calls.iter().find(|c| c.path == ["und"]).unwrap();
        assert!(und.method);
        assert!(!und.on_self);
    }

    #[test]
    fn self_receiver_is_recorded() {
        let text = "fn f(&mut self) {\n    self.flush();\n    self.inner.drain();\n    myself.seal();\n    (&self).peek();\n    helper(self.count());\n}\n";
        let fi = items(text);
        let on_self = |name: &str| {
            let c = fi.fns[0].calls.iter().find(|c| c.path == [name]).unwrap();
            assert!(c.method, "{name} is a method call");
            c.on_self
        };
        assert!(on_self("flush"));
        assert!(on_self("count"));
        assert!(!on_self("drain"));
        assert!(!on_self("seal"));
        assert!(!on_self("peek"));
    }

    #[test]
    fn nested_fn_owns_its_calls() {
        let text = "fn outer() {\n    fn inner() {\n        deep();\n    }\n    shallow();\n}\n";
        let fi = items(text);
        let outer = fi.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fi.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].path, vec!["shallow"]);
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].path, vec!["deep"]);
    }

    #[test]
    fn use_imports_flat_grouped_aliased() {
        let text = "use magellan_graph::random::watts_strogatz;\nuse magellan_trace::{TraceStore, snapshot::SnapshotBuilder};\nuse std::collections::HashMap as Map;\nuse magellan_graph::smallworld;\n";
        let fi = items(text);
        let find = |n: &str| fi.uses.iter().find(|u| u.name == n);
        assert_eq!(
            find("watts_strogatz").unwrap().path,
            vec!["magellan_graph", "random", "watts_strogatz"]
        );
        assert_eq!(
            find("SnapshotBuilder").unwrap().path,
            vec!["magellan_trace", "snapshot", "SnapshotBuilder"]
        );
        assert_eq!(
            find("Map").unwrap().path,
            vec!["std", "collections", "HashMap"]
        );
        assert_eq!(
            find("smallworld").unwrap().path,
            vec!["magellan_graph", "smallworld"]
        );
    }

    #[test]
    fn test_module_fns_are_marked() {
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { lib(); }\n}\n";
        let fi = items(text);
        let t = fi.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.in_test);
        let l = fi.fns.iter().find(|f| f.name == "lib").unwrap();
        assert!(!l.in_test);
    }

    #[test]
    fn strings_do_not_create_calls() {
        let text = "fn f() {\n    let s = \"call_me(now)\";\n}\n";
        let fi = items(text);
        assert!(fi.fns[0].calls.is_empty(), "{:?}", fi.fns[0].calls);
    }
}
