//! Runs all four workloads, untraced and traced, through `--smoke`
//! (scale 0.001, one day) and holds the output to `BENCHMARK.json`:
//! every named metric present with its unit, every output check run
//! and passed, the scratch directory gone afterwards.
//!
//! `ingest_tcp` needs the `magellan-traced` binary, which belongs to
//! the repository's own workspace: it is looked for next to this
//! package's binaries and in tier-1's `target/release`, and the test
//! fails — not skips — when `cargo build --release` has not been run.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["study_flash", "study_outage", "replay_dense", "ingest_tcp"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

fn traced_bin() -> PathBuf {
    let bench = Path::new(env!("CARGO_BIN_EXE_pipeline_bench"));
    let candidates = [
        bench.with_file_name("magellan-traced"),
        repo_root().join("target/release/magellan-traced"),
    ];
    candidates
        .iter()
        .find(|p| p.is_file())
        .unwrap_or_else(|| {
            panic!(
                "magellan-traced not found in {candidates:?}: run the repository's \
                 `cargo build --release` first"
            )
        })
        .clone()
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
/// The file is machine-written with one key per line, which is all
/// this reads; the package has no JSON dependency to parse more.
fn declared(spec: &str, section: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &spec[start..];
    let body = &body[..body.find("\n  ]").expect("section closes")];
    let field = |line: &str, key: &str| {
        line.trim()
            .strip_prefix(&format!("\"{key}\": \""))
            .map(|rest| rest.trim_end_matches(',').trim_end_matches('"').to_string())
    };
    let names = body.lines().filter_map(|l| field(l, "name"));
    let units = body.lines().filter_map(|l| field(l, "unit"));
    names.zip(units).collect()
}

#[test]
fn smoke_runs_every_workload_untraced_and_traced() {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    assert_eq!(end_to_end.len(), 7, "{end_to_end:?}");
    assert!(
        per_layer.len() > 60,
        "{} per-layer metrics",
        per_layer.len()
    );

    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-smoke");
    let _ = std::fs::remove_dir_all(&out_dir);
    let traced_bin = traced_bin();
    for workload in WORKLOADS {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_pipeline_bench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .arg("--traced-bin")
                .arg(&traced_bin)
                .arg("--out-dir")
                .arg(&out_dir)
                .output()
                .expect("spawn pipeline_bench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!("{workload} --trace {trace}");
            assert!(
                out.status.success(),
                "{what} exited {:?}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{what}: {result}"
            );
            assert!(result.contains("\"failed\": 0,"), "{what}: {result}");
            for (name, unit) in metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
                let rest = &result[at + entry.len()..];
                let rest = &rest[..rest.find('}').expect("entry closes")];
                assert!(
                    rest.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{what}: metric {name} is not in {unit}: {rest}"
                );
            }
            assert_eq!(
                result.matches("\"value\": ").count(),
                metrics.len(),
                "{what}: metrics beyond BENCHMARK.json"
            );
            let checks = stdout.lines().filter(|l| l.starts_with("check ok")).count();
            assert!(
                checks >= 3,
                "{what}: only {checks} output checks ran\n{stdout}"
            );
            assert!(!stdout.contains("check FAILED"), "{what}\n{stdout}");
        }
    }
    // Scratch run directories are removed on success; only the span
    // dumps of the traced runs stay.
    let mut left: Vec<String> = std::fs::read_dir(&out_dir)
        .expect("out dir exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    left.sort();
    let spans: Vec<String> = {
        let mut v: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("{w}.spans.jsonl"))
            .collect();
        v.sort();
        v
    };
    assert_eq!(left, spans);
    std::fs::remove_dir_all(&out_dir).expect("clean up");
}
