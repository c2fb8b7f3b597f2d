//! End-to-end crash drills against the real `magellan` binary.
//!
//! A study killed with `abort()` at a deterministic tick and resumed
//! from its checkpoint must finish with an archive and a report that
//! are *byte-identical* to an uninterrupted run — at one worker and at
//! eight, since resume restores every RNG stream and the metric
//! kernels are schedule-independent. A flipped byte in a sealed
//! segment must cost only the damaged frame, with the damage
//! quantified in the replayed report.

use std::path::{Path, PathBuf};
use std::process::Command;

fn magellan_bin() -> &'static str {
    env!("CARGO_BIN_EXE_magellan")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("magellan-crashdrill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Shared study parameters, small enough to finish in seconds.
fn study_args(dir: &Path, threads: u64) -> Vec<String> {
    [
        "study",
        "--archive",
        &dir.to_string_lossy(),
        "--seed",
        "9",
        "--scale",
        "0.0005",
        "--days",
        "1",
        "--sample-every-mins",
        "240",
        "--checkpoint-every-ticks",
        "64",
        "--segment-bytes",
        "16384",
        "--threads",
        &threads.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn run(args: &[String]) -> std::process::Output {
    Command::new(magellan_bin())
        .args(args)
        .output()
        .expect("spawn magellan")
}

/// Every archive file (segments + manifest), name-sorted, with bytes.
fn archive_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("archive"))
        .expect("read archive dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read archive file"),
            )
        })
        .collect();
    files.sort();
    files
}

fn kill_and_resume_at(threads: u64) {
    let clean = temp_dir(&format!("clean-{threads}"));
    let crashed = temp_dir(&format!("crashed-{threads}"));
    let clean_report = clean.join("report.txt");
    let crashed_report = crashed.join("report.txt");

    let mut args = study_args(&clean, threads);
    args.extend([
        "--report".into(),
        clean_report.to_string_lossy().into_owned(),
    ]);
    let out = run(&args);
    assert!(out.status.success(), "clean run failed: {out:?}");

    // A cadence no study can run with is refused before anything is
    // written, so the directory is not left half-configured.
    let mut args = study_args(&crashed, threads);
    let cadence = args.iter().position(|a| a == "--sample-every-mins");
    args[cadence.expect("cadence flag") + 1] = "0".into();
    let out = run(&args);
    assert_eq!(out.status.code(), Some(1), "bad cadence: {out:?}");
    assert!(!crashed.join("study.cfg").exists(), "study.cfg was written");

    // Crash: abort() at tick 150 (checkpoints land every 64 ticks).
    let mut args = study_args(&crashed, threads);
    args.extend(["--kill-at-tick".into(), "150".into()]);
    let out = run(&args);
    assert!(!out.status.success(), "the crash drill was supposed to die");

    // Resume and finish.
    let resume_args: Vec<String> = [
        "study",
        "--archive",
        &crashed.to_string_lossy(),
        "--resume",
        "--threads",
        &threads.to_string(),
        "--report",
        &crashed_report.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = run(&resume_args);
    assert!(out.status.success(), "resume failed: {out:?}");

    assert_eq!(
        archive_files(&clean),
        archive_files(&crashed),
        "resumed archive is not byte-identical at {threads} thread(s)"
    );
    assert_eq!(
        std::fs::read(&clean_report).expect("clean report"),
        std::fs::read(&crashed_report).expect("crashed report"),
        "resumed report is not byte-identical at {threads} thread(s)"
    );

    std::fs::remove_dir_all(&clean).ok();
    std::fs::remove_dir_all(&crashed).ok();
}

#[test]
fn kill_and_resume_is_byte_identical_single_threaded() {
    kill_and_resume_at(1);
}

#[test]
fn kill_and_resume_is_byte_identical_parallel() {
    kill_and_resume_at(8);
}

#[test]
fn corrupted_segment_costs_one_frame_and_is_reported() {
    let dir = temp_dir("corrupt");
    let out = run(&study_args(&dir, 1));
    assert!(out.status.success(), "study failed: {out:?}");

    // Count clean records via replay, then flip one byte mid-segment.
    let replay = |d: &Path| {
        let out = run(&[
            "replay".into(),
            "--archive".into(),
            d.to_string_lossy().into_owned(),
        ]);
        assert!(out.status.success(), "replay failed: {out:?}");
        String::from_utf8(out.stdout).expect("utf8 report")
    };
    let clean_text = replay(&dir);
    assert!(
        clean_text.contains("corrupt regions 0"),
        "clean replay reported damage:\n{clean_text}"
    );

    let seg = std::fs::read_dir(dir.join("archive"))
        .expect("read archive dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().starts_with("seg-"))
                .unwrap_or(false)
        })
        .min()
        .expect("a sealed segment");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&seg, bytes).expect("write segment");

    let text = replay(&dir);
    assert!(
        text.contains("corrupt regions 1"),
        "damage not reported:\n{text}"
    );
    let recovered = |t: &str| -> u64 {
        t.lines()
            .find(|l| l.contains("Archive replay"))
            .and_then(|l| {
                l.split_whitespace()
                    .skip_while(|w| *w != "—")
                    .nth(1)
                    .and_then(|w| w.parse().ok())
            })
            .expect("recovered count in report text")
    };
    let lost = recovered(&clean_text) - recovered(&text);
    assert!(
        (1..=4).contains(&lost),
        "one flipped byte should cost a frame or two, lost {lost}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
