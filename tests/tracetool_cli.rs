//! `tracetool`'s argument checks: a bad command or `snapshot` option
//! exits 1 with usage before any archive is opened. Each case points
//! the tool at a directory that does not exist, so reaching the
//! archive would print `read archive …` instead of usage.

use std::process::{Command, Output};

fn tracetool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(args)
        .output()
        .expect("spawn tracetool")
}

/// A path no test creates.
fn missing_archive() -> String {
    std::env::temp_dir()
        .join(format!(
            "magellan-tracetool-cli-missing-{}",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// Asserts exit 1 with usage, mentioning `needle`, and no archive read.
fn assert_usage(args: &[&str], needle: &str) {
    let out = tracetool(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: no usage in {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: {needle:?} not in {stderr}"
    );
    assert!(
        !stderr.contains("read archive"),
        "{args:?}: opened the archive: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: printed output");
}

#[test]
fn unknown_command_prints_usage_without_opening_the_archive() {
    let dir = missing_archive();
    assert_usage(&["bogus", &dir], "unknown command bogus");
}

#[test]
fn unknown_snapshot_scope_is_rejected() {
    let dir = missing_archive();
    let args = ["snapshot", &dir, "--at", "0,12,0", "--scope", "al"];
    assert_usage(&args, "--scope al");
}

#[test]
fn unknown_snapshot_format_is_rejected() {
    let dir = missing_archive();
    let args = ["snapshot", &dir, "--at", "0,12,0", "--format", "edgez"];
    assert_usage(&args, "--format edgez");
}

#[test]
fn snapshot_time_with_an_unparsable_part_is_rejected() {
    let dir = missing_archive();
    assert_usage(&["snapshot", &dir, "--at", "0,2x,21,0"], "--at 0,2x,21,0");
    assert_usage(&["snapshot", &dir, "--at", "0,21"], "--at 0,21");
}

#[test]
fn valid_snapshot_options_reach_the_archive() {
    // The control: with every option sound, the missing archive is
    // what fails.
    let dir = missing_archive();
    let out = tracetool(&[
        "snapshot", &dir, "--at", "0,21,0", "--scope", "all", "--format", "dot",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("read archive"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}
