//! Memory guards: neither a durable study's checkpoints nor a resume
//! from one may hold a second copy of the simulator's state.
//!
//! Each driver runs in a fresh child process, which reads its own peak
//! resident set (`VmHWM` in `/proc/self/status`).
//!
//! - Checkpoints: the benchmark's `study_flash` shape (scale 0.005,
//!   one day, a CCTV1 ×2.2 flash crowd at 21:00, a checkpoint every
//!   256 ticks) runs once through `DurableStudy::run`, which archives
//!   and checkpoints, and once through `MagellanStudy::run`, which does
//!   neither. The checkpoint streams from the live simulator through
//!   one write buffer, so the durable peak must sit within 2 MiB of the
//!   in-memory one; a checkpoint that copies the peer slab or buffers
//!   its body again overshoots by several MiB.
//! - Resume: a scale-0.02 day with a checkpoint every 256 ticks runs
//!   uninterrupted in one child. A second child runs it again and
//!   stops at tick 260, just after the tick-256 checkpoint; a third
//!   resumes that run directory. The decoded checkpoint's tables move
//!   into the simulator, so the resumed peak must sit within 2 MiB of
//!   the uninterrupted one; a resume that clones the slab while the
//!   checkpoint is still alive overshoots.
//!
//! Linux only, and release mode only in practice, so both are
//! `#[ignore]`d; `scripts/check.sh` runs them:
//!
//! ```text
//! cargo test --release --test checkpoint_memory -- --ignored
//! ```

use magellan::analysis::durable::{DurableConfig, DurableStudy};
use magellan::analysis::study::{MagellanStudy, StudyConfig};
use magellan::netsim::{SimDuration, SimTime};
use magellan::trace::ArchiveConfig;
use magellan::workload::{ChannelId, FlashCrowd};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Set on a child to name the driver it runs.
const DRIVER_VAR: &str = "MAGELLAN_MEMORY_GUARD_DRIVER";

/// Set on a child to name its run directory.
const DIR_VAR: &str = "MAGELLAN_MEMORY_GUARD_DIR";

/// The name of the test a child process runs.
const CHILD_TEST: &str = "peak_of_one_driver";

/// How far a guarded peak may sit above its reference.
const SLACK_KIB: u64 = 2 * 1024;

/// Checkpoint cadence of every durable driver.
const CHECKPOINT_EVERY: u64 = 256;

/// The tick the killed child stops at: just after a checkpoint.
const KILL_TICK: u64 = 260;

fn flash_config() -> StudyConfig {
    StudyConfig {
        seed: 2006,
        scale: 0.005,
        window_days: 1,
        sample_every: SimDuration::from_mins(60),
        degree_captures: vec![
            ("9am".into(), SimTime::at(0, 9, 0)),
            ("9pm".into(), SimTime::at(0, 21, 0)),
        ],
        flash_crowds: Some(vec![FlashCrowd {
            peak: SimTime::at(0, 21, 0),
            ramp_up: SimDuration::from_mins(60),
            decay: SimDuration::from_mins(90),
            magnitude: 2.2,
            channels: vec![ChannelId::CCTV1],
        }]),
        ..StudyConfig::default()
    }
}

/// The resume guard's shape: the benchmark fixture's scale-0.02 day.
fn day_config() -> StudyConfig {
    StudyConfig {
        seed: 2006,
        scale: 0.02,
        window_days: 1,
        sample_every: SimDuration::from_mins(60),
        ..StudyConfig::default()
    }
}

fn durable(dir: &Path, cfg: StudyConfig) -> DurableStudy {
    let dcfg = DurableConfig {
        archive: ArchiveConfig::default(),
        checkpoint_every_ticks: CHECKPOINT_EVERY,
        keep_checkpoints: 2,
    };
    DurableStudy::new(dir, cfg, dcfg)
}

fn checkpoint_count(study: &DurableStudy) -> usize {
    std::fs::read_dir(study.checkpoint_dir())
        .expect("checkpoint dir")
        .count()
}

/// This process's peak resident set in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// The child: runs the driver its parent named, in the run directory
/// it named, and prints its peak. Without the variable (a plain
/// `--ignored` run) it does nothing.
#[test]
#[ignore = "a child of the memory guards below"]
fn peak_of_one_driver() {
    let Ok(driver) = std::env::var(DRIVER_VAR) else {
        return;
    };
    let dir = std::env::var_os(DIR_VAR).map(PathBuf::from);
    let dir = || dir.clone().expect("the parent names a run directory");
    match driver.as_str() {
        "durable" | "day" => {
            let cfg = if driver == "day" {
                day_config()
            } else {
                flash_config()
            };
            let study = durable(&dir(), cfg);
            study.run().expect("durable study");
            assert!(
                checkpoint_count(&study) > 0,
                "the durable run wrote no checkpoint"
            );
        }
        "in-memory" => {
            MagellanStudy::new(flash_config()).run();
        }
        "killed" => {
            let study = durable(&dir(), day_config());
            study
                .run_observed(|tick| {
                    if tick == KILL_TICK {
                        println!("peak_kib {}", vm_hwm_kib());
                        std::process::exit(0);
                    }
                })
                .expect("durable study");
            panic!("the run ended before tick {KILL_TICK}");
        }
        "resumed" => {
            let study = durable(&dir(), day_config());
            let mut first = None;
            study
                .resume_observed(|tick| {
                    first.get_or_insert(tick);
                })
                .expect("resumed study");
            assert_eq!(
                first,
                Some(KILL_TICK / CHECKPOINT_EVERY * CHECKPOINT_EVERY),
                "the resume did not start from the last checkpoint"
            );
        }
        other => panic!("unknown driver {other}"),
    }
    println!("peak_kib {}", vm_hwm_kib());
}

/// Runs `driver` in a fresh copy of this test binary, in run directory
/// `dir`; its peak in KiB.
fn child_peak_kib(driver: &str, dir: &Path) -> u64 {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([CHILD_TEST, "--exact", "--ignored", "--nocapture"])
        .args(["--test-threads", "1"])
        .env(DRIVER_VAR, driver)
        .env(DIR_VAR, dir)
        .output()
        .expect("spawn child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{driver} child failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness may print the line behind `test <name> ... `.
    stdout
        .lines()
        .find_map(|l| l.split_once("peak_kib ").map(|(_, v)| v))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{driver} child printed no peak: {stdout}"))
}

/// A fresh run directory for `tag`, removed again by the caller.
fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "magellan-memory-guard-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
#[ignore = "release-mode memory guard; scripts/check.sh runs it"]
fn durable_checkpoints_cost_no_copy_of_the_state() {
    let dir = run_dir("flash");
    let durable = child_peak_kib("durable", &dir);
    std::fs::remove_dir_all(&dir).expect("remove run dir");
    let in_memory = child_peak_kib("in-memory", &dir);
    println!("peak: durable {durable} KiB, in-memory {in_memory} KiB");
    assert!(
        durable <= in_memory + SLACK_KIB,
        "durable peak {durable} KiB exceeds the in-memory {in_memory} KiB by more than {SLACK_KIB} KiB"
    );
}

#[test]
#[ignore = "release-mode memory guard; scripts/check.sh runs it"]
fn resume_costs_no_copy_of_the_state() {
    let day = run_dir("day");
    let uninterrupted = child_peak_kib("day", &day);
    std::fs::remove_dir_all(&day).expect("remove run dir");
    let dir = run_dir("resume");
    let killed = child_peak_kib("killed", &dir);
    let resumed = child_peak_kib("resumed", &dir);
    std::fs::remove_dir_all(&dir).expect("remove run dir");
    println!(
        "peak: uninterrupted {uninterrupted} KiB, killed at tick {KILL_TICK} {killed} KiB, \
         resumed {resumed} KiB"
    );
    assert!(
        resumed <= uninterrupted + SLACK_KIB,
        "resumed peak {resumed} KiB exceeds the uninterrupted {uninterrupted} KiB by more than \
         {SLACK_KIB} KiB"
    );
}
