//! Memory guard: a durable study's checkpoints must not hold a second
//! copy of the simulator's state.
//!
//! The guard runs the benchmark's `study_flash` shape (scale 0.005,
//! one day, a CCTV1 ×2.2 flash crowd at 21:00, a checkpoint every 256
//! ticks) twice, each in a fresh child process: once through
//! `DurableStudy::run`, which archives and checkpoints, and once
//! through `MagellanStudy::run`, which does neither. Each child reads
//! its own peak resident set (`VmHWM` in `/proc/self/status`). The
//! checkpoint streams from the live simulator through one write
//! buffer, so the durable peak must sit within 2 MiB of the in-memory
//! one; a checkpoint that copies the peer slab or buffers its body
//! again overshoots by several MiB.
//!
//! Linux only, and release mode only in practice, so it is
//! `#[ignore]`d; `scripts/check.sh` runs it:
//!
//! ```text
//! cargo test --release --test checkpoint_memory -- --ignored
//! ```

use magellan::analysis::durable::{DurableConfig, DurableStudy};
use magellan::analysis::study::{MagellanStudy, StudyConfig};
use magellan::netsim::{SimDuration, SimTime};
use magellan::trace::ArchiveConfig;
use magellan::workload::{ChannelId, FlashCrowd};
use std::process::Command;

/// Set on a child to name the driver it runs.
const DRIVER_VAR: &str = "MAGELLAN_MEMORY_GUARD_DRIVER";

/// The name of the test a child process runs.
const CHILD_TEST: &str = "peak_of_one_driver";

/// How far the durable peak may sit above the in-memory one.
const SLACK_KIB: u64 = 2 * 1024;

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

/// This process's peak resident set in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// The child: runs the driver its parent named and prints its peak.
/// Without the variable (a plain `--ignored` run) it does nothing.
#[test]
#[ignore = "a child of durable_checkpoints_cost_no_copy_of_the_state"]
fn peak_of_one_driver() {
    let Ok(driver) = std::env::var(DRIVER_VAR) else {
        return;
    };
    let cfg = flash_config();
    match driver.as_str() {
        "durable" => {
            let dir =
                std::env::temp_dir().join(format!("magellan-memory-guard-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let dcfg = DurableConfig {
                archive: ArchiveConfig::default(),
                checkpoint_every_ticks: 256,
                keep_checkpoints: 2,
            };
            let study = DurableStudy::new(&dir, cfg, dcfg);
            study.run().expect("durable study");
            let checkpoints = std::fs::read_dir(study.checkpoint_dir())
                .expect("checkpoint dir")
                .count();
            std::fs::remove_dir_all(&dir).expect("remove run dir");
            assert!(checkpoints > 0, "the durable run wrote no checkpoint");
        }
        "in-memory" => {
            MagellanStudy::new(cfg).run();
        }
        other => panic!("unknown driver {other}"),
    }
    println!("peak_kib {}", vm_hwm_kib());
}

/// Runs `driver` in a fresh copy of this test binary; its peak in KiB.
fn child_peak_kib(driver: &str) -> u64 {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([CHILD_TEST, "--exact", "--ignored", "--nocapture"])
        .args(["--test-threads", "1"])
        .env(DRIVER_VAR, driver)
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

#[test]
#[ignore = "release-mode memory guard; scripts/check.sh runs it"]
fn durable_checkpoints_cost_no_copy_of_the_state() {
    let durable = child_peak_kib("durable");
    let in_memory = child_peak_kib("in-memory");
    println!("peak: durable {durable} KiB, in-memory {in_memory} KiB");
    assert!(
        durable <= in_memory + SLACK_KIB,
        "durable peak {durable} KiB exceeds the in-memory {in_memory} KiB by more than {SLACK_KIB} KiB"
    );
}
