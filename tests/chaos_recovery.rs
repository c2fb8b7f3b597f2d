//! Hostile-network and crash-recovery drills against the real
//! `magellan-traced` binary, with `tracetool nemesis` interposed as a
//! deterministic chaos proxy.
//!
//! Three contracts are exercised end to end:
//!
//! 1. **Chaos transparency** — the TCP drill profile (latency,
//!    fragmentation, coalescing, stalls, resets, kills; never
//!    corruption) must not change the analysis: drives with a
//!    reconnect budget pointed *through* the proxy must land an
//!    archive whose `magellan replay` is byte-identical to the
//!    in-process study's, with every casualty accounted.
//! 2. **Drain** — `SIGTERM` mid-run must seal the in-flight window,
//!    flush the sidecars, and exit 0 with balanced partial books.
//! 3. **Crash-resume** — `kill -9` mid-run followed by `serve
//!    --resume` and a re-drive must converge on the same replay as an
//!    uninterrupted run, re-receives reconciling as `Late`/`surplus`
//!    rather than duplicate archive records.

use magellan::trace::service::{read_ingest_stats, read_service_resume};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn magellan_bin() -> &'static str {
    env!("CARGO_BIN_EXE_magellan")
}

fn traced_bin() -> &'static str {
    env!("CARGO_BIN_EXE_magellan-traced")
}

fn tracetool_bin() -> &'static str {
    env!("CARGO_BIN_EXE_tracetool")
}

/// Same scenario the plain ingest drill uses: small, seconds-fast,
/// identical for the in-process study and every networked run.
const PARAMS: [&str; 8] = [
    "--seed",
    "9",
    "--scale",
    "0.0005",
    "--days",
    "1",
    "--sample-every-mins",
    "240",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("magellan-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn wait_for_addr(port_file: &Path, owner: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = std::fs::read_to_string(port_file) {
            let s = s.trim();
            if !s.is_empty() {
                return s.to_string();
            }
        }
        if let Some(status) = owner.try_wait().expect("poll child") {
            panic!("process exited before binding: {status:?}");
        }
        assert!(Instant::now() < deadline, "no port file appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls until `path` exists — the first `INGEST.resume` checkpoint,
/// i.e. proof the run is mid-window — failing fast if serve dies.
fn wait_for_checkpoint(path: &Path, serve: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !path.exists() {
        if let Some(status) = serve.try_wait().expect("poll serve") {
            panic!("serve exited before the first checkpoint: {status:?}");
        }
        assert!(Instant::now() < deadline, "no checkpoint appeared");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_success(mut child: Child, what: &str) -> String {
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        stdout.read_to_string(&mut out).expect("read child stdout");
    }
    let status = child.wait().expect("wait child");
    assert!(status.success(), "{what} failed ({status:?}):\n{out}");
    out
}

/// Reaps a child whose exit status is irrelevant (a drive whose
/// server was killed under it, a proxy at teardown).
fn wait_ignored(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn signal(child: &Child, sig: &str) {
    let ok = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("spawn kill")
        .success();
    assert!(ok, "kill {sig} {} failed", child.id());
}

fn replay_filtered(dir: &Path) -> String {
    let out = Command::new(magellan_bin())
        .args(["replay", "--archive", &dir.to_string_lossy()])
        .output()
        .expect("spawn magellan replay");
    assert!(out.status.success(), "replay failed: {out:?}");
    String::from_utf8(out.stdout)
        .expect("utf8 report")
        .lines()
        .filter(|l| !l.starts_with("Ingest"))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn in_process_study(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let out = Command::new(magellan_bin())
        .arg("study")
        .args(["--archive", &dir.to_string_lossy()])
        .args(PARAMS)
        .output()
        .expect("spawn magellan study");
    assert!(out.status.success(), "in-process study failed: {out:?}");
    dir
}

fn serve(dir: &Path, port_file: &Path, extra: &[&str]) -> Child {
    Command::new(traced_bin())
        .arg("serve")
        .args(["--archive", &dir.to_string_lossy()])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--port-file", &port_file.to_string_lossy()])
        .args(PARAMS)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn magellan-traced serve")
}

fn drive(addr: &str, client_id: u32, clients: u32, extra: &[&str]) -> Child {
    Command::new(traced_bin())
        .arg("drive")
        .args(["--server", addr])
        .args(["--client-id", &client_id.to_string()])
        .args(["--clients", &clients.to_string()])
        .args(PARAMS)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn magellan-traced drive")
}

fn nemesis(upstream: &str, port_file: &Path, profile: &str, seed: u64) -> Child {
    Command::new(tracetool_bin())
        .arg("nemesis")
        .args(["--upstream", upstream])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--port-file", &port_file.to_string_lossy()])
        .args(["--profile", profile])
        .args(["--seed", &seed.to_string()])
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn tracetool nemesis")
}

/// Two TCP drives through the nemesis proxy under the full TCP drill
/// profile: splits, coalesces, delays, stalls, resets, and kills —
/// survived by the reconnect budget — must leave the analysis
/// byte-identical to the in-process study, books balanced.
#[test]
fn tcp_chaos_drill_is_invisible_to_the_analysis() {
    let inproc = in_process_study("tcp-inproc");
    let traced = temp_dir("tcp-drill");
    let serve_port = traced.join("port");
    let proxy_port = traced.join("proxy-port");

    let mut server = serve(&traced, &serve_port, &["--clients", "2", "--shards", "2"]);
    let upstream = wait_for_addr(&serve_port, &mut server);
    let mut proxy = nemesis(&upstream, &proxy_port, "tcp", 9);
    let chaos_addr = wait_for_addr(&proxy_port, &mut proxy);

    let extra = ["--reconnect", "64"];
    let d0 = drive(&chaos_addr, 0, 2, &extra);
    let d1 = drive(&chaos_addr, 1, 2, &extra);
    wait_success(d0, "drive 0 through chaos");
    wait_success(d1, "drive 1 through chaos");
    let serve_out = wait_success(server, "serve behind chaos");
    wait_ignored(proxy);

    assert!(
        serve_out.contains("balanced yes"),
        "chaos broke the balance identity:\n{serve_out}"
    );
    assert_eq!(
        replay_filtered(&inproc),
        replay_filtered(&traced),
        "transport chaos changed the analysis"
    );

    std::fs::remove_dir_all(&inproc).ok();
    std::fs::remove_dir_all(&traced).ok();
}

/// The chaos schedule is a pure function of the seed: two
/// `--print-schedule` invocations agree byte for byte, and a
/// different seed diverges — a failing drill is replayable.
#[test]
fn nemesis_schedule_is_reproducible_per_seed() {
    let print = |seed: &str, profile: &str| -> String {
        let out = Command::new(tracetool_bin())
            .arg("nemesis")
            .args(["--print-schedule", "64", "--flows", "4"])
            .args(["--seed", seed])
            .args(["--profile", profile])
            .output()
            .expect("spawn tracetool nemesis --print-schedule");
        assert!(out.status.success(), "print-schedule failed: {out:?}");
        String::from_utf8(out.stdout).expect("utf8 schedule")
    };
    let a = print("42", "tcp");
    let b = print("42", "tcp");
    assert_eq!(a, b, "same seed must print the same schedule");
    assert_ne!(a, print("43", "tcp"), "different seeds must diverge");
    assert_ne!(a, print("42", "off"), "profiles must diverge");
}

/// A flag the subcommand does not read — a retired one or a typo —
/// exits non-zero naming it, before `serve` creates its run
/// directory, instead of running silently with defaults.
#[test]
fn unknown_flags_exit_nonzero_naming_the_flag() {
    let parent = temp_dir("flags");
    let dir = parent.join("run");
    let dir = dir.to_str().expect("utf8 temp path");
    let runs = [
        (
            traced_bin(),
            vec!["drive", "--server", "127.0.0.1:9", "--transport", "tcp"],
        ),
        (
            traced_bin(),
            vec!["serve", "--archive", dir, "--transport", "tcp"],
        ),
        (
            tracetool_bin(),
            vec!["nemesis", "--print-schedule", "4", "--profiel", "tcp"],
        ),
    ];
    for (bin, args) in runs {
        let out = Command::new(bin)
            .args(&args)
            .output()
            .expect("spawn with an unknown flag");
        let flag = args[args.len() - 2];
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(
            stderr.contains(flag),
            "{args:?}: {flag} not named:\n{stderr}"
        );
    }
    assert!(
        !parent.join("run").exists(),
        "serve wrote its run directory"
    );
    std::fs::remove_dir_all(&parent).ok();
}

/// SIGTERM mid-window: the service seals what it has, flushes the
/// sidecars, reports the drain, and exits 0 with balanced partial
/// books — at one shard and at eight.
#[test]
fn sigterm_drains_seals_and_exits_zero() {
    for shards in ["1", "8"] {
        let traced = temp_dir(&format!("drain-{shards}"));
        let serve_port = traced.join("port");
        let checkpoint = traced.join("archive").join("INGEST.resume");

        let mut server = serve(
            &traced,
            &serve_port,
            &["--clients", "2", "--shards", shards],
        );
        let addr = wait_for_addr(&serve_port, &mut server);
        let d0 = drive(&addr, 0, 2, &[]);
        let d1 = drive(&addr, 1, 2, &[]);

        wait_for_checkpoint(&checkpoint, &mut server);
        signal(&server, "-TERM");
        let serve_out = wait_success(server, "serve after SIGTERM");
        wait_ignored(d0);
        wait_ignored(d1);

        assert!(
            serve_out.contains("drained_on_signal yes"),
            "[{shards} shards] drain not reported:\n{serve_out}"
        );
        assert!(
            serve_out.contains("balanced yes"),
            "[{shards} shards] drain broke the balance identity:\n{serve_out}"
        );
        // The durability lane was joined, not abandoned: the
        // checkpoint on disk is the last sealed window's — one merge
        // behind the closed books exactly when the final drain still
        // had something to land — and vouches for no record the
        // archive does not hold.
        let archive = traced.join("archive");
        let resume = read_service_resume(&archive)
            .expect("read INGEST.resume")
            .expect("INGEST.resume parses");
        let closed = read_ingest_stats(&archive)
            .expect("read INGEST")
            .expect("INGEST parses");
        let final_batch = closed.merges - resume.stats.merges;
        assert!(
            final_batch <= 1,
            "[{shards} shards] checkpoint is {final_batch} merges behind the books:\n{serve_out}"
        );
        let archived: u64 = serve_out
            .lines()
            .find_map(|l| l.strip_prefix("magellan-traced: archived "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|w| w.parse().ok())
            .expect("archived count in serve output");
        assert!(
            resume.archived <= archived,
            "[{shards} shards] cursor {} ahead of {archived} archived records",
            resume.archived
        );
        if final_batch == 0 {
            assert_eq!(resume.archived, archived);
        }
        // The partial archive is a valid run: replay must work.
        let replay = replay_filtered(&traced);
        assert!(
            !replay.is_empty(),
            "[{shards} shards] drained archive does not replay"
        );

        std::fs::remove_dir_all(&traced).ok();
    }
}

/// kill -9 mid-window, then `serve --resume` and a full re-drive:
/// the books are restored from the checkpoint, the torn tail is
/// truncated, re-received reports shed as `Late` below the frontier,
/// and the final replay is byte-identical to an uninterrupted
/// in-process study — at one shard and at eight.
#[test]
fn kill_nine_resume_converges_on_the_uninterrupted_study() {
    let inproc = in_process_study("resume-inproc");
    let want = replay_filtered(&inproc);

    for shards in ["1", "8"] {
        let traced = temp_dir(&format!("resume-{shards}"));
        let serve_port = traced.join("port");
        let checkpoint = traced.join("archive").join("INGEST.resume");
        let flags = ["--clients", "2", "--shards", shards];

        let mut server = serve(&traced, &serve_port, &flags);
        let addr = wait_for_addr(&serve_port, &mut server);
        let d0 = drive(&addr, 0, 2, &[]);
        let d1 = drive(&addr, 1, 2, &[]);

        // Crash for real the moment the run is provably mid-window.
        wait_for_checkpoint(&checkpoint, &mut server);
        signal(&server, "-KILL");
        let _ = server.wait();
        wait_ignored(d0);
        wait_ignored(d1);

        // Resume from the checkpoint and run the whole drill again.
        std::fs::remove_file(&serve_port).ok();
        let mut server = serve(&traced, &serve_port, &[&flags[..], &["--resume"]].concat());
        let addr = wait_for_addr(&serve_port, &mut server);
        let d0 = drive(&addr, 0, 2, &[]);
        let d1 = drive(&addr, 1, 2, &[]);
        wait_success(d0, "re-drive 0");
        wait_success(d1, "re-drive 1");
        let serve_out = wait_success(server, "serve --resume");

        assert!(
            serve_out.contains("resumed at"),
            "[{shards} shards] resume did not restore a checkpoint:\n{serve_out}"
        );
        assert!(
            serve_out.contains("balanced yes"),
            "[{shards} shards] resume broke the balance identity:\n{serve_out}"
        );
        assert_eq!(
            want,
            replay_filtered(&traced),
            "[{shards} shards] crash-resume changed the analysis"
        );

        std::fs::remove_dir_all(&traced).ok();
    }
    std::fs::remove_dir_all(&inproc).ok();
}
