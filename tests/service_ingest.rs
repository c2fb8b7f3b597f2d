//! Multi-process ingest drills against the real `magellan-traced`
//! binary.
//!
//! The service's contract is that distribution must be invisible to
//! the analysis: N drive processes streaming wire-encoded reports over
//! loopback sockets into one serve process must produce an archive
//! whose `magellan replay` report is byte-identical to replaying an
//! in-process `magellan study` archive of the same scenario (modulo
//! the `Ingest` accounting lines only the service writes). And under
//! deliberate overload the service must shed — not stall, not grow
//! without bound, not panic — with every report accounted for in the
//! balance identity `sent == admitted + deduped + shed + ... + lost`.

use magellan::trace::codec::{encode_client_msg, frame, ClientMsg};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn magellan_bin() -> &'static str {
    env!("CARGO_BIN_EXE_magellan")
}

fn traced_bin() -> &'static str {
    env!("CARGO_BIN_EXE_magellan-traced")
}

/// Shared scenario parameters, small enough to finish in seconds and
/// identical for the in-process study and the networked drill.
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
    let dir = std::env::temp_dir().join(format!("magellan-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Polls the serve process's `--port-file` until the bound address
/// appears, failing fast if the server dies first.
fn wait_for_addr(port_file: &Path, serve: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = std::fs::read_to_string(port_file) {
            let s = s.trim();
            if !s.is_empty() {
                return s.to_string();
            }
        }
        if let Some(status) = serve.try_wait().expect("poll serve") {
            panic!("serve exited before binding: {status:?}");
        }
        assert!(Instant::now() < deadline, "serve never wrote its port file");
        std::thread::sleep(Duration::from_millis(20));
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

/// `magellan replay` text with the service-only `Ingest` lines
/// stripped, so traced and in-process archives compare equal.
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

/// Two TCP clients, partitioned by peer address, against one serve
/// process: the replayed report must match the in-process study's.
#[test]
fn multi_process_drill_matches_in_process_study() {
    let inproc = temp_dir("inproc");
    let traced = temp_dir("traced");
    let port_file = traced.join("port");

    let out = Command::new(magellan_bin())
        .arg("study")
        .args(["--archive", &inproc.to_string_lossy()])
        .args(PARAMS)
        .output()
        .expect("spawn magellan study");
    assert!(out.status.success(), "in-process study failed: {out:?}");

    let mut server = serve(&traced, &port_file, &["--clients", "2", "--shards", "2"]);
    let addr = wait_for_addr(&port_file, &mut server);
    let d0 = drive(&addr, 0, 2, &[]);
    let d1 = drive(&addr, 1, 2, &[]);
    wait_success(d0, "drive 0");
    wait_success(d1, "drive 1");
    let serve_out = wait_success(server, "serve");
    assert!(
        serve_out.contains("balanced yes"),
        "serve accounting did not balance:\n{serve_out}"
    );
    assert!(
        serve_out.lines().any(|l| l == "lost 0"),
        "TCP drill lost reports:\n{serve_out}"
    );
    // Every window sealed before the final drain went through the
    // durability lane, and the lane says so on stdout.
    let lane: Vec<&str> = serve_out
        .lines()
        .find_map(|l| l.strip_prefix("magellan-traced: durability lane "))
        .expect("durability lane line in serve output")
        .split_whitespace()
        .collect();
    assert_eq!(
        (lane[0], lane[2], lane[4], lane[6]),
        ("commits", "busy_ms", "max_depth", "coordinator_blocked_ms"),
        "lane line changed shape:\n{serve_out}"
    );
    let commits: u64 = lane[1].parse().expect("commit count");
    assert!(
        commits > 0 && commits + 1 >= stat(&serve_out, "merges"),
        "{commits} lane commits for the windows sealed:\n{serve_out}"
    );

    assert_eq!(
        replay_filtered(&inproc),
        replay_filtered(&traced),
        "distributed ingest changed the analysis"
    );

    std::fs::remove_dir_all(&inproc).ok();
    std::fs::remove_dir_all(&traced).ok();
}

/// Runs `clients` drives with `drive_args` against a serve process
/// with `serve_args`, waits for all, and checks that the serve books
/// balance and that reports were shed `Busy`. Returns the serve
/// transcript.
fn overload_drill(name: &str, clients: u32, serve_args: &[&str], drive_args: &[&str]) -> String {
    let traced = temp_dir(name);
    let port_file = traced.join("port");
    let n = clients.to_string();
    let mut args = vec!["--clients", n.as_str()];
    args.extend_from_slice(serve_args);
    let mut server = serve(&traced, &port_file, &args);
    let addr = wait_for_addr(&port_file, &mut server);
    let drives: Vec<Child> = (0..clients)
        .map(|id| drive(&addr, id, clients, drive_args))
        .collect();
    for d in drives {
        wait_success(d, "drive under overload");
    }
    let serve_out = wait_success(server, "serve under overload");

    assert!(
        serve_out.contains("balanced yes"),
        "overload broke the balance identity:\n{serve_out}"
    );
    assert!(
        stat(&serve_out, "shed_busy") > 0,
        "tiny queues should have shed reports:\n{serve_out}"
    );
    std::fs::remove_dir_all(&traced).ok();
    serve_out
}

/// Deliberate overload: one queued message is a whole socket read's
/// reports, and two clients share one shard behind a one-message
/// queue, so a full queue sheds batches of several reports.
/// `balanced` holds by construction (`lost` is derived), but
/// loopback TCP loses nothing: a shed batch the server answers with
/// too few `Busy` records, or counts short in `queue_shed`, shows up
/// as `lost`. Whether a given run fills the queue depends on timing;
/// the batch count itself is pinned by the serve binary's
/// `full_queue_sheds_the_whole_batch_busy`.
#[test]
fn tcp_overload_sheds_batches_and_stays_balanced() {
    let serve_out = overload_drill(
        "overload_tcp",
        2,
        &["--shards", "1", "--pending-cap", "8", "--queue-cap", "1"],
        &["--max-attempts", "3", "--backoff-cap-ms", "8"],
    );
    assert_eq!(stat(&serve_out, "lost"), 0, "shed reports went missing");
    assert_eq!(stat(&serve_out, "surplus"), 0, "shed reports counted twice");
}

/// Parses one `key N` column out of the serve transcript.
fn stat(serve_out: &str, key: &str) -> u64 {
    serve_out
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no `{key}` column in serve output:\n{serve_out}"))
}

/// A slowloris connection — opened, fed two bytes of a frame prefix,
/// then held silent — must be reaped by the idle deadline instead of
/// pinning a reader thread, while a legitimate client drills through
/// unharmed.
#[test]
fn slowloris_connection_is_reaped_not_serviced_forever() {
    let traced = temp_dir("slowloris");
    let port_file = traced.join("port");

    let mut server = serve(
        &traced,
        &port_file,
        &[
            "--clients",
            "2",
            "--shards",
            "1",
            "--idle-timeout-ms",
            "300",
        ],
    );
    let addr = wait_for_addr(&port_file, &mut server);

    // The attack: a half-open connection that never completes a frame.
    let mut loris = TcpStream::connect(&addr).expect("connect slowloris");
    loris.write_all(&[0u8, 0u8]).expect("send partial prefix");

    // One legitimate client streams alongside the attack. The second
    // joins only once the server has hung up on the slowloris, so the
    // study cannot finish (and serve exit) before the idle deadline
    // has had its chance — however fast the simulator gets.
    let d0 = drive(&addr, 0, 2, &[]);
    loris
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set read timeout");
    match loris.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the slowloris connection was never dropped: {other:?}"),
    }
    let d1 = drive(&addr, 1, 2, &[]);
    wait_success(d0, "drive alongside slowloris");
    wait_success(d1, "drive after the reap");
    let serve_out = wait_success(server, "serve under slowloris");
    drop(loris);

    let reaped: u64 = serve_out
        .lines()
        .find_map(|l| l.strip_prefix("magellan-traced: defense reaped_idle "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|w| w.parse().ok())
        .expect("defense line in serve output");
    assert!(
        reaped >= 1,
        "the slowloris connection was never reaped:\n{serve_out}"
    );
    assert!(
        serve_out.contains("balanced yes"),
        "slowloris broke the balance identity:\n{serve_out}"
    );
    assert_eq!(stat(&serve_out, "lost"), 0, "legit client lost reports");

    std::fs::remove_dir_all(&traced).ok();
}

/// A client that says Hello and then vanishes must be evicted at the
/// barrier deadline so the surviving client's windows still seal —
/// a partial, accounted run instead of a wedged merge pipeline.
#[test]
fn vanished_client_degrades_to_partial_seal() {
    let traced = temp_dir("vanished");
    let port_file = traced.join("port");

    let mut server = serve(
        &traced,
        &port_file,
        &[
            "--clients",
            "2",
            "--shards",
            "2",
            "--barrier-timeout-ms",
            "700",
        ],
    );
    let addr = wait_for_addr(&port_file, &mut server);

    // Client 1 joins the roster and then dies without a word.
    let mut ghost = TcpStream::connect(&addr).expect("connect ghost client");
    ghost
        .write_all(&frame(&encode_client_msg(&ClientMsg::Hello {
            client_id: 1,
            clients: 2,
        })))
        .expect("send hello");
    drop(ghost);

    let d = drive(&addr, 0, 2, &[]);
    wait_success(d, "surviving drive");
    let serve_out = wait_success(server, "serve with vanished client");

    assert!(
        serve_out.contains("balanced yes"),
        "vanished client broke the balance identity:\n{serve_out}"
    );
    assert_eq!(
        stat(&serve_out, "evicted"),
        1,
        "the ghost client was not evicted:\n{serve_out}"
    );
    assert!(
        serve_out.contains("barrier deadline"),
        "no partial-seal eviction was reported:\n{serve_out}"
    );
    assert!(
        stat(&serve_out, "merges") > 0,
        "the surviving client's windows never sealed:\n{serve_out}"
    );

    std::fs::remove_dir_all(&traced).ok();
}

/// With a per-connection token bucket armed, a full-speed client gets
/// throttled with the retryable `RateLimited` verdict — visible in
/// the books, with every throttled report eventually delivered.
#[test]
fn rate_limited_reports_are_throttled_retried_and_accounted() {
    let traced = temp_dir("ratelimit");
    let port_file = traced.join("port");

    let mut server = serve(
        &traced,
        &port_file,
        &[
            "--clients",
            "1",
            "--shards",
            "2",
            "--rate-limit",
            "600",
            "--rate-burst",
            "8",
        ],
    );
    let addr = wait_for_addr(&port_file, &mut server);
    let d = drive(
        &addr,
        0,
        1,
        &["--max-attempts", "64", "--backoff-cap-ms", "50"],
    );
    wait_success(d, "drive under rate limiting");
    let serve_out = wait_success(server, "serve under rate limiting");

    assert!(
        serve_out.contains("balanced yes"),
        "rate limiting broke the balance identity:\n{serve_out}"
    );
    assert!(
        stat(&serve_out, "rate_limited") > 0,
        "a full-speed client never tripped the token bucket:\n{serve_out}"
    );
    assert_eq!(
        stat(&serve_out, "lost"),
        0,
        "throttled reports must be retried, not lost:\n{serve_out}"
    );

    std::fs::remove_dir_all(&traced).ok();
}
