//! Trace workbench: inspect and export archived traces.
//!
//! ```text
//! tracetool stats    <archive-dir>
//! tracetool sessions <archive-dir>
//! tracetool snapshot <archive-dir> --at d,h,m [--scope stable|all]
//!                    [--format summary|edges|dot] [--out file]
//! tracetool inspect  <archive-dir>
//! tracetool fsck     <archive-dir>
//! tracetool nemesis  --upstream ADDR [--listen ADDR] [--seed N]
//!                    [--profile tcp|off] [--port-file FILE]
//! tracetool nemesis  --print-schedule EVENTS [--flows N] [--seed N]
//!                    [--profile tcp|off]
//! ```
//!
//! Every command reads the segmented binary archive written by
//! `magellan study --archive` or `magellan-traced serve`; `<archive-dir>`
//! may also be the run directory holding it. `stats` prints trace
//! volume and recovery state, plus the `magellan-traced` ingest
//! accounting (admitted / deduped / shed / lost and whether the books
//! balance) when the run came through the networked service.
//! `snapshot --format edges|dot` exports the reconstructed topology
//! for networkx / Graphviz. `inspect` summarizes contents and
//! recovery state without loading the trace into memory, and `fsck`
//! exits non-zero when any frame was lost to damage. An unknown
//! command, a flag the command does not read, and a `snapshot` value
//! it does not know (`--scope`, `--format`, any `--at` part) exit 1
//! with usage before any archive is read.
//!
//! `nemesis` is the deterministic chaos interposer for the hostile
//! ingest drills: it proxies TCP connections to `--upstream` while
//! injecting the transport hostility scheduled by [`FlowSchedule`] —
//! latency, partial/coalesced writes, byte flips, connection resets,
//! half-open stalls, and mid-stream kills. The schedule is a pure
//! function of `(--seed, flow index, --profile)`, so a failing drill
//! replays exactly;
//! `--print-schedule` renders the decision table as the byte-for-byte
//! reproducibility witness without opening a socket.

use magellan::analysis::graphs::{active_link_graph, node_isps, NodeScope};
use magellan::analysis::sessions::SessionFold;
use magellan::graph::export::{to_dot, to_edge_list};
use magellan::graph::reciprocity::garlaschelli_reciprocity_csr;
use magellan::graph::smallworld::{assess_csr, SmallWorldConfig};
use magellan::graph::Csr;
use magellan::netsim::{IspDatabase, SimTime};
use magellan::runcfg::Args;
use magellan::trace::archive::read_archive;
use magellan::trace::{atomic_write, RecoveryReport, SnapshotBuilder, TraceStats, TraceStore};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Loads every recoverable report of an archive into memory.
fn load(path: &str) -> Result<(TraceStore, RecoveryReport), String> {
    let dir = archive_dir(path);
    let mut store = TraceStore::new();
    let recovery = read_archive(&dir, |r| store.push(r))
        .map_err(|e| format!("read archive {}: {e}", dir.display()))?;
    Ok((store, recovery))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tracetool stats    <archive-dir>\n  tracetool sessions <archive-dir>\n  \
         tracetool snapshot <archive-dir> --at d,h,m [--scope stable|all] [--format summary|edges|dot] [--out file]\n  \
         tracetool inspect  <archive-dir>\n  tracetool fsck     <archive-dir>\n  \
         tracetool nemesis  --upstream ADDR [--listen ADDR] [--seed N] [--profile tcp|off] [--port-file FILE]\n  \
         tracetool nemesis  --print-schedule EVENTS [--flows N] [--seed N] [--profile tcp|off]"
    );
    ExitCode::FAILURE
}

/// `nemesis` — the deterministic chaos proxy. Everything hostile it
/// does is decided by [`FlowSchedule`] (pure seeded arithmetic); this
/// code only executes the scheduled socket mischief.
mod nemesis {
    use magellan::netsim::chaos::{render_schedule, ChaosAction, ChaosProfile, FlowSchedule};
    use magellan::trace::atomic_write;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;
    use std::time::Duration;

    /// Flow indices are allocated process-wide so every TCP
    /// connection gets an independent schedule.
    static NEXT_FLOW: AtomicU64 = AtomicU64::new(0);

    /// The flags `nemesis` reads.
    const FLAGS: [&str; 7] = [
        "--seed",
        "--profile",
        "--print-schedule",
        "--flows",
        "--upstream",
        "--listen",
        "--port-file",
    ];

    fn profile_of(name: &str) -> Result<ChaosProfile, String> {
        match name {
            "tcp" => Ok(ChaosProfile::tcp_drill()),
            "off" => Ok(ChaosProfile::off()),
            other => Err(format!("--profile {other}: expected tcp or off")),
        }
    }

    /// The chaos-bearing direction of one TCP connection
    /// (client → upstream). Replies flow back through a clean pump —
    /// hostility on the request path is what the service must
    /// survive; a mangled reply would only test the drill client.
    fn pump_chaos(mut from: TcpStream, to: TcpStream, mut sched: FlowSchedule) {
        // The coalesce timer: bytes withheld to ride with the next
        // chunk are flushed after one tick anyway (like Nagle), so a
        // request/reply lockstep never deadlocks on the proxy.
        let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
        let mut held: Vec<u8> = Vec::new();
        let mut buf = [0u8; 8192];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if !held.is_empty() {
                        if (&to).write_all(&held).is_err() {
                            break;
                        }
                        held.clear();
                    }
                    continue;
                }
                Err(_) => break,
                Ok(n) => n,
            };
            held.extend_from_slice(&buf[..n]);
            match sched.next_action() {
                ChaosAction::Coalesce => continue, // withhold; prepend to the next chunk
                ChaosAction::Deliver => {}
                ChaosAction::Delay { ms } => thread::sleep(Duration::from_millis(u64::from(ms))),
                ChaosAction::Stall { ms } => {
                    // Half-open pressure: the connection sits silent,
                    // then resumes — the upstream's idle reaper must
                    // tolerate this without dropping a live client.
                    thread::sleep(Duration::from_millis(u64::from(ms)));
                }
                ChaosAction::FlipBit { offset, bit } => {
                    let i = offset as usize % held.len();
                    held[i] ^= 1 << bit;
                }
                ChaosAction::SplitAt { at_pm } => {
                    let at = ((held.len() as u64 * u64::from(at_pm)) / 1000).max(1) as usize;
                    let at = at.min(held.len());
                    if (&to).write_all(&held[..at]).is_err() {
                        break;
                    }
                    (&to).flush().ok();
                    held.drain(..at);
                    if held.is_empty() {
                        continue;
                    }
                }
                ChaosAction::Reset => {
                    // The chunk dies with the connection.
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
                ChaosAction::Kill => {
                    let _ = (&to).write_all(&held);
                    let _ = to.shutdown(Shutdown::Both);
                    let _ = from.shutdown(Shutdown::Both);
                    return;
                }
            }
            if (&to).write_all(&held).is_err() {
                break;
            }
            held.clear();
        }
        // Clean EOF: flush any coalesced remainder, then propagate
        // the half-close so the upstream sees the same stream end.
        if !held.is_empty() {
            let _ = (&to).write_all(&held);
        }
        let _ = to.shutdown(Shutdown::Write);
    }

    /// The clean reply direction (upstream → client).
    fn pump_clean(mut from: TcpStream, to: TcpStream) {
        let mut buf = [0u8; 8192];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            if (&to).write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    }

    fn serve_tcp(listener: TcpListener, upstream: String, seed: u64, profile: ChaosProfile) {
        for conn in listener.incoming() {
            let Ok(client) = conn else { continue };
            let Ok(server) = TcpStream::connect(upstream.as_str()) else {
                let _ = client.shutdown(Shutdown::Both);
                continue;
            };
            let _ = client.set_nodelay(true);
            let _ = server.set_nodelay(true);
            let flow = NEXT_FLOW.fetch_add(1, Ordering::SeqCst);
            let sched = FlowSchedule::new(seed, flow, profile);
            let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                continue;
            };
            // lint:allow(D3): proxy shell — one pump pair per connection, detached; process exit is shutdown
            thread::spawn(move || pump_chaos(client, server, sched));
            // lint:allow(D3): proxy shell — reply pump, detached
            thread::spawn(move || pump_clean(s2, c2));
        }
    }

    /// Entry point for `tracetool nemesis`.
    pub fn run(args: &[String]) -> std::process::ExitCode {
        use std::process::ExitCode as ExitCode2;
        let args = super::Args(args);
        if let Err(e) = args.check(&FLAGS) {
            eprintln!("error: {e}");
            return super::usage();
        }
        let profile_name = args.get("--profile").map_or("tcp", String::as_str);
        let parsed = args.num("--seed").and_then(|seed| {
            let flows = args.num("--flows")?;
            Ok((
                seed.unwrap_or(9),
                flows.unwrap_or(4),
                profile_of(profile_name)?,
            ))
        });
        let (seed, flows, profile) = match parsed {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode2::FAILURE;
            }
        };

        if let Some(events) = args.get("--print-schedule") {
            let Ok(events) = events.parse::<u32>() else {
                eprintln!("error: --print-schedule wants an event count");
                return ExitCode2::FAILURE;
            };
            print!("{}", render_schedule(seed, profile, flows, events));
            return ExitCode2::SUCCESS;
        }

        let Some(upstream) = args.get("--upstream").cloned() else {
            eprintln!("error: --upstream ADDR is required");
            return ExitCode2::FAILURE;
        };
        let listen = args.get("--listen").map_or("127.0.0.1:0", String::as_str);
        let listener = match TcpListener::bind(listen) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: bind tcp {listen}: {e}");
                return ExitCode2::FAILURE;
            }
        };
        let Ok(local) = listener.local_addr() else {
            eprintln!("error: local addr");
            return ExitCode2::FAILURE;
        };
        println!(
            "tracetool nemesis: interposing {local} -> {upstream} (seed {seed}, profile {profile_name})"
        );
        if let Some(path) = args.get("--port-file") {
            if let Err(e) = atomic_write(Path::new(&path), local.to_string().as_bytes()) {
                eprintln!("error: write {path}: {e}");
                return ExitCode2::FAILURE;
            }
        }
        serve_tcp(listener, upstream, seed, profile);
        ExitCode2::SUCCESS
    }
}

/// Accepts either an archive directory or a `magellan study` run
/// directory that contains one.
fn archive_dir(path: &str) -> PathBuf {
    let p = Path::new(path);
    let nested = p.join("archive");
    if nested.is_dir() {
        nested
    } else {
        p.to_path_buf()
    }
}

/// Streams an archive, printing recovery state; returns the exit code
/// (`fsck` fails on any damage, `inspect` only on I/O errors).
fn scan_archive(path: &str, strict: bool) -> ExitCode {
    let dir = archive_dir(path);
    let mut records = 0u64;
    let mut span: Option<(SimTime, SimTime)> = None;
    let mut reporters = std::collections::BTreeSet::new();
    let report = match read_archive(&dir, |r| {
        records += 1;
        reporters.insert(r.addr.as_u32());
        span = Some(match span {
            None => (r.time, r.time),
            Some((lo, hi)) => (lo.min(r.time), hi.max(r.time)),
        });
    }) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("error: read archive {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    println!("archive            : {}", dir.display());
    println!("records recovered  : {records}");
    println!("distinct reporters : {}", reporters.len());
    if let Some((lo, hi)) = span {
        println!("time span          : {lo} .. {hi}");
    }
    print_recovery(&report);
    if strict && !report.is_clean() {
        eprintln!("fsck: archive sustained damage");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `sessions`: streams the archive through the study's stable-session
/// fold. Archive order is admission order, which keeps each peer's
/// reports in time order — the order the fold requires.
fn sessions(path: &str) -> ExitCode {
    let dir = archive_dir(path);
    let mut fold = SessionFold::default();
    if let Err(e) = read_archive(&dir, |r| fold.push(r.addr, r.time)) {
        eprintln!("error: read archive {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let Some(s) = fold.summary() else {
        eprintln!("no sessions in trace");
        return ExitCode::FAILURE;
    };
    println!("stable sessions    : {}", s.sessions);
    println!("mean length        : {:.0} min", s.mean_mins);
    println!("median length      : {:.0} min", s.median_mins);
    println!("p90 length         : {:.0} min", s.p90_mins);
    ExitCode::SUCCESS
}

fn print_recovery(report: &RecoveryReport) {
    println!(
        "segments           : {} ({} sealed)",
        report.segments_read, report.sealed_segments
    );
    println!("corrupt regions    : {}", report.corrupt_regions);
    println!("bytes quarantined  : {}", report.bytes_quarantined);
    println!(
        "torn tail          : {}",
        if report.truncated_tail { "yes" } else { "no" }
    );
}

/// `stats`: trace volume and recovery state, plus — when the run came
/// through `magellan-traced` — the full ingest accounting and its
/// balance verdict.
fn archive_stats(path: &str, store: &TraceStore, recovery: &RecoveryReport) -> ExitCode {
    let dir = archive_dir(path);
    match magellan::trace::service::read_ingest_stats(&dir) {
        Ok(Some(s)) => {
            println!("--- ingest (magellan-traced service) ---");
            println!("clients            : {}", s.clients);
            println!("sent               : {}", s.sent);
            println!("admitted           : {}", s.admitted);
            println!("deduped            : {}", s.deduped);
            println!("shed busy          : {}", s.shed_busy);
            println!("rate limited       : {}", s.rate_limited);
            println!("rejected           : {}", s.rejected);
            println!("malformed          : {}", s.malformed);
            println!("late               : {}", s.late);
            println!("unavailable        : {}", s.unavailable);
            println!("lost in flight     : {}", s.lost);
            println!("surplus received   : {}", s.surplus);
            println!("evicted clients    : {}", s.evicted);
            println!("window merges      : {}", s.merges);
            println!("protocol errors    : {}", s.protocol_errors);
            println!(
                "books balance      : {}",
                if s.balanced() { "yes" } else { "NO" }
            );
        }
        Ok(None) => println!("--- ingest: no sidecar (in-process archive) ---"),
        Err(e) => {
            eprintln!("error: read ingest sidecar: {e}");
            return ExitCode::FAILURE;
        }
    }
    let s = TraceStats::compute(store);
    println!("archive            : {}", dir.display());
    println!("reports            : {}", s.reports);
    println!("wire volume        : {:.2} MB", s.wire_bytes as f64 / 1e6);
    println!("mean report size   : {:.0} B", s.mean_report_bytes);
    println!("distinct reporters : {}", s.distinct_reporters);
    println!("distinct addresses : {}", s.distinct_addresses);
    println!("mean partners      : {:.1}", s.mean_partners);
    println!("active buckets     : {}", s.active_buckets);
    println!("reports per bucket : {:.1}", s.reports_per_bucket);
    if let Some((lo, hi)) = store.time_span() {
        println!("time span          : {lo} .. {hi}");
    }
    print_recovery(recovery);
    ExitCode::SUCCESS
}

/// The commands that take an archive path.
const ARCHIVE_COMMANDS: [&str; 5] = ["stats", "sessions", "snapshot", "inspect", "fsck"];

/// What `snapshot` renders.
enum SnapshotFormat {
    Summary,
    Edges,
    Dot,
}

/// `snapshot`'s options, checked before any archive is read.
struct SnapshotOpts {
    at: SimTime,
    scope: NodeScope,
    format: SnapshotFormat,
}

impl SnapshotOpts {
    fn parse(flags: &Args<'_>) -> Result<SnapshotOpts, String> {
        let at = flags.get("--at").ok_or("snapshot needs --at d,h,m")?;
        let parts = at
            .split(',')
            .map(|p| p.trim().parse::<u64>())
            .collect::<Result<Vec<u64>, _>>()
            .ok()
            .filter(|parts| parts.len() == 3)
            .ok_or_else(|| format!("--at {at}: want day,hour,minute (e.g. 0,21,0)"))?;
        let scope = match flags.get("--scope").map(String::as_str) {
            None | Some("stable") => NodeScope::StableOnly,
            Some("all") => NodeScope::AllKnown,
            Some(other) => return Err(format!("--scope {other}: expected stable or all")),
        };
        let format = match flags.get("--format").map(String::as_str) {
            None | Some("summary") => SnapshotFormat::Summary,
            Some("edges") => SnapshotFormat::Edges,
            Some("dot") => SnapshotFormat::Dot,
            Some(other) => return Err(format!("--format {other}: expected summary, edges or dot")),
        };
        Ok(SnapshotOpts {
            at: SimTime::at(parts[0], parts[1], parts[2]),
            scope,
            format,
        })
    }
}

/// `snapshot`: the active-link topology at one instant, summarized or
/// exported.
fn snapshot(store: &TraceStore, opts: &SnapshotOpts, out: Option<&String>) -> ExitCode {
    let t = opts.at;
    let snap = SnapshotBuilder::new(store).at(t);
    let reports: Vec<_> = snap.reports().cloned().collect();
    let g = active_link_graph(&reports, opts.scope);
    let db = IspDatabase::default();
    let output = match opts.format {
        SnapshotFormat::Edges => to_edge_list(&g),
        SnapshotFormat::Dot => {
            let isps = node_isps(&g, &db);
            to_dot(&g, &format!("snapshot_{t}"), |id, _| {
                Some(isps[id.index()].name().to_owned())
            })
        }
        SnapshotFormat::Summary => {
            let csr = Csr::from_digraph(&g);
            let sw = assess_csr(&csr, &SmallWorldConfig::default());
            let rho = garlaschelli_reciprocity_csr(&csr)
                .map(|v| format!("{v:+.3}"))
                .unwrap_or_else(|_| "n/a".into());
            format!(
                "snapshot at {t}\nstable peers : {}\nknown peers  : {}\nnodes/edges  : {} / {}\nC vs C_rand  : {:.3} vs {:.4}\nL vs L_rand  : {:?} vs {:?}\nreciprocity  : {rho}\nsmall world  : {}\n",
                snap.stable_count(),
                snap.known_peers().len(),
                g.node_count(),
                g.edge_count(),
                sw.c,
                sw.c_rand,
                sw.l,
                sw.l_rand,
                sw.is_small_world
            )
        }
    };
    match out {
        Some(out) => {
            if let Err(e) = atomic_write(Path::new(out), output.as_bytes()) {
                eprintln!("write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {out}");
        }
        None => print!("{output}"),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(cmd) = args.get(1) else {
        return usage();
    };
    // The chaos proxy takes no positional path.
    if cmd == "nemesis" {
        return nemesis::run(&args);
    }
    if !ARCHIVE_COMMANDS.contains(&cmd.as_str()) {
        eprintln!("error: unknown command {cmd}");
        return usage();
    }
    let Some(path) = args.get(2) else {
        return usage();
    };
    let flags = Args(&args);
    let known: &[&str] = if cmd == "snapshot" {
        &["--at", "--scope", "--format", "--out"]
    } else {
        &[]
    };
    if let Err(e) = flags.check(known) {
        eprintln!("error: {e}");
        return usage();
    }
    // Every option is checked before the archive is touched.
    let snapshot_opts = if cmd == "snapshot" {
        match SnapshotOpts::parse(&flags) {
            Ok(opts) => Some(opts),
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        }
    } else {
        None
    };
    // `inspect`, `fsck` and `sessions` stream the archive without
    // holding it.
    match cmd.as_str() {
        "inspect" => return scan_archive(path, false),
        "fsck" => return scan_archive(path, true),
        "sessions" => return sessions(path),
        _ => {}
    }
    let (store, recovery) = match load(path) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match snapshot_opts {
        Some(opts) => snapshot(&store, &opts, flags.get("--out")),
        None => archive_stats(path, &store, &recovery),
    }
}
