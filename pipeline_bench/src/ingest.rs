//! One closed-loop TCP ingest session against the real
//! `magellan-traced serve` binary: spawn it on a loopback port, drive
//! it from generator threads that mirror `magellan-traced drive`
//! (partition by `shard_of`, pipelined window, a `mark` barrier every
//! ten simulated minutes, final mark, `finish`), wait for exit 0.

use crate::measure::Tracer;
use magellan::netsim::{SimDuration, SimTime};
use magellan::trace::service::read_ingest_stats;
use magellan::trace::{shard_of, IngestStats, NetBackoff, NetUplink, PeerReport, UplinkStats};
use std::io::{self, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Shape of one session. Flags not listed stay at `serve`'s and
/// `drive`'s defaults, so the session costs what a default drill does.
#[derive(Debug, Clone, Copy)]
pub struct SessionPlan {
    /// Generator threads, one TCP connection each.
    pub clients: usize,
    /// `serve --shards`.
    pub shards: usize,
    /// Reports in flight per connection (`drive --window`).
    pub window: usize,
    /// Simulated time between barrier marks (`drive --mark-every-mins`).
    pub mark_every: SimDuration,
    /// End of the study window (the final mark).
    pub window_end: SimTime,
    /// Study parameters `serve` records in the run directory.
    pub seed: u64,
    /// As above.
    pub scale: f64,
    /// As above.
    pub days: u64,
    /// As above.
    pub sample_mins: u64,
}

/// What one session measured.
#[derive(Debug)]
pub struct Session {
    /// First connect → `serve` exit 0, seconds.
    pub wall_s: f64,
    /// Reports the generators offered.
    pub offered: u64,
    /// The service's own accounting (its `INGEST` sidecar).
    pub stats: IngestStats,
    /// TCP reconnections, summed over the generators.
    pub reconnects: u64,
    /// Spawn → port file readable, milliseconds.
    pub spawn_to_listen_ms: f64,
    /// Last `finish` returned → `serve` exited, milliseconds.
    pub finish_to_exit_ms: f64,
}

/// Kills and reaps the `serve` child on every path that does not
/// hand it over to a clean `wait` — a failed run must not leave a
/// listener behind.
struct ServeGuard(Option<Child>);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Polls `serve`'s `--port-file` until the bound address appears.
fn wait_for_addr(port_file: &Path, serve: &mut Child) -> io::Result<String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(s) = std::fs::read_to_string(port_file) {
            if !s.trim().is_empty() {
                return Ok(s.trim().to_string());
            }
        }
        if let Some(status) = serve.try_wait()? {
            return Err(other(format!("serve exited before binding: {status}")));
        }
        if Instant::now() > deadline {
            return Err(other("serve never wrote its port file".into()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One step of a client's schedule.
pub enum Step<'a> {
    /// Declare everything below this instant offered.
    Mark(SimTime),
    /// Offer this report.
    Report(&'a PeerReport),
}

/// `drive`'s schedule over reports that already exist: report times
/// are nondecreasing, so before the first report at or past each
/// multiple of `mark_every` comes the mark for that multiple.
pub fn schedule(reports: &[PeerReport], mark_every: SimDuration) -> impl Iterator<Item = Step<'_>> {
    let mut next_mark = SimTime::ORIGIN + mark_every;
    let mut rest = reports.iter().peekable();
    std::iter::from_fn(move || {
        if rest.peek()?.time >= next_mark {
            let at = next_mark;
            next_mark += mark_every;
            Some(Step::Mark(at))
        } else {
            rest.next().map(Step::Report)
        }
    })
}

/// One generator: the `drive` loop, sending its partition.
fn generate(
    addr: &str,
    me: usize,
    plan: &SessionPlan,
    reports: &[PeerReport],
    tr: &Tracer,
) -> io::Result<(UplinkStats, u64)> {
    // Same per-client jitter seed as `drive`.
    let backoff_seed = plan
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(me as u64);
    let backoff = NetBackoff::new(2, 200, 8, backoff_seed);
    let mut uplink = tr.span("trace.uplink.connect", || {
        NetUplink::connect_tcp(addr, me as u32, plan.clients as u32, plan.window, backoff)
    })?;
    for step in schedule(reports, plan.mark_every) {
        match step {
            Step::Mark(at) => tr.span("trace.uplink.mark", || uplink.mark(at))?,
            Step::Report(r) if shard_of(r.addr, plan.clients) == me => {
                tr.span("trace.uplink.send_report", || uplink.send_report(r))?
            }
            Step::Report(_) => {}
        }
    }
    tr.span("trace.uplink.mark", || uplink.mark(plan.window_end))?;
    let reconnects = uplink.reconnects();
    let stats = tr.span("trace.uplink.finish", || uplink.finish())?;
    Ok((stats, reconnects))
}

/// Runs one session over `reports` (in archive order) into the cold
/// run directory `dir`. Client-side spans land on `tr` when it is
/// enabled.
pub fn run_session(
    traced_bin: &Path,
    dir: &Path,
    plan: &SessionPlan,
    reports: &[PeerReport],
    tr: &Tracer,
) -> io::Result<Session> {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if plan.clients > cores {
        return Err(other(format!(
            "ingest_tcp refuses to run {} generator threads on {cores} core(s): the generator \
             would compete with itself, not measure the service",
            plan.clients
        )));
    }
    let port_file = dir.join("port");
    let spawned = Instant::now();
    let (mut guard, addr) = tr.span("traced.spawn_to_listen", || -> io::Result<_> {
        let child = Command::new(traced_bin)
            .arg("serve")
            .arg("--archive")
            .arg(dir)
            .args(["--listen", "127.0.0.1:0"])
            .arg("--port-file")
            .arg(&port_file)
            .args(["--clients", &plan.clients.to_string()])
            .args(["--shards", &plan.shards.to_string()])
            .args(["--seed", &plan.seed.to_string()])
            .args(["--scale", &plan.scale.to_string()])
            .args(["--days", &plan.days.to_string()])
            .args(["--sample-every-mins", &plan.sample_mins.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| other(format!("spawn {}: {e}", traced_bin.display())))?;
        let mut guard = ServeGuard(Some(child));
        let addr = wait_for_addr(&port_file, guard.0.as_mut().expect("just spawned"))?;
        Ok((guard, addr))
    })?;
    let spawn_to_listen_ms = spawned.elapsed().as_secs_f64() * 1e3;

    let first_connect = Instant::now();
    // The generators' spans are absorbed while `ingest.clients` is
    // still open, so they hang under it and its self time is only
    // what neither thread covers.
    let (offered, reconnects) = tr.span("ingest.clients", || -> io::Result<_> {
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.clients)
                .map(|me| {
                    let addr = addr.as_str();
                    let (epoch, enabled) = (tr.epoch(), tr.enabled());
                    scope.spawn(move || {
                        let mine = Tracer::new(epoch, enabled);
                        let out =
                            mine.span("ingest.client", || generate(addr, me, plan, reports, &mine));
                        out.map(|o| (o, mine.into_spans()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(other("generator thread panicked".into())))
                })
                .collect()
        });
        let (mut offered, mut reconnects) = (0, 0);
        for r in results {
            let ((stats, rec), spans) = r?;
            offered += stats.offered;
            reconnects += rec;
            tr.absorb(spans);
        }
        Ok((offered, reconnects))
    })?;

    let finished = Instant::now();
    let mut child = guard.0.take().expect("serve is still owned");
    let status = tr.span("traced.finish_to_exit", || -> io::Result<_> {
        // Drain stdout first (a few accounting lines), then reap.
        let mut serve_output = String::new();
        if let Some(mut out) = child.stdout.take() {
            let _ = out.read_to_string(&mut serve_output);
        }
        let status = child.wait()?;
        Ok((status, serve_output))
    });
    let wall_s = first_connect.elapsed().as_secs_f64();
    let finish_to_exit_ms = finished.elapsed().as_secs_f64() * 1e3;
    let (status, serve_output) = status?;
    if !status.success() {
        return Err(other(format!("serve exited {status}:\n{serve_output}")));
    }
    let stats = read_ingest_stats(&dir.join("archive"))?
        .ok_or_else(|| other("serve left no INGEST sidecar".into()))?;
    Ok(Session {
        wall_s,
        offered,
        stats,
        reconnects,
        spawn_to_listen_ms,
        finish_to_exit_ms,
    })
}
