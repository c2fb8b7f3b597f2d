//! `magellan-traced` — the networked ingest service and its drill
//! client.
//!
//! ```text
//! magellan-traced serve --archive DIR [--listen ADDR] [--clients N]
//!                       [--shards N] [--pending-cap N] [--queue-cap N]
//!                       [--port-file FILE] [--resume]
//!                       [--idle-timeout-ms N] [--barrier-timeout-ms N]
//!                       [--max-conns N] [--max-conns-per-ip N]
//!                       [--rate-limit N] [--rate-burst N]
//!                       [--seed N] [--scale F] [--days N]
//!                       [--sample-every-mins N] [--segment-bytes N]
//! magellan-traced drive --server ADDR --client-id I --clients N
//!                       [--window N] [--mark-every-mins N]
//!                       [--backoff-base-ms N] [--backoff-cap-ms N]
//!                       [--max-attempts N] [--reconnect N]
//!                       [--seed N] [--scale F] [--days N]
//!                       [--sample-every-mins N]
//! ```
//!
//! `serve` listens on one TCP port, ingests length-framed
//! `wire`-encoded [`PeerReport`]s from `--clients` concurrent
//! clients through `--shards` independent admission shards, and lands
//! the merged windows in a standard archive under `DIR/archive` plus
//! the `INGEST` accounting sidecar — so `magellan replay --archive
//! DIR` analyzes a networked run exactly like an in-process one. The
//! threading shape mirrors the sans-I/O
//! [`ServiceCore`](magellan::trace::ServiceCore) reference: one owner
//! thread per [`Shard`] behind a bounded FIFO (backpressure sheds
//! `Busy` at the queue, accounted), reader threads that only route,
//! a coordinator owning the registry and the archive [`Books`], and
//! one durability lane behind a depth-2 FIFO that makes each sealed
//! window's [`Commit`] durable and then publishes its checkpoint —
//! the coordinator never waits for the disk. What a seal *means*
//! lives in [`magellan::trace::service`]; this file is sockets,
//! threads and flags.
//!
//! Work crosses the shard FIFOs in batches: a TCP reader sends the
//! reports of one socket read (at most 16 KiB of frames) as one
//! message per shard, and a shard worker answers each message with
//! one reply write. `--queue-cap` therefore bounds queued *messages*
//! per shard — one socket read's reports — and a full queue sheds the
//! whole message, each of its reports answered `Busy`.
//!
//! The service assumes a hostile network. Every socket carries a read
//! timeout and an idle deadline (`--idle-timeout-ms`), so a slowloris
//! connection — opened, half-fed, never finished — is reaped instead
//! of pinning a reader thread forever. The acceptor enforces
//! `--max-conns` / `--max-conns-per-ip`; surplus connections are
//! closed on arrival and counted. With `--rate-limit` set, each
//! connection gets a token bucket and over-budget reports are
//! answered [`StatusCode::RateLimited`] — a retryable verdict the
//! [`NetUplink`] backs off on. A client that goes silent
//! past `--barrier-timeout-ms` is evicted from the window barrier, so
//! a vanished peer degrades the seal to an accounted partial window
//! instead of wedging the merge pipeline.
//!
//! The service itself is crash-safe. `SIGTERM`/`SIGINT` request a
//! drain: the acceptor stops accepting, unfinished clients are
//! evicted, the in-flight window is sealed, the sidecar is flushed,
//! and the process exits 0. After `kill -9`, `serve --resume` reopens
//! the archive at the last checkpoint (the `INGEST.resume` sidecar is
//! rewritten after every sealed window's commit is durable),
//! truncates any torn tail, and
//! restores the merge frontier so re-received reports below it shed
//! as `Late` while everything at or past it is admitted fresh —
//! re-receives reconcile in the `surplus` column, never in the
//! archive twice.
//!
//! `drive` runs the full deterministic study simulation and streams
//! the partition `shard_of(addr, clients) == client_id` to the
//! service through a [`NetUplink`], marking window boundaries every
//! `--mark-every-mins` of simulated time. `--reconnect N` arms the
//! uplink's reconnect budget: a mid-stream connection kill is
//! answered by redial + re-`Hello` + retransmit of every outstanding
//! report. N drive processes with the same study parameters cover
//! every report exactly once, which is what makes the multi-process
//! drill reproduce the in-process `StudyReport`.
//!
//! A flag the subcommand does not read exits 1 with usage before
//! anything is written.

use magellan::netsim::{SimDuration, SimTime};
use magellan::overlay::OverlaySim;
use magellan::runcfg::{cfg_path, load_params, Args, RunParams, PARAM_FLAGS};
use magellan::trace::codec::{self, ClientMsg, FrameReader, ReplyMsg};
use magellan::trace::service::{Books, ServiceResume, ShellSheds};
use magellan::trace::shard::{shard_of, Shard, ShardStats};
use magellan::trace::wire::WireError;
use magellan::trace::{
    atomic_write, ClientRegistry, Commit, NetBackoff, NetUplink, PeerReport, StatusCode,
    TokenBucket,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// lint:allow(P1): service shell, not simulation — channels carry socket traffic whose interleaving is inherently external
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
// lint:allow(P1): service shell — the reply half of a TCP stream is shared between shard workers, nothing simulation-visible
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How often a blocked socket read wakes to check the idle deadline
/// and the drain flag.
const READ_TICK_MS: u64 = 200;

/// `SIGINT` on every platform this service targets.
const SIGINT: i32 = 2;
/// `SIGTERM` on every platform this service targets.
const SIGTERM: i32 = 15;

/// Set by the signal handler. The acceptor stops accepting, reader
/// threads wind down at their next tick, and the coordinator drains
/// the in-flight window and exits 0.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The drain handler: one atomic store, the only thing that is
/// async-signal-safe to do here.
extern "C" fn on_drain_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    /// ISO C `signal(2)`, provided by the platform libc that `std`
    /// already links — bound directly to keep the dependency set
    /// closed (no signal-handling crate).
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Arms the drain protocol: `SIGTERM`/`SIGINT` flip [`SHUTDOWN`]
/// instead of killing the process mid-write.
fn install_drain_handler() {
    let handler = on_drain_signal as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `signal` matches the ISO C prototype (libc is linked by std on this platform); the handler only performs one atomic store, which is async-signal-safe; and the handler is a static fn item, so the pointer outlives the process.
    unsafe { (signal(SIGTERM, handler), signal(SIGINT, handler)) };
}

/// True once a drain signal arrived.
fn drain_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Where a shard worker sends the 9-byte reply records: the shared
/// write half of the client's TCP stream.
// lint:allow(P1): service shell — guards only the socket write half; replies are matched by seq, order-free
type ReplyTo = Arc<Mutex<TcpStream>>;

/// The reports of one TCP read bound for one shard, payloads back to
/// back in one buffer.
#[derive(Default)]
struct Batch {
    payloads: Vec<u8>,
    /// Each report's sequence number and the end of its payload in
    /// `payloads`.
    reports: Vec<(u64, usize)>,
}

impl Batch {
    fn push(&mut self, seq: u64, payload: &[u8]) {
        self.payloads.extend_from_slice(payload);
        self.reports.push((seq, self.payloads.len()));
    }

    fn len(&self) -> usize {
        self.reports.len()
    }

    fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Each report's sequence number and payload, in arrival order.
    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        let mut start = 0;
        self.reports.iter().map(move |&(seq, end)| {
            let payload = self.payloads.get(start..end).unwrap_or(&[]);
            start = end;
            (seq, payload)
        })
    }
}

/// One entry in a shard worker's bounded FIFO.
enum ShardCmd {
    /// Reports to classify and answer.
    Batch { batch: Batch, reply: ReplyTo },
    /// Seal a window: drain everything below the barrier and report
    /// the shard's running books (the coordinator checkpoints them).
    Drain {
        below: SimTime,
        out: Sender<(Vec<PeerReport>, ShardStats)>,
    },
    /// Final drain; the worker returns its accounting and exits.
    Stop {
        below: SimTime,
        out: Sender<(Vec<PeerReport>, ShardStats)>,
    },
}

/// Control-plane traffic the readers forward to the coordinator.
enum Ctrl {
    Hello { client_id: u32, clients: u32 },
    Mark { client_id: u32, up_to: SimTime },
    Finish { client_id: u32, sent: u64 },
}

/// Shed/defense counters shared by every reader thread. All are
/// connection-plane events the coordinator folds into the final
/// books (and prints), so hostile traffic is visible, not silent.
#[derive(Default)]
struct Counters {
    /// Reports shed `Busy` because a shard FIFO was full.
    queue_shed: AtomicU64,
    /// Reports answered `RateLimited` by a token bucket.
    rate_limited: AtomicU64,
    /// Connections reaped by the idle deadline (slowloris defense).
    reaped: AtomicU64,
    /// Connections refused by the max-conns / per-IP governor.
    refused: AtomicU64,
}

impl Counters {
    fn sheds(&self) -> ShellSheds {
        ShellSheds {
            queue_shed: self.queue_shed.load(Ordering::SeqCst),
            rate_limited: self.rate_limited.load(Ordering::SeqCst),
        }
    }
}

/// Per-reader defense knobs, plus the service epoch for token-bucket
/// clocks.
#[derive(Clone, Copy)]
struct Defense {
    idle_timeout_ms: u64,
    rate_limit: u64,
    rate_burst: u64,
}

/// Everything a reader thread needs, cloned per connection.
#[derive(Clone)]
struct ReaderCtx {
    shards: Arc<Vec<SyncSender<ShardCmd>>>,
    ctrl: Sender<Ctrl>,
    counters: Arc<Counters>,
    defense: Defense,
    /// The serve epoch — token buckets and the registry's idle clock
    /// both run on milliseconds since this instant.
    epoch: Instant,
}

impl ReaderCtx {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// The connection census: total and per-IP caps enforced at accept
/// time, released when the reader thread drops its permit.
struct ConnGovernor {
    max_conns: usize,
    max_per_ip: usize,
    // lint:allow(P1): service shell — guards only the connection census, nothing simulation-visible
    table: Mutex<ConnTable>,
}

#[derive(Default)]
struct ConnTable {
    total: usize,
    per_ip: BTreeMap<IpAddr, usize>,
}

impl ConnGovernor {
    fn new(max_conns: usize, max_per_ip: usize) -> Arc<Self> {
        Arc::new(ConnGovernor {
            max_conns,
            max_per_ip,
            // lint:allow(P1): service shell — guards only the connection census, nothing simulation-visible
            table: Mutex::new(ConnTable::default()),
        })
    }

    /// Admits a connection from `ip`, or refuses it when either cap
    /// is reached. The returned permit releases the slot on drop, so
    /// every reader-thread exit path (EOF, error, reap) decrements.
    fn admit(self: &Arc<Self>, ip: IpAddr) -> Option<ConnPermit> {
        let mut t = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        let mine = t.per_ip.get(&ip).copied().unwrap_or(0);
        if t.total >= self.max_conns || mine >= self.max_per_ip {
            return None;
        }
        t.total += 1;
        t.per_ip.insert(ip, mine + 1);
        Some(ConnPermit {
            gov: Arc::clone(self),
            ip,
        })
    }

    fn release(&self, ip: IpAddr) {
        let mut t = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        t.total = t.total.saturating_sub(1);
        if let Some(n) = t.per_ip.get_mut(&ip) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                t.per_ip.remove(&ip);
            }
        }
    }
}

/// One admitted connection's slot in the census.
struct ConnPermit {
    gov: Arc<ConnGovernor>,
    ip: IpAddr,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.gov.release(self.ip);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  magellan-traced serve --archive DIR [--listen ADDR] [--clients N] [--shards N]\n                        \
         [--pending-cap N] [--queue-cap N] [--port-file FILE] [--resume]\n                        \
         [--idle-timeout-ms N] [--barrier-timeout-ms N] [--max-conns N]\n                        \
         [--max-conns-per-ip N] [--rate-limit N] [--rate-burst N]\n                        \
         [--seed N] [--scale F] [--days N] [--sample-every-mins N] [--segment-bytes N]\n  \
         magellan-traced drive --server ADDR --client-id I --clients N\n                        \
         [--window N] [--mark-every-mins N] [--backoff-base-ms N] [--backoff-cap-ms N]\n                        \
         [--max-attempts N] [--reconnect N] [--seed N] [--scale F] [--days N]\n                        \
         [--sample-every-mins N]"
    );
    ExitCode::FAILURE
}

/// Writes a run of reply records in one `write_all`, best-effort: a
/// vanished client shows up in the books as client-side loss, never
/// as a server error.
fn send_replies(reply: &ReplyTo, records: &[u8]) {
    let mut s = reply.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = s.write_all(records);
}

/// Appends one reply record to `out`.
fn put_status(out: &mut Vec<u8>, seq: u64, status: StatusCode) {
    codec::put_reply(out, &ReplyMsg { seq, status });
}

/// A shard worker: sole owner of one [`Shard`], fed by a bounded
/// FIFO. No locks around admission state — the queue is the only
/// synchronization. It answers each batch with one reply write as
/// soon as the batch is ingested, so every reply is out before the
/// worker answers a later `Drain` or `Stop`: no reply trails the seal
/// that covers its report.
fn shard_worker(mut shard: Shard, rx: Receiver<ShardCmd>) {
    let mut records = Vec::new();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::Batch { batch, reply } => {
                for (seq, payload) in batch.iter() {
                    put_status(&mut records, seq, shard.ingest_wire(payload));
                }
                send_replies(&reply, &records);
                records.clear();
            }
            ShardCmd::Drain { below, out } => {
                let _ = out.send((shard.drain_below(below), shard.stats()));
            }
            ShardCmd::Stop { below, out } => {
                let _ = out.send((shard.drain_below(below), shard.stats()));
                return;
            }
        }
    }
}

/// Queues one batch on shard `idx`'s FIFO. A full queue is the
/// overload backpressure path: the whole batch is shed — every report
/// answered `Busy` by the calling reader and counted in `queue_shed`,
/// so the books still balance.
fn route_batch(
    shards: &[SyncSender<ShardCmd>],
    idx: usize,
    batch: Batch,
    reply: ReplyTo,
    queue_shed: &AtomicU64,
) {
    let Some(shard) = shards.get(idx) else {
        return;
    };
    match shard.try_send(ShardCmd::Batch { batch, reply }) {
        Ok(()) => {}
        Err(TrySendError::Full(ShardCmd::Batch { batch, reply })) => {
            queue_shed.fetch_add(batch.len() as u64, Ordering::SeqCst);
            let mut records = Vec::with_capacity(batch.len() * codec::REPLY_LEN);
            for (seq, _) in batch.iter() {
                put_status(&mut records, seq, StatusCode::Busy);
            }
            send_replies(&reply, &records);
        }
        // Disconnected only during shutdown; stragglers count as lost.
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {}
    }
}

/// Sends every non-empty pending batch to its shard, and the
/// `RateLimited` records in `limited` back to the client at `reply`.
fn route_pending(ctx: &ReaderCtx, pending: &mut [Batch], limited: &mut Vec<u8>, reply: &ReplyTo) {
    for (idx, batch) in pending.iter_mut().enumerate() {
        if !batch.is_empty() {
            let batch = std::mem::take(batch);
            let shed = &ctx.counters.queue_shed;
            route_batch(&ctx.shards, idx, batch, Arc::clone(reply), shed);
        }
    }
    if !limited.is_empty() {
        send_replies(reply, limited);
        limited.clear();
    }
}

/// Serves one TCP connection: length-framed requests in, raw reply
/// records out (written by whichever shard worker classified the
/// report). The reports of one socket read go to the shards as one
/// batch per shard, sent before any control message of the same read
/// is forwarded, so a mark still trails every report it covers.
/// Returns — closing the connection — on EOF, I/O error, the first
/// undecodable frame (the stream is desynced beyond repair; the
/// client's unanswered reports become `lost`), the idle deadline (the
/// slowloris defense — a half-open connection cannot pin a reader
/// thread), or a drain signal.
fn tcp_conn(stream: TcpStream, ctx: ReaderCtx) {
    // Replies are 9-byte records a closed-loop client blocks on: with
    // Nagle on, each one waits out the client's delayed ACK (~40 ms).
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // A client that stops reading replies must wedge only itself,
    // never a shard worker.
    let _ = write_half.set_write_timeout(Some(Duration::from_secs(5)));
    // The read timeout is the reaper tick: a blocked read wakes every
    // tick to check the idle deadline and the drain flag.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(READ_TICK_MS)));
    // lint:allow(P1): service shell — shares the socket write half with shard workers; replies are seq-matched
    let reply: ReplyTo = Arc::new(Mutex::new(write_half));
    let mut stream = stream;
    let mut frames = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    let mut bucket = TokenBucket::new(ctx.defense.rate_limit, ctx.defense.rate_burst);
    let mut pending: Vec<Batch> = ctx.shards.iter().map(|_| Batch::default()).collect();
    let mut limited = Vec::new();
    // lint:allow(D2): service shell — socket idle deadlines run on wall clock, not simulation time
    let mut last_data = Instant::now();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if drain_requested() {
                    return;
                }
                if last_data.elapsed().as_millis() as u64 >= ctx.defense.idle_timeout_ms {
                    ctx.counters.reaped.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        last_data = Instant::now(); // lint:allow(D2): service shell — wall-clock idle deadline
        frames.extend(&buf[..n]);
        let desynced = loop {
            let body = match frames.next_frame_ref() {
                Ok(Some(body)) => body,
                Ok(None) => break false,
                Err(_) => break true,
            };
            match classify(&ctx, body, &mut bucket, &mut pending, &mut limited) {
                Ok(None) => {}
                Ok(Some(ctrl)) => {
                    route_pending(&ctx, &mut pending, &mut limited, &reply);
                    if ctx.ctrl.send(ctrl).is_err() {
                        return; // coordinator gone — shutdown
                    }
                }
                Err(_) => break true,
            }
        };
        // Reports ahead of a corrupt frame are still answered.
        route_pending(&ctx, &mut pending, &mut limited, &reply);
        if desynced {
            return;
        }
    }
}

/// Sorts one message body. A report that the connection's token
/// `bucket` lets through joins its shard's pending batch; otherwise
/// it is answered `RateLimited` into `limited`. Control traffic comes
/// back for the caller to forward once the pending batches are on
/// their way.
fn classify(
    ctx: &ReaderCtx,
    body: &[u8],
    bucket: &mut TokenBucket,
    pending: &mut [Batch],
    limited: &mut Vec<u8>,
) -> Result<Option<Ctrl>, WireError> {
    if let Some((seq, payload)) = codec::peek_report(body) {
        if bucket.try_admit(ctx.now_ms()) {
            let idx = codec::peek_report_addr(payload)
                .map(|addr| shard_of(addr, pending.len()))
                .unwrap_or(0);
            if let Some(batch) = pending.get_mut(idx) {
                batch.push(seq, payload);
            }
        } else {
            ctx.counters.rate_limited.fetch_add(1, Ordering::SeqCst);
            put_status(limited, seq, StatusCode::RateLimited);
        }
        return Ok(None);
    }
    Ok(match codec::decode_client_msg(&mut &body[..])? {
        ClientMsg::Hello { client_id, clients } => Some(Ctrl::Hello { client_id, clients }),
        ClientMsg::WindowMark { client_id, up_to } => Some(Ctrl::Mark { client_id, up_to }),
        ClientMsg::Finish { client_id, sent } => Some(Ctrl::Finish { client_id, sent }),
        // `peek_report` takes every report that decodes.
        ClientMsg::Report { .. } => None,
    })
}

/// Drains every shard below `below` (finally when `stop`), returning
/// the batches in shard order plus the summed cumulative shard books.
/// Every shard is asked before any reply is awaited, so the shards
/// drain concurrently: one round trip per window, not one per shard.
fn drain_shards(
    shard_txs: &[SyncSender<ShardCmd>],
    below: SimTime,
    stop: bool,
) -> Result<(Vec<Vec<PeerReport>>, ShardStats), String> {
    let mut replies = Vec::with_capacity(shard_txs.len());
    for tx in shard_txs {
        let (out, back) = channel();
        let cmd = if stop {
            ShardCmd::Stop { below, out }
        } else {
            ShardCmd::Drain { below, out }
        };
        tx.send(cmd).map_err(|_| "shard worker died".to_string())?;
        replies.push(back);
    }
    let mut batches = Vec::with_capacity(replies.len());
    let mut totals = ShardStats::default();
    for back in replies {
        let (batch, stats) = back.recv().map_err(|_| "shard worker died".to_string())?;
        batches.push(batch);
        totals.absorb(&stats);
    }
    Ok((batches, totals))
}

/// How many sealed windows the coordinator may run ahead of the disk.
/// The bound is the backpressure: a disk slower than the network
/// blocks the coordinator here — and through the shard FIFOs, the
/// clients — instead of queueing unsynced windows without limit.
const LANE_DEPTH: usize = 2;

/// The coordinator's end of the durability lane: a bounded FIFO into
/// the one thread that waits for the disk. FIFO order *is* the
/// cursor-never-ahead rule — window k's `INGEST.resume` is written
/// after commit k is durable and after every earlier window's — and
/// window k's disk time overlaps window k+1's drain, merge and encode.
struct DurabilityLane {
    tx: SyncSender<(Commit, ServiceResume)>,
    /// `None` once reaped after a failed `submit`.
    thread: Option<thread::JoinHandle<Result<Duration, String>>>,
    /// Commits the lane has completed (a statistic; publishes nothing).
    done: Arc<AtomicU64>,
    sent: u64,
    max_depth: u64,
    blocked: Duration,
    epoch: Instant,
}

/// What the lane did, for the exit line. Wall-clock readings: stdout
/// only, never the sidecars or the archive.
struct LaneReport {
    commits: u64,
    busy: Duration,
    max_depth: u64,
    blocked: Duration,
}

impl DurabilityLane {
    fn spawn(archive_dir: PathBuf, epoch: Instant) -> Self {
        let (tx, rx) = sync_channel::<(Commit, ServiceResume)>(LANE_DEPTH); // lint:allow(P1): service shell — the bounded FIFO is the durability order and the disk's backpressure; nothing simulation-visible crosses it
        let done = Arc::new(AtomicU64::new(0));
        let lane_done = Arc::clone(&done);
        // lint:allow(D3): service shell — the one thread that waits for the disk; serve joins it before the final drain
        let thread = thread::spawn(move || {
            let mut busy = Duration::ZERO;
            for (commit, resume) in rx {
                let began = epoch.elapsed();
                resume
                    .publish_after(commit, &archive_dir)
                    .map_err(|e| format!("durability lane: {e}"))?;
                busy += epoch.elapsed() - began;
                lane_done.fetch_add(1, Ordering::SeqCst);
            }
            Ok(busy)
        });
        DurabilityLane {
            tx,
            thread: Some(thread),
            done,
            sent: 0,
            max_depth: 0,
            blocked: Duration::ZERO,
            epoch,
        }
    }

    /// Queues one sealed window, blocking while the lane is
    /// `LANE_DEPTH` behind. Fails only when the lane stopped on an
    /// I/O error, which becomes the error returned here.
    fn submit(&mut self, seal: (Commit, ServiceResume)) -> Result<(), String> {
        self.sent += 1;
        let depth = self.sent - self.done.load(Ordering::SeqCst);
        self.max_depth = self.max_depth.max(depth);
        let began = self.epoch.elapsed();
        let sent = self.tx.send(seal);
        self.blocked += self.epoch.elapsed() - began;
        if sent.is_ok() {
            return Ok(());
        }
        // The receiver is gone, so the thread has returned its error.
        let stopped = || "durability lane stopped".to_string();
        Err(reap_lane(self.thread.take()).err().unwrap_or_else(stopped))
    }

    /// Closes the FIFO and waits until everything queued is durable
    /// and checkpointed.
    fn join(self) -> Result<LaneReport, String> {
        drop(self.tx);
        Ok(LaneReport {
            busy: reap_lane(self.thread)?,
            commits: self.done.load(Ordering::SeqCst),
            max_depth: self.max_depth,
            blocked: self.blocked,
        })
    }
}

fn reap_lane(
    thread: Option<thread::JoinHandle<Result<Duration, String>>>,
) -> Result<Duration, String> {
    thread
        .ok_or("durability lane already reaped")?
        .join()
        .map_err(|_| "durability lane panicked".to_string())?
}

/// Seals everything below the registry's barrier into the archive and
/// queues the commit with its `INGEST.resume` checkpoint on the
/// durability lane. No-op while the barrier hasn't advanced.
fn seal_ready(
    books: &mut Books,
    registry: &ClientRegistry,
    shard_txs: &[SyncSender<ShardCmd>],
    counters: &Counters,
    lane: &mut DurabilityLane,
) -> Result<(), String> {
    let Some(ready) = books.seal_due(registry) else {
        return Ok(());
    };
    // Every live client flushed everything below `ready` before
    // marking, and the FIFOs preserve that order — the drains see
    // every covered report. Evicted clients are excluded from the
    // barrier: whatever they still owed reconciles as loss.
    let (batches, totals) = drain_shards(shard_txs, ready, false)?;
    let seal = books
        .seal_window(ready, batches, registry, &totals, counters.sheds())
        .map_err(|e| format!("archive append: {e}"))?;
    lane.submit(seal)
}

fn serve(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(
        args.get("--archive")
            .ok_or_else(|| "--archive DIR is required".to_string())?,
    );
    let resuming = args.has("--resume");
    // On resume the run directory's study.cfg is authoritative — the
    // restarted service must agree with the original parameters.
    let params = if resuming {
        load_params(&dir)?
    } else {
        args.params(RunParams::default())?
    };
    let listen = args
        .get("--listen")
        .map_or("127.0.0.1:0", String::as_str)
        .to_string();
    let clients = u32::try_from(args.num("--clients")?.unwrap_or(1).max(1))
        .map_err(|_| "--clients out of range".to_string())?;
    let shards = args.num("--shards")?.unwrap_or(4).max(1) as usize;
    let pending_cap = args.num("--pending-cap")?.unwrap_or(1 << 16).max(1) as usize;
    let queue_cap = args.num("--queue-cap")?.unwrap_or(1024).max(1) as usize;
    let idle_timeout_ms = args.num("--idle-timeout-ms")?.unwrap_or(30_000).max(1);
    let barrier_timeout_ms = args.num("--barrier-timeout-ms")?.unwrap_or(30_000).max(1);
    let max_conns = args.num("--max-conns")?.unwrap_or(1024).max(1) as usize;
    let max_per_ip = args.num("--max-conns-per-ip")?.unwrap_or(64).max(1) as usize;
    let rate_limit = args.num("--rate-limit")?.unwrap_or(0);
    let rate_burst = args
        .num("--rate-burst")?
        .unwrap_or_else(|| (rate_limit * 2).max(8));
    let window_end = SimTime::at(params.days, 0, 0);

    install_drain_handler();

    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let archive_dir = dir.join("archive");
    let archive_cfg = params.durable_config().archive;
    let mut books = if resuming {
        // Crash-resume: reopen the archive at the checkpoint cursor
        // (truncating any torn tail past it) and restore the merge
        // frontier, so already-archived reports shed as `Late` when
        // the drill re-offers them.
        Books::resume(&archive_dir, archive_cfg, clients)
            .map_err(|e| format!("resume archive: {e}"))?
    } else {
        // The run directory is replay-compatible: study.cfg first, so
        // a killed drill still identifies its parameters.
        atomic_write(&cfg_path(&dir), params.render().as_bytes())
            .map_err(|e| format!("write study.cfg: {e}"))?;
        Books::create(&archive_dir, archive_cfg, clients)
            .map_err(|e| format!("create archive: {e}"))?
    };
    let frontier = books.merged_below();

    // One owner thread per shard behind a bounded FIFO. On resume
    // every shard starts at the restored frontier: re-received
    // reports below it are `Late` (their dedup history died with the
    // previous incarnation), at or past it they are admitted fresh.
    let mut shard_txs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = sync_channel::<ShardCmd>(queue_cap); // lint:allow(P1): service shell — bounded ingest queue, the backpressure mechanism itself
        let shard = Shard::with_frontier(window_end, pending_cap, frontier);
        // lint:allow(D3): service shell — shard owner threads live for the whole process; the drill joins them via Stop
        thread::spawn(move || shard_worker(shard, rx));
        shard_txs.push(tx);
    }
    let shard_txs = Arc::new(shard_txs);
    let counters = Arc::new(Counters::default());
    let (ctrl_tx, ctrl_rx) = channel::<Ctrl>();
    // lint:allow(D2): service shell — the serve epoch anchors socket/barrier deadlines in wall time
    let epoch = Instant::now();
    let ctx = ReaderCtx {
        shards: Arc::clone(&shard_txs),
        ctrl: ctrl_tx,
        counters: Arc::clone(&counters),
        defense: Defense {
            idle_timeout_ms,
            rate_limit,
            rate_burst,
        },
        epoch,
    };

    let listener = TcpListener::bind(&listen).map_err(|e| format!("bind tcp {listen}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;

    println!(
        "magellan-traced: listening on {local} (tcp), {clients} client(s), {shards} shard(s), \
         pending cap {pending_cap}, queue cap {queue_cap}{}",
        if resuming {
            format!(
                ", resumed at {} archived record(s), frontier {} ms",
                books.archived(),
                frontier.as_millis()
            )
        } else {
            String::new()
        }
    );
    if let Some(path) = args.get("--port-file") {
        // Written atomically so a polling drill script never reads a
        // half-written address.
        atomic_write(Path::new(path), local.to_string().as_bytes())
            .map_err(|e| format!("write {path}: {e}"))?;
    }

    {
        let governor = ConnGovernor::new(max_conns, max_per_ip);
        // lint:allow(D3): service shell — the acceptor lives until process exit; it owns no simulation state
        thread::spawn(move || {
            for conn in listener.incoming() {
                if drain_requested() {
                    return; // drain: stop accepting, let readers wind down
                }
                let Ok(stream) = conn else { continue };
                let Some(permit) = stream
                    .peer_addr()
                    .ok()
                    .and_then(|peer| governor.admit(peer.ip()))
                else {
                    ctx.counters.refused.fetch_add(1, Ordering::SeqCst);
                    continue; // dropping the stream closes it — the refusal
                };
                let ctx = ctx.clone();
                // lint:allow(D3): service shell — one reader per connection, detached; connections outlive no window barrier
                thread::spawn(move || {
                    let _permit = permit;
                    tcp_conn(stream, ctx);
                });
            }
        });
    }

    // The coordinator: registry, window barrier, archive. The loop
    // ticks instead of blocking, so a vanished client or a drain
    // signal degrades the run instead of wedging it.
    let mut registry = ClientRegistry::new(clients);
    let mut lane = DurabilityLane::spawn(archive_dir.clone(), epoch);
    let now_ms = || epoch.elapsed().as_millis() as u64;
    let mut drained_on_signal = false;
    while !registry.all_finished() {
        if drain_requested() {
            // Drain protocol: evict whoever hasn't finished, seal the
            // in-flight window below, and close the books at exit 0.
            let evicted = registry.evict_idle(now_ms(), 0);
            drained_on_signal = true;
            println!(
                "magellan-traced: drain signal — evicted {evicted} unfinished client(s), \
                 sealing the in-flight window"
            );
            break;
        }
        match ctrl_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(Ctrl::Hello { client_id, clients }) => {
                registry.touch(client_id, now_ms());
                registry.hello(client_id, clients);
            }
            Ok(Ctrl::Finish { client_id, sent }) => {
                registry.touch(client_id, now_ms());
                registry.finish(client_id, sent);
            }
            Ok(Ctrl::Mark { client_id, up_to }) => {
                registry.touch(client_id, now_ms());
                registry.mark(client_id, up_to);
                seal_ready(&mut books, &registry, &shard_txs, &counters, &mut lane)?;
            }
            Err(RecvTimeoutError::Timeout) => {
                // The barrier deadline: a client silent past it is
                // evicted so the window seals as an accounted partial
                // instead of wedging ready_below() forever.
                let evicted = registry.evict_idle(now_ms(), barrier_timeout_ms);
                if evicted > 0 {
                    println!(
                        "magellan-traced: evicted {evicted} client(s) silent past the \
                         {barrier_timeout_ms} ms barrier deadline; sealing a partial window"
                    );
                    seal_ready(&mut books, &registry, &shard_txs, &counters, &mut lane)?;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err("every reader thread died before the drill finished".to_string())
            }
        }
    }

    // Every sealed window must be durable and checkpointed before the
    // archive's last commit: join the lane, then stop every shard,
    // merge the tail and close the books.
    let lane = lane.join()?;
    let (batches, totals) = drain_shards(&shard_txs, window_end, true)?;
    let (summary, stats) = books
        .close(batches, &registry, &totals, counters.sheds())
        .map_err(|e| format!("close the books: {e}"))?;
    println!(
        "magellan-traced: archived {} report(s) in {} sealed segment(s)",
        summary.records, summary.sealed_segments
    );
    println!(
        "magellan-traced: defense reaped_idle {} refused_conns {} drained_on_signal {}",
        counters.reaped.load(Ordering::SeqCst),
        counters.refused.load(Ordering::SeqCst),
        if drained_on_signal { "yes" } else { "no" },
    );
    println!(
        "magellan-traced: durability lane commits {} busy_ms {} max_depth {} coordinator_blocked_ms {}",
        lane.commits,
        lane.busy.as_millis(),
        lane.max_depth,
        lane.blocked.as_millis(),
    );
    print!("{}", stats.render());
    if !stats.balanced() {
        return Err(format!("ingest accounting does not balance: {stats:?}"));
    }
    println!("balanced yes");
    Ok(())
    // Reader threads are detached on purpose: the books are closed,
    // and process exit is the shutdown protocol.
}

fn drive(args: &Args) -> Result<(), String> {
    let params = args.params(RunParams::default())?;
    let server = args
        .get("--server")
        .ok_or_else(|| "--server ADDR is required".to_string())?
        .clone();
    let client_id = u32::try_from(
        args.num("--client-id")?
            .ok_or_else(|| "--client-id I is required".to_string())?,
    )
    .map_err(|_| "--client-id out of range".to_string())?;
    let clients = u32::try_from(
        args.num("--clients")?
            .ok_or_else(|| "--clients N is required".to_string())?
            .max(1),
    )
    .map_err(|_| "--clients out of range".to_string())?;
    let window = args.num("--window")?.unwrap_or(64).max(1) as usize;
    let mark_every = SimDuration::from_mins(args.num("--mark-every-mins")?.unwrap_or(10).max(1));
    let base_ms = args.num("--backoff-base-ms")?.unwrap_or(2);
    let cap_ms = args.num("--backoff-cap-ms")?.unwrap_or(200);
    let max_attempts =
        u32::try_from(args.num("--max-attempts")?.unwrap_or(8).max(1)).unwrap_or(u32::MAX);
    let reconnect = args.num("--reconnect")?;

    // Deterministic per-client backoff jitter: same drill, same
    // delays.
    let backoff_seed = params
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(client_id));
    let backoff = NetBackoff::new(base_ms, cap_ms, max_attempts, backoff_seed);
    let mut uplink = NetUplink::connect_tcp(server.as_str(), client_id, clients, window, backoff)
        .map_err(|e| format!("connect {server}: {e}"))?;
    if let Some(budget) = reconnect {
        uplink.set_reconnect_budget(u32::try_from(budget).unwrap_or(u32::MAX));
    }

    let cfg = params.study_config();
    let window_end = SimTime::at(params.days, 0, 0);
    let mut sim = OverlaySim::new(cfg.scenario(), cfg.sim.clone());
    let shard_count = clients as usize;
    let me = client_id as usize;
    let mut next_mark = SimTime::ORIGIN + mark_every;
    let mut io_error: Option<std::io::Error> = None;
    // Every client runs the identical full simulation and sends only
    // its partition — no coordination needed for exactly-once
    // coverage.
    let summary = sim
        .run(|r| {
            if io_error.is_some() {
                return;
            }
            // Report times are nondecreasing across ticks, so seeing
            // `next_mark` means everything below it was offered.
            while r.time >= next_mark {
                if let Err(e) = uplink.mark(next_mark) {
                    io_error = Some(e);
                    return;
                }
                next_mark += mark_every;
            }
            if shard_of(r.addr, shard_count) == me {
                if let Err(e) = uplink.send_report(&r) {
                    io_error = Some(e);
                }
            }
        })
        .map_err(|e| format!("simulation: {e}"))?;
    if let Some(e) = io_error {
        return Err(format!("uplink: {e}"));
    }
    uplink
        .mark(window_end)
        .map_err(|e| format!("final mark: {e}"))?;
    let reconnects = uplink.reconnects();
    let stats = uplink.finish().map_err(|e| format!("finish: {e}"))?;
    println!(
        "magellan-traced drive: client {client_id}/{clients} over tcp — simulated {} \
         report(s); offered {} delivered {} retransmitted {} rejected {} dropped {} attempts {} \
         backoff-capped {} reconnects {}",
        summary.reports,
        stats.offered,
        stats.delivered,
        stats.retransmitted,
        stats.rejected,
        stats.dropped_permanent,
        stats.attempts,
        stats.backoff_capped,
        reconnects,
    );
    Ok(())
}

/// The flags `serve` reads, besides [`PARAM_FLAGS`].
const SERVE_FLAGS: [&str; 14] = [
    "--archive",
    "--resume",
    "--listen",
    "--port-file",
    "--clients",
    "--shards",
    "--pending-cap",
    "--queue-cap",
    "--idle-timeout-ms",
    "--barrier-timeout-ms",
    "--max-conns",
    "--max-conns-per-ip",
    "--rate-limit",
    "--rate-burst",
];

/// The flags `drive` reads, besides [`PARAM_FLAGS`].
const DRIVE_FLAGS: [&str; 9] = [
    "--server",
    "--client-id",
    "--clients",
    "--window",
    "--mark-every-mins",
    "--backoff-base-ms",
    "--backoff-cap-ms",
    "--max-attempts",
    "--reconnect",
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args(&argv);
    let serving = match argv.first().map(String::as_str) {
        Some("serve") => true,
        Some("drive") => false,
        _ => return usage(),
    };
    let flags: &[&str] = if serving { &SERVE_FLAGS } else { &DRIVE_FLAGS };
    if let Err(e) = args.check(&[&PARAM_FLAGS, flags].concat()) {
        eprintln!("error: {e}");
        return usage();
    }
    let result = if serving { serve(&args) } else { drive(&args) };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(seqs: &[u64]) -> Batch {
        let mut b = Batch::default();
        for &seq in seqs {
            b.push(seq, &[0xAB; 3]);
        }
        b
    }

    /// A full shard FIFO sheds a multi-report TCP batch whole:
    /// `queue_shed` rises by the batch's length, the client gets one
    /// `Busy` record per report with the batch's seqs in order, and
    /// the batch already queued is left as it was.
    #[test]
    fn full_queue_sheds_the_whole_batch_busy() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let write_half = Arc::new(Mutex::new(server_side));
        let reply = || Arc::clone(&write_half);
        let (tx, rx) = sync_channel::<ShardCmd>(1);
        let shards = [tx];
        let shed = AtomicU64::new(0);

        route_batch(&shards, 0, batch(&[1, 2]), reply(), &shed);
        assert_eq!(
            shed.load(Ordering::SeqCst),
            0,
            "an empty queue takes the batch"
        );
        route_batch(&shards, 0, batch(&[7, 8, 9, 10]), reply(), &shed);
        assert_eq!(shed.load(Ordering::SeqCst), 4);

        let mut raw = [0u8; 4 * codec::REPLY_LEN];
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.read_exact(&mut raw).expect("four reply records");
        for (mut record, seq) in raw.chunks_exact(codec::REPLY_LEN).zip([7, 8, 9, 10]) {
            let r = codec::decode_reply(&mut record).unwrap();
            assert_eq!((r.seq, r.status), (seq, StatusCode::Busy));
        }
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut more = [0u8; 1];
        assert!(client.read(&mut more).is_err(), "a fifth reply record");

        let Ok(ShardCmd::Batch { batch: queued, .. }) = rx.try_recv() else {
            panic!("the first batch should still be queued");
        };
        let seqs: Vec<u64> = queued.iter().map(|(seq, _)| seq).collect();
        assert_eq!(seqs, [1, 2]);
        assert!(rx.try_recv().is_err(), "the shed batch was queued");
    }

    /// One report frame carrying sequence number `seq`, sent by peer
    /// `ip` within the first simulated day.
    fn report_frame(seq: u64, ip: u32) -> bytes::Bytes {
        let payload = magellan::trace::wire::encode(&plain_report(ip));
        codec::frame(&codec::encode_client_msg(&ClientMsg::Report {
            seq,
            payload,
        }))
    }

    /// As [`report_frame`], with one partner whose segments-received
    /// counter reads 2³² on the wire — one past what a `u32` holds.
    fn out_of_range_counter_frame(seq: u64, ip: u32) -> bytes::Bytes {
        let mut report = plain_report(ip);
        report.partners.push(magellan::trace::PartnerRecord {
            addr: magellan::netsim::PeerAddr::from_u32(ip + 1),
            tcp_port: 1,
            udp_port: 2,
            segments_sent: 0,
            segments_received: 0,
        });
        let mut payload = magellan::trace::wire::encode(&report).to_vec();
        // The record closes the payload; its last 8 bytes are the
        // received counter, whose high half gets the low bit.
        let high = payload.len() - 8 + 3;
        payload[high] = 1;
        codec::frame(&codec::encode_client_msg(&ClientMsg::Report {
            seq,
            payload: payload.into(),
        }))
    }

    fn plain_report(ip: u32) -> PeerReport {
        PeerReport {
            time: SimTime::ORIGIN + SimDuration::from_mins(20),
            addr: magellan::netsim::PeerAddr::from_u32(ip),
            channel: magellan::workload::ChannelId::CCTV1,
            buffer_map: magellan::trace::BufferMap::new(0, 8),
            download_capacity_kbps: 2000.0,
            upload_capacity_kbps: 512.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 50.0,
            partners: vec![],
        }
    }

    /// A reader context over one shard worker whose window closes at
    /// `window_end`, and the receiving end of its control channel.
    fn one_shard_ctx(window_end: SimTime) -> (ReaderCtx, Receiver<Ctrl>) {
        let (tx, rx) = sync_channel::<ShardCmd>(8);
        thread::spawn(move || shard_worker(Shard::new(window_end, 1024), rx));
        let (ctrl, ctrl_rx) = channel();
        let ctx = ReaderCtx {
            shards: Arc::new(vec![tx]),
            ctrl,
            counters: Arc::default(),
            defense: Defense {
                idle_timeout_ms: 30_000,
                rate_limit: 0,
                rate_burst: 8,
            },
            epoch: Instant::now(),
        };
        (ctx, ctrl_rx)
    }

    /// An undecodable frame desyncs only its own connection: the two
    /// reports ahead of it are still answered, the report behind it
    /// is not, and the server hangs up.
    #[test]
    fn undecodable_frame_closes_only_its_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let window_end = SimTime::at(1, 0, 0);
        let (ctx, _ctrl_rx) = one_shard_ctx(window_end);
        let shards = Arc::clone(&ctx.shards);
        let reader = thread::spawn(move || tcp_conn(server_side, ctx));

        let mut wire = Vec::new();
        wire.extend_from_slice(&report_frame(0, 1));
        wire.extend_from_slice(&report_frame(1, 2));
        wire.extend_from_slice(&codec::frame(&[0xEE, 0, 0]));
        wire.extend_from_slice(&report_frame(2, 3));
        client.write_all(&wire).unwrap();

        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut raw = Vec::new();
        client
            .read_to_end(&mut raw)
            .expect("the server closes the connection");
        let answered: Vec<(u64, StatusCode)> = raw
            .chunks(codec::REPLY_LEN)
            .map(|mut record| {
                let r = codec::decode_reply(&mut record).unwrap();
                (r.seq, r.status)
            })
            .collect();
        assert_eq!(answered, [(0, StatusCode::Ack), (1, StatusCode::Ack)]);
        reader.join().unwrap();

        let (_, totals) = drain_shards(&shards, window_end, true).unwrap();
        assert_eq!(totals.received(), 2, "{totals:?}");
        assert_eq!(totals.admitted, 2, "{totals:?}");
    }

    /// A report whose segment counter does not fit a `u32` is framed
    /// correctly, so it costs only itself: it is answered `Malformed`
    /// and counted malformed once, while the reports behind it on its
    /// connection and another connection's reports are admitted.
    #[test]
    fn out_of_range_counter_is_malformed_and_costs_only_its_report() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let window_end = SimTime::at(1, 0, 0);
        let (ctx, _ctrl_rx) = one_shard_ctx(window_end);
        let shards = Arc::clone(&ctx.shards);
        let sends: [&[bytes::Bytes]; 2] = [
            &[
                report_frame(0, 1),
                out_of_range_counter_frame(1, 2),
                report_frame(2, 3),
            ],
            &[report_frame(0, 10)],
        ];
        let mut clients = Vec::new();
        let mut readers = Vec::new();
        for frames in sends {
            let mut client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            let ctx = ctx.clone();
            readers.push(thread::spawn(move || tcp_conn(server_side, ctx)));
            for frame in frames {
                client.write_all(frame).unwrap();
            }
            client.shutdown(std::net::Shutdown::Write).unwrap();
            clients.push(client);
        }

        let mut answered = Vec::new();
        for mut client in clients {
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut raw = Vec::new();
            client.read_to_end(&mut raw).expect("the replies, then EOF");
            let replies: Vec<(u64, StatusCode)> = raw
                .chunks(codec::REPLY_LEN)
                .map(|mut record| {
                    let r = codec::decode_reply(&mut record).unwrap();
                    (r.seq, r.status)
                })
                .collect();
            answered.push(replies);
        }
        assert_eq!(
            answered,
            [
                vec![
                    (0, StatusCode::Ack),
                    (1, StatusCode::Malformed),
                    (2, StatusCode::Ack)
                ],
                vec![(0, StatusCode::Ack)],
            ]
        );
        for reader in readers {
            reader.join().unwrap();
        }

        let (_, totals) = drain_shards(&shards, window_end, true).unwrap();
        assert_eq!(totals.received(), 4, "{totals:?}");
        assert_eq!(totals.admitted, 3, "{totals:?}");
        assert_eq!(totals.malformed, 1, "{totals:?}");
    }
}
