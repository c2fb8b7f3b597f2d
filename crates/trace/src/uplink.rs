//! Peer-side report uplink with buffering across server downtime.
//!
//! The paper's measurement client fired one UDP datagram per report;
//! [`ReportUplink`] models that client in process (the datagram loss
//! itself is the study's fault plan). When the collection server is
//! down ([`SubmitError::Unavailable`]) the report is not lost
//! outright: the client buffers it in a bounded FIFO and retransmits
//! once the server answers again, oldest first, dropping the oldest
//! on overflow. Admission deduplicates retransmissions by
//! `(peer, timestamp)`, so a retry that raced a successful delivery
//! is absorbed idempotently.
//!
//! [`NetUplink`] is the same client over a real TCP connection to
//! `magellan-traced`: pipelined, retransmitting on retryable verdicts
//! and after a reconnect, with the service's dedup absorbing repeats.

use crate::codec::{self, ClientMsg};
use crate::gateway::{ReportGateway, SubmitError};
use crate::report::PeerReport;
use crate::wire::{self, StatusCode};
use bytes::Bytes;
use magellan_netsim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Delivery accounting of one uplink.
///
/// The balance identity is `offered == delivered + rejected +
/// dropped_overflow + dropped_permanent + pending()`: every report
/// handed to the uplink is eventually delivered, rejected by the
/// server, evicted, abandoned after exhausting its retry budget, or
/// still buffered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UplinkStats {
    /// Reports handed to the uplink.
    pub offered: u64,
    /// Reports the server accepted (first try or retransmission).
    pub delivered: u64,
    /// Buffered reports delivered by a later retransmission.
    pub retransmitted: u64,
    /// Buffered reports evicted because the FIFO overflowed.
    pub dropped_overflow: u64,
    /// Reports the server rejected on validation — retrying cannot
    /// help, so they are not buffered.
    pub rejected: u64,
    /// Submission attempts that reached the gateway, including every
    /// retransmission of the same report — `attempts - offered` is
    /// the retry volume a run generated.
    pub attempts: u64,
    /// Backoff delays that hit the configured cap ([`NetBackoff`]);
    /// the in-process [`ReportUplink`] never waits, so this only
    /// moves on networked uplinks.
    pub backoff_capped: u64,
    /// Reports abandoned after exhausting their retry budget — the
    /// networked uplink's terminal failure. The in-process
    /// [`ReportUplink`] retries forever (its buffer is the budget),
    /// so there this stays 0 and overflow eviction is the only loss.
    pub dropped_permanent: u64,
}

/// A bounded store-and-forward queue in front of a [`ReportGateway`].
///
/// # Eviction policy
///
/// The buffer holds at most `capacity` reports. When a report must be
/// buffered and the queue is full, the **oldest** buffered report is
/// evicted (counted in [`UplinkStats::dropped_overflow`]) and the new
/// one joins the tail: during a long outage the uplink keeps the
/// freshest window of reports, matching what the paper's clients did
/// — stale topology snapshots age out of usefulness, recent ones are
/// what the collector wants once it returns. Rejected reports are
/// never buffered (retrying cannot fix validation), and buffered
/// reports are only removed by delivery, rejection-on-retry, or this
/// oldest-first eviction.
#[derive(Debug)]
pub struct ReportUplink {
    capacity: usize,
    queue: VecDeque<PeerReport>,
    stats: UplinkStats,
}

impl ReportUplink {
    /// Creates an uplink that buffers at most `capacity` reports
    /// across an outage (at least 1).
    pub fn new(capacity: usize) -> Self {
        ReportUplink {
            capacity: capacity.max(1),
            queue: VecDeque::new(),
            stats: UplinkStats::default(),
        }
    }

    /// Offers one report at time `now`. Pending buffered reports are
    /// flushed first so the gateway sees FIFO order; if it is down
    /// the report joins the buffer (evicting the oldest entry on
    /// overflow).
    pub fn send_via<G: ReportGateway>(
        &mut self,
        report: PeerReport,
        now: SimTime,
        gateway: &mut G,
    ) {
        self.stats.offered += 1;
        if !self.queue.is_empty() {
            self.flush_via(now, gateway);
        }
        if !self.queue.is_empty() {
            // Server still down mid-flush: preserve order, buffer.
            self.buffer(report);
            return;
        }
        self.stats.attempts += 1;
        match gateway.submit_report(report.clone(), now) {
            Ok(()) => self.stats.delivered += 1,
            Err(
                SubmitError::Unavailable { .. }
                | SubmitError::Busy { .. }
                | SubmitError::RateLimited { .. },
            ) => self.buffer(report),
            Err(_) => self.stats.rejected += 1,
        }
    }

    /// Retransmits buffered reports, oldest first, until the queue
    /// drains or the gateway bounces again. Returns how many were
    /// delivered by this call.
    pub fn flush_via<G: ReportGateway>(&mut self, now: SimTime, gateway: &mut G) -> usize {
        let mut sent = 0;
        while let Some(front) = self.queue.front() {
            self.stats.attempts += 1;
            match gateway.submit_report(front.clone(), now) {
                Ok(()) => {
                    self.queue.pop_front();
                    self.stats.delivered += 1;
                    self.stats.retransmitted += 1;
                    sent += 1;
                }
                Err(
                    SubmitError::Unavailable { .. }
                    | SubmitError::Busy { .. }
                    | SubmitError::RateLimited { .. },
                ) => break,
                Err(_) => {
                    self.queue.pop_front();
                    self.stats.rejected += 1;
                }
            }
        }
        sent
    }

    fn buffer(&mut self, report: PeerReport) {
        if self.queue.len() == self.capacity {
            self.queue.pop_front();
            self.stats.dropped_overflow += 1;
        }
        self.queue.push_back(report);
    }

    /// Reports currently awaiting retransmission.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Delivery accounting so far.
    pub fn stats(&self) -> UplinkStats {
        self.stats
    }

    /// The buffered reports, oldest first — checkpoint capture.
    pub fn queued(&self) -> impl Iterator<Item = &PeerReport> {
        self.queue.iter()
    }

    /// Rebuilds an uplink mid-flight from checkpointed state: the
    /// buffered backlog (oldest first) and the accounting so far.
    pub fn restore(capacity: usize, queue: Vec<PeerReport>, stats: UplinkStats) -> Self {
        ReportUplink {
            capacity: capacity.max(1),
            queue: queue.into(),
            stats,
        }
    }
}

/// Capped-exponential retry schedule with deterministic equal-jitter.
///
/// Delay for retry `n` is drawn uniformly from `[raw/2, raw]` where
/// `raw = min(cap, base << n)` — the "equal jitter" scheme: enough
/// spread to desynchronise a fleet of clients hammering a saturated
/// shard, while never collapsing to a zero delay. The jitter stream
/// is seeded explicitly (fork one per client from the experiment
/// seed), so a drill's retry timing is reproducible.
#[derive(Debug)]
pub struct NetBackoff {
    base_ms: u64,
    cap_ms: u64,
    max_attempts: u32,
    rng: StdRng,
}

impl NetBackoff {
    /// A schedule starting at `base_ms`, capped at `cap_ms`, allowing
    /// at most `max_attempts` transmissions of one report (all
    /// parameters clamped to at least 1).
    pub fn new(base_ms: u64, cap_ms: u64, max_attempts: u32, seed: u64) -> Self {
        let base_ms = base_ms.max(1);
        NetBackoff {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            max_attempts: max_attempts.max(1),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Total transmissions allowed per report before it is abandoned
    /// as [`UplinkStats::dropped_permanent`].
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The jittered delay before retry number `retry` (1-based), and
    /// whether the un-jittered delay hit the cap.
    pub fn delay_ms(&mut self, retry: u32) -> (u64, bool) {
        let shift = retry.min(20);
        let raw = self
            .base_ms
            .saturating_mul(1u64 << shift)
            .min(self.cap_ms)
            .max(1);
        let capped = raw == self.cap_ms;
        let half = raw / 2;
        let span = raw - half + 1;
        (half + self.rng.next_u64() % span, capped)
    }
}

/// Read timeout on the TCP reply stream — hitting it means the
/// service died mid-drill, which surfaces as an I/O error rather than
/// a hang.
pub const TCP_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A TCP uplink's write buffer is handed to the socket once it holds
/// this many bytes, even if no reply read or control message is due —
/// one server-side read's worth of frames.
const TCP_WRITE_FLUSH_BYTES: usize = 16 * 1024;

/// Bytes one TCP reply read can take in — a window's worth of
/// [`codec::REPLY_LEN`]-byte records at the default window, so one
/// `read` drains every reply that has arrived.
const TCP_REPLY_READ_BYTES: usize = 64 * codec::REPLY_LEN;

/// How many TCP reconnections an uplink attempts across its lifetime
/// before an I/O error becomes terminal. Each reconnection replays
/// the `Hello` and retransmits every unacknowledged report, so a
/// service restart or a chaos-injected connection reset costs retries
/// — not the drill.
pub const DEFAULT_RECONNECT_BUDGET: u32 = 8;

/// The networked client shell: speaks the [`codec`] vocabulary to a
/// `magellan-traced` service over TCP, with capped exponential retry
/// on `Busy`/`Unavailable`/`RateLimited` and reconnection after an
/// I/O failure, accounted in [`UplinkStats`].
///
/// Messages are length-framed and pipelined: up to `window` reports
/// are in flight before the client blocks reading replies (fixed-size
/// [`codec::REPLY_LEN`]-byte records, as many per `read` as have
/// arrived). Frames collect in one write buffer that goes to the
/// socket in a single `write` before the client blocks on a reply,
/// together with the next control message, or once it passes 16 KiB.
/// `mark`/`finish` drain all outstanding replies first, which is what
/// makes a `WindowMark` a true barrier: FIFO byte stream plus drained
/// window means every covered report was already processed.
pub struct NetUplink {
    stream: TcpStream,
    client_id: u32,
    clients: u32,
    server: SocketAddr,
    reconnect_budget: u32,
    reconnects: u64,
    next_seq: u64,
    window: usize,
    /// Unanswered reports by sequence number: payload and how many
    /// times it was framed for the wire.
    outstanding: BTreeMap<u64, (Bytes, u32)>,
    /// TCP frames not yet handed to the socket.
    wbuf: Vec<u8>,
    /// Report frames in `wbuf`; they join `attempts` when `wbuf` goes
    /// to `write_all`.
    wbuf_reports: u64,
    /// The tail of a reply record split across two TCP reads.
    reply_carry: Vec<u8>,
    backoff: NetBackoff,
    stats: UplinkStats,
}

impl NetUplink {
    /// Connects over TCP, says hello, and pipelines up to `window`
    /// reports (at least 1).
    ///
    /// # Errors
    ///
    /// Socket connect/configure/write failure.
    pub fn connect_tcp<A: ToSocketAddrs>(
        server: A,
        client_id: u32,
        clients: u32,
        window: usize,
        backoff: NetBackoff,
    ) -> io::Result<Self> {
        let addr = server.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "server address resolved empty")
        })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TCP_REPLY_TIMEOUT))?;
        let mut up = NetUplink {
            stream,
            client_id,
            clients,
            server: addr,
            reconnect_budget: DEFAULT_RECONNECT_BUDGET,
            reconnects: 0,
            next_seq: 0,
            window: window.max(1),
            outstanding: BTreeMap::new(),
            wbuf: Vec::new(),
            wbuf_reports: 0,
            reply_carry: Vec::new(),
            backoff,
            stats: UplinkStats::default(),
        };
        up.send_control(&ClientMsg::Hello { client_id, clients })?;
        Ok(up)
    }

    /// Overrides the lifetime TCP reconnection budget (0 disables
    /// reconnection entirely: the first I/O error is terminal).
    pub fn set_reconnect_budget(&mut self, budget: u32) {
        self.reconnect_budget = budget;
    }

    /// TCP reconnections performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends a control message: its frame joins the write buffer,
    /// which then goes out in one write.
    fn send_control(&mut self, msg: &ClientMsg) -> io::Result<()> {
        let body = codec::encode_client_msg(msg);
        self.wbuf.extend_from_slice(&codec::frame(&body));
        self.flush_writes()
    }

    /// Hands the write buffer to the socket in one `write_all`; its
    /// report frames count as attempts from here on.
    fn flush_writes(&mut self) -> io::Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        self.stats.attempts += self.wbuf_reports;
        self.wbuf_reports = 0;
        let written = self.stream.write_all(&self.wbuf);
        self.wbuf.clear();
        written
    }

    /// Frames report `seq` into the write buffer and tracks it as
    /// outstanding; `count` is how many times it has been framed.
    fn queue_report(&mut self, seq: u64, payload: Bytes, count: u32) {
        codec::put_report_frame(&mut self.wbuf, seq, &payload);
        self.wbuf_reports += 1;
        self.outstanding.insert(seq, (payload, count));
    }

    /// As [`NetUplink::send_control`], but a write failure burns a
    /// reconnection and resends instead of surfacing.
    fn send_control_resilient(&mut self, msg: &ClientMsg) -> io::Result<()> {
        match self.send_control(msg) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.recover_tcp(e)?;
                self.send_control(msg)
            }
        }
    }

    /// After an I/O failure: burn one unit of the reconnection budget
    /// per attempt until a fresh connection accepts the replayed
    /// `Hello` and the retransmission of every unacknowledged report.
    /// Surfaces the original error once the budget is spent.
    fn recover_tcp(&mut self, err: io::Error) -> io::Result<()> {
        let mut attempt = 0u32;
        loop {
            if self.reconnect_budget == 0 {
                return Err(err);
            }
            self.reconnect_budget -= 1;
            attempt += 1;
            let (delay, capped) = self.backoff.delay_ms(attempt);
            if capped {
                self.stats.backoff_capped += 1;
            }
            std::thread::sleep(Duration::from_millis(delay));
            if self.try_reconnect().is_ok() {
                self.reconnects += 1;
                return Ok(());
            }
        }
    }

    fn try_reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.server)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TCP_REPLY_TIMEOUT))?;
        self.stream = stream;
        // Whatever was buffered or half-read belonged to the old
        // connection; every frame in `wbuf` is outstanding and is
        // framed again below.
        self.wbuf.clear();
        self.wbuf_reports = 0;
        self.reply_carry.clear();
        let (client_id, clients) = (self.client_id, self.clients);
        let hello = codec::encode_client_msg(&ClientMsg::Hello { client_id, clients });
        self.wbuf.extend_from_slice(&codec::frame(&hello));
        // Every unacknowledged report may have died with the old
        // connection; retransmit them all, behind the replayed
        // `Hello` in the same write. A report the server did classify
        // before the cut comes back `AckDuplicate` — still delivered.
        for (seq, (payload, count)) in &mut self.outstanding {
            codec::put_report_frame(&mut self.wbuf, *seq, payload);
            self.wbuf_reports += 1;
            *count = count.saturating_add(1);
        }
        self.flush_writes()
    }

    /// Offers one report for delivery. Retryable verdicts are retried
    /// on the backoff schedule; permanent verdicts are counted and
    /// dropped. An `Err` means the transport itself failed.
    ///
    /// # Errors
    ///
    /// Socket I/O failure or an undecodable reply stream.
    pub fn send_report(&mut self, report: &PeerReport) -> io::Result<()> {
        let payload = wire::encode(report);
        self.stats.offered += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue_report(seq, payload, 1);
        if self.wbuf.len() >= TCP_WRITE_FLUSH_BYTES {
            if let Err(e) = self.flush_writes() {
                self.recover_tcp(e)?;
            }
        }
        while self.outstanding.len() >= self.window {
            self.await_replies_tcp()?;
        }
        Ok(())
    }

    /// Flushes the write buffer, then blocks for at least one reply
    /// and classifies every complete reply that one read brought in.
    /// An I/O failure burns a reconnection, which retransmits every
    /// outstanding report.
    fn await_replies_tcp(&mut self) -> io::Result<()> {
        match self.flush_writes().and_then(|()| self.read_replies_tcp()) {
            Ok(()) => Ok(()),
            Err(e) => self.recover_tcp(e),
        }
    }

    fn read_replies_tcp(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; TCP_REPLY_READ_BYTES];
        let carried = self.reply_carry.len();
        chunk[..carried].copy_from_slice(&self.reply_carry);
        let n = loop {
            match self.stream.read(&mut chunk[carried..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "reply stream closed",
                    ))
                }
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let filled = carried + n;
        let whole = filled - filled % codec::REPLY_LEN;
        self.reply_carry.clear();
        self.reply_carry.extend_from_slice(&chunk[whole..filled]);
        for mut record in chunk[..whole].chunks_exact(codec::REPLY_LEN) {
            let reply = codec::decode_reply(&mut record)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            self.on_reply_tcp(reply.seq, reply.status);
        }
        Ok(())
    }

    /// Books one reply. A retryable verdict waits out its backoff
    /// and frames the report again.
    fn on_reply_tcp(&mut self, seq: u64, status: StatusCode) {
        // A reply to a sequence we no longer track (e.g. a duplicate)
        // is ignorable noise.
        let Some((payload, count)) = self.outstanding.remove(&seq) else {
            return;
        };
        if status.is_delivered() {
            self.stats.delivered += 1;
            if count > 1 {
                self.stats.retransmitted += 1;
            }
        } else if status.is_retryable() {
            if count >= self.backoff.max_attempts() {
                self.stats.dropped_permanent += 1;
            } else {
                let (delay, capped) = self.backoff.delay_ms(count);
                if capped {
                    self.stats.backoff_capped += 1;
                }
                std::thread::sleep(Duration::from_millis(delay));
                self.queue_report(seq, payload, count + 1);
            }
        } else {
            self.stats.rejected += 1;
        }
    }

    /// Drains every outstanding reply.
    ///
    /// # Errors
    ///
    /// Socket I/O failure or an undecodable reply stream.
    pub fn flush_outstanding(&mut self) -> io::Result<()> {
        while !self.outstanding.is_empty() {
            self.await_replies_tcp()?;
        }
        Ok(())
    }

    /// Declares that every report with `time < up_to` has been
    /// offered. Outstanding replies are drained first, so by the time
    /// the mark reaches the service every covered report has been
    /// classified — the barrier the window merge relies on.
    ///
    /// # Errors
    ///
    /// Socket I/O failure or an undecodable reply stream.
    pub fn mark(&mut self, up_to: SimTime) -> io::Result<()> {
        self.flush_outstanding()?;
        let client_id = self.client_id;
        self.send_control_resilient(&ClientMsg::WindowMark { client_id, up_to })
    }

    /// Drains outstanding replies, reports the total report-frame
    /// count (`sent == attempts`, the server's reconciliation input), and
    /// returns the final accounting.
    ///
    /// # Errors
    ///
    /// Socket I/O failure or an undecodable reply stream.
    pub fn finish(mut self) -> io::Result<UplinkStats> {
        self.flush_outstanding()?;
        let client_id = self.client_id;
        let sent = self.stats.attempts;
        self.send_control_resilient(&ClientMsg::Finish { client_id, sent })?;
        Ok(self.stats)
    }

    /// Delivery accounting so far. `attempts` covers the frames handed
    /// to the socket; frames still in the write buffer join it when
    /// the buffer is flushed.
    pub fn stats(&self) -> UplinkStats {
        self.stats
    }

    /// Reports currently awaiting a reply.
    pub fn pending(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferMap;
    use crate::gateway::{GatewayCore, SinkGateway};
    use magellan_netsim::{FaultWindow, PeerAddr, SimDuration};
    use magellan_workload::ChannelId;

    fn report(ip: u32, minute: u64) -> PeerReport {
        PeerReport {
            time: SimTime::ORIGIN + SimDuration::from_mins(minute),
            addr: PeerAddr::from_u32(ip),
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 2000.0,
            upload_capacity_kbps: 512.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 50.0,
            partners: vec![],
        }
    }

    fn at_min(m: u64) -> SimTime {
        SimTime::ORIGIN + SimDuration::from_mins(m)
    }

    fn downtime_core() -> GatewayCore {
        GatewayCore::new(
            SimTime::at(14, 0, 0),
            vec![FaultWindow::new(at_min(30), at_min(60))],
        )
    }

    fn addrs(stored: &[PeerReport]) -> Vec<u32> {
        stored.iter().map(|r| r.addr.as_u32()).collect()
    }

    #[test]
    fn delivers_directly_when_server_is_up() {
        let (mut core, mut stored) = (downtime_core(), Vec::new());
        let mut gw = SinkGateway::new(&mut core, |r| stored.push(r));
        let mut up = ReportUplink::new(8);
        up.send_via(report(1, 20), at_min(20), &mut gw);
        assert_eq!(up.pending(), 0);
        assert_eq!(up.stats().delivered, 1);
        assert_eq!(stored.len(), 1);
    }

    #[test]
    fn buffers_across_downtime_and_retransmits_in_order() {
        let (mut core, mut stored) = (downtime_core(), Vec::new());
        let mut gw = SinkGateway::new(&mut core, |r| stored.push(r));
        let mut up = ReportUplink::new(8);
        up.send_via(report(1, 35), at_min(35), &mut gw);
        up.send_via(report(2, 45), at_min(45), &mut gw);
        assert_eq!(up.pending(), 2);
        assert!(stored.is_empty());
        let mut gw = SinkGateway::new(&mut core, |r| stored.push(r));
        // Server back at minute 60: next send flushes backlog first.
        up.send_via(report(3, 65), at_min(65), &mut gw);
        assert_eq!(up.pending(), 0);
        let st = up.stats();
        assert_eq!(st.delivered, 3);
        assert_eq!(st.retransmitted, 2);
        assert_eq!(addrs(&stored), vec![1, 2, 3], "FIFO order violated");
    }

    #[test]
    fn overflow_drops_oldest() {
        let (mut core, mut stored) = (downtime_core(), Vec::new());
        let mut gw = SinkGateway::new(&mut core, |r| stored.push(r));
        let mut up = ReportUplink::new(2);
        for (ip, minute) in [(1, 31), (2, 40), (3, 50)] {
            up.send_via(report(ip, minute), at_min(minute), &mut gw);
        }
        assert_eq!(up.pending(), 2);
        assert_eq!(up.stats().dropped_overflow, 1);
        assert_eq!(up.flush_via(at_min(61), &mut gw), 2);
        assert_eq!(
            addrs(&stored),
            vec![2, 3],
            "oldest report should have been evicted"
        );
    }

    #[test]
    fn retransmitted_duplicates_are_absorbed() {
        let (mut core, mut stored) = (downtime_core(), Vec::new());
        let mut gw = SinkGateway::new(&mut core, |r| stored.push(r));
        let mut up = ReportUplink::new(8);
        // Delivered once directly…
        up.send_via(report(1, 20), at_min(20), &mut gw);
        // …and offered again (e.g. an ack was lost): admission
        // absorbs the duplicate, the uplink still counts delivery.
        up.send_via(report(1, 20), at_min(21), &mut gw);
        assert_eq!(stored.len(), 1);
        assert_eq!(core.stats().duplicates, 1);
        assert_eq!(up.stats().delivered, 2);
    }

    #[test]
    fn validation_failures_are_not_buffered() {
        let mut core = downtime_core();
        let mut gw = SinkGateway::new(&mut core, |_| {});
        let mut up = ReportUplink::new(8);
        let mut bad = report(1, 20);
        bad.recv_throughput_kbps = f64::NAN;
        up.send_via(bad, at_min(20), &mut gw);
        assert_eq!(up.pending(), 0);
        assert_eq!(up.stats().rejected, 1);
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let mut a = NetBackoff::new(4, 100, 8, 42);
        let mut b = NetBackoff::new(4, 100, 8, 42);
        let delays: Vec<(u64, bool)> = (1..=8).map(|n| a.delay_ms(n)).collect();
        let again: Vec<(u64, bool)> = (1..=8).map(|n| b.delay_ms(n)).collect();
        assert_eq!(delays, again, "same seed must give same schedule");
        for (i, (d, capped)) in delays.iter().enumerate() {
            let raw = (4u64 << (i + 1)).min(100);
            assert!(
                *d >= raw / 2 && *d <= raw,
                "delay {d} outside [{}, {raw}]",
                raw / 2
            );
            assert_eq!(*capped, raw == 100);
        }
        let mut c = NetBackoff::new(4, 100, 8, 7);
        let other: Vec<(u64, bool)> = (1..=8).map(|n| c.delay_ms(n)).collect();
        assert_ne!(delays, other, "different seeds should jitter apart");
    }

    // A minimal in-test service: one accepted connection per client
    // driven through a ServiceCore.
    mod loopback {
        use super::*;
        use crate::codec::{decode_client_msg, encode_reply, FrameReader};
        use crate::service::{IngestStats, ServiceCore};
        use std::net::TcpListener;

        /// Also returns the size of every window merged at a mark.
        pub fn tcp_service(
            clients: u32,
            pending_cap: usize,
        ) -> (
            std::net::SocketAddr,
            std::thread::JoinHandle<(IngestStats, Vec<usize>)>,
        ) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let handle = std::thread::spawn(move || {
                // One shard so pending_cap applies to every address.
                let mut core = ServiceCore::new(SimTime::at(14, 0, 0), 1, pending_cap, clients);
                let mut conns: Vec<(std::net::TcpStream, FrameReader)> = (0..clients)
                    .map(|_| {
                        let (s, _) = listener.accept().unwrap();
                        s.set_nodelay(true).unwrap();
                        (s, FrameReader::new())
                    })
                    .collect();
                let mut chunk = [0u8; 4096];
                let mut merged = Vec::new();
                while !core.all_finished() {
                    for (stream, frames) in &mut conns {
                        let n = match stream.read(&mut chunk) {
                            Ok(0) => continue,
                            Ok(n) => n,
                            Err(_) => continue,
                        };
                        frames.extend(&chunk[..n]);
                        while let Some(mut body) = frames.next_frame().unwrap() {
                            let msg = decode_client_msg(&mut body).unwrap();
                            let (reply, batch) = core.handle(&msg);
                            if let Some(r) = reply {
                                stream.write_all(&encode_reply(&r)).unwrap();
                            }
                            merged.extend(batch.map(|b| b.len()));
                        }
                    }
                }
                (core.finalize().1, merged)
            });
            (addr, handle)
        }
    }

    #[test]
    fn net_uplink_tcp_pipelines_and_balances() {
        let (addr, service) = loopback::tcp_service(1, 1024);
        let mut up = NetUplink::connect_tcp(addr, 0, 1, 4, NetBackoff::new(1, 4, 5, 11)).unwrap();
        for ip in 1..=20u32 {
            up.send_report(&report(ip, 20)).unwrap();
        }
        // A duplicate and a reject exercise the non-Ack verdicts.
        up.send_report(&report(1, 20)).unwrap();
        let mut bad = report(30, 20);
        bad.upload_capacity_kbps = -5.0;
        up.send_report(&bad).unwrap();
        up.mark(at_min(30)).unwrap();
        let stats = up.finish().unwrap();
        assert_eq!(stats.offered, 22);
        assert_eq!(stats.delivered, 21);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.dropped_permanent, 0);
        let (ingest, _) = service.join().unwrap();
        assert!(ingest.balanced(), "{ingest:?}");
        assert_eq!(ingest.admitted, 20);
        assert_eq!(ingest.deduped, 1);
        assert_eq!(
            ingest.merges, 1,
            "the mark sealed everything; finalize adds nothing"
        );
        assert_eq!(ingest.lost, 0);
    }

    #[test]
    fn net_uplink_tcp_retries_busy_until_drained() {
        // pending_cap 1 with no marks: the second distinct report
        // sheds Busy until... it never drains, so the retry budget
        // runs out and the report is dropped permanently — while the
        // books still balance on both ends.
        let (addr, service) = loopback::tcp_service(1, 1);
        let mut up = NetUplink::connect_tcp(addr, 0, 1, 1, NetBackoff::new(1, 2, 3, 13)).unwrap();
        up.send_report(&report(1, 20)).unwrap();
        up.send_report(&report(2, 20)).unwrap();
        up.flush_outstanding().unwrap();
        let stats = up.stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped_permanent, 1);
        assert_eq!(stats.attempts, 1 + 3, "one ack + full retry budget");
        let _ = up.finish().unwrap();
        let (ingest, _) = service.join().unwrap();
        assert!(ingest.balanced(), "{ingest:?}");
        assert_eq!(ingest.shed_busy, 3);
    }

    /// A report carrying `partners` partner records (~24 bytes each).
    fn wide_report(ip: u32, minute: u64, partners: u32) -> PeerReport {
        let mut r = report(ip, minute);
        r.partners = (0..partners)
            .map(|i| crate::report::PartnerRecord {
                addr: PeerAddr::from_u32(0x0C00_0000 + i),
                tcp_port: 1,
                udp_port: 2,
                segments_sent: i,
                segments_received: 0,
            })
            .collect();
        r
    }

    /// A burst several windows long, of reports large enough to cross
    /// the write buffer's flush size: every reply is matched, every
    /// report counts exactly one attempt, and the mark after the burst
    /// merges a window holding every report it covers.
    #[test]
    fn net_uplink_tcp_burst_matches_every_reply_and_marks_behind_it() {
        let (addr, service) = loopback::tcp_service(1, 1024);
        let window = 8;
        let mut up =
            NetUplink::connect_tcp(addr, 0, 1, window, NetBackoff::new(1, 4, 5, 19)).unwrap();
        let burst = 10 * window as u32;
        for ip in 1..=burst {
            up.send_report(&wide_report(ip, 20, 40)).unwrap();
            assert!(up.pending() < window, "window overrun");
        }
        up.mark(at_min(30)).unwrap();
        assert_eq!(up.pending(), 0);
        let stats = up.finish().unwrap();
        assert_eq!(stats.offered, u64::from(burst));
        assert_eq!(stats.delivered, u64::from(burst), "{stats:?}");
        assert_eq!(stats.attempts, stats.offered, "{stats:?}");
        assert_eq!(stats.retransmitted, 0);
        let (ingest, merged) = service.join().unwrap();
        assert!(ingest.balanced(), "{ingest:?}");
        assert_eq!(ingest.admitted, u64::from(burst), "{ingest:?}");
        assert_eq!(ingest.lost, 0);
        assert_eq!(
            merged,
            vec![burst as usize],
            "the mark overtook its reports"
        );
    }

    /// The service reads the first window's burst, then cuts the
    /// connection without answering: the uplink reconnects, resends
    /// each unanswered frame exactly once behind the new `Hello`, and
    /// both ends' books balance — the cut frames reconcile as lost.
    #[test]
    fn net_uplink_tcp_cut_mid_burst_resends_each_frame_once() {
        use crate::codec::{decode_client_msg, encode_reply, FrameReader};
        use crate::service::ServiceCore;
        use std::net::TcpListener;

        let window = 16;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = std::thread::spawn(move || {
            // First connection: take in the Hello and the whole first
            // window, answer nothing, hang up.
            let (mut first, _) = listener.accept().unwrap();
            let mut frames = FrameReader::new();
            let mut buf = [0u8; 4096];
            let mut seen = 0;
            while seen < 1 + window {
                let n = first.read(&mut buf).unwrap();
                assert!(n > 0, "client closed before its first window");
                frames.extend(&buf[..n]);
                while frames.next_frame().unwrap().is_some() {
                    seen += 1;
                }
            }
            first.shutdown(std::net::Shutdown::Both).ok();
            drop(first);
            // Second connection: a real single-shard service.
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut core = ServiceCore::new(SimTime::at(14, 0, 0), 1, 1024, 1);
            let mut frames = FrameReader::new();
            while !core.all_finished() {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                frames.extend(&buf[..n]);
                while let Some(mut body) = frames.next_frame().unwrap() {
                    let msg = decode_client_msg(&mut body).unwrap();
                    if let (Some(r), _) = core.handle(&msg) {
                        stream.write_all(&encode_reply(&r)).unwrap();
                    }
                }
            }
            core.finalize().1
        });

        let mut up =
            NetUplink::connect_tcp(addr, 0, 1, window, NetBackoff::new(1, 4, 5, 29)).unwrap();
        let offered = 3 * window as u64;
        for ip in 1..=offered as u32 {
            up.send_report(&report(ip, 20)).unwrap();
        }
        up.mark(at_min(30)).unwrap();
        assert_eq!(up.reconnects(), 1);
        let stats = up.finish().unwrap();
        assert_eq!(stats.offered, offered);
        assert_eq!(stats.delivered, offered, "{stats:?}");
        assert_eq!(stats.dropped_permanent, 0);
        assert_eq!(stats.retransmitted, window as u64);
        assert_eq!(stats.attempts, offered + window as u64, "{stats:?}");
        let ingest = service.join().unwrap();
        assert!(ingest.balanced(), "{ingest:?}");
        assert_eq!(ingest.admitted, offered);
        assert_eq!(ingest.lost, window as u64);
    }

    /// A service that accepts a connection, drops it cold after the
    /// first frame, then serves the replacement connection normally:
    /// the uplink must reconnect, replay its `Hello`, retransmit the
    /// unacknowledged window, and finish with balanced books.
    #[test]
    fn net_uplink_tcp_reconnects_after_connection_reset() {
        use crate::codec::{decode_client_msg, encode_reply, FrameReader};
        use crate::service::ServiceCore;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = std::thread::spawn(move || {
            // First connection: swallow the Hello, then hang up.
            let (first, _) = listener.accept().unwrap();
            let mut chunk = [0u8; 64];
            let mut first = first;
            let _ = first.read(&mut chunk);
            first.shutdown(std::net::Shutdown::Both).ok();
            drop(first);
            // Second connection: a real single-shard service.
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut core = ServiceCore::new(SimTime::at(14, 0, 0), 1, 1024, 1);
            let mut frames = FrameReader::new();
            let mut buf = [0u8; 4096];
            while !core.all_finished() {
                let n = match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => n,
                };
                frames.extend(&buf[..n]);
                while let Some(mut body) = frames.next_frame().unwrap() {
                    let msg = decode_client_msg(&mut body).unwrap();
                    let (reply, _batch) = core.handle(&msg);
                    if let Some(r) = reply {
                        stream.write_all(&encode_reply(&r)).unwrap();
                    }
                }
            }
            core.finalize().1
        });

        let mut up = NetUplink::connect_tcp(addr, 0, 1, 4, NetBackoff::new(1, 4, 5, 23)).unwrap();
        for ip in 1..=8u32 {
            up.send_report(&report(ip, 20)).unwrap();
        }
        up.mark(at_min(30)).unwrap();
        assert!(up.reconnects() >= 1, "the cut connection went unnoticed");
        let stats = up.finish().unwrap();
        assert_eq!(stats.delivered, 8, "{stats:?}");
        assert_eq!(stats.dropped_permanent, 0);
        let ingest = service.join().unwrap();
        assert!(ingest.balanced(), "{ingest:?}");
        assert_eq!(ingest.admitted, 8);
    }
}
