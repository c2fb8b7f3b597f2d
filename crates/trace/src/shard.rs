//! One shard of the sharded admission pipeline.
//!
//! The networked service admits through N independent [`Shard`]s,
//! each owning one [`GatewayCore`]: reports are routed by a stable
//! hash of the peer address ([`shard_of`]), so every `(peer,
//! timestamp)` identity lands on exactly one shard and the per-shard
//! dedup set is *exact* without any cross-shard coordination. A shard
//! owns its admission state outright — no locks, no atomics — and the
//! service shell gives each shard its own thread and bounded queue.
//!
//! Backpressure and shedding are explicit and accounted: a full
//! pending buffer sheds with [`StatusCode::Busy`] (retryable), a
//! fresh report behind the sealed merge frontier sheds with
//! [`StatusCode::Late`] (permanent), and every received datagram
//! increments exactly one [`ShardStats`] counter, so the books
//! balance by construction.

use crate::gateway::{GatewayCore, SubmitError};
use crate::report::PeerReport;
use crate::wire::{self, StatusCode};
use magellan_netsim::{PeerAddr, SimDuration, SimTime};

/// How far behind the sealed merge frontier the dedup set remembers
/// identities. Retries are issued within seconds of the original
/// send, and a window only seals after every client's mark passes it,
/// so three report intervals of history is far more than any
/// in-flight retransmission can span — and it bounds shard memory on
/// arbitrarily long runs.
pub const DEDUP_RETENTION: SimDuration = SimDuration::from_mins(30);

/// Routes a peer address to one of `shards` shards (stable across
/// runs and processes — the multi-process drill partitions clients
/// with the same function).
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of(addr: PeerAddr, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    // splitmix64 finalizer: cheap, stable, and avalanches the
    // low-entropy allocator-assigned address space evenly.
    let mut h = u64::from(addr.as_u32());
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h % shards as u64) as usize
}

/// Per-shard ingest accounting. Every datagram the shard receives
/// lands in exactly one counter; [`ShardStats::received`] is their
/// sum, which is what makes the service-wide balance identity
/// (`sent == admitted + deduped + shed + lost`) checkable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Fresh reports admitted into the pending buffer.
    pub admitted: u64,
    /// Duplicate `(peer, timestamp)` retransmissions absorbed.
    pub deduped: u64,
    /// Reports shed with [`StatusCode::Busy`] — pending buffer full.
    pub shed_busy: u64,
    /// Reports rejected by validation (out-of-window, implausible).
    pub rejected: u64,
    /// Datagrams that failed wire decoding.
    pub malformed: u64,
    /// Fresh reports shed with [`StatusCode::Late`] — behind the
    /// sealed merge frontier.
    pub late: u64,
    /// Reports bounced by a downtime window (unused in service mode,
    /// where shards run without scheduled downtime).
    pub unavailable: u64,
}

impl ShardStats {
    /// Total datagrams this shard classified.
    pub fn received(&self) -> u64 {
        self.admitted
            + self.deduped
            + self.shed_busy
            + self.rejected
            + self.malformed
            + self.late
            + self.unavailable
    }

    /// Accumulates another shard's counters (service-wide totals).
    pub fn absorb(&mut self, other: &ShardStats) {
        self.admitted += other.admitted;
        self.deduped += other.deduped;
        self.shed_busy += other.shed_busy;
        self.rejected += other.rejected;
        self.malformed += other.malformed;
        self.late += other.late;
        self.unavailable += other.unavailable;
    }
}

/// One shard: an owned [`GatewayCore`] admission authority plus a
/// bounded buffer of admitted reports awaiting the next window merge.
#[derive(Debug)]
pub struct Shard {
    core: GatewayCore,
    pending: Vec<PeerReport>,
    pending_cap: usize,
    merged_below: SimTime,
    stats: ShardStats,
}

impl Shard {
    /// A shard admitting reports with `time < window_end`, buffering
    /// at most `pending_cap` admitted reports between merges (at
    /// least 1). When the buffer is full, fresh reports shed with
    /// [`StatusCode::Busy`] until the coordinator drains a window.
    pub fn new(window_end: SimTime, pending_cap: usize) -> Self {
        Shard {
            core: GatewayCore::new(window_end, Vec::new()),
            pending: Vec::new(),
            pending_cap: pending_cap.max(1),
            merged_below: SimTime::ORIGIN,
            stats: ShardStats::default(),
        }
    }

    /// As [`Shard::new`], but with the sealed merge frontier restored
    /// to `merged_below` — the crash-resume constructor. The dedup
    /// set of the previous incarnation is gone, so a re-received
    /// report below the frontier classifies `Late` (it is already in
    /// the archive or was already accounted) rather than duplicating
    /// archived history; reports at or past the frontier are admitted
    /// fresh, exactly like the first incarnation would have.
    pub fn with_frontier(window_end: SimTime, pending_cap: usize, merged_below: SimTime) -> Self {
        let mut shard = Shard::new(window_end, pending_cap);
        shard.merged_below = merged_below;
        shard
    }

    /// Decodes and ingests one datagram payload. The service runs on
    /// real wall-clock time, so the report's own timestamp serves as
    /// the admission instant (shards have no downtime schedule to
    /// check it against). Decode failures are charged to this shard's
    /// `malformed` counter — at most the one datagram is lost.
    pub fn ingest_wire(&mut self, payload: &[u8]) -> StatusCode {
        let mut buf = payload;
        match wire::decode(&mut buf) {
            Ok(report) if buf.is_empty() => {
                let now = report.time;
                self.ingest(report, now)
            }
            // Trailing bytes after a structurally valid report are
            // corruption too — a datagram is exactly one report.
            Ok(_) | Err(_) => {
                self.stats.malformed += 1;
                StatusCode::Malformed
            }
        }
    }

    /// Ingests one decoded report arriving at `now`, returning the
    /// wire verdict. Exactly one [`ShardStats`] counter moves per
    /// call.
    pub fn ingest(&mut self, report: PeerReport, now: SimTime) -> StatusCode {
        // Straggler handling first: a report behind the sealed merge
        // frontier is either a retransmission of something already
        // archived (absorb as duplicate) or fresh history the
        // append-ordered archive can no longer accept (shed as Late).
        if report.time < self.merged_below && !self.core.contains(&report) {
            self.stats.late += 1;
            return StatusCode::Late;
        }
        // Backpressure: a full pending buffer sheds fresh reports
        // *before* admission so the dedup set is not polluted — the
        // client's retry must be able to succeed after a drain.
        // Duplicates need no buffer space and are still absorbed.
        if self.pending.len() >= self.pending_cap && !self.core.contains(&report) {
            self.stats.shed_busy += 1;
            return StatusCode::Busy;
        }
        let outcome = self.core.admit(&report, now);
        match &outcome {
            Ok(true) => {
                self.stats.admitted += 1;
                self.pending.push(report);
            }
            Ok(false) => self.stats.deduped += 1,
            Err(SubmitError::Unavailable { .. }) => self.stats.unavailable += 1,
            Err(_) => self.stats.rejected += 1,
        }
        StatusCode::from_admission(&outcome)
    }

    /// Removes and returns every pending report with `time < below`,
    /// sorted by `(time, addr)` — the canonical archive order — and
    /// advances the sealed merge frontier. Dedup entries older than
    /// the frontier minus [`DEDUP_RETENTION`] are pruned, bounding
    /// shard memory.
    pub fn drain_below(&mut self, below: SimTime) -> Vec<PeerReport> {
        // Sorting the whole buffer in place keeps what stays behind
        // in order too, so the next drain sorts an almost-sorted
        // vector and only the drained prefix ever moves.
        self.pending.sort_by_key(|r| (r.time, r.addr.as_u32()));
        let cut = self.pending.partition_point(|r| r.time < below);
        let batch: Vec<PeerReport> = self.pending.drain(..cut).collect();
        if below > self.merged_below {
            self.merged_below = below;
            let retain_from = self
                .merged_below
                .as_millis()
                .saturating_sub(DEDUP_RETENTION.as_millis());
            self.core
                .prune_seen_below(SimTime::from_millis(retain_from));
        }
        batch
    }

    /// This shard's accounting.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Admitted reports awaiting the next merge.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Live dedup entries — memory-bound observability.
    pub fn seen_len(&self) -> usize {
        self.core.seen_len()
    }

    /// The sealed merge frontier: reports below it are archived (or
    /// forever shed).
    pub fn merged_below(&self) -> SimTime {
        self.merged_below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferMap;
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

    fn shard(cap: usize) -> Shard {
        Shard::new(SimTime::at(14, 0, 0), cap)
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 7, 16] {
            for ip in 0..2_000u32 {
                let s = shard_of(PeerAddr::from_u32(ip), n);
                assert!(s < n);
                assert_eq!(s, shard_of(PeerAddr::from_u32(ip), n));
            }
        }
    }

    #[test]
    fn shard_of_spreads_sequential_addresses() {
        // Allocator-assigned addresses are sequential; the hash must
        // not map runs of them to one shard.
        let n = 8;
        let mut counts = vec![0usize; n];
        for ip in 0..8_000u32 {
            counts[shard_of(PeerAddr::from_u32(ip), n)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min < 400, "skewed shard spread: {counts:?}");
    }

    #[test]
    fn admits_dedups_and_balances() {
        let mut s = shard(16);
        assert_eq!(s.ingest(report(1, 20), at_min(20)), StatusCode::Ack);
        assert_eq!(
            s.ingest(report(1, 20), at_min(21)),
            StatusCode::AckDuplicate
        );
        let mut bad = report(2, 20);
        bad.upload_capacity_kbps = -1.0;
        assert_eq!(s.ingest(bad, at_min(20)), StatusCode::Implausible);
        let st = s.stats();
        assert_eq!((st.admitted, st.deduped, st.rejected), (1, 1, 1));
        assert_eq!(st.received(), 3);
        assert_eq!(s.pending_len(), 1);
    }

    #[test]
    fn full_pending_buffer_sheds_busy_but_absorbs_duplicates() {
        let mut s = shard(2);
        assert_eq!(s.ingest(report(1, 20), at_min(20)), StatusCode::Ack);
        assert_eq!(s.ingest(report(2, 20), at_min(20)), StatusCode::Ack);
        // Buffer full: fresh report sheds, dedup set untouched.
        assert_eq!(s.ingest(report(3, 20), at_min(20)), StatusCode::Busy);
        assert_eq!(s.stats().shed_busy, 1);
        // A duplicate of an admitted report still absorbs.
        assert_eq!(
            s.ingest(report(1, 20), at_min(21)),
            StatusCode::AckDuplicate
        );
        // After a drain the shed report's retry succeeds — Busy must
        // not have poisoned dedup.
        let drained = s.drain_below(at_min(25));
        assert_eq!(drained.len(), 2);
        assert_eq!(s.ingest(report(3, 30), at_min(30)), StatusCode::Ack);
        assert_eq!(s.stats().received(), 5);
    }

    #[test]
    fn drain_is_sorted_and_seals_the_frontier() {
        let mut s = shard(64);
        // Same timestamp, shuffled addresses; plus a later report
        // that must stay pending.
        for ip in [5u32, 1, 9, 3] {
            assert_eq!(s.ingest(report(ip, 20), at_min(20)), StatusCode::Ack);
        }
        assert_eq!(s.ingest(report(7, 40), at_min(40)), StatusCode::Ack);
        let batch = s.drain_below(at_min(30));
        let addrs: Vec<u32> = batch.iter().map(|r| r.addr.as_u32()).collect();
        assert_eq!(addrs, vec![1, 3, 5, 9], "not (time, addr) sorted");
        assert_eq!(s.pending_len(), 1);
        // Behind the frontier now: a fresh straggler sheds as Late, a
        // retransmission of archived history absorbs as duplicate.
        assert_eq!(s.ingest(report(8, 20), at_min(41)), StatusCode::Late);
        assert_eq!(
            s.ingest(report(5, 20), at_min(41)),
            StatusCode::AckDuplicate
        );
        let st = s.stats();
        assert_eq!((st.late, st.deduped), (1, 1));
    }

    #[test]
    fn dedup_memory_is_bounded_by_retention() {
        let mut s = shard(1 << 12);
        // Ten hours of one report per minute.
        for m in 0..600u64 {
            assert_eq!(s.ingest(report(1, m), at_min(m)), StatusCode::Ack);
        }
        assert_eq!(s.seen_len(), 600);
        s.drain_below(at_min(600));
        // Only the retention horizon survives the seal.
        let retained = DEDUP_RETENTION.as_millis() / SimDuration::from_mins(1).as_millis();
        assert_eq!(s.seen_len() as u64, retained);
    }

    #[test]
    fn malformed_and_trailing_datagrams_cost_one_each() {
        let mut s = shard(16);
        assert_eq!(s.ingest_wire(&[1, 2, 3]), StatusCode::Malformed);
        let mut with_trailer = wire::encode(&report(1, 20)).to_vec();
        with_trailer.push(0xFF);
        assert_eq!(s.ingest_wire(&with_trailer), StatusCode::Malformed);
        let ok = wire::encode(&report(1, 20));
        assert_eq!(s.ingest_wire(&ok), StatusCode::Ack);
        let st = s.stats();
        assert_eq!((st.malformed, st.admitted), (2, 1));
        assert_eq!(st.received(), 3);
    }
}
