//! Report admission: the collection-endpoint rules of the paper's
//! standalone trace server (§3.2), in one place.
//!
//! [`GatewayCore`] is the storage-agnostic admission authority —
//! downtime windows, report validation, `(peer, timestamp)`
//! retransmission dedup, and [`ServerStats`] accounting. Every
//! [`crate::shard::Shard`] of the networked service owns one. In
//! process, [`SinkGateway`] puts a core in front of any report sink
//! (a [`crate::TraceStore`], an archive writer, an accumulator) and
//! speaks [`ReportGateway`], the delivery trait
//! [`crate::uplink::ReportUplink`] retransmits through.

use crate::report::PeerReport;
use crate::wire;
use magellan_netsim::{FaultWindow, SimTime};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Why a report was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// Report timestamp outside the collection window.
    OutOfWindow {
        /// The offending timestamp.
        time: SimTime,
    },
    /// A numeric field failed sanity checks.
    Implausible {
        /// Which check failed.
        what: &'static str,
    },
    /// The datagram could not be decoded.
    Malformed(wire::WireError),
    /// The server was down when the datagram arrived; the sender
    /// should buffer and retransmit after the outage.
    Unavailable {
        /// Arrival time of the rejected datagram.
        time: SimTime,
    },
    /// The ingest path was saturated when the datagram arrived — a
    /// shard queue or pending buffer was full. Transient: the sender
    /// should back off and retransmit (see
    /// [`crate::uplink::NetBackoff`]).
    Busy {
        /// Arrival time of the shed datagram.
        time: SimTime,
    },
    /// The report belongs to a collection window the service has
    /// already merged and sealed. Permanent for this report: the
    /// archive is append-ordered, so the service sheds stragglers
    /// rather than reordering history.
    Late {
        /// The sealed report timestamp.
        time: SimTime,
    },
    /// The sender exceeded its per-client token-bucket allowance.
    /// Transient: the sender should back off and retransmit — the
    /// bucket refills at a fixed rate (see
    /// [`crate::service::TokenBucket`]).
    RateLimited {
        /// Arrival time of the throttled datagram.
        time: SimTime,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::OutOfWindow { time } => {
                write!(f, "report timestamp {time} outside collection window")
            }
            SubmitError::Implausible { what } => write!(f, "implausible report field: {what}"),
            SubmitError::Malformed(e) => write!(f, "malformed datagram: {e}"),
            SubmitError::Unavailable { time } => {
                write!(f, "trace server down at {time}")
            }
            SubmitError::Busy { time } => {
                write!(f, "ingest saturated at {time}, retry with backoff")
            }
            SubmitError::Late { time } => {
                write!(
                    f,
                    "report timestamp {time} is behind the sealed merge frontier"
                )
            }
            SubmitError::RateLimited { time } => {
                write!(
                    f,
                    "sender over its rate allowance at {time}, retry with backoff"
                )
            }
        }
    }
}

impl Error for SubmitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SubmitError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::WireError> for SubmitError {
    fn from(e: wire::WireError) -> Self {
        SubmitError::Malformed(e)
    }
}

/// Collection statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Reports accepted into the store.
    pub accepted: u64,
    /// Reports rejected by validation or decoding.
    pub rejected: u64,
    /// Datagrams bounced because the server was down.
    pub unavailable: u64,
    /// Retransmitted duplicates absorbed idempotently (counted, not
    /// stored; keyed by `(peer, timestamp)`).
    pub duplicates: u64,
}

/// Partner lists beyond this length are implausible (bootstrap hands
/// out at most 50; gossip adds a bounded number more).
const MAX_PARTNERS: usize = 256;

/// The collection-endpoint validation rules.
pub(crate) fn validate_report(report: &PeerReport, window_end: SimTime) -> Result<(), SubmitError> {
    if report.time >= window_end {
        return Err(SubmitError::OutOfWindow { time: report.time });
    }
    if report.partners.len() > MAX_PARTNERS {
        return Err(SubmitError::Implausible {
            what: "partner list length",
        });
    }
    for (v, what) in [
        (report.download_capacity_kbps, "download capacity"),
        (report.upload_capacity_kbps, "upload capacity"),
        (report.recv_throughput_kbps, "recv throughput"),
        (report.send_throughput_kbps, "send throughput"),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(SubmitError::Implausible { what });
        }
    }
    if report.partners.iter().any(|p| p.addr == report.addr) {
        return Err(SubmitError::Implausible {
            what: "peer lists itself as partner",
        });
    }
    Ok(())
}

/// Anything that can accept a report delivery at a given arrival
/// time, with server-style error semantics ([`SubmitError`]).
pub trait ReportGateway {
    /// Validates and stores one report arriving at `now`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Unavailable`] when the endpoint is down at
    /// `now` (the sender should buffer and retransmit); any other
    /// [`SubmitError`] is a validation rejection that retrying cannot
    /// fix.
    fn submit_report(&mut self, report: PeerReport, now: SimTime) -> Result<(), SubmitError>;
}

/// The admission half of a trace collection endpoint, storage
/// agnostic: downtime windows, report validation, `(peer, timestamp)`
/// retransmission dedup, and [`ServerStats`] accounting. Callers
/// decide what to do with an admitted report (archive it, feed an
/// accumulator, both).
#[derive(Debug, Clone)]
pub struct GatewayCore {
    window_end: SimTime,
    downtime: Vec<FaultWindow>,
    seen: BTreeSet<(u32, u64)>,
    stats: ServerStats,
}

impl GatewayCore {
    /// An endpoint accepting reports with `time < window_end`, down
    /// inside any of the `downtime` windows.
    pub fn new(window_end: SimTime, downtime: Vec<FaultWindow>) -> Self {
        GatewayCore {
            window_end,
            downtime,
            seen: BTreeSet::new(),
            stats: ServerStats::default(),
        }
    }

    /// Admission decision for one report arriving at `now`:
    /// `Ok(true)` = fresh, store it; `Ok(false)` = duplicate,
    /// absorbed idempotently.
    ///
    /// # Errors
    ///
    /// As [`ReportGateway::submit_report`]. Rejections are counted.
    pub fn admit(&mut self, report: &PeerReport, now: SimTime) -> Result<bool, SubmitError> {
        if self.downtime.iter().any(|w| w.contains(now)) {
            self.stats.unavailable += 1;
            return Err(SubmitError::Unavailable { time: now });
        }
        if let Err(e) = validate_report(report, self.window_end) {
            self.stats.rejected += 1;
            return Err(e);
        }
        let key = (report.addr.as_u32(), report.time.as_millis());
        if !self.seen.insert(key) {
            self.stats.duplicates += 1;
            return Ok(false);
        }
        self.stats.accepted += 1;
        Ok(true)
    }

    /// Whether this `(peer, timestamp)` identity was already admitted
    /// — the sharded service distinguishes a straggler duplicate
    /// (absorb idempotently) from a straggler fresh report (shed as
    /// [`SubmitError::Late`]) with this.
    pub fn contains(&self, report: &PeerReport) -> bool {
        self.seen
            .contains(&(report.addr.as_u32(), report.time.as_millis()))
    }

    /// Drops dedup entries with `timestamp < below`, bounding the
    /// memory of a long-running endpoint. Retransmissions of pruned
    /// identities are no longer recognized as duplicates, so callers
    /// must only prune behind a frontier old enough that in-flight
    /// retries have drained (the service keeps a retention horizon of
    /// whole merge windows behind the sealed frontier).
    pub fn prune_seen_below(&mut self, below: SimTime) {
        let cut = below.as_millis();
        self.seen.retain(|&(_, t)| t >= cut);
    }

    /// Number of live dedup entries — memory-bound observability.
    pub fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// Current accounting.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Overwrites the accounting — checkpoint restore.
    pub fn restore_stats(&mut self, stats: ServerStats) {
        self.stats = stats;
    }
}

/// A [`GatewayCore`] in front of a report sink: fresh reports are
/// handed to `sink`, duplicates are absorbed, and everything else
/// bounces with the core's [`SubmitError`]. The sink decides what
/// storing means — a [`crate::TraceStore`] push, an archive append,
/// an analysis feed.
pub struct SinkGateway<'a, F> {
    core: &'a mut GatewayCore,
    sink: F,
}

impl<'a, F: FnMut(PeerReport)> SinkGateway<'a, F> {
    /// Routes every report `core` admits into `sink`.
    pub fn new(core: &'a mut GatewayCore, sink: F) -> Self {
        SinkGateway { core, sink }
    }
}

impl<F: FnMut(PeerReport)> ReportGateway for SinkGateway<'_, F> {
    fn submit_report(&mut self, report: PeerReport, now: SimTime) -> Result<(), SubmitError> {
        if self.core.admit(&report, now)? {
            (self.sink)(report);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferMap;
    use magellan_netsim::{PeerAddr, SimDuration};
    use magellan_workload::ChannelId;

    fn report(minute: u64) -> PeerReport {
        PeerReport {
            time: SimTime::ORIGIN + SimDuration::from_mins(minute),
            addr: PeerAddr::from_u32(42),
            channel: ChannelId::CCTV4,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 2000.0,
            upload_capacity_kbps: 512.0,
            recv_throughput_kbps: 380.0,
            send_throughput_kbps: 90.0,
            partners: vec![],
        }
    }

    fn core() -> GatewayCore {
        GatewayCore::new(SimTime::at(14, 0, 0), vec![])
    }

    /// Submits `r` at its own timestamp through a [`SinkGateway`]
    /// that collects into `stored`.
    fn submit(
        core: &mut GatewayCore,
        stored: &mut Vec<PeerReport>,
        r: PeerReport,
    ) -> Result<(), SubmitError> {
        let now = r.time;
        SinkGateway::new(core, |r| stored.push(r)).submit_report(r, now)
    }

    #[test]
    fn admission_matches_server_semantics() {
        let down = FaultWindow::new(SimTime::at(0, 1, 0), SimTime::at(0, 2, 0));
        let mut g = GatewayCore::new(SimTime::at(14, 0, 0), vec![down]);
        // Inside the outage: unavailable.
        assert!(matches!(
            g.admit(&report(90), SimTime::ORIGIN + SimDuration::from_mins(90)),
            Err(SubmitError::Unavailable { .. })
        ));
        // Retransmitted after recovery: fresh.
        let now = SimTime::at(0, 2, 30);
        assert_eq!(g.admit(&report(90), now), Ok(true));
        // Same identity again: duplicate, absorbed.
        assert_eq!(g.admit(&report(90), now), Ok(false));
        // Validation failure: rejected.
        let mut bad = report(95);
        bad.upload_capacity_kbps = -1.0;
        assert!(matches!(
            g.admit(&bad, now),
            Err(SubmitError::Implausible { .. })
        ));
        let st = g.stats();
        assert_eq!(
            (st.accepted, st.duplicates, st.unavailable, st.rejected),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn sink_receives_valid_reports() {
        let (mut g, mut stored) = (core(), Vec::new());
        submit(&mut g, &mut stored, report(20)).unwrap();
        submit(&mut g, &mut stored, report(30)).unwrap();
        assert_eq!(stored.len(), 2);
        assert_eq!(
            g.stats(),
            ServerStats {
                accepted: 2,
                ..ServerStats::default()
            }
        );
    }

    #[test]
    fn downtime_bounces_without_reaching_the_sink() {
        let down = FaultWindow::new(SimTime::at(0, 1, 0), SimTime::at(0, 2, 0));
        let mut g = GatewayCore::new(SimTime::at(14, 0, 0), vec![down]);
        let mut stored = Vec::new();
        // 90 minutes in: inside the outage.
        assert!(matches!(
            submit(&mut g, &mut stored, report(90)),
            Err(SubmitError::Unavailable { .. })
        ));
        assert_eq!(g.stats().unavailable, 1);
        assert!(stored.is_empty());
        // Same report retransmitted after recovery is accepted even
        // though its own timestamp is inside the window.
        SinkGateway::new(&mut g, |r| stored.push(r))
            .submit_report(report(90), SimTime::at(0, 2, 30))
            .unwrap();
        assert_eq!(g.stats().accepted, 1);
        assert_eq!(stored.len(), 1);
    }

    #[test]
    fn duplicates_are_absorbed_before_the_sink() {
        let (mut g, mut stored) = (core(), Vec::new());
        submit(&mut g, &mut stored, report(20)).unwrap();
        submit(&mut g, &mut stored, report(20)).unwrap();
        submit(&mut g, &mut stored, report(30)).unwrap();
        assert_eq!(stored.len(), 2, "duplicate was stored");
        let st = g.stats();
        assert_eq!((st.accepted, st.duplicates), (2, 1));
    }

    #[test]
    fn rejects_out_of_window() {
        let (mut g, mut stored) = (core(), Vec::new());
        let mut r = report(0);
        r.time = SimTime::at(20, 0, 0);
        assert!(matches!(
            submit(&mut g, &mut stored, r),
            Err(SubmitError::OutOfWindow { .. })
        ));
        assert_eq!(g.stats().rejected, 1);
        assert!(stored.is_empty());
    }

    #[test]
    fn rejects_negative_capacity() {
        let mut r = report(20);
        r.upload_capacity_kbps = -5.0;
        assert!(matches!(
            submit(&mut core(), &mut Vec::new(), r),
            Err(SubmitError::Implausible { .. })
        ));
    }

    #[test]
    fn rejects_self_partner() {
        let mut r = report(20);
        r.partners.push(crate::report::PartnerRecord {
            addr: r.addr,
            tcp_port: 1,
            udp_port: 2,
            segments_sent: 0,
            segments_received: 0,
        });
        assert!(matches!(
            submit(&mut core(), &mut Vec::new(), r),
            Err(SubmitError::Implausible { .. })
        ));
    }

    /// Interleaving many clients through one `&mut` core preserves
    /// exact accounting — concurrency lives in the sharded service,
    /// not here.
    #[test]
    fn interleaved_clients_preserve_accounting() {
        let (mut g, mut stored) = (core(), Vec::new());
        for t in 0..8u32 {
            for i in 0..500u32 {
                let mut r = report(20 + u64::from(i % 100));
                r.addr = PeerAddr::from_u32(t * 10_000 + i);
                submit(&mut g, &mut stored, r).unwrap();
            }
        }
        assert_eq!(stored.len(), 8 * 500);
        assert_eq!(g.stats().accepted, 4_000);
    }

    #[test]
    fn busy_and_late_display_are_informative() {
        let t = SimTime::at(0, 1, 0);
        assert!(SubmitError::Busy { time: t }.to_string().contains("retry"));
        assert!(SubmitError::Late { time: t }.to_string().contains("sealed"));
    }
}
