//! The peer report schema and reporting schedule (paper §3.2).
//!
//! Each report carries "basic information such as the peer's IP
//! address, the channel it is watching, its buffer map, total download
//! and upload capacities, as well as its instantaneous aggregate
//! receiving and sending throughput. In addition, the report also
//! includes a list of all its partners, with their corresponding IP
//! addresses, TCP/UDP ports, and number of segments sent to or
//! received from each partner."

use crate::buffer::BufferMap;
use magellan_netsim::{PeerAddr, SimDuration, SimTime};
use magellan_workload::ChannelId;
use serde::{Deserialize, Serialize};

/// Delay before a freshly joined peer sends its first report: 20
/// minutes, which is what makes reporters the "stable" backbone.
pub const FIRST_REPORT_DELAY: SimDuration = SimDuration::from_mins(20);

/// Interval between subsequent reports: 10 minutes.
pub const REPORT_INTERVAL: SimDuration = SimDuration::from_mins(10);

/// The stable-peer horizon: a peer is present at `t` when it reported
/// in `(t − STALENESS_HORIZON, t]`. 1.5 report intervals, so a peer
/// that missed one report but not two still counts — UDP loses
/// datagrams. The snapshot builder and the study's rolling window
/// both apply it.
pub const STALENESS_HORIZON: SimDuration =
    SimDuration::from_millis(REPORT_INTERVAL.as_millis() * 3 / 2);

/// The activity threshold of §4.2: a partner is an *active supplying
/// partner* when more than this many segments were received from it
/// since the last report, and an *active receiving partner* when more
/// than this many were sent to it.
pub const ACTIVE_SEGMENT_THRESHOLD: u32 = 10;

/// One partner entry of a report: 16 bytes in memory.
///
/// The two segment counters cover one report interval, so they are
/// `u32`: the largest seen in the benchmark's archives is 7,700. The
/// wire and the archive keep 8 bytes for each, and the decoders reject
/// a value above `u32::MAX` rather than truncate it. Sums and graph
/// edge weights widen to `u64`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PartnerRecord {
    /// Partner's IP address.
    pub addr: PeerAddr,
    /// Partner's TCP port (block transfer).
    pub tcp_port: u16,
    /// Partner's UDP port (control).
    pub udp_port: u16,
    /// Segments the reporter sent to this partner in the report
    /// interval.
    pub segments_sent: u32,
    /// Segments the reporter received from this partner in the report
    /// interval.
    pub segments_received: u32,
}

// Every held report pays for each partner record: a field that widens
// it fails the build here, not a benchmark later.
const _: () = assert!(std::mem::size_of::<PartnerRecord>() == 16);

impl PartnerRecord {
    /// Whether the partner actively supplied the reporter.
    pub fn is_active_supplier(&self) -> bool {
        self.segments_received > ACTIVE_SEGMENT_THRESHOLD
    }

    /// Whether the partner actively received from the reporter.
    pub fn is_active_receiver(&self) -> bool {
        self.segments_sent > ACTIVE_SEGMENT_THRESHOLD
    }

    /// Whether the partner is active in either direction.
    pub fn is_active(&self) -> bool {
        self.is_active_supplier() || self.is_active_receiver()
    }
}

/// A complete peer report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerReport {
    /// When the report was produced.
    pub time: SimTime,
    /// Reporter's IP address.
    pub addr: PeerAddr,
    /// The channel being watched.
    pub channel: ChannelId,
    /// Buffer map at report time.
    pub buffer_map: BufferMap,
    /// Estimated total download capacity (Kbps).
    pub download_capacity_kbps: f64,
    /// Estimated total upload capacity (Kbps).
    pub upload_capacity_kbps: f64,
    /// Instantaneous aggregate receiving throughput (Kbps).
    pub recv_throughput_kbps: f64,
    /// Instantaneous aggregate sending throughput (Kbps).
    pub send_throughput_kbps: f64,
    /// All current partners.
    pub partners: Vec<PartnerRecord>,
}

impl PeerReport {
    /// Number of partners listed (the paper's "total number of
    /// partners", Fig. 4A).
    pub fn partner_count(&self) -> usize {
        self.partners.len()
    }

    /// Active indegree: number of active supplying partners (Fig. 4B).
    pub fn active_indegree(&self) -> usize {
        self.partners
            .iter()
            .filter(|p| p.is_active_supplier())
            .count()
    }

    /// Whether the peer achieves at least `fraction` of the channel
    /// rate (Fig. 3 uses `fraction = 0.9`).
    pub fn achieves_rate(&self, channel_rate_kbps: f64, fraction: f64) -> bool {
        self.recv_throughput_kbps >= channel_rate_kbps * fraction
    }
}

/// The report schedule: given a join time, yields report instants
/// until the leave time.
///
/// # Example
///
/// ```
/// use magellan_trace::report::report_times;
/// use magellan_netsim::{SimTime, SimDuration};
///
/// let join = SimTime::ORIGIN;
/// let leave = join + SimDuration::from_mins(45);
/// let times: Vec<_> = report_times(join, leave).collect();
/// assert_eq!(times.len(), 3); // t+20, t+30, t+40
/// ```
pub fn report_times(join: SimTime, leave: SimTime) -> impl Iterator<Item = SimTime> {
    let first = join + FIRST_REPORT_DELAY;
    (0u64..)
        .map(move |k| first + SimDuration::from_millis(k * REPORT_INTERVAL.as_millis()))
        .take_while(move |&t| t < leave)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(sent: u32, recv: u32) -> PartnerRecord {
        PartnerRecord {
            addr: PeerAddr::from_u32(0x0B000001),
            tcp_port: 8000,
            udp_port: 8001,
            segments_sent: sent,
            segments_received: recv,
        }
    }

    fn report_with(partners: Vec<PartnerRecord>) -> PeerReport {
        PeerReport {
            time: SimTime::at(0, 1, 0),
            addr: PeerAddr::from_u32(0x0B000002),
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 16),
            download_capacity_kbps: 2_000.0,
            upload_capacity_kbps: 512.0,
            recv_throughput_kbps: 390.0,
            send_throughput_kbps: 200.0,
            partners,
        }
    }

    #[test]
    fn activity_threshold_is_strict() {
        assert!(!record(10, 0).is_active_receiver());
        assert!(record(11, 0).is_active_receiver());
        assert!(!record(0, 10).is_active_supplier());
        assert!(record(0, 11).is_active_supplier());
        assert!(record(11, 11).is_active());
        assert!(!record(0, 0).is_active());
    }

    #[test]
    fn degrees_count_both_roles_independently() {
        let r = report_with(vec![
            record(20, 20), // both supplier and receiver
            record(20, 0),  // receiver only
            record(0, 20),  // supplier only
            record(1, 1),   // non-active
        ]);
        assert_eq!(r.partner_count(), 4);
        assert_eq!(r.active_indegree(), 2);
    }

    #[test]
    fn rate_satisfaction() {
        let r = report_with(vec![]);
        assert!(r.achieves_rate(400.0, 0.9)); // 390 >= 360
        assert!(!r.achieves_rate(400.0, 1.0)); // 390 < 400
    }

    #[test]
    fn report_schedule_matches_paper() {
        let join = SimTime::at(0, 9, 0);
        let leave = join + SimDuration::from_mins(61);
        let times: Vec<_> = report_times(join, leave).collect();
        assert_eq!(
            times,
            vec![
                join + SimDuration::from_mins(20),
                join + SimDuration::from_mins(30),
                join + SimDuration::from_mins(40),
                join + SimDuration::from_mins(50),
                join + SimDuration::from_mins(60),
            ]
        );
    }

    #[test]
    fn short_sessions_never_report() {
        let join = SimTime::ORIGIN;
        let leave = join + SimDuration::from_mins(19);
        assert_eq!(report_times(join, leave).count(), 0);
    }

    #[test]
    fn exact_threshold_session_does_not_report() {
        // Leave exactly at the 20-minute mark: the report at t+20 is
        // not sent (peer departs at that instant).
        let join = SimTime::ORIGIN;
        let leave = join + FIRST_REPORT_DELAY;
        assert_eq!(report_times(join, leave).count(), 0);
    }
}
