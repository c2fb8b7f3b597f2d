//! Partner classification (paper §4.2).
//!
//! "We are able to categorize partners of each peer into three
//! classes: (1) active supplying partners, from which the number of
//! received segments is larger than a certain threshold (10
//! segments); (2) active receiving partners, to which the number of
//! sent segments is larger than the threshold; (3) nonactive partner,
//! otherwise." A partner supplying *and* receiving counts in both
//! degree directions.

use magellan_trace::{PartnerRecord, PeerReport, ACTIVE_SEGMENT_THRESHOLD};

/// The paper's three partner classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartnerClass {
    /// Received segments above threshold only.
    ActiveSupplier,
    /// Sent segments above threshold only.
    ActiveReceiver,
    /// Above threshold in both directions.
    ActiveBoth,
    /// Neither direction above threshold.
    NonActive,
}

/// Classifies one partner record under `threshold`.
pub fn classify_with(rec: &PartnerRecord, threshold: u32) -> PartnerClass {
    let sup = rec.segments_received > threshold;
    let rcv = rec.segments_sent > threshold;
    match (sup, rcv) {
        (true, true) => PartnerClass::ActiveBoth,
        (true, false) => PartnerClass::ActiveSupplier,
        (false, true) => PartnerClass::ActiveReceiver,
        (false, false) => PartnerClass::NonActive,
    }
}

/// Classifies with the paper's 10-segment threshold.
pub fn classify(rec: &PartnerRecord) -> PartnerClass {
    classify_with(rec, ACTIVE_SEGMENT_THRESHOLD)
}

/// Degree triple of one report: (total partners, active indegree,
/// active outdegree) — the three quantities of Fig. 4.
pub fn degree_triple(report: &PeerReport) -> (usize, usize, usize) {
    let mut indeg = 0;
    let mut outdeg = 0;
    for rec in &report.partners {
        match classify(rec) {
            PartnerClass::ActiveSupplier => indeg += 1,
            PartnerClass::ActiveReceiver => outdeg += 1,
            PartnerClass::ActiveBoth => {
                indeg += 1;
                outdeg += 1;
            }
            PartnerClass::NonActive => {}
        }
    }
    (report.partners.len(), indeg, outdeg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_netsim::PeerAddr;

    fn rec(sent: u32, recv: u32) -> PartnerRecord {
        PartnerRecord {
            addr: PeerAddr::from_u32(1),
            tcp_port: 0,
            udp_port: 0,
            segments_sent: sent,
            segments_received: recv,
        }
    }

    #[test]
    fn classes_cover_all_cases() {
        assert_eq!(classify(&rec(0, 0)), PartnerClass::NonActive);
        assert_eq!(classify(&rec(0, 11)), PartnerClass::ActiveSupplier);
        assert_eq!(classify(&rec(11, 0)), PartnerClass::ActiveReceiver);
        assert_eq!(classify(&rec(11, 11)), PartnerClass::ActiveBoth);
    }

    #[test]
    fn threshold_is_exclusive() {
        assert_eq!(classify(&rec(10, 10)), PartnerClass::NonActive);
        assert_eq!(classify_with(&rec(10, 10), 9), PartnerClass::ActiveBoth);
    }

    #[test]
    fn degree_triple_counts_both_roles() {
        use magellan_trace::BufferMap;
        use magellan_workload::ChannelId;
        let report = PeerReport {
            time: magellan_netsim::SimTime::ORIGIN,
            addr: PeerAddr::from_u32(9),
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 1000.0,
            upload_capacity_kbps: 500.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 100.0,
            partners: vec![rec(11, 11), rec(0, 20), rec(20, 0), rec(1, 1)],
        };
        assert_eq!(degree_triple(&report), (4, 2, 2));
    }
}
