//! Topology snapshot reconstruction.
//!
//! The paper treats the trace as "continuous-time snapshots of P2P
//! streaming topologies": at any instant, the peers whose latest
//! report is fresh form the *stable peer* set, and every address
//! appearing either as a reporter or in a partner list belongs to the
//! *known peer* universe (§3.2, §4.1.1). A [`Snapshot`] materializes
//! exactly that.

use crate::report::{PeerReport, STALENESS_HORIZON};
use crate::store::TraceStore;
use magellan_netsim::{uncovered_fraction, FaultWindow, PeerAddr, SimDuration, SimTime};
use magellan_workload::ChannelId;
use std::collections::BTreeMap;

/// A reconstructed view of the overlay at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot<'a> {
    /// The reconstruction instant.
    pub time: SimTime,
    /// Fraction of this snapshot's staleness horizon during which the
    /// collection server was up (1.0 when no outage overlapped it).
    /// Snapshots with `coverage < 1.0` systematically under-count
    /// peers — consumers must flag them, not silently average over
    /// the hole.
    pub coverage: f64,
    /// The freshest report of each stable peer (report within the
    /// staleness horizon), keyed by reporter address. A `BTreeMap` so
    /// every iterator below yields address order — snapshot consumers
    /// feed figure pipelines where hash order would leak into bytes.
    reports: BTreeMap<PeerAddr, &'a PeerReport>,
}

impl<'a> Snapshot<'a> {
    /// Whether a server outage ate into this snapshot's horizon, so
    /// the stable-peer set is a known undercount.
    pub fn is_partial(&self) -> bool {
        self.coverage < 1.0
    }
    /// Number of stable peers.
    pub fn stable_count(&self) -> usize {
        self.reports.len()
    }

    /// The stable peers' reports, in ascending address order.
    pub fn reports(&self) -> impl Iterator<Item = &'a PeerReport> + '_ {
        self.reports.values().copied()
    }

    /// Every known address: reporters plus everyone in a partner
    /// list. This is the paper's "total peers" population (Fig. 1A).
    pub fn known_peers(&self) -> Vec<PeerAddr> {
        let mut v: Vec<PeerAddr> = self
            .reports
            .values()
            .flat_map(|r| r.partners.iter().map(|p| p.addr))
            .chain(self.reports.keys().copied())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Stable peers watching `channel`.
    pub fn reports_on_channel(
        &self,
        channel: ChannelId,
    ) -> impl Iterator<Item = &'a PeerReport> + '_ {
        self.reports
            .values()
            .copied()
            .filter(move |r| r.channel == channel)
    }
}

/// Builds snapshots from a [`TraceStore`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotBuilder<'a> {
    store: &'a TraceStore,
    staleness: SimDuration,
    /// Known collection-server outages; overlap with a snapshot's
    /// horizon marks it partial (a slice borrow so the builder stays
    /// `Copy`).
    outages: &'a [FaultWindow],
}

impl<'a> SnapshotBuilder<'a> {
    /// Creates a builder with the default staleness horizon,
    /// [`STALENESS_HORIZON`].
    pub fn new(store: &'a TraceStore) -> Self {
        SnapshotBuilder {
            store,
            staleness: STALENESS_HORIZON,
            outages: &[],
        }
    }

    /// Overrides the staleness horizon.
    pub fn staleness(mut self, staleness: SimDuration) -> Self {
        self.staleness = staleness;
        self
    }

    /// Declares the collection server's outage schedule so snapshots
    /// overlapping an outage carry `coverage < 1.0` instead of
    /// masquerading as complete.
    pub fn outages(mut self, outages: &'a [FaultWindow]) -> Self {
        self.outages = outages;
        self
    }

    /// Reconstructs the snapshot at `t`: for every peer with a report
    /// in `(t − staleness, t]`, its freshest such report, plus the
    /// fraction of that horizon the collection server was up.
    pub fn at(&self, t: SimTime) -> Snapshot<'a> {
        let start = t - self.staleness + SimDuration::from_millis(1);
        let end = t + SimDuration::from_millis(1); // inclusive of t
        let mut freshest: BTreeMap<PeerAddr, &'a PeerReport> = BTreeMap::new();
        for r in self.store.range(start, end) {
            match freshest.get(&r.addr) {
                Some(prev) if prev.time >= r.time => {}
                _ => {
                    freshest.insert(r.addr, r);
                }
            }
        }
        Snapshot {
            time: t,
            coverage: uncovered_fraction(self.outages, start, end),
            reports: freshest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferMap;
    use crate::report::PartnerRecord;

    fn report(ip: u32, minute: u64, partners: &[u32]) -> PeerReport {
        PeerReport {
            time: SimTime::ORIGIN + SimDuration::from_mins(minute),
            addr: PeerAddr::from_u32(ip),
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 2000.0,
            upload_capacity_kbps: 512.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 50.0,
            partners: partners
                .iter()
                .map(|&p| PartnerRecord {
                    addr: PeerAddr::from_u32(p),
                    tcp_port: 1,
                    udp_port: 2,
                    segments_sent: 20,
                    segments_received: 0,
                })
                .collect(),
        }
    }

    fn at_min(m: u64) -> SimTime {
        SimTime::ORIGIN + SimDuration::from_mins(m)
    }

    #[test]
    fn snapshot_contains_fresh_reporters_only() {
        let store: TraceStore = vec![
            report(1, 20, &[]),
            report(2, 25, &[]),
            report(3, 5, &[]), // stale by minute 30
        ]
        .into_iter()
        .collect();
        let snap = SnapshotBuilder::new(&store).at(at_min(30));
        let stable: Vec<u32> = snap.reports().map(|r| r.addr.as_u32()).collect();
        assert_eq!(stable, vec![1, 2]);
    }

    #[test]
    fn freshest_report_wins() {
        let store: TraceStore = vec![report(1, 20, &[9]), report(1, 28, &[7])]
            .into_iter()
            .collect();
        let snap = SnapshotBuilder::new(&store).at(at_min(30));
        let r = snap.reports().next().unwrap();
        assert_eq!(snap.stable_count(), 1);
        assert_eq!(r.time, at_min(28));
        assert_eq!(r.partners[0].addr, PeerAddr::from_u32(7));
    }

    #[test]
    fn report_exactly_at_t_is_included() {
        let store: TraceStore = vec![report(1, 30, &[])].into_iter().collect();
        let snap = SnapshotBuilder::new(&store).at(at_min(30));
        assert_eq!(snap.stable_count(), 1);
    }

    #[test]
    fn known_peers_include_partner_list_ips() {
        let store: TraceStore = vec![report(1, 20, &[100, 101]), report(2, 22, &[100])]
            .into_iter()
            .collect();
        let snap = SnapshotBuilder::new(&store).at(at_min(25));
        let known = snap.known_peers();
        let ips: Vec<u32> = known.iter().map(|a| a.as_u32()).collect();
        assert_eq!(ips, vec![1, 2, 100, 101]);
    }

    #[test]
    fn channel_filter() {
        let mut r1 = report(1, 20, &[]);
        r1.channel = ChannelId::CCTV4;
        let store: TraceStore = vec![r1, report(2, 21, &[])].into_iter().collect();
        let snap = SnapshotBuilder::new(&store).at(at_min(25));
        assert_eq!(snap.reports_on_channel(ChannelId::CCTV4).count(), 1);
        assert_eq!(snap.reports_on_channel(ChannelId::CCTV1).count(), 1);
    }

    #[test]
    fn custom_staleness() {
        let store: TraceStore = vec![report(1, 10, &[])].into_iter().collect();
        let tight = SnapshotBuilder::new(&store)
            .staleness(SimDuration::from_mins(5))
            .at(at_min(20));
        assert_eq!(tight.stable_count(), 0);
        let loose = SnapshotBuilder::new(&store)
            .staleness(SimDuration::from_mins(60))
            .at(at_min(20));
        assert_eq!(loose.stable_count(), 1);
    }

    #[test]
    fn empty_store_snapshot() {
        let store = TraceStore::new();
        let snap = SnapshotBuilder::new(&store).at(at_min(100));
        assert_eq!(snap.stable_count(), 0);
        assert!(snap.known_peers().is_empty());
        assert!(!snap.is_partial());
        assert!((snap.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outage_overlap_marks_snapshots_partial() {
        let store: TraceStore = vec![report(1, 20, &[])].into_iter().collect();
        // Server down minutes 25–30; horizon of the minute-30
        // snapshot is (15, 30], so 5 of 15 minutes are dark.
        let outage = [FaultWindow::new(at_min(25), at_min(30))];
        let b = SnapshotBuilder::new(&store).outages(&outage);
        let partial = b.at(at_min(30));
        assert!(partial.is_partial());
        assert!(
            (partial.coverage - 2.0 / 3.0).abs() < 1e-3,
            "coverage = {}",
            partial.coverage
        );
        // A snapshot whose horizon misses the outage is complete.
        let full = b.at(at_min(50));
        assert!(!full.is_partial());
        assert!((full.coverage - 1.0).abs() < 1e-12);
        // The default builder never marks anything partial.
        assert!(!SnapshotBuilder::new(&store).at(at_min(30)).is_partial());
    }
}
