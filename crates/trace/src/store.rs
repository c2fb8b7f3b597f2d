//! The trace store: every collected report, bucketed by report
//! interval for fast time-range queries. On disk a trace is a
//! segmented archive; [`crate::archive::read_archive`] with
//! [`TraceStore::push`] as its sink loads one.

use crate::report::{PeerReport, REPORT_INTERVAL};
use magellan_netsim::SimTime;
use std::collections::HashMap;

/// In-memory store of peer reports.
///
/// Reports are kept in arrival order; a bucket index over
/// [`REPORT_INTERVAL`]-wide windows serves the snapshot builder's
/// range scans.
#[derive(Debug, Default, Clone)]
pub struct TraceStore {
    reports: Vec<PeerReport>,
    buckets: HashMap<u64, Vec<usize>>,
}

/// The bucket index of an instant.
pub fn bucket_of(t: SimTime) -> u64 {
    t.as_millis() / REPORT_INTERVAL.as_millis()
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one report. The store itself is append-only;
    /// deduplication policy belongs to admission
    /// ([`crate::GatewayCore`]).
    pub fn push(&mut self, report: PeerReport) {
        let idx = self.reports.len();
        self.buckets
            .entry(bucket_of(report.time))
            .or_default()
            .push(idx);
        self.reports.push(report);
    }

    /// Number of stored reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the store holds no reports.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// All reports, in arrival order.
    pub fn reports(&self) -> &[PeerReport] {
        &self.reports
    }

    /// Iterates over reports with `start <= time < end`.
    pub fn range(&self, start: SimTime, end: SimTime) -> impl Iterator<Item = &PeerReport> {
        let b_lo = bucket_of(start);
        let b_hi = bucket_of(end);
        (b_lo..=b_hi)
            .filter_map(move |b| self.buckets.get(&b))
            .flatten()
            .map(move |&i| &self.reports[i])
            .filter(move |r| r.time >= start && r.time < end)
    }

    /// Earliest and latest report times, when any.
    pub fn time_span(&self) -> Option<(SimTime, SimTime)> {
        let min = self.reports.iter().map(|r| r.time).min()?;
        let max = self.reports.iter().map(|r| r.time).max()?;
        Some((min, max))
    }
}

impl Extend<PeerReport> for TraceStore {
    fn extend<I: IntoIterator<Item = PeerReport>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

impl FromIterator<PeerReport> for TraceStore {
    fn from_iter<I: IntoIterator<Item = PeerReport>>(iter: I) -> Self {
        let mut s = TraceStore::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferMap;
    use magellan_netsim::{PeerAddr, SimDuration};
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
            send_throughput_kbps: 100.0,
            partners: vec![],
        }
    }

    #[test]
    fn push_and_len() {
        let mut s = TraceStore::new();
        assert!(s.is_empty());
        s.push(report(1, 20));
        s.push(report(2, 30));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn range_query_is_half_open() {
        let s: TraceStore = vec![report(1, 20), report(2, 30), report(3, 40)]
            .into_iter()
            .collect();
        let start = SimTime::ORIGIN + SimDuration::from_mins(20);
        let end = SimTime::ORIGIN + SimDuration::from_mins(40);
        let got: Vec<u32> = s.range(start, end).map(|r| r.addr.as_u32()).collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn time_span() {
        let s: TraceStore = vec![report(1, 50), report(2, 20)].into_iter().collect();
        let (lo, hi) = s.time_span().unwrap();
        assert_eq!(lo, SimTime::ORIGIN + SimDuration::from_mins(20));
        assert_eq!(hi, SimTime::ORIGIN + SimDuration::from_mins(50));
        assert!(TraceStore::new().time_span().is_none());
    }

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(SimTime::ORIGIN), 0);
        assert_eq!(bucket_of(SimTime::ORIGIN + SimDuration::from_mins(9)), 0);
        assert_eq!(bucket_of(SimTime::ORIGIN + SimDuration::from_mins(10)), 1);
        assert_eq!(bucket_of(SimTime::at(1, 0, 0)), 144);
    }
}
