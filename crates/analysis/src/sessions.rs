//! Stable-session reconstruction from the trace.
//!
//! The trace never records departures — a peer simply stops
//! reporting. Following the paper's measurement design, a *stable
//! session* is a maximal run of consecutive reports from one address
//! (tolerating one lost datagram); its observed length is the span of
//! the run plus the 20 minutes the peer was necessarily online before
//! its first report. This is the observable lower bound of the true
//! session length, and the machinery behind statements like "reports
//! are sent by relatively long-lived peers".
//!
//! [`SessionFold`] reconstructs the sessions as a stream, one report
//! at a time in archive order; the study's accumulator and
//! `tracetool sessions` both feed it.

use magellan_netsim::{PeerAddr, SimDuration, SimTime};
use magellan_trace::{FIRST_REPORT_DELAY, REPORT_INTERVAL};
use std::collections::BTreeMap;

/// Summary statistics over a session population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSummary {
    /// Number of sessions.
    pub sessions: usize,
    /// Mean observed length in minutes.
    pub mean_mins: f64,
    /// Median observed length in minutes.
    pub median_mins: f64,
    /// 90th percentile in minutes.
    pub p90_mins: f64,
}

/// The streaming stable-session fold. A peer's run of reports is split
/// wherever the gap exceeds `2 × REPORT_INTERVAL` (one lost datagram
/// is bridged; two mean the peer left and later rejoined).
#[derive(Debug, Clone, Default)]
pub struct SessionFold {
    /// Per-peer open run: (first report, latest report).
    open: BTreeMap<PeerAddr, (SimTime, SimTime)>,
    /// Observed lengths (minutes) of closed runs.
    closed_mins: Vec<f64>,
}

/// Observed length in minutes of a report run `[first, last]`.
fn observed_mins(first: SimTime, last: SimTime) -> f64 {
    (last.saturating_since(first) + FIRST_REPORT_DELAY).as_millis() as f64 / 60_000.0
}

impl SessionFold {
    /// Folds in one report of `addr` at `time`; a peer's reports must
    /// arrive in time order, as they do in archive (admission) order.
    pub fn push(&mut self, addr: PeerAddr, time: SimTime) {
        let split_gap = SimDuration::from_millis(REPORT_INTERVAL.as_millis() * 2);
        match self.open.get_mut(&addr) {
            Some((first, last)) => {
                debug_assert!(time >= *last, "{addr:?}: report at {time:?} after {last:?}");
                if time.saturating_since(*last) > split_gap {
                    self.closed_mins.push(observed_mins(*first, *last));
                    *first = time;
                }
                *last = time;
            }
            None => {
                self.open.insert(addr, (time, time));
            }
        }
    }

    /// Closes every open run and summarizes the observed lengths;
    /// `None` when no report was folded in.
    pub fn summary(self) -> Option<SessionSummary> {
        let mut mins = self.closed_mins;
        mins.extend(
            self.open
                .values()
                .map(|&(first, last)| observed_mins(first, last)),
        );
        mins.sort_by(f64::total_cmp);
        let n = mins.len();
        let median_mins = *mins.get(n / 2)?;
        Some(SessionSummary {
            sessions: n,
            mean_mins: mins.iter().sum::<f64>() / n as f64,
            median_mins,
            p90_mins: mins[(n.saturating_mul(9) / 10).min(n - 1)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The summary of `(ip, minute)` reports folded in order.
    fn fold(reports: &[(u32, u64)]) -> Option<SessionSummary> {
        let mut fold = SessionFold::default();
        for &(ip, minute) in reports {
            fold.push(
                PeerAddr::from_u32(ip),
                SimTime::ORIGIN + SimDuration::from_mins(minute),
            );
        }
        fold.summary()
    }

    #[test]
    fn single_report_is_a_twenty_minute_session() {
        let s = fold(&[(1, 20)]).unwrap();
        assert_eq!(s.sessions, 1);
        assert_eq!(s.mean_mins, 20.0);
    }

    #[test]
    fn consecutive_reports_form_one_session() {
        let s = fold(&[(1, 20), (1, 30), (1, 40)]).unwrap();
        assert_eq!(s.sessions, 1);
        assert_eq!(s.mean_mins, 40.0);
    }

    #[test]
    fn one_missed_report_bridges() {
        let s = fold(&[(1, 20), (1, 40)]).unwrap();
        assert_eq!(s.sessions, 1);
        assert_eq!(s.mean_mins, 40.0);
    }

    #[test]
    fn long_gap_splits_sessions() {
        let s = fold(&[(1, 20), (1, 30), (1, 120), (1, 130)]).unwrap();
        assert_eq!(s.sessions, 2);
        // Two sessions averaging 30 min, the longer one 30 min: both
        // are 30 min long.
        assert_eq!(s.mean_mins, 30.0);
        assert_eq!((s.median_mins, s.p90_mins), (30.0, 30.0));
    }

    #[test]
    fn sessions_from_different_peers_do_not_merge() {
        assert_eq!(fold(&[(1, 20), (2, 30)]).unwrap().sessions, 2);
    }

    #[test]
    fn summary_statistics() {
        // A 20-minute session and a 30-minute one.
        let sum = fold(&[(1, 20), (2, 20), (2, 30)]).unwrap();
        assert_eq!(sum.sessions, 2);
        assert!((sum.mean_mins - 25.0).abs() < 1e-9);
        assert!(sum.p90_mins >= sum.median_mins);
    }

    #[test]
    fn empty_fold_has_no_sessions() {
        assert!(fold(&[]).is_none());
    }
}
