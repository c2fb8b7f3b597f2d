//! Metric-evolution series.
//!
//! Every evolution figure of the paper is a set of curves over the
//! two-week window. [`Series`] is one such curve: `(SimTime, f64)`
//! points with a name, plus helpers the figure renderers share
//! (daily-peak extraction, averaging, CSV emission).

use magellan_netsim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One named metric curve.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Series {
    /// Curve label (legend entry).
    pub name: String,
    /// Sample points, in nondecreasing time order.
    pub points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last sample (series are monotone).
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "series must be pushed in time order");
        }
        self.points.push((t, v));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Largest value with its time.
    pub fn max_point(&self) -> Option<(SimTime, f64)> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite series"))
    }

    /// Smallest value with its time.
    pub fn min_point(&self) -> Option<(SimTime, f64)> {
        self.points
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite series"))
    }

    /// Value at the sample closest to `t`.
    pub fn at(&self, t: SimTime) -> Option<f64> {
        self.points
            .iter()
            .min_by_key(|&&(pt, _)| pt.as_millis().abs_diff(t.as_millis()))
            .map(|&(_, v)| v)
    }

    /// Peak value of one calendar day.
    pub fn day_peak(&self, day: u64) -> Option<(SimTime, f64)> {
        self.points
            .iter()
            .copied()
            .filter(|&(t, _)| t.day() == day)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
    }
}

/// Renders aligned CSV: `time_ms,time_label,<series...>` rows over
/// the union of sample times (series sampled on the same grid line up
/// exactly; stragglers emit empty cells).
pub fn to_csv(series: &[&Series]) -> String {
    let mut times: Vec<SimTime> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(t, _)| t))
        .collect();
    times.sort();
    times.dedup();
    let mut out = String::new();
    out.push_str("time_ms,time_label");
    for s in series {
        let _ = write!(out, ",{}", s.name.replace(',', ";"));
    }
    out.push('\n');
    // Per-series cursor over the sorted points.
    let mut cursors = vec![0usize; series.len()];
    for t in times {
        let _ = write!(out, "{},{}", t.as_millis(), t);
        for (si, s) in series.iter().enumerate() {
            while cursors[si] < s.points.len() && s.points[cursors[si]].0 < t {
                cursors[si] += 1;
            }
            if cursors[si] < s.points.len() && s.points[cursors[si]].0 == t {
                let _ = write!(out, ",{}", s.points[cursors[si]].1);
            } else {
                out.push(',');
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(min: u64) -> SimTime {
        SimTime::from_millis(min * 60_000)
    }

    #[test]
    fn push_and_stats() {
        let mut s = Series::new("x");
        s.push(t(0), 1.0);
        s.push(t(10), 3.0);
        s.push(t(20), 2.0);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.max_point(), Some((t(10), 3.0)));
        assert_eq!(s.min_point(), Some((t(0), 1.0)));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut s = Series::new("x");
        s.push(t(10), 1.0);
        s.push(t(5), 2.0);
    }

    #[test]
    fn nearest_sample_lookup() {
        let mut s = Series::new("x");
        s.push(t(0), 1.0);
        s.push(t(100), 9.0);
        assert_eq!(s.at(t(10)), Some(1.0));
        assert_eq!(s.at(t(90)), Some(9.0));
        assert_eq!(Series::new("e").at(t(0)), None);
    }

    #[test]
    fn day_grouping() {
        let mut s = Series::new("x");
        s.push(SimTime::at(0, 12, 0), 2.0);
        s.push(SimTime::at(0, 21, 0), 6.0);
        s.push(SimTime::at(1, 12, 0), 10.0);
        assert_eq!(s.day_peak(0), Some((SimTime::at(0, 21, 0), 6.0)));
        assert_eq!(s.day_peak(5), None);
    }

    #[test]
    fn csv_aligns_series() {
        let mut a = Series::new("a");
        a.push(t(0), 1.0);
        a.push(t(10), 2.0);
        let mut b = Series::new("b");
        b.push(t(10), 5.0);
        let csv = to_csv(&[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].ends_with("a,b"));
        assert!(lines[1].ends_with(",1,"), "line: {}", lines[1]);
        assert!(lines[2].ends_with(",2,5"), "line: {}", lines[2]);
    }

    #[test]
    fn csv_escapes_commas_in_names() {
        let s = Series::new("x,y");
        let csv = to_csv(&[&s]);
        assert!(csv.starts_with("time_ms,time_label,x;y"));
    }
}
