//! Degree metrics over a [`Csr`] snapshot.
//!
//! The Magellan study distinguishes three degree notions per peer
//! (§4.2): *indegree* (active supplying partners), *outdegree* (active
//! receiving partners), and the *total partner count*. The first two
//! are the row lengths of the active-link graph's in- and out-rows;
//! the partner count is carried by the trace layer (it includes
//! non-active partners and so is not derivable from the active-link
//! graph alone) but the same histogram machinery applies.

use crate::csr::Csr;
use crate::histogram::DegreeHistogram;
use crate::NodeId;

/// Which degree of a directed graph to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegreeKind {
    /// Number of distinct in-neighbors (active supplying partners).
    In,
    /// Number of distinct out-neighbors (active receiving partners).
    Out,
    /// Number of distinct neighbors in either direction.
    Undirected,
}

/// The degree of one node under `kind`.
pub fn degree_of(csr: &Csr, id: NodeId, kind: DegreeKind) -> usize {
    match kind {
        DegreeKind::In => csr.in_degree(id),
        DegreeKind::Out => csr.out_degree(id),
        DegreeKind::Undirected => csr.und_degree(id),
    }
}

/// All node degrees under `kind`, indexed by [`NodeId::index`].
pub fn degree_sequence(csr: &Csr, kind: DegreeKind) -> Vec<usize> {
    csr.node_ids().map(|id| degree_of(csr, id, kind)).collect()
}

/// Histogram of node degrees under `kind`.
pub fn degree_histogram(csr: &Csr, kind: DegreeKind) -> DegreeHistogram {
    degree_sequence(csr, kind).into_iter().collect()
}

/// Average degree under `kind` (0.0 on an empty graph).
pub fn average_degree(csr: &Csr, kind: DegreeKind) -> f64 {
    if csr.node_count() == 0 {
        return 0.0;
    }
    let sum: usize = degree_sequence(csr, kind).into_iter().sum();
    sum as f64 / csr.node_count() as f64
}

/// Summary statistics of a degree sequence, as reported in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeSummary {
    /// Mean degree.
    pub mean: f64,
    /// Maximum degree.
    pub max: usize,
    /// Median degree.
    pub median: usize,
    /// Location of the distribution spike (mode, excluding 0).
    pub spike: Option<usize>,
}

/// Computes [`DegreeSummary`] for `kind`.
///
/// Returns `None` on an empty graph.
pub fn degree_summary(csr: &Csr, kind: DegreeKind) -> Option<DegreeSummary> {
    if csr.node_count() == 0 {
        return None;
    }
    let h = degree_histogram(csr, kind);
    Some(DegreeSummary {
        mean: h.mean(),
        max: h.max_degree().unwrap_or(0),
        median: h.quantile(0.5).unwrap_or(0),
        spike: h.spike(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star: hub 0 -> {1, 2, 3}, plus 1 -> 0.
    fn star() -> Csr {
        let id = NodeId::from_index;
        Csr::from_edges(
            4,
            &[
                (id(0), id(1), 1),
                (id(0), id(2), 1),
                (id(0), id(3), 1),
                (id(1), id(0), 1),
            ],
        )
    }

    #[test]
    fn degree_of_each_kind() {
        let g = star();
        let hub = NodeId::from_index(0);
        assert_eq!(degree_of(&g, hub, DegreeKind::Out), 3);
        assert_eq!(degree_of(&g, hub, DegreeKind::In), 1);
        assert_eq!(degree_of(&g, hub, DegreeKind::Undirected), 3);
    }

    #[test]
    fn sequence_is_indexed_by_node_id() {
        let g = star();
        let seq = degree_sequence(&g, DegreeKind::Out);
        assert_eq!(seq, vec![3, 1, 0, 0]);
    }

    #[test]
    fn average_degree_directed_equals_edges_over_nodes() {
        let g = star();
        let avg = average_degree(&g, DegreeKind::Out);
        assert!((avg - 4.0 / 4.0).abs() < 1e-12);
        // In and out averages always match (each edge contributes one each).
        assert!((average_degree(&g, DegreeKind::In) - avg).abs() < 1e-12);
    }

    #[test]
    fn summary_on_star() {
        let g = star();
        let s = degree_summary(&g, DegreeKind::Undirected).unwrap();
        assert_eq!(s.max, 3);
        assert_eq!(s.spike, Some(1));
        assert!((s.mean - 6.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_graph_is_none() {
        let g = Csr::from_edges(0, &[]);
        assert!(degree_summary(&g, DegreeKind::In).is_none());
        assert_eq!(average_degree(&g, DegreeKind::In), 0.0);
    }

    #[test]
    fn histogram_total_matches_node_count() {
        let g = star();
        let h = degree_histogram(&g, DegreeKind::In);
        assert_eq!(h.total(), 4);
    }
}
