//! Edge reciprocity metrics (paper §4.4).
//!
//! Two measures are provided:
//!
//! * [`simple_reciprocity_checked_csr`] — Eq. (1) of the paper: the
//!   fraction of directed edges whose reverse edge also exists,
//!   `r = Σ_{i≠j} a_ij a_ji / M`.
//! * [`garlaschelli_reciprocity_csr`] — Eq. (2), the
//!   Garlaschelli–Loffredo correlation `ρ = (r − ā) / (1 − ā)` where
//!   `ā = M / (N(N−1))` is the link density. `ρ > 0` means
//!   *reciprocal* (more bilateral links than a random graph of the
//!   same density), `ρ < 0` *antireciprocal* (e.g. a tree-like feeding
//!   structure), `ρ ≈ 0` uncorrelated.

use crate::csr::Csr;
use crate::{GraphError, NodeId};

/// Per-worker node quota for the reciprocity kernels. A node costs one
/// sorted-row merge (a few ns), so a worker needs thousands of nodes
/// before the fork/join round-trip pays for itself; below
/// `workers × RECIPROCITY_GRAIN` nodes the kernels shed workers rather
/// than split profitless slices (the n=2000, t=8 regression in
/// `BENCH_metrics.json`).
const RECIPROCITY_GRAIN: usize = 8192;

/// Number of directed edges whose reverse also exists (each bilateral
/// pair contributes 2, matching `Σ_{i≠j} a_ij a_ji`).
///
/// An edge `u -> v` is bilateral iff `v` also appears in `u`'s
/// in-row, so the count is `Σ_u |out(u) ∩ in(u)|` — one linear merge
/// of two sorted rows per node (`O(n + m)` total), fanned across
/// cores with integer partials summed in node order (at
/// [`RECIPROCITY_GRAIN`] nodes per worker minimum — the merge is too
/// cheap to split finer).
pub fn bilateral_edge_count_csr(csr: &Csr) -> usize {
    let partials =
        magellan_par::par_map_collect_grained(csr.node_count(), RECIPROCITY_GRAIN, |i| {
            let u = NodeId::from_index(i);
            let (out, inn) = (csr.out(u), csr.inn(u));
            let (mut a, mut b, mut n) = (0, 0, 0usize);
            while a < out.len() && b < inn.len() {
                match out[a].cmp(&inn[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        n += 1;
                        a += 1;
                        b += 1;
                    }
                }
            }
            n
        });
    partials.iter().sum()
}

/// Simple reciprocity `r` (Eq. 1): fraction of edges that are
/// bilateral.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] when the graph has no edges.
pub fn simple_reciprocity_checked_csr(csr: &Csr) -> Result<f64, GraphError> {
    if csr.edge_count() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    Ok(bilateral_edge_count_csr(csr) as f64 / csr.edge_count() as f64)
}

/// Garlaschelli–Loffredo edge reciprocity `ρ` (Eq. 2).
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] when the graph has no edges and
/// [`GraphError::CompleteGraph`] when every possible directed edge is
/// present (`ā = 1` makes `ρ` undefined).
pub fn garlaschelli_reciprocity_csr(csr: &Csr) -> Result<f64, GraphError> {
    LinkCounts {
        nodes: csr.node_count(),
        edges: csr.edge_count(),
        bilateral: bilateral_edge_count_csr(csr),
    }
    .garlaschelli()
}

/// The three counts `ρ` is a function of, for a whole graph or for an
/// edge-filtered sub-topology of one (a set of edges plus the nodes
/// they touch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkCounts {
    /// Nodes of the (sub-)topology.
    pub nodes: usize,
    /// Directed edges.
    pub edges: usize,
    /// Directed edges whose reverse also exists.
    pub bilateral: usize,
}

impl LinkCounts {
    /// Garlaschelli–Loffredo `ρ` (Eq. 2) of a topology with these
    /// counts.
    ///
    /// # Errors
    ///
    /// Same contract as [`garlaschelli_reciprocity_csr`].
    pub fn garlaschelli(self) -> Result<f64, GraphError> {
        if self.edges == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let a_bar = crate::csr::density(self.nodes, self.edges);
        if (a_bar - 1.0).abs() < f64::EPSILON || a_bar > 1.0 {
            return Err(GraphError::CompleteGraph);
        }
        let r = self.bilateral as f64 / self.edges as f64;
        Ok((r - a_bar) / (1.0 - a_bar))
    }
}

/// Splits the edges of `csr` by whether their two endpoints carry the
/// same label and counts both sub-topologies in one sweep: returns
/// `(same, cross)`, the [`LinkCounts`] of the same-label edges with
/// their incident nodes and of the cross-label edges with theirs —
/// what the two edge-filtered sub-topologies (each kept edge plus the
/// nodes it touches) would measure, without building either (the
/// paper's intra-/inter-ISP link topologies of Fig. 8B, with ISPs as
/// labels).
///
/// A node's class memberships depend only on its own rows, and an
/// edge's reverse always falls in the same class, so one merge of each
/// node's out- and in-row yields every count (`O(n + m)`).
///
/// # Panics
///
/// Panics unless `labels` has one entry per node.
pub fn label_split_link_counts_csr<L: PartialEq>(
    csr: &Csr,
    labels: &[L],
) -> (LinkCounts, LinkCounts) {
    assert_eq!(labels.len(), csr.node_count(), "one label per node");
    let mut same = LinkCounts::default();
    let mut cross = LinkCounts::default();
    for u in csr.node_ids() {
        let mine = &labels[u.index()];
        let (mut touches_same, mut touches_cross) = (false, false);
        for &v in csr.und(u) {
            if labels[v.index()] == *mine {
                touches_same = true;
            } else {
                touches_cross = true;
            }
        }
        same.nodes += usize::from(touches_same);
        cross.nodes += usize::from(touches_cross);
        let inn = csr.inn(u);
        let mut b = 0;
        for &v in csr.out(u) {
            let class = if labels[v.index()] == *mine {
                &mut same
            } else {
                &mut cross
            };
            class.edges += 1;
            while b < inn.len() && inn[b] < v {
                b += 1;
            }
            if inn.get(b) == Some(&v) {
                class.bilateral += 1;
            }
        }
    }
    (same, cross)
}

/// Weighted reciprocity: the fraction of edge *weight* that is
/// reciprocated, `r_w = Σ_{i≠j} min(w_ij, w_ji) / Σ_{i≠j} w_ij`
/// (Squartini–Garlaschelli's weighted analogue). On Magellan traces
/// the weights are segment counts, so this measures how much of the
/// *traffic* flows over two-way relationships, not just how many
/// links do. Per-node `(total, matched)` weight partials are fanned
/// across cores (at [`RECIPROCITY_GRAIN`] nodes per worker minimum)
/// and summed in node order.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] when the graph has no edges or
/// zero total weight.
pub fn weighted_reciprocity_csr(csr: &Csr) -> Result<f64, GraphError> {
    if csr.edge_count() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let partials =
        magellan_par::par_map_collect_grained(csr.node_count(), RECIPROCITY_GRAIN, |i| {
            let u = NodeId::from_index(i);
            let (out, w) = (csr.out(u), csr.out_weights(u));
            let mut total = 0u128;
            let mut matched = 0u128;
            for (k, &v) in out.iter().enumerate() {
                total += w[k] as u128;
                if let Some(back) = csr.edge_weight(v, u) {
                    matched += w[k].min(back) as u128;
                }
            }
            (total, matched)
        });
    let mut total = 0u128;
    let mut matched = 0u128;
    for &(t, m) in &partials {
        total += t;
        matched += m;
    }
    if total == 0 {
        return Err(GraphError::EmptyGraph);
    }
    Ok(matched as f64 / total as f64)
}

/// The reciprocity a perfect tree (or any graph with zero bilateral
/// edges) of the same density would have: `ρ_tree = −ā / (1 − ā)`.
///
/// The paper uses this to argue that tree-like propagation would show
/// up as negative measured reciprocity.
pub fn tree_baseline_csr(csr: &Csr) -> f64 {
    let a_bar = csr.density();
    if a_bar >= 1.0 {
        return f64::NEG_INFINITY;
    }
    -a_bar / (1.0 - a_bar)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weighted(n: usize, edges: &[(usize, usize, u64)]) -> Csr {
        let edges: Vec<_> = edges
            .iter()
            .map(|&(a, b, w)| (NodeId::from_index(a), NodeId::from_index(b), w))
            .collect();
        Csr::from_edges(n, &edges)
    }

    fn graph(n: usize, edges: &[(usize, usize)]) -> Csr {
        let edges: Vec<_> = edges.iter().map(|&(a, b)| (a, b, 1)).collect();
        weighted(n, &edges)
    }

    fn simple(g: &Csr) -> f64 {
        simple_reciprocity_checked_csr(g).unwrap_or(0.0)
    }

    #[test]
    fn fully_bilateral_graph_has_r_one_and_rho_one() {
        let g = graph(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert!((simple(&g) - 1.0).abs() < 1e-12);
        let rho = garlaschelli_reciprocity_csr(&g).unwrap();
        assert!((rho - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tree_has_r_zero_and_negative_rho() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3)]);
        assert_eq!(simple(&g), 0.0);
        let rho = garlaschelli_reciprocity_csr(&g).unwrap();
        assert!(rho < 0.0);
        assert!((rho - tree_baseline_csr(&g)).abs() < 1e-12);
    }

    #[test]
    fn mixed_graph_matches_hand_computation() {
        // Edges: 0->1, 1->0 (bilateral pair), 1->2 (one way). N = 3, M = 3.
        let g = graph(3, &[(0, 1), (1, 0), (1, 2)]);
        let r = simple(&g);
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
        let a_bar = 3.0 / 6.0;
        let expect = (r - a_bar) / (1.0 - a_bar);
        let rho = garlaschelli_reciprocity_csr(&g).unwrap();
        assert!((rho - expect).abs() < 1e-12);
        assert!(rho > 0.0);
    }

    #[test]
    fn bilateral_count_counts_both_directions() {
        let g = graph(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(bilateral_edge_count_csr(&g), 2);
    }

    #[test]
    fn empty_graph_errors() {
        let g = graph(2, &[]);
        assert_eq!(
            simple_reciprocity_checked_csr(&g),
            Err(GraphError::EmptyGraph)
        );
        assert_eq!(
            garlaschelli_reciprocity_csr(&g),
            Err(GraphError::EmptyGraph)
        );
        assert_eq!(simple(&g), 0.0);
    }

    #[test]
    fn complete_graph_errors_for_rho() {
        let g = graph(2, &[(0, 1), (1, 0)]);
        assert_eq!(
            garlaschelli_reciprocity_csr(&g),
            Err(GraphError::CompleteGraph)
        );
        // r is still fine.
        assert!((simple(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn label_split_counts_each_class_with_its_incident_nodes() {
        // Labels: {0, 1} = 'a', {2, 3} = 'b', 4 = 'c' (isolated).
        // Same-label: 0<->1, 2->3. Cross-label: 1->2, 3->0, 0->3.
        let g = graph(5, &[(0, 1), (1, 0), (2, 3), (1, 2), (3, 0), (0, 3)]);
        let labels = ['a', 'a', 'b', 'b', 'c'];
        let (same, cross) = label_split_link_counts_csr(&g, &labels);
        let counts = |nodes, edges, bilateral| LinkCounts {
            nodes,
            edges,
            bilateral,
        };
        assert_eq!(same, counts(4, 3, 2));
        assert_eq!(cross, counts(4, 3, 2));
        // The whole-graph ρ is the same arithmetic over whole-graph counts.
        assert_eq!(
            counts(5, 6, 4).garlaschelli(),
            garlaschelli_reciprocity_csr(&g)
        );
    }

    #[test]
    fn label_split_degenerate_classes_are_undefined_like_their_subgraphs() {
        // One bilateral same-label pair and one cross-label edge: the
        // same-label sub-topology is a complete 2-node graph.
        let g = graph(3, &[(0, 1), (1, 0), (1, 2)]);
        let (same, cross) = label_split_link_counts_csr(&g, &[0, 0, 1]);
        assert_eq!(same.garlaschelli(), Err(GraphError::CompleteGraph));
        assert!(cross.garlaschelli().is_ok());
        // A single label leaves no cross-label link at all.
        let (same, cross) = label_split_link_counts_csr(&g, &[7, 7, 7]);
        assert_eq!(same.garlaschelli(), garlaschelli_reciprocity_csr(&g));
        assert_eq!(cross, LinkCounts::default());
        assert_eq!(cross.garlaschelli(), Err(GraphError::EmptyGraph));
    }

    #[test]
    fn weighted_reciprocity_weighs_traffic_not_links() {
        // One heavy one-way edge dominates two light bilateral ones.
        let g = weighted(3, &[(0, 1, 10), (1, 0, 10), (1, 2, 80)]);
        // Links: 2 of 3 bilateral (r = 2/3); weight: 20 of 100 matched.
        assert!((simple(&g) - 2.0 / 3.0).abs() < 1e-12);
        let rw = weighted_reciprocity_csr(&g).unwrap();
        assert!((rw - 0.2).abs() < 1e-12, "rw = {rw}");
    }

    #[test]
    fn weighted_reciprocity_asymmetric_pair() {
        // Bilateral link with asymmetric volume: only the min is
        // reciprocated.
        let g = weighted(2, &[(0, 1, 30), (1, 0, 10)]);
        let rw = weighted_reciprocity_csr(&g).unwrap();
        // matched = min(30,10) + min(10,30) = 20; total = 40.
        assert!((rw - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_reciprocity_empty_errors() {
        let g = graph(2, &[]);
        assert!(matches!(
            weighted_reciprocity_csr(&g),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn random_like_density_gives_rho_near_zero() {
        // A 4-cycle: r = 0, ā = 4/12 = 1/3, ρ = -0.5. Confirms the sign
        // convention on a directed ring (no bilateral links).
        let g = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let rho = garlaschelli_reciprocity_csr(&g).unwrap();
        assert!((rho - (-0.5)).abs() < 1e-12);
    }
}
