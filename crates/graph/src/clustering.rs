//! Watts–Strogatz clustering coefficients.
//!
//! The paper computes `C_g = (1/n) Σ C_i`, where `C_i` is the fraction
//! of possible edges that exist among vertex `i`'s neighborhood, on the
//! undirected projection of the active-link graph (§4.3). Nodes with
//! fewer than two neighbors contribute `C_i = 0`, following the
//! convention of Watts' *Six Degrees* which the paper cites.
//!
//! The kernels run over a flat [`Csr`] snapshot view. Per-node `C_i`
//! values are independent, so the graph-level sums fan out across
//! cores with [`magellan_par::par_map_collect_grained`] (at
//! [`CLUSTERING_GRAIN`] nodes per worker minimum — each node costs
//! `O(k²)` intersections, far more than the reciprocity merges, so the
//! quota is correspondingly smaller); the per-node values come back in
//! node order and are summed left-to-right, keeping every coefficient
//! bit-identical for any thread count.

use crate::csr::Csr;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Per-worker node quota for the clustering kernels: each node's `C_i`
/// runs `k` sorted-row intersections over its neighborhood, so a few
/// hundred nodes already outweigh a fork/join round-trip.
const CLUSTERING_GRAIN: usize = 256;

/// Number of common elements of two ascending-sorted slices.
fn intersection_size(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// `C_i` from a prebuilt snapshot view.
fn local_from_csr(csr: &Csr, id: NodeId) -> f64 {
    let hood = csr.und(id);
    let k = hood.len();
    if k < 2 {
        return 0.0;
    }
    // Each undirected edge (u, v) among the neighborhood is found twice:
    // v in N(u) and u in N(v).
    let mut twice_links = 0usize;
    for &u in hood {
        twice_links += intersection_size(csr.und(u), hood);
    }
    twice_links as f64 / (k * (k - 1)) as f64
}

/// The local clustering coefficient `C_i` of one node, on the
/// undirected projection: `0.0` for nodes with fewer than 2 neighbors.
/// Build the [`Csr`] once and query as many nodes as needed.
pub fn local_clustering_csr(csr: &Csr, id: NodeId) -> f64 {
    local_from_csr(csr, id)
}

/// The graph clustering coefficient `C_g = (1/n) Σ C_i`, fanning the
/// per-node coefficients across cores.
///
/// Returns `0.0` on an empty graph.
pub fn clustering_coefficient_csr(csr: &Csr) -> f64 {
    let n = csr.node_count();
    if n == 0 {
        return 0.0;
    }
    let locals = magellan_par::par_map_collect_grained(n, CLUSTERING_GRAIN, |i| {
        local_from_csr(csr, NodeId::from_index(i))
    });
    locals.iter().sum::<f64>() / n as f64
}

/// Estimates the clustering coefficient from a uniform sample of
/// `samples` nodes (without replacement), deterministic in `seed`.
/// The sample is drawn before the fan-out, so the estimate is
/// identical for every thread count.
///
/// Falls back to the exact value when `samples >= node_count`; a
/// zero-node sample estimates `0.0`, as an empty graph does.
pub fn sampled_clustering_csr(csr: &Csr, samples: usize, seed: u64) -> f64 {
    let n = csr.node_count();
    if n == 0 {
        return 0.0;
    }
    if samples >= n {
        return clustering_coefficient_csr(csr);
    }
    let mut ids: Vec<NodeId> = csr.node_ids().collect(); // lint:allow(H2): sampling needs an owned, shuffleable id list; one allocation per kernel call
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    ids.truncate(samples);
    let locals = magellan_par::par_map_collect_grained(ids.len(), CLUSTERING_GRAIN, |k| {
        local_from_csr(csr, ids[k])
    });
    locals.iter().sum::<f64>() / samples.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> Csr {
        let edges: Vec<_> = edges
            .iter()
            .map(|&(a, b)| (NodeId::from_index(a), NodeId::from_index(b), 1))
            .collect();
        Csr::from_edges(n, &edges)
    }

    /// 0 - 1 - 2 (undirected path via directed edges).
    const PATH3: &[(usize, usize)] = &[(0, 1), (1, 2)];
    const TRIANGLE: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 0)];
    /// Triangle 0-1-2 plus pendant 3 attached to 0.
    const PAW: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 0), (0, 3)];

    /// K4 built from one direction per pair.
    fn k4() -> Csr {
        let pairs: Vec<_> = (0..4)
            .flat_map(|i| ((i + 1)..4).map(move |j| (i, j)))
            .collect();
        graph(4, &pairs)
    }

    #[test]
    fn triangle_is_fully_clustered() {
        let g = graph(3, TRIANGLE);
        assert!((clustering_coefficient_csr(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_zero_clustering() {
        assert_eq!(clustering_coefficient_csr(&graph(3, PATH3)), 0.0);
    }

    #[test]
    fn complete_graph_is_fully_clustered() {
        assert!((clustering_coefficient_csr(&k4()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_values_on_paw_graph() {
        let g = graph(4, PAW);
        let id = NodeId::from_index;
        // Node 0 has neighbors {1, 2, 3}; one of the 3 possible edges
        // among them exists.
        assert!((local_clustering_csr(&g, id(0)) - 1.0 / 3.0).abs() < 1e-12);
        // Node 1 has neighbors {0, 2}; the edge 0-2 exists.
        assert!((local_clustering_csr(&g, id(1)) - 1.0).abs() < 1e-12);
        // Pendant has one neighbor: zero by convention.
        assert_eq!(local_clustering_csr(&g, id(3)), 0.0);
        // Graph coefficient = (1/3 + 1 + 1 + 0) / 4.
        let expect = (1.0 / 3.0 + 1.0 + 1.0) / 4.0;
        assert!((clustering_coefficient_csr(&g) - expect).abs() < 1e-12);
    }

    #[test]
    fn reciprocal_edges_do_not_double_count() {
        // Triangle with every edge bidirectional must still give C = 1.
        let g = graph(3, &[(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]);
        assert!((clustering_coefficient_csr(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = graph(0, &[]);
        assert_eq!(clustering_coefficient_csr(&g), 0.0);
        assert_eq!(sampled_clustering_csr(&g, 10, 1), 0.0);
    }

    #[test]
    fn zero_samples_estimate_zero_not_nan() {
        // An empty sample must not divide by zero: NaN would poison
        // `c_ratio` and the small-world verdict.
        for g in [k4(), graph(4, PAW)] {
            assert_eq!(sampled_clustering_csr(&g, 0, 3), 0.0);
        }
    }

    #[test]
    fn sampling_full_population_equals_exact() {
        let g = k4();
        let exact = clustering_coefficient_csr(&g);
        assert!((sampled_clustering_csr(&g, 100, 7) - exact).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let g = k4();
        let a = sampled_clustering_csr(&g, 2, 42);
        let b = sampled_clustering_csr(&g, 2, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_and_sequential_runs_are_bit_identical() {
        // A graph big enough to cross the par cutoff.
        let csr = crate::random::watts_strogatz(300, 6, 0.2, 11);
        magellan_par::set_threads(1);
        let seq = clustering_coefficient_csr(&csr);
        let seq_s = sampled_clustering_csr(&csr, 128, 5);
        magellan_par::set_threads(8);
        let par = clustering_coefficient_csr(&csr);
        let par_s = sampled_clustering_csr(&csr, 128, 5);
        magellan_par::set_threads(0);
        assert_eq!(seq.to_bits(), par.to_bits());
        assert_eq!(seq_s.to_bits(), par_s.to_bits());
    }
}
