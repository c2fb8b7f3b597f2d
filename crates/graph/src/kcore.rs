//! k-core decomposition.
//!
//! Another standard instrument of the overlay-characterization
//! literature (the Gnutella and AS-topology work the paper engages
//! with): the k-core is the maximal subgraph in which every node has
//! at least `k` neighbors, and a node's *core number* is the largest
//! `k` whose core contains it. Streaming meshes built around a
//! capacity backbone show a deep, densely-populated core; trees and
//! stars shed almost everything at k = 2.
//!
//! Computed on the undirected projection with the linear-time
//! peeling algorithm (Batagelj–Zaveršnik), streaming over a flat
//! [`Csr`] view so the peel touches contiguous memory. Peeling is
//! inherently sequential (each removal changes later degrees), so this
//! kernel gains from the layout, not from threads.

use crate::csr::Csr;
use crate::NodeId;

/// Core numbers indexed by [`NodeId::index`], plus summary accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    cores: Vec<u32>,
}

impl CoreDecomposition {
    /// The core number of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the decomposed graph.
    pub fn core_of(&self, id: NodeId) -> u32 {
        self.cores[id.index()]
    }

    /// All core numbers, indexed by node index.
    pub fn cores(&self) -> &[u32] {
        &self.cores
    }

    /// The maximum core number (graph degeneracy), 0 for an empty
    /// graph.
    pub fn degeneracy(&self) -> u32 {
        self.cores.iter().copied().max().unwrap_or(0)
    }

    /// Number of nodes with core number at least `k`.
    pub fn core_size(&self, k: u32) -> usize {
        self.cores.iter().filter(|&&c| c >= k).count()
    }
}

/// Computes the k-core decomposition of the undirected projection.
pub fn core_decomposition_csr(csr: &Csr) -> CoreDecomposition {
    let n = csr.node_count();
    let mut degree: Vec<usize> = (0..n)
        .map(|i| csr.und_degree(NodeId::from_index(i)))
        .collect(); // lint:allow(H2): Batagelj-Zaversnik working array, allocated once per decomposition
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Bucket sort nodes by degree (Batagelj–Zaveršnik).
    let mut bins: Vec<usize> = vec![0; max_deg + 1];
    for &d in &degree {
        bins[d] += 1;
    }
    let mut start = 0;
    for b in bins.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut order: Vec<usize> = vec![0; n]; // nodes sorted by degree
    let mut pos: Vec<usize> = vec![0; n]; // position of node in `order`
    {
        let mut next = bins.clone(); // lint:allow(H2): second bucket-cursor array, allocated once per decomposition
        for v in 0..n {
            let d = degree[v];
            order[next[d]] = v;
            pos[v] = next[d];
            next[d] += 1;
        }
    }
    let mut cores = vec![0u32; n];
    for i in 0..n {
        let v = order[i];
        cores[v] = degree[v] as u32;
        for &u in csr.und(NodeId::from_index(v)) {
            let u = u.index();
            if degree[u] > degree[v] {
                // Move u one bucket down: swap it with the first
                // element of its current bucket.
                let du = degree[u];
                let pu = pos[u];
                let pw = bins[du];
                let w = order[pw];
                if u != w {
                    order.swap(pu, pw);
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bins[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    CoreDecomposition { cores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{barabasi_albert, watts_strogatz};

    fn graph(n: usize, edges: &[(usize, usize)]) -> Csr {
        let edges: Vec<_> = edges
            .iter()
            .map(|&(a, b)| (NodeId::from_index(a), NodeId::from_index(b), 1))
            .collect();
        Csr::from_edges(n, &edges)
    }

    #[test]
    fn empty_graph() {
        let g = graph(0, &[]);
        let d = core_decomposition_csr(&g);
        assert_eq!(d.degeneracy(), 0);
        assert_eq!(d.core_size(1), 0);
    }

    #[test]
    fn path_is_one_core() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = core_decomposition_csr(&g);
        assert!(d.cores().iter().all(|&c| c == 1));
        assert_eq!(d.degeneracy(), 1);
    }

    #[test]
    fn triangle_with_pendant() {
        // Triangle 0-1-2, pendant 3 on 0: triangle is 2-core, pendant 1-core.
        let g = graph(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let d = core_decomposition_csr(&g);
        assert_eq!(d.core_of(NodeId::from_index(0)), 2);
        assert_eq!(d.core_of(NodeId::from_index(1)), 2);
        assert_eq!(d.core_of(NodeId::from_index(2)), 2);
        assert_eq!(d.core_of(NodeId::from_index(3)), 1);
        assert_eq!(d.core_size(2), 3);
        assert_eq!(d.core_size(1), 4);
    }

    #[test]
    fn complete_graph_core_is_n_minus_one() {
        let pairs: Vec<_> = (0..6)
            .flat_map(|i| ((i + 1)..6).map(move |j| (i, j)))
            .collect();
        let g = graph(6, &pairs);
        let d = core_decomposition_csr(&g);
        assert!(d.cores().iter().all(|&c| c == 5));
    }

    #[test]
    fn star_sheds_to_one_core() {
        let spokes: Vec<_> = (1..=20).map(|k| (0, k)).collect();
        let g = graph(21, &spokes);
        let hub = NodeId::from_index(0);
        let d = core_decomposition_csr(&g);
        assert_eq!(d.degeneracy(), 1);
        assert_eq!(d.core_of(hub), 1);
    }

    #[test]
    fn reciprocal_edges_do_not_inflate_cores() {
        // A bidirectional path still has undirected degree ≤ 2.
        let g = graph(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let d = core_decomposition_csr(&g);
        assert_eq!(d.degeneracy(), 1);
    }

    #[test]
    fn ws_lattice_core_equals_half_k() {
        // Ring lattice with k = 6: every node sits in the 3-core... in
        // fact the k-core of a k-regular ring is k/2-ish; peeling a
        // 6-regular ring removes nothing until degree 6, so the core
        // number is bounded by the degree. Verify the decomposition is
        // uniform and positive, and matches the known degeneracy of a
        // ring lattice (k/2 after peeling the ends never applies on a
        // cycle: all nodes stay at 6 -> core 6? No: peeling at k=4
        // removes nothing either. The ring lattice is 6-regular and
        // 4-connected; its degeneracy is 4 for k=6? Assert the
        // invariant that matters: uniform cores on a vertex-transitive
        // graph.
        let g = watts_strogatz(40, 6, 0.0, 1);
        let d = core_decomposition_csr(&g);
        let first = d.cores()[0];
        assert!(d.cores().iter().all(|&c| c == first), "non-uniform cores");
        assert!(first >= 3, "ring-lattice core {first} too shallow");
    }

    #[test]
    fn ba_core_structure_is_deep() {
        let g = barabasi_albert(500, 3, 5);
        let d = core_decomposition_csr(&g);
        // Preferential attachment with m = 3 yields degeneracy exactly 3
        // (each new node arrives with 3 edges).
        assert_eq!(d.degeneracy(), 3);
        assert!(d.core_size(3) > 400, "core too small: {}", d.core_size(3));
    }

    #[test]
    fn core_monotone_in_k() {
        let g = barabasi_albert(200, 2, 9);
        let d = core_decomposition_csr(&g);
        for k in 0..d.degeneracy() {
            assert!(d.core_size(k) >= d.core_size(k + 1));
        }
    }
}
