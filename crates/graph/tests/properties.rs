//! Property-based tests for the graph substrate: structural
//! invariants that must hold for *any* graph, not just hand-picked
//! fixtures.

use magellan_graph::clustering::{clustering_coefficient_csr, local_clustering_csr};
use magellan_graph::degree::{degree_sequence, DegreeKind};
use magellan_graph::paths::{bfs_distances_csr, PathTreatment, UNREACHABLE};
use magellan_graph::reciprocity::{
    garlaschelli_reciprocity_csr, label_split_link_counts_csr, simple_reciprocity_checked_csr,
};
use magellan_graph::{Csr, DegreeHistogram, DiGraph, EdgeRef, NodeId};
use proptest::prelude::*;
use std::hash::Hash;

/// Keyed reference for [`Csr::induced`]: the nodes matching `pred`
/// (with their keys) and every edge whose endpoints both match.
fn induced_by_nodes<N, F>(g: &DiGraph<N>, mut pred: F) -> DiGraph<N>
where
    N: Eq + Hash + Clone,
    F: FnMut(NodeId, &N) -> bool,
{
    let keep: Vec<bool> = g.nodes().map(|(id, key)| pred(id, key)).collect();
    let mut sub = DiGraph::new();
    for (id, key) in g.nodes() {
        if keep[id.index()] {
            sub.intern(key.clone());
        }
    }
    for e in g.edges() {
        if keep[e.from.index()] && keep[e.to.index()] {
            sub.add_edge_by_key(g.key(e.from).clone(), g.key(e.to).clone(), e.weight);
        }
    }
    sub
}

/// Keyed reference for [`label_split_link_counts_csr`]: the edges
/// matching `pred` plus the nodes they touch (the paper's construction
/// of the intra-/inter-ISP link topologies in Fig. 8B).
fn filtered_by_edges<N, F>(g: &DiGraph<N>, mut pred: F) -> DiGraph<N>
where
    N: Eq + Hash + Clone,
    F: FnMut(EdgeRef) -> bool,
{
    let mut sub = DiGraph::new();
    for e in g.edges().filter(|&e| pred(e)) {
        sub.add_edge_by_key(g.key(e.from).clone(), g.key(e.to).clone(), e.weight);
    }
    sub
}

/// Strategy: a directed graph on up to 12 nodes from an arbitrary edge
/// list (self-loops filtered out by construction).
fn arb_graph() -> impl Strategy<Value = DiGraph<u8>> {
    proptest::collection::vec((0u8..12, 0u8..12, 1u64..100), 0..120).prop_map(|edges| {
        let mut g = DiGraph::new();
        for (a, b, w) in edges {
            if a != b {
                g.add_edge_by_key(a, b, w);
            }
        }
        g
    })
}

/// Strategy: a node count in `0..12` and an unsorted edge list over
/// it with repeats, self-loops, and weights that are either small or
/// close enough to `u64::MAX` that two repeats saturate.
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId, u64)>)> {
    (
        0usize..12,
        proptest::collection::vec((0usize..12, 0usize..12, any::<bool>(), 0u64..100), 0..80),
    )
        .prop_map(|(n, raw)| {
            let edges = raw
                .into_iter()
                .filter(|_| n > 0)
                .map(|(u, v, near_max, w)| {
                    let w = if near_max { u64::MAX - w } else { w };
                    (NodeId::from_index(u % n), NodeId::from_index(v % n), w)
                })
                .collect();
            (n, edges)
        })
}

proptest! {
    #[test]
    fn csr_from_edges_matches_digraph_with_the_same_add_edge_calls(
        (n, edges) in arb_edge_list()
    ) {
        // Reference: a keyed graph on nodes 0..n (isolated ones
        // included) fed the same edges in the same order; self-loops,
        // which `add_edge` rejects, are the ones `from_edges` drops.
        let mut g: DiGraph<usize> = DiGraph::with_capacity(n);
        for k in 0..n {
            g.intern(k);
        }
        for &(u, v, w) in &edges {
            if u != v {
                g.add_edge(u, v, w);
            }
        }
        let flat = Csr::from_edges(n, &edges);
        prop_assert_eq!(&flat, &Csr::from_digraph(&g));
        // Input order is irrelevant.
        let mut reversed = edges.clone();
        reversed.reverse();
        prop_assert_eq!(&Csr::from_edges(n, &reversed), &flat);
    }

    #[test]
    fn degree_sums_equal_edge_count(g in arb_graph()) {
        let csr = Csr::from_digraph(&g);
        let out_sum: usize = degree_sequence(&csr, DegreeKind::Out).into_iter().sum();
        let in_sum: usize = degree_sequence(&csr, DegreeKind::In).into_iter().sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    #[test]
    fn undirected_degree_matches_neighbor_list(g in arb_graph()) {
        for id in g.node_ids() {
            prop_assert_eq!(g.undirected_degree(id), g.undirected_neighbors(id).len());
        }
    }

    #[test]
    fn undirected_neighbors_are_symmetric(g in arb_graph()) {
        for id in g.node_ids() {
            for v in g.undirected_neighbors(id) {
                prop_assert!(g.undirected_neighbors(v).contains(&id));
            }
        }
    }

    #[test]
    fn undirected_edge_count_bounds(g in arb_graph()) {
        let und = g.undirected_edge_count();
        prop_assert!(und <= g.edge_count());
        prop_assert!(und * 2 >= g.edge_count());
    }

    #[test]
    fn simple_reciprocity_in_unit_interval(g in arb_graph()) {
        let r = simple_reciprocity_checked_csr(&Csr::from_digraph(&g)).unwrap_or(0.0);
        prop_assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn rho_in_closed_interval(g in arb_graph()) {
        if let Ok(rho) = garlaschelli_reciprocity_csr(&Csr::from_digraph(&g)) {
            prop_assert!(rho <= 1.0 + 1e-12, "rho = {rho}");
            // Lower bound: rho >= -a/(1-a) >= -1 only when a <= 1/2;
            // in general rho >= -a/(1-a), so just check it is finite.
            prop_assert!(rho.is_finite());
        }
    }

    #[test]
    fn symmetrized_graph_is_fully_reciprocal(g in arb_graph()) {
        let mut s = g.clone();
        let edges: Vec<_> = g.edges().collect();
        for e in &edges {
            s.add_edge(e.to, e.from, e.weight);
        }
        if s.edge_count() > 0 {
            let r = simple_reciprocity_checked_csr(&Csr::from_digraph(&s)).unwrap_or(0.0);
            prop_assert!((r - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clustering_in_unit_interval(g in arb_graph()) {
        let csr = Csr::from_digraph(&g);
        let c = clustering_coefficient_csr(&csr);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
        for id in g.node_ids() {
            let ci = local_clustering_csr(&csr, id);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ci));
        }
    }

    #[test]
    fn induced_subgraph_is_contained(g in arb_graph(), keep_mask in proptest::collection::vec(any::<bool>(), 12)) {
        let sub = induced_by_nodes(&g, |_, key| keep_mask.get(*key as usize).copied().unwrap_or(false));
        prop_assert!(sub.node_count() <= g.node_count());
        prop_assert!(sub.edge_count() <= g.edge_count());
        for e in sub.edges() {
            let from_key = sub.key(e.from);
            let to_key = sub.key(e.to);
            let gf = g.node_id(from_key).expect("node exists in parent");
            let gt = g.node_id(to_key).expect("node exists in parent");
            prop_assert_eq!(g.edge_weight(gf, gt), Some(e.weight));
        }
        // The flat route to the same subgraph skips the keyed graph.
        let flat = Csr::from_digraph(&g).induced(|id| keep_mask[*g.key(id) as usize]);
        prop_assert_eq!(flat, Csr::from_digraph(&sub));
    }

    #[test]
    fn label_split_sweep_matches_edge_filtered_subgraphs(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..16),
        label_of in proptest::collection::vec(0u8..3, 6),
    ) {
        // Small, few-labelled graphs on purpose: edgeless classes
        // (`EmptyGraph`) and two-node bilateral classes
        // (`CompleteGraph`) turn up in a large share of the cases.
        let mut g: DiGraph<u8> = DiGraph::new();
        for (a, b) in edges {
            if a != b {
                g.add_edge_by_key(a, b, 1);
            }
        }
        let labels: Vec<u8> = g.nodes().map(|(_, key)| label_of[*key as usize]).collect();
        let same_label =
            |e: magellan_graph::EdgeRef| labels[e.from.index()] == labels[e.to.index()];
        let (same, cross) = label_split_link_counts_csr(&Csr::from_digraph(&g), &labels);
        let same_ref = filtered_by_edges(&g, same_label);
        let cross_ref = filtered_by_edges(&g, |e| !same_label(e));
        for (counts, reference) in [(same, &same_ref), (cross, &cross_ref)] {
            prop_assert_eq!(counts.nodes, reference.node_count());
            prop_assert_eq!(counts.edges, reference.edge_count());
            prop_assert_eq!(
                counts.garlaschelli().map(f64::to_bits),
                garlaschelli_reciprocity_csr(&Csr::from_digraph(reference)).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn bfs_neighbors_at_distance_one(g in arb_graph()) {
        let csr = Csr::from_digraph(&g);
        for id in g.node_ids().take(4) {
            let dist = bfs_distances_csr(&csr, id, PathTreatment::Directed);
            prop_assert_eq!(dist[id.index()], 0);
            for v in g.out_neighbors(id) {
                prop_assert!(dist[v.index()] == 1 || v == id);
            }
        }
    }

    #[test]
    fn bfs_undirected_is_symmetric(g in arb_graph()) {
        // d(u, v) == d(v, u) under the undirected treatment. One CSR
        // view serves every source.
        let csr = Csr::from_digraph(&g);
        let ids: Vec<_> = g.node_ids().collect();
        for &u in ids.iter().take(3) {
            let du = bfs_distances_csr(&csr, u, PathTreatment::Undirected);
            for &v in ids.iter().take(3) {
                let dv = bfs_distances_csr(&csr, v, PathTreatment::Undirected);
                prop_assert_eq!(du[v.index()], dv[u.index()]);
            }
        }
    }

    #[test]
    fn csr_view_mirrors_digraph(g in arb_graph()) {
        let csr = Csr::from_digraph(&g);
        prop_assert_eq!(csr.node_count(), g.node_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        prop_assert_eq!(csr.und_edge_count(), g.undirected_edge_count());
        for u in g.node_ids() {
            let out: Vec<_> = g.out_neighbors(u).collect();
            prop_assert_eq!(csr.out(u), &out[..]);
            let inn: Vec<_> = g.in_neighbors(u).collect();
            prop_assert_eq!(csr.inn(u), &inn[..]);
            prop_assert_eq!(csr.und(u), &g.undirected_neighbors(u)[..]);
        }
    }

    #[test]
    fn bfs_unreachable_is_marked(g in arb_graph()) {
        let csr = Csr::from_digraph(&g);
        for id in g.node_ids().take(2) {
            let dist = bfs_distances_csr(&csr, id, PathTreatment::Directed);
            for (i, &d) in dist.iter().enumerate() {
                if d != UNREACHABLE {
                    prop_assert!(d as usize <= g.node_count());
                } else {
                    prop_assert!(i != id.index());
                }
            }
        }
    }

    #[test]
    fn histogram_mass_conservation(samples in proptest::collection::vec(0usize..200, 0..300)) {
        let h: DegreeHistogram = samples.iter().copied().collect();
        prop_assert_eq!(h.total(), samples.len() as u64);
        if !samples.is_empty() {
            let mass: f64 = h.pmf().iter().map(|p| p.fraction).sum();
            prop_assert!((mass - 1.0).abs() < 1e-9);
            let mean: f64 = samples.iter().sum::<usize>() as f64 / samples.len() as f64;
            prop_assert!((h.mean() - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn histogram_quantile_is_monotone(samples in proptest::collection::vec(0usize..50, 1..100)) {
        let h: DegreeHistogram = samples.iter().copied().collect();
        let q1 = h.quantile(0.25).unwrap();
        let q2 = h.quantile(0.5).unwrap();
        let q3 = h.quantile(0.75).unwrap();
        prop_assert!(q1 <= q2 && q2 <= q3);
    }

    #[test]
    fn density_in_unit_interval(g in arb_graph()) {
        let d = g.density();
        prop_assert!((0.0..=1.0).contains(&d));
    }
}

mod structural_extensions {
    use magellan_graph::kcore::core_decomposition_csr;
    use magellan_graph::{Csr, DiGraph, NodeId};
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = DiGraph<u32>> {
        proptest::collection::vec((0u32..20, 0u32..20, 1u64..50), 0..150).prop_map(|edges| {
            let mut g = DiGraph::new();
            for (a, b, w) in edges {
                if a != b {
                    g.add_edge_by_key(a, b, w);
                }
            }
            g
        })
    }

    proptest! {
        #[test]
        fn core_number_bounded_by_degree(g in arb_graph()) {
            let d = core_decomposition_csr(&Csr::from_digraph(&g));
            for id in g.node_ids() {
                prop_assert!(d.core_of(id) as usize <= g.undirected_degree(id));
            }
            let max_deg = g.node_ids().map(|i| g.undirected_degree(i)).max().unwrap_or(0);
            prop_assert!(d.degeneracy() as usize <= max_deg);
        }

        #[test]
        fn core_sizes_are_monotone(g in arb_graph()) {
            let d = core_decomposition_csr(&Csr::from_digraph(&g));
            for k in 0..d.degeneracy() {
                prop_assert!(d.core_size(k) >= d.core_size(k + 1));
            }
            prop_assert_eq!(d.core_size(0), g.node_count());
        }

        #[test]
        fn kcore_members_have_k_neighbors_in_core(g in arb_graph()) {
            // Defining property of the k-core at k = degeneracy.
            let d = core_decomposition_csr(&Csr::from_digraph(&g));
            let k = d.degeneracy();
            if k == 0 { return Ok(()); }
            let members: Vec<NodeId> = g
                .node_ids()
                .filter(|&id| d.core_of(id) >= k)
                .collect();
            for &v in &members {
                let inside = g
                    .undirected_neighbors(v)
                    .into_iter()
                    .filter(|u| d.core_of(*u) >= k)
                    .count();
                prop_assert!(
                    inside >= k as usize,
                    "node {v} has {inside} in-core neighbors < k = {k}"
                );
            }
        }
    }
}
