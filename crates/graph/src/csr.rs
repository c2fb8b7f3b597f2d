//! Compressed-sparse-row snapshot view of a directed graph.
//!
//! The Magellan study loop recomputes clustering, sampled path
//! lengths, k-core, and reciprocity on every snapshot of the study
//! window. Those kernels are traversal-bound, and the `DiGraph`'s
//! `Vec<Vec<…>>` adjacency pays one pointer chase plus one potential
//! cache miss per row. [`Csr`] is the flat alternative: built once per
//! snapshot (`O(n + m)`), it packs the out-, in-, and
//! undirected-projection adjacency into contiguous `offsets`/`targets`
//! arrays that BFS, triangle counting, peeling, and reciprocity merges
//! can stream through linearly. It is also `Send + Sync` with no
//! generic key parameter, so the fork-join kernels in `magellan-par`
//! can share one snapshot across worker threads.
//!
//! Two constructors fill it: [`Csr::from_digraph`] flattens a keyed
//! [`DiGraph`], and [`Csr::from_edges`] buckets a plain edge list
//! straight into rows, for callers that number their own nodes and
//! never need the keyed graph. The view is immutable by construction —
//! build a new one per snapshot.

use crate::{DiGraph, NodeId};
use std::hash::Hash;

/// Flat adjacency arrays for one graph snapshot.
///
/// Row `u` of each projection lives at `targets[offsets[u] ..
/// offsets[u + 1]]`; every row is sorted ascending, matching the
/// `DiGraph` invariant it was built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    n: usize,
    edge_count: usize,
    out_off: Vec<usize>,
    out_tgt: Vec<NodeId>,
    out_w: Vec<u64>,
    in_off: Vec<usize>,
    in_tgt: Vec<NodeId>,
    und_off: Vec<usize>,
    und_tgt: Vec<NodeId>,
}

/// The half-open row range `off[i]..off[i + 1]` of one CSR offset
/// array. The single place index arithmetic happens in the hot
/// accessors, so the overflow reasoning lives on one line.
fn row(off: &[usize], i: usize) -> std::ops::Range<usize> {
    // lint:allow(C4): off.len() == n + 1 with n ≤ u32::MAX (u32-backed NodeId), so i + 1 ≤ n never overflows usize
    off[i]..off[i + 1]
}

/// A stable counting sort of the pairs `items()` yields, by key, into
/// `n` buckets: bucket `k` is `sorted[off[k]..off[k + 1]]`, its values
/// in input order. Every key must be below `n`; `fill` only
/// initializes the output.
fn bucket_by<T: Copy, I: DoubleEndedIterator<Item = (NodeId, T)>>(
    n: usize,
    items: impl Fn() -> I,
    fill: T,
) -> (Vec<usize>, Vec<T>) {
    let mut off = vec![0usize; n + 1];
    for (k, _) in items() {
        off[k.index()] += 1;
    }
    // Inclusive prefix sums: `off[k]` is where bucket `k` ends. Filling
    // each bucket back to front from the last item moves `off[k]` to
    // where it starts and keeps the input order within it.
    let mut total = 0;
    for slot in &mut off {
        total += *slot;
        *slot = total;
    }
    let mut sorted = vec![fill; total];
    for (k, value) in items().rev() {
        off[k.index()] -= 1;
        sorted[off[k.index()]] = value;
    }
    (off, sorted)
}

/// Appends the undirected row of one node: the linear merge of its
/// sorted out- and in-rows, a bilateral partner once.
fn merge_und(out: &[NodeId], inn: &[NodeId], und: &mut Vec<NodeId>) {
    let (mut i, mut j) = (0, 0);
    while i < out.len() && j < inn.len() {
        let (x, y) = (out[i], inn[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                und.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                und.push(y);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                und.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    und.extend_from_slice(&out[i..]);
    und.extend_from_slice(&inn[j..]);
}

/// Directed edge density of `m` edges over `n` nodes (0.0 below two
/// nodes).
pub(crate) fn density(n: usize, m: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    m as f64 / (n as f64 * (n as f64 - 1.0))
}

impl Csr {
    /// Builds the flat view of `g` in one `O(n + m)` pass.
    pub fn from_digraph<N: Eq + Hash + Clone>(g: &DiGraph<N>) -> Csr {
        let n = g.node_count();
        let m = g.edge_count();
        let mut out_off = Vec::with_capacity(n + 1);
        let mut out_tgt = Vec::with_capacity(m);
        let mut out_w = Vec::with_capacity(m);
        let mut in_off = Vec::with_capacity(n + 1);
        let mut in_tgt = Vec::with_capacity(m);
        let mut und_off = Vec::with_capacity(n + 1);
        let mut und_tgt = Vec::with_capacity(m); // lower bound; grows on one-way-heavy graphs
        out_off.push(0);
        in_off.push(0);
        und_off.push(0);
        for u in g.node_ids() {
            let out_row = g.out_row(u);
            let in_row = g.in_row(u);
            let start = out_tgt.len();
            out_tgt.extend(out_row.iter().map(|&(t, _)| t));
            out_w.extend(out_row.iter().map(|&(_, w)| w));
            in_tgt.extend_from_slice(in_row);
            merge_und(&out_tgt[start..], in_row, &mut und_tgt);
            out_off.push(out_tgt.len());
            in_off.push(in_tgt.len());
            und_off.push(und_tgt.len());
        }
        Csr {
            n,
            edge_count: m,
            out_off,
            out_tgt,
            out_w,
            in_off,
            in_tgt,
            und_off,
            und_tgt,
        }
    }

    /// Builds the view of the graph on nodes `0..n` whose edges are
    /// `edges`, in `O(n + m)` with no comparison sort: equal to
    /// [`Csr::from_digraph`] of a [`DiGraph`] with `n` nodes given the
    /// same [`DiGraph::add_edge`] calls, in any order. A repeated
    /// `(from, to)` pair is one edge whose weight is the saturating sum
    /// of the repeats. Self-loops are dropped — the keyed graph rejects
    /// them, and none of the metrics is defined on them.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not below `n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, u64)]) -> Csr {
        for &(u, v, _) in edges {
            assert!(
                u.index() < n && v.index() < n,
                "edge {u} -> {v} out of range for {n} nodes"
            );
        }
        // Two stable counting sorts — by target, then by source over
        // the targets in ascending order — leave every source row
        // sorted with its repeats adjacent.
        let fill = (NodeId(0), 0u64);
        let (by_to_off, by_to) = bucket_by(
            n,
            || {
                edges
                    .iter()
                    .filter(|&&(u, v, _)| u != v)
                    .map(|&(u, v, w)| (v, (u, w)))
            },
            fill,
        );
        let (by_from_off, by_from) = bucket_by(
            n,
            || {
                (0..n).flat_map(|v| {
                    let v_id = NodeId::from_index(v);
                    by_to[row(&by_to_off, v)]
                        .iter()
                        .map(move |&(u, w)| (u, (v_id, w)))
                })
            },
            fill,
        );
        // Out rows: fold each run of repeats into one weighted edge.
        let mut out_off = Vec::with_capacity(n + 1);
        let mut out_tgt: Vec<NodeId> = Vec::with_capacity(by_from.len());
        let mut out_w: Vec<u64> = Vec::with_capacity(by_from.len());
        out_off.push(0);
        for u in 0..n {
            let first = out_tgt.len();
            for &(v, w) in &by_from[row(&by_from_off, u)] {
                match out_w.last_mut() {
                    Some(sum) if out_tgt.len() > first && out_tgt.last() == Some(&v) => {
                        *sum = sum.saturating_add(w);
                    }
                    _ => {
                        out_tgt.push(v);
                        out_w.push(w);
                    }
                }
            }
            out_off.push(out_tgt.len());
        }
        // In rows: walking the sources in ascending order fills every
        // target's bucket sorted.
        let (in_off, in_tgt) = bucket_by(
            n,
            || {
                (0..n).flat_map(|u| {
                    let u_id = NodeId::from_index(u);
                    out_tgt[row(&out_off, u)].iter().map(move |&v| (v, u_id))
                })
            },
            NodeId(0),
        );
        let mut und_off = Vec::with_capacity(n + 1);
        let mut und_tgt = Vec::with_capacity(out_tgt.len());
        und_off.push(0);
        for u in 0..n {
            merge_und(
                &out_tgt[row(&out_off, u)],
                &in_tgt[row(&in_off, u)],
                &mut und_tgt,
            );
            und_off.push(und_tgt.len());
        }
        Csr {
            n,
            edge_count: out_tgt.len(),
            out_off,
            out_tgt,
            out_w,
            in_off,
            in_tgt,
            und_off,
            und_tgt,
        }
    }

    /// The subgraph induced by the nodes `keep` accepts, as a flat
    /// view of its own: kept nodes are renumbered densely in ascending
    /// id order and every edge with both endpoints kept survives with
    /// its weight — what [`Csr::from_edges`] of the kept nodes and
    /// their surviving edges yields, without the intermediate edge
    /// list. `O(n + m)`; renumbering is monotone, so rows stay sorted.
    pub fn induced(&self, mut keep: impl FnMut(NodeId) -> bool) -> Csr {
        let mut new_id: Vec<Option<NodeId>> = Vec::with_capacity(self.n);
        let mut kept = 0usize;
        for u in self.node_ids() {
            new_id.push(keep(u).then(|| {
                kept += 1;
                NodeId::from_index(kept - 1)
            }));
        }
        let renumber = |row: &[NodeId], into: &mut Vec<NodeId>| {
            into.extend(row.iter().filter_map(|v| new_id[v.index()]));
        };
        let mut sub = Csr {
            n: kept,
            edge_count: 0,
            out_off: Vec::with_capacity(kept + 1),
            out_tgt: Vec::new(),
            out_w: Vec::new(),
            in_off: Vec::with_capacity(kept + 1),
            in_tgt: Vec::new(),
            und_off: Vec::with_capacity(kept + 1),
            und_tgt: Vec::new(),
        };
        sub.out_off.push(0);
        sub.in_off.push(0);
        sub.und_off.push(0);
        for u in self.node_ids() {
            if new_id[u.index()].is_none() {
                continue;
            }
            for (&v, &w) in self.out(u).iter().zip(self.out_weights(u)) {
                if let Some(v) = new_id[v.index()] {
                    sub.out_tgt.push(v);
                    sub.out_w.push(w);
                }
            }
            renumber(self.inn(u), &mut sub.in_tgt);
            renumber(self.und(u), &mut sub.und_tgt);
            sub.out_off.push(sub.out_tgt.len());
            sub.in_off.push(sub.in_tgt.len());
            sub.und_off.push(sub.und_tgt.len());
        }
        sub.edge_count = sub.out_tgt.len();
        sub
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the snapshot has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sorted out-neighbors of `u`.
    pub fn out(&self, u: NodeId) -> &[NodeId] {
        &self.out_tgt[row(&self.out_off, u.index())]
    }

    /// Weights aligned with [`Csr::out`].
    pub fn out_weights(&self, u: NodeId) -> &[u64] {
        &self.out_w[row(&self.out_off, u.index())]
    }

    /// Sorted in-neighbors of `u`.
    pub fn inn(&self, u: NodeId) -> &[NodeId] {
        &self.in_tgt[row(&self.in_off, u.index())]
    }

    /// Sorted, deduplicated neighbors of `u` in the undirected
    /// projection.
    pub fn und(&self, u: NodeId) -> &[NodeId] {
        &self.und_tgt[row(&self.und_off, u.index())]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        row(&self.out_off, u.index()).len()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: NodeId) -> usize {
        row(&self.in_off, u.index()).len()
    }

    /// Degree of `u` in the undirected projection.
    pub fn und_degree(&self, u: NodeId) -> usize {
        row(&self.und_off, u.index()).len()
    }

    /// Number of edges in the undirected projection (each bilateral
    /// pair collapsed to one link). Total undirected row length counts
    /// every link twice.
    pub fn und_edge_count(&self) -> usize {
        self.und_tgt.len() / 2
    }

    /// Directed edge density `ā = M / (N (N − 1))`; 0.0 below two
    /// nodes.
    pub fn density(&self) -> f64 {
        density(self.n, self.edge_count)
    }

    /// Whether the directed edge `from -> to` exists (`O(log d)`).
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.out(from).binary_search(&to).is_ok()
    }

    /// Weight of `from -> to`, when present (`O(log d)`).
    pub fn edge_weight(&self, from: NodeId, to: NodeId) -> Option<u64> {
        self.out(from)
            .binary_search(&to)
            .ok()
            .map(|pos| self.out_weights(from)[pos])
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        // lint:allow(C3): DiGraph::intern guarantees node count fits in u32
        (0..self.n as u32).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DiGraph<u32> {
        // 0 <-> 1, 0 -> 2, 3 -> 0, 2 -> 3 (weights distinguishable).
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = (0..4u32).map(|k| g.intern(k)).collect();
        g.add_edge(ids[0], ids[1], 5);
        g.add_edge(ids[1], ids[0], 7);
        g.add_edge(ids[0], ids[2], 1);
        g.add_edge(ids[3], ids[0], 2);
        g.add_edge(ids[2], ids[3], 9);
        g
    }

    #[test]
    fn mirrors_digraph_adjacency_exactly() {
        let g = sample();
        let c = Csr::from_digraph(&g);
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        for u in g.node_ids() {
            let out: Vec<NodeId> = g.out_neighbors(u).collect();
            assert_eq!(c.out(u), &out[..], "out row of {u}");
            let inn: Vec<NodeId> = g.in_neighbors(u).collect();
            assert_eq!(c.inn(u), &inn[..], "in row of {u}");
            assert_eq!(c.und(u), &g.undirected_neighbors(u)[..], "und row of {u}");
            assert_eq!(c.out_degree(u), g.out_degree(u));
            assert_eq!(c.in_degree(u), g.in_degree(u));
            assert_eq!(c.und_degree(u), g.undirected_degree(u));
            let weights: Vec<u64> = g.out_edges(u).map(|(_, w)| w).collect();
            assert_eq!(c.out_weights(u), &weights[..]);
        }
    }

    #[test]
    fn edge_queries_match() {
        let g = sample();
        let c = Csr::from_digraph(&g);
        for u in g.node_ids() {
            for v in g.node_ids() {
                if u == v {
                    continue;
                }
                assert_eq!(c.has_edge(u, v), g.has_edge(u, v));
                assert_eq!(c.edge_weight(u, v), g.edge_weight(u, v));
            }
        }
    }

    #[test]
    fn undirected_edge_count_collapses_bilateral() {
        let g = sample();
        let c = Csr::from_digraph(&g);
        assert_eq!(c.und_edge_count(), g.undirected_edge_count());
        assert!((c.density() - g.density()).abs() < 1e-15);
    }

    #[test]
    fn empty_graph_yields_empty_view() {
        let g: DiGraph<u32> = DiGraph::new();
        let c = Csr::from_digraph(&g);
        assert!(c.is_empty());
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.edge_count(), 0);
        assert_eq!(c.und_edge_count(), 0);
        assert_eq!(c.density(), 0.0);
    }

    #[test]
    fn induced_view_matches_the_edge_list_route() {
        let g = sample();
        let c = Csr::from_digraph(&g);
        for mask in 0u32..16 {
            let keep = |id: NodeId| mask & (1 << id.index()) != 0;
            // Reference: renumber the kept nodes densely in id order
            // and rebuild from the surviving edges.
            let mut new_id = vec![None; c.node_count()];
            let mut kept = 0;
            for u in c.node_ids().filter(|&u| keep(u)) {
                new_id[u.index()] = Some(NodeId::from_index(kept));
                kept += 1;
            }
            let edges: Vec<_> = g
                .edges()
                .filter_map(|e| Some((new_id[e.from.index()]?, new_id[e.to.index()]?, e.weight)))
                .collect();
            assert_eq!(
                c.induced(keep),
                Csr::from_edges(kept, &edges),
                "mask {mask:04b}"
            );
        }
    }

    #[test]
    fn edge_list_sums_repeats_and_drops_self_loops() {
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
        let c = Csr::from_edges(
            3,
            &[(a, b, 2), (b, b, 7), (a, b, u64::MAX), (b, a, 1), (a, a, 1)],
        );
        assert_eq!(c.edge_count(), 2);
        assert_eq!(c.edge_weight(a, b), Some(u64::MAX));
        assert_eq!(c.edge_weight(b, a), Some(1));
        assert!(!c.has_edge(a, a) && !c.has_edge(b, b));
        assert!(c.out(NodeId::from_index(2)).is_empty(), "isolated node");
        assert!(Csr::from_edges(0, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_list_rejects_an_endpoint_past_n() {
        let _ = Csr::from_edges(1, &[(NodeId::from_index(0), NodeId::from_index(1), 1)]);
    }

    #[test]
    fn isolated_nodes_have_empty_rows() {
        let mut g: DiGraph<u32> = DiGraph::new();
        let a = g.intern(0);
        let b = g.intern(1);
        g.intern(2); // isolated
        g.add_edge(a, b, 1);
        let c = Csr::from_digraph(&g);
        let iso = NodeId::from_index(2);
        assert!(c.out(iso).is_empty());
        assert!(c.inn(iso).is_empty());
        assert!(c.und(iso).is_empty());
    }
}
