//! Incremental snapshot metrics: temporal coherence for the study loop.
//!
//! The study recomputes clustering, reciprocity, and degree structure
//! at every report boundary, but successive boundary snapshots of a
//! live overlay differ by a small edge delta — most links persist from
//! one 10-minute snapshot to the next (only their segment-count
//! weights grow). [`IncrementalTopology`] exploits that coherence: it
//! keeps the previous snapshot's adjacency resident together with the
//! integer state every snapshot metric reduces over —
//!
//! * per-node **doubled triangle counts** (`tri2`, the `twice_links`
//!   numerator of the Watts–Strogatz local clustering coefficient),
//! * **reciprocity counters** (directed edge count, bilateral edge
//!   count, total and reciprocated edge weight), and
//! * in-/out-/undirected **degree histograms** —
//!
//! and folds a [`CsrDelta`] into them in `O(delta)` instead of
//! re-deriving them from scratch in `O(n + m)` (or `O(Σ k²)` for
//! triangles). When the delta is large relative to the snapshot —
//! channel startup, a flash crowd, mass departure — incremental
//! maintenance loses to a rebuild, so [`sync_snapshot`] falls back to
//! [`from_snapshot`] past a churn threshold. In debug and test builds
//! every incremental application is asserted state-identical to the
//! rebuild it replaced.
//!
//! # Determinism and ordering
//!
//! All maintained state is integral (counts, `u64`/`u128` sums), so
//! incremental and rebuilt paths agree *exactly*, not just within
//! float tolerance. The one floating-point reduction —
//! [`clustering_coefficient`](IncrementalTopology::clustering_coefficient)
//! — sums per-node coefficients in ascending node-key order, a
//! canonical order independent of insertion history, so the value is a
//! pure function of the current graph. Metric formulas mirror the
//! [`crate::reciprocity`] / [`crate::clustering`] kernels operation by
//! operation, so on equal integer state they produce bit-equal floats.
//!
//! # Where it is used
//!
//! Nowhere in the study loop any more. On real report-boundary
//! snapshots every persisting link is reweighted (weights are
//! cumulative counters) and the all-known topology churns past the
//! rebuild threshold, so a `Csr` build plus the from-scratch kernels
//! beat the engine severalfold (DESIGN.md §10, "Sampling a boundary").
//! The module remains for low-churn callers, with its property tests
//! and its rows in the benchmarks.
//!
//! [`sync_snapshot`]: IncrementalTopology::sync_snapshot
//! [`from_snapshot`]: IncrementalTopology::from_snapshot

use crate::histogram::DegreeHistogram;
use crate::GraphError;
use std::collections::BTreeMap;

/// Structural churn fraction above which [`IncrementalTopology::sync_snapshot`]
/// rebuilds instead of applying the delta: rebuild when more than
/// `1/REBUILD_CHURN_DIVISOR` of the target snapshot (nodes + edges)
/// changed structurally. Delta application touches sorted adjacency
/// rows and neighborhood intersections per changed edge; past roughly
/// half the graph, one linear rebuild is cheaper and exactly
/// equivalent.
pub const REBUILD_CHURN_DIVISOR: usize = 2;

/// The directed-edge difference between two successive report-boundary
/// snapshots, in a normalized form [`IncrementalTopology::apply_delta`]
/// can fold in `O(delta)`.
///
/// Invariants (produced by [`CsrDelta::diff_snapshot`], assumed by
/// `apply_delta`):
///
/// * every list is sorted ascending and free of duplicates;
/// * `added` edges are absent from the pre-state, `removed` edges
///   present, `reweighted` edges present with a different weight —
///   weight-only changes (a persisting link whose segment counter
///   grew) never masquerade as structural churn;
/// * endpoint nodes of `added` edges are pre-existing or listed in
///   `added_nodes`; `removed_nodes` lose their incident edges via
///   `removed` first.
///
/// `apply_delta` is nevertheless *tolerant*: re-adding a present edge
/// reweights it, removing an absent edge or node is a no-op, and
/// removing a node strips any incident edges left over. Tolerance
/// keeps arbitrary (property-test-generated) deltas well-defined
/// without weakening the diff invariants above.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsrDelta {
    /// Node keys present in the new snapshot but not the old.
    pub added_nodes: Vec<u32>,
    /// Node keys present in the old snapshot but not the new.
    pub removed_nodes: Vec<u32>,
    /// Directed edges `(from, to, weight)` new in this snapshot.
    pub added: Vec<(u32, u32, u64)>,
    /// Directed edges `(from, to)` gone from this snapshot.
    pub removed: Vec<(u32, u32)>,
    /// Surviving directed edges whose weight changed, with the new
    /// weight.
    pub reweighted: Vec<(u32, u32, u64)>,
}

impl CsrDelta {
    /// Structural change volume: added/removed edges and nodes.
    /// Reweights are excluded — they cost `O(log d)` each and carry no
    /// triangle/degree work.
    pub fn structural_churn(&self) -> usize {
        self.added.len() + self.removed.len() + self.added_nodes.len() + self.removed_nodes.len()
    }

    /// Whether the delta changes nothing at all.
    pub fn is_empty(&self) -> bool {
        self.structural_churn() == 0 && self.reweighted.is_empty()
    }

    /// Computes the delta from `topo`'s current state to the snapshot
    /// `(nodes, edges)`.
    ///
    /// `nodes` must be sorted ascending and deduplicated; `edges` must
    /// be sorted ascending by `(from, to)` with no duplicate pair, no
    /// self-loop, and endpoints drawn from `nodes`. (The study's
    /// snapshot extraction and the tests' normalizers guarantee this.)
    pub fn diff_snapshot(
        topo: &IncrementalTopology,
        nodes: &[u32],
        edges: &[(u32, u32, u64)],
    ) -> CsrDelta {
        let mut delta = CsrDelta::default();
        // Node set difference: one ordered merge of the two key lists.
        // lint:allow(H3): the diff pass is the temporal-coherence trade — one O(n + m) scan per boundary instead of O(Σ k²) metric recomputes
        let mut old_nodes = topo.nodes.keys().copied().peekable();
        let mut new_nodes = nodes.iter().copied().peekable(); // lint:allow(H3): other half of the same per-boundary ordered merge
        loop {
            match (old_nodes.peek(), new_nodes.peek()) {
                (Some(&o), Some(&n)) if o == n => {
                    old_nodes.next();
                    new_nodes.next();
                }
                (Some(&o), Some(&n)) if o < n => {
                    delta.removed_nodes.push(o);
                    old_nodes.next();
                }
                (Some(_), Some(&n)) => {
                    delta.added_nodes.push(n);
                    new_nodes.next();
                }
                (Some(&o), None) => {
                    delta.removed_nodes.push(o);
                    old_nodes.next();
                }
                (None, Some(&n)) => {
                    delta.added_nodes.push(n);
                    new_nodes.next();
                }
                (None, None) => break,
            }
        }
        // Edge difference: the engine's rows enumerate sorted by
        // (from, to) when walked in key order, merging against the
        // sorted new edge list.
        // lint:allow(H3): same O(n + m) boundary scan as above
        let mut old_edges = topo
            .nodes
            .iter()
            .flat_map(|(&u, st)| st.out.iter().map(move |&(v, w)| (u, v, w)))
            .peekable();
        let mut new_edges = edges.iter().copied().peekable();
        loop {
            match (old_edges.peek(), new_edges.peek()) {
                (Some(&(ou, ov, ow)), Some(&(nu, nv, nw))) if (ou, ov) == (nu, nv) => {
                    if ow != nw {
                        delta.reweighted.push((nu, nv, nw));
                    }
                    old_edges.next();
                    new_edges.next();
                }
                (Some(&(ou, ov, _)), Some(&(nu, nv, _))) if (ou, ov) < (nu, nv) => {
                    delta.removed.push((ou, ov));
                    old_edges.next();
                }
                (Some(_), Some(&(nu, nv, nw))) => {
                    delta.added.push((nu, nv, nw));
                    new_edges.next();
                }
                (Some(&(ou, ov, _)), None) => {
                    delta.removed.push((ou, ov));
                    old_edges.next();
                }
                (None, Some(&(nu, nv, nw))) => {
                    delta.added.push((nu, nv, nw));
                    new_edges.next();
                }
                (None, None) => break,
            }
        }
        delta
    }
}

/// How a [`IncrementalTopology::sync_snapshot`] call advanced the
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Structural churn of the applied delta (see
    /// [`CsrDelta::structural_churn`]).
    pub structural_churn: usize,
    /// Weight-only changes folded in.
    pub reweighted: usize,
    /// Whether the engine fell back to a full rebuild.
    pub rebuilt: bool,
}

/// Per-node resident state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NodeState {
    /// Out-neighbors with edge weight, sorted by neighbor key.
    out: Vec<(u32, u64)>,
    /// In-neighbors, sorted.
    inn: Vec<u32>,
    /// Undirected neighbors (union of out and in), sorted.
    und: Vec<u32>,
    /// Doubled triangle count: linked ordered pairs within the
    /// undirected neighborhood — the `twice_links` numerator of the
    /// local clustering coefficient.
    tri2: u64,
}

/// The incremental snapshot engine: a resident directed topology whose
/// metric state is maintained under [`CsrDelta`] application. See the
/// module docs for the design.
#[derive(Debug, Clone, Default)]
pub struct IncrementalTopology {
    /// Node key → state; `BTreeMap` so every whole-graph reduction has
    /// a canonical, history-independent order (and rule D4 stays
    /// satisfied).
    nodes: BTreeMap<u32, NodeState>,
    /// Directed edge count `M`.
    m: usize,
    /// Undirected link count (bilateral pairs collapsed).
    und_m: usize,
    /// Directed edges whose reverse exists (each bilateral pair counts
    /// 2): `Σ_{i≠j} a_ij a_ji`.
    bilateral: usize,
    /// `Σ w_ij` over all directed edges.
    total_w: u128,
    /// `Σ min(w_ij, w_ji)` over ordered bilateral pairs.
    matched_w: u128,
    /// Live degree histograms of the current snapshot.
    out_hist: DegreeHistogram,
    in_hist: DegreeHistogram,
    und_hist: DegreeHistogram,
    /// Scratch for common-neighbor sets during triangle maintenance
    /// (hoisted so delta application allocates nothing in steady
    /// state).
    scratch: Vec<u32>,
    /// Scratch for incident-edge lists during node removal.
    scratch_edges: Vec<(u32, u32)>,
}

impl PartialEq for IncrementalTopology {
    fn eq(&self, other: &Self) -> bool {
        // Scratch buffers are working memory, not state.
        self.nodes == other.nodes
            && self.m == other.m
            && self.und_m == other.und_m
            && self.bilateral == other.bilateral
            && self.total_w == other.total_w
            && self.matched_w == other.matched_w
            && self.out_hist == other.out_hist
            && self.in_hist == other.in_hist
            && self.und_hist == other.und_hist
    }
}

impl IncrementalTopology {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the engine from scratch for one snapshot — the fallback
    /// (and debug cross-check) for [`sync_snapshot`](Self::sync_snapshot).
    ///
    /// Input contract as for [`CsrDelta::diff_snapshot`].
    pub fn from_snapshot(nodes: &[u32], edges: &[(u32, u32, u64)]) -> Self {
        let mut topo = Self::new();
        // lint:allow(H3): the rebuild fallback is linear by design — it replaces delta application only when the delta itself is graph-sized
        for &k in nodes {
            topo.add_node(k);
        }
        for &(u, v, w) in edges {
            topo.add_edge(u, v, w);
        }
        topo
    }

    /// Advances the engine to the snapshot `(nodes, edges)`: diffs
    /// against the resident state, then either folds the delta in
    /// incrementally or — past the churn threshold
    /// ([`REBUILD_CHURN_DIVISOR`]) — rebuilds from scratch. Both paths
    /// leave identical state (asserted in debug builds), so the choice
    /// affects wall clock only, never metric bytes.
    ///
    /// Input contract as for [`CsrDelta::diff_snapshot`].
    pub fn sync_snapshot(&mut self, nodes: &[u32], edges: &[(u32, u32, u64)]) -> SyncReport {
        let delta = CsrDelta::diff_snapshot(self, nodes, edges);
        let churn = delta.structural_churn();
        let rebuilt = churn > (nodes.len() + edges.len()) / REBUILD_CHURN_DIVISOR;
        if rebuilt {
            *self = Self::from_snapshot(nodes, edges);
        } else {
            self.apply_delta(&delta);
            #[cfg(debug_assertions)]
            {
                let rebuilt_state = Self::from_snapshot(nodes, edges);
                assert!(
                    *self == rebuilt_state,
                    "incremental apply diverged from full rebuild",
                );
            }
        }
        SyncReport {
            structural_churn: churn,
            reweighted: delta.reweighted.len(),
            rebuilt,
        }
    }

    /// Folds one delta into the resident state in `O(delta)` (plus the
    /// adjacency-row and common-neighborhood work each changed edge
    /// touches). Tolerant of degenerate entries — see [`CsrDelta`].
    pub fn apply_delta(&mut self, delta: &CsrDelta) {
        for &k in &delta.added_nodes {
            self.add_node(k);
        }
        for &(u, v) in &delta.removed {
            self.remove_edge(u, v);
        }
        for &(u, v, w) in &delta.added {
            self.add_edge(u, v, w);
        }
        for &(u, v, w) in &delta.reweighted {
            self.add_edge(u, v, w);
        }
        for &k in &delta.removed_nodes {
            self.remove_node(k);
        }
    }

    /// Nodes in the resident snapshot.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Directed edges in the resident snapshot.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Undirected links (bilateral pairs collapsed).
    pub fn und_edge_count(&self) -> usize {
        self.und_m
    }

    /// Directed link density `M / (N (N − 1))` (0.0 below 2 nodes),
    /// mirroring [`crate::csr::Csr::density`].
    pub fn density(&self) -> f64 {
        let n = self.nodes.len();
        if n < 2 {
            return 0.0;
        }
        self.m as f64 / (n * (n - 1)) as f64
    }

    /// Directed edges whose reverse also exists, mirroring
    /// [`crate::reciprocity::bilateral_edge_count_csr`] — maintained,
    /// not recounted.
    pub fn bilateral_edge_count(&self) -> usize {
        self.bilateral
    }

    /// The graph clustering coefficient `C_g = (1/n) Σ C_i` from the
    /// maintained per-node doubled triangle counts; `0.0` when empty.
    ///
    /// Per-node division and the final sum mirror
    /// [`crate::clustering::clustering_coefficient_csr`]; the sum runs
    /// in ascending node-key order, so the value depends only on the
    /// current graph, never on the delta history that produced it.
    pub fn clustering_coefficient(&self) -> f64 {
        let n = self.nodes.len();
        if n == 0 {
            return 0.0;
        }
        // lint:allow(H3): the per-sample O(n) reduction is the design floor — the O(Σ k²) triangle recount is what the engine amortizes away
        let sum: f64 = self
            .nodes
            .values()
            .map(|st| {
                let k = st.und.len();
                if k < 2 {
                    0.0
                } else {
                    st.tri2 as f64 / (k * (k - 1)) as f64
                }
            })
            .sum();
        sum / n as f64
    }

    /// The local clustering coefficient `C_i` of one node, from the
    /// maintained state (`None` for unknown keys).
    pub fn local_clustering(&self, key: u32) -> Option<f64> {
        let st = self.nodes.get(&key)?;
        let k = st.und.len();
        if k < 2 {
            return Some(0.0);
        }
        Some(st.tri2 as f64 / (k * (k - 1)) as f64)
    }

    /// Simple reciprocity `r` (paper Eq. 1) from the maintained
    /// counters, with the contract of
    /// [`crate::reciprocity::simple_reciprocity_checked_csr`].
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] when the graph has no edges.
    pub fn simple_reciprocity(&self) -> Result<f64, GraphError> {
        if self.m == 0 {
            return Err(GraphError::EmptyGraph);
        }
        Ok(self.bilateral as f64 / self.m as f64)
    }

    /// Garlaschelli–Loffredo reciprocity `ρ` (paper Eq. 2) from the
    /// maintained counters, with the contract of
    /// [`crate::reciprocity::garlaschelli_reciprocity_csr`].
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] without edges,
    /// [`GraphError::CompleteGraph`] at density 1.
    pub fn garlaschelli_reciprocity(&self) -> Result<f64, GraphError> {
        if self.m == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let a_bar = self.density();
        if (a_bar - 1.0).abs() < f64::EPSILON || a_bar > 1.0 {
            return Err(GraphError::CompleteGraph);
        }
        let r = self.bilateral as f64 / self.m as f64;
        Ok((r - a_bar) / (1.0 - a_bar))
    }

    /// Weighted reciprocity `r_w = Σ min(w_ij, w_ji) / Σ w_ij` from the
    /// maintained weight counters, with the contract of
    /// [`crate::reciprocity::weighted_reciprocity_csr`].
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] without edges or with zero total
    /// weight.
    pub fn weighted_reciprocity(&self) -> Result<f64, GraphError> {
        if self.m == 0 || self.total_w == 0 {
            return Err(GraphError::EmptyGraph);
        }
        Ok(self.matched_w as f64 / self.total_w as f64)
    }

    /// Live out-degree histogram of the resident snapshot.
    pub fn out_degree_histogram(&self) -> &DegreeHistogram {
        &self.out_hist
    }

    /// Live in-degree histogram of the resident snapshot.
    pub fn in_degree_histogram(&self) -> &DegreeHistogram {
        &self.in_hist
    }

    /// Live undirected-degree histogram of the resident snapshot.
    pub fn und_degree_histogram(&self) -> &DegreeHistogram {
        &self.und_hist
    }

    /// The weight of edge `u -> v`, if present.
    pub fn edge_weight(&self, u: u32, v: u32) -> Option<u64> {
        let st = self.nodes.get(&u)?;
        let i = st.out.binary_search_by_key(&v, |e| e.0).ok()?;
        Some(st.out[i].1)
    }

    /// Doubled triangle count of one node (`None` for unknown keys) —
    /// exposed for the equivalence property tests.
    pub fn triangles_doubled(&self, key: u32) -> Option<u64> {
        self.nodes.get(&key).map(|st| st.tri2)
    }

    /// Inserts an isolated node; no-op when present.
    fn add_node(&mut self, key: u32) {
        if self.nodes.contains_key(&key) {
            return;
        }
        self.nodes.insert(key, NodeState::default());
        self.out_hist.record(0);
        self.in_hist.record(0);
        self.und_hist.record(0);
    }

    /// Removes a node, stripping any incident edges first; no-op when
    /// absent.
    fn remove_node(&mut self, key: u32) {
        let Some(st) = self.nodes.get(&key) else {
            return;
        };
        self.scratch_edges.clear();
        for &(v, _) in &st.out {
            self.scratch_edges.push((key, v));
        }
        for &u in &st.inn {
            self.scratch_edges.push((u, key));
        }
        let incident = std::mem::take(&mut self.scratch_edges);
        for &(u, v) in &incident {
            self.remove_edge(u, v);
        }
        self.scratch_edges = incident;
        self.out_hist.unrecord(0);
        self.in_hist.unrecord(0);
        self.und_hist.unrecord(0);
        self.nodes.remove(&key);
    }

    /// Adds edge `u -> v` with weight `w`, creating endpoints as
    /// needed; re-adding a present edge reweights it. Self-loops are
    /// ignored (as in [`crate::DiGraph::add_edge`]).
    fn add_edge(&mut self, u: u32, v: u32, w: u64) {
        if u == v {
            return;
        }
        self.add_node(u);
        self.add_node(v);
        // Out-row of u (also detects the re-add/reweight case).
        {
            let Some(st) = self.nodes.get_mut(&u) else {
                return;
            };
            match st.out.binary_search_by_key(&v, |e| e.0) {
                Ok(i) => {
                    let old = st.out[i].1;
                    st.out[i].1 = w;
                    self.reweight_counters(u, v, old, w);
                    return;
                }
                Err(i) => st.out.insert(i, (v, w)),
            }
            let deg = st.out.len();
            self.out_hist.unrecord(deg - 1);
            self.out_hist.record(deg);
        }
        // In-row of v.
        {
            let Some(st) = self.nodes.get_mut(&v) else {
                return;
            };
            if let Err(i) = st.inn.binary_search(&u) {
                st.inn.insert(i, u);
            }
            let deg = st.inn.len();
            self.in_hist.unrecord(deg - 1);
            self.in_hist.record(deg);
        }
        self.m += 1;
        self.total_w += u128::from(w);
        // Reciprocity counters: did the reverse edge already exist?
        let back = self.edge_weight(v, u);
        if let Some(bw) = back {
            self.bilateral += 2;
            self.matched_w += 2 * u128::from(w.min(bw));
        } else {
            // First direction between this pair: a new undirected link.
            self.link_und(u, v);
        }
    }

    /// Removes edge `u -> v`; no-op when absent.
    fn remove_edge(&mut self, u: u32, v: u32) {
        let Some(st) = self.nodes.get_mut(&u) else {
            return;
        };
        let Ok(i) = st.out.binary_search_by_key(&v, |e| e.0) else {
            return;
        };
        let w = st.out[i].1;
        let deg = st.out.len();
        st.out.remove(i);
        self.out_hist.unrecord(deg);
        self.out_hist.record(deg - 1);
        if let Some(st) = self.nodes.get_mut(&v) {
            if let Ok(i) = st.inn.binary_search(&u) {
                let deg = st.inn.len();
                st.inn.remove(i);
                self.in_hist.unrecord(deg);
                self.in_hist.record(deg - 1);
            }
        }
        self.m -= 1;
        self.total_w -= u128::from(w);
        let back = self.edge_weight(v, u);
        if let Some(bw) = back {
            self.bilateral -= 2;
            self.matched_w -= 2 * u128::from(w.min(bw));
        } else {
            // Last direction between the pair: the undirected link
            // dissolves.
            self.unlink_und(u, v);
        }
    }

    /// Weight change of a surviving edge: adjusts the weight counters,
    /// leaves every structural counter untouched — the reason
    /// [`CsrDelta`] keeps reweights out of `added`/`removed`.
    fn reweight_counters(&mut self, u: u32, v: u32, old: u64, new: u64) {
        self.total_w -= u128::from(old);
        self.total_w += u128::from(new);
        if let Some(bw) = self.edge_weight(v, u) {
            self.matched_w -= 2 * u128::from(old.min(bw));
            self.matched_w += 2 * u128::from(new.min(bw));
        }
    }

    /// Registers the undirected link `u — v`: neighborhood lists,
    /// undirected degree histogram, and triangle counts.
    fn link_und(&mut self, u: u32, v: u32) {
        for (a, b) in [(u, v), (v, u)] {
            let Some(st) = self.nodes.get_mut(&a) else {
                continue;
            };
            if let Err(i) = st.und.binary_search(&b) {
                st.und.insert(i, b);
            }
            let deg = st.und.len();
            self.und_hist.unrecord(deg - 1);
            self.und_hist.record(deg);
        }
        self.und_m += 1;
        // Every common undirected neighbor closes one triangle: the
        // pair (v, w) becomes linked inside N(u), (u, w) inside N(v),
        // and (u, v) inside N(w) — each worth 2 ordered pairs.
        self.common_und_into_scratch(u, v);
        let t = self.scratch.len() as u64;
        if let Some(st) = self.nodes.get_mut(&u) {
            st.tri2 += 2 * t;
        }
        if let Some(st) = self.nodes.get_mut(&v) {
            st.tri2 += 2 * t;
        }
        let commons = std::mem::take(&mut self.scratch);
        for &w in &commons {
            if let Some(st) = self.nodes.get_mut(&w) {
                st.tri2 += 2;
            }
        }
        self.scratch = commons;
    }

    /// Dissolves the undirected link `u — v`, the exact inverse of
    /// [`link_und`](Self::link_und). The common neighborhood is taken
    /// *before* the lists shrink, so the triangle decrements mirror the
    /// increments bit for bit.
    fn unlink_und(&mut self, u: u32, v: u32) {
        self.common_und_into_scratch(u, v);
        let t = self.scratch.len() as u64;
        if let Some(st) = self.nodes.get_mut(&u) {
            st.tri2 -= 2 * t;
        }
        if let Some(st) = self.nodes.get_mut(&v) {
            st.tri2 -= 2 * t;
        }
        let commons = std::mem::take(&mut self.scratch);
        for &w in &commons {
            if let Some(st) = self.nodes.get_mut(&w) {
                st.tri2 -= 2;
            }
        }
        self.scratch = commons;
        for (a, b) in [(u, v), (v, u)] {
            let Some(st) = self.nodes.get_mut(&a) else {
                continue;
            };
            if let Ok(i) = st.und.binary_search(&b) {
                let deg = st.und.len();
                st.und.remove(i);
                self.und_hist.unrecord(deg);
                self.und_hist.record(deg - 1);
            }
        }
        self.und_m -= 1;
    }

    /// Writes the sorted common undirected neighborhood of `u` and `v`
    /// into the reusable scratch buffer (endpoints excluded by the
    /// no-self-loop invariant).
    fn common_und_into_scratch(&mut self, u: u32, v: u32) {
        self.scratch.clear();
        let (Some(su), Some(sv)) = (self.nodes.get(&u), self.nodes.get(&v)) else {
            return;
        };
        let (a, b) = (&su.und, &sv.und);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    self.scratch.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::clustering_coefficient_csr;
    use crate::csr::Csr;
    use crate::reciprocity::{
        bilateral_edge_count_csr, garlaschelli_reciprocity_csr, weighted_reciprocity_csr,
    };
    use crate::DiGraph;

    /// Normalizes an edge list into the snapshot contract and derives
    /// the node list (sorted, deduped, endpoint-closed).
    fn snapshot(mut extra_nodes: Vec<u32>, mut edges: Vec<(u32, u32, u64)>) -> Snapshot {
        edges.retain(|&(u, v, _)| u != v);
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        for &(u, v, _) in &edges {
            extra_nodes.push(u);
            extra_nodes.push(v);
        }
        extra_nodes.sort_unstable();
        extra_nodes.dedup();
        (extra_nodes, edges)
    }

    type Snapshot = (Vec<u32>, Vec<(u32, u32, u64)>);

    /// Builds the equivalent `DiGraph`/`Csr` pair for cross-checking
    /// against the established kernels. Nodes are interned in key
    /// order, so dense ids match the engine's canonical order.
    fn csr_of(nodes: &[u32], edges: &[(u32, u32, u64)]) -> Csr {
        let mut g: DiGraph<u32> = DiGraph::new();
        for &k in nodes {
            g.intern(k);
        }
        for &(u, v, w) in edges {
            let (a, b) = (g.node_id(&u).unwrap(), g.node_id(&v).unwrap());
            g.add_edge(a, b, w);
        }
        Csr::from_digraph(&g)
    }

    fn ws_snapshot(n: usize, seed: u64) -> Snapshot {
        let g = crate::random::watts_strogatz(n, 6, 0.2, seed);
        let edges: Vec<(u32, u32, u64)> = g
            .node_ids()
            .flat_map(|u| {
                let row = g.out(u).iter().zip(g.out_weights(u));
                row.map(move |(v, &w)| (u.0, v.0, w.max(1)))
            })
            .collect();
        snapshot((0..n as u32).collect(), edges)
    }

    #[test]
    fn from_snapshot_matches_csr_kernels() {
        let (nodes, edges) = ws_snapshot(120, 5);
        let topo = IncrementalTopology::from_snapshot(&nodes, &edges);
        let csr = csr_of(&nodes, &edges);
        assert_eq!(topo.node_count(), csr.node_count());
        assert_eq!(topo.edge_count(), csr.edge_count());
        assert_eq!(topo.und_edge_count(), csr.und_edge_count());
        assert_eq!(topo.bilateral_edge_count(), bilateral_edge_count_csr(&csr));
        assert_eq!(
            topo.clustering_coefficient().to_bits(),
            clustering_coefficient_csr(&csr).to_bits(),
            "clustering must be bit-equal on key-ordered dense ids"
        );
        assert_eq!(
            topo.garlaschelli_reciprocity().unwrap().to_bits(),
            garlaschelli_reciprocity_csr(&csr).unwrap().to_bits()
        );
        assert_eq!(
            topo.weighted_reciprocity().unwrap().to_bits(),
            weighted_reciprocity_csr(&csr).unwrap().to_bits()
        );
    }

    #[test]
    fn degree_histograms_match_fresh_counts() {
        let (nodes, edges) = ws_snapshot(80, 9);
        let topo = IncrementalTopology::from_snapshot(&nodes, &edges);
        let csr = csr_of(&nodes, &edges);
        let und = DegreeHistogram::from_samples(csr.node_ids().map(|u| csr.und_degree(u)));
        let out = DegreeHistogram::from_samples(csr.node_ids().map(|u| csr.out_degree(u)));
        let inn = DegreeHistogram::from_samples(csr.node_ids().map(|u| csr.in_degree(u)));
        assert_eq!(topo.und_degree_histogram(), &und);
        assert_eq!(topo.out_degree_histogram(), &out);
        assert_eq!(topo.in_degree_histogram(), &inn);
    }

    #[test]
    fn incremental_sync_matches_rebuild_under_churn() {
        // Evolve a snapshot through edge churn, weight growth, and
        // node churn; at every step the engine must agree exactly with
        // a from-scratch build (debug builds also assert internally).
        let (mut nodes, mut edges) = ws_snapshot(60, 3);
        let mut topo = IncrementalTopology::new();
        topo.sync_snapshot(&nodes, &edges);
        for round in 0u64..8 {
            // Weights of surviving links grow (segment counters).
            for e in edges.iter_mut() {
                e.2 += round;
            }
            // Rotate some edges out, splice new ones in, churn a node.
            let cut = edges.len() / 10;
            edges.drain(..cut);
            let fresh = 200 + round as u32;
            edges.push((fresh, (round as u32) % 40, 7 + round));
            edges.push(((round as u32) % 40, fresh, 3 + round));
            nodes.push(fresh);
            let (n2, e2) = snapshot(nodes.clone(), edges.clone());
            nodes = n2;
            edges = e2;
            let report = topo.sync_snapshot(&nodes, &edges);
            let rebuilt = IncrementalTopology::from_snapshot(&nodes, &edges);
            assert!(topo == rebuilt, "round {round}: {report:?}");
            assert_eq!(
                topo.clustering_coefficient().to_bits(),
                rebuilt.clustering_coefficient().to_bits()
            );
        }
    }

    #[test]
    fn empty_delta_is_identity() {
        let (nodes, edges) = ws_snapshot(40, 1);
        let mut topo = IncrementalTopology::from_snapshot(&nodes, &edges);
        let before = topo.clone();
        let delta = CsrDelta::diff_snapshot(&topo, &nodes, &edges);
        assert!(delta.is_empty());
        topo.apply_delta(&delta);
        assert!(topo == before);
        let report = topo.sync_snapshot(&nodes, &edges);
        assert_eq!(report.structural_churn, 0);
        assert!(!report.rebuilt);
    }

    #[test]
    fn weight_only_changes_are_not_structural() {
        let (nodes, mut edges) = ws_snapshot(40, 2);
        let mut topo = IncrementalTopology::from_snapshot(&nodes, &edges);
        for e in edges.iter_mut() {
            e.2 += 100;
        }
        let delta = CsrDelta::diff_snapshot(&topo, &nodes, &edges);
        assert_eq!(delta.structural_churn(), 0);
        assert_eq!(delta.reweighted.len(), edges.len());
        let report = topo.sync_snapshot(&nodes, &edges);
        assert!(!report.rebuilt, "weight growth must not trigger rebuild");
        assert!(topo == IncrementalTopology::from_snapshot(&nodes, &edges));
    }

    #[test]
    fn mass_churn_falls_back_to_rebuild() {
        let (nodes, edges) = ws_snapshot(50, 4);
        let mut topo = IncrementalTopology::from_snapshot(&nodes, &edges);
        // A completely different graph: everything churns.
        let (n2, e2) = ws_snapshot(50, 99);
        let offset: Vec<u32> = n2.iter().map(|k| k + 1000).collect();
        let shifted: Vec<(u32, u32, u64)> = e2
            .iter()
            .map(|&(u, v, w)| (u + 1000, v + 1000, w))
            .collect();
        let report = topo.sync_snapshot(&offset, &shifted);
        assert!(report.rebuilt);
        assert!(topo == IncrementalTopology::from_snapshot(&offset, &shifted));
    }

    #[test]
    fn tolerant_degenerate_deltas() {
        let (nodes, edges) = snapshot(vec![9], vec![(1, 2, 5), (2, 1, 3), (2, 3, 4)]);
        let mut topo = IncrementalTopology::from_snapshot(&nodes, &edges);
        let before = topo.clone();
        // Removing absent edges/nodes, re-adding a present node: no-ops.
        topo.apply_delta(&CsrDelta {
            removed: vec![(3, 1), (7, 8)],
            removed_nodes: vec![77],
            added_nodes: vec![9],
            ..CsrDelta::default()
        });
        assert!(topo == before);
        // Re-adding a present edge acts as a reweight.
        topo.apply_delta(&CsrDelta {
            added: vec![(1, 2, 50)],
            ..CsrDelta::default()
        });
        assert_eq!(topo.edge_weight(1, 2), Some(50));
        assert_eq!(topo.edge_count(), 3);
        // Removing a live node strips its incident edges.
        topo.apply_delta(&CsrDelta {
            removed_nodes: vec![2],
            ..CsrDelta::default()
        });
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.edge_count(), 0);
        assert_eq!(topo.und_edge_count(), 0);
        assert!(topo == IncrementalTopology::from_snapshot(&[1, 3, 9], &[]));
    }

    #[test]
    fn triangle_counts_track_link_lifecycle() {
        // Triangle 1-2-3 (each link one direction), then break it.
        let (nodes, edges) = snapshot(vec![], vec![(1, 2, 1), (2, 3, 1), (3, 1, 1)]);
        let mut topo = IncrementalTopology::from_snapshot(&nodes, &edges);
        for k in [1, 2, 3] {
            assert_eq!(topo.triangles_doubled(k), Some(2), "node {k}");
        }
        assert!((topo.clustering_coefficient() - 1.0).abs() < 1e-12);
        // Adding the reverse of an existing link changes no triangle.
        topo.apply_delta(&CsrDelta {
            added: vec![(2, 1, 9)],
            ..CsrDelta::default()
        });
        assert_eq!(topo.triangles_doubled(1), Some(2));
        assert_eq!(topo.bilateral_edge_count(), 2);
        // Removing one direction of the bilateral pair keeps the link.
        topo.apply_delta(&CsrDelta {
            removed: vec![(1, 2)],
            ..CsrDelta::default()
        });
        assert_eq!(topo.triangles_doubled(1), Some(2));
        assert_eq!(topo.und_edge_count(), 3);
        // Removing the last direction dissolves link and triangle.
        topo.apply_delta(&CsrDelta {
            removed: vec![(2, 1)],
            ..CsrDelta::default()
        });
        assert_eq!(topo.triangles_doubled(1), Some(0));
        assert_eq!(topo.clustering_coefficient(), 0.0);
    }

    #[test]
    fn empty_engine_metric_contracts() {
        let topo = IncrementalTopology::new();
        assert_eq!(topo.node_count(), 0);
        assert_eq!(topo.clustering_coefficient(), 0.0);
        assert_eq!(topo.simple_reciprocity(), Err(GraphError::EmptyGraph));
        assert_eq!(topo.garlaschelli_reciprocity(), Err(GraphError::EmptyGraph));
        assert_eq!(topo.weighted_reciprocity(), Err(GraphError::EmptyGraph));
        // Complete 2-graph: density 1 ⇒ ρ undefined, as in the Csr kernel.
        let topo = IncrementalTopology::from_snapshot(&[1, 2], &[(1, 2, 1), (2, 1, 1)]);
        assert_eq!(
            topo.garlaschelli_reciprocity(),
            Err(GraphError::CompleteGraph)
        );
    }
}
