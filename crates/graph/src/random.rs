//! Random-graph generators and the baselines the paper compares
//! against.
//!
//! Small-world detection (§4.3) needs a "corresponding random graph"
//! with the same number of vertices and links: its clustering
//! coefficient `C_rand` equals the link density and its average path
//! length is `L_rand ≈ ln n / ln ⟨k⟩`. Both an analytic baseline and an
//! empirical one (generate-and-measure) are provided, plus
//! Watts–Strogatz and Barabási–Albert generators used as test fixtures
//! for validating the metric implementations (a BA graph *should* pass
//! the power-law test; a WS graph *should* be flagged a small world).
//!
//! Every generator returns a [`Csr`] on nodes `0..n` (node `k` is id
//! `k`), flattened by [`Csr::from_edges`] from the edge set it draws.

use crate::clustering::clustering_coefficient_csr;
use crate::paths::{average_path_length_csr, PathSampling, PathTreatment};
use crate::{Csr, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, HashSet};

/// One unit-weight edge `a -> b` of a generated graph.
fn unit_edge(a: u32, b: u32) -> (NodeId, NodeId, u64) {
    (NodeId(a), NodeId(b), 1)
}

/// Directed Erdős–Rényi `G(n, m)`: exactly `m` distinct directed
/// edges chosen uniformly among the `n(n−1)` possibilities.
///
/// # Panics
///
/// Panics if `m > n(n−1)`.
pub fn gnm_directed(n: usize, m: usize, seed: u64) -> Csr {
    let possible = n.saturating_mul(n.saturating_sub(1));
    assert!(m <= possible, "m = {m} exceeds n(n-1) = {possible}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen: HashSet<(u32, u32)> = HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while chosen.len() < m {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        if a != b && chosen.insert((a, b)) {
            edges.push(unit_edge(a, b));
        }
    }
    Csr::from_edges(n, &edges)
}

/// Undirected Erdős–Rényi `G(n, m)`: exactly `m` distinct unordered
/// pairs, each stored as a single directed edge from the smaller to
/// the larger id. Use with the *undirected* metric treatments
/// (clustering, undirected path lengths); it is not a model of a
/// directed topology.
///
/// # Panics
///
/// Panics if `m > n(n−1)/2`.
pub fn gnm_undirected(n: usize, m: usize, seed: u64) -> Csr {
    let possible = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= possible, "m = {m} exceeds n(n-1)/2 = {possible}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen: HashSet<(u32, u32)> = HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while chosen.len() < m {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if lo != hi && chosen.insert((lo, hi)) {
            edges.push(unit_edge(lo, hi));
        }
    }
    Csr::from_edges(n, &edges)
}

/// Analytic expectations for an undirected random graph with `n`
/// nodes and `m` undirected links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomBaseline {
    /// Expected clustering coefficient: the edge density
    /// `2m / (n(n−1))`.
    pub c_expected: f64,
    /// Expected average path length `ln n / ln ⟨k⟩` (NaN-free: `None`
    /// when `⟨k⟩ <= 1`, where the formula is meaningless).
    pub l_expected: Option<f64>,
    /// Mean degree `⟨k⟩ = 2m / n`.
    pub mean_degree: f64,
}

impl RandomBaseline {
    /// Computes the analytic baseline for `n` nodes, `m` undirected
    /// links.
    pub fn analytic(n: usize, m: usize) -> Self {
        let nf = n as f64;
        let c = if n >= 2 {
            2.0 * m as f64 / (nf * (nf - 1.0))
        } else {
            0.0
        };
        let k = if n > 0 { 2.0 * m as f64 / nf } else { 0.0 };
        let l = if k > 1.0 && n >= 2 {
            Some(nf.ln() / k.ln())
        } else {
            None
        };
        RandomBaseline {
            c_expected: c,
            l_expected: l,
            mean_degree: k,
        }
    }
}

/// An empirically measured random baseline: an actual `G(n, m)` graph
/// is generated and its metrics computed with the same estimators the
/// study applies to the real topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredBaseline {
    /// Measured clustering coefficient of the sampled graph.
    pub c: f64,
    /// Measured average path length (undirected), when defined.
    pub l: Option<f64>,
}

/// Generates `G(n, m)` (undirected) with `seed` and measures `C` and
/// `L` using the provided path sampling strategy.
pub fn measured_baseline(
    n: usize,
    m: usize,
    seed: u64,
    sampling: PathSampling,
) -> MeasuredBaseline {
    let g = gnm_undirected(n, m, seed);
    let c = clustering_coefficient_csr(&g);
    let l = average_path_length_csr(&g, PathTreatment::Undirected, sampling).map(|s| s.mean);
    MeasuredBaseline { c, l }
}

/// Watts–Strogatz small-world graph: a ring of `n` nodes, each linked
/// to its `k` nearest neighbors (`k` even), with each edge rewired to
/// a uniform random target with probability `beta`.
///
/// Edges are stored one direction per pair; use undirected metrics.
///
/// # Panics
///
/// Panics if `k` is odd, `k >= n`, or `beta` is outside `[0, 1]`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Csr {
    assert!(k % 2 == 0, "k must be even, got {k}");
    assert!(k < n, "k = {k} must be < n = {n}");
    assert!((0.0..=1.0).contains(&beta), "beta {beta} outside [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    // BTreeSet: the edge set is iterated twice below (rewiring pass
    // and final emission), and both orders feed the seeded RNG stream
    // and the graph bytes.
    let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
    let norm = |a: u32, b: u32| if a < b { (a, b) } else { (b, a) };
    for i in 0..n as u32 {
        for d in 1..=(k / 2) as u32 {
            let j = (i + d) % n as u32;
            edges.insert(norm(i, j));
        }
    }
    // Rewire: iterate over the lattice edges in deterministic
    // (ascending) order, snapshotted so rewiring can mutate the set.
    let lattice: Vec<(u32, u32)> = edges.iter().copied().collect();
    for (a, b) in lattice {
        if rng.random_range(0.0..1.0) < beta {
            // Rewire the far endpoint to a random target.
            let mut tries = 0;
            loop {
                let t = rng.random_range(0..n as u32);
                let cand = norm(a, t);
                if t != a && !edges.contains(&cand) {
                    edges.remove(&(a, b));
                    edges.insert(cand);
                    break;
                }
                tries += 1;
                if tries > 64 {
                    break; // keep original edge in pathological density
                }
            }
        }
    }
    let edges: Vec<_> = edges.into_iter().map(|(a, b)| unit_edge(a, b)).collect();
    Csr::from_edges(n, &edges)
}

/// Barabási–Albert preferential-attachment graph: starts from a small
/// clique of `m + 1` nodes, then each new node attaches to `m`
/// existing nodes chosen proportionally to degree. Produces a
/// power-law degree distribution — the shape Magellan shows streaming
/// overlays do *not* have.
///
/// # Panics
///
/// Panics if `m == 0` or `n <= m`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Csr {
    assert!(m > 0, "m must be positive");
    assert!(n > m, "n = {n} must exceed m = {m}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    // Degree-proportional sampling via a repeated-endpoints list.
    let mut endpoints: Vec<u32> = Vec::new();
    // Seed clique among the first m+1 nodes.
    for i in 0..=(m as u32) {
        for j in (i + 1)..=(m as u32) {
            edges.push(unit_edge(i, j));
            endpoints.push(i);
            endpoints.push(j);
        }
    }
    for v in (m + 1) as u32..n as u32 {
        // Draw-ordered Vec, not a HashSet: the attachment order feeds
        // `endpoints` and thus every later degree-proportional draw,
        // so it must not depend on hash iteration order (m is small,
        // the linear `contains` is cheaper than hashing anyway).
        let mut targets: Vec<u32> = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for t in targets {
            edges.push(unit_edge(v, t));
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    Csr::from_edges(n, &edges)
}

/// Configuration-model graph: wires a prescribed *undirected* degree
/// sequence by uniform stub matching, rejecting self-loops and
/// duplicate edges (so realized degrees can fall slightly short of
/// the prescription on pathological sequences; the return value
/// reports how many stubs were abandoned).
///
/// This is the standard tool for asking "which properties follow from
/// the degree distribution alone?" — e.g. a degree-matched reference
/// for a measured snapshot.
///
/// # Panics
///
/// Panics if the degree sum is odd (no graph realizes it) or any
/// degree is `>= n`.
pub fn configuration_model(degrees: &[usize], seed: u64) -> (Csr, usize) {
    let n = degrees.len();
    let total: usize = degrees.iter().sum();
    assert!(total % 2 == 0, "odd degree sum {total} is not realizable");
    for (i, &d) in degrees.iter().enumerate() {
        assert!(d < n.max(1), "degree {d} of node {i} exceeds n-1");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stubs: Vec<u32> = Vec::with_capacity(total);
    for (i, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat(i as u32).take(d));
    }
    // Fisher-Yates shuffle, then pair consecutive stubs.
    for i in (1..stubs.len()).rev() {
        let j = rng.random_range(0..=i);
        stubs.swap(i, j);
    }
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(total / 2);
    let mut edges = Vec::with_capacity(total / 2);
    let mut abandoned = 0usize;
    for pair in stubs.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        let key = if a < b { (a, b) } else { (b, a) };
        if a == b || !seen.insert(key) {
            abandoned += 2;
            continue;
        }
        edges.push(unit_edge(key.0, key.1));
    }
    (Csr::from_edges(n, &edges), abandoned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::{average_degree, DegreeKind};

    #[test]
    fn gnm_directed_has_exact_counts() {
        let g = gnm_directed(50, 200, 1);
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 200);
    }

    #[test]
    fn gnm_directed_is_deterministic() {
        assert_eq!(gnm_directed(30, 100, 7), gnm_directed(30, 100, 7));
    }

    #[test]
    fn gnm_undirected_has_exact_counts() {
        let g = gnm_undirected(40, 150, 2);
        assert_eq!(g.node_count(), 40);
        assert_eq!(g.edge_count(), 150);
        assert_eq!(g.und_edge_count(), 150);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn gnm_rejects_too_many_edges() {
        let _ = gnm_directed(3, 7, 0);
    }

    #[test]
    fn dense_gnm_terminates() {
        // All possible edges.
        let g = gnm_directed(5, 20, 3);
        assert_eq!(g.edge_count(), 20);
    }

    #[test]
    fn analytic_baseline_matches_formulas() {
        let b = RandomBaseline::analytic(100, 300);
        assert!((b.c_expected - 600.0 / (100.0 * 99.0)).abs() < 1e-12);
        assert!((b.mean_degree - 6.0).abs() < 1e-12);
        let l = b.l_expected.unwrap();
        assert!((l - (100f64).ln() / 6f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn analytic_baseline_degenerate_cases() {
        assert_eq!(RandomBaseline::analytic(0, 0).c_expected, 0.0);
        assert_eq!(RandomBaseline::analytic(1, 0).l_expected, None);
        // Mean degree exactly 1: formula undefined.
        assert_eq!(RandomBaseline::analytic(10, 5).l_expected, None);
    }

    #[test]
    fn measured_baseline_close_to_analytic() {
        let n = 300;
        let m = 1500;
        let analytic = RandomBaseline::analytic(n, m);
        let measured = measured_baseline(n, m, 11, PathSampling::Exact);
        // ER clustering concentrates near density for this size.
        assert!((measured.c - analytic.c_expected).abs() < 0.02);
        let l = measured.l.unwrap();
        let le = analytic.l_expected.unwrap();
        assert!((l - le).abs() < 1.0, "measured {l} vs expected {le}");
    }

    #[test]
    fn watts_strogatz_beta_zero_is_lattice() {
        let g = watts_strogatz(20, 4, 0.0, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 20 * 4 / 2);
        // Every node has undirected degree exactly k.
        for id in g.node_ids() {
            assert_eq!(g.und_degree(id), 4);
        }
        // Ring lattice with k=4 has C = 0.5.
        let c = clustering_coefficient_csr(&g);
        assert!((c - 0.5).abs() < 1e-9, "lattice C = {c}");
    }

    #[test]
    fn watts_strogatz_keeps_edge_count_under_rewiring() {
        let g = watts_strogatz(50, 6, 0.3, 9);
        assert_eq!(g.edge_count(), 50 * 6 / 2);
    }

    #[test]
    fn barabasi_albert_edge_count() {
        let n = 200;
        let m = 3;
        let g = barabasi_albert(n, m, 4);
        let clique = m * (m + 1) / 2;
        assert_eq!(g.edge_count(), clique + (n - m - 1) * m);
        // Average undirected degree ~ 2m.
        let avg = average_degree(&g, DegreeKind::Undirected);
        assert!((avg - 2.0 * m as f64).abs() < 1.0, "avg degree {avg}");
    }

    #[test]
    fn configuration_model_realizes_most_of_the_sequence() {
        let degrees = vec![3usize; 200];
        let (g, abandoned) = configuration_model(&degrees, 5);
        assert_eq!(g.node_count(), 200);
        // Stub matching loses only a few stubs to collisions.
        assert!(abandoned <= 20, "abandoned {abandoned} stubs");
        let realized: usize = g.node_ids().map(|i| g.und_degree(i)).sum();
        assert!(realized >= 560, "realized degree sum {realized}");
        // No node exceeds its prescription.
        assert!(g.node_ids().all(|i| g.und_degree(i) <= 3));
    }

    #[test]
    #[should_panic(expected = "odd degree sum")]
    fn configuration_model_rejects_odd_sum() {
        let _ = configuration_model(&[1, 1, 1], 0);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        // Two same-seed calls must produce identical graphs. This is a
        // real regression guard, not a tautology: each std HashSet
        // instance gets its own RandomState keys, so any generator
        // that lets set iteration order reach the output (as
        // barabasi_albert once did) diverges even within one process.
        let pairs = [
            (barabasi_albert(300, 4, 7), barabasi_albert(300, 4, 7)),
            (gnm_directed(200, 900, 7), gnm_directed(200, 900, 7)),
            (gnm_undirected(200, 600, 7), gnm_undirected(200, 600, 7)),
            (
                watts_strogatz(200, 6, 0.3, 7),
                watts_strogatz(200, 6, 0.3, 7),
            ),
        ];
        for (i, (a, b)) in pairs.iter().enumerate() {
            assert_eq!(a, b, "generator #{i} diverged");
        }
        let (ca, _) = configuration_model(&[3usize; 200], 7);
        let (cb, _) = configuration_model(&[3usize; 200], 7);
        assert_eq!(ca, cb, "configuration_model");
    }

    /// FNV-1a over the node count and every out-row, weight row and
    /// in-row of a generated graph (each row length-prefixed), folded
    /// into `h`.
    fn fold_csr(mut h: u64, csr: &Csr) -> u64 {
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(csr.node_count() as u64);
        for u in csr.node_ids() {
            eat(csr.out(u).len() as u64);
            csr.out(u).iter().for_each(|v| eat(v.index() as u64));
            csr.out_weights(u).iter().for_each(|&w| eat(w));
            eat(csr.inn(u).len() as u64);
            csr.inn(u).iter().for_each(|v| eat(v.index() as u64));
        }
        h
    }

    #[test]
    fn generator_output_bits_are_pinned() {
        // Byte oracle for every generator at three seeds: same RNG
        // draws, same edges, same node numbering. `configuration_model`
        // adds its abandoned-stub count, `measured_baseline` its `c`
        // and `l` bits.
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let degrees: Vec<usize> = (0..90).map(|i| 1 + i % 5).collect();
        let mut digests = [FNV_OFFSET; 6];
        for seed in [1u64, 7, 2006] {
            digests[0] = fold_csr(digests[0], &gnm_directed(60, 240, seed));
            digests[1] = fold_csr(digests[1], &gnm_undirected(60, 200, seed));
            digests[2] = fold_csr(digests[2], &watts_strogatz(80, 6, 0.2, seed));
            digests[3] = fold_csr(digests[3], &barabasi_albert(80, 3, seed));
            let (g, abandoned) = configuration_model(&degrees, seed);
            digests[4] = fold_csr(digests[4], &g);
            digests[4] ^= abandoned as u64;
            for sampling in [
                PathSampling::Exact,
                PathSampling::Sources { count: 16, seed },
            ] {
                let b = measured_baseline(70, 210, seed, sampling);
                for bits in [b.c.to_bits(), b.l.map_or(u64::MAX, f64::to_bits)] {
                    digests[5] = (digests[5] ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        let expect: [u64; 6] = [
            0x15ba_283d_5549_0ee6, // gnm_directed
            0x5585_ea92_7bfc_1bff, // gnm_undirected
            0x938b_86cd_5d71_06cb, // watts_strogatz
            0xb459_54b4_f978_edfd, // barabasi_albert
            0x64c8_162c_7af2_25c1, // configuration_model
            0x230e_851b_f938_2064, // measured_baseline
        ];
        assert_eq!(digests, expect);
    }

    #[test]
    fn barabasi_albert_has_hubs() {
        let g = barabasi_albert(500, 2, 8);
        let max = g.node_ids().map(|id| g.und_degree(id)).max().unwrap();
        // Preferential attachment must produce a hub well above the mean.
        assert!(max > 20, "max degree {max}");
    }
}
