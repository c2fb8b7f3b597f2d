//! Shortest-path metrics: BFS distances, average pairwise path length
//! (exact or source-sampled), and diameter bounds.
//!
//! Magellan reports the average pairwise shortest path length `L_g` of
//! stable-peer graphs and compares it with the random-graph baseline
//! (§4.3, Fig. 7). Snapshots can be large, so alongside the exact
//! all-pairs BFS a seeded source-sampling estimator is provided; the
//! `ablation_estimators` bench quantifies the accuracy/cost trade-off.
//!
//! The kernels traverse a flat [`Csr`] snapshot view.
//! [`average_path_length_csr`] packs its
//! sources into 64-wide batches and advances all wavefronts of a batch
//! simultaneously with the bit-parallel [`bfs_multi64_csr`] kernel —
//! one traversal per 64 sources instead of 64 — then fans the batches
//! across cores with [`magellan_par::par_map_collect_grained`]. The
//! source list is fixed (and any sampling RNG drawn) *before* the
//! fan-out, and the per-batch partial sums are integers reduced in
//! batch order, so the result is bit-identical for every thread count
//! *and* for every batching of the same source list.

use crate::csr::Csr;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Marker for unreachable nodes in a distance vector.
pub const UNREACHABLE: u32 = u32::MAX;

/// Whether to follow edge directions during traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathTreatment {
    /// Follow edges only from source to target.
    Directed,
    /// Treat every edge as bidirectional (the paper's choice: path
    /// lengths are about connectivity, not flow direction).
    Undirected,
}

/// How many BFS sources to use for the average-path-length estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathSampling {
    /// BFS from every node: exact (`O(n · m)`).
    Exact,
    /// BFS from `count` uniformly sampled nodes, seeded for
    /// reproducibility. Unbiased for the mean over reachable pairs.
    Sources {
        /// Number of BFS sources.
        count: usize,
        /// RNG seed.
        seed: u64,
    },
}

/// Result of an average-path-length computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLengthStats {
    /// Mean shortest-path length over reachable ordered pairs.
    pub mean: f64,
    /// Largest shortest-path distance seen (the diameter when exact
    /// and the graph is connected; a lower bound otherwise).
    pub diameter_lower_bound: u32,
    /// Number of reachable ordered pairs inspected.
    pub reachable_pairs: u64,
    /// Number of BFS sources used.
    pub sources: usize,
    /// Whether this is the exact value (all sources).
    pub exact: bool,
}

/// BFS distances from `src` over a prebuilt [`Csr`] snapshot.
///
/// Unreachable nodes get [`UNREACHABLE`]. The frontier is an index
/// cursor over a flat visit vector — no per-step deque shuffling —
/// and each popped node streams through one contiguous adjacency row.
pub fn bfs_distances_csr(csr: &Csr, src: NodeId, treatment: PathTreatment) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; csr.node_count()];
    let mut queue: Vec<NodeId> = Vec::with_capacity(csr.node_count().min(1024));
    dist[src.index()] = 0;
    queue.push(src);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u.index()];
        let row = match treatment {
            PathTreatment::Directed => csr.out(u),
            // The undirected row is the deduplicated union of out- and
            // in-neighbors, so one pass covers both directions.
            PathTreatment::Undirected => csr.und(u),
        };
        for &v in row {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                queue.push(v);
            }
        }
    }
    dist
}

/// Aggregate BFS distance statistics for up to 64 sources at once,
/// advanced bit-parallel over one shared traversal.
///
/// Each source owns one bit of a per-node `u64` word: `seen[v]` holds
/// the sources that have reached `v`, `frontier[v]` the sources whose
/// wavefront sits on `v` this level. One level advances *every*
/// wavefront with a single sweep of the active adjacency rows —
/// `frontier[u] & !seen[v]` is the set of sources discovering `v`
/// through `u` — so a batch costs roughly one traversal of the graph
/// per BFS *level* instead of one full BFS per source.
///
/// Returns `(sum, pairs, far)` over the batch: the summed shortest-path
/// distances from each source to every node it reaches (excluding
/// itself), the count of such reachable ordered pairs, and the largest
/// finite distance seen. These are exactly the values accumulating
/// [`bfs_distances_csr`] per source would produce — integer partials,
/// so any batching of a source list reduces to identical totals.
///
/// # Panics
///
/// Panics if `sources` holds more than 64 ids (one bit each).
pub fn bfs_multi64_csr(csr: &Csr, sources: &[NodeId], treatment: PathTreatment) -> (u64, u64, u32) {
    assert!(
        sources.len() <= 64,
        "bfs_multi64_csr batches at most 64 sources, got {}",
        sources.len()
    );
    let n = csr.node_count();
    // `seen` and `next` interleaved per node ([0] = seen, [1] = next):
    // the inner sweep reads one and writes the other for the same
    // random node, so pairing them halves the cache lines it touches.
    let mut words = vec![[0u64; 2]; n];
    let mut frontier = vec![0u64; n];
    let mut cur: Vec<NodeId> = Vec::with_capacity(sources.len());
    for (b, &s) in sources.iter().enumerate() {
        let bit = 1u64 << b;
        if frontier[s.index()] == 0 {
            cur.push(s);
        }
        frontier[s.index()] |= bit;
        words[s.index()][0] |= bit;
    }
    cur.sort_unstable();
    cur.dedup();
    let (mut sum, mut pairs, mut far) = (0u64, 0u64, 0u32);
    let mut depth = 0u32;
    while !cur.is_empty() {
        depth += 1;
        for &u in &cur {
            let wave = frontier[u.index()];
            let row = match treatment {
                PathTreatment::Directed => csr.out(u),
                PathTreatment::Undirected => csr.und(u),
            };
            for &v in row {
                // Sources on `u`'s wavefront that have not reached `v`
                // yet: they all discover `v` now, at this depth.
                let w = &mut words[v.index()];
                let add = wave & !w[0];
                if add != 0 {
                    w[1] |= add;
                }
            }
        }
        for &u in &cur {
            frontier[u.index()] = 0;
        }
        cur.clear();
        // Commit the level with one sequential pass: every bit that
        // landed on `v` is a source whose shortest path to `v` has
        // length `depth`. The pass also rebuilds the frontier list in
        // ascending node order, which keeps the next sweep's adjacency
        // rows and frontier clears sequential in memory.
        for (vi, w) in words.iter_mut().enumerate() {
            let newly = w[1];
            if newly != 0 {
                w[0] |= newly;
                w[1] = 0;
                frontier[vi] = newly;
                cur.push(NodeId::from_index(vi));
                let found = u64::from(newly.count_ones());
                sum += u64::from(depth) * found;
                pairs += found;
            }
        }
        if !cur.is_empty() {
            far = depth;
        }
    }
    (sum, pairs, far)
}

/// Average pairwise shortest-path length `L_g`.
///
/// Averages over *reachable* ordered pairs `(s, t)` with `s != t`,
/// which matches the usual convention for graphs that are not fully
/// connected. Returns `None` when no pair is reachable (empty or
/// edgeless graph).
///
/// Sources are packed into 64-wide bit-parallel batches
/// ([`bfs_multi64_csr`]) and the batches fan out across cores — with a
/// grain of one, because a batch is a whole multi-source traversal and
/// always outweighs one pool dispatch. The source list (including any
/// seeded sampling shuffle) is fixed before the fan-out and the
/// per-batch integer partials are reduced in batch order, keeping the
/// result bit-identical for every thread count and batch split —
/// including the scalar one-BFS-per-source path this replaced.
pub fn average_path_length_csr(
    csr: &Csr,
    treatment: PathTreatment,
    sampling: PathSampling,
) -> Option<PathLengthStats> {
    let n = csr.node_count();
    if n < 2 {
        return None;
    }
    let (sources, exact): (Vec<NodeId>, bool) = match sampling {
        PathSampling::Exact => (csr.node_ids().collect(), true), // lint:allow(H2): owned BFS source list, one per kernel call
        PathSampling::Sources { count, seed } => {
            if count >= n {
                (csr.node_ids().collect(), true) // lint:allow(H2): owned BFS source list, one per kernel call
            } else {
                let mut ids: Vec<NodeId> = csr.node_ids().collect(); // lint:allow(H2): owned, shuffleable source sample, one per kernel call
                let mut rng = StdRng::seed_from_u64(seed);
                ids.shuffle(&mut rng);
                ids.truncate(count.max(1));
                (ids, false)
            }
        }
    };
    // Per-batch partials, in batch order. The totals are sums/maxima
    // of integers, so they are identical for any batching.
    let batches: Vec<&[NodeId]> = sources.chunks(64).collect(); // lint:allow(H2): owned batch list, one per kernel call
    let partials: Vec<(u64, u64, u32)> =
        magellan_par::par_map_collect_grained(batches.len(), 1, |k| {
            bfs_multi64_csr(csr, batches[k], treatment)
        });
    let mut sum = 0u64;
    let mut pairs = 0u64;
    let mut diameter = 0u32;
    for &(s, p, f) in &partials {
        sum += s;
        pairs += p;
        diameter = diameter.max(f);
    }
    if pairs == 0 {
        return None;
    }
    Some(PathLengthStats {
        mean: sum as f64 / pairs as f64,
        diameter_lower_bound: diameter,
        reachable_pairs: pairs,
        sources: sources.len(),
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` nodes and a directed path through each `(first, last)` run
    /// of node ids.
    fn chains(n: usize, runs: &[(usize, usize)]) -> Csr {
        let edges: Vec<_> = runs
            .iter()
            .flat_map(|&(first, last)| first..last)
            .map(|k| (NodeId::from_index(k), NodeId::from_index(k + 1), 1))
            .collect();
        Csr::from_edges(n, &edges)
    }

    /// Directed path 0 -> 1 -> 2 -> 3.
    fn path4() -> Csr {
        chains(4, &[(0, 3)])
    }

    #[test]
    fn bfs_directed_respects_direction() {
        let g = path4();
        let d = bfs_distances_csr(&g, NodeId::from_index(0), PathTreatment::Directed);
        assert_eq!(d, vec![0, 1, 2, 3]);
        let end = NodeId::from_index(3);
        let d2 = bfs_distances_csr(&g, end, PathTreatment::Directed);
        assert_eq!(d2[0], UNREACHABLE);
        assert_eq!(d2[3], 0);
    }

    #[test]
    fn bfs_undirected_ignores_direction() {
        let g = path4();
        let end = NodeId::from_index(3);
        let d = bfs_distances_csr(&g, end, PathTreatment::Undirected);
        assert_eq!(d, vec![3, 2, 1, 0]);
    }

    #[test]
    fn exact_average_path_on_path4_undirected() {
        let g = path4();
        // Ordered reachable pairs: distances 1,2,3 each appear twice,
        // distance 1 appears 2*3? Enumerate: pairs (i,j), i!=j, |i-j| sums:
        // sum over ordered pairs of |i-j| = 2*(1*3 + 2*2 + 3*1) = 20; pairs = 12.
        let s =
            average_path_length_csr(&g, PathTreatment::Undirected, PathSampling::Exact).unwrap();
        assert!((s.mean - 20.0 / 12.0).abs() < 1e-12);
        assert_eq!(s.diameter_lower_bound, 3);
        assert_eq!(s.reachable_pairs, 12);
        assert!(s.exact);
    }

    #[test]
    fn directed_average_counts_only_reachable() {
        let g = path4();
        let s = average_path_length_csr(&g, PathTreatment::Directed, PathSampling::Exact).unwrap();
        // Reachable ordered pairs: (0,1)(0,2)(0,3)(1,2)(1,3)(2,3): 1+2+3+1+2+1 = 10 over 6.
        assert!((s.mean - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.reachable_pairs, 6);
    }

    #[test]
    fn no_edges_means_none() {
        let g = chains(2, &[]);
        assert!(
            average_path_length_csr(&g, PathTreatment::Undirected, PathSampling::Exact).is_none()
        );
    }

    #[test]
    fn single_node_means_none() {
        let g = chains(1, &[]);
        assert!(
            average_path_length_csr(&g, PathTreatment::Undirected, PathSampling::Exact).is_none()
        );
    }

    #[test]
    fn sampling_with_enough_sources_is_exact() {
        let g = path4();
        let s = average_path_length_csr(
            &g,
            PathTreatment::Undirected,
            PathSampling::Sources { count: 10, seed: 3 },
        )
        .unwrap();
        assert!(s.exact);
        assert!((s.mean - 20.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = path4();
        let a = average_path_length_csr(
            &g,
            PathTreatment::Undirected,
            PathSampling::Sources { count: 2, seed: 9 },
        )
        .unwrap();
        let b = average_path_length_csr(
            &g,
            PathTreatment::Undirected,
            PathSampling::Sources { count: 2, seed: 9 },
        )
        .unwrap();
        assert_eq!(a, b);
        assert!(!a.exact);
        assert_eq!(a.sources, 2);
    }

    /// Scalar reference: accumulate `(sum, pairs, far)` with one
    /// [`bfs_distances_csr`] pass per source.
    fn scalar_stats(csr: &Csr, sources: &[NodeId], treatment: PathTreatment) -> (u64, u64, u32) {
        let (mut sum, mut pairs, mut far) = (0u64, 0u64, 0u32);
        for &src in sources {
            let dist = bfs_distances_csr(csr, src, treatment);
            for (i, &d) in dist.iter().enumerate() {
                if d != UNREACHABLE && i != src.index() {
                    sum += u64::from(d);
                    pairs += 1;
                    far = far.max(d);
                }
            }
        }
        (sum, pairs, far)
    }

    #[test]
    fn multi64_matches_scalar_bfs_on_random_graphs() {
        for (seed, beta) in [(1u64, 0.1), (7, 0.4)] {
            let csr = crate::random::watts_strogatz(300, 6, beta, seed);
            let sources: Vec<NodeId> = csr.node_ids().take(64).collect();
            for treatment in [PathTreatment::Undirected, PathTreatment::Directed] {
                let batch = bfs_multi64_csr(&csr, &sources, treatment);
                let scalar = scalar_stats(&csr, &sources, treatment);
                assert_eq!(batch, scalar, "seed {seed} beta {beta} {treatment:?}");
            }
        }
    }

    #[test]
    fn multi64_matches_scalar_on_disconnected_graph() {
        let csr = chains(9, &[(0, 3), (4, 8)]);
        let sources: Vec<NodeId> = csr.node_ids().collect();
        for treatment in [PathTreatment::Undirected, PathTreatment::Directed] {
            let batch = bfs_multi64_csr(&csr, &sources, treatment);
            let scalar = scalar_stats(&csr, &sources, treatment);
            assert_eq!(batch, scalar, "{treatment:?}");
        }
    }

    #[test]
    fn multi64_handles_partial_and_duplicate_batches() {
        let csr = crate::random::watts_strogatz(100, 4, 0.2, 3);
        let few: Vec<NodeId> = csr.node_ids().take(5).collect();
        let batch = bfs_multi64_csr(&csr, &few, PathTreatment::Undirected);
        assert_eq!(batch, scalar_stats(&csr, &few, PathTreatment::Undirected));
        // A repeated source counts twice, exactly as two scalar passes would.
        let dup = vec![few[0], few[0]];
        let batch = bfs_multi64_csr(&csr, &dup, PathTreatment::Undirected);
        assert_eq!(batch, scalar_stats(&csr, &dup, PathTreatment::Undirected));
        // An empty batch is a no-op.
        assert_eq!(
            bfs_multi64_csr(&csr, &[], PathTreatment::Undirected),
            (0, 0, 0)
        );
    }

    #[test]
    fn multi64_batched_exact_apl_matches_scalar_accumulation() {
        // More nodes than one batch: exercises the chunked reduction in
        // average_path_length_csr against the scalar per-source totals.
        let csr = crate::random::watts_strogatz(150, 4, 0.15, 11);
        let sources: Vec<NodeId> = csr.node_ids().collect();
        let (sum, pairs, far) = scalar_stats(&csr, &sources, PathTreatment::Undirected);
        let s = average_path_length_csr(&csr, PathTreatment::Undirected, PathSampling::Exact)
            .expect("connected enough");
        assert_eq!(s.reachable_pairs, pairs);
        assert_eq!(s.diameter_lower_bound, far);
        assert_eq!(s.mean.to_bits(), (sum as f64 / pairs as f64).to_bits());
        assert!(s.exact);
    }
}
