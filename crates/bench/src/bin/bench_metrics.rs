//! Machine-readable metric-engine baseline: `BENCH_metrics.json`.
//!
//! Times the hot topology kernels on Watts–Strogatz graphs at three
//! scales, at 1 worker and 8 workers (via `magellan_par::set_threads`),
//! against the legacy `DiGraph`-walking implementations they replaced,
//! the `magellan-traced` ingest admission path (reports/sec through
//! one sans-I/O shard), plus the end-to-end latency of one study
//! sample instant. Emits one
//! JSON document on stdout; `scripts/bench.sh` redirects it to
//! `BENCH_metrics.json`.
//!
//! Numbers are wall-clock means from short calibrated loops — a
//! regression baseline, not a statistics engine. `host_cores` is
//! recorded so a reader can tell whether thread scaling was physically
//! possible on the measuring box (on a 1-core host threads=8 cannot
//! beat threads=1).

use magellan_analysis::study::MagellanStudy;
use magellan_bench::{bench_trace, quick_study, BENCH_DAYS};
use magellan_graph::clustering::clustering_coefficient_csr;
use magellan_graph::kcore::core_decomposition_csr;
use magellan_graph::paths::{average_path_length_csr, PathSampling, PathTreatment, UNREACHABLE};
use magellan_graph::random::watts_strogatz;
use magellan_graph::reciprocity::garlaschelli_reciprocity_csr;
use magellan_graph::{Csr, CsrDelta, DiGraph, IncrementalTopology, NodeId};
use magellan_netsim::SimTime;
use magellan_trace::Shard;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Mean ns per call of `f`, from a calibrated loop of at least ~200 ms.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    f(); // warm-up
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 200 || iters >= 1 << 22 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters = iters.saturating_mul(4);
    }
}

/// The legacy graph-level clustering loop: one `undirected_neighbors`
/// Vec allocation per row, re-walked through the nested `DiGraph`
/// adjacency. Kept here as the baseline the Csr kernels replaced.
fn legacy_clustering(g: &DiGraph<u32>) -> f64 {
    let hoods: Vec<Vec<NodeId>> = g.node_ids().map(|u| g.undirected_neighbors(u)).collect();
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for hood in &hoods {
        let k = hood.len();
        if k < 2 {
            continue;
        }
        let mut twice_links = 0usize;
        for u in hood {
            let other = &hoods[u.index()];
            let (mut i, mut j) = (0, 0);
            while i < other.len() && j < hood.len() {
                match other[i].cmp(&hood[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        twice_links += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        sum += twice_links as f64 / (k * (k - 1)) as f64;
    }
    sum / n as f64
}

/// A keyed graph with node `k` keyed `k`, filled from `csr`'s rows:
/// the input of the `csr_build` row and the legacy walks.
fn keyed_graph(csr: &Csr) -> DiGraph<u32> {
    let mut g = DiGraph::with_capacity(csr.node_count());
    for u in csr.node_ids() {
        g.intern(u.index() as u32);
    }
    for u in csr.node_ids() {
        for (&v, &w) in csr.out(u).iter().zip(csr.out_weights(u)) {
            g.add_edge(u, v, w);
        }
    }
    g
}

/// The legacy per-source BFS: VecDeque over `DiGraph::undirected_neighbors`
/// (one Vec allocation per visited node).
fn legacy_bfs(g: &DiGraph<u32>, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    dist[src.index()] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()] + 1;
        for v in g.undirected_neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = d;
                queue.push_back(v);
            }
        }
    }
    dist
}

struct Row {
    name: &'static str,
    n: usize,
    threads: usize,
    ns_per_op: f64,
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let scales = [500usize, 2_000, 8_000];
    let thread_counts = [1usize, 8];
    let sampling = PathSampling::Sources { count: 64, seed: 5 };

    let mut rows: Vec<Row> = Vec::new();
    let mut legacy_rows: Vec<Row> = Vec::new();

    for &n in &scales {
        eprintln!("measuring n = {n} ...");
        let csr = watts_strogatz(n, 8, 0.1, 1);
        let g = keyed_graph(&csr);

        rows.push(Row {
            name: "csr_build",
            n,
            threads: 1,
            ns_per_op: time_ns(|| {
                black_box(Csr::from_digraph(black_box(&g)));
            }),
        });
        for &t in &thread_counts {
            magellan_par::set_threads(t);
            rows.push(Row {
                name: "clustering",
                n,
                threads: t,
                ns_per_op: time_ns(|| {
                    black_box(clustering_coefficient_csr(black_box(&csr)));
                }),
            });
            rows.push(Row {
                name: "apl_sampled64",
                n,
                threads: t,
                ns_per_op: time_ns(|| {
                    black_box(average_path_length_csr(
                        black_box(&csr),
                        PathTreatment::Undirected,
                        sampling,
                    ));
                }),
            });
            rows.push(Row {
                name: "reciprocity",
                n,
                threads: t,
                ns_per_op: time_ns(|| {
                    black_box(garlaschelli_reciprocity_csr(black_box(&csr)).ok());
                }),
            });
        }
        magellan_par::set_threads(1);
        rows.push(Row {
            name: "kcore",
            n,
            threads: 1,
            ns_per_op: time_ns(|| {
                black_box(core_decomposition_csr(black_box(&csr)));
            }),
        });
        // One bit-parallel traversal of 64 sources — the batched
        // kernel behind apl_sampled64, measured raw. Directly
        // comparable to the scalar-loop apl_sampled64 rows of older
        // baselines (64 BFS passes vs one 64-wide pass).
        let sources: Vec<NodeId> = (0..64.min(n)).map(NodeId::from_index).collect();
        rows.push(Row {
            name: "bfs_multi64",
            n,
            threads: 1,
            ns_per_op: time_ns(|| {
                black_box(magellan_graph::paths::bfs_multi64_csr(
                    black_box(&csr),
                    black_box(&sources),
                    PathTreatment::Undirected,
                ));
            }),
        });
        // Incremental snapshot engine: one boundary advance under a
        // study-shaped delta (every surviving link reweighted, ~1% of
        // links churned) vs the full rebuild it replaces. The timing
        // loop applies an A->B delta then its B->A inverse, so the
        // engine lands back on A every cycle; one sync = half a cycle.
        let nodes_a: Vec<u32> = (0..n as u32).collect();
        let mut edges_a: Vec<(u32, u32, u64)> = g
            .edges()
            .map(|e| (e.from.index() as u32, e.to.index() as u32, e.weight.max(1)))
            .collect();
        edges_a.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let cut = edges_a.len() / 100;
        let mut edges_b: Vec<(u32, u32, u64)> = edges_a[cut..]
            .iter()
            .map(|&(u, v, w)| (u, v, w + 1))
            .collect();
        edges_b.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let base = IncrementalTopology::from_snapshot(&nodes_a, &edges_a);
        let d_ab = CsrDelta::diff_snapshot(&base, &nodes_a, &edges_b);
        let other = IncrementalTopology::from_snapshot(&nodes_a, &edges_b);
        let d_ba = CsrDelta::diff_snapshot(&other, &nodes_a, &edges_a);
        let mut live = base;
        rows.push(Row {
            name: "study_incremental_sync",
            n,
            threads: 1,
            ns_per_op: time_ns(|| {
                live.apply_delta(black_box(&d_ab));
                live.apply_delta(black_box(&d_ba));
            }) / 2.0,
        });
        rows.push(Row {
            name: "study_incremental_rebuild",
            n,
            threads: 1,
            ns_per_op: time_ns(|| {
                black_box(IncrementalTopology::from_snapshot(
                    black_box(&nodes_a),
                    black_box(&edges_a),
                ));
            }),
        });

        legacy_rows.push(Row {
            name: "clustering_digraph_walk",
            n,
            threads: 1,
            ns_per_op: time_ns(|| {
                black_box(legacy_clustering(black_box(&g)));
            }),
        });
        let src = NodeId::from_index(0);
        legacy_rows.push(Row {
            name: "bfs_digraph_walk",
            n,
            threads: 1,
            ns_per_op: time_ns(|| {
                black_box(legacy_bfs(black_box(&g), src));
            }),
        });
        legacy_rows.push(Row {
            name: "bfs_csr",
            n,
            threads: 1,
            ns_per_op: time_ns(|| {
                black_box(magellan_graph::paths::bfs_distances_csr(
                    black_box(&csr),
                    src,
                    PathTreatment::Undirected,
                ));
            }),
        });
    }

    // Service ingest throughput — the per-datagram admission path of
    // magellan-traced (wire decode + window/dedup checks + bounded
    // pending queue), measured sans-I/O on one shard so the number is
    // pure CPU cost, not socket overhead. Each timed pass replays the
    // whole bench window through a fresh shard and drains it once at
    // the end, i.e. one full seal cycle. reports/sec is per shard;
    // the service scales it by --shards until the wire saturates.
    eprintln!("service ingest throughput ...");
    let ingest_payloads: Vec<Vec<u8>> = bench_trace()
        .store
        .reports()
        .iter()
        .map(|r| magellan_trace::wire::encode(r).to_vec())
        .collect();
    let ingest_window_end = SimTime::at(BENCH_DAYS, 0, 0);
    let ns_per_report = time_ns(|| {
        let mut shard = Shard::new(ingest_window_end, 1 << 20);
        for p in &ingest_payloads {
            black_box(shard.ingest_wire(black_box(p)));
        }
        black_box(shard.drain_below(ingest_window_end));
    }) / ingest_payloads.len() as f64;
    let ingest = (
        ingest_payloads.len(),
        ns_per_report,
        1e9 / ns_per_report.max(1.0),
    );

    // Lint-gate wall time — the fixed cost every scripts/check.sh run
    // pays: one full pass over the tree (the gate keeps no cache). The
    // row is absent when the release binary is missing (bench.sh
    // builds it) or the run fails.
    let lint_bin = std::path::Path::new("target/release/magellan-lint");
    let mut lint_ms: Option<f64> = None;
    if lint_bin.is_file() {
        eprintln!("lint gate ...");
        let start = Instant::now();
        let status = std::process::Command::new(lint_bin)
            .stdout(std::process::Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => lint_ms = Some(start.elapsed().as_secs_f64() * 1e3),
            _ => eprintln!("lint gate run failed; dropping the lint row"),
        }
    } else {
        eprintln!("target/release/magellan-lint missing; skipping the lint row");
    }

    // End-to-end: one full quick study (12 sample boundaries) per
    // thread count. The study includes the simulation itself, so this
    // is the pipeline latency a user actually sees.
    let mut end_to_end = Vec::new();
    for &t in &thread_counts {
        eprintln!("end-to-end study, threads = {t} ...");
        magellan_par::set_threads(t);
        let study = MagellanStudy::new(quick_study(0xBEEF));
        let start = Instant::now();
        let report = black_box(study.run());
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        let samples = report.fig1a.total.len().max(1);
        end_to_end.push((t, total_ms, samples));
    }
    magellan_par::set_threads(0);

    // Debug metadata: the worker pool as the studies above left it.
    // Workers spawn lazily on first dispatch and live for the process,
    // so after the end-to-end runs this records how many threads the
    // baseline actually exercised; queue_depth should read 0 between
    // dispatches (a nonzero value here means a wedged drain).
    let pool = magellan_par::pool_stats();

    // Hand-rolled JSON (no serializer dependency in the bench crate).
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!(
        "  \"pool\": {{\"workers\": {}, \"queue_depth\": {}}},\n",
        pool.workers, pool.queue_depth
    ));
    out.push_str(&format!(
        "  \"threads_measured\": [{}],\n",
        thread_counts.map(|t| t.to_string()).join(", ")
    ));
    let emit = |rows: &[Row]| {
        rows.iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"n\": {}, \"threads\": {}, \"ns_per_op\": {:.1}}}",
                    r.name, r.n, r.threads, r.ns_per_op
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    out.push_str("  \"kernels\": [\n");
    out.push_str(&emit(&rows));
    out.push_str("\n  ],\n");
    out.push_str("  \"legacy_baseline\": [\n");
    out.push_str(&emit(&legacy_rows));
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"service_ingest\": {{\"reports\": {}, \"ns_per_report\": {:.1}, \"reports_per_sec\": {:.0}}},\n",
        ingest.0, ingest.1, ingest.2
    ));
    out.push_str("  \"lint_gate\": [\n");
    if let Some(ms) = lint_ms {
        out.push_str(&format!(
            "    {{\"phase\": \"cold\", \"wall_ms\": {ms:.1}}}"
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"end_to_end_study\": [\n");
    out.push_str(
        &end_to_end
            .iter()
            .map(|(t, ms, samples)| {
                format!(
                    "    {{\"threads\": {t}, \"total_ms\": {ms:.1}, \"samples\": {samples}, \"ms_per_sample\": {:.2}}}",
                    ms / *samples as f64
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    out.push_str("\n  ]\n}\n");
    print!("{out}");
}
