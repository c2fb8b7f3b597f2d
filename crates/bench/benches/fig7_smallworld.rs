//! Fig. 7 — small-world metrics of the stable-peer graph.
//!
//! Prints the regenerated clustering / path-length numbers for the
//! global graph and the Netcom subgraph at the bench peak, then times
//! graph construction, exact clustering, and exact/sampled path
//! lengths — the dominant costs of the whole study pipeline. Every
//! graph is built the way the study builds it: the snapshot's
//! all-known topology, the stable-peer graph its reporters induce, and
//! one ISP's induced subgraph for panel B.

use criterion::{criterion_group, criterion_main, Criterion};
use magellan_analysis::graphs::SnapshotTable;
use magellan_bench::{bench_trace, peak_snapshot};
use magellan_graph::clustering::clustering_coefficient_csr;
use magellan_graph::paths::{average_path_length_csr, PathSampling, PathTreatment};
use magellan_graph::smallworld::{assess_csr, SmallWorldConfig};
use magellan_graph::Csr;
use magellan_netsim::{Isp, IspDatabase};
use magellan_trace::PeerReport;
use std::hint::black_box;

/// The stable-peer graph of `reports` and its nodes' ISPs.
fn stable_graph(reports: &[PeerReport], db: &IspDatabase) -> (Csr, Vec<Isp>) {
    let table = SnapshotTable::build(reports, db);
    let full = Csr::from_edges(table.nodes.len(), &table.edges);
    (
        full.induced(|id| id.index() < table.reporters),
        table.node_isps,
    )
}

fn print_figure() {
    let trace = bench_trace();
    let (g, isps) = stable_graph(&peak_snapshot(), &trace.db);
    let cfg = SmallWorldConfig::default();
    let global = assess_csr(&g, &cfg);
    println!("--- Fig 7(A) at bench peak ---");
    println!(
        "n {} | und. edges {} | C {:.3} vs C_rand {:.4} | L {:?} vs L_rand {:?} | small world: {}",
        global.n,
        global.undirected_edges,
        global.c,
        global.c_rand,
        global.l,
        global.l_rand,
        global.is_small_world
    );
    let sub = g.induced(|id| isps[id.index()] == Isp::Netcom);
    let isp = assess_csr(&sub, &cfg);
    println!("--- Fig 7(B): China Netcom subgraph ---");
    println!(
        "n {} | C {:.3} vs C_rand {:.4} | L {:?} vs L_rand {:?}",
        isp.n, isp.c, isp.c_rand, isp.l, isp.l_rand
    );
}

fn bench(c: &mut Criterion) {
    print_figure();
    let trace = bench_trace();
    let reports = peak_snapshot();
    let (g, _) = stable_graph(&reports, &trace.db);

    let mut grp = c.benchmark_group("fig7_smallworld");
    grp.sample_size(20);
    grp.bench_function("graph_construction", |b| {
        b.iter(|| black_box(stable_graph(black_box(&reports), &trace.db)))
    });
    grp.bench_function("clustering_exact", |b| {
        b.iter(|| black_box(clustering_coefficient_csr(black_box(&g))))
    });
    grp.bench_function("paths_exact", |b| {
        b.iter(|| {
            black_box(average_path_length_csr(
                black_box(&g),
                PathTreatment::Undirected,
                PathSampling::Exact,
            ))
        })
    });
    grp.bench_function("paths_sampled_32", |b| {
        b.iter(|| {
            black_box(average_path_length_csr(
                black_box(&g),
                PathTreatment::Undirected,
                PathSampling::Sources { count: 32, seed: 7 },
            ))
        })
    });
    grp.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
