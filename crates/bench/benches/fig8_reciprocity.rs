//! Fig. 8 — edge reciprocity.
//!
//! Prints the regenerated ρ for the whole topology and its intra-/
//! inter-ISP splits at the bench peak, then times graph construction,
//! the one-sweep ISP edge split, and the ρ computation itself — each
//! the way the study runs it, on the snapshot's all-known topology.

use criterion::{criterion_group, criterion_main, Criterion};
use magellan_analysis::graphs::SnapshotTable;
use magellan_bench::{bench_trace, peak_snapshot};
use magellan_graph::reciprocity::{
    garlaschelli_reciprocity_csr, label_split_link_counts_csr, simple_reciprocity_checked_csr,
};
use magellan_graph::Csr;
use magellan_netsim::{Isp, IspDatabase};
use magellan_trace::PeerReport;
use std::hint::black_box;

/// The all-known topology of `reports` and its nodes' ISPs.
fn all_known(reports: &[PeerReport], db: &IspDatabase) -> (Csr, Vec<Isp>) {
    let table = SnapshotTable::build(reports, db);
    let g = Csr::from_edges(table.nodes.len(), &table.edges);
    (g, table.node_isps)
}

fn print_figure() {
    let trace = bench_trace();
    let (g, isps) = all_known(&peak_snapshot(), &trace.db);
    let (intra, inter) = label_split_link_counts_csr(&g, &isps);
    println!("--- Fig 8 at bench peak ---");
    println!(
        "all   : n {} m {} r {:.3} rho {:?}",
        g.node_count(),
        g.edge_count(),
        simple_reciprocity_checked_csr(&g).unwrap_or(0.0),
        garlaschelli_reciprocity_csr(&g)
    );
    println!(
        "intra : n {} m {} rho {:?}",
        intra.nodes,
        intra.edges,
        intra.garlaschelli()
    );
    println!(
        "inter : n {} m {} rho {:?}",
        inter.nodes,
        inter.edges,
        inter.garlaschelli()
    );
}

fn bench(c: &mut Criterion) {
    print_figure();
    let trace = bench_trace();
    let reports = peak_snapshot();
    let (g, isps) = all_known(&reports, &trace.db);

    let mut grp = c.benchmark_group("fig8_reciprocity");
    grp.sample_size(30);
    grp.bench_function("graph_construction_all_known", |b| {
        b.iter(|| black_box(all_known(black_box(&reports), &trace.db)))
    });
    grp.bench_function("rho", |b| {
        b.iter(|| black_box(garlaschelli_reciprocity_csr(black_box(&g))))
    });
    grp.bench_function("isp_edge_split", |b| {
        b.iter(|| black_box(label_split_link_counts_csr(black_box(&g), &isps)))
    });
    grp.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
