//! Fig. 6 — intra-ISP fractions of active degrees.
//!
//! Prints the regenerated intra-ISP in/outdegree fraction curve, then
//! times the per-snapshot table pass that computes it (one ISP lookup
//! per distinct address).

use criterion::{criterion_group, criterion_main, Criterion};
use magellan_analysis::graphs::{isp_share_baseline, SnapshotTable};
use magellan_bench::{bench_trace, peak_snapshot, sample_instants};
use magellan_trace::SnapshotBuilder;
use std::hint::black_box;

fn print_figure() {
    let trace = bench_trace();
    println!(
        "--- Fig 6: intra-ISP degree fractions (mixing baseline {:.3}) ---",
        isp_share_baseline(&trace.db)
    );
    for &t in &sample_instants() {
        let snap = SnapshotBuilder::new(&trace.store).at(t);
        let reports: Vec<_> = snap.reports().collect();
        let d = SnapshotTable::build(&reports, &trace.db).degrees;
        println!(
            "{t}: indegree {:.3}  outdegree {:.3}",
            d.intra_in, d.intra_out
        );
    }
}

fn bench(c: &mut Criterion) {
    print_figure();
    let trace = bench_trace();
    let reports = peak_snapshot();

    let mut g = c.benchmark_group("fig6_intra_isp");
    g.sample_size(50);
    g.bench_function("snapshot_table", |b| {
        b.iter(|| black_box(SnapshotTable::build(black_box(&reports), &trace.db)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
