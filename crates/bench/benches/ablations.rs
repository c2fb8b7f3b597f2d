//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! 1. **Selection policy** — quality-driven vs random partner
//!    selection: printed comparison of intra-ISP clustering (Fig. 6)
//!    and reciprocity (Fig. 8); the mechanism claim of §4.2.3.
//! 2. **Volunteer bootstrap** — with vs without the volunteer list:
//!    printed comparison of streaming quality (Fig. 3).
//! 3. **Estimators** — exact vs sampled clustering / path length:
//!    timed, with the approximation error printed.
//! 4. **Report interval** — 10- vs 20-minute reporting: printed
//!    population-estimate fidelity.

use criterion::{criterion_group, criterion_main, Criterion};
use magellan_analysis::graphs::SnapshotTable;
use magellan_analysis::study::MagellanStudy;
use magellan_bench::{bench_trace, peak_snapshot, quick_study};
use magellan_graph::clustering::{clustering_coefficient_csr, sampled_clustering_csr};
use magellan_graph::paths::{average_path_length_csr, PathSampling, PathTreatment};
use magellan_graph::Csr;
use std::hint::black_box;

fn ablation_selection_and_volunteer() {
    let base = quick_study(0xAB1);
    let quality = MagellanStudy::new(base.clone()).run();

    let mut random_cfg = base.clone();
    random_cfg.sim.random_selection = true;
    let random = MagellanStudy::new(random_cfg).run();

    let mut novol_cfg = base;
    novol_cfg.sim.disable_volunteer = true;
    let novol = MagellanStudy::new(novol_cfg).run();

    println!("--- ablation 1: selection policy (quality vs random) ---");
    println!(
        "intra-ISP indegree fraction: {:.3} vs {:.3} (baseline {:.3})",
        quality.fig6.indegree.mean(),
        random.fig6.indegree.mean(),
        quality.fig6.baseline
    );
    println!(
        "reciprocity rho            : {:.3} vs {:.3}",
        quality.fig8.all.mean(),
        random.fig8.all.mean()
    );
    let mut locality_cfg = quick_study(0xAB1);
    locality_cfg.sim.tracker_locality_fraction = 0.7;
    let locality = MagellanStudy::new(locality_cfg).run();
    println!("--- extension: ISP-locality-aware tracker (0.7) vs oblivious ---");
    println!(
        "intra-ISP partner pool     : {:.3} vs {:.3}",
        locality.fig6.pool.mean(),
        quality.fig6.pool.mean()
    );
    println!("--- ablation 2: volunteer bootstrap (on vs off) ---");
    println!(
        "CCTV1 satisfied fraction   : {:.3} vs {:.3}",
        quality.fig3.cctv1.mean(),
        novol.fig3.cctv1.mean()
    );
    println!(
        "mean partner count         : {:.1} vs {:.1}",
        quality.fig5.partners.mean(),
        novol.fig5.partners.mean()
    );
}

fn ablation_estimators(c: &mut Criterion) {
    // The study's stable-peer graph: the reporter prefix of the
    // snapshot's all-known topology.
    let table = SnapshotTable::build(&peak_snapshot(), &bench_trace().db);
    let g =
        Csr::from_edges(table.nodes.len(), &table.edges).induced(|id| id.index() < table.reporters);
    let c_exact = clustering_coefficient_csr(&g);
    let c_sampled = sampled_clustering_csr(&g, 64, 9);
    let l_exact = average_path_length_csr(&g, PathTreatment::Undirected, PathSampling::Exact);
    let l_sampled = average_path_length_csr(
        &g,
        PathTreatment::Undirected,
        PathSampling::Sources { count: 32, seed: 9 },
    );
    println!("--- ablation 3: estimator accuracy on the bench graph ---");
    println!("C exact {c_exact:.4} vs sampled(64) {c_sampled:.4}");
    println!(
        "L exact {:?} vs sampled(32) {:?}",
        l_exact.map(|s| s.mean),
        l_sampled.map(|s| s.mean)
    );

    let mut grp = c.benchmark_group("ablation_estimators");
    grp.sample_size(20);
    grp.bench_function("clustering_exact", |b| {
        b.iter(|| black_box(clustering_coefficient_csr(black_box(&g))))
    });
    grp.bench_function("clustering_sampled_64", |b| {
        b.iter(|| black_box(sampled_clustering_csr(black_box(&g), 64, 9)))
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
                PathSampling::Sources { count: 32, seed: 9 },
            ))
        })
    });
    grp.finish();
}

fn ablation_report_interval() {
    // The report interval is a compile-spec constant of the trace
    // schema (§3.2), so the sensitivity probe varies the *sampling*
    // side instead: how much does halving the analysis cadence move
    // the population estimate?
    use magellan_netsim::SimDuration;
    let mut fine_cfg = quick_study(0xAB2);
    fine_cfg.sample_every = SimDuration::from_mins(30);
    let fine = MagellanStudy::new(fine_cfg).run();
    let mut coarse_cfg = quick_study(0xAB2);
    coarse_cfg.sample_every = SimDuration::from_mins(120);
    let coarse = MagellanStudy::new(coarse_cfg).run();
    println!("--- ablation 4: sampling cadence (30 vs 120 minutes) ---");
    println!(
        "mean stable population: {:.1} vs {:.1}",
        fine.fig1a.stable.mean(),
        coarse.fig1a.stable.mean()
    );
    println!(
        "mean reciprocity      : {:.3} vs {:.3}",
        fine.fig8.all.mean(),
        coarse.fig8.all.mean()
    );
}

fn bench(c: &mut Criterion) {
    ablation_selection_and_volunteer();
    ablation_report_interval();
    ablation_estimators(c);
}

criterion_group!(benches, bench);
criterion_main!(benches);
