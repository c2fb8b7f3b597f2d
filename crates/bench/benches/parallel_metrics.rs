//! Thread-scaling benches of the Csr metric kernels.
//!
//! Complements `metrics_micro` (which times the kernels at the default
//! worker count): here the deterministic fork-join kernels run over
//! one generated [`Csr`] per scale at 1 and 8 workers, so the delta is
//! purely scheduling. `scripts/bench.sh` runs the
//! machine-readable variant (`bench_metrics` bin); this harness is the
//! quick interactive smoke check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use magellan_graph::clustering::clustering_coefficient_csr;
use magellan_graph::kcore::core_decomposition_csr;
use magellan_graph::paths::{average_path_length_csr, PathSampling, PathTreatment};
use magellan_graph::random::watts_strogatz;
use magellan_graph::reciprocity::garlaschelli_reciprocity_csr;
use magellan_graph::{Csr, DiGraph};
use std::hint::black_box;

const THREADS: [usize; 2] = [1, 8];

fn bench_csr_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_csr_build");
    g.sample_size(20);
    for &n in &[500usize, 2_000, 8_000] {
        // The keyed build the flat view is timed from, filled from the
        // generated graph's rows.
        let ws = watts_strogatz(n, 8, 0.1, 1);
        let mut keyed: DiGraph<usize> = DiGraph::with_capacity(n);
        for u in ws.node_ids() {
            keyed.intern(u.index());
        }
        for u in ws.node_ids() {
            for (&v, &w) in ws.out(u).iter().zip(ws.out_weights(u)) {
                keyed.add_edge(u, v, w);
            }
        }
        g.bench_with_input(BenchmarkId::from_parameter(n), &keyed, |b, keyed| {
            b.iter(|| black_box(Csr::from_digraph(black_box(keyed))))
        });
    }
    g.finish();
}

fn bench_clustering_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_clustering");
    g.sample_size(15);
    for &n in &[500usize, 2_000, 8_000] {
        let csr = watts_strogatz(n, 8, 0.1, 1);
        for t in THREADS {
            magellan_par::set_threads(t);
            g.bench_with_input(BenchmarkId::new(format!("t{t}"), n), &csr, |b, csr| {
                b.iter(|| black_box(clustering_coefficient_csr(black_box(csr))))
            });
        }
    }
    magellan_par::set_threads(0);
    g.finish();
}

fn bench_paths_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_apl_sampled64");
    g.sample_size(10);
    let sampling = PathSampling::Sources { count: 64, seed: 5 };
    for &n in &[500usize, 2_000, 8_000] {
        let csr = watts_strogatz(n, 8, 0.1, 1);
        for t in THREADS {
            magellan_par::set_threads(t);
            g.bench_with_input(BenchmarkId::new(format!("t{t}"), n), &csr, |b, csr| {
                b.iter(|| {
                    black_box(average_path_length_csr(
                        black_box(csr),
                        PathTreatment::Undirected,
                        sampling,
                    ))
                })
            });
        }
    }
    magellan_par::set_threads(0);
    g.finish();
}

fn bench_reciprocity_and_kcore(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_reciprocity_kcore");
    g.sample_size(20);
    for &n in &[2_000usize, 8_000] {
        let csr = watts_strogatz(n, 8, 0.1, 1);
        for t in THREADS {
            magellan_par::set_threads(t);
            g.bench_with_input(BenchmarkId::new(format!("rho_t{t}"), n), &csr, |b, csr| {
                b.iter(|| black_box(garlaschelli_reciprocity_csr(black_box(csr))))
            });
        }
        magellan_par::set_threads(1);
        g.bench_with_input(BenchmarkId::new("kcore", n), &csr, |b, csr| {
            b.iter(|| black_box(core_decomposition_csr(black_box(csr))))
        });
    }
    magellan_par::set_threads(0);
    g.finish();
}

criterion_group!(
    benches,
    bench_csr_build,
    bench_clustering_scaling,
    bench_paths_scaling,
    bench_reciprocity_and_kcore
);
criterion_main!(benches);
