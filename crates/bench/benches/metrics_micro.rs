//! Micro-benchmarks of the graph metrics on synthetic topologies.
//!
//! These size the cost of each metric independent of the streaming
//! pipeline: Erdős–Rényi, Watts–Strogatz and Barabási–Albert graphs
//! at several sizes, through clustering, path lengths (exact and
//! sampled), reciprocity, and power-law fitting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use magellan_graph::clustering::{clustering_coefficient_csr, sampled_clustering_csr};
use magellan_graph::degree::{degree_sequence, DegreeKind};
use magellan_graph::paths::{average_path_length_csr, PathSampling, PathTreatment};
use magellan_graph::powerlaw;
use magellan_graph::random::{barabasi_albert, gnm_directed, gnm_undirected, watts_strogatz};
use magellan_graph::reciprocity::garlaschelli_reciprocity_csr;
use std::hint::black_box;

fn bench_clustering(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_clustering");
    g.sample_size(15);
    for &n in &[200usize, 800, 2_000] {
        let ws = watts_strogatz(n, 8, 0.1, 1);
        g.bench_with_input(BenchmarkId::new("exact_ws", n), &ws, |b, ws| {
            b.iter(|| black_box(clustering_coefficient_csr(black_box(ws))))
        });
        g.bench_with_input(BenchmarkId::new("sampled_200_ws", n), &ws, |b, ws| {
            b.iter(|| black_box(sampled_clustering_csr(black_box(ws), 200, 3)))
        });
    }
    g.finish();
}

fn bench_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_paths");
    g.sample_size(10);
    for &n in &[200usize, 800, 2_000] {
        let er = gnm_undirected(n, n * 4, 2);
        g.bench_with_input(BenchmarkId::new("exact_er", n), &er, |b, er| {
            b.iter(|| {
                black_box(average_path_length_csr(
                    black_box(er),
                    PathTreatment::Undirected,
                    PathSampling::Exact,
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("sampled_32_er", n), &er, |b, er| {
            b.iter(|| {
                black_box(average_path_length_csr(
                    black_box(er),
                    PathTreatment::Undirected,
                    PathSampling::Sources { count: 32, seed: 5 },
                ))
            })
        });
    }
    g.finish();
}

fn bench_reciprocity(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_reciprocity");
    g.sample_size(20);
    for &n in &[500usize, 2_000, 8_000] {
        let d = gnm_directed(n, n * 6, 4);
        g.bench_with_input(BenchmarkId::new("rho_er", n), &d, |b, d| {
            b.iter(|| black_box(garlaschelli_reciprocity_csr(black_box(d))))
        });
    }
    g.finish();
}

fn bench_powerlaw(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_powerlaw");
    g.sample_size(10);
    let ba = barabasi_albert(5_000, 3, 6);
    let degrees = degree_sequence(&ba, DegreeKind::Undirected);
    g.bench_function("assess_ba_5000", |b| {
        b.iter(|| black_box(powerlaw::assess(black_box(&degrees))))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_clustering,
    bench_paths,
    bench_reciprocity,
    bench_powerlaw
);
criterion_main!(benches);
