//! Cross-crate validation of the metric implementations against
//! graphs with known properties, through the same code paths the
//! study uses.

use magellan::graph::clustering::{clustering_coefficient_csr, sampled_clustering_csr};
use magellan::graph::degree::{degree_sequence, DegreeKind};
use magellan::graph::paths::{average_path_length_csr, PathSampling, PathTreatment};
use magellan::graph::powerlaw;
use magellan::graph::random::{
    barabasi_albert, gnm_directed, gnm_undirected, measured_baseline, watts_strogatz,
    RandomBaseline,
};
use magellan::graph::reciprocity::{garlaschelli_reciprocity_csr, simple_reciprocity_checked_csr};
use magellan::graph::smallworld::{assess_csr, SmallWorldConfig};
use magellan::graph::Csr;

#[test]
fn watts_strogatz_passes_the_small_world_test_er_fails() {
    let ws = watts_strogatz(500, 8, 0.08, 11);
    let er = gnm_undirected(500, 2_000, 11);
    let cfg = SmallWorldConfig::default();
    assert!(assess_csr(&ws, &cfg).is_small_world, "WS not small world");
    assert!(
        !assess_csr(&er, &cfg).is_small_world,
        "ER flagged small world"
    );
}

#[test]
fn ba_degrees_look_power_law_ws_degrees_do_not() {
    let ba = barabasi_albert(4_000, 2, 5);
    let ba_deg = degree_sequence(&ba, DegreeKind::Undirected);
    let v = powerlaw::assess(&ba_deg).unwrap();
    assert!(
        v.plausible,
        "BA rejected: ks {} thr {}",
        v.fit.ks, v.threshold
    );

    let ws = watts_strogatz(4_000, 8, 0.05, 5);
    let ws_deg = degree_sequence(&ws, DegreeKind::Undirected);
    let v = powerlaw::assess(&ws_deg).unwrap();
    assert!(!v.plausible, "WS accepted as power law");
}

#[test]
fn er_reciprocity_is_near_zero_and_symmetrized_is_one() {
    let g = gnm_directed(800, 4_000, 9);
    let rho = garlaschelli_reciprocity_csr(&g).unwrap();
    assert!(rho.abs() < 0.05, "ER rho = {rho}");

    // Symmetrize: every edge plus its reverse.
    let edges: Vec<_> = g
        .node_ids()
        .flat_map(|u| g.out(u).iter().flat_map(move |&v| [(u, v, 1), (v, u, 1)]))
        .collect();
    let sym = Csr::from_edges(g.node_count(), &edges);
    let r_sym = simple_reciprocity_checked_csr(&sym).unwrap_or(0.0);
    assert!((r_sym - 1.0).abs() < 1e-12);
    let rho_sym = garlaschelli_reciprocity_csr(&sym).unwrap();
    assert!((rho_sym - 1.0).abs() < 1e-9, "sym rho = {rho_sym}");
}

#[test]
fn analytic_and_measured_er_baselines_agree() {
    let n = 600;
    let m = 3_000;
    let analytic = RandomBaseline::analytic(n, m);
    let measured = measured_baseline(n, m, 3, PathSampling::Exact);
    assert!((measured.c - analytic.c_expected).abs() < 0.01);
    let l = measured.l.unwrap();
    let le = analytic.l_expected.unwrap();
    assert!((l - le).abs() < 0.6, "L measured {l} vs analytic {le}");
}

#[test]
fn lattice_metrics_are_exact() {
    // Ring lattice k=4: C = 1/2, known closed form.
    let lattice = watts_strogatz(100, 4, 0.0, 0);
    assert!((clustering_coefficient_csr(&lattice) - 0.5).abs() < 1e-9);
    // Average path on an n-ring with k=4 grows ~ n/8 — far above ER.
    let l = average_path_length_csr(&lattice, PathTreatment::Undirected, PathSampling::Exact)
        .unwrap()
        .mean;
    assert!(l > 5.0, "lattice L = {l}");
}

#[test]
fn sampled_estimators_track_exact_values() {
    let g = watts_strogatz(1_000, 8, 0.1, 21);
    let exact_l = average_path_length_csr(&g, PathTreatment::Undirected, PathSampling::Exact)
        .unwrap()
        .mean;
    let sampled_l = average_path_length_csr(
        &g,
        PathTreatment::Undirected,
        PathSampling::Sources {
            count: 100,
            seed: 2,
        },
    )
    .unwrap()
    .mean;
    assert!(
        (exact_l - sampled_l).abs() / exact_l < 0.05,
        "exact {exact_l} vs sampled {sampled_l}"
    );
    let exact_c = clustering_coefficient_csr(&g);
    let sampled_c = sampled_clustering_csr(&g, 300, 4);
    assert!(
        (exact_c - sampled_c).abs() < 0.05,
        "exact {exact_c} vs sampled {sampled_c}"
    );
}
