//! A topology characterization of one overlay snapshot — the
//! `magellan-graph` metrics applied to the simulated UUSee
//! mesh, the way a measurement paper's "graph properties" table would
//! present it, with ER/WS/BA reference topologies alongside.
//!
//! ```text
//! cargo run --release --example topology_report -- [--scale 0.002]
//! ```

use magellan::analysis::graphs::SnapshotTable;
use magellan::graph::clustering::clustering_coefficient_csr;
use magellan::graph::degree::{average_degree, degree_histogram, DegreeKind};
use magellan::graph::kcore::core_decomposition_csr;
use magellan::graph::paths::{average_path_length_csr, PathSampling, PathTreatment};
use magellan::graph::powerlaw;
use magellan::graph::random::{barabasi_albert, gnm_undirected, watts_strogatz, RandomBaseline};
use magellan::graph::reciprocity::{garlaschelli_reciprocity_csr, simple_reciprocity_checked_csr};
use magellan::graph::Csr;
use magellan::netsim::{SimTime, StudyCalendar};
use magellan::overlay::{OverlaySim, SimConfig};
use magellan::prelude::*;
use magellan::trace::SnapshotBuilder;

fn arg(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn characterize(name: &str, g: &Csr) {
    let n = g.node_count();
    let m_und = g.und_edge_count();
    let c = clustering_coefficient_csr(g);
    let l = average_path_length_csr(g, PathTreatment::Undirected, PathSampling::Exact)
        .map(|s| s.mean)
        .unwrap_or(f64::NAN);
    let baseline = RandomBaseline::analytic(n, m_und);
    let r = simple_reciprocity_checked_csr(g).unwrap_or(0.0);
    let rho = garlaschelli_reciprocity_csr(g)
        .map(|v| format!("{v:+.3}"))
        .unwrap_or("n/a".into());
    let h = degree_histogram(g, DegreeKind::Undirected);
    let pl = powerlaw::assess(&h.to_samples())
        .map(|v| {
            format!(
                "{} (alpha {:.2}, ks {:.3})",
                if v.plausible { "plausible" } else { "rejected" },
                v.fit.alpha,
                v.fit.ks
            )
        })
        .unwrap_or_else(|e| format!("n/a ({e})"));
    println!("== {name} ==");
    println!("  nodes {n}, undirected edges {m_und}");
    println!(
        "  degree: mean {:.1}, spike {:?}, max {:?}",
        average_degree(g, DegreeKind::Undirected),
        h.spike(),
        h.max_degree()
    );
    println!(
        "  clustering C {:.3} vs C_rand {:.4}",
        c, baseline.c_expected
    );
    println!(
        "  path length L {:.2} vs L_rand {}",
        l,
        baseline
            .l_expected
            .map(|v| format!("{v:.2}"))
            .unwrap_or("n/a".into())
    );
    let cores = core_decomposition_csr(g);
    println!("  reciprocity r {r:.3}, rho {rho}");
    println!(
        "  k-core: degeneracy {}, deepest-core size {}",
        cores.degeneracy(),
        cores.core_size(cores.degeneracy())
    );
    println!("  power law: {pl}\n");
}

fn main() {
    let scale = arg("--scale", 0.002);
    println!("Topology characterization — scale {scale}\n");

    // Simulate one day and snapshot the evening peak.
    let scenario = Scenario::builder(70_000, scale)
        .calendar(StudyCalendar { window_days: 1 })
        .build();
    let mut sim = OverlaySim::new(scenario, SimConfig::default());
    let db = sim.isp_database().clone();
    let (store, summary) = sim
        .run_collecting()
        .expect("example scenario is self-consistent");
    println!(
        "simulated {} joins, {} reports, peak {} concurrent\n",
        summary.joins, summary.reports, summary.peak_concurrent
    );
    let snap = SnapshotBuilder::new(&store).at(SimTime::at(0, 21, 0));
    // The study's route: the snapshot's all-known topology, then the
    // stable-peer graph its reporters induce.
    let reports: Vec<_> = snap.reports().collect();
    let table = SnapshotTable::build(&reports, &db);
    let overlay =
        Csr::from_edges(table.nodes.len(), &table.edges).induced(|id| id.index() < table.reporters);
    characterize("UUSee stable-peer overlay (9 p.m.)", &overlay);

    // Matched references.
    let n = overlay.node_count().max(10);
    let m = overlay.und_edge_count().max(20);
    characterize("Erdős–Rényi G(n, m) match", &gnm_undirected(n, m, 1));
    let k = ((2 * m) / n).max(2) & !1usize; // even mean degree
    if k < n {
        characterize(
            "Watts–Strogatz (same n, k, beta 0.1)",
            &watts_strogatz(n, k.max(2), 0.1, 2),
        );
    }
    let ba_m = (m / n).max(1);
    characterize("Barabási–Albert (same n, m)", &barabasi_albert(n, ba_m, 3));

    println!(
        "reading: the overlay clusters like WS, stays reciprocal unlike BA/ER,\n\
         and its degree distribution is spiked where BA's is a power law —\n\
         the combination the paper uses to distinguish streaming meshes from\n\
         file-sharing overlays."
    );
}
