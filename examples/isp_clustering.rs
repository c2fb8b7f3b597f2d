//! ISP-level "natural clustering" (paper §4.2.3 & §4.3, Figs. 6 & 7).
//!
//! The UUSee protocol never looks at ISP labels, yet its topology
//! clusters inside ISPs because intra-ISP paths have better measured
//! throughput/RTT and the active-set selection chases quality. This
//! example demonstrates the mechanism by running the same workload
//! twice: with quality-driven selection and with the
//! `random_selection` ablation — under random selection the intra-ISP
//! degree fraction collapses to the ISP-share mixing baseline.
//!
//! ```text
//! cargo run --release --example isp_clustering -- [--scale 0.002]
//! ```

use magellan::analysis::study::StudyConfig;
use magellan::netsim::SimDuration;
use magellan::prelude::*;

fn arg(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn config(scale: f64, random_selection: bool) -> StudyConfig {
    let mut cfg = StudyConfig {
        seed: 7,
        scale,
        window_days: 2,
        sample_every: SimDuration::from_mins(60),
        ..StudyConfig::default()
    };
    cfg.sim.random_selection = random_selection;
    cfg
}

fn main() {
    let scale = arg("--scale", 0.002);
    println!("ISP clustering study — scale {scale}\n");

    let quality = MagellanStudy::new(config(scale, false)).run();
    let random = MagellanStudy::new(config(scale, true)).run();

    print!("{}", quality.fig6.render_text());
    print!("{}", quality.fig7.render_text());
    print!("{}", quality.fig8.render_text());

    // The paper: "Similar properties were observed for sub topologies
    // for other ISPs as well." Check every populated China ISP at one
    // evening snapshot.
    {
        use magellan::analysis::graphs::SnapshotTable;
        use magellan::graph::smallworld::{assess_csr, SmallWorldConfig};
        use magellan::graph::Csr;
        use magellan::netsim::{Isp, IspDatabase, SimTime};
        use magellan::overlay::OverlaySim;
        use magellan::trace::SnapshotBuilder;
        let cfg = config(scale, false);
        let scenario = cfg.scenario();
        let mut sim = OverlaySim::new(scenario, cfg.sim.clone());
        let db: IspDatabase = sim.isp_database().clone();
        let (store, _) = sim
            .run_collecting()
            .expect("example scenario is self-consistent");
        let snap = SnapshotBuilder::new(&store).at(SimTime::at(1, 21, 0));
        // The study's route to Fig. 7B: the snapshot's all-known
        // topology, the stable-peer graph its reporters induce, then
        // one ISP's induced subgraph per panel.
        let reports: Vec<_> = snap.reports().collect();
        let table = SnapshotTable::build(&reports, &db);
        let stable = Csr::from_edges(table.nodes.len(), &table.edges)
            .induced(|id| id.index() < table.reporters);
        println!("\nper-ISP small-world panels at Mon 9 p.m.:");
        for isp in Isp::ALL.into_iter().filter(|isp| isp.is_china()) {
            let sub = stable.induced(|id| table.node_isps[id.index()] == isp);
            if sub.node_count() < 8 {
                continue;
            }
            let r = assess_csr(&sub, &SmallWorldConfig::default());
            println!(
                "  {:<14} n {:>4} | C {:.3} vs C_rand {:.4} | L {:?}",
                isp.name(),
                r.n,
                r.c,
                r.c_rand,
                r.l
            );
        }
    }

    println!("\n--- ablation: quality-driven vs random selection ---");
    println!(
        "intra-ISP indegree fraction : {:.3} (quality) vs {:.3} (random) | mixing baseline {:.3}",
        quality.fig6.indegree.mean(),
        random.fig6.indegree.mean(),
        quality.fig6.baseline
    );
    println!(
        "intra-ISP outdegree fraction: {:.3} (quality) vs {:.3} (random)",
        quality.fig6.outdegree.mean(),
        random.fig6.outdegree.mean()
    );
    println!(
        "reciprocity rho             : {:.3} (quality) vs {:.3} (random)",
        quality.fig8.all.mean(),
        random.fig8.all.mean()
    );
    if quality.fig6.indegree.mean() > random.fig6.indegree.mean() + 0.02 {
        println!(
            "=> clustering above the baseline comes from bandwidth-aware peer selection,\n   \
             the causal mechanism the paper proposes."
        );
    } else {
        println!("=> gap too small at this scale; rerun with a larger --scale.");
    }
}
