//! Robustness of the study to measurement loss: the real trace
//! arrived as UDP datagrams and some never made it. Losing a fifth of
//! the simulated report stream in flight (`FaultPlan::base_report_loss`)
//! on its way to the collector must degrade counts, not conclusions —
//! the snapshot design (staleness horizon > one report interval)
//! tolerates missed reports by construction.

use magellan::netsim::{SimTime, StudyCalendar};
use magellan::overlay::{OverlaySim, SimConfig, SimSummary};
use magellan::prelude::*;
use magellan::trace::{SnapshotBuilder, TraceStats, TraceStore};
use magellan::workload::DiurnalProfile;
use std::sync::OnceLock;

fn collect(loss: f64) -> (TraceStore, SimSummary) {
    let mut builder = Scenario::builder(2112, 0.0005)
        .calendar(StudyCalendar { window_days: 1 })
        .diurnal(DiurnalProfile::flat())
        .flash_crowds(vec![]);
    if loss > 0.0 {
        builder = builder.faults(FaultPlan {
            base_report_loss: loss,
            ..FaultPlan::default()
        });
    }
    let mut sim = OverlaySim::new(builder.build(), SimConfig::default());
    sim.run_collecting().expect("run succeeds")
}

fn pristine() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(|| collect(0.0).0)
}

fn lossy() -> &'static (TraceStore, SimSummary) {
    static PAIR: OnceLock<(TraceStore, SimSummary)> = OnceLock::new();
    PAIR.get_or_init(|| collect(0.2))
}

#[test]
fn loss_reduces_volume_proportionally() {
    let clean = pristine();
    let (dirty, summary) = lossy();
    assert!(summary.faults.reports_lost > 0);
    let kept = dirty.len() as f64 / clean.len() as f64;
    // 20% in-flight loss → ~80% kept, binomial noise aside.
    assert!(
        (0.72..=0.86).contains(&kept),
        "kept fraction {kept:.3} inconsistent with 20% loss"
    );
}

#[test]
fn snapshots_survive_loss() {
    let clean = pristine();
    let (dirty, _) = lossy();
    let t = SimTime::at(0, 18, 0);
    let clean_snap = SnapshotBuilder::new(clean).at(t);
    let dirty_snap = SnapshotBuilder::new(dirty).at(t);
    let clean_n = clean_snap.stable_count() as f64;
    let dirty_n = dirty_snap.stable_count() as f64;
    assert!(dirty_n > 0.0, "loss wiped the snapshot out");
    // The staleness horizon (1.5 report intervals) covers one or two
    // reports per peer, so a 20% drop rate costs at most ~20% of the
    // snapshot (less for peers with two covered reports) — allow for
    // binomial noise on a few dozen peers.
    assert!(
        dirty_n / clean_n > 0.6,
        "stable population collapsed: {dirty_n} vs {clean_n}"
    );
}

#[test]
fn topology_conclusions_survive_loss() {
    use magellan::analysis::graphs::SnapshotTable;
    use magellan::graph::reciprocity::garlaschelli_reciprocity_csr;
    use magellan::graph::Csr;
    let clean = pristine();
    let (dirty, _) = lossy();
    let t = SimTime::at(0, 18, 0);
    let db = IspDatabase::default();
    // The study's route: the snapshot's all-known topology, one pass.
    let graph_of = |store: &TraceStore| {
        let snap = SnapshotBuilder::new(store).at(t);
        let reports: Vec<_> = snap.reports().collect();
        let table = SnapshotTable::build(&reports, &db);
        Csr::from_edges(table.nodes.len(), &table.edges)
    };
    let rho_clean = garlaschelli_reciprocity_csr(&graph_of(clean)).unwrap();
    let rho_dirty = garlaschelli_reciprocity_csr(&graph_of(dirty)).unwrap();
    assert!(
        rho_clean > 0.0 && rho_dirty > 0.0,
        "reciprocity sign flipped"
    );
    assert!(
        (rho_clean - rho_dirty).abs() < 0.15,
        "rho moved too much under loss: {rho_clean:.3} vs {rho_dirty:.3}"
    );
}

#[test]
fn stats_account_for_the_session() {
    let (dirty, summary) = lossy();
    assert_eq!(summary.reports, dirty.len() as u64);
    // Loss draws come from the fault stream alone, so peers build the
    // same reports as in the lossless run: every one of them was
    // either collected or lost in flight.
    assert_eq!(
        dirty.len() as u64 + summary.faults.reports_lost,
        pristine().len() as u64
    );
    let ts = TraceStats::compute(dirty);
    assert_eq!(ts.reports, dirty.len() as u64);
    assert!(ts.mean_partners > 1.0);
    assert!(ts.wire_bytes > 0);
}

#[test]
fn volume_projection_reaches_the_papers_order_of_magnitude() {
    // The paper: ~120 GB in two months at scale 1.0. Our 1-day,
    // scale-0.0005 trace projected to scale 1.0 over two months must
    // land within an order of magnitude of that.
    let clean = pristine();
    let ts = TraceStats::compute(clean);
    let projected_gb = ts.projected_bytes(1.0, 1.0 / 0.0005, 2.0) / 1e9;
    assert!(
        (12.0..=1200.0).contains(&projected_gb),
        "projected volume {projected_gb:.1} GB implausible vs the paper's 120 GB"
    );
}
