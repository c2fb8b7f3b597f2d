//! End-to-end measurement degradation under the combined stress
//! schedule: 10% baseline report loss, a midday trace-server outage,
//! an afternoon inter-ISP partition, an evening loss spike, a
//! prime-time tracker outage, and a 15% ungraceful crash wave.
//!
//! The claim under test is the tentpole of the fault subsystem: the
//! study *degrades gracefully*. Counters record every injected event,
//! samples whose horizon overlaps the server outage are flagged
//! partial instead of silently averaged, and the paper's qualitative
//! findings (small-world clustering, positive reciprocity, bounded
//! indegree) survive within stated tolerances.

use magellan::analysis::study::{MagellanStudy, StudyConfig};
use magellan::netsim::{SimDuration, SimTime};
use magellan::prelude::*;
use std::sync::OnceLock;

fn base_config() -> StudyConfig {
    StudyConfig {
        seed: 77,
        scale: 0.0008,
        window_days: 2,
        sample_every: SimDuration::from_hours(2),
        degree_captures: vec![
            ("9pm d1".into(), SimTime::at(1, 21, 0)),
            ("12:30 d1 (mid-outage)".into(), SimTime::at(1, 12, 30)),
        ],
        min_graph_nodes: 10,
        ..StudyConfig::default()
    }
}

fn clean() -> &'static StudyReport {
    static R: OnceLock<StudyReport> = OnceLock::new();
    R.get_or_init(|| MagellanStudy::new(base_config()).run())
}

fn faulted() -> &'static StudyReport {
    static R: OnceLock<StudyReport> = OnceLock::new();
    R.get_or_init(|| {
        let mut cfg = base_config();
        cfg.faults = FaultPlan::combined_stress(1);
        MagellanStudy::new(cfg).run()
    })
}

#[test]
fn every_scheduled_fault_class_fires_and_is_counted() {
    let r = faulted();
    let f = &r.sim.faults;
    assert!(f.crashes > 0, "crash wave did not fire");
    assert!(f.reports_lost > 0, "report loss did not fire");
    assert!(
        f.tracker_denied_joins > 0,
        "tracker outage denied no bootstrap"
    );
    assert!(
        f.bootstrap_retries > 0 && f.bootstrap_recoveries > 0,
        "denied peers never retried/recovered: retries {} recoveries {}",
        f.bootstrap_retries,
        f.bootstrap_recoveries
    );
    assert!(
        f.links_blocked > 0 || f.flows_blocked > 0,
        "the partition severed nothing"
    );
    assert!(f.partner_timeouts > 0, "no dead partner was timed out");
    // The study runs through the collector: the day-1 server outage
    // bounced reports into the uplink buffer, and the validating
    // server rejected none of them.
    let cs = r.collection.expect("the study reports its collection");
    assert!(cs.unavailable > 0, "the server outage bounced no report");
    assert_eq!(cs.rejected, 0, "the server rejected a simulated report");
    // The clean twin counts no injected events.
    let cf = &clean().sim.faults;
    assert_eq!(
        (cf.crashes, cf.reports_lost, cf.tracker_denied_joins),
        (0, 0, 0)
    );
}

#[test]
fn samples_inside_the_outage_are_flagged_partial_not_averaged() {
    let r = faulted();
    assert!(
        !r.partial_samples.is_empty(),
        "no sample flagged partial despite a one-hour server outage"
    );
    for p in &r.partial_samples {
        assert!(
            (0.0..1.0).contains(&p.coverage),
            "bad coverage {}",
            p.coverage
        );
    }
    // Flagged instants are excluded from the figure series.
    assert_eq!(
        r.fig1a.stable.len() + r.partial_samples.len(),
        clean().fig1a.stable.len(),
        "partial samples were not excised from the series"
    );
    // The mid-outage degree capture carries its coverage flag, and the
    // rendered report surfaces both the flag and the counters.
    let cap = r
        .fig4
        .snapshots
        .iter()
        .find(|s| s.label.contains("mid-outage"))
        .expect("capture present");
    assert!(cap.coverage < 1.0, "capture not marked partial");
    let text = r.render_text();
    assert!(text.contains("PARTIAL"), "render lacks the partial flag");
    assert!(text.contains("Faults —"), "render lacks fault counters");
    assert!(clean().partial_samples.is_empty());
}

#[test]
fn qualitative_findings_survive_the_combined_stress() {
    let c = clean();
    let d = faulted();
    // Fig. 7: the graph stays strongly clustered relative to random in
    // both runs, with short paths.
    let (rc, rd) = (
        c.fig7.global.clustering_ratio(),
        d.fig7.global.clustering_ratio(),
    );
    assert!(
        rc > 1.5 && rd > 1.5,
        "small-world clustering signal lost: clean {rc:.2} faulted {rd:.2}"
    );
    let (lc, ld) = (c.fig7.global.l.mean(), d.fig7.global.l.mean());
    assert!(
        (lc - ld).abs() < 1.0,
        "path length moved too much: clean {lc:.2} faulted {ld:.2}"
    );
    // Fig. 8: reciprocity stays positive and close.
    let (pc, pd) = (c.fig8.all.mean(), d.fig8.all.mean());
    assert!(
        pc > 0.0 && pd > 0.0,
        "reciprocity sign flipped: clean {pc:.3} faulted {pd:.3}"
    );
    assert!(
        (pc - pd).abs() < 0.15,
        "reciprocity moved too much: clean {pc:.3} faulted {pd:.3}"
    );
    // The population dips (crashes, denied joins) but does not
    // collapse, and indegree stays in the paper's regime.
    let (sc, sd) = (c.fig1a.stable.mean(), d.fig1a.stable.mean());
    assert!(
        sd > 0.5 * sc,
        "stable population collapsed: clean {sc:.0} faulted {sd:.0}"
    );
    assert!(
        d.fig5.indegree.mean() < 30.0,
        "mean indegree blew up: {:.1}",
        d.fig5.indegree.mean()
    );
}
