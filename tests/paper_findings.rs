//! The paper's four headline insights, asserted end-to-end on a
//! small-scale run of the full pipeline:
//!
//! 1. the platform scales — streaming quality holds through the
//!    flash crowd;
//! 2. active-degree distributions are not power laws;
//! 3. ISP-level clusters form from quality-driven peer selection;
//! 4. peers exchange blocks reciprocally (ρ > 0).

use magellan::analysis::study::{MagellanStudy, StudyConfig};
use magellan::netsim::{SimDuration, SimTime, StudyCalendar};
use magellan::prelude::*;
use std::sync::OnceLock;

/// One shared run covering the flash-crowd day (day 5): scale kept
/// small so the whole file stays debug-test friendly.
fn crowd_week() -> &'static StudyReport {
    static REPORT: OnceLock<StudyReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let r = MagellanStudy::new(StudyConfig {
            seed: 1964,
            scale: 0.002,
            window_days: 6, // day 5 = Friday Oct 6, the Mid-Autumn gala
            sample_every: SimDuration::from_hours(1),
            degree_captures: vec![
                ("9am d2".into(), SimTime::at(2, 9, 0)),
                ("9pm d2".into(), SimTime::at(2, 21, 0)),
                ("9pm d5 flash".into(), SimTime::at(5, 21, 0)),
            ],
            min_graph_nodes: 10,
            ..StudyConfig::default()
        })
        .run();
        // Every simulated report passes the validating trace server.
        let cs = r.collection.expect("the study reports its collection");
        assert_eq!(cs.rejected, 0, "the server rejected a simulated report");
        r
    })
}

#[test]
fn finding_1_scalability_under_the_flash_crowd() {
    let r = crowd_week();
    let fc = StudyCalendar::default().flash_crowd_instant();
    let before = fc - SimDuration::from_days(1);
    // The crowd visibly grows the population...
    let pop_peak = r.fig1a.total.at(fc).unwrap();
    let pop_before = r.fig1a.total.at(before).unwrap();
    assert!(
        pop_peak > pop_before * 1.3,
        "no flash crowd visible: {pop_before} -> {pop_peak}"
    );
    // ...while streaming quality does not collapse: the majority of
    // viewers keep satisfactory rates through the spike. (The paper
    // saw CCTV4 quality *rise*; that needs populations where peer
    // upload dominates supply — EXPERIMENTS.md checks it at the
    // larger default scale. At this test scale CCTV4 has a handful
    // of viewers, so the statistically meaningful assertion is on
    // CCTV1, the 5x-bigger channel.)
    let q_peak = r.fig3.cctv1.at(fc).unwrap_or(1.0);
    assert!(
        q_peak >= 0.5,
        "CCTV1 quality collapsed under the crowd: {q_peak:.2}"
    );
}

#[test]
fn finding_2_degrees_are_not_power_law() {
    // At test scale the KS threshold (∝ 1/√n) is too lenient to
    // reject anything, so assert the paper's *structural* argument
    // instead: a power law is monotone decreasing from its minimum
    // degree, while UUSee's distributions carry an interior spike.
    // (The statistical rejection at larger n is covered by the
    // magellan-graph unit tests and the default-scale run recorded in
    // EXPERIMENTS.md.)
    let r = crowd_week();
    for snap in &r.fig4.snapshots {
        let h = &snap.partners;
        let spike = h.spike().expect("non-empty capture");
        let min_deg = (1..)
            .find(|&d| h.count_at(d) > 0)
            .expect("some peer has partners");
        assert!(
            spike > min_deg,
            "[{}] mode {spike} at the minimum degree {min_deg}: monotone like a power law",
            snap.label
        );
        assert!(
            h.fraction_at(spike) >= 1.5 * h.fraction_at(min_deg),
            "[{}] no interior spike: f({spike}) = {:.3} vs f({min_deg}) = {:.3}",
            snap.label,
            h.fraction_at(spike),
            h.fraction_at(min_deg)
        );
    }
}

#[test]
fn finding_2b_indegree_is_capped_despite_many_partners() {
    let r = crowd_week();
    // Paper: peers know many partners, yet the active indegree stays
    // flat (~10 there); the gap between partner count and active
    // indegree is the signature.
    let partners = r.fig5.partners.mean();
    let indeg = r.fig5.indegree.mean();
    assert!(
        partners > indeg * 1.5,
        "partner count {partners:.1} not well above indegree {indeg:.1}"
    );
    assert!(indeg < 30.0, "indegree {indeg:.1} out of regime");
}

#[test]
fn finding_3_isp_clustering_above_mixing_baseline() {
    let r = crowd_week();
    assert!(
        r.fig6.indegree.mean() > r.fig6.baseline + 0.03,
        "intra-ISP indegree {:.3} vs baseline {:.3}",
        r.fig6.indegree.mean(),
        r.fig6.baseline
    );
    assert!(
        r.fig6.outdegree.mean() > r.fig6.baseline + 0.03,
        "intra-ISP outdegree {:.3} vs baseline {:.3}",
        r.fig6.outdegree.mean(),
        r.fig6.baseline
    );
    // And the stable-peer graph clusters far above random.
    assert!(
        r.fig7.global.clustering_ratio() > 2.0,
        "C/C_rand = {:.1}",
        r.fig7.global.clustering_ratio()
    );
}

#[test]
fn finding_4_reciprocity_positive_and_ordered_by_isp() {
    let r = crowd_week();
    assert!(r.fig8.all.mean() > 0.1, "rho = {:.3}", r.fig8.all.mean());
    // Paper's Fig. 8B ordering: intra-ISP above the whole topology,
    // inter-ISP below it.
    assert!(
        r.fig8.intra.mean() >= r.fig8.all.mean() - 0.02,
        "intra {:.3} not above all {:.3}",
        r.fig8.intra.mean(),
        r.fig8.all.mean()
    );
    assert!(
        r.fig8.inter.mean() <= r.fig8.all.mean() + 0.02,
        "inter {:.3} not below all {:.3}",
        r.fig8.inter.mean(),
        r.fig8.all.mean()
    );
}

#[test]
fn stable_backbone_is_roughly_a_third() {
    let r = crowd_week();
    let ratio = r.fig1a.stable_ratio();
    assert!(
        (0.15..=0.55).contains(&ratio),
        "stable/total ratio {ratio:.3} far from the paper's ~1/3"
    );
}

#[test]
fn channel_audience_ratio_matches_the_papers_footnote() {
    // Paper footnote 2: CCTV1's concurrent audience is about five
    // times CCTV4's (~30,000 vs ~6,000). The ratio is configured in
    // the channel directory but must survive the whole pipeline —
    // sessions, churn, and the CCTV-targeted flash crowd included.
    let r = crowd_week();
    let ratio = r.fig3.viewer_ratio();
    assert!(
        (3.0..=7.5).contains(&ratio),
        "CCTV1:CCTV4 viewer ratio {ratio:.1} far from the paper's ~5"
    );
}
