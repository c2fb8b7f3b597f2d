//! Default-scale shape validation — the EXPERIMENTS.md claims as
//! executable assertions.
//!
//! These run the default experiment scale (~1,000 concurrent peers,
//! the full 14-day window) — half a minute in release, far longer in a
//! debug build — so they are `#[ignore]`d by default and
//! `scripts/check.sh` runs them in release mode:
//!
//! ```text
//! cargo test --release --test full_scale -- --ignored
//! ```

use magellan::analysis::study::{MagellanStudy, StudyConfig};
use magellan::netsim::StudyCalendar;
use std::sync::OnceLock;

fn default_scale_report() -> &'static magellan::prelude::StudyReport {
    static REPORT: OnceLock<magellan::prelude::StudyReport> = OnceLock::new();
    REPORT.get_or_init(|| MagellanStudy::new(StudyConfig::default()).run())
}

/// Reduced-scale smoke version of [`fig1_population_shape`]: the same
/// 14-day calendar and flash crowd at 0.05× the default population
/// (scale 0.0005 ≈ 50 concurrent peers vs the default 0.01 ≈ 1,000),
/// with the shape assertions loosened for the miniature statistics.
/// Runs on every `cargo test` so the default-scale scenario path is
/// exercised continuously, not only in `--ignored` runs.
///
/// Wall-clock budget (documented, not enforced): ~20 s in a debug
/// build on one core of the baseline box; if it creeps past a minute,
/// shrink `scale` or `window_days` rather than `#[ignore]`-ing it.
#[test]
fn smoke_population_shape_at_reduced_scale() {
    let cfg = StudyConfig {
        scale: 0.0005,
        min_graph_nodes: 10,
        ..StudyConfig::default()
    };
    let r = MagellanStudy::new(cfg).run();
    // Stable peers are a minority but a visible one (the full-scale
    // band is 0.2..=0.45; tiny populations are noisier).
    let ratio = r.fig1a.stable_ratio();
    assert!((0.05..=0.8).contains(&ratio), "stable ratio {ratio:.3}");
    // The flash crowd still dominates the window even in miniature.
    let (t, _) = r.fig1a.total.max_point().unwrap();
    let fc = StudyCalendar::default().flash_crowd_instant();
    assert_eq!(t.day(), fc.day(), "window peak at {t}, expected day 5");
    // Every figure family produced points.
    assert!(!r.fig7.global.c.is_empty(), "fig7 empty");
    assert!(!r.fig8.all.is_empty(), "fig8 empty");
    assert!(r.fig8.all.mean() > 0.0, "reciprocity not positive");
}

#[test]
#[ignore = "minutes-long default-scale run; use cargo test --release -- --ignored"]
fn fig1_population_shape() {
    let r = default_scale_report();
    // Stable ≈ 1/3 of total.
    let ratio = r.fig1a.stable_ratio();
    assert!((0.2..=0.45).contains(&ratio), "stable ratio {ratio:.3}");
    // The flash crowd is the peak of the whole window, at 9 p.m. day 5.
    let (t, _) = r.fig1a.total.max_point().unwrap();
    let fc = StudyCalendar::default().flash_crowd_instant();
    assert!(
        t.day() == fc.day() && (20..=22).contains(&t.hour()),
        "window peak at {t}, expected the flash crowd"
    );
}

#[test]
#[ignore = "minutes-long default-scale run; use cargo test --release -- --ignored"]
fn fig3_quality_shape() {
    let r = default_scale_report();
    assert!(
        r.fig3.cctv1.mean() > 0.65,
        "CCTV1 mean {:.3} below the paper's ~3/4 regime",
        r.fig3.cctv1.mean()
    );
    let ratio = r.fig3.viewer_ratio();
    assert!((3.5..=6.5).contains(&ratio), "viewer ratio {ratio:.1}");
}

#[test]
#[ignore = "minutes-long default-scale run; use cargo test --release -- --ignored"]
fn fig4_flash_crowd_capture_rejects_power_law() {
    let r = default_scale_report();
    let flash = r
        .fig4
        .snapshots
        .iter()
        .find(|s| s.label.contains("flash"))
        .expect("flash capture configured");
    let v = flash.partner_powerlaw.as_ref().expect("fit available");
    assert!(
        !v.plausible,
        "flash-crowd capture accepted as power law (ks {:.3} thr {:.3}, n {})",
        v.fit.ks,
        v.threshold,
        flash.partners.total()
    );
    // Indegree stays in the paper's regime.
    let p99 = flash.indegree.quantile(0.99).unwrap();
    assert!((15..=45).contains(&p99), "indegree p99 {p99}");
}

#[test]
#[ignore = "minutes-long default-scale run; use cargo test --release -- --ignored"]
fn fig6_fig7_fig8_shapes() {
    let r = default_scale_report();
    // Fig 6: clustering well above mixing.
    assert!(
        r.fig6.indegree.mean() > r.fig6.baseline + 0.1,
        "fig6 {:.3} vs baseline {:.3}",
        r.fig6.indegree.mean(),
        r.fig6.baseline
    );
    // Fig 7: an order of magnitude of clustering, L ≈ L_rand.
    let ratio = r.fig7.global.clustering_ratio();
    assert!(ratio >= 10.0, "C/C_rand = {ratio:.1}");
    let l = r.fig7.global.l.mean();
    let lr = r.fig7.global.l_rand.mean();
    assert!(l / lr < 2.0, "L {l:.2} vs L_rand {lr:.2}");
    // Fig 8: positive and ordered.
    assert!(r.fig8.all.mean() > 0.3);
    assert!(r.fig8.intra.mean() > r.fig8.all.mean());
    assert!(r.fig8.inter.mean() < r.fig8.all.mean());
}
