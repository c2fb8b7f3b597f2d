//! Small-world assessment (paper §4.3, Fig. 7).
//!
//! A graph is declared a small world when (1) its average pairwise
//! shortest-path length `L_g` is close to that of a corresponding
//! random graph `L_rand` and (2) its clustering coefficient `C_g` is
//! much larger — the paper observes "more than an order of magnitude"
//! — than `C_rand`. The "corresponding random graph" has the same
//! number of vertices and undirected links.

use crate::clustering;
use crate::csr::Csr;
use crate::paths::{average_path_length_csr, PathSampling, PathTreatment};
use crate::random::RandomBaseline;

/// Tunables for the small-world assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallWorldConfig {
    /// Path-length estimator to use on the subject graph.
    pub path_sampling: PathSampling,
    /// When `Some(k)`, estimate clustering from `k` sampled nodes.
    pub clustering_samples: Option<usize>,
    /// Seed for any sampling.
    pub seed: u64,
    /// Minimum `C_g / C_rand` ratio to call the clustering "large"
    /// (the paper's "order of magnitude" reads as ≥ 10).
    pub clustering_ratio_threshold: f64,
    /// Maximum `L_g / L_rand` ratio to call the path length "close".
    pub length_slack: f64,
}

impl Default for SmallWorldConfig {
    fn default() -> Self {
        SmallWorldConfig {
            path_sampling: PathSampling::Exact,
            clustering_samples: None,
            seed: 0x5EED,
            clustering_ratio_threshold: 10.0,
            length_slack: 2.0,
        }
    }
}

/// The measured small-world quantities of one graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallWorldReport {
    /// Nodes in the graph.
    pub n: usize,
    /// Undirected link count (bilateral pairs collapsed).
    pub undirected_edges: usize,
    /// Measured clustering coefficient `C_g`.
    pub c: f64,
    /// Random baseline `C_rand` (link density).
    pub c_rand: f64,
    /// Measured average path length `L_g`, when any pair is reachable.
    pub l: Option<f64>,
    /// Random baseline `L_rand ≈ ln n / ln ⟨k⟩`, when defined.
    pub l_rand: Option<f64>,
    /// `C_g / C_rand` (infinite when `C_rand = 0` and `C_g > 0`).
    pub c_ratio: f64,
    /// The verdict under the thresholds in [`SmallWorldConfig`].
    pub is_small_world: bool,
}

/// Measures `C`, `L`, their random baselines, and renders the
/// small-world verdict. One [`Csr`] serves both the clustering and the
/// path-length kernels.
pub fn assess_csr(csr: &Csr, cfg: &SmallWorldConfig) -> SmallWorldReport {
    let c = match cfg.clustering_samples {
        Some(k) => clustering::sampled_clustering_csr(csr, k, cfg.seed),
        None => clustering::clustering_coefficient_csr(csr),
    };
    let n = csr.node_count();
    let m_und = csr.und_edge_count();
    let baseline = RandomBaseline::analytic(n, m_und);
    let l =
        average_path_length_csr(csr, PathTreatment::Undirected, cfg.path_sampling).map(|s| s.mean);
    let c_ratio = if baseline.c_expected > 0.0 {
        c / baseline.c_expected
    } else if c > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let length_ok = match (l, baseline.l_expected) {
        (Some(lg), Some(lr)) if lr > 0.0 => lg / lr <= cfg.length_slack,
        _ => false,
    };
    SmallWorldReport {
        n,
        undirected_edges: m_und,
        c,
        c_rand: baseline.c_expected,
        l,
        l_rand: baseline.l_expected,
        c_ratio,
        is_small_world: c_ratio >= cfg.clustering_ratio_threshold && length_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gnm_undirected, watts_strogatz};

    #[test]
    fn watts_strogatz_mid_beta_is_small_world() {
        let g = watts_strogatz(400, 8, 0.1, 21);
        let report = assess_csr(&g, &SmallWorldConfig::default());
        assert!(
            report.is_small_world,
            "WS(400, 8, 0.1) should be small world: {report:?}"
        );
        assert!(report.c_ratio >= 10.0);
    }

    #[test]
    fn random_graph_is_not_small_world() {
        let g = gnm_undirected(400, 1600, 3);
        let report = assess_csr(&g, &SmallWorldConfig::default());
        // ER clustering ≈ density, so the ratio hovers near 1.
        assert!(!report.is_small_world, "ER graph misclassified: {report:?}");
        assert!(report.c_ratio < 5.0, "c_ratio = {}", report.c_ratio);
    }

    #[test]
    fn pure_lattice_fails_on_path_length() {
        // Beta = 0: highly clustered but L grows linearly -> not small world.
        let g = watts_strogatz(600, 4, 0.0, 1);
        let report = assess_csr(&g, &SmallWorldConfig::default());
        assert!(!report.is_small_world, "{report:?}");
        // It *is* highly clustered...
        assert!(report.c_ratio > 10.0);
        // ...but paths are long.
        let l = report.l.unwrap();
        let lr = report.l_rand.unwrap();
        assert!(l / lr > 2.0, "l = {l}, l_rand = {lr}");
    }

    #[test]
    fn empty_graph_report_is_sane() {
        let g = Csr::from_edges(0, &[]);
        let report = assess_csr(&g, &SmallWorldConfig::default());
        assert_eq!(report.n, 0);
        assert!(!report.is_small_world);
        assert_eq!(report.c_ratio, 0.0);
        assert_eq!(report.l, None);
    }

    #[test]
    fn sampled_assessment_is_deterministic() {
        let g = watts_strogatz(300, 6, 0.1, 77);
        let cfg = SmallWorldConfig {
            path_sampling: PathSampling::Sources { count: 30, seed: 5 },
            clustering_samples: Some(50),
            ..SmallWorldConfig::default()
        };
        let a = assess_csr(&g, &cfg);
        let b = assess_csr(&g, &cfg);
        assert_eq!(a, b);
    }
}
