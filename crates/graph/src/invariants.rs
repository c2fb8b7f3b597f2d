//! Runtime invariant checks over a [`Csr`] snapshot and its metrics.
//!
//! The metric functions in this crate are trusted by every layer above
//! it — the measurement replayer, the analysis studies, the archival
//! figures. A silent out-of-range clustering coefficient or a k-core
//! decomposition that is not monotone in `k` would corrupt all of them
//! without any test noticing, because downstream code only ever *plots*
//! the numbers.
//!
//! This module makes the mathematical contracts executable:
//!
//! * [`check_degree_balance`] — in a directed graph, the sum of
//!   in-degrees, the sum of out-degrees, and the edge count are the
//!   same number (each edge contributes exactly one of each).
//! * [`check_unit_interval`] — reciprocity and clustering coefficients
//!   are fractions and must lie in `[0, 1]` (and be finite).
//! * [`check_core_monotonicity`] — the size of the k-core shrinks (or
//!   stays equal) as `k` grows, every coreness is bounded by the
//!   degeneracy, and no node's coreness exceeds its undirected degree.
//! * [`check_metric_ranges`] / [`check_all`] — bundles of the above
//!   evaluated against a concrete graph.
//!
//! Each check returns `Result<(), InvariantViolation>` so test
//! harnesses (including `magellan-lint`'s self-test and the proptest
//! suite) can assert on the exact failure.

use crate::clustering::{clustering_coefficient_csr, local_clustering_csr};
use crate::kcore::{core_decomposition_csr, CoreDecomposition};
use crate::reciprocity::simple_reciprocity_checked_csr;
use crate::{Csr, NodeId};
use std::fmt;

/// A broken mathematical contract, with enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InvariantViolation {
    /// `sum(in-degree) == sum(out-degree) == |E|` failed.
    DegreeBalance {
        /// Sum of in-degrees over all nodes.
        in_sum: usize,
        /// Sum of out-degrees over all nodes.
        out_sum: usize,
        /// The graph's edge count.
        edges: usize,
    },
    /// A fraction-valued metric left `[0, 1]` or went non-finite.
    OutOfUnitInterval {
        /// Which metric produced the value.
        metric: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The k-core decomposition is not monotone: a larger `k` has a
    /// larger core.
    CoreNotMonotone {
        /// The smaller `k` of the violating pair.
        k: u32,
        /// Size of the `k`-core.
        size_k: usize,
        /// Size of the `(k + 1)`-core, which exceeded `size_k`.
        size_next: usize,
    },
    /// A node's coreness exceeds its undirected degree, which is
    /// impossible: removing a node from the k-core needs `< k`
    /// neighbors, so coreness is bounded by degree.
    CorenessExceedsDegree {
        /// The offending node.
        node: NodeId,
        /// Its coreness.
        core: u32,
        /// Its undirected degree.
        degree: usize,
    },
    /// A node's coreness exceeds the reported degeneracy (the maximum
    /// coreness), so the two views of the decomposition disagree.
    CorenessExceedsDegeneracy {
        /// The offending node.
        node: NodeId,
        /// Its coreness.
        core: u32,
        /// The decomposition's degeneracy.
        degeneracy: u32,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::DegreeBalance {
                in_sum,
                out_sum,
                edges,
            } => write!(
                f,
                "degree balance broken: sum(in) = {in_sum}, sum(out) = {out_sum}, |E| = {edges}"
            ),
            InvariantViolation::OutOfUnitInterval { metric, value } => {
                write!(f, "{metric} = {value} is outside [0, 1]")
            }
            InvariantViolation::CoreNotMonotone {
                k,
                size_k,
                size_next,
            } => write!(
                f,
                "k-core sizes not monotone: |{k}-core| = {size_k} < |{}-core| = {size_next}",
                k + 1
            ),
            InvariantViolation::CorenessExceedsDegree { node, core, degree } => write!(
                f,
                "node {node:?} has coreness {core} but undirected degree {degree}"
            ),
            InvariantViolation::CorenessExceedsDegeneracy {
                node,
                core,
                degeneracy,
            } => write!(
                f,
                "node {node:?} has coreness {core} above the degeneracy {degeneracy}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Checks that in-degrees, out-degrees, and the edge count agree.
///
/// Every directed edge contributes exactly one in-degree and one
/// out-degree, so all three sums must be equal. A mismatch means the
/// out-rows and the in-rows have diverged.
pub fn check_degree_balance(csr: &Csr) -> Result<(), InvariantViolation> {
    let mut in_sum = 0usize;
    let mut out_sum = 0usize;
    for id in csr.node_ids() {
        in_sum += csr.in_degree(id);
        out_sum += csr.out_degree(id);
    }
    let edges = csr.edge_count();
    if in_sum != edges || out_sum != edges {
        return Err(InvariantViolation::DegreeBalance {
            in_sum,
            out_sum,
            edges,
        });
    }
    Ok(())
}

/// Checks that a fraction-valued metric is finite and within `[0, 1]`.
pub fn check_unit_interval(metric: &'static str, value: f64) -> Result<(), InvariantViolation> {
    if !value.is_finite() || !(0.0..=1.0).contains(&value) {
        return Err(InvariantViolation::OutOfUnitInterval { metric, value });
    }
    Ok(())
}

/// Checks the structural contracts of a k-core decomposition against
/// the graph it was computed from.
///
/// * `|k-core| >= |(k+1)-core|` for every `k` up to the degeneracy;
/// * every coreness is `<=` the node's undirected degree;
/// * every coreness is `<=` the reported degeneracy.
pub fn check_core_monotonicity(
    csr: &Csr,
    cores: &CoreDecomposition,
) -> Result<(), InvariantViolation> {
    let degeneracy = cores.degeneracy();
    for id in csr.node_ids() {
        let core = cores.core_of(id);
        let degree = csr.und_degree(id);
        if core as usize > degree {
            return Err(InvariantViolation::CorenessExceedsDegree {
                node: id,
                core,
                degree,
            });
        }
        if core > degeneracy {
            return Err(InvariantViolation::CorenessExceedsDegeneracy {
                node: id,
                core,
                degeneracy,
            });
        }
    }
    for k in 0..degeneracy {
        let size_k = cores.core_size(k);
        let size_next = cores.core_size(k + 1);
        if size_next > size_k {
            return Err(InvariantViolation::CoreNotMonotone {
                k,
                size_k,
                size_next,
            });
        }
    }
    Ok(())
}

/// Evaluates the fraction-valued metrics on `csr` and checks their
/// ranges: simple reciprocity, the graph-level clustering coefficient,
/// and every node's local clustering.
pub fn check_metric_ranges(csr: &Csr) -> Result<(), InvariantViolation> {
    check_unit_interval(
        "simple_reciprocity",
        simple_reciprocity_checked_csr(csr).unwrap_or(0.0),
    )?;
    check_unit_interval("clustering_coefficient", clustering_coefficient_csr(csr))?;
    for id in csr.node_ids() {
        check_unit_interval("local_clustering", local_clustering_csr(csr, id))?;
    }
    Ok(())
}

/// Runs the full invariant suite against `csr`: degree balance, metric
/// ranges, and k-core monotonicity (computing a fresh decomposition).
pub fn check_all(csr: &Csr) -> Result<(), InvariantViolation> {
    check_degree_balance(csr)?;
    check_metric_ranges(csr)?;
    check_core_monotonicity(csr, &core_decomposition_csr(csr))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> Csr {
        let edges: Vec<_> = edges
            .iter()
            .map(|&(a, b)| (NodeId::from_index(a), NodeId::from_index(b), 1))
            .collect();
        Csr::from_edges(n, &edges)
    }

    /// A bidirectional ring on `n` nodes (`n == 0` is the empty graph).
    fn ring(n: usize) -> Csr {
        let pairs: Vec<_> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), ((i + 1) % n, i)])
            .collect();
        graph(n, &pairs)
    }

    #[test]
    fn healthy_graphs_pass_everything() {
        for g in [ring(0), ring(3), ring(10)] {
            check_all(&g).expect("ring graphs satisfy all invariants");
        }
    }

    #[test]
    fn unit_interval_rejects_out_of_range_and_nan() {
        assert!(check_unit_interval("m", 0.0).is_ok());
        assert!(check_unit_interval("m", 1.0).is_ok());
        let err = check_unit_interval("m", 1.5).expect_err("1.5 is out of range");
        assert!(err.to_string().contains("outside [0, 1]"));
        assert!(check_unit_interval("m", -0.1).is_err());
        assert!(check_unit_interval("m", f64::NAN).is_err());
        assert!(check_unit_interval("m", f64::INFINITY).is_err());
    }

    #[test]
    fn degree_balance_holds_on_asymmetric_graphs() {
        let g = graph(3, &[(0, 1), (0, 2), (1, 2)]);
        check_degree_balance(&g).expect("adjacency lists are consistent");
    }

    #[test]
    fn core_checks_accept_a_real_decomposition() {
        let g = ring(6);
        let cores = core_decomposition_csr(&g);
        check_core_monotonicity(&g, &cores).expect("ring decomposition is monotone");
    }

    #[test]
    fn violation_displays_are_informative() {
        let v = InvariantViolation::DegreeBalance {
            in_sum: 3,
            out_sum: 4,
            edges: 4,
        };
        assert!(v.to_string().contains("sum(in) = 3"));
        let v = InvariantViolation::CoreNotMonotone {
            k: 2,
            size_k: 5,
            size_next: 6,
        };
        assert!(v.to_string().contains("|2-core| = 5"));
        let v = InvariantViolation::CorenessExceedsDegree {
            node: NodeId::from_index(0),
            core: 9,
            degree: 2,
        };
        assert!(v.to_string().contains("coreness 9"));
    }
}
