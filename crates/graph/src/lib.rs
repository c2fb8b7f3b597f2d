//! # magellan-graph
//!
//! Graph snapshots and the topology metrics used by the Magellan study
//! of large-scale P2P live streaming overlays (Wu, Li & Zhao, ICDCS
//! 2007): degree distributions, Watts–Strogatz clustering, average
//! shortest-path lengths, Erdős–Rényi baselines, simple and
//! Garlaschelli–Loffredo edge reciprocity, power-law fitting, and
//! small-world assessment.
//!
//! The central type is [`Csr`], an immutable compressed-sparse-row
//! view of one directed, weighted snapshot on nodes `0..n`. Callers
//! number their own nodes and hand [`Csr::from_edges`] an edge list;
//! [`Csr::induced`] restricts a view to a node subset. Every metric,
//! generator and invariant check is a free function over `&Csr`.
//!
//! ## Example
//!
//! ```
//! use magellan_graph::{reciprocity, Csr, NodeId};
//!
//! let (a, b, c) = (NodeId::from_index(0), NodeId::from_index(1), NodeId::from_index(2));
//! let g = Csr::from_edges(
//!     3,
//!     &[
//!         (a, b, 1),
//!         (b, a, 1), // reciprocal pair
//!         (b, c, 1), // one-way
//!     ],
//! );
//! let r = reciprocity::simple_reciprocity_checked_csr(&g).unwrap();
//! assert!((r - 2.0 / 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod digraph;
mod histogram;

pub mod clustering;
pub mod csr;
pub mod degree;
pub mod export;
pub mod incremental;
pub mod invariants;
pub mod kcore;
pub mod paths;
pub mod powerlaw;
pub mod random;
pub mod reciprocity;
pub mod smallworld;

pub use csr::Csr;
pub use digraph::{DiGraph, EdgeRef, NodeId};
pub use histogram::{DegreeHistogram, HistogramPoint};
pub use incremental::{CsrDelta, IncrementalTopology, SyncReport};

use std::error::Error;
use std::fmt;

/// Errors produced by graph construction and metric evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A metric that needs at least one edge was asked of an empty graph.
    EmptyGraph,
    /// A metric that is undefined on a complete graph (density 1).
    CompleteGraph,
    /// Not enough samples to fit a distribution.
    InsufficientSamples {
        /// How many samples were provided.
        got: usize,
        /// How many samples the estimator needs.
        need: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptyGraph => write!(f, "metric undefined on a graph without edges"),
            GraphError::CompleteGraph => {
                write!(f, "metric undefined on a complete graph (density 1)")
            }
            GraphError::InsufficientSamples { got, need } => {
                write!(f, "insufficient samples: got {got}, need at least {need}")
            }
        }
    }
}

impl Error for GraphError {}
