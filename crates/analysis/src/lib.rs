//! # magellan-analysis
//!
//! The Magellan study itself (paper §4): everything between raw peer
//! reports and the figures.
//!
//! * [`classify`] — partner classification: active supplying / active
//!   receiving / non-active, with the 10-segment threshold;
//! * [`graphs`] — construction of the directed active-link topology
//!   and the stable-peer graph from trace snapshots, with ISP
//!   annotation;
//! * [`plot`] — dependency-free SVG rendering of the figures;
//! * [`sessions`] — the streaming stable-session fold over report runs;
//! * [`timeseries`] — metric-evolution series and CSV rendering;
//! * [`figures`] — one typed result per figure of the paper
//!   (Fig. 1A through Fig. 8B) plus text renderers;
//! * [`study`] — the end-to-end driver: scenario → simulation →
//!   collector (peer uplink, admission gateway) → streaming trace
//!   analysis → [`figures::StudyReport`];
//! * [`durable`] — the same live loop with an on-disk archive and
//!   checkpoint/resume around it, plus offline archive replay.
//!
//! Both drivers consume reports as a stream (the real study had 120 GB
//! of them); nothing here requires the full trace in memory.

//!
//! ## Example
//!
//! ```no_run
//! use magellan_analysis::study::{MagellanStudy, StudyConfig};
//!
//! let report = MagellanStudy::new(StudyConfig {
//!     scale: 0.002,
//!     window_days: 2,
//!     ..StudyConfig::default()
//! })
//! .run();
//! println!("{}", report.render_text());
//! assert!(report.fig8.all.mean() > 0.0); // the mesh is reciprocal
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod classify;
pub mod durable;
pub mod figures;
pub mod graphs;
pub mod plot;
pub mod sessions;
pub mod study;
pub mod timeseries;

pub use durable::{DurableConfig, DurableStudy};
pub use figures::StudyReport;
pub use study::{MagellanStudy, StudyConfig};
