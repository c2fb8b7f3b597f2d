//! # magellan-overlay
//!
//! A discrete-event simulator of the UUSee mesh live-streaming
//! protocol (paper §3.1), built so that the topological findings of
//! the Magellan study *emerge* from protocol dynamics rather than
//! being scripted:
//!
//! * new peers bootstrap from a tracking server with up to 50
//!   partners, biased toward peers that volunteered spare upload
//!   capacity ([`tracker`]);
//! * peers measure per-connection RTT and TCP throughput and select
//!   around 30 of the most suitable partners to actually request
//!   blocks from ([`peer`], [`selection logic`](peer::PeerState));
//! * block transfers run under upload/download capacity constraints
//!   and path throughput ceilings, with usefulness governed by buffer
//!   occupancy ([`transfer`]) — reciprocity emerges because peers at
//!   similar playback points hold complementary segment sets;
//! * peers whose aggregate sending throughput stays below their upload
//!   capacity volunteer at the tracker; peers whose playback starves
//!   fall back to the tracker for fresh partners; neighbors gossip
//!   partner recommendations ([`sim`]);
//! * every peer follows the §3.2 measurement schedule, emitting
//!   [`magellan_trace::PeerReport`]s to a trace sink.
//!
//! The simulator never consults ISP labels: the intra-ISP clustering
//! of Figs. 6–8 arises purely from the underlay's quality gradient.

//!
//! ## Example
//!
//! ```no_run
//! use magellan_overlay::{OverlaySim, SimConfig};
//! use magellan_workload::Scenario;
//! use magellan_netsim::StudyCalendar;
//!
//! let scenario = Scenario::builder(2006, 0.001)
//!     .calendar(StudyCalendar { window_days: 1 })
//!     .build();
//! let mut sim = OverlaySim::new(scenario, SimConfig::default());
//! let (trace, summary) = sim.run_collecting().expect("consistent scenario");
//! println!("{} reports from {} joins", trace.len(), summary.joins);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod peer;
pub mod sim;
pub mod tracker;
pub mod transfer;

pub use checkpoint::{CheckpointView, SimCheckpoint};
pub use config::SimConfig;
pub use error::{SimError, TransferError};
pub use peer::{PeerId, PeerSlot, PeerState};
pub use sim::{OverlaySim, RunState, SimSummary};
pub use tracker::Tracker;
