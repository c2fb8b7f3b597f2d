//! # magellan-netsim
//!
//! Discrete-event simulation kernel and Internet underlay model for
//! the Magellan reproduction. This crate provides everything below the
//! P2P overlay:
//!
//! * [`time`] — simulation clock and the GMT+8 study calendar
//!   (2006-10-01 .. 2006-10-14, the two weeks every figure of the
//!   paper plots);
//! * [`event`] — a deterministic event queue;
//! * [`rng`] — seeded, forkable randomness and the distributions the
//!   models need (normal, lognormal, exponential, Zipf);
//! * [`isp`] — the ISP universe of the study (China Telecom, Netcom,
//!   Unicom, Tietong, Edu, other-China, overseas) and a synthetic
//!   IP-to-ISP mapping database standing in for UUSee's commercial
//!   one;
//! * [`link`] — RTT and per-connection throughput models where
//!   intra-ISP paths are systematically better than inter-ISP ones
//!   (the mechanism behind the paper's "natural clustering");
//! * [`capacity`] — access-link classes (ADSL, cable, Ethernet,
//!   campus) with upload/download capacity distributions;
//! * [`partition`] — fault windows and inter-ISP partitions, the
//!   underlay primitives consumed by the fault-injection subsystem;
//! * [`chaos`] — seeded, replayable transport-fault schedules (delays,
//!   partial writes, corruption, resets, stalls) that the `tracetool
//!   nemesis` proxy executes against the networked ingest service.

//!
//! ## Example
//!
//! ```
//! use magellan_netsim::{EventQueue, IspDatabase, PeerAddr, RngFactory, SimTime, StudyCalendar};
//!
//! // Deterministic event ordering.
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::at(0, 21, 0), "evening peak");
//! q.push(SimTime::at(0, 13, 0), "noon peak");
//! assert_eq!(q.pop().unwrap().1, "noon peak");
//!
//! // The study calendar knows the flash-crowd instant.
//! let cal = StudyCalendar::default();
//! assert_eq!(cal.flash_crowd_instant(), SimTime::at(5, 21, 0));
//!
//! // Unique addresses with ISP structure.
//! let db = IspDatabase::default();
//! let mut alloc = db.allocator();
//! let mut rng = RngFactory::new(7).fork("example");
//! let addr: PeerAddr = alloc.alloc(&mut rng);
//! let _isp = db.lookup(addr); // total mapping
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod capacity;
pub mod chaos;
pub mod event;
pub mod isp;
pub mod link;
pub mod partition;
pub mod rng;
pub mod time;

pub use capacity::{AccessClass, CapacityModel, PeerCapacity};
pub use chaos::{render_schedule, ChaosAction, ChaosProfile, FlowSchedule};
pub use event::EventQueue;
pub use isp::{AddrAllocator, Isp, IspDatabase, IspShares, PeerAddr};
pub use link::{LinkModel, LinkQuality};
pub use partition::{uncovered_fraction, FaultWindow, IspPartition};
pub use rng::RngFactory;
pub use time::{SimDuration, SimTime, StudyCalendar, Weekday};
