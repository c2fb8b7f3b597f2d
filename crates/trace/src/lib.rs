//! # magellan-trace
//!
//! The measurement substrate of the Magellan reproduction — a faithful
//! implementation of the paper's §3.2:
//!
//! * [`report`] — the peer report schema: IP address, channel, buffer
//!   map, total capacities, instantaneous aggregate send/receive
//!   throughput, and the full partner list with per-partner segment
//!   counters; plus the reporting schedule (first report 20 minutes
//!   after join, then every 10 minutes).
//! * [`buffer`] — the sliding-window buffer map peers advertise.
//! * [`archive`] / [`segment`] — the durable segmented report archive:
//!   CRC-framed records in sealed-by-atomic-rename segments, plus the
//!   corruption-tolerant streaming reader and its [`RecoveryReport`].
//! * [`checkpoint`] — the self-validating checkpoint-file envelope
//!   behind crash-safe study resume.
//! * [`gateway`] — the collection endpoint's admission rules
//!   ([`GatewayCore`]: scheduled-downtime windows, validation,
//!   `(peer, timestamp)` deduplication of retransmitted reports), the
//!   report-delivery trait the uplink speaks, and [`SinkGateway`],
//!   which puts the rules in front of any in-process report sink.
//! * [`atomicio`] — write-temp-then-atomic-rename artifact emission.
//! * [`wire`] — a compact binary encoding of reports (the real system
//!   shipped them as UDP datagrams); the archive frames the same
//!   bytes.
//! * [`codec`] — the networked service's message vocabulary:
//!   length-prefixed frames over TCP, fixed-size reply records.
//! * [`shard`] — one shard of the sharded admission pipeline: an
//!   owned [`GatewayCore`] plus a bounded pending buffer with
//!   `Busy`/`Late` shedding and balanced per-shard accounting.
//! * [`service`] — the sans-I/O service brain: client registry,
//!   window-barrier merge sequencing, and the [`IngestStats`] sidecar
//!   (`magellan-traced` is the thin socket shell around it).
//! * [`uplink`] — the peer-side bounded store-and-forward queue that
//!   buffers reports across server downtime and retransmits them,
//!   and the networked [`NetUplink`] client shell with
//!   capped-exponential retry.
//! * [`store`] — the trace store with 10-minute bucketing and range
//!   queries.
//! * [`snapshot`] — reconstruction of "continuous-time snapshots of
//!   P2P streaming topologies": the stable-peer set, the known-IP
//!   universe, and the directed partner multigraph at any instant.
//! * [`stats`] — trace volume accounting (the "120 GB" arithmetic).

//!
//! ## Example
//!
//! ```
//! use magellan_trace::{wire, BufferMap, GatewayCore, PeerReport, ReportGateway, SinkGateway};
//! use magellan_netsim::{PeerAddr, SimTime};
//! use magellan_workload::ChannelId;
//!
//! let report = PeerReport {
//!     time: SimTime::at(0, 0, 20),
//!     addr: PeerAddr::from_u32(0x0B000001),
//!     channel: ChannelId::CCTV1,
//!     buffer_map: BufferMap::new(0, 16),
//!     download_capacity_kbps: 2000.0,
//!     upload_capacity_kbps: 512.0,
//!     recv_throughput_kbps: 395.0,
//!     send_throughput_kbps: 120.0,
//!     partners: vec![],
//! };
//! // The wire codec round-trips.
//! let datagram = wire::encode(&report);
//! assert_eq!(wire::decode(&mut datagram.clone()).unwrap(), report);
//! // Admission stores a report once; a retransmission is absorbed.
//! let mut core = GatewayCore::new(SimTime::at(1, 0, 0), vec![]);
//! let mut stored = Vec::new();
//! let mut gateway = SinkGateway::new(&mut core, |r| stored.push(r));
//! gateway.submit_report(report.clone(), report.time).unwrap();
//! gateway.submit_report(report.clone(), report.time).unwrap();
//! assert_eq!(stored, vec![report]);
//! assert_eq!(core.stats().duplicates, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod archive;
pub mod atomicio;
pub mod buffer;
pub mod checkpoint;
pub mod codec;
pub mod gateway;
pub mod report;
pub mod segment;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod uplink;
pub mod wire;

pub use archive::{ArchiveConfig, ArchiveWriter, Commit, RecoveryReport};
pub use atomicio::atomic_write;
pub use buffer::BufferMap;
pub use codec::{ClientMsg, FrameReader, ReplyMsg};
pub use gateway::{GatewayCore, ReportGateway, ServerStats, SinkGateway, SubmitError};
pub use report::{
    PartnerRecord, PeerReport, ACTIVE_SEGMENT_THRESHOLD, FIRST_REPORT_DELAY, REPORT_INTERVAL,
    STALENESS_HORIZON,
};
pub use service::{ClientRegistry, IngestStats, ServiceCore, ServiceResume, TokenBucket};
pub use shard::{shard_of, Shard, ShardStats};
pub use snapshot::{Snapshot, SnapshotBuilder};
pub use stats::TraceStats;
pub use store::TraceStore;
pub use uplink::{NetBackoff, NetUplink, ReportUplink, UplinkStats};
pub use wire::StatusCode;
