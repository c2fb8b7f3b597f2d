//! Serialization of the simulator's complete deterministic state.
//!
//! [`SimCheckpoint`] is the plain-data image that
//! [`crate::OverlaySim::capture`] produces between ticks and
//! [`crate::OverlaySim::resume`] rebuilds from: the peer slab with
//! every partner link, the tracker's ordered lists, the address/ISP
//! tables, the crash-expiry queue, all five RNG stream states, the
//! join cursor, pending departures, and the running summary.
//!
//! [`CheckpointView`] is the same state *borrowed*: the simulator
//! lends one of its live slab, tracker lists and RNG states
//! ([`crate::OverlaySim::checkpoint_view`]), and
//! [`CheckpointView::write_to`] streams the body straight into any
//! [`io::Write`] — a checkpoint file — without a second copy of the
//! world. [`SimCheckpoint::encode`] runs the same encoder over a
//! view of its own fields, so there is one body layout and one
//! encoder.
//!
//! The byte codec here is hand-rolled (the workspace's `serde` is a
//! marker-trait stub by design): fixed-width big-endian integers,
//! `f64` as IEEE-754 bits (bit-exact — a checkpointed EWMA must
//! resume to the very same double), length-prefixed vectors. The
//! envelope around these bytes — magic, version, fingerprint, CRC —
//! lives in [`magellan_trace::checkpoint`]; this module assumes the
//! envelope already vouched for integrity but still decodes
//! defensively, returning `None` rather than panicking on any
//! structural surprise (e.g. a body written by a different build).

use crate::peer::{PartnerLink, PartnerTable, PeerId, PeerSlot, PeerState};
use crate::sim::{FaultCounters, SimSummary};
use crate::tracker::{ChannelSnapshot, Tracker, TrackerSnapshot};
use magellan_netsim::{AccessClass, Isp, LinkQuality, PeerAddr, PeerCapacity, SimTime};
use magellan_workload::ChannelId;
use std::borrow::Cow;
use std::io::{self, Write};

/// Version of the checkpoint *body* layout (the envelope carries its
/// own version; this one tracks the field layout below).
pub const BODY_VERSION: u32 = 1;

/// The complete deterministic state of a paused run.
#[derive(Debug, Clone)]
pub struct SimCheckpoint {
    /// The tick index the resumed run executes next.
    pub next_tick: u64,
    /// xoshiro256++ states of the five streams, in fork order:
    /// join, link, select, gossip, faults.
    pub rng_states: [[u64; 4]; 5],
    /// How many join events have been consumed.
    pub join_idx: u64,
    /// Pending departures `(time ms, slab index)`, sorted.
    pub departures: Vec<(u64, u32)>,
    /// Crashed peers the tracker has not yet expired:
    /// `(expiry tick, channel, slab index)`, FIFO order.
    pub crash_expiry: Vec<(u64, ChannelId, u32)>,
    /// The peer slab, `None` for departed slots.
    pub peers: Vec<PeerSlot>,
    /// Peer addresses by slab index (kept past departure).
    pub addrs: Vec<PeerAddr>,
    /// Peer ISPs by slab index.
    pub isps: Vec<Isp>,
    /// Ordered tracker state.
    pub tracker: TrackerSnapshot,
    /// Live (non-server) population.
    pub live: u64,
    /// The summary accumulated so far.
    pub summary: SimSummary,
}

/// A borrowed image of a paused run: everything a [`SimCheckpoint`]
/// holds, by reference. Only the departure list, which the simulator
/// keeps as a heap, is an owned (sorted) copy.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    pub(crate) next_tick: u64,
    pub(crate) rng_states: [[u64; 4]; 5],
    pub(crate) join_idx: u64,
    pub(crate) departures: Cow<'a, [(u64, u32)]>,
    /// The crash-expiry FIFO as its two contiguous runs.
    pub(crate) crash_expiry: [&'a [(u64, ChannelId, u32)]; 2],
    pub(crate) peers: &'a [PeerSlot],
    pub(crate) addrs: &'a [PeerAddr],
    pub(crate) isps: &'a [Isp],
    pub(crate) tracker: TrackerRef<'a>,
    pub(crate) live: u64,
    pub(crate) summary: SimSummary,
}

/// The tracker lists a view encodes: the live tracker's, or a
/// captured snapshot's.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TrackerRef<'a> {
    Live(&'a Tracker),
    Captured(&'a TrackerSnapshot),
}

/// Big-endian field writer over any byte sink.
struct Enc<'w, W: ?Sized>(&'w mut W);

impl<W: Write + ?Sized> Enc<'_, W> {
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.0.write_all(&[v])
    }

    fn u16(&mut self, v: u16) -> io::Result<()> {
        self.0.write_all(&v.to_be_bytes())
    }

    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.0.write_all(&v.to_be_bytes())
    }

    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.0.write_all(&v.to_be_bytes())
    }

    fn f64(&mut self, v: f64) -> io::Result<()> {
        self.u64(v.to_bits())
    }

    /// A vector's length prefix.
    fn len(&mut self, n: usize) -> io::Result<()> {
        self.u32(n as u32)
    }
}

fn isp_index(isp: Isp) -> u8 {
    // Position in the canonical order; ALL is tiny and total.
    Isp::ALL.iter().position(|&i| i == isp).unwrap_or(0) as u8
}

fn class_index(class: AccessClass) -> u8 {
    AccessClass::ALL
        .iter()
        .position(|&c| c == class)
        .unwrap_or(0) as u8
}

/// A bounds-checked big-endian reader over the body bytes.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        let b = self.take(2)?;
        Some(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Length prefix for a vector whose elements occupy at least
    /// `min_elem` bytes — bounds the claimed length against the bytes
    /// actually remaining so a corrupt prefix cannot trigger a huge
    /// allocation.
    fn len(&mut self, min_elem: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        if n.checked_mul(min_elem.max(1))? > self.buf.len() - self.pos {
            return None;
        }
        Some(n)
    }

    fn isp(&mut self) -> Option<Isp> {
        Isp::ALL.get(self.u8()? as usize).copied()
    }

    fn class(&mut self) -> Option<AccessClass> {
        AccessClass::ALL.get(self.u8()? as usize).copied()
    }
}

fn encode_peer<W: Write + ?Sized>(e: &mut Enc<'_, W>, p: &PeerState) -> io::Result<()> {
    e.u32(p.addr.as_u32())?;
    e.u8(isp_index(p.isp))?;
    e.f64(p.capacity.down_kbps)?;
    e.f64(p.capacity.up_kbps)?;
    e.u8(class_index(p.capacity.class))?;
    e.u16(p.channel.0)?;
    e.u64(p.joined.as_millis())?;
    e.u64(p.leaves.as_millis())?;
    e.u8(p.is_server as u8)?;
    e.len(p.partners.len())?;
    for (id, l) in p.partners.iter() {
        e.u32(id.0)?;
        e.f64(l.quality.rtt_ms)?;
        e.f64(l.quality.bandwidth_kbps)?;
        e.u8(l.supplier as u8)?;
        e.f64(l.est_recv_kbps)?;
        e.u64(l.sent_interval)?;
        e.u64(l.recv_interval)?;
        e.u64(l.since.as_millis())?;
        e.u32(l.stale_ticks)?;
    }
    e.f64(p.buffer_fill)?;
    e.f64(p.recv_kbps)?;
    e.f64(p.send_kbps)?;
    e.u32(p.underused_ticks)?;
    e.u32(p.starved_ticks)?;
    e.u8(p.volunteered as u8)?;
    match p.next_report {
        Some(t) => {
            e.u8(1)?;
            e.u64(t.as_millis())?;
        }
        None => {
            e.u8(0)?;
            e.u64(0)?;
        }
    }
    e.u32(p.bootstrap_attempts)?;
    e.u64(p.next_bootstrap_tick)
}

fn decode_peer(d: &mut Dec<'_>) -> Option<PeerState> {
    let addr = PeerAddr::from_u32(d.u32()?);
    let isp = d.isp()?;
    let down_kbps = d.f64()?;
    let up_kbps = d.f64()?;
    let class = d.class()?;
    let channel = ChannelId(d.u16()?);
    let joined = SimTime::from_millis(d.u64()?);
    let leaves = SimTime::from_millis(d.u64()?);
    let is_server = d.u8()? != 0;
    let n_partners = d.len(45)?;
    let mut ids = Vec::with_capacity(n_partners);
    let mut links = Vec::with_capacity(n_partners);
    for _ in 0..n_partners {
        ids.push(PeerId(d.u32()?));
        links.push(PartnerLink {
            quality: LinkQuality {
                rtt_ms: d.f64()?,
                bandwidth_kbps: d.f64()?,
            },
            supplier: d.u8()? != 0,
            est_recv_kbps: d.f64()?,
            sent_interval: d.u64()?,
            recv_interval: d.u64()?,
            since: SimTime::from_millis(d.u64()?),
            stale_ticks: d.u32()?,
        });
    }
    // The encoder writes ids strictly ascending; anything else is a
    // damaged body, and a flat table would carry the damage into every
    // binary search over it.
    let partners = PartnerTable::from_sorted(ids, links)?;
    let buffer_fill = d.f64()?;
    let recv_kbps = d.f64()?;
    let send_kbps = d.f64()?;
    let underused_ticks = d.u32()?;
    let starved_ticks = d.u32()?;
    let volunteered = d.u8()? != 0;
    let has_report = d.u8()? != 0;
    let report_ms = d.u64()?;
    let next_report = has_report.then(|| SimTime::from_millis(report_ms));
    let bootstrap_attempts = d.u32()?;
    let next_bootstrap_tick = d.u64()?;
    Some(PeerState {
        addr,
        isp,
        capacity: PeerCapacity {
            down_kbps,
            up_kbps,
            class,
        },
        channel,
        joined,
        leaves,
        is_server,
        partners,
        buffer_fill,
        recv_kbps,
        send_kbps,
        underused_ticks,
        starved_ticks,
        volunteered,
        next_report,
        bootstrap_attempts,
        next_bootstrap_tick,
    })
}

fn encode_summary<W: Write + ?Sized>(e: &mut Enc<'_, W>, s: &SimSummary) -> io::Result<()> {
    e.u64(s.joins)?;
    e.u64(s.leaves)?;
    e.u64(s.reports)?;
    e.u64(s.peak_concurrent as u64)?;
    e.u64(s.final_concurrent as u64)?;
    e.f64(s.segments)?;
    e.u64(s.ticks)?;
    let f = &s.faults;
    for v in [
        f.crashes,
        f.tracker_denied_joins,
        f.bootstrap_retries,
        f.bootstrap_recoveries,
        f.gossip_fallbacks,
        f.tracker_expirations,
        f.partner_timeouts,
        f.links_blocked,
        f.flows_blocked,
        f.reports_lost,
    ] {
        e.u64(v)?;
    }
    Ok(())
}

/// The tracker's lists: per channel (ascending id) its members and
/// volunteers in live order, then every registered peer's ISP by id.
fn encode_tracker<'t, W: Write + ?Sized>(
    e: &mut Enc<'_, W>,
    channels: impl ExactSizeIterator<Item = (ChannelId, &'t [PeerId], &'t [PeerId])>,
    isps: impl ExactSizeIterator<Item = (PeerId, Isp)>,
) -> io::Result<()> {
    e.len(channels.len())?;
    for (channel, members, volunteers) in channels {
        e.u16(channel.0)?;
        e.len(members.len())?;
        for m in members {
            e.u32(m.0)?;
        }
        e.len(volunteers.len())?;
        for v in volunteers {
            e.u32(v.0)?;
        }
    }
    e.len(isps.len())?;
    for (id, isp) in isps {
        e.u32(id.0)?;
        e.u8(isp_index(isp))?;
    }
    Ok(())
}

impl CheckpointView<'_> {
    /// Streams the checkpoint body into `out` (wrap it in
    /// [`magellan_trace::checkpoint`]'s envelope, e.g. by writing it
    /// through `write_checkpoint_with`). The bytes equal
    /// [`SimCheckpoint::encode`] of the captured state.
    ///
    /// # Errors
    ///
    /// The first error `out` returns; what was written before it is
    /// an incomplete body.
    pub fn write_to<W: Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        let e = &mut Enc(out);
        e.u32(BODY_VERSION)?;
        e.u64(self.next_tick)?;
        for stream in &self.rng_states {
            for &word in stream {
                e.u64(word)?;
            }
        }
        e.u64(self.join_idx)?;
        e.len(self.departures.len())?;
        for &(t, id) in self.departures.iter() {
            e.u64(t)?;
            e.u32(id)?;
        }
        let [older, newer] = self.crash_expiry;
        e.len(older.len() + newer.len())?;
        for &(due, ch, id) in older.iter().chain(newer) {
            e.u64(due)?;
            e.u16(ch.0)?;
            e.u32(id)?;
        }
        e.len(self.peers.len())?;
        for slot in self.peers {
            match slot {
                Some(p) => {
                    e.u8(1)?;
                    encode_peer(e, p)?;
                }
                None => e.u8(0)?,
            }
        }
        e.len(self.addrs.len())?;
        for a in self.addrs {
            e.u32(a.as_u32())?;
        }
        e.len(self.isps.len())?;
        for &isp in self.isps {
            e.u8(isp_index(isp))?;
        }
        match self.tracker {
            TrackerRef::Live(t) => encode_tracker(e, t.lists(), t.isp_entries())?,
            TrackerRef::Captured(t) => encode_tracker(
                e,
                t.channels
                    .iter()
                    .map(|c| (c.channel, &c.members[..], &c.volunteers[..])),
                t.isps.iter().copied(),
            )?,
        }
        e.u64(self.live)?;
        encode_summary(e, &self.summary)
    }

    /// An owned copy of the viewed state.
    pub(crate) fn to_checkpoint(&self) -> SimCheckpoint {
        SimCheckpoint {
            next_tick: self.next_tick,
            rng_states: self.rng_states,
            join_idx: self.join_idx,
            departures: self.departures.to_vec(),
            crash_expiry: self.crash_expiry.concat(),
            peers: self.peers.to_vec(),
            addrs: self.addrs.to_vec(),
            isps: self.isps.to_vec(),
            tracker: match self.tracker {
                TrackerRef::Live(t) => t.snapshot(),
                TrackerRef::Captured(t) => t.clone(),
            },
            live: self.live,
            summary: self.summary,
        }
    }
}

fn decode_summary(d: &mut Dec<'_>) -> Option<SimSummary> {
    Some(SimSummary {
        joins: d.u64()?,
        leaves: d.u64()?,
        reports: d.u64()?,
        peak_concurrent: d.u64()? as usize,
        final_concurrent: d.u64()? as usize,
        segments: d.f64()?,
        ticks: d.u64()?,
        faults: FaultCounters {
            crashes: d.u64()?,
            tracker_denied_joins: d.u64()?,
            bootstrap_retries: d.u64()?,
            bootstrap_recoveries: d.u64()?,
            gossip_fallbacks: d.u64()?,
            tracker_expirations: d.u64()?,
            partner_timeouts: d.u64()?,
            links_blocked: d.u64()?,
            flows_blocked: d.u64()?,
            reports_lost: d.u64()?,
        },
    })
}

impl SimCheckpoint {
    /// A borrowed view of this checkpoint.
    pub fn view(&self) -> CheckpointView<'_> {
        CheckpointView {
            next_tick: self.next_tick,
            rng_states: self.rng_states,
            join_idx: self.join_idx,
            departures: Cow::Borrowed(&self.departures),
            crash_expiry: [&self.crash_expiry, &[]],
            peers: &self.peers,
            addrs: &self.addrs,
            isps: &self.isps,
            tracker: TrackerRef::Captured(&self.tracker),
            live: self.live,
            summary: self.summary,
        }
    }

    /// Serializes the checkpoint body in memory (wrap it in
    /// [`magellan_trace::checkpoint::encode_checkpoint`] before
    /// writing to disk) — [`CheckpointView::write_to`] over
    /// [`SimCheckpoint::view`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024 + self.peers.len() * 256);
        // lint:allow(C1): writing into a Vec cannot fail
        self.view()
            .write_to(&mut out)
            .expect("Vec writes are infallible");
        out
    }

    /// Decodes a checkpoint body. `None` means the bytes are not a
    /// complete version-[`BODY_VERSION`] body — the caller should
    /// fall back to an earlier checkpoint (or a cold start).
    pub fn decode(bytes: &[u8]) -> Option<SimCheckpoint> {
        let mut d = Dec { buf: bytes, pos: 0 };
        if d.u32()? != BODY_VERSION {
            return None;
        }
        let next_tick = d.u64()?;
        let mut rng_states = [[0u64; 4]; 5];
        for stream in &mut rng_states {
            for word in stream.iter_mut() {
                *word = d.u64()?;
            }
        }
        let join_idx = d.u64()?;
        let n = d.len(12)?;
        let mut departures = Vec::with_capacity(n);
        for _ in 0..n {
            departures.push((d.u64()?, d.u32()?));
        }
        let n = d.len(14)?;
        let mut crash_expiry = Vec::with_capacity(n);
        for _ in 0..n {
            crash_expiry.push((d.u64()?, ChannelId(d.u16()?), d.u32()?));
        }
        let n = d.len(1)?;
        let mut peers = Vec::with_capacity(n);
        for _ in 0..n {
            peers.push(match d.u8()? {
                0 => None,
                1 => Some(Box::new(decode_peer(&mut d)?)),
                _ => return None,
            });
        }
        let n = d.len(4)?;
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            addrs.push(PeerAddr::from_u32(d.u32()?));
        }
        let n = d.len(1)?;
        let mut isps = Vec::with_capacity(n);
        for _ in 0..n {
            isps.push(d.isp()?);
        }
        let n = d.len(10)?;
        let mut channels = Vec::with_capacity(n);
        for _ in 0..n {
            let channel = ChannelId(d.u16()?);
            let m = d.len(4)?;
            let mut members = Vec::with_capacity(m);
            for _ in 0..m {
                members.push(PeerId(d.u32()?));
            }
            let v = d.len(4)?;
            let mut volunteers = Vec::with_capacity(v);
            for _ in 0..v {
                volunteers.push(PeerId(d.u32()?));
            }
            channels.push(ChannelSnapshot {
                channel,
                members,
                volunteers,
            });
        }
        let n = d.len(5)?;
        let mut tracker_isps = Vec::with_capacity(n);
        for _ in 0..n {
            tracker_isps.push((PeerId(d.u32()?), d.isp()?));
        }
        let live = d.u64()?;
        let summary = decode_summary(&mut d)?;
        if d.pos != bytes.len() {
            // Trailing bytes: a different layout wrote this body.
            return None;
        }
        Some(SimCheckpoint {
            next_tick,
            rng_states,
            join_idx,
            departures,
            crash_expiry,
            peers,
            addrs,
            isps,
            tracker: TrackerSnapshot {
                channels,
                isps: tracker_isps,
            },
            live,
            summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::tiny_scenario;
    use crate::{OverlaySim, SimConfig};

    /// A checkpoint captured mid-run from a real simulation.
    fn mid_run_checkpoint() -> SimCheckpoint {
        let mut sim = OverlaySim::new(tiny_scenario(21), SimConfig::default());
        let mut state = sim.begin();
        let mut sink = |_r| {};
        let half = state.ticks_total() / 2;
        while state.next_tick() < half {
            sim.tick_once(&mut state, &mut sink).expect("tick");
        }
        sim.capture(&state)
    }

    #[test]
    fn body_reencodes_identically() {
        let ckpt = mid_run_checkpoint();
        assert!(ckpt.peers.iter().flatten().count() > 0, "empty capture");
        let bytes = ckpt.encode();
        let back = SimCheckpoint::decode(&bytes).expect("decodes");
        // PeerState carries floats; byte-for-byte re-encoding is the
        // equality that matters for deterministic resume.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.next_tick, ckpt.next_tick);
        assert_eq!(back.rng_states, ckpt.rng_states);
        assert_eq!(back.tracker, ckpt.tracker);
        assert_eq!(back.live, ckpt.live);
        assert_eq!(back.summary, ckpt.summary);
    }

    #[test]
    fn live_view_streams_the_captured_body() {
        let mut sim = OverlaySim::new(tiny_scenario(22), SimConfig::default());
        let mut state = sim.begin();
        let mut sink = |_r| {};
        let total = state.ticks_total();
        for stop in [0, total / 3, total / 2, total] {
            while state.next_tick() < stop {
                sim.tick_once(&mut state, &mut sink).expect("tick");
            }
            let mut streamed = Vec::new();
            sim.checkpoint_view(&state)
                .write_to(&mut streamed)
                .expect("vec write");
            assert_eq!(streamed, sim.capture(&state).encode(), "tick {stop}");
        }
    }

    #[test]
    fn truncation_and_garbage_never_panic() {
        let bytes = mid_run_checkpoint().encode();
        for cut in 0..bytes.len().min(200) {
            assert!(SimCheckpoint::decode(&bytes[..cut]).is_none());
        }
        assert!(SimCheckpoint::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut long = bytes.clone();
        long.push(7);
        assert!(SimCheckpoint::decode(&long).is_none());
        let garbage: Vec<u8> = (0..997u32).map(|i| (i * 31) as u8).collect();
        assert!(SimCheckpoint::decode(&garbage).is_none());
    }

    /// Byte offset, within an encoded body, of the first partner id of
    /// the first peer holding at least two partners.
    fn first_partner_pair_offset(ckpt: &SimCheckpoint) -> usize {
        // Fixed prologue: version, next_tick, 5×4 RNG words, join_idx.
        let mut at = 4 + 8 + 5 * 4 * 8 + 8;
        at += 4 + 12 * ckpt.departures.len();
        at += 4 + 14 * ckpt.crash_expiry.len();
        at += 4;
        for slot in &ckpt.peers {
            at += 1;
            let Some(p) = slot else { continue };
            if p.partners.len() >= 2 {
                // addr, isp, 2×capacity, class, channel, joined,
                // leaves, is_server, then the partner count.
                return at + (4 + 1 + 8 + 8 + 1 + 2 + 8 + 8 + 1) + 4;
            }
            let mut body = Vec::new();
            encode_peer(&mut Enc(&mut body), p).unwrap();
            at += body.len();
        }
        panic!("no peer with two partners in the capture");
    }

    #[test]
    fn unsorted_or_duplicate_partner_ids_are_rejected() {
        // id, 2×quality, supplier, estimate, 2×interval, since, stale.
        const PARTNER_ENTRY: usize = 4 + 8 + 8 + 1 + 8 + 8 + 8 + 8 + 4;
        let ckpt = mid_run_checkpoint();
        let bytes = ckpt.encode();
        assert!(SimCheckpoint::decode(&bytes).is_some());
        let first = first_partner_pair_offset(&ckpt);
        let second = first + PARTNER_ENTRY;

        // Swapped ids: a BTreeMap silently re-sorted this damage; the
        // flat table would carry it into every binary search.
        let mut swapped = bytes.clone();
        let (a, b) = swapped.split_at_mut(second);
        a[first..first + 4].swap_with_slice(&mut b[..4]);
        assert_ne!(swapped, bytes, "offsets missed the id column");
        assert!(SimCheckpoint::decode(&swapped).is_none());

        let mut duplicated = bytes.clone();
        duplicated.copy_within(first..first + 4, second);
        assert!(SimCheckpoint::decode(&duplicated).is_none());
    }
}
