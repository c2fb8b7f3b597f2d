//! Serialization of the simulator's complete deterministic state.
//!
//! [`SimCheckpoint`] is the plain-data image that
//! [`crate::OverlaySim::capture`] produces between ticks and
//! [`crate::OverlaySim::resume`] rebuilds from: the peer slab with
//! every partner link, the tracker's ordered lists, the address/ISP
//! tables, the crash-expiry queue, all five RNG stream states, the
//! join cursor, pending departures, and the running summary.
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
use crate::tracker::{ChannelSnapshot, TrackerSnapshot};
use magellan_netsim::{AccessClass, Isp, LinkQuality, PeerAddr, PeerCapacity, SimTime};
use magellan_workload::ChannelId;

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
    pub crash_expiry: Vec<(u64, u16, u32)>,
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

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
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

fn encode_peer(out: &mut Vec<u8>, p: &PeerState) {
    put_u32(out, p.addr.as_u32());
    put_u8(out, isp_index(p.isp));
    put_f64(out, p.capacity.down_kbps);
    put_f64(out, p.capacity.up_kbps);
    put_u8(out, class_index(p.capacity.class));
    put_u16(out, p.channel.0);
    put_u64(out, p.joined.as_millis());
    put_u64(out, p.leaves.as_millis());
    put_u8(out, p.is_server as u8);
    put_u32(out, p.partners.len() as u32);
    for (id, l) in p.partners.iter() {
        put_u32(out, id.0);
        put_f64(out, l.quality.rtt_ms);
        put_f64(out, l.quality.bandwidth_kbps);
        put_u8(out, l.supplier as u8);
        put_f64(out, l.est_recv_kbps);
        put_u64(out, l.sent_interval);
        put_u64(out, l.recv_interval);
        put_u64(out, l.since.as_millis());
        put_u32(out, l.stale_ticks);
    }
    put_f64(out, p.buffer_fill);
    put_f64(out, p.recv_kbps);
    put_f64(out, p.send_kbps);
    put_u32(out, p.underused_ticks);
    put_u32(out, p.starved_ticks);
    put_u8(out, p.volunteered as u8);
    match p.next_report {
        Some(t) => {
            put_u8(out, 1);
            put_u64(out, t.as_millis());
        }
        None => {
            put_u8(out, 0);
            put_u64(out, 0);
        }
    }
    put_u32(out, p.bootstrap_attempts);
    put_u64(out, p.next_bootstrap_tick);
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

fn encode_summary(out: &mut Vec<u8>, s: &SimSummary) {
    put_u64(out, s.joins);
    put_u64(out, s.leaves);
    put_u64(out, s.reports);
    put_u64(out, s.peak_concurrent as u64);
    put_u64(out, s.final_concurrent as u64);
    put_f64(out, s.segments);
    put_u64(out, s.ticks);
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
        put_u64(out, v);
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
    /// Serializes the checkpoint body (wrap it in
    /// [`magellan_trace::checkpoint::encode_checkpoint`] before
    /// writing to disk).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024 + self.peers.len() * 256);
        put_u32(&mut out, BODY_VERSION);
        put_u64(&mut out, self.next_tick);
        for stream in &self.rng_states {
            for &word in stream {
                put_u64(&mut out, word);
            }
        }
        put_u64(&mut out, self.join_idx);
        put_u32(&mut out, self.departures.len() as u32);
        for &(t, id) in &self.departures {
            put_u64(&mut out, t);
            put_u32(&mut out, id);
        }
        put_u32(&mut out, self.crash_expiry.len() as u32);
        for &(due, ch, id) in &self.crash_expiry {
            put_u64(&mut out, due);
            put_u16(&mut out, ch);
            put_u32(&mut out, id);
        }
        put_u32(&mut out, self.peers.len() as u32);
        for slot in &self.peers {
            match slot {
                Some(p) => {
                    put_u8(&mut out, 1);
                    encode_peer(&mut out, p);
                }
                None => put_u8(&mut out, 0),
            }
        }
        put_u32(&mut out, self.addrs.len() as u32);
        for a in &self.addrs {
            put_u32(&mut out, a.as_u32());
        }
        put_u32(&mut out, self.isps.len() as u32);
        for &isp in &self.isps {
            put_u8(&mut out, isp_index(isp));
        }
        put_u32(&mut out, self.tracker.channels.len() as u32);
        for ch in &self.tracker.channels {
            put_u16(&mut out, ch.channel.0);
            put_u32(&mut out, ch.members.len() as u32);
            for m in &ch.members {
                put_u32(&mut out, m.0);
            }
            put_u32(&mut out, ch.volunteers.len() as u32);
            for v in &ch.volunteers {
                put_u32(&mut out, v.0);
            }
        }
        put_u32(&mut out, self.tracker.isps.len() as u32);
        for &(id, isp) in &self.tracker.isps {
            put_u32(&mut out, id.0);
            put_u8(&mut out, isp_index(isp));
        }
        put_u64(&mut out, self.live);
        encode_summary(&mut out, &self.summary);
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
            crash_expiry.push((d.u64()?, d.u16()?, d.u32()?));
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
            encode_peer(&mut body, p);
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
