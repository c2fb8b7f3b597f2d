//! Per-peer protocol state: partner table, buffer occupancy,
//! throughput accounting, supplier selection, and report assembly.

use crate::config::SimConfig;
use magellan_netsim::{Isp, LinkQuality, PeerAddr, PeerCapacity, SimTime};
use magellan_trace::{BufferMap, PartnerRecord, PeerReport};
use magellan_workload::ChannelId;
use rand::RngExt as _;

/// Dense identifier of a peer within one [`crate::OverlaySim`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl PeerId {
    /// Index into the simulator's peer slab.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One entry of a peer's partner table.
#[derive(Debug, Clone)]
pub struct PartnerLink {
    /// Sampled path quality toward this partner.
    pub quality: LinkQuality,
    /// Whether this partner is currently in our supplier set (we
    /// request blocks from it).
    pub supplier: bool,
    /// EWMA estimate of the receive throughput from this partner
    /// (Kbps), seeded from the measured path ceiling — the protocol
    /// "measures the round-trip delay and TCP throughput of the
    /// connection".
    pub est_recv_kbps: f64,
    /// Segments sent to this partner since the last report.
    pub sent_interval: u64,
    /// Segments received from this partner since the last report.
    pub recv_interval: u64,
    /// When the connection was established.
    pub since: SimTime,
    /// Consecutive maintenance ticks this partner has been silent
    /// (its peer slot is gone — a crash or departure we were never
    /// told about). At `SimConfig::partner_timeout_ticks` the link is
    /// declared dead and removed; the delay models transfer-timeout
    /// discovery, since crashed peers send no leave message.
    pub stale_ticks: u32,
}

impl PartnerLink {
    /// The supplier-selection score: expected goodput discounted by
    /// latency (long RTTs hurt block scheduling in a sliding window).
    pub fn score(&self) -> f64 {
        self.est_recv_kbps / (1.0 + self.quality.rtt_ms / 200.0)
    }
}

/// A peer's partner table: ids and links in parallel vectors, kept
/// strictly ascending by id.
///
/// Ascending-id iteration is the one ordering contract the rest of the
/// crate relies on: the transfer engine's merge walk, the checkpoint
/// encoder, report assembly, and every RNG draw that picks a partner
/// by position all assume it (DESIGN.md §10, "Peer state layout").
/// Lookups binary-search the id column alone — 4 bytes per entry, so a
/// 50-partner table resolves within four cache lines without touching
/// a link.
#[derive(Debug, Clone, Default)]
pub struct PartnerTable {
    ids: Vec<PeerId>,
    links: Vec<PartnerLink>,
}

impl PartnerTable {
    /// Rebuilds a table from its two columns (checkpoint decode).
    /// `None` unless the columns are equally long and the ids strictly
    /// ascending — a table violating that would silently break every
    /// binary search and merge walk over it.
    pub fn from_sorted(ids: Vec<PeerId>, links: Vec<PartnerLink>) -> Option<Self> {
        let table = PartnerTable { ids, links };
        table.is_well_formed().then_some(table)
    }

    /// Whether the columns line up and the ids are strictly ascending
    /// (sorted, no duplicates).
    pub fn is_well_formed(&self) -> bool {
        self.ids.len() == self.links.len() && self.ids.windows(2).all(|w| w[0] < w[1])
    }

    /// Number of partners.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table holds no partners.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Partner ids, ascending.
    pub fn ids(&self) -> &[PeerId] {
        &self.ids
    }

    /// Table position of `id`, if it is a partner.
    fn position(&self, id: PeerId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Whether `id` is a partner.
    pub fn contains(&self, id: PeerId) -> bool {
        self.position(id).is_some()
    }

    /// The link toward `id`, if it is a partner.
    pub fn get(&self, id: PeerId) -> Option<&PartnerLink> {
        self.links.get(self.position(id)?)
    }

    /// Mutable access to the link toward `id`.
    pub fn get_mut(&mut self, id: PeerId) -> Option<&mut PartnerLink> {
        let pos = self.position(id)?;
        self.links.get_mut(pos)
    }

    /// Inserts a link toward `id` unless one exists (the existing link
    /// is kept untouched). Returns whether it was new. An id above
    /// every current one — a joiner, whose id is the slab maximum — is
    /// a plain append.
    pub fn insert(&mut self, id: PeerId, link: PartnerLink) -> bool {
        if self.ids.last().map_or(true, |&last| last < id) {
            self.ids.push(id);
            self.links.push(link);
            return true;
        }
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                self.links.insert(pos, link);
                true
            }
        }
    }

    /// Removes and returns the link toward `id`.
    pub fn remove(&mut self, id: PeerId) -> Option<PartnerLink> {
        let pos = self.position(id)?;
        self.ids.remove(pos);
        Some(self.links.remove(pos))
    }

    /// `(id, link)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, &PartnerLink)> + '_ {
        self.ids.iter().copied().zip(&self.links)
    }

    /// `(id, link)` pairs in ascending id order, links mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PeerId, &mut PartnerLink)> + '_ {
        self.ids.iter().copied().zip(&mut self.links)
    }

    /// Visits every entry in ascending id order and drops those for
    /// which `keep` returns `false`, compacting in place.
    pub fn retain_mut(&mut self, mut keep: impl FnMut(PeerId, &mut PartnerLink) -> bool) {
        let mut kept = 0usize;
        // lint:allow(H3): one peer's own capped partner table - the event's peer, not the population
        for pos in 0..self.ids.len() {
            let id = self.ids[pos];
            if keep(id, &mut self.links[pos]) {
                self.ids[kept] = id;
                self.links.swap(kept, pos);
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.links.truncate(kept);
    }
}

/// The full state of one online peer (or streaming server).
#[derive(Debug, Clone)]
pub struct PeerState {
    /// Network identity.
    pub addr: PeerAddr,
    /// ISP (used by analysis only — the protocol never reads it).
    pub isp: Isp,
    /// Access capacities.
    pub capacity: PeerCapacity,
    /// Channel being watched (or served).
    pub channel: ChannelId,
    /// Join instant.
    pub joined: SimTime,
    /// Scheduled departure.
    pub leaves: SimTime,
    /// Whether this is a streaming server (content origin: buffer
    /// always full, never leaves, never reports).
    pub is_server: bool,
    /// Partner table.
    pub partners: PartnerTable,
    /// Buffer occupancy: fraction of the sliding window held.
    pub buffer_fill: f64,
    /// Aggregate receive throughput last tick (Kbps).
    pub recv_kbps: f64,
    /// Aggregate send throughput last tick (Kbps).
    pub send_kbps: f64,
    /// Consecutive ticks with upload utilization below the volunteer
    /// threshold.
    pub underused_ticks: u32,
    /// Consecutive ticks with receive rate below the fallback
    /// threshold.
    pub starved_ticks: u32,
    /// Whether the peer is currently on the tracker's volunteer list.
    pub volunteered: bool,
    /// Next report due (none for servers).
    pub next_report: Option<SimTime>,
    /// Failed bootstrap attempts so far (tracker unreachable); drives
    /// the capped exponential retry backoff.
    pub bootstrap_attempts: u32,
    /// Earliest tick index at which the next bootstrap retry may run
    /// (0 = no retry pending).
    pub next_bootstrap_tick: u64,
}

/// One slot of the simulator's append-only peer slab: `None` once the
/// peer has left. Boxed, so a departed peer costs the slab a pointer
/// rather than a whole vacant `PeerState` — in a churn-dominated run
/// nearly every slot is a departed peer.
pub type PeerSlot = Option<Box<PeerState>>;

impl PeerState {
    /// Creates a fresh ordinary peer.
    pub fn new_peer(
        addr: PeerAddr,
        isp: Isp,
        capacity: PeerCapacity,
        channel: ChannelId,
        joined: SimTime,
        leaves: SimTime,
    ) -> Self {
        PeerState {
            addr,
            isp,
            capacity,
            channel,
            joined,
            leaves,
            is_server: false,
            partners: PartnerTable::default(),
            buffer_fill: 0.0,
            recv_kbps: 0.0,
            send_kbps: 0.0,
            underused_ticks: 0,
            starved_ticks: 0,
            volunteered: false,
            next_report: Some(joined + magellan_trace::FIRST_REPORT_DELAY),
            bootstrap_attempts: 0,
            next_bootstrap_tick: 0,
        }
    }

    /// Creates a streaming server for `channel`.
    pub fn new_server(
        addr: PeerAddr,
        isp: Isp,
        up_kbps: f64,
        channel: ChannelId,
        now: SimTime,
        horizon: SimTime,
    ) -> Self {
        PeerState {
            addr,
            isp,
            capacity: PeerCapacity {
                down_kbps: up_kbps,
                up_kbps,
                class: magellan_netsim::AccessClass::Campus,
            },
            channel,
            joined: now,
            leaves: horizon,
            is_server: true,
            partners: PartnerTable::default(),
            buffer_fill: 1.0,
            recv_kbps: 0.0,
            send_kbps: 0.0,
            underused_ticks: 0,
            starved_ticks: 0,
            volunteered: false,
            next_report: None,
            bootstrap_attempts: 0,
            next_bootstrap_tick: 0,
        }
    }

    /// Adds a partner connection (no-op if already present). Returns
    /// whether it was new.
    pub fn add_partner(&mut self, id: PeerId, quality: LinkQuality, now: SimTime) -> bool {
        self.partners.insert(
            id,
            PartnerLink {
                quality,
                supplier: false,
                est_recv_kbps: quality.bandwidth_kbps,
                sent_interval: 0,
                recv_interval: 0,
                since: now,
                stale_ticks: 0,
            },
        )
    }

    /// Removes a partner (e.g. it departed).
    pub fn remove_partner(&mut self, id: PeerId) {
        self.partners.remove(id);
    }

    /// Current supplier ids.
    pub fn suppliers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.partners
            .iter()
            .filter(|(_, l)| l.supplier)
            .map(|(id, _)| id)
    }

    /// Re-selects the supplier set: the `target` best-scoring
    /// partners (or a uniformly random subset under the
    /// `random_selection` ablation). `ranked` is caller-owned scratch.
    ///
    /// Servers never select suppliers.
    pub fn select_suppliers<R: rand::Rng + ?Sized>(
        &mut self,
        target: usize,
        random_selection: bool,
        rng: &mut R,
        ranked: &mut Vec<(f64, u32)>,
    ) {
        if self.is_server {
            return;
        }
        let links = &mut self.partners.links;
        ranked.clear();
        ranked.extend(
            links
                .iter()
                .enumerate()
                .map(|(pos, l)| (l.score(), pos as u32)),
        );
        let n = ranked.len();
        if random_selection {
            // Fisher–Yates prefix shuffle.
            for i in 0..n.min(target) {
                let j = rng.random_range(i..n);
                ranked.swap(i, j);
            }
        } else if n > target {
            // Only the top-`target` *set* matters, so a partition
            // replaces the full sort. Positions ascend with ids, which
            // makes (score desc, position asc) the same strict total
            // order as (score desc, id asc): the set is unique.
            ranked.select_nth_unstable_by(target, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        for l in links.iter_mut() {
            l.supplier = false;
        }
        for &(_, pos) in ranked.iter().take(target) {
            links[pos as usize].supplier = true;
        }
    }

    /// Prunes the partner table down to `max` entries, dropping the
    /// lowest-scoring non-supplier links first. `ranked` is
    /// caller-owned scratch.
    pub fn prune_partners(&mut self, max: usize, ranked: &mut Vec<(f64, u32)>) {
        if self.partners.len() <= max {
            return;
        }
        let excess = self.partners.len() - max;
        ranked.clear();
        ranked.extend(
            self.partners
                .links
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.supplier)
                .map(|(pos, l)| (l.score(), pos as u32)),
        );
        if ranked.len() > excess {
            // (score asc, position asc) is strict, so the `excess`
            // lowest form a unique set.
            ranked.select_nth_unstable_by(excess, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            ranked.truncate(excess);
        }
        // Victims in table order, so one compaction pass drops them.
        ranked.sort_unstable_by_key(|&(_, pos)| pos);
        let mut victims = ranked.iter().map(|&(_, pos)| pos).peekable();
        let mut pos = 0u32;
        self.partners.retain_mut(|_, _| {
            let victim = victims.next_if_eq(&pos).is_some();
            pos += 1;
            !victim
        });
    }

    /// Upload utilization over the last tick.
    pub fn upload_utilization(&self) -> f64 {
        if self.capacity.up_kbps <= 0.0 {
            return 1.0;
        }
        (self.send_kbps / self.capacity.up_kbps).min(1.0)
    }

    /// Assembles the §3.2 report at `now` and resets the per-interval
    /// segment counters. `resolve` maps partner ids to their IP
    /// addresses (the simulator owns that mapping).
    ///
    /// The bitmap is synthesized from the scalar occupancy (the
    /// simulator tracks fill, not individual segments): the window
    /// holds the leading `fill × len` segments. Analyses consume only
    /// the fill level.
    pub fn build_report<F>(&mut self, now: SimTime, window_segments: u32, resolve: F) -> PeerReport
    where
        F: Fn(PeerId) -> PeerAddr,
    {
        let len = window_segments.min(u16::MAX as u32) as u16;
        let held = (self.buffer_fill * len as f64).round() as u64;
        let start = now.as_millis() / 200; // 5 segments/s stream position
        let mut bm = BufferMap::new(start, len);
        for s in 0..held.min(len as u64) {
            bm.set(start + s);
        }
        let partners: Vec<PartnerRecord> = self
            .partners
            .iter()
            .map(|(id, l)| PartnerRecord {
                addr: resolve(id),
                tcp_port: 16_800 + (id.0 % 1_000) as u16,
                udp_port: 26_800 + (id.0 % 1_000) as u16,
                segments_sent: l.sent_interval,
                segments_received: l.recv_interval,
            })
            .collect(); // lint:allow(H2): the report owns its partner list; one per report, capped by the partner limit
        for l in &mut self.partners.links {
            l.sent_interval = 0;
            l.recv_interval = 0;
        }
        PeerReport {
            time: now,
            addr: self.addr,
            channel: self.channel,
            buffer_map: bm,
            download_capacity_kbps: self.capacity.down_kbps,
            upload_capacity_kbps: self.capacity.up_kbps,
            recv_throughput_kbps: self.recv_kbps,
            send_throughput_kbps: self.send_kbps,
            partners,
        }
    }

    /// Per-tick demand in segments: refill the window gap plus keep
    /// up with the stream, bounded by download capacity.
    pub fn demand_segments(&self, cfg: &SimConfig, rate_kbps: f64) -> f64 {
        if self.is_server {
            return 0.0;
        }
        let gap = (1.0 - self.buffer_fill) * cfg.window_segments as f64;
        let stream = cfg.stream_segments_per_tick(rate_kbps);
        (gap + stream).min(cfg.capacity_segments_per_tick(self.capacity.down_kbps))
    }

    /// Applies one tick's received segments: updates occupancy and
    /// the receive rate.
    ///
    /// A tick (minutes) is much longer than the sliding window
    /// (seconds), so the window turns over many times per tick and
    /// occupancy is governed by the *ratio* of delivery rate to
    /// stream rate: a peer receiving the full stream rate converges
    /// to a full window, one receiving half the rate to a half-full
    /// window. A geometric blend keeps a one-tick memory.
    pub fn apply_tick_delivery(&mut self, cfg: &SimConfig, rate_kbps: f64, delivered: f64) {
        if self.is_server {
            return;
        }
        let stream = cfg.stream_segments_per_tick(rate_kbps).max(1e-9);
        let ratio = (delivered / stream).min(1.0);
        self.buffer_fill = (0.25 * self.buffer_fill + 0.75 * ratio).clamp(0.0, 1.0);
        self.recv_kbps = cfg.segments_to_kbps(delivered).min(rate_kbps * 1.5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_netsim::{AccessClass, RngFactory};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn quality(bw: f64, rtt: f64) -> LinkQuality {
        LinkQuality {
            rtt_ms: rtt,
            bandwidth_kbps: bw,
        }
    }

    fn peer() -> PeerState {
        PeerState::new_peer(
            PeerAddr::from_u32(1),
            Isp::Telecom,
            PeerCapacity {
                down_kbps: 2_000.0,
                up_kbps: 512.0,
                class: AccessClass::Adsl,
            },
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(0, 2, 0),
        )
    }

    #[test]
    fn new_peer_schedules_first_report_after_twenty_minutes() {
        let p = peer();
        assert_eq!(
            p.next_report,
            Some(SimTime::ORIGIN + magellan_trace::FIRST_REPORT_DELAY)
        );
        assert!(!p.is_server);
        assert_eq!(p.buffer_fill, 0.0);
    }

    #[test]
    fn server_never_reports_and_is_full() {
        let s = PeerState::new_server(
            PeerAddr::from_u32(9),
            Isp::Telecom,
            10_000.0,
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(14, 0, 0),
        );
        assert!(s.is_server);
        assert_eq!(s.next_report, None);
        assert_eq!(s.buffer_fill, 1.0);
    }

    #[test]
    fn add_partner_is_idempotent() {
        let mut p = peer();
        assert!(p.add_partner(PeerId(5), quality(800.0, 30.0), SimTime::ORIGIN));
        assert!(!p.add_partner(PeerId(5), quality(100.0, 99.0), SimTime::ORIGIN));
        assert_eq!(p.partners.len(), 1);
        // Original quality retained.
        let kept = p.partners.get(PeerId(5)).unwrap();
        assert!((kept.quality.bandwidth_kbps - 800.0).abs() < 1e-9);
    }

    #[test]
    fn selection_prefers_high_scores() {
        let mut p = peer();
        p.add_partner(PeerId(1), quality(1_500.0, 20.0), SimTime::ORIGIN);
        p.add_partner(PeerId(2), quality(100.0, 300.0), SimTime::ORIGIN);
        p.add_partner(PeerId(3), quality(900.0, 25.0), SimTime::ORIGIN);
        let mut rng = RngFactory::new(1).fork("sel");
        p.select_suppliers(2, false, &mut rng, &mut Vec::new());
        let mut sel: Vec<u32> = p.suppliers().map(|i| i.0).collect();
        sel.sort();
        assert_eq!(sel, vec![1, 3]);
    }

    #[test]
    fn selection_caps_at_target() {
        let mut p = peer();
        for i in 0..50 {
            p.add_partner(PeerId(i), quality(500.0, 50.0), SimTime::ORIGIN);
        }
        let mut rng = RngFactory::new(2).fork("sel");
        p.select_suppliers(30, false, &mut rng, &mut Vec::new());
        assert_eq!(p.suppliers().count(), 30);
    }

    #[test]
    fn random_selection_is_isp_blind_and_sized() {
        let mut p = peer();
        for i in 0..40 {
            p.add_partner(PeerId(i), quality(i as f64 * 10.0, 30.0), SimTime::ORIGIN);
        }
        let mut rng = RngFactory::new(3).fork("sel");
        p.select_suppliers(10, true, &mut rng, &mut Vec::new());
        assert_eq!(p.suppliers().count(), 10);
    }

    #[test]
    fn servers_do_not_select() {
        let mut s = PeerState::new_server(
            PeerAddr::from_u32(9),
            Isp::Telecom,
            10_000.0,
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(14, 0, 0),
        );
        s.add_partner(PeerId(1), quality(1_000.0, 10.0), SimTime::ORIGIN);
        let mut rng = RngFactory::new(4).fork("sel");
        s.select_suppliers(30, false, &mut rng, &mut Vec::new());
        assert_eq!(s.suppliers().count(), 0);
    }

    #[test]
    fn prune_keeps_suppliers_and_best() {
        let mut p = peer();
        for i in 0..10 {
            p.add_partner(PeerId(i), quality(100.0 * i as f64, 30.0), SimTime::ORIGIN);
        }
        let mut rng = RngFactory::new(5).fork("sel");
        let mut ranked = Vec::new();
        p.select_suppliers(3, false, &mut rng, &mut ranked);
        p.prune_partners(5, &mut ranked);
        assert_eq!(p.partners.len(), 5);
        // All 3 suppliers survive.
        assert_eq!(p.suppliers().count(), 3);
    }

    #[test]
    fn report_resets_interval_counters() {
        let mut p = peer();
        p.add_partner(PeerId(2), quality(800.0, 40.0), SimTime::ORIGIN);
        p.partners.get_mut(PeerId(2)).unwrap().sent_interval = 42;
        p.partners.get_mut(PeerId(2)).unwrap().recv_interval = 17;
        let r = p.build_report(SimTime::at(0, 0, 30), 150, |id| {
            PeerAddr::from_u32(id.0 + 100)
        });
        assert_eq!(r.partners.len(), 1);
        assert_eq!(r.partners[0].addr, PeerAddr::from_u32(102));
        assert_eq!(r.partners[0].segments_sent, 42);
        assert_eq!(r.partners[0].segments_received, 17);
        let l = p.partners.get(PeerId(2)).unwrap();
        assert_eq!(l.sent_interval, 0);
        assert_eq!(l.recv_interval, 0);
    }

    #[test]
    fn report_bitmap_reflects_fill() {
        let mut p = peer();
        p.buffer_fill = 0.5;
        let r = p.build_report(SimTime::at(0, 1, 0), 100, |id| PeerAddr::from_u32(id.0));
        assert!((r.buffer_map.fill_fraction() - 0.5).abs() < 0.02);
    }

    #[test]
    fn demand_shrinks_as_buffer_fills() {
        let cfg = SimConfig::default();
        let mut p = peer();
        let hungry = p.demand_segments(&cfg, 400.0);
        p.buffer_fill = 1.0;
        let sated = p.demand_segments(&cfg, 400.0);
        assert!(hungry > sated);
        // A full buffer still needs the stream advance.
        assert!((sated - cfg.stream_segments_per_tick(400.0)).abs() < 1e-9);
    }

    #[test]
    fn demand_is_capped_by_download_capacity() {
        let cfg = SimConfig::default();
        let mut p = peer();
        p.capacity.down_kbps = 100.0; // can't even sustain the stream
        let d = p.demand_segments(&cfg, 400.0);
        assert!((d - cfg.capacity_segments_per_tick(100.0)).abs() < 1e-9);
    }

    #[test]
    fn delivery_raises_fill_and_sets_rate() {
        let cfg = SimConfig::default();
        let mut p = peer();
        let stream = cfg.stream_segments_per_tick(400.0);
        p.apply_tick_delivery(&cfg, 400.0, stream);
        assert!((p.recv_kbps - 400.0).abs() < 1e-9);
        assert!(p.buffer_fill > 0.0);
    }

    #[test]
    fn starved_peer_fill_decays() {
        let cfg = SimConfig::default();
        let mut p = peer();
        p.buffer_fill = 0.8;
        p.apply_tick_delivery(&cfg, 400.0, 0.0);
        assert!(p.buffer_fill < 0.8);
        assert_eq!(p.recv_kbps, 0.0);
    }

    #[test]
    fn utilization_bounds() {
        let mut p = peer();
        p.send_kbps = 256.0;
        assert!((p.upload_utilization() - 0.5).abs() < 1e-9);
        p.send_kbps = 10_000.0;
        assert_eq!(p.upload_utilization(), 1.0);
    }

    #[test]
    fn score_penalizes_rtt() {
        let near = PartnerLink {
            quality: quality(500.0, 20.0),
            supplier: false,
            est_recv_kbps: 500.0,
            sent_interval: 0,
            recv_interval: 0,
            since: SimTime::ORIGIN,
            stale_ticks: 0,
        };
        let far = PartnerLink {
            quality: quality(500.0, 400.0),
            supplier: false,
            est_recv_kbps: 500.0,
            sent_interval: 0,
            recv_interval: 0,
            since: SimTime::ORIGIN,
            stale_ticks: 0,
        };
        assert!(near.score() > far.score());
    }

    #[test]
    fn from_sorted_rejects_unsorted_and_duplicate_ids() {
        let link = |bw| {
            let mut p = peer();
            p.add_partner(PeerId(0), quality(bw, 30.0), SimTime::ORIGIN);
            p.partners.remove(PeerId(0)).unwrap()
        };
        let ids = |v: &[u32]| v.iter().map(|&i| PeerId(i)).collect::<Vec<_>>();
        let links = |n: usize| (0..n).map(|i| link(100.0 + i as f64)).collect::<Vec<_>>();
        assert!(PartnerTable::from_sorted(ids(&[1, 4, 9]), links(3)).is_some());
        assert!(PartnerTable::from_sorted(ids(&[4, 1, 9]), links(3)).is_none());
        assert!(PartnerTable::from_sorted(ids(&[1, 4, 4]), links(3)).is_none());
        assert!(PartnerTable::from_sorted(ids(&[1, 4]), links(3)).is_none());
    }

    /// The pre-flat-table supplier selection, kept as the reference:
    /// materialise `(id, score)`, fully sort (or prefix-shuffle), take
    /// the first `target`.
    fn reference_selection(
        partners: &[(PeerId, f64)],
        target: usize,
        random_selection: bool,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<PeerId> {
        let mut scored = partners.to_vec();
        if random_selection {
            let n = scored.len();
            for i in 0..n.min(target) {
                let j = rng.random_range(i..n);
                scored.swap(i, j);
            }
        } else {
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        let mut chosen: Vec<PeerId> = scored.into_iter().take(target).map(|(id, _)| id).collect();
        chosen.sort_unstable();
        chosen
    }

    /// The pre-flat-table pruning: fully sort the non-suppliers by
    /// (score asc, id asc) and drop the first `excess`.
    fn reference_survivors(p: &PeerState, max: usize) -> Vec<PeerId> {
        let mut survivors: Vec<PeerId> = p.partners.ids().to_vec();
        if survivors.len() <= max {
            return survivors;
        }
        let mut victims: Vec<(PeerId, f64)> = p
            .partners
            .iter()
            .filter(|(_, l)| !l.supplier)
            .map(|(id, l)| (id, l.score()))
            .collect();
        victims.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let excess = survivors.len() - max;
        for (id, _) in victims.into_iter().take(excess) {
            survivors.retain(|&s| s != id);
        }
        survivors
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u32),
        Remove(u32),
        Get(u32),
        DropMultiplesOf(u32),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // A small id space so inserts collide and removes hit.
        (0u8..7, 0u32..40, 1u32..1_000).prop_map(|(kind, id, bw)| match kind {
            0..=2 => Op::Insert(id, bw),
            3 | 4 => Op::Remove(id),
            5 => Op::Get(id),
            _ => Op::DropMultiplesOf(2 + id % 4),
        })
    }

    proptest! {
        #[test]
        fn partner_table_matches_a_btreemap_model(ops in proptest::collection::vec(arb_op(), 0..120)) {
            let mut p = peer();
            let mut model: BTreeMap<u32, f64> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(id, bw) => {
                        let fresh = p.add_partner(PeerId(id), quality(f64::from(bw), 30.0), SimTime::ORIGIN);
                        prop_assert_eq!(fresh, !model.contains_key(&id));
                        model.entry(id).or_insert(f64::from(bw));
                    }
                    Op::Remove(id) => {
                        let gone = p.partners.remove(PeerId(id)).map(|l| l.quality.bandwidth_kbps);
                        prop_assert_eq!(gone, model.remove(&id));
                    }
                    Op::Get(id) => {
                        let got = p.partners.get(PeerId(id)).map(|l| l.quality.bandwidth_kbps);
                        prop_assert_eq!(got, model.get(&id).copied());
                        prop_assert_eq!(p.partners.contains(PeerId(id)), model.contains_key(&id));
                        let got_mut = p.partners.get_mut(PeerId(id)).map(|l| l.quality.bandwidth_kbps);
                        prop_assert_eq!(got_mut, model.get(&id).copied());
                    }
                    Op::DropMultiplesOf(k) => {
                        p.partners.retain_mut(|id, _| id.0 % k != 0);
                        model.retain(|id, _| id % k != 0);
                    }
                }
                prop_assert!(p.partners.is_well_formed());
                prop_assert_eq!(p.partners.len(), model.len());
                prop_assert_eq!(p.partners.is_empty(), model.is_empty());
                let flat: Vec<(u32, f64)> =
                    p.partners.iter().map(|(id, l)| (id.0, l.quality.bandwidth_kbps)).collect();
                let tree: Vec<(u32, f64)> = model.iter().map(|(&id, &bw)| (id, bw)).collect();
                prop_assert_eq!(flat, tree);
                let ids: Vec<u32> = p.partners.ids().iter().map(|id| id.0).collect();
                prop_assert_eq!(ids, model.keys().copied().collect::<Vec<_>>());
            }
        }

        #[test]
        fn selection_and_pruning_match_the_full_sort_reference(
            // Few distinct bandwidths and one RTT: score ties abound.
            partners in proptest::collection::vec((0u32..200, 1u32..4), 0..70),
            target in 0usize..75,
            max in 0usize..75,
            random_selection in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut p = peer();
            for (id, bw) in partners {
                p.add_partner(PeerId(id), quality(f64::from(bw) * 250.0, 40.0), SimTime::ORIGIN);
            }
            let scored: Vec<(PeerId, f64)> = p.partners.iter().map(|(id, l)| (id, l.score())).collect();
            let mut ref_rng = RngFactory::new(seed).fork("sel");
            let expected = reference_selection(&scored, target, random_selection, &mut ref_rng);

            let mut rng = RngFactory::new(seed).fork("sel");
            let mut ranked = Vec::new();
            p.select_suppliers(target, random_selection, &mut rng, &mut ranked);
            prop_assert_eq!(p.suppliers().collect::<Vec<_>>(), expected);
            // Same number of draws: the streams stay in step.
            prop_assert_eq!(rng.random_range(0..u64::MAX), ref_rng.random_range(0..u64::MAX));

            let survivors = reference_survivors(&p, max);
            p.prune_partners(max, &mut ranked);
            prop_assert_eq!(p.partners.ids(), &survivors[..]);
            prop_assert!(p.partners.is_well_formed());
        }
    }
}
