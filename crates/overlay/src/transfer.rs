//! The per-tick block-transfer engine.
//!
//! Every tick, each peer requests segments from its selected
//! suppliers in proportion to their estimated goodput; each supplier
//! splits its upload budget over the requests it received; each
//! directed flow is further capped by the sampled path ceiling and
//! discounted by the supplier's buffer occupancy (a peer can only
//! forward what it holds — servers hold everything). The outcome
//! updates receive/send rates, buffer occupancy, per-link EWMA
//! estimates, and the per-interval segment counters that end up in
//! trace reports.
//!
//! Reciprocity is emergent: two mid-stream peers both hold partial,
//! complementary windows, so flows run in both directions; a freshly
//! joined peer (empty buffer) can receive but not yet supply.

use crate::config::SimConfig;
use crate::error::TransferError;
use crate::peer::{PeerId, PeerSlot};
use magellan_netsim::Isp;
use magellan_workload::ChannelId;

/// Aggregate outcome of one tick, for instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickOutcome {
    /// Total segments moved.
    pub segments: f64,
    /// Number of directed flows that moved at least one segment.
    pub active_flows: usize,
    /// Number of receivers that met their full demand.
    pub satisfied_receivers: usize,
    /// Number of receivers processed.
    pub receivers: usize,
    /// Supplier links skipped because the underlay path was severed
    /// (an active inter-ISP partition).
    pub blocked_flows: usize,
}

/// One receiver→supplier request channel. `sup`/`rcv` are slab ids,
/// `slot` the supplier's record in [`TransferScratch::slots`]; `want`
/// holds the static allocation weight, `cap` the remaining path
/// capacity (segments), `moved` the segments delivered so far.
#[derive(Debug)]
struct Flow {
    sup: u32,
    slot: u32,
    rcv: u32,
    want: f64,
    cap: f64,
    moved: f64,
}

/// A receiver's unmet demand, its delivered total, and its
/// request-channel range in the tick's flattened flow arena.
#[derive(Debug)]
struct RecvCtx {
    rcv: u32,
    demand: f64,
    delivered: f64,
    lo: u32,
    hi: u32,
}

impl RecvCtx {
    fn range(&self) -> std::ops::Range<usize> {
        self.lo as usize..self.hi as usize
    }
}

/// Per-peer transfer state, rewritten for every live slot by
/// [`TransferScratch::refresh`]: what the peer advertises to its
/// neighbours plus its supplier-side working totals. One 64-byte
/// record, so resolving a link's far end never pulls the neighbour's
/// whole `PeerState` slot, and the request/grant rounds find a
/// supplier's budget, request total and scale together.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Slab id of the peer this record describes.
    id: u32,
    isp: Isp,
    /// Advertised buffer occupancy (servers hold everything).
    advertised: f64,
    /// Share of a grant that lands on segments the receiver lacks.
    useful: f64,
    /// Upload budget left this tick (segments).
    budget_left: f64,
    /// Segments requested of this supplier in the current round.
    requested: f64,
    /// Grant scale of the current round (budget / requested, ≤ 1).
    scale: f64,
    /// Segments sent this tick.
    sent: f64,
    /// This supplier's range of delivering flows in `by_sup`.
    out_begin: u32,
    out_len: u32,
}

/// Reusable working memory of the transfer engine, owned by the
/// simulator so a tick allocates nothing once the buffers are warm.
///
/// Nothing in here survives a tick: [`TransferScratch::refresh`]
/// rebuilds the per-peer records from the peer slab and
/// [`run_tick`] clears the rest, which is why a checkpoint does not
/// carry it (DESIGN.md §10, "Peer state layout").
#[derive(Debug, Default)]
pub struct TransferScratch {
    /// One record per live slot, parallel to the live list.
    slots: Vec<Slot>,
    /// Slab id → position in `slots`. Entries of dead slots are stale
    /// rather than cleared: a lookup counts only if the record it
    /// lands on names the id back (a sparse set), so the slab-length
    /// part of the scratch is four bytes per slot.
    slot_of: Vec<u32>,
    /// Flow arena in (receiver, supplier) order.
    flows: Vec<Flow>,
    /// Receivers with at least one request channel, ascending.
    recvs: Vec<RecvCtx>,
    /// Suppliers (positions in `slots`) requested in the current round.
    touched: Vec<u32>,
    /// `(receiver index, flow index, ask)` of the current round.
    round_flows: Vec<(u32, u32, f64)>,
    /// Delivering flows ordered by (supplier, receiver).
    by_sup: Vec<u32>,
}

impl TransferScratch {
    /// Snapshots every live slot: liveness, ISP, advertised occupancy,
    /// usefulness and a fresh upload budget. `live` lists the occupied
    /// slab indices in ascending order. Call once per tick after the
    /// tick's joins, departures and crashes — maintenance reads
    /// liveness from it and [`run_tick`] everything else; neither
    /// changes what is captured here.
    pub fn refresh(&mut self, peers: &[PeerSlot], live: &[u32], cfg: &SimConfig) {
        if self.slot_of.len() < peers.len() {
            self.slot_of.resize(peers.len(), 0);
        }
        self.slots.clear();
        for &j in live {
            let Some(p) = peers[j as usize].as_ref() else {
                continue;
            };
            // Receivers aim requests at advertised segments, so
            // delivery is not discounted linearly in occupancy; what
            // remains is the holdings/missing overlap, which only
            // collapses for badly under-filled suppliers — a square
            // root captures that (q=0.25 → 0.5).
            let (advertised, useful) = if p.is_server {
                (1.0, 1.0)
            } else {
                (p.buffer_fill, p.buffer_fill.max(0.0).sqrt())
            };
            self.slot_of[j as usize] = self.slots.len() as u32;
            self.slots.push(Slot {
                id: j,
                isp: p.isp,
                advertised,
                useful,
                budget_left: cfg.capacity_segments_per_tick(p.capacity.up_kbps),
                requested: 0.0,
                scale: 0.0,
                sent: 0.0,
                out_begin: 0,
                out_len: 0,
            });
        }
    }

    /// Whether slot `id` was occupied at the last refresh.
    pub fn is_live(&self, id: PeerId) -> bool {
        slot_at(&self.slot_of, &self.slots, id.0).is_some()
    }
}

/// Position in `slots` of the record of slab id `id`, if `id` was live
/// at the last refresh.
fn slot_at(slot_of: &[u32], slots: &[Slot], id: u32) -> Option<u32> {
    let k = *slot_of.get(id as usize)?;
    (slots.get(k as usize)?.id == id).then_some(k)
}

/// Whether a request channel can still carry segments this round.
fn eligible(f: &Flow, slots: &[Slot]) -> bool {
    f.cap > 1e-9 && slots[f.slot as usize].budget_left > 1e-9
}

/// Runs one transfer tick over the live slots of the peer slab —
/// those `scratch` recorded when it was last
/// [refreshed](TransferScratch::refresh), which must have been
/// against this slab with no membership change since. `rate_of` maps a channel to its
/// stream rate in Kbps, returning `None` for channels it does not
/// know. Links to dead peers contribute nothing (the simulator purges
/// them separately). `link_open` answers whether the underlay path
/// between a receiver's ISP and a supplier's ISP is currently open —
/// an active inter-ISP partition closes it, and closed links carry no
/// segments this tick (counted in [`TickOutcome::blocked_flows`]).
///
/// # Errors
///
/// Fails when a live peer is tuned to an unknown channel or a channel
/// reports a non-finite / non-positive stream rate — both mean the
/// caller's rate table is inconsistent with the peer slab, and any
/// output computed from it would be garbage.
pub fn run_tick<F, L>(
    peers: &mut [PeerSlot],
    scratch: &mut TransferScratch,
    rate_of: F,
    link_open: L,
    cfg: &SimConfig,
) -> Result<TickOutcome, TransferError>
where
    F: Fn(ChannelId) -> Option<f64>,
    L: Fn(Isp, Isp) -> bool,
{
    let rate_of = |ch: ChannelId| -> Result<f64, TransferError> {
        let rate = rate_of(ch).ok_or(TransferError::UnknownChannel(ch))?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(TransferError::InvalidRate {
                channel: ch,
                rate_kbps: rate,
            });
        }
        Ok(rate)
    };
    let TransferScratch {
        slots,
        slot_of,
        flows,
        recvs,
        touched,
        round_flows,
        by_sup,
    } = scratch;
    flows.clear();
    recvs.clear();
    touched.clear();

    // Pass A: per-receiver context (demand plus eligible supplier
    // links). Each link's far end is read from the compact per-peer
    // snapshot, never from the neighbour's `PeerState`.
    //
    // Request weights combine the link's goodput estimate with the
    // supplier's advertised buffer occupancy — peers exchange buffer
    // maps periodically (§3.1), so they know who actually holds
    // useful segments. A small floor keeps exploring partners whose
    // buffers are still filling.
    let mut blocked_flows = 0usize;
    for j in slots.iter().map(|s| s.id) {
        let Some(p) = peers[j as usize].as_ref() else {
            continue;
        };
        if p.is_server {
            continue;
        }
        let rate = rate_of(p.channel)?;
        let demand = p.demand_segments(cfg, rate);
        if demand <= 0.0 {
            continue;
        }
        let lo = flows.len();
        for (id, l) in p.partners.iter().filter(|(_, l)| l.supplier) {
            let Some(slot) = slot_at(slot_of, slots, id.0) else {
                continue;
            };
            let sup = &slots[slot as usize];
            if !link_open(p.isp, sup.isp) {
                blocked_flows += 1;
                continue;
            }
            // Raising the weight to `request_concentration`
            // concentrates requests on the few best partners, as
            // a real block scheduler does — this is what keeps
            // the *active* indegree (Fig. 4B) far below the ~30
            // requested partners. Under the `random_selection`
            // ablation the measured-quality term is dropped
            // entirely (only content availability steers
            // requests), so the ablation removes *all* bandwidth
            // awareness, not just the supplier-set choice.
            let w = if cfg.random_selection {
                sup.advertised.max(0.02)
            } else {
                (l.score() * sup.advertised.max(0.02)).max(1e-3)
            };
            flows.push(Flow {
                sup: id.0,
                slot,
                rcv: j,
                want: w.powf(cfg.request_concentration),
                cap: cfg.capacity_segments_per_tick(l.quality.bandwidth_kbps),
                moved: 0.0,
            });
        }
        if flows.len() == lo {
            continue;
        }
        recvs.push(RecvCtx {
            rcv: j,
            demand,
            delivered: 0.0,
            lo: lo as u32,
            hi: flows.len() as u32,
        });
    }

    let mut outcome = TickOutcome {
        receivers: recvs.len(),
        blocked_flows,
        ..TickOutcome::default()
    };

    // Passes B/C: iterative request/grant rounds. A tick spans
    // hundreds of real request cycles, so receivers re-aim unmet
    // demand at suppliers that still have budget — a few rounds of
    // proportional waterfilling approximate that. Each (supplier,
    // receiver) pair owns exactly one arena entry, so `Flow::moved`
    // sums a link's increments in arrival order; `touched` lists the
    // suppliers requested this round so the reset costs O(touched).
    const ROUNDS: usize = 3;
    for _ in 0..ROUNDS {
        for &s in touched.iter() {
            slots[s as usize].requested = 0.0;
        }
        touched.clear();
        round_flows.clear();
        for (ri, rc) in recvs.iter().enumerate() {
            if rc.demand <= 1e-6 {
                continue;
            }
            let links = &flows[rc.range()];
            let tw: f64 = links
                .iter()
                .filter(|l| eligible(l, slots))
                .map(|l| l.want)
                .sum();
            if tw <= 0.0 {
                continue;
            }
            for (off, l) in links.iter().enumerate() {
                if !eligible(l, slots) {
                    continue;
                }
                let ask = rc.demand * l.want / tw;
                if ask <= 1e-9 {
                    continue;
                }
                // Asks are strictly positive, so a zero entry means
                // "first request for this supplier this round".
                let sup = &mut slots[l.slot as usize];
                if sup.requested == 0.0 {
                    touched.push(l.slot);
                }
                sup.requested += ask;
                round_flows.push((ri as u32, rc.lo + off as u32, ask));
            }
        }
        if round_flows.is_empty() {
            break;
        }
        // The scale snapshot must be taken before budgets drain.
        for &s in touched.iter() {
            let sup = &mut slots[s as usize];
            sup.scale = if sup.requested > sup.budget_left {
                sup.budget_left / sup.requested
            } else {
                1.0
            };
        }
        for &(ri, fi, ask) in round_flows.iter() {
            let f = &mut flows[fi as usize];
            let sup = &mut slots[f.slot as usize];
            let moved = (ask * sup.scale).min(f.cap) * sup.useful;
            if moved <= 1e-9 {
                continue;
            }
            f.moved += moved;
            f.cap -= moved;
            let rc = &mut recvs[ri as usize];
            rc.demand = (rc.demand - moved).max(0.0);
            sup.budget_left = (sup.budget_left - moved).max(0.0);
            outcome.segments += moved;
        }
    }

    // Flatten into deterministic per-peer aggregates. The flow arena
    // is in (receiver, supplier) order (receivers in slab order, each
    // one's partner table in ascending id order), so both sums below
    // visit a peer's links in ascending-counterpart order — the same
    // order a sorted per-link map would produce, hence identical sums.
    for rc in recvs.iter_mut() {
        for f in &flows[rc.range()] {
            if f.moved <= 0.0 {
                continue;
            }
            if f.moved >= 1.0 {
                outcome.active_flows += 1;
            }
            rc.delivered += f.moved;
            let sup = &mut slots[f.slot as usize];
            sup.sent += f.moved;
            sup.out_len += 1;
        }
    }

    // Pass D: apply per-peer effects. `slots` parallels the live list
    // and `recvs` ascends with it, so a peeking cursor pairs each
    // receiver with its total.
    let mut next_recv = recvs.iter().peekable();
    for s in slots.iter() {
        let j = s.id;
        let Some(p) = peers[j as usize].as_mut() else {
            continue;
        };
        let sent = s.sent;
        if p.is_server {
            p.send_kbps = cfg.segments_to_kbps(sent);
            continue;
        }
        let rate = rate_of(p.channel)?;
        let delivered = next_recv
            .next_if(|rc| rc.rcv == j)
            .map_or(0.0, |rc| rc.delivered);
        let demand = p.demand_segments(cfg, rate);
        if delivered + 1e-9 >= demand.min(cfg.stream_segments_per_tick(rate)) && demand > 0.0 {
            outcome.satisfied_receivers += 1;
        }
        p.apply_tick_delivery(cfg, rate, delivered);
        p.send_kbps = cfg.segments_to_kbps(sent);
    }

    // Passes E/F, fused: per-link counters and EWMA estimates on both
    // endpoints, plus the decay of selected suppliers that delivered
    // nothing this tick. Without the decay, an untried partner's
    // optimistic prior would permanently outrank a supplier that is
    // actually delivering (the observed rate per link is well below
    // the path ceiling once demand is split 30 ways); a floor of 5 %
    // of the path ceiling keeps failed links re-triable. The two
    // passes touch disjoint per-link state (a selected supplier link
    // either delivered — E updates it — or did not — F decays it), so
    // fusing them changes nothing observable.
    //
    // The flow arena is already in (receiver, supplier) order; the
    // supplier-side view is derived with a stable counting sort over
    // the delivering flows (`by_sup`, sorted by (supplier, receiver);
    // `out_len` counted them above and doubles as the fill cursor).
    // The live list and every partner table are both walked in
    // ascending order, so each peer's incoming and outgoing
    // deliveries merge with its partner walk via monotone cursors —
    // no per-link lookups.
    let mut delivering = 0u32;
    for s in slots.iter_mut() {
        s.out_begin = delivering;
        delivering += s.out_len;
        s.out_len = 0;
    }
    by_sup.clear();
    by_sup.resize(delivering as usize, 0);
    for (fi, f) in flows.iter().enumerate() {
        if f.moved > 0.0 {
            let s = &mut slots[f.slot as usize];
            by_sup[(s.out_begin + s.out_len) as usize] = fi as u32;
            s.out_len += 1;
        }
    }
    let mut next_recv = recvs.iter().peekable();
    for s in slots.iter() {
        // This peer's outgoing deliveries (ascending receiver) and
        // incoming request channels (ascending supplier; entries that
        // moved nothing stay — they drive the estimate decay below).
        let j = s.id;
        let outgoing = &by_sup[s.out_begin as usize..(s.out_begin + s.out_len) as usize];
        let incoming = next_recv
            .next_if(|rc| rc.rcv == j)
            .map_or(&[][..], |rc| &flows[rc.range()]);
        let Some(p) = peers[j as usize].as_mut() else {
            continue;
        };
        let is_server = p.is_server;
        let mut oi = 0usize;
        let mut ii = 0usize;
        for (pid, link) in p.partners.iter_mut() {
            // Supplier side: segments j sent to this partner.
            while oi < outgoing.len() && flows[outgoing[oi] as usize].rcv < pid.0 {
                oi += 1;
            }
            if oi < outgoing.len() && flows[outgoing[oi] as usize].rcv == pid.0 {
                let moved = flows[outgoing[oi] as usize].moved.round() as u32;
                link.sent_interval = link.sent_interval.saturating_add(moved);
            }
            // Receiver side: segments j received from this partner,
            // or the decay of a selected supplier that sent nothing.
            while ii < incoming.len() && incoming[ii].sup < pid.0 {
                ii += 1;
            }
            if ii < incoming.len() && incoming[ii].sup == pid.0 && incoming[ii].moved > 0.0 {
                let moved = incoming[ii].moved;
                link.recv_interval = link.recv_interval.saturating_add(moved.round() as u32);
                link.est_recv_kbps = (1.0 - cfg.throughput_ewma) * link.est_recv_kbps
                    + cfg.throughput_ewma * cfg.segments_to_kbps(moved);
            } else if !is_server && link.supplier {
                link.est_recv_kbps = ((1.0 - cfg.throughput_ewma) * link.est_recv_kbps)
                    .max(0.05 * link.quality.bandwidth_kbps);
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::{PartnerLink, PeerState};
    use magellan_netsim::{AccessClass, LinkQuality, PeerAddr, PeerCapacity, SimTime};
    use magellan_workload::ChannelId;

    const RATE: f64 = 400.0;

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    fn mk_peer(id: u32, up: f64, down: f64) -> PeerState {
        PeerState::new_peer(
            PeerAddr::from_u32(id),
            Isp::Telecom,
            PeerCapacity {
                down_kbps: down,
                up_kbps: up,
                class: AccessClass::Adsl,
            },
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(1, 0, 0),
        )
    }

    #[allow(clippy::unnecessary_wraps)]
    fn slot(p: PeerState) -> PeerSlot {
        Some(Box::new(p))
    }

    fn mk_server(id: u32, up: f64) -> PeerState {
        PeerState::new_server(
            PeerAddr::from_u32(id),
            Isp::Telecom,
            up,
            ChannelId::CCTV1,
            SimTime::ORIGIN,
            SimTime::at(14, 0, 0),
        )
    }

    fn link(bw: f64) -> LinkQuality {
        LinkQuality {
            rtt_ms: 30.0,
            bandwidth_kbps: bw,
        }
    }

    /// One tick over every occupied slot, through a cold scratch.
    fn run(peers: &mut [PeerSlot], cfg: &SimConfig) -> TickOutcome {
        let live: Vec<u32> = (0..peers.len() as u32)
            .filter(|&i| peers[i as usize].is_some())
            .collect();
        let mut scratch = TransferScratch::default();
        scratch.refresh(peers, &live, cfg);
        run_tick(peers, &mut scratch, |_| Some(RATE), |_, _| true, cfg).expect("rates known")
    }

    fn link_of(peers: &[PeerSlot], at: usize, toward: u32) -> &PartnerLink {
        let p = peers[at].as_ref().unwrap();
        p.partners.get(PeerId(toward)).unwrap()
    }

    /// Connects a (receiver -> supplier) pair on both endpoints and
    /// marks the supplier selected.
    fn connect(peers: &mut [PeerSlot], rcv: u32, sup: u32, bw: f64) {
        let now = SimTime::ORIGIN;
        peers[rcv as usize]
            .as_mut()
            .unwrap()
            .add_partner(PeerId(sup), link(bw), now);
        peers[rcv as usize]
            .as_mut()
            .unwrap()
            .partners
            .get_mut(PeerId(sup))
            .unwrap()
            .supplier = true;
        peers[sup as usize]
            .as_mut()
            .unwrap()
            .add_partner(PeerId(rcv), link(bw), now);
    }

    #[test]
    fn server_feeds_a_lone_peer_at_full_rate() {
        let mut peers = vec![
            slot(mk_server(0, 10_000.0)),
            slot(mk_peer(1, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 0, 5_000.0);
        let out = run(&mut peers, &cfg());
        let p = peers[1].as_ref().unwrap();
        assert!(
            p.recv_kbps >= RATE * 0.99,
            "receive rate {} below stream rate",
            p.recv_kbps
        );
        assert!(p.buffer_fill > 0.5);
        assert_eq!(out.receivers, 1);
        assert_eq!(out.satisfied_receivers, 1);
        assert!(out.segments > 0.0);
    }

    #[test]
    fn empty_buffered_supplier_delivers_nothing() {
        // Peer 1 requests from peer 2, whose buffer is empty.
        let mut peers = vec![
            None,
            slot(mk_peer(1, 512.0, 2_000.0)),
            slot(mk_peer(2, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 2, 1_000.0);
        let out = run(&mut peers, &cfg());
        assert_eq!(peers[1].as_ref().unwrap().recv_kbps, 0.0);
        assert_eq!(out.satisfied_receivers, 0);
    }

    #[test]
    fn full_buffered_peer_can_supply() {
        let mut peers = vec![
            slot(mk_peer(0, 512.0, 2_000.0)),
            slot(mk_peer(1, 512.0, 2_000.0)),
        ];
        peers[0].as_mut().unwrap().buffer_fill = 1.0;
        connect(&mut peers, 1, 0, 1_000.0);
        let _ = run(&mut peers, &cfg());
        let r = peers[1].as_ref().unwrap();
        // The 512 Kbps uplink covers the 400 Kbps stream.
        assert!(r.recv_kbps > 390.0, "recv = {}", r.recv_kbps);
        let s = peers[0].as_ref().unwrap();
        assert!(s.send_kbps > 390.0, "send = {}", s.send_kbps);
    }

    #[test]
    fn oversubscribed_supplier_splits_fairly() {
        // One 512 Kbps supplier, four receivers: each gets ~128 Kbps.
        let mut peers: Vec<PeerSlot> = vec![slot(mk_peer(0, 512.0, 2_000.0))];
        peers[0].as_mut().unwrap().buffer_fill = 1.0;
        for i in 1..=4 {
            peers.push(slot(mk_peer(i, 512.0, 2_000.0)));
        }
        for i in 1..=4 {
            connect(&mut peers, i, 0, 1_000.0);
        }
        let _ = run(&mut peers, &cfg());
        let sup = peers[0].as_ref().unwrap();
        assert!(
            sup.send_kbps <= 512.0 * 1.01,
            "supplier exceeded capacity: {}",
            sup.send_kbps
        );
        for (i, slot) in peers.iter().enumerate().skip(1).take(4) {
            let r = slot.as_ref().unwrap();
            assert!(
                (r.recv_kbps - 128.0).abs() < 15.0,
                "receiver {i} got {}",
                r.recv_kbps
            );
        }
    }

    #[test]
    fn path_ceiling_caps_a_flow() {
        let mut peers = vec![
            slot(mk_server(0, 100_000.0)),
            slot(mk_peer(1, 512.0, 5_000.0)),
        ];
        connect(&mut peers, 1, 0, 100.0); // terrible path: 100 Kbps
        let _ = run(&mut peers, &cfg());
        let r = peers[1].as_ref().unwrap();
        assert!(r.recv_kbps <= 105.0, "recv = {}", r.recv_kbps);
    }

    #[test]
    fn interval_counters_accumulate_on_both_ends() {
        let mut peers = vec![
            slot(mk_server(0, 10_000.0)),
            slot(mk_peer(1, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 0, 5_000.0);
        let _ = run(&mut peers, &cfg());
        let recv = link_of(&peers, 1, 0).recv_interval;
        let sent = link_of(&peers, 0, 1).sent_interval;
        assert!(recv > 0);
        assert_eq!(recv, sent);
    }

    #[test]
    fn ewma_estimate_tracks_observation() {
        let mut peers = vec![
            slot(mk_server(0, 10_000.0)),
            slot(mk_peer(1, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 0, 5_000.0);
        let before = link_of(&peers, 1, 0).est_recv_kbps;
        let _ = run(&mut peers, &cfg());
        let after = link_of(&peers, 1, 0).est_recv_kbps;
        // Observation (~stream-rate share) is far below the 5000 prior.
        assert!(
            after < before,
            "estimate did not adapt: {before} -> {after}"
        );
    }

    #[test]
    fn dead_suppliers_are_ignored() {
        let mut peers = vec![
            slot(mk_server(0, 10_000.0)),
            slot(mk_peer(1, 512.0, 2_000.0)),
        ];
        connect(&mut peers, 1, 0, 5_000.0);
        peers[0] = None; // supplier vanished
        let out = run(&mut peers, &cfg());
        assert_eq!(out.segments, 0.0);
        assert_eq!(peers[1].as_ref().unwrap().recv_kbps, 0.0);
    }

    #[test]
    fn reciprocal_pair_exchanges_both_ways() {
        let mut peers = vec![
            slot(mk_peer(0, 512.0, 2_000.0)),
            slot(mk_peer(1, 512.0, 2_000.0)),
        ];
        peers[0].as_mut().unwrap().buffer_fill = 0.8;
        peers[1].as_mut().unwrap().buffer_fill = 0.8;
        connect(&mut peers, 1, 0, 1_000.0);
        connect(&mut peers, 0, 1, 1_000.0);
        let out = run(&mut peers, &cfg());
        assert!(out.active_flows >= 2, "flows = {}", out.active_flows);
        let a = link_of(&peers, 0, 1);
        let b = link_of(&peers, 1, 0);
        assert!(a.recv_interval > 10 && a.sent_interval > 10, "{a:?}");
        assert!(b.recv_interval > 10 && b.sent_interval > 10, "{b:?}");
    }

    #[test]
    fn random_selection_ablation_ignores_link_quality() {
        // Two suppliers, same occupancy, very different path quality:
        // with the ablation on, requests split evenly.
        let mk = |peers: &mut Vec<PeerSlot>| {
            peers[0].as_mut().unwrap().buffer_fill = 1.0;
            peers[1].as_mut().unwrap().buffer_fill = 1.0;
        };
        let run = |random: bool| {
            let cfg = SimConfig {
                random_selection: random,
                ..SimConfig::default()
            };
            let mut peers = vec![
                slot(mk_peer(0, 512.0, 2_000.0)),
                slot(mk_peer(1, 512.0, 2_000.0)),
                slot(mk_peer(2, 512.0, 2_000.0)),
            ];
            mk(&mut peers);
            connect(&mut peers, 2, 0, 5_000.0); // excellent path
            connect(&mut peers, 2, 1, 200.0); // poor path
            let _ = run(&mut peers, &cfg);
            let a = link_of(&peers, 2, 0).recv_interval as f64;
            let b = link_of(&peers, 2, 1).recv_interval as f64;
            (a, b)
        };
        let (qa, qb) = run(false);
        assert!(
            qa > qb * 3.0,
            "quality mode did not concentrate: {qa} vs {qb}"
        );
        let (ra, rb) = run(true);
        // Even split up to the poor path's ceiling; the good path may
        // absorb spillover, so allow a wide band — just not the
        // quality-mode concentration.
        assert!(ra < rb * 3.0, "ablation still concentrated: {ra} vs {rb}");
        assert!(rb > 0.0);
    }

    #[test]
    fn empty_slab_is_a_noop() {
        let mut peers: Vec<PeerSlot> = vec![None, None];
        let out = run(&mut peers, &cfg());
        assert_eq!(out, TickOutcome::default());
    }
}
