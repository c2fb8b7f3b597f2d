//! The overlay simulation driver.
//!
//! [`OverlaySim`] binds a workload [`Scenario`] to the protocol: it
//! replays joins and departures, runs the per-tick maintenance loop
//! (supplier selection, gossip, volunteer/fallback logic, pruning),
//! executes block transfers, and emits [`PeerReport`]s on the §3.2
//! measurement schedule to a caller-provided sink.
//!
//! The sink-based design matters at scale: the real study collected
//! 120 GB of reports, and even scaled-down runs produce far more
//! report volume than should sit in memory. Analyses either stream
//! (the figure pipelines do) or collect into a
//! [`magellan_trace::TraceStore`] for small runs via
//! [`OverlaySim::run_collecting`].

use crate::checkpoint::{CheckpointView, SimCheckpoint, TrackerRef};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::peer::{PeerId, PeerSlot, PeerState};
use crate::tracker::{BootstrapPolicy, BootstrapScratch, Tracker};
use crate::transfer::{self, TransferScratch};
use magellan_netsim::{
    AddrAllocator, Isp, IspDatabase, LinkQuality, PeerAddr, RngFactory, SimTime,
};
use magellan_trace::{
    GatewayCore, PeerReport, ReportUplink, SinkGateway, TraceStore, REPORT_INTERVAL,
};
use magellan_workload::{ChannelId, FaultPlan, JoinEvent, Scenario};
use rand::rngs::StdRng;
use rand::RngExt as _;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Counters of injected faults and the resilience reactions they
/// triggered; all zero when the scenario's [`FaultPlan`] is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Peers that crashed ungracefully (no leave message).
    pub crashes: u64,
    /// Joins that found the tracker down and got no bootstrap.
    pub tracker_denied_joins: u64,
    /// Bootstrap retry attempts made under the backoff schedule.
    pub bootstrap_retries: u64,
    /// Bootstrap retries that finally obtained partners.
    pub bootstrap_recoveries: u64,
    /// Starvation fallbacks served by gossip because the tracker was
    /// down.
    pub gossip_fallbacks: u64,
    /// Crashed peers the tracker expired after its liveness horizon.
    pub tracker_expirations: u64,
    /// Partner links declared dead by transfer timeout and removed.
    /// Nonzero even without faults: one-sided pruning leaves silent
    /// edges behind when the pruning side departs, and those are
    /// discovered exactly like crashes — by timeout.
    pub partner_timeouts: u64,
    /// Partner-link formations blocked by an active inter-ISP
    /// partition (at join, fallback, or gossip time).
    pub links_blocked: u64,
    /// Transfer flows skipped because the path was severed mid-link.
    pub flows_blocked: u64,
    /// Reports lost in flight to injected datagram loss.
    pub reports_lost: u64,
}

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimSummary {
    /// Peers that joined.
    pub joins: u64,
    /// Peers that departed before the window closed.
    pub leaves: u64,
    /// Reports emitted to the sink.
    pub reports: u64,
    /// Maximum concurrent (non-server) population observed.
    pub peak_concurrent: usize,
    /// Concurrent population at the final tick.
    pub final_concurrent: usize,
    /// Total segments transferred.
    pub segments: f64,
    /// Ticks executed.
    pub ticks: u64,
    /// Fault-injection and resilience accounting.
    pub faults: FaultCounters,
}

/// The loop state of a stepped run ([`OverlaySim::begin`] /
/// [`OverlaySim::tick_once`]): the five deterministic RNG streams,
/// the join schedule and its cursor, pending departures, the derived
/// channel-rate table, and the running summary. Together with the
/// simulator itself this is the *complete* state of a run — which is
/// what [`OverlaySim::capture`] serializes for crash-safe resume.
#[derive(Debug)]
pub struct RunState {
    pub(crate) join_rng: StdRng,
    pub(crate) link_rng: StdRng,
    pub(crate) sel_rng: StdRng,
    pub(crate) gossip_rng: StdRng,
    pub(crate) fault_rng: StdRng,
    pub(crate) faults: FaultPlan,
    pub(crate) joins: Vec<JoinEvent>,
    pub(crate) join_idx: usize,
    /// Max-heap over `Reverse(time)` → min-heap of departures.
    pub(crate) departures: BinaryHeap<std::cmp::Reverse<(SimTime, u32)>>,
    pub(crate) rates: BTreeMap<ChannelId, f64>,
    pub(crate) ticks_total: u64,
    pub(crate) next_tick: u64,
    pub(crate) summary: SimSummary,
}

impl RunState {
    /// The summary accumulated so far (final once
    /// [`OverlaySim::tick_once`] has returned `false`).
    pub fn summary(&self) -> &SimSummary {
        &self.summary
    }

    /// The tick index the next [`OverlaySim::tick_once`] call will
    /// execute.
    pub fn next_tick(&self) -> u64 {
        self.next_tick
    }

    /// Total ticks in the study window.
    pub fn ticks_total(&self) -> u64 {
        self.ticks_total
    }
}

/// Reusable buffers of the join and maintenance paths. Every user
/// clears what it needs before use and nothing is read across calls,
/// so none of this is simulation state (DESIGN.md §10, "Peer state
/// layout").
#[derive(Debug, Default)]
struct MaintScratch {
    bootstrap: BootstrapScratch,
    /// `(score, table position)` ranking buffer of supplier selection
    /// and pruning.
    ranked: Vec<(f64, u32)>,
    /// Gossip recommendations: `(candidate, recommender's score,
    /// same ISP as the requester)`.
    recs: Vec<(PeerId, f64, bool)>,
    /// A joiner's accepted bootstrap links, sorted by id so they enter
    /// its empty table as appends.
    joined: Vec<(PeerId, LinkQuality)>,
}

/// Occupied slab indices, ascending.
fn occupied(peers: &[PeerSlot]) -> impl Iterator<Item = u32> + '_ {
    (0u32..)
        .zip(peers)
        .filter_map(|(i, slot)| slot.is_some().then_some(i))
}

/// The UUSee overlay simulator.
#[derive(Debug)]
pub struct OverlaySim {
    cfg: SimConfig,
    scenario: Scenario,
    peers: Vec<PeerSlot>,
    /// Peer addresses by slab index; survives departure so reports
    /// referencing recently-dead partners still resolve.
    addrs: Vec<PeerAddr>,
    /// Peer ISPs by slab index (analysis-side ground truth; the
    /// protocol itself never reads it).
    isps: Vec<Isp>,
    tracker: Tracker,
    allocator: AddrAllocator,
    db: IspDatabase,
    live: usize,
    /// Occupied slab indices (servers included), ascending: the tick's
    /// passes walk this instead of the append-only slab. Derived from
    /// `peers`, so a resume rebuilds it.
    live_slots: Vec<u32>,
    scratch: MaintScratch,
    transfer: TransferScratch,
    /// FIFO of crashed peers the tracker has not yet noticed:
    /// `(expiry tick, channel, slab index)`. A crash sends no leave
    /// message, so the tracker keeps handing the peer out until its
    /// liveness horizon (`partner_timeout_ticks`) passes.
    crash_expiry: VecDeque<(u64, ChannelId, u32)>,
}

impl OverlaySim {
    /// Creates a simulator for `scenario` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfig::validate`]).
    pub fn new(scenario: Scenario, cfg: SimConfig) -> Self {
        // lint:allow(C1): a bad config is experiment-setup error; abort before any simulation work
        cfg.validate().expect("invalid simulator configuration");
        let db = IspDatabase::synthetic(cfg.isp_shares);
        let allocator = db.allocator();
        OverlaySim {
            cfg,
            scenario,
            peers: Vec::new(),
            addrs: Vec::new(),
            isps: Vec::new(),
            tracker: Tracker::new(),
            allocator,
            db,
            live: 0,
            live_slots: Vec::new(),
            scratch: MaintScratch::default(),
            transfer: TransferScratch::default(),
            crash_expiry: VecDeque::new(),
        }
    }

    /// The ISP database the run allocates addresses from (analyses
    /// need the same mapping).
    pub fn isp_database(&self) -> &IspDatabase {
        &self.db
    }

    /// Runs the whole study window, pushing every report into `sink`
    /// (called with the report's own timestamp order per tick).
    ///
    /// # Errors
    ///
    /// Fails when the transfer engine detects an inconsistency
    /// between the scenario's channel table and the live peers — see
    /// [`crate::TransferError`]. A scenario built through
    /// [`magellan_workload::Scenario`] cannot trigger this.
    pub fn run<F>(&mut self, mut sink: F) -> Result<SimSummary, SimError>
    where
        F: FnMut(PeerReport),
    {
        let mut state = self.begin();
        while self.tick_once(&mut state, &mut sink)? {}
        Ok(state.summary)
    }

    /// Initialises a stepped run: forks the RNG streams, generates
    /// the join schedule, spawns the channel servers, and returns the
    /// loop state that [`OverlaySim::tick_once`] advances. Equivalent
    /// to the setup [`OverlaySim::run`] performs — `run` is exactly
    /// `begin` plus a `tick_once` loop.
    pub fn begin(&mut self) -> RunState {
        let factory = RngFactory::new(self.scenario.seed);
        let join_rng = factory.fork("sim/join");
        let mut link_rng = factory.fork("sim/link");
        let sel_rng = factory.fork("sim/select");
        let gossip_rng = factory.fork("sim/gossip");
        // Dedicated stream for fault draws: a fault-free plan makes
        // zero draws from it, so enabling faults never perturbs the
        // join/link/select/gossip streams and a fault-free run is
        // byte-identical to one on a build without fault support.
        let fault_rng = factory.fork("sim/faults");
        let faults = self.scenario.faults.clone();

        let joins = self.scenario.generate_joins();

        let window_end = self.scenario.calendar.window_end();
        self.spawn_servers(&mut link_rng, window_end);

        let tick = self.cfg.tick;
        let ticks_total = window_end.as_millis() / tick.as_millis();
        let rates: BTreeMap<ChannelId, f64> = self
            .scenario
            .channels
            .iter()
            .map(|c| (c.id, c.rate_kbps))
            .collect();

        RunState {
            join_rng,
            link_rng,
            sel_rng,
            gossip_rng,
            fault_rng,
            faults,
            joins,
            join_idx: 0,
            departures: BinaryHeap::new(),
            rates,
            ticks_total,
            next_tick: 0,
            summary: SimSummary::default(),
        }
    }

    /// Advances one simulation tick. Returns `Ok(false)` once the
    /// study window is exhausted (the summary in `state` is then
    /// final, including `final_concurrent`).
    ///
    /// # Errors
    ///
    /// As [`OverlaySim::run`].
    pub fn tick_once<F>(&mut self, state: &mut RunState, sink: &mut F) -> Result<bool, SimError>
    where
        F: FnMut(PeerReport),
    {
        if state.next_tick >= state.ticks_total {
            state.summary.final_concurrent = self.live;
            return Ok(false);
        }
        let k = state.next_tick;
        let tick = self.cfg.tick;
        let tick_start = SimTime::from_millis(k * tick.as_millis());
        let tick_end = tick_start + tick;

        // 0. Tracker liveness expiry: crashed peers sent no
        //    leave message; the tracker notices after its
        //    liveness horizon and drops the stale entry.
        while let Some(&(due, ch, id)) = self.crash_expiry.front() {
            if due > k {
                break;
            }
            self.crash_expiry.pop_front();
            self.tracker.deregister(ch, PeerId(id));
            state.summary.faults.tracker_expirations += 1;
        }

        // 1. Departures scheduled before this tick. A crashed
        //    peer's scheduled departure finds the slot already
        //    empty and is not counted as a leave.
        while let Some(&std::cmp::Reverse((t, id))) = state.departures.peek() {
            if t >= tick_start {
                break;
            }
            state.departures.pop();
            if self.depart(PeerId(id)) {
                state.summary.leaves += 1;
            }
        }

        // 2. Joins landing in this tick.
        while state.join_idx < state.joins.len() && state.joins[state.join_idx].time < tick_end {
            let ev = state.joins[state.join_idx];
            state.join_idx += 1;
            let id = self.join(
                &ev,
                k,
                &state.faults,
                &mut state.summary.faults,
                &mut state.join_rng,
                &mut state.link_rng,
                &mut state.sel_rng,
            );
            state
                .departures
                .push(std::cmp::Reverse((ev.time + ev.duration, id.0)));
            state.summary.joins += 1;
        }

        // 2b. Ungraceful crash waves landing in this tick: each
        //     live viewer crashes with the wave's probability,
        //     drawn from the dedicated fault stream in slab
        //     order (deterministic per seed).
        for wave in state.faults.crash_waves_in(tick_start, tick_end) {
            // A crash removes its entry from the live list, so the
            // cursor only advances past survivors.
            let mut at = 0;
            while let Some(&i) = self.live_slots.get(at) {
                let viewer = matches!(&self.peers[i as usize], Some(p) if !p.is_server);
                if viewer && state.fault_rng.random_range(0.0..1.0) < wave.fraction {
                    self.crash(PeerId(i), k, &mut state.summary.faults);
                } else {
                    at += 1;
                }
            }
        }

        // 2c. Membership is now fixed for the tick: snapshot what
        //     every live slot advertises. Maintenance reads liveness
        //     from it, the transfer engine everything else.
        self.transfer
            .refresh(&self.peers, &self.live_slots, &self.cfg);

        // 3. Per-peer maintenance.
        self.maintenance_pass(
            k,
            tick_start,
            &state.rates,
            &state.faults,
            &mut state.summary.faults,
            &mut state.sel_rng,
            &mut state.gossip_rng,
        );

        // 4. Block transfers (skipping partition-severed paths).
        let rates_ref = &state.rates;
        let faults_ref = &state.faults;
        let outcome = transfer::run_tick(
            &mut self.peers,
            &mut self.transfer,
            |ch| rates_ref.get(&ch).copied(),
            |a, b| faults_ref.path_open(a, b, tick_start),
            &self.cfg,
        )?;
        state.summary.segments += outcome.segments;
        state.summary.faults.flows_blocked += outcome.blocked_flows as u64;

        // 5. Reports due by the end of this tick.
        let emitted = self.emit_reports(
            tick_end,
            &state.faults,
            &mut state.fault_rng,
            &mut state.summary.faults,
            sink,
        );
        state.summary.reports += emitted;

        state.summary.peak_concurrent = state.summary.peak_concurrent.max(self.live);
        state.summary.ticks += 1;
        state.next_tick += 1;
        if state.next_tick >= state.ticks_total {
            state.summary.final_concurrent = self.live;
        }
        Ok(true)
    }

    /// Captures the complete deterministic state of a stepped run:
    /// the peer slab, tracker, address/ISP tables, crash-expiry
    /// queue, all five RNG stream states, the join cursor, pending
    /// departures, and the running summary. Everything else a resumed
    /// run needs (join schedule, channel rates, ISP database) is
    /// recomputed from the scenario and config, which the caller
    /// persists separately (fingerprinted — see
    /// [`magellan_trace::checkpoint`]).
    ///
    /// Must be called *between* ticks (never mid-tick); the capture
    /// then marks a point from which [`OverlaySim::resume`] continues
    /// byte-identically.
    pub fn capture(&self, state: &RunState) -> SimCheckpoint {
        self.checkpoint_view(state).to_checkpoint()
    }

    /// The state [`OverlaySim::capture`] copies, borrowed in place:
    /// [`CheckpointView::write_to`] streams the checkpoint body from
    /// the live slab, tracker lists and RNG states, so a checkpoint
    /// costs a sorted copy of the pending departures, not a second
    /// copy of the world. Same calling rule as `capture`: between
    /// ticks only.
    pub fn checkpoint_view<'a>(&'a self, state: &'a RunState) -> CheckpointView<'a> {
        let mut departures: Vec<(u64, u32)> = state
            .departures
            .iter()
            .map(|&std::cmp::Reverse((t, id))| (t.as_millis(), id))
            .collect();
        departures.sort_unstable();
        let (older, newer) = self.crash_expiry.as_slices();
        CheckpointView {
            next_tick: state.next_tick,
            rng_states: [
                state.join_rng.state(),
                state.link_rng.state(),
                state.sel_rng.state(),
                state.gossip_rng.state(),
                state.fault_rng.state(),
            ],
            join_idx: state.join_idx as u64,
            departures: departures.into(),
            crash_expiry: [older, newer],
            peers: &self.peers,
            addrs: &self.addrs,
            isps: &self.isps,
            tracker: TrackerRef::Live(&self.tracker),
            live: self.live as u64,
            summary: state.summary,
        }
    }

    /// Rebuilds a simulator and its loop state from a checkpoint
    /// taken by [`OverlaySim::capture`], given the *same* scenario
    /// and config that produced it. Continuing the returned pair with
    /// [`OverlaySim::tick_once`] replays the remainder of the run
    /// byte-identically to one that was never interrupted.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfig::validate`]).
    pub fn resume(scenario: Scenario, cfg: SimConfig, ckpt: &SimCheckpoint) -> (Self, RunState) {
        Self::resume_owned(scenario, cfg, ckpt.clone())
    }

    /// [`OverlaySim::resume`] that takes the checkpoint by value: the
    /// peer slab, address and ISP tables move into the simulator, so a
    /// resume never holds two copies of the world.
    ///
    /// # Panics
    ///
    /// As [`OverlaySim::resume`].
    pub fn resume_owned(
        scenario: Scenario,
        cfg: SimConfig,
        ckpt: SimCheckpoint,
    ) -> (Self, RunState) {
        // lint:allow(C1): a bad config is experiment-setup error; abort before any simulation work
        cfg.validate().expect("invalid simulator configuration");
        let db = IspDatabase::synthetic(cfg.isp_shares);
        let mut allocator = db.allocator();
        for &addr in &ckpt.addrs {
            allocator.mark_used(addr);
        }
        let live_slots: Vec<u32> = occupied(&ckpt.peers).collect();
        let sim = OverlaySim {
            cfg,
            scenario,
            peers: ckpt.peers,
            addrs: ckpt.addrs,
            isps: ckpt.isps,
            tracker: Tracker::restore(&ckpt.tracker),
            allocator,
            db,
            live: ckpt.live as usize,
            live_slots,
            scratch: MaintScratch::default(),
            transfer: TransferScratch::default(),
            crash_expiry: ckpt.crash_expiry.into(),
        };
        let joins = sim.scenario.generate_joins();
        let window_end = sim.scenario.calendar.window_end();
        let ticks_total = window_end.as_millis() / sim.cfg.tick.as_millis();
        let rates: BTreeMap<ChannelId, f64> = sim
            .scenario
            .channels
            .iter()
            .map(|c| (c.id, c.rate_kbps))
            .collect();
        let state = RunState {
            join_rng: StdRng::from_state(ckpt.rng_states[0]),
            link_rng: StdRng::from_state(ckpt.rng_states[1]),
            sel_rng: StdRng::from_state(ckpt.rng_states[2]),
            gossip_rng: StdRng::from_state(ckpt.rng_states[3]),
            fault_rng: StdRng::from_state(ckpt.rng_states[4]),
            faults: sim.scenario.faults.clone(),
            joins,
            join_idx: ckpt.join_idx as usize,
            departures: ckpt
                .departures
                .iter()
                .map(|&(t, id)| std::cmp::Reverse((SimTime::from_millis(t), id)))
                .collect(),
            rates,
            ticks_total,
            next_tick: ckpt.next_tick,
            summary: ckpt.summary,
        };
        (sim, state)
    }

    /// Convenience wrapper: run and collect everything through the
    /// trace server's admission rules ([`GatewayCore`]) into a
    /// [`TraceStore`]. Use only at small scales; figure pipelines
    /// stream instead.
    ///
    /// Admission honours the scenario's trace-server outage schedule;
    /// reports arriving during downtime ride a bounded
    /// store-and-forward uplink and are retransmitted (oldest first)
    /// once the server answers again, with a final drain after the
    /// window closes — so the archived trace stays complete across
    /// outages unless the buffer overflows.
    ///
    /// # Errors
    ///
    /// Fails on any [`OverlaySim::run`] failure, or when admission
    /// rejects a simulated report (a disagreement between the report
    /// builder and the §3.2 schema).
    pub fn run_collecting(&mut self) -> Result<(TraceStore, SimSummary), SimError> {
        let window_end = self.scenario.calendar.window_end();
        let mut core = GatewayCore::new(window_end, self.scenario.faults.server_outages.clone());
        let mut store = TraceStore::new();
        let mut gateway = SinkGateway::new(&mut core, |r| store.push(r));
        let mut uplink = ReportUplink::new(1 << 16);
        let summary = self.run(|r| {
            let now = r.time;
            uplink.send_via(r, now, &mut gateway);
        })?;
        // The real collector kept listening past the window: drain
        // whatever the last outage left buffered.
        uplink.flush_via(window_end, &mut gateway);
        if uplink.stats().rejected > 0 {
            return Err(SimError::ReportRejected {
                reason: "validating trace server rejected a simulated report".into(),
            });
        }
        Ok((store, summary))
    }

    fn spawn_servers(&mut self, link_rng: &mut StdRng, horizon: SimTime) {
        let channels: Vec<(ChannelId, f64)> = self
            .scenario
            .channels
            .iter()
            .map(|c| (c.id, c.rate_kbps))
            .collect();
        for (ch, rate) in channels {
            for _ in 0..self.cfg.servers_per_channel {
                let addr = self.allocator.alloc_in(link_rng, Isp::Telecom);
                let isp = self.db.lookup(addr);
                let id = PeerId(self.peers.len() as u32);
                let server = PeerState::new_server(
                    addr,
                    isp,
                    rate * self.cfg.server_capacity_streams,
                    ch,
                    SimTime::ORIGIN,
                    horizon,
                );
                self.occupy(server);
                self.tracker.register(ch, id, isp);
                self.tracker.volunteer(ch, id);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        ev: &JoinEvent,
        tick_idx: u64,
        faults: &FaultPlan,
        counters: &mut FaultCounters,
        join_rng: &mut StdRng,
        link_rng: &mut StdRng,
        sel_rng: &mut StdRng,
    ) -> PeerId {
        let addr = self.allocator.alloc(join_rng);
        let isp = self.db.lookup(addr);
        let capacity = self.cfg.capacity_model.sample(join_rng, isp);
        let id = PeerId(self.peers.len() as u32);
        let mut peer = PeerState::new_peer(
            addr,
            isp,
            capacity,
            ev.channel,
            ev.time,
            ev.time + ev.duration,
        );

        if faults.tracker_down(ev.time) {
            // Tracker outage: no bootstrap and no registration. The
            // peer schedules its first retry under the capped
            // exponential backoff; until one succeeds it is unknown
            // to the rest of the overlay.
            counters.tracker_denied_joins += 1;
            peer.bootstrap_attempts = 1;
            peer.next_bootstrap_tick = tick_idx + self.backoff_ticks(1);
            self.occupy(peer);
            self.live += 1;
            return id;
        }

        // Tracker bootstrap: up to 50 partners, volunteers first.
        let policy = self.bootstrap_policy();
        let candidates = self.tracker.bootstrap(
            ev.channel,
            id,
            isp,
            self.cfg.max_bootstrap_partners,
            policy,
            join_rng,
            &mut self.scratch.bootstrap,
        );
        self.scratch.joined.clear();
        for &cand in candidates {
            let Some(other) = self.peers[cand.index()].as_mut() else {
                continue;
            };
            if !faults.path_open(isp, other.isp, ev.time) {
                counters.links_blocked += 1;
                continue;
            }
            let quality = self.cfg.link_model.sample(link_rng, isp, other.isp);
            // The joiner's id is the slab maximum: an append.
            other.add_partner(id, quality, ev.time);
            self.scratch.joined.push((cand, quality));
        }
        // Candidates arrive in draw order; sorted, they are appends on
        // the joiner's side too.
        self.scratch.joined.sort_unstable_by_key(|&(cand, _)| cand);
        for &(cand, quality) in &self.scratch.joined {
            peer.add_partner(cand, quality, ev.time);
        }
        peer.select_suppliers(
            self.cfg.target_suppliers,
            self.cfg.random_selection,
            sel_rng,
            &mut self.scratch.ranked,
        );
        self.occupy(peer);
        self.tracker.register(ev.channel, id, isp);
        self.live += 1;
        id
    }

    /// Appends `peer` to the slab and its side tables; its id is the
    /// new slab maximum, so the live list stays ascending.
    fn occupy(&mut self, peer: PeerState) {
        self.live_slots.push(self.peers.len() as u32);
        self.addrs.push(peer.addr);
        self.isps.push(peer.isp);
        self.peers.push(Some(Box::new(peer))); // lint:allow(H2): one box per join — the peer's own state, so a departed slot costs the slab a pointer
    }

    /// Empties the slot of viewer `id` (if occupied), keeping the live
    /// count and the live list in step with the slab.
    fn vacate(&mut self, id: PeerId) -> PeerSlot {
        let peer = self.peers[id.index()].take()?;
        self.live -= 1;
        if let Ok(at) = self.live_slots.binary_search(&id.0) {
            self.live_slots.remove(at);
        }
        Some(peer)
    }

    /// Shared borrow of slot `i`, which the caller has already
    /// verified live this tick. Concentrates the slab-liveness
    /// invariant in one place instead of ad-hoc `expect`s at every
    /// re-borrow.
    fn live_ref(&self, i: usize) -> &PeerState {
        // lint:allow(C1): slot verified live at the loop head; a None here is a simulator bug worth aborting on
        self.peers[i].as_ref().expect("slot verified live")
    }

    /// Exclusive borrow of slot `i`; see [`Self::live_ref`].
    fn live_mut(&mut self, i: usize) -> &mut PeerState {
        // lint:allow(C1): slot verified live at the loop head; a None here is a simulator bug worth aborting on
        self.peers[i].as_mut().expect("slot verified live")
    }

    /// Graceful departure: deregisters at the tracker and tears down
    /// both connection endpoints. Returns `false` when the slot was
    /// already empty (the peer crashed before its scheduled leave).
    fn depart(&mut self, id: PeerId) -> bool {
        let Some(peer) = self.vacate(id) else {
            return false;
        };
        self.tracker.deregister(peer.channel, id);
        // Tear down both connection endpoints.
        for &pid in peer.partners.ids() {
            if let Some(Some(other)) = self.peers.get_mut(pid.index()) {
                other.remove_partner(id);
            }
        }
        true
    }

    /// Ungraceful crash: the slot empties with no leave message — no
    /// tracker deregistration and no partner teardown. Partners
    /// discover the death via transfer timeout
    /// ([`SimConfig::partner_timeout_ticks`]); the tracker expires
    /// the stale entry on the same horizon via `crash_expiry`.
    fn crash(&mut self, id: PeerId, tick_idx: u64, counters: &mut FaultCounters) {
        let Some(peer) = self.vacate(id) else {
            return;
        };
        counters.crashes += 1;
        self.crash_expiry.push_back((
            tick_idx + u64::from(self.cfg.partner_timeout_ticks),
            peer.channel,
            id.0,
        ));
    }

    /// Retry delay after `attempts` failed bootstraps: capped
    /// exponential, base `bootstrap_retry_ticks` doubling per failure
    /// up to `bootstrap_retry_cap_ticks`.
    fn backoff_ticks(&self, attempts: u32) -> u64 {
        let base = u64::from(self.cfg.bootstrap_retry_ticks);
        let cap = u64::from(self.cfg.bootstrap_retry_cap_ticks);
        base.saturating_mul(1u64 << attempts.saturating_sub(1).min(16))
            .min(cap)
    }

    #[allow(clippy::too_many_arguments)]
    fn maintenance_pass(
        &mut self,
        tick_idx: u64,
        now: SimTime,
        rates: &BTreeMap<ChannelId, f64>,
        faults: &FaultPlan,
        counters: &mut FaultCounters,
        sel_rng: &mut StdRng,
        gossip_rng: &mut StdRng,
    ) {
        // The pass owns the scratch and the live list for its duration
        // so they can be lent out while `self` is borrowed for slab
        // access; maintenance never changes membership.
        let mut scratch = std::mem::take(&mut self.scratch);
        let live_slots = std::mem::take(&mut self.live_slots);
        for i in live_slots.iter().map(|&i| i as usize) {
            // Copy the per-peer reads out so the slot borrow ends
            // before the mutating phases below.
            let (id, channel, util, starving, retry_due) = {
                let Some(p) = &self.peers[i] else { continue };
                if p.is_server {
                    continue;
                }
                let rate = rates.get(&p.channel).copied().unwrap_or(400.0);
                (
                    PeerId(i as u32),
                    p.channel,
                    p.upload_utilization(),
                    p.recv_kbps < self.cfg.fallback_quality * rate && p.buffer_fill > 0.0,
                    p.next_bootstrap_tick != 0 && tick_idx >= p.next_bootstrap_tick,
                )
            };

            // Bootstrap retry: a peer denied at join (tracker
            // outage) keeps retrying on the capped exponential
            // schedule until a bootstrap lands.
            if retry_due {
                counters.bootstrap_retries += 1;
                if faults.tracker_down(now) {
                    let p = self.live_mut(i);
                    p.bootstrap_attempts = p.bootstrap_attempts.saturating_add(1);
                    let delay = self.backoff_ticks(self.live_ref(i).bootstrap_attempts);
                    self.live_mut(i).next_bootstrap_tick = tick_idx + delay;
                } else {
                    let my_isp = self.isps[i];
                    let candidates = self.tracker.bootstrap(
                        channel,
                        id,
                        my_isp,
                        self.cfg.max_bootstrap_partners,
                        self.bootstrap_policy(),
                        sel_rng,
                        &mut scratch.bootstrap,
                    );
                    let mut got = 0usize;
                    for &cand in candidates {
                        if cand == id {
                            continue;
                        }
                        let Some(other) = self.peers[cand.index()].as_mut() else {
                            continue;
                        };
                        if !faults.path_open(my_isp, other.isp, now) {
                            counters.links_blocked += 1;
                            continue;
                        }
                        let quality = self.cfg.link_model.sample(sel_rng, my_isp, other.isp);
                        other.add_partner(id, quality, now);
                        self.live_mut(i).add_partner(cand, quality, now);
                        got += 1;
                    }
                    // Register regardless: even with an empty pool
                    // the peer becomes discoverable by later joins
                    // (register is idempotent across retries).
                    self.tracker.register(channel, id, my_isp);
                    let (target, random) = (self.cfg.target_suppliers, self.cfg.random_selection);
                    let p = self.live_mut(i);
                    if got > 0 {
                        p.bootstrap_attempts = 0;
                        p.next_bootstrap_tick = 0;
                        p.select_suppliers(target, random, sel_rng, &mut scratch.ranked);
                        counters.bootstrap_recoveries += 1;
                    } else {
                        p.bootstrap_attempts = p.bootstrap_attempts.saturating_add(1);
                        let attempts = p.bootstrap_attempts;
                        let delay = self.backoff_ticks(attempts);
                        self.live_mut(i).next_bootstrap_tick = tick_idx + delay;
                    }
                }
            }

            // Volunteer / starvation accounting (reads, then writes).
            {
                let volunteer_util = self.cfg.volunteer_utilization;
                let p = self.live_mut(i);
                if util < volunteer_util {
                    p.underused_ticks += 1;
                } else {
                    p.underused_ticks = 0;
                }
                if starving {
                    p.starved_ticks += 1;
                } else {
                    p.starved_ticks = 0;
                }
            }

            // Volunteer list churn.
            let (underused, starved, volunteered) = {
                let p = self.live_ref(i);
                (p.underused_ticks, p.starved_ticks, p.volunteered)
            };
            if !self.cfg.disable_volunteer {
                if underused >= self.cfg.sustain_ticks && !volunteered {
                    self.tracker.volunteer(channel, id);
                    self.live_mut(i).volunteered = true;
                } else if volunteered && util > 0.95 {
                    self.tracker.unvolunteer(channel, id);
                    self.live_mut(i).volunteered = false;
                }
            }

            // Tracker fallback: playback not sustained → more
            // partners. When the tracker is down, fall back to an
            // extra gossip exchange instead — the only discovery
            // path that still works.
            if starved >= self.cfg.sustain_ticks {
                if faults.tracker_down(now) {
                    counters.gossip_fallbacks += 1;
                    self.gossip(i, now, faults, counters, sel_rng, &mut scratch.recs);
                    self.live_mut(i).starved_ticks = 0;
                } else {
                    let my_isp = self.isps[i];
                    let extra = self.tracker.bootstrap(
                        channel,
                        id,
                        my_isp,
                        self.cfg.fallback_partners,
                        self.bootstrap_policy(),
                        sel_rng,
                        &mut scratch.bootstrap,
                    );
                    for &cand in extra {
                        if cand == id {
                            continue;
                        }
                        let other_isp = self.isps[cand.index()];
                        if !faults.path_open(my_isp, other_isp, now) {
                            counters.links_blocked += 1;
                            continue;
                        }
                        let quality = self.cfg.link_model.sample(sel_rng, my_isp, other_isp);
                        if let Some(other) = self.peers[cand.index()].as_mut() {
                            other.add_partner(id, quality, now);
                        } else {
                            continue;
                        }
                        self.live_mut(i).add_partner(cand, quality, now);
                    }
                    self.live_mut(i).starved_ticks = 0;
                }
            }

            // Gossip every third tick (staggered by id).
            if (tick_idx + i as u64) % 3 == 0 {
                self.gossip(i, now, faults, counters, gossip_rng, &mut scratch.recs);
            }

            // Transfer-timeout detection: a partner whose slot is
            // gone sends nothing; after `partner_timeout_ticks`
            // consecutive silent ticks the link is declared dead and
            // removed. Graceful departures tear down both ends
            // immediately — this path is how *crashed* peers are
            // discovered, since they send no leave message.
            // Liveness comes from this tick's snapshot; nothing in the
            // pass changes it.
            if let Some(p) = self.peers[i].as_mut() {
                let timeout = self.cfg.partner_timeout_ticks;
                let snapshot = &self.transfer;
                p.partners.retain_mut(|pid, link| {
                    if snapshot.is_live(pid) {
                        return true;
                    }
                    link.stale_ticks += 1;
                    let expired = link.stale_ticks >= timeout;
                    if expired {
                        counters.partner_timeouts += 1;
                    }
                    !expired
                });
            }

            // Supplier re-selection every second tick (staggered),
            // i.e. every 10 minutes as buffer maps are exchanged.
            if (tick_idx + i as u64) % 2 == 0 {
                let (target, random, membership_target) = (
                    self.cfg.target_suppliers,
                    self.cfg.random_selection,
                    self.cfg.gossip_target_partners,
                );
                let p = self.live_mut(i);
                p.select_suppliers(target, random, sel_rng, &mut scratch.ranked);
                // Prune to the membership *target*, not the hard cap:
                // passive link accumulation (every newcomer's
                // bootstrap touches ~50 existing peers) would
                // otherwise pile the partner-count distribution at
                // the cap, where the paper observes counts decaying
                // from the bootstrap 50.
                p.prune_partners(membership_target, &mut scratch.ranked);
            }
        }
        self.scratch = scratch;
        self.live_slots = live_slots;
    }

    /// One gossip exchange for peer `i`: pick a random partner, adopt
    /// up to `gossip_fanout` of its partners ("neighboring peers also
    /// recommend known partners to each other, based on estimated
    /// availability" — recommendations prefer partners the
    /// recommender currently receives well from).
    fn gossip(
        &mut self,
        i: usize,
        now: SimTime,
        faults: &FaultPlan,
        counters: &mut FaultCounters,
        rng: &mut StdRng,
        recs: &mut Vec<(PeerId, f64, bool)>,
    ) {
        let (id, my_isp, my_channel, partner_count) = {
            let Some(p) = &self.peers[i] else { return };
            (PeerId(i as u32), p.isp, p.channel, p.partners.len())
        };
        // Demand-driven: peers solicit recommendations only while
        // below their membership target, so churn keeps partner
        // counts drifting *down* from the bootstrap 50 (Fig. 4A's
        // observation) instead of railing at the hard cap.
        if partner_count == 0 || partner_count >= self.cfg.gossip_target_partners {
            return;
        }
        // Pick a random partner (by table position) as the recommender.
        let recommender = self.live_ref(i).partners.ids()[rng.random_range(0..partner_count)];
        let Some(rec_state) = self.peers[recommender.index()].as_ref() else {
            return;
        };
        // Recommend the partners the recommender scores highest.
        // Under the locality extension the recommender additionally
        // prefers candidates in the requester's ISP (it sees the
        // requester's IP, so this needs no extra protocol state).
        let locality = self.cfg.tracker_locality_fraction > 0.0;
        recs.clear();
        recs.extend(
            rec_state
                .partners
                .iter()
                .filter(|&(pid, _)| pid != id)
                .map(|(pid, l)| {
                    let same_isp = self.isps.get(pid.index()).copied() == Some(my_isp);
                    (pid, l.score(), locality && same_isp)
                }),
        );
        // Local candidates first, then by score; ascending id breaks
        // ties (the recommender's table order), making the order total
        // so only the `gossip_fanout` best need sorting.
        let best_first = |a: &(PeerId, f64, bool), b: &(PeerId, f64, bool)| {
            b.2.cmp(&a.2).then(b.1.total_cmp(&a.1)).then(a.0.cmp(&b.0))
        };
        let fanout = self.cfg.gossip_fanout;
        if recs.len() > fanout {
            recs.select_nth_unstable_by(fanout, best_first);
            recs.truncate(fanout);
        }
        recs.sort_unstable_by(best_first);
        for &(cand, _, _) in recs.iter() {
            if cand.index() >= self.peers.len() || self.live_ref(i).partners.contains(cand) {
                continue;
            }
            let Some(other) = &self.peers[cand.index()] else {
                continue;
            };
            if other.channel != my_channel {
                continue;
            }
            let other_isp = other.isp;
            if !faults.path_open(my_isp, other_isp, now) {
                counters.links_blocked += 1;
                continue;
            }
            let quality = self.cfg.link_model.sample(rng, my_isp, other_isp);
            self.live_mut(cand.index()).add_partner(id, quality, now);
            self.live_mut(i).add_partner(cand, quality, now);
        }
    }

    fn emit_reports<F>(
        &mut self,
        tick_end: SimTime,
        faults: &FaultPlan,
        fault_rng: &mut StdRng,
        counters: &mut FaultCounters,
        sink: &mut F,
    ) -> u64
    where
        F: FnMut(PeerReport),
    {
        let mut emitted = 0;
        let window = self.cfg.window_segments;
        // Split borrows: address table is read-only during the pass.
        let addrs = std::mem::take(&mut self.addrs);
        for &j in &self.live_slots {
            let Some(p) = self.peers[j as usize].as_mut() else {
                continue;
            };
            let Some(due) = p.next_report else { continue };
            if due >= tick_end {
                continue;
            }
            let report = p.build_report(due, window, |pid| addrs[pid.index()]);
            p.next_report = Some(due + REPORT_INTERVAL);
            // Injected datagram loss: the peer built and sent its
            // report either way, but it never arrives. Draw only
            // when loss is possible, so a fault-free plan makes zero
            // draws from the fault stream.
            let loss = faults.report_loss_prob(p.isp, due);
            if loss > 0.0 && fault_rng.random_range(0.0..1.0) < loss {
                counters.reports_lost += 1;
                continue;
            }
            sink(report);
            emitted += 1;
        }
        self.addrs = addrs;
        emitted
    }

    fn bootstrap_policy(&self) -> BootstrapPolicy {
        BootstrapPolicy {
            use_volunteers: !self.cfg.disable_volunteer,
            locality_fraction: self.cfg.tracker_locality_fraction,
        }
    }

    /// Verifies structural invariants of the current overlay state;
    /// used by tests and available to callers after (or between)
    /// runs. Checks that partner tables are strictly id-sorted,
    /// connections are mutual, supplier sets are within bounds, and
    /// the live count and live-slot list match the slab.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut live = 0usize;
        for (i, slot) in self.peers.iter().enumerate() {
            let Some(p) = slot else { continue };
            if !p.is_server {
                live += 1;
            }
            // Servers accept every connection and never prune; the
            // membership cap applies to ordinary peers only.
            if !p.is_server
                && p.partners.len() > self.cfg.max_partners + self.cfg.max_bootstrap_partners
            {
                return Err(format!(
                    "peer {i} holds {} partners (cap {})",
                    p.partners.len(),
                    self.cfg.max_partners
                ));
            }
            if !p.partners.is_well_formed() {
                return Err(format!(
                    "peer {i}: partner table is not strictly ascending by id"
                ));
            }
            let suppliers = p.suppliers().count();
            if suppliers > self.cfg.target_suppliers {
                return Err(format!(
                    "peer {i} selected {suppliers} suppliers (target {})",
                    self.cfg.target_suppliers
                ));
            }
            for &pid in p.partners.ids() {
                // Dead partners are purged lazily within one
                // selection round; they are tolerated here.
                if let Some(Some(other)) = self.peers.get(pid.index()) {
                    if !other.partners.contains(PeerId(i as u32)) {
                        return Err(format!("connection {i} -> {} is not mutual", pid.index()));
                    }
                }
            }
        }
        if live != self.live {
            return Err(format!(
                "live count {} disagrees with slab ({live})",
                self.live
            ));
        }
        if !occupied(&self.peers).eq(self.live_slots.iter().copied()) {
            return Err("live-slot list disagrees with the slab".into());
        }
        Ok(())
    }

    /// ISP of a peer address allocated in this run.
    pub fn isp_of(&self, addr: PeerAddr) -> Isp {
        self.db.lookup(addr)
    }

    /// Current live (non-server) population.
    pub fn live_peers(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use magellan_netsim::StudyCalendar;
    use magellan_workload::{DiurnalProfile, Scenario};

    /// A tiny scenario: ~40 concurrent peers, 6 hours. Fast enough
    /// for debug-mode tests while still exercising every mechanism.
    pub(crate) fn tiny_scenario(seed: u64) -> Scenario {
        let mut s = Scenario::builder(seed, 0.0004)
            .calendar(StudyCalendar { window_days: 1 })
            .diurnal(DiurnalProfile::flat())
            .flash_crowds(vec![])
            .build();
        s.channels = magellan_workload::ChannelDirectory::uusee(2);
        s
    }

    fn quick_cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn run_produces_reports_and_churn() {
        let mut sim = OverlaySim::new(tiny_scenario(1), quick_cfg());
        let (store, summary) = sim.run_collecting().expect("tiny run succeeds");
        assert!(summary.joins > 50, "joins = {}", summary.joins);
        assert!(summary.leaves > 0);
        assert!(summary.reports > 0, "no reports emitted");
        assert_eq!(store.len() as u64, summary.reports);
        assert!(summary.segments > 0.0);
        assert!(summary.peak_concurrent > 5);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut sim = OverlaySim::new(tiny_scenario(seed), quick_cfg());
            sim.run_collecting().expect("tiny run succeeds")
        };
        let (store_a, sum_a) = run(7);
        let (store_b, sum_b) = run(7);
        assert_eq!(sum_a, sum_b);
        assert_eq!(store_a.reports(), store_b.reports());
        let (_, sum_c) = run(8);
        assert_ne!(sum_a, sum_c);
    }

    #[test]
    fn reports_follow_the_measurement_schedule() {
        let mut sim = OverlaySim::new(tiny_scenario(2), quick_cfg());
        let (store, _) = sim.run_collecting().expect("tiny run succeeds");
        // Group reports by reporter; check spacing is REPORT_INTERVAL.
        let mut by_peer: BTreeMap<PeerAddr, Vec<SimTime>> = BTreeMap::new();
        for r in store.reports() {
            by_peer.entry(r.addr).or_default().push(r.time);
        }
        let mut checked = 0;
        for times in by_peer.values() {
            for w in times.windows(2) {
                assert_eq!(
                    w[1].since(w[0]),
                    REPORT_INTERVAL,
                    "reports not 10 minutes apart"
                );
                checked += 1;
            }
        }
        assert!(checked > 10, "not enough multi-report peers ({checked})");
    }

    #[test]
    fn most_viewers_achieve_good_rates() {
        let mut sim = OverlaySim::new(tiny_scenario(3), quick_cfg());
        let (store, _) = sim.run_collecting().expect("tiny run succeeds");
        let total = store.len();
        assert!(total > 20);
        let good = store
            .reports()
            .iter()
            .filter(|r| r.recv_throughput_kbps >= 0.9 * 400.0)
            .count();
        let frac = good as f64 / total as f64;
        assert!(
            frac > 0.5,
            "only {frac:.2} of reports show satisfactory rates"
        );
    }

    #[test]
    fn partner_lists_are_populated_and_bounded() {
        let cfg = quick_cfg();
        let max = cfg.max_partners;
        let mut sim = OverlaySim::new(tiny_scenario(4), cfg);
        let (store, _) = sim.run_collecting().expect("tiny run succeeds");
        let mut nonempty = 0;
        for r in store.reports() {
            assert!(r.partners.len() <= max, "partner list over bound");
            if !r.partners.is_empty() {
                nonempty += 1;
            }
        }
        assert!(
            nonempty * 10 >= store.len() * 9,
            "too many empty partner lists: {nonempty}/{}",
            store.len()
        );
    }

    #[test]
    fn reports_validate_at_the_trace_server() {
        // run_collecting panics internally if the server rejects any
        // report; reaching here is the assertion.
        let mut sim = OverlaySim::new(tiny_scenario(5), quick_cfg());
        let (store, _) = sim.run_collecting().expect("tiny run succeeds");
        assert!(!store.is_empty());
    }

    #[test]
    fn active_links_exist_in_reports() {
        let mut sim = OverlaySim::new(tiny_scenario(6), quick_cfg());
        let (store, _) = sim.run_collecting().expect("tiny run succeeds");
        let active_links: u64 = store
            .reports()
            .iter()
            .map(|r| r.partners.iter().filter(|p| p.is_active()).count() as u64)
            .sum();
        assert!(active_links > 50, "active links = {active_links}");
    }

    #[test]
    fn invariants_hold_after_a_run() {
        let mut sim = OverlaySim::new(tiny_scenario(11), quick_cfg());
        sim.run(|_| {}).expect("tiny run succeeds");
        sim.check_invariants().expect("invariants violated");
    }

    #[test]
    fn no_fault_plan_means_zero_fault_counters() {
        let mut sim = OverlaySim::new(tiny_scenario(1), quick_cfg());
        let (_, summary) = sim.run_collecting().expect("tiny run succeeds");
        // partner_timeouts is legitimately nonzero without faults
        // (lazy discovery of one-sidedly pruned edges after the
        // pruner departs); every *injection* counter must be zero.
        let f = FaultCounters {
            partner_timeouts: summary.faults.partner_timeouts,
            ..FaultCounters::default()
        };
        assert_eq!(summary.faults, f);
    }

    #[test]
    fn crash_wave_kills_without_leave_messages() {
        use magellan_workload::CrashWave;
        let run = |faults: FaultPlan| {
            let mut s = tiny_scenario(9);
            s.faults = faults;
            let mut sim = OverlaySim::new(s, quick_cfg());
            let summary = sim.run_collecting().expect("run succeeds").1;
            sim.check_invariants().expect("invariants violated");
            summary
        };
        let clean = run(FaultPlan::default());
        let dirty = run(FaultPlan {
            crash_waves: vec![CrashWave {
                at: SimTime::at(0, 3, 0),
                fraction: 0.5,
            }],
            ..FaultPlan::default()
        });
        assert!(dirty.faults.crashes > 0, "no crashes injected");
        // Crashed peers send no leave message, so their scheduled
        // departures are never counted…
        assert!(
            dirty.leaves < clean.leaves,
            "leaves {} not below clean {}",
            dirty.leaves,
            clean.leaves
        );
        // …their partners discover the loss by transfer timeout, and
        // the tracker expires the stale entries.
        assert!(dirty.faults.partner_timeouts > 0);
        assert_eq!(dirty.faults.tracker_expirations, dirty.faults.crashes);
    }

    #[test]
    fn tracker_outage_denies_and_retries_bootstrap() {
        use magellan_netsim::FaultWindow;
        let mut s = tiny_scenario(10);
        s.faults = FaultPlan {
            tracker_outages: vec![FaultWindow::new(SimTime::at(0, 1, 0), SimTime::at(0, 2, 0))],
            ..FaultPlan::default()
        };
        let mut sim = OverlaySim::new(s, quick_cfg());
        let (_, summary) = sim.run_collecting().expect("run succeeds");
        assert!(summary.faults.tracker_denied_joins > 0, "{summary:?}");
        assert!(summary.faults.bootstrap_retries > 0, "{summary:?}");
        assert!(
            summary.faults.bootstrap_recoveries > 0,
            "nobody recovered after the outage: {summary:?}"
        );
        assert!(summary.reports > 0);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let mut s = tiny_scenario(12);
            s.faults = FaultPlan::combined_stress(0);
            let mut sim = OverlaySim::new(s, quick_cfg());
            sim.run_collecting().expect("faulty run succeeds")
        };
        let (store_a, sum_a) = run();
        let (store_b, sum_b) = run();
        assert_eq!(sum_a, sum_b);
        assert_eq!(store_a.reports(), store_b.reports());
        // The combined schedule exercises every fault class.
        assert!(sum_a.faults.reports_lost > 0, "{:?}", sum_a.faults);
        assert!(sum_a.faults.crashes > 0, "{:?}", sum_a.faults);
        assert!(sum_a.faults.flows_blocked > 0, "{:?}", sum_a.faults);
    }

    /// Runs `scenario` to completion two ways — uninterrupted, and
    /// interrupted at `stop_tick` with a capture → encode → decode →
    /// resume round-trip — and asserts byte-identical reports and an
    /// identical summary.
    fn assert_resume_is_identical(scenario: Scenario, stop_tick_frac: (u64, u64)) {
        let mut clean_reports: Vec<Vec<u8>> = Vec::new();
        let mut sim = OverlaySim::new(scenario.clone(), quick_cfg());
        let mut state = sim.begin();
        let mut sink =
            |r: PeerReport| clean_reports.push(magellan_trace::wire::encode(&r).to_vec());
        while sim.tick_once(&mut state, &mut sink).expect("tick") {}
        let clean = state.summary;
        let clean_final = sim.capture(&state).encode();

        let mut resumed_reports: Vec<Vec<u8>> = Vec::new();
        let mut sink =
            |r: PeerReport| resumed_reports.push(magellan_trace::wire::encode(&r).to_vec());
        let mut sim = OverlaySim::new(scenario.clone(), quick_cfg());
        let mut state = sim.begin();
        let stop = state.ticks_total() * stop_tick_frac.0 / stop_tick_frac.1;
        while state.next_tick() < stop {
            sim.tick_once(&mut state, &mut sink).expect("tick");
        }
        // Simulated crash: everything but the checkpoint bytes dies.
        let bytes = sim.capture(&state).encode();
        drop((sim, state));
        let ckpt = crate::checkpoint::SimCheckpoint::decode(&bytes).expect("decodes");
        let (mut sim, mut state) = OverlaySim::resume_owned(scenario, quick_cfg(), ckpt);
        while sim.tick_once(&mut state, &mut sink).expect("tick") {}

        assert_eq!(state.summary, clean, "summaries diverged");
        assert_eq!(
            resumed_reports.len(),
            clean_reports.len(),
            "report counts diverged"
        );
        assert_eq!(resumed_reports, clean_reports, "report bytes diverged");
        // The strongest check: the complete end-of-run state (peer
        // slab, tracker, RNG streams, …) is byte-identical to the
        // uninterrupted run's.
        assert_eq!(
            sim.capture(&state).encode(),
            clean_final,
            "final captured state diverged"
        );
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        assert_resume_is_identical(tiny_scenario(13), (1, 2));
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_under_faults() {
        let mut s = tiny_scenario(14);
        s.faults = FaultPlan::combined_stress(0);
        assert_resume_is_identical(s, (1, 3));
    }

    #[test]
    fn stepped_run_matches_run() {
        let mut a_reports = Vec::new();
        let mut sim = OverlaySim::new(tiny_scenario(15), quick_cfg());
        let a = sim.run(|r| a_reports.push(r)).expect("run succeeds");
        let mut b_reports = Vec::new();
        let mut sim = OverlaySim::new(tiny_scenario(15), quick_cfg());
        let mut state = sim.begin();
        let mut sink = |r: PeerReport| b_reports.push(r);
        while sim.tick_once(&mut state, &mut sink).expect("tick") {}
        assert_eq!(a, *state.summary());
        assert_eq!(a_reports, b_reports);
    }

    #[test]
    fn random_selection_ablation_still_runs() {
        let cfg = SimConfig {
            random_selection: true,
            ..quick_cfg()
        };
        let mut sim = OverlaySim::new(tiny_scenario(7), cfg);
        let (_, summary) = sim.run_collecting().expect("tiny run succeeds");
        assert!(summary.reports > 0);
    }

    #[test]
    fn disable_volunteer_ablation_still_runs() {
        let cfg = SimConfig {
            disable_volunteer: true,
            ..quick_cfg()
        };
        let mut sim = OverlaySim::new(tiny_scenario(8), cfg);
        let (_, summary) = sim.run_collecting().expect("tiny run succeeds");
        assert!(summary.reports > 0);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    #[test]
    #[ignore]
    fn dump_rates() {
        let mut sim = OverlaySim::new(super::tests::tiny_scenario(3), SimConfig::default());
        let (store, summary) = sim.run_collecting().expect("tiny run succeeds");
        println!("summary: {summary:?}");
        let mut rates: Vec<f64> = store
            .reports()
            .iter()
            .map(|r| r.recv_throughput_kbps)
            .collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = rates.len();
        println!(
            "n={n} p10={} p50={} p90={} max={}",
            rates[n / 10],
            rates[n / 2],
            rates[9 * n / 10],
            rates[n - 1]
        );
        let fills: Vec<f64> = store
            .reports()
            .iter()
            .map(|r| r.buffer_map.fill_fraction())
            .collect();
        println!("fill p50 = {}", {
            let mut f = fills.clone();
            f.sort_by(|a, b| a.partial_cmp(b).unwrap());
            f[f.len() / 2]
        });
        let pc: Vec<usize> = store.reports().iter().map(|r| r.partner_count()).collect();
        println!("partners p50 = {}", {
            let mut f = pc.clone();
            f.sort();
            f[f.len() / 2]
        });
        let ind: Vec<usize> = store
            .reports()
            .iter()
            .map(|r| r.active_indegree())
            .collect();
        println!("indegree p50 = {}", {
            let mut f = ind.clone();
            f.sort();
            f[f.len() / 2]
        });
        let send: Vec<f64> = store
            .reports()
            .iter()
            .map(|r| r.send_throughput_kbps)
            .collect();
        println!("send p50 = {}", {
            let mut f = send.clone();
            f.sort_by(|a, b| a.partial_cmp(b).unwrap());
            f[f.len() / 2]
        });
    }
}

#[cfg(test)]
mod locality_debug {
    use super::*;
    use crate::config::SimConfig;

    #[test]
    #[ignore]
    fn dump_pool_composition() {
        for locality in [0.0, 0.7] {
            let cfg = SimConfig {
                tracker_locality_fraction: locality,
                ..SimConfig::default()
            };
            let mut sim = OverlaySim::new(super::tests::tiny_scenario(5), cfg);
            let db = sim.isp_database().clone();
            let (store, _) = sim.run_collecting().expect("tiny run succeeds");
            // Pool intra fraction over all reports.
            let mut sum = 0.0;
            let mut n = 0;
            for r in store.reports() {
                if r.partners.is_empty() {
                    continue;
                }
                let my = db.lookup(r.addr);
                let same = r
                    .partners
                    .iter()
                    .filter(|p| db.lookup(p.addr) == my)
                    .count();
                sum += same as f64 / r.partners.len() as f64;
                n += 1;
            }
            println!(
                "locality {locality}: pool intra fraction = {:.3} over {n} reports",
                sum / n as f64
            );
        }
    }
}
