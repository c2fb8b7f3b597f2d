//! The end-to-end Magellan study driver.
//!
//! [`MagellanStudy`] runs the paper's pipeline as the paper ran it
//! (§3.2): reports cross the collector — the peer uplink, which buffers
//! across a server outage, then the admission gateway — before the
//! analysis sees them. The one live loop, `Live::run`, is shared with
//! [`crate::DurableStudy`], whose sink archives and checkpoints; the
//! in-memory study's sink does nothing.
//!
//! The analysis consumes the admitted reports *as a stream*,
//! maintaining just enough state to reconstruct snapshots at sampling
//! boundaries: the last two reports of each recently-seen peer (the
//! paper's trace server kept 120 GB; we keep a rolling window). At
//! every sample instant it freezes the stable-peer set; the frozen
//! boundaries are measured side by side on the worker pool — each from
//! scratch, at a cost proportional to its own snapshot, with one pass
//! over its partner lists that yields the population counts, the
//! degree statistics and the active-link topology at once — and their
//! points are appended to each figure's series in boundary order
//! (DESIGN.md §10).

use crate::figures::{DegreeSnapshot, PartialSample, StudyReport};
use crate::graphs::{isp_share_baseline, DegreeStats, SnapshotTable};
use crate::sessions::SessionFold;
use crate::timeseries::Series;
use magellan_graph::paths::PathSampling;
use magellan_graph::powerlaw;
use magellan_graph::reciprocity::{
    garlaschelli_reciprocity_csr, label_split_link_counts_csr, weighted_reciprocity_csr,
};
use magellan_graph::smallworld::{assess_csr, SmallWorldConfig, SmallWorldReport};
use magellan_graph::{Csr, DegreeHistogram};
use magellan_netsim::{
    uncovered_fraction, Isp, IspDatabase, PeerAddr, SimDuration, SimTime, StudyCalendar,
};
use magellan_overlay::{CheckpointView, OverlaySim, RunState, SimCheckpoint, SimConfig};
use magellan_trace::{
    GatewayCore, PeerReport, ReportUplink, ServerStats, SinkGateway, STALENESS_HORIZON,
};
use magellan_workload::{ChannelId, FaultPlan, Scenario};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::Arc;

/// Satisfaction threshold of Fig. 3: a viewer streams satisfactorily
/// at 90 % of the channel rate or better.
const QUALITY_FRACTION: f64 = 0.9;

/// Reports the peer uplink buffers across a collection outage —
/// mirrors [`OverlaySim::run_collecting`].
pub(crate) const UPLINK_CAPACITY: usize = 1 << 16;

/// Configuration of one study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Experiment seed.
    pub seed: u64,
    /// Population scale (1.0 ≈ the paper's 100k concurrent peers).
    pub scale: f64,
    /// Study window length in days (the paper plots 14).
    pub window_days: u64,
    /// Metric sampling cadence.
    pub sample_every: SimDuration,
    /// Instants at which Fig. 4 degree distributions are captured,
    /// with labels. Defaults mirror the paper: 9 a.m. and 9 p.m. on a
    /// normal day and on the flash-crowd day (Oct 6 = day 5).
    pub degree_captures: Vec<(String, SimTime)>,
    /// The ISP of Fig. 7(B) (paper: China Netcom).
    pub isp_panel: Isp,
    /// Graph metrics are skipped at samples with fewer stable peers
    /// than this (tiny graphs produce degenerate values).
    pub min_graph_nodes: usize,
    /// Overrides the scenario's flash crowds when set (`Some(vec![])`
    /// disables them — the crowd-ablation runs use this).
    pub flash_crowds: Option<Vec<magellan_workload::FlashCrowd>>,
    /// Overrides the scenario's channel directory when set (tests use
    /// a two-channel lineup so per-channel populations stay dense at
    /// tiny scales).
    pub channels: Option<magellan_workload::ChannelDirectory>,
    /// Protocol/simulator parameters.
    pub sim: SimConfig,
    /// Scheduled faults (default: none). Tracker/server outages,
    /// crash waves, partitions and report loss run inside the
    /// simulator; the `server_outages` schedule additionally marks
    /// analysis samples whose staleness horizon overlaps an outage as
    /// partial, in both the live and the replay path.
    pub faults: FaultPlan,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 2006,
            scale: 0.01,
            window_days: 14,
            sample_every: SimDuration::from_mins(60),
            degree_captures: vec![
                ("9am d2".into(), SimTime::at(2, 9, 0)),
                ("9pm d2".into(), SimTime::at(2, 21, 0)),
                ("9am d5".into(), SimTime::at(5, 9, 0)),
                ("9pm d5 (flash)".into(), SimTime::at(5, 21, 0)),
            ],
            isp_panel: Isp::Netcom,
            min_graph_nodes: 20,
            flash_crowds: None,
            channels: None,
            sim: SimConfig::default(),
            faults: FaultPlan::default(),
        }
    }
}

impl StudyConfig {
    /// Builds the workload scenario this config describes.
    pub fn scenario(&self) -> Scenario {
        let mut b = Scenario::builder(self.seed, self.scale).calendar(StudyCalendar {
            window_days: self.window_days,
        });
        if let Some(crowds) = &self.flash_crowds {
            b = b.flash_crowds(crowds.clone());
        }
        if let Some(channels) = &self.channels {
            b = b.channels(channels.clone());
        }
        if !self.faults.is_empty() {
            b = b.faults(self.faults.clone());
        }
        b.build()
    }
}

/// The study runner.
#[derive(Debug, Clone)]
pub struct MagellanStudy {
    cfg: StudyConfig,
}

impl MagellanStudy {
    /// Creates a runner.
    pub fn new(cfg: StudyConfig) -> Self {
        MagellanStudy { cfg }
    }

    /// Runs the simulation through the collector and the full
    /// analysis, producing every figure of the paper. The report's
    /// `collection` carries the gateway's admission accounting.
    pub fn run(&self) -> StudyReport {
        // lint:allow(C1): no sink I/O, and scenario and rate table come from the same StudyConfig, so the sim cannot report an inconsistency; abort loudly if it somehow does
        Live::cold(&self.cfg)
            .run(())
            .expect("study scenario is self-consistent")
    }

    /// Runs the analysis over an existing trace (for example one
    /// loaded from a segmented archive) instead of simulating — the
    /// replay-from-archive mode a measurement group actually works
    /// in. Reports are re-streamed in timestamp order; `db` must be
    /// the ISP mapping the trace was collected under (the default
    /// synthetic database for traces produced by this repository's
    /// simulator with default shares).
    pub fn analyze_trace(
        &self,
        store: &magellan_trace::TraceStore,
        db: &IspDatabase,
    ) -> StudyReport {
        let mut acc = Accumulator::new(&self.cfg, db.clone());
        let mut order: Vec<usize> = (0..store.reports().len()).collect();
        order.sort_by_key(|&i| {
            let r = &store.reports()[i];
            (r.time, r.addr)
        });
        for i in order {
            acc.ingest(store.reports()[i].clone());
        }
        acc.finish()
    }
}

/// One live study in flight: the simulator and its run state, the
/// collector in front of the analysis (peer uplink, then admission
/// gateway), and the streaming accumulator behind it.
pub(crate) struct Live {
    sim: OverlaySim,
    state: RunState,
    uplink: ReportUplink,
    core: GatewayCore,
    acc: Accumulator,
    window_end: SimTime,
    tick: SimDuration,
}

/// The resumable state of a [`Live`] study between ticks, borrowed
/// in place: the gateway's accounting, the uplink (its counters and
/// backlog, oldest first) and the simulator state.
pub(crate) struct LiveCheckpoint<'a> {
    pub(crate) server: ServerStats,
    pub(crate) uplink: &'a ReportUplink,
    pub(crate) sim: CheckpointView<'a>,
}

/// What a live run does besides analysing: with every admitted
/// report, before every tick, and once the window-end flush is in.
/// The in-memory study's `()` does nothing; [`crate::DurableStudy`]
/// archives, checkpoints and observes.
pub(crate) trait LiveSink {
    /// Takes each report the gateway admits, before the accumulator
    /// does. An error ends the run after the current tick.
    fn admit(&mut self, _report: &PeerReport) -> io::Result<()> {
        Ok(())
    }

    /// Runs before tick `tick` executes.
    fn before_tick(&mut self, _live: &Live, _tick: u64) -> io::Result<()> {
        Ok(())
    }

    /// Runs once the last buffered report has been admitted.
    fn seal(self) -> io::Result<()>
    where
        Self: Sized,
    {
        Ok(())
    }
}

impl LiveSink for () {}

impl Live {
    /// A live study of `cfg` at the simulator state `state` with a
    /// fresh gateway and accumulator.
    fn new(cfg: &StudyConfig, sim: OverlaySim, state: RunState, uplink: ReportUplink) -> Self {
        let window_end = SimTime::at(cfg.window_days, 0, 0);
        Live {
            acc: Accumulator::new(cfg, sim.isp_database().clone()),
            core: GatewayCore::new(window_end, cfg.faults.server_outages.clone()),
            sim,
            state,
            uplink,
            window_end,
            tick: cfg.sim.tick,
        }
    }

    /// A cold start of `cfg`'s study.
    pub(crate) fn cold(cfg: &StudyConfig) -> Self {
        let mut sim = OverlaySim::new(cfg.scenario(), cfg.sim.clone());
        let state = sim.begin();
        Live::new(cfg, sim, state, ReportUplink::new(UPLINK_CAPACITY))
    }

    /// A study of `cfg` resumed from a checkpoint: the simulator at
    /// `sim` (its tables move in), the uplink with its saved backlog
    /// and counters, and the gateway's accounting `server`. `replay`
    /// hands every report admitted before the checkpoint, in admission
    /// order, to the closure it is given; that rebuilds the analysis
    /// bit-exact. The dedup set starts empty: in process no admitted
    /// identity is ever delivered again (see [`Live::prune_seen`]).
    ///
    /// # Errors
    ///
    /// Whatever `replay` returns.
    pub(crate) fn resume(
        cfg: &StudyConfig,
        sim: SimCheckpoint,
        uplink: ReportUplink,
        server: ServerStats,
        replay: impl FnOnce(&mut dyn FnMut(PeerReport)) -> io::Result<()>,
    ) -> io::Result<Self> {
        let (sim, state) = OverlaySim::resume_owned(cfg.scenario(), cfg.sim.clone(), sim);
        let mut live = Live::new(cfg, sim, state, uplink);
        replay(&mut |r| live.acc.ingest(r))?;
        live.core.restore_stats(server);
        Ok(live)
    }

    /// What a checkpoint must carry to resume this study besides the
    /// archive, borrowed from the live study.
    pub(crate) fn checkpoint(&self) -> LiveCheckpoint<'_> {
        LiveCheckpoint {
            server: self.core.stats(),
            uplink: &self.uplink,
            sim: self.sim.checkpoint_view(&self.state),
        }
    }

    /// An owned copy of what [`Live::checkpoint`] borrows: the
    /// reference the streamed checkpoint is tested against.
    #[cfg(test)]
    pub(crate) fn capture(
        &self,
    ) -> (
        ServerStats,
        magellan_trace::UplinkStats,
        Vec<PeerReport>,
        SimCheckpoint,
    ) {
        (
            self.core.stats(),
            self.uplink.stats(),
            self.uplink.queued().cloned().collect(),
            self.sim.capture(&self.state),
        )
    }

    /// Drops the dedup identities behind the uplink's retransmission
    /// horizon: the backlog's head or the next tick's start, whichever
    /// is older. In process the uplink resends only reports that
    /// bounced, which never entered the set, so no pruned identity can
    /// arrive again; the set holds about one tick of reports.
    fn prune_seen(&mut self) {
        let next_tick = SimTime::from_millis(self.state.next_tick() * self.tick.as_millis());
        let horizon = self
            .uplink
            .queued()
            .next()
            .map_or(next_tick, |r| r.time.min(next_tick));
        self.core.prune_seen_below(horizon);
    }

    /// Runs the rest of the window: every report crosses the uplink
    /// and the gateway into `sink` and the analysis. The collector
    /// keeps listening past the window to drain what the last outage
    /// left buffered. Fails on the first `sink` error or a simulator
    /// inconsistency.
    pub(crate) fn run<S: LiveSink>(mut self, mut sink: S) -> io::Result<StudyReport> {
        let (mut error, mut more) = (None, true);
        while more {
            sink.before_tick(&self, self.state.next_tick())?;
            // An error from `sink` cannot surface through the gateway,
            // so the first one is stashed and rethrown after the tick.
            let mut gw = SinkGateway::new(&mut self.core, |report| {
                if let Err(e) = sink.admit(&report) {
                    error.get_or_insert(e);
                }
                self.acc.ingest(report);
            });
            more = self
                .sim
                .tick_once(&mut self.state, &mut |r: PeerReport| {
                    let now = r.time;
                    self.uplink.send_via(r, now, &mut gw);
                })
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if !more {
                self.uplink.flush_via(self.window_end, &mut gw);
            }
            if let Some(e) = error.take() {
                return Err(e);
            }
            self.prune_seen();
        }
        sink.seal()?;
        let mut report = self.acc.finish();
        report.sim = *self.state.summary();
        report.collection = Some(self.core.stats());
        Ok(report)
    }
}

/// The last two reports of one peer (two suffice: sampling lags the
/// stream by at most one simulator tick, which is shorter than the
/// 10-minute report interval). Shared, so a finalized boundary's
/// stable set is a list of refcount bumps rather than report copies.
#[derive(Debug, Clone)]
struct RecentPair {
    newer: Arc<PeerReport>,
    older: Option<Arc<PeerReport>>,
}

impl RecentPair {
    fn push(&mut self, r: Arc<PeerReport>) {
        let old = std::mem::replace(&mut self.newer, r);
        self.older = Some(old);
    }

    /// The freshest report with `time <= at` and `time > at - horizon`.
    fn select(&self, at: SimTime, horizon: SimDuration) -> Option<&Arc<PeerReport>> {
        let floor = at - horizon;
        if self.newer.time <= at && self.newer.time > floor {
            return Some(&self.newer);
        }
        match &self.older {
            Some(o) if o.time <= at && o.time > floor => Some(o),
            _ => None,
        }
    }
}

/// A sampling boundary: either a periodic sample, a Fig. 4 capture,
/// or both.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    time: SimTime,
    sample: bool,
    capture: Option<usize>,
}

/// A finalized boundary waiting to be measured: everything its
/// figures depend on, frozen when the stream passed it.
struct Pending {
    boundary: Boundary,
    /// Fraction of the staleness horizon with the collection server up.
    coverage: f64,
    /// One report per stable peer, in address order.
    stable: Vec<Arc<PeerReport>>,
}

impl Pending {
    /// A periodic sample whose horizon a server outage ate into: the
    /// stable set is a known undercount, so the figures record the
    /// hole instead of averaging over it.
    fn is_partial(&self) -> bool {
        self.boundary.sample && self.coverage < 1.0
    }
}

/// What one boundary measured: every value its figures need, computed
/// from its [`Pending`] alone.
struct Measured {
    /// The periodic sample; `None` at a capture-only or partial
    /// boundary.
    sample: Option<SampleValues>,
    /// The Fig. 4 capture, when the boundary is one.
    capture: Option<DegreeSnapshot>,
}

/// One full-coverage periodic sample.
struct SampleValues {
    /// Stable reporters (Fig. 1a).
    stable: usize,
    /// Distinct addresses visible: reporters and all their partners.
    known: usize,
    /// The known population per ISP, by [`Isp::index`] (Fig. 2).
    isp_counts: [u64; 7],
    /// `(viewers, satisfied viewers)` of CCTV1, then CCTV4 (Fig. 3).
    quality: [(usize, usize); 2],
    /// Figs. 5/6; `None` for an empty stable set.
    degrees: Option<DegreeStats>,
    /// Figs. 7/8; `None` below `min_graph_nodes`.
    graph: Option<GraphValues>,
}

/// Fig. 7A, Fig. 7B (when the panel ISP is large enough), and Fig. 8's
/// four values in series order: all, weighted, intra, inter.
struct GraphValues {
    global: SmallWorldReport,
    isp: Option<SmallWorldReport>,
    fig8: [Option<f64>; 4],
}

pub(crate) struct Accumulator {
    // BTreeMaps: both maps are iterated/retained on the metric path,
    // where hash order would leak into figure bytes (rule D4).
    recent: BTreeMap<PeerAddr, RecentPair>,
    boundaries: Vec<Boundary>,
    next_boundary: usize,
    day_total_ips: Vec<HashSet<u32>>,
    day_stable_ips: Vec<HashSet<u32>>,
    sessions: SessionFold,
    /// Finalized boundaries not yet measured, in boundary order.
    pending: Vec<Pending>,
    /// How many boundaries are measured side by side: the pool's
    /// width, so one lane measures each boundary as it is finalized.
    lanes: usize,
    sampler: Sampler,
}

/// The figures boundaries write to, plus the read-only context their
/// measurement needs. Held apart from the rolling window so queued
/// boundaries can be measured while the stream moves on.
struct Sampler {
    cfg: StudyConfig,
    db: IspDatabase,
    isp_share_sums: [f64; 7],
    isp_share_samples: u64,
    report: StudyReport,
}

impl Accumulator {
    pub(crate) fn new(cfg: &StudyConfig, db: IspDatabase) -> Self {
        let window_end = SimTime::at(cfg.window_days, 0, 0);
        // Merge the periodic grid with the capture instants.
        let mut boundaries: Vec<Boundary> = Vec::new();
        let mut t = SimTime::ORIGIN + cfg.sample_every;
        while t < window_end {
            boundaries.push(Boundary {
                time: t,
                sample: true,
                capture: None,
            });
            t += cfg.sample_every;
        }
        for (i, (_, ct)) in cfg.degree_captures.iter().enumerate() {
            if *ct >= window_end {
                continue;
            }
            match boundaries.binary_search_by_key(&ct.as_millis(), |b| b.time.as_millis()) {
                Ok(pos) => boundaries[pos].capture = Some(i),
                Err(pos) => boundaries.insert(
                    pos,
                    Boundary {
                        time: *ct,
                        sample: false,
                        capture: Some(i),
                    },
                ),
            }
        }
        let days = cfg.window_days as usize;
        let mut report = StudyReport::default();
        report.fig1a.total = Series::new("total peers");
        report.fig1a.stable = Series::new("stable peers");
        report.fig3.cctv1 = Series::new("CCTV1");
        report.fig3.cctv4 = Series::new("CCTV4");
        report.fig3.cctv1_viewers = Series::new("CCTV1 viewers");
        report.fig3.cctv4_viewers = Series::new("CCTV4 viewers");
        report.fig5.partners = Series::new("partner count");
        report.fig5.indegree = Series::new("active indegree");
        report.fig5.outdegree = Series::new("active outdegree");
        report.fig6.indegree = Series::new("intra-ISP indegree fraction");
        report.fig6.outdegree = Series::new("intra-ISP outdegree fraction");
        report.fig6.pool = Series::new("intra-ISP partner pool fraction");
        report.fig6.baseline = isp_share_baseline(&db);
        for (sw, tag) in [
            (&mut report.fig7.global, "global"),
            (&mut report.fig7.isp, "isp"),
        ] {
            sw.c = Series::new(format!("C {tag}"));
            sw.c_rand = Series::new(format!("C_rand {tag}"));
            sw.l = Series::new(format!("L {tag}"));
            sw.l_rand = Series::new(format!("L_rand {tag}"));
        }
        report.fig7.isp_choice = cfg.isp_panel;
        report.fig8.all = Series::new("rho all");
        report.fig8.intra = Series::new("rho intra-ISP");
        report.fig8.inter = Series::new("rho inter-ISP");
        report.fig8.weighted = Series::new("weighted r_w");
        Accumulator {
            recent: BTreeMap::new(),
            boundaries,
            next_boundary: 0,
            day_total_ips: vec![HashSet::new(); days],
            day_stable_ips: vec![HashSet::new(); days],
            sessions: SessionFold::default(),
            pending: Vec::new(),
            lanes: magellan_par::effective_workers_grained(usize::MAX, 1).max(1),
            sampler: Sampler {
                cfg: cfg.clone(),
                db,
                isp_share_sums: [0.0; 7],
                isp_share_samples: 0,
                report,
            },
        }
    }

    pub(crate) fn ingest(&mut self, r: PeerReport) {
        // Finalize every boundary that is certainly complete: report
        // emission lags report timestamps by less than one tick, so
        // once a report with time >= B + tick arrives, no report with
        // time <= B can follow.
        let safe_margin = self.sampler.cfg.sim.tick;
        while self.next_boundary < self.boundaries.len()
            && r.time >= self.boundaries[self.next_boundary].time + safe_margin
        {
            self.finalize_boundary(self.boundaries[self.next_boundary]);
            self.next_boundary += 1;
        }

        // Daily distinct-IP accounting.
        let day = r.time.day() as usize;
        if day < self.day_total_ips.len() {
            self.day_total_ips[day].insert(r.addr.as_u32());
            self.day_stable_ips[day].insert(r.addr.as_u32());
            for p in &r.partners {
                self.day_total_ips[day].insert(p.addr.as_u32());
            }
        }

        self.sessions.push(r.addr, r.time);

        // Rolling two-report window.
        let addr = r.addr;
        let r = Arc::new(r);
        match self.recent.get_mut(&addr) {
            Some(pair) => pair.push(r),
            None => {
                self.recent.insert(
                    addr,
                    RecentPair {
                        newer: r,
                        older: None,
                    },
                );
            }
        }
    }

    pub(crate) fn finish(mut self) -> StudyReport {
        // Remaining boundaries (the stream ended), then whatever is
        // still queued.
        while self.next_boundary < self.boundaries.len() {
            self.finalize_boundary(self.boundaries[self.next_boundary]);
            self.next_boundary += 1;
        }
        self.flush();
        let mut report = self.sampler.report;
        // Fig. 1B.
        report.fig1b.total = self
            .day_total_ips
            .iter()
            .enumerate()
            .map(|(d, s)| (d as u64, s.len() as u64))
            .collect();
        report.fig1b.stable = self
            .day_stable_ips
            .iter()
            .enumerate()
            .map(|(d, s)| (d as u64, s.len() as u64))
            .collect();
        report.sessions = self.sessions.summary();
        // Fig. 2.
        let (sums, samples) = (self.sampler.isp_share_sums, self.sampler.isp_share_samples);
        if samples > 0 {
            report.fig2.shares = Isp::ALL
                .iter()
                .map(|&isp| (isp, sums[isp.index()] / samples as f64))
                .collect();
        }
        report
    }

    /// Freezes boundary `b` into the measurement queue and measures
    /// the queue once it holds one boundary per lane.
    fn finalize_boundary(&mut self, b: Boundary) {
        let at = b.time;
        // Prune peers whose newest report fell out of the horizon —
        // they cannot matter for this or any later boundary.
        let floor = at - STALENESS_HORIZON;
        self.recent.retain(|_, pair| pair.newer.time > floor); // lint:allow(H3): horizon pruning walks the rolling window once per boundary, not per tick

        // The stable set at `at`, shared with the rolling window: one
        // report per peer, in address order (the map's).
        let stable: Vec<Arc<PeerReport>> = self
            .recent
            .values()
            .filter_map(|pair| pair.select(at, STALENESS_HORIZON))
            .map(Arc::clone)
            .collect(); // lint:allow(H2): one Vec of refcount bumps per boundary

        // Fraction of this boundary's horizon with the collection
        // server up. Derived from the configured outage schedule — not
        // from the report stream — so the live and replay paths mark
        // the same boundaries partial and stay byte-identical.
        let coverage = uncovered_fraction(
            &self.sampler.cfg.faults.server_outages,
            floor + SimDuration::from_millis(1),
            at + SimDuration::from_millis(1),
        );
        self.pending.push(Pending {
            boundary: b,
            coverage,
            stable,
        });
        if self.pending.len() >= self.lanes {
            self.flush();
        }
    }

    /// Measures the queued boundaries side by side, then applies them
    /// in boundary order. Each measurement is a pure function of its
    /// [`Pending`], and every write to the figures — the series pushes
    /// and the Fig. 2 float fold — happens in `apply`, one boundary
    /// after another, so the report is bit-identical for every lane
    /// count (DESIGN.md §10).
    fn flush(&mut self) {
        let (pending, sampler) = (&self.pending, &self.sampler);
        let measured = magellan_par::par_map_collect_grained(pending.len(), 1, |i| {
            sampler.measure(&pending[i])
        });
        for (p, m) in self.pending.drain(..).zip(measured) {
            self.sampler.apply(&p, m);
        }
    }
}

impl Sampler {
    /// Everything boundary `p`'s figures need. Reads the
    /// configuration, the ISP database and `p` — nothing another
    /// boundary's measurement or [`Sampler::apply`] writes.
    fn measure(&self, p: &Pending) -> Measured {
        let (at, stable) = (p.boundary.time, p.stable.as_slice());
        let sample = (p.boundary.sample && !p.is_partial()).then(|| {
            // One pass over the stable set feeds Figs. 1a/2, 5/6 and
            // the topology of Figs. 7/8.
            let table = SnapshotTable::build(stable, &self.db);
            SampleValues {
                stable: stable.len(),
                known: table.known,
                isp_counts: table.isp_counts,
                quality: [
                    self.quality(stable, ChannelId::CCTV1),
                    self.quality(stable, ChannelId::CCTV4),
                ],
                degrees: (!stable.is_empty()).then_some(table.degrees),
                graph: (stable.len() >= self.cfg.min_graph_nodes)
                    .then(|| self.graph_metrics(table)),
            }
        });
        let capture = p
            .boundary
            .capture
            .map(|ci| self.degree_snapshot(ci, at, p.coverage, stable));
        Measured { sample, capture }
    }

    /// Writes boundary `p`'s measurement into the figures, in the
    /// order the boundaries were finalized — the one place a boundary
    /// touches state another boundary also writes.
    fn apply(&mut self, p: &Pending, m: Measured) {
        let at = p.boundary.time;
        let report = &mut self.report;
        if p.is_partial() {
            report.partial_samples.push(PartialSample {
                time: at,
                coverage: p.coverage,
            });
        }
        if let Some(s) = m.sample {
            report.fig1a.stable.push(at, s.stable as f64);
            report.fig1a.total.push(at, s.known as f64);
            if s.known > 0 {
                for isp in Isp::ALL {
                    self.isp_share_sums[isp.index()] +=
                        s.isp_counts[isp.index()] as f64 / s.known as f64;
                }
                self.isp_share_samples += 1;
            }
            let fig3 = &mut report.fig3;
            for ((viewers, good), series, viewer_series) in [
                (s.quality[0], &mut fig3.cctv1, &mut fig3.cctv1_viewers),
                (s.quality[1], &mut fig3.cctv4, &mut fig3.cctv4_viewers),
            ] {
                viewer_series.push(at, viewers as f64);
                if viewers > 0 {
                    series.push(at, good as f64 / viewers as f64);
                }
            }
            if let Some(d) = s.degrees {
                let n = s.stable as f64;
                report.fig5.partners.push(at, d.sums.0 as f64 / n);
                report.fig5.indegree.push(at, d.sums.1 as f64 / n);
                report.fig5.outdegree.push(at, d.sums.2 as f64 / n);
                report.fig6.indegree.push(at, d.intra_in);
                report.fig6.outdegree.push(at, d.intra_out);
                report.fig6.pool.push(at, d.pool);
            }
            if let Some(g) = s.graph {
                for (sw, r) in [
                    (&mut report.fig7.global, Some(g.global)),
                    (&mut report.fig7.isp, g.isp),
                ] {
                    if let Some(SmallWorldReport {
                        c,
                        c_rand,
                        l: Some(l),
                        l_rand: Some(l_rand),
                        ..
                    }) = r
                    {
                        sw.c.push(at, c);
                        sw.c_rand.push(at, c_rand);
                        sw.l.push(at, l);
                        sw.l_rand.push(at, l_rand);
                    }
                }
                // Same order as `graph_metrics` returned the values.
                let fig8_series = [
                    &mut report.fig8.all,
                    &mut report.fig8.weighted,
                    &mut report.fig8.intra,
                    &mut report.fig8.inter,
                ];
                for (series, value) in fig8_series.into_iter().zip(g.fig8) {
                    if let Some(v) = value {
                        series.push(at, v);
                    }
                }
            }
        }
        if let Some(snapshot) = m.capture {
            report.fig4.snapshots.push(snapshot);
        }
    }

    /// Fig. 3: `(viewers, satisfied viewers)` of one channel.
    fn quality(&self, stable: &[Arc<PeerReport>], channel: ChannelId) -> (usize, usize) {
        let (mut viewers, mut good) = (0usize, 0usize);
        for r in stable.iter().filter(|r| r.channel == channel) {
            viewers += 1;
            good += usize::from(r.achieves_rate(400.0, QUALITY_FRACTION));
        }
        (viewers, good)
    }

    /// Figs. 7/8 over the table of a stable set of at least
    /// `min_graph_nodes`.
    fn graph_metrics(&self, table: SnapshotTable) -> GraphValues {
        let sw_cfg = |n: usize| SmallWorldConfig {
            // Exact metrics below 1500 nodes; sampled above.
            path_sampling: if n <= 1500 {
                PathSampling::Exact
            } else {
                PathSampling::Sources {
                    count: 300,
                    seed: 0xC0FFEE,
                }
            },
            clustering_samples: if n <= 3000 { None } else { Some(1500) },
            ..SmallWorldConfig::default()
        };

        // One build of the all-known topology serves both figures: the
        // stable-peer graph of Fig. 7 is its prefix (reporters are
        // numbered first, one per stable report), and the ISP panels
        // of Figs. 7B and 8B read the table's per-node ISP vector. The
        // edge list is dropped once flattened, before the kernels
        // allocate.
        let SnapshotTable {
            nodes,
            node_isps: isps,
            edges,
            reporters,
            ..
        } = table;
        let full = Csr::from_edges(nodes.len(), &edges);
        drop((nodes, edges));
        let stable_graph = full.induced(|id| id.index() < reporters);

        let isp_panel = self.cfg.isp_panel;
        let min_graph_nodes = self.cfg.min_graph_nodes;

        // Fig. 7 (small-world) and Fig. 8 (reciprocity) read disjoint
        // graphs, so the two metric sets compute concurrently via
        // `magellan_par::join`. Both closures are pure functions of
        // their graphs and come back as an ordered pair.
        let ((global, isp), fig8) = magellan_par::join(
            || {
                // Fig. 7A: stable-peer graph; 7B: one ISP's subgraph.
                let global = assess_csr(&stable_graph, &sw_cfg(stable_graph.node_count()));
                let sub = stable_graph.induced(|id| isps[id.index()] == isp_panel);
                let isp = (sub.node_count() >= min_graph_nodes)
                    .then(|| assess_csr(&sub, &sw_cfg(sub.node_count())));
                (global, isp)
            },
            || {
                // Fig. 8A over the whole all-known topology; Fig. 8B
                // over its intra- and inter-ISP links with their
                // incident peers, counted in one sweep.
                let (intra, inter) = label_split_link_counts_csr(&full, &isps);
                [
                    garlaschelli_reciprocity_csr(&full).ok(),
                    weighted_reciprocity_csr(&full).ok(),
                    intra.garlaschelli().ok(),
                    inter.garlaschelli().ok(),
                ]
            },
        );
        GraphValues { global, isp, fig8 }
    }

    /// Fig. 4: the degree distributions at capture `ci`.
    fn degree_snapshot(
        &self,
        ci: usize,
        at: SimTime,
        coverage: f64,
        stable: &[Arc<PeerReport>],
    ) -> DegreeSnapshot {
        let label = self.cfg.degree_captures[ci].0.clone(); // lint:allow(H2): one label clone per configured degree capture (a handful per run)
        let mut partners = DegreeHistogram::new();
        let mut indegree = DegreeHistogram::new();
        let mut outdegree = DegreeHistogram::new();
        for r in stable {
            let (p, i, o) = crate::classify::degree_triple(r);
            partners.record(p);
            indegree.record(i);
            outdegree.record(o);
        }
        let samples = partners.to_samples();
        let partner_powerlaw = powerlaw::assess(&samples).ok();
        DegreeSnapshot {
            label,
            time: at,
            coverage,
            partners,
            indegree,
            outdegree,
            partner_powerlaw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast study: ~80 concurrent peers, 2 days, hourly samples.
    fn quick_config() -> StudyConfig {
        StudyConfig {
            seed: 42,
            scale: 0.0008,
            window_days: 2,
            sample_every: SimDuration::from_hours(2),
            degree_captures: vec![
                ("9am d1".into(), SimTime::at(1, 9, 0)),
                ("9pm d1".into(), SimTime::at(1, 21, 0)),
            ],
            min_graph_nodes: 10,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn study_produces_every_figure() {
        let report = MagellanStudy::new(quick_config()).run();
        assert!(!report.fig1a.total.is_empty(), "fig1a empty");
        assert_eq!(report.fig1b.total.len(), 2, "fig1b days");
        assert!(!report.fig2.shares.is_empty(), "fig2 empty");
        assert!(!report.fig3.cctv1.is_empty(), "fig3 empty");
        assert_eq!(report.fig4.snapshots.len(), 2, "fig4 captures");
        assert!(!report.fig5.partners.is_empty(), "fig5 empty");
        assert!(!report.fig6.indegree.is_empty(), "fig6 empty");
        assert!(!report.fig7.global.c.is_empty(), "fig7 empty");
        assert!(!report.fig8.all.is_empty(), "fig8 empty");
        assert!(report.sim.joins > 0);
    }

    #[test]
    fn study_is_deterministic() {
        let a = MagellanStudy::new(quick_config()).run();
        let b = MagellanStudy::new(quick_config()).run();
        assert_eq!(a.fig1a.total.points, b.fig1a.total.points);
        assert_eq!(a.fig8.all.points, b.fig8.all.points);
        assert_eq!(a.sim, b.sim);
    }

    #[test]
    fn qualitative_findings_hold_in_miniature() {
        let report = MagellanStudy::new(quick_config()).run();
        // Stable peers are a minority but a substantial one.
        let ratio = report.fig1a.stable_ratio();
        assert!(
            (0.1..=0.7).contains(&ratio),
            "stable ratio {ratio} out of plausible band"
        );
        // Most viewers stream satisfactorily. (The miniature scale
        // leaves CCTV1 with a few dozen viewers, so the bar sits
        // below the paper's ~3/4; the default-scale run recorded in
        // EXPERIMENTS.md holds the higher one.)
        assert!(
            report.fig3.cctv1.mean() > 0.4,
            "CCTV1 quality too low: {:.3}",
            report.fig3.cctv1.mean()
        );
        // Reciprocity is positive (mesh, not tree).
        assert!(report.fig8.all.mean() > 0.0, "reciprocity not positive");
        // Indegree stays bounded near the paper's regime.
        assert!(
            report.fig5.indegree.mean() < 30.0,
            "mean indegree {}",
            report.fig5.indegree.mean()
        );
    }

    #[test]
    fn trace_replay_matches_live_analysis() {
        use magellan_netsim::IspDatabase;
        // Collect the trace of a run, then re-analyze it offline: the
        // evolution figures must match the live streaming analysis
        // exactly (same reports, same boundaries).
        let cfg = quick_config();
        let scenario = cfg.scenario();
        let mut sim = magellan_overlay::OverlaySim::new(scenario, cfg.sim.clone());
        let db: IspDatabase = sim.isp_database().clone();
        let (store, _) = sim.run_collecting().expect("run succeeds");
        let offline = MagellanStudy::new(cfg.clone()).analyze_trace(&store, &db);
        let live = MagellanStudy::new(cfg).run();
        assert_eq!(offline.fig1a.total.points, live.fig1a.total.points);
        assert_eq!(offline.fig5.indegree.points, live.fig5.indegree.points);
        assert_eq!(offline.fig8.all.points, live.fig8.all.points);
        assert_eq!(
            offline.sessions.map(|s| s.sessions),
            live.sessions.map(|s| s.sessions)
        );
    }

    #[test]
    fn server_outage_marks_samples_partial_in_live_and_replay() {
        use magellan_netsim::FaultWindow;
        let clean = MagellanStudy::new(quick_config()).run();
        let mut cfg = quick_config();
        cfg.faults.server_outages = vec![FaultWindow::new(
            SimTime::at(0, 9, 0),
            SimTime::at(0, 13, 0),
        )];
        let faulty = MagellanStudy::new(cfg.clone()).run();
        assert!(
            !faulty.partial_samples.is_empty(),
            "no sample flagged partial"
        );
        assert!(faulty
            .partial_samples
            .iter()
            .all(|p| (0.0..1.0).contains(&p.coverage)));
        assert!(
            faulty.fig1a.stable.len() < clean.fig1a.stable.len(),
            "partial samples were not excluded from the series"
        );
        // The replay path over the collected (buffered + retransmitted)
        // trace marks exactly the same holes.
        let scenario = cfg.scenario();
        let mut sim = magellan_overlay::OverlaySim::new(scenario, cfg.sim.clone());
        let db = sim.isp_database().clone();
        let (store, _) = sim.run_collecting().expect("run succeeds");
        let offline = MagellanStudy::new(cfg).analyze_trace(&store, &db);
        assert_eq!(offline.partial_samples, faulty.partial_samples);
        assert_eq!(offline.fig1a.stable.points, faulty.fig1a.stable.points);
        assert_eq!(offline.fig5.indegree.points, faulty.fig5.indegree.points);
    }

    /// The snapshot builder and the study's rolling window apply one
    /// stable-peer rule over one horizon ([`STALENESS_HORIZON`]): at
    /// every Fig. 1A sample the builder counts the study's stable
    /// peers, and every partial sample carries the builder's coverage.
    #[test]
    fn snapshot_builder_matches_the_study_stable_set() {
        use magellan_netsim::FaultWindow;
        use magellan_trace::SnapshotBuilder;
        let outage = FaultWindow::new(SimTime::at(0, 9, 0), SimTime::at(0, 13, 7));
        for (seed, outages) in [(42, vec![]), (7, vec![outage])] {
            let mut cfg = StudyConfig {
                seed,
                scale: 0.002,
                window_days: 2,
                sample_every: SimDuration::from_mins(20),
                degree_captures: vec![],
                // The graph metrics play no part in the stable set.
                min_graph_nodes: usize::MAX,
                ..StudyConfig::default()
            };
            cfg.faults.server_outages = outages;
            let mut sim = magellan_overlay::OverlaySim::new(cfg.scenario(), cfg.sim.clone());
            let db = sim.isp_database().clone();
            let (store, _) = sim.run_collecting().expect("run succeeds");
            let report = MagellanStudy::new(cfg.clone()).analyze_trace(&store, &db);
            let builder = SnapshotBuilder::new(&store).outages(&cfg.faults.server_outages);
            assert!(report.fig1a.stable.len() > 100, "seed {seed}");
            for &(t, stable) in &report.fig1a.stable.points {
                let snap = builder.at(t);
                assert_eq!(snap.stable_count() as f64, stable, "seed {seed} at {t}");
                assert!(!snap.is_partial(), "seed {seed} at {t}");
            }
            assert_eq!(
                report.partial_samples.is_empty(),
                cfg.faults.server_outages.is_empty(),
                "seed {seed}"
            );
            for p in &report.partial_samples {
                assert_eq!(builder.at(p.time).coverage, p.coverage, "seed {seed}");
            }
        }
    }

    #[test]
    fn stream_ending_mid_batch_measures_every_remaining_boundary() {
        // Four lanes, and a stream cut off mid-window while the queue
        // holds part of a batch: `finish` must finalize the boundaries
        // the stream never reached, measure the whole tail, and yield
        // exactly the one-lane report.
        let cfg = quick_config();
        let mut sim = OverlaySim::new(cfg.scenario(), cfg.sim.clone());
        let db = sim.isp_database().clone();
        let mut reports = Vec::new();
        sim.run(|r| reports.push(r)).expect("run succeeds");
        reports.retain(|r| r.time < SimTime::at(1, 5, 0));
        let report_at = |lanes: usize| {
            let mut acc = Accumulator::new(&cfg, db.clone());
            acc.lanes = lanes;
            for r in &reports {
                acc.ingest(r.clone());
            }
            if lanes > 1 {
                assert!(!acc.pending.is_empty(), "the cut must fall mid-batch");
                assert!(acc.next_boundary < acc.boundaries.len());
            }
            let samples = acc.boundaries.iter().filter(|b| b.sample).count();
            let report = acc.finish();
            assert_eq!(
                report.fig1a.stable.len(),
                samples,
                "a sample went unmeasured"
            );
            assert_eq!(report.fig4.snapshots.len(), 2, "a capture went unmeasured");
            format!("{report:?}")
        };
        assert_eq!(report_at(4), report_at(1));
    }

    #[test]
    fn boundaries_merge_samples_and_captures() {
        let cfg = quick_config();
        let db = IspDatabase::default();
        let acc = Accumulator::new(&cfg, db);
        // 2 days of 2-hour samples = 23 sample boundaries (excluding 0
        // and end), plus captures merged in (9am d1 is not on the
        // 2-hour grid? 9am = hour 33 → odd hour → inserted; 9pm d1 =
        // hour 45 → odd → inserted).
        assert!(acc.boundaries.windows(2).all(|w| w[0].time < w[1].time));
        let captures: Vec<_> = acc
            .boundaries
            .iter()
            .filter(|b| b.capture.is_some())
            .collect();
        assert_eq!(captures.len(), 2);
    }

    #[test]
    fn capture_on_the_sample_grid_merges_into_one_boundary() {
        // A capture that lands exactly on a periodic sample must not
        // produce two boundaries at the same instant.
        let mut cfg = quick_config();
        cfg.sample_every = SimDuration::from_hours(1);
        cfg.degree_captures = vec![("on-grid".into(), SimTime::at(0, 3, 0))];
        let acc = Accumulator::new(&cfg, IspDatabase::default());
        let at_3h: Vec<&Boundary> = acc
            .boundaries
            .iter()
            .filter(|b| b.time == SimTime::at(0, 3, 0))
            .collect();
        assert_eq!(at_3h.len(), 1);
        assert!(at_3h[0].sample);
        assert_eq!(at_3h[0].capture, Some(0));
    }

    #[test]
    fn captures_outside_the_window_are_dropped() {
        let mut cfg = quick_config();
        cfg.window_days = 1;
        cfg.degree_captures = vec![("too-late".into(), SimTime::at(5, 0, 0))];
        let acc = Accumulator::new(&cfg, IspDatabase::default());
        assert!(acc.boundaries.iter().all(|b| b.capture.is_none()));
    }

    #[test]
    fn recent_pair_selection() {
        use magellan_trace::BufferMap;
        use magellan_workload::ChannelId;
        let mk = |min: u64| PeerReport {
            time: SimTime::from_millis(min * 60_000),
            addr: PeerAddr::from_u32(1),
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 1000.0,
            upload_capacity_kbps: 500.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 0.0,
            partners: vec![],
        };
        let mut pair = RecentPair {
            newer: Arc::new(mk(20)),
            older: None,
        };
        pair.push(Arc::new(mk(30)));
        let horizon = SimDuration::from_mins(15);
        // At t=25 the newer (t=30) is in the future; fall back to 20.
        let sel = pair
            .select(SimTime::from_millis(25 * 60_000), horizon)
            .unwrap();
        assert_eq!(sel.time, SimTime::from_millis(20 * 60_000));
        // At t=31 the newer wins.
        let sel = pair
            .select(SimTime::from_millis(31 * 60_000), horizon)
            .unwrap();
        assert_eq!(sel.time, SimTime::from_millis(30 * 60_000));
        // At t=50 both are stale.
        assert!(pair
            .select(SimTime::from_millis(50 * 60_000), horizon)
            .is_none());
    }
}
