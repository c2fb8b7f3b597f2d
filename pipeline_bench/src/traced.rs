//! The traced run: each workload re-composed from the layers' public
//! functions with a span around every call, plus per-layer probes on
//! the workload's own reports. Yields the per-layer metrics; the
//! end-to-end ones are always measured with tracing off.
//!
//! The study composition mirrors `DurableStudy::drive` call for call
//! (cold start, same cadence, same order of gateway calls) and must
//! leave an archive byte-identical to the untraced run's — that
//! identity is what licenses attributing the untraced wall time to
//! these spans. `Accumulator` is not public, so the live analysis is
//! stood in for by a replay of the archive just written.

use crate::ingest::{self, schedule, Session, Step};
use crate::measure::{dir_bytes, dir_contents, median, write_spans_jsonl, Profile, Span, Tracer};
use crate::workloads::{
    check_ingest, check_study, cold_dir, cold_study, figure_body, ingest_input, metric,
    read_reports, timed, Checks, Env, Metric, Workload,
};
use magellan::analysis::durable::DurableStudy;
use magellan::analysis::graphs::{active_link_graph, NodeScope};
use magellan::analysis::study::{MagellanStudy, StudyConfig};
use magellan::graph::clustering::clustering_coefficient_csr;
use magellan::graph::kcore::core_decomposition_csr;
use magellan::graph::paths::{average_path_length_csr, PathSampling, PathTreatment};
use magellan::graph::reciprocity::garlaschelli_reciprocity_csr;
use magellan::graph::{Csr, DiGraph, IncrementalTopology};
use magellan::netsim::{IspDatabase, PeerAddr, SimDuration, SimTime};
use magellan::overlay::{OverlaySim, SimCheckpoint, SimSummary};
use magellan::trace::checkpoint::{prune_checkpoints, write_checkpoint};
use magellan::trace::codec::{encode_client_msg, frame, ClientMsg, FrameReader};
use magellan::trace::service::merge_sorted;
use magellan::trace::{
    shard_of, wire, ArchiveWriter, GatewayCore, PeerReport, ReportGateway, ReportUplink,
    ServerStats, ServiceCore, Shard, SnapshotBuilder, SubmitError, TraceStore, UplinkStats,
};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Root span of the traced measured phase; its self time is bench
/// glue and is excluded from `bench.trace_coverage`.
const MEASURED: &str = "bench.measured";

/// Mirrors `DurableStudy`'s uplink buffer.
const UPLINK_CAPACITY: usize = 1 << 16;

/// The bench-side admission pipeline: `GatewayCore::admit` in front of
/// `ArchiveWriter::append`, a span around each. Append errors cannot
/// surface through `SubmitError`; they are stashed and rethrown after
/// the tick, as the durable driver does.
struct BenchGateway<'a> {
    core: &'a mut GatewayCore,
    writer: &'a mut ArchiveWriter,
    tr: &'a Tracer,
    io_error: &'a mut Option<io::Error>,
}

impl ReportGateway for BenchGateway<'_> {
    fn submit_report(&mut self, report: PeerReport, now: SimTime) -> Result<(), SubmitError> {
        let tr = self.tr;
        if tr.span("trace.gateway.admit", || self.core.admit(&report, now))? {
            if let Err(e) = tr.span("trace.archive.append", || self.writer.append(&report)) {
                self.io_error.get_or_insert(e);
            }
        }
        Ok(())
    }
}

/// What the traced study composition observed besides its spans.
struct TracedStudy {
    dir: PathBuf,
    summary: SimSummary,
    server: ServerStats,
    uplink: UplinkStats,
    queue_peak: usize,
    flush_ns: u64,
    peer_ticks: u64,
    checkpoint: Option<SimCheckpoint>,
    checkpoint_bytes: usize,
    sealed_segments: u64,
}

/// Simulation → uplink → gateway → archive, with checkpoints at the
/// configured cadence, composed from public functions under spans.
fn traced_study(env: &Env, tr: &Tracer, dir: &Path) -> io::Result<TracedStudy> {
    cold_dir(dir)?;
    let cfg = env.study_config();
    let dcfg = env.durable_config();
    let study = DurableStudy::new(dir, cfg.clone(), dcfg.clone());
    let (archive_dir, ckpt_dir) = (study.archive_dir(), study.checkpoint_dir());
    std::fs::create_dir_all(&ckpt_dir)?;
    let fingerprint = study.fingerprint();
    let window_end = env.window_end();

    let scenario = tr.span("workload.scenario_build", || cfg.scenario());
    let mut sim = tr.span("overlay.new", || OverlaySim::new(scenario, cfg.sim.clone()));
    let mut writer = tr.span("trace.archive.create", || {
        ArchiveWriter::create(&archive_dir, dcfg.archive)
    })?;
    let mut core = GatewayCore::new(window_end, cfg.faults.server_outages.clone());
    let mut uplink = ReportUplink::new(UPLINK_CAPACITY);
    let mut state = tr.span("overlay.begin", || sim.begin());

    let every = dcfg.checkpoint_every_ticks.max(1);
    let mut io_error: Option<io::Error> = None;
    let mut emitted: Vec<PeerReport> = Vec::new();
    let (mut queue_peak, mut flush_ns, mut peer_ticks) = (0usize, 0u64, 0u64);
    let (mut checkpoint, mut checkpoint_bytes) = (None, 0usize);
    loop {
        let tick = state.next_tick();
        if tick > 0 && tick % every == 0 {
            tr.span("trace.archive.sync", || writer.sync())?;
            let ckpt = tr.span("overlay.checkpoint_capture", || sim.capture(&state));
            let body = tr.span("overlay.checkpoint_encode", || ckpt.encode());
            tr.span("trace.checkpoint.write", || -> io::Result<()> {
                write_checkpoint(&ckpt_dir, fingerprint, tick, &body)?;
                prune_checkpoints(&ckpt_dir, dcfg.keep_checkpoints.max(1))
            })?;
            checkpoint_bytes = body.len();
            checkpoint = Some(ckpt);
        }
        let more = tr
            .span("overlay.tick", || {
                sim.tick_once(&mut state, &mut |r: PeerReport| emitted.push(r))
            })
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        peer_ticks += sim.live_peers() as u64;
        let mut gw = BenchGateway {
            core: &mut core,
            writer: &mut writer,
            tr,
            io_error: &mut io_error,
        };
        for r in emitted.drain(..) {
            let now = r.time;
            let before = uplink.stats().retransmitted;
            let t = Instant::now();
            tr.span("trace.uplink.send_via", || uplink.send_via(r, now, &mut gw));
            if uplink.stats().retransmitted > before {
                flush_ns += t.elapsed().as_nanos() as u64;
            }
            queue_peak = queue_peak.max(uplink.pending());
        }
        if let Some(e) = io_error.take() {
            return Err(e);
        }
        if !more {
            break;
        }
    }
    let mut gw = BenchGateway {
        core: &mut core,
        writer: &mut writer,
        tr,
        io_error: &mut io_error,
    };
    let t = Instant::now();
    tr.span("trace.uplink.flush_via", || {
        uplink.flush_via(window_end, &mut gw)
    });
    flush_ns += t.elapsed().as_nanos() as u64;
    if let Some(e) = io_error.take() {
        return Err(e);
    }
    let archived = tr.span("trace.archive.finish", || writer.finish())?;
    Ok(TracedStudy {
        dir: dir.to_path_buf(),
        summary: *state.summary(),
        server: core.stats(),
        uplink: uplink.stats(),
        queue_peak,
        flush_ns,
        peer_ticks,
        checkpoint,
        checkpoint_bytes,
        sealed_segments: archived.sealed_segments,
    })
}

/// The spans under (and including) the first span named `root`,
/// re-indexed so they form a span set of their own.
fn subtree(spans: &[Span], root: &str) -> Vec<Span> {
    let mut new_index: Vec<Option<u32>> = vec![None; spans.len()];
    let mut out = Vec::new();
    let mut found = false;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.and_then(|p| new_index[p as usize]);
        let is_root = !found && s.name == root;
        if is_root || parent.is_some() {
            found |= is_root;
            new_index[i] = Some(out.len() as u32);
            out.push(Span { parent, ..*s });
        }
    }
    out
}

/// Engine-facing snapshot of one topology: sorted node keys and
/// `(from, to, weight)` edges in ascending `(from, to)` order — what
/// `IncrementalTopology::sync_snapshot` takes and the study feeds it.
fn graph_snapshot(g: &DiGraph<PeerAddr>) -> (Vec<u32>, Vec<(u32, u32, u64)>) {
    let mut nodes: Vec<u32> = g.nodes().map(|(_, k)| k.as_u32()).collect();
    nodes.sort_unstable();
    let mut edges: Vec<(u32, u32, u64)> = g
        .edges()
        .map(|e| (g.key(e.from).as_u32(), g.key(e.to).as_u32(), e.weight))
        .collect();
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    (nodes, edges)
}

/// The periodic sample instants of `cfg`.
fn sample_instants(cfg: &StudyConfig) -> Vec<SimTime> {
    let end = SimTime::at(cfg.window_days, 0, 0);
    let mut out = Vec::new();
    let mut t = SimTime::ORIGIN + cfg.sample_every;
    while t < end {
        out.push(t);
        t += cfg.sample_every;
    }
    out
}

/// Counts the probes produce that spans cannot carry.
#[derive(Default)]
struct ProbeCounts {
    reports: usize,
    archive_bytes: u64,
    wire_bytes: usize,
    late_reports: usize,
    stable_peers: Vec<f64>,
    nodes: Vec<f64>,
    edges: Vec<f64>,
    boundaries: usize,
    par_workers: usize,
    par_queue_depth: usize,
}

const PAR_DISPATCHES: usize = 1000;

/// Archive, wire, codec, shard and service probes over `reports`.
fn probe_trace_layers(env: &Env, tr: &Tracer, reports: &[PeerReport], counts: &mut ProbeCounts) {
    let window_end = env.window_end();
    let payloads = tr.span("trace.wire.encode", || {
        reports.iter().map(wire::encode).collect::<Vec<_>>()
    });
    counts.wire_bytes = payloads.iter().map(|p| p.len()).sum();
    tr.span("trace.wire.decode", || {
        for p in &payloads {
            let mut buf: &[u8] = p;
            black_box(wire::decode(&mut buf).is_ok());
        }
    });

    // The TCP framing a connection carries, re-read in MTU-sized
    // chunks as a socket would deliver it.
    let stream = tr.span("trace.codec.frame", || {
        let mut stream = Vec::with_capacity(counts.wire_bytes + 16 * payloads.len());
        for (seq, payload) in payloads.iter().enumerate() {
            let msg = ClientMsg::Report {
                seq: seq as u64,
                payload: payload.clone(),
            };
            stream.extend_from_slice(&frame(&encode_client_msg(&msg)));
        }
        stream
    });
    tr.span("trace.codec.read_frame", || {
        let mut reader = FrameReader::new();
        let mut frames = 0usize;
        for chunk in stream.chunks(1500) {
            reader.extend(chunk);
            while let Ok(Some(f)) = reader.next_frame() {
                black_box(f);
                frames += 1;
            }
        }
        assert_eq!(frames, payloads.len(), "frame reader lost frames");
    });

    // One shard: every report fresh, then every report again (dedup),
    // then a drain, then history from behind the sealed frontier whose
    // dedup entries the drain pruned (late).
    let mut shard = Shard::new(window_end, usize::MAX);
    tr.span("trace.shard.ingest_fresh", || {
        for p in &payloads {
            black_box(shard.ingest_wire(p));
        }
    });
    tr.span("trace.shard.ingest_dup", || {
        for p in &payloads {
            black_box(shard.ingest_wire(p));
        }
    });
    tr.span("trace.shard.drain", || {
        black_box(shard.drain_below(window_end))
    });
    let horizon = window_end - magellan::trace::shard::DEDUP_RETENTION;
    let late: Vec<&[u8]> = reports
        .iter()
        .zip(&payloads)
        .filter(|(r, _)| r.time < horizon)
        .map(|(_, p)| &p[..])
        .collect();
    counts.late_reports = late.len();
    tr.span("trace.shard.ingest_late", || {
        for p in &late {
            black_box(shard.ingest_wire(p));
        }
    });

    // The whole session through the sans-I/O service core: what the
    // socket shell would cost if sockets and threads were free.
    let plan = env.session_plan();
    let clients = plan.clients as u32;
    tr.span("trace.service.core_session", || {
        let mut core = ServiceCore::new(window_end, plan.shards, 1 << 16, clients);
        for client_id in 0..clients {
            core.handle(&ClientMsg::Hello { client_id, clients });
        }
        let mark_all = |core: &mut ServiceCore, up_to: SimTime| {
            for client_id in 0..clients {
                black_box(core.handle(&ClientMsg::WindowMark { client_id, up_to }));
            }
        };
        let mut sent = payloads.iter().enumerate();
        for step in schedule(reports, plan.mark_every) {
            match step {
                Step::Mark(at) => mark_all(&mut core, at),
                Step::Report(_) => {
                    let (seq, payload) = sent.next().expect("one payload per report");
                    black_box(core.handle(&ClientMsg::Report {
                        seq: seq as u64,
                        payload: payload.clone(),
                    }));
                }
            }
        }
        mark_all(&mut core, window_end);
        for client_id in 0..clients {
            core.handle(&ClientMsg::Finish { client_id, sent: 0 });
        }
        black_box(core.finalize());
    });
    // The window merge alone: per-shard sorted batches of one mark
    // interval each, merged as the coordinator does.
    let mut windows = vec![vec![Vec::new(); plan.shards]];
    for step in schedule(reports, plan.mark_every) {
        match step {
            Step::Mark(_) => windows.push(vec![Vec::new(); plan.shards]),
            Step::Report(r) => {
                let current = windows.last_mut().expect("starts with one window");
                current[shard_of(r.addr, plan.shards)].push(r.clone());
            }
        }
    }
    tr.span("trace.service.merge", || {
        for batches in windows {
            black_box(merge_sorted(batches));
        }
    });
}

/// Store, snapshot, graph, analysis and par probes over `reports`,
/// sampled at `cfg`'s instants.
fn probe_analysis_layers(
    tr: &Tracer,
    cfg: &StudyConfig,
    store: &TraceStore,
    counts: &mut ProbeCounts,
) {
    let builder = SnapshotBuilder::new(store).staleness(SimDuration::from_mins(15));
    let mut inc = IncrementalTopology::new();
    let instants = sample_instants(cfg);
    counts.boundaries = instants.len();
    for at in instants {
        let snap = tr.span("trace.snapshot.build", || builder.at(at));
        counts.stable_peers.push(snap.stable_count() as f64);
        if snap.stable_count() < cfg.min_graph_nodes {
            continue;
        }
        let g = tr.span("analysis.graphs.active_link", || {
            active_link_graph(snap.reports(), NodeScope::StableOnly)
        });
        let csr = tr.span("graph.csr_build", || Csr::from_digraph(&g));
        counts.nodes.push(csr.node_count() as f64);
        counts.edges.push(csr.edge_count() as f64);
        tr.span("graph.clustering", || {
            black_box(clustering_coefficient_csr(&csr))
        });
        tr.span("graph.apl64", || {
            let sampling = PathSampling::Sources { count: 64, seed: 5 };
            black_box(average_path_length_csr(
                &csr,
                PathTreatment::Undirected,
                sampling,
            ))
        });
        tr.span("graph.reciprocity", || {
            black_box(garlaschelli_reciprocity_csr(&csr).ok())
        });
        tr.span("graph.kcore", || black_box(core_decomposition_csr(&csr)));
        let (nodes, edges) = graph_snapshot(&g);
        tr.span("graph.incremental.sync", || {
            black_box(inc.sync_snapshot(&nodes, &edges))
        });
        tr.span("graph.incremental.rebuild", || {
            black_box(IncrementalTopology::from_snapshot(&nodes, &edges))
        });
    }
    tr.span("par.dispatch", || {
        for i in 0..PAR_DISPATCHES {
            black_box(magellan::par::join(|| black_box(i), || black_box(i + 1)));
        }
    });
    let pool = magellan::par::pool_stats();
    counts.par_workers = pool.workers;
    counts.par_queue_depth = pool.queue_depth;
}

/// `read_archive` → `TraceStore::push` → `analyze_trace` → render:
/// the replay composed from public functions. Returns the rendered
/// report, the reports and the store for the probes to reuse.
fn traced_replay(
    tr: &Tracer,
    dir: &Path,
    cfg: &StudyConfig,
) -> io::Result<(String, Vec<PeerReport>, TraceStore)> {
    let (reports, _) = tr.span("trace.archive.scan", || read_reports(dir))?;
    let mut store = TraceStore::new();
    tr.span("trace.store.push", || {
        for r in &reports {
            store.push(r.clone());
        }
    });
    let db = IspDatabase::synthetic(cfg.sim.isp_shares);
    let report = tr.span("analysis.analyze_trace", || {
        MagellanStudy::new(cfg.clone()).analyze_trace(&store, &db)
    });
    let text = tr.span("analysis.figures.render", || report.render_text());
    Ok((text, reports, store))
}

/// Wall of one replay of the archive under `dir` at the dense
/// cadence: the minuend of `analysis.sample_ms`.
fn dense_replay_wall(env: &Env, dir: &Path) -> io::Result<f64> {
    let study = DurableStudy::new(dir, env.dense_config(), env.durable_config());
    let (report, wall) = timed(|| study.analyze_archive());
    report.map(|_| wall)
}

/// A replay that finalizes no boundary: scan + decode + accumulate.
fn zero_boundary_replay(tr: &Tracer, env: &Env, dir: &Path) -> io::Result<()> {
    let cfg = StudyConfig {
        sample_every: SimDuration::from_days(env.sizes.days),
        degree_captures: vec![],
        ..env.study_config()
    };
    let study = DurableStudy::new(dir, cfg, env.durable_config());
    tr.span("analysis.replay_zero", || study.analyze_archive())?;
    Ok(())
}

/// Runs the workload traced; returns every per-layer metric and the
/// number of operations the measured phase performed.
pub fn run_traced(env: &Env, checks: &mut Checks) -> io::Result<(Vec<Metric>, u64)> {
    let tr = Tracer::new(Instant::now(), true);
    let off = Tracer::new(Instant::now(), false);
    let dense = env.dense_config();
    let plan = env.session_plan();

    // Phase 1: the untraced reference and the traced measured phase.
    let composed: TracedStudy;
    let untraced_wall: f64;
    let sampled_replay_s: f64;
    let ops_total: u64;
    let mut measured_session: Option<Session> = None;
    let replayed: (String, Vec<PeerReport>, TraceStore);
    match env.workload {
        Workload::StudyFlash | Workload::StudyOutage => {
            let reference_dir = env.run_dir.join("reference");
            let (live, wall) = cold_study(env, &reference_dir)?;
            untraced_wall = wall;
            let (study, analysis) = tr.span(MEASURED, || -> io::Result<_> {
                let study = traced_study(env, &tr, &env.run_dir.join("traced"))?;
                let cfg = env.study_config();
                let durable = DurableStudy::new(&study.dir, cfg, env.durable_config());
                let analysis = tr.span("analysis.replay", || durable.analyze_archive())?;
                Ok((study, analysis))
            })?;
            check_study(env, &live, &analysis, checks);
            sampled_replay_s = dense_replay_wall(env, &study.dir)?;
            checks.check(
                "traced composition wrote an archive byte-identical to DurableStudy::run's",
                dir_contents(&reference_dir.join("archive"))?
                    == dir_contents(&study.dir.join("archive"))?,
            );
            checks.check(
                "traced composition reproduced the simulator summary",
                study.summary == live.sim,
            );
            std::fs::remove_dir_all(&reference_dir)?;
            ops_total = study.summary.reports;
            replayed = traced_replay(&tr, &study.dir, &dense)?;
            composed = study;
        }
        Workload::ReplayDense => {
            composed = tr.span("bench.setup", || {
                traced_study(env, &tr, &env.run_dir.join("fixture"))
            })?;
            let durable = DurableStudy::new(&composed.dir, dense.clone(), env.durable_config());
            let (reference, wall) = timed(|| durable.analyze_archive());
            let reference = reference?;
            untraced_wall = wall;
            sampled_replay_s = wall;
            replayed = tr.span(MEASURED, || traced_replay(&tr, &composed.dir, &dense))?;
            let recovery = reference.recovery.clone().expect("replay reports recovery");
            ops_total = recovery.records_recovered;
            checks.check("fixture archive replays clean", recovery.is_clean());
            checks.check(
                "replayed records equal the reports the fixture admitted",
                recovery.records_recovered == composed.server.accepted,
            );
            checks.check(
                "analyze_trace over the scanned archive renders analyze_archive's figure body",
                figure_body(&replayed.0) == figure_body(&reference.render_text()),
            );
        }
        Workload::IngestTcp => {
            composed = tr.span("bench.setup", || {
                traced_study(env, &tr, &env.run_dir.join("fixture"))
            })?;
            let input = ingest_input(&composed.dir)?;
            let dir = env.run_dir.join("ingested");
            cold_dir(&dir)?;
            untraced_wall =
                ingest::run_session(&env.traced_bin, &dir, &plan, &input.reports, &off)?.wall_s;
            cold_dir(&dir)?;
            let session = tr.span(MEASURED, || {
                ingest::run_session(&env.traced_bin, &dir, &plan, &input.reports, &tr)
            })?;
            check_ingest(env, &input, &dir, &session, checks)?;
            sampled_replay_s = dense_replay_wall(env, &composed.dir)?;
            ops_total = session.offered;
            measured_session = Some(session);
            replayed = traced_replay(&tr, &composed.dir, &dense)?;
        }
    }
    let (report_text, reports, store) = replayed;
    black_box(report_text);

    // Phase 2: per-layer probes on the workload's own reports.
    let mut counts = ProbeCounts {
        reports: reports.len(),
        archive_bytes: dir_bytes(&composed.dir.join("archive"))?,
        ..ProbeCounts::default()
    };
    tr.span("bench.probes", || -> io::Result<()> {
        zero_boundary_replay(&tr, env, &composed.dir)?;
        probe_trace_layers(env, &tr, &reports, &mut counts);
        probe_analysis_layers(&tr, &dense, &store, &mut counts);
        if let Some(ckpt) = &composed.checkpoint {
            let cfg = env.study_config();
            tr.span("overlay.resume", || {
                black_box(OverlaySim::resume(cfg.scenario(), cfg.sim.clone(), ckpt));
            });
        }
        Ok(())
    })?;

    // Phase 3: the socket shell seen from the client — the measured
    // session on ingest_tcp, a short probe session elsewhere.
    let session = match measured_session {
        Some(s) => s,
        None => {
            let cut = SimTime::at(0, env.sizes.shell_probe_hours, 0);
            let prefix = &reports[..reports.partition_point(|r| r.time < cut)];
            let dir = env.run_dir.join("shell-probe");
            cold_dir(&dir)?;
            tr.span("bench.shell_probe", || {
                ingest::run_session(&env.traced_bin, &dir, &plan, prefix, &tr)
            })?
        }
    };

    let spans = tr.into_spans();
    std::fs::create_dir_all(&env.out_dir)?;
    let spans_path = env
        .out_dir
        .join(format!("{}.spans.jsonl", env.workload.name()));
    write_spans_jsonl(&spans_path, env.workload.name(), &spans)?;
    eprintln!("wrote {} spans to {}", spans.len(), spans_path.display());

    let all = Profile::of(&spans);
    let measured = Profile::of(&subtree(&spans, MEASURED));
    // Generator threads run in parallel: their self times sum to up
    // to `clients` times the wall.
    let lanes = match env.workload {
        Workload::IngestTcp => plan.clients as f64,
        _ => 1.0,
    };
    let traced_wall = measured.total_s(MEASURED);
    let bench = Derived {
        ops_total,
        overhead_ratio: traced_wall / untraced_wall,
        coverage: measured.layer_self_s(MEASURED) / (untraced_wall * lanes),
        sampled_replay_s,
    };
    Ok((
        derive_metrics(&all, &composed, &counts, &session, &bench),
        ops_total,
    ))
}

/// The `bench.*` values and the one wall the analysis rows need.
struct Derived {
    ops_total: u64,
    overhead_ratio: f64,
    coverage: f64,
    sampled_replay_s: f64,
}

fn derive_metrics(
    p: &Profile,
    study: &TracedStudy,
    counts: &ProbeCounts,
    session: &Session,
    bench: &Derived,
) -> Vec<Metric> {
    let n = counts.reports.max(1) as f64;
    let per_report_ns = |name: &str| p.total_s(name) * 1e9 / n;
    let ms = |name: &str| p.total_s(name) * 1e3;
    let note_n = |name: &str| format!("n={}", p.count(name));
    let med = |name: &str| p.dist(name, 1e6, 50.0).p50;
    let med_of = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let mb = counts.archive_bytes as f64 / 1e6;

    let tick = p.dist("overlay.tick", 1e6, 95.0);
    let send = p.dist("trace.uplink.send_report", 1e3, 99.0);
    let mark = p.dist("trace.uplink.mark", 1e6, 95.0);
    let busy_s = p.total_s("overlay.tick");
    let write_s = p.total_s("trace.archive.create")
        + p.total_s("trace.archive.append")
        + p.total_s("trace.archive.sync")
        + p.total_s("trace.archive.finish");
    let scan_s = p.total_s("trace.archive.scan");
    let zero_s = p.total_s("analysis.replay_zero");
    let core_rps = n / p.total_s("trace.service.core_session");
    let shell_rps = session.offered as f64 / session.wall_s;
    let graphs = format!("median of {} graphs", counts.nodes.len());
    let meaningful = if magellan::par::host_cores() == 1 {
        "meaningful=false (1 core)"
    } else {
        "meaningful=true"
    };

    vec![
        metric(
            "workload.scenario_build_ms",
            ms("workload.scenario_build"),
            "ms",
            "n=1",
        ),
        metric("workload.joins", study.summary.joins as f64, "count", ""),
        metric("overlay.busy_s", busy_s, "s", note_n("overlay.tick")),
        metric(
            "overlay.tick_p50_ms",
            tick.p50,
            "ms",
            format!("n={}", tick.n),
        ),
        metric(
            "overlay.tick_p95_ms",
            tick.tail,
            "ms",
            format!("n={} read at p{}", tick.n, tick.tail_p),
        ),
        metric(
            "overlay.peer_ticks_per_s",
            study.peer_ticks as f64 / busy_s,
            "1/s",
            format!("base {} peer-ticks", study.peer_ticks),
        ),
        metric(
            "overlay.reports_emitted",
            study.summary.reports as f64,
            "count",
            "",
        ),
        metric(
            "overlay.checkpoint_encode_ms",
            p.mean_ns("overlay.checkpoint_encode") / 1e6,
            "ms",
            note_n("overlay.checkpoint_encode"),
        ),
        metric(
            "overlay.checkpoint_bytes",
            study.checkpoint_bytes as f64,
            "bytes",
            "",
        ),
        metric(
            "overlay.resume_ms",
            ms("overlay.resume"),
            "ms",
            note_n("overlay.resume"),
        ),
        metric(
            "trace.gateway.admit_ns",
            p.mean_ns("trace.gateway.admit"),
            "ns",
            note_n("trace.gateway.admit"),
        ),
        metric(
            "trace.gateway.bounced",
            study.server.unavailable as f64,
            "count",
            "",
        ),
        metric(
            "trace.gateway.deduped",
            study.server.duplicates as f64,
            "count",
            "",
        ),
        metric(
            "trace.uplink.queue_peak",
            study.queue_peak as f64,
            "count",
            "",
        ),
        metric(
            "trace.uplink.flush_ms",
            study.flush_ns as f64 / 1e6,
            "ms",
            "",
        ),
        metric(
            "trace.uplink.retransmitted",
            study.uplink.retransmitted as f64,
            "count",
            "",
        ),
        metric(
            "trace.wire.encode_ns",
            per_report_ns("trace.wire.encode"),
            "ns",
            format!("n={n}"),
        ),
        metric(
            "trace.wire.decode_ns",
            per_report_ns("trace.wire.decode"),
            "ns",
            format!("n={n}"),
        ),
        metric(
            "trace.wire.bytes_per_report",
            counts.wire_bytes as f64 / n,
            "bytes",
            "",
        ),
        metric(
            "trace.codec.frame_ns",
            per_report_ns("trace.codec.frame"),
            "ns",
            format!("n={n}"),
        ),
        metric(
            "trace.codec.read_frame_ns",
            per_report_ns("trace.codec.read_frame"),
            "ns",
            format!("n={n}, 1500-byte chunks"),
        ),
        metric(
            "trace.shard.ingest_fresh_ns",
            per_report_ns("trace.shard.ingest_fresh"),
            "ns",
            format!("n={n}"),
        ),
        metric(
            "trace.shard.ingest_dup_ns",
            per_report_ns("trace.shard.ingest_dup"),
            "ns",
            format!("n={n}"),
        ),
        metric(
            "trace.shard.ingest_late_ns",
            p.total_s("trace.shard.ingest_late") * 1e9 / counts.late_reports.max(1) as f64,
            "ns",
            format!("n={}", counts.late_reports),
        ),
        metric(
            "trace.shard.drain_ns_per_report",
            per_report_ns("trace.shard.drain"),
            "ns",
            format!("n={n}"),
        ),
        metric(
            "trace.service.merge_ns_per_report",
            per_report_ns("trace.service.merge"),
            "ns",
            format!("n={n}"),
        ),
        metric(
            "trace.service.core_reports_per_s",
            core_rps,
            "1/s",
            format!("base {n} reports"),
        ),
        metric(
            "trace.archive.append_ns",
            p.mean_ns("trace.archive.append"),
            "ns",
            note_n("trace.archive.append"),
        ),
        metric(
            "trace.archive.sync_ms",
            p.mean_ns("trace.archive.sync") / 1e6,
            "ms",
            note_n("trace.archive.sync"),
        ),
        metric(
            "trace.archive.write_mb_per_s",
            mb / write_s,
            "MB/s",
            format!("base {mb:.1} MB"),
        ),
        metric(
            "trace.archive.scan_mb_per_s",
            mb / scan_s,
            "MB/s",
            format!("base {mb:.1} MB"),
        ),
        metric(
            "trace.archive.bytes_per_report",
            counts.archive_bytes as f64 / n,
            "bytes",
            "",
        ),
        metric(
            "trace.archive.segments",
            study.sealed_segments as f64,
            "count",
            "",
        ),
        metric(
            "trace.checkpoint.write_ms",
            p.mean_ns("trace.checkpoint.write") / 1e6,
            "ms",
            note_n("trace.checkpoint.write"),
        ),
        metric(
            "trace.store.push_ns",
            per_report_ns("trace.store.push"),
            "ns",
            format!("n={n}"),
        ),
        metric(
            "trace.snapshot.build_ms",
            med("trace.snapshot.build"),
            "ms",
            note_n("trace.snapshot.build"),
        ),
        metric(
            "trace.snapshot.stable_peers",
            med_of(&counts.stable_peers),
            "count",
            format!("median of {} snapshots", counts.stable_peers.len()),
        ),
        metric(
            "graph.nodes",
            med_of(&counts.nodes),
            "count",
            graphs.clone(),
        ),
        metric(
            "graph.edges",
            med_of(&counts.edges),
            "count",
            graphs.clone(),
        ),
        metric(
            "graph.csr_build_ms",
            med("graph.csr_build"),
            "ms",
            graphs.clone(),
        ),
        metric(
            "graph.clustering_ms",
            med("graph.clustering"),
            "ms",
            graphs.clone(),
        ),
        metric("graph.apl64_ms", med("graph.apl64"), "ms", graphs.clone()),
        metric(
            "graph.reciprocity_ms",
            med("graph.reciprocity"),
            "ms",
            graphs.clone(),
        ),
        metric("graph.kcore_ms", med("graph.kcore"), "ms", graphs.clone()),
        metric(
            "graph.incremental.sync_ms",
            med("graph.incremental.sync"),
            "ms",
            graphs.clone(),
        ),
        metric(
            "graph.incremental.rebuild_ms",
            med("graph.incremental.rebuild"),
            "ms",
            graphs.clone(),
        ),
        metric(
            "analysis.accumulate_ns_per_report",
            (zero_s - scan_s) * 1e9 / n,
            "ns",
            format!("zero-boundary replay {zero_s:.3} s minus bare scan {scan_s:.3} s, n={n}"),
        ),
        metric(
            "analysis.sample_ms",
            (bench.sampled_replay_s - zero_s) * 1e3 / counts.boundaries.max(1) as f64,
            "ms",
            format!(
                "sampled replay {:.3} s minus zero-boundary, {} boundaries",
                bench.sampled_replay_s, counts.boundaries
            ),
        ),
        metric(
            "analysis.graphs.active_link_ms",
            med("analysis.graphs.active_link"),
            "ms",
            graphs,
        ),
        metric(
            "analysis.analyze_trace_s",
            p.total_s("analysis.analyze_trace"),
            "s",
            "n=1",
        ),
        metric(
            "analysis.figures.render_ms",
            ms("analysis.figures.render"),
            "ms",
            "n=1",
        ),
        metric(
            "par.workers",
            counts.par_workers as f64,
            "count",
            meaningful,
        ),
        metric(
            "par.queue_depth_end",
            counts.par_queue_depth as f64,
            "count",
            meaningful,
        ),
        metric(
            "par.dispatch_ns",
            p.total_s("par.dispatch") * 1e9 / PAR_DISPATCHES as f64,
            "ns",
            format!("n={PAR_DISPATCHES} joins, {meaningful}"),
        ),
        metric(
            "traced.spawn_to_listen_ms",
            session.spawn_to_listen_ms,
            "ms",
            "n=1",
        ),
        metric(
            "trace.uplink.send_p50_us",
            send.p50,
            "us",
            format!("n={}", send.n),
        ),
        metric(
            "trace.uplink.send_p99_us",
            send.tail,
            "us",
            format!("n={} read at p{}", send.n, send.tail_p),
        ),
        metric(
            "trace.uplink.mark_p50_ms",
            mark.p50,
            "ms",
            format!("n={}", mark.n),
        ),
        metric(
            "trace.uplink.mark_p95_ms",
            mark.tail,
            "ms",
            format!("n={} read at p{}", mark.n, mark.tail_p),
        ),
        metric(
            "traced.finish_to_exit_ms",
            session.finish_to_exit_ms,
            "ms",
            "n=1",
        ),
        metric(
            "traced.windows_sealed",
            session.stats.merges as f64,
            "count",
            "",
        ),
        metric(
            "traced.admitted",
            session.stats.admitted as f64,
            "count",
            "",
        ),
        metric("traced.deduped", session.stats.deduped as f64, "count", ""),
        metric("traced.shed", session.stats.shed() as f64, "count", ""),
        metric(
            "traced.rate_limited",
            session.stats.rate_limited as f64,
            "count",
            "",
        ),
        metric("traced.evicted", session.stats.evicted as f64, "count", ""),
        metric(
            "trace.uplink.reconnects",
            session.reconnects as f64,
            "count",
            "",
        ),
        metric(
            "traced.shell_overhead_ratio",
            core_rps / shell_rps,
            "ratio",
            format!("core {core_rps:.0}/s over shell {shell_rps:.0}/s"),
        ),
        metric("bench.ops_total", bench.ops_total as f64, "count", ""),
        metric(
            "bench.fail_ratio",
            crate::measure::fail_ratio(
                study.server.accepted,
                study.summary.reports + study.summary.faults.reports_lost,
            ),
            "ratio",
            format!(
                "1 - {} accepted / ({} emitted + {} lost in flight)",
                study.server.accepted, study.summary.reports, study.summary.faults.reports_lost
            ),
        ),
        metric(
            "bench.trace_overhead_ratio",
            bench.overhead_ratio,
            "ratio",
            "traced / untraced wall",
        ),
        metric(
            "bench.trace_coverage",
            bench.coverage,
            "ratio",
            "sum of layer self times / untraced wall",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtree_keeps_the_root_and_its_descendants_only() {
        let s = |name, start, end, parent| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        };
        let spans = [
            s("bench.setup", 0, 10, None),
            s("overlay.tick", 1, 9, Some(0)),
            s(MEASURED, 10, 50, None),
            s("trace.archive.scan", 11, 20, Some(2)),
            s("analysis.analyze_trace", 20, 45, Some(2)),
            s("bench.probes", 50, 60, None),
            s("overlay.tick", 51, 52, Some(5)),
        ];
        let sub = subtree(&spans, MEASURED);
        let shape: Vec<_> = sub.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                (MEASURED, None),
                ("trace.archive.scan", Some(0)),
                ("analysis.analyze_trace", Some(0)),
            ]
        );
        let p = Profile::of(&sub);
        assert_eq!(p.layer_self_s(MEASURED), 34e-9);
        assert_eq!(p.total_s(MEASURED), 40e-9);
    }
}
