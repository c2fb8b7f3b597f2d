//! The four workloads: their configurations, their untraced
//! (end-to-end) runs, and the output checks every run must pass.
//!
//! All four are closed-loop, time-to-result workloads over the public
//! drivers a user calls (`DurableStudy::run`, `analyze_archive`, the
//! `magellan-traced serve` binary). The seed is the only input; sizes
//! are fixed in [`Sizes`] and recorded in `BASELINE.json`.

use crate::ingest::{self, SessionPlan};
use crate::measure::{dir_bytes, fastest, median, peak_rss_mb, Tracer};
use magellan::analysis::durable::{DurableConfig, DurableStudy};
use magellan::analysis::figures::StudyReport;
use magellan::analysis::study::StudyConfig;
use magellan::netsim::{SimDuration, SimTime};
use magellan::trace::archive::read_archive;
use magellan::trace::{ArchiveConfig, PeerReport};
use magellan::workload::{ChannelId, FaultPlan, FlashCrowd};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sim-dominated study with a flash crowd and archive writes.
    StudyFlash,
    /// The same driver under the combined fault schedule.
    StudyOutage,
    /// Archive replay at a dense sampling cadence; no simulation.
    ReplayDense,
    /// Loopback TCP ingest through the real `magellan-traced serve`.
    IngestTcp,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::StudyFlash,
        Workload::StudyOutage,
        Workload::ReplayDense,
        Workload::IngestTcp,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyFlash => "study_flash",
            Workload::StudyOutage => "study_outage",
            Workload::ReplayDense => "replay_dense",
            Workload::IngestTcp => "ingest_tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed sizes of a benchmark run. Why these: see README.md
/// ("How the workloads were sized").
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Population scale (1.0 ≈ 100k concurrent peers) of the fixture
    /// `replay_dense` and `ingest_tcp` run on: built once per run.
    pub scale: f64,
    /// Population scale of the `study_*` measured phase: small enough
    /// that several passes fit a run (one pass at `scale` takes
    /// 16–20 s and read 12–24 % apart between runs on the reference
    /// host).
    pub study_scale: f64,
    /// Study window in days.
    pub days: u64,
    /// Figure sampling cadence of the studies and the fixture.
    pub sample_mins: u64,
    /// Sampling cadence of the `replay_dense` measured phase.
    pub dense_sample_mins: u64,
    /// Simulated minutes between `NetUplink::mark` barriers.
    pub mark_mins: u64,
    /// Durable checkpoint cadence: one checkpoint lands inside a
    /// one-day (288-tick) study, as one did in the two-day study at
    /// the library's default of 512.
    pub checkpoint_every_ticks: u64,
    /// Scale of the warm-up study the `study_*` set-up runs.
    pub warmup_scale: f64,
    /// Passes every workload measures at least.
    pub min_passes: usize,
    /// Simulated hours of reports the traced run's shell probe sends
    /// on workloads other than `ingest_tcp` (which sends them all).
    pub shell_probe_hours: u64,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` is measured at.
    pub const FULL: Sizes = Sizes {
        scale: 0.02,
        study_scale: 0.005,
        days: 1,
        sample_mins: 60,
        dense_sample_mins: 10,
        mark_mins: 10,
        checkpoint_every_ticks: 256,
        warmup_scale: 0.001,
        min_passes: 3,
        shell_probe_hours: 4,
    };

    /// `--smoke`: the same shape in seconds, for `cargo test`. Marks
    /// are two simulated hours apart: at this scale a session is
    /// nothing but barrier stalls, and a smoke run has seconds.
    pub const SMOKE: Sizes = Sizes {
        scale: 0.001,
        study_scale: 0.001,
        mark_mins: 120,
        ..Sizes::FULL
    };
}

/// Everything one run needs to know.
#[derive(Debug)]
pub struct Env {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the measured phase lasts at least (whole passes).
    pub seconds: f64,
    /// Workload sizes.
    pub sizes: Sizes,
    /// Scratch directory of this run (removed on success).
    pub run_dir: PathBuf,
    /// Where `<workload>.spans.jsonl` is written.
    pub out_dir: PathBuf,
    /// The `magellan-traced` binary to spawn.
    pub traced_bin: PathBuf,
}

impl Env {
    /// End of the study window.
    pub fn window_end(&self) -> SimTime {
        SimTime::at(self.sizes.days, 0, 0)
    }

    /// Population scale of the study this workload simulates.
    pub fn scale(&self) -> f64 {
        match self.workload {
            Workload::StudyFlash | Workload::StudyOutage => self.sizes.study_scale,
            Workload::ReplayDense | Workload::IngestTcp => self.sizes.scale,
        }
    }

    /// The study this workload simulates: its measured phase for the
    /// `study_*` workloads, its fixture for the other two.
    pub fn study_config(&self) -> StudyConfig {
        let last = self.sizes.days - 1;
        let mut cfg = StudyConfig {
            seed: self.seed,
            scale: self.scale(),
            window_days: self.sizes.days,
            sample_every: SimDuration::from_mins(self.sizes.sample_mins),
            degree_captures: vec![
                ("9am".into(), SimTime::at(last, 9, 0)),
                ("9pm".into(), SimTime::at(last, 21, 0)),
            ],
            flash_crowds: Some(vec![]),
            ..StudyConfig::default()
        };
        match self.workload {
            Workload::StudyFlash => cfg.flash_crowds = Some(vec![self.flash_crowd()]),
            Workload::StudyOutage => cfg.faults = FaultPlan::combined_stress(last),
            Workload::ReplayDense | Workload::IngestTcp => {}
        }
        cfg
    }

    /// The `study_flash` crowd: CCTV1, ×2.2, peaking at 21:00 of the
    /// last day on top of the diurnal peak.
    pub fn flash_crowd(&self) -> FlashCrowd {
        FlashCrowd {
            peak: SimTime::at(self.sizes.days - 1, 21, 0),
            ramp_up: SimDuration::from_mins(60),
            decay: SimDuration::from_mins(90),
            magnitude: 2.2,
            channels: vec![ChannelId::CCTV1],
        }
    }

    /// `study_config` resampled at the dense replay cadence.
    pub fn dense_config(&self) -> StudyConfig {
        StudyConfig {
            sample_every: SimDuration::from_mins(self.sizes.dense_sample_mins),
            ..self.study_config()
        }
    }

    /// Durability knobs: library defaults except the cadence above.
    pub fn durable_config(&self) -> DurableConfig {
        DurableConfig {
            archive: ArchiveConfig::default(),
            checkpoint_every_ticks: self.sizes.checkpoint_every_ticks,
            keep_checkpoints: 2,
        }
    }

    /// The TCP session `ingest_tcp` measures: two connections into
    /// two shards, `drive`'s window.
    pub fn session_plan(&self) -> SessionPlan {
        SessionPlan {
            clients: 2,
            shards: 2,
            window: 64,
            mark_every: SimDuration::from_mins(self.sizes.mark_mins),
            window_end: self.window_end(),
            seed: self.seed,
            scale: self.scale(),
            days: self.sizes.days,
            sample_mins: self.sizes.sample_mins,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, exactly as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, exactly as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample count / base of the value, for the human-readable line.
    pub note: String,
}

/// Shorthand constructor.
pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// The output checks of one run, each recorded whether it passed.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    /// Records one check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.0.push((what.into(), ok));
    }

    /// Checks that failed.
    pub fn failed(&self) -> usize {
        self.0.iter().filter(|(_, ok)| !ok).count()
    }
}

/// Runs `f`, returning its result and wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs whole passes until `seconds` have been measured, at least
/// `min` of them; `f` returns one pass's wall time.
pub fn passes(
    min: usize,
    seconds: f64,
    mut f: impl FnMut() -> io::Result<f64>,
) -> io::Result<Vec<f64>> {
    const MAX_PASSES: usize = 64;
    let t = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min || (t.elapsed().as_secs_f64() < seconds && walls.len() < MAX_PASSES) {
        walls.push(f()?);
    }
    Ok(walls)
}

/// The figure body of a rendered report: everything except the header
/// and the provenance lines that legitimately differ between a live
/// run, a replay and a service-ingested archive.
pub fn figure_body(text: &str) -> String {
    const PROVENANCE: [&str; 6] = [
        "=== Magellan study report",
        "Faults —",
        "Collection —",
        "Datagram channel —",
        "Archive replay —",
        "Ingest —",
    ];
    text.lines()
        .filter(|l| !PROVENANCE.iter().any(|p| l.starts_with(p)))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// A fresh, empty directory at `path`.
pub fn cold_dir(path: &Path) -> io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}

/// Every record of the archive under `dir`, in archive order, plus
/// the recovery report.
pub fn read_reports(dir: &Path) -> io::Result<(Vec<PeerReport>, magellan::trace::RecoveryReport)> {
    let mut reports = Vec::new();
    let recovery = read_archive(&dir.join("archive"), |r| reports.push(r))?;
    Ok((reports, recovery))
}

/// The numbers behind the seven end-to-end metrics.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Time of the set-up (the median of the warm-ups on `study_*`).
    pub setup_s: f64,
    /// Wall of `DurableStudy::run`, cold dir → `StudyReport`.
    pub study_wall_s: f64,
    /// Wall of `DurableStudy::analyze_archive`.
    pub replay_wall_s: f64,
    /// `ops_total` ÷ wall of the fastest measured pass.
    pub ingest_reports_per_s: f64,
    /// Reports that landed ÷ reports sent towards the collector.
    pub delivered_ratio: f64,
    /// `VmHWM` when the measured phase ended, before the output
    /// checks replay anything.
    pub peak_rss_mb: f64,
    /// Bytes under the workload's `archive/` ÷ 1e6.
    pub archive_mb: f64,
    /// Reports emitted / records replayed / reports offered.
    pub ops_total: u64,
    /// Operations unaccounted for (0 on a correct run).
    pub failed_ops: u64,
    /// Wall of every measured pass, in order; the headline is the
    /// fastest.
    pub pass_walls_s: Vec<f64>,
}

/// A simulated day of reports on disk, the input of `replay_dense`
/// and `ingest_tcp`.
#[derive(Debug)]
pub struct Fixture {
    /// Run directory holding `archive/`.
    pub dir: PathBuf,
    /// Reports the collector admitted into the archive.
    pub accepted: u64,
    /// Wall of the `DurableStudy::run` that built it.
    pub wall_s: f64,
}

/// Builds the fixture with the public study driver.
pub fn build_fixture(env: &Env) -> io::Result<Fixture> {
    let dir = env.run_dir.join("fixture");
    let (report, wall_s) = cold_study(env, &dir)?;
    Ok(Fixture {
        dir,
        accepted: report.collection.map_or(0, |c| c.accepted),
        wall_s,
    })
}

/// Runs the workload with tracing off.
pub fn run_untraced(env: &Env, checks: &mut Checks) -> io::Result<EndToEnd> {
    match env.workload {
        Workload::StudyFlash | Workload::StudyOutage => run_study(env, checks),
        Workload::ReplayDense => run_replay(env, checks),
        Workload::IngestTcp => run_ingest(env, checks),
    }
}

/// Runs `f` `reps` times, returning what the last run produced and
/// the time each took — how the sub-second pieces outside a measured
/// phase are timed, one reading of which is mostly host noise.
pub fn repeated<T>(reps: usize, mut f: impl FnMut() -> io::Result<T>) -> io::Result<(T, Vec<f64>)> {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (out, wall) = timed(&mut f);
        last = Some(out?);
        walls.push(wall);
    }
    Ok((last.expect("at least one repetition"), walls))
}

/// Warm-up studies per `study_*` run (a third of a second each);
/// `setup_s` is their median.
const WARM_UP_REPS: usize = 5;

/// Replays of a `study_*` archive behind its `replay_wall_s` (a
/// quarter of a second each); the output check needs the first.
const STUDY_CHECK_REPLAYS: usize = 3;

/// Set-up of the `study_*` workloads: a warm-up study of the same
/// shape at `warmup_scale` (fills the page cache, sizes the allocator,
/// runs every code path once).
fn warm_up(env: &Env) -> io::Result<()> {
    let dir = env.run_dir.join("warmup");
    cold_dir(&dir)?;
    let cfg = StudyConfig {
        scale: env.sizes.warmup_scale.min(env.scale()),
        ..env.study_config()
    };
    let study = DurableStudy::new(&dir, cfg, env.durable_config());
    study.run()?;
    study.analyze_archive()?;
    std::fs::remove_dir_all(&dir)
}

/// One untraced `DurableStudy::run` of the workload's study into a
/// cold `dir`, and its wall: a measured pass of `study_*`, a fixture
/// build, or the reference the traced run compares itself against.
pub fn cold_study(env: &Env, dir: &Path) -> io::Result<(StudyReport, f64)> {
    cold_dir(dir)?;
    let study = DurableStudy::new(dir, env.study_config(), env.durable_config());
    let (report, wall) = timed(|| study.run());
    Ok((report?, wall))
}

fn run_study(env: &Env, checks: &mut Checks) -> io::Result<EndToEnd> {
    let ((), setups) = repeated(WARM_UP_REPS, || warm_up(env))?;
    let dir = env.run_dir.join("study");
    let mut live = None;
    let walls = passes(env.sizes.min_passes, env.seconds, || {
        let (report, wall) = cold_study(env, &dir)?;
        live = Some(report);
        Ok(wall)
    })?;
    let peak_rss_mb = peak_rss_mb()?;
    let live = live.expect("at least one pass ran");
    let study = DurableStudy::new(&dir, env.study_config(), env.durable_config());
    let (replayed, replays) = repeated(STUDY_CHECK_REPLAYS, || study.analyze_archive())?;
    check_study(env, &live, &replayed, checks);

    let collected = live.collection.unwrap_or_default();
    let emitted = live.sim.reports;
    let study_wall_s = fastest(&walls);
    Ok(EndToEnd {
        setup_s: median(&setups),
        study_wall_s,
        replay_wall_s: fastest(&replays),
        ingest_reports_per_s: collected.accepted as f64 / study_wall_s,
        delivered_ratio: collected.accepted as f64
            / (emitted + live.sim.faults.reports_lost) as f64,
        peak_rss_mb,
        archive_mb: dir_bytes(&study.archive_dir())? as f64 / 1e6,
        ops_total: emitted,
        // Every emitted report must end up admitted (bounced ones are
        // buffered and retransmitted) or rejected by validation; one
        // that did neither was dropped by the uplink. In-flight loss
        // is the scenario's, and happens before emission is counted.
        failed_ops: emitted - collected.accepted - collected.rejected,
        pass_walls_s: walls,
    })
}

/// The output checks of a study (live report vs replay of the archive
/// it just wrote, plus the paper's qualitative findings).
pub fn check_study(env: &Env, live: &StudyReport, replayed: &StudyReport, checks: &mut Checks) {
    checks.check(
        "figure body of the live report equals the replay of its archive",
        figure_body(&live.render_text()) == figure_body(&replayed.render_text()),
    );
    checks.check(
        "archive replays clean",
        replayed.recovery.as_ref().is_some_and(|r| r.is_clean()),
    );
    checks.check("fig8 reciprocity is positive", live.fig8.all.mean() > 0.0);
    checks.check(
        "fig7 clustering exceeds the random graph's",
        live.fig7.global.clustering_ratio() > 1.0,
    );
    let stable = live.fig1a.stable_ratio();
    checks.check("0 < stable ratio < 1", stable > 0.0 && stable < 1.0);
    if env.workload == Workload::StudyFlash {
        // One-day window: the crowd's mark is a population peak inside
        // its own active window, well above the pre-ramp level (the
        // diurnal profile alone gains ~1.2x over those three hours).
        let crowd = env.flash_crowd();
        let before = live.fig1a.total.at(crowd.peak - SimDuration::from_hours(3));
        let peak = live.fig1a.total.day_peak(env.sizes.days - 1);
        checks.check(
            "flash crowd: population peaks inside the crowd window, >1.6x the level 3 h earlier",
            match (before, peak) {
                (Some(b), Some((t, p))) => {
                    t + crowd.ramp_up >= crowd.peak && t <= crowd.peak + crowd.decay && p > 1.6 * b
                }
                _ => false,
            },
        );
    }
}

fn run_replay(env: &Env, checks: &mut Checks) -> io::Result<EndToEnd> {
    let (fx, setup_s) = timed(|| build_fixture(env));
    let fx = fx?;
    let study = DurableStudy::new(&fx.dir, env.dense_config(), env.durable_config());
    let mut texts: Vec<String> = Vec::new();
    let mut recovery = None;
    let walls = passes(env.sizes.min_passes, env.seconds, || {
        let (report, wall) = timed(|| study.analyze_archive());
        let report = report?;
        texts.push(report.render_text());
        recovery = report.recovery;
        Ok(wall)
    })?;
    let peak_rss_mb = peak_rss_mb()?;
    let recovery = recovery.expect("replay reports recovery");
    checks.check("fixture archive replays clean", recovery.is_clean());
    checks.check(
        "replayed records equal the reports the fixture admitted",
        recovery.records_recovered == fx.accepted,
    );
    checks.check(
        "every pass renders the identical report",
        texts.windows(2).all(|w| w[0] == w[1]),
    );
    let replay_wall_s = fastest(&walls);
    Ok(EndToEnd {
        setup_s,
        study_wall_s: fx.wall_s,
        replay_wall_s,
        ingest_reports_per_s: recovery.records_recovered as f64 / replay_wall_s,
        delivered_ratio: recovery.records_recovered as f64 / fx.accepted as f64,
        peak_rss_mb,
        archive_mb: dir_bytes(&study.archive_dir())? as f64 / 1e6,
        ops_total: recovery.records_recovered,
        failed_ops: fx.accepted.abs_diff(recovery.records_recovered),
        pass_walls_s: walls,
    })
}

/// What `ingest_tcp` sends: the fixture's reports in archive order.
pub struct IngestInput {
    /// Run directory of the fixture the reports came from.
    pub fixture_dir: PathBuf,
    /// Its records, in archive order.
    pub reports: Vec<PeerReport>,
}

/// Reads the fixture under `fixture_dir` back for the generators.
pub fn ingest_input(fixture_dir: &Path) -> io::Result<IngestInput> {
    let (reports, _) = read_reports(fixture_dir)?;
    Ok(IngestInput {
        fixture_dir: fixture_dir.to_path_buf(),
        reports,
    })
}

fn run_ingest(env: &Env, checks: &mut Checks) -> io::Result<EndToEnd> {
    let (built, setup_s) = timed(|| -> io::Result<_> {
        let fx = build_fixture(env)?;
        Ok((ingest_input(&fx.dir)?, fx.wall_s))
    });
    let (input, study_wall_s) = built?;
    let plan = env.session_plan();
    let dir = env.run_dir.join("ingested");
    let off = Tracer::new(Instant::now(), false);
    let mut last = None;
    let walls = passes(env.sizes.min_passes, env.seconds, || {
        cold_dir(&dir)?;
        let session = ingest::run_session(&env.traced_bin, &dir, &plan, &input.reports, &off)?;
        let wall = session.wall_s;
        last = Some(session);
        Ok(wall)
    })?;
    let peak_rss_mb = peak_rss_mb()?;
    let session = last.expect("at least one pass ran");
    let replay_wall_s = check_ingest(env, &input, &dir, &session, checks)?;
    let landed = session.stats.admitted + session.stats.deduped;
    Ok(EndToEnd {
        setup_s,
        study_wall_s,
        replay_wall_s,
        ingest_reports_per_s: session.offered as f64 / fastest(&walls),
        delivered_ratio: landed as f64 / session.offered as f64,
        peak_rss_mb,
        archive_mb: dir_bytes(&dir.join("archive"))? as f64 / 1e6,
        ops_total: session.offered,
        failed_ops: session.offered.abs_diff(session.stats.admitted),
        pass_walls_s: walls,
    })
}

/// The `tests/service_ingest.rs` oracle on the bench's own fixture:
/// balanced books, nothing lost, the same records, and a replay that
/// renders the fixture replay's figure body. Returns the wall of the
/// faster of those two replays (the archives hold the same records).
pub fn check_ingest(
    env: &Env,
    input: &IngestInput,
    dir: &Path,
    session: &ingest::Session,
    checks: &mut Checks,
) -> io::Result<f64> {
    checks.check("serve books balance", session.stats.balanced());
    checks.check(
        "every offered report was admitted",
        session.stats.admitted == session.offered && session.offered == input.reports.len() as u64,
    );
    let key = |r: &PeerReport| (r.time, r.addr);
    let (mut archived, recovery) = read_reports(dir)?;
    archived.sort_by_key(key);
    let mut expected = input.reports.clone();
    expected.sort_by_key(key);
    checks.check("ingested archive replays clean", recovery.is_clean());
    checks.check(
        "archived records equal the fixture as a (time, addr)-sorted multiset",
        archived == expected,
    );
    let replay = |of: &Path| {
        let study = DurableStudy::new(of, env.study_config(), env.durable_config());
        timed(|| study.analyze_archive())
    };
    let (fixture_replay, fixture_wall) = replay(&input.fixture_dir);
    let (ingested_replay, ingested_wall) = replay(dir);
    checks.check(
        "replay of the ingested archive renders the fixture replay's figure body",
        figure_body(&ingested_replay?.render_text()) == figure_body(&fixture_replay?.render_text()),
    );
    Ok(fixture_wall.min(ingested_wall))
}
