//! Crash-safe study driver: durable archives plus checkpoint/resume.
//!
//! [`DurableStudy`] runs [`crate::MagellanStudy`]'s live loop —
//! simulator → peer uplink → admission gateway → streaming analysis —
//! with the disk around it: every admitted report is appended to an
//! on-disk segmented archive ([`magellan_trace::archive`]) and the
//! complete deterministic state of the pipeline is checkpointed every
//! few simulated ticks. Its report equals the in-memory study's. A run
//! killed at any instant resumes from the newest valid checkpoint and
//! finishes with an archive and a [`StudyReport`] that are
//! **byte-identical** to those of an uninterrupted run:
//!
//! * the simulator restarts from [`magellan_overlay::SimCheckpoint`]
//!   (every RNG stream, peer, tracker list, and fault counter);
//! * the analysis accumulator is rebuilt by re-streaming the archive
//!   prefix the checkpoint covers — archive order is admission order,
//!   so the rebuilt accumulator is bit-exact; the admission gateway's
//!   dedup set starts empty, since in process no admitted report is
//!   ever delivered again;
//! * the peer uplink's buffered backlog rides inside the checkpoint;
//! * the archive writer reopens at the checkpointed record cursor and
//!   truncates whatever an interrupted tick half-wrote past it.
//!
//! [`DurableStudy::analyze_archive`] is the offline half: it replays
//! an archive (even a damaged one) through the same accumulator and
//! reports what recovery had to skip.

use crate::figures::StudyReport;
use crate::study::{Accumulator, Live, LiveCheckpoint, LiveSink, StudyConfig, UPLINK_CAPACITY};
use magellan_overlay::SimCheckpoint;
use magellan_trace::checkpoint::{
    latest_valid_checkpoint, prune_checkpoints, write_checkpoint_with,
};
use magellan_trace::{
    wire, ArchiveConfig, ArchiveWriter, PeerReport, ReportUplink, ServerStats, UplinkStats,
};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Version tag of the durable-study checkpoint body (the pipeline
/// extras wrapped around the simulator checkpoint). Version 2 added
/// the uplink retry/backoff counters (`attempts`, `backoff_capped`,
/// `dropped_permanent`); version-1 checkpoints are rejected and the
/// driver cold-starts.
const EXTRAS_VERSION: u32 = 2;

/// Durability knobs of one [`DurableStudy`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Archive segmentation (segment size governs how much an
    /// unsealed tail can lose to a crash).
    pub archive: ArchiveConfig,
    /// Checkpoint cadence in simulator ticks.
    pub checkpoint_every_ticks: u64,
    /// How many recent checkpoints to keep on disk (at least 1; more
    /// than one survives a crash *during* a checkpoint write).
    pub keep_checkpoints: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            archive: ArchiveConfig::default(),
            checkpoint_every_ticks: 512,
            keep_checkpoints: 2,
        }
    }
}

/// The crash-safe study runner: a [`StudyConfig`] bound to an on-disk
/// run directory holding `archive/` and `checkpoints/`.
#[derive(Debug, Clone)]
pub struct DurableStudy {
    dir: PathBuf,
    cfg: StudyConfig,
    dcfg: DurableConfig,
}

/// The disk around the live loop: the archive every admitted report
/// is appended to, the checkpoint schedule, and the tick observer.
struct Disk<'a> {
    study: &'a DurableStudy,
    fingerprint: u64,
    writer: ArchiveWriter,
    last_checkpoint: Option<u64>,
    observer: &'a mut dyn FnMut(u64),
}

impl LiveSink for Disk<'_> {
    fn admit(&mut self, report: &PeerReport) -> io::Result<()> {
        self.writer.append(report)
    }

    fn before_tick(&mut self, live: &Live, tick: u64) -> io::Result<()> {
        let every = self.study.dcfg.checkpoint_every_ticks.max(1);
        if tick > 0 && tick % every == 0 && self.last_checkpoint != Some(tick) {
            self.writer.sync()?;
            let dir = self.study.checkpoint_dir();
            let cursor = self.writer.records_written();
            write_live_checkpoint(&dir, self.fingerprint, tick, cursor, &live.checkpoint())?;
            prune_checkpoints(&dir, self.study.dcfg.keep_checkpoints.max(1))?;
            self.last_checkpoint = Some(tick);
        }
        (self.observer)(tick);
        Ok(())
    }

    fn seal(self) -> io::Result<()> {
        self.writer.finish().map(drop)
    }
}

/// Everything a checkpoint carries beyond the simulator state.
struct Extras {
    cursor: u64,
    server: ServerStats,
    uplink: UplinkStats,
    queue: Vec<PeerReport>,
}

/// Streams the checkpoint of `live` at `tick` into `dir`: the pipeline
/// extras (archive `cursor`, gateway and uplink counters, the uplink
/// backlog), then the simulator body straight from the live state.
/// Returns the body's length.
fn write_live_checkpoint(
    dir: &Path,
    fingerprint: u64,
    tick: u64,
    cursor: u64,
    live: &LiveCheckpoint<'_>,
) -> io::Result<u64> {
    write_checkpoint_with(dir, fingerprint, tick, |w| write_live_body(w, cursor, live))
}

/// The body [`write_live_checkpoint`] streams.
fn write_live_body<W: Write + ?Sized>(
    w: &mut W,
    cursor: u64,
    live: &LiveCheckpoint<'_>,
) -> io::Result<()> {
    w.write_all(&EXTRAS_VERSION.to_be_bytes())?;
    w.write_all(&cursor.to_be_bytes())?;
    let uplink = live.uplink.stats();
    for v in [
        live.server.accepted,
        live.server.rejected,
        live.server.unavailable,
        live.server.duplicates,
        uplink.offered,
        uplink.delivered,
        uplink.retransmitted,
        uplink.dropped_overflow,
        uplink.rejected,
        uplink.attempts,
        uplink.backoff_capped,
        uplink.dropped_permanent,
    ] {
        w.write_all(&v.to_be_bytes())?;
    }
    // lint:allow(C3): queue length is capped at UPLINK_CAPACITY (1<<16)
    w.write_all(&(live.uplink.pending() as u32).to_be_bytes())?;
    let mut report = Vec::new();
    for r in live.uplink.queued() {
        report.clear();
        wire::encode_into(r, &mut report);
        // lint:allow(C3): a wire-encoded report is a few hundred bytes
        w.write_all(&(report.len() as u32).to_be_bytes())?;
        w.write_all(&report)?;
    }
    live.sim.write_to(w)
}

/// Splits a checkpoint body back into pipeline extras and the
/// simulator checkpoint. `None` on any structural mismatch (the
/// driver then falls back to an older checkpoint or a cold start).
fn decode_body(body: &[u8]) -> Option<(Extras, SimCheckpoint)> {
    let mut at = 0usize;
    let mut take = |n: usize| -> Option<&[u8]> {
        let s = body.get(at..at.checked_add(n)?)?;
        at += n;
        Some(s)
    };
    let mut u32_at = || -> Option<u32> { Some(u32::from_be_bytes(take(4)?.try_into().ok()?)) };
    if u32_at()? != EXTRAS_VERSION {
        return None;
    }
    let mut u64_at = || -> Option<u64> { Some(u64::from_be_bytes(take(8)?.try_into().ok()?)) };
    let cursor = u64_at()?;
    let server = ServerStats {
        accepted: u64_at()?,
        rejected: u64_at()?,
        unavailable: u64_at()?,
        duplicates: u64_at()?,
    };
    let uplink = UplinkStats {
        offered: u64_at()?,
        delivered: u64_at()?,
        retransmitted: u64_at()?,
        dropped_overflow: u64_at()?,
        rejected: u64_at()?,
        attempts: u64_at()?,
        backoff_capped: u64_at()?,
        dropped_permanent: u64_at()?,
    };
    let mut u32_at = || -> Option<u32> { Some(u32::from_be_bytes(take(4)?.try_into().ok()?)) };
    let n = u32_at()? as usize;
    if n > UPLINK_CAPACITY {
        return None;
    }
    let mut queue = Vec::with_capacity(n);
    for _ in 0..n {
        let len = u32::from_be_bytes(take(4)?.try_into().ok()?) as usize;
        let mut slice = take(len)?;
        let report = wire::decode(&mut slice).ok()?;
        if !slice.is_empty() {
            return None;
        }
        queue.push(report);
    }
    let sim = SimCheckpoint::decode(&body[at..])?;
    Some((
        Extras {
            cursor,
            server,
            uplink,
            queue,
        },
        sim,
    ))
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl DurableStudy {
    /// Binds a study configuration to a run directory. Nothing is
    /// created until [`DurableStudy::run`] or
    /// [`DurableStudy::resume`].
    pub fn new(dir: impl Into<PathBuf>, cfg: StudyConfig, dcfg: DurableConfig) -> Self {
        DurableStudy {
            dir: dir.into(),
            cfg,
            dcfg,
        }
    }

    /// The archive directory of this run.
    pub fn archive_dir(&self) -> PathBuf {
        self.dir.join("archive")
    }

    /// The checkpoint directory of this run.
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.dir.join("checkpoints")
    }

    /// Fingerprint of the configuration: a checkpoint written under a
    /// different config (or workload build) never resumes silently.
    pub fn fingerprint(&self) -> u64 {
        let cfg_hash = fnv1a(format!("{:?}", self.cfg).bytes());
        cfg_hash ^ self.cfg.scenario().fingerprint().rotate_left(17)
    }

    /// Runs the study from scratch, wiping any previous archive and
    /// checkpoints in the run directory.
    ///
    /// # Errors
    ///
    /// Archive or checkpoint I/O failure, or a simulator
    /// inconsistency (impossible for configs built through
    /// [`StudyConfig`]).
    pub fn run(&self) -> io::Result<StudyReport> {
        self.run_observed(|_| {})
    }

    /// As [`DurableStudy::run`], invoking `observer` with the tick
    /// index about to execute — the crash-drill hook (`abort()` in
    /// the observer kills the process at a deterministic tick).
    ///
    /// # Errors
    ///
    /// As [`DurableStudy::run`].
    pub fn run_observed(&self, mut observer: impl FnMut(u64)) -> io::Result<StudyReport> {
        self.drive(false, &mut observer)
    }

    /// Resumes from the newest valid checkpoint, falling back to a
    /// cold start when none exists (or none matches the
    /// configuration fingerprint).
    ///
    /// # Errors
    ///
    /// As [`DurableStudy::run`].
    pub fn resume(&self) -> io::Result<StudyReport> {
        self.resume_observed(|_| {})
    }

    /// As [`DurableStudy::resume`] with a tick observer.
    ///
    /// # Errors
    ///
    /// As [`DurableStudy::run`].
    pub fn resume_observed(&self, mut observer: impl FnMut(u64)) -> io::Result<StudyReport> {
        self.drive(true, &mut observer)
    }

    fn drive(&self, resume: bool, observer: &mut dyn FnMut(u64)) -> io::Result<StudyReport> {
        let archive_dir = self.archive_dir();
        let ckpt_dir = self.checkpoint_dir();
        std::fs::create_dir_all(&ckpt_dir)?;
        let fingerprint = self.fingerprint();

        // Restore-or-cold-start the pipeline and its archive.
        let restored = if resume {
            latest_valid_checkpoint(&ckpt_dir, fingerprint, |c| {
                decode_body(c.body()).map(|(extras, sim)| (c.tick, extras, sim))
            })?
        } else {
            None
        };
        let (live, writer, last_checkpoint) = match restored {
            Some((tick, extras, simckpt)) => {
                let writer = ArchiveWriter::resume(&archive_dir, self.dcfg.archive, extras.cursor)?;
                let uplink = ReportUplink::restore(UPLINK_CAPACITY, extras.queue, extras.uplink);
                // The archive prefix this checkpoint covers is replayed:
                // archive order is admission order is live ingest order.
                let live = Live::resume(&self.cfg, simckpt, uplink, extras.server, |admit| {
                    magellan_trace::archive::read_archive_limit(&archive_dir, extras.cursor, admit)
                        .map(drop)
                })?;
                (live, writer, Some(tick))
            }
            None => {
                let writer = ArchiveWriter::create(&archive_dir, self.dcfg.archive)?;
                (Live::cold(&self.cfg), writer, None)
            }
        };
        // Live and resumed runs both leave `recovery` unset so an
        // interrupted study renders identically to an uninterrupted
        // one; only archive replay reports recovery.
        live.run(Disk {
            study: self,
            fingerprint,
            writer,
            last_checkpoint,
            observer,
        })
    }

    /// Replays the run directory's archive through the streaming
    /// analysis — the offline path a measurement group works in, and
    /// the one that tolerates damage. The returned report carries the
    /// [`magellan_trace::RecoveryReport`] describing every region
    /// recovery had to skip.
    ///
    /// # Errors
    ///
    /// Archive I/O failure (a damaged archive is *not* an error —
    /// damage is quantified in the recovery report).
    pub fn analyze_archive(&self) -> io::Result<StudyReport> {
        let db = magellan_netsim::IspDatabase::synthetic(self.cfg.sim.isp_shares);
        let mut acc = Accumulator::new(&self.cfg, db);
        let recovery = magellan_trace::archive::read_archive(&self.archive_dir(), |r| {
            acc.ingest(r);
        })?;
        let mut report = acc.finish();
        report.recovery = Some(recovery);
        // Archives written by the networked `magellan-traced` service
        // leave an INGEST sidecar with the service-side accounting;
        // fold it in so replay surfaces shed/lost datagrams.
        report.ingest = magellan_trace::service::read_ingest_stats(&self.archive_dir())?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::MagellanStudy;
    use magellan_netsim::{SimDuration, SimTime};
    use magellan_overlay::OverlaySim;
    use magellan_trace::checkpoint::{checkpoint_path, encode_checkpoint};

    fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// The in-memory body composition the streamed checkpoint
    /// replaced: the reference [`write_live_checkpoint`] must equal.
    fn encode_body(extras: &Extras, sim: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + sim.len());
        put_u32(&mut out, EXTRAS_VERSION);
        put_u64(&mut out, extras.cursor);
        for v in [
            extras.server.accepted,
            extras.server.rejected,
            extras.server.unavailable,
            extras.server.duplicates,
            extras.uplink.offered,
            extras.uplink.delivered,
            extras.uplink.retransmitted,
            extras.uplink.dropped_overflow,
            extras.uplink.rejected,
            extras.uplink.attempts,
            extras.uplink.backoff_capped,
            extras.uplink.dropped_permanent,
        ] {
            put_u64(&mut out, v);
        }
        put_u32(&mut out, extras.queue.len() as u32);
        for r in &extras.queue {
            let bytes = wire::encode(r);
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
        }
        out.extend_from_slice(sim);
        out
    }

    fn quick_config(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            scale: 0.0008,
            window_days: 1,
            sample_every: SimDuration::from_hours(2),
            degree_captures: vec![("9am".into(), SimTime::at(0, 9, 0))],
            min_graph_nodes: 10,
            ..StudyConfig::default()
        }
    }

    fn durable_config() -> DurableConfig {
        DurableConfig {
            archive: ArchiveConfig {
                segment_bytes: 16 * 1024,
            },
            checkpoint_every_ticks: 64,
            keep_checkpoints: 2,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("magellan-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn archive_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn durable_run_matches_in_memory_study() {
        // Both drivers run the one live loop, collector included, so
        // the whole report agrees — `collection` too — with and
        // without an outage bouncing reports into the uplink buffer.
        let clean = quick_config(42);
        let stressed = StudyConfig {
            faults: magellan_workload::FaultPlan::combined_stress(0),
            ..quick_config(42)
        };
        for threads in [1, 8] {
            magellan_par::set_threads(threads);
            for (tag, cfg) in [("clean", &clean), ("stressed", &stressed)] {
                let dir = tempdir(&format!("match-{tag}-{threads}"));
                let durable = DurableStudy::new(&dir, cfg.clone(), durable_config())
                    .run()
                    .unwrap();
                let in_memory = MagellanStudy::new(cfg.clone()).run();
                assert_eq!(
                    format!("{durable:?}"),
                    format!("{in_memory:?}"),
                    "{tag} reports diverge at {threads} worker(s)"
                );
                let cs = in_memory.collection.unwrap();
                assert!(cs.accepted > 0, "{tag}: the collector admitted nothing");
                assert_eq!(cs.unavailable > 0, tag == "stressed", "{tag}: {cs:?}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
        magellan_par::set_threads(0);
    }

    /// Gives up after `left` more bytes: a producer dying mid-body.
    struct FailAfter<'w, W: ?Sized> {
        inner: &'w mut W,
        left: usize,
    }

    impl<W: Write + ?Sized> Write for FailAfter<'_, W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("producer died mid-body"));
            }
            let n = self.inner.write(&buf[..buf.len().min(self.left)])?;
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// A durable run's sink that, at chosen ticks, also streams a
    /// checkpoint of the live study into `probe_dir` and compares the
    /// file with the buffered composition (owned capture, body
    /// encode, extras prepended, envelope around it). `tally` counts
    /// the comparisons and the backlog reports they carried.
    struct Reference<'a> {
        disk: Disk<'a>,
        probe_dir: PathBuf,
        ticks: &'a [u64],
        tally: &'a mut [usize; 2],
    }

    impl LiveSink for Reference<'_> {
        fn admit(&mut self, report: &PeerReport) -> io::Result<()> {
            self.disk.admit(report)
        }

        fn before_tick(&mut self, live: &Live, tick: u64) -> io::Result<()> {
            self.disk.before_tick(live, tick)?;
            if !self.ticks.contains(&tick) {
                return Ok(());
            }
            let fp = self.disk.fingerprint;
            let cursor = self.disk.writer.records_written();
            let streamed = live.checkpoint();
            let len = write_live_checkpoint(&self.probe_dir, fp, tick, cursor, &streamed)?;
            let (server, uplink, queue, sim) = live.capture();
            let queued = queue.len();
            let extras = Extras {
                cursor,
                server,
                uplink,
                queue,
            };
            let body = encode_body(&extras, &sim.encode());
            assert_eq!(len, body.len() as u64, "tick {tick}");
            let file = std::fs::read(checkpoint_path(&self.probe_dir, tick))?;
            assert!(
                file == encode_checkpoint(fp, tick, &body),
                "streamed checkpoint differs from the buffered one at tick {tick}"
            );
            self.tally[0] += 1;
            self.tally[1] += queued;

            // A producer that dies halfway through the next body
            // leaves nothing under its name; this one stays newest.
            let err = write_checkpoint_with(&self.probe_dir, fp, tick + 1, |w| {
                let mut cut = FailAfter {
                    inner: w,
                    left: body.len() / 2,
                };
                write_live_body(&mut cut, cursor, &streamed)
            })
            .unwrap_err();
            assert_eq!(err.to_string(), "producer died mid-body");
            assert!(!checkpoint_path(&self.probe_dir, tick + 1).exists());
            let newest = latest_valid_checkpoint(&self.probe_dir, fp, |c| {
                decode_body(c.body()).map(|(extras, _)| (c.tick, extras.queue.len()))
            })?;
            assert_eq!(newest, Some((tick, queued)), "tick {tick}");
            Ok(())
        }

        fn seal(self) -> io::Result<()> {
            self.disk.seal()
        }
    }

    #[test]
    fn streamed_checkpoint_equals_the_buffered_reference() {
        // Tick 150 is 12:30, inside the stress plan's server outage
        // (12:00-13:00), so its checkpoint carries a bounced backlog;
        // 260 falls behind the 21:30 crash wave.
        let ticks = [1, 64, 150, 260, 287];
        for seed in [2006, 7] {
            let stressed = StudyConfig {
                faults: magellan_workload::FaultPlan::combined_stress(0),
                ..quick_config(seed)
            };
            for (tag, cfg) in [("clean", quick_config(seed)), ("stressed", stressed)] {
                let dir = tempdir(&format!("streamed-{tag}-{seed}"));
                let probe_dir = dir.join("probe");
                let study = DurableStudy::new(&dir, cfg.clone(), durable_config());
                std::fs::create_dir_all(&probe_dir).unwrap();
                std::fs::create_dir_all(study.checkpoint_dir()).unwrap();
                let mut observer = |_| {};
                let mut tally = [0, 0];
                let sink = Reference {
                    disk: Disk {
                        study: &study,
                        fingerprint: study.fingerprint(),
                        writer: ArchiveWriter::create(&study.archive_dir(), study.dcfg.archive)
                            .unwrap(),
                        last_checkpoint: None,
                        observer: &mut observer,
                    },
                    probe_dir,
                    ticks: &ticks,
                    tally: &mut tally,
                };
                Live::cold(&cfg).run(sink).unwrap();
                assert_eq!(tally[0], ticks.len(), "{tag} seed {seed}");
                assert_eq!(
                    tally[1] > 0,
                    tag == "stressed",
                    "{tag} seed {seed}: backlog"
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn interrupted_run_resumes_byte_identically() {
        let clean_dir = tempdir("clean");
        let cfg = quick_config(43);
        let study_clean = DurableStudy::new(&clean_dir, cfg.clone(), durable_config());
        let clean_report = study_clean.run().unwrap();

        let int_dir = tempdir("interrupted");
        let study_int = DurableStudy::new(&int_dir, cfg, durable_config());
        // Stop mid-run past a checkpoint boundary by erroring out of
        // the observer path: simulate a crash by unwinding.
        let stop_at = 100u64;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            study_int
                .run_observed(|tick| assert!(tick < stop_at, "simulated crash"))
                .unwrap()
        }));
        assert!(r.is_err(), "run should have been interrupted");
        let resumed_report = study_int.resume().unwrap();

        assert_eq!(
            format!("{resumed_report:?}"),
            format!("{clean_report:?}"),
            "resumed report diverged"
        );
        assert_eq!(
            archive_bytes(&study_int.archive_dir()),
            archive_bytes(&study_clean.archive_dir()),
            "resumed archive diverged"
        );
        assert_eq!(resumed_report.render_text(), clean_report.render_text());
        std::fs::remove_dir_all(&clean_dir).unwrap();
        std::fs::remove_dir_all(&int_dir).unwrap();
    }

    /// Interrupts a run after its second checkpoint, replaces the
    /// newest body with `damage` of it and re-seals it, so the envelope
    /// CRC still vouches for it (a state the encoder itself wrote
    /// wrong): only the body decoder can refuse it. The resume must
    /// walk back to the older checkpoint and end as the clean run did.
    fn assert_resume_falls_back_past(tag: &str, damage: impl Fn(&[u8]) -> Vec<u8>) {
        use magellan_trace::checkpoint::{decode_checkpoint, encode_checkpoint, list_checkpoints};
        let clean_dir = tempdir(&format!("{tag}-clean"));
        let cfg = quick_config(47);
        let clean = DurableStudy::new(&clean_dir, cfg.clone(), durable_config());
        let clean_report = clean.run().unwrap();

        // Crash after the second checkpoint (ticks 64 and 128).
        let dir = tempdir(tag);
        let study = DurableStudy::new(&dir, cfg, durable_config());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            study
                .run_observed(|tick| assert!(tick < 140, "simulated crash"))
                .unwrap()
        }));
        assert!(r.is_err(), "run should have been interrupted");
        let files = list_checkpoints(&study.checkpoint_dir()).unwrap();
        assert_eq!(files.len(), 2, "{files:?}");

        let newest = decode_checkpoint(std::fs::read(&files[1]).unwrap()).unwrap();
        let damaged = damage(newest.body());
        assert!(decode_body(&damaged).is_none());
        let resealed = encode_checkpoint(newest.fingerprint, newest.tick, &damaged);
        std::fs::write(&files[1], resealed).unwrap();

        let resumed = study.resume().unwrap();
        assert_eq!(format!("{resumed:?}"), format!("{clean_report:?}"));
        assert_eq!(
            archive_bytes(&study.archive_dir()),
            archive_bytes(&clean.archive_dir()),
            "archive resumed from the older checkpoint diverged"
        );
        std::fs::remove_dir_all(&clean_dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_falls_back_past_a_sealed_but_undecodable_checkpoint() {
        assert_resume_falls_back_past("fallback", |body| body[..body.len() - 1].to_vec());
    }

    /// A link counter above `u32::MAX` makes the body undecodable, so
    /// `latest_valid_checkpoint` walks past it.
    #[test]
    fn resume_falls_back_past_an_out_of_range_link_counter() {
        // An 8-byte counter value found nowhere else in the body.
        const MARK: u32 = 0x5EC5_7A11;
        assert_resume_falls_back_past("counter", |body| {
            let (extras, mut sim) = decode_body(body).expect("sealed body decodes");
            assert_eq!(encode_body(&extras, &sim.encode()), body);
            let link = sim
                .peers
                .iter_mut()
                .flatten()
                .find_map(|p| p.partners.iter_mut().next())
                .map(|(_, l)| l)
                .expect("a peer with a partner");
            link.recv_interval = MARK;
            let mut marked = encode_body(&extras, &sim.encode());
            let needle = u64::from(MARK).to_be_bytes();
            let hits: Vec<usize> = (0..marked.len())
                .filter(|&i| marked[i..].starts_with(&needle))
                .collect();
            assert_eq!(hits.len(), 1, "the mark must be unique");
            // Set a bit of the high half: 2³² + MARK.
            marked[hits[0] + 3] = 1;
            marked
        });
    }

    #[test]
    fn resume_without_checkpoint_cold_starts() {
        let dir = tempdir("cold");
        let cfg = quick_config(44);
        let study = DurableStudy::new(&dir, cfg.clone(), durable_config());
        let resumed = study.resume().unwrap();
        let baseline = MagellanStudy::new(cfg).run();
        assert_eq!(resumed.fig1a.total.points, baseline.fig1a.total.points);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn archive_replay_matches_live_report_and_is_clean() {
        let dir = tempdir("replay");
        let cfg = quick_config(45);
        let study = DurableStudy::new(&dir, cfg, durable_config());
        let live = study.run().unwrap();
        let replayed = study.analyze_archive().unwrap();
        let rc = replayed.recovery.clone().unwrap();
        assert!(rc.is_clean(), "clean archive reported damage: {rc:?}");
        assert_eq!(
            rc.records_recovered,
            live.collection.unwrap().accepted,
            "replay recovered a different record count than were admitted"
        );
        assert_eq!(replayed.fig1a.total.points, live.fig1a.total.points);
        assert_eq!(replayed.fig8.all.points, live.fig8.all.points);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_archive_loses_only_damaged_frames() {
        let dir = tempdir("corrupt");
        let cfg = quick_config(46);
        let study = DurableStudy::new(&dir, cfg, durable_config());
        let live = study.run().unwrap();
        // Flip a byte in the middle of the first sealed segment.
        let seg = std::fs::read_dir(study.archive_dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .map(|n| n.to_string_lossy().starts_with("seg-"))
                    .unwrap_or(false)
            })
            .min()
            .expect("a sealed segment exists");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg, bytes).unwrap();

        let replayed = study.analyze_archive().unwrap();
        let rc = replayed.recovery.clone().unwrap();
        assert!(rc.corrupt_regions >= 1, "damage not reported: {rc:?}");
        assert!(rc.bytes_quarantined > 0);
        let lost = live.collection.unwrap().accepted - rc.records_recovered;
        assert!(
            (1..=8).contains(&lost),
            "corruption should cost a handful of frames, lost {lost}"
        );
        let text = replayed.render_text();
        assert!(
            text.contains("corrupt regions"),
            "recovery line missing from report text"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_body_round_trips() {
        let extras = Extras {
            cursor: 7,
            server: ServerStats {
                accepted: 1,
                rejected: 2,
                unavailable: 3,
                duplicates: 4,
            },
            uplink: UplinkStats {
                offered: 5,
                delivered: 6,
                retransmitted: 7,
                dropped_overflow: 8,
                rejected: 9,
                attempts: 10,
                backoff_capped: 11,
                dropped_permanent: 12,
            },
            queue: vec![],
        };
        // A real simulator body from a tiny run.
        let cfg = quick_config(47);
        let scenario = cfg.scenario();
        let mut sim = OverlaySim::new(scenario, cfg.sim.clone());
        let state = sim.begin();
        let sim_body = sim.capture(&state).encode();
        let body = encode_body(&extras, &sim_body);
        let (back, simckpt) = decode_body(&body).expect("round trip");
        assert_eq!(back.cursor, 7);
        assert_eq!(back.server.duplicates, 4);
        assert_eq!(back.uplink.rejected, 9);
        assert!(back.queue.is_empty());
        assert_eq!(simckpt.encode(), sim_body);
        // Truncations never panic and never decode.
        for cut in [0, 4, 11, 40, body.len() - 1] {
            assert!(decode_body(&body[..cut]).is_none(), "cut {cut} decoded");
        }
    }
}
