//! The power-loss model of the archive's commit protocol.
//!
//! Between commits nothing is promised: a power loss may keep any
//! file at the length it had when the last commit was made durable
//! and forget everything written since — including the rename and
//! the footer of a segment sealed after that commit. The model below
//! is exactly that: at every completed `make_durable` it records each
//! archive file (by inode, so a rename does not hide it) and its
//! length; the "crash" truncates every file back to its recorded
//! length and deletes the files created since. From that wreck,
//! `ArchiveWriter::resume` must succeed at the cursor of *every*
//! commit that was made durable, and continuing with the remaining
//! reports must reproduce the uninterrupted writer's directory byte
//! for byte. Commits taken but never run — still queued when the
//! power went — are simply dropped.
#![cfg(unix)]

use magellan_netsim::{PeerAddr, SimDuration, SimTime};
use magellan_trace::archive::{ArchiveConfig, ArchiveWriter, Commit};
use magellan_trace::{BufferMap, PeerReport};
use magellan_workload::ChannelId;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const CFG: ArchiveConfig = ArchiveConfig { segment_bytes: 512 };

fn report(i: u64) -> PeerReport {
    PeerReport {
        time: SimTime::ORIGIN + SimDuration::from_mins(20 + i),
        addr: PeerAddr::from_u32(i as u32 + 1),
        channel: ChannelId::CCTV1,
        buffer_map: BufferMap::new(0, 8),
        download_capacity_kbps: 2000.0,
        upload_capacity_kbps: 512.0,
        recv_throughput_kbps: 400.0,
        send_throughput_kbps: 100.0,
        partners: vec![],
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "magellan-commit-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, fs::read(e.path()).unwrap())
        })
        .collect()
}

/// What stable storage holds: every file as of the last completed
/// `make_durable`. The handles stay open so no inode number can be
/// recycled for a later file while the snapshot is alive.
struct Durable {
    files: Vec<(File, u64, u64)>,
}

impl Durable {
    fn capture(dir: &Path) -> Self {
        let files = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let file = File::open(e.unwrap().path()).unwrap();
                let meta = file.metadata().unwrap();
                (file, meta.ino(), meta.len())
            })
            .collect();
        Durable { files }
    }

    /// The power loss: files known to stable storage fall back to
    /// their durable length (under whatever name they carry now),
    /// everything younger is gone.
    fn crash(&self, dir: &Path) {
        for e in fs::read_dir(dir).unwrap() {
            let path = e.unwrap().path();
            let ino = fs::metadata(&path).unwrap().ino();
            match self.files.iter().find(|(_, known, _)| *known == ino) {
                Some((_, _, len)) => OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .unwrap()
                    .set_len(*len)
                    .unwrap(),
                None => fs::remove_file(&path).unwrap(),
            }
        }
    }
}

/// The uninterrupted writer's directory over `total` reports.
fn reference(total: u64) -> BTreeMap<String, Vec<u8>> {
    let dir = fresh_dir("ref");
    let mut w = ArchiveWriter::create(&dir, CFG).unwrap();
    for i in 0..total {
        w.append(&report(i)).unwrap();
    }
    w.finish().unwrap();
    let bytes = dir_bytes(&dir);
    fs::remove_dir_all(&dir).unwrap();
    bytes
}

/// Resumes a copy of the wrecked `dir` at `cursor`, continues to
/// `total` reports, and returns the finished directory.
fn resume_and_finish(dir: &Path, cursor: u64, total: u64) -> BTreeMap<String, Vec<u8>> {
    let copy = fresh_dir("resume");
    fs::create_dir_all(&copy).unwrap();
    for (name, bytes) in dir_bytes(dir) {
        fs::write(copy.join(name), bytes).unwrap();
    }
    let mut w = ArchiveWriter::resume(&copy, CFG, cursor)
        .unwrap_or_else(|e| panic!("durable cursor {cursor} did not resume: {e}"));
    assert_eq!(w.records_written(), cursor);
    for i in cursor..total {
        w.append(&report(i)).unwrap();
    }
    w.finish().unwrap();
    let bytes = dir_bytes(&copy);
    fs::remove_dir_all(&copy).unwrap();
    bytes
}

#[derive(Debug, Clone)]
enum Op {
    Append(u64),
    Commit,
    MakeDurable,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..8, 1u64..14).prop_map(|(kind, n)| match kind {
        0..=3 => Op::Append(n),
        4 | 5 => Op::Commit,
        _ => Op::MakeDurable,
    });
    proptest::collection::vec(op, 1..40)
}

/// Runs `ops` against a fresh writer, then loses power. Returns the
/// wrecked directory, every cursor that was made durable (0 — the
/// freshly created archive — included) and how many reports were
/// appended.
fn run_then_crash(ops: &[Op]) -> (PathBuf, Vec<u64>, u64) {
    let dir = fresh_dir("crash");
    let mut w = ArchiveWriter::create(&dir, CFG).unwrap();
    let mut durable = Durable::capture(&dir);
    let mut cursors = vec![0u64];
    let mut queued: VecDeque<Commit> = VecDeque::new();
    let mut appended = 0u64;
    for op in ops {
        match op {
            Op::Append(n) => {
                for _ in 0..*n {
                    w.append(&report(appended)).unwrap();
                    appended += 1;
                }
            }
            Op::Commit => queued.push_back(w.commit().unwrap()),
            // Commits complete in the order they were taken.
            Op::MakeDurable => {
                if let Some(commit) = queued.pop_front() {
                    let cursor = commit.records();
                    commit.make_durable().unwrap();
                    durable = Durable::capture(&dir);
                    cursors.push(cursor);
                }
            }
        }
    }
    // Power loss: the process, its staged bytes and its queued
    // commits are gone; the disk keeps what the last commit vouched
    // for.
    drop(queued);
    drop(w);
    durable.crash(&dir);
    (dir, cursors, appended)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_durable_cursor_resumes_byte_identically(ops in arb_ops()) {
        let (dir, cursors, appended) = run_then_crash(&ops);
        let total = appended + 9;
        let want = reference(total);
        for cursor in cursors {
            let got = resume_and_finish(&dir, cursor, total);
            prop_assert!(got == want, "resume at durable cursor {} diverged", cursor);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The renamed-but-unsynced case, spelled out: a commit is durable
/// mid-segment, the segment then seals (footer + rename) and a second
/// commit is taken but never run. After the power loss the file
/// carries its sealed name with neither footer nor the later frames —
/// and the first cursor still resumes.
#[test]
fn dropped_commit_leaves_the_previous_cursor_resumable() {
    let ops = [
        Op::Append(3),
        Op::Commit,
        Op::MakeDurable,
        Op::Append(20),
        Op::Commit,
    ];
    let (dir, cursors, appended) = run_then_crash(&ops);
    assert_eq!(cursors, vec![0, 3]);
    let torn = fs::read(dir.join("seg-000000.mseg")).expect("renamed segment survives");
    assert!(
        magellan_trace::segment::decode_footer(&torn).is_none(),
        "the unsynced footer must be gone"
    );
    assert!(!dir.join("tail.mseg").exists(), "younger files are gone");
    let total = appended + 5;
    assert!(resume_and_finish(&dir, 3, total) == reference(total));
    fs::remove_dir_all(&dir).unwrap();
}
