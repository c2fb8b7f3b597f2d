//! The durable segmented report archive (crash-safe §3.2 storage).
//!
//! Reports stream into CRC-framed segments on disk ([`crate::segment`]
//! has the codec). The **unsealed tail** segment grows in place; once
//! it crosses the configured size it is **sealed**: the footer is
//! appended and the file is renamed to its final `seg-NNNNNN.mseg`
//! name. Neither step waits for the disk. Durability is an explicit
//! **commit**: [`ArchiveWriter::commit`] hands out everything written
//! since the previous commit and [`Commit::make_durable`] syncs it,
//! then rewrites the manifest atomically. A checkpoint cursor is only
//! ever published after the commit covering it completed, so a process
//! kill tears at most bytes no cursor vouches for, and a power loss
//! tears at most what was written after the last completed commit —
//! the unsealed tail or a renamed-but-unsynced segment. The reader
//! tolerates exactly that — plus arbitrary later corruption, which it
//! quarantines while resynchronising to the next intact frame — and
//! [`ArchiveWriter::resume`] truncates back to the cursor.

use crate::atomicio::{atomic_write, TMP_SUFFIX};
use crate::report::PeerReport;
use crate::segment::{
    self, append_frame_with, decode_footer, decode_header, scan_frames, SegmentFooter,
    SegmentHeader, FRAME_HEADER_LEN, SEGMENT_FOOTER_LEN, SEGMENT_HEADER_LEN,
};
use crate::wire;
use bytes::Buf;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Name of the unsealed tail segment file.
pub const TAIL_NAME: &str = "tail.mseg";

/// Name of the archive manifest file.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Frames are staged in a writer-owned buffer of this size and written
/// out when the next frame would not fit, the segment ends, or a
/// commit is taken — one `write` per ~64 KiB instead of one per
/// report.
const WRITE_BUFFER_BYTES: usize = 64 * 1024;

/// Tuning knobs of an [`ArchiveWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveConfig {
    /// A segment seals once its frame region reaches this many bytes.
    pub segment_bytes: u64,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            segment_bytes: 256 * 1024,
        }
    }
}

/// Manifest entry for one sealed segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedSegment {
    /// Zero-based segment index.
    pub index: u64,
    /// Archive-wide index of the segment's first record.
    pub first_record: u64,
    /// Records sealed into the segment.
    pub records: u64,
    /// Bytes of the frame region.
    pub frame_bytes: u64,
    /// CRC32 of the frame region.
    pub frame_crc: u32,
}

/// File name of a sealed segment.
pub fn segment_file_name(index: u64) -> String {
    let mut name = String::with_capacity(16);
    let _ = write!(name, "seg-{index:06}.mseg");
    name
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------- manifest

fn render_manifest(cfg: ArchiveConfig, sealed: &[SealedSegment]) -> String {
    let mut out = String::from("magellan-archive v1\n");
    let _ = writeln!(out, "segment_bytes {}", cfg.segment_bytes);
    for s in sealed {
        let _ = writeln!(
            out,
            "seg {} {} {} {} {:08x}",
            s.index, s.first_record, s.records, s.frame_bytes, s.frame_crc
        );
    }
    out
}

/// Parsed manifest contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The seal threshold the archive was written with.
    pub segment_bytes: u64,
    /// Sealed segments in index order.
    pub sealed: Vec<SealedSegment>,
}

/// Reads and parses the manifest, if present and well-formed.
///
/// # Errors
///
/// Propagates I/O failures other than the file being absent;
/// `Ok(None)` means "no usable manifest" (absent or unparseable — the
/// reader falls back to scanning the directory either way).
pub fn read_manifest(dir: &Path) -> io::Result<Option<Manifest>> {
    let text = match fs::read_to_string(dir.join(MANIFEST_NAME)) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(parse_manifest(&text))
}

fn parse_manifest(text: &str) -> Option<Manifest> {
    let mut lines = text.lines();
    if lines.next()? != "magellan-archive v1" {
        return None;
    }
    let mut segment_bytes = None;
    let mut sealed = Vec::new();
    for line in lines {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("segment_bytes") => {
                segment_bytes = Some(parts.next()?.parse().ok()?);
            }
            Some("seg") => {
                let index: u64 = parts.next()?.parse().ok()?;
                let first_record: u64 = parts.next()?.parse().ok()?;
                let records: u64 = parts.next()?.parse().ok()?;
                let frame_bytes: u64 = parts.next()?.parse().ok()?;
                let frame_crc = u32::from_str_radix(parts.next()?, 16).ok()?;
                if index != sealed.len() as u64 {
                    return None;
                }
                sealed.push(SealedSegment {
                    index,
                    first_record,
                    records,
                    frame_bytes,
                    frame_crc,
                });
            }
            Some(_) | None => return None,
        }
    }
    Some(Manifest {
        segment_bytes: segment_bytes?,
        sealed,
    })
}

// ------------------------------------------------------------------ writer

#[derive(Debug)]
struct Tail {
    file: File,
    records: u64,
    frame_bytes: u64,
    crc_state: u32,
    first_record: u64,
    index: u64,
}

/// Everything one [`ArchiveWriter::commit`] found not yet on stable
/// storage: the segments sealed since the previous commit, the tail
/// as of this commit, and the manifest if a seal changed it. It
/// borrows nothing from the writer, so it can be made durable on
/// another thread while the writer keeps appending.
///
/// Sealed segments are named, not held open — a full-scale window
/// seals hundreds, several commits can be in flight, and syncing a
/// file needs a handle only while it is being synced.
///
/// Commits must complete in the order they were taken, and a cursor
/// may be published only once its commit *and every earlier one*
/// completed [`Commit::make_durable`]. Dropping a commit unrun
/// forfeits that for every later cursor too: the writer is then only
/// good for [`ArchiveWriter::resume`] from the last published cursor.
#[derive(Debug)]
#[must_use = "nothing is durable until `make_durable` has run"]
pub struct Commit {
    records: u64,
    dir: PathBuf,
    /// Indices of the segments sealed since the previous commit.
    sealed: std::ops::Range<u64>,
    tail: Option<File>,
    /// The manifest listing every segment below `sealed.end`; `None`
    /// when `sealed` is empty and the one on disk still stands.
    manifest: Option<String>,
}

impl Commit {
    /// Records the archive held when this commit was taken — the
    /// cursor that is safe to publish once it is durable.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Syncs every segment the commit covers, then — only after all
    /// of them are on stable storage — replaces the manifest
    /// atomically. No directory fsync, as before: a lost rename
    /// leaves a complete file under its old name, which the reader
    /// and [`ArchiveWriter::resume`] scan all the same.
    ///
    /// # Errors
    ///
    /// Propagates the first sync/write failure; later cursors must
    /// then not be published.
    pub fn make_durable(self) -> io::Result<()> {
        for index in self.sealed {
            let path = self.dir.join(segment_file_name(index));
            OpenOptions::new().write(true).open(path)?.sync_all()?;
        }
        if let Some(tail) = self.tail {
            tail.sync_all()?;
        }
        if let Some(text) = self.manifest {
            atomic_write(&self.dir.join(MANIFEST_NAME), text.as_bytes())?;
        }
        Ok(())
    }
}

/// Streaming, crash-safe archive writer.
#[derive(Debug)]
pub struct ArchiveWriter {
    dir: PathBuf,
    cfg: ArchiveConfig,
    sealed: Vec<SealedSegment>,
    tail: Option<Tail>,
    records_total: u64,
    /// Bytes of the tail segment not yet handed to the kernel; reused,
    /// so an append allocates nothing.
    buf: Vec<u8>,
    /// How many sealed segments earlier commits already cover; the
    /// rest wait for the next one.
    committed_segments: u64,
}

impl ArchiveWriter {
    /// Creates a fresh archive in `dir` (created if missing). Any
    /// existing archive files in the directory are removed first —
    /// the writer owns the directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and cleanup I/O failures.
    pub fn create(dir: &Path, cfg: ArchiveConfig) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        for name in archive_file_names(dir)? {
            fs::remove_file(dir.join(&name))?;
        }
        Self::open(dir, cfg, Vec::new(), 0)
    }

    /// A writer over the clean sealed prefix `sealed`, with the
    /// manifest on disk saying exactly that.
    fn open(
        dir: &Path,
        cfg: ArchiveConfig,
        sealed: Vec<SealedSegment>,
        records_total: u64,
    ) -> io::Result<Self> {
        atomic_write(
            &dir.join(MANIFEST_NAME),
            render_manifest(cfg, &sealed).as_bytes(),
        )?;
        Ok(ArchiveWriter {
            dir: dir.to_path_buf(),
            cfg,
            committed_segments: sealed.len() as u64,
            sealed,
            tail: None,
            records_total,
            buf: Vec::with_capacity(WRITE_BUFFER_BYTES),
        })
    }

    /// Reopens an existing archive truncated to exactly `cursor`
    /// records — the checkpoint-resume path. Sealed segments wholly
    /// within the cursor are kept byte-for-byte; the remainder of the
    /// prefix is replayed into a fresh tail, and everything after the
    /// cursor (including a torn tail) is discarded. Because the writer
    /// is deterministic, continuing from here reproduces an
    /// uninterrupted run's archive bytes exactly.
    ///
    /// # Errors
    ///
    /// Fails when fewer than `cursor` records are recoverable from the
    /// on-disk prefix (the caller should fall back to an earlier
    /// checkpoint), or on underlying I/O errors.
    pub fn resume(dir: &Path, cfg: ArchiveConfig, cursor: u64) -> io::Result<Self> {
        let files = archive_segment_files(dir)?;

        // Keep the longest prefix of fully-clean sealed segments that
        // fits inside the cursor.
        let mut kept: Vec<SealedSegment> = Vec::new();
        let mut kept_records = 0u64;
        let mut replay_from = 0usize;
        for (i, name) in files.sealed.iter().enumerate() {
            match clean_sealed_segment(dir, name, kept.len() as u64, kept_records)? {
                Some(meta) if kept_records + meta.records <= cursor => {
                    kept_records += meta.records;
                    kept.push(meta);
                    replay_from = i + 1;
                }
                _ => break,
            }
        }

        // Recover the records in [kept_records, cursor) from the
        // remaining files, in order.
        let needed = cursor - kept_records;
        let mut replay: Vec<Vec<u8>> = Vec::new();
        'files: for name in files
            .sealed
            .iter()
            .skip(replay_from)
            .chain(files.tail.iter())
        {
            let bytes = fs::read(dir.join(name))?;
            let region = frame_region(&bytes);
            scan_frames(region, 0, |_, payload| {
                if (replay.len() as u64) < needed {
                    replay.push(payload.to_vec());
                }
                true
            });
            if replay.len() as u64 >= needed {
                break 'files;
            }
        }
        if (replay.len() as u64) < needed {
            return Err(invalid(format!(
                "archive holds only {} recoverable records before checkpoint cursor {cursor}",
                kept_records + replay.len() as u64
            )));
        }

        // Drop everything past the kept prefix, then rebuild.
        for name in files
            .sealed
            .iter()
            .skip(replay_from)
            .chain(files.tail.iter())
        {
            fs::remove_file(dir.join(name))?;
        }
        for name in files.stray_tmp {
            fs::remove_file(dir.join(name))?;
        }
        let mut writer = Self::open(dir, cfg, kept, kept_records)?;
        for payload in replay {
            writer.append_payload(&payload)?;
        }
        writer.sync()?;
        Ok(writer)
    }

    /// Appends one report as a frame, sealing the tail segment when it
    /// crosses the configured size. The frame is staged in the
    /// writer's buffer; nothing is promised durable before the next
    /// completed [`ArchiveWriter::commit`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the archive is left in a state the
    /// reader and [`ArchiveWriter::resume`] both tolerate.
    pub fn append(&mut self, report: &PeerReport) -> io::Result<()> {
        self.append_with(wire::encoded_len(report), |out| {
            wire::encode_into(report, out)
        })
    }

    fn append_payload(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append_with(payload.len(), |out| out.extend_from_slice(payload))
    }

    /// Builds one frame of a `len`-byte payload at the end of the
    /// writer's buffer — `fill` writes the payload in place — and
    /// folds it into the segment CRC: one pass over the 12-byte frame
    /// header, then a CRC-combine with the payload CRC the frame
    /// already carries, so the payload is read once, not twice.
    fn append_with(&mut self, len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        if self.tail.is_none() {
            self.open_tail()?;
        }
        // Hand the staged bytes to the kernel first if this frame
        // would not fit, so the buffer never regrows.
        if self.buf.len() + FRAME_HEADER_LEN + len > WRITE_BUFFER_BYTES {
            self.write_buffered()?;
        }
        let start = self.buf.len();
        append_frame_with(&mut self.buf, fill);
        // Borrow is re-established after open_tail above.
        let tail = self
            .tail
            .as_mut()
            .ok_or_else(|| invalid("no tail".into()))?;
        let frame = self.buf.get(start..).unwrap_or(&[]);
        let header = frame.get(..FRAME_HEADER_LEN).unwrap_or(&[]);
        // The header's last four bytes are the payload CRC.
        let payload_crc = header
            .get(8..)
            .and_then(|raw| raw.try_into().ok())
            .map_or(0, u32::from_be_bytes);
        let state = segment::crc32_update(tail.crc_state, header);
        let payload_len = (frame.len() - header.len()) as u64;
        let combined =
            segment::crc32_combine(segment::crc32_finish(state), payload_crc, payload_len);
        tail.crc_state = segment::crc32_finish(combined);
        tail.frame_bytes += frame.len() as u64;
        tail.records += 1;
        self.records_total += 1;
        if tail.frame_bytes >= self.cfg.segment_bytes {
            self.seal_tail()
        } else {
            Ok(())
        }
    }

    fn open_tail(&mut self) -> io::Result<()> {
        let file = File::create(self.dir.join(TAIL_NAME))?;
        self.buf
            .extend_from_slice(&segment::encode_header(SegmentHeader {
                index: self.sealed.len() as u64,
                first_record: self.records_total,
            }));
        self.tail = Some(Tail {
            file,
            records: 0,
            frame_bytes: 0,
            crc_state: segment::CRC32_INIT,
            first_record: self.records_total,
            index: self.sealed.len() as u64,
        });
        Ok(())
    }

    /// Hands the staged bytes to the kernel (not to the disk).
    fn write_buffered(&mut self) -> io::Result<()> {
        if let Some(tail) = self.tail.as_mut() {
            tail.file.write_all(&self.buf)?;
        }
        self.buf.clear();
        Ok(())
    }

    /// Footer + rename; the next commit syncs it.
    fn seal_tail(&mut self) -> io::Result<()> {
        let Some(mut tail) = self.tail.take() else {
            return Ok(());
        };
        let frame_crc = segment::crc32_finish(tail.crc_state);
        self.buf
            .extend_from_slice(&segment::encode_footer(SegmentFooter {
                records: tail.records,
                frame_bytes: tail.frame_bytes,
                frame_crc,
            }));
        tail.file.write_all(&self.buf)?;
        self.buf.clear();
        drop(tail.file);
        fs::rename(
            self.dir.join(TAIL_NAME),
            self.dir.join(segment_file_name(tail.index)),
        )?;
        self.sealed.push(SealedSegment {
            index: tail.index,
            first_record: tail.first_record,
            records: tail.records,
            frame_bytes: tail.frame_bytes,
            frame_crc,
        });
        Ok(())
    }

    /// Takes a commit: writes out what is staged and hands back
    /// everything that has not reached stable storage yet — which
    /// segments were sealed since the previous commit, a handle on
    /// the tail, and the manifest if it changed. The writer is free to
    /// keep appending while the [`Commit`] is made durable elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates the write or handle-duplication failure.
    pub fn commit(&mut self) -> io::Result<Commit> {
        self.write_buffered()?;
        let sealed = self.committed_segments..self.sealed.len() as u64;
        self.committed_segments = sealed.end;
        Ok(Commit {
            records: self.records_total,
            dir: self.dir.to_path_buf(),
            manifest: (!sealed.is_empty()).then(|| render_manifest(self.cfg, &self.sealed)),
            sealed,
            tail: self
                .tail
                .as_ref()
                .map(|tail| tail.file.try_clone())
                .transpose()?,
        })
    }

    /// Commits and makes the commit durable before returning — called
    /// before a checkpoint is written so that every record the
    /// checkpoint's cursor covers is on stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the write/sync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.commit()?.make_durable()
    }

    /// Seals the tail (if it holds any records) and makes the whole
    /// archive and its final manifest durable, consuming the writer.
    ///
    /// # Errors
    ///
    /// Propagates seal/commit I/O failures.
    pub fn finish(mut self) -> io::Result<ArchiveSummary> {
        match self.tail.as_ref() {
            Some(tail) if tail.records > 0 => self.seal_tail()?,
            Some(_) => {
                // Header-only tail: nothing worth sealing.
                self.tail = None;
                self.buf.clear();
                fs::remove_file(self.dir.join(TAIL_NAME))?;
            }
            None => {}
        }
        self.commit()?.make_durable()?;
        Ok(ArchiveSummary {
            records: self.records_total,
            sealed_segments: self.sealed.len() as u64,
        })
    }

    /// Records appended so far (the checkpoint cursor).
    pub fn records_written(&self) -> u64 {
        self.records_total
    }

    /// Sealed segments so far.
    pub fn sealed_segments(&self) -> u64 {
        self.sealed.len() as u64
    }
}

/// What [`ArchiveWriter::finish`] sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveSummary {
    /// Total records archived.
    pub records: u64,
    /// Sealed segment count.
    pub sealed_segments: u64,
}

/// Re-derives a sealed segment's manifest entry, returning `None`
/// unless header, footer, frame CRC and frame count all check out.
fn clean_sealed_segment(
    dir: &Path,
    name: &str,
    expect_index: u64,
    expect_first: u64,
) -> io::Result<Option<SealedSegment>> {
    let bytes = fs::read(dir.join(name))?;
    let Some(header) = decode_header(&bytes) else {
        return Ok(None);
    };
    let Some(footer) = decode_footer(&bytes) else {
        return Ok(None);
    };
    if header.index != expect_index || header.first_record != expect_first {
        return Ok(None);
    }
    let Some(region) = bytes.get(SEGMENT_HEADER_LEN..bytes.len() - SEGMENT_FOOTER_LEN) else {
        return Ok(None);
    };
    if region.len() as u64 != footer.frame_bytes || segment::crc32(region) != footer.frame_crc {
        return Ok(None);
    }
    let scan = scan_frames(region, 0, |_, payload| decodes_fully(payload));
    if scan.frames != footer.records || scan.corrupt_regions != 0 || scan.truncated_tail {
        return Ok(None);
    }
    Ok(Some(SealedSegment {
        index: header.index,
        first_record: header.first_record,
        records: footer.records,
        frame_bytes: footer.frame_bytes,
        frame_crc: footer.frame_crc,
    }))
}

// ------------------------------------------------------------------ reader

/// What a corruption-tolerant read recovered and what it had to skip.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Records successfully decoded.
    pub records_recovered: u64,
    /// Damaged regions skipped (each destroyed at least one frame).
    pub corrupt_regions: u64,
    /// Total quarantined bytes.
    pub bytes_quarantined: u64,
    /// Quarantined byte ranges, per file.
    pub quarantines: Vec<Quarantine>,
    /// The unsealed tail ended mid-frame (expected after a crash).
    pub truncated_tail: bool,
    /// Segment files visited.
    pub segments_read: u64,
    /// How many of those were sealed (footer intact).
    pub sealed_segments: u64,
}

impl RecoveryReport {
    /// Whether the archive read back with no damage at all.
    pub fn is_clean(&self) -> bool {
        self.corrupt_regions == 0 && !self.truncated_tail && self.bytes_quarantined == 0
    }
}

/// One quarantined byte range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Segment file name.
    pub file: String,
    /// First quarantined byte offset within the file.
    pub start: u64,
    /// One past the last quarantined byte.
    pub end: u64,
}

#[derive(Debug, Default)]
struct ArchiveFiles {
    sealed: Vec<String>,
    tail: Option<String>,
    stray_tmp: Vec<String>,
}

fn archive_segment_files(dir: &Path) -> io::Result<ArchiveFiles> {
    let mut files = ArchiveFiles::default();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(TMP_SUFFIX) {
            files.stray_tmp.push(name);
        } else if name == TAIL_NAME {
            files.tail = Some(name);
        } else if name.starts_with("seg-") && name.ends_with(".mseg") {
            files.sealed.push(name);
        }
    }
    files.sealed.sort();
    Ok(files)
}

fn archive_file_names(dir: &Path) -> io::Result<Vec<String>> {
    let files = archive_segment_files(dir)?;
    let mut names = files.sealed;
    names.extend(files.tail);
    names.extend(files.stray_tmp);
    if dir.join(MANIFEST_NAME).is_file() {
        names.push(MANIFEST_NAME.to_string());
    }
    Ok(names)
}

fn decodes_fully(payload: &[u8]) -> bool {
    let mut buf = payload;
    match wire::decode(&mut buf) {
        Ok(_) => !buf.has_remaining(),
        Err(_) => false,
    }
}

/// The frame region of a segment file: past the (possibly damaged)
/// header, and excluding a valid footer when one is present.
fn frame_region(bytes: &[u8]) -> &[u8] {
    let end = if decode_footer(bytes).is_some() {
        bytes.len() - SEGMENT_FOOTER_LEN
    } else {
        bytes.len()
    };
    bytes.get(SEGMENT_HEADER_LEN.min(end)..end).unwrap_or(&[])
}

/// Streams every recoverable report out of the archive in write
/// order, resynchronising past damage. Reads one segment at a time —
/// memory stays bounded by the segment size regardless of archive
/// size.
///
/// # Errors
///
/// Propagates directory/file I/O errors. Corruption is **not** an
/// error — it is accounted in the returned [`RecoveryReport`].
pub fn read_archive(dir: &Path, sink: impl FnMut(PeerReport)) -> io::Result<RecoveryReport> {
    read_archive_limit(dir, u64::MAX, sink)
}

/// As [`read_archive`], stopping after `limit` records — the
/// checkpoint-resume path replays exactly the archive prefix its
/// cursor covers.
///
/// # Errors
///
/// As [`read_archive`].
pub fn read_archive_limit(
    dir: &Path,
    limit: u64,
    mut sink: impl FnMut(PeerReport),
) -> io::Result<RecoveryReport> {
    let files = archive_segment_files(dir)?;
    let mut report = RecoveryReport::default();
    for name in files.sealed.iter().chain(files.tail.iter()) {
        if report.records_recovered >= limit {
            break;
        }
        let bytes = fs::read(dir.join(name))?;
        report.segments_read += 1;
        let sealed = decode_footer(&bytes).is_some();
        if sealed {
            report.sealed_segments += 1;
        }
        if decode_header(&bytes).is_none() {
            let end = bytes.len().min(SEGMENT_HEADER_LEN) as u64;
            report.corrupt_regions += 1;
            report.bytes_quarantined += end;
            report.quarantines.push(Quarantine {
                file: name.clone(),
                start: 0,
                end,
            });
        }
        let region = frame_region(&bytes);
        let remaining = limit - report.records_recovered;
        let mut taken = 0u64;
        let scan = scan_frames(region, SEGMENT_HEADER_LEN as u64, |_, payload| {
            let mut buf = payload;
            match wire::decode(&mut buf) {
                Ok(r) if !buf.has_remaining() => {
                    if taken < remaining {
                        sink(r);
                        taken += 1;
                    }
                    true
                }
                _ => false,
            }
        });
        report.records_recovered += taken;
        report.corrupt_regions += scan.corrupt_regions;
        report.bytes_quarantined += scan.bytes_quarantined();
        for (start, end) in scan.quarantined {
            report.quarantines.push(Quarantine {
                file: name.clone(),
                start,
                end,
            });
        }
        if scan.truncated_tail {
            report.truncated_tail = true;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferMap;
    use magellan_netsim::{PeerAddr, SimDuration, SimTime};
    use magellan_workload::ChannelId;

    fn report(ip: u32, minute: u64) -> PeerReport {
        PeerReport {
            time: SimTime::ORIGIN + SimDuration::from_mins(minute),
            addr: PeerAddr::from_u32(ip),
            channel: ChannelId::CCTV1,
            buffer_map: BufferMap::new(0, 8),
            download_capacity_kbps: 2000.0,
            upload_capacity_kbps: 512.0,
            recv_throughput_kbps: 400.0,
            send_throughput_kbps: 100.0,
            partners: vec![],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("magellan-archive-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg() -> ArchiveConfig {
        ArchiveConfig { segment_bytes: 512 }
    }

    fn write_n(dir: &Path, n: u32) -> ArchiveSummary {
        let mut w = ArchiveWriter::create(dir, small_cfg()).unwrap();
        for i in 0..n {
            w.append(&report(i + 1, 20 + u64::from(i))).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_across_segments() {
        let dir = temp_dir("roundtrip");
        let summary = write_n(&dir, 40);
        assert!(summary.sealed_segments >= 2, "want a multi-segment archive");
        let mut got = Vec::new();
        let rec = read_archive(&dir, |r| got.push(r.addr.as_u32())).unwrap();
        assert!(rec.is_clean(), "{rec:?}");
        assert_eq!(rec.records_recovered, 40);
        assert_eq!(got, (1..=40).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_matches_directory() {
        let dir = temp_dir("manifest");
        let summary = write_n(&dir, 40);
        let m = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(m.sealed.len() as u64, summary.sealed_segments);
        assert_eq!(m.segment_bytes, small_cfg().segment_bytes);
        assert_eq!(
            m.sealed.iter().map(|s| s.records).sum::<u64>(),
            summary.records
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_loses_only_damaged_frame() {
        let dir = temp_dir("bitflip");
        write_n(&dir, 40);
        // Damage one payload byte in the middle of the first sealed
        // segment's frame region.
        let path = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let mid = SEGMENT_HEADER_LEN + (bytes.len() - SEGMENT_HEADER_LEN) / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let mut got = Vec::new();
        let rec = read_archive(&dir, |r| got.push(r.addr.as_u32())).unwrap();
        assert_eq!(rec.corrupt_regions, 1);
        assert_eq!(rec.records_recovered, 39);
        assert!(rec.bytes_quarantined > 0);
        assert!(!rec.truncated_tail);
        // Everything except exactly one record survives, order kept.
        let missing: Vec<u32> = (1..=40).filter(|i| !got.contains(i)).collect();
        assert_eq!(missing.len(), 1, "exactly one frame lost: {missing:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let dir = temp_dir("trunc");
        let mut w = ArchiveWriter::create(&dir, small_cfg()).unwrap();
        for i in 0..6u32 {
            w.append(&report(i + 1, 20 + u64::from(i))).unwrap();
        }
        w.sync().unwrap();
        drop(w); // crash: tail never sealed
        let tail = dir.join(TAIL_NAME);
        let mut bytes = fs::read(&tail).unwrap();
        bytes.truncate(bytes.len() - 7);
        fs::write(&tail, &bytes).unwrap();

        let mut got = 0u64;
        let rec = read_archive(&dir, |_| got += 1).unwrap();
        assert!(rec.truncated_tail);
        assert_eq!(rec.corrupt_regions, 0);
        assert_eq!(rec.records_recovered, got);
        assert_eq!(got, 5, "all but the torn final frame recovered");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_to_cursor_byte_identically() {
        let dir_full = temp_dir("resume-full");
        write_n(&dir_full, 40);

        // Interrupted run: 25 records written, checkpoint cursor 20,
        // crash leaves a torn tail.
        let dir_cut = temp_dir("resume-cut");
        let mut w = ArchiveWriter::create(&dir_cut, small_cfg()).unwrap();
        for i in 0..25u32 {
            w.append(&report(i + 1, 20 + u64::from(i))).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let tail = dir_cut.join(TAIL_NAME);
        let mut bytes = fs::read(&tail).unwrap();
        bytes.truncate(bytes.len().saturating_sub(5));
        fs::write(&tail, &bytes).unwrap();

        let mut w = ArchiveWriter::resume(&dir_cut, small_cfg(), 20).unwrap();
        assert_eq!(w.records_written(), 20);
        for i in 20..40u32 {
            w.append(&report(i + 1, 20 + u64::from(i))).unwrap();
        }
        w.finish().unwrap();

        // Byte-identical to the uninterrupted archive, file by file.
        let full = archive_segment_files(&dir_full).unwrap();
        let cut = archive_segment_files(&dir_cut).unwrap();
        assert_eq!(full.sealed, cut.sealed);
        assert_eq!(full.tail, cut.tail);
        for name in &full.sealed {
            assert_eq!(
                fs::read(dir_full.join(name)).unwrap(),
                fs::read(dir_cut.join(name)).unwrap(),
                "{name} differs"
            );
        }
        assert_eq!(
            fs::read(dir_full.join(MANIFEST_NAME)).unwrap(),
            fs::read(dir_cut.join(MANIFEST_NAME)).unwrap()
        );
        fs::remove_dir_all(&dir_full).unwrap();
        fs::remove_dir_all(&dir_cut).unwrap();
    }

    /// Where commits fall never shows in the bytes: a writer synced
    /// after every report and one that only ever `finish`es leave the
    /// same directory. Segments large enough that the staging buffer
    /// spills mid-segment, too.
    #[test]
    fn commit_placement_never_changes_bytes() {
        for (segment_bytes, n) in [(512u64, 40u32), (160 * 1024, 4000)] {
            let cfg = ArchiveConfig { segment_bytes };
            let dir_each = temp_dir("commit-each");
            let dir_once = temp_dir("commit-once");
            let mut each = ArchiveWriter::create(&dir_each, cfg).unwrap();
            let mut once = ArchiveWriter::create(&dir_once, cfg).unwrap();
            for i in 0..n {
                let r = report(i + 1, 20 + u64::from(i));
                each.append(&r).unwrap();
                each.sync().unwrap();
                once.append(&r).unwrap();
            }
            let summary = each.finish().unwrap();
            assert_eq!(summary, once.finish().unwrap());
            assert!(summary.sealed_segments >= 2);
            let names = archive_file_names(&dir_each).unwrap();
            assert_eq!(names, archive_file_names(&dir_once).unwrap());
            for name in &names {
                assert_eq!(
                    fs::read(dir_each.join(name)).unwrap(),
                    fs::read(dir_once.join(name)).unwrap(),
                    "{name} differs at segment_bytes {segment_bytes}"
                );
            }
            fs::remove_dir_all(&dir_each).unwrap();
            fs::remove_dir_all(&dir_once).unwrap();
        }
    }

    /// A commit owns what it covers: made durable after the writer
    /// moved on — sealed the very tail it holds, even finished — it
    /// still lands, and the manifest it carries lists exactly the
    /// segments sealed when it was taken.
    #[test]
    fn commit_carries_the_manifest_of_its_own_moment() {
        let dir = temp_dir("commit-manifest");
        let mut w = ArchiveWriter::create(&dir, small_cfg()).unwrap();
        for i in 0..12u32 {
            w.append(&report(i + 1, 20 + u64::from(i))).unwrap();
        }
        let sealed_then = w.sealed_segments();
        assert!(sealed_then >= 1);
        let commit = w.commit().unwrap();
        assert_eq!(commit.records(), 12);
        // Until it runs, the manifest on disk is still `create`'s.
        assert!(read_manifest(&dir).unwrap().unwrap().sealed.is_empty());
        for i in 12..40u32 {
            w.append(&report(i + 1, 20 + u64::from(i))).unwrap();
        }
        assert!(w.sealed_segments() > sealed_then);
        commit.make_durable().unwrap();
        let m = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(m.sealed.len() as u64, sealed_then);
        // A commit with no seal since the last one rewrites nothing.
        let sealed_now = w.sealed_segments();
        w.commit().unwrap().make_durable().unwrap();
        let quiet = w.commit().unwrap();
        assert!(quiet.manifest.is_none());
        quiet.make_durable().unwrap();
        let m = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(m.sealed.len() as u64, sealed_now);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_fails_when_cursor_unrecoverable() {
        let dir = temp_dir("resume-bad");
        write_n(&dir, 10);
        let err = ArchiveWriter::resume(&dir, small_cfg(), 99).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }
}
