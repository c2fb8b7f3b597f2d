//! Checkpoint files: the crash-safe envelope around simulation state.
//!
//! A checkpoint is an opaque body (the simulator's serialized state)
//! wrapped in a self-validating envelope: magic, version, a
//! configuration **fingerprint** (resume refuses state from a
//! different scenario), the simulation tick it captures, and a CRC32
//! over the body. Files are written atomically
//! ([`crate::atomicio::atomic_write_with`]) and named by tick, so the
//! resume path can walk candidates newest-first and fall back past a
//! damaged one.
//!
//! [`write_checkpoint_with`] streams the body into the file through
//! one write buffer: a placeholder header goes first, the body follows
//! while its length and CRC are summed on the way, and the real header
//! is patched in last, before the file is synced and renamed into
//! place. No copy of the body is ever held in memory.

use crate::atomicio::atomic_write_with;
use crate::segment::{crc32, crc32_combine, crc32_finish, crc32_update, CRC32_INIT};
use std::fs::{self, File};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Marks every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"MGCKPT\x001";

/// Current envelope version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Header bytes before the body: magic, version, fingerprint, tick,
/// body length, CRC.
const ENVELOPE_LEN: usize = 8 + 4 + 8 + 8 + 8 + 4;

/// The header bytes the CRC covers (all but the CRC itself).
const CRC_COVERED: usize = ENVELOPE_LEN - 4;

/// Write buffer between a streamed body and the file.
const BODY_BUFFER_BYTES: usize = 64 * 1024;

/// A decoded checkpoint envelope. It owns the file's bytes and lends
/// out the body, so a verified checkpoint is held in memory once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFile {
    /// Fingerprint of the configuration that produced the state.
    pub fingerprint: u64,
    /// Simulation tick the state captures.
    pub tick: u64,
    /// The whole file; the body starts after the header.
    bytes: Vec<u8>,
}

impl CheckpointFile {
    /// The serialized simulator state.
    pub fn body(&self) -> &[u8] {
        self.bytes.get(ENVELOPE_LEN..).unwrap_or_default()
    }
}

/// The header of a body of `body_len` bytes whose own CRC32 is
/// `body_crc`. The stored CRC covers the header fields *and* the
/// body, so damage anywhere is detected.
fn envelope(fingerprint: u64, tick: u64, body_len: u64, body_crc: u32) -> [u8; ENVELOPE_LEN] {
    let mut head = [0u8; ENVELOPE_LEN];
    let fields: [&[u8]; 5] = [
        &CHECKPOINT_MAGIC,
        &CHECKPOINT_VERSION.to_be_bytes(),
        &fingerprint.to_be_bytes(),
        &tick.to_be_bytes(),
        &body_len.to_be_bytes(),
    ];
    let mut at = 0;
    for field in fields {
        head[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    }
    let crc = crc32_combine(crc32(&head[..CRC_COVERED]), body_crc, body_len);
    head[CRC_COVERED..].copy_from_slice(&crc.to_be_bytes());
    head
}

/// Encodes an envelope around a serialized body, in memory. The
/// bytes equal the file [`write_checkpoint_with`] streams.
pub fn encode_checkpoint(fingerprint: u64, tick: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_LEN + body.len());
    out.extend_from_slice(&envelope(fingerprint, tick, body.len() as u64, crc32(body)));
    out.extend_from_slice(body);
    out
}

fn get_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let raw = bytes.get(at..at + 4)?;
    Some(u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]))
}

fn get_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let raw = bytes.get(at..at + 8)?;
    Some(u64::from_be_bytes([
        raw[0], raw[1], raw[2], raw[3], raw[4], raw[5], raw[6], raw[7],
    ]))
}

/// Decodes and verifies a checkpoint file, keeping its bytes. `None`
/// means the file is truncated, damaged, or from an incompatible
/// version — the caller should fall back to an earlier checkpoint.
pub fn decode_checkpoint(bytes: Vec<u8>) -> Option<CheckpointFile> {
    if bytes.get(0..8)? != CHECKPOINT_MAGIC {
        return None;
    }
    if get_u32(&bytes, 8)? != CHECKPOINT_VERSION {
        return None;
    }
    let fingerprint = get_u64(&bytes, 12)?;
    let tick = get_u64(&bytes, 20)?;
    let body_len = usize::try_from(get_u64(&bytes, 28)?).ok()?;
    let stored_crc = get_u32(&bytes, CRC_COVERED)?;
    if bytes.len() != ENVELOPE_LEN.checked_add(body_len)? {
        return None;
    }
    let crc = crc32_finish(crc32_update(
        crc32_update(CRC32_INIT, &bytes[..CRC_COVERED]),
        &bytes[ENVELOPE_LEN..],
    ));
    if crc != stored_crc {
        return None;
    }
    Some(CheckpointFile {
        fingerprint,
        tick,
        bytes,
    })
}

/// The canonical checkpoint path for a tick.
pub fn checkpoint_path(dir: &Path, tick: u64) -> PathBuf {
    dir.join(format!("ckpt-{tick:010}.ckpt"))
}

/// Counts and checksums the bytes on their way to the file.
struct Summing<W> {
    inner: W,
    crc_state: u32,
    len: u64,
}

impl<W: Write> Write for Summing<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        let taken = buf.get(..n).unwrap_or_default();
        self.crc_state = crc32_update(self.crc_state, taken);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Where [`write_checkpoint_with`]'s producer writes the body: one
/// write buffer in front of the file, summing length and CRC of what
/// passes through it.
pub struct BodyWriter<'a>(BufWriter<Summing<&'a mut File>>);

impl Write for BodyWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Atomically writes a checkpoint for `tick` into `dir`, streaming the
/// body `fill` writes (see the module docs). Returns the body's
/// length. The file's bytes equal
/// [`encode_checkpoint`]`(fingerprint, tick, body)`.
///
/// # Errors
///
/// Whatever `fill` returns, or the underlying write failure. Either
/// way nothing appears under the checkpoint's name.
pub fn write_checkpoint_with(
    dir: &Path,
    fingerprint: u64,
    tick: u64,
    fill: impl FnOnce(&mut BodyWriter<'_>) -> io::Result<()>,
) -> io::Result<u64> {
    atomic_write_with(&checkpoint_path(dir, tick), |file| {
        file.write_all(&[0u8; ENVELOPE_LEN])?;
        let (len, crc) = {
            let mut body = BodyWriter(BufWriter::with_capacity(
                BODY_BUFFER_BYTES,
                Summing {
                    inner: &mut *file,
                    crc_state: CRC32_INIT,
                    len: 0,
                },
            ));
            fill(&mut body)?;
            let summed = body
                .0
                .into_inner()
                .map_err(io::IntoInnerError::into_error)?;
            (summed.len, crc32_finish(summed.crc_state))
        };
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&envelope(fingerprint, tick, len, crc))?;
        Ok(len)
    })
}

/// Atomically writes a checkpoint of an in-memory body for `tick` into
/// `dir`.
///
/// # Errors
///
/// Propagates the underlying write failure.
pub fn write_checkpoint(dir: &Path, fingerprint: u64, tick: u64, body: &[u8]) -> io::Result<()> {
    write_checkpoint_with(dir, fingerprint, tick, |w| w.write_all(body)).map(drop)
}

/// Checkpoint files present in `dir`, oldest first.
///
/// # Errors
///
/// Propagates directory-listing failures.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("ckpt-") && name.ends_with(".ckpt") {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

/// Walks checkpoints newest-first and returns what `decode_body` makes
/// of the first one whose envelope verifies, whose fingerprint matches,
/// and whose body `decode_body` accepts — tolerating a torn or stale
/// latest file, exactly the crash case checkpoints exist for, and
/// equally a sealed body the state decoder refuses.
///
/// # Errors
///
/// Propagates directory/file I/O failures. A missing or universally
/// damaged set of checkpoints is `Ok(None)`.
pub fn latest_valid_checkpoint<T>(
    dir: &Path,
    fingerprint: u64,
    mut decode_body: impl FnMut(&CheckpointFile) -> Option<T>,
) -> io::Result<Option<T>> {
    for path in list_checkpoints(dir)?.into_iter().rev() {
        let restored = decode_checkpoint(fs::read(&path)?)
            .filter(|ckpt| ckpt.fingerprint == fingerprint)
            .and_then(|ckpt| decode_body(&ckpt));
        if restored.is_some() {
            return Ok(restored);
        }
    }
    Ok(None)
}

/// Deletes all but the newest `keep` checkpoints.
///
/// # Errors
///
/// Propagates directory/file I/O failures.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> io::Result<()> {
    let paths = list_checkpoints(dir)?;
    let excess = paths.len().saturating_sub(keep);
    for path in paths.into_iter().take(excess) {
        fs::remove_file(path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("magellan-ckpt-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn envelope_roundtrips_and_rejects_damage() {
        let body = b"simulator state bytes".to_vec();
        let enc = encode_checkpoint(0xFEED, 42, &body);
        let dec = decode_checkpoint(enc.clone()).unwrap();
        assert_eq!((dec.fingerprint, dec.tick), (0xFEED, 42));
        assert_eq!(dec.body(), body);
        // Truncation, bit flips anywhere, trailing garbage: all rejected.
        assert!(decode_checkpoint(enc[..enc.len() - 1].to_vec()).is_none());
        for i in [0usize, 9, 15, 25, 33, 39, 45] {
            let mut bad = enc.clone();
            bad[i] ^= 0x10;
            assert!(decode_checkpoint(bad).is_none(), "flip at {i} accepted");
        }
        let mut long = enc.clone();
        long.push(0);
        assert!(decode_checkpoint(long).is_none());
    }

    #[test]
    fn streamed_file_equals_the_encoded_envelope() {
        // Bodies below, at and well past the write buffer, written in
        // ragged pieces: the file is the in-memory envelope, byte for
        // byte, header patched after the body included.
        let dir = temp_dir("streamed");
        for (tick, len) in [
            (1u64, 0usize),
            (2, 13),
            (3, BODY_BUFFER_BYTES),
            (4, 200_003),
        ] {
            let body: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
            let written = write_checkpoint_with(&dir, 0xC0DE, tick, |w| {
                for piece in body.chunks(7 + tick as usize * 997) {
                    w.write_all(piece)?;
                }
                Ok(())
            })
            .unwrap();
            assert_eq!(written, len as u64);
            let file = fs::read(checkpoint_path(&dir, tick)).unwrap();
            assert_eq!(file, encode_checkpoint(0xC0DE, tick, &body), "len {len}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_body_leaves_the_previous_checkpoint_newest() {
        let dir = temp_dir("failed-body");
        write_checkpoint(&dir, 7, 100, b"older").unwrap();
        let err = write_checkpoint_with(&dir, 7, 200, |w| {
            w.write_all(&[9u8; 3 * BODY_BUFFER_BYTES / 2])?;
            Err(io::Error::other("producer died"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "producer died");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["ckpt-0000000100.ckpt"]);
        let tick = |c: &CheckpointFile| Some(c.tick);
        assert_eq!(latest_valid_checkpoint(&dir, 7, tick).unwrap(), Some(100));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_falls_back_past_damage() {
        let dir = temp_dir("fallback");
        write_checkpoint(&dir, 7, 100, b"older").unwrap();
        write_checkpoint(&dir, 7, 200, b"newer").unwrap();
        // Newest gets torn by the crash.
        let newest = checkpoint_path(&dir, 200);
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() - 3]).unwrap();

        let whole = |c: &CheckpointFile| Some((c.tick, c.body().to_vec()));
        let got = latest_valid_checkpoint(&dir, 7, whole).unwrap().unwrap();
        assert_eq!(got, (100, b"older".to_vec()));
        // A different fingerprint matches nothing.
        assert!(latest_valid_checkpoint(&dir, 8, whole).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_falls_back_past_a_body_the_decoder_refuses() {
        // The envelope vouches for the bytes, not for their meaning: a
        // sealed body the state decoder rejects must cost one
        // checkpoint interval, not the whole run.
        let dir = temp_dir("refused");
        write_checkpoint(&dir, 7, 100, b"sound").unwrap();
        write_checkpoint(&dir, 7, 200, b"damaged").unwrap();
        let picky = |c: &CheckpointFile| (c.body() == b"sound").then_some(c.tick);
        assert_eq!(latest_valid_checkpoint(&dir, 7, picky).unwrap(), Some(100));
        let refuse = |_: &CheckpointFile| None::<u64>;
        assert_eq!(latest_valid_checkpoint(&dir, 7, refuse).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = temp_dir("prune");
        for tick in [10, 20, 30, 40] {
            write_checkpoint(&dir, 1, tick, b"x").unwrap();
        }
        prune_checkpoints(&dir, 2).unwrap();
        let left = list_checkpoints(&dir).unwrap();
        assert_eq!(left.len(), 2);
        assert!(left[0].ends_with("ckpt-0000000030.ckpt"));
        assert!(left[1].ends_with("ckpt-0000000040.ckpt"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
