//! Checkpoint files: the crash-safe envelope around simulation state.
//!
//! A checkpoint is an opaque body (the simulator's serialized state)
//! wrapped in a self-validating envelope: magic, version, a
//! configuration **fingerprint** (resume refuses state from a
//! different scenario), the simulation tick it captures, and a CRC32
//! over the body. Files are written atomically
//! ([`crate::atomicio::atomic_write`]) and named by tick, so the
//! resume path can walk candidates newest-first and fall back past a
//! damaged one.

use crate::atomicio::atomic_write;
use crate::segment::{crc32_finish, crc32_update, CRC32_INIT};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Marks every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"MGCKPT\x001";

/// Current envelope version.
pub const CHECKPOINT_VERSION: u32 = 1;

const ENVELOPE_LEN: usize = 8 + 4 + 8 + 8 + 8 + 4;

/// A decoded checkpoint envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFile {
    /// Fingerprint of the configuration that produced the state.
    pub fingerprint: u64,
    /// Simulation tick the state captures.
    pub tick: u64,
    /// The serialized simulator state.
    pub body: Vec<u8>,
}

/// Encodes an envelope around a serialized body. The CRC covers the
/// header fields *and* the body, so damage anywhere is detected.
pub fn encode_checkpoint(fingerprint: u64, tick: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_LEN + body.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_be_bytes());
    out.extend_from_slice(&fingerprint.to_be_bytes());
    out.extend_from_slice(&tick.to_be_bytes());
    out.extend_from_slice(&(body.len() as u64).to_be_bytes());
    let crc = crc32_finish(crc32_update(crc32_update(CRC32_INIT, &out), body));
    out.extend_from_slice(&crc.to_be_bytes());
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

/// Decodes and verifies a checkpoint file. `None` means the file is
/// truncated, damaged, or from an incompatible version — the caller
/// should fall back to an earlier checkpoint.
pub fn decode_checkpoint(bytes: &[u8]) -> Option<CheckpointFile> {
    if bytes.get(0..8)? != CHECKPOINT_MAGIC {
        return None;
    }
    if get_u32(bytes, 8)? != CHECKPOINT_VERSION {
        return None;
    }
    let fingerprint = get_u64(bytes, 12)?;
    let tick = get_u64(bytes, 20)?;
    let body_len = get_u64(bytes, 28)? as usize;
    let stored_crc = get_u32(bytes, 36)?;
    let body = bytes.get(ENVELOPE_LEN..ENVELOPE_LEN.checked_add(body_len)?)?;
    if bytes.len() != ENVELOPE_LEN + body_len {
        return None;
    }
    let crc = crc32_finish(crc32_update(crc32_update(CRC32_INIT, &bytes[0..36]), body));
    if crc != stored_crc {
        return None;
    }
    Some(CheckpointFile {
        fingerprint,
        tick,
        body: body.to_vec(),
    })
}

/// The canonical checkpoint path for a tick.
pub fn checkpoint_path(dir: &Path, tick: u64) -> PathBuf {
    dir.join(format!("ckpt-{tick:010}.ckpt"))
}

/// Atomically writes a checkpoint for `tick` into `dir`.
///
/// # Errors
///
/// Propagates the underlying write failure.
pub fn write_checkpoint(dir: &Path, fingerprint: u64, tick: u64, body: &[u8]) -> io::Result<()> {
    atomic_write(
        &checkpoint_path(dir, tick),
        &encode_checkpoint(fingerprint, tick, body),
    )
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
        let bytes = fs::read(&path)?;
        let restored = decode_checkpoint(&bytes)
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
        let dec = decode_checkpoint(&enc).unwrap();
        assert_eq!((dec.fingerprint, dec.tick), (0xFEED, 42));
        assert_eq!(dec.body, body);
        // Truncation, bit flips anywhere, trailing garbage: all rejected.
        assert!(decode_checkpoint(&enc[..enc.len() - 1]).is_none());
        for i in [0usize, 9, 15, 25, 33, 39, 45] {
            let mut bad = enc.clone();
            bad[i] ^= 0x10;
            assert!(decode_checkpoint(&bad).is_none(), "flip at {i} accepted");
        }
        let mut long = enc.clone();
        long.push(0);
        assert!(decode_checkpoint(&long).is_none());
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

        let whole = |c: &CheckpointFile| Some((c.tick, c.body.clone()));
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
        let picky = |c: &CheckpointFile| (c.body == b"sound").then_some(c.tick);
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
