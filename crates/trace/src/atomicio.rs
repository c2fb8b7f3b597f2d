//! Crash-safe file emission: write-temp-then-atomic-rename.
//!
//! Every whole-file artifact the workspace persists (checkpoints, the
//! `INGEST` and `INGEST.resume` sidecars, study configs and reports,
//! bench metrics, figures) goes through [`atomic_write`], so an
//! interrupted process can leave behind a stale `*.tmp` file but never
//! a half-written artifact under its final name. Readers that find a
//! `*.tmp` simply ignore it. Archive segments are not written this
//! way: they grow in place and seal by rename ([`crate::archive`]).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Suffix appended to the destination name while the bytes are in
/// flight. Cleanup helpers and archive readers skip files ending in
/// this suffix.
pub const TMP_SUFFIX: &str = ".tmp";

/// The in-flight temporary path for a destination path.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// Writes `bytes` to `path` atomically: the data lands in
/// `<path>.tmp` first, is flushed and synced to stable storage, and
/// only then renamed over the destination. On any failure the
/// destination is untouched and the temporary is removed (a crash
/// mid-write can still leave one behind; it is safe to delete or
/// overwrite).
///
/// # Errors
///
/// Propagates the underlying I/O error from create/write/sync/rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |f| f.write_all(bytes))
}

/// As [`atomic_write`], with `fill` writing the contents straight into
/// the temporary file, so an artifact can be streamed to disk instead
/// of assembled in memory first. `fill` may seek and rewrite what it
/// wrote (a header patched after its body); the file is synced only
/// once `fill` returns, and renamed only after that.
///
/// # Errors
///
/// Whatever `fill` returns, or the I/O error from create/sync/rename.
pub fn atomic_write_with<T>(
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<T>,
) -> io::Result<T> {
    let tmp = tmp_path(path);
    let written = File::create(&tmp).and_then(|mut f| {
        let out = fill(&mut f)?;
        f.sync_all()?;
        Ok(out)
    });
    let renamed = written.and_then(|out| fs::rename(&tmp, path).map(|()| out));
    if renamed.is_err() {
        // Best effort: the error being returned matters more than a
        // leftover temporary, which readers skip anyway.
        let _ = fs::remove_file(&tmp);
    }
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_replaces() {
        let dir = std::env::temp_dir().join("magellan-atomicio-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.txt");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(
            !tmp_path(&path).exists(),
            "temp file must not survive a successful write"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fill_leaves_neither_destination_nor_temporary() {
        let dir = std::env::temp_dir().join("magellan-atomicio-failed-fill");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.txt");
        let err = atomic_write_with(&path, |f| {
            f.write_all(b"half")?;
            Err::<(), _>(io::Error::other("producer failed"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "producer failed");
        assert!(!path.exists());
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
