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
/// destination is untouched (a stale `.tmp` may remain and is safe to
/// delete or overwrite).
///
/// # Errors
///
/// Propagates the underlying I/O error from create/write/sync/rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
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
}
