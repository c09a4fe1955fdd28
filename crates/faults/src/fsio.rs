//! Crash-safe file writes: temp-file + fsync + atomic rename + directory
//! fsync. A crash (or SIGKILL) at any instant leaves either the previous
//! file contents or the complete new contents at the target path — never a
//! truncated hybrid, which is what a plain `std::fs::write` risks.
//!
//! Failpoints (see the crate docs for activation):
//!
//! | name | effect |
//! |---|---|
//! | `fsio.write` | `err` fails the data write; `partial(n)` persists only the first `n` bytes of the temp file, then fails (the rename never happens) |
//! | `fsio.fsync` | fail the file fsync |
//! | `fsio.rename` | fail the atomic rename |

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{eval, failpoint, injected_error, Action};

/// Distinguishes temp files across threads of one process (the pid alone is
/// not enough — parallel tests write concurrently).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_path_for(path: &Path, dir: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("artifact");
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!(".{name}.tmp.{}.{seq}", std::process::id()))
}

/// Writes `bytes` to `path` atomically: parent directories are created if
/// absent, the data goes to a temp file in the target directory, is fsynced,
/// and is renamed over the target; finally the directory entry is fsynced.
/// On any failure the temp file is removed and the target is untouched.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    fs::create_dir_all(&dir)?;
    let tmp = tmp_path_for(path, &dir);
    let result = write_and_rename(&tmp, path, &dir, bytes);
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn write_and_rename(tmp: &Path, path: &Path, dir: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(tmp)?;
    if crate::enabled() {
        match eval("fsio.write") {
            Some(Action::Err(msg)) => return Err(injected_error("fsio.write", msg)),
            Some(Action::Partial(n)) => {
                // A torn write: some bytes land, then the "crash".
                file.write_all(&bytes[..n.min(bytes.len())])?;
                let _ = file.sync_all();
                return Err(injected_error("fsio.write", Some("partial write".to_string())));
            }
            _ => {}
        }
    }
    file.write_all(bytes)?;
    failpoint!("fsio.fsync");
    file.sync_all()?;
    drop(file);
    failpoint!("fsio.rename");
    fs::rename(tmp, path)?;
    // Persist the rename itself: fsync the containing directory so the new
    // directory entry survives power loss (best-effort on non-Unix).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{configure, FailScenario};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("edge_fsio_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_temp_litter(dir: &Path) -> bool {
        fs::read_dir(dir)
            .unwrap()
            .all(|e| !e.unwrap().file_name().to_string_lossy().contains(".tmp."))
    }

    #[test]
    fn writes_bytes_and_creates_parents() {
        let _s = FailScenario::setup();
        let dir = tmp_dir("ok");
        let path = dir.join("nested/deeper/out.bin");
        atomic_write(&path, b"payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        assert!(no_temp_litter(path.parent().unwrap()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_replaces_whole_file() {
        let _s = FailScenario::setup();
        let dir = tmp_dir("overwrite");
        let path = dir.join("out.bin");
        atomic_write(&path, b"a much longer original payload").unwrap();
        atomic_write(&path, b"short").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"short");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_error_leaves_target_untouched() {
        let _s = FailScenario::setup();
        let dir = tmp_dir("err");
        let path = dir.join("out.bin");
        atomic_write(&path, b"original").unwrap();
        configure("fsio.write", "err(no space)").unwrap();
        let err = atomic_write(&path, b"replacement").unwrap_err();
        assert!(err.to_string().contains("no space"));
        assert_eq!(fs::read(&path).unwrap(), b"original", "target must keep old contents");
        assert!(no_temp_litter(&dir), "failed write must clean its temp file");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_write_never_reaches_target() {
        let _s = FailScenario::setup();
        let dir = tmp_dir("partial");
        let path = dir.join("out.bin");
        atomic_write(&path, b"original").unwrap();
        configure("fsio.write", "partial(3)").unwrap();
        assert!(atomic_write(&path, b"replacement").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"original");
        assert!(no_temp_litter(&dir));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_and_rename_failpoints_are_typed_errors() {
        let _s = FailScenario::setup();
        let dir = tmp_dir("late");
        let path = dir.join("out.bin");
        for fp in ["fsio.fsync", "fsio.rename"] {
            configure(fp, "1*err").unwrap();
            let err = atomic_write(&path, b"data").unwrap_err();
            assert!(err.to_string().contains(fp), "{err}");
            assert!(!path.exists(), "{fp} failure must not surface a file");
            assert!(no_temp_litter(&dir));
        }
        fs::remove_dir_all(&dir).ok();
    }
}
