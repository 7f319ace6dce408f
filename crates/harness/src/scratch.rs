//! Unique scratch directories that clean up after themselves.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes the directories one process creates.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under the system temp dir, named
/// `rwc_<tag>_<pid>_<n>` with `n` from a process-wide counter, and
/// removed (with everything in it) on drop. Two tests, two threads or
/// two concurrent runs never share one, so none can delete a file
/// another is still using.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates the directory. A leftover of the same name (a crashed
    /// process whose pid came round again) is removed first.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("rwc_{tag}_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::new("scratch").unwrap();
        let b = ScratchDir::new("scratch").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), "x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }
}
