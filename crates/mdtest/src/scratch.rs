//! Scratch directories for the harnesses that touch a real filesystem.

use std::path::{Path, PathBuf};

/// A fresh directory under `$TMPDIR`, named after `tag` and this process,
/// removed with everything in it when dropped — on an early return or an
/// unwinding panic too, which is what keeps a tripped gate from leaving
/// WAL segments and extent logs behind.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `$TMPDIR/dufs-<tag>-<pid>`, emptying whatever a killed run
    /// with a recycled pid left there.
    pub fn new(tag: &str) -> ScratchDir {
        let path = std::env::temp_dir().join(format!("dufs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir(path)
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// `n` sibling paths `t0..t<n>` inside the directory (not created): one
    /// per storage target or ensemble member.
    pub fn targets(&self, n: usize) -> Vec<PathBuf> {
        (0..n).map(|t| self.0.join(format!("t{t}"))).collect()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_on_drop_and_on_unwind() {
        let dir = ScratchDir::new("scratch-test");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").expect("write inside");
        drop(dir);
        assert!(!path.exists());

        let unwound = std::panic::catch_unwind(|| {
            let dir = ScratchDir::new("scratch-test-unwind");
            std::fs::write(dir.targets(1)[0].with_extension("log"), b"x").expect("write inside");
            panic!("gate tripped");
        });
        assert!(unwound.is_err());
        let leaked =
            std::env::temp_dir().join(format!("dufs-scratch-test-unwind-{}", std::process::id()));
        assert!(!leaked.exists());
    }
}
