//! Functional POSIX-style namespace for a back-end parallel filesystem.
//!
//! This is the metadata half of the stand-in for Lustre/PVFS2: a real
//! hierarchical namespace with files, directories and symlinks, so mdtest
//! workloads and DUFS's physical FID paths operate against working storage.
//! A regular file's size lives here, in its attribute, beside the
//! [`ObjectId`] its bytes are stored under.

use std::collections::{BTreeSet, HashMap};

use crate::attr::{FileAttr, FileKind};
use crate::error::{FsError, FsResult};

/// Identifies the data object holding one regular file's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

/// Minimal path helpers (absolute, `/`-separated, no `.`/`..`).
mod pathutil {
    use crate::error::{FsError, FsResult};

    pub const ROOT: &str = "/";

    pub fn validate(p: &str) -> FsResult<()> {
        if p.is_empty() || !p.starts_with('/') {
            return Err(FsError::Inval);
        }
        if p == ROOT {
            return Ok(());
        }
        if p.ends_with('/') {
            return Err(FsError::Inval);
        }
        for c in p[1..].split('/') {
            if c.is_empty() || c == "." || c == ".." || c.contains('\0') {
                return Err(FsError::Inval);
            }
        }
        Ok(())
    }

    pub fn parent(p: &str) -> Option<&str> {
        if p == ROOT {
            return None;
        }
        match p.rfind('/') {
            Some(0) => Some(ROOT),
            Some(i) => Some(&p[..i]),
            None => None,
        }
    }

    pub fn basename(p: &str) -> &str {
        if p == ROOT {
            ""
        } else {
            &p[p.rfind('/').map(|i| i + 1).unwrap_or(0)..]
        }
    }

    #[allow(dead_code)] // parity with the zkstore path helpers
    pub fn join(parent: &str, name: &str) -> String {
        if parent == ROOT {
            format!("/{name}")
        } else {
            format!("{parent}/{name}")
        }
    }
}

#[derive(Debug, Clone)]
struct NsNode {
    attr: FileAttr,
    children: BTreeSet<String>,
    /// Symlink target, if a symlink.
    target: Option<String>,
    /// Backing data object, if a regular file.
    object: Option<ObjectId>,
}

/// An in-memory hierarchical namespace.
#[derive(Debug, Clone)]
pub struct Namespace {
    nodes: HashMap<String, NsNode>,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    /// A namespace holding only `/`.
    pub fn new() -> Self {
        let mut nodes = HashMap::new();
        nodes.insert(
            pathutil::ROOT.to_string(),
            NsNode {
                attr: FileAttr::dir(0),
                children: BTreeSet::new(),
                target: None,
                object: None,
            },
        );
        Namespace { nodes }
    }

    fn node(&self, p: &str) -> FsResult<&NsNode> {
        pathutil::validate(p)?;
        self.nodes.get(p).ok_or(FsError::NoEnt)
    }

    fn node_mut(&mut self, p: &str) -> FsResult<&mut NsNode> {
        pathutil::validate(p)?;
        self.nodes.get_mut(p).ok_or(FsError::NoEnt)
    }

    fn dir_mut(&mut self, p: &str) -> FsResult<&mut NsNode> {
        let n = self.node_mut(p)?;
        if n.attr.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        Ok(n)
    }

    /// Number of entries excluding the root.
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attributes of the entry at `p`.
    pub fn stat(&self, p: &str) -> FsResult<FileAttr> {
        Ok(self.node(p)?.attr)
    }

    /// Whether `p` exists.
    pub fn exists(&self, p: &str) -> bool {
        pathutil::validate(p).is_ok() && self.nodes.contains_key(p)
    }

    /// The data object backing the file at `p`.
    pub fn object_of(&self, p: &str) -> FsResult<ObjectId> {
        let n = self.node(p)?;
        match n.attr.kind {
            FileKind::File => n.object.ok_or(FsError::Stale),
            FileKind::Dir => Err(FsError::IsDir),
            FileKind::Symlink => Err(FsError::Inval),
        }
    }

    /// Sorted names in the directory at `p`.
    pub fn readdir(&self, p: &str) -> FsResult<Vec<String>> {
        let n = self.node(p)?;
        if n.attr.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        Ok(n.children.iter().cloned().collect())
    }

    /// Create a directory.
    pub fn mkdir(&mut self, p: &str, mode: u32, now_ns: u64) -> FsResult<()> {
        pathutil::validate(p)?;
        if self.nodes.contains_key(p) {
            return Err(FsError::Exists);
        }
        let parent = pathutil::parent(p).ok_or(FsError::Inval)?.to_string();
        let name = pathutil::basename(p).to_string();
        let pn = self.dir_mut(&parent)?;
        pn.children.insert(name);
        pn.attr.nlink += 1;
        pn.attr.mtime_ns = now_ns;
        self.nodes.insert(
            p.to_string(),
            NsNode {
                attr: FileAttr::new(FileKind::Dir, mode, now_ns),
                children: BTreeSet::new(),
                target: None,
                object: None,
            },
        );
        Ok(())
    }

    /// Create every missing ancestor of `p` (not `p` itself). DUFS uses
    /// this for the static FID shard hierarchy (paper Fig 4).
    pub fn mkdir_all_parents(&mut self, p: &str, now_ns: u64) -> FsResult<()> {
        pathutil::validate(p)?;
        let mut ancestors = Vec::new();
        let mut cur = p;
        while let Some(par) = pathutil::parent(cur) {
            if par == pathutil::ROOT {
                break;
            }
            ancestors.push(par.to_string());
            cur = par;
        }
        for a in ancestors.into_iter().rev() {
            match self.mkdir(&a, 0o755, now_ns) {
                Ok(()) | Err(FsError::Exists) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir(&mut self, p: &str, now_ns: u64) -> FsResult<()> {
        {
            let n = self.node(p)?;
            if n.attr.kind != FileKind::Dir {
                return Err(FsError::NotDir);
            }
            if !n.children.is_empty() {
                return Err(FsError::NotEmpty);
            }
        }
        if p == pathutil::ROOT {
            return Err(FsError::Inval);
        }
        self.nodes.remove(p);
        let parent = pathutil::parent(p).expect("non-root").to_string();
        let name = pathutil::basename(p).to_string();
        let pn = self.nodes.get_mut(&parent).expect("parent exists");
        pn.children.remove(&name);
        pn.attr.nlink -= 1;
        pn.attr.mtime_ns = now_ns;
        Ok(())
    }

    /// Create a regular file backed by `object`.
    pub fn create_file(
        &mut self,
        p: &str,
        mode: u32,
        object: ObjectId,
        now_ns: u64,
    ) -> FsResult<()> {
        pathutil::validate(p)?;
        if self.nodes.contains_key(p) {
            return Err(FsError::Exists);
        }
        let parent = pathutil::parent(p).ok_or(FsError::Inval)?.to_string();
        let name = pathutil::basename(p).to_string();
        let pn = self.dir_mut(&parent)?;
        pn.children.insert(name);
        pn.attr.mtime_ns = now_ns;
        self.nodes.insert(
            p.to_string(),
            NsNode {
                attr: FileAttr::new(FileKind::File, mode, now_ns),
                children: BTreeSet::new(),
                target: None,
                object: Some(object),
            },
        );
        Ok(())
    }

    /// Create a symlink at `p` pointing to `target`.
    pub fn symlink(&mut self, p: &str, target: &str, now_ns: u64) -> FsResult<()> {
        pathutil::validate(p)?;
        if self.nodes.contains_key(p) {
            return Err(FsError::Exists);
        }
        let parent = pathutil::parent(p).ok_or(FsError::Inval)?.to_string();
        let name = pathutil::basename(p).to_string();
        let pn = self.dir_mut(&parent)?;
        pn.children.insert(name);
        pn.attr.mtime_ns = now_ns;
        self.nodes.insert(
            p.to_string(),
            NsNode {
                attr: FileAttr::symlink(now_ns),
                children: BTreeSet::new(),
                target: Some(target.to_string()),
                object: None,
            },
        );
        Ok(())
    }

    /// Read a symlink's target.
    pub fn readlink(&self, p: &str) -> FsResult<String> {
        let n = self.node(p)?;
        n.target.clone().ok_or(FsError::Inval)
    }

    /// Remove a file or symlink; returns the data object to reap, if any.
    pub fn unlink(&mut self, p: &str, now_ns: u64) -> FsResult<Option<ObjectId>> {
        {
            let n = self.node(p)?;
            if n.attr.kind == FileKind::Dir {
                return Err(FsError::IsDir);
            }
        }
        let node = self.nodes.remove(p).expect("checked");
        let parent = pathutil::parent(p).expect("non-root").to_string();
        let name = pathutil::basename(p).to_string();
        let pn = self.nodes.get_mut(&parent).expect("parent exists");
        pn.children.remove(&name);
        pn.attr.mtime_ns = now_ns;
        Ok(node.object)
    }

    /// Rename `from` to `to`, moving a whole subtree if `from` is a
    /// directory. `to` must not exist.
    pub fn rename(&mut self, from: &str, to: &str, now_ns: u64) -> FsResult<()> {
        pathutil::validate(from)?;
        pathutil::validate(to)?;
        if from == pathutil::ROOT || to == pathutil::ROOT {
            return Err(FsError::Inval);
        }
        if !self.nodes.contains_key(from) {
            return Err(FsError::NoEnt);
        }
        if self.nodes.contains_key(to) {
            return Err(FsError::Exists);
        }
        // Moving a directory into itself is invalid.
        if to.starts_with(from) && to.as_bytes().get(from.len()) == Some(&b'/') {
            return Err(FsError::Inval);
        }
        let to_parent = pathutil::parent(to).ok_or(FsError::Inval)?.to_string();
        {
            let tp = self.node(&to_parent)?;
            if tp.attr.kind != FileKind::Dir {
                return Err(FsError::NotDir);
            }
        }

        // Collect the subtree keys under `from` (including itself).
        let prefix = format!("{from}/");
        let mut moved: Vec<String> =
            self.nodes.keys().filter(|k| *k == from || k.starts_with(&prefix)).cloned().collect();
        moved.sort(); // parents before children

        let from_parent = pathutil::parent(from).expect("non-root").to_string();
        let from_name = pathutil::basename(from).to_string();
        let to_name = pathutil::basename(to).to_string();
        let is_dir = self.nodes[from].attr.kind == FileKind::Dir;

        for old_key in moved {
            let node = self.nodes.remove(&old_key).expect("collected");
            let new_key = format!("{to}{}", &old_key[from.len()..]);
            self.nodes.insert(new_key, node);
        }
        let fp = self.nodes.get_mut(&from_parent).expect("parent exists");
        fp.children.remove(&from_name);
        fp.attr.mtime_ns = now_ns;
        if is_dir {
            fp.attr.nlink -= 1;
        }
        let tp = self.nodes.get_mut(&to_parent).expect("checked");
        tp.children.insert(to_name);
        tp.attr.mtime_ns = now_ns;
        if is_dir {
            tp.attr.nlink += 1;
        }
        self.nodes.get_mut(to).expect("moved").attr.ctime_ns = now_ns;
        Ok(())
    }

    /// Change permission bits.
    pub fn chmod(&mut self, p: &str, mode: u32, now_ns: u64) -> FsResult<()> {
        let n = self.node_mut(p)?;
        n.attr.mode = mode & 0o7777;
        n.attr.ctime_ns = now_ns;
        Ok(())
    }

    /// Update the recorded size and mtime (called after data writes or
    /// truncate).
    pub fn set_size(&mut self, p: &str, size: u64, now_ns: u64) -> FsResult<()> {
        let n = self.node_mut(p)?;
        if n.attr.kind != FileKind::File {
            return Err(FsError::IsDir);
        }
        n.attr.size = size;
        n.attr.mtime_ns = now_ns;
        Ok(())
    }

    /// Update the access time (called after reads).
    pub fn touch_atime(&mut self, p: &str, now_ns: u64) -> FsResult<()> {
        self.node_mut(p)?.attr.atime_ns = now_ns;
        Ok(())
    }

    /// `utimens(2)`: set access/modification times explicitly.
    pub fn set_times(
        &mut self,
        p: &str,
        atime_ns: u64,
        mtime_ns: u64,
        now_ns: u64,
    ) -> FsResult<()> {
        let n = self.node_mut(p)?;
        n.attr.atime_ns = atime_ns;
        n.attr.mtime_ns = mtime_ns;
        n.attr.ctime_ns = now_ns;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> Namespace {
        Namespace::new()
    }

    #[test]
    fn mkdir_stat_readdir() {
        let mut n = ns();
        n.mkdir("/a", 0o755, 1).unwrap();
        n.mkdir("/a/b", 0o700, 2).unwrap();
        assert_eq!(n.stat("/a").unwrap().kind, FileKind::Dir);
        assert_eq!(n.stat("/a/b").unwrap().mode, 0o700);
        assert_eq!(n.readdir("/a").unwrap(), vec!["b"]);
        assert_eq!(n.len(), 2);
        // nlink: /a has "." ".." and one subdir
        assert_eq!(n.stat("/a").unwrap().nlink, 3);
    }

    #[test]
    fn mkdir_errors() {
        let mut n = ns();
        assert_eq!(n.mkdir("/a/b", 0o755, 1).unwrap_err(), FsError::NoEnt);
        n.mkdir("/a", 0o755, 1).unwrap();
        assert_eq!(n.mkdir("/a", 0o755, 1).unwrap_err(), FsError::Exists);
        assert_eq!(n.mkdir("bad", 0o755, 1).unwrap_err(), FsError::Inval);
    }

    #[test]
    fn rmdir_semantics() {
        let mut n = ns();
        n.mkdir("/a", 0o755, 1).unwrap();
        n.mkdir("/a/b", 0o755, 1).unwrap();
        assert_eq!(n.rmdir("/a", 2).unwrap_err(), FsError::NotEmpty);
        n.rmdir("/a/b", 2).unwrap();
        n.rmdir("/a", 3).unwrap();
        assert!(n.is_empty());
        assert_eq!(n.rmdir("/a", 4).unwrap_err(), FsError::NoEnt);
    }

    #[test]
    fn file_lifecycle() {
        let mut n = ns();
        n.create_file("/f", 0o644, ObjectId(7), 1).unwrap();
        assert_eq!(n.stat("/f").unwrap().kind, FileKind::File);
        assert_eq!(n.object_of("/f").unwrap(), ObjectId(7));
        n.set_size("/f", 100, 2).unwrap();
        assert_eq!(n.stat("/f").unwrap().size, 100);
        assert_eq!(n.stat("/f").unwrap().mtime_ns, 2);
        assert_eq!(n.unlink("/f", 3).unwrap(), Some(ObjectId(7)));
        assert!(!n.exists("/f"));
    }

    #[test]
    fn unlink_of_dir_fails() {
        let mut n = ns();
        n.mkdir("/d", 0o755, 1).unwrap();
        assert_eq!(n.unlink("/d", 2).unwrap_err(), FsError::IsDir);
        assert_eq!(n.object_of("/d").unwrap_err(), FsError::IsDir);
    }

    #[test]
    fn mkdir_all_parents_builds_shard_dirs() {
        let mut n = ns();
        // DUFS physical path: cdef/89ab/4567/0123
        n.mkdir_all_parents("/cdef/89ab/4567/0123", 1).unwrap();
        assert!(n.exists("/cdef/89ab/4567"));
        assert!(!n.exists("/cdef/89ab/4567/0123"), "the leaf itself is not created");
        n.create_file("/cdef/89ab/4567/0123", 0o644, ObjectId(1), 2).unwrap();
        // Idempotent.
        n.mkdir_all_parents("/cdef/89ab/4567/9999", 3).unwrap();
    }

    #[test]
    fn symlink_roundtrip() {
        let mut n = ns();
        n.symlink("/l", "/target/elsewhere", 1).unwrap();
        assert_eq!(n.readlink("/l").unwrap(), "/target/elsewhere");
        assert_eq!(n.stat("/l").unwrap().kind, FileKind::Symlink);
        assert_eq!(n.unlink("/l", 2).unwrap(), None);
    }

    #[test]
    fn rename_file() {
        let mut n = ns();
        n.mkdir("/a", 0o755, 1).unwrap();
        n.create_file("/a/f", 0o644, ObjectId(1), 1).unwrap();
        n.rename("/a/f", "/g", 2).unwrap();
        assert!(!n.exists("/a/f"));
        assert_eq!(n.object_of("/g").unwrap(), ObjectId(1));
        assert_eq!(n.readdir("/a").unwrap(), Vec::<String>::new());
        assert_eq!(n.readdir("/").unwrap(), vec!["a", "g"]);
    }

    #[test]
    fn rename_directory_moves_subtree() {
        let mut n = ns();
        n.mkdir("/d1", 0o755, 1).unwrap();
        n.mkdir("/d1/sub", 0o755, 1).unwrap();
        n.create_file("/d1/sub/f", 0o644, ObjectId(2), 1).unwrap();
        n.rename("/d1", "/d2", 2).unwrap();
        assert!(n.exists("/d2/sub/f"));
        assert!(!n.exists("/d1"));
        assert_eq!(n.object_of("/d2/sub/f").unwrap(), ObjectId(2));
    }

    #[test]
    fn rename_guards() {
        let mut n = ns();
        n.mkdir("/d", 0o755, 1).unwrap();
        n.mkdir("/e", 0o755, 1).unwrap();
        assert_eq!(n.rename("/missing", "/x", 2).unwrap_err(), FsError::NoEnt);
        assert_eq!(n.rename("/d", "/e", 2).unwrap_err(), FsError::Exists);
        assert_eq!(n.rename("/d", "/d/inside", 2).unwrap_err(), FsError::Inval);
    }

    #[test]
    fn rename_sibling_prefix_not_confused() {
        let mut n = ns();
        n.mkdir("/ab", 0o755, 1).unwrap();
        n.mkdir("/abc", 0o755, 1).unwrap();
        n.rename("/ab", "/z", 2).unwrap();
        assert!(n.exists("/abc"), "prefix sibling must not be moved");
        assert!(n.exists("/z"));
    }

    #[test]
    fn chmod_and_times() {
        let mut n = ns();
        n.create_file("/f", 0o644, ObjectId(1), 1).unwrap();
        n.chmod("/f", 0o4755, 5).unwrap();
        let a = n.stat("/f").unwrap();
        assert_eq!(a.mode, 0o4755);
        assert_eq!(a.ctime_ns, 5);
        n.touch_atime("/f", 9).unwrap();
        assert_eq!(n.stat("/f").unwrap().atime_ns, 9);
    }
}
