//! Cross-crate property tests: the full DUFS stack (planner + in-process
//! coordination + functional back-ends) against a plain in-memory oracle
//! filesystem model, under random operation sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dufs_repro::core::services::{LocalBackends, SoloCoord};
use dufs_repro::core::vfs::{Dufs, DufsAttr, NodeKind};
use dufs_repro::core::DufsError;

/// One entry of the oracle namespace.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Dir { mode: u32 },
    File { size: usize, mode: u32 },
    Link { target: String, mode: u32 },
}

impl Node {
    fn mode(&self) -> u32 {
        match self {
            Node::Dir { mode } | Node::File { mode, .. } | Node::Link { mode, .. } => *mode,
        }
    }

    fn attr(&self) -> Attr {
        match self {
            Node::Dir { mode } => (NodeKind::Dir, 0, *mode),
            Node::File { size, mode } => (NodeKind::File, *size as u64, *mode),
            Node::Link { target, mode } => (NodeKind::Symlink, target.len() as u64, *mode),
        }
    }
}

/// What `stat` must report: kind, size, mode.
type Attr = (NodeKind, u64, u32);

fn attr(a: &DufsAttr) -> Attr {
    (a.kind, a.size, a.mode)
}

/// Oracle: a minimal model of a POSIX namespace.
struct Model {
    nodes: BTreeMap<String, Node>,
}

impl Model {
    fn new() -> Self {
        Model { nodes: BTreeMap::from([("/".to_string(), Node::Dir { mode: 0o755 })]) }
    }
    fn parent(p: &str) -> String {
        match p.rfind('/') {
            Some(0) => "/".into(),
            Some(i) => p[..i].into(),
            None => unreachable!(),
        }
    }
    fn get(&self, p: &str) -> Result<&Node, DufsError> {
        self.nodes.get(p).ok_or(DufsError::NoEnt)
    }
    /// Paths strictly below `p`.
    fn below<'a>(&'a self, p: &str) -> impl Iterator<Item = &'a String> + 'a {
        let prefix = if p == "/" { p.to_string() } else { format!("{p}/") };
        self.nodes.keys().filter(move |k| k.len() > prefix.len() && k.starts_with(&prefix))
    }
    /// Every create (mkdir, creat, symlink, a rename's destination) needs
    /// a directory parent, checked before the name itself.
    fn check_parent(&self, p: &str) -> Result<(), DufsError> {
        match self.get(&Self::parent(p))? {
            Node::Dir { .. } => Ok(()),
            _ => Err(DufsError::NotDir),
        }
    }
    fn insert(&mut self, p: &str, node: Node) -> Result<(), DufsError> {
        self.check_parent(p)?;
        if self.nodes.contains_key(p) {
            return Err(DufsError::Exists);
        }
        self.nodes.insert(p.into(), node);
        Ok(())
    }
    fn rmdir(&mut self, p: &str) -> Result<(), DufsError> {
        match self.get(p)? {
            Node::Dir { .. } if self.below(p).next().is_some() => Err(DufsError::NotEmpty),
            Node::Dir { .. } => {
                self.nodes.remove(p);
                Ok(())
            }
            _ => Err(DufsError::NotDir),
        }
    }
    fn unlink(&mut self, p: &str) -> Result<(), DufsError> {
        match self.get(p)? {
            Node::Dir { .. } => Err(DufsError::IsDir),
            _ => {
                self.nodes.remove(p);
                Ok(())
            }
        }
    }
    /// The file at `p` (data ops): directories are EISDIR, symlinks EINVAL.
    fn file(&mut self, p: &str) -> Result<&mut usize, DufsError> {
        match self.nodes.get_mut(p).ok_or(DufsError::NoEnt)? {
            Node::File { size, .. } => Ok(size),
            Node::Dir { .. } => Err(DufsError::IsDir),
            Node::Link { .. } => Err(DufsError::Inval),
        }
    }
    fn chmod(&mut self, p: &str, new: u32) -> Result<(), DufsError> {
        match self.nodes.get_mut(p).ok_or(DufsError::NoEnt)? {
            Node::Dir { mode } | Node::File { mode, .. } | Node::Link { mode, .. } => {
                *mode = new & 0o7777
            }
        }
        Ok(())
    }
    fn access(&self, p: &str, mask: u32) -> Result<bool, DufsError> {
        Ok((self.get(p)?.mode() >> 6) & mask == mask)
    }
    fn readlink(&self, p: &str) -> Result<String, DufsError> {
        match self.get(p)? {
            Node::Link { target, .. } => Ok(target.clone()),
            _ => Err(DufsError::Inval),
        }
    }
    /// Children with their stat view. Nothing nests under a file or a
    /// symlink, so listing one is empty.
    fn list(&self, p: &str) -> Result<Vec<(String, Attr)>, DufsError> {
        self.get(p)?;
        let children = self.below(p).filter(|k| Self::parent(k) == p);
        Ok(children
            .map(|k| (k[k.rfind('/').unwrap() + 1..].to_string(), self.nodes[k].attr()))
            .collect())
    }
    /// `rename(2)` as DUFS does it: the destination's parent is checked
    /// like any create's, then the source is looked up, then one atomic
    /// multi creates the new subtree and deletes the old one.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), DufsError> {
        if Self::parent(to) != "/" {
            self.check_parent(to)?;
        }
        let is_dir = matches!(self.get(from)?, Node::Dir { .. });
        if self.nodes.contains_key(to) {
            return Err(DufsError::Exists);
        }
        // Into its own subtree: the creates land, then deleting an old
        // ancestor of the destination finds it non-empty.
        if is_dir && to.starts_with(from) && to.as_bytes()[from.len()] == b'/' {
            return Err(DufsError::NotEmpty);
        }
        let moved: Vec<String> =
            std::iter::once(from.to_string()).chain(self.below(from).cloned()).collect();
        for old in moved {
            let node = self.nodes.remove(&old).unwrap();
            self.nodes.insert(format!("{to}{}", &old[from.len()..]), node);
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum Op {
    Mkdir(usize),
    Create(usize),
    Symlink(usize, usize),
    Rmdir(usize),
    Unlink(usize),
    Write(usize, usize),
    Truncate(usize, u64),
    Chmod(usize, u32),
    Access(usize, u32),
    Stat(usize),
    Readlink(usize),
    ReaddirPlus(usize),
    Rename(usize, usize),
}

fn paths() -> Vec<String> {
    vec![
        "/a".into(),
        "/b".into(),
        "/a/x".into(),
        "/a/y".into(),
        "/a/x/deep".into(),
        "/b/z".into(),
        "/c".into(),
    ]
}

const MODES: [u32; 4] = [0o755, 0o500, 0o300, 0o000];

fn op_strategy() -> impl Strategy<Value = Op> {
    let idx = 0..paths().len();
    prop_oneof![
        idx.clone().prop_map(Op::Mkdir),
        idx.clone().prop_map(Op::Create),
        (idx.clone(), idx.clone()).prop_map(|(t, l)| Op::Symlink(t, l)),
        idx.clone().prop_map(Op::Rmdir),
        idx.clone().prop_map(Op::Unlink),
        (idx.clone(), 1usize..64).prop_map(|(i, n)| Op::Write(i, n)),
        (idx.clone(), 0u64..80).prop_map(|(i, n)| Op::Truncate(i, n)),
        (idx.clone(), 0..MODES.len()).prop_map(|(i, m)| Op::Chmod(i, MODES[m])),
        (idx.clone(), 0u32..8).prop_map(|(i, m)| Op::Access(i, m)),
        idx.clone().prop_map(Op::Stat),
        idx.clone().prop_map(Op::Readlink),
        idx.clone().prop_map(Op::ReaddirPlus),
        (idx.clone(), idx).prop_map(|(f, t)| Op::Rename(f, t)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DUFS agrees with the oracle on success/failure and surviving state
    /// for arbitrary interleavings of namespace operations.
    #[test]
    fn dufs_matches_model(ops in proptest::collection::vec(op_strategy(), 1..50)) {
        let pool = paths();
        let mut fs = Dufs::new(5, SoloCoord::new(), LocalBackends::lustre(2));
        let mut model = Model::new();
        for op in &ops {
            let p = |i: &usize| pool[*i].as_str();
            match op {
                Op::Mkdir(i) => prop_assert_eq!(
                    fs.mkdir(p(i), 0o755), model.insert(p(i), Node::Dir { mode: 0o755 }), "{:?}", op),
                Op::Create(i) => prop_assert_eq!(
                    fs.create(p(i), 0o644).map(|_| ()),
                    model.insert(p(i), Node::File { size: 0, mode: 0o644 }), "{:?}", op),
                Op::Symlink(t, l) => prop_assert_eq!(
                    fs.symlink(p(t), p(l)),
                    model.insert(p(l), Node::Link { target: p(t).into(), mode: 0o777 }), "{:?}", op),
                Op::Rmdir(i) => prop_assert_eq!(fs.rmdir(p(i)), model.rmdir(p(i)), "{:?}", op),
                Op::Unlink(i) => prop_assert_eq!(fs.unlink(p(i)), model.unlink(p(i)), "{:?}", op),
                Op::Write(i, n) => prop_assert_eq!(
                    fs.write(p(i), 0, &vec![7u8; *n]).map(|_| ()),
                    model.file(p(i)).map(|size| *size = (*size).max(*n)), "{:?}", op),
                Op::Truncate(i, n) => prop_assert_eq!(
                    fs.truncate(p(i), *n),
                    model.file(p(i)).map(|size| *size = *n as usize), "{:?}", op),
                Op::Chmod(i, mode) => {
                    prop_assert_eq!(fs.chmod(p(i), *mode), model.chmod(p(i), *mode), "{:?}", op)
                }
                Op::Access(i, mask) => {
                    prop_assert_eq!(fs.access(p(i), *mask), model.access(p(i), *mask), "{:?}", op)
                }
                Op::Stat(i) => prop_assert_eq!(
                    fs.stat(p(i)).map(|a| attr(&a)), model.get(p(i)).map(Node::attr), "{:?}", op),
                Op::Readlink(i) => {
                    prop_assert_eq!(fs.readlink(p(i)), model.readlink(p(i)), "{:?}", op)
                }
                Op::ReaddirPlus(i) => {
                    let got = fs.readdir_plus(p(i)).map(|es| {
                        es.iter().map(|(n, a)| (n.clone(), attr(a))).collect::<Vec<_>>()
                    });
                    prop_assert_eq!(got, model.list(p(i)), "{:?}", op)
                }
                Op::Rename(f, t) => {
                    prop_assert_eq!(fs.rename(p(f), p(t)), model.rename(p(f), p(t)), "{:?}", op)
                }
            }
        }
        // Final namespaces agree, entry by entry and directory by directory.
        for (p, node) in &model.nodes {
            prop_assert_eq!(fs.readdir_plus(p).map(|es| es.len()), model.list(p).map(|l| l.len()), "{}", p);
            if p != "/" {
                prop_assert_eq!(attr(&fs.stat(p).expect("model node exists in DUFS")), node.attr(), "{}", p);
            }
        }
        for p in &pool {
            if !model.nodes.contains_key(p) {
                prop_assert_eq!(fs.stat(p).unwrap_err(), DufsError::NoEnt, "{} must not exist", p);
            }
        }
    }

    /// Written data always reads back identically through DUFS, for random
    /// offsets and payloads (spanning stripe boundaries).
    #[test]
    fn read_back_equals_written(
        writes in proptest::collection::vec((0u64..3000, 1usize..500), 1..12)
    ) {
        let mut fs = Dufs::new(9, SoloCoord::new(), LocalBackends::lustre(3));
        fs.create("/blob", 0o644).unwrap();
        let mut shadow = Vec::new();
        for (off, len) in &writes {
            let data: Vec<u8> = (0..*len).map(|i| ((off + i as u64) % 251) as u8).collect();
            fs.write("/blob", *off, &data).unwrap();
            let end = *off as usize + len;
            if shadow.len() < end {
                shadow.resize(end, 0);
            }
            shadow[*off as usize..end].copy_from_slice(&data);
        }
        let got = fs.read("/blob", 0, shadow.len() + 64).unwrap();
        prop_assert_eq!(&got[..], &shadow[..]);
        prop_assert_eq!(fs.stat("/blob").unwrap().size as usize, shadow.len());
    }
}
