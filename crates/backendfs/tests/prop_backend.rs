//! Property tests for the back-end filesystem substrate: the namespace
//! against a path-set oracle, and a file's bytes against a flat byte-array
//! shadow.

use proptest::prelude::*;
use std::collections::HashMap;

use dufs_backendfs::{FsError, ParallelFs};

// ---------------------------------------------------------------------
// Namespace vs oracle
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum NsOp {
    Mkdir(usize),
    Rmdir(usize),
    Create(usize),
    Unlink(usize),
    Rename(usize, usize),
}

fn pool() -> Vec<String> {
    vec![
        "/a".into(),
        "/b".into(),
        "/a/x".into(),
        "/a/y".into(),
        "/b/z".into(),
        "/c".into(),
        "/c/w".into(),
    ]
}

#[derive(Default, Clone)]
struct Oracle {
    /// path → is_dir
    nodes: HashMap<String, bool>,
}

impl Oracle {
    fn new() -> Self {
        let mut o = Oracle::default();
        o.nodes.insert("/".into(), true);
        o
    }
    fn parent(p: &str) -> String {
        match p.rfind('/') {
            Some(0) => "/".into(),
            Some(i) => p[..i].into(),
            None => unreachable!(),
        }
    }
    fn has_children(&self, p: &str) -> bool {
        let prefix = if p == "/" { "/".into() } else { format!("{p}/") };
        self.nodes.keys().any(|k| k != p && k.starts_with(&prefix))
    }
    fn mkdir(&mut self, p: &str) -> Result<(), FsError> {
        if self.nodes.contains_key(p) {
            return Err(FsError::Exists);
        }
        match self.nodes.get(&Self::parent(p)) {
            Some(true) => {
                self.nodes.insert(p.into(), true);
                Ok(())
            }
            Some(false) => Err(FsError::NotDir),
            None => Err(FsError::NoEnt),
        }
    }
    fn create(&mut self, p: &str) -> Result<(), FsError> {
        if self.nodes.contains_key(p) {
            return Err(FsError::Exists);
        }
        match self.nodes.get(&Self::parent(p)) {
            Some(true) => {
                self.nodes.insert(p.into(), false);
                Ok(())
            }
            Some(false) => Err(FsError::NotDir),
            None => Err(FsError::NoEnt),
        }
    }
    fn rmdir(&mut self, p: &str) -> Result<(), FsError> {
        match self.nodes.get(p) {
            None => Err(FsError::NoEnt),
            Some(false) => Err(FsError::NotDir),
            Some(true) => {
                if self.has_children(p) {
                    Err(FsError::NotEmpty)
                } else {
                    self.nodes.remove(p);
                    Ok(())
                }
            }
        }
    }
    fn unlink(&mut self, p: &str) -> Result<(), FsError> {
        match self.nodes.get(p) {
            None => Err(FsError::NoEnt),
            Some(true) => Err(FsError::IsDir),
            Some(false) => {
                self.nodes.remove(p);
                Ok(())
            }
        }
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        if !self.nodes.contains_key(from) {
            return Err(FsError::NoEnt);
        }
        if self.nodes.contains_key(to) {
            return Err(FsError::Exists);
        }
        if to.starts_with(from) && to.as_bytes().get(from.len()) == Some(&b'/') {
            return Err(FsError::Inval);
        }
        match self.nodes.get(&Self::parent(to)) {
            Some(true) => {}
            Some(false) => return Err(FsError::NotDir),
            None => return Err(FsError::NoEnt),
        }
        // Move the subtree.
        let prefix = format!("{from}/");
        let moved: Vec<String> =
            self.nodes.keys().filter(|k| *k == from || k.starts_with(&prefix)).cloned().collect();
        for old in moved {
            let v = self.nodes.remove(&old).expect("collected");
            let new = format!("{to}{}", &old[from.len()..]);
            self.nodes.insert(new, v);
        }
        Ok(())
    }
}

fn ns_op_strategy() -> impl Strategy<Value = NsOp> {
    let idx = 0..pool().len();
    prop_oneof![
        idx.clone().prop_map(NsOp::Mkdir),
        idx.clone().prop_map(NsOp::Rmdir),
        idx.clone().prop_map(NsOp::Create),
        idx.clone().prop_map(NsOp::Unlink),
        (idx.clone(), idx).prop_map(|(a, b)| NsOp::Rename(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn namespace_matches_oracle(ops in proptest::collection::vec(ns_op_strategy(), 1..60)) {
        let pool = pool();
        let mut fs = ParallelFs::lustre();
        let mut oracle = Oracle::new();
        let mut t = 0u64;
        for op in &ops {
            t += 1;
            match op {
                NsOp::Mkdir(i) => {
                    prop_assert_eq!(fs.mkdir(&pool[*i], 0o755, t), oracle.mkdir(&pool[*i]), "mkdir {}", &pool[*i]);
                }
                NsOp::Rmdir(i) => {
                    prop_assert_eq!(fs.rmdir(&pool[*i], t), oracle.rmdir(&pool[*i]), "rmdir {}", &pool[*i]);
                }
                NsOp::Create(i) => {
                    prop_assert_eq!(fs.create(&pool[*i], 0o644, t), oracle.create(&pool[*i]), "create {}", &pool[*i]);
                }
                NsOp::Unlink(i) => {
                    prop_assert_eq!(fs.unlink(&pool[*i], t), oracle.unlink(&pool[*i]), "unlink {}", &pool[*i]);
                }
                NsOp::Rename(a, b) => {
                    prop_assert_eq!(
                        fs.rename(&pool[*a], &pool[*b], t),
                        oracle.rename(&pool[*a], &pool[*b]),
                        "rename {} {}", &pool[*a], &pool[*b]
                    );
                }
            }
        }
        // Surviving namespaces agree.
        prop_assert_eq!(fs.entry_count(), oracle.nodes.len() - 1);
        for (p, is_dir) in &oracle.nodes {
            if p == "/" { continue; }
            let attr = fs.stat(p).expect("oracle node exists");
            prop_assert_eq!(attr.kind == dufs_backendfs::FileKind::Dir, *is_dir, "{}", p);
        }
    }

    /// A file reads back exactly what was written, across writes, reads
    /// and a truncate that land within a few hundred bytes of the model's
    /// 1 MiB stripe boundaries, so they cross stripes.
    #[test]
    fn file_bytes_match_flat_shadow(
        writes in proptest::collection::vec(near_stripe_edge(), 1..15),
        lens in proptest::collection::vec(1usize..600, 15),
        truncate_to in proptest::option::of(near_stripe_edge()),
        read_at in near_stripe_edge(),
    ) {
        let mut fs = ParallelFs::lustre();
        fs.create("/f", 0o644, 1).unwrap();
        let mut shadow: Vec<u8> = Vec::new();
        for (i, (&off, &len)) in writes.iter().zip(&lens).enumerate() {
            let data: Vec<u8> = (0..len).map(|k| ((i * 31 + k) % 251) as u8).collect();
            prop_assert_eq!(fs.write("/f", off, &data, 2).unwrap(), len);
            let end = off as usize + len;
            if shadow.len() < end {
                shadow.resize(end, 0);
            }
            shadow[off as usize..end].copy_from_slice(&data);
        }
        if let Some(tr) = truncate_to {
            fs.truncate("/f", tr, 3).unwrap();
            shadow.resize(tr as usize, 0);
        }
        prop_assert_eq!(fs.stat("/f").unwrap().size, shadow.len() as u64);
        let got = fs.read("/f", 0, shadow.len() + 64, 4).unwrap();
        prop_assert_eq!(&got[..], &shadow[..]);
        // An interior range across a stripe edge as well.
        let got = fs.read("/f", read_at, 700, 5).unwrap();
        let from = (read_at as usize).min(shadow.len());
        prop_assert_eq!(&got[..], &shadow[from..(from + 700).min(shadow.len())]);
        fs.unlink("/f", 6).unwrap();
        prop_assert_eq!(fs.statvfs().bytes_used, 0);
    }
}

/// An offset within 300 bytes of one of the first three 1 MiB stripe
/// boundaries (0, 1 MiB, 2 MiB).
fn near_stripe_edge() -> impl Strategy<Value = u64> {
    (0u64..3, 0u64..600).prop_map(|(k, d)| (k << 20).saturating_sub(300) + d)
}
