//! The cross-shard 2PC participant: slices parked between prepare and
//! decision, and the fences that keep normal writes off their paths.

use std::collections::HashMap;

use dufs_zab::PeerId;
use dufs_zkstore::{path as zkpath, ChangeEvent, CreateMode, DataTree, MultiOp, ZkError, ZkResult};

use crate::api::ZkResponse;
use crate::txn::{Txn, TxnOp};

/// Namespace prefix under which prepared-transaction markers live. Paths
/// under it are infrastructure, not user namespace — the sharded content
/// digest and mdtest walks exclude them.
pub const TXN_PREFIX: &str = "/__txn";

fn marker_path(txn_id: u64) -> String {
    format!("{TXN_PREFIX}/{txn_id:016x}")
}

/// A cross-shard transaction slice parked between prepare and decision.
#[derive(Debug, PartialEq, Eq)]
struct PreparedTxn {
    session: u64,
    ops: Vec<MultiOp>,
    participants: Vec<u32>,
}

/// A decision's answer and what it changed in the tree.
type Applied = (ZkResponse, Vec<ChangeEvent>);

/// Prepared (undecided) cross-shard transactions.
///
/// This is the *in-memory index* only: the authoritative copy of a slice
/// lives in the tree itself as a `/__txn/<id>` marker znode, so it rides
/// through WAL replay, checkpoints and ZAB snapshot installs for free.
///
/// Invariant: the fenced paths are exactly the paths named by the prepared
/// slices, each owned by its slice's transaction, and the table maintained
/// step by step equals [`TxnTable::rebuild`] over the tree it maintained
/// the markers in.
#[derive(Debug, Default, PartialEq, Eq)]
pub(super) struct TxnTable {
    /// Prepared slices by txn id — a mirror of the `/__txn/*` markers.
    prepared_txns: HashMap<u64, PreparedTxn>,
    /// Path → owning txn id for every path a prepared slice touches.
    /// Normal writes against a fenced path are rejected with
    /// [`ZkError::TxnBusy`] until the decision clears the fence.
    txn_fences: HashMap<String, u64>,
}

impl TxnTable {
    pub(super) fn len(&self) -> usize {
        self.prepared_txns.len()
    }

    /// The tree was emptied (state reset, crash): nothing is prepared.
    pub(super) fn reset(&mut self) {
        self.prepared_txns.clear();
        self.txn_fences.clear();
    }

    /// Whether `path` or any of its ancestors carries a fence owned by a
    /// transaction other than `exempt`. Creates must check the whole
    /// ancestor chain: materializing a node *under* a directory fenced for
    /// deletion would make the prepared delete fail at commit time.
    fn fenced_for_create(&self, path: &str, exempt: Option<u64>) -> bool {
        let clashes = |p: &str| self.txn_fences.get(p).is_some_and(|&o| Some(o) != exempt);
        if clashes(path) {
            return true;
        }
        let mut cur = path;
        while let Some(par) = zkpath::parent(cur) {
            if clashes(par) {
                return true;
            }
            cur = par;
        }
        false
    }

    /// Whether one op of a multi or of a slice runs into a fence not owned
    /// by `exempt`.
    fn fenced(&self, op: &MultiOp, exempt: Option<u64>) -> bool {
        match op {
            MultiOp::Create { path, .. } => self.fenced_for_create(path, exempt),
            _ => self.txn_fences.get(op.path()).is_some_and(|&o| Some(o) != exempt),
        }
    }

    /// Whether a *normal* write conflicts with a prepared transaction's
    /// fences. Returns the error to answer with, or `None` to proceed.
    /// 2PC control ops are exempt (prepare does its own conflict check).
    pub(super) fn conflict(&self, op: &TxnOp) -> Option<ZkError> {
        if self.txn_fences.is_empty() {
            return None;
        }
        let hit = match op {
            // CreatePath materializes ancestors, and even a plain create
            // must not add a child under a directory fenced for deletion.
            TxnOp::Create { path, .. } | TxnOp::CreatePath { path, .. } => {
                self.fenced_for_create(path, None)
            }
            TxnOp::Delete { path, .. } | TxnOp::SetData { path, .. } => {
                self.txn_fences.contains_key(path)
            }
            TxnOp::Multi { ops } => ops.iter().any(|op| self.fenced(op, None)),
            _ => false,
        };
        hit.then_some(ZkError::TxnBusy)
    }

    /// Phase one: validate this shard's slice against the current tree,
    /// fence its paths, and park the ops in a `/__txn/<id>` marker znode.
    /// The marker makes the prepared state part of the replicated tree, so
    /// WAL replay, checkpoints and snapshot installs carry it implicitly.
    /// `Ok` is what the marker changed in the tree (nothing, for a retry).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn prepare(
        &mut self,
        tree: &mut DataTree,
        txn_id: u64,
        ops: &[MultiOp],
        participants: &[u32],
        session: u64,
        z: u64,
        t: u64,
    ) -> ZkResult<Vec<ChangeEvent>> {
        if let Some(p) = self.prepared_txns.get(&txn_id) {
            // Coordinator retry of an already-prepared slice — but only if
            // it really is the same transaction. Answering `Prepared` for a
            // different payload under a colliding id would commit another
            // transaction's parked ops.
            let same = p.ops == ops && p.participants == participants;
            return if same { Ok(Vec::new()) } else { Err(ZkError::TxnBusy) };
        }
        // Conflict with another undecided transaction?
        if ops.iter().any(|op| self.fenced(op, Some(txn_id))) {
            return Err(ZkError::TxnBusy);
        }
        // Dry-run validation, mirroring what commit will do (creates get
        // ancestor materialization there, so a missing parent is fine).
        let at_version = |have: u32, want: &Option<u32>| match want {
            Some(v) if *v != have => Err(ZkError::BadVersion),
            _ => Ok(()),
        };
        for op in ops {
            match op {
                MultiOp::Create { path, .. } => {
                    if tree.exists(path)?.is_some() {
                        return Err(ZkError::NodeExists);
                    }
                }
                MultiOp::Delete { path, version } => {
                    let (names, stat) = tree.get_children(path)?;
                    if !names.is_empty() {
                        return Err(ZkError::NotEmpty);
                    }
                    at_version(stat.version, version)?;
                }
                MultiOp::SetData { path, version, .. } | MultiOp::Check { path, version } => {
                    at_version(tree.exists(path)?.ok_or(ZkError::NoNode)?.version, version)?;
                }
            }
        }
        // Park the slice in the tree and index it.
        let (ops, participants) = (ops.to_vec(), participants.to_vec());
        let op = TxnOp::Prepare2pc { txn_id, ops: ops.clone(), participants: participants.clone() };
        let marker = Txn { session, op, origin: PeerId(0), tag: 0, time_ns: 0 }.encode();
        let (_, events) =
            tree.create_path(&marker_path(txn_id), marker, CreateMode::Persistent, 0, z, t)?;
        self.park(txn_id, PreparedTxn { session, ops, participants });
        Ok(events)
    }

    fn park(&mut self, txn_id: u64, slice: PreparedTxn) {
        for op in &slice.ops {
            self.txn_fences.insert(op.path().to_string(), txn_id);
        }
        self.prepared_txns.insert(txn_id, slice);
    }

    /// Lift the fences of the slice that was prepared under `txn_id` and
    /// drop its marker znode.
    fn unpark(&mut self, tree: &mut DataTree, txn_id: u64, z: u64, t: u64) -> Vec<ChangeEvent> {
        self.txn_fences.retain(|_, &mut owner| owner != txn_id);
        tree.delete(&marker_path(txn_id), None, z, t).unwrap_or_default()
    }

    /// Decision: apply the prepared slice. A txn id with no prepared slice
    /// answers [`ZkResponse::TxnUnknown`] — the slice was already decided
    /// here (or never prepared). Surfacing that instead of a blanket
    /// success lets a recovery agent tell "this shard applied the commit
    /// now" from "this shard had nothing left to apply".
    pub(super) fn commit(&mut self, tree: &mut DataTree, txn_id: u64, z: u64, t: u64) -> Applied {
        let Some(p) = self.prepared_txns.remove(&txn_id) else {
            return (ZkResponse::TxnUnknown, Vec::new());
        };
        let mut events = Vec::new();
        for op in &p.ops {
            // Validated at prepare and fenced since, so these cannot fail;
            // results are discarded (the coordinator already has them). A
            // failure here means the fence invariant broke — make that
            // loud in debug builds instead of silently diverging.
            let done = match op {
                MultiOp::Create { path, data, mode } => {
                    tree.create_path(path, data.clone(), *mode, p.session, z, t).map(|(_, ev)| ev)
                }
                MultiOp::Delete { path, version } => tree.delete(path, *version, z, t),
                MultiOp::SetData { path, data, version } => {
                    tree.set_data(path, data.clone(), *version, z, t).map(|(_, ev)| ev)
                }
                MultiOp::Check { .. } => Ok(Vec::new()),
            };
            match done {
                Ok(ev) => events.extend(ev),
                Err(e) => debug_assert!(
                    false,
                    "2PC commit op failed post-prepare (txn {txn_id:#x}, op {op:?}): {e:?}"
                ),
            }
        }
        events.extend(self.unpark(tree, txn_id, z, t));
        (ZkResponse::Committed, events)
    }

    /// Decision: discard the prepared slice. Answers
    /// [`ZkResponse::TxnUnknown`] when nothing is prepared under the id.
    pub(super) fn abort(&mut self, tree: &mut DataTree, txn_id: u64, z: u64, t: u64) -> Applied {
        if self.prepared_txns.remove(&txn_id).is_none() {
            return (ZkResponse::TxnUnknown, Vec::new());
        }
        (ZkResponse::Aborted, self.unpark(tree, txn_id, z, t))
    }

    /// Re-derive the table from the `/__txn/*` marker znodes after the tree
    /// was replaced wholesale (snapshot install).
    pub(super) fn rebuild(&mut self, tree: &DataTree) {
        self.reset();
        let Ok((names, _)) = tree.get_children(TXN_PREFIX) else { return };
        for n in names {
            let Ok((data, _)) = tree.get_data(&zkpath::join(TXN_PREFIX, &n)) else { continue };
            let Ok(marker) = Txn::decode(&data) else { continue };
            if let TxnOp::Prepare2pc { txn_id, ops, participants } = marker.op {
                self.park(txn_id, PreparedTxn { session: marker.session, ops, participants });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use dufs_zkstore::snapshot;
    use proptest::prelude::*;

    use super::super::tests::{req, single};
    use super::super::CHECKPOINT_EVERY;
    use super::*;
    use crate::api::ZkRequest;

    /// Slices draw on paths with no ancestor relation among them, at most
    /// one op per path, so a slice that validates cannot trip over itself.
    const POOL: [&str; 4] = ["/a", "/b", "/c", "/d/e"];

    #[derive(Debug, Clone)]
    enum Step {
        /// Prepare `ops` (kind, pool index) under a txn id.
        Prepare(u64, Vec<(u8, usize)>),
        Commit(u64),
        Abort(u64),
        /// A normal write, applied only if the fences let it through.
        Write(u8, usize),
        /// Replace the tree by its own snapshot and re-derive the table.
        Snapshot,
    }

    fn op(kind: u8, path: &str) -> MultiOp {
        let (path, data) = (path.to_string(), Bytes::from_static(b"v"));
        match kind % 4 {
            0 => MultiOp::Create { path, data, mode: CreateMode::Persistent },
            1 => MultiOp::Delete { path, version: None },
            2 => MultiOp::SetData { path, data, version: None },
            _ => MultiOp::Check { path, version: None },
        }
    }

    fn step() -> impl Strategy<Value = Step> {
        let slice = proptest::collection::vec((0..4u8, 0..POOL.len()), 1..4);
        prop_oneof![
            (0..4u64, slice.clone()).prop_map(|(id, ops)| Step::Prepare(id, ops)),
            (0..4u64, slice).prop_map(|(id, ops)| Step::Prepare(id, ops)),
            (0..4u64).prop_map(Step::Commit),
            (0..4u64).prop_map(Step::Abort),
            (0..5u8, 0..POOL.len()).prop_map(|(k, p)| Step::Write(k, p)),
            Just(Step::Snapshot),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After any sequence of prepares, decisions, fenced-off writes and
        /// snapshot installs: the fences are exactly the paths of the
        /// prepared slices, and the table kept step by step equals the one
        /// rebuilt from the tree's markers. (A commit that fails after its
        /// prepare validated trips the `debug_assert` in `commit`.)
        #[test]
        fn fences_mirror_prepared_slices_and_rebuild_agrees(
            steps in proptest::collection::vec(step(), 1..40)
        ) {
            let mut tree = DataTree::new();
            let mut table = TxnTable::default();
            let mut z = 0u64;
            for p in ["/a", "/b"] {
                z += 1;
                tree.create(p, Bytes::new(), CreateMode::Persistent, 0, z, z).unwrap();
            }
            for s in steps {
                z += 1;
                match s {
                    Step::Prepare(id, picks) => {
                        let mut ops: Vec<MultiOp> = Vec::new();
                        for (kind, i) in picks {
                            if ops.iter().all(|o| o.path() != POOL[i]) {
                                ops.push(op(kind, POOL[i]));
                            }
                        }
                        let _ = table.prepare(&mut tree, id, &ops, &[0, 1], 5, z, z);
                    }
                    Step::Commit(id) => drop(table.commit(&mut tree, id, z, z)),
                    Step::Abort(id) => drop(table.abort(&mut tree, id, z, z)),
                    Step::Write(4, i) => {
                        // A create *under* a pool path: the ancestor check.
                        let path = format!("{}/k", POOL[i]);
                        let (data, mode) = (Bytes::new(), CreateMode::Persistent);
                        let write = TxnOp::CreatePath { path: path.clone(), data, mode };
                        if table.conflict(&write).is_none() {
                            let _ = tree.create_path(&path, Bytes::new(), mode, 0, z, z);
                        }
                    }
                    Step::Write(kind, i) => {
                        let ops = vec![op(kind, POOL[i])];
                        if table.conflict(&TxnOp::Multi { ops: ops.clone() }).is_none() {
                            let _ = tree.apply_multi(&ops, 0, z, z);
                        }
                    }
                    Step::Snapshot => {
                        tree = snapshot::decode(&snapshot::encode(&tree)).unwrap();
                        table.rebuild(&tree);
                    }
                }
                let mut fences = HashMap::new();
                for (&id, slice) in &table.prepared_txns {
                    for op in &slice.ops {
                        let other = fences.insert(op.path().to_string(), id);
                        prop_assert!(other.is_none(), "{} fenced twice", op.path());
                    }
                }
                prop_assert_eq!(&table.txn_fences, &fences);
                let mut rebuilt = TxnTable::default();
                rebuilt.rebuild(&tree);
                prop_assert_eq!(&rebuilt, &table);
            }
        }
    }

    #[test]
    fn prepare_commit_applies_and_clears_fences() {
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/src".into(),
                data: Bytes::from_static(b"fid"),
                mode: CreateMode::Persistent,
            },
        );
        let slice = vec![
            MultiOp::Delete { path: "/src".into(), version: None },
            MultiOp::Create {
                path: "/dst/deep/leaf".into(),
                data: Bytes::from_static(b"fid"),
                mode: CreateMode::Persistent,
            },
        ];
        let resp = req(
            &mut s,
            0,
            ZkRequest::TxnPrepare { txn_id: 7, ops: slice.clone(), participants: vec![0, 1] },
        );
        assert_eq!(resp, ZkResponse::Prepared);
        assert_eq!(s.prepared_txn_count(), 1);
        // Fenced paths reject normal writes deterministically...
        assert_eq!(
            req(&mut s, 0, ZkRequest::Delete { path: "/src".into(), version: None }),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // ...including creates *under* a path fenced for deletion.
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::CreatePath {
                    path: "/src/child".into(),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            ),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // A second transaction touching a fenced path cannot prepare.
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 8,
                    ops: vec![MultiOp::SetData {
                        path: "/src".into(),
                        data: Bytes::new(),
                        version: None,
                    }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // Prepare retry with the identical payload is idempotent...
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare { txn_id: 7, ops: slice.clone(), participants: vec![0, 1] }
            ),
            ZkResponse::Prepared
        );
        // ...but a *different* payload under the same id (a txn-id
        // collision) is rejected, not blindly acknowledged.
        assert_eq!(
            req(&mut s, 0, ZkRequest::TxnPrepare { txn_id: 7, ops: vec![], participants: vec![] }),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // Commit applies the slice, materializing ancestors for the create.
        assert_eq!(req(&mut s, 0, ZkRequest::TxnCommit { txn_id: 7 }), ZkResponse::Committed);
        assert_eq!(s.prepared_txn_count(), 0);
        assert_eq!(
            req(&mut s, 0, ZkRequest::Exists { path: "/src".into(), watch: false }),
            ZkResponse::ExistsResult(None)
        );
        assert!(matches!(
            req(&mut s, 0, ZkRequest::Exists { path: "/dst/deep/leaf".into(), watch: false }),
            ZkResponse::ExistsResult(Some(_))
        ));
        // Marker gone; fences cleared.
        assert_eq!(
            req(&mut s, 0, ZkRequest::GetChildren { path: TXN_PREFIX.into(), watch: false }),
            ZkResponse::Children {
                names: vec![],
                stat: match req(
                    &mut s,
                    0,
                    ZkRequest::Exists { path: TXN_PREFIX.into(), watch: false }
                ) {
                    ZkResponse::ExistsResult(Some(stat)) => stat,
                    other => panic!("unexpected {other:?}"),
                }
            }
        );
        assert!(matches!(
            req(&mut s, 0, ZkRequest::Delete { path: "/dst/deep/leaf".into(), version: None }),
            ZkResponse::Deleted
        ));
        // A decision retry after the slice is gone is distinguishable from
        // a real apply: the shard reports it holds nothing under the id.
        assert_eq!(req(&mut s, 0, ZkRequest::TxnCommit { txn_id: 7 }), ZkResponse::TxnUnknown);
        assert_eq!(req(&mut s, 0, ZkRequest::TxnAbort { txn_id: 999 }), ZkResponse::TxnUnknown);
    }

    #[test]
    fn prepare_validates_against_the_current_tree() {
        let mut s = single();
        // Delete of a missing node fails at prepare, leaving nothing fenced.
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 1,
                    ops: vec![MultiOp::Delete { path: "/missing".into(), version: None }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Error(ZkError::NoNode)
        );
        assert_eq!(s.prepared_txn_count(), 0);
        // Create of an existing node fails at prepare.
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/x".into(),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 2,
                    ops: vec![MultiOp::Create {
                        path: "/x".into(),
                        data: Bytes::new(),
                        mode: CreateMode::Persistent,
                    }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Error(ZkError::NodeExists)
        );
        // Stale version check fails at prepare.
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 3,
                    ops: vec![MultiOp::Check { path: "/x".into(), version: Some(5) }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Error(ZkError::BadVersion)
        );
    }

    #[test]
    fn abort_discards_the_slice_and_unfences() {
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/keep".into(),
                data: Bytes::from_static(b"v"),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 4,
                    ops: vec![MultiOp::Delete { path: "/keep".into(), version: None }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Prepared
        );
        assert_eq!(req(&mut s, 0, ZkRequest::TxnAbort { txn_id: 4 }), ZkResponse::Aborted);
        assert!(matches!(
            req(&mut s, 0, ZkRequest::Exists { path: "/keep".into(), watch: false }),
            ZkResponse::ExistsResult(Some(_))
        ));
        // Fence is gone: the path is writable again.
        assert_eq!(
            req(&mut s, 0, ZkRequest::Delete { path: "/keep".into(), version: None }),
            ZkResponse::Deleted
        );
    }

    #[test]
    fn close_session_leaves_prepared_txns_parked() {
        let mut s = single();
        let ZkResponse::Connected { session } = req(&mut s, 0, ZkRequest::Connect) else {
            panic!()
        };
        req(
            &mut s,
            session,
            ZkRequest::Create {
                path: "/f".into(),
                data: Bytes::new(),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                session,
                ZkRequest::TxnPrepare {
                    txn_id: 11,
                    ops: vec![MultiOp::Delete { path: "/f".into(), version: None }],
                    participants: vec![0],
                },
            ),
            ZkResponse::Prepared
        );
        // The coordinator's session dies with the transaction undecided.
        // The shard must NOT abort unilaterally: the coordinator's commit
        // may already have applied on another participant, and an abort
        // here would tear the transaction in half. The slice stays parked
        // and fenced until a recovery agent delivers the real decision.
        assert_eq!(req(&mut s, session, ZkRequest::CloseSession), ZkResponse::Closed);
        assert_eq!(s.prepared_txn_count(), 1, "prepared slice must survive session close");
        assert_eq!(
            req(&mut s, 0, ZkRequest::Delete { path: "/f".into(), version: None }),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // A decision from a *different* session resolves it and lifts the
        // fence.
        assert_eq!(req(&mut s, 0, ZkRequest::TxnCommit { txn_id: 11 }), ZkResponse::Committed);
        assert_eq!(
            req(&mut s, 0, ZkRequest::Exists { path: "/f".into(), watch: false }),
            ZkResponse::ExistsResult(None)
        );
    }

    #[test]
    fn prepared_txn_survives_crash_and_restart() {
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/src".into(),
                data: Bytes::from_static(b"fid"),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 21,
                    ops: vec![MultiOp::Delete { path: "/src".into(), version: None }],
                    participants: vec![0, 1],
                },
            ),
            ZkResponse::Prepared
        );
        s.on_crash();
        let _ = s.on_restart(5_000_000);
        assert_eq!(s.prepared_txn_count(), 1, "log replay reinstates the prepared slice");
        // Fences replayed too: the path is still parked...
        assert_eq!(
            req(&mut s, 0, ZkRequest::Delete { path: "/src".into(), version: None }),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        // ...until the (retried) decision lands.
        assert_eq!(req(&mut s, 0, ZkRequest::TxnCommit { txn_id: 21 }), ZkResponse::Committed);
        assert_eq!(
            req(&mut s, 0, ZkRequest::Exists { path: "/src".into(), watch: false }),
            ZkResponse::ExistsResult(None)
        );
    }

    #[test]
    fn prepared_txn_survives_checkpoint_compaction() {
        let mut s = single();
        req(
            &mut s,
            0,
            ZkRequest::Create {
                path: "/src".into(),
                data: Bytes::from_static(b"fid"),
                mode: CreateMode::Persistent,
            },
        );
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::TxnPrepare {
                    txn_id: 31,
                    ops: vec![MultiOp::Delete { path: "/src".into(), version: None }],
                    participants: vec![0, 1],
                },
            ),
            ZkResponse::Prepared
        );
        // Push the prepare below a checkpoint, so restart recovers it from
        // the snapshot (marker znode), not from log replay.
        for i in 0..CHECKPOINT_EVERY + 10 {
            req(
                &mut s,
                0,
                ZkRequest::Create {
                    path: format!("/n{i}"),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            );
        }
        assert!(s.snapshot_zxid() > 0);
        s.on_crash();
        let _ = s.on_restart(9_000_000);
        assert_eq!(s.prepared_txn_count(), 1, "marker came back via the snapshot");
        assert_eq!(
            req(
                &mut s,
                0,
                ZkRequest::SetData { path: "/src".into(), data: Bytes::new(), version: None }
            ),
            ZkResponse::Error(ZkError::TxnBusy)
        );
        assert_eq!(req(&mut s, 0, ZkRequest::TxnAbort { txn_id: 31 }), ZkResponse::Aborted);
        assert!(matches!(
            req(&mut s, 0, ZkRequest::Exists { path: "/src".into(), watch: false }),
            ZkResponse::ExistsResult(Some(_))
        ));
    }
}
