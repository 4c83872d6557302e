//! Requests originated at this server and not yet answered.

use std::collections::HashMap;

use dufs_zkstore::ZkError;

use super::{ClientId, ServerOut};
use crate::api::ZkResponse;

/// Who to answer when a write resolves.
struct Pending {
    client: ClientId,
    req_id: u64,
}

/// The write can no longer be tracked to a commit: its client retries.
const LOST: ZkResponse = ZkResponse::Error(ZkError::ConnectionLoss);

/// The origin-local tags of replicated requests in flight — writes,
/// session opens and `Sync` barriers, each with its own entry.
///
/// Invariant: every tag from [`Inflight::alloc`] is answered exactly once —
/// by [`Inflight::complete`] when its transaction applies here, or by
/// [`Inflight::fail`]/[`Inflight::fail_all`] — unless a crash
/// ([`Inflight::reset`]) takes the client connections down with it.
pub(super) struct Inflight {
    /// Requests originated here, awaiting commit.
    pending: HashMap<u64, Pending>,
    next_tag: u64,
}

impl Inflight {
    pub(super) fn new() -> Self {
        Inflight { pending: HashMap::new(), next_tag: 1 }
    }

    /// A fresh tag nobody awaits (the sweep's fire-and-forget closes).
    pub(super) fn alloc_detached(&mut self) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        tag
    }

    /// A fresh tag for a request `client` awaits the answer to.
    pub(super) fn alloc(&mut self, client: ClientId, req_id: u64) -> u64 {
        let tag = self.alloc_detached();
        self.pending.insert(tag, Pending { client, req_id });
        tag
    }

    /// The transaction under `tag` applied here: answer its client with
    /// `resp`, once — a later call for the same tag (a duplicate bounce, a
    /// commit after an election failed it) answers nobody.
    pub(super) fn complete(&mut self, tag: u64, resp: ZkResponse, out: &mut Vec<ServerOut>) {
        if let Some(Pending { client, req_id }) = self.pending.remove(&tag) {
            out.push(ServerOut::Client { client, req_id, resp });
        }
    }

    /// The request under `tag` went nowhere (no leader to propose it to, or
    /// the leader bounced it); its client retries.
    pub(super) fn fail(&mut self, tag: u64, out: &mut Vec<ServerOut>) {
        self.complete(tag, LOST, out);
    }

    /// An election started: nothing in flight can be tracked to a commit
    /// any more. Fail it all so clients retry against the new regime.
    pub(super) fn fail_all(&mut self, out: &mut Vec<ServerOut>) {
        for (_, Pending { client, req_id }) in self.pending.drain() {
            out.push(ServerOut::Client { client, req_id, resp: LOST });
        }
    }

    /// Crash: the requests in flight die with their connections. (The tag
    /// counter survives with the in-memory log it is visible in.)
    pub(super) fn reset(&mut self) {
        self.pending.clear();
    }

    /// Restart from a recovered log: never re-mint a tag visible in it.
    pub(super) fn resume_from(&mut self, next_tag: u64) {
        self.next_tag = next_tag;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use bytes::Bytes;
    use dufs_zab::{EnsembleConfig, PeerId, ZabConfig};
    use dufs_zkstore::CreateMode;
    use proptest::prelude::*;

    use super::super::tests::Pump;
    use super::super::{CoordMsg, CoordServer, ServerIn};
    use super::*;
    use crate::api::ZkRequest;

    #[derive(Debug, Clone)]
    enum Step {
        /// A request arrives: allocate a tag for it.
        Alloc,
        /// The `n`-th oldest in-flight tag applies here.
        Complete(usize),
        /// The `n`-th oldest in-flight tag is bounced or finds no leader.
        Fail(usize),
        /// An election starts.
        Election,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            Just(Step::Alloc),
            Just(Step::Alloc),
            (0..4usize).prop_map(Step::Complete),
            (0..4usize).prop_map(Step::Fail),
            Just(Step::Election),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every request is answered exactly once, and whatever an election
        /// finds in flight is all answered by it.
        #[test]
        fn every_tag_is_answered_once(steps in proptest::collection::vec(step(), 1..60)) {
            let mut inf = Inflight::new();
            let mut next_req = 0u64;
            // Model: in-flight tags oldest first, and the requests (by
            // req_id) still owed an answer.
            let mut tags: Vec<(u64, u64)> = Vec::new(); // (tag, req_id)
            let mut owed: HashSet<u64> = HashSet::new();
            for s in steps.into_iter().chain([Step::Election]) {
                let mut out = Vec::new();
                let mut expect: Vec<u64> = Vec::new();
                match s {
                    Step::Alloc => {
                        next_req += 1;
                        tags.push((inf.alloc(7, next_req), next_req));
                        owed.insert(next_req);
                    }
                    Step::Complete(n) | Step::Fail(n) if n < tags.len() => {
                        let (tag, owner) = tags.remove(n);
                        expect.push(owner);
                        if matches!(s, Step::Complete(_)) {
                            inf.complete(tag, ZkResponse::Closed, &mut out);
                        } else {
                            inf.fail(tag, &mut out);
                        }
                    }
                    Step::Complete(_) | Step::Fail(_) => {}
                    Step::Election => {
                        expect.extend(tags.drain(..).map(|(_, owner)| owner));
                        inf.fail_all(&mut out);
                    }
                }
                let mut answered: Vec<u64> = out
                    .iter()
                    .map(|o| match o {
                        ServerOut::Client { client: 7, req_id, .. } => *req_id,
                        other => panic!("unexpected output {other:?}"),
                    })
                    .collect();
                answered.sort_unstable();
                expect.sort_unstable();
                prop_assert_eq!(&answered, &expect);
                for r in answered {
                    prop_assert!(owed.remove(&r), "request {} answered twice", r);
                }
            }
            prop_assert!(owed.is_empty(), "never answered: {:?}", owed);
            prop_assert!(inf.pending.is_empty());
        }
    }

    /// A bounced barrier is answered once, with `ConnectionLoss`, and the
    /// barrier after it proposes a no-op of its own.
    #[test]
    fn forward_reject_fails_the_barrier_once() {
        let mut p = Pump::trio();
        p.run_ms(3_000);
        let l = p.leader();
        let f = (0..3).find(|&i| i != l).unwrap();
        p.client(f, 1, 10, ZkRequest::Sync);
        // The leader never sees the forward; it bounces instead.
        let (_, _, forward) = p.inbox.pop_back().expect("the barrier was forwarded");
        let CoordMsg::Forward { tag, .. } = forward else { panic!("unexpected {forward:?}") };
        let now = p.now_ns();
        let from = PeerId(l as u32);
        let reject = ServerIn::Peer { from, msg: CoordMsg::ForwardReject { tag } };
        let outs = p.servers[f].handle(now, reject.clone());
        p.route(f, outs);
        assert_eq!(p.resps[f], [(1, 10, ZkResponse::Error(ZkError::ConnectionLoss))]);
        // A duplicate bounce answers nobody a second time.
        assert!(p.servers[f].handle(now, reject).is_empty());
        p.resps[f].clear();
        p.client(f, 3, 30, ZkRequest::Sync);
        p.drain();
        assert!(
            matches!(p.resps[f][..], [(3, 30, ZkResponse::Synced { .. })]),
            "the next barrier is answered: {:?}",
            p.resps[f]
        );
    }

    #[test]
    fn sync_barrier_flushes_group_commit_buffer() {
        let (mut s, _) = CoordServer::new_with_config(
            PeerId(0),
            EnsembleConfig::of_size(1),
            ZabConfig::batched(8, 50),
        );
        assert!(s.is_leader());
        // A create buffered behind the Nagle timer has no response yet...
        let out = s.handle(
            1_000_000,
            ServerIn::Client {
                client: 1,
                req_id: 1,
                session: 0,
                req: ZkRequest::Create {
                    path: "/b".into(),
                    data: Bytes::new(),
                    mode: CreateMode::Persistent,
                },
            },
        );
        assert!(
            !out.iter().any(|o| matches!(o, ServerOut::Client { .. })),
            "create still buffered"
        );
        // ...until a sync barrier urgently flushes the batch: the create
        // commits first (total order), then the barrier answers.
        let out = s.handle(
            2_000_000,
            ServerIn::Client { client: 1, req_id: 2, session: 0, req: ZkRequest::Sync },
        );
        let resps: Vec<(u64, ZkResponse)> = out
            .iter()
            .filter_map(|o| match o {
                ServerOut::Client { req_id, resp, .. } => Some((*req_id, resp.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(resps.len(), 2);
        assert_eq!(resps[0], (1, ZkResponse::Created { path: "/b".into() }));
        let (rid, ZkResponse::Synced { zxid }) = resps[1].clone() else {
            panic!("expected Synced, got {:?}", resps[1]);
        };
        assert_eq!(rid, 2);
        assert_eq!(zxid, s.last_applied(), "the barrier is the newest applied txn");
        assert_eq!(s.committed(), s.last_applied());
    }

    /// Two barriers in flight at once on one replica are two no-ops, each
    /// answered at its own zxid.
    #[test]
    fn every_sync_proposes_its_own_noop() {
        let mut p = Pump::trio();
        p.run_ms(3_000);
        let l = p.leader();
        let applied_before = p.servers[l].applied_count();
        // A barrier at a multi-node leader awaits quorum acks...
        p.client(l, 1, 10, ZkRequest::Sync);
        assert!(p.resps[l].is_empty(), "barrier must not answer before quorum");
        // ...and a second one arriving meanwhile is proposed beside it.
        p.client(l, 2, 20, ZkRequest::Sync);
        assert!(p.resps[l].is_empty());
        p.drain();
        let resps = std::mem::take(&mut p.resps[l]);
        let zxids: Vec<(u64, u64)> = resps
            .iter()
            .map(|(_, rid, r)| match r {
                ZkResponse::Synced { zxid } => (*rid, *zxid),
                other => panic!("request {rid} got {other:?}"),
            })
            .collect();
        assert_eq!(zxids.len(), 2, "both barriers answered: {resps:?}");
        assert_eq!(zxids[0].0, 10);
        assert!(zxids[0].1 < zxids[1].1, "each barrier is its own zxid: {zxids:?}");
        assert_eq!(p.servers[l].applied_count(), applied_before + 2, "one no-op per barrier");
    }
}
