//! Writes originated at this server and not yet answered.

use std::collections::HashMap;

use dufs_zkstore::ZkError;

use super::{ClientId, ServerOut};
use crate::api::ZkResponse;

/// Who to answer when a write resolves.
struct Pending {
    client: ClientId,
    req_id: u64,
}

impl Pending {
    fn answer(self, resp: ZkResponse, out: &mut Vec<ServerOut>) {
        out.push(ServerOut::Client { client: self.client, req_id: self.req_id, resp });
    }
}

/// The write can no longer be tracked to a commit: its client retries.
const LOST: ZkResponse = ZkResponse::Error(ZkError::ConnectionLoss);

/// The origin-local tags of writes in flight, and the sync barriers that
/// other sessions ride.
///
/// Invariant: every tag from [`Inflight::alloc`] is answered exactly once —
/// by [`Inflight::complete`] when its transaction applies here, or by
/// [`Inflight::fail`]/[`Inflight::fail_all`] — unless a crash
/// ([`Inflight::reset`]) takes the client connections down with it; and a
/// rider is answered exactly when the barrier it rides is.
pub(super) struct Inflight {
    /// Write requests originated here, awaiting commit.
    pending: HashMap<u64, Pending>,
    next_tag: u64,
    /// Tag of the newest sync barrier proposed here and not yet applied;
    /// coalescible `Sync { coalesce: true }` requests ride it instead of
    /// paying for their own ZAB round.
    open_barrier: Option<u64>,
    /// Barrier tag → clients riding that barrier.
    barrier_riders: HashMap<u64, Vec<Pending>>,
    /// Barriers answered by riding another session's no-op proposal.
    barriers_coalesced: u64,
}

impl Inflight {
    pub(super) fn new() -> Self {
        Inflight {
            pending: HashMap::new(),
            next_tag: 1,
            open_barrier: None,
            barrier_riders: HashMap::new(),
            barriers_coalesced: 0,
        }
    }

    pub(super) fn barriers_coalesced(&self) -> u64 {
        self.barriers_coalesced
    }

    /// A fresh tag nobody awaits (the sweep's fire-and-forget closes).
    pub(super) fn alloc_detached(&mut self) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        tag
    }

    /// A fresh tag for a write `client` awaits the answer to.
    pub(super) fn alloc(&mut self, client: ClientId, req_id: u64) -> u64 {
        let tag = self.alloc_detached();
        self.pending.insert(tag, Pending { client, req_id });
        tag
    }

    pub(super) fn is_pending(&self, tag: u64) -> bool {
        self.pending.contains_key(&tag)
    }

    /// Ride the barrier already in flight on this replica, if there is one:
    /// its no-op was proposed after every write this session has had acked
    /// on an unchanged connection (ack implies the origin replica applied
    /// the write — and it could only ack after proposing, hence before the
    /// open barrier). The client guarantees the connection is unchanged by
    /// sending `coalesce: false` after any reconnect. `false` means the
    /// caller proposes a barrier of its own.
    pub(super) fn ride(&mut self, client: ClientId, req_id: u64) -> bool {
        let Some(tag) = self.open_barrier else { return false };
        if !self.pending.contains_key(&tag) {
            self.open_barrier = None;
            return false;
        }
        self.barrier_riders.entry(tag).or_default().push(Pending { client, req_id });
        self.barriers_coalesced += 1;
        true
    }

    /// `tag` is a sync barrier now in flight: later coalescing syncs ride it.
    pub(super) fn barrier_opened(&mut self, tag: u64) {
        self.open_barrier = Some(tag);
    }

    /// Answer the write under `tag`, and every rider of it, once.
    fn resolve(
        &mut self,
        tag: u64,
        owner: ZkResponse,
        riders: ZkResponse,
        out: &mut Vec<ServerOut>,
    ) {
        if let Some(p) = self.pending.remove(&tag) {
            p.answer(owner, out);
        }
        for p in self.barrier_riders.remove(&tag).unwrap_or_default() {
            p.answer(riders.clone(), out);
        }
        if self.open_barrier == Some(tag) {
            self.open_barrier = None;
        }
    }

    /// The transaction under `tag` applied here at `zxid`: answer its
    /// client with `resp`. One applied no-op proves the barrier for every
    /// rider too — the whole point of coalescing: N sessions, one ZAB round.
    pub(super) fn complete(
        &mut self,
        tag: u64,
        resp: ZkResponse,
        zxid: u64,
        out: &mut Vec<ServerOut>,
    ) {
        self.resolve(tag, resp, ZkResponse::Synced { zxid, coalesced: true }, out);
    }

    /// The write under `tag` went nowhere (no leader to propose it to, or
    /// the leader bounced it). A failed barrier takes its riders down with
    /// it; their clients retry (with a fresh, uncoalesced sync if they
    /// reconnected meanwhile).
    pub(super) fn fail(&mut self, tag: u64, out: &mut Vec<ServerOut>) {
        self.resolve(tag, LOST, LOST, out);
    }

    /// An election started: nothing in flight can be tracked to a commit
    /// any more. Fail it all so clients retry against the new regime.
    pub(super) fn fail_all(&mut self, out: &mut Vec<ServerOut>) {
        self.open_barrier = None;
        let riders = self.barrier_riders.drain().flat_map(|(_, riders)| riders);
        for p in self.pending.drain().map(|(_, p)| p).chain(riders) {
            p.answer(LOST, out);
        }
    }

    /// Crash: the requests in flight die with their connections. (The tag
    /// counter survives with the in-memory log it is visible in.)
    pub(super) fn reset(&mut self) {
        self.pending.clear();
        self.open_barrier = None;
        self.barrier_riders.clear();
    }

    /// Restart from a recovered log: never re-mint a tag visible in it.
    pub(super) fn resume_from(&mut self, next_tag: u64) {
        self.next_tag = next_tag;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

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
        /// A write arrives: allocate a tag for it.
        Write,
        /// A coalescing sync arrives: ride the open barrier or become one.
        Sync,
        /// The `n`-th oldest in-flight tag applies here.
        Complete(usize),
        /// The `n`-th oldest in-flight tag is bounced or finds no leader.
        Fail(usize),
        /// An election starts.
        Election,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            Just(Step::Write),
            Just(Step::Sync),
            Just(Step::Sync),
            (0..4usize).prop_map(Step::Complete),
            (0..4usize).prop_map(Step::Fail),
            Just(Step::Election),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every request is answered exactly once, a rider in the same
        /// breath as the barrier it rides — never before, never after,
        /// never instead — and whatever an election finds in flight is all
        /// answered by it.
        #[test]
        fn every_tag_is_answered_once_and_riders_with_their_barrier(
            steps in proptest::collection::vec(step(), 1..60)
        ) {
            let mut inf = Inflight::new();
            let mut next_req = 0u64;
            // Model: in-flight tags oldest first, who rides which, and the
            // requests (by req_id) still owed an answer.
            let mut tags: Vec<(u64, u64)> = Vec::new(); // (tag, owner req_id)
            let mut riders: HashMap<u64, Vec<u64>> = HashMap::new();
            let mut owed: HashSet<u64> = HashSet::new();
            for s in steps.into_iter().chain([Step::Election]) {
                let mut out = Vec::new();
                let mut expect: Vec<u64> = Vec::new();
                match s {
                    Step::Write => {
                        next_req += 1;
                        tags.push((inf.alloc(7, next_req), next_req));
                        owed.insert(next_req);
                    }
                    Step::Sync => {
                        next_req += 1;
                        owed.insert(next_req);
                        if inf.ride(7, next_req) {
                            let barrier = inf.open_barrier.expect("rode an open barrier");
                            prop_assert!(tags.iter().any(|&(t, _)| t == barrier));
                            riders.entry(barrier).or_default().push(next_req);
                        } else {
                            let tag = inf.alloc(7, next_req);
                            inf.barrier_opened(tag);
                            tags.push((tag, next_req));
                        }
                    }
                    Step::Complete(n) | Step::Fail(n) if n < tags.len() => {
                        let (tag, owner) = tags.remove(n);
                        expect.push(owner);
                        expect.extend(riders.remove(&tag).unwrap_or_default());
                        if matches!(s, Step::Complete(_)) {
                            inf.complete(tag, ZkResponse::Closed, 9, &mut out);
                        } else {
                            inf.fail(tag, &mut out);
                        }
                    }
                    Step::Complete(_) | Step::Fail(_) => {}
                    Step::Election => {
                        expect.extend(tags.drain(..).map(|(_, owner)| owner));
                        expect.extend(riders.drain().flat_map(|(_, r)| r));
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
            prop_assert!(inf.pending.is_empty() && inf.barrier_riders.is_empty());
        }
    }

    /// A bounced barrier takes its riders down with it, and the barrier
    /// after it is a fresh one.
    #[test]
    fn forward_reject_fails_the_barrier_and_its_riders() {
        let mut p = Pump::trio();
        p.run_ms(3_000);
        let l = p.leader();
        let f = (0..3).find(|&i| i != l).unwrap();
        p.client(f, 1, 10, ZkRequest::Sync { coalesce: false });
        p.client(f, 2, 20, ZkRequest::Sync { coalesce: true });
        assert_eq!(p.servers[f].barriers_coalesced(), 1);
        // The leader never sees the forward; it bounces instead.
        let (_, _, forward) = p.inbox.pop_back().expect("the barrier was forwarded");
        let CoordMsg::Forward { tag, .. } = forward else { panic!("unexpected {forward:?}") };
        let now = p.now_ns();
        let from = PeerId(l as u32);
        let reject = ServerIn::Peer { from, msg: CoordMsg::ForwardReject { tag } };
        let outs = p.servers[f].handle(now, reject.clone());
        p.route(f, outs);
        let lost = ZkResponse::Error(ZkError::ConnectionLoss);
        assert_eq!(p.resps[f], [(1, 10, lost.clone()), (2, 20, lost)]);
        // A duplicate bounce answers nobody a second time.
        assert!(p.servers[f].handle(now, reject).is_empty());
        p.resps[f].clear();
        p.client(f, 3, 30, ZkRequest::Sync { coalesce: true });
        p.drain();
        assert!(
            matches!(p.resps[f][..], [(3, 30, ZkResponse::Synced { coalesced: false, .. })]),
            "the failed barrier is closed: {:?}",
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
            ServerIn::Client {
                client: 1,
                req_id: 2,
                session: 0,
                req: ZkRequest::Sync { coalesce: false },
            },
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
        let (rid, ZkResponse::Synced { zxid, .. }) = resps[1].clone() else {
            panic!("expected Synced, got {:?}", resps[1]);
        };
        assert_eq!(rid, 2);
        assert_eq!(zxid, s.last_applied(), "the barrier is the newest applied txn");
        assert_eq!(s.committed(), s.last_applied());
    }

    #[test]
    fn coalesced_sync_riders_share_one_barrier() {
        let mut p = Pump::trio();
        p.run_ms(3_000);
        let l = p.leader();
        let applied_before = p.servers[l].applied_count();
        // A strict barrier at a multi-node leader awaits quorum acks.
        p.client(l, 1, 10, ZkRequest::Sync { coalesce: false });
        assert!(p.resps[l].is_empty(), "barrier must not answer before quorum");
        // A coalescing barrier arriving meanwhile rides it — no 2nd proposal.
        p.client(l, 2, 20, ZkRequest::Sync { coalesce: true });
        assert!(p.resps[l].is_empty());
        assert_eq!(p.servers[l].barriers_coalesced(), 1);
        p.drain();
        let resps = std::mem::take(&mut p.resps[l]);
        assert_eq!(resps.len(), 2, "owner and rider both answered");
        let owner = resps.iter().find(|r| r.0 == 1).expect("owner resp").2.clone();
        let rider = resps.iter().find(|r| r.0 == 2).expect("rider resp").2.clone();
        let ZkResponse::Synced { zxid: z1, coalesced: false } = owner else {
            panic!("owner got {owner:?}");
        };
        let ZkResponse::Synced { zxid: z2, coalesced: true } = rider else {
            panic!("rider got {rider:?}");
        };
        assert_eq!(z1, z2, "both observe the same barrier point");
        assert_eq!(p.servers[l].applied_count(), applied_before + 1, "exactly one no-op proposed");
        // The barrier is closed: the next coalescing sync opens a fresh one.
        p.client(l, 3, 30, ZkRequest::Sync { coalesce: true });
        p.drain();
        let resps = std::mem::take(&mut p.resps[l]);
        assert!(
            matches!(resps[..], [(3, 30, ZkResponse::Synced { coalesced: false, .. })]),
            "no open barrier to ride → proposes its own: {resps:?}"
        );
        assert_eq!(p.servers[l].barriers_coalesced(), 1);
    }
}
