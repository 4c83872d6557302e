//! One coordination member, whoever hosts it.
//!
//! A [`Member`] is a [`CoordServer`] state machine (DESIGN.md, "Anatomy of
//! `CoordServer`") plus the decisions every host of one makes the same
//! way: building the server, volatile or over a [`LogStorage`]; dropping
//! inputs while the member is crashed; keeping its armed timers by token and
//! voiding them all on a crash; routing [`ServerOut`]s to a [`Host`]; and
//! reporting a [`ServerStatus`]. It does no I/O and reads no clock: a host
//! passes `now_ns` in.
//!
//! A host runs the member in passes. It feeds a pass's inputs
//! ([`Member::handle`], [`Member::fire`], [`Member::restart`]) and gathers
//! their outputs; routes only the leader's proposals among them
//! ([`Member::route_proposals`]); takes the pass's one durability point
//! ([`Member::sync`]); and only then routes everything else
//! ([`Member::route`]). No input is handled between a pass's proposals
//! leaving and its sync, so an `Ack` to a proposal always finds the
//! leader's own copy durable.
//!
//! There are two hosts. [`crate::tcp::TcpServer`] drives a member from its
//! socket wait loop under wall-clock time, draining every ready event into
//! one pass; the `dufs-mdtest` simulator drives one under virtual time, one
//! event per pass, and charges modelled CPU per output.

use std::collections::HashMap;

use dufs_wal::LogStorage;
use dufs_zab::{EnsembleConfig, PeerId, ZabConfig, ZabMsg};

use crate::runtime::{ClientEvent, ServerStatus};
use crate::server::{ClientId, CoordMsg, CoordServer, CoordTimer, ServerIn, ServerOut};

/// Where a [`Member`]'s outputs go.
pub trait Host {
    /// Deliver a response or watch event to a connected client; silently
    /// dropped if the client is gone.
    fn deliver(&mut self, to: ClientId, ev: ClientEvent);

    /// Send a replication message to an ensemble peer; dropped if the peer
    /// is unreachable (ZAB resynchronizes through lossy links by design).
    fn send_peer(&mut self, to: PeerId, msg: CoordMsg);

    /// Call [`Member::fire`] with `token` in `after_ms` milliseconds of the
    /// protocol's time.
    fn arm(&mut self, token: u64, after_ms: u64);
}

/// One member of a coordination ensemble, without its transport. Feed it
/// inputs, take its durability point, pass what they emitted to
/// [`Member::route`].
pub struct Member {
    server: CoordServer,
    /// `false` from [`Member::crash`] until [`Member::restart`].
    alive: bool,
    /// Armed protocol timers by token. An entry leaves when its timer
    /// fires; a crash voids them all.
    armed: HashMap<u64, CoordTimer>,
    /// The last token handed out. Tokens count up from 1 for the member's
    /// whole life, so a token voided by a crash is never armed again.
    last_token: u64,
}

impl Member {
    /// Build member `me` of `config`, durable over `log` when given (a log
    /// that already holds history is recovered), and return it with its
    /// startup outputs. Panics if the log cannot be recovered.
    pub fn new(
        me: PeerId,
        config: EnsembleConfig,
        zab: ZabConfig,
        log: Option<Box<dyn LogStorage>>,
    ) -> (Self, Vec<ServerOut>) {
        let (server, startup) = match log {
            Some(log) => CoordServer::new_durable(me, config, zab, log)
                .expect("recover server state from its write-ahead log"),
            None => CoordServer::new_with_config(me, config, zab),
        };
        (Member { server, alive: true, armed: HashMap::new(), last_token: 0 }, startup)
    }

    /// The wrapped state machine.
    pub fn server(&self) -> &CoordServer {
        &self.server
    }

    /// How many timers are armed and not yet fired or voided.
    pub fn armed(&self) -> usize {
        self.armed.len()
    }

    /// Feed a client request or peer message; a crashed member drops it.
    /// The outputs wait for the pass's [`Member::sync`].
    pub fn handle(&mut self, now_ns: u64, input: ServerIn) -> Vec<ServerOut> {
        if !self.alive {
            return Vec::new();
        }
        self.server.handle_unsynced(now_ns, input)
    }

    /// Fire the timer armed under `token`; `None` if a crash voided it.
    /// The outputs wait for the pass's [`Member::sync`].
    pub fn fire(&mut self, now_ns: u64, token: u64) -> Option<Vec<ServerOut>> {
        let timer = self.armed.remove(&token)?;
        Some(self.server.handle_unsynced(now_ns, ServerIn::Timer(timer)))
    }

    /// The pass's durability point ([`CoordServer::sync`]): one fsync for
    /// everything its inputs persisted. `false` means the log failed and
    /// the member is fenced (silent until a restart): drop every output the
    /// pass still holds.
    pub fn sync(&mut self) -> bool {
        self.alive && self.server.sync()
    }

    /// Drop volatile state and every armed timer, and stop reacting, as a
    /// killed process would (the log survives). Idempotent.
    pub fn crash(&mut self) {
        if self.alive {
            self.alive = false;
            self.armed.clear();
            self.server.on_crash();
        }
    }

    /// Come back from [`Member::crash`]: recover from the log and rejoin.
    /// Nothing to do for a member that is up.
    pub fn restart(&mut self, now_ns: u64) -> Vec<ServerOut> {
        if self.alive {
            return Vec::new();
        }
        self.alive = true;
        self.server.on_restart(now_ns)
    }

    /// What a status probe reports.
    pub fn status(&self) -> ServerStatus {
        let server = &self.server;
        ServerStatus {
            is_leader: self.alive && server.is_leader(),
            last_applied: server.last_applied(),
            committed: server.committed(),
            node_count: server.tree().node_count(),
            digest: server.tree().digest(),
            alive: self.alive,
        }
    }

    /// Send the proposals among a pass's outputs — the one kind that may
    /// leave before the pass's [`Member::sync`] — and leave the rest in
    /// `outs`, in order. A proposal overtakes the pass's held commits, pings
    /// and replies, which its follower takes the same in either order; but
    /// not a held `SyncLog` or `SnapChunk` to its own peer, because a
    /// follower that has asked for a sync drops a proposal that reaches it
    /// first, and the gap after the sync would send it back to ask again.
    pub fn route_proposals(&mut self, outs: &mut Vec<ServerOut>, host: &mut impl Host) {
        let mut syncing = Vec::new();
        let (early, held) = std::mem::take(outs).into_iter().partition(|o| match o {
            ServerOut::Peer { to, msg: CoordMsg::Zab(ZabMsg::Propose { .. }) } => {
                !syncing.contains(to)
            }
            ServerOut::Peer {
                to,
                msg: CoordMsg::Zab(ZabMsg::SyncLog { .. } | ZabMsg::SnapChunk { .. }),
            } => {
                syncing.push(*to);
                false
            }
            _ => false,
        });
        *outs = held;
        self.route(early, host);
    }

    /// Route outputs in the order the state machine emitted them: replies
    /// and watch events to clients, replication traffic to peers, timers
    /// armed under fresh tokens. Only past the pass's [`Member::sync`].
    pub fn route(&mut self, outs: Vec<ServerOut>, host: &mut impl Host) {
        for o in outs {
            match o {
                ServerOut::Client { client, req_id, resp } => {
                    host.deliver(client, ClientEvent::Resp { req_id, resp })
                }
                ServerOut::Peer { to, msg } => host.send_peer(to, msg),
                ServerOut::Timer { timer, after_ms } => {
                    self.last_token += 1;
                    self.armed.insert(self.last_token, timer);
                    host.arm(self.last_token, after_ms);
                }
                ServerOut::Watch { client, note } => host.deliver(client, ClientEvent::Watch(note)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use bytes::Bytes;
    use dufs_wal::MemStorage;
    use dufs_zab::Zxid;
    use dufs_zkstore::CreateMode;

    use super::*;
    use crate::api::{ZkRequest, ZkResponse};
    use crate::txn::{Txn, TxnOp};

    /// A host that records the clients it delivers to and the timers it
    /// arms, in order, and sends nothing.
    #[derive(Default)]
    struct Recorder {
        delivered: Vec<ClientId>,
        armed: Vec<(u64, u64)>,
    }

    impl Host for Recorder {
        fn deliver(&mut self, to: ClientId, _ev: ClientEvent) {
            self.delivered.push(to);
        }
        fn send_peer(&mut self, _to: PeerId, _msg: CoordMsg) {}
        fn arm(&mut self, token: u64, after_ms: u64) {
            self.armed.push((token, after_ms));
        }
    }

    fn connect(client: ClientId) -> ServerIn {
        ServerIn::Client { client, req_id: 1, session: 0, req: ZkRequest::Connect }
    }

    /// The crash rule, over a recording host with explicit times and no
    /// sockets: a crashed member answers nothing, its armed timers fire
    /// nothing, and a restart arms the startup timers again under fresh
    /// tokens.
    #[test]
    fn a_crash_silences_the_member_and_voids_its_timers() {
        let (mut m, startup) =
            Member::new(PeerId(0), EnsembleConfig::of_size(3), ZabConfig::default(), None);
        let mut host = Recorder::default();
        m.route(startup, &mut host);
        let boot: Vec<u64> = host.armed.iter().map(|&(_, after_ms)| after_ms).collect();
        assert_eq!(host.armed.iter().map(|&(t, _)| t).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(m.armed(), 2, "the election timer and the session sweep");
        assert!(m.status().alive);
        let outs = m.handle(1_000, connect(7));
        m.route(outs, &mut host);
        assert_eq!(host.delivered, [7], "a live member answers");

        m.crash();
        m.crash();
        assert!(!m.status().alive);
        assert!(!m.status().is_leader);
        assert_eq!(m.armed(), 0);
        assert!(m.handle(2_000, connect(8)).is_empty(), "a crashed member drops its inputs");
        assert!(
            m.fire(3_000, 1).is_none() && m.fire(3_000, 2).is_none(),
            "voided timers fire nothing"
        );

        host.armed.clear();
        let outs = m.restart(4_000);
        m.route(outs, &mut host);
        assert!(m.status().alive);
        let rearmed: Vec<u64> = host.armed.iter().map(|&(_, after_ms)| after_ms).collect();
        assert_eq!(rearmed, boot, "a restart arms what a start arms");
        assert_eq!(host.armed.iter().map(|&(t, _)| t).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(m.armed(), 2);
        assert!(m.fire(5_000, 1).is_none(), "a voided token stays void");
        assert!(m.restart(5_000).is_empty(), "restarting a live member does nothing");
        assert!(m.fire(5_000, 3).is_some());
        assert_eq!(m.armed(), 1);
        let outs = m.handle(6_000, connect(9));
        m.route(outs, &mut host);
        assert_eq!(host.delivered, [7, 9]);
    }

    fn create(path: &str) -> ZkRequest {
        ZkRequest::Create { path: path.into(), data: Bytes::new(), mode: CreateMode::Persistent }
    }

    /// Three durable members on `MemStorage` (a crash drops every byte not
    /// yet synced) under a virtual clock: FIFO links, timers fired in due
    /// order, one input per pass, each pass routed the way a host must.
    /// Traffic to or from the `cut` member is lost.
    struct Trio {
        members: Vec<Member>,
        net: Net,
    }

    /// The links, timers and client replies of a [`Trio`].
    struct Net {
        links: VecDeque<(usize, PeerId, CoordMsg)>,
        timers: Vec<(u64, usize, u64)>,
        replies: Vec<Vec<(u64, ZkResponse)>>,
        now_ms: u64,
        cut: Option<usize>,
    }

    impl Net {
        fn now_ns(&self) -> u64 {
            self.now_ms * 1_000_000
        }

        /// Where member `me`'s routed outputs go.
        fn wire(&mut self, me: usize) -> Wire<'_> {
            Wire { me, net: self }
        }
    }

    struct Wire<'a> {
        me: usize,
        net: &'a mut Net,
    }

    impl Host for Wire<'_> {
        fn deliver(&mut self, _to: ClientId, ev: ClientEvent) {
            if let ClientEvent::Resp { req_id, resp } = ev {
                self.net.replies[self.me].push((req_id, resp));
            }
        }
        fn send_peer(&mut self, to: PeerId, msg: CoordMsg) {
            self.net.links.push_back((to.0 as usize, PeerId(self.me as u32), msg));
        }
        fn arm(&mut self, token: u64, after_ms: u64) {
            self.net.timers.push((self.net.now_ms + after_ms, self.me, token));
        }
    }

    impl Trio {
        fn new() -> Trio {
            let net = Net {
                links: VecDeque::new(),
                timers: Vec::new(),
                replies: vec![Vec::new(); 3],
                now_ms: 0,
                cut: None,
            };
            let mut t = Trio { members: Vec::new(), net };
            for i in 0..3 {
                let (me, ens) = (PeerId(i), EnsembleConfig::of_size(3));
                let log = Box::new(MemStorage::new()) as Box<dyn LogStorage>;
                let (m, startup) = Member::new(me, ens, ZabConfig::default(), Some(log));
                t.members.push(m);
                t.finish(i as usize, startup);
            }
            t
        }

        /// Route the rest of a pass of member `i`: its proposals, its
        /// durability point, then everything else.
        fn finish(&mut self, i: usize, mut outs: Vec<ServerOut>) {
            let (m, net) = (&mut self.members[i], &mut self.net);
            m.route_proposals(&mut outs, &mut net.wire(i));
            if m.sync() {
                m.route(outs, &mut net.wire(i));
            }
        }

        /// Feed member `i` one input and route its pass.
        fn input(&mut self, i: usize, input: ServerIn) {
            let outs = self.members[i].handle(self.net.now_ns(), input);
            self.finish(i, outs);
        }

        fn restart(&mut self, i: usize) {
            let outs = self.members[i].restart(self.net.now_ns());
            self.finish(i, outs);
        }

        /// Deliver one message, or fire the earliest timer.
        fn step(&mut self) {
            let net = &mut self.net;
            if let Some((to, from, msg)) = net.links.pop_front() {
                if !net.cut.is_some_and(|c| c == to || c == from.0 as usize) {
                    self.input(to, ServerIn::Peer { from, msg });
                }
                return;
            }
            let next = (0..net.timers.len()).min_by_key(|&k| net.timers[k].0);
            let (due, i, token) = net.timers.remove(next.expect("no timer armed"));
            net.now_ms = net.now_ms.max(due);
            if let Some(outs) = self.members[i].fire(net.now_ns(), token) {
                self.finish(i, outs);
            }
        }

        /// Run everything due in the next `ms` of virtual time.
        fn run_ms(&mut self, ms: u64) {
            let target = self.net.now_ms + ms;
            while !self.net.links.is_empty()
                || self.net.timers.iter().any(|&(due, ..)| due <= target)
            {
                self.step();
            }
            self.net.now_ms = target;
        }

        /// Create `path` at member `i` and run until it is acknowledged.
        fn acked_create(&mut self, i: usize, req_id: u64, path: &str) {
            self.input(i, ServerIn::Client { client: 1, req_id, session: 0, req: create(path) });
            for _ in 0..100 {
                if let Some(k) = self.net.replies[i].iter().position(|r| r.0 == req_id) {
                    let (_, resp) = self.net.replies[i].remove(k);
                    assert_eq!(resp, ZkResponse::Created { path: path.into() });
                    return;
                }
                self.run_ms(10);
            }
            panic!("{path} was never acknowledged");
        }

        fn leader(&self) -> Option<usize> {
            (0..3).find(|&i| self.members[i].status().is_leader)
        }

        fn has(&self, i: usize, path: &str) -> bool {
            self.members[i].server().tree().exists(path).is_ok_and(|s| s.is_some())
        }
    }

    /// A pass's proposals overtake its other outputs, except a sync frame
    /// to their own peer: a follower that asked for a sync drops what
    /// reaches it before the sync.
    #[test]
    fn a_proposal_leaves_early_unless_a_sync_to_its_peer_is_held() {
        let (mut m, _) =
            Member::new(PeerId(0), EnsembleConfig::of_size(3), ZabConfig::default(), None);
        let txn = Txn { session: 0, op: TxnOp::Noop, origin: PeerId(0), tag: 1, time_ns: 0 };
        let propose = ZabMsg::Propose { zxid: Zxid::new(1, 2), txns: vec![txn] };
        let sync = ZabMsg::SyncLog {
            epoch: 1,
            snapshot: None,
            entries: Vec::new(),
            commit_to: Zxid::new(1, 1),
            reset: false,
            snap_chunks: 0,
        };
        let peer = |to: u32, msg: &ZabMsg<Txn>| ServerOut::Peer {
            to: PeerId(to),
            msg: CoordMsg::Zab(msg.clone()),
        };
        let commit = ZabMsg::Commit { zxid: Zxid::new(1, 1) };
        let reply = ServerOut::Client { client: 7, req_id: 1, resp: ZkResponse::Deleted };
        let mut outs = vec![
            peer(2, &commit),
            reply.clone(),
            peer(1, &sync),
            peer(1, &propose),
            peer(2, &propose),
        ];
        #[derive(Default)]
        struct Sent(Vec<(PeerId, CoordMsg)>);
        impl Host for Sent {
            fn deliver(&mut self, _to: ClientId, _ev: ClientEvent) {
                panic!("a reply left before the sync point");
            }
            fn send_peer(&mut self, to: PeerId, msg: CoordMsg) {
                self.0.push((to, msg));
            }
            fn arm(&mut self, _token: u64, _after_ms: u64) {}
        }
        let mut sent = Sent::default();
        m.route_proposals(&mut outs, &mut sent);
        assert_eq!(sent.0, [(PeerId(2), CoordMsg::Zab(propose.clone()))]);
        assert_eq!(outs, [peer(2, &commit), reply, peer(1, &sync), peer(1, &propose)]);
    }

    /// The pass rule, watched from a recording host: on the leader nothing
    /// but `Propose` is routed before the durability point (not the reply to
    /// a read the pass also took), and the fsync comes after those
    /// proposals left; on a follower the `Ack` is routed only after its own
    /// fsync.
    #[test]
    fn a_leader_proposes_before_its_sync_and_a_follower_acks_after_its_own() {
        #[derive(Default)]
        struct Recorder(Vec<String>);
        impl Host for Recorder {
            fn deliver(&mut self, to: ClientId, _ev: ClientEvent) {
                self.0.push(format!("reply to {to}"));
            }
            fn send_peer(&mut self, to: PeerId, msg: CoordMsg) {
                let kind = match msg {
                    CoordMsg::Zab(ZabMsg::Propose { .. }) => "Propose",
                    CoordMsg::Zab(ZabMsg::Ack { .. }) => "Ack",
                    _ => "other",
                };
                self.0.push(format!("{kind} to {}", to.0));
            }
            fn arm(&mut self, _token: u64, _after_ms: u64) {
                self.0.push("timer".into());
            }
        }
        let mut t = Trio::new();
        t.run_ms(3_000);
        let l = t.leader().expect("an established leader");
        t.acked_create(l, 1, "/warm");
        t.run_ms(1_000);

        let now = t.net.now_ns();
        let syncs = |t: &Trio, i: usize| t.members[i].server().wal_sync_count();
        let before = syncs(&t, l);
        let read = ZkRequest::GetData { path: "/warm".into(), watch: false };
        let mut outs = t.members[l]
            .handle(now, ServerIn::Client { client: 1, req_id: 3, session: 0, req: read });
        let input = ServerIn::Client { client: 1, req_id: 2, session: 0, req: create("/w") };
        outs.extend(t.members[l].handle(now, input));
        let mut early = Recorder::default();
        t.members[l].route_proposals(&mut outs, &mut early);
        let followers: Vec<usize> = (0..3).filter(|&i| i != l).collect();
        let proposed: Vec<String> = followers.iter().map(|f| format!("Propose to {f}")).collect();
        assert_eq!(early.0, proposed, "the leader routed more than its proposals early");
        assert_eq!(syncs(&t, l), before, "the leader synced before its proposals left");
        assert!(t.members[l].sync());
        assert_eq!(syncs(&t, l), before + 1, "one fsync for the pass");
        let mut late = Recorder::default();
        t.members[l].route(outs, &mut late);
        assert!(!late.0.iter().any(|r| r.starts_with("Propose")), "{:?}", late.0);

        // The proposal reaches a follower as one input of a pass of its own.
        let f = followers[0];
        let txn =
            Txn { session: 0, op: TxnOp::Noop, origin: PeerId(l as u32), tag: 9, time_ns: now };
        let first = Zxid::from_u64(t.members[f].server().last_applied()).next();
        let propose = CoordMsg::Zab(ZabMsg::Propose { zxid: first, txns: vec![txn] });
        let before = syncs(&t, f);
        let input = ServerIn::Peer { from: PeerId(l as u32), msg: propose };
        let mut outs = t.members[f].handle(now, input);
        let mut early = Recorder::default();
        t.members[f].route_proposals(&mut outs, &mut early);
        assert!(early.0.is_empty(), "a follower routed {:?} before its sync", early.0);
        assert!(t.members[f].sync());
        assert_eq!(syncs(&t, f), before + 1);
        let mut late = Recorder::default();
        t.members[f].route(outs, &mut late);
        assert_eq!(late.0, [format!("Ack to {l}")]);
    }

    /// A leader that crashes between sending its proposals and its sync
    /// point loses its own copy of the write, which was never acknowledged;
    /// whatever the network did with the proposals, every acknowledged
    /// write survives, the unacknowledged one ends on every replica or on
    /// none, and the old leader rejoins at the same digest. Cutting off the
    /// one follower that logged the write while the old leader and the
    /// other follower form a regime takes the new leader through both
    /// answers to a follower that holds more than it does: yield to a
    /// longer history (nothing new committed yet), or reset the follower's
    /// diverged tail (the new regime acknowledged a write first).
    #[test]
    fn a_leader_crash_between_its_proposals_and_its_sync_loses_no_acked_write() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Reach {
            Both,
            One,
            Neither,
            OneCutOff { new_regime_writes: bool },
        }
        for reach in [
            Reach::Both,
            Reach::One,
            Reach::Neither,
            Reach::OneCutOff { new_regime_writes: false },
            Reach::OneCutOff { new_regime_writes: true },
        ] {
            let mut t = Trio::new();
            t.run_ms(3_000);
            let l = t.leader().expect("an established leader");
            let (f1, f2) = ((l + 1) % 3, (l + 2) % 3);
            let mut acked = Vec::new();
            for k in 0..3 {
                let path = format!("/acked{k}");
                t.acked_create(l, k, &path);
                acked.push(path);
            }
            t.run_ms(500);

            // The crash window: the pass's proposals leave, its fsync never
            // happens, and its held outputs (the client's reply among them,
            // once the write commits) die with the process.
            let input = ServerIn::Client { client: 1, req_id: 99, session: 0, req: create("/w") };
            let mut outs = t.members[l].handle(t.net.now_ns(), input);
            t.members[l].route_proposals(&mut outs, &mut t.net.wire(l));
            t.members[l].crash();
            assert_eq!(t.net.links.len(), 2, "{reach:?}: one proposal per follower");
            let keep = |to: usize| match reach {
                Reach::Both => true,
                Reach::One | Reach::OneCutOff { .. } => to == f1,
                Reach::Neither => false,
            };
            t.net.links.retain(|(to, ..)| keep(*to));
            t.run_ms(0);

            let (survivors, rejoined) = match reach {
                Reach::OneCutOff { new_regime_writes } => {
                    // f1 alone holds the write; the old leader comes back
                    // without it and forms a regime with f2.
                    t.net.cut = Some(f1);
                    t.run_ms(1_000);
                    t.restart(l);
                    t.run_ms(3_000);
                    let leader = t.leader().expect("a regime without f1");
                    if new_regime_writes {
                        t.acked_create(leader, 100, "/after");
                        acked.push("/after".into());
                    }
                    t.net.cut = None;
                    t.run_ms(5_000);
                    (vec![l, f1, f2], true)
                }
                _ => {
                    t.run_ms(3_000);
                    (vec![f1, f2], false)
                }
            };
            if t.leader().is_none() {
                let roles: Vec<_> = t.members.iter().map(|m| m.server().role()).collect();
                panic!("{reach:?}: no leader, roles {roles:?}");
            }
            let check = |t: &Trio, replicas: &[usize]| {
                let digest = t.members[replicas[0]].status().digest;
                for &i in replicas {
                    assert_eq!(t.members[i].status().digest, digest, "{reach:?}: {i} diverged");
                    for path in &acked {
                        assert!(t.has(i, path), "{reach:?}: replica {i} lost acked {path}");
                    }
                }
                let holders = replicas.iter().filter(|&&i| t.has(i, "/w")).count();
                assert!(holders == 0 || holders == replicas.len(), "{reach:?}: /w on {holders}");
                holders > 0
            };
            let kept = check(&t, &survivors);
            if !rejoined {
                t.restart(l);
                t.run_ms(5_000);
            }
            assert_eq!(check(&t, &[0, 1, 2]), kept, "{reach:?}: the old leader moved /w");
            let expect = match reach {
                Reach::Both | Reach::One => true,
                Reach::Neither => false,
                // The longer history wins an election once a leader yields
                // to it; a regime that committed past it resets it away.
                Reach::OneCutOff { new_regime_writes } => !new_regime_writes,
            };
            assert_eq!(kept, expect, "{reach:?}");
        }
    }
}
