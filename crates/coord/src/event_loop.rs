//! One coordination member, whoever hosts it.
//!
//! A [`Member`] is a [`CoordServer`] state machine (DESIGN.md, "Anatomy of
//! `CoordServer`") plus the decisions every host of one makes the same
//! way: building the server, volatile or over a [`LogStorage`]; dropping
//! inputs while the member is crashed; keeping its armed timers by token and
//! voiding them all on a crash; routing [`ServerOut`]s to a [`Host`]; and
//! reporting a [`ServerStatus`]. It does no I/O and reads no clock: a host
//! passes `now_ns` in, and takes the outputs out through three calls.
//!
//! There are two hosts. [`crate::tcp::TcpServer`] drives a member from its
//! socket wait loop under wall-clock time; the `dufs-mdtest` simulator
//! drives one under virtual time and charges modelled CPU per output.

use std::collections::HashMap;

use dufs_wal::LogStorage;
use dufs_zab::{EnsembleConfig, PeerId, ZabConfig};

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
/// inputs, pass what they emit to [`Member::route`].
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
    pub fn handle(&mut self, now_ns: u64, input: ServerIn) -> Vec<ServerOut> {
        if !self.alive {
            return Vec::new();
        }
        self.server.handle(now_ns, input)
    }

    /// Fire the timer armed under `token`; `None` if a crash voided it.
    pub fn fire(&mut self, now_ns: u64, token: u64) -> Option<Vec<ServerOut>> {
        let timer = self.armed.remove(&token)?;
        Some(self.server.handle(now_ns, ServerIn::Timer(timer)))
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

    /// Route outputs in the order the state machine emitted them: replies
    /// and watch events to clients, replication traffic to peers, timers
    /// armed under fresh tokens.
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
    use super::*;
    use crate::api::ZkRequest;

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
}
