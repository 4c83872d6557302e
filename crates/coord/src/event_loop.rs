//! The coordination-server event loop, written once for both live
//! runtimes.
//!
//! A live server is a [`CoordServer`] state machine (DESIGN.md, "Anatomy of
//! `CoordServer`") plus whatever moves its inputs and outputs: channels in
//! [`crate::runtime::ThreadCluster`], `dufs-net` connections in
//! [`crate::tcp::TcpServer`]. Everything between — recovering the state
//! machine from its WAL, the timer wheel under [`TIME_DILATION`], feeding
//! [`ServerIn`]s, dispatching [`ServerOut`]s, crash/restart gating and the
//! [`ServerStatus`] probe — is [`run`], generic over the [`Host`] that does
//! the moving. (The `dufs-mdtest` simulator drives the same state machine
//! under virtual time and charges modelled CPU per output; it is a different
//! driver, not a third copy.)

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dufs_wal::FileStorage;
use dufs_zab::{EnsembleConfig, PeerId, ZabConfig};

use crate::runtime::{ClientEvent, ServerStatus};
use crate::server::{ClientId, CoordMsg, CoordServer, CoordTimer, ServerIn, ServerOut};

/// Multiplier applied to every protocol timer by the live runtimes. The
/// state machines are tuned for a quiet network; on a loaded CI machine,
/// scheduling jitter of hundreds of ms would otherwise trip watchdogs and
/// flap elections. Relative timing is preserved.
const TIME_DILATION: u64 = 3;

/// Longest the loop sleeps when no timer is due sooner.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// What a [`Host`] hands the loop on each pass. `P` says where a status
/// probe's answer goes ([`Host::Probe`]).
pub(crate) enum Input<P> {
    /// A client request or peer message for the state machine (dropped
    /// while the server is crashed).
    Server(ServerIn),
    /// Answer a status probe.
    Inspect(P),
    /// Drop volatile state and stop reacting, as a killed process would
    /// (the log survives).
    Crash,
    /// Come back from [`Input::Crash`]: recover from the log and rejoin.
    Restart,
    /// Nothing for the state machine this pass: the wait ran out, or the
    /// host consumed the traffic itself.
    Idle,
    /// Leave the loop.
    Stop,
}

/// The transport half of a live server: where inputs come from and where
/// outputs go.
pub(crate) trait Host {
    /// Where the answer to a status probe goes.
    type Probe;

    /// The next input, waiting at most `wait` for one.
    fn next(&mut self, wait: Duration) -> Input<Self::Probe>;

    /// Deliver a response or watch event to a connected client; silently
    /// dropped if the client is gone.
    fn deliver(&mut self, to: ClientId, ev: ClientEvent);

    /// Send a replication message to an ensemble peer; dropped if the peer
    /// is unreachable (ZAB resynchronizes through lossy links by design).
    fn send_peer(&mut self, to: PeerId, msg: CoordMsg);

    /// Answer a status probe taken from [`Input::Inspect`].
    fn report(&mut self, probe: Self::Probe, status: ServerStatus);

    /// Called at the end of every pass, with the state machine at rest.
    fn after_pass(&mut self, _server: &mut CoordServer, _now_ns: u64) {}
}

fn status_of(server: &CoordServer, alive: bool) -> ServerStatus {
    ServerStatus {
        is_leader: alive && server.is_leader(),
        last_applied: server.last_applied(),
        committed: server.committed(),
        node_count: server.tree().node_count(),
        digest: server.tree().digest(),
        alive,
    }
}

/// Route one batch of state-machine outputs: replies and watch events to
/// clients, replication traffic to peers, timers onto the wheel.
fn dispatch<H: Host>(outs: Vec<ServerOut>, host: &mut H, timers: &mut Vec<(Instant, CoordTimer)>) {
    for o in outs {
        match o {
            ServerOut::Client { client, req_id, resp } => {
                host.deliver(client, ClientEvent::Resp { req_id, resp })
            }
            ServerOut::Peer { to, msg } => host.send_peer(to, msg),
            ServerOut::Timer { timer, after_ms } => timers
                .push((Instant::now() + Duration::from_millis(after_ms * TIME_DILATION), timer)),
            ServerOut::Watch { client, note } => host.deliver(client, ClientEvent::Watch(note)),
        }
    }
}

/// Host member `me` of the ensemble `config` until the host says
/// [`Input::Stop`]. Runs on the calling thread — the state machine is built
/// here because a durable server holds a `Box<dyn LogStorage>`, which is
/// not `Send` — recovering from `wal_dir` when given (panics if the
/// directory cannot be opened or recovered). `epoch` is the zero of the
/// clock the state machine sees.
pub(crate) fn run<H: Host>(
    me: PeerId,
    config: EnsembleConfig,
    zab: ZabConfig,
    wal_dir: Option<PathBuf>,
    epoch: Instant,
    mut host: H,
) {
    let (mut server, init) = match wal_dir {
        Some(dir) => {
            let storage = FileStorage::new(&dir).expect("open WAL directory");
            CoordServer::new_durable(me, config, zab, Box::new(storage))
                .expect("recover server state from its write-ahead log")
        }
        None => CoordServer::new_with_config(me, config, zab),
    };
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut timers: Vec<(Instant, CoordTimer)> = Vec::new();
    let mut alive = true;
    dispatch(init, &mut host, &mut timers);

    loop {
        // Fire due timers. A crashed server has none: the crash cleared
        // them and nothing arms one while it is down.
        let now = Instant::now();
        let mut due = Vec::new();
        timers.retain(|&(at, t)| {
            if at <= now {
                due.push(t);
                false
            } else {
                true
            }
        });
        for t in due {
            let outs = server.handle(now_ns(), ServerIn::Timer(t));
            dispatch(outs, &mut host, &mut timers);
        }
        // Wait for traffic or the next timer.
        let wait = timers
            .iter()
            .map(|&(at, _)| at.saturating_duration_since(Instant::now()))
            .min()
            .map_or(MAX_WAIT, |d| d.min(MAX_WAIT));
        let outs = match host.next(wait) {
            Input::Stop => return,
            Input::Server(input) if alive => server.handle(now_ns(), input),
            Input::Inspect(probe) => {
                host.report(probe, status_of(&server, alive));
                Vec::new()
            }
            Input::Crash if alive => {
                alive = false;
                timers.clear();
                server.on_crash();
                Vec::new()
            }
            Input::Restart if !alive => {
                alive = true;
                server.on_restart(now_ns())
            }
            Input::Server(_) | Input::Crash | Input::Restart | Input::Idle => Vec::new(),
        };
        dispatch(outs, &mut host, &mut timers);
        host.after_pass(&mut server, now_ns());
    }
}
