//! Randomized cluster harness for ZAB safety and liveness.
//!
//! Drives a set of [`ZabPeer`]s through a tiny millisecond-granular event
//! loop with random (but per-link FIFO) message delays, crashes, restarts
//! and partitions, and checks the agreement properties the DUFS paper's
//! consistency argument rests on:
//!
//! * **Agreement** — the applied transaction sequences of any two replicas
//!   are prefixes of one another.
//! * **Durability** — a transaction the leader reported committed survives
//!   leader crashes (as long as a quorum survives).
//! * **Single leadership** — at quiescence exactly one established leader.
//!
//! The fault sweep also checkpoints: every replica installs a snapshot of its
//! applied sequence every few deliveries, so compaction, SNAP sync (inline
//! and chunked) and snapshot restore run under crashes — and a third of its
//! seeds add an observer that is crashed and restarted like any voter.

use std::collections::{BinaryHeap, HashMap, HashSet};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dufs_zab::{EnsembleConfig, PeerId, ZabAction, ZabConfig, ZabMsg, ZabPeer, ZabTimer, Zxid};

type Txn = u64;

#[derive(PartialEq, Eq)]
enum Ev {
    Msg { from: PeerId, to: PeerId, msg: ZabMsg<Txn> },
    Timer { peer: PeerId, timer: ZabTimer, generation: u32 },
}

struct Cluster {
    peers: Vec<ZabPeer<Txn>>,
    alive: Vec<bool>,
    generation: Vec<u32>,
    /// (tick, seq) ordered event queue.
    queue: BinaryHeap<(std::cmp::Reverse<(u64, u64)>, usize)>,
    events: Vec<Option<Ev>>,
    link_clock: HashMap<(PeerId, PeerId), u64>,
    blocked: HashSet<(u32, u32)>,
    tick: u64,
    seq: u64,
    rng: StdRng,
    /// Applied (committed) sequence per peer, cleared on ResetState.
    applied: Vec<Vec<(Zxid, Txn)>>,
    /// Checkpoint every this many deliveries (0 = never).
    snap_every: usize,
    /// Deliveries per peer since its last checkpoint.
    since_snap: Vec<usize>,
}

/// A checkpoint blob: the applied sequence, 16 bytes per entry.
fn encode_applied(applied: &[(Zxid, Txn)]) -> Bytes {
    let mut blob = Vec::with_capacity(applied.len() * 16);
    for (z, t) in applied {
        blob.extend_from_slice(&z.as_u64().to_le_bytes());
        blob.extend_from_slice(&t.to_le_bytes());
    }
    Bytes::from(blob)
}

fn decode_applied(blob: &[u8]) -> Vec<(Zxid, Txn)> {
    assert_eq!(blob.len() % 16, 0, "checkpoint blob is whole entries");
    blob.chunks_exact(16)
        .map(|e| {
            let z = u64::from_le_bytes(e[..8].try_into().unwrap());
            (Zxid::from_u64(z), u64::from_le_bytes(e[8..].try_into().unwrap()))
        })
        .collect()
}

impl Cluster {
    fn new(n: usize, seed: u64) -> Self {
        Self::with_observers(n, 0, seed)
    }

    fn with_observers(n: usize, o: usize, seed: u64) -> Self {
        Self::with_config(n, o, seed, ZabConfig::default())
    }

    fn with_config(n: usize, o: usize, seed: u64, zcfg: ZabConfig) -> Self {
        let total = n + o;
        let cfg = EnsembleConfig::with_observers(n, o);
        let n = total;
        let mut c = Cluster {
            peers: Vec::new(),
            alive: vec![true; n],
            generation: vec![0; n],
            queue: BinaryHeap::new(),
            events: Vec::new(),
            link_clock: HashMap::new(),
            blocked: HashSet::new(),
            tick: 0,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            applied: vec![Vec::new(); n],
            snap_every: 0,
            since_snap: vec![0; n],
        };
        for i in 0..n {
            let (peer, acts) = ZabPeer::new_with_config(PeerId(i as u32), cfg.clone(), zcfg);
            c.peers.push(peer);
            c.handle_actions(PeerId(i as u32), acts);
        }
        c
    }

    fn push(&mut self, at: u64, ev: Ev) {
        let idx = self.events.len();
        self.events.push(Some(ev));
        self.queue.push((std::cmp::Reverse((at, self.seq)), idx));
        self.seq += 1;
    }

    fn handle_actions(&mut self, me: PeerId, acts: Vec<ZabAction<Txn>>) {
        for a in acts {
            match a {
                ZabAction::Send { to, msg } => {
                    if self.blocked.contains(&(me.0, to.0)) {
                        continue;
                    }
                    let delay = self.rng.random_range(1..15u64);
                    let mut at = self.tick + delay;
                    let clock = self.link_clock.entry((me, to)).or_insert(0);
                    at = at.max(*clock); // FIFO per link
                    *clock = at;
                    self.push(at, Ev::Msg { from: me, to, msg });
                }
                ZabAction::SetTimer { timer, after_ms } => {
                    let generation = self.generation[me.0 as usize];
                    self.push(self.tick + after_ms, Ev::Timer { peer: me, timer, generation });
                }
                ZabAction::Deliver { zxid, txn } => {
                    let log = &mut self.applied[me.0 as usize];
                    if let Some((last, _)) = log.last() {
                        assert!(zxid > *last, "{me}: deliveries must be zxid-ordered");
                    }
                    log.push((zxid, txn));
                    self.since_snap[me.0 as usize] += 1;
                }
                ZabAction::ResetState => self.applied[me.0 as usize].clear(),
                ZabAction::RestoreSnapshot { zxid, blob } => {
                    let restored = decode_applied(&blob);
                    let top = restored.last().map_or(Zxid::ZERO, |(z, _)| *z);
                    assert_eq!(top, zxid, "{me}: a snapshot covers exactly its zxid");
                    self.applied[me.0 as usize] = restored;
                }
                ZabAction::BecameLeader { .. }
                | ZabAction::BecameFollower { .. }
                | ZabAction::StartedElection => {}
                // Purely in-memory harness: the peer's own fields already
                // carry the durable state (no WAL to mirror it into).
                ZabAction::Persist(_) => {}
            }
        }
        // Checkpoint what this replica has applied once enough piled up.
        let i = me.0 as usize;
        if self.snap_every > 0 && self.since_snap[i] >= self.snap_every {
            self.since_snap[i] = 0;
            if let Some(&(z, _)) = self.applied[i].last() {
                self.peers[i].install_snapshot(z, encode_applied(&self.applied[i]));
            }
        }
    }

    fn step(&mut self) -> bool {
        let Some((std::cmp::Reverse((at, _)), idx)) = self.queue.pop() else { return false };
        self.tick = self.tick.max(at);
        let ev = self.events[idx].take().expect("event consumed once");
        match ev {
            Ev::Msg { from, to, msg } => {
                if self.alive[to.0 as usize] && !self.blocked.contains(&(from.0, to.0)) {
                    let acts = self.peers[to.0 as usize].on_message(from, msg);
                    self.handle_actions(to, acts);
                }
            }
            Ev::Timer { peer, timer, generation } => {
                let i = peer.0 as usize;
                if self.alive[i] && generation == self.generation[i] {
                    let acts = self.peers[i].on_timer(timer);
                    self.handle_actions(peer, acts);
                }
            }
        }
        true
    }

    fn run_until(&mut self, tick: u64) {
        while let Some(&(std::cmp::Reverse((at, _)), _)) = self.queue.peek() {
            if at > tick {
                break;
            }
            self.step();
        }
        self.tick = self.tick.max(tick);
    }

    fn crash(&mut self, peer: usize) {
        assert!(self.alive[peer]);
        self.alive[peer] = false;
        self.generation[peer] += 1;
        self.peers[peer].on_crash();
        self.applied[peer].clear(); // volatile state machine is gone
    }

    fn restart(&mut self, peer: usize) {
        assert!(!self.alive[peer]);
        self.alive[peer] = true;
        let acts = self.peers[peer].on_restart();
        self.handle_actions(PeerId(peer as u32), acts);
    }

    /// All peers currently believing they are established leaders. More than
    /// one can exist *transiently* (an abdicating stale leader) — that is
    /// fine as long as committed histories agree, which `assert_agreement`
    /// checks; at quiescence tests assert there is exactly one.
    fn established_leaders(&self) -> Vec<usize> {
        (0..self.peers.len())
            .filter(|&i| self.alive[i] && self.peers[i].is_established_leader())
            .collect()
    }

    /// The leader with the highest epoch (the current regime).
    fn established_leader(&self) -> Option<usize> {
        self.established_leaders().into_iter().max_by_key(|&i| self.peers[i].epoch())
    }

    fn assert_single_leader(&self) -> usize {
        let leaders = self.established_leaders();
        assert_eq!(leaders.len(), 1, "expected exactly one leader at quiescence: {leaders:?}");
        leaders[0]
    }

    /// Propose through the established leader if there is one. Records the
    /// txn as committed once a Deliver for it is seen at the leader.
    fn try_propose(&mut self, txn: Txn) -> bool {
        let Some(l) = self.established_leader() else { return false };
        match self.peers[l].propose(txn) {
            Ok(acts) => {
                self.handle_actions(PeerId(l as u32), acts);
                true
            }
            Err(_) => false,
        }
    }

    fn assert_agreement(&self) {
        for i in 0..self.peers.len() {
            for j in (i + 1)..self.peers.len() {
                let (a, b) = (&self.applied[i], &self.applied[j]);
                let n = a.len().min(b.len());
                assert_eq!(&a[..n], &b[..n], "peers {i} and {j} disagree on a common prefix");
            }
        }
    }

    fn assert_alive_converged(&self) {
        let alive: Vec<usize> = (0..self.peers.len()).filter(|&i| self.alive[i]).collect();
        for w in alive.windows(2) {
            assert_eq!(
                self.applied[w[0]], self.applied[w[1]],
                "alive peers {} and {} have not converged",
                w[0], w[1]
            );
        }
    }
}

/// Settle: run generously past all election timeouts so the ensemble
/// quiesces.
const SETTLE_MS: u64 = 5_000;

#[test]
fn three_peers_elect_one_leader() {
    for seed in 0..10 {
        let mut c = Cluster::new(3, seed);
        c.run_until(SETTLE_MS);
        c.assert_single_leader();
    }
}

#[test]
fn replication_without_faults_applies_everywhere() {
    let mut c = Cluster::new(3, 42);
    c.run_until(SETTLE_MS);
    let mut accepted = 0;
    for i in 0..200u64 {
        if c.try_propose(i) {
            accepted += 1;
        }
        c.run_until(c.tick + 3);
    }
    assert_eq!(accepted, 200);
    c.run_until(c.tick + SETTLE_MS);
    c.assert_agreement();
    c.assert_alive_converged();
    assert_eq!(c.applied[0].len(), 200);
    let vals: Vec<Txn> = c.applied[0].iter().map(|(_, t)| *t).collect();
    assert_eq!(vals, (0..200).collect::<Vec<_>>(), "commit order == proposal order");
}

#[test]
fn five_peer_ensemble_replicates() {
    let mut c = Cluster::new(5, 7);
    c.run_until(SETTLE_MS);
    for i in 0..50u64 {
        assert!(c.try_propose(i));
        c.run_until(c.tick + 5);
    }
    c.run_until(c.tick + SETTLE_MS);
    c.assert_alive_converged();
    assert_eq!(c.applied[0].len(), 50);
}

#[test]
fn leader_crash_preserves_committed_history() {
    let mut c = Cluster::new(3, 1);
    c.run_until(SETTLE_MS);
    for i in 0..20u64 {
        assert!(c.try_propose(i));
        c.run_until(c.tick + 5);
    }
    c.run_until(c.tick + 500);
    let old_leader = c.established_leader().unwrap();
    let committed_before = c.applied[old_leader].clone();
    assert_eq!(committed_before.len(), 20);

    c.crash(old_leader);
    c.run_until(c.tick + SETTLE_MS);
    let new_leader = c.established_leader().expect("survivors elect a leader");
    assert_ne!(new_leader, old_leader);
    // Every committed txn survives on the new leader.
    assert!(c.applied[new_leader].len() >= 20);
    assert_eq!(&c.applied[new_leader][..20], &committed_before[..]);

    // The new regime accepts writes.
    assert!(c.try_propose(999));
    c.run_until(c.tick + SETTLE_MS);
    c.assert_agreement();
    assert_eq!(c.applied[new_leader].last().unwrap().1, 999);
}

#[test]
fn crashed_follower_catches_up_on_restart() {
    let mut c = Cluster::new(3, 5);
    c.run_until(SETTLE_MS);
    let leader = c.established_leader().unwrap();
    let follower = (0..3).find(|&i| i != leader).unwrap();
    c.crash(follower);
    for i in 0..30u64 {
        assert!(c.try_propose(i), "quorum of 2 keeps committing");
        c.run_until(c.tick + 5);
    }
    c.run_until(c.tick + 500);
    c.restart(follower);
    c.run_until(c.tick + SETTLE_MS);
    c.assert_alive_converged();
    assert_eq!(c.applied[follower].len(), 30, "restarted follower replayed everything");
}

#[test]
fn observers_replicate_without_joining_quorums() {
    // 3 voters + 2 observers.
    let mut c = Cluster::with_observers(3, 2, 17);
    c.run_until(SETTLE_MS);
    let leader = c.assert_single_leader();
    assert!(leader < 3, "an observer must never lead");
    for i in 0..40u64 {
        assert!(c.try_propose(i));
        c.run_until(c.tick + 5);
    }
    c.run_until(c.tick + SETTLE_MS);
    c.assert_alive_converged();
    // Observers applied the full committed stream.
    assert_eq!(c.applied[3].len(), 40);
    assert_eq!(c.applied[4].len(), 40);

    // Kill BOTH observers: commits continue (they are not in any quorum).
    c.crash(3);
    c.crash(4);
    for i in 40..60u64 {
        assert!(c.try_propose(i), "observers must not affect the write quorum");
        c.run_until(c.tick + 5);
    }
    c.run_until(c.tick + SETTLE_MS);
    assert_eq!(c.applied[0].len(), 60);

    // A restarted observer catches up.
    c.restart(3);
    c.run_until(c.tick + SETTLE_MS);
    assert_eq!(c.applied[3].len(), 60);
}

#[test]
fn observer_crash_of_voters_still_respects_quorum() {
    // 3 voters + 1 observer: killing 2 voters leaves 1 voter + observer —
    // NOT a quorum, so writes must stop even though 2 machines are up.
    let mut c = Cluster::with_observers(3, 1, 23);
    c.run_until(SETTLE_MS);
    let leader = c.assert_single_leader();
    let voters: Vec<usize> = (0..3).filter(|&i| i != leader).collect();
    c.crash(voters[0]);
    c.crash(voters[1]);
    c.run_until(c.tick + 2 * SETTLE_MS);
    // The leader abdicates (no voter quorum); nobody can commit.
    assert!(c.established_leaders().is_empty(), "1 voter + observer is not a quorum");
}

#[test]
fn minority_partition_cannot_commit() {
    let mut c = Cluster::new(3, 9);
    c.run_until(SETTLE_MS);
    let leader = c.established_leader().unwrap();
    let others: Vec<usize> = (0..3).filter(|&i| i != leader).collect();

    // Isolate the leader from both followers.
    for &o in &others {
        c.blocked.insert((leader as u32, o as u32));
        c.blocked.insert((o as u32, leader as u32));
    }
    c.run_until(c.tick + SETTLE_MS);

    // The majority side elected a fresh leader; the isolated old leader
    // must have abdicated (no established leader on the minority side).
    let new_leader = c.established_leader().expect("majority elects");
    assert!(others.contains(&new_leader));
    assert!(!c.peers[leader].is_established_leader(), "isolated leader abdicated");

    // Writes through the new leader commit; count them.
    for i in 0..10u64 {
        assert!(c.try_propose(100 + i));
        c.run_until(c.tick + 5);
    }
    c.run_until(c.tick + 1000);
    assert!(c.applied[new_leader].iter().any(|(_, t)| *t == 109));

    // Heal the partition: the old leader rejoins and converges.
    c.blocked.clear();
    c.run_until(c.tick + SETTLE_MS);
    c.assert_alive_converged();
}

fn run_fault_scenario(seed: u64) {
    let n = 3 + (seed as usize % 2) * 2; // 3 or 5 voters
    let quorum = n / 2 + 1;
    // A third of the seeds add one observer (id `n`): crashed and restarted
    // like any member, but never counted toward the voter quorum.
    let o = usize::from((seed / 3).is_multiple_of(3));
    let total = n + o;
    // Mix write-path configurations across seeds: a third of the sweep
    // runs the classic one-txn-per-proposal protocol, the rest group
    // commit with different batch/flush shapes — every fault pattern is
    // exercised against both. Half the seeds stream snapshots in small
    // chunks, so a SNAP sync spans many frames that a crash can cut.
    let zcfg = match seed % 3 {
        0 => ZabConfig::default(),
        1 => ZabConfig::batched(4, 3),
        _ => ZabConfig::batched(16, 8),
    };
    let zcfg = if (seed / 9) % 2 == 1 { zcfg.with_snap_chunk_bytes(64) } else { zcfg };
    let mut c = Cluster::with_config(n, o, 1000 + seed, zcfg);
    c.snap_every = 4 + (seed as usize % 5) * 4;
    c.run_until(SETTLE_MS);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_txn = 0u64;
    let alive_voters = |c: &Cluster| (0..n).filter(|&i| c.alive[i]).count();
    for _ in 0..120 {
        match rng.random_range(0..12u32) {
            0 => {
                // Crash someone while keeping a voter quorum.
                let alive: Vec<usize> = (0..total).filter(|&i| c.alive[i]).collect();
                let victim = alive[rng.random_range(0..alive.len())];
                if victim >= n || alive_voters(&c) > quorum {
                    c.crash(victim);
                }
            }
            1 => {
                let dead: Vec<usize> = (0..total).filter(|&i| !c.alive[i]).collect();
                if let Some(&p) = dead.first() {
                    c.restart(p);
                }
            }
            2 => {
                // Burst: several proposals land in the same batch window
                // (no time passes between them), then sometimes crash
                // the leader *mid-batch* — buffered or partially-acked
                // transactions must die with the regime, never surface
                // as a half-applied batch on any replica.
                let burst = rng.random_range(2..6u32);
                for _ in 0..burst {
                    if c.try_propose(next_txn) {
                        next_txn += 1;
                    }
                }
                if rng.random_range(0..3u32) == 0 {
                    if let Some(l) = c.established_leader() {
                        if alive_voters(&c) > quorum {
                            c.crash(l);
                        }
                    }
                }
            }
            _ => {
                if c.try_propose(next_txn) {
                    next_txn += 1;
                }
            }
        }
        c.run_until(c.tick + rng.random_range(5..100u64));
        c.assert_agreement();
    }
    // Restart everyone and settle: all must converge.
    let dead: Vec<usize> = (0..total).filter(|&i| !c.alive[i]).collect();
    for p in dead {
        c.restart(p);
    }
    c.run_until(c.tick + 4 * SETTLE_MS);
    if std::env::var("ZAB_TRACE").is_ok() {
        eprintln!("seed {seed}: roles at end:");
        for (i, p) in c.peers.iter().enumerate() {
            eprintln!(
                "  peer {i}: {:?} e{} z{} applied={} committed={}",
                p.role(),
                p.epoch(),
                p.last_zxid(),
                c.applied[i].len(),
                p.committed()
            );
        }
    }
    c.assert_agreement();
    c.assert_alive_converged();
    c.assert_single_leader();
    // No duplicates or reordering: applied txns are unique and in
    // proposal order (gaps are fine — transactions buffered or
    // partially acked when a leader died are allowed to vanish, but
    // never to come back out of order).
    let vals: Vec<Txn> = c.applied[0].iter().map(|(_, t)| *t).collect();
    assert!(vals.windows(2).all(|w| w[0] < w[1]), "seed {seed}: duplicate or reordered delivery");
}

#[test]
fn batched_replication_commits_everything_in_order() {
    // Back-to-back proposals under group commit: batches form (the burst
    // outruns the 3 ms flush timer), and every transaction still commits
    // exactly once, in proposal order, on every replica.
    let mut c = Cluster::with_config(3, 0, 77, ZabConfig::batched(8, 3));
    c.run_until(SETTLE_MS);
    let mut proposed = 0u64;
    for round in 0..40u64 {
        for _ in 0..(1 + round % 5) {
            assert!(c.try_propose(proposed));
            proposed += 1;
        }
        c.run_until(c.tick + 4);
    }
    c.run_until(c.tick + SETTLE_MS);
    c.assert_agreement();
    c.assert_alive_converged();
    let vals: Vec<Txn> = c.applied[0].iter().map(|(_, t)| *t).collect();
    assert_eq!(vals, (0..proposed).collect::<Vec<_>>(), "commit order == proposal order");
}

#[test]
fn batched_observers_receive_grouped_informs() {
    // Observers under group commit: the committed stream reaches them
    // batched, complete and in order.
    let mut c = Cluster::with_config(3, 1, 31, ZabConfig::batched(8, 3));
    c.run_until(SETTLE_MS);
    let leader = c.assert_single_leader();
    assert!(leader < 3, "an observer must never lead");
    for i in 0..60u64 {
        assert!(c.try_propose(i));
        if i % 6 == 5 {
            c.run_until(c.tick + 4);
        }
    }
    c.run_until(c.tick + SETTLE_MS);
    c.assert_alive_converged();
    assert_eq!(c.applied[3].len(), 60, "observer applied the full batched stream");
}

/// The fault sweep: 1 000 seeds of random proposals interleaved with
/// crashes and restarts that always keep a voter quorum alive.
/// `ZAB_SEED=<n>` replays one seed.
#[test]
fn agreement_stress_wide_sweep() {
    let seeds = match std::env::var("ZAB_SEED") {
        Ok(s) => {
            let v: u64 = s.parse().expect("ZAB_SEED must be a number");
            v..v + 1
        }
        Err(_) => 0..1000,
    };
    for seed in seeds {
        let r = std::panic::catch_unwind(|| run_fault_scenario(seed));
        if let Err(e) = r {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            panic!("seed {seed} failed: {msg}");
        }
    }
}
