//! The leader's side of atomic broadcast: who is synced, who acked what,
//! and the batch waiting to be proposed.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::config::{EnsembleConfig, PeerId};
use crate::zxid::Zxid;

/// Consecutive heartbeat windows without a voter quorum before a leader
/// abdicates.
const MAX_QUORUM_MISS_WINDOWS: u32 = 3;

/// A leader's regime, dropped whole when leadership is lost.
///
/// Invariant: a round commits iff a quorum of voters counting the leader
/// acked it — by an `Ack` of its last zxid, or by an `AckSync` whose sync
/// point reaches it — and every earlier round committed too.
#[derive(Debug)]
pub(super) struct Broadcast<T> {
    /// Ackers per outstanding round, keyed by the round's last zxid.
    acks: BTreeMap<Zxid, HashSet<PeerId>>,
    /// Followers that completed sync and receive broadcast traffic.
    synced: BTreeSet<PeerId>,
    /// How far each follower's SyncLog took it: its AckSync covers entries
    /// at or below this point, nothing later.
    sync_points: HashMap<PeerId, Zxid>,
    /// Pongs received in the current heartbeat window.
    pongs: HashSet<PeerId>,
    quorum_miss_windows: u32,
    /// Transactions awaiting group commit. No zxids are minted until flush,
    /// so losing the buffer with the regime is safe: they were never
    /// acknowledged to anyone.
    buffer: Vec<T>,
}

impl<T> Broadcast<T> {
    pub(super) fn new() -> Self {
        Broadcast {
            acks: BTreeMap::new(),
            synced: BTreeSet::new(),
            sync_points: HashMap::new(),
            pongs: HashSet::new(),
            quorum_miss_windows: 0,
            buffer: Vec::new(),
        }
    }

    /// Buffer `txn`; returns the batch size so far.
    pub(super) fn push(&mut self, txn: T) -> usize {
        self.buffer.push(txn);
        self.buffer.len()
    }

    pub(super) fn take_batch(&mut self) -> Option<Vec<T>> {
        (!self.buffer.is_empty()).then(|| std::mem::take(&mut self.buffer))
    }

    /// A batch ending at `last` was proposed: one quorum round covers it.
    pub(super) fn open_round(&mut self, last: Zxid) {
        self.acks.insert(last, HashSet::new());
    }

    /// Synced followers in id order (the deterministic send order).
    pub(super) fn followers(&self) -> Vec<PeerId> {
        self.synced.iter().copied().collect()
    }

    pub(super) fn sync_point(&mut self, follower: PeerId, point: Zxid) {
        self.sync_points.insert(follower, point);
    }

    /// Voter `from` logged the round ending at `zxid`.
    pub(super) fn ack(&mut self, from: PeerId, zxid: Zxid) {
        if let Some(ackers) = self.acks.get_mut(&zxid) {
            ackers.insert(from);
        }
    }

    /// `from` synced into this regime: it gets the broadcast stream from now
    /// on, and a voter acks the outstanding rounds up to its sync point —
    /// not later ones, which never reached it (counting those would commit
    /// an entry held by no quorum). Returns whether the synced voters and
    /// the leader form a quorum.
    pub(super) fn sync_acked(&mut self, from: PeerId, config: &EnsembleConfig) -> bool {
        self.synced.insert(from);
        if config.is_observer(from) {
            return false;
        }
        let point = self.sync_points.get(&from).copied().unwrap_or(Zxid::ZERO);
        for ackers in self.acks.range_mut(..=point).map(|(_, a)| a) {
            ackers.insert(from);
        }
        config.is_quorum(self.synced.iter().filter(|p| config.contains(**p)).count() + 1)
    }

    /// Retire the leading rounds acked by a quorum (`+ 1`: the leader's own
    /// implicit ack), in zxid order; returns the last one retired.
    pub(super) fn commit_ready(&mut self, quorum: usize) -> Option<Zxid> {
        let mut committed = None;
        while let Some(round) = self.acks.first_entry() {
            if round.get().len() + 1 < quorum {
                break;
            }
            committed = Some(round.remove_entry().0);
        }
        committed
    }

    pub(super) fn pong(&mut self, from: PeerId) {
        self.pongs.insert(from);
    }

    /// Close a heartbeat window; true when a quorum stayed silent for too
    /// many in a row. Established and prospective leaders alike abdicate —
    /// one that never gathers followers must not squat forever — so a
    /// majority partition can elect a live leader.
    pub(super) fn lost_quorum(&mut self, config: &EnsembleConfig) -> bool {
        let live = self.pongs.iter().filter(|p| config.contains(**p)).count() + 1; // + self
        if config.len() > 1 {
            if live < config.quorum() {
                self.quorum_miss_windows += 1;
            } else {
                self.quorum_miss_windows = 0;
            }
            if self.quorum_miss_windows >= MAX_QUORUM_MISS_WINDOWS {
                return true;
            }
        }
        self.pongs.clear();
        false
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::{ZabAction, ZabConfig, ZabMsg, ZabPeer, ZabTimer};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A round commits iff a quorum counting the leader acked it —
        /// where a synced follower counts only up to its sync point — and
        /// every lower round committed; checked against a brute-force
        /// replay of the event history.
        #[test]
        fn commits_iff_quorum_acked_in_order(
            five in any::<bool>(),
            ops in collection::vec((0u8..4, 1u32..6, 0usize..8), 1..80),
        ) {
            // Voters 0..n (0 leads) plus observer n.
            let n = if five { 5 } else { 3 };
            let config = EnsembleConfig::with_observers(n, 1);
            let mut b = Broadcast::<u32>::new();
            // The history: opened rounds, explicit acks, (follower, point)
            // at each AckSync, in order.
            #[derive(Clone, Copy)]
            enum Ev { Open(Zxid), Ack(PeerId, Zxid), Synced(PeerId, Zxid) }
            let mut history: Vec<Ev> = Vec::new();
            let mut rounds: Vec<Zxid> = Vec::new();
            let mut committed = Zxid::ZERO;
            for (op, f, k) in ops {
                let pick = |rounds: &[Zxid]| rounds.get(k % rounds.len().max(1)).copied();
                match op {
                    0 => {
                        let last = Zxid::new(1, rounds.last().map_or(0, |z| z.counter()) + k as u32 + 1);
                        b.open_round(last);
                        rounds.push(last);
                        history.push(Ev::Open(last));
                    }
                    1 => {
                        let voter = PeerId(1 + f % (n as u32 - 1));
                        if let Some(z) = pick(&rounds) {
                            b.ack(voter, z);
                            history.push(Ev::Ack(voter, z));
                        }
                    }
                    2 => {
                        let member = PeerId(1 + f % n as u32); // the observer too
                        let point = pick(&rounds).unwrap_or(Zxid::ZERO);
                        b.sync_point(member, point);
                        let quorum = b.sync_acked(member, &config);
                        history.push(Ev::Synced(member, point));
                        let synced: HashSet<PeerId> = history.iter().filter_map(|e| match e {
                            Ev::Synced(p, _) if config.contains(*p) => Some(*p),
                            _ => None,
                        }).collect();
                        let voter = config.contains(member);
                        prop_assert_eq!(quorum, voter && config.is_quorum(synced.len() + 1));
                    }
                    _ => {}
                }
                if let Some(z) = b.commit_ready(config.quorum()) {
                    prop_assert!(z > committed);
                    committed = z;
                }
                // Brute force: the ackers of each round, then the longest
                // prefix of rounds each acked by a quorum.
                let mut expect = Zxid::ZERO;
                for &round in &rounds {
                    let opened = history.iter().position(|e| matches!(e, Ev::Open(z) if *z == round)).unwrap();
                    let ackers: HashSet<PeerId> = history.iter().enumerate().filter_map(|(j, e)| match *e {
                        Ev::Ack(p, z) if z == round => Some(p),
                        Ev::Synced(p, point) if j > opened && round <= point && config.contains(p) => Some(p),
                        _ => None,
                    }).collect();
                    if ackers.len() + 1 < config.quorum() {
                        break;
                    }
                    expect = round;
                }
                prop_assert_eq!(committed, expect);
            }
        }
    }

    /// Attach a pseudo-follower to a single-voter leader so the broadcast
    /// traffic becomes visible (membership is only checked on votes; the
    /// quorum of one still commits without the extra peer's acks).
    fn attach_follower(l: &mut ZabPeer<u32>, f: PeerId) {
        l.on_message(f, ZabMsg::FollowerInfo { last_zxid: l.last_zxid(), accepted_epoch: 0 });
        l.on_message(f, ZabMsg::AckSync { epoch: l.epoch() });
    }

    fn delivered(acts: &[ZabAction<u32>]) -> Vec<u32> {
        acts.iter()
            .filter_map(|a| match a {
                ZabAction::Deliver { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_peer_commits_immediately() {
        let (mut p, _) = ZabPeer::new(PeerId(0), EnsembleConfig::of_size(1));
        let acts = p.propose(42).unwrap();
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 42, .. })));
        assert_eq!(p.committed(), Zxid::new(256, 1));
        let acts = p.propose(43).unwrap();
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 43, .. })));
    }

    #[test]
    fn leader_coalesces_full_batch_into_one_propose() {
        let cfg = EnsembleConfig::of_size(1);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), cfg, ZabConfig::batched(3, 5));
        attach_follower(&mut l, PeerId(1));

        // First txn arms the flush timer; nothing is proposed or minted.
        let acts = l.propose(1).unwrap();
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::SetTimer { timer: ZabTimer::BatchFlush(_), after_ms: 5 }
        )));
        assert!(!acts.iter().any(|a| matches!(a, ZabAction::Send { .. })));
        assert_eq!(l.log_len(), 0, "no zxid exists before flush");
        // Second txn just buffers.
        assert!(l.propose(2).unwrap().is_empty());
        // Third fills the batch: ONE Propose carrying the whole range.
        let acts = l.propose(3).unwrap();
        let (first, txns) = acts
            .iter()
            .find_map(|a| match a {
                ZabAction::Send { msg: ZabMsg::Propose { zxid, txns }, .. } => {
                    Some((*zxid, txns.clone()))
                }
                _ => None,
            })
            .expect("batch proposed");
        assert_eq!(first, Zxid::new(256, 1));
        assert_eq!(txns, vec![1, 2, 3]);
        // Quorum of one: the whole batch commits and delivers in order.
        assert_eq!(l.committed(), Zxid::new(256, 3));
        assert_eq!(delivered(&acts), vec![1, 2, 3]);
        // The now-stale flush timer fire is a no-op.
        assert!(l.on_timer(ZabTimer::BatchFlush(1)).is_empty());
    }

    #[test]
    fn flush_timer_proposes_partial_batch() {
        let cfg = EnsembleConfig::of_size(1);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), cfg, ZabConfig::batched(8, 2));
        let acts = l.propose(7).unwrap();
        let armed_gen = acts
            .iter()
            .find_map(|a| match a {
                ZabAction::SetTimer { timer: ZabTimer::BatchFlush(g), .. } => Some(*g),
                _ => None,
            })
            .expect("flush timer armed");
        assert_eq!(l.committed(), Zxid::ZERO, "nothing minted while buffered");
        let acts = l.on_timer(ZabTimer::BatchFlush(armed_gen));
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 7, .. })));
        assert_eq!(l.committed(), Zxid::new(256, 1));
        // Re-firing the consumed generation does nothing.
        assert!(l.on_timer(ZabTimer::BatchFlush(armed_gen)).is_empty());
    }

    #[test]
    fn urgent_propose_flushes_past_the_nagle_timer() {
        let cfg = EnsembleConfig::of_size(1);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), cfg, ZabConfig::batched(8, 50));
        // A buffered transaction is waiting on the flush timer...
        let acts = l.propose(1).unwrap();
        assert!(!acts.iter().any(|a| matches!(a, ZabAction::Send { .. })));
        assert_eq!(l.committed(), Zxid::ZERO);
        // ...and an urgent proposal flushes it together with itself, now.
        let acts = l.propose_urgent(2).unwrap();
        assert_eq!(delivered(&acts), vec![1, 2], "urgent flush carries the buffered prefix");
        assert_eq!(l.committed(), Zxid::new(256, 2));
        // A non-leader still reports the forwarding hint.
        let cfg = EnsembleConfig::of_size(3);
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(1), cfg);
        assert!(f.propose_urgent(9).is_err());
    }

    #[test]
    fn default_config_proposes_immediately_as_before() {
        let (mut l, _) = ZabPeer::new(PeerId(0), EnsembleConfig::of_size(1));
        attach_follower(&mut l, PeerId(1));
        let acts = l.propose(42).unwrap();
        // Batch-of-one: no flush timer, an immediate single-entry Propose.
        assert!(!acts
            .iter()
            .any(|a| matches!(a, ZabAction::SetTimer { timer: ZabTimer::BatchFlush(_), .. })));
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::Send { msg: ZabMsg::Propose { zxid, txns }, .. }
                if *zxid == Zxid::new(256, 1) && txns.len() == 1
        )));
        assert_eq!(l.committed(), Zxid::new(256, 1));
    }

    #[test]
    fn buffered_txns_die_with_leadership_not_with_acked_state() {
        let cfg = EnsembleConfig::of_size(1);
        let (mut l, _) = ZabPeer::new_with_config(PeerId(0), cfg, ZabConfig::batched(8, 2));
        l.propose(1).unwrap();
        l.propose(2).unwrap();
        assert_eq!(l.log_len(), 0, "buffered txns have no zxids");
        l.on_crash();
        assert_eq!(l.log_len(), 0, "nothing durable was lost — nothing was promised");
        assert_eq!(l.committed(), Zxid::ZERO);
        let _ = l.on_restart();
        assert!(l.is_established_leader());
        // The old regime's flush timer (gen 1, armed by propose(1)) fires
        // into the new regime: nothing is buffered, nothing happens.
        let acts = l.on_timer(ZabTimer::BatchFlush(1));
        assert!(acts.is_empty(), "old regime's flush timer is dead");
        // The new regime starts minting from its own epoch, counter 1.
        let acts = l.propose(3).unwrap();
        let gen = acts
            .iter()
            .find_map(|a| match a {
                ZabAction::SetTimer { timer: ZabTimer::BatchFlush(g), .. } => Some(*g),
                _ => None,
            })
            .expect("fresh batch arms a flush timer");
        let acts = l.on_timer(ZabTimer::BatchFlush(gen));
        assert!(acts.iter().any(|a| matches!(a, ZabAction::Deliver { txn: 3, .. })));
        assert_eq!(l.committed(), Zxid::new(512, 1));
    }
}
