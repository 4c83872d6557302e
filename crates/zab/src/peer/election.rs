//! Leader election: this peer's vote, the votes it heard, and the leader
//! it stopped trusting.

use std::collections::HashMap;

use super::Actions;
use crate::config::{EnsembleConfig, PeerId};
use crate::msg::{Vote, ZabAction, ZabMsg};
use crate::zxid::Zxid;

/// Election periods a leader that went silent on us stays distrusted.
const DISTRUST_PERIODS: u8 = 4;

/// One peer's side of leader election (a simplified Fast Leader Election).
///
/// Invariant: support is counted once per round — `votes` holds one vote
/// per voter, only votes of the current `round` are tallied, and a newer
/// round starts from an empty tally — and distrust expires: a leader that
/// went silent is trusted again after [`DISTRUST_PERIODS`] election periods
/// (or at once, on any join or candidacy).
#[derive(Debug)]
pub(super) struct Election {
    me: PeerId,
    round: u64,
    my_vote: Vote,
    votes: HashMap<PeerId, Vote>,
    /// Ignore `established` hints naming this leader, so stale hints from
    /// still-synced peers cannot pull us back to a dead leader forever — but
    /// only for `distrust_ttl` more periods: if it is alive and the rest of
    /// the ensemble follows it, rejoining is correct.
    distrusted: Option<PeerId>,
    distrust_ttl: u8,
    /// Highest epoch seen anywhere (follower reports, syncs); candidacies
    /// mint above it so stale-promise followers can rejoin.
    max_seen_epoch: u32,
}

impl Election {
    pub(super) fn new(me: PeerId, epoch: u32) -> Self {
        Election {
            me,
            round: 0,
            my_vote: Vote { candidate: me, candidate_zxid: Zxid::ZERO, round: 0 },
            votes: HashMap::new(),
            distrusted: None,
            distrust_ttl: 0,
            max_seen_epoch: epoch,
        }
    }

    pub(super) fn vote(&self) -> Vote {
        self.my_vote
    }

    /// A new round, standing for `candidate`'s `history`; an observer only
    /// asks.
    pub(super) fn begin(&mut self, candidate: PeerId, history: Zxid, voter: bool) {
        self.round += 1;
        self.my_vote = Vote { candidate, candidate_zxid: history, round: self.round };
        self.votes.clear();
        if voter {
            self.votes.insert(self.me, self.my_vote);
        }
    }

    /// Crash: the tally and any distrust are lost.
    pub(super) fn forget(&mut self) {
        self.votes.clear();
        self.distrusted = None;
    }

    /// An election period passed without a result.
    pub(super) fn decay(&mut self) {
        self.distrust_ttl = self.distrust_ttl.saturating_sub(1);
        if self.distrust_ttl == 0 {
            self.distrusted = None;
        }
    }

    pub(super) fn distrust(&mut self, leader: PeerId) {
        self.distrusted = Some(leader);
        self.distrust_ttl = DISTRUST_PERIODS;
    }

    pub(super) fn follow(&mut self, leader: PeerId) {
        self.distrusted = None;
        self.my_vote = Vote { candidate: leader, candidate_zxid: Zxid::ZERO, round: self.round };
    }

    pub(super) fn note_epoch(&mut self, epoch: u32) {
        self.max_seen_epoch = self.max_seen_epoch.max(epoch);
    }

    /// We won: the epoch of our regime. Two leaders that never saw each
    /// other's regime must not mint *different* transactions under
    /// *identical* zxids (that defeats divergence detection and forks the
    /// history), so where real ZAB negotiates the epoch through a quorum
    /// round we compose a monotone counter (above every epoch promised,
    /// logged or seen) with the leader id in the low byte.
    pub(super) fn lead(&mut self, accepted: u32, last: Zxid) -> u32 {
        self.distrusted = None;
        let base = (accepted >> 8).max(last.epoch() >> 8).max(self.max_seen_epoch >> 8) + 1;
        assert!(self.me.0 < 256, "peer ids must fit the epoch low byte");
        (base << 8) | self.me.0
    }

    /// Send our vote to the other voters. Only a Looking peer canvasses, so
    /// the vote never names an established leader.
    pub(super) fn broadcast<T>(&self, config: &EnsembleConfig, out: &mut Actions<T>) {
        let vote = self.my_vote;
        let msg = || ZabMsg::Notification { vote, established: None };
        out.extend(config.others(self.me).map(|to| ZabAction::Send { to, msg: msg() }));
    }

    /// While Looking, hear voter `from`'s `vote` and its settled leader
    /// `established` (if any); `last` is our history. Returns the leader to
    /// settle on: ourselves once our candidacy has a quorum, or the peer
    /// the tally chose or a settled peer named.
    pub(super) fn hear<T>(
        &mut self,
        config: &EnsembleConfig,
        from: PeerId,
        vote: Vote,
        established: Option<PeerId>,
        last: Zxid,
        out: &mut Actions<T>,
    ) -> Option<PeerId> {
        match established {
            // The sender follows (or awaits) us: a vote for our candidacy,
            // normalized to this round.
            Some(leader) if leader == self.me => {
                self.votes.insert(from, Vote { candidate: self.me, round: self.round, ..vote });
                return self.winner(config).filter(|w| *w == self.me);
            }
            // We recently timed out on this "leader": only a weak vote.
            Some(leader) if self.distrusted == Some(leader) => {
                if vote.round == self.round {
                    self.votes.insert(from, vote);
                }
                return None;
            }
            // The sender knows another operating leader: join it.
            Some(leader) => return Some(leader),
            None => {}
        }
        if vote.round > self.round {
            // Fast-forward to the newer round, keeping the better candidate.
            self.round = vote.round;
            self.votes.clear();
            let mine = Vote { candidate: self.me, candidate_zxid: last, round: self.round };
            let best = if vote.beats(&mine) { vote } else { mine };
            self.my_vote = Vote { round: self.round, ..best };
            self.votes.insert(self.me, self.my_vote);
            self.broadcast(config, out);
        } else if vote.round < self.round {
            // Help the laggard catch up.
            let msg = ZabMsg::Notification { vote: self.my_vote, established: None };
            out.push(ZabAction::Send { to: from, msg });
            return None;
        } else if vote.beats(&self.my_vote) {
            self.my_vote = vote;
            self.votes.insert(self.me, self.my_vote);
            self.broadcast(config, out);
        }
        self.votes.insert(from, vote);
        self.winner(config)
    }

    /// The one tally: our candidate, once a quorum votes for it this round.
    fn winner(&self, config: &EnsembleConfig) -> Option<PeerId> {
        let mine = self.my_vote.candidate;
        let support =
            self.votes.values().filter(|v| v.candidate == mine && v.round == self.round).count();
        config.is_quorum(support).then_some(mine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Role, ZabPeer};

    type Acts = Vec<ZabAction<u32>>;

    fn vote(candidate: u32, round: u64) -> Vote {
        Vote { candidate: PeerId(candidate), candidate_zxid: Zxid::ZERO, round }
    }

    /// Support is counted once per round: a voter repeating itself adds
    /// nothing, a laggard's vote is not tallied, and a newer round starts
    /// the count over.
    #[test]
    fn support_is_counted_once_per_round() {
        let config = EnsembleConfig::of_size(5);
        let me = PeerId(4);
        let mut e = Election::new(me, 0);
        e.begin(me, Zxid::ZERO, true);
        e.begin(me, Zxid::ZERO, true); // round 2
        let mut out: Acts = Vec::new();
        for _ in 0..3 {
            let got = e.hear(&config, PeerId(0), vote(4, 2), None, Zxid::ZERO, &mut out);
            assert_eq!(got, None, "one voter, however often, is one vote");
        }
        // A laggard is answered, not counted.
        let got = e.hear(&config, PeerId(1), vote(4, 1), None, Zxid::ZERO, &mut out);
        assert_eq!(got, None);
        assert!(matches!(out.last(), Some(ZabAction::Send { to: PeerId(1), .. })));
        // A hint that peer 2 follows us counts once, in this round.
        let got = e.hear(&config, PeerId(2), vote(0, 1), Some(me), Zxid::ZERO, &mut out);
        assert_eq!(got, Some(me), "self + 0 + 2 is a quorum of five");
        // A newer round forgets every earlier vote.
        let got = e.hear(&config, PeerId(3), vote(4, 3), None, Zxid::ZERO, &mut out);
        assert_eq!(got, None, "round 3 holds only self + 3");
        let got = e.hear(&config, PeerId(0), vote(4, 3), None, Zxid::ZERO, &mut out);
        assert_eq!(got, Some(me));
    }

    /// A timed-out leader's hints are ignored for four election periods,
    /// then followed again.
    #[test]
    fn distrust_expires() {
        let config = EnsembleConfig::of_size(3);
        let (me, dead) = (PeerId(0), PeerId(2));
        let mut e = Election::new(me, 0);
        e.distrust(dead);
        e.begin(me, Zxid::ZERO, true);
        let mut out: Acts = Vec::new();
        for _ in 0..DISTRUST_PERIODS {
            let got = e.hear(&config, PeerId(1), vote(2, 1), Some(dead), Zxid::ZERO, &mut out);
            assert_eq!(got, None, "a distrusted leader's hint is only a weak vote");
            e.decay();
        }
        let got = e.hear(&config, PeerId(1), vote(2, 1), Some(dead), Zxid::ZERO, &mut out);
        assert_eq!(got, Some(dead));
    }

    #[test]
    fn startup_broadcasts_votes() {
        let (_, acts) = ZabPeer::<u32>::new(PeerId(1), EnsembleConfig::of_size(3));
        let sends = acts
            .iter()
            .filter(|a| matches!(a, ZabAction::Send { msg: ZabMsg::Notification { .. }, .. }))
            .count();
        assert_eq!(sends, 2, "one notification per other peer");
        assert!(acts.iter().any(|a| matches!(a, ZabAction::StartedElection)));
    }

    #[test]
    fn adopts_better_vote() {
        let (mut p, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(3));
        let better = Vote { candidate: PeerId(2), candidate_zxid: Zxid::new(1, 5), round: 1 };
        let acts =
            p.on_message(PeerId(2), ZabMsg::Notification { vote: better, established: None });
        // Re-broadcasts the adopted vote.
        let rebroadcast = acts.iter().any(|a| {
            matches!(a, ZabAction::Send { msg: ZabMsg::Notification { vote, .. }, .. }
                if vote.candidate == PeerId(2))
        });
        assert!(rebroadcast);
    }

    #[test]
    fn quorum_of_votes_elects_self() {
        // Peer 2 has the highest id; votes from 0 and 1 for candidate 2 give
        // it a quorum (2 of 3 + own vote).
        let (mut p, _) = ZabPeer::<u32>::new(PeerId(2), EnsembleConfig::of_size(3));
        let v = Vote { candidate: PeerId(2), candidate_zxid: Zxid::ZERO, round: 1 };
        let acts = p.on_message(PeerId(0), ZabMsg::Notification { vote: v, established: None });
        assert!(
            matches!(p.role(), Role::Leading { .. }),
            "role={:?} acts={}",
            p.role(),
            acts.len()
        );
    }

    #[test]
    fn established_peer_redirects_new_joiner() {
        let (mut leader, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(1));
        // A notification arrives from a peer outside the ensemble: ignored.
        let v = Vote { candidate: PeerId(5), candidate_zxid: Zxid::ZERO, round: 1 };
        assert!(leader
            .on_message(PeerId(5), ZabMsg::Notification { vote: v, established: None })
            .is_empty());
    }

    /// The start-up race that used to park a follower for two watchdog
    /// periods: 0 joins 1 on a tally of votes 1 has already abandoned for 2.
    /// 0 must not spread that guess (it once talked the rightful candidate
    /// into following 1 too — a cycle with no leader), and must leave it for
    /// a leader that proves itself with a ping.
    #[test]
    fn unsynced_follower_neither_vouches_for_its_guess_nor_clings_to_it() {
        let (mut f, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::of_size(3));
        let for_1 = Vote { candidate: PeerId(1), candidate_zxid: Zxid::ZERO, round: 1 };
        f.on_message(PeerId(1), ZabMsg::Notification { vote: for_1, established: None });
        assert_eq!(f.role(), Role::Following { leader: PeerId(1), synced: false });

        // Candidate 2 asks: silence, not `established: Some(1)`.
        let for_2 = Vote { candidate: PeerId(2), candidate_zxid: Zxid::ZERO, round: 1 };
        let acts = f.on_message(PeerId(2), ZabMsg::Notification { vote: for_2, established: None });
        assert!(acts.is_empty(), "vouched for an unconfirmed leader: {acts:?}");
        // The alleged leader itself is told it has a follower waiting.
        let acts = f.on_message(PeerId(1), ZabMsg::Notification { vote: for_1, established: None });
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::Send {
                to: PeerId(1),
                msg: ZabMsg::Notification { established: Some(PeerId(1)), .. }
            }
        )));

        // 2 won and pings everyone: re-run the handshake with it.
        let acts = f.on_message(PeerId(2), ZabMsg::Ping { epoch: 258, commit_to: Zxid::ZERO });
        assert_eq!(f.role(), Role::Following { leader: PeerId(2), synced: false });
        assert!(acts.iter().any(|a| matches!(
            a,
            ZabAction::Send { to: PeerId(2), msg: ZabMsg::FollowerInfo { .. } }
        )));

        // Once synced, a stray ping from anyone else changes nothing.
        f.on_message(
            PeerId(2),
            ZabMsg::SyncLog {
                epoch: 258,
                snapshot: None,
                entries: vec![],
                commit_to: Zxid::ZERO,
                reset: false,
                snap_chunks: 0,
            },
        );
        assert_eq!(f.role(), Role::Following { leader: PeerId(2), synced: true });
        assert!(f
            .on_message(PeerId(1), ZabMsg::Ping { epoch: 257, commit_to: Zxid::ZERO })
            .is_empty());
        assert_eq!(f.role(), Role::Following { leader: PeerId(2), synced: true });
    }

    #[test]
    fn observer_never_votes_or_leads() {
        let cfg = EnsembleConfig::with_observers(1, 1);
        let (obs, acts) = ZabPeer::<u32>::new(PeerId(1), cfg.clone());
        assert!(obs.is_observer());
        assert_eq!(obs.role(), Role::Looking);
        assert!(
            !acts.iter().any(|a| matches!(a, ZabAction::BecameLeader { .. })),
            "observers never lead"
        );
        // A voter in a Looking state must not tally the observer's probe.
        let (mut voter, _) = ZabPeer::<u32>::new(PeerId(0), EnsembleConfig::with_observers(3, 1));
        let probe = Vote { candidate: PeerId(3), candidate_zxid: Zxid::ZERO, round: 1 };
        let acts =
            voter.on_message(PeerId(3), ZabMsg::Notification { vote: probe, established: None });
        assert_eq!(voter.role(), Role::Looking, "a probe is not a vote");
        assert!(acts.is_empty(), "unsettled voters stay silent to observers");
    }
}
