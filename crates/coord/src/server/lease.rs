//! Staleness leases: how fresh this server's evidence of the current
//! leader's authority is, and the grants it hands clients off that.

use std::collections::HashMap;

use dufs_zab::{EnsembleConfig, PeerId, Role, ZabPeer};

use super::CoordMsg;
use crate::api::LeaseGrant;
use crate::txn::Txn;

/// Staleness-lease window: a replica grants leases only while its quorum
/// authority evidence is younger than this, so a leased client's cached
/// read is never staler than `LEASE_MS` (plus the margin below). Sized to
/// cover several leader ping rounds on both runtimes (100 virtual-ms sim
/// pings, 300 real-ms dilated live pings) so healthy clusters renew
/// continuously, while any partition stops grants within one window.
pub const LEASE_MS: u64 = 2_000;
/// Conservative haircut applied to every grant: covers message transit and
/// clock-reading skew between the evidence instant and the client's receipt
/// timestamp (each hop already decays the ttl by its own elapsed time).
pub const LEASE_MARGIN_MS: u64 = 200;

/// A [`CoordMsg::LeaseAuth`] observation parked until the local replica
/// has applied up to its commit watermark.
#[derive(Debug, Clone, Copy)]
struct LeaseAuthObs {
    receipt_ms: u64,
    commit_to: u64,
    age_ms: u32,
}

/// The staleness-lease clock: tracks how fresh this server's evidence of
/// the current leader's authority is, on both sides of the protocol.
///
/// *Leader side* — every inbound `Pong`/`Ack`/`AckSync` from a voter proves
/// that voter still followed this leader when it sent the message (it had
/// not promised a higher epoch, so no rival leader was established before
/// that instant). The (quorum−1)-th most recent distinct-voter proof,
/// together with the leader itself, pins the last moment a full quorum
/// provably followed — before which no other leader can have committed
/// anything.
///
/// *Follower side* — the leader ships that evidence age with each ping
/// ([`CoordMsg::LeaseAuth`]). An observation only becomes usable once the
/// local replica has applied up to the watermark the leader had committed
/// at evidence time: from then on, "nothing committed cluster-wide before
/// (receipt − age) is missing from this replica" holds, and that instant
/// anchors grants. A deposed leader keeps pinging its minority for a few
/// windows before abdicating, which is exactly why naive ping receipt
/// cannot anchor a lease — the quorum-evidence age is what expires.
///
/// Invariant: no grant outlives `LEASE_MS − LEASE_MARGIN_MS` past the
/// evidence it was derived from, and [`LeaseClock::reset`] (every regime
/// change and crash) voids all evidence taken under the previous regime.
#[derive(Debug, Default)]
pub(super) struct LeaseClock {
    /// Leader side: newest proof-of-followership per voter peer (ms).
    evidence: HashMap<PeerId, u64>,
    /// Follower side: observations awaiting the apply watermark.
    pending_auth: Vec<LeaseAuthObs>,
    /// Follower side: newest matured authority anchor (ms).
    anchor_ms: Option<u64>,
    /// Host clock of the newest event seen (ms), which lease ages are
    /// measured on.
    now_ms: u64,
    /// Lease grants issued to clients (Pong piggyback and idle push).
    leases_granted: u64,
}

impl LeaseClock {
    /// Advance the clock to the event being handled.
    pub(super) fn tick(&mut self, now_ns: u64) {
        self.now_ms = self.now_ms.max(now_ns / 1_000_000);
    }

    pub(super) fn granted(&self) -> u64 {
        self.leases_granted
    }

    /// Leader side: record proof that `from` still followed us at `now_ms`.
    pub(super) fn record_evidence(&mut self, from: PeerId, now_ms: u64) {
        let e = self.evidence.entry(from).or_insert(now_ms);
        *e = (*e).max(now_ms);
    }

    /// Leader side: age of the newest instant at which a full quorum
    /// provably followed this leader (`me`). `None` until enough distinct
    /// voters have reported since the last reset. A single-voter ensemble
    /// is its own quorum: age 0.
    fn evidence_age(&self, now_ms: u64, me: PeerId, config: &EnsembleConfig) -> Option<u64> {
        let needed = config.quorum().saturating_sub(1); // the leader vouches for itself
        if needed == 0 {
            return Some(0);
        }
        let mut times: Vec<u64> = config
            .peers()
            .iter()
            .filter(|&&p| p != me)
            .filter_map(|p| self.evidence.get(p).copied())
            .collect();
        if times.len() < needed {
            return None;
        }
        times.sort_unstable_by(|a, b| b.cmp(a));
        Some(now_ms.saturating_sub(times[needed - 1]))
    }

    /// Leader side: the authority claim to ship alongside a heartbeat ping
    /// whose commit watermark is `commit_to` — the follower can anchor
    /// staleness leases at (receipt − age) once it has applied up to it.
    /// `None` once the evidence is older than a lease window.
    pub(super) fn auth_for_ping(
        &self,
        commit_to: u64,
        me: PeerId,
        config: &EnsembleConfig,
    ) -> Option<CoordMsg> {
        self.evidence_age(self.now_ms, me, config)
            .filter(|&age| age < LEASE_MS)
            .map(|age| CoordMsg::LeaseAuth { commit_to, age_ms: age as u32 })
    }

    /// Follower side: park a [`CoordMsg::LeaseAuth`] observation.
    pub(super) fn record_auth(&mut self, receipt_ms: u64, commit_to: u64, age_ms: u32) {
        self.pending_auth.push(LeaseAuthObs { receipt_ms, commit_to, age_ms });
        // Bounded: only the newest few matter (one per leader ping).
        if self.pending_auth.len() > 16 {
            self.pending_auth.remove(0);
        }
    }

    /// Follower side: promote every observation whose commit watermark the
    /// local replica has now applied into the grant anchor.
    pub(super) fn mature(&mut self, last_applied: u64) {
        let mut anchor = self.anchor_ms;
        self.pending_auth.retain(|o| {
            if o.commit_to <= last_applied {
                let a = o.receipt_ms.saturating_sub(o.age_ms as u64);
                anchor = Some(anchor.map_or(a, |b| b.max(a)));
                false
            } else {
                true
            }
        });
        self.anchor_ms = anchor;
    }

    /// Remaining grantable ttl for an authority anchored at `anchor_ms`,
    /// after the safety margin. `None` when the window is exhausted.
    fn ttl_from_anchor(anchor_ms: u64, now_ms: u64) -> Option<u32> {
        let age = now_ms.saturating_sub(anchor_ms);
        let ttl = LEASE_MS.saturating_sub(age).saturating_sub(LEASE_MARGIN_MS);
        (ttl > 0).then_some(ttl as u32)
    }

    /// The lease `peer` can grant at `now_ns`, if any: a leader grants from
    /// its own quorum evidence, a follower from the newest matured
    /// [`CoordMsg::LeaseAuth`] anchor, anyone else nothing.
    pub(super) fn grant(
        &mut self,
        now_ns: u64,
        peer: &ZabPeer<Txn>,
        config: &EnsembleConfig,
    ) -> Option<LeaseGrant> {
        self.tick(now_ns);
        let now_ms = self.now_ms;
        let anchor = if peer.is_established_leader() {
            let age = self.evidence_age(now_ms, peer.id(), config)?;
            now_ms.saturating_sub(age)
        } else if matches!(peer.role(), Role::Following { .. }) {
            self.anchor_ms?
        } else {
            return None;
        };
        let ttl_ms = Self::ttl_from_anchor(anchor, now_ms)?;
        self.leases_granted += 1;
        Some(LeaseGrant { ttl_ms, epoch: peer.epoch() })
    }

    /// Forget all authority — leader change in progress, or crash.
    pub(super) fn reset(&mut self) {
        self.evidence.clear();
        self.pending_auth.clear();
        self.anchor_ms = None;
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{req, single, Pump};
    use super::*;
    use crate::api::{ZkRequest, ZkResponse};

    #[test]
    fn lease_clock_math() {
        let voters = EnsembleConfig::of_size(3);
        let mut lc = LeaseClock::default();
        // Leader side: no evidence yet → no quorum instant.
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &voters), None);
        lc.record_evidence(PeerId(1), 900);
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &voters), Some(100));
        // Newer evidence from another voter tightens the age (quorum 2 needs
        // only the newest other voter).
        lc.record_evidence(PeerId(2), 950);
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &voters), Some(50));
        // Evidence is max-monotone: a reordered older proof can't widen it.
        lc.record_evidence(PeerId(2), 800);
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &voters), Some(50));
        // A 5-voter quorum of 3 needs the 2nd-newest other voter.
        let five = EnsembleConfig::of_size(5);
        assert_eq!(lc.evidence_age(1_000, PeerId(0), &five), Some(100));
        // A sole voter is its own quorum.
        let solo = EnsembleConfig::of_size(1);
        assert_eq!(LeaseClock::default().evidence_age(5, PeerId(0), &solo), Some(0));

        // Follower side: an observation matures only once the local replica
        // has applied the leader's commit watermark at evidence time.
        let mut f = LeaseClock::default();
        f.record_auth(1_000, 7, 40);
        assert_eq!(f.anchor_ms, None);
        f.mature(6);
        assert_eq!(f.anchor_ms, None, "watermark not reached yet");
        f.mature(7);
        assert_eq!(f.anchor_ms, Some(960), "anchored at receipt − age");
        // ttl decays from the anchor and keeps the safety margin.
        assert_eq!(
            LeaseClock::ttl_from_anchor(960, 1_000),
            Some((LEASE_MS - 40 - LEASE_MARGIN_MS) as u32)
        );
        assert_eq!(LeaseClock::ttl_from_anchor(0, LEASE_MS), None, "exhausted authority");
        f.reset();
        assert_eq!(f.anchor_ms, None);
        assert!(f.pending_auth.is_empty());
    }

    #[test]
    fn single_node_leader_grants_lease_via_ping() {
        let mut s = single();
        let ZkResponse::Pong { lease, .. } = req(&mut s, 0, ZkRequest::Ping) else {
            panic!("expected Pong");
        };
        let g = lease.expect("a sole voter is its own quorum");
        assert_eq!(g.ttl_ms as u64, LEASE_MS - LEASE_MARGIN_MS);
        assert_eq!(s.leases_granted(), 1);
    }

    #[test]
    fn follower_lease_matures_and_expires_without_leader_contact() {
        let mut p = Pump::trio();
        p.run_ms(3_000); // elect + several ping rounds of LeaseAuth
        let l = p.leader();
        let f = (0..3).find(|&i| i != l).unwrap();
        let now = p.now_ns();
        let gf = p.servers[f].lease_grant(now).expect("follower grants under a live leader");
        let gl = p.servers[l].lease_grant(now).expect("leader grants off quorum evidence");
        assert!(gf.ttl_ms > 0 && (gf.ttl_ms as u64) <= LEASE_MS - LEASE_MARGIN_MS);
        assert_eq!(gf.epoch, gl.epoch, "grants name the same leadership epoch");
        // With no further traffic the authority ages out everywhere: a
        // partitioned replica must stop granting within the lease bound.
        let later = now + (LEASE_MS + 1_000) * 1_000_000;
        assert!(p.servers[f].lease_grant(later).is_none(), "stale follower anchor");
        assert!(p.servers[l].lease_grant(later).is_none(), "stale quorum evidence");
    }
}
