#![warn(missing_docs)]

//! # dufs-cache — leased client-side metadata cache
//!
//! The paper's related-work discussion (§VI) observes that parallel
//! filesystems which cache metadata on clients "generally disable client
//! caching during concurrent update workloads to avoid excessive
//! consistency overhead". DUFS's coordination service changes the
//! trade-off twice over:
//!
//! 1. **Watches instead of cache-coherence traffic** — every cached read
//!    is installed together with a server-side one-shot watch, so foreign
//!    mutations invalidate exactly the entries they touch, with no client
//!    locks and no broadcast.
//! 2. **Staleness leases instead of sync barriers** — a replica that can
//!    prove its view is recent (see
//!    [`dufs_coord::api::LeaseGrant`] for the quorum-evidence argument)
//!    grants the client a short lease; while it holds, `SyncThenLocal`
//!    reads skip the one-ZAB-round `sync` barrier entirely. Leases ride
//!    the existing heartbeat path (piggybacked on idle TCP heartbeat
//!    slots, or collected by explicit pings), and when no lease is
//!    grantable everything degrades to the plain barrier protocol —
//!    correctness never depends on clocks beyond the lease bound.
//!
//! Barriers that *are* issued coalesce: concurrent `sync`s arriving at one
//! replica while a no-op proposal is already in flight all ride that one
//! proposal ([`dufs_coord::runtime::ZkClient::sync_coalesced`]).
//!
//! The crate is one wrapper over one store: [`Cached<S>`] puts the cache
//! and the lease protocol in front of **any** [`dufs_coord::CoordService`]
//! session — a `ZkClient` on either transport, a `ShardedClient` (leases
//! per shard connection), `dufs-core`'s in-process `SoloCoord` — and is a
//! `CoordService` itself, so `Dufs` runs over it unchanged. The store
//! ([`shared`]) holds owner-tagged entries behind sharded locks; a private
//! cache is the same store with one owner and one lock shard.
//!
//! Construction goes through [`CacheBuilder`]: `.session(s)` for a private
//! per-session cache, `.shared()` for a process-wide [`SharedCache`] handle
//! that many sessions attach to (see [`shared`] for the
//! ownership/staleness argument). Negative entries (cached absences with a
//! TTL) and the one-round-trip [`Cached::warm_children`] bulk warm ride on
//! both shapes.

pub mod cached;
pub mod shared;
pub mod stats;

pub use cached::{CacheBuilder, CacheOptions, Cached};
pub use shared::SharedCache;
pub use stats::CacheStats;
