//! Follower read scale-out benchmark (the paper's Fig 7d property, measured
//! on the real TCP runtime instead of the simulator).
//!
//! ZooKeeper-style ensembles serve reads from whichever replica a session
//! is connected to; only writes funnel through the leader. So aggregate
//! read throughput should *rise* with ensemble size when sessions spread
//! across the members, while pinning every session to the leader gains
//! nothing from extra servers. This sweep measures exactly that contrast:
//! a fixed pool of reader sessions, each doing `get_data` round-robin over
//! a preloaded namespace, in two placements —
//!
//! * **leader-only** — every session at the leader (the scale-out OFF
//!   baseline);
//! * **follower-local** — session `i` pinned to member `i % n`, reads
//!   served replica-locally after one `sync` barrier
//!   ([`ReadConsistency::SyncThenLocal`]) makes the preload visible.
//!
//! The measurement runs under write pressure (background sessions creating
//! znodes through the leader for the whole read window), because that is
//! where the architecture differs: each server is one event loop, so a read
//! pinned to the leader waits in line behind proposal/ack/commit traffic,
//! while a follower-local read only waits behind the (batched, cheap)
//! commit application on its replica. Even on a single core — where no
//! placement can mint extra CPU — that queueing asymmetry is real and is
//! exactly the serialization the paper's read scale-out argument removes.
//!
//! A second sweep measures the **cache axis** (`dufs-cache`): the same
//! follower-local placement with every reader session built through
//! [`CacheBuilder`] —
//!
//! * **cached-cold** — each reader touches every preloaded path once, so
//!   every read is a miss (cache overhead: watch install + lease license);
//! * **cached-warm** — round-robin like the uncached modes, so after one
//!   pass every read is a hit licensed by a staleness lease (server is only
//!   contacted to renew the grant once per ttl);
//! * **cached-warm-nolease** — leases off: hits trust watch freshness on
//!   the unchanged connection;
//! * **shared-warm** — all readers attach to ONE process-shared cache,
//!   bulk-warmed by a single READDIRPLUS round trip before the clock
//!   starts: the whole pool reads off entries one session installed;
//! * **negative-hit** — readers hammer paths that do not exist: the first
//!   `NoNode` per path per TTL is a server round trip, everything after
//!   is served from the negative store.
//!
//! One run fills both results files, and the cache file's uncached
//! baseline rows *are* the follower-local cells of the reads file. Every
//! cell is the median of its trials, each on a fresh ensemble: the churn
//! writers grow the namespace, so sharing one cluster across modes would
//! hand the second mode a bigger tree than the first, and a shared box's
//! scheduler noise swamps single trials (a max would crown freak trials
//! where the churn stalled and reads flew).
//!
//! Gates: every cell serves reads, warm cells hit, shared cells are
//! stocked by one bulk warm, negative cells ride negative entries; and at
//! full op counts (not `--smoke`, where the comparisons drown in scheduler
//! noise) follower-local beats leader-only at 5 servers and warm cached
//! reads move >= 2x the uncached follower-local ones.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dufs_cache::{CacheBuilder, CacheStats};
use dufs_coord::{
    ClientOptions, ClusterBuilder, ReadConsistency, TcpCluster, TcpTransport, Watch, ZkClient,
    ZkRequest,
};
use dufs_zkstore::{CreateMode, ZkError};

use crate::{median_by, Report, Scale, Value};

const READERS: usize = 8;
const WRITERS: usize = 2;
const PRELOAD: usize = 64;
const ENSEMBLES: [usize; 3] = [1, 3, 5];

struct Cell {
    servers: usize,
    mode: &'static str,
    ops: usize,
    ops_per_sec: f64,
    /// Creates the churn writers had acknowledged per second of the read
    /// window: how much write traffic the reads actually competed with.
    churn_per_sec: f64,
    /// Aggregate cache counters (zero for the uncached modes).
    cache: CacheStats,
}

/// Background write pressure for a read window: a pipelined session keeps
/// a deep backlog of creates queued at the leader (`submit` is the
/// zoo_acreate-style async API, so each writer holds `DEPTH` proposals in
/// flight, not one) until `stop`, counting acknowledgements into `acked`.
/// All placements face the same writers; only where the readers queue
/// differs.
fn churn(mut c: ZkClient<TcpTransport>, name: String, stop: &AtomicBool, acked: &AtomicUsize) {
    const DEPTH: usize = 32;
    let mut i = 0u64;
    let mut inflight = 0usize;
    while !stop.load(Ordering::Relaxed) {
        while inflight < DEPTH {
            c.submit(ZkRequest::Create {
                path: format!("/churn-{name}-{i}"),
                data: Bytes::from_static(b"w"),
                mode: CreateMode::Persistent,
            });
            i += 1;
            inflight += 1;
        }
        c.next_completion().expect("churn ack");
        acked.fetch_add(1, Ordering::Relaxed);
        inflight -= 1;
    }
    while inflight > 0 && c.next_completion().is_some() {
        inflight -= 1;
    }
}

/// One measured read window: every session in `sessions` issues
/// `per_reader` reads round-robin over `paths` (session `i` starting at
/// path `i`) while `WRITERS` background sessions keep the leader's event
/// loop busy with creates. Returns aggregate read throughput and the
/// churn's acknowledged creates per second over the same window.
fn read_window<S: Send>(
    cluster: &TcpCluster,
    leader: usize,
    mode: &str,
    sessions: &mut [S],
    paths: &[String],
    per_reader: usize,
    read: impl Fn(&mut S, &str) + Sync,
) -> (f64, f64) {
    let (stop, acked) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let c = cluster.client(ClientOptions::at(leader)).expect("writer session");
            let (stop, acked) = (&stop, &acked);
            scope.spawn(move || churn(c, format!("{mode}-{w}"), stop, acked));
        }
        let start = Instant::now();
        let readers: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let read = &read;
                scope.spawn(move || {
                    for k in 0..per_reader {
                        read(c, &paths[(i + k) % paths.len()]);
                    }
                })
            })
            .collect();
        let ops = readers.len() * per_reader;
        for r in readers {
            r.join().expect("reader thread");
        }
        let elapsed = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        stop.store(true, Ordering::Relaxed);
        (ops as f64 / elapsed, acked.load(Ordering::Relaxed) as f64 / elapsed)
    })
}

/// The median (by throughput) of `trials` runs of `cell`, each against a
/// fresh `n`-server ensemble holding the boot-time namespace
/// `/read/f000..f063`, created through the leader.
fn median_cell(
    trials: usize,
    n: usize,
    cell: impl Fn(&TcpCluster, usize, &[String]) -> Cell,
) -> Cell {
    let trial = |_| {
        let cluster = ClusterBuilder::new().voters(n).tcp();
        let leader = cluster.await_leader(Duration::from_secs(30)).expect("leader elected");
        let mut w = cluster.client(ClientOptions::at(leader)).expect("preload session");
        let paths: Vec<String> = (0..PRELOAD).map(|i| format!("/read/f{i:03}")).collect();
        w.create("/read", Bytes::new(), CreateMode::Persistent).expect("preload mkdir");
        for p in &paths {
            w.create(p, Bytes::from(format!("data-{p}").into_bytes()), CreateMode::Persistent)
                .expect("preload create");
        }
        let cell = cell(&cluster, leader, &paths);
        cluster.shutdown();
        cell
    };
    median_by((0..trials).map(trial).collect(), |c| c.ops_per_sec)
}

/// One uncached placement: `READERS` sessions, all at the leader or
/// session `i` at member `i % servers`.
fn uncached_cell(
    cluster: &TcpCluster,
    leader: usize,
    paths: &[String],
    servers: usize,
    mode: &'static str,
    ops_per_reader: usize,
) -> Cell {
    let mut sessions: Vec<_> = (0..READERS)
        .map(|i| {
            let at = if mode == "leader-only" { leader } else { i % servers };
            let mut c = cluster
                .client(ClientOptions::at(at).with_consistency(ReadConsistency::SyncThenLocal))
                .expect("reader session");
            // One barrier up front: the replica is current w.r.t. the
            // preload, after which every read is replica-local.
            c.sync().expect("barrier");
            c
        })
        .collect();
    let (ops_per_sec, churn_per_sec) =
        read_window(cluster, leader, mode, &mut sessions, paths, ops_per_reader, |c, p| {
            c.get_data(p, Watch::None).expect("read");
        });
    let ops = READERS * ops_per_reader;
    Cell { servers, mode, ops, ops_per_sec, churn_per_sec, cache: CacheStats::default() }
}

/// One cell of the cache axis.
#[derive(Clone, Copy)]
struct CacheVariant {
    mode: &'static str,
    builder: CacheBuilder,
    /// Each reader touches every path exactly once (all misses).
    cold: bool,
    /// All readers attach to one process-shared cache, bulk-warmed by a
    /// single `warm_children` round trip before the clock starts.
    shared: bool,
    /// Readers hammer paths that do not exist (negative-entry store).
    negative: bool,
}

/// The cache-axis variant of [`uncached_cell`]: follower-local placement,
/// every reader wrapped in the `dufs-cache` layer — private per session
/// or attached to one shared store, per the variant.
fn cached_cell(
    cluster: &TcpCluster,
    leader: usize,
    paths: &[String],
    servers: usize,
    variant: CacheVariant,
    ops_per_reader: usize,
) -> Cell {
    let CacheVariant { mode, builder, cold, shared, negative } = variant;
    let store = shared.then(|| builder.shared());
    let mut sessions: Vec<_> = (0..READERS)
        .map(|i| {
            let raw = cluster
                .client(
                    ClientOptions::at(i % servers).with_consistency(ReadConsistency::SyncThenLocal),
                )
                .expect("reader session");
            let mut c = match &store {
                Some(s) => s.session(raw),
                None => builder.session(raw),
            };
            c.sync().expect("barrier");
            c
        })
        .collect();
    if shared {
        // One READDIRPLUS round trip stocks the store for the whole pool.
        sessions[0].warm_children("/read").expect("bulk warm");
    }
    let missing: Vec<String> = (0..PRELOAD).map(|i| format!("/read/missing{i:03}")).collect();
    let paths = if negative { &missing } else { paths };
    let per_reader = if cold { paths.len() } else { ops_per_reader };

    let (ops_per_sec, churn_per_sec) =
        read_window(cluster, leader, mode, &mut sessions, paths, per_reader, |c, p| {
            match c.get_data(p) {
                Ok(_) => assert!(!negative, "phantom znode {p}"),
                Err(ZkError::NoNode) if negative => {}
                Err(e) => panic!("read {p}: {e:?}"),
            }
        });
    let mut cache = CacheStats::default();
    for c in &sessions {
        cache.absorb(&c.stats());
    }
    Cell { servers, mode, ops: READERS * per_reader, ops_per_sec, churn_per_sec, cache }
}

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let (ops_per_reader, trials) = match scale {
        Scale::Smoke => (300, 1),
        Scale::Quick => (2_000, 3),
        Scale::Full => (10_000, 3),
    };

    let mut cells = Vec::new();
    for n in ENSEMBLES {
        for mode in ["leader-only", "follower-local"] {
            cells.push(median_cell(trials, n, |cluster, leader, paths| {
                uncached_cell(cluster, leader, paths, n, mode, ops_per_reader)
            }));
        }
    }

    // Cache axis: same follower-local spread, readers wrapped in the
    // dufs-cache layer. The uncached follower-local cells above are its
    // baseline, so only the cached modes boot fresh ensembles here.
    let v = |mode, builder, cold, shared, negative| CacheVariant {
        mode,
        builder,
        cold,
        shared,
        negative,
    };
    let cache_modes = [
        v("cached-cold", CacheBuilder::new(), true, false, false),
        v("cached-warm", CacheBuilder::new(), false, false, false),
        v("cached-warm-nolease", CacheBuilder::new().lease(false), false, false, false),
        // The trust window for foreign-installed entries must outlive the
        // read window, or the pool re-fetches mid-run and the cell stops
        // measuring shared serving.
        v(
            "shared-warm",
            CacheBuilder::new().shared_max_age(Duration::from_secs(120)),
            false,
            true,
            false,
        ),
        v("negative-hit", CacheBuilder::new(), false, false, true),
    ];
    let mut cache_cells = Vec::new();
    for n in ENSEMBLES {
        for variant in cache_modes {
            cache_cells.push(median_cell(trials, n, |cluster, leader, paths| {
                cached_cell(cluster, leader, paths, n, variant, ops_per_reader)
            }));
        }
    }

    let mut report =
        Report::new("Follower read scale-out and cache axis on the real TCP runtime", scale);
    let at = |cells: &[Cell], n: usize, mode: &str| {
        let cell = cells.iter().find(|c| c.servers == n && c.mode == mode).expect("cell ran");
        cell.ops_per_sec.max(f64::MIN_POSITIVE)
    };
    let describe = |report: &mut Report, workload: String| {
        report.field("workload", workload);
        report.field("readers", READERS);
        report.field("writers", WRITERS);
        report.field("ops_per_reader", ops_per_reader);
        report.field("trials", trials);
    };
    let served = |cells: &[Cell]| {
        let idle: Vec<_> =
            cells.iter().filter(|c| c.ops_per_sec <= 0.0).map(|c| (c.servers, c.mode)).collect();
        (idle.is_empty(), format!("cells that served none: {idle:?}"))
    };

    describe(
        &mut report,
        format!(
            "{READERS} sessions x {ops_per_reader} get_data over {PRELOAD} znodes under \
             {WRITERS}-session write churn, TCP runtime, SyncThenLocal"
        ),
    );
    report.table("cells", vec!["servers", "mode", "ops", "ops_per_sec", "churn_writes_per_sec"]);
    for c in &cells {
        report.row(vec![
            c.servers.into(),
            c.mode.into(),
            c.ops.into(),
            Value::ops(c.ops_per_sec),
            Value::ops(c.churn_per_sec),
        ]);
    }
    let gain5 = at(&cells, 5, "follower-local") / at(&cells, 5, "leader-only");
    report.field("scaleout_gain_at_5", Value::unit(gain5, 2, "x"));
    let (pass, detail) = served(&cells);
    report.gate("every placement serves reads on every ensemble size", pass, detail);
    if scale != Scale::Smoke {
        report.gate(
            "follower-local reads at 5 servers beat the leader-only baseline",
            gain5 > 1.0,
            format!("{gain5:.2}x"),
        );
    }

    report.next_file();
    report.note("\ncache axis:");
    describe(
        &mut report,
        format!(
            "{READERS} cached sessions reading {PRELOAD} znodes follower-local under \
             {WRITERS}-session write churn, TCP runtime, SyncThenLocal"
        ),
    );
    report.table(
        "cells",
        vec![
            "servers",
            "mode",
            "ops",
            "ops_per_sec",
            "churn_writes_per_sec",
            "hit_rate",
            "hits",
            "misses",
            "negative_hits",
            "bulk_warms",
            "lease_renewals",
            "barriers_skipped",
            "barriers_coalesced",
        ],
    );
    for c in cells.iter().filter(|c| c.mode == "follower-local").chain(&cache_cells) {
        report.row(vec![
            c.servers.into(),
            c.mode.into(),
            c.ops.into(),
            Value::ops(c.ops_per_sec),
            Value::ops(c.churn_per_sec),
            Value::unit(c.cache.hit_rate() * 100.0, 1, "%"),
            c.cache.hits.into(),
            c.cache.misses.into(),
            c.cache.negative_hits.into(),
            c.cache.bulk_warms.into(),
            c.cache.lease_renewals.into(),
            c.cache.barriers_skipped.into(),
            c.cache.barriers_coalesced.into(),
        ]);
    }
    let cache_gain5 = at(&cache_cells, 5, "cached-warm") / at(&cells, 5, "follower-local");
    report.field("warm_gain_over_uncached_at_5", Value::unit(cache_gain5, 2, "x"));
    let (pass, detail) = served(&cache_cells);
    report.gate("every cached mode serves reads on every ensemble size", pass, detail);
    // A broken invalidation path that flushes on every read would still
    // pass on throughput alone, so the counters are gated per mode.
    let mut counters = |gate: &str, mode: &str, ok: fn(&CacheStats) -> bool| {
        let of_mode: Vec<&Cell> = cache_cells.iter().filter(|c| c.mode.starts_with(mode)).collect();
        let shown = of_mode.last().expect("mode ran");
        report.gate(
            gate,
            of_mode.iter().all(|c| ok(&c.cache)),
            format!("{} @ {} servers: {}", shown.mode, shown.servers, shown.cache),
        );
    };
    counters("warm cached modes record hits", "cached-warm", |s| s.hits > 0);
    counters("shared-warm cells are stocked by a bulk warm and then hit", "shared-warm", |s| {
        s.bulk_warms >= 1 && s.hits > 0
    });
    counters("negative-hit cells ride negative entries", "negative-hit", |s| s.negative_hits > 0);
    if scale != Scale::Smoke {
        report.gate(
            "warm cached reads at 5 servers move >= 2x the uncached follower-local rate",
            cache_gain5 >= 2.0,
            format!("{cache_gain5:.2}x"),
        );
    }
    report
}
