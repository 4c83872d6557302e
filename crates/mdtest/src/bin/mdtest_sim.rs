//! `mdtest-sim` — command-line front end for the simulated testbed, with
//! mdtest-flavoured output.
//!
//! ```text
//! Usage: mdtest_sim [OPTIONS]
//!   --system <lustre|pvfs2|dufs-lustre|dufs-pvfs2>   (default dufs-lustre)
//!   --procs <N>        client processes               (default 64)
//!   --items <N>        dirs/files per process         (default 40)
//!   --zk <N>           coordination servers (DUFS)    (default 8)
//!   --shards <N>       independent coordination ensembles of --zk members
//!                      each, namespace consistent-hashed across them
//!   --backends <N>     merged back-end mounts (DUFS)  (default 2)
//!   --shared-dir       all file creates into one directory
//!   --seed <N>         simulation seed                (default 1)
//!   --crash <srv:ms:down_ms>  crash a coord server mid-run
//!   --durable          write-ahead log on every coord server
//!   --crash-all <ms:down_ms>  crash the WHOLE ensemble (needs --durable)
//!   --live <thread|tcp>  drive a REAL cluster (wall-clock) instead of simnet
//!   --net-stats        print per-endpoint transport counters (live tcp only)
//!   --read-from <leader|spread>  live sessions: all at the leader, or spread
//!                      round-robin across every member (default leader)
//!   --consistency <local|sync|linear>  live read recency (default sync:
//!                      read-your-writes via a ZAB no-op barrier)
//!   --cache            wrap every live session in the dufs-cache client
//!                      cache (leases on); prints a CACHE STATS line
//!   --cache-shared     like --cache, but all sessions attach to ONE
//!                      process-wide shared cache (implies --cache)
//!   --no-lease         with --cache: disable staleness leases (strict
//!                      PR 5 barrier semantics around the cache)
//!   --data <bytes>     mixed metadata+data run: every file create also
//!                      stripes <bytes> of contents across the data
//!                      targets, every file stat read-back-verifies the
//!                      per-FID CRC; prints a `data digest` line that is
//!                      identical across sim / --live thread / --live tcp
//!   --stripe <bytes>   data stripe size                (default 65536)
//!   --zipf <theta>     with --data: skew stat-phase re-reads by a
//!                      Zipf(theta) file-popularity distribution
//!                      (0 = uniform; 0.8-1.2 = realistic hot files)
//! ```
//!
//! Live mode runs the same deterministic op streams against an actual
//! in-process (`thread`) or loopback-socket (`tcp`) ensemble and reports
//! wall-clock rates plus the converged namespace digest — `scripts/ci.sh`
//! compares the digest across the two runtimes. Only the create/stat phases
//! run live, so the digest covers a populated tree.
//!
//! Example:
//! ```text
//! cargo run --release -p dufs-mdtest --bin mdtest_sim -- \
//!     --system dufs-lustre --procs 128 --items 60 --zk 8 --backends 4
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use dufs_backendfs::MemEngine;
use dufs_cache::{CacheBuilder, CacheStats, Cached};
use dufs_coord::runtime::ServerStatus;
use dufs_coord::{
    ClientOptions, ClusterBuilder, ClusterHandle, CoordService, ReadConsistency, ShardedCluster,
};
use dufs_mdtest::data::{
    expected_data_digest, read_back_digest, run_live_data, verify_file, write_all_files, DataSpec,
    Zipf,
};
use dufs_mdtest::live::{aggregate_cache_stats, run_live, LivePhase};
use dufs_mdtest::scenario::{
    run_mdtest_report, CoordCrash, CoordOutage, MdtestConfig, MdtestSystem,
};
use dufs_mdtest::workload::{Phase, WorkloadSpec};
use dufs_mdtest::ScratchDir;
use dufs_store::{FileEngine, FsyncPolicy, StoreClient, StoreServer};
use parking_lot::Mutex;

fn usage() -> ! {
    eprintln!(
        "usage: mdtest_sim [--system lustre|pvfs2|dufs-lustre|dufs-pvfs2] \
         [--procs N] [--items N] [--zk N] [--shards N] [--backends N] \
         [--shared-dir] [--seed N] [--crash srv:at_ms:down_ms] [--durable] \
         [--crash-all at_ms:down_ms] [--live thread|tcp] [--net-stats] \
         [--read-from leader|spread] [--consistency local|sync|linear] \
         [--cache] [--cache-shared] [--no-lease] [--data BYTES] [--stripe BYTES] \
         [--zipf THETA]"
    );
    std::process::exit(2);
}

/// Poll until every member reports one digest at one applied index.
fn converged_digest(status: impl Fn(usize) -> ServerStatus, n: usize) -> ServerStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut s: Vec<ServerStatus> = (0..n).map(&status).collect();
        if s.iter().all(|x| x.digest == s[0].digest && x.last_applied == s[0].last_applied) {
            return s.swap_remove(0);
        }
        if Instant::now() > deadline {
            eprintln!("replicas never converged: {s:?}");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn print_namespace(s: &ServerStatus) {
    println!("\nfinal namespace: {} znodes, replicated digest {:#018x}", s.node_count, s.digest);
}

fn print_live(phases: &[LivePhase]) {
    println!("SUMMARY rate (wall clock): (ops/sec)");
    println!("   {:<22} {:>12} {:>12}", "Operation", "ops/sec", "total ops");
    for p in phases {
        println!("   {:<22} {:>12.1} {:>12}", p.phase.label(), p.ops_per_sec, p.ops);
    }
}

/// One-line cache/lease counter summary over all sessions (the cache
/// analogue of the NET STATS block). The counters themselves are printed
/// through [`CacheStats`]'s `Display`, the one formatter shared with
/// `bench_reads` — one shape everywhere.
fn print_cache_stats(sessions: usize, shared: bool, s: &CacheStats) {
    let kind = if shared { "sessions, shared cache" } else { "sessions" };
    println!("\nCACHE STATS ({sessions} {kind}): {s}");
}

/// How live sessions attach to the ensemble: placement, read recency,
/// and the optional client-cache wrap (private per session, or all
/// sessions attached to one process-wide shared cache).
#[derive(Clone, Copy)]
struct Sessions {
    spread: bool,
    consistency: ReadConsistency,
    cache: Option<CacheBuilder>,
    cache_shared: bool,
}

/// Run the metadata-only workload over the sessions `open(p)` hands out —
/// bare, or wrapped in the client cache per `sess` — print the phase rates
/// (and the cache counters), and hand the bare sessions back for transport
/// statistics or a digest.
fn run_sessions<S: CoordService + Send>(
    spec: &WorkloadSpec,
    sess: Sessions,
    open: impl Fn(usize) -> S,
) -> Vec<S> {
    // Each process stats only paths it created itself in an earlier, synced
    // phase, so any read-your-writes level lets us insist the stats hit.
    let strict_stats = sess.consistency != ReadConsistency::Local;
    let Some(builder) = sess.cache else {
        let (phases, clients) = run_live(spec, open, |_| {}, strict_stats);
        print_live(&phases);
        return clients;
    };
    // `--cache-shared`: every session attaches to ONE process-wide store;
    // otherwise each gets a private cache.
    let shared = sess.cache_shared.then(|| builder.shared());
    let (phases, clients) = run_live(
        spec,
        |p| match &shared {
            Some(sc) => sc.session(open(p)),
            None => builder.session(open(p)),
        },
        |_| {},
        strict_stats,
    );
    print_live(&phases);
    let stats: Vec<CacheStats> = clients.iter().map(Cached::stats).collect();
    print_cache_stats(clients.len(), sess.cache_shared, &aggregate_cache_stats(&stats));
    clients.into_iter().map(Cached::into_inner).collect()
}

/// Live mode: the same WorkloadSpec op streams against a real ensemble.
/// Create/stat phases only, so the final digest covers a populated tree.
/// With `data`, every process also drives the striped data path — shared
/// in-memory targets on the `thread` runtime, real `StoreServer`s over
/// durable `FileEngine` targets on `tcp` — and the read-back contents
/// digest is printed and asserted against the spec-derived expectation.
///
/// With `shards`, the namespace is sharded instead: one `ShardedClient` (a
/// session per shard) per process, and the line printed is the
/// shard-count-independent logical content digest, which `scripts/ci.sh`
/// compares across `--shards` values.
#[allow(clippy::too_many_arguments)]
fn run_live_mode(
    mode: &str,
    spec: WorkloadSpec,
    zk: usize,
    shards: Option<usize>,
    backends: usize,
    durable: bool,
    net_stats: bool,
    sess: Sessions,
    data: Option<DataSpec>,
) {
    let Sessions { spread, consistency, .. } = sess;
    let spec = WorkloadSpec {
        phases: vec![Phase::DirCreate, Phase::DirStat, Phase::FileCreate, Phase::FileStat],
        ..spec
    };
    if mode != "thread" && mode != "tcp" {
        eprintln!("--live must be 'thread' or 'tcp', got {mode:?}");
        usage()
    }
    let strict_stats = consistency != ReadConsistency::Local;
    let mut b = ClusterBuilder::new().voters(zk);
    let wal_dir = durable.then(|| ScratchDir::new("mdtest-live"));
    if let Some(dir) = &wal_dir {
        b = b.durable(dir.path());
    }
    // One shard-cluster run, cached or not, returning the logical digest.
    fn sharded_run<C: ClusterHandle>(
        cluster: ShardedCluster<C>,
        spec: &WorkloadSpec,
        sess: Sessions,
        opts_for: impl Fn(usize) -> ClientOptions,
    ) -> u64
    where
        C::Transport: Send,
    {
        let mut clients =
            run_sessions(spec, sess, |p| cluster.client(opts_for(p)).expect("session"));
        let digest = clients[0].user_digest().expect("digest");
        cluster.shutdown();
        digest
    }
    match (mode, shards) {
        ("thread" | "tcp", Some(n)) => {
            let opts_for = |p: usize| {
                ClientOptions::at(if spread { p % zk } else { 0 })
                    .with_failover()
                    .with_consistency(consistency)
            };
            let b = b.shards(n);
            let digest = if mode == "thread" {
                sharded_run(b.sharded_threads(), &spec, sess, opts_for)
            } else {
                sharded_run(b.sharded_tcp(), &spec, sess, opts_for)
            };
            println!("\nfinal namespace ({n} shards): content digest {digest:#018x}");
        }
        ("thread", None) => {
            let tc = b.threads();
            let leader = tc.await_leader(Duration::from_secs(30)).expect("no leader");
            let opts_for = |p: usize| {
                ClientOptions::at(if spread { p % zk } else { leader })
                    .with_consistency(consistency)
            };
            if let Some(d) = data {
                // Shared in-memory data targets: every process routes
                // MD5(fid) mod N to the same engines, like live threads
                // sharing one data-server fleet.
                let engines: Vec<Arc<Mutex<MemEngine>>> =
                    (0..backends).map(|_| Arc::new(Mutex::new(MemEngine::new()))).collect();
                let (phases, digest) = run_live_data(
                    &spec,
                    &d,
                    |p| tc.client(opts_for(p)).expect("session"),
                    |_| StoreClient::local(&engines, d.stripe),
                    |_| {},
                    strict_stats,
                );
                print_live(&phases);
                assert_eq!(
                    digest,
                    expected_data_digest(&spec, &d),
                    "read-back contents digest drifted from the spec-derived value"
                );
                println!("\ndata digest {digest:#018x} ({backends} in-memory data targets)");
            } else {
                run_sessions(&spec, sess, |p| tc.client(opts_for(p)).expect("session"));
            }
            print_namespace(&converged_digest(|i| tc.status(i), zk));
            tc.shutdown();
        }
        ("tcp", None) => {
            let cluster = b.tcp();
            let leader = cluster.await_leader(Duration::from_secs(30)).expect("no leader");
            let opts_for = |p: usize| {
                ClientOptions::at(if spread { p % zk } else { leader })
                    .with_failover()
                    .with_consistency(consistency)
            };
            // Per-session transport snapshots for the NET STATS block,
            // whichever wrapper served the run.
            let client_net: Vec<_>;
            if let Some(d) = data {
                // Real data servers: one StoreServer per target over a
                // durable FileEngine directory, group fsync — the full
                // frame/demux/group-commit path under mixed load.
                let data_dir = ScratchDir::new("mdtest-store");
                let servers: Vec<StoreServer> = data_dir
                    .targets(backends)
                    .iter()
                    .enumerate()
                    .map(|(t, dir)| {
                        let engine =
                            FileEngine::open(dir, FsyncPolicy::Group).expect("open target dir");
                        StoreServer::spawn(
                            "127.0.0.1:0".parse().unwrap(),
                            engine,
                            FsyncPolicy::Group,
                            t as u64 + 1,
                        )
                        .expect("spawn store server")
                    })
                    .collect();
                let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.addr()).collect();
                let (phases, digest) = run_live_data(
                    &spec,
                    &d,
                    |p| cluster.client(opts_for(p)).expect("session"),
                    |p| StoreClient::tcp(&addrs, d.stripe, 1000 + p as u64).expect("store session"),
                    |_| {},
                    strict_stats,
                );
                print_live(&phases);
                assert_eq!(
                    digest,
                    expected_data_digest(&spec, &d),
                    "read-back contents digest drifted from the spec-derived value"
                );
                println!("\ndata digest {digest:#018x} ({backends} store servers, group fsync)");
                for s in servers {
                    s.stop();
                }
                client_net = Vec::new();
            } else {
                let clients =
                    run_sessions(&spec, sess, |p| cluster.client(opts_for(p)).expect("session"));
                client_net = clients.iter().map(|c| c.transport().stats()).collect();
            }
            print_namespace(&converged_digest(|i| cluster.status(i), zk));
            if net_stats {
                println!("\nNET STATS (per endpoint):");
                let mut total = cluster.net_stats(0);
                println!("   server 0: {total}");
                for i in 1..zk {
                    let s = cluster.net_stats(i);
                    println!("   server {i}: {s}");
                    total.absorb(&s);
                }
                let mut client_total = client_net[0];
                for s in &client_net[1..] {
                    client_total.absorb(s);
                }
                println!("   clients ({}): {client_total}", client_net.len());
                total.absorb(&client_total);
                println!("   TOTAL: {total}");
            }
            cluster.shutdown();
        }
        _ => unreachable!("mode was checked on entry"),
    }
}

fn main() {
    let mut system = "dufs-lustre".to_string();
    let mut procs = 64usize;
    let mut items = 40usize;
    let mut zk = 8usize;
    let mut shards: Option<usize> = None;
    let mut backends = 2usize;
    let mut shared = false;
    let mut seed = 1u64;
    let mut crash: Option<CoordCrash> = None;
    let mut durable = false;
    let mut crash_all: Option<CoordOutage> = None;
    let mut live: Option<String> = None;
    let mut net_stats = false;
    let mut read_from = "leader".to_string();
    let mut consistency = ReadConsistency::SyncThenLocal;
    let mut cache = false;
    let mut cache_shared = false;
    let mut no_lease = false;
    let mut data_bytes: Option<usize> = None;
    let mut stripe = 65536usize;
    let mut zipf_theta: Option<f64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--system" => system = next(&mut i),
            "--procs" => procs = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--items" => items = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--zk" => zk = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--shards" => shards = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--backends" => backends = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--shared-dir" => shared = true,
            "--seed" => seed = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--crash" => {
                let spec = next(&mut i);
                let parts: Vec<u64> = spec.split(':').filter_map(|s| s.parse().ok()).collect();
                if parts.len() != 3 {
                    usage();
                }
                crash = Some(CoordCrash {
                    server: parts[0] as usize,
                    at_ms: parts[1],
                    down_ms: parts[2],
                });
            }
            "--durable" => durable = true,
            "--crash-all" => {
                let spec = next(&mut i);
                let parts: Vec<u64> = spec.split(':').filter_map(|s| s.parse().ok()).collect();
                if parts.len() != 2 {
                    usage();
                }
                crash_all = Some(CoordOutage { at_ms: parts[0], down_ms: parts[1] });
            }
            "--live" => live = Some(next(&mut i)),
            "--net-stats" => net_stats = true,
            "--cache" => cache = true,
            "--cache-shared" => {
                cache = true;
                cache_shared = true;
            }
            "--no-lease" => no_lease = true,
            "--data" => data_bytes = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--stripe" => stripe = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--zipf" => zipf_theta = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--read-from" => {
                read_from = next(&mut i);
                if read_from != "leader" && read_from != "spread" {
                    eprintln!("--read-from must be 'leader' or 'spread', got {read_from:?}");
                    usage();
                }
            }
            "--consistency" => {
                consistency = match next(&mut i).as_str() {
                    "local" => ReadConsistency::Local,
                    "sync" => ReadConsistency::SyncThenLocal,
                    "linear" => ReadConsistency::Linearizable,
                    other => {
                        eprintln!("--consistency must be local|sync|linear, got {other:?}");
                        usage();
                    }
                };
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    if procs == 0 || items == 0 || zk == 0 || backends == 0 || shards == Some(0) {
        eprintln!("--procs/--items/--zk/--shards/--backends must be >= 1");
        usage();
    }
    if shards.is_some_and(|n| n > 1) && !system.starts_with("dufs") {
        eprintln!("--shards needs a DUFS system (the basic baselines have no namespace)");
        usage();
    }
    if crash_all.is_some() && !durable {
        eprintln!("--crash-all kills every coordination server; recovery needs --durable");
        usage();
    }
    if net_stats && live.as_deref() != Some("tcp") {
        eprintln!("--net-stats needs --live tcp (only sockets have transport counters)");
        usage();
    }
    if net_stats && shards.is_some() {
        eprintln!("--net-stats is not wired through sharded live runs yet");
        usage();
    }
    if cache && live.is_none() {
        eprintln!("--cache wraps live sessions; it needs --live thread|tcp");
        usage();
    }
    if no_lease && !cache {
        eprintln!("--no-lease only modifies --cache");
        usage();
    }
    if stripe == 0 {
        eprintln!("--stripe must be >= 1");
        usage();
    }
    if zipf_theta.is_some() && data_bytes.is_none() {
        eprintln!("--zipf skews data re-reads; it needs --data");
        usage();
    }
    if zipf_theta.is_some_and(|t| t.is_nan() || t < 0.0) {
        eprintln!("--zipf theta must be a non-negative number");
        usage();
    }
    if data_bytes.is_some() && shards.is_some() {
        eprintln!("--data is not wired through sharded runs yet");
        usage();
    }
    if data_bytes.is_some() && cache {
        eprintln!("--cache caches metadata sessions; it is not wired through --data runs");
        usage();
    }
    if data_bytes.is_some() && net_stats {
        eprintln!("--net-stats is not wired through --data runs");
        usage();
    }
    if data_bytes.is_some() && live.is_none() && !system.starts_with("dufs") {
        eprintln!("--data drives the DUFS data path; use a dufs-* system (or --live)");
        usage();
    }
    let data_spec = data_bytes.map(|bytes| DataSpec { bytes, stripe, zipf: zipf_theta });
    let cache_builder = cache.then(|| CacheBuilder::new().lease(!no_lease));

    if let Some(mode) = live {
        if crash.is_some() || crash_all.is_some() {
            eprintln!(
                "--crash/--crash-all are simulation-only; the live kill-9 harness is \
                       crates/coord/tests/kill9_recovery.rs"
            );
            usage();
        }
        let spec = WorkloadSpec { shared_dir: shared, ..WorkloadSpec::mdtest(procs, items) };
        let cached = match (cache_builder, cache_shared) {
            (Some(_), true) => ", shared cache",
            (Some(b), false) if b.options().lease => ", cached+leased",
            (Some(_), false) => ", cached",
            (None, _) => "",
        };
        let durable_tag = if durable { " (durable)" } else { "" };
        if let Some(n) = shards {
            println!(
                "-- mdtest-live: {mode} runtime, {n} shards x {zk} coordination servers{durable_tag} --"
            );
            println!(
                "   {procs} routed client sessions ({consistency:?} reads{cached}), \
                 {items} items/proc, create/stat phases"
            );
        } else {
            println!("-- mdtest-live: {mode} runtime, {zk} coordination servers{durable_tag} --");
            println!(
                "   {procs} client sessions at the {read_from} ({consistency:?} reads{cached}), \
                 {items} items/proc, create/stat phases"
            );
        }
        if let Some(d) = data_spec {
            println!(
                "   mixed data path: {} bytes/file, {} byte stripes over {backends} targets{}",
                d.bytes,
                d.stripe,
                d.zipf.map(|t| format!(", zipf({t}) re-reads")).unwrap_or_default()
            );
        }
        println!();
        run_live_mode(
            &mode,
            spec,
            zk,
            shards,
            backends,
            durable,
            net_stats,
            Sessions {
                spread: read_from == "spread",
                consistency,
                cache: cache_builder,
                cache_shared,
            },
            data_spec,
        );
        return;
    }

    let sys = match system.as_str() {
        "lustre" => MdtestSystem::BasicLustre,
        "pvfs2" => MdtestSystem::BasicPvfs2,
        "dufs-lustre" => MdtestSystem::DufsLustre { zk_servers: zk, backends },
        "dufs-pvfs2" => MdtestSystem::DufsPvfs2 { zk_servers: zk, backends },
        other => {
            eprintln!("unknown system: {other}");
            usage();
        }
    };

    let spec = WorkloadSpec { shared_dir: shared, ..WorkloadSpec::mdtest(procs, items) };

    let n_shards = shards.unwrap_or(1);
    println!(
        "-- mdtest-sim: {}{}{} --",
        sys.label(),
        if n_shards > 1 { format!(" x {n_shards} shards") } else { String::new() },
        if durable { " (durable: WAL + group fsync)" } else { "" }
    );
    println!(
        "   {} processes over 8 client nodes, {} items/proc, tree fan-out {}, {} placement{}",
        procs,
        items,
        spec.fanout,
        if shared { "shared-directory" } else { "unique-directory" },
        crash
            .map(|c| format!(", crash server {} @{}ms for {}ms", c.server, c.at_ms, c.down_ms))
            .unwrap_or_default()
    );
    if let Some(o) = crash_all {
        println!(
            "   whole-ensemble outage @{}ms for {}ms; servers restart from their logs",
            o.at_ms, o.down_ms
        );
    }
    println!();

    let report = run_mdtest_report(&MdtestConfig {
        crash_coord: crash,
        durable,
        crash_all_coord: crash_all,
        shards: n_shards,
        ..MdtestConfig::new(sys, spec.clone(), seed)
    });

    println!("SUMMARY rate (of virtual testbed time): (ops/sec)");
    println!(
        "   {:<22} {:>12} {:>10} {:>12} {:>12}",
        "Operation", "ops/sec", "errors", "mean lat", "p99 lat"
    );
    for r in &report.phases {
        println!(
            "   {:<22} {:>12.1} {:>10} {:>9.2} ms {:>9.2} ms",
            r.phase.label(),
            r.ops_per_sec,
            r.errors,
            r.mean_latency_us / 1000.0,
            r.p99_latency_us / 1000.0
        );
    }
    if report.namespace_nodes > 0 {
        println!(
            "\nfinal namespace: {} znodes, replicated digest {:#018x}",
            report.namespace_nodes, report.namespace_digest
        );
    }
    if report.logical_digest != 0 {
        println!(
            "logical content digest (shard-count independent) {:#018x}",
            report.logical_digest
        );
    }

    // Mixed-run data half: drive the same path-derived contents through a
    // striped client over `backends` in-memory targets, read everything
    // back, and print the contents digest — the value the live runners
    // must reproduce byte-for-byte.
    if let Some(d) = data_spec {
        let engines: Vec<Arc<Mutex<MemEngine>>> =
            (0..backends).map(|_| Arc::new(Mutex::new(MemEngine::new()))).collect();
        let mut store = StoreClient::local(&engines, d.stripe);
        for p in 0..spec.processes {
            write_all_files(&mut store, &spec, &d, p);
        }
        let digest = read_back_digest(&mut store, &spec, &d);
        assert_eq!(
            digest,
            expected_data_digest(&spec, &d),
            "read-back contents digest drifted from the spec-derived value"
        );
        // Exercise the popularity skew in sim mode too: a zipf-sampled
        // re-read pass per process, so the knob is live on every path.
        if let Some(theta) = d.zipf {
            for p in 0..spec.processes {
                let files = spec.file_paths(p);
                let mut z = Zipf::new(files.len(), theta, p as u64 + 1);
                for _ in 0..files.len() {
                    verify_file(&mut store, &files[z.sample()], d.bytes);
                }
            }
        }
        println!(
            "data digest {digest:#018x} ({} bytes/file over {backends} in-memory data targets)",
            d.bytes
        );
    }
}
