//! `mdtest-sim` — command-line front end for the simulated testbed, with
//! mdtest-flavoured output.
//!
//! Run `mdtest_sim --help` for the options.
//!
//! Live mode runs the same deterministic op streams through one `Dufs`
//! client per process against an actual in-process (`thread`) or
//! loopback-socket (`tcp`) ensemble and reports wall-clock rates plus the
//! converged namespace digest — the digest the plain simulated run with
//! the same `--procs/--items/--zk/--backends` prints.
//!
//! Example:
//! ```text
//! cargo run --release -p dufs-mdtest --bin mdtest_sim -- \
//!     --system dufs-lustre --procs 128 --items 60 --zk 8 --backends 4
//! ```

use std::time::Duration;

use dufs_cache::CacheBuilder;
use dufs_coord::{
    ClientOptions, ClusterBuilder, ClusterHandle, CoordService, ReadConsistency, ShardedCluster,
    TcpCluster, TcpTransport, ZkClient,
};
use dufs_mdtest::data::{expected_data_digest, DataSpec, DataTargets};
use dufs_mdtest::live::{aggregate_cache_stats, run_live, DataPath, LiveRun};
use dufs_mdtest::scenario::{
    run_mdtest_report, CoordCrash, CoordOutage, MdtestConfig, MdtestSystem,
};
use dufs_mdtest::workload::WorkloadSpec;
use dufs_mdtest::ScratchDir;

const HELP: &str = "\
Usage: mdtest_sim [OPTIONS]
  --system <lustre|pvfs2|dufs-lustre|dufs-pvfs2>   (default dufs-lustre)
  --procs <N>        client processes               (default 64)
  --items <N>        dirs/files per process         (default 40)
  --zk <N>           coordination servers (DUFS)    (default 8)
  --shards <N>       independent coordination ensembles of --zk members
                     each, namespace consistent-hashed across them
  --backends <N>     merged back-end mounts (DUFS)  (default 2)
  --shared-dir       all file creates into one directory
  --seed <N>         simulation seed                (default 1)
  --crash <srv:ms:down_ms>  crash a coord server mid-run
  --durable          write-ahead log on every coord server
  --crash-all <ms:down_ms>  crash the WHOLE ensemble (needs --durable)
  --live <thread|tcp>  drive a REAL cluster (wall-clock) instead of simnet
  --net-stats        print per-endpoint transport counters (live tcp only)
  --read-from <leader|spread>  live sessions: all at the leader, or spread
                     round-robin across every member (default leader)
  --consistency <local|sync|linear>  live read recency (default sync:
                     read-your-writes via a ZAB no-op barrier)
  --cache            wrap every live session in the dufs-cache client
                     cache (leases on); prints a CACHE STATS line
  --cache-shared     like --cache, but all sessions attach to ONE
                     process-wide shared cache (implies --cache)
  --no-lease         with --cache: disable staleness leases (strict
                     PR 5 barrier semantics around the cache)
  --data <bytes>     with --live, a mixed metadata+data run: every file
                     create also stripes <bytes> of contents across the
                     data targets under the FID it minted, every file
                     stat read-back-verifies them; prints a `data
                     digest` line equal to the spec-derived value
  --stripe <bytes>   data stripe size                (default 65536)
  --zipf <theta>     with --data: skew stat-phase re-reads by a
                     Zipf(theta) file-popularity distribution
                     (0 = uniform; 0.8-1.2 = realistic hot files)";

fn usage() -> ! {
    eprintln!("{HELP}");
    std::process::exit(2);
}

fn print_namespace(nodes: usize, digest: u64) {
    println!("\nfinal namespace: {nodes} znodes, replicated digest {digest:#018x}");
}

/// The `--net-stats` block: per-member and summed client transport counters.
fn print_net_stats(cluster: &TcpCluster, sessions: &[&mut ZkClient<TcpTransport>]) {
    println!("\nNET STATS (per endpoint):");
    let mut total = cluster.net_stats(0);
    println!("   server 0: {total}");
    for i in 1..cluster.len() {
        let s = cluster.net_stats(i);
        println!("   server {i}: {s}");
        total.absorb(&s);
    }
    let mut client_total = sessions[0].transport().stats();
    for c in &sessions[1..] {
        client_total.absorb(&c.transport().stats());
    }
    println!("   clients ({}): {client_total}", sessions.len());
    total.absorb(&client_total);
    println!("   TOTAL: {total}");
}

/// The shape of a live run: topology, how sessions attach to the ensemble
/// (placement, read recency, the optional client-cache wrap — private per
/// session, or all sessions on one process-wide shared cache), and the
/// optional data half.
struct LiveArgs {
    zk: usize,
    shards: Option<usize>,
    backends: usize,
    durable: bool,
    spread: bool,
    consistency: ReadConsistency,
    cache: Option<CacheBuilder>,
    cache_shared: bool,
    data: Option<(DataSpec, DataTargets)>,
}

/// Run the workload through `Dufs` over the sessions `open(p)` hands out —
/// bare, or wrapped in the client cache per `a` — print the phase rates,
/// the cache counters and the verified data digest, and pass the bare
/// sessions to `then` for a digest or transport statistics.
fn run_sessions<S: CoordService + Send>(
    spec: &WorkloadSpec,
    a: &LiveArgs,
    open: impl Fn(usize) -> S,
    then: impl FnOnce(Vec<&mut S>),
) {
    // Each process stats only paths it created itself in an earlier, synced
    // phase, so any read-your-writes level lets us insist the stats hit.
    let strict_stats = a.consistency != ReadConsistency::Local;
    let data = a.data.as_ref().map(|(d, targets)| DataPath {
        spec: *d,
        store_for: Box::new(|p| targets.client(d.stripe, p)),
    });
    fn report<S>(spec: &WorkloadSpec, a: &LiveArgs, run: &LiveRun<S>) {
        println!("SUMMARY rate (wall clock): (ops/sec)");
        println!("   {:<22} {:>12} {:>12}", "Operation", "ops/sec", "total ops");
        for p in &run.phases {
            println!("   {:<22} {:>12.1} {:>12}", p.phase.label(), p.ops_per_sec, p.ops);
        }
        if let (Some(digest), Some((d, _))) = (run.data_digest, &a.data) {
            assert_eq!(
                digest,
                expected_data_digest(spec, d),
                "read-back contents digest drifted from the spec-derived value"
            );
            println!("\ndata digest {digest:#018x}");
        }
    }
    let Some(builder) = a.cache else {
        let mut run = run_live(spec, a.zk, a.backends, open, data, strict_stats);
        report(spec, a, &run);
        return then(run.clients.iter_mut().map(|fs| fs.coord_mut()).collect());
    };
    // `--cache-shared`: every session attaches to ONE process-wide store;
    // otherwise each gets a private cache.
    let shared = a.cache_shared.then(|| builder.shared());
    let wrap = |p| match &shared {
        Some(sc) => sc.session(open(p)),
        None => builder.session(open(p)),
    };
    let mut run = run_live(spec, a.zk, a.backends, wrap, data, strict_stats);
    report(spec, a, &run);
    // Printed through `CacheStats`'s `Display`, the formatter `dufs-bench reads` shares.
    let stats = aggregate_cache_stats(run.clients.iter_mut().map(|fs| fs.coord_mut().stats()));
    let kind = if a.cache_shared { "sessions, shared cache" } else { "sessions" };
    println!("\nCACHE STATS ({} {kind}): {stats}", run.clients.len());
    then(run.clients.iter_mut().map(|fs| fs.coord_mut().inner_mut()).collect())
}

/// Live mode: the same `WorkloadSpec` op streams through `Dufs` against a
/// real ensemble on the runtime `boot` starts. Unsharded, the line printed
/// is the converged replicated digest (the simulated run's); with `shards`
/// the namespace is sharded instead — one `ShardedClient` (a session per
/// shard) per process — and the line is the shard-count-independent
/// logical content digest. `net_report` gets the unsharded cluster and its
/// bare sessions once the namespace has been printed.
fn run_live_mode<C: ClusterHandle>(
    boot: impl Fn(ClusterBuilder) -> C,
    spec: &WorkloadSpec,
    a: &LiveArgs,
    net_report: impl FnOnce(&C, &[&mut ZkClient<C::Transport>]),
) where
    C::Transport: Send,
{
    let wal_dir = a.durable.then(|| ScratchDir::new("mdtest-live"));
    let ensemble = |shard: usize| {
        let b = ClusterBuilder::new().voters(a.zk);
        boot(match &wal_dir {
            Some(dir) => b.durable(dir.path().join(format!("shard-{shard}"))),
            None => b,
        })
    };
    let at = |p: usize, home: usize| {
        let opts = ClientOptions::at(if a.spread { p % a.zk } else { home }).with_failover();
        opts.with_consistency(a.consistency)
    };
    if let Some(n) = a.shards {
        let cluster = ShardedCluster::from_shards((0..n).map(ensemble).collect())
            .expect("bootstrap shard config");
        run_sessions(
            spec,
            a,
            |p| cluster.client(at(p, 0)).expect("session"),
            |mut sessions| {
                let digest = sessions[0].user_digest().expect("digest");
                println!("\nfinal namespace ({n} shards): content digest {digest:#018x}");
            },
        );
        cluster.shutdown();
    } else {
        let cluster = ensemble(0);
        let leader = cluster.await_leader(Duration::from_secs(30)).expect("no leader");
        run_sessions(
            spec,
            a,
            |p| cluster.client(at(p, leader)).expect("session"),
            |sessions| {
                let s = cluster.converged(Duration::from_secs(30)).expect("replicas converge");
                print_namespace(s.node_count, s.digest);
                net_report(&cluster, &sessions);
            },
        );
        cluster.shutdown();
    }
}

/// Parse `a:b[:c]` into exactly `N` numbers.
fn millis<const N: usize>(spec: &str) -> [u64; N] {
    let parts: Vec<u64> = spec.split(':').filter_map(|s| s.parse().ok()).collect();
    parts.try_into().unwrap_or_else(|_| usage())
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
                let [server, at_ms, down_ms] = millis(&next(&mut i));
                crash = Some(CoordCrash { server: server as usize, at_ms, down_ms });
            }
            "--durable" => durable = true,
            "--crash-all" => {
                let [at_ms, down_ms] = millis(&next(&mut i));
                crash_all = Some(CoordOutage { at_ms, down_ms });
            }
            "--live" => {
                let mode = next(&mut i);
                if mode != "thread" && mode != "tcp" {
                    eprintln!("--live must be 'thread' or 'tcp', got {mode:?}");
                    usage();
                }
                live = Some(mode);
            }
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
    if data_bytes.is_some() && live.is_none() {
        eprintln!("--data drives the live data path beside the Dufs clients; it needs --live");
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
        let ensembles = shards.map(|n| format!("{n} shards x ")).unwrap_or_default();
        println!(
            "-- mdtest-live: {mode} runtime, {ensembles}{zk} coordination servers{durable_tag} --"
        );
        println!(
            "   {procs} client sessions at the {read_from} ({consistency:?} reads{cached}), \
             {items} items/proc, all six phases"
        );
        if let Some(d) = data_spec {
            println!(
                "   mixed data path: {} bytes/file, {} byte stripes over {backends} {}{}",
                d.bytes,
                d.stripe,
                if mode == "tcp" { "store servers, group fsync" } else { "in-memory targets" },
                d.zipf.map(|t| format!(", zipf({t}) re-reads")).unwrap_or_default()
            );
        }
        println!();
        let args = LiveArgs {
            zk,
            shards,
            backends,
            durable,
            spread: read_from == "spread",
            consistency,
            cache: cache_builder,
            cache_shared,
            data: data_spec.map(|d| (d, DataTargets::start(mode == "tcp", backends))),
        };
        if mode == "thread" {
            run_live_mode(ClusterBuilder::threads, &spec, &args, |_, _| {});
        } else {
            run_live_mode(ClusterBuilder::tcp, &spec, &args, |cluster, sessions| {
                if net_stats {
                    print_net_stats(cluster, sessions);
                }
            });
        }
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
        ..MdtestConfig::new(sys, spec, seed)
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
        print_namespace(report.namespace_nodes, report.namespace_digest);
    }
    if report.logical_digest != 0 {
        println!(
            "logical content digest (shard-count independent) {:#018x}",
            report.logical_digest
        );
    }
}
