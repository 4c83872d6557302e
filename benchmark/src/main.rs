//! `dufs-benchmark`: end-to-end POSIX-op benchmark of the DUFS client over
//! the durable TCP stack, with an outside-in per-layer budget.
//!
//! ```text
//! dufs-benchmark --workload W --seed N --seconds S --trace 0|1 [--dir D] [--out F]
//! dufs-benchmark suite --seed N --seconds S --trace 0|1 --out F [--dir D]
//! dufs-benchmark compare A.json B.json
//! dufs-benchmark manifest
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric is for.

mod json;
mod probes;
mod stack;
mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use probes::Metrics;
use stack::{Cached, Ensemble, ReqClass, Session, VOTERS};
use workloads::{
    Bench, DataStream, Gate, Kind, Latencies, Md, Trial, ALL_KINDS, KINDS, LOOKUPS, MUTATIONS,
    WORKLOADS,
};

/// How long one run measures; `BENCHMARK.json` carries the same number.
const RUN_SECONDS: u64 = 18;
/// Set-up is repeated and `setup_s` is the fastest: about one ensemble
/// start in three stalls ~2.7 s (a follower misses the sync handshake and
/// only its watchdog re-elects), which makes the median of any affordable
/// number of repeats bimodal, while deterministic set-up work still shows
/// in the minimum.
const SETUP_REPEATS: usize = 3;
const MIN_TRIALS: usize = 3;

struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
}

/// Every workload reports every one of these with tracing off.
const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "op_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "rss_mb", unit: "MiB", better: "lower", bound: 0.25 },
];

/// `(name, unit, better)`; every workload reports every one of these in a
/// traced run. A metric of a layer the workload does not load reads 0.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("client.mutate_p50_us", "us", "lower"),
    ("client.mutate_p99_us", "us", "lower"),
    ("client.lookup_p50_us", "us", "lower"),
    ("client.lookup_p99_us", "us", "lower"),
    ("client.lookup_mean_us", "us", "lower"),
    ("client.mkdir_p50_us", "us", "lower"),
    ("client.create_p50_us", "us", "lower"),
    ("client.rename_p50_us", "us", "lower"),
    ("client.unlink_p50_us", "us", "lower"),
    ("client.rmdir_p50_us", "us", "lower"),
    ("client.stat_p50_us", "us", "lower"),
    ("client.open_p50_us", "us", "lower"),
    ("client.readdir_plus_p50_us", "us", "lower"),
    ("client.write_file_p50_us", "us", "lower"),
    ("client.read_file_p50_us", "us", "lower"),
    ("client.delete_file_p50_us", "us", "lower"),
    ("client.write_mb_s", "MB/s", "higher"),
    ("client.read_mb_s", "MB/s", "higher"),
    ("client.disk_bytes_per_user_byte", "ratio", "lower"),
    ("client.samples", "count", "higher"),
    ("core.self_us_per_op", "us", "lower"),
    ("core.coord_reqs_per_op", "count", "lower"),
    ("core.backend_calls_per_op", "count", "lower"),
    ("core.md5_map_ns", "ns", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.watch_invalidations_per_mutation", "count", "lower"),
    ("cache.local_invalidations_per_mutation", "count", "lower"),
    ("cache.hit_us", "us", "lower"),
    ("cache.miss_overhead_us", "us", "lower"),
    ("coord.read_rtt_p50_us", "us", "lower"),
    ("coord.barrier_read_rtt_p50_us", "us", "lower"),
    ("coord.write_rtt_p50_us", "us", "lower"),
    ("coord.wire_encode_ns", "ns", "lower"),
    ("coord.wire_decode_ns", "ns", "lower"),
    ("coord.server_apply_write_us", "us", "lower"),
    ("coord.server_apply_read_us", "us", "lower"),
    ("coord.recovery_ms", "ms", "lower"),
    ("coord.write_residual_us", "us", "lower"),
    ("coord.read_residual_us", "us", "lower"),
    ("zab.quorum_overhead_us", "us", "lower"),
    ("zab.single_voter_write_us", "us", "lower"),
    ("wal.sync_overhead_us", "us", "lower"),
    ("wal.append_us", "us", "lower"),
    ("wal.sync_us", "us", "lower"),
    ("wal.dir_bytes_per_mutation", "bytes", "lower"),
    ("wal.crc32_mb_s", "MB/s", "higher"),
    ("zkstore.create_ns", "ns", "lower"),
    ("zkstore.exists_ns", "ns", "lower"),
    ("zkstore.snapshot_ms", "ms", "lower"),
    ("zkstore.snapshot_bytes", "bytes", "lower"),
    ("zkstore.bytes_per_znode", "bytes", "lower"),
    ("net.frames_per_op", "count", "lower"),
    ("net.bytes_per_op", "bytes", "lower"),
    ("net.frames_per_flush", "count", "higher"),
    ("net.wakeups_per_op", "count", "lower"),
    ("net.echo_rtt_us_64b", "us", "lower"),
    ("net.echo_mb_s_64k", "MB/s", "higher"),
    ("net.crc32_mb_s", "MB/s", "higher"),
    ("net.frame_encode_mb_s", "MB/s", "higher"),
    ("net.frame_decode_mb_s", "MB/s", "higher"),
    ("store.put_us_64k", "us", "lower"),
    ("store.read_us_64k", "us", "lower"),
    ("store.sync_us", "us", "lower"),
    ("store.client_write_mb_s_mem", "MB/s", "higher"),
    ("backendfs.call_ns", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
];

struct Cfg {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Parent of the run's private data directory and home of trace files.
    dir: PathBuf,
    out: Option<PathBuf>,
}

/// One run's result: what the last stdout line and the `--out` file say.
struct Report {
    attempted: u64,
    failed: u64,
    /// name → (value, unit, per-trial values behind it).
    metrics: BTreeMap<&'static str, (f64, &'static str, Vec<f64>)>,
}

impl Report {
    fn to_json(&self, with_trials: bool) -> Json {
        let metrics = self.metrics.iter().map(|(name, (value, unit, trials))| {
            let mut fields =
                vec![("value", Json::Num(*value)), ("unit", Json::Str(unit.to_string()))];
            if with_trials {
                fields.push(("trials", Json::nums(trials)));
            }
            (*name, Json::obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Removes the run's data directory on every exit path.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn stamp(dir: &Path) -> Json {
    Json::obj([
        ("git_sha", Json::Str(util::git_sha())),
        ("nproc", Json::Num(util::nproc() as f64)),
        ("kernel", Json::Str(util::kernel())),
        ("data_dir_fs", Json::Str(util::fs_type(dir))),
        ("md_clients", Json::Num(workloads::md_clients() as f64)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            println!("{}", manifest());
            Ok(true)
        }
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        Some("suite") => parse(&args[1..], false).and_then(suite),
        _ => parse(&args, true).and_then(single),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dufs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String], need_workload: bool) -> Result<Cfg, String> {
    let mut cfg = Cfg {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        dir: PathBuf::from("benchmark/out"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.clamp(1, 120),
            "--trace" => cfg.trace = number()? != 0,
            "--dir" => cfg.dir = PathBuf::from(value),
            "--out" => cfg.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if need_workload && !WORKLOADS.iter().any(|(w, _)| *w == cfg.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(cfg)
}

/// One workload in this process: the driver's contract.
fn single(cfg: Cfg) -> Result<bool, String> {
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
    let data = DataDir(cfg.dir.join(format!("data-{}", std::process::id())));
    let stamp = stamp(&cfg.dir);
    eprintln!(
        "{} seed {} {} s trace {}: {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        stamp.encode()
    );
    let report = match cfg.workload.as_str() {
        "md_mixed_cached" => run::<Md<Cached>>(&cfg, &data.0),
        "data_stream" => run::<DataStream>(&cfg, &data.0),
        _ => run::<Md<Session>>(&cfg, &data.0),
    }?;
    drop(data);
    for (name, (value, unit, _)) in &report.metrics {
        println!("{name:<42} {value:>16.4} {unit}");
    }
    if let Some(out) = &cfg.out {
        let doc = Json::obj([
            ("stamp", stamp),
            ("seed", Json::Num(cfg.seed as f64)),
            ("seconds", Json::Num(cfg.seconds as f64)),
            ("workloads", Json::obj([(cfg.workload.as_str(), report.to_json(true))])),
        ]);
        std::fs::write(out, doc.encode() + "\n")
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    println!("{}", report.to_json(false).encode());
    Ok(report.failed == 0)
}

fn run<B: Bench>(cfg: &Cfg, dir: &Path) -> Result<Report, String> {
    if cfg.trace {
        traced::<B>(cfg, dir)
    } else {
        end_to_end::<B>(cfg, dir)
    }
}

fn per_trial(trials: &[Trial], f: impl Fn(&Trial) -> f64) -> (f64, Vec<f64>) {
    let values: Vec<f64> = trials.iter().map(f).collect();
    (util::median(&mut values.clone()), values)
}

fn ops_per_s(t: &Trial) -> f64 {
    t.ops as f64 / (t.wall_ns as f64 / 1e9)
}

/// Shut the ensemble down, reopen it on the same WAL directories and
/// require the same replica state (acked ⟹ durable). Returns the time
/// from reopening to the first read served.
fn restart_check<B: Bench>(
    bench: B,
    before: Option<(u64, usize)>,
    gate: &mut Gate,
) -> Result<f64, String> {
    let wal_dir = bench.teardown();
    let t = Instant::now();
    let ens = Ensemble::start(VOTERS, Some(&wal_dir))?;
    let mut session = ens.session(0)?;
    let served = session.zk().exists("/", dufs_coord::Watch::None).is_ok();
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    gate.check(served, || "first read after the restart failed".into());
    let after = ens.converged().map(|all| (all[0].digest, all[0].node_count));
    gate.check(before.is_some() && after.as_ref().ok() == before.as_ref(), || {
        format!("replica state after restart {after:?}, before {before:?}")
    });
    drop(session);
    ens.shutdown();
    Ok(recovery_ms)
}

fn end_to_end<B: Bench>(cfg: &Cfg, dir: &Path) -> Result<Report, String> {
    // Every set-up is measured, not only timed: thread placement and
    // election outcome differ from one ensemble start to the next and move
    // throughput by more than the trial-to-trial noise, so a run's value is
    // the median over its set-ups of each set-up's median over trials.
    let budget = Duration::from_secs(cfg.seconds) / SETUP_REPEATS as u32;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut groups: Vec<Vec<Trial>> = Vec::new();
    let mut p50s = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let clock = Instant::now();
    for i in 0..SETUP_REPEATS {
        let d = dir.join(format!("setup-{i}"));
        let t = Instant::now();
        let mut bench = B::setup(&d, cfg.seed, &cfg.workload)?;
        setup_s.push(t.elapsed().as_secs_f64());

        let warm_up = bench.trial(0, false);
        let marks = Latencies::mark(&bench.latencies());
        let group_clock = Instant::now();
        let mut trials = Vec::new();
        while trials.len() < MIN_TRIALS || group_clock.elapsed() < budget {
            trials.push(bench.trial((i * 1000 + trials.len() + 1) as u64, false));
        }
        let mut primary = Latencies::since(&bench.latencies(), &marks, bench.primary());
        p50s.push(util::p50_us(&mut primary));

        let mut gate = Gate::default();
        let state = bench.gate(&mut gate);
        if cfg.workload == "md_mutate" && i + 1 == SETUP_REPEATS {
            restart_check(bench, state, &mut gate)?;
        } else {
            bench.teardown();
        }
        let _ = std::fs::remove_dir_all(&d);
        let all = trials.iter().chain([&warm_up]);
        attempted += all.clone().map(|t| t.attempted).sum::<u64>() + gate.attempted;
        failed += all.map(|t| t.failed).sum::<u64>() + gate.failed;
        groups.push(trials);
    }
    let n: usize = groups.iter().map(Vec::len).sum();
    eprintln!(
        "{n} measured trials over {SETUP_REPEATS} set-ups in {:.1} s",
        clock.elapsed().as_secs_f64()
    );

    let over_setups = |f: &dyn Fn(&Trial) -> f64| -> (f64, Vec<f64>) {
        let mut medians: Vec<f64> = groups.iter().map(|g| per_trial(g, f).0).collect();
        let all = groups.iter().flatten().map(f).collect();
        (util::median(&mut medians), all)
    };
    let mut metrics = BTreeMap::new();
    let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    metrics.insert("setup_s", (fastest, "s", setup_s));
    let (v, t) = over_setups(&ops_per_s);
    metrics.insert("ops_per_s", (v, "1/s", t));
    let (_, t) = over_setups(&|t| t.primary_p50_us);
    metrics.insert("op_p50_us", (util::median(&mut p50s), "us", t));
    let (v, t) = over_setups(&|t| t.cpu_ns as f64 / 1e3 / t.ops as f64);
    metrics.insert("cpu_us_per_op", (v, "us", t));
    let rss = util::peak_rss_mb();
    metrics.insert("rss_mb", (rss, "MiB", vec![rss]));
    Ok(Report { attempted, failed, metrics })
}

fn traced<B: Bench>(cfg: &Cfg, dir: &Path) -> Result<Report, String> {
    let mut bench = B::setup(&dir.join("setup"), cfg.seed, &cfg.workload)?;
    let warm_up = bench.trial(0, false);
    let k0 = bench.counters();
    let marks0 = Latencies::mark(&bench.latencies());

    // Alternate untraced and traced trials; the gap is the tracing overhead.
    let budget = Duration::from_secs(cfg.seconds) / 2;
    let clock = Instant::now();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut samples: [Vec<u64>; KINDS] = Default::default();
    while plain.len() < 2 || clock.elapsed() < budget {
        let marks = Latencies::mark(&bench.latencies());
        plain.push(bench.trial(2 * plain.len() as u64 + 1, false));
        for (k, pool) in samples.iter_mut().enumerate() {
            pool.extend(Latencies::since(&bench.latencies(), &marks, &[ALL_KINDS[k]]));
        }
        spanned.push(bench.trial(2 * spanned.len() as u64 + 2, true));
    }
    let k1 = bench.counters();
    let all: Vec<&Trial> = plain.iter().chain(&spanned).collect();
    let ops = all.iter().map(|t| t.ops).sum::<u64>().max(1) as f64;

    let mut m = Metrics::new();
    client_metrics(&mut samples, &plain, &mut m);

    // Counts, read at the same boundaries the spans are cut at.
    let reqs = |k: &workloads::Counters| k.coord_reads + k.coord_barrier_reads + k.coord_writes;
    m.insert("core.coord_reqs_per_op", (reqs(&k1) - reqs(&k0)) as f64 / ops);
    m.insert("core.backend_calls_per_op", (k1.backend_calls - k0.backend_calls) as f64 / ops);
    let (hits, misses) = (k1.cache.hits - k0.cache.hits, k1.cache.misses - k0.cache.misses);
    m.insert("cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    let mutations = Latencies::since(&bench.latencies(), &marks0, MUTATIONS).len().max(1) as f64;
    m.insert(
        "cache.watch_invalidations_per_mutation",
        (k1.cache.watch_invalidations - k0.cache.watch_invalidations) as f64 / mutations,
    );
    m.insert(
        "cache.local_invalidations_per_mutation",
        (k1.cache.local_invalidations - k0.cache.local_invalidations) as f64 / mutations,
    );
    let sent = |k: &workloads::Counters| k.net.frames_sent + k.net_servers.frames_sent;
    let bytes = |k: &workloads::Counters| k.net.bytes_sent + k.net_servers.bytes_sent;
    let wakeups = |k: &workloads::Counters| k.net.wakeups + k.net_servers.wakeups;
    m.insert("net.frames_per_op", (sent(&k1) - sent(&k0)) as f64 / ops);
    m.insert("net.bytes_per_op", (bytes(&k1) - bytes(&k0)) as f64 / ops);
    m.insert("net.wakeups_per_op", (wakeups(&k1) - wakeups(&k0)) as f64 / ops);
    m.insert(
        "net.frames_per_flush",
        (k1.net_servers.frames_flushed - k0.net_servers.frames_flushed) as f64
            / (k1.net_servers.writev_batches - k0.net_servers.writev_batches).max(1) as f64,
    );

    // Spans.
    let recorders = bench.take_recorders();
    let summary = trace::Summary::of(&recorders);
    eprint!("{}", summary.table(&cfg.workload));
    let trace_file = cfg.dir.join(format!("trace-{}.json", cfg.workload));
    trace::dump(&recorders, &trace_file)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    let roots = summary.roots.max(1) as f64;
    m.insert("core.self_us_per_op", summary.layer_self_ns("dufs") as f64 / 1e3 / roots);
    m.insert("cache.hit_us", summary.cache_hit_ns as f64 / 1e3 / summary.cache_hits.max(1) as f64);
    m.insert(
        "cache.miss_overhead_us",
        summary.cache_miss_self_ns as f64 / 1e3 / summary.cache_misses.max(1) as f64,
    );
    let backend = trace::BACKEND_CALL as usize;
    m.insert(
        "backendfs.call_ns",
        summary.total_ns[backend] as f64 / summary.count[backend].max(1) as f64,
    );
    m.insert("trace.coverage_pct", summary.coverage_pct());
    let (plain_rate, _) = per_trial(&plain, ops_per_s);
    let (spanned_rate, _) = per_trial(&spanned, ops_per_s);
    m.insert("trace.overhead_pct", (plain_rate - spanned_rate) * 100.0 / plain_rate);

    // Round trips seen at the session newtype, and requests to replay.
    let mut rtt: [Vec<u64>; 3] = Default::default();
    let mut captured = Vec::new();
    for s in bench.sessions() {
        for &(class, ns) in &s.stats.rtt_ns {
            rtt[class as usize].push(ns);
        }
        captured.append(&mut s.stats.captured);
    }
    m.insert("coord.read_rtt_p50_us", util::p50_us(&mut rtt[ReqClass::Read as usize]));
    m.insert(
        "coord.barrier_read_rtt_p50_us",
        util::p50_us(&mut rtt[ReqClass::BarrierRead as usize]),
    );
    m.insert("coord.write_rtt_p50_us", util::p50_us(&mut rtt[ReqClass::Write as usize]));

    let mut gate = Gate::default();
    let state = bench.gate(&mut gate);
    m.insert("coord.recovery_ms", restart_check(bench, state, &mut gate)?);

    probes::run_all(dir, cfg.seed, &captured, &mut m)?;

    // What the outside view cannot attribute: queueing, thread hand-offs
    // and wake-ups between the pieces the probes time in isolation.
    let echo = m["net.echo_rtt_us_64b"];
    let residual = |rtt: f64, parts: f64| if rtt > 0.0 { rtt - parts } else { 0.0 };
    let write_parts = 2.0 * echo + m["coord.server_apply_write_us"] + m["wal.sync_us"];
    m.insert("coord.write_residual_us", residual(m["coord.write_rtt_p50_us"], write_parts));
    let read_parts = echo + m["coord.server_apply_read_us"];
    m.insert("coord.read_residual_us", residual(m["coord.read_rtt_p50_us"], read_parts));

    let mut metrics = BTreeMap::new();
    for &(name, unit, _) in PER_LAYER {
        let value =
            *m.get(name).ok_or_else(|| format!("per-layer metric {name} was never measured"))?;
        metrics.insert(name, (value, unit, Vec::new()));
    }
    let trials = all.into_iter().chain([&warm_up]);
    Ok(Report {
        attempted: trials.clone().map(|t| t.attempted).sum::<u64>() + gate.attempted,
        failed: trials.map(|t| t.failed).sum::<u64>() + gate.failed,
        metrics,
    })
}

/// Layer `client`: the harness's own view, from the untraced trials.
fn client_metrics(samples: &mut [Vec<u64>; KINDS], plain: &[Trial], m: &mut Metrics) {
    const NAMES: [&str; KINDS] = [
        "client.mkdir_p50_us",
        "client.create_p50_us",
        "client.rename_p50_us",
        "client.unlink_p50_us",
        "client.rmdir_p50_us",
        "client.stat_p50_us",
        "client.open_p50_us",
        "client.readdir_plus_p50_us",
        "client.write_file_p50_us",
        "client.read_file_p50_us",
        "client.delete_file_p50_us",
    ];
    for (k, name) in NAMES.iter().enumerate() {
        m.insert(*name, util::p50_us(&mut samples[k]));
    }
    let pool = |kinds: &[Kind]| {
        let mut v: Vec<u64> =
            kinds.iter().flat_map(|&k| samples[k as usize].iter().copied()).collect();
        v.sort_unstable();
        v
    };
    let mutate = pool(MUTATIONS);
    m.insert("client.mutate_p50_us", util::percentile(&mutate, 50.0) as f64 / 1e3);
    m.insert("client.mutate_p99_us", util::percentile(&mutate, 99.0) as f64 / 1e3);
    let lookup = pool(LOOKUPS);
    m.insert("client.lookup_p50_us", util::percentile(&lookup, 50.0) as f64 / 1e3);
    m.insert("client.lookup_p99_us", util::percentile(&lookup, 99.0) as f64 / 1e3);
    m.insert("client.lookup_mean_us", util::mean_ns(&lookup) / 1e3);
    m.insert("client.samples", samples.iter().map(Vec::len).sum::<usize>() as f64);
    m.insert("client.write_mb_s", per_trial(plain, |t| t.write_mb_s).0);
    m.insert("client.read_mb_s", per_trial(plain, |t| t.read_mb_s).0);
    m.insert("client.disk_bytes_per_user_byte", per_trial(plain, |t| t.disk_bytes_per_user_byte).0);
}

/// Every workload, each in a fresh child process, merged into one file.
fn suite(cfg: Cfg) -> Result<bool, String> {
    let out = cfg.out.clone().ok_or("suite needs --out <file>")?;
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut merged = BTreeMap::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for trace in 0..=(cfg.trace as u8) {
            let part = cfg.dir.join(format!("part-{}-{workload}-{trace}.json", std::process::id()));
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string(), "--trace", &trace.to_string()])
                .arg("--dir")
                .arg(&cfg.dir)
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            ok &= status.success();
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{workload} left no result: {e}"))?;
            let _ = std::fs::remove_file(&part);
            let doc = Json::parse(&text)?;
            if trace == 0 {
                let result = doc.get("workloads").and_then(|w| w.get(workload)).cloned();
                merged.insert(
                    workload.to_string(),
                    result.ok_or("child result has no workload entry")?,
                );
            }
        }
    }
    let doc = Json::obj([
        ("stamp", stamp(&cfg.dir)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds as f64)),
        ("workloads", Json::Obj(merged)),
    ]);
    std::fs::write(&out, doc.encode() + "\n")
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    Ok(ok)
}

/// Per workload × end-to-end metric: both medians, each side's
/// inter-quartile range over its trials, and the verdict against the bound.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    let mut all_pass = true;
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "a iqr%", "b iqr%", "change%", "bound%"
    );
    for (workload, _) in WORKLOADS {
        let side = |doc: &Json, metric: &str| -> Option<(f64, f64)> {
            let m = doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
            let value = m.get("value")?.as_f64()?;
            let trials: Vec<f64> =
                m.get("trials")?.as_arr()?.iter().filter_map(Json::as_f64).collect();
            Some((value, util::iqr(&trials) / value.abs().max(f64::MIN_POSITIVE)))
        };
        for e in END_TO_END {
            let (Some((va, ia)), Some((vb, ib))) = (side(&a, e.name), side(&b, e.name)) else {
                println!("{workload:<16} {:<14} missing from one side", e.name);
                all_pass = false;
                continue;
            };
            // Positive = b is worse than a.
            let worse = if e.better == "lower" { (vb - va) / va } else { (va - vb) / va };
            let verdict = if worse > e.bound {
                all_pass = false;
                "FAIL"
            } else if ia.max(ib) > e.bound {
                "UNRESOLVED"
            } else {
                "PASS"
            };
            println!(
                "{workload:<16} {:<14} {va:>12.3} {vb:>12.3} {:>8.1} {:>8.1} {:>8.1} {:>7.1}  {verdict}",
                e.name,
                ia * 100.0,
                ib * 100.0,
                worse * 100.0,
                e.bound * 100.0
            );
        }
    }
    Ok(all_pass)
}

/// The text of `/BENCHMARK.json`, generated from the tables above so the
/// names the binary prints and the names the driver expects cannot drift.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| {
            format!(
                "    {}",
                Json::obj([
                    ("name", Json::Str(n.to_string())),
                    ("why", Json::Str(why.to_string()))
                ])
                .encode()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                e.name, e.unit, e.better, e.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| format!("    {{\"name\":\"{n}\",\"unit\":\"{u}\",\"better\":\"{b}\"}}"))
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
