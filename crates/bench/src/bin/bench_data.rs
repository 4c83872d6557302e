//! Data-path bandwidth sweep — striped object writes and parallel reads
//! over file-backed storage targets.
//!
//! The DUFS data path (PR 9) places `MD5(fid) mod N` and stripes
//! round-robin, so aggregate bandwidth should scale with the target
//! count. This harness measures:
//!
//!   * **write bandwidth** vs target count *and* fsync policy — the
//!     durability spectrum from `none` (no fsync until close) through
//!     `group` (one fsync per acked batch, the WAL's discipline) to
//!     `per-write` (fsync every append);
//!   * **parallel read bandwidth** vs target count with a fixed pool of
//!     8 reader threads. Each target is a [`ModelDisk`]: a real
//!     `FileEngine` (real preads, real bytes) whose mutex is held for a
//!     modeled device service time (seek + transfer) per chunk — one
//!     target serializes its readers the way one device does, and more
//!     targets overlap service even on a single-core CI box, which is
//!     the mechanism behind the paper's aggregate-bandwidth scaling.
//!     The 1→4 speedup is the headline and is **hard-asserted ≥ 2x**
//!     (in `--smoke` too — `scripts/ci.sh` runs it);
//!   * informational rows: the raw page-cache read ceiling (no device
//!     model — memory-bandwidth-bound, target-count-independent), a
//!     Zipf(1.1) hot-object read mix (striping defuses popularity skew),
//!     and the same write/read pass over real TCP `StoreServer`s with
//!     group commit.
//!
//! Emits `results/BENCH_data.json`. `--smoke` runs a reduced sweep,
//! still enforcing the read-scaling gate, and writes nothing. `FULL=1`
//! scales object count and size up.

use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dufs_backendfs::StorageEngine;
use dufs_bench::{full_scale, median};
use dufs_core::Fid;
use dufs_mdtest::data::Zipf;
use dufs_store::{FileEngine, FsyncPolicy, StoreClient, StoreServer};
use parking_lot::Mutex;

const READERS: usize = 8;
const REPEATS: usize = 3;

/// Modeled device geometry for the read sweeps: a seek per chunk access
/// plus a 500 MB/s transfer. Service time elapses while the target's
/// mutex is held, so it queues exactly like a single device.
const SEEK: Duration = Duration::from_micros(50);
const TRANSFER_NS_PER_BYTE: u64 = 2; // 500 MB/s

/// A storage target modeled as one disk: a real [`FileEngine`] underneath
/// (real preads, real durability), with device service time spent under
/// the caller-held per-target lock. Only *time* is modeled — every byte
/// still round-trips through the durable engine.
struct ModelDisk {
    inner: FileEngine,
}

impl ModelDisk {
    fn service(&self, bytes: usize) {
        std::thread::sleep(SEEK + Duration::from_nanos(bytes as u64 * TRANSFER_NS_PER_BYTE));
    }
}

impl StorageEngine for ModelDisk {
    fn write(&mut self, obj: u128, stripe: u64, within: u32, data: &[u8]) -> io::Result<()> {
        self.service(data.len());
        self.inner.write(obj, stripe, within, data)
    }

    fn read(&mut self, obj: u128, stripe: u64, within: u32, out: &mut [u8]) -> io::Result<usize> {
        self.service(out.len());
        self.inner.read(obj, stripe, within, out)
    }

    fn truncate(
        &mut self,
        obj: u128,
        keep_stripes: u64,
        trim: Option<(u64, u32)>,
    ) -> io::Result<()> {
        self.inner.truncate(obj, keep_stripes, trim)
    }

    fn delete(&mut self, obj: u128) -> io::Result<bool> {
        self.inner.delete(obj)
    }

    fn last_stripe(&self, obj: u128) -> Option<(u64, u32)> {
        self.inner.last_stripe(obj)
    }

    fn bytes_stored(&self) -> u64 {
        self.inner.bytes_stored()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.service(0);
        self.inner.sync()
    }

    fn objects(&self) -> Vec<u128> {
        self.inner.objects()
    }
}

/// Sweep geometry: `objects` objects of `object_bytes` each, striped at
/// `stripe` across the targets under test.
#[derive(Clone, Copy)]
struct Geometry {
    objects: usize,
    object_bytes: usize,
    stripe: usize,
    read_passes: usize,
}

impl Geometry {
    fn pick(smoke: bool) -> Geometry {
        if smoke {
            Geometry { objects: 16, object_bytes: 256 << 10, stripe: 64 << 10, read_passes: 3 }
        } else if full_scale() {
            Geometry { objects: 64, object_bytes: 4 << 20, stripe: 64 << 10, read_passes: 3 }
        } else {
            Geometry { objects: 32, object_bytes: 1 << 20, stripe: 64 << 10, read_passes: 3 }
        }
    }

    fn fid(&self, i: usize) -> Fid {
        Fid::new(7, i as u64)
    }

    /// Deterministic object contents (same generator family as the
    /// mdtest data workload; cheap, incompressible enough).
    fn contents(&self, i: usize) -> Vec<u8> {
        let fid = self.fid(i);
        let mut state = fid.0 as u64 ^ (fid.0 >> 64) as u64 ^ 0x9E37_79B9_7F4A_7C15;
        (0..self.object_bytes)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn fresh_dirs(tag: &str, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|t| {
            let d = std::env::temp_dir()
                .join(format!("dufs-bench-data-{}-{tag}-{t}", std::process::id()));
            let _ = std::fs::remove_dir_all(&d);
            d
        })
        .collect()
}

fn open_engines(dirs: &[PathBuf], policy: FsyncPolicy) -> Vec<Arc<Mutex<FileEngine>>> {
    dirs.iter()
        .map(|d| Arc::new(Mutex::new(FileEngine::open(d, policy).expect("open target"))))
        .collect()
}

fn open_model_disks(dirs: &[PathBuf]) -> Vec<Arc<Mutex<ModelDisk>>> {
    dirs.iter()
        .map(|d| {
            let inner = FileEngine::open(d, FsyncPolicy::None).expect("open target");
            Arc::new(Mutex::new(ModelDisk { inner }))
        })
        .collect()
}

/// One timed write pass: all objects through a fresh set of targets.
/// `sync_each` models the group policy's per-batch fsync (the engine
/// itself only fsyncs inline under `per-write`).
fn write_pass(geo: Geometry, targets: usize, policy: FsyncPolicy, tag: &str) -> f64 {
    let dirs = fresh_dirs(tag, targets);
    let engines = open_engines(&dirs, policy);
    let mut client = StoreClient::local(&engines, geo.stripe);
    let payloads: Vec<Vec<u8>> = (0..geo.objects).map(|i| geo.contents(i)).collect();

    let t0 = Instant::now();
    for (i, data) in payloads.iter().enumerate() {
        client.write(geo.fid(i), 0, data).expect("striped write");
        if policy == FsyncPolicy::Group {
            client.sync().expect("group sync");
        }
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    mb(geo.objects * geo.object_bytes) / secs
}

/// One timed parallel-read pass: `READERS` threads, objects split
/// round-robin, each thread reads its share `read_passes` times into a
/// reused buffer. No checksum or byte inspection inside the loop — the
/// measurement is purely how far the per-target locks let readers spread.
fn read_pass<E: StorageEngine + 'static>(geo: Geometry, engines: &[Arc<Mutex<E>>]) -> f64 {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..READERS)
        .map(|w| {
            let engines = engines.to_vec();
            std::thread::spawn(move || {
                let mut client = StoreClient::local(&engines, geo.stripe);
                let mut buf = vec![0u8; geo.object_bytes];
                let mut bytes = 0usize;
                for _ in 0..geo.read_passes {
                    let mut i = w;
                    while i < geo.objects {
                        client.read_into(geo.fid(i), 0, &mut buf).expect("striped read");
                        bytes += buf.len();
                        i += READERS;
                    }
                }
                bytes
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().expect("reader")).sum();
    mb(total) / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Zipf-skewed read pass: every thread draws objects from the same
/// popularity distribution, so a handful of hot objects (and therefore
/// the targets holding their stripes) absorb most of the traffic.
fn read_pass_zipf<E: StorageEngine + 'static>(
    geo: Geometry,
    engines: &[Arc<Mutex<E>>],
    theta: f64,
) -> f64 {
    let draws = geo.objects * geo.read_passes;
    let t0 = Instant::now();
    let handles: Vec<_> = (0..READERS)
        .map(|w| {
            let engines = engines.to_vec();
            std::thread::spawn(move || {
                let mut client = StoreClient::local(&engines, geo.stripe);
                let mut buf = vec![0u8; geo.object_bytes];
                let mut z = Zipf::new(geo.objects, theta, w as u64 + 1);
                let mut bytes = 0usize;
                for _ in 0..draws {
                    client.read_into(geo.fid(z.sample()), 0, &mut buf).expect("striped read");
                    bytes += buf.len();
                }
                bytes
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().expect("reader")).sum();
    mb(total) / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Populate a target set once (no fsync pressure) for the read sweeps.
fn populate<E: StorageEngine + 'static>(geo: Geometry, engines: &[Arc<Mutex<E>>]) {
    let mut client = StoreClient::local(engines, geo.stripe);
    for i in 0..geo.objects {
        client.write(geo.fid(i), 0, &geo.contents(i)).expect("populate");
    }
    client.sync().expect("populate sync");
}

/// Write + read over real TCP store servers with group commit — the
/// full frame/demux path, informational (loopback TCP, not a fabric).
fn tcp_pass(geo: Geometry, targets: usize) -> (f64, f64) {
    let dirs = fresh_dirs("tcp", targets);
    let servers: Vec<StoreServer> = dirs
        .iter()
        .enumerate()
        .map(|(t, d)| {
            let engine = FileEngine::open(d, FsyncPolicy::Group).expect("open target");
            StoreServer::spawn(
                "127.0.0.1:0".parse().unwrap(),
                engine,
                FsyncPolicy::Group,
                t as u64 + 1,
            )
            .expect("spawn store server")
        })
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr()).collect();

    let mut client = StoreClient::tcp(&addrs, geo.stripe, 1).expect("store session");
    let payloads: Vec<Vec<u8>> = (0..geo.objects).map(|i| geo.contents(i)).collect();
    let t0 = Instant::now();
    for (i, data) in payloads.iter().enumerate() {
        client.write(geo.fid(i), 0, data).expect("tcp write");
    }
    client.sync().expect("tcp sync");
    let write_mbps = mb(geo.objects * geo.object_bytes) / t0.elapsed().as_secs_f64().max(1e-9);

    let t0 = Instant::now();
    let handles: Vec<_> = (0..READERS)
        .map(|w| {
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let mut c = StoreClient::tcp(&addrs, geo.stripe, 10 + w as u64).expect("session");
                let mut buf = vec![0u8; geo.object_bytes];
                let mut bytes = 0usize;
                let mut i = w;
                while i < geo.objects {
                    c.read_into(geo.fid(i), 0, &mut buf).expect("tcp read");
                    bytes += buf.len();
                    i += READERS;
                }
                bytes
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().expect("reader")).sum();
    let read_mbps = mb(total) / t0.elapsed().as_secs_f64().max(1e-9);

    for s in servers {
        s.stop();
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    (write_mbps, read_mbps)
}

struct Run {
    kind: &'static str,
    targets: usize,
    fsync: &'static str,
    mb_per_sec: f64,
    speedup: Option<f64>,
}

fn write_json(path: &str, geo: Geometry, runs: &[Run], headline: f64) {
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"benchmark\": \"data\",");
    let _ = writeln!(
        j,
        "  \"op\": \"striped object write/read bandwidth over file-backed store targets\","
    );
    let _ = writeln!(j, "  \"objects\": {},", geo.objects);
    let _ = writeln!(j, "  \"object_bytes\": {},", geo.object_bytes);
    let _ = writeln!(j, "  \"stripe\": {},", geo.stripe);
    let _ = writeln!(j, "  \"reader_threads\": {READERS},");
    let _ = writeln!(
        j,
        "  \"read_device_model\": \"per-target 50us seek + 2ns/byte transfer (500 MB/s), \
         served under the target lock; 'read'/'read_zipf' rows only — 'read_pagecache' is raw\","
    );
    let _ = writeln!(j, "  \"aggregation\": \"median of {REPEATS} repeats\",");
    j.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"kind\": \"{}\", \"targets\": {}, \"fsync\": \"{}\", \
             \"mb_per_sec\": {:.1}",
            r.kind, r.targets, r.fsync, r.mb_per_sec
        );
        if let Some(s) = r.speedup {
            let _ = write!(j, ", \"speedup\": {s:.3}");
        }
        j.push('}');
        j.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ],\n");
    let _ = writeln!(
        j,
        "  \"headline\": {{\"read_speedup_1_to_4_targets\": {headline:.3}, \
         \"target\": 2.0, \"gate\": \"read bandwidth must scale >= 2x from 1 to 4 targets\"}}"
    );
    j.push_str("}\n");
    if let Err(e) = std::fs::write(path, &j) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

/// The read-scaling sweep and its hard gate; shared by the full run and
/// `--smoke`. Returns (per-target-count medians, 1→4 speedup).
fn read_sweep(geo: Geometry, target_counts: &[usize]) -> (Vec<f64>, f64) {
    let mut medians = Vec::new();
    for &t in target_counts {
        let dirs = fresh_dirs(&format!("read{t}"), t);
        let engines = open_model_disks(&dirs);
        populate(geo, &engines);
        let samples: Vec<f64> = (0..REPEATS).map(|_| read_pass(geo, &engines)).collect();
        drop(engines);
        for d in &dirs {
            let _ = std::fs::remove_dir_all(d);
        }
        let med = median(samples);
        println!(
            "  read  {t} target{} x {READERS} threads: {med:8.1} MB/s",
            if t == 1 { " " } else { "s" }
        );
        medians.push(med);
    }
    let speedup = medians[medians.len() - 1] / medians[0];
    assert!(
        speedup >= 2.0,
        "parallel reads must scale >= 2x from 1 to {} targets, got {speedup:.2}x \
         ({:.1} -> {:.1} MB/s)",
        target_counts[target_counts.len() - 1],
        medians[0],
        medians[medians.len() - 1]
    );
    (medians, speedup)
}

fn smoke() {
    let geo = Geometry::pick(true);
    println!("bench_data smoke: read scaling gate over file-backed targets");
    let (_, speedup) = read_sweep(geo, &[1, 4]);
    println!("smoke ok: 1->4 target read speedup {speedup:.2}x (gate 2.0x)");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let geo = Geometry::pick(false);
    let target_counts = [1usize, 2, 4];
    println!(
        "Data-path bandwidth sweep: {} objects x {} KiB, {} KiB stripes, {} scale\n",
        geo.objects,
        geo.object_bytes >> 10,
        geo.stripe >> 10,
        if full_scale() { "FULL" } else { "quick" }
    );

    let mut runs: Vec<Run> = Vec::new();

    // Write bandwidth: target count x fsync policy.
    println!("write bandwidth (one writer):");
    for &(policy, label) in &[
        (FsyncPolicy::None, "none"),
        (FsyncPolicy::Group, "group"),
        (FsyncPolicy::PerWrite, "per-write"),
    ] {
        for &t in &target_counts {
            let samples: Vec<f64> = (0..REPEATS)
                .map(|r| write_pass(geo, t, policy, &format!("w-{label}-{t}-{r}")))
                .collect();
            let med = median(samples);
            println!(
                "  write {t} target{} fsync={label:<9}: {med:8.1} MB/s",
                if t == 1 { " " } else { "s" }
            );
            runs.push(Run {
                kind: "write",
                targets: t,
                fsync: label,
                mb_per_sec: med,
                speedup: None,
            });
        }
    }

    // Parallel read scaling — the headline, hard-gated at 2x.
    println!("\nparallel read bandwidth ({READERS} reader threads):");
    let (read_medians, headline) = read_sweep(geo, &target_counts);
    for (i, &t) in target_counts.iter().enumerate() {
        runs.push(Run {
            kind: "read",
            targets: t,
            fsync: "none",
            mb_per_sec: read_medians[i],
            speedup: Some(read_medians[i] / read_medians[0]),
        });
    }

    // Informational: the raw page-cache ceiling — no device model, so
    // the measurement is memory-bandwidth-bound and target-independent.
    let dirs = fresh_dirs("raw", 4);
    let engines = open_engines(&dirs, FsyncPolicy::None);
    populate(geo, &engines);
    let raw_med = median((0..REPEATS).map(|_| read_pass(geo, &engines)).collect());
    drop(engines);
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    println!("\n  read  4 targets, raw page cache  : {raw_med:8.1} MB/s (no device model)");
    runs.push(Run {
        kind: "read_pagecache",
        targets: 4,
        fsync: "none",
        mb_per_sec: raw_med,
        speedup: None,
    });

    // Informational: popularity-skewed reads — striping spreads even the
    // hottest object's chunks over every target.
    let dirs = fresh_dirs("zipf", 4);
    let engines = open_model_disks(&dirs);
    populate(geo, &engines);
    let zipf_med = median((0..REPEATS).map(|_| read_pass_zipf(geo, &engines, 1.1)).collect());
    drop(engines);
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    println!("  read  4 targets, zipf(1.1) hot mix: {zipf_med:8.1} MB/s");
    runs.push(Run {
        kind: "read_zipf",
        targets: 4,
        fsync: "none",
        mb_per_sec: zipf_med,
        speedup: None,
    });

    // Informational: the same pass over real TCP store servers.
    let (tcp_w, tcp_r) = tcp_pass(geo, 4);
    println!("  tcp   4 store servers (group): write {tcp_w:.1} MB/s, read {tcp_r:.1} MB/s");
    runs.push(Run {
        kind: "write_tcp",
        targets: 4,
        fsync: "group",
        mb_per_sec: tcp_w,
        speedup: None,
    });
    runs.push(Run {
        kind: "read_tcp",
        targets: 4,
        fsync: "group",
        mb_per_sec: tcp_r,
        speedup: None,
    });

    println!(
        "\nheadline: parallel read bandwidth scales {headline:.2}x from 1 to 4 targets (gate 2.0x)"
    );
    let _ = std::fs::create_dir_all("results");
    write_json("results/BENCH_data.json", geo, &runs, headline);
}
