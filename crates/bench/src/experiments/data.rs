//! Data-path bandwidth sweep — striped object writes and parallel reads
//! over file-backed storage targets.
//!
//! The DUFS data path places `MD5(fid) mod N` and stripes round-robin, so
//! aggregate bandwidth should scale with the target count. This harness
//! measures:
//!
//!   * **write bandwidth** vs target count *and* fsync policy — the
//!     durability spectrum from `none` (no fsync until close) through
//!     `group` (one fsync per acked batch, the WAL's discipline) to
//!     `per-write` (fsync every append);
//!   * **parallel read bandwidth** vs target count with a fixed pool of
//!     8 reader threads. Each target is a `ModelDisk`: a real
//!     `FileEngine` (real preads, real bytes) whose mutex is held for a
//!     modeled device service time (seek + transfer) per chunk — one
//!     target serializes its readers the way one device does, and more
//!     targets overlap service even on a single-core CI box, which is
//!     the mechanism behind the paper's aggregate-bandwidth scaling.
//!     The 1→4 speedup (the table's `speedup` column) is the headline,
//!     reported. The mechanism is **gated** by an exact count (in
//!     `--smoke` too, which runs only this sweep): all 4 targets are in
//!     service at once at some point of the 4-target pass. (A wall-clock
//!     gate on the speedup itself read 1.5–4.2× on a 2-vCPU machine
//!     running 8 readers.);
//!   * informational rows: the raw page-cache read ceiling (no device
//!     model — memory-bandwidth-bound, target-count-independent) and a
//!     Zipf(1.1) hot-object read mix (striping defuses popularity skew).
//!
//! The same write/read pass over real TCP `StoreServer`s is not here: it
//! is the end-to-end benchmark's `data_stream` workload
//! (`client.write_mb_s` / `client.read_mb_s`).

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dufs_backendfs::StorageEngine;
use dufs_core::Fid;
use dufs_mdtest::data::Zipf;
use dufs_mdtest::ScratchDir;
use dufs_store::{FileEngine, FsyncPolicy, StoreClient};
use parking_lot::Mutex;

use crate::{median_by, Report, Scale, Value};

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
    /// Shared by every target of one set, where one is counted.
    busy: Option<Arc<InService>>,
}

/// How many targets of a set are in service right now, and the most that
/// ever were at once. Each target serves under its own lock, so this counts
/// targets, not readers.
#[derive(Default)]
struct InService {
    now: AtomicUsize,
    peak: AtomicUsize,
}

impl ModelDisk {
    fn service(&self, bytes: usize) {
        let busy = self.busy.as_deref();
        if let Some(busy) = busy {
            let now = busy.now.fetch_add(1, Ordering::SeqCst) + 1;
            busy.peak.fetch_max(now, Ordering::SeqCst);
        }
        std::thread::sleep(SEEK + Duration::from_nanos(bytes as u64 * TRANSFER_NS_PER_BYTE));
        if let Some(busy) = busy {
            busy.now.fetch_sub(1, Ordering::SeqCst);
        }
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

type Targets<E> = Vec<Arc<Mutex<E>>>;

/// `n` fresh file-backed targets under `scratch`, each wrapped by `wrap`.
fn open_targets<E>(
    scratch: &ScratchDir,
    n: usize,
    policy: FsyncPolicy,
    wrap: impl Fn(FileEngine) -> E,
) -> Targets<E> {
    scratch
        .targets(n)
        .iter()
        .map(|d| Arc::new(Mutex::new(wrap(FileEngine::open(d, policy).expect("open target")))))
        .collect()
}

/// One timed write pass: all objects through a fresh set of targets,
/// with the group policy's per-batch fsync issued by the writer (the
/// engine itself only fsyncs inline under `per-write`).
fn write_pass(geo: Geometry, targets: usize, policy: FsyncPolicy) -> f64 {
    let scratch = ScratchDir::new("bench-data");
    let engines = open_targets(&scratch, targets, policy, |e| e);
    let mut client = StoreClient::local(&engines, geo.stripe);
    let payloads: Vec<Vec<u8>> = (0..geo.objects).map(|i| geo.contents(i)).collect();

    let t0 = Instant::now();
    for (i, data) in payloads.iter().enumerate() {
        client.write(geo.fid(i), 0, data).expect("striped write");
        if policy == FsyncPolicy::Group {
            client.sync().expect("group sync");
        }
    }
    mb(geo.objects * geo.object_bytes) / t0.elapsed().as_secs_f64().max(1e-9)
}

/// One timed parallel-read pass: `READERS` threads, each reading the
/// objects `pick(thread)` yields into a reused buffer. No checksum or
/// byte inspection inside the loop — the measurement is purely how far
/// the per-target locks let readers spread.
fn read_pass<E, I>(geo: Geometry, engines: &Targets<E>, pick: impl Fn(usize) -> I + Sync) -> f64
where
    E: StorageEngine + 'static,
    I: Iterator<Item = usize>,
{
    let t0 = Instant::now();
    let total: usize = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|w| {
                let pick = &pick;
                s.spawn(move || {
                    let mut client = StoreClient::local(engines, geo.stripe);
                    let mut buf = vec![0u8; geo.object_bytes];
                    pick(w)
                        .map(|i| {
                            client.read_into(geo.fid(i), 0, &mut buf).expect("striped read");
                            buf.len()
                        })
                        .sum::<usize>()
                })
            })
            .collect();
        readers.into_iter().map(|h| h.join().expect("reader")).sum()
    });
    mb(total) / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Reader `w`'s share of the objects, split round-robin, `read_passes`
/// times over.
fn round_robin(geo: Geometry, w: usize) -> impl Iterator<Item = usize> {
    (0..geo.read_passes).flat_map(move |_| (w..geo.objects).step_by(READERS))
}

/// A populated target set (no fsync pressure) and the median of
/// `REPEATS` read passes over it.
fn read_median<E, I>(
    geo: Geometry,
    targets: usize,
    wrap: impl Fn(FileEngine) -> E,
    pick: impl Fn(usize) -> I + Sync,
) -> f64
where
    E: StorageEngine + 'static,
    I: Iterator<Item = usize>,
{
    let scratch = ScratchDir::new("bench-data");
    let engines = open_targets(&scratch, targets, FsyncPolicy::None, wrap);
    let mut client = StoreClient::local(&engines, geo.stripe);
    for i in 0..geo.objects {
        client.write(geo.fid(i), 0, &geo.contents(i)).expect("populate");
    }
    client.sync().expect("populate sync");
    median_by((0..REPEATS).map(|_| read_pass(geo, &engines, &pick)).collect(), |x| *x)
}

/// Wrap engines as model disks that count their service in `busy`, if
/// given.
fn model_disk(busy: Option<&Arc<InService>>) -> impl Fn(FileEngine) -> ModelDisk + '_ {
    move |inner| ModelDisk { inner, busy: busy.cloned() }
}

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let (objects, object_bytes) = match scale {
        Scale::Smoke => (16, 256 << 10),
        Scale::Quick => (32, 1 << 20),
        Scale::Full => (64, 4 << 20),
    };
    let geo = Geometry { objects, object_bytes, stripe: 64 << 10, read_passes: 3 };
    let target_counts: &[usize] = if scale == Scale::Smoke { &[1, 4] } else { &[1, 2, 4] };

    let mut report = Report::new(
        "Data-path bandwidth sweep: striped objects over file-backed store targets",
        scale,
    );
    report.field("objects", geo.objects);
    report.field("object_bytes", geo.object_bytes);
    report.field("stripe", geo.stripe);
    report.field("reader_threads", READERS);
    report.field(
        "read_device_model",
        "per-target 50us seek + 2ns/byte transfer (500 MB/s), served under the target lock; \
         'reads' and 'read_zipf' only — 'read_pagecache' is raw",
    );
    report.field("aggregation", format!("median of {REPEATS} repeats"));

    if scale != Scale::Smoke {
        report.table("writes", vec!["targets", "fsync", "mb_per_sec"]);
        for (policy, label) in [
            (FsyncPolicy::None, "none"),
            (FsyncPolicy::Group, "group"),
            (FsyncPolicy::PerWrite, "per-write"),
        ] {
            for &t in target_counts {
                let samples = (0..REPEATS).map(|_| write_pass(geo, t, policy)).collect();
                report.row(vec![
                    t.into(),
                    label.into(),
                    Value::float(median_by(samples, |x| *x), 1),
                ]);
            }
        }
    }

    // Parallel read scaling — the headline.
    report.table("reads", vec!["targets", "mb_per_sec", "speedup"]);
    let mut medians = Vec::new();
    let mut peak = 0;
    for &t in target_counts {
        let busy = Arc::new(InService::default());
        medians.push(read_median(geo, t, model_disk(Some(&busy)), |w| round_robin(geo, w)));
        peak = busy.peak.load(Ordering::SeqCst);
        report.row(vec![
            t.into(),
            Value::float(medians[medians.len() - 1], 1),
            Value::unit(medians[medians.len() - 1] / medians[0], 3, "x"),
        ]);
    }
    let (first, last) = (medians[0], medians[medians.len() - 1]);
    let targets = target_counts[target_counts.len() - 1];
    report.field("read_peak_targets_in_service_4_targets", peak);
    report.gate(
        "parallel reads keep all 4 targets in service at once",
        peak == targets,
        format!(
            "peak {peak} of {targets} targets in service ({:.2}x, {first:.1} -> {last:.1} MB/s)",
            last / first
        ),
    );

    if scale != Scale::Smoke {
        // Informational: the raw page-cache ceiling — no device model, so
        // the measurement is memory-bandwidth-bound and target-independent.
        let raw = read_median(geo, 4, |e| e, |w| round_robin(geo, w));
        report.field("read_pagecache_4_targets_mb_per_sec", Value::float(raw, 1));
        // Informational: popularity-skewed reads — every reader draws from
        // the same Zipf, so a handful of hot objects absorb most traffic,
        // and striping spreads even the hottest object's chunks over every
        // target.
        let zipf = read_median(geo, 4, model_disk(None), |w| {
            let mut z = Zipf::new(geo.objects, 1.1, w as u64 + 1);
            (0..geo.objects * geo.read_passes).map(move |_| z.sample())
        });
        report.field("read_zipf_1.1_4_targets_mb_per_sec", Value::float(zipf, 1));
    }
    report
}
