//! Micro pairs — two client-library fast paths timed against the loops
//! they replace, over the in-process `SoloCoord` (no network: the columns
//! are library time per call and coordination requests per call, the
//! quantity a deployment multiplies by its round-trip time).
//!
//! * **READDIRPLUS**: `ls -l` of a directory of D subdirectories as
//!   `readdir` + one `stat` per entry (1 + D coordination reads) against
//!   `Dufs::readdir_plus` (one batched read).
//! * **Client metadata cache**: a repeated `stat` of one directory through
//!   `CachingCoord` against the bare session.

use std::hint::black_box;
use std::time::Instant;

use dufs_coord::watch::WatchNotification;
use dufs_coord::{CoordService, ZkRequest, ZkResponse};
use dufs_core::cache::CachingCoord;
use dufs_core::services::{LocalBackends, SoloCoord};
use dufs_core::vfs::Dufs;

use crate::{median_by, Report, Scale, Value};

/// `SoloCoord`, counting the requests that reach it.
struct Counted {
    inner: SoloCoord,
    requests: u64,
}

impl CoordService for Counted {
    fn request(&mut self, req: ZkRequest) -> ZkResponse {
        self.requests += 1;
        self.inner.request(req)
    }

    fn drain_watches(&mut self) -> Vec<WatchNotification> {
        self.inner.drain_watches()
    }
}

fn counted() -> Counted {
    Counted { inner: SoloCoord::new(), requests: 0 }
}

/// Median over `trials` of the mean nanoseconds per call of `op`.
fn ns_per_call(trials: usize, calls: usize, mut op: impl FnMut()) -> f64 {
    let trial = |_| {
        let t0 = Instant::now();
        for _ in 0..calls {
            op();
        }
        t0.elapsed().as_nanos() as f64 / calls as f64
    };
    median_by((0..trials).map(trial).collect(), |&ns| ns)
}

/// Run the experiment.
pub fn run(scale: Scale) -> Report {
    let (trials, calls): (usize, usize) = match scale {
        Scale::Smoke => (3, 20),
        Scale::Quick => (5, 2_000),
        Scale::Full => (7, 20_000),
    };
    let mut report = Report::new("Client-library micro pairs (in-process SoloCoord)", scale);
    report.field("trials", trials);
    report.field("calls_per_trial", calls);

    report.table(
        "readdir_plus",
        vec!["subdirs", "naive_ns", "naive_coord_reqs", "plus_ns", "plus_coord_reqs", "speedup"],
    );
    let mut fewer = true;
    for d in [8usize, 64] {
        let mut fs = Dufs::new(4, counted(), LocalBackends::lustre(2));
        fs.mkdir("/d", 0o755).expect("mkdir");
        for i in 0..d {
            fs.mkdir(&format!("/d/s{i}"), 0o755).expect("mkdir");
        }
        // Requests one listing costs, then its time.
        let mut measure = |plus: bool| {
            let list = |fs: &mut Dufs<Counted, LocalBackends>| {
                if plus {
                    black_box(fs.readdir_plus("/d").expect("readdir_plus"));
                } else {
                    for name in fs.readdir("/d").expect("readdir") {
                        black_box(fs.stat(&format!("/d/{name}")).expect("stat"));
                    }
                }
            };
            let before = fs.coord_mut().requests;
            list(&mut fs);
            let reqs = fs.coord_mut().requests - before;
            (ns_per_call(trials, calls.div_ceil(d), || list(&mut fs)), reqs)
        };
        let (naive_ns, naive_reqs) = measure(false);
        let (plus_ns, plus_reqs) = measure(true);
        fewer &= plus_reqs < naive_reqs;
        report.row(vec![
            d.into(),
            Value::float(naive_ns, 0),
            naive_reqs.into(),
            Value::float(plus_ns, 0),
            plus_reqs.into(),
            Value::unit(naive_ns / plus_ns, 2, "x"),
        ]);
    }
    report.gate(
        "readdir_plus_fewer_requests",
        fewer,
        "readdir_plus issues fewer coordination requests than readdir + stat per entry",
    );

    report.table("metadata_cache", vec!["stat", "ns", "coord_reqs_per_stat", "hit_rate"]);
    let mut bare = Dufs::new(3, counted(), LocalBackends::lustre(2));
    bare.mkdir("/d", 0o755).expect("mkdir");
    let before = bare.coord_mut().requests;
    let ns = ns_per_call(trials, calls, || {
        black_box(bare.stat("/d").expect("stat"));
    });
    let per_stat = (bare.coord_mut().requests - before) as f64 / (trials * calls) as f64;
    report.row(vec![
        "uncached".into(),
        Value::float(ns, 0),
        Value::float(per_stat, 2),
        Value::float(0.0, 3),
    ]);

    let mut cached = Dufs::new(3, CachingCoord::new(counted()), LocalBackends::lustre(2));
    cached.mkdir("/d", 0o755).expect("mkdir");
    let before = cached.coord_mut().inner_mut().requests;
    let ns = ns_per_call(trials, calls, || {
        black_box(cached.stat("/d").expect("stat"));
    });
    let stats = cached.coord_mut().stats();
    let reached = cached.coord_mut().inner_mut().requests - before;
    let per_stat = reached as f64 / (trials * calls) as f64;
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    report.row(vec![
        "cached".into(),
        Value::float(ns, 0),
        Value::float(per_stat, 2),
        Value::float(hit_rate, 3),
    ]);
    report
}
