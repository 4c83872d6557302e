//! In-memory spans cut at the boundaries the harness owns:
//! `dufs.<op>` (root) → `cache.request` → `coord.request`, and
//! `backend.call`. Each client thread records into its own pre-allocated
//! buffer; nothing is written until the run ends. With no recorder
//! installed (every end-to-end run) a span is one thread-local check.

use std::cell::RefCell;
use std::time::Instant;

/// Span names, grouped by the layer (crate) whose time they bound.
pub const NAMES: &[&str] = &[
    "dufs.mkdir",
    "dufs.create",
    "dufs.rename",
    "dufs.unlink",
    "dufs.rmdir",
    "dufs.stat",
    "dufs.open",
    "dufs.readdir_plus",
    "cache.request",
    "coord.request",
    "backend.call",
    "store.write",
    "store.sync",
    "store.read",
    "store.delete",
    "client.write_file",
    "client.read_file",
    "client.delete_file",
];

pub const CACHE_REQUEST: u8 = 8;
pub const COORD_REQUEST: u8 = 9;
pub const BACKEND_CALL: u8 = 10;
pub const STORE_WRITE: u8 = 11;
pub const STORE_SYNC: u8 = 12;
pub const STORE_READ: u8 = 13;
pub const STORE_DELETE: u8 = 14;
pub const WRITE_FILE: u8 = 15;
pub const READ_FILE: u8 = 16;
pub const DELETE_FILE: u8 = 17;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    /// Shared by every span of one POSIX op.
    pub op: u32,
    /// Index of the span that caused this one (`u32::MAX` for a root).
    pub parent: u32,
    pub name: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    next_op: u32,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread; `epoch` is shared by all threads so
/// their spans land on one time axis.
pub fn install(epoch: Instant, capacity: usize) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            next_op: 0,
        })
    });
}

/// Stop recording on this thread and hand back what was recorded.
pub fn take() -> Option<Recorder> {
    REC.with(|r| r.borrow_mut().take())
}

/// Run `f` inside a span named `NAMES[name]`.
pub fn span<R>(name: u8, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        if parent == NO_PARENT {
            rec.next_op += 1;
        }
        let idx = rec.spans.len() as u32;
        rec.open.push(idx);
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span { op: rec.next_op, parent, name, start_ns, end_ns: start_ns });
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder installed for the whole span");
            rec.spans[idx as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.open.pop();
        });
    }
    out
}

/// Per-name totals over one or more threads' spans.
#[derive(Default, Clone)]
pub struct Summary {
    /// Σ self time (duration minus the part child spans cover), by name.
    pub self_ns: Vec<u64>,
    /// Σ duration, by name.
    pub total_ns: Vec<u64>,
    pub count: Vec<u64>,
    /// Σ duration of root spans: the op time the rows must add up to.
    pub root_ns: u64,
    pub roots: u64,
    /// `cache.request` spans with no session span inside: hits.
    pub cache_hit_ns: u64,
    pub cache_hits: u64,
    /// `cache.request` spans that went to the session: their own time.
    pub cache_miss_self_ns: u64,
    pub cache_misses: u64,
}

impl Summary {
    pub fn of(threads: &[Recorder]) -> Summary {
        let n = NAMES.len();
        let mut s = Summary {
            self_ns: vec![0; n],
            total_ns: vec![0; n],
            count: vec![0; n],
            ..Default::default()
        };
        for rec in threads {
            let mut child_ns = vec![0u64; rec.spans.len()];
            for sp in &rec.spans {
                if sp.parent != NO_PARENT {
                    child_ns[sp.parent as usize] += sp.end_ns - sp.start_ns;
                }
            }
            for (sp, covered) in rec.spans.iter().zip(&child_ns) {
                let dur = sp.end_ns - sp.start_ns;
                let name = sp.name as usize;
                s.total_ns[name] += dur;
                s.count[name] += 1;
                // Children run one after another inside their parent, so a
                // correct nesting never covers more than the parent lasted;
                // no clamp, so a broken one shows in coverage_pct.
                s.self_ns[name] = s.self_ns[name].wrapping_add(dur.wrapping_sub(*covered));
                if sp.name == CACHE_REQUEST && *covered == 0 {
                    s.cache_hit_ns += dur;
                    s.cache_hits += 1;
                } else if sp.name == CACHE_REQUEST {
                    s.cache_miss_self_ns += dur.saturating_sub(*covered);
                    s.cache_misses += 1;
                }
                if sp.parent == NO_PARENT {
                    s.root_ns += dur;
                    s.roots += 1;
                }
            }
        }
        s
    }

    /// Σ self times ÷ Σ root op time, in percent (100 when spans nest).
    pub fn coverage_pct(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.self_ns.iter().sum::<u64>() as f64 * 100.0 / self.root_ns as f64
    }

    /// Self time of every span whose name starts with `layer.`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        NAMES
            .iter()
            .zip(&self.self_ns)
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, &ns)| ns)
            .sum()
    }

    /// The per-layer table: one row per layer, rows add up to the op time.
    pub fn table(&self, workload: &str) -> String {
        use std::fmt::Write as _;
        let ops = self.roots.max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {workload}: {} ops, {:.1} us/op",
            self.roots,
            self.root_ns as f64 / ops / 1e3
        );
        let _ = writeln!(out, "  {:<28} {:>12} {:>8}", "layer (span self time)", "us/op", "share");
        let rows = [
            ("client", "client", "client    harness glue"),
            ("core", "dufs", "core      Dufs + plan"),
            ("cache", "cache", "cache     CachingCoord"),
            ("coord", "coord", "coord     session and below"),
            ("backendfs", "backend", "backendfs LocalBackends"),
            ("store", "store", "store     StoreClient and below"),
        ];
        let mut sum = 0.0;
        for (_, prefix, label) in rows {
            let ns = self.layer_self_ns(prefix) as f64;
            sum += ns;
            let _ = writeln!(
                out,
                "  {:<28} {:>12.2} {:>7.1}%",
                label,
                ns / ops / 1e3,
                ns * 100.0 / self.root_ns.max(1) as f64
            );
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>12.2} {:>7.1}%",
            "sum",
            sum / ops / 1e3,
            self.coverage_pct()
        );
        out
    }
}

/// `{"names":[...],"threads":[[[op,parent,name,start_ns,end_ns],...],...]}`,
/// capped so a long run cannot write an unbounded file.
pub fn dump(threads: &[Recorder], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    const MAX_SPANS_PER_THREAD: usize = 200_000;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = NAMES.iter().map(|n| format!("\"{n}\"")).collect();
    write!(w, "{{\"names\":[{}],\"threads\":[", names.join(","))?;
    for (t, rec) in threads.iter().enumerate() {
        if t > 0 {
            write!(w, ",")?;
        }
        write!(w, "[")?;
        for (i, sp) in rec.spans.iter().take(MAX_SPANS_PER_THREAD).enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let parent = if sp.parent == NO_PARENT { -1 } else { sp.parent as i64 };
            write!(w, "[{},{},{},{},{}]", sp.op, parent, sp.name, sp.start_ns, sp.end_ns)?;
        }
        write!(w, "]")?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}
