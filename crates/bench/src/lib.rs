#![warn(missing_docs)]

//! The harness behind `dufs-bench`: every figure, table and ablation of
//! the reproduction is one module under [`experiments`] exposing
//! `run(Scale) -> Report`, registered in [`experiments::EXPERIMENTS`].
//!
//! `main.rs` is the only reader of the command line and of `FULL`; it
//! parses them once into a [`Scale`], prints each [`Report`] as aligned
//! text and writes the same report to the experiment's `results/` files
//! (text for `.txt`, JSON for `.json`) unless a required gate failed.
//!
//! Runs are **quick** by default (small client counts, few items) so the
//! whole suite completes in minutes; `FULL=1` selects the paper-scale
//! sweeps (16–256 client processes, more items per process) and `--smoke`
//! the reduced runs `scripts/ci.sh` gates on.

use std::fmt::Write as _;

use dufs_mdtest::scenario::{run_mdtest, MdtestConfig, MdtestSystem, PhaseResult};
use dufs_mdtest::workload::{Phase, WorkloadSpec};

pub mod experiments;

/// How big a run is. Parsed once by `main.rs`: `--smoke` → `Smoke`,
/// otherwise `FULL=1` → `Full`, otherwise `Quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI gate: the smallest run that still exercises every gate. Only
    /// experiments registered with a smoke gate accept it; nothing is
    /// written to `results/`.
    Smoke,
    /// Default: minutes for the whole suite.
    Quick,
    /// Paper scale.
    Full,
}

impl Scale {
    /// `full` at paper scale, `quick` otherwise.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        if self == Scale::Full {
            full
        } else {
            quick
        }
    }

    /// Client-process counts for the x-axes.
    pub fn process_counts(self) -> Vec<usize> {
        self.pick(vec![16, 64], vec![16, 64, 128, 256])
    }

    /// Items (operations) per process per phase.
    pub fn items_per_proc(self) -> usize {
        self.pick(30, 80)
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "FULL",
        })
    }
}

/// Format ops/sec compactly.
pub fn fmt_ops(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.1}k", v / 1000.0)
    } else {
        format!("{v:.0}")
    }
}

/// The median element of `samples` ordered by `key` (the upper one of an
/// even count), returned whole so a cell keeps the counters of the trial
/// its throughput came from. Panics on an empty set.
pub fn median_by<T>(mut samples: Vec<T>, key: impl Fn(&T) -> f64) -> T {
    samples.sort_by(|a, b| key(a).total_cmp(&key(b)));
    samples.swap_remove(samples.len() / 2)
}

/// One scalar of a report: what the aligned text shows and what the JSON
/// file records, fixed together where the number is produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    text: String,
    json: String,
}

impl Value {
    /// A float with `decimals` digits in both renderings, followed by
    /// `unit` in the text one (`1.93x`, `9.0ms`). JSON has no NaN or
    /// infinity: a non-finite value is recorded as `null`.
    pub fn unit(v: f64, decimals: usize, unit: &str) -> Value {
        let number = format!("{v:.decimals$}");
        Value {
            text: format!("{number}{unit}"),
            json: if v.is_finite() { number } else { "null".into() },
        }
    }

    /// A bare float with `decimals` digits.
    pub fn float(v: f64, decimals: usize) -> Value {
        Value::unit(v, decimals, "")
    }

    /// A throughput: [`fmt_ops`] in text, one decimal in JSON.
    pub fn ops(v: f64) -> Value {
        Value { text: fmt_ops(v), ..Value::float(v, 1) }
    }
}

macro_rules! value_from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value { text: v.to_string(), json: v.to_string() }
            }
        }
    )*};
}
value_from_display!(usize, u64, bool);

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value { json: json_string(&s), text: s }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        s.to_string().into()
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

enum Item {
    Field(String, Value),
    Note(String),
    Table { name: String, headers: Vec<String>, rows: Vec<Vec<Value>> },
    Gate { name: String, required: bool, pass: bool, detail: String },
}

/// What one experiment measured: scalar fields, named row tables, free
/// text and gates, in the order the experiment produced them. The same
/// report renders as aligned text (stdout and `.txt` files) and as JSON.
///
/// An experiment that owns more than one results file calls
/// [`Report::next_file`] between them; stdout shows everything.
pub struct Report {
    title: String,
    scale: Scale,
    file: usize,
    items: Vec<(usize, Item)>,
}

impl Report {
    /// An empty report; `title` and `scale` head every rendering.
    pub fn new(title: impl Into<String>, scale: Scale) -> Report {
        Report { title: title.into(), scale, file: 0, items: Vec::new() }
    }

    fn push(&mut self, item: Item) {
        self.items.push((self.file, item));
    }

    /// Record a scalar under `key`.
    pub fn field(&mut self, key: &str, value: impl Into<Value>) {
        self.push(Item::Field(key.into(), value.into()));
    }

    /// A line (or paragraph) of commentary: text renderings only.
    pub fn note(&mut self, text: impl Into<String>) {
        self.push(Item::Note(text.into()));
    }

    /// Start a row table; `name` is its caption in text and its key in
    /// JSON, `headers` its column titles and row keys. Fill it with
    /// [`Report::row`].
    pub fn table<S: Into<String>>(&mut self, name: impl Into<String>, headers: Vec<S>) {
        self.push(Item::Table {
            name: name.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        });
    }

    /// Append a row to the table started last (must match its width).
    pub fn row(&mut self, cells: Vec<Value>) {
        match self.items.last_mut() {
            Some((_, Item::Table { headers, rows, .. })) => {
                assert_eq!(cells.len(), headers.len(), "row width mismatch");
                rows.push(cells);
            }
            _ => panic!("Report::row without a table to add it to"),
        }
    }

    /// A condition the run must meet: a failed gate makes `dufs-bench`
    /// exit non-zero and write no results file.
    pub fn gate(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.push(Item::Gate { name: name.into(), required: true, pass, detail: detail.into() });
    }

    /// A shape the paper reports, compared and printed but not enforced.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.push(Item::Gate { name: name.into(), required: false, pass, detail: detail.into() });
    }

    /// Everything recorded from here on belongs to the experiment's next
    /// results file.
    pub fn next_file(&mut self) {
        self.file += 1;
    }

    /// Names of the required gates that failed.
    pub fn failed_gates(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter_map(|(_, item)| match item {
                Item::Gate { name, required: true, pass: false, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    fn items_of(&self, file: Option<usize>) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(move |(f, _)| file.is_none_or(|want| want == *f)).map(|(_, i)| i)
    }

    /// Aligned text: the whole report, or the part belonging to results
    /// file number `file`.
    pub fn text(&self, file: Option<usize>) -> String {
        let mut out = format!("{}, {} scale\n", self.title, self.scale);
        for item in self.items_of(file) {
            match item {
                Item::Field(key, value) => {
                    let _ = writeln!(out, "{key}: {}", value.text);
                }
                Item::Note(text) => {
                    let _ = writeln!(out, "{text}");
                }
                Item::Table { name, headers, rows } => {
                    out.push('\n');
                    if !name.is_empty() {
                        let _ = writeln!(out, "{name}");
                    }
                    render_table(&mut out, headers, rows);
                }
                Item::Gate { name, required, pass, detail } => {
                    let (kind, verdict) = match (required, pass) {
                        (true, true) => ("gate", "OK"),
                        (true, false) => ("gate", "FAILED"),
                        (false, true) => ("shape check", "OK"),
                        (false, false) => ("shape check", "MISMATCH"),
                    };
                    let _ = writeln!(out, "{kind}: {name}: {detail} => {verdict}");
                }
            }
        }
        out
    }

    /// The part of the report belonging to results file number `file`, as
    /// a JSON object: `title`, `scale`, then fields and tables under their
    /// own names in recording order, then `gates`.
    pub fn json(&self, file: usize) -> String {
        let mut members = vec![
            format!("\"title\": {}", json_string(&self.title)),
            format!("\"scale\": {}", json_string(&self.scale.to_string())),
        ];
        let mut gates = Vec::new();
        for item in self.items_of(Some(file)) {
            match item {
                Item::Field(key, value) => {
                    members.push(format!("{}: {}", json_string(key), value.json));
                }
                Item::Note(_) => {}
                Item::Table { name, headers, rows } => {
                    let rows: Vec<String> = rows
                        .iter()
                        .map(|row| {
                            let cells: Vec<String> = headers
                                .iter()
                                .zip(row)
                                .map(|(h, v)| format!("{}: {}", json_string(h), v.json))
                                .collect();
                            format!("    {{{}}}", cells.join(", "))
                        })
                        .collect();
                    members.push(format!("{}: [\n{}\n  ]", json_string(name), rows.join(",\n")));
                }
                Item::Gate { name, required, pass, detail } => gates.push(format!(
                    "    {{\"name\": {}, \"required\": {required}, \"pass\": {pass}, \
                     \"detail\": {}}}",
                    json_string(name),
                    json_string(detail)
                )),
            }
        }
        members.push(format!("\"gates\": [\n{}\n  ]", gates.join(",\n")));
        format!("{{\n  {}\n}}\n", members.join(",\n  "))
    }
}

/// Right-aligned columns under a dashed header rule.
fn render_table(out: &mut String, headers: &[String], rows: &[Vec<Value>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.text.chars().count());
        }
    }
    let align = |cells: Vec<&str>| {
        let cells: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>width$}", width = *w)).collect();
        cells.join("  ")
    };
    let head = align(headers.iter().map(String::as_str).collect());
    let _ = writeln!(out, "{head}\n{}", "-".repeat(head.chars().count()));
    for row in rows {
        let _ = writeln!(out, "{}", align(row.iter().map(|v| v.text.as_str()).collect()));
    }
}

/// The simulated mdtest run over systems × client-process counts that
/// Figs 8–10 and the headline table are views of.
pub struct Matrix {
    systems: Vec<(&'static str, MdtestSystem)>,
    procs: Vec<usize>,
    /// `results[system][process count]` = that run's per-phase results.
    results: Vec<Vec<Vec<PhaseResult>>>,
}

impl Matrix {
    /// Run the paper's mdtest workload ([`WorkloadSpec::mdtest`]) on every
    /// system at every process count, all from `seed`.
    pub fn run(
        systems: Vec<(&'static str, MdtestSystem)>,
        procs: Vec<usize>,
        items: usize,
        seed: u64,
    ) -> Matrix {
        let results = systems
            .iter()
            .map(|(_, system)| {
                procs
                    .iter()
                    .map(|&p| {
                        run_mdtest(&MdtestConfig::new(
                            *system,
                            WorkloadSpec::mdtest(p, items),
                            seed,
                        ))
                    })
                    .collect()
            })
            .collect();
        Matrix { systems, procs, results }
    }

    /// One table per phase — `(a) Directory creation`, … — with a row per
    /// process count and a column per system.
    pub fn tables(&self, report: &mut Report, phases: &[Phase]) {
        for (tag, &phase) in ('a'..).zip(phases) {
            let headers = std::iter::once("procs").chain(self.systems.iter().map(|(n, _)| *n));
            report.table(format!("({tag}) {}", phase.label()), headers.collect());
            for (pi, &p) in self.procs.iter().enumerate() {
                let cells = (0..self.systems.len()).map(|s| Value::ops(self.ops(s, pi, phase)));
                report.row(std::iter::once(p.into()).chain(cells).collect());
            }
        }
    }

    fn ops(&self, system: usize, proc_idx: usize, phase: Phase) -> f64 {
        let run = &self.results[system][proc_idx];
        run.iter().find(|r| r.phase == phase).expect("phase present").ops_per_sec
    }

    /// Throughput of `system` (by index) in `phase` at the largest process
    /// count, where the paper states its comparisons.
    pub fn at_max(&self, system: usize, phase: Phase) -> f64 {
        self.ops(system, self.procs.len() - 1, phase)
    }
}

/// Reference values stated in the paper's text (§Abstract, §V-D), used by
/// the headline table and the figure summaries.
pub mod paper {
    /// "our decentralized metadata service outperforms Lustre … by a factor
    /// of 1.9 … to create directories" (256 processes).
    pub const DIR_CREATE_VS_LUSTRE: f64 = 1.9;
    /// "… and PVFS2 by a factor of … 23 …".
    pub const DIR_CREATE_VS_PVFS: f64 = 23.0;
    /// "With respect to stat() operation on files, our approach is 1.3 …
    /// times faster than Lustre".
    pub const FILE_STAT_VS_LUSTRE: f64 = 1.3;
    /// "… and 3.0 times faster than … PVFS".
    pub const FILE_STAT_VS_PVFS: f64 = 3.0;
    /// Fig 11: "storing one million files or directory requires about
    /// 417 MB in memory".
    pub const ZK_MB_PER_MILLION: f64 = 417.0;
}
