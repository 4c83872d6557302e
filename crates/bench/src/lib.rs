#![warn(missing_docs)]

//! Shared helpers for the figure-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the experiment index) and prints the paper's
//! reported values next to the measured ones where the paper states them.
//!
//! Runs are **quick** by default (small client counts, few items) so the
//! whole suite completes in minutes; set `FULL=1` for paper-scale sweeps
//! (8–256 client processes, more items per process).

/// Whether to run at paper scale (`FULL=1`) or quick scale.
pub fn full_scale() -> bool {
    std::env::var("FULL").map(|v| v == "1").unwrap_or(false)
}

/// Client-process counts for the x-axes, by scale.
pub fn process_counts() -> Vec<usize> {
    if full_scale() {
        vec![16, 64, 128, 256]
    } else {
        vec![16, 64]
    }
}

/// Items (operations) per process per phase, by scale.
pub fn items_per_proc() -> usize {
    if full_scale() {
        80
    } else {
        30
    }
}

/// Simple fixed-width table printer for the binaries' stdout reports.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The median of `samples` (the upper one of an even count). Panics on an
/// empty set.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Format ops/sec compactly.
pub fn fmt_ops(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.1}k", v / 1000.0)
    } else {
        format!("{v:.0}")
    }
}

/// Reference values stated in the paper's text (§Abstract, §V-D), used by
/// `table_headline` and the figure summaries.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a", "col"]);
        t.row(vec!["1", "22"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("a"));
        assert!(lines[2].ends_with("22"));
    }

    #[test]
    fn ops_formatting() {
        assert_eq!(fmt_ops(950.0), "950");
        assert_eq!(fmt_ops(42_300.0), "42.3k");
    }
}
