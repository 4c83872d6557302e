//! Measurement helpers: latency histograms and throughput accumulators.
//!
//! The paper reports aggregate operations/second per phase (mdtest style).
//! [`Throughput`] accumulates completed operations over a virtual-time
//! window; [`LatencyHist`] keeps a log-bucketed latency histogram so the
//! benches can also report p50/p95/p99 — useful for the ablation studies.

use crate::time::{SimDuration, SimTime};

/// Log-bucketed latency histogram: bucket `i` covers latencies in
/// `[2^i, 2^(i+1))` nanoseconds. 64 buckets cover any `u64` latency.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist { buckets: [0; 64], count: 0, sum_ns: 0, min_ns: u64::MAX, max_ns: 0 }
    }

    /// Record one latency observation.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let idx = (64 - ns.max(1).leading_zeros() as usize - 1).min(63);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency; zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Smallest observation; zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest observation.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Approximate quantile (upper bound of the bucket containing it).
    /// `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                return SimDuration::from_nanos(upper.min(self.max_ns));
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Counts completed operations between two virtual-time marks and converts
/// to operations/second — the unit of every figure in the paper.
#[derive(Debug, Clone, Default)]
pub struct Throughput {
    ops: u64,
    start: SimTime,
    end: SimTime,
}

impl Throughput {
    /// Start a measurement window at `start`.
    pub fn begin(start: SimTime) -> Self {
        Throughput { ops: 0, start, end: start }
    }

    /// Record one completed operation at time `at`.
    pub fn record(&mut self, at: SimTime) {
        self.ops += 1;
        if at > self.end {
            self.end = at;
        }
    }

    /// Completed operations so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The window's elapsed virtual time.
    pub fn elapsed(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Operations per second over the window; zero if the window is empty.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_mean_min_max() {
        let mut h = LatencyHist::new();
        for us in [10u64, 20, 30] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), SimDuration::from_micros(20));
        assert_eq!(h.min(), SimDuration::from_micros(10));
        assert_eq!(h.max(), SimDuration::from_micros(30));
    }

    #[test]
    fn hist_quantiles_bracket_data() {
        let mut h = LatencyHist::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.quantile(0.5).as_nanos();
        // True median is 500us; bucket upper bound gives at most 2x.
        assert!((500_000..=1_048_576).contains(&p50), "p50={p50}");
        assert!(h.quantile(1.0).as_nanos() >= 1_000_000);
        assert!(h.quantile(0.0) > SimDuration::ZERO);
    }

    #[test]
    fn hist_merge_adds_counts() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        a.record(SimDuration::from_micros(5));
        b.record(SimDuration::from_micros(500));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimDuration::from_micros(5));
        assert_eq!(a.max(), SimDuration::from_micros(500));
    }

    #[test]
    fn empty_hist_is_safe() {
        let h = LatencyHist::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn throughput_ops_per_sec() {
        let mut t = Throughput::begin(SimTime::from_secs(1));
        for i in 0..1000 {
            t.record(SimTime::from_secs(1) + SimDuration::from_millis(i + 1));
        }
        assert_eq!(t.ops(), 1000);
        assert_eq!(t.elapsed(), SimDuration::from_secs(1));
        assert!((t.ops_per_sec() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_throughput_is_zero() {
        let t = Throughput::begin(SimTime::from_secs(1));
        assert_eq!(t.ops_per_sec(), 0.0);
    }
}
