//! Service-queue helper for modelling server-side processing capacity.
//!
//! A [`ServiceQueue`] models a resource with `c` parallel executors and an
//! unbounded FIFO backlog — e.g. a metadata server's request-processing
//! threads, or the single commit pipeline of a ZooKeeper leader. Processes
//! ask the queue *when* a newly arrived request will complete and schedule
//! their reply for that instant; saturation then emerges naturally: once all
//! executors are busy, completion times stack up and per-request latency
//! grows with load, which is exactly the mechanism behind the knee points in
//! the paper's throughput figures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// FIFO service queue with `c` parallel executors.
#[derive(Debug, Clone)]
pub struct ServiceQueue {
    /// Free-at time per executor slot, kept as a min-heap.
    slots: BinaryHeap<Reverse<SimTime>>,
    /// Completion times of accepted requests (lazily pruned) for load
    /// introspection.
    completions: BinaryHeap<Reverse<SimTime>>,
    accepted: u64,
}

impl ServiceQueue {
    /// A queue with `parallelism` executors (must be ≥ 1).
    pub fn new(parallelism: usize) -> Self {
        assert!(parallelism >= 1, "a service queue needs at least one executor");
        let mut slots = BinaryHeap::with_capacity(parallelism);
        for _ in 0..parallelism {
            slots.push(Reverse(SimTime::ZERO));
        }
        ServiceQueue { slots, completions: BinaryHeap::new(), accepted: 0 }
    }

    /// Accept a request arriving at `now` needing `service` processing time;
    /// returns the virtual time at which it completes.
    pub fn complete_at(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let Reverse(free) = self.slots.pop().expect("slots is never empty");
        let start = free.max(now);
        let done = start + service;
        self.slots.push(Reverse(done));
        self.completions.push(Reverse(done));
        self.accepted += 1;
        done
    }

    /// Number of requests accepted but not yet complete at `now`
    /// (queued + in service). Prunes finished entries.
    pub fn in_flight(&mut self, now: SimTime) -> usize {
        while let Some(&Reverse(t)) = self.completions.peek() {
            if t <= now {
                self.completions.pop();
            } else {
                break;
            }
        }
        self.completions.len()
    }

    /// Total requests ever accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Drop all backlog (used when a simulated server crashes).
    pub fn reset(&mut self) {
        let n = self.slots.len();
        self.slots.clear();
        for _ in 0..n {
            self.slots.push(Reverse(SimTime::ZERO));
        }
        self.completions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    #[test]
    fn single_server_serializes() {
        let mut q = ServiceQueue::new(1);
        let t0 = SimTime::ZERO;
        let s = SimDuration::from_micros(10);
        assert_eq!(q.complete_at(t0, s).as_nanos(), 10 * US);
        assert_eq!(q.complete_at(t0, s).as_nanos(), 20 * US);
        assert_eq!(q.complete_at(t0, s).as_nanos(), 30 * US);
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut q = ServiceQueue::new(1);
        let s = SimDuration::from_micros(10);
        q.complete_at(SimTime::ZERO, s);
        // Arrives long after the first finished: no queueing delay.
        let done = q.complete_at(SimTime::from_micros(100), s);
        assert_eq!(done, SimTime::from_micros(110));
    }

    #[test]
    fn parallel_slots_overlap() {
        let mut q = ServiceQueue::new(2);
        let t0 = SimTime::ZERO;
        let s = SimDuration::from_micros(10);
        assert_eq!(q.complete_at(t0, s).as_nanos(), 10 * US);
        assert_eq!(q.complete_at(t0, s).as_nanos(), 10 * US); // second slot
        assert_eq!(q.complete_at(t0, s).as_nanos(), 20 * US); // queued behind one of them
    }

    #[test]
    fn in_flight_tracks_load() {
        let mut q = ServiceQueue::new(1);
        let s = SimDuration::from_micros(10);
        for _ in 0..5 {
            q.complete_at(SimTime::ZERO, s);
        }
        assert_eq!(q.in_flight(SimTime::ZERO), 5);
        assert_eq!(q.in_flight(SimTime::from_micros(25)), 3);
        assert_eq!(q.in_flight(SimTime::from_micros(50)), 0);
        assert_eq!(q.accepted(), 5);
    }

    #[test]
    fn reset_clears_backlog() {
        let mut q = ServiceQueue::new(2);
        let s = SimDuration::from_micros(100);
        for _ in 0..10 {
            q.complete_at(SimTime::ZERO, s);
        }
        q.reset();
        assert_eq!(q.in_flight(SimTime::ZERO), 0);
        assert_eq!(q.complete_at(SimTime::from_micros(1), s), SimTime::from_micros(101));
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_parallelism_rejected() {
        ServiceQueue::new(0);
    }
}
