//! Pipelined (asynchronous) coordination sessions.
//!
//! The paper's clients use the synchronous ZooKeeper API (§IV-D): one
//! request in flight per session, each op paying a full round trip. The
//! ZooKeeper C client also offers `zoo_acreate` & friends — submit now,
//! complete later — which lets one session keep K operations outstanding
//! while preserving **per-session FIFO**: ZooKeeper processes a session's
//! requests in submission order and completes them in the same order.
//!
//! [`AsyncCoordService`] is that capability as a trait, implemented by the
//! live client ([`dufs_coord::ZkClient`], any transport) and the in-process
//! [`SoloCoord`]. [`Pipeline`] is the
//! depth-bounded driver on top: `submit` blocks only when the window is
//! full, and completions surface strictly in submission order (a violation
//! panics — FIFO is a protocol guarantee, not a best effort). Depth 1
//! degenerates to the paper's synchronous closed loop.

use std::collections::VecDeque;

use dufs_coord::{ClientTransport, ZkClient, ZkRequest, ZkResponse};
use dufs_zkstore::ZkError;

use crate::services::{CoordService, SoloCoord};

/// A coordination service that supports asynchronous submission with
/// per-session FIFO completion (the `zoo_a*` API surface).
pub trait AsyncCoordService: CoordService {
    /// Submit a request without waiting. Returns a session-unique,
    /// monotonically increasing request id.
    fn submit(&mut self, req: ZkRequest) -> u64;

    /// Await the next completion, in submission order. `None` means the
    /// connection is lost (timeout or dead server).
    fn next_completion(&mut self) -> Option<(u64, ZkResponse)>;
}

impl<T: ClientTransport> AsyncCoordService for ZkClient<T> {
    fn submit(&mut self, req: ZkRequest) -> u64 {
        ZkClient::submit(self, req)
    }

    fn next_completion(&mut self) -> Option<(u64, ZkResponse)> {
        ZkClient::next_completion(self)
    }
}

impl AsyncCoordService for SoloCoord {
    fn submit(&mut self, req: ZkRequest) -> u64 {
        SoloCoord::submit(self, req)
    }

    fn next_completion(&mut self) -> Option<(u64, ZkResponse)> {
        SoloCoord::next_completion(self)
    }
}

/// A depth-K pipelined session driver.
///
/// Keeps up to `depth` requests outstanding. `submit` returns the response
/// of the *oldest* outstanding request once the window is full, so
/// responses surface to the caller in exactly submission order; `drain`
/// collects the tail. With `depth == 1` every submit waits for its
/// predecessor first — event-for-event the synchronous client loop.
pub struct Pipeline<'a, C: AsyncCoordService + ?Sized> {
    coord: &'a mut C,
    depth: usize,
    outstanding: VecDeque<u64>,
}

impl<'a, C: AsyncCoordService + ?Sized> Pipeline<'a, C> {
    /// Wrap `coord` with a window of `depth` outstanding requests.
    ///
    /// # Panics
    /// Panics if `depth` is zero.
    pub fn new(coord: &'a mut C, depth: usize) -> Self {
        assert!(depth >= 1, "a session needs at least one outstanding slot");
        Pipeline { coord, depth, outstanding: VecDeque::new() }
    }

    /// Number of requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Submit a request. If the window is full, first awaits (and returns)
    /// the oldest outstanding response; otherwise returns `None` and the
    /// response surfaces from a later `submit`/`drain`.
    pub fn submit(&mut self, req: ZkRequest) -> Option<ZkResponse> {
        let freed =
            if self.outstanding.len() >= self.depth { Some(self.await_oldest()) } else { None };
        let id = self.coord.submit(req);
        self.outstanding.push_back(id);
        freed
    }

    /// Await every outstanding response, in submission order.
    pub fn drain(&mut self) -> Vec<ZkResponse> {
        let mut out = Vec::with_capacity(self.outstanding.len());
        while !self.outstanding.is_empty() {
            out.push(self.await_oldest());
        }
        out
    }

    fn await_oldest(&mut self) -> ZkResponse {
        let head = self.outstanding.pop_front().expect("caller checked non-empty");
        match self.coord.next_completion() {
            Some((id, resp)) => {
                // FIFO is a session guarantee: the next completion IS the
                // oldest submission. Anything else is a protocol bug.
                assert_eq!(id, head, "session FIFO violated: got {id}, expected {head}");
                resp
            }
            None => ZkResponse::Error(ZkError::ConnectionLoss),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dufs_zkstore::CreateMode;

    fn create_req(path: &str) -> ZkRequest {
        ZkRequest::Create {
            path: path.into(),
            data: Bytes::from_static(b""),
            mode: CreateMode::Persistent,
        }
    }

    #[test]
    fn depth_one_is_the_synchronous_loop() {
        let mut c = SoloCoord::new();
        let mut p = Pipeline::new(&mut c, 1);
        assert!(p.submit(create_req("/a")).is_none(), "window has a free slot");
        // The second submit must first retire the first.
        let r = p.submit(create_req("/b")).expect("oldest completed");
        assert_eq!(r, ZkResponse::Created { path: "/a".into() });
        assert_eq!(p.in_flight(), 1);
        assert_eq!(p.drain(), vec![ZkResponse::Created { path: "/b".into() }]);
    }

    #[test]
    fn deep_pipeline_completes_in_submission_order() {
        let mut c = SoloCoord::new();
        let mut p = Pipeline::new(&mut c, 4);
        let mut surfaced = Vec::new();
        for i in 0..10 {
            if let Some(r) = p.submit(create_req(&format!("/n{i}"))) {
                surfaced.push(r);
            }
        }
        surfaced.extend(p.drain());
        let expect: Vec<ZkResponse> =
            (0..10).map(|i| ZkResponse::Created { path: format!("/n{i}") }).collect();
        assert_eq!(surfaced, expect, "responses in exact submission order");
    }

    #[test]
    fn errors_flow_through_in_order() {
        let mut c = SoloCoord::new();
        let mut p = Pipeline::new(&mut c, 8);
        p.submit(create_req("/x"));
        p.submit(create_req("/x")); // duplicate → NodeExists
        p.submit(create_req("/y"));
        let rs = p.drain();
        assert_eq!(rs[0], ZkResponse::Created { path: "/x".into() });
        assert_eq!(rs[1], ZkResponse::Error(ZkError::NodeExists));
        assert_eq!(rs[2], ZkResponse::Created { path: "/y".into() });
    }

    #[test]
    #[should_panic(expected = "at least one outstanding slot")]
    fn zero_depth_rejected() {
        let mut c = SoloCoord::new();
        let _ = Pipeline::new(&mut c, 0);
    }
}
