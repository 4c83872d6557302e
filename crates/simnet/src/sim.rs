//! The discrete-event simulation kernel.

use std::any::Any;
use std::collections::{BinaryHeap, HashMap};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{Event, EventPayload, NodeId, TimerToken};
use crate::latency::LatencyModel;
use crate::time::{SimDuration, SimTime};

/// A simulated process (node). Implementations are plain state machines;
/// all interaction with the outside world goes through the [`Ctx`] handle.
///
/// `M` is the message type of the whole simulation — typically an enum
/// defined by the experiment harness that wraps the wire messages of every
/// subsystem (coordination service, back-end filesystem, clients).
pub trait Process<M: 'static>: Any {
    /// Called once when the simulation starts (or when this node is added to
    /// an already-running simulation).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}
    /// A message from `from` has been delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);
    /// A timer set via [`Ctx::set_timer`] has fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _token: TimerToken) {}
    /// The node has crashed: volatile state should be dropped. Durable state
    /// (a ZAB log, for instance) survives for [`Process::on_restart`].
    fn on_crash(&mut self) {}
    /// The node restarts after a crash.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, M>) {}
}

/// The kernel state shared between the scheduler and the per-node [`Ctx`].
struct Kernel<M> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Event<M>>,
    rng: StdRng,
    latency: Box<dyn LatencyModel>,
    /// Last scheduled delivery time per directed link; enforces per-link
    /// FIFO delivery (the TCP assumption ZAB relies on).
    link_clock: HashMap<(NodeId, NodeId), SimTime>,
    sizer: fn(&M) -> usize,
    events_processed: u64,
}

impl<M: 'static> Kernel<M> {
    fn push(&mut self, time: SimTime, target: NodeId, payload: EventPayload<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Event { time, seq, target, payload });
    }

    fn send_from(&mut self, src: NodeId, dst: NodeId, msg: M, extra: SimDuration) {
        let size = (self.sizer)(&msg);
        let lat = self.latency.sample(&mut self.rng, src, dst, size);
        let mut at = self.now + lat + extra;
        let clock = self.link_clock.entry((src, dst)).or_insert(SimTime::ZERO);
        if at < *clock {
            at = *clock; // FIFO: never deliver before an earlier send on this link
        }
        *clock = at;
        self.push(at, dst, EventPayload::Message { from: src, msg });
    }
}

struct NodeSlot<M> {
    proc: Box<dyn Process<M>>,
    alive: bool,
    /// Incremented on crash; timers carry the epoch they were set in and are
    /// dropped if it is stale, which implicitly cancels all pending timers of
    /// a crashed node.
    epoch: u32,
}

/// Handle a process uses to interact with the simulation while handling an
/// event: send messages, set timers, read the clock, draw random numbers.
pub struct Ctx<'a, M> {
    kernel: &'a mut Kernel<M>,
    self_id: NodeId,
    self_epoch: u32,
}

impl<'a, M: 'static> Ctx<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// This process's node id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Send `msg` to `dst`; the kernel samples a latency and enforces
    /// per-link FIFO delivery.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.kernel.send_from(self.self_id, dst, msg, SimDuration::ZERO);
    }

    /// Send `msg` to `dst` after an additional local delay (e.g. service
    /// time spent before the reply leaves the node).
    pub fn send_after(&mut self, dst: NodeId, msg: M, delay: SimDuration) {
        self.kernel.send_from(self.self_id, dst, msg, delay);
    }

    /// Arrange for [`Process::on_timer`] to be called with `token` after
    /// `delay`. Crashing the node cancels all pending timers.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let at = self.kernel.now + delay;
        self.kernel.push(at, self.self_id, EventPayload::Timer { token, epoch: self.self_epoch });
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.kernel.rng
    }
}

/// The simulator: owns the nodes, the event queue and the virtual clock.
pub struct Sim<M> {
    kernel: Kernel<M>,
    nodes: Vec<NodeSlot<M>>,
    started: bool,
}

impl<M: 'static> Sim<M> {
    /// Create a simulator with the given RNG seed and latency model. Two
    /// simulators built with the same seed, model and node set produce
    /// identical runs.
    pub fn new(seed: u64, latency: impl LatencyModel + 'static) -> Self {
        Sim {
            kernel: Kernel {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                rng: StdRng::seed_from_u64(seed),
                latency: Box::new(latency),
                link_clock: HashMap::new(),
                sizer: |_| 256,
                events_processed: 0,
            },
            nodes: Vec::new(),
            started: false,
        }
    }

    /// Install a function estimating the wire size of a message (bytes).
    /// Defaults to a constant 256 B. Used by bandwidth-aware latency models.
    pub fn set_message_sizer(&mut self, sizer: fn(&M) -> usize) {
        self.kernel.sizer = sizer;
    }

    /// Register a node; returns its id. Ids are dense and assigned in
    /// registration order. If the simulation already ran, the node's
    /// `on_start` fires at the current virtual time.
    pub fn add_node(&mut self, proc: impl Process<M>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot { proc: Box::new(proc), alive: true, epoch: 0 });
        if self.started {
            self.start_node(id);
        }
        id
    }

    fn start_node(&mut self, id: NodeId) {
        let slot = &mut self.nodes[id.index()];
        let mut ctx = Ctx { kernel: &mut self.kernel, self_id: id, self_epoch: slot.epoch };
        slot.proc.on_start(&mut ctx);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Total number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is not of type `T`.
    pub fn node_ref<T: 'static>(&self, id: NodeId) -> &T {
        let any: &dyn Any = self.nodes[id.index()].proc.as_ref();
        any.downcast_ref::<T>().expect("node type mismatch")
    }

    /// Mutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is not of type `T`.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        let any: &mut dyn Any = self.nodes[id.index()].proc.as_mut();
        any.downcast_mut::<T>().expect("node type mismatch")
    }

    /// Schedule a crash of `node` at absolute time `at`.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        self.kernel.push(at, node, EventPayload::Crash);
    }

    /// Schedule a restart of `node` at absolute time `at`.
    pub fn schedule_restart(&mut self, node: NodeId, at: SimTime) {
        self.kernel.push(at, node, EventPayload::Restart);
    }

    /// Inject a message from the outside world (no latency applied).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M, at: SimTime) {
        let at = at.max(self.kernel.now);
        self.kernel.push(at, to, EventPayload::Message { from, msg });
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                self.start_node(NodeId(i as u32));
            }
        }
    }

    /// Execute the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(ev) = self.kernel.heap.pop() else { return false };
        debug_assert!(ev.time >= self.kernel.now, "time must be monotone");
        self.kernel.now = ev.time;
        self.kernel.events_processed += 1;
        let slot = &mut self.nodes[ev.target.index()];
        match ev.payload {
            EventPayload::Message { from, msg } => {
                if slot.alive {
                    let mut ctx = Ctx {
                        kernel: &mut self.kernel,
                        self_id: ev.target,
                        self_epoch: slot.epoch,
                    };
                    slot.proc.on_message(&mut ctx, from, msg);
                }
                // Messages to crashed nodes are silently dropped (the wire
                // model: the TCP connection is gone).
            }
            EventPayload::Timer { token, epoch } => {
                if slot.alive && epoch == slot.epoch {
                    let mut ctx = Ctx {
                        kernel: &mut self.kernel,
                        self_id: ev.target,
                        self_epoch: slot.epoch,
                    };
                    slot.proc.on_timer(&mut ctx, token);
                }
            }
            EventPayload::Crash => {
                if slot.alive {
                    slot.alive = false;
                    slot.epoch += 1;
                    slot.proc.on_crash();
                }
            }
            EventPayload::Restart => {
                if !slot.alive {
                    slot.alive = true;
                    let mut ctx = Ctx {
                        kernel: &mut self.kernel,
                        self_id: ev.target,
                        self_epoch: slot.epoch,
                    };
                    slot.proc.on_restart(&mut ctx);
                }
            }
        }
        true
    }

    /// Run until the event queue drains.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are executed) or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        loop {
            match self.kernel.heap.peek() {
                Some(ev) if ev.time <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.kernel.now < deadline {
            self.kernel.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::FixedLatency;

    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, NodeId, u32)>,
        crashes: u32,
        restarts: u32,
    }

    impl Process<u32> for Recorder {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.log.push((ctx.now().as_nanos(), from, msg));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, token: TimerToken) {
            self.log.push((ctx.now().as_nanos(), ctx.self_id(), token as u32 + 1000));
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Ctx<'_, u32>) {
            self.restarts += 1;
        }
    }

    struct Burst {
        dst: NodeId,
        n: u32,
    }
    impl Process<u32> for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            for i in 0..self.n {
                ctx.send(self.dst, i);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
    }

    #[test]
    fn fifo_delivery_preserves_send_order() {
        let mut sim = Sim::new(1, FixedLatency::micros(10));
        let rec = sim.add_node(Recorder::default());
        sim.add_node(Burst { dst: rec, n: 50 });
        sim.run_until_idle();
        let msgs: Vec<u32> = sim.node_ref::<Recorder>(rec).log.iter().map(|e| e.2).collect();
        assert_eq!(msgs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        struct T;
        impl Process<u32> for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.set_timer(SimDuration::from_micros(30), 7);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, token: TimerToken) {
                assert_eq!(token, 7);
                assert_eq!(ctx.now(), SimTime::from_micros(30));
                ctx.send(ctx.self_id(), 1); // loopback keeps the queue alive one more hop
            }
        }
        let mut sim = Sim::new(1, FixedLatency::micros(10));
        sim.add_node(T);
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::from_micros(40));
    }

    #[test]
    fn crash_drops_messages_and_timers_restart_resumes() {
        let mut sim = Sim::new(1, FixedLatency::micros(10));
        let rec = sim.add_node(Recorder::default());
        let src = sim.add_node(Burst { dst: rec, n: 1 });
        sim.schedule_crash(rec, SimTime::from_micros(5)); // before delivery at 10us
        sim.run_until_idle();
        assert!(sim.node_ref::<Recorder>(rec).log.is_empty(), "message to dead node dropped");
        assert_eq!(sim.node_ref::<Recorder>(rec).crashes, 1);

        sim.schedule_restart(rec, SimTime::from_micros(50));
        sim.inject(src, rec, 9, SimTime::from_micros(60));
        sim.run_until_idle();
        let r = sim.node_ref::<Recorder>(rec);
        assert_eq!(r.restarts, 1);
        assert_eq!(r.log, vec![(60_000, src, 9)]);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(1, FixedLatency::micros(100));
        let rec = sim.add_node(Recorder::default());
        sim.add_node(Burst { dst: rec, n: 1 });
        sim.run_until(SimTime::from_micros(50));
        assert_eq!(sim.now(), SimTime::from_micros(50));
        assert!(sim.node_ref::<Recorder>(rec).log.is_empty());
        sim.run_until(SimTime::from_micros(200));
        assert_eq!(sim.node_ref::<Recorder>(rec).log.len(), 1);
        assert_eq!(sim.now(), SimTime::from_micros(200));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run() -> Vec<(u64, NodeId, u32)> {
            let mut sim = Sim::new(1234, crate::latency::GigEModel::default());
            let rec = sim.add_node(Recorder::default());
            sim.add_node(Burst { dst: rec, n: 100 });
            sim.run_until_idle();
            sim.node_ref::<Recorder>(rec).log.clone()
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn late_added_node_is_started() {
        let mut sim = Sim::new(1, FixedLatency::micros(10));
        let rec = sim.add_node(Recorder::default());
        sim.run_until(SimTime::from_micros(100));
        sim.add_node(Burst { dst: rec, n: 2 });
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Recorder>(rec).log.len(), 2);
        assert!(sim.now() >= SimTime::from_micros(110));
    }
}
