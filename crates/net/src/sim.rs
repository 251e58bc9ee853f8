//! The discrete-event simulator: nodes, areas, mobility, radio
//! connectivity, and the event queue.

use crate::clock::{ClockHandle, SimTime};
use crate::geo::{Area, AreaId, Position};
use crate::link::LinkModel;
use crate::node::{Incoming, NodeId, SimNode};
use crate::port::{NetCmd, NetPort};
use crate::rng::SimRng;
use crate::trace::{Trace, TraceEntry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// One event routed to a node within an epoch, stamped with its
/// simulated delivery instant so the cell's clock can be set per event.
#[derive(Debug)]
pub struct TimedIncoming {
    /// The event's simulated time.
    pub at: SimTime,
    /// The event itself.
    pub incoming: Incoming,
}

/// All events of one conservative lookahead window, partitioned by
/// destination node. Produced by [`Simulator::drain_epoch`].
#[derive(Debug)]
pub struct Epoch {
    /// First event time of the window (inclusive).
    pub start: SimTime,
    /// Window end (exclusive): `min(start + lookahead, until + 1)`.
    pub end: SimTime,
    /// Per-node event batches, indexed by `NodeId.0`. Within a batch
    /// events are in global `(time, seq)` order.
    pub batches: Vec<Vec<TimedIncoming>>,
}

impl Epoch {
    /// Number of nodes with at least one event in this window.
    pub fn busy_nodes(&self) -> usize {
        self.batches.iter().filter(|b| !b.is_empty()).count()
    }
}

#[derive(Debug)]
enum Pending {
    Deliver {
        to: NodeId,
        from: NodeId,
        channel: Arc<str>,
        payload: Vec<u8>,
        sent_at: SimTime,
    },
    TimerFire {
        node: NodeId,
        token: u64,
        tag: &'static str,
    },
    Move {
        node: NodeId,
        pos: Position,
    },
}

#[derive(Debug)]
struct QueueEntry {
    at: SimTime,
    seq: u64,
    pending: Pending,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The deterministic wireless-world simulator.
///
/// Protocol logic lives outside: components call [`Simulator::send`] /
/// [`Simulator::broadcast`] / [`Simulator::set_timer`], then a driver
/// loop calls [`Simulator::step`] and hands each node's drained inbox to
/// its handlers. Determinism: all randomness (loss, jitter) comes from a
/// seeded RNG, and simultaneous events fire in submission order.
///
/// # Examples
///
/// ```
/// use pmp_net::prelude::*;
///
/// let mut sim = Simulator::new(42);
/// let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
/// let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
/// sim.send(a, b, "chat", b"hello".to_vec());
/// sim.step();
/// let inbox = sim.drain_inbox(b);
/// assert_eq!(inbox.len(), 1);
/// ```
#[derive(Debug)]
pub struct Simulator {
    clock: ClockHandle,
    nodes: Vec<SimNode>,
    areas: Vec<Area>,
    queue: BinaryHeap<Reverse<QueueEntry>>,
    seq: u64,
    next_timer_token: u64,
    rng: SimRng,
    link: LinkModel,
    partitions: HashSet<(NodeId, NodeId)>,
    /// Wired backhaul segments (both directions): unicast sends between
    /// these pairs ignore radio range and are never lost, modelling the
    /// LAN that connects federated base stations. Partitions still cut
    /// them (a backhaul switch can fail too).
    wired: HashSet<(NodeId, NodeId)>,
    /// Per-pair FIFO enforcement: a later send between the same two
    /// nodes never overtakes an earlier one (single-channel radio
    /// between one pair behaves like a FIFO link).
    fifo: std::collections::HashMap<(NodeId, NodeId), SimTime>,
    /// Delivery statistics and optional log.
    pub trace: Trace,
}

impl Simulator {
    /// Creates a simulator with the default link model and the given
    /// RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_link(seed, LinkModel::default())
    }

    /// Creates a simulator with an explicit link model.
    pub fn with_link(seed: u64, link: LinkModel) -> Self {
        Self {
            clock: ClockHandle::new(),
            nodes: Vec::new(),
            areas: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            next_timer_token: 1,
            rng: SimRng::new(seed),
            link,
            partitions: HashSet::new(),
            wired: HashSet::new(),
            fifo: std::collections::HashMap::new(),
            trace: Trace::default(),
        }
    }

    /// Clamps a sampled delivery time so the (from, to) pair stays FIFO.
    fn fifo_clamp(&mut self, from: NodeId, to: NodeId, at: SimTime) -> SimTime {
        let entry = self.fifo.entry((from, to)).or_insert(SimTime::ZERO);
        let at = if at <= *entry { entry.plus(1) } else { at };
        *entry = at;
        at
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// A shareable clock handle (for VMs and external components).
    pub fn clock(&self) -> ClockHandle {
        self.clock.clone()
    }

    /// Counts delivery statistics in `shared` (counters `net.sim.*`
    /// and `net.channel.<name>.bytes`, deliveries as journal events)
    /// and stamps the shared journal with this simulator's clock.
    pub fn attach_telemetry(&mut self, shared: &pmp_telemetry::Shared) {
        let clock = self.clock();
        shared.set_clock(Arc::new(move || clock.now().0));
        self.trace.attach_telemetry(shared);
    }

    // ------------------------------------------------------------------
    // World construction
    // ------------------------------------------------------------------

    /// Adds a node; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, pos: Position, radio_range: f64) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(SimNode::new(id, name.into(), pos, radio_range));
        id
    }

    /// Adds a rectangular area; returns its id.
    pub fn add_area(&mut self, name: impl Into<String>, min: Position, max: Position) -> AreaId {
        let id = AreaId(self.areas.len() as u32);
        self.areas.push(Area {
            id,
            name: name.into(),
            min,
            max,
        });
        id
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn node(&self, id: NodeId) -> &SimNode {
        &self.nodes[id.0 as usize]
    }

    /// Mutable node access.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn node_mut(&mut self, id: NodeId) -> &mut SimNode {
        &mut self.nodes[id.0 as usize]
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32).map(NodeId).collect()
    }

    /// Area metadata.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn area(&self, id: AreaId) -> &Area {
        &self.areas[id.0 as usize]
    }

    /// The (first) area containing the node's position, if any.
    pub fn node_area(&self, id: NodeId) -> Option<AreaId> {
        let pos = self.node(id).pos;
        self.areas.iter().find(|a| a.contains(pos)).map(|a| a.id)
    }

    /// Moves a node immediately.
    pub fn move_node(&mut self, id: NodeId, pos: Position) {
        self.node_mut(id).pos = pos;
    }

    /// Schedules a move at a future time (simple waypoint mobility).
    pub fn schedule_move(&mut self, id: NodeId, at: SimTime, pos: Position) {
        self.push(at, Pending::Move { node: id, pos });
    }

    /// Turns a node's radio on or off.
    pub fn set_online(&mut self, id: NodeId, online: bool) {
        self.node_mut(id).online = online;
    }

    /// Blocks direct communication between two nodes (both directions) —
    /// partition injection for failure testing.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert((a, b));
        self.partitions.insert((b, a));
    }

    /// Removes a partition.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&(a, b));
        self.partitions.remove(&(b, a));
    }

    /// Adds a wired backhaul segment between two nodes (both
    /// directions): their unicast sends ignore radio range and loss,
    /// like the LAN linking federated base stations. Broadcasts stay
    /// radio-only, and partitions still sever the pair.
    pub fn add_wired_link(&mut self, a: NodeId, b: NodeId) {
        self.wired.insert((a, b));
        self.wired.insert((b, a));
    }

    /// Whether `a` and `b` share a wired backhaul segment.
    pub fn is_wired(&self, a: NodeId, b: NodeId) -> bool {
        self.wired.contains(&(a, b))
    }

    /// Multiplies every latency component of the link model by
    /// `mult` (base latency, per-byte cost, and jitter; loss is
    /// untouched). Models a degraded radio environment — the chaos
    /// harness uses it to inject latency regressions that the soak
    /// perf oracles must catch. `mult = 1` is a no-op.
    pub fn scale_link_latency(&mut self, mult: u32) {
        let m = u64::from(mult.max(1));
        self.link.base_latency_ns = self.link.base_latency_ns.saturating_mul(m);
        self.link.per_byte_ns = self.link.per_byte_ns.saturating_mul(m);
        self.link.jitter_ns = self.link.jitter_ns.saturating_mul(m);
    }

    /// The link model currently in force.
    pub fn link_model(&self) -> &LinkModel {
        &self.link
    }

    // ------------------------------------------------------------------
    // Communication
    // ------------------------------------------------------------------

    fn connected(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            // Loopback: components on one node always reach each other.
            return self.node(from).online;
        }
        if self.partitions.contains(&(from, to)) {
            return false;
        }
        let f = self.node(from);
        let t = self.node(to);
        if !(f.online && t.online) {
            return false;
        }
        // Wired backhaul: range does not apply.
        if self.wired.contains(&(from, to)) {
            return true;
        }
        f.pos.distance(t.pos) <= f.radio_range
    }

    /// Sends a unicast message. Returns `true` if the copy was queued
    /// (in range and not lost); the receiver must *still* be in range at
    /// delivery time.
    pub fn send(&mut self, from: NodeId, to: NodeId, channel: &str, payload: Vec<u8>) -> bool {
        self.trace.record_sent();
        if !self.connected(from, to) {
            self.trace.record_drop_range();
            return false;
        }
        let now = self.now();
        // Wired segments are reliable and jitter-free, and sample no
        // RNG — backhaul traffic cannot shift the radio's loss stream.
        let sampled = if self.wired.contains(&(from, to)) {
            Some(self.link.sample_wired(now, payload.len()))
        } else {
            self.link.sample(now, payload.len(), &mut self.rng)
        };
        match sampled {
            None => {
                self.trace.record_drop_loss();
                false
            }
            Some(at) => {
                let at = self.fifo_clamp(from, to, at);
                self.push(
                    at,
                    Pending::Deliver {
                        to,
                        from,
                        channel: Arc::from(channel),
                        payload,
                        sent_at: now,
                    },
                );
                true
            }
        }
    }

    /// Broadcasts to every node currently in range; returns the number
    /// of copies queued.
    pub fn broadcast(&mut self, from: NodeId, channel: &str, payload: Vec<u8>) -> usize {
        self.trace.record_broadcast();
        let targets: Vec<NodeId> = self
            .node_ids()
            .into_iter()
            .filter(|&to| self.connected(from, to))
            .collect();
        let mut queued = 0;
        let now = self.now();
        for to in targets {
            match self.link.sample(now, payload.len(), &mut self.rng) {
                None => self.trace.record_drop_loss(),
                Some(at) => {
                    let at = self.fifo_clamp(from, to, at);
                    self.push(
                        at,
                        Pending::Deliver {
                            to,
                            from,
                            channel: Arc::from(channel),
                            payload: payload.clone(),
                            sent_at: now,
                        },
                    );
                    queued += 1;
                }
            }
        }
        queued
    }

    /// Sets a one-shot timer on a node; the token identifies the firing
    /// in the inbox.
    pub fn set_timer(&mut self, node: NodeId, delay_ns: u64, tag: &'static str) -> u64 {
        let token = self.next_timer_token;
        self.next_timer_token += 1;
        let at = self.now().plus(delay_ns);
        self.push(
            at,
            Pending::TimerFire {
                node,
                token,
                tag,
            },
        );
        token
    }

    /// Drains a node's inbox.
    pub fn drain_inbox(&mut self, id: NodeId) -> Vec<Incoming> {
        self.node_mut(id).inbox.drain(..).collect()
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    fn push(&mut self, at: SimTime, pending: Pending) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueueEntry { at, seq, pending }));
    }

    /// `true` if events remain.
    pub fn has_events(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Time of the next pending event.
    pub fn peek_next(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(e)| e.at)
    }

    /// Advances to the next event, processes *all* events at that
    /// instant, and returns the new time. Returns `None` when idle.
    pub fn step(&mut self) -> Option<SimTime> {
        let at = self.peek_next()?;
        self.clock.set(at);
        while self.peek_next() == Some(at) {
            let Reverse(entry) = self.queue.pop().expect("peeked");
            self.process(entry.pending);
        }
        Some(at)
    }

    /// Runs events until simulated time exceeds `until` (events at
    /// exactly `until` are processed). The clock ends at
    /// `max(now, until)` even if the queue drains early.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(next) = self.peek_next() {
            if next > until {
                break;
            }
            self.step();
        }
        if self.now() < until {
            self.clock.set(until);
        }
    }

    /// Runs for `delta_ns` of simulated time from now.
    pub fn run_for(&mut self, delta_ns: u64) {
        let until = self.now().plus(delta_ns);
        self.run_until(until);
    }

    fn process(&mut self, pending: Pending) {
        match pending {
            Pending::Deliver {
                to,
                from,
                channel,
                payload,
                sent_at,
            } => {
                // Mobility check at delivery time: the receiver may have
                // left the sender's range while the message was in flight.
                if !self.connected(from, to) {
                    self.trace.record_drop_range();
                    return;
                }
                self.trace.record_delivery(TraceEntry {
                    at: self.now(),
                    from,
                    to,
                    channel: channel.to_string(),
                    bytes: payload.len(),
                });
                self.node_mut(to).inbox.push_back(Incoming::Message {
                    from,
                    channel,
                    payload,
                    sent_at,
                });
            }
            Pending::TimerFire { node, token, tag } => {
                self.trace.record_timer();
                self.node_mut(node)
                    .inbox
                    .push_back(Incoming::Timer { token, tag });
            }
            Pending::Move { node, pos } => {
                self.node_mut(node).pos = pos;
            }
        }
    }

    // ------------------------------------------------------------------
    // Sharded execution: epoch extraction and command merge
    // ------------------------------------------------------------------

    /// The conservative lookahead window, in nanoseconds: no message
    /// sent at time `t` can arrive before `t + lookahead`, because the
    /// link's base latency is the minimum of every sampled delay. Events
    /// within one window are therefore causally independent across
    /// nodes and may be dispatched concurrently.
    pub fn lookahead(&self) -> u64 {
        self.link.base_latency_ns.max(1)
    }

    /// Drains the next epoch: every queued event in
    /// `[next_event_time, min(next_event_time + lookahead, until + 1))`,
    /// partitioned by destination node. Returns `None` when the next
    /// event lies beyond `until` (or the queue is idle).
    ///
    /// Scheduler-side effects stay here and stay serial: moves are
    /// applied inline, deliveries are connectivity-checked and traced at
    /// their own timestamps, and the global clock advances through the
    /// window. Node-side dispatch is the driver's job.
    pub fn drain_epoch(&mut self, until: SimTime) -> Option<Epoch> {
        let start = self.peek_next()?;
        if start > until {
            return None;
        }
        let end = start.plus(self.lookahead()).min(until.plus(1));
        let mut batches: Vec<Vec<TimedIncoming>> =
            (0..self.nodes.len()).map(|_| Vec::new()).collect();
        while let Some(at) = self.peek_next() {
            if at >= end {
                break;
            }
            self.clock.set(at);
            let Reverse(entry) = self.queue.pop().expect("peeked");
            match entry.pending {
                Pending::Deliver {
                    to,
                    from,
                    channel,
                    payload,
                    sent_at,
                } => {
                    if !self.connected(from, to) {
                        self.trace.record_drop_range();
                        continue;
                    }
                    self.trace.record_delivery(TraceEntry {
                        at,
                        from,
                        to,
                        channel: channel.to_string(),
                        bytes: payload.len(),
                    });
                    batches[to.0 as usize].push(TimedIncoming {
                        at,
                        incoming: Incoming::Message {
                            from,
                            channel,
                            payload,
                            sent_at,
                        },
                    });
                }
                Pending::TimerFire { node, token, tag } => {
                    self.trace.record_timer();
                    batches[node.0 as usize].push(TimedIncoming {
                        at,
                        incoming: Incoming::Timer { token, tag },
                    });
                }
                Pending::Move { node, pos } => {
                    self.nodes[node.0 as usize].pos = pos;
                }
            }
        }
        Some(Epoch { start, end, batches })
    }

    /// Replays buffered node effects against the scheduler. The caller
    /// passes commands in deterministic `(time, source rank, seq)`
    /// order; loss and jitter are sampled *here*, so the RNG stream
    /// depends only on that order — never on the order the node cells
    /// computed the epoch in.
    pub fn apply_cmds(&mut self, cmds: impl IntoIterator<Item = NetCmd>) {
        for cmd in cmds {
            self.apply_cmd(cmd);
        }
    }

    fn apply_cmd(&mut self, cmd: NetCmd) {
        let now = self.now();
        match cmd {
            NetCmd::Send {
                at,
                from,
                to,
                channel,
                payload,
            } => {
                self.trace.record_sent();
                if !self.connected(from, to) {
                    self.trace.record_drop_range();
                    return;
                }
                match self.link.sample(at, payload.len(), &mut self.rng) {
                    None => self.trace.record_drop_loss(),
                    Some(deliver_at) => {
                        let deliver_at = self.fifo_clamp(from, to, deliver_at);
                        debug_assert!(
                            deliver_at >= now,
                            "lookahead violated: delivery {deliver_at:?} before now {now:?}"
                        );
                        self.push(
                            deliver_at,
                            Pending::Deliver {
                                to,
                                from,
                                channel: Arc::from(channel.as_str()),
                                payload,
                                sent_at: at,
                            },
                        );
                    }
                }
            }
            NetCmd::Broadcast {
                at,
                from,
                channel,
                payload,
            } => {
                self.trace.record_broadcast();
                let targets: Vec<NodeId> = self
                    .node_ids()
                    .into_iter()
                    .filter(|&to| self.connected(from, to))
                    .collect();
                for to in targets {
                    match self.link.sample(at, payload.len(), &mut self.rng) {
                        None => self.trace.record_drop_loss(),
                        Some(deliver_at) => {
                            let deliver_at = self.fifo_clamp(from, to, deliver_at);
                            self.push(
                                deliver_at,
                                Pending::Deliver {
                                    to,
                                    from,
                                    channel: Arc::from(channel.as_str()),
                                    payload: payload.clone(),
                                    sent_at: at,
                                },
                            );
                        }
                    }
                }
            }
            NetCmd::Timer {
                at,
                node,
                token,
                delay_ns,
                tag,
            } => {
                // A sub-lookahead delay could point inside the drained
                // window; clamp to "now" so the clock stays monotonic
                // (documented divergence — every real timer in the
                // platform is orders of magnitude above the lookahead).
                let fire_at = at.plus(delay_ns).max(now);
                self.push(
                    fire_at,
                    Pending::TimerFire {
                        node,
                        token,
                        tag,
                    },
                );
            }
        }
    }

    /// Stable 64-bit digest of the delivery trace (counters plus the
    /// per-delivery log when logging is enabled). See [`Trace::digest`].
    pub fn trace_digest(&self) -> u64 {
        self.trace.digest()
    }
}

impl NetPort for Simulator {
    fn now(&self) -> SimTime {
        Simulator::now(self)
    }

    fn send(&mut self, from: NodeId, to: NodeId, channel: &str, payload: Vec<u8>) -> bool {
        Simulator::send(self, from, to, channel, payload)
    }

    fn broadcast(&mut self, from: NodeId, channel: &str, payload: Vec<u8>) -> usize {
        Simulator::broadcast(self, from, channel, payload)
    }

    fn set_timer(&mut self, node: NodeId, delay_ns: u64, tag: &'static str) -> u64 {
        Simulator::set_timer(self, node, delay_ns, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::with_link(7, LinkModel::ideal());
        let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
        (sim, a, b)
    }

    #[test]
    fn unicast_delivery() {
        let (mut sim, a, b) = world();
        assert!(sim.send(a, b, "c", vec![1, 2, 3]));
        sim.step();
        let inbox = sim.drain_inbox(b);
        assert_eq!(inbox.len(), 1);
        match &inbox[0] {
            Incoming::Message { from, channel, payload, .. } => {
                assert_eq!(*from, a);
                assert_eq!(&**channel, "c");
                assert_eq!(payload, &[1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sim.trace.stats().delivered, 1);
    }

    #[test]
    fn out_of_range_send_fails() {
        let (mut sim, a, b) = world();
        sim.move_node(b, Position::new(1000.0, 0.0));
        assert!(!sim.send(a, b, "c", vec![]));
        assert_eq!(sim.trace.stats().dropped_range, 1);
    }

    #[test]
    fn in_flight_message_lost_when_receiver_leaves() {
        let mut sim = Simulator::new(7); // default link: ~1ms latency
        let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
        assert!(sim.send(a, b, "c", vec![0; 64]));
        // b leaves range before the ~1 ms delivery.
        sim.move_node(b, Position::new(1000.0, 0.0));
        sim.step();
        assert!(sim.drain_inbox(b).is_empty());
        assert_eq!(sim.trace.stats().dropped_range, 1);
    }

    #[test]
    fn wired_link_ignores_range_and_loss() {
        let mut sim = Simulator::with_link(7, LinkModel::lossy(1.0));
        let a = sim.add_node("base-a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("base-b", Position::new(1000.0, 0.0), 50.0);
        assert!(!sim.send(a, b, "c", vec![1]), "radio: out of range");
        sim.add_wired_link(a, b);
        assert!(sim.is_wired(a, b) && sim.is_wired(b, a));
        // Reliable despite a 100%-loss radio, and despite the distance.
        assert!(sim.send(a, b, "c", vec![2]));
        sim.run_for(5_000_000);
        assert_eq!(sim.drain_inbox(b).len(), 1);
    }

    #[test]
    fn wired_link_is_still_severed_by_partitions() {
        let mut sim = Simulator::with_link(7, LinkModel::ideal());
        let a = sim.add_node("base-a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("base-b", Position::new(1000.0, 0.0), 50.0);
        sim.add_wired_link(a, b);
        sim.partition(a, b);
        assert!(!sim.send(a, b, "c", vec![1]));
        sim.heal(a, b);
        assert!(sim.send(a, b, "c", vec![2]));
    }

    #[test]
    fn wired_sends_do_not_perturb_the_radio_rng() {
        // Two identical lossy worlds; one also exchanges wired traffic.
        // The radio messages must meet identical fates in both.
        let build = |wired_chatter: bool| {
            let mut sim = Simulator::with_link(11, LinkModel::lossy(0.5));
            let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
            let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
            let w1 = sim.add_node("w1", Position::new(0.0, 500.0), 50.0);
            let w2 = sim.add_node("w2", Position::new(500.0, 500.0), 50.0);
            sim.add_wired_link(w1, w2);
            let mut fates = Vec::new();
            for i in 0..32u8 {
                if wired_chatter {
                    sim.send(w1, w2, "backhaul", vec![i]);
                }
                fates.push(sim.send(a, b, "radio", vec![i]));
            }
            fates
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn broadcast_reaches_only_nodes_in_range() {
        let mut sim = Simulator::with_link(7, LinkModel::ideal());
        let base = sim.add_node("base", Position::new(0.0, 0.0), 30.0);
        let near = sim.add_node("near", Position::new(10.0, 0.0), 30.0);
        let far = sim.add_node("far", Position::new(100.0, 0.0), 30.0);
        let queued = sim.broadcast(base, "ann", b"hi".to_vec());
        assert_eq!(queued, 2, "near node plus loopback copy");
        sim.step();
        assert_eq!(sim.drain_inbox(near).len(), 1);
        assert_eq!(sim.drain_inbox(base).len(), 1, "loopback multicast");
        assert!(sim.drain_inbox(far).is_empty());
    }

    #[test]
    fn loopback_unicast_delivers() {
        let (mut sim, a, _) = world();
        assert!(sim.send(a, a, "self", vec![9]));
        sim.step();
        assert_eq!(sim.drain_inbox(a).len(), 1);
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, a, _) = world();
        sim.set_timer(a, 3_000, "late");
        sim.set_timer(a, 1_000, "early");
        sim.run_for(10_000);
        let inbox = sim.drain_inbox(a);
        let tags: Vec<String> = inbox
            .iter()
            .map(|i| match i {
                Incoming::Timer { tag, .. } => tag.to_string(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(tags, ["early", "late"]);
        assert_eq!(sim.trace.stats().timers, 2);
    }

    #[test]
    fn partitions_block_and_heal() {
        let (mut sim, a, b) = world();
        sim.partition(a, b);
        assert!(!sim.send(a, b, "c", vec![]));
        assert!(!sim.send(b, a, "c", vec![]));
        sim.heal(a, b);
        assert!(sim.send(a, b, "c", vec![]));
    }

    #[test]
    fn offline_nodes_unreachable() {
        let (mut sim, a, b) = world();
        sim.set_online(b, false);
        assert!(!sim.send(a, b, "c", vec![]));
        sim.set_online(b, true);
        assert!(sim.send(a, b, "c", vec![]));
    }

    #[test]
    fn scheduled_moves_apply_at_time() {
        let (mut sim, a, _) = world();
        sim.schedule_move(a, SimTime::from_millis(5), Position::new(99.0, 0.0));
        assert_eq!(sim.node(a).pos, Position::new(0.0, 0.0));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.node(a).pos, Position::new(99.0, 0.0));
    }

    #[test]
    fn areas_track_node_positions() {
        let mut sim = Simulator::new(1);
        let hall_a = sim.add_area("hall-a", Position::new(0.0, 0.0), Position::new(50.0, 50.0));
        let hall_b = sim.add_area("hall-b", Position::new(100.0, 0.0), Position::new(150.0, 50.0));
        let robot = sim.add_node("robot", Position::new(25.0, 25.0), 30.0);
        assert_eq!(sim.node_area(robot), Some(hall_a));
        sim.move_node(robot, Position::new(125.0, 25.0));
        assert_eq!(sim.node_area(robot), Some(hall_b));
        sim.move_node(robot, Position::new(75.0, 25.0));
        assert_eq!(sim.node_area(robot), None);
        assert_eq!(sim.area(hall_a).name, "hall-a");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let (mut sim, _, _) = world();
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn per_pair_delivery_is_fifo() {
        // Many messages with jitter between the same pair must arrive
        // in send order.
        let mut sim = Simulator::new(3); // default link has jitter
        let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
        for i in 0..50u8 {
            sim.send(a, b, "seq", vec![i]);
        }
        sim.run_for(1_000_000_000);
        let got: Vec<u8> = sim
            .drain_inbox(b)
            .into_iter()
            .map(|inc| match inc {
                Incoming::Message { payload, .. } => payload[0],
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected: Vec<u8> = (0..50).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed: u64| -> (u64, u64) {
            let mut sim = Simulator::with_link(seed, LinkModel::lossy(0.3));
            let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
            let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
            for _ in 0..100 {
                sim.send(a, b, "c", vec![0; 16]);
            }
            sim.run_for(1_000_000_000);
            (sim.trace.stats().delivered, sim.trace.stats().dropped_loss)
        };
        assert_eq!(run(5), run(5));
        // Loss actually happens at 30%.
        let (delivered, lost) = run(5);
        assert!(delivered > 0 && lost > 0);
        assert_eq!(delivered + lost, 100);
    }
}
