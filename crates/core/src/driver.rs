//! The execution engine: node cells, epoch dispatch, and the pluggable
//! serial/parallel drivers.
//!
//! DESIGN.md §10 describes the model. In short, every pump is a loop of
//! *epochs*: the scheduler ([`pmp_net::Simulator`]) drains all events
//! within one conservative lookahead window partitioned by destination
//! node ([`Simulator::drain_epoch`](pmp_net::Simulator::drain_epoch)),
//! each busy node's stack — a [`NodeCell`] — computes against its own
//! batch with a private clock, a buffering network port, and a
//! buffering telemetry sink, and at the barrier the cells' effects are
//! merged back into the scheduler in deterministic
//! `(time, cell rank, emission seq)` order.
//!
//! Both drivers run the *same* pipeline; [`SerialDriver`] executes the
//! cells one by one on the calling thread and [`ParallelDriver`] shards
//! them over scoped threads. Because nothing a cell observes (its
//! batch, its clock) or produces (ordered commands, ordered events)
//! depends on which thread ran it, the two drivers are behaviourally
//! identical by construction — the determinism suite pins this with
//! trace/journal digests.

use crate::node::{BaseStation, MobileNode};
use crate::platform::RpcOutcome;
use crate::wiring::{AppMsg, RpcMsg, APP_CHANNEL, MIRROR_CHANNEL, RPC_CHANNEL};
use pmp_midas::{BaseEvent, MidasMsg, ReceiverEvent};
use pmp_net::{ClockHandle, Incoming, NetPort, NodeId, PortBuf, SimTime, TimedIncoming};
use pmp_store::MovementRecord;
use pmp_telemetry::{Shared, Sink};
use pmp_trace::{Traced, Tracer};
use pmp_vm::prelude::{Value, VmError};
use std::sync::Arc;

/// Per-cell runtime state owned by the platform alongside each node's
/// stack: the cell clock (set to the timestamp of the event being
/// dispatched), the buffering network port, and the buffering telemetry
/// sink whose clones the cell's components hold.
#[derive(Debug)]
pub(crate) struct CellState {
    pub(crate) clock: ClockHandle,
    pub(crate) port: PortBuf,
    pub(crate) sink: Sink,
    /// The cell's span factory + flight recorder (see `pmp-trace`).
    /// Cloned into the stack's components; spans are drained at the
    /// epoch barrier in rank order.
    pub(crate) tracer: Tracer,
}

impl CellState {
    pub(crate) fn new(node: NodeId, now: SimTime, telemetry: &Shared) -> CellState {
        let clock = ClockHandle::new();
        clock.set(now);
        let c = clock.clone();
        let sink = Sink::buffered(telemetry, Arc::new(move || c.now().0));
        CellState {
            port: PortBuf::new(node, clock.clone()),
            clock,
            sink,
            tracer: Tracer::new(node.0),
        }
    }

    /// A `Fn() -> u64` view of the cell clock (VM/robot time source).
    pub(crate) fn clock_fn(&self) -> Arc<dyn Fn() -> u64 + Send + Sync> {
        let c = self.clock.clone();
        Arc::new(move || c.now().0)
    }
}

/// The node stack a cell drives for one epoch.
pub(crate) enum CellBody<'a> {
    Base(&'a mut BaseStation),
    Mobile(&'a mut MobileNode),
}

/// One node's stack plus its epoch batch: the self-contained `Send`
/// unit of work a driver schedules. A cell's rank — its position in
/// the slice handed to [`Driver::compute`], bases first then mobiles —
/// fixes the merge order of everything it produces.
pub struct NodeCell<'a> {
    pub(crate) body: CellBody<'a>,
    pub(crate) state: &'a mut CellState,
    pub(crate) batch: Vec<TimedIncoming>,
    pub(crate) rpc: Vec<RpcOutcome>,
}

impl NodeCell<'_> {
    /// Dispatches the cell's whole batch. Call exactly once per epoch,
    /// from whichever thread the driver chose.
    pub fn run(&mut self) {
        for item in self.batch.drain(..) {
            self.state.clock.set(item.at);
            match &mut self.body {
                CellBody::Base(station) => {
                    dispatch_base(station, &mut self.state.port, &mut self.rpc, &item.incoming);
                }
                CellBody::Mobile(node) => {
                    dispatch_mobile(
                        node,
                        &mut self.state.port,
                        &mut self.rpc,
                        &item.incoming,
                        Some(&self.state.tracer),
                    );
                }
            }
        }
    }
}

// A NodeCell must be able to cross threads: this is the compile-time
// audit that every layer of a node stack (VM, PROSE, MIDAS, robot
// hardware, wiring) is `Send`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<NodeCell<'static>>();
    assert_send::<MobileNode>();
    assert_send::<BaseStation>();
};

/// Schedules [`NodeCell`]s within one epoch. Implementations decide
/// only *where* each cell runs — all ordering that affects observable
/// behaviour happens at the barrier merge, outside the driver.
pub trait Driver: Send + Sync {
    /// Driver name for reports (`"serial"` / `"parallel"`).
    fn name(&self) -> &'static str;

    /// Runs every cell exactly once.
    fn compute(&self, cells: &mut [NodeCell<'_>]);
}

/// The golden reference: cells run one by one, in rank order, on the
/// calling thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialDriver;

impl Driver for SerialDriver {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn compute(&self, cells: &mut [NodeCell<'_>]) {
        for cell in cells {
            cell.run();
        }
    }
}

/// Shards cells over scoped threads, one contiguous chunk per worker,
/// with the epoch barrier at scope exit. Thread count (and the chunk
/// shape) cannot affect results; epochs with at most one busy cell run
/// inline to skip spawn overhead.
#[derive(Debug, Clone, Copy)]
pub struct ParallelDriver {
    /// Worker cap; defaults to the host's available parallelism.
    pub threads: usize,
}

impl Default for ParallelDriver {
    fn default() -> Self {
        ParallelDriver {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl Driver for ParallelDriver {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn compute(&self, cells: &mut [NodeCell<'_>]) {
        let workers = self.threads.max(1).min(cells.len());
        if workers <= 1 || cells.len() <= 1 {
            SerialDriver.compute(cells);
            return;
        }
        let chunk = cells.len().div_ceil(workers);
        std::thread::scope(|s| {
            for shard in cells.chunks_mut(chunk) {
                s.spawn(move || {
                    for cell in shard {
                        cell.run();
                    }
                });
            }
        });
    }
}

/// The driver selected by the `PMP_DRIVER` environment variable
/// (`parallel` or `serial`; unset/unknown means serial, the golden
/// reference).
pub(crate) fn driver_from_env() -> Box<dyn Driver> {
    match std::env::var("PMP_DRIVER").as_deref() {
        Ok("parallel") => Box::new(ParallelDriver::default()),
        _ => Box::new(SerialDriver),
    }
}

// ----------------------------------------------------------------------
// Per-cell dispatch (the former Platform::dispatch_all internals)
// ----------------------------------------------------------------------

/// Feeds one incoming event through a base station's stack.
pub(crate) fn dispatch_base(
    station: &mut BaseStation,
    port: &mut PortBuf,
    rpc: &mut Vec<RpcOutcome>,
    inc: &Incoming,
) {
    station.registrar.handle(port, inc);
    let found = station.lookup.handle(port, inc);
    station.discoveries.extend(found);
    let evs = station.base.handle(port, inc);
    handle_base_federation(station, port, &evs);
    station.events.extend(evs);
    handle_rpc_retry(station, port, rpc, inc);
    handle_base_app(station, port, rpc, inc);
}

/// Drives the caller-side retransmission schedule: a fired `rpc.retry`
/// timer either re-sends the outstanding call with the *same* request
/// id (dedup is keyed on it) and arms the next backoff step, or — once
/// the attempt budget is spent — resolves the call as a failed
/// outcome. Runs inside the cell, so retries are sharded and merged
/// exactly like any other network effect.
fn handle_rpc_retry(
    station: &mut BaseStation,
    port: &mut dyn NetPort,
    rpc: &mut Vec<RpcOutcome>,
    inc: &Incoming,
) {
    let Incoming::Timer { token, tag } = inc else {
        return;
    };
    if &**tag != crate::rpc::RPC_RETRY_TAG {
        return;
    }
    let Some(req) = station.rpc.take_timer(*token) else {
        return;
    };
    let Some(call) = station.rpc.get(req) else {
        return; // resolved before the timer fired
    };
    if call.attempts >= crate::rpc::RPC_MAX_ATTEMPTS {
        let attempts = call.attempts;
        station.rpc.exhausted += 1;
        station.rpc.resolve(req);
        rpc.push(RpcOutcome {
            req,
            ok: false,
            value: format!("rpc timeout after {attempts} attempts"),
            at: port.now().0,
        });
        return;
    }
    let Some(attempts) = station.rpc.note_attempt(req) else {
        return;
    };
    let call = station.rpc.get(req).expect("attempt noted on live call");
    let msg = RpcMsg::CallSem {
        caller: call.caller.clone(),
        class: call.class.clone(),
        method: call.method.clone(),
        args: call.args.clone(),
        req,
        sem: call.sem,
        attempt: attempts,
    };
    let target = NodeId(call.target);
    port.send(
        station.node,
        target,
        RPC_CHANNEL,
        pmp_trace::TraceCtx::NIL.wrap(&msg),
    );
    let delay = crate::rpc::backoff_delay(req, attempts);
    let token = port.set_timer(station.node, delay, crate::rpc::RPC_RETRY_TAG);
    station.rpc.arm(token, req);
}

/// Roaming side-effects that live above the extension base: when a node
/// departs, its movement history follows it to every neighbour base (the
/// paper's §4.5 data travels with the robot), and an incoming
/// [`BaseEvent::MovementImport`] is folded into the local movement store
/// — deduplicated by issue time so histories bouncing between bases
/// converge instead of growing.
fn handle_base_federation(station: &mut BaseStation, port: &mut dyn NetPort, evs: &[BaseEvent]) {
    for e in evs {
        match e {
            BaseEvent::NodeDeparted { node_name } => {
                let records: Vec<Vec<u8>> = station
                    .store
                    .by_robot(node_name)
                    .into_iter()
                    .map(pmp_wire::to_bytes)
                    .collect();
                if records.is_empty() {
                    continue;
                }
                let msg = MidasMsg::MovementExport {
                    node_name: node_name.clone(),
                    records,
                };
                for nb in station.base.neighbors().to_vec() {
                    port.send(
                        station.node,
                        nb,
                        pmp_midas::CHANNEL,
                        pmp_trace::TraceCtx::NIL.wrap(&msg),
                    );
                }
            }
            BaseEvent::MovementImport { node_name, records } => {
                let seen: std::collections::HashSet<u64> = station
                    .store
                    .by_robot(node_name)
                    .iter()
                    .map(|r| r.issued_at)
                    .collect();
                for raw in records {
                    let Ok(rec) = pmp_wire::from_bytes::<MovementRecord>(raw) else {
                        continue;
                    };
                    if rec.robot == *node_name && !seen.contains(&rec.issued_at) {
                        station.record_movement(rec);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Feeds one incoming event through a mobile node's stack, then flushes
/// anything the handlers queued on the host outbox.
pub(crate) fn dispatch_mobile(
    node: &mut MobileNode,
    port: &mut PortBuf,
    rpc: &mut Vec<RpcOutcome>,
    inc: &Incoming,
    tracer: Option<&Tracer>,
) {
    let evs = node
        .receiver
        .handle(port, &mut node.vm, &node.prose, inc);
    for e in &evs {
        match e {
            ReceiverEvent::Installed { base, .. } => node.home_base = Some(*base),
            // A roaming handoff rebound this node's grants in place: the
            // adopting base is its home now, without any re-delivery.
            ReceiverEvent::Rebound { base, .. } => node.home_base = Some(*base),
            _ => {}
        }
    }
    node.events.extend(evs);
    handle_node_channels(node, port, rpc, inc);
    // Any advice dispatch this event caused closes armed
    // first-interception watches (the `midas.intercept` leaf span).
    if let Some(t) = tracer {
        t.poll_interception(port.now().0, node.vm.stats().advice_dispatches);
    }
    flush_outbox(node, port);
}

fn handle_base_app(
    station: &mut BaseStation,
    port: &mut dyn NetPort,
    rpc: &mut Vec<RpcOutcome>,
    inc: &Incoming,
) {
    let Incoming::Message {
        channel, payload, ..
    } = inc
    else {
        return;
    };
    if &**channel == RPC_CHANNEL {
        if let Ok(Traced {
            msg: RpcMsg::Reply { req, ok, value },
            ..
        }) = pmp_wire::from_bytes::<Traced<RpcMsg>>(payload)
        {
            if station.rpc.is_outstanding(req) {
                // First reply to an engine-tracked call wins.
                station.rpc.resolve(req);
                rpc.push(RpcOutcome {
                    req,
                    ok,
                    value,
                    at: port.now().0,
                });
            } else if !station.rpc.recently_resolved(req) {
                // A legacy (maybe-semantics) call the engine never
                // tracked: surface it exactly as before. Replies to
                // recently-resolved ids are late duplicates from
                // retransmission — dropped.
                rpc.push(RpcOutcome {
                    req,
                    ok,
                    value,
                    at: port.now().0,
                });
            }
        }
        return;
    }
    if &**channel != APP_CHANNEL {
        return;
    }
    let Ok(msg) = pmp_wire::from_bytes::<AppMsg>(payload) else {
        return;
    };
    match msg {
        AppMsg::Monitor { record } => {
            station.record_movement(record);
        }
        AppMsg::Replicate { record } => {
            station.record_movement(record.clone());
            let routes = station
                .mirrors
                .get(&record.robot)
                .cloned()
                .unwrap_or_default();
            let from = station.node;
            for (replica, num, den) in routes {
                let mut scaled = record.clone();
                for a in &mut scaled.args {
                    *a = *a * num / den;
                }
                port.send(from, replica, MIRROR_CHANNEL, pmp_wire::to_bytes(&scaled));
            }
        }
        AppMsg::Charge {
            robot,
            reason,
            amount,
        } => {
            station.charges.push((robot, reason, amount));
        }
        AppMsg::Persist { robot, key, value } => {
            station.persisted.push((robot, key, value));
        }
    }
}

fn handle_node_channels(
    node: &mut MobileNode,
    port: &mut dyn NetPort,
    rpc: &mut Vec<RpcOutcome>,
    inc: &Incoming,
) {
    let Incoming::Message {
        from,
        channel,
        payload,
        ..
    } = inc
    else {
        return;
    };
    if &**channel == MIRROR_CHANNEL {
        if let Ok(record) = pmp_wire::from_bytes::<MovementRecord>(payload) {
            // Mirror application errors (frozen hardware etc.) are
            // isolated: a broken replica must not wedge the pump.
            let _ = pmp_extensions::replication::mirror_record(
                &mut node.vm,
                &node.motors,
                &record,
                1,
                1,
            );
        }
        return;
    }
    if &**channel != RPC_CHANNEL {
        return;
    }
    let Ok(env) = pmp_wire::from_bytes::<Traced<RpcMsg>>(payload) else {
        return;
    };
    let ctx = env.ctx;
    match env.msg {
        RpcMsg::Call {
            caller,
            class,
            method,
            args,
            req,
        } => {
            let (ok, value) = execute_service_call(node, caller, &class, &method, args);
            let reply = RpcMsg::Reply { req, ok, value };
            port.send(node.node, *from, RPC_CHANNEL, ctx.wrap(&reply));
        }
        RpcMsg::CallSem {
            caller,
            class,
            method,
            args,
            req,
            sem,
            attempt: _,
        } => {
            use crate::rpc::InvocationSemantics as Sem;
            // At-most-once: a duplicate whose id is cached is answered
            // from the dedup table without touching the service.
            if sem == Sem::AtMostOnce {
                if let Some((ok, value)) = node.rpc_server.dedup.lookup(req).cloned() {
                    node.rpc_server.dedup.hits += 1;
                    let reply = RpcMsg::Reply { req, ok, value };
                    port.send(node.node, *from, RPC_CHANNEL, ctx.wrap(&reply));
                    return;
                }
            }
            let (ok, value) = execute_service_call(node, caller, &class, &method, args);
            node.rpc_server.note_execution(req, sem);
            if sem == Sem::AtMostOnce {
                node.rpc_server.dedup.insert(req, ok, value.clone());
            }
            let reply = RpcMsg::Reply { req, ok, value };
            port.send(node.node, *from, RPC_CHANNEL, ctx.wrap(&reply));
        }
        RpcMsg::Reply { req, ok, value } => {
            rpc.push(RpcOutcome {
                req,
                ok,
                value,
                at: port.now().0,
            });
        }
    }
}

/// Runs one service invocation on the node's VM with `session.caller`
/// bound for the duration; returns `(ok, display value)`.
fn execute_service_call(
    node: &mut MobileNode,
    caller: String,
    class: &str,
    method: &str,
    args: Vec<i64>,
) -> (bool, String) {
    *node.wiring.caller.lock() = caller;
    let result = match node.services.get(class).cloned() {
        Some(svc) => node
            .vm
            .call(class, method, svc, args.into_iter().map(Value::Int).collect()),
        None => Err(VmError::link(format!("no service {class:?}"))),
    };
    *node.wiring.caller.lock() = String::new();
    match result {
        Ok(v) => (true, v.to_string()),
        Err(e) => (false, e.to_string()),
    }
}

/// Sends the host outbox to the node's home base ("first locally
/// stored", §4.4: without a home base the data stays queued).
pub(crate) fn flush_outbox(node: &mut MobileNode, port: &mut dyn NetPort) {
    let Some(home) = node.home_base else {
        return;
    };
    let msgs: Vec<AppMsg> = {
        let mut outbox = node.wiring.outbox.lock();
        if outbox.is_empty() {
            return;
        }
        outbox.drain(..).collect()
    };
    for m in msgs {
        port.send(node.node, home, APP_CHANNEL, pmp_wire::to_bytes(&m));
    }
}
