//! The execution engine: node cells and per-cell epoch dispatch.
//!
//! DESIGN.md §10 describes the model. In short, every pump is a loop of
//! *epochs*: the scheduler ([`pmp_net::Simulator`]) drains all events
//! within one conservative lookahead window partitioned by destination
//! node ([`Simulator::drain_epoch`](pmp_net::Simulator::drain_epoch)),
//! each busy node's stack — a `NodeCell` — computes against its own
//! batch with a private clock, a buffering network port, and a
//! buffering telemetry sink, and at the barrier the cells' effects are
//! merged back into the scheduler in deterministic
//! `(time, cell rank, emission seq)` order.
//!
//! Cells run on the calling thread, in rank order by default. Because
//! nothing a cell observes (its batch, its clock) or produces (ordered
//! commands, ordered events) depends on which cells ran before it, the
//! order they run in cannot change the result;
//! [`Platform::permute_cells`](crate::Platform::permute_cells) runs them
//! in a seeded random order so tests can check exactly that with
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
/// unit of work of one epoch. A cell's rank — its position in the
/// epoch's cell list, bases first then mobiles — fixes the merge order
/// of everything it produces, whatever order the cells ran in.
pub(crate) struct NodeCell<'a> {
    pub(crate) body: CellBody<'a>,
    pub(crate) state: &'a mut CellState,
    pub(crate) batch: Vec<TimedIncoming>,
    pub(crate) rpc: Vec<RpcOutcome>,
}

impl NodeCell<'_> {
    /// Dispatches the cell's whole batch. Call exactly once per epoch.
    pub(crate) fn run(&mut self) {
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
                        &item.incoming,
                        Some(&self.state.tracer),
                    );
                }
            }
        }
    }
}

// Compile-time audit that every layer of a node stack (VM, PROSE,
// MIDAS, robot hardware, wiring) is `Send`: a stack holds no `Rc` or
// other thread-bound handle, so it cannot share unsynchronised state
// with another cell behind the barrier's back.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<NodeCell<'static>>();
    assert_send::<MobileNode>();
    assert_send::<BaseStation>();
};

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

/// Drives the caller-side timer schedule: a fired `rpc.retry` timer
/// expires an unanswered maybe call silently, re-sends any other
/// outstanding call with the *same* request id (dedup is keyed on it)
/// and arms the next backoff step, or — once the attempt budget is
/// spent — resolves the call as a failed outcome. Runs inside the cell,
/// so retries are sharded and merged exactly like any other network
/// effect.
fn handle_rpc_retry(
    station: &mut BaseStation,
    port: &mut dyn NetPort,
    rpc: &mut Vec<RpcOutcome>,
    inc: &Incoming,
) {
    let Incoming::Timer { token, tag } = inc else {
        return;
    };
    if *tag != crate::rpc::RPC_RETRY_TAG {
        return;
    }
    let Some(req) = station.rpc.take_timer(*token) else {
        return;
    };
    let Some(call) = station.rpc.get(req) else {
        return; // resolved before the timer fired
    };
    if call.sem == crate::rpc::InvocationSemantics::Maybe {
        // One attempt, no outcome: maybe semantics allow a lost call.
        station.rpc.resolve(req);
        return;
    }
    if call.attempts >= crate::rpc::RPC_MAX_ATTEMPTS {
        let attempts = call.attempts;
        let issued_at = call.issued_at;
        station.rpc.exhausted += 1;
        station.rpc.resolve(req);
        rpc.push(RpcOutcome {
            req,
            ok: false,
            value: format!("rpc timeout after {attempts} attempts"),
            at: port.now().0,
            issued_at,
        });
        return;
    }
    let Some(attempts) = station.rpc.note_attempt(req) else {
        return;
    };
    let call = station.rpc.get(req).expect("attempt noted on live call");
    port.send(
        station.node,
        NodeId(call.target),
        RPC_CHANNEL,
        pmp_trace::TraceCtx::NIL.wrap(&call.frame(req)),
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
    handle_node_channels(node, port, inc);
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
        // Only an outstanding call produces an outcome: the first reply
        // resolves it. Late duplicates from retransmission and answers
        // to expired maybe calls find nothing outstanding and drop.
        if let Ok(Traced {
            msg: RpcMsg::Reply { req, ok, value },
            ..
        }) = pmp_wire::from_bytes::<Traced<RpcMsg>>(payload)
        {
            if let Some(call) = station.rpc.resolve(req) {
                rpc.push(RpcOutcome {
                    req,
                    ok,
                    value,
                    at: port.now().0,
                    issued_at: call.issued_at,
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

fn handle_node_channels(node: &mut MobileNode, port: &mut dyn NetPort, inc: &Incoming) {
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
    // Only base stations issue calls, and replies go to the caller: a
    // node serves `CallSem` frames and nothing else on this channel.
    let Ok(Traced {
        ctx,
        msg:
            RpcMsg::CallSem {
                caller,
                class,
                method,
                args,
                req,
                sem,
                ..
            },
    }) = pmp_wire::from_bytes::<Traced<RpcMsg>>(payload)
    else {
        return;
    };
    use crate::rpc::InvocationSemantics as Sem;
    // At-most-once: a duplicate whose id is cached is answered from the
    // dedup table without touching the service.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{InvocationSemantics, PendingCall};

    fn issue(station: &mut BaseStation, req: u64, sem: InvocationSemantics) {
        station.rpc.issue(
            req,
            PendingCall {
                target: 9,
                sem,
                caller: "operator:1".into(),
                class: "DrawingService".into(),
                method: "moveTo".into(),
                args: vec![1, 2],
                attempts: 1,
                issued_at: 10 + req,
            },
        );
    }

    fn reply(req: u64) -> Incoming {
        let msg = RpcMsg::Reply {
            req,
            ok: true,
            value: "()".into(),
        };
        Incoming::Message {
            from: NodeId(9),
            channel: Arc::from(RPC_CHANNEL),
            payload: pmp_trace::TraceCtx::NIL.wrap(&msg),
            sent_at: SimTime(0),
        }
    }

    fn station() -> (BaseStation, PortBuf) {
        let node = NodeId(0);
        (
            BaseStation::build(node, "hall", b"seed:hall"),
            PortBuf::new(node, ClockHandle::new()),
        )
    }

    #[test]
    fn only_an_outstanding_call_produces_an_outcome() {
        let (mut st, mut port) = station();
        let mut rpc = Vec::new();
        issue(&mut st, 42, InvocationSemantics::AtMostOnce);
        issue(&mut st, 43, InvocationSemantics::Maybe);
        // Late duplicates of 42 and 43 and an id never issued are dropped.
        for req in [42, 42, 43, 43, 99] {
            dispatch_base(&mut st, &mut port, &mut rpc, &reply(req));
        }
        let seen: Vec<(u64, u64)> = rpc.iter().map(|o| (o.req, o.issued_at)).collect();
        assert_eq!(seen, [(42, 52), (43, 53)]);
        assert_eq!(st.rpc.outstanding(), 0);
    }

    #[test]
    fn an_unanswered_maybe_call_expires_silently() {
        let (mut st, mut port) = station();
        let mut rpc = Vec::new();
        issue(&mut st, 7, InvocationSemantics::Maybe);
        st.rpc.arm(5, 7);
        let fire = Incoming::Timer {
            token: 5,
            tag: crate::rpc::RPC_RETRY_TAG,
        };
        dispatch_base(&mut st, &mut port, &mut rpc, &fire);
        assert!(rpc.is_empty(), "expiry surfaces no outcome");
        assert!(port.drain().is_empty(), "no resend, no new timer");
        assert_eq!(st.rpc.retries, 0);
        assert!(st.rpc.get(7).is_none());
        // Its reply, arriving after the expiry, surfaces nothing either.
        dispatch_base(&mut st, &mut port, &mut rpc, &reply(7));
        assert!(rpc.is_empty());
    }
}
