//! The platform: owns the simulated world and drives every node's
//! protocol stacks — the glue that turns the substrate crates into the
//! paper's running system.

use crate::driver::{flush_outbox, CellBody, CellState, Driver, NodeCell};
use crate::node::{BaseStation, MobileNode};
use crate::wiring::{RpcMsg, RPC_CHANNEL};
use pmp_durable::{Durable, WalRecord};
use pmp_midas::ReceiverPolicy;
use pmp_net::{AreaId, Epoch, Position, SimTime, Simulator};
use pmp_stream::{StreamConfig, StreamEvent, StreamHub, StreamSource, StreamStats, SubscriberId};
use pmp_telemetry::PendingEvent;
use pmp_vm::perm::Permissions;
use pmp_vm::prelude::VmError;
use std::sync::{Arc, Mutex};

/// Index of a base station within a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseId(pub usize);

/// Index of a mobile node within a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MobId(pub usize);

/// Handle naming one stream subscription: a cursor on one base's
/// fan-out hub (see [`Platform::subscribe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSub {
    base: usize,
    id: SubscriberId,
}

/// [`StreamSource`] over one base station: the committed WAL serves
/// tier-1 gap bootstrap, the live durable states serve tier-2
/// snapshots. Valid at barriers, where in-memory state and committed
/// log agree.
struct BaseSource<'a> {
    station: &'a BaseStation,
}

impl StreamSource for BaseSource<'_> {
    fn full_log(&self) -> Option<Vec<WalRecord>> {
        self.station.durable.wal_tail(1)
    }

    fn snapshot(&self, ns: &str) -> Option<Vec<u8>> {
        if ns == pmp_store::durable::NAMESPACE {
            Some(self.station.store.snapshot_bytes())
        } else if ns == pmp_midas::durable::NAMESPACE {
            Some(self.station.base.snapshot_bytes())
        } else if ns == pmp_trace::FLIGHT_NAMESPACE {
            Some(self.station.flight.snapshot_bytes())
        } else {
            None
        }
    }
}

/// A completed remote call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcOutcome {
    /// The request id returned by [`Platform::rpc`].
    pub req: u64,
    /// Whether the call completed normally.
    pub ok: bool,
    /// Display form of the result (or the error text).
    pub value: String,
    /// Simulated time the outcome was observed at the caller's base.
    /// Outcomes merge at the epoch barrier sorted by `(at, req)`, so
    /// their order is a pure function of the simulation — not of which
    /// driver or thread count ran the cells.
    pub at: u64,
}

/// The proactive middleware platform over one simulated world.
///
/// # Examples
///
/// ```
/// use pmp_core::{Platform};
/// use pmp_net::Position;
/// use pmp_vm::perm::Permissions;
///
/// # fn main() -> Result<(), pmp_vm::VmError> {
/// let mut p = Platform::new(7);
/// p.add_area("hall-a", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
/// let base = p.add_base("hall-a", Position::new(30.0, 30.0), 80.0);
/// let policy = p.trusting_policy(&[base], Permissions::all());
/// let robot = p.add_robot("robot:1:1", Position::new(40.0, 30.0), 80.0, policy)?;
/// p.pump_millis(3_000);
/// assert!(p.node(robot).name == "robot:1:1");
/// # Ok(())
/// # }
/// ```
pub struct Platform {
    /// The simulated world.
    pub sim: Simulator,
    bases: Vec<BaseStation>,
    nodes: Vec<MobileNode>,
    /// Per-cell runtime state, parallel to `bases` / `nodes`.
    base_cells: Vec<CellState>,
    node_cells: Vec<CellState>,
    next_req: u64,
    rpc_outcomes: Vec<RpcOutcome>,
    /// Issue time per in-flight request id, for the `rpc.latency_ns`
    /// histogram recorded at outcome merge. Bounded: entries leave on
    /// outcome, and the oldest are shed past a fixed cap (lost
    /// maybe-calls never produce outcomes).
    rpc_issue_at: std::collections::BTreeMap<u64, u64>,
    telemetry: pmp_telemetry::Shared,
    driver: Box<dyn Driver>,
    /// Base-tier span collector, fed from every cell tracer at epoch
    /// barriers (see `pmp-trace`).
    collector: pmp_trace::Collector,
    tracing: bool,
    /// Optimization reports from every publish, in publish order
    /// (`(extension id, report)`).
    opt_reports: Vec<(String, pmp_midas::OptReport)>,
    /// Federation topology, as base-index pairs. Like mirror routes,
    /// this is operator configuration — held by the platform so
    /// [`Platform::restart_base`] can re-wire a freshly rebuilt station.
    fed_neighbors: Vec<(usize, usize)>,
    /// Replication links (catalog + lease-table anti-entropy), symmetric.
    fed_replicas: Vec<(usize, usize)>,
    /// Registrar-tree edges: `(child base, parent base)`.
    fed_parents: Vec<(usize, usize)>,
    /// Per-base fan-out hub (parallel to `bases`): every committed WAL
    /// record is published here as a rev-stamped delta at the same
    /// barrier that committed it.
    streams: Vec<StreamHub>,
    /// Per-base commit-tap buffers (parallel to `bases`): the engine's
    /// commit tap pushes each committed batch here under the engine
    /// lock; the platform drains them into the hubs at barriers.
    stream_taps: Vec<Arc<Mutex<Vec<WalRecord>>>>,
    /// Internal catalog-stream forwarders for replicated bases:
    /// `(source base, replica base, cursor on source hub)`. Deltas that
    /// decode as catalog puts are forwarded over the simulated network
    /// as [`pmp_midas::MidasMsg::StreamDelta`].
    fed_stream_subs: Vec<(usize, usize, SubscriberId)>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("bases", &self.bases.len())
            .field("nodes", &self.nodes.len())
            .field("now", &self.sim.now())
            .field("driver", &self.driver.name())
            .finish()
    }
}

impl Platform {
    /// Creates a platform over a fresh deterministic world.
    pub fn new(seed: u64) -> Platform {
        Self::with_link(seed, pmp_net::LinkModel::default())
    }

    /// Creates a platform with an explicit radio link model (lossy
    /// worlds for failure testing).
    pub fn with_link(seed: u64, link: pmp_net::LinkModel) -> Platform {
        let telemetry = pmp_telemetry::Shared::new();
        let mut sim = Simulator::with_link(seed, link);
        sim.attach_telemetry(&telemetry);
        Platform {
            sim,
            bases: Vec::new(),
            nodes: Vec::new(),
            base_cells: Vec::new(),
            node_cells: Vec::new(),
            next_req: 1,
            rpc_outcomes: Vec::new(),
            rpc_issue_at: std::collections::BTreeMap::new(),
            telemetry,
            driver: crate::driver::driver_from_env(),
            collector: pmp_trace::Collector::default(),
            tracing: false,
            opt_reports: Vec::new(),
            fed_neighbors: Vec::new(),
            fed_replicas: Vec::new(),
            fed_parents: Vec::new(),
            streams: Vec::new(),
            stream_taps: Vec::new(),
            fed_stream_subs: Vec::new(),
        }
    }

    /// Optimization reports of every [`Platform::publish_extension`]
    /// so far, in publish order.
    pub fn opt_reports(&self) -> &[(String, pmp_midas::OptReport)] {
        &self.opt_reports
    }

    /// Turns causal span tracing on or off for every node cell. Off by
    /// default: contexts still travel in the wire envelopes (16 nil
    /// bytes), but no spans are minted and the collector stays empty.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for cell in self.base_cells.iter().chain(&self.node_cells) {
            cell.tracer.set_enabled(on);
        }
    }

    /// Whether span tracing is enabled.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Installs the epoch driver (serial is the default; `PMP_DRIVER=parallel`
    /// selects the sharded driver at construction). Both drivers run the
    /// same drain → compute → merge pipeline, so digests are identical.
    pub fn set_driver(&mut self, driver: Box<dyn Driver>) {
        self.driver = driver;
    }

    /// The active driver's name (`"serial"` / `"parallel"`).
    pub fn driver_name(&self) -> &'static str {
        self.driver.name()
    }

    /// The platform-wide telemetry (sim-clocked registry + journal):
    /// the network simulator, every registrar, every extension base,
    /// and every adaptation service record into it. Per-node VM
    /// metrics live in each node's own registry
    /// ([`MobileNode::vm`]'s `telemetry()`).
    pub fn telemetry(&self) -> &pmp_telemetry::Shared {
        // Merge any cell-buffered journal events emitted since the last
        // pump barrier (direct-path operations between pumps).
        flush_cell_events(&self.telemetry, &self.base_cells, &self.node_cells);
        &self.telemetry
    }

    /// Renders the platform registry plus every node's VM registry as
    /// one text report — the per-scenario telemetry summary.
    pub fn render_telemetry(&self) -> String {
        flush_cell_events(&self.telemetry, &self.base_cells, &self.node_cells);
        let mut out = String::new();
        out.push_str("== platform ==\n");
        out.push_str(&self.telemetry.render_table());
        for n in &self.nodes {
            out.push_str(&format!("== vm {} ==\n", n.name));
            out.push_str(&n.vm.telemetry().render_table());
        }
        out
    }

    /// Adds a rectangular area (production hall).
    pub fn add_area(&mut self, name: &str, min: Position, max: Position) -> AreaId {
        self.sim.add_area(name, min, max)
    }

    /// Adds a base station for `hall` at `pos`; its registrar and
    /// extension base start immediately.
    pub fn add_base(&mut self, hall: &str, pos: Position, range: f64) -> BaseId {
        let node = self.sim.add_node(format!("base:{hall}"), pos, range);
        let cell = CellState::new(node, self.sim.now(), &self.telemetry);
        let mut station = BaseStation::build(node, hall, format!("seed:{hall}").as_bytes());
        // Engine telemetry goes direct: its journal events (snapshot/
        // compact/recover) are emitted only at main-thread barriers, so
        // both drivers see them at identical sequence points.
        station
            .durable
            .attach_sink(pmp_telemetry::Sink::direct(&self.telemetry));
        station.registrar.attach_sink(cell.sink.clone());
        station.base.attach_sink(cell.sink.clone());
        station.base.attach_tracer(cell.tracer.clone());
        cell.tracer.set_enabled(self.tracing);
        station.registrar.start(&mut self.sim);
        station.base.start(&mut self.sim);
        // Every committed WAL batch is mirrored into a per-base tap
        // buffer; at the same barrier that ran the commit, the platform
        // drains it into the base's fan-out hub (one rev per record per
        // namespace, encoded once).
        let tap: Arc<Mutex<Vec<WalRecord>>> = Arc::default();
        let sink = Arc::clone(&tap);
        station.durable.set_commit_tap(Box::new(move |batch| {
            sink.lock().unwrap().extend_from_slice(batch);
        }));
        self.streams.push(StreamHub::new(StreamConfig::default()));
        self.stream_taps.push(tap);
        self.bases.push(station);
        self.base_cells.push(cell);
        BaseId(self.bases.len() - 1)
    }

    /// Kills a base station: its uncommitted WAL batch and unsynced
    /// disk bytes are lost (exactly what a power cut would take), and
    /// until [`Platform::restart_base`] the node answers nothing —
    /// traffic addressed to it is dropped.
    pub fn crash_base(&mut self, id: BaseId) {
        let station = &mut self.bases[id.0];
        station.crashed = true;
        station.durable.crash();
        self.telemetry.event(
            pmp_telemetry::Subsystem::Durable,
            "crash",
            format!("base {}", station.name),
        );
    }

    /// Brings a crashed base back: fresh registrar and extension base
    /// over the surviving storage engine, state recovered from the
    /// committed image. Receivers whose lease renewals now fail
    /// re-advertise, and the recovered lease table lets the base renew
    /// grants instead of re-delivering its catalog.
    pub fn restart_base(&mut self, id: BaseId) -> pmp_durable::RecoverReport {
        let old = &self.bases[id.0];
        let (node, name) = (old.node, old.name.clone());
        let hub = old.durable.clone();
        // Mirror routes are operator configuration held for the base,
        // not base memory — they survive the restart.
        let mirrors = old.mirrors.clone();
        let mut station =
            BaseStation::build_with_hub(node, &name, format!("seed:{name}").as_bytes(), hub);
        station.mirrors = mirrors;
        // Federation topology is operator configuration too: re-wire the
        // fresh base/registrar from the platform's records so handoffs,
        // anti-entropy, and directory routing resume after the restart.
        for &(x, y) in &self.fed_neighbors {
            if x == id.0 {
                station.base.add_neighbor(self.bases[y].node);
            } else if y == id.0 {
                station.base.add_neighbor(self.bases[x].node);
            }
        }
        for &(x, y) in &self.fed_replicas {
            if x == id.0 {
                station.base.add_replica(self.bases[y].node);
            } else if y == id.0 {
                station.base.add_replica(self.bases[x].node);
            }
        }
        for &(c, p) in &self.fed_parents {
            if c == id.0 {
                station.registrar.set_parent(self.bases[p].node);
            } else if p == id.0 {
                station.registrar.add_child(self.bases[c].node);
            }
        }
        let report = station.recover();
        let cell = &self.base_cells[id.0];
        station.registrar.attach_sink(cell.sink.clone());
        station.base.attach_sink(cell.sink.clone());
        station.base.attach_tracer(cell.tracer.clone());
        station.registrar.start(&mut self.sim);
        station.base.start(&mut self.sim);
        // Calls that were outstanding at the crash survived in the
        // recovered `"rpc.calls"` table; re-arm their retransmission
        // timers under the *same* request ids. The servers' dedup
        // tables make this safe for at-most-once calls — a resend of a
        // request that executed before the crash is answered from
        // cache, never re-executed.
        for req in station.rpc.rearm_tokens() {
            let attempts = station.rpc.get(req).map_or(1, |c| c.attempts);
            let delay = crate::rpc::backoff_delay(req, attempts);
            let token = self.sim.set_timer(node, delay, crate::rpc::RPC_RETRY_TAG);
            station.rpc.arm(token, req);
        }
        self.bases[id.0] = station;
        // Streams: recovery may have rolled history back (a truncated
        // torn tail, a checkpoint-on-anomaly), so drop anything the tap
        // buffered before the crash, re-align publisher revs with the
        // recovered log, and force every cursor through snapshot
        // resync. Subscribers converge on the recovered state without
        // ever seeing a rev go backwards unannounced.
        self.stream_taps[id.0].lock().unwrap().clear();
        let Platform { bases, streams, .. } = self;
        streams[id.0].rebase(&BaseSource {
            station: &bases[id.0],
        });
        report
    }

    /// Snapshots a base's durable state and compacts its WAL now
    /// (checkpoints also fire automatically once enough records commit;
    /// see [`pmp_durable::EngineConfig::snapshot_every`]).
    pub fn checkpoint_base(&mut self, id: BaseId) {
        self.bases[id.0].checkpoint();
    }

    /// Subscribes to a base's durable namespace from scratch: the first
    /// drain replays the namespace's full history — as deltas when the
    /// ring or committed log still covers it, as one canonical snapshot
    /// otherwise — and every later drain returns exactly the deltas
    /// committed since. Namespaces are the base's durable stores:
    /// `"store.movements"`, `"midas.base"`, `"trace.flight"`.
    pub fn subscribe(&mut self, base: BaseId, ns: &str) -> StreamSub {
        StreamSub {
            base: base.0,
            id: self.streams[base.0].subscribe(ns),
        }
    }

    /// Subscribes at the head: only records committed after this call
    /// are streamed.
    pub fn subscribe_live(&mut self, base: BaseId, ns: &str) -> StreamSub {
        StreamSub {
            base: base.0,
            id: self.streams[base.0].subscribe_live(ns),
        }
    }

    /// Drains a subscription's pending updates. Call between pumps —
    /// publication happens at epoch barriers, so what you get is
    /// exactly the committed record stream up to the last barrier,
    /// byte-identical under either driver. While the base is crashed
    /// this returns nothing (the publisher is powered off with it).
    pub fn drain_updates(&mut self, sub: StreamSub) -> Vec<StreamEvent> {
        let Platform { bases, streams, .. } = self;
        let station = &bases[sub.base];
        if station.crashed {
            return Vec::new();
        }
        streams[sub.base].drain(sub.id, &BaseSource { station })
    }

    /// Retires a subscription; its cursor is freed and later drains
    /// return nothing.
    pub fn drop_subscription(&mut self, sub: StreamSub) {
        self.streams[sub.base].drop_subscriber(sub.id);
    }

    /// Fan-out counters for one base's hub — `encoded` counts each
    /// delta once at publish (independent of subscriber count), while
    /// `delivered` counts every per-subscriber delivery.
    #[must_use]
    pub fn stream_stats(&self, base: BaseId) -> StreamStats {
        self.streams[base.0].stats()
    }

    /// Current head rev of a base's namespace stream.
    #[must_use]
    pub fn stream_head_rev(&self, base: BaseId, ns: &str) -> u64 {
        self.streams[base.0].head_rev(ns)
    }

    /// Live subscriber count on a base's hub (internal federation
    /// forwarders included).
    #[must_use]
    pub fn stream_subscribers(&self, base: BaseId) -> usize {
        self.streams[base.0].live_subscribers()
    }

    /// A receiver policy trusting the given bases' authorities, each
    /// capped at `cap`.
    pub fn trusting_policy(&self, bases: &[BaseId], cap: Permissions) -> ReceiverPolicy {
        let mut policy = ReceiverPolicy::new();
        for b in bases {
            let principal = self.bases[b.0].principal();
            policy.set_signer_cap(principal.name.clone(), cap);
            policy.trust.add(principal);
        }
        policy
    }

    fn add_mobile(
        &mut self,
        name: &str,
        pos: Position,
        range: f64,
        policy: ReceiverPolicy,
        with_robot: bool,
    ) -> Result<MobId, VmError> {
        let node = self.sim.add_node(name, pos, range);
        // The node's whole stack (VM, robot, receiver events) reads the
        // cell clock, not the global one: during an epoch the cell sees
        // the timestamp of the event it is dispatching, wherever the
        // other cells have got to.
        let cell = CellState::new(node, self.sim.now(), &self.telemetry);
        let mut mobile = MobileNode::build(node, name, policy, cell.clock_fn(), with_robot)?;
        mobile.receiver.attach_sink(cell.sink.clone());
        mobile.receiver.attach_tracer(cell.tracer.clone());
        cell.tracer.set_enabled(self.tracing);
        mobile.receiver.start(&mut self.sim);
        self.nodes.push(mobile);
        self.node_cells.push(cell);
        Ok(MobId(self.nodes.len() - 1))
    }

    /// Adds a robot node (plotter hardware + drawing service).
    ///
    /// # Errors
    ///
    /// VM registration failures.
    pub fn add_robot(
        &mut self,
        name: &str,
        pos: Position,
        range: f64,
        policy: ReceiverPolicy,
    ) -> Result<MobId, VmError> {
        self.add_mobile(name, pos, range, policy, true)
    }

    /// Adds a bare mobile node (e.g. a PDA) without robot hardware.
    ///
    /// # Errors
    ///
    /// VM registration failures.
    pub fn add_device(
        &mut self,
        name: &str,
        pos: Position,
        range: f64,
        policy: ReceiverPolicy,
    ) -> Result<MobId, VmError> {
        self.add_mobile(name, pos, range, policy, false)
    }

    /// Immutable base access.
    pub fn base(&self, id: BaseId) -> &BaseStation {
        &self.bases[id.0]
    }

    /// Mutable base access.
    pub fn base_mut(&mut self, id: BaseId) -> &mut BaseStation {
        &mut self.bases[id.0]
    }

    /// Immutable mobile-node access.
    pub fn node(&self, id: MobId) -> &MobileNode {
        &self.nodes[id.0]
    }

    /// Mutable mobile-node access.
    pub fn node_mut(&mut self, id: MobId) -> &mut MobileNode {
        &mut self.nodes[id.0]
    }

    /// Moves a mobile node.
    pub fn move_node(&mut self, id: MobId, pos: Position) {
        let node = self.nodes[id.0].node;
        self.sim.move_node(node, pos);
    }

    /// Seals `pkg` with `base`'s authority and adds it to the catalog;
    /// nodes already adapted receive a live replacement
    /// ([`pmp_midas::base::ExtensionBase::update_extension`]).
    pub fn publish_extension(&mut self, base: BaseId, pkg: &pmp_midas::ExtensionPackage) {
        // Weave-time optimization at the base, between admission and
        // shipping: smaller, devirtualised advice bodies go over the
        // air; receivers re-verify whatever arrives.
        let opt_start = std::time::Instant::now();
        let (optimized, report) = pmp_midas::optimize_package(pkg);
        let ns = opt_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.telemetry.record("analyze.opt.ns", ns);
        self.telemetry
            .record("analyze.opt.removed_ops", report.total_removed() as u64);
        self.telemetry
            .record("analyze.opt.hoistable", report.hoisted.len() as u64);
        self.telemetry.event(
            pmp_telemetry::Subsystem::Midas,
            "analyze.opt",
            format!(
                "{}: -{} ops, {} hoistable, validated {}",
                pkg.meta.id,
                report.total_removed(),
                report.hoisted.len(),
                report.all_validated(),
            ),
        );
        self.opt_reports.push((pkg.meta.id.clone(), report));
        let sign_start = std::time::Instant::now();
        let sealed = self.bases[base.0].seal(&optimized);
        let ns = sign_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.telemetry.record("midas.base.sign_ns", ns);
        self.telemetry.event(
            pmp_telemetry::Subsystem::Midas,
            "midas.sign",
            format!("{} by {}", pkg.meta.id, sealed.signer()),
        );
        // The adaptation's trace roots here: publish → sign, then the
        // base mints one ship child per delivery, the receivers verify/
        // weave children of those, and the first interception closes it.
        let now = self.sim.now().0;
        let tracer = &self.base_cells[base.0].tracer;
        let root = tracer.root(now, "midas.publish", &pkg.meta.id);
        let sign_ctx = tracer.child(
            root,
            now,
            "midas.sign",
            &format!("{} by {}", pkg.meta.id, sealed.signer()),
        );
        self.bases[base.0]
            .base
            .update_extension_traced(&mut self.sim, sealed, sign_ctx);
    }

    /// Revokes an extension hall-wide: removed from the catalog and
    /// withdrawn from every adapted node.
    pub fn revoke_extension(&mut self, base: BaseId, ext_id: &str, reason: &str) {
        self.bases[base.0]
            .base
            .revoke_extension(&mut self.sim, ext_id, reason);
    }

    /// Makes two bases roaming neighbours (both directions) over a
    /// wired backhaul segment: when a node departs one, the other
    /// receives a handoff record — grants, leases, and (via the driver)
    /// movement history — regardless of radio range (paper §3.2's
    /// roaming algorithm, federated).
    pub fn link_bases(&mut self, a: BaseId, b: BaseId) {
        let (na, nb) = (self.bases[a.0].node, self.bases[b.0].node);
        self.bases[a.0].base.add_neighbor(nb);
        self.bases[b.0].base.add_neighbor(na);
        self.sim.add_wired_link(na, nb);
        let pair = (a.0.min(b.0), a.0.max(b.0));
        if !self.fed_neighbors.contains(&pair) {
            self.fed_neighbors.push(pair);
        }
    }

    /// Makes two bases replicas of each other: on top of the neighbour
    /// handoff path, each base anti-entropies its catalog
    /// (digest → pull → push over the WAL'd catalog ops) and mirrors
    /// its lease table into the other's roaming cache, so either side
    /// can adopt the other's nodes without re-delivery.
    pub fn replicate_bases(&mut self, a: BaseId, b: BaseId) {
        let (na, nb) = (self.bases[a.0].node, self.bases[b.0].node);
        self.bases[a.0].base.add_replica(nb);
        self.bases[b.0].base.add_replica(na);
        self.sim.add_wired_link(na, nb);
        let pair = (a.0.min(b.0), a.0.max(b.0));
        if !self.fed_replicas.contains(&pair) {
            self.fed_replicas.push(pair);
            // Anti-entropy rides the stream: each side's catalog
            // namespace gets a live internal cursor whose deltas are
            // forwarded to the other base at every barrier. The timer
            // digest → pull → push exchange stays as the resync anchor
            // for anything the stream loses to partitions or crashes.
            let sa = self.streams[a.0].subscribe_live(pmp_midas::durable::NAMESPACE);
            self.fed_stream_subs.push((a.0, b.0, sa));
            let sb = self.streams[b.0].subscribe_live(pmp_midas::durable::NAMESPACE);
            self.fed_stream_subs.push((b.0, a.0, sb));
        }
    }

    /// Full federation between two bases: roaming neighbours *and*
    /// replicas (see [`Platform::link_bases`] and
    /// [`Platform::replicate_bases`]).
    pub fn federate_bases(&mut self, a: BaseId, b: BaseId) {
        self.link_bases(a, b);
        self.replicate_bases(a, b);
    }

    /// Wires `child`'s registrar under `parent`'s in the directory tree
    /// (wired backhaul between them): service lookups entered anywhere
    /// in the tree route hop-by-hop toward whichever registrar holds a
    /// match (see `pmp-discovery`'s directory tier).
    pub fn set_directory_parent(&mut self, child: BaseId, parent: BaseId) {
        let (nc, np) = (self.bases[child.0].node, self.bases[parent.0].node);
        self.bases[child.0].registrar.set_parent(np);
        self.bases[parent.0].registrar.add_child(nc);
        self.sim.add_wired_link(nc, np);
        if !self.fed_parents.contains(&(child.0, parent.0)) {
            self.fed_parents.push((child.0, parent.0));
        }
    }

    /// Builds a `branching`-ary registrar tree over every base added so
    /// far (base 0 is the root): the directory tier for federated
    /// lookups. Lookup cost is then O(log_branching(bases)) hops.
    pub fn federate_tree(&mut self, branching: usize) {
        let branching = branching.max(2);
        for i in 1..self.bases.len() {
            let parent = (i - 1) / branching;
            self.set_directory_parent(BaseId(i), BaseId(parent));
        }
    }

    /// Issues a federated service lookup from `base`: the query enters
    /// the directory tier at the base's own registrar (loopback) and
    /// routes through the registrar tree. The answer arrives as
    /// [`pmp_discovery::DiscoveryEvent::FedLookupDone`] in
    /// [`Platform::take_discoveries`] after pumping.
    pub fn fed_lookup(&mut self, base: BaseId, query: pmp_discovery::ServiceQuery) -> u64 {
        let node = self.bases[base.0].node;
        self.bases[base.0].lookup.fed_lookup(&mut self.sim, node, query)
    }

    /// Drains the discovery events surfaced at `base` (federated lookup
    /// results land here).
    pub fn take_discoveries(&mut self, base: BaseId) -> Vec<pmp_discovery::DiscoveryEvent> {
        std::mem::take(&mut self.bases[base.0].discoveries)
    }

    /// Registers a service item at `base`'s own registrar (loopback),
    /// making it reachable from every other base through the directory
    /// tier's federated lookups.
    pub fn register_service(
        &mut self,
        base: BaseId,
        item: pmp_discovery::ServiceItem,
        lease_ns: u64,
    ) -> u64 {
        let node = self.bases[base.0].node;
        self.bases[base.0]
            .lookup
            .register(&mut self.sim, node, item, lease_ns)
    }

    /// Routes movements of `source_robot` (as observed by `base`) to a
    /// replica robot, scaled by `num/den` (paper §4.5 remote
    /// replication).
    pub fn mirror(&mut self, base: BaseId, source_robot: &str, replica: MobId, num: i64, den: i64) {
        assert!(den != 0, "scale denominator must be nonzero");
        let replica_node = self.nodes[replica.0].node;
        self.bases[base.0]
            .mirrors
            .entry(source_robot.to_string())
            .or_default()
            .push((replica_node, num, den));
    }

    /// Issues a remote service call to `target` from `base`'s node
    /// (Fig. 2: the remote invocation of `m_R`). The outcome arrives in
    /// [`Platform::take_rpc_outcomes`] after pumping.
    pub fn rpc(
        &mut self,
        base: BaseId,
        target: MobId,
        caller: &str,
        class: &str,
        method: &str,
        args: Vec<i64>,
    ) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        let msg = RpcMsg::Call {
            caller: caller.to_string(),
            class: class.to_string(),
            method: method.to_string(),
            args,
            req,
        };
        let from = self.bases[base.0].node;
        let to = self.nodes[target.0].node;
        let ctx = self.base_cells[base.0].tracer.root(
            self.sim.now().0,
            "rpc.call",
            &format!("{class}.{method} -> n{}", to.0),
        );
        self.note_rpc_issue(req);
        self.sim.send(from, to, RPC_CHANNEL, ctx.wrap(&msg));
        req
    }

    /// Issues a remote service call with explicit invocation semantics
    /// (DESIGN.md §17). [`InvocationSemantics::Maybe`](crate::rpc::InvocationSemantics::Maybe)
    /// behaves exactly like [`Platform::rpc`]: one transmission, no
    /// retries. The other two register the call with `base`'s durable
    /// RPC engine, which retransmits on a deterministic exponential
    /// backoff until the first reply or the attempt budget resolves it.
    #[allow(clippy::too_many_arguments)]
    pub fn rpc_with(
        &mut self,
        base: BaseId,
        target: MobId,
        caller: &str,
        class: &str,
        method: &str,
        args: Vec<i64>,
        sem: crate::rpc::InvocationSemantics,
    ) -> u64 {
        if sem == crate::rpc::InvocationSemantics::Maybe {
            return self.rpc(base, target, caller, class, method, args);
        }
        let req = self.next_req;
        self.next_req += 1;
        let from = self.bases[base.0].node;
        let to = self.nodes[target.0].node;
        let now = self.sim.now().0;
        let msg = RpcMsg::CallSem {
            caller: caller.to_string(),
            class: class.to_string(),
            method: method.to_string(),
            args: args.clone(),
            req,
            sem,
            attempt: 1,
        };
        let ctx = self.base_cells[base.0].tracer.root(
            now,
            "rpc.call",
            &format!("{class}.{method} [{sem}] -> n{}", to.0),
        );
        let station = &mut self.bases[base.0];
        station.rpc.issue(
            req,
            crate::rpc::PendingCall {
                target: to.0,
                sem,
                caller: caller.to_string(),
                class: class.to_string(),
                method: method.to_string(),
                args,
                attempts: 1,
                issued_at: now,
            },
        );
        self.note_rpc_issue(req);
        self.sim.send(from, to, RPC_CHANNEL, ctx.wrap(&msg));
        let delay = crate::rpc::backoff_delay(req, 1);
        let token = self.sim.set_timer(from, delay, crate::rpc::RPC_RETRY_TAG);
        self.bases[base.0].rpc.arm(token, req);
        req
    }

    /// Records the issue time of `req` for the `rpc.latency_ns`
    /// histogram, shedding the oldest entries past a fixed cap.
    fn note_rpc_issue(&mut self, req: u64) {
        self.rpc_issue_at.insert(req, self.sim.now().0);
        while self.rpc_issue_at.len() > 4_096 {
            self.rpc_issue_at.pop_first();
        }
    }

    /// Ships an already-sealed extension from `base` to its hall —
    /// the door through which the chaos harness drives *hostile*
    /// packages (tampered signatures, foreign signers) at the MIDAS
    /// admission gate. Normal publishes go through
    /// [`Platform::publish_extension`], which optimizes and seals with
    /// the hall authority.
    pub fn publish_sealed(&mut self, base: BaseId, sealed: pmp_midas::SignedExtension) {
        let Platform { sim, bases, .. } = self;
        bases[base.0].base.update_extension(sim, sealed);
    }

    /// Drains completed remote calls.
    pub fn take_rpc_outcomes(&mut self) -> Vec<RpcOutcome> {
        std::mem::take(&mut self.rpc_outcomes)
    }

    /// Pumps the world for `ns` of simulated time: epoch by epoch, the
    /// scheduler drains every event within the conservative lookahead
    /// window, the active driver runs each busy node cell against its
    /// batch, and the cells' effects merge back at the barrier in
    /// `(time, cell rank, emission seq)` order (DESIGN.md §10).
    pub fn pump(&mut self, ns: u64) {
        let until = self.sim.now().plus(ns);
        // Outboxes may hold data queued by direct VM calls since the
        // last pump; ship it before the first epoch.
        self.preflush_outboxes();
        while let Some(epoch) = self.sim.drain_epoch(until) {
            self.run_epoch(epoch);
        }
        if self.sim.now() < until {
            self.sim.run_until(until);
        }
        // Cells idle until their next event; park their clocks at the
        // global time so direct calls between pumps read current time.
        let now = self.sim.now();
        for cell in self.base_cells.iter().chain(&self.node_cells) {
            cell.clock.set(now);
        }
        // Pump end is a quiescent barrier: drain spans minted by direct
        // calls since the last epoch, commit anything appended, and
        // take any snapshot the engine's record budget asks for.
        self.drain_spans_now();
        for station in &mut self.bases {
            if station.crashed {
                continue;
            }
            station.durable.commit();
            if station.durable.should_checkpoint() {
                station.checkpoint();
            }
        }
        let Platform {
            sim,
            bases,
            streams,
            stream_taps,
            fed_stream_subs,
            telemetry,
            ..
        } = self;
        publish_and_forward(sim, bases, streams, stream_taps, fed_stream_subs, telemetry);
        flush_cell_events(&self.telemetry, &self.base_cells, &self.node_cells);
    }

    /// Pumps for `ms` milliseconds of simulated time.
    pub fn pump_millis(&mut self, ms: u64) {
        self.pump(ms * 1_000_000);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Stable 64-bit digest of the network trace (enable
    /// `sim.trace.set_logging(true)` first for per-delivery coverage).
    #[must_use]
    pub fn trace_digest(&self) -> u64 {
        self.sim.trace_digest()
    }

    /// Stable 64-bit digest over the platform journal plus every
    /// node-VM journal — the observable event history of a run.
    #[must_use]
    pub fn journal_digest(&self) -> u64 {
        flush_cell_events(&self.telemetry, &self.base_cells, &self.node_cells);
        let mut h = pmp_telemetry::Fnv64::new();
        h.write_u64(self.telemetry.journal_digest());
        h.write_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.write_u64(n.vm.telemetry().journal.digest());
        }
        h.finish()
    }

    /// Flushes every mobile node's outbox through its cell port at the
    /// current time (rank order, so the merge stays deterministic).
    fn preflush_outboxes(&mut self) {
        let Platform {
            sim,
            nodes,
            node_cells,
            ..
        } = self;
        let now = sim.now();
        let mut cmds = Vec::new();
        for (node, cell) in nodes.iter_mut().zip(node_cells.iter_mut()) {
            cell.clock.set(now);
            flush_outbox(node, &mut cell.port);
            cmds.extend(cell.port.drain());
        }
        sim.apply_cmds(cmds);
    }

    /// Runs one epoch: batch routing → driver compute → barrier merge.
    fn run_epoch(&mut self, epoch: Epoch) {
        let Platform {
            sim,
            bases,
            nodes,
            base_cells,
            node_cells,
            rpc_outcomes,
            rpc_issue_at,
            telemetry,
            driver,
            collector,
            streams,
            stream_taps,
            fed_stream_subs,
            ..
        } = self;

        // Route each destination's batch to its cell, bases first —
        // rank order fixes the merge order below.
        let mut batches = epoch.batches;
        let mut take = |node: pmp_net::NodeId| -> Vec<pmp_net::TimedIncoming> {
            batches
                .get_mut(node.0 as usize)
                .map(std::mem::take)
                .unwrap_or_default()
        };
        let mut cells: Vec<NodeCell<'_>> = Vec::new();
        for (station, state) in bases.iter_mut().zip(base_cells.iter_mut()) {
            let batch = take(station.node);
            // A crashed base is a powered-off machine: traffic addressed
            // to it is taken off the wire and dropped.
            if !batch.is_empty() && !station.crashed {
                cells.push(NodeCell {
                    body: CellBody::Base(station),
                    state,
                    batch,
                    rpc: Vec::new(),
                });
            }
        }
        for (node, state) in nodes.iter_mut().zip(node_cells.iter_mut()) {
            let batch = take(node.node);
            if !batch.is_empty() {
                cells.push(NodeCell {
                    body: CellBody::Mobile(node),
                    state,
                    batch,
                    rpc: Vec::new(),
                });
            }
        }
        debug_assert!(
            batches.iter().all(Vec::is_empty),
            "epoch event addressed to a node the platform does not manage"
        );
        if cells.is_empty() {
            return;
        }

        driver.compute(&mut cells);

        // Barrier merge. Network commands: concatenating per-cell
        // buffers in rank order and stable-sorting by time yields
        // (time, rank, seq) — exactly the order a serial sweep over the
        // window would have produced. Link randomness (loss, jitter) is
        // sampled here, on this thread, so it cannot depend on the
        // driver's scheduling.
        let mut cmds = Vec::new();
        for cell in &mut cells {
            cmds.extend(cell.state.port.drain());
        }
        cmds.sort_by_key(pmp_net::NetCmd::at);
        sim.apply_cmds(cmds);
        // RPC outcomes: merged sorted by (observation time, request
        // id). Epochs are disjoint time windows, so per-epoch sorting
        // keeps the accumulated vector globally ordered — and the
        // order is driver-invariant, where the old rank-order append
        // depended on which cell held each outcome.
        let mut epoch_rpc: Vec<RpcOutcome> = Vec::new();
        for cell in &mut cells {
            epoch_rpc.append(&mut cell.rpc);
        }
        epoch_rpc.sort_by_key(|o| (o.at, o.req));
        for o in &epoch_rpc {
            if let Some(issued) = rpc_issue_at.remove(&o.req) {
                // Only successful calls feed the latency histogram: a
                // timeout outcome lands at the end of the full backoff
                // schedule (seconds), which is a delivery fact, not a
                // latency sample — it would drown the p99 the soak SLO
                // oracle watches.
                if o.ok {
                    telemetry.record("rpc.latency_ns", o.at.saturating_sub(issued));
                }
            }
        }
        rpc_outcomes.append(&mut epoch_rpc);
        drop(cells);
        // Spans drain in rank order (bases first) into the collector;
        // base spans are mirrored into the durable flight ring before
        // the commit below so they ride the same group fsync.
        drain_spans(collector, bases, base_cells, node_cells);
        // Group-commit each live base's WAL appends at the epoch
        // barrier: one simulated fsync per base per epoch, and the same
        // batch boundaries under either driver.
        for station in bases.iter_mut() {
            if !station.crashed {
                station.durable.commit();
            }
        }
        // Publish the freshly committed batches to each base's fan-out
        // hub and forward catalog deltas to replicas — on this thread,
        // in rank order, so streams are identical under either driver.
        publish_and_forward(sim, bases, streams, stream_taps, fed_stream_subs, telemetry);
        // Journal events: same (time, rank, seq) merge.
        flush_cell_events(telemetry, base_cells, node_cells);
    }

    /// Drains every cell tracer into the collector immediately (the
    /// same thing epoch barriers do; needed before reading traces when
    /// spans were minted by direct calls since the last pump).
    fn drain_spans_now(&mut self) {
        let Platform {
            bases,
            base_cells,
            node_cells,
            collector,
            ..
        } = self;
        drain_spans(collector, bases, base_cells, node_cells);
    }

    /// The span collector (drained up to date). Trace ids, trees, and
    /// critical paths read off this.
    pub fn collector(&mut self) -> &pmp_trace::Collector {
        self.drain_spans_now();
        &self.collector
    }

    /// Stable order-independent digest over every retained span — the
    /// cross-driver trace-equality check.
    #[must_use]
    pub fn span_digest(&mut self) -> u64 {
        self.drain_spans_now();
        self.collector.digest()
    }

    /// One trace rendered as an indented tree.
    #[must_use]
    pub fn render_trace(&mut self, trace_id: u64) -> String {
        self.drain_spans_now();
        self.collector.render_tree(trace_id)
    }

    /// Every retained trace rendered as an indented tree, in trace-id
    /// order (canonical — no map-iteration order leaks in).
    #[must_use]
    pub fn render_traces(&mut self) -> String {
        self.drain_spans_now();
        let mut out = String::new();
        for id in self.collector.trace_ids() {
            out.push_str(&self.collector.render_tree(id));
        }
        out
    }

    /// One trace's critical path with per-hop latencies.
    #[must_use]
    pub fn render_critical_path(&mut self, trace_id: u64) -> String {
        self.drain_spans_now();
        self.collector.render_critical_path(trace_id)
    }

    /// Every node's flight ring, `(node id, entries oldest first)` —
    /// bases (their durable rings) then mobiles, in rank order. This is
    /// what chaos `.repro` artifacts attach.
    #[must_use]
    pub fn flight_dump(&mut self) -> Vec<(u32, Vec<pmp_trace::FlightEntry>)> {
        self.drain_spans_now();
        let mut out = Vec::new();
        for station in &self.bases {
            out.push((station.node.0, station.flight.snapshot()));
        }
        for (node, cell) in self.nodes.iter().zip(&self.node_cells) {
            out.push((node.node.0, cell.tracer.flight_snapshot()));
        }
        out
    }

    /// Per-node `(node id, retained, capacity)` of every flight ring —
    /// the ring-growth oracle's raw numbers.
    #[must_use]
    pub fn flight_stats(&self) -> Vec<(u32, usize, usize)> {
        let mut out = Vec::new();
        for station in &self.bases {
            out.push((station.node.0, station.flight.len(), station.flight.cap()));
        }
        for (node, cell) in self.nodes.iter().zip(&self.node_cells) {
            let (len, cap, _) = cell.tracer.flight_stats();
            out.push((node.node.0, len, cap));
        }
        out
    }

    /// `(retained spans, cap)` of the collector.
    #[must_use]
    pub fn collector_stats(&self) -> (usize, usize) {
        (self.collector.retained(), self.collector.cap())
    }
}

/// Barrier-time stream step, always on the merge thread: drain each
/// live base's commit-tap buffer into its fan-out hub (assigning revs,
/// encoding each delta once), then walk the federation forwarders and
/// ship freshly published catalog puts to replica bases as
/// [`pmp_midas::MidasMsg::StreamDelta`] over the simulated network —
/// subject to the same loss, partitions, and crashes as any traffic.
fn publish_and_forward(
    sim: &mut Simulator,
    bases: &mut [BaseStation],
    streams: &mut [StreamHub],
    stream_taps: &[Arc<Mutex<Vec<WalRecord>>>],
    fed_stream_subs: &[(usize, usize, SubscriberId)],
    telemetry: &pmp_telemetry::Shared,
) {
    for (i, station) in bases.iter().enumerate() {
        if station.crashed {
            // Committed-but-unpublished records of a crashed base stay
            // in the tap until the restart rebase reconciles them.
            continue;
        }
        let batch = std::mem::take(&mut *stream_taps[i].lock().unwrap());
        if batch.is_empty() {
            continue;
        }
        telemetry.add("stream.delta.encoded", batch.len() as u64);
        streams[i].publish_batch(&batch);
    }
    for &(src, dst, sub) in fed_stream_subs {
        if bases[src].crashed {
            continue;
        }
        let events = streams[src].drain(sub, &BaseSource {
            station: &bases[src],
        });
        let (from, to) = (bases[src].node, bases[dst].node);
        for ev in events {
            // Forwarders never replay snapshots over the wire: after a
            // source restart the cursor's forced resync is swallowed
            // here and the digest exchange re-anchors the replica.
            let StreamEvent::Delta { rev, bytes } = ev else {
                continue;
            };
            let Ok(op) = pmp_wire::from_bytes::<pmp_midas::durable::BaseWalOp>(&bytes) else {
                continue;
            };
            // Only this base's own catalog puts travel: forwarding
            // foreign or lease bookkeeping ops would echo replicated
            // state back and forth.
            if matches!(op, pmp_midas::durable::BaseWalOp::CatalogPut { .. }) {
                telemetry.inc("stream.fed.forwarded");
                let msg = pmp_midas::MidasMsg::StreamDelta {
                    rev,
                    delta: bytes.to_vec(),
                };
                sim.send(from, to, pmp_midas::CHANNEL, pmp_trace::TraceCtx::NIL.wrap(&msg));
            }
        }
    }
}

/// Drains every cell tracer in rank order (bases first, then mobiles)
/// into the collector, mirroring base spans into their durable flight
/// rings on the way.
fn drain_spans(
    collector: &mut pmp_trace::Collector,
    bases: &mut [BaseStation],
    base_cells: &[CellState],
    node_cells: &[CellState],
) {
    for (station, cell) in bases.iter_mut().zip(base_cells) {
        let spans = cell.tracer.drain();
        if !station.crashed && !spans.is_empty() {
            station.note_flight_batch(
                spans
                    .iter()
                    .map(|s| pmp_trace::FlightEntry::Span(s.clone()))
                    .collect(),
            );
        }
        collector.absorb(spans);
    }
    for cell in node_cells {
        collector.absorb(cell.tracer.drain());
    }
}

/// Merges cell-buffered journal events into the shared journal in
/// `(time, cell rank, emission seq)` order.
fn flush_cell_events(
    telemetry: &pmp_telemetry::Shared,
    base_cells: &[CellState],
    node_cells: &[CellState],
) {
    let mut pending: Vec<PendingEvent> = Vec::new();
    for cell in base_cells.iter().chain(node_cells) {
        if !cell.sink.pending_is_empty() {
            pending.extend(cell.sink.take_pending());
        }
    }
    if pending.is_empty() {
        return;
    }
    // Stable sort: within one timestamp, rank/emission order survives.
    pending.sort_by_key(|e| e.at);
    for e in pending {
        telemetry.event_at(e.at, e.subsystem, &e.name, e.detail);
    }
}
