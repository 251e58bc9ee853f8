//! The lookup service (Jini registrar) hosted by a base station.

use crate::directory::{Directory, MAX_HOPS};
use crate::lease::Lease;
use crate::proto::{DiscoveryMsg, CHANNEL};
use crate::service::{ServiceId, ServiceItem};
use pmp_net::{Incoming, NetPort, NodeId, SimTime};
use pmp_telemetry::{Shared, Sink};
use pmp_trace::{TraceCtx, Traced};
use std::collections::{BTreeSet, HashMap};

const ANNOUNCE_TAG: &str = "disc.announce";
const SWEEP_TAG: &str = "disc.sweep";

/// An event surfaced by the registrar to its host (the base station).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistrarEvent {
    /// A new service registered.
    Registered(ServiceItem),
    /// A service's lease lapsed and it was dropped.
    Expired(ServiceItem),
    /// A service was cancelled by its provider.
    Cancelled(ServiceItem),
}

/// Multicast announce interval (0.5 s); leases are swept every half
/// interval.
pub const ANNOUNCE_INTERVAL_NS: u64 = 500_000_000;

/// The registrar state machine. Drive it by passing every [`Incoming`]
/// of its host node to [`Registrar::handle`].
#[derive(Debug)]
pub struct Registrar {
    node: NodeId,
    name: String,
    services: HashMap<ServiceId, (ServiceItem, Lease)>,
    counter: u32,
    started: bool,
    announce_token: Option<u64>,
    sweep_token: Option<u64>,
    events: Vec<RegistrarEvent>,
    telemetry: Option<Sink>,
    /// Federation state: place in the registrar tree plus the routes
    /// learned from child advertisements.
    directory: Directory,
}

impl Registrar {
    /// Creates a registrar hosted on `node`.
    pub fn new(node: NodeId, name: impl Into<String>) -> Self {
        Self {
            node,
            name: name.into(),
            services: HashMap::new(),
            counter: 0,
            started: false,
            announce_token: None,
            sweep_token: None,
            events: Vec::new(),
            telemetry: None,
            directory: Directory::new(),
        }
    }

    /// Wires this registrar under `parent` in the federation tree.
    /// The reachable-type advert is pushed on the next mutation (or
    /// sweep), so late federation still converges.
    pub fn set_parent(&mut self, parent: NodeId) {
        self.directory.set_parent(parent);
    }

    /// Registers `child` as a federated subtree (idempotent).
    pub fn add_child(&mut self, child: NodeId) {
        self.directory.add_child(child);
    }

    /// Read-only view of the federation state.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Service types held locally (not counting routed subtrees).
    fn local_types(&self) -> BTreeSet<String> {
        self.services
            .values()
            .map(|(item, _)| item.service_type.clone())
            .collect()
    }

    /// Pushes a fresh advert to the parent iff the reachable-type set
    /// changed since the last push. No-op for unfederated registrars.
    fn maybe_advertise(&mut self, sim: &mut dyn NetPort) {
        if self.directory.parent().is_none() {
            return;
        }
        let local = self.local_types();
        if let Some(types) = self.directory.advert_if_changed(local) {
            let parent = self.directory.parent().expect("checked above");
            self.count("discovery.registrar.adverts_sent");
            let msg = DiscoveryMsg::DirAdvertise { types };
            sim.send(self.node, parent, CHANNEL, TraceCtx::NIL.wrap(&msg));
        }
    }

    /// Mirrors registrar activity into `shared` as
    /// `discovery.registrar.*` counters and a live-services gauge.
    pub fn attach_telemetry(&mut self, shared: &Shared) {
        self.telemetry = Some(Sink::direct(shared));
    }

    /// Routes telemetry through a per-cell [`Sink`].
    pub fn attach_sink(&mut self, sink: Sink) {
        self.telemetry = Some(sink);
    }

    fn count(&self, name: &str) {
        if let Some(s) = &self.telemetry {
            s.inc(name);
        }
    }

    fn update_live_gauge(&self) {
        if let Some(s) = &self.telemetry {
            // Scoped per registrar instance (like `net.channel.<name>.bytes`):
            // several registrars share one platform registry, and a plain
            // set-gauge under a common name would let an idle registrar's
            // sweep overwrite its neighbour's live count.
            let name = format!("discovery.registrar.{}.live_services", self.name);
            let n = self.services.len() as i64;
            s.with(|t| {
                let g = t.registry.gauge(&name);
                t.registry.set_gauge(g, n);
            });
        }
    }

    /// Starts announcing and lease sweeping. Idempotent.
    pub fn start(&mut self, sim: &mut dyn NetPort) {
        if self.started {
            return;
        }
        self.started = true;
        self.announce(sim);
        self.announce_token = Some(sim.set_timer(self.node, ANNOUNCE_INTERVAL_NS, ANNOUNCE_TAG));
        self.sweep_token = Some(sim.set_timer(self.node, ANNOUNCE_INTERVAL_NS / 2, SWEEP_TAG));
    }

    fn announce(&self, sim: &mut dyn NetPort) {
        let msg = DiscoveryMsg::Announce {
            name: self.name.clone(),
        };
        sim.broadcast(self.node, CHANNEL, TraceCtx::NIL.wrap(&msg));
    }

    /// Number of live registrations.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Snapshot of live items.
    pub fn services(&self) -> Vec<ServiceItem> {
        self.services.values().map(|(i, _)| i.clone()).collect()
    }

    /// Drains accumulated events.
    pub fn take_events(&mut self) -> Vec<RegistrarEvent> {
        std::mem::take(&mut self.events)
    }

    fn sweep(&mut self, now: SimTime) {
        let expired: Vec<ServiceId> = self
            .services
            .iter()
            .filter(|(_, (_, lease))| lease.expired(now))
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            if let Some((item, _)) = self.services.remove(&id) {
                self.count("discovery.registrar.lease_expiries");
                self.events.push(RegistrarEvent::Expired(item));
            }
        }
        self.update_live_gauge();
    }

    /// Processes one inbox entry of the host node. Entries not addressed
    /// to the registrar (other channels, other timer tags) are ignored.
    pub fn handle(&mut self, sim: &mut dyn NetPort, incoming: &Incoming) {
        match incoming {
            Incoming::Timer { token, .. } if Some(*token) == self.announce_token => {
                self.announce(sim);
                self.announce_token =
                    Some(sim.set_timer(self.node, ANNOUNCE_INTERVAL_NS, ANNOUNCE_TAG));
            }
            Incoming::Timer { token, .. } if Some(*token) == self.sweep_token => {
                self.sweep(sim.now());
                self.maybe_advertise(sim);
                self.sweep_token =
                    Some(sim.set_timer(self.node, ANNOUNCE_INTERVAL_NS / 2, SWEEP_TAG));
            }
            Incoming::Message {
                from,
                channel,
                payload,
                ..
            } if &**channel == CHANNEL => {
                let Ok(env) = pmp_wire::from_bytes::<Traced<DiscoveryMsg>>(payload) else {
                    return; // malformed traffic is dropped
                };
                self.handle_msg(sim, *from, env.msg, env.ctx);
            }
            _ => {}
        }
    }

    fn handle_msg(&mut self, sim: &mut dyn NetPort, from: NodeId, msg: DiscoveryMsg, ctx: TraceCtx) {
        let now = sim.now();
        match msg {
            DiscoveryMsg::Register {
                mut item,
                lease_ns,
                req,
            } => {
                self.counter += 1;
                let id = ServiceId::compose(self.node.0, self.counter);
                item.id = id;
                item.provider = from.0;
                let lease = Lease::grant(now, lease_ns);
                self.services.insert(id, (item.clone(), lease));
                self.count("discovery.registrar.registrations");
                self.update_live_gauge();
                self.events.push(RegistrarEvent::Registered(item));
                let reply = DiscoveryMsg::Registered {
                    service: id,
                    lease_ns,
                    req,
                };
                sim.send(self.node, from, CHANNEL, ctx.wrap(&reply));
                self.maybe_advertise(sim);
            }
            DiscoveryMsg::Renew { service, req } => {
                self.count("discovery.registrar.renewals");
                let ok = match self.services.get_mut(&service) {
                    Some((_, lease)) => lease.renew(now),
                    None => false,
                };
                if !ok {
                    // Lapsed entries are removed eagerly on failed renew.
                    if let Some((item, _)) = self.services.remove(&service) {
                        self.count("discovery.registrar.lease_expiries");
                        self.update_live_gauge();
                        self.events.push(RegistrarEvent::Expired(item));
                    }
                }
                let reply = DiscoveryMsg::RenewAck { service, ok, req };
                sim.send(self.node, from, CHANNEL, ctx.wrap(&reply));
                if !ok {
                    self.maybe_advertise(sim);
                }
            }
            DiscoveryMsg::Cancel { service } => {
                if let Some((item, _)) = self.services.remove(&service) {
                    self.count("discovery.registrar.cancellations");
                    self.update_live_gauge();
                    self.events.push(RegistrarEvent::Cancelled(item));
                    self.maybe_advertise(sim);
                }
            }
            DiscoveryMsg::Lookup { query, req } => {
                self.count("discovery.registrar.lookups");
                self.sweep(now);
                let mut items: Vec<ServiceItem> = self
                    .services
                    .values()
                    .filter(|(item, _)| query.matches(item))
                    .map(|(item, _)| item.clone())
                    .collect();
                // Stable result order: the items travel inside the
                // reply payload, so hash order would be byte-observable.
                items.sort_by(|a, b| (&a.name, a.provider).cmp(&(&b.name, b.provider)));
                let reply = DiscoveryMsg::LookupResult { items, req };
                sim.send(self.node, from, CHANNEL, ctx.wrap(&reply));
            }
            DiscoveryMsg::DirAdvertise { types } => {
                self.count("discovery.registrar.adverts_in");
                if self.directory.learn(from, &types) {
                    // Reachability changed: propagate up the tree.
                    self.maybe_advertise(sim);
                }
            }
            DiscoveryMsg::FedLookup {
                query,
                origin,
                mut path,
                req,
            } => {
                self.count("discovery.registrar.fed_lookups");
                self.sweep(now);
                let hops = path.len() as u16;
                let mut items: Vec<ServiceItem> = self
                    .services
                    .values()
                    .filter(|(item, _)| query.matches(item))
                    .map(|(item, _)| item.clone())
                    .collect();
                items.sort_by(|a, b| (&a.name, a.provider).cmp(&(&b.name, b.provider)));
                if !items.is_empty() || hops >= MAX_HOPS {
                    // Answer (or give up): the reply retraces the path
                    // stack — only tree edges are guaranteed reachable.
                    self.send_fed_result(sim, items, hops, origin, path, req, ctx);
                    return;
                }
                // Nothing local: route down a subtree advertising the
                // queried type, else up to the parent. Never bounce the
                // query straight back where it came from.
                let down = query
                    .service_type
                    .as_deref()
                    .and_then(|ty| self.directory.route_for(ty, from));
                let next = down.or_else(|| self.directory.parent().filter(|p| *p != from));
                match next {
                    Some(next) => {
                        path.push(self.node.0);
                        let fwd = DiscoveryMsg::FedLookup {
                            query,
                            origin,
                            path,
                            req,
                        };
                        sim.send(self.node, next, CHANNEL, ctx.wrap(&fwd));
                    }
                    None => {
                        self.send_fed_result(sim, Vec::new(), hops, origin, path, req, ctx);
                    }
                }
            }
            DiscoveryMsg::FedLookupResult {
                items,
                hops,
                origin,
                path,
                req,
            } => {
                // A reply in transit: relay it one step back along the
                // recorded path. A reply that already reached the
                // origin node is the co-located client's business.
                if origin != self.node.0 {
                    self.send_fed_result(sim, items, hops, origin, path, req, ctx);
                }
            }
            // Client-bound messages are ignored by the registrar.
            DiscoveryMsg::Announce { .. }
            | DiscoveryMsg::Registered { .. }
            | DiscoveryMsg::RenewAck { .. }
            | DiscoveryMsg::LookupResult { .. } => {}
        }
    }

    /// Sends a [`DiscoveryMsg::FedLookupResult`] one step toward the
    /// origin: to the last registrar on the return path, or — when the
    /// path is exhausted — over the final radio hop to the origin.
    #[allow(clippy::too_many_arguments)]
    fn send_fed_result(
        &self,
        sim: &mut dyn NetPort,
        items: Vec<ServiceItem>,
        hops: u16,
        origin: u32,
        mut path: Vec<u32>,
        req: u64,
        ctx: TraceCtx,
    ) {
        let next = match path.pop() {
            Some(prev) => NodeId(prev),
            None => NodeId(origin),
        };
        let reply = DiscoveryMsg::FedLookupResult {
            items,
            hops,
            origin,
            path,
            req,
        };
        sim.send(self.node, next, CHANNEL, ctx.wrap(&reply));
    }
}
