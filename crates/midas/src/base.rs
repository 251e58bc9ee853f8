//! The extension base: discovers adaptation services, distributes
//! signed extensions, keeps their leases alive, revokes and replaces
//! them, and hands roaming nodes off to neighbour bases (paper §3.2).

use crate::catalog::Catalog;
use crate::durable::BaseWalOp;
use crate::package::SignedExtension;
use crate::proto::{MidasMsg, CHANNEL};
use pmp_discovery::{DiscoveryClient, DiscoveryEvent, ServiceQuery};
use pmp_durable::NamespaceHandle;
use pmp_net::{Incoming, NetPort, NodeId};
use pmp_telemetry::{Fnv64, Shared, Sink, Subsystem};
use pmp_trace::{TraceCtx, Traced, Tracer};
use std::collections::{BTreeMap, HashMap};

const SCAN_TAG: &str = "midas.scan";

/// Events surfaced by the base to its host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseEvent {
    /// A new adaptation service appeared; the catalog was delivered.
    NodeDiscovered {
        /// The node's advertised name.
        node_name: String,
        /// Number of extensions sent.
        delivered: usize,
    },
    /// A receiver acknowledged an installation.
    InstallAck {
        /// The node's name (if known).
        node_name: String,
        /// The extension.
        ext_id: String,
        /// Success flag.
        ok: bool,
        /// Failure reason when `ok` is false.
        reason: String,
    },
    /// An adapted node stopped appearing in lookups (left the area).
    NodeDeparted {
        /// The node's name.
        node_name: String,
    },
    /// A neighbour base told us one of its nodes roamed away.
    HandoffReceived {
        /// The roaming node's name.
        node_name: String,
        /// Extensions it held at the neighbour.
        ext_ids: Vec<String>,
    },
    /// A roaming node arrived with a migratable handoff record: its
    /// grants were rebound in place (zero re-`Deliver` messages for the
    /// roamed set) and only catalog entries it lacked were delivered.
    NodeMigrated {
        /// The node's name.
        node_name: String,
        /// Grants rebound via [`MidasMsg::GrantTransfer`].
        rebound: usize,
        /// Local catalog entries it did not hold, delivered normally.
        delivered: usize,
    },
    /// A peer base exported a departed node's movement history; the
    /// host should merge the records into its context store.
    MovementImport {
        /// The node's name.
        node_name: String,
        /// Opaque store records in arrival order.
        records: Vec<Vec<u8>>,
    },
}

/// One roaming node's migrated state, received from a peer base.
#[derive(Debug, Clone, PartialEq)]
pub struct RoamEntry {
    /// Network id of the base that sent the handoff.
    pub from: u32,
    /// Extension id → the grant the node held at that base.
    pub grants: BTreeMap<String, u64>,
    /// Signed packages behind those grants.
    pub exts: Vec<SignedExtension>,
    /// FIFO admission sequence, for capacity eviction.
    pub seq: u64,
}

#[derive(Debug)]
pub(crate) struct AdaptedNode {
    pub(crate) node: NodeId,
    pub(crate) grants: HashMap<String, u64>,
    pub(crate) present: bool,
}

/// The extension-base state machine. Drive it by passing every
/// [`Incoming`] of its host node to [`ExtensionBase::handle`].
#[derive(Debug)]
pub struct ExtensionBase {
    node: NodeId,
    registrar: NodeId,
    discovery: DiscoveryClient,
    /// The catalog of extensions this base distributes.
    pub catalog: Catalog,
    lease_ns: u64,
    scan_interval_ns: u64,
    pub(crate) adapted: HashMap<String, AdaptedNode>,
    neighbors: Vec<NodeId>,
    pub(crate) next_grant: u64,
    pending_scan: Option<u64>,
    scan_token: Option<u64>,
    started: bool,
    events: Vec<BaseEvent>,
    /// Roaming records received from peer bases, bounded by
    /// [`ExtensionBase::set_roam_cap`]; entries are evicted FIFO at
    /// capacity and dropped when the node is adopted or re-registers.
    pub roaming_cache: BTreeMap<String, RoamEntry>,
    /// Next FIFO sequence for roaming admissions.
    pub(crate) roam_seq: u64,
    roam_cap: usize,
    /// Packages adopted from handoffs that are not part of this base's
    /// own catalog: needed for renewal-failure redelivery and onward
    /// handoffs, but never delivered to newcomers.
    pub(crate) foreign: BTreeMap<String, SignedExtension>,
    /// Peer bases receiving catalog anti-entropy and lease-table sync.
    replicas: Vec<NodeId>,
    /// Digest of the last lease table pushed to replicas.
    last_lease_sync: u64,
    /// Last stream rev seen per sender network id — advisory gap
    /// tracking for [`MidasMsg::StreamDelta`]; application itself is
    /// version-gated, so a gap only bumps a counter while the scan-tick
    /// digest exchange repairs the miss.
    stream_revs: BTreeMap<u32, u64>,
    telemetry: Option<Sink>,
    durable: Option<NamespaceHandle>,
    tracer: Option<Tracer>,
    /// Root context of the publish that last put each extension in the
    /// catalog, so every later ship of it (catalog delivery, dependency
    /// request, redelivery) joins the same adaptation span tree.
    publish_ctx: HashMap<String, TraceCtx>,
}

impl ExtensionBase {
    /// Creates a base on `node` that polls the registrar at
    /// `registrar` (usually the same node).
    pub fn new(node: NodeId, registrar: NodeId) -> Self {
        Self {
            node,
            registrar,
            discovery: DiscoveryClient::new(node),
            catalog: Catalog::new(),
            lease_ns: 4_000_000_000,      // 4 s extension leases
            scan_interval_ns: 1_000_000_000, // 1 s scan
            adapted: HashMap::new(),
            neighbors: Vec::new(),
            next_grant: 1,
            pending_scan: None,
            scan_token: None,
            started: false,
            events: Vec::new(),
            roaming_cache: BTreeMap::new(),
            roam_seq: 0,
            roam_cap: 64,
            foreign: BTreeMap::new(),
            replicas: Vec::new(),
            last_lease_sync: 0,
            stream_revs: BTreeMap::new(),
            telemetry: None,
            durable: None,
            tracer: None,
            publish_ctx: HashMap::new(),
        }
    }

    /// Attaches the host cell's span factory; ship spans are minted
    /// through it.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Logs every catalog and lease-table mutation to `handle`'s WAL
    /// namespace, making the base crash-recoverable (see
    /// [`crate::durable`]).
    pub fn attach_durable(&mut self, handle: NamespaceHandle) {
        self.durable = Some(handle);
    }

    fn log(&self, op: &BaseWalOp) {
        if let Some(d) = &self.durable {
            d.append(pmp_wire::to_bytes(op));
        }
    }

    /// Mirrors base activity into `shared` (`midas.base.*` counters,
    /// `midas.ship` journal events); the inner discovery client is
    /// attached too.
    pub fn attach_telemetry(&mut self, shared: &Shared) {
        self.attach_sink(Sink::direct(shared));
    }

    /// Routes telemetry through a per-cell [`Sink`] (sharded drivers
    /// buffer journal events and merge them at the epoch barrier).
    pub fn attach_sink(&mut self, sink: Sink) {
        self.discovery.attach_sink(sink.clone());
        self.telemetry = Some(sink);
    }

    fn count(&self, name: &str) {
        if let Some(s) = &self.telemetry {
            s.inc(name);
        }
    }

    /// Records an extension leaving the base toward `to` (the "ship"
    /// stage of the sign→ship→verify→weave distribution trail), and
    /// mints the `midas.ship` span under the extension's publish root.
    /// Returns the context the shipped message must carry.
    fn note_ship(&self, sim: &dyn NetPort, ext_id: &str, to: NodeId) -> TraceCtx {
        if let Some(s) = &self.telemetry {
            s.inc("midas.base.delivered");
            s.event(Subsystem::Midas, "midas.ship", format!("{ext_id} -> n{}", to.0));
        }
        let Some(t) = &self.tracer else {
            return TraceCtx::NIL;
        };
        let parent = self
            .publish_ctx
            .get(ext_id)
            .copied()
            .unwrap_or(TraceCtx::NIL);
        t.child(
            parent,
            sim.now().0,
            "midas.ship",
            &format!("{ext_id} -> n{}", to.0),
        )
    }

    /// Overrides the extension lease duration (ns).
    pub fn set_lease(&mut self, lease_ns: u64) {
        self.lease_ns = lease_ns;
    }

    /// Overrides the scan interval (ns).
    pub fn set_scan_interval(&mut self, ns: u64) {
        self.scan_interval_ns = ns;
    }

    /// Registers a neighbour base for roaming handoffs.
    pub fn add_neighbor(&mut self, base: NodeId) {
        if !self.neighbors.contains(&base) {
            self.neighbors.push(base);
        }
    }

    /// Neighbour bases, in registration order.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Registers a replica peer: this base pushes catalog anti-entropy
    /// digests and lease-table syncs to it. Opt-in and directional —
    /// call on both bases for symmetric replication. Unlike neighbours
    /// (handoff-only), replicas converge toward the same catalog, so
    /// only federate bases meant to serve the same policy.
    pub fn add_replica(&mut self, base: NodeId) {
        if !self.replicas.contains(&base) {
            self.replicas.push(base);
        }
    }

    /// Ids of foreign packages held for migrated grants (sorted): not
    /// part of this base's catalog, kept for redelivery and onward
    /// handoffs.
    pub fn foreign_ids(&self) -> Vec<String> {
        self.foreign.keys().cloned().collect()
    }

    /// Replica peers, in registration order.
    pub fn replicas(&self) -> &[NodeId] {
        &self.replicas
    }

    /// Overrides the roaming-table capacity (default 64 entries).
    pub fn set_roam_cap(&mut self, cap: usize) {
        self.roam_cap = cap.max(1);
    }

    /// Admits a roaming record: assigns its FIFO sequence, logs it, and
    /// evicts the oldest entries while over capacity.
    pub(crate) fn roam_insert(&mut self, name: &str, mut entry: RoamEntry) {
        entry.seq = self.roam_seq;
        self.roam_seq += 1;
        self.log(&BaseWalOp::RoamState {
            name: name.to_string(),
            from: entry.from,
            grants: entry.grants.clone(),
            exts: entry.exts.clone(),
            seq: entry.seq,
        });
        self.roaming_cache.insert(name.to_string(), entry);
        while self.roaming_cache.len() > self.roam_cap {
            let oldest = self
                .roaming_cache
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(n, _)| n.clone());
            let Some(n) = oldest else { break };
            self.roaming_cache.remove(&n);
            self.log(&BaseWalOp::RoamDrop { name: n });
            self.count("midas.base.roam_evicted");
        }
    }

    /// Drops a roaming record (the node was adopted or re-registered).
    fn roam_drop(&mut self, name: &str) {
        if self.roaming_cache.remove(name).is_some() {
            self.log(&BaseWalOp::RoamDrop {
                name: name.to_string(),
            });
        }
    }

    /// FNV-64 over the sorted `(id, version)` catalog inventory — the
    /// anti-entropy probe replicas compare before exchanging entries.
    #[must_use]
    pub fn catalog_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for (id, version) in self.catalog_inventory() {
            h.write_str(&id);
            h.write_u64(u64::from(version));
        }
        h.finish()
    }

    /// Sorted `(id, version)` pairs for every catalogued extension.
    fn catalog_inventory(&self) -> Vec<(String, u32)> {
        self.catalog
            .ids()
            .into_iter()
            .map(|id| {
                let version = self
                    .catalog
                    .get(&id)
                    .and_then(|e| e.open().ok())
                    .map_or(0, |p| p.meta.version);
                (id, version)
            })
            .collect()
    }

    /// The live lease table (present nodes only), sorted by name.
    fn lease_entries(&self) -> Vec<(String, u32, BTreeMap<String, u64>)> {
        let mut entries: Vec<(String, u32, BTreeMap<String, u64>)> = self
            .adapted
            .iter()
            .filter(|(_, a)| a.present)
            .map(|(name, a)| {
                (
                    name.clone(),
                    a.node.0,
                    a.grants.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                )
            })
            .collect();
        entries.sort();
        entries
    }

    /// Pushes replication traffic to every replica peer: a catalog
    /// digest each scan (cheap; matching digests end the exchange) and
    /// the lease table only when it changed since the last push.
    fn sync_replicas(&mut self, sim: &mut dyn NetPort) {
        if self.replicas.is_empty() {
            return;
        }
        let digest = self.catalog_digest();
        let replicas = self.replicas.clone();
        for r in &replicas {
            self.send(sim, *r, &MidasMsg::CatalogDigest { digest }, TraceCtx::NIL);
        }
        let entries = self.lease_entries();
        let mut h = Fnv64::new();
        for (name, node, grants) in &entries {
            h.write_str(name);
            h.write_u64(u64::from(*node));
            for (id, g) in grants {
                h.write_str(id);
                h.write_u64(*g);
            }
        }
        let lease_digest = h.finish();
        if lease_digest != self.last_lease_sync {
            self.last_lease_sync = lease_digest;
            for r in &replicas {
                let msg = MidasMsg::LeaseSync {
                    entries: entries.clone(),
                };
                self.send(sim, *r, &msg, TraceCtx::NIL);
            }
        }
    }

    /// Adopts a roaming node from its migrated handoff record: every
    /// grant it held at the previous base is rebound in place with one
    /// [`MidasMsg::GrantTransfer`] — zero re-`Deliver` messages for the
    /// roamed set — and only local catalog entries it lacks are
    /// delivered. Returns `(rebound, delivered)`.
    fn adopt_roamer(
        &mut self,
        sim: &mut dyn NetPort,
        node: NodeId,
        name: &str,
        entry: &RoamEntry,
    ) -> (usize, usize) {
        // Keep the signed packages behind migrated grants reachable
        // for renewal-failure redelivery and onward handoffs.
        for ext in &entry.exts {
            let Ok(pkg) = ext.open() else { continue };
            let id = pkg.meta.id;
            if self.catalog.get(&id).is_none() && !self.foreign.contains_key(&id) {
                self.log(&BaseWalOp::ForeignPut { ext: ext.clone() });
                self.foreign.insert(id, ext.clone());
            }
        }
        // Rebind the migrated grants. A grant is adopted when this base
        // serves the extension itself, or when the record came from a
        // replica (one federated administrative domain — catalogs
        // converge by anti-entropy anyway). Foreign grants from a mere
        // roaming neighbour are *not* adopted: the paper's locality of
        // adaptations means the old hall's policy lapses with its
        // leases. Either way a rebind requires the signed package in
        // hand (catalog or foreign): a grant this base cannot redeliver
        // on a renewal failure would be a dangling promise — shadow
        // lease entries synced without packages (or revoked locally
        // since) simply lapse. BTreeMap order keeps the wire payload
        // byte-stable.
        let federated = self.replicas.iter().any(|r| r.0 == entry.from);
        let mut grants = HashMap::new();
        let mut rebinds = Vec::new();
        for (id, old) in &entry.grants {
            let servable = self.catalog.get(id).is_some()
                || (federated && self.foreign.contains_key(id));
            if !servable {
                continue;
            }
            let fresh = self.fresh_grant();
            grants.insert(id.clone(), fresh);
            rebinds.push((id.clone(), *old, fresh));
            self.count("midas.base.migrated");
        }
        let rebound = rebinds.len();
        if rebound > 0 {
            let msg = MidasMsg::GrantTransfer {
                node_name: name.to_string(),
                rebinds,
                lease_ns: self.lease_ns,
            };
            self.send(sim, node, &msg, TraceCtx::NIL);
        }
        // Deliver only what the local catalog adds on top.
        let mut delivered = 0;
        for id in self.catalog.delivery_order() {
            if grants.contains_key(&id) {
                continue;
            }
            let Some(ext) = self.catalog.get(&id).cloned() else {
                continue;
            };
            let grant = self.fresh_grant();
            grants.insert(id.clone(), grant);
            let msg = MidasMsg::Deliver {
                ext,
                lease_ns: self.lease_ns,
                grant,
            };
            let ctx = self.note_ship(sim, &id, node);
            self.send(sim, node, &msg, ctx);
            delivered += 1;
        }
        self.log(&BaseWalOp::NodeAdapted {
            name: name.to_string(),
            node: node.0,
            grants: grants.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        });
        self.adapted.insert(
            name.to_string(),
            AdaptedNode {
                node,
                grants,
                present: true,
            },
        );
        (rebound, delivered)
    }

    /// Starts scanning. Idempotent.
    pub fn start(&mut self, sim: &mut dyn NetPort) {
        if self.started {
            return;
        }
        self.started = true;
        self.discovery.start(sim);
        self.scan(sim);
        self.scan_token = Some(sim.set_timer(self.node, self.scan_interval_ns, SCAN_TAG));
    }

    /// Names of currently adapted (present) nodes, sorted.
    pub fn adapted_nodes(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .adapted
            .iter()
            .filter(|(_, a)| a.present)
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Drains accumulated events.
    pub fn take_events(&mut self) -> Vec<BaseEvent> {
        std::mem::take(&mut self.events)
    }

    fn fresh_grant(&mut self) -> u64 {
        let g = self.next_grant;
        self.next_grant += 1;
        g
    }

    fn scan(&mut self, sim: &mut dyn NetPort) {
        let req = self.discovery.lookup(
            sim,
            self.registrar,
            ServiceQuery::of_type("midas.adaptation"),
        );
        self.pending_scan = Some(req);
    }

    fn send(&self, sim: &mut dyn NetPort, to: NodeId, msg: &MidasMsg, ctx: TraceCtx) {
        sim.send(self.node, to, CHANNEL, ctx.wrap(msg));
    }

    fn deliver_catalog(&mut self, sim: &mut dyn NetPort, node: NodeId, node_name: &str) -> usize {
        let order = self.catalog.delivery_order();
        let mut grants = HashMap::new();
        let mut count = 0;
        for id in order {
            if let Some(ext) = self.catalog.get(&id).cloned() {
                let grant = self.fresh_grant();
                grants.insert(id.clone(), grant);
                let msg = MidasMsg::Deliver {
                    ext,
                    lease_ns: self.lease_ns,
                    grant,
                };
                let ctx = self.note_ship(sim, &id, node);
                self.send(sim, node, &msg, ctx);
                count += 1;
            }
        }
        self.log(&BaseWalOp::NodeAdapted {
            name: node_name.to_string(),
            node: node.0,
            grants: grants.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        });
        self.adapted.insert(
            node_name.to_string(),
            AdaptedNode {
                node,
                grants,
                present: true,
            },
        );
        count
    }

    /// Installs (or upgrades) an extension in the catalog and pushes a
    /// [`MidasMsg::Replace`] to every adapted node that already holds an
    /// older instance — this is how "the local policy evolves" reaches
    /// robots already in the hall.
    pub fn update_extension(&mut self, sim: &mut dyn NetPort, ext: SignedExtension) {
        self.update_extension_traced(sim, ext, TraceCtx::NIL);
    }

    /// [`ExtensionBase::update_extension`] with the publish's trace
    /// context: every ship of this extension — now and later — becomes
    /// a child of `ctx`, so the whole adaptation reconstructs as one
    /// span tree.
    pub fn update_extension_traced(
        &mut self,
        sim: &mut dyn NetPort,
        ext: SignedExtension,
        ctx: TraceCtx,
    ) {
        let Ok(pkg) = ext.open() else { return };
        let id = pkg.meta.id.clone();
        if ctx.is_nil() {
            self.publish_ctx.remove(&id);
        } else {
            self.publish_ctx.insert(id.clone(), ctx);
        }
        self.catalog.put(ext.clone());
        // A catalog entry supersedes any foreign copy of the same
        // package; the WAL replay of `CatalogPut` applies the same
        // removal, so live state and recovery stay digest-identical.
        self.foreign.remove(&id);
        self.log(&BaseWalOp::CatalogPut { ext: ext.clone() });
        let mut targets: Vec<(String, NodeId)> = self
            .adapted
            .iter()
            .filter(|(_, a)| a.present && a.grants.contains_key(&id))
            .map(|(name, a)| (name.clone(), a.node))
            .collect();
        // Name order: replacement sends must not follow hash order.
        targets.sort();
        for (name, node) in targets {
            let grant = self.fresh_grant();
            let msg = MidasMsg::Replace {
                old_id: id.clone(),
                ext: ext.clone(),
                lease_ns: self.lease_ns,
                grant,
            };
            let ship = self.note_ship(sim, &id, node);
            self.send(sim, node, &msg, ship);
            if let Some(a) = self.adapted.get_mut(&name) {
                a.grants.insert(id.clone(), grant);
            }
            self.log(&BaseWalOp::GrantSet {
                name,
                ext_id: id.clone(),
                grant,
            });
        }
    }

    /// Removes an extension from the catalog and revokes it everywhere.
    pub fn revoke_extension(&mut self, sim: &mut dyn NetPort, ext_id: &str, reason: &str) {
        self.catalog.remove(ext_id);
        self.publish_ctx.remove(ext_id);
        self.log(&BaseWalOp::Revoked {
            ext_id: ext_id.to_string(),
        });
        let mut targets: Vec<NodeId> = self
            .adapted
            .values()
            .filter(|a| a.present && a.grants.contains_key(ext_id))
            .map(|a| a.node)
            .collect();
        // Node order: revocation sends must not follow hash order.
        targets.sort_by_key(|n| n.0);
        for node in targets {
            let msg = MidasMsg::Revoke {
                ext_id: ext_id.to_string(),
                reason: reason.to_string(),
            };
            self.send(sim, node, &msg, TraceCtx::NIL);
            self.count("midas.base.revocations");
        }
        for a in self.adapted.values_mut() {
            a.grants.remove(ext_id);
        }
    }

    /// Processes one inbox entry of the host node.
    pub fn handle(&mut self, sim: &mut dyn NetPort, incoming: &Incoming) -> Vec<BaseEvent> {
        match incoming {
            Incoming::Timer { token, .. } if Some(*token) == self.scan_token => {
                self.scan(sim);
                self.sync_replicas(sim);
                self.scan_token =
                    Some(sim.set_timer(self.node, self.scan_interval_ns, SCAN_TAG));
            }
            Incoming::Message {
                from,
                channel,
                payload,
                ..
            } if &**channel == CHANNEL => {
                if let Ok(env) = pmp_wire::from_bytes::<Traced<MidasMsg>>(payload) {
                    self.handle_midas(sim, *from, env.msg);
                }
            }
            other => {
                // Everything else may belong to the discovery client.
                for ev in self.discovery.handle(sim, other) {
                    self.handle_discovery(sim, ev);
                }
            }
        }
        std::mem::take(&mut self.events)
    }

    fn handle_discovery(&mut self, sim: &mut dyn NetPort, ev: DiscoveryEvent) {
        if let DiscoveryEvent::LookupDone { req, items } = ev {
            if self.pending_scan != Some(req) {
                return;
            }
            self.pending_scan = None;
            let now = sim.now();
            let _ = now;
            // Mark presence.
            let mut present: HashMap<String, NodeId> = HashMap::new();
            for item in &items {
                present.insert(item.name.clone(), NodeId(item.provider));
            }
            // New nodes: deliver the catalog.
            let mut new_nodes: Vec<(String, NodeId)> = present
                .iter()
                .filter(|(name, _)| {
                    self.adapted.get(*name).is_none_or(|a| !a.present)
                })
                .map(|(n, id)| (n.clone(), *id))
                .collect();
            // Deliver in name order — catalog sends are observable.
            new_nodes.sort();
            for (name, node) in new_nodes {
                if let Some(entry) = self.roaming_cache.get(&name).cloned() {
                    // The node roamed here with a migratable record:
                    // take over its leases instead of re-delivering.
                    let (rebound, delivered) = self.adopt_roamer(sim, node, &name, &entry);
                    self.roam_drop(&name);
                    self.events.push(BaseEvent::NodeMigrated {
                        node_name: name,
                        rebound,
                        delivered,
                    });
                } else {
                    let delivered = self.deliver_catalog(sim, node, &name);
                    self.events.push(BaseEvent::NodeDiscovered {
                        node_name: name,
                        delivered,
                    });
                }
            }
            // Known nodes still present: keep their leases alive.
            let mut renewals: Vec<(NodeId, Vec<u64>)> = self
                .adapted
                .iter()
                .filter(|(name, a)| a.present && present.contains_key(*name))
                .map(|(_, a)| {
                    let mut grants: Vec<u64> = a.grants.values().copied().collect();
                    grants.sort_unstable();
                    (a.node, grants)
                })
                .collect();
            renewals.sort_by_key(|(n, _)| n.0);
            for (node, grants) in renewals {
                for grant in grants {
                    let msg = MidasMsg::LeaseRenew { grant };
                    self.send(sim, node, &msg, TraceCtx::NIL);
                    self.count("midas.base.lease_renewals_sent");
                }
            }
            // Departed nodes: mark, event, and roam.
            let mut departed: Vec<String> = self
                .adapted
                .iter()
                .filter(|(name, a)| a.present && !present.contains_key(*name))
                .map(|(name, _)| name.clone())
                .collect();
            departed.sort();
            for name in departed {
                let handoff = self.adapted.get_mut(&name).map(|a| {
                    a.present = false;
                    // Sorted map: the grants travel inside the handoff
                    // payload, so their order is byte-observable.
                    a.grants
                        .iter()
                        .map(|(k, v)| (k.clone(), *v))
                        .collect::<BTreeMap<String, u64>>()
                });
                if let Some(grants) = handoff {
                    // Migratable handoff: the leases *and* the signed
                    // packages behind them, so the adopting base can
                    // take over without re-delivering anything.
                    let mut exts = Vec::new();
                    for id in grants.keys() {
                        let ext = self
                            .catalog
                            .get(id)
                            .cloned()
                            .or_else(|| self.foreign.get(id).cloned());
                        if let Some(ext) = ext {
                            exts.push(ext);
                        }
                    }
                    let neighbors = self.neighbors.clone();
                    for nb in neighbors {
                        let msg = MidasMsg::HandoffState {
                            node_name: name.clone(),
                            grants: grants.clone(),
                            exts: exts.clone(),
                        };
                        self.send(sim, nb, &msg, TraceCtx::NIL);
                        self.count("midas.base.handoffs_sent");
                    }
                }
                self.log(&BaseWalOp::Presence {
                    name: name.clone(),
                    present: false,
                });
                self.events.push(BaseEvent::NodeDeparted { node_name: name });
            }
        }
    }

    /// Merges replicated catalog entries (version-gated) and delivers
    /// anything new to nodes already present — the shared apply path of
    /// [`MidasMsg::CatalogPush`] and [`MidasMsg::StreamDelta`].
    fn merge_replicated(&mut self, sim: &mut dyn NetPort, exts: Vec<SignedExtension>) {
        let mut merged = false;
        for ext in exts {
            let Ok(pkg) = ext.open() else { continue };
            let id = pkg.meta.id;
            let before = self
                .catalog
                .get(&id)
                .and_then(|e| e.open().ok())
                .map(|p| p.meta.version);
            if before.is_some_and(|v| v >= pkg.meta.version) {
                continue;
            }
            self.catalog.put(ext.clone());
            self.log(&BaseWalOp::CatalogPut { ext });
            self.foreign.remove(&id);
            self.count("midas.base.replicated");
            merged = true;
        }
        if merged {
            // Replicated policy reaches robots already here.
            let mut names: Vec<String> = self
                .adapted
                .iter()
                .filter(|(_, a)| a.present)
                .map(|(n, _)| n.clone())
                .collect();
            names.sort();
            for name in names {
                let node = self.adapted[&name].node;
                for id in self.catalog.delivery_order() {
                    if self.adapted[&name].grants.contains_key(&id) {
                        continue;
                    }
                    let Some(ext) = self.catalog.get(&id).cloned() else {
                        continue;
                    };
                    let grant = self.fresh_grant();
                    if let Some(a) = self.adapted.get_mut(&name) {
                        a.grants.insert(id.clone(), grant);
                    }
                    self.log(&BaseWalOp::GrantSet {
                        name: name.clone(),
                        ext_id: id.clone(),
                        grant,
                    });
                    let msg = MidasMsg::Deliver {
                        ext,
                        lease_ns: self.lease_ns,
                        grant,
                    };
                    let ship = self.note_ship(sim, &id, node);
                    self.send(sim, node, &msg, ship);
                }
            }
        }
    }

    fn handle_midas(&mut self, sim: &mut dyn NetPort, from: NodeId, msg: MidasMsg) {
        match msg {
            MidasMsg::Ack {
                ext_id,
                grant,
                ok,
                reason,
            } => {
                if !ok && reason == "released" {
                    // The receiver dropped this grant on purpose
                    // (implicit dep released, upgrade, revocation):
                    // stop renewing it.
                    let dropped = self
                        .adapted
                        .iter_mut()
                        .find(|(_, a)| a.node == from)
                        .map(|(name, a)| {
                            a.grants.retain(|_, g| *g != grant);
                            name.clone()
                        });
                    if let Some(name) = dropped {
                        self.log(&BaseWalOp::GrantDropped { name, grant });
                    }
                    return;
                }
                if !ok && reason == "unknown grant" {
                    // The receiver no longer holds this grant (lost
                    // delivery, or our outage outlived its leases):
                    // redeliver that extension with a fresh grant.
                    let stale: Option<(String, String)> = self
                        .adapted
                        .iter()
                        .find(|(_, a)| a.node == from)
                        .and_then(|(name, a)| {
                            a.grants
                                .iter()
                                .find(|(_, g)| **g == grant)
                                .map(|(id, _)| (name.clone(), id.clone()))
                        });
                    if let Some((name, id)) = stale {
                        let ext = self
                            .catalog
                            .get(&id)
                            .cloned()
                            .or_else(|| self.foreign.get(&id).cloned());
                        if let Some(ext) = ext {
                            let fresh = self.fresh_grant();
                            if let Some(a) = self.adapted.get_mut(&name) {
                                a.grants.insert(id.clone(), fresh);
                            }
                            self.log(&BaseWalOp::GrantSet {
                                name,
                                ext_id: id.clone(),
                                grant: fresh,
                            });
                            let msg = MidasMsg::Deliver {
                                ext,
                                lease_ns: self.lease_ns,
                                grant: fresh,
                            };
                            let ship = self.note_ship(sim, &id, from);
                            self.send(sim, from, &msg, ship);
                        }
                    }
                    return;
                }
                let node_name = self
                    .adapted
                    .iter()
                    .find(|(_, a)| a.node == from)
                    .map(|(n, _)| n.clone())
                    .unwrap_or_else(|| from.to_string());
                self.events.push(BaseEvent::InstallAck {
                    node_name,
                    ext_id,
                    ok,
                    reason,
                });
            }
            MidasMsg::RequestDep { ext_id } => {
                // Deliver the dependency closure of the requested id.
                for id in self.catalog.closure_of(&ext_id) {
                    if let Some(ext) = self.catalog.get(&id).cloned() {
                        let grant = self.fresh_grant();
                        let holder = self
                            .adapted
                            .iter_mut()
                            .find(|(_, a)| a.node == from)
                            .map(|(name, a)| {
                                a.grants.insert(id.clone(), grant);
                                name.clone()
                            });
                        if let Some(name) = holder {
                            self.log(&BaseWalOp::GrantSet {
                                name,
                                ext_id: id.clone(),
                                grant,
                            });
                        }
                        let msg = MidasMsg::Deliver {
                            ext,
                            lease_ns: self.lease_ns,
                            grant,
                        };
                        let ship = self.note_ship(sim, &id, from);
                        self.send(sim, from, &msg, ship);
                    }
                }
            }
            MidasMsg::HandoffState {
                node_name,
                grants,
                exts,
            } => {
                // A node we are actively serving did not roam anywhere.
                if self.adapted.get(&node_name).is_some_and(|a| a.present) {
                    return;
                }
                let ext_ids: Vec<String> = grants.keys().cloned().collect();
                self.roam_insert(
                    &node_name,
                    RoamEntry {
                        from: from.0,
                        grants,
                        exts,
                        seq: 0,
                    },
                );
                self.count("midas.base.handoffs_received");
                self.events
                    .push(BaseEvent::HandoffReceived { node_name, ext_ids });
            }
            MidasMsg::MovementExport { node_name, records } => {
                self.events
                    .push(BaseEvent::MovementImport { node_name, records });
            }
            MidasMsg::CatalogDigest { digest } => {
                if digest != self.catalog_digest() {
                    let have = self.catalog_inventory();
                    self.send(sim, from, &MidasMsg::CatalogPull { have }, TraceCtx::NIL);
                }
            }
            MidasMsg::CatalogPull { have } => {
                let held: BTreeMap<String, u32> = have.into_iter().collect();
                let mut exts = Vec::new();
                for (id, version) in self.catalog_inventory() {
                    if held.get(&id).is_none_or(|v| *v < version) {
                        if let Some(ext) = self.catalog.get(&id).cloned() {
                            exts.push(ext);
                        }
                    }
                }
                if !exts.is_empty() {
                    self.send(sim, from, &MidasMsg::CatalogPush { exts }, TraceCtx::NIL);
                }
            }
            MidasMsg::CatalogPush { exts } => {
                self.merge_replicated(sim, exts);
            }
            MidasMsg::StreamDelta { rev, delta } => {
                // Steady-state anti-entropy riding the rev stream: the
                // delta is the sender's own catalog WAL record, applied
                // through the same version-gated merge as a pull-based
                // CatalogPush. Rev tracking is advisory — a gap means a
                // lost or reordered delivery, repaired by the next
                // digest exchange, so it only bumps a counter here.
                let last = self.stream_revs.get(&from.0).copied().unwrap_or(0);
                if rev != last + 1 {
                    self.count("midas.base.stream_gaps");
                }
                if rev > last {
                    self.stream_revs.insert(from.0, rev);
                }
                let Ok(op) = pmp_wire::from_bytes::<BaseWalOp>(&delta) else {
                    return;
                };
                if let BaseWalOp::CatalogPut { ext } = op {
                    self.count("midas.base.stream_applied");
                    self.merge_replicated(sim, vec![ext]);
                }
            }
            MidasMsg::LeaseSync { entries } => {
                // Shadow lease table: nodes a replica is serving become
                // adoptable here without redelivery if it dies. No
                // event — this is background replication.
                for (name, _node, grants) in entries {
                    if self.adapted.get(&name).is_some_and(|a| a.present) {
                        continue;
                    }
                    let (exts, unchanged) = match self.roaming_cache.get(&name) {
                        Some(e) if e.from == from.0 => (e.exts.clone(), e.grants == grants),
                        _ => (Vec::new(), false),
                    };
                    if unchanged {
                        continue;
                    }
                    self.roam_insert(
                        &name,
                        RoamEntry {
                            from: from.0,
                            grants,
                            exts,
                            seq: 0,
                        },
                    );
                }
            }
            // Receiver-bound messages are ignored by the base.
            MidasMsg::Deliver { .. }
            | MidasMsg::LeaseRenew { .. }
            | MidasMsg::Revoke { .. }
            | MidasMsg::Replace { .. }
            | MidasMsg::GrantTransfer { .. } => {}
        }
    }
}
