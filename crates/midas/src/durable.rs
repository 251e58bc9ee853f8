//! Crash-safety for the extension base.
//!
//! The base's durable state is the extension catalog, the lease table
//! (which node holds which grant for which extension), and the roaming
//! cache. Every mutation point in [`ExtensionBase`] logs one
//! [`BaseWalOp`] through its attached namespace handle; replaying the
//! ops in sequence order reproduces the state exactly, and snapshots
//! capture it wholesale in canonical (sorted) form.
//!
//! What is deliberately *not* durable: scan timers, pending lookups,
//! undelivered [`crate::BaseEvent`]s, and the discovery client — all
//! of that is session state a restarted base rebuilds by scanning
//! again. The lease table surviving is what lets the restarted base
//! *renew* grants instead of re-delivering the whole catalog.

use crate::base::{AdaptedNode, ExtensionBase, RoamEntry};
use crate::catalog::Catalog;
use crate::package::SignedExtension;
use pmp_durable::{Durable, DurableError};
use pmp_net::NodeId;
use pmp_wire::{wire_struct, Reader, Wire, WireError, Writer};
use std::collections::BTreeMap;

/// The WAL namespace owned by the extension base.
pub const NAMESPACE: &str = "midas.base";

/// One logged mutation of the base's durable state.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseWalOp {
    /// An extension entered (or upgraded in) the catalog.
    CatalogPut {
        /// The signed package.
        ext: SignedExtension,
    },
    /// An extension was revoked: out of the catalog, all grants void.
    Revoked {
        /// The revoked extension id.
        ext_id: String,
    },
    /// A node was adapted: full catalog delivery with fresh grants.
    NodeAdapted {
        /// The node's advertised name.
        name: String,
        /// Its network id.
        node: u32,
        /// Extension id → lease grant.
        grants: BTreeMap<String, u64>,
    },
    /// One grant was issued or replaced for an adapted node.
    GrantSet {
        /// The node's name.
        name: String,
        /// The extension id.
        ext_id: String,
        /// The new grant.
        grant: u64,
    },
    /// A grant was released by its holder.
    GrantDropped {
        /// The node's name.
        name: String,
        /// The dropped grant.
        grant: u64,
    },
    /// An adapted node's presence flag changed (departure/return).
    Presence {
        /// The node's name.
        name: String,
        /// Whether the node is in the base's area.
        present: bool,
    },
    /// A roaming record was admitted or refreshed (handoff or lease
    /// sync), with the migratable grants and packages. Tag 6 is
    /// reserved: it named a retired id-only roaming op and now decodes
    /// as an unknown tag.
    RoamState {
        /// The roaming node's name.
        name: String,
        /// Network id of the base that sent the record.
        from: u32,
        /// Extension id → the grant the node held there.
        grants: BTreeMap<String, u64>,
        /// Signed packages behind those grants.
        exts: Vec<SignedExtension>,
        /// FIFO admission sequence.
        seq: u64,
    },
    /// A roaming record left the table (adopted, re-registered, or
    /// evicted at capacity). Evictions are logged explicitly so replay
    /// never re-runs capacity policy.
    RoamDrop {
        /// The roaming node's name.
        name: String,
    },
    /// A migrated package outside our own catalog was retained for
    /// redelivery and onward handoffs.
    ForeignPut {
        /// The signed package.
        ext: SignedExtension,
    },
}

impl Wire for BaseWalOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            BaseWalOp::CatalogPut { ext } => {
                w.put_u8(0);
                ext.encode(w);
            }
            BaseWalOp::Revoked { ext_id } => {
                w.put_u8(1);
                w.put_str(ext_id);
            }
            BaseWalOp::NodeAdapted { name, node, grants } => {
                w.put_u8(2);
                w.put_str(name);
                w.put_u32(*node);
                grants.encode(w);
            }
            BaseWalOp::GrantSet {
                name,
                ext_id,
                grant,
            } => {
                w.put_u8(3);
                w.put_str(name);
                w.put_str(ext_id);
                w.put_u64(*grant);
            }
            BaseWalOp::GrantDropped { name, grant } => {
                w.put_u8(4);
                w.put_str(name);
                w.put_u64(*grant);
            }
            BaseWalOp::Presence { name, present } => {
                w.put_u8(5);
                w.put_str(name);
                w.put_bool(*present);
            }
            BaseWalOp::RoamState {
                name,
                from,
                grants,
                exts,
                seq,
            } => {
                w.put_u8(7);
                w.put_str(name);
                w.put_u32(*from);
                grants.encode(w);
                exts.encode(w);
                w.put_u64(*seq);
            }
            BaseWalOp::RoamDrop { name } => {
                w.put_u8(8);
                w.put_str(name);
            }
            BaseWalOp::ForeignPut { ext } => {
                w.put_u8(9);
                ext.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => BaseWalOp::CatalogPut {
                ext: SignedExtension::decode(r)?,
            },
            1 => BaseWalOp::Revoked {
                ext_id: r.get_str()?,
            },
            2 => BaseWalOp::NodeAdapted {
                name: r.get_str()?,
                node: r.get_u32()?,
                grants: BTreeMap::decode(r)?,
            },
            3 => BaseWalOp::GrantSet {
                name: r.get_str()?,
                ext_id: r.get_str()?,
                grant: r.get_u64()?,
            },
            4 => BaseWalOp::GrantDropped {
                name: r.get_str()?,
                grant: r.get_u64()?,
            },
            5 => BaseWalOp::Presence {
                name: r.get_str()?,
                present: r.get_bool()?,
            },
            7 => BaseWalOp::RoamState {
                name: r.get_str()?,
                from: r.get_u32()?,
                grants: BTreeMap::decode(r)?,
                exts: Vec::<SignedExtension>::decode(r)?,
                seq: r.get_u64()?,
            },
            8 => BaseWalOp::RoamDrop {
                name: r.get_str()?,
            },
            9 => BaseWalOp::ForeignPut {
                ext: SignedExtension::decode(r)?,
            },
            tag => return Err(r.bad_tag("BaseWalOp", tag)),
        })
    }
}

/// One adapted node's durable form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AdaptedSnap {
    node: u32,
    present: bool,
    grants: BTreeMap<String, u64>,
}

wire_struct!(AdaptedSnap {
    node: u32,
    present: bool,
    grants: BTreeMap<String, u64>,
});

/// One roaming record's durable form.
#[derive(Debug, Clone, PartialEq)]
struct RoamSnap {
    from: u32,
    grants: BTreeMap<String, u64>,
    exts: Vec<SignedExtension>,
    seq: u64,
}

wire_struct!(RoamSnap {
    from: u32,
    grants: BTreeMap<String, u64>,
    exts: Vec<SignedExtension>,
    seq: u64,
});

/// The base's full durable state in canonical (sorted) form.
#[derive(Debug, Clone, PartialEq)]
struct BaseSnapshot {
    next_grant: u64,
    catalog: BTreeMap<String, SignedExtension>,
    adapted: BTreeMap<String, AdaptedSnap>,
    roaming: BTreeMap<String, RoamSnap>,
    foreign: BTreeMap<String, SignedExtension>,
    roam_seq: u64,
}

wire_struct!(BaseSnapshot {
    next_grant: u64,
    catalog: BTreeMap<String, SignedExtension>,
    adapted: BTreeMap<String, AdaptedSnap>,
    roaming: BTreeMap<String, RoamSnap>,
    foreign: BTreeMap<String, SignedExtension>,
    roam_seq: u64,
});

impl ExtensionBase {
    /// The lease table in canonical form: node name → (network id,
    /// present, extension id → grant). Crash-recovery tests compare
    /// this across a restart.
    #[must_use]
    pub fn lease_table(&self) -> BTreeMap<String, (u32, bool, BTreeMap<String, u64>)> {
        self.adapted
            .iter()
            .map(|(name, a)| {
                let grants: BTreeMap<String, u64> =
                    a.grants.iter().map(|(k, v)| (k.clone(), *v)).collect();
                (name.clone(), (a.node.0, a.present, grants))
            })
            .collect()
    }

    fn bump_grant(&mut self, grant: u64) {
        self.next_grant = self.next_grant.max(grant + 1);
    }
}

impl Durable for ExtensionBase {
    fn namespace(&self) -> &'static str {
        NAMESPACE
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        let catalog: BTreeMap<String, SignedExtension> = self
            .catalog
            .ids()
            .into_iter()
            .filter_map(|id| self.catalog.get(&id).cloned().map(|e| (id, e)))
            .collect();
        let adapted: BTreeMap<String, AdaptedSnap> = self
            .adapted
            .iter()
            .map(|(name, a)| {
                (
                    name.clone(),
                    AdaptedSnap {
                        node: a.node.0,
                        present: a.present,
                        grants: a.grants.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                    },
                )
            })
            .collect();
        let snap = BaseSnapshot {
            next_grant: self.next_grant,
            catalog,
            adapted,
            roaming: self
                .roaming_cache
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        RoamSnap {
                            from: v.from,
                            grants: v.grants.clone(),
                            exts: v.exts.clone(),
                            seq: v.seq,
                        },
                    )
                })
                .collect(),
            foreign: self.foreign.clone(),
            roam_seq: self.roam_seq,
        };
        pmp_wire::to_bytes(&snap)
    }

    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let snap: BaseSnapshot = pmp_wire::from_bytes(bytes)?;
        self.catalog = Catalog::new();
        for ext in snap.catalog.into_values() {
            self.catalog.put(ext);
        }
        self.adapted = snap
            .adapted
            .into_iter()
            .map(|(name, a)| {
                (
                    name,
                    AdaptedNode {
                        node: NodeId(a.node),
                        grants: a.grants.into_iter().collect(),
                        present: a.present,
                    },
                )
            })
            .collect();
        self.roaming_cache = snap
            .roaming
            .into_iter()
            .map(|(name, r)| {
                (
                    name,
                    RoamEntry {
                        from: r.from,
                        grants: r.grants,
                        exts: r.exts,
                        seq: r.seq,
                    },
                )
            })
            .collect();
        self.foreign = snap.foreign;
        self.roam_seq = snap.roam_seq;
        self.next_grant = snap.next_grant;
        Ok(())
    }

    fn apply_record(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        match pmp_wire::from_bytes::<BaseWalOp>(payload)? {
            BaseWalOp::CatalogPut { ext } => {
                // Mirror the live transition exactly: a catalog insert
                // supersedes any foreign copy of the same package (the
                // replica-merge path removes it, and recovery must not
                // resurrect it — found by the chaos `durable-digest`
                // oracle, kernel pinned in `tests/repros/seed-181.repro`).
                if let Ok(pkg) = ext.open() {
                    self.foreign.remove(&pkg.meta.id);
                }
                self.catalog.put(ext);
            }
            BaseWalOp::Revoked { ext_id } => {
                self.catalog.remove(&ext_id);
                for a in self.adapted.values_mut() {
                    a.grants.remove(&ext_id);
                }
            }
            BaseWalOp::NodeAdapted { name, node, grants } => {
                let max_grant = grants.values().copied().max();
                self.adapted.insert(
                    name,
                    AdaptedNode {
                        node: NodeId(node),
                        grants: grants.into_iter().collect(),
                        present: true,
                    },
                );
                if let Some(g) = max_grant {
                    self.bump_grant(g);
                }
            }
            BaseWalOp::GrantSet {
                name,
                ext_id,
                grant,
            } => {
                let a = self
                    .adapted
                    .get_mut(&name)
                    .ok_or(DurableError::Invalid("grant for unknown node"))?;
                a.grants.insert(ext_id, grant);
                self.bump_grant(grant);
            }
            BaseWalOp::GrantDropped { name, grant } => {
                let a = self
                    .adapted
                    .get_mut(&name)
                    .ok_or(DurableError::Invalid("drop for unknown node"))?;
                a.grants.retain(|_, g| *g != grant);
            }
            BaseWalOp::Presence { name, present } => {
                let a = self
                    .adapted
                    .get_mut(&name)
                    .ok_or(DurableError::Invalid("presence for unknown node"))?;
                a.present = present;
            }
            BaseWalOp::RoamState {
                name,
                from,
                grants,
                exts,
                seq,
            } => {
                // Literal replay: evictions were logged explicitly, so
                // capacity policy never re-runs here.
                self.roam_seq = self.roam_seq.max(seq + 1);
                self.roaming_cache.insert(
                    name,
                    RoamEntry {
                        from,
                        grants,
                        exts,
                        seq,
                    },
                );
            }
            BaseWalOp::RoamDrop { name } => {
                self.roaming_cache.remove(&name);
            }
            BaseWalOp::ForeignPut { ext } => {
                if let Ok(pkg) = ext.open() {
                    self.foreign.insert(pkg.meta.id, ext);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{ExtensionMeta, ExtensionPackage};
    use pmp_crypto::KeyPair;
    use pmp_prose::{Aspect, PortableAspect, PortableClass};

    fn ext(id: &str, version: u32) -> SignedExtension {
        let aspect = Aspect::script(
            id.to_string(),
            PortableClass {
                name: format!("C{id}"),
                fields: vec![],
                methods: vec![],
            },
            vec![],
        );
        let pkg = ExtensionPackage {
            meta: ExtensionMeta {
                id: id.into(),
                version,
                description: String::new(),
                requires: vec![],
                permissions: vec![],
                implicit: false,
            },
            aspect: PortableAspect::try_from(&aspect).unwrap(),
        };
        SignedExtension::seal("authority", &KeyPair::from_seed(b"seed"), &pkg)
    }

    fn fresh_base() -> ExtensionBase {
        ExtensionBase::new(NodeId(1), NodeId(1))
    }

    fn ops() -> Vec<BaseWalOp> {
        vec![
            BaseWalOp::CatalogPut { ext: ext("mon", 1) },
            BaseWalOp::CatalogPut { ext: ext("acl", 1) },
            BaseWalOp::NodeAdapted {
                name: "robot:1:1".into(),
                node: 7,
                grants: [("mon".to_string(), 1u64), ("acl".to_string(), 2)].into(),
            },
            BaseWalOp::GrantSet {
                name: "robot:1:1".into(),
                ext_id: "mon".into(),
                grant: 3,
            },
            BaseWalOp::GrantDropped {
                name: "robot:1:1".into(),
                grant: 2,
            },
            BaseWalOp::Presence {
                name: "robot:1:1".into(),
                present: false,
            },
            BaseWalOp::RoamState {
                name: "robot:2:2".into(),
                from: 8,
                grants: [("mon".to_string(), 4u64)].into(),
                exts: Vec::new(),
                seq: 3,
            },
            BaseWalOp::RoamState {
                name: "robot:3:3".into(),
                from: 9,
                grants: [("mon".to_string(), 5u64)].into(),
                exts: vec![ext("mon", 1)],
                seq: 4,
            },
            BaseWalOp::RoamDrop {
                name: "robot:2:2".into(),
            },
            BaseWalOp::ForeignPut { ext: ext("ctx", 1) },
            BaseWalOp::Revoked {
                ext_id: "acl".into(),
            },
        ]
    }

    #[test]
    fn ops_roundtrip_on_the_wire() {
        for op in ops() {
            let bytes = pmp_wire::to_bytes(&op);
            assert_eq!(pmp_wire::from_bytes::<BaseWalOp>(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn unknown_tag_carries_the_offset() {
        assert_eq!(
            pmp_wire::from_bytes::<BaseWalOp>(&[99]),
            Err(WireError::InvalidTag {
                type_name: "BaseWalOp",
                tag: 99,
                offset: 0,
            })
        );
    }

    #[test]
    fn retired_roamed_tag_is_rejected() {
        // Tag 6 was the id-only roaming op; a record carrying it (as a
        // log written before its removal would) is an unknown tag.
        let mut bytes = vec![6];
        bytes.extend(pmp_wire::to_bytes(&"robot:2:2".to_string()));
        bytes.extend(pmp_wire::to_bytes(&vec!["mon".to_string()]));
        assert_eq!(
            pmp_wire::from_bytes::<BaseWalOp>(&bytes),
            Err(WireError::InvalidTag {
                type_name: "BaseWalOp",
                tag: 6,
                offset: 0,
            })
        );
        assert!(fresh_base().apply_record(&bytes).is_err());
    }

    #[test]
    fn replay_then_snapshot_restore_reach_the_same_digest() {
        let mut replayed = fresh_base();
        for op in ops() {
            replayed.apply_record(&pmp_wire::to_bytes(&op)).unwrap();
        }
        // The lease table shape after the full sequence.
        let leases = replayed.lease_table();
        let (node, present, grants) = &leases["robot:1:1"];
        assert_eq!(*node, 7);
        assert!(!present);
        assert_eq!(grants.len(), 1, "acl revoked, one mon grant left");
        assert_eq!(grants["mon"], 3);
        assert_eq!(replayed.next_grant, 4, "recovered past the max grant");
        assert_eq!(replayed.catalog.ids(), ["mon"]);
        // Roaming table: robot:2:2 dropped, robot:3:3 admitted with its
        // migratable grants; the FIFO sequence recovered past it.
        assert!(!replayed.roaming_cache.contains_key("robot:2:2"));
        let roam = &replayed.roaming_cache["robot:3:3"];
        assert_eq!(roam.from, 9);
        assert_eq!(roam.grants["mon"], 5);
        assert_eq!(roam.exts.len(), 1);
        assert_eq!(replayed.roam_seq, 5, "recovered past the max seq");

        let mut restored = fresh_base();
        restored
            .restore_snapshot(&replayed.snapshot_bytes())
            .unwrap();
        assert_eq!(restored.state_digest(), replayed.state_digest());
        assert_eq!(restored.lease_table(), replayed.lease_table());
        assert_eq!(restored.roaming_cache, replayed.roaming_cache);
    }

    #[test]
    fn orphan_grant_ops_error_instead_of_panicking() {
        let mut base = fresh_base();
        let op = BaseWalOp::GrantSet {
            name: "ghost".into(),
            ext_id: "mon".into(),
            grant: 1,
        };
        assert!(base.apply_record(&pmp_wire::to_bytes(&op)).is_err());
        assert!(base.apply_record(&[0xff, 0x00]).is_err());
    }
}
