//! The MIDAS wire protocol, carried on the `"midas"` channel.

use crate::package::SignedExtension;
use pmp_wire::{Reader, Wire, WireError, Writer};
use std::collections::BTreeMap;

/// Channel name for all MIDAS traffic.
pub const CHANNEL: &str = "midas";

/// A MIDAS protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum MidasMsg {
    /// Base → receiver: install this extension under a lease.
    Deliver {
        /// The signed extension.
        ext: SignedExtension,
        /// Lease duration (ns); the base keeps it alive with
        /// [`MidasMsg::LeaseRenew`].
        lease_ns: u64,
        /// Grant id, unique per base; names this lease.
        grant: u64,
    },
    /// Receiver → base: installation result.
    Ack {
        /// The extension id.
        ext_id: String,
        /// The grant being answered.
        grant: u64,
        /// Whether installation succeeded.
        ok: bool,
        /// Failure reason when `ok` is false.
        reason: String,
    },
    /// Base → receiver: keep the grant alive (the paper: "it is the
    /// responsibility of each extension base to keep alive the
    /// functionality it has distributed").
    LeaseRenew {
        /// The grant to refresh.
        grant: u64,
    },
    /// Base → receiver: withdraw an extension now.
    Revoke {
        /// The extension id.
        ext_id: String,
        /// Why (surfaced to the extension's shutdown procedure).
        reason: String,
    },
    /// Base → receiver: atomically replace `old_id` with a new
    /// extension (local policy evolved).
    Replace {
        /// The id being replaced.
        old_id: String,
        /// The replacement.
        ext: SignedExtension,
        /// Lease duration for the replacement (ns).
        lease_ns: u64,
        /// Grant id for the replacement.
        grant: u64,
    },
    /// Receiver → base: a delivered extension requires `ext_id` but it
    /// is not installed; please deliver it.
    RequestDep {
        /// The missing dependency id.
        ext_id: String,
    },
    /// Base → base: a node this base had adapted left towards your
    /// area (the paper's "simple roaming algorithm"). Carries the
    /// departing node's lease grants *and* the signed packages behind
    /// them, so the adopting base can take over the leases with zero
    /// re-`Deliver` messages. Wire tag 6 is reserved: it named a retired
    /// id-only handoff and now decodes as an unknown tag.
    HandoffState {
        /// The roaming node's advertised name.
        node_name: String,
        /// Extension id → grant the node held at the sender.
        grants: BTreeMap<String, u64>,
        /// Signed packages for those grants (the adopting base may not
        /// catalogue them; it still needs them for fallback redelivery
        /// and onward handoffs).
        exts: Vec<SignedExtension>,
    },
    /// Base → receiver: your installed extensions now lease from this
    /// base — swap each old grant for a fresh local one, no reinstall.
    GrantTransfer {
        /// The node's advertised name (as the handoff recorded it).
        node_name: String,
        /// `(ext_id, old_grant, new_grant)` per migrated extension.
        rebinds: Vec<(String, u64, u64)>,
        /// Lease duration for the rebound grants (ns).
        lease_ns: u64,
    },
    /// Base → base: a departed node's movement history, as opaque
    /// store records — the fabric moves context, it does not interpret
    /// it.
    MovementExport {
        /// The node's advertised name.
        node_name: String,
        /// Encoded movement records in arrival order.
        records: Vec<Vec<u8>>,
    },
    /// Base → replica: anti-entropy probe — a digest of the sender's
    /// catalog. Matching digests end the exchange silently.
    CatalogDigest {
        /// FNV-64 over the sorted `(id, version)` catalog entries.
        digest: u64,
    },
    /// Replica → base: digests differed; here is what I hold, send me
    /// what I am missing.
    CatalogPull {
        /// Sorted `(id, version)` pairs the sender already holds.
        have: Vec<(String, u32)>,
    },
    /// Base → replica: catalog entries the peer lacks (or holds older
    /// versions of).
    CatalogPush {
        /// The missing/newer signed packages.
        exts: Vec<SignedExtension>,
    },
    /// Base → replica: the sender's live lease table (present nodes
    /// only), so a replica can adopt those nodes without redelivery if
    /// the sender crashes. Sent only when the table changes.
    LeaseSync {
        /// `(node name, network id, ext id → grant)` per present node,
        /// sorted by name.
        entries: Vec<(String, u32, BTreeMap<String, u64>)>,
    },
    /// Base → replica: one committed catalog WAL record riding the
    /// rev-stream (pmp-stream) — steady-state anti-entropy without
    /// waiting for the scan-tick digest exchange. The delta bytes are
    /// the sender's `BaseWalOp` payload verbatim; application is
    /// version-gated, so loss or reordering costs nothing but latency
    /// (the digest → pull → push exchange remains the convergence
    /// anchor).
    StreamDelta {
        /// The sender's per-namespace stream revision of this record.
        rev: u64,
        /// The encoded `BaseWalOp` exactly as the sender logged it.
        delta: Vec<u8>,
    },
}

impl Wire for MidasMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            MidasMsg::Deliver {
                ext,
                lease_ns,
                grant,
            } => {
                w.put_u8(0);
                ext.encode(w);
                w.put_u64(*lease_ns);
                w.put_u64(*grant);
            }
            MidasMsg::Ack {
                ext_id,
                grant,
                ok,
                reason,
            } => {
                w.put_u8(1);
                w.put_str(ext_id);
                w.put_u64(*grant);
                w.put_bool(*ok);
                w.put_str(reason);
            }
            MidasMsg::LeaseRenew { grant } => {
                w.put_u8(2);
                w.put_u64(*grant);
            }
            MidasMsg::Revoke { ext_id, reason } => {
                w.put_u8(3);
                w.put_str(ext_id);
                w.put_str(reason);
            }
            MidasMsg::Replace {
                old_id,
                ext,
                lease_ns,
                grant,
            } => {
                w.put_u8(4);
                w.put_str(old_id);
                ext.encode(w);
                w.put_u64(*lease_ns);
                w.put_u64(*grant);
            }
            MidasMsg::RequestDep { ext_id } => {
                w.put_u8(5);
                w.put_str(ext_id);
            }
            MidasMsg::HandoffState {
                node_name,
                grants,
                exts,
            } => {
                w.put_u8(7);
                w.put_str(node_name);
                grants.encode(w);
                exts.encode(w);
            }
            MidasMsg::GrantTransfer {
                node_name,
                rebinds,
                lease_ns,
            } => {
                w.put_u8(8);
                w.put_str(node_name);
                rebinds.encode(w);
                w.put_u64(*lease_ns);
            }
            MidasMsg::MovementExport { node_name, records } => {
                w.put_u8(9);
                w.put_str(node_name);
                records.encode(w);
            }
            MidasMsg::CatalogDigest { digest } => {
                w.put_u8(10);
                w.put_u64(*digest);
            }
            MidasMsg::CatalogPull { have } => {
                w.put_u8(11);
                have.encode(w);
            }
            MidasMsg::CatalogPush { exts } => {
                w.put_u8(12);
                exts.encode(w);
            }
            MidasMsg::LeaseSync { entries } => {
                w.put_u8(13);
                entries.encode(w);
            }
            MidasMsg::StreamDelta { rev, delta } => {
                w.put_u8(14);
                w.put_u64(*rev);
                w.put_bytes(delta);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => MidasMsg::Deliver {
                ext: SignedExtension::decode(r)?,
                lease_ns: r.get_u64()?,
                grant: r.get_u64()?,
            },
            1 => MidasMsg::Ack {
                ext_id: r.get_str()?,
                grant: r.get_u64()?,
                ok: r.get_bool()?,
                reason: r.get_str()?,
            },
            2 => MidasMsg::LeaseRenew {
                grant: r.get_u64()?,
            },
            3 => MidasMsg::Revoke {
                ext_id: r.get_str()?,
                reason: r.get_str()?,
            },
            4 => MidasMsg::Replace {
                old_id: r.get_str()?,
                ext: SignedExtension::decode(r)?,
                lease_ns: r.get_u64()?,
                grant: r.get_u64()?,
            },
            5 => MidasMsg::RequestDep {
                ext_id: r.get_str()?,
            },
            7 => MidasMsg::HandoffState {
                node_name: r.get_str()?,
                grants: BTreeMap::decode(r)?,
                exts: Vec::<SignedExtension>::decode(r)?,
            },
            8 => MidasMsg::GrantTransfer {
                node_name: r.get_str()?,
                rebinds: Vec::<(String, u64, u64)>::decode(r)?,
                lease_ns: r.get_u64()?,
            },
            9 => MidasMsg::MovementExport {
                node_name: r.get_str()?,
                records: Vec::<Vec<u8>>::decode(r)?,
            },
            10 => MidasMsg::CatalogDigest {
                digest: r.get_u64()?,
            },
            11 => MidasMsg::CatalogPull {
                have: Vec::<(String, u32)>::decode(r)?,
            },
            12 => MidasMsg::CatalogPush {
                exts: Vec::<SignedExtension>::decode(r)?,
            },
            13 => MidasMsg::LeaseSync {
                entries: Vec::<(String, u32, BTreeMap<String, u64>)>::decode(r)?,
            },
            14 => MidasMsg::StreamDelta {
                rev: r.get_u64()?,
                delta: r.get_bytes()?,
            },
            tag => {
                return Err(r.bad_tag("MidasMsg", tag))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{ExtensionMeta, ExtensionPackage};
    use pmp_crypto::KeyPair;
    use pmp_prose::{Aspect, PortableAspect, PortableClass};

    fn signed() -> SignedExtension {
        let aspect = Aspect::script(
            "m",
            PortableClass {
                name: "M".into(),
                fields: vec![],
                methods: vec![],
            },
            vec![],
        );
        let pkg = ExtensionPackage {
            meta: ExtensionMeta {
                id: "m".into(),
                version: 1,
                description: String::new(),
                requires: vec![],
                permissions: vec![],
                implicit: false,
            },
            aspect: PortableAspect::try_from(&aspect).unwrap(),
        };
        SignedExtension::seal("a", &KeyPair::from_seed(b"a"), &pkg)
    }

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            MidasMsg::Deliver {
                ext: signed(),
                lease_ns: 9,
                grant: 2,
            },
            MidasMsg::Ack {
                ext_id: "m".into(),
                grant: 2,
                ok: false,
                reason: "untrusted".into(),
            },
            MidasMsg::LeaseRenew { grant: 2 },
            MidasMsg::Revoke {
                ext_id: "m".into(),
                reason: "policy change".into(),
            },
            MidasMsg::Replace {
                old_id: "m".into(),
                ext: signed(),
                lease_ns: 9,
                grant: 3,
            },
            MidasMsg::RequestDep {
                ext_id: "session".into(),
            },
            MidasMsg::HandoffState {
                node_name: "robot:1:1".into(),
                grants: [("m".to_string(), 4u64)].into(),
                exts: vec![signed()],
            },
            MidasMsg::GrantTransfer {
                node_name: "robot:1:1".into(),
                rebinds: vec![("m".into(), 4, 11)],
                lease_ns: 9,
            },
            MidasMsg::MovementExport {
                node_name: "robot:1:1".into(),
                records: vec![vec![1, 2, 3], vec![]],
            },
            MidasMsg::CatalogDigest { digest: 0xfeed },
            MidasMsg::CatalogPull {
                have: vec![("m".into(), 1)],
            },
            MidasMsg::CatalogPush {
                exts: vec![signed()],
            },
            MidasMsg::LeaseSync {
                entries: vec![(
                    "robot:1:1".into(),
                    7,
                    [("m".to_string(), 4u64)].into(),
                )],
            },
            MidasMsg::StreamDelta {
                rev: 12,
                delta: vec![0, 9, 9],
            },
        ];
        for m in msgs {
            let bytes = pmp_wire::to_bytes(&m);
            assert_eq!(pmp_wire::from_bytes::<MidasMsg>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn retired_roaming_handoff_tag_is_rejected() {
        // Tag 6 was the id-only roaming handoff; a peer that still sent
        // it gets a decode error, never a panic or a mis-parse.
        let mut bytes = vec![6];
        bytes.extend(pmp_wire::to_bytes(&"robot:1:1".to_string()));
        bytes.extend(pmp_wire::to_bytes(&vec!["m".to_string()]));
        assert_eq!(
            pmp_wire::from_bytes::<MidasMsg>(&bytes),
            Err(WireError::InvalidTag {
                type_name: "MidasMsg",
                tag: 6,
                offset: 0,
            })
        );
        assert!(pmp_wire::from_bytes::<MidasMsg>(&[6]).is_err());
    }
}
