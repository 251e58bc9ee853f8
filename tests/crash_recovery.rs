//! End-to-end crash recovery: a base station dies mid-scenario and
//! comes back from its WAL + snapshot image (DESIGN.md §11).
//!
//! The full cycle — adapt, checkpoint, post-snapshot traffic, power
//! cut, restart — runs in rank order and in a permuted cell order, and
//! every recovered observable (FNV state digest, lease table, catalog,
//! hall database) must match its pre-crash value exactly. Separate tests injure the
//! committed image (torn tail, bit flip) and assert recovery degrades
//! to a clean prefix instead of panicking.

use pmp::core::rpc::InvocationSemantics;
use pmp::core::ProductionHalls;
use pmp::durable::record::encode_framed;
use pmp::durable::{Durable, RecoverReport};
use pmp::store::MovementRecord;
use pmp::wire::{Wire, Writer};
use std::collections::BTreeMap;

const SEC: u64 = 1_000_000_000;

/// Length and FNV-1a 64 hash of the snapshot file that
/// `snapshot_file_is_byte_identical_to_the_reference_construction`
/// checkpoints, as the test's own reference construction writes it.
const SNAPSHOT_LEN: usize = 189_098;
const SNAPSHOT_FNV: u64 = 0xa237_cd01_1cd8_0cbf;

/// Pre-crash fingerprint of everything the base must get back.
#[derive(Debug, PartialEq)]
struct BaseState {
    digest: u64,
    leases: String,
    catalog: Vec<String>,
    movements: Vec<String>,
}

fn base_state(w: &ProductionHalls) -> BaseState {
    let b = w.platform.base(w.base_a);
    BaseState {
        digest: b.durable_digest(),
        leases: format!("{:?}", b.base.lease_table()),
        catalog: b.base.catalog.ids(),
        movements: movements(w),
    }
}

fn movements(w: &ProductionHalls) -> Vec<String> {
    w.platform
        .base(w.base_a)
        .store
        .range(0, u64::MAX)
        .iter()
        .map(|r| format!("{} {} {:?} {}ns", r.robot, r.command, r.args, r.duration_ns))
        .collect()
}

/// Adapt in hall A, checkpoint, then draw so post-snapshot movement
/// records accumulate in the WAL.
/// `permute` runs each epoch's cells in the order seeded by it
/// ([`pmp::core::Platform::permute_cells`]) instead of rank order.
fn warmed_world(seed: u64, permute: Option<u64>) -> ProductionHalls {
    let mut w = ProductionHalls::build(seed);
    if let Some(order_seed) = permute {
        w.platform.permute_cells(order_seed);
    }
    w.platform.pump(6 * SEC);
    // The scenario seeds catalogs straight into memory; the checkpoint
    // folds them — plus the freshly granted leases — into the snapshot
    // baseline, so post-snapshot records are pure WAL replay.
    w.platform.checkpoint_base(w.base_a);
    let draw = w.platform.rpc_with(
        w.base_a,
        w.robot,
        "operator:1",
        "DrawingService",
        "drawLine",
        vec![0, 0, 10, 0],
        InvocationSemantics::Maybe,
    );
    w.platform.pump(2 * SEC);
    let outcomes = w.platform.take_rpc_outcomes();
    assert!(
        outcomes.iter().find(|o| o.req == draw).expect("reply").ok,
        "the warm-up draw must succeed"
    );
    w
}

/// The happy path: crash, restart, byte-identical state, then keep
/// serving. Returns the pre-crash fingerprint and the recovery report
/// so the cross-order test can compare runs.
fn crash_cycle(permute: Option<u64>) -> (BaseState, RecoverReport) {
    let mut w = warmed_world(17, permute);
    let before = base_state(&w);
    assert!(!before.movements.is_empty(), "movements were logged");
    assert!(before.leases.contains("robot:1:1"), "{}", before.leases);

    // Power cut. The rest of the world keeps running around the corpse.
    w.platform.crash_base(w.base_a);
    w.platform.pump(2 * SEC);

    let report = w.platform.restart_base(w.base_a);
    assert!(report.is_clean(), "{report:?}");
    assert!(report.snapshot_seq.is_some(), "checkpoint used: {report:?}");
    assert!(
        report.replayed > 0,
        "post-snapshot movements replayed from the WAL: {report:?}"
    );

    let after = base_state(&w);
    assert_eq!(after.digest, before.digest, "FNV digest survived the crash");
    assert_eq!(after.leases, before.leases, "lease table survived");
    assert_eq!(after.catalog, before.catalog, "catalog survived");
    assert_eq!(after.movements, before.movements, "hall database survived");

    // Liveness: the recovered base still renews leases and still logs
    // movements from fresh calls.
    w.platform.pump(6 * SEC);
    let draw = w.platform.rpc_with(
        w.base_a,
        w.robot,
        "operator:1",
        "DrawingService",
        "drawLine",
        vec![10, 0, 10, 5],
        InvocationSemantics::Maybe,
    );
    w.platform.pump(2 * SEC);
    let outcomes = w.platform.take_rpc_outcomes();
    let outcome = outcomes.iter().find(|o| o.req == draw).expect("reply");
    assert!(outcome.ok, "recovered base still serves: {outcome:?}");
    assert!(
        movements(&w).len() > before.movements.len(),
        "new movements land in the recovered store"
    );
    (before, report)
}

#[test]
fn base_recovers_byte_identically_under_the_serial_driver() {
    crash_cycle(None);
}

#[test]
fn crash_recovery_is_driver_invariant() {
    let (serial_state, serial_report) = crash_cycle(None);
    let (permuted_state, permuted_report) = crash_cycle(Some(1));
    assert_eq!(serial_state, permuted_state, "pre-crash worlds diverged");
    assert_eq!(
        serial_report, permuted_report,
        "recovery itself must not depend on the cell order"
    );
}

#[test]
fn torn_final_record_is_truncated_and_the_base_survives() {
    let mut w = warmed_world(23, None);
    w.platform.crash_base(w.base_a);

    // Shear bytes off the newest committed segment: the classic
    // half-written-record crash shape.
    let seg = w
        .platform
        .base(w.base_a)
        .durable
        .with(|e| e.segments().last().cloned())
        .expect("a post-snapshot segment exists");
    assert!(w
        .platform
        .base_mut(w.base_a)
        .durable
        .with(|e| e.disk_mut().inject_torn_tail(&seg, 3)));

    let report = w.platform.restart_base(w.base_a);
    let torn = report.torn.as_ref().expect("torn tail reported");
    assert_eq!(torn.file, seg);
    assert!(report.corrupt.is_none(), "{report:?}");

    // Whatever replayed is a strict prefix of the pre-crash database,
    // and the base keeps working afterwards.
    w.platform.pump(6 * SEC);
    assert!(
        !w.platform.base(w.base_a).base.catalog.ids().is_empty(),
        "catalog restored from the snapshot"
    );
}

#[test]
fn bit_flip_stops_replay_at_the_snapshot_baseline() {
    let mut w = warmed_world(29, None);
    let before = movements(&w);
    w.platform.crash_base(w.base_a);

    // Flip one bit inside the first post-snapshot record's body: the
    // CRC catches it and replay stops at the frame boundary.
    let seg = w
        .platform
        .base(w.base_a)
        .durable
        .with(|e| e.segments().first().cloned())
        .expect("a post-snapshot segment exists");
    assert!(w
        .platform
        .base_mut(w.base_a)
        .durable
        .with(|e| e.disk_mut().inject_bit_flip(&seg, 6)));

    let report = w.platform.restart_base(w.base_a);
    let corrupt = report.corrupt.as_ref().expect("corruption reported");
    assert_eq!(corrupt.file, seg);
    assert_eq!(corrupt.offset, 0, "offset names the poisoned frame");
    assert!(report.torn.is_none(), "{report:?}");

    // Replay stopped before the flip: the recovered database is a
    // strict prefix of the pre-crash one, never reordered or invented.
    let after = movements(&w);
    assert!(after.len() < before.len());
    assert_eq!(after[..], before[..after.len()]);

    // No panic, and the platform pumps on.
    w.platform.pump(6 * SEC);
}

/// FNV-1a 64 over `bytes`: a pin that shares no code with the wire
/// encoder or the CRC under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Writes `blob` as a `Vec<u8>` was encoded before byte slices became a
/// single copy: the count, then one `put_u8` per element.
fn put_blob_per_byte(w: &mut Writer, blob: &[u8]) {
    w.put_varu64(blob.len() as u64);
    for &b in blob {
        w.put_u8(b);
    }
}

#[test]
fn snapshot_file_is_byte_identical_to_the_reference_construction() {
    let mut w = warmed_world(31, None);
    let base = w.platform.base_mut(w.base_a);
    for i in 0..4000u64 {
        base.record_movement(MovementRecord {
            robot: format!("robot:{}:1", i % 16),
            device: "motor:x".into(),
            command: if i % 4 == 0 { "rotate" } else { "position" }.into(),
            args: (0..i % 4).map(|a| (a * i) as i64 - 2000).collect(),
            issued_at: 1_000_000 * i,
            duration_ns: 100 + i,
        });
    }
    w.platform.checkpoint_base(w.base_a);

    let b = w.platform.base(w.base_a);
    assert!(b.store.len() > 4000, "store holds {} rows", b.store.len());
    let (next_seq, snaps) = b
        .durable
        .with(|e| (e.next_seq(), e.disk().files_with_prefix("snap/")));
    assert_eq!(snaps.len(), 1, "compaction keeps one snapshot: {snaps:?}");
    let on_disk = b
        .durable
        .with(|e| e.disk().read(&snaps[0]).unwrap().to_vec());

    // Length and hash of this file as the per-record-clone, per-byte
    // reference construction below writes it. They cover every
    // namespace blob, the frame and its CRC.
    assert_eq!(
        (on_disk.len(), fnv1a(&on_disk)),
        (SNAPSHOT_LEN, SNAPSHOT_FNV),
        "snapshot bytes moved"
    );

    // The construction checkpoints used before encoding in place: clone
    // every movement row and encode the clones one by one, encode the
    // snapshot body on its own with byte blobs written per byte, then
    // copy it into a frame.
    let rows: Vec<MovementRecord> = b.store.range(0, u64::MAX).into_iter().cloned().collect();
    let mut store_blob = Writer::new();
    store_blob.put_varu64(rows.len() as u64);
    for row in &rows {
        row.encode(&mut store_blob);
    }
    let mut namespaces = BTreeMap::new();
    namespaces.insert(b.store.namespace().to_string(), store_blob.into_bytes());
    for state in [&b.base as &dyn Durable, &b.flight, &b.rpc] {
        namespaces.insert(state.namespace().to_string(), state.snapshot_bytes());
    }
    assert_eq!(namespaces.len(), 4, "store, base, flight and rpc");
    let mut body = Writer::new();
    next_seq.encode(&mut body);
    body.put_varu64(namespaces.len() as u64);
    for (ns, blob) in &namespaces {
        body.put_str(ns);
        put_blob_per_byte(&mut body, blob);
    }
    let mut reference = Vec::new();
    encode_framed(body.as_bytes(), &mut reference);
    assert_eq!(on_disk, reference, "snapshot bytes moved");

    // Nothing was logged after the checkpoint, so recovery restores the
    // whole base from that one file.
    let digest = b.durable_digest();
    w.platform.crash_base(w.base_a);
    let report = w.platform.restart_base(w.base_a);
    assert_eq!(report.snapshot_seq, Some(next_seq));
    assert_eq!(report.replayed, 0, "{report:?}");
    assert_eq!(w.platform.base(w.base_a).durable_digest(), digest);
}

/// Calls that completed successfully since the last take.
fn successes(w: &mut ProductionHalls) -> usize {
    w.platform
        .take_rpc_outcomes()
        .iter()
        .filter(|o| o.ok)
        .count()
}

/// Monitored draws stream into the hall database through the base's
/// durable store. A checkpoint waits until the log has outgrown the
/// last snapshot, so snapshots grow geometrically with the store: the
/// snapshot count grows with the logarithm of the store, where a fixed
/// record cadence would take one snapshot per `snapshot_every` records.
#[test]
fn snapshot_count_grows_logarithmically_with_the_store() {
    const DRAWS: u64 = 3_000;
    const DRAWS_PER_STEP: u64 = 30;
    let mut w = ProductionHalls::build(37);
    w.platform.pump(6 * SEC);
    let snapshots = |w: &ProductionHalls| {
        w.platform
            .telemetry()
            .counter_value("durable.snapshot.count")
    };
    // `(store rows, snapshots so far)` after every step.
    let mut samples = Vec::new();
    let mut ok = 0;
    for step in 0..DRAWS / DRAWS_PER_STEP {
        for k in 0..DRAWS_PER_STEP {
            let x = ((step * DRAWS_PER_STEP + k) % 40) as i64;
            w.platform.rpc_with(
                w.base_a,
                w.robot,
                "operator:1",
                "DrawingService",
                "drawLine",
                vec![x, 0, x, 10],
                InvocationSemantics::Maybe,
            );
        }
        w.platform.pump(SEC / 10);
        ok += successes(&mut w);
        samples.push((w.platform.base(w.base_a).store.len(), snapshots(&w)));
    }
    w.platform.pump(2 * SEC);
    ok += successes(&mut w);
    assert_eq!(ok as u64, DRAWS, "every draw succeeded");

    // Each doubling of the store costs a bounded number of snapshots.
    // (The store gains 12 rows per draw, so a fixed 256-record cadence
    // would take one snapshot about every 21 draws: over 60 in the last half.)
    let (rows, total) = *samples.last().unwrap();
    assert!(rows > 30_000, "the store holds {rows} rows");
    for &(n, count) in &samples {
        let (_, earlier) = samples
            .iter()
            .rev()
            .find(|(m, _)| 2 * m <= n)
            .copied()
            .unwrap_or((0, 0));
        assert!(
            count - earlier <= 3,
            "{} snapshots while the store doubled to {n} rows: {samples:?}",
            count - earlier
        );
    }
    assert!(
        total <= 2 * u64::from(rows.ilog2()),
        "{total} snapshots for {rows} rows"
    );

    // The log since the last snapshot replays onto it byte for byte.
    let digest = w.platform.base(w.base_a).durable_digest();
    w.platform.crash_base(w.base_a);
    let report = w.platform.restart_base(w.base_a);
    assert!(report.is_clean(), "{report:?}");
    assert!(report.snapshot_seq.is_some(), "{report:?}");
    assert!(report.replayed > 0, "{report:?}");
    assert_eq!(w.platform.base(w.base_a).durable_digest(), digest);
}
