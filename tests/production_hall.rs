//! Full-platform integration tests: the paper's production-hall
//! lifecycle (Fig. 2) end to end — discovery, signed distribution,
//! session + access control on remote calls, monitoring into the hall
//! database, revocation on departure, and per-hall policy differences.

use pmp::core::{ProductionHalls, CORRIDOR, IN_HALL_B};
use pmp::midas::ReceiverEvent;
use pmp::telemetry::Subsystem;

const SEC: u64 = 1_000_000_000;

fn adapted_world() -> ProductionHalls {
    let mut w = ProductionHalls::build(11);
    w.platform.pump(6 * SEC);
    assert_eq!(
        w.platform.node(w.robot).receiver.installed_ids(),
        vec![
            "ext/access-control".to_string(),
            "ext/monitoring".to_string(),
            "ext/session".to_string(),
        ],
        "hall A catalog installed (session pulled in as implicit dep)"
    );
    w
}

#[test]
fn entering_hall_a_installs_the_full_catalog() {
    let _ = adapted_world();
}

#[test]
fn authorized_operator_draws_and_movements_reach_the_hall_database() {
    let mut w = adapted_world();
    let req = w.platform.rpc(
        w.base_a,
        w.robot,
        "operator:1",
        "DrawingService",
        "drawLine",
        vec![0, 0, 10, 0],
    );
    w.platform.pump(2 * SEC);

    let outcomes = w.platform.take_rpc_outcomes();
    let outcome = outcomes.iter().find(|o| o.req == req).expect("reply");
    assert!(outcome.ok, "authorized call succeeded: {outcome:?}");

    // The stroke landed on paper.
    let canvas = w.platform.node(w.robot).canvas().unwrap();
    assert_eq!(canvas.len(), 1);
    assert_eq!(canvas.strokes()[0].to, (10, 0));

    // The monitoring extension streamed the motor commands to hall A's
    // database (Fig. 3b step 3).
    let store = &w.platform.base(w.base_a).store;
    assert!(!store.is_empty(), "movements logged");
    let moves = store.by_robot("robot:1:1");
    assert!(
        moves.iter().any(|r| r.command == "Motor.rotate" && r.args == vec![10]),
        "the X rotation was logged: {moves:?}"
    );
    assert!(moves.iter().all(|r| r.robot == "robot:1:1"));
    assert!(moves.iter().any(|r| r.duration_ns > 0));
}

#[test]
fn unauthorized_caller_is_denied_by_the_access_control_extension() {
    let mut w = adapted_world();
    let req = w.platform.rpc(
        w.base_a,
        w.robot,
        "intruder:99",
        "DrawingService",
        "drawLine",
        vec![0, 0, 10, 0],
    );
    w.platform.pump(2 * SEC);

    let outcomes = w.platform.take_rpc_outcomes();
    let outcome = outcomes.iter().find(|o| o.req == req).expect("reply");
    assert!(!outcome.ok);
    assert!(
        outcome.value.contains("AccessDeniedException"),
        "denied with the paper's exception: {}",
        outcome.value
    );
    // The hardware never moved.
    assert!(w.platform.node(w.robot).canvas().unwrap().is_empty());
}

#[test]
fn leaving_hall_a_withdraws_every_extension() {
    let mut w = adapted_world();
    w.platform.move_node(w.robot, CORRIDOR);
    w.platform.pump(12 * SEC);

    let node = w.platform.node(w.robot);
    assert!(
        node.receiver.installed_ids().is_empty(),
        "all extensions gone: {:?}",
        node.receiver.installed_ids()
    );
    assert!(node
        .events
        .iter()
        .any(|e| matches!(e, ReceiverEvent::Removed { reason, .. } if reason.contains("lease expired"))));
}

#[test]
fn hall_b_applies_its_own_policy_geofence() {
    let mut w = adapted_world();
    // Roam: hall A → corridor → hall B.
    w.platform.move_node(w.robot, CORRIDOR);
    w.platform.pump(12 * SEC);
    w.platform.move_node(w.robot, IN_HALL_B);
    w.platform.pump(6 * SEC);

    let ids = w.platform.node(w.robot).receiver.installed_ids();
    assert_eq!(
        ids,
        vec!["ext/billing".to_string(), "ext/geofence".to_string()],
        "hall B catalog replaced hall A's"
    );

    // Inside the fence: allowed.
    let ok_req = w.platform.rpc(
        w.base_b,
        w.robot,
        "anyone",
        "DrawingService",
        "moveTo",
        vec![20, 20],
    );
    // Outside the fence: denied (paper §4.5 "Control").
    let bad_req = w.platform.rpc(
        w.base_b,
        w.robot,
        "anyone",
        "DrawingService",
        "moveTo",
        vec![50, 5],
    );
    w.platform.pump(2 * SEC);
    let outcomes = w.platform.take_rpc_outcomes();
    let ok = outcomes.iter().find(|o| o.req == ok_req).unwrap();
    assert!(ok.ok, "{ok:?}");
    let bad = outcomes.iter().find(|o| o.req == bad_req).unwrap();
    assert!(!bad.ok);
    assert!(bad.value.contains("AccessDeniedException"));
    // Position is clamped to the permitted move only.
    let robot = w.platform.node(w.robot).robot.as_ref().unwrap();
    assert_eq!(robot.lock().position(), (20, 20));
}

#[test]
fn telemetry_agrees_with_legacy_stats() {
    let mut w = adapted_world();
    w.platform.rpc(
        w.base_a,
        w.robot,
        "operator:1",
        "DrawingService",
        "drawLine",
        vec![0, 0, 10, 0],
    );
    w.platform.pump(2 * SEC);
    // A manual checkpoint, so the snapshot path's samples exist too.
    w.platform.checkpoint_base(w.base_a);

    // `NetStats` is a view of the platform registry's `net.sim.*`
    // counters: the simulator counts into the platform's registry, not
    // into a private one.
    let net = w.platform.sim.trace.stats();
    let shared = w.platform.telemetry();
    assert_eq!(shared.counter_value("net.sim.sent"), net.sent);
    assert_eq!(shared.counter_value("net.sim.delivered"), net.delivered);
    assert_eq!(shared.counter_value("net.sim.dropped_range"), net.dropped_range);
    assert_eq!(shared.counter_value("net.sim.dropped_loss"), net.dropped_loss);
    assert!(net.delivered > 0, "traffic flowed: {net:?}");

    // The robot VM's registry must agree with the legacy `VmStats` view
    // — same counters, two ways of reading them.
    let node = w.platform.node(w.robot);
    let stats = node.vm.stats();
    let reg = &node.vm.telemetry().registry;
    assert_eq!(reg.counter_value("vm.hooks.checks"), stats.hook_checks);
    assert_eq!(
        reg.counter_value("vm.hooks.advice_dispatches"),
        stats.advice_dispatches
    );
    assert_eq!(reg.counter_value("vm.interp.invocations"), stats.invocations);
    assert!(stats.hook_checks > 0, "adapted calls probed hooks: {stats:?}");
    assert!(stats.advice_dispatches > 0, "advice ran: {stats:?}");

    // The base stations' storage engines journal their write path:
    // every movement row in the hall database was first a WAL append,
    // and the appends were group-committed at epoch barriers. The
    // batch histogram's sample total must agree with the append count
    // (each committed record belongs to exactly one batch).
    let store_len = w.platform.base(w.base_a).store.len() as u64;
    let appends = shared.counter_value("durable.wal.appends");
    assert!(
        appends >= store_len,
        "every stored movement hit the WAL: {appends} < {store_len}"
    );
    assert!(shared.counter_value("durable.wal.commits") > 0);
    shared.with(|t| {
        let batch = t
            .registry
            .histogram_by_name("durable.commit.batch")
            .expect("commit batches recorded");
        assert_eq!(batch.sum(), appends, "batches partition the appends");
        let append_ns = t
            .registry
            .histogram_by_name("durable.wal.append_ns")
            .expect("append latency recorded");
        assert_eq!(append_ns.count(), appends);
        // Every checkpoint records its wall time and file size.
        let snapshots = t.registry.counter_value("durable.snapshot.count");
        assert!(snapshots > 0, "the base checkpointed");
        for name in ["durable.snapshot.ns", "durable.snapshot.bytes"] {
            let h = t
                .registry
                .histogram_by_name(name)
                .unwrap_or_else(|| panic!("{name} recorded"));
            assert_eq!(h.count(), snapshots, "{name}: one sample per checkpoint");
        }
    });

    // The journal carried the distribution trail and delivery events.
    let (ships, delivers) = shared.with(|t| {
        (
            t.journal.events().filter(|e| e.name == "midas.ship").count(),
            t.journal
                .events()
                .filter(|e| e.subsystem == Subsystem::Net)
                .count(),
        )
    });
    assert!(ships >= 3, "hall A shipped its catalog: {ships}");
    assert!(delivers > 0, "deliveries journaled");

    // Emit the per-scenario summary (visible with --nocapture).
    println!("{}", w.telemetry_summary());
}

#[test]
fn revoking_billing_settles_charges_at_the_base() {
    let mut w = ProductionHalls::build(13);
    // Start in hall B (billing hall).
    w.platform.move_node(w.robot, IN_HALL_B);
    w.platform.pump(6 * SEC);
    assert!(w.platform.node(w.robot).receiver.is_installed("ext/billing"));

    // Ten motor actions at rate 2.
    for i in 1..=5 {
        w.platform.rpc(
            w.base_b,
            w.robot,
            "anyone",
            "DrawingService",
            "moveTo",
            vec![i, i],
        );
    }
    w.platform.pump(3 * SEC);

    // The hall revokes billing while the robot is present: the shutdown
    // procedure settles the accumulated charge.
    w.platform
        .revoke_extension(w.base_b, "ext/billing", "hall policy: billing disabled");
    w.platform.pump(3 * SEC);

    let charges = &w.platform.base(w.base_b).charges;
    assert_eq!(charges.len(), 1, "one settlement: {charges:?}");
    let (robot, reason, amount) = &charges[0];
    assert_eq!(robot, "robot:1:1");
    assert!(reason.contains("revoked"));
    // moveTo(i,i) → two motor rotations each (x and y), 5 calls,
    // plus position() reads inside moveTo; rate 2. Just check shape.
    assert!(*amount > 0, "charged a positive amount: {amount}");
    assert_eq!(*amount % 2, 0, "multiple of the rate");
}
