//! The paper's headline scenario (Fig. 2): a robot roams between two
//! production halls; each hall proactively adapts it with its own
//! policies the moment it arrives, and everything evaporates when it
//! leaves.
//!
//! ```bash
//! cargo run --example production_hall
//! ```

use pmp::core::rpc::InvocationSemantics;
use pmp::core::{ProductionHalls, CORRIDOR, IN_HALL_B};

const SEC: u64 = 1_000_000_000;

fn show(w: &ProductionHalls, label: &str) {
    let node = w.platform.node(w.robot);
    println!(
        "[{}] {label}: extensions = {:?}",
        w.platform.now(),
        node.receiver.installed_ids()
    );
}

fn main() {
    let mut w = ProductionHalls::build(2003);
    println!("world: hall A (monitoring + access control), hall B (geofence + billing)");

    // --- Hall A -------------------------------------------------------
    w.platform.pump(6 * SEC);
    show(&w, "robot entered hall A");

    // An authorized operator draws remotely; the hall logs every motor
    // command into its database.
    let ok = w.platform.rpc_with(
        w.base_a, w.robot, "operator:1", "DrawingService", "drawLine",
        vec![0, 0, 20, 0],
        InvocationSemantics::Maybe,
    );
    let denied = w.platform.rpc_with(
        w.base_a, w.robot, "saboteur", "DrawingService", "drawLine",
        vec![0, 0, 99, 99],
        InvocationSemantics::Maybe,
    );
    w.platform.pump(3 * SEC);
    for o in w.platform.take_rpc_outcomes() {
        let who = if o.req == ok { "operator:1" } else if o.req == denied { "saboteur  " } else { "?" };
        println!("  rpc from {who}: ok={} {}", o.ok, o.value);
    }
    println!(
        "  hall A database now holds {} movement records",
        w.platform.base(w.base_a).store.len()
    );

    // --- Leaving ------------------------------------------------------
    w.platform.move_node(w.robot, CORRIDOR);
    w.platform.pump(12 * SEC);
    show(&w, "robot left into the corridor (leases lapsed)");

    // --- Hall B -------------------------------------------------------
    w.platform.move_node(w.robot, IN_HALL_B);
    w.platform.pump(6 * SEC);
    show(&w, "robot entered hall B");

    let inside = w.platform.rpc_with(
        w.base_b, w.robot, "anyone", "DrawingService", "moveTo", vec![20, 20],
        InvocationSemantics::Maybe,
    );
    let outside = w.platform.rpc_with(
        w.base_b, w.robot, "anyone", "DrawingService", "moveTo", vec![55, 5],
        InvocationSemantics::Maybe,
    );
    w.platform.pump(3 * SEC);
    for o in w.platform.take_rpc_outcomes() {
        let what = if o.req == inside { "moveTo(20,20) inside fence " } else if o.req == outside { "moveTo(55,5) outside fence" } else { "?" };
        println!("  {what}: ok={} {}", o.ok, o.value);
    }

    // The hall turns billing off; the settlement arrives as the
    // extension's shutdown procedure runs.
    w.platform
        .revoke_extension(w.base_b, "ext/billing", "end of shift");
    w.platform.pump(3 * SEC);
    for (robot, reason, amount) in &w.platform.base(w.base_b).charges {
        println!("  billing settled: {robot} owes {amount} units ({reason})");
    }
    show(&w, "after hall B revoked billing");
    println!("done — the robot itself never carried any of this code.");
}
