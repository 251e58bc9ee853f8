//! Property test for the delivery-accounting invariant: every unicast
//! submission is eventually counted exactly once as delivered,
//! dropped-at/en-route-out-of-range, or lost on the link — i.e. after
//! the event queue drains,
//!
//! `sent == delivered + dropped_range + dropped_loss`.
//!
//! (Broadcast copies are accounted under `broadcasts`/`dropped_*` with
//! no `sent` bump, so the randomized runs below use unicast only.)
//!
//! Randomization comes from the simulator's own deterministic
//! [`SimRng`], so each of these cases is exactly reproducible by seed.

use pmp_net::prelude::*;
use pmp_net::SimRng;

/// One randomized world: 2–6 nodes scattered near/far, a random link
/// loss rate, random mid-run moves, partitions, and radio toggles.
fn randomized_run(seed: u64) -> NetStats {
    let mut r = SimRng::new(seed);
    let loss = r.next_f64() * 0.6;
    let mut sim = Simulator::with_link(seed, LinkModel::lossy(loss));

    let n_nodes = 2 + r.range_u64(5) as usize;
    let nodes: Vec<NodeId> = (0..n_nodes)
        .map(|i| {
            // Mostly clustered in range, some stragglers far away.
            let x = r.range_u64(120) as f64;
            let y = r.range_u64(40) as f64;
            sim.add_node(format!("n{i}"), Position::new(x, y), 60.0)
        })
        .collect();

    let n_sends = 20 + r.range_u64(80);
    for _ in 0..n_sends {
        let from = nodes[r.range_u64(n_nodes as u64) as usize];
        let to = nodes[r.range_u64(n_nodes as u64) as usize];
        let len = r.range_u64(64) as usize;
        sim.send(from, to, "prop", vec![0u8; len]);

        // Occasionally shake the world while messages are in flight, so
        // the delivery-time range check exercises `dropped_range`.
        match r.range_u64(10) {
            0 => {
                let node = nodes[r.range_u64(n_nodes as u64) as usize];
                let x = r.range_u64(400) as f64;
                sim.move_node(node, Position::new(x, 0.0));
            }
            1 => {
                let a = nodes[r.range_u64(n_nodes as u64) as usize];
                let b = nodes[r.range_u64(n_nodes as u64) as usize];
                sim.partition(a, b);
            }
            2 => {
                let node = nodes[r.range_u64(n_nodes as u64) as usize];
                sim.set_online(node, r.chance(0.5));
            }
            3 => {
                sim.run_for(1 + r.range_u64(2_000_000));
            }
            _ => {}
        }
    }

    // Drain every in-flight event so each submission has been resolved
    // one way or the other.
    while sim.has_events() {
        sim.step();
    }
    sim.trace.stats()
}

#[test]
fn sent_equals_delivered_plus_drops_across_randomized_runs() {
    for seed in 0..60 {
        let stats = randomized_run(seed);
        assert_eq!(
            stats.sent,
            stats.delivered + stats.dropped_range + stats.dropped_loss,
            "accounting leak at seed {seed}: {stats:?}"
        );
        assert_eq!(stats.broadcasts, 0, "unicast-only run");
    }
}

#[test]
fn mixed_workload_still_balances_after_drain() {
    // A hand-built nasty case: loss + an offline receiver + a receiver
    // that walks out of range mid-flight.
    let mut sim = Simulator::with_link(99, LinkModel::lossy(0.4));
    let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
    let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
    let c = sim.add_node("c", Position::new(20.0, 0.0), 50.0);
    for i in 0..50 {
        sim.send(a, b, "x", vec![0; 16]);
        sim.send(a, c, "y", vec![0; 32]);
        if i == 10 {
            sim.set_online(c, false);
        }
        if i == 20 {
            sim.move_node(b, Position::new(500.0, 0.0));
        }
    }
    while sim.has_events() {
        sim.step();
    }
    let s = sim.trace.stats();
    assert_eq!(s.sent, 100);
    assert_eq!(s.sent, s.delivered + s.dropped_range + s.dropped_loss, "{s:?}");
    assert!(s.dropped_range > 0, "range drops exercised: {s:?}");
    assert!(s.dropped_loss > 0, "loss drops exercised: {s:?}");
}
