//! Cross-driver determinism: the parallel epoch driver must be
//! observably indistinguishable from the serial one (DESIGN.md §10).
//!
//! Each scenario runs twice — once per driver — and every observable is
//! compared: the network trace digest (per-delivery byte sequence), the
//! journal digest (platform + every node VM), hall-database contents,
//! installed-extension ids, billing settlements, RPC outcomes, and the
//! robot's canvas. A single diverging RNG draw, reordered delivery, or
//! racy journal write flips a digest.

use pmp::core::{
    Driver, ParallelDriver, Platform, ProductionHalls, SerialDriver, CORRIDOR, IN_HALL_B,
};
use pmp::net::{LinkModel, Position};
use pmp::vm::perm::{Permission, Permissions};

const SEC: u64 = 1_000_000_000;

/// Everything a scenario run exposes to an observer.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    driver: &'static str,
    trace: u64,
    journal: u64,
    observables: Vec<String>,
}

impl Fingerprint {
    fn assert_matches(&self, other: &Fingerprint) {
        assert_eq!(
            self.observables, other.observables,
            "{} vs {} observables diverged",
            self.driver, other.driver
        );
        assert_eq!(
            self.trace, other.trace,
            "{} vs {} trace digests diverged",
            self.driver, other.driver
        );
        assert_eq!(
            self.journal, other.journal,
            "{} vs {} journal digests diverged",
            self.driver, other.driver
        );
    }
}

fn fingerprint(driver_name: &'static str, p: &Platform, observables: Vec<String>) -> Fingerprint {
    Fingerprint {
        driver: driver_name,
        trace: p.trace_digest(),
        journal: p.journal_digest(),
        observables,
    }
}

/// The full production-hall lifecycle: adaptation, an authorized draw,
/// roaming A → corridor → B, geofenced moves, and a billing revocation.
fn run_production(driver: Box<dyn Driver>) -> Fingerprint {
    let name = driver.name();
    let mut w = ProductionHalls::build(11);
    w.platform.set_driver(driver);
    w.platform.sim.trace.set_logging(true);

    w.platform.pump(6 * SEC);
    let draw = w.platform.rpc(
        w.base_a,
        w.robot,
        "operator:1",
        "DrawingService",
        "drawLine",
        vec![0, 0, 10, 0],
    );
    w.platform.pump(2 * SEC);
    w.platform.move_node(w.robot, CORRIDOR);
    w.platform.pump(12 * SEC);
    w.platform.move_node(w.robot, IN_HALL_B);
    w.platform.pump(6 * SEC);
    let fenced_ok = w.platform.rpc(
        w.base_b,
        w.robot,
        "anyone",
        "DrawingService",
        "moveTo",
        vec![20, 20],
    );
    let fenced_bad = w.platform.rpc(
        w.base_b,
        w.robot,
        "anyone",
        "DrawingService",
        "moveTo",
        vec![50, 5],
    );
    w.platform.pump(2 * SEC);
    w.platform
        .revoke_extension(w.base_b, "ext/billing", "hall policy: billing disabled");
    w.platform.pump(3 * SEC);

    let mut obs = Vec::new();
    for outcome in w.platform.take_rpc_outcomes() {
        let tag = match outcome.req {
            r if r == draw => "draw",
            r if r == fenced_ok => "fenced_ok",
            r if r == fenced_bad => "fenced_bad",
            _ => "other",
        };
        obs.push(format!("rpc {tag} ok={} value={}", outcome.ok, outcome.value));
    }
    for base in [w.base_a, w.base_b] {
        let b = w.platform.base(base);
        obs.push(format!("store {} len={}", b.name, b.store.len()));
        for r in b.store.range(0, u64::MAX) {
            obs.push(format!(
                "  {} {} {:?} {}ns",
                r.robot, r.command, r.args, r.duration_ns
            ));
        }
        for (robot, reason, amount) in &b.charges {
            obs.push(format!("charge {} {robot} {reason} {amount}", b.name));
        }
    }
    obs.push(format!(
        "installed {:?}",
        w.platform.node(w.robot).receiver.installed_ids()
    ));
    obs.push(format!(
        "canvas {:?}",
        w.platform.node(w.robot).canvas().unwrap().strokes()
    ));
    fingerprint(name, &w.platform, obs)
}

/// A lossy-link failure-injection scenario on the full platform: 20 %
/// loss, a base outage mid-run, then recovery — heavy use of the link
/// RNG, whose draw order is the first casualty of a racy merge.
fn run_failures(driver: Box<dyn Driver>) -> Fingerprint {
    let name = driver.name();
    let mut p = Platform::with_link(91, LinkModel::lossy(0.20));
    p.set_driver(driver);
    p.sim.trace.set_logging(true);
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
    let sealed = p
        .base(base)
        .seal(&pmp::extensions::billing::package("* Motor.*(..)", 1, 1));
    p.base_mut(base).base.catalog.put(sealed);
    let policy = p.trusting_policy(&[base], Permissions::none().with(Permission::Net));
    let robot = p
        .add_robot("robot:9:1", Position::new(40.0, 30.0), 80.0, policy)
        .expect("robot");

    p.pump(30 * SEC);
    let installed_lossy = p.node(robot).receiver.installed_ids();
    let base_node = p.base(base).node;
    p.sim.set_online(base_node, false);
    p.pump(15 * SEC);
    let installed_outage = p.node(robot).receiver.installed_ids();
    p.sim.set_online(base_node, true);
    p.pump(15 * SEC);
    let installed_recovered = p.node(robot).receiver.installed_ids();

    let obs = vec![
        format!("lossy {installed_lossy:?}"),
        format!("outage {installed_outage:?}"),
        format!("recovered {installed_recovered:?}"),
        format!("drops {}", p.sim.trace.stats().dropped_loss),
    ];
    fingerprint(name, &p, obs)
}

#[test]
fn production_hall_is_driver_invariant() {
    let serial = run_production(Box::new(SerialDriver));
    let parallel = run_production(Box::new(ParallelDriver::default()));
    serial.assert_matches(&parallel);
    // The scenario actually exercised the world.
    assert!(serial.observables.iter().any(|o| o.starts_with("rpc draw ok=true")));
    assert!(serial
        .observables
        .iter()
        .any(|o| o.starts_with("charge hall-b")));
}

#[test]
fn lossy_failure_injection_is_driver_invariant() {
    let serial = run_failures(Box::new(SerialDriver));
    let parallel = run_failures(Box::new(ParallelDriver::default()));
    serial.assert_matches(&parallel);
    assert!(
        serial.observables.iter().any(|o| o.contains("ext/billing")),
        "adaptation converged despite loss: {:?}",
        serial.observables
    );
}

#[test]
fn parallel_runs_are_self_consistent_across_thread_counts() {
    // 1, 2, and many workers must all match: shard shape is invisible.
    let one = run_production(Box::new(ParallelDriver { threads: 1 }));
    let two = run_production(Box::new(ParallelDriver { threads: 2 }));
    let many = run_production(Box::new(ParallelDriver { threads: 16 }));
    one.assert_matches(&two);
    two.assert_matches(&many);
}

#[test]
fn serial_runs_are_repeatable() {
    let a = run_production(Box::new(SerialDriver));
    let b = run_production(Box::new(SerialDriver));
    a.assert_matches(&b);
}

/// RPC outcomes merge at the epoch barrier sorted by
/// `(observation time, request id)` — never by which cell (and hence
/// which driver rank) happened to hold them. A burst of concurrent
/// semantic calls under loss lands replies on the base in arbitrary
/// cell order; the drained outcome *sequence* must still be identical
/// under both drivers and monotone in `(at, req)`.
fn run_outcome_order(driver: Box<dyn Driver>) -> (Fingerprint, Vec<(u64, u64)>) {
    use pmp::core::rpc::InvocationSemantics;
    let name = driver.name();
    let mut p = Platform::with_link(55, LinkModel::lossy(0.20));
    p.set_driver(driver);
    p.sim.trace.set_logging(true);
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
    let policy = p.trusting_policy(&[base], Permissions::all());
    let robot = p
        .add_robot("robot:5:1", Position::new(40.0, 30.0), 80.0, policy)
        .expect("robot");
    p.pump(3 * SEC);
    // A burst of in-flight calls, mixed semantics, no pump between
    // them: their replies race and their merge order is the thing
    // under test.
    for i in 0..8i64 {
        let sem = if i % 2 == 0 {
            InvocationSemantics::AtMostOnce
        } else {
            InvocationSemantics::AtLeastOnce
        };
        p.rpc_with(
            base,
            robot,
            "operator:1",
            "DrawingService",
            "moveTo",
            vec![i, i],
            sem,
        );
    }
    p.pump(25 * SEC);
    let outcomes = p.take_rpc_outcomes();
    let keys: Vec<(u64, u64)> = outcomes.iter().map(|o| (o.at, o.req)).collect();
    let obs = outcomes
        .iter()
        .map(|o| format!("req={} ok={} at={}", o.req, o.ok, o.at))
        .collect();
    (fingerprint(name, &p, obs), keys)
}

#[test]
fn rpc_outcome_order_is_driver_invariant_and_time_sorted() {
    let (serial, serial_keys) = run_outcome_order(Box::new(SerialDriver));
    let (parallel, parallel_keys) = run_outcome_order(Box::new(ParallelDriver::default()));
    serial.assert_matches(&parallel);
    assert_eq!(serial_keys, parallel_keys);
    assert!(
        serial_keys.windows(2).all(|w| w[0] <= w[1]),
        "outcomes must be sorted by (at, req): {serial_keys:?}"
    );
    assert!(!serial_keys.is_empty());
}
