//! World-building helpers shared by the workloads: permissions,
//! positions, local service calls and the unadapted twin robot.

use crate::stats;
use pmp_core::{BaseId, MobId, Platform};
use pmp_midas::ReceiverPolicy;
use pmp_net::{Position, SimRng};
use pmp_vm::perm::{Permission, Permissions};
use pmp_vm::prelude::{Value, VmError};
use std::time::Instant;

/// One simulated second, in nanoseconds.
pub const SEC: u64 = 1_000_000_000;

/// The fixed simulated step the sim-time workloads pump by.
pub const STEP_NS: u64 = SEC / 10;

/// The caller every local and remote call runs as (allowed by the
/// access-control advice).
pub const OPERATOR: &str = "operator:1";

/// Hall A: `[0,60]²`, base at the centre.
pub const HALL_A_BASE: Position = Position { x: 30.0, y: 30.0 };

/// Hall B: `[150,210]×[0,60]`, base at the centre.
pub const HALL_B_BASE: Position = Position { x: 180.0, y: 30.0 };

/// Radio range of every base and mobile.
pub const RANGE: f64 = 80.0;

/// Where the unadapted twin robot is parked: out of every base's range.
pub const TWIN_PARK: Position = Position {
    x: -5_000.0,
    y: -5_000.0,
};

/// The permission cap a mobile grants its hall authorities.
#[must_use]
pub fn cap() -> Permissions {
    Permissions::none()
        .with(Permission::Print)
        .with(Permission::Net)
        .with(Permission::Time)
        .with(Permission::Store)
}

/// Adds hall A's area and base.
pub fn hall_a(p: &mut Platform) -> BaseId {
    p.add_area("hall-a", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    p.add_base("hall-a", HALL_A_BASE, RANGE)
}

/// Adds hall B's area and base.
pub fn hall_b(p: &mut Platform) -> BaseId {
    p.add_area(
        "hall-b",
        Position::new(150.0, 0.0),
        Position::new(210.0, 60.0),
    );
    p.add_base("hall-b", HALL_B_BASE, RANGE)
}

/// A robot that trusts no authority, parked out of range: the same
/// `DrawingService` with nothing woven, for the base-call cost.
pub fn add_twin(p: &mut Platform) -> MobId {
    p.add_robot("robot:twin", TWIN_PARK, RANGE, ReceiverPolicy::new())
        .expect("twin robot")
}

/// One of the two calls of the dispatch mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalCall {
    /// `DrawingService.position()`: a read.
    Position,
    /// `DrawingService.moveTo(x, y)`: a write.
    MoveTo(i64, i64),
}

/// A seeded 3 : 1 mix of `position` reads and `moveTo` writes inside
/// `[0, 30]²` (the geofence): every block of four holds one write at a
/// seeded slot, and every write moves the pen along both axes (its
/// target differs in x and in y from the write before, which starts as
/// `last` and ends as the mix's last write), so each write drives both
/// motors.
pub fn local_mix(rng: &mut SimRng, n: usize, last: &mut (i64, i64)) -> Vec<LocalCall> {
    let mut calls = Vec::with_capacity(n);
    let other = |rng: &mut SimRng, not: i64| loop {
        let v = stats::range(rng, 0, 30);
        if v != not {
            break v;
        }
    };
    while calls.len() < n {
        let write = stats::range(rng, 0, 3) as usize;
        for slot in 0..4 {
            calls.push(if slot == write {
                *last = (other(rng, last.0), other(rng, last.1));
                LocalCall::MoveTo(last.0, last.1)
            } else {
                LocalCall::Position
            });
        }
    }
    calls.truncate(n);
    calls
}

/// Runs one local `DrawingService` call on `robot` as [`OPERATOR`].
///
/// # Errors
///
/// Whatever the call (or a woven advice) raises.
pub fn local_call(p: &mut Platform, robot: MobId, call: LocalCall) -> Result<Value, VmError> {
    let node = p.node_mut(robot);
    let svc = node.services["DrawingService"].clone();
    match call {
        LocalCall::Position => node.vm.call("DrawingService", "position", svc, vec![]),
        LocalCall::MoveTo(x, y) => node.vm.call(
            "DrawingService",
            "moveTo",
            svc,
            vec![Value::Int(x), Value::Int(y)],
        ),
    }
}

/// Sets the caller bound to local calls on `robot`.
pub fn act_as_operator(p: &mut Platform, robot: MobId) {
    *p.node_mut(robot).wiring.caller.lock() = OPERATOR.into();
}

/// Median wall-clock microseconds of one local call on `robot` over
/// `mix`.
pub fn call_p50_us(p: &mut Platform, robot: MobId, mix: &[LocalCall]) -> f64 {
    act_as_operator(p, robot);
    let mut samples = Vec::with_capacity(mix.len());
    for &call in mix {
        let t0 = Instant::now();
        let r = local_call(p, robot, call);
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(r).expect("probe call");
    }
    stats::median(&samples)
}

/// Median wall-clock microseconds of one local call on the unadapted
/// twin, over a seeded 3 : 1 mix of `calls` calls.
pub fn base_call_us(p: &mut Platform, twin: MobId, seed: u64, calls: usize) -> f64 {
    let mix = local_mix(&mut stats::rng(seed, 99), calls, &mut (0, 0));
    call_p50_us(p, twin, &mix)
}

/// Whether `robot` holds every extension in `ids`, each leased from
/// the base node `holder`.
#[must_use]
pub fn holds_all(p: &Platform, robot: MobId, ids: &[String], holder: BaseId) -> bool {
    let node = p.node(robot);
    let at = p.base(holder).node;
    ids.iter()
        .all(|id| node.receiver.is_installed(id) && node.receiver.lease_holder(id) == Some(at))
}

/// Pumps `STEP_NS` steps until `done` holds or `limit_ns` of simulated
/// time passes; returns whether `done` held.
pub fn pump_until(
    p: &mut Platform,
    limit_ns: u64,
    mut done: impl FnMut(&Platform) -> bool,
) -> bool {
    let end = p.now().0 + limit_ns;
    while !done(p) {
        if p.now().0 >= end {
            return false;
        }
        p.pump(STEP_NS);
    }
    true
}

/// Pumps `STEP_NS` steps for `span_ns` of simulated time, and on past it
/// until `done` holds or `limit_ns` passes. Returns how long `done` took
/// to first hold (simulated ns), or `None` if it never held. Set-ups pump
/// this way rather than with [`pump_until`], so that they do the same
/// simulated work for every seed whose world is ready within the span.
pub fn pump_for(
    p: &mut Platform,
    span_ns: u64,
    limit_ns: u64,
    mut done: impl FnMut(&Platform) -> bool,
) -> Option<u64> {
    let start = p.now().0;
    let mut held = None;
    loop {
        if held.is_none() && done(p) {
            held = Some(p.now().0 - start);
        }
        let elapsed = p.now().0 - start;
        if elapsed >= limit_ns || (elapsed >= span_ns && held.is_some()) {
            return held;
        }
        p.pump(STEP_NS);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Committed bytes on the listed bases' durable disks.
#[must_use]
pub fn disk_bytes(p: &Platform, bases: &[BaseId]) -> u64 {
    bases
        .iter()
        .map(|&b| p.base(b).durable.with(|e| e.disk().committed_bytes()) as u64)
        .sum()
}

/// Times an explicit `checkpoint_base`, then `crash_base` +
/// `restart_base`, on `base`. Returns `(checkpoint_ms, recover_ms,
/// store survived)`: whether the movement store holds as many records
/// after recovery as before the crash.
pub fn checkpoint_and_recover(
    p: &mut Platform,
    base: BaseId,
    spans: &mut crate::spans::Spans,
) -> (f64, f64, bool) {
    let records = p.base(base).store.len();
    let t0 = Instant::now();
    p.checkpoint_base(base);
    let t1 = Instant::now();
    spans.record("checkpoint_base", 0, t0, t1);
    let t2 = Instant::now();
    p.crash_base(base);
    p.restart_base(base);
    let t3 = Instant::now();
    spans.record("restart_base", 0, t2, t3);
    let ms = |d: std::time::Duration| d.as_nanos() as f64 / 1e6;
    (
        ms(t1 - t0),
        ms(t3 - t2),
        p.base(base).store.len() == records,
    )
}
