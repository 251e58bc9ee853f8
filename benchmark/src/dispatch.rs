//! `dispatch`: a closed loop of local `DrawingService` calls through
//! woven shipped advice, one caller.
//!
//! Set-up: one hall base whose catalog holds session and access-control
//! advice on `DrawingService.*`, billing on `Motor.*` and a geofence on
//! `Plotter.moveTo` — all published through `publish_extension`, none of
//! them sending messages — and one robot adapted before timing starts.
//! Timed phase: batches of a seeded 3 : 1 mix of `position` reads and
//! `moveTo` writes, each call timed alone, with one simulated second
//! pumped after each batch so leases keep renewing. The step is a whole
//! second, the base's scan and renewal period, so every step carries the
//! same periodic work whatever the seed.

use crate::layers::{self, LayerInput, Snap};
use crate::spans::Spans;
use crate::stats::{self, median};
use crate::world::{self, LocalCall, SEC};
use crate::{Check, Episode, Size};
use pmp_core::Platform;
use pmp_net::Position;
use std::time::Instant;

/// Advice dispatches of one `position` read under this catalog.
const PER_READ: u64 = 3;

/// Advice dispatches of one `moveTo` write that moves both motors under
/// this catalog.
const PER_WRITE: u64 = 6;

/// Simulated time every set-up pumps: the robot is adapted after 1.1 s
/// whatever the seed.
const SETUP_NS: u64 = 2 * SEC;

/// `(batches, calls per batch)` of the timed phase.
fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (100, 1_000),
        Size::Tiny => (4, 100),
    }
}

/// Runs one `dispatch` episode.
pub fn episode(seed: u64, size: Size, spans: &mut Spans, setup_only: bool) -> Episode {
    let (batches, per_batch) = shape(size);
    let mut ep = Episode::default();
    let mut rng = stats::rng(seed, 1);

    // ---- set-up -------------------------------------------------------
    let t_setup = Instant::now();
    let mut p = Platform::new(seed);
    let base = world::hall_a(&mut p);
    let catalog = [
        pmp_extensions::session::package("* DrawingService.*(..)", 1),
        pmp_extensions::access_control::package(
            "* DrawingService.*(..)",
            &[world::OPERATOR, "operator:2"],
            1,
        ),
        pmp_extensions::billing::package("* Motor.*(..)", 2, 1),
        pmp_extensions::geofence::package(0, 0, 30, 30, 1),
    ];
    let ids: Vec<String> = catalog.iter().map(|pkg| pkg.meta.id.clone()).collect();
    for pkg in &catalog {
        spans.time("publish_extension", 0, || p.publish_extension(base, pkg));
    }
    let policy = p.trusting_policy(&[base], world::cap());
    let at = Position::new(
        stats::float(&mut rng, 20.0, 40.0),
        stats::float(&mut rng, 20.0, 40.0),
    );
    let robot = p
        .add_robot("robot:1:1", at, world::RANGE, policy)
        .expect("robot");
    let twin = world::add_twin(&mut p);
    let ready = world::pump_for(&mut p, SETUP_NS, 60 * SEC, |p| {
        world::holds_all(p, robot, &ids, base)
    });
    ep.setup_sim_ms = ready.unwrap_or(0) as f64 / 1e6;
    world::act_as_operator(&mut p, robot);
    // Advice dispatches per call of each kind, read off one call each
    // for the report; the timed phase is checked against the constants.
    let dispatches = |p: &Platform| p.node(robot).vm.stats().advice_dispatches;
    let d0 = dispatches(&p);
    let pos_ok = world::local_call(&mut p, robot, LocalCall::Position).is_ok();
    let d_pos = dispatches(&p) - d0;
    let move_ok = world::local_call(&mut p, robot, LocalCall::MoveTo(10, 10)).is_ok();
    let d_move = dispatches(&p) - d0 - d_pos;
    ep.setup_s = t_setup.elapsed().as_secs_f64();
    ep.checks.push(Check::new(
        "robot adapted before timing",
        ready.is_some() && pos_ok && move_ok,
        format!(
            "{} extensions, dispatches position={d_pos} moveTo={d_move}",
            ids.len()
        ),
    ));
    if setup_only {
        return ep;
    }

    // ---- timed phase ----------------------------------------------------
    let mobs = [robot];
    let before = spans.on().then(|| Snap::take(&p, &[base], &mobs));
    let d_start = dispatches(&p);
    let mut errors = 0u64;
    let mut writes = 0u64;
    let calls = (batches * per_batch) as u64;
    ep.op_us.reserve(calls as usize);
    // Each batch's calls are drawn as it starts: the inputs of a whole
    // episode would add megabytes to the peak RSS.
    let mut last = (10, 10);
    let t_timed = Instant::now();
    for b in 0..batches {
        let batch = world::local_mix(&mut rng, per_batch, &mut last);
        for (i, &call) in batch.iter().enumerate() {
            let op = (b * per_batch + i + 1) as u64;
            let t0 = Instant::now();
            let r = world::local_call(&mut p, robot, call);
            let t1 = Instant::now();
            spans.record("Vm::call", op, t0, t1);
            ep.op_us.push((t1 - t0).as_nanos() as f64 / 1e3);
            errors += u64::from(std::hint::black_box(r).is_err());
            writes += u64::from(matches!(call, LocalCall::MoveTo(..)));
        }
        let t0 = Instant::now();
        p.pump(SEC);
        let t1 = Instant::now();
        spans.record("pump", 0, t0, t1);
        ep.pump_ms.push((t1 - t0).as_nanos() as f64 / 1e6);
    }
    ep.timed_s = t_timed.elapsed().as_secs_f64();
    ep.attempted = calls;
    ep.completed = calls - errors;
    ep.failed = errors;
    ep.digests = (p.trace_digest(), p.journal_digest());

    // ---- checks ---------------------------------------------------------
    let got = dispatches(&p) - d_start;
    let want = (calls - writes) * PER_READ + writes * PER_WRITE;
    ep.checks.push(Check::new(
        "every call returns Ok",
        errors == 0,
        format!("{errors} errors of {calls}"),
    ));
    ep.checks.push(Check::new(
        "advice dispatches match the mix exactly",
        got == want,
        format!(
            "{got} dispatched, {want} expected ({PER_READ} per read, {PER_WRITE} per write), {:.3} per call",
            got as f64 / calls as f64
        ),
    ));
    ep.checks.push(Check::new(
        "robot stays adapted",
        world::holds_all(&p, robot, &ids, base),
        "all four extensions leased from the hall base",
    ));

    if let Some(before) = before {
        let after = Snap::take(&p, &[base], &mobs);
        let base_call_us = world::base_call_us(&mut p, twin, seed, calls.min(20_000) as usize);
        let store_records = p.base(base).store.len() as u64;
        let disk_bytes = world::disk_bytes(&p, &[base]);
        let (checkpoint_ms, recover_ms, survived) =
            world::checkpoint_and_recover(&mut p, base, spans);
        ep.checks.push(Check::new(
            "store survives crash and restart",
            survived,
            format!("{store_records} records"),
        ));
        let input = LayerInput {
            ops: calls,
            attempted: calls,
            steps: ep.pump_ms.len() as u64,
            advice_us: median(&ep.op_us) - base_call_us,
            base_call_us,
            store_records,
            disk_bytes,
            checkpoint_ms,
            recover_ms,
            ..LayerInput::default()
        };
        ep.layers = layers::compute(&before, &after, &input, spans);
        ep.telemetry = p.telemetry().to_json_lines();
    }
    ep
}
