//! `hall_calls`: remote calls in the steady state, an open loop in
//! simulated time.
//!
//! Set-up: one hall base with session, access-control and monitoring
//! advice (the Fig. 3b pipeline), robots adapted during set-up, the
//! default link model with 10 % loss, and live cursors on the base's
//! `store.movements` stream. Timed phase: 400 calls per simulated
//! second, round-robin over the robots, one in four a `drawLine` and
//! the rest `position`, semantics alternating at-most-once and maybe.
//! Each call is timed from its due time; every cursor is drained once
//! per fixed simulated step.

use crate::layers::{self, LayerInput, Snap};
use crate::spans::Spans;
use crate::stats;
use crate::world::{self, LocalCall, SEC, STEP_NS};
use crate::{Check, Episode, Size};
use pmp_core::{InvocationSemantics, MobId, Platform, StreamEvent};
use pmp_net::{LinkModel, Position, SimRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Calls per fixed simulated step (400 per simulated second).
const CALLS_PER_STEP: u64 = 40;

/// Simulated time every set-up pumps. On the lossy link the time to adapt
/// all robots varies with the seed: 2.1 or 3.1 s for most seeds, over
/// 15 s for 3 of seeds 1–400 (those set-ups pump on until adapted).
const SETUP_NS: u64 = 15 * SEC;

/// The stream namespace every cursor follows.
const NS: &str = "store.movements";

/// `(robots, cursors, timed steps)`.
fn shape(size: Size) -> (usize, usize, u64) {
    match size {
        Size::Full => (16, 1_000, 200),
        Size::Tiny => (2, 10, 10),
    }
}

/// One scheduled remote call.
#[derive(Debug, Clone)]
struct Call {
    robot: usize,
    draw: Option<[i64; 4]>,
    sem: InvocationSemantics,
}

fn schedule(rng: &mut SimRng, robots: usize, n: u64) -> Vec<Call> {
    let mut calls = Vec::with_capacity(n as usize);
    let mut draw_slot = 0;
    for k in 0..n {
        if k % 4 == 0 {
            draw_slot = stats::range(rng, 0, 3) as u64;
        }
        calls.push(Call {
            robot: (k as usize) % robots,
            draw: (k % 4 == draw_slot).then(|| {
                [
                    stats::range(rng, 0, 40),
                    stats::range(rng, 0, 40),
                    stats::range(rng, 0, 40),
                    stats::range(rng, 0, 40),
                ]
            }),
            sem: if k % 2 == 0 {
                InvocationSemantics::AtMostOnce
            } else {
                InvocationSemantics::Maybe
            },
        });
    }
    calls
}

/// A call in flight: due time (sim ns), issue instant, semantics.
struct Pending {
    due: u64,
    issued: Instant,
    sem: InvocationSemantics,
}

/// Per-cursor bookkeeping for the delivery check.
#[derive(Default, Clone, Copy)]
struct Cursor {
    deltas: u64,
    resynced: bool,
}

/// Outcome tally of the timed phase plus settle.
#[derive(Default)]
struct Tally {
    completed_timed: u64,
    resolved: u64,
    ok: u64,
    /// At-most-once calls that spent their whole retry budget: a result
    /// the semantics allow on a lossy link, like a lost maybe-call.
    timed_out: u64,
    failed: u64,
    /// The first failed outcome's text, for the check's report.
    first_failure: Option<String>,
}

fn collect(
    p: &mut Platform,
    pending: &mut BTreeMap<u64, Pending>,
    ep: &mut Episode,
    tally: &mut Tally,
    timed: bool,
) {
    for o in p.take_rpc_outcomes() {
        let Some(call) = pending.remove(&o.req) else {
            continue;
        };
        tally.resolved += 1;
        if o.ok {
            tally.ok += 1;
            tally.completed_timed += u64::from(timed);
            ep.op_us.push(call.issued.elapsed().as_nanos() as f64 / 1e3);
            ep.sim_ms.push(o.at.saturating_sub(call.due) as f64 / 1e6);
        } else if call.sem == InvocationSemantics::AtMostOnce && o.value.starts_with("rpc timeout")
        {
            tally.timed_out += 1;
        } else {
            tally.failed += 1;
            tally
                .first_failure
                .get_or_insert_with(|| format!("{:?} call: {}", call.sem, o.value));
        }
    }
}

fn drain(
    p: &mut Platform,
    subs: &[pmp_core::StreamSub],
    cursors: &mut [Cursor],
    spans: &mut Spans,
) {
    for (i, &sub) in subs.iter().enumerate() {
        let events = spans.time("drain_updates", 0, || p.drain_updates(sub));
        for ev in events {
            match ev {
                StreamEvent::Delta { .. } => cursors[i].deltas += 1,
                StreamEvent::Snapshot { .. } => cursors[i].resynced = true,
            }
        }
    }
}

/// Runs one `hall_calls` episode.
pub fn episode(seed: u64, size: Size, spans: &mut Spans, setup_only: bool) -> Episode {
    let (n_robots, n_cursors, steps) = shape(size);
    let mut ep = Episode::default();
    let mut rng = stats::rng(seed, 2);

    // ---- set-up -------------------------------------------------------
    let t_setup = Instant::now();
    let link = LinkModel {
        loss_prob: 0.1,
        ..LinkModel::default()
    };
    let mut p = Platform::with_link(seed, link);
    let base = world::hall_a(&mut p);
    let catalog = [
        pmp_extensions::session::package("* DrawingService.*(..)", 1),
        pmp_extensions::access_control::package(
            "* DrawingService.*(..)",
            &[world::OPERATOR, "operator:2"],
            1,
        ),
        pmp_extensions::monitoring::package(1),
    ];
    let ids: Vec<String> = catalog.iter().map(|pkg| pkg.meta.id.clone()).collect();
    for pkg in &catalog {
        spans.time("publish_extension", 0, || p.publish_extension(base, pkg));
    }
    let policy = p.trusting_policy(&[base], world::cap());
    let robots: Vec<MobId> = (0..n_robots)
        .map(|i| {
            let at = Position::new(
                stats::float(&mut rng, 10.0, 50.0),
                stats::float(&mut rng, 10.0, 50.0),
            );
            p.add_robot(
                &format!("robot:{}:1", i + 1),
                at,
                world::RANGE,
                policy.clone(),
            )
            .expect("robot")
        })
        .collect();
    let twin = world::add_twin(&mut p);
    let ready = world::pump_for(&mut p, SETUP_NS, 120 * SEC, |p| {
        robots.iter().all(|&r| world::holds_all(p, r, &ids, base))
    });
    ep.setup_sim_ms = ready.unwrap_or(0) as f64 / 1e6;
    let subs: Vec<_> = (0..n_cursors).map(|_| p.subscribe_live(base, NS)).collect();
    let calls = schedule(&mut rng, n_robots, steps * CALLS_PER_STEP);
    ep.setup_s = t_setup.elapsed().as_secs_f64();
    ep.checks.push(Check::new(
        "robots adapted before timing",
        ready.is_some(),
        format!("{n_robots} robots x {} extensions", ids.len()),
    ));
    if setup_only {
        return ep;
    }

    // ---- timed phase ----------------------------------------------------
    let mut mobs = robots.clone();
    mobs.push(twin);
    let before = spans.on().then(|| Snap::take(&p, &[base], &mobs));
    let head0 = p.stream_head_rev(base, NS);
    let lapses0 = p.telemetry().counter_value("midas.receiver.lease_expiries");
    let mut cursors = vec![Cursor::default(); n_cursors];
    let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut tally = Tally::default();
    let slot_ns = STEP_NS / CALLS_PER_STEP;
    let t_timed = Instant::now();
    for (step, chunk) in calls.chunks(CALLS_PER_STEP as usize).enumerate() {
        spans.open("step", 0);
        let mut pump_ns = 0u128;
        for (slot, call) in chunk.iter().enumerate() {
            let op = step as u64 * CALLS_PER_STEP + slot as u64 + 1;
            let (method, args) = match call.draw {
                Some(a) => ("drawLine", a.to_vec()),
                None => ("position", Vec::new()),
            };
            let due = p.now().0;
            let t0 = Instant::now();
            let req = p.rpc_with(
                base,
                robots[call.robot],
                world::OPERATOR,
                "DrawingService",
                method,
                args,
                call.sem,
            );
            let t1 = Instant::now();
            spans.record("rpc_with", op, t0, t1);
            pending.insert(
                req,
                Pending {
                    due,
                    issued: t0,
                    sem: call.sem,
                },
            );
            let t2 = Instant::now();
            p.pump(slot_ns);
            let t3 = Instant::now();
            spans.record("pump", 0, t2, t3);
            pump_ns += (t3 - t2).as_nanos();
            collect(&mut p, &mut pending, &mut ep, &mut tally, true);
        }
        ep.pump_ms.push(pump_ns as f64 / 1e6);
        drain(&mut p, &subs, &mut cursors, spans);
        spans.close();
    }
    ep.timed_s = t_timed.elapsed().as_secs_f64();

    // Settle: let at-most-once retries finish; no new calls.
    let at_most_once_open = |pending: &BTreeMap<u64, Pending>| {
        pending
            .values()
            .any(|c| c.sem == InvocationSemantics::AtMostOnce)
    };
    let settle_end = p.now().0 + 30 * SEC;
    while at_most_once_open(&pending) && p.now().0 < settle_end {
        p.pump(STEP_NS);
        collect(&mut p, &mut pending, &mut ep, &mut tally, false);
    }
    p.pump(STEP_NS);
    collect(&mut p, &mut pending, &mut ep, &mut tally, false);
    // On a lossy link a lease can lapse when its renewals are lost; the
    // base then adapts the robot again. Every robot must end adapted.
    let readapted = world::pump_until(&mut p, 30 * SEC, |p| {
        robots.iter().all(|&r| world::holds_all(p, r, &ids, base))
    });
    let lapses = p.telemetry().counter_value("midas.receiver.lease_expiries") - lapses0;
    drain(&mut p, &subs, &mut cursors, spans);
    ep.digests = (p.trace_digest(), p.journal_digest());

    let attempted = calls.len() as u64;
    let lost_at_most_once = pending
        .values()
        .filter(|c| c.sem == InvocationSemantics::AtMostOnce)
        .count() as u64;
    ep.attempted = attempted;
    ep.completed = tally.completed_timed;
    let lost_maybe = pending.len() as u64 - lost_at_most_once;
    ep.failed = tally.failed + lost_at_most_once;
    ep.unresolved = lost_maybe + tally.timed_out;

    // ---- checks ---------------------------------------------------------
    let dup_exec: u64 = robots
        .iter()
        .map(|&r| p.node(r).rpc_server.duplicate_at_most_once_executions())
        .sum();
    ep.checks.push(Check::new(
        "no at-most-once call executes twice",
        dup_exec == 0,
        format!("dup_exec={dup_exec}"),
    ));
    ep.checks.push(Check::new(
        "every call ends as its semantics allow",
        ep.failed == 0,
        format!(
            "{attempted} calls: {} ok, {} failed, {} at-most-once timed out, {lost_maybe} maybe lost{}",
            tally.ok,
            ep.failed,
            tally.timed_out,
            tally
                .first_failure
                .as_ref()
                .map_or(String::new(), |f| format!("; first failure: {f}"))
        ),
    ));
    let head1 = p.stream_head_rev(base, NS);
    let want = head1 - head0;
    let short = cursors
        .iter()
        .filter(|c| c.deltas != want && !c.resynced)
        .count();
    let resyncs = cursors.iter().filter(|c| c.resynced).count() as u64;
    ep.checks.push(Check::new(
        "every cursor got every delta or a resync",
        short == 0 && want > 0,
        format!("{want} deltas each, {short} cursors short, {resyncs} resynced"),
    ));
    ep.checks.push(Check::new(
        "every robot stays adapted",
        readapted,
        format!(
            "{n_robots} robots hold every extension at the end; {lapses} lease lapses re-adapted"
        ),
    ));

    if let Some(before) = before {
        let after = Snap::take(&p, &[base], &mobs);
        let base_call_us = world::base_call_us(&mut p, twin, seed, 20_000);
        let reads = vec![LocalCall::Position; 20_000];
        let advice_us = world::call_p50_us(&mut p, robots[0], &reads)
            - world::call_p50_us(&mut p, twin, &reads);
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
            ops: tally.ok,
            attempted,
            steps: ep.pump_ms.len() as u64,
            advice_us,
            base_call_us,
            store_records,
            disk_bytes,
            checkpoint_ms,
            recover_ms,
            resyncs,
            rpc_ok: tally.ok,
        };
        ep.layers = layers::compute(&before, &after, &input, spans);
        ep.telemetry = p.telemetry().to_json_lines();
    }
    ep
}
