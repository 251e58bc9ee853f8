//! Invocation-semantics matrix (DESIGN.md §17): every semantics ×
//! every loss level × both cell orders, on the real platform.
//!
//! For each cell of the matrix the world is identical — same seed,
//! same topology, same call script — and the assertions are the
//! classic RPC guarantees:
//!
//! * **at-most-once** — exactly zero duplicate executions, at any
//!   loss level, because the server's dedup table filters retries;
//! * **at-least-once** — every request executes at least once under
//!   bounded loss (the backoff schedule out-lasts the loss streaks
//!   these seeds produce);
//! * **both cell orders** — byte-identical network traces, journals,
//!   and outcome streams, because retry timers, backoff, and dedup are
//!   all functions of simulated time and the link RNG, never of the
//!   order the node cells of an epoch run in.

use pmp::core::rpc::InvocationSemantics;
use pmp::core::{BaseId, MobId, Platform};
use pmp::net::{LinkModel, Position};
use pmp::vm::perm::Permissions;

const SEC: u64 = 1_000_000_000;
const CALLS: u64 = 10;

/// One hall, one base, one robot in range. No extensions are needed:
/// the `DrawingService` is exported by the robot host itself.
fn build_world(seed: u64, loss: f64) -> (Platform, BaseId, MobId) {
    let mut p = Platform::with_link(seed, LinkModel::lossy(loss));
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
    let policy = p.trusting_policy(&[base], Permissions::all());
    let robot = p
        .add_robot("robot:1:1", Position::new(40.0, 30.0), 80.0, policy)
        .expect("robot");
    (p, base, robot)
}

/// Everything one matrix cell exposes to an observer.
#[derive(Debug, PartialEq)]
struct CellReport {
    trace: u64,
    journal: u64,
    outcomes: Vec<String>,
    executions: Vec<u32>,
    duplicates: u64,
    dedup_len: usize,
    dedup_cap: usize,
}

/// `permute` runs each epoch's cells in the order seeded by it
/// ([`Platform::permute_cells`]) instead of rank order.
fn run_cell(seed: u64, loss: f64, sem: InvocationSemantics, permute: Option<u64>) -> CellReport {
    let (mut p, base, robot) = build_world(seed, loss);
    if let Some(order_seed) = permute {
        p.permute_cells(order_seed);
    }
    p.sim.trace.set_logging(true);
    p.pump(3 * SEC);

    let mut reqs = Vec::new();
    for i in 0..CALLS {
        let req = p.rpc_with(
            base,
            robot,
            "operator:1",
            "DrawingService",
            "moveTo",
            vec![i as i64, (i * 2) as i64],
            sem,
        );
        reqs.push(req);
        p.pump(SEC / 2);
    }
    // Generous settle: the full backoff schedule (8 attempts, 2 s cap)
    // finishes well inside this window.
    p.pump(20 * SEC);

    let outcomes = p
        .take_rpc_outcomes()
        .into_iter()
        .map(|o| format!("req={} ok={} value={}", o.req, o.ok, o.value))
        .collect();
    let node = p.node(robot);
    CellReport {
        trace: p.trace_digest(),
        journal: p.journal_digest(),
        outcomes,
        executions: reqs.iter().map(|&r| node.rpc_server.executions(r)).collect(),
        duplicates: node.rpc_server.duplicate_at_most_once_executions(),
        dedup_len: node.rpc_server.dedup.len(),
        dedup_cap: node.rpc_server.dedup.cap(),
    }
}

const LOSSES: [f64; 3] = [0.0, 0.20, 0.50];
const SEMANTICS: [InvocationSemantics; 3] = [
    InvocationSemantics::Maybe,
    InvocationSemantics::AtMostOnce,
    InvocationSemantics::AtLeastOnce,
];

#[test]
fn semantics_matrix_holds_under_both_drivers() {
    for sem in SEMANTICS {
        for loss in LOSSES {
            let serial = run_cell(402, loss, sem, None);
            let permuted = run_cell(402, loss, sem, Some(1));
            assert_eq!(
                serial, permuted,
                "{sem} at {loss} loss diverged across cell orders"
            );

            // The dedup table never grows past its bound.
            assert!(serial.dedup_len <= serial.dedup_cap);

            match sem {
                InvocationSemantics::AtMostOnce => {
                    // The tentpole guarantee: retries at 50 % loss mean
                    // plenty of duplicate arrivals, and not one of them
                    // reaches the service object.
                    assert_eq!(
                        serial.duplicates, 0,
                        "at-most-once produced duplicate executions at {loss} loss"
                    );
                    for (i, &n) in serial.executions.iter().enumerate() {
                        assert!(
                            n <= 1,
                            "call {i} executed {n} times at {loss} loss"
                        );
                    }
                }
                InvocationSemantics::AtLeastOnce => {
                    // Bounded loss: every request runs at least once.
                    for (i, &n) in serial.executions.iter().enumerate() {
                        assert!(
                            n >= 1,
                            "at-least-once call {i} never executed at {loss} loss"
                        );
                    }
                }
                InvocationSemantics::Maybe => {
                    // One attempt: a call can be lost (0 executions)
                    // but never repeated.
                    for (i, &n) in serial.executions.iter().enumerate() {
                        assert!(n <= 1, "maybe call {i} executed {n} times at {loss} loss");
                    }
                }
            }
        }
    }
}

#[test]
fn lossless_runs_execute_every_call_exactly_once() {
    for sem in SEMANTICS {
        let r = run_cell(402, 0.0, sem, None);
        assert_eq!(
            r.executions,
            vec![1; CALLS as usize],
            "{sem} on a clean link must execute each call exactly once"
        );
        assert_eq!(r.outcomes.len(), CALLS as usize);
        assert!(r.outcomes.iter().all(|o| o.contains("ok=true")));
    }
}

#[test]
fn retries_actually_happen_under_loss() {
    // Sanity that the matrix is exercising retransmission at all: at
    // 50 % loss the at-least-once run must show duplicate executions
    // (that is its contract), and the at-most-once run must show
    // dedup-table hits instead.
    let alo = run_cell(402, 0.50, InvocationSemantics::AtLeastOnce, None);
    let total: u32 = alo.executions.iter().sum();
    assert!(
        total > CALLS as u32,
        "no duplicate at-least-once executions at 50% loss — retries inert? {:?}",
        alo.executions
    );

    let (mut p, base, robot) = build_world(402, 0.50);
    p.pump(3 * SEC);
    for i in 0..CALLS {
        p.rpc_with(
            base,
            robot,
            "operator:1",
            "DrawingService",
            "moveTo",
            vec![i as i64, 0],
            InvocationSemantics::AtMostOnce,
        );
        p.pump(SEC / 2);
    }
    p.pump(20 * SEC);
    assert!(
        p.node(robot).rpc_server.dedup.hits > 0,
        "at-most-once at 50% loss should answer some duplicates from cache"
    );
    assert_eq!(p.node(robot).rpc_server.duplicate_at_most_once_executions(), 0);
}

#[test]
fn at_most_once_survives_base_crash_without_reexecution() {
    // Crash the caller's base mid-retry: the recovered call table
    // resumes retrying under the same request ids, and the server's
    // dedup table answers any resend of an already-executed call from
    // cache. Total executions stay ≤ 1 per request. Maybe calls in
    // flight at the crash are memory-only: the restart forgets them,
    // so they are never retransmitted and run at most once.
    let (mut p, base, robot) = build_world(77, 0.20);
    p.pump(3 * SEC);
    let call = |p: &mut Platform, i: u64, sem| {
        p.rpc_with(
            base,
            robot,
            "operator:1",
            "DrawingService",
            "moveTo",
            vec![i as i64, 3],
            sem,
        )
    };
    let reqs: Vec<u64> = (0..4)
        .map(|i| call(&mut p, i, InvocationSemantics::AtMostOnce))
        .collect();
    // Let the first sends land (some will have executed), then crash
    // before the schedule completes — with fresh maybe calls in flight:
    // 1.5 ms lets them reach the robot and the base pass an epoch
    // barrier (where a logged call would commit), but is shorter than
    // a round trip, so their replies reach a powered-off base.
    p.pump_millis(120);
    let maybes: Vec<u64> = (4..8)
        .map(|i| call(&mut p, i, InvocationSemantics::Maybe))
        .collect();
    p.pump(1_500_000);
    for &r in &maybes {
        assert_eq!(p.base(base).rpc.get(r).map(|c| c.attempts), Some(1));
    }
    p.crash_base(base);
    p.pump(2 * SEC);
    p.restart_base(base);
    for &r in &maybes {
        assert!(
            p.base(base).rpc.get(r).is_none(),
            "maybe req {r} came back from the WAL"
        );
    }
    p.pump(25 * SEC);

    let node = p.node(robot);
    assert_eq!(node.rpc_server.duplicate_at_most_once_executions(), 0);
    for &r in &reqs {
        assert!(
            node.rpc_server.executions(r) <= 1,
            "req {r} executed more than once across the crash"
        );
    }
    for &r in &maybes {
        assert!(
            node.rpc_server.executions(r) <= 1,
            "maybe req {r} was retransmitted across the crash"
        );
    }
    // The platform kept retrying after restart: outstanding calls
    // resolved one way or the other.
    assert_eq!(p.base(base).rpc.outstanding(), 0);
}

#[test]
fn retransmitting_call_issued_at_the_crash_instant_survives_restart() {
    // Write-ahead: the call's `rpc.calls` issue record is committed
    // before its first frame leaves, so a base that loses power in the
    // same instant still knows the call after restart — it stays
    // outstanding, its reply resolves it, and it ran exactly once.
    let (mut p, base, robot) = build_world(402, 0.0);
    p.pump(3 * SEC);
    let req = p.rpc_with(
        base,
        robot,
        "operator:1",
        "DrawingService",
        "moveTo",
        vec![7, 7],
        InvocationSemantics::AtLeastOnce,
    );
    p.crash_base(base);
    p.restart_base(base);
    assert_eq!(
        p.base(base).rpc.outstanding(),
        1,
        "the call was lost with the uncommitted batch"
    );
    p.pump(30 * SEC);
    let outcomes = p.take_rpc_outcomes();
    assert_eq!(outcomes.len(), 1, "{outcomes:?}");
    assert_eq!(outcomes[0].req, req);
    assert!(outcomes[0].ok, "{outcomes:?}");
    assert_eq!(p.node(robot).rpc_server.executions(req), 1);
    assert_eq!(p.base(base).rpc.outstanding(), 0);
}
