//! The experiment harness: regenerates every measurement in the
//! paper's evaluation (§4.6) plus the system-level behaviours of its
//! figures, printing paper-vs-measured rows. See DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded results.
//!
//! ```bash
//! cargo run -p pmp-bench --release --bin harness
//! ```

use pmp_bench::*;
use pmp_core::rpc::InvocationSemantics;
use pmp_spec::Size;

const SEC: u64 = 1_000_000_000;

fn main() {
    if std::env::args().any(|a| a == "--dump-opt-report") {
        dump_opt_reports();
        return;
    }
    println!("# pmp experiment harness");
    println!();
    println!("(build: {})", if cfg!(debug_assertions) { "DEBUG — use --release for meaningful absolute times" } else { "release" });
    e1_spec_overhead();
    e2_interception();
    e3_extension_cost();
    e4_weaving();
    e5_adapted_call();
    e6_distribution();
    e7_revocation();
    e8_monitoring_pipeline();
    e9_security();
    e10_conciseness();
    e11_verification_cost();
    e12_cell_order();
    e13_durability();
    e14_chaos();
    e15_tracing_overhead();
    e16_weave_opt();
    e17_federation();
    e18_stream();
    e19_semantics_soak();
    ablations();
}

/// E18 — pmp-stream fan-out: serialize-once encoding under growing
/// subscriber counts. The full ≥1M-subscriber run lives in the
/// dedicated `loadgen` binary; this section sweeps moderate scales so
/// the harness stays quick.
fn e18_stream() {
    use pmp_bench::stream_fanout_run;

    println!("## E18 — stream fan-out (rev-streamed state, serialize-once)");
    println!();
    println!("One base, N live subscribers on `store.movements`, 4 drawing bursts,");
    println!("every subscriber drained after each burst. `encoded` must not move");
    println!("with N — each committed delta is wire-encoded exactly once and fanned");
    println!("out as buffer clones. For the million-subscriber row run:");
    println!("`cargo run -p pmp-bench --release --bin loadgen`.");
    println!();
    println!("| subscribers | encoded | deliveries | updates/s | amortized B/update | p99 drain (ns) |");
    println!("|---|---|---|---|---|---|");
    let control = stream_fanout_run(1, 4);
    for n in [1_000usize, 10_000, 100_000] {
        let r = stream_fanout_run(n, 4);
        assert_eq!(
            r.encoded, control.encoded,
            "serialize-once violated at {n} subscribers"
        );
        println!(
            "| {} | {} | {} | {:.0} | {:.4} | {} |",
            r.subscribers,
            r.encoded,
            r.deliveries,
            r.updates_per_s,
            r.amortized_bytes_per_update,
            r.p99_drain_ns
        );
    }
    println!();
}

/// E19 — DESIGN.md §17: configurable invocation semantics under link
/// loss, and the soak mode's perf oracles catching an injected
/// latency regression and shrinking it to its kernel.
fn e19_semantics_soak() {
    use pmp_chaos::{exec, shrink, soak, DriverKind, Op, Scenario, SoakConfig};
    use pmp_core::Platform;
    use pmp_net::{LinkModel, Position};
    use pmp_vm::perm::Permissions;
    use std::time::Instant;

    println!("## E19 — invocation semantics + soak-mode perf oracles");
    println!();

    // ── E19a: the semantics matrix at 20 % loss ─────────────────────
    // Same world, same 40-call script; only the semantics knob moves.
    // `dups` counts executions beyond the first per request — the
    // at-most-once row must read 0 whatever the radio drops.
    println!("### E19a — 40 calls per cell at 20% link loss (seed 402)");
    println!();
    println!("| semantics | delivered | delivery % | total execs | duplicate execs | dedup hits |");
    println!("|---|---|---|---|---|---|");
    const CALLS: u64 = 40;
    let run_cell = |sem: InvocationSemantics| {
        let mut p = Platform::with_link(402, LinkModel::lossy(0.20));
        p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
        let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
        let policy = p.trusting_policy(&[base], Permissions::all());
        let robot = p
            .add_robot("robot:1:1", Position::new(40.0, 30.0), 80.0, policy)
            .expect("robot");
        p.pump(3 * SEC);
        let mut reqs = Vec::new();
        for i in 0..CALLS {
            reqs.push(p.rpc_with(
                base,
                robot,
                "operator:1",
                "DrawingService",
                "moveTo",
                vec![i as i64, 1],
                sem,
            ));
            p.pump(SEC / 4);
        }
        p.pump(20 * SEC);
        let delivered = p
            .take_rpc_outcomes()
            .iter()
            .filter(|o| o.ok)
            .count();
        let node = p.node(robot);
        let execs: Vec<u32> = reqs.iter().map(|&r| node.rpc_server.executions(r)).collect();
        let total: u32 = execs.iter().sum();
        let dups: u32 = execs.iter().map(|&n| n.saturating_sub(1)).sum();
        (delivered, total, dups, node.rpc_server.dedup.hits)
    };
    for sem in [
        InvocationSemantics::Maybe,
        InvocationSemantics::AtMostOnce,
        InvocationSemantics::AtLeastOnce,
    ] {
        let (delivered, total, dups, hits) = run_cell(sem);
        let pct = 100.0 * delivered as f64 / CALLS as f64;
        println!("| {sem} | {delivered}/{CALLS} | {pct:.1} | {total} | {dups} | {hits} |");
        match sem {
            InvocationSemantics::AtMostOnce => {
                assert_eq!(dups, 0, "E19a: at-most-once duplicated an execution");
                assert!(
                    pct >= 99.9,
                    "E19a: at-most-once delivery {pct:.2}% under bounded loss"
                );
            }
            InvocationSemantics::AtLeastOnce => assert!(
                pct >= 99.9,
                "E19a: at-least-once delivery {pct:.2}% under bounded loss"
            ),
            InvocationSemantics::Maybe => {
                assert_eq!(dups, 0, "E19a: a one-attempt maybe call executed twice");
            }
        }
    }
    println!();
    println!("(`maybe` is the engine's one-attempt policy: its exec columns count the");
    println!("calls that reached the service, and a lost call expires with no outcome.)");
    println!();

    // ── E19b: soak mode catches a 2× latency regression ─────────────
    // A 60-simulated-second soak (~114 semantic calls, ~28 hostile
    // publishes, checkpoints, stream subscribers) with `SlowLinks{2}`
    // injected at half-horizon. The clean twin must be green; the
    // regressed twin must trip `perf.soak-rpc-p99`, and ddmin must
    // shrink the failure to its kernel.
    println!("### E19b — 60 sim-s soak, 2x link-latency regression at t+30s (seed 5)");
    println!();
    let mut cfg = SoakConfig::ci();
    let clean = soak::soak(5, &cfg);
    cfg.slow_link = Some((cfg.horizon_ms / 2, 2));
    let regressed = soak::soak(5, &cfg);

    println!("| run | driver | steps | perf violations | wall (ms) |");
    println!("|---|---|---|---|---|");
    let mut regressed_red = false;
    for (label, sc) in [("clean", &clean), ("regressed", &regressed)] {
        for (dname, driver) in [
            ("serial", DriverKind::Serial),
            ("permuted", DriverKind::Permuted),
        ] {
            let t0 = Instant::now();
            let report = exec::run(sc, driver);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let perf = report
                .violations
                .iter()
                .filter(|v| v.invariant.starts_with("perf."))
                .count();
            println!(
                "| {label} | {dname} | {} | {perf} | {wall_ms:.1} |",
                sc.steps.len()
            );
            match label {
                "clean" => assert_eq!(
                    report.violations.len(),
                    0,
                    "E19b: clean soak turned red: {:?}",
                    report.violations
                ),
                _ => {
                    assert!(perf > 0, "E19b: regression escaped the perf oracles");
                    regressed_red = true;
                }
            }
        }
    }
    assert!(regressed_red);
    println!();

    let t0 = Instant::now();
    let mut pred = |s: &Scenario| {
        exec::run(s, DriverKind::Serial)
            .violations
            .iter()
            .any(|v| v.invariant == "perf.soak-rpc-p99")
    };
    let (min, stats) = shrink::shrink(&regressed, &mut pred, 2_000);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        stats.to_steps <= 10,
        "E19b: shrink stalled at {} steps",
        stats.to_steps
    );
    assert!(
        min.steps.iter().any(|s| matches!(s.op, Op::SlowLinks { .. })),
        "E19b: shrink lost the regression step"
    );
    println!(
        "ddmin: {} -> {} steps in {} evals ({wall_ms:.1} ms); kernel retains the",
        stats.from_steps, stats.to_steps, stats.evals
    );
    println!("`SlowLinks` injection plus one probe call — pinned as");
    println!("`tests/repros/soak-slowlinks-p99.redrepro`.");
    println!();
}

/// E17 — the federated base fabric: directory-tier lookup scaling
/// (worst-case leaf-to-leaf path through the registrar tree) and the
/// re-delivery-free roaming handoff between replicated halls.
fn e17_federation() {
    use pmp_bench::{fed_handoff_run, fed_lookup_run};

    println!("## E17 — federated base fabric (directory lookups + roaming handoff)");
    println!();
    println!("Lookup scaling: a 4-ary registrar tree over N bases; the query starts");
    println!("at the deepest leftmost leaf, the service lives at the deepest rightmost");
    println!("leaf. Hops must grow O(log N), never O(N) — no flat broadcast.");
    println!();
    println!("| bases | hops (worst-case path) | sim latency (ms) | found |");
    println!("|---|---|---|---|");
    for bases in [4usize, 16, 64, 256, 1024] {
        let r = fed_lookup_run(bases, 4);
        println!(
            "| {} | {} | {:.1} | {} |",
            r.bases, r.hops, r.latency_ms, r.found
        );
    }
    println!();
    let h = fed_handoff_run();
    println!("Roaming handoff between federated halls (production-halls world,");
    println!("catalogs converged by anti-entropy before the roam):");
    println!();
    println!("| metric | value |");
    println!("|---|---|");
    println!("| extensions installed at roam time | {} |", h.roamed_exts);
    println!("| grants migrated (rebound in place) | {} |", h.migrated);
    println!("| re-`Deliver` messages for the roamed set | {} |", h.redelivered);
    println!("| movement records at the adopting base | {} |", h.movements);
    println!("| adoption latency after the move (sim ms) | {:.0} |", h.adopt_ms);
    println!();
}

/// `--dump-opt-report`: prints the deterministic weave-time
/// optimization report for every shipped extension package (what a
/// base logs on every publish).
fn dump_opt_reports() {
    let packages: Vec<(&str, pmp_midas::ExtensionPackage)> = vec![
        ("monitoring", pmp_extensions::monitoring::package(1)),
        ("session", pmp_extensions::session::package("* DrawingService.*(..)", 1)),
        (
            "access-control",
            pmp_extensions::access_control::package("* DrawingService.*(..)", &["op:1"], 1),
        ),
        ("encryption", pmp_extensions::encryption::package(0x42, 1)),
        ("geofence", pmp_extensions::geofence::package(0, 0, 30, 30, 1)),
        ("billing", pmp_extensions::billing::package("* Motor.*(..)", 2, 1)),
        ("persistence", pmp_extensions::persistence::package("Robot.state", 1)),
        (
            "transactions",
            pmp_extensions::transactions::package("* Svc.tx*(..)", "Svc", &["a", "b"], 1),
        ),
        ("agegate", pmp_extensions::agegate::package("* Svc.*(..)", 1_000, 1)),
        ("replication", pmp_extensions::replication::package(1)),
        ("bench guard (E16)", pmp_bench::guard_package()),
    ];
    println!("# weave-time optimization reports");
    println!();
    for (label, pkg) in packages {
        let (_, report) = pmp_midas::optimize_package(&pkg);
        println!("## {label} ({})", pkg.meta.id);
        println!();
        println!("```");
        print!("{report}");
        println!("```");
        println!();
    }
}

/// E16 — DESIGN.md §14: the weave-time optimizer on the E2 workload.
/// The guard package's advice is authored with a constant guard and a
/// virtual rate-limit probe; shipped as authored it pays the full
/// script-advice dispatch, shipped optimized it collapses to a bare
/// `Ret` with hooks hoisted. Target: optimized shipped-script advice
/// within 2× of native advice.
fn e16_weave_opt() {
    println!("## E16 — weave-time optimization of shipped advice (target: optimized ≤ 2× native)");
    println!();
    // Interleaved min-of-3 (like E15's dispatch row) so drift hits all
    // legs equally.
    let mut base = f64::INFINITY;
    let mut native = f64::INFINITY;
    let mut original = f64::INFINITY;
    let mut optimized = f64::INFINITY;
    for _ in 0..3 {
        let (mut vm, obj) = ping_vm(PingMode::NoStubs);
        base = base.min(measure_ns(20_000, || ping_once(&mut vm, &obj)));
        let (mut vm, obj) = ping_vm(PingMode::NativeAdvice);
        native = native.min(measure_ns(20_000, || ping_once(&mut vm, &obj)));
        let (mut vm, obj) = ping_vm_shipped(false);
        original = original.min(measure_ns(20_000, || ping_once(&mut vm, &obj)));
        let (mut vm, obj) = ping_vm_shipped(true);
        optimized = optimized.min(measure_ns(20_000, || ping_once(&mut vm, &obj)));
    }
    let native_add = native - base;
    println!("| configuration | ns/call | advice cost vs no-stubs | vs native advice |");
    println!("|---|---|---|---|");
    println!("| no stubs (baseline) | {base:.0} | — | — |");
    println!("| native do-nothing advice | {native:.0} | {native_add:+.0} ns | 1.0× |");
    for (label, ns) in [
        ("guard advice, shipped as authored", original),
        ("guard advice, shipped optimized", optimized),
    ] {
        let add = ns - base;
        println!(
            "| {label} | {ns:.0} | {add:+.0} ns | {:.1}× |",
            add / native_add
        );
    }
    let (_, report) = pmp_midas::optimize_package(&pmp_bench::guard_package());
    println!();
    println!("Optimization report for the guard package:");
    println!();
    println!("```");
    print!("{report}");
    println!("```");
    println!();
}

/// E15 — DESIGN.md §13: wall-clock cost of causal tracing on the
/// workloads it instruments. Envelopes always carry their 16 context
/// bytes, so the two legs replay identical network events — the
/// digests printed prove it — and the delta is purely the span
/// mint/drain/collect machinery. Target: ≤3%.
fn e15_tracing_overhead() {
    println!("## E15 — tracing overhead: identical workloads, tracer off vs on (target ≤3%)");
    println!();
    // Row 1: the E2 hot path. Dispatch carries zero tracing
    // instrumentation by design (interception is detected from the
    // existing dispatch counter at epoch barriers), so the delta here
    // is the regression guard for that claim.
    let (mut d_off, mut d_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        // Interleave the legs so drift (thermal, allocator layout)
        // hits both; min-of-3 medians is the stable statistic for a
        // pure-CPU microbench.
        d_off = d_off.min(dispatch_overhead_ns(false));
        d_on = d_on.min(dispatch_overhead_ns(true));
    }
    println!("| workload | off | on | overhead |");
    println!("|---|---|---|---|");
    println!(
        "| E2 woven dispatch (ns/call) | {d_off:.0} | {d_on:.0} | {:+.1}% |",
        (d_on / d_off - 1.0) * 100.0
    );

    // Rows 2–3: wall-clock workloads, interleaved best-of-5 per leg
    // (single runs of these few-ms workloads swing by ±15%, and
    // alternating legs keeps host-noise spikes from biasing one side).
    let best_pair = |run: &dyn Fn(bool) -> TraceOverheadResult| {
        let (mut off, mut on) = (run(false), run(true));
        for _ in 0..4 {
            let o = run(false);
            let n = run(true);
            assert_eq!(o.trace_digest, off.trace_digest, "E15 repeat diverged");
            assert_eq!(n.trace_digest, on.trace_digest, "E15 repeat diverged");
            if o.wall_ms < off.wall_ms {
                off = o;
            }
            if n.wall_ms < on.wall_ms {
                on = n;
            }
        }
        (off, on)
    };
    let rows: [(&str, &dyn Fn(bool) -> TraceOverheadResult); 2] = [
        ("E6 distribution (64 nodes, traced publish, ms)", &|on| {
            distribution_overhead_run(64, on)
        }),
        ("worst case: every op traced (400 RPCs, ms)", &|on| {
            traced_rpc_overhead_run(400, on)
        }),
    ];
    for (label, run) in rows {
        let (off, on) = best_pair(run);
        assert_eq!(off.spans_retained, 0, "E15({label}): untraced leg minted spans");
        assert!(on.spans_retained > 0, "E15({label}): traced leg traced nothing");
        println!(
            "| {label} | {:.1} | {:.1} | {:+.1}% ({} spans, digests {}) |",
            off.wall_ms,
            on.wall_ms,
            (on.wall_ms / off.wall_ms - 1.0) * 100.0,
            on.spans_retained,
            if on.trace_digest == off.trace_digest {
                "match"
            } else {
                "DIVERGED"
            },
        );
    }
    println!();
    println!(
        "The worst-case row is the per-span cost ceiling, not a workload \
         target: every ~20 µs operation mints an `rpc.call` root span \
         that rides the WAL with full movement-record durability \
         (~3 µs/span). The ≤3% target applies to the E2/E6 rows, where \
         spans mint at adaptation events rather than per operation."
    );
    println!();
}

/// E1 — §4.6: "an overhead of about 7% (measured using a SPECjvm
/// benchmark) could be observed" for hooks active, no extensions.
fn e1_spec_overhead() {
    println!("## E1 — platform-active overhead on the spec suite (paper: ≈7%)");
    println!();
    println!("| program | no stubs (ms) | stubs, no aspects (ms) | overhead |");
    println!("|---|---|---|---|");
    let mut total_off = 0.0;
    let mut total_on = 0.0;
    for name in PROGRAM_NAMES {
        let (mut vm_off, suite_off) = suite_vm(false);
        let (mut vm_on, suite_on) = suite_vm(true);
        let t_off = measure_ns(3, || {
            suite_off.run_one(&mut vm_off, name, Size::Small).unwrap();
        }) / 1e6;
        let t_on = measure_ns(3, || {
            suite_on.run_one(&mut vm_on, name, Size::Small).unwrap();
        }) / 1e6;
        total_off += t_off;
        total_on += t_on;
        println!(
            "| {name} | {t_off:.3} | {t_on:.3} | {:+.1}% |",
            (t_on / t_off - 1.0) * 100.0
        );
    }
    println!(
        "| **suite total** | {total_off:.3} | {total_on:.3} | **{:+.1}%** |",
        (total_on / total_off - 1.0) * 100.0
    );
    println!();
}

/// E2 — §4.6: void non-intercepted interface call ≈700 ns; performed
/// interception ≈900 ns extra (P2/500 MHz, JVM).
fn e2_interception() {
    println!("## E2 — interception micro-costs (paper: 700 ns base call, +900 ns per interception)");
    println!();
    println!("| configuration | ns/call | vs no-stubs |");
    println!("|---|---|---|");
    let mut base = 0.0;
    let mut last_vm = None;
    for (label, mode) in [
        ("no stubs (unmodified runtime)", PingMode::NoStubs),
        ("stubs in, hook inactive", PingMode::InactiveHook),
        ("active do-nothing native advice", PingMode::NativeAdvice),
        ("active do-nothing script advice", PingMode::ScriptAdvice),
    ] {
        let (mut vm, obj) = ping_vm(mode);
        let ns = measure_ns(20_000, || ping_once(&mut vm, &obj));
        if mode == PingMode::NoStubs {
            base = ns;
        }
        println!("| {label} | {ns:.0} | {:+.0} ns |", ns - base);
        last_vm = Some(vm);
    }
    println!();
    if let Some(vm) = last_vm {
        println!("### VM telemetry snapshot (script-advice configuration)");
        println!();
        println!("```");
        print!("{}", vm.telemetry().render_table());
        println!("```");
        println!();
    }
}

/// E3 — §4.6: "in all cases the cost of the interceptions was much
/// less than the cost of executing the additional functionality".
fn e3_extension_cost() {
    println!("## E3 — extension cost vs interception cost (paper: functionality ≫ interception)");
    println!();
    println!("| extension | ns/call | added vs baseline | vs pure interception |");
    println!("|---|---|---|---|");
    let mut baseline = 0.0;
    let mut interception = 0.0;
    for (label, ext) in [
        ("none (baseline)", ServiceExt::None),
        ("do-nothing advice (interception only)", ServiceExt::Nop),
        ("security (session + access control)", ServiceExt::Security),
        ("ad-hoc transactions", ServiceExt::Transactions),
        ("orthogonal persistence", ServiceExt::Persistence),
    ] {
        let (mut vm, obj) = service_vm(ext);
        let ns = measure_ns(2_000, || service_call(&mut vm, &obj, 20));
        match ext {
            ServiceExt::None => baseline = ns,
            ServiceExt::Nop => interception = ns,
            _ => {}
        }
        let added = ns - baseline;
        let vs = if ext == ServiceExt::None || ext == ServiceExt::Nop {
            "—".to_string()
        } else {
            format!("{:.1}×", added / (interception - baseline).max(1.0))
        };
        println!("| {label} | {ns:.0} | {added:+.0} ns | {vs} |");
    }
    println!();
}

/// E4 — Fig. 1's run-time adaptation process: weave/unweave latency as
/// a function of matched join points.
fn e4_weaving() {
    println!("## E4 — weave + unweave latency vs matched join points (Fig. 1 process)");
    println!();
    println!("| join points | weave+unweave (µs) |");
    println!("|---|---|");
    for (classes, methods) in [(1, 10), (4, 25), (10, 100), (40, 250)] {
        let mut vm = weave_target_vm(classes, methods);
        let prose = pmp_prose::Prose::attach(&mut vm);
        let n = weave_unweave_once(&mut vm, &prose);
        let us = measure_ns(20, || {
            weave_unweave_once(&mut vm, &prose);
        }) / 1e3;
        println!("| {n} | {us:.1} |");
    }
    println!();
}

/// E5 — Fig. 2c: cost of a service call before vs after full
/// adaptation (session + access control + monitoring).
fn e5_adapted_call() {
    println!("## E5 — service call unadapted vs fully adapted (Fig. 2c pipeline)");
    println!();
    let (mut plain, probot) = adapted_robot(false);
    let ns_plain = measure_ns(500, || adapted_call(&mut plain, probot, 3, 3));
    let (mut full, frobot) = adapted_robot(true);
    let ns_full = measure_ns(500, || adapted_call(&mut full, frobot, 3, 3));
    println!("| configuration | ns/call |");
    println!("|---|---|");
    println!("| unadapted `DrawingService.moveTo` | {ns_plain:.0} |");
    println!("| adapted (session + access-control + monitoring) | {ns_full:.0} |");
    println!(
        "| adaptation overhead | {:+.0} ns ({:.2}×) |",
        ns_full - ns_plain,
        ns_full / ns_plain
    );
    println!();
}

/// E6 — §3.2 distribution: time for the base to adapt N newcomers, and
/// the message cost (deterministic simulated time).
fn e6_distribution() {
    println!("## E6 — distribution scalability (simulated time, deterministic)");
    println!();
    println!("| nodes | time to all adapted (sim s) | total messages | msgs/node |");
    println!("|---|---|---|---|");
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let r = distribution_run(n);
        println!(
            "| {} | {:.2} | {} | {:.0} |",
            r.nodes,
            r.time_to_all_adapted_s,
            r.messages,
            r.messages as f64 / r.nodes as f64
        );
    }
    println!();
}

/// E7 — §3.2 revocation: autonomous withdrawal latency after leaving,
/// as a function of the lease period.
fn e7_revocation() {
    println!("## E7 — revocation latency vs lease period (simulated time)");
    println!();
    println!("| lease (s) | revocation latency after departure (s) | latency/lease |");
    println!("|---|---|---|");
    for lease_s in [1u64, 2, 4, 8] {
        let r = revocation_run(lease_s * SEC);
        println!(
            "| {:.0} | {:.2} | {:.2} |",
            r.lease_s,
            r.revocation_latency_s,
            r.revocation_latency_s / r.lease_s
        );
    }
    println!();
}

/// E8 — Fig. 3b / §4.4: the monitoring pipeline end to end.
fn e8_monitoring_pipeline() {
    println!("## E8 — monitoring pipeline (Fig. 3b: intercept → send → store)");
    println!();
    let mut w = pmp_core::scenario::ProductionHalls::build(55);
    w.platform.pump(6 * SEC);
    for (x0, y0, x1, y1) in [(0, 0, 10, 0), (10, 0, 10, 10)] {
        w.platform.rpc_with(
            w.base_a,
            w.robot,
            "operator:1",
            "DrawingService",
            "drawLine",
            vec![x0, y0, x1, y1],
            InvocationSemantics::Maybe,
        );
        w.platform.pump(SEC);
    }
    w.platform.pump(3 * SEC);
    let hw_actions = w
        .platform
        .node(w.robot)
        .robot
        .as_ref()
        .unwrap()
        .lock()
        .rcx
        .log()
        .len();
    let store = &w.platform.base(w.base_a).store;
    println!("| metric | value |");
    println!("|---|---|");
    println!("| hardware commands executed | {hw_actions} |");
    println!("| records in the hall database | {} |", store.len());
    println!(
        "| motor rotations logged | {} |",
        store
            .by_robot("robot:1:1")
            .iter()
            .filter(|r| r.command == "Motor.rotate")
            .count()
    );
    println!("| strokes drawn | {} |", w.platform.node(w.robot).canvas().unwrap().len());
    println!();
    println!("### Platform telemetry snapshot (hall A world)");
    println!();
    println!("```");
    print!("{}", w.platform.render_telemetry());
    println!("```");
    println!();
    // The journal re-exports the same run as structured events; show
    // the tail as JSON lines.
    let jsonl = w.platform.telemetry().to_json_lines();
    let lines: Vec<&str> = jsonl.lines().collect();
    println!("### Journal tail ({} JSON lines total)", lines.len());
    println!();
    println!("```json");
    for line in lines.iter().rev().take(5).rev() {
        println!("{line}");
    }
    println!("```");
    println!();
}

/// E9 — §3.1/§3.2 security: the outcomes that must hold.
fn e9_security() {
    println!("## E9 — security outcomes");
    println!();
    use pmp_crypto::KeyPair;
    use pmp_midas::SignedExtension;
    let mut w = pmp_core::scenario::ProductionHalls::build(71);
    // Inject a hostile package signed by an unknown key before pumping.
    let mallory = KeyPair::from_seed(b"mallory");
    let evil = pmp_extensions::monitoring::package_with_sink("evil", "monitor.post", 9);
    let sealed = SignedExtension::seal("mallory", &mallory, &evil);
    w.platform.base_mut(w.base_a).base.catalog.put(sealed);
    w.platform.pump(6 * SEC);
    let node = w.platform.node(w.robot);
    let untrusted_rejected = !node.receiver.is_installed("ext/evil");
    let legit_installed = node.receiver.is_installed("ext/monitoring");
    println!("| check | result |");
    println!("|---|---|");
    println!("| extension from untrusted signer rejected | {untrusted_rejected} |");
    println!("| legitimate extensions unaffected | {legit_installed} |");
    // Sandbox: permissions cap sys ops even with valid signatures —
    // demonstrated by the prose-level fixture.
    let (mut vm, obj) = ping_vm(PingMode::ScriptAdvice);
    ping_once(&mut vm, &obj); // no permissions needed by nop
    println!("| sandboxed script advice executes under empty permissions | true |");
    println!();
}

/// Ablations called out in DESIGN.md §3: the per-package delivery-path
/// costs (signature verification, codec) and loss tolerance.
/// E13 — DESIGN.md §11: the WAL write path, the group-commit batch
/// size trade-off (simulated fsyncs vs CPU), and recovery time as a
/// function of log length.
fn e13_durability() {
    println!("## E13 — durability: WAL append throughput, group commit, recovery");
    println!();
    println!("### E13a/b — append throughput vs group-commit batch (20k × 48-byte records)");
    println!();
    println!("| batch | syncs | wall (ms) | records/s | MB/s |");
    println!("|---|---|---|---|---|");
    for batch in [1usize, 8, 64, 256] {
        let r = wal_append_run(20_000, 48, batch);
        println!(
            "| {} | {} | {:.1} | {:.0} | {:.1} |",
            r.batch, r.syncs, r.wall_ms, r.records_per_s, r.mb_per_s
        );
    }
    println!();
    println!("### E13c — recovery time vs log length (batch 32, verified replay)");
    println!();
    println!("| records | recover (ms) | replayed | verified |");
    println!("|---|---|---|---|");
    for records in [1_000usize, 10_000, 100_000] {
        let r = recovery_run(records);
        assert!(r.verified, "E13c({records}): replay diverged from the writer");
        println!(
            "| {} | {:.1} | {} | {} |",
            r.records,
            r.recover_ms,
            r.replayed,
            if r.verified { "yes" } else { "NO" }
        );
    }
    println!();
}

/// E14 — DESIGN.md §12: chaos-harness throughput (full generate +
/// execute + oracle cycles per second in each cell order) and the
/// cost of delta-debug shrinking a failure to its kernel.
fn e14_chaos() {
    use pmp_chaos::{exec, gen, shrink, DriverKind, GenConfig, Op};
    use std::time::Instant;

    println!("## E14 — chaos harness: scenario throughput and shrink cost");
    println!();
    let cfg = GenConfig::default();
    const SEEDS: u64 = 24;

    println!(
        "### E14a — seeded scenarios/sec (seeds 0..{SEEDS}, {} steps each, oracles on)",
        cfg.steps
    );
    println!();
    println!("| driver | scenarios | wall (ms) | scenarios/s | violations |");
    println!("|---|---|---|---|---|");
    for (label, kind) in [
        ("serial", DriverKind::Serial),
        ("permuted", DriverKind::Permuted),
    ] {
        let t0 = Instant::now();
        let mut violations = 0usize;
        for seed in 0..SEEDS {
            let sc = gen::generate(seed, &cfg);
            violations += exec::run(&sc, kind).violations.len();
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(violations, 0, "E14a({label}): clean seeds turned red");
        println!(
            "| {label} | {SEEDS} | {wall_ms:.1} | {:.1} | {violations} |",
            f64::from(SEEDS as u32) / (wall_ms / 1e3)
        );
    }
    println!();

    // Shrink cost against a structural predicate shaped like the real
    // seed-20 kernel (crash → bit flip on the same base → restart), so
    // every evaluation pays the full execute-and-check price the
    // shrinker pays in anger without depending on a live bug.
    println!("### E14b — ddmin shrink cost (crash/bit-flip/restart kernel predicate)");
    println!();
    println!("| seed | steps before | steps after | evals | wall (ms) |");
    println!("|---|---|---|---|---|");
    let has_kernel = |sc: &pmp_chaos::Scenario| {
        let mut crash_at: Option<(u8, usize)> = None;
        let mut flip_at: Option<(u8, usize)> = None;
        for (i, s) in sc.steps.iter().enumerate() {
            match s.op {
                Op::CrashBase { base } if crash_at.is_none() => crash_at = Some((base, i)),
                Op::InjectBitFlip { base, .. }
                    if crash_at.is_some_and(|(b, j)| b == base && j < i)
                        && flip_at.is_none() =>
                {
                    flip_at = Some((base, i));
                }
                Op::RestartBase { base }
                    if flip_at.is_some_and(|(b, j)| b == base && j < i) =>
                {
                    return true;
                }
                _ => {}
            }
        }
        false
    };
    let mut shrunk = 0;
    for seed in 0..64u64 {
        if shrunk == 4 {
            break;
        }
        let sc = gen::generate(seed, &cfg);
        if !has_kernel(&sc) {
            continue;
        }
        shrunk += 1;
        let t0 = Instant::now();
        let mut evals_run = |s: &pmp_chaos::Scenario| {
            // Execute for realism, then decide structurally.
            let _ = exec::run(s, DriverKind::Serial);
            has_kernel(s)
        };
        let (min, stats) = shrink::shrink(&sc, &mut evals_run, 2_000);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(has_kernel(&min), "E14b({seed}): shrink lost the kernel");
        println!(
            "| {seed} | {} | {} | {} | {wall_ms:.1} |",
            stats.from_steps, stats.to_steps, stats.evals
        );
    }
    println!();
}

fn ablations() {
    println!("## Ablations — delivery-path costs and loss tolerance");
    println!();
    use pmp_crypto::KeyPair;
    use pmp_midas::SignedExtension;
    let pair = KeyPair::from_seed(b"ablation");
    let pkg = pmp_extensions::monitoring::package(1);
    let sealed = SignedExtension::seal("ablation", &pair, &pkg);
    let mut trust = pmp_crypto::TrustStore::new();
    trust.add(pmp_crypto::Principal::new("ablation", pair.public_key()));

    let ns_seal = measure_ns(200, || {
        let _ = SignedExtension::seal("ablation", &pair, &pkg);
    });
    let ns_verify = measure_ns(200, || {
        sealed.verify_and_open(&trust).expect("verifies");
    });
    let ns_open = measure_ns(200, || {
        sealed.open().expect("decodes");
    });
    let bytes = pmp_wire::to_bytes(&sealed);
    let ns_decode = measure_ns(500, || {
        let _: SignedExtension = pmp_wire::from_bytes(&bytes).expect("decodes");
    });
    println!("| delivery-path step | µs/package |");
    println!("|---|---|");
    println!("| sign (base side, once per package) | {:.1} |", ns_seal / 1e3);
    println!("| verify signature + decode (receiver, per delivery) | {:.1} |", ns_verify / 1e3);
    println!("| decode only (no verification — the ablated path) | {:.1} |", ns_open / 1e3);
    println!("| wire-decode the signed envelope ({} bytes) | {:.1} |", bytes.len(), ns_decode / 1e3);
    println!();
    // Loss tolerance: how long adaptation takes under increasing loss.
    println!("| link loss | adapted within (sim s) |");
    println!("|---|---|");
    for loss in [0.0f64, 0.1, 0.2, 0.4] {
        let secs = lossy_adaptation_time(loss);
        match secs {
            Some(s) => println!("| {:.0}% | {s:.2} |", loss * 100.0),
            None => println!("| {:.0}% | not within 120 s |", loss * 100.0),
        }
    }
    println!();
}

/// Sim-time until a single device is adapted under `loss` probability.
fn lossy_adaptation_time(loss: f64) -> Option<f64> {
    use pmp_net::{LinkModel, Position};
    use pmp_vm::perm::{Permission, Permissions};
    let mut p = pmp_core::Platform::with_link(4242, LinkModel::lossy(loss));
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
    let pkg = pmp_extensions::billing::package("* Motor.*(..)", 1, 1);
    let sealed = p.base(base).seal(&pkg);
    p.base_mut(base).base.catalog.put(sealed);
    let policy = p.trusting_policy(&[base], Permissions::none().with(Permission::Net));
    let dev = p
        .add_device("pda:0", Position::new(35.0, 30.0), 80.0, policy)
        .expect("device");
    let mut elapsed = 0u64;
    while elapsed < 120 * SEC {
        p.pump(SEC / 10);
        elapsed += SEC / 10;
        if p.node(dev).receiver.is_installed("ext/billing") {
            return Some(p.now().as_secs_f64());
        }
    }
    None
}

/// E10 — §4.6: extension conciseness ("a few days sufficed for the
/// student to be able to program extensions"; Fig. 5 is ~10 lines).
fn e10_conciseness() {
    println!("## E10 — extension conciseness (Fig. 5's HwMonitoring is ~10 lines of Java)");
    println!();
    println!("| extension | advice methods | bytecode ops | wire size (bytes) |");
    println!("|---|---|---|---|");
    let packages = [
        pmp_extensions::monitoring::package(1),
        pmp_extensions::session::package("* DrawingService.*(..)", 1),
        pmp_extensions::access_control::package("* DrawingService.*(..)", &["op:1"], 1),
        pmp_extensions::encryption::package(0x42, 1),
        pmp_extensions::geofence::package(0, 0, 30, 30, 1),
        pmp_extensions::billing::package("* Motor.*(..)", 2, 1),
        pmp_extensions::persistence::package("Robot.state", 1),
        pmp_extensions::transactions::package("* Svc.tx*(..)", "Svc", &["a", "b"], 1),
        pmp_extensions::agegate::package("* Svc.*(..)", 1_000, 1),
        pmp_extensions::replication::package(1),
    ];
    for pkg in packages {
        let methods = pkg.aspect.class.methods.len();
        let ops: usize = pkg.aspect.class.methods.iter().map(|m| m.body.ops.len()).sum();
        let wire = pmp_wire::to_bytes(&pkg).len();
        println!("| {} | {methods} | {ops} | {wire} |", pkg.meta.id);
    }
    println!();
}

/// E11 — admission-gate cost: the static analysis a receiver pays per
/// delivered extension (absent from the paper, which admits on
/// signature alone), next to the signature check it already pays.
fn e11_verification_cost() {
    use pmp_analyze::{perms, termination, verifier, AnalyzeOptions, Severity, SysPerm};
    use pmp_crypto::{KeyPair, Principal, TrustStore};
    use pmp_extensions::support::{register_session_blackboard, register_sink};
    use pmp_midas::SignedExtension;
    use pmp_vm::op::Op;
    use pmp_vm::perm::{Permission, Permissions};
    use pmp_vm::prelude::{Value, Vm, VmConfig};
    use std::sync::Arc;

    println!("## E11 — static-analysis admission gate: per-pass cost and verdict");
    println!();
    println!("| extension | verdict | sig verify (µs) | bytecode (µs) | perms (µs) | termination (µs) | gate total (µs) |");
    println!("|---|---|---|---|---|---|---|");

    // A VM wired like a platform node, so every sys op resolves.
    let mut vm = Vm::new(VmConfig::default());
    register_session_blackboard(&mut vm);
    register_sink(&mut vm, "monitor.post", Some(Permission::Net));
    register_sink(&mut vm, "replicate.post", Some(Permission::Net));
    register_sink(&mut vm, "billing.charge", Some(Permission::Net));
    register_sink(&mut vm, "persist.put", Some(Permission::Store));
    vm.register_sys("session.caller", None, Arc::new(|_vm, _args| Ok(Value::Null)));

    let authority = KeyPair::from_seed(b"bench:authority");
    let mut trust = TrustStore::default();
    trust.add(Principal::new("bench:authority", authority.public_key()));

    let mut packages = vec![
        pmp_extensions::monitoring::package(1),
        pmp_extensions::session::package("* DrawingService.*(..)", 1),
        pmp_extensions::access_control::package("* DrawingService.*(..)", &["op:1"], 1),
        pmp_extensions::encryption::package(0x42, 1),
        pmp_extensions::geofence::package(0, 0, 30, 30, 1),
        pmp_extensions::billing::package("* Motor.*(..)", 2, 1),
        pmp_extensions::persistence::package("Robot.state", 1),
        pmp_extensions::transactions::package("* Svc.tx*(..)", "Svc", &["a", "b"], 1),
        pmp_extensions::agegate::package("* Svc.*(..)", 1_000, 1),
        pmp_extensions::replication::package(1),
    ];
    // A deliberately unsound package (underflowing advice) as the
    // rejected control.
    let mut evil = pmp_extensions::monitoring::package(1);
    evil.meta.id = "ext/underflow".into();
    if let Some(m) = evil.aspect.class.methods.first_mut() {
        m.body.ops.insert(0, Op::Pop);
    }
    packages.push(evil);

    for pkg in packages {
        let declared = Permissions::from_names(pkg.meta.permissions.iter().map(String::as_str));
        let reg = vm.sys_registry();
        let resolver = |name: &str| match reg.lookup(name) {
            Some(idx) => match reg.perm_of(idx) {
                Some(p) => SysPerm::Guarded(p),
                None => SysPerm::Unguarded,
            },
            None => SysPerm::Unknown,
        };
        let opts = AnalyzeOptions::default();

        let sealed = SignedExtension::seal("bench:authority", &authority, &pkg);
        let t_sig = measure_ns(200, || {
            sealed.verify_and_open(&trust).unwrap();
        }) / 1e3;
        let t_ver = measure_ns(500, || {
            verifier::verify_class(&pkg.aspect.class, &opts);
        }) / 1e3;
        let t_perm = measure_ns(500, || {
            perms::check_permissions(&pkg.aspect, declared, &resolver);
        }) / 1e3;
        let t_term = measure_ns(500, || {
            termination::check_class(&pkg.aspect.class, &opts);
        }) / 1e3;

        let report = pmp_analyze::analyze_aspect(&pkg.aspect, declared, &resolver, &opts);
        let verdict = if report.rejects(Severity::Error) {
            "REJECT"
        } else {
            "accept"
        };
        println!(
            "| {} | {verdict} | {t_sig:.2} | {t_ver:.2} | {t_perm:.2} | {t_term:.2} | {:.2} |",
            pkg.meta.id,
            t_ver + t_perm + t_term
        );
    }
    println!();
}

/// E12 — cell-order independence: the E6 distribution workload run in
/// rank order and in a seeded permuted cell order (DESIGN.md §10). The
/// serial wall clock is the best of three; the row's claim is that
/// both determinism digests agree.
fn e12_cell_order() {
    println!("## E12 — cell-order independence on the E6 distribution workload");
    println!();
    println!("| nodes | serial (ms) | trace digest | journal digest | permuted digests match |");
    println!("|---|---|---|---|---|");
    for n in [8usize, 16, 64] {
        let mut s = cell_order_run(n, None);
        for _ in 0..2 {
            let r = cell_order_run(n, None);
            assert_eq!(r.trace_digest, s.trace_digest, "E12 repeat diverged");
            if r.wall_ms < s.wall_ms {
                s = r;
            }
        }
        let p = cell_order_run(n, Some(3));
        assert!(s.all_adapted && p.all_adapted, "E12({n}): adaptation never converged");
        let matches = s.trace_digest == p.trace_digest && s.journal_digest == p.journal_digest;
        println!(
            "| {} | {:.1} | {:016x} | {:016x} | {} |",
            n,
            s.wall_ms,
            s.trace_digest,
            s.journal_digest,
            if matches { "yes" } else { "NO — DIVERGED" },
        );
    }
    println!();
}
