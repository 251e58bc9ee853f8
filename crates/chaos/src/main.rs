//! The chaos CLI.
//!
//! ```text
//! cargo run -p pmp-chaos -- --seed 42                  # one seed, both drivers
//! cargo run -p pmp-chaos -- --sweep 0 500              # a seed range
//! cargo run -p pmp-chaos -- --seed 42 --shrink \
//!     --write-repro tests/repros                       # minimize + save failures
//! cargo run -p pmp-chaos -- --replay tests/repros/seed-42.repro
//! ```
//!
//! Output is deterministic: same seeds, same bytes, whatever the
//! machine — digests and violation text only, never wall-clock. The
//! process exits 1 if any seed failed.

use pmp_chaos::{
    exec, gen, repro, script::Scenario, shrink, soak, DriverKind, GenConfig, SoakConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

struct Args {
    seeds: Vec<u64>,
    replay: Vec<String>,
    driver: Option<DriverKind>,
    gen_steps: usize,
    do_shrink: bool,
    write_repro: Option<String>,
    quiet: bool,
    soak_secs: Option<u32>,
    soak_slow: Option<u8>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pmp-chaos [--seed N | --sweep FROM TO | --replay FILE]...\n\
         \x20      [--driver serial|parallel|both] [--gen-steps N]\n\
         \x20      [--soak SECS] [--soak-slow MULT]\n\
         \x20      [--shrink] [--write-repro DIR] [--quiet]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: Vec::new(),
        replay: Vec::new(),
        driver: None,
        gen_steps: GenConfig::default().steps,
        do_shrink: false,
        write_repro: None,
        quiet: false,
        soak_secs: None,
        soak_slow: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i - 1).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        let flag = next(&mut i);
        match flag.as_str() {
            "--seed" => args
                .seeds
                .push(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--sweep" => {
                let from: u64 = next(&mut i).parse().unwrap_or_else(|_| usage());
                let to: u64 = next(&mut i).parse().unwrap_or_else(|_| usage());
                args.seeds.extend(from..to);
            }
            "--replay" => args.replay.push(next(&mut i)),
            "--driver" => {
                args.driver = match next(&mut i).as_str() {
                    "serial" => Some(DriverKind::Serial),
                    "parallel" => Some(DriverKind::Parallel),
                    "both" => None,
                    _ => usage(),
                }
            }
            "--gen-steps" => args.gen_steps = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--soak" => args.soak_secs = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--soak-slow" => args.soak_slow = Some(next(&mut i).parse().unwrap_or_else(|_| usage())),
            "--shrink" => args.do_shrink = true,
            "--write-repro" => args.write_repro = Some(next(&mut i)),
            "--quiet" => args.quiet = true,
            _ => usage(),
        }
    }
    if args.seeds.is_empty() && args.replay.is_empty() {
        args.seeds.push(1);
    }
    args
}

/// Runs a scenario, catching panics so a crashed run is a *failure
/// report*, not a dead process — panics must be shrinkable too.
fn run_checked(sc: &Scenario, driver: Option<DriverKind>) -> (Vec<String>, u64, u64) {
    match driver {
        Some(d) => match catch_unwind(AssertUnwindSafe(|| exec::run(sc, d))) {
            Ok(r) => (
                r.violations.iter().map(ToString::to_string).collect(),
                r.trace,
                r.journal,
            ),
            Err(_) => (vec!["[panicked] run died".into()], 0, 0),
        },
        None => match catch_unwind(AssertUnwindSafe(|| exec::run_cross(sc))) {
            Ok(c) => (
                c.violations.iter().map(ToString::to_string).collect(),
                c.serial.trace,
                c.serial.journal,
            ),
            Err(_) => (vec!["[panicked] run died".into()], 0, 0),
        },
    }
}

/// True if the scenario still reproduces `target`: the same invariant
/// id (the `[...]` prefix of the violation line), or any panic when the
/// original was a panic.
fn still_fails(sc: &Scenario, driver: Option<DriverKind>, target: &str) -> bool {
    let (violations, _, _) = run_checked(sc, driver);
    violations
        .iter()
        .any(|v| v.split(']').next() == target.split(']').next())
}

fn main() {
    let args = parse_args();
    let cfg = GenConfig {
        steps: args.gen_steps,
        ..GenConfig::default()
    };
    let mut failures = 0usize;

    for path in &args.replay {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                println!("replay {path}: unreadable: {e}");
                failures += 1;
                continue;
            }
        };
        match repro::load(&bytes) {
            Ok((sc, _)) => {
                let (violations, trace, journal) = run_checked(&sc, args.driver);
                report(path, trace, journal, &violations, args.quiet, &mut failures);
            }
            Err(e) => {
                println!("replay {path}: {e}");
                failures += 1;
            }
        }
    }

    for &seed in &args.seeds {
        let sc = if let Some(secs) = args.soak_secs {
            let mut scfg = SoakConfig::ci();
            scfg.horizon_ms = secs.saturating_mul(1_000);
            // Inject the latency regression halfway through the load
            // phase, so the oracle sees a clean baseline first.
            scfg.slow_link = args.soak_slow.map(|m| (scfg.horizon_ms / 2, m));
            soak::soak(seed, &scfg)
        } else {
            gen::generate(seed, &cfg)
        };
        let (violations, trace, journal) = run_checked(&sc, args.driver);
        let label = format!("seed {seed}");
        let failed = !violations.is_empty();
        report(&label, trace, journal, &violations, args.quiet, &mut failures);
        if failed && args.do_shrink {
            let target = violations[0].clone();
            let mut pred = |s: &Scenario| still_fails(s, args.driver, &target);
            let (min, stats) = shrink::shrink(&sc, &mut pred, 2_000);
            println!(
                "  shrunk {} -> {} steps in {} evals",
                stats.from_steps, stats.to_steps, stats.evals
            );
            print!("{}", min.render());
            if let Some(dir) = &args.write_repro {
                // Re-run the minimized scenario once to capture the
                // flight-recorder dumps at the moment of failure, so
                // the artifact carries what each node saw.
                let flight = catch_unwind(AssertUnwindSafe(|| {
                    exec::run(&min, args.driver.unwrap_or(DriverKind::Serial)).flight
                }))
                .unwrap_or_default();
                // Perf regressions are *supposed* to fail forever:
                // pin them as .redrepro so the green-replay suite
                // (which globs only .repro) skips them and a
                // dedicated red-assertion test owns them instead.
                let ext = if target.starts_with("[perf.") {
                    "redrepro"
                } else {
                    "repro"
                };
                let file = format!("{dir}/seed-{seed}.{ext}");
                match std::fs::write(&file, repro::save(&min, &flight)) {
                    Ok(()) => println!("  wrote {file}"),
                    Err(e) => println!("  could not write {file}: {e}"),
                }
            }
        }
    }

    if failures > 0 {
        println!("{failures} failing run(s)");
        std::process::exit(1);
    }
    println!("all runs clean");
}

fn report(
    label: &str,
    trace: u64,
    journal: u64,
    violations: &[String],
    quiet: bool,
    failures: &mut usize,
) {
    if violations.is_empty() {
        if !quiet {
            println!("{label}: ok trace={trace:#018x} journal={journal:#018x}");
        }
        return;
    }
    *failures += 1;
    println!("{label}: FAILED ({} violation(s))", violations.len());
    for v in violations {
        println!("  {v}");
    }
}
