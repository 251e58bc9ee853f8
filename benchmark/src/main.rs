//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <dispatch|hall_calls|hall_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints host and build facts, the output checks and a report, then as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).
//! A traced run also writes its spans and the platform's telemetry
//! snapshot under `.bench_out/`.

use pmp_benchmark::{result_json, run, Size, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to run: debug build (use --release)");
        return ExitCode::from(2);
    }
    if let Ok(driver) = std::env::var("PMP_DRIVER") {
        eprintln!("refusing to run: PMP_DRIVER={driver} is set; the benchmark measures the default driver");
        return ExitCode::from(2);
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let driver = pmp_core::Platform::new(0).driver_name();
    println!(
        "host available_parallelism={} profile=release git_rev={} driver={driver}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        git_rev()
    );
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    );
    if !args.trace {
        for (name, v, unit) in &result.metrics {
            println!("metric {name} = {v} {unit}");
        }
    }
    for line in &result.report {
        println!("{line}");
    }
    if let Some(spans) = &result.spans {
        let dir = std::path::Path::new(".bench_out");
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}-spans.csv")), spans.to_csv()))
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}-telemetry.jsonl")),
                    &result.telemetry,
                )
            });
        match written {
            Ok(()) => println!("trace written: .bench_out/{stem}-spans.csv ({} spans), .bench_out/{stem}-telemetry.jsonl", spans.all().len()),
            Err(e) => eprintln!("could not write trace files: {e}"),
        }
    }
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
