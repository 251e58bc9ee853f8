//! Seeded end-to-end and per-layer benchmark of the pmp platform.
//!
//! Three workloads run against the default platform (serial driver,
//! default RPC tuning, snapshot cadence and ship mode, tracing off):
//!
//! * [`dispatch`] — local calls through woven shipped advice;
//! * [`hall_calls`] — remote calls, monitored and streamed, over a lossy
//!   radio;
//! * [`hall_churn`] — devices arriving, roaming and leaving two
//!   federated halls.
//!
//! A run repeats whole episodes (set-up plus a fixed timed phase) of
//! one workload until its wall-clock budget is spent, checks every
//! episode's outputs, and reports the end-to-end metrics
//! ([`END_TO_END`]) or, when traced, the per-layer ones
//! ([`layers::PER_LAYER`]).

pub mod dispatch;
pub mod hall_calls;
pub mod hall_churn;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod world;

use spans::Spans;
use stats::{median, nearest_rank};
use std::time::Instant;

/// Every end-to-end metric of the result line: name and unit. Each is
/// non-zero on every workload. `pump_p50_ms`, the simulated latencies
/// and `failed_ratio` are printed on report lines instead: each is zero
/// on some workload or, for `pump_p50_ms` on `dispatch`, two-level.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("pump_p99_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// The workloads, in the order the benchmark documents them.
/// `BENCHMARK.json` gates `hall_calls` and `hall_churn`; `dispatch` runs
/// on demand, because its wall times follow the host too closely to gate
/// (see the README).
pub const WORKLOADS: &[&str] = &["dispatch", "hall_calls", "hall_churn"];

/// Input scale: `Full` is the benchmark's definition, `Tiny` the smoke
/// test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined with.
    Full,
    /// Small inputs of the same shape, for the smoke test.
    Tiny,
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

impl Check {
    /// A check result.
    #[must_use]
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything one episode (set-up + timed phase) measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// World build plus adaptation before timing, seconds.
    pub setup_s: f64,
    /// Simulated time the set-up took to get its world ready (adapted or
    /// replicated), milliseconds; the set-up pumps on to a fixed span.
    pub setup_sim_ms: f64,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations completed in the timed phase.
    pub completed: u64,
    /// Operations whose outcome broke their contract.
    pub failed: u64,
    /// Operations without a result that their contract allows on a lossy
    /// link: maybe-calls lost, at-most-once calls out of retries.
    pub unresolved: u64,
    /// Wall latency of each completed operation, microseconds.
    pub op_us: Vec<f64>,
    /// Wall time of each fixed simulated step, milliseconds.
    pub pump_ms: Vec<f64>,
    /// Simulated latency of each completed operation, milliseconds
    /// (empty for local calls).
    pub sim_ms: Vec<f64>,
    /// `(trace_digest, journal_digest)` once the simulated run is over.
    pub digests: (u64, u64),
    /// Output checks.
    pub checks: Vec<Check>,
    /// [`layers::PER_LAYER`] values, when traced.
    pub layers: Vec<f64>,
    /// The platform's telemetry snapshot as JSON lines, when traced.
    pub telemetry: String,
}

impl Episode {
    /// Completed operations per wall second of the timed phase.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.completed as f64 / self.timed_s.max(f64::EPSILON)
    }
}

/// Runs one episode of `workload`; with `setup_only`, stops after the
/// set-up (only `setup_s` and the set-up checks are filled in).
///
/// # Panics
///
/// On an unknown workload name.
pub fn episode(
    workload: &str,
    seed: u64,
    size: Size,
    spans: &mut Spans,
    setup_only: bool,
) -> Episode {
    match workload {
        "dispatch" => dispatch::episode(seed, size, spans, setup_only),
        "hall_calls" => hall_calls::episode(seed, size, spans, setup_only),
        "hall_churn" => hall_churn::episode(seed, size, spans, setup_only),
        other => panic!("unknown workload {other:?}"),
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct RunResult {
    /// Whether every check of every episode held.
    pub correct: bool,
    /// Operations attempted, summed over measured episodes.
    pub attempted: u64,
    /// Operations failed, summed over measured episodes.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable report lines (printed before the result line).
    pub report: Vec<String>,
    /// Spans of the last traced episode.
    pub spans: Option<Spans>,
    /// Telemetry snapshot (JSON lines) of the last traced episode.
    pub telemetry: String,
    /// `(trace_digest, journal_digest)` of the first episode.
    pub digests: (u64, u64),
}

/// Minimum episodes per run.
const MIN_EPISODES: usize = 3;

/// Extra set-ups an untraced run makes after each episode, so that
/// `setup_s` is a median over many set-ups even when episodes are long,
/// taken all through the run rather than in one burst.
const SETUP_REPS: usize = 6;

/// Allocates and frees one large block. With glibc, freeing a block
/// that was served by `mmap` raises the allocator's mmap and trim
/// thresholds to that size for the rest of the process; a program that
/// runs for long does so sooner or later on its own. Doing it first
/// makes every episode see the same allocator state, instead of timings
/// that jump between two levels at the moment the thresholds move. The
/// block is zeroed, so it comes from `calloc` on fresh `mmap` pages that
/// are never touched: it adds nothing to the peak RSS.
fn settle_allocator() {
    let block = vec![0u8; 24 << 20];
    std::hint::black_box(&block);
}

/// Wall milliseconds of a fixed integer loop: a gauge of host speed,
/// printed at the start and end of a run.
fn host_ref_ms() -> f64 {
    let t0 = Instant::now();
    let mut rng = stats::rng(0, 0);
    let mut acc = 0u64;
    for _ in 0..10_000_000 {
        acc ^= std::hint::black_box(rng.next_u64());
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// One episode reduced to the numbers a run reports. The operation
/// samples are dropped as soon as an episode ends, so they never count
/// towards the process's peak memory; the few step times are kept, sorted,
/// for the run's pooled step percentile.
#[derive(Debug)]
struct Summary {
    ops_per_s: f64,
    /// Operation wall latency p50, p99 (µs); simulated latency p50, p99
    /// (ms); step wall time p50 (ms).
    pct: [f64; 5],
    ops: usize,
    sims: usize,
    ep: Episode,
}

impl Summary {
    fn of(mut ep: Episode) -> Summary {
        for v in [&mut ep.op_us, &mut ep.sim_ms, &mut ep.pump_ms] {
            v.sort_by(f64::total_cmp);
        }
        let pct = [
            nearest_rank(&ep.op_us, 0.5),
            nearest_rank(&ep.op_us, 0.99),
            nearest_rank(&ep.sim_ms, 0.5),
            nearest_rank(&ep.sim_ms, 0.99),
            nearest_rank(&ep.pump_ms, 0.5),
        ];
        let (ops, sims) = (ep.op_us.len(), ep.sim_ms.len());
        ep.op_us = Vec::new();
        ep.sim_ms = Vec::new();
        Summary {
            ops_per_s: ep.ops_per_s(),
            pct,
            ops,
            sims,
            ep,
        }
    }
}

/// Runs `workload` for about `seconds` of wall time after a warm-up
/// episode: whole episodes on the same seeded inputs, at least
/// [`MIN_EPISODES`] of them, each untraced one followed by [`SETUP_REPS`]
/// set-ups. Each reported figure is the median over episodes of that
/// episode's figure, so a host hiccup during one episode moves it
/// little, except the step time p99: an episode has only 100 to 720
/// steps, so it is taken over the steps of all measured episodes
/// together. Traced runs alternate untraced and traced episodes so the
/// tracing overhead is measured on the same inputs.
#[must_use]
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, size: Size) -> RunResult {
    let mut plain: Vec<Summary> = Vec::new();
    let mut traced: Vec<Summary> = Vec::new();
    let mut last_spans = None;
    let min = if trace { 4 } else { MIN_EPISODES };
    let host_start = host_ref_ms();
    settle_allocator();
    // Warm-up: the first episode in a process runs with cold caches and
    // a heap the allocator has not grown yet, so it is checked but its
    // times are not measured. The peak RSS is read right after it: one
    // world, built and run once. Later episodes repeat the same work, but
    // after many worlds built and dropped the heap can fragment and the
    // peak creep up by megabytes, at an episode whose number depends on
    // the host's speed.
    let warmup = Summary::of(episode(workload, seed, size, &mut Spans::new(false), false));
    let rss_peak_mb = world::rss_peak_mb();
    let mut setups: Vec<Episode> = Vec::new();
    let start = Instant::now();
    while plain.len() + traced.len() < min || start.elapsed().as_secs_f64() < seconds {
        let traced_turn = trace && plain.len() > traced.len();
        let mut spans = Spans::new(traced_turn);
        let ep = Summary::of(episode(workload, seed, size, &mut spans, false));
        if traced_turn {
            traced.push(ep);
            last_spans = Some(spans);
        } else {
            plain.push(ep);
            if !trace {
                setups.extend(
                    (0..SETUP_REPS)
                        .map(|_| episode(workload, seed, size, &mut Spans::new(false), true)),
                );
            }
        }
    }

    let all: Vec<&Episode> = std::iter::once(&warmup)
        .chain(&plain)
        .chain(&traced)
        .map(|s| &s.ep)
        .collect();
    let mut report = Vec::new();
    let mut correct = true;
    let first = all[0].digests;
    let deterministic = all.iter().all(|e| e.digests == first);
    correct &= deterministic;
    report.push(format!(
        "digests trace_digest={:016x} journal_digest={:016x} identical_across_{}_episodes={}",
        first.0,
        first.1,
        all.len(),
        deterministic
    ));
    for (i, ep) in all.iter().copied().chain(&setups).enumerate() {
        for c in &ep.checks {
            correct &= c.ok;
            if i == 0 || !c.ok {
                report.push(format!(
                    "check {} {} ({}) episode {}",
                    if c.ok { "PASS" } else { "FAIL" },
                    c.name,
                    c.detail,
                    i + 1
                ));
            }
        }
    }

    let measured = &plain;
    let sum = |f: fn(&Summary) -> u64| -> u64 { measured.iter().map(f).sum() };
    let attempted = sum(|s| s.ep.attempted);
    let failed = sum(|s| s.ep.failed);
    let unresolved = sum(|s| s.ep.unresolved);
    let med =
        |v: &[Summary], f: &dyn Fn(&Summary) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    let ops_per_s = med(measured, &|s| s.ops_per_s);
    let pct = |i: usize| med(measured, &|s| s.pct[i]);
    let mut steps: Vec<f64> = measured
        .iter()
        .flat_map(|s| s.ep.pump_ms.iter().copied())
        .collect();
    steps.sort_by(f64::total_cmp);
    let pump_p99_ms = nearest_rank(&steps, 0.99);
    let setup_s: Vec<f64> = setups
        .iter()
        .chain(measured.iter().map(|s| &s.ep))
        .map(|e| e.setup_s)
        .collect();
    let list = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(",")
    };
    let m0 = &measured[0];
    report.push(format!(
        "samples per episode: ops={} steps={}; episodes={} setups={}; each figure is the median over episodes, pump_p99_ms the p99 over all their steps",
        m0.ops,
        m0.ep.pump_ms.len(),
        measured.len(),
        setup_s.len(),
    ));
    report.push(format!(
        "per-setup setup_s=[{}]",
        list(&mut setup_s.iter().copied())
    ));
    report.push(format!(
        "metric setup_sim_ms = {} ms (simulated time until the set-up's world was ready, deterministic per seed; every set-up pumps on to the same fixed span)",
        all[0].setup_sim_ms
    ));
    report.push(format!(
        "per-episode ops_per_s=[{}]",
        list(&mut measured.iter().map(|s| s.ops_per_s))
    ));
    report.push(format!(
        "metric pump_p50_ms = {} ms (report only: on dispatch it jumps between two levels from episode to episode)",
        pct(4)
    ));
    report.push(format!(
        "metric failed_ratio = {} ratio ({failed} failed + {unresolved} lost or timed out, as their semantics allow, of {attempted} attempted)",
        (failed + unresolved) as f64 / attempted.max(1) as f64
    ));
    if m0.sims == 0 {
        report.push(
            "metric sim_p50_ms, sim_p99_ms: none (local calls take no simulated time)".into(),
        );
    } else {
        report.push(format!(
            "metric sim_p50_ms = {} ms, sim_p99_ms = {} ms (simulated latency over {} operations, deterministic per seed)",
            pct(2),
            pct(3),
            m0.sims
        ));
    }
    report.push(format!(
        "host cpu_ref_ms start={host_start:.3} end={:.3} (fixed integer loop; compare runs to see host speed drift)",
        host_ref_ms()
    ));

    let metrics = if trace {
        let traced_ops = med(&traced, &|s| s.ops_per_s);
        report.push(format!(
            "tracing overhead: ops_per_s traced={traced_ops:.2} untraced={ops_per_s:.2} ratio={:.4}",
            traced_ops / ops_per_s.max(f64::EPSILON)
        ));
        let n = traced.len();
        layers::PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, &(name, unit, moves))| {
                let v = med(&traced, &|s| s.ep.layers[i]);
                report.push(format!(
                    "layer {name} = {v} {unit} (moves: {moves}; median of {n} episodes)"
                ));
                (name, v, unit)
            })
            .collect()
    } else {
        let values = [
            median(&setup_s),
            ops_per_s,
            pct(0),
            pct(1),
            pump_p99_ms,
            rss_peak_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
        report,
        spans: last_spans,
        telemetry: traced
            .last()
            .map(|s| s.ep.telemetry.clone())
            .unwrap_or_default(),
        digests: first,
    }
}

/// Formats a float as a JSON number (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
