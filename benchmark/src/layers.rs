//! Per-layer metrics, measured from outside the program: counters and
//! histograms it already publishes (read by name from the telemetry
//! registries), public RPC/stream/durable state, and the benchmark's
//! own spans around public calls.

use crate::spans::Spans;
use crate::stats::{median, quantile};
use pmp_core::{BaseId, MobId, Platform};
use std::collections::BTreeMap;

// What each group of layer metrics is expected to move, and where.
const VM: &str = "op_p50_us, op_p99_us, ops_per_s on dispatch; none on hall_churn";
const ADMIT: &str = "pump_p99_ms, ops_per_s on hall_churn; none on dispatch";
const PUBLISH: &str = "setup_s on hall_churn";
const LEASES: &str = "failed_ratio, sim_p99_ms, ops_per_s on hall_churn";
const NET: &str = "ops_per_s on hall_churn and hall_calls";
const PUMP: &str = "pump_p50_ms on hall_churn and hall_calls";
const RPC: &str = "failed_ratio, sim_p99_ms, ops_per_s on hall_calls";
const RPC_DUP: &str = "must stay 0 on hall_calls";
const DURABLE: &str =
    "pump_p99_ms, ops_per_s, rss_peak_mb on hall_calls; small on hall_churn; none on dispatch";
const STREAM: &str = "ops_per_s, rss_peak_mb on hall_calls";

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it is expected to move.
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("vm.bytecode_ops_per_op", "count", VM),
    ("vm.invocations_per_op", "count", VM),
    ("vm.advice_dispatches_per_op", "count", VM),
    ("vm.hook_checks_per_op", "count", VM),
    ("vm.fuel_per_op", "count", VM),
    ("vm.base_call_us", "us", VM),
    ("prose.advice_us", "us", VM),
    ("prose.weave_us", "us", ADMIT),
    ("prose.unweave_us", "us", ADMIT),
    ("midas.weave_us", "us", ADMIT),
    ("midas.verify_us", "us", ADMIT),
    ("analyze.verifier_us", "us", ADMIT),
    ("analyze.perms_us", "us", ADMIT),
    ("analyze.termination_us", "us", ADMIT),
    ("analyze.interference_us", "us", ADMIT),
    ("analyze.opt_us", "us", PUBLISH),
    ("midas.sign_us", "us", PUBLISH),
    ("midas.delivered", "count", LEASES),
    ("midas.installed", "count", LEASES),
    ("midas.rejected", "count", LEASES),
    ("midas.migrated", "count", LEASES),
    ("midas.install_ratio", "ratio", LEASES),
    ("midas.renewals_sent", "count", LEASES),
    ("midas.revocations", "count", LEASES),
    ("discovery.renewals", "count", LEASES),
    ("discovery.lease_expiries", "count", LEASES),
    ("net.sent_per_op", "count", NET),
    ("net.delivered_per_op", "count", NET),
    ("net.timers_per_op", "count", NET),
    ("net.broadcasts", "count", NET),
    ("net.dropped_loss", "count", NET),
    ("net.dropped_range", "count", NET),
    ("core.pump_self_ms", "ms", PUMP),
    ("core.rpc_issue_us", "us", RPC),
    ("core.rpc.retries", "count", RPC),
    ("core.rpc.dedup_hits", "count", RPC),
    ("core.rpc.useful_ratio", "ratio", RPC),
    ("core.rpc.dup_exec", "count", RPC_DUP),
    ("durable.appends", "count", DURABLE),
    ("durable.commits", "count", DURABLE),
    ("durable.commit_batch", "count", DURABLE),
    ("durable.append_us", "us", DURABLE),
    ("durable.snapshots", "count", DURABLE),
    ("durable.disk_mb", "MB", DURABLE),
    ("durable.checkpoint_ms", "ms", DURABLE),
    ("durable.recover_ms", "ms", DURABLE),
    ("store.records", "count", STREAM),
    ("stream.encoded", "count", STREAM),
    ("stream.encoded_bytes", "bytes", STREAM),
    ("stream.deliveries", "count", STREAM),
    ("stream.drain_p50_us", "us", STREAM),
    ("stream.drain_p99_us", "us", STREAM),
    ("stream.resyncs", "count", STREAM),
];

/// Histograms whose time is spent inside `Platform::pump`; subtracted
/// from pump span time to give the pump's own (scheduler + glue) time.
const IN_PUMP_NS: &[&str] = &[
    "durable.wal.append_ns",
    "midas.receiver.verify_ns",
    "midas.receiver.weave_ns",
    "midas.analyze.bytecode_ns",
    "midas.analyze.perms_ns",
    "midas.analyze.termination_ns",
    "midas.analyze.interference_ns",
    "prose.unweave.latency_ns",
];

/// A point-in-time reading of everything the per-layer metrics use.
#[derive(Debug, Default, Clone)]
pub struct Snap {
    counters: BTreeMap<String, u64>,
    /// `(count, sum)` per histogram, platform and every node VM merged.
    hists: BTreeMap<String, (u64, u64)>,
    vm: [u64; 5],
    stream: [u64; 4],
    rpc_retries: u64,
    dedup_hits: u64,
    dup_exec: u64,
}

impl Snap {
    /// Reads the platform registry, every listed node's VM registry and
    /// RPC server, and every listed base's RPC engine and stream hub.
    #[must_use]
    pub fn take(p: &Platform, bases: &[BaseId], mobs: &[MobId]) -> Snap {
        let mut s = Snap::default();
        {
            let tel = p.telemetry().lock();
            for (name, v) in tel.registry.counters() {
                s.counters.insert(name.to_string(), v);
            }
            for (name, h) in tel.registry.histograms() {
                s.hists.insert(name.to_string(), (h.count(), h.sum()));
            }
        }
        for &m in mobs {
            let node = p.node(m);
            for (name, h) in node.vm.telemetry().registry.histograms() {
                let e = s.hists.entry(name.to_string()).or_default();
                e.0 += h.count();
                e.1 += h.sum();
            }
            let v = node.vm.stats();
            for (acc, x) in s.vm.iter_mut().zip([
                v.bytecode_ops,
                v.invocations,
                v.advice_dispatches,
                v.hook_checks,
                v.advice_fuel_used,
            ]) {
                *acc += x;
            }
            s.dedup_hits += node.rpc_server.dedup.hits;
            s.dup_exec += node.rpc_server.duplicate_at_most_once_executions();
        }
        for &b in bases {
            let st = p.stream_stats(b);
            for (acc, x) in
                s.stream
                    .iter_mut()
                    .zip([st.encoded, st.encoded_bytes, st.delivered, st.snapshots])
            {
                *acc += x;
            }
            s.rpc_retries += p.base(b).rpc.retries;
        }
        s
    }

    /// A platform counter by name (0 when never registered).
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn hist(&self, name: &str) -> (u64, u64) {
        self.hists.get(name).copied().unwrap_or((0, 0))
    }

    /// Mean of a histogram in microseconds (`*_ns` histograms), 0 when
    /// empty.
    fn mean_us(&self, name: &str) -> f64 {
        let (n, sum) = self.hist(name);
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }
}

/// What a workload measured besides the two snapshots around its timed
/// phase.
#[derive(Debug, Default)]
pub struct LayerInput {
    /// Operations completed in the timed phase.
    pub ops: u64,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Fixed simulated steps pumped in the timed phase.
    pub steps: u64,
    /// Median adapted-call wall time minus `base_call_us`, where the
    /// workload makes local calls on an adapted robot.
    pub advice_us: f64,
    /// Median local-call wall time on the unadapted twin.
    pub base_call_us: f64,
    /// Movement records in the base store after the timed phase.
    pub store_records: u64,
    /// Committed bytes on the bases' durable disks after the timed phase.
    pub disk_bytes: u64,
    /// Explicit `checkpoint_base` wall time.
    pub checkpoint_ms: f64,
    /// `crash_base` + `restart_base` wall time.
    pub recover_ms: f64,
    /// Cursors that received a snapshot instead of deltas.
    pub resyncs: u64,
    /// Calls that returned `Ok` (RPC workloads).
    pub rpc_ok: u64,
}

/// Computes every [`PER_LAYER`] metric, in table order.
#[must_use]
pub fn compute(before: &Snap, after: &Snap, input: &LayerInput, spans: &Spans) -> Vec<f64> {
    let d = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let per_op = |x: f64| x / input.ops.max(1) as f64;
    let vm: Vec<f64> = (0..5)
        .map(|i| after.vm[i].saturating_sub(before.vm[i]) as f64)
        .collect();
    let delivered = d("midas.base.delivered");
    let installed = d("midas.receiver.installed");
    // Pump self time: span time minus what in-pump histograms recorded
    // over the same timed phase.
    let pump_ns: f64 = spans.durations("pump").iter().sum();
    let inner_ns: u64 = IN_PUMP_NS
        .iter()
        .map(|h| after.hist(h).1.saturating_sub(before.hist(h).1))
        .sum();
    let pump_self_ms = (pump_ns - inner_ns as f64).max(0.0) / 1e6 / input.steps.max(1) as f64;
    let drains: Vec<f64> = spans
        .durations("drain_updates")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let issues: Vec<f64> = spans
        .durations("rpc_with")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let commits = d("durable.wal.commits");
    let batch = {
        let (n0, s0) = before.hist("durable.commit.batch");
        let (n1, s1) = after.hist("durable.commit.batch");
        (s1 - s0) as f64 / ((n1 - n0).max(1)) as f64
    };
    let retries = after.rpc_retries.saturating_sub(before.rpc_retries) as f64;
    let stream = |i: usize| after.stream[i].saturating_sub(before.stream[i]) as f64;
    let values = vec![
        per_op(vm[0]),
        per_op(vm[1]),
        per_op(vm[2]),
        per_op(vm[3]),
        per_op(vm[4]),
        input.base_call_us,
        input.advice_us,
        after.mean_us("prose.weave.latency_ns"),
        after.mean_us("prose.unweave.latency_ns"),
        after.mean_us("midas.receiver.weave_ns"),
        after.mean_us("midas.receiver.verify_ns"),
        after.mean_us("midas.analyze.bytecode_ns"),
        after.mean_us("midas.analyze.perms_ns"),
        after.mean_us("midas.analyze.termination_ns"),
        after.mean_us("midas.analyze.interference_ns"),
        after.mean_us("analyze.opt.ns"),
        after.mean_us("midas.base.sign_ns"),
        delivered,
        installed,
        d("midas.receiver.rejected"),
        d("midas.base.migrated"),
        if delivered > 0.0 {
            installed / delivered
        } else {
            0.0
        },
        d("midas.base.lease_renewals_sent"),
        d("midas.base.revocations"),
        d("discovery.registrar.renewals"),
        d("discovery.registrar.lease_expiries"),
        per_op(d("net.sim.sent")),
        per_op(d("net.sim.delivered")),
        per_op(d("net.sim.timers")),
        d("net.sim.broadcasts"),
        d("net.sim.dropped_loss"),
        d("net.sim.dropped_range"),
        pump_self_ms,
        median(&issues),
        retries,
        after.dedup_hits.saturating_sub(before.dedup_hits) as f64,
        // Useful outcomes over transmissions (first sends + retries).
        if input.rpc_ok > 0 {
            input.rpc_ok as f64 / (input.attempted as f64 + retries)
        } else {
            0.0
        },
        after.dup_exec as f64,
        d("durable.wal.appends"),
        commits,
        batch,
        after.mean_us("durable.wal.append_ns"),
        d("durable.snapshot.count"),
        input.disk_bytes as f64 / 1e6,
        input.checkpoint_ms,
        input.recover_ms,
        input.store_records as f64,
        stream(0),
        stream(1),
        stream(2),
        quantile(&drains, 0.5),
        quantile(&drains, 0.99),
        input.resyncs as f64,
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    values
}
