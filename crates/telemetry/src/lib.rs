//! # pmp-telemetry — unified metrics + event journal for the platform
//!
//! The paper's headline results (≈7 % baseline stub overhead, ≈900 ns
//! per interception) are *measurements*; this crate is the single
//! substrate every layer reports through so those numbers — and every
//! future performance claim — come from one pipeline:
//!
//! * [`Registry`] — named counters, gauges, and fixed-bucket latency
//!   histograms (p50/p90/p99 readout). Updates are plain `u64`/array
//!   bumps behind `&mut`: cheap enough for the single-threaded VM
//!   interpreter hot path, no atomics.
//! * [`Journal`] — a structured point-event log stamped with sim-time
//!   from an injected clock, with a ring-buffer cap and per-[`Subsystem`]
//!   enable flags. (Causal spans live in pmp-trace.)
//! * [`export`] — deterministic text-table and JSON-lines renderers
//!   (canonical formatting: same state, same bytes, like `pmp-wire`).
//! * [`sync`] — tiny `std::sync` wrappers with a `parking_lot`-style
//!   API (`lock()` returns the guard directly), keeping the workspace
//!   free of external dependencies so it builds fully offline.
//!
//! Metric names follow `<crate>.<subsystem>.<name>`, e.g.
//! `vm.hooks.checks` or `net.sim.delivered` (see DESIGN.md
//! "Observability").
//!
//! Single-owner components (the VM) embed a [`Telemetry`] directly and
//! bump pre-registered ids; multi-party components (the simulator, the
//! MIDAS base/receiver pair) share one via [`Shared`].

pub mod digest;
pub mod export;
pub mod journal;
pub mod registry;
pub mod sink;
pub mod sync;

pub use digest::Fnv64;
pub use journal::{Event, Journal, Subsystem};
pub use registry::{CounterId, GaugeId, Histogram, HistogramId, Registry, MISSES_COUNTER};
pub use sink::{PendingEvent, Sink};

use std::sync::Arc;

/// An injected time source returning nanoseconds of sim-time (or any
/// monotonically non-decreasing `u64`). `pmp-net`'s `ClockHandle`
/// produces one with `Arc::new(move || clock.now().0)`.
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Default journal ring-buffer capacity.
pub const DEFAULT_JOURNAL_CAP: usize = 1024;

/// A registry + journal pair: the full telemetry state of one component.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Counters, gauges, histograms.
    pub registry: Registry,
    /// The structured event journal.
    pub journal: Journal,
}

impl Telemetry {
    /// An empty telemetry with the default journal capacity.
    #[must_use]
    pub fn new() -> Telemetry {
        Telemetry::with_capacity(DEFAULT_JOURNAL_CAP)
    }

    /// An empty telemetry whose journal keeps at most `cap` events.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Telemetry {
        Telemetry {
            registry: Registry::new(),
            journal: Journal::new(cap),
        }
    }

    /// Installs the time source used to stamp journal events.
    pub fn set_clock(&mut self, clock: Clock) {
        self.journal.set_clock(clock);
    }

    /// Zeroes every metric and clears the journal; registrations and
    /// enable flags survive.
    pub fn reset(&mut self) {
        self.registry.reset();
        self.journal.clear();
    }

    /// The metrics rendered as an aligned text table.
    #[must_use]
    pub fn render_table(&self) -> String {
        export::render_table(&self.registry)
    }

    /// The full state (metrics + journal) as JSON lines.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        export::to_json_lines(self)
    }
}

/// A cloneable, lock-protected [`Telemetry`] for components that span
/// several owners (simulator + base stations + receivers all feeding
/// one per-platform registry).
#[derive(Clone, Debug, Default)]
pub struct Shared {
    inner: Arc<sync::Mutex<Telemetry>>,
}

impl Shared {
    /// A fresh shared telemetry with the default journal capacity.
    #[must_use]
    pub fn new() -> Shared {
        Shared::with_capacity(DEFAULT_JOURNAL_CAP)
    }

    /// A fresh shared telemetry whose journal keeps at most `cap` events.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Shared {
        Shared {
            inner: Arc::new(sync::Mutex::new(Telemetry::with_capacity(cap))),
        }
    }

    /// Locks and returns the guarded telemetry.
    pub fn lock(&self) -> sync::MutexGuard<'_, Telemetry> {
        self.inner.lock()
    }

    /// Runs `f` with the telemetry locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut Telemetry) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Installs the journal time source.
    pub fn set_clock(&self, clock: Clock) {
        self.inner.lock().set_clock(clock);
    }

    /// Bumps the named counter by 1 (registering it on first use).
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Bumps the named counter by `n` (registering it on first use).
    pub fn add(&self, name: &str, n: u64) {
        let mut t = self.inner.lock();
        let id = t.registry.counter(name);
        t.registry.add(id, n);
    }

    /// Records `value` into the named histogram (registering it on
    /// first use).
    pub fn record(&self, name: &str, value: u64) {
        let mut t = self.inner.lock();
        let id = t.registry.histogram(name);
        t.registry.record(id, value);
    }

    /// Current value of the named counter (0 when unregistered).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner.lock().registry.counter_value(name)
    }

    /// Current value of the named gauge (0 when unregistered).
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.inner.lock().registry.gauge_value(name)
    }

    /// Appends a point event to the journal.
    pub fn event(&self, sub: Subsystem, name: &str, detail: impl Into<String>) {
        self.inner.lock().journal.event(sub, name, detail);
    }

    /// Appends a point event with an explicit timestamp (barrier merge
    /// of buffered cell events; see [`sink::Sink`]).
    pub fn event_at(&self, at: u64, sub: Subsystem, name: &str, detail: impl Into<String>) {
        self.inner.lock().journal.event_at(at, sub, name, detail);
    }

    /// Stable digest of the journal (see [`Journal::digest`]).
    #[must_use]
    pub fn journal_digest(&self) -> u64 {
        self.inner.lock().journal.digest()
    }

    /// The metrics rendered as an aligned text table.
    #[must_use]
    pub fn render_table(&self) -> String {
        self.inner.lock().render_table()
    }

    /// The full state as JSON lines.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        self.inner.lock().to_json_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn shared_counters_by_name() {
        let t = Shared::new();
        t.inc("net.sim.sent");
        t.add("net.sim.sent", 2);
        assert_eq!(t.counter_value("net.sim.sent"), 3);
        assert_eq!(t.counter_value("net.sim.unknown"), 0);
    }

    #[test]
    fn reset_preserves_registrations() {
        let mut t = Telemetry::new();
        let c = t.registry.counter("a.b.c");
        t.registry.add(c, 7);
        t.journal.event(Subsystem::Core, "x", "");
        t.reset();
        assert_eq!(t.registry.counter_value("a.b.c"), 0);
        assert_eq!(t.journal.len(), 0);
        // The id survives the reset.
        t.registry.add(c, 1);
        assert_eq!(t.registry.counter_value("a.b.c"), 1);
    }

    #[test]
    fn shared_clock_stamps_events() {
        let now = Arc::new(AtomicU64::new(42));
        let n2 = now.clone();
        let t = Shared::new();
        t.set_clock(Arc::new(move || n2.load(Ordering::Relaxed)));
        t.event(Subsystem::Net, "tick", "");
        now.store(99, Ordering::Relaxed);
        t.event(Subsystem::Net, "tock", "");
        let ats: Vec<u64> = t.lock().journal.events().map(|e| e.at).collect();
        assert_eq!(ats, vec![42, 99]);
    }
}
