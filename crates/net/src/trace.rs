//! Delivery statistics and an optional event log.
//!
//! Every counter lives in a [`pmp_telemetry::Shared`] registry under
//! `net.sim.*` (plus per-channel `net.channel.<name>.bytes`), and each
//! delivery is exported as a `net.deliver` journal event, so the
//! simulator's numbers read back through the same pipeline as every
//! other layer's. [`NetStats`] is a read-back view of those counters,
//! the way `VmStats` is for the VM. A trace starts on a private
//! registry until [`Trace::attach_telemetry`] moves it onto a shared
//! one.

use crate::clock::SimTime;
use crate::node::NodeId;
use pmp_telemetry::{CounterId, Registry, Shared, Subsystem};
use std::collections::HashMap;

/// Aggregate counters over a simulation run, read back out of the
/// `net.sim.*` registry counters by [`Trace::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Unicast messages submitted.
    pub sent: u64,
    /// Message copies delivered into inboxes.
    pub delivered: u64,
    /// Copies dropped because sender/receiver were out of range or
    /// offline at send or delivery time.
    pub dropped_range: u64,
    /// Copies dropped by the link loss model.
    pub dropped_loss: u64,
    /// Broadcast operations submitted.
    pub broadcasts: u64,
    /// Timers fired.
    pub timers: u64,
}

/// One recorded delivery event (only kept when logging is enabled).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Delivery time.
    pub at: SimTime,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Channel name.
    pub channel: String,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Pre-registered `net.sim.*` counter ids in the trace's registry.
#[derive(Debug)]
struct NetIds {
    sent: CounterId,
    delivered: CounterId,
    dropped_range: CounterId,
    dropped_loss: CounterId,
    broadcasts: CounterId,
    timers: CounterId,
}

impl NetIds {
    fn register(r: &mut Registry) -> NetIds {
        NetIds {
            sent: r.counter("net.sim.sent"),
            delivered: r.counter("net.sim.delivered"),
            dropped_range: r.counter("net.sim.dropped_range"),
            dropped_loss: r.counter("net.sim.dropped_loss"),
            broadcasts: r.counter("net.sim.broadcasts"),
            timers: r.counter("net.sim.timers"),
        }
    }

    fn read(&self, r: &Registry) -> NetStats {
        NetStats {
            sent: r.counter_get(self.sent),
            delivered: r.counter_get(self.delivered),
            dropped_range: r.counter_get(self.dropped_range),
            dropped_loss: r.counter_get(self.dropped_loss),
            broadcasts: r.counter_get(self.broadcasts),
            timers: r.counter_get(self.timers),
        }
    }
}

/// Collects statistics and (optionally) per-delivery entries.
#[derive(Debug)]
pub struct Trace {
    shared: Shared,
    ids: NetIds,
    /// Lazily-registered `net.channel.<name>.bytes` counters.
    channel_bytes: HashMap<String, CounterId>,
    log_enabled: bool,
    log: Vec<TraceEntry>,
}

impl Default for Trace {
    fn default() -> Trace {
        let shared = Shared::new();
        let ids = NetIds::register(&mut shared.lock().registry);
        Trace {
            shared,
            ids,
            channel_bytes: HashMap::new(),
            log_enabled: false,
            log: Vec::new(),
        }
    }
}

impl Trace {
    /// Enables/disables the per-delivery log.
    pub fn set_logging(&mut self, enabled: bool) {
        self.log_enabled = enabled;
    }

    /// Moves the counters (names `net.sim.*`) into `shared`, carrying
    /// over what was counted so far, and journals later deliveries
    /// there.
    pub fn attach_telemetry(&mut self, shared: &Shared) {
        let so_far = self.stats();
        let mut t = shared.lock();
        let ids = NetIds::register(&mut t.registry);
        for (id, n) in [
            (ids.sent, so_far.sent),
            (ids.delivered, so_far.delivered),
            (ids.dropped_range, so_far.dropped_range),
            (ids.dropped_loss, so_far.dropped_loss),
            (ids.broadcasts, so_far.broadcasts),
            (ids.timers, so_far.timers),
        ] {
            t.registry.add(id, n);
        }
        drop(t);
        self.ids = ids;
        self.channel_bytes.clear();
        self.shared = shared.clone();
    }

    /// The aggregate counters, read back out of the registry.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.ids.read(&self.shared.lock().registry)
    }

    fn inc(&self, id: CounterId) {
        self.shared.with(|t| t.registry.inc(id));
    }

    pub(crate) fn record_sent(&mut self) {
        self.inc(self.ids.sent);
    }

    pub(crate) fn record_broadcast(&mut self) {
        self.inc(self.ids.broadcasts);
    }

    pub(crate) fn record_timer(&mut self) {
        self.inc(self.ids.timers);
    }

    pub(crate) fn record_drop_range(&mut self) {
        self.inc(self.ids.dropped_range);
    }

    pub(crate) fn record_drop_loss(&mut self) {
        self.inc(self.ids.dropped_loss);
    }

    pub(crate) fn record_delivery(&mut self, entry: TraceEntry) {
        let shared = &self.shared;
        let chan_id = *self
            .channel_bytes
            .entry(entry.channel.clone())
            .or_insert_with(|| {
                shared
                    .lock()
                    .registry
                    .counter(&format!("net.channel.{}.bytes", entry.channel))
            });
        let delivered = self.ids.delivered;
        self.shared.with(|t| {
            t.registry.inc(delivered);
            t.registry.add(chan_id, entry.bytes as u64);
            t.journal.event(
                Subsystem::Net,
                "net.deliver",
                format!(
                    "{}->{} {} {}B",
                    entry.from.0, entry.to.0, entry.channel, entry.bytes
                ),
            );
        });
        if self.log_enabled {
            self.log.push(entry);
        }
    }

    /// The recorded deliveries (empty unless logging was enabled).
    pub fn log(&self) -> &[TraceEntry] {
        &self.log
    }

    /// Stable 64-bit FNV-1a digest over the aggregate counters and —
    /// when logging is enabled — every delivery's `(at, from, to,
    /// channel, bytes)` in order. The cell-order determinism suite
    /// enables logging and compares digests between rank-order and
    /// permuted-order runs; equal digests mean the byte-level delivery
    /// sequence is identical.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let stats = self.stats();
        let mut h = pmp_telemetry::Fnv64::new();
        h.write_u64(stats.sent);
        h.write_u64(stats.delivered);
        h.write_u64(stats.dropped_range);
        h.write_u64(stats.dropped_loss);
        h.write_u64(stats.broadcasts);
        h.write_u64(stats.timers);
        h.write_u64(self.log.len() as u64);
        for e in &self.log {
            h.write_u64(e.at.0);
            h.write_u64(u64::from(e.from.0));
            h.write_u64(u64::from(e.to.0));
            h.write_str(&e.channel);
            h.write_u64(e.bytes as u64);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> TraceEntry {
        TraceEntry {
            at: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(1),
            channel: "x".into(),
            bytes: 3,
        }
    }

    #[test]
    fn logging_toggle() {
        let mut t = Trace::default();
        t.record_delivery(entry());
        assert_eq!(t.stats().delivered, 1);
        assert!(t.log().is_empty());
        t.set_logging(true);
        t.record_delivery(entry());
        assert_eq!(t.log().len(), 1);
        assert_eq!(t.stats().delivered, 2);
    }

    #[test]
    fn stats_read_back_the_attached_registry() {
        let shared = Shared::new();
        let mut t = Trace::default();
        // Counted before the attach: carried over, not lost.
        t.record_sent();
        t.attach_telemetry(&shared);
        t.record_sent();
        t.record_broadcast();
        t.record_timer();
        t.record_drop_range();
        t.record_drop_loss();
        t.record_delivery(entry());
        t.record_delivery(TraceEntry {
            channel: "y".into(),
            bytes: 10,
            ..entry()
        });
        assert_eq!(
            t.stats(),
            NetStats {
                sent: 2,
                delivered: 2,
                dropped_range: 1,
                dropped_loss: 1,
                broadcasts: 1,
                timers: 1,
            }
        );
        assert_eq!(shared.counter_value("net.sim.sent"), 2);
        assert_eq!(shared.counter_value("net.sim.delivered"), 2);
        assert_eq!(shared.counter_value("net.channel.x.bytes"), 3);
        assert_eq!(shared.counter_value("net.channel.y.bytes"), 10);
        // Deliveries are exported as journal events.
        let journal_events = shared.with(|t| {
            t.journal
                .events()
                .filter(|e| e.name == "net.deliver")
                .count()
        });
        assert_eq!(journal_events, 2);
    }
}
