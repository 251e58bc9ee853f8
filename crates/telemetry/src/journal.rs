//! The structured event journal: a ring buffer of sim-time-stamped
//! point events with per-subsystem enable flags.
//!
//! Components call [`Journal::event`]; causal spans are pmp-trace's
//! concern, not the journal's. Disabled subsystems cost one mask test;
//! the ring drops the oldest events once full and counts what it
//! dropped, so a long scenario can run with a small cap.

use crate::Clock;
use std::collections::VecDeque;

/// The platform layer an event originates from; used for enable flags
/// and as the `subsystem` field of exported events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The managed runtime (`pmp-vm`).
    Vm,
    /// The weaver (`pmp-prose`).
    Prose,
    /// Extension distribution (`pmp-midas`).
    Midas,
    /// Registrar + leases (`pmp-discovery`).
    Discovery,
    /// The network simulator (`pmp-net`).
    Net,
    /// Platform facade and scenarios (`pmp-core`).
    Core,
    /// The benchmark harness (`pmp-bench`).
    Bench,
    /// The storage engine (`pmp-durable`).
    Durable,
}

impl Subsystem {
    /// Every subsystem, in export order.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::Vm,
        Subsystem::Prose,
        Subsystem::Midas,
        Subsystem::Discovery,
        Subsystem::Net,
        Subsystem::Core,
        Subsystem::Bench,
        Subsystem::Durable,
    ];

    /// The lowercase display name (`"vm"`, `"prose"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Vm => "vm",
            Subsystem::Prose => "prose",
            Subsystem::Midas => "midas",
            Subsystem::Discovery => "discovery",
            Subsystem::Net => "net",
            Subsystem::Core => "core",
            Subsystem::Bench => "bench",
            Subsystem::Durable => "durable",
        }
    }

    fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// One journal entry.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic sequence number (survives ring-buffer eviction).
    pub seq: u64,
    /// Sim-time stamp from the injected clock (0 without a clock).
    pub at: u64,
    /// Originating layer.
    pub subsystem: Subsystem,
    /// Event name, dot-scoped like metrics (`"midas.verify"`).
    pub name: String,
    /// Free-form detail (extension id, node, byte count, …).
    pub detail: String,
}

/// The ring-buffered event journal.
#[derive(Default)]
pub struct Journal {
    cap: usize,
    buf: VecDeque<Event>,
    mask: u32,
    seq: u64,
    dropped: u64,
    clock: Option<Clock>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("cap", &self.cap)
            .field("len", &self.buf.len())
            .field("seq", &self.seq)
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// An empty journal keeping at most `cap` events (all subsystems
    /// enabled).
    #[must_use]
    pub fn new(cap: usize) -> Journal {
        Journal {
            cap: cap.max(1),
            buf: VecDeque::new(),
            mask: u32::MAX,
            seq: 0,
            dropped: 0,
            clock: None,
        }
    }

    /// Installs the time source used to stamp events.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = Some(clock);
    }

    /// Current time from the injected clock (0 without one).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c())
    }

    /// Enables or disables journaling for one subsystem.
    pub fn set_enabled(&mut self, sub: Subsystem, on: bool) {
        if on {
            self.mask |= sub.bit();
        } else {
            self.mask &= !sub.bit();
        }
    }

    /// Whether `sub` is journaled.
    #[must_use]
    pub fn is_enabled(&self, sub: Subsystem) -> bool {
        self.mask & sub.bit() != 0
    }

    /// Appends a point event (dropped when `sub` is disabled).
    pub fn event(&mut self, sub: Subsystem, name: impl Into<String>, detail: impl Into<String>) {
        if !self.is_enabled(sub) {
            return;
        }
        let at = self.now();
        self.push(at, sub, name.into(), detail.into());
    }

    /// Appends a point event stamped with an explicit time instead of
    /// the injected clock. Used by execution drivers that buffer events
    /// per node cell during an epoch and merge them at the barrier in
    /// deterministic `(time, cell, seq)` order — each buffered event
    /// carries the cell-clock reading it was emitted at.
    pub fn event_at(
        &mut self,
        at: u64,
        sub: Subsystem,
        name: impl Into<String>,
        detail: impl Into<String>,
    ) {
        if !self.is_enabled(sub) {
            return;
        }
        self.push(at, sub, name.into(), detail.into());
    }

    fn push(&mut self, at: u64, sub: Subsystem, name: String, detail: String) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event {
            seq: self.seq,
            at,
            subsystem: sub,
            name,
            detail,
        });
        self.seq += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever journaled (retained + dropped).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.seq
    }

    /// Stable 64-bit FNV-1a digest over the journal's observable state:
    /// total/dropped counts plus every retained event's `(seq, at,
    /// subsystem, name, detail)`. Two runs are journal-identical iff
    /// their digests match (module hash collisions). Histogram *values*
    /// never enter the journal, so wall-clock-measured durations
    /// recorded via the registry don't perturb the digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        h.write_u64(self.seq);
        h.write_u64(self.dropped);
        for e in &self.buf {
            h.write_u64(e.seq);
            h.write_u64(e.at);
            h.write_str(e.subsystem.name());
            h.write_str(&e.name);
            h.write_str(&e.detail);
        }
        h.finish()
    }

    /// Forgets all events and resets the drop counter; the enable mask
    /// and clock survive.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.seq = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_events_are_sequenced() {
        let mut j = Journal::new(8);
        j.event(Subsystem::Vm, "a", "1");
        j.event(Subsystem::Net, "b", "2");
        let seqs: Vec<u64> = j.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(j.events().next().unwrap().at, 0, "no clock → at=0");
    }

    // -- Ring wraparound (satellite: telemetry coverage) --

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut j = Journal::new(3);
        for i in 0..10 {
            j.event(Subsystem::Core, format!("e{i}"), "");
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        assert_eq!(j.total(), 10);
        let names: Vec<&str> = j.events().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["e7", "e8", "e9"], "oldest evicted first");
        let seqs: Vec<u64> = j.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9], "sequence numbers survive eviction");
    }

    #[test]
    fn subsystem_flags_filter() {
        let mut j = Journal::new(8);
        j.set_enabled(Subsystem::Net, false);
        j.event(Subsystem::Net, "hidden", "");
        j.event(Subsystem::Vm, "shown", "");
        assert_eq!(j.len(), 1);
        assert_eq!(j.events().next().unwrap().name, "shown");
        assert!(!j.is_enabled(Subsystem::Net));
        j.set_enabled(Subsystem::Net, true);
        j.event(Subsystem::Net, "back", "");
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn subsystem_names_are_distinct() {
        let mut names: Vec<&str> = Subsystem::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Subsystem::ALL.len());
    }
}
