//! Configurable invocation semantics for remote service calls.
//!
//! The paper's RPC layer (§4.4) assumes one implicit semantic: fire a
//! call, hope the radio cooperates. A hall with 20%+ link loss needs
//! the classic spectrum instead — selectable per call, as policy over
//! one mechanism. Every call goes through the caller base's
//! [`RpcEngine`] and executes through the same server arm:
//!
//! * **Maybe** — one transmission, no retries, no dedup. The engine
//!   tracks the call in memory only (no WAL record, not in the
//!   snapshot) and arms one timer at [`backoff_delay`]`(req, 1)`; an
//!   unanswered call expires there silently, with no outcome. A crash
//!   forgets it, which the semantics allow.
//! * **At-least-once** — the caller's base retransmits on a
//!   deterministic exponential-backoff schedule until a reply arrives
//!   or the attempt budget is exhausted. The server executes every
//!   arriving copy; duplicate executions are the accepted cost.
//! * **At-most-once** — retransmission as above, plus a bounded
//!   server-side dedup table (request id → cached reply, FIFO
//!   eviction) that filters duplicates and replays the cached reply.
//!   The table is persisted through [`pmp_durable::Durable`], so a
//!   crash → restart never double-executes a call.
//!
//! Only an outstanding call produces an outcome: the first reply
//! resolves it, and every other reply (a late duplicate from
//! retransmission, an answer to an expired maybe call) is dropped.
//!
//! Three pieces live here: [`RpcEngine`] (caller side, owned by a base
//! station; retransmitting calls durable under `"rpc.calls"`),
//! [`RpcServer`] (server side, owned by a mobile node; dedup table
//! durable under `"rpc.dedup"`), and [`backoff_delay`] (the pure retry
//! schedule — simulated time only, never the wall clock, so every cell
//! order computes the same schedule from the same inputs).

use pmp_durable::{Durable, DurableError, NamespaceHandle};
use pmp_net::SimRng;
use pmp_wire::{Reader, Wire, WireError, Writer};
use std::collections::{BTreeMap, VecDeque};

/// Durable namespace of the caller-side call table.
pub const RPC_CALLS_NAMESPACE: &str = "rpc.calls";
/// Durable namespace of the server-side dedup table.
pub const RPC_DEDUP_NAMESPACE: &str = "rpc.dedup";
/// Timer tag for retransmission timers armed by the engine.
pub const RPC_RETRY_TAG: &str = "rpc.retry";

/// The delivery/execution guarantee requested for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InvocationSemantics {
    /// One transmission, no retries, no filtering.
    Maybe,
    /// Retransmit until acknowledged; the server filters duplicates
    /// through its dedup table and replays the cached reply.
    AtMostOnce,
    /// Retransmit until acknowledged; the server executes every copy.
    AtLeastOnce,
}

impl InvocationSemantics {
    /// Stable lowercase name, used in observables and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InvocationSemantics::Maybe => "maybe",
            InvocationSemantics::AtMostOnce => "at-most-once",
            InvocationSemantics::AtLeastOnce => "at-least-once",
        }
    }
}

impl std::fmt::Display for InvocationSemantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Wire for InvocationSemantics {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            InvocationSemantics::Maybe => 0,
            InvocationSemantics::AtMostOnce => 1,
            InvocationSemantics::AtLeastOnce => 2,
        });
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(InvocationSemantics::Maybe),
            1 => Ok(InvocationSemantics::AtMostOnce),
            2 => Ok(InvocationSemantics::AtLeastOnce),
            tag => Err(r.bad_tag("InvocationSemantics", tag)),
        }
    }
}

/// First-attempt timeout in simulated nanoseconds (150 ms, well above
/// the ~1 ms link round trip). Later attempts double it
/// ([`backoff_delay`]).
pub const RPC_TIMEOUT_NS: u64 = 150_000_000;
/// Total transmission budget (the initial send counts as attempt 1);
/// exhaustion resolves the call as a failed outcome.
pub const RPC_MAX_ATTEMPTS: u32 = 8;
/// Ceiling on any single backoff delay (2 s).
pub const RPC_BACKOFF_CAP_NS: u64 = 2_000_000_000;
/// Upper bound on the deterministic per-attempt jitter added to the
/// exponential schedule (10 ms; decorrelates retry bursts).
pub const RPC_JITTER_NS: u64 = 10_000_000;
/// Capacity of each mobile node's dedup table (FIFO eviction).
pub const RPC_DEDUP_CAP: usize = 256;

/// The retransmission delay before attempt `attempt + 1`, given that
/// `attempt` transmissions have already happened (`attempt >= 1`).
///
/// Pure function of `(req, attempt)`: exponential doubling from
/// [`RPC_TIMEOUT_NS`], capped at [`RPC_BACKOFF_CAP_NS`], plus splitmix
/// jitter below [`RPC_JITTER_NS`] seeded from the request id and
/// attempt counter. No wall clock, no shared RNG — any cell order and
/// a crash-restarted base compute the identical schedule.
#[must_use]
pub fn backoff_delay(req: u64, attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(20);
    let base = RPC_TIMEOUT_NS
        .saturating_mul(1u64 << shift)
        .min(RPC_BACKOFF_CAP_NS);
    let mut rng = SimRng::new(req.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt));
    base.saturating_add(rng.range_u64(RPC_JITTER_NS))
}

/// One outstanding (unresolved) call in the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingCall {
    /// Destination node id (raw `NodeId.0`).
    pub target: u32,
    /// Requested semantics. A `Maybe` call is memory-only: it is never
    /// logged, snapshotted or retransmitted.
    pub sem: InvocationSemantics,
    /// Caller identity.
    pub caller: String,
    /// Service class name.
    pub class: String,
    /// Method name.
    pub method: String,
    /// Integer arguments.
    pub args: Vec<i64>,
    /// Transmissions so far (1 = only the initial send).
    pub attempts: u32,
    /// Simulated time the call was issued, for latency histograms.
    pub issued_at: u64,
}

impl PendingCall {
    /// The wire frame of this call's latest attempt.
    pub(crate) fn frame(&self, req: u64) -> crate::wiring::RpcMsg {
        crate::wiring::RpcMsg::CallSem {
            caller: self.caller.clone(),
            class: self.class.clone(),
            method: self.method.clone(),
            args: self.args.clone(),
            req,
            sem: self.sem,
            attempt: self.attempts,
        }
    }
}

impl Wire for PendingCall {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.target);
        self.sem.encode(w);
        w.put_str(&self.caller);
        w.put_str(&self.class);
        w.put_str(&self.method);
        self.args.encode(w);
        w.put_u32(self.attempts);
        w.put_u64(self.issued_at);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(PendingCall {
            target: r.get_u32()?,
            sem: InvocationSemantics::decode(r)?,
            caller: r.get_str()?,
            class: r.get_str()?,
            method: r.get_str()?,
            args: Vec::<i64>::decode(r)?,
            attempts: r.get_u32()?,
            issued_at: r.get_u64()?,
        })
    }
}

/// WAL operations of the caller-side call table.
#[derive(Debug, Clone, PartialEq)]
enum CallOp {
    /// A new call was issued (attempt 1 sent).
    Issue { req: u64, call: PendingCall },
    /// One retransmission happened.
    Attempt { req: u64 },
    /// The call resolved (reply, or budget exhausted).
    Resolve { req: u64 },
}

impl Wire for CallOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            CallOp::Issue { req, call } => {
                w.put_u8(0);
                w.put_u64(*req);
                call.encode(w);
            }
            CallOp::Attempt { req } => {
                w.put_u8(1);
                w.put_u64(*req);
            }
            CallOp::Resolve { req } => {
                w.put_u8(2);
                w.put_u64(*req);
            }
        }
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => CallOp::Issue {
                req: r.get_u64()?,
                call: PendingCall::decode(r)?,
            },
            1 => CallOp::Attempt { req: r.get_u64()? },
            2 => CallOp::Resolve { req: r.get_u64()? },
            tag => return Err(r.bad_tag("CallOp", tag)),
        })
    }
}

/// Caller-side call table of one base station.
///
/// Tracks every call issued through this base: the outstanding set
/// drives the timers (retransmission, or a maybe call's expiry), and
/// a reply produces an outcome only while its call is outstanding.
/// Retransmitting calls (`AtMostOnce`/`AtLeastOnce`) are durable, so a
/// crash → restart resumes retrying with the *same* request ids (the
/// server's dedup table then makes resumption safe for at-most-once
/// calls); `Maybe` calls live in memory only. Timer tokens are
/// deliberately *not* durable: [`RpcEngine::rearm_tokens`] hands the
/// restart path the outstanding set so the platform can arm fresh
/// timers.
#[derive(Debug, Default)]
pub struct RpcEngine {
    calls: BTreeMap<u64, PendingCall>,
    /// Live timer token → request id (rebuilt after restart).
    timers: BTreeMap<u64, u64>,
    handle: Option<NamespaceHandle>,
    /// Retries sent (telemetry; not durable).
    pub retries: u64,
    /// Calls that exhausted their budget (telemetry; not durable).
    pub exhausted: u64,
}

/// Whether a call belongs in the WAL and the snapshot: only calls that
/// retransmit have anything to resume after a crash.
fn durable(call: &PendingCall) -> bool {
    call.sem != InvocationSemantics::Maybe
}

impl RpcEngine {
    /// A fresh engine. Call [`RpcEngine::attach`] before issuing.
    #[must_use]
    pub fn new() -> RpcEngine {
        RpcEngine::default()
    }

    /// Wires the engine to its WAL namespace.
    pub fn attach(&mut self, handle: NamespaceHandle) {
        self.handle = Some(handle);
    }

    fn log(&self, op: &CallOp) {
        if let Some(h) = &self.handle {
            h.append(pmp_wire::to_bytes(op));
        }
    }

    /// Records a freshly-issued call (the initial transmission is
    /// attempt 1; the caller sends it and arms the first timer).
    pub fn issue(&mut self, req: u64, call: PendingCall) {
        if durable(&call) {
            self.log(&CallOp::Issue {
                req,
                call: call.clone(),
            });
        }
        self.calls.insert(req, call);
    }

    /// Records one retransmission; returns the new attempt count, or
    /// `None` if the call is no longer outstanding.
    pub fn note_attempt(&mut self, req: u64) -> Option<u32> {
        let call = self.calls.get_mut(&req)?;
        call.attempts += 1;
        let attempts = call.attempts;
        self.log(&CallOp::Attempt { req });
        self.retries += 1;
        Some(attempts)
    }

    /// Resolves `req` (first reply, budget exhausted, or a maybe call's
    /// expiry). Returns the call if it was outstanding; `None` means a
    /// duplicate, expired or unknown id, which the caller must ignore.
    pub fn resolve(&mut self, req: u64) -> Option<PendingCall> {
        let call = self.calls.remove(&req)?;
        if durable(&call) {
            self.log(&CallOp::Resolve { req });
        }
        Some(call)
    }

    /// The outstanding call for `req`, if any.
    #[must_use]
    pub fn get(&self, req: u64) -> Option<&PendingCall> {
        self.calls.get(&req)
    }

    /// Number of outstanding calls (the soak memory oracle bounds it).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.calls.len()
    }

    /// Outstanding request ids in ascending order — the restart path
    /// iterates this to arm fresh retransmission timers.
    #[must_use]
    pub fn rearm_tokens(&self) -> Vec<u64> {
        self.calls.keys().copied().collect()
    }

    /// Associates a live timer token with `req`.
    pub fn arm(&mut self, token: u64, req: u64) {
        self.timers.insert(token, req);
    }

    /// Consumes a fired timer token; returns the request it was
    /// armed for, or `None` for foreign/stale tokens.
    pub fn take_timer(&mut self, token: u64) -> Option<u64> {
        self.timers.remove(&token)
    }
}

impl Durable for RpcEngine {
    fn namespace(&self) -> &'static str {
        RPC_CALLS_NAMESPACE
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let n = self.calls.values().filter(|c| durable(c)).count();
        w.put_u32(n as u32);
        for (req, call) in self.calls.iter().filter(|(_, c)| durable(c)) {
            w.put_u64(*req);
            call.encode(&mut w);
        }
        w.into_bytes()
    }

    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let mut r = Reader::new(bytes);
        let n = r.get_u32()?;
        let mut calls = BTreeMap::new();
        for _ in 0..n {
            let req = r.get_u64()?;
            calls.insert(req, PendingCall::decode(&mut r)?);
        }
        self.calls = calls;
        self.timers.clear();
        Ok(())
    }

    fn apply_record(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        match pmp_wire::from_bytes::<CallOp>(payload)? {
            CallOp::Issue { req, call } => {
                self.calls.insert(req, call);
            }
            CallOp::Attempt { req } => {
                if let Some(c) = self.calls.get_mut(&req) {
                    c.attempts += 1;
                }
            }
            CallOp::Resolve { req } => {
                self.calls.remove(&req);
            }
        }
        Ok(())
    }
}

/// WAL operation of the server-side dedup table (insert-only; FIFO
/// eviction is derived from capacity, not logged).
#[derive(Debug, Clone, PartialEq)]
struct DedupInsert {
    req: u64,
    ok: bool,
    value: String,
}

impl Wire for DedupInsert {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.req);
        w.put_bool(self.ok);
        w.put_str(&self.value);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(DedupInsert {
            req: r.get_u64()?,
            ok: r.get_bool()?,
            value: r.get_str()?,
        })
    }
}

/// Bounded request-id → cached-reply table (server side).
///
/// At-most-once execution hinges on this table: an arriving duplicate
/// whose id is present is answered from the cache without touching the
/// service object. Capacity-bounded with FIFO eviction — the soak
/// memory oracle asserts `len() <= cap()` forever — and durable, so a
/// node that moves its state through a crash/restart still refuses to
/// re-execute calls it already ran.
#[derive(Debug)]
pub struct DedupTable {
    cap: usize,
    order: VecDeque<u64>,
    replies: BTreeMap<u64, (bool, String)>,
    /// Duplicate hits answered from cache (telemetry; not durable).
    pub hits: u64,
}

impl DedupTable {
    /// A table holding at most `cap` cached replies.
    #[must_use]
    pub fn new(cap: usize) -> DedupTable {
        DedupTable {
            cap: cap.max(1),
            order: VecDeque::new(),
            replies: BTreeMap::new(),
            hits: 0,
        }
    }

    /// The cached reply for `req`, if present.
    #[must_use]
    pub fn lookup(&self, req: u64) -> Option<&(bool, String)> {
        self.replies.get(&req)
    }

    /// Caches the reply for `req`, evicting the oldest entry at
    /// capacity. Re-inserting an existing id refreshes the value but
    /// not its eviction position.
    pub fn insert(&mut self, req: u64, ok: bool, value: String) {
        if self.replies.insert(req, (ok, value)).is_none() {
            self.order.push_back(req);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.replies.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty()
    }

    /// The capacity bound.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }
}

impl Durable for DedupTable {
    fn namespace(&self) -> &'static str {
        RPC_DEDUP_NAMESPACE
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        // FIFO order *is* state: eviction depends on it.
        let mut w = Writer::new();
        w.put_u32(self.order.len() as u32);
        for req in &self.order {
            let (ok, value) = &self.replies[req];
            w.put_u64(*req);
            w.put_bool(*ok);
            w.put_str(value);
        }
        w.into_bytes()
    }

    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let mut r = Reader::new(bytes);
        let n = r.get_u32()?;
        let mut order = VecDeque::with_capacity(n as usize);
        let mut replies = BTreeMap::new();
        for _ in 0..n {
            let req = r.get_u64()?;
            let ok = r.get_bool()?;
            let value = r.get_str()?;
            order.push_back(req);
            replies.insert(req, (ok, value));
        }
        self.order = order;
        self.replies = replies;
        Ok(())
    }

    fn apply_record(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        let op = pmp_wire::from_bytes::<DedupInsert>(payload)?;
        self.insert(op.req, op.ok, op.value);
        Ok(())
    }
}

/// Server-side RPC state of one mobile node: the dedup table plus an
/// execution ledger the duplicate-execution oracle reads.
#[derive(Debug)]
pub struct RpcServer {
    /// The at-most-once dedup table.
    pub dedup: DedupTable,
    /// req → (semantics, executions). Grows with distinct requests —
    /// instrumentation for tests and oracles, like
    /// [`crate::MobileNode`]'s receiver-event ledger, not product
    /// state.
    exec: BTreeMap<u64, (InvocationSemantics, u32)>,
}

impl Default for RpcServer {
    fn default() -> Self {
        RpcServer::new(RPC_DEDUP_CAP)
    }
}

impl RpcServer {
    /// A server with a dedup table of `dedup_cap` entries.
    #[must_use]
    pub fn new(dedup_cap: usize) -> RpcServer {
        RpcServer {
            dedup: DedupTable::new(dedup_cap),
            exec: BTreeMap::new(),
        }
    }

    /// Records one actual execution of `req`.
    pub fn note_execution(&mut self, req: u64, sem: InvocationSemantics) {
        let e = self.exec.entry(req).or_insert((sem, 0));
        e.1 += 1;
    }

    /// WAL payload for a cached reply (the host appends it through the
    /// node's durable hub when one exists).
    #[must_use]
    pub fn dedup_record(req: u64, ok: bool, value: &str) -> Vec<u8> {
        pmp_wire::to_bytes(&DedupInsert {
            req,
            ok,
            value: value.to_string(),
        })
    }

    /// Times `req` was executed.
    #[must_use]
    pub fn executions(&self, req: u64) -> u32 {
        self.exec.get(&req).map_or(0, |e| e.1)
    }

    /// Total *duplicate* executions of at-most-once requests — the
    /// `rpc-duplicate-execution` oracle asserts this stays zero.
    #[must_use]
    pub fn duplicate_at_most_once_executions(&self) -> u64 {
        self.exec
            .values()
            .filter(|(sem, _)| *sem == InvocationSemantics::AtMostOnce)
            .map(|(_, n)| u64::from(n.saturating_sub(1)))
            .sum()
    }

    /// Distinct requests executed at least once, per semantics.
    #[must_use]
    pub fn delivered(&self, sem: InvocationSemantics) -> u64 {
        self.exec
            .values()
            .filter(|(s, n)| *s == sem && *n >= 1)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_durable::DurableHub;

    #[test]
    fn semantics_roundtrip_on_the_wire() {
        for sem in [
            InvocationSemantics::Maybe,
            InvocationSemantics::AtMostOnce,
            InvocationSemantics::AtLeastOnce,
        ] {
            let bytes = pmp_wire::to_bytes(&sem);
            assert_eq!(
                pmp_wire::from_bytes::<InvocationSemantics>(&bytes).unwrap(),
                sem
            );
        }
        assert!(pmp_wire::from_bytes::<InvocationSemantics>(&[3]).is_err());
    }

    #[test]
    fn backoff_is_pure_exponential_and_capped() {
        for req in [1u64, 17, 900] {
            for attempt in 1..=12u32 {
                let a = backoff_delay(req, attempt);
                let b = backoff_delay(req, attempt);
                assert_eq!(a, b, "schedule must be pure");
                assert!(a >= RPC_TIMEOUT_NS);
                assert!(a <= RPC_BACKOFF_CAP_NS + RPC_JITTER_NS);
            }
        }
        // Doubling dominates the jitter for early attempts.
        let d1 = backoff_delay(5, 1);
        let d3 = backoff_delay(5, 3);
        assert!(d3 > d1);
    }

    #[test]
    fn dedup_table_is_fifo_bounded() {
        let mut t = DedupTable::new(3);
        for req in 0..5u64 {
            t.insert(req, true, format!("v{req}"));
        }
        assert_eq!(t.len(), 3);
        assert!(t.lookup(0).is_none(), "oldest entries evicted");
        assert!(t.lookup(1).is_none());
        assert_eq!(t.lookup(4).unwrap().1, "v4");
    }

    #[test]
    fn dedup_table_survives_crash_recover() {
        let hub = DurableHub::new();
        let mut t = DedupTable::new(8);
        let h = hub.namespace(RPC_DEDUP_NAMESPACE);
        for req in 1..=4u64 {
            t.insert(req, true, format!("r{req}"));
            h.append(RpcServer::dedup_record(req, true, &format!("r{req}")));
        }
        hub.commit();
        let digest = t.state_digest();
        hub.crash();
        let mut restored = DedupTable::new(8);
        hub.recover(&mut [&mut restored]);
        assert_eq!(restored.state_digest(), digest);
        assert_eq!(restored.lookup(3).unwrap().1, "r3");
    }

    #[test]
    fn engine_walks_through_issue_attempt_resolve() {
        let hub = DurableHub::new();
        let mut e = RpcEngine::new();
        e.attach(hub.namespace(RPC_CALLS_NAMESPACE));
        let call = PendingCall {
            target: 3,
            sem: InvocationSemantics::AtMostOnce,
            caller: "op".into(),
            class: "DrawingService".into(),
            method: "moveTo".into(),
            args: vec![1, 2],
            attempts: 1,
            issued_at: 10,
        };
        let maybe = PendingCall {
            sem: InvocationSemantics::Maybe,
            ..call.clone()
        };
        e.issue(42, call);
        assert!(e.get(42).is_some());
        assert_eq!(e.note_attempt(42), Some(2));
        let digest = e.state_digest();
        // A maybe call is tracked in memory only: outstanding, but in
        // neither the snapshot nor the WAL.
        e.issue(43, maybe);
        assert!(e.get(43).is_some());
        assert_eq!(e.state_digest(), digest);
        hub.commit();

        // WAL replay rebuilds the same state, without the maybe call.
        hub.crash();
        let mut r = RpcEngine::new();
        hub.recover(&mut [&mut r]);
        assert_eq!(r.state_digest(), digest);
        assert_eq!(r.get(42).unwrap().attempts, 2);
        assert!(r.get(43).is_none());
        assert_eq!(r.outstanding(), 1);

        // Resolution removes: a second resolve surfaces nothing, which
        // is how a late reply for 42 is dropped.
        assert!(r.resolve(42).is_some());
        assert!(r.resolve(42).is_none(), "double resolve is filtered");
        assert!(r.get(42).is_none());
        assert_eq!(r.outstanding(), 0);
    }

    #[test]
    fn server_ledger_counts_duplicates() {
        let mut s = RpcServer::new(4);
        s.note_execution(1, InvocationSemantics::AtMostOnce);
        s.note_execution(2, InvocationSemantics::AtLeastOnce);
        s.note_execution(2, InvocationSemantics::AtLeastOnce);
        assert_eq!(s.duplicate_at_most_once_executions(), 0);
        s.note_execution(1, InvocationSemantics::AtMostOnce);
        assert_eq!(s.duplicate_at_most_once_executions(), 1);
        assert_eq!(s.delivered(InvocationSemantics::AtLeastOnce), 1);
    }

    // -- Seeded property suites: each case is one `SimRng` seed, so a
    // failing case reproduces exactly from the seed in its message. --

    /// Seeded cases per property (proptest's default case count).
    const CASES: u64 = 256;

    /// Under arbitrary retry/loss/crash interleavings — duplicate
    /// arrivals in any order, crash/recover at any point — an
    /// at-most-once request is executed at most once, as long as the
    /// dedup table has capacity for the distinct ids in flight.
    #[test]
    fn dedup_never_reexecutes() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let hub = DurableHub::new();
            let mut server = RpcServer::new(16);
            let h = hub.namespace(RPC_DEDUP_NAMESPACE);
            let mut executions = [0u32; 8];
            for _ in 0..1 + rng.range_u64(63) {
                // 4:1 arrivals (possibly duplicate copies of one of
                // eight calls) to crash → recover from the WAL.
                if rng.range_u64(5) < 4 {
                    let idx = rng.range_u64(8) as usize;
                    let req = 100 + idx as u64;
                    if server.dedup.lookup(req).is_none() {
                        executions[idx] += 1;
                        server.note_execution(req, InvocationSemantics::AtMostOnce);
                        server.dedup.insert(req, true, format!("v{idx}"));
                        h.append(RpcServer::dedup_record(req, true, &format!("v{idx}")));
                        hub.commit();
                    } else {
                        server.dedup.hits += 1;
                    }
                } else {
                    hub.crash();
                    let mut fresh = DedupTable::new(16);
                    hub.recover(&mut [&mut fresh]);
                    assert_eq!(
                        fresh.state_digest(),
                        server.dedup.state_digest(),
                        "seed {seed}: recovery lost dedup state"
                    );
                    server.dedup = fresh;
                }
            }
            for n in executions {
                assert!(n <= 1, "seed {seed}: at-most-once executed {n} times");
            }
            assert_eq!(server.duplicate_at_most_once_executions(), 0, "seed {seed}");
        }
    }

    /// The backoff schedule is a pure function of its inputs: no wall
    /// clock, no hidden state, and bounded by the first timeout below
    /// and cap + jitter above.
    #[test]
    fn backoff_is_deterministic() {
        let mut rng = SimRng::new(0xB0FF);
        for _ in 0..CASES {
            let req = rng.next_u64();
            let attempt = 1 + rng.range_u64(15) as u32;
            let a = backoff_delay(req, attempt);
            assert_eq!(
                a,
                backoff_delay(req, attempt),
                "req {req} attempt {attempt}"
            );
            assert!(a >= RPC_TIMEOUT_NS, "req {req} attempt {attempt}");
            assert!(
                a <= RPC_BACKOFF_CAP_NS + RPC_JITTER_NS,
                "req {req} attempt {attempt}"
            );
        }
    }
}
