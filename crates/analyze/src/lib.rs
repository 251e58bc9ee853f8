//! # pmp-analyze — static analysis of extension bytecode
//!
//! The paper's MIDAS admits extensions on cryptographic trust alone: a
//! valid signature from a trusted hall authority is enough to weave the
//! shipped advice into the live VM. On the JVM the built-in bytecode
//! verifier still stands behind that decision; our VM has no such
//! verifier, so a signed-but-buggy advice body could underflow the
//! operand stack, jump out of bounds, loop forever, or silently use
//! permissions it never declared. This crate supplies the missing
//! admission-time checks as a pipeline of passes over the *portable*
//! form of an extension ([`pmp_prose::PortableAspect`]), run by
//! `midas::receiver` between signature verification and weaving:
//!
//! 1. [`verifier`] — an abstract-interpretation bytecode verifier:
//!    per-instruction stack-effect simulation computing the operand
//!    stack depth at every pc, checking underflow/overflow, jump
//!    targets, merge-point consistency, local-slot bounds, call-arity
//!    consistency, and that execution cannot fall off the end.
//! 2. [`perms`] — permission inference: the least
//!    [`pmp_vm::perm::Permissions`] set the advice can require, derived
//!    from the sys ops reachable from its advice entry points; packages
//!    whose declared permissions do not cover the inferred set are
//!    rejected.
//! 3. [`termination`] — back-edge detection: loops are flagged, fatally
//!    when no fuel budget will bound them at run time.
//! 4. Aspect interference — computed *after* weaving by
//!    `pmp_prose::interference` on the live dispatch tables (two active
//!    aspects writing the same field, or advising the same join point
//!    with equal priority); [`interference`] converts those reports
//!    into [`Finding`]s so the whole pipeline speaks one language.
//!
//! Every pass emits structured [`Finding`]s; the receiver's policy maps
//! a [`Severity`] threshold to accept/reject.
//!
//! Beyond admission, the crate also houses the *weave-time optimizer*
//! ([`opt`], over [`mod@cfg`] and [`lattice`]): after a package passes the
//! gate, the base may run interprocedural constant propagation,
//! dead-code elimination, CHA devirtualisation, and hook-check
//! hoisting over the advice bodies, re-verifying the optimized result
//! with the same [`verifier`] (translation validation) before shipping.

pub mod cfg;
pub mod interference;
pub mod lattice;
pub mod opt;
pub mod perms;
pub mod termination;
pub mod verifier;

use pmp_prose::PortableAspect;
use pmp_vm::perm::{Permission, Permissions};
use std::fmt;

/// How bad a finding is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational; never blocks admission.
    Info,
    /// Suspicious but survivable (e.g. a sys op unknown on this node).
    Warning,
    /// The package is unsafe to weave (underflow, bad jump,
    /// undeclared permission, ...).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which analysis pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// The abstract-interpretation bytecode verifier.
    Bytecode,
    /// Permission inference vs the declared permission set.
    Permissions,
    /// Back-edge / fuel-bound analysis.
    Termination,
    /// Aspect-interference analysis (post-weave, from `pmp-prose`).
    Interference,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pass::Bytecode => "bytecode-verifier",
            Pass::Permissions => "permission-inference",
            Pass::Termination => "termination",
            Pass::Interference => "interference",
        })
    }
}

/// One diagnostic from one pass, anchored to a method and (when it
/// concerns a specific instruction) a pc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Which pass found it.
    pub pass: Pass,
    /// The method the finding is about (empty for aspect-level
    /// findings such as permission coverage).
    pub method: String,
    /// The instruction it anchors to, if any.
    pub pc: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.pass)?;
        if !self.method.is_empty() {
            write!(f, ": {}", self.method)?;
        }
        if let Some(pc) = self.pc {
            write!(f, " @{pc}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl Finding {
    /// Shorthand constructor used by the passes.
    pub(crate) fn new(
        severity: Severity,
        pass: Pass,
        method: impl Into<String>,
        pc: Option<usize>,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            severity,
            pass,
            method: method.into(),
            pc,
            message: message.into(),
        }
    }
}

/// What the receiving node knows about one named sys op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysPerm {
    /// Registered, no permission gate.
    Unguarded,
    /// Registered behind this permission.
    Guarded(Permission),
    /// Not registered on this node.
    Unknown,
}

/// Resolves sys-op names to the permission (if any) gating them on the
/// receiving VM. `midas::receiver` backs this with the VM's
/// `SysRegistry`; tests can use a closure.
pub trait SysResolver {
    /// Looks up one sys-op name.
    fn lookup(&self, name: &str) -> SysPerm;
}

impl<F: Fn(&str) -> SysPerm> SysResolver for F {
    fn lookup(&self, name: &str) -> SysPerm {
        self(name)
    }
}

/// A resolver that knows no sys ops at all (every op is [`SysPerm::Unknown`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSysOps;

impl SysResolver for NoSysOps {
    fn lookup(&self, _name: &str) -> SysPerm {
        SysPerm::Unknown
    }
}

/// Tunables for the static passes.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOptions {
    /// Maximum permitted operand-stack depth.
    pub max_stack: usize,
    /// Whether advice will run under a finite fuel budget (true for
    /// everything `midas::receiver` weaves). Back-edges are fatal
    /// without one.
    pub fueled: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        Self {
            max_stack: 256,
            fueled: true,
        }
    }
}

/// The combined result of the static (pre-weave) passes.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All findings, in pass order.
    pub findings: Vec<Finding>,
    /// The least permission set the aspect can require (pass 2).
    pub required: Permissions,
}

impl AnalysisReport {
    /// The worst severity present, if any finding exists.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// The first finding at or above `threshold` — the one a rejection
    /// message should name.
    pub fn first_at(&self, threshold: Severity) -> Option<&Finding> {
        self.findings.iter().find(|f| f.severity >= threshold)
    }

    /// Does the report demand rejection under `threshold`?
    pub fn rejects(&self, threshold: Severity) -> bool {
        self.first_at(threshold).is_some()
    }
}

/// Runs the three static passes over one portable aspect with its
/// declared permission set. This is the convenience entry point; the
/// receiver calls the passes individually so it can time each one.
pub fn analyze_aspect(
    aspect: &PortableAspect,
    declared: Permissions,
    resolver: &dyn SysResolver,
    opts: &AnalyzeOptions,
) -> AnalysisReport {
    let mut findings = verifier::verify_class(&aspect.class, opts);
    let inference = perms::check_permissions(aspect, declared, resolver);
    let required = inference.required;
    findings.extend(inference.findings);
    findings.extend(termination::check_class(&aspect.class, opts));
    AnalysisReport { findings, required }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_warning_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(
            [Severity::Error, Severity::Info, Severity::Warning]
                .into_iter()
                .max(),
            Some(Severity::Error)
        );
    }

    #[test]
    fn finding_display_names_pass_and_pc() {
        let f = Finding::new(
            Severity::Error,
            Pass::Bytecode,
            "onCall",
            Some(3),
            "operand stack underflow",
        );
        let s = f.to_string();
        assert!(s.contains("bytecode-verifier"));
        assert!(s.contains("@3"));
        assert!(s.contains("underflow"));
    }
}
