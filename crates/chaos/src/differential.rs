//! The differential-execution oracle for the weave-time optimizer.
//!
//! Bases always ship extension packages optimized
//! ([`pmp_midas::optimize_package`]); the soundness claim is that an
//! optimized advice body is *observationally identical* to the
//! authored one. Translation validation (re-running the stack-depth
//! verifier) proves the optimized body is well-formed; this oracle
//! proves it is *equivalent*: both bodies are executed method by
//! method against the same VM state and join-point argument battery,
//! and every observable — return value or error, host-side system
//! calls in order, aspect field state, session-blackboard state —
//! must match exactly.
//!
//! Heap references are compared opaquely (`<ref>`), since dead-code
//! elimination may legitimately change allocation order without
//! changing semantics.

use pmp_extensions::support::{register_session_blackboard, register_sink, Posted};
use pmp_midas::{optimize_package, ExtensionPackage};
use pmp_telemetry::sync::Mutex;
use pmp_vm::op::Op;
use pmp_vm::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything observable about one method invocation, rendered in a
/// heap-id-independent form.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    method: String,
    battery: usize,
    result: String,
    sys_calls: Vec<String>,
    fields: Vec<(String, String)>,
    session: Vec<(String, String)>,
}

/// Renders a value with heap references made opaque: DCE may remove a
/// dead allocation, shifting every later `ObjId`, without changing
/// observable behaviour.
fn canon(v: &Value) -> String {
    match v {
        Value::Ref(_) => "<ref>".to_string(),
        other => format!("{other:?}"),
    }
}

fn canon_result(r: &Result<Value, VmError>) -> String {
    match r {
        Ok(v) => format!("Ok({})", canon(v)),
        Err(e) => format!("Err({e})"),
    }
}

fn canon_posts(posts: &[Posted]) -> Vec<String> {
    posts
        .iter()
        .map(|p| {
            let args: Vec<String> = p.args.iter().map(canon).collect();
            format!("{}({})", p.op, args.join(", "))
        })
        .collect()
}

/// The per-type canonical argument used for non-advice methods.
fn default_arg(ty: &str) -> Value {
    match ty {
        "int" => Value::Int(1),
        "float" => Value::Float(1.0),
        "bool" => Value::Bool(true),
        "str" => Value::str("x"),
        _ => Value::Null,
    }
}

/// Executes every method of `pkg`'s aspect class in declaration order
/// against the advice-argument battery, returning the full observable
/// record. Both legs of the differential run through here.
fn run_all(pkg: &ExtensionPackage) -> Result<Vec<Outcome>, String> {
    let class = &pkg.aspect.class;
    let mut vm = Vm::new(VmConfig::default());

    // Host plumbing: one recording sink per system operation the class
    // references, plus the session blackboard (pre-seeded so the
    // access-control caller-check path executes) when it uses one.
    let mut sys_names: BTreeSet<String> = BTreeSet::new();
    for m in &class.methods {
        for op in &m.body.ops {
            if let Op::Sys { name, .. } = op {
                sys_names.insert(name.clone());
            }
        }
    }
    let uses_session = sys_names.iter().any(|n| n.starts_with("session."));
    let board = if uses_session {
        sys_names.retain(|n| !n.starts_with("session."));
        let board = register_session_blackboard(&mut vm);
        board.lock().insert("caller".into(), Value::str("op:1"));
        Some(board)
    } else {
        None
    };
    let sinks: Vec<(String, Arc<Mutex<Vec<Posted>>>)> = sys_names
        .iter()
        .map(|n| (n.clone(), register_sink(&mut vm, n, None)))
        .collect();

    let def = class
        .to_class_def()
        .map_err(|e| format!("{}: bad class: {e}", pkg.meta.id))?;
    vm.register_class(def)
        .map_err(|e| format!("{}: register: {e}", pkg.meta.id))?;
    let this = vm
        .new_object(&class.name)
        .map_err(|e| format!("{}: instantiate: {e}", pkg.meta.id))?;

    let snapshot_fields = |vm: &Vm| -> Vec<(String, String)> {
        let oid = this.as_ref_id().expect("aspect instance is a ref");
        class
            .fields
            .iter()
            .map(|(name, _)| {
                let v = vm
                    .get_field(oid, &class.name, name)
                    .map_or_else(|e| format!("<{e}>"), |v| canon(&v));
                (name.clone(), v)
            })
            .collect()
    };
    // register_session_blackboard hands back a HashMap; sort here so
    // the comparison is order-independent.
    let snapshot_board = || -> Vec<(String, String)> {
        match &board {
            None => Vec::new(),
            Some(b) => {
                let mut entries: Vec<(String, String)> = b
                    .lock()
                    .iter()
                    .map(|(k, v)| (k.clone(), canon(v)))
                    .collect();
                entries.sort();
                entries
            }
        }
    };

    let mut outcomes = Vec::new();
    for m in &class.methods {
        let mid = vm
            .method_id(&class.name, &m.name)
            .ok_or_else(|| format!("{}: method {} vanished", pkg.meta.id, m.name))?;
        // The 5-parameter advice convention gets a battery of
        // join-point-shaped argument tuples; everything else gets one
        // call with canonical per-type defaults.
        let batteries: Vec<Vec<Value>> = if m.params.len() == 5 {
            let args_a = vm.new_array(vec![Value::Int(5), Value::str("payload")]);
            let args_b = vm.new_array(vec![Value::Int(30)]);
            vec![
                vec![
                    Value::Null,
                    Value::str("Svc.op(int,str)"),
                    args_a,
                    Value::Int(7),
                    Value::Null,
                ],
                vec![
                    Value::str("entry"),
                    Value::str("Motor.rotate(int)"),
                    args_b,
                    Value::Null,
                    Value::str("reason"),
                ],
                vec![
                    Value::Null,
                    Value::str(""),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ],
            ]
        } else {
            vec![m.params.iter().map(|t| default_arg(t)).collect()]
        };
        for (battery, args) in batteries.into_iter().enumerate() {
            for (_, log) in &sinks {
                log.lock().clear();
            }
            let result = vm.invoke(mid, this.clone(), args);
            let mut sys_calls = Vec::new();
            for (_, log) in &sinks {
                sys_calls.extend(canon_posts(&log.lock()));
            }
            outcomes.push(Outcome {
                method: m.name.clone(),
                battery,
                result: canon_result(&result),
                sys_calls,
                fields: snapshot_fields(&vm),
                session: snapshot_board(),
            });
        }
    }
    Ok(outcomes)
}

/// Differentially executes `pkg` against its optimized form: every
/// method, every argument battery, every observable must agree.
///
/// # Errors
///
/// A human-readable description of the first divergence (or of an
/// optimization that failed translation validation).
pub fn differential_check(pkg: &ExtensionPackage) -> Result<(), String> {
    let (optimized, report) = optimize_package(pkg);
    if !report.all_validated() {
        return Err(format!(
            "{}: optimized package failed translation validation:\n{report}",
            pkg.meta.id
        ));
    }
    let original = run_all(pkg)?;
    let opt = run_all(&optimized)?;
    if original.len() != opt.len() {
        return Err(format!(
            "{}: outcome counts diverge: {} vs {}",
            pkg.meta.id,
            original.len(),
            opt.len()
        ));
    }
    for (a, b) in original.iter().zip(&opt) {
        if a != b {
            return Err(format!(
                "{}: divergence at {}#{}:\n  original:  {a:?}\n  optimized: {b:?}",
                pkg.meta.id, a.method, a.battery
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{ExtKind, ALL_KINDS};

    #[test]
    fn all_chaos_extension_kinds_pass_differential() {
        for kind in ALL_KINDS {
            for version in [1, 2] {
                let pkg = kind.package(version);
                differential_check(&pkg)
                    .unwrap_or_else(|e| panic!("{kind:?} v{version}: {e}"));
            }
        }
    }

    #[test]
    fn every_shipped_package_passes_differential() {
        use pmp_extensions as ext;
        let packages = [
            ext::monitoring::package(1),
            ext::session::package("* DrawingService.*(..)", 1),
            ext::access_control::package("* DrawingService.*(..)", &["op:1"], 1),
            ext::encryption::package(0x42, 1),
            ext::geofence::package(0, 0, 30, 30, 1),
            ext::billing::package("* Motor.*(..)", 2, 1),
            ext::persistence::package("Robot.state", 1),
            ext::transactions::package("* Svc.tx*(..)", "Svc", &["a", "b"], 1),
            ext::agegate::package("* Svc.*(..)", 1_000, 1),
            ext::replication::package(1),
        ];
        for pkg in &packages {
            differential_check(pkg).unwrap_or_else(|e| panic!("{}: {e}", pkg.meta.id));
        }
    }

    #[test]
    fn a_semantics_changing_rewrite_is_caught() {
        // Sanity-check the oracle itself: hand it a "pretend optimized"
        // package by comparing two packages whose advice differs, via
        // the internal runner.
        let a = ExtKind::Billing.package(1);
        let mut b = a.clone();
        // Billing counts one unit per call; double it and the field
        // snapshot after the first battery must diverge.
        for m in &mut b.aspect.class.methods {
            for op in &mut m.body.ops {
                if let Op::Const(pmp_vm::op::Const::Int(n)) = op {
                    *n *= 2;
                }
            }
        }
        let ra = run_all(&a).unwrap();
        let rb = run_all(&b).unwrap();
        assert_ne!(ra, rb, "runner failed to observe a semantic change");
    }
}
