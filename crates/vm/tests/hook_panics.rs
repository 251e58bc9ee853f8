//! Hook-dispatch panic containment.
//!
//! Advice is foreign code woven into the VM at runtime. A panic inside
//! a dispatcher callback must surface as a `VmError` on the intercepted
//! call — the same contract as advice returning `Err` — and must leave
//! the VM able to serve further calls. Before this conversion a buggy
//! extension could unwind straight through the interpreter and take the
//! whole simulated node — and the platform pumping it — down with it.

use pmp_vm::hooks::{Dispatcher, Outcome, HOOK_ENTRY, HOOK_EXIT, HOOK_SET};
use pmp_vm::prelude::*;
use pmp_vm::VmException;
use std::sync::Arc;

/// Panics inside exactly one callback, chosen at construction.
struct Bomb {
    site: &'static str,
}

impl Bomb {
    fn arm(site: &'static str) -> Arc<Self> {
        Arc::new(Self { site })
    }
    fn maybe_blow(&self, site: &'static str) {
        if self.site == site {
            panic!("{site} boom");
        }
    }
}

impl Dispatcher for Bomb {
    fn method_entry(
        &self,
        _vm: &mut Vm,
        _mid: MethodId,
        _this: &Value,
        _args: &mut Vec<Value>,
    ) -> Result<(), VmError> {
        self.maybe_blow("method_entry");
        Ok(())
    }

    fn method_exit(
        &self,
        _vm: &mut Vm,
        _mid: MethodId,
        _this: &Value,
        _args: &[Value],
        _outcome: &mut Outcome,
    ) -> Result<(), VmError> {
        self.maybe_blow("method_exit");
        Ok(())
    }

    fn field_get(
        &self,
        _vm: &mut Vm,
        _fid: FieldId,
        _obj: ObjId,
        _value: &mut Value,
    ) -> Result<(), VmError> {
        self.maybe_blow("field_get");
        Ok(())
    }

    fn field_set(
        &self,
        _vm: &mut Vm,
        _fid: FieldId,
        _obj: ObjId,
        _value: &mut Value,
    ) -> Result<(), VmError> {
        self.maybe_blow("field_set");
        Ok(())
    }

    fn exception_throw(
        &self,
        _vm: &mut Vm,
        _site: MethodId,
        _exc: &VmException,
    ) -> Result<(), VmError> {
        self.maybe_blow("exception_throw");
        Ok(())
    }

    fn exception_catch(
        &self,
        _vm: &mut Vm,
        _site: MethodId,
        _exc: &VmException,
    ) -> Result<(), VmError> {
        self.maybe_blow("exception_catch");
        Ok(())
    }
}

fn armed_vm(site: &'static str) -> Vm {
    let mut vm = Vm::new(VmConfig::default());
    vm.set_dispatcher(Bomb::arm(site));
    vm.register_class(
        ClassDef::build("Svc")
            .field("state", TypeSig::Int)
            .method("twice", [TypeSig::Int], TypeSig::Int, |b| {
                b.op(Op::Load(1)).konst(2i64).op(Op::Mul).op(Op::RetVal);
            })
            .method("store", [TypeSig::Int], TypeSig::Void, |b| {
                b.op(Op::Load(0))
                    .op(Op::Load(1))
                    .op(Op::PutField {
                        class: "Svc".into(),
                        field: "state".into(),
                    })
                    .op(Op::Ret);
            })
            .done(),
    )
    .unwrap();
    vm
}

fn assert_converted(err: &VmError, site: &str) {
    let text = format!("{err:?}");
    assert!(
        text.contains(&format!("{site} advice panicked")) && text.contains("boom"),
        "panic not converted at {site}: {text}"
    );
}

#[test]
fn entry_hook_panic_becomes_a_vm_error() {
    let mut vm = armed_vm("method_entry");
    let mid = vm.method_id("Svc", "twice").unwrap();
    vm.hooks().activate_method(mid, HOOK_ENTRY);
    let err = vm
        .call("Svc", "twice", Value::Null, vec![Value::Int(5)])
        .unwrap_err();
    assert_converted(&err, "method_entry");
}

#[test]
fn exit_hook_panic_becomes_a_vm_error() {
    let mut vm = armed_vm("method_exit");
    let mid = vm.method_id("Svc", "twice").unwrap();
    vm.hooks().activate_method(mid, HOOK_EXIT);
    let err = vm
        .call("Svc", "twice", Value::Null, vec![Value::Int(5)])
        .unwrap_err();
    assert_converted(&err, "method_exit");
}

#[test]
fn field_set_hook_panic_becomes_a_vm_error() {
    let mut vm = armed_vm("field_set");
    let (_, fid) = vm.resolve_field("Svc", "state").unwrap();
    vm.hooks().activate_field(fid, HOOK_SET);
    let obj = vm.new_object("Svc").unwrap();
    let err = vm
        .call("Svc", "store", obj, vec![Value::Int(42)])
        .unwrap_err();
    assert_converted(&err, "field_set");
}

#[test]
fn vm_survives_a_hook_panic_and_keeps_serving() {
    let mut vm = armed_vm("method_entry");
    let mid = vm.method_id("Svc", "twice").unwrap();
    vm.hooks().activate_method(mid, HOOK_ENTRY);
    vm.call("Svc", "twice", Value::Null, vec![Value::Int(5)])
        .unwrap_err();

    // Same VM, hook withdrawn: the fault was contained to that call.
    vm.hooks().deactivate_method(mid, HOOK_ENTRY);
    let out = vm
        .call("Svc", "twice", Value::Null, vec![Value::Int(5)])
        .unwrap();
    assert_eq!(out, Value::Int(10));
}

#[test]
fn formatted_panic_payloads_survive_the_conversion() {
    // panic!("{site} boom") carries a String payload (not &'static str);
    // the converter must extract both shapes. Bomb formats its message,
    // so every case above already uses the String path — this pins the
    // &'static str path too.
    struct StaticBomb;
    impl Dispatcher for StaticBomb {
        fn method_entry(
            &self,
            _vm: &mut Vm,
            _mid: MethodId,
            _this: &Value,
            _args: &mut Vec<Value>,
        ) -> Result<(), VmError> {
            panic!("static boom");
        }
        fn method_exit(
            &self,
            _vm: &mut Vm,
            _mid: MethodId,
            _this: &Value,
            _args: &[Value],
            _outcome: &mut Outcome,
        ) -> Result<(), VmError> {
            Ok(())
        }
        fn field_get(
            &self,
            _vm: &mut Vm,
            _fid: FieldId,
            _obj: ObjId,
            _value: &mut Value,
        ) -> Result<(), VmError> {
            Ok(())
        }
        fn field_set(
            &self,
            _vm: &mut Vm,
            _fid: FieldId,
            _obj: ObjId,
            _value: &mut Value,
        ) -> Result<(), VmError> {
            Ok(())
        }
        fn exception_throw(
            &self,
            _vm: &mut Vm,
            _site: MethodId,
            _exc: &VmException,
        ) -> Result<(), VmError> {
            Ok(())
        }
        fn exception_catch(
            &self,
            _vm: &mut Vm,
            _site: MethodId,
            _exc: &VmException,
        ) -> Result<(), VmError> {
            Ok(())
        }
    }

    let mut vm = armed_vm("none");
    vm.set_dispatcher(Arc::new(StaticBomb));
    let mid = vm.method_id("Svc", "twice").unwrap();
    vm.hooks().activate_method(mid, HOOK_ENTRY);
    let err = vm
        .call("Svc", "twice", Value::Null, vec![Value::Int(5)])
        .unwrap_err();
    let text = format!("{err:?}");
    assert!(text.contains("static boom"), "{text}");
}
