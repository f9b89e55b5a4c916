//! Dropping a backend frees its script heap: the closure ↔ scope `Rc`
//! cycles (globals bind top-level functions, function frames bind the
//! closures defined in them) must not outlive the VM or interpreter.

use greenweb_script::{parse_program, Interpreter, NoHost, Value, Vm};
use std::any::Any;
use std::rc::{Rc, Weak};

const SOURCE: &str =
    "function outer(){ var g = function(){ return 1; }; return g; } var h = outer();";

/// Asserts that `h`'s closure and its environment are both freed once
/// the value and the backend that made it are dropped.
fn assert_freed<B>(backend: B, global: impl Fn(&B) -> Option<Value>) {
    let h = global(&backend).expect("h is bound");
    let (closure, env): (Weak<dyn Any>, _) = match &h {
        Value::Function(f) => (Rc::downgrade(f) as _, Rc::downgrade(&f.env)),
        Value::VmFunction(f) => (Rc::downgrade(f) as _, Rc::downgrade(&f.env)),
        other => panic!("h is a {}, not a function", other.type_name()),
    };
    assert!(closure.upgrade().is_some() && env.upgrade().is_some());
    drop(h);
    drop(backend);
    assert!(closure.upgrade().is_none(), "closure leaked");
    assert!(env.upgrade().is_none(), "captured scope leaked");
}

#[test]
fn vm_drop_frees_closures_and_their_scopes() {
    let mut vm = Vm::new();
    vm.run_source(SOURCE, &mut NoHost).expect("runs");
    assert_freed(vm, |vm| vm.global("h"));
}

#[test]
fn interpreter_drop_frees_closures_and_their_scopes() {
    let program = parse_program(SOURCE).expect("parses");
    let mut interp = Interpreter::new();
    interp.run(&program, &mut NoHost).expect("runs");
    assert_freed(interp, |interp| interp.global("h"));
}
