//! Malformed functions trap, never panic, on both executors of each IR,
//! each with its fixed trap kind and message: an operand the register
//! file has no binding for (an id at or beyond the function's value
//! count, or a definition the taken path skipped), a φ without an
//! incoming value for the edge taken, and a runtime call with too few
//! arguments or a handle that names no host table.

use lir::{BinOp, Blk, Function, LirMachine, LirTrap, Op, Val};
use memoir_interp::{Interp, Trap, Value};
use memoir_ir::{Form, Module, ModuleBuilder, Type};
use symexec::{enumerate_lir, enumerate_memoir, seed_params, Budget, PathEnd, TermPool};

fn lir_module(f: Function) -> lir::Module {
    let mut m = lir::Module::default();
    m.add(f);
    m
}

/// How each enumerated path of the lir module's only function ends.
fn lir_ends(m: &lir::Module) -> Vec<PathEnd> {
    let mut pool = TermPool::new();
    let paths = enumerate_lir(m, lir::Fun(0), &mut pool, &Budget::default()).unwrap();
    paths.into_iter().map(|p| p.end).collect()
}

/// How each enumerated path of the MEMOIR module's `f` ends.
fn memoir_ends(m: &Module) -> Vec<PathEnd> {
    let fid = m.func_by_name("f").unwrap();
    let mut pool = seed_params(m, fid).unwrap();
    let paths = enumerate_memoir(m, fid, &mut pool, &Budget::default()).unwrap();
    paths.into_iter().map(|p| p.end).collect()
}

/// `f(x) = x + ghost`, where `ghost` is no value of `f`.
fn lir_ghost_operand(ghost: impl FnOnce(&Function) -> Val) -> lir::Module {
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let sum = f.push1(e, Op::Bin(BinOp::Add, f.param(0), f.param(0)));
    f.push0(e, Op::Ret(vec![sum]));
    let g = ghost(&f);
    f.insts[0].op = Op::Bin(BinOp::Add, f.param(0), g);
    lir_module(f)
}

#[test]
fn lir_operand_beyond_the_value_count_is_unbound() {
    for m in [
        lir_ghost_operand(|f| Val(f.next_val)),
        lir_ghost_operand(|_| Val(u32::MAX)),
    ] {
        assert_eq!(
            LirMachine::new(&m).run_by_name("f", vec![1]),
            Err(LirTrap::Malformed("unbound value"))
        );
        assert_eq!(lir_ends(&m), vec![PathEnd::Trap]);
    }
}

/// `f(x)`: returns the result of one runtime call with constant
/// arguments.
fn lir_rt_call(name: &str, args: &[i64]) -> lir::Module {
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let args = args.iter().map(|&c| f.push1(e, Op::Const(c))).collect();
    let out = f.push1(
        e,
        Op::CallRt {
            name: name.into(),
            args,
            has_result: true,
        },
    );
    f.push0(e, Op::Ret(vec![out]));
    lir_module(f)
}

#[test]
fn lir_runtime_call_arguments_and_handles_are_checked() {
    let missing = LirTrap::Malformed("missing runtime-call argument");
    for (name, args, trap) in [
        ("rt_assoc_read", &[-5, 1][..], LirTrap::BadAddress(-5)),
        ("rt_assoc_size", &[-1], LirTrap::BadAddress(-1)),
        (
            "rt_assoc_read",
            &[i64::MIN, 1],
            LirTrap::BadAddress(i64::MIN),
        ),
        ("rt_assoc_read", &[], missing.clone()),
        ("rt_seq_new", &[], missing.clone()),
        ("rt_dense_new", &[], missing.clone()),
    ] {
        let m = lir_rt_call(name, args);
        assert_eq!(
            LirMachine::new(&m).run_by_name("f", vec![1]),
            Err(trap),
            "{name}{args:?}"
        );
        assert_eq!(lir_ends(&m), vec![PathEnd::Trap], "{name}{args:?}");
    }
}

/// `f(x)`: jumps from the entry to a block whose φ only has an incoming
/// value for `from` (the entry itself when `None`: a φ in the entry).
fn lir_phi_without_edge(from: Option<Blk>) -> lir::Module {
    let mut f = Function::new("f", 1, 1);
    let e = f.entry;
    let join = f.add_block();
    let phi_block = if from.is_some() { join } else { e };
    let phi = f.push1(phi_block, Op::Phi(vec![(from.unwrap_or(e), f.param(0))]));
    if from.is_some() {
        f.push0(e, Op::Jmp(join));
    }
    f.push0(phi_block, Op::Ret(vec![phi]));
    lir_module(f)
}

#[test]
fn lir_phi_without_an_incoming_for_the_edge_taken_traps() {
    let m = lir_phi_without_edge(Some(Blk(7)));
    assert_eq!(
        LirMachine::new(&m).run_by_name("f", vec![1]),
        Err(LirTrap::Malformed("phi missing incoming"))
    );
    assert_eq!(lir_ends(&m), vec![PathEnd::Trap]);

    let m = lir_phi_without_edge(None);
    assert_eq!(
        LirMachine::new(&m).run_by_name("f", vec![1]),
        Err(LirTrap::Malformed("phi in entry"))
    );
    assert_eq!(lir_ends(&m), vec![PathEnd::Trap]);
}

#[test]
fn lir_phi_operand_unbound_on_the_edge_taken_traps() {
    // entry: jmp join; join: φ [(entry, ghost)]; ret
    let mut f = Function::new("f", 1, 1);
    let (e, join) = (f.entry, f.add_block());
    f.push0(e, Op::Jmp(join));
    let phi = f.push1(join, Op::Phi(vec![]));
    f.push0(join, Op::Ret(vec![phi]));
    let ghost = Val(f.next_val + 1);
    f.insts[1].op = Op::Phi(vec![(e, ghost)]);
    let m = lir_module(f);
    assert_eq!(
        LirMachine::new(&m).run_by_name("f", vec![1]),
        Err(LirTrap::Malformed("unbound phi operand"))
    );
    assert_eq!(lir_ends(&m), vec![PathEnd::Trap]);
}

/// `f(c, x)`: `y = x + 1` on the `c` path only; returns `y` on both.
fn memoir_unbound_on_else_path() -> Module {
    let mut mb = ModuleBuilder::new("m");
    mb.func("f", Form::Ssa, |b| {
        let bool_t = b.ty(Type::Bool);
        let i64t = b.ty(Type::I64);
        let c = b.param("c", bool_t);
        let x = b.param("x", i64t);
        b.returns(&[i64t]);
        let (then_b, join) = (b.block("then"), b.block("join"));
        b.branch(c, then_b, join);
        b.switch_to(then_b);
        let one = b.i64(1);
        let y = b.add(x, one);
        b.jump(join);
        b.switch_to(join);
        b.ret(vec![y]);
    });
    mb.finish()
}

#[test]
fn memoir_use_unbound_on_the_path_taken_traps() {
    let m = memoir_unbound_on_else_path();
    let run = |c: bool| {
        let args = vec![Value::Bool(c), Value::Int(Type::I64, 41)];
        Interp::new(&m).run_by_name("f", args)
    };
    assert_eq!(run(true), Ok(vec![Value::Int(Type::I64, 42)]));
    assert_eq!(run(false), Err(Trap::TypeConfusion("unbound value")));
    let ends = memoir_ends(&m);
    assert_eq!(ends.len(), 2, "{ends:?}");
    assert!(ends.contains(&PathEnd::Trap), "{ends:?}");
    assert!(
        ends.iter().any(|e| matches!(e, PathEnd::Ret(_))),
        "{ends:?}"
    );
}

#[test]
fn memoir_phi_without_an_incoming_for_the_edge_taken_traps() {
    // entry: jump join; join: φ [(other, x)]; other is never a predecessor.
    let mut mb = ModuleBuilder::new("m");
    mb.func("f", Form::Ssa, |b| {
        let i64t = b.ty(Type::I64);
        let x = b.param("x", i64t);
        b.returns(&[i64t]);
        let (join, other) = (b.block("join"), b.block("other"));
        b.jump(join);
        b.switch_to(other);
        b.jump(join);
        b.switch_to(join);
        let phi = b.phi(i64t, vec![(other, x)]);
        b.ret(vec![phi]);
    });
    let m = mb.finish();
    assert_eq!(
        Interp::new(&m).run_by_name("f", vec![Value::Int(Type::I64, 1)]),
        Err(Trap::TypeConfusion("phi missing incoming"))
    );
    assert_eq!(memoir_ends(&m), vec![PathEnd::Trap]);
}
