//! Executing an instruction allocates nothing: a counted scalar loop
//! makes the same number of heap allocations at 100 and at 1000 trips on
//! all four executors (`LirMachine`, `memoir-interp`, and the lir and
//! MEMOIR path enumerators), up to the amortized growth of containers
//! that fill with the trip count (the term pool's arena and index).
//!
//! Forking copies no heap: the MEMOIR enumerator's forks share every
//! collection of the path they split, so the allocations of a forking
//! function grow with the heap it builds, not with heap × forks.
//!
//! A counting global allocator tallies allocations per thread, so the
//! tests in this binary do not see each other's.

use lir::LirMachine;
use memoir_interp::{Interp, Value};
use memoir_ir::{BinOp, CmpOp, Form, Module, ModuleBuilder, Type};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use symexec::{enumerate_lir, enumerate_memoir, predict, seed_params, Budget, PathEnd, TermPool};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: forwards every call unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (reallocations included) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// Ten times the trips may add this many allocations at most: room for
/// the doublings of a few containers that fill with the trip count, far
/// below one allocation per iteration.
const GROWTH_SLACK: u64 = 32;

/// Asserts that `run(1000)` allocates at most [`GROWTH_SLACK`] more
/// times than `run(100)`.
fn assert_flat(executor: &str, mut run: impl FnMut(i64) -> u64) {
    let (small, large) = (run(100), run(1000));
    assert!(
        large <= small + GROWTH_SLACK,
        "{executor}: {small} allocations at 100 trips but {large} at 1000"
    );
}

/// `sum(n, x)`: adds `x` to an accumulator `trips` times, or `n` times
/// when `trips` is `None`, and returns it.
fn lir_sum(trips: Option<i64>) -> lir::Module {
    use lir::{BinOp, CmpOp, Function, Op};
    let mut f = Function::new("sum", 2, 1);
    let (entry, header, body, exit) = (f.entry, f.add_block(), f.add_block(), f.add_block());
    let zero = f.push1(entry, Op::Const(0));
    let bound = match trips {
        Some(k) => f.push1(entry, Op::Const(k)),
        None => f.param(0),
    };
    f.push0(entry, Op::Jmp(header));
    let i = f.push1(header, Op::Phi(vec![]));
    let acc = f.push1(header, Op::Phi(vec![]));
    let done = f.push1(header, Op::Cmp(CmpOp::Ge, i, bound));
    f.push0(
        header,
        Op::Br {
            cond: done,
            then_b: exit,
            else_b: body,
        },
    );
    let one = f.push1(body, Op::Const(1));
    let acc2 = f.push1(body, Op::Bin(BinOp::Add, acc, f.param(1)));
    let i2 = f.push1(body, Op::Bin(BinOp::Add, i, one));
    f.push0(body, Op::Jmp(header));
    f.push0(exit, Op::Ret(vec![acc]));
    for (phi, next) in [(i, i2), (acc, acc2)] {
        let inst = f
            .insts
            .iter_mut()
            .find(|inst| inst.results == [phi])
            .unwrap();
        inst.op = Op::Phi(vec![(entry, zero), (body, next)]);
    }
    let mut m = lir::Module::default();
    m.add(f);
    m
}

/// The MEMOIR counterpart of [`lir_sum`].
fn memoir_sum(trips: Option<u64>) -> Module {
    let mut mb = ModuleBuilder::new("m");
    mb.func("sum", Form::Ssa, |b| {
        let idx = b.ty(Type::Index);
        let i64t = b.ty(Type::I64);
        let n = b.param("n", idx);
        let x = b.param("x", i64t);
        b.returns(&[i64t]);
        let (header, body, exit) = (b.block("header"), b.block("body"), b.block("exit"));
        let entry = b.current_block();
        let zero = b.index(0);
        let acc0 = b.i64(0);
        let one = b.index(1);
        let bound = match trips {
            Some(k) => b.index(k),
            None => n,
        };
        b.jump(header);
        b.switch_to(header);
        let i = b.phi_placeholder(idx);
        let acc = b.phi_placeholder(i64t);
        b.add_phi_incoming(i, entry, zero);
        b.add_phi_incoming(acc, entry, acc0);
        let done = b.cmp(CmpOp::Ge, i, bound);
        b.branch(done, exit, body);
        b.switch_to(body);
        let acc2 = b.add(acc, x);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(acc, body, acc2);
        b.jump(header);
        b.switch_to(exit);
        b.ret(vec![acc]);
    });
    mb.finish()
}

#[test]
fn lir_machine_loop_allocates_per_call_not_per_instruction() {
    let m = lir_sum(None);
    assert_flat("LirMachine", |trips| {
        let mut vm = LirMachine::new(&m);
        let (n, out) = allocations(|| vm.run_by_name("sum", vec![trips, 3]));
        assert_eq!(out, Ok(vec![3 * trips]));
        n
    });
}

#[test]
fn memoir_interp_loop_allocates_per_call_not_per_instruction() {
    let m = memoir_sum(None);
    memoir_ir::verifier::assert_valid(&m);
    assert_flat("memoir-interp", |trips| {
        let mut interp = Interp::new(&m);
        let args = vec![Value::Int(Type::Index, trips), Value::Int(Type::I64, 3)];
        let (n, out) = allocations(|| interp.run_by_name("sum", args));
        assert_eq!(out, Ok(vec![Value::Int(Type::I64, 3 * trips)]));
        n
    });
}

#[test]
fn lir_enumeration_loop_allocates_per_path_not_per_instruction() {
    assert_flat("symexec lir", |trips| {
        let m = lir_sum(Some(trips));
        let mut pool = TermPool::new();
        let (n, paths) =
            allocations(|| enumerate_lir(&m, lir::Fun(0), &mut pool, &Budget::default()).unwrap());
        let [path] = paths.as_slice() else {
            panic!("a counted loop is one path")
        };
        let PathEnd::Ret(ret) = &path.end else {
            panic!("the loop returns")
        };
        assert_eq!(pool.eval(ret[0], &[0, 3]), Some(3 * trips));
        n
    });
}

#[test]
fn memoir_enumeration_loop_allocates_per_path_not_per_instruction() {
    assert_flat("symexec memoir", |trips| {
        let m = memoir_sum(Some(trips as u64));
        let fid = m.func_by_name("sum").unwrap();
        let mut pool = seed_params(&m, fid).unwrap();
        let (n, paths) =
            allocations(|| enumerate_memoir(&m, fid, &mut pool, &Budget::default()).unwrap());
        let [path] = paths.as_slice() else {
            panic!("a counted loop is one path")
        };
        let PathEnd::Ret(ret) = &path.end else {
            panic!("the loop returns")
        };
        assert_eq!(pool.eval(ret[0], &[0, 3]), Some(3 * trips));
        n
    });
}

/// `lookups(n: Index)`: stores `entries` one-element sequences `[k]` in
/// an assoc under keys `0..entries`, then sums `a[i][0]` for `i < n`.
/// The fill loop is concrete; the lookup loop forks on `i >= n` at every
/// trip, so `n` in the `Index` window [0, 16] gives 17 paths and 16
/// two-way forks, each taken with the whole assoc live.
fn memoir_lookups(entries: u64) -> Module {
    let mut mb = ModuleBuilder::new("m");
    mb.func("lookups", Form::Mut, |b| {
        let idx = b.ty(Type::Index);
        let i64t = b.ty(Type::I64);
        let seq = b.ty(Type::Seq(i64t));
        let n = b.param("n", idx);
        b.returns(&[i64t]);
        let (fill, fill_body) = (b.block("fill"), b.block("fill_body"));
        let (look, look_body, exit) = (b.block("look"), b.block("look_body"), b.block("exit"));
        let entry = b.current_block();
        let a = b.new_assoc(i64t, seq);
        let (zero, one, bound) = (b.index(0), b.index(1), b.index(entries));
        let acc0 = b.i64(0);
        b.jump(fill);
        b.switch_to(fill);
        let j = b.phi_placeholder(idx);
        b.add_phi_incoming(j, entry, zero);
        let filled = b.cmp(CmpOp::Ge, j, bound);
        b.branch(filled, look, fill_body);
        b.switch_to(fill_body);
        let key = b.cast(Type::I64, j);
        let s = b.new_seq(i64t, one);
        b.mut_write(s, zero, key);
        b.mut_write(a, key, s);
        let j2 = b.add(j, one);
        b.add_phi_incoming(j, fill_body, j2);
        b.jump(fill);
        b.switch_to(look);
        let i = b.phi_placeholder(idx);
        let acc = b.phi_placeholder(i64t);
        b.add_phi_incoming(i, fill, zero);
        b.add_phi_incoming(acc, fill, acc0);
        let done = b.cmp(CmpOp::Ge, i, n);
        b.branch(done, exit, look_body);
        b.switch_to(look_body);
        let k = b.cast(Type::I64, i);
        let s = b.read(a, k);
        let v = b.read(s, zero);
        let acc2 = b.bin(BinOp::Add, acc, v);
        let i2 = b.add(i, one);
        b.add_phi_incoming(i, look_body, i2);
        b.add_phi_incoming(acc, look_body, acc2);
        b.jump(look);
        b.switch_to(exit);
        b.ret(vec![acc]);
    });
    mb.finish()
}

#[test]
fn memoir_enumeration_forks_share_the_heap() {
    let run = |entries: u64| {
        let m = memoir_lookups(entries);
        memoir_ir::verifier::assert_valid(&m);
        let fid = m.func_by_name("lookups").unwrap();
        let mut pool = seed_params(&m, fid).unwrap();
        let (n, paths) =
            allocations(|| enumerate_memoir(&m, fid, &mut pool, &Budget::default()).unwrap());
        assert_eq!(paths.len(), 17, "one path per n in [0, 16]");
        for k in 0..=16 {
            let want = k * (k - 1) / 2;
            assert_eq!(
                predict(&pool, &paths, &[k]),
                Some(Ok(vec![want])),
                "n = {k}"
            );
        }
        n
    };
    let (small, large) = (run(64), run(512));
    // Each added entry allocates its sequence and its share of the
    // assoc's growth once; a fork that copied the heap would add an
    // allocation per entry per fork (16 per entry here).
    let per_entry = 4;
    assert!(
        large <= small + per_entry * (512 - 64),
        "{small} allocations at 64 entries but {large} at 512"
    );
}
