//! Value semantics of the MEMOIR enumerator's copy-on-write heap.
//!
//! Forked paths and value copies share collections and objects until one
//! of them writes, so each subject here writes to something another path
//! or another handle still sees: after a fork, through a `copy`, through
//! a by-value argument of a mut-form callee, and through an assoc's
//! overwrite / remove / re-insert before `keys`. For every `n` in the
//! `Index` window [0, 16], the enumerated paths must predict exactly what
//! `memoir-interp` computes.

use memoir_interp::{Interp, Value};
use memoir_ir::{BinOp, Callee, CmpOp, Field, Form, Module, ModuleBuilder, Type};
use symexec::{enumerate_memoir, predict, seed_params, Budget};

/// `fork_write(n)`: a sequence, an assoc and an object are built, then
/// the path forks on `n < 8`; the taken side overwrites all three. The
/// other side must still read the values from before the fork.
fn fork_write() -> Module {
    let mut mb = ModuleBuilder::new("m");
    let i64t = mb.module.types.intern(Type::I64);
    let cell = mb
        .module
        .types
        .define_object(
            "Cell",
            vec![Field {
                name: "x".into(),
                ty: i64t,
            }],
        )
        .unwrap();
    mb.func("fork_write", Form::Mut, |b| {
        let idx = b.ty(Type::Index);
        let n = b.param("n", idx);
        b.returns(&[i64t]);
        let (then_b, join) = (b.block("then"), b.block("join"));
        let (zero, one, eight) = (b.index(0), b.index(1), b.index(8));
        let k = b.i64(0);
        let s = b.new_seq(i64t, one);
        let a = b.new_assoc(i64t, i64t);
        let o = b.new_obj(cell);
        let (v1, v2, v3) = (b.i64(1), b.i64(2), b.i64(3));
        b.mut_write(s, zero, v1);
        b.mut_write(a, k, v2);
        b.field_write(o, cell, 0, v3);
        let small = b.cmp(CmpOp::Lt, n, eight);
        b.branch(small, then_b, join);
        b.switch_to(then_b);
        let (w1, w2, w3) = (b.i64(10), b.i64(20), b.i64(30));
        b.mut_write(s, zero, w1);
        b.mut_write(a, k, w2);
        b.field_write(o, cell, 0, w3);
        b.jump(join);
        b.switch_to(join);
        let x = b.read(s, zero);
        let y = b.read(a, k);
        let z = b.field_read(o, cell, 0);
        let xy = b.add(x, y);
        let sum = b.add(xy, z);
        b.ret(vec![sum]);
    });
    mb.finish()
}

/// `copy_write(n)`: copies a sequence and an assoc, writes `n` into each
/// copy, and returns what the sources still hold next to the copies.
fn copy_write() -> Module {
    let mut mb = ModuleBuilder::new("m");
    mb.func("copy_write", Form::Mut, |b| {
        let idx = b.ty(Type::Index);
        let i64t = b.ty(Type::I64);
        let n = b.param("n", idx);
        b.returns(&[i64t]);
        let (zero, one) = (b.index(0), b.index(1));
        let (k, k5, hundred) = (b.i64(0), b.i64(5), b.i64(100));
        let nv = b.cast(Type::I64, n);
        let s = b.new_seq(i64t, one);
        let a = b.new_assoc(i64t, i64t);
        let seven = b.i64(7);
        b.mut_write(s, zero, seven);
        b.mut_write(a, k, seven);
        let t = b.copy(s);
        let c = b.copy(a);
        b.mut_write(t, zero, nv);
        b.mut_write(c, k, nv);
        b.mut_write(c, k5, nv);
        // s[0] * 100 + t[0] + a[0] * 100 + c[0] + has(a, 5) * 10000
        let s0 = b.read(s, zero);
        let t0 = b.read(t, zero);
        let a0 = b.read(a, k);
        let c0 = b.read(c, k);
        let leaked = b.has(a, k5);
        let leaked = b.cast(Type::I64, leaked);
        let big = b.i64(10_000);
        let s100 = b.mul(s0, hundred);
        let a100 = b.mul(a0, hundred);
        let l = b.mul(leaked, big);
        let r1 = b.add(s100, t0);
        let r2 = b.add(a100, c0);
        let r3 = b.add(r1, r2);
        let r = b.add(r3, l);
        b.ret(vec![r]);
    });
    mb.finish()
}

/// `by_value(n)`: passes a sequence by value to a mut-form callee that
/// overwrites it, on the `n < 4` side of a fork; the caller's sequence
/// must keep `n`.
fn by_value() -> Module {
    let mut mb = ModuleBuilder::new("m");
    let i64t = mb.module.types.intern(Type::I64);
    let seq = mb.module.types.seq_of(i64t);
    let clobber = mb.func("clobber", Form::Mut, |b| {
        let s = b.param("s", seq);
        b.returns(&[i64t]);
        let zero = b.index(0);
        let v = b.i64(99);
        b.mut_write(s, zero, v);
        let r = b.read(s, zero);
        b.ret(vec![r]);
    });
    mb.func("by_value", Form::Mut, |b| {
        let idx = b.ty(Type::Index);
        let n = b.param("n", idx);
        b.returns(&[i64t]);
        let entry = b.current_block();
        let (call_b, join) = (b.block("call"), b.block("join"));
        let (zero, one, four) = (b.index(0), b.index(1), b.index(4));
        let nv = b.cast(Type::I64, n);
        let s = b.new_seq(i64t, one);
        b.mut_write(s, zero, nv);
        let none = b.i64(0);
        let small = b.cmp(CmpOp::Lt, n, four);
        b.branch(small, call_b, join);
        b.switch_to(call_b);
        let r = b.call(Callee::Func(clobber), vec![s], &[i64t])[0];
        b.jump(join);
        b.switch_to(join);
        let got = b.phi(i64t, vec![(entry, none), (call_b, r)]);
        let s0 = b.read(s, zero);
        let thousand = b.i64(1000);
        let hi = b.mul(s0, thousand);
        let out = b.add(hi, got);
        b.ret(vec![out]);
    });
    mb.finish()
}

/// `key_order(n)`: inserts keys 1, 2, 3, overwrites 1, and on the `n < 8`
/// side removes and re-inserts 2; returns the `keys` order as digits
/// (`132` when 2 was re-inserted, `123` otherwise).
fn key_order() -> Module {
    let mut mb = ModuleBuilder::new("m");
    mb.func("key_order", Form::Mut, |b| {
        let idx = b.ty(Type::Index);
        let i64t = b.ty(Type::I64);
        let n = b.param("n", idx);
        b.returns(&[i64t]);
        let (then_b, join) = (b.block("then"), b.block("join"));
        let eight = b.index(8);
        let a = b.new_assoc(i64t, i64t);
        let (k1, k2, k3) = (b.i64(1), b.i64(2), b.i64(3));
        for k in [k1, k2, k3, k1] {
            b.mut_write(a, k, k);
        }
        let small = b.cmp(CmpOp::Lt, n, eight);
        b.branch(small, then_b, join);
        b.switch_to(then_b);
        b.mut_remove(a, k2);
        b.mut_write(a, k2, k2);
        b.jump(join);
        b.switch_to(join);
        let ks = b.keys(a);
        let (i0, i1, i2) = (b.index(0), b.index(1), b.index(2));
        let (d0, d1, d2) = (b.read(ks, i0), b.read(ks, i1), b.read(ks, i2));
        let (c100, c10) = (b.i64(100), b.i64(10));
        let h = b.mul(d0, c100);
        let t = b.mul(d1, c10);
        let ht = b.add(h, t);
        let r = b.bin(BinOp::Add, ht, d2);
        b.ret(vec![r]);
    });
    mb.finish()
}

/// Enumerates `name` and checks the prediction against the interpreter
/// for every `n` in [0, 16]; returns the interpreter's results.
fn predict_matches_interp(m: &Module, name: &str) -> Vec<i64> {
    memoir_ir::verifier::assert_valid(m);
    let fid = m.func_by_name(name).unwrap();
    let mut pool = seed_params(m, fid).unwrap();
    let paths = enumerate_memoir(m, fid, &mut pool, &Budget::default()).unwrap();
    (0..=16)
        .map(|n| {
            let conc = Interp::new(m)
                .run_by_name(name, vec![Value::Int(Type::Index, n)])
                .unwrap_or_else(|t| panic!("`{name}`({n}) trapped: {t:?}"));
            let conc: Vec<i64> = conc.iter().map(|v| v.as_int().unwrap()).collect();
            assert_eq!(
                predict(&pool, &paths, &[n]),
                Some(Ok(conc.clone())),
                "`{name}`({n})"
            );
            conc[0]
        })
        .collect()
}

#[test]
fn a_write_after_a_fork_stays_on_its_path() {
    let got = predict_matches_interp(&fork_write(), "fork_write");
    assert_eq!(&got[..9], &[60, 60, 60, 60, 60, 60, 60, 60, 6]);
}

#[test]
fn writing_a_copy_leaves_the_source() {
    let got = predict_matches_interp(&copy_write(), "copy_write");
    let want: Vec<i64> = (0..=16).map(|n| 700 + n + 700 + n).collect();
    assert_eq!(got, want);
}

#[test]
fn by_value_arguments_of_mut_callees_are_copies() {
    let got = predict_matches_interp(&by_value(), "by_value");
    let want: Vec<i64> = (0..=16)
        .map(|n| n * 1000 + if n < 4 { 99 } else { 0 })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn keys_follow_the_interpreters_insertion_order() {
    let got = predict_matches_interp(&key_order(), "key_order");
    let want: Vec<i64> = (0..=16).map(|n| if n < 8 { 132 } else { 123 }).collect();
    assert_eq!(got, want);
}
