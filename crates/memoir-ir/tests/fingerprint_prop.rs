//! Property tests for the structural fingerprint
//! (`memoir_ir::fingerprint`): the contract every fingerprint-keyed
//! cache layer (analysis retention, the cross-job compile cache, the
//! lowered-body cache) relies on.
//!
//! * **Determinism** — fingerprints are a pure function of the module:
//!   recomputation, a deep clone, and concurrent computation from many
//!   threads all agree.
//! * **Renumbering insensitivity** — orphan (unreferenced) values
//!   displace every later raw `ValueId` without changing observable
//!   structure; fingerprints must not move.
//! * **Edit sensitivity** — changing any single constant in a function
//!   changes that function's fingerprint and (via callee propagation)
//!   its callers', while unrelated functions keep theirs; so does an edit
//!   to any one immediate of any op class, the function's form, or an
//!   object field's type (which moves every function).

use memoir_ir::fingerprint::module_fingerprints;
use memoir_ir::{
    BinOp, Callee, CmpOp, Constant, Field, Form, FuncId, FunctionBuilder, InstKind, Module,
    ModuleBuilder, ObjTypeId, Type, ValueDef,
};
use passman::Fingerprint;
use proptest::prelude::*;

/// Builds a module with one `chain` function (a running sum over the
/// given constants) plus a `caller` wrapping it and an unrelated `leaf`.
/// `orphans[i]` injects an unreferenced constant value before step `i`,
/// shifting every later raw value id without changing structure.
fn build(chain: &[i64], orphans: &[bool]) -> (Module, FuncId, FuncId, FuncId) {
    let mut m = Module::new("prop");

    let mut b = FunctionBuilder::new(&mut m.types, "chain", Form::Ssa);
    let i64t = b.ty(Type::I64);
    let x = b.param("x", i64t);
    b.returns(&[i64t]);
    let mut acc = x;
    for (i, &k) in chain.iter().enumerate() {
        if orphans.get(i).copied().unwrap_or(false) {
            b.i64(0x0BAD); // orphan: displaces ids, invisible to structure
        }
        let c = b.i64(k);
        acc = b.add(acc, c);
    }
    b.ret(vec![acc]);
    let chain_id = {
        let f = b.finish();
        m.add_func(f)
    };

    let mut b = FunctionBuilder::new(&mut m.types, "caller", Form::Ssa);
    let i64t = b.ty(Type::I64);
    let y = b.param("y", i64t);
    b.returns(&[i64t]);
    let rets = b.call(memoir_ir::Callee::Func(chain_id), vec![y], &[i64t]);
    b.ret(vec![rets[0]]);
    let caller_id = {
        let f = b.finish();
        m.add_func(f)
    };

    let mut b = FunctionBuilder::new(&mut m.types, "leaf", Form::Ssa);
    let i64t = b.ty(Type::I64);
    let z = b.param("z", i64t);
    b.returns(&[i64t]);
    let c = b.i64(7);
    let s = b.add(z, c);
    b.ret(vec![s]);
    let leaf_id = {
        let f = b.finish();
        m.add_func(f)
    };

    (m, chain_id, caller_id, leaf_id)
}

/// `module_fingerprints` as a lookup table.
fn fps(m: &Module) -> Vec<(FuncId, Fingerprint)> {
    module_fingerprints(m)
}

fn fp_of(table: &[(FuncId, Fingerprint)], id: FuncId) -> Fingerprint {
    table
        .iter()
        .find(|(fid, _)| *fid == id)
        .map(|&(_, fp)| fp)
        .expect("function has a fingerprint")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure function of the module: recomputing, cloning, and computing
    /// from four concurrent threads all yield the same table.
    #[test]
    fn deterministic_across_runs_and_threads(
        chain in proptest::collection::vec(-100i64..100, 1..16),
    ) {
        let (m, ..) = build(&chain, &[]);
        let base = fps(&m);
        prop_assert_eq!(&base, &fps(&m));
        prop_assert_eq!(&base, &fps(&m.clone()));
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| fps(&m))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for table in concurrent {
            prop_assert_eq!(&base, &table);
        }
    }

    /// Orphan values renumber every later `ValueId`; fingerprints are
    /// keyed on canonical structure and must not move.
    #[test]
    fn insensitive_to_value_id_renumbering(
        chain in proptest::collection::vec(-100i64..100, 1..16),
        orphans in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let (plain, ..) = build(&chain, &[]);
        let (shifted, ..) = build(&chain, &orphans);
        prop_assert_eq!(fps(&plain), fps(&shifted));
    }

    /// Editing one constant changes the edited function's fingerprint,
    /// propagates to its caller through the callgraph, and leaves the
    /// unrelated function untouched.
    #[test]
    fn one_op_edit_is_visible_and_propagates(
        chain in proptest::collection::vec(-100i64..100, 1..16),
        pick in any::<u64>(),
    ) {
        let idx = (pick as usize) % chain.len();
        let mut edited = chain.clone();
        edited[idx] = edited[idx].wrapping_add(1);

        let (before, chain_id, caller_id, leaf_id) = build(&chain, &[]);
        let (after, ..) = build(&edited, &[]);
        let (fb, fa) = (fps(&before), fps(&after));
        prop_assert!(fp_of(&fb, chain_id) != fp_of(&fa, chain_id));
        prop_assert!(fp_of(&fb, caller_id) != fp_of(&fa, caller_id));
        prop_assert_eq!(fp_of(&fb, leaf_id), fp_of(&fa, leaf_id));
    }
}

/// A module whose `subject` function holds one op of every immediate
/// class the serialization must cover, beside two byte-identical `leaf`
/// callees (so retargeting the call changes only the callee *slot*).
/// With `orphans`, an unreferenced constant precedes every op, shifting
/// every later raw value id without changing structure.
fn kitchen(orphans: bool) -> Module {
    let mut mb = ModuleBuilder::new("kitchen");
    let i64t = mb.module.types.intern(Type::I64);
    let fields = || {
        ["a", "b"]
            .map(|name| Field {
                name: name.into(),
                ty: i64t,
            })
            .to_vec()
    };
    let t = mb.module.types.define_object("T", fields()).unwrap();
    mb.module.types.define_object("U", fields()).unwrap();
    for _ in 0..2 {
        mb.func("leaf", Form::Ssa, |b| {
            let x = b.param("x", i64t);
            b.returns(&[i64t]);
            b.ret(vec![x]);
        });
    }
    let leaf = FuncId::from_raw(0);
    mb.func("subject", Form::Ssa, |b| {
        let mut orphan = 0;
        let mut o = |b: &mut FunctionBuilder| {
            if orphans {
                orphan += 1;
                b.i64(0x0BAD + orphan);
            }
        };
        let seqt = b.types.seq_of(i64t);
        let assoct = b.types.assoc_of(i64t, i64t);
        let reft = b.types.ref_of(t);
        let boolt = b.ty(Type::Bool);
        let s = b.param("s", seqt);
        let a = b.param("a", assoct);
        let r = b.param("r", reft);
        let c = b.param("c", boolt);
        let x = b.param("x", i64t);
        o(b);
        let one = b.i64(1);
        let sum = b.bin(BinOp::Add, x, one);
        o(b);
        b.cmp(CmpOp::Lt, sum, x);
        o(b);
        b.cast(Type::I32, sum);
        o(b);
        let four = b.index(4);
        b.new_seq(i64t, four);
        o(b);
        b.new_assoc(i64t, i64t);
        o(b);
        b.new_obj(t);
        o(b);
        let field = b.field_read(r, t, 0);
        o(b);
        let zero = b.index(0);
        b.rmw(s, zero, BinOp::Add, field);
        o(b);
        b.insert(a, x, Some(sum));
        o(b);
        let fz = b.f64(0.0);
        b.bin(BinOp::Add, fz, fz);
        o(b);
        let called = b.call(Callee::Func(leaf), vec![x], &[i64t]);
        let yes = b.block("yes");
        let no = b.block("no");
        b.branch(c, yes, no);
        b.returns(&[i64t]);
        b.switch_to(yes);
        b.ret(vec![called[0]]);
        b.switch_to(no);
        o(b);
        let minus = b.i64(-1);
        b.ret(vec![minus]);
    });
    mb.finish()
}

/// Applies `edit` to the first op of `subject` it accepts (returns
/// `true` for).
fn edit_op(m: &mut Module, edit: impl Fn(&mut InstKind) -> bool) {
    let fid = m.func_by_name("subject").unwrap();
    let f = &mut m.funcs[fid];
    let ids: Vec<_> = f.insts.ids().collect();
    assert!(
        ids.into_iter().any(|i| edit(&mut f.insts[i].kind)),
        "no op to edit"
    );
}

fn ty(m: &Module, t: Type) -> memoir_ir::TypeId {
    m.types.interned_id(t).expect("type interned by kitchen()")
}

/// A named edit of one field of `kitchen()`.
type Edit = (&'static str, fn(&mut Module));

/// One-field edits of `kitchen()`. Type immediates change only in the
/// op, not in the result's type, so each edit shows that the op's own
/// field reaches the hash.
fn edits() -> Vec<Edit> {
    vec![
        ("bin operator", |m| {
            edit_op(m, |k| {
                let InstKind::Bin { op, .. } = k else {
                    return false;
                };
                *op = BinOp::Sub;
                true
            })
        }),
        ("cmp operator", |m| {
            edit_op(m, |k| {
                let InstKind::Cmp { op, .. } = k else {
                    return false;
                };
                *op = CmpOp::Le;
                true
            })
        }),
        ("rmw operator", |m| {
            edit_op(m, |k| {
                let InstKind::Rmw { op, .. } = k else {
                    return false;
                };
                *op = BinOp::Mul;
                true
            })
        }),
        ("cast target", |m| {
            let index = ty(m, Type::Index);
            edit_op(m, |k| {
                let InstKind::Cast { to, .. } = k else {
                    return false;
                };
                *to = index;
                true
            })
        }),
        ("new_seq element type", |m| {
            let bool_t = ty(m, Type::Bool);
            edit_op(m, |k| {
                let InstKind::NewSeq { elem, .. } = k else {
                    return false;
                };
                *elem = bool_t;
                true
            })
        }),
        ("new_assoc key type", |m| {
            let index = ty(m, Type::Index);
            edit_op(m, |k| {
                let InstKind::NewAssoc { key, .. } = k else {
                    return false;
                };
                *key = index;
                true
            })
        }),
        ("new_assoc value type", |m| {
            let bool_t = ty(m, Type::Bool);
            edit_op(m, |k| {
                let InstKind::NewAssoc { value, .. } = k else {
                    return false;
                };
                *value = bool_t;
                true
            })
        }),
        ("new_obj object type", |m| {
            edit_op(m, |k| {
                let InstKind::NewObj { obj } = k else {
                    return false;
                };
                *obj = ObjTypeId::from_raw(1);
                true
            })
        }),
        ("field object type", |m| {
            edit_op(m, |k| {
                let InstKind::FieldRead { obj_ty, .. } = k else {
                    return false;
                };
                *obj_ty = ObjTypeId::from_raw(1);
                true
            })
        }),
        ("field index", |m| {
            edit_op(m, |k| {
                let InstKind::FieldRead { field, .. } = k else {
                    return false;
                };
                *field = 1;
                true
            })
        }),
        ("callee slot", |m| {
            edit_op(m, |k| {
                let InstKind::Call { callee, .. } = k else {
                    return false;
                };
                *callee = Callee::Func(FuncId::from_raw(1));
                true
            })
        }),
        ("branch successors swapped", |m| {
            edit_op(m, |k| {
                let InstKind::Branch {
                    then_target,
                    else_target,
                    ..
                } = k
                else {
                    return false;
                };
                std::mem::swap(then_target, else_target);
                true
            })
        }),
        ("insert without a value", |m| {
            edit_op(m, |k| {
                let InstKind::Insert { value, .. } = k else {
                    return false;
                };
                *value = None;
                true
            })
        }),
        ("float 0.0 to -0.0", |m| {
            let fid = m.func_by_name("subject").unwrap();
            let f = &mut m.funcs[fid];
            let zero = ValueDef::Const(Constant::f64(0.0));
            let v = f.values.ids().find(|&v| f.values[v].def == zero).unwrap();
            f.values[v].def = ValueDef::Const(Constant::f64(-0.0));
        }),
        ("form", |m| {
            let fid = m.func_by_name("subject").unwrap();
            m.funcs[fid].form = Form::Mut;
        }),
    ]
}

#[test]
fn every_immediate_class_moves_the_fingerprint() {
    let base = kitchen(false);
    let subject = base.func_by_name("subject").unwrap();
    let before = fp_of(&fps(&base), subject);
    for (what, edit) in edits() {
        let mut m = base.clone();
        edit(&mut m);
        assert_ne!(
            fp_of(&fps(&m), subject),
            before,
            "{what}: fingerprint did not move"
        );
    }
}

#[test]
fn object_field_type_edit_moves_every_function() {
    let base = kitchen(false);
    let mut m = base.clone();
    let i32t = m.types.intern(Type::I32);
    let t = ObjTypeId::from_raw(0);
    let mut fields = m.types.object(t).fields.clone();
    fields[0].ty = i32t;
    m.types.set_fields(t, fields).unwrap();
    for ((f, old), (_, new)) in fps(&base).into_iter().zip(fps(&m)) {
        assert_ne!(old, new, "function {f:?} kept its fingerprint");
    }
}

#[test]
fn orphan_renumbering_of_every_variant_keeps_the_fingerprint() {
    let (plain, shifted) = (kitchen(false), kitchen(true));
    assert_eq!(fps(&plain), fps(&shifted), "unedited");
    for (what, edit) in edits() {
        let (mut p, mut s) = (plain.clone(), shifted.clone());
        edit(&mut p);
        edit(&mut s);
        assert_eq!(fps(&p), fps(&s), "{what}");
    }
}

#[test]
fn raw_type_ids_are_pinned_by_the_type_table() {
    // Two modules whose one function is word for word the same, but
    // whose type tables give its raw `TypeId`s different meanings.
    let module = |first: Type, second: Type| {
        let mut m = Module::new("types");
        m.types.intern(first);
        m.types.intern(second);
        let t = memoir_ir::TypeId::from_raw(0);
        let mut b = FunctionBuilder::new(&mut m.types, "id", Form::Ssa);
        let x = b.param("x", t);
        b.returns(&[t]);
        b.ret(vec![x]);
        let f = b.finish();
        m.add_func(f);
        m
    };
    let (a, b) = (module(Type::I64, Type::I32), module(Type::I32, Type::I64));
    assert_ne!(fps(&a), fps(&b));
}
