//! Each price of the cost model, pinned at the instruction that pays it.
//!
//! A case runs a MUT `main` twice, without and with the one instruction
//! under test, and checks what that instruction adds: every counter of
//! [`ExecStats`], and the cost. The cost must equal both the price the
//! case states and [`COST_TABLE`]'s weights times the counts added. The
//! element accesses run on a default-layout collection, and again on the
//! same collection laid out dense or inline through `ReprChoices`.

use memoir_interp::stats::COST_TABLE;
use memoir_interp::{ExecStats, Interp};
use memoir_ir::{
    BinOp, Callee, Field, Form, FuncId, FunctionBuilder, InstKind, ModuleBuilder, ObjTypeId, Repr,
    ReprChoices, Type, ValueId,
};

/// What a case's body can use besides the builder.
struct Env {
    /// A 56-byte object type (seven `i64` fields): one cache line.
    small: ObjTypeId,
    /// A 72-byte object type (nine `i64` fields): two cache lines.
    big: ObjTypeId,
    /// A function that returns at once.
    g: FuncId,
}

struct Case {
    name: &'static str,
    /// The representation chosen for the first collection `main`
    /// allocates.
    layout: Repr,
    /// Builds `main`'s body, with the instruction under test when the
    /// flag is set.
    body: fn(&mut FunctionBuilder<'_>, &Env, bool),
    /// What the instruction adds to each counter, in field order; the
    /// other counters add nothing.
    adds: &'static [(&'static str, u64)],
    /// Its price in abstract cycles.
    cycles: u64,
}

/// A three-element sequence holding 7 at index 0.
fn seq(b: &mut FunctionBuilder<'_>) -> ValueId {
    let (i64t, three, zero, seven) = (b.ty(Type::I64), b.index(3), b.index(0), b.i64(7));
    let s = b.new_seq(i64t, three);
    b.mut_write(s, zero, seven);
    s
}

/// An assoc holding 7 at key 1.
fn assoc(b: &mut FunctionBuilder<'_>) -> ValueId {
    let (i64t, one, seven) = (b.ty(Type::I64), b.i64(1), b.i64(7));
    let a = b.new_assoc(i64t, i64t);
    b.mut_write(a, one, seven);
    a
}

/// Writes 8 at `k` of `c` if `probe`.
fn write(b: &mut FunctionBuilder<'_>, c: ValueId, k: ValueId, probe: bool) {
    let v = b.i64(8);
    if probe {
        b.mut_write(c, k, v);
    }
}

/// Adds 1 at `k` of `c`, one fused `rmw`, if `probe`.
fn rmw(b: &mut FunctionBuilder<'_>, c: ValueId, k: ValueId, probe: bool) {
    let v = b.i64(1);
    if probe {
        b.mut_rmw(c, k, BinOp::Add, v);
    }
}

fn has(b: &mut FunctionBuilder<'_>, _: &Env, probe: bool) {
    let (a, k) = (assoc(b), b.i64(1));
    if probe {
        b.has(a, k);
    }
}

fn assoc_write(b: &mut FunctionBuilder<'_>, _: &Env, probe: bool) {
    let (a, k) = (assoc(b), b.i64(2));
    write(b, a, k, probe);
}

fn assoc_insert(b: &mut FunctionBuilder<'_>, _: &Env, probe: bool) {
    let (a, k) = (assoc(b), b.i64(2));
    if probe {
        b.mut_insert(a, k, None);
    }
}

fn assoc_rmw(b: &mut FunctionBuilder<'_>, _: &Env, probe: bool) {
    let (a, k) = (assoc(b), b.i64(1));
    rmw(b, a, k, probe);
}

fn seq_read(b: &mut FunctionBuilder<'_>, _: &Env, probe: bool) {
    let (s, k) = (seq(b), b.index(0));
    if probe {
        b.read(s, k);
    }
}

fn field_read(b: &mut FunctionBuilder<'_>, obj: ObjTypeId, probe: bool) {
    let (o, v) = (b.new_obj(obj), b.i64(7));
    b.field_write(o, obj, 0, v);
    if probe {
        b.field_read(o, obj, 0);
    }
}

const DENSE: Repr = Repr::Dense { cap: 16 };

/// What a copy of three elements into a new sequence adds.
const COPY_OF_3: &[(&str, u64)] = &[
    ("elements_moved", 3),
    ("collection_copies", 1),
    ("allocations", 1),
    ("bytes_allocated", 32 + 8 * 3),
    ("elements_reserved", 3),
];

const CASES: &[Case] = &[
    Case {
        name: "scalar add",
        layout: Repr::Default,
        body: |b, _, probe| {
            let x = b.i64(1);
            if probe {
                b.add(x, x);
            }
        },
        adds: &[("insts", 1), ("scalars", 1)],
        cycles: 1,
    },
    Case {
        name: "seq read",
        layout: Repr::Default,
        body: seq_read,
        adds: &[("insts", 1), ("seq_reads", 1), ("seq_accesses", 1)],
        cycles: 2,
    },
    Case {
        name: "seq write",
        layout: Repr::Default,
        body: |b, _, probe| {
            let (s, k) = (seq(b), b.index(1));
            write(b, s, k, probe);
        },
        adds: &[("insts", 1), ("seq_writes", 1), ("seq_accesses", 1)],
        cycles: 2,
    },
    Case {
        name: "inline read",
        layout: Repr::Inline { cap: 3 },
        body: seq_read,
        adds: &[("insts", 1), ("seq_reads", 1), ("inline_accesses", 1)],
        cycles: 1,
    },
    Case {
        name: "hashed has",
        layout: Repr::Default,
        body: has,
        adds: &[("insts", 1), ("assoc_ops", 1), ("assoc_lookups", 1)],
        cycles: 8,
    },
    Case {
        name: "hashed write",
        layout: Repr::Default,
        body: assoc_write,
        adds: &[("insts", 1), ("assoc_ops", 1), ("assoc_stores", 1)],
        cycles: 12,
    },
    Case {
        name: "hashed insert",
        layout: Repr::Default,
        body: assoc_insert,
        adds: &[("insts", 1), ("assoc_ops", 1), ("assoc_stores", 1)],
        cycles: 12,
    },
    Case {
        name: "dense has",
        layout: DENSE,
        body: has,
        adds: &[("insts", 1), ("seq_reads", 1), ("dense_accesses", 1)],
        cycles: 2,
    },
    Case {
        name: "dense write",
        layout: DENSE,
        body: assoc_write,
        adds: &[("insts", 1), ("seq_writes", 1), ("dense_accesses", 1)],
        cycles: 2,
    },
    Case {
        name: "dense insert",
        layout: DENSE,
        body: assoc_insert,
        adds: &[("insts", 1), ("seq_writes", 1), ("dense_accesses", 1)],
        cycles: 2,
    },
    Case {
        name: "seq rmw",
        layout: Repr::Default,
        body: |b, _, probe| {
            let (s, k) = (seq(b), b.index(0));
            rmw(b, s, k, probe);
        },
        adds: &[
            ("insts", 1),
            ("seq_reads", 1),
            ("seq_writes", 1),
            ("seq_rmws", 1),
        ],
        cycles: 3,
    },
    Case {
        name: "dense rmw",
        layout: DENSE,
        body: assoc_rmw,
        adds: &[
            ("insts", 1),
            ("seq_reads", 1),
            ("seq_writes", 1),
            ("dense_rmws", 1),
        ],
        cycles: 3,
    },
    Case {
        name: "hashed rmw",
        layout: Repr::Default,
        body: assoc_rmw,
        adds: &[("insts", 1), ("assoc_ops", 1), ("assoc_rmws", 1)],
        cycles: 9,
    },
    Case {
        name: "field read, 56-byte object",
        layout: Repr::Default,
        body: |b, env, probe| field_read(b, env.small, probe),
        adds: &[("insts", 1), ("field_ops", 1), ("field_lines", 1)],
        cycles: 2,
    },
    Case {
        name: "field read, 72-byte object",
        layout: Repr::Default,
        body: |b, env, probe| field_read(b, env.big, probe),
        adds: &[("insts", 1), ("field_ops", 1), ("field_lines", 2)],
        cycles: 3,
    },
    Case {
        name: "keys of 3",
        layout: Repr::Default,
        body: |b, _, probe| {
            let a = assoc(b);
            for k in [2, 3] {
                let k = b.i64(k);
                b.mut_write(a, k, k);
            }
            if probe {
                b.keys(a);
            }
        },
        adds: COPY_OF_3,
        cycles: 12 + 2 * 3,
    },
    Case {
        name: "copy of 3",
        layout: Repr::Default,
        body: |b, _, probe| {
            let s = seq(b);
            if probe {
                b.copy(s);
            }
        },
        adds: COPY_OF_3,
        cycles: 12 + 2 * 3,
    },
    Case {
        name: "call",
        layout: Repr::Default,
        body: |b, env, probe| {
            if probe {
                b.call(Callee::Func(env.g), vec![], &[]);
            }
        },
        adds: &[("insts", 1), ("calls", 1)],
        cycles: 6,
    },
];

/// Every counter of `s`, by name, in field order.
fn counters(s: &ExecStats) -> [(&'static str, u64); 21] {
    let ExecStats {
        insts,
        seq_reads,
        seq_writes,
        assoc_ops,
        field_ops,
        elements_moved,
        collection_copies,
        allocations,
        bytes_allocated,
        calls,
        scalars,
        seq_accesses,
        inline_accesses,
        dense_accesses,
        assoc_lookups,
        assoc_stores,
        seq_rmws,
        dense_rmws,
        assoc_rmws,
        field_lines,
        elements_reserved,
        cost: _,
    } = *s;
    [
        ("insts", insts),
        ("seq_reads", seq_reads),
        ("seq_writes", seq_writes),
        ("assoc_ops", assoc_ops),
        ("field_ops", field_ops),
        ("elements_moved", elements_moved),
        ("collection_copies", collection_copies),
        ("allocations", allocations),
        ("bytes_allocated", bytes_allocated),
        ("calls", calls),
        ("scalars", scalars),
        ("seq_accesses", seq_accesses),
        ("inline_accesses", inline_accesses),
        ("dense_accesses", dense_accesses),
        ("assoc_lookups", assoc_lookups),
        ("assoc_stores", assoc_stores),
        ("seq_rmws", seq_rmws),
        ("dense_rmws", dense_rmws),
        ("assoc_rmws", assoc_rmws),
        ("field_lines", field_lines),
        ("elements_reserved", elements_reserved),
    ]
}

/// Runs `case`'s `main`, with the instruction under test or without it.
fn run(case: &Case, probe: bool) -> ExecStats {
    let mut mb = ModuleBuilder::new("prices");
    let i64t = mb.module.types.intern(Type::I64);
    let mut object = |name: &str, n: usize| {
        let fields = (0..n).map(|k| Field {
            name: format!("f{k}"),
            ty: i64t,
        });
        mb.module
            .types
            .define_object(name, fields.collect())
            .unwrap()
    };
    let (small, big) = (object("small", 7), object("big", 9));
    let g = mb.func("g", Form::Mut, |b| b.ret(vec![]));
    let env = Env { small, big, g };
    let main = mb.func("main", Form::Mut, |b| {
        (case.body)(b, &env, probe);
        b.ret(vec![]);
    });
    let m = mb.finish();
    memoir_ir::verifier::assert_valid(&m);
    let f = &m.funcs[main];
    let site = f.inst_ids_in_order().into_iter().find(|&(_, i)| {
        matches!(
            f.insts[i].kind,
            InstKind::NewSeq { .. } | InstKind::NewAssoc { .. }
        )
    });
    let mut choices = ReprChoices::new();
    if let Some((_, site)) = site {
        choices.insert((main, site), case.layout);
    }
    let mut interp = Interp::new(&m).with_repr_choices(choices);
    interp.run(main, vec![]).unwrap();
    interp.stats
}

#[test]
fn each_instruction_adds_its_counts_and_its_price() {
    for case in CASES {
        let (without, with) = (run(case, false), run(case, true));
        let added: Vec<(&str, u64)> = counters(&with)
            .into_iter()
            .zip(counters(&without))
            .filter(|((_, w), (_, wo))| w != wo)
            .map(|((name, w), (_, wo))| (name, w - wo))
            .collect();
        assert_eq!(added, case.adds, "{}: counters", case.name);
        let priced: u64 = COST_TABLE
            .iter()
            .filter_map(|&(name, weight, _)| {
                let (_, n) = case.adds.iter().find(|(c, _)| *c == name)?;
                Some(weight * n)
            })
            .sum();
        assert_eq!(priced, case.cycles, "{}: the table's price", case.name);
        assert_eq!(
            with.cost - without.cost,
            case.cycles as f64,
            "{}: cost",
            case.name
        );
    }
}
