//! Checks every row of the collection-op table in `memoir-ir`, one row
//! at a time, against `memoir-interp`:
//!
//! * **query rows** ([`InstKind::query_step`]): for every op, every
//!   query (`size`, `has k`, `read k`) on its result, and every key
//!   relation true of the concrete keys plus `Unknown`,
//!   - a pass `Pass(prev, d)`: if the op and the query on `prev`
//!     succeed, the query on the result succeeds and equals the query on
//!     `prev` plus `d`;
//!   - an answer (`Operand` or `Const`): if the op succeeds, the query on
//!     the result succeeds and equals the answer;
//! * **Fig. 5's pairs** ([`InstKind::to_mut`]): the mut op traps exactly
//!   when the SSA op does, and otherwise leaves the same contents as the
//!   SSA op's results.
//!
//! The bound: sequences of length at most 3, associative arrays with keys
//! ⊆ {0, 1, 2}, element and op values in {0, 1}, op and query keys in
//! 0..=3. `has` is checked on associative arrays only: the verifier
//! rejects it on a sequence.

use memoir::interp::{const_value, Collection, Interp, Key, Value};
use memoir::ir::{
    BinOp, Form, Function, FunctionBuilder, InstKind, KeyRel, Module, ModuleBuilder, Query,
    QueryStep, Type, TypeId, ValueId,
};

/// The operands an op takes from its function's parameters, and the
/// element and key types `new` takes.
struct P {
    c: ValueId,
    j: ValueId,
    x: ValueId,
    j2: ValueId,
    at: ValueId,
    src: ValueId,
    elem: TypeId,
    key: TypeId,
}

type Op = (&'static str, fn(&P) -> InstKind);

const SEQ_OPS: &[Op] = &[
    ("new", |p| InstKind::NewSeq {
        elem: p.elem,
        len: p.j,
    }),
    ("copy", |p| InstKind::Copy { c: p.c }),
    ("usephi", |p| InstKind::UsePhi { c: p.c }),
    ("write", |p| InstKind::Write {
        c: p.c,
        idx: p.j,
        value: p.x,
    }),
    ("rmw", |p| InstKind::Rmw {
        c: p.c,
        idx: p.j,
        op: BinOp::Add,
        value: p.x,
    }),
    ("insert", |p| InstKind::Insert {
        c: p.c,
        idx: p.j,
        value: Some(p.x),
    }),
    ("insert uninit", |p| InstKind::Insert {
        c: p.c,
        idx: p.j,
        value: None,
    }),
    ("insert.seq", |p| InstKind::InsertSeq {
        c: p.c,
        idx: p.j,
        src: p.src,
    }),
    ("remove", |p| InstKind::Remove { c: p.c, idx: p.j }),
    ("remove.range", |p| InstKind::RemoveRange {
        c: p.c,
        from: p.j,
        to: p.j2,
    }),
    ("copy.range", |p| InstKind::CopyRange {
        c: p.c,
        from: p.j,
        to: p.j2,
    }),
    ("swap", |p| InstKind::Swap {
        c: p.c,
        from: p.j,
        to: p.j2,
        at: p.at,
    }),
    ("swap2", |p| InstKind::Swap2 {
        a: p.c,
        from: p.j,
        to: p.j2,
        b: p.src,
        at: p.at,
    }),
];

const ASSOC_OPS: &[Op] = &[
    ("new", |p| InstKind::NewAssoc {
        key: p.key,
        value: p.elem,
    }),
    ("copy", |p| InstKind::Copy { c: p.c }),
    ("usephi", |p| InstKind::UsePhi { c: p.c }),
    ("write", |p| InstKind::Write {
        c: p.c,
        idx: p.j,
        value: p.x,
    }),
    ("rmw", |p| InstKind::Rmw {
        c: p.c,
        idx: p.j,
        op: BinOp::Add,
        value: p.x,
    }),
    ("insert", |p| InstKind::Insert {
        c: p.c,
        idx: p.j,
        value: Some(p.x),
    }),
    ("insert uninit", |p| InstKind::Insert {
        c: p.c,
        idx: p.j,
        value: None,
    }),
    ("remove", |p| InstKind::Remove { c: p.c, idx: p.j }),
];

const KEYS: std::ops::RangeInclusive<i64> = 0..=3;
const VALUES: [i64; 2] = [0, 1];

/// Every sequence of length at most 3 over [`VALUES`].
fn seqs() -> Vec<Vec<i64>> {
    let mut out = vec![vec![]];
    let mut k = 0;
    while k < out.len() {
        if out[k].len() < 3 {
            for x in VALUES {
                let mut s = out[k].clone();
                s.push(x);
                out.push(s);
            }
        }
        k += 1;
    }
    out
}

/// Every associative array with keys ⊆ {0, 1, 2} over [`VALUES`], as
/// `(key, value)` pairs in insertion order.
fn assocs() -> Vec<Vec<(i64, i64)>> {
    let mut out = vec![vec![]];
    for key in 0..3 {
        let mut more = Vec::new();
        for a in &out {
            for x in VALUES {
                let mut a = a.clone();
                a.push((key, x));
                more.push(a);
            }
        }
        out.extend(more);
    }
    out
}

/// One collection kind: its module of op, mut-pair and query functions.
struct Kind {
    seq: bool,
    key: Type,
    module: Module,
}

impl Kind {
    /// Builds `Ssa <op>` for every op, `Mut <op>` for every op with a mut
    /// pair, and the queries `size`, `has` and `read`. Op functions take
    /// `(c, k, j, x, j2, at, src)`: the collection, a key that names the
    /// query's in [`Query`] (rows see keys only through the relation),
    /// the op's keys and value, and a source sequence.
    fn new(seq: bool, ops: &[Op]) -> Kind {
        let key = if seq { Type::Index } else { Type::I64 };
        let mut mb = ModuleBuilder::new("facts");
        let i64t = mb.module.types.intern(Type::I64);
        let keyt = mb.module.types.intern(key);
        let seqt = mb.module.types.seq_of(i64t);
        let coll = if seq {
            seqt
        } else {
            mb.module.types.assoc_of(keyt, i64t)
        };
        for &(name, op) in ops {
            for form in [Form::Ssa, Form::Mut] {
                let name = format!("{form:?} {name}");
                let mut func = FunctionBuilder::new(&mut mb.module.types, name, form);
                let b = &mut func;
                let by_ref = form == Form::Mut;
                let idx = b.ty(Type::Index);
                let c = b.func.add_param("c", coll, by_ref);
                b.param("k", keyt);
                let p = P {
                    c,
                    j: b.param("j", keyt),
                    x: b.param("x", i64t),
                    j2: b.param("j2", idx),
                    at: b.param("at", idx),
                    src: b.func.add_param("src", seqt, by_ref),
                    elem: i64t,
                    key: keyt,
                };
                let Some(kind) = (match form {
                    Form::Ssa => Some(op(&p)),
                    Form::Mut => op(&p).to_mut(),
                }) else {
                    continue;
                };
                let f = &b.func;
                let tys: Vec<TypeId> = kind
                    .result_types(&*b.types, |v| f.value_ty(v), &[])
                    .unwrap()
                    .into_iter()
                    .map(|t| b.types.intern(t))
                    .collect();
                let at = b.current_block();
                let results = b.func.append_inst(at, kind, &tys).1;
                b.returns(&tys);
                b.ret(results);
                let f = func.finish();
                mb.module.add_func(f);
            }
        }
        type Ask = fn(&mut FunctionBuilder<'_>, ValueId, ValueId) -> ValueId;
        let asks: [(&str, Type, Ask); 3] = [
            ("size", Type::Index, |b, c, _| b.size(c)),
            ("has", Type::Bool, |b, c, k| b.has(c, k)),
            ("read", Type::I64, |b, c, k| b.read(c, k)),
        ];
        for (name, ret, ask) in asks {
            if seq && name == "has" {
                continue;
            }
            mb.func(name, Form::Ssa, |b| {
                let c = b.param("c", coll);
                let k = b.param("k", keyt);
                let r = ask(b, c, k);
                let rt = b.ty(ret);
                b.returns(&[rt]);
                b.ret(vec![r]);
            });
        }
        Kind {
            seq,
            key,
            module: mb.finish(),
        }
    }

    /// The queries on this kind's results: name and key.
    fn queries(&self) -> Vec<(&'static str, i64)> {
        let mut out = vec![("size", 0)];
        for key in KEYS {
            if !self.seq {
                out.push(("has", key));
            }
            out.push(("read", key));
        }
        out
    }

    /// Every input collection.
    fn inputs(&self) -> Vec<Collection> {
        if self.seq {
            seqs().into_iter().map(seq_of).collect()
        } else {
            assocs()
                .into_iter()
                .map(|kv| Collection::Assoc {
                    map: kv
                        .iter()
                        .map(|&(k, x)| (Key::Int(k), Value::Int(Type::I64, x)))
                        .collect(),
                    order: kv.iter().map(|&(k, _)| Key::Int(k)).collect(),
                })
                .collect()
        }
    }

    /// Every argument tuple of `f`: each operand `f`'s op uses ranges
    /// over its domain, the others stay fixed.
    fn cases(&self, f: &Function) -> Vec<Vec<Arg>> {
        let op = &f.insts[f.blocks[f.entry].insts[0]].kind;
        let uses = |i: usize| op.operands().contains(&f.param_values[i]);
        let keys = |i: usize| -> Vec<Arg> {
            let ks: Vec<i64> = if uses(i) { KEYS.collect() } else { vec![0] };
            ks.into_iter().map(Arg::Int).collect()
        };
        let seqs: Vec<Arg> = seqs().into_iter().map(|s| Arg::Coll(seq_of(s))).collect();
        let domains: Vec<Vec<Arg>> = vec![
            if uses(0) {
                self.inputs().into_iter().map(Arg::Coll).collect()
            } else {
                vec![Arg::Coll(self.inputs().swap_remove(0))]
            },
            vec![Arg::Int(0)],
            keys(2),
            if uses(3) {
                VALUES.map(Arg::Int).to_vec()
            } else {
                vec![Arg::Int(0)]
            },
            keys(4),
            keys(5),
            if uses(6) { seqs } else { seqs[..1].to_vec() },
        ];
        domains.iter().fold(vec![vec![]], |acc, d| {
            acc.iter()
                .flat_map(|prefix| {
                    d.iter().map(move |a| {
                        let mut t = prefix.clone();
                        t.push(a.clone());
                        t
                    })
                })
                .collect()
        })
    }
}

/// One argument of an op function, before it is placed in the store.
#[derive(Clone, Debug)]
enum Arg {
    Int(i64),
    Coll(Collection),
}

fn seq_of(s: Vec<i64>) -> Collection {
    Collection::Seq(s.into_iter().map(|x| Value::Int(Type::I64, x)).collect())
}

/// The checker: one interpreter over a kind's module.
struct Check<'m> {
    kind: &'m Kind,
    interp: Interp<'m>,
    checks: usize,
}

impl Check<'_> {
    /// Places `args` in the store, typed as `f`'s parameters.
    fn values(&mut self, f: &Function, args: &[Arg]) -> Vec<Value> {
        let types = &self.kind.module.types;
        args.iter()
            .zip(&f.params)
            .map(|(a, p)| match a {
                Arg::Int(n) => Value::Int(types.get(p.ty), *n),
                Arg::Coll(c) => Value::Coll(self.interp.store.alloc_coll(c.clone())),
            })
            .collect()
    }

    /// Runs `name` on `args`, `None` on a trap.
    fn run(&mut self, name: &str, args: &[Value]) -> Option<Vec<Value>> {
        self.interp.run_by_name(name, args.to_vec()).ok()
    }

    /// The query `name` with key `key` on collection `c`.
    fn query(&mut self, name: &str, c: Value, key: i64) -> Option<Value> {
        let k = Value::Int(self.kind.key, key);
        Some(self.run(name, &[c, k])?[0])
    }

    fn contents(&self, v: Value) -> Collection {
        self.interp.store.coll(v.as_coll().unwrap()).clone()
    }

    /// Checks every query row of op `name` on one argument tuple.
    fn rows(&mut self, name: &str, f: &Function, args: &[Arg]) {
        let op = &f.insts[f.blocks[f.entry].insts[0]].kind;
        let vals = self.values(f, args);
        let out = self.run(&format!("Ssa {name}"), &vals);
        let arg = |v: ValueId| {
            let i = f.param_values.iter().position(|&p| p == v);
            vals[i.expect("rows name parameters")]
        };
        let k = f.param_values[1];
        for (qname, key) in self.kind.queries() {
            let q = match qname {
                "size" => Query::Size,
                "has" => Query::Has(k),
                _ => Query::Read(k),
            };
            let new = match &out {
                Some(out) => self.query(qname, out[0], key),
                None => None,
            };
            for r in [
                KeyRel::Same,
                KeyRel::Below,
                KeyRel::Unequal,
                KeyRel::Unknown,
            ] {
                // The row may ask about any of its key operands: `r`
                // where it holds of that operand, else `Unknown`.
                let rel = |v: ValueId| {
                    let j = arg(v).as_int().unwrap();
                    if holds(r, key, j) {
                        r
                    } else {
                        KeyRel::Unknown
                    }
                };
                self.checks += 1;
                let want = match op.query_step(q, self.kind.seq, rel) {
                    QueryStep::Pass(prev, d) => match self.query(qname, arg(prev), key) {
                        Some(old) if out.is_some() => plus(old, d),
                        _ => continue,
                    },
                    QueryStep::Operand(v) => arg(v),
                    QueryStep::Const(c) => const_value(c),
                    QueryStep::Stop => continue,
                };
                if out.is_some() {
                    assert_eq!(
                        new,
                        Some(want),
                        "{name} {args:?}: {qname} {key} under {r:?}"
                    );
                }
            }
        }
    }

    /// Checks op `name`'s mut pair on one argument tuple: the same trap,
    /// and the same contents as the SSA op's results.
    fn pair(&mut self, name: &str, f: &Function, args: &[Arg]) {
        let vals = self.values(f, args);
        let out = self.run(&format!("Ssa {name}"), &vals);
        let muts = self.values(f, args);
        let mout = self.run(&format!("Mut {name}"), &muts);
        self.checks += 1;
        assert_eq!(mout.is_some(), out.is_some(), "{name} {args:?}: traps");
        for (r, m) in out.iter().flatten().zip([muts[0], muts[6]]) {
            assert_eq!(
                self.contents(*r),
                self.contents(m),
                "{name} {args:?}: contents"
            );
        }
    }
}

/// Whether `r` is true of query key `k` and op key `j`.
fn holds(r: KeyRel, k: i64, j: i64) -> bool {
    match r {
        KeyRel::Same => k == j,
        KeyRel::Below => k < j,
        KeyRel::Unequal => k != j,
        KeyRel::Unknown => true,
    }
}

/// `v` plus a size delta.
fn plus(v: Value, d: i64) -> Value {
    match v {
        Value::Int(t, n) => Value::Int(t, n + d),
        other => {
            assert_eq!(d, 0, "size delta on {other:?}");
            other
        }
    }
}

/// Checks every query row and mut pair of `ops` on one collection kind;
/// returns the number of checks made.
fn check_kind(seq: bool, ops: &[Op]) -> usize {
    let kind = Kind::new(seq, ops);
    let m = &kind.module;
    let mut check = Check {
        kind: &kind,
        interp: Interp::new(m).with_fuel(u64::MAX),
        checks: 0,
    };
    for &(name, _) in ops {
        let f = &m.funcs[m.func_by_name(&format!("Ssa {name}")).unwrap()];
        let paired = m.func_by_name(&format!("Mut {name}")).is_some();
        for args in kind.cases(f) {
            check.rows(name, f, &args);
            if paired {
                check.pair(name, f, &args);
            }
        }
    }
    check.checks
}

#[test]
fn sequence_rows_and_pairs_hold() {
    assert!(check_kind(true, SEQ_OPS) > 0);
}

#[test]
fn associative_rows_and_pairs_hold() {
    assert!(check_kind(false, ASSOC_OPS) > 0);
}
