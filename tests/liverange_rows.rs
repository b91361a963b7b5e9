//! Table I's liveness rows, one sequence update at a time, against
//! `memoir-interp`.
//!
//! * **Subject.** For each of `write`, `rmw`, `insert`, `remove`,
//!   `remove.range`, `swap` and `copy.range`, `f(s0: Seq<i64>, j, j2,
//!   at)` applies the op to `s0` and reads the result at a constant `K`
//!   in 0..=4.
//! * **Setup.** The live range of `s0` by
//!   `live_ranges(.., &LiveRangeConfig::sound())`, evaluated with `end`
//!   bound to the length of `s0` and the parameters to their values.
//! * **Property.** For every `s0` of length at most 4 over {0, 1} and
//!   every `j`, `j2`, `at` in 0..=4, changing an element of `s0` outside
//!   the range leaves `f`'s result, or its trap, unchanged.

use memoir::analysis::exprtree::{Expr, Term};
use memoir::analysis::{live_ranges, LiveRangeConfig};
use memoir::interp::{Interp, Value};
use memoir::ir::{BinOp, Form, FunctionBuilder, Module, ModuleBuilder, Type, ValueId};

/// An op applied to `(s0, j, j2, at)`, giving the sequence `f` reads.
type Op = fn(&mut FunctionBuilder<'_>, [ValueId; 4]) -> ValueId;

const OPS: [(&str, Op); 7] = [
    ("write", |b, [s, j, _, _]| {
        let v = b.i64(5);
        b.write(s, j, v)
    }),
    ("rmw", |b, [s, j, _, _]| {
        let v = b.i64(5);
        b.rmw(s, j, BinOp::Add, v)
    }),
    ("insert", |b, [s, j, _, _]| {
        let v = b.i64(5);
        b.insert(s, j, Some(v))
    }),
    ("remove", |b, [s, j, _, _]| b.remove(s, j)),
    ("remove.range", |b, [s, j, j2, _]| b.remove_range(s, j, j2)),
    ("swap", |b, [s, j, j2, at]| b.swap(s, j, j2, at)),
    ("copy.range", |b, [s, j, j2, _]| b.copy_range(s, j, j2)),
];

/// The read positions `K`.
const READS: std::ops::RangeInclusive<u64> = 0..=4;

/// Every sequence of length at most 4 over {0, 1}.
fn seqs() -> Vec<Vec<i64>> {
    let mut out = vec![vec![]];
    let mut k = 0;
    while k < out.len() {
        if out[k].len() < 4 {
            for x in [0, 1] {
                let mut s = out[k].clone();
                s.push(x);
                out.push(s);
            }
        }
        k += 1;
    }
    out
}

/// `e` with `end` and the parameters bound; `None` for `Unknown`.
fn eval(e: &Expr, end: i64, param: &dyn Fn(ValueId) -> i64) -> Option<i64> {
    match e {
        Expr::Affine(a) => Some(a.terms.iter().fold(a.konst, |acc, (t, coeff)| {
            acc + coeff
                * match t {
                    Term::End => end,
                    Term::Value(v) => param(*v),
                }
        })),
        Expr::Min(es) => es
            .iter()
            .map(|e| eval(e, end, param))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .min(),
        Expr::Max(es) => es
            .iter()
            .map(|e| eval(e, end, param))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max(),
        Expr::Unknown => None,
    }
}

fn module() -> Module {
    let mut mb = ModuleBuilder::new("rows");
    for (name, op) in OPS {
        for k in READS {
            mb.func(&format!("{name} {k}"), Form::Ssa, |b| {
                let i64t = b.ty(Type::I64);
                let idx = b.ty(Type::Index);
                let seq = b.types.seq_of(i64t);
                let s0 = b.param("s0", seq);
                let j = b.param("j", idx);
                let j2 = b.param("j2", idx);
                let at = b.param("at", idx);
                let s1 = op(b, [s0, j, j2, at]);
                let kv = b.index(k);
                let r = b.read(s1, kv);
                b.returns(&[i64t]);
                b.ret(vec![r]);
            });
        }
    }
    mb.finish()
}

/// The witnesses to the property on `fid`: `(s0, j, j2, at, element)`.
fn witnesses(m: &Module, fid: memoir::ir::FuncId) -> Vec<(Vec<i64>, [i64; 3], usize)> {
    let f = &m.funcs[fid];
    let range = live_ranges(m, fid, &LiveRangeConfig::sound()).range(f.param_values[0]);
    let mut interp = Interp::new(m).with_fuel(u64::MAX);
    let mut out = Vec::new();
    let keys = 0..=4i64;
    for s0 in seqs() {
        for j in keys.clone() {
            for j2 in keys.clone() {
                for at in keys.clone() {
                    let ps = [j, j2, at];
                    let param = |v: ValueId| {
                        let i = f.param_values.iter().position(|&p| p == v);
                        ps[i.expect("ranges name only parameters") - 1]
                    };
                    let end = s0.len() as i64;
                    let lo = eval(&range.lo, end, &param).unwrap_or(0);
                    let hi = eval(&range.hi, end, &param).unwrap_or(end);
                    let mut run = |s: &[i64]| {
                        let s =
                            interp.alloc_seq(s.iter().map(|&x| Value::Int(Type::I64, x)).collect());
                        let mut args = vec![s];
                        args.extend(ps.map(|x| Value::Int(Type::Index, x)));
                        interp.run(fid, args)
                    };
                    let base = run(&s0);
                    for e in 0..s0.len() {
                        if (lo..hi).contains(&(e as i64)) {
                            continue;
                        }
                        let mut changed = s0.clone();
                        changed[e] ^= 1;
                        if run(&changed) != base {
                            out.push((s0.clone(), ps, e));
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn sound_live_ranges_cover_every_observed_element() {
    let m = module();
    for (fid, f) in m.funcs.iter() {
        let found = witnesses(&m, fid);
        assert!(
            found.is_empty(),
            "{}: {} witnesses, first (s0, [j, j2, at], element) = {:?}",
            f.name,
            found.len(),
            found[0]
        );
    }
}
