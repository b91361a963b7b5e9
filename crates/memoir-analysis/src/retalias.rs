//! Return-alias analysis: which parameter a returned collection is.
//!
//! SSA construction turns a by-reference collection parameter into a value
//! parameter plus an extra return, the explicit RETφ. Two passes need that
//! link back: SSA destruction makes such a position a by-reference
//! parameter again (Alg. 3), and DEE call specialization bounds the
//! aliased argument and returns it unchanged from a clone's empty-window
//! early exit.
//!
//! Ret position `k` of an SSA function *aliases* parameter `p` when the
//! collection at every `ret` site roots at `p`. A value roots at `p`
//! through SSA updates (`write`, `rmw`, `insert`, `insert.seq`, `remove`,
//! `remove.range`, `swap`, USEφ, and `swap2` by result index), through φs
//! whose incomings agree (a cycle agrees with anything), and through calls
//! whose callee's plan maps that result to an argument. A `copy` roots
//! nowhere. Mut-form functions and scalar positions alias nothing.
//!
//! Plans are computed leaves-first over [`CallGraph::sccs`]. Inside a
//! recursive component every position starts at "agrees with anything"
//! and only falls, so a self-call's result agrees with the base case the
//! function is then shown to return (qsort's `ret %S` and `ret` of its
//! recursive calls). Inside a function the roots of all values are one
//! such optimistic fixed point.

use crate::callgraph::CallGraph;
use memoir_ir::{Callee, Form, FuncId, InstKind, Module, ValueDef};
use std::collections::HashMap;

/// Where a value's storage comes from: the lattice of the analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Root {
    /// No constraint yet (a cycle, or a call not yet summarized).
    Any,
    /// The storage of this parameter.
    Param(usize),
    /// No single parameter.
    None,
}

impl Root {
    fn meet(self, other: Root) -> Root {
        match (self, other) {
            (Root::Any, x) | (x, Root::Any) => x,
            (a, b) if a == b => a,
            _ => Root::None,
        }
    }
}

/// Per function, the parameter each ret position aliases.
#[derive(Clone, Debug)]
pub struct ReturnAliases {
    roots: HashMap<FuncId, Vec<Root>>,
}

impl ReturnAliases {
    /// Computes every function's plan, leaves-first over the call graph
    /// and to a fixed point inside each recursive component.
    pub fn compute(m: &Module, cg: &CallGraph) -> Self {
        let mut roots: HashMap<FuncId, Vec<Root>> = HashMap::new();
        for comp in &cg.sccs {
            for &fid in comp {
                roots.insert(fid, vec![Root::Any; m.funcs[fid].ret_tys.len()]);
            }
            let mut changed = true;
            while changed {
                changed = false;
                for &fid in comp {
                    let r = ret_roots(m, fid, &roots);
                    if roots[&fid] != r {
                        roots.insert(fid, r);
                        changed = true;
                    }
                }
            }
        }
        ReturnAliases { roots }
    }

    /// The plan of `f`: for each ret position, the parameter it aliases.
    pub fn plan(&self, f: FuncId) -> Vec<Option<usize>> {
        let n = self.roots.get(&f).map_or(0, Vec::len);
        (0..n).map(|k| self.param_of(f, k)).collect()
    }

    /// The parameter ret position `k` of `f` aliases, if any. A position
    /// still unconstrained at the fixed point never returns; it aliases
    /// nothing.
    pub fn param_of(&self, f: FuncId, k: usize) -> Option<usize> {
        match self.roots.get(&f)?.get(k)? {
            Root::Param(p) => Some(*p),
            Root::Any | Root::None => None,
        }
    }
}

/// The roots of `fid`'s ret positions, given the current roots of every
/// function it may call.
fn ret_roots(m: &Module, fid: FuncId, callees: &HashMap<FuncId, Vec<Root>>) -> Vec<Root> {
    let f = &m.funcs[fid];
    if f.form != Form::Ssa {
        return vec![Root::None; f.ret_tys.len()];
    }
    let mut root: Vec<Root> = f
        .values
        .iter()
        .map(|(_, v)| match v.def {
            ValueDef::Param(i) => Root::Param(i as usize),
            ValueDef::Const(_) => Root::None,
            ValueDef::Inst(..) => Root::Any,
        })
        .collect();
    let order = f.inst_ids_in_order();
    let mut changed = true;
    while changed {
        changed = false;
        for &(_, i) in &order {
            let inst = &f.insts[i];
            for (ri, &r) in inst.results.iter().enumerate() {
                let of = |v: memoir_ir::ValueId| root[v.index()];
                let new = match &inst.kind {
                    kind if kind.is_ssa_collection_op() => of(kind.versioned_operands()[ri]),
                    InstKind::Phi { incoming } => incoming
                        .iter()
                        .fold(Root::Any, |acc, &(_, v)| acc.meet(of(v))),
                    InstKind::Call {
                        callee: Callee::Func(t),
                        args,
                    } => match callees.get(t).and_then(|r| r.get(ri)) {
                        Some(Root::Any) => Root::Any,
                        Some(&Root::Param(p)) => args.get(p).map_or(Root::None, |&a| of(a)),
                        _ => Root::None,
                    },
                    _ => Root::None,
                };
                if root[r.index()] != new {
                    root[r.index()] = new;
                    changed = true;
                }
            }
        }
    }
    let mut out = vec![Root::Any; f.ret_tys.len()];
    for &(_, i) in &order {
        if let InstKind::Ret { values } = &f.insts[i].kind {
            for (k, &v) in values.iter().enumerate() {
                let r = if m.types.get(f.ret_tys[k]).is_collection() {
                    root[v.index()]
                } else {
                    Root::None
                };
                out[k] = out[k].meet(r);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{CmpOp, Function, ModuleBuilder, Type};

    /// A qsort-shaped recursive function: the base case returns the
    /// parameter, a header/latch φ pair threads it through the loop, and
    /// two self-calls chain it. Every position aliases `S`.
    #[test]
    fn recursive_function_aliases_its_parameter() {
        let mut mb = ModuleBuilder::new("m");
        let fid = mb.module.add_func(Function::new("sort", Form::Ssa));
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let mut b = memoir_ir::FunctionBuilder::new(&mut mb.module.types, "sort", Form::Ssa);
        let idxt = b.ty(Type::Index);
        let s = b.param("S", seqt);
        let n = b.param("n", idxt);
        let done = b.block("done");
        let header = b.block("header");
        let scan = b.block("scan");
        let do_swap = b.block("do_swap");
        let latch = b.block("latch");
        let after = b.block("after");
        let one = b.index(1);
        let small = b.cmp(CmpOp::Le, n, one);
        let entry = b.func.entry;
        b.branch(small, done, header);
        b.switch_to(done);
        b.returns(&[seqt]);
        b.ret(vec![s]);
        b.switch_to(header);
        let i = b.phi_placeholder(idxt);
        let sh = b.phi_placeholder(seqt);
        let zero = b.index(0);
        b.add_phi_incoming(i, entry, zero);
        b.add_phi_incoming(sh, entry, s);
        let end = b.cmp(CmpOp::Ge, i, n);
        b.branch(end, after, scan);
        b.switch_to(scan);
        let j = b.add(i, one);
        let odd = b.cmp(CmpOp::Lt, j, n);
        b.branch(odd, do_swap, latch);
        b.switch_to(do_swap);
        let sw = b.swap(sh, i, j, zero);
        b.jump(latch);
        b.switch_to(latch);
        let sl = b.phi(seqt, vec![(do_swap, sw), (scan, sh)]);
        b.add_phi_incoming(i, latch, j);
        b.add_phi_incoming(sh, latch, sl);
        b.jump(header);
        b.switch_to(after);
        let half = b.sub(n, one);
        let s1 = b.call(Callee::Func(fid), vec![sh, half], &[seqt])[0];
        let s2 = b.call(Callee::Func(fid), vec![s1, half], &[seqt])[0];
        b.ret(vec![s2]);
        mb.module.funcs[fid] = b.finish();
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let ra = ReturnAliases::compute(&m, &CallGraph::compute(&m));
        assert_eq!(ra.plan(fid), [Some(0)]);
    }

    /// A call's result follows the callee's plan, not the argument at the
    /// same position: `h(t, s)` returns `s`, so `wrap(a, b)`'s second
    /// return, `h(a, b)`, is `b`.
    #[test]
    fn call_result_follows_the_callee_plan() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let h = mb.func("h", Form::Ssa, |b| {
            let t = b.param("t", seqt);
            let s = b.param("s", seqt);
            let zero = b.index(0);
            let v = b.read(t, zero);
            let s1 = b.write(s, zero, v);
            b.returns(&[seqt]);
            b.ret(vec![s1]);
        });
        let wrap = mb.func("wrap", Form::Ssa, |b| {
            let a = b.param("a", seqt);
            let c = b.param("b", seqt);
            let r = b.call(Callee::Func(h), vec![a, c], &[seqt])[0];
            let fresh = b.copy(a);
            b.returns(&[seqt, seqt, seqt]);
            b.ret(vec![a, r, fresh]);
        });
        let m = mb.finish();
        let ra = ReturnAliases::compute(&m, &CallGraph::compute(&m));
        assert_eq!(ra.plan(h), [Some(1)]);
        assert_eq!(ra.plan(wrap), [Some(0), Some(1), None]);
    }

    /// Two ret sites rooted at different parameters alias neither, and a
    /// scalar position aliases nothing.
    #[test]
    fn disagreeing_rets_and_scalars_alias_nothing() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let f = mb.func("pick", Form::Ssa, |b| {
            let a = b.param("a", seqt);
            let c = b.param("b", seqt);
            let x = b.param("x", i64t);
            let left = b.block("left");
            let right = b.block("right");
            let zero = b.i64(0);
            let go_left = b.cmp(CmpOp::Lt, x, zero);
            b.branch(go_left, left, right);
            b.returns(&[seqt, i64t]);
            b.switch_to(left);
            b.ret(vec![a, x]);
            b.switch_to(right);
            b.ret(vec![c, x]);
        });
        let m = mb.finish();
        let ra = ReturnAliases::compute(&m, &CallGraph::compute(&m));
        assert_eq!(ra.plan(f), [None, None]);
    }
}
