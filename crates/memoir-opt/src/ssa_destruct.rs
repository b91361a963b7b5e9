//! SSA destruction: MEMOIR SSA form → MUT form (paper §VI, Alg. 3).
//!
//! Destruction coalesces collection SSA versions back onto storage cells,
//! replacing functional updates with in-place mutations. The central
//! concern — exactly as the paper stresses — is **avoiding spurious
//! copies**: a functional update `S₁ = WRITE(S₀, …)` may mutate `S₀`'s
//! storage in place *iff `S₀` is dead after the use*; otherwise a copy is
//! materialized first (Alg. 3's `COPY` helper). `USEφ`s are folded away.
//! φs over collections remain as φs over storage *handles*, which is the
//! coalescing representation this implementation uses in place of Alg. 3's
//! sequence views (see DESIGN.md §6).
//!
//! Interprocedurally, destruction re-materializes the MUT calling
//! convention: an SSA function that returns an updated version of a
//! parameter's storage chain (the explicit RETφ) is rewritten to take that
//! parameter **by reference** and the extra return is dropped. Recursive
//! functions are handled with an optimistic fixed point: assume every
//! structural ret→param alias holds, rebuild, and retract assumptions
//! invalidated by an inserted copy.

use memoir_analysis::{CallGraph, Liveness};
use memoir_ir::{
    BlockId, Callee, Form, FuncId, Function, InstId, InstKind, Module, TypeId, ValueDef, ValueId,
};
use std::collections::HashMap;

/// Statistics reported by destruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DestructStats {
    /// Copies materialized because an operand was live after a consuming
    /// use. Zero for programs whose SSA chains are linear (Table III's
    /// "no spurious copies from SSA construction" claim).
    pub copies_inserted: usize,
    /// Functions whose signature was rewritten back to by-reference.
    pub byref_params_restored: usize,
}

/// Destructs every SSA-form function of the module back to mut form.
pub fn destruct_ssa(m: &mut Module) -> DestructStats {
    let cg = CallGraph::compute(m);
    let mut stats = DestructStats::default();

    // Per function: ret position → aliased param index (the by-ref
    // restoration plan). Built optimistically per SCC and pruned.
    let mut aliases: HashMap<FuncId, Vec<Option<usize>>> = HashMap::new();

    // Functions not reached by the SCC enumeration (none) default to no
    // aliases.
    for comp in cg.sccs.clone() {
        // Optimistic candidates from the SSA structure.
        for &fid in &comp {
            if m.funcs[fid].form == Form::Ssa {
                let cand = candidate_aliases(m, fid, &aliases, &comp);
                aliases.insert(fid, cand);
            } else {
                aliases.insert(fid, vec![None; m.funcs[fid].ret_tys.len()]);
            }
        }
        // Prune to a fixed point: rebuild bodies, retract violated
        // assumptions.
        loop {
            let mut violated: Vec<(FuncId, usize)> = Vec::new();
            for &fid in &comp {
                if m.funcs[fid].form != Form::Ssa {
                    continue;
                }
                let (_, bad) = build_destructed(m, fid, &aliases);
                violated.extend(bad.into_iter().map(|r| (fid, r)));
            }
            if violated.is_empty() {
                break;
            }
            for (fid, r) in violated {
                aliases.get_mut(&fid).unwrap()[r] = None;
            }
        }
        // Commit.
        for &fid in &comp {
            if m.funcs[fid].form != Form::Ssa {
                continue;
            }
            let (mut g, bad) = build_destructed(m, fid, &aliases);
            debug_assert!(bad.is_empty());
            g.form = Form::Mut;
            stats.copies_inserted += count_copies(&g) - count_copies(&m.funcs[fid]);
            if g.params.iter().any(|p| p.by_ref) {
                stats.byref_params_restored += 1;
            }
            m.funcs[fid] = g;
        }
    }
    stats
}

fn count_copies(f: &Function) -> usize {
    f.inst_ids_in_order()
        .iter()
        .filter(|(_, i)| matches!(f.insts[*i].kind, InstKind::Copy { .. }))
        .count()
}

/// Structural ret→param alias candidates: trace each returned collection
/// back through the SSA update chain; if every path roots at the same
/// parameter, the return is a candidate for by-ref restoration.
fn candidate_aliases(
    m: &Module,
    fid: FuncId,
    committed: &HashMap<FuncId, Vec<Option<usize>>>,
    scc: &[FuncId],
) -> Vec<Option<usize>> {
    let f = &m.funcs[fid];
    let nrets = f.ret_tys.len();
    let mut out: Vec<Option<usize>> = vec![None; nrets];

    // Gather returned values per position across all ret sites; a position
    // is a candidate only if all sites agree on the rooted param.
    let mut per_pos: Vec<Vec<ValueId>> = vec![Vec::new(); nrets];
    for (_, i) in f.inst_ids_in_order() {
        if let InstKind::Ret { values } = &f.insts[i].kind {
            for (k, &v) in values.iter().enumerate() {
                per_pos[k].push(v);
            }
        }
    }
    for (k, vals) in per_pos.iter().enumerate() {
        if vals.is_empty() {
            continue;
        }
        let mut root: Option<usize> = None;
        let mut ok = true;
        for &v in vals {
            match trace_root(m, fid, v, committed, scc, &mut Vec::new()) {
                Some(p) => match root {
                    None => root = Some(p),
                    Some(r) if r == p => {}
                    _ => {
                        ok = false;
                        break;
                    }
                },
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            // A param may back at most one return position.
            if let Some(p) = root {
                if !out.contains(&Some(p)) {
                    out[k] = Some(p);
                }
            }
        }
    }
    out
}

/// Traces the storage chain of `v` back to a parameter index, following
/// SSA updates, φs, USEφs, and calls whose returns alias their params
/// (optimistically for in-SCC callees). `visiting` cuts φ cycles.
fn trace_root(
    m: &Module,
    fid: FuncId,
    v: ValueId,
    committed: &HashMap<FuncId, Vec<Option<usize>>>,
    scc: &[FuncId],
    visiting: &mut Vec<ValueId>,
) -> Option<usize> {
    let f = &m.funcs[fid];
    if visiting.contains(&v) {
        // φ cycle: no constraint from this path; the caller treats a
        // cyclic path as agreeing with the others. Encoded as a special
        // marker via recursion — here we simply return the result of the
        // other incomings by signaling "agnostic" with a sentinel. We use
        // usize::MAX as the agnostic marker.
        return Some(usize::MAX);
    }
    match &f.values[v].def {
        ValueDef::Param(i) => Some(*i as usize),
        ValueDef::Const(_) => None,
        ValueDef::Inst(iid, ri) => {
            let inst = &f.insts[*iid];
            match &inst.kind {
                InstKind::Write { c, .. }
                | InstKind::Rmw { c, .. }
                | InstKind::Insert { c, .. }
                | InstKind::InsertSeq { c, .. }
                | InstKind::Remove { c, .. }
                | InstKind::RemoveRange { c, .. }
                | InstKind::Swap { c, .. }
                | InstKind::UsePhi { c } => {
                    visiting.push(v);
                    let r = trace_root(m, fid, *c, committed, scc, visiting);
                    visiting.pop();
                    r
                }
                InstKind::Swap2 { a, b, .. } => {
                    let src = if *ri == 0 { *a } else { *b };
                    visiting.push(v);
                    let r = trace_root(m, fid, src, committed, scc, visiting);
                    visiting.pop();
                    r
                }
                InstKind::Phi { incoming } => {
                    visiting.push(v);
                    let mut root: Option<usize> = None;
                    let mut ok = true;
                    for (_, inc) in incoming {
                        match trace_root(m, fid, *inc, committed, scc, visiting) {
                            Some(p) if p == usize::MAX => {}
                            Some(p) => match root {
                                None => root = Some(p),
                                Some(r) if r == p => {}
                                _ => {
                                    ok = false;
                                    break;
                                }
                            },
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    visiting.pop();
                    if ok {
                        root.or(Some(usize::MAX))
                    } else {
                        None
                    }
                }
                InstKind::Call { callee, args } => {
                    let Callee::Func(target) = callee else {
                        return None;
                    };
                    // Which param does the callee's ret `ri` alias?
                    let callee_alias: Option<usize> = if scc.contains(target) {
                        committed
                            .get(target)
                            .and_then(|a| a.get(*ri as usize).copied().flatten())
                    } else {
                        committed
                            .get(target)
                            .and_then(|a| a.get(*ri as usize).copied().flatten())
                    };
                    // During candidate computation for the first SCC
                    // member, in-SCC callees may be missing: assume the
                    // structural candidate optimistically by tracing the
                    // callee once without recursion (self-calls: assume
                    // ret k aliases the param that position-k extra ret
                    // would — approximated by direct per-position trace of
                    // the callee's own ret chain, cycle-cut by `visiting`).
                    let callee_alias = match callee_alias {
                        Some(p) => Some(p),
                        None if *target == fid => {
                            // Self call during candidate computation: the
                            // position traces to whatever this very
                            // analysis decides; treat as agnostic.
                            return Some(usize::MAX);
                        }
                        None => None,
                    };
                    let p = callee_alias?;
                    let arg = *args.get(p)?;
                    visiting.push(v);
                    let r = trace_root(m, fid, arg, committed, scc, visiting);
                    visiting.pop();
                    r
                }
                _ => None,
            }
        }
    }
}

/// Builds the destructed body of `fid` under the current alias plan.
/// Returns the new function plus the list of ret positions whose alias
/// assumption was violated (a copy broke the chain).
fn build_destructed(
    m: &Module,
    fid: FuncId,
    aliases: &HashMap<FuncId, Vec<Option<usize>>>,
) -> (Function, Vec<usize>) {
    let old = &m.funcs[fid];
    let liveness = Liveness::compute(old);
    let dt = memoir_analysis::DomTree::compute(old);
    let my_aliases = aliases.get(&fid).cloned().unwrap_or_default();

    let mut g = Function::new(old.name.clone(), Form::Mut);
    g.blocks[g.entry].name = old.blocks[old.entry].name.clone();
    // Only dominator-tree-reachable blocks are translated (and only they
    // get a clone): materializing unreachable blocks would leave empty,
    // terminator-less husks behind, which downstream lowering rejects
    // (found by `memoir-fuzz`, crash-7-193 — constprop branch folding
    // strands the dropped arm).
    let reachable: std::collections::HashSet<BlockId> = dt.preorder().into_iter().collect();
    // Old block → new block. The old entry need not be block 0 (DEE's
    // entry guard prepends blocks), so the mapping is explicit.
    let mut bmap: HashMap<BlockId, BlockId> = HashMap::new();
    bmap.insert(old.entry, g.entry);
    for (ob, oblock) in old.blocks.iter() {
        if ob != old.entry && reachable.contains(&ob) {
            let nb = g.add_block(oblock.name.clone().unwrap_or_default());
            bmap.insert(ob, nb);
        }
    }
    // Params: aliased ones become by-ref.
    let by_ref_params: Vec<usize> = my_aliases.iter().flatten().copied().collect();
    for (i, p) in old.params.iter().enumerate() {
        // Note: the old function's param *values* need not be the first
        // value ids (specialized clones add params late); the explicit
        // map below covers them.
        let _ = g.add_param(p.name.clone(), p.ty, by_ref_params.contains(&i));
    }
    // Keep value names aligned where possible.
    for (i, &pv) in old.param_values.iter().enumerate() {
        g.values[g.param_values[i]].name = old.values[pv].name.clone();
    }
    // Returns: drop aliased positions.
    g.ret_tys = old
        .ret_tys
        .iter()
        .enumerate()
        .filter(|(k, _)| my_aliases.get(*k).copied().flatten().is_none())
        .map(|(_, &t)| t)
        .collect();

    struct Ctx {
        /// old value → new value (scalars; collections map to handles).
        map: HashMap<ValueId, ValueId>,
        /// collection SSA value → handle value in the new function.
        repr: HashMap<ValueId, ValueId>,
        copies: usize,
        phi_patch: Vec<(InstId, Vec<(BlockId, ValueId)>)>,
    }
    let mut ctx = Ctx {
        map: HashMap::new(),
        repr: HashMap::new(),
        copies: 0,
        phi_patch: Vec::new(),
    };
    for (i, &pv) in old.param_values.iter().enumerate() {
        ctx.map.insert(pv, g.param_values[i]);
        if m.types.get(old.params[i].ty).is_collection() {
            ctx.repr.insert(pv, g.param_values[i]);
        }
    }

    let is_coll = |v: ValueId| m.types.get(old.value_ty(v)).is_collection();

    // Process blocks in dominator-tree preorder so operand reprs exist.
    for block in dt.preorder() {
        let nblock = bmap[&block];
        let insts = old.blocks[block].insts.clone();
        for (pos, &iid) in insts.iter().enumerate() {
            let inst = old.insts[iid].clone();
            // Resolve an operand: collections via repr, scalars via map,
            // constants interned on demand.
            macro_rules! op {
                ($v:expr) => {{
                    let v: ValueId = $v;
                    if let Some(&h) = ctx.repr.get(&v) {
                        h
                    } else if let Some(&n) = ctx.map.get(&v) {
                        n
                    } else if let ValueDef::Const(c) = old.values[v].def {
                        let ty = old.values[v].ty;
                        let n = g.constant(c, ty);
                        ctx.map.insert(v, n);
                        n
                    } else {
                        panic!("operand {v} unresolved during destruction")
                    }
                }};
            }
            // Get the handle for a consumed collection operand, copying if
            // the SSA value is still live after this instruction (Alg. 3's
            // COPY insertion).
            macro_rules! consume {
                ($v:expr) => {{
                    let v: ValueId = $v;
                    let h = op!(v);
                    if liveness.live_after(old, block, pos, v) {
                        let ty = old.value_ty(v);
                        let copy = g.append_inst(nblock, InstKind::Copy { c: h }, &[ty]).1[0];
                        ctx.copies += 1;
                        copy
                    } else {
                        h
                    }
                }};
            }

            match inst.kind.clone() {
                InstKind::Write { c, idx, value } => {
                    let h = consume!(c);
                    let (ii, vv) = (op!(idx), op!(value));
                    g.append_inst(
                        nblock,
                        InstKind::MutWrite {
                            c: h,
                            idx: ii,
                            value: vv,
                        },
                        &[],
                    );
                    ctx.repr.insert(inst.results[0], h);
                }
                InstKind::Rmw { c, idx, op, value } => {
                    let h = consume!(c);
                    let (ii, vv) = (op!(idx), op!(value));
                    g.append_inst(
                        nblock,
                        InstKind::MutRmw {
                            c: h,
                            idx: ii,
                            op,
                            value: vv,
                        },
                        &[],
                    );
                    ctx.repr.insert(inst.results[0], h);
                }
                InstKind::Insert { c, idx, value } => {
                    let h = consume!(c);
                    let ii = op!(idx);
                    let vv = value.map(|v| op!(v));
                    g.append_inst(
                        nblock,
                        InstKind::MutInsert {
                            c: h,
                            idx: ii,
                            value: vv,
                        },
                        &[],
                    );
                    ctx.repr.insert(inst.results[0], h);
                }
                InstKind::InsertSeq { c, idx, src } => {
                    let h = consume!(c);
                    let (ii, ss) = (op!(idx), op!(src));
                    g.append_inst(
                        nblock,
                        InstKind::MutInsertSeq {
                            c: h,
                            idx: ii,
                            src: ss,
                        },
                        &[],
                    );
                    ctx.repr.insert(inst.results[0], h);
                }
                InstKind::Remove { c, idx } => {
                    let h = consume!(c);
                    let ii = op!(idx);
                    g.append_inst(nblock, InstKind::MutRemove { c: h, idx: ii }, &[]);
                    ctx.repr.insert(inst.results[0], h);
                }
                InstKind::RemoveRange { c, from, to } => {
                    let h = consume!(c);
                    let (ff, tt) = (op!(from), op!(to));
                    g.append_inst(
                        nblock,
                        InstKind::MutRemoveRange {
                            c: h,
                            from: ff,
                            to: tt,
                        },
                        &[],
                    );
                    ctx.repr.insert(inst.results[0], h);
                }
                InstKind::Swap { c, from, to, at } => {
                    let h = consume!(c);
                    let (ff, tt, aa) = (op!(from), op!(to), op!(at));
                    g.append_inst(
                        nblock,
                        InstKind::MutSwap {
                            c: h,
                            from: ff,
                            to: tt,
                            at: aa,
                        },
                        &[],
                    );
                    ctx.repr.insert(inst.results[0], h);
                }
                InstKind::Swap2 { a, from, to, b, at } => {
                    let ha = consume!(a);
                    let hb = consume!(b);
                    let (ff, tt, aa) = (op!(from), op!(to), op!(at));
                    g.append_inst(
                        nblock,
                        InstKind::MutSwap2 {
                            a: ha,
                            from: ff,
                            to: tt,
                            b: hb,
                            at: aa,
                        },
                        &[],
                    );
                    ctx.repr.insert(inst.results[0], ha);
                    ctx.repr.insert(inst.results[1], hb);
                }
                InstKind::UsePhi { c } => {
                    // Copy-folding: the USEφ disappears.
                    let h = op!(c);
                    ctx.repr.insert(inst.results[0], h);
                }
                InstKind::Phi { incoming } => {
                    let ty = old.value_ty(inst.results[0]);
                    let pos_in_block = g.blocks[nblock]
                        .insts
                        .iter()
                        .take_while(|&&i| g.insts[i].kind.is_phi())
                        .count();
                    let (nid, res) = g.insert_inst_at(
                        nblock,
                        pos_in_block,
                        InstKind::Phi { incoming: vec![] },
                        &[ty],
                    );
                    ctx.phi_patch.push((nid, incoming.clone()));
                    if is_coll(inst.results[0]) {
                        ctx.repr.insert(inst.results[0], res[0]);
                    } else {
                        ctx.map.insert(inst.results[0], res[0]);
                    }
                    g.values[res[0]].name = old.values[inst.results[0]].name.clone();
                }
                InstKind::Call { callee, args } => {
                    // Map args; consuming semantics for args bound to
                    // by-ref (aliased) params of the callee.
                    let callee_aliases: Vec<Option<usize>> = match callee {
                        Callee::Func(t) => aliases.get(&t).cloned().unwrap_or_default(),
                        Callee::Extern(_) => Vec::new(),
                    };
                    let byref_positions: Vec<usize> =
                        callee_aliases.iter().flatten().copied().collect();
                    let mut new_args = Vec::with_capacity(args.len());
                    for (k, &a) in args.iter().enumerate() {
                        if byref_positions.contains(&k) && is_coll(a) {
                            new_args.push(consume!(a));
                        } else {
                            new_args.push(op!(a));
                        }
                    }
                    // Result layout: callee's rets minus dropped aliases.
                    // A callee already committed to mut form (earlier SCC)
                    // has the drop folded into its ret_tys.
                    let kept_tys: Vec<TypeId> = match callee {
                        Callee::Func(t) if m.funcs[t].form == Form::Ssa => m.funcs[t]
                            .ret_tys
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| callee_aliases.get(*k).copied().flatten().is_none())
                            .map(|(_, &ty)| ty)
                            .collect(),
                        Callee::Func(t) => m.funcs[t].ret_tys.clone(),
                        Callee::Extern(e) => m.externs[e].ret_tys.clone(),
                    };
                    let res = g
                        .append_inst(
                            nblock,
                            InstKind::Call {
                                callee,
                                args: new_args.clone(),
                            },
                            &kept_tys,
                        )
                        .1;
                    // Bind old results: dropped ones alias the argument
                    // handle; kept ones bind in order.
                    let mut kept_iter = res.into_iter();
                    for (k, &r) in inst.results.iter().enumerate() {
                        match callee_aliases.get(k).copied().flatten() {
                            Some(p) => {
                                let h = new_args[p];
                                ctx.repr.insert(r, h);
                            }
                            None => {
                                let nv = kept_iter.next().expect("result arity");
                                if is_coll(r) {
                                    ctx.repr.insert(r, nv);
                                } else {
                                    ctx.map.insert(r, nv);
                                }
                            }
                        }
                    }
                }
                InstKind::Ret { values } => {
                    let kept: Vec<ValueId> = values
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| my_aliases.get(*k).copied().flatten().is_none())
                        .map(|(_, &v)| op!(v))
                        .collect();
                    g.append_inst(nblock, InstKind::Ret { values: kept }, &[]);
                }
                mut other => {
                    other.visit_operands_mut(|v| {
                        let nv: ValueId = op!(*v);
                        *v = nv;
                    });
                    other.visit_successors_mut(|s| {
                        *s = bmap[s];
                    });
                    let tys: Vec<TypeId> = inst.results.iter().map(|&r| old.value_ty(r)).collect();
                    let res = g.append_inst(nblock, other, &tys).1;
                    for (i, &r) in inst.results.iter().enumerate() {
                        g.values[res[i]].name = old.values[r].name.clone();
                        if is_coll(r) {
                            ctx.repr.insert(r, res[i]);
                        } else {
                            ctx.map.insert(r, res[i]);
                        }
                    }
                }
            }
        }
    }

    // Patch φ incomings (values through repr/map, blocks through bmap).
    // Incomings from *unreachable* predecessors are dropped, not
    // resolved: translation walks the dominator tree, so their values
    // were never mapped — and the verifier's invariant ("one incoming
    // per structural predecessor") deliberately keeps such incomings in
    // the SSA function after constprop branch folding makes an arm
    // unreachable (found by `memoir-fuzz`, crash-7-193).
    for (nid, incoming) in std::mem::take(&mut ctx.phi_patch) {
        let mapped: Vec<(BlockId, ValueId)> = incoming
            .into_iter()
            .filter(|(b, _)| reachable.contains(b))
            .map(|(b, v)| {
                let b = bmap[&b];
                let nv = if let Some(&h) = ctx.repr.get(&v) {
                    h
                } else if let Some(&n) = ctx.map.get(&v) {
                    n
                } else if let ValueDef::Const(c) = old.values[v].def {
                    g.constant(c, old.values[v].ty)
                } else {
                    panic!("phi incoming {v} unresolved during destruction")
                };
                (b, nv)
            })
            .collect();
        if let InstKind::Phi { incoming } = &mut g.insts[nid].kind {
            *incoming = mapped;
        }
    }

    // Validate the alias plan: at every ret site, the value returned at an
    // aliased position must be represented by that parameter's handle.
    let mut violated = Vec::new();
    for (_, i) in old.inst_ids_in_order() {
        if let InstKind::Ret { values } = &old.insts[i].kind {
            for (k, &v) in values.iter().enumerate() {
                if let Some(p) = my_aliases.get(k).copied().flatten() {
                    let want = g.param_values[p];
                    let got = resolve_handle(&g, &ctx.repr, v);
                    if got != Some(want) && !violated.contains(&k) {
                        violated.push(k);
                    }
                }
            }
        }
    }
    (g, violated)
}

/// Resolves the final handle of an SSA value, looking through handle φs
/// whose incomings all agree.
fn resolve_handle(g: &Function, repr: &HashMap<ValueId, ValueId>, v: ValueId) -> Option<ValueId> {
    let mut h = *repr.get(&v)?;
    // Look through self-agreeing φs (bounded walk).
    for _ in 0..8 {
        let ValueDef::Inst(iid, _) = g.values[h].def else {
            break;
        };
        let InstKind::Phi { incoming } = &g.insts[iid].kind else {
            break;
        };
        let mut agree: Option<ValueId> = None;
        let mut all = true;
        for (_, inc) in incoming {
            if *inc == h {
                continue; // self edge through the loop
            }
            match agree {
                None => agree = Some(*inc),
                Some(a) if a == *inc => {}
                _ => {
                    all = false;
                    break;
                }
            }
        }
        match (all, agree) {
            (true, Some(a)) => h = a,
            _ => break,
        }
    }
    Some(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa_construct::construct_ssa;
    use memoir_interp::{Interp, Value};
    use memoir_ir::{CmpOp, ModuleBuilder, Type};

    /// The flagship invariant: construct → destruct introduces **zero**
    /// copies on a linear update chain and preserves semantics.
    #[test]
    fn round_trip_no_spurious_copies() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            for k in 0..4 {
                let ik = b.index(k);
                let vk = b.i64((k * k) as i64);
                b.mut_write(s, ik, vk);
            }
            let zero = b.index(0);
            let two = b.index(2);
            b.mut_swap(s, zero, two, two);
            let r = b.read(s, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let m0 = mb.finish();
        let mut m = m0.clone();
        construct_ssa(&mut m).unwrap();
        let stats = destruct_ssa(&mut m);
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(stats.copies_inserted, 0, "no spurious copies");
        assert!(m.all_in_form(Form::Mut));

        let mut i0 = Interp::new(&m0);
        let r0 = i0.run_by_name("main", vec![]).unwrap();
        let mut i1 = Interp::new(&m);
        let r1 = i1.run_by_name("main", vec![]).unwrap();
        assert_eq!(r0, r1);
        // Runtime copy count must also be zero.
        assert_eq!(i1.stats.collection_copies, 0);
    }

    /// A fan-out use (two writes from one version) requires exactly one
    /// copy — no more, no fewer.
    #[test]
    fn fanout_requires_one_copy() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(1);
            let s0 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v0 = b.i64(0);
            let s1 = b.write(s0, zero, v0);
            let va = b.i64(10);
            let vb = b.i64(20);
            let sa = b.write(s1, zero, va); // s1 live after (used below)
            let sb = b.write(s1, zero, vb);
            let a = b.read(sa, zero);
            let c = b.read(sb, zero);
            let sum = b.add(a, c);
            b.returns(&[i64t]);
            b.ret(vec![sum]);
        });
        let mut m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let m_ssa = m.clone();
        let stats = destruct_ssa(&mut m);
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(stats.copies_inserted, 1);

        let mut i0 = Interp::new(&m_ssa);
        let r0 = i0.run_by_name("main", vec![]).unwrap();
        let mut i1 = Interp::new(&m);
        let r1 = i1.run_by_name("main", vec![]).unwrap();
        assert_eq!(r0, r1);
        assert_eq!(r1, vec![Value::Int(Type::I64, 30)]);
        assert_eq!(i1.stats.collection_copies, 1);
    }

    /// A φ whose predecessor arm becomes unreachable after constprop
    /// branch folding: the arm is still a *structural* predecessor — so
    /// the SSA verifier's "one incoming per predecessor" invariant keeps
    /// its incoming — but destruction only translates dominator-tree
    /// blocks, and it used to panic trying to resolve the untranslated
    /// value (found by `memoir-fuzz`, crash-7-193). The incoming must
    /// simply be dropped.
    #[test]
    fn phi_incoming_from_unreachable_arm_is_dropped() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let x = b.param("x", i64t);
            let yes = b.block("yes");
            let no = b.block("no");
            let join = b.block("join");
            let cond = b.bool(true);
            b.branch(cond, yes, no);
            b.switch_to(yes);
            let a = b.add(x, x); // param-dependent: constprop can't fold it
            b.jump(join);
            b.switch_to(no);
            let c = b.add(x, x);
            b.jump(join);
            b.switch_to(join);
            let p = b.phi(i64t, vec![(yes, a), (no, c)]);
            b.returns(&[i64t]);
            b.ret(vec![p]);
        });
        let mut m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let stats = crate::constprop::constprop(&mut m);
        assert_eq!(stats.branches_folded, 1);
        memoir_ir::verifier::assert_valid(&m);
        destruct_ssa(&mut m);
        memoir_ir::verifier::assert_valid(&m);
        // The stranded arm is not materialized — no empty husk blocks
        // for lowering to choke on.
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        assert_eq!(f.blocks.iter().count(), 3, "entry, live arm, join");
        let mut i = Interp::new(&m);
        let r = i.run_by_name("f", vec![Value::Int(Type::I64, 21)]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::I64, 42)]);
    }

    /// Loop round trip: construct then destruct a loop that fills and sums
    /// a sequence; semantics and zero copies.
    #[test]
    fn loop_round_trip() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let idxt = b.ty(Type::Index);
            let count = b.param("count", idxt);
            let zero_i = b.index(0);
            let s = b.new_seq(i64t, zero_i);
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let one = b.index(1);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(idxt);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero_i);
            let done = b.cmp(CmpOp::Ge, i, count);
            b.branch(done, exit, body);
            b.switch_to(body);
            let iv = b.cast(Type::I64, i);
            let sz = b.size(s);
            b.mut_insert(s, sz, Some(iv));
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.jump(header);
            b.switch_to(exit);
            let szf = b.size(s);
            b.returns(&[idxt]);
            b.ret(vec![szf]);
        });
        let m0 = mb.finish();
        let mut m = m0.clone();
        construct_ssa(&mut m).unwrap();
        memoir_ir::verifier::assert_valid(&m);
        let stats = destruct_ssa(&mut m);
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(stats.copies_inserted, 0);
        for count in [0i64, 3, 9] {
            let args = vec![Value::Int(Type::Index, count)];
            let mut i0 = Interp::new(&m0);
            let r0 = i0.run_by_name("main", args.clone()).unwrap();
            let mut i1 = Interp::new(&m);
            let r1 = i1.run_by_name("main", args).unwrap();
            assert_eq!(r0, r1, "count={count}");
            assert_eq!(i1.stats.collection_copies, 0);
        }
    }

    /// By-ref restoration: an SSA function returning its updated parameter
    /// becomes a by-ref mut function, and the caller threads storage with
    /// zero copies (the RETφ disappears).
    #[test]
    fn byref_restoration_round_trip() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let callee = mb.func("bump", Form::Mut, |b| {
            let s = b.param_ref("s", seqt);
            let zero = b.index(0);
            let v = b.read(s, zero);
            let one = b.i64(1);
            let v2 = b.add(v, one);
            b.mut_write(s, zero, v2);
            b.ret(vec![]);
        });
        mb.func("main", Form::Mut, |b| {
            let n = b.index(1);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(5);
            b.mut_write(s, zero, v);
            b.call(Callee::Func(callee), vec![s], &[]);
            b.call(Callee::Func(callee), vec![s], &[]);
            let r = b.read(s, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let m0 = mb.finish();
        let mut m = m0.clone();
        construct_ssa(&mut m).unwrap();
        let stats = destruct_ssa(&mut m);
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(stats.copies_inserted, 0);
        assert_eq!(stats.byref_params_restored, 1);
        let bump = &m.funcs[m.func_by_name("bump").unwrap()];
        assert!(bump.params[0].by_ref, "by-ref restored");
        assert!(bump.ret_tys.is_empty(), "RETφ dropped");

        let mut i0 = Interp::new(&m0);
        let r0 = i0.run_by_name("main", vec![]).unwrap();
        let mut i1 = Interp::new(&m);
        let r1 = i1.run_by_name("main", vec![]).unwrap();
        assert_eq!(r0, r1);
        assert_eq!(r1, vec![Value::Int(Type::I64, 7)]);
        assert_eq!(i1.stats.collection_copies, 0);
    }
}
