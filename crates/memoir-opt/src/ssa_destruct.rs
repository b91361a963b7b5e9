//! SSA destruction: MEMOIR SSA form → MUT form (paper §VI, Alg. 3).
//!
//! Destruction coalesces collection SSA versions back onto storage cells,
//! replacing functional updates with in-place mutations. The central
//! concern — exactly as the paper stresses — is **avoiding spurious
//! copies**: a functional update `S₁ = WRITE(S₀, …)` may mutate `S₀`'s
//! storage in place *iff `S₀` is dead after the use*; otherwise a copy is
//! materialized first (Alg. 3's `COPY` helper). Each SSA update becomes
//! its Fig. 5 mut pair ([`InstKind::to_mut`]); `USEφ`s are folded away.
//! A web of φs over collections whose every incoming from outside the web
//! is one storage handle is bound to that handle; the other φs over
//! collections remain as φs over storage *handles*, which is the
//! coalescing representation this implementation uses in place of Alg. 3's
//! sequence views (see DESIGN.md §6).
//!
//! Interprocedurally, destruction re-materializes the MUT calling
//! convention: an SSA function that returns an updated version of a
//! parameter's storage chain (the explicit RETφ) is rewritten to take that
//! parameter **by reference** and the extra return is dropped. Which
//! parameter a return aliases is [`ReturnAliases`]' answer (optimistic
//! inside recursive components); destruction builds each body under it and
//! retracts any position whose returned handle a copy cut off from the
//! parameter, until the component's plans hold.

use memoir_analysis::{CallGraph, Liveness, ReturnAliases};
use memoir_ir::{
    BlockId, Callee, Form, FuncId, Function, InstId, InstKind, Module, ObjTypeId, TypeId, ValueDef,
    ValueId,
};
use std::collections::HashMap;

/// Statistics reported by destruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DestructStats {
    /// Copies materialized because an operand was live after a consuming
    /// use. Zero for programs whose SSA chains are linear (Table III's
    /// "no spurious copies from SSA construction" claim). The claim also
    /// needs every by-ref collection parameter restored: one left by
    /// value costs its callers a run-time copy per call that this count
    /// does not see, so `bench paper table3` checks both.
    pub copies_inserted: usize,
    /// Functions whose signature was rewritten back to by-reference.
    pub byref_params_restored: usize,
}

/// Destructs every SSA-form function of the module back to mut form.
pub fn destruct_ssa(m: &mut Module) -> DestructStats {
    let cg = CallGraph::compute(m);
    let returns = ReturnAliases::compute(m, &cg);
    let mut stats = DestructStats::default();

    // Per function: ret position → the parameter it becomes by reference
    // (the by-ref restoration plan): the return-alias plan, where a
    // parameter backs at most one position, pruned per SCC.
    let mut aliases: HashMap<FuncId, Vec<Option<usize>>> = HashMap::new();
    for comp in &cg.sccs {
        for &fid in comp {
            let mut plan = returns.plan(fid);
            for k in 0..plan.len() {
                if plan[k].is_some() && plan[..k].contains(&plan[k]) {
                    plan[k] = None;
                }
            }
            aliases.insert(fid, plan);
        }
        // Prune to a fixed point: rebuild bodies, retract violated
        // assumptions, and commit the bodies built under the plans that
        // held.
        let built = loop {
            let mut built = Vec::new();
            let mut violated: Vec<(FuncId, usize)> = Vec::new();
            for &fid in comp {
                if m.funcs[fid].form != Form::Ssa {
                    continue;
                }
                let (g, bad) = build_destructed(m, fid, &aliases);
                violated.extend(bad.into_iter().map(|r| (fid, r)));
                built.push((fid, g));
            }
            if violated.is_empty() {
                break built;
            }
            for (fid, r) in violated {
                aliases.get_mut(&fid).unwrap()[r] = None;
            }
        };
        for (fid, mut g) in built {
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
        phi_patch: Vec<(InstId, Vec<(BlockId, ValueId)>)>,
        /// φs over collection handles, with their blocks.
        handle_phis: Vec<(BlockId, InstId, ValueId)>,
    }
    let mut ctx = Ctx {
        map: HashMap::new(),
        repr: HashMap::new(),
        phi_patch: Vec::new(),
        handle_phis: Vec::new(),
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
                        g.append_inst(nblock, InstKind::Copy { c: h }, &[ty]).1[0]
                    } else {
                        h
                    }
                }};
            }

            match inst.kind.clone() {
                // Alg. 3: an SSA update becomes its mut pair on the
                // handles of the versions it consumes (copied first while
                // a version is still live), in result order; the other
                // operands map after, by position, since `insert.seq %c,
                // %i, %c` names `%c` twice.
                kind if kind.to_mut().is_some() => {
                    let handles: Vec<ValueId> = kind
                        .versioned_operands()
                        .into_iter()
                        .map(|c| consume!(c))
                        .collect();
                    let mut update = kind.to_mut().expect("a pair");
                    update.visit_operands_mut(|v| *v = op!(*v));
                    let mut consumed = handles.iter();
                    update.visit_versioned_mut(|v| {
                        *v = *consumed.next().expect("a handle per version")
                    });
                    g.append_inst(nblock, update, &[]);
                    for (&r, h) in inst.results.iter().zip(handles) {
                        ctx.repr.insert(r, h);
                    }
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
                        ctx.handle_phis.push((nblock, nid, res[0]));
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

    // A web of handle φs whose every incoming from outside is one handle
    // always holds that handle: bind the web to it, once per web, so no
    // φ is left to execute.
    let mut bound: HashMap<ValueId, ValueId> = HashMap::new();
    for &(_, _, phi) in &ctx.handle_phis {
        if !bound.contains_key(&phi) {
            if let (web, Some(h)) = handle_web(&g, phi) {
                bound.extend(web.into_iter().map(|x| (x, h)));
            }
        }
    }
    for &(b, i, phi) in &ctx.handle_phis {
        if bound.contains_key(&phi) {
            g.remove_inst(b, i);
        }
    }
    g.replace_uses_map(&bound);
    for h in ctx.repr.values_mut() {
        *h = bound.get(h).copied().unwrap_or(*h);
    }
    drop_unchanged_write_backs(m, &mut g);

    // Validate the alias plan: at every ret site, the value returned at an
    // aliased position must be represented by that parameter's handle (a
    // copy breaks the chain).
    let mut violated = Vec::new();
    for (_, i) in old.inst_ids_in_order() {
        if let InstKind::Ret { values } = &old.insts[i].kind {
            for (k, &v) in values.iter().enumerate() {
                if let Some(p) = my_aliases.get(k).copied().flatten() {
                    let got = ctx.repr.get(&v).copied();
                    if got != Some(g.param_values[p]) && !violated.contains(&k) {
                        violated.push(k);
                    }
                }
            }
        }
    }
    (g, violated)
}

/// Drops each collection-field write that stores back the handle a
/// `field.read` of the same object value and field took earlier in its
/// block, when no write of that field (on any object), no `delete` and
/// no call lies between them: the mut ops in between updated that
/// handle in place, and the field still holds it.
fn drop_unchanged_write_backs(m: &Module, g: &mut Function) {
    let mut unchanged = Vec::new();
    for (b, block) in g.blocks.iter() {
        // Handle → the (object, type, field) it was read from, while no
        // write, delete or call has cut it off from the field.
        let mut held: HashMap<ValueId, (ValueId, ObjTypeId, u32)> = HashMap::new();
        for &i in &block.insts {
            match g.insts[i].kind {
                InstKind::FieldRead { obj, obj_ty, field } => {
                    let h = g.insts[i].results[0];
                    if m.types.get(g.value_ty(h)).is_collection() {
                        held.insert(h, (obj, obj_ty, field));
                    }
                }
                InstKind::FieldWrite {
                    obj,
                    obj_ty,
                    field,
                    value,
                } => {
                    if held.get(&value) == Some(&(obj, obj_ty, field)) {
                        unchanged.push((b, i));
                    } else {
                        held.retain(|_, &mut (_, t, k)| (t, k) != (obj_ty, field));
                    }
                }
                InstKind::DeleteObj { .. } | InstKind::Call { .. } => held.clear(),
                _ => {}
            }
        }
    }
    for (b, i) in unchanged {
        g.remove_inst(b, i);
    }
}

/// The web of handle φs `phi` heads (every φ its incomings reach), and
/// the one handle every incoming from outside the web is, if there is
/// one.
fn handle_web(g: &Function, phi: ValueId) -> (Vec<ValueId>, Option<ValueId>) {
    let mut web = vec![phi];
    let mut leaf = None;
    let mut k = 0;
    while let Some(&x) = web.get(k) {
        match g.values[x].def {
            ValueDef::Inst(i, _) if g.insts[i].kind.is_phi() => {
                k += 1;
                g.insts[i].kind.visit_operands(|&v| {
                    if !web.contains(&v) && leaf != Some(v) {
                        web.push(v);
                    }
                });
            }
            _ if leaf.is_none() => leaf = Some(web.swap_remove(k)),
            _ => return (web, None),
        }
    }
    (web, leaf)
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

    /// A recursive by-ref function with a loop keeps its `&` through the
    /// round trip: quicksort, whose base case returns the parameter, whose
    /// partition loop threads it through a header/latch φ pair, and whose
    /// two self-calls chain it. No copy is inserted or executed.
    #[test]
    fn recursive_byref_round_trip_keeps_the_reference() {
        let mut mb = ModuleBuilder::new("m");
        let sort = mb.module.add_func(Function::new("sort", Form::Mut));
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let mut b = memoir_ir::FunctionBuilder::new(&mut mb.module.types, "sort", Form::Mut);
        let idxt = b.ty(Type::Index);
        let s = b.param_ref("S", seqt);
        let lo = b.param("lo", idxt);
        let hi = b.param("hi", idxt);
        let (done, body) = (b.block("done"), b.block("body"));
        let (header, scan, do_swap) = (b.block("header"), b.block("scan"), b.block("do_swap"));
        let (latch, after) = (b.block("latch"), b.block("after"));
        let one = b.index(1);
        let lo1 = b.add(lo, one);
        let trivial = b.cmp(CmpOp::Le, hi, lo1);
        b.branch(trivial, done, body);
        b.switch_to(done);
        b.ret(vec![]);
        b.switch_to(body);
        let last = b.sub(hi, one);
        let pivot = b.read(s, last);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi_placeholder(idxt);
        let store = b.phi_placeholder(idxt);
        b.add_phi_incoming(i, body, lo);
        b.add_phi_incoming(store, body, lo);
        let scanned = b.cmp(CmpOp::Ge, i, last);
        b.branch(scanned, after, scan);
        b.switch_to(scan);
        let v = b.read(s, i);
        let below = b.cmp(CmpOp::Lt, v, pivot);
        b.branch(below, do_swap, latch);
        b.switch_to(do_swap);
        let i1 = b.add(i, one);
        b.mut_swap(s, i, i1, store);
        let store1 = b.add(store, one);
        b.jump(latch);
        b.switch_to(latch);
        let store_next = b.phi(idxt, vec![(do_swap, store1), (scan, store)]);
        let i_next = b.add(i, one);
        b.add_phi_incoming(i, latch, i_next);
        b.add_phi_incoming(store, latch, store_next);
        b.jump(header);
        b.switch_to(after);
        let store_end = b.add(store, one);
        b.mut_swap(s, store, store_end, last);
        b.call(Callee::Func(sort), vec![s, lo, store], &[]);
        b.call(Callee::Func(sort), vec![s, store_end, hi], &[]);
        b.ret(vec![]);
        mb.module.funcs[sort] = b.finish();
        mb.func("main", Form::Mut, |b| {
            let zero = b.index(0);
            let s = b.new_seq(i64t, zero);
            for x in [5, 3, 9, 1, 7, 2, 8] {
                let end = b.size(s);
                let x = b.i64(x);
                b.mut_insert(s, end, Some(x));
            }
            let n = b.size(s);
            b.call(Callee::Func(sort), vec![s, zero, n], &[]);
            let ten = b.i64(10);
            let mut acc = b.i64(0);
            for k in 0..7 {
                let k = b.index(k);
                let x = b.read(s, k);
                let shifted = b.mul(acc, ten);
                acc = b.add(shifted, x);
            }
            b.returns(&[i64t]);
            b.ret(vec![acc]);
        });
        let m0 = mb.finish();
        memoir_ir::verifier::assert_valid(&m0);
        let mut m = m0.clone();
        construct_ssa(&mut m).unwrap();
        let stats = destruct_ssa(&mut m);
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(stats.copies_inserted, 0);
        assert!(m.funcs[sort].params[0].by_ref, "`&S` restored");
        assert!(m.funcs[sort].ret_tys.is_empty(), "RETφ dropped");

        let r0 = Interp::new(&m0).run_by_name("main", vec![]).unwrap();
        let mut i1 = Interp::new(&m);
        let r1 = i1.run_by_name("main", vec![]).unwrap();
        assert_eq!(r1, r0);
        assert_eq!(r1, vec![Value::Int(Type::I64, 1235789)]);
        assert_eq!(i1.stats.collection_copies, 0);
    }

    /// A write-back of the handle a collection field already holds is
    /// dropped; a write of that field on another object, a `delete` of
    /// the object, or a call between the read and the write-back each
    /// keeps it.
    #[test]
    fn unchanged_write_back_is_dropped_unless_the_field_may_have_moved() {
        for between in [None, Some("field.write"), Some("delete"), Some("call")] {
            let mut mb = ModuleBuilder::new("m");
            let i64t = mb.module.types.intern(Type::I64);
            let seq = mb.module.types.seq_of(i64t);
            let field = memoir_ir::Field {
                name: "tags".into(),
                ty: seq,
            };
            let doc = mb.module.types.define_object("Doc", vec![field]).unwrap();
            let doc_ref = mb.module.types.ref_of(doc);
            let g = mb.func("g", Form::Ssa, |b| b.ret(vec![]));
            let f = mb.func("f", Form::Ssa, |b| {
                let o = b.param("o", doc_ref);
                let other = b.param("other", doc_ref);
                let s0 = b.field_read(o, doc, 0);
                match between {
                    Some("field.write") => {
                        let one = b.index(1);
                        let t = b.new_seq(i64t, one);
                        b.field_write(other, doc, 0, t);
                    }
                    Some("delete") => b.delete_obj(o),
                    Some(_) => {
                        b.call(Callee::Func(g), vec![], &[]);
                    }
                    None => {}
                }
                let (zero, seven) = (b.index(0), b.i64(7));
                let s1 = b.write(s0, zero, seven);
                b.field_write(o, doc, 0, s1);
                b.ret(vec![]);
            });
            let mut m = mb.finish();
            memoir_ir::verifier::assert_valid(&m);
            destruct_ssa(&mut m);
            memoir_ir::verifier::assert_valid(&m);
            let fm = &m.funcs[f];
            let o = fm.param_values[0];
            let write_backs = fm
                .inst_ids_in_order()
                .into_iter()
                .filter(|&(_, i)| matches!(fm.insts[i].kind, InstKind::FieldWrite { obj, .. } if obj == o))
                .count();
            assert_eq!(write_backs, between.is_some() as usize, "{between:?}");
        }
    }
}
