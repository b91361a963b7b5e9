//! Constant propagation and folding, including **element-level** constant
//! propagation along collection def-use chains.
//!
//! The scalar part is conventional folding. The collection part is the
//! paper's Listing 1 scenario: because MEMOIR represents a map update as
//! `A₁ = WRITE(A₀, k, v)`, a later `READ(A₂, k)` can walk the def-use
//! chain and, when keys are statically distinguishable, forward the stored
//! value — something the lowered form (opaque hash-table calls) can never
//! do. `SIZE` and `HAS` fold the same way (`new Seq(n)` ⇒ `n`, `insert`
//! ⇒ `+1`, `has(write(a, k, v), k)` ⇒ `true`): every query walks the
//! chain with [`memoir_analysis::chain::walk`], which reads each op's
//! query row. Only scalar results are forwarded, so no collection live
//! range grows and SSA destruction stays copy-free.
//!
//! Field arrays get the same treatment block-locally (the load-store
//! propagation the paper credits to Extended Array SSA): a `field.read`
//! reached by a `field.write` through the *same reference value* with no
//! intervening write to that field array (through any reference — two
//! distinct SSA references may alias the same object) forwards the stored
//! value. Calls that may write the field (per the purity summaries) kill
//! the facts.

use memoir_analysis::{chain, IndexRanges};
use memoir_ir::{BinOp, CmpOp, Constant, Form, InstKind, Module, Query, QueryStep, Type, ValueId};
use std::collections::HashMap;

/// Statistics from one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConstPropStats {
    /// Scalar instructions folded to constants.
    pub scalars_folded: usize,
    /// Collection reads forwarded along def-use chains (Listing 1).
    pub element_reads_forwarded: usize,
    /// `size` queries folded.
    pub sizes_folded: usize,
    /// Conditional branches turned unconditional.
    pub branches_folded: usize,
}

/// Runs constant propagation over every function. Iterates to a local
/// fixed point.
pub fn constprop(m: &mut Module) -> ConstPropStats {
    constprop_with(m, &mut passman::AnalysisManager::new())
}

/// Like [`constprop`], but takes the purity summaries from a shared
/// [`passman::AnalysisManager`] instead of recomputing them per function
/// per fixpoint round. Constprop folds values and branch conditions
/// without adding or removing calls or field writes, so the summaries
/// fetched up front stay valid for the whole run.
pub fn constprop_with(m: &mut Module, am: &mut passman::AnalysisManager<Module>) -> ConstPropStats {
    let purity = am.get_module::<memoir_analysis::cached::CachedPurity>(m);
    let mut stats = ConstPropStats::default();
    for fid in m.funcs.ids().collect::<Vec<_>>() {
        loop {
            let round = run_function(m, fid, &purity);
            stats.scalars_folded += round.scalars_folded;
            stats.element_reads_forwarded += round.element_reads_forwarded;
            stats.sizes_folded += round.sizes_folded;
            stats.branches_folded += round.branches_folded;
            if round == ConstPropStats::default() {
                break;
            }
        }
    }
    stats
}

fn run_function(
    m: &mut Module,
    fid: memoir_ir::FuncId,
    purity: &memoir_analysis::Purity,
) -> ConstPropStats {
    let mut stats = ConstPropStats::default();
    let mut replacements: HashMap<ValueId, ValueId> = HashMap::new();
    let field_forwards = field_forwarding(m, fid, purity);
    let f = &m.funcs[fid];
    let idx = IndexRanges::new(f);

    // Collect fold candidates first (immutable pass), then apply.
    #[derive(Clone)]
    enum Action {
        ReplaceResult(
            memoir_ir::BlockId,
            memoir_ir::InstId,
            ValueId,
            Constant,
            memoir_ir::TypeId,
        ),
        ForwardResult(memoir_ir::BlockId, memoir_ir::InstId, ValueId, ValueId),
        FoldBranch(memoir_ir::BlockId, memoir_ir::InstId, bool),
    }
    let mut actions: Vec<Action> = Vec::new();

    for (blk, iid) in f.inst_ids_in_order() {
        let inst = &f.insts[iid];
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => {
                if let (Some(a), Some(b)) = (f.value_const(*lhs), f.value_const(*rhs)) {
                    if let Some(c) = fold_bin(*op, a, b) {
                        actions.push(Action::ReplaceResult(
                            blk,
                            iid,
                            inst.results[0],
                            c,
                            f.value_ty(inst.results[0]),
                        ));
                        continue;
                    }
                }
                // Identity simplifications: x+0, x*1, x-0.
                if let Some(b) = f.value_const(*rhs).and_then(Constant::as_int) {
                    let identity = matches!(
                        (op, b),
                        (BinOp::Add, 0)
                            | (BinOp::Sub, 0)
                            | (BinOp::Mul, 1)
                            | (BinOp::Or, 0)
                            | (BinOp::Xor, 0)
                            | (BinOp::Shl, 0)
                            | (BinOp::Shr, 0)
                    );
                    if identity {
                        actions.push(Action::ForwardResult(blk, iid, inst.results[0], *lhs));
                    }
                }
            }
            InstKind::Cmp { op, lhs, rhs } => {
                if let (Some(a), Some(b)) = (f.value_const(*lhs), f.value_const(*rhs)) {
                    if let Some(c) = fold_cmp(*op, a, b) {
                        actions.push(Action::ReplaceResult(
                            blk,
                            iid,
                            inst.results[0],
                            Constant::Bool(c),
                            f.value_ty(inst.results[0]),
                        ));
                    }
                } else if lhs == rhs && matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge) {
                    actions.push(Action::ReplaceResult(
                        blk,
                        iid,
                        inst.results[0],
                        Constant::Bool(true),
                        f.value_ty(inst.results[0]),
                    ));
                } else if lhs == rhs && matches!(op, CmpOp::Ne | CmpOp::Lt | CmpOp::Gt) {
                    actions.push(Action::ReplaceResult(
                        blk,
                        iid,
                        inst.results[0],
                        Constant::Bool(false),
                        f.value_ty(inst.results[0]),
                    ));
                }
            }
            InstKind::Cast { to, value } => {
                if let Some(c) = f.value_const(*value) {
                    if let Some(folded) = fold_cast(m.types.get(*to), c) {
                        actions.push(Action::ReplaceResult(
                            blk,
                            iid,
                            inst.results[0],
                            folded,
                            *to,
                        ));
                    }
                }
            }
            InstKind::Select {
                cond,
                then_value,
                else_value,
            } => {
                if let Some(Constant::Bool(b)) = f.value_const(*cond) {
                    let v = if b { *then_value } else { *else_value };
                    actions.push(Action::ForwardResult(blk, iid, inst.results[0], v));
                }
            }
            InstKind::Phi { incoming } => {
                // All incomings identical (or the φ itself) ⇒ forward.
                let mut uniq: Option<ValueId> = None;
                let mut ok = !incoming.is_empty();
                for (_, v) in incoming {
                    if *v == inst.results[0] {
                        continue;
                    }
                    match uniq {
                        None => uniq = Some(*v),
                        Some(u) if u == *v => {}
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    if let Some(u) = uniq {
                        actions.push(Action::ForwardResult(blk, iid, inst.results[0], u));
                    }
                }
            }
            InstKind::Branch { cond, .. } => {
                if let Some(Constant::Bool(b)) = f.value_const(*cond) {
                    actions.push(Action::FoldBranch(blk, iid, b));
                }
            }
            InstKind::FieldRead { .. } => {
                if let Some(&v) = field_forwards.get(&iid) {
                    actions.push(Action::ForwardResult(blk, iid, inst.results[0], v));
                    stats.element_reads_forwarded += 1;
                }
            }
            // In mut form a collection is a single mutable value, so its
            // chain stops at the allocation even though MUT ops have
            // changed the contents since. SSA form only.
            kind if f.form == Form::Ssa => {
                let Some((q, c)) = kind.query() else { continue };
                let r = inst.results[0];
                let ty = f.value_ty(r);
                let folded = match (q, chain::walk(&m.types, f, &idx, q, c).answer) {
                    (Query::Read(_), Some((QueryStep::Operand(v), _))) => {
                        Action::ForwardResult(blk, iid, r, v)
                    }
                    (_, Some((QueryStep::Const(k), 0))) => {
                        Action::ReplaceResult(blk, iid, r, k, ty)
                    }
                    (Query::Size, Some((QueryStep::Operand(len), d))) => match f.value_const(len) {
                        Some(n) => match n.as_int().and_then(|n| n.checked_add(d)) {
                            Some(n) if n >= 0 => {
                                Action::ReplaceResult(blk, iid, r, Constant::index(n as u64), ty)
                            }
                            _ => continue,
                        },
                        None if d == 0 => Action::ForwardResult(blk, iid, r, len),
                        None => continue,
                    },
                    _ => continue,
                };
                match q {
                    Query::Read(_) => stats.element_reads_forwarded += 1,
                    Query::Size => stats.sizes_folded += 1,
                    Query::Has(_) => {}
                }
                actions.push(folded);
            }
            _ => {}
        }
    }

    if actions.is_empty() {
        return stats;
    }
    let f = &mut m.funcs[fid];
    for action in actions {
        match action {
            Action::ReplaceResult(b, i, r, c, ty) => {
                let cv = f.constant(c, ty);
                replacements.insert(r, cv);
                f.remove_inst(b, i);
                stats.scalars_folded += 1;
            }
            Action::ForwardResult(b, i, r, v) => {
                replacements.insert(r, v);
                f.remove_inst(b, i);
            }
            Action::FoldBranch(from, iid, b) => {
                if let InstKind::Branch {
                    then_target,
                    else_target,
                    ..
                } = f.insts[iid].kind
                {
                    let target = if b { then_target } else { else_target };
                    f.insts[iid].kind = InstKind::Jump { target };
                    stats.branches_folded += 1;
                    // Remove now-stale φ incomings in the dropped target.
                    let dropped = if b { else_target } else { then_target };
                    if dropped != target {
                        for di in f.blocks[dropped].insts.clone() {
                            if let InstKind::Phi { incoming } = &mut f.insts[di].kind {
                                incoming.retain(|(p, _)| *p != from);
                            }
                        }
                    }
                }
            }
        }
    }
    f.replace_uses_map(&replacements);
    stats
}

/// Block-local field-array load-store forwarding: maps forwardable
/// `field.read` instructions to the value last stored through the same
/// reference. Conservative about aliasing: a write through any *other*
/// reference to the same `(type, field)` kills that field array's facts,
/// and calls kill per their effect summaries.
fn field_forwarding(
    m: &Module,
    fid: memoir_ir::FuncId,
    purity: &memoir_analysis::Purity,
) -> HashMap<memoir_ir::InstId, ValueId> {
    use memoir_ir::{Callee, ObjTypeId};
    let f = &m.funcs[fid];
    let mut out = HashMap::new();
    for (_, block) in f.blocks.iter() {
        // (obj value, type, field) → stored value.
        let mut facts: HashMap<(ValueId, ObjTypeId, u32), ValueId> = HashMap::new();
        for &i in &block.insts {
            match &f.insts[i].kind {
                InstKind::FieldWrite {
                    obj,
                    obj_ty,
                    field,
                    value,
                } => {
                    // A write through `obj` invalidates facts held through
                    // any other reference to the same field array.
                    facts.retain(|&(o, t, fi), _| !(t == *obj_ty && fi == *field && o != *obj));
                    facts.insert((*obj, *obj_ty, *field), *value);
                }
                InstKind::FieldRead { obj, obj_ty, field } => {
                    if let Some(&v) = facts.get(&(*obj, *obj_ty, *field)) {
                        out.insert(i, v);
                    }
                }
                InstKind::DeleteObj { .. } => facts.clear(),
                InstKind::Call { callee, .. } => match callee {
                    Callee::Func(t) => {
                        let s = purity.summary(*t);
                        if s.opaque {
                            facts.clear();
                        } else {
                            facts.retain(|&(_, ty, fi), _| !s.writes_fields.contains(&(ty, fi)));
                        }
                    }
                    Callee::Extern(e) => {
                        if m.externs[*e].effects.opaque {
                            facts.clear();
                        }
                    }
                },
                _ => {}
            }
        }
    }
    out
}

fn fold_bin(op: BinOp, a: Constant, b: Constant) -> Option<Constant> {
    match (a, b) {
        (Constant::Int(ty, x), Constant::Int(_, y)) => {
            Some(Constant::Int(ty, ty.truncate(op.eval(x, y)?)))
        }
        (Constant::Bool(x), Constant::Bool(y)) => {
            let v = match op {
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                _ => return None,
            };
            Some(Constant::Bool(v))
        }
        (Constant::Float(ty, xb), Constant::Float(_, yb)) => {
            let (x, y) = (f64::from_bits(xb), f64::from_bits(yb));
            let v = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => return None,
            };
            Some(Constant::Float(ty, v.to_bits()))
        }
        _ => None,
    }
}

fn fold_cmp(op: CmpOp, a: Constant, b: Constant) -> Option<bool> {
    match (a, b) {
        (Constant::Int(ty, x), Constant::Int(_, y)) => Some(op.eval(ty.is_unsigned(), x, y)),
        (Constant::Bool(x), Constant::Bool(y)) => Some(op.holds(x.cmp(&y))),
        (Constant::Float(_, xb), Constant::Float(_, yb)) => {
            let (x, y) = (f64::from_bits(xb), f64::from_bits(yb));
            Some(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            })
        }
        _ => None,
    }
}

fn fold_cast(to: Type, c: Constant) -> Option<Constant> {
    match c {
        Constant::Int(_, v) if to.is_integer() => Some(Constant::Int(to, to.truncate(v))),
        Constant::Int(_, v) if to.is_float() => Some(Constant::Float(to, (v as f64).to_bits())),
        Constant::Bool(b) if to.is_integer() => Some(Constant::Int(to, b as i64)),
        Constant::Float(_, bits) if to.is_integer() => {
            Some(Constant::Int(to, to.truncate(f64::from_bits(bits) as i64)))
        }
        Constant::Float(_, bits) if to.is_float() => Some(Constant::Float(to, bits)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_interp::Value;
    use memoir_ir::{Form, ModuleBuilder};

    /// Listing 1: `map[0] = 10; map[1] = 11; return map[0];` folds to 10
    /// in MEMOIR SSA form.
    #[test]
    fn listing1_map_constant_propagates() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("work", Form::Ssa, |b| {
            let i32t = b.ty(Type::I32);
            let a0 = b.new_assoc(i32t, i32t);
            let k0 = b.i32(0);
            let k1 = b.i32(1);
            let v10 = b.i32(10);
            let v11 = b.i32(11);
            let a1 = b.write(a0, k0, v10);
            let a2 = b.write(a1, k1, v11);
            let r = b.read(a2, k0);
            b.returns(&[i32t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 1);
        // The ret now returns the constant 10 directly.
        let f = &m.funcs[m.func_by_name("work").unwrap()];
        let mut returned = None;
        for (_, i) in f.inst_ids_in_order() {
            if let InstKind::Ret { values } = &f.insts[i].kind {
                returned = values.first().and_then(|&v| f.value_const(v));
            }
        }
        assert_eq!(returned, Some(Constant::i32(10)));
    }

    #[test]
    fn ambiguous_key_blocks_forwarding() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("work", Form::Ssa, |b| {
            let i32t = b.ty(Type::I32);
            let k_unknown = b.param("k", i32t);
            let a0 = b.new_assoc(i32t, i32t);
            let k0 = b.i32(0);
            let v10 = b.i32(10);
            let v11 = b.i32(11);
            let a1 = b.write(a0, k0, v10);
            let a2 = b.write(a1, k_unknown, v11); // may alias key 0
            let r = b.read(a2, k0);
            b.returns(&[i32t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 0);
    }

    #[test]
    fn scalar_folding_chains() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let a = b.i64(6);
            let c = b.i64(7);
            let x = b.mul(a, c);
            let y = b.add(x, x);
            b.returns(&[b.func.value_ty(y)]);
            b.ret(vec![y]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert!(stats.scalars_folded >= 2);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let mut returned = None;
        for (_, i) in f.inst_ids_in_order() {
            if let InstKind::Ret { values } = &f.insts[i].kind {
                returned = values.first().and_then(|&v| f.value_const(v));
            }
        }
        assert_eq!(returned, Some(Constant::i64(84)));
    }

    #[test]
    fn size_folds_through_chain() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(3);
            let s0 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(1);
            let s1 = b.insert(s0, zero, Some(v));
            let s2 = b.write(s1, zero, v);
            let sz = b.size(s2);
            let idxt = b.ty(Type::Index);
            b.returns(&[idxt]);
            b.ret(vec![sz]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.sizes_folded, 1);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let mut returned = None;
        for (_, i) in f.inst_ids_in_order() {
            if let InstKind::Ret { values } = &f.insts[i].kind {
                returned = values.first().and_then(|&v| f.value_const(v));
            }
        }
        assert_eq!(returned, Some(Constant::index(4)));
    }

    #[test]
    fn size_of_new_seq_folds_to_len() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let idxt = b.ty(Type::Index);
            let n = b.param("n", idxt);
            let s = b.new_seq(i64t, n);
            let sz = b.size(s);
            b.returns(&[idxt]);
            b.ret(vec![sz]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.sizes_folded, 1);
        memoir_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn has_after_write_folds_true() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let boolt = b.ty(Type::Bool);
            let assoc_ty = b.types.assoc_of(i64t, i64t);
            let a0 = b.param("a", assoc_ty);
            let k = b.param("k", i64t);
            let v = b.i64(1);
            let a1 = b.write(a0, k, v);
            let h = b.has(a1, k);
            b.returns(&[boolt]);
            b.ret(vec![h]);
        });
        let mut m = mb.finish();
        assert_eq!(constprop(&mut m).scalars_folded, 1);
        memoir_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn constant_branch_becomes_jump() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::I64);
            let yes = b.block("yes");
            let no = b.block("no");
            let cond = b.bool(true);
            b.branch(cond, yes, no);
            b.switch_to(yes);
            let one = b.i64(1);
            b.returns(&[t]);
            b.ret(vec![one]);
            b.switch_to(no);
            let two = b.i64(2);
            b.ret(vec![two]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.branches_folded, 1);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        assert!(f
            .inst_ids_in_order()
            .iter()
            .any(|(_, i)| matches!(f.insts[*i].kind, InstKind::Jump { .. })));
    }

    /// Field-array load-store forwarding (the Extended-Array-SSA
    /// propagation of §VII-D's ConstantFold discussion).
    #[test]
    fn field_write_forwards_to_read() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t",
                vec![memoir_ir::Field {
                    name: "x".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        mb.func("f", Form::Mut, |b| {
            let o = b.new_obj(obj);
            let v = b.i64(5);
            b.field_write(o, obj, 0, v);
            let r = b.field_read(o, obj, 0);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 1);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        for (_, i) in f.inst_ids_in_order() {
            if let InstKind::Ret { values } = &f.insts[i].kind {
                assert_eq!(f.value_const(values[0]), Some(Constant::i64(5)));
            }
        }
    }

    /// A write through a possibly-aliasing second reference kills the
    /// forwarding fact.
    #[test]
    fn aliasing_reference_blocks_field_forwarding() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t",
                vec![memoir_ir::Field {
                    name: "x".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        let ref_ty = mb.module.types.ref_of(obj);
        mb.func("f", Form::Mut, |b| {
            let o = b.new_obj(obj);
            let p = b.param("p", ref_ty); // may alias o? (it cannot here,
                                          // but the analysis is per-value)
            let v5 = b.i64(5);
            let v9 = b.i64(9);
            b.field_write(o, obj, 0, v5);
            b.field_write(p, obj, 0, v9); // kills o's fact
            let r = b.field_read(o, obj, 0);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 0);
    }

    /// An opaque extern call between write and read kills the fact.
    #[test]
    fn opaque_call_blocks_field_forwarding() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t",
                vec![memoir_ir::Field {
                    name: "x".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        let ext = mb.module.add_extern(memoir_ir::ExternDecl {
            name: "io".into(),
            params: vec![],
            ret_tys: vec![],
            effects: memoir_ir::ExternEffects::unknown(),
        });
        mb.func("f", Form::Mut, |b| {
            let o = b.new_obj(obj);
            let v = b.i64(5);
            b.field_write(o, obj, 0, v);
            b.call(memoir_ir::Callee::Extern(ext), vec![], &[]);
            let r = b.field_read(o, obj, 0);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.element_reads_forwarded, 0);
    }

    /// In mut form a collection's def-use chain stops at its allocation,
    /// so size/read folding through the chain would ignore interleaved
    /// MUT ops — it must stay off until SSA construction.
    #[test]
    fn mut_form_blocks_collection_chain_folding() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let zero = b.index(0);
            let s = b.new_seq(i64t, zero);
            let v = b.i64(7);
            let sz0 = b.size(s);
            b.mut_insert(s, sz0, Some(v));
            let sz = b.size(s); // 1 at runtime; the chain says 0
            let r = b.read(s, zero); // 7 at runtime; the chain sees no write
            let szi = b.cast(Type::I64, sz);
            let out = b.add(szi, r);
            b.returns(&[i64t]);
            b.ret(vec![out]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.sizes_folded, 0, "mut-form size must not fold");
        assert_eq!(
            stats.element_reads_forwarded, 0,
            "mut-form read must not forward"
        );
    }

    #[test]
    fn same_operand_compare_folds() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::I64);
            let x = b.param("x", t);
            let e = b.cmp(CmpOp::Le, x, x);
            let boolt = b.ty(Type::Bool);
            b.returns(&[boolt]);
            b.ret(vec![e]);
        });
        let mut m = mb.finish();
        let stats = constprop(&mut m);
        assert_eq!(stats.scalars_folded, 1);
    }

    /// `f() = op(x, y) cmp 0`, folded: the constant `f` returns, and what
    /// `memoir-interp` returns for the unfolded function.
    fn fold_narrow(ty: Type, op: BinOp, x: i64, y: i64, cmp: Option<CmpOp>) -> (Constant, Value) {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(ty);
            let (xv, yv) = (b.int(ty, x), b.int(ty, y));
            let r = b.bin(op, xv, yv);
            let out = match cmp {
                Some(c) => {
                    let zero = b.int(ty, 0);
                    let boolt = b.ty(Type::Bool);
                    b.returns(&[boolt]);
                    b.cmp(c, r, zero)
                }
                None => {
                    b.returns(&[t]);
                    r
                }
            };
            b.ret(vec![out]);
        });
        let mut m = mb.finish();
        let want = memoir_interp::Interp::new(&m)
            .run_by_name("f", vec![])
            .unwrap();
        constprop(&mut m);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let folded = f
            .inst_ids_in_order()
            .into_iter()
            .find_map(|(_, i)| match &f.insts[i].kind {
                InstKind::Ret { values } => f.value_const(values[0]),
                _ => None,
            })
            .expect("the result folds to a constant");
        (folded, want[0])
    }

    #[test]
    fn narrow_add_wraps_before_the_compare() {
        // 127 + 1 wraps to -128 in i8, which is below zero.
        let (folded, run) = fold_narrow(Type::I8, BinOp::Add, 127, 1, Some(CmpOp::Lt));
        assert_eq!(folded, Constant::Bool(true));
        assert_eq!(run, Value::Bool(true));
    }

    #[test]
    fn narrow_mul_wraps_to_the_type() {
        let (folded, run) = fold_narrow(Type::I32, BinOp::Mul, 65536, 65536, None);
        assert_eq!(folded, Constant::Int(Type::I32, 0));
        assert_eq!(run, Value::Int(Type::I32, 0));
    }
}
