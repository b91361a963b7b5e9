//! The MEMOIR verifier: structural, type, and SSA invariants.
//!
//! The verifier enforces, per function:
//!
//! * every reachable block ends in exactly one terminator;
//! * φs appear only at block heads and have exactly one incoming per
//!   predecessor;
//! * every use is dominated by its definition (SSA dominance);
//! * operand types satisfy the MEMOIR typing rules of Fig. 2, and every
//!   instruction's result count and types are the instruction table's
//!   ([`InstKind::result_types`]);
//! * form invariants: `Form::Ssa` functions contain no `mut.*`
//!   instructions, `Form::Mut` functions contain no SSA collection
//!   updates or USEφ.

use crate::ids::{BlockId, FuncId, InstId, TypeId, ValueId};
use crate::inst::{Callee, Inst, InstKind};
use crate::{Form, Function, Module, Type, ValueDef};
use std::collections::HashMap;
use std::fmt;

/// A single verification failure.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyError {
    /// Function in which the failure occurred.
    pub func: String,
    /// Offending instruction, if the failure is instruction-local.
    pub inst: Option<InstId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inst {
            Some(i) => write!(f, "[{}:{:?}] {}", self.func, i, self.message),
            None => write!(f, "[{}] {}", self.func, self.message),
        }
    }
}

/// Verifies a whole module. Returns all failures (empty ⇒ valid).
pub fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    for (id, f) in m.funcs.iter() {
        errs.extend(verify_function(m, id, f));
    }
    errs
}

/// Verifies a module, panicking with a readable report on failure. Intended
/// for tests and pass pipelines.
pub fn assert_valid(m: &Module) {
    let errs = verify_module(m);
    if !errs.is_empty() {
        let report: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        panic!("IR verification failed:\n{}", report.join("\n"));
    }
}

struct Ctx<'a> {
    m: &'a Module,
    f: &'a Function,
    errs: Vec<VerifyError>,
}

impl<'a> Ctx<'a> {
    fn err(&mut self, inst: Option<InstId>, msg: impl Into<String>) {
        self.errs.push(VerifyError {
            func: self.f.name.clone(),
            inst,
            message: msg.into(),
        });
    }

    fn ty(&self, v: ValueId) -> Type {
        self.m.types.get(self.f.value_ty(v))
    }
}

/// Verifies a single function.
pub fn verify_function(m: &Module, _id: FuncId, f: &Function) -> Vec<VerifyError> {
    let mut ctx = Ctx {
        m,
        f,
        errs: Vec::new(),
    };
    check_structure(&mut ctx);
    check_types(&mut ctx);
    check_form(&mut ctx);
    check_dominance(&mut ctx);
    ctx.errs
}

fn check_structure(ctx: &mut Ctx<'_>) {
    let f = ctx.f;
    let preds = f.predecessors();
    let reachable: Vec<BlockId> = f.reverse_postorder();
    for &b in &reachable {
        let insts = &f.blocks[b].insts;
        if insts.is_empty() {
            ctx.err(None, format!("block {b} is empty"));
            continue;
        }
        let last = *insts.last().unwrap();
        if !f.insts[last].kind.is_terminator() {
            ctx.err(
                Some(last),
                format!("block {b} does not end in a terminator"),
            );
        }
        let mut seen_non_phi = false;
        for (pos, &i) in insts.iter().enumerate() {
            let kind = &f.insts[i].kind;
            if kind.is_terminator() && pos + 1 != insts.len() {
                ctx.err(Some(i), format!("terminator in the middle of block {b}"));
            }
            if kind.is_phi() {
                if seen_non_phi {
                    ctx.err(Some(i), format!("phi after non-phi in block {b}"));
                }
            } else {
                seen_non_phi = true;
            }
            if let InstKind::Phi { incoming } = kind {
                let mut expected: Vec<BlockId> = preds[b].clone();
                expected.sort();
                expected.dedup();
                let mut got: Vec<BlockId> = incoming.iter().map(|(p, _)| *p).collect();
                got.sort();
                let mut got_d = got.clone();
                got_d.dedup();
                if got_d.len() != got.len() {
                    ctx.err(Some(i), "phi has duplicate incoming blocks".to_string());
                }
                if got_d != expected {
                    ctx.err(
                        Some(i),
                        format!(
                            "phi incoming blocks {:?} do not match predecessors {:?} of {b}",
                            got_d, expected
                        ),
                    );
                }
            }
        }
    }
}

fn expect(ctx: &mut Ctx<'_>, inst: InstId, cond: bool, msg: impl Into<String>) {
    if !cond {
        ctx.err(Some(inst), msg);
    }
}

fn index_like(t: Type) -> bool {
    t == Type::Index
}

fn check_collection_access(ctx: &mut Ctx<'_>, i: InstId, c: ValueId, idx: ValueId) {
    match ctx.ty(c) {
        Type::Seq(_) => {
            let it = ctx.ty(idx);
            expect(
                ctx,
                i,
                index_like(it),
                format!("sequence index must be `index`, got {it:?}"),
            );
        }
        Type::Assoc(k, _) => {
            let kt = ctx.m.types.get(k);
            let it = ctx.ty(idx);
            expect(
                ctx,
                i,
                it == kt,
                format!("assoc key type mismatch: {it:?} vs {kt:?}"),
            );
        }
        other => expect(ctx, i, false, format!("expected collection, got {other:?}")),
    }
}

fn elem_ty(ctx: &Ctx<'_>, c: ValueId) -> Option<Type> {
    match ctx.ty(c) {
        Type::Seq(e) => Some(ctx.m.types.get(e)),
        Type::Assoc(_, v) => Some(ctx.m.types.get(v)),
        _ => None,
    }
}

/// Checks an instruction's results against the instruction table's rule:
/// their count and every type.
fn check_results(ctx: &mut Ctx<'_>, i: InstId, inst: &Inst) {
    let (m, f) = (ctx.m, ctx.f);
    let annotated: Vec<TypeId>;
    let declared: &[TypeId] = match &inst.kind {
        InstKind::Phi { .. } => {
            annotated = inst.results.iter().map(|&r| f.value_ty(r)).collect();
            &annotated
        }
        InstKind::Call { callee, .. } => m.ret_tys(*callee),
        _ => &[],
    };
    match inst
        .kind
        .result_types(&m.types, |v| f.value_ty(v), declared)
    {
        Ok(want) => {
            let got: Vec<Type> = inst.results.iter().map(|&r| ctx.ty(r)).collect();
            if got != want {
                ctx.err(Some(i), format!("results {got:?} != the rule's {want:?}"));
            }
        }
        Err(e) => ctx.err(Some(i), e),
    }
}

fn check_types(ctx: &mut Ctx<'_>) {
    for (_, i) in ctx.f.inst_ids_in_order() {
        let inst = ctx.f.insts[i].clone();
        check_results(ctx, i, &inst);
        match &inst.kind {
            InstKind::Bin { lhs, rhs, .. } => {
                let (a, b) = (ctx.ty(*lhs), ctx.ty(*rhs));
                expect(
                    ctx,
                    i,
                    a == b,
                    format!("bin operand types differ: {a:?} vs {b:?}"),
                );
                expect(
                    ctx,
                    i,
                    a.is_integer() || a.is_float() || a == Type::Bool,
                    format!("bin on non-numeric {a:?}"),
                );
            }
            InstKind::Cmp { lhs, rhs, .. } => {
                let (a, b) = (ctx.ty(*lhs), ctx.ty(*rhs));
                expect(
                    ctx,
                    i,
                    a == b,
                    format!("cmp operand types differ: {a:?} vs {b:?}"),
                );
            }
            InstKind::Select {
                cond,
                then_value,
                else_value,
            } => {
                expect(
                    ctx,
                    i,
                    ctx.ty(*cond) == Type::Bool,
                    "select condition must be bool",
                );
                let (a, b) = (ctx.ty(*then_value), ctx.ty(*else_value));
                expect(
                    ctx,
                    i,
                    a == b,
                    format!("select arm types differ: {a:?} vs {b:?}"),
                );
            }
            InstKind::Phi { incoming } => {
                let Some(&r) = inst.results.first() else {
                    continue;
                };
                let rt = ctx.ty(r);
                for (_, v) in incoming {
                    let vt = ctx.ty(*v);
                    expect(
                        ctx,
                        i,
                        vt == rt,
                        format!("phi incoming {vt:?} != result {rt:?}"),
                    );
                }
            }
            InstKind::Branch { cond, .. } => {
                expect(
                    ctx,
                    i,
                    ctx.ty(*cond) == Type::Bool,
                    "branch condition must be bool",
                );
            }
            InstKind::Ret { values } => {
                let want = ctx.f.ret_tys.clone();
                expect(
                    ctx,
                    i,
                    values.len() == want.len(),
                    format!("ret arity {} != signature {}", values.len(), want.len()),
                );
                for (v, w) in values.iter().zip(want.iter()) {
                    let vt = ctx.ty(*v);
                    let wt = ctx.m.types.get(*w);
                    expect(
                        ctx,
                        i,
                        vt == wt,
                        format!("ret type {vt:?} != declared {wt:?}"),
                    );
                }
            }
            InstKind::Call { callee, args } => {
                let params: Vec<Type> = match callee {
                    Callee::Func(fid) => ctx.m.funcs[*fid]
                        .params
                        .iter()
                        .map(|p| ctx.m.types.get(p.ty))
                        .collect(),
                    Callee::Extern(eid) => ctx.m.externs[*eid]
                        .params
                        .iter()
                        .map(|&t| ctx.m.types.get(t))
                        .collect(),
                };
                expect(
                    ctx,
                    i,
                    args.len() == params.len(),
                    format!("call arity {} != {}", args.len(), params.len()),
                );
                for (a, p) in args.iter().zip(params.iter()) {
                    let at = ctx.ty(*a);
                    expect(ctx, i, at == *p, format!("call arg {at:?} != param {p:?}"));
                }
            }
            InstKind::Read { c, idx } => check_collection_access(ctx, i, *c, *idx),
            InstKind::Write { c, idx, value } | InstKind::MutWrite { c, idx, value } => {
                check_collection_access(ctx, i, *c, *idx);
                if let Some(et) = elem_ty(ctx, *c) {
                    let vt = ctx.ty(*value);
                    expect(
                        ctx,
                        i,
                        vt == et,
                        format!("write value {vt:?} != element {et:?}"),
                    );
                }
            }
            InstKind::Rmw { c, idx, value, .. } | InstKind::MutRmw { c, idx, value, .. } => {
                check_collection_access(ctx, i, *c, *idx);
                if let Some(et) = elem_ty(ctx, *c) {
                    let vt = ctx.ty(*value);
                    expect(
                        ctx,
                        i,
                        vt == et,
                        format!("rmw value {vt:?} != element {et:?}"),
                    );
                }
            }
            InstKind::Insert { c, idx, value } | InstKind::MutInsert { c, idx, value } => {
                check_collection_access(ctx, i, *c, *idx);
                if let (Some(v), Some(et)) = (value, elem_ty(ctx, *c)) {
                    let vt = ctx.ty(*v);
                    expect(
                        ctx,
                        i,
                        vt == et,
                        format!("insert value {vt:?} != element {et:?}"),
                    );
                }
            }
            InstKind::InsertSeq { c, idx, src } | InstKind::MutInsertSeq { c, idx, src } => {
                expect(
                    ctx,
                    i,
                    matches!(ctx.ty(*c), Type::Seq(_)),
                    "insert.seq needs a sequence",
                );
                expect(
                    ctx,
                    i,
                    ctx.ty(*c) == ctx.ty(*src),
                    "insert.seq source type mismatch",
                );
                expect(
                    ctx,
                    i,
                    index_like(ctx.ty(*idx)),
                    "insert.seq index must be `index`",
                );
            }
            InstKind::Remove { c, idx } | InstKind::MutRemove { c, idx } => {
                check_collection_access(ctx, i, *c, *idx);
            }
            InstKind::RemoveRange { c, from, to }
            | InstKind::CopyRange { c, from, to }
            | InstKind::MutRemoveRange { c, from, to }
            | InstKind::MutSplit { c, from, to } => {
                expect(
                    ctx,
                    i,
                    matches!(ctx.ty(*c), Type::Seq(_)),
                    "range op needs a sequence",
                );
                expect(
                    ctx,
                    i,
                    index_like(ctx.ty(*from)),
                    "range start must be `index`",
                );
                expect(ctx, i, index_like(ctx.ty(*to)), "range end must be `index`");
            }
            InstKind::Swap { c, from, to, at } | InstKind::MutSwap { c, from, to, at } => {
                expect(
                    ctx,
                    i,
                    matches!(ctx.ty(*c), Type::Seq(_)),
                    "swap needs a sequence",
                );
                for x in [from, to, at] {
                    expect(
                        ctx,
                        i,
                        index_like(ctx.ty(*x)),
                        "swap indices must be `index`",
                    );
                }
            }
            InstKind::Swap2 { a, from, to, b, at } | InstKind::MutSwap2 { a, from, to, b, at } => {
                expect(
                    ctx,
                    i,
                    ctx.ty(*a) == ctx.ty(*b),
                    "swap2 sequences must share a type",
                );
                expect(
                    ctx,
                    i,
                    matches!(ctx.ty(*a), Type::Seq(_)),
                    "swap2 needs sequences",
                );
                for x in [from, to, at] {
                    expect(
                        ctx,
                        i,
                        index_like(ctx.ty(*x)),
                        "swap2 indices must be `index`",
                    );
                }
            }
            InstKind::Size { c } => {
                expect(
                    ctx,
                    i,
                    ctx.ty(*c).is_collection(),
                    "size needs a collection",
                );
            }
            InstKind::Has { c, key } => match ctx.ty(*c) {
                Type::Assoc(k, _) => {
                    let kt = ctx.m.types.get(k);
                    let it = ctx.ty(*key);
                    expect(ctx, i, it == kt, format!("has key {it:?} != {kt:?}"));
                }
                other => expect(ctx, i, false, format!("has needs an assoc, got {other:?}")),
            },
            InstKind::UsePhi { c } | InstKind::Copy { c } => {
                expect(
                    ctx,
                    i,
                    ctx.ty(*c).is_collection(),
                    "operand must be a collection",
                );
            }
            InstKind::MutAppend { c, src } => {
                expect(
                    ctx,
                    i,
                    matches!(ctx.ty(*c), Type::Seq(_)),
                    "append needs a sequence",
                );
                expect(
                    ctx,
                    i,
                    ctx.ty(*c) == ctx.ty(*src),
                    "append source type mismatch",
                );
            }
            InstKind::FieldRead { obj, obj_ty, field } => {
                expect(
                    ctx,
                    i,
                    ctx.ty(*obj) == Type::Ref(*obj_ty),
                    "field.read on wrong ref type",
                );
                let nfields = ctx.m.types.object(*obj_ty).fields.len() as u32;
                expect(ctx, i, *field < nfields, "field index out of range");
            }
            InstKind::FieldWrite {
                obj,
                obj_ty,
                field,
                value,
            } => {
                expect(
                    ctx,
                    i,
                    ctx.ty(*obj) == Type::Ref(*obj_ty),
                    "field.write on wrong ref type",
                );
                let nfields = ctx.m.types.object(*obj_ty).fields.len() as u32;
                expect(ctx, i, *field < nfields, "field index out of range");
                if *field < nfields {
                    let ft = ctx
                        .m
                        .types
                        .get(ctx.m.types.object(*obj_ty).fields[*field as usize].ty);
                    let vt = ctx.ty(*value);
                    expect(
                        ctx,
                        i,
                        vt == ft,
                        format!("field.write value {vt:?} != field {ft:?}"),
                    );
                }
            }
            InstKind::DeleteObj { obj } => {
                expect(
                    ctx,
                    i,
                    matches!(ctx.ty(*obj), Type::Ref(_)),
                    "delete needs a reference",
                );
            }
            InstKind::NewSeq { len, .. } => {
                expect(
                    ctx,
                    i,
                    index_like(ctx.ty(*len)),
                    "new Seq length must be `index`",
                );
            }
            InstKind::NewAssoc { .. }
            | InstKind::NewObj { .. }
            | InstKind::Keys { .. }
            | InstKind::Cast { .. }
            | InstKind::Jump { .. }
            | InstKind::Unreachable => {}
        }
    }
}

fn check_form(ctx: &mut Ctx<'_>) {
    for (_, i) in ctx.f.inst_ids_in_order() {
        let kind = &ctx.f.insts[i].kind;
        match ctx.f.form {
            Form::Ssa => {
                if kind.is_mut_op() {
                    ctx.err(Some(i), "mut-form instruction in SSA function");
                }
            }
            Form::Mut => {
                if kind.is_ssa_collection_op() {
                    ctx.err(Some(i), "SSA collection update in mut-form function");
                }
            }
        }
    }
}

fn check_dominance(ctx: &mut Ctx<'_>) {
    let f = ctx.f;
    let dom = passman::graph::DomTree::compute(&f.successor_lists(), f.entry.index());
    // Position of each instruction: (block, index).
    let mut pos: HashMap<InstId, (BlockId, usize)> = HashMap::new();
    for (b, block) in f.blocks.iter() {
        for (idx, &i) in block.insts.iter().enumerate() {
            pos.insert(i, (b, idx));
        }
    }
    let dominates = |def: ValueId, use_block: BlockId, use_idx: usize| -> bool {
        match &f.values[def].def {
            ValueDef::Param(_) | ValueDef::Const(_) => true,
            ValueDef::Inst(di, _) => match pos.get(di) {
                None => false, // defined by an unplaced instruction
                Some(&(db, didx)) => {
                    if db == use_block {
                        didx < use_idx
                    } else {
                        dom.dominates(db.index(), use_block.index())
                    }
                }
            },
        }
    };
    for (b, block) in f.blocks.iter() {
        if !dom.is_reachable(b.index()) {
            continue; // unreachable; skip
        }
        for (idx, &i) in block.insts.iter().enumerate() {
            let kind = f.insts[i].kind.clone();
            if let InstKind::Phi { incoming } = &kind {
                // φ operands must dominate the *end of the corresponding
                // predecessor*, not the φ itself.
                for (p, v) in incoming {
                    let plen = f.blocks[*p].insts.len();
                    if !dominates(*v, *p, plen) {
                        ctx.err(
                            Some(i),
                            format!("phi operand {v} does not dominate predecessor {p} exit"),
                        );
                    }
                }
            } else {
                for v in kind.operands() {
                    if !dominates(v, b, idx) {
                        ctx.err(
                            Some(i),
                            format!("use of {v} not dominated by its definition"),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::{BinOp, CmpOp};

    #[test]
    fn valid_loop_verifies() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("count", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let n = b.param("n", t);
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let zero = b.index(0);
            let one = b.index(1);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(t);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            let done = b.cmp(CmpOp::Ge, i, n);
            b.branch(done, exit, body);
            b.switch_to(body);
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.jump(header);
            b.switch_to(exit);
            b.returns(&[t]);
            b.ret(vec![i]);
        });
        let m = mb.finish();
        assert_eq!(verify_module(&m), vec![]);
    }

    #[test]
    fn detects_missing_terminator() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let x = b.i64(1);
            let y = b.i64(2);
            b.bin(BinOp::Add, x, y);
            // no ret
        });
        let m = mb.finish();
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.message.contains("terminator")),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_type_mismatch() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let x = b.i64(1);
            let y = b.index(2);
            b.bin(BinOp::Add, x, y); // i64 + index: mismatch
            b.ret(vec![]);
        });
        let m = mb.finish();
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.message.contains("differ")),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_mut_op_in_ssa_function() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(3);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(5);
            b.mut_write(s, zero, v);
            b.ret(vec![]);
        });
        let m = mb.finish();
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.message.contains("mut-form")),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_use_before_def_across_blocks() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::Bool);
            let left = b.block("left");
            let right = b.block("right");
            let join = b.block("join");
            let c = b.bool(true);
            b.branch(c, left, right);
            b.switch_to(left);
            let x = b.cmp(CmpOp::Eq, c, c); // defined only on left path
            b.jump(join);
            b.switch_to(right);
            b.jump(join);
            b.switch_to(join);
            let y = b.cmp(CmpOp::Eq, x, c); // uses x: not dominated
            let _ = y;
            b.returns(&[t]);
            b.ret(vec![y]);
        });
        let m = mb.finish();
        let errs = verify_module(&m);
        assert!(
            errs.iter().any(|e| e.message.contains("not dominated")),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_bad_phi_incoming() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let next = b.block("next");
            b.jump(next);
            b.switch_to(next);
            let zero = b.index(0);
            // φ claims an incoming from `next` itself, which is not a pred.
            let p = b.phi(t, vec![(next, zero)]);
            b.returns(&[t]);
            b.ret(vec![p]);
        });
        let m = mb.finish();
        let errs = verify_module(&m);
        assert!(
            errs.iter()
                .any(|e| e.message.contains("do not match predecessors")),
            "{errs:?}"
        );
    }

    #[test]
    fn ret_arity_checked() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::I64);
            b.returns(&[t]);
            b.ret(vec![]);
        });
        let m = mb.finish();
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("arity")), "{errs:?}");
    }
}
