//! Intraprocedural symbolic range analysis for index variables — the
//! `R(i)` input of Alg. 1 (the paper cites the non-iterative symbolic range
//! analyses of Teixeira/Pereira and Paisante et al.).
//!
//! `R(i)` maps an index-typed SSA value to a symbolic range `[lo : hi)`
//! over-approximating the values it takes. The analysis is pattern-based:
//!
//! * constants and *anchored* values (values computed without passing
//!   through a φ) are exact singletons `[v : v+1)`;
//! * loop-induction φs (`i = φ(init, i+c)`) are bounded by the loop's
//!   continue condition (`i' < bound`, `i' <= bound`, conjunctions take the
//!   tightest bound);
//! * `min`/`max`/`select` combine operand ranges;
//! * anything else widens to `[Unknown : Unknown)` (⇒ `[0 : end)`).
//!
//! Anchoring matters for soundness: a symbolic bound that names a
//! loop-variant value would denote a different range per iteration, so
//! loop-variant values may only appear through the recognized induction
//! pattern whose bounds are themselves anchored.

use crate::exprtree::Expr;
use crate::range::Range;
use memoir_ir::{BinOp, BlockId, CmpOp, Constant, Function, InstKind, ValueDef, ValueId};
use std::collections::HashMap;

/// Computed index ranges for one function.
#[derive(Debug)]
pub struct IndexRanges<'f> {
    f: &'f Function,
    cache: std::cell::RefCell<HashMap<ValueId, Range>>,
    anchored: std::cell::RefCell<HashMap<ValueId, bool>>,
}

impl<'f> IndexRanges<'f> {
    /// Creates the analysis for a function.
    pub fn new(f: &'f Function) -> Self {
        IndexRanges {
            f,
            cache: Default::default(),
            anchored: Default::default(),
        }
    }

    /// The range of values `v` may take, as a symbolic `[lo : hi)`.
    pub fn range_of(&self, v: ValueId) -> Range {
        if let Some(r) = self.cache.borrow().get(&v) {
            return r.clone();
        }
        // Seed with unknown to cut cycles (φ through itself).
        self.cache
            .borrow_mut()
            .insert(v, Range::new(Expr::Unknown, Expr::Unknown));
        let r = self.compute(v);
        self.cache.borrow_mut().insert(v, r.clone());
        r
    }

    /// Whether `v` is *anchored*: computable without reading any φ, hence
    /// loop-invariant and safe to reference symbolically.
    pub fn is_anchored(&self, v: ValueId) -> bool {
        if let Some(&a) = self.anchored.borrow().get(&v) {
            return a;
        }
        self.anchored.borrow_mut().insert(v, false); // cycle-cut
        let result = match &self.f.values[v].def {
            ValueDef::Param(_) | ValueDef::Const(_) => true,
            ValueDef::Inst(inst, _) => {
                let kind = &self.f.insts[*inst].kind;
                if kind.is_phi() {
                    false
                } else {
                    match kind {
                        // Reads and sizes of anchored collections anchor.
                        InstKind::Bin { .. }
                        | InstKind::Cmp { .. }
                        | InstKind::Cast { .. }
                        | InstKind::Select { .. }
                        | InstKind::Size { .. }
                        | InstKind::Read { .. } => {
                            let mut ok = true;
                            kind.visit_operands(|&op| ok &= self.is_anchored_inner(op));
                            ok
                        }
                        _ => false,
                    }
                }
            }
        };
        self.anchored.borrow_mut().insert(v, result);
        result
    }

    fn is_anchored_inner(&self, v: ValueId) -> bool {
        self.is_anchored(v)
    }

    fn compute(&self, v: ValueId) -> Range {
        let f = self.f;
        if let Some(c) = f.value_const(v) {
            if let Some(x) = c.as_int() {
                return Range::constant(x, x + 1);
            }
            return Range::new(Expr::Unknown, Expr::Unknown);
        }
        if self.is_anchored(v) {
            return Range::singleton(Expr::value(v));
        }
        let ValueDef::Inst(inst, _) = f.values[v].def else {
            return Range::new(Expr::Unknown, Expr::Unknown);
        };
        match &f.insts[inst].kind {
            InstKind::Bin { op, lhs, rhs } => {
                let (a, b) = (*lhs, *rhs);
                match op {
                    BinOp::Add => {
                        if let Some(c) = f.value_const(b).and_then(Constant::as_int) {
                            return self.range_of(a).shift_const(c);
                        }
                        if let Some(c) = f.value_const(a).and_then(Constant::as_int) {
                            return self.range_of(b).shift_const(c);
                        }
                        Range::new(Expr::Unknown, Expr::Unknown)
                    }
                    BinOp::Sub => {
                        if let Some(c) = f.value_const(b).and_then(Constant::as_int) {
                            return self.range_of(a).shift_const(-c);
                        }
                        Range::new(Expr::Unknown, Expr::Unknown)
                    }
                    BinOp::Min => {
                        // min(x, y) ≤ both: for the upper bound an unknown
                        // side can be dropped (the other still bounds the
                        // result); the lower bound needs both.
                        let (ra, rb) = (self.range_of(a), self.range_of(b));
                        let hi = prefer_known_min(ra.hi, rb.hi);
                        Range::new(Expr::min2(ra.lo, rb.lo), hi)
                    }
                    BinOp::Max => {
                        // max(x, y) ≥ both: dual of min.
                        let (ra, rb) = (self.range_of(a), self.range_of(b));
                        let lo = prefer_known_max(ra.lo, rb.lo);
                        Range::new(lo, Expr::max2(ra.hi, rb.hi))
                    }
                    BinOp::And => {
                        // x & mask with a non-negative constant mask lands
                        // in [0 : mask] regardless of x (hash-style key
                        // wrapping: `h & (N-1)` proves a dense key space).
                        let mask = f
                            .value_const(b)
                            .and_then(Constant::as_int)
                            .or_else(|| f.value_const(a).and_then(Constant::as_int));
                        match mask {
                            Some(m) if m >= 0 => Range::constant(0, m + 1),
                            _ => Range::new(Expr::Unknown, Expr::Unknown),
                        }
                    }
                    _ => Range::new(Expr::Unknown, Expr::Unknown),
                }
            }
            InstKind::Cast { value, .. } => self.range_of(*value),
            InstKind::Select {
                then_value,
                else_value,
                ..
            } => self.range_of(*then_value).join(&self.range_of(*else_value)),
            InstKind::Phi { incoming } => self.induction_range(v, inst, incoming),
            _ => Range::new(Expr::Unknown, Expr::Unknown),
        }
    }

    /// Recognizes `i = φ(init, i ± c)` bounded by a continue condition.
    fn induction_range(
        &self,
        phi_val: ValueId,
        phi_inst: memoir_ir::InstId,
        incoming: &[(BlockId, ValueId)],
    ) -> Range {
        if incoming.len() != 2 {
            return Range::new(Expr::Unknown, Expr::Unknown);
        }
        // Identify the update operand: `phi ± const`.
        let mut init: Option<ValueId> = None;
        let mut step: Option<(ValueId, i64, BlockId)> = None; // (update val, step, src block)
        for &(b, val) in incoming {
            if let Some(c) = self.step_from(phi_val, val) {
                step = Some((val, c, b));
            } else {
                init = Some(val);
            }
        }
        let (Some(init), Some((update_val, step_c, back_block))) = (init, step) else {
            return Range::new(Expr::Unknown, Expr::Unknown);
        };
        if step_c == 0 {
            return Range::new(Expr::Unknown, Expr::Unknown);
        }
        let init_range = if self.is_anchored(init) {
            self.range_of(init)
        } else {
            Range::new(Expr::Unknown, Expr::Unknown)
        };

        // Find the continue condition. Two shapes:
        //  (a) bottom-tested: the back-edge source block ends in
        //      `br cond, header, exit` — cond bounds the *updated* value;
        //  (b) header-tested: the φ's block ends in `br cond, A, B` where
        //      one target reaches the back edge — cond bounds the φ value
        //      inside the body.
        let phi_block = self.f.block_of(phi_inst).expect("φ placed in a block");
        let mut bound: Option<Expr> = None; // exclusive upper bound (ascending)
        let mut lo_bound: Option<Expr> = None; // inclusive lower bound (descending)
        let mut header_tested = false;

        // Shape (a).
        if let Some(t) = self.f.terminator(back_block) {
            if let InstKind::Branch {
                cond, then_target, ..
            } = &self.f.insts[t].kind
            {
                if *then_target == phi_block {
                    self.bound_from_cond(*cond, update_val, step_c > 0, &mut bound, &mut lo_bound);
                }
            }
        }
        // Shape (b).
        if bound.is_none() && lo_bound.is_none() {
            if let Some(t) = self.f.terminator(phi_block) {
                if let InstKind::Branch {
                    cond,
                    then_target,
                    else_target,
                } = &self.f.insts[t].kind
                {
                    // The branch target that stays in the loop is the one
                    // from which the back edge block is reachable; we use a
                    // cheap test: the back-edge source equals the target or
                    // the target is not the φ block itself.
                    let continue_on_true = self.reaches(*then_target, back_block, phi_block);
                    let continue_on_false = self.reaches(*else_target, back_block, phi_block);
                    if continue_on_true != continue_on_false {
                        // The condition (or its negation) bounds the φ value
                        // in the body.
                        header_tested = true;
                        self.bound_from_guard(
                            *cond,
                            phi_val,
                            continue_on_true,
                            step_c > 0,
                            &mut bound,
                            &mut lo_bound,
                        );
                    }
                }
            }
        }

        // The φ denotes *every* value the variable takes, including the
        // exit value and the untested init:
        //
        //  * header-tested: the last value to reach the φ stepped from a
        //    value that passed the test, so it may exceed the in-body
        //    bound by one step (`i = n` is observed at the failing test,
        //    and may flow to uses after the loop);
        //  * bottom-tested: the bound constrains the *updated* value, so
        //    back-edge values respect it — but `init` itself is never
        //    tested and may lie entirely outside the bound.
        //
        // Both shapes therefore fold the (anchored) init range in, and
        // the header shape widens the bound by the step. An unknown init
        // range absorbs — claiming the tested bound alone would be
        // unsound.
        if step_c > 0 {
            let hi = match bound {
                Some(e) => {
                    let e = if header_tested { e.offset(step_c) } else { e };
                    Expr::max2(e, init_range.hi.clone())
                }
                None => Expr::Unknown,
            };
            Range::new(init_range.lo, hi)
        } else {
            let lo = match lo_bound {
                Some(e) => {
                    let e = if header_tested { e.offset(step_c) } else { e };
                    Expr::min2(e, init_range.lo.clone())
                }
                None => Expr::Unknown,
            };
            Range::new(lo, init_range.hi)
        }
    }

    /// If `val == phi + c` (syntactically), returns `c`.
    fn step_from(&self, phi_val: ValueId, val: ValueId) -> Option<i64> {
        let ValueDef::Inst(inst, _) = self.f.values[val].def else {
            return None;
        };
        if let InstKind::Bin { op, lhs, rhs } = &self.f.insts[inst].kind {
            let c_of = |x: ValueId| self.f.value_const(x).and_then(Constant::as_int);
            match op {
                BinOp::Add => {
                    if *lhs == phi_val {
                        return c_of(*rhs);
                    }
                    if *rhs == phi_val {
                        return c_of(*lhs);
                    }
                }
                BinOp::Sub if *lhs == phi_val => {
                    return c_of(*rhs).map(|c| -c);
                }
                _ => {}
            }
        }
        None
    }

    /// Extracts an upper/lower bound for `subject` from a continue
    /// condition that is true when the loop continues. For a bottom-tested
    /// loop, `subject` is the updated value `i + c`; the bound on the φ
    /// itself follows because every φ value except `init` passed the test.
    fn bound_from_cond(
        &self,
        cond: ValueId,
        subject: ValueId,
        ascending: bool,
        hi: &mut Option<Expr>,
        lo: &mut Option<Expr>,
    ) {
        let ValueDef::Inst(inst, _) = self.f.values[cond].def else {
            return;
        };
        match &self.f.insts[inst].kind {
            InstKind::Bin {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                self.bound_from_cond(*lhs, subject, ascending, hi, lo);
                self.bound_from_cond(*rhs, subject, ascending, hi, lo);
            }
            InstKind::Cmp { op, lhs, rhs } => {
                let (op, a, b) = (*op, *lhs, *rhs);
                // Normalize to `subject OP other`.
                let (op, other) = if a == subject {
                    (op, b)
                } else if b == subject {
                    (op.swapped(), a)
                } else {
                    return;
                };
                if !self.is_anchored(other) {
                    return;
                }
                let other_e = self
                    .f
                    .value_const(other)
                    .and_then(Constant::as_int)
                    .map(Expr::constant)
                    .unwrap_or_else(|| Expr::value(other));
                match (op, ascending) {
                    // subject < other (continue) ⇒ φ values ≤ other − 1 ⇒
                    // exclusive bound `other`.
                    (CmpOp::Lt, true) => {
                        let e = other_e;
                        *hi = Some(match hi.take() {
                            None => e,
                            Some(prev) => Expr::min2(prev, e),
                        });
                    }
                    (CmpOp::Le, true) => {
                        let e = other_e.offset(1);
                        *hi = Some(match hi.take() {
                            None => e,
                            Some(prev) => Expr::min2(prev, e),
                        });
                    }
                    (CmpOp::Gt, false) => {
                        let e = other_e.offset(1);
                        *lo = Some(match lo.take() {
                            None => e,
                            Some(prev) => Expr::max2(prev, e),
                        });
                    }
                    (CmpOp::Ge, false) => {
                        *lo = Some(match lo.take() {
                            None => other_e,
                            Some(prev) => Expr::max2(prev, other_e),
                        });
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    /// Header-tested variant: the guard bounds the φ value itself inside
    /// the body. When the loop continues on the false edge, the negated
    /// condition applies.
    fn bound_from_guard(
        &self,
        cond: ValueId,
        phi_val: ValueId,
        continue_on_true: bool,
        ascending: bool,
        hi: &mut Option<Expr>,
        lo: &mut Option<Expr>,
    ) {
        if continue_on_true {
            self.bound_from_cond(cond, phi_val, ascending, hi, lo);
            // Also accept `phi + c` subjects (e.g. `i+1 < n` guards).
            self.bound_guard_shifted(cond, phi_val, ascending, hi, lo);
        } else {
            // continue when cond is false: cond = (i >= n) exits ⇒ body has
            // i < n. Normalize by negating the comparison.
            let ValueDef::Inst(inst, _) = self.f.values[cond].def else {
                return;
            };
            if let InstKind::Cmp { op, lhs, rhs } = self.f.insts[inst].kind {
                let neg = op.negated();
                self.bound_from_cmp(neg, lhs, rhs, phi_val, ascending, hi, lo);
            }
        }
    }

    fn bound_guard_shifted(
        &self,
        cond: ValueId,
        phi_val: ValueId,
        ascending: bool,
        hi: &mut Option<Expr>,
        lo: &mut Option<Expr>,
    ) {
        // `i + c OP bound` guards: find cmp whose lhs is an add of φ.
        let ValueDef::Inst(inst, _) = self.f.values[cond].def else {
            return;
        };
        match &self.f.insts[inst].kind {
            InstKind::Bin {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                self.bound_guard_shifted(*lhs, phi_val, ascending, hi, lo);
                self.bound_guard_shifted(*rhs, phi_val, ascending, hi, lo);
            }
            InstKind::Cmp { op, lhs, rhs } => {
                let (op, subj, other) = if self.shift_of(*lhs, phi_val).is_some() {
                    (*op, *lhs, *rhs)
                } else if self.shift_of(*rhs, phi_val).is_some() {
                    (op.swapped(), *rhs, *lhs)
                } else {
                    return;
                };
                let c = self.shift_of(subj, phi_val).unwrap();
                if !self.is_anchored(other) {
                    return;
                }
                let other_e = self
                    .f
                    .value_const(other)
                    .and_then(Constant::as_int)
                    .map(Expr::constant)
                    .unwrap_or_else(|| Expr::value(other));
                // (φ + c) < other ⇒ φ < other − c.
                match (op, ascending) {
                    (CmpOp::Lt, true) => {
                        let e = other_e.offset(-c);
                        *hi = Some(match hi.take() {
                            None => e,
                            Some(prev) => Expr::min2(prev, e),
                        });
                    }
                    (CmpOp::Le, true) => {
                        let e = other_e.offset(1 - c);
                        *hi = Some(match hi.take() {
                            None => e,
                            Some(prev) => Expr::min2(prev, e),
                        });
                    }
                    (CmpOp::Gt, false) => {
                        let e = other_e.offset(1 - c);
                        *lo = Some(match lo.take() {
                            None => e,
                            Some(prev) => Expr::max2(prev, e),
                        });
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn bound_from_cmp(
        &self,
        op: CmpOp,
        lhs: ValueId,
        rhs: ValueId,
        phi_val: ValueId,
        ascending: bool,
        hi: &mut Option<Expr>,
        lo: &mut Option<Expr>,
    ) {
        let (op, other) = if lhs == phi_val {
            (op, rhs)
        } else if rhs == phi_val {
            (op.swapped(), lhs)
        } else {
            return;
        };
        if !self.is_anchored(other) {
            return;
        }
        let other_e = self
            .f
            .value_const(other)
            .and_then(Constant::as_int)
            .map(Expr::constant)
            .unwrap_or_else(|| Expr::value(other));
        match (op, ascending) {
            (CmpOp::Lt, true) => *hi = Some(other_e),
            (CmpOp::Le, true) => *hi = Some(other_e.offset(1)),
            (CmpOp::Gt, false) => *lo = Some(other_e.offset(1)),
            (CmpOp::Ge, false) => *lo = Some(other_e),
            _ => {}
        }
    }

    /// If `val == phi + c`, returns `c` (including `c = 0` for φ itself).
    fn shift_of(&self, val: ValueId, phi_val: ValueId) -> Option<i64> {
        if val == phi_val {
            return Some(0);
        }
        self.step_from(phi_val, val)
    }

    /// Cheap reachability from `from` to `target` avoiding `avoid` (the
    /// loop header), used to tell loop-continue from loop-exit edges.
    fn reaches(&self, from: BlockId, target: BlockId, avoid: BlockId) -> bool {
        if from == target {
            return true;
        }
        let mut seen = vec![false; self.f.blocks.len()];
        let mut stack = vec![from];
        while let Some(b) = stack.pop() {
            if b == target {
                return true;
            }
            if b == avoid || seen[b.index()] {
                continue;
            }
            seen[b.index()] = true;
            stack.extend(self.f.successors(b));
        }
        false
    }
}

/// `min2` that keeps the known side when the other is unknown — sound for
/// *upper* bounds of a `min` (the result is ≤ each operand).
fn prefer_known_min(a: Expr, b: Expr) -> Expr {
    match (a, b) {
        (Expr::Unknown, x) | (x, Expr::Unknown) => x,
        (x, y) => Expr::min2(x, y),
    }
}

/// Dual of [`prefer_known_min`] for *lower* bounds of a `max`.
fn prefer_known_max(a: Expr, b: Expr) -> Expr {
    match (a, b) {
        (Expr::Unknown, x) | (x, Expr::Unknown) => x,
        (x, y) => Expr::max2(x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, ModuleBuilder, Type};

    #[test]
    fn constants_are_singletons() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        mb.func("f", Form::Ssa, |b| {
            probe = Some(b.index(5));
            b.ret(vec![]);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let ir = IndexRanges::new(f);
        assert_eq!(ir.range_of(probe.unwrap()), Range::constant(5, 6));
    }

    #[test]
    fn anchored_param_is_symbolic_singleton() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let n = b.param("n", t);
            let one = b.index(1);
            let n1 = b.add(n, one);
            probe = Some((n, n1));
            b.ret(vec![]);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let ir = IndexRanges::new(f);
        let (n, n1) = probe.unwrap();
        assert!(ir.is_anchored(n));
        assert!(ir.is_anchored(n1));
        assert_eq!(ir.range_of(n), Range::singleton(Expr::value(n)));
    }

    /// Header-tested loop `for i in 0..n` — R(i) must be
    /// `[0 : max(1, n+1))`: the φ is assigned `n` at the failing exit
    /// test (and `0` when the loop never runs), so the in-body bound `n`
    /// alone would be unsound for uses after the loop.
    #[test]
    fn header_tested_induction() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        mb.func("f", Form::Ssa, |b| {
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
            let done = b.cmp(memoir_ir::CmpOp::Ge, i, n);
            b.branch(done, exit, body);
            b.switch_to(body);
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.jump(header);
            b.switch_to(exit);
            b.ret(vec![]);
            probe = Some((i, n));
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let ir = IndexRanges::new(f);
        let (i, n) = probe.unwrap();
        let r = ir.range_of(i);
        assert!(r.lo.is_const(0), "{r}");
        assert_eq!(
            r.hi,
            Expr::max2(Expr::constant(1), Expr::value(n).offset(1)),
            "{r}"
        );
    }

    /// Bottom-tested loop (Listing 2's filter shape):
    /// `do { .. i' = i+1 } while (i' < size && i' < B)` — R(i) =
    /// `[0 : max(1, min(size, B)))`: back-edge values passed the test,
    /// but the init `0` never did (the body runs once even when
    /// `size == 0`), so the bound is max'd with the init range.
    #[test]
    fn bottom_tested_conjunction_takes_min() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let size = b.param("size", t);
            let bigb = b.param("B", t);
            let body = b.block("body");
            let exit = b.block("exit");
            let zero = b.index(0);
            let one = b.index(1);
            b.jump(body);
            b.switch_to(body);
            let i = b.phi_placeholder(t);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            let next = b.add(i, one);
            let c1 = b.cmp(memoir_ir::CmpOp::Lt, next, size);
            let c2 = b.cmp(memoir_ir::CmpOp::Lt, next, bigb);
            let cond = b.bin(memoir_ir::BinOp::And, c1, c2);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.branch(cond, body, exit);
            b.switch_to(exit);
            b.ret(vec![]);
            probe = Some((i, size, bigb));
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let ir = IndexRanges::new(f);
        let (i, size, bigb) = probe.unwrap();
        let r = ir.range_of(i);
        assert!(r.lo.is_const(0), "{r}");
        assert_eq!(
            r.hi,
            Expr::max2(
                Expr::constant(1),
                Expr::min2(Expr::value(size), Expr::value(bigb))
            ),
            "{r}"
        );
    }

    /// Descending loop `for j in (lo..n).rev()`-style:
    /// `j = φ(n-1, j-1)` continuing while `j > lo` — R(j) =
    /// `[min(lo, n-1) : n)`: the exit value `lo` is observed at the
    /// failing header test, one step below the in-body bound `lo+1`.
    #[test]
    fn descending_induction_header_tested() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let n = b.param("n", t);
            let lo = b.param("lo", t);
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let one = b.index(1);
            let n1 = b.sub(n, one);
            b.jump(header);
            b.switch_to(header);
            let j = b.phi_placeholder(t);
            let entry = b.func.entry;
            b.add_phi_incoming(j, entry, n1);
            // Exit when j <= lo; continue (false edge) while j > lo.
            let done = b.cmp(memoir_ir::CmpOp::Le, j, lo);
            b.branch(done, exit, body);
            b.switch_to(body);
            let jn = b.sub(j, one);
            let bb = b.current_block();
            b.add_phi_incoming(j, bb, jn);
            b.jump(header);
            b.switch_to(exit);
            b.ret(vec![]);
            probe = Some((j, n1, lo));
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let ir = IndexRanges::new(f);
        let (j, n1, lo) = probe.unwrap();
        let r = ir.range_of(j);
        // Continue condition is ¬(j ≤ lo) = j > lo ⇒ body values ≥ lo+1,
        // but the exit value is lo and the init is n-1.
        assert_eq!(r.lo, Expr::min2(Expr::value(lo), Expr::value(n1)), "{r}");
        // Upper bound from the (anchored) init `n-1`: values ≤ init,
        // expressed over the init value itself.
        assert_eq!(r.hi, Expr::value(n1).offset(1), "{r}");
    }

    /// Bottom-tested descending loop: `do { j-- } while (j > lo)` —
    /// R(j) = `[min(lo+1, n) : n+1)`: the untested init `n` may already
    /// lie below the tested bound `lo+1`.
    #[test]
    fn descending_induction_bottom_tested() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let n = b.param("n", t);
            let lo = b.param("lo", t);
            let body = b.block("body");
            let exit = b.block("exit");
            let one = b.index(1);
            b.jump(body);
            b.switch_to(body);
            let j = b.phi_placeholder(t);
            let entry = b.func.entry;
            b.add_phi_incoming(j, entry, n);
            let jn = b.sub(j, one);
            let cont = b.cmp(memoir_ir::CmpOp::Gt, jn, lo);
            let bb = b.current_block();
            b.add_phi_incoming(j, bb, jn);
            b.branch(cont, body, exit);
            b.switch_to(exit);
            b.ret(vec![]);
            probe = Some((j, n, lo));
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let ir = IndexRanges::new(f);
        let (j, n, lo) = probe.unwrap();
        let r = ir.range_of(j);
        assert_eq!(
            r.lo,
            Expr::min2(Expr::value(lo).offset(1), Expr::value(n)),
            "{r}"
        );
        assert_eq!(r.hi, Expr::value(n).offset(1), "{r}");
    }

    #[test]
    fn unrecognized_phi_widens() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let header = b.block("header");
            let exit = b.block("exit");
            let zero = b.index(0);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(t);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            // Non-affine update: i * 2.
            let two = b.index(2);
            let next = b.mul(i, two);
            let c = b.bool(true);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.branch(c, header, exit);
            b.switch_to(exit);
            b.ret(vec![]);
            probe = Some(i);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let ir = IndexRanges::new(f);
        let r = ir.range_of(probe.unwrap());
        assert_eq!(r.widened(), Range::full());
    }
}
