//! Live range analysis for sequence elements (paper §V, Table I, Alg. 1).
//!
//! For every sequence-typed SSA variable the analysis computes a symbolic
//! range `[ℓ : u)` over-approximating the elements that may still be
//! observed after the variable's definition. Liveness propagates
//! *backwards* along def-use edges: a `READ(S, i)` makes `R(i)` live in
//! `S`; an SSA update `S₁ = op(S₀, …)` transfers `p(S₁)` onto `S₀` per the
//! Table I constraint for `op`; φs fan liveness out to every incoming.
//!
//! The analysis is intraprocedural: [`live_ranges`] iterates one
//! function's instructions (in reverse) to a fixed point. It builds no
//! constraint graph and no SCCs; Alg. 1's cycles (loop φs) are what the
//! iteration resolves. A join whose bounds grow past a complexity cap
//! widens to `[0 : end)`, and after 32 iterations without convergence
//! every range becomes `[0 : end)` — the default Alg. 1 assigns to
//! unresolved SCC members. Calls are not looked through and carry no
//! call-site context: a sequence argument contributes `[0 : end)` in
//! sound mode (nothing to a non-reading extern), nothing in paper mode.
//!
//! ## Modes
//!
//! Two configurations are provided (see DESIGN.md §6):
//!
//! * [`LiveRangeConfig::sound`] — the full Table I transfer functions,
//!   including element *relocation* through `insert`/`remove`/`swap` and
//!   `[0 : end)` contributions from sequences passed to calls. Safe for
//!   semantics-preserving dead element elimination.
//! * [`LiveRangeConfig::paper`] — the caller side of the paper's mcf
//!   methodology: relocating ops transfer liveness as the identity and
//!   call arguments contribute nothing, because call specialization
//!   threads the live slice into the callee instead. Use only under the
//!   live-slice correctness model.
//!
//! Both count every read, and both treat a returned sequence as fully
//! live. Listing 4's callee-side model (returns live in the caller's
//! `[%a : %b)`) is not provided: the element guards it derives are
//! unsound under recursion (DESIGN.md §6).

use crate::exprtree::Expr;
use crate::idxrange::IndexRanges;
use crate::range::Range;
use memoir_ir::{Callee, FuncId, Function, InstKind, Module, Type, ValueId};
use std::collections::HashMap;

/// Bound-expression complexity past which a range widens to full.
const MAX_COMPLEXITY: usize = 16;

/// Fixed-point iterations after which every range widens to full.
const MAX_ITERATIONS: usize = 32;

/// Configuration of the analysis (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveRangeConfig {
    /// Apply the relocation components of the Table I transfers (shifted
    /// contributions through insert/remove/swap/copy-range) and let
    /// sequence arguments of calls contribute liveness (`[0 : end)`
    /// unless the callee is a non-reading extern).
    full_transfers: bool,
}

impl LiveRangeConfig {
    /// The fully sound configuration.
    pub fn sound() -> Self {
        LiveRangeConfig {
            full_transfers: true,
        }
    }

    /// The caller-side paper-methodology configuration (§VII-C: the mcf
    /// transformation was applied manually following §V's algorithms).
    /// Reads count, but element relocation and callee reads do not — the
    /// specialization threads the live slice into the callee instead. Use
    /// only under the live-slice correctness model (DESIGN.md §6).
    pub fn paper() -> Self {
        LiveRangeConfig {
            full_transfers: false,
        }
    }
}

/// Result of the analysis for one function.
#[derive(Clone, Debug)]
pub struct LiveRanges {
    ranges: HashMap<ValueId, Range>,
}

impl LiveRanges {
    /// The live range of a sequence variable; empty if nothing observes it.
    pub fn range(&self, v: ValueId) -> Range {
        self.ranges.get(&v).cloned().unwrap_or_else(Range::empty)
    }

    /// Iterates all computed (variable, range) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &Range)> {
        self.ranges.iter().map(|(&v, r)| (v, r))
    }
}

/// Runs the analysis on one function of a module.
///
/// ```
/// use memoir_analysis::{live_ranges, LiveRangeConfig};
/// use memoir_ir::{Form, ModuleBuilder, Type};
///
/// // A sequence written at many indices but read only at [0:2).
/// let mut mb = ModuleBuilder::new("m");
/// let mut result = None;
/// let fid = mb.func("f", Form::Ssa, |b| {
///     let i64t = b.ty(Type::I64);
///     let n = b.index(8);
///     let s0 = b.new_seq(i64t, n);
///     let (i0, i1, v) = (b.index(0), b.index(1), b.i64(7));
///     let s1 = b.write(s0, i0, v);
///     let s2 = b.write(s1, i1, v);
///     let a = b.read(s2, i0);
///     let c = b.read(s2, i1);
///     let sum = b.add(a, c);
///     result = Some(s2);
///     b.returns(&[i64t]);
///     b.ret(vec![sum]);
/// });
/// let m = mb.finish();
/// let lr = live_ranges(&m, fid, &LiveRangeConfig::sound());
/// assert_eq!(lr.range(result.unwrap()).to_string(), "[0 : 2)");
/// ```
pub fn live_ranges(m: &Module, fid: FuncId, cfg: &LiveRangeConfig) -> LiveRanges {
    let f = &m.funcs[fid];
    let idx = IndexRanges::new(f);
    let mut p: HashMap<ValueId, Range> = HashMap::new();
    let insts = f.inst_ids_in_order();

    let is_seq = |v: ValueId| matches!(m.types.get(f.value_ty(v)), Type::Seq(_));

    let mut iter = 0usize;
    loop {
        iter += 1;
        let mut changed = false;
        // Reverse order helps convergence (liveness flows backwards).
        for &(_, i) in insts.iter().rev() {
            let inst = &f.insts[i];
            let contributions = transfer(m, f, inst, &p, &idx, cfg, is_seq);
            for (target, contrib) in contributions {
                // Unknown bounds mean "cannot be bounded", not "empty":
                // widen so they do not collapse under min/max absorption.
                let contrib = contrib.widened();
                if contrib.is_empty_const() {
                    continue;
                }
                let entry = p.entry(target).or_insert_with(Range::empty);
                let joined = entry.join(&contrib);
                let joined = if joined.complexity() > MAX_COMPLEXITY {
                    Range::full()
                } else {
                    joined
                };
                if *entry != joined {
                    *entry = joined;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if iter >= MAX_ITERATIONS {
            // Alg. 1's default for unresolved cycles.
            for r in p.values_mut() {
                *r = Range::full();
            }
            break;
        }
    }
    // Widen Unknown bounds into their [0:end) meaning.
    for r in p.values_mut() {
        *r = r.widened();
    }
    LiveRanges { ranges: p }
}

/// Computes the liveness contributions of one instruction: pairs of
/// (sequence operand, range that becomes live in it).
fn transfer(
    m: &Module,
    f: &Function,
    inst: &memoir_ir::Inst,
    p: &HashMap<ValueId, Range>,
    idx: &IndexRanges<'_>,
    cfg: &LiveRangeConfig,
    is_seq: impl Fn(ValueId) -> bool,
) -> Vec<(ValueId, Range)> {
    let result_range = |ri: usize| -> Range {
        inst.results
            .get(ri)
            .and_then(|r| p.get(r))
            .cloned()
            .unwrap_or_else(Range::empty)
    };
    let mut out = Vec::new();
    match &inst.kind {
        InstKind::Read { c, idx: i } if is_seq(*c) => {
            out.push((*c, idx.range_of(*i).widened()));
        }
        InstKind::UsePhi { c } | InstKind::Copy { c } if is_seq(*c) => {
            out.push((*c, result_range(0)));
        }
        InstKind::CopyRange { c, from, to } if is_seq(*c) => {
            let pr = result_range(0);
            let r = if cfg.full_transfers {
                // Table I: S1 + i ⊑ S0 — but p(S1)'s `end` is the copy's
                // width, not S0's size.
                if range_mentions_end_sym(&pr) {
                    match width_expr(f, idx, *from, *to) {
                        Some(w) => {
                            let p1 = subst_end_with(&pr, &w);
                            shift_by_value(&p1, f, idx, *from, 1)
                        }
                        None => Range::full(),
                    }
                } else {
                    shift_by_value(&pr, f, idx, *from, 1)
                }
            } else {
                pr
            };
            out.push((*c, r));
        }
        InstKind::Write { c, .. } if is_seq(*c) => {
            // Table I: S1 ⊑ S0 (no kill — conservative).
            out.push((*c, result_range(0)));
        }
        InstKind::Rmw { c, idx: i, .. } if is_seq(*c) => {
            // Fused read+write: the write half transfers like `write`
            // (S1 ⊑ S0, no kill) and the read half makes the indexed
            // element live exactly like `read`.
            out.push((*c, result_range(0)));
            out.push((*c, idx.range_of(*i).widened()));
        }
        InstKind::Insert { c, idx: i, .. } if is_seq(*c) => {
            let pr = result_range(0);
            let r = if cfg.full_transfers {
                // Table I: S1 ∧ [0:i] ⊑ S0 ; (S1 ∧ [i+1:end]) − 1 ⊑ S0.
                // The symbolic `end` in p(S1) denotes S1's size, which is
                // S0's size + 1: rebind it before shifting (dropping the
                // rebinding was an under-approximation caught by the
                // differential fuzzer).
                let p1 = subst_end(&pr, 1);
                let shifted = p1.shift_const(-1);
                match bound_expr(f, idx, *i) {
                    Some(ie) => {
                        let below = p1.meet(&Range::new(Expr::constant(0), ie.clone()));
                        let above = shifted.meet(&Range::new(ie, Expr::end()));
                        below.join(&above)
                    }
                    // Unknown insertion point: both images joined.
                    None => p1.join(&shifted),
                }
            } else {
                pr
            };
            out.push((*c, r));
        }
        InstKind::InsertSeq { c, src, .. } => {
            let pr = result_range(0);
            if is_seq(*c) {
                // Splice relocation needs |src| which is not an SSA value
                // here; widen under relocation, identity otherwise.
                let r = if cfg.full_transfers {
                    Range::full()
                } else {
                    pr.clone()
                };
                out.push((*c, r));
            }
            if is_seq(*src) {
                let r = if cfg.full_transfers {
                    Range::full()
                } else {
                    pr
                };
                out.push((*src, r));
            }
        }
        InstKind::Remove { c, idx: i } if is_seq(*c) => {
            let pr = result_range(0);
            let r = if cfg.full_transfers {
                let p1 = subst_end(&pr, -1);
                let shifted = p1.shift_const(1);
                match bound_expr(f, idx, *i) {
                    Some(ie) => {
                        let below = p1.meet(&Range::new(Expr::constant(0), ie.clone()));
                        let above = shifted.meet(&Range::new(ie.offset(1), Expr::end()));
                        below.join(&above)
                    }
                    None => p1.join(&shifted),
                }
            } else {
                pr
            };
            out.push((*c, r));
        }
        InstKind::RemoveRange { c, from, to } if is_seq(*c) => {
            let pr = result_range(0);
            let r = if cfg.full_transfers {
                match width_expr(f, idx, *from, *to) {
                    Some(w) => {
                        // p(S1) in S0 coordinates: end shrinks by w.
                        let p1 = subst_end_expr(&pr, &w, true);
                        let shifted = Range::new(p1.lo.add_expr(&w), p1.hi.add_expr(&w));
                        match bound_expr(f, idx, *from) {
                            Some(fe) => {
                                let below = p1.meet(&Range::new(Expr::constant(0), fe));
                                below.join(&shifted)
                            }
                            None => p1.join(&shifted),
                        }
                    }
                    None => Range::full(),
                }
            } else {
                pr
            };
            out.push((*c, r));
        }
        InstKind::Swap { c, .. } if is_seq(*c) => {
            let pr = result_range(0);
            let r = if cfg.full_transfers {
                // Identity ∨ cross-shifts; the cross-shifts involve
                // loop-variant offsets in practice, so they widen unless
                // anchored. Conservative: join with full when offsets are
                // not anchored, else apply the shifts.
                cross_swap(f, idx, &inst.kind, &pr)
            } else {
                pr
            };
            out.push((*c, r));
        }
        InstKind::Swap2 { a, b, .. } => {
            let (pa, pb) = (result_range(0), result_range(1));
            if cfg.full_transfers {
                // Sound over-approximation for the two-sequence swap.
                if is_seq(*a) {
                    out.push((*a, pa.join(&pb)));
                }
                if is_seq(*b) {
                    out.push((*b, pa.join(&pb)));
                }
            } else {
                if is_seq(*a) {
                    out.push((*a, pa));
                }
                if is_seq(*b) {
                    out.push((*b, pb));
                }
            }
        }
        InstKind::Phi { incoming } if inst.results.first().is_some_and(|r| is_seq(*r)) => {
            let pr = result_range(0);
            for (_, v) in incoming {
                if is_seq(*v) {
                    out.push((*v, pr.clone()));
                }
            }
        }
        InstKind::Select {
            then_value,
            else_value,
            ..
        } if inst.results.first().is_some_and(|r| is_seq(*r)) => {
            let pr = result_range(0);
            out.push((*then_value, pr.clone()));
            out.push((*else_value, pr));
        }
        InstKind::Ret { values } => {
            for &v in values {
                if is_seq(v) {
                    out.push((v, Range::full()));
                }
            }
        }
        InstKind::Call { callee, args } => {
            for &a in args {
                if is_seq(a) {
                    let r = match callee {
                        Callee::Extern(e)
                            if !m.externs[*e].effects.reads_args
                                && !m.externs[*e].effects.opaque =>
                        {
                            Range::empty()
                        }
                        _ if !cfg.full_transfers => Range::empty(),
                        _ => Range::full(),
                    };
                    out.push((a, r));
                }
            }
        }
        // Element stores of sequences into other collections: the stored
        // sequence escapes wholesale.
        InstKind::MutWrite { value, .. }
        | InstKind::MutRmw { value, .. }
        | InstKind::FieldWrite { value, .. }
            if is_seq(*value) =>
        {
            out.push((*value, Range::full()));
        }
        InstKind::Write { value, .. } | InstKind::Rmw { value, .. } if is_seq(*value) => {
            out.push((*value, Range::full()));
        }
        InstKind::Insert { value: Some(v), .. } | InstKind::MutInsert { value: Some(v), .. }
            if is_seq(*v) =>
        {
            out.push((*v, Range::full()));
        }
        _ => {}
    }
    out
}

/// Rebinds the symbolic `end` of a range by a constant delta (moving a
/// range between the coordinate frames of collections whose sizes differ
/// by `delta`).
fn subst_end(r: &Range, delta: i64) -> Range {
    r.substitute(&|t| {
        if t == crate::exprtree::Term::End {
            Some(Expr::end().offset(delta))
        } else {
            None
        }
    })
}

/// Rebinds `end` by an affine expression delta: `end ↦ end − w` when
/// `negate`, else `end ↦ end + w`.
fn subst_end_expr(r: &Range, w: &Expr, negate: bool) -> Range {
    r.substitute(&|t| {
        if t == crate::exprtree::Term::End {
            let base = Expr::end();
            Some(if negate {
                match w {
                    Expr::Affine(a) => base.add(&a.neg()),
                    _ => Expr::Unknown,
                }
            } else {
                base.add_expr(w)
            })
        } else {
            None
        }
    })
}

/// Replaces `end` outright with `w` (the copied width).
fn subst_end_with(r: &Range, w: &Expr) -> Range {
    r.substitute(&|t| {
        if t == crate::exprtree::Term::End {
            Some(w.clone())
        } else {
            None
        }
    })
}

fn range_mentions_end_sym(r: &Range) -> bool {
    fn mentions(e: &Expr) -> bool {
        match e {
            Expr::Affine(a) => a.terms.contains_key(&crate::exprtree::Term::End),
            Expr::Min(es) | Expr::Max(es) => es.iter().any(mentions),
            Expr::Unknown => false,
        }
    }
    mentions(&r.lo) || mentions(&r.hi)
}

/// An anchored expression for an index value, if available.
fn bound_expr(f: &Function, idx: &IndexRanges<'_>, i: ValueId) -> Option<Expr> {
    if let Some(c) = f.value_const(i).and_then(memoir_ir::Constant::as_int) {
        return Some(Expr::constant(c));
    }
    idx.is_anchored(i).then(|| Expr::value(i))
}

/// Shifts a range by `sign * i` where `i` is an index value; widens when
/// `i` is not anchored.
fn shift_by_value(r: &Range, f: &Function, idx: &IndexRanges<'_>, i: ValueId, sign: i64) -> Range {
    match bound_expr(f, idx, i) {
        Some(e) => {
            let delta = match &e {
                Expr::Affine(a) => {
                    if sign >= 0 {
                        a.clone()
                    } else {
                        a.neg()
                    }
                }
                _ => return Range::full(),
            };
            r.shift(&delta)
        }
        None => Range::full(),
    }
}

fn width_expr(f: &Function, idx: &IndexRanges<'_>, from: ValueId, to: ValueId) -> Option<Expr> {
    let fe = bound_expr(f, idx, from)?;
    let te = bound_expr(f, idx, to)?;
    match (fe, te) {
        (Expr::Affine(a), Expr::Affine(b)) => Some(Expr::Affine(b.add(&a.neg()))),
        _ => None,
    }
}

fn cross_swap(f: &Function, idx: &IndexRanges<'_>, kind: &InstKind, pr: &Range) -> Range {
    let InstKind::Swap { from, to, at, .. } = kind else {
        return Range::full();
    };
    let (Some(fe), Some(te), Some(ae)) = (
        bound_expr(f, idx, *from),
        bound_expr(f, idx, *to),
        bound_expr(f, idx, *at),
    ) else {
        // Offsets are loop-variant: the relocated contribution cannot be
        // expressed; widen (Alg. 1's default).
        return Range::full();
    };
    let (Expr::Affine(fa), Expr::Affine(_ta), Expr::Affine(aa)) = (&fe, &te, &ae) else {
        return Range::full();
    };
    // Identity ∨ (p ∧ [from:to]) − from + at ∨ (p ∧ [at:at+to−from]) − at + from.
    let first = pr
        .meet(&Range::new(fe.clone(), te.clone()))
        .shift(&fa.neg().add(aa));
    let width = match (&te, &fe) {
        (Expr::Affine(t), Expr::Affine(fr)) => t.add(&fr.neg()),
        _ => return Range::full(),
    };
    let second_mask = Range::new(ae.clone(), ae.add_expr(&Expr::Affine(width.clone())));
    let second = pr.meet(&second_mask).shift(&aa.neg().add(fa));
    pr.join(&first).join(&second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, ModuleBuilder};

    /// Writes indices 0..8 into a sequence, then reads only [0:3).
    /// Sound mode must report exactly `[0 : 3)` live for the final value.
    #[test]
    fn partial_read_bounds_liveness() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        let fid = mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(memoir_ir::Type::I64);
            let n = b.index(8);
            let s0 = b.new_seq(i64t, n);
            let v = b.i64(1);
            let mut s = s0;
            for k in 0..8 {
                let ik = b.index(k);
                s = b.write(s, ik, v);
            }
            let i0 = b.index(0);
            let i2 = b.index(2);
            let a = b.read(s, i0);
            let c = b.read(s, i2);
            let sum = b.add(a, c);
            probe = Some((s0, s));
            b.returns(&[i64t]);
            b.ret(vec![sum]);
        });
        let m = mb.finish();
        let lr = live_ranges(&m, fid, &LiveRangeConfig::sound());
        let (s0, s_final) = probe.unwrap();
        let r = lr.range(s_final);
        assert_eq!(r, Range::constant(0, 3), "final: {r}");
        // The liveness propagates through the whole write chain.
        let r0 = lr.range(s0);
        assert_eq!(r0, Range::constant(0, 3), "origin: {r0}");
    }

    /// A sequence returned from the function is fully live in both
    /// configurations: the caller may read any element.
    #[test]
    fn returned_sequence_modes() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        let fid = mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(memoir_ir::Type::I64);
            let seqt = b.types.seq_of(i64t);
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            probe = Some(s);
            b.returns(&[seqt]);
            b.ret(vec![s]);
        });
        let m = mb.finish();
        let s = probe.unwrap();
        for cfg in [LiveRangeConfig::sound(), LiveRangeConfig::paper()] {
            assert!(live_ranges(&m, fid, &cfg).range(s).is_full(), "{cfg:?}");
        }
    }

    /// Swap relocation under the sound config: reading `[0:2)` of the
    /// swapped result makes the *source* range `[4:6)` live in the
    /// operand (elements travel through the swap), alongside the identity
    /// image.
    #[test]
    fn swap_relocates_liveness() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        let fid = mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(memoir_ir::Type::I64);
            let seqt = b.types.seq_of(i64t);
            let s0 = b.param("s", seqt);
            let zero = b.index(0);
            let two = b.index(2);
            let four = b.index(4);
            let one = b.index(1);
            // s1 = swap(s0, [0:2) ↔ [4:6)).
            let s1 = b.swap(s0, zero, two, four);
            let a = b.read(s1, zero);
            let c = b.read(s1, one);
            let sum = b.add(a, c);
            probe = Some(s0);
            b.returns(&[i64t]);
            b.ret(vec![sum]);
        });
        let m = mb.finish();
        let lr = live_ranges(&m, fid, &LiveRangeConfig::sound());
        let s0 = probe.unwrap();
        let r = lr.range(s0);
        // The join of the identity image [0:2) and the relocated [4:6)
        // must cover both: lo = 0, hi ≥ 6.
        assert!(r.lo.is_const(0), "{r}");
        let covers_source = match r.hi.as_const() {
            Some(h) => h >= 6,
            None => true, // symbolic/widened: over-approximates; fine
        };
        assert!(covers_source, "swap source must stay live: {r}");
        assert!(!r.is_full() || r.hi.as_const().is_none(), "{r}");
    }

    /// Loop-bounded reads: reading `s[i]` for `i in 0..k` yields
    /// `[0 : max(1, k+1))` — the index-range lattice is flow-insensitive,
    /// so the φ range conservatively includes the exit value `k` even
    /// though the read itself is guarded by `i < k`.
    #[test]
    fn loop_read_uses_index_range() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        let fid = mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(memoir_ir::Type::I64);
            let idxt = b.ty(memoir_ir::Type::Index);
            let seqt = b.types.seq_of(i64t);
            let s = b.param("s", seqt);
            let k = b.param("k", idxt);
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let zero = b.index(0);
            let one = b.index(1);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(idxt);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            let done = b.cmp(memoir_ir::CmpOp::Ge, i, k);
            b.branch(done, exit, body);
            b.switch_to(body);
            let _v = b.read(s, i);
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.jump(header);
            b.switch_to(exit);
            b.ret(vec![]);
            probe = Some((s, k));
        });
        let m = mb.finish();
        let lr = live_ranges(&m, fid, &LiveRangeConfig::sound());
        let (s, k) = probe.unwrap();
        let r = lr.range(s);
        assert!(r.lo.is_const(0), "{r}");
        assert_eq!(
            r.hi,
            Expr::max2(Expr::constant(1), Expr::value(k).offset(1)),
            "{r}"
        );
    }
}
