//! Dead Element Elimination (paper §V, Alg. 2; Listings 2–4).
//!
//! Using the live range analysis, DEE rewrites sequence construction and
//! access to operate only on the live slice:
//!
//! * **Intra-function (strict) DEE** — for a `WRITE`/`INSERT` whose
//!   result's *sound* live range `[ℓ : u)` is materializable and not full,
//!   the operation is guarded so it only executes when its target index
//!   intersects the live slice (Alg. 2's rewrite, followed by constant
//!   folding and simplification). This mode is fully
//!   semantics-preserving.
//! * **Call specialization DEE** — the mcf path (Listings 2–3): a call
//!   whose returned sequence has a bounded live range in the caller, and
//!   aliases one of the callee's parameters (`ReturnAliases`), is
//!   redirected to a specialized clone taking `%a`/`%b` bounds. Inside the
//!   clone, recursive calls thread the bounds, an entry guard returns the
//!   aliased parameters when the live slice is empty, and — when a
//!   write-range summary is available — recursive calls whose write region
//!   cannot intersect the live slice are skipped entirely. This turns mcf's
//!   qsort from `O(n log n)` into `O(n + B log B)` (§VII-C), and the
//!   result is exact whenever the caller observes only `[%a : %b)`.
//!   Listing 4 also guards the clone's element writes against
//!   `[%a : %b)`; that rewrite is unsound under recursion and is not
//!   implemented (DESIGN.md §6).

use crate::materialize::{Materializer, Point};
use memoir_analysis::cached::CachedDefUse;
use memoir_analysis::exprtree::{Expr, Term};
use memoir_analysis::idxrange::IndexRanges;
use memoir_analysis::liverange::{live_ranges, LiveRangeConfig};
use memoir_analysis::range::Range;
use memoir_analysis::{CallGraph, ReturnAliases};
use memoir_ir::{
    BlockId, Callee, Form, FuncId, Function, InstId, InstKind, Module, Type, TypeId, ValueId,
};
use passman::AnalysisManager;
use std::collections::HashMap;

/// Statistics from a DEE run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeeStats {
    /// Writes wrapped in live-range guards.
    pub writes_guarded: usize,
    /// Inserts wrapped in live-range guards.
    pub inserts_guarded: usize,
    /// Operations dropped outright (live range statically empty).
    pub ops_dropped: usize,
    /// Functions cloned with `%a`/`%b` live-range parameters.
    pub functions_specialized: usize,
    /// Call sites redirected to specializations.
    pub calls_specialized: usize,
    /// Recursive calls guarded by write-range/live-range intersection
    /// tests (the recursion pruning that yields the complexity win).
    pub recursive_calls_pruned: usize,
}

/// Runs strict (fully semantics-preserving) intra-function DEE on every
/// SSA function.
pub fn dee_strict(m: &mut Module) -> DeeStats {
    dee_strict_with(m, &mut AnalysisManager::new())
}

/// Runs strict DEE, sharing def-use chains through `am` and invalidating
/// only the functions it actually rewrote.
pub fn dee_strict_with(m: &mut Module, am: &mut AnalysisManager<Module>) -> DeeStats {
    let mut stats = DeeStats::default();
    for fid in m.funcs.ids().collect::<Vec<_>>() {
        if m.funcs[fid].form != Form::Ssa {
            continue;
        }
        stats = merge(stats, dee_function(m, fid, am));
    }
    stats
}

/// Intra-function DEE under the sound live ranges: drops operations
/// whose result is never observed, and guards writes/inserts whose live
/// slice is a materializable strict sub-range.
fn dee_function(m: &mut Module, fid: FuncId, am: &mut AnalysisManager<Module>) -> DeeStats {
    let mut stats = DeeStats::default();
    let lr = live_ranges(m, fid, &LiveRangeConfig::sound());

    enum Site {
        Drop(InstId),
        GuardWrite(InstId, Range),
        GuardInsert(InstId, Range),
    }
    let mut sites = Vec::new();
    {
        let du = am.get::<CachedDefUse>(m, fid);
        let f = &m.funcs[fid];
        for (_, i) in f.inst_ids_in_order() {
            let inst = &f.insts[i];
            let Some(&result) = inst.results.first() else {
                continue;
            };
            if !matches!(m.types.get(f.value_ty(result)), Type::Seq(_)) {
                continue;
            }
            let range = lr.range(result);
            if range.is_full() {
                continue;
            }
            match &inst.kind {
                InstKind::Write { .. } => {
                    if range.is_empty_const() && du.use_count(result) > 0 {
                        sites.push(Site::Drop(i));
                    } else if !range.is_empty_const() {
                        sites.push(Site::GuardWrite(i, range));
                    }
                }
                InstKind::Insert { .. } => {
                    // An insert changes the index space; only a fully dead
                    // result may be dropped, and guarding requires the
                    // suffix to be dead too (hi bound only, Alg. 2).
                    if range.is_empty_const() && du.use_count(result) > 0 {
                        sites.push(Site::Drop(i));
                    } else if !range.is_empty_const() && !range_mentions_end(&range) {
                        sites.push(Site::GuardInsert(i, range));
                    }
                }
                _ => {}
            }
        }
    }

    for site in sites {
        match site {
            Site::Drop(inst) => {
                let f = &mut m.funcs[fid];
                let Some((b, _)) = find_inst(f, inst) else {
                    continue;
                };
                // Read the forward-to operand *now*: an earlier drop in
                // this batch may already have rewritten it (capturing it
                // at site-collection time forwarded uses to a value whose
                // definition was just removed).
                let fwd = match &f.insts[inst].kind {
                    InstKind::Write { c, .. } | InstKind::Insert { c, .. } => *c,
                    _ => continue,
                };
                let result = f.insts[inst].results[0];
                f.replace_all_uses(result, fwd);
                f.remove_inst(b, inst);
                stats.ops_dropped += 1;
            }
            Site::GuardWrite(inst, range) => {
                // Negative symbolic lower bounds denote the same liveness
                // as zero and would wrap as unsigned indices.
                let Range { lo, hi } = range.clamp_lo_zero();
                if let Some(&[lo_v, hi_v]) = materialize_bounds(m, fid, inst, &[lo, hi]).as_deref()
                {
                    guard_write(m, fid, inst, lo_v, hi_v);
                    stats.writes_guarded += 1;
                }
            }
            Site::GuardInsert(inst, range) => {
                // Alg. 2 guards an insert by the upper bound alone.
                if let Some(&[hi_v]) = materialize_bounds(m, fid, inst, &[range.hi]).as_deref() {
                    guard_insert(m, fid, inst, hi_v);
                    stats.inserts_guarded += 1;
                }
            }
        }
    }
    if stats != DeeStats::default() {
        am.invalidate(fid);
    }
    stats
}

/// Materializes live-range bounds immediately before `inst`, in order,
/// providing `size(S0)` for the symbolic `end`.
fn materialize_bounds(
    m: &mut Module,
    fid: FuncId,
    inst: InstId,
    bounds: &[Expr],
) -> Option<Vec<ValueId>> {
    let index_ty = m.types.intern(Type::Index);
    let f = &mut m.funcs[fid];
    let (block, pos) = find_inst(f, inst)?;
    let source = match &f.insts[inst].kind {
        InstKind::Write { c, .. } | InstKind::Insert { c, .. } | InstKind::Swap { c, .. } => *c,
        _ => return None,
    };
    let mut point = Point { block, index: pos };
    let mut mat = Materializer::new(f, index_ty);
    if bounds.iter().any(mentions_end) {
        let (_, sz) = mat_insert_size(mat.f, point, source, index_ty);
        mat.end_value = Some(sz);
        point.index += 1;
        mat.refresh();
    }
    let mut values = Vec::with_capacity(bounds.len());
    for e in bounds {
        let (v, n) = mat.materialize(e, point)?;
        point.index += n;
        values.push(v);
    }
    Some(values)
}

/// Runs call-specialization DEE (the paper's mcf methodology): for every
/// call whose returned sequence has a bounded live range in the caller,
/// create a `[%a : %b)`-specialized callee clone and redirect the call.
pub fn dee_specialize_calls(m: &mut Module) -> DeeStats {
    let mut stats = DeeStats::default();
    let mut specializations: HashMap<FuncId, FuncId> = HashMap::new();
    // Computed at the first bounded call result. A clone keeps its
    // original's plan: its self-calls return what the original's did, and
    // its early exit returns the aliased parameters.
    let mut returns: Option<ReturnAliases> = None;

    // Examine every call site in every SSA function.
    for fid in m.funcs.ids().collect::<Vec<_>>() {
        if m.funcs[fid].form != Form::Ssa {
            continue;
        }
        // Caller-side liveness under the paper-methodology configuration
        // (callee reads are accounted by the specialization; see
        // LiveRangeConfig::paper and DESIGN.md §6).
        let lr = live_ranges(m, fid, &LiveRangeConfig::paper());
        // Collect candidate call sites: (block, inst, target, live range,
        // seq argument position, the target's return-alias plan).
        struct Candidate {
            block: BlockId,
            inst: InstId,
            target: FuncId,
            range: Range,
            arg_pos: usize,
            plan: Vec<Option<usize>>,
        }
        let mut candidates = Vec::new();
        {
            let f = &m.funcs[fid];
            for (b, i) in f.inst_ids_in_order() {
                let InstKind::Call {
                    callee: Callee::Func(target),
                    ..
                } = &f.insts[i].kind
                else {
                    continue;
                };
                if *target == fid {
                    continue; // self-recursive sites are handled inside clones
                }
                if m.funcs[*target].form != Form::Ssa {
                    continue;
                }
                // Find a seq-typed result whose live range is bounded.
                for (ri, &r) in f.insts[i].results.iter().enumerate() {
                    if !matches!(m.types.get(f.value_ty(r)), Type::Seq(_)) {
                        continue;
                    }
                    let range = lr.range(r).clamp_lo_zero();
                    if range.is_full() || range.is_empty_const() {
                        continue;
                    }
                    // The returned seq must alias a parameter of the callee
                    // (so bounds apply to the threaded storage).
                    let plan = returns
                        .get_or_insert_with(|| ReturnAliases::compute(m, &CallGraph::compute(m)))
                        .plan(*target);
                    let Some(arg_pos) = plan.get(ri).copied().flatten() else {
                        continue;
                    };
                    candidates.push(Candidate {
                        block: b,
                        inst: i,
                        target: *target,
                        range,
                        arg_pos,
                        plan,
                    });
                    break; // one specialization per call
                }
            }
        }

        for cand in candidates {
            // Build or reuse the specialization.
            let spec = match specializations.get(&cand.target) {
                Some(&s) => s,
                None => {
                    let s = specialize_function(m, cand.target, &cand.plan, &mut stats);
                    specializations.insert(cand.target, s);
                    stats.functions_specialized += 1;
                    s
                }
            };
            // Materialize ℓ and u before the call in the caller.
            let index_ty = m.types.intern(Type::Index);
            let f = &mut m.funcs[fid];
            let Some(pos) = f.blocks[cand.block]
                .insts
                .iter()
                .position(|&x| x == cand.inst)
            else {
                continue;
            };
            // `end` in the caller range refers to the result's index
            // space; sequences flowing through a specializable callee keep
            // their length (the callee mutates the threaded storage), so
            // size(arg) materializes it.
            let arg = match &f.insts[cand.inst].kind {
                InstKind::Call { args, .. } => args[cand.arg_pos],
                _ => continue,
            };
            let needs_end = range_mentions_end(&cand.range);
            let mut point = Point {
                block: cand.block,
                index: pos,
            };
            let mut mat = Materializer::new(f, index_ty);
            if needs_end {
                let (_, res) = mat_insert_size(mat.f, point, arg, index_ty);
                mat.end_value = Some(res);
                point.index += 1;
                mat.refresh();
            }
            let Some((lo_v, n1)) = mat.materialize(&cand.range.lo, point) else {
                continue;
            };
            point.index += n1;
            let Some((hi_v, n2)) = mat.materialize(&cand.range.hi, point) else {
                continue;
            };
            let _ = n2;
            // Redirect the call.
            let f = &mut m.funcs[fid];
            if let InstKind::Call { callee, args } = &mut f.insts[cand.inst].kind {
                *callee = Callee::Func(spec);
                args.push(lo_v);
                args.push(hi_v);
                stats.calls_specialized += 1;
            }
        }
    }
    stats
}

fn mat_insert_size(
    f: &mut Function,
    point: Point,
    seq: ValueId,
    index_ty: TypeId,
) -> (InstId, ValueId) {
    let (iid, res) = f.insert_inst_at(
        point.block,
        point.index,
        InstKind::Size { c: seq },
        &[index_ty],
    );
    (iid, res[0])
}

fn mentions_end(e: &Expr) -> bool {
    match e {
        Expr::Affine(a) => a.terms.contains_key(&Term::End),
        Expr::Min(es) | Expr::Max(es) => es.iter().any(mentions_end),
        Expr::Unknown => false,
    }
}

fn range_mentions_end(r: &Range) -> bool {
    mentions_end(&r.lo) || mentions_end(&r.hi)
}

fn merge(a: DeeStats, b: DeeStats) -> DeeStats {
    DeeStats {
        writes_guarded: a.writes_guarded + b.writes_guarded,
        inserts_guarded: a.inserts_guarded + b.inserts_guarded,
        ops_dropped: a.ops_dropped + b.ops_dropped,
        functions_specialized: a.functions_specialized + b.functions_specialized,
        calls_specialized: a.calls_specialized + b.calls_specialized,
        recursive_calls_pruned: a.recursive_calls_pruned + b.recursive_calls_pruned,
    }
}

// ======================================================================
// Call specialization
// ======================================================================

/// Clones `fid` into `fid__dee` with two extra `index` params `%a`, `%b`,
/// threads the bounds through recursive calls, prunes recursion outside
/// the live slice, and returns early when the slice is empty. `plan` is
/// `fid`'s return-alias plan: a skipped call or the early exit returns
/// the aliased arguments. Element writes are not guarded (DESIGN.md §6).
fn specialize_function(
    m: &mut Module,
    fid: FuncId,
    plan: &[Option<usize>],
    stats: &mut DeeStats,
) -> FuncId {
    let mut g = m.funcs[fid].clone();
    g.name = format!("{}__dee", g.name);
    let index_ty = m.types.intern(Type::Index);
    let a_param = g.add_param("dee_a", index_ty, false);
    let b_param = g.add_param("dee_b", index_ty, false);
    let spec_id = m.funcs.push(g);

    // Redirect self-calls to the specialization, threading %a/%b; insert
    // pruning guards where the summary proves non-intersection.
    retarget_self_calls(m, fid, spec_id, a_param, b_param, plan, stats);

    // Entry guard: if %a >= %b, nothing inside the live slice can change —
    // return the inputs unchanged (valid because the caller reads only
    // the slice and recursion threads the same empty slice).
    insert_entry_guard(m, spec_id, a_param, b_param, plan);
    spec_id
}

/// Computes a symbolic summary `[lo : hi)` (over parameter values) of the
/// indices this function may write, or `None` if unresolvable.
fn write_range_summary(m: &Module, fid: FuncId) -> Option<Range> {
    let f = &m.funcs[fid];
    let idx = IndexRanges::new(f);
    let mut acc: Option<Range> = None;
    let join = |r: Range, acc: &mut Option<Range>| {
        *acc = Some(match acc.take() {
            None => r,
            Some(prev) => prev.join(&r),
        });
    };
    for (_, i) in f.inst_ids_in_order() {
        match &f.insts[i].kind {
            InstKind::Write { c, idx: k, .. }
            | InstKind::Rmw { c, idx: k, .. }
            | InstKind::MutRmw { c, idx: k, .. }
                if is_seq(m, f, *c) =>
            {
                let r = idx.range_of(*k);
                if r.lo == Expr::Unknown || r.hi == Expr::Unknown {
                    return None;
                }
                let r = normalize_to_params(f, &r)?;
                if !params_only(f, &r) {
                    return None;
                }
                join(r, &mut acc);
            }
            InstKind::Swap { c, from, to, at } if is_seq(m, f, *c) => {
                let rf = idx.range_of(*from);
                let rt = idx.range_of(*to);
                let ra = idx.range_of(*at);
                for r in [&rf, &rt, &ra] {
                    if r.lo == Expr::Unknown || r.hi == Expr::Unknown {
                        return None;
                    }
                }
                // Written region: [from.lo : to.hi) ∪ [at.lo : at.hi + (to-from).width)
                // approximated by [min(from.lo, at.lo) : max(to.hi, at.hi + width)).
                // For single-element swaps (to = from+1), at-range width is 1.
                let first = Range::new(rf.lo.clone(), rt.hi.clone());
                let width_hint = 1; // conservative for the common element swap
                let second = Range::new(ra.lo.clone(), ra.hi.offset(width_hint - 1));
                let joined = normalize_to_params(f, &first.join(&second))?;
                if !params_only(f, &joined) {
                    return None;
                }
                join(joined, &mut acc);
            }
            InstKind::Insert { c, .. }
            | InstKind::InsertSeq { c, .. }
            | InstKind::Remove { c, .. }
            | InstKind::RemoveRange { c, .. }
            | InstKind::Swap2 { a: c, .. }
                if is_seq(m, f, *c) =>
            {
                return None; // index-space changes defeat the summary
            }
            InstKind::Call {
                callee: Callee::Func(t),
                ..
            } if *t == fid => {
                // Self recursion: assume the recursive write range is the
                // substituted summary; since the summary we are computing
                // must *contain* it and qsort-style recursion narrows its
                // range, the parent range covers it. (Optimistic; validated
                // by the range check below being over params.)
            }
            InstKind::Call {
                callee: Callee::Func(_),
                ..
            } => return None,
            _ => {}
        }
    }
    acc
}

fn is_seq(m: &Module, f: &Function, v: ValueId) -> bool {
    matches!(m.types.get(f.value_ty(v)), Type::Seq(_))
}

/// Whether every value mentioned by a range is a parameter.
fn params_only(f: &Function, r: &Range) -> bool {
    r.lo.values()
        .iter()
        .chain(r.hi.values().iter())
        .all(|&v| matches!(f.values[v].def, memoir_ir::ValueDef::Param(_)))
}

/// Expands a value into an expression over function parameters and
/// constants, following `add`/`sub`-by-constant and `min`/`max` chains
/// (e.g. `pivot = hi - 1` becomes `hi - 1`). `None` when the value is not
/// expressible.
fn param_affine(f: &Function, v: ValueId, depth: usize) -> Option<Expr> {
    if depth == 0 {
        return None;
    }
    if let Some(c) = f.value_const(v).and_then(memoir_ir::Constant::as_int) {
        return Some(Expr::constant(c));
    }
    match &f.values[v].def {
        memoir_ir::ValueDef::Param(_) => Some(Expr::value(v)),
        memoir_ir::ValueDef::Const(_) => None,
        memoir_ir::ValueDef::Inst(iid, _) => match &f.insts[*iid].kind {
            InstKind::Bin {
                op: memoir_ir::BinOp::Add,
                lhs,
                rhs,
            } => {
                let a = param_affine(f, *lhs, depth - 1)?;
                let b = param_affine(f, *rhs, depth - 1)?;
                Some(a.add_expr(&b))
            }
            InstKind::Bin {
                op: memoir_ir::BinOp::Sub,
                lhs,
                rhs,
            } => {
                let a = param_affine(f, *lhs, depth - 1)?;
                let c = f.value_const(*rhs).and_then(memoir_ir::Constant::as_int)?;
                Some(a.offset(-c))
            }
            InstKind::Bin {
                op: memoir_ir::BinOp::Min,
                lhs,
                rhs,
            } => {
                let a = param_affine(f, *lhs, depth - 1)?;
                let b = param_affine(f, *rhs, depth - 1)?;
                Some(Expr::min2(a, b))
            }
            InstKind::Bin {
                op: memoir_ir::BinOp::Max,
                lhs,
                rhs,
            } => {
                let a = param_affine(f, *lhs, depth - 1)?;
                let b = param_affine(f, *rhs, depth - 1)?;
                Some(Expr::max2(a, b))
            }
            _ => None,
        },
    }
}

/// Rewrites a range's bounds into param-affine form; `None` when any
/// mentioned value is not expressible over the parameters.
fn normalize_to_params(f: &Function, r: &Range) -> Option<Range> {
    let rewrite = |e: &Expr| -> Option<Expr> {
        let out = e.substitute(&|t| {
            if let Term::Value(v) = t {
                if !matches!(f.values[v].def, memoir_ir::ValueDef::Param(_)) {
                    // Failure is signalled by Unknown (substitute has no
                    // error channel); checked below.
                    return Some(param_affine(f, v, 8).unwrap_or(Expr::Unknown));
                }
            }
            None
        });
        if out == Expr::Unknown || contains_unknown(&out) {
            None
        } else {
            Some(out)
        }
    };
    Some(Range::new(rewrite(&r.lo)?, rewrite(&r.hi)?))
}

fn contains_unknown(e: &Expr) -> bool {
    match e {
        Expr::Unknown => true,
        Expr::Min(es) | Expr::Max(es) => es.iter().any(contains_unknown),
        Expr::Affine(_) => false,
    }
}

/// Redirects self-calls of the original inside the clone to the clone,
/// appending `%a`/`%b`, and — when the original has a write summary —
/// wraps the call in an intersection guard; a skipped call gives back
/// the arguments its results alias under `plan`.
fn retarget_self_calls(
    m: &mut Module,
    original: FuncId,
    spec: FuncId,
    a_param: ValueId,
    b_param: ValueId,
    plan: &[Option<usize>],
    stats: &mut DeeStats,
) {
    // Pass 1: retarget and collect sites for pruning.
    let mut prune_sites: Vec<InstId> = Vec::new();
    {
        let g = &mut m.funcs[spec];
        for (_, i) in g.inst_ids_in_order() {
            if let InstKind::Call { callee, args } = &mut g.insts[i].kind {
                if *callee == Callee::Func(original) {
                    *callee = Callee::Func(spec);
                    args.push(a_param);
                    args.push(b_param);
                    prune_sites.push(i);
                }
            }
        }
    }
    let Some(summary) = write_range_summary(m, original) else {
        return;
    };

    // Pass 2: guard each recursive call with the intersection test
    //   call is needed iff  sub_lo < %b  and  %a < sub_hi
    // where [sub_lo : sub_hi) is the summary substituted with the call's
    // actual arguments.
    let index_ty = m.types.intern(Type::Index);
    let bool_ty = m.types.intern(Type::Bool);
    for call_inst in prune_sites {
        let g = &m.funcs[spec];
        let Some((block, pos)) = find_inst(g, call_inst) else {
            continue;
        };
        let InstKind::Call { args, .. } = &g.insts[call_inst].kind else {
            continue;
        };
        let args = args.clone();
        // Substitute params → actual args in the summary.
        let params = g.param_values.clone();
        let subst = |t: Term| -> Option<Expr> {
            if let Term::Value(v) = t {
                if let Some(pi) = params.iter().position(|&p| p == v) {
                    return args.get(pi).map(|&a| Expr::value(a));
                }
            }
            None
        };
        let sub = summary.substitute(&subst);
        if sub.lo == Expr::Unknown || sub.hi == Expr::Unknown {
            continue;
        }
        // Results of the call must be forwardable when skipped: each
        // result is then the argument its position aliases.
        let results = m.funcs[spec].insts[call_inst].results.clone();
        let Some(fallbacks) = plan
            .iter()
            .map(|p| p.map(|p| args[p]))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };

        // Materialize sub.lo and sub.hi before the call.
        let g = &mut m.funcs[spec];
        let mut point = Point { block, index: pos };
        let mut mat = Materializer::new(g, index_ty);
        let Some((lo_v, n1)) = mat.materialize(&sub.lo, point) else {
            continue;
        };
        point.index += n1;
        let Some((hi_v, n2)) = mat.materialize(&sub.hi, point) else {
            continue;
        };
        point.index += n2;

        // cond = (lo_v < %b) and (%a < hi_v)
        let g = &mut m.funcs[spec];
        let (_, c1) = g.insert_inst_at(
            block,
            point.index,
            InstKind::Cmp {
                op: memoir_ir::CmpOp::Lt,
                lhs: lo_v,
                rhs: b_param,
            },
            &[bool_ty],
        );
        let (_, c2) = g.insert_inst_at(
            block,
            point.index + 1,
            InstKind::Cmp {
                op: memoir_ir::CmpOp::Lt,
                lhs: a_param,
                rhs: hi_v,
            },
            &[bool_ty],
        );
        let (_, cond) = g.insert_inst_at(
            block,
            point.index + 2,
            InstKind::Bin {
                op: memoir_ir::BinOp::And,
                lhs: c1[0],
                rhs: c2[0],
            },
            &[bool_ty],
        );
        let call_pos = point.index + 3;
        // Split: block keeps [0..call_pos), `do_call` holds the call,
        // `cont` holds the rest; φs merge results with fallbacks.
        let (do_call, cont) = isolate_inst(g, block, call_pos, cond[0]);
        // Add φs in cont for each result.
        for (ri, &r) in results.iter().enumerate() {
            let ty = g.value_ty(r);
            let (_, phi) = g.insert_inst_at(
                cont,
                ri,
                InstKind::Phi {
                    incoming: vec![(do_call, r), (block, fallbacks[ri])],
                },
                &[ty],
            );
            let phi_v = phi[0];
            // Replace uses of r (except in the φ itself) with φ.
            replace_uses_except(g, r, phi_v, cont, ri);
        }
        stats.recursive_calls_pruned += 1;
    }
}

/// Splits `block` so that the instruction at `pos` sits alone in a new
/// block executed only when `cond` holds; returns (guarded-block,
/// continuation-block). `block` ends with `br cond, guarded, cont`.
fn isolate_inst(f: &mut Function, block: BlockId, pos: usize, cond: ValueId) -> (BlockId, BlockId) {
    let guarded = f.add_block("dee_call");
    let cont = f.add_block("dee_cont");
    let tail: Vec<InstId> = f.blocks[block].insts.drain(pos..).collect();
    let (inst, rest) = tail.split_first().expect("instruction at pos");
    f.blocks[guarded].insts.push(*inst);
    f.blocks[cont].insts.extend(rest.iter().copied());
    // Fix φs in successors that referenced `block` as predecessor.
    let succs: Vec<BlockId> = rest
        .last()
        .map(|&t| f.insts[t].kind.successors())
        .unwrap_or_default();
    for s in succs {
        for i in f.blocks[s].insts.clone() {
            if let InstKind::Phi { incoming } = &mut f.insts[i].kind {
                for (p, _) in incoming.iter_mut() {
                    if *p == block {
                        *p = cont;
                    }
                }
            }
        }
    }
    f.append_inst(
        block,
        InstKind::Branch {
            cond,
            then_target: guarded,
            else_target: cont,
        },
        &[],
    );
    f.append_inst(guarded, InstKind::Jump { target: cont }, &[]);
    (guarded, cont)
}

fn find_inst(f: &Function, inst: InstId) -> Option<(BlockId, usize)> {
    for (b, block) in f.blocks.iter() {
        if let Some(pos) = block.insts.iter().position(|&i| i == inst) {
            return Some((b, pos));
        }
    }
    None
}

fn replace_uses_except(
    f: &mut Function,
    from: ValueId,
    to: ValueId,
    skip_block: BlockId,
    skip_pos: usize,
) {
    for (b, block) in f
        .blocks
        .iter()
        .map(|(b, bl)| (b, bl.insts.clone()))
        .collect::<Vec<_>>()
    {
        for (pos, i) in block.iter().enumerate() {
            if b == skip_block && pos == skip_pos {
                continue;
            }
            let mut kind = f.insts[*i].kind.clone();
            let mut changed = false;
            kind.visit_operands_mut(|v| {
                if *v == from {
                    *v = to;
                    changed = true;
                }
            });
            if changed {
                f.insts[*i].kind = kind;
            }
        }
    }
}

/// Inserts `if %a >= %b: return <params>` at the entry of the clone,
/// returning the parameter each ret position aliases under `plan` (no
/// guard when some position aliases none).
fn insert_entry_guard(
    m: &mut Module,
    spec: FuncId,
    a_param: ValueId,
    b_param: ValueId,
    plan: &[Option<usize>],
) {
    let bool_ty = m.types.intern(Type::Bool);
    let g = &mut m.funcs[spec];
    let Some(fallbacks) = plan
        .iter()
        .map(|p| p.map(|p| g.param_values[p]))
        .collect::<Option<Vec<_>>>()
    else {
        return;
    };
    let old_entry = g.entry;
    // New entry block: guard, then jump into the old entry.
    let new_entry = g.add_block("dee_entry");
    let early = g.add_block("dee_early_ret");
    let (_, cond) = {
        let (iid, res) = g.append_inst(
            new_entry,
            InstKind::Cmp {
                op: memoir_ir::CmpOp::Ge,
                lhs: a_param,
                rhs: b_param,
            },
            &[bool_ty],
        );
        (iid, res)
    };
    g.append_inst(
        new_entry,
        InstKind::Branch {
            cond: cond[0],
            then_target: early,
            else_target: old_entry,
        },
        &[],
    );
    g.append_inst(early, InstKind::Ret { values: fallbacks }, &[]);
    g.entry = new_entry;
}

/// `S1 = WRITE(S0, i, v)` →
/// `if (a <= i && i < b) { S1' = WRITE(S0, i, v) } ; S1 = φ(S1', S0)`.
fn guard_write(m: &mut Module, fid: FuncId, inst: InstId, a: ValueId, b: ValueId) {
    let bool_ty = m.types.intern(Type::Bool);
    let f = &mut m.funcs[fid];
    let Some((block, pos)) = find_inst(f, inst) else {
        return;
    };
    let InstKind::Write { c: s0, idx, .. } = f.insts[inst].kind else {
        return;
    };
    let result = f.insts[inst].results[0];

    let (_, c1) = f.insert_inst_at(
        block,
        pos,
        InstKind::Cmp {
            op: memoir_ir::CmpOp::Le,
            lhs: a,
            rhs: idx,
        },
        &[bool_ty],
    );
    let (_, c2) = f.insert_inst_at(
        block,
        pos + 1,
        InstKind::Cmp {
            op: memoir_ir::CmpOp::Lt,
            lhs: idx,
            rhs: b,
        },
        &[bool_ty],
    );
    let (_, cond) = f.insert_inst_at(
        block,
        pos + 2,
        InstKind::Bin {
            op: memoir_ir::BinOp::And,
            lhs: c1[0],
            rhs: c2[0],
        },
        &[bool_ty],
    );
    let (guarded, cont) = isolate_inst(f, block, pos + 3, cond[0]);
    // φ merging the written and unwritten versions.
    let ty = f.value_ty(result);
    let (_, phi) = f.insert_inst_at(
        cont,
        0,
        InstKind::Phi {
            incoming: vec![(guarded, result), (block, s0)],
        },
        &[ty],
    );
    replace_uses_except(f, result, phi[0], cont, 0);
}

/// `S1 = INSERT(S0, i, v)` → guarded by `i < b` (Alg. 2).
fn guard_insert(m: &mut Module, fid: FuncId, inst: InstId, b: ValueId) {
    let bool_ty = m.types.intern(Type::Bool);
    let f = &mut m.funcs[fid];
    let Some((block, pos)) = find_inst(f, inst) else {
        return;
    };
    let InstKind::Insert { c: s0, idx, .. } = f.insts[inst].kind else {
        return;
    };
    let result = f.insts[inst].results[0];
    let (_, cond) = f.insert_inst_at(
        block,
        pos,
        InstKind::Cmp {
            op: memoir_ir::CmpOp::Lt,
            lhs: idx,
            rhs: b,
        },
        &[bool_ty],
    );
    let (guarded, cont) = isolate_inst(f, block, pos + 1, cond[0]);
    let ty = f.value_ty(result);
    let (_, phi) = f.insert_inst_at(
        cont,
        0,
        InstKind::Phi {
            incoming: vec![(guarded, result), (block, s0)],
        },
        &[ty],
    );
    replace_uses_except(f, result, phi[0], cont, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{constprop, dce, simplify};
    use memoir_interp::{Interp, Value};
    use memoir_ir::{CmpOp, ModuleBuilder};

    /// Build: write constants into indices 0..8, read back only [0:3).
    fn partial_read_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(8);
            let s0 = b.new_seq(i64t, n);
            let mut s = s0;
            for k in 0..8 {
                let ik = b.index(k);
                let vk = b.i64((10 + k) as i64);
                s = b.write(s, ik, vk);
            }
            let i0 = b.index(0);
            let i2 = b.index(2);
            let a = b.read(s, i0);
            let c = b.read(s, i2);
            let sum = b.add(a, c);
            b.returns(&[i64t]);
            b.ret(vec![sum]);
        });
        mb.finish()
    }

    /// Strict DEE + cleanup removes the five dead writes entirely.
    #[test]
    fn strict_dee_eliminates_dead_writes() {
        let mut m = partial_read_module();
        let baseline = {
            let mut i = Interp::new(&m);
            i.run_by_name("main", vec![]).unwrap()
        };
        let stats = dee_strict(&mut m);
        assert!(stats.writes_guarded >= 5, "{stats:?}");
        memoir_ir::verifier::assert_valid(&m);
        // Cleanup per the paper: constant folding simplifies the guards,
        // then DCE removes the dead arms.
        constprop(&mut m);
        simplify(&mut m);
        dce(&mut m);
        memoir_ir::verifier::assert_valid(&m);

        let f = &m.funcs[m.func_by_name("main").unwrap()];
        let writes = f
            .inst_ids_in_order()
            .iter()
            .filter(|(_, i)| matches!(f.insts[*i].kind, InstKind::Write { .. }))
            .count();
        assert_eq!(writes, 3, "only the live-slice writes remain");

        let mut i = Interp::new(&m);
        let out = i.run_by_name("main", vec![]).unwrap();
        assert_eq!(out, baseline);
        assert_eq!(out, vec![Value::Int(Type::I64, 10 + 12)]);
    }

    /// A guarded insert reads only its live range's upper bound: with a
    /// symbolic lower bound (`max(0, %x)` after clamping) the pass must
    /// not materialize it, so every instruction it adds has a user.
    #[test]
    fn strict_dee_insert_guard_adds_no_dead_instructions() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let idxt = b.ty(Type::Index);
            let x = b.param("x", idxt);
            let n = b.index(8);
            let s0 = b.new_seq(i64t, n);
            let at = b.index(3);
            let v = b.i64(5);
            let s1 = b.insert(s0, at, Some(v));
            let r = b.read(s1, x);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        let fid = m.func_by_name("main").unwrap();
        let old_insts = m.funcs[fid].insts.len();
        let stats = dee_strict(&mut m);
        assert_eq!(stats.inserts_guarded, 1, "{stats:?}");
        memoir_ir::verifier::assert_valid(&m);

        let f = &m.funcs[fid];
        let placed = f.inst_ids_in_order();
        let mut used = std::collections::HashSet::new();
        for &(_, i) in &placed {
            used.extend(f.insts[i].kind.operands());
        }
        for &(_, i) in &placed {
            if i.index() < old_insts {
                continue;
            }
            for r in &f.insts[i].results {
                assert!(used.contains(r), "added {:?} has no user", f.insts[i].kind);
            }
        }
    }

    /// Call specialization: the callee fills the whole sequence, but the
    /// caller only observes a prefix; the call is redirected to a clone
    /// bounded by the live window `[0 : 2)`, with the same observable
    /// result.
    #[test]
    fn call_specialization_bounds_callee_writes() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let idxt = mb.module.types.intern(Type::Index);
        // fill(s) -> s': s'[i] = i*10 for all i.
        let fill = mb.func("fill", Form::Ssa, |b| {
            let s_in = b.param("s", seqt);
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let zero = b.index(0);
            let one = b.index(1);
            let sz = b.size(s_in);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(idxt);
            let s_phi = b.phi_placeholder(seqt);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            b.add_phi_incoming(s_phi, entry, s_in);
            let done = b.cmp(CmpOp::Ge, i, sz);
            b.branch(done, exit, body);
            b.switch_to(body);
            let ten = b.index(10);
            let v = b.mul(i, ten);
            let vi = b.cast(Type::I64, v);
            let s2 = b.write(s_phi, i, vi);
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.add_phi_incoming(s_phi, bb, s2);
            b.jump(header);
            b.switch_to(exit);
            b.returns(&[seqt]);
            b.ret(vec![s_phi]);
        });
        mb.func("main", Form::Ssa, |b| {
            let n = b.index(8);
            let s = b.new_seq(i64t, n);
            let filled = b.call(Callee::Func(fill), vec![s], &[seqt])[0];
            let i0 = b.index(0);
            let i1 = b.index(1);
            let a = b.read(filled, i0);
            let c = b.read(filled, i1);
            let sum = b.add(a, c);
            b.returns(&[i64t]);
            b.ret(vec![sum]);
        });
        let mut m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let baseline = {
            let mut i = Interp::new(&m);
            i.run_by_name("main", vec![]).unwrap()
        };

        let stats = dee_specialize_calls(&mut m);
        assert_eq!(stats.functions_specialized, 1, "{stats:?}");
        assert_eq!(stats.calls_specialized, 1, "{stats:?}");
        memoir_ir::verifier::assert_valid(&m);

        // The redirected call passes the live window as `%a`/`%b`.
        let main = &m.funcs[m.func_by_name("main").unwrap()];
        let args = main
            .inst_ids_in_order()
            .into_iter()
            .find_map(|(_, i)| match &main.insts[i].kind {
                InstKind::Call { args, .. } => Some(args.clone()),
                _ => None,
            })
            .unwrap();
        let bound = |v| main.value_const(v).and_then(memoir_ir::Constant::as_int);
        assert_eq!((bound(args[1]), bound(args[2])), (Some(0), Some(2)));

        // Observable semantics preserved.
        let mut i = Interp::new(&m);
        let out = i.run_by_name("main", vec![]).unwrap();
        assert_eq!(out, baseline);
    }

    /// The entry guard returns inputs unchanged for an empty live slice.
    #[test]
    fn empty_slice_entry_guard() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        mb.func("touch", Form::Ssa, |b| {
            let s_in = b.param("s", seqt);
            let zero = b.index(0);
            let v = b.i64(1);
            let s1 = b.write(s_in, zero, v);
            b.returns(&[seqt]);
            b.ret(vec![s1]);
        });
        let mut m = mb.finish();
        let fid = m.func_by_name("touch").unwrap();
        let mut stats = DeeStats::default();
        let spec = specialize_function(&mut m, fid, &[Some(0)], &mut stats);
        memoir_ir::verifier::assert_valid(&m);

        // Call the specialization directly with an empty slice [5, 5).
        let mut i = Interp::new(&m);
        let s = i.alloc_seq(vec![Value::Int(Type::I64, 7)]);
        let out = i
            .run(
                spec,
                vec![s, Value::Int(Type::Index, 5), Value::Int(Type::Index, 5)],
            )
            .unwrap();
        // The sequence is unchanged: element 0 still 7.
        let elems = i.seq_values(&out[0]).unwrap();
        assert_eq!(elems, vec![Value::Int(Type::I64, 7)]);
        assert_eq!(i.stats.seq_writes, 0);

        // And with a live slice [0, 1) the write happens.
        let mut i2 = Interp::new(&m);
        let s2 = i2.alloc_seq(vec![Value::Int(Type::I64, 7)]);
        let out2 = i2
            .run(
                spec,
                vec![s2, Value::Int(Type::Index, 0), Value::Int(Type::Index, 1)],
            )
            .unwrap();
        let elems2 = i2.seq_values(&out2[0]).unwrap();
        assert_eq!(elems2, vec![Value::Int(Type::I64, 1)]);
    }
}
