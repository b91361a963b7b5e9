//! Collection-op fusion: collapses chains of collection operations over
//! the same SSA collection version into fused composite ops.
//!
//! Three rule families, all restricted to SSA form (mut-form chains stop
//! at the allocation and say nothing about contents):
//!
//! 1. **Read-modify-write fusion.** The pipeline
//!    `a = read(c₀, i); v = bin(op, a, b); c₁ = write(c₀, i, v)` over the
//!    *same* version `c₀` and the *same* index value `i` collapses into
//!    the fused `c₁ = rmw(c₀, i, op, b)` ([`InstKind::Rmw`]), which
//!    touches storage once instead of twice. Legality comes from the
//!    def-use chains: the read and the bin must be single-use (feeding
//!    only the chain), and the second bin operand must already be
//!    available at the read (dominance), because the fused op is placed
//!    at the read's position. Placing it there preserves the trap point:
//!    `rmw` traps exactly when the read would (the write on the same
//!    version/index can introduce no further trap), and it never extends
//!    an associative key space because the read-half requires the key to
//!    be present. For non-commutative `op` the read must be the left
//!    operand; commutative ops accept either side.
//!
//! 2. **Query folding through version chains.** `size(new_seq(n)) → n`
//!    (even for non-constant `n`), `size(new_assoc()) → 0`, and
//!    `has(write(c₀, k, v), k) → true` (an associative write always
//!    leaves `k` present). Only scalar results are forwarded, so no
//!    collection live range grows and SSA destruction stays copy-free.
//!
//! 3. **Dominance-based CSE of redundant queries.** `size`/`has`/`read`
//!    recomputations whose operand chains reach the same canonical
//!    version with the same key are merged into the dominating
//!    occurrence (scoped value numbering over the dominator tree). The
//!    canonical version walks through chain steps that provably preserve
//!    the query's answer: `rmw` preserves sizes and key sets outright;
//!    `write` preserves a *different* key's element when the two keys
//!    are definitely unequal — same-constant comparison or disjoint
//!    [`IndexRanges`] element-level range
//!    lattices; `copy`/`use-phi` preserve everything. Queries are
//!    deleted, never re-pointed at older versions, so fusion cannot
//!    lengthen a collection live range (which would make SSA destruction
//!    insert copies).

use memoir_analysis::{DefUse, DomTree, IndexRanges};
use memoir_ir::{
    BlockId, Constant, Function, InstId, InstKind, Module, Type, TypeTable, ValueDef, ValueId,
};
use std::collections::HashMap;

/// Statistics from one fusion run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// `read; bin; write` pipelines fused into `rmw`.
    pub rmws_fused: usize,
    /// Queries folded through version chains (`size(new_seq(n))→n`,
    /// `size(new_assoc())→0`, `has(write(c,k,v),k)→true`).
    pub queries_folded: usize,
    /// Redundant `size`/`has`/`read` recomputations merged into a
    /// dominating occurrence.
    pub queries_merged: usize,
}

impl FusionStats {
    fn changed(&self) -> bool {
        *self != FusionStats::default()
    }

    fn absorb(&mut self, o: FusionStats) {
        self.rmws_fused += o.rmws_fused;
        self.queries_folded += o.queries_folded;
        self.queries_merged += o.queries_merged;
    }
}

/// Runs fusion over every SSA-form function of the module.
pub fn fuse(m: &mut Module) -> FusionStats {
    let mut stats = FusionStats::default();
    let Module {
        ref types,
        ref mut funcs,
        ..
    } = *m;
    for fid in funcs.ids().collect::<Vec<_>>() {
        stats.absorb(fuse_function(types, &mut funcs[fid]));
    }
    stats
}

/// Runs fusion on one function to a local fixed point. No-op on
/// mut-form functions.
pub fn fuse_function(types: &TypeTable, f: &mut Function) -> FusionStats {
    let mut stats = FusionStats::default();
    if f.form != memoir_ir::Form::Ssa {
        return stats;
    }
    // Each round recomputes def-use/dominance; rounds expose each other
    // (an rmw shortens chains that then CSE). Bounded for safety.
    for _ in 0..8 {
        let round = run_round(types, f);
        stats.absorb(round);
        if !round.changed() {
            return stats;
        }
    }
    stats
}

struct Cx<'a> {
    f: &'a Function,
    dom: DomTree,
    /// Instruction position: block + index within the block.
    pos: HashMap<InstId, (BlockId, usize)>,
}

impl Cx<'_> {
    /// Whether instruction `a` strictly precedes `b` in execution order
    /// (same-block order, or block dominance).
    fn inst_dominates(&self, a: InstId, b: InstId) -> bool {
        let (Some(&(ba, ia)), Some(&(bb, ib))) = (self.pos.get(&a), self.pos.get(&b)) else {
            return false;
        };
        if ba == bb {
            ia < ib
        } else {
            self.dom.dominates(ba, bb)
        }
    }

    /// Whether `v` is available (defined) strictly before instruction
    /// `at` executes.
    fn available_at(&self, v: ValueId, at: InstId) -> bool {
        match self.f.values[v].def {
            ValueDef::Param(_) | ValueDef::Const(_) => true,
            ValueDef::Inst(di, _) => self.inst_dominates(di, at),
        }
    }
}

fn run_round(types: &TypeTable, f: &mut Function) -> FusionStats {
    let mut stats = FusionStats::default();
    let order = f.inst_ids_in_order();
    let mut pos = HashMap::new();
    {
        let mut counters: HashMap<BlockId, usize> = HashMap::new();
        for &(b, i) in &order {
            let c = counters.entry(b).or_insert(0);
            pos.insert(i, (b, *c));
            *c += 1;
        }
    }
    let cx = Cx {
        f,
        dom: DomTree::compute(f),
        pos,
    };
    let du = DefUse::compute(f);
    let idx = IndexRanges::new(f);

    // ---- Rule 1: read-modify-write fusion -------------------------------
    //
    // Collect candidate (read, bin, write) triples first, then apply.
    struct RmwCand {
        read_iid: InstId,
        read_res: ValueId,
        bin_iid: InstId,
        bin_block: BlockId,
        write_iid: InstId,
        write_block: BlockId,
        write_res: ValueId,
        c0: ValueId,
        i: ValueId,
        op: memoir_ir::BinOp,
        b_operand: ValueId,
    }
    let mut cands: Vec<RmwCand> = Vec::new();
    let mut claimed: std::collections::HashSet<InstId> = std::collections::HashSet::new();
    for &(wblk, wiid) in &order {
        let InstKind::Write { c, idx: wi, value } = f.insts[wiid].kind else {
            continue;
        };
        // value = bin(op, lhs, rhs), single-use.
        let ValueDef::Inst(bin_iid, _) = f.values[value].def else {
            continue;
        };
        let InstKind::Bin { op, lhs, rhs } = f.insts[bin_iid].kind else {
            continue;
        };
        if du.use_count(value) != 1 {
            continue;
        }
        // One side is read(c, wi) with the same SSA version and index.
        let is_matching_read = |v: ValueId| -> Option<InstId> {
            let ValueDef::Inst(riid, _) = f.values[v].def else {
                return None;
            };
            match f.insts[riid].kind {
                InstKind::Read { c: rc, idx: ri } if rc == c && ri == wi => Some(riid),
                _ => None,
            }
        };
        let (read_res, b_operand) = if let Some(r) = is_matching_read(lhs) {
            (Some((r, lhs)), rhs)
        } else if op.is_commutative() {
            match is_matching_read(rhs) {
                Some(r) => (Some((r, rhs)), lhs),
                None => (None, lhs),
            }
        } else {
            (None, lhs)
        };
        let Some((read_iid, read_res)) = read_res else {
            continue;
        };
        if read_res == b_operand || du.use_count(read_res) != 1 {
            continue;
        }
        // The fused op replaces the read in place, so the other bin
        // operand must already be defined there.
        if !cx.available_at(b_operand, read_iid) {
            continue;
        }
        if claimed.contains(&read_iid) || claimed.contains(&bin_iid) || claimed.contains(&wiid) {
            continue;
        }
        claimed.extend([read_iid, bin_iid, wiid]);
        let Some(&(bin_block, _)) = cx.pos.get(&bin_iid) else {
            continue;
        };
        cands.push(RmwCand {
            read_iid,
            read_res,
            bin_iid,
            bin_block,
            write_iid: wiid,
            write_block: wblk,
            write_res: f.insts[wiid].results[0],
            c0: c,
            i: wi,
            op,
            b_operand,
        });
    }

    // ---- Rule 2: query folds (scalar-only forwarding) -------------------
    enum Fold {
        /// Replace the query result with an existing value, drop the inst.
        Forward(BlockId, InstId, ValueId, ValueId),
        /// Replace the query result with a constant, drop the inst.
        Const(BlockId, InstId, ValueId, Constant),
    }
    let mut folds: Vec<Fold> = Vec::new();
    for &(blk, iid) in &order {
        if claimed.contains(&iid) {
            continue;
        }
        match f.insts[iid].kind {
            InstKind::Size { c } => match chain_def(f, c) {
                Some(InstKind::NewSeq { len, .. }) => {
                    folds.push(Fold::Forward(blk, iid, f.insts[iid].results[0], len));
                }
                Some(InstKind::NewAssoc { .. }) => {
                    folds.push(Fold::Const(
                        blk,
                        iid,
                        f.insts[iid].results[0],
                        Constant::index(0),
                    ));
                }
                _ => {}
            },
            InstKind::Has { c, key } => {
                if let Some(InstKind::Write { idx: wk, .. }) = chain_def(f, c) {
                    if wk == key {
                        folds.push(Fold::Const(
                            blk,
                            iid,
                            f.insts[iid].results[0],
                            Constant::Bool(true),
                        ));
                    }
                } else if let Some(InstKind::NewAssoc { .. }) = chain_def(f, c) {
                    folds.push(Fold::Const(
                        blk,
                        iid,
                        f.insts[iid].results[0],
                        Constant::Bool(false),
                    ));
                }
            }
            _ => {}
        }
    }

    // ---- Rule 3: dominance-scoped CSE of size/has/read ------------------
    let folded_or_claimed: std::collections::HashSet<InstId> = claimed
        .iter()
        .copied()
        .chain(folds.iter().map(|a| match a {
            Fold::Forward(_, i, _, _) | Fold::Const(_, i, _, _) => *i,
        }))
        .collect();
    let mut merges: Vec<(BlockId, InstId, ValueId, ValueId)> = Vec::new();
    {
        let mut avail: HashMap<QueryKey, ValueId> = HashMap::new();
        cse_block(
            types,
            f,
            &idx,
            &cx,
            f.entry,
            &folded_or_claimed,
            &mut avail,
            &mut merges,
        );
    }

    // ---- Apply ----------------------------------------------------------
    let mut replacements: HashMap<ValueId, ValueId> = HashMap::new();
    for cand in cands {
        f.insts[cand.read_iid].kind = InstKind::Rmw {
            c: cand.c0,
            idx: cand.i,
            op: cand.op,
            value: cand.b_operand,
        };
        // The result becomes the new collection version.
        f.values[cand.read_res].ty = f.value_ty(cand.c0);
        f.remove_inst(cand.bin_block, cand.bin_iid);
        f.remove_inst(cand.write_block, cand.write_iid);
        replacements.insert(cand.write_res, cand.read_res);
        stats.rmws_fused += 1;
    }
    for fold in folds {
        match fold {
            Fold::Forward(b, i, r, v) => {
                replacements.insert(r, v);
                f.remove_inst(b, i);
                stats.queries_folded += 1;
            }
            Fold::Const(b, i, r, c) => {
                let ty = f.value_ty(r);
                let cv = f.constant(c, ty);
                replacements.insert(r, cv);
                f.remove_inst(b, i);
                stats.queries_folded += 1;
            }
        }
    }
    for (b, i, r, v) in merges {
        replacements.insert(r, v);
        f.remove_inst(b, i);
        stats.queries_merged += 1;
    }
    f.replace_uses_map(&replacements);
    stats
}

/// The defining instruction kind of a value, if instruction-defined.
fn chain_def(f: &Function, v: ValueId) -> Option<InstKind> {
    match f.values[v].def {
        ValueDef::Inst(iid, _) => Some(f.insts[iid].kind.clone()),
        _ => None,
    }
}

/// Canonical key of a query operand for CSE: either a shared SSA value or
/// a constant (so distinct SSA constants with equal payloads still match).
#[derive(Clone, PartialEq, Eq, Hash)]
enum KeyRepr {
    Value(ValueId),
    Const(ConstKey),
}

/// Hashable constant (floats by bit pattern, matching runtime key
/// identity semantics).
#[derive(Clone, PartialEq, Eq, Hash)]
enum ConstKey {
    Int(Type, i64),
    Bool(bool),
    Float(Type, u64),
    Null,
}

fn key_repr(f: &Function, v: ValueId) -> KeyRepr {
    match f.value_const(v) {
        Some(Constant::Int(t, x)) => KeyRepr::Const(ConstKey::Int(t, x)),
        Some(Constant::Bool(b)) => KeyRepr::Const(ConstKey::Bool(b)),
        Some(Constant::Float(t, bits)) => KeyRepr::Const(ConstKey::Float(t, bits)),
        Some(Constant::Null(_)) => KeyRepr::Const(ConstKey::Null),
        _ => KeyRepr::Value(v),
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum QueryKey {
    Size(ValueId),
    Has(ValueId, KeyRepr),
    Read(ValueId, KeyRepr),
}

/// Whether two key/index values are *definitely* unequal: distinct
/// constants, or disjoint element-level range lattices.
fn definitely_unequal(f: &Function, idx: &IndexRanges<'_>, a: ValueId, b: ValueId) -> bool {
    if let (Some(ca), Some(cb)) = (f.value_const(a), f.value_const(b)) {
        return ca != cb;
    }
    // Disjoint constant ranges (hi is exclusive).
    let (ra, rb) = (idx.range_of(a), idx.range_of(b));
    match (
        ra.lo.as_const(),
        ra.hi.as_const(),
        rb.lo.as_const(),
        rb.hi.as_const(),
    ) {
        (Some(_), Some(ahi), Some(blo), Some(_)) if ahi <= blo => true,
        (Some(alo), Some(_), Some(_), Some(bhi)) if bhi <= alo => true,
        _ => false,
    }
}

/// Walks `c` backwards through chain steps that preserve the query's
/// answer, returning the canonical (oldest equivalent) version.
fn canonical_version(
    types: &TypeTable,
    f: &Function,
    idx: &IndexRanges<'_>,
    q: &QueryKind,
    mut c: ValueId,
) -> ValueId {
    let is_seq = |v: ValueId| matches!(types.get(f.value_ty(v)), Type::Seq(_));
    for _ in 0..64 {
        let ValueDef::Inst(iid, _) = f.values[c].def else {
            return c;
        };
        let next = match (&f.insts[iid].kind, q) {
            // Copies and use-φs preserve contents wholesale.
            (InstKind::Copy { c: p } | InstKind::UsePhi { c: p }, _) => *p,
            // rmw preserves sizes and key sets; it changes exactly one
            // element, so reads of definitely-different keys pass too.
            (InstKind::Rmw { c: p, .. }, QueryKind::Size | QueryKind::Has(_)) => *p,
            (InstKind::Rmw { c: p, idx: j, .. }, QueryKind::Read(k))
                if definitely_unequal(f, idx, *j, *k) =>
            {
                *p
            }
            // A sequence write preserves size; an associative write may
            // grow the key space, so size does not pass through it.
            (InstKind::Write { c: p, .. }, QueryKind::Size) if is_seq(*p) => *p,
            (InstKind::Swap { c: p, .. }, QueryKind::Size) if is_seq(*p) => *p,
            // A write preserves `has k` / `read k` for definitely
            // different keys (sequence writes never shift indices).
            (InstKind::Write { c: p, idx: j, .. }, QueryKind::Has(k) | QueryKind::Read(k))
                if definitely_unequal(f, idx, *j, *k) =>
            {
                *p
            }
            _ => return c,
        };
        c = next;
    }
    c
}

enum QueryKind {
    Size,
    Has(ValueId),
    Read(ValueId),
}

/// Scoped value numbering over the dominator tree: children inherit the
/// parent block's available queries; siblings do not see each other.
#[allow(clippy::too_many_arguments)]
fn cse_block(
    types: &TypeTable,
    f: &Function,
    idx: &IndexRanges<'_>,
    cx: &Cx<'_>,
    block: BlockId,
    skip: &std::collections::HashSet<InstId>,
    avail: &mut HashMap<QueryKey, ValueId>,
    merges: &mut Vec<(BlockId, InstId, ValueId, ValueId)>,
) {
    let added: Vec<QueryKey> = {
        let mut added = Vec::new();
        for &iid in &f.blocks[block].insts {
            if skip.contains(&iid) {
                continue;
            }
            let key = match &f.insts[iid].kind {
                InstKind::Size { c } => Some(QueryKey::Size(canonical_version(
                    types,
                    f,
                    idx,
                    &QueryKind::Size,
                    *c,
                ))),
                InstKind::Has { c, key } => Some(QueryKey::Has(
                    canonical_version(types, f, idx, &QueryKind::Has(*key), *c),
                    key_repr(f, *key),
                )),
                InstKind::Read { c, idx: i } => Some(QueryKey::Read(
                    canonical_version(types, f, idx, &QueryKind::Read(*i), *c),
                    key_repr(f, *i),
                )),
                _ => None,
            };
            let Some(key) = key else { continue };
            let res = f.insts[iid].results[0];
            match avail.get(&key) {
                Some(&prior) if prior != res => {
                    merges.push((block, iid, res, prior));
                }
                Some(_) => {}
                None => {
                    avail.insert(key.clone(), res);
                    added.push(key);
                }
            }
        }
        added
    };
    // Recurse into dominated children.
    for b in cx.dom.children(block) {
        cse_block(types, f, idx, cx, b, skip, avail, merges);
    }
    for key in added {
        avail.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{BinOp, Form, ModuleBuilder};

    fn kinds(f: &Function) -> Vec<&'static str> {
        f.inst_ids_in_order()
            .into_iter()
            .map(|(_, i)| match f.insts[i].kind {
                InstKind::Read { .. } => "read",
                InstKind::Write { .. } => "write",
                InstKind::Rmw { .. } => "rmw",
                InstKind::Bin { .. } => "bin",
                InstKind::Size { .. } => "size",
                InstKind::Has { .. } => "has",
                _ => "other",
            })
            .collect()
    }

    #[test]
    fn read_bin_write_fuses_to_rmw() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let seq_ty = b.types.seq_of(i64t);
            let s = b.param("s", seq_ty);
            let i = b.index(2);
            let a = b.read(s, i);
            let one = b.i64(1);
            let v = b.add(a, one);
            let s1 = b.write(s, i, v);
            b.returns(&[seq_ty]);
            b.ret(vec![s1]);
        });
        let mut m = mb.finish();
        let stats = fuse(&mut m);
        assert_eq!(stats.rmws_fused, 1);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let ks = kinds(f);
        assert!(ks.contains(&"rmw"), "fused: {ks:?}");
        assert!(!ks.contains(&"read") && !ks.contains(&"write"));
        memoir_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn commutative_swap_fuses_reversed_operands() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let seq_ty = b.types.seq_of(i64t);
            let s = b.param("s", seq_ty);
            let delta = b.param("d", i64t);
            let i = b.index(0);
            let a = b.read(s, i);
            let v = b.add(delta, a); // read on the rhs
            let s1 = b.write(s, i, v);
            b.returns(&[seq_ty]);
            b.ret(vec![s1]);
        });
        let mut m = mb.finish();
        assert_eq!(fuse(&mut m).rmws_fused, 1);
        memoir_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn non_commutative_rhs_read_does_not_fuse() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let seq_ty = b.types.seq_of(i64t);
            let s = b.param("s", seq_ty);
            let x = b.param("x", i64t);
            let i = b.index(0);
            let a = b.read(s, i);
            let v = b.sub(x, a); // x - elem: not elem - x
            let s1 = b.write(s, i, v);
            b.returns(&[seq_ty]);
            b.ret(vec![s1]);
        });
        let mut m = mb.finish();
        assert_eq!(fuse(&mut m).rmws_fused, 0);
    }

    #[test]
    fn multi_use_read_does_not_fuse() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let seq_ty = b.types.seq_of(i64t);
            let s = b.param("s", seq_ty);
            let i = b.index(0);
            let a = b.read(s, i);
            let one = b.i64(1);
            let v = b.add(a, one);
            let s1 = b.write(s, i, v);
            b.returns(&[seq_ty, i64t]);
            b.ret(vec![s1, a]); // `a` escapes: fusing would lose it
        });
        let mut m = mb.finish();
        assert_eq!(fuse(&mut m).rmws_fused, 0);
    }

    #[test]
    fn assoc_rmw_fuses() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let assoc_ty = b.types.assoc_of(i64t, i64t);
            let a0 = b.param("a", assoc_ty);
            let k = b.param("k", i64t);
            let amt = b.param("amt", i64t);
            let x = b.read(a0, k);
            let v = b.add(x, amt);
            let a1 = b.write(a0, k, v);
            b.returns(&[assoc_ty]);
            b.ret(vec![a1]);
        });
        let mut m = mb.finish();
        assert_eq!(fuse(&mut m).rmws_fused, 1);
        memoir_ir::verifier::assert_valid(&m);
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
        let stats = fuse(&mut m);
        assert_eq!(stats.queries_folded, 1);
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
        assert_eq!(fuse(&mut m).queries_folded, 1);
        memoir_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn redundant_size_merges_through_rmw() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let idxt = b.ty(Type::Index);
            let seq_ty = b.types.seq_of(i64t);
            let s = b.param("s", seq_ty);
            let i = b.index(0);
            let one = b.i64(1);
            let sz0 = b.size(s);
            let s1 = b.rmw(s, i, BinOp::Add, one);
            let sz1 = b.size(s1); // same size as sz0
            let total = b.add(sz0, sz1);
            b.returns(&[idxt]);
            b.ret(vec![total]);
        });
        let mut m = mb.finish();
        let stats = fuse(&mut m);
        assert_eq!(stats.queries_merged, 1);
        memoir_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn read_cse_respects_possibly_equal_keys() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let assoc_ty = b.types.assoc_of(i64t, i64t);
            let a0 = b.param("a", assoc_ty);
            let k = b.param("k", i64t);
            let j = b.param("j", i64t); // may equal k
            let r0 = b.read(a0, k);
            let v = b.i64(9);
            let a1 = b.write(a0, j, v);
            let r1 = b.read(a1, k); // NOT redundant: j may alias k
            let out = b.add(r0, r1);
            b.returns(&[i64t]);
            b.ret(vec![out]);
        });
        let mut m = mb.finish();
        assert_eq!(fuse(&mut m).queries_merged, 0);
    }

    #[test]
    fn read_cse_through_definitely_unequal_write() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let assoc_ty = b.types.assoc_of(i64t, i64t);
            let a0 = b.param("a", assoc_ty);
            let k0 = b.i64(0);
            let k1 = b.i64(1);
            let r0 = b.read(a0, k0);
            let v = b.i64(9);
            let a1 = b.write(a0, k1, v);
            let r1 = b.read(a1, k0); // redundant: keys 0 and 1 differ
            let out = b.add(r0, r1);
            b.returns(&[i64t]);
            b.ret(vec![out]);
        });
        let mut m = mb.finish();
        let stats = fuse(&mut m);
        assert_eq!(stats.queries_merged, 1);
        memoir_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn mut_form_is_untouched() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let seq_ty = b.types.seq_of(i64t);
            let s = b.param_ref("s", seq_ty);
            let i = b.index(0);
            let a = b.read(s, i);
            let one = b.i64(1);
            let v = b.add(a, one);
            b.mut_write(s, i, v);
            b.returns(&[]);
            b.ret(vec![]);
        });
        let mut m = mb.finish();
        assert_eq!(fuse(&mut m), FusionStats::default());
    }
}
