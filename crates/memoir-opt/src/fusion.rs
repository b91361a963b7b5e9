//! Collection-op fusion: collapses chains of collection operations over
//! the same SSA collection version into fused composite ops.
//!
//! Two rule families, both restricted to SSA form (mut-form chains stop
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
//! 2. **Dominance-based CSE of redundant queries.** `size`/`has`/`read`
//!    recomputations whose walks down the version chain
//!    ([`memoir_analysis::chain::walk`]) reach the same version with the
//!    same key are merged into the dominating occurrence (scoped value
//!    numbering over the dominator tree). Queries are deleted, never
//!    re-pointed at older versions, so fusion cannot lengthen a
//!    collection live range (which would make SSA destruction insert
//!    copies).
//!
//! Queries a chain answers outright (`size(new_seq(n)) → n`,
//! `has(write(c, k, v), k) → true`, …) are constant propagation's to
//! fold, and it runs before fusion in every pipeline.

use memoir_analysis::{chain, DefUse, DomTree, IndexRanges};
use memoir_ir::{BlockId, Function, InstId, InstKind, Module, Query, TypeTable, ValueDef, ValueId};
use std::collections::HashMap;

/// Statistics from one fusion run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// `read; bin; write` pipelines fused into `rmw`.
    pub rmws_fused: usize,
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

    // ---- Rule 2: dominance-scoped CSE of size/has/read ------------------
    let mut merges: Vec<(BlockId, InstId, ValueId, ValueId)> = Vec::new();
    cse_block(
        types,
        &idx,
        &cx,
        f.entry,
        &claimed,
        &mut HashMap::new(),
        &mut merges,
    );

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
    for (b, i, r, v) in merges {
        replacements.insert(r, v);
        f.remove_inst(b, i);
        stats.queries_merged += 1;
    }
    f.replace_uses_map(&replacements);
    stats
}

/// Scoped value numbering over the dominator tree: children inherit the
/// parent block's available queries, keyed by the query and the version
/// its walk reaches; siblings do not see each other.
fn cse_block(
    types: &TypeTable,
    idx: &IndexRanges<'_>,
    cx: &Cx<'_>,
    block: BlockId,
    skip: &std::collections::HashSet<InstId>,
    avail: &mut HashMap<(Query, ValueId), ValueId>,
    merges: &mut Vec<(BlockId, InstId, ValueId, ValueId)>,
) {
    let f = cx.f;
    let mut added = Vec::new();
    for &iid in &f.blocks[block].insts {
        let Some((q, c)) = f.insts[iid].kind.query() else {
            continue;
        };
        if skip.contains(&iid) {
            continue;
        }
        let key = (q, chain::walk(types, f, idx, q, c).same);
        let res = f.insts[iid].results[0];
        match avail.get(&key) {
            Some(&prior) if prior != res => merges.push((block, iid, res, prior)),
            Some(_) => {}
            None => {
                avail.insert(key, res);
                added.push(key);
            }
        }
    }
    for b in cx.dom.children(block) {
        cse_block(types, idx, cx, b, skip, avail, merges);
    }
    for key in added {
        avail.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{BinOp, Form, ModuleBuilder, Type};

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
