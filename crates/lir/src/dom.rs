//! Dominator analysis for lir functions.
//!
//! Block *layout* order in lir is not required to follow dominance —
//! `memoir-lower` preserves the MEMOIR module's block indices, and the
//! MEMOIR passes (`dee-strict` splitting, `ssa-destruct` copy blocks)
//! append blocks that sit late in the layout but early in the CFG. Any
//! pass that reasons about "before/after" must therefore consult real
//! dominance, not layout positions; this module provides it.
//!
//! [`DomTree`] is a `Blk`-typed view of [`passman::graph::DomTree`], the
//! Cooper–Harvey–Kennedy tree both IRs share.

use crate::ir::{Blk, Fun, Function, Module};
use passman::graph;

/// The dominator tree of one function's CFG.
///
/// Blocks unreachable from the entry have no dominator information;
/// [`DomTree::dominates`] is `false` whenever either endpoint is
/// unreachable.
///
/// `Clone` is cheap (a few flat `Vec`s over the block count) so sharded
/// passes can carry a copy of the cached tree onto worker threads — see
/// [`DomTreeAnalysis`].
#[derive(Clone, Debug)]
pub struct DomTree(graph::DomTree);

impl DomTree {
    /// Computes the dominator tree of `f`. Out-of-range branch targets
    /// are a (reportable) malformation, not a reason to panic — the
    /// verifier runs this on broken modules — so they are skipped.
    pub fn compute(f: &Function) -> DomTree {
        DomTree(graph::DomTree::compute(
            &f.successor_lists(),
            f.entry.0 as usize,
        ))
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: Blk) -> bool {
        self.0.is_reachable(b.0 as usize)
    }

    /// Whether `a` dominates `b` (reflexively). `false` when either
    /// block is unreachable.
    pub fn dominates(&self, a: Blk, b: Blk) -> bool {
        self.0.dominates(a.0 as usize, b.0 as usize)
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: Blk, b: Blk) -> bool {
        a != b && self.dominates(a, b)
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: Blk) -> Option<Blk> {
        self.0.idom(b.0 as usize).map(|d| Blk(d as u32))
    }

    /// The reachable blocks in reverse post-order (entry first).
    pub fn rpo(&self) -> impl Iterator<Item = Blk> + '_ {
        self.0.rpo().iter().map(|&u| Blk(u as u32))
    }
}

/// Registers [`DomTree`] as a cached per-function analysis with the
/// pass manager, the way the MEMOIR passes cache affinity and purity:
/// consumers call `am.get::<DomTreeAnalysis>(module, fun)` and the tree
/// is computed at most once per function between mutations of that
/// function.
///
/// The two lir consumers are `gvn` (dominance-gated leader replacement)
/// and the inter-pass verifier (dominance of uses by definitions) —
/// `sink` is deliberately *not* one: it reasons over layout order within
/// a single block and has no dominance query to migrate.
#[derive(Debug)]
pub struct DomTreeAnalysis;

impl passman::Analysis<Module> for DomTreeAnalysis {
    type Output = DomTree;
    const NAME: &'static str = "dom-tree";
    fn compute(m: &Module, f: Fun) -> DomTree {
        DomTree::compute(&m.funcs[f.0 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CmpOp, Op};

    /// entry → {then, else} → join: the join's idom is the entry, the
    /// arms dominate only themselves.
    #[test]
    fn diamond_idoms() {
        let mut f = Function::new("f", 1, 1);
        let e = f.entry;
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        let c = f.push1(e, Op::Cmp(CmpOp::Gt, f.param(0), f.param(0)));
        f.push0(
            e,
            Op::Br {
                cond: c,
                then_b: t,
                else_b: el,
            },
        );
        f.push0(t, Op::Jmp(j));
        f.push0(el, Op::Jmp(j));
        f.push0(j, Op::Ret(vec![f.param(0)]));
        let dom = DomTree::compute(&f);
        assert_eq!(dom.idom(j), Some(e));
        assert_eq!(dom.idom(t), Some(e));
        assert!(dom.dominates(e, j));
        assert!(dom.dominates(j, j));
        assert!(!dom.dominates(t, j));
        assert!(!dom.strictly_dominates(j, j));
    }

    /// Layout order and dominance order disagree: the entry jumps to the
    /// *last* block, which dominates the middle one. This is the shape
    /// `ssa-destruct`-appended blocks give the lowered module.
    #[test]
    fn backward_layout_dominance() {
        let mut f = Function::new("f", 1, 1);
        let e = f.entry;
        let mid = f.add_block(); // b1, laid out before…
        let late = f.add_block(); // …b2, its dominator
        f.push0(e, Op::Jmp(late));
        f.push0(late, Op::Jmp(mid));
        f.push0(mid, Op::Ret(vec![f.param(0)]));
        let dom = DomTree::compute(&f);
        assert!(dom.strictly_dominates(late, mid));
        assert!(!dom.dominates(mid, late));
        assert_eq!(dom.idom(mid), Some(late));
    }

    /// Unreachable blocks have no dominance relations.
    #[test]
    fn unreachable_blocks_dominate_nothing() {
        let mut f = Function::new("f", 0, 0);
        let e = f.entry;
        let dead = f.add_block();
        f.push0(e, Op::Ret(Vec::new()));
        f.push0(dead, Op::Ret(Vec::new()));
        let dom = DomTree::compute(&f);
        assert!(!dom.is_reachable(dead));
        assert!(dom.is_reachable(e));
        assert!(!dom.dominates(dead, e));
        assert!(!dom.dominates(e, dead));
        assert!(!dom.dominates(dead, dead));
    }
}
