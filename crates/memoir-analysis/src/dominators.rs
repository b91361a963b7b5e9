//! Dominator trees and dominance frontiers over MEMOIR blocks.
//!
//! The MEMOIR SSA construction (§VI) inserts φs on the dominance frontier
//! and renames along a depth-first traversal of the dominator tree, exactly
//! like scalar SSA construction. [`DomTree`] is a `BlockId`-typed view of
//! [`passman::graph::DomTree`], the Cooper–Harvey–Kennedy tree both IRs
//! share.

use memoir_ir::{BlockId, Function, IdMap};
use passman::graph;
use std::collections::HashMap;

/// A dominator tree over the reachable blocks of a function.
#[derive(Clone, Debug)]
pub struct DomTree(graph::DomTree);

fn block(u: usize) -> BlockId {
    BlockId::from_raw(u as u32)
}

impl DomTree {
    /// Computes the dominator tree of `f`.
    pub fn compute(f: &Function) -> Self {
        DomTree(graph::DomTree::compute(
            &f.successor_lists(),
            f.entry.index(),
        ))
    }

    /// The reachable blocks in reverse post-order (entry first).
    pub fn rpo(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.0.rpo().iter().map(|&u| block(u))
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.0.idom(b.index()).map(block)
    }

    /// `b`'s children in the dominator tree, in ascending block order.
    pub fn children(&self, b: BlockId) -> impl Iterator<Item = BlockId> + '_ {
        self.0.children(b.index()).iter().map(|&u| block(u))
    }

    /// Whether `a` dominates `b` (reflexive, also for unreachable
    /// blocks).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        a == b || self.0.dominates(a.index(), b.index())
    }

    /// Whether a block is reachable from entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.0.is_reachable(b.index())
    }

    /// Pre-order depth-first traversal of the dominator tree from the
    /// entry, children in ascending block order.
    pub fn preorder(&self) -> Vec<BlockId> {
        self.0.preorder().into_iter().map(block).collect()
    }

    /// Computes dominance frontiers (Cytron et al.): `DF(b)` is the set of
    /// blocks where `b`'s dominance ends — the φ-insertion points. `f`
    /// must be the function the tree was computed from.
    pub fn dominance_frontiers(&self, f: &Function) -> IdMap<BlockId, Vec<BlockId>> {
        let mut df = IdMap::new();
        for frontier in self.0.frontiers(&f.successor_lists()) {
            df.push(frontier.into_iter().map(block).collect());
        }
        df
    }
}

/// Natural-loop nesting depth per block: for every back edge `u → h`
/// (where `h` dominates `u`), the loop body is `h` plus every block that
/// reaches `u` over predecessors without passing through `h`; a block's
/// depth is the number of such loops containing it. `dt` must be the
/// dominator tree of `f`.
pub fn natural_loop_depths(f: &Function, dt: &DomTree) -> HashMap<BlockId, u32> {
    let preds = f.predecessors();
    let mut depth: HashMap<BlockId, u32> = dt.rpo().map(|b| (b, 0)).collect();
    for u in dt.rpo() {
        for h in f.successors(u) {
            if !dt.dominates(h, u) {
                continue; // not a back edge
            }
            // Collect the natural loop of (u → h).
            let mut body: Vec<BlockId> = vec![h];
            let mut stack = vec![u];
            while let Some(b) = stack.pop() {
                if body.contains(&b) {
                    continue;
                }
                body.push(b);
                for &p in &preds[b] {
                    stack.push(p);
                }
            }
            for b in body {
                *depth.entry(b).or_insert(0) += 1;
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, ModuleBuilder};

    /// Diamond CFG: entry → {then, else} → join.
    fn diamond() -> (memoir_ir::Module, Vec<BlockId>) {
        let mut mb = ModuleBuilder::new("m");
        let mut ids = Vec::new();
        mb.func("f", Form::Ssa, |b| {
            let then_b = b.block("then");
            let else_b = b.block("else");
            let join = b.block("join");
            ids.extend([b.func.entry, then_b, else_b, join]);
            let c = b.bool(true);
            b.branch(c, then_b, else_b);
            b.switch_to(then_b);
            b.jump(join);
            b.switch_to(else_b);
            b.jump(join);
            b.switch_to(join);
            b.ret(vec![]);
        });
        (mb.finish(), ids)
    }

    #[test]
    fn diamond_idoms() {
        let (m, ids) = diamond();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let dt = DomTree::compute(f);
        let [entry, then_b, else_b, join] = [ids[0], ids[1], ids[2], ids[3]];
        assert_eq!(dt.idom(then_b), Some(entry));
        assert_eq!(dt.idom(else_b), Some(entry));
        assert_eq!(dt.idom(join), Some(entry));
        assert!(dt.dominates(entry, join));
        assert!(!dt.dominates(then_b, join));
        assert!(dt.dominates(join, join));
    }

    #[test]
    fn diamond_frontiers() {
        let (m, ids) = diamond();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let dt = DomTree::compute(f);
        let df = dt.dominance_frontiers(f);
        let [_, then_b, else_b, join] = [ids[0], ids[1], ids[2], ids[3]];
        assert_eq!(df[then_b], vec![join]);
        assert_eq!(df[else_b], vec![join]);
        assert!(df[join].is_empty());
    }

    #[test]
    fn loop_header_in_own_frontier() {
        let mut mb = ModuleBuilder::new("m");
        let mut blocks = Vec::new();
        mb.func("g", Form::Ssa, |b| {
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            blocks.extend([b.func.entry, header, body, exit]);
            b.jump(header);
            b.switch_to(header);
            let c = b.bool(true);
            b.branch(c, exit, body);
            b.switch_to(body);
            b.jump(header);
            b.switch_to(exit);
            b.ret(vec![]);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("g").unwrap()];
        let dt = DomTree::compute(f);
        let df = dt.dominance_frontiers(f);
        let header = blocks[1];
        let body = blocks[2];
        // The loop body's frontier is the header (back edge).
        assert_eq!(df[body], vec![header]);
        // The header is in its own frontier.
        assert!(df[header].contains(&header));
    }

    #[test]
    fn preorder_covers_tree() {
        let (m, _) = diamond();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let dt = DomTree::compute(f);
        let pre = dt.preorder();
        assert_eq!(pre.len(), 4);
        assert_eq!(pre[0], f.entry);
    }
}
