//! The dominator tree both IRs share (`passman::graph`) against the
//! set-based dataflow definition of dominance, on seeded random CFGs.
//!
//! Each CFG has 1–24 blocks ending in jumps, branches and returns, with
//! unreachable blocks, self-loops and back edges. It is built once as a
//! MEMOIR function and once as a lir function. For both typed views
//! (`memoir_analysis::DomTree`, `lir::DomTree`) the test checks
//!
//! * reverse post-order against a recursive depth-first walk that
//!   follows successors in branch order;
//! * `idom`, `dominates` and reachability against `Dom(b)`, the fixed
//!   point of `Dom(entry) = {entry}`, `Dom(b) = {b} ∪ ⋂ Dom(p)` over
//!   `b`'s reachable predecessors `p`, iterated from "every reachable
//!   block";
//!
//! and, for MEMOIR, children (ascending) and the dominator-tree
//! pre-order. A second batch lets edges enter the entry, as parsed input
//! can (the MEMOIR verifier's dominance check runs this tree on it). The
//! first has none, and only there are dominance frontiers checked
//! against their definition, `y ∈ DF(b)` iff `b` dominates a predecessor
//! of `y` but does not strictly dominate `y`: the frontier walk assumes
//! no edge enters the entry, and SSA construction moves the body of an
//! entry that has one into a block of its own first.

use memoir::analysis::DomTree as MemoirDomTree;
use memoir::ir::{BlockId, Constant, Form, Function as MemoirFunction, InstKind, Type, TypeTable};
use memoir::lir::{Blk, DomTree as LirDomTree, Function as LirFunction, Op};
use memoir::reduce::SplitMix64;

/// A CFG as successor lists over blocks `0..n` (entry 0): no successor
/// is a return, one a jump, two a branch.
type Cfg = Vec<Vec<usize>>;

/// A random CFG, `n` in 1..=24. Targets are drawn from `lo..n`, so any
/// block may loop to itself or branch back, and with `lo = 0` jump to
/// the entry.
fn random_cfg(rng: &mut SplitMix64, lo: usize) -> Cfg {
    let n = 1 + rng.index(24);
    (0..n)
        .map(|_| {
            let arity = if n == 1 || rng.chance(1, 5) {
                0
            } else {
                1 + rng.index(2)
            };
            let mut succs: Vec<usize> = (0..arity).map(|_| lo + rng.index(n - lo)).collect();
            succs.dedup(); // a branch to one block has one successor in both IRs
            succs
        })
        .collect()
}

fn build_memoir(cfg: &Cfg) -> MemoirFunction {
    let mut types = TypeTable::new();
    let mut f = MemoirFunction::new("f", Form::Ssa);
    let mut blocks = vec![f.entry];
    blocks.extend((1..cfg.len()).map(|i| f.add_block(format!("b{i}"))));
    let cond = f.constant(Constant::Bool(true), types.intern(Type::Bool));
    for (b, succs) in cfg.iter().enumerate() {
        let kind = match succs[..] {
            [] => InstKind::Ret { values: vec![] },
            [t] => InstKind::Jump { target: blocks[t] },
            [t, e] => InstKind::Branch {
                cond,
                then_target: blocks[t],
                else_target: blocks[e],
            },
            _ => unreachable!(),
        };
        f.append_inst(blocks[b], kind, &[]);
    }
    f
}

fn build_lir(cfg: &Cfg) -> LirFunction {
    let mut f = LirFunction::new("f", 1, 0);
    for _ in 1..cfg.len() {
        f.add_block();
    }
    let blk = |b: usize| Blk(b as u32);
    for (b, succs) in cfg.iter().enumerate() {
        let op = match succs[..] {
            [] => Op::Ret(Vec::new()),
            [t] => Op::Jmp(blk(t)),
            [t, e] => Op::Br {
                cond: f.param(0),
                then_b: blk(t),
                else_b: blk(e),
            },
            _ => unreachable!(),
        };
        f.push0(blk(b), op);
    }
    f
}

/// The reference: reverse post-order and `Dom(b)` as bit sets (`None`
/// for unreachable blocks), by the textbook definitions.
struct Reference {
    rpo: Vec<usize>,
    dom: Vec<Option<u32>>,
    preds: Vec<Vec<usize>>,
}

impl Reference {
    fn new(cfg: &Cfg) -> Reference {
        fn walk(cfg: &Cfg, b: usize, seen: &mut [bool], post: &mut Vec<usize>) {
            seen[b] = true;
            for &s in &cfg[b] {
                if !seen[s] {
                    walk(cfg, s, seen, post);
                }
            }
            post.push(b);
        }
        let n = cfg.len();
        let mut seen = vec![false; n];
        let mut rpo = Vec::new();
        walk(cfg, 0, &mut seen, &mut rpo);
        rpo.reverse();

        let mut preds = vec![Vec::new(); n];
        for (b, succs) in cfg.iter().enumerate() {
            for &s in succs {
                preds[s].push(b);
            }
        }
        let all: u32 = rpo.iter().map(|&b| 1u32 << b).sum();
        let mut dom: Vec<Option<u32>> = (0..n).map(|b| seen[b].then_some(all)).collect();
        dom[0] = Some(1);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo[1..] {
                let meet = preds[b]
                    .iter()
                    .filter_map(|&p| dom[p])
                    .fold(all, |a, d| a & d);
                let new = Some(meet | 1 << b);
                changed |= dom[b] != new;
                dom[b] = new;
            }
        }
        Reference { rpo, dom, preds }
    }

    /// Whether `a` dominates `b`, both reachable.
    fn dominates(&self, a: usize, b: usize) -> bool {
        self.dom[b].is_some_and(|d| d & 1 << a != 0)
    }

    /// The strict dominator of `b` that every other strict dominator
    /// dominates: the one whose `Dom` has exactly one block fewer.
    fn idom(&self, b: usize) -> Option<usize> {
        let d = self.dom[b]?;
        (0..self.dom.len()).find(|&c| {
            c != b
                && d & 1 << c != 0
                && self.dom[c].map(u32::count_ones) == Some(d.count_ones() - 1)
        })
    }

    /// `DF(b)` by the definition, ascending.
    fn frontier(&self, b: usize) -> Vec<usize> {
        (0..self.dom.len())
            .filter(|&y| {
                self.preds[y].iter().any(|&p| self.dominates(b, p))
                    && !(b != y && self.dominates(b, y))
            })
            .collect()
    }

    /// Pre-order of the dominator tree, children ascending.
    fn preorder(&self, b: usize, out: &mut Vec<usize>) {
        out.push(b);
        for c in (0..self.dom.len()).filter(|&c| self.idom(c) == Some(b)) {
            self.preorder(c, out);
        }
    }
}

/// Checks both typed views of `cfg` against the reference, and the
/// MEMOIR dominance frontiers too when `frontiers` is set.
fn check(cfg: &Cfg, r: &Reference, ctx: &str, frontiers: bool) {
    let n = cfg.len();
    let mf = build_memoir(cfg);
    let lf = build_lir(cfg);
    let mdt = MemoirDomTree::compute(&mf);
    let ldt = LirDomTree::compute(&lf);
    let bid = |b: usize| BlockId::from_raw(b as u32);
    let blk = |b: usize| Blk(b as u32);

    let rpo: Vec<usize> = mdt.rpo().map(BlockId::index).collect();
    assert_eq!(rpo, r.rpo, "memoir DomTree rpo, {ctx}");
    let rpo: Vec<usize> = mf.reverse_postorder().iter().map(|b| b.index()).collect();
    assert_eq!(rpo, r.rpo, "memoir Function rpo, {ctx}");
    let rpo: Vec<usize> = ldt.rpo().map(|b| b.0 as usize).collect();
    assert_eq!(rpo, r.rpo, "lir DomTree rpo, {ctx}");

    let blocks = 0..n;
    let idom: Vec<Option<usize>> = blocks.clone().map(|b| r.idom(b)).collect();
    let m: Vec<_> = blocks
        .clone()
        .map(|b| mdt.idom(bid(b)).map(BlockId::index))
        .collect();
    assert_eq!(m, idom, "memoir idom, {ctx}");
    let l: Vec<_> = blocks
        .clone()
        .map(|b| ldt.idom(blk(b)).map(|d| d.0 as usize))
        .collect();
    assert_eq!(l, idom, "lir idom, {ctx}");

    let pairs = || {
        blocks
            .clone()
            .flat_map(|a| blocks.clone().map(move |b| (a, b)))
    };
    // MEMOIR's view is reflexive on every block; lir's holds no
    // relation for unreachable ones.
    let want: Vec<bool> = pairs().map(|(a, b)| r.dominates(a, b)).collect();
    let m: Vec<bool> = pairs()
        .map(|(a, b)| mdt.dominates(bid(a), bid(b)))
        .collect();
    let want_m: Vec<bool> = pairs().zip(&want).map(|((a, b), &d)| d || a == b).collect();
    assert_eq!(m, want_m, "memoir dominates, {ctx}");
    let l: Vec<bool> = pairs()
        .map(|(a, b)| ldt.dominates(blk(a), blk(b)))
        .collect();
    assert_eq!(l, want, "lir dominates, {ctx}");
    let reachable: Vec<bool> = blocks.clone().map(|b| r.dom[b].is_some()).collect();
    let m: Vec<bool> = blocks.clone().map(|b| mdt.is_reachable(bid(b))).collect();
    let l: Vec<bool> = blocks.clone().map(|b| ldt.is_reachable(blk(b))).collect();
    assert_eq!(
        (m, l),
        (reachable.clone(), reachable),
        "is_reachable, {ctx}"
    );

    for b in blocks.clone() {
        let kids: Vec<usize> = mdt.children(bid(b)).map(BlockId::index).collect();
        let want: Vec<usize> = blocks.clone().filter(|&c| idom[c] == Some(b)).collect();
        assert_eq!(kids, want, "children({b}), {ctx}");
    }
    let mut pre = Vec::new();
    r.preorder(0, &mut pre);
    let got: Vec<usize> = mdt.preorder().iter().map(|b| b.index()).collect();
    assert_eq!(got, pre, "preorder, {ctx}");

    if !frontiers {
        return;
    }
    let df = mdt.dominance_frontiers(&mf);
    for b in blocks {
        let mut got: Vec<usize> = df[bid(b)].iter().map(|y| y.index()).collect();
        let len = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), len, "DF({b}) repeats a block, {ctx}");
        assert_eq!(got, r.frontier(b), "DF({b}), {ctx}");
    }
}

#[test]
fn shared_dominator_tree_matches_the_set_based_reference() {
    let mut rng = SplitMix64::new(0xD0_A1_7E_EE);
    // Unreachable blocks, self-loops, back edges and join points seen,
    // so the test cannot pass vacuously.
    let mut coverage = [0usize; 4];
    for case in 0..300 {
        let cfg = random_cfg(&mut rng, 1);
        let r = Reference::new(&cfg);
        check(&cfg, &r, &format!("case {case}: {cfg:?}"), true);

        coverage[0] += usize::from(r.rpo.len() < cfg.len());
        for &b in &r.rpo {
            coverage[1] += usize::from(cfg[b].contains(&b));
            coverage[2] += cfg[b].iter().filter(|&&s| r.dominates(s, b)).count();
            coverage[3] += usize::from(r.preds[b].len() >= 2);
        }
    }
    assert!(coverage.iter().all(|&c| c > 0), "{coverage:?}");
}

#[test]
fn shared_dominator_tree_matches_the_reference_with_edges_into_the_entry() {
    let mut rng = SplitMix64::new(0xE7_7E_D0_A1);
    // Reachable edges into the entry, from itself and from other blocks.
    let mut coverage = [0usize; 2];
    for case in 0..300 {
        let cfg = random_cfg(&mut rng, 0);
        let r = Reference::new(&cfg);
        check(&cfg, &r, &format!("case {case}: {cfg:?}"), false);

        for &p in r.rpo.iter().filter(|&&p| cfg[p].contains(&0)) {
            coverage[usize::from(p != 0)] += 1;
        }
    }
    assert!(coverage.iter().all(|&c| c > 0), "{coverage:?}");
}
