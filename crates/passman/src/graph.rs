//! Graph algorithms shared by both IRs: reverse post-order, dominator
//! trees with dominance frontiers, and strongly connected components.
//!
//! A graph is a successor list over dense node indices: `succs[u]` holds
//! the targets of node `u`'s edges in edge order. A successor outside
//! `0..succs.len()` is a malformation the IR verifiers report, not a
//! reason to panic, so every walk here skips it. The IRs wrap these in
//! typed views (`memoir_analysis::DomTree`, `lir::DomTree`); every order
//! a view exposes is the order computed here.

/// Marks a node with no reverse post-order number or dominator
/// (unreachable from the entry).
const UNREACHED: usize = usize::MAX;

/// Reverse post-order of the nodes reachable from `entry`: a depth-first
/// walk that follows each node's successors in list order. Empty when
/// `entry` is out of range.
pub fn reverse_postorder(succs: &[Vec<usize>], entry: usize) -> Vec<usize> {
    let n = succs.len();
    let mut post = Vec::with_capacity(n);
    if entry >= n {
        return post;
    }
    let mut seen = vec![false; n];
    seen[entry] = true;
    // Iterative DFS with explicit (node, next-successor) frames.
    let mut stack = vec![(entry, 0usize)];
    while let Some(top) = stack.last_mut() {
        let (u, next) = *top;
        if let Some(&s) = succs[u].get(next) {
            top.1 += 1;
            if s < n && !seen[s] {
                seen[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(u);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// The dominator tree of the nodes reachable from an entry, computed
/// with the Cooper–Harvey–Kennedy iterative algorithm over reverse
/// post-order.
///
/// Nodes unreachable from the entry have no dominator information:
/// [`DomTree::dominates`] is `false` whenever either endpoint is
/// unreachable. `Clone` copies five flat vectors, so sharded passes can
/// carry a cached tree onto worker threads.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Reachable nodes in reverse post-order; the entry is first.
    rpo: Vec<usize>,
    /// Position of each node in `rpo` (`UNREACHED` when unreachable).
    rpo_num: Vec<usize>,
    /// Immediate dominator of each node; the entry points at itself.
    idom: Vec<usize>,
    /// Dominator-tree children in ascending node order: node `u`'s are
    /// `kids[kid_start[u]..kid_start[u + 1]]`.
    kids: Vec<usize>,
    kid_start: Vec<usize>,
}

impl DomTree {
    /// Computes the dominator tree of the graph `succs` rooted at
    /// `entry`.
    pub fn compute(succs: &[Vec<usize>], entry: usize) -> DomTree {
        let n = succs.len();
        let rpo = reverse_postorder(succs, entry);
        let mut rpo_num = vec![UNREACHED; n];
        for (k, &u) in rpo.iter().enumerate() {
            rpo_num[u] = k;
        }
        // Predecessors among reachable nodes.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &u in &rpo {
            for &s in &succs[u] {
                if s < n && rpo_num[s] != UNREACHED {
                    preds[s].push(u);
                }
            }
        }

        let mut idom = vec![UNREACHED; n];
        if let Some(&root) = rpo.first() {
            idom[root] = root;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new = UNREACHED;
                for &p in &preds[b] {
                    if idom[p] == UNREACHED {
                        continue; // not yet processed
                    }
                    new = if new == UNREACHED {
                        p
                    } else {
                        intersect(&idom, &rpo_num, p, new)
                    };
                }
                if new != UNREACHED && idom[b] != new {
                    idom[b] = new;
                    changed = true;
                }
            }
        }

        // Children by counting sort over the parents: filling in node
        // order leaves every child list ascending.
        let mut kid_start = vec![0usize; n + 1];
        for (u, &d) in idom.iter().enumerate() {
            if d != UNREACHED && d != u {
                kid_start[d + 1] += 1;
            }
        }
        for u in 0..n {
            kid_start[u + 1] += kid_start[u];
        }
        let mut fill = kid_start.clone();
        let mut kids = vec![0usize; kid_start[n]];
        for (u, &d) in idom.iter().enumerate() {
            if d != UNREACHED && d != u {
                kids[fill[d]] = u;
                fill[d] += 1;
            }
        }

        DomTree {
            rpo,
            rpo_num,
            idom,
            kids,
            kid_start,
        }
    }

    /// The reachable nodes in reverse post-order (entry first).
    pub fn rpo(&self) -> &[usize] {
        &self.rpo
    }

    /// Whether `u` is reachable from the entry.
    pub fn is_reachable(&self, u: usize) -> bool {
        self.rpo_num.get(u).is_some_and(|&k| k != UNREACHED)
    }

    /// The immediate dominator of `u` (`None` for the entry and for
    /// unreachable nodes).
    pub fn idom(&self, u: usize) -> Option<usize> {
        let d = *self.idom.get(u)?;
        (d != UNREACHED && d != u).then_some(d)
    }

    /// Whether `a` dominates `b` (reflexively). `false` when either node
    /// is unreachable.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        // Reverse post-order numbers strictly decrease up the idom
        // chain, so stop once we pass a's.
        let mut cur = b;
        while self.rpo_num[cur] > self.rpo_num[a] {
            cur = self.idom[cur];
        }
        cur == a
    }

    /// `u`'s children in the dominator tree, in ascending node order.
    pub fn children(&self, u: usize) -> &[usize] {
        match (self.kid_start.get(u), self.kid_start.get(u + 1)) {
            (Some(&lo), Some(&hi)) => &self.kids[lo..hi],
            _ => &[],
        }
    }

    /// Pre-order depth-first walk of the dominator tree from the entry,
    /// visiting children in ascending order.
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.rpo.len());
        let mut stack: Vec<usize> = self.rpo.first().copied().into_iter().collect();
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(self.children(u).iter().rev());
        }
        out
    }

    /// Dominance frontiers (Cytron et al.): `DF(b)` holds the nodes
    /// where `b`'s dominance ends, the φ-insertion points. `succs` must
    /// be the graph the tree was computed from.
    ///
    /// Each join node `y` (two or more predecessor edges), taken in
    /// reverse post-order, joins the frontier of every node on the idom
    /// chain from each of its reachable predecessors (in node order) up
    /// to, not including, `idom(y)`; a frontier lists `y` once, in the
    /// order of first arrival. Like Cytron et al., this assumes no edge
    /// enters the entry.
    pub fn frontiers(&self, succs: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let n = succs.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, out) in succs.iter().enumerate() {
            for &s in out {
                if s < n {
                    preds[s].push(u);
                }
            }
        }
        let mut df: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &y in &self.rpo {
            if preds[y].len() < 2 {
                continue;
            }
            for &p in &preds[y] {
                if !self.is_reachable(p) {
                    continue;
                }
                let mut runner = p;
                while runner != self.idom[y] {
                    if !df[runner].contains(&y) {
                        df[runner].push(y);
                    }
                    if runner == self.idom[runner] {
                        break; // reached the entry
                    }
                    runner = self.idom[runner];
                }
            }
        }
        df
    }
}

fn intersect(idom: &[usize], rpo_num: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while rpo_num[a] > rpo_num[b] {
            a = idom[a];
        }
        while rpo_num[b] > rpo_num[a] {
            b = idom[b];
        }
    }
    a
}

/// Strongly connected components of a directed graph over nodes
/// `0..n`, returned **leaves-first** (every edge leaving a component
/// points to an earlier component in the returned order). Within a
/// component, nodes appear in ascending order. Edges to nodes outside
/// `0..n` are ignored.
///
/// Iterative Tarjan — fuzzed modules can have deep call chains, so no
/// recursion.
pub fn sccs<'a>(n: usize, edges: &dyn Fn(usize) -> &'a [usize]) -> Vec<Vec<usize>> {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, its edge list, next edge position).
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut frames: Vec<(usize, &[usize], usize)> = vec![(root, edges(root), 0)];
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            if frame.2 < frame.1.len() {
                let w = frame.1[frame.2];
                frame.2 += 1;
                if w >= n {
                    continue; // dangling edge (broken IR): ignore
                }
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, edges(w), 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.0;
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpo_follows_successor_order_and_skips_bad_targets() {
        // 0 → {1, 2} → 3: a diamond.
        let g = vec![vec![1, 2], vec![3], vec![3], vec![]];
        assert_eq!(reverse_postorder(&g, 0), vec![0, 2, 1, 3]);
        // Node 2 is unreachable; the edge to 9 is out of range.
        let g = vec![vec![9, 1], vec![], vec![0]];
        assert_eq!(reverse_postorder(&g, 0), vec![0, 1]);
        assert!(reverse_postorder(&g, 3).is_empty());
    }

    #[test]
    fn unreachable_nodes_have_no_dominance() {
        let g = vec![vec![], vec![0], vec![7]];
        let dt = DomTree::compute(&g, 0);
        assert!(dt.is_reachable(0) && !dt.is_reachable(1) && !dt.is_reachable(9));
        assert!(!dt.dominates(1, 1) && !dt.dominates(0, 1) && !dt.dominates(1, 0));
        assert_eq!((dt.idom(1), dt.idom(9)), (None, None));
        assert!(dt.children(1).is_empty() && dt.children(9).is_empty());
        // An out-of-range entry leaves an empty tree.
        assert!(DomTree::compute(&g, 5).preorder().is_empty());
    }

    #[test]
    fn sccs_leaves_first() {
        // 0 -> 1 -> 2, 2 -> 1 (cycle {1,2}), 3 isolated.
        let edges = |v: usize| -> &'static [usize] {
            match v {
                0 => &[1],
                1 => &[2],
                2 => &[1],
                _ => &[],
            }
        };
        assert_eq!(sccs(4, &edges), vec![vec![1, 2], vec![0], vec![3]]);
    }

    #[test]
    fn sccs_handles_self_loop_and_dangling_edges() {
        let edges = |v: usize| -> &'static [usize] {
            match v {
                0 => &[0, 7],
                _ => &[],
            }
        };
        assert_eq!(sccs(2, &edges), vec![vec![0], vec![1]]);
    }
}
