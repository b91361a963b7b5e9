//! Sinking (code motion toward uses).
//!
//! Moves side-effect-free instructions into the block of their unique use
//! when that moves them under a branch (the conventional sink pass the
//! paper applies after dead element elimination to pull computation into
//! its newly conditional region, §V). In MEMOIR's SSA form even
//! collection reads are movable — collection values are immutable — which
//! is precisely the advantage §VII-D measures against LLVM's Sink pass
//! (where "may write"/"may reference" memory barriers dominate failures).

use memoir_analysis::cached::{CachedDefUse, CachedDomTree};
use memoir_analysis::dominators::natural_loop_depths;
use memoir_analysis::{DefUse, DomTree};
use memoir_ir::{BlockId, Effect, Form, Function, InstId, InstKind, Module};
use passman::AnalysisManager;
use std::cell::OnceCell;
use std::collections::HashMap;

/// Statistics from a sink run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Instructions moved into their use block.
    pub sunk: usize,
}

/// Runs sinking on every SSA-form function.
pub fn sink(m: &mut Module) -> SinkStats {
    sink_with(m, &mut AnalysisManager::new())
}

/// Runs sinking, sharing analyses through `am`.
///
/// Sinking moves instructions between existing blocks: it changes
/// neither the CFG nor any value's set of users. So the dominator tree
/// and def-use chains fetched once per function, and the loop depths
/// derived from that tree when a first candidate needs them, stay valid
/// across every iteration of that function's fixpoint, and the functions
/// that moved anything are invalidated together after the last one —
/// the pass causes at most one fingerprint refresh of the module, not
/// one per function.
pub fn sink_with(m: &mut Module, am: &mut AnalysisManager<Module>) -> SinkStats {
    let mut stats = SinkStats::default();
    let mut moved = Vec::new();
    for fid in m.funcs.ids().collect::<Vec<_>>() {
        if m.funcs[fid].form != Form::Ssa {
            continue;
        }
        let dt = am.get::<CachedDomTree>(m, fid);
        let du = am.get::<CachedDefUse>(m, fid);
        let depths = OnceCell::new();
        let before = stats.sunk;
        loop {
            let n = run_function(&mut m.funcs[fid], &dt, &du, &depths);
            stats.sunk += n;
            if n == 0 {
                break;
            }
        }
        if stats.sunk > before {
            moved.push(fid);
        }
    }
    for fid in moved {
        am.invalidate(fid);
    }
    stats
}

/// One sinking sweep over `f`; returns the number of instructions moved.
fn run_function(
    f: &mut Function,
    dt: &DomTree,
    du: &DefUse,
    depths: &OnceCell<HashMap<BlockId, u32>>,
) -> usize {
    // Position of each instruction.
    let mut pos: HashMap<InstId, (BlockId, usize)> = HashMap::new();
    for (b, block) in f.blocks.iter() {
        for (i, &inst) in block.insts.iter().enumerate() {
            pos.insert(inst, (b, i));
        }
    }

    // Find single-use, sinkable instructions whose use lives in a
    // different, strictly-dominated block at no greater loop depth.
    let mut moves: Vec<(InstId, BlockId, BlockId)> = Vec::new();
    for (b, block) in f.blocks.iter() {
        for &inst in &block.insts {
            let kind = &f.insts[inst].kind;
            if kind.is_terminator() || kind.is_phi() {
                continue;
            }
            // Pure scalar ops; collection reads are movable in SSA form
            // because collection values are immutable. Field reads touch
            // the mutable heap and stay put.
            let movable = match kind.effect() {
                Effect::Pure => !matches!(
                    kind,
                    // Allocations are anchored (allocation identity).
                    InstKind::NewSeq { .. }
                        | InstKind::NewAssoc { .. }
                        | InstKind::Copy { .. }
                        | InstKind::CopyRange { .. }
                        | InstKind::Keys { .. }
                ),
                Effect::ReadMem => matches!(
                    kind,
                    InstKind::Read { .. } | InstKind::Size { .. } | InstKind::Has { .. }
                ),
                _ => false,
            };
            if !movable {
                continue;
            }
            let results = &f.insts[inst].results;
            if results.len() != 1 {
                continue;
            }
            let uses = du.uses(results[0]);
            if uses.len() != 1 {
                continue;
            }
            let user = uses[0].inst;
            // Never sink into a φ (the value is needed on the edge).
            if f.insts[user].kind.is_phi() {
                continue;
            }
            let Some(&(ub, _)) = pos.get(&user) else {
                continue;
            };
            if ub == b {
                continue;
            }
            if !dt.dominates(b, ub) {
                continue;
            }
            let depths = depths.get_or_init(|| natural_loop_depths(f, dt));
            if depths.get(&ub).copied().unwrap_or(0) > depths.get(&b).copied().unwrap_or(0) {
                continue; // don't sink into deeper loops
            }
            moves.push((inst, b, ub));
        }
    }

    let count = moves.len();
    for (inst, from, to) in moves {
        f.remove_inst(from, inst);
        // Insert before the first use (re-scan; earlier sinks shifted
        // positions) — conservatively before the first non-φ instruction
        // that uses it, or at the φ boundary.
        let use_pos = f.blocks[to]
            .insts
            .iter()
            .position(|&i| {
                let mut used = false;
                f.insts[i].kind.visit_operands(|&v| {
                    used |= f.insts[inst].results.contains(&v);
                });
                used
            })
            .unwrap_or(f.blocks[to].insts.len().saturating_sub(1));
        // Keep φs at the head.
        let phi_boundary = f.blocks[to]
            .insts
            .iter()
            .take_while(|&&i| f.insts[i].kind.is_phi())
            .count();
        let at = use_pos.max(phi_boundary);
        f.blocks[to].insts.insert(at, inst);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{ModuleBuilder, Type};

    /// A read computed unconditionally but used only on one branch sinks
    /// into that branch.
    #[test]
    fn read_sinks_into_branch() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let boolt = b.ty(Type::Bool);
            let seqt = b.types.seq_of(i64t);
            let s = b.param("s", seqt);
            let cond = b.param("c", boolt);
            let zero = b.index(0);
            let v = b.read(s, zero); // only used in `yes`
            let yes = b.block("yes");
            let no = b.block("no");
            b.branch(cond, yes, no);
            b.switch_to(yes);
            let one = b.i64(1);
            let r = b.add(v, one);
            b.returns(&[i64t]);
            b.ret(vec![r]);
            b.switch_to(no);
            let z = b.i64(0);
            b.ret(vec![z]);
        });
        let mut m = mb.finish();
        let stats = sink(&mut m);
        assert_eq!(stats.sunk, 1);
        memoir_ir::verifier::assert_valid(&m);
        // The read now lives in `yes`.
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let yes = memoir_ir::BlockId::from_raw(1);
        assert!(f.blocks[yes]
            .insts
            .iter()
            .any(|&i| matches!(f.insts[i].kind, InstKind::Read { .. })));
    }

    /// Values used in multiple blocks stay put.
    #[test]
    fn multi_use_not_sunk() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let boolt = b.ty(Type::Bool);
            let cond = b.param("c", boolt);
            let x = b.param("x", i64t);
            let v = b.add(x, x);
            let yes = b.block("yes");
            let no = b.block("no");
            b.branch(cond, yes, no);
            b.switch_to(yes);
            let one = b.i64(1);
            let r1 = b.add(v, one);
            b.returns(&[i64t]);
            b.ret(vec![r1]);
            b.switch_to(no);
            let two = b.i64(2);
            let r2 = b.add(v, two);
            b.ret(vec![r2]);
        });
        let mut m = mb.finish();
        let stats = sink(&mut m);
        assert_eq!(stats.sunk, 0);
        memoir_ir::verifier::assert_valid(&m);
    }

    /// Field reads touch the mutable heap: not sinkable across anything.
    #[test]
    fn field_read_not_sunk() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t",
                vec![memoir_ir::Field {
                    name: "x".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        let ref_ty = mb.module.types.ref_of(obj);
        mb.func("f", Form::Ssa, |b| {
            let boolt = b.ty(Type::Bool);
            let o = b.param("o", ref_ty);
            let cond = b.param("c", boolt);
            let v = b.field_read(o, obj, 0);
            let yes = b.block("yes");
            let no = b.block("no");
            b.branch(cond, yes, no);
            b.switch_to(yes);
            b.returns(&[i64t]);
            b.ret(vec![v]);
            b.switch_to(no);
            let z = b.i64(0);
            b.ret(vec![z]);
        });
        let mut m = mb.finish();
        let stats = sink(&mut m);
        assert_eq!(stats.sunk, 0);
    }
}
