//! Dead code elimination.
//!
//! Removes: pure instructions with no used results; unreachable blocks;
//! and — using the purity summaries — calls whose callee has no observable
//! effect and whose results are unused (`DceStats::calls_removed`, the
//! dead-call component of the DEE follow-up described in DESIGN.md §6).

use memoir_analysis::Purity;
use memoir_ir::{Callee, Effect, Form, InstKind, Module, ValueId};
use std::collections::HashSet;

/// Statistics from one DCE run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DceStats {
    /// Pure instructions removed.
    pub insts_removed: usize,
    /// Unreachable blocks removed.
    pub blocks_removed: usize,
    /// Effect-free calls removed.
    pub calls_removed: usize,
}

/// Runs DCE on every function of the module.
pub fn dce(m: &mut Module) -> DceStats {
    dce_with(m, &mut passman::AnalysisManager::new())
}

/// Like [`dce`], but takes the purity summaries from a shared
/// [`passman::AnalysisManager`] so repeated pipeline runs (e.g. inside a
/// `fixpoint(...)` group) reuse them instead of rebuilding the call graph
/// each time.
pub fn dce_with(m: &mut Module, am: &mut passman::AnalysisManager<Module>) -> DceStats {
    let purity = am.get_module::<memoir_analysis::cached::CachedPurity>(m);
    let mut stats = DceStats::default();
    for fid in m.funcs.ids().collect::<Vec<_>>() {
        stats = add(stats, run_function(m, fid, &purity));
    }
    stats
}

fn add(a: DceStats, b: DceStats) -> DceStats {
    DceStats {
        insts_removed: a.insts_removed + b.insts_removed,
        blocks_removed: a.blocks_removed + b.blocks_removed,
        calls_removed: a.calls_removed + b.calls_removed,
    }
}

fn run_function(m: &mut Module, fid: memoir_ir::FuncId, purity: &Purity) -> DceStats {
    let mut stats = DceStats::default();
    loop {
        let f = &m.funcs[fid];
        // Used values.
        let mut used: HashSet<ValueId> = HashSet::new();
        for (_, i) in f.inst_ids_in_order() {
            f.insts[i].kind.visit_operands(|&v| {
                used.insert(v);
            });
        }
        // Find removable instructions.
        let mut to_remove: Vec<(memoir_ir::BlockId, memoir_ir::InstId)> = Vec::new();
        for (b, i) in f.inst_ids_in_order() {
            let inst = &f.insts[i];
            let any_used = inst.results.iter().any(|r| used.contains(r));
            if any_used {
                continue;
            }
            let removable = match inst.kind.effect() {
                Effect::Pure => true,
                Effect::ReadMem => true, // reads have no observable effect
                Effect::CallLike => {
                    if let InstKind::Call { callee, .. } = &inst.kind {
                        match callee {
                            Callee::Func(t) => {
                                let s = purity.summary(*t);
                                // A call whose by-ref writes cannot reach us
                                // (SSA form has no by-ref) and which is
                                // otherwise pure is removable.
                                let no_byref_effect =
                                    s.writes_params.is_empty() || m.funcs[fid].form == Form::Ssa;
                                s.writes_fields.is_empty()
                                    && !s.opaque
                                    && !s.allocates_objects
                                    && no_byref_effect
                            }
                            Callee::Extern(e) => {
                                let eff = m.externs[*e].effects;
                                !eff.opaque && !eff.writes_args
                            }
                        }
                    } else {
                        false
                    }
                }
                _ => false,
            };
            if removable {
                if matches!(inst.kind, InstKind::Call { .. }) {
                    stats.calls_removed += 1;
                } else {
                    stats.insts_removed += 1;
                }
                to_remove.push((b, i));
            }
        }
        if to_remove.is_empty() {
            break;
        }
        let f = &mut m.funcs[fid];
        for (b, i) in to_remove {
            f.remove_inst(b, i);
        }
    }

    // Remove unreachable blocks (replace their contents with
    // `unreachable` so ids stay stable and φs drop their edges).
    let f = &mut m.funcs[fid];
    let reachable: HashSet<memoir_ir::BlockId> = f.reverse_postorder().into_iter().collect();
    let all: Vec<memoir_ir::BlockId> = f.blocks.ids().collect();
    for b in all {
        if reachable.contains(&b) || f.blocks[b].insts.is_empty() {
            continue;
        }
        stats.blocks_removed += 1;
        // Remove φ incomings that referenced this block.
        for other in f.blocks.ids().collect::<Vec<_>>() {
            for i in f.blocks[other].insts.clone() {
                if let InstKind::Phi { incoming } = &mut f.insts[i].kind {
                    incoming.retain(|(p, _)| *p != b);
                }
            }
        }
        f.blocks[b].insts.clear();
        let (_, _) = f.append_inst(b, InstKind::Unreachable, &[]);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, ModuleBuilder, Type};

    #[test]
    fn unused_pure_insts_removed() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let x = b.i64(1);
            let y = b.i64(2);
            let _dead = b.add(x, y);
            let _dead2 = b.mul(x, y);
            let live = b.add(y, y);
            let t = b.ty(Type::I64);
            b.returns(&[t]);
            b.ret(vec![live]);
        });
        let mut m = mb.finish();
        let stats = dce(&mut m);
        assert_eq!(stats.insts_removed, 2);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        assert_eq!(f.live_inst_count(), 2); // add + ret
    }

    #[test]
    fn transitively_dead_chain_removed() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let x = b.i64(1);
            let a = b.add(x, x); // dead via chain
            let c = b.mul(a, a); // only user of a, itself dead
            let _ = c;
            b.ret(vec![]);
        });
        let mut m = mb.finish();
        let stats = dce(&mut m);
        assert_eq!(stats.insts_removed, 2);
    }

    #[test]
    fn dead_collection_chain_removed() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(4);
            let s0 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(1);
            let _s1 = b.write(s0, zero, v); // never read
            b.ret(vec![]);
        });
        let mut m = mb.finish();
        let stats = dce(&mut m);
        assert_eq!(stats.insts_removed, 2, "write and allocation both die");
    }

    #[test]
    fn pure_call_with_unused_result_removed() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let helper = mb.func("helper", Form::Ssa, |b| {
            let x = b.param("x", i64t);
            let y = b.add(x, x);
            b.returns(&[i64t]);
            b.ret(vec![y]);
        });
        mb.func("main", Form::Ssa, |b| {
            let x = b.i64(3);
            let _unused = b.call(memoir_ir::Callee::Func(helper), vec![x], &[i64t]);
            b.ret(vec![]);
        });
        let mut m = mb.finish();
        let stats = dce(&mut m);
        assert_eq!(stats.calls_removed, 1);
    }

    #[test]
    fn opaque_extern_call_kept() {
        let mut mb = ModuleBuilder::new("m");
        let ext = mb.module.add_extern(memoir_ir::ExternDecl {
            name: "io".into(),
            params: vec![],
            ret_tys: vec![],
            effects: memoir_ir::ExternEffects::unknown(),
        });
        mb.func("main", Form::Ssa, |b| {
            b.call(memoir_ir::Callee::Extern(ext), vec![], &[]);
            b.ret(vec![]);
        });
        let mut m = mb.finish();
        let stats = dce(&mut m);
        assert_eq!(stats.calls_removed, 0);
    }

    #[test]
    fn unreachable_block_cleared() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let dead = b.block("dead");
            b.ret(vec![]);
            b.switch_to(dead);
            let x = b.i64(1);
            let y = b.add(x, x);
            let _ = y;
            b.ret(vec![]);
        });
        let mut m = mb.finish();
        let stats = dce(&mut m);
        assert_eq!(stats.blocks_removed, 1);
    }
}
