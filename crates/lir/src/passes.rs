//! [`passman::Pass`] adapters for the lir passes, and the spec registry.
//!
//! Every lir pass is function-local — it touches one function at a time
//! and never the module shell — so all five register as
//! [`FuncPass`]es behind the sharded executor
//! ([`FuncPassAdapter`]): they run per function, potentially on
//! [`PassManager::with_threads`] worker threads, and declare exactly the
//! changed functions via `Mutation::Funcs` (so unmutated functions keep
//! their cached analyses). Their instrumentation counters distinguish
//! *attempts* from *successes* (e.g. `blocked_may_write`), so the
//! per-function changed-bit is computed from the success counters only —
//! a sink run that was blocked everywhere did not mutate the function.

use crate::dom::{DomTree, DomTreeAnalysis};
use crate::ir::{Fun, Function, Module};
use crate::{constfold, dce, gvn, mem2reg, sinkpass};
use passman::{
    AnalysisManager, FuncOutcome, FuncPass, FuncPassAdapter, PassManager, PassRegistry,
    PipelineSpec, RunError, RunReport,
};
use std::any::Any;

type Ctx<'a> = Option<&'a (dyn Any + Send + Sync)>;

struct ConstFoldPass;
impl FuncPass<Module> for ConstFoldPass {
    fn name(&self) -> &'static str {
        "constfold"
    }
    fn run_on(&self, _shell: &Module, _key: Fun, f: &mut Function, _ctx: Ctx) -> FuncOutcome {
        let s = constfold::constfold_function(f);
        FuncOutcome {
            changed: s.scalar_success + s.load_success > 0,
            stats: vec![
                ("scalar_success", s.scalar_success as i64),
                ("load_success", s.load_success as i64),
                ("load_fail", s.load_fail as i64),
            ],
        }
    }
}

struct DcePass;
impl FuncPass<Module> for DcePass {
    fn name(&self) -> &'static str {
        "dce"
    }
    fn run_on(&self, _shell: &Module, _key: Fun, f: &mut Function, _ctx: Ctx) -> FuncOutcome {
        let removed = dce::dce_function(f);
        FuncOutcome {
            changed: removed > 0,
            stats: vec![("insts_removed", removed as i64)],
        }
    }
}

struct GvnPass;
impl FuncPass<Module> for GvnPass {
    fn name(&self) -> &'static str {
        "gvn"
    }
    /// GVN gates replacements on dominance, so it pulls the dominator
    /// tree from the analysis cache. A clone of the tree (five flat
    /// `Vec`s) crosses onto the worker shard — cheaper than the CHK
    /// recomputation it replaces, and the `Rc` cache itself can't cross.
    fn prefetch(
        &self,
        m: &Module,
        key: Fun,
        am: &mut AnalysisManager<Module>,
    ) -> Option<Box<dyn Any + Send + Sync>> {
        Some(Box::new((*am.get::<DomTreeAnalysis>(m, key)).clone()))
    }
    fn run_on(&self, _shell: &Module, _key: Fun, f: &mut Function, ctx: Ctx) -> FuncOutcome {
        let s = match ctx.and_then(|c| c.downcast_ref::<DomTree>()) {
            Some(dom) => gvn::gvn_function_with(f, dom),
            None => gvn::gvn_function(f),
        };
        FuncOutcome {
            changed: s.replaced > 0,
            stats: vec![
                ("total_value_numbers", s.total_value_numbers as i64),
                ("memory_value_numbers", s.memory_value_numbers as i64),
                ("replaced", s.replaced as i64),
            ],
        }
    }
}

struct Mem2RegPass;
impl FuncPass<Module> for Mem2RegPass {
    fn name(&self) -> &'static str {
        "mem2reg"
    }
    fn run_on(&self, _shell: &Module, _key: Fun, f: &mut Function, _ctx: Ctx) -> FuncOutcome {
        let s = mem2reg::mem2reg_function(f);
        FuncOutcome {
            changed: s.loads_forwarded + s.allocas_removed + s.stores_removed > 0,
            stats: vec![
                ("loads_forwarded", s.loads_forwarded as i64),
                ("allocas_removed", s.allocas_removed as i64),
                ("stores_removed", s.stores_removed as i64),
            ],
        }
    }
}

struct SinkPass;
impl FuncPass<Module> for SinkPass {
    fn name(&self) -> &'static str {
        "sink"
    }
    // No `prefetch`: sink decides legality from layout order within a
    // single block (may-write / may-reference scans between the def and
    // its unique use) and never asks a dominance question — there is no
    // DomTree call site to migrate to the cache.
    fn run_on(&self, _shell: &Module, _key: Fun, f: &mut Function, _ctx: Ctx) -> FuncOutcome {
        let s = sinkpass::sink_function(f);
        FuncOutcome {
            changed: s.success > 0,
            stats: vec![
                ("success", s.success as i64),
                ("blocked_may_write", s.blocked_may_write as i64),
                ("blocked_may_reference", s.blocked_may_reference as i64),
            ],
        }
    }
}

/// The registry of lir passes, by spec name: `constfold`, `dce`, `gvn`,
/// `mem2reg`, `sink` — all function-sharded.
pub fn registry() -> PassRegistry<Module> {
    let mut r = PassRegistry::new();
    r.register("constfold", || {
        Box::new(FuncPassAdapter::new(ConstFoldPass))
    });
    r.register("dce", || Box::new(FuncPassAdapter::new(DcePass)));
    r.register("gvn", || Box::new(FuncPassAdapter::new(GvnPass)));
    r.register("mem2reg", || Box::new(FuncPassAdapter::new(Mem2RegPass)));
    r.register("sink", || Box::new(FuncPassAdapter::new(SinkPass)));
    r
}

/// A [`PassManager`] over the lir registry with the structural verifier
/// installed (inter-pass verification runs in debug builds by default)
/// and the worker-thread count taken from `MEMOIR_THREADS` (default
/// serial). The verifier draws dominator trees from the run's analysis
/// cache ([`DomTreeAnalysis`]), so back-to-back verifications recompute
/// them only for the functions a pass actually mutated.
pub fn pass_manager() -> PassManager<Module> {
    let mut pm = PassManager::new(registry())
        .with_verifier_am(|m: &Module, am: &mut AnalysisManager<Module>| {
            let errs = crate::verifier::verify_module_cached(m, am);
            if errs.is_empty() {
                Ok(())
            } else {
                Err(errs.join("; "))
            }
        })
        .with_threads(passman::threads_from_env());
    if let Some(cache) = passman::cache_from_env() {
        pm = pm.with_compile_cache(cache);
    }
    pm
}

/// The default lir optimization pipeline: promote memory, then fold /
/// number / sink / clean to convergence.
pub fn default_spec() -> PipelineSpec {
    PipelineSpec::parse("mem2reg,fixpoint(constfold,gvn,sink,dce)")
        .expect("default lir spec is well-formed")
}

/// Runs a pipeline spec over a module.
pub fn optimize(m: &mut Module, spec: &PipelineSpec) -> Result<RunReport, RunError> {
    pass_manager().run(m, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Op};

    /// `f(x) = (1 + 2) * x` with a dead add; the default spec folds the
    /// constant, removes the dead instruction, and converges.
    fn sample() -> Module {
        let mut f = Function::new("f", 1, 1);
        let e = f.entry;
        let a = f.push1(e, Op::Const(1));
        let b = f.push1(e, Op::Const(2));
        let c = f.push1(e, Op::Bin(BinOp::Add, a, b));
        let dead = f.push1(e, Op::Bin(BinOp::Add, c, c));
        let _ = dead;
        let r = f.push1(e, Op::Bin(BinOp::Mul, c, f.param(0)));
        f.push0(e, Op::Ret(vec![r]));
        let mut m = Module::default();
        m.add(f);
        m
    }

    #[test]
    fn default_spec_optimizes_and_converges() {
        let mut m = sample();
        let before = m.inst_count();
        let report = optimize(&mut m, &default_spec()).unwrap();
        crate::verifier::assert_valid(&m);
        assert!(m.inst_count() < before);
        // The fixpoint group terminated with a confirming iteration.
        let last_fix = report
            .passes
            .iter()
            .rev()
            .find(|p| p.fixpoint_iteration.is_some())
            .unwrap();
        assert!(!last_fix.changed);
    }

    #[test]
    fn spec_runs_match_direct_calls() {
        let mut direct = sample();
        crate::constfold::constfold(&mut direct);
        crate::dce::dce(&mut direct);
        let mut via_spec = sample();
        let spec = PipelineSpec::parse("constfold,dce").unwrap();
        optimize(&mut via_spec, &spec).unwrap();
        assert_eq!(direct.inst_count(), via_spec.inst_count());
    }

    #[test]
    fn unknown_pass_errors_before_running() {
        let mut m = sample();
        let before = m.inst_count();
        let spec = PipelineSpec::parse("constfold,licm").unwrap();
        let err = optimize(&mut m, &spec).unwrap_err();
        assert!(err.to_string().contains("unknown pass `licm`"));
        assert_eq!(m.inst_count(), before, "validation precedes execution");
    }

    /// The dominator tree is computed at most once per function between
    /// mutations, and reused across verifier invocations and gvn's
    /// prefetch: once the fixpoint group stops changing the module, the
    /// confirming iteration's verifications are pure cache hits.
    #[test]
    fn dom_trees_are_cached_across_verifications() {
        let mut m = sample();
        let pm = pass_manager().verify_between_passes(true);
        let mut am = passman::AnalysisManager::new();
        pm.run_with(&mut m, &default_spec(), &mut am).unwrap();
        let c = am.counter("dom-tree");
        assert!(c.misses > 0, "the verifier and gvn did request the tree");
        assert!(
            c.hits > 0,
            "converged iterations must reuse cached trees, got {c:?}"
        );
        assert_eq!(
            c.max_computes_between_invalidations, 1,
            "caching contract: one compute per function per generation"
        );
    }

    #[test]
    fn parallel_runs_match_serial() {
        // Three copies of the sample function so the sharded executor
        // actually partitions work.
        let build = || {
            let mut m = sample();
            let f1 = m.funcs[0].clone();
            let f2 = m.funcs[0].clone();
            m.add(f1);
            m.add(f2);
            m
        };
        let mut serial = build();
        let serial_report = optimize(&mut serial, &default_spec()).unwrap();
        for threads in [2, 4, 8] {
            let mut par = build();
            let report = PassManager::new(registry())
                .with_threads(threads)
                .run(&mut par, &default_spec())
                .unwrap();
            assert_eq!(
                format!("{par:?}"),
                format!("{serial:?}"),
                "threads={threads}"
            );
            let fp = |r: &RunReport| {
                r.passes
                    .iter()
                    .map(|p| (p.name.clone(), p.changed, p.stats.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(fp(&report), fp(&serial_report), "threads={threads}");
        }
    }
}
