//! Adapters exposing this crate's analyses to the `passman`
//! [`AnalysisManager`](passman::AnalysisManager).
//!
//! Each marker type implements [`passman::Analysis`] (per-function) or
//! [`passman::ModuleAnalysis`] (module-wide), so passes request results
//! with `am.get::<CachedDomTree>(m, fid)` instead of recomputing them.
//! Results are cached until a pass declares it mutated the function —
//! "analyses as first-class cached artifacts shared across rewrites".

use crate::{Affinity, CallGraph, DefUse, DomTree, Purity, TypeEscape};
use memoir_ir::{FuncId, Module};
use passman::{Analysis, ModuleAnalysis};

/// Cached sparse def-use chains ([`DefUse`]).
#[derive(Debug)]
pub struct CachedDefUse;

impl Analysis<Module> for CachedDefUse {
    type Output = DefUse;
    const NAME: &'static str = "def-use";
    fn compute(m: &Module, f: FuncId) -> DefUse {
        DefUse::compute(&m.funcs[f])
    }
}

/// Cached dominator tree ([`DomTree`]).
#[derive(Debug)]
pub struct CachedDomTree;

impl Analysis<Module> for CachedDomTree {
    type Output = DomTree;
    const NAME: &'static str = "dom-tree";
    fn compute(m: &Module, f: FuncId) -> DomTree {
        DomTree::compute(&m.funcs[f])
    }
}

/// Cached module-wide field affinity ([`Affinity`]).
#[derive(Debug)]
pub struct CachedAffinity;

impl ModuleAnalysis<Module> for CachedAffinity {
    type Output = Affinity;
    const NAME: &'static str = "affinity";
    fn compute(m: &Module) -> Affinity {
        Affinity::compute(m)
    }
}

/// Cached module-wide call graph ([`CallGraph`]).
#[derive(Debug)]
pub struct CachedCallGraph;

impl ModuleAnalysis<Module> for CachedCallGraph {
    type Output = CallGraph;
    const NAME: &'static str = "call-graph";
    fn compute(m: &Module) -> CallGraph {
        CallGraph::compute(m)
    }
}

/// Cached module-wide purity / effect summaries ([`Purity`]).
#[derive(Debug)]
pub struct CachedPurity;

impl ModuleAnalysis<Module> for CachedPurity {
    type Output = Purity;
    const NAME: &'static str = "purity";
    fn compute(m: &Module) -> Purity {
        Purity::compute(m, &CallGraph::compute(m))
    }
}

/// Cached module-wide type escape ([`TypeEscape`]): which object types
/// reach unknown code and so must keep their layout.
#[derive(Debug)]
pub struct CachedTypeEscape;

impl ModuleAnalysis<Module> for CachedTypeEscape {
    type Output = TypeEscape;
    const NAME: &'static str = "type-escape";
    fn compute(m: &Module) -> TypeEscape {
        TypeEscape::compute(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, ModuleBuilder, Type};
    use passman::AnalysisManager;

    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let x = b.param("x", i64t);
            let y = b.add(x, x);
            b.returns(&[i64t]);
            b.ret(vec![y]);
        });
        mb.finish()
    }

    #[test]
    fn per_function_analyses_cache_and_invalidate() {
        let m = sample();
        let fid = m.func_by_name("f").unwrap();
        let mut am: AnalysisManager<Module> = AnalysisManager::new();

        let du1 = am.get::<CachedDefUse>(&m, fid);
        let du2 = am.get::<CachedDefUse>(&m, fid);
        assert!(
            std::rc::Rc::ptr_eq(&du1, &du2),
            "second request is the cached Rc"
        );
        let c = am.counter("def-use");
        assert_eq!((c.hits, c.misses), (1, 1));

        let _ = am.get::<CachedDomTree>(&m, fid);
        am.invalidate(fid);
        let _ = am.get::<CachedDomTree>(&m, fid);
        let c = am.counter("dom-tree");
        assert_eq!((c.hits, c.misses), (0, 2));
        assert_eq!(c.max_computes_between_invalidations, 1);
    }

    /// Pins the callgraph-edge audit gap: a `Mutation::Funcs`-scoped
    /// pass that edits a *callee* names only the callee in its mutation
    /// declaration, yet the *caller's* cached per-function analyses must
    /// drop too — the caller's fingerprint folds in the callee's, so the
    /// lazy refresh sees both change. Unrelated functions keep their
    /// entries (the retention the fingerprint layer exists for).
    #[test]
    fn callee_edit_invalidates_callers_cached_analyses() {
        use memoir_ir::{Callee, Constant, FunctionBuilder, ValueDef};

        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(&mut m.types, "callee", Form::Ssa);
        let i64t = b.ty(Type::I64);
        let x = b.param("x", i64t);
        b.returns(&[i64t]);
        let c = b.i64(10);
        let s = b.add(x, c);
        b.ret(vec![s]);
        let callee = {
            let f = b.finish();
            m.add_func(f)
        };
        let mut b = FunctionBuilder::new(&mut m.types, "caller", Form::Ssa);
        let i64t = b.ty(Type::I64);
        let y = b.param("y", i64t);
        b.returns(&[i64t]);
        let rets = b.call(Callee::Func(callee), vec![y], &[i64t]);
        b.ret(vec![rets[0]]);
        let caller = {
            let f = b.finish();
            m.add_func(f)
        };
        let mut b = FunctionBuilder::new(&mut m.types, "leaf", Form::Ssa);
        let i64t = b.ty(Type::I64);
        let z = b.param("z", i64t);
        b.returns(&[i64t]);
        let c = b.i64(3);
        let s = b.add(z, c);
        b.ret(vec![s]);
        let leaf = {
            let f = b.finish();
            m.add_func(f)
        };

        let mut am: AnalysisManager<Module> = AnalysisManager::new();
        for fid in [callee, caller, leaf] {
            let _ = am.get::<CachedDefUse>(&m, fid);
        }
        assert_eq!(am.counter("def-use").misses, 3);

        // A Funcs-scoped pass edits the callee's body (bump a constant)
        // and declares only the callee mutated.
        let f = &mut m.funcs[callee];
        let vid = f
            .values
            .ids()
            .find(|&v| {
                matches!(
                    f.values[v].def,
                    ValueDef::Const(Constant::Int(Type::I64, _))
                )
            })
            .expect("callee has an i64 constant");
        f.values[vid].def = ValueDef::Const(Constant::Int(Type::I64, 11));
        am.note_mutation(&passman::Mutation::Funcs(vec![callee]));

        // The unrelated leaf's entry survives the refresh …
        let _ = am.get::<CachedDefUse>(&m, leaf);
        let c = am.counter("def-use");
        assert_eq!((c.hits, c.misses), (1, 3), "leaf entry must be retained");
        // … while both the callee *and its caller* recompute.
        let _ = am.get::<CachedDefUse>(&m, callee);
        let _ = am.get::<CachedDefUse>(&m, caller);
        let c = am.counter("def-use");
        assert_eq!(
            (c.hits, c.misses),
            (1, 5),
            "callee edit must drop the caller's entry via fingerprint propagation"
        );
        let fps = am.fingerprint_stats();
        assert!(fps.retained >= 1, "{fps:?}");
        assert!(fps.dropped >= 2, "{fps:?}");
    }

    #[test]
    fn module_analyses_cache_until_any_invalidation() {
        let m = sample();
        let fid = m.func_by_name("f").unwrap();
        let mut am: AnalysisManager<Module> = AnalysisManager::new();
        let _ = am.get_module::<CachedAffinity>(&m);
        let _ = am.get_module::<CachedAffinity>(&m);
        assert_eq!(am.counter("affinity").hits, 1);
        am.invalidate(fid);
        let _ = am.get_module::<CachedAffinity>(&m);
        assert_eq!(am.counter("affinity").misses, 2);
    }
}
