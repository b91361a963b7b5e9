//! Incremental recompilation through a shared `CompileCache`: after a
//! cold compile fills the cache, a warm recompile of the unchanged
//! module must reuse nearly all per-function work and print
//! byte-identical lowered output, while a recompile after editing some
//! functions must miss. The subject is the whole-program-sized synthetic
//! module (120 functions) compiled O3 → `lower` → the default lir
//! pipeline, serially and without the cross-IR check.

use memoir::ir::{Constant, Module, Type, ValueDef};
use memoir::lir::printer::print_module;
use memoir::opt::lowering::{compile_lowered_with, LowerConfig, LoweredPipeline};
use memoir::opt::{default_spec, OptConfig, OptLevel};
use memoir::passman::{CompileCache, CompileCacheStats, PassOptions};
use memoir::workloads::synth_ir::build_synth_ir;

/// Compiles a copy of `m` with `cache` installed; returns this run's
/// cache counters and the printed lowered module.
fn compile_cached(m: &Module, cache: &CompileCache) -> (CompileCacheStats, String) {
    let mut m = m.clone();
    let pipeline = LoweredPipeline {
        memoir: default_spec(OptLevel::O3(OptConfig::all())),
        lower_opts: PassOptions::none(),
        lir: memoir::lir::passes::default_spec(),
    };
    let cfg = LowerConfig {
        threads: 1,
        cross_check: false,
        cache: Some(cache.clone()),
        ..LowerConfig::default()
    };
    let out = compile_lowered_with(&mut m, &pipeline, &cfg).expect("pipeline runs clean");
    let lowered = out.lowered.expect("pipeline lowers");
    (out.report.run.compile_cache, print_module(&lowered))
}

/// Edits the first `count` functions in place — bumping an `i64`
/// constant where one exists, renaming otherwise — so their fingerprints
/// (and their callers') change while the rest of the module stays
/// cache-hot.
fn edit_functions(m: &mut Module, count: usize) {
    let ids: Vec<_> = m.funcs.ids().take(count).collect();
    for fid in ids {
        let f = &mut m.funcs[fid];
        let const_val = f.values.ids().find(|&v| {
            matches!(
                f.values[v].def,
                ValueDef::Const(Constant::Int(Type::I64, _))
            )
        });
        match const_val {
            Some(v) => {
                let ValueDef::Const(Constant::Int(t, k)) = f.values[v].def else {
                    unreachable!()
                };
                f.values[v].def = ValueDef::Const(Constant::Int(t, k.wrapping_add(1)));
            }
            None => f.name.push_str("_edited"),
        }
    }
}

#[test]
fn warm_recompile_reuses_unchanged_functions() {
    let base = build_synth_ir(120, 2024);
    let funcs = base.funcs.ids().count();
    for pct in [0, 10, 50] {
        let cache = CompileCache::new();
        let (_, cold) = compile_cached(&base, &cache);
        let mut edited = base.clone();
        edit_functions(&mut edited, funcs * pct / 100);
        let (warm, lowered) = compile_cached(&edited, &cache);
        if pct == 0 {
            assert!(warm.lookups() > 0, "warm recompile made no cache lookups");
            assert!(
                warm.reuse_rate() >= 0.9,
                "unchanged-module warm recompile must reuse >= 90% of per-function \
                 work, got {:.1}% ({warm:?})",
                warm.reuse_rate() * 100.0
            );
            assert!(
                lowered == cold,
                "unchanged-module warm recompile must print byte-identical output"
            );
        } else {
            assert!(warm.misses > 0, "{pct}% edit produced no cache misses");
        }
    }
}
