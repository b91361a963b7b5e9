//! The MEMOIR compilation pipeline (paper Fig. 4).
//!
//! `MUT form → SSA construction → MEMOIR optimizations → SSA destruction
//! → (layout optimizations) → lowering-ready mut form`, with per-pass
//! timing for Table III and per-optimization toggles for the Figs. 8/9
//! breakdown.
//!
//! The pipeline is spec-driven: [`compile`] builds the default
//! [`PipelineSpec`] for an [`OptLevel`] (see [`default_spec`]) and hands
//! it to the generic `passman` [`PassManager`] over the pass
//! [`registry`](crate::passes::registry). Arbitrary pipelines can be run
//! from an LLVM-style `-passes=` string with [`compile_spec`]:
//!
//! ```
//! use memoir_ir::{Form, ModuleBuilder, Type};
//! let mut mb = ModuleBuilder::new("m");
//! mb.func("f", Form::Mut, |b| {
//!     let i64t = b.ty(Type::I64);
//!     let x = b.param("x", i64t);
//!     b.returns(&[i64t]);
//!     b.ret(vec![x]);
//! });
//! let mut m = mb.finish();
//! let spec = "ssa-construct,constprop,fixpoint(simplify,sink,dce),ssa-destruct"
//!     .parse()
//!     .unwrap();
//! let report = memoir_opt::pipeline::compile_spec(&mut m, &spec).unwrap();
//! assert!(report.run.passes.iter().any(|p| p.name == "constprop"));
//! ```

use crate::{
    constprop, construct_ssa, dce, dee, destruct_ssa, dfe, field_elision, key_fold, rie, simplify,
    sink, ConstructError,
};
use memoir_ir::{CollectionCensus, Module};
use passman::{PassManager, PipelineSpec, RunError, RunReport};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Which MEMOIR optimizations to run (the Figs. 8/9 configuration axes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptConfig {
    /// Dead element elimination (strict intra-function + call
    /// specialization).
    pub dee: bool,
    /// Field elision (with the affinity threshold below).
    pub fe: bool,
    /// Redundant indirection elimination.
    pub rie: bool,
    /// Dead field elimination.
    pub dfe: bool,
    /// Key folding.
    pub key_fold: bool,
}

impl OptConfig {
    /// Everything on (the paper's ALL configuration).
    pub fn all() -> Self {
        OptConfig {
            dee: true,
            fe: true,
            rie: true,
            dfe: true,
            key_fold: true,
        }
    }

    /// Everything off (O0: pure construction/destruction).
    pub fn none() -> Self {
        OptConfig::default()
    }

    /// Only DEE.
    pub fn dee_only() -> Self {
        OptConfig {
            dee: true,
            ..OptConfig::none()
        }
    }
}

/// Affinity threshold used by automatic field elision under `fe`.
pub const FE_AFFINITY_THRESHOLD: f64 = 0.5;

/// Optimization level (Table III columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptLevel {
    /// SSA construction + destruction only.
    O0,
    /// Full scalar pipeline plus the configured MEMOIR optimizations.
    O3(OptConfig),
}

/// Per-pass timing and outcome report.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// `(pass name, wall time)` in execution order.
    pub pass_times: Vec<(String, Duration)>,
    /// Total pipeline wall time.
    pub total: Duration,
    /// Copies inserted by SSA destruction (must be 0 for linear chains).
    pub destruct_copies: usize,
    /// Collection census after construction (Table III's "SSA" column).
    pub ssa_census: memoir_ir::CollectionCensus,
    /// Collection census after the full pipeline ("Binary" column).
    pub final_census: memoir_ir::CollectionCensus,
    /// The full pass-manager report: per-pass stats, fixpoint iteration
    /// tags, analysis-cache counters, invalidation events.
    pub run: RunReport,
}

impl PipelineReport {
    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total.as_secs_f64() * 1e3
    }
}

/// The default pipeline spec for an optimization level — the Fig. 4
/// sequence as a parsable, printable [`PipelineSpec`]:
///
/// * `O0` → `ssa-construct,ssa-destruct`
/// * `O3(all)` → `ssa-construct,constprop,fusion,dee,fixpoint(constprop,simplify,sink,dce),fusion,sink,dce,ssa-destruct,field-elision,rie,key-fold,dfe`
///
/// with the DEE step and each layout pass gated by its [`OptConfig`]
/// toggle. The `fixpoint(...)` group is the paper's DEE cleanup (fold
/// the guards, simplify the regions, sink computation into them, drop
/// dead code), iterated to convergence.
pub fn default_spec(level: OptLevel) -> PipelineSpec {
    let mut s = String::from("ssa-construct");
    if let OptLevel::O3(cfg) = level {
        s.push_str(",constprop,fusion");
        if cfg.dee {
            s.push_str(",dee,fixpoint(constprop,simplify,sink,dce)");
        }
        s.push_str(",fusion,sink,dce");
    }
    s.push_str(",ssa-destruct");
    if let OptLevel::O3(cfg) = level {
        if cfg.fe {
            s.push_str(",field-elision");
        }
        if cfg.rie {
            s.push_str(",rie");
        }
        if cfg.key_fold {
            s.push_str(",key-fold");
        }
        if cfg.dfe {
            s.push_str(",dfe");
        }
    }
    PipelineSpec::parse(&s).expect("default spec is well-formed")
}

/// A [`PassManager`] over the full MEMOIR registry with the IR verifier
/// installed (inter-pass verification runs in debug builds by default),
/// the symbolic equivalence oracle behind the `verify-sym` spec option,
/// and the worker-thread count taken from `MEMOIR_THREADS` (default
/// serial; function-sharded passes like `simplify` use the workers).
pub fn pass_manager() -> PassManager<Module> {
    let mut pm = PassManager::new(crate::passes::registry())
        .with_verifier(|m: &Module| {
            let errs = memoir_ir::verifier::verify_module(m);
            if errs.is_empty() {
                Ok(())
            } else {
                let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
                Err(msgs.join("; "))
            }
        })
        .with_sym_verifier(|m: &Module| m.clone(), prove_pass_equiv)
        .with_threads(passman::threads_from_env());
    if let Some(cache) = passman::cache_from_env() {
        pm = pm.with_compile_cache(cache);
    }
    pm
}

/// The `verify-sym` checker wired into [`pass_manager`]: proves every
/// function of `before` equivalent to its namesake in `after` with the
/// bounded symbolic oracle (`symexec`). `budget` is the per-function
/// path cap (`0` = [`symexec::Budget::default`], currently 64 paths).
///
/// Only a *confirmed* divergence witness fails the pass — inconclusive
/// verdicts (budget exhausted, unsupported ops, non-scalar signatures)
/// pass, because a peephole verifier that rejects everything it cannot
/// prove would reject most real pipelines. Functions added or removed
/// by the pass (e.g. DEE call specialization) are skipped: equivalence
/// is only defined for name-matched pairs.
pub fn prove_pass_equiv(before: &Module, after: &Module, budget: u64) -> Result<(), String> {
    let b = if budget == 0 {
        symexec::Budget::default()
    } else {
        symexec::Budget {
            max_paths: budget as usize,
            ..symexec::Budget::default()
        }
    };
    for (_, f) in after.funcs.iter() {
        if before.func_by_name(&f.name).is_none() {
            continue;
        }
        if let symexec::FnVerdict::Diverged { args, detail } =
            symexec::prove_memoir_equiv(before, after, &f.name, &b)
        {
            return Err(format!(
                "function `{}` diverges on args {args:?}: {detail}",
                f.name
            ));
        }
    }
    Ok(())
}

/// Runs an arbitrary pipeline spec over a module, producing the same
/// [`PipelineReport`] as [`compile`]. Census fields are populated when
/// the spec contains `ssa-construct`.
pub fn compile_spec(m: &mut Module, spec: &PipelineSpec) -> Result<PipelineReport, RunError> {
    compile_spec_with(m, spec, |pm| pm)
}

/// Like [`compile_spec`], but lets the caller reconfigure the
/// [`PassManager`] before the run — the hook for the `memoir-opt` CLI's
/// `--on-fault`/`--budget` flags and the `memoir-fuzz` harness's fault
/// injection:
///
/// ```ignore
/// compile_spec_with(&mut m, &spec, |pm| {
///     pm.on_fault(FaultPolicy::SkipPass).with_budgets(budgets)
/// })
/// ```
pub fn compile_spec_with(
    m: &mut Module,
    spec: &PipelineSpec,
    configure: impl FnOnce(PassManager<Module>) -> PassManager<Module>,
) -> Result<PipelineReport, RunError> {
    let ssa_census: Rc<RefCell<Option<CollectionCensus>>> = Rc::new(RefCell::new(None));
    let cell = Rc::clone(&ssa_census);
    let pm = configure(pass_manager().with_observer(move |m: &Module, run| {
        if run.name == "ssa-construct" {
            let c = m.collection_census();
            run.annotations
                .push(("ssa_variables".into(), c.ssa_variables.to_string()));
            run.annotations
                .push(("allocations".into(), c.allocations.to_string()));
            *cell.borrow_mut() = Some(c);
        }
    }));
    let run = pm.run(m, spec)?;
    let ssa_census = ssa_census.borrow().unwrap_or_default();
    Ok(PipelineReport {
        pass_times: run.pass_times(),
        total: run.total,
        destruct_copies: run
            .last_run("ssa-destruct")
            .and_then(|r| r.stat("copies_inserted"))
            .unwrap_or(0) as usize,
        ssa_census,
        final_census: m.collection_census(),
        run,
    })
}

/// Runs the pipeline in place. The module must be in mut form (the MUT
/// library frontend output); it is returned in mut form, optimized.
///
/// This is a thin wrapper: it builds [`default_spec`]`(level)` and runs
/// it through [`compile_spec`], mapping an SSA-construction failure back
/// to [`ConstructError`]. Any other pipeline failure (unknown pass,
/// inter-pass verification) indicates a bug in the default spec or a
/// pass and panics.
pub fn compile(m: &mut Module, level: OptLevel) -> Result<PipelineReport, ConstructError> {
    match compile_spec(m, &default_spec(level)) {
        Ok(report) => Ok(report),
        Err(RunError::PassFailed { pass, error }) => {
            let passman::PassError { message, payload } = error;
            match payload.and_then(|p| p.downcast::<ConstructError>().ok()) {
                Some(e) => Err(*e),
                None => panic!("pass `{pass}` failed: {message}"),
            }
        }
        Err(e) => panic!("default pipeline failed: {e}"),
    }
}

/// The legacy hard-coded pass sequence, kept verbatim as a reference
/// for differential testing of the spec-driven pipeline.
#[doc(hidden)]
pub fn compile_fixed_reference(
    m: &mut Module,
    level: OptLevel,
) -> Result<PipelineReport, ConstructError> {
    let mut report = PipelineReport::default();
    let start = Instant::now();
    let time = |name: &str, report: &mut PipelineReport, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        report.pass_times.push((name.to_string(), t0.elapsed()));
    };

    // SSA construction.
    let mut construct_err = None;
    time("ssa-construct", &mut report, &mut || {
        if let Err(e) = construct_ssa(m) {
            construct_err = Some(e);
        }
    });
    if let Some(e) = construct_err {
        return Err(e);
    }
    report.ssa_census = m.collection_census();

    if let OptLevel::O3(cfg) = level {
        time("constprop", &mut report, &mut || {
            constprop(m);
        });
        if cfg.dee {
            time("dee", &mut report, &mut || {
                dee::dee_strict(m);
                dee::dee_specialize_calls(m);
            });
            // The paper's DEE cleanup: fold the guards, simplify the
            // regions, sink computation into them, drop dead code.
            time("dee-cleanup", &mut report, &mut || {
                constprop(m);
                simplify(m);
                sink::sink(m);
                dce(m);
            });
        }
        time("sink", &mut report, &mut || {
            sink::sink(m);
        });
        time("dce", &mut report, &mut || {
            dce(m);
        });
    }

    // SSA destruction.
    let mut destruct_copies = 0;
    time("ssa-destruct", &mut report, &mut || {
        let stats = destruct_ssa(m);
        destruct_copies = stats.copies_inserted;
    });
    report.destruct_copies = destruct_copies;

    // Layout optimizations on the destructed form.
    if let OptLevel::O3(cfg) = level {
        if cfg.fe {
            time("field-elision", &mut report, &mut || {
                let _ = field_elision::auto_field_elision(m, FE_AFFINITY_THRESHOLD);
            });
        }
        if cfg.rie {
            time("rie", &mut report, &mut || {
                rie::rie(m);
            });
        }
        if cfg.key_fold {
            time("key-fold", &mut report, &mut || {
                key_fold::key_fold(m);
            });
        }
        if cfg.dfe {
            time("dfe", &mut report, &mut || {
                dfe::dfe(m);
            });
        }
    }

    report.final_census = m.collection_census();
    report.total = start.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_interp::{Interp, Value};
    use memoir_ir::{CmpOp, Form, ModuleBuilder, Type};

    /// A program with enough structure to exercise the whole pipeline:
    /// builds a sequence, fills it, reads a prefix.
    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let idxt = b.ty(Type::Index);
            let count = b.param("count", idxt);
            let zero_i = b.index(0);
            let s = b.new_seq(i64t, zero_i);
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let one = b.index(1);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(idxt);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero_i);
            let done = b.cmp(CmpOp::Ge, i, count);
            b.branch(done, exit, body);
            b.switch_to(body);
            let iv = b.cast(Type::I64, i);
            let sz = b.size(s);
            b.mut_insert(s, sz, Some(iv));
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.jump(header);
            b.switch_to(exit);
            let szf = b.size(s);
            let has_any = b.cmp(CmpOp::Gt, szf, zero_i);
            let some = b.block("some");
            let none = b.block("none");
            let out = b.block("out");
            b.branch(has_any, some, none);
            b.switch_to(some);
            let first = b.read(s, zero_i);
            b.jump(out);
            b.switch_to(none);
            let z = b.i64(0);
            b.jump(out);
            b.switch_to(out);
            let r = b.phi(i64t, vec![(some, first), (none, z)]);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        m.entry = m.func_by_name("main");
        m
    }

    fn run(m: &Module, count: i64) -> Vec<Value> {
        let mut i = Interp::new(m);
        i.run_by_name("main", vec![Value::Int(Type::Index, count)])
            .unwrap()
    }

    #[test]
    fn o0_round_trips_without_copies() {
        let m0 = sample();
        let mut m = m0.clone();
        let report = compile(&mut m, OptLevel::O0).unwrap();
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(report.destruct_copies, 0);
        assert!(report.ssa_census.ssa_variables > report.final_census.ssa_variables);
        for c in [0, 1, 7] {
            assert_eq!(run(&m0, c), run(&m, c), "count={c}");
        }
    }

    #[test]
    fn o3_all_preserves_semantics() {
        let m0 = sample();
        let mut m = m0.clone();
        let report = compile(&mut m, OptLevel::O3(OptConfig::all())).unwrap();
        memoir_ir::verifier::assert_valid(&m);
        assert!(report.pass_times.iter().any(|(n, _)| n == "dee"));
        for c in [0, 1, 7, 20] {
            assert_eq!(run(&m0, c), run(&m, c), "count={c}");
        }
    }

    /// The §VII-C interplay: field elision introduces an assoc keyed by
    /// object references read from a list; RIE then retypes it into a
    /// sequence indexed by list position (removing key storage); DFE
    /// removes a never-read field. All composed by the O3 pipeline.
    #[test]
    fn fe_then_rie_then_dfe_compose() {
        let mut mb = ModuleBuilder::new("arcs");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "arc",
                vec![
                    memoir_ir::Field {
                        name: "cost".into(),
                        ty: i64t,
                    },
                    memoir_ir::Field {
                        name: "ident".into(),
                        ty: i64t,
                    },
                    memoir_ir::Field {
                        name: "scratch".into(),
                        ty: i64t,
                    },
                ],
            )
            .unwrap();
        let ref_ty = mb.module.types.ref_of(obj);
        mb.func("main", Form::Mut, |b| {
            let idxt = b.ty(Type::Index);
            let n = b.param("n", idxt);
            let specials = b.new_seq(ref_ty, n);
            // Phase 1: allocate arcs; hot `cost` access keeps its
            // affinity high, `ident` is touched only in phase 2/3 blocks.
            let h1 = b.block("h1");
            let b1 = b.block("b1");
            let p2 = b.block("p2");
            let zero = b.index(0);
            let one = b.index(1);
            let entry = b.func.entry;
            b.jump(h1);
            b.switch_to(h1);
            let i = b.phi_placeholder(idxt);
            b.add_phi_incoming(i, entry, zero);
            let d1 = b.cmp(CmpOp::Ge, i, n);
            b.branch(d1, p2, b1);
            b.switch_to(b1);
            let o = b.new_obj(obj);
            let iv = b.cast(Type::I64, i);
            b.field_write(o, obj, 0, iv);
            let junk = b.i64(-1);
            b.field_write(o, obj, 2, junk);
            let c0 = b.field_read(o, obj, 0);
            b.field_write(o, obj, 0, c0);
            let c1 = b.field_read(o, obj, 0);
            b.field_write(o, obj, 0, c1);
            let c2r = b.field_read(o, obj, 0);
            b.field_write(o, obj, 0, c2r);
            b.mut_write(specials, i, o);
            let i2 = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, i2);
            b.jump(h1);

            // Phase 2: write idents through the list.
            b.switch_to(p2);
            let h2 = b.block("h2");
            let b2 = b.block("b2");
            let p3 = b.block("p3");
            b.jump(h2);
            b.switch_to(h2);
            let j = b.phi_placeholder(idxt);
            b.add_phi_incoming(j, p2, zero);
            let d2 = b.cmp(CmpOp::Ge, j, n);
            b.branch(d2, p3, b2);
            b.switch_to(b2);
            let oj = b.read(specials, j);
            let jv = b.cast(Type::I64, j);
            b.field_write(oj, obj, 1, jv);
            let j2 = b.add(j, one);
            let bb2 = b.current_block();
            b.add_phi_incoming(j, bb2, j2);
            b.jump(h2);

            // Phase 3: fold idents back through the list.
            b.switch_to(p3);
            let h3 = b.block("h3");
            let b3 = b.block("b3");
            let e3 = b.block("e3");
            let zero64 = b.i64(0);
            b.jump(h3);
            b.switch_to(h3);
            let k = b.phi_placeholder(idxt);
            let acc = b.phi_placeholder(i64t);
            b.add_phi_incoming(k, p3, zero);
            b.add_phi_incoming(acc, p3, zero64);
            let d3 = b.cmp(CmpOp::Ge, k, n);
            b.branch(d3, e3, b3);
            b.switch_to(b3);
            let ok = b.read(specials, k);
            let idv = b.field_read(ok, obj, 1);
            let acc2 = b.add(acc, idv);
            let k2 = b.add(k, one);
            let bb3 = b.current_block();
            b.add_phi_incoming(k, bb3, k2);
            b.add_phi_incoming(acc, bb3, acc2);
            b.jump(h3);
            b.switch_to(e3);
            b.returns(&[i64t]);
            b.ret(vec![acc]);
        });
        let mut m = mb.finish();
        m.entry = m.func_by_name("main");
        memoir_ir::verifier::assert_valid(&m);

        let run = |m: &Module, n: i64| {
            let mut vm = Interp::new(m).with_fuel(50_000_000);
            vm.run_by_name("main", vec![Value::Int(Type::Index, n)])
                .unwrap()[0]
                .as_int()
                .unwrap()
        };
        let baseline = run(&m, 20);
        let before_size = m.types.object_layout(obj).size;

        // The individual layout passes, composed as the pipeline runs
        // them: FE (affinity picks `ident`), then RIE, then DFE.
        let fe = crate::field_elision::auto_field_elision(&mut m, FE_AFFINITY_THRESHOLD).unwrap();
        assert!(
            fe.fields_elided.iter().any(|(_, f)| f == "ident"),
            "affinity must pick the cold field: {fe:?}"
        );
        let rie = crate::rie::rie(&mut m);
        assert_eq!(
            rie.assocs_retyped, 1,
            "RIE retypes the elided assoc: {rie:?}"
        );
        let dfe_stats = crate::dfe::dfe(&mut m);
        assert!(
            dfe_stats
                .fields_eliminated
                .iter()
                .any(|(_, f)| f == "scratch"),
            "{dfe_stats:?}"
        );
        memoir_ir::verifier::assert_valid(&m);

        assert!(m.types.object_layout(obj).size < before_size);
        assert_eq!(
            run(&m, 20),
            baseline,
            "composed layout passes preserve semantics"
        );
        // No associative ops remain at runtime (RIE converted to a seq).
        let mut vm = Interp::new(&m).with_fuel(50_000_000);
        vm.run_by_name("main", vec![Value::Int(Type::Index, 20)])
            .unwrap();
        assert_eq!(vm.stats.assoc_ops, 0, "hashtable fully eliminated");
    }

    /// `f(x) = x + n` as a mut-form module, for the verify-sym tests.
    fn add_const(n: i64) -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let x = b.param("x", i64t);
            let c = b.i64(n);
            let r = b.add(x, c);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        m.entry = m.func_by_name("f");
        m
    }

    #[test]
    fn verify_sym_spec_option_catches_a_miscompile() {
        // A deliberately wrong "pass": replaces f(x)=x+1 with f(x)=x+2.
        let mut r = crate::passes::registry();
        r.register("clobber", || {
            Box::new(passman::FnPass::infallible(
                "clobber",
                |m: &mut Module, _| {
                    *m = add_const(2);
                    passman::PassOutcome::from_stats(vec![("clobbered", 1)])
                },
            ))
        });
        let pm = PassManager::new(r).with_sym_verifier(|m: &Module| m.clone(), prove_pass_equiv);
        let mut m = add_const(1);
        let spec = PipelineSpec::parse("clobber<verify-sym>").unwrap();
        let err = pm.run(&mut m, &spec).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("verify-sym"), "{msg}");
        assert!(msg.contains("diverges"), "{msg}");
    }

    #[test]
    fn verify_sym_accepts_the_real_pipeline() {
        // Scalar function: the oracle proves each verify-sym'd pass
        // outright. The spec string is what a CI tier-1 step runs.
        let mut m = add_const(3);
        let spec = PipelineSpec::parse(
            "ssa-construct,constprop<verify-sym>,fixpoint(simplify<verify-sym>,sink,dce<verify-sym>),ssa-destruct",
        )
        .unwrap();
        compile_spec(&mut m, &spec).unwrap();
        let mut vm = Interp::new(&m);
        let out = vm.run_by_name("f", vec![Value::Int(Type::I64, 4)]).unwrap();
        assert_eq!(out[0].as_int(), Some(7));

        // Collection-bearing module: proofs go inconclusive (symbolic
        // loop bounds exceed the path budget) and must NOT fail the run.
        let mut m = sample();
        let spec = PipelineSpec::parse(
            "ssa-construct,constprop<verify-sym=8>,fusion<verify-sym=8>,sink,dce,ssa-destruct",
        )
        .unwrap();
        compile_spec(&mut m, &spec).unwrap();
        assert_eq!(run(&m, 5), run(&sample(), 5));
    }

    #[test]
    fn o3_timing_exceeds_o0() {
        let m0 = sample();
        let mut a = m0.clone();
        let r0 = compile(&mut a, OptLevel::O0).unwrap();
        let mut b = m0.clone();
        let r3 = compile(&mut b, OptLevel::O3(OptConfig::all())).unwrap();
        assert!(r3.pass_times.len() > r0.pass_times.len());
    }
}
