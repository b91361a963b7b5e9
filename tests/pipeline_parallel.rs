//! Parallel-execution integration tests: the sharded function-pass
//! executor must be a pure performance feature — for any generated
//! multi-function module and any worker count, the optimized IR and the
//! per-pass stat report are byte-identical to the serial run; and a
//! fault injected into one function of a sharded pass rolls back exactly
//! that function, leaving the rest of the shard's work in place.

use memoir::ir::printer::{print_function, print_module};
use memoir::ir::Module;
use memoir::opt::{compile_spec_with, default_spec, OptConfig, OptLevel};
use memoir::passman::{
    FaultCause, FaultPlan, FaultPolicy, InjectKind, PipelineSpec, RecoveryAction, RunReport,
};
use memoir::reduce::genprog::{build_multi, random_ops, Op};
use memoir::reduce::rng::SplitMix64;
use proptest::prelude::*;

/// Optimizes a fresh copy of the module with an explicit worker count;
/// returns the printed IR and the run report.
fn run_with_threads(m: &Module, spec: &PipelineSpec, threads: usize) -> (String, RunReport) {
    let mut m = m.clone();
    let report = compile_spec_with(&mut m, spec, |pm| {
        pm.with_threads(threads).verify_between_passes(true)
    })
    .expect("pipeline runs clean");
    (print_module(&m), report.run)
}

/// The determinism fingerprint of a run: per pass, its name, changed bit
/// and full stat list, in execution order.
type Fingerprint = Vec<(String, bool, Vec<(&'static str, i64)>)>;

fn fingerprint(r: &RunReport) -> Fingerprint {
    r.passes
        .iter()
        .map(|p| (p.name.clone(), p.changed, p.stats.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Serial and sharded runs of the full O3 pipeline produce identical
    /// printed IR and identical pass-stat reports on generated
    /// multi-function modules.
    #[test]
    fn parallel_o3_is_bit_identical_to_serial(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let n_funcs = 3 + rng.index(4);
        let progs: Vec<Vec<Op>> =
            (0..n_funcs).map(|_| random_ops(&mut rng, 20, false)).collect();
        let (m, _) = build_multi(&progs);
        let spec = default_spec(OptLevel::O3(OptConfig::all()));

        let (serial_ir, serial_report) = run_with_threads(&m, &spec, 1);
        for threads in [2usize, 4, 8] {
            let (ir, report) = run_with_threads(&m, &spec, threads);
            prop_assert_eq!(&ir, &serial_ir, "IR diverged at threads={}", threads);
            prop_assert_eq!(
                fingerprint(&report),
                fingerprint(&serial_report),
                "stats diverged at threads={}",
                threads
            );
        }
    }

    /// The same holds under a recovering policy (copy-on-write snapshots
    /// active) with no fault firing: snapshots must be invisible.
    #[test]
    fn parallel_with_cow_snapshots_is_bit_identical(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let progs: Vec<Vec<Op>> = (0..4).map(|_| random_ops(&mut rng, 16, false)).collect();
        let (m, _) = build_multi(&progs);
        let spec = default_spec(OptLevel::O3(OptConfig::all()));

        let run = |threads: usize| {
            let mut m = m.clone();
            let report = compile_spec_with(&mut m, &spec, |pm| {
                pm.on_fault(FaultPolicy::SkipPass).with_threads(threads)
            })
            .expect("SkipPass never aborts");
            (print_module(&m), report.run)
        };
        let (serial_ir, serial_report) = run(1);
        prop_assert!(!serial_report.is_degraded());
        for threads in [2usize, 4] {
            let (ir, report) = run(threads);
            prop_assert_eq!(&ir, &serial_ir, "IR diverged at threads={}", threads);
            prop_assert_eq!(
                fingerprint(&report),
                fingerprint(&serial_report),
                "stats diverged at threads={}",
                threads
            );
        }
    }
}

/// Splits a module into its functions' printed forms, in stable order.
fn printed_funcs(m: &Module) -> Vec<String> {
    m.funcs
        .iter()
        .map(|(_, f)| print_function(f, &m.types, m))
        .collect()
}

/// A panic injected into one function of the sharded `simplify` pass,
/// under `SkipPass`, rolls back only that function: the victim keeps its
/// pre-simplify form while every other function is simplified exactly as
/// in a clean run, and the degradation names the function.
#[test]
fn shard_fault_rolls_back_only_the_faulting_function() {
    // Four functions, each with guaranteed simplify work: a same-target
    // branch (→ jump) ahead of a distinctive return constant.
    let mut mb = memoir::ir::ModuleBuilder::new("m");
    for i in 0..4i64 {
        mb.func(&format!("f{i}"), memoir::ir::Form::Ssa, |b| {
            let i64t = b.ty(memoir::ir::Type::I64);
            let next = b.block("next");
            let c = b.bool(true);
            b.branch(c, next, next);
            b.switch_to(next);
            let v = b.i64(i);
            b.returns(&[i64t]);
            b.ret(vec![v]);
        });
    }
    let m0 = mb.finish();
    let spec: PipelineSpec = "simplify".parse().unwrap();

    // Reference points: the module before simplify, and after a clean run.
    let pre_funcs = printed_funcs(&m0);
    let mut clean = m0.clone();
    let clean_report = compile_spec_with(&mut clean, &spec, |pm| pm).unwrap();
    let clean_funcs = printed_funcs(&clean);
    assert_eq!(
        clean_report
            .run
            .last_run("simplify")
            .and_then(|p| p.stat("branches_to_jumps")),
        Some(4),
        "test premise: simplify must change every function"
    );

    for victim in 0..4usize {
        let plan = FaultPlan::at_pass(InjectKind::Panic, "simplify").on_func(victim);
        let mut m = m0.clone();
        let report = compile_spec_with(&mut m, &spec, |pm| {
            pm.on_fault(FaultPolicy::SkipPass)
                .with_threads(4)
                .with_fault_injection(plan.clone())
        })
        .expect("SkipPass never aborts");

        // The degradation names the pass, the function, and the action.
        let d = report
            .run
            .degradations
            .iter()
            .find(|d| d.pass == "simplify")
            .expect("contained fault recorded");
        assert!(matches!(d.cause, FaultCause::Panic(_)), "{:?}", d.cause);
        assert_eq!(d.func_index, Some(victim));
        assert!(d.func.is_some(), "rendered function key present");
        assert_eq!(d.action, RecoveryAction::RolledBack);

        // Exactly the victim rolled back; everyone else kept their work.
        let got = printed_funcs(&m);
        for i in 0..4usize {
            if i == victim {
                assert_eq!(
                    got[i], pre_funcs[i],
                    "victim {i} must match its pre-simplify form"
                );
            } else {
                assert_eq!(
                    got[i], clean_funcs[i],
                    "func {i} must match the clean run (victim {victim})"
                );
            }
        }
    }
}
