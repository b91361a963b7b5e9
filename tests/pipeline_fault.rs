//! Fault-containment integration tests: a fault injected into *any*
//! registered pass of the default O3 pipeline, run under the `SkipPass`
//! policy, must be contained — the report names the pass and the cause,
//! and the resulting module is interpreter-equivalent to running the
//! same pipeline with that pass omitted (rollback means a faulting pass
//! contributes exactly nothing).

use memoir::interp::Interp;
use memoir::ir::Module;
use memoir::opt::{compile_spec_with, default_spec, OptConfig, OptLevel};
use memoir::passman::{FaultCause, FaultPlan, FaultPolicy, InjectKind, PipelineSpec, SpecStep};
use memoir::reduce::genprog::{build, random_ops, Op};
use memoir::reduce::rng::SplitMix64;
use proptest::prelude::*;

fn program() -> Vec<Op> {
    vec![
        Op::Push(5),
        Op::Push(-3),
        Op::InsertAt(1, 7),
        Op::SwapElems(0, 2),
        Op::Write(1, 9),
        Op::Push(2),
        Op::RemoveRange(1, 3),
        Op::Push(4),
        Op::Remove(0),
    ]
}

fn run_module(m: &Module) -> i64 {
    let mut vm = Interp::new(m).with_fuel(50_000_000);
    vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap()
}

/// The spec with every call of `name` removed (fixpoint groups that
/// become empty are dropped entirely).
fn omit_pass(spec: &PipelineSpec, name: &str) -> PipelineSpec {
    let steps = spec
        .steps
        .iter()
        .filter_map(|s| match s {
            SpecStep::Pass(c) if c.name == name => None,
            SpecStep::Pass(c) => Some(SpecStep::Pass(c.clone())),
            SpecStep::Fixpoint { opts, body } => {
                let body: Vec<_> = body.iter().filter(|c| c.name != name).cloned().collect();
                if body.is_empty() {
                    None
                } else {
                    Some(SpecStep::Fixpoint {
                        opts: opts.clone(),
                        body,
                    })
                }
            }
        })
        .collect();
    PipelineSpec::new(steps)
}

/// Runs `spec` over a fresh copy of the test program under `SkipPass`,
/// with an optional injection plan; returns the interpreter result and
/// the run report.
fn run_degraded(
    ops: &[Op],
    spec: &PipelineSpec,
    inject: Option<FaultPlan>,
) -> (i64, memoir::passman::RunReport) {
    let (mut m, _expect) = build(ops);
    let report = compile_spec_with(&mut m, spec, |mut pm| {
        pm = pm
            .on_fault(FaultPolicy::SkipPass)
            .verify_between_passes(true);
        if let Some(plan) = inject {
            pm = pm.with_fault_injection(plan);
        }
        pm
    })
    .expect("SkipPass never aborts the pipeline");
    (run_module(&m), report.run)
}

#[test]
fn injected_panic_is_contained_for_every_registered_pass() {
    let spec = default_spec(OptLevel::O3(OptConfig::all()));
    let ops = program();
    let (_, expect) = build(&ops);
    let mut names: Vec<&str> = spec.pass_names();
    names.dedup();
    for name in names {
        let plan = FaultPlan::at_pass(InjectKind::Panic, name);
        let (got, report) = run_degraded(&ops, &spec, Some(plan));

        // The report names the pass and the cause.
        let d = report
            .degradation_of(name)
            .unwrap_or_else(|| panic!("no degradation recorded for `{name}`"));
        assert!(
            matches!(d.cause, FaultCause::Panic(_)),
            "`{name}`: wrong cause {:?}",
            d.cause
        );

        // Interpreter-equivalent to omitting the pass outright.
        let (omitted, omitted_report) = run_degraded(&ops, &omit_pass(&spec, name), None);
        assert_eq!(got, omitted, "`{name}`: degraded != omitted");
        assert!(
            !omitted_report.is_degraded(),
            "`{name}`: the omitted pipeline should run clean"
        );

        // And still semantically correct (a single skipped optimization
        // never changes observable behaviour).
        assert_eq!(got, expect, "`{name}`: degraded pipeline miscompiled");
    }
}

#[test]
fn injected_verifier_failure_is_contained() {
    let spec = default_spec(OptLevel::O3(OptConfig::all()));
    let ops = program();
    let (_, expect) = build(&ops);
    for name in ["dee", "ssa-construct", "dfe"] {
        let plan = FaultPlan::at_pass(InjectKind::VerifyFail, name);
        let (got, report) = run_degraded(&ops, &spec, Some(plan));
        let d = report.degradation_of(name).expect("degradation recorded");
        assert!(
            matches!(d.cause, FaultCause::VerifyFailed(_)),
            "`{name}`: wrong cause {:?}",
            d.cause
        );
        let (omitted, _) = run_degraded(&ops, &omit_pass(&spec, name), None);
        assert_eq!(got, omitted, "`{name}`: degraded != omitted");
        assert_eq!(got, expect, "`{name}`: degraded pipeline miscompiled");
    }
}

#[test]
fn stop_pipeline_leaves_a_correct_module() {
    let spec = default_spec(OptLevel::O3(OptConfig::all()));
    let ops = program();
    let (_, expect) = build(&ops);
    let (mut m, _) = build(&ops);
    let report = compile_spec_with(&mut m, &spec, |pm| {
        pm.on_fault(FaultPolicy::StopPipeline)
            .with_fault_injection(FaultPlan::at_pass(InjectKind::Panic, "dee"))
    })
    .expect("StopPipeline never aborts");
    assert!(report.run.stopped_early);
    assert!(report.run.degradation_of("dee").is_some());
    // Stopped at the last verified state — still a correct program.
    assert_eq!(run_module(&m), expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// For random programs and a random victim pass, a degraded run is
    /// observably identical to the run that never had the pass.
    #[test]
    fn degraded_run_matches_the_no_op_pass_run(seed in any::<u64>(), victim in 0usize..16) {
        let spec = default_spec(OptLevel::O3(OptConfig::all()));
        let mut names: Vec<String> =
            spec.pass_names().iter().map(|s| s.to_string()).collect();
        names.dedup();
        let name = &names[victim % names.len()];

        let mut rng = SplitMix64::new(seed);
        let ops = random_ops(&mut rng, 30, false);
        let (_, expect) = build(&ops);

        let plan = FaultPlan::at_pass(InjectKind::Panic, name);
        let (got, report) = run_degraded(&ops, &spec, Some(plan));
        prop_assert!(report.degradation_of(name).is_some());

        let (omitted, _) = run_degraded(&ops, &omit_pass(&spec, name), None);
        prop_assert_eq!(got, omitted, "pass `{}`", name);
        prop_assert_eq!(got, expect, "pass `{}`", name);
    }
}
