//! Properties of the managed `lower` pipeline stage
//! (`memoir::opt::lowering`):
//!
//! 1. **Stage transparency** — running lowering as a pass-manager stage
//!    (with verification, budgets, and profiling around it) produces a
//!    low-level module *byte-identical* to calling
//!    `memoir::lower::lower_module` directly on the same post-MEMOIR
//!    module. The stage machinery must not perturb the translation.
//! 2. **Fault containment** — a fault injected into the stage under a
//!    recovering policy (`skip` / `stop`) degrades the run instead of
//!    erroring, produces no lowered module, and leaves the MEMOIR module
//!    identical to what the MEMOIR phase produced (the stage only reads
//!    its input, so there is nothing to roll back).

use memoir::ir::printer::print_module as print_memoir;
use memoir::lir::printer::print_module as print_lir;
use memoir::opt::lowering::{compile_lowered_with, LowerConfig, LoweredPipeline};
use memoir::passman::{FaultPolicy, PassOptions, PipelineSpec};
use memoir::reduce::{build, random_ops, SplitMix64};
use proptest::prelude::*;

const SPEC: &str = "ssa-construct,fixpoint<max=3>(constprop,simplify,dce),ssa-destruct";

fn pipeline(lir: &str) -> LoweredPipeline {
    LoweredPipeline {
        memoir: PipelineSpec::parse(SPEC).unwrap(),
        lower_opts: PassOptions::none(),
        lir: if lir.is_empty() {
            PipelineSpec::new(Vec::new())
        } else {
            PipelineSpec::parse(lir).unwrap()
        },
    }
}

fn quiet_config() -> LowerConfig {
    LowerConfig {
        threads: 1,
        ..LowerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: stage lowering ≡ direct lowering, byte for byte.
    #[test]
    fn stage_lowering_matches_direct_lowering(seed in 0u64..10_000) {
        let mut rng = SplitMix64::new(seed);
        let ops = random_ops(&mut rng, 24, false);
        let (m0, _expect) = build(&ops);

        let mut staged = m0.clone();
        let out = compile_lowered_with(&mut staged, &pipeline(""), &quiet_config())
            .expect("clean pipeline must not error");
        let via_stage = out.lowered.expect("clean pipeline must lower");

        // `staged` is now the post-MEMOIR-phase module; lower it directly.
        let direct = memoir::lower::lower_module(&staged)
            .unwrap_or_else(|e| panic!("direct lowering failed: {e}"));
        prop_assert_eq!(print_lir(&via_stage), print_lir(&direct));
    }

    /// Property 2: a faulting stage under a recovering policy leaves the
    /// MEMOIR module exactly as the MEMOIR phase left it.
    #[test]
    fn faulting_stage_rolls_back_the_memoir_module(
        seed in 0u64..10_000,
        stop in any::<bool>(),
        fault_verify in any::<bool>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let ops = random_ops(&mut rng, 24, false);
        let (m0, _expect) = build(&ops);

        // Reference: the clean run's post-MEMOIR module.
        let mut clean = m0.clone();
        compile_lowered_with(&mut clean, &pipeline(""), &quiet_config())
            .expect("clean pipeline must not error");

        let policy = if stop {
            FaultPolicy::StopPipeline
        } else {
            FaultPolicy::SkipPass
        };
        let plan = if fault_verify { "verify@lower" } else { "panic@lower" };
        let cfg = LowerConfig {
            policy,
            inject: Some(plan.parse().unwrap()),
            ..quiet_config()
        };
        let mut faulted = m0.clone();
        let out = compile_lowered_with(&mut faulted, &pipeline(""), &cfg)
            .expect("recovering policies contain stage faults");
        prop_assert!(out.lowered.is_none(), "a degraded stage yields no module");
        prop_assert!(out.report.run.stopped_early, "the stage is terminal");
        prop_assert_eq!(print_memoir(&faulted), print_memoir(&clean));
    }
}
