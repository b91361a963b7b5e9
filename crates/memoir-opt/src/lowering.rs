//! Lowering as a first-class pipeline stage (paper §VI, driven by the
//! unified pass manager).
//!
//! A pipeline spec may contain the pseudo-pass `lower`: everything before
//! it is a MEMOIR pipeline, everything after it is a low-level IR (`lir`)
//! pipeline, and the `lower` step itself runs `memoir-lower` through a
//! [`passman::LowerStage`] — under the same fault policy, budgets, fault
//! injection, and [`RunReport`] profiling as ordinary passes, with its
//! output checked by `lir::verifier` *and* a cross-IR translation
//! validation oracle ([`memoir_lower::validate::cross_validate`]:
//! interpreter agreement between `memoir-interp` and `LirMachine` on
//! generated probes).
//!
//! ```text
//! ssa-construct,…,ssa-destruct , lower<max-ms=50> , mem2reg,constfold,dce
//! \────────── MEMOIR ─────────/  \── LowerStage ─/  \────── lir ───────/
//! ```
//!
//! The three phases share one merged [`RunReport`], so `--report` shows
//! lowering (and the lir passes) in the same table as the MEMOIR passes.
//! If the stage or a lir pass degrades under a recovering fault policy,
//! the MEMOIR module (already optimized) is the pipeline's final result
//! and [`LoweredOutcome::lowered`] is `None` / partially optimized.

use crate::pipeline::{compile_spec_with, PipelineReport};
use memoir_ir::Module;
use memoir_lower::{cross_validate, lower_module_opts, placement_report, LowerOptions};
use memoir_lower::{LowerStats, PlacementReport, DEFAULT_PROBES};
use passman::{
    Budgets, FaultPlan, FaultPolicy, LowerStage, PassManager, PassOptions, PipelineSpec, RunError,
    RunReport, SpecStep, StageOutcome,
};

/// The spec name of the lowering stage.
pub const LOWER_STAGE: &str = "lower";

/// A full pipeline spec split at its `lower` step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoweredPipeline {
    /// The MEMOIR phase (steps before `lower`).
    pub memoir: PipelineSpec,
    /// Options on the `lower` call itself (`max-ms`, `no-cross-check`).
    pub lower_opts: PassOptions,
    /// The low-level IR phase (steps after `lower`; may be empty).
    pub lir: PipelineSpec,
}

/// Splits a spec containing a `lower` step into its phases.
///
/// Returns `Ok(None)` when the spec has no `lower` step (it is a plain
/// MEMOIR pipeline). Errors when `lower` appears more than once or
/// inside `fixpoint(...)` — lowering is not iterable or repeatable.
pub fn split_lowered_spec(spec: &PipelineSpec) -> Result<Option<LoweredPipeline>, String> {
    for step in &spec.steps {
        if let SpecStep::Fixpoint { body, .. } = step {
            if body.iter().any(|call| call.name == LOWER_STAGE) {
                return Err("`lower` cannot appear inside fixpoint(...)".into());
            }
        }
    }
    let mut split = None;
    for (i, step) in spec.steps.iter().enumerate() {
        if let SpecStep::Pass(call) = step {
            if call.name == LOWER_STAGE {
                if split.is_some() {
                    return Err("`lower` may appear at most once in a pipeline".into());
                }
                split = Some((i, call.opts.clone()));
            }
        }
    }
    let Some((at, lower_opts)) = split else {
        return Ok(None);
    };
    let unknown = lower_opts.unknown_keys(&["max-ms", "no-cross-check", "adaptive"]);
    if !unknown.is_empty() {
        return Err(format!("unknown `lower` option(s): {}", unknown.join(", ")));
    }
    Ok(Some(LoweredPipeline {
        memoir: PipelineSpec::new(spec.steps[..at].to_vec()),
        lower_opts,
        lir: PipelineSpec::new(spec.steps[at + 1..].to_vec()),
    }))
}

/// Configuration shared by all three phases of a lowered pipeline.
#[derive(Clone, Debug)]
pub struct LowerConfig {
    /// Fault policy (applied to MEMOIR passes, the stage, and lir passes).
    pub policy: FaultPolicy,
    /// Budgets (the stage honors `pass-ms`; growth budgets do not apply
    /// across IRs).
    pub budgets: Budgets,
    /// Between-pass verification override (`None` = build-type default).
    pub verify: Option<bool>,
    /// Deterministic fault injection (`panic@lower`, `verify@lower`, …).
    pub inject: Option<FaultPlan>,
    /// Worker threads for the sharded executors.
    pub threads: usize,
    /// Whether the stage runs the cross-IR interpreter-agreement check
    /// (`lir::verifier` always runs).
    pub cross_check: bool,
    /// Cross-job compile cache shared by all three phases: fingerprint-
    /// keyed per-function pass outputs (MEMOIR and lir) and lowered
    /// function bodies. `None` = no caching (every run is cold).
    pub cache: Option<passman::CompileCache>,
    /// Adaptive representation selection in the lowering stage (dense
    /// direct-indexed assocs, attributed inline sequences — DESIGN §16).
    /// Also enabled per-spec with `lower<adaptive>`.
    pub adaptive: bool,
}

impl Default for LowerConfig {
    fn default() -> Self {
        LowerConfig {
            policy: FaultPolicy::Abort,
            budgets: Budgets::default(),
            verify: None,
            inject: None,
            threads: passman::threads_from_env(),
            cross_check: true,
            cache: None,
            adaptive: false,
        }
    }
}

impl LowerConfig {
    /// Configures a pass manager (of either IR) with this config's fault
    /// policy, budgets, threads, verification override, fault injection
    /// and compile cache: the MEMOIR and lir phases of
    /// [`compile_lowered_with`], and a MEMOIR-only run
    /// (`compile_spec_with(m, spec, |pm| cfg.apply(pm))`).
    pub fn apply<M: passman::IrUnit>(&self, mut pm: PassManager<M>) -> PassManager<M> {
        pm = pm
            .on_fault(self.policy)
            .with_budgets(self.budgets)
            .with_threads(self.threads);
        if let Some(v) = self.verify {
            pm = pm.verify_between_passes(v);
        }
        if let Some(plan) = &self.inject {
            pm = pm.with_fault_injection(plan.clone());
        }
        if let Some(cache) = &self.cache {
            pm = pm.with_compile_cache(cache.clone());
        }
        pm
    }
}

/// The result of a lowered pipeline run.
#[derive(Debug)]
pub struct LoweredOutcome {
    /// The MEMOIR phase report, with the lowering stage and the lir
    /// passes merged into `report.run` (and `pass_times`/`total`).
    pub report: PipelineReport,
    /// The lowered (and lir-optimized) module, `None` when the stage
    /// degraded or the MEMOIR phase stopped early.
    pub lowered: Option<lir::Module>,
    /// Lowering statistics, when the stage ran.
    pub lower_stats: Option<LowerStats>,
    /// Heap/stack placement decisions, when the stage ran.
    pub placement: Option<PlacementReport>,
}

/// Runs a full `MEMOIR → lower → lir` pipeline over `m`.
///
/// `m` ends as the post-MEMOIR-phase module: the lowering stage only
/// reads it, so a contained stage fault leaves it exactly as the MEMOIR
/// phase did.
pub fn compile_lowered_with(
    m: &mut Module,
    pipeline: &LoweredPipeline,
    cfg: &LowerConfig,
) -> Result<LoweredOutcome, RunError> {
    // --- phase 1: MEMOIR ------------------------------------------------
    let report = compile_spec_with(m, &pipeline.memoir, |pm| cfg.apply(pm))?;
    let mut out = LoweredOutcome {
        report,
        lowered: None,
        lower_stats: None,
        placement: None,
    };
    if out.report.run.stopped_early {
        return Ok(out);
    }

    // --- phase 2: the lowering stage ------------------------------------
    let max_ms = pipeline
        .lower_opts
        .get_parsed::<u64>("max-ms")
        .map_err(|message| RunError::InvalidOptions {
            pass: LOWER_STAGE.to_string(),
            message,
        })?;
    let mut stage_budgets = cfg.budgets;
    if max_ms.is_some() {
        stage_budgets.max_pass_millis = max_ms;
    }
    let mut stage = LowerStage::<Module, lir::Module>::new()
        .on_fault(cfg.policy)
        .with_budgets(stage_budgets)
        .with_output_verifier(|lm: &lir::Module| {
            let errs = lir::verifier::verify_module(lm);
            if errs.is_empty() {
                Ok(())
            } else {
                Err(errs.join("; "))
            }
        });
    if let Some(v) = cfg.verify {
        stage = stage.verify_output(v);
    }
    if cfg.cross_check && !pipeline.lower_opts.flag("no-cross-check") {
        stage = stage.with_cross_check(|a: &Module, b: &lir::Module| {
            cross_validate(a, b, DEFAULT_PROBES)
                .map(|_| ())
                .map_err(|e| e.to_string())
        });
    }
    if let Some(plan) = &cfg.inject {
        stage = stage.with_fault_injection(plan.clone());
    }

    let invocation = out.report.run.passes.len();
    let mut captured: Option<(LowerStats, PlacementReport, passman::CompileCacheStats)> = None;
    let captured_ref = &mut captured;
    let lower_opts = LowerOptions {
        threads: cfg.threads,
        cache: cfg.cache.clone(),
        adaptive: cfg.adaptive || pipeline.lower_opts.flag("adaptive"),
    };
    let stage_result = stage.run(m, &mut out.report.run, invocation, |mm: &Module| {
        let run = lower_module_opts(mm, &lower_opts).map_err(|e| e.to_string())?;
        let (lm, stats) = (run.module, run.stats);
        let placement = placement_report(mm);
        let mut flat = vec![
            ("stack_seqs", stats.stack_seqs as i64),
            ("heap_seqs", stats.heap_seqs as i64),
            ("stack_sites", placement.stack_sites as i64),
            ("heap_sites", placement.heap_sites as i64),
            ("lir_insts", lm.inst_count() as i64),
        ];
        if lower_opts.adaptive {
            flat.push(("dense_assocs", stats.dense_assocs as i64));
            flat.push(("inline_seqs", stats.inline_seqs as i64));
        }
        if run.cache.lookups() > 0 {
            flat.push(("cache_hits", run.cache.hits as i64));
            flat.push(("cache_misses", run.cache.misses as i64));
        }
        *captured_ref = Some((stats, placement, run.cache));
        Ok((lm, flat))
    })?;
    let stage_run_time = out
        .report
        .run
        .passes
        .last()
        .map(|p| p.time)
        .unwrap_or_default();
    out.report.run.total += stage_run_time;
    out.report.total = out.report.run.total;
    out.report.pass_times = out.report.run.pass_times();
    let mut lm = match stage_result {
        StageOutcome::Lowered(lm) => lm,
        StageOutcome::Degraded { .. } => return Ok(out),
    };
    if let Some((stats, placement, cache)) = captured {
        out.lower_stats = Some(stats);
        out.placement = Some(placement);
        out.report.run.compile_cache.merge(cache);
    }

    // --- phase 3: lir ----------------------------------------------------
    if !pipeline.lir.steps.is_empty() {
        let lir_run = cfg
            .apply(lir::passes::pass_manager())
            .run(&mut lm, &pipeline.lir)?;
        merge_run(&mut out.report.run, lir_run, invocation + 1);
        out.report.total = out.report.run.total;
        out.report.pass_times = out.report.run.pass_times();
    }
    out.lowered = Some(lm);
    Ok(out)
}

/// Folds a later phase's [`RunReport`] into the merged report, offsetting
/// degradation invocation indices so the combined sequence stays ordered.
fn merge_run(into: &mut RunReport, from: RunReport, invocation_offset: usize) {
    into.passes.extend(from.passes);
    into.total += from.total;
    for (name, c) in from.cache {
        match into.cache.iter_mut().find(|(n, _)| *n == name) {
            Some((_, existing)) => {
                existing.hits += c.hits;
                existing.misses += c.misses;
                existing.max_computes_between_invalidations = existing
                    .max_computes_between_invalidations
                    .max(c.max_computes_between_invalidations);
            }
            None => into.cache.push((name, c)),
        }
    }
    into.invalidation_events += from.invalidation_events;
    for mut d in from.degradations {
        d.invocation += invocation_offset;
        into.degradations.push(d);
    }
    into.compile_cache.merge(from.compile_cache);
    into.fingerprints.merge(from.fingerprints);
    into.stopped_early |= from.stopped_early;
    into.threads = into.threads.max(from.threads);
    let s = from.snapshots;
    into.snapshots.captures += s.captures;
    into.snapshots.full_clones += s.full_clones;
    into.snapshots.funcs_cloned += s.funcs_cloned;
    into.snapshots.funcs_reused += s.funcs_reused;
    into.snapshots.units_cloned += s.units_cloned;
    into.snapshots.restores += s.restores;
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{BinOp, Form, ModuleBuilder, Type};

    fn sample() -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let idxt = b.ty(Type::Index);
            let four = b.index(4);
            let s = b.new_seq(i64t, four);
            let zero = b.index(0);
            let x = b.i64(21);
            let two = b.i64(2);
            let y = b.bin(BinOp::Mul, x, two);
            b.mut_write(s, zero, y);
            let r = b.read(s, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
            let _ = idxt;
        });
        let mut m = mb.finish();
        m.entry = m.func_by_name("main");
        m
    }

    fn full_spec(extra: &str) -> PipelineSpec {
        PipelineSpec::parse(&format!(
            "ssa-construct,constprop,dce,ssa-destruct,lower{extra}"
        ))
        .unwrap()
    }

    #[test]
    fn split_finds_the_stage_and_phases() {
        let spec = PipelineSpec::parse("ssa-construct,ssa-destruct,lower,mem2reg,dce").unwrap();
        let lp = split_lowered_spec(&spec).unwrap().unwrap();
        assert_eq!(
            lp.memoir.pass_names(),
            vec!["ssa-construct", "ssa-destruct"]
        );
        assert_eq!(lp.lir.pass_names(), vec!["mem2reg", "dce"]);
    }

    #[test]
    fn split_passes_through_plain_specs() {
        let spec = PipelineSpec::parse("ssa-construct,ssa-destruct").unwrap();
        assert!(split_lowered_spec(&spec).unwrap().is_none());
    }

    #[test]
    fn split_rejects_duplicate_and_fixpoint_lower() {
        let dup = PipelineSpec::parse("lower,mem2reg,lower").unwrap();
        assert!(split_lowered_spec(&dup)
            .unwrap_err()
            .contains("at most once"));
        let fix = PipelineSpec::parse("fixpoint(lower,dce)").unwrap();
        assert!(split_lowered_spec(&fix).unwrap_err().contains("fixpoint"));
    }

    #[test]
    fn split_rejects_unknown_lower_options() {
        let spec = PipelineSpec::parse("ssa-construct,lower<speed=11>").unwrap();
        assert!(split_lowered_spec(&spec)
            .unwrap_err()
            .contains("unknown `lower` option"));
    }

    #[test]
    fn lowered_pipeline_runs_end_to_end() {
        let mut m = sample();
        let spec = PipelineSpec::parse(
            "ssa-construct,constprop,dce,ssa-destruct,lower,mem2reg,constfold,dce",
        )
        .unwrap();
        let lp = split_lowered_spec(&spec).unwrap().unwrap();
        let out = compile_lowered_with(&mut m, &lp, &LowerConfig::default()).unwrap();
        let lm = out.lowered.expect("pipeline completes");
        lir::verifier::assert_valid(&lm);
        let r = lir::LirMachine::new(&lm)
            .run_by_name("main", vec![])
            .unwrap();
        assert_eq!(r, vec![42]);
        // One merged report: memoir passes + the stage + lir passes.
        let names = out
            .report
            .run
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>();
        assert!(names.contains(&"ssa-construct"));
        assert!(names.contains(&"lower"));
        assert!(names.contains(&"mem2reg"));
        assert!(out.lower_stats.is_some());
        assert!(out.placement.is_some());
        let lower_run = out.report.run.last_run("lower").unwrap();
        assert!(lower_run.stat("lir_insts").unwrap() > 0);
    }

    #[test]
    fn degraded_stage_keeps_the_memoir_module() {
        let mut m = sample();
        let lp = split_lowered_spec(&full_spec("")).unwrap().unwrap();
        let cfg = LowerConfig {
            policy: FaultPolicy::SkipPass,
            inject: Some("panic@lower".parse().unwrap()),
            ..LowerConfig::default()
        };
        let before = memoir_ir::printer::print_module(&{
            let mut c = m.clone();
            let plain = split_lowered_spec(&full_spec("")).unwrap().unwrap();
            compile_lowered_with(&mut c, &plain, &LowerConfig::default()).unwrap();
            c
        });
        let out = compile_lowered_with(&mut m, &lp, &cfg).unwrap();
        assert!(out.lowered.is_none());
        assert!(out.report.run.is_degraded());
        assert!(out.report.run.stopped_early);
        assert_eq!(
            memoir_ir::printer::print_module(&m),
            before,
            "stage fault leaves the optimized MEMOIR module intact"
        );
    }

    #[test]
    fn abort_policy_surfaces_injected_verify_failure() {
        let mut m = sample();
        let lp = split_lowered_spec(&full_spec("")).unwrap().unwrap();
        let cfg = LowerConfig {
            inject: Some("verify@lower".parse().unwrap()),
            ..LowerConfig::default()
        };
        let err = compile_lowered_with(&mut m, &lp, &cfg).unwrap_err();
        assert!(matches!(err, RunError::VerifyFailed { ref pass, .. } if pass == "lower"));
    }

    #[test]
    fn stage_stat_lir_insts_matches_direct_lowering() {
        let mut m = sample();
        let lp = split_lowered_spec(&full_spec("")).unwrap().unwrap();
        let out = compile_lowered_with(&mut m, &lp, &LowerConfig::default()).unwrap();
        let direct = memoir_lower::lower_module(&m).unwrap();
        assert_eq!(
            out.lowered.unwrap().inst_count(),
            direct.inst_count(),
            "stage output is the same module lower_module produces"
        );
    }
}
