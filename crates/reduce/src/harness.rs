//! The fuzz oracle: run one generated case through the pipeline and
//! classify the result.
//!
//! A case is (program, pipeline spec, [`CaseConfig`]). The program
//! ([`CaseProgram`]) is `main`'s op list plus optional helper functions;
//! the config carries the per-case fault policy, budgets, optional fault
//! injection, an optional per-function probe seed, and — for
//! *through-lowering* cases — the low-level IR pipeline to run after the
//! `lower` stage. The harness builds the MUT-form module, runs the
//! pipeline with inter-pass verification forced on and panics caught,
//! then checks the result differentially:
//!
//! 1. the optimized MEMOIR module must verify and agree with the plain
//!    Rust oracle in `memoir-interp` (rollback soundness: this holds
//!    even when a pass or the lowering stage degraded);
//! 2. every non-entry function whose signature survived optimization is
//!    probed on typed argument vectors synthesized by
//!    `memoir-lower::validate` — pre-opt vs post-opt interpreter runs
//!    must agree on both return values and the final contents of
//!    collection arguments (`probe-diverge`);
//! 3. for through-lowering cases, the *direct* lowering of the optimized
//!    MEMOIR module must agree with the oracle on [`lir::LirMachine`]
//!    (isolates `memoir-lower` bugs: `lower-trap` / `lower-miscompile`),
//!    and with the MEMOIR interpreter on synthesized scalar probes
//!    (`lower-probe`);
//! 4. and the pipeline's final, lir-optimized module must verify and
//!    agree too (isolates lir pass bugs: `lir-verify` / `lir-trap` /
//!    `lir-miscompile`).
//!
//! Anything other than "completed and computed the right answer" is a
//! [`Crash`] — including a *degraded* run whose recovered module no
//! longer matches the oracle, which is exactly the rollback soundness
//! the fault-tolerance layer promises.
//!
//! [`Crash`]: Outcome::Crash

use crate::genprog::{build_case, CaseProgram, Helper, Op};
use memoir_opt::lowering::{compile_lowered_with, LowerConfig, LoweredPipeline, LOWER_STAGE};
use memoir_opt::pipeline::compile_spec_with;
use passman::{
    panic_message, Budgets, FaultPlan, FaultPolicy, PassOptions, PipelineSpec, RunError, SpecStep,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Interpreter fuel for the differential checks, on either IR.
const FUEL: u64 = 50_000_000;

/// Campaign-wide lowering cross-check tallies (oracle 3), so a fuzz run
/// can report how much of its coverage was symbolically discharged and
/// — crucially — how many functions were silently skipped.
static CC_PROVED: AtomicU64 = AtomicU64::new(0);
static CC_PROBED: AtomicU64 = AtomicU64::new(0);
static CC_SKIPPED: AtomicU64 = AtomicU64::new(0);

/// Totals of the lowering cross-check across every case this process has
/// run: functions proved probe-free by the symbolic backend, functions
/// that fell back to concrete probing, and functions skipped outright
/// (non-scalar signatures, no synthesizable probes). `memoir-fuzz`
/// prints these at the end of a campaign.
pub fn cross_check_totals() -> (u64, u64, u64) {
    (
        CC_PROVED.load(Ordering::Relaxed),
        CC_PROBED.load(Ordering::Relaxed),
        CC_SKIPPED.load(Ordering::Relaxed),
    )
}

/// Synthesized probe vectors per preserved function (see
/// [`CaseConfig::probe_seed`]).
const PROBES_PER_FUNC: u64 = 3;

/// How to configure the pass manager for a fuzz case (fixed across a
/// reduction, varied across a campaign — see
/// [`random_case_config`](crate::genprog::random_case_config)).
#[derive(Clone, Debug)]
pub struct CaseConfig {
    /// Fault policy for the run (`Abort` makes every fault a crash;
    /// `SkipPass`/`StopPipeline` exercise rollback instead).
    pub policy: FaultPolicy,
    /// Test-only fault injection plan, replayed exactly.
    pub inject: Option<FaultPlan>,
    /// Pipeline-wide budgets (violations fault under the policy above).
    pub budgets: Budgets,
    /// `Some(spec)` makes this a through-lowering case: after the MEMOIR
    /// phase the module runs through the `lower` stage and then `spec`
    /// on the low-level IR (the spec may be empty — "lower only").
    pub lir_spec: Option<PipelineSpec>,
    /// Lower through the adaptive representation selector
    /// (`memoir_analysis::choose_reprs`): collections the analysis
    /// proves bounded-integer-keyed or small-and-fixed lower to dense /
    /// inline layouts instead of the default hashed runtime. Only
    /// meaningful on through-lowering cases; the differential oracles
    /// must hold bit-for-bit regardless of the layout chosen.
    pub adaptive: bool,
    /// `Some(seed)` turns on per-function probing: every non-entry
    /// function whose signature survived the pipeline is run pre-opt and
    /// post-opt on typed argument vectors synthesized from `seed` (see
    /// `memoir_lower::validate::synth_args`), and — for through-lowering
    /// cases — the direct lowering is cross-checked on the same seeds.
    pub probe_seed: Option<u64>,
    /// Turns on the cached-vs-cold differential oracle: the case is
    /// compiled twice more through one shared
    /// [`passman::CompileCache`] — the second (warm) run must produce a
    /// byte-identical module and an equivalent report (pass names,
    /// changed flags, stats, degradations; timings and the cache's own
    /// counters excluded). A mismatch is a `cache-diverge` crash.
    pub cache_check: bool,
    /// `Some(plan)` turns on the service-envelope differential oracle:
    /// the case is compiled twice more through a one-job
    /// [`memoird`] service — once clean and once under `plan`
    /// (`slow-job@0`, `worker-panic@0`, `poison-cache@0`, …). Both runs
    /// must resolve the job to exactly one terminal outcome
    /// (`service-lost` otherwise) and, because every injected fault is
    /// recoverable by the retry ladder, produce byte-identical output
    /// (`service-diverge` otherwise). Run only on cases that already
    /// pass the plain oracles, so any failure is the envelope's fault.
    pub service_fault: Option<memoird::JobFaultPlan>,
    /// Turns on the symbolic-oracle axis: for cases that pass the plain
    /// oracles, every function of the pre-opt module is (a) checked for
    /// symbolic/concrete agreement — the bounded path enumeration's
    /// prediction on concrete arguments must match the interpreter
    /// (`sym-unsound` otherwise: a bug in the oracle itself) — and (b)
    /// proved equivalent to its post-opt namesake with
    /// `symexec::prove_memoir_equiv` (`sym-diverge` on a confirmed
    /// witness: a miscompile the probe oracles missed).
    pub sym: bool,
}

impl Default for CaseConfig {
    fn default() -> Self {
        CaseConfig {
            policy: FaultPolicy::Abort,
            inject: None,
            budgets: Budgets::none(),
            lir_spec: None,
            adaptive: false,
            probe_seed: None,
            cache_check: false,
            service_fault: None,
            sym: false,
        }
    }
}

/// The classified result of one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Pipeline completed and the optimized module matches the oracle.
    Pass,
    /// Something went wrong.
    Crash {
        /// Stable failure class — reduction holds this fixed so it
        /// shrinks toward *the same* bug. MEMOIR-side classes: `panic`,
        /// `run-error`, `verify`, `miscompile`, `interp`, and
        /// `probe-diverge` (a preserved-signature function disagrees
        /// with its pre-optimization self on synthesized arguments).
        /// Lowering-side classes: `lower-error` (the stage failed),
        /// `lower-verify` (the lir verifier or the cross-IR probe
        /// oracle rejected the stage output), `lower-trap` /
        /// `lower-miscompile` (the direct lowering disagrees with the
        /// oracle), `lower-probe` (it disagrees with the MEMOIR
        /// interpreter on synthesized scalar probes), `lir-verify` /
        /// `lir-trap` / `lir-miscompile` (the lir-optimized module
        /// does). Service-side classes (see
        /// [`CaseConfig::service_fault`]): `service-lost` (a one-job
        /// `memoird` batch did not resolve to exactly one terminal
        /// outcome) and `service-diverge` (the fault-injected service
        /// run produced different bytes than the clean one, or failed a
        /// recoverable fault outright). Symbolic-oracle classes (see
        /// [`CaseConfig::sym`]): `sym-diverge` (the bounded symbolic
        /// oracle proved pre-opt ≢ post-opt with a concretely confirmed
        /// witness) and `sym-unsound` (the oracle's own path-set
        /// prediction disagrees with the concrete interpreter — a bug in
        /// the oracle, not the pipeline). Artifact format:
        /// `docs/REPRO_FORMAT.md`.
        kind: &'static str,
        /// Human-readable one-liner.
        detail: String,
    },
}

impl Outcome {
    /// The failure class, if this is a crash.
    pub fn kind(&self) -> Option<&'static str> {
        match self {
            Outcome::Pass => None,
            Outcome::Crash { kind, .. } => Some(kind),
        }
    }
}

/// Verifies the (post-pipeline) MEMOIR module and runs it against the
/// oracle; `None` means both checks passed.
fn check_memoir(m: &memoir_ir::Module, expect: i64) -> Option<Outcome> {
    // The pipeline itself verifies between passes, but re-check the final
    // module so a corrupting *last* pass cannot slip through.
    let errs = memoir_ir::verifier::verify_module(m);
    if let Some(first) = errs.first() {
        return Some(Outcome::Crash {
            kind: "verify",
            detail: format!("verify: {first:?} (+{} more)", errs.len() - 1),
        });
    }
    let mut vm = memoir_interp::Interp::new(m).with_fuel(FUEL);
    match vm.run_by_name("main", vec![]) {
        Err(trap) => Some(Outcome::Crash {
            kind: "interp",
            detail: format!("interp: {trap:?}"),
        }),
        Ok(vals) => match vals.first().and_then(|v| v.as_int()) {
            Some(got) if got == expect => None,
            Some(got) => Some(Outcome::Crash {
                kind: "miscompile",
                detail: format!("miscompile: got {got}, oracle says {expect}"),
            }),
            None => Some(Outcome::Crash {
                kind: "miscompile",
                detail: "miscompile: no integer result".to_string(),
            }),
        },
    }
}

/// Runs a lowered module against the oracle, classifying failures with
/// the given crash-kind prefix (`lower` or `lir`).
fn check_lowered(
    lm: &lir::Module,
    expect: i64,
    trap_kind: &'static str,
    bad_kind: &'static str,
) -> Option<Outcome> {
    match lir::LirMachine::new(lm)
        .with_fuel(FUEL)
        .run_by_name("main", vec![])
    {
        Err(trap) => Some(Outcome::Crash {
            kind: trap_kind,
            detail: format!("{trap_kind}: {trap:?}"),
        }),
        Ok(vals) => match vals.first() {
            Some(&got) if got == expect => None,
            Some(&got) => Some(Outcome::Crash {
                kind: bad_kind,
                detail: format!("{bad_kind}: got {got}, oracle says {expect}"),
            }),
            None => Some(Outcome::Crash {
                kind: bad_kind,
                detail: format!("{bad_kind}: no result"),
            }),
        },
    }
}

/// Canonical signature text of a function (probing only compares
/// functions whose signature survived the pipeline — layout passes like
/// field elision legitimately thread extra parameters).
fn sig_string(m: &memoir_ir::Module, f: &memoir_ir::Function) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for p in &f.params {
        let _ = write!(
            s,
            "{}{},",
            if p.by_ref { "&" } else { "" },
            m.types.display(p.ty)
        );
    }
    s.push(';');
    for &t in &f.ret_tys {
        let _ = write!(s, "{},", m.types.display(t));
    }
    s
}

/// A comparable snapshot of a collection argument after a probe run;
/// `None` for non-collections or collections of collections (handles are
/// not comparable across interpreter instances).
fn coll_snapshot(interp: &memoir_interp::Interp, v: &memoir_interp::Value) -> Option<String> {
    use memoir_interp::{Collection, Value};
    let id = v.as_coll()?;
    match interp.store.coll(id) {
        Collection::Seq(elems) => {
            if elems.iter().any(|e| matches!(e, Value::Coll(_))) {
                return None;
            }
            Some(format!("{elems:?}"))
        }
        Collection::Assoc { map, order } => {
            let entries: Vec<_> = order
                .iter()
                .map(|k| (k.clone(), map.get(k).cloned()))
                .collect();
            if entries
                .iter()
                .any(|(_, v)| matches!(v, Some(Value::Coll(_))))
            {
                return None;
            }
            Some(format!("{entries:?}"))
        }
    }
}

/// Probes every preserved-signature non-entry function of `m` against
/// its pre-optimization self `m0` on synthesized typed argument vectors:
/// return values and the final contents of collection arguments must
/// agree. Probes where the *pre*-optimization run traps are skipped
/// (passes may legally remove dead trapping reads).
fn probe_functions(m0: &memoir_ir::Module, m: &memoir_ir::Module, seed: u64) -> Option<Outcome> {
    use memoir_lower::{materialize, mix_seed, synth_args};

    type ProbeResult = Result<(Vec<i64>, Vec<Option<String>>), memoir_interp::Trap>;
    for (fidx, (_, f)) in m0.funcs.iter().enumerate() {
        if f.name == "main" {
            continue; // the whole-program oracle already covers the entry
        }
        let Some(post_fid) = m.func_by_name(&f.name) else {
            continue;
        };
        if sig_string(m0, f) != sig_string(m, &m.funcs[post_fid]) {
            continue;
        }
        let param_tys: Vec<memoir_ir::TypeId> = f.params.iter().map(|p| p.ty).collect();
        for pi in 0..PROBES_PER_FUNC {
            let Some(args) = synth_args(&m0.types, &param_tys, mix_seed(seed ^ pi, fidx as u64))
            else {
                break; // un-synthesizable parameter type
            };
            let run = |mm: &memoir_ir::Module| -> ProbeResult {
                let mut interp = memoir_interp::Interp::new(mm).with_fuel(FUEL);
                // `synth_args` never emits collection-valued assoc keys,
                // so materialization cannot fail here.
                let vals: Vec<memoir_interp::Value> = args
                    .iter()
                    .map(|a| materialize(&mut interp, a).expect("synthesized args materialize"))
                    .collect();
                let rets = interp.run_by_name(&f.name, vals.clone())?;
                let ret_ints = rets.iter().filter_map(|v| v.as_int()).collect();
                let snaps = vals.iter().map(|v| coll_snapshot(&interp, v)).collect();
                Ok((ret_ints, snaps))
            };
            match (run(m0), run(m)) {
                (Err(_), _) => continue,
                (Ok((rets, _)), Err(trap)) => {
                    return Some(Outcome::Crash {
                        kind: "probe-diverge",
                        detail: format!(
                            "probe-diverge: `{}` probe {pi} returned {rets:?} before \
                             optimization but traps after: {trap:?}",
                            f.name
                        ),
                    });
                }
                (Ok(pre), Ok(post)) if pre != post => {
                    return Some(Outcome::Crash {
                        kind: "probe-diverge",
                        detail: format!(
                            "probe-diverge: `{}` probe {pi} changed from {pre:?} to {post:?}",
                            f.name
                        ),
                    });
                }
                _ => {}
            }
        }
    }
    None
}

/// Runs one whole-language case end to end and classifies it.
///
/// ```
/// use passman::PipelineSpec;
/// use reduce::{run_case_prog, CaseConfig, CaseProgram, Op, Outcome};
///
/// let prog = CaseProgram::single(vec![Op::Push(3), Op::AssocInsert(2, -1)]);
/// let spec = PipelineSpec::parse("ssa-construct,dce,ssa-destruct").unwrap();
/// assert_eq!(run_case_prog(&prog, &spec, &CaseConfig::default()), Outcome::Pass);
/// ```
pub fn run_case_prog(prog: &CaseProgram, spec: &PipelineSpec, cfg: &CaseConfig) -> Outcome {
    let out = match &cfg.lir_spec {
        None => run_memoir_case(prog, spec, cfg),
        Some(lir_spec) => run_lowered_case(prog, spec, lir_spec, cfg),
    };
    if cfg.cache_check && out == Outcome::Pass {
        if let Some(crash) = check_cache_coherence(prog, spec, cfg) {
            return crash;
        }
    }
    if cfg.sym && out == Outcome::Pass {
        if let Some(crash) = check_sym_oracle(prog, spec, cfg) {
            return crash;
        }
    }
    if cfg.service_fault.is_some() && out == Outcome::Pass {
        if let Some(crash) = check_service_envelope(prog, spec, cfg) {
            return crash;
        }
    }
    out
}

/// Concrete argument vectors for the symbolic/concrete agreement check:
/// small magnitudes (boundary indices live there) clamped into each
/// parameter's type domain, varied per probe.
fn sym_probe_args(domains: &[(i64, i64)], fidx: u64, probe: u64) -> Vec<i64> {
    const PICKS: [i64; 5] = [0, 1, -1, 2, 7];
    domains
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| {
            let h = memoir_lower::mix_seed(0xa5_5eed ^ probe, fidx * 31 + i as u64);
            PICKS[(h % PICKS.len() as u64) as usize].clamp(lo, hi)
        })
        .collect()
}

/// The symbolic-oracle axis (`sym-unsound` / `sym-diverge`; see
/// [`CaseConfig::sym`]). Run only on cases that already pass the plain
/// oracles, so any failure is the symbolic engine's or an
/// oracle-visible miscompile's fault. The lowering phase is not
/// re-checked here — the `lower` stage's prove-then-probe cross-check
/// already runs the symbolic oracle across the IR boundary.
fn check_sym_oracle(prog: &CaseProgram, spec: &PipelineSpec, cfg: &CaseConfig) -> Option<Outcome> {
    use memoir_interp::{Interp, Value};

    let (m0, _) = build_case(prog);
    let (mut m, _) = build_case(prog);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        compile_spec_with(&mut m, spec, |mut pm| {
            pm = pm
                .on_fault(cfg.policy)
                .with_budgets(cfg.budgets)
                .verify_between_passes(true);
            if let Some(plan) = cfg.inject.clone() {
                pm = pm.with_fault_injection(plan);
            }
            pm
        })
    }));
    if !matches!(ran, Ok(Ok(_))) {
        // The base oracle already ran this compile and passed; a failure
        // on the re-run is not the symbolic oracle's finding.
        return None;
    }

    let budget = symexec::Budget::default();
    for (fidx, (fid0, f)) in m0.funcs.iter().enumerate() {
        // (a) Soundness of the oracle itself: the enumerated path set's
        // prediction must match the concrete interpreter.
        if let Some(mut pool) = symexec::seed_params(&m0, fid0) {
            if let Ok(paths) = symexec::enumerate_memoir(&m0, fid0, &mut pool, &budget) {
                let domains = symexec::param_domains(&pool);
                for probe in 0..PROBES_PER_FUNC {
                    let args = sym_probe_args(&domains, fidx as u64, probe);
                    let vals: Vec<Value> = f
                        .params
                        .iter()
                        .zip(args.iter())
                        .map(|(p, &v)| match m0.types.get(p.ty) {
                            memoir_ir::Type::Bool => Value::Bool(v != 0),
                            ty => Value::Int(ty, v),
                        })
                        .collect();
                    let concrete = Interp::new(&m0)
                        .with_fuel(FUEL)
                        .run_by_name(&f.name, vals)
                        .ok()
                        .map(|rets| rets.iter().map(Value::as_int).collect::<Option<Vec<i64>>>());
                    let predicted = symexec::predict(&pool, &paths, &args);
                    match (concrete, predicted) {
                        // Non-integer concrete result or no matching
                        // path: no agreement obligation.
                        (Some(None), _) | (_, None) => {}
                        (None, Some(Ok(v))) => {
                            return Some(Outcome::Crash {
                                kind: "sym-unsound",
                                detail: format!(
                                    "sym-unsound: `{}`({args:?}) traps concretely but the \
                                     symbolic path set predicts {v:?}",
                                    f.name
                                ),
                            });
                        }
                        (Some(Some(got)), Some(Err(()))) => {
                            return Some(Outcome::Crash {
                                kind: "sym-unsound",
                                detail: format!(
                                    "sym-unsound: `{}`({args:?}) returns {got:?} concretely but \
                                     the symbolic path set predicts a trap",
                                    f.name
                                ),
                            });
                        }
                        (Some(Some(got)), Some(Ok(v))) if got != v => {
                            return Some(Outcome::Crash {
                                kind: "sym-unsound",
                                detail: format!(
                                    "sym-unsound: `{}`({args:?}) returns {got:?} concretely but \
                                     the symbolic path set predicts {v:?}",
                                    f.name
                                ),
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
        // (b) Pre-opt ≡ post-opt, with confirmed witnesses only.
        if let symexec::FnVerdict::Diverged { args, detail } =
            symexec::prove_memoir_equiv(&m0, &m, &f.name, &budget)
        {
            return Some(Outcome::Crash {
                kind: "sym-diverge",
                detail: format!(
                    "sym-diverge: `{}` diverges on witness {args:?}: {detail}",
                    f.name
                ),
            });
        }
    }
    None
}

/// The stable part of a run report: everything a warm cache run must
/// reproduce bit-for-bit. Timings and the compile cache's own counters
/// (which legitimately differ cold vs warm) are excluded.
fn report_signature(r: &passman::RunReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for p in &r.passes {
        let stats: Vec<_> = p
            .stats
            .iter()
            .filter(|(k, _)| *k != "cache_hits" && *k != "cache_misses")
            .collect();
        let _ = writeln!(
            s,
            "{} changed={} iter={:?} stats={stats:?}",
            p.name, p.changed, p.fixpoint_iteration
        );
    }
    let _ = writeln!(s, "degradations={:?}", r.degradations);
    let _ = writeln!(s, "stopped_early={}", r.stopped_early);
    s
}

/// One compile of the case with `cache` installed, summarized as
/// `(module text, report signature)` — the pair a warm run must
/// reproduce byte-for-byte.
fn run_with_cache(
    prog: &CaseProgram,
    spec: &PipelineSpec,
    cfg: &CaseConfig,
    cache: &passman::CompileCache,
) -> Result<(String, String), String> {
    let (mut m, _) = build_case(prog);
    match &cfg.lir_spec {
        None => {
            let report = compile_spec_with(&mut m, spec, |mut pm| {
                pm = pm
                    .on_fault(cfg.policy)
                    .with_budgets(cfg.budgets)
                    .verify_between_passes(true)
                    .with_compile_cache(cache.clone());
                if let Some(plan) = cfg.inject.clone() {
                    pm = pm.with_fault_injection(plan);
                }
                pm
            })
            .map_err(|e| format!("run-error: {e}"))?;
            Ok((
                memoir_ir::printer::print_module(&m),
                report_signature(&report.run),
            ))
        }
        Some(lir_spec) => {
            let pipeline = LoweredPipeline {
                memoir: spec.clone(),
                lower_opts: PassOptions::none(),
                lir: lir_spec.clone(),
            };
            let lcfg = LowerConfig {
                policy: cfg.policy,
                budgets: cfg.budgets,
                verify: Some(true),
                inject: cfg.inject.clone(),
                threads: 1,
                cross_check: true,
                cache: Some(cache.clone()),
                adaptive: cfg.adaptive,
            };
            let out = compile_lowered_with(&mut m, &pipeline, &lcfg)
                .map_err(|e| format!("run-error: {e}"))?;
            let mut text = memoir_ir::printer::print_module(&m);
            if let Some(lm) = &out.lowered {
                text.push_str(
                    "
== lowered ==
",
                );
                text.push_str(&lir::printer::print_module(lm));
            }
            Ok((text, report_signature(&out.report.run)))
        }
    }
}

/// The cached-vs-cold differential oracle (`cache-diverge`): compiles
/// the case twice through one shared [`passman::CompileCache`]. The
/// first run populates the cache; the second must replay it to a
/// byte-identical module and an equivalent report. Run only on cases
/// that already pass the plain oracles, so any divergence is the
/// cache's fault.
fn check_cache_coherence(
    prog: &CaseProgram,
    spec: &PipelineSpec,
    cfg: &CaseConfig,
) -> Option<Outcome> {
    let cache = passman::CompileCache::new();
    let run = |label: &str| {
        catch_unwind(AssertUnwindSafe(|| run_with_cache(prog, spec, cfg, &cache)))
            .map_err(|payload| format!("{label} run panicked: {}", panic_message(&*payload)))
            .and_then(|r| r.map_err(|e| format!("{label} run failed: {e}")))
    };
    let cold = match run("cold") {
        Ok(v) => v,
        Err(detail) => {
            return Some(Outcome::Crash {
                kind: "cache-diverge",
                detail: format!("cache-diverge: {detail}"),
            })
        }
    };
    let warm = match run("warm") {
        Ok(v) => v,
        Err(detail) => {
            return Some(Outcome::Crash {
                kind: "cache-diverge",
                detail: format!("cache-diverge: {detail}"),
            })
        }
    };
    if cold.0 != warm.0 {
        return Some(Outcome::Crash {
            kind: "cache-diverge",
            detail: "cache-diverge: warm run produced a different module than the cold run"
                .to_string(),
        });
    }
    if cold.1 != warm.1 {
        return Some(Outcome::Crash {
            kind: "cache-diverge",
            detail: format!(
                "cache-diverge: warm run report differs from cold:
--- cold
{}--- warm
{}",
                cold.1, warm.1
            ),
        });
    }
    None
}

/// The service-envelope differential oracle (`service-lost` /
/// `service-diverge`): runs the case as a one-job [`memoird`] batch
/// twice — once clean, once under [`CaseConfig::service_fault`] — with
/// the watchdog armed. Both batches must resolve the job to exactly one
/// terminal outcome, and because every injectable service fault is
/// recoverable by the retry ladder, both must compile it to the same
/// bytes. Run only on cases that already pass the plain oracles, so any
/// failure is the envelope's fault.
fn check_service_envelope(
    prog: &CaseProgram,
    spec: &PipelineSpec,
    cfg: &CaseConfig,
) -> Option<Outcome> {
    let plan = cfg.service_fault.clone()?;
    let crash = |kind: &'static str, detail: String| {
        Some(Outcome::Crash {
            kind,
            detail: format!("{kind}: {detail}"),
        })
    };

    // The service takes the whole pipeline as one spec; for
    // through-lowering cases the lir phase rides behind a `lower` step.
    let mut text = spec.to_string();
    if let Some(lspec) = &cfg.lir_spec {
        if !text.is_empty() {
            text.push(',');
        }
        text.push_str(LOWER_STAGE);
        let ltext = lspec.to_string();
        if !ltext.is_empty() {
            text.push(',');
            text.push_str(&ltext);
        }
    }
    let full_spec = match PipelineSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            return crash(
                "service-lost",
                format!("composed job spec `{text}` does not parse: {e}"),
            )
        }
    };

    let run = |faults: Vec<memoird::JobFaultPlan>| {
        let (m, _) = build_case(prog);
        let mut job = memoird::JobSpec::new("fuzz-case", m, full_spec.clone());
        job.policy = cfg.policy;
        job.budgets = cfg.budgets;
        let scfg = memoird::ServiceConfig {
            workers: 1,
            // Generous for a fuzz-sized compile, but small enough that
            // `slow-job`'s stall (which sleeps past it) trips the
            // watchdog rather than the campaign's patience.
            timeout_ms: Some(1000),
            seed: 0x5e41ce,
            cache: Some(passman::CompileCache::new()),
            retry: memoird::RetryPolicy {
                base_backoff_ms: 1,
                max_backoff_ms: 8,
                ..Default::default()
            },
            faults,
            ..Default::default()
        };
        memoird::run_jobs(scfg, vec![job])
    };
    let (clean, clean_stats) = run(Vec::new());
    let (faulty, faulty_stats) = run(vec![plan.clone()]);

    if clean.len() != 1 || clean_stats.terminal() != 1 {
        return crash(
            "service-lost",
            format!(
                "clean one-job batch resolved {} outcome(s), {} terminal",
                clean.len(),
                clean_stats.terminal()
            ),
        );
    }
    if faulty.len() != 1 || faulty_stats.terminal() != 1 {
        return crash(
            "service-lost",
            format!(
                "one-job batch under `{plan}` resolved {} outcome(s), {} terminal",
                faulty.len(),
                faulty_stats.terminal()
            ),
        );
    }
    match (clean[0].output(), faulty[0].output()) {
        (Some(a), Some(b)) if a == b => None,
        (Some(_), Some(_)) => crash(
            "service-diverge",
            format!(
                "output under `{plan}` differs from the clean run ({} vs {})",
                clean[0].kind(),
                faulty[0].kind()
            ),
        ),
        (None, _) => crash(
            "service-diverge",
            format!(
                "clean service run did not compile the job (outcome `{}`)",
                clean[0].kind()
            ),
        ),
        (_, None) => crash(
            "service-diverge",
            format!(
                "run under `{plan}` did not compile the job (outcome `{}` after {} attempt(s))",
                faulty[0].kind(),
                faulty[0].attempts().len()
            ),
        ),
    }
}

/// Runs one single-function case end to end and classifies it (the v1
/// entry point; see [`run_case_prog`] for the whole-language form).
pub fn run_case(ops: &[Op], spec: &PipelineSpec, cfg: &CaseConfig) -> Outcome {
    run_case_prog(&CaseProgram::single(ops.to_vec()), spec, cfg)
}

fn run_memoir_case(prog: &CaseProgram, spec: &PipelineSpec, cfg: &CaseConfig) -> Outcome {
    let (mut m, expect) = build_case(prog);

    let ran = catch_unwind(AssertUnwindSafe(|| {
        compile_spec_with(&mut m, spec, |mut pm| {
            pm = pm
                .on_fault(cfg.policy)
                .with_budgets(cfg.budgets)
                .verify_between_passes(true);
            if let Some(plan) = cfg.inject.clone() {
                pm = pm.with_fault_injection(plan);
            }
            pm
        })
    }));
    match ran {
        Err(payload) => {
            return Outcome::Crash {
                kind: "panic",
                detail: format!("panic: {}", panic_message(&*payload)),
            }
        }
        Ok(Err(e)) => {
            return Outcome::Crash {
                kind: "run-error",
                detail: format!("run-error: {e}"),
            }
        }
        Ok(Ok(_report)) => {}
    }

    if let Some(crash) = check_memoir(&m, expect) {
        return crash;
    }
    if let Some(seed) = cfg.probe_seed {
        let (m0, _) = build_case(prog);
        if let Some(crash) = probe_functions(&m0, &m, seed) {
            return crash;
        }
    }
    Outcome::Pass
}

fn run_lowered_case(
    prog: &CaseProgram,
    spec: &PipelineSpec,
    lir_spec: &PipelineSpec,
    cfg: &CaseConfig,
) -> Outcome {
    let (mut m, expect) = build_case(prog);
    let pipeline = LoweredPipeline {
        memoir: spec.clone(),
        lower_opts: PassOptions::none(),
        lir: lir_spec.clone(),
    };
    let lcfg = LowerConfig {
        policy: cfg.policy,
        budgets: cfg.budgets,
        verify: Some(true),
        inject: cfg.inject.clone(),
        threads: 1,
        cross_check: true,
        cache: None,
        adaptive: cfg.adaptive,
    };

    let ran = catch_unwind(AssertUnwindSafe(|| {
        compile_lowered_with(&mut m, &pipeline, &lcfg)
    }));
    let outcome = match ran {
        Err(payload) => {
            return Outcome::Crash {
                kind: "panic",
                detail: format!("panic: {}", panic_message(&*payload)),
            }
        }
        Ok(Err(e)) => {
            // Stage faults get their own classes so reduction keeps a
            // lowering bug a lowering bug.
            let kind = match &e {
                RunError::VerifyFailed { pass, .. } if pass == LOWER_STAGE => "lower-verify",
                RunError::PassFailed { pass, .. } if pass == LOWER_STAGE => "lower-error",
                _ => "run-error",
            };
            return Outcome::Crash {
                kind,
                detail: format!("{kind}: {e}"),
            };
        }
        Ok(Ok(out)) => out,
    };

    // Oracle 1: the optimized MEMOIR module is always checkable — and
    // must stay correct even when the stage (or a pass) degraded.
    if let Some(crash) = check_memoir(&m, expect) {
        return crash;
    }
    // Oracle 2: preserved-signature functions on synthesized inputs.
    if let Some(seed) = cfg.probe_seed {
        let (m0, _) = build_case(prog);
        if let Some(crash) = probe_functions(&m0, &m, seed) {
            return crash;
        }
    }
    let Some(lm) = outcome.lowered else {
        // The stage or the MEMOIR phase degraded under a recovering
        // policy: graceful containment, the (just-checked) MEMOIR module
        // is the pipeline's result.
        return Outcome::Pass;
    };

    // Oracle 3: the *direct* lowering of the optimized MEMOIR module —
    // pre-lir-opt, so a divergence here is memoir-lower's fault.
    match memoir_lower::lower_module(&m) {
        Err(e) => {
            return Outcome::Crash {
                kind: "lower-error",
                detail: format!("lower-error: direct lowering failed after the stage ran: {e}"),
            }
        }
        Ok(direct) => {
            if let Some(crash) = check_lowered(&direct, expect, "lower-trap", "lower-miscompile") {
                return crash;
            }
            // Cross-IR agreement on this case's probe seeds (scalar
            // signatures only — e.g. the generated scalar helpers).
            if let Some(seed) = cfg.probe_seed {
                match memoir_lower::cross_validate(&m, &direct, &[seed, seed ^ 0x9e3779b9]) {
                    Err(e) => {
                        return Outcome::Crash {
                            kind: "lower-probe",
                            detail: format!("lower-probe: {e}"),
                        };
                    }
                    Ok(report) => {
                        CC_PROVED.fetch_add(report.functions_proved as u64, Ordering::Relaxed);
                        CC_PROBED.fetch_add(report.functions_probed as u64, Ordering::Relaxed);
                        CC_SKIPPED.fetch_add(report.functions_skipped as u64, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    // Oracle 4: the pipeline's final lir-optimized module. The stage
    // verifier already vetted its input, so re-verify and blame the lir
    // passes for anything new.
    let errs = lir::verifier::verify_module(&lm);
    if let Some(first) = errs.first() {
        return Outcome::Crash {
            kind: "lir-verify",
            detail: format!("lir-verify: {first} (+{} more)", errs.len() - 1),
        };
    }
    check_lowered(&lm, expect, "lir-trap", "lir-miscompile").unwrap_or(Outcome::Pass)
}

/// Shrinks the `fixpoint(...)` groups inside a step list: ddmin each
/// group's body, then try flattening the group to plain passes (a group
/// that only needs one trip is noise in a repro). `eval` judges a trial
/// step list ("still the same crash").
fn shrink_fixpoints(mut steps: Vec<SpecStep>, eval: impl Fn(&[SpecStep]) -> bool) -> Vec<SpecStep> {
    let mut i = 0;
    while i < steps.len() {
        let SpecStep::Fixpoint { opts, body } = steps[i].clone() else {
            i += 1;
            continue;
        };
        let body = crate::ddmin::ddmin(&body, |cand| {
            if cand.is_empty() {
                return false; // fixpoint() is not a valid spec
            }
            let mut trial = steps.clone();
            trial[i] = SpecStep::Fixpoint {
                opts: opts.clone(),
                body: cand.to_vec(),
            };
            eval(&trial)
        });
        let mut flat = steps.clone();
        flat.splice(i..=i, body.iter().cloned().map(SpecStep::Pass));
        if eval(&flat) {
            steps = flat;
            i += body.len();
        } else {
            steps[i] = SpecStep::Fixpoint { opts, body };
            i += 1;
        }
    }
    steps
}

/// Reduces a crashing whole-language case: the config shrinks first
/// (service envelope and cache oracle dropped, budgets cleared, probe
/// seed dropped, the lir phase dropped entirely),
/// then ddmin over the helper list, `main`'s ops, each surviving
/// helper's ops, the MEMOIR pipeline steps, and the lir pipeline steps —
/// holding the failure *class* fixed throughout so the shrink converges
/// on the original bug rather than a new one.
///
/// Returns the minimized `(program, spec, config)` and the (possibly
/// re-worded) failure detail of the minimized case.
pub fn reduce_case_prog(
    prog: &CaseProgram,
    spec: &PipelineSpec,
    cfg: &CaseConfig,
) -> Option<(CaseProgram, PipelineSpec, CaseConfig, String)> {
    let kind = run_case_prog(prog, spec, cfg).kind()?;
    let same_kind = |o: &Outcome| o.kind() == Some(kind);
    let mut cfg = cfg.clone();
    let mut prog = prog.clone();

    // Config first, so every later trial runs the cheapest harness that
    // still crashes: without the service envelope (two extra service
    // batches per trial — by far the most expensive axis, so it goes
    // first), the cache oracle, budgets, probing, adaptive layouts, or
    // the lowering phase.
    if cfg.service_fault.is_some() {
        let mut trial = cfg.clone();
        trial.service_fault = None;
        if same_kind(&run_case_prog(&prog, spec, &trial)) {
            cfg = trial;
        }
    }
    if cfg.cache_check {
        let mut trial = cfg.clone();
        trial.cache_check = false;
        if same_kind(&run_case_prog(&prog, spec, &trial)) {
            cfg = trial;
        }
    }
    if cfg.sym {
        let mut trial = cfg.clone();
        trial.sym = false;
        if same_kind(&run_case_prog(&prog, spec, &trial)) {
            cfg = trial;
        }
    }
    if !cfg.budgets.is_unlimited() {
        let mut trial = cfg.clone();
        trial.budgets = Budgets::none();
        if same_kind(&run_case_prog(&prog, spec, &trial)) {
            cfg = trial;
        }
    }
    if cfg.probe_seed.is_some() {
        let mut trial = cfg.clone();
        trial.probe_seed = None;
        if same_kind(&run_case_prog(&prog, spec, &trial)) {
            cfg = trial;
        }
    }
    if cfg.adaptive {
        let mut trial = cfg.clone();
        trial.adaptive = false;
        if same_kind(&run_case_prog(&prog, spec, &trial)) {
            cfg = trial;
        }
    }
    if cfg.lir_spec.is_some() {
        let mut trial = cfg.clone();
        trial.lir_spec = None;
        if same_kind(&run_case_prog(&prog, spec, &trial)) {
            cfg = trial;
        }
    }

    // Whole helpers first (cheapest structural shrink) …
    prog.helpers = crate::ddmin::ddmin(&prog.helpers, |cand| {
        let trial = CaseProgram {
            main: prog.main.clone(),
            helpers: cand.to_vec(),
        };
        same_kind(&run_case_prog(&trial, spec, &cfg))
    });
    // … then main's ops …
    prog.main = crate::ddmin::ddmin(&prog.main, |cand| {
        let trial = CaseProgram {
            main: cand.to_vec(),
            helpers: prog.helpers.clone(),
        };
        same_kind(&run_case_prog(&trial, spec, &cfg))
    });
    // … then each surviving ops helper's op list.
    for i in 0..prog.helpers.len() {
        let Helper::Ops(ops) = prog.helpers[i].clone() else {
            continue;
        };
        let min = crate::ddmin::ddmin(&ops, |cand| {
            let mut trial = prog.clone();
            trial.helpers[i] = Helper::Ops(cand.to_vec());
            same_kind(&run_case_prog(&trial, spec, &cfg))
        });
        prog.helpers[i] = Helper::Ops(min);
    }

    let steps = crate::ddmin::ddmin(&spec.steps, |candidate| {
        same_kind(&run_case_prog(
            &prog,
            &PipelineSpec::new(candidate.to_vec()),
            &cfg,
        ))
    });
    // Steps are atomic to ddmin, so shrink inside surviving fixpoint
    // groups too.
    let steps = shrink_fixpoints(steps, |trial| {
        same_kind(&run_case_prog(
            &prog,
            &PipelineSpec::new(trial.to_vec()),
            &cfg,
        ))
    });
    let spec = PipelineSpec::new(steps);

    // The lir phase shrinks the same way (an empty lir spec is valid:
    // "lower, then nothing").
    if let Some(lspec) = cfg.lir_spec.clone() {
        let with_lir = |steps: &[SpecStep], cfg: &CaseConfig| {
            let mut trial = cfg.clone();
            trial.lir_spec = Some(PipelineSpec::new(steps.to_vec()));
            trial
        };
        let lsteps = crate::ddmin::ddmin(&lspec.steps, |candidate| {
            same_kind(&run_case_prog(&prog, &spec, &with_lir(candidate, &cfg)))
        });
        let lsteps = shrink_fixpoints(lsteps, |trial| {
            same_kind(&run_case_prog(&prog, &spec, &with_lir(trial, &cfg)))
        });
        cfg.lir_spec = Some(PipelineSpec::new(lsteps));
    }

    // One more main-ops pass: a smaller spec may admit a smaller program.
    prog.main = crate::ddmin::ddmin(&prog.main, |cand| {
        let trial = CaseProgram {
            main: cand.to_vec(),
            helpers: prog.helpers.clone(),
        };
        same_kind(&run_case_prog(&trial, &spec, &cfg))
    });

    match run_case_prog(&prog, &spec, &cfg) {
        Outcome::Crash { detail, .. } => Some((prog, spec, cfg, detail)),
        Outcome::Pass => None, // shrink lost the bug (should not happen)
    }
}

/// Reduces a crashing single-function case (the v1 entry point; see
/// [`reduce_case_prog`] for the whole-language form).
pub fn reduce_case(
    ops: &[Op],
    spec: &PipelineSpec,
    cfg: &CaseConfig,
) -> Option<(Vec<Op>, PipelineSpec, CaseConfig, String)> {
    let (prog, spec, cfg, detail) =
        reduce_case_prog(&CaseProgram::single(ops.to_vec()), spec, cfg)?;
    Some((prog.main, spec, cfg, detail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genprog::{random_case, random_case_config, random_ops, CaseDims};
    use crate::genspec::{random_lir_spec, random_spec};
    use crate::rng::SplitMix64;

    #[test]
    fn healthy_cases_pass() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..5 {
            let ops = random_ops(&mut rng, 20);
            let spec = random_spec(&mut rng);
            let out = run_case(&ops, &spec, &CaseConfig::default());
            assert_eq!(out, Outcome::Pass, "ops {ops:?} spec {spec}");
        }
    }

    #[test]
    fn healthy_cases_pass_through_lowering() {
        let mut rng = SplitMix64::new(13);
        for _ in 0..5 {
            let ops = random_ops(&mut rng, 20);
            let spec = random_spec(&mut rng);
            let mut cfg = random_case_config(&mut rng, true);
            cfg.lir_spec = Some(random_lir_spec(&mut rng));
            let out = run_case(&ops, &spec, &cfg);
            assert_eq!(
                out,
                Outcome::Pass,
                "ops {ops:?} spec {spec} lir {:?}",
                cfg.lir_spec
            );
        }
    }

    #[test]
    fn healthy_whole_language_cases_pass_with_probing() {
        let mut rng = SplitMix64::new(29);
        let dims = CaseDims {
            objects: true,
            multi: true,
        };
        for i in 0..5 {
            let prog = random_case(&mut rng, 20, dims);
            let spec = random_spec(&mut rng);
            let mut cfg = random_case_config(&mut rng, i % 2 == 0);
            cfg.probe_seed = Some(rng.next_u64());
            let out = run_case_prog(&prog, &spec, &cfg);
            assert_eq!(out, Outcome::Pass, "prog {prog:?} spec {spec}");
        }
    }

    /// Reduced from `memoir-fuzz run --lower --seed 7` (crash-7-172):
    /// `dee-strict` + `ssa-destruct` leave the lowered module's block
    /// layout non-dominance-sorted, and lir's GVN used to pick the
    /// *layout-first* congruent instruction as the class leader —
    /// replacing a dominating definition with a dominated one and
    /// trapping as `lir-trap: Malformed("unbound value")`. Must Pass
    /// now that GVN gates replacements on dominance.
    #[test]
    fn gvn_respects_dominance_in_lowered_modules() {
        let ops = vec![Op::Push(-15), Op::Write(61, 67), Op::Push(67)];
        let spec =
            PipelineSpec::parse("ssa-construct,fixpoint<max=3>(dee-strict),ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::SkipPass,
            lir_spec: Some(PipelineSpec::parse("gvn").unwrap()),
            ..CaseConfig::default()
        };
        assert_eq!(run_case(&ops, &spec, &cfg), Outcome::Pass);

        // crash-1234-101: same root cause through a different spec.
        let ops = vec![
            Op::Push(88),
            Op::Write(64, 9),
            Op::AssocInsert(169, -103),
            Op::Push(-25),
        ];
        let spec = PipelineSpec::parse("ssa-construct,dee-strict,dee-strict,ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::StopPipeline,
            lir_spec: Some(PipelineSpec::parse("gvn").unwrap()),
            ..CaseConfig::default()
        };
        assert_eq!(run_case(&ops, &spec, &cfg), Outcome::Pass);
    }

    /// Reduced from `memoir-fuzz run --lower --seed 7` (crash-7-193,
    /// reproduces without the lowering phase): constprop branch folding
    /// inside a fixpoint left a φ with an incoming from a now-unreachable
    /// arm — legal SSA per the verifier's one-incoming-per-structural-
    /// predecessor invariant — and `ssa-destruct` panicked trying to
    /// resolve the never-translated value.
    #[test]
    fn ssa_destruct_tolerates_unreachable_phi_incomings() {
        let ops = vec![Op::InsertAt(81, 31), Op::Write(156, -28), Op::Remove(90)];
        let spec =
            PipelineSpec::parse("ssa-construct,fixpoint<max=3>(constprop,dee-strict),ssa-destruct")
                .unwrap();
        assert_eq!(run_case(&ops, &spec, &CaseConfig::default()), Outcome::Pass);

        // Second manifestation of the same case: with the panic fixed,
        // destruction used to materialize the stranded arm as an empty,
        // terminator-less block, which the (stricter) lir verifier
        // rejected right after the `lower` stage.
        let cfg = CaseConfig {
            lir_spec: Some(PipelineSpec::new(Vec::new())),
            ..CaseConfig::default()
        };
        assert_eq!(run_case(&ops, &spec, &cfg), Outcome::Pass);
    }

    /// Reduced from `memoir-fuzz run --lower --seed 7` (crash-7-46):
    /// the same backward-layout shape made lir's sink pass panic on a
    /// reversed slice range in `region_between`.
    #[test]
    fn sink_survives_backward_layout_in_lowered_modules() {
        let ops = vec![
            Op::Push(32),
            Op::Write(209, -115),
            Op::AssocKeys,
            Op::Push(12),
        ];
        let spec = PipelineSpec::parse("ssa-construct,dee-strict,ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            lir_spec: Some(PipelineSpec::parse("sink").unwrap()),
            ..CaseConfig::default()
        };
        assert_eq!(run_case(&ops, &spec, &cfg), Outcome::Pass);
    }

    /// Adaptive lowered cases must pass the same differential oracles
    /// as the default hashed layout: the representation selector only
    /// changes storage, never observable results — with or without
    /// fusion in the MEMOIR phase, with or without a lir phase after
    /// `lower`, and under argument probing.
    #[test]
    fn adaptive_lowering_passes_the_differential_oracles() {
        let ops = vec![
            Op::Push(7),
            Op::AssocInsert(3, 40),
            Op::AssocInsert(3, -2),
            Op::Write(1, 9),
            Op::AssocKeys,
            Op::Push(-5),
        ];
        for spec in [
            "ssa-construct,constprop,dce,ssa-destruct",
            "ssa-construct,constprop,fusion,dce,ssa-destruct",
        ] {
            let spec = PipelineSpec::parse(spec).unwrap();
            for lir in ["", "mem2reg,gvn,dce"] {
                let cfg = CaseConfig {
                    lir_spec: Some(
                        PipelineSpec::parse(lir).unwrap_or_else(|_| PipelineSpec::new(Vec::new())),
                    ),
                    adaptive: true,
                    probe_seed: Some(11),
                    ..CaseConfig::default()
                };
                assert_eq!(
                    run_case(&ops, &spec, &cfg),
                    Outcome::Pass,
                    "spec `{spec}` + lir `{lir}`"
                );
            }
        }
    }

    #[test]
    fn injected_panic_is_a_crash_under_abort() {
        let ops = vec![Op::Push(1), Op::Push(2)];
        let spec = PipelineSpec::parse("ssa-construct,dce,ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            inject: Some("panic@dce".parse().unwrap()),
            ..CaseConfig::default()
        };
        let out = run_case(&ops, &spec, &cfg);
        assert_eq!(out.kind(), Some("panic"), "{out:?}");
    }

    #[test]
    fn injected_panic_is_recovered_under_skip() {
        let ops = vec![Op::Push(1), Op::Push(2), Op::Write(0, 9)];
        let spec = PipelineSpec::parse("ssa-construct,dce,ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::SkipPass,
            inject: Some("panic@dce".parse().unwrap()),
            ..CaseConfig::default()
        };
        // Rollback must leave an interpreter-correct module: no crash.
        assert_eq!(run_case(&ops, &spec, &cfg), Outcome::Pass);
    }

    #[test]
    fn injected_stage_fault_classifies_and_recovers() {
        let ops = vec![Op::Push(3), Op::AssocInsert(1, 4)];
        let spec = PipelineSpec::parse("ssa-construct,dce,ssa-destruct").unwrap();
        let lir_spec = PipelineSpec::parse("mem2reg,dce").unwrap();

        // An injected verify failure at the stage is its own class…
        let cfg = CaseConfig {
            inject: Some("verify@lower".parse().unwrap()),
            lir_spec: Some(lir_spec.clone()),
            ..CaseConfig::default()
        };
        assert_eq!(run_case(&ops, &spec, &cfg).kind(), Some("lower-verify"));

        // …an injected stage panic under Abort is a plain panic…
        let cfg = CaseConfig {
            inject: Some("panic@lower".parse().unwrap()),
            lir_spec: Some(lir_spec.clone()),
            ..CaseConfig::default()
        };
        assert_eq!(run_case(&ops, &spec, &cfg).kind(), Some("panic"));

        // …and under a recovering policy the stage fault is contained:
        // the MEMOIR module is the (oracle-correct) result.
        let cfg = CaseConfig {
            policy: FaultPolicy::StopPipeline,
            inject: Some("panic@lower".parse().unwrap()),
            lir_spec: Some(lir_spec),
            ..CaseConfig::default()
        };
        assert_eq!(run_case(&ops, &spec, &cfg), Outcome::Pass);
    }

    #[test]
    fn reduction_shrinks_an_injected_crash() {
        let mut rng = SplitMix64::new(3);
        let ops = random_ops(&mut rng, 40);
        let spec = PipelineSpec::parse(
            "ssa-construct,constprop,fixpoint<max=3>(simplify,dce),dee,ssa-destruct,rie,dfe",
        )
        .unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            inject: Some("panic@dee".parse().unwrap()),
            ..CaseConfig::default()
        };
        let (min_ops, min_spec, _, detail) = reduce_case(&ops, &spec, &cfg).expect("still crashes");
        assert!(min_ops.len() <= 8, "ops not minimal: {min_ops:?}");
        assert!(
            min_spec.steps.len() <= 2,
            "spec not minimal: {min_spec} ({} steps)",
            min_spec.steps.len()
        );
        assert!(detail.starts_with("panic:"), "{detail}");
    }

    #[test]
    fn healthy_cases_pass_the_cache_oracle() {
        let mut rng = SplitMix64::new(41);
        for i in 0..4 {
            let prog = random_case(
                &mut rng,
                15,
                CaseDims {
                    objects: true,
                    multi: true,
                },
            );
            let spec = random_spec(&mut rng);
            let mut cfg = random_case_config(&mut rng, i % 2 == 0);
            cfg.cache_check = true;
            let out = run_case_prog(&prog, &spec, &cfg);
            assert_eq!(out, Outcome::Pass, "prog {prog:?} spec {spec}");
        }
    }

    #[test]
    fn healthy_cases_pass_the_service_envelope() {
        // Every injectable service fault is recoverable, so a passing
        // case must stay byte-identical through the one-job envelope —
        // including through-lowering cases, whose lir phase rides behind
        // a `lower` step in the composed job spec.
        let prog = CaseProgram::single(vec![Op::Push(3), Op::AssocInsert(2, -1), Op::Write(0, 9)]);
        let spec = PipelineSpec::parse("ssa-construct,constprop,dce,ssa-destruct").unwrap();
        for plan in ["worker-panic@0", "poison-cache@0", "slow-job@0"] {
            let cfg = CaseConfig {
                service_fault: Some(plan.parse().unwrap()),
                ..CaseConfig::default()
            };
            let out = run_case_prog(&prog, &spec, &cfg);
            assert_eq!(out, Outcome::Pass, "{plan}: {out:?}");
        }
        let lowered = CaseConfig {
            lir_spec: Some(PipelineSpec::parse("mem2reg,constfold,dce").unwrap()),
            service_fault: Some("worker-panic@0".parse().unwrap()),
            ..CaseConfig::default()
        };
        let out = run_case_prog(&prog, &spec, &lowered);
        assert_eq!(out, Outcome::Pass, "{out:?}");
    }

    #[test]
    fn reduction_shrinks_config_too() {
        let ops = vec![Op::Push(1), Op::Push(2), Op::AssocInsert(3, 4)];
        let spec = PipelineSpec::parse("ssa-construct,constprop,dce,ssa-destruct").unwrap();
        // A dce-targeted injected panic: the service envelope, cache
        // oracle, budgets, probing, adaptive layouts, and the lowering
        // phase are irrelevant to the crash, so reduction drops all six.
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            inject: Some("panic@dce".parse().unwrap()),
            budgets: Budgets::parse("growth=16.0,fixpoint=4").unwrap(),
            lir_spec: Some(PipelineSpec::parse("mem2reg,fixpoint<max=3>(constfold,dce)").unwrap()),
            adaptive: true,
            probe_seed: Some(42),
            cache_check: true,
            service_fault: Some("worker-panic@0".parse().unwrap()),
            sym: true,
        };
        let (_, _, min_cfg, detail) = reduce_case(&ops, &spec, &cfg).expect("still crashes");
        assert!(min_cfg.budgets.is_unlimited(), "{:?}", min_cfg.budgets);
        assert!(min_cfg.lir_spec.is_none(), "{:?}", min_cfg.lir_spec);
        assert!(min_cfg.probe_seed.is_none(), "{:?}", min_cfg.probe_seed);
        assert!(!min_cfg.adaptive, "adaptive layouts should be dropped");
        assert!(!min_cfg.cache_check, "cache oracle should be dropped");
        assert!(!min_cfg.sym, "symbolic oracle should be dropped");
        assert!(
            min_cfg.service_fault.is_none(),
            "service envelope should be dropped"
        );
        assert!(detail.starts_with("panic:"), "{detail}");
    }

    #[test]
    fn reduction_keeps_the_lir_phase_when_the_crash_needs_it() {
        let ops = vec![Op::Push(5)];
        let spec = PipelineSpec::parse("ssa-construct,dce,ssa-destruct").unwrap();
        // A fault injected into a *lir* pass only fires when the lir
        // phase actually runs, so `lir_spec` must survive reduction.
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            inject: Some("panic@gvn".parse().unwrap()),
            budgets: Budgets::none(),
            lir_spec: Some(PipelineSpec::parse("mem2reg,gvn,dce").unwrap()),
            adaptive: false,
            probe_seed: None,
            cache_check: false,
            service_fault: None,
            sym: false,
        };
        let out = run_case(&ops, &spec, &cfg);
        assert_eq!(out.kind(), Some("panic"), "{out:?}");
        let (_, _, min_cfg, _) = reduce_case(&ops, &spec, &cfg).expect("still crashes");
        let lspec = min_cfg.lir_spec.expect("lir phase is load-bearing");
        assert_eq!(lspec.pass_names(), vec!["gvn"], "{lspec}");
    }

    /// Reduced from the first whole-language campaign (objects + multi,
    /// probing): a mut push onto a collection read *out of an object
    /// field* got renamed to a fresh SSA version, but nothing stored the
    /// version back into the field — the epilogue's field read folded
    /// the stale, empty tags seq ("got 0, oracle says 252"). Must Pass
    /// now that `ssa-construct` emits the field write-back.
    #[test]
    fn nested_collection_fields_survive_ssa_construction() {
        let prog = CaseProgram::single(vec![Op::ObjTagPush(131, 126)]);
        let spec = PipelineSpec::parse("ssa-construct").unwrap();
        assert_eq!(
            run_case_prog(&prog, &spec, &CaseConfig::default()),
            Outcome::Pass
        );

        // The original shape: pushes from two call sites interleaved
        // with field writes, through the full round-trip.
        let prog = CaseProgram::single(vec![
            Op::ObjTagPush(0, 4),
            Op::ObjWrite(1, 0, -7),
            Op::ObjTagPush(1, 24),
            Op::ObjRead(1, 1),
            Op::ObjTagPush(0, -3),
        ]);
        let spec = PipelineSpec::parse("ssa-construct,dce,simplify,ssa-destruct").unwrap();
        assert_eq!(
            run_case_prog(&prog, &spec, &CaseConfig::default()),
            Outcome::Pass
        );
    }

    #[test]
    fn reduction_shrinks_helpers() {
        // Inject a panic into dce: the helpers are irrelevant, so the
        // reducer must drop them all (and the shape still crashes).
        let prog = CaseProgram {
            main: vec![Op::Push(1), Op::ObjWrite(0, 0, 3)],
            helpers: vec![
                Helper::Ops(vec![Op::Push(2), Op::AssocInsert(1, 1)]),
                Helper::Scalar(3, -1),
            ],
        };
        let spec = PipelineSpec::parse("ssa-construct,dce,ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            inject: Some("panic@dce".parse().unwrap()),
            ..CaseConfig::default()
        };
        let (min, _, _, detail) = reduce_case_prog(&prog, &spec, &cfg).expect("still crashes");
        assert!(min.helpers.is_empty(), "helpers not dropped: {min:?}");
        assert!(min.main.is_empty(), "main ops not dropped: {min:?}");
        assert!(detail.starts_with("panic:"), "{detail}");
    }
}
