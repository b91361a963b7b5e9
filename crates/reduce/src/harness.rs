//! The fuzz oracle: run one generated case through the pipeline and
//! classify the result.
//!
//! A case is (program, pipeline spec, [`CaseConfig`]). The program
//! ([`CaseProgram`]) is `main`'s op list plus optional helper functions;
//! the config carries the per-case fault policy, budgets, optional fault
//! injection, an optional per-function probe seed, and — for
//! *through-lowering* cases — the low-level IR pipeline to run after the
//! `lower` stage. The harness builds the MUT-form module and compiles it
//! once, through one [`LowerConfig`], with inter-pass verification forced
//! on and panics caught. Every oracle then reads that one compile:
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
//! Two opt-in oracles follow on cases that pass: the cached-vs-cold
//! check compiles the case twice more through one shared compile cache
//! ([`CaseConfig::cache_check`]), and the symbolic oracle proves the
//! pre-opt module equivalent to the base compile's post-opt module
//! without compiling anything ([`CaseConfig::sym`]).
//!
//! Anything other than "completed and computed the right answer" is a
//! [`Crash`] — including a *degraded* run whose recovered module no
//! longer matches the oracle, which is exactly the rollback soundness
//! the fault-tolerance layer promises.
//!
//! [`Crash`]: Outcome::Crash

use crate::genprog::{build_case, CaseProgram, Helper};
use memoir_ir::Module;
use memoir_opt::lowering::{compile_lowered_with, LowerConfig, LoweredPipeline, LOWER_STAGE};
use memoir_opt::pipeline::compile_spec_with;
use passman::{
    panic_message, Budgets, CompileCache, FaultPlan, FaultPolicy, PassOptions, PipelineSpec,
    RunError, RunReport, SpecStep,
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
#[derive(Clone, Debug, PartialEq)]
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
        /// does). `cache-diverge` (see [`CaseConfig::cache_check`]).
        /// Symbolic-oracle classes (see [`CaseConfig::sym`]):
        /// `sym-diverge` (the bounded symbolic oracle proved pre-opt ≢
        /// post-opt with a concretely confirmed witness) and
        /// `sym-unsound` (the oracle's own path-set prediction disagrees
        /// with the concrete interpreter — a bug in the oracle, not the
        /// pipeline). Artifact format: `docs/REPRO_FORMAT.md`.
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
fn check_memoir(m: &Module, expect: i64) -> Option<Outcome> {
    // The pipeline verifies after every pass, but not after it rolls a
    // faulted pass back, and a rollback restores only the pass's declared
    // mutation scope: re-check the final module so a bad rollback cannot
    // slip through.
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
fn sig_string(m: &Module, f: &memoir_ir::Function) -> String {
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
fn probe_functions(m0: &Module, m: &Module, seed: u64) -> Option<Outcome> {
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
            let run = |mm: &Module| -> ProbeResult {
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

/// Runs one whole-language case end to end and classifies it: one
/// compile, then every oracle on its result (see the module docs).
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
    let (m0, expect) = build_case(prog);
    let out = match compile(&m0, spec, cfg, None) {
        Ok(out) => out,
        Err((kind, detail)) => return Outcome::Crash { kind, detail },
    };
    // Oracle 1: the optimized MEMOIR module is always checkable — and
    // must stay correct even when the stage (or a pass) degraded.
    check_memoir(&out.module, expect)
        // Oracle 2: preserved-signature functions on synthesized inputs.
        .or_else(|| probe_functions(&m0, &out.module, cfg.probe_seed?))
        // Oracles 3 and 4, when the stage produced a lowered module (it
        // does not when it or the MEMOIR phase degraded under a
        // recovering policy: graceful containment, the just-checked
        // MEMOIR module is the pipeline's result).
        .or_else(|| {
            let lm = out.lowered.as_ref()?;
            check_lowering(&out.module, lm, expect, cfg.probe_seed)
        })
        // The opt-in oracles.
        .or_else(|| {
            cfg.cache_check
                .then(|| check_cache_coherence(&m0, spec, cfg))?
        })
        .or_else(|| cfg.sym.then(|| check_sym_oracle(&m0, &out.module))?)
        .unwrap_or(Outcome::Pass)
}

/// One compile of a case: the post-MEMOIR-phase module, the lowered (and
/// lir-optimized) module when the lowering stage produced one, and the
/// merged run report.
struct Compiled {
    module: Module,
    lowered: Option<lir::Module>,
    report: RunReport,
}

/// Compiles a copy of `m0` under `cfg` through one [`LowerConfig`] — on
/// through the `lower` stage and the lir phase for through-lowering
/// cases — with `cache` installed in every phase (the cache oracle's
/// cold and warm runs; `None` for the base run). A panic or pipeline
/// error comes back as its crash class and detail.
fn compile(
    m0: &Module,
    spec: &PipelineSpec,
    cfg: &CaseConfig,
    cache: Option<CompileCache>,
) -> Result<Compiled, (&'static str, String)> {
    let lcfg = LowerConfig {
        policy: cfg.policy,
        budgets: cfg.budgets,
        verify: Some(true),
        inject: cfg.inject.clone(),
        cache,
        adaptive: cfg.adaptive,
        ..LowerConfig::default()
    };
    let mut m = m0.clone();
    let ran = catch_unwind(AssertUnwindSafe(|| match &cfg.lir_spec {
        None => compile_spec_with(&mut m, spec, |pm| lcfg.apply(pm)).map(|r| (None, r.run)),
        Some(lir_spec) => {
            let pipeline = LoweredPipeline {
                memoir: spec.clone(),
                lower_opts: PassOptions::none(),
                lir: lir_spec.clone(),
            };
            compile_lowered_with(&mut m, &pipeline, &lcfg).map(|out| (out.lowered, out.report.run))
        }
    }));
    match ran {
        Err(payload) => Err(("panic", format!("panic: {}", panic_message(&*payload)))),
        Ok(Err(e)) => {
            // Stage faults get their own classes so reduction keeps a
            // lowering bug a lowering bug.
            let kind = match &e {
                RunError::VerifyFailed { pass, .. } if pass == LOWER_STAGE => "lower-verify",
                RunError::PassFailed { pass, .. } if pass == LOWER_STAGE => "lower-error",
                _ => "run-error",
            };
            Err((kind, format!("{kind}: {e}")))
        }
        Ok(Ok((lowered, report))) => Ok(Compiled {
            module: m,
            lowered,
            report,
        }),
    }
}

/// Oracles 3 and 4 of a through-lowering case whose stage produced `lm`.
fn check_lowering(
    m: &Module,
    lm: &lir::Module,
    expect: i64,
    probe_seed: Option<u64>,
) -> Option<Outcome> {
    // Oracle 3: the *direct* lowering of the optimized MEMOIR module —
    // pre-lir-opt, so a divergence here is memoir-lower's fault.
    let direct = match memoir_lower::lower_module(m) {
        Ok(direct) => direct,
        Err(e) => {
            return Some(Outcome::Crash {
                kind: "lower-error",
                detail: format!("lower-error: direct lowering failed after the stage ran: {e}"),
            })
        }
    };
    if let Some(crash) = check_lowered(&direct, expect, "lower-trap", "lower-miscompile") {
        return Some(crash);
    }
    // Cross-IR agreement on this case's probe seeds (scalar signatures
    // only — e.g. the generated scalar helpers).
    if let Some(seed) = probe_seed {
        match memoir_lower::cross_validate(m, &direct, &[seed, seed ^ 0x9e3779b9]) {
            Err(e) => {
                return Some(Outcome::Crash {
                    kind: "lower-probe",
                    detail: format!("lower-probe: {e}"),
                });
            }
            Ok(report) => {
                CC_PROVED.fetch_add(report.functions_proved as u64, Ordering::Relaxed);
                CC_PROBED.fetch_add(report.functions_probed as u64, Ordering::Relaxed);
                CC_SKIPPED.fetch_add(report.functions_skipped as u64, Ordering::Relaxed);
            }
        }
    }

    // Oracle 4: the pipeline's final lir-optimized module. The stage
    // verifier already vetted its input, so re-verify and blame the lir
    // passes (or a rollback of one, unverified as above) for anything
    // new.
    let errs = lir::verifier::verify_module(lm);
    if let Some(first) = errs.first() {
        return Some(Outcome::Crash {
            kind: "lir-verify",
            detail: format!("lir-verify: {first} (+{} more)", errs.len() - 1),
        });
    }
    check_lowered(lm, expect, "lir-trap", "lir-miscompile")
}

/// The cached-vs-cold differential oracle (`cache-diverge`): compiles
/// the case twice through one shared [`passman::CompileCache`]. The
/// first run populates the cache; the second must replay it to a
/// byte-identical module and an equivalent report. Run only on cases
/// that already pass the plain oracles, so any divergence is the
/// cache's fault.
fn check_cache_coherence(m0: &Module, spec: &PipelineSpec, cfg: &CaseConfig) -> Option<Outcome> {
    let cache = CompileCache::new();
    let crash = |detail: String| {
        Some(Outcome::Crash {
            kind: "cache-diverge",
            detail: format!("cache-diverge: {detail}"),
        })
    };
    let mut runs = Vec::with_capacity(2);
    for label in ["cold", "warm"] {
        match compile(m0, spec, cfg, Some(cache.clone())) {
            Ok(out) => {
                let mut text = memoir_ir::printer::print_module(&out.module);
                if let Some(lm) = &out.lowered {
                    text.push_str("\n== lowered ==\n");
                    text.push_str(&lir::printer::print_module(lm));
                }
                runs.push((text, report_signature(&out.report)));
            }
            Err((_, detail)) => return crash(format!("{label} run failed: {detail}")),
        }
    }
    let (cold, warm) = (&runs[0], &runs[1]);
    if cold.0 != warm.0 {
        return crash("warm run produced a different module than the cold run".to_string());
    }
    if cold.1 != warm.1 {
        return crash(format!(
            "warm run report differs from cold:\n--- cold\n{}--- warm\n{}",
            cold.1, warm.1
        ));
    }
    None
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
/// [`CaseConfig::sym`]) over the pre-opt module `m0` and the base
/// compile's post-opt module `m`. Run only on cases that already pass
/// the plain oracles, so any failure is the symbolic engine's or an
/// oracle-visible miscompile's fault. The lowering phase is not
/// re-checked here — the `lower` stage's prove-then-probe cross-check
/// already runs the symbolic oracle across the IR boundary.
fn check_sym_oracle(m0: &Module, m: &Module) -> Option<Outcome> {
    use memoir_interp::{Interp, Value};

    let budget = symexec::Budget::default();
    for (fidx, (fid0, f)) in m0.funcs.iter().enumerate() {
        // (a) Soundness of the oracle itself: the enumerated path set's
        // prediction must match the concrete interpreter.
        if let Some(mut pool) = symexec::seed_params(m0, fid0) {
            if let Ok(paths) = symexec::enumerate_memoir(m0, fid0, &mut pool, &budget) {
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
                    let concrete = Interp::new(m0)
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
            symexec::prove_memoir_equiv(m0, m, &f.name, &budget)
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
fn report_signature(r: &RunReport) -> String {
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
/// (cache and symbolic oracles dropped, budgets cleared, probe seed,
/// adaptive layouts and the lir phase dropped), then ddmin over the
/// helper list, `main`'s ops, each surviving helper's ops, the MEMOIR
/// pipeline steps, and the lir pipeline steps — holding the failure
/// *class* fixed throughout so the shrink converges on the original bug
/// rather than a new one.
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
    // still crashes. Each entry switches one axis off and says whether
    // it was on: the cache oracle (two extra compiles per trial), the
    // symbolic oracle, budgets, probing, adaptive layouts, and the
    // lowering phase, in that order.
    let drops: [fn(&mut CaseConfig) -> bool; 6] = [
        |c| std::mem::take(&mut c.cache_check),
        |c| std::mem::take(&mut c.sym),
        |c| !std::mem::take(&mut c.budgets).is_unlimited(),
        |c| c.probe_seed.take().is_some(),
        |c| std::mem::take(&mut c.adaptive),
        |c| c.lir_spec.take().is_some(),
    ];
    for drop in drops {
        let mut trial = cfg.clone();
        if drop(&mut trial) && same_kind(&run_case_prog(&prog, spec, &trial)) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genprog::{random_case, random_case_config, random_ops, CaseDims, Op};
    use crate::genspec::{random_lir_spec, random_spec};
    use crate::rng::SplitMix64;

    #[test]
    fn healthy_cases_pass() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..5 {
            let prog = CaseProgram::single(random_ops(&mut rng, 20, false));
            let spec = random_spec(&mut rng);
            let out = run_case_prog(&prog, &spec, &CaseConfig::default());
            assert_eq!(out, Outcome::Pass, "prog {prog:?} spec {spec}");
        }
    }

    #[test]
    fn healthy_cases_pass_through_lowering() {
        let mut rng = SplitMix64::new(13);
        for _ in 0..5 {
            let prog = CaseProgram::single(random_ops(&mut rng, 20, false));
            let spec = random_spec(&mut rng);
            let mut cfg = random_case_config(&mut rng, true);
            cfg.lir_spec = Some(random_lir_spec(&mut rng));
            let out = run_case_prog(&prog, &spec, &cfg);
            assert_eq!(
                out,
                Outcome::Pass,
                "prog {prog:?} spec {spec} lir {:?}",
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
        let prog = CaseProgram::single(vec![Op::Push(-15), Op::Write(61, 67), Op::Push(67)]);
        let spec =
            PipelineSpec::parse("ssa-construct,fixpoint<max=3>(dee-strict),ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::SkipPass,
            lir_spec: Some(PipelineSpec::parse("gvn").unwrap()),
            ..CaseConfig::default()
        };
        assert_eq!(run_case_prog(&prog, &spec, &cfg), Outcome::Pass);

        // crash-1234-101: same root cause through a different spec.
        let prog = CaseProgram::single(vec![
            Op::Push(88),
            Op::Write(64, 9),
            Op::AssocInsert(169, -103),
            Op::Push(-25),
        ]);
        let spec = PipelineSpec::parse("ssa-construct,dee-strict,dee-strict,ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::StopPipeline,
            lir_spec: Some(PipelineSpec::parse("gvn").unwrap()),
            ..CaseConfig::default()
        };
        assert_eq!(run_case_prog(&prog, &spec, &cfg), Outcome::Pass);
    }

    /// Reduced from `memoir-fuzz run --lower --seed 7` (crash-7-193,
    /// reproduces without the lowering phase): constprop branch folding
    /// inside a fixpoint left a φ with an incoming from a now-unreachable
    /// arm — legal SSA per the verifier's one-incoming-per-structural-
    /// predecessor invariant — and `ssa-destruct` panicked trying to
    /// resolve the never-translated value.
    #[test]
    fn ssa_destruct_tolerates_unreachable_phi_incomings() {
        let prog = CaseProgram::single(vec![
            Op::InsertAt(81, 31),
            Op::Write(156, -28),
            Op::Remove(90),
        ]);
        let spec =
            PipelineSpec::parse("ssa-construct,fixpoint<max=3>(constprop,dee-strict),ssa-destruct")
                .unwrap();
        assert_eq!(
            run_case_prog(&prog, &spec, &CaseConfig::default()),
            Outcome::Pass
        );

        // Second manifestation of the same case: with the panic fixed,
        // destruction used to materialize the stranded arm as an empty,
        // terminator-less block, which the (stricter) lir verifier
        // rejected right after the `lower` stage.
        let cfg = CaseConfig {
            lir_spec: Some(PipelineSpec::new(Vec::new())),
            ..CaseConfig::default()
        };
        assert_eq!(run_case_prog(&prog, &spec, &cfg), Outcome::Pass);
    }

    /// Reduced from `memoir-fuzz run --lower --seed 7` (crash-7-46):
    /// the same backward-layout shape made lir's sink pass panic on a
    /// reversed slice range in `region_between`.
    #[test]
    fn sink_survives_backward_layout_in_lowered_modules() {
        let prog = CaseProgram::single(vec![
            Op::Push(32),
            Op::Write(209, -115),
            Op::AssocKeys,
            Op::Push(12),
        ]);
        let spec = PipelineSpec::parse("ssa-construct,dee-strict,ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            lir_spec: Some(PipelineSpec::parse("sink").unwrap()),
            ..CaseConfig::default()
        };
        assert_eq!(run_case_prog(&prog, &spec, &cfg), Outcome::Pass);
    }

    /// Adaptive lowered cases must pass the same differential oracles
    /// as the default hashed layout: the representation selector only
    /// changes storage, never observable results — with or without
    /// fusion in the MEMOIR phase, with or without a lir phase after
    /// `lower`, and under argument probing.
    #[test]
    fn adaptive_lowering_passes_the_differential_oracles() {
        let prog = CaseProgram::single(vec![
            Op::Push(7),
            Op::AssocInsert(3, 40),
            Op::AssocInsert(3, -2),
            Op::Write(1, 9),
            Op::AssocKeys,
            Op::Push(-5),
        ]);
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
                    run_case_prog(&prog, &spec, &cfg),
                    Outcome::Pass,
                    "spec `{spec}` + lir `{lir}`"
                );
            }
        }
    }

    #[test]
    fn injected_panic_is_a_crash_under_abort() {
        let prog = CaseProgram::single(vec![Op::Push(1), Op::Push(2)]);
        let spec = PipelineSpec::parse("ssa-construct,dce,ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            inject: Some("panic@dce".parse().unwrap()),
            ..CaseConfig::default()
        };
        let out = run_case_prog(&prog, &spec, &cfg);
        assert_eq!(out.kind(), Some("panic"), "{out:?}");
    }

    #[test]
    fn injected_panic_is_recovered_under_skip() {
        let prog = CaseProgram::single(vec![Op::Push(1), Op::Push(2), Op::Write(0, 9)]);
        let spec = PipelineSpec::parse("ssa-construct,dce,ssa-destruct").unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::SkipPass,
            inject: Some("panic@dce".parse().unwrap()),
            ..CaseConfig::default()
        };
        // Rollback must leave an interpreter-correct module: no crash.
        assert_eq!(run_case_prog(&prog, &spec, &cfg), Outcome::Pass);
    }

    #[test]
    fn injected_stage_fault_classifies_and_recovers() {
        let prog = CaseProgram::single(vec![Op::Push(3), Op::AssocInsert(1, 4)]);
        let spec = PipelineSpec::parse("ssa-construct,dce,ssa-destruct").unwrap();
        let lir_spec = PipelineSpec::parse("mem2reg,dce").unwrap();

        // An injected verify failure at the stage is its own class…
        let cfg = CaseConfig {
            inject: Some("verify@lower".parse().unwrap()),
            lir_spec: Some(lir_spec.clone()),
            ..CaseConfig::default()
        };
        assert_eq!(
            run_case_prog(&prog, &spec, &cfg).kind(),
            Some("lower-verify")
        );

        // …an injected stage panic under Abort is a plain panic…
        let cfg = CaseConfig {
            inject: Some("panic@lower".parse().unwrap()),
            lir_spec: Some(lir_spec.clone()),
            ..CaseConfig::default()
        };
        assert_eq!(run_case_prog(&prog, &spec, &cfg).kind(), Some("panic"));

        // …and under a recovering policy the stage fault is contained:
        // the MEMOIR module is the (oracle-correct) result.
        let cfg = CaseConfig {
            policy: FaultPolicy::StopPipeline,
            inject: Some("panic@lower".parse().unwrap()),
            lir_spec: Some(lir_spec),
            ..CaseConfig::default()
        };
        assert_eq!(run_case_prog(&prog, &spec, &cfg), Outcome::Pass);
    }

    #[test]
    fn reduction_shrinks_an_injected_crash() {
        let mut rng = SplitMix64::new(3);
        let prog = CaseProgram::single(random_ops(&mut rng, 40, false));
        let spec = PipelineSpec::parse(
            "ssa-construct,constprop,fixpoint<max=3>(simplify,dce),dee,ssa-destruct,rie,dfe",
        )
        .unwrap();
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            inject: Some("panic@dee".parse().unwrap()),
            ..CaseConfig::default()
        };
        let (min, min_spec, _, detail) =
            reduce_case_prog(&prog, &spec, &cfg).expect("still crashes");
        assert!(min.main.len() <= 8, "ops not minimal: {min:?}");
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
    fn reduction_shrinks_config_too() {
        let prog = CaseProgram::single(vec![Op::Push(1), Op::Push(2), Op::AssocInsert(3, 4)]);
        let spec = PipelineSpec::parse("ssa-construct,constprop,dce,ssa-destruct").unwrap();
        // A dce-targeted injected panic: the cache and symbolic oracles,
        // budgets, probing, adaptive layouts, and the lowering phase are
        // irrelevant to the crash, so reduction drops all six.
        let cfg = CaseConfig {
            policy: FaultPolicy::Abort,
            inject: Some("panic@dce".parse().unwrap()),
            budgets: Budgets::parse("growth=16.0,fixpoint=4").unwrap(),
            lir_spec: Some(PipelineSpec::parse("mem2reg,fixpoint<max=3>(constfold,dce)").unwrap()),
            adaptive: true,
            probe_seed: Some(42),
            cache_check: true,
            sym: true,
        };
        let (_, _, min_cfg, detail) = reduce_case_prog(&prog, &spec, &cfg).expect("still crashes");
        assert!(min_cfg.budgets.is_unlimited(), "{:?}", min_cfg.budgets);
        assert!(min_cfg.lir_spec.is_none(), "{:?}", min_cfg.lir_spec);
        assert!(min_cfg.probe_seed.is_none(), "{:?}", min_cfg.probe_seed);
        assert!(!min_cfg.adaptive, "adaptive layouts should be dropped");
        assert!(!min_cfg.cache_check, "cache oracle should be dropped");
        assert!(!min_cfg.sym, "symbolic oracle should be dropped");
        assert!(detail.starts_with("panic:"), "{detail}");
    }

    #[test]
    fn reduction_keeps_the_lir_phase_when_the_crash_needs_it() {
        let prog = CaseProgram::single(vec![Op::Push(5)]);
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
            sym: false,
        };
        let out = run_case_prog(&prog, &spec, &cfg);
        assert_eq!(out.kind(), Some("panic"), "{out:?}");
        let (_, _, min_cfg, _) = reduce_case_prog(&prog, &spec, &cfg).expect("still crashes");
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
