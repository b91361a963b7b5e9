//! The `kernels` workload: the five IR kernels compiled O3 →
//! `lower<adaptive>` → the default lir pipeline and run on `LirMachine`,
//! each result checked against `memoir-interp` on the unoptimized module.

use crate::compile::{self, compile_staged, CompileTotals, Config};
use crate::metrics::{Layers, KERNELS};
use crate::seed;
use crate::stats::{median, spearman};
use crate::trace::Tracer;
use crate::{twins, Window, Workload};
use lir::LirMachine;
use memoir_interp::{Interp, Value};
use memoir_ir::{Module, Type};
use memoir_opt::lowering::LoweredPipeline;
use std::time::Instant;

/// How far the seed moves a kernel's iteration count.
const SPREAD: f64 = 0.02;

/// Instruction budget for one kernel run on either interpreter.
const FUEL: u64 = 2_000_000_000;

/// A kernel's module constructor, entry function and default arguments.
type Definition = (&'static str, fn() -> Module, &'static str, &'static [i64]);

/// The kernels, in [`KERNELS`] order. listing1 is left out: it folds to
/// a constant.
const DEFINITIONS: [Definition; 5] = [
    (
        "mcf",
        workloads::mcf_ir::build_mcf_ir,
        "master",
        &[64, 8, 16, 3],
    ),
    (
        "deepsjeng",
        workloads::deepsjeng_ir::build_deepsjeng_ir,
        "search",
        &[3000],
    ),
    (
        "optlike",
        workloads::optlike_ir::build_optlike_ir,
        "gvn",
        &[5000],
    ),
    (
        "smallbank",
        workloads::smallbank_ir::build_smallbank_ir,
        "bank",
        &[4000],
    ),
    (
        "docstore",
        workloads::docstore::build_docstore_ir,
        "docstore",
        &[4000],
    ),
];

/// The kernel whose arguments stay at their defaults: dead element
/// elimination miscompiles mcf's `master` for many initial basket sizes
/// near the default 64 (65, 67, 68 among them), so a scaled run would
/// fail its check on the compiler rather than measure it.
const UNSCALED: &str = "mcf";

/// Entry arguments per kernel: the defaults with the first (the
/// iteration count) scaled by the seed, except for [`UNSCALED`].
pub fn entry_args(seed: u64) -> Vec<Vec<i64>> {
    DEFINITIONS
        .iter()
        .enumerate()
        .map(|(i, (name, _, _, args))| {
            let mut a = args.to_vec();
            if *name != UNSCALED {
                a[0] = seed::scale(a[0] as usize, SPREAD, seed, i as u64) as i64;
            }
            a
        })
        .collect()
}

/// One kernel with its inputs and expected result.
struct Kernel {
    name: &'static str,
    module: Module,
    entry: &'static str,
    args: Vec<i64>,
    expected: Vec<i64>,
}

/// Runs `entry` on `memoir-interp`, optionally pricing `choices`:
/// results as words, and the model's cycle count.
fn interpret(
    m: &Module,
    entry: &str,
    args: &[i64],
    choices: Option<memoir_ir::ReprChoices>,
) -> Result<(Vec<i64>, f64), String> {
    let mut interp = Interp::new(m).with_fuel(FUEL);
    if let Some(c) = choices {
        interp = interp.with_repr_choices(c);
    }
    let vals = args.iter().map(|&a| Value::Int(Type::Index, a)).collect();
    let out = interp
        .run_by_name(entry, vals)
        .map_err(|e| format!("memoir-interp trapped: {e:?}"))?;
    let words = out
        .iter()
        .map(|v| match v {
            Value::Int(_, x) => Ok(*x),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(format!("non-scalar result {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    Ok((words, interp.stats.cost))
}

/// Runs `entry` on `LirMachine`: results, and the machine's counters.
fn execute(lm: &lir::Module, entry: &str, args: &[i64]) -> (Option<Vec<i64>>, lir::LirStats) {
    let mut mach = LirMachine::new(lm).with_fuel(FUEL);
    let out = mach.run_by_name(entry, args.to_vec()).ok();
    (out, mach.stats)
}

/// The kernels workload's state after set-up.
pub struct Kernels {
    kernels: Vec<Kernel>,
    pipeline: LoweredPipeline,
    build_s: f64,
    code_insts: f64,
}

impl Kernels {
    /// Compiles and runs one kernel: compile and run seconds, final
    /// module size, and whether the result matched.
    fn job(&self, k: &Kernel) -> (f64, f64, usize, bool) {
        let t = Instant::now();
        let lm = compile::compile(&k.module, &self.pipeline);
        let compile_s = t.elapsed().as_secs_f64();
        let Ok(lm) = lm else {
            return (compile_s, 0.0, 0, false);
        };
        let t = Instant::now();
        let (out, _) = execute(&lm, k.entry, &k.args);
        let run_s = t.elapsed().as_secs_f64();
        (
            compile_s,
            run_s,
            lm.inst_count(),
            out.as_ref() == Some(&k.expected),
        )
    }
}

impl Workload for Kernels {
    fn setup(seed: u64) -> Result<Self, String> {
        let t = Instant::now();
        let args = entry_args(seed);
        let built: Vec<(Module, Vec<i64>)> = DEFINITIONS
            .iter()
            .zip(args)
            .map(|(d, a)| (d.1(), a))
            .collect();
        let build_s = t.elapsed().as_secs_f64();
        let mut kernels = Vec::new();
        for ((name, _, entry, _), (module, args)) in DEFINITIONS.iter().zip(built) {
            let (expected, _) = interpret(&module, entry, &args, None)?;
            kernels.push(Kernel {
                name,
                module,
                entry,
                args,
                expected,
            });
        }
        let mut w = Kernels {
            kernels,
            pipeline: compile::pipeline(Config::Optimized),
            build_s,
            code_insts: 0.0,
        };
        // Warm-up: one full round, which also fixes the code size.
        for k in &w.kernels {
            let (_, _, insts, ok) = w.job(k);
            if !ok {
                return Err(format!("kernel {} disagrees with memoir-interp", k.name));
            }
            w.code_insts += insts as f64;
        }
        Ok(w)
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn measure(&mut self, seconds: f64) -> Window {
        let mut w = Window::default();
        let (mut compile_s, mut run_s) = (Vec::new(), Vec::new());
        let mut share = vec![Vec::new(); self.kernels.len()];
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds || compile_s.is_empty() {
            let (mut c, mut r) = (0.0, 0.0);
            for (i, k) in self.kernels.iter().enumerate() {
                let (cs, rs, _, ok) = self.job(k);
                c += cs;
                r += rs;
                share[i].push(rs / (cs + rs));
                w.job(i, (cs + rs) * 1e3, ok);
            }
            compile_s.push(c);
            run_s.push(r);
            w.probe_host();
        }
        // How much of a job, and of a round, is `LirMachine` running the
        // code rather than compiling it.
        let round_share = compile_s
            .iter()
            .zip(&run_s)
            .map(|(c, r)| r / (c + r))
            .collect();
        w.report("run_share", "fraction", round_share);
        for (k, s) in self.kernels.iter().zip(share) {
            w.report(format!("run_share.{}", k.name), "fraction", s);
        }
        w.report("compile_s", "s", compile_s);
        w.report("run_s", "s", run_s);
        w.report("code_insts", "count", vec![self.code_insts]);
        w
    }

    fn trace(
        &mut self,
        seconds: f64,
        layers: &mut Layers,
    ) -> (Window, Vec<(&'static str, String)>) {
        let untraced = self.measure(seconds / 2.0);
        let mut tr = Tracer::new(true);
        let mut w = Window::default();
        let mut totals = CompileTotals::default();
        let n = self.kernels.len();
        let (mut compile_s, mut run_s) = (Vec::new(), Vec::new());
        let mut exec_s = vec![Vec::new(); n];
        let mut interp_s = vec![Vec::new(); n];
        let mut exec_insts = vec![0.0; n];
        let mut cycles = vec![0.0; n];
        let (mut loads, mut stores, mut rt_calls, mut insts, mut lir_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let start = Instant::now();
        let mut g = 0;
        while start.elapsed().as_secs_f64() < seconds / 2.0 || compile_s.is_empty() {
            let (mut c, mut r) = (0.0, 0.0);
            for (i, k) in self.kernels.iter().enumerate() {
                g += 1;
                let t = Instant::now();
                let staged = compile_staged(&mut tr, g, &k.module, &self.pipeline);
                let compiled = t.elapsed().as_secs_f64();
                let Ok(staged) = staged else {
                    w.job(i, compiled * 1e3, false);
                    continue;
                };
                let t = Instant::now();
                let (out, st) = tr.span("lir.exec", g, |_| {
                    execute(&staged.lowered, k.entry, &k.args)
                });
                let ran = t.elapsed().as_secs_f64();
                // The first round also checks that the staged compile is
                // byte-identical to `compile_lowered_with`.
                let same = !compile_s.is_empty()
                    || compile::compile(&k.module, &self.pipeline).is_ok_and(|lm| {
                        lir::printer::print_module(&lm)
                            == lir::printer::print_module(&staged.lowered)
                    });
                w.job(
                    i,
                    (compiled + ran) * 1e3,
                    same && out.as_ref() == Some(&k.expected),
                );
                c += compiled;
                r += ran;
                exec_s[i].push(ran);
                exec_insts[i] = st.insts as f64;
                loads += st.loads as f64;
                stores += st.stores as f64;
                rt_calls += st.rt_calls as f64;
                insts += st.insts as f64;
                lir_s += ran;
                totals.add(&staged);

                // Measured in isolation, outside the compile path.
                let choices = tr.span("memoir-analysis.choose_reprs", g, |_| {
                    memoir_analysis::choose_reprs(&staged.optimized)
                });
                tr.span("symexec.prove", g, |_| {
                    compile::prove_all(&staged.optimized, &staged.unoptimized)
                });
                let t = Instant::now();
                let model = tr.span("memoir-interp.exec", g, |_| {
                    interpret(&staged.optimized, k.entry, &k.args, Some(choices))
                });
                interp_s[i].push(t.elapsed().as_secs_f64());
                cycles[i] = model.map_or(0.0, |(_, cost)| cost);
            }
            compile_s.push(c);
            run_s.push(r);
        }
        let rounds = compile_s.len() as f64;
        totals.report(&tr, rounds, layers);
        layers.set(
            "memoir-analysis.choose_reprs_s",
            tr.total("memoir-analysis.choose_reprs") / rounds,
        );
        layers.set("symexec.prove_s", tr.total("symexec.prove") / rounds);
        for (i, k) in KERNELS.iter().enumerate() {
            layers.set(&format!("lir.exec_s.{k}"), median(&exec_s[i]));
            layers.set(&format!("lir.exec_insts.{k}"), exec_insts[i]);
            layers.set(&format!("memoir-interp.exec_s.{k}"), median(&interp_s[i]));
            layers.set(&format!("memoir-interp.model_cycles.{k}"), cycles[i]);
        }
        layers.set("lir.loads", loads / rounds);
        layers.set("lir.stores", stores / rounds);
        layers.set("lir.rt_calls", rt_calls / rounds);
        layers.set("lir.ns_per_inst", lir_s / insts * 1e9);
        layers.set(
            "trace.compile_s_overhead",
            median(&compile_s) / median(untraced.samples("compile_s")) - 1.0,
        );
        layers.set(
            "trace.run_s_overhead",
            median(&run_s) / median(untraced.samples("run_s")) - 1.0,
        );
        let (table, rho) = self.calibrate();
        layers.set("memoir-interp.rank_corr", rho);
        w.absorb(untraced);
        (
            w,
            vec![
                ("calibration", table),
                ("self_s", crate::self_times_json(&tr)),
                ("spans", tr.spans_json()),
            ],
        )
    }
}

/// Calibration runs per kernel × configuration.
const CALIBRATION_RUNS: usize = 9;

/// The native twin variant standing for a kernel under a configuration
/// (`None` for docstore, which has no twin). The MEMOIR passes behind
/// mcf's and deepsjeng's twin variants run in every configuration, so
/// their optimized twin stands for the fully optimized configuration.
fn twin_of(kernel: &str, config: Config) -> Option<(&'static str, &'static str)> {
    let full = config == Config::Optimized;
    match kernel {
        "mcf" => Some(("mcf", if full { "all" } else { "base" })),
        "deepsjeng" => Some(("deepsjeng", if full { "fe" } else { "base" })),
        "optlike" => Some(("optlike", "base")),
        "smallbank" => Some((
            "smallbank",
            match config {
                Config::Baseline => "default",
                Config::Fusion => "fused",
                Config::Optimized => "both",
            },
        )),
        _ => None,
    }
}

/// The configurations calibrated, and the steps between them whose
/// direction the model and the clocks must agree on.
const CONFIGS: [Config; 3] = [Config::Baseline, Config::Fusion, Config::Optimized];
const STEPS: [(usize, usize, &str); 2] = [(0, 1, "fusion"), (1, 2, "adaptive")];

/// One row of the calibration table.
struct Row {
    kernel: &'static str,
    config: Config,
    model_cycles: f64,
    lir_insts: f64,
    lir_s: f64,
    twin: Option<(&'static str, f64)>,
}

/// Changes smaller than these count as none: counts repeat exactly,
/// clocks carry the machine's noise.
const COUNT_TOLERANCE: f64 = 0.02;
const CLOCK_TOLERANCE: f64 = 0.05;

/// Sign of a relative change, with changes under `tolerance` counted as
/// none.
fn sign(base: f64, new: f64, tolerance: f64) -> i32 {
    let rel = new / base - 1.0;
    if rel.abs() < tolerance {
        0
    } else if rel < 0.0 {
        -1
    } else {
        1
    }
}

/// Median seconds of `CALIBRATION_RUNS` calls of `f`.
fn timed(mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..CALIBRATION_RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

impl Kernels {
    /// Compiles every kernel under each configuration and sets the
    /// model's cycles beside the clocks: instructions executed,
    /// `LirMachine` time and native twin time. Returns the table as JSON
    /// with every step (fusion on, then adaptive on) where the model and
    /// a clock disagree in sign, and Spearman's rho of model cycles
    /// against `LirMachine` time.
    fn calibrate(&self) -> (String, f64) {
        let params = twins::Params::default();
        let mut rows = Vec::new();
        for k in &self.kernels {
            for config in CONFIGS {
                let lp = compile::pipeline(config);
                let Ok(s) = compile_staged(&mut Tracer::new(false), 0, &k.module, &lp) else {
                    continue;
                };
                let choices = (config == Config::Optimized)
                    .then(|| memoir_analysis::choose_reprs(&s.optimized));
                let model = interpret(&s.optimized, k.entry, &k.args, choices).map_or(0.0, |m| m.1);
                let lir_insts = execute(&s.lowered, k.entry, &k.args).1.insts as f64;
                let lir_s = timed(|| {
                    std::hint::black_box(execute(&s.lowered, k.entry, &k.args));
                });
                let twin = twin_of(k.name, config).map(|(twin, variant)| {
                    let t = timed(|| {
                        std::hint::black_box(twins::run_variant(&params, twin, variant));
                    });
                    (variant, t)
                });
                rows.push(Row {
                    kernel: k.name,
                    config,
                    model_cycles: model,
                    lir_insts,
                    lir_s,
                    twin,
                });
            }
        }
        let model: Vec<f64> = rows.iter().map(|r| r.model_cycles).collect();
        let clock: Vec<f64> = rows.iter().map(|r| r.lir_s).collect();
        let rho = spearman(&model, &clock);
        let mut disagreements = Vec::new();
        for kernel_rows in rows.chunks(CONFIGS.len()) {
            if kernel_rows.len() != CONFIGS.len() {
                continue;
            }
            for (from, to, step) in STEPS {
                let (a, b) = (&kernel_rows[from], &kernel_rows[to]);
                let m = sign(a.model_cycles, b.model_cycles, COUNT_TOLERANCE);
                let mut clocks = vec![
                    ("lir_insts", sign(a.lir_insts, b.lir_insts, COUNT_TOLERANCE)),
                    ("lir_s", sign(a.lir_s, b.lir_s, CLOCK_TOLERANCE)),
                ];
                // A twin clock counts only where the twin variant changes.
                if let (Some((va, ta)), Some((vb, tb))) = (a.twin, b.twin) {
                    if va != vb {
                        clocks.push(("twin_s", sign(ta, tb, CLOCK_TOLERANCE)));
                    }
                }
                for (clock, c) in clocks.into_iter().filter(|&(_, c)| c != m) {
                    disagreements.push(format!(
                        "{{\"kernel\": \"{}\", \"step\": \"{step}\", \"clock\": \"{clock}\", \"model_sign\": {m}, \"clock_sign\": {c}}}",
                        a.kernel
                    ));
                }
            }
        }
        for r in &rows {
            eprintln!(
                "calibration {:>10} {:>9}  model {:>10.0} cycles  lir {:>8.0} insts {:>8.3} ms  twin {}",
                r.kernel,
                r.config.name(),
                r.model_cycles,
                r.lir_insts,
                r.lir_s * 1e3,
                r.twin
                    .map_or("-".to_string(), |(v, t)| format!("{v} {:.3} ms", t * 1e3)),
            );
        }
        eprintln!(
            "calibration rank_corr {rho:.3}; disagreements: {}",
            disagreements.join(", ")
        );
        let rows_json: Vec<String> = rows
            .iter()
            .map(|r| {
                let twin = r.twin.map_or("null".to_string(), |(v, t)| {
                    format!("{{\"variant\": \"{v}\", \"s\": {t}}}")
                });
                format!(
                    "{{\"kernel\": \"{}\", \"config\": \"{}\", \"model_cycles\": {}, \"lir_insts\": {}, \"lir_s\": {}, \"twin\": {twin}}}",
                    r.kernel,
                    r.config.name(),
                    r.model_cycles,
                    r.lir_insts,
                    r.lir_s,
                )
            })
            .collect();
        (
            format!(
                "{{\"rows\": [{}], \"rank_corr\": {rho}, \"disagreements\": [{}]}}",
                rows_json.join(", "),
                disagreements.join(", ")
            ),
            rho,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_args_depend_only_on_the_seed() {
        assert_eq!(entry_args(5), entry_args(5));
        assert_ne!(entry_args(5), entry_args(6));
        for seed in 0..50 {
            for (args, d) in entry_args(seed).iter().zip(&DEFINITIONS) {
                assert_eq!(args.len(), d.3.len());
                assert_eq!(args[1..], d.3[1..], "only the iteration count moves");
                let base = d.3[0] as f64;
                assert!((args[0] as f64 - base).abs() <= base * SPREAD + 0.5);
                if d.0 == UNSCALED {
                    assert_eq!(args[..], d.3[..]);
                }
            }
        }
    }

    #[test]
    fn kernel_names_follow_the_registry() {
        let names: Vec<&str> = DEFINITIONS.iter().map(|d| d.0).collect();
        assert_eq!(names, KERNELS);
    }

    #[test]
    fn sign_ignores_small_changes() {
        assert_eq!(sign(100.0, 101.0, COUNT_TOLERANCE), 0);
        assert_eq!(sign(100.0, 104.0, CLOCK_TOLERANCE), 0);
        assert_eq!(sign(100.0, 90.0, CLOCK_TOLERANCE), -1);
        assert_eq!(sign(100.0, 130.0, COUNT_TOLERANCE), 1);
    }
}
