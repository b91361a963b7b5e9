//! The compile path shared by the `kernels` and `whole-program`
//! workloads: once untraced through `compile_lowered_with`, and once
//! stage by stage through each layer's public call, with a span around
//! every call.

use crate::metrics::Layers;
use crate::trace::Tracer;
use memoir_ir::Module;
use memoir_lower::{cross_validate, lower_module_opts, CrossCheckReport, LowerOptions};
use memoir_opt::lowering::{
    compile_lowered_with, split_lowered_spec, LowerConfig, LoweredPipeline,
};
use memoir_opt::pipeline::{compile_spec_with, default_spec, OptConfig, OptLevel};
use passman::{PipelineSpec, RunReport};
use std::collections::BTreeMap;

/// The MEMOIR passes whose times are reported, by spec name.
pub const MEMOIR_PASSES: &[&str] = &[
    "ssa-construct",
    "constprop",
    "fusion",
    "dee",
    "simplify",
    "sink",
    "dce",
    "ssa-destruct",
    "field-elision",
    "rie",
    "key-fold",
    "dfe",
];

/// The lir passes whose times are reported, by spec name.
pub const LIR_PASSES: &[&str] = &["mem2reg", "constfold", "gvn", "sink", "dce"];

/// Pass counters reported per layer, as `(pass, stat)`: those nonzero
/// on some workload.
pub const PASS_STATS: &[(&str, &str)] = &[
    ("constprop", "scalars_folded"),
    ("fusion", "rmws_fused"),
    ("fusion", "queries_folded"),
    ("dee", "ops_dropped"),
    ("simplify", "phis_removed"),
    ("sink", "sunk"),
    ("dce", "insts_removed"),
    ("dfe", "fields_eliminated"),
];

/// Which pipeline a module is compiled with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// O3 with fusion stripped → `lower` without adaptive
    /// representations → the default lir pipeline.
    Baseline,
    /// O3 with every MEMOIR optimization → `lower` without adaptive
    /// representations → the default lir pipeline.
    Fusion,
    /// O3 with every MEMOIR optimization → `lower<adaptive>` → the
    /// default lir pipeline.
    Optimized,
}

impl Config {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Config::Baseline => "baseline",
            Config::Fusion => "fusion",
            Config::Optimized => "optimized",
        }
    }
}

/// The lowered pipeline for a configuration.
pub fn pipeline(config: Config) -> LoweredPipeline {
    let o3 = default_spec(OptLevel::O3(OptConfig::all())).to_string();
    let lir = lir::passes::default_spec();
    let spec = match config {
        Config::Baseline => {
            let memoir: Vec<&str> = o3.split(',').filter(|p| *p != "fusion").collect();
            format!("{},lower,{lir}", memoir.join(","))
        }
        Config::Fusion => format!("{o3},lower,{lir}"),
        Config::Optimized => format!("{o3},lower<adaptive>,{lir}"),
    };
    let spec = PipelineSpec::parse(&spec).expect("benchmark spec parses");
    split_lowered_spec(&spec)
        .expect("benchmark spec splits at `lower`")
        .expect("benchmark spec has a `lower` step")
}

/// The lower stage's configuration: the default (cross-check on) with
/// one thread, whatever `MEMOIR_THREADS` says.
pub fn lower_config() -> LowerConfig {
    LowerConfig {
        threads: 1,
        ..LowerConfig::default()
    }
}

/// Compiles a clone of `m` through `compile_lowered_with`.
pub fn compile(m: &Module, lp: &LoweredPipeline) -> Result<lir::Module, String> {
    let mut m = m.clone();
    compile_lowered_with(&mut m, lp, &lower_config())
        .map_err(|e| e.to_string())?
        .lowered
        .ok_or_else(|| "lowering produced no module".to_string())
}

/// What a staged compile produced and counted.
pub struct Staged {
    /// The final lir module.
    pub lowered: lir::Module,
    /// The module after the MEMOIR phase.
    pub optimized: Module,
    /// The lowered module before the lir passes (what validation checks).
    pub unoptimized: lir::Module,
    memoir: RunReport,
    lir: RunReport,
    lower: memoir_lower::LowerStats,
    lowered_insts: usize,
    check: CrossCheckReport,
}

/// Compiles a clone of `m` stage by stage, the same calls
/// `compile_lowered_with` makes, each inside a span of group `g`:
/// `memoir-opt.compile`, `memoir-lower.lower`, `lir.verify`,
/// `memoir-lower.validate` and `lir.optimize`, under one `compile` span.
pub fn compile_staged(
    tr: &mut Tracer,
    g: u64,
    m: &Module,
    lp: &LoweredPipeline,
) -> Result<Staged, String> {
    let mut m = m.clone();
    tr.span("compile", g, |tr| {
        let memoir = tr
            .span("memoir-opt.compile", g, |_| {
                compile_spec_with(&mut m, &lp.memoir, |pm| pm.with_threads(1))
            })
            .map_err(|e| e.to_string())?
            .run;
        let opts = LowerOptions {
            threads: 1,
            cache: None,
            adaptive: lp.lower_opts.flag("adaptive"),
        };
        let run = tr
            .span("memoir-lower.lower", g, |_| lower_module_opts(&m, &opts))
            .map_err(|e| e.to_string())?;
        let errs = tr.span("lir.verify", g, |_| {
            lir::verifier::verify_module(&run.module)
        });
        if !errs.is_empty() {
            return Err(format!(
                "lowered module fails verification: {}",
                errs.join("; ")
            ));
        }
        let check = tr
            .span("memoir-lower.validate", g, |_| {
                cross_validate(&m, &run.module, memoir_lower::DEFAULT_PROBES)
            })
            .map_err(|e| e.to_string())?;
        let lowered_insts = run.module.inst_count();
        let unoptimized = run.module.clone();
        let mut lm = run.module;
        let lir = tr
            .span("lir.optimize", g, |_| {
                lir::passes::optimize(&mut lm, &lp.lir)
            })
            .map_err(|e| e.to_string())?;
        Ok(Staged {
            lowered: lm,
            optimized: m,
            unoptimized,
            memoir,
            lir,
            lower: run.stats,
            lowered_insts,
            check,
        })
    })
}

/// Per-layer sums over staged compiles.
#[derive(Default)]
pub struct CompileTotals {
    pass_s: BTreeMap<String, f64>,
    lir_pass_s: BTreeMap<String, f64>,
    stats: BTreeMap<(String, &'static str), f64>,
    overhead_s: f64,
    analysis_hits: u64,
    analysis_lookups: u64,
    insts_after_memoir: f64,
    lir_insts: f64,
    dense_assocs: f64,
    inline_seqs: f64,
    proved: f64,
    probed: f64,
    skipped: f64,
}

impl CompileTotals {
    /// Adds one staged compile.
    pub fn add(&mut self, s: &Staged) {
        for (run, times) in [
            (&s.memoir, &mut self.pass_s),
            (&s.lir, &mut self.lir_pass_s),
        ] {
            let mut passes = 0.0;
            for p in &run.passes {
                let t = p.time.as_secs_f64();
                passes += t;
                *times.entry(p.name.clone()).or_default() += t;
            }
            self.overhead_s += run.total.as_secs_f64() - passes;
            for (_, c) in &run.cache {
                self.analysis_hits += c.hits;
                self.analysis_lookups += c.hits + c.misses;
            }
        }
        for p in &s.memoir.passes {
            for &(k, v) in &p.stats {
                *self.stats.entry((p.name.clone(), k)).or_default() += v as f64;
            }
        }
        self.insts_after_memoir += s.optimized.inst_count() as f64;
        self.lir_insts += s.lowered_insts as f64;
        self.dense_assocs += s.lower.dense_assocs as f64;
        self.inline_seqs += s.lower.inline_seqs as f64;
        self.proved += s.check.functions_proved as f64;
        self.probed += s.check.functions_probed as f64;
        self.skipped += s.check.functions_skipped as f64;
    }

    /// Writes the per-layer metrics, each divided by `rounds` (the
    /// number of passes over the workload's module set).
    pub fn report(&self, tr: &Tracer, rounds: f64, layers: &mut Layers) {
        let per = |v: f64| v / rounds;
        for pass in MEMOIR_PASSES {
            let t = self.pass_s.get(*pass).copied().unwrap_or(0.0);
            layers.set(&format!("memoir-opt.{pass}_s"), per(t));
        }
        for (pass, stat) in PASS_STATS {
            let v = self
                .stats
                .get(&(pass.to_string(), *stat))
                .copied()
                .unwrap_or(0.0);
            layers.set(&format!("memoir-opt.{pass}.{stat}"), per(v));
        }
        for pass in LIR_PASSES {
            let t = self.lir_pass_s.get(*pass).copied().unwrap_or(0.0);
            layers.set(&format!("lir.{pass}_s"), per(t));
        }
        layers.set("memoir-ir.insts_after_memoir", per(self.insts_after_memoir));
        layers.set("passman.overhead_s", per(self.overhead_s));
        if self.analysis_lookups > 0 {
            layers.set(
                "passman.analysis_hit_rate",
                self.analysis_hits as f64 / self.analysis_lookups as f64,
            );
        }
        layers.set("memoir-lower.lower_s", per(tr.total("memoir-lower.lower")));
        layers.set(
            "memoir-lower.validate_s",
            per(tr.total("memoir-lower.validate")),
        );
        layers.set("memoir-lower.functions_proved", per(self.proved));
        layers.set("memoir-lower.functions_probed", per(self.probed));
        layers.set("memoir-lower.functions_skipped", per(self.skipped));
        layers.set("memoir-lower.lir_insts", per(self.lir_insts));
        layers.set("memoir-lower.dense_assocs", per(self.dense_assocs));
        layers.set("memoir-lower.inline_seqs", per(self.inline_seqs));
    }
}

/// Proves every function of `m` against its lowering with the symbolic
/// oracle alone (the prove tier of `cross_validate`, run in isolation);
/// returns how many were proved.
pub fn prove_all(m: &Module, lm: &lir::Module) -> usize {
    let budget = symexec::Budget::default();
    m.funcs
        .iter()
        .filter(|(_, f)| {
            matches!(
                symexec::prove_lowering(m, lm, &f.name, &budget),
                symexec::FnVerdict::Proved
            )
        })
        .count()
}
