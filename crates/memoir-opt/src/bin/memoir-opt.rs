//! The `memoir-opt` command-line driver: parse textual MEMOIR IR, run a
//! pipeline spec over it, print the optimized module.
//!
//! ```text
//! memoir-opt --passes='ssa-construct,constprop,fixpoint<max=4>(simplify,dce),ssa-destruct' \
//!            --on-fault=skip --budget=pass-ms=500,growth=4.0 --report in.mir -o out.mir
//! ```

use memoir_opt::lowering::{compile_lowered_with, split_lowered_spec, LowerConfig};
use memoir_opt::pipeline::{compile_spec_with, default_spec, OptConfig, OptLevel};
use passman::{threads_from_env, Budgets, FaultPlan, FaultPolicy, PipelineSpec};
use std::io::{Read, Write};
use std::process::ExitCode;

const USAGE: &str = "\
memoir-opt — run a MEMOIR pass pipeline over textual IR

USAGE:
    memoir-opt [OPTIONS] [INPUT]

ARGS:
    INPUT...              input files of textual MEMOIR IR (default: stdin).
                          Several inputs form a job stream: each is compiled
                          through the same pipeline in order, and with
                          --cache they share one compile cache, so functions
                          repeated across jobs are not re-optimized

OPTIONS:
    --passes=SPEC         pipeline spec, e.g. 'ssa-construct,constprop,
                          fixpoint<max=4>(simplify,sink,dce),ssa-destruct';
                          per-pass budgets ride along as options
                          (dce<max-ms=50>, dee<max-growth=2.0>). The
                          pseudo-pass `lower` splits the pipeline: passes
                          after it run on the lowered low-level IR, e.g.
                          '...,ssa-destruct,lower,mem2reg,constfold,dce'.
                          `lower<max-ms=N>` budgets the stage,
                          `lower<no-cross-check>` skips the interpreter-
                          agreement probes (the lir verifier always runs)
    -O0                   preset: SSA round-trip only
    -O3                   preset: the full default pipeline (the default)
    --lower               preset: -O3, then `lower`, then the default lir
                          pipeline; output is low-level IR
    --on-fault=POLICY     abort (default) | skip | stop — what to do when a
                          pass panics, fails verification, or blows a budget
    --budget=LIST         pipeline-wide budgets:
                          pass-ms=N,pipeline-ms=N,growth=F,fixpoint=N
    --verify=on|off       force inter-pass IR verification (default: on in
                          debug builds, off in release)
    --inject=PLAN         test-only fault injection, e.g. panic@dce,
                          verify@#3, budget@dee#2, panic@simplify%1
                          (%N targets function N of a sharded pass)
    --threads=N           worker threads for function-sharded passes
                          (default: MEMOIR_THREADS, else 1 = serial;
                          results are identical to serial)
    --cache               share a fingerprint-keyed compile cache across
                          all jobs of this invocation: per-function pass
                          outputs, analyses, and lowered bodies of unchanged
                          functions are reused instead of recomputed
                          (MEMOIR_CACHE=1 enables the same cache globally)
    --report              print the per-pass report table to stderr
    -o FILE               write the optimized module to FILE (default: stdout)
    -h, --help            show this help
";

struct Cli {
    inputs: Vec<String>,
    output: Option<String>,
    spec: PipelineSpec,
    policy: FaultPolicy,
    budgets: Budgets,
    verify: Option<bool>,
    inject: Option<FaultPlan>,
    threads: Option<usize>,
    report: bool,
    cache: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        inputs: Vec::new(),
        output: None,
        spec: default_spec(OptLevel::O3(OptConfig::all())),
        policy: FaultPolicy::Abort,
        budgets: Budgets::none(),
        verify: None,
        inject: None,
        threads: None,
        report: false,
        cache: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag {
            "-h" | "--help" => return Ok(None),
            "--passes" => {
                cli.spec = PipelineSpec::parse(&value(&mut it)?)
                    .map_err(|e| format!("bad --passes spec: {e}"))?;
            }
            "-O0" => cli.spec = default_spec(OptLevel::O0),
            "-O3" => cli.spec = default_spec(OptLevel::O3(OptConfig::all())),
            "--lower" => {
                let memoir = default_spec(OptLevel::O3(OptConfig::all()));
                let lir = lir::passes::default_spec();
                cli.spec = PipelineSpec::parse(&format!("{memoir},lower,{lir}"))
                    .expect("default lowered spec is well-formed");
            }
            "--on-fault" => cli.policy = value(&mut it)?.parse()?,
            "--budget" => cli.budgets = Budgets::parse(&value(&mut it)?)?,
            "--verify" => {
                cli.verify = Some(match value(&mut it)?.as_str() {
                    "on" | "true" => true,
                    "off" | "false" => false,
                    other => return Err(format!("bad --verify value `{other}`")),
                })
            }
            "--inject" => cli.inject = Some(value(&mut it)?.parse()?),
            "--threads" => {
                cli.threads = Some(
                    value(&mut it)?
                        .parse::<usize>()
                        .map_err(|e| format!("bad --threads value: {e}"))?,
                )
            }
            "--report" => cli.report = true,
            "--cache" => cli.cache = true,
            "-o" | "--output" => cli.output = Some(value(&mut it)?),
            _ if flag.starts_with('-') && flag != "-" => {
                return Err(format!("unknown option `{flag}` (try --help)"))
            }
            _ => cli.inputs.push(arg.clone()),
        }
    }
    Ok(Some(cli))
}

fn run(cli: Cli) -> Result<(), String> {
    let cache = if cli.cache {
        Some(passman::CompileCache::new())
    } else {
        passman::cache_from_env()
    };
    if cli.inputs.len() > 1 && cli.output.is_some() {
        return Err("-o cannot be combined with more than one input".into());
    }
    let inputs: Vec<Option<&str>> = if cli.inputs.is_empty() {
        vec![None]
    } else {
        cli.inputs.iter().map(|p| Some(p.as_str())).collect()
    };
    for input in inputs {
        run_job(&cli, input, cache.clone())?;
    }
    Ok(())
}

/// Compiles one input through the shared pipeline and cache.
fn run_job(
    cli: &Cli,
    input: Option<&str>,
    cache: Option<passman::CompileCache>,
) -> Result<(), String> {
    let src = match input {
        None | Some("-") => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| format!("reading stdin: {e}"))?;
            s
        }
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?
        }
    };
    let mut m = memoir_ir::parser::parse_module(&src).map_err(|e| format!("parsing input: {e}"))?;

    let lowered_pipeline = split_lowered_spec(&cli.spec)?;
    let cfg = LowerConfig {
        policy: cli.policy,
        budgets: cli.budgets,
        verify: cli.verify,
        inject: cli.inject.clone(),
        threads: cli.threads.unwrap_or_else(threads_from_env),
        cross_check: true,
        cache,
        adaptive: false,
    };
    let (report, lowered) = match &lowered_pipeline {
        Some(lp) => {
            let out = compile_lowered_with(&mut m, lp, &cfg)
                .map_err(|e| format!("pipeline failed: {e}"))?;
            (out.report, out.lowered)
        }
        None => {
            let report = compile_spec_with(&mut m, &cli.spec, |pm| cfg.apply(pm))
                .map_err(|e| format!("pipeline failed: {e}"))?;
            (report, None)
        }
    };

    for d in &report.run.degradations {
        eprintln!("memoir-opt: warning: {d}");
    }
    if report.run.stopped_early {
        eprintln!("memoir-opt: warning: pipeline stopped before completing the spec");
    }
    if lowered_pipeline.is_some() && lowered.is_none() {
        eprintln!(
            "memoir-opt: warning: lowering did not complete; emitting the optimized MEMOIR module"
        );
    }
    if cli.report {
        if let Some(path) = input {
            eprintln!("== {path}");
        }
        eprint!("{}", report.run.render_table());
        eprintln!("total {:.3}ms", report.total_ms());
    }

    let text = match &lowered {
        Some(lm) => lir::printer::print_module(lm),
        None => memoir_ir::printer::print_module(&m),
    };
    match cli.output.as_deref() {
        None | Some("-") => std::io::stdout()
            .write_all(text.as_bytes())
            .map_err(|e| format!("writing stdout: {e}"))?,
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing `{path}`: {e}"))?,
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(None) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(cli)) => match run(cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("memoir-opt: error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("memoir-opt: error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
