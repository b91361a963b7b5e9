//! The `memoird` command-line driver: feed a stream of compile jobs
//! through the service's robustness envelope.
//!
//! ```text
//! memoird --workers=4 --timeout-ms=500 --cache --report jobs.txt
//! echo 'synth(12,7) :: ssa-construct,dce,ssa-destruct' | memoird --report
//! ```

use memoir_opt::{default_spec, OptConfig, OptLevel};
use memoird::{JobFaultPlan, JobLine, JobSource, JobSpec, ServiceConfig, ServiceStats};
use passman::{Budgets, FaultPolicy, PipelineSpec};
use std::io::{Read, Write};
use std::process::ExitCode;

const USAGE: &str = "\
memoird — run a stream of MEMOIR compile jobs through the robust service

USAGE:
    memoird [OPTIONS] [JOBFILE...]

JOB STREAM:
    Each non-empty, non-# line of the job files (default: stdin) is one
    job: `SOURCE [:: SPEC]`, where SOURCE is a file of textual MEMOIR IR
    or `synth(<nfuncs>,<seed>)`, and SPEC overrides the default pipeline
    for that job, e.g.

        examples/listing1.mir
        synth(12,7) :: ssa-construct,constprop,dce,ssa-destruct
        synth(4,1)  :: ssa-construct,dce,ssa-destruct,lower,mem2reg,dce

OPTIONS:
    --passes=SPEC         default pipeline for jobs without `:: SPEC`
                          (default: the full -O3 pipeline); a `lower`
                          step makes jobs emit low-level IR
    --lower               default preset: -O3, then `lower`, then the
                          default lir pipeline
    --workers=N           worker threads (module-level parallelism;
                          default 2)
    --job-threads=N       function-shard threads *within* each job
                          (default 1; attempts after the second run
                          serially)
    --timeout-ms=N        per-attempt wall-clock timeout, watchdogged;
                          also handed to the pipeline as an in-band
                          pipeline-ms budget (default: none)
    --budget=LIST         per-job budgets, as in memoir-opt:
                          pass-ms=N,pipeline-ms=N,growth=F,fixpoint=N
    --on-fault=POLICY     pass-level policy inside each attempt:
                          abort | skip (default) | stop
    --retries=N           max attempts per job (default 5); attempt k
                          runs on rung k of full, full, no-cache,
                          baseline, and later attempts on baseline
    --backoff-ms=N        base retry backoff (default 10; exponential,
                          capped, deterministically jittered from --seed)
    --seed=N              service seed for backoff jitter (default 0)
    --queue-cap=N         bounded job queue capacity (default 64);
                          a job submitted while N jobs wait is shed
    --cache               share one compile cache across all jobs
    --job-cache           also cache whole job outputs (implies --cache)
    --inject=PLAN         service-level fault injection (repeatable):
                          slow-job@i, worker-panic@i, poison-cache@i,
                          `@*` for every job, `#k` to pick the attempt
    --report              print the service report table to stderr
    -h, --help            show this help

EXIT STATUS:
    0 if every job ended ok or degraded-ok, 1 if any was shed or failed,
    2 on usage errors.
";

struct Cli {
    inputs: Vec<String>,
    default_spec: PipelineSpec,
    job_threads: usize,
    policy: FaultPolicy,
    budgets: Budgets,
    cfg: ServiceConfig,
    use_cache: bool,
    report: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        inputs: Vec::new(),
        default_spec: default_spec(OptLevel::O3(OptConfig::all())),
        job_threads: 1,
        policy: FaultPolicy::SkipPass,
        budgets: Budgets::none(),
        cfg: ServiceConfig::default(),
        use_cache: false,
        report: false,
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
        let parse_num = |text: String, what: &str| -> Result<u64, String> {
            text.parse::<u64>()
                .map_err(|e| format!("bad {what} value `{text}`: {e}"))
        };
        match flag {
            "-h" | "--help" => return Ok(None),
            "--passes" => {
                cli.default_spec = PipelineSpec::parse(&value(&mut it)?)
                    .map_err(|e| format!("bad --passes spec: {e}"))?;
            }
            "--lower" => {
                let memoir = default_spec(OptLevel::O3(OptConfig::all()));
                let lir = lir::passes::default_spec();
                cli.default_spec = PipelineSpec::parse(&format!("{memoir},lower,{lir}"))
                    .expect("default lowered spec is well-formed");
            }
            "--workers" => cli.cfg.workers = parse_num(value(&mut it)?, "--workers")? as usize,
            "--job-threads" => {
                cli.job_threads = (parse_num(value(&mut it)?, "--job-threads")? as usize).max(1)
            }
            "--timeout-ms" => {
                cli.cfg.timeout_ms = Some(parse_num(value(&mut it)?, "--timeout-ms")?)
            }
            "--budget" => cli.budgets = Budgets::parse(&value(&mut it)?)?,
            "--on-fault" => cli.policy = value(&mut it)?.parse()?,
            "--retries" => {
                cli.cfg.retry.max_attempts =
                    (parse_num(value(&mut it)?, "--retries")? as usize).max(1)
            }
            "--backoff-ms" => {
                cli.cfg.retry.base_backoff_ms = parse_num(value(&mut it)?, "--backoff-ms")?
            }
            "--seed" => cli.cfg.seed = parse_num(value(&mut it)?, "--seed")?,
            "--queue-cap" => {
                cli.cfg.queue_cap = parse_num(value(&mut it)?, "--queue-cap")? as usize
            }
            "--cache" => cli.use_cache = true,
            "--job-cache" => {
                cli.use_cache = true;
                cli.cfg.job_cache = true;
            }
            "--inject" => cli
                .cfg
                .faults
                .push(value(&mut it)?.parse::<JobFaultPlan>()?),
            "--report" => cli.report = true,
            _ if flag.starts_with('-') && flag != "-" => {
                return Err(format!("unknown option `{flag}` (try --help)"))
            }
            _ => cli.inputs.push(arg.clone()),
        }
    }
    Ok(Some(cli))
}

/// Reads and parses the job stream from the given files (or stdin).
fn read_jobs(cli: &Cli) -> Result<Vec<JobSpec>, String> {
    let mut lines: Vec<(String, JobLine)> = Vec::new();
    let sources: Vec<Option<&str>> = if cli.inputs.is_empty() {
        vec![None]
    } else {
        cli.inputs.iter().map(|p| Some(p.as_str())).collect()
    };
    for src in sources {
        let text = match src {
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
        let origin = src.unwrap_or("<stdin>");
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed: JobLine = line
                .parse()
                .map_err(|e| format!("{origin}:{}: {e}", ln + 1))?;
            lines.push((origin.to_string(), parsed));
        }
    }
    lines
        .into_iter()
        .map(|(origin, line)| {
            let module = match &line.source {
                JobSource::Synth { nfuncs, seed } => {
                    workloads::synth_ir::build_synth_ir(*nfuncs, *seed)
                }
                JobSource::Path(path) => {
                    let src = std::fs::read_to_string(path)
                        .map_err(|e| format!("{origin}: reading `{path}`: {e}"))?;
                    memoir_ir::parser::parse_module(&src)
                        .map_err(|e| format!("{origin}: parsing `{path}`: {e}"))?
                }
            };
            let spec = line
                .spec
                .clone()
                .unwrap_or_else(|| cli.default_spec.clone());
            let mut job = JobSpec::new(line.source.to_string(), module, spec);
            job.threads = cli.job_threads;
            job.policy = cli.policy;
            job.budgets = cli.budgets;
            Ok(job)
        })
        .collect()
}

fn render_report(stats: &ServiceStats) -> String {
    let cc = stats.compile_cache;
    format!(
        "jobs submitted={} ok={} degraded-ok={} shed={} failed={}\n\
         attempts={} retries={} timeouts={} worker-panics={}\n\
         compile-cache hits={} skips={} misses={} contended={} job-hits={}\n",
        stats.submitted,
        stats.ok,
        stats.degraded_ok,
        stats.shed,
        stats.failed,
        stats.attempts,
        stats.retries,
        stats.timeouts,
        stats.worker_panics,
        cc.hits,
        cc.skips,
        cc.misses,
        cc.contended,
        stats.job_cache_hits,
    )
}

fn run(mut cli: Cli) -> Result<bool, String> {
    if cli.use_cache {
        cli.cfg.cache = Some(passman::CompileCache::new());
    }
    let jobs = read_jobs(&cli)?;
    if jobs.is_empty() {
        return Err("no jobs in the stream".to_string());
    }
    let (outcomes, stats) = memoird::run_jobs(cli.cfg, jobs.clone());

    let mut all_ok = true;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (i, (job, outcome)) in jobs.iter().zip(&outcomes).enumerate() {
        for d in outcome.all_degradations() {
            eprintln!("memoird: warning: job {i} ({}): {d}", job.name);
        }
        match outcome.output() {
            Some(text) => {
                writeln!(out, ";; job {i}: {} [{}]", job.name, outcome.kind())
                    .and_then(|_| out.write_all(text.as_bytes()))
                    .map_err(|e| format!("writing stdout: {e}"))?;
            }
            None => {
                all_ok = false;
                eprintln!(
                    "memoird: job {i} ({}) {}: {}",
                    job.name,
                    outcome.kind(),
                    match outcome {
                        memoird::JobOutcome::Shed { qdepth } =>
                            format!("queue full at depth {qdepth}"),
                        _ => format!("{} attempts, all faulted", outcome.attempts().len()),
                    }
                );
            }
        }
    }
    if cli.report {
        eprint!("{}", render_report(&stats));
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    // The service contains worker panics (including injected ones) by
    // design; keep the default hook from spraying backtraces.
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        if !msg.contains("injected ") {
            eprintln!("{msg}");
        }
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(None) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(cli)) => match run(cli) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("memoird: error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("memoird: error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
