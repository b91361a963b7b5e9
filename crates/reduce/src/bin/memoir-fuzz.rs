//! The `memoir-fuzz` crash-triage harness.
//!
//! ```text
//! memoir-fuzz run --seed 1 --iters 200 --out fuzz-out/
//! memoir-fuzz run --lower --objects --multi --probe --seed 1 --iters 800
//! memoir-fuzz reduce fuzz-out/crash-1-17.repro
//! memoir-fuzz replay fuzz-out/crash-1-17.repro
//! memoir-fuzz cli --seed 1 --iters 2000
//! ```
//!
//! `run` drives random whole-language programs (sequence/assoc ops,
//! object field traffic with `--objects`, helper functions with
//! `--multi`) through random pipeline specs — with `--lower`, on through
//! the `lower` stage and a random low-level IR pipeline — and writes
//! every failure as a minimized, replayable `.repro` artifact (format:
//! `docs/REPRO_FORMAT.md`); `reduce` shrinks an existing artifact in
//! place; `replay` re-runs one exactly and reports whether the recorded
//! failure still reproduces; `cli` fuzzes the binaries' own textual
//! argument surfaces for parser panics; `service` fuzzes the `memoird`
//! compile service — its job-stream parsers and randomized job batches
//! (of plain and of object programs) under fault injection (zero lost
//! jobs, clean-vs-injected byte identity, warm-vs-cold job-cache
//! coherence).

use reduce::{
    fuzz_cli_case, fuzz_service_case, parse_run_args, random_case, random_case_config, random_spec,
    reduce_case_prog, run_case_prog, Outcome, Repro, SplitMix64,
};
use std::process::ExitCode;

const USAGE: &str = "\
memoir-fuzz — fuzz the MEMOIR pass pipeline and triage crashes

USAGE:
    memoir-fuzz run [--seed N] [--iters N] [--out DIR] [--lower]
                    [--objects] [--multi] [--probe]
                    [--on-fault=abort|skip|stop] [--inject=PLAN] [--sym]
    memoir-fuzz reduce FILE.repro
    memoir-fuzz replay FILE.repro
    memoir-fuzz cli [--seed N] [--iters N]
    memoir-fuzz service [--seed N] [--iters N]

SUBCOMMANDS:
    run       fuzz: random whole-language programs through random pipeline
              specs; every failure is delta-debugged and written to DIR
              as a replayable .repro artifact (see docs/REPRO_FORMAT.md).
              Exits 1 if any crash was found.
    reduce    shrink an existing .repro in place (helpers, ops, pipeline
              steps, lir steps, budgets) and mark it `minimized: true`
    replay    re-run a .repro exactly; exits 0 if the recorded failure
              class reproduces, 1 if it does not
    cli       fuzz the textual surfaces the binaries parse (--passes
              specs, --budget lists, --inject plans, .repro files, run
              argv) for panics and print/parse round-trip breaks.
              Exits 1 if any finding.
    service   fuzz the memoird compile service: job-line and job-fault
              parsers (panics, round-trip breaks), then two randomized
              job batches per case, of plain and of object programs,
              with sampled slow-job/worker-panic/poison-cache injection
              (zero lost jobs, clean-vs-injected byte identity,
              warm-vs-cold job-cache coherence). Exits 1 if any finding.

OPTIONS (run):
    --seed N              campaign seed (default 1)
    --iters N             number of cases (default 100)
    --out DIR             artifact directory (default fuzz-out)
    --lower               drive every case through the `lower` stage and a
                          random lir pipeline, with the four-way
                          differential oracle (MEMOIR interp, direct
                          lowering, lir-optimized module vs the Rust
                          oracle)
    --objects             include object types: field reads/writes and a
                          nested collection field in every generated main
    --multi               generate helper functions — collection-typed
                          by-ref parameters and scalar callees — called
                          from main
    --probe               probe every surviving function pre- vs post-opt
                          on synthesized typed argument vectors, and
                          cross-check the direct lowering on the same
                          seeds
    --on-fault=POLICY     pin the fault policy for every case; by default
                          each case samples abort/skip/stop itself (and
                          recovering cases sample deterministic budgets)
    --inject=PLAN         seed a fault into every case, e.g. panic@dce
    --sym                 also run every passing case through the bounded
                          symbolic oracle: each function's path-set
                          prediction must match the concrete interpreter
                          (sym-unsound) and pre-opt must prove equivalent
                          to post-opt (sym-diverge on a confirmed witness)
";

/// Op-sequence length bound per generated function.
const MAX_OPS: usize = 40;

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or("").to_string()
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let r = parse_run_args(args)?;
    std::fs::create_dir_all(&r.out).map_err(|e| format!("creating `{}`: {e}", r.out))?;

    let root = SplitMix64::new(r.seed);
    let mut crashes = 0u64;
    for case in 0..r.iters {
        let mut rng = root.split(case);
        let prog = random_case(&mut rng, MAX_OPS, r.dims);
        let spec = random_spec(&mut rng);
        let mut cfg = random_case_config(&mut rng, r.lower);
        if r.probe {
            cfg.probe_seed = Some(rng.next_u64());
        }
        if let Some(p) = r.policy {
            cfg.policy = p;
        }
        cfg.inject = r.inject.clone();
        cfg.sym |= r.sym;
        let Outcome::Crash { detail, .. } = run_case_prog(&prog, &spec, &cfg) else {
            continue;
        };
        crashes += 1;
        eprintln!("case {case}: {}", first_line(&detail));

        let (prog, spec, cfg, detail, minimized) = match reduce_case_prog(&prog, &spec, &cfg) {
            Some((p, s, c, d)) => (p, s, c, d, true),
            None => (prog, spec, cfg, detail, false), // shrink lost the bug
        };
        let repro = Repro {
            seed: r.seed,
            case,
            spec,
            cfg,
            minimized,
            failure: first_line(&detail),
            prog,
        };
        let path = format!("{}/crash-{}-{case}.repro", r.out, r.seed);
        std::fs::write(&path, repro.to_string()).map_err(|e| format!("writing `{path}`: {e}"))?;
        eprintln!(
            "  -> {path} ({} ops + {} helpers, {} steps{}{})",
            repro.prog.main.len(),
            repro.prog.helpers.len(),
            repro.spec.steps.len(),
            match &repro.cfg.lir_spec {
                Some(l) => format!(" + {} lir steps", l.steps.len()),
                None => String::new(),
            },
            if minimized {
                ", minimized"
            } else {
                ", NOT minimized"
            }
        );
    }
    let (proved, probed, skipped) = reduce::cross_check_totals();
    if proved + probed + skipped > 0 {
        eprintln!(
            "lower cross-check: {proved} function(s) proved probe-free, {probed} probed, \
             {skipped} skipped"
        );
    }
    eprintln!("{} case(s), {crashes} crash(es), seed {}", r.iters, r.seed);
    Ok(if crashes == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Shared driver for the finding-based campaigns (`cli`, `service`):
/// parses `--seed`/`--iters`, runs `fuzz` per split-off case RNG, and
/// exits 1 if anything was found.
fn cmd_findings(
    name: &str,
    default_iters: u64,
    args: &[String],
    fuzz: impl Fn(&mut SplitMix64) -> Option<reduce::CliCrash>,
) -> Result<ExitCode, String> {
    let mut seed = 1u64;
    let mut iters = default_iters;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag {
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--iters" => iters = value()?.parse().map_err(|_| "bad --iters".to_string())?,
            other => return Err(format!("unknown `{name}` option `{other}`")),
        }
    }

    let root = SplitMix64::new(seed);
    let mut findings = 0u64;
    for case in 0..iters {
        let mut rng = root.split(case);
        if let Some(c) = fuzz(&mut rng) {
            findings += 1;
            eprintln!("case {case}: [{}] {}", c.surface, c.message);
            eprintln!("  input: {:?}", c.input);
        }
    }
    eprintln!("{iters} case(s), {findings} finding(s), seed {seed}");
    Ok(if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &str) -> Result<Repro, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("reading `{path}`: {e}"))?
        .parse()
        .map_err(|e| format!("`{path}`: {e}"))
}

fn cmd_reduce(path: &str) -> Result<ExitCode, String> {
    let mut repro = load(path)?;
    match reduce_case_prog(&repro.prog, &repro.spec, &repro.cfg) {
        None => {
            eprintln!("`{path}` does not reproduce; leaving it untouched");
            Ok(ExitCode::FAILURE)
        }
        Some((prog, spec, cfg, detail)) => {
            repro.prog = prog;
            repro.spec = spec;
            repro.cfg = cfg;
            repro.failure = first_line(&detail);
            repro.minimized = true;
            std::fs::write(path, repro.to_string())
                .map_err(|e| format!("writing `{path}`: {e}"))?;
            eprintln!(
                "{path}: reduced to {} ops + {} helpers, {} pipeline steps ({})",
                repro.prog.main.len(),
                repro.prog.helpers.len(),
                repro.spec.steps.len(),
                repro.failure
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn cmd_replay(path: &str) -> Result<ExitCode, String> {
    let repro = load(path)?;
    let out = run_case_prog(&repro.prog, &repro.spec, &repro.cfg);
    let recorded_kind = repro.failure.split(':').next().unwrap_or("");
    match out {
        Outcome::Crash { kind, detail } => {
            println!("{}", first_line(&detail));
            if kind == recorded_kind {
                eprintln!("{path}: reproduces");
                Ok(ExitCode::SUCCESS)
            } else {
                eprintln!(
                    "{path}: crashes, but as `{kind}` rather than the recorded `{recorded_kind}`"
                );
                Ok(ExitCode::FAILURE)
            }
        }
        Outcome::Pass => {
            eprintln!("{path}: does not reproduce (pipeline passed)");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    // The harness catches pass panics by design; keep the default hook
    // from spraying a message + backtrace for every contained fault.
    std::panic::set_hook(Box::new(|_| {}));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h") | Some("--help") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => cmd_run(&args[1..]),
        Some("cli") => cmd_findings("cli", 1000, &args[1..], fuzz_cli_case),
        // Service cases run several full service batches each, so the
        // default campaign is much shorter than `cli`'s.
        Some("service") => cmd_findings("service", 40, &args[1..], fuzz_service_case),
        Some("reduce") if args.len() == 2 => cmd_reduce(&args[1]),
        Some("replay") if args.len() == 2 => cmd_replay(&args[1]),
        Some("reduce") | Some("replay") => Err("expected exactly one FILE.repro".to_string()),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("memoir-fuzz: error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
