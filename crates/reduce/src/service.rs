//! `memoir-fuzz service` — fuzz the `memoird` service envelope.
//!
//! Each case exercises two surfaces of the compile service:
//!
//! 1. **Parsers.** Token soup through the textual job-stream syntax
//!    ([`memoird::JobLine`], `SOURCE [:: SPEC]`) and job-fault plans
//!    ([`memoird::JobFaultPlan`], `kind@target[#attempt]`): a parser
//!    must never panic, and anything it accepts must round-trip through
//!    its `Display` form.
//! 2. **Batches.** A randomized job batch through [`memoird::run_jobs`]
//!    with sampled fault injection: zero lost jobs (every submission
//!    resolves to exactly one terminal outcome), byte-identical outputs
//!    to a clean run of the same batch at the same seed, and a doubled
//!    batch through the job-output cache whose warm halves must serve
//!    the same bytes the cold halves computed. Each case runs one batch
//!    of sequence/assoc programs, then one of object programs.

use crate::cli::{check, soup, CliCrash};
use crate::genprog::{build_case, random_case, CaseDims};
use crate::rng::SplitMix64;
use passman::PipelineSpec;

const JOB_LINE_TOKENS: &[&str] = &[
    "synth(3,1)",
    "synth(",
    ")",
    "(",
    "::",
    ":",
    "a.mir",
    "examples/listing1.mir",
    "dce",
    "ssa-construct",
    "ssa-destruct",
    ",",
    "lower",
    "fixpoint",
    "<",
    ">",
    "=",
    "max",
    " ",
    "",
    "synth(0,0)",
    "synth(1,18446744073709551615)",
    "synth(1)",
    "0",
    "3",
    "-1",
    "*",
    "#",
    "\t",
    "héllo.mir",
    "\u{0}",
];

const JOB_FAULT_TOKENS: &[&str] = &[
    "slow-job",
    "worker-panic",
    "poison-cache",
    "panic",
    "@",
    "#",
    "*",
    "0",
    "3",
    "-1",
    "18446744073709551615",
    "",
    " ",
    "@@",
    "##",
    "@*#",
];

/// Always-compiling pipeline specs for batch jobs (the batch oracle
/// needs every clean job to resolve `ok`, so the specs are fixed and
/// known-good; the *programs* vary). The last is a through-lowering
/// spec, so batches also cover low-level IR outputs.
const BATCH_SPECS: &[&str] = &[
    "ssa-construct,constprop,dce,ssa-destruct",
    "ssa-construct,dce,ssa-destruct",
    "ssa-construct,constprop,sink,dce,ssa-destruct,lower,mem2reg,dce",
];

/// A randomized job batch through the service, three ways: clean,
/// fault-injected (outputs must not diverge), and doubled through the
/// job-output cache (warm must equal cold). Any lost job, shed job, or
/// byte divergence is a finding. `objects` draws the jobs' programs from
/// the object dimension.
fn fuzz_service_batch(rng: &mut SplitMix64, objects: bool) -> Option<CliCrash> {
    let njobs = 1 + rng.index(3);
    let jobs: Vec<memoird::JobSpec> = (0..njobs)
        .map(|i| {
            let prog = random_case(
                rng,
                10,
                CaseDims {
                    objects,
                    multi: false,
                },
            );
            let (m, _) = build_case(&prog);
            let spec = PipelineSpec::parse(BATCH_SPECS[rng.index(BATCH_SPECS.len())]).unwrap();
            memoird::JobSpec::new(format!("case-{i}"), m, spec)
        })
        .collect();

    let mut faults: Vec<memoird::JobFaultPlan> = Vec::new();
    let mut timeout_ms = None;
    for _ in 0..rng.index(3) {
        let target = rng.index(njobs);
        let text = match rng.below(4) {
            0 => format!("worker-panic@{target}"),
            1 => format!("worker-panic@{target}#1"),
            2 => format!("poison-cache@{target}"),
            _ => {
                // slow-job only stalls past an armed watchdog, so give
                // it one (the stall sleeps ~2× this, the retry is fast).
                timeout_ms = Some(300);
                format!("slow-job@{target}")
            }
        };
        faults.push(text.parse().unwrap());
    }
    let workers = 1 + rng.index(2);
    let seed = rng.next_u64();
    let scfg = |faults: Vec<memoird::JobFaultPlan>, job_cache: bool| memoird::ServiceConfig {
        workers,
        timeout_ms,
        seed,
        cache: Some(passman::CompileCache::new()),
        job_cache,
        retry: memoird::RetryPolicy {
            base_backoff_ms: 1,
            max_backoff_ms: 4,
            ..Default::default()
        },
        faults,
        ..Default::default()
    };
    let input = format!(
        "{njobs} job(s){}, workers {workers}, seed {seed}, faults [{}]",
        if objects { " of object programs" } else { "" },
        faults
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let crash = |message: String| {
        Some(CliCrash {
            surface: "service-batch",
            input: input.clone(),
            message,
        })
    };

    let (clean, clean_stats) = memoird::run_jobs(scfg(Vec::new(), false), jobs.clone());
    if clean.len() != njobs || clean_stats.terminal() != njobs as u64 {
        return crash(format!(
            "clean batch lost jobs: {} outcome(s), {} terminal of {njobs}",
            clean.len(),
            clean_stats.terminal()
        ));
    }
    for (i, o) in clean.iter().enumerate() {
        if o.kind() != "ok" {
            return crash(format!("clean job {i} resolved as `{}`", o.kind()));
        }
    }

    let (faulty, faulty_stats) = memoird::run_jobs(scfg(faults.clone(), false), jobs.clone());
    if faulty.len() != njobs || faulty_stats.terminal() != njobs as u64 {
        return crash(format!(
            "injected batch lost jobs: {} outcome(s), {} terminal of {njobs}",
            faulty.len(),
            faulty_stats.terminal()
        ));
    }
    for i in 0..njobs {
        if faulty[i].output() != clean[i].output() {
            return crash(format!(
                "job {i} output under injection differs from the clean run ({} vs {})",
                clean[i].kind(),
                faulty[i].kind()
            ));
        }
    }

    // Cached-vs-cold: submit every job twice through the job-output
    // cache; the warm copies must serve the bytes the cold ones wrote.
    let mut doubled = jobs.clone();
    doubled.extend(jobs);
    let (outs, cache_stats) = memoird::run_jobs(scfg(Vec::new(), true), doubled);
    if outs.len() != 2 * njobs || cache_stats.terminal() != 2 * njobs as u64 {
        return crash(format!(
            "doubled batch lost jobs: {} outcome(s), {} terminal of {}",
            outs.len(),
            cache_stats.terminal(),
            2 * njobs
        ));
    }
    for i in 0..njobs {
        if outs[i].output() != outs[i + njobs].output() {
            return crash(format!(
                "job-cache warm output for job {i} differs from the cold compile"
            ));
        }
    }
    None
}

/// Runs one service-fuzz case across both surfaces (parsers, then a
/// randomized batch without and one with object programs). Returns the
/// first finding.
pub fn fuzz_service_case(rng: &mut SplitMix64) -> Option<CliCrash> {
    if let Some(c) = check(
        "job-line",
        &soup(rng, JOB_LINE_TOKENS, 8),
        |s| s.parse::<memoird::JobLine>().ok(),
        |v| v.to_string(),
    ) {
        return Some(c);
    }
    if let Some(c) = check(
        "job-fault",
        &soup(rng, JOB_FAULT_TOKENS, 6),
        |s| s.parse::<memoird::JobFaultPlan>().ok(),
        |v| v.to_string(),
    ) {
        return Some(c);
    }
    // The object batch draws after the plain one, so the plain batch's
    // draws match those of a campaign without it.
    fuzz_service_batch(rng, false).or_else(|| fuzz_service_batch(rng, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_surfaces_survive_a_smoke_campaign() {
        let root = SplitMix64::new(0x5eb1);
        for case in 0..12 {
            let mut rng = root.split(case);
            if let Some(c) = fuzz_service_case(&mut rng) {
                panic!(
                    "case {case}: [{}] {}\ninput: {}",
                    c.surface, c.message, c.input
                );
            }
        }
    }
}
