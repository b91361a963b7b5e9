//! Service-level robustness integration tests: determinism of the retry
//! envelope across runs and worker counts, zero-lost-jobs under mixed
//! fault injection, and queue-full shedding under overload.

use memoird::{JobOutcome, JobSpec, RetryPolicy, Rung, ServiceConfig};
use passman::{CompileCache, FaultCause, PipelineSpec};
use proptest::prelude::*;
use workloads::synth_ir::build_synth_ir;

const SPEC: &str = "ssa-construct,constprop,dce,ssa-destruct";

fn jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            JobSpec::new(
                format!("synth(3,{i})"),
                build_synth_ir(3, i as u64),
                PipelineSpec::parse(SPEC).unwrap(),
            )
        })
        .collect()
}

/// A stable rendering of a fault cause (injected panic messages are
/// deterministic; timing-carrying causes are normalized to their kind).
fn stable_fault(f: &FaultCause) -> String {
    match f {
        FaultCause::Budget(_) => "budget".to_string(),
        other => format!("{other:?}"),
    }
}

/// Everything about a batch that the determinism guarantee covers:
/// outcome kind, output bytes, and the per-attempt retry schedule
/// (rung, backoff, fault) — wall-clock numbers excluded.
type AttemptRecord = (String, u64, Option<String>);

fn batch_fingerprint(outcomes: &[JobOutcome]) -> Vec<(String, Option<String>, Vec<AttemptRecord>)> {
    outcomes
        .iter()
        .map(|o| {
            (
                o.kind().to_string(),
                o.output().map(str::to_string),
                o.attempts()
                    .iter()
                    .map(|a| {
                        (
                            a.rung.name().to_string(),
                            a.backoff_ms,
                            a.fault.as_ref().map(stable_fault),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    // Each case runs three full service batches; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same seed + fault plan ⇒ identical retry schedule (rungs,
    /// backoff delays, faults) and identical outcomes/outputs across
    /// repeat runs AND across worker-thread counts.
    #[test]
    fn retry_schedule_is_deterministic_across_runs_and_threads(
        seed in any::<u64>(),
        base_backoff in 1u64..16,
        plan_pick in any::<u64>(),
        target in 0u64..4,
        attempt_pick in 0u64..3,
    ) {
        let plan = match plan_pick % 3 {
            0 => Some(format!("worker-panic@{target}#{attempt_pick}")),
            1 => Some(format!("poison-cache@{target}")),
            _ => None,
        };
        let cfg = |workers: usize| ServiceConfig {
            workers,
            seed,
            cache: Some(CompileCache::new()),
            retry: RetryPolicy {
                base_backoff_ms: base_backoff,
                max_backoff_ms: 50,
                ..Default::default()
            },
            faults: plan.iter().map(|p| p.parse().unwrap()).collect(),
            ..Default::default()
        };
        let (serial_a, _) = memoird::run_jobs(cfg(1), jobs(4));
        let (serial_b, _) = memoird::run_jobs(cfg(1), jobs(4));
        let (wide, _) = memoird::run_jobs(cfg(4), jobs(4));
        let fp = batch_fingerprint(&serial_a);
        prop_assert_eq!(&fp, &batch_fingerprint(&serial_b), "run-to-run");
        prop_assert_eq!(&fp, &batch_fingerprint(&wide), "workers=1 vs workers=4");
        // And every job resolved, whatever the plan did.
        prop_assert_eq!(serial_a.len(), 4);
        prop_assert!(serial_a.iter().all(|o| o.kind() != "shed"));
    }
}

/// A mixed batch under slow-job, worker-panic and poison-cache injection
/// with the watchdog armed and a shared compile cache loses no jobs, and
/// recovered jobs report byte-identical output to a clean run.
#[test]
fn envelope_zero_lost_jobs_under_mixed_injection() {
    let clean_cfg = ServiceConfig {
        workers: 3,
        seed: 11,
        retry: RetryPolicy {
            base_backoff_ms: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let faulty_cfg = ServiceConfig {
        timeout_ms: Some(250),
        cache: Some(CompileCache::new()),
        faults: vec![
            "slow-job@1".parse().unwrap(),
            "worker-panic@3".parse().unwrap(),
            "worker-panic@4#1".parse().unwrap(),
            "poison-cache@5".parse().unwrap(),
        ],
        ..clean_cfg.clone()
    };
    let (clean, _) = memoird::run_jobs(clean_cfg, jobs(6));
    let (faulty, stats) = memoird::run_jobs(faulty_cfg, jobs(6));

    assert_eq!(stats.terminal(), 6, "zero lost jobs: {stats:?}");
    assert_eq!(stats.submitted, 6);
    assert!(stats.timeouts >= 1, "slow-job@1 should trip the watchdog");
    // worker-panic@3 panics once, poison-cache@5 on both Full attempts.
    assert!(stats.worker_panics >= 3, "{stats:?}");
    let rungs: Vec<Rung> = faulty[5].attempts().iter().map(|a| a.rung).collect();
    assert_eq!(rungs, [Rung::Full, Rung::Full, Rung::NoCache]);
    for (i, (a, b)) in clean.iter().zip(&faulty).enumerate() {
        assert_eq!(a.kind(), "ok", "clean job {i}");
        assert_eq!(
            a.output(),
            b.output(),
            "job {i} output diverged under injection"
        );
    }
    // Fault evidence from every attempt is preserved on the outcome.
    assert!(!faulty[3].all_degradations().is_empty());
}

/// Overload: one worker held about 100 ms by `slow-job@0` (no watchdog,
/// so the stall only delays it) while twelve jobs arrive at a queue that
/// holds two. Which jobs get in races the worker's first pop, so the
/// test asserts invariants: every job is terminal, at most three (the
/// running one and two queued) are admitted, every shed saw the full
/// queue, and every admitted job compiles to a clean run's bytes.
#[test]
fn overload_sheds_at_the_queue_cap_and_loses_no_jobs() {
    let (clean, _) = memoird::run_jobs(ServiceConfig::default(), jobs(12));
    let (outcomes, stats) = memoird::run_jobs(
        ServiceConfig {
            workers: 1,
            queue_cap: 2,
            faults: vec!["slow-job@0".parse().unwrap()],
            ..Default::default()
        },
        jobs(12),
    );
    assert_eq!(outcomes.len(), 12);
    assert_eq!(stats.terminal(), 12, "zero lost jobs: {stats:?}");
    let full = outcomes
        .iter()
        .filter(|o| matches!(o, JobOutcome::Shed { qdepth: 2 }))
        .count();
    assert!(full >= 9, "only {full} of 12 shed at depth 2: {stats:?}");
    assert_eq!(stats.shed, full as u64, "a shed below the cap: {stats:?}");
    for (i, (o, c)) in outcomes.iter().zip(&clean).enumerate() {
        if o.kind() != "shed" {
            assert_eq!(o.kind(), "ok", "admitted job {i}");
            assert_eq!(o.output(), c.output(), "admitted job {i}");
        }
    }
}
