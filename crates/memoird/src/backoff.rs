//! Deterministic retry scheduling: the rung ladder and seeded
//! exponential backoff with jitter.
//!
//! Both functions here are pure: the rung for attempt `k` depends only
//! on `k`, and the backoff before attempt `k` of job `j` depends only
//! on `(policy, service seed, j, k)`. That purity is the backbone of
//! the determinism guarantee tested by the backoff proptest: the same
//! seed and fault plan yield the identical retry schedule and final
//! outcome across runs and across worker-thread counts.

use crate::job::Rung;
use crate::rng::{mix, SplitMix64};

/// The degradation ladder, one rung per attempt: the submitted config,
/// one same-config retry for transient faults, then the cache bypassed,
/// then the baseline spec. Attempts past the end stay on the last rung.
const LADDER: [Rung; 4] = [Rung::Full, Rung::Full, Rung::NoCache, Rung::Baseline];

/// How a job retries: attempt count and backoff curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first included (1 = no retries).
    pub max_attempts: usize,
    /// Base backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 1000,
        }
    }
}

impl RetryPolicy {
    /// The degradation rung attempt `attempt` (0-based) runs on:
    /// [`Rung::Full`] twice, then [`Rung::NoCache`], then
    /// [`Rung::Baseline`] for whatever remains.
    pub fn rung_for_attempt(&self, attempt: usize) -> Rung {
        LADDER[attempt.min(LADDER.len() - 1)]
    }

    /// Deterministic backoff before `attempt` (0-based; attempt 0 never
    /// waits): exponential in the retry index, capped, with seeded
    /// jitter into `[delay/2, delay]` to decorrelate retry herds.
    pub fn backoff_ms(&self, seed: u64, job: u64, attempt: usize) -> u64 {
        let delay = self.delay_ms(attempt);
        if delay <= 1 {
            return delay;
        }
        let mut rng = SplitMix64::new(mix(seed, job, attempt as u64));
        delay / 2 + rng.below(delay - delay / 2 + 1)
    }

    /// The un-jittered delay before `attempt`: `base · 2^(attempt-1)`,
    /// capped at `max_backoff_ms`, and 0 for the first attempt.
    fn delay_ms(&self, attempt: usize) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = (attempt - 1).min(20) as u32;
        self.base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_shape() {
        let p = RetryPolicy::default(); // 5 attempts
        let rungs: Vec<Rung> = (0..5).map(|a| p.rung_for_attempt(a)).collect();
        assert_eq!(
            rungs,
            vec![
                Rung::Full,
                Rung::Full,
                Rung::NoCache,
                Rung::Baseline,
                Rung::Baseline
            ]
        );
        // Extra attempts stay at the bottom of the ladder.
        assert_eq!(p.rung_for_attempt(9), Rung::Baseline);
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy {
            base_backoff_ms: 10,
            max_backoff_ms: 100,
            ..RetryPolicy::default()
        };
        assert_eq!(p.delay_ms(0), 0);
        assert_eq!(p.delay_ms(1), 10);
        assert_eq!(p.delay_ms(2), 20);
        assert_eq!(p.delay_ms(3), 40);
        assert_eq!(p.delay_ms(5), 100, "capped");
        assert_eq!(p.delay_ms(60), 100, "no shift overflow");
        assert_eq!(p.backoff_ms(7, 3, 0), 0, "the first attempt never waits");

        for attempt in 1..6 {
            let base = p.delay_ms(attempt);
            let a = p.backoff_ms(7, 3, attempt);
            let b = p.backoff_ms(7, 3, attempt);
            assert_eq!(a, b, "jitter is a pure function of (seed, job, attempt)");
            assert!(
                a >= base / 2 && a <= base,
                "{a} not in [{}, {base}]",
                base / 2
            );
        }
        // Different jobs and seeds draw different jitter (overwhelmingly).
        let draws: std::collections::HashSet<u64> =
            (0..32).map(|job| p.backoff_ms(7, job, 4)).collect();
        assert!(draws.len() > 4, "{draws:?}");
    }
}
