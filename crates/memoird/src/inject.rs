//! Deterministic service-level fault injection.
//!
//! Extends passman's `kind@target` injection syntax from passes to
//! *jobs*: targets are job indices (the submission order), and the kinds
//! model service failure modes instead of pass failure modes:
//!
//! * `slow-job@3` — job 3's attempt stalls past the watchdog timeout
//!   (exercises the timeout → worker-poisoning → requeue path);
//! * `worker-panic@3` — the worker thread panics mid-job (exercises
//!   `catch_unwind` containment and the retry ladder);
//! * `poison-cache@3` — job 3 panics whenever it reads the shared
//!   compile cache, modeling a corrupted entry (exercises the ladder's
//!   cache-off rung).
//!
//! `@*` targets every job. An optional `#k` suffix restricts transient
//! kinds (`slow-job`, `worker-panic`) to attempt `k`; without it they
//! fire on attempt 0 only, so the retry ladder can be observed
//! recovering. `poison-cache` models *persistent* corruption: it fires
//! on every attempt that consults the cache, and only the ladder's
//! cache-disabling rung clears it.
//!
//! Plans are pure functions of `(job, attempt, rung)` — no randomness,
//! no clocks — so a fault-injected run is exactly replayable, which is
//! what lets the service tests, CI's `memoird` step and `memoir-fuzz
//! service` assert byte-identical output with and without injection at
//! the same seed.

use crate::job::{JobId, Rung};
use std::fmt;
use std::str::FromStr;

/// What kind of service-level fault to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobInjectKind {
    /// Stall the attempt past the watchdog timeout.
    SlowJob,
    /// Panic the worker mid-attempt.
    WorkerPanic,
    /// Panic on shared-cache consultation (persistent until the ladder
    /// disables the cache).
    PoisonCache,
}

impl JobInjectKind {
    fn name(self) -> &'static str {
        match self {
            JobInjectKind::SlowJob => "slow-job",
            JobInjectKind::WorkerPanic => "worker-panic",
            JobInjectKind::PoisonCache => "poison-cache",
        }
    }
}

/// A parsed `kind@target[#attempt]` job-fault plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobFaultPlan {
    /// The fault to inject.
    pub kind: JobInjectKind,
    /// Target job index; `None` = every job (`@*`).
    pub job: Option<JobId>,
    /// For transient kinds: the attempt to fire on (`None` = attempt 0).
    /// Ignored by `poison-cache`, which is persistent.
    pub attempt: Option<usize>,
}

impl JobFaultPlan {
    /// Whether this plan fires for `(job, attempt)` on `rung`.
    pub fn fires(&self, job: JobId, attempt: usize, rung: Rung, cache_installed: bool) -> bool {
        if self.job.is_some_and(|j| j != job) {
            return false;
        }
        match self.kind {
            // Persistent: every attempt that would read the shared cache.
            JobInjectKind::PoisonCache => cache_installed && rung.uses_cache(),
            // Transient: one specific attempt.
            JobInjectKind::SlowJob | JobInjectKind::WorkerPanic => {
                attempt == self.attempt.unwrap_or(0)
            }
        }
    }
}

impl fmt::Display for JobFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@", self.kind.name())?;
        match self.job {
            Some(j) => write!(f, "{j}")?,
            None => f.write_str("*")?,
        }
        if let Some(a) = self.attempt {
            write!(f, "#{a}")?;
        }
        Ok(())
    }
}

impl FromStr for JobFaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<JobFaultPlan, String> {
        let s = s.trim();
        let (kind_text, target) = s
            .split_once('@')
            .ok_or_else(|| format!("job fault plan `{s}` is not of the form kind@target"))?;
        let kind = match kind_text.trim() {
            "slow-job" => JobInjectKind::SlowJob,
            "worker-panic" => JobInjectKind::WorkerPanic,
            "poison-cache" => JobInjectKind::PoisonCache,
            other => {
                return Err(format!(
                    "unknown job fault kind `{other}` (expected slow-job|worker-panic|poison-cache)"
                ))
            }
        };
        let (job_text, attempt) = match target.split_once('#') {
            Some((j, a)) => {
                let a: usize = a
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad attempt index `{}`", a.trim()))?;
                (j.trim(), Some(a))
            }
            None => (target.trim(), None),
        };
        let job = match job_text {
            "*" => None,
            t => Some(
                t.parse::<JobId>()
                    .map_err(|_| format!("bad job index `{t}` (expected a number or `*`)"))?,
            ),
        };
        Ok(JobFaultPlan { kind, job, attempt })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip() {
        for text in [
            "slow-job@3",
            "worker-panic@*",
            "poison-cache@0",
            "slow-job@7#2",
            "worker-panic@*#1",
        ] {
            let p: JobFaultPlan = text.parse().unwrap();
            assert_eq!(p.to_string(), text);
            assert_eq!(p.to_string().parse::<JobFaultPlan>().unwrap(), p);
        }
    }

    #[test]
    fn plans_reject_garbage() {
        for text in [
            "",
            "slow-job",
            "panic@3",
            "slow-job@",
            "slow-job@x",
            "slow-job@3#y",
        ] {
            assert!(text.parse::<JobFaultPlan>().is_err(), "accepted `{text}`");
        }
    }

    #[test]
    fn firing_rules() {
        let p: JobFaultPlan = "worker-panic@3".parse().unwrap();
        assert!(p.fires(3, 0, Rung::Full, true));
        assert!(
            !p.fires(3, 1, Rung::Full, true),
            "default is attempt 0 only"
        );
        assert!(!p.fires(4, 0, Rung::Full, true));

        let p: JobFaultPlan = "slow-job@*#1".parse().unwrap();
        assert!(p.fires(0, 1, Rung::Full, false));
        assert!(p.fires(9, 1, Rung::Baseline, false));
        assert!(!p.fires(9, 0, Rung::Full, false));

        // poison-cache is persistent across attempts but clears as soon
        // as the ladder stops consulting the cache.
        let p: JobFaultPlan = "poison-cache@2".parse().unwrap();
        assert!(p.fires(2, 0, Rung::Full, true));
        assert!(p.fires(2, 1, Rung::Full, true));
        assert!(!p.fires(2, 2, Rung::NoCache, true));
        assert!(!p.fires(2, 0, Rung::Full, false), "no cache installed");
    }
}
