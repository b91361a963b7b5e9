//! Compile jobs and their terminal outcomes.
//!
//! A [`JobSpec`] is one unit of service work: a MEMOIR module, a
//! pipeline spec (which may contain the `lower` stage), and the per-job
//! pass-level fault configuration. The service wraps each job in the
//! robustness envelope (timeout, retry ladder, bounded queue) and
//! resolves it to exactly one [`JobOutcome`] — the *zero lost jobs*
//! invariant.
//!
//! [`JobLine`] is the textual job-stream syntax the `memoird` binary
//! (and the `memoir-fuzz service` parser fuzzer) consumes:
//!
//! ```text
//! examples/listing1.mir
//! examples/listing1.mir :: ssa-construct,dce,ssa-destruct
//! synth(12,7) :: ssa-construct,constprop,dce,ssa-destruct,lower
//! ```

use passman::{Budgets, Degradation, FaultCause, FaultPolicy, PipelineSpec, RecoveryAction};
use std::fmt;
use std::str::FromStr;

/// Service-assigned job identifier (the submission index).
pub type JobId = u64;

/// One compile job as submitted to the service.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name (file path, synth descriptor, or caller-chosen).
    pub name: String,
    /// The module to compile. Each attempt clones it, so a faulting
    /// attempt can never corrupt a retry's input.
    pub module: memoir_ir::Module,
    /// The pipeline to run; a `lower` step makes this a through-lowering
    /// job whose output is low-level IR.
    pub spec: PipelineSpec,
    /// Worker threads for function-sharded passes *within* the job
    /// (dropped to 1 on every rung after [`Rung::Full`]).
    pub threads: usize,
    /// Pass-level fault policy. The default is [`FaultPolicy::SkipPass`]:
    /// pass-level containment is the first line of defense, the job-level
    /// retry ladder the backstop.
    pub policy: FaultPolicy,
    /// Per-job budgets; the service timeout composes in as an additional
    /// `pipeline-ms` bound (whichever is smaller wins).
    pub budgets: Budgets,
}

impl JobSpec {
    /// A job with the default envelope: recovering pass policy, no extra
    /// budgets, serial shards.
    pub fn new(name: impl Into<String>, module: memoir_ir::Module, spec: PipelineSpec) -> Self {
        JobSpec {
            name: name.into(),
            module,
            spec,
            threads: 1,
            policy: FaultPolicy::SkipPass,
            budgets: Budgets::none(),
        }
    }
}

/// One rung of the graceful-degradation ladder. Attempts escalate
/// top-to-bottom; every rung except [`Rung::Baseline`] is
/// output-preserving (serial execution and cold caches are guaranteed
/// byte-identical to the submitted config), so a job that succeeds on
/// `Full` or `NoCache` reports [`JobOutcome::Ok`] and one that needed
/// the weaker baseline spec reports [`JobOutcome::DegradedOk`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// The job exactly as submitted.
    Full,
    /// Serial, and the shared compile cache is not consulted (the escape
    /// hatch for poisoned cache entries).
    NoCache,
    /// Serial, cold, and the spec replaced by the baseline `-O1`-style
    /// pipeline — scalar passes only, no MEMOIR-specific optimizations.
    Baseline,
}

impl Rung {
    /// Whether this rung's output is guaranteed byte-identical to the
    /// submitted configuration.
    pub fn output_preserving(self) -> bool {
        self != Rung::Baseline
    }

    /// Whether attempts on this rung consult the shared compile cache.
    pub fn uses_cache(self) -> bool {
        self == Rung::Full
    }

    /// Stable rung name (used in job-level [`Degradation`] records).
    pub fn name(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::NoCache => "no-cache",
            Rung::Baseline => "baseline",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One executed (or watchdog-abandoned) attempt of a job.
#[derive(Clone, Debug)]
pub struct AttemptRecord {
    /// The degradation rung the attempt ran on.
    pub rung: Rung,
    /// Deterministic backoff slept before this attempt, in milliseconds
    /// (0 for the first attempt).
    pub backoff_ms: u64,
    /// `None` if the attempt succeeded; otherwise why it failed. A
    /// watchdog timeout is recorded as
    /// [`FaultCause::Budget`]`(`[`PipelineTime`]`)`.
    ///
    /// [`PipelineTime`]: passman::BudgetViolation::PipelineTime
    pub fault: Option<FaultCause>,
    /// Pass-level degradations contained *inside* this attempt's
    /// pipeline run. Kept per attempt — not just for the last one — so a
    /// retried job drops no fault evidence.
    pub degradations: Vec<Degradation>,
    /// Compile-cache counters for this attempt's run.
    pub compile_cache: passman::CompileCacheStats,
    /// Attempt wall time in milliseconds (for timeouts: the configured
    /// limit, since the true duration belongs to an abandoned worker).
    pub ms: f64,
}

impl AttemptRecord {
    /// This attempt's job-level degradation record, if it faulted:
    /// `pass` is the pseudo-pass `"job"`, `invocation` the attempt
    /// index, and `func` carries the rung name.
    pub fn job_degradation(&self, attempt: usize) -> Option<Degradation> {
        let cause = self.fault.clone()?;
        Some(Degradation {
            pass: "job".to_string(),
            invocation: attempt,
            cause,
            fixpoint_iteration: None,
            func_index: None,
            func: Some(self.rung.name().to_string()),
            action: RecoveryAction::RolledBack,
        })
    }
}

/// The exactly-one terminal state of a submitted job.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Compiled successfully on an output-preserving rung; `output` is
    /// byte-identical to what the submitted configuration produces.
    Ok {
        /// Printed output module (low-level IR for through-lowering
        /// jobs, MEMOIR text otherwise).
        output: String,
        /// Every attempt, including faulted ones.
        attempts: Vec<AttemptRecord>,
    },
    /// Compiled, but degraded: the job needed the baseline rung, or its
    /// successful attempt contained pass-level degradations, so the
    /// output is *valid* but not necessarily what the submitted config
    /// would produce.
    DegradedOk {
        /// Printed output module of the degraded compile.
        output: String,
        /// Every attempt, including faulted ones.
        attempts: Vec<AttemptRecord>,
    },
    /// Rejected at admission because the bounded queue was full; never
    /// compiled.
    Shed {
        /// Queue depth observed at the shedding decision.
        qdepth: usize,
    },
    /// Every attempt of the retry ladder failed.
    Failed {
        /// Every attempt, all faulted.
        attempts: Vec<AttemptRecord>,
    },
}

impl JobOutcome {
    /// Stable terminal-state name: `ok`, `degraded-ok`, `shed`, `failed`.
    pub fn kind(&self) -> &'static str {
        match self {
            JobOutcome::Ok { .. } => "ok",
            JobOutcome::DegradedOk { .. } => "degraded-ok",
            JobOutcome::Shed { .. } => "shed",
            JobOutcome::Failed { .. } => "failed",
        }
    }

    /// The compiled output, for the two successful states.
    pub fn output(&self) -> Option<&str> {
        match self {
            JobOutcome::Ok { output, .. } | JobOutcome::DegradedOk { output, .. } => {
                Some(output.as_str())
            }
            _ => None,
        }
    }

    /// Every attempt made, empty for shed jobs.
    pub fn attempts(&self) -> &[AttemptRecord] {
        match self {
            JobOutcome::Ok { attempts, .. }
            | JobOutcome::DegradedOk { attempts, .. }
            | JobOutcome::Failed { attempts } => attempts,
            JobOutcome::Shed { .. } => &[],
        }
    }

    /// **All** fault evidence for the job: each faulted attempt's
    /// job-level degradation followed by that attempt's pass-level
    /// degradations — aggregated across every attempt, not just the last
    /// one (the reporting-asymmetry fix).
    pub fn all_degradations(&self) -> Vec<Degradation> {
        let mut out = Vec::new();
        for (i, a) in self.attempts().iter().enumerate() {
            out.extend(a.job_degradation(i));
            out.extend(a.degradations.iter().cloned());
        }
        out
    }
}

/// Where a job's module comes from, in the textual job-stream syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSource {
    /// A file of textual MEMOIR IR.
    Path(String),
    /// A deterministic synthetic module: `synth(<nfuncs>,<seed>)`.
    Synth {
        /// Number of functions.
        nfuncs: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl fmt::Display for JobSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobSource::Path(p) => f.write_str(p),
            JobSource::Synth { nfuncs, seed } => write!(f, "synth({nfuncs},{seed})"),
        }
    }
}

/// One line of a `memoird` job stream: a module source and an optional
/// per-job pipeline spec, `SOURCE [:: SPEC]`.
#[derive(Clone, Debug, PartialEq)]
pub struct JobLine {
    /// The module source.
    pub source: JobSource,
    /// Per-job pipeline override (`None` = the stream's default spec).
    pub spec: Option<PipelineSpec>,
}

impl fmt::Display for JobLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)?;
        if let Some(spec) = &self.spec {
            write!(f, " :: {spec}")?;
        }
        Ok(())
    }
}

impl FromStr for JobLine {
    type Err = String;

    /// Parses `SOURCE [:: SPEC]`. `SOURCE` is `synth(<nfuncs>,<seed>)`
    /// or a file path (which may not contain `::` or be empty).
    fn from_str(s: &str) -> Result<JobLine, String> {
        let s = s.trim();
        let (source_text, spec_text) = match s.split_once("::") {
            Some((a, b)) => (a.trim(), Some(b.trim())),
            None => (s, None),
        };
        if source_text.is_empty() {
            return Err("empty job source".to_string());
        }
        if source_text.contains("::") {
            return Err("more than one `::` in job line".to_string());
        }
        let source = if let Some(inner) = source_text
            .strip_prefix("synth(")
            .and_then(|r| r.strip_suffix(')'))
        {
            let (n, seed) = inner
                .split_once(',')
                .ok_or("synth(...) takes `nfuncs,seed`")?;
            let nfuncs: usize = n
                .trim()
                .parse()
                .map_err(|_| format!("bad synth nfuncs `{}`", n.trim()))?;
            if nfuncs == 0 || nfuncs > 4096 {
                return Err(format!("synth nfuncs {nfuncs} out of range 1..=4096"));
            }
            let seed: u64 = seed
                .trim()
                .parse()
                .map_err(|_| format!("bad synth seed `{}`", seed.trim()))?;
            JobSource::Synth { nfuncs, seed }
        } else {
            if source_text.starts_with("synth(") || source_text.contains(char::is_whitespace) {
                return Err(format!("bad job source `{source_text}`"));
            }
            JobSource::Path(source_text.to_string())
        };
        let spec = match spec_text {
            None => None,
            Some("") => return Err("empty spec after `::`".to_string()),
            Some(t) => Some(PipelineSpec::parse(t).map_err(|e| format!("bad job spec: {e}"))?),
        };
        Ok(JobLine { source, spec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lines_round_trip() {
        for text in [
            "examples/listing1.mir",
            "a.mir :: ssa-construct,dce,ssa-destruct",
            "synth(12,7)",
            "synth(3,0) :: ssa-construct,constprop,ssa-destruct,lower,mem2reg,dce",
        ] {
            let line: JobLine = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            let shown = line.to_string();
            assert_eq!(shown.parse::<JobLine>().unwrap(), line, "{text} -> {shown}");
        }
    }

    #[test]
    fn job_lines_reject_garbage() {
        for text in [
            "",
            "   ",
            ":: dce",
            "a.mir :: ",
            "a.mir :: fixpoint(",
            "synth(0,1)",
            "synth(9999999,1)",
            "synth(x,1)",
            "synth(1)",
            "a b.mir",
            "a.mir :: dce :: dce",
        ] {
            assert!(text.parse::<JobLine>().is_err(), "accepted: `{text}`");
        }
    }

    #[test]
    fn outcome_kinds_and_degradation_aggregation() {
        let faulted = AttemptRecord {
            rung: Rung::Full,
            backoff_ms: 0,
            fault: Some(FaultCause::Panic("boom".into())),
            degradations: vec![Degradation {
                pass: "dce".into(),
                invocation: 2,
                cause: FaultCause::Panic("pass boom".into()),
                fixpoint_iteration: None,
                func_index: None,
                func: None,
                action: RecoveryAction::RolledBack,
            }],
            compile_cache: Default::default(),
            ms: 1.0,
        };
        let good = AttemptRecord {
            rung: Rung::Full,
            backoff_ms: 10,
            fault: None,
            degradations: vec![],
            compile_cache: Default::default(),
            ms: 1.0,
        };
        let out = JobOutcome::Ok {
            output: "x".into(),
            attempts: vec![faulted, good],
        };
        assert_eq!(out.kind(), "ok");
        // One job-level record (attempt 0 faulted) + one pass-level
        // record from inside that attempt: nothing dropped.
        let degs = out.all_degradations();
        assert_eq!(degs.len(), 2, "{degs:?}");
        assert_eq!(degs[0].pass, "job");
        assert_eq!(degs[0].func.as_deref(), Some("full"));
        assert_eq!(degs[1].pass, "dce");

        let shed = JobOutcome::Shed { qdepth: 9 };
        assert_eq!(shed.kind(), "shed");
        assert!(shed.all_degradations().is_empty());
        assert!(shed.output().is_none());
    }
}
