//! Fault policies, degradation records, and the one fault path passes
//! and the lower stage share.
//!
//! A *fault* is anything that would previously have aborted a pipeline:
//! a pass panicking, a pass returning an error, the inter-pass verifier
//! rejecting the IR, or a budget being exceeded. The [`FaultPolicy`]
//! decides what the runner does with a fault; under the recovering
//! policies the module is rolled back to the snapshot taken before the
//! offending pass (the last verified IR) and the fault is recorded as a
//! [`Degradation`] in the [`RunReport`] instead of tearing the pipeline
//! down.
//!
//! `PassManager::run_one` and [`LowerStage::run`](crate::LowerStage::run)
//! both go through `FaultSite`: it catches a panic and its text, maps a
//! fault to its [`RunError`] under [`FaultPolicy::Abort`], and records
//! the degraded row and its [`Degradation`] otherwise. Each caller
//! classifies in the same order — panic, then body error, then verifier
//! (or cross-IR check), then budget. Only the runner rolls back: the
//! stage never writes its input.

use crate::budget::BudgetViolation;
use crate::pass::PassError;
use crate::runner::{PassRun, RunError, RunReport};
use crate::snapshot::SnapshotCost;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// What the runner does when a pass faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Fail fast (the pre-fault-tolerance behaviour): pass errors and
    /// verifier failures become [`RunError`]s, panics propagate, and the
    /// module is left as the failing pass left it.
    #[default]
    Abort,
    /// Roll the module back to the snapshot taken before the faulting
    /// pass, record a [`Degradation`], and continue with the next pass.
    SkipPass,
    /// Roll back like [`FaultPolicy::SkipPass`], but stop the pipeline:
    /// the module is left in its last verified state and the report is
    /// marked as stopped early.
    StopPipeline,
}

impl FaultPolicy {
    /// What the runner does about a contained fault under this policy;
    /// `None` under [`FaultPolicy::Abort`], which contains nothing.
    pub(crate) fn action(self) -> Option<RecoveryAction> {
        match self {
            FaultPolicy::Abort => None,
            FaultPolicy::SkipPass => Some(RecoveryAction::RolledBack),
            FaultPolicy::StopPipeline => Some(RecoveryAction::Stopped),
        }
    }
}

impl FromStr for FaultPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "abort" => Ok(FaultPolicy::Abort),
            "skip" | "skip-pass" => Ok(FaultPolicy::SkipPass),
            "stop" | "stop-pipeline" => Ok(FaultPolicy::StopPipeline),
            other => Err(format!(
                "unknown fault policy `{other}` (expected abort|skip|stop)"
            )),
        }
    }
}

impl fmt::Display for FaultPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultPolicy::Abort => "abort",
            FaultPolicy::SkipPass => "skip",
            FaultPolicy::StopPipeline => "stop",
        })
    }
}

/// Why a pass was degraded.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultCause {
    /// The pass body panicked; the payload's message, if extractable.
    Panic(String),
    /// The pass returned a [`PassError`].
    PassFailed(String),
    /// The inter-pass verifier rejected the IR the pass produced.
    VerifyFailed(String),
    /// A per-pass or pipeline budget was exceeded.
    Budget(BudgetViolation),
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultCause::Panic(msg) => write!(f, "panic: {msg}"),
            FaultCause::PassFailed(msg) => write!(f, "pass error: {msg}"),
            FaultCause::VerifyFailed(msg) => write!(f, "verifier: {msg}"),
            FaultCause::Budget(v) => write!(f, "budget: {v}"),
        }
    }
}

/// What the runner did about a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Module rolled back to the pre-pass snapshot; pipeline continued.
    RolledBack,
    /// Module rolled back (where applicable) and the pipeline stopped.
    Stopped,
}

/// One contained fault: which pass, why, and what was done.
#[derive(Clone, Debug, PartialEq)]
pub struct Degradation {
    /// The faulting pass (spec name).
    pub pass: String,
    /// 0-based pass invocation index the fault happened at (the primary
    /// sort key of the deterministic degradation ordering).
    pub invocation: usize,
    /// Why it faulted.
    pub cause: FaultCause,
    /// `Some(i)` if the fault happened in iteration `i` of a
    /// `fixpoint(...)` group.
    pub fixpoint_iteration: Option<usize>,
    /// For a fault contained to one function of a sharded pass: the
    /// function's index in the stable function order (the secondary sort
    /// key). `None` for whole-pass faults, which sort first.
    pub func_index: Option<usize>,
    /// Rendered function key (e.g. `fn3`) for contained faults.
    pub func: Option<String>,
    /// What the runner did.
    pub action: RecoveryAction,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass `{}` degraded ({})", self.pass, self.cause)?;
        if let Some(func) = &self.func {
            write!(f, " [func {func}]")?;
        }
        if let Some(i) = self.fixpoint_iteration {
            write!(f, " [fix #{i}]")?;
        }
        match self.action {
            RecoveryAction::RolledBack => write!(f, " — rolled back, pipeline continued"),
            RecoveryAction::Stopped => write!(f, " — pipeline stopped"),
        }
    }
}

/// The text of a caught panic payload: the `&str` or `String` a
/// `panic!` carries, or a fixed placeholder for any other payload type.
///
/// Pass the payload itself (`&*boxed`), not a reference to its `Box`: a
/// `&Box<dyn Any + Send>` coerces to `&dyn Any` as the box, and would
/// always read as the placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// One pass or stage invocation, as its faults are charged: the fault
/// path `PassManager::run_one` and [`LowerStage::run`](crate::LowerStage::run)
/// share (see the module docs).
pub(crate) struct FaultSite<'a> {
    pub policy: FaultPolicy,
    /// The pass (or stage) name faults are charged to.
    pub pass: &'a str,
    pub invocation: usize,
    pub fixpoint_iteration: Option<usize>,
}

impl FaultSite<'_> {
    /// Runs and times `body`. Under a recovering policy a panic becomes
    /// [`FaultCause::Panic`] and a body error [`FaultCause::PassFailed`];
    /// under [`FaultPolicy::Abort`] a panic propagates with its original
    /// backtrace and a body error returns as [`RunError::PassFailed`],
    /// typed payload intact.
    pub fn run<T>(
        &self,
        body: impl FnOnce() -> Result<T, PassError>,
    ) -> Result<(Result<T, FaultCause>, Duration), RunError> {
        let t0 = Instant::now();
        let result = if self.policy == FaultPolicy::Abort {
            Ok(body().map_err(|error| RunError::PassFailed {
                pass: self.pass.to_string(),
                error,
            })?)
        } else {
            match catch_unwind(AssertUnwindSafe(body)) {
                Ok(r) => r.map_err(|e| FaultCause::PassFailed(e.message)),
                Err(payload) => Err(FaultCause::Panic(panic_message(&*payload))),
            }
        };
        Ok((result, t0.elapsed()))
    }

    /// Handles a fault the body or a check after it raised: under
    /// [`FaultPolicy::Abort`] it is the caller's [`RunError`]; under a
    /// recovering policy a degraded [`PassRun`] and its [`Degradation`]
    /// are appended to `report`, and the caller rolls back and continues
    /// or stops as the returned action says.
    pub fn fault(
        &self,
        cause: FaultCause,
        time: Duration,
        snapshot: Option<SnapshotCost>,
        report: &mut RunReport,
    ) -> Result<RecoveryAction, RunError> {
        let pass = self.pass.to_string();
        let Some(action) = self.policy.action() else {
            return Err(match cause {
                FaultCause::VerifyFailed(message) => RunError::VerifyFailed { pass, message },
                FaultCause::Budget(violation) => RunError::BudgetExceeded { pass, violation },
                FaultCause::Panic(_) | FaultCause::PassFailed(_) => {
                    unreachable!("`FaultSite::run` raises these itself under Abort")
                }
            });
        };
        report.passes.push(PassRun {
            name: pass,
            time,
            changed: false,
            stats: Vec::new(),
            fixpoint_iteration: self.fixpoint_iteration,
            annotations: vec![("degraded".into(), cause.to_string())],
            snapshot,
            profile: None,
        });
        report.degradations.push(self.degradation(cause, action));
        Ok(action)
    }

    /// The [`Degradation`] record of a fault at this site (whole-pass;
    /// callers set the function fields of a contained one).
    pub fn degradation(&self, cause: FaultCause, action: RecoveryAction) -> Degradation {
        Degradation {
            pass: self.pass.to_string(),
            invocation: self.invocation,
            cause,
            fixpoint_iteration: self.fixpoint_iteration,
            func_index: None,
            func: None,
            action,
        }
    }
}
