//! Cross-IR bridge stages: lowering one IR unit into a different IR unit
//! under the same fault policies, budgets, and reporting as ordinary
//! passes.
//!
//! [`PassManager`](crate::PassManager) is generic over a single IR type,
//! so a translation step (MEMOIR → low-level IR) cannot be registered as
//! a [`Pass`](crate::Pass). [`LowerStage`] fills the gap: it runs a
//! bridging body `FnOnce(&A) -> Result<(B, stats), String>` with
//!
//! * panic isolation (`catch_unwind`) under the recovering
//!   [`FaultPolicy`] variants. The body only reads its input, so a
//!   faulted stage leaves the input as it found it with no snapshot;
//! * output verification (e.g. the target IR's structural verifier) and
//!   an optional *cross-IR check* comparing input and output (e.g.
//!   interpreter agreement on probe inputs) — both classified as
//!   [`FaultCause::VerifyFailed`];
//! * per-stage time budgets and [`FaultPlan`] injection (`panic@lower`,
//!   `verify@lower`, `budget@lower`);
//! * a [`PassRun`] (and, on fault, a [`Degradation`](crate::Degradation))
//!   appended to the caller's [`RunReport`], so lowering shows up in the
//!   same profile table as every other pass.
//!
//! Faults take the same path as a pass's in `PassManager::run_one` (see
//! [`crate::recover`]), classified in the same order: panic, then body
//! error, then output verification, then cross-IR check, then budgets.
//! Under [`FaultPolicy::Abort`] panics propagate and other faults map to
//! [`RunError`]; under `SkipPass`/`StopPipeline` the stage reports
//! [`StageOutcome::Degraded`]. Either recovering policy marks the report
//! `stopped_early`: unlike an ordinary skipped pass, nothing downstream
//! of a lowering stage can run without its output, so the pipeline ends
//! at the stage with the *input* IR as the final result.

use crate::budget::{BudgetViolation, Budgets};
use crate::fault::{FaultPlan, InjectKind};
use crate::pass::PassError;
use crate::recover::{FaultCause, FaultPolicy, FaultSite, RecoveryAction};
use crate::runner::{PassRun, RunError, RunReport};

/// What a [`LowerStage`] run produced.
#[derive(Debug)]
pub enum StageOutcome<B> {
    /// The stage completed and verified; here is the lowered unit.
    Lowered(B),
    /// A recovering [`FaultPolicy`] contained a fault: no lowered unit
    /// exists. The [`Degradation`](crate::Degradation) is in the
    /// caller's [`RunReport`].
    Degraded {
        /// The [`RecoveryAction`] taken (`RolledBack` for `SkipPass`,
        /// `Stopped` for `StopPipeline`).
        action: RecoveryAction,
    },
}

impl<B> StageOutcome<B> {
    /// The lowered unit, if the stage completed.
    pub fn lowered(self) -> Option<B> {
        match self {
            StageOutcome::Lowered(b) => Some(b),
            StageOutcome::Degraded { .. } => None,
        }
    }
}

type OutputVerifier<B> = Box<dyn Fn(&B) -> Result<(), String>>;
type CrossCheck<A, B> = Box<dyn Fn(&A, &B) -> Result<(), String>>;

/// The spec name of every stage: reports and [`FaultPlan`] targets use it.
const STAGE_NAME: &str = "lower";

/// A cross-IR bridge stage from source IR `A` to target IR `B` (see the
/// module docs).
pub struct LowerStage<A, B> {
    policy: FaultPolicy,
    budgets: Budgets,
    verify_output: bool,
    output_verifier: Option<OutputVerifier<B>>,
    cross_check: Option<CrossCheck<A, B>>,
    injection: Option<FaultPlan>,
}

impl<A, B> std::fmt::Debug for LowerStage<A, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LowerStage")
            .field("policy", &self.policy)
            .field("budgets", &self.budgets)
            .field("verify_output", &self.verify_output)
            .field("has_output_verifier", &self.output_verifier.is_some())
            .field("has_cross_check", &self.cross_check.is_some())
            .field("injection", &self.injection)
            .finish()
    }
}

impl<A, B> Default for LowerStage<A, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A, B> LowerStage<A, B> {
    /// A stage named `lower` with the [`FaultPolicy::Abort`] policy, no
    /// budgets, and no verifiers.
    pub fn new() -> Self {
        LowerStage {
            policy: FaultPolicy::Abort,
            budgets: Budgets::default(),
            verify_output: true,
            output_verifier: None,
            cross_check: None,
            injection: None,
        }
    }

    /// Sets the fault policy (recovering policies contain a fault and
    /// report the stage degraded).
    pub fn on_fault(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the stage budgets (`max_pass_millis` bounds the stage body;
    /// growth budgets do not apply across IRs and are ignored).
    pub fn with_budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// Installs the output verifier (typically the target IR's
    /// structural verifier).
    pub fn with_output_verifier(mut self, v: impl Fn(&B) -> Result<(), String> + 'static) -> Self {
        self.output_verifier = Some(Box::new(v));
        self
    }

    /// Installs the cross-IR check, run after the output verifier
    /// (typically interpreter agreement between source and target on
    /// probe inputs).
    pub fn with_cross_check(mut self, c: impl Fn(&A, &B) -> Result<(), String> + 'static) -> Self {
        self.cross_check = Some(Box::new(c));
        self
    }

    /// Enables or disables output verification and the cross-IR check
    /// (both on by default when installed).
    pub fn verify_output(mut self, on: bool) -> Self {
        self.verify_output = on;
        self
    }

    /// Installs a deterministic fault-injection plan; plans targeting
    /// this stage's name (or the given invocation index) force a panic,
    /// verifier failure, or budget blowup.
    pub fn with_fault_injection(mut self, plan: FaultPlan) -> Self {
        self.injection = Some(plan);
        self
    }

    /// Runs the stage body over `input`, appending one [`PassRun`] (and,
    /// on a contained fault, one [`Degradation`](crate::Degradation)) to
    /// `report`.
    ///
    /// `invocation` is the stage's invocation index in the surrounding
    /// pipeline (used for `#N` fault-injection targets and recorded on
    /// any `Degradation`). The body returns the lowered unit plus flat
    /// report stats.
    pub fn run<F>(
        &self,
        input: &A,
        report: &mut RunReport,
        invocation: usize,
        body: F,
    ) -> Result<StageOutcome<B>, RunError>
    where
        F: FnOnce(&A) -> Result<(B, Vec<(&'static str, i64)>), String>,
    {
        let site = FaultSite {
            policy: self.policy,
            pass: STAGE_NAME,
            invocation,
            fixpoint_iteration: None,
        };
        let injected = self
            .injection
            .as_ref()
            .filter(|plan| plan.fires(invocation, STAGE_NAME))
            .map(|plan| plan.kind);

        let (result, time) = site.run(|| {
            if injected == Some(InjectKind::Panic) {
                panic!("fault injection: panic in stage `{STAGE_NAME}` at invocation {invocation}");
            }
            body(input).map_err(PassError::msg)
        })?;
        let checked = result.and_then(|(out, stats)| {
            let verify_msg = if injected == Some(InjectKind::VerifyFail) {
                Some(format!(
                    "fault injection: forced verifier failure after stage `{STAGE_NAME}`"
                ))
            } else if self.verify_output {
                self.output_verifier
                    .as_ref()
                    .and_then(|v| v(&out).err())
                    .or_else(|| {
                        self.cross_check
                            .as_ref()
                            .and_then(|c| c(input, &out).err())
                            .map(|msg| format!("cross-IR check failed: {msg}"))
                    })
            } else {
                None
            };
            if let Some(message) = verify_msg {
                return Err(FaultCause::VerifyFailed(message));
            }
            let forced = injected == Some(InjectKind::BudgetBlowup);
            match BudgetViolation::pass_time(forced, time, self.budgets.max_pass_millis) {
                Some(v) => Err(FaultCause::Budget(v)),
                None => Ok((out, stats)),
            }
        });
        match checked {
            Ok((out, stats)) => {
                report.passes.push(PassRun {
                    name: STAGE_NAME.to_string(),
                    time,
                    changed: true,
                    stats,
                    fixpoint_iteration: None,
                    annotations: Vec::new(),
                    snapshot: None,
                    profile: None,
                });
                Ok(StageOutcome::Lowered(out))
            }
            Err(cause) => {
                let action = site.fault(cause, time, None, report)?;
                // Nothing downstream can run without the stage's output.
                report.stopped_early = true;
                Ok(StageOutcome::Degraded { action })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Toy source IR: a bag of numbers.
    #[derive(Clone, Debug, PartialEq)]
    struct Src {
        vals: Vec<i64>,
    }

    /// Toy target IR: the numbers, doubled.
    #[derive(Clone, Debug, PartialEq)]
    struct Dst {
        vals: Vec<i64>,
    }

    type DoubleResult = Result<(Dst, Vec<(&'static str, i64)>), String>;

    fn double(src: &Src) -> DoubleResult {
        let vals: Vec<i64> = src.vals.iter().map(|v| v * 2).collect();
        let n = vals.len() as i64;
        Ok((Dst { vals }, vec![("lowered", n)]))
    }

    #[test]
    fn success_appends_a_pass_run_and_returns_the_output() {
        let src = Src {
            vals: vec![1, 2, 3],
        };
        let mut report = RunReport::default();
        let stage = LowerStage::<Src, Dst>::new();
        let out = stage.run(&src, &mut report, 0, double).unwrap();
        match out {
            StageOutcome::Lowered(d) => assert_eq!(d.vals, vec![2, 4, 6]),
            other => panic!("expected Lowered, got {other:?}"),
        }
        assert_eq!(report.passes.len(), 1);
        let run = &report.passes[0];
        assert_eq!(run.name, "lower");
        assert!(run.changed);
        assert_eq!(run.stat("lowered"), Some(3));
        assert!(!report.stopped_early);
    }

    #[test]
    fn body_error_aborts_with_pass_failed() {
        let src = Src { vals: vec![1] };
        let mut report = RunReport::default();
        let stage = LowerStage::<Src, Dst>::new();
        let err = stage
            .run(&src, &mut report, 0, |_| Err("unsupported".into()))
            .unwrap_err();
        assert!(matches!(err, RunError::PassFailed { ref pass, .. } if pass == "lower"));
        assert!(report.passes.is_empty());
    }

    #[test]
    fn output_verifier_failure_aborts_with_verify_failed() {
        let src = Src { vals: vec![1] };
        let mut report = RunReport::default();
        let stage =
            LowerStage::<Src, Dst>::new().with_output_verifier(|_d: &Dst| Err("bad output".into()));
        let err = stage.run(&src, &mut report, 0, double).unwrap_err();
        assert!(
            matches!(err, RunError::VerifyFailed { ref message, .. } if message == "bad output")
        );
    }

    #[test]
    fn cross_check_failure_is_a_verify_fault() {
        let src = Src { vals: vec![1] };
        let mut report = RunReport::default();
        let stage = LowerStage::<Src, Dst>::new()
            .with_cross_check(|_a: &Src, _b: &Dst| Err("interp disagreement".into()));
        let err = stage.run(&src, &mut report, 0, double).unwrap_err();
        match err {
            RunError::VerifyFailed { message, .. } => {
                assert!(message.contains("cross-IR check failed"));
                assert!(message.contains("interp disagreement"));
            }
            other => panic!("expected VerifyFailed, got {other:?}"),
        }
    }

    #[test]
    fn panic_under_skip_degrades() {
        let src = Src { vals: vec![7, 8] };
        let mut report = RunReport::default();
        let stage = LowerStage::<Src, Dst>::new().on_fault(FaultPolicy::SkipPass);
        let out = stage
            .run(&src, &mut report, 2, |_: &Src| panic!("lowering landmine"))
            .unwrap();
        assert!(matches!(
            out,
            StageOutcome::Degraded {
                action: RecoveryAction::RolledBack
            }
        ));
        assert_eq!(report.degradations.len(), 1);
        let d = &report.degradations[0];
        assert_eq!(d.pass, "lower");
        assert_eq!(d.invocation, 2);
        assert!(matches!(&d.cause, FaultCause::Panic(msg) if msg.contains("landmine")));
        assert!(report.stopped_early, "nothing can run past a dead stage");
        assert!(report.passes[0]
            .annotations
            .iter()
            .any(|(k, _)| k == "degraded"));
    }

    #[test]
    fn injected_faults_fire_by_stage_name() {
        for (plan, expect_cause) in [
            ("panic@lower", "panic"),
            ("verify@lower", "verify"),
            ("budget@lower", "budget"),
        ] {
            let src = Src { vals: vec![1] };
            let mut report = RunReport::default();
            let stage = LowerStage::<Src, Dst>::new()
                .on_fault(FaultPolicy::StopPipeline)
                .with_fault_injection(plan.parse().unwrap());
            let out = stage.run(&src, &mut report, 0, double).unwrap();
            assert!(
                matches!(
                    out,
                    StageOutcome::Degraded {
                        action: RecoveryAction::Stopped
                    }
                ),
                "{plan}"
            );
            let d = &report.degradations[0];
            let matched = match expect_cause {
                "panic" => matches!(d.cause, FaultCause::Panic(_)),
                "verify" => matches!(d.cause, FaultCause::VerifyFailed(_)),
                _ => matches!(d.cause, FaultCause::Budget(_)),
            };
            assert!(matched, "{plan}: {:?}", d.cause);
        }
    }

    #[test]
    fn injection_targeting_other_stage_does_not_fire() {
        let src = Src { vals: vec![1] };
        let mut report = RunReport::default();
        let stage = LowerStage::<Src, Dst>::new()
            .on_fault(FaultPolicy::SkipPass)
            .with_fault_injection("panic@dce".parse().unwrap());
        let out = stage.run(&src, &mut report, 0, double).unwrap();
        assert!(matches!(out, StageOutcome::Lowered(_)));
        assert!(report.degradations.is_empty());
    }

    #[test]
    fn pass_time_budget_is_enforced() {
        let src = Src { vals: vec![1] };
        let mut report = RunReport::default();
        let stage =
            LowerStage::<Src, Dst>::new().with_budgets(Budgets::parse("pass-ms=0").unwrap());
        let err = stage
            .run(&src, &mut report, 0, |s: &Src| {
                std::thread::sleep(Duration::from_millis(5));
                double(s)
            })
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::BudgetExceeded {
                violation: BudgetViolation::PassTime { .. },
                ..
            }
        ));
    }
}
