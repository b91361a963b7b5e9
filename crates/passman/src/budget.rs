//! Pipeline and per-pass resource budgets.
//!
//! Budgets turn a runaway pass — a fixpoint group that never converges,
//! a rewrite that superlinearly duplicates code, a pass that spins — into
//! a *contained* fault the [`FaultPolicy`](crate::FaultPolicy) can
//! handle, instead of a hang or memory blowup.
//!
//! Three budget axes are enforced by the runner:
//!
//! * **fixpoint iterations** — the per-group cap (`fixpoint<max=4>(...)`
//!   or [`Budgets::max_fixpoint_iters`]);
//! * **wall-clock time** — per pass ([`Budgets::max_pass_millis`] or
//!   `pass<max-ms=50>`) and per pipeline
//!   ([`Budgets::max_pipeline_millis`]). Enforcement is post-hoc: the
//!   runner never pre-empts a pass mid-body (even function-sharded
//!   passes run their shards to completion), but the first pass to
//!   exceed its budget is rolled back and the pipeline degrades instead
//!   of compounding the overrun;
//! * **instruction-count growth** — per pass, as a factor over the
//!   pre-pass [`IrUnit::size_hint`](crate::IrUnit::size_hint)
//!   ([`Budgets::max_growth`] or `pass<max-growth=2.0>`).

use std::fmt;
use std::time::Duration;

/// Pipeline-wide default budgets (per-pass spec options override the
/// per-pass axes; see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Budgets {
    /// Wall-clock budget for any single pass, in milliseconds.
    pub max_pass_millis: Option<u64>,
    /// Wall-clock budget for the whole pipeline, in milliseconds.
    pub max_pipeline_millis: Option<u64>,
    /// Instruction-count growth factor allowed for a single pass
    /// (e.g. `2.0` = a pass may at most double the module).
    pub max_growth: Option<f64>,
    /// Default iteration cap for `fixpoint(...)` groups (overridden per
    /// group by `fixpoint<max=N>(...)`).
    pub max_fixpoint_iters: Option<usize>,
}

impl Budgets {
    /// No limits.
    pub fn none() -> Self {
        Budgets::default()
    }

    /// Whether every axis is unlimited.
    pub fn is_unlimited(&self) -> bool {
        *self == Budgets::default()
    }

    /// Parses a `key=value,...` budget list, the `--budget=` CLI syntax:
    /// `pass-ms=50,pipeline-ms=2000,growth=2.0,fixpoint=4`. The word
    /// `unlimited` — what [`Budgets::none`] displays as — parses back to
    /// no limits, so `parse . to_string` round-trips.
    ///
    /// ```
    /// use passman::Budgets;
    ///
    /// let b = Budgets::parse("pass-ms=50,growth=2.5").unwrap();
    /// assert_eq!(b.max_pass_millis, Some(50));
    /// assert_eq!(Budgets::parse(&b.to_string()).unwrap(), b);
    /// assert_eq!(Budgets::parse("unlimited").unwrap(), Budgets::none());
    /// assert!(Budgets::parse("growth=nan").is_err(), "bounds must be finite");
    /// ```
    pub fn parse(s: &str) -> Result<Self, String> {
        if s.trim() == "unlimited" {
            return Ok(Budgets::none());
        }
        let mut b = Budgets::none();
        for item in s.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("budget `{item}` is not of the form key=value"))?;
            let bad = || format!("budget `{item}` has an unparsable value");
            match key.trim() {
                "pass-ms" => b.max_pass_millis = Some(value.trim().parse().map_err(|_| bad())?),
                "pipeline-ms" => {
                    b.max_pipeline_millis = Some(value.trim().parse().map_err(|_| bad())?)
                }
                "growth" => {
                    let g: f64 = value.trim().parse().map_err(|_| bad())?;
                    // NaN never trips a comparison (and breaks display
                    // round-tripping); infinities are "no limit" spelled
                    // confusingly. Insist on a real bound.
                    if !g.is_finite() {
                        return Err(format!("budget `{item}` must be finite"));
                    }
                    b.max_growth = Some(g);
                }
                "fixpoint" => b.max_fixpoint_iters = Some(value.trim().parse().map_err(|_| bad())?),
                other => {
                    return Err(format!(
                        "unknown budget `{other}` (expected pass-ms|pipeline-ms|growth|fixpoint)"
                    ))
                }
            }
        }
        Ok(b)
    }
}

impl fmt::Display for Budgets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if let Some(v) = self.max_pass_millis {
            parts.push(format!("pass-ms={v}"));
        }
        if let Some(v) = self.max_pipeline_millis {
            parts.push(format!("pipeline-ms={v}"));
        }
        if let Some(v) = self.max_growth {
            parts.push(format!("growth={v}"));
        }
        if let Some(v) = self.max_fixpoint_iters {
            parts.push(format!("fixpoint={v}"));
        }
        if parts.is_empty() {
            f.write_str("unlimited")
        } else {
            f.write_str(&parts.join(","))
        }
    }
}

/// A budget that was exceeded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BudgetViolation {
    /// A single pass ran longer than its wall-clock budget.
    PassTime {
        /// The budget, in milliseconds.
        limit_ms: u64,
        /// What the pass actually took.
        actual_ms: u64,
    },
    /// The pipeline as a whole ran longer than its wall-clock budget.
    PipelineTime {
        /// The budget, in milliseconds.
        limit_ms: u64,
        /// Elapsed pipeline time when the violation was detected.
        actual_ms: u64,
    },
    /// A pass grew the module beyond the allowed factor.
    Growth {
        /// The allowed growth factor.
        limit: f64,
        /// Instruction count before the pass.
        before: usize,
        /// Instruction count after the pass.
        after: usize,
    },
}

impl BudgetViolation {
    /// The pass-time check passes and the lower stage make after a
    /// successful body: `forced` (an injected blowup) always violates,
    /// as if the limit were 0; otherwise `time` must stay within
    /// `limit_ms`, when one is set.
    pub(crate) fn pass_time(
        forced: bool,
        time: Duration,
        limit_ms: Option<u64>,
    ) -> Option<BudgetViolation> {
        let limit_ms = if forced { 0 } else { limit_ms? };
        (forced || time > Duration::from_millis(limit_ms)).then(|| BudgetViolation::PassTime {
            limit_ms,
            actual_ms: (time.as_millis() as u64).max(1),
        })
    }
}

impl fmt::Display for BudgetViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetViolation::PassTime {
                limit_ms,
                actual_ms,
            } => write!(f, "pass time {actual_ms}ms exceeded budget {limit_ms}ms"),
            BudgetViolation::PipelineTime {
                limit_ms,
                actual_ms,
            } => write!(
                f,
                "pipeline time {actual_ms}ms exceeded budget {limit_ms}ms"
            ),
            BudgetViolation::Growth {
                limit,
                before,
                after,
            } => write!(
                f,
                "module grew {before} → {after} insts, over the {limit}× growth budget"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_budget_lists() {
        let b = Budgets::parse("pass-ms=50,pipeline-ms=2000,growth=2.5,fixpoint=4").unwrap();
        assert_eq!(b.max_pass_millis, Some(50));
        assert_eq!(b.max_pipeline_millis, Some(2000));
        assert_eq!(b.max_growth, Some(2.5));
        assert_eq!(b.max_fixpoint_iters, Some(4));
        assert_eq!(Budgets::parse("").unwrap(), Budgets::none());
        assert_eq!(Budgets::parse(" growth=2 ").unwrap().max_growth, Some(2.0));
        assert!(Budgets::parse("nope=1").is_err());
        assert!(Budgets::parse("pass-ms").is_err());
        assert!(Budgets::parse("pass-ms=abc").is_err());
        assert!(Budgets::parse("growth=nan").is_err());
        assert!(Budgets::parse("growth=inf").is_err());
    }

    #[test]
    fn display_round_trips() {
        for text in ["pass-ms=50", "growth=2.5,fixpoint=4", "", ",", "unlimited"] {
            let b = Budgets::parse(text).unwrap();
            let shown = b.to_string();
            if b.is_unlimited() {
                assert_eq!(shown, "unlimited");
            }
            // `parse . to_string` must close, unlimited included.
            assert_eq!(Budgets::parse(&shown).unwrap(), b);
        }
    }
}
