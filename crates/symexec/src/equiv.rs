//! Per-function equivalence from path enumeration.
//!
//! Two functions are compared by enumerating both path sets over a
//! *shared* term pool (so parameter `i` is the same term on both sides)
//! and discharging every jointly-feasible path pair:
//!
//! * a MEMOIR/source path that **traps** imposes no obligation — this
//!   matches the probe policy, where a probe on which the source
//!   interpreter traps is skipped conservatively;
//! * a source `Ret` paired with a target `Trap`, or with a `Ret` whose
//!   terms are not provably equal under the joint path condition, is a
//!   *candidate* divergence — never a verdict. The solver's bounded
//!   model search produces a witness, and the witness is **confirmed on
//!   the concrete interpreters** before `Diverged` is reported. A
//!   candidate with no confirmable witness yields `Inconclusive`
//!   ("fall back to probing"), never a false alarm.
//!
//! `Proved` therefore means: every jointly-feasible pair was discharged
//! structurally (identical terms) or by the interval/congruence solver —
//! over the *synthesizable* input domains only (see [`FnVerdict::Proved`]).
//!
//! Which pairs are jointly feasible is decided once per pair from state
//! computed once per path ([`obligations`]); only the pairs left over
//! join their conditions.

use crate::memoir::seed_params;
use crate::solver::{self, Lit, Pairing, Part};
use crate::term::TermPool;
use crate::{lirsym, memoir, Budget, Path, PathEnd, SymError};
use lir::{LirMachine, Module as LModule};
use memoir_ir::{CmpOp, Module, Type};

/// Interpreter fuel for witness confirmation runs.
const CONFIRM_FUEL: u64 = 10_000_000;

/// The outcome of a per-function equivalence attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FnVerdict {
    /// Every jointly-feasible path pair was discharged: the functions
    /// agree on all inputs **within the per-type synthesizable domains**
    /// of [`crate::term::type_domain`] (the same domains `synth_args`
    /// probes draw from) — notably `Index` parameters are only covered
    /// on the probe window `[0, 16]` and `U64` only with the sign bit
    /// clear. Behavior outside those domains is *not* certified, and a
    /// function discharged in prove mode is not probed there either; a
    /// caller needing coverage beyond the window must treat `Proved` as
    /// bounded, not universal. Within the domains the enumerated path
    /// space is exhaustive whenever enumeration fits the budget.
    Proved,
    /// A divergence witness, confirmed by running both concrete
    /// interpreters on `args`.
    Diverged {
        /// The confirmed witness arguments.
        args: Vec<i64>,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// Could not prove or refute within the budget/solver power; the
    /// caller should fall back to probing.
    Inconclusive(&'static str),
}

fn budget_reason(e: SymError) -> &'static str {
    match e {
        SymError::Unsupported(what) => what,
        SymError::BudgetExceeded => "path/op budget exceeded",
    }
}

/// The path pairs [`compare_paths`] discharges, in the order it visits
/// them: each source path that returns (a source trap imposes no
/// obligation), with each target path whose condition the solver cannot
/// refute together with the source path's. Each path's part of the
/// solver state is computed once (`solver::Part`) and each pair is
/// decided from the two parts (`solver::Pairing`): exactly the pairs on
/// which [`solver::contradicts`] of the source condition followed by the
/// target condition is `false`.
pub fn obligations(pool: &TermPool, source: &[Path], target: &[Path]) -> Vec<(usize, usize)> {
    let targets: Vec<Part> = target.iter().map(|p| Part::new(pool, &p.cond)).collect();
    let mut pairing = Pairing::new(pool);
    let mut pairs = Vec::new();
    for (i, p) in source.iter().enumerate() {
        if p.end == PathEnd::Trap {
            continue;
        }
        let part = Part::new(pool, &p.cond);
        for (j, t) in targets.iter().enumerate() {
            if !pairing.contradicts(&part, t) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Discharges every jointly-feasible path pair ([`obligations`]);
/// `confirm` runs the concrete engines on a witness and returns
/// `Some(detail)` when they really disagree.
pub fn compare_paths(
    pool: &mut TermPool,
    paths_a: &[Path],
    paths_b: &[Path],
    confirm: &mut dyn FnMut(&[i64]) -> Option<String>,
) -> FnVerdict {
    for (i, j) in obligations(pool, paths_a, paths_b) {
        let (pa, pb) = (&paths_a[i], &paths_b[j]);
        let PathEnd::Ret(ret_a) = &pa.end else {
            unreachable!("only returning source paths carry obligations")
        };
        let mut joint: Vec<Lit> = pa.cond.clone();
        joint.extend_from_slice(&pb.cond);
        match &pb.end {
            PathEnd::Trap => {
                // Source returns, target traps: candidate.
                match solver::find_model(pool, &joint) {
                    Some(model) => match confirm(&model) {
                        Some(detail) => {
                            return FnVerdict::Diverged {
                                args: model,
                                detail,
                            }
                        }
                        None => return FnVerdict::Inconclusive("unconfirmed trap candidate"),
                    },
                    None => return FnVerdict::Inconclusive("no witness for trap candidate"),
                }
            }
            PathEnd::Ret(ret_b) => {
                if ret_a.len() != ret_b.len() {
                    return FnVerdict::Inconclusive("return arity mismatch");
                }
                for (&x, &y) in ret_a.iter().zip(ret_b.iter()) {
                    if x == y {
                        continue; // structurally identical
                    }
                    let ne = pool.cmp(CmpOp::Ne, false, x, y);
                    let mut lits = joint.clone();
                    lits.push((ne, true));
                    if solver::contradicts(pool, &lits) {
                        continue; // provably equal under the joint condition
                    }
                    match solver::find_model(pool, &lits) {
                        Some(model) => match confirm(&model) {
                            Some(detail) => {
                                return FnVerdict::Diverged {
                                    args: model,
                                    detail,
                                }
                            }
                            // The symbolic witness did not reproduce
                            // concretely: don't trust either engine
                            // enough to rule.
                            None => return FnVerdict::Inconclusive("unconfirmed value candidate"),
                        },
                        None => return FnVerdict::Inconclusive("no witness for candidate"),
                    }
                }
            }
        }
    }
    FnVerdict::Proved
}

/// Runs the MEMOIR interpreter on raw scalar args (typed per the
/// function's signature). `None` = trapped / non-scalar result — no
/// agreement obligation.
fn run_memoir_concrete(m: &Module, fname: &str, args: &[i64]) -> Option<Vec<i64>> {
    use memoir_interp::{Interp, Value};
    let fid = m.func_by_name(fname)?;
    let f = &m.funcs[fid];
    let vals: Vec<Value> = f
        .params
        .iter()
        .zip(args.iter())
        .map(|(p, &v)| match m.types.get(p.ty) {
            Type::Bool => Value::Bool(v != 0),
            ty => Value::Int(ty, v),
        })
        .collect();
    let mut interp = Interp::new(m).with_fuel(CONFIRM_FUEL);
    let out = interp.run_by_name(fname, vals).ok()?;
    out.iter().map(Value::as_int).collect()
}

/// Proves (or refutes, with a confirmed witness) that the lowered
/// function `fname` in `lm` agrees with its MEMOIR source in `m`.
pub fn prove_lowering(m: &Module, lm: &LModule, fname: &str, budget: &Budget) -> FnVerdict {
    let Some(fid) = m.func_by_name(fname) else {
        return FnVerdict::Inconclusive("unknown source function");
    };
    let Some(lfun) = lm.by_name(fname) else {
        return FnVerdict::Inconclusive("missing lowered function");
    };
    let Some(mut pool) = seed_params(m, fid) else {
        return FnVerdict::Inconclusive("non-scalar signature");
    };
    if lm.funcs[lfun.0 as usize].num_params as usize != m.funcs[fid].params.len() {
        return FnVerdict::Inconclusive("parameter count mismatch");
    }
    let paths_a = match memoir::enumerate_memoir(m, fid, &mut pool, budget) {
        Ok(p) => p,
        Err(e) => return FnVerdict::Inconclusive(budget_reason(e)),
    };
    let paths_b = match lirsym::enumerate_lir(lm, lfun, &mut pool, budget) {
        Ok(p) => p,
        Err(e) => return FnVerdict::Inconclusive(budget_reason(e)),
    };
    let mut confirm = |args: &[i64]| -> Option<String> {
        let expected = run_memoir_concrete(m, fname, args)?;
        let got = LirMachine::new(lm)
            .with_fuel(CONFIRM_FUEL)
            .run_by_name(fname, args.to_vec());
        match got {
            Err(trap) => Some(format!(
                "`{fname}`({args:?}): memoir-interp returned {expected:?} but LirMachine \
                 trapped: {trap:?}"
            )),
            Ok(got) if got != expected => Some(format!(
                "`{fname}`({args:?}): memoir-interp returned {expected:?} but LirMachine \
                 returned {got:?}"
            )),
            Ok(_) => None,
        }
    };
    compare_paths(&mut pool, &paths_a, &paths_b, &mut confirm)
}

/// Proves (or refutes, with a confirmed witness) that two MEMOIR modules
/// agree on function `fname` — the peephole-verification backend for
/// passman's `verify-sym` option (before-module vs after-module).
pub fn prove_memoir_equiv(ma: &Module, mb: &Module, fname: &str, budget: &Budget) -> FnVerdict {
    let (Some(fa), Some(fb)) = (ma.func_by_name(fname), mb.func_by_name(fname)) else {
        return FnVerdict::Inconclusive("function missing on one side");
    };
    let Some(mut pool) = seed_params(ma, fa) else {
        return FnVerdict::Inconclusive("non-scalar signature");
    };
    if seed_params(mb, fb).map(|p| p.param_tys) != Some(pool.param_tys.clone()) {
        return FnVerdict::Inconclusive("signature mismatch");
    }
    let paths_a = match memoir::enumerate_memoir(ma, fa, &mut pool, budget) {
        Ok(p) => p,
        Err(e) => return FnVerdict::Inconclusive(budget_reason(e)),
    };
    let paths_b = match memoir::enumerate_memoir(mb, fb, &mut pool, budget) {
        Ok(p) => p,
        Err(e) => return FnVerdict::Inconclusive(budget_reason(e)),
    };
    let mut confirm = |args: &[i64]| -> Option<String> {
        let expected = run_memoir_concrete(ma, fname, args)?;
        match run_memoir_concrete(mb, fname, args) {
            None => Some(format!(
                "`{fname}`({args:?}): before returned {expected:?} but after trapped"
            )),
            Some(got) if got != expected => Some(format!(
                "`{fname}`({args:?}): before returned {expected:?} but after returned {got:?}"
            )),
            Some(_) => None,
        }
    };
    compare_paths(&mut pool, &paths_a, &paths_b, &mut confirm)
}
