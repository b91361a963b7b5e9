//! The symbolic value domain both IRs' engines run in, and the worklist
//! that drives them.
//!
//! [`Sym`] is the domain over one path: it builds terms in the shared
//! pool, counts steps against the [`Budget`], and decides each word the
//! engine needs concretely from the path's [`Pins`] — or stops the step to
//! fork the path, or refuses the function. `lirsym` and `memoir`
//! implement each IR's `Domain` trait on it; [`explore`] runs a machine
//! to the end of every feasible path.

use crate::solver::{self, Lit};
use crate::term::{TermId, TermPool};
use crate::{Budget, Path, PathEnd, SymError};
use std::collections::HashMap;

/// Why a symbolic step stopped short.
pub(crate) enum Stop {
    /// The concrete interpreter would trap here (any trap kind).
    Trap,
    /// Fork the path, pinning the term to each value in turn.
    Fork(TermId, Vec<i64>),
    /// Fork the path on the term being non-zero or zero.
    BoolFork(TermId),
    /// The program uses a construct the engine cannot model.
    Unsupported(&'static str),
    /// The op budget ran out.
    Budget,
}

impl From<lir::LirTrap> for Stop {
    fn from(_: lir::LirTrap) -> Self {
        Stop::Trap
    }
}

impl From<memoir_interp::Trap> for Stop {
    fn from(_: memoir_interp::Trap) -> Self {
        Stop::Trap
    }
}

impl From<memoir_interp::regs::PhiFault> for Stop {
    fn from(_: memoir_interp::regs::PhiFault) -> Self {
        Stop::Trap
    }
}

/// What one path has decided so far.
#[derive(Clone, Debug, Default)]
struct Pins {
    /// The path condition.
    cond: Vec<Lit>,
    /// Concrete values pinned by forking, keyed by term: a re-run of the
    /// forked instruction resolves the same term concretely.
    fixes: HashMap<TermId, i64>,
    /// Truths pinned by forking on a condition that is not a 0/1 word (a
    /// lir branch takes any non-zero word), so "true" fixes no value.
    truths: HashMap<TermId, bool>,
}

/// The symbolic domain over one path.
pub(crate) struct Sym<'a> {
    /// The pool every term of the enumeration lives in.
    pub(crate) pool: &'a mut TermPool,
    budget: &'a Budget,
    ops: &'a mut u64,
    pins: &'a Pins,
}

impl Sym<'_> {
    /// Counts one step against the budget.
    pub(crate) fn count_op(&mut self) -> Result<(), Stop> {
        *self.ops += 1;
        if *self.ops > self.budget.max_ops {
            return Err(Stop::Budget);
        }
        Ok(())
    }

    /// A term's concrete value on this path: a constant or a pin, or a
    /// fork over its interval when that is at most the budget's fork
    /// width; `what` names a wider one.
    pub(crate) fn pin(&mut self, t: TermId, what: &'static str) -> Result<i64, Stop> {
        if let Some(v) = self.pool.as_const(t) {
            return Ok(v);
        }
        if let Some(&v) = self.pins.fixes.get(&t) {
            return Ok(v);
        }
        let iv = solver::interval_under(self.pool, &self.pins.cond, t);
        let width = iv.hi.saturating_sub(iv.lo).saturating_add(1);
        if width >= 1 && width <= self.budget.fork_width as i128 {
            Err(Stop::Fork(t, (iv.lo..=iv.hi).map(|v| v as i64).collect()))
        } else {
            Err(Stop::Unsupported(what))
        }
    }

    /// Whether `t != 0` is already decided on this path.
    pub(crate) fn decided(&self, t: TermId) -> Option<bool> {
        let v = self
            .pool
            .as_const(t)
            .or_else(|| self.pins.fixes.get(&t).copied());
        v.map(|v| v != 0)
            .or_else(|| self.pins.truths.get(&t).copied())
    }

    /// Whether `t != 0` on this path, forking if it is undecided.
    pub(crate) fn decide(&mut self, t: TermId) -> Result<bool, Stop> {
        self.decided(t).ok_or(Stop::BoolFork(t))
    }

    /// `t == 0`.
    pub(crate) fn is_zero(&mut self, t: TermId) -> TermId {
        let zero = self.pool.konst(0);
        self.pool.cmp(memoir_ir::CmpOp::Eq, false, t, zero)
    }
}

/// Runs `init` — a machine positioned at its entry — to the end of every
/// feasible path, forking it whenever `run` stops to pin a term. `run`
/// resumes a machine in the given domain and returns the entry's result
/// terms. `bits` says the engine's booleans are the words `0`/`1`, so a
/// true branch also pins its condition to `1`.
pub(crate) fn explore<M: Clone>(
    pool: &mut TermPool,
    budget: &Budget,
    bits: bool,
    init: M,
    mut run: impl FnMut(&mut M, &mut Sym) -> Result<Vec<TermId>, Stop>,
) -> Result<Vec<Path>, SymError> {
    let mut ops = 0;
    let mut paths = Vec::new();
    let mut worklist = vec![(init, Pins::default())];
    while let Some((mut machine, pins)) = worklist.pop() {
        let mut sym = Sym {
            pool: &mut *pool,
            budget,
            ops: &mut ops,
            pins: &pins,
        };
        let end = match run(&mut machine, &mut sym) {
            Ok(terms) => PathEnd::Ret(terms),
            Err(Stop::Trap) => PathEnd::Trap,
            Err(Stop::Fork(t, vals)) => {
                // Reverse so the lowest value is popped (and explored)
                // first — the worklist is LIFO.
                for &v in vals.iter().rev() {
                    let c = pool.konst(v);
                    let lit = (pool.cmp(memoir_ir::CmpOp::Eq, false, t, c), true);
                    fork(pool, &mut worklist, (&machine, &pins), lit, |p| {
                        p.fixes.insert(t, v);
                    });
                }
                continue;
            }
            Err(Stop::BoolFork(t)) => {
                for truth in [false, true] {
                    fork(pool, &mut worklist, (&machine, &pins), (t, truth), |p| {
                        p.truths.insert(t, truth);
                        if !truth || bits {
                            p.fixes.insert(t, truth as i64);
                        }
                    });
                }
                continue;
            }
            Err(Stop::Unsupported(what)) => return Err(SymError::Unsupported(what)),
            Err(Stop::Budget) => return Err(SymError::BudgetExceeded),
        };
        if paths.len() >= budget.max_paths {
            return Err(SymError::BudgetExceeded);
        }
        paths.push(Path {
            cond: pins.cond,
            end,
        });
    }
    Ok(paths)
}

/// Pushes the child of a stopped execution that assumes `lit` and pins
/// what `pin` records, unless `lit` contradicts its path.
fn fork<M: Clone>(
    pool: &TermPool,
    worklist: &mut Vec<(M, Pins)>,
    (machine, pins): (&M, &Pins),
    lit: Lit,
    pin: impl FnOnce(&mut Pins),
) {
    let mut child = pins.clone();
    child.cond.push(lit);
    pin(&mut child);
    if !solver::contradicts(pool, &child.cond) {
        worklist.push((machine.clone(), child));
    }
}
