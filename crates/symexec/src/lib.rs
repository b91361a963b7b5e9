//! # symexec
//!
//! A bounded path-enumeration symbolic executor over both MEMOIR and the
//! low-level IR, used as a translation-validation oracle:
//!
//! * [`term`] — hash-consed term DAGs over the entry function's
//!   parameters, with constant folding and canonicalization;
//! * [`solver`] — an in-tree normalizer/solver (interval + congruence +
//!   structural equality — **no external SMT**) for path-condition
//!   feasibility, index narrowing, and bounded witness search;
//! * [`memoir`] — the MEMOIR path enumerator: `memoir_interp::Machine`,
//!   the interpreter's own step function, run over symbolic payloads;
//! * [`lirsym`] — the lir path enumerator: `lir::Machine`, the
//!   interpreter's own step function, run over symbolic words;
//! * [`equiv`] — per-function equivalence: path-pair discharge with
//!   **confirmation-gated refutation** (a divergence is only reported
//!   after the witness reproduces on the concrete interpreters).
//!
//! The prove-vs-probe policy lives in `memoir-lower::validate`: when
//! enumeration fits the [`Budget`], a function is discharged probe-free;
//! otherwise ([`SymError`]) the caller falls back to typed probes.
//! Symbolic execution is *never* allowed to produce a false alarm — an
//! unconfirmed candidate is `Inconclusive`, not a verdict.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod domain;
pub mod equiv;
pub mod lirsym;
pub mod memoir;
pub mod solver;
pub mod term;

use solver::Lit;
use term::TermId;

/// Enumeration limits. Enumeration that exceeds any limit aborts with
/// [`SymError::BudgetExceeded`] — callers fall back to probing; partial
/// path sets are never returned (they would make `Proved` unsound).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of completed paths.
    pub max_paths: usize,
    /// Maximum total instruction steps across all paths.
    pub max_ops: u64,
    /// Maximum interval width a symbolic index/length/address may have
    /// to be enumerated by forking (wider is `Unsupported`).
    pub fork_width: u32,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_paths: 64,
            max_ops: 1_000_000,
            fork_width: 4,
        }
    }
}

/// Why enumeration aborted (the "fall back to probing" signal).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymError {
    /// The program uses a construct the term language / symbolic heap
    /// cannot model precisely (floats, externs, wide symbolic indices…).
    Unsupported(&'static str),
    /// Path count or op count exceeded the [`Budget`].
    BudgetExceeded,
}

impl std::fmt::Display for SymError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            SymError::BudgetExceeded => write!(f, "path/op budget exceeded"),
        }
    }
}

impl std::error::Error for SymError {}

/// How a path ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathEnd {
    /// Entry-function return; one term per scalar result.
    Ret(Vec<TermId>),
    /// The concrete interpreter would trap on this path (any trap kind).
    Trap,
}

/// One enumerated path: a conjunction of literals over the parameters,
/// and how the function ends under it. Feasibility of `cond` was checked
/// at every fork, but only up to the solver's power — `predict` re-checks
/// concretely when a path is applied to arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path {
    /// Path condition: every literal must hold ((term != 0) == truth).
    pub cond: Vec<Lit>,
    /// The outcome under `cond`.
    pub end: PathEnd,
}

pub use equiv::{prove_lowering, prove_memoir_equiv, FnVerdict};
pub use lirsym::enumerate_lir;
pub use memoir::{enumerate_memoir, param_domains, predict, seed_params};
pub use solver::{contradicts, find_model};
pub use term::{type_domain, TermPool};
