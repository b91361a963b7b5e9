//! # passman
//!
//! A generic pass-manager framework shared by the MEMOIR pipeline
//! (`memoir-opt`) and the low-level IR pipeline (`lir`).
//!
//! The framework replaces hand-rolled pass sequences (each timing itself,
//! each recomputing every analysis from scratch) with four cooperating
//! pieces:
//!
//! * [`Pass`] — a named transformation over an IR unit, reporting a
//!   changed-bit, flat serde-friendly statistics, and which functions it
//!   mutated (its *analysis invalidation* declaration);
//! * [`AnalysisManager`] — lazily computes and caches per-function
//!   [`Analysis`] results (and module-wide [`ModuleAnalysis`] results),
//!   invalidating them only when a pass declares a mutation, with hit/miss
//!   counters surfaced in the final report;
//! * [`PipelineSpec`] — an LLVM `-passes=`-style textual pipeline
//!   description, e.g. `"constprop,dee,fixpoint(simplify,sink,dce)"`,
//!   where `fixpoint(...)` iterates its body to convergence using each
//!   pass's changed-bit;
//! * [`PassManager`] — runs a spec against a [`PassRegistry`], timing
//!   every pass, optionally verifying the IR between passes (naming the
//!   offending pass on failure), and producing a unified [`RunReport`].
//!
//! The framework is IR-agnostic: anything implementing [`IrUnit`] can be
//! driven by it. The graph algorithms both IRs' passes and verifiers
//! stand on (reverse post-order, dominators, SCCs) live in [`graph`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod budget;
pub mod cache;
pub mod fault;
pub mod fingerprint;
pub mod graph;
pub mod parallel;
pub mod pass;
pub mod recover;
pub mod runner;
pub mod snapshot;
pub mod spec;
pub mod stage;

pub use analysis::{Analysis, AnalysisManager, CacheCounter, FingerprintStats, ModuleAnalysis};
pub use budget::{BudgetViolation, Budgets};
pub use cache::{cache_from_env, CompileCache, CompileCacheStats};
pub use fault::{FaultPlan, InjectKind};
pub use fingerprint::{Fingerprint, StableHasher, TextDigest};
pub use parallel::{
    threads_from_env, ContainedFault, ExecContext, FuncOutcome, FuncPass, FuncPassAdapter,
    FuncPassProfile, ShardStat,
};
pub use pass::{FnPass, Mutation, Pass, PassError, PassOutcome, PassRegistry};
pub use recover::{panic_message, Degradation, FaultCause, FaultPolicy, RecoveryAction};
pub use runner::{PassManager, PassRun, RunError, RunReport};
pub use snapshot::{CowEngine, SnapshotCost, SnapshotStats};
pub use spec::{PassCall, PassOptions, PipelineSpec, SpecParseError, SpecStep};
pub use stage::{LowerStage, StageOutcome};

use std::fmt::Debug;
use std::hash::Hash;

/// An IR unit a pass pipeline can run over: a module-like container
/// whose functions have stable keys and content [`Fingerprint`]s, and can
/// be detached from the module shell, worked on independently and
/// re-attached. Fingerprints key the analysis cache and the
/// [`CompileCache`]; detaching backs the sharded executor ([`parallel`])
/// and per-function copy-on-write snapshots ([`snapshot`]).
///
/// Invariants implementors must uphold:
///
/// * `fingerprints` returns one entry per key of `func_keys`, under the
///   contract in [`fingerprint`] (deterministic, renumbering-insensitive,
///   sensitive to op/type/callee edits);
/// * `detach_funcs` returns every function in stable ascending key order
///   and leaves the shell intact (types, externs, entry survive);
/// * `attach_funcs(detach_funcs())` round-trips to an identical module;
/// * `clone_func`/`restore_func` address functions in place without
///   disturbing any other function.
///
/// `Clone` is the whole-module snapshot a recovering policy takes before
/// a pass that may touch the shell; `Sync` lets scoped worker threads
/// share the shell. `FuncKey` is `Ord + Send + Sync` so the sharded
/// executor can partition the key set deterministically.
pub trait IrUnit: Clone + Sync {
    /// Stable identifier for a function within the unit.
    type FuncKey: Copy + Eq + Ord + Hash + Debug + Send + Sync + 'static;

    /// One detached function body (`'static` so cached pass outputs can
    /// live in the type-erased [`CompileCache`]).
    type Func: Send + Clone + 'static;

    /// All function keys currently in the unit.
    fn func_keys(&self) -> Vec<Self::FuncKey>;

    /// A cheap size measure (typically the instruction count): the unit
    /// of growth budgets and of the snapshot-cost counters.
    fn size_hint(&self) -> usize;

    /// Structural content fingerprints for every function, in any order.
    fn fingerprints(&self) -> Vec<(Self::FuncKey, Fingerprint)>;

    /// Removes all functions, returning `(key, function)` pairs in
    /// stable ascending key order. The shell stays behind.
    fn detach_funcs(&mut self) -> Vec<(Self::FuncKey, Self::Func)>;

    /// Re-attaches functions previously returned by
    /// [`detach_funcs`](IrUnit::detach_funcs), in the same order.
    fn attach_funcs(&mut self, funcs: Vec<(Self::FuncKey, Self::Func)>);

    /// Clones one function out of the module (for snapshots).
    fn clone_func(&self, key: Self::FuncKey) -> Self::Func;

    /// Overwrites one function in place (for snapshot restore).
    fn restore_func(&mut self, key: Self::FuncKey, func: Self::Func);

    /// [`size_hint`](IrUnit::size_hint) for one function.
    fn func_size_hint(&self, key: Self::FuncKey) -> usize;
}

/// The toy IR the crate's unit tests run on: one "function" per vector
/// slot, each holding a counter.
#[cfg(test)]
pub(crate) mod toy {
    use super::{Fingerprint, IrUnit};

    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct Toy {
        pub vals: Vec<i64>,
    }

    impl IrUnit for Toy {
        type FuncKey = usize;
        type Func = i64;
        fn func_keys(&self) -> Vec<usize> {
            (0..self.vals.len()).collect()
        }
        fn size_hint(&self) -> usize {
            self.vals.len()
        }
        fn fingerprints(&self) -> Vec<(usize, Fingerprint)> {
            self.vals
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, Fingerprint(v as u64)))
                .collect()
        }
        fn detach_funcs(&mut self) -> Vec<(usize, i64)> {
            std::mem::take(&mut self.vals)
                .into_iter()
                .enumerate()
                .collect()
        }
        fn attach_funcs(&mut self, funcs: Vec<(usize, i64)>) {
            assert!(self.vals.is_empty());
            for (i, (k, v)) in funcs.into_iter().enumerate() {
                assert_eq!(i, k, "functions re-attach in key order");
                self.vals.push(v);
            }
        }
        fn clone_func(&self, key: usize) -> i64 {
            self.vals[key]
        }
        fn restore_func(&mut self, key: usize, func: i64) {
            self.vals[key] = func;
        }
        fn func_size_hint(&self, _key: usize) -> usize {
            1
        }
    }
}
