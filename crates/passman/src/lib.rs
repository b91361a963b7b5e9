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
//! The framework is IR-agnostic: anything implementing [`IrUnit`] (a way
//! to enumerate function keys) can be driven by it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod budget;
pub mod cache;
pub mod fault;
pub mod fingerprint;
pub mod parallel;
pub mod pass;
pub mod query;
pub mod recover;
pub mod runner;
pub mod snapshot;
pub mod spec;
pub mod stage;

pub use analysis::{Analysis, AnalysisManager, CacheCounter, FingerprintStats, ModuleAnalysis};
pub use budget::{BudgetViolation, Budgets};
pub use cache::{CompileCache, CompileCacheStats};
pub use fault::{FaultPlan, InjectKind};
pub use fingerprint::{Fingerprint, StableHasher, TextDigest};
pub use parallel::{
    ContainedFault, ExecContext, FuncOutcome, FuncPass, FuncPassAdapter, FuncPassProfile,
    ShardStat, ShardedIr,
};
pub use pass::{FnPass, Mutation, Pass, PassError, PassOutcome, PassRegistry};
pub use query::QueryCtx;
pub use recover::{Degradation, FaultCause, FaultPolicy, RecoveryAction};
pub use runner::{PassManager, PassRun, RunError, RunReport};
pub use snapshot::{CowEngine, FullCloneEngine, SnapshotCost, SnapshotEngine, SnapshotStats};
pub use spec::{PassCall, PassOptions, PipelineSpec, SpecParseError, SpecStep};
pub use stage::{LowerStage, StageOutcome};

use std::fmt::Debug;
use std::hash::Hash;

/// An IR unit a pass pipeline can run over: a module-like container with
/// enumerable per-function keys.
///
/// `FuncKey` is `Ord + Send + Sync` so the sharded executor
/// ([`parallel`]) can partition the key set deterministically and share
/// it across scoped worker threads.
pub trait IrUnit {
    /// Stable identifier for a function within the unit.
    type FuncKey: Copy + Eq + Ord + Hash + Debug + Send + Sync + 'static;

    /// All function keys currently in the unit.
    fn func_keys(&self) -> Vec<Self::FuncKey>;

    /// A cheap size measure (typically the instruction count) used by
    /// growth budgets. Units returning the default `0` opt out of growth
    /// budgeting.
    fn size_hint(&self) -> usize {
        0
    }

    /// Whether this IR produces content [`Fingerprint`]s — the cheap
    /// probe callers check before paying for
    /// [`fingerprints`](IrUnit::fingerprints). Defaults to `false`:
    /// units that opt out keep the analysis manager's legacy
    /// generation-counter invalidation.
    fn supports_fingerprints(&self) -> bool {
        false
    }

    /// Structural content fingerprints for every function, in any order
    /// (see [`fingerprint`] for the contract: deterministic,
    /// renumbering-insensitive, sensitive to op/type/callee edits).
    /// Must return one entry per key of [`func_keys`](IrUnit::func_keys)
    /// when [`supports_fingerprints`](IrUnit::supports_fingerprints) is
    /// `true`.
    fn fingerprints(&self) -> Vec<(Self::FuncKey, Fingerprint)> {
        Vec::new()
    }
}
