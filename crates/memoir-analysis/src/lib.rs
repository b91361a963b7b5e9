//! # memoir-analysis
//!
//! Analyses over the MEMOIR IR (paper §V):
//!
//! * [`dominators`] — `BlockId`-typed dominator trees and dominance
//!   frontiers over `passman::graph` (for SSA construction, fusion,
//!   sinking, materialization and lowering), plus natural-loop depths;
//! * [`defuse`] — sparse def-use chains, the backbone of element-level
//!   analysis;
//! * [`chain`] — the one walker of collection version chains, answering
//!   `size`, `has` and `read` from each op's query row (constant
//!   propagation and fusion's query CSE);
//! * [`liveness`] — scalar SSA liveness (consumed by SSA destruction);
//! * [`exprtree`] — expression trees (Def. 1) in canonical affine form;
//! * [`range`] — ranges and the range lattice (Defs. 2–5);
//! * [`idxrange`] — intraprocedural symbolic index ranges, the `R(i)`
//!   input of Alg. 1;
//! * [`liverange`] — intraprocedural live range analysis of sequence
//!   elements (Table I transfers iterated to a fixed point, in place of
//!   Alg. 1's context-sensitive constraint graph), in sound and
//!   caller-side paper-methodology modes (Listing 4's callee-side element
//!   guards are unsound under recursion and not implemented);
//! * [`escape`] — allocation-site escape analysis for heap/stack
//!   selection (§VI);
//! * [`affinity`] — field affinity analysis choosing field-elision
//!   candidates (§V);
//! * [`repr`] — adaptive representation selection (dense / inline
//!   layouts per allocation site, from escape + index-range facts);
//! * [`callgraph`] / [`purity`] — call graph and function effect
//!   summaries (dead-call elimination, sinking);
//! * [`retalias`] — which parameter each returned collection aliases
//!   (SSA destruction's by-reference parameters, DEE call specialization);
//! * [`cached`] — adapters exposing these analyses through the
//!   `passman` analysis manager so passes share cached results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affinity;
pub mod cached;
pub mod callgraph;
pub mod chain;
pub mod defuse;
pub mod dominators;
pub mod escape;
pub mod exprtree;
pub mod idxrange;
pub mod liveness;
pub mod liverange;
pub mod purity;
pub mod range;
pub mod repr;
pub mod retalias;

pub use affinity::Affinity;
pub use callgraph::CallGraph;
pub use defuse::DefUse;
pub use dominators::DomTree;
pub use escape::{EscapeAnalysis, Placement, TypeEscape};
pub use exprtree::{Affine, Expr, Term};
pub use idxrange::IndexRanges;
pub use liveness::Liveness;
pub use liverange::{live_ranges, LiveRangeConfig, LiveRanges};
pub use purity::{EffectSummary, Purity};
pub use range::Range;
pub use repr::choose_reprs;
pub use retalias::ReturnAliases;
