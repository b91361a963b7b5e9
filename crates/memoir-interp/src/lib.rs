//! # memoir-interp
//!
//! An interpreter for the MEMOIR IR (both the mut form and the SSA form)
//! with:
//!
//! * **undefined-behaviour trapping** — reading uninitialized elements,
//!   absent keys, or out-of-range indices traps (§IV-B makes these UB; the
//!   interpreter acts as a sanitizer), which makes differential testing of
//!   transformations strict;
//! * **copy accounting** — the `collection_copies` counter demonstrates
//!   Table III's claim that SSA construction + destruction introduces no
//!   spurious copies;
//! * **a deterministic cost model** — an execution-"time" proxy under
//!   which the paper's complexity-level effects reproduce without
//!   hardware: each run keeps an integer profile ([`ExecStats`]: one
//!   count per priced event and layout), and one table of integer
//!   weights ([`stats::COST_TABLE`]) prices it when the run returns.
//!
//! Memory (max RSS) is measured by the runtime-library twin
//! (`memoir-runtime`), not here — see DESIGN.md §2.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod machine;
pub mod regs;
pub mod stats;
mod value;

pub use machine::{const_value, Domain, Interp, Machine, Trap};
pub use stats::ExecStats;
pub use value::{CollId, Collection, Key, ObjId, Object, Store, Val, Value};
