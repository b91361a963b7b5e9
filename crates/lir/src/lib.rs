//! # lir
//!
//! A low-level SSA IR — the LLVM analogue of the MEMOIR paper's
//! substrate — with explicit memory (`alloca`/`malloc`/`load`/`store`/
//! `gep`), opaque runtime calls (the premature-lowering shape of §III),
//! an interpreter, and the three instrumented passes whose counters
//! reproduce the paper's pass analysis (§VII-D):
//!
//! * [`gvn::gvn`] — value numbering; Fig. 10's "% value numbers for
//!   memory";
//! * [`sinkpass::sink`] — code motion; Fig. 11's success / may-write /
//!   may-reference breakdown;
//! * [`constfold::constfold`] — folding; Fig. 12's scalar/load success
//!   and load fail counts;
//!
//! plus [`dce::dce`] and [`mem2reg::mem2reg`]. MEMOIR programs are lowered into this IR by
//! `memoir-lower`.
//!
//! All passes are also registered with the generic `passman` framework
//! ([`passes::registry`]), so pipelines can be described as textual
//! specs and run with [`passes::optimize`], with structural
//! [`verifier`] checks between passes in debug builds.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod constfold;
pub mod dce;
pub mod dom;
pub mod fingerprint;
pub mod gvn;
pub mod interp;
pub mod ir;
pub mod mem2reg;
pub mod passes;
pub mod printer;
pub mod regs;
pub mod sinkpass;
pub mod verifier;

pub use constfold::{constfold, ConstFoldStats};
pub use dce::dce;
pub use dom::{DomTree, DomTreeAnalysis};
pub use gvn::{gvn, GvnStats};
pub use interp::{Alu, Domain, LirMachine, LirStats, LirTrap, Machine};
pub use ir::{BinOp, Blk, CmpOp, Fun, Function, Ins, Inst, Module, Op, Val};
pub use mem2reg::{mem2reg, Mem2RegStats};
pub use passes::optimize;
pub use sinkpass::{sink, SinkStats};
