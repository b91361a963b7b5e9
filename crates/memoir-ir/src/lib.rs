//! # memoir-ir
//!
//! The **Memory Object Intermediate Representation** (MEMOIR) from
//! *"Representing Data Collections in an SSA Form"* (CGO 2024): a
//! language-agnostic SSA form for sequential and associative data
//! collections, objects, and the fields contained therein.
//!
//! The core idea is a decoupling of the memory used to *store* data from the
//! memory used to *logically organize* data: collections become immutable
//! SSA values with unambiguous operations (`read`, `write`, `insert`,
//! `remove`, `copy`, `swap`, `size`, `has`, `keys`), which enables sparse,
//! element-level data-flow analysis via def-use chains.
//!
//! This crate defines the IR itself:
//!
//! * [`Type`], [`TypeTable`], [`ObjectType`] — the static, strong type
//!   system (§IV-E) with object types and per-field *field arrays*;
//! * [`InstKind`] — the instruction set of Fig. 2, in both the mutable
//!   (MUT-library) and SSA forms, with one instruction table (flat
//!   syntax, operand visits, [`InstKind::result_types`]) that the
//!   builder, printer, parser and verifier share;
//! * the collection-op facts, stated once: Fig. 5's pairs of SSA update
//!   and mut op ([`InstKind::to_mut`], [`InstKind::to_ssa`], the
//!   [`InstKind::versioned_operands`] each result versions), and one
//!   query row per op ([`InstKind::query_step`]) saying what `size`,
//!   `has k` and `read k` on its result equal;
//! * [`Function`], [`Module`] — arena-based program containers;
//! * [`FunctionBuilder`] / [`ModuleBuilder`] — ergonomic construction;
//! * [`printer`] / [`parser`] — a stable textual format;
//! * [`verifier`] — structural, type, SSA-dominance, and form invariants.
//!
//! Analyses live in `memoir-analysis`, transformations in `memoir-opt`,
//! the interpreter in `memoir-interp`, and lowering in `memoir-lower`.
//!
//! ## Example
//!
//! ```
//! use memoir_ir::{ModuleBuilder, Form, Type};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! mb.func("sum_first_two", Form::Ssa, |b| {
//!     let i64t = b.ty(Type::I64);
//!     let seq_ty = b.types.seq_of(i64t);
//!     let s = b.param("s", seq_ty);
//!     let zero = b.index(0);
//!     let one = b.index(1);
//!     let a = b.read(s, zero);
//!     let c = b.read(s, one);
//!     let sum = b.add(a, c);
//!     b.returns(&[i64t]);
//!     b.ret(vec![sum]);
//! });
//! let module = mb.finish();
//! memoir_ir::verifier::assert_valid(&module);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
pub mod fingerprint;
mod function;
mod ids;
mod inst;
mod module;
pub mod parser;
pub mod printer;
pub mod repr;
mod types;
pub mod verifier;

pub use builder::{FunctionBuilder, ModuleBuilder};
pub use function::{Block, Form, Function, Param, Value, ValueDef};
pub use ids::{BlockId, ExternId, FuncId, IdMap, InstId, ObjTypeId, TypeId, ValueId};
pub use inst::{BinOp, Callee, CmpOp, Constant, Effect, Inst, InstKind, KeyRel, Query, QueryStep};
pub use module::{CollectionCensus, ExternDecl, ExternEffects, Module};
pub use repr::{Repr, ReprChoices};
pub use types::{Field, ObjectLayout, ObjectType, Type, TypeError, TypeTable};
