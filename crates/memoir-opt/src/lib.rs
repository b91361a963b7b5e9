//! # memoir-opt
//!
//! MEMOIR transformations (paper §V–§VI): SSA construction and destruction
//! (Fig. 5, Alg. 3), dead element elimination (Alg. 2, Listings 2–4),
//! dead field elimination, field elision, redundant indirection
//! elimination, key folding, and the supporting scalar passes (constant
//! propagation with element-level forwarding, DCE, CFG simplification,
//! sinking; SSA destruction folds USEφs away), assembled into the Fig. 4
//! pipeline — now driven by the generic `passman` pass manager: every pass is
//! registered in [`passes::registry`] and pipelines are textual
//! [`PipelineSpec`](passman::PipelineSpec)s (see [`pipeline`]).

#![warn(missing_docs)]

pub mod constprop;
pub mod dce;
pub mod dee;
pub mod dfe;
pub mod field_elision;
pub mod fusion;
pub mod key_fold;
pub mod lowering;
pub mod materialize;
pub mod passes;
pub mod pipeline;
pub mod rie;
pub mod simplify;
pub mod sink;
pub mod ssa_construct;
pub mod ssa_destruct;

pub use constprop::{constprop, ConstPropStats};
pub use dce::{dce, DceStats};
pub use dee::{dee_specialize_calls, dee_strict, DeeStats};
pub use dfe::{dfe, DfeStats};
pub use field_elision::{auto_field_elision, field_elision, FieldElisionStats};
pub use fusion::{fuse, FusionStats};
pub use key_fold::{key_fold, KeyFoldStats};
pub use lowering::{
    compile_lowered_with, split_lowered_spec, LowerConfig, LoweredOutcome, LoweredPipeline,
    LOWER_STAGE,
};
pub use passes::registry;
pub use pipeline::{
    compile, compile_spec, compile_spec_with, default_spec, pass_manager, OptConfig, OptLevel,
    PipelineReport,
};
pub use rie::{rie, RieStats};
pub use simplify::{simplify, SimplifyStats};
pub use sink::{sink, SinkStats};
pub use ssa_construct::{construct_ssa, ConstructError};
pub use ssa_destruct::{destruct_ssa, DestructStats};
