//! # reduce
//!
//! Crash triage for the MEMOIR pass pipeline: the library behind the
//! `memoir-fuzz` binary.
//!
//! The pieces compose into a classic fuzz-and-shrink loop:
//!
//! * [`rng::SplitMix64`] — a tiny deterministic RNG, so every campaign
//!   and every case is replayable from `(seed, case-index)` alone;
//! * [`genprog`] — random MUT-op sequence programs with a plain-Rust
//!   oracle computed alongside (the property tests, such as
//!   `tests/pipeline_differential.rs`, draw from it too), plus per-case
//!   sampling of the fault policy and budgets;
//! * [`genspec`] — random but always phase-correct [`PipelineSpec`]s,
//!   for both the MEMOIR and the post-lowering low-level IR phase;
//! * [`harness`] — compiles one case once through the pipeline
//!   (optionally on through the `lower` stage and a lir pipeline) with
//!   panics caught and verification forced on, then differentially
//!   checks every intermediate result against the oracle;
//! * [`ddmin`](mod@ddmin) — delta debugging, used to shrink the op
//!   sequence, the pipeline steps of both phases, and the config of a
//!   crashing case;
//! * [`repro`] — `.repro` text artifacts (spec: `docs/REPRO_FORMAT.md`)
//!   that `memoir-fuzz replay` re-runs exactly;
//! * [`cli`] — the `memoir-fuzz run` argument surface, plus a fuzzer
//!   for every textual surface the binaries parse;
//! * [`service`] — the `memoir-fuzz service` mode: fuzzes the `memoird`
//!   compile service's job-stream parsers and drives randomized job
//!   batches with sampled fault injection, asserting zero lost jobs,
//!   clean-vs-injected byte identity, and warm-vs-cold job-cache
//!   coherence.
//!
//! Programs span the whole language: sequence and assoc ops, object
//! types with field reads/writes and nested collections
//! ([`genprog::CaseDims::objects`]), and multi-function cases whose
//! helpers take collection parameters by reference
//! ([`genprog::CaseDims::multi`]). The harness can additionally probe
//! every surviving function on synthesized typed argument vectors
//! ([`harness::CaseConfig::probe_seed`]).
//!
//! [`PipelineSpec`]: passman::PipelineSpec

#![warn(missing_docs)]

pub mod cli;
pub mod ddmin;
pub mod genprog;
pub mod genspec;
pub mod harness;
pub mod repro;
pub mod rng;
pub mod service;

pub use cli::{fuzz_cli_case, parse_run_args, CliCrash, RunArgs};
pub use ddmin::ddmin;
pub use genprog::{
    build, build_case, random_case, random_case_config, random_op, random_ops, CaseDims,
    CaseProgram, Helper, Op,
};
pub use genspec::{random_lir_spec, random_spec};
pub use harness::{cross_check_totals, reduce_case_prog, run_case_prog, CaseConfig, Outcome};
pub use repro::Repro;
pub use rng::SplitMix64;
pub use service::fuzz_service_case;
