//! `memoird`: a compile *service* over the MEMOIR pipeline.
//!
//! Where `memoir-opt` compiles one module per process, this crate runs a
//! stream of compile jobs — each a module × pipeline spec (optionally
//! through the `lower` stage) — on a module-level worker pool layered
//! over the function-sharded executors the pass manager already has.
//! Every job is wrapped in a robustness envelope:
//!
//! * **timeouts** — a supervisor thread watchdogs each attempt against a
//!   wall-clock deadline; the same limit is also handed to the pipeline
//!   as an in-band `pipeline-ms` budget, so cooperative passes stop
//!   themselves and only truly wedged ones need the watchdog;
//! * **deterministic retry** — seeded exponential backoff with jitter,
//!   replayable from the service seed ([`RetryPolicy`]);
//! * **graceful degradation** — each attempt runs on one [`Rung`] of the
//!   ladder `Full, Full, NoCache, Baseline` (one same-config retry, then
//!   the shared cache bypassed, then a baseline pipeline), and every
//!   faulted attempt is recorded as a job-level `Degradation` reusing
//!   the pass manager's fault types;
//! * **admission control** — a bounded queue; a submission that finds it
//!   full gets a structured [`JobOutcome::Shed`];
//! * **fault injection** — deterministic `kind@target` plans at the job
//!   level ([`JobFaultPlan`]: `slow-job@i`, `worker-panic@i`,
//!   `poison-cache@i`) so every recovery path above is testable.
//!
//! Every submitted job resolves to exactly one [`JobOutcome`] (*zero
//! lost jobs*), and for a fixed submission order, seed, and fault plan
//! the outcomes and output bytes are reproducible — the properties the
//! service tests and `memoir-fuzz service` assert.

#![warn(missing_docs)]

mod backoff;
mod inject;
mod job;
mod rng;
mod service;

pub use backoff::RetryPolicy;
pub use inject::{JobFaultPlan, JobInjectKind};
pub use job::{AttemptRecord, JobId, JobLine, JobOutcome, JobSource, JobSpec, Rung};
pub use service::{run_jobs, JobTicket, Service, ServiceConfig, ServiceStats};
