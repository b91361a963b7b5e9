//! # workloads
//!
//! Benchmark workloads reproducing the hot collection behaviour of the
//! paper's evaluation targets (DESIGN.md §2):
//!
//! * [`mcf_ir`] — the Listings 2–3 master/qsort kernel at the IR level
//!   (automatic-DEE target, Table III subject);
//! * [`mcf`] — the runtime-library mcf twin with per-optimization
//!   variants (Figs. 6–9);
//! * [`deepsjeng`] — the transposition-table twin (FE + key folding);
//! * [`optlike`] — the compiler-workload twin (`LLVM opt` analogue);
//! * [`smallbank`] — the assoc-heavy read-modify-write transaction twin
//!   with fusion/dense-representation variants (DESIGN §16);
//! * [`smallbank_ir`] — the same kernel at the IR level (fusion +
//!   adaptive-representation subject);
//! * [`docstore`] — the document-store kernel over nested object graphs
//!   (object-valued fields, ref-valued assoc elements, collections in
//!   fields) at the IR level;
//! * [`suite`] — eleven SPECINT-shaped workloads for the Fig. 1
//!   classification;
//! * [`listing1`] — the stateful-map kernel of Listing 1.

#![warn(missing_docs)]

pub mod deepsjeng;
pub mod deepsjeng_ir;
pub mod docstore;
pub mod listing1;
pub mod mcf;
pub mod mcf_ir;
pub mod optlike;
pub mod optlike_ir;
pub mod smallbank;
pub mod smallbank_ir;
pub mod suite;
pub mod synth_ir;

/// The seeded xorshift64 generator every workload draws its inputs from;
/// each caller keeps its own seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.0 = s;
        s
    }
}
