//! Execution accounting: an integer profile of each run, and the
//! deterministic cost model that prices it.
//!
//! The cost model assigns a deterministic "time" to an execution so that
//! complexity-level effects (e.g. dead element elimination turning mcf's
//! sort from `O(n log n)` into `O(n + B log B)`, §VII-C) reproduce without
//! real hardware. Every weight is an integer number of abstract cycles,
//! and a run's cost is the dot product of its counts with
//! [`COST_TABLE`], the one price list (`docs/WORKLOADS.md` §3 prints it,
//! and a test keeps the two equal).
//!
//! Element accesses are counted per layout. A collection allocated at a
//! site [`Interp::with_repr_choices`](crate::Interp::with_repr_choices)
//! tags dense or inline counts its accesses under that layout, so only
//! the price differs from an untagged run; allocations cost the same in
//! every layout.

/// Counters accumulated during execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Instructions counted: each one that adds to `scalars`, to an
    /// element-access counter (`seq_accesses` through `assoc_rmws`), to
    /// `field_ops` or to `calls`. So `new`, `copy`, `copy.range`, `split`,
    /// `keys`, `remove.range`, `insert.seq`, `append`, `swap`, `swap2` and
    /// `ret` never add to it, and a call adds one, at the callee's entry.
    /// Fuel is drawn against it.
    pub insts: u64,
    /// Element reads (and `has`) of a sequence or a dense-layout assoc,
    /// `rmw`s included.
    pub seq_reads: u64,
    /// Element writes, inserts and removes on a sequence or a
    /// dense-layout assoc, `rmw`s included.
    pub seq_writes: u64,
    /// Operations on a hashed assoc (read/write/has/insert/remove/rmw).
    pub assoc_ops: u64,
    /// Field array reads/writes.
    pub field_ops: u64,
    /// Elements moved by bulk operations (shift, swap, splice, copy).
    pub elements_moved: u64,
    /// Whole-collection copies performed (value-semantics copies plus SSA
    /// functional updates). Table III's "no spurious copies" claim is
    /// checked against this counter.
    pub collection_copies: u64,
    /// Collections and objects allocated.
    pub allocations: u64,
    /// Logical bytes allocated for collections/objects (no reclamation —
    /// RSS is measured by the runtime-library twin, see DESIGN.md).
    pub bytes_allocated: u64,
    /// Calls executed.
    pub calls: u64,
    /// Scalar and control instructions: arithmetic, compares, casts,
    /// selects, φs, jumps, branches, `size`, `use.phi` and `delete`.
    pub scalars: u64,
    /// Reads, writes, inserts and removes on a default-layout sequence,
    /// and inserts and removes on an inline one.
    pub seq_accesses: u64,
    /// Reads and writes of an inline-layout sequence.
    pub inline_accesses: u64,
    /// Reads, `has`, writes, inserts and removes on a dense-layout assoc.
    pub dense_accesses: u64,
    /// Reads, `has` and removes on a hashed assoc (hash + probe).
    pub assoc_lookups: u64,
    /// Writes and inserts on a hashed assoc (probe + amortized growth).
    pub assoc_stores: u64,
    /// `rmw`s on a sequence, either layout.
    pub seq_rmws: u64,
    /// `rmw`s on a dense-layout assoc.
    pub dense_rmws: u64,
    /// `rmw`s on a hashed assoc (one hash + probe).
    pub assoc_rmws: u64,
    /// Cache lines the objects of field accesses span: ⌈object bytes ⁄
    /// 64⌉ per access.
    pub field_lines: u64,
    /// Elements the allocated collections hold when allocated.
    pub elements_reserved: u64,
    /// The modeled cycles, [`ExecStats::model_cycles`]: the
    /// execution-time proxy. [`Interp::run`](crate::Interp::run) sets it
    /// when it returns, trapped or not.
    pub cost: f64,
}

/// A priced counter of [`ExecStats`]: its name, its weight in abstract
/// cycles, and how to read it.
pub type Price = (&'static str, u64, fn(&ExecStats) -> u64);

/// The cost model, a [`Price`] per priced counter; counters not listed
/// are free. A fused `rmw` costs less than the `read`, `bin` and `write`
/// it replaces (seq 3 vs 5, hashed 9 vs 21); a copy or `keys` of `n`
/// elements costs `12 + 2n` (moved, then reserved).
pub const COST_TABLE: [Price; 15] = [
    ("scalars", 1, |s| s.scalars),
    ("seq_accesses", 2, |s| s.seq_accesses),
    ("inline_accesses", 1, |s| s.inline_accesses),
    ("dense_accesses", 2, |s| s.dense_accesses),
    ("assoc_lookups", 8, |s| s.assoc_lookups),
    ("assoc_stores", 12, |s| s.assoc_stores),
    ("seq_rmws", 3, |s| s.seq_rmws),
    ("dense_rmws", 3, |s| s.dense_rmws),
    ("assoc_rmws", 9, |s| s.assoc_rmws),
    ("field_ops", 1, |s| s.field_ops),
    ("field_lines", 1, |s| s.field_lines),
    ("elements_moved", 1, |s| s.elements_moved),
    ("allocations", 12, |s| s.allocations),
    ("elements_reserved", 1, |s| s.elements_reserved),
    ("calls", 6, |s| s.calls),
];

impl ExecStats {
    /// The counts priced by [`COST_TABLE`]: Σ weight × count.
    pub fn model_cycles(&self) -> u64 {
        COST_TABLE.iter().map(|(_, w, count)| w * count(self)).sum()
    }
}
