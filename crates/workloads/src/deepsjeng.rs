//! The deepsjeng runtime twin (paper §VII-C).
//!
//! A transposition-table game search: positions are probed in a table of
//! fixed-size entry objects; hits verify a 16-bit key tag, misses store a
//! fresh entry. The paper's only applicable MEMOIR optimizations were
//! **field elision** of the 16-bit tag plus **key folding** — packing the
//! remaining entry tighter (−16.6% max RSS) at the price of routing tag
//! checks through an associative array (+5.1% execution time).

use crate::Rng;
use memoir_runtime::{stats, CollectionClass, ObjRef, ObjectHeap, Seq};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeepsjengParams {
    /// Transposition-table capacity (entries).
    pub table_entries: usize,
    /// Search nodes visited.
    pub nodes: usize,
}

impl Default for DeepsjengParams {
    fn default() -> Self {
        DeepsjengParams {
            table_entries: 60_000,
            nodes: 400_000,
        }
    }
}

/// Variant: baseline layout vs field-elided (+ key-folded) layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeepsjengVariant {
    /// Elide the 16-bit key tag into a key-folded associative array.
    pub fe_key_fold: bool,
}

/// Outcome.
#[derive(Clone, Debug)]
pub struct DeepsjengOutcome {
    /// Search checksum (hits/cutoffs accumulated) — variant-independent.
    pub checksum: i64,
    /// Ledger snapshot.
    pub ledger: stats::Ledger,
}

/// A table entry. The 16-bit tag conceptually occupies (with padding) 8
/// bytes of the baseline 24-byte layout; eliding it packs the entry to 16.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag16: u16,
    depth: i8,
    score: i32,
    best_move: u32,
}

const LAYOUT_BASE: u64 = 24;
const LAYOUT_ELIDED: u64 = 16;

/// Runs the workload; resets the thread ledger first.
pub fn run_deepsjeng(p: &DeepsjengParams, v: DeepsjengVariant) -> DeepsjengOutcome {
    stats::reset();
    let layout = if v.fe_key_fold {
        LAYOUT_ELIDED
    } else {
        LAYOUT_BASE
    };
    let mut heap: ObjectHeap<Entry> = ObjectHeap::new_arena(layout);
    // The table itself: a sequence of entry references (the hash array).
    let mut table: Seq<Option<ObjRef>> = Seq::with_len(p.table_entries, |_| None);
    // FE variant: the 16-bit tags live in a key-folded side collection —
    // key folding shrank the key from the 64-bit hash to the dense slot
    // index, so the collection is a flat Seq<u16> (2 B per slot) while the
    // entry object packs from 24 B down to 16 B.
    let mut tags: Option<Seq<u16>> = v
        .fe_key_fold
        .then(|| Seq::with_len(p.table_entries, |_| 0u16));

    // A per-search move stack (sequential class traffic).
    let mut moves: Seq<u32> = Seq::new();

    let mut rng = Rng(0x9E3779B97F4A7C15);
    let mut checksum: i64 = 0;

    for node in 0..p.nodes {
        let hash = rng.next();
        let slot = (hash % p.table_entries as u64) as usize;
        let tag = (hash >> 48) as u16;

        let existing = *table.read(slot);
        match existing {
            Some(r) => {
                // Probe: compare the tag, then read the payload on a hit.
                let stored_tag = match &tags {
                    Some(t) => {
                        stats::charge(1.5); // second-array indirection
                        *t.read(slot)
                    }
                    None => heap.read(r, |e| e.tag16),
                };
                if stored_tag == tag {
                    let (depth, score) = heap.read(r, |e| (e.depth, e.score));
                    checksum = checksum.wrapping_add(depth as i64 + score as i64);
                } else {
                    // Replace on collision.
                    heap.write(r, |e| {
                        e.tag16 = tag;
                        e.depth = (node % 30) as i8;
                        e.score = (hash & 0xFFFF) as i32 - 0x8000;
                        e.best_move = (hash >> 16) as u32;
                    });
                    if let Some(t) = &mut tags {
                        stats::charge(1.5);
                        t.write(slot, tag);
                    }
                    checksum = checksum.wrapping_add(1);
                }
            }
            None => {
                let r = heap.alloc(Entry {
                    tag16: tag,
                    depth: (node % 30) as i8,
                    score: (hash & 0xFFFF) as i32 - 0x8000,
                    best_move: (hash >> 16) as u32,
                });
                if let Some(t) = &mut tags {
                    stats::charge(1.5);
                    t.write(slot, tag);
                }
                table.write(slot, Some(r));
            }
        }

        // Move-generation traffic on the sequential stack.
        moves.push((hash & 0xFFFF) as u32);
        if moves.size() > 64 {
            let len = moves.size();
            moves.remove_range(0, len - 32);
        }
        stats::charge(48.0); // move generation / evaluation bookkeeping
    }
    let _ = CollectionClass::Tree;
    DeepsjengOutcome {
        checksum,
        ledger: stats::snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DeepsjengParams {
        DeepsjengParams {
            table_entries: 4_000,
            nodes: 30_000,
        }
    }

    #[test]
    fn deterministic_and_variant_equal() {
        let a = run_deepsjeng(&small(), DeepsjengVariant::default());
        let b = run_deepsjeng(&small(), DeepsjengVariant::default());
        assert_eq!(a.checksum, b.checksum);
        let fe = run_deepsjeng(&small(), DeepsjengVariant { fe_key_fold: true });
        assert_eq!(a.checksum, fe.checksum, "elision preserves semantics");
    }

    /// The paper's deepsjeng shape: FE+key-folding shrinks memory
    /// (−16.6%) but costs time (+5.1%).
    #[test]
    fn fe_trades_time_for_memory() {
        let p = DeepsjengParams::default();
        let base = run_deepsjeng(&p, DeepsjengVariant::default());
        let fe = run_deepsjeng(&p, DeepsjengVariant { fe_key_fold: true });
        let dt = fe.ledger.cost / base.ledger.cost - 1.0;
        let dr = fe.ledger.peak_bytes as f64 / base.ledger.peak_bytes as f64 - 1.0;
        assert!(dt > 0.01, "time must regress: {dt}");
        assert!(dt < 0.25, "but modestly: {dt}");
        assert!(dr < -0.08, "memory must shrink: {dr}");
    }
}
