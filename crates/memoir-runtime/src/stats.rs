//! The memory ledger: byte-accurate accounting per collection class.
//!
//! Substitutes for the paper's Valgrind heap instrumentation (Fig. 1) and
//! max-RSS measurements (Figs. 7/9): every runtime collection reports its
//! allocations, releases, element reads, and element writes here. The
//! ledger also accumulates the deterministic operation-cost proxy used for
//! the execution-time figures (see `memoir-interp::stats` for the model).

use crate::class::CollectionClass;
use std::cell::RefCell;

/// Per-class byte counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassBytes {
    /// Bytes allocated (cumulative).
    pub allocated: u64,
    /// Bytes read from elements (cumulative).
    pub read: u64,
    /// Bytes written to elements (cumulative).
    pub written: u64,
}

/// The ledger snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    per_class: [ClassBytes; 6],
    /// Live heap bytes right now.
    pub current_bytes: u64,
    /// High-water mark of live heap bytes (the max-RSS proxy).
    pub peak_bytes: u64,
    /// Deterministic operation-cost accumulator (execution-time proxy).
    pub cost: f64,
}

fn class_index(c: CollectionClass) -> usize {
    match c {
        CollectionClass::Unstructured => 0,
        CollectionClass::Graph => 1,
        CollectionClass::Tree => 2,
        CollectionClass::Associative => 3,
        CollectionClass::Sequential => 4,
        CollectionClass::Object => 5,
    }
}

impl Ledger {
    /// Counters for one class.
    pub fn class(&self, c: CollectionClass) -> ClassBytes {
        self.per_class[class_index(c)]
    }

    /// Total bytes allocated across classes.
    pub fn total_allocated(&self) -> u64 {
        self.per_class.iter().map(|c| c.allocated).sum()
    }

    /// Fraction of allocated bytes in a class (0 when nothing allocated).
    pub fn allocated_share(&self, c: CollectionClass) -> f64 {
        let total = self.total_allocated();
        if total == 0 {
            0.0
        } else {
            self.class(c).allocated as f64 / total as f64
        }
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Resets the thread's ledger (call at the start of a measurement).
pub fn reset() {
    LEDGER.with(|l| *l.borrow_mut() = Ledger::default());
}

/// Snapshots the thread's ledger.
pub fn snapshot() -> Ledger {
    LEDGER.with(|l| l.borrow().clone())
}

/// Records an allocation of `bytes` for class `c`.
pub fn alloc(c: CollectionClass, bytes: u64) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.per_class[class_index(c)].allocated += bytes;
        l.current_bytes += bytes;
        if l.current_bytes > l.peak_bytes {
            l.peak_bytes = l.current_bytes;
        }
        l.cost += 12.0;
    });
}

/// Records a release of `bytes` for class `c`.
pub fn dealloc(_c: CollectionClass, bytes: u64) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.current_bytes = l.current_bytes.saturating_sub(bytes);
    });
}

/// Records an element read of `bytes` for class `c`, with the given
/// operation cost.
pub fn read(c: CollectionClass, bytes: u64, cost: f64) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.per_class[class_index(c)].read += bytes;
        l.cost += cost;
    });
}

/// Records an element write of `bytes` for class `c`, with the given
/// operation cost.
pub fn write(c: CollectionClass, bytes: u64, cost: f64) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.per_class[class_index(c)].written += bytes;
        l.cost += cost;
    });
}

/// Adds raw cost (scalar work between collection operations).
pub fn charge(cost: f64) {
    LEDGER.with(|l| l.borrow_mut().cost += cost);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water() {
        reset();
        alloc(CollectionClass::Sequential, 100);
        alloc(CollectionClass::Associative, 50);
        dealloc(CollectionClass::Sequential, 100);
        alloc(CollectionClass::Tree, 20);
        let s = snapshot();
        assert_eq!(s.peak_bytes, 150);
        assert_eq!(s.current_bytes, 70);
        assert_eq!(s.class(CollectionClass::Sequential).allocated, 100);
        assert_eq!(s.total_allocated(), 170);
    }

    #[test]
    fn shares_sum_to_one() {
        reset();
        alloc(CollectionClass::Sequential, 300);
        alloc(CollectionClass::Object, 100);
        let s = snapshot();
        let total: f64 = CollectionClass::ALL
            .iter()
            .map(|&c| s.allocated_share(c))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((s.allocated_share(CollectionClass::Sequential) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn read_write_tracked_per_class() {
        reset();
        read(CollectionClass::Associative, 8, 8.0);
        write(CollectionClass::Associative, 8, 12.0);
        write(CollectionClass::Sequential, 4, 2.0);
        let s = snapshot();
        assert_eq!(s.class(CollectionClass::Associative).read, 8);
        assert_eq!(s.class(CollectionClass::Associative).written, 8);
        assert_eq!(s.class(CollectionClass::Sequential).written, 4);
        assert!(s.cost >= 22.0);
    }
}
