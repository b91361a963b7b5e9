//! The snapshot engine of the fault-recovery path.
//!
//! Before a pass runs under a recovering [`FaultPolicy`](crate::FaultPolicy),
//! the runner captures a snapshot of whatever the pass declares it *may*
//! mutate ([`Pass::may_mutate`](crate::Pass::may_mutate)); if the pass
//! faults, the snapshot restores the module to its pre-pass state.
//!
//! [`CowEngine`] does this per function, copy-on-write: a
//! `Mutation::Funcs(keys)` scope clones only the declared functions, and
//! clones made for an earlier pass are *reused* while those functions
//! stay unmutated (commit keeps entries whose function did not change),
//! falling back to a whole-module clone only for `Mutation::All`/`Handled`
//! scopes. The runner builds one engine per run, so nothing one run
//! pooled can restore another run's module.
//!
//! The engine meters its work ([`SnapshotStats`] cumulative,
//! [`SnapshotCost`] per capture) in "units" — the implementor's
//! `size_hint`/`func_size_hint`, i.e. instructions cloned — which
//! `--report` shows per pass.

use crate::pass::Mutation;
use crate::IrUnit;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Cumulative snapshot-engine counters for a whole pipeline run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Captures requested (one per recovering pass invocation).
    pub captures: usize,
    /// Captures that fell back to cloning the entire module.
    pub full_clones: usize,
    /// Individual functions cloned across all captures.
    pub funcs_cloned: usize,
    /// Functions whose existing pooled clone was reused (CoW hit).
    pub funcs_reused: usize,
    /// Size units (instructions) actually cloned across all captures.
    pub units_cloned: usize,
    /// Rollbacks performed.
    pub restores: usize,
}

/// What one capture cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotCost {
    /// Whether this capture cloned the entire module.
    pub full: bool,
    /// Functions cloned by this capture.
    pub funcs_cloned: usize,
    /// Functions served from the pool without cloning.
    pub funcs_reused: usize,
    /// Size units (instructions) cloned by this capture.
    pub units_cloned: usize,
}

/// Per-function copy-on-write snapshots.
///
/// Keeps a pool of pre-pass function clones keyed by function id. A
/// `Mutation::Funcs(keys)` capture clones only pool-missing keys; commit
/// evicts exactly the functions the pass reported mutated, so clean
/// functions carry their clone across passes for free. Scopes that may
/// touch the module shell (`All`, `Handled`) fall back to a full module
/// clone.
///
/// Call order per pass invocation: [`capture`](CowEngine::capture)
/// before the pass, then exactly one of [`restore`](CowEngine::restore)
/// (the pass faulted) or [`commit`](CowEngine::commit) (it succeeded,
/// with its actual mutation declaration).
#[derive(Debug)]
pub struct CowEngine<M: IrUnit> {
    pool: HashMap<M::FuncKey, M::Func>,
    /// Keys of the most recent `Funcs` capture (the restore scope).
    scope: Vec<M::FuncKey>,
    /// Whole-module fallback snapshot, when the last scope was not
    /// function-shaped.
    full: Option<M>,
    last: SnapshotCost,
    stats: SnapshotStats,
}

impl<M: IrUnit> Default for CowEngine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: IrUnit> CowEngine<M> {
    /// A fresh engine with an empty clone pool.
    pub fn new() -> Self {
        CowEngine {
            pool: HashMap::new(),
            scope: Vec::new(),
            full: None,
            last: SnapshotCost::default(),
            stats: SnapshotStats::default(),
        }
    }

    /// Captures whatever `scope` says the upcoming pass may mutate.
    pub fn capture(&mut self, m: &M, scope: &Mutation<M>) {
        self.stats.captures += 1;
        match scope {
            Mutation::None => {
                // The pass promises to mutate nothing: nothing to hold.
                self.scope.clear();
                self.full = None;
                self.last = SnapshotCost::default();
            }
            Mutation::Funcs(keys) => {
                self.full = None;
                self.scope = keys.clone();
                let mut cloned = 0;
                let mut reused = 0;
                let mut units = 0;
                for &k in keys {
                    match self.pool.entry(k) {
                        Entry::Occupied(_) => reused += 1,
                        Entry::Vacant(slot) => {
                            units += m.func_size_hint(k);
                            slot.insert(m.clone_func(k));
                            cloned += 1;
                        }
                    }
                }
                self.stats.funcs_cloned += cloned;
                self.stats.funcs_reused += reused;
                self.stats.units_cloned += units;
                self.last = SnapshotCost {
                    full: false,
                    funcs_cloned: cloned,
                    funcs_reused: reused,
                    units_cloned: units,
                };
            }
            Mutation::All | Mutation::Handled => {
                // The pass may restructure the module shell: only a full
                // clone is safe, and the per-function pool is void.
                self.scope.clear();
                self.pool.clear();
                let units = m.size_hint();
                self.full = Some(m.clone());
                self.stats.full_clones += 1;
                self.stats.units_cloned += units;
                self.last = SnapshotCost {
                    full: true,
                    funcs_cloned: 0,
                    funcs_reused: 0,
                    units_cloned: units,
                };
            }
        }
    }

    /// Rolls the module back to the captured state.
    pub fn restore(&mut self, m: &mut M) {
        self.stats.restores += 1;
        if let Some(snap) = self.full.take() {
            *m = snap;
            self.pool.clear();
            return;
        }
        // The faulting pass promised to stay within `scope`: restoring
        // those functions from the pool reconstructs the pre-pass module.
        for k in std::mem::take(&mut self.scope) {
            if let Some(f) = self.pool.get(&k) {
                m.restore_func(k, f.clone());
            }
        }
    }

    /// Reconciles the engine with a successful pass: clones of functions
    /// the pass actually mutated are now stale and dropped; clones of
    /// untouched functions stay reusable.
    pub fn commit(&mut self, mutated: &Mutation<M>, changed: bool) {
        self.full = None;
        self.scope.clear();
        if !changed {
            return;
        }
        match mutated {
            Mutation::None => {}
            Mutation::Funcs(keys) => {
                for k in keys {
                    self.pool.remove(k);
                }
            }
            Mutation::All | Mutation::Handled => {
                self.pool.clear();
            }
        }
    }

    /// Cost of the most recent capture.
    pub fn last_cost(&self) -> SnapshotCost {
        self.last
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SnapshotStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::Toy;

    #[test]
    fn cow_clones_only_the_declared_functions() {
        let m = Toy {
            vals: vec![10, 20, 30, 40],
        };
        let mut eng = CowEngine::<Toy>::new();
        eng.capture(&m, &Mutation::Funcs(vec![1, 3]));
        let c = eng.last_cost();
        assert!(!c.full);
        assert_eq!(c.funcs_cloned, 2);
        assert_eq!(c.units_cloned, 2);
    }

    #[test]
    fn cow_reuses_pooled_clones_for_clean_functions() {
        let mut m = Toy {
            vals: vec![10, 20, 30],
        };
        let mut eng = CowEngine::<Toy>::new();
        eng.capture(&m, &Mutation::Funcs(vec![0, 1, 2]));
        // The pass mutated only function 1.
        m.vals[1] = 99;
        eng.commit(&Mutation::Funcs(vec![1]), true);
        // Next pass over the same scope: only function 1 needs recloning.
        eng.capture(&m, &Mutation::Funcs(vec![0, 1, 2]));
        let c = eng.last_cost();
        assert_eq!(c.funcs_cloned, 1);
        assert_eq!(c.funcs_reused, 2);
        assert_eq!(eng.stats().funcs_cloned, 4);
    }

    #[test]
    fn cow_restore_rolls_back_exactly_the_scope() {
        let mut m = Toy {
            vals: vec![1, 2, 3],
        };
        let mut eng = CowEngine::<Toy>::new();
        eng.capture(&m, &Mutation::Funcs(vec![0, 2]));
        m.vals[0] = 100;
        m.vals[1] = 200; // outside the scope: a pass honoring its
                         // declaration would not do this; restore leaves it.
        m.vals[2] = 300;
        eng.restore(&mut m);
        assert_eq!(m.vals, vec![1, 200, 3]);
        assert_eq!(eng.stats().restores, 1);
    }

    #[test]
    fn cow_falls_back_to_full_clone_for_all_scope() {
        let mut m = Toy { vals: vec![5, 6] };
        let mut eng = CowEngine::<Toy>::new();
        eng.capture(&m, &Mutation::All);
        assert!(eng.last_cost().full);
        assert_eq!(eng.last_cost().units_cloned, 2);
        m.vals.clear(); // even structural damage rolls back
        eng.restore(&mut m);
        assert_eq!(m.vals, vec![5, 6]);
    }
}
