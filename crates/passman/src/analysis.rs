//! Lazily computed, cached, fingerprint-validated analyses.
//!
//! Passes request analyses through an [`AnalysisManager`] instead of
//! computing them inline. The manager caches each result per function (or
//! per module for [`ModuleAnalysis`]) and returns `Rc` clones, so a pass
//! can hold a result while mutating unrelated state.
//!
//! ## Invalidation by fingerprint
//!
//! A pass's [`Mutation`] declaration only marks the manager *stale*
//! ([`note_mutation`](AnalysisManager::note_mutation)); the next query
//! recomputes the module's [`Fingerprint`]s and drops **only** the
//! entries whose function's fingerprint actually changed — a recomputed
//! fingerprint that matches keeps the cached dom tree/liveness/escape
//! result even though a pass reported `changed`. Because fingerprints
//! fold in transitive callee fingerprints, a `Mutation::Funcs`-scoped
//! pass that changes a callee automatically invalidates the *callers'*
//! entries too (the callgraph-edge audit gap).
//!
//! Explicit [`invalidate`](AnalysisManager::invalidate) /
//! [`invalidate_all`](AnalysisManager::invalidate_all) always force-drop
//! regardless of fingerprints — they remain the escape hatch for passes
//! that know better (`Mutation::Handled`) and for fault rollback.
//!
//! The manager keeps hit/miss counters per analysis, plus a high-water
//! mark of how many times any single `(function, analysis)` pair was
//! computed between invalidations — the caching contract says this must
//! be 1, and tests assert it stays there. A fingerprint-driven drop
//! counts as an invalidation of that function for this contract.
//!
//! The manager also carries the (optional) cross-job
//! [`CompileCache`] handle, so sharded executors can
//! reach it — the manager is the only state passes see.

use crate::cache::{CompileCache, CompileCacheStats};
use crate::fingerprint::Fingerprint;
use crate::pass::Mutation;
use crate::IrUnit;
use std::any::{Any, TypeId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

/// A per-function analysis over an IR unit.
///
/// Implementations are zero-sized marker types; the computed result is
/// `Output`. The `NAME` is used for cache counters and reports.
pub trait Analysis<M: IrUnit>: 'static {
    /// The computed result type.
    type Output: 'static;

    /// Stable, human-readable analysis name (e.g. `"dom-tree"`).
    const NAME: &'static str;

    /// Computes the analysis for one function.
    fn compute(m: &M, f: M::FuncKey) -> Self::Output;
}

/// A module-wide analysis over an IR unit (e.g. field affinity, which
/// aggregates accesses across all functions).
pub trait ModuleAnalysis<M: IrUnit>: 'static {
    /// The computed result type.
    type Output: 'static;

    /// Stable, human-readable analysis name.
    const NAME: &'static str;

    /// Computes the analysis for the whole module.
    fn compute(m: &M) -> Self::Output;
}

/// Hit/miss counters for one analysis kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounter {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that had to compute.
    pub misses: u64,
    /// Maximum number of computes observed for a single
    /// `(function, analysis)` pair between invalidations of that
    /// function. The caching contract keeps this at 1.
    pub max_computes_between_invalidations: u64,
}

/// Counters for the fingerprint-driven retention machinery, reported per
/// run alongside the per-analysis [`CacheCounter`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FingerprintStats {
    /// Module-wide fingerprint recomputations (one per batch of mutation
    /// declarations, performed lazily at the next query).
    pub refreshes: u64,
    /// Cached per-function entries that *survived* a refresh because
    /// their function's fingerprint was unchanged — each one an analysis
    /// that dropping on the pass's `changed` bit alone would have
    /// recomputed.
    pub retained: u64,
    /// Cached per-function entries dropped because their function's
    /// fingerprint changed (or the function disappeared).
    pub dropped: u64,
}

impl FingerprintStats {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: FingerprintStats) {
        self.refreshes += other.refreshes;
        self.retained += other.retained;
        self.dropped += other.dropped;
    }

    /// Counter-wise difference (`self - earlier`).
    pub fn since(&self, earlier: FingerprintStats) -> FingerprintStats {
        FingerprintStats {
            refreshes: self.refreshes - earlier.refreshes,
            retained: self.retained - earlier.retained,
            dropped: self.dropped - earlier.dropped,
        }
    }
}

/// A cached per-function analysis result, stamped with the fingerprint
/// of the function it was computed for.
type StampedResult = (Fingerprint, Rc<dyn Any>);

/// Caches per-function and module-wide analysis results (see the module
/// docs for the fingerprint-based invalidation scheme).
pub struct AnalysisManager<M: IrUnit> {
    /// Per-function results, stamped with the fingerprint of the function
    /// they were computed for.
    cache: HashMap<(M::FuncKey, TypeId), StampedResult>,
    module_cache: HashMap<TypeId, Rc<dyn Any>>,
    counters: BTreeMap<&'static str, CacheCounter>,
    /// Per-function invalidation generation; bumped by `invalidate` and
    /// by fingerprint-driven drops.
    generation: HashMap<M::FuncKey, u64>,
    /// Global epoch; bumped by `invalidate_all`.
    epoch: u64,
    /// Computes per `(function, analysis)` in the current generation.
    computes: HashMap<(M::FuncKey, TypeId), (u64, u64, u64)>, // (epoch, gen, count)
    invalidation_events: u64,
    /// Last known per-function fingerprints (empty until first refresh).
    fingerprints: HashMap<M::FuncKey, Fingerprint>,
    fp_initialized: bool,
    /// Set by `note_mutation`/`invalidate*`; the next query refreshes.
    fp_dirty: bool,
    /// All mutations since the last refresh were `Mutation::Handled`
    /// (the pass kept the cache coherent itself): re-stamp instead of
    /// dropping.
    pending_handled_only: bool,
    fp_stats: FingerprintStats,
    /// Cross-job pass-output/lowering cache, when one is installed.
    compile_cache: Option<CompileCache>,
    cc_stats: CompileCacheStats,
}

impl<M: IrUnit> std::fmt::Debug for AnalysisManager<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisManager")
            .field("cached_entries", &self.cache.len())
            .field("counters", &self.counters)
            .field("fingerprints", &self.fp_stats)
            .finish()
    }
}

impl<M: IrUnit> Default for AnalysisManager<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: IrUnit> AnalysisManager<M> {
    /// An empty manager.
    pub fn new() -> Self {
        AnalysisManager {
            cache: HashMap::new(),
            module_cache: HashMap::new(),
            counters: BTreeMap::new(),
            generation: HashMap::new(),
            epoch: 0,
            computes: HashMap::new(),
            invalidation_events: 0,
            fingerprints: HashMap::new(),
            fp_initialized: false,
            fp_dirty: true,
            pending_handled_only: true,
            fp_stats: FingerprintStats::default(),
            compile_cache: None,
            cc_stats: CompileCacheStats::default(),
        }
    }

    /// Recomputes fingerprints if a mutation was declared since the last
    /// refresh, dropping exactly the entries whose function content
    /// changed.
    fn refresh(&mut self, m: &M) {
        if !self.fp_dirty {
            return;
        }
        self.fp_dirty = false;
        let rebind = std::mem::replace(&mut self.pending_handled_only, true);
        let new: HashMap<M::FuncKey, Fingerprint> = m.fingerprints().into_iter().collect();
        if !self.fp_initialized {
            self.fp_initialized = true;
            self.fingerprints = new;
            return;
        }
        self.fp_stats.refreshes += 1;
        if rebind {
            // Every mutation since the last refresh was `Handled`: the
            // pass kept results valid, so keep them and re-stamp to the
            // new content.
            for ((f, _), entry) in self.cache.iter_mut() {
                if let Some(&fp) = new.get(f) {
                    entry.0 = fp;
                }
            }
            self.fingerprints = new;
            return;
        }
        let changed: HashSet<M::FuncKey> = self
            .fingerprints
            .iter()
            .filter(|(f, old)| new.get(f) != Some(old))
            .map(|(f, _)| *f)
            .chain(
                new.keys()
                    .filter(|f| !self.fingerprints.contains_key(f))
                    .copied(),
            )
            .collect();
        let before = self.cache.len();
        self.cache.retain(|(f, _), _| !changed.contains(f));
        let dropped = (before - self.cache.len()) as u64;
        self.fp_stats.dropped += dropped;
        self.fp_stats.retained += self.cache.len() as u64;
        if dropped > 0 {
            self.invalidation_events += 1;
        }
        // A fingerprint-driven drop is an invalidation for the caching
        // contract: recomputes start a fresh generation.
        for f in changed {
            *self.generation.entry(f).or_insert(0) += 1;
        }
        self.fingerprints = new;
    }

    /// Marks the manager stale after a pass reported `changed` with the
    /// given mutation scope. Every scope (including the wholesale
    /// `All`/`None`) resolves lazily to "drop what actually changed" at
    /// the next query.
    pub fn note_mutation(&mut self, mutated: &Mutation<M>) {
        self.fp_dirty = true;
        if !matches!(mutated, Mutation::Handled) {
            self.pending_handled_only = false;
            // Module-wide analyses may aggregate anything (including
            // shell state fingerprints cannot see): stay conservative.
            self.module_cache.clear();
        }
    }

    /// Returns the current fingerprint of function `f`, refreshing if
    /// stale. `None` when the function is unknown.
    pub fn fingerprint_of(&mut self, m: &M, f: M::FuncKey) -> Option<Fingerprint> {
        self.refresh(m);
        if !self.fp_initialized {
            // No mutation was ever declared: compute the initial map now.
            self.fp_dirty = true;
            self.refresh(m);
        }
        self.fingerprints.get(&f).copied()
    }

    /// Returns the cached result of analysis `A` for function `f`,
    /// computing (and caching) it on first request.
    pub fn get<A: Analysis<M>>(&mut self, m: &M, f: M::FuncKey) -> Rc<A::Output> {
        self.refresh(m);
        let key = (f, TypeId::of::<A>());
        if let Some((_, hit)) = self.cache.get(&key) {
            self.counters.entry(A::NAME).or_default().hits += 1;
            return Rc::clone(hit)
                .downcast::<A::Output>()
                .expect("analysis cache type");
        }
        let value: Rc<A::Output> = Rc::new(A::compute(m, f));
        let gen = self.generation.get(&f).copied().unwrap_or(0);
        let entry = self.computes.entry(key).or_insert((self.epoch, gen, 0));
        if entry.0 == self.epoch && entry.1 == gen {
            entry.2 += 1;
        } else {
            *entry = (self.epoch, gen, 1);
        }
        let count = entry.2;
        let ctr = self.counters.entry(A::NAME).or_default();
        ctr.misses += 1;
        ctr.max_computes_between_invalidations = ctr.max_computes_between_invalidations.max(count);
        let stamp = self.fingerprints.get(&f).copied().unwrap_or_default();
        self.cache
            .insert(key, (stamp, Rc::clone(&value) as Rc<dyn Any>));
        value
    }

    /// Returns the cached result of module-wide analysis `A`, computing
    /// (and caching) it on first request.
    pub fn get_module<A: ModuleAnalysis<M>>(&mut self, m: &M) -> Rc<A::Output> {
        self.refresh(m);
        let key = TypeId::of::<A>();
        if let Some(hit) = self.module_cache.get(&key) {
            self.counters.entry(A::NAME).or_default().hits += 1;
            return Rc::clone(hit)
                .downcast::<A::Output>()
                .expect("analysis cache type");
        }
        let value: Rc<A::Output> = Rc::new(A::compute(m));
        self.counters.entry(A::NAME).or_default().misses += 1;
        self.module_cache
            .insert(key, Rc::clone(&value) as Rc<dyn Any>);
        value
    }

    /// Force-drops every cached analysis for function `f` (and all
    /// module-wide analyses, which may depend on it), regardless of
    /// fingerprints.
    pub fn invalidate(&mut self, f: M::FuncKey) {
        *self.generation.entry(f).or_insert(0) += 1;
        self.invalidation_events += 1;
        self.cache.retain(|(k, _), _| *k != f);
        self.module_cache.clear();
        // The content may have changed under us: re-fingerprint lazily.
        self.fp_dirty = true;
        self.pending_handled_only = false;
    }

    /// Force-drops every cached analysis.
    pub fn invalidate_all(&mut self) {
        self.epoch += 1;
        self.invalidation_events += 1;
        self.cache.clear();
        self.module_cache.clear();
        self.fp_dirty = true;
        self.pending_handled_only = false;
    }

    /// Hit/miss counters per analysis name.
    pub fn counters(&self) -> &BTreeMap<&'static str, CacheCounter> {
        &self.counters
    }

    /// Counter for one analysis name (zeroed if never requested).
    pub fn counter(&self, name: &str) -> CacheCounter {
        self.counters.get(name).copied().unwrap_or_default()
    }

    /// Number of invalidation events so far (explicit invalidations plus
    /// fingerprint refreshes that dropped at least one entry).
    pub fn invalidation_events(&self) -> u64 {
        self.invalidation_events
    }

    /// Number of live cached per-function entries (for tests).
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// Cumulative fingerprint-retention counters.
    pub fn fingerprint_stats(&self) -> FingerprintStats {
        self.fp_stats
    }

    /// Installs the cross-job compile cache sharded executors consult.
    pub fn set_compile_cache(&mut self, cache: CompileCache) {
        self.compile_cache = Some(cache);
    }

    /// The installed compile cache, if any.
    pub fn compile_cache(&self) -> Option<&CompileCache> {
        self.compile_cache.as_ref()
    }

    /// Cumulative compile-cache counters recorded against this manager.
    pub fn compile_cache_stats(&self) -> CompileCacheStats {
        self.cc_stats
    }

    /// Records compile-cache lookup outcomes (called by the sharded
    /// executors after consulting the cache).
    pub fn note_compile_cache(&mut self, delta: CompileCacheStats) {
        self.cc_stats.merge(delta);
    }
}
