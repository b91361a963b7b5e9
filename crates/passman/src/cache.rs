//! The cross-job compile cache: fingerprint-keyed pass outputs and
//! lowered bodies that outlive a single `compile` call.
//!
//! A [`CompileCache`] is a cheaply clonable handle (`Arc<Mutex<..>>`)
//! shared across compile jobs — the `memoir-opt` CLI installs one per
//! `--cache` job stream, the fuzzer's cached-vs-cold oracle shares one
//! between two compiles of the same program, and a future `memoird`
//! daemon would hold one for its lifetime. Entries are keyed by
//! `(domain, fingerprint)`:
//!
//! * *domain* names the producer — `"pass:<ir>:<name>"` for a
//!   function-sharded pass, `"lower:<options>"` for a lowered body — so
//!   results from different transformations never alias;
//! * *fingerprint* is the [`Fingerprint`] of the **input** function
//!   (content + types + transitive callees), so a hit guarantees the
//!   producer would recompute byte-identical output.
//!
//! The payload is opaque (`Box<dyn Any + Send>`); producers store small
//! `Clone`able records (transformed body, per-function stats, changed
//! bit) and [`lookup`](CompileCache::lookup) hands back a clone.
//!
//! Coherence rules (DESIGN.md §14): a cached entry must be a pure
//! function of `(domain, fingerprint)`. Anything that makes a pass's
//! output depend on more than the input function — fault *injection*
//! plans, module-shell identifiers baked into the output (lowered call
//! indices) — must either bypass the cache or fold the extra input into
//! the key.

use crate::fingerprint::Fingerprint;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Hit/skip/miss counters for the compile cache, reported per run in
/// [`RunReport`](crate::RunReport) and merged across jobs by the CLI.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileCacheStats {
    /// Lookups that found a cached *changed* result and applied the
    /// cached body instead of re-running the producer.
    pub hits: u64,
    /// Lookups that found a cached *unchanged* result — the function was
    /// skipped outright (nothing to apply, nothing to run).
    pub skips: u64,
    /// Lookups that found nothing; the producer ran and (on success)
    /// populated the entry.
    pub misses: u64,
    /// Cache operations that found the lock held by another thread and
    /// had to block — a measure of inter-worker contention on the shared
    /// cache, not of lookup success (contended operations still hit or
    /// miss normally and are counted above too).
    pub contended: u64,
}

impl CompileCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.skips + self.misses
    }

    /// Fraction of lookups served from cache (hits + skips), `0.0` when
    /// there were none.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            (self.hits + self.skips) as f64 / total as f64
        }
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: CompileCacheStats) {
        self.hits += other.hits;
        self.skips += other.skips;
        self.misses += other.misses;
        self.contended += other.contended;
    }

    /// Counter-wise difference (`self - earlier`), for per-run deltas of
    /// an accumulating counter.
    pub fn since(&self, earlier: CompileCacheStats) -> CompileCacheStats {
        CompileCacheStats {
            hits: self.hits - earlier.hits,
            skips: self.skips - earlier.skips,
            misses: self.misses - earlier.misses,
            contended: self.contended - earlier.contended,
        }
    }
}

#[derive(Default)]
struct CacheInner {
    entries: HashMap<(String, Fingerprint), Box<dyn Any + Send>>,
    /// Keys whose value is being computed right now by some thread
    /// inside [`CompileCache::get_or_compute`]; other threads wait on
    /// the condvar instead of recomputing.
    pending: HashSet<(String, Fingerprint)>,
}

/// A shared, thread-safe, fingerprint-keyed result cache that outlives a
/// single pipeline run. See the module docs for keying and coherence.
#[derive(Clone, Default)]
pub struct CompileCache {
    inner: Arc<Mutex<CacheInner>>,
    /// Signalled whenever a pending computation finishes (or is
    /// abandoned), waking `get_or_compute` waiters.
    settled: Arc<Condvar>,
    /// Times any operation found the inner lock already held and had to
    /// block (see [`CompileCacheStats::contended`]).
    contention: Arc<AtomicU64>,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// Acquires the inner lock, counting the acquisition as contended if
    /// another thread held it at the moment we asked.
    fn lock_counted(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                self.inner.lock().expect("compile cache poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("compile cache poisoned"),
        }
    }

    /// Looks up the entry for `(domain, fp)`, returning a clone of the
    /// stored value if present and of type `T`.
    pub fn lookup<T: Clone + Send + 'static>(&self, domain: &str, fp: Fingerprint) -> Option<T> {
        let inner = self.lock_counted();
        inner
            .entries
            .get(&(domain.to_string(), fp))
            .and_then(|b| b.downcast_ref::<T>())
            .cloned()
    }

    /// Stores `value` under `(domain, fp)`, replacing any previous entry.
    pub fn store<T: Clone + Send + 'static>(&self, domain: &str, fp: Fingerprint, value: T) {
        let mut inner = self.lock_counted();
        inner
            .entries
            .insert((domain.to_string(), fp), Box::new(value));
    }

    /// Returns the cached value for `(domain, fp)`, computing and
    /// storing it with `compute` on a miss — and, crucially, computing
    /// it **at most once** across concurrent callers: while one thread
    /// runs `compute`, other threads asking for the same key block until
    /// the value lands instead of recomputing it. `compute` runs without
    /// the cache lock held, so unrelated keys proceed in parallel.
    ///
    /// If `compute` panics, the pending reservation is released (waiters
    /// fall back to computing themselves) and the panic propagates.
    /// Waiters also re-check periodically, so a computing thread that is
    /// killed mid-flight cannot strand them.
    pub fn get_or_compute<T, F>(&self, domain: &str, fp: Fingerprint, compute: F) -> T
    where
        T: Clone + Send + 'static,
        F: FnOnce() -> T,
    {
        let key = (domain.to_string(), fp);
        let mut inner = self.lock_counted();
        loop {
            if let Some(v) = inner.entries.get(&key).and_then(|b| b.downcast_ref::<T>()) {
                return v.clone();
            }
            if !inner.pending.contains(&key) {
                break;
            }
            // Someone else is computing this key: wait for them, but
            // with a timeout so an abandoned reservation (computing
            // thread killed without unwinding) degrades to a recompute
            // rather than a deadlock.
            let (guard, _timeout) = self
                .settled
                .wait_timeout(inner, Duration::from_millis(50))
                .expect("compile cache poisoned");
            inner = guard;
        }
        inner.pending.insert(key.clone());
        drop(inner);

        // Release the reservation even if `compute` panics, so waiters
        // are not stranded behind a key nobody is computing.
        struct PendingGuard<'a> {
            cache: &'a CompileCache,
            key: Option<(String, Fingerprint)>,
        }
        impl Drop for PendingGuard<'_> {
            fn drop(&mut self) {
                if let Some(key) = self.key.take() {
                    let mut inner = self.cache.lock_counted();
                    inner.pending.remove(&key);
                    drop(inner);
                    self.cache.settled.notify_all();
                }
            }
        }
        let mut guard = PendingGuard {
            cache: self,
            key: Some(key.clone()),
        };

        let value = compute();

        let mut inner = self.lock_counted();
        inner.entries.insert(key.clone(), Box::new(value.clone()));
        inner.pending.remove(&key);
        guard.key = None;
        drop(inner);
        self.settled.notify_all();
        value
    }

    /// Times any cache operation found the lock held by another thread
    /// (cumulative over the cache's lifetime; see
    /// [`CompileCacheStats::contended`] for per-run deltas).
    pub fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock_counted().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters held elsewhere are unaffected).
    pub fn clear(&self) {
        self.lock_counted().entries.clear();
    }
}

/// The process-global compile cache enabled by `MEMOIR_CACHE=1` (or
/// `true`): every pass manager that installs it — MEMOIR's and lir's
/// alike — shares one [`CompileCache`], so repeated compiles of unchanged
/// functions across jobs in the same process are served from cache.
/// Pass entries are namespaced `pass:<ir>:<name>`, so the two IRs never
/// alias. The variable is read once; later changes have no effect.
pub fn cache_from_env() -> Option<CompileCache> {
    static CACHE: std::sync::OnceLock<Option<CompileCache>> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
            matches!(
                std::env::var("MEMOIR_CACHE")
                    .ok()
                    .map(|v| v.trim().to_ascii_lowercase())
                    .as_deref(),
                Some("1") | Some("true")
            )
            .then(CompileCache::new)
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_lookup_roundtrip_and_domain_separation() {
        let c = CompileCache::new();
        let fp = Fingerprint(42);
        c.store("pass:a", fp, vec![1u32, 2, 3]);
        assert_eq!(c.lookup::<Vec<u32>>("pass:a", fp), Some(vec![1, 2, 3]));
        assert_eq!(c.lookup::<Vec<u32>>("pass:b", fp), None);
        assert_eq!(c.lookup::<Vec<u32>>("pass:a", Fingerprint(43)), None);
        // Wrong payload type: miss, not panic.
        assert_eq!(c.lookup::<String>("pass:a", fp), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn handles_are_shared() {
        let a = CompileCache::new();
        let b = a.clone();
        a.store("d", Fingerprint(1), 7i64);
        assert_eq!(b.lookup::<i64>("d", Fingerprint(1)), Some(7));
        b.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn stats_math() {
        let mut s = CompileCacheStats {
            hits: 8,
            skips: 1,
            misses: 1,
            contended: 3,
        };
        assert_eq!(s.lookups(), 10);
        assert!((s.reuse_rate() - 0.9).abs() < 1e-9);
        s.merge(CompileCacheStats {
            hits: 2,
            skips: 0,
            misses: 0,
            contended: 1,
        });
        assert_eq!(s.hits, 10);
        assert_eq!(s.contended, 4);
        let d = s.since(CompileCacheStats {
            hits: 8,
            skips: 1,
            misses: 1,
            contended: 3,
        });
        assert_eq!(
            d,
            CompileCacheStats {
                hits: 2,
                skips: 0,
                misses: 0,
                contended: 1,
            }
        );
        assert_eq!(CompileCacheStats::default().reuse_rate(), 0.0);
    }

    /// The satellite contract: two workers racing on the same
    /// `(domain, fingerprint)` must not both run the producer.
    #[test]
    fn concurrent_get_or_compute_runs_the_producer_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let cache = CompileCache::new();
        let computes = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = cache.clone();
                    let computes = &computes;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        cache.get_or_compute("pass:x", Fingerprint(7), || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so coalescing is
                            // actually exercised, not just possible.
                            std::thread::sleep(Duration::from_millis(20));
                            vec![1u32, 2, 3]
                        })
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), vec![1, 2, 3]);
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "same (domain, fingerprint) computed more than once"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_or_compute_releases_pending_on_panic() {
        let cache = CompileCache::new();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute("d", Fingerprint(1), || -> u32 { panic!("producer died") })
        }));
        assert!(boom.is_err());
        // The reservation must be gone: a retry computes normally.
        assert_eq!(cache.get_or_compute("d", Fingerprint(1), || 9u32), 9);
    }

    #[test]
    fn contention_counter_moves_under_load() {
        let cache = CompileCache::new();
        assert_eq!(cache.contention(), 0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        cache.store("d", Fingerprint(t * 1000 + i), i);
                        let _ = cache.lookup::<u64>("d", Fingerprint(i));
                    }
                });
            }
        });
        // 4 threads hammering one lock: some acquisition almost surely
        // blocked, but the counter is best-effort — just check it never
        // moves without multi-threaded traffic elsewhere.
        let after_parallel = cache.contention();
        let solo_before = after_parallel;
        for i in 0..100u64 {
            let _ = cache.lookup::<u64>("d", Fingerprint(i));
        }
        assert_eq!(cache.contention(), solo_before);
    }
}
