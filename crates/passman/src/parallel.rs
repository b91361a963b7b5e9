//! Function-scoped passes and the sharded parallel executor.
//!
//! A [`FuncPass`] is a transformation that touches exactly one function
//! at a time and never the module shell (types, externs, entry): the
//! per-function specialization of [`Pass`] whose
//! `Mutation::Funcs` declaration the analysis manager already exploits.
//! [`FuncPassAdapter`] lifts a `FuncPass` into a regular [`Pass`] by
//! detaching the module's functions, partitioning them into contiguous
//! shards in stable key order, and running the shards on scoped threads
//! (`std::thread::scope` — the workspace is offline, so no rayon).
//!
//! Determinism: shards are a pure partition of disjoint functions, the
//! pass sees an immutable module shell, and outcomes are merged in stable
//! function-key order — so the resulting IR, the changed-key set, and the
//! merged statistics are bit-identical no matter how many worker threads
//! ran (only wall-clock timings differ).
//!
//! Fault containment: when the runner is under a recovering
//! [`FaultPolicy`](crate::FaultPolicy), each function is cloned before
//! the pass runs on it and a panic inside one function rolls back *that
//! function only* — the other functions (and the other shards) keep
//! their results, and the fault surfaces as a per-function
//! [`ContainedFault`] in the pass profile instead of a whole-pass
//! rollback.

use crate::cache::CompileCacheStats;
use crate::fingerprint::Fingerprint;
use crate::pass::{Mutation, Pass, PassError, PassOutcome};
use crate::recover::panic_message;
use crate::AnalysisManager;
use crate::IrUnit;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Per-invocation execution context the runner hands to every pass via
/// [`Pass::prepare`] right before running it.
///
/// Module-level passes ignore it; [`FuncPassAdapter`] reads the worker
/// count, the fault-containment flag, and the (test-only) per-function
/// panic injection target from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecContext {
    /// Worker threads available to the pass (`1` = run serially).
    pub threads: usize,
    /// Whether a recovering fault policy is active: function-sharded
    /// passes then snapshot each function and contain per-function
    /// panics instead of letting them tear down the whole pass.
    pub contain_faults: bool,
    /// Test-only injection: panic while processing the function at this
    /// index of the stable key order (see
    /// [`FaultPlan::func`](crate::FaultPlan::func)).
    pub inject_func_panic: Option<usize>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            threads: 1,
            contain_faults: false,
            inject_func_panic: None,
        }
    }
}

/// The worker-thread count requested via the `MEMOIR_THREADS`
/// environment variable (unset, empty, or unparsable → 1, i.e. serial).
pub fn threads_from_env() -> usize {
    std::env::var("MEMOIR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(1)
}

/// The result of running a [`FuncPass`] on one function.
#[derive(Clone, Debug, Default)]
pub struct FuncOutcome {
    /// Whether this function was mutated.
    pub changed: bool,
    /// Flat `(key, value)` statistics; merged across functions by
    /// summation, in stable function order.
    pub stats: Vec<(&'static str, i64)>,
}

impl FuncOutcome {
    /// An outcome that changed nothing.
    pub fn unchanged() -> Self {
        FuncOutcome::default()
    }

    /// An outcome computed from statistics: changed iff any stat is
    /// nonzero.
    pub fn from_stats(stats: Vec<(&'static str, i64)>) -> Self {
        FuncOutcome {
            changed: stats.iter().any(|&(_, v)| v != 0),
            stats,
        }
    }
}

/// A transformation over a single function. `run_on` receives the module
/// *shell* (functions detached — types/externs/entry only) and one
/// mutable function; it must not assume any other function is visible.
///
/// Implementations are shared across worker threads, hence `Send + Sync`
/// and `&self` (per-function state belongs in locals, not fields).
///
/// Passes that consume cached analyses implement
/// [`prefetch`](FuncPass::prefetch): it runs on the *main* thread with
/// the module still whole and the [`AnalysisManager`] in hand, and
/// whatever it returns is handed back to `run_on` for that function as
/// the `ctx` argument — the bridge between the single-threaded `Rc`
/// analysis cache and the `Send` worker shards.
pub trait FuncPass<M: IrUnit>: Send + Sync {
    /// The registry/spec name of this pass.
    fn name(&self) -> &'static str;

    /// Fetches (typically from the analysis cache) whatever context
    /// `run_on` wants for function `key`. Called once per function, in
    /// stable key order, before the functions are detached — the only
    /// point in a sharded pass where both the whole module and the
    /// analysis cache are visible. The default prefetches nothing.
    fn prefetch(
        &self,
        _m: &M,
        _key: M::FuncKey,
        _am: &mut AnalysisManager<M>,
    ) -> Option<Box<dyn std::any::Any + Send + Sync>> {
        None
    }

    /// Transforms one function. `ctx` is what
    /// [`prefetch`](FuncPass::prefetch) returned for this function;
    /// passes must treat it as an optimization and fall back to
    /// recomputing when it is `None`.
    fn run_on(
        &self,
        shell: &M,
        key: M::FuncKey,
        func: &mut M::Func,
        ctx: Option<&(dyn std::any::Any + Send + Sync)>,
    ) -> FuncOutcome;
}

/// Per-shard utilization: how many functions the shard processed and how
/// long its worker was busy.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStat {
    /// Functions assigned to this shard.
    pub funcs: usize,
    /// Wall-clock time the shard's worker spent processing them.
    pub busy: Duration,
}

/// A per-function fault the executor contained: the function was rolled
/// back to its pre-pass state and the rest of the pass kept its results.
#[derive(Clone, Debug)]
pub struct ContainedFault {
    /// Index of the function in the stable key order (the sort key for
    /// deterministic reports).
    pub func_index: usize,
    /// Rendered function key (e.g. `fn3`).
    pub func: String,
    /// The panic message.
    pub message: String,
}

/// Per-pass execution profile of a function-sharded pass: per-function
/// wall-clock in stable key order, per-shard utilization, and any
/// contained per-function faults.
#[derive(Clone, Debug, Default)]
pub struct FuncPassProfile {
    /// `(rendered key, wall time)` per function, in stable key order.
    pub func_times: Vec<(String, Duration)>,
    /// One entry per shard that ran, in shard order.
    pub shards: Vec<ShardStat>,
    /// Contained per-function faults, in stable key order.
    pub contained: Vec<ContainedFault>,
}

impl FuncPassProfile {
    /// Shard utilization as `busiest / total busy` (1.0 = perfectly
    /// balanced across one shard, lower = more parallel headroom used).
    pub fn max_shard_fraction(&self) -> f64 {
        let total: f64 = self.shards.iter().map(|s| s.busy.as_secs_f64()).sum();
        let max = self
            .shards
            .iter()
            .map(|s| s.busy.as_secs_f64())
            .fold(0.0, f64::max);
        if total > 0.0 {
            max / total
        } else {
            1.0
        }
    }
}

/// What one function produced inside a shard worker.
struct FuncResult {
    changed: bool,
    stats: Vec<(&'static str, i64)>,
    time: Duration,
    /// Panic message, if the function faulted (contained or not).
    panic: Option<String>,
    /// The raw panic payload when faults are *not* contained — carried
    /// back to the calling thread and resumed there, preserving the
    /// legacy fail-fast behaviour under [`FaultPolicy::Abort`](crate::FaultPolicy).
    payload: Option<Box<dyn std::any::Any + Send>>,
}

/// Lifts a [`FuncPass`] into a [`Pass`] that shards the module's
/// functions across scoped worker threads (see the module docs for the
/// determinism and containment guarantees).
pub struct FuncPassAdapter<M: IrUnit, P: FuncPass<M>> {
    pass: P,
    cx: ExecContext,
    _ir: PhantomData<fn(&mut M)>,
}

impl<M: IrUnit, P: FuncPass<M>> std::fmt::Debug for FuncPassAdapter<M, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuncPassAdapter")
            .field("pass", &self.pass.name())
            .field("cx", &self.cx)
            .finish()
    }
}

impl<M: IrUnit, P: FuncPass<M>> FuncPassAdapter<M, P> {
    /// Wraps a function pass. The executor defaults to serial; the
    /// runner raises the worker count via [`Pass::prepare`].
    pub fn new(pass: P) -> Self {
        FuncPassAdapter {
            pass,
            cx: ExecContext::default(),
            _ir: PhantomData,
        }
    }
}

/// A cached per-function pass output: what the
/// [`CompileCache`](crate::CompileCache) stores under
/// `("pass:<ir>:<name>", input fingerprint)`. `func` is `Some` only when
/// the pass changed the function (an unchanged function needs nothing
/// applied — the lookup is a *skip*).
#[derive(Clone)]
struct PassEntry<F> {
    changed: bool,
    stats: Vec<(&'static str, i64)>,
    func: Option<F>,
}

/// One sharded work item: a function (with its key) tagged with its
/// global index in the module's stable function order.
type IndexedFunc<'a, M> = (usize, &'a mut (<M as IrUnit>::FuncKey, <M as IrUnit>::Func));

/// Runs one shard: every `(global index, (key, func))` item, writing
/// per-function results into the parallel `results` slice (`ctxs`
/// carries each item's prefetched analysis context, same order). Items
/// are the *cache misses* in stable key order; the global index keys
/// fault injection and profile reporting, so shard layout and cache hits
/// never shift which function an injection targets.
fn run_shard<M: IrUnit, P: FuncPass<M>>(
    pass: &P,
    shell: &M,
    items: &mut [IndexedFunc<'_, M>],
    ctxs: &[Option<Box<dyn std::any::Any + Send + Sync>>],
    results: &mut [Option<FuncResult>],
    cx: ExecContext,
    stat: &mut ShardStat,
) {
    let t0 = Instant::now();
    for (li, (global_index, slot)) in items.iter_mut().enumerate() {
        let global_index = *global_index;
        let (key, func) = (&slot.0, &mut slot.1);
        let backup = if cx.contain_faults {
            Some(func.clone())
        } else {
            None
        };
        let ft0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if cx.inject_func_panic == Some(global_index) {
                panic!(
                    "fault injection: panic in `{}` on function {:?}",
                    pass.name(),
                    *key
                );
            }
            pass.run_on(shell, *key, func, ctxs[li].as_deref())
        }));
        let time = ft0.elapsed();
        results[li] = Some(match outcome {
            Ok(out) => FuncResult {
                changed: out.changed,
                stats: out.stats,
                time,
                panic: None,
                payload: None,
            },
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                if let Some(b) = backup {
                    // Contain: this function reverts, the rest stand.
                    *func = b;
                }
                FuncResult {
                    changed: false,
                    stats: Vec::new(),
                    time,
                    panic: Some(message),
                    payload: if cx.contain_faults {
                        None
                    } else {
                        Some(payload)
                    },
                }
            }
        });
        // Fail fast within the shard when faults are not contained: the
        // panic is re-raised on the calling thread after re-attachment.
        if results[li].as_ref().is_some_and(|r| r.payload.is_some()) {
            break;
        }
    }
    stat.funcs = items.len();
    stat.busy = t0.elapsed();
}

impl<M: IrUnit, P: FuncPass<M>> Pass<M> for FuncPassAdapter<M, P> {
    fn name(&self) -> &'static str {
        self.pass.name()
    }

    fn prepare(&mut self, cx: ExecContext) {
        self.cx = cx;
    }

    fn may_mutate(&self, m: &M) -> Mutation<M> {
        let mut keys = m.func_keys();
        keys.sort_unstable();
        Mutation::Funcs(keys)
    }

    fn run(&mut self, m: &mut M, am: &mut AnalysisManager<M>) -> Result<PassOutcome<M>, PassError> {
        let mut keys = m.func_keys();
        keys.sort_unstable();
        let n = keys.len();

        // Consult the cross-job compile cache first: a function whose
        // (pass, input-fingerprint) entry exists needs no prefetch and no
        // worker — its cached output is applied (hit) or it is skipped
        // outright (skip). Fault *injection* makes the pass's output
        // depend on more than the input function, so it bypasses the
        // cache (see cache.rs coherence rules); contained *real* panics
        // are deterministic and simply never populate an entry.
        let cache = am.compile_cache().cloned();
        let use_cache = cache.is_some() && self.cx.inject_func_panic.is_none();
        let domain = format!("pass:{}:{}", std::any::type_name::<M>(), self.pass.name());
        let mut fps: Vec<Option<Fingerprint>> = vec![None; n];
        let mut cached: Vec<Option<PassEntry<M::Func>>> = Vec::new();
        cached.resize_with(n, || None);
        if use_cache {
            let cache = cache.as_ref().expect("use_cache implies cache");
            let mut delta = CompileCacheStats::default();
            for (i, &k) in keys.iter().enumerate() {
                let Some(fp) = am.fingerprint_of(m, k) else {
                    continue;
                };
                fps[i] = Some(fp);
                match cache.lookup::<PassEntry<M::Func>>(&domain, fp) {
                    Some(e) => {
                        if e.changed {
                            delta.hits += 1;
                        } else {
                            delta.skips += 1;
                        }
                        cached[i] = Some(e);
                    }
                    None => delta.misses += 1,
                }
            }
            am.note_compile_cache(delta);
        }

        // Prefetch (misses only) while the module is still whole
        // (analyses index into the attached functions) and the
        // `Rc`-based cache is still on this thread. Stable key order
        // matches the detach order below.
        let mut miss_ctxs: Vec<Option<Box<dyn std::any::Any + Send + Sync>>> = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if cached[i].is_none() {
                miss_ctxs.push(self.pass.prefetch(m, k, am));
            }
        }

        let mut funcs = m.detach_funcs();
        funcs.sort_by_key(|a| a.0);
        debug_assert!(funcs.iter().map(|(k, _)| *k).eq(keys.iter().copied()));
        let mut results: Vec<Option<FuncResult>> = Vec::new();
        results.resize_with(n, || None);

        // Apply cached outputs in place; everything else is a miss that
        // still runs through the sharded workers.
        let mut applied = vec![false; n];
        for i in 0..n {
            if let Some(e) = cached[i].take() {
                if let Some(body) = e.func {
                    funcs[i].1 = body;
                }
                applied[i] = true;
                results[i] = Some(FuncResult {
                    changed: e.changed,
                    stats: e.stats,
                    time: Duration::ZERO,
                    panic: None,
                    payload: None,
                });
            }
        }

        let mut profile = FuncPassProfile::default();
        {
            let mut miss_items: Vec<IndexedFunc<'_, M>> = funcs
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| results[*i].is_none())
                .collect();
            let miss_n = miss_items.len();
            debug_assert_eq!(miss_n, miss_ctxs.len());
            let mut miss_results: Vec<Option<FuncResult>> = Vec::new();
            miss_results.resize_with(miss_n, || None);
            if miss_n > 0 {
                let threads = self.cx.threads.max(1).min(miss_n);
                let chunk = miss_n.div_ceil(threads);
                let shards = miss_n.div_ceil(chunk);
                let mut shard_stats = vec![ShardStat::default(); shards];
                let shell: &M = m;
                let pass = &self.pass;
                let cx = self.cx;
                if threads == 1 {
                    run_shard(
                        pass,
                        shell,
                        &mut miss_items,
                        &miss_ctxs,
                        &mut miss_results,
                        cx,
                        &mut shard_stats[0],
                    );
                } else {
                    std::thread::scope(|s| {
                        for (((ichunk, cchunk), rchunk), stat) in miss_items
                            .chunks_mut(chunk)
                            .zip(miss_ctxs.chunks(chunk))
                            .zip(miss_results.chunks_mut(chunk))
                            .zip(shard_stats.iter_mut())
                        {
                            s.spawn(move || {
                                run_shard(pass, shell, ichunk, cchunk, rchunk, cx, stat)
                            });
                        }
                    });
                }
                profile.shards = shard_stats;
            }
            // Scatter worker results back to stable positions.
            for ((gi, _), r) in miss_items.iter().zip(miss_results.iter_mut()) {
                results[*gi] = r.take();
            }
        }

        // Populate the compile cache from fresh (non-faulted) results
        // before stats are consumed by the merge below.
        if use_cache {
            let cache = cache.as_ref().expect("use_cache implies cache");
            for (i, fp) in fps.iter().enumerate() {
                let (Some(fp), Some(r)) = (fp, results[i].as_ref()) else {
                    continue;
                };
                if r.panic.is_some() || r.payload.is_some() || applied[i] {
                    continue; // faulted, or was itself a cache application
                }
                cache.store(
                    &domain,
                    *fp,
                    PassEntry::<M::Func> {
                        changed: r.changed,
                        stats: r.stats.clone(),
                        func: r.changed.then(|| funcs[i].1.clone()),
                    },
                );
            }
        }

        // Merge in stable key order: IR, changed keys, and stats come out
        // identical regardless of the shard layout.
        let mut changed_keys: Vec<M::FuncKey> = Vec::new();
        let mut stats: Vec<(&'static str, i64)> = Vec::new();
        let mut first_payload: Option<Box<dyn std::any::Any + Send>> = None;
        for (gi, ((key, _), result)) in funcs.iter().zip(results).enumerate() {
            let Some(r) = result else {
                continue; // shard failed fast before reaching this one
            };
            profile.func_times.push((format!("{key:?}"), r.time));
            for (k, v) in r.stats {
                match stats.iter_mut().find(|(sk, _)| *sk == k) {
                    Some(slot) => slot.1 += v,
                    None => stats.push((k, v)),
                }
            }
            if r.changed {
                changed_keys.push(*key);
            }
            if let Some(message) = r.panic {
                profile.contained.push(ContainedFault {
                    func_index: gi,
                    func: format!("{key:?}"),
                    message,
                });
            }
            if first_payload.is_none() {
                first_payload = r.payload;
            }
        }
        m.attach_funcs(funcs);
        if let Some(payload) = first_payload {
            // Faults were not contained (Abort): re-raise the first panic
            // in stable function order, module structurally re-attached.
            std::panic::resume_unwind(payload);
        }

        let changed = !changed_keys.is_empty();
        Ok(PassOutcome {
            changed,
            mutated: if changed {
                Mutation::Funcs(changed_keys)
            } else {
                Mutation::None
            },
            stats,
            profile: Some(profile),
        })
    }
}
