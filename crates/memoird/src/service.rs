//! The compile service: a module-level worker pool wrapping every job in
//! the robustness envelope.
//!
//! Submitted [`JobSpec`]s flow through a bounded queue into a pool of
//! worker threads. Each worker owns a job end-to-end: it runs the retry
//! ladder inline — deterministic seeded backoff, one degradation
//! [`Rung`] per attempt — with every attempt wrapped in `catch_unwind`,
//! so a panicking attempt is retried on the same worker. A supervisor
//! thread watchdogs in-flight attempts against the configured
//! wall-clock timeout: an attempt that blows its deadline is *abandoned*
//! (its worker poisoned and replaced, its eventual result discarded)
//! and the job is requeued for the next rung, so a wedged pass can never
//! wedge the service.
//!
//! Admission control sheds work before it queues: a submission that
//! finds the bounded queue full gets a structured [`JobOutcome::Shed`].
//! Every admitted job resolves to exactly one terminal [`JobOutcome`]
//! (the *zero lost jobs* invariant).
//!
//! Determinism: for a fixed submission order, seed, and fault plan,
//! job ids, injected faults, retry rungs, backoff delays, and outputs
//! are all reproducible — attempt wall times are the only
//! nondeterministic observables. The service tests lean on this to
//! assert byte-identical output with and without fault injection at the
//! same seed.

use crate::backoff::RetryPolicy;
use crate::inject::{JobFaultPlan, JobInjectKind};
use crate::job::{AttemptRecord, JobId, JobOutcome, JobSpec, Rung};
use memoir_opt::{
    compile_lowered_with, compile_spec_with, default_spec, split_lowered_spec, LowerConfig,
    OptConfig, OptLevel,
};
use passman::{
    BudgetViolation, CompileCache, CompileCacheStats, FaultCause, Fingerprint, PipelineSpec,
    TextDigest,
};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Service configuration: pool size, envelope thresholds, shared cache.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads (module-level parallelism; clamped to ≥ 1).
    pub workers: usize,
    /// Bounded queue capacity; a submission that finds this many jobs
    /// queued is shed.
    pub queue_cap: usize,
    /// Per-attempt wall-clock timeout. Composes with job budgets (the
    /// smaller of this and `max_pipeline_millis` is handed to the
    /// pipeline as an in-band budget) and arms the watchdog. `None`
    /// disables the watchdog entirely.
    pub timeout_ms: Option<u64>,
    /// Attempt count and backoff curve.
    pub retry: RetryPolicy,
    /// Service seed: the only entropy source for backoff jitter.
    pub seed: u64,
    /// Shared cross-job compile cache for function-sharded pass results
    /// and lowered bodies; also backs the job-output cache.
    pub cache: Option<CompileCache>,
    /// Cache whole job outputs (keyed on module text + effective spec)
    /// in `cache` as well; requires `cache`.
    pub job_cache: bool,
    /// Deterministic service-level fault plans (`slow-job@3`, …).
    pub faults: Vec<JobFaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_cap: 64,
            timeout_ms: None,
            retry: RetryPolicy::default(),
            seed: 0,
            cache: None,
            job_cache: false,
            faults: Vec::new(),
        }
    }
}

/// Monotonic service counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Jobs submitted (admitted + shed).
    pub submitted: u64,
    /// Terminal [`JobOutcome::Ok`] count.
    pub ok: u64,
    /// Terminal [`JobOutcome::DegradedOk`] count.
    pub degraded_ok: u64,
    /// Terminal [`JobOutcome::Shed`] count.
    pub shed: u64,
    /// Terminal [`JobOutcome::Failed`] count.
    pub failed: u64,
    /// Attempts recorded (including watchdog-abandoned ones).
    pub attempts: u64,
    /// Attempts beyond each job's first — the retry count.
    pub retries: u64,
    /// Attempts abandoned by the watchdog.
    pub timeouts: u64,
    /// Attempts that ended in a (caught) worker panic.
    pub worker_panics: u64,
    /// Whole-job outputs served from the job cache.
    pub job_cache_hits: u64,
    /// Compile-cache counters summed over every recorded attempt.
    pub compile_cache: CompileCacheStats,
}

impl ServiceStats {
    /// Terminal outcomes delivered so far.
    pub fn terminal(&self) -> u64 {
        self.ok + self.degraded_ok + self.shed + self.failed
    }
}

/// Per-job mutable state shared between its worker, the supervisor, and
/// the submitter's ticket.
struct JobState {
    id: JobId,
    spec: JobSpec,
    /// Every recorded attempt. The watchdog records an abandoned attempt
    /// here before it poisons the worker, so a late result for attempt
    /// `k` finds `attempts.len() > k` and is discarded.
    attempts: Vec<AttemptRecord>,
    done: bool,
    tx: mpsc::Sender<JobOutcome>,
}

type SharedJob = Arc<Mutex<JobState>>;

enum Event {
    Started {
        worker: usize,
        job: JobId,
        attempt: usize,
        deadline: Instant,
        state: SharedJob,
    },
    Finished {
        job: JobId,
        attempt: usize,
    },
    Shutdown,
}

struct WorkerSlot {
    poisoned: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

struct Shared {
    cfg: ServiceConfig,
    queue: Mutex<VecDeque<SharedJob>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Admitted jobs not yet terminal.
    pending: AtomicUsize,
    drain_mx: Mutex<()>,
    drain_cv: Condvar,
    stats: Mutex<ServiceStats>,
    workers: Mutex<Vec<WorkerSlot>>,
    next_worker: AtomicUsize,
    /// Prototype sender for worker threads (supervisor owns the receiver).
    events: Mutex<mpsc::Sender<Event>>,
}

impl Shared {
    /// Delivers `outcome` for a job whose state lock is already held,
    /// exactly once. Returns `false` if the job was already finalized.
    fn finalize(&self, st: &mut JobState, outcome: JobOutcome) -> bool {
        if st.done {
            return false;
        }
        st.done = true;
        {
            let mut stats = self.stats.lock().expect("stats poisoned");
            match &outcome {
                JobOutcome::Ok { .. } => stats.ok += 1,
                JobOutcome::DegradedOk { .. } => stats.degraded_ok += 1,
                JobOutcome::Shed { .. } => stats.shed += 1,
                JobOutcome::Failed { .. } => stats.failed += 1,
            }
            stats.retries += (st.attempts.len() as u64).saturating_sub(1);
        }
        // The submitter may have dropped its ticket; that loses nothing.
        let _ = st.tx.send(outcome);
        self.pending.fetch_sub(1, Ordering::SeqCst);
        let _g = self.drain_mx.lock().expect("drain poisoned");
        self.drain_cv.notify_all();
        true
    }

    /// Records one attempt under the state lock, updating counters.
    fn record_attempt(&self, st: &mut JobState, rec: AttemptRecord) {
        let mut stats = self.stats.lock().expect("stats poisoned");
        stats.attempts += 1;
        stats.compile_cache.merge(rec.compile_cache);
        if matches!(rec.fault, Some(FaultCause::Panic(_))) {
            stats.worker_panics += 1;
        }
        st.attempts.push(rec);
    }

    /// Requeues an admitted job (bypasses the admission cap: the job
    /// already holds a queue slot conceptually).
    fn requeue(&self, job: SharedJob) {
        let mut q = self.queue.lock().expect("queue poisoned");
        q.push_back(job);
        self.queue_cv.notify_one();
    }

    fn spawn_worker(self: &Arc<Self>) {
        let id = self.next_worker.fetch_add(1, Ordering::SeqCst);
        let poisoned = Arc::new(AtomicBool::new(false));
        let events = self.events.lock().expect("events poisoned").clone();
        let shared = Arc::clone(self);
        let flag = Arc::clone(&poisoned);
        let handle = thread::Builder::new()
            .name(format!("memoird-worker-{id}"))
            .spawn(move || worker_loop(id, shared, flag, events))
            .expect("spawn worker");
        self.workers
            .lock()
            .expect("workers poisoned")
            .push(WorkerSlot {
                poisoned,
                handle: Some(handle),
            });
    }
}

/// A handle to one submitted job's eventual [`JobOutcome`].
pub struct JobTicket {
    /// The service-assigned job id (the submission index, which is also
    /// what fault-plan targets refer to).
    pub id: JobId,
    rx: mpsc::Receiver<JobOutcome>,
}

impl JobTicket {
    /// Blocks until the job's terminal outcome. Panics if the service
    /// was torn down without delivering one — which the service never
    /// does for an admitted job while it is alive.
    pub fn wait(self) -> JobOutcome {
        self.rx
            .recv()
            .expect("service dropped before the job completed")
    }
}

/// The running compile service. See the module docs for the envelope.
/// `submit` takes `&self` and the type is `Sync`, so clients may share
/// one service across threads (e.g. `std::thread::scope` closed-loop
/// drivers).
pub struct Service {
    shared: Arc<Shared>,
    supervisor: Option<thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Service {
    /// Starts the worker pool and supervisor.
    pub fn start(cfg: ServiceConfig) -> Service {
        let workers = cfg.workers.max(1);
        let (tx, rx) = mpsc::channel::<Event>();
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            drain_mx: Mutex::new(()),
            drain_cv: Condvar::new(),
            stats: Mutex::new(ServiceStats::default()),
            workers: Mutex::new(Vec::new()),
            next_worker: AtomicUsize::new(0),
            events: Mutex::new(tx),
        });
        for _ in 0..workers {
            shared.spawn_worker();
        }
        let sup_shared = Arc::clone(&shared);
        let supervisor = thread::Builder::new()
            .name("memoird-supervisor".to_string())
            .spawn(move || supervisor_loop(sup_shared, rx))
            .expect("spawn supervisor");
        Service {
            shared,
            supervisor: Some(supervisor),
            next_id: AtomicU64::new(0),
        }
    }

    /// Submits one job, running admission control inline. The returned
    /// ticket resolves to the job's terminal outcome (shed outcomes
    /// resolve immediately).
    pub fn submit(&self, spec: JobSpec) -> JobTicket {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        self.shared.stats.lock().expect("stats poisoned").submitted += 1;

        let mut q = self.shared.queue.lock().expect("queue poisoned");
        let qdepth = q.len();
        if qdepth >= self.shared.cfg.queue_cap {
            drop(q);
            self.shared.stats.lock().expect("stats poisoned").shed += 1;
            let _ = tx.send(JobOutcome::Shed { qdepth });
            return JobTicket { id, rx };
        }

        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        q.push_back(Arc::new(Mutex::new(JobState {
            id,
            spec,
            attempts: Vec::new(),
            done: false,
            tx,
        })));
        self.shared.queue_cv.notify_one();
        JobTicket { id, rx }
    }

    /// Blocks until every admitted job has a terminal outcome.
    pub fn drain(&self) {
        let mut g = self.shared.drain_mx.lock().expect("drain poisoned");
        while self.shared.pending.load(Ordering::SeqCst) > 0 {
            let (guard, _) = self
                .shared
                .drain_cv
                .wait_timeout(g, Duration::from_millis(100))
                .expect("drain poisoned");
            g = guard;
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats.lock().expect("stats poisoned").clone()
    }

    /// Drains, stops the pool, joins every healthy thread, and returns
    /// the final stats. Workers poisoned by the watchdog are detached
    /// rather than joined (they may still be wedged in an abandoned
    /// attempt; their eventual results are already discarded).
    pub fn join(mut self) -> ServiceStats {
        self.drain();
        self.stop_threads();
        self.stats()
    }

    fn stop_threads(&mut self) {
        // A worker reads `shutdown` under the queue lock and then waits
        // on `queue_cv`, which releases the lock. Set outside the lock,
        // the flag could land between that read and that wait, and its
        // notification would wake nobody: the worker would sleep on and
        // `join` below would block on it for good.
        {
            let _queue = self.shared.queue.lock().expect("queue poisoned");
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.queue_cv.notify_all();
        let _ = self
            .shared
            .events
            .lock()
            .expect("events poisoned")
            .send(Event::Shutdown);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        let slots: Vec<WorkerSlot> =
            std::mem::take(&mut *self.shared.workers.lock().expect("workers poisoned"));
        for mut slot in slots {
            if let Some(h) = slot.handle.take() {
                if slot.poisoned.load(Ordering::SeqCst) {
                    drop(h); // detached; see `join` docs
                } else {
                    let _ = h.join();
                }
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if self.supervisor.is_some() {
            self.stop_threads();
        }
    }
}

/// Convenience driver: starts a service, submits `jobs` in order (so job
/// ids are the vector indices), waits for every outcome, and joins.
/// This fixed submission order is what makes a whole batch reproducible
/// from `(cfg.seed, cfg.faults, jobs)` alone.
pub fn run_jobs(cfg: ServiceConfig, jobs: Vec<JobSpec>) -> (Vec<JobOutcome>, ServiceStats) {
    let svc = Service::start(cfg);
    let tickets: Vec<JobTicket> = jobs.into_iter().map(|j| svc.submit(j)).collect();
    let outcomes: Vec<JobOutcome> = tickets.into_iter().map(|t| t.wait()).collect();
    (outcomes, svc.join())
}

// ---------------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------------

fn worker_loop(
    me: usize,
    shared: Arc<Shared>,
    poisoned: Arc<AtomicBool>,
    events: mpsc::Sender<Event>,
) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if poisoned.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(j) = q.pop_front() {
                    break j;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.queue_cv.wait(q).expect("queue poisoned");
            }
        };
        run_job(me, &shared, &poisoned, &events, job);
        if poisoned.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Runs one job's retry ladder inline until it is finalized, abandoned
/// out from under us, or handed back (never: requeue only happens on
/// abandonment, which poisons this worker).
fn run_job(
    me: usize,
    shared: &Arc<Shared>,
    poisoned: &Arc<AtomicBool>,
    events: &mpsc::Sender<Event>,
    job: SharedJob,
) {
    loop {
        // Snapshot what this attempt needs, then drop the lock for the
        // (potentially long) compile.
        let (job_id, attempt, spec) = {
            let st = job.lock().expect("job poisoned");
            if st.done {
                return;
            }
            (st.id, st.attempts.len(), st.spec.clone())
        };
        let retry = shared.cfg.retry;
        let rung = retry.rung_for_attempt(attempt);
        let backoff_ms = retry.backoff_ms(shared.cfg.seed, job_id, attempt);
        if backoff_ms > 0 {
            thread::sleep(Duration::from_millis(backoff_ms));
        }

        if let Some(timeout_ms) = shared.cfg.timeout_ms {
            let _ = events.send(Event::Started {
                worker: me,
                job: job_id,
                attempt,
                deadline: Instant::now() + Duration::from_millis(timeout_ms),
                state: Arc::clone(&job),
            });
        }
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            execute_attempt(shared, &spec, job_id, attempt, rung)
        }));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if shared.cfg.timeout_ms.is_some() {
            let _ = events.send(Event::Finished {
                job: job_id,
                attempt,
            });
        }
        if poisoned.load(Ordering::SeqCst) {
            // The watchdog abandoned this attempt (and recorded it);
            // discard our result and let the replacement carry on.
            return;
        }

        let mut st = job.lock().expect("job poisoned");
        if st.done || st.attempts.len() > attempt {
            return; // finalized or abandoned while we raced the watchdog
        }
        let outcome = match result {
            Err(panic) => Err(FaultCause::Panic(passman::panic_message(&*panic))),
            Ok(r) => r,
        };
        match outcome {
            Ok(out) => {
                shared.record_attempt(
                    &mut st,
                    AttemptRecord {
                        rung,
                        backoff_ms,
                        fault: None,
                        degradations: out.degradations.clone(),
                        compile_cache: out.compile_cache,
                        ms,
                    },
                );
                let attempts = st.attempts.clone();
                let terminal = if rung.output_preserving() && out.clean {
                    JobOutcome::Ok {
                        output: out.output,
                        attempts,
                    }
                } else {
                    JobOutcome::DegradedOk {
                        output: out.output,
                        attempts,
                    }
                };
                shared.finalize(&mut st, terminal);
                return;
            }
            Err(fault) => {
                shared.record_attempt(
                    &mut st,
                    AttemptRecord {
                        rung,
                        backoff_ms,
                        fault: Some(fault),
                        degradations: Vec::new(),
                        compile_cache: CompileCacheStats::default(),
                        ms,
                    },
                );
                if st.attempts.len() >= retry.max_attempts.max(1) {
                    let attempts = st.attempts.clone();
                    shared.finalize(&mut st, JobOutcome::Failed { attempts });
                    return;
                }
                // Fall through: next ladder rung, same worker.
            }
        }
    }
}

// ---------------------------------------------------------------------------
// attempt execution
// ---------------------------------------------------------------------------

struct AttemptOutput {
    output: String,
    degradations: Vec<passman::Degradation>,
    compile_cache: CompileCacheStats,
    /// No pass-level degradations, no early stop, lowering produced its
    /// module: the output is exactly what the submitted config yields.
    clean: bool,
}

/// Whole-job cache entry: only degradation-free outputs are reusable.
#[derive(Clone)]
enum JobCacheEntry {
    Clean(String),
    Uncacheable,
}

/// The baseline rung's pipeline: the default scalar pipeline with every
/// optional MEMOIR optimization off, keeping a bare `lower` stage iff
/// the submitted spec lowered.
fn baseline_spec(original: &PipelineSpec) -> PipelineSpec {
    let base = default_spec(OptLevel::O3(OptConfig::none()));
    match split_lowered_spec(original) {
        Ok(Some(_)) => PipelineSpec::parse(&format!("{base},lower"))
            .expect("baseline lowered spec is well-formed"),
        _ => base,
    }
}

fn execute_attempt(
    shared: &Shared,
    spec: &JobSpec,
    job: JobId,
    attempt: usize,
    rung: Rung,
) -> Result<AttemptOutput, FaultCause> {
    let cfg = &shared.cfg;
    let cache_installed = cfg.cache.is_some();
    for plan in &cfg.faults {
        if !plan.fires(job, attempt, rung, cache_installed) {
            continue;
        }
        match plan.kind {
            JobInjectKind::WorkerPanic => panic!("injected worker-panic@{job}#{attempt}"),
            JobInjectKind::PoisonCache => panic!("injected poison-cache@{job}#{attempt}"),
            JobInjectKind::SlowJob => {
                // Stall well past the watchdog deadline (bounded, so a
                // poisoned worker always exits eventually).
                let ms = cfg
                    .timeout_ms
                    .map(|t| (t.saturating_mul(2) + 50).min(2000))
                    .unwrap_or(100);
                thread::sleep(Duration::from_millis(ms));
            }
        }
    }

    let effective_spec = if rung == Rung::Baseline {
        baseline_spec(&spec.spec)
    } else {
        spec.spec.clone()
    };
    let threads = if rung == Rung::Full { spec.threads } else { 1 };
    let cache = if rung.uses_cache() {
        cfg.cache.clone()
    } else {
        None
    };
    let mut budgets = spec.budgets;
    if let Some(t) = cfg.timeout_ms {
        budgets.max_pipeline_millis = Some(match budgets.max_pipeline_millis {
            Some(b) => b.min(t),
            None => t,
        });
    }

    // Whole-job output cache: coherent because a clean output is a pure
    // function of (module text, effective spec).
    if cfg.job_cache && rung.uses_cache() {
        if let Some(cache) = &cache {
            let fp = job_key(&spec.module, &effective_spec);
            let mut fresh: Option<Result<AttemptOutput, FaultCause>> = None;
            let entry = cache.get_or_compute::<JobCacheEntry, _>("job", fp, || {
                let r = compile_attempt(spec, &effective_spec, threads, budgets, Some(cache));
                let e = match &r {
                    Ok(out) if out.clean => JobCacheEntry::Clean(out.output.clone()),
                    _ => JobCacheEntry::Uncacheable,
                };
                fresh = Some(r);
                e
            });
            return match fresh {
                Some(r) => r, // we were the producer
                None => match entry {
                    JobCacheEntry::Clean(output) => {
                        shared.stats.lock().expect("stats poisoned").job_cache_hits += 1;
                        Ok(AttemptOutput {
                            output,
                            degradations: Vec::new(),
                            compile_cache: CompileCacheStats {
                                hits: 1,
                                ..Default::default()
                            },
                            clean: true,
                        })
                    }
                    // A cached non-clean marker: recompute (the marker
                    // only says "don't reuse", not "will fail again").
                    JobCacheEntry::Uncacheable => {
                        compile_attempt(spec, &effective_spec, threads, budgets, Some(cache))
                    }
                },
            };
        }
    }
    compile_attempt(spec, &effective_spec, threads, budgets, cache.as_ref())
}

/// The job cache's key: the digests of the module's text and of the
/// effective spec's text, combined. Both are streamed into a
/// [`TextDigest`] as they print, so the module text is never built; a
/// clean output is a pure function of the two texts, which is what keeps
/// the cache coherent (DESIGN.md §15).
fn job_key(module: &memoir_ir::Module, spec: &PipelineSpec) -> Fingerprint {
    let mut module_text = TextDigest::new();
    memoir_ir::printer::write_module(&mut module_text, module).expect("a digest never fails");
    let mut spec_text = TextDigest::new();
    write!(spec_text, "{spec}").expect("a digest never fails");
    module_text.fingerprint().combine(spec_text.fingerprint())
}

/// One pipeline run (MEMOIR-only or through-lowering) with the attempt's
/// effective configuration.
fn compile_attempt(
    spec: &JobSpec,
    effective_spec: &PipelineSpec,
    threads: usize,
    budgets: passman::Budgets,
    cache: Option<&CompileCache>,
) -> Result<AttemptOutput, FaultCause> {
    let mut m = spec.module.clone();
    let lowered = split_lowered_spec(effective_spec)
        .map_err(|e| FaultCause::PassFailed(format!("bad lowered spec: {e}")))?;
    let lcfg = LowerConfig {
        policy: spec.policy,
        budgets,
        verify: None,
        inject: None,
        threads,
        cross_check: true,
        cache: cache.cloned(),
        adaptive: false,
    };
    match lowered {
        Some(pipeline) => {
            let out = compile_lowered_with(&mut m, &pipeline, &lcfg)
                .map_err(|e| FaultCause::PassFailed(e.to_string()))?;
            match out.lowered {
                Some(lm) => Ok(AttemptOutput {
                    output: lir::printer::print_module(&lm),
                    clean: out.report.run.degradations.is_empty() && !out.report.run.stopped_early,
                    degradations: out.report.run.degradations,
                    compile_cache: out.report.run.compile_cache,
                }),
                // No low-level module means the job's contract (produce
                // lowered output) was not met: count it as a fault so
                // the ladder retries on a weaker rung.
                None => Err(FaultCause::PassFailed(
                    "lowering produced no output (stage degraded or pipeline stopped early)"
                        .to_string(),
                )),
            }
        }
        None => {
            let report = compile_spec_with(&mut m, effective_spec, |pm| lcfg.apply(pm))
                .map_err(|e| FaultCause::PassFailed(e.to_string()))?;
            Ok(AttemptOutput {
                output: memoir_ir::printer::print_module(&m),
                clean: report.run.degradations.is_empty() && !report.run.stopped_early,
                degradations: report.run.degradations,
                compile_cache: report.run.compile_cache,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// supervisor (watchdog)
// ---------------------------------------------------------------------------

struct Inflight {
    worker: usize,
    deadline: Instant,
    state: SharedJob,
}

fn supervisor_loop(shared: Arc<Shared>, rx: mpsc::Receiver<Event>) {
    let mut inflight: HashMap<(JobId, usize), Inflight> = HashMap::new();
    loop {
        let next_deadline = inflight.values().map(|i| i.deadline).min();
        let event = match next_deadline {
            Some(d) => {
                let wait = d.saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(ev) => Some(ev),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
            None => match rx.recv() {
                Ok(ev) => Some(ev),
                Err(_) => return,
            },
        };
        if let Some(ev) = event {
            if !handle_event(&mut inflight, ev) {
                return;
            }
        }
        // Drain whatever else is queued before expiring deadlines, so a
        // Finished that raced the watchdog wins over the abandonment.
        while let Ok(ev) = rx.try_recv() {
            if !handle_event(&mut inflight, ev) {
                return;
            }
        }
        expire_due(&shared, &mut inflight);
    }
}

/// Returns `false` on shutdown.
fn handle_event(inflight: &mut HashMap<(JobId, usize), Inflight>, ev: Event) -> bool {
    match ev {
        Event::Started {
            worker,
            job,
            attempt,
            deadline,
            state,
        } => {
            inflight.insert(
                (job, attempt),
                Inflight {
                    worker,
                    deadline,
                    state,
                },
            );
            true
        }
        Event::Finished { job, attempt } => {
            inflight.remove(&(job, attempt));
            true
        }
        Event::Shutdown => false,
    }
}

fn expire_due(shared: &Arc<Shared>, inflight: &mut HashMap<(JobId, usize), Inflight>) {
    let now = Instant::now();
    let due: Vec<(JobId, usize)> = inflight
        .iter()
        .filter(|(_, i)| i.deadline <= now)
        .map(|(k, _)| *k)
        .collect();
    for key in due {
        let Some(inf) = inflight.remove(&key) else {
            continue;
        };
        let (job_id, attempt) = key;
        let timeout_ms = shared.cfg.timeout_ms.unwrap_or(0);
        let retry = shared.cfg.retry;

        let mut st = inf.state.lock().expect("job poisoned");
        if st.done || st.attempts.len() > attempt {
            continue; // the worker beat us to it
        }
        let actual_ms =
            (now - (inf.deadline - Duration::from_millis(timeout_ms))).as_millis() as u64;
        shared.record_attempt(
            &mut st,
            AttemptRecord {
                rung: retry.rung_for_attempt(attempt),
                backoff_ms: retry.backoff_ms(shared.cfg.seed, job_id, attempt),
                fault: Some(FaultCause::Budget(BudgetViolation::PipelineTime {
                    limit_ms: timeout_ms,
                    actual_ms,
                })),
                degradations: Vec::new(),
                compile_cache: CompileCacheStats::default(),
                ms: timeout_ms as f64,
            },
        );
        shared.stats.lock().expect("stats poisoned").timeouts += 1;

        // Poison the stuck worker and backfill the pool.
        {
            let workers = shared.workers.lock().expect("workers poisoned");
            if let Some(slot) = workers.get(inf.worker) {
                slot.poisoned.store(true, Ordering::SeqCst);
            }
        }
        shared.spawn_worker();

        if st.attempts.len() >= retry.max_attempts.max(1) {
            let attempts = st.attempts.clone();
            shared.finalize(&mut st, JobOutcome::Failed { attempts });
        } else {
            drop(st);
            shared.requeue(Arc::clone(&inf.state));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::Module;
    use workloads::synth_ir::build_synth_ir;

    fn job(n: usize, seed: u64, spec: &str) -> JobSpec {
        JobSpec::new(
            format!("synth({n},{seed})"),
            build_synth_ir(n, seed),
            PipelineSpec::parse(spec).unwrap(),
        )
    }

    const SPEC: &str = "ssa-construct,constprop,dce,ssa-destruct";

    #[test]
    fn happy_path_batch_is_all_ok() {
        let jobs: Vec<JobSpec> = (0..6).map(|i| job(3, i, SPEC)).collect();
        let (outcomes, stats) = run_jobs(
            ServiceConfig {
                workers: 3,
                ..Default::default()
            },
            jobs,
        );
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes.iter().all(|o| o.kind() == "ok"), "{stats:?}");
        assert_eq!(stats.terminal(), 6);
        assert_eq!(stats.retries, 0);
        assert!(outcomes.iter().all(|o| o.output().is_some()));
    }

    #[test]
    fn worker_panic_is_contained_and_retried() {
        let jobs: Vec<JobSpec> = (0..3).map(|i| job(3, i, SPEC)).collect();
        let cfg = ServiceConfig {
            workers: 2,
            faults: vec!["worker-panic@1".parse().unwrap()],
            retry: RetryPolicy {
                base_backoff_ms: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (outcomes, stats) = run_jobs(cfg, jobs);
        // Job 1 panics on attempt 0, succeeds on the retry; the retry
        // rung (Full again: 1 same-config retry) is output-preserving,
        // so the job still reports Ok.
        assert_eq!(outcomes[1].kind(), "ok", "{:?}", outcomes[1].attempts());
        assert_eq!(outcomes[1].attempts().len(), 2);
        assert!(matches!(
            outcomes[1].attempts()[0].fault,
            Some(FaultCause::Panic(_))
        ));
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.retries, 1);
        // Fault evidence is aggregated, not dropped.
        assert_eq!(outcomes[1].all_degradations().len(), 1);
        assert_eq!(outcomes[1].all_degradations()[0].pass, "job");
        // The other jobs are untouched.
        assert_eq!(outcomes[0].kind(), "ok");
        assert_eq!(outcomes[2].kind(), "ok");
    }

    #[test]
    fn slow_job_times_out_and_recovers_on_retry() {
        let jobs: Vec<JobSpec> = (0..3).map(|i| job(3, i, SPEC)).collect();
        let cfg = ServiceConfig {
            workers: 2,
            timeout_ms: Some(150),
            faults: vec!["slow-job@0".parse().unwrap()],
            retry: RetryPolicy {
                base_backoff_ms: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (outcomes, stats) = run_jobs(cfg, jobs);
        assert_eq!(outcomes[0].kind(), "ok", "{:?}", outcomes[0].attempts());
        let first = &outcomes[0].attempts()[0];
        assert!(
            matches!(
                first.fault,
                Some(FaultCause::Budget(BudgetViolation::PipelineTime { .. }))
            ),
            "{first:?}"
        );
        assert!(stats.timeouts >= 1);
        assert_eq!(outcomes[1].kind(), "ok");
        assert_eq!(outcomes[2].kind(), "ok");
        assert_eq!(stats.terminal(), 3, "zero lost jobs under timeout");
    }

    #[test]
    fn poisoned_cache_escapes_via_the_no_cache_rung() {
        let cache = CompileCache::new();
        let jobs: Vec<JobSpec> = (0..2).map(|i| job(3, i, SPEC)).collect();
        let cfg = ServiceConfig {
            workers: 1,
            cache: Some(cache),
            faults: vec!["poison-cache@0".parse().unwrap()],
            retry: RetryPolicy {
                base_backoff_ms: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (outcomes, _stats) = run_jobs(cfg, jobs);
        // Job 0 panics on both cache-using attempts (Full, Full) and
        // only succeeds once the ladder reaches NoCache — which is still
        // output-preserving, hence Ok.
        assert_eq!(outcomes[0].kind(), "ok", "{:?}", outcomes[0].attempts());
        let rungs: Vec<Rung> = outcomes[0].attempts().iter().map(|a| a.rung).collect();
        assert_eq!(rungs, vec![Rung::Full, Rung::Full, Rung::NoCache]);
        assert_eq!(outcomes[1].kind(), "ok");
    }

    #[test]
    fn queue_full_sheds_with_structured_outcome() {
        // Zero-capacity queue: everything is shed, nothing is lost.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            queue_cap: 0,
            ..Default::default()
        });
        let t = svc.submit(job(2, 0, SPEC));
        let out = t.wait();
        match out {
            JobOutcome::Shed { qdepth: 0 } => {}
            other => panic!("expected a queue-full shed at depth 0, got {other:?}"),
        }
        let stats = svc.join();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.terminal(), 1);
    }

    #[test]
    fn exhausted_ladder_reports_failed_with_all_attempts() {
        let jobs = vec![job(2, 0, SPEC)];
        let cfg = ServiceConfig {
            workers: 1,
            faults: vec![
                "worker-panic@0#0".parse().unwrap(),
                "worker-panic@0#1".parse().unwrap(),
                "worker-panic@0#2".parse().unwrap(),
            ],
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (outcomes, stats) = run_jobs(cfg, jobs);
        assert_eq!(outcomes[0].kind(), "failed");
        assert_eq!(outcomes[0].attempts().len(), 3);
        assert_eq!(stats.failed, 1);
        assert_eq!(outcomes[0].all_degradations().len(), 3);
    }

    #[test]
    fn baseline_rung_reports_degraded_ok() {
        let jobs = vec![job(3, 1, SPEC)];
        let cfg = ServiceConfig {
            workers: 1,
            faults: vec![
                "worker-panic@0#0".parse().unwrap(),
                "worker-panic@0#1".parse().unwrap(),
                "worker-panic@0#2".parse().unwrap(),
                "worker-panic@0#3".parse().unwrap(),
            ],
            retry: RetryPolicy {
                base_backoff_ms: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let (outcomes, _) = run_jobs(cfg, jobs);
        assert_eq!(
            outcomes[0].kind(),
            "degraded-ok",
            "{:?}",
            outcomes[0]
                .attempts()
                .iter()
                .map(|a| (a.rung, a.fault.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(outcomes[0].attempts().last().unwrap().rung, Rung::Baseline);
    }

    #[test]
    fn through_lowering_jobs_emit_lir() {
        let jobs = vec![job(
            3,
            0,
            "ssa-construct,dce,ssa-destruct,lower,mem2reg,dce",
        )];
        let (outcomes, _) = run_jobs(
            ServiceConfig {
                workers: 1,
                ..Default::default()
            },
            jobs,
        );
        assert_eq!(outcomes[0].kind(), "ok");
        let out = outcomes[0].output().unwrap();
        assert!(
            out.contains("values {") && !out.starts_with("module "),
            "not lir output:\n{out}"
        );
    }

    #[test]
    fn fault_injection_does_not_change_output_bytes() {
        let mk = || (0..4).map(|i| job(3, i, SPEC)).collect::<Vec<_>>();
        let clean_cfg = ServiceConfig {
            workers: 2,
            seed: 7,
            retry: RetryPolicy {
                base_backoff_ms: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let faulty_cfg = ServiceConfig {
            timeout_ms: Some(200),
            faults: vec![
                "worker-panic@1".parse().unwrap(),
                "slow-job@2".parse().unwrap(),
            ],
            ..clean_cfg.clone()
        };
        let (clean, _) = run_jobs(clean_cfg, mk());
        let (faulty, _) = run_jobs(faulty_cfg, mk());
        for (i, (a, b)) in clean.iter().zip(&faulty).enumerate() {
            assert_eq!(a.output(), b.output(), "job {i} output diverged");
        }
    }

    #[test]
    fn job_cache_serves_repeat_outputs() {
        let cache = CompileCache::new();
        let jobs: Vec<JobSpec> = (0..4).map(|_| job(3, 9, SPEC)).collect();
        let cfg = ServiceConfig {
            workers: 1,
            cache: Some(cache),
            job_cache: true,
            ..Default::default()
        };
        let (outcomes, stats) = run_jobs(cfg, jobs);
        assert!(outcomes.iter().all(|o| o.kind() == "ok"));
        assert!(stats.job_cache_hits >= 1, "{stats:?}");
        let first = outcomes[0].output().unwrap();
        assert!(outcomes.iter().all(|o| o.output().unwrap() == first));
    }

    /// A module `m(x) = x + k` in two blocks, with every printed name a
    /// parameter.
    fn named_module(module: &str, func: &str, value: &str, block: &str, k: i64) -> Module {
        let mut mb = memoir_ir::ModuleBuilder::new(module);
        let i64t = mb.module.types.intern(memoir_ir::Type::I64);
        mb.func(func, memoir_ir::Form::Ssa, |b| {
            let x = b.param("x", i64t);
            let next = b.block(block);
            b.jump(next);
            b.switch_to(next);
            let c = b.i64(k);
            let y = b.add(x, c);
            b.name(y, value);
            b.returns(&[i64t]);
            b.ret(vec![y]);
        });
        mb.finish()
    }

    #[test]
    fn job_cache_key_covers_every_printed_name_and_constant() {
        let base = || named_module("m", "f", "y", "next", 5);
        let variants = [
            ("base", base()),
            ("module name", named_module("m2", "f", "y", "next", 5)),
            ("function name", named_module("m", "g", "y", "next", 5)),
            ("value name", named_module("m", "f", "z", "next", 5)),
            ("block name", named_module("m", "f", "y", "then", 5)),
            ("constant", named_module("m", "f", "y", "next", 6)),
        ];
        let spec = PipelineSpec::parse(SPEC).unwrap();
        let uncached: Vec<String> = variants
            .iter()
            .map(|(_, m)| {
                let mut m = m.clone();
                compile_spec_with(&mut m, &spec, |pm| pm).unwrap();
                memoir_ir::printer::print_module(&m)
            })
            .collect();
        for (i, a) in uncached.iter().enumerate() {
            for (b, other) in uncached.iter().enumerate().skip(i + 1) {
                assert_ne!(
                    a, other,
                    "{} and {} compile alike",
                    variants[i].0, variants[b].0
                );
            }
        }

        // Every variant, then every variant again, then the base rebuilt
        // to the same text.
        let jobs: Vec<JobSpec> = variants
            .iter()
            .chain(&variants)
            .map(|(name, m)| JobSpec::new(*name, m.clone(), spec.clone()))
            .chain([JobSpec::new("rebuilt", base(), spec.clone())])
            .collect();
        let cfg = ServiceConfig {
            workers: 1,
            cache: Some(CompileCache::new()),
            job_cache: true,
            ..Default::default()
        };
        let (outcomes, stats) = run_jobs(cfg, jobs);
        let n = variants.len();
        assert_eq!(stats.job_cache_hits, n as u64 + 1, "{stats:?}");
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.kind(), "ok");
            assert_eq!(
                o.output(),
                Some(uncached[i % n].as_str()),
                "job {i} ({})",
                variants[i % n].0
            );
        }
    }

    /// `join` must not lose its wakeup to a worker that has just found
    /// the queue empty and the service running, and has yet to wait.
    /// The test holds the queue lock where such a worker does, lets
    /// `join` run, then waits as the worker would: the shutdown
    /// notification has to reach it.
    #[test]
    fn shutdown_wakes_a_worker_that_has_not_yet_waited() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let shared = Arc::clone(&svc.shared);
        let mut queue = shared.queue.lock().unwrap();
        assert!(queue.is_empty() && !shared.shutdown.load(Ordering::SeqCst));
        let joiner = thread::spawn(move || svc.join());
        // Time for `join` to publish shutdown and notify, were it able to
        // without the queue lock.
        thread::sleep(Duration::from_millis(200));
        // Wait as the worker would (again after a spurious wakeup).
        loop {
            let wait;
            (queue, wait) = shared
                .queue_cv
                .wait_timeout(queue, Duration::from_secs(10))
                .unwrap();
            assert!(!wait.timed_out(), "the shutdown notification was lost");
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        drop(queue);
        joiner.join().unwrap();
    }
}
