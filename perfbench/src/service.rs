//! The `service` workload: a seeded compile-job stream driven through
//! `memoird` in a closed loop (two clients, each waiting for its previous
//! job, sharing one worker; a shared compile cache and the job cache on;
//! no fault injection). The stream is one round of [`ROUND_JOBS`] jobs,
//! replayed through a fresh service (empty caches) until the time is up,
//! so every round does the same work. Every job's output must be
//! byte-identical to a direct, uncached, in-process compile of the same
//! job.

use crate::metrics::Layers;
use crate::seed::mix;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Window, Workload};
use memoir_ir::{Constant, Module, Type, ValueDef};
use memoir_opt::lowering::{compile_lowered_with, split_lowered_spec, LowerConfig};
use memoir_opt::pipeline::{compile_spec_with, default_spec, OptConfig, OptLevel};
use memoird::{JobSpec, Service, ServiceConfig, ServiceStats};
use passman::{CompileCache, PipelineSpec};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workloads::synth_ir::build_synth_ir;

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Service worker threads. One, so the two clients queue for it: with
/// two busy workers on a two-core machine shared with other processes,
/// throughput swung twofold between runs.
const WORKERS: usize = 1;
/// How each block of twelve jobs is made: one fresh module, one edit of
/// an earlier module and ten exact repeats of earlier jobs (job-cache
/// hits). The block and its share of repeats follow the repository's
/// throughput bench (`crates/bench/src/bin/throughput.rs`), whose
/// twelve-job tranches repeat 40 of 48 jobs at four tranches. The
/// pattern is fixed, so every seed runs the same mix.
const PATTERN: [&str; 12] = [
    "fresh", "repeat", "repeat", "repeat", "repeat", "repeat", "edit", "repeat", "repeat",
    "repeat", "repeat", "repeat",
];
/// How far back a repeat or an edit may reach, in jobs.
const WINDOW: u64 = 32;
/// Salt of the draw that picks the earlier job a repeat or an edit is
/// made from. It is the same for every seed: which job repeats which sets
/// how many functions each job has and whether it runs through `lower`,
/// and with a seeded draw that shape moved the median job by over a
/// third from one seed to another.
const SHAPE: u64 = 0x5eed;
/// Every sixth fresh module, starting with the first, runs through
/// `lower`.
const LOWERED_ONE_IN: u64 = 6;
/// Function counts of fresh modules: 4 to 24, in a repeating cycle.
const MIN_FUNCS: u64 = 4;
const FUNC_COUNTS: u64 = 21;
/// Fresh modules of each size in a round: two, so that which modules a
/// seed draws moves a round's cost little, while a round stays short
/// enough to repeat some thirty times in a 30-second window.
const FRESH_PER_SIZE: u64 = 2;
/// Jobs in a round.
pub const ROUND_JOBS: u64 = PATTERN.len() as u64 * FUNC_COUNTS * FRESH_PER_SIZE;

/// What a job compiles: a `synth_ir` module, optionally with about a
/// tenth of its functions edited, through the MEMOIR-only or the
/// through-lowering pipeline. Two jobs with equal sources are identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Source {
    /// Functions in the module (4 to 24).
    pub funcs: usize,
    /// The `synth_ir` generator seed.
    pub module_seed: u64,
    /// Salt of the edit applied to the fresh module, if any.
    pub edit: Option<u64>,
    /// Whether the job runs through `lower`.
    pub lowered: bool,
}

/// How job `i` of the stream for `seed` is made: `fresh`, `repeat` or
/// `edit`.
pub fn job_kind(i: u64) -> &'static str {
    PATTERN[(i % PATTERN.len() as u64) as usize]
}

/// The source of job `i` of the stream for `seed`. Which earlier job a
/// repeat copies, or an edit edits the fresh module behind, and a fresh
/// module's size and whether it is lowered depend only on `i`, so every
/// seed's round has the same shape; the modules' functions and the edits
/// come from the seed.
pub fn job_source(seed: u64, i: u64) -> Source {
    let kind = job_kind(i);
    if kind == "fresh" {
        let f = i / PATTERN.len() as u64;
        return Source {
            funcs: (MIN_FUNCS + f % FUNC_COUNTS) as usize,
            module_seed: mix(seed, i),
            edit: None,
            lowered: f.is_multiple_of(LOWERED_ONE_IN),
        };
    }
    let back = 1 + mix(SHAPE, i) % i.min(WINDOW);
    let earlier = job_source(seed, i - back);
    if kind == "repeat" {
        earlier
    } else {
        Source {
            edit: Some(mix(seed, 2 * i + 1)),
            ..earlier
        }
    }
}

/// Builds a source's module.
pub fn build(src: &Source) -> Module {
    let mut m = build_synth_ir(src.funcs, src.module_seed);
    if let Some(salt) = src.edit {
        edit(&mut m, salt);
    }
    m
}

/// Edits about a tenth of the functions (at least one), picked by
/// `salt`: adds to an `i64` constant where there is one, renames the
/// function otherwise. The amount added and the new name come from
/// `salt` too, so two edits of one module differ even where they pick
/// the same functions: every edit is a compile, never a job-cache hit.
fn edit(m: &mut Module, salt: u64) {
    let ids: Vec<_> = m.funcs.ids().collect();
    let count = ids.len().div_ceil(10);
    let bump = 1 + (salt >> 40) as i64;
    for k in 0..count {
        let fid = ids[(mix(salt, k as u64) % ids.len() as u64) as usize];
        let f = &mut m.funcs[fid];
        let c = f.values.ids().find(|&v| {
            matches!(
                f.values[v].def,
                ValueDef::Const(Constant::Int(Type::I64, _))
            )
        });
        match c {
            Some(v) => {
                if let ValueDef::Const(Constant::Int(t, x)) = f.values[v].def {
                    f.values[v].def = ValueDef::Const(Constant::Int(t, x.wrapping_add(bump)));
                }
            }
            None => f.name.push_str(&format!("_edited{bump}")),
        }
    }
}

/// The job for a source.
pub fn job_spec(src: &Source) -> JobSpec {
    let o3 = default_spec(OptLevel::O3(OptConfig::all()));
    let spec = if src.lowered {
        format!("{o3},lower,{}", lir::passes::default_spec())
    } else {
        o3.to_string()
    };
    JobSpec::new(
        format!("synth({},{})", src.funcs, src.module_seed),
        build(src),
        PipelineSpec::parse(&spec).expect("service spec parses"),
    )
}

/// Compiles a job directly, in process, with no cache: the same
/// configuration a service attempt on the full rung uses.
pub fn direct_compile(spec: &JobSpec) -> Result<String, String> {
    let mut m = spec.module.clone();
    match split_lowered_spec(&spec.spec)? {
        Some(lp) => {
            let cfg = LowerConfig {
                policy: spec.policy,
                budgets: spec.budgets,
                threads: spec.threads,
                cross_check: true,
                cache: None,
                adaptive: false,
                ..LowerConfig::default()
            };
            let out = compile_lowered_with(&mut m, &lp, &cfg).map_err(|e| e.to_string())?;
            let lm = out.lowered.ok_or("lowering produced no module")?;
            Ok(lir::printer::print_module(&lm))
        }
        None => {
            compile_spec_with(&mut m, &spec.spec, |pm| {
                pm.on_fault(spec.policy)
                    .with_budgets(spec.budgets)
                    .with_threads(spec.threads)
            })
            .map_err(|e| e.to_string())?;
            Ok(memoir_ir::printer::print_module(&m))
        }
    }
}

fn digest(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// One completed job as seen by its client.
struct Done {
    /// The job's place in the round.
    index: u64,
    source: Source,
    kind: &'static str,
    latency_ms: f64,
    /// When the job completed, in seconds from the round's start.
    finished_s: f64,
    attempt_ms: f64,
    fingerprint_s: f64,
    /// Whether the outcome was `ok` (not degraded, shed or failed).
    ok: bool,
    output: Option<u64>,
}

/// Adds one service's counters to `total`.
fn accumulate(total: &mut ServiceStats, s: ServiceStats) {
    total.job_cache_hits += s.job_cache_hits;
    total.retries += s.retries;
    total.degraded_ok += s.degraded_ok;
    total.shed += s.shed;
    total.failed += s.failed;
    total.compile_cache.merge(s.compile_cache);
}

/// Runs of the host's reference task before each round; a round takes
/// about a second, and the task under two milliseconds.
const PROBES_PER_ROUND: usize = 4;

/// Replays the round (`specs`, made from `sources`) for `seconds`, whole
/// rounds and at least one, each through a fresh service; spans go to
/// `tr` when it is enabled, and the reference task's times, taken
/// between rounds, to `host_ms`. Returns each replay's jobs in stream
/// order, and the services' summed counters.
fn drive(
    seed: u64,
    sources: &[Source],
    specs: &[JobSpec],
    seconds: f64,
    tr: &mut Tracer,
    host_ms: &mut Vec<f64>,
) -> (Vec<Vec<Done>>, ServiceStats) {
    let traced = tr.enabled();
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    let mut total = ServiceStats::default();
    while t0.elapsed().as_secs_f64() < seconds || rounds.is_empty() {
        for _ in 0..PROBES_PER_ROUND {
            crate::host::probe(host_ms);
        }
        let svc = Service::start(ServiceConfig {
            workers: WORKERS,
            cache: Some(CompileCache::new()),
            job_cache: true,
            seed,
            ..ServiceConfig::default()
        });
        let next = AtomicU64::new(0);
        // Span groups stay distinct across rounds.
        let group = rounds.len() as u64 * ROUND_JOBS;
        let start = Instant::now();
        let results: Vec<(Vec<Done>, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let (svc, next) = (&svc, &next);
                    s.spawn(move || {
                        let mut tr = Tracer::starting_at(traced, t0);
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = specs.get(i as usize) else {
                                break;
                            };
                            let spec = spec.clone();
                            let t = Instant::now();
                            if traced {
                                tr.span("memoir-ir.fingerprint", group + i, |_| {
                                    memoir_ir::fingerprint::module_fingerprints(&spec.module)
                                });
                            }
                            let fingerprint_s = t.elapsed().as_secs_f64();
                            let t = Instant::now();
                            let outcome =
                                tr.span("memoird.job", group + i, |_| svc.submit(spec).wait());
                            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                            let finished_s = start.elapsed().as_secs_f64();
                            done.push(Done {
                                index: i,
                                source: sources[i as usize],
                                kind: job_kind(i),
                                latency_ms,
                                finished_s,
                                attempt_ms: outcome.attempts().iter().map(|a| a.ms).sum(),
                                fingerprint_s,
                                ok: outcome.kind() == "ok",
                                output: outcome.output().map(digest),
                            });
                        }
                        (done, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        accumulate(&mut total, svc.join());
        let mut jobs = Vec::new();
        for (done, t) in results {
            jobs.extend(done);
            tr.merge(t);
        }
        jobs.sort_by_key(|d| d.index);
        rounds.push(jobs);
    }
    (rounds, total)
}

/// Direct compiles of every distinct source, on two threads: the output
/// digest per source (`None` when the direct compile failed).
fn references(sources: Vec<Source>) -> BTreeMap<Source, Option<u64>> {
    let half = sources.len().div_ceil(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|src| {
                            (
                                *src,
                                direct_compile(&job_spec(src)).ok().map(|o| digest(&o)),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Scores every round's jobs against direct compiles, and records each
/// block of [`PATTERN`]'s length as a part of the round: the time from
/// the previous block's last completion to its own.
fn check(w: &mut Window, rounds: &[Vec<Done>]) {
    let mut sources: Vec<Source> = rounds
        .iter()
        .flat_map(|r| r.iter().map(|d| d.source))
        .collect();
    sources.sort();
    sources.dedup();
    let reference = references(sources);
    for r in rounds {
        for d in r {
            let expected = reference.get(&d.source).copied().flatten();
            w.latency(
                d.index as usize,
                d.latency_ms,
                d.ok && d.output.is_some() && d.output == expected,
            );
        }
        let mut done_by = 0.0;
        for (b, block) in r.chunks(PATTERN.len()).enumerate() {
            let end = block.iter().map(|d| d.finished_s).fold(done_by, f64::max);
            w.part(b, block.len(), end - done_by);
            done_by = end;
        }
    }
}

/// The service workload's state after set-up.
pub struct ServiceLoad {
    seed: u64,
    /// The round's jobs, built once.
    sources: Vec<Source>,
    specs: Vec<JobSpec>,
    build_s: f64,
}

/// The warm-up jobs: a fresh module of every size on each pipeline,
/// each sent twice (a compile, then a job-cache hit). The sizes are
/// fixed, so set-up does the same work for every seed.
fn warmup_sources(seed: u64) -> Vec<Source> {
    let fresh: Vec<Source> = (MIN_FUNCS..MIN_FUNCS + FUNC_COUNTS)
        .flat_map(|funcs| {
            [false, true].map(|lowered| Source {
                funcs: funcs as usize,
                module_seed: mix(seed, funcs),
                edit: None,
                lowered,
            })
        })
        .collect();
    [fresh.clone(), fresh].concat()
}

impl Workload for ServiceLoad {
    fn setup(seed: u64) -> Result<Self, String> {
        let t = Instant::now();
        let round: Vec<Source> = (0..ROUND_JOBS).map(|i| job_source(seed, i)).collect();
        let round_specs: Vec<JobSpec> = round.iter().map(job_spec).collect();
        let sources = warmup_sources(seed);
        let specs: Vec<JobSpec> = sources.iter().map(job_spec).collect();
        let build_s = t.elapsed().as_secs_f64();
        let (outcomes, _) = memoird::run_jobs(
            ServiceConfig {
                workers: WORKERS,
                // Every warm-up job is queued at once; none may be shed.
                queue_cap: specs.len(),
                cache: Some(CompileCache::new()),
                job_cache: true,
                ..ServiceConfig::default()
            },
            specs,
        );
        if let Some((src, o)) = sources
            .iter()
            .zip(&outcomes)
            .find(|(_, o)| o.kind() != "ok")
        {
            return Err(format!(
                "warm-up job {src:?} ended {}: {:?}",
                o.kind(),
                o.attempts()
                    .iter()
                    .map(|a| (&a.fault, &a.degradations))
                    .collect::<Vec<_>>()
            ));
        }
        Ok(ServiceLoad {
            seed,
            sources: round,
            specs: round_specs,
            build_s,
        })
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn measure(&mut self, seconds: f64) -> Window {
        let mut host_ms = Vec::new();
        let (rounds, stats) = drive(
            self.seed,
            &self.sources,
            &self.specs,
            seconds,
            &mut Tracer::new(false),
            &mut host_ms,
        );
        let mut w = Window {
            max_rss_mb: Some(crate::host::max_rss_mb()),
            host_ms,
            ..Window::default()
        };
        check(&mut w, &rounds);
        let done: Vec<&Done> = rounds.iter().flatten().collect();
        for (kind, name) in [
            ("fresh", "job_ms.fresh"),
            ("repeat", "job_ms.repeat"),
            ("edit", "job_ms.edit"),
        ] {
            let ms: Vec<f64> = done
                .iter()
                .filter(|d| d.kind == kind)
                .map(|d| d.latency_ms)
                .collect();
            w.report(name, "ms", ms);
        }
        w.report(
            "job_cache_hit_rate",
            "fraction",
            vec![stats.job_cache_hits as f64 / done.len().max(1) as f64],
        );
        w
    }

    fn trace(
        &mut self,
        seconds: f64,
        layers: &mut Layers,
    ) -> (Window, Vec<(&'static str, String)>) {
        let untraced = self.measure(seconds / 2.0);
        let mut tr = Tracer::new(true);
        let (rounds, stats) = drive(
            self.seed,
            &self.sources,
            &self.specs,
            seconds / 2.0,
            &mut tr,
            &mut Vec::new(),
        );
        let mut w = Window::default();
        check(&mut w, &rounds);
        let done: Vec<&Done> = rounds.iter().flatten().collect();
        let queue: Vec<f64> = done
            .iter()
            .map(|d| (d.latency_ms - d.attempt_ms).max(0.0))
            .collect();
        let attempt: Vec<f64> = done.iter().map(|d| d.attempt_ms).collect();
        let fp: Vec<f64> = done.iter().map(|d| d.fingerprint_s).collect();
        let lat: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
        layers.set("memoird.queue_ms_p50", median(&queue));
        layers.set("memoird.queue_ms_p99", percentile(&queue, 99.0));
        layers.set("memoird.attempt_ms_p50", median(&attempt));
        layers.set(
            "memoird.job_cache_hit_rate",
            stats.job_cache_hits as f64 / done.len().max(1) as f64,
        );
        layers.set("memoird.retries", stats.retries as f64);
        layers.set("memoird.degraded_ok", stats.degraded_ok as f64);
        layers.set("memoird.shed", stats.shed as f64);
        layers.set("memoird.failed", stats.failed as f64);
        layers.set("passman.cache_reuse_rate", stats.compile_cache.reuse_rate());
        layers.set(
            "passman.cache_contended",
            stats.compile_cache.contended as f64,
        );
        layers.set("passman.fingerprint_s", median(&fp));
        layers.set(
            "trace.job_p50_ms_overhead",
            median(&lat) / median(&untraced.all_job_ms()) - 1.0,
        );
        w.absorb(untraced);
        (
            w,
            vec![
                ("self_s", crate::self_times_json(&tr)),
                ("spans", tr.spans_json()),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_stream_depends_only_on_the_seed() {
        let a: Vec<Source> = (0..200).map(|i| job_source(9, i)).collect();
        let b: Vec<Source> = (0..200).map(|i| job_source(9, i)).collect();
        let c: Vec<Source> = (0..200).map(|i| job_source(10, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let print = |s: &Source| memoir_ir::printer::print_module(&build(s));
        assert_eq!(print(&a[7]), print(&b[7]));
    }

    #[test]
    fn warmup_sizes_do_not_depend_on_the_seed() {
        let shape = |seed| {
            let mut s: Vec<(usize, bool)> = warmup_sources(seed)
                .iter()
                .map(|s| (s.funcs, s.lowered))
                .collect();
            s.sort();
            s
        };
        assert_eq!(warmup_sources(3), warmup_sources(3));
        assert_ne!(warmup_sources(3), warmup_sources(4));
        assert_eq!(shape(3), shape(4));
        assert_eq!(shape(3).len(), 4 * FUNC_COUNTS as usize);
    }

    #[test]
    fn a_round_mixes_fresh_repeated_and_edited_jobs() {
        let n = ROUND_JOBS as usize;
        let sources: Vec<Source> = (0..ROUND_JOBS).map(|i| job_source(1, i)).collect();
        let mut fresh = Vec::new();
        for i in 0..n {
            let s = sources[i];
            match job_kind(i as u64) {
                "fresh" => {
                    assert!(s.edit.is_none() && !sources[..i].contains(&s));
                    fresh.push(s);
                }
                "repeat" => assert!(sources[i.saturating_sub(32)..i].contains(&s)),
                _ => {
                    assert!(s.edit.is_some());
                    assert!(fresh.iter().any(|f| f.module_seed == s.module_seed));
                }
            }
        }
        assert_eq!(fresh.len() * 12, n, "a twelfth of the jobs are fresh");
        let repeats = (0..ROUND_JOBS).filter(|&i| job_kind(i) == "repeat").count();
        assert_eq!(repeats * 12, n * 10, "ten in twelve are repeats");
        for funcs in 4..=24 {
            let count = fresh.iter().filter(|s| s.funcs == funcs).count();
            assert_eq!(count as u64, FRESH_PER_SIZE, "{funcs} functions");
        }
        let lowered = fresh.iter().filter(|s| s.lowered).count();
        assert_eq!(
            lowered * 6,
            fresh.len(),
            "a sixth of the fresh modules are lowered"
        );
        let shape = |seed| {
            (0..ROUND_JOBS)
                .map(|i| {
                    let s = job_source(seed, i);
                    (s.funcs, s.lowered, s.edit.is_some())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(1), shape(2), "every seed's round has the same shape");
    }

    #[test]
    fn an_edit_changes_about_a_tenth_of_the_functions() {
        let base = build_synth_ir(20, 5);
        let mut edited = base.clone();
        edit(&mut edited, 77);
        let changed = base
            .funcs
            .iter()
            .zip(edited.funcs.iter())
            .filter(|((_, a), (_, b))| {
                a.name != b.name
                    || a.values.ids().any(|v| {
                        format!("{:?}", a.values[v].def) != format!("{:?}", b.values[v].def)
                    })
            })
            .count();
        assert!((1..=2).contains(&changed), "{changed}");
    }
}
