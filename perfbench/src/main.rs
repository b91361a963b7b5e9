//! Wall-clock benchmark of the MEMOIR compiler, the code it generates,
//! the `memoird` compile service and the native runtime twins.
//!
//! ```text
//! perfbench --workload <kernels|whole-program|service|twins> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up several times (the median is `setup_s`), then
//! measures it for `--seconds` with every output checked against an
//! independent reference. With `--trace 0` it prints the end-to-end
//! metrics, their times corrected for the load other machines put on
//! the host (as timed on a fixed reference task, [`host::probe`]);
//! with `--trace 1` it measures half the time untraced and half traced
//! stage by stage, prints the per-layer metrics, and writes the spans
//! to `.perfbench/`. The last line of standard output is the
//! result as one JSON object; the line before it is the full report.
//! See README.md in this directory for the workloads and metrics.

mod compile;
mod host;
mod kernels;
mod metrics;
mod seed;
mod service;
mod stats;
mod trace;
mod twins;
mod wholeprog;

use metrics::{metrics_json, Layers, END_TO_END};
use stats::{median, percentile, summary_json};
use std::time::Instant;

/// The workload names `--workload` accepts.
pub const WORKLOADS: &[&str] = &["kernels", "whole-program", "service", "twins"];

/// Each run sets its workload up at least `SETUPS` times, and until the
/// set-ups have taken `SETUP_SECONDS`; `setup_s` is their median. The
/// cheap set-ups repeat more often, so a short burst of load from other
/// machines moves the median less.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;

/// Each job's latency, and each part of a round's duration, is the
/// median of the fastest 1/`FASTEST` of its repetitions in the window.
/// Other machines' load on the shared host slows the same code by up to
/// 1.8x, in bursts from under a second to minutes long; the fastest
/// repetitions of each job estimate what it costs on an unloaded machine,
/// and vary far less between runs than whole rounds do.
const FASTEST: usize = 16;

/// The median of the fastest 1/[`FASTEST`] of `xs` (at least one);
/// `0.0` for no samples.
fn fast(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s.truncate(xs.len().div_ceil(FASTEST).max(1));
    median(&s)
}

/// What one measured window produced.
#[derive(Default)]
pub struct Window {
    /// Latency samples in milliseconds, by the job's place in the round.
    job_ms: Vec<Vec<f64>>,
    /// Duration samples in seconds, by the part's place in the round,
    /// with the number of jobs the part holds.
    parts: Vec<(usize, Vec<f64>)>,
    /// Outputs checked.
    attempted: u64,
    /// Outputs that failed, trapped, degraded or differed from the
    /// reference.
    failed: u64,
    /// Workload-specific metrics as `(name, unit, samples)`.
    extra: Vec<(String, &'static str, Vec<f64>)>,
    /// Peak resident memory in MiB, read by workloads that run reference
    /// work after the measured jobs; otherwise read when the window ends.
    max_rss_mb: Option<f64>,
    /// Milliseconds of each run of the host's reference task
    /// ([`host::probe`]), taken between rounds.
    host_ms: Vec<f64>,
}

impl Window {
    /// Records a run of job `id` of the round that took `ms` on its own:
    /// its latency, and a part of the round holding just that job.
    fn job(&mut self, id: usize, ms: f64, ok: bool) {
        self.latency(id, ms, ok);
        self.part(id, 1, ms / 1e3);
    }

    /// Records the latency of a run of job `id` of the round and whether
    /// its output checked out.
    fn latency(&mut self, id: usize, ms: f64, ok: bool) {
        if self.job_ms.len() <= id {
            self.job_ms.resize_with(id + 1, Vec::new);
        }
        self.job_ms[id].push(ms);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records that part `id` of the round, holding `jobs` jobs, took
    /// `seconds`.
    fn part(&mut self, id: usize, jobs: usize, seconds: f64) {
        if self.parts.len() <= id {
            self.parts.resize_with(id + 1, || (0, Vec::new()));
        }
        self.parts[id].0 = jobs;
        self.parts[id].1.push(seconds);
    }

    /// Every latency sample, in milliseconds.
    fn all_job_ms(&self) -> Vec<f64> {
        self.job_ms.concat()
    }

    /// Each job's latency over its fastest repetitions, in milliseconds.
    fn fast_job_ms(&self) -> Vec<f64> {
        self.job_ms
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| fast(s))
            .collect()
    }

    /// Jobs per second of a round whose every part takes its duration
    /// over its fastest repetitions.
    fn fast_jobs_per_s(&self) -> f64 {
        let jobs: usize = self.parts.iter().map(|p| p.0).sum();
        let seconds: f64 = self.parts.iter().map(|p| fast(&p.1)).sum();
        if seconds > 0.0 {
            jobs as f64 / seconds
        } else {
            0.0
        }
    }

    /// Times the host's reference task once.
    fn probe_host(&mut self) {
        host::probe(&mut self.host_ms);
    }

    /// Records a workload-specific metric's samples.
    fn report(&mut self, name: impl Into<String>, unit: &'static str, samples: Vec<f64>) {
        self.extra.push((name.into(), unit, samples));
    }

    /// The samples of a workload-specific metric (empty if absent).
    fn samples(&self, name: &str) -> &[f64] {
        self.extra
            .iter()
            .find(|e| e.0 == name)
            .map_or(&[], |e| e.2.as_slice())
    }

    /// Adds another window's checks to this one's.
    fn absorb(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Builds the inputs from the seed and warms up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Seconds the last set-up spent building inputs.
    fn build_s(&self) -> f64;
    /// Measures untraced for `seconds`.
    fn measure(&mut self, seconds: f64) -> Window;
    /// Measures half the time untraced and half traced, recording the
    /// per-layer metrics; returns the traced window and the trace's
    /// sections as `(name, JSON)`: `spans`, `self_s` and, for kernels,
    /// `calibration`.
    fn trace(&mut self, seconds: f64, layers: &mut Layers)
        -> (Window, Vec<(&'static str, String)>);
}

/// Self time per span name as a JSON object.
pub fn self_times_json(tr: &trace::Tracer) -> String {
    let parts: Vec<String> = tr
        .self_times()
        .into_iter()
        .map(|(name, s)| format!("\"{name}\": {s}"))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "kernels" => run::<kernels::Kernels>(&args),
        "whole-program" => run::<wholeprog::WholeProgram>(&args),
        "service" => run::<service::ServiceLoad>(&args),
        _ => run::<twins::Twins>(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Sets up, measures and prints one workload.
fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut host_ms = Vec::new();
    let mut state: Option<W> = None;
    let start = Instant::now();
    while setup_s.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(state.take());
        let t = Instant::now();
        let w = W::setup(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        build_s.push(w.build_s());
        state = Some(w);
        // The set-up leaves the reference task's table out of the
        // caches, so of two runs the faster finds it warm, as the runs
        // between rounds are at their fastest.
        let mut pair = Vec::new();
        host::probe(&mut pair);
        host::probe(&mut pair);
        host_ms.push(pair[0].min(pair[1]));
    }
    let mut w = state.expect("at least one set-up");
    if args.trace {
        let mut layers = Layers::default();
        layers.set("workloads.build_s", median(&build_s));
        let (win, sections) = w.trace(args.seconds, &mut layers);
        let all = layers.all();
        let metrics = metrics_json(all.iter().map(|(n, v, u)| (n.as_str(), *v, *u)));
        let head = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"host\": {}",
            args.workload,
            args.seed,
            host::metadata_json()
        );
        let body: Vec<String> = sections
            .iter()
            .map(|(name, json)| format!("\"{name}\": {json}"))
            .collect();
        write_trace(
            args,
            &format!(
                "{{{head},\n\"metrics\": {metrics},\n{}}}\n",
                body.join(",\n")
            ),
        )?;
        // The report line carries every section but the spans.
        let summary: Vec<String> = sections
            .iter()
            .filter(|(name, _)| *name != "spans")
            .map(|(name, json)| format!("\"{name}\": {json}"))
            .collect();
        println!(
            "{{\"report\": {{{head}, \"trace\": \"{}\", {}}}}}",
            trace_path(args),
            summary.join(", ")
        );
        print_result(&win, &metrics);
        return Ok(());
    }

    host::reset_max_rss();
    let win = w.measure(args.seconds);
    let job_ms = win.all_job_ms();
    let rss = win.max_rss_mb.unwrap_or_else(host::max_rss_mb);
    // Each statistic is set beside the same statistic of the reference
    // task over the same stretch of the run.
    let slowdown = (
        host_slowdown(median(&host_ms)),
        host_slowdown(fast(&win.host_ms)),
    );
    let e2e = end_to_end(&setup_s, &win, rss, slowdown);
    let metrics = metrics_json(e2e.iter().copied());
    let raw = end_to_end(&setup_s, &win, rss, (1.0, 1.0));

    // The full report: every metric of the workload with its samples,
    // each time metric also as measured, before the host's slowdown is
    // taken out.
    let error_rate = win.failed as f64 / win.attempted.max(1) as f64;
    let mut report = vec![
        format!(
            "\"host_slowdown.setup\": {{\"value\": {}, \"unit\": \"x\", \"reference_ms\": {}}}",
            slowdown.0,
            summary_json(&host_ms)
        ),
        format!(
            "\"host_slowdown\": {{\"value\": {}, \"unit\": \"x\", \"reference_ms\": {}}}",
            slowdown.1,
            summary_json(&win.host_ms)
        ),
        format!(
            "\"setup_s\": {{\"value\": {}, \"unit\": \"s\", \"measured\": {}, \"samples\": {}}}",
            e2e[0].1,
            raw[0].1,
            summary_json(&setup_s)
        ),
    ];
    for i in 1..4 {
        report.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"measured\": {}}}",
            e2e[i].0, e2e[i].1, e2e[i].2, raw[i].1
        ));
    }
    report.extend([
        format!(
            "\"job_ms\": {{\"unit\": \"ms\", \"samples\": {}}}",
            summary_json(&job_ms)
        ),
        format!("\"error_rate\": {{\"value\": {error_rate}, \"unit\": \"fraction\"}}"),
        format!("\"max_rss_mb\": {{\"value\": {rss}, \"unit\": \"MiB\"}}"),
    ]);
    // Over all jobs, when at least ten lie beyond it; lower tails are in
    // `job_ms`.
    if let Some(("p99", v)) = stats::tail(&job_ms) {
        report.push(format!(
            "\"job_p99_ms\": {{\"value\": {v}, \"unit\": \"ms\"}}"
        ));
    }
    for (name, unit, samples) in &win.extra {
        report.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {}}}",
            median(samples),
            summary_json(samples)
        ));
    }
    println!(
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"host\": {}, \"metrics\": {{{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        host::metadata_json(),
        report.join(", ")
    );
    print_result(&win, &metrics);
    Ok(())
}

/// How much slower than [`host::NOMINAL_MS`] the host ran, given the
/// reference task's time `ms`; `1.0` without samples (`ms` = 0).
fn host_slowdown(ms: f64) -> f64 {
    if ms > 0.0 {
        ms / host::NOMINAL_MS
    } else {
        1.0
    }
}

/// The end-to-end metrics of an untraced window, in [`END_TO_END`]
/// order, as `(name, value, unit)`; the job metrics come from each job's
/// and each part's fastest repetitions. Times are divided by the host's
/// slowdown, during set-up and during the window (rates multiplied by
/// it), so a run on a loaded host reads as the same run on a quiet one
/// would.
fn end_to_end(
    setup_s: &[f64],
    win: &Window,
    rss_mb: f64,
    (setup_slowdown, slowdown): (f64, f64),
) -> Vec<(&'static str, f64, &'static str)> {
    let job_ms = win.fast_job_ms();
    let values = [
        median(setup_s) / setup_slowdown,
        win.fast_jobs_per_s() * slowdown,
        median(&job_ms) / slowdown,
        percentile(&job_ms, 90.0) / slowdown,
        rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Prints the result line, the last line of standard output.
fn print_result(win: &Window, metrics: &str) {
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        win.failed == 0 && win.attempted > 0,
        win.attempted,
        win.failed
    );
}

fn trace_path(args: &Args) -> String {
    format!(".perfbench/trace-{}-{}.json", args.workload, args.seed)
}

/// Writes the trace file under `.perfbench/` in the working directory.
fn write_trace(args: &Args, json: &str) -> Result<(), String> {
    std::fs::create_dir_all(".perfbench").map_err(|e| format!("creating .perfbench: {e}"))?;
    std::fs::write(trace_path(args), json).map_err(|e| format!("writing trace: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_end_to_end_metric_is_emitted_and_nonzero() {
        let mut win = Window::default();
        for (id, ms) in [3.0, 5.0, 8.0, 30.0, 50.0, 80.0].into_iter().enumerate() {
            win.job(id % 3, ms, true);
        }
        let e2e = end_to_end(&[0.5, 0.4, 0.6], &win, 12.5, (1.0, 1.0));
        let names: Vec<&str> = e2e.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
        assert!(e2e.iter().all(|m| m.1 > 0.0 && m.1.is_finite()), "{e2e:?}");
        assert_eq!(e2e[0].1, 0.5, "setup_s is the median set-up");
        assert!(
            (e2e[1].1 - 3.0 / 0.016).abs() < 1e-9,
            "jobs_per_s of each job at its fastest"
        );
        assert_eq!(e2e[2].1, 5.0, "job_p50_ms is the median job at its fastest");
        let slow = end_to_end(&[0.5, 0.4, 0.6], &win, 12.5, (4.0, 2.0));
        assert_eq!(slow[0].1, 0.125, "set-up is divided by its own slowdown");
        assert!(
            (slow[1].1 - 2.0 * e2e[1].1).abs() < 1e-9,
            "rates multiplied"
        );
        assert_eq!((slow[2].1, slow[4].1), (2.5, 12.5), "memory is not a time");
    }

    #[test]
    fn slowdown_is_the_reference_time_over_nominal() {
        assert_eq!(host_slowdown(2.5 * host::NOMINAL_MS), 2.5);
        assert_eq!(host_slowdown(fast(&[])), 1.0);
    }

    #[test]
    fn fast_is_the_median_of_the_fastest_sixteenth() {
        let xs: Vec<f64> = (0..32).rev().map(f64::from).collect();
        assert_eq!(fast(&xs), 0.5);
        assert_eq!(fast(&[7.0, 3.0, 9.0]), 3.0);
        assert_eq!(fast(&[]), 0.0);
    }

    #[test]
    fn parts_add_up_at_their_fastest() {
        let mut win = Window::default();
        for seconds in [0.5, 0.2, 0.3] {
            win.part(0, 10, seconds);
            win.part(1, 2, 4.0 * seconds);
        }
        assert!((win.fast_jobs_per_s() - 12.0 / 1.0).abs() < 1e-9);
        assert_eq!(win.fast_job_ms(), Vec::<f64>::new());
    }

    #[test]
    fn failed_checks_make_the_result_incorrect() {
        let mut win = Window::default();
        win.job(0, 1.0, true);
        win.job(1, 1.0, false);
        let mut other = Window::default();
        other.job(0, 1.0, true);
        win.absorb(other);
        assert_eq!((win.attempted, win.failed), (3, 1));
    }
}
