//! The metric registry: every name the benchmark can print, with its
//! unit. `BENCHMARK.json` lists the same names; a test keeps them equal.

use std::collections::BTreeMap;

/// End-to-end metrics printed with `--trace 0`, on every workload. A
/// *job* is the workload's unit of work: one kernel compiled and run,
/// one whole-program module compiled, one `memoird` job, or one twin
/// variant run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("max_rss_mb", "MiB"),
];

/// The five IR kernels, in run order.
pub const KERNELS: &[&str] = &["mcf", "deepsjeng", "optlike", "smallbank", "docstore"];

/// The runtime twins and their variants, in run order.
pub const TWIN_VARIANTS: &[(&str, &str)] = &[
    ("mcf", "base"),
    ("mcf", "all"),
    ("deepsjeng", "base"),
    ("deepsjeng", "fe"),
    ("optlike", "base"),
    ("smallbank", "default"),
    ("smallbank", "fused"),
    ("smallbank", "dense"),
    ("smallbank", "both"),
];

/// Per-layer metrics printed with `--trace 1`, on every workload (a
/// layer the workload never calls reads 0), with units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("workloads.build_s".into(), "s")];
    for pass in crate::compile::MEMOIR_PASSES {
        v.push((format!("memoir-opt.{pass}_s"), "s"));
    }
    for (pass, stat) in crate::compile::PASS_STATS {
        v.push((format!("memoir-opt.{pass}.{stat}"), "count"));
    }
    v.push(("memoir-ir.insts_after_memoir".into(), "count"));
    for (name, unit) in [
        ("passman.overhead_s", "s"),
        ("passman.analysis_hit_rate", "fraction"),
        ("passman.cache_reuse_rate", "fraction"),
        ("passman.cache_contended", "count"),
        ("passman.fingerprint_s", "s"),
        ("memoir-analysis.choose_reprs_s", "s"),
        ("memoir-lower.lower_s", "s"),
        ("memoir-lower.validate_s", "s"),
        ("memoir-lower.functions_proved", "count"),
        ("memoir-lower.functions_probed", "count"),
        ("memoir-lower.functions_skipped", "count"),
        ("memoir-lower.lir_insts", "count"),
        ("memoir-lower.dense_assocs", "count"),
        ("memoir-lower.inline_seqs", "count"),
        ("symexec.prove_s", "s"),
    ] {
        v.push((name.into(), unit));
    }
    for pass in crate::compile::LIR_PASSES {
        v.push((format!("lir.{pass}_s"), "s"));
    }
    for k in KERNELS {
        v.push((format!("lir.exec_s.{k}"), "s"));
    }
    for k in KERNELS {
        v.push((format!("lir.exec_insts.{k}"), "count"));
    }
    for (name, unit) in [
        ("lir.loads", "count"),
        ("lir.stores", "count"),
        ("lir.rt_calls", "count"),
        ("lir.ns_per_inst", "ns"),
    ] {
        v.push((name.into(), unit));
    }
    for k in KERNELS {
        v.push((format!("memoir-interp.exec_s.{k}"), "s"));
    }
    for k in KERNELS {
        v.push((format!("memoir-interp.model_cycles.{k}"), "cycles"));
    }
    for (name, unit) in [
        ("memoir-interp.rank_corr", "rho"),
        ("memoird.queue_ms_p50", "ms"),
        ("memoird.queue_ms_p99", "ms"),
        ("memoird.attempt_ms_p50", "ms"),
        ("memoird.job_cache_hit_rate", "fraction"),
        ("memoird.retries", "count"),
        ("memoird.degraded_ok", "count"),
        ("memoird.shed", "count"),
        ("memoird.failed", "count"),
    ] {
        v.push((name.into(), unit));
    }
    for (twin, variant) in TWIN_VARIANTS {
        v.push((format!("memoir-runtime.{twin}.{variant}_s"), "s"));
    }
    for twin in ["mcf", "deepsjeng", "optlike", "smallbank"] {
        v.push((format!("memoir-runtime.{twin}.allocated_bytes"), "bytes"));
    }
    for name in [
        "trace.compile_s_overhead",
        "trace.run_s_overhead",
        "trace.job_p50_ms_overhead",
    ] {
        v.push((name.into(), "fraction"));
    }
    v
}

/// Per-layer values measured by one traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Records a per-layer value. Panics on a name missing from
    /// [`per_layer`], so a typo cannot silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            per_layer().iter().any(|(n, _)| n == name),
            "`{name}` is not a registered per-layer metric"
        );
        self.0.insert(name.to_string(), value);
    }

    /// Every registered per-layer metric as `(name, value, unit)`, in
    /// registry order; unrecorded ones read 0.
    pub fn all(&self) -> Vec<(String, f64, &'static str)> {
        per_layer()
            .into_iter()
            .map(|(n, unit)| {
                let v = self.0.get(&n).copied().unwrap_or(0.0);
                (n, v, unit)
            })
            .collect()
    }
}

/// Formats `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json<'a>(items: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> String {
    let parts: Vec<String> = items
        .into_iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// A JSON number with all its digits; non-finite values become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The string values of `field` in one top-level array of
    /// `BENCHMARK.json`, in order.
    fn field_in(json: &str, key: &str, field: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
        let rest = &json[start..];
        let body = &rest[rest.find('[').unwrap()..=rest.find(']').unwrap()];
        body.split(&format!("\"{field}\""))
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').unwrap() + 1..];
                s[..s.find('"').unwrap()].to_string()
            })
            .collect()
    }

    fn names_in(json: &str, key: &str) -> Vec<String> {
        field_in(json, key, "name")
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let json = benchmark_json();
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let units: Vec<String> = END_TO_END.iter().map(|(_, u)| u.to_string()).collect();
        assert_eq!(field_in(&json, "end_to_end", "unit"), units);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
        let units: Vec<String> = per_layer()
            .into_iter()
            .map(|(_, u)| u.to_string())
            .collect();
        assert_eq!(field_in(&json, "per_layer", "unit"), units);
        // `whole-program` runs on request but is not gated (see README.md).
        let gated: Vec<&str> = crate::WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w != "whole-program")
            .collect();
        assert_eq!(names_in(&json, "workloads"), gated);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(count - END_TO_END.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn unset_layers_read_zero_and_every_layer_is_emitted() {
        let mut l = Layers::default();
        l.set("lir.loads", 3.0);
        let all = l.all();
        assert_eq!(all.len(), per_layer().len());
        assert!(all.iter().any(|(n, v, _)| n == "lir.loads" && *v == 3.0));
        assert!(all.iter().any(|(n, v, _)| n == "lir.stores" && *v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not a registered")]
    fn unknown_layer_name_panics() {
        Layers::default().set("lir.load", 1.0);
    }
}
