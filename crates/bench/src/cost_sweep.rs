//! Workload cost sweep for the two tentpole optimizations (DESIGN §16):
//! collection-op fusion and adaptive representation selection, on vs
//! off, over the IR workload kernels.
//!
//! Each subject compiles through the O3 pipeline four ways — `baseline`
//! (fusion stripped from the spec), `fusion` (the default pipeline),
//! `adaptive` (fusion stripped, interp charged per the representation
//! analysis's choices), and `fusion+adaptive` — and executes under the
//! MEMOIR interpreter's deterministic cost model
//! (`memoir-interp/src/stats.rs`). The outputs must be identical in all
//! four configurations; only the abstract cycle count may move.
//!
//! Prints the `BENCH_workloads.json` document to stdout: per subject ×
//! configuration, the returned values, the cost, and the reduction vs
//! baseline. The same numbers go to stderr as a table.
//!
//! `--check` asserts the invariants CI smokes: identical outputs across
//! all configurations of every subject, `fusion+adaptive` cost ≤
//! baseline cost on *every* subject, and a ≥ 10% reduction on at least
//! one subject.

use crate::paper::o3_all;
use memoir_interp::{ExecStats, Interp, Value};
use memoir_ir::{Module, Type};
use memoir_opt::pipeline::{compile_spec_with, default_spec};
use passman::PipelineSpec;
use std::io::{self, Write};

/// One workload kernel: module, entry function, and entry arguments.
struct Subject {
    name: &'static str,
    module: Module,
    entry: &'static str,
    args: Vec<Value>,
}

fn subjects() -> Vec<Subject> {
    let idx = |n: i64| Value::Int(Type::Index, n);
    vec![
        Subject {
            name: "mcf",
            module: workloads::mcf_ir::build_mcf_ir(),
            entry: "master",
            args: vec![idx(64), idx(8), idx(16), idx(3)],
        },
        Subject {
            name: "deepsjeng",
            module: workloads::deepsjeng_ir::build_deepsjeng_ir(),
            entry: "search",
            args: vec![idx(3000)],
        },
        Subject {
            name: "LLVM opt",
            module: workloads::optlike_ir::build_optlike_ir(),
            entry: "gvn",
            args: vec![idx(5000)],
        },
        Subject {
            name: "listing1",
            module: workloads::listing1::build_listing1(),
            entry: "work",
            args: vec![],
        },
        Subject {
            name: "smallbank",
            module: workloads::smallbank_ir::build_smallbank_ir(),
            entry: "bank",
            args: vec![idx(4000)],
        },
        Subject {
            name: "docstore",
            module: workloads::docstore::build_docstore_ir(),
            entry: "docstore",
            args: vec![idx(4000)],
        },
    ]
}

/// The default O3 spec with every standalone `fusion` pass removed —
/// the with-vs-without axis of the sweep.
fn spec_without_fusion() -> PipelineSpec {
    let full = default_spec(o3_all()).to_string();
    let stripped: Vec<&str> = full.split(',').filter(|p| *p != "fusion").collect();
    PipelineSpec::parse(&stripped.join(",")).expect("stripped spec parses")
}

struct ConfigResult {
    config: &'static str,
    output: String,
    cost: f64,
}

/// Compiles a clone of the subject under `spec` and runs it under the
/// interp cost model, optionally charging adaptive-representation costs.
fn run_config(
    s: &Subject,
    config: &'static str,
    spec: &PipelineSpec,
    adaptive: bool,
) -> ConfigResult {
    let mut m = s.module.clone();
    compile_spec_with(&mut m, spec, |pm| pm).expect("pipeline runs clean");
    let mut interp = Interp::new(&m).with_fuel(2_000_000_000);
    if adaptive {
        interp = interp.with_repr_choices(memoir_analysis::choose_reprs(&m));
    }
    let out = interp
        .run_by_name(s.entry, s.args.clone())
        .expect("workload runs clean");
    let ExecStats { cost, .. } = interp.stats;
    ConfigResult {
        config,
        output: format!("{out:?}"),
        cost,
    }
}

fn sweep(s: &Subject) -> Vec<ConfigResult> {
    let without = spec_without_fusion();
    let with = default_spec(o3_all());
    vec![
        run_config(s, "baseline", &without, false),
        run_config(s, "fusion", &with, false),
        run_config(s, "adaptive", &without, true),
        run_config(s, "fusion+adaptive", &with, true),
    ]
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs the sweep, writes the JSON document to `out` and the table to
/// stderr, then (with `check`) asserts the CI invariants.
pub fn run(check: bool, out: &mut dyn Write) -> io::Result<()> {
    let subjects = subjects();
    let results: Vec<(&'static str, Vec<ConfigResult>)> =
        subjects.iter().map(|s| (s.name, sweep(s))).collect();

    let subject_json: Vec<String> = results
        .iter()
        .map(|(name, configs)| {
            let base = configs[0].cost;
            let cfg_json: Vec<String> = configs
                .iter()
                .map(|c| {
                    format!(
                        "      {{\"config\": \"{}\", \"cost\": {:.1}, \"reduction\": {:.6}}}",
                        c.config,
                        c.cost,
                        if base > 0.0 { 1.0 - c.cost / base } else { 0.0 },
                    )
                })
                .collect();
            let identical = configs.iter().all(|c| c.output == configs[0].output);
            format!(
                "    {{\"name\": \"{}\", \"output\": \"{}\", \"outputs_identical\": {}, \"configs\": [\n{}\n    ]}}",
                json_escape(name),
                json_escape(&configs[0].output),
                identical,
                cfg_json.join(",\n"),
            )
        })
        .collect();
    let written = write!(
        out,
        "{{\n  \"bench\": \"workloads\",\n  \"configs\": [\"baseline\", \"fusion\", \"adaptive\", \"fusion+adaptive\"],\n  \"subjects\": [\n{}\n  ]\n}}\n",
        subject_json.join(",\n")
    );

    for (name, configs) in &results {
        let base = configs[0].cost;
        for c in configs {
            eprintln!(
                "{name:>12}  {:>16}  {:>14.0} cycles  {:+6.1}%",
                c.config,
                c.cost,
                if base > 0.0 {
                    (c.cost / base - 1.0) * 100.0
                } else {
                    0.0
                },
            );
        }
    }

    if check {
        let mut best = 0.0f64;
        for (name, configs) in &results {
            let base = &configs[0];
            for c in &configs[1..] {
                assert_eq!(
                    c.output, base.output,
                    "{name}: {} output diverged from baseline",
                    c.config
                );
                assert!(
                    c.cost <= base.cost,
                    "{name}: {} cost {} exceeds baseline {}",
                    c.config,
                    c.cost,
                    base.cost
                );
            }
            let all = configs.last().unwrap();
            best = best.max(1.0 - all.cost / base.cost);
        }
        assert!(
            best >= 0.10,
            "fusion+adaptive must cut >= 10% of cycles on at least one subject, best {:.1}%",
            best * 100.0
        );
        eprintln!(
            "check OK: outputs identical, costs monotone, best fusion+adaptive reduction {:.1}%",
            best * 100.0
        );
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
