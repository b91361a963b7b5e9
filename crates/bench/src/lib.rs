//! # bench
//!
//! The evaluation harness: one binary per table/figure of the paper
//! (DESIGN.md §4). Each binary regenerates its artefact's rows from the
//! workloads and prints a plain-text table. `report` runs the E12 sweep
//! (automatic DEE on the mcf IR kernel), and `workloads` the four-way
//! workload cost sweep behind `BENCH_workloads.json`.
//!
//! | paper artefact | binary |
//! |---|---|
//! | Fig. 1 (heap classification) | `fig1` |
//! | Table II (developer effort) | `table3` |
//! | Table III (compile time / collections) | `table2` |
//! | Fig. 6 (exec time, ported) | `fig6` |
//! | Fig. 7 (max RSS, ported) | `fig7` |
//! | Fig. 8 (mcf time breakdown) | `fig8` |
//! | Fig. 9 (mcf RSS breakdown) | `fig9` |
//! | Fig. 10 (GVN memory VNs) | `fig10` |
//! | Fig. 11 (Sink breakdown) | `fig11` |
//! | Fig. 12 (ConstantFold breakdown) | `fig12` |

#![warn(missing_docs)]

use memoir_opt::{OptConfig, OptLevel};
use workloads::mcf::{McfOutcome, McfParams, McfVariant};

pub mod report;

/// Renders a labelled percentage row.
pub fn pct(label: &str, value: f64) -> String {
    format!("{label:>24}  {:+7.1}%", value * 100.0)
}

/// Renders a header line.
pub fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// The mcf variant axis used by Figs. 8/9, in the paper's bar order.
pub fn mcf_variants() -> Vec<(&'static str, McfVariant)> {
    vec![
        ("LLVM9 (baseline)", McfVariant::default()),
        (
            "DEE",
            McfVariant {
                dee: true,
                ..Default::default()
            },
        ),
        (
            "FE",
            McfVariant {
                fe: true,
                ..Default::default()
            },
        ),
        (
            "FE+RIE",
            McfVariant {
                fe: true,
                rie: true,
                ..Default::default()
            },
        ),
        (
            "FE+DFE",
            McfVariant {
                fe: true,
                dfe: true,
                ..Default::default()
            },
        ),
        (
            "RIE",
            McfVariant {
                rie: true,
                ..Default::default()
            },
        ),
        (
            "DFE",
            McfVariant {
                dfe: true,
                ..Default::default()
            },
        ),
        ("ALL", McfVariant::all()),
    ]
}

/// Runs the full mcf variant sweep once.
pub fn mcf_sweep() -> Vec<(&'static str, McfOutcome)> {
    let p = McfParams::default();
    mcf_variants()
        .into_iter()
        .map(|(name, v)| (name, workloads::mcf::run_mcf(&p, v)))
        .collect()
}

/// Builds the three Table III compilation subjects.
pub fn compilation_subjects() -> Vec<(&'static str, memoir_ir::Module)> {
    vec![
        ("mcf", workloads::mcf_ir::build_mcf_ir()),
        ("deepsjeng", workloads::deepsjeng_ir::build_deepsjeng_ir()),
        ("LLVM opt", workloads::optlike_ir::build_optlike_ir()),
    ]
}

/// Compiles a clone of the module at a level, returning the report.
pub fn compile_at(m: &memoir_ir::Module, level: OptLevel) -> memoir_opt::PipelineReport {
    let mut m = m.clone();
    memoir_opt::compile(&mut m, level).expect("pipeline")
}

/// The O3 level with every optimization.
pub fn o3_all() -> OptLevel {
    OptLevel::O3(OptConfig::all())
}

/// Lowers the compilation subjects (plus Listing 1) to the low-level IR
/// for the pass-analysis figures.
pub fn lowered_subjects() -> Vec<(&'static str, lir::Module)> {
    let mut out = Vec::new();
    for (name, m) in compilation_subjects() {
        out.push((name, memoir_lower::lower_module(&m).expect("lowerable")));
    }
    out.push((
        "listing1",
        memoir_lower::lower_module(&workloads::listing1::build_listing1()).expect("lowerable"),
    ));
    // A whole-program-sized synthetic subject: the paper's pass analysis
    // ran on full SPEC bitcode, which the kernels above cannot match in
    // op-mix volume (DESIGN.md §2).
    out.push((
        "synthetic",
        memoir_lower::lower_module(&workloads::synth_ir::build_synth_ir(120, 2024))
            .expect("lowerable"),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_cover_paper_bars() {
        let v = mcf_variants();
        assert_eq!(v.len(), 8);
        assert_eq!(v[0].0, "LLVM9 (baseline)");
        assert_eq!(v[7].0, "ALL");
    }

    #[test]
    fn subjects_build_and_lower() {
        let lowered = lowered_subjects();
        assert_eq!(lowered.len(), 5);
        for (name, m) in &lowered {
            assert!(m.inst_count() > 0, "{name} is empty");
        }
    }
}
