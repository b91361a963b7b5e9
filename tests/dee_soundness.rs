//! Dead element elimination must not change what a program computes.
//!
//! mcf's `master(n0, 8, 16, 3)` is swept over n0 ∈ [40, 130] on
//! memoir-interp, compiled three ways: the registered `dee` pass alone
//! (`ssa-construct,dee,ssa-destruct`), O3 through the pass manager, and
//! the legacy fixed O3 sequence. Each must return what the unoptimized
//! module returns. Listing 4's guarded half-swaps failed this at 21 of
//! the 91 values (`findings/README.md`); the default specialization is
//! the exact, pruning-only one.

use memoir::interp::{Interp, Value};
use memoir::ir::{Module, Type};
use memoir::opt::pipeline::{compile, compile_fixed_reference, compile_spec, OptConfig, OptLevel};
use memoir::passman::PipelineSpec;
use memoir::workloads::mcf_ir::build_mcf_ir;

fn master(m: &Module, n0: i64) -> i64 {
    let args = [n0, 8, 16, 3].map(|v| Value::Int(Type::Index, v));
    let out = Interp::new(m)
        .with_fuel(100_000_000)
        .run_by_name("master", args.to_vec())
        .unwrap_or_else(|e| panic!("master({n0}, 8, 16, 3) trapped: {e:?}"));
    out[0].as_int().unwrap()
}

#[test]
fn dee_preserves_mcf_over_the_basket_sweep() {
    let reference = build_mcf_ir();
    let mut dee = build_mcf_ir();
    compile_spec(
        &mut dee,
        &PipelineSpec::parse("ssa-construct,dee,ssa-destruct").unwrap(),
    )
    .unwrap();
    let mut o3 = build_mcf_ir();
    compile(&mut o3, OptLevel::O3(OptConfig::all())).unwrap();
    let mut fixed_o3 = build_mcf_ir();
    compile_fixed_reference(&mut fixed_o3, OptLevel::O3(OptConfig::all())).unwrap();

    let mut wrong = Vec::new();
    for n0 in 40..=130 {
        let expected = master(&reference, n0);
        for (name, m) in [("dee", &dee), ("O3", &o3), ("fixed O3", &fixed_o3)] {
            let got = master(m, n0);
            if got != expected {
                wrong.push(format!("{name} n0={n0}: {expected} -> {got}"));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} mismatches:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
