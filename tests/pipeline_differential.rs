//! Differential property test: random MUT-form sequence and assoc
//! programs from `reduce`'s genprog are compiled at O0 and O3(ALL),
//! lowered to the low-level IR, and all four executions (plus genprog's
//! plain Rust oracle) must agree — and SSA construction + destruction
//! must introduce zero copies on these straight-line programs (Table
//! III's claim).

use memoir::interp::Interp;
use memoir::ir::Module;
use memoir::opt::{compile, OptConfig, OptLevel};
use memoir::reduce::genprog::{build, random_ops, Op};
use memoir::reduce::rng::SplitMix64;
use proptest::prelude::*;

fn run_module(m: &Module) -> i64 {
    let mut vm = Interp::new(m).with_fuel(50_000_000);
    vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap()
}

/// The four checks: the mut form, O0 (with zero destruct copies), O3 and
/// the lowered O3 module all compute the oracle's result.
fn pipelines_agree(ops: &[Op]) -> TestCaseResult {
    let (m0, expect) = build(ops);
    memoir::ir::verifier::assert_valid(&m0);
    prop_assert_eq!(run_module(&m0), expect, "mut form");

    // O0: construct + destruct, zero copies.
    let mut o0 = m0.clone();
    let r0 = compile(&mut o0, OptLevel::O0).unwrap();
    memoir::ir::verifier::assert_valid(&o0);
    prop_assert_eq!(r0.destruct_copies, 0, "no spurious copies");
    prop_assert_eq!(run_module(&o0), expect, "O0");

    // O3 with everything.
    let mut o3 = m0.clone();
    compile(&mut o3, OptLevel::O3(OptConfig::all())).unwrap();
    memoir::ir::verifier::assert_valid(&o3);
    prop_assert_eq!(run_module(&o3), expect, "O3");

    // Lowered to the low-level IR.
    let lowered = memoir::lower::lower_module(&o3)
        .unwrap_or_else(|e| panic!("lowering the O3 module failed: {e}"));
    let mut vm = memoir::lir::LirMachine::new(&lowered);
    let got = vm.run_by_name("main", vec![]).unwrap()[0];
    prop_assert_eq!(got, expect, "lowered");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn all_pipelines_agree(seed in any::<u64>()) {
        // Up to 40 ops, without the object dimension.
        let ops = random_ops(&mut SplitMix64::new(seed), 40, false);
        pipelines_agree(&ops)?;
    }
}

#[test]
fn regression_empty_program() {
    let (m, expect) = build(&[]);
    assert_eq!(run_module(&m), expect);
    assert_eq!(expect, 0);
}

#[test]
fn regression_interleaved_ops() {
    let ops = [
        Op::Push(5),
        Op::Push(-3),
        Op::InsertAt(1, 7),
        Op::SwapElems(0, 2),
        Op::Write(1, 9),
        Op::Push(2),
        Op::RemoveRange(1, 3),
        Op::Remove(0),
    ];
    pipelines_agree(&ops).unwrap();
}

/// A shrunk case the property test once recorded: an empty range
/// removal between pushes, then a write and an insert at the front.
#[test]
fn regression_empty_range_removal() {
    let ops = [
        Op::Push(0),
        Op::RemoveRange(0, 0),
        Op::Push(0),
        Op::Push(0),
        Op::Write(0, 0),
        Op::InsertAt(0, 0),
    ];
    pipelines_agree(&ops).unwrap();
}

/// A shrunk case the property test once recorded: front inserts, a range
/// removal with out-of-range bounds, then a wrapped write and insert.
#[test]
fn regression_wrapped_indices_after_range_removal() {
    let ops = [
        Op::Push(0),
        Op::InsertAt(0, 0),
        Op::InsertAt(0, 0),
        Op::Push(0),
        Op::RemoveRange(113, 30),
        Op::Push(0),
        Op::Write(251, 1),
        Op::InsertAt(5, 0),
    ];
    pipelines_agree(&ops).unwrap();
}
