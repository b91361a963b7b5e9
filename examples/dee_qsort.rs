//! Dead Element Elimination on the mcf kernel (paper Listings 2–4):
//! automatic live-range-driven specialization of a recursive quicksort.
//!
//! ```sh
//! cargo run --release --example dee_qsort
//! ```

use memoir::interp::{Interp, Value};
use memoir::ir::{printer, Type};
use memoir::opt::{construct_ssa, dee_specialize_calls, destruct_ssa};

fn main() {
    let baseline = memoir::workloads::mcf_ir::build_mcf_ir();

    // Construct SSA and let DEE discover that master only observes
    // [0 : B) of the sorted basket.
    let mut optimized = memoir::workloads::mcf_ir::build_mcf_ir();
    construct_ssa(&mut optimized).unwrap();
    let stats = dee_specialize_calls(&mut optimized);
    println!("DEE: {stats:?}");
    assert!(stats.functions_specialized >= 1);
    assert!(stats.recursive_calls_pruned >= 1);

    // Show the specialized kernel (the Listing 4 analogue: entry guard
    // and recursion pruning, no element guards).
    let spec = optimized.func_by_name("qsort__dee").unwrap();
    println!("––– specialized qsort (SSA) –––");
    println!(
        "{}",
        printer::print_function(&optimized.funcs[spec], &optimized.types, &optimized)
    );
    destruct_ssa(&mut optimized);
    memoir::ir::verifier::assert_valid(&optimized);

    // Sweep basket sizes: the window B stays fixed, so the baseline sorts
    // ever more dead elements while the specialized kernel's work stays
    // near-linear.
    println!(
        "{:>8} {:>4} {:>13} {:>13} {:>9}",
        "n", "B", "base cost", "DEE cost", "speedup"
    );
    for scale in [1i64, 2, 4, 8] {
        let (n0, k, b, rounds) = (800 * scale, 400 * scale, 16, 3);
        let run = |m: &memoir::ir::Module| {
            let mut vm = Interp::new(m).with_fuel(4_000_000_000);
            let out = vm
                .run_by_name(
                    "master",
                    vec![
                        Value::Int(Type::Index, n0),
                        Value::Int(Type::Index, b),
                        Value::Int(Type::Index, k),
                        Value::Int(Type::Index, rounds),
                    ],
                )
                .unwrap();
            (out[0].as_int().unwrap(), vm.stats.cost)
        };
        let (ob, cb) = run(&baseline);
        let (od, cd) = run(&optimized);
        assert_eq!(ob, od, "exact mode preserves the objective");
        println!(
            "{:>8} {:>4} {:>13.0} {:>13.0} {:>8.1}%",
            n0 + k,
            b,
            cb,
            cd,
            (1.0 - cd / cb) * 100.0
        );
    }
}
