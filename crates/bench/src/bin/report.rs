//! The E12 complexity sweep: the interpreted mcf kernel, baseline vs the
//! automatically DEE-specialized build, across basket sizes — the
//! `O(n log n) → O(n + B log B)` effect of §VII-C. The other artefacts
//! each have their own binary (fig1, table2, table3, fig6–fig12).

use memoir_interp::{Interp, Value};
use memoir_ir::Type;

fn main() {
    println!(
        "{}",
        bench::header("E12 — automatic DEE on the mcf IR kernel (interp cost)")
    );
    let baseline = workloads::mcf_ir::build_mcf_ir();
    let mut dee = workloads::mcf_ir::build_mcf_ir();
    memoir_opt::construct_ssa(&mut dee).unwrap();
    let stats = memoir_opt::dee_specialize_calls(&mut dee);
    memoir_opt::destruct_ssa(&mut dee);
    println!("transform: {stats:?}");
    println!(
        "{:>8} {:>4} {:>14} {:>14} {:>9}",
        "n0+K", "B", "baseline cost", "DEE cost", "speedup"
    );
    for (n0, k) in [(1000i64, 500i64), (2000, 1000), (4000, 2000), (8000, 4000)] {
        let run = |m: &memoir_ir::Module| {
            let mut i = Interp::new(m).with_fuel(4_000_000_000);
            let args = vec![
                Value::Int(Type::Index, n0),
                Value::Int(Type::Index, 16),
                Value::Int(Type::Index, k),
                Value::Int(Type::Index, 3),
            ];
            let out = i.run_by_name("master", args).unwrap();
            (out[0].as_int().unwrap(), i.stats.cost)
        };
        let (ob, cb) = run(&baseline);
        let (od, cd) = run(&dee);
        assert_eq!(ob, od, "exact-mode objectives match");
        println!(
            "{:>8} {:>4} {:>14.0} {:>14.0} {:>8.1}%",
            n0 + k,
            16,
            cb,
            cd,
            (1.0 - cd / cb) * 100.0
        );
    }
    println!("\n(the speedup grows with n while B stays fixed: O(n log n) → O(n + B log B))");
}
