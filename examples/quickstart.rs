//! Quickstart: build a MUT-form program, compile it through the MEMOIR
//! pipeline, inspect the SSA form, and run both forms.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use memoir::interp::{Interp, Value};
use memoir::ir::{printer, Form, ModuleBuilder, Type};
use memoir::opt::{compile, construct_ssa, OptConfig, OptLevel};

fn main() {
    // A small program in MUT form: fill a sequence with squares, sum a
    // prefix.
    let mut mb = ModuleBuilder::new("quickstart");
    mb.func("main", Form::Mut, |b| {
        let i64t = b.ty(Type::I64);
        let n = b.index(8);
        let s = b.new_seq(i64t, n);
        b.name(s, "S");
        for k in 0..8 {
            let ik = b.index(k);
            let vk = b.i64((k * k) as i64);
            b.mut_write(s, ik, vk);
        }
        let i0 = b.index(0);
        let i2 = b.index(2);
        let i5 = b.index(5);
        let a = b.read(s, i0);
        let c = b.read(s, i2);
        let d = b.read(s, i5);
        let ac = b.add(a, c);
        let sum = b.add(ac, d);
        b.returns(&[i64t]);
        b.ret(vec![sum]);
    });
    let module = mb.finish();

    println!("––– MUT form –––");
    println!("{}", printer::print_module(&module));

    // Show the SSA form the compiler works on.
    let mut ssa = module.clone();
    construct_ssa(&mut ssa).unwrap();
    println!("––– MEMOIR SSA form –––");
    println!("{}", printer::print_module(&ssa));

    // Full pipeline: construct → optimize → destruct.
    let mut optimized = module.clone();
    let report = compile(&mut optimized, OptLevel::O3(OptConfig::all())).unwrap();
    println!("––– pipeline –––");
    for (pass, t) in &report.pass_times {
        println!("{pass:>16}: {:?}", t);
    }
    println!(
        "spurious copies from destruction: {}",
        report.destruct_copies
    );

    // Run the original and the optimized program: same answer.
    let run = |m: &memoir::ir::Module| {
        let mut vm = Interp::new(m);
        let out = vm.run_by_name("main", vec![]).unwrap();
        (out[0], vm.stats.insts)
    };
    let (r0, i0) = run(&module);
    let (r1, i1) = run(&optimized);
    println!("\noriginal : {r0:?} in {i0} interpreted instructions");
    println!("optimized: {r1:?} in {i1} interpreted instructions");
    assert_eq!(r0, r1);
    assert_eq!(r0, Value::Int(Type::I64, 4 + 25)); // 0² + 2² + 5²
}
