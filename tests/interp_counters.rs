//! Pinned `memoir-interp` counters for the five IR kernels: making the
//! interpreter faster must never change what it counts. Each kernel runs
//! twice at its default arguments, the two ways the wall-clock benchmark
//! runs `Interp`:
//!
//! * the unoptimized module, as the `kernels` set-up computes each
//!   expected result;
//! * the O3 module priced with `choose_reprs`' representation choices,
//!   as the calibration's modeled run.
//!
//! The result and the `ExecStats` counters (cost model total included)
//! must equal the recorded values. A third run checks SSA construction
//! and destruction against the source: the O0 module must execute
//! exactly as the MUT module does.

use memoir::analysis::choose_reprs;
use memoir::interp::{ExecStats, Interp, Value};
use memoir::ir::{Module, Type};
use memoir::opt::pipeline::{compile_spec_with, default_spec, OptConfig, OptLevel};
use memoir::workloads::{deepsjeng_ir, docstore, mcf_ir, optlike_ir, smallbank_ir};

/// What one run is pinned to: the result, then `insts`, `field_ops`,
/// `assoc_ops`, `seq_reads`, `seq_writes`, `collection_copies` and
/// `bytes_allocated`, then `cost`.
type Pin = (i64, [u64; 7], f64);

/// One kernel: its module, entry function, default arguments, and the
/// pins of its unoptimized and its priced O3 run.
struct Kernel {
    name: &'static str,
    build: fn() -> Module,
    entry: &'static str,
    args: &'static [i64],
    unoptimized: Pin,
    priced: Pin,
}

const KERNELS: [Kernel; 5] = [
    Kernel {
        name: "mcf",
        build: mcf_ir::build_mcf_ir,
        entry: "master",
        args: &[64, 8, 16, 3],
        unoptimized: (1519, [5395, 0, 0, 262, 127, 0, 32], 6476.0),
        priced: (1519, [4937, 0, 0, 193, 127, 0, 32], 5652.0),
    },
    Kernel {
        name: "deepsjeng",
        build: deepsjeng_ir::build_deepsjeng_ir,
        entry: "search",
        args: &[3000],
        unoptimized: (-3000, [112467, 12892, 6892, 0, 3000, 0, 144080], 254632.0),
        priced: (-3000, [100467, 6892, 6892, 0, 0, 0, 96048], 233620.0),
    },
    Kernel {
        name: "optlike",
        build: optlike_ir::build_optlike_ir,
        entry: "gvn",
        args: &[5000],
        unoptimized: (3982, [112044, 0, 10000, 0, 1018, 0, 80], 187163.0),
        priced: (3982, [106026, 0, 0, 5000, 1018, 0, 48], 112061.0),
    },
    Kernel {
        name: "smallbank",
        build: smallbank_ir::build_smallbank_ir,
        entry: "bank",
        args: &[4000],
        unoptimized: (5988, [133232, 0, 26048, 0, 0, 0, 96], 371789.0),
        priced: (5988, [125231, 0, 0, 12000, 14048, 0, 96], 151308.0),
    },
    Kernel {
        name: "docstore",
        build: docstore::build_docstore_ir,
        entry: "docstore",
        args: &[4000],
        unoptimized: (
            6723930,
            [221938, 49982, 18506, 4000, 6964, 0, 106800],
            464023.0,
        ),
        priced: (
            6723930,
            [205936, 49982, 0, 17024, 12446, 0, 106800],
            315057.0,
        ),
    },
];

/// Runs `k`'s entry on `interp` and returns what a [`Pin`] records.
fn pin(k: &Kernel, mut interp: Interp) -> Pin {
    let args = k.args.iter().map(|&a| Value::Int(Type::Index, a)).collect();
    let out = interp.run_by_name(k.entry, args).unwrap();
    let [Value::Int(_, result)] = out[..] else {
        panic!("{}: non-scalar result {out:?}", k.name);
    };
    let ExecStats {
        insts,
        field_ops,
        assoc_ops,
        seq_reads,
        seq_writes,
        collection_copies,
        bytes_allocated,
        cost,
        ..
    } = interp.stats;
    let counts = [
        insts,
        field_ops,
        assoc_ops,
        seq_reads,
        seq_writes,
        collection_copies,
        bytes_allocated,
    ];
    (result, counts, cost)
}

fn check(k: &Kernel) {
    let m = (k.build)();
    assert_eq!(
        pin(k, Interp::new(&m)),
        k.unoptimized,
        "{}: unoptimized",
        k.name
    );

    let mut o3 = (k.build)();
    let spec = default_spec(OptLevel::O3(OptConfig::all()));
    compile_spec_with(&mut o3, &spec, |pm| pm.with_threads(1)).unwrap();
    let priced = Interp::new(&o3).with_repr_choices(choose_reprs(&o3));
    assert_eq!(pin(k, priced), k.priced, "{}: priced O3", k.name);
}

#[test]
fn mcf_interp_counters_are_pinned() {
    check(&KERNELS[0]);
}

#[test]
fn deepsjeng_interp_counters_are_pinned() {
    check(&KERNELS[1]);
}

#[test]
fn optlike_interp_counters_are_pinned() {
    check(&KERNELS[2]);
}

#[test]
fn smallbank_interp_counters_are_pinned() {
    check(&KERNELS[3]);
}

#[test]
fn docstore_interp_counters_are_pinned() {
    check(&KERNELS[4]);
}

/// The O0 round trip (SSA construction, then destruction) runs as the
/// MUT source does, counter for counter: no copy, no φ over a storage
/// handle and no store of an unchanged collection field left to execute.
#[test]
fn o0_round_trip_executes_as_the_mut_source() {
    for k in &KERNELS {
        let stats = |m: &Module| {
            let mut interp = Interp::new(m);
            let args = k.args.iter().map(|&a| Value::Int(Type::Index, a)).collect();
            interp.run_by_name(k.entry, args).unwrap();
            interp.stats
        };
        let mut o0 = (k.build)();
        compile_spec_with(&mut o0, &default_spec(OptLevel::O0), |pm| {
            pm.with_threads(1)
        })
        .unwrap();
        assert_eq!(stats(&o0), stats(&(k.build)()), "{}: O0", k.name);
    }
}
