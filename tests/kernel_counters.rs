//! Pinned counters for the five IR kernels: making the executors faster
//! must never change what they count. Each kernel is compiled at its
//! default arguments through O3 → `lower<adaptive>` → the default lir
//! pipeline, the way the wall-clock benchmark's `kernels` workload does,
//! then run on `LirMachine`. The result, the machine's counters, the
//! lowering's prove-then-probe verdicts and the symbolic path counts
//! must equal the recorded values.

use memoir::ir::Module;
use memoir::lir::{LirMachine, LirStats};
use memoir::lower::{cross_validate, lower_module_opts, LowerOptions, DEFAULT_PROBES};
use memoir::opt::lowering::split_lowered_spec;
use memoir::opt::pipeline::{compile_spec_with, default_spec, OptConfig, OptLevel};
use memoir::passman::PipelineSpec;
use memoir::symexec::{enumerate_lir, enumerate_memoir, prove_lowering, seed_params};
use memoir::symexec::{Budget, FnVerdict};
use memoir::workloads::{deepsjeng_ir, docstore, mcf_ir, optlike_ir, smallbank_ir};

/// One kernel: its module, entry function, default arguments, and the
/// counts recorded for it.
struct Kernel {
    name: &'static str,
    build: fn() -> Module,
    entry: &'static str,
    args: &'static [i64],
    expected: Expected,
}

/// What a kernel is pinned to.
struct Expected {
    result: i64,
    /// `LirStats`: instructions, loads, stores, runtime calls.
    stats: [u64; 4],
    /// `cross_validate`'s functions proved, probed and skipped.
    verdicts: [usize; 3],
    /// MEMOIR and lir paths of the entry function, when it is proved.
    paths: Option<(usize, usize)>,
}

const KERNELS: [Kernel; 5] = [
    Kernel {
        name: "mcf",
        build: mcf_ir::build_mcf_ir,
        entry: "master",
        args: &[64, 8, 16, 3],
        expected: Expected {
            result: 1519,
            stats: [7592, 2312, 493, 204],
            verdicts: [0, 1, 0],
            paths: None,
        },
    },
    Kernel {
        name: "deepsjeng",
        build: deepsjeng_ir::build_deepsjeng_ir,
        entry: "search",
        args: &[3000],
        expected: Expected {
            result: -3000,
            stats: [161362, 892, 6000, 9893],
            verdicts: [1, 0, 0],
            paths: Some((17, 17)),
        },
    },
    Kernel {
        name: "optlike",
        build: optlike_ir::build_optlike_ir,
        entry: "gvn",
        args: &[5000],
        expected: Expected {
            result: 3982,
            stats: [136030, 13054, 3056, 6019],
            verdicts: [1, 0, 0],
            paths: Some((17, 17)),
        },
    },
    Kernel {
        name: "smallbank",
        build: smallbank_ir::build_smallbank_ir,
        entry: "bank",
        args: &[4000],
        expected: Expected {
            result: 5988,
            stats: [157330, 58146, 18148, 22051],
            verdicts: [1, 0, 0],
            paths: Some((17, 17)),
        },
    },
    Kernel {
        name: "docstore",
        build: docstore::build_docstore_ir,
        entry: "docstore",
        args: &[4000],
        expected: Expected {
            result: 6723930,
            stats: [313366, 87052, 33167, 16733],
            verdicts: [1, 0, 0],
            paths: Some((17, 17)),
        },
    },
];

/// Compiles and runs `k`, checking every count against its record.
fn check(k: &Kernel) {
    let o3 = default_spec(OptLevel::O3(OptConfig::all()));
    let spec = format!(
        "{o3},lower<adaptive>,{}",
        memoir::lir::passes::default_spec()
    );
    let lp = split_lowered_spec(&PipelineSpec::parse(&spec).unwrap())
        .unwrap()
        .unwrap();
    let mut m = (k.build)();
    compile_spec_with(&mut m, &lp.memoir, |pm| pm.with_threads(1)).unwrap();
    let opts = LowerOptions {
        threads: 1,
        cache: None,
        adaptive: true,
    };
    let lowered = lower_module_opts(&m, &opts).unwrap().module;
    let want = &k.expected;

    let report = cross_validate(&m, &lowered, DEFAULT_PROBES).unwrap();
    let verdicts = [
        report.functions_proved,
        report.functions_probed,
        report.functions_skipped,
    ];
    assert_eq!(verdicts, want.verdicts, "{}: proved/probed/skipped", k.name);

    let budget = Budget::default();
    let verdict = prove_lowering(&m, &lowered, k.entry, &budget);
    match want.paths {
        Some((source, target)) => {
            assert_eq!(verdict, FnVerdict::Proved, "{}", k.name);
            let fid = m.func_by_name(k.entry).unwrap();
            let mut pool = seed_params(&m, fid).unwrap();
            let paths = enumerate_memoir(&m, fid, &mut pool, &budget).unwrap();
            assert_eq!(paths.len(), source, "{}: MEMOIR paths", k.name);
            let lfun = lowered.by_name(k.entry).unwrap();
            let paths = enumerate_lir(&lowered, lfun, &mut pool, &budget).unwrap();
            assert_eq!(paths.len(), target, "{}: lir paths", k.name);
        }
        None => assert_eq!(
            verdict,
            FnVerdict::Inconclusive("path/op budget exceeded"),
            "{}",
            k.name
        ),
    }

    let mut lm = lowered;
    memoir::lir::passes::optimize(&mut lm, &lp.lir).unwrap();
    let mut vm = LirMachine::new(&lm).with_fuel(2_000_000_000);
    let result = vm.run_by_name(k.entry, k.args.to_vec());
    assert_eq!(result, Ok(vec![want.result]), "{}: result", k.name);
    let LirStats {
        insts,
        loads,
        stores,
        rt_calls,
    } = vm.stats;
    assert_eq!(
        [insts, loads, stores, rt_calls],
        want.stats,
        "{}: instructions, loads, stores, runtime calls",
        k.name
    );
}

#[test]
fn mcf_counters_are_pinned() {
    check(&KERNELS[0]);
}

#[test]
fn deepsjeng_counters_are_pinned() {
    check(&KERNELS[1]);
}

#[test]
fn optlike_counters_are_pinned() {
    check(&KERNELS[2]);
}

#[test]
fn smallbank_counters_are_pinned() {
    check(&KERNELS[3]);
}

#[test]
fn docstore_counters_are_pinned() {
    check(&KERNELS[4]);
}
