//! Ablation benches for the design choices DESIGN.md §6 calls out:
//!
//! * DEE specialization mode — faithful Listing-4 guards vs pruning-only
//!   (exact) — measuring both the transform cost and the resulting
//!   interpreted execution cost;
//! * live range analysis configuration — sound vs escape vs
//!   paper-methodology — measuring analysis time on the mcf kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use memoir_analysis::LiveRangeConfig;
use memoir_interp::{Interp, Value};
use memoir_ir::Type;
use memoir_opt::DeeOptions;

/// The two specialization modes: Listing 4's guarded writes (unsound
/// under recursion, see `DeeOptions`) and the exact default.
const MODES: [(&str, DeeOptions); 2] = [
    (
        "listing4",
        DeeOptions {
            guard_element_writes: true,
        },
    ),
    (
        "exact",
        DeeOptions {
            guard_element_writes: false,
        },
    ),
];

fn dee_mode_ablation(c: &mut Criterion) {
    // Transform cost per mode.
    for (name, opts) in MODES {
        c.bench_function(format!("ablation/dee_transform/{name}"), |b| {
            b.iter(|| {
                let mut m = workloads::mcf_ir::build_mcf_ir();
                memoir_opt::construct_ssa(&mut m).unwrap();
                memoir_opt::dee_specialize_calls_with(&mut m, opts);
                memoir_opt::destruct_ssa(&mut m);
                m
            })
        });
    }

    // Execution cost per mode (smaller basket for bench time).
    let args = || {
        vec![
            Value::Int(Type::Index, 600),
            Value::Int(Type::Index, 16),
            Value::Int(Type::Index, 300),
            Value::Int(Type::Index, 2),
        ]
    };
    for (name, opts) in MODES {
        let mut m = workloads::mcf_ir::build_mcf_ir();
        memoir_opt::construct_ssa(&mut m).unwrap();
        memoir_opt::dee_specialize_calls_with(&mut m, opts);
        memoir_opt::destruct_ssa(&mut m);
        c.bench_function(format!("ablation/dee_exec/{name}"), |b| {
            b.iter(|| {
                let mut vm = Interp::new(&m).with_fuel(4_000_000_000);
                vm.run_by_name("master", args()).unwrap()
            })
        });
    }
}

fn liverange_config_ablation(c: &mut Criterion) {
    let mut m = workloads::mcf_ir::build_mcf_ir();
    memoir_opt::construct_ssa(&mut m).unwrap();
    let master = m.func_by_name("master").unwrap();
    for (name, cfg) in [
        ("sound", LiveRangeConfig::sound()),
        ("escape", LiveRangeConfig::escape()),
        ("paper", LiveRangeConfig::paper()),
    ] {
        c.bench_function(format!("ablation/liverange/{name}"), |b| {
            b.iter(|| memoir_analysis::live_ranges(&m, master, &cfg))
        });
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group!(name = benches; config = config(); targets = dee_mode_ablation, liverange_config_ablation);
criterion_main!(benches);
