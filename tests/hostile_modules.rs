//! The four client modules in `findings/memoird-*.mir` once aborted the
//! `memoird` service (a stack overflow, a failed multi-terabyte
//! allocation, unbounded growth of the symbolic and the concrete heap).
//! Each is pinned here on both domains of the MEMOIR executor, on a
//! thread with a 2 MiB stack: the recursion runs to completion on an
//! explicit frame stack, and every other module runs out of fuel at the
//! storage guard concretely and is refused symbolically.

use memoir::interp::{Interp, Trap, Value};
use memoir::ir::{parser::parse_module, Module, Type};
use memoir::lir::LirMachine;
use memoir::lower::lower_module;
use memoir::symexec::{enumerate_memoir, seed_params, Budget, SymError};

/// Probe-sized fuel: what `memoir-lower`'s validation gives each run.
const FUEL: u64 = 10_000_000;

fn finding(name: &str) -> Module {
    let path = format!("{}/findings/memoird-{name}.mir", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_module(&src).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

/// Runs `f` on a thread with a 2 MiB stack, the default for spawned
/// threads and the size `memoird`'s workers run on.
fn on_small_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

fn run_main(m: &Module) -> Result<Vec<Value>, Trap> {
    Interp::new(m).with_fuel(FUEL).run_by_name("main", vec![])
}

fn enumerate_main(m: &Module) -> Result<usize, SymError> {
    let fid = m.func_by_name("main").unwrap();
    let mut pool = seed_params(m, fid).unwrap();
    enumerate_memoir(m, fid, &mut pool, &Budget::default()).map(|paths| paths.len())
}

#[test]
fn deep_recursion_runs_on_an_explicit_frame_stack() {
    let got = on_small_stack(|| {
        let m = finding("deep-recursion");
        let lm = lower_module(&m).unwrap();
        let lir = LirMachine::new(&lm)
            .with_fuel(FUEL)
            .run_by_name("main", vec![]);
        (run_main(&m), lir)
    });
    assert_eq!(got.0, Ok(vec![Value::Int(Type::I64, 200_000)]));
    assert_eq!(got.1, Ok(vec![200_000]));
}

#[test]
fn hostile_allocations_run_out_of_fuel_and_are_refused_symbolically() {
    for name in ["huge-seq", "self-append", "copy-loop"] {
        let (concrete, symbolic) = on_small_stack(move || {
            let m = finding(name);
            (run_main(&m), enumerate_main(&m))
        });
        assert_eq!(concrete, Err(Trap::OutOfFuel), "{name}");
        assert!(
            matches!(symbolic, Err(SymError::Unsupported(_))),
            "{name}: {symbolic:?}"
        );
    }
}
