//! The analysis manager re-fingerprints the whole module after a batch
//! of mutations, so the number of refreshes in a compile must not grow
//! with the number of functions: a pass that refreshed once per function
//! it changed would make O3 quadratic in module size.

use memoir::opt::{compile_spec_with, default_spec, OptConfig, OptLevel};
use memoir::workloads::synth_ir::build_synth_ir;

/// `(fingerprint refreshes, passes run)` for one serial O3 compile of an
/// `n`-function synthetic module.
fn o3_refreshes(n: usize) -> (u64, usize) {
    let mut m = build_synth_ir(n, 3);
    let spec = default_spec(OptLevel::O3(OptConfig::all()));
    let report = compile_spec_with(&mut m, &spec, |pm| pm.with_threads(1)).expect("O3 compiles");
    (report.run.fingerprints.refreshes, report.run.passes.len())
}

#[test]
fn o3_refresh_count_does_not_grow_with_module_size() {
    let runs: Vec<(usize, u64, usize)> = [8, 32, 120]
        .into_iter()
        .map(|n| {
            let (refreshes, passes) = o3_refreshes(n);
            (n, refreshes, passes)
        })
        .collect();
    assert!(
        runs.iter()
            .all(|&(_, refreshes, passes)| refreshes == runs[0].1 && refreshes <= passes as u64),
        "(functions, refreshes, passes run): {runs:?}"
    );
}
