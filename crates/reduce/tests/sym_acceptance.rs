//! Acceptance gate for prove-then-probe translation validation
//! (DESIGN §17): on a 500-case corpus of small multi-function genprog
//! programs, the symbolic backend discharges every checkable function
//! *probe-free* at the default path budget — the point of the oracle is
//! proofs, with probing as the fallback, not the other way round.
//!
//! The counts are pinned exactly, so a change to the symbolic engines
//! that turns a proof into a probe (or a skip) fails here.

use reduce::{build_case, random_case, CaseDims, SplitMix64};

#[test]
fn prove_mode_discharges_every_small_function() {
    let mut rng = SplitMix64::new(0x5eed_cafe);
    let dims = CaseDims {
        objects: true,
        multi: true,
    };
    let (mut checked, mut proved, mut skipped) = (0usize, 0usize, 0usize);
    for _ in 0..500 {
        let prog = random_case(&mut rng, 10, dims);
        let (m, _) = build_case(&prog);
        let lm = memoir_lower::lower_module(&m).expect("corpus lowers");
        let report = memoir_lower::cross_validate(&m, &lm, &[1, 2]).expect("healthy corpus");
        checked += report.functions_checked;
        proved += report.functions_proved;
        skipped += report.functions_skipped;
    }
    println!("sym acceptance: {checked} checked, {proved} proved, {skipped} skipped");
    assert_eq!(
        (checked, proved, skipped),
        (823, 823, 0),
        "prove mode verdicts moved: {proved}/{checked} proved probe-free, {skipped} skipped"
    );
}
