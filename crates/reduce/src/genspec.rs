//! Random — but always well-formed — pipeline specs.
//!
//! Generated specs follow the phase discipline the real driver enforces:
//! `ssa-construct` first, a run of SSA-form middle passes (possibly
//! wrapped in a `fixpoint` group), `ssa-destruct`, then MUT-form layout
//! passes. That keeps every generated spec *valid*, so any failure the
//! harness sees is a genuine pipeline bug rather than a phase-ordering
//! usage error.

use crate::rng::SplitMix64;
use passman::{PassCall, PipelineSpec, SpecStep};

/// SSA-form middle-end passes safe to run in any order between
/// construction and destruction.
pub const MIDDLE_POOL: &[&str] = &[
    "constprop",
    "simplify",
    "fusion",
    "dce",
    "sink",
    "dee",
    "dee-strict",
    "dee-specialize",
];

/// MUT-form layout passes safe to run after `ssa-destruct`.
pub const LAYOUT_POOL: &[&str] = &["field-elision", "rie", "key-fold", "dfe"];

/// Low-level IR passes safe to run in any order after `mem2reg`.
pub const LIR_POOL: &[&str] = &["constfold", "gvn", "sink", "dce"];

/// Draws a random well-formed spec: 0–4 middle passes (one group of
/// which may become a `fixpoint<max=3>(...)`), then 0–2 layout passes.
pub fn random_spec(rng: &mut SplitMix64) -> PipelineSpec {
    let mut steps = vec![SpecStep::pass("ssa-construct")];

    let n_middle = rng.index(5);
    let mut middle: Vec<PassCall> = (0..n_middle)
        .map(|_| PassCall::named(MIDDLE_POOL[rng.index(MIDDLE_POOL.len())]))
        .collect();
    // Sometimes wrap a suffix of the middle run in a fixpoint group.
    if middle.len() >= 2 && rng.chance(1, 3) {
        let at = rng.index(middle.len() - 1);
        let body = middle.split_off(at);
        steps.extend(middle.drain(..).map(SpecStep::Pass));
        let mut fix = SpecStep::fixpoint(body.iter().map(|c| c.name.clone()));
        if let SpecStep::Fixpoint { opts, .. } = &mut fix {
            *opts =
                passman::PassOptions::from_pairs(vec![("max".to_string(), Some("3".to_string()))]);
        }
        steps.push(fix);
    } else {
        steps.extend(middle.drain(..).map(SpecStep::Pass));
    }

    steps.push(SpecStep::pass("ssa-destruct"));
    for _ in 0..rng.index(3) {
        steps.push(SpecStep::pass(LAYOUT_POOL[rng.index(LAYOUT_POOL.len())]));
    }
    PipelineSpec::new(steps)
}

/// Draws a random low-level-IR pipeline for the post-lowering phase of a
/// through-lowering fuzz case: usually `mem2reg` first (the lir analogue
/// of SSA construction — every lir pass is also valid without it), then
/// 0–4 scalar passes, one run of which may become a `fixpoint<max=3>`
/// group.
pub fn random_lir_spec(rng: &mut SplitMix64) -> PipelineSpec {
    let mut steps = Vec::new();
    if rng.chance(3, 4) {
        steps.push(SpecStep::pass("mem2reg"));
    }
    let n = rng.index(5);
    let mut run: Vec<PassCall> = (0..n)
        .map(|_| PassCall::named(LIR_POOL[rng.index(LIR_POOL.len())]))
        .collect();
    if run.len() >= 2 && rng.chance(1, 3) {
        let at = rng.index(run.len() - 1);
        let body = run.split_off(at);
        steps.extend(run.drain(..).map(SpecStep::Pass));
        let mut fix = SpecStep::fixpoint(body.iter().map(|c| c.name.clone()));
        if let SpecStep::Fixpoint { opts, .. } = &mut fix {
            *opts =
                passman::PassOptions::from_pairs(vec![("max".to_string(), Some("3".to_string()))]);
        }
        steps.push(fix);
    } else {
        steps.extend(run.drain(..).map(SpecStep::Pass));
    }
    PipelineSpec::new(steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_specs_are_well_formed_and_round_trip() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..50 {
            let spec = random_spec(&mut rng);
            let names = spec.pass_names();
            assert_eq!(names.first(), Some(&"ssa-construct"));
            assert!(names.contains(&"ssa-destruct"));
            let text = spec.to_string();
            assert_eq!(PipelineSpec::parse(&text).unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn pool_names_are_all_registered() {
        let reg = memoir_opt::passes::registry();
        for name in MIDDLE_POOL.iter().chain(LAYOUT_POOL) {
            assert!(reg.create(name).is_some(), "unregistered pass `{name}`");
        }
    }

    #[test]
    fn random_lir_specs_are_well_formed_and_round_trip() {
        let reg = lir::passes::registry();
        for name in std::iter::once(&"mem2reg").chain(LIR_POOL) {
            assert!(reg.create(name).is_some(), "unregistered lir pass `{name}`");
        }
        let mut rng = SplitMix64::new(9);
        let mut nonempty = 0;
        for _ in 0..50 {
            let spec = random_lir_spec(&mut rng);
            if spec.steps.is_empty() {
                continue; // "lower only" — valid, but nothing to round-trip
            }
            nonempty += 1;
            let text = spec.to_string();
            assert_eq!(PipelineSpec::parse(&text).unwrap(), spec, "{text}");
        }
        assert!(nonempty > 25, "generator collapsed to empty specs");
    }
}
