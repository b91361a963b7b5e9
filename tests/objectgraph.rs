//! Property tests for the object-graph program shape of the
//! whole-language fuzzer (`reduce::genprog` with
//! `CaseDims { objects: true, multi: true }`): generation must be
//! deterministic from the seed alone (including across threads), every
//! generated module must pass the MEMOIR verifier and execute to its
//! oracle value, and `.repro` artifacts carrying the new object-graph
//! ops must round-trip through the v2 text format.

use memoir::interp::Interp;
use memoir::ir::{printer, verifier};
use memoir::reduce::genprog::{build_case, random_case, random_case_config, CaseDims, Helper, Op};
use memoir::reduce::repro::Repro;
use memoir::reduce::rng::SplitMix64;
use memoir::reduce::{genspec, harness::CaseConfig};
use proptest::prelude::*;

const DIMS: CaseDims = CaseDims {
    objects: true,
    multi: true,
};

/// Generate + build one object-graph case from a bare seed.
fn case_from_seed(seed: u64) -> (String, i64) {
    let mut rng = SplitMix64::new(seed);
    let prog = random_case(&mut rng, 24, DIMS);
    let (m, expect) = build_case(&prog);
    (printer::print_module(&m), expect)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same seed regenerates the same program, module, and oracle.
    #[test]
    fn object_graph_generation_is_deterministic(seed in any::<u64>()) {
        let mut rng_a = SplitMix64::new(seed);
        let mut rng_b = SplitMix64::new(seed);
        let a = random_case(&mut rng_a, 24, DIMS);
        let b = random_case(&mut rng_b, 24, DIMS);
        prop_assert_eq!(&a, &b);
        let (text_a, expect_a) = case_from_seed(seed);
        let (text_b, expect_b) = case_from_seed(seed);
        prop_assert_eq!(expect_a, expect_b);
        prop_assert_eq!(text_a, text_b);
    }

    /// Every generated object-graph module is verifier-clean in mut
    /// form, and running it reproduces the plain-Rust oracle value —
    /// the type-correctness half of the differential harness, without
    /// any optimization in between.
    #[test]
    fn object_graph_modules_verify_and_execute(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let prog = random_case(&mut rng, 32, DIMS);
        let (m, expect) = build_case(&prog);
        verifier::assert_valid(&m);
        let mut vm = Interp::new(&m).with_fuel(50_000_000);
        let out = vm.run_by_name("main", vec![]).unwrap();
        prop_assert_eq!(out[0].as_int(), Some(expect));
    }

    /// A repro forced to contain every object-graph construct (all
    /// eight new ops plus an object-argument helper) renders under the
    /// v2 header and parses back to an identical artifact.
    #[test]
    fn object_graph_repros_round_trip(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let mut prog = random_case(&mut rng, 16, DIMS);
        prog.main.extend([
            Op::LinkWrite(rng.next_u64() as u8, rng.next_u64() as u8, rng.next_u64() as i8),
            Op::LinkRead(rng.next_u64() as u8, rng.next_u64() as u8),
            Op::LinkNew(rng.next_u64() as u8, rng.next_u64() as i8),
            Op::DocPush(rng.next_u64() as u8),
            Op::DocWrite(rng.next_u64() as u8, rng.next_u64() as u8, rng.next_u64() as i8),
            Op::DocRead(rng.next_u64() as u8, rng.next_u64() as u8),
            Op::DocAssocInsert(rng.next_u64() as u8, rng.next_u64() as u8),
            Op::DocAssocRead(rng.next_u64() as u8, rng.next_u64() as u8),
        ]);
        prog.helpers.push(Helper::ObjProbe(rng.next_u64() as i8, rng.next_u64() as i8));

        let lower = rng.below(2) == 0;
        let cfg: CaseConfig = random_case_config(&mut rng, lower);
        let repro = Repro {
            seed,
            case: rng.next_u64(),
            spec: genspec::random_spec(&mut rng),
            cfg: CaseConfig {
                probe_seed: (rng.below(2) == 0).then(|| rng.next_u64()),
                ..cfg
            },
            minimized: true,
            failure: "lower-miscompile: direct lowering returned 3, oracle says 9".into(),
            prog,
        };
        let text = repro.to_string();
        prop_assert!(text.starts_with("memoir-fuzz repro v2"), "object ops force v2: {}", text);
        let back: Repro = text.parse().unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(back, repro);
    }
}

/// Generation is a pure function of the seed even under concurrency:
/// four threads building the same seed range must agree byte-for-byte
/// with the reference built on the main thread.
#[test]
fn object_graph_generation_is_thread_invariant() {
    let seeds: Vec<u64> = (0..16)
        .map(|k| 0x9e3779b97f4a7c15u64.wrapping_mul(k + 1))
        .collect();
    let reference: Vec<(String, i64)> = seeds.iter().map(|&s| case_from_seed(s)).collect();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let seeds = seeds.clone();
            std::thread::spawn(move || seeds.iter().map(|&s| case_from_seed(s)).collect::<Vec<_>>())
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), reference);
    }
}
