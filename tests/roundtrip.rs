//! Round-trip and algebraic-law tests: printer→parser stability on every
//! workload module, pipeline idempotence, and the range-lattice laws of
//! Defs. 3–5.

use memoir::analysis::{Expr, Range};
use memoir::ir::{parser, printer};
use proptest::prelude::*;

fn workload_modules() -> Vec<(&'static str, memoir::ir::Module)> {
    vec![
        ("mcf", memoir::workloads::mcf_ir::build_mcf_ir()),
        (
            "deepsjeng",
            memoir::workloads::deepsjeng_ir::build_deepsjeng_ir(),
        ),
        ("optlike", memoir::workloads::optlike_ir::build_optlike_ir()),
        ("listing1", memoir::workloads::listing1::build_listing1()),
    ]
}

/// `print ∘ parse ∘ print = print` for every workload module (mut form).
#[test]
fn printer_parser_round_trip_mut_form() {
    for (name, m) in workload_modules() {
        let text = printer::print_module(&m);
        let parsed = parser::parse_module(&text)
            .unwrap_or_else(|e| panic!("{name}: parse failed: {e}\n{text}"));
        memoir::ir::verifier::assert_valid(&parsed);
        let text2 = printer::print_module(&parsed);
        let parsed2 = parser::parse_module(&text2).unwrap();
        assert_eq!(
            text2,
            printer::print_module(&parsed2),
            "{name}: second round trip must be stable"
        );
    }
}

/// The SSA form also prints and parses.
#[test]
fn printer_parser_round_trip_ssa_form() {
    for (name, mut m) in workload_modules() {
        memoir::opt::construct_ssa(&mut m).unwrap();
        let text = printer::print_module(&m);
        let parsed =
            parser::parse_module(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        memoir::ir::verifier::assert_valid(&parsed);
    }
}

/// Parsed modules still execute identically.
#[test]
fn parsed_listing1_executes() {
    let m = memoir::workloads::listing1::build_listing1();
    let text = printer::print_module(&m);
    let mut parsed = parser::parse_module(&text).unwrap();
    parsed.entry = parsed.func_by_name("work");
    let mut vm = memoir::interp::Interp::new(&parsed);
    let out = vm.run_by_name("work", vec![]).unwrap();
    assert_eq!(out[0].as_int(), Some(10));
}

/// Compiling an already-compiled (mut-form) module again is safe and
/// preserves behaviour.
#[test]
fn pipeline_is_repeatable() {
    let mut m = memoir::workloads::listing1::build_listing1();
    memoir::opt::compile(&mut m, memoir::opt::OptLevel::O0).unwrap();
    memoir::opt::compile(&mut m, memoir::opt::OptLevel::O0).unwrap();
    memoir::ir::verifier::assert_valid(&m);
    let mut vm = memoir::interp::Interp::new(&m);
    assert_eq!(
        vm.run_by_name("work", vec![]).unwrap()[0].as_int(),
        Some(10)
    );
}

// ------------------------------------------------------- lattice laws

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-8i64..32).prop_map(Expr::constant),
        (0u32..4).prop_map(|r| Expr::value(memoir::ir::ValueId::from_raw(r))),
        Just(Expr::end()),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::min2(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::max2(a, b)),
            (inner, -4i64..4).prop_map(|(a, c)| a.offset(c)),
        ]
    })
}

fn range() -> impl Strategy<Value = Range> {
    (expr(), expr()).prop_map(|(lo, hi)| Range::new(lo, hi))
}

fn join_commutes(a: &Range, b: &Range) -> TestCaseResult {
    prop_assert_eq!(a.join(b), b.join(a));
    Ok(())
}

fn meet_commutes(a: &Range, b: &Range) -> TestCaseResult {
    prop_assert_eq!(a.meet(b), b.meet(a));
    Ok(())
}

fn join_associates(a: &Range, b: &Range, c: &Range) -> TestCaseResult {
    prop_assert_eq!(a.join(b).join(c), a.join(&b.join(c)));
    Ok(())
}

fn meet_associates(a: &Range, b: &Range, c: &Range) -> TestCaseResult {
    prop_assert_eq!(a.meet(b).meet(c), a.meet(&b.meet(c)));
    Ok(())
}

fn join_and_meet_idempotent(a: &Range) -> TestCaseResult {
    // Join canonicalizes (symbolically) empty ranges to `[0 : 0)`;
    // idempotence is structural only on proper ranges.
    if !a.is_empty_const() {
        prop_assert_eq!(a.join(a), a.clone());
    } else {
        prop_assert!(a.join(a).is_empty_const());
    }
    prop_assert_eq!(a.meet(a), a.clone());
    Ok(())
}

fn shift_distributes(a: &Range, b: &Range, c: i64) -> TestCaseResult {
    // Empty ranges canonicalize under join, which does not commute
    // with shifting; the law holds on proper ranges.
    prop_assume!(!a.is_empty_const() && !b.is_empty_const());
    prop_assert_eq!(
        a.join(b).shift_const(c),
        a.shift_const(c).join(&b.shift_const(c))
    );
    Ok(())
}

proptest! {
    #[test]
    fn join_is_commutative(a in range(), b in range()) {
        join_commutes(&a, &b)?;
    }

    #[test]
    fn meet_is_commutative(a in range(), b in range()) {
        meet_commutes(&a, &b)?;
    }

    #[test]
    fn join_is_associative(a in range(), b in range(), c in range()) {
        join_associates(&a, &b, &c)?;
    }

    #[test]
    fn meet_is_associative(a in range(), b in range(), c in range()) {
        meet_associates(&a, &b, &c)?;
    }

    #[test]
    fn join_and_meet_are_idempotent(a in range()) {
        join_and_meet_idempotent(&a)?;
    }

    #[test]
    fn shift_distributes_over_join(a in range(), b in range(), c in -4i64..4) {
        shift_distributes(&a, &b, c)?;
    }

    #[test]
    fn subtree_order_is_reflexive_and_transitive_on_min(a in expr(), b in expr()) {
        let m = Expr::min2(a.clone(), b.clone());
        prop_assert!(m.contains(&m));
        // Children of a canonical min are subtrees.
        if let Expr::Min(es) = &m {
            for e in es {
                prop_assert!(m.contains(e));
            }
        }
    }
}

/// Five shrunk counterexamples the law tests once recorded. Their
/// `min`/`max` members go through `Expr::min_of`/`max_of`, the canonical
/// constructors the strategies build with, so each is a value the
/// strategies can generate (the record lists `min(0, %0, 1)`, which they
/// fold to `min(0, %0)`). The record does not say which law each broke,
/// so each runs through every law of its arity.
#[test]
fn recorded_range_cases_satisfy_their_laws() {
    let k = Expr::constant;
    let v = |raw| Expr::value(memoir::ir::ValueId::from_raw(raw));
    let min = Expr::min_of;
    let max = Expr::max_of;
    let holds = |law: &str, result: TestCaseResult| match result {
        Ok(()) | Err(TestCaseError::Reject) => {}
        Err(TestCaseError::Fail(m)) => panic!("{law}: {m}"),
    };

    for a in [
        Range::new(k(0), min(vec![k(0), v(0), k(1)])),
        Range::new(max(vec![v(3), Expr::end()]), max(vec![v(3), Expr::end()])),
    ] {
        holds("idempotence", join_and_meet_idempotent(&a));
    }

    for (a, b, c) in [
        (
            Range::new(k(0), v(0)),
            Range::new(k(0), k(1)),
            Range::new(v(0), k(2)),
        ),
        (
            Range::new(min(vec![k(0), v(0)]), k(0)),
            Range::new(k(0), k(0)),
            Range::new(k(1), k(0)),
        ),
    ] {
        holds("join associativity", join_associates(&a, &b, &c));
        holds("meet associativity", meet_associates(&a, &b, &c));
    }

    let a = Range::new(k(1), min(vec![k(0), v(0)]));
    let b = Range::new(min(vec![k(0), v(0)]), k(0));
    holds("shift distributivity", shift_distributes(&a, &b, 0));
}
