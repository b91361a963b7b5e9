//! Replays every archived artifact in `findings/` (reduced `.repro`
//! files for bugs the fuzzer found that have since been fixed) and
//! asserts none of them crashes again. See `findings/README.md`.
//!
//! Bugs whose trigger shape the fuzzer's op language cannot express
//! (genprog programs are straight-line; the index-range soundness bug
//! needed a loop φ) are archived here as builder-constructed
//! regressions instead of `.repro` files — same contract: each test
//! reproduces a real, since-fixed miscompile and fails if it returns.

use memoir_ir::{BinOp, CmpOp, Form, ModuleBuilder, Repr, Type};
use reduce::{run_case_prog, Outcome, Repro};
use std::path::PathBuf;

#[test]
fn archived_findings_stay_fixed() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../findings");
    let mut replayed = 0;
    for entry in std::fs::read_dir(&dir).expect("findings/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("repro") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let repro: Repro = text
            .parse()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Committed artifacts stay valid verbatim: they re-render to the
        // same bytes.
        assert_eq!(repro.to_string(), text, "{}", path.display());
        let outcome = run_case_prog(&repro.prog, &repro.spec, &repro.cfg);
        assert_eq!(
            outcome,
            Outcome::Pass,
            "{}: archived finding reproduces again (recorded failure: {})",
            path.display(),
            repro.failure
        );
        replayed += 1;
    }
    assert!(
        replayed > 0,
        "no .repro artifacts found in {}",
        dir.display()
    );
}

/// A `for i in 0..3`-shaped loop whose counter φ is also used *after*
/// the loop, where it holds the exit value `3`. Both index-range
/// manifestations below hinge on the same root cause: `IndexRanges`
/// claimed `R(i) = [0 : 3)` for the φ — the in-body bound — but the φ
/// denotes every value the variable takes, including the exit value
/// that flows to uses after the loop.
fn exit_value_loop(
    b: &mut memoir_ir::FunctionBuilder<'_>,
    body_step: impl FnOnce(&mut memoir_ir::FunctionBuilder<'_>, memoir_ir::ValueId),
) -> memoir_ir::ValueId {
    let i64t = b.ty(Type::I64);
    let header = b.block("header");
    let body = b.block("body");
    let exit = b.block("exit");
    let zero = b.i64(0);
    let one = b.i64(1);
    let three = b.i64(3);
    let entry = b.func.entry;
    b.jump(header);
    b.switch_to(header);
    let i = b.phi_placeholder(i64t);
    b.add_phi_incoming(i, entry, zero);
    let done = b.cmp(CmpOp::Ge, i, three);
    b.branch(done, exit, body);
    b.switch_to(body);
    body_step(b, i);
    let next = b.add(i, one);
    let bb = b.current_block();
    b.add_phi_incoming(i, bb, next);
    b.jump(header);
    b.switch_to(exit);
    i
}

/// Index-range soundness, adaptive manifestation: the dense layout was
/// sized from the φ's claimed bound `[0 : 3)` (cap 3), but the write
/// *after* the loop uses the exit value `3` — one slot past the dense
/// array, a `BadAddress` trap on lir that the MEMOIR interpreter never
/// takes. Fixed by widening header-tested φ ranges by one step (and
/// folding the untested init in), so the cap is now 4 and the boundary
/// write stays in bounds.
#[test]
fn idxrange_exit_value_dense_boundary_write_stays_fixed() {
    let mut mb = ModuleBuilder::new("m");
    mb.func("main", Form::Mut, |b| {
        let i64t = b.ty(Type::I64);
        let a = b.new_assoc(i64t, i64t);
        let i = exit_value_loop(b, |b, i| {
            let one = b.i64(1);
            b.mut_insert(a, i, Some(one));
        });
        // i = 3 here: the boundary index the old analysis excluded.
        let seven = b.i64(7);
        b.mut_insert(a, i, Some(seven));
        let v = b.read(a, i);
        b.returns(&[i64t]);
        b.ret(vec![v]);
    });
    let mut m = mb.finish();
    m.entry = m.func_by_name("main");

    // The analysis must still choose dense (the fix widens the cap, it
    // does not give up on the bound) — and the cap must cover the exit
    // value.
    let choices: Vec<Repr> = memoir_analysis::repr::choose_reprs(&m)
        .into_values()
        .collect();
    assert_eq!(choices, vec![Repr::Dense { cap: 4 }], "{choices:?}");

    let oracle: Vec<i64> = memoir_interp::Interp::new(&m)
        .with_fuel(1_000_000)
        .run_by_name("main", vec![])
        .expect("MEMOIR semantics: assoc insert at any key succeeds")
        .into_iter()
        .map(|v| match v {
            memoir_interp::Value::Int(_, x) => x,
            other => panic!("scalar return expected, got {other:?}"),
        })
        .collect();

    let pipeline =
        memoir_opt::lowering::split_lowered_spec(&passman::PipelineSpec::parse("lower").unwrap())
            .unwrap()
            .expect("spec has a lower stage");
    let cfg = memoir_opt::lowering::LowerConfig {
        adaptive: true,
        ..Default::default()
    };
    let out = memoir_opt::lowering::compile_lowered_with(&mut m, &pipeline, &cfg)
        .expect("adaptive lowering must not fault");
    let lm = out.lowered.expect("stage ran");
    let got = lir::LirMachine::new(&lm)
        .with_fuel(1_000_000)
        .run_by_name("main", vec![])
        .expect("dense boundary write must stay in bounds");
    assert_eq!(
        got, oracle,
        "adaptive lowering diverged from the MEMOIR interpreter"
    );
}

/// Index-range soundness, fusion manifestation: `read(c', k)` was CSE'd
/// backwards through `rmw(c, i, ..)` because the φ's claimed range
/// `[0 : 3)` is disjoint from `k = 3` — but the rmw runs after the
/// loop, at the exit value `i = 3 = k`, so the "redundant" read
/// observed the stale pre-rmw value (1010 instead of 1011). The
/// widened φ range overlaps `k` and blocks the unsound CSE.
#[test]
fn idxrange_exit_value_fusion_read_cse_stays_fixed() {
    let mut mb = ModuleBuilder::new("m");
    mb.func("main", Form::Ssa, |b| {
        let i64t = b.ty(Type::I64);
        let k3 = b.i64(3);
        let ten = b.i64(10);
        let a0 = b.new_assoc(i64t, i64t);
        let a1 = b.insert(a0, k3, Some(ten));
        let i = exit_value_loop(b, |_, _| {});
        let r1 = b.read(a1, k3);
        // i = 3 here: modifies exactly the key the old range analysis
        // proved this rmw could not touch.
        let one = b.i64(1);
        let a2 = b.rmw(a1, i, BinOp::Add, one);
        let r2 = b.read(a2, k3);
        let hundred = b.i64(100);
        let hi = b.bin(BinOp::Mul, r1, hundred);
        let sum = b.add(hi, r2);
        b.returns(&[i64t]);
        b.ret(vec![sum]);
    });
    let mut m = mb.finish();
    m.entry = m.func_by_name("main");
    let before = m.clone();

    let spec = passman::PipelineSpec::parse("fusion").unwrap();
    memoir_opt::pipeline::compile_spec_with(&mut m, &spec, |pm| pm).expect("fusion runs");

    let got = memoir_interp::Interp::new(&m)
        .with_fuel(1_000_000)
        .run_by_name("main", vec![])
        .expect("no traps");
    assert_eq!(
        got,
        vec![memoir_interp::Value::Int(
            m.types
                .get(m.funcs[m.func_by_name("main").unwrap()].ret_tys[0]),
            1011
        )],
        "read after the exit-value rmw must see the updated element"
    );

    // The symbolic oracle is the tool that pinned this bug down: the
    // pre-pass module must still prove equivalent to the post-pass one.
    let verdict = symexec::prove_memoir_equiv(&before, &m, "main", &symexec::Budget::default());
    assert!(
        matches!(verdict, symexec::FnVerdict::Proved),
        "fusion output no longer proves equivalent: {verdict:?}"
    );
}

/// DEE call specialization, callee-alias manifestation
/// (`findings/dee-callee-alias.mir`): `wrap(&a, &b)` calls `h(a, b)`, and
/// `h` returns its second parameter. DEE read the call's result as the
/// argument at the result's own position, `a`, so the clone
/// `wrap__dee`'s empty-window early exit gave back `a` in `b`'s slot and
/// SSA destruction took `b`'s `&` away. `main`'s window is never empty,
/// so results agreed; the clone is run here on an empty window.
#[test]
fn dee_callee_alias_stays_fixed() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../findings/dee-callee-alias.mir");
    let text = std::fs::read_to_string(&path).unwrap();
    let source = memoir_ir::parser::parse_module(&text).unwrap();
    let run = |m: &memoir_ir::Module, spec: &str| {
        let mut m = m.clone();
        let spec = passman::PipelineSpec::parse(spec).unwrap();
        memoir_opt::pipeline::compile_spec_with(&mut m, &spec, |pm| pm).expect("pipeline runs");
        m
    };

    let ssa = run(&source, "ssa-construct,dee");
    let clone = ssa
        .func_by_name("wrap__dee")
        .expect("DEE specializes `wrap`");
    let mut i = memoir_interp::Interp::new(&ssa);
    let seq = |base: i64| (0..4).map(move |k| memoir_interp::Value::Int(Type::I64, base + k));
    let (a, b) = (
        i.alloc_seq(seq(10).collect()),
        i.alloc_seq(seq(20).collect()),
    );
    let empty = memoir_interp::Value::Int(Type::Index, 5);
    let out = i.run(clone, vec![a, b, empty, empty]).unwrap();
    let slots: Vec<_> = out.iter().map(|v| i.seq_values(v).unwrap()).collect();
    assert_eq!(
        slots,
        vec![seq(10).collect::<Vec<_>>(), seq(20).collect()],
        "the early exit gives back each slot's own parameter"
    );

    let destructed = run(&source, "ssa-construct,dee,ssa-destruct");
    for name in ["wrap", "wrap__dee"] {
        let f = &destructed.funcs[destructed.func_by_name(name).unwrap()];
        let by_ref: Vec<bool> = f.params.iter().take(2).map(|p| p.by_ref).collect();
        assert_eq!(by_ref, [true, true], "{name} keeps `&a` and `&b`");
    }
    let result = |m: &memoir_ir::Module| {
        memoir_interp::Interp::new(m)
            .run_by_name("main", vec![])
            .unwrap()
    };
    assert_eq!(result(&destructed), result(&source));
}
