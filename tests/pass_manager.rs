//! Pass-manager integration tests: the spec-driven pipeline is
//! semantically equivalent to the legacy hard-coded sequence on real
//! workloads, pipeline specs round-trip and fail informatively, and the
//! analysis cache actually shares work (DomTree is computed at most once
//! per function between mutations over a full O3 run).

use memoir::interp::{Interp, Value};
use memoir::ir::{CmpOp, Form, Module, ModuleBuilder, Type};
use memoir::opt::pipeline::compile_fixed_reference;
use memoir::opt::{compile, compile_spec, default_spec, OptConfig, OptLevel};
use memoir::passman::{PipelineSpec, RunError, SpecParseError};

/// A loop-heavy program (build a sequence, fill it, branch on a prefix
/// read) whose O3 pipeline exercises DEE, the cleanup fixpoint, sinking,
/// and destruction.
fn loopy() -> Module {
    let mut mb = ModuleBuilder::new("m");
    mb.func("main", Form::Mut, |b| {
        let i64t = b.ty(Type::I64);
        let idxt = b.ty(Type::Index);
        let count = b.param("count", idxt);
        let zero_i = b.index(0);
        let s = b.new_seq(i64t, zero_i);
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        let one = b.index(1);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi_placeholder(idxt);
        let entry = b.func.entry;
        b.add_phi_incoming(i, entry, zero_i);
        let done = b.cmp(CmpOp::Ge, i, count);
        b.branch(done, exit, body);
        b.switch_to(body);
        let iv = b.cast(Type::I64, i);
        let sz = b.size(s);
        b.mut_insert(s, sz, Some(iv));
        let next = b.add(i, one);
        let bb = b.current_block();
        b.add_phi_incoming(i, bb, next);
        b.jump(header);
        b.switch_to(exit);
        let szf = b.size(s);
        let has_any = b.cmp(CmpOp::Gt, szf, zero_i);
        let some = b.block("some");
        let none = b.block("none");
        let out = b.block("out");
        b.branch(has_any, some, none);
        b.switch_to(some);
        let first = b.read(s, zero_i);
        b.jump(out);
        b.switch_to(none);
        let z = b.i64(0);
        b.jump(out);
        b.switch_to(out);
        let r = b.phi(i64t, vec![(some, first), (none, z)]);
        b.returns(&[i64t]);
        b.ret(vec![r]);
    });
    let mut m = mb.finish();
    m.entry = m.func_by_name("main");
    m
}

fn run_main(m: &Module, count: i64) -> Vec<Value> {
    let mut vm = Interp::new(m).with_fuel(50_000_000);
    vm.run_by_name("main", vec![Value::Int(Type::Index, count)])
        .unwrap()
}

// ---------------------------------------------------------------- specs

#[test]
fn spec_round_trips_through_parse_and_print() {
    for s in [
        "ssa-construct,ssa-destruct",
        "constprop,dee,fixpoint(simplify,sink,dce)",
        "mem2reg,fixpoint(constfold,gvn,sink,dce)",
    ] {
        let spec: PipelineSpec = s.parse().unwrap();
        assert_eq!(spec.to_string(), s);
        assert_eq!(spec.to_string().parse::<PipelineSpec>().unwrap(), spec);
    }
}

#[test]
fn default_specs_print_the_documented_pipelines() {
    assert_eq!(
        default_spec(OptLevel::O0).to_string(),
        "ssa-construct,ssa-destruct"
    );
    assert_eq!(
        default_spec(OptLevel::O3(OptConfig::all())).to_string(),
        "ssa-construct,constprop,fusion,dee,fixpoint(constprop,simplify,sink,dce),\
         fusion,sink,dce,ssa-destruct,field-elision,rie,key-fold,dfe"
    );
    assert_eq!(
        default_spec(OptLevel::O3(OptConfig::dee_only())).to_string(),
        "ssa-construct,constprop,fusion,dee,fixpoint(constprop,simplify,sink,dce),\
         fusion,sink,dce,ssa-destruct"
    );
}

#[test]
fn nested_fixpoint_is_a_parse_error() {
    let err = "fixpoint(a,fixpoint(b))"
        .parse::<PipelineSpec>()
        .unwrap_err();
    assert!(
        matches!(err, SpecParseError::NestedFixpoint { .. }),
        "{err:?}"
    );
}

#[test]
fn unknown_pass_error_names_the_pass_and_lists_known_ones() {
    let mut m = loopy();
    let spec = "ssa-construct,licm,ssa-destruct".parse().unwrap();
    let err = compile_spec(&mut m, &spec).unwrap_err();
    match &err {
        RunError::UnknownPass { name, known } => {
            assert_eq!(name, "licm");
            assert!(known.contains(&"constprop"));
        }
        other => panic!("expected UnknownPass, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("unknown pass `licm`"), "{msg}");
    assert!(msg.contains("dee"), "message lists known passes: {msg}");
    // Validation happens before any pass runs: still in mut form.
    assert!(m.all_in_form(Form::Mut));
}

// --------------------------------------------------------- differential

/// Spec-driven O3 must agree with the legacy hard-coded sequence, both
/// on the interpreter outputs and on the report invariants.
#[test]
fn spec_driven_o3_matches_legacy_sequence_on_loopy() {
    let m0 = loopy();
    let mut legacy = m0.clone();
    let rl = compile_fixed_reference(&mut legacy, OptLevel::O3(OptConfig::all())).unwrap();
    let mut spec = m0.clone();
    let rs = compile(&mut spec, OptLevel::O3(OptConfig::all())).unwrap();
    memoir::ir::verifier::assert_valid(&spec);

    for c in [0, 1, 7, 20] {
        assert_eq!(run_main(&m0, c), run_main(&spec, c), "vs source, count={c}");
        assert_eq!(
            run_main(&legacy, c),
            run_main(&spec, c),
            "vs legacy, count={c}"
        );
    }
    assert_eq!(rl.destruct_copies, rs.destruct_copies);
    assert_eq!(rl.ssa_census, rs.ssa_census);
}

#[test]
fn spec_driven_o3_matches_legacy_sequence_on_workloads() {
    // listing1: entry `work`, no arguments.
    let m0 = memoir::workloads::listing1::build_listing1();
    let mut legacy = m0.clone();
    compile_fixed_reference(&mut legacy, OptLevel::O3(OptConfig::all())).unwrap();
    let mut spec = m0.clone();
    compile(&mut spec, OptLevel::O3(OptConfig::all())).unwrap();
    let run = |m: &Module| {
        Interp::new(m).run_by_name("work", vec![]).unwrap()[0]
            .as_int()
            .unwrap()
    };
    assert_eq!(run(&m0), run(&spec));
    assert_eq!(run(&legacy), run(&spec));

    // deepsjeng: entry `search(depth)`.
    let m0 = memoir::workloads::deepsjeng_ir::build_deepsjeng_ir();
    let mut legacy = m0.clone();
    compile_fixed_reference(&mut legacy, OptLevel::O3(OptConfig::all())).unwrap();
    let mut spec = m0.clone();
    compile(&mut spec, OptLevel::O3(OptConfig::all())).unwrap();
    let run = |m: &Module| {
        let mut i = Interp::new(m).with_fuel(200_000_000);
        i.run_by_name("search", vec![Value::Int(Type::Index, 600)])
            .unwrap()[0]
            .as_int()
            .unwrap()
    };
    assert_eq!(run(&m0), run(&spec));
    assert_eq!(run(&legacy), run(&spec));
}

/// The issue's acceptance spec — the scalar O3 core as a hand-written
/// string — must parse and preserve semantics against legacy O3(all).
#[test]
fn handwritten_scalar_core_spec_preserves_semantics() {
    let core: PipelineSpec = "constprop,dee,fixpoint(simplify,sink,dce)".parse().unwrap();
    assert_eq!(
        core.to_string(),
        "constprop,dee,fixpoint(simplify,sink,dce)"
    );

    let full: PipelineSpec = format!("ssa-construct,{core},ssa-destruct")
        .parse()
        .unwrap();
    let m0 = loopy();
    let mut m = m0.clone();
    let report = compile_spec(&mut m, &full).unwrap();
    memoir::ir::verifier::assert_valid(&m);
    assert!(report.run.passes.iter().any(|p| p.name == "dee"));

    let mut legacy = m0.clone();
    compile_fixed_reference(&mut legacy, OptLevel::O3(OptConfig::all())).unwrap();
    for c in [0, 1, 7, 20] {
        assert_eq!(run_main(&m0, c), run_main(&m, c), "vs source, count={c}");
        assert_eq!(
            run_main(&legacy, c),
            run_main(&m, c),
            "vs legacy, count={c}"
        );
    }
}

// ---------------------------------------------------------------- cache

/// Over a full O3 run the manager must never recompute DomTree (or
/// def-use) for a function without an intervening mutation — the cache
/// is doing its job across sink iterations, fixpoint rounds, and passes.
#[test]
fn full_o3_computes_domtree_at_most_once_between_mutations() {
    let mut m = loopy();
    let report = compile_spec(&mut m, &default_spec(OptLevel::O3(OptConfig::all()))).unwrap();

    for analysis in ["dom-tree", "def-use"] {
        let c = report.run.cache_counter(analysis);
        assert!(c.misses > 0, "{analysis} was requested at all");
        assert_eq!(
            c.max_computes_between_invalidations, 1,
            "{analysis} recomputed without an intervening mutation: {c:?}"
        );
    }
    // Sharing actually happened: converged sink iterations and the
    // standalone sink pass reuse cached DomTrees.
    let dom = report.run.cache_counter("dom-tree");
    assert!(dom.hits > 0, "no cache hits at all: {dom:?}");
    assert!(report.run.invalidation_events > 0);
}

/// The unified report carries per-pass stats, fixpoint iteration tags,
/// and censuses (the data `PipelineReport` used to aggregate by hand).
#[test]
fn unified_report_subsumes_the_legacy_shape() {
    let mut m = loopy();
    let report = compile_spec(&mut m, &default_spec(OptLevel::O3(OptConfig::all()))).unwrap();

    // Legacy fields are still populated.
    assert!(report.pass_times.iter().any(|(n, _)| n == "dee"));
    assert!(report.ssa_census.ssa_variables > 0);
    assert_eq!(report.destruct_copies, 0);

    // The construct pass carries the census annotation.
    let construct = report.run.last_run("ssa-construct").unwrap();
    assert!(construct
        .annotations
        .iter()
        .any(|(k, v)| k == "ssa_variables" && v.parse::<usize>().unwrap() > 0));

    // Fixpoint members are tagged with their iteration.
    assert!(report
        .run
        .passes
        .iter()
        .any(|p| p.name == "simplify" && p.fixpoint_iteration == Some(0)));

    // The destruct stats are readable directly off the run.
    let destruct = report.run.last_run("ssa-destruct").unwrap();
    assert_eq!(destruct.stat("copies_inserted"), Some(0));

    // And the table renderer mentions passes and cache lines.
    let table = report.run.render_table();
    assert!(table.contains("ssa-construct"));
    assert!(table.contains("analysis"));
}
