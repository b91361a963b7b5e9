//! The equivalence checker decides which path pairs can occur together
//! from solver state computed once per path
//! (`symexec::equiv::obligations`). This test keeps the quadratic loop
//! that state replaced, every pair's joined condition through
//! `solver::contradicts`, as the reference. On the five kernels (O3 →
//! `lower<adaptive>`, MEMOIR against lir) and on random whole-language
//! cases from the generator the symbolic property tests use (MEMOIR
//! against its optimized form, and against its lowered form) it checks
//! that
//!
//! * the pairs left to discharge are exactly the pairs the reference
//!   keeps;
//! * every pair skipped is one `contradicts` refutes;
//! * the verdict is the reference's.

use memoir::interp::{Interp, Value};
use memoir::ir::{CmpOp, Module, Type};
use memoir::lir::LirMachine;
use memoir::lower::{lower_module, lower_module_opts, LowerOptions};
use memoir::opt::pipeline::{compile_spec_with, default_spec, OptConfig, OptLevel};
use memoir::reduce::{build_case, random_case, random_spec, CaseDims, SplitMix64};
use memoir::symexec::equiv::{compare_paths, obligations};
use memoir::symexec::solver::{contradicts, find_model, Lit};
use memoir::symexec::{enumerate_lir, enumerate_memoir, seed_params};
use memoir::symexec::{Budget, FnVerdict, Path, PathEnd, TermPool};
use memoir::workloads::{deepsjeng_ir, docstore, mcf_ir, optlike_ir, smallbank_ir};

/// The reference pairing: each source path that returns with each
/// target path whose joined condition `contradicts` cannot refute.
fn reference_obligations(pool: &TermPool, a: &[Path], b: &[Path]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (i, pa) in a.iter().enumerate() {
        if pa.end == PathEnd::Trap {
            continue;
        }
        for (j, pb) in b.iter().enumerate() {
            if !contradicts(pool, &joined(pa, pb)) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

fn joined(pa: &Path, pb: &Path) -> Vec<Lit> {
    let mut joint = pa.cond.clone();
    joint.extend_from_slice(&pb.cond);
    joint
}

/// The reference verdict: the discharge loop over the reference pairs.
fn reference_verdict(
    pool: &mut TermPool,
    a: &[Path],
    b: &[Path],
    confirm: &mut dyn FnMut(&[i64]) -> Option<String>,
) -> FnVerdict {
    for (i, j) in reference_obligations(pool, a, b) {
        let (pa, pb) = (&a[i], &b[j]);
        let PathEnd::Ret(ret_a) = &pa.end else {
            unreachable!()
        };
        let joint = joined(pa, pb);
        let candidate = match &pb.end {
            PathEnd::Trap => Some((joint, "trap")),
            PathEnd::Ret(ret_b) if ret_a.len() != ret_b.len() => {
                return FnVerdict::Inconclusive("return arity mismatch")
            }
            PathEnd::Ret(ret_b) => ret_a.iter().zip(ret_b).find_map(|(&x, &y)| {
                if x == y {
                    return None;
                }
                let mut lits = joint.clone();
                lits.push((pool.cmp(CmpOp::Ne, false, x, y), true));
                (!contradicts(pool, &lits)).then_some((lits, "value"))
            }),
        };
        let Some((lits, kind)) = candidate else {
            continue;
        };
        return match (find_model(pool, &lits), kind) {
            (Some(model), _) => match confirm(&model) {
                Some(detail) => FnVerdict::Diverged {
                    args: model,
                    detail,
                },
                None if kind == "trap" => FnVerdict::Inconclusive("unconfirmed trap candidate"),
                None => FnVerdict::Inconclusive("unconfirmed value candidate"),
            },
            (None, "trap") => FnVerdict::Inconclusive("no witness for trap candidate"),
            (None, _) => FnVerdict::Inconclusive("no witness for candidate"),
        };
    }
    FnVerdict::Proved
}

/// One side of a comparison.
#[derive(Clone, Copy)]
enum Side<'a> {
    Memoir(&'a Module),
    Lir(&'a memoir::lir::Module),
}

impl Side<'_> {
    /// `fname`'s paths in `pool`, if they fit the budget.
    fn paths(self, fname: &str, pool: &mut TermPool) -> Option<Vec<Path>> {
        let budget = Budget::default();
        match self {
            Side::Memoir(m) => enumerate_memoir(m, m.func_by_name(fname)?, pool, &budget).ok(),
            Side::Lir(lm) => enumerate_lir(lm, lm.by_name(fname)?, pool, &budget).ok(),
        }
    }

    /// `fname` on concrete arguments typed by `src`'s signature; `None`
    /// when it traps.
    fn run(self, src: &Module, fname: &str, args: &[i64]) -> Option<Vec<i64>> {
        match self {
            Side::Memoir(m) => {
                let f = &src.funcs[src.func_by_name(fname)?];
                let vals = f
                    .params
                    .iter()
                    .zip(args)
                    .map(|(p, &v)| match src.types.get(p.ty) {
                        Type::Bool => Value::Bool(v != 0),
                        ty => Value::Int(ty, v),
                    })
                    .collect();
                let out = Interp::new(m)
                    .with_fuel(10_000_000)
                    .run_by_name(fname, vals);
                out.ok()?.iter().map(Value::as_int).collect()
            }
            Side::Lir(lm) => LirMachine::new(lm)
                .with_fuel(10_000_000)
                .run_by_name(fname, args.to_vec())
                .ok(),
        }
    }
}

/// What the checks covered.
#[derive(Default)]
struct Tally {
    functions: usize,
    pairs: usize,
    refuted: usize,
    proved: usize,
}

/// Checks the pairing of `src`'s and `dst`'s paths of `fname` against
/// the reference.
fn check(src: &Module, dst: Side, fname: &str, tally: &mut Tally) {
    let Some(fid) = src.func_by_name(fname) else {
        return;
    };
    if let Side::Lir(lm) = dst {
        let params = lm.by_name(fname).map(|f| lm.funcs[f.0 as usize].num_params);
        if params != Some(src.funcs[fid].params.len() as u32) {
            return;
        }
    }
    let enumerate = || {
        let mut pool = seed_params(src, fid)?;
        let a = Side::Memoir(src).paths(fname, &mut pool)?;
        let b = dst.paths(fname, &mut pool)?;
        Some((pool, a, b))
    };
    let Some((mut pool, a, b)) = enumerate() else {
        return;
    };
    let pairs = obligations(&pool, &a, &b);
    assert_eq!(
        pairs,
        reference_obligations(&pool, &a, &b),
        "`{fname}`: the pairs left to discharge"
    );
    for (i, pa) in a.iter().enumerate() {
        if pa.end == PathEnd::Trap {
            continue;
        }
        for (j, pb) in b.iter().enumerate() {
            tally.pairs += 1;
            if !pairs.contains(&(i, j)) {
                tally.refuted += 1;
                assert!(
                    contradicts(&pool, &joined(pa, pb)),
                    "`{fname}`: pair ({i}, {j}) skipped but not refuted"
                );
            }
        }
    }
    let mut confirm = |args: &[i64]| {
        let want = Side::Memoir(src).run(src, fname, args)?;
        let got = dst.run(src, fname, args);
        (got.as_ref() != Some(&want)).then(|| format!("{args:?}: {want:?} against {got:?}"))
    };
    let verdict = compare_paths(&mut pool, &a, &b, &mut confirm);
    let (mut pool, a, b) = enumerate().unwrap();
    let reference = reference_verdict(&mut pool, &a, &b, &mut confirm);
    assert_eq!(verdict, reference, "`{fname}`: verdict");
    tally.functions += 1;
    tally.proved += (verdict == FnVerdict::Proved) as usize;
}

/// A kernel's module constructor and entry function.
type Kernel = (fn() -> Module, &'static str);

#[test]
fn kernel_pairings_match_the_quadratic_reference() {
    let kernels: [Kernel; 5] = [
        (mcf_ir::build_mcf_ir, "master"),
        (deepsjeng_ir::build_deepsjeng_ir, "search"),
        (optlike_ir::build_optlike_ir, "gvn"),
        (smallbank_ir::build_smallbank_ir, "bank"),
        (docstore::build_docstore_ir, "docstore"),
    ];
    let mut tally = Tally::default();
    for (build, entry) in kernels {
        let mut m = build();
        let spec = default_spec(OptLevel::O3(OptConfig::all()));
        compile_spec_with(&mut m, &spec, |pm| pm.with_threads(1)).unwrap();
        let opts = LowerOptions {
            threads: 1,
            cache: None,
            adaptive: true,
        };
        let lm = lower_module_opts(&m, &opts).unwrap().module;
        check(&m, Side::Lir(&lm), entry, &mut tally);
    }
    // mcf's `master` exceeds the path budget; the other four prove, each
    // pairing 17 source paths with 17 target paths and refuting 272 of
    // the 289 pairs.
    assert_eq!((tally.functions, tally.proved), (4, 4));
    assert_eq!((tally.pairs, tally.refuted), (1156, 1088));
}

#[test]
fn random_case_pairings_match_the_quadratic_reference() {
    let dims = CaseDims {
        objects: true,
        multi: true,
    };
    let mut tally = Tally::default();
    for seed in 0..40 {
        let prog = random_case(&mut SplitMix64::new(seed), 12, dims);
        let (m0, _) = build_case(&prog);

        let mut opt = m0.clone();
        let spec = random_spec(&mut SplitMix64::new(seed ^ 0x5eed));
        let optimized = compile_spec_with(&mut opt, &spec, |pm| pm).is_ok();

        let mut o3 = m0.clone();
        let spec = default_spec(OptLevel::O3(OptConfig::all()));
        compile_spec_with(&mut o3, &spec, |pm| pm).unwrap();
        let lm = lower_module(&o3).unwrap();

        for (_, f) in m0.funcs.iter() {
            if optimized {
                check(&m0, Side::Memoir(&opt), &f.name, &mut tally);
            }
            check(&o3, Side::Lir(&lm), &f.name, &mut tally);
        }
    }
    // 146 functions and 344 pairs, 132 of them refuted, when written.
    assert!(tally.functions >= 100, "{} functions", tally.functions);
    assert!(
        tally.refuted >= 100,
        "{} of {} pairs refuted",
        tally.refuted,
        tally.pairs
    );
}
