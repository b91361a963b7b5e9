//! The MEMOIR enumerator refuses a float constant only on a path that
//! reads it. Each function's constants are materialized once per
//! machine, when the function is first entered; the symbolic domain
//! cannot hold a float, so it leaves that constant out of the table and
//! refuses it where a path reads it. A function whose float sits on a
//! branch no path takes, or is never read, still enumerates.

use memoir_interp::{Interp, Value};
use memoir_ir::{CmpOp, Form, Module, ModuleBuilder, Type, ValueId};
use symexec::{enumerate_memoir, predict, seed_params, Budget, PathEnd, SymError};

/// Where `f(x: i64) -> i64` keeps its float constant 2.5.
#[derive(Clone, Copy)]
enum Float {
    /// Converted to an integer and returned on a branch whose condition
    /// is the constant `false`; every path returns `x + 1`.
    Untaken,
    /// In the function's value arena, read by no instruction; `f`
    /// returns `x + 1`.
    Unused,
    /// Converted to an integer and returned when `x < 3`; otherwise `f`
    /// returns `x + 1`.
    Reached,
}

fn module(float: Float) -> Module {
    let mut mb = ModuleBuilder::new("m");
    mb.func("f", Form::Ssa, |b| {
        let i64t = b.ty(Type::I64);
        let x = b.param("x", i64t);
        b.returns(&[i64t]);
        let (floats, plain) = (b.block("floats"), b.block("plain"));
        let cond: ValueId = match float {
            Float::Untaken => b.bool(false),
            Float::Unused => {
                b.f64(2.5);
                b.bool(false)
            }
            Float::Reached => {
                let three = b.i64(3);
                b.cmp(CmpOp::Lt, x, three)
            }
        };
        b.branch(cond, floats, plain);
        b.switch_to(floats);
        let f = b.f64(2.5);
        let i = b.cast(Type::I64, f);
        b.ret(vec![i]);
        b.switch_to(plain);
        let one = b.i64(1);
        let y = b.add(x, one);
        b.ret(vec![y]);
    });
    mb.finish()
}

/// What `enumerate` reports of `f`'s paths: the literals in all their
/// conditions, how each ends, and `f(x)` predicted through them.
type Summary = (usize, Vec<PathEnd>, Option<Vec<i64>>);

/// `f`'s paths, with `f` evaluated on `x` through them.
fn enumerate(m: &Module, x: i64) -> Result<Summary, SymError> {
    let fid = m.func_by_name("f").unwrap();
    let mut pool = seed_params(m, fid).unwrap();
    let paths = enumerate_memoir(m, fid, &mut pool, &Budget::default())?;
    let prediction = predict(&pool, &paths, &[x]).and_then(Result::ok);
    let conds = paths.iter().map(|p| p.cond.len()).sum();
    Ok((
        conds,
        paths.into_iter().map(|p| p.end).collect(),
        prediction,
    ))
}

fn run(m: &Module, x: i64) -> Vec<Value> {
    Interp::new(m)
        .run_by_name("f", vec![Value::Int(Type::I64, x)])
        .unwrap()
}

#[test]
fn a_float_on_a_branch_no_path_takes_is_never_refused() {
    let m = module(Float::Untaken);
    let (conds, ends, prediction) = enumerate(&m, 5).unwrap();
    assert_eq!(conds, 0, "a constant branch forks nothing");
    assert!(matches!(ends[..], [PathEnd::Ret(_)]), "{ends:?}");
    assert_eq!(prediction, Some(vec![6]));
    assert_eq!(run(&m, 5), vec![Value::Int(Type::I64, 6)]);
}

#[test]
fn a_float_no_instruction_reads_is_never_refused() {
    let m = module(Float::Unused);
    let (conds, ends, prediction) = enumerate(&m, -4).unwrap();
    assert_eq!(conds, 0);
    assert!(matches!(ends[..], [PathEnd::Ret(_)]), "{ends:?}");
    assert_eq!(prediction, Some(vec![-3]));
}

#[test]
fn a_float_a_path_reads_is_refused() {
    let m = module(Float::Reached);
    assert_eq!(
        enumerate(&m, 5),
        Err(SymError::Unsupported("float constant"))
    );
    // The concrete domain materializes the float like any constant.
    assert_eq!(run(&m, 1), vec![Value::Int(Type::I64, 2)]);
    assert_eq!(run(&m, 5), vec![Value::Int(Type::I64, 6)]);
}
