//! Bounded path enumeration over MEMOIR functions.
//!
//! The engine is `memoir_interp::Machine` itself, run in the symbolic
//! domain: integer and boolean payloads are terms over the entry
//! function's parameters. Control splits (branches, possibly-zero
//! divisors, symbolic indices and keys with narrow intervals) fork the
//! execution; everything the term language cannot express precisely
//! (floats, externs, reference ordering, wide symbolic indices, huge
//! collections) aborts enumeration with [`SymError::Unsupported`], which
//! callers treat as "fall back to probing" — never as a verdict.
//!
//! The heap is the interpreter's copy-on-write store: a fork shares every
//! collection and object, a value copy shares its collection, and a
//! write copies only the one collection or object it touches, and only
//! while something shares it.

use crate::domain::{explore, Stop, Sym};
use crate::term::{type_domain, TermId, TermPool};
use crate::{Budget, Path, PathEnd, SymError};
use memoir_interp::{Domain, ExecStats, Machine, Val};
use memoir_ir::{BinOp, CmpOp, FuncId, Module, Type};

/// The largest collection the symbolic heap holds.
const MAX_COLLECTION: u64 = u16::MAX as u64;

impl Domain for Sym<'_> {
    type Int = TermId;
    type Bool = TermId;
    type Stop = Stop;

    fn tick(&mut self, _: &ExecStats) -> Result<(), Stop> {
        self.count_op()
    }

    /// Refuses collections past [`MAX_COLLECTION`] elements: a concrete
    /// interpreter would allocate them, the symbolic heap does not.
    fn guard(&mut self, _: &ExecStats, _: u64, len: u64) -> Result<(), Stop> {
        if len > MAX_COLLECTION {
            return Err(Stop::Unsupported("huge collection"));
        }
        Ok(())
    }

    fn refuse(&mut self, what: &'static str) -> Result<(), Stop> {
        Err(Stop::Unsupported(what))
    }

    fn int(&mut self, c: i64) -> TermId {
        self.pool.konst(c)
    }

    fn boolean(&mut self, b: bool) -> TermId {
        self.pool.konst(b as i64)
    }

    /// Forks on a possibly-zero divisor.
    fn bin(&mut self, op: BinOp, ty: Type, x: TermId, y: TermId) -> Result<TermId, Stop> {
        if matches!(op, BinOp::Div | BinOp::Rem) {
            let eqz = self.is_zero(y);
            if self.decide(eqz)? {
                return Err(Stop::Trap); // DivByZero
            }
        }
        let raw = self.pool.bin(op, x, y).map_err(|_| Stop::Trap)?;
        Ok(self.pool.trunc(ty, raw))
    }

    /// `0`/`1`-valued terms are closed under `and`, `or` and `xor`.
    fn logic(&mut self, op: BinOp, x: TermId, y: TermId) -> TermId {
        self.pool.bin(op, x, y).expect("logic ops never trap")
    }

    fn cmp(&mut self, op: CmpOp, unsigned: bool, x: TermId, y: TermId) -> TermId {
        self.pool.cmp(op, unsigned, x, y)
    }

    fn trunc(&mut self, ty: Type, x: TermId) -> TermId {
        self.pool.trunc(ty, x)
    }

    /// Boolean terms are already `0`/`1`.
    fn widen(&mut self, b: TermId) -> TermId {
        b
    }

    fn nonzero(&mut self, x: TermId) -> TermId {
        let zero = self.pool.konst(0);
        self.pool.cmp(CmpOp::Ne, false, x, zero)
    }

    fn select(&mut self, c: TermId, x: TermId, y: TermId) -> TermId {
        self.pool.select(c, x, y)
    }

    fn select_bool(&mut self, c: TermId, x: TermId, y: TermId) -> TermId {
        self.pool.select(c, x, y)
    }

    fn known(&self, b: TermId) -> Option<bool> {
        self.decided(b)
    }

    fn resolve(&mut self, t: TermId) -> Result<i64, Stop> {
        self.pin(t, "wide symbolic index/length")
    }

    fn truth(&mut self, b: TermId) -> Result<bool, Stop> {
        self.decide(b)
    }
}

/// Enumerates all feasible paths of `fid`, with the entry parameters
/// symbolic. The caller must have seeded `pool.param_tys` with the entry
/// function's (all-scalar, non-float) parameter types.
pub fn enumerate_memoir(
    module: &Module,
    fid: FuncId,
    pool: &mut TermPool,
    budget: &Budget,
) -> Result<Vec<Path>, SymError> {
    let f = &module.funcs[fid];
    let mut args = Vec::with_capacity(f.params.len());
    for (i, p) in f.params.iter().enumerate() {
        let t = pool.param(i as u32);
        args.push(match module.types.get(p.ty) {
            Type::Bool => Val::Bool(t),
            ty if ty.is_integer() => Val::Int(ty, t),
            _ => return Err(SymError::Unsupported("non-integer parameter")),
        });
    }
    let mut args = Some(args);
    explore(pool, budget, true, Machine::fresh(module), |m, sym| {
        // The first run enters the function; forked children resume
        // inside it.
        if let Some(args) = args.take() {
            m.enter(sym, fid, args)?;
        }
        // Entry return: project scalar results to terms.
        m.exec(sym)?
            .into_iter()
            .map(|v| match v {
                Val::Int(_, t) | Val::Bool(t) => Ok(t),
                _ => Err(Stop::Unsupported("non-scalar return")),
            })
            .collect()
    })
}

/// The concrete prediction of a symbolic summary on given arguments: the
/// unique feasible path's return terms evaluated under `args`, or `None`
/// when the path traps / no path matches. Used by the oracle-soundness
/// checks (`sym-unsound` detection).
pub fn predict(pool: &TermPool, paths: &[Path], args: &[i64]) -> Option<Result<Vec<i64>, ()>> {
    for p in paths {
        let matches = p.cond.iter().all(|&(t, truth)| {
            pool.eval(t, args)
                .map(|v| (v != 0) == truth)
                // A trap while evaluating the condition means the path
                // prefix itself traps; the path is not taken.
                .unwrap_or(false)
        });
        if !matches {
            continue;
        }
        return Some(match &p.end {
            PathEnd::Trap => Err(()),
            PathEnd::Ret(terms) => {
                let mut out = Vec::with_capacity(terms.len());
                for &t in terms {
                    match pool.eval(t, args) {
                        Some(v) => out.push(v),
                        None => return Some(Err(())),
                    }
                }
                Ok(out)
            }
        });
    }
    None
}

/// Seeds a pool with a function's parameter types (must all be scalar
/// integers or bools). Returns `None` when the signature is ineligible.
pub fn seed_params(module: &Module, fid: FuncId) -> Option<TermPool> {
    let f = &module.funcs[fid];
    let mut pool = TermPool::new();
    for p in &f.params {
        let ty = module.types.get(p.ty);
        if !(ty.is_integer() || ty == Type::Bool) {
            return None;
        }
        pool.param_tys.push(ty);
    }
    for rt in &f.ret_tys {
        let ty = module.types.get(*rt);
        if !(ty.is_integer() || ty == Type::Bool) {
            return None;
        }
    }
    Some(pool)
}

/// Parameter domains matching the typed-probe synthesizer: used to keep
/// witness search inside values both IRs agree on.
pub fn param_domains(pool: &TermPool) -> Vec<(i64, i64)> {
    pool.param_tys.iter().map(|&t| type_domain(t)).collect()
}
