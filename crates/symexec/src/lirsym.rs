//! Bounded path enumeration over lir functions.
//!
//! The engine is `lir::Machine` itself, run in the symbolic domain:
//! memory cells and host-table values hold terms over the entry
//! function's parameters, while every word the machine must know
//! concretely (an address, a length, a key, a handle, an rmw opcode, a
//! branch condition) is pinned by the path condition or forked on when
//! its interval is narrow enough, and is [`SymError::Unsupported`]
//! otherwise.
//!
//! This works because `memoir-lower` emits all layout arithmetic over
//! values the repr/range analyses proved small: the path condition
//! accumulated from the lowered bounds checks pins indices tightly
//! enough for the solver's intervals to enumerate them.

use crate::domain::{explore, Stop, Sym};
use crate::term::{TermId, TermPool};
use crate::{Budget, Path, PathEnd, SymError};
use lir::{Alu, Domain, Fun, LirStats, Machine, Module};
use memoir_ir::{BinOp, CmpOp, Type};

impl Domain for Sym<'_> {
    type Word = TermId;
    type Stop = Stop;

    fn tick(&mut self, _: &LirStats) -> Result<(), Stop> {
        self.count_op()
    }

    fn konst(&mut self, c: i64) -> TermId {
        self.pool.konst(c)
    }

    /// Forks on a possibly-zero divisor.
    fn alu(&mut self, op: Alu, x: TermId, y: TermId) -> Result<TermId, Stop> {
        let op = match op {
            Alu::Bin(op) => memoir_binop(op),
            Alu::Min => BinOp::Min,
            Alu::Max => BinOp::Max,
        };
        if matches!(op, BinOp::Div | BinOp::Rem) {
            let eqz = self.is_zero(y);
            if self.decide(eqz)? {
                return Err(Stop::Trap); // DivByZero
            }
        }
        self.pool.bin(op, x, y).map_err(|_| Stop::Trap)
    }

    fn cmp(&mut self, op: lir::CmpOp, x: TermId, y: TermId) -> TermId {
        let op = match op {
            lir::CmpOp::Eq => CmpOp::Eq,
            lir::CmpOp::Ne => CmpOp::Ne,
            lir::CmpOp::Lt => CmpOp::Lt,
            lir::CmpOp::Le => CmpOp::Le,
            lir::CmpOp::Gt => CmpOp::Gt,
            lir::CmpOp::Ge => CmpOp::Ge,
        };
        // lir comparisons are always signed.
        self.pool.cmp(op, false, x, y)
    }

    fn resolve(&mut self, t: TermId) -> Result<i64, Stop> {
        self.pin(t, "wide symbolic address/length")
    }

    /// Whether `t != 0` on this path (the lir branch-taken condition).
    fn truth(&mut self, t: TermId) -> Result<bool, Stop> {
        self.decide(t)
    }
}

fn memoir_binop(op: lir::BinOp) -> BinOp {
    match op {
        lir::BinOp::Add => BinOp::Add,
        lir::BinOp::Sub => BinOp::Sub,
        lir::BinOp::Mul => BinOp::Mul,
        lir::BinOp::Div => BinOp::Div,
        lir::BinOp::Rem => BinOp::Rem,
        lir::BinOp::And => BinOp::And,
        lir::BinOp::Or => BinOp::Or,
        lir::BinOp::Xor => BinOp::Xor,
        lir::BinOp::Shl => BinOp::Shl,
        lir::BinOp::Shr => BinOp::Shr,
    }
}

/// Enumerates all feasible paths of `fun`, with its parameters symbolic.
/// `pool.param_tys` should carry the *source-level* parameter types (the
/// MEMOIR signature the function was lowered from) so witness search and
/// interval seeding stay inside the domain both IRs agree on; missing
/// entries are padded with `I64`.
pub fn enumerate_lir(
    module: &Module,
    fun: Fun,
    pool: &mut TermPool,
    budget: &Budget,
) -> Result<Vec<Path>, SymError> {
    let num_params = module.funcs[fun.0 as usize].num_params;
    while pool.param_tys.len() < num_params as usize {
        pool.param_tys.push(Type::I64);
    }
    let params: Vec<TermId> = (0..num_params).map(|i| pool.param(i)).collect();
    let mut machine = Machine::with_zero(module, pool.konst(0));
    if machine.enter(fun, &params).is_err() {
        let end = PathEnd::Trap;
        return Ok(vec![Path { cond: vec![], end }]);
    }
    explore(pool, budget, false, machine, |m, sym| m.exec(sym))
}
