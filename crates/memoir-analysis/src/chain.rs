//! Queries down collection version chains (§IV-B, Listing 1).
//!
//! In SSA form every collection version names the op that made it, so
//! `size`, `has k` and `read k` on a version can be answered from its
//! def-use chain: each op's query row
//! ([`InstKind::query_step`](memoir_ir::InstKind::query_step)) either
//! answers, passes the query to the previous version (with a size
//! delta), or stops. [`walk`] follows the rows back from one version,
//! relating keys by SSA identity, then by constants (index constants
//! compared unsigned), then by disjoint [`IndexRanges`]. Constant
//! propagation applies the answers; fusion merges queries whose walks
//! reach the same version.
//!
//! Mut-form chains stop at the allocation and say nothing about
//! contents, so callers walk SSA-form functions only.

use crate::{IndexRanges, Range};
use memoir_ir::{Constant, Function, KeyRel, Query, QueryStep, Type, TypeTable, ValueDef, ValueId};

/// The most chain steps one walk takes.
const FUEL: usize = 64;

/// What a query's walk found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Walk {
    /// The oldest version the walk reached with the accumulated size
    /// delta back at 0: the query on it has the same answer.
    pub same: ValueId,
    /// The row's answer, [`QueryStep::Operand`] or [`QueryStep::Const`],
    /// with the size delta accumulated down to it.
    pub answer: Option<(QueryStep, i64)>,
}

/// Walks query `q` on version `c` of an SSA-form function down its chain.
pub fn walk(types: &TypeTable, f: &Function, idx: &IndexRanges<'_>, q: Query, c: ValueId) -> Walk {
    let seq = matches!(types.get(f.value_ty(c)), Type::Seq(_));
    let rel = |j: ValueId| match q {
        Query::Size => KeyRel::Unknown,
        Query::Has(k) | Query::Read(k) => relate(f, idx, k, j),
    };
    let (mut at, mut delta, mut same) = (c, 0, c);
    for _ in 0..FUEL {
        let ValueDef::Inst(i, _) = f.values[at].def else {
            break;
        };
        match f.insts[i].kind.query_step(q, seq, rel) {
            QueryStep::Pass(prev, d) => {
                at = prev;
                delta += d;
                if delta == 0 {
                    same = at;
                }
            }
            QueryStep::Stop => break,
            answer => {
                return Walk {
                    same,
                    answer: Some((answer, delta)),
                }
            }
        }
    }
    Walk { same, answer: None }
}

/// How key `k` relates to key `j`.
fn relate(f: &Function, idx: &IndexRanges<'_>, k: ValueId, j: ValueId) -> KeyRel {
    if k == j {
        // Constants are interned, so equal constants are one value.
        return KeyRel::Same;
    }
    match (f.value_const(k), f.value_const(j)) {
        (Some(Constant::Int(Type::Index, a)), Some(Constant::Int(Type::Index, b)))
            if (a as u64) < (b as u64) =>
        {
            KeyRel::Below
        }
        (Some(_), Some(_)) => KeyRel::Unequal,
        _ => {
            // Disjoint constant ranges (hi is exclusive).
            let (a, b) = (idx.range_of(k), idx.range_of(j));
            let below = |x: &Range, y: &Range| {
                let ends = (x.lo.as_const(), x.hi.as_const());
                let starts = (y.lo.as_const(), y.hi.as_const());
                matches!((ends, starts), ((Some(_), Some(hi)), (Some(lo), Some(_))) if hi <= lo)
            };
            if below(&a, &b) || below(&b, &a) {
                KeyRel::Unequal
            } else {
                KeyRel::Unknown
            }
        }
    }
}
