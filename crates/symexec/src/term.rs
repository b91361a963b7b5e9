//! Hash-consed symbolic terms.
//!
//! Scalars are represented as nodes in a term DAG over the function's
//! parameters. The smart constructors normalize as they build: constants
//! fold through the interpreters' own integer table (`memoir_ir`'s
//! [`BinOp::eval`], [`CmpOp::eval`] and [`Type::truncate`]), commutative operands
//! are ordered canonically, and a small set of sound algebraic identities
//! (`x+0`, `x*1`, `x-x`, `min(x,x)`, …) is applied. Hash-consing makes
//! structural equality an id comparison, which is what the equivalence
//! checker leans on: two functions that lower to the same normalized term
//! per path are equal by construction.
//!
//! Most terms the engines build are constants: loop counters, addresses,
//! lengths, keys. A constant in `[-2^30, 2^30)` is carried *inside* its
//! [`TermId`] (top bit set, value in the low 31 bits), so making one,
//! reading it back and folding it touch neither the arena nor the hash
//! map. Every other constant, and every compound term, is interned; no
//! constant is ever both, so each still has exactly one id and equality
//! stays id equality.

use memoir_ir::{BinOp, CmpOp, Type};
use std::collections::HashMap;

/// A reference into the term pool: the index of an interned node, or,
/// with the top bit set, an inline constant in `[-2^30, 2^30)` held in
/// the low 31 bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The tag bit of an inline constant.
    const INLINE: u32 = 1 << 31;

    /// The inline id of `v`, if `v` fits in 31 signed bits.
    fn inline(v: i64) -> Option<TermId> {
        (-(1 << 30)..1 << 30)
            .contains(&v)
            .then_some(TermId(Self::INLINE | (v as u32 & !Self::INLINE)))
    }

    /// The constant an inline id carries (sign-extended from bit 30).
    fn inline_value(self) -> Option<i64> {
        (self.0 & Self::INLINE != 0).then_some(((self.0 << 1) as i32 >> 1) as i64)
    }
}

/// A term node. All terms denote an `i64` machine word; booleans are the
/// words `0`/`1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant word.
    Const(i64),
    /// The `i`-th function parameter (shared across the two functions
    /// being compared).
    Param(u32),
    /// Binary operation with plain wrapping-`i64` semantics (the MEMOIR
    /// interpreter's per-type truncation is a separate [`Term::Trunc`]).
    Bin(BinOp, TermId, TermId),
    /// Comparison producing `0`/`1`. `unsigned` is the operand type's
    /// [`Type::is_unsigned`]; the low-level IR always compares signed.
    Cmp(CmpOp, bool, TermId, TermId),
    /// Truncation to a narrow integer type ([`Type::truncate`]); wide
    /// types never build this node.
    Trunc(Type, TermId),
    /// `if c != 0 { t } else { e }`.
    Select(TermId, TermId, TermId),
}

/// Exact concrete semantics of [`Term::Trunc`]: [`Type::truncate`].
pub fn fold_trunc(t: Type, v: i64) -> i64 {
    t.truncate(v)
}

/// The inclusive `i64` payload domain of an integer parameter type,
/// matching the domains `memoir_lower::synth_args` draws from (the
/// cross-IR agreement contract is only claimed on synthesizable values:
/// `U64` keeps the sign bit clear, `Index` stays in the probe window).
pub fn type_domain(t: Type) -> (i64, i64) {
    match t {
        Type::I8 => (i8::MIN as i64, i8::MAX as i64),
        Type::U8 => (0, u8::MAX as i64),
        Type::I16 => (i16::MIN as i64, i16::MAX as i64),
        Type::U16 => (0, u16::MAX as i64),
        Type::I32 => (i32::MIN as i64, i32::MAX as i64),
        Type::U32 => (0, u32::MAX as i64),
        Type::U64 => (0, i64::MAX),
        Type::Bool => (0, 1),
        Type::Index => (0, 16),
        _ => (i64::MIN, i64::MAX),
    }
}

/// The hash-consing arena. Interning keeps the default (randomly keyed)
/// hasher: the terms come from MEMOIR source that `memoird` accepts from
/// its clients. Inline constants skip the arena and the hasher entirely.
#[derive(Debug, Default)]
pub struct TermPool {
    nodes: Vec<Term>,
    interned: HashMap<Term, TermId>,
    /// Every parameter term with its index, in creation order: the
    /// solver seeds parameter domains from it without scanning `nodes`.
    pub(crate) params: Vec<(u32, TermId)>,
    /// Declared parameter types (seeded by the engines; consulted by the
    /// solver for initial domains and by model search).
    pub param_tys: Vec<Type>,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node behind an id (an inline constant decodes to
    /// [`Term::Const`]).
    pub fn get(&self, t: TermId) -> Term {
        match t.inline_value() {
            Some(v) => Term::Const(v),
            None => self.nodes[t.0 as usize],
        }
    }

    /// Number of interned terms (inline constants are not counted).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn intern(&mut self, t: Term) -> TermId {
        let next = self.nodes.len();
        let id = *self.interned.entry(t).or_insert_with(|| {
            // Node ids must stay clear of the inline-constant tag bit.
            assert!(next < TermId::INLINE as usize, "term pool overflow");
            TermId(next as u32)
        });
        if id.0 as usize == next {
            self.nodes.push(t);
        }
        id
    }

    /// A constant term: inline when it fits, interned otherwise.
    pub fn konst(&mut self, v: i64) -> TermId {
        TermId::inline(v).unwrap_or_else(|| self.intern(Term::Const(v)))
    }

    /// The `i`-th parameter symbol.
    pub fn param(&mut self, i: u32) -> TermId {
        let fresh = self.nodes.len();
        let t = self.intern(Term::Param(i));
        if t.0 as usize == fresh {
            self.params.push((i, t));
        }
        t
    }

    /// The constant behind a term, if it normalized to one.
    pub fn as_const(&self, t: TermId) -> Option<i64> {
        match self.get(t) {
            Term::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Binary operation. `Err(())` when the term is a *certain* division
    /// by zero (the caller turns it into a trap path).
    #[allow(clippy::result_unit_err)] // the unit error *is* the trap marker
    pub fn bin(&mut self, op: BinOp, a: TermId, b: TermId) -> Result<TermId, ()> {
        let (ca, cb) = (self.as_const(a), self.as_const(b));
        if let (Some(x), Some(y)) = (ca, cb) {
            return op.eval(x, y).map(|v| self.konst(v)).ok_or(());
        }
        // Sound identities on the known-constant side.
        match (op, ca, cb) {
            (BinOp::Add | BinOp::Or | BinOp::Xor, Some(0), _) => return Ok(b),
            (
                BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr,
                _,
                Some(0),
            ) => return Ok(a),
            (BinOp::Mul, Some(1), _) => return Ok(b),
            (BinOp::Mul | BinOp::Div, _, Some(1)) => return Ok(a),
            (BinOp::Mul | BinOp::And, Some(0), _) | (BinOp::Mul | BinOp::And, _, Some(0)) => {
                return Ok(self.konst(0))
            }
            _ => {}
        }
        if a == b {
            match op {
                BinOp::Sub | BinOp::Xor => return Ok(self.konst(0)),
                BinOp::And | BinOp::Or | BinOp::Min | BinOp::Max => return Ok(a),
                _ => {}
            }
        }
        // Canonical operand order for commutative operations.
        let (a, b) = match op {
            BinOp::Add
            | BinOp::Mul
            | BinOp::And
            | BinOp::Or
            | BinOp::Xor
            | BinOp::Min
            | BinOp::Max
                if b < a =>
            {
                (b, a)
            }
            _ => (a, b),
        };
        Ok(self.intern(Term::Bin(op, a, b)))
    }

    /// Comparison producing a `0`/`1` term.
    pub fn cmp(&mut self, op: CmpOp, unsigned: bool, a: TermId, b: TermId) -> TermId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let v = op.eval(unsigned, x, y);
            return self.konst(v as i64);
        }
        if a == b {
            let v = matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge);
            return self.konst(v as i64);
        }
        // Canonical operand order (swap flips the comparison).
        let (op, a, b) = if b < a {
            (op.swapped(), b, a)
        } else {
            (op, a, b)
        };
        self.intern(Term::Cmp(op, unsigned, a, b))
    }

    /// Truncation to an integer type.
    pub fn trunc(&mut self, t: Type, v: TermId) -> TermId {
        if !t.is_narrow() {
            return v;
        }
        if let Some(x) = self.as_const(v) {
            return self.konst(t.truncate(x));
        }
        if let Term::Trunc(inner_t, _) = self.get(v) {
            if inner_t == t {
                return v;
            }
        }
        self.intern(Term::Trunc(t, v))
    }

    /// `if c != 0 { t } else { e }`.
    pub fn select(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        if let Some(cv) = self.as_const(c) {
            return if cv != 0 { t } else { e };
        }
        if t == e {
            return t;
        }
        self.intern(Term::Select(c, t, e))
    }

    /// Exact concrete evaluation under a parameter assignment. `None` on
    /// division by zero (the corresponding execution would trap).
    pub fn eval(&self, t: TermId, params: &[i64]) -> Option<i64> {
        match self.get(t) {
            Term::Const(v) => Some(v),
            Term::Param(i) => params.get(i as usize).copied(),
            Term::Bin(op, a, b) => {
                let (x, y) = (self.eval(a, params)?, self.eval(b, params)?);
                op.eval(x, y)
            }
            Term::Cmp(op, unsigned, a, b) => {
                let (x, y) = (self.eval(a, params)?, self.eval(b, params)?);
                Some(op.eval(unsigned, x, y) as i64)
            }
            Term::Trunc(ty, a) => Some(ty.truncate(self.eval(a, params)?)),
            Term::Select(c, a, b) => {
                if self.eval(c, params)? != 0 {
                    self.eval(a, params)
                } else {
                    self.eval(b, params)
                }
            }
        }
    }

    /// All parameter indices a term mentions.
    pub fn params_of(&self, t: TermId, out: &mut Vec<u32>) {
        match self.get(t) {
            Term::Const(_) => {}
            Term::Param(i) => {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
            Term::Bin(_, a, b) | Term::Cmp(_, _, a, b) => {
                self.params_of(a, out);
                self.params_of(b, out);
            }
            Term::Trunc(_, a) => self.params_of(a, out),
            Term::Select(c, a, b) => {
                self.params_of(c, out);
                self.params_of(a, out);
                self.params_of(b, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold_with_interp_semantics() {
        let mut p = TermPool::new();
        let a = p.konst(i64::MAX);
        let b = p.konst(1);
        let s = p.bin(BinOp::Add, a, b).unwrap();
        assert_eq!(p.as_const(s), Some(i64::MIN), "wrapping add");
        let z = p.konst(0);
        assert!(p.bin(BinOp::Div, a, z).is_err(), "division by zero traps");
        let c65 = p.konst(65);
        let sh = p.bin(BinOp::Shl, b, c65).unwrap();
        assert_eq!(p.as_const(sh), Some(1i64.wrapping_shl(65)), "shift masks");
    }

    #[test]
    fn hash_consing_makes_equality_structural() {
        let mut p = TermPool::new();
        let x = p.param(0);
        let y = p.param(1);
        let a = p.bin(BinOp::Add, x, y).unwrap();
        let b = p.bin(BinOp::Add, y, x).unwrap();
        assert_eq!(a, b, "commutative canonical order");
        let c1 = p.cmp(CmpOp::Lt, false, x, y);
        let c2 = p.cmp(CmpOp::Gt, false, y, x);
        assert_eq!(c1, c2, "swapped comparison canonicalizes");
    }

    #[test]
    fn identities_are_sound() {
        let mut p = TermPool::new();
        let x = p.param(0);
        let zero = p.konst(0);
        let one = p.konst(1);
        assert_eq!(p.bin(BinOp::Add, x, zero).unwrap(), x);
        assert_eq!(p.bin(BinOp::Mul, x, one).unwrap(), x);
        assert_eq!(p.bin(BinOp::Sub, x, x).unwrap(), zero);
        assert_eq!(p.bin(BinOp::Min, x, x).unwrap(), x);
        let t = p.trunc(Type::I64, x);
        assert_eq!(t, x, "wide truncation is the identity");
    }

    #[test]
    fn eval_matches_folding() {
        let mut p = TermPool::new();
        let x = p.param(0);
        let y = p.param(1);
        let c3 = p.konst(3);
        let prod = p.bin(BinOp::Mul, x, c3).unwrap();
        let sum = p.bin(BinOp::Add, prod, y).unwrap();
        assert_eq!(p.eval(sum, &[5, 7]), Some(22));
        let div = p.bin(BinOp::Div, x, y).unwrap();
        assert_eq!(p.eval(div, &[5, 0]), None, "trap evaluates to None");
        let t8 = p.trunc(Type::I8, sum);
        assert_eq!(p.eval(t8, &[100, 100]), Some(fold_trunc(Type::I8, 400)));
    }

    const LO: i64 = -(1 << 30);
    const HI: i64 = (1 << 30) - 1;

    #[test]
    fn small_constants_are_inline_and_the_rest_interned() {
        let mut p = TermPool::new();
        for v in [LO, -1, 0, 1, HI] {
            let t = p.konst(v);
            assert_eq!(t.inline_value(), Some(v), "{v} is inline");
        }
        assert_eq!(p.len(), 0, "inline constants leave the arena alone");
        for (i, v) in [LO - 1, HI + 1, i64::MIN, i64::MAX].into_iter().enumerate() {
            let t = p.konst(v);
            assert_eq!(t.inline_value(), None, "{v} is interned");
            assert_eq!(p.len(), i + 1, "{v} takes one node");
        }
    }

    #[test]
    fn each_constant_has_one_id() {
        let mut p = TermPool::new();
        for v in [LO - 1, LO, 0, HI, HI + 1, i64::MIN, i64::MAX] {
            let (a, b) = (p.konst(v), p.konst(v));
            assert_eq!(a, b, "konst({v}) twice");
        }
        assert_eq!(p.len(), 4, "only the four out-of-range constants intern");
    }

    #[test]
    fn decoding_agrees_on_both_kinds_of_id() {
        let mut p = TermPool::new();
        for v in [LO - 1, LO, -7, 0, 42, HI, HI + 1, i64::MIN, i64::MAX] {
            let t = p.konst(v);
            assert_eq!(p.get(t), Term::Const(v));
            assert_eq!(p.as_const(t), Some(v));
            assert_eq!(p.eval(t, &[]), Some(v));
        }
    }

    #[test]
    fn folding_across_the_inline_boundary_hash_conses() {
        let mut p = TermPool::new();
        let (hi, one) = (p.konst(HI), p.konst(1));
        let sum = p.bin(BinOp::Add, hi, one).unwrap();
        assert_eq!(sum, p.konst(HI + 1), "(2^30 - 1) + 1 is the interned 2^30");
        let back = p.bin(BinOp::Sub, sum, one).unwrap();
        assert_eq!(back, hi, "2^30 - 1 folds back to the inline id");
    }

    #[test]
    fn commuted_operands_hash_cons_with_either_kind_of_constant() {
        let mut p = TermPool::new();
        let x = p.param(0);
        for v in [5, HI + 1] {
            let c = p.konst(v);
            let xc = p.bin(BinOp::Add, x, c).unwrap();
            let cx = p.bin(BinOp::Add, c, x).unwrap();
            assert_eq!(xc, cx, "x + {v} and {v} + x");
            assert_eq!(p.eval(xc, &[3]), Some(3i64.wrapping_add(v)));
        }
    }

    #[test]
    fn trunc_of_trunc_collapses() {
        let mut p = TermPool::new();
        let x = p.param(0);
        let t1 = p.trunc(Type::U8, x);
        let t2 = p.trunc(Type::U8, t1);
        assert_eq!(t1, t2);
    }
}
