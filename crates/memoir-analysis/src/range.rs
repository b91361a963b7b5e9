//! Ranges and the range lattice (paper Defs. 2–5).
//!
//! A [`Range`] is a contiguous subspace `[lo : hi)` of a sequence's index
//! space, with bounds given by expression trees. Lattice points merge
//! disjunctively (Def. 4: `∨` unions, `[min(l) : max(u)]`) or conjunctively
//! (Def. 5: `∧` intersects, `[max(l) : min(u)]`).

use crate::exprtree::{Affine, Expr};

/// A contiguous index-space range `[lo : hi)` with symbolic bounds.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: Expr,
    /// Exclusive upper bound.
    pub hi: Expr,
}

impl Range {
    /// Creates a range from bounds.
    pub fn new(lo: Expr, hi: Expr) -> Self {
        Range { lo, hi }
    }

    /// The empty range `[0 : 0)`.
    pub fn empty() -> Self {
        Range {
            lo: Expr::constant(0),
            hi: Expr::constant(0),
        }
    }

    /// The full range `[0 : end)` — the default Alg. 1 assigns to
    /// unresolved cycle members.
    pub fn full() -> Self {
        Range {
            lo: Expr::constant(0),
            hi: Expr::end(),
        }
    }

    /// A singleton range `[e : e+1)`.
    pub fn singleton(e: Expr) -> Self {
        let hi = e.offset(1);
        Range { lo: e, hi }
    }

    /// A constant range.
    pub fn constant(lo: i64, hi: i64) -> Self {
        Range {
            lo: Expr::constant(lo),
            hi: Expr::constant(hi),
        }
    }

    /// Whether this is syntactically the empty constant range. Unknown
    /// bounds are never empty — `[? : ?)` widens to `[0 : end)`, the
    /// opposite of empty.
    pub fn is_empty_const(&self) -> bool {
        match (self.lo.as_const(), self.hi.as_const()) {
            (Some(l), Some(h)) => l >= h,
            _ => {
                // [e : e) for identical symbolic bounds.
                self.lo == self.hi && self.lo != Expr::Unknown
            }
        }
    }

    /// Whether this is syntactically the full range `[0 : end)`.
    pub fn is_full(&self) -> bool {
        (self.lo.is_const(0) || self.lo == Expr::Unknown)
            && (self.hi.is_end() || self.hi == Expr::Unknown)
    }

    /// Disjunctive merge (Def. 4): `[min(l₁,l₂) : max(u₁,u₂))`. Empty
    /// ranges are the identity (and two empties merge to the canonical
    /// empty), keeping the operation commutative and associative.
    pub fn join(&self, other: &Range) -> Range {
        match (self.is_empty_const(), other.is_empty_const()) {
            (true, true) => Range::empty(),
            (true, false) => other.clone(),
            (false, true) => self.clone(),
            (false, false) => Range {
                lo: Expr::min2(self.lo.clone(), other.lo.clone()),
                hi: Expr::max2(self.hi.clone(), other.hi.clone()),
            },
        }
    }

    /// Conjunctive merge (Def. 5): `[max(l₁,l₂) : min(u₁,u₂))`.
    pub fn meet(&self, other: &Range) -> Range {
        Range {
            lo: Expr::max2(self.lo.clone(), other.lo.clone()),
            hi: Expr::min2(self.hi.clone(), other.hi.clone()),
        }
    }

    /// Shifts both bounds by an affine delta (Table I's `± i` transfers).
    pub fn shift(&self, delta: &Affine) -> Range {
        Range {
            lo: self.lo.add(delta),
            hi: self.hi.add(delta),
        }
    }

    /// Shifts by a constant.
    pub fn shift_const(&self, c: i64) -> Range {
        self.shift(&Affine::constant(c))
    }

    /// Clamps the lower bound at zero: index spaces are non-negative, so
    /// `[-1 : u)` denotes the same live elements as `[0 : u)`. Needed
    /// before materializing bounds as (unsigned) `index` values.
    pub fn clamp_lo_zero(&self) -> Range {
        let lo = match self.lo.as_const() {
            Some(c) if c < 0 => Expr::constant(0),
            Some(_) => self.lo.clone(),
            None => Expr::max2(Expr::constant(0), self.lo.clone()),
        };
        Range {
            lo,
            hi: self.hi.clone(),
        }
    }

    /// Replaces `Unknown` bounds with their widened meaning
    /// (`lo → 0`, `hi → end`).
    pub fn widened(&self) -> Range {
        Range {
            lo: if self.lo == Expr::Unknown {
                Expr::constant(0)
            } else {
                self.lo.clone()
            },
            hi: if self.hi == Expr::Unknown {
                Expr::end()
            } else {
                self.hi.clone()
            },
        }
    }

    /// Applies a substitution to both bounds.
    pub fn substitute(&self, map: &dyn Fn(crate::exprtree::Term) -> Option<Expr>) -> Range {
        Range {
            lo: self.lo.substitute(map),
            hi: self.hi.substitute(map),
        }
    }

    /// Structural size of the bound expressions — used for widening
    /// heuristics in the cycle resolver.
    pub fn complexity(&self) -> usize {
        fn size(e: &Expr) -> usize {
            match e {
                Expr::Affine(a) => 1 + a.terms.len(),
                Expr::Min(es) | Expr::Max(es) => 1 + es.iter().map(size).sum::<usize>(),
                Expr::Unknown => 1,
            }
        }
        size(&self.lo) + size(&self.hi)
    }
}

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} : {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_unions() {
        let a = Range::constant(2, 5);
        let b = Range::constant(4, 9);
        let j = a.join(&b);
        assert_eq!(j, Range::constant(2, 9));
    }

    #[test]
    fn meet_intersects() {
        let a = Range::constant(2, 5);
        let b = Range::constant(4, 9);
        let m = a.meet(&b);
        assert_eq!(m, Range::constant(4, 5));
    }

    #[test]
    fn join_with_empty_is_identity() {
        let a = Range::constant(2, 5);
        assert_eq!(a.join(&Range::empty()), a);
        assert_eq!(Range::empty().join(&a), a);
    }

    #[test]
    fn full_detection() {
        assert!(Range::full().is_full());
        assert!(!Range::constant(0, 5).is_full());
        let widened = Range::new(Expr::Unknown, Expr::Unknown).widened();
        assert!(widened.is_full());
    }

    #[test]
    fn shift_moves_both_bounds() {
        let a = Range::constant(2, 5).shift_const(3);
        assert_eq!(a, Range::constant(5, 8));
    }

    #[test]
    fn symbolic_join_builds_minmax() {
        let a = Range::new(
            Expr::constant(0),
            Expr::value(memoir_ir::ValueId::from_raw(7)),
        );
        let b = Range::constant(0, 1);
        let j = a.join(&b);
        assert!(j.lo.is_const(0));
        assert!(matches!(j.hi, Expr::Max(_)));
    }

    #[test]
    fn lattice_laws_on_constants() {
        let a = Range::constant(1, 4);
        let b = Range::constant(2, 6);
        let c = Range::constant(0, 3);
        // Commutativity.
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.meet(&b), b.meet(&a));
        // Associativity.
        assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        // Idempotence.
        assert_eq!(a.join(&a), a);
        assert_eq!(a.meet(&a), a);
    }

    #[test]
    fn substitute_maps_both_bounds() {
        let v = memoir_ir::ValueId::from_raw(3);
        let r = Range::new(Expr::value(v), Expr::end());
        let sub = r.substitute(&|t| match t {
            crate::exprtree::Term::Value(_) => Some(Expr::constant(0)),
            crate::exprtree::Term::End => Some(Expr::constant(8)),
        });
        assert_eq!(sub, Range::constant(0, 8));
    }
}
