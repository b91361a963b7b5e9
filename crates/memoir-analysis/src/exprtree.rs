//! Expression trees (paper Def. 1) in a canonical affine form.
//!
//! Ranges of sequences are described by expression trees over constants,
//! SSA values, and the symbolic `end` (the sequence size). To make the
//! lattice operations of Defs. 4–5 structurally idempotent, expressions are
//! kept canonical:
//!
//! * affine combinations (`c + Σ coeffᵢ·termᵢ`) are flattened into
//!   [`Affine`] with sorted terms;
//! * `min`/`max` nodes are n-ary, flattened, sorted, and deduplicated;
//! * `Unknown` (⊤ in the widening direction) absorbs.
//!
//! The partial order of Def. 1 (`t₁ ⊑ t₂` iff `t₂` contains `t₁` as a
//! subtree) is exposed as [`Expr::contains`].

use memoir_ir::ValueId;
use std::collections::BTreeMap;
use std::fmt;

/// An atomic symbolic term.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An SSA value of `index` (or integer) type in the analyzed function.
    Value(ValueId),
    /// The size of the sequence the range refers to (`end`).
    End,
}

/// A canonical affine expression: `konst + Σ coeff·term`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Affine {
    /// Constant part.
    pub konst: i64,
    /// Symbolic terms with non-zero coefficients, sorted by term.
    pub terms: BTreeMap<Term, i64>,
}

impl Affine {
    /// The constant affine expression.
    pub fn constant(c: i64) -> Self {
        Affine {
            konst: c,
            terms: BTreeMap::new(),
        }
    }

    /// A single symbolic term.
    pub fn term(t: Term) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(t, 1);
        Affine { konst: 0, terms }
    }

    /// Whether this is a pure constant.
    pub fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.konst)
    }

    /// Sum of two affine expressions.
    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.konst += other.konst;
        for (&t, &c) in &other.terms {
            let e = out.terms.entry(t).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(&t);
            }
        }
        out
    }

    /// Negation.
    pub fn neg(&self) -> Affine {
        Affine {
            konst: -self.konst,
            terms: self.terms.iter().map(|(&t, &c)| (t, -c)).collect(),
        }
    }

    /// Adds a constant.
    pub fn offset(&self, c: i64) -> Affine {
        let mut out = self.clone();
        out.konst += c;
        out
    }

    /// `self - other` when both have identical symbolic parts; the constant
    /// difference if comparable.
    pub fn const_difference(&self, other: &Affine) -> Option<i64> {
        (self.terms == other.terms).then(|| self.konst - other.konst)
    }
}

/// A canonical expression tree.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// An affine combination of terms.
    Affine(Affine),
    /// n-ary minimum (sorted, deduplicated, flattened).
    Min(Vec<Expr>),
    /// n-ary maximum (sorted, deduplicated, flattened).
    Max(Vec<Expr>),
    /// Unknown (widens: as a lower bound it means 0, as an upper bound it
    /// means `end`).
    Unknown,
}

impl Expr {
    /// Constant expression.
    pub fn constant(c: i64) -> Expr {
        Expr::Affine(Affine::constant(c))
    }

    /// Value term.
    pub fn value(v: ValueId) -> Expr {
        Expr::Affine(Affine::term(Term::Value(v)))
    }

    /// The symbolic `end`.
    pub fn end() -> Expr {
        Expr::Affine(Affine::term(Term::End))
    }

    /// Whether this is exactly the constant `c`.
    pub fn is_const(&self, c: i64) -> bool {
        matches!(self, Expr::Affine(a) if a.as_const() == Some(c))
    }

    /// The constant value, if this is a pure constant.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Expr::Affine(a) => a.as_const(),
            _ => None,
        }
    }

    /// Whether this is exactly the symbolic `end`.
    pub fn is_end(&self) -> bool {
        matches!(self, Expr::Affine(a) if a.konst == 0
            && a.terms.len() == 1
            && a.terms.get(&Term::End) == Some(&1))
    }

    /// Adds an affine delta to the expression (distributes over min/max).
    pub fn add(&self, delta: &Affine) -> Expr {
        match self {
            Expr::Affine(a) => Expr::Affine(a.add(delta)),
            Expr::Min(es) => Expr::min_of(es.iter().map(|e| e.add(delta)).collect()),
            Expr::Max(es) => Expr::max_of(es.iter().map(|e| e.add(delta)).collect()),
            Expr::Unknown => Expr::Unknown,
        }
    }

    /// Adds a constant offset.
    pub fn offset(&self, c: i64) -> Expr {
        self.add(&Affine::constant(c))
    }

    /// Canonical n-ary minimum.
    pub fn min_of(es: Vec<Expr>) -> Expr {
        Self::fold_minmax(es, true)
    }

    /// Canonical n-ary maximum.
    pub fn max_of(es: Vec<Expr>) -> Expr {
        Self::fold_minmax(es, false)
    }

    /// Binary minimum.
    pub fn min2(a: Expr, b: Expr) -> Expr {
        Expr::min_of(vec![a, b])
    }

    /// Binary maximum.
    pub fn max2(a: Expr, b: Expr) -> Expr {
        Expr::max_of(vec![a, b])
    }

    fn fold_minmax(es: Vec<Expr>, is_min: bool) -> Expr {
        // Fully flatten nested same-kind nodes first, so every member —
        // constants included — goes through one collapse pass.
        let mut flat: Vec<Expr> = Vec::new();
        let mut stack = es;
        while let Some(e) = stack.pop() {
            match e {
                Expr::Unknown => return Expr::Unknown,
                Expr::Min(inner) if is_min => stack.extend(inner),
                Expr::Max(inner) if !is_min => stack.extend(inner),
                other => flat.push(other),
            }
        }
        flat.sort();
        // Comparable affine pairs collapse (same terms ⇒ keep the better
        // constant); pure constants are affines with no terms and collapse
        // the same way.
        let mut kept: Vec<Expr> = Vec::new();
        'outer: for e in flat {
            if let Expr::Affine(a) = &e {
                for k in kept.iter_mut() {
                    if let Expr::Affine(b) = k {
                        if let Some(diff) = a.const_difference(b) {
                            let take_new = if is_min { diff < 0 } else { diff > 0 };
                            if take_new {
                                *k = e.clone();
                            }
                            continue 'outer;
                        }
                    }
                }
            }
            kept.push(e);
        }
        kept.sort();
        kept.dedup();
        match kept.len() {
            0 => Expr::Unknown,
            1 => kept.pop().unwrap(),
            _ => {
                if is_min {
                    Expr::Min(kept)
                } else {
                    Expr::Max(kept)
                }
            }
        }
    }

    /// Def. 1 partial order: whether `sub` occurs as a subtree of `self`.
    pub fn contains(&self, sub: &Expr) -> bool {
        if self == sub {
            return true;
        }
        match self {
            Expr::Min(es) | Expr::Max(es) => es.iter().any(|e| e.contains(sub)),
            _ => false,
        }
    }

    /// All SSA values referenced by the expression.
    pub fn values(&self) -> Vec<ValueId> {
        let mut out = Vec::new();
        self.collect_values(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_values(&self, out: &mut Vec<ValueId>) {
        match self {
            Expr::Affine(a) => {
                for t in a.terms.keys() {
                    if let Term::Value(v) = t {
                        out.push(*v);
                    }
                }
            }
            Expr::Min(es) | Expr::Max(es) => {
                for e in es {
                    e.collect_values(out);
                }
            }
            Expr::Unknown => {}
        }
    }

    /// Substitutes terms via the provided map, leaving unmapped terms
    /// intact. Used to rebind `end` across index-space changes (Table I)
    /// and to import a callee's write-range summary at a call site.
    pub fn substitute(&self, map: &dyn Fn(Term) -> Option<Expr>) -> Expr {
        match self {
            Expr::Affine(a) => {
                let mut acc = Expr::constant(a.konst);
                for (&t, &coeff) in &a.terms {
                    let sub = map(t);
                    match sub {
                        Some(e) => {
                            // Only coefficient ±1 substitution of non-affine
                            // expressions is exact; other coefficients over
                            // min/max widen.
                            match (&e, coeff) {
                                (Expr::Affine(ae), _) => {
                                    let mut scaled = Affine {
                                        konst: ae.konst * coeff,
                                        ..Default::default()
                                    };
                                    for (&tt, &cc) in &ae.terms {
                                        scaled.terms.insert(tt, cc * coeff);
                                    }
                                    acc = acc.add_expr(&Expr::Affine(scaled));
                                }
                                (_, 1) => acc = acc.add_expr(&e),
                                _ => return Expr::Unknown,
                            }
                        }
                        None => {
                            let mut one = Affine::default();
                            one.terms.insert(t, coeff);
                            acc = acc.add_expr(&Expr::Affine(one));
                        }
                    }
                }
                acc
            }
            Expr::Min(es) => Expr::min_of(es.iter().map(|e| e.substitute(map)).collect()),
            Expr::Max(es) => Expr::max_of(es.iter().map(|e| e.substitute(map)).collect()),
            Expr::Unknown => Expr::Unknown,
        }
    }

    /// Adds another expression (exact only when at least one side is
    /// affine; otherwise widens to [`Expr::Unknown`]).
    pub fn add_expr(&self, other: &Expr) -> Expr {
        match (self, other) {
            (Expr::Affine(a), e) | (e, Expr::Affine(a)) => e.add(a),
            _ => Expr::Unknown,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Affine(a) => {
                let mut first = true;
                if a.konst != 0 || a.terms.is_empty() {
                    write!(f, "{}", a.konst)?;
                    first = false;
                }
                for (t, c) in &a.terms {
                    if !first {
                        write!(f, "{}", if *c >= 0 { " + " } else { " - " })?;
                    } else if *c < 0 {
                        write!(f, "-")?;
                    }
                    first = false;
                    let mag = c.abs();
                    if mag != 1 {
                        write!(f, "{mag}*")?;
                    }
                    match t {
                        Term::Value(v) => write!(f, "{v}")?,
                        Term::End => write!(f, "end")?,
                    }
                }
                Ok(())
            }
            Expr::Min(es) => {
                write!(f, "min(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Max(es) => {
                write!(f, "max(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Unknown => write!(f, "?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> ValueId {
        ValueId::from_raw(n)
    }

    #[test]
    fn affine_arithmetic() {
        let a = Affine::term(Term::Value(v(1))).offset(3);
        let b = Affine::term(Term::Value(v(1))).neg();
        let sum = a.add(&b);
        assert_eq!(sum.as_const(), Some(3));
        assert_eq!(
            a.const_difference(&Affine::term(Term::Value(v(1)))),
            Some(3)
        );
        assert_eq!(a.const_difference(&Affine::term(Term::End)), None);
    }

    #[test]
    fn min_folds_constants() {
        let e = Expr::min_of(vec![Expr::constant(3), Expr::constant(7)]);
        assert!(e.is_const(3));
        let e = Expr::max_of(vec![Expr::constant(3), Expr::constant(7)]);
        assert!(e.is_const(7));
    }

    #[test]
    fn min_is_idempotent_and_commutative() {
        let x = Expr::value(v(5));
        let y = Expr::end();
        assert_eq!(Expr::min2(x.clone(), x.clone()), x);
        assert_eq!(Expr::min2(x.clone(), y.clone()), Expr::min2(y, x));
    }

    #[test]
    fn min_flattens_nested() {
        let x = Expr::value(v(1));
        let y = Expr::value(v(2));
        let z = Expr::value(v(3));
        let nested = Expr::min2(x.clone(), Expr::min2(y.clone(), z.clone()));
        let flat = Expr::min_of(vec![x, y, z]);
        assert_eq!(nested, flat);
    }

    #[test]
    fn comparable_affines_collapse() {
        let x = Expr::value(v(1));
        let x3 = x.offset(3);
        assert_eq!(Expr::min2(x.clone(), x3.clone()), x);
        assert_eq!(Expr::max2(x, x3.clone()), x3);
    }

    #[test]
    fn unknown_absorbs() {
        let x = Expr::value(v(1));
        assert_eq!(Expr::min2(x.clone(), Expr::Unknown), Expr::Unknown);
        assert_eq!(Expr::max2(Expr::Unknown, x), Expr::Unknown);
    }

    #[test]
    fn contains_subtree_order() {
        let x = Expr::value(v(1));
        let y = Expr::end();
        let m = Expr::min2(x.clone(), y.clone());
        assert!(m.contains(&x));
        assert!(m.contains(&y));
        assert!(m.contains(&m));
        assert!(!x.contains(&m));
    }

    #[test]
    fn add_distributes_over_min() {
        let x = Expr::value(v(1));
        let y = Expr::value(v(2));
        let m = Expr::min2(x.clone(), y.clone()).offset(4);
        assert_eq!(m, Expr::min2(x.offset(4), y.offset(4)));
    }

    #[test]
    fn substitution_maps_terms() {
        let e = Expr::value(v(1)).offset(2);
        let sub = e.substitute(&|t| match t {
            Term::Value(_) => Some(Expr::constant(10)),
            _ => None,
        });
        assert!(sub.is_const(12));
        // Unmapped terms survive.
        let e2 = Expr::end().substitute(&|_| None);
        assert!(e2.is_end());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::min2(Expr::end(), Expr::value(v(2)).offset(1));
        let s = e.to_string();
        assert!(s.contains("min("), "{s}");
        assert!(s.contains("end"), "{s}");
    }

    #[test]
    fn values_collected() {
        let e = Expr::min2(Expr::value(v(3)), Expr::value(v(1)).offset(2));
        assert_eq!(e.values(), vec![v(1), v(3)]);
    }
}
