//! The in-tree path-condition solver: interval and congruence
//! propagation plus structural (dis)equality — deliberately *not* an SMT
//! solver. It answers two questions about a conjunction of literals
//! (terms asserted non-zero or zero):
//!
//! * [`contradicts`] — is the conjunction *definitely* infeasible? Sound
//!   in one direction only: `true` means no assignment satisfies it;
//!   `false` means "maybe feasible".
//! * [`find_model`] — a best-effort concrete parameter assignment
//!   satisfying the conjunction, used to *refute* equivalence with a
//!   witness (which is then confirmed on the concrete interpreters, so
//!   incompleteness here can never produce a false bug report).
//!
//! `Part` and `Pairing` answer [`contradicts`] for the conjunction of
//! two path conditions from state computed once per path, which is how
//! the equivalence checker pairs every source path with every target
//! path.

use crate::term::{type_domain, Term, TermId, TermPool};
use memoir_ir::{BinOp, CmpOp};

/// A literal: the term asserted non-zero (`true`) or zero (`false`).
pub type Lit = (TermId, bool);

/// An inclusive interval over `i64`, tracked in `i128` so arithmetic on
/// the bounds cannot overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i128,
    /// Inclusive upper bound.
    pub hi: i128,
}

impl Interval {
    /// The full `i64` domain.
    pub fn full() -> Self {
        Interval {
            lo: i64::MIN as i128,
            hi: i64::MAX as i128,
        }
    }

    /// A singleton.
    pub fn point(v: i64) -> Self {
        Interval {
            lo: v as i128,
            hi: v as i128,
        }
    }

    /// Whether no value is left.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    fn meet(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    fn in_i64(self) -> bool {
        self.lo >= i64::MIN as i128 && self.hi <= i64::MAX as i128
    }
}

/// A congruence `value ≡ rem (mod modulus)`; `modulus == 1` is "anything".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Congruence {
    /// The modulus (`≥ 1`).
    pub modulus: u64,
    /// The canonical residue in `0 .. modulus`.
    pub rem: u64,
}

impl Congruence {
    fn any() -> Self {
        Congruence { modulus: 1, rem: 0 }
    }

    fn point(v: i64) -> Self {
        Congruence {
            modulus: 0,
            rem: v as u64,
        }
    }

    /// Residue of `v` for this congruence's modulus.
    fn residue(modulus: u64, v: i64) -> u64 {
        (v as i128).rem_euclid(modulus as i128) as u64
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// An atom table: the narrowed interval of each atom term (parameters
/// and the terms literals narrow), sorted by term. A conjunction narrows
/// few terms, so a sorted vector beats a hash map.
type Atoms = Vec<(TermId, Interval)>;

/// The solver state for one conjunction.
#[derive(Debug)]
pub struct Solver<'p> {
    pool: &'p TermPool,
    atoms: Atoms,
}

impl<'p> Solver<'p> {
    /// Creates a solver over a pool; parameter atoms start at their
    /// declared type domains.
    pub fn new(pool: &'p TermPool) -> Self {
        let mut atoms: Atoms = pool
            .params
            .iter()
            .map(|&(p, t)| {
                let (lo, hi) = pool
                    .param_tys
                    .get(p as usize)
                    .copied()
                    .map(type_domain)
                    .unwrap_or((i64::MIN, i64::MAX));
                let iv = Interval {
                    lo: lo as i128,
                    hi: hi as i128,
                };
                (t, iv)
            })
            .collect();
        atoms.sort_unstable_by_key(|&(t, _)| t);
        Solver { pool, atoms }
    }

    /// The narrowed interval of `t`, if it is an atom.
    #[inline]
    fn atom(&self, t: TermId) -> Option<Interval> {
        let i = self.atoms.binary_search_by_key(&t, |&(u, _)| u).ok()?;
        Some(self.atoms[i].1)
    }

    /// Structural interval of a term under the current atom narrowing.
    pub fn interval(&self, t: TermId) -> Interval {
        if let Some(iv) = self.atom(t) {
            return iv;
        }
        match self.pool.get(t) {
            Term::Const(v) => Interval::point(v),
            Term::Param(_) => Interval::full(),
            Term::Bin(op, a, b) => {
                let (ia, ib) = (self.interval(a), self.interval(b));
                let wide = match op {
                    BinOp::Add => Interval {
                        lo: ia.lo + ib.lo,
                        hi: ia.hi + ib.hi,
                    },
                    BinOp::Sub => Interval {
                        lo: ia.lo - ib.hi,
                        hi: ia.hi - ib.lo,
                    },
                    BinOp::Mul => {
                        let cands = [ia.lo * ib.lo, ia.lo * ib.hi, ia.hi * ib.lo, ia.hi * ib.hi];
                        Interval {
                            lo: *cands.iter().min().unwrap(),
                            hi: *cands.iter().max().unwrap(),
                        }
                    }
                    BinOp::Min => Interval {
                        lo: ia.lo.min(ib.lo),
                        hi: ia.hi.min(ib.hi),
                    },
                    BinOp::Max => Interval {
                        lo: ia.lo.max(ib.lo),
                        hi: ia.hi.max(ib.hi),
                    },
                    BinOp::And => match self.pool.as_const(b).or(self.pool.as_const(a)) {
                        Some(m) if m >= 0 => Interval {
                            lo: 0,
                            hi: m as i128,
                        },
                        _ => Interval::full(),
                    },
                    BinOp::Rem => match self.pool.as_const(b) {
                        // Non-negative dividend: wrapping_rem keeps the
                        // dividend's sign, so the result is in [0, |c|).
                        Some(c) if c != 0 && ia.lo >= 0 => Interval {
                            lo: 0,
                            hi: (c.unsigned_abs() as i128) - 1,
                        },
                        _ => Interval::full(),
                    },
                    _ => Interval::full(),
                };
                // Wrapping arithmetic: a bound outside i64 means the
                // concrete op may wrap, so the interval is unusable.
                if wide.in_i64() {
                    wide
                } else {
                    Interval::full()
                }
            }
            Term::Cmp(..) => Interval { lo: 0, hi: 1 },
            Term::Trunc(ty, _) => {
                let (lo, hi) = type_domain(ty);
                Interval {
                    lo: lo as i128,
                    hi: hi as i128,
                }
            }
            Term::Select(_, a, b) => {
                let (ia, ib) = (self.interval(a), self.interval(b));
                Interval {
                    lo: ia.lo.min(ib.lo),
                    hi: ia.hi.max(ib.hi),
                }
            }
        }
    }

    /// Whether `a op b` provably cannot wrap under the current atom
    /// narrowing: the wide-interval result stays within `i64`.
    /// Wrapping adds a multiple of 2^64 to the true integer result,
    /// which preserves residues only for power-of-two moduli — so
    /// non-power-of-two congruences are only sound under this guard.
    fn no_wrap(&self, op: BinOp, a: TermId, b: TermId) -> bool {
        let (ia, ib) = (self.interval(a), self.interval(b));
        let wide = match op {
            BinOp::Add => Interval {
                lo: ia.lo + ib.lo,
                hi: ia.hi + ib.hi,
            },
            BinOp::Sub => Interval {
                lo: ia.lo - ib.hi,
                hi: ia.hi - ib.lo,
            },
            BinOp::Mul => {
                let cands = [ia.lo * ib.lo, ia.lo * ib.hi, ia.hi * ib.lo, ia.hi * ib.hi];
                Interval {
                    lo: *cands.iter().min().unwrap(),
                    hi: *cands.iter().max().unwrap(),
                }
            }
            _ => return false,
        };
        wide.in_i64()
    }

    /// Structural congruence of a term.
    pub fn congruence(&self, t: TermId) -> Congruence {
        match self.pool.get(t) {
            Term::Const(v) => Congruence::point(v),
            Term::Bin(op, a, b) => {
                let (ca, cb) = (self.congruence(a), self.congruence(b));
                match op {
                    BinOp::Add | BinOp::Sub => {
                        if ca.modulus == 0 && cb.modulus == 0 {
                            return Congruence::any(); // folded already
                        }
                        let m = match (ca.modulus, cb.modulus) {
                            (0, m) | (m, 0) => m,
                            (x, y) => gcd(x, y),
                        };
                        if m <= 1 {
                            return Congruence::any();
                        }
                        if !m.is_power_of_two() && !self.no_wrap(op, a, b) {
                            return Congruence::any(); // a wrap would shift the residue
                        }
                        let ra = if ca.modulus == 0 {
                            Congruence::residue(m, ca.rem as i64)
                        } else {
                            ca.rem % m
                        };
                        let rb = if cb.modulus == 0 {
                            Congruence::residue(m, cb.rem as i64)
                        } else {
                            cb.rem % m
                        };
                        let r = match op {
                            BinOp::Add => (ra + rb) % m,
                            _ => (ra + m - rb % m) % m,
                        };
                        Congruence { modulus: m, rem: r }
                    }
                    BinOp::Mul => {
                        // x * c is ≡ 0 (mod |c|) in the integers, but the
                        // term wraps mod 2^64: the residue survives the
                        // wrap only when |c| divides 2^64 (|c| a power of
                        // two) or the product provably stays in range.
                        let c = self.pool.as_const(a).or(self.pool.as_const(b));
                        match c {
                            Some(c)
                                if c.unsigned_abs() > 1
                                    && (c.unsigned_abs().is_power_of_two()
                                        || self.no_wrap(BinOp::Mul, a, b)) =>
                            {
                                Congruence {
                                    modulus: c.unsigned_abs(),
                                    rem: 0,
                                }
                            }
                            _ => Congruence::any(),
                        }
                    }
                    BinOp::Shl => match self.pool.as_const(b) {
                        Some(s) if (1..63).contains(&s) => Congruence {
                            modulus: 1u64 << s,
                            rem: 0,
                        },
                        _ => Congruence::any(),
                    },
                    _ => Congruence::any(),
                }
            }
            _ => Congruence::any(),
        }
    }

    fn narrow_atom(&mut self, t: TermId, iv: Interval) {
        match self.atoms.binary_search_by_key(&t, |&(u, _)| u) {
            Ok(i) => self.atoms[i].1 = self.atoms[i].1.meet(iv),
            Err(i) => self.atoms.insert(i, (t, Interval::full().meet(iv))),
        }
    }

    /// Absorbs one literal, narrowing atom intervals where the literal
    /// has the shape `atom OP const` (or a negation of one).
    fn absorb(&mut self, lit: Lit) {
        let (t, truth) = lit;
        if let Term::Cmp(op, unsigned, a, b) = self.pool.get(t) {
            let op = if truth { op } else { op.negated() };
            if let Some(c) = self.pool.as_const(b) {
                self.narrow_with(op, unsigned, a, c);
            } else if let Some(c) = self.pool.as_const(a) {
                self.narrow_with(op.swapped(), unsigned, b, c);
            }
        } else {
            // A non-comparison condition: `t != 0` / `t == 0`.
            if truth {
                // != 0 doesn't narrow an interval usefully.
            } else {
                self.narrow_atom(t, Interval::point(0));
            }
        }
    }

    fn narrow_with(&mut self, op: CmpOp, unsigned: bool, t: TermId, c: i64) {
        if unsigned {
            // An unsigned ordering against a constant narrows the i64
            // word interval only when its true set is contiguous in the
            // signed view: `<u c` / `<=u c` with `c >= 0` pin the word
            // to [0, c-1] / [0, c] (every negative word is >u i64::MAX),
            // and equality is bit-pattern equality, signedness-blind.
            // `>u` / `>=u` (and negative bounds) admit negative words
            // alongside non-negative ones, so they must not narrow.
            let iv = match op {
                CmpOp::Eq => Interval::point(c),
                CmpOp::Lt if c >= 0 => Interval {
                    lo: 0,
                    hi: c as i128 - 1,
                },
                CmpOp::Le if c >= 0 => Interval {
                    lo: 0,
                    hi: c as i128,
                },
                _ => return,
            };
            self.narrow_atom(t, iv);
            return;
        }
        let c = c as i128;
        let iv = match op {
            CmpOp::Eq => Interval { lo: c, hi: c },
            CmpOp::Lt => Interval {
                lo: i64::MIN as i128,
                hi: c - 1,
            },
            CmpOp::Le => Interval {
                lo: i64::MIN as i128,
                hi: c,
            },
            CmpOp::Gt => Interval {
                lo: c + 1,
                hi: i64::MAX as i128,
            },
            CmpOp::Ge => Interval {
                lo: c,
                hi: i64::MAX as i128,
            },
            CmpOp::Ne => return, // no contiguous narrowing
        };
        self.narrow_atom(t, iv);
    }

    /// Whether the conjunction is *definitely* infeasible: the same term
    /// is asserted both ways, or, once every literal has narrowed the
    /// atoms (so a later literal's narrowing feeds an earlier literal's
    /// check), some literal is refuted.
    pub fn contradicts(&mut self, lits: &[Lit]) -> bool {
        for (i, &(t, v)) in lits.iter().enumerate() {
            for &(u, w) in &lits[i + 1..] {
                if t == u && v != w {
                    return true;
                }
            }
        }
        for &l in lits {
            self.absorb(l);
        }
        lits.iter().any(|&l| self.refutes(l))
    }

    /// Whether one literal is impossible under the current atoms.
    fn refutes(&self, (t, truth): Lit) -> bool {
        // Constant literal already decided.
        if let Some(v) = self.pool.as_const(t) {
            return (v != 0) != truth;
        }
        let Term::Cmp(op, unsigned, a, b) = self.pool.get(t) else {
            // `t != 0` with a zero-only interval (or vice versa).
            let iv = self.interval(t);
            return if truth {
                iv.lo == 0 && iv.hi == 0
            } else {
                iv.lo > 0 || iv.hi < 0
            };
        };
        let op = if truth { op } else { op.negated() };
        let (ia, ib) = (self.interval(a), self.interval(b));
        // Unsigned ordering only matches interval reasoning when both
        // sides are known non-negative.
        if unsigned && (ia.lo < 0 || ib.lo < 0) {
            return false;
        }
        let possible = match op {
            CmpOp::Eq => ia.lo <= ib.hi && ib.lo <= ia.hi,
            CmpOp::Ne => !(ia.lo == ia.hi && ib.lo == ib.hi && ia.lo == ib.lo),
            CmpOp::Lt => ia.lo < ib.hi,
            CmpOp::Le => ia.lo <= ib.hi,
            CmpOp::Gt => ia.hi > ib.lo,
            CmpOp::Ge => ia.hi >= ib.lo,
        };
        if !possible {
            return true;
        }
        if op != CmpOp::Eq {
            return false;
        }
        // Congruence refutation of equalities.
        let (ca, cb) = (self.congruence(a), self.congruence(b));
        let m = match (ca.modulus, cb.modulus) {
            (0, 0) => 0,
            (0, m) | (m, 0) => m,
            (x, y) => gcd(x, y),
        };
        if m <= 1 {
            return false;
        }
        let ra = if ca.modulus == 0 {
            Congruence::residue(m, ca.rem as i64)
        } else {
            ca.rem % m
        };
        let rb = if cb.modulus == 0 {
            Congruence::residue(m, cb.rem as i64)
        } else {
            cb.rem % m
        };
        ra != rb
    }
}

/// Convenience: one-shot infeasibility check.
pub fn contradicts(pool: &TermPool, lits: &[Lit]) -> bool {
    Solver::new(pool).contradicts(lits)
}

/// One path condition's part of the solver state, computed once however
/// many paths it is paired with.
///
/// [`contradicts`] of a joined condition `a ∧ b` finds the same term
/// asserted both ways, or narrows the atoms by every literal and then
/// refutes some literal. Both parts split by path:
///
/// * a complement lies within `a`, within `b`, or across the two; the
///   part holds its literals sorted by term, so the cross check is one
///   merge;
/// * `absorb` narrows an atom from its own literal alone, by a meet, so
///   the joined atom table is the meet of the two parts' tables (each
///   with the parameter domains already in it; meet is associative,
///   commutative and idempotent on the bounds themselves, empty
///   intervals included);
/// * a literal's verdict depends on the atom table only. Where the meet
///   equals a part's own table, that part's literals keep the verdicts
///   the part computed alone; elsewhere they are checked again against
///   the meet.
///
/// The solver is not monotone (an atom a literal narrows from the full
/// range can be wider than the structural interval it replaces), so a
/// part's own verdicts are reused only when the tables are equal.
#[derive(Clone, Debug)]
pub(crate) struct Part<'c> {
    /// The literals in path order.
    lits: &'c [Lit],
    /// The literals sorted by term, for the cross complement check.
    by_term: Vec<Lit>,
    /// The atom table after absorbing every literal.
    atoms: Atoms,
    /// Whether the condition alone is refuted.
    refuted: bool,
    /// Whether it asserts one term both ways.
    complementary: bool,
}

impl<'c> Part<'c> {
    /// The part of condition `lits`.
    pub(crate) fn new(pool: &TermPool, lits: &'c [Lit]) -> Self {
        let mut solver = Solver::new(pool);
        for &l in lits {
            solver.absorb(l);
        }
        let mut by_term = lits.to_vec();
        by_term.sort_unstable();
        let complementary = by_term
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1);
        let refuted = complementary || lits.iter().any(|&l| solver.refutes(l));
        Part {
            lits,
            by_term,
            atoms: solver.atoms,
            refuted,
            complementary,
        }
    }
}

/// Decides conjunctions of two path conditions from their [`Part`]s,
/// with one atom table reused for every pair.
#[derive(Debug)]
pub(crate) struct Pairing<'p> {
    solver: Solver<'p>,
}

impl<'p> Pairing<'p> {
    /// A pairing over `pool`, whose terms the parts were built from.
    pub(crate) fn new(pool: &'p TermPool) -> Self {
        Pairing {
            solver: Solver {
                pool,
                atoms: Vec::new(),
            },
        }
    }

    /// Whether `a ∧ b` is definitely infeasible: exactly
    /// [`contradicts`] of `a`'s literals followed by `b`'s.
    pub(crate) fn contradicts(&mut self, a: &Part, b: &Part) -> bool {
        if a.complementary || b.complementary || complement_across(&a.by_term, &b.by_term) {
            return true;
        }
        let (same_a, same_b) = meet_into(&mut self.solver.atoms, &a.atoms, &b.atoms);
        let s = &self.solver;
        let side = |p: &Part, same: bool| {
            if same {
                p.refuted
            } else {
                p.lits.iter().any(|&l| s.refutes(l))
            }
        };
        side(a, same_a) || side(b, same_b)
    }
}

/// Whether a term sits in both sorted literal lists with opposite truths.
fn complement_across(a: &[Lit], b: &[Lit]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (t, u) = (a[i].0, b[j].0);
        if t < u {
            i += 1;
        } else if u < t {
            j += 1;
        } else {
            // Every truth `a` gives the term against every truth `b`
            // gives it.
            let (ia, jb) = (i, j);
            while i < a.len() && a[i].0 == t {
                i += 1;
            }
            while j < b.len() && b[j].0 == t {
                j += 1;
            }
            if a[ia..i].iter().any(|x| b[jb..j].iter().any(|y| x.1 != y.1)) {
                return true;
            }
        }
    }
    false
}

/// Writes the meet of two atom tables into `out`, and says whether it
/// equals `a` and whether it equals `b`.
fn meet_into(out: &mut Atoms, a: &[(TermId, Interval)], b: &[(TermId, Interval)]) -> (bool, bool) {
    out.clear();
    let (mut same_a, mut same_b) = (true, true);
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let entry = match (a.get(i), b.get(j)) {
            (Some(&(t, x)), Some(&(u, y))) if t == u => {
                let m = x.meet(y);
                same_a &= m == x;
                same_b &= m == y;
                i += 1;
                j += 1;
                (t, m)
            }
            (Some(&(t, x)), Some(&(u, _))) if t < u => {
                same_b = false;
                i += 1;
                (t, x)
            }
            (Some(&(t, x)), None) => {
                same_b = false;
                i += 1;
                (t, x)
            }
            (_, Some(&(u, y))) => {
                same_a = false;
                j += 1;
                (u, y)
            }
            (None, None) => unreachable!("loop condition"),
        };
        out.push(entry);
    }
    (same_a, same_b)
}

/// One-shot interval of `t` under a path condition (used by the engines to
/// decide whether a symbolic index is narrow enough to fork over).
pub fn interval_under(pool: &TermPool, lits: &[Lit], t: TermId) -> Interval {
    let mut s = Solver::new(pool);
    for &l in lits {
        s.absorb(l);
    }
    s.interval(t)
}

/// Best-effort model search: a concrete assignment of every parameter
/// that satisfies the conjunction, or `None`. Bounded enumeration over
/// boundary candidates of each parameter's narrowed interval.
pub fn find_model(pool: &TermPool, lits: &[Lit]) -> Option<Vec<i64>> {
    let nparams = pool.param_tys.len();
    let mut solver = Solver::new(pool);
    for &l in lits {
        solver.absorb(l);
    }
    // Candidate values per parameter: interval boundaries plus small
    // values that fall inside.
    let mut cands: Vec<Vec<i64>> = Vec::with_capacity(nparams);
    for i in 0..nparams {
        let pid = find_param_term(pool, i as u32);
        let iv = match pid {
            Some(t) => solver.interval(t),
            None => Interval::full(),
        };
        let mut c: Vec<i64> = Vec::new();
        for v in [
            iv.lo,
            iv.hi,
            0,
            1,
            2,
            -1,
            3,
            iv.lo + 1,
            iv.hi - 1,
            (iv.lo + iv.hi) / 2,
        ] {
            if v >= iv.lo && v <= iv.hi && v >= i64::MIN as i128 && v <= i64::MAX as i128 {
                let v = v as i64;
                if !c.contains(&v) {
                    c.push(v);
                }
            }
        }
        if c.is_empty() {
            return None; // empty domain
        }
        cands.push(c);
    }
    // Bounded cartesian search.
    let mut budget = 4096usize;
    let mut asg = vec![0i64; nparams];
    search(pool, lits, &cands, 0, &mut asg, &mut budget)
}

fn find_param_term(pool: &TermPool, i: u32) -> Option<TermId> {
    pool.params.iter().find(|&&(p, _)| p == i).map(|&(_, t)| t)
}

fn search(
    pool: &TermPool,
    lits: &[Lit],
    cands: &[Vec<i64>],
    at: usize,
    asg: &mut Vec<i64>,
    budget: &mut usize,
) -> Option<Vec<i64>> {
    if *budget == 0 {
        return None;
    }
    if at == cands.len() {
        *budget -= 1;
        let sat = lits.iter().all(|&(t, truth)| {
            pool.eval(t, asg)
                .map(|v| (v != 0) == truth)
                .unwrap_or(false)
        });
        return sat.then(|| asg.clone());
    }
    for &v in &cands[at] {
        asg[at] = v;
        if let Some(m) = search(pool, lits, cands, at + 1, asg, budget) {
            return Some(m);
        }
        if *budget == 0 {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::Type;

    fn pool2() -> TermPool {
        let mut p = TermPool::new();
        p.param_tys = vec![Type::I64, Type::I64];
        p.param(0);
        p.param(1);
        p
    }

    #[test]
    fn complementary_literals_contradict() {
        let mut p = pool2();
        let x = p.param(0);
        let y = p.param(1);
        let c = p.cmp(CmpOp::Lt, false, x, y);
        assert!(contradicts(&p, &[(c, true), (c, false)]));
        assert!(!contradicts(&p, &[(c, true)]));
    }

    #[test]
    fn interval_narrowing_contradicts() {
        let mut p = pool2();
        let x = p.param(0);
        let five = p.konst(5);
        let three = p.konst(3);
        let lt3 = p.cmp(CmpOp::Lt, false, x, three);
        let gt5 = p.cmp(CmpOp::Gt, false, x, five);
        assert!(contradicts(&p, &[(lt3, true), (gt5, true)]));
        assert!(!contradicts(&p, &[(lt3, true), (gt5, false)]));
    }

    #[test]
    fn congruence_refutes_parity() {
        let mut p = pool2();
        let x = p.param(0);
        let two = p.konst(2);
        let seven = p.konst(7);
        let even = p.bin(BinOp::Mul, x, two).unwrap();
        let eq = p.cmp(CmpOp::Eq, false, even, seven);
        assert!(contradicts(&p, &[(eq, true)]), "2x == 7 is impossible");
    }

    #[test]
    fn mul_congruence_respects_wrapping() {
        // 3x == 7 IS satisfiable under wrapping_mul (x = 7 * 3^-1 mod
        // 2^64), so a full-domain multiply by a non-power-of-two must
        // not produce a congruence refutation.
        let mut p = pool2();
        let x = p.param(0);
        let three = p.konst(3);
        let seven = p.konst(7);
        let trip = p.bin(BinOp::Mul, x, three).unwrap();
        let eq = p.cmp(CmpOp::Eq, false, trip, seven);
        assert!(!contradicts(&p, &[(eq, true)]), "3x == 7 wraps to a model");
    }

    #[test]
    fn mul_congruence_applies_when_no_wrap() {
        // With x confined to the Index window the product cannot wrap,
        // so the integer congruence is sound and 3x == 7 is refuted.
        let mut p = TermPool::new();
        p.param_tys = vec![Type::Index];
        let x = p.param(0);
        let three = p.konst(3);
        let seven = p.konst(7);
        let trip = p.bin(BinOp::Mul, x, three).unwrap();
        let eq = p.cmp(CmpOp::Eq, false, trip, seven);
        assert!(contradicts(&p, &[(eq, true)]), "no wrap: 3x == 7 refuted");
    }

    #[test]
    fn unsigned_gt_does_not_narrow_signed_interval() {
        // `d >u 5` is satisfied by every negative word, so it must not
        // narrow d to [6, i64::MAX]: together with `d < 0` (signed) the
        // conjunction is satisfiable (e.g. d = -1 at x=0, y=1).
        let mut p = pool2();
        let x = p.param(0);
        let y = p.param(1);
        let d = p.bin(BinOp::Sub, x, y).unwrap();
        let five = p.konst(5);
        let zero = p.konst(0);
        let ugt = p.cmp(CmpOp::Gt, true, d, five);
        let neg = p.cmp(CmpOp::Lt, false, d, zero);
        assert!(!contradicts(&p, &[(ugt, true), (neg, true)]));
        // Negated unsigned `<u` / `<=u` land on `>=u` / `>u` and must
        // not narrow either: `!(d <u 5)` admits d = -1 as well.
        let ult = p.cmp(CmpOp::Lt, true, d, five);
        assert!(!contradicts(&p, &[(ult, false), (neg, true)]));
    }

    #[test]
    fn unsigned_lt_narrows_to_nonnegative_window() {
        // `x <u 5` does pin the word to [0, 4], so `x == 10` is refuted.
        let mut p = pool2();
        let x = p.param(0);
        let five = p.konst(5);
        let ten = p.konst(10);
        let ult = p.cmp(CmpOp::Lt, true, x, five);
        let eq10 = p.cmp(CmpOp::Eq, false, x, ten);
        assert!(contradicts(&p, &[(ult, true), (eq10, true)]));
        // ... but `x <u -1` (-1 is u64::MAX) keeps negative words in
        // play and must not pin x non-negative.
        let m1 = p.konst(-1);
        let m2 = p.konst(-2);
        let ultm1 = p.cmp(CmpOp::Lt, true, x, m1);
        let eqm2 = p.cmp(CmpOp::Eq, false, x, m2);
        assert!(!contradicts(&p, &[(ultm1, true), (eqm2, true)]));
    }

    #[test]
    fn unsigned_comparison_needs_nonnegative_sides() {
        let mut p = TermPool::new();
        p.param_tys = vec![Type::I64];
        let x = p.param(0);
        let m1 = p.konst(-1);
        // Unsigned: -1 is u64::MAX, so `x > -1` is satisfiable only ...
        // the solver must NOT claim a contradiction from signed intervals.
        let c = p.cmp(CmpOp::Gt, true, x, m1);
        assert!(!contradicts(&p, &[(c, false)]));
    }

    #[test]
    fn model_search_finds_witnesses() {
        let mut p = pool2();
        let x = p.param(0);
        let y = p.param(1);
        let lt = p.cmp(CmpOp::Lt, false, x, y);
        let ten = p.konst(10);
        let gt10 = p.cmp(CmpOp::Gt, false, x, ten);
        let m = find_model(&p, &[(lt, true), (gt10, true)]).expect("model exists");
        assert!(m[0] < m[1] && m[0] > 10, "{m:?}");
        // And an infeasible system yields no model.
        assert!(find_model(&p, &[(lt, true), (lt, false)]).is_none());
    }

    /// Decides every pair of `conds` through parts, and checks each
    /// against [`contradicts`] of the joined condition.
    fn pairs_agree(p: &TermPool, conds: &[&[Lit]]) {
        let parts: Vec<Part> = conds.iter().map(|c| Part::new(p, c)).collect();
        let mut pairing = Pairing::new(p);
        for (a, pa) in conds.iter().zip(&parts) {
            for (b, pb) in conds.iter().zip(&parts) {
                let joint = [*a, *b].concat();
                assert_eq!(
                    pairing.contradicts(pa, pb),
                    contradicts(p, &joint),
                    "{joint:?}"
                );
            }
        }
    }

    #[test]
    fn pairing_refutes_what_only_the_joined_condition_refutes() {
        // MEMOIR's `x <u 5` against lir's `!(x < 5)`: neither alone is
        // refuted, the meet of their narrowings of `x` is empty.
        let mut p = TermPool::new();
        p.param_tys = vec![Type::Index];
        let x = p.param(0);
        let five = p.konst(5);
        let ult = p.cmp(CmpOp::Lt, true, x, five);
        let slt = p.cmp(CmpOp::Lt, false, x, five);
        let (a, b) = ([(ult, true)], [(slt, false)]);
        assert!(!contradicts(&p, &a) && !contradicts(&p, &b));
        assert!(contradicts(&p, &[a[0], b[0]]));
        pairs_agree(&p, &[&a, &b, &[(slt, true)], &[]]);
    }

    #[test]
    fn pairing_rechecks_a_refuted_part_when_the_other_widens_an_atom() {
        // `x % 1` is structurally 0 on the Index window, so `x % 1 != 0`
        // alone is refuted. A literal on `x % 1` itself narrows it from
        // the full range, to [i64::MIN, 5]: joined, nothing is refuted.
        let mut p = TermPool::new();
        p.param_tys = vec![Type::Index];
        let x = p.param(0);
        let (zero, one, five) = (p.konst(0), p.konst(1), p.konst(5));
        let r = p.bin(BinOp::Rem, x, one).unwrap();
        let ne = p.cmp(CmpOp::Ne, false, r, zero);
        let le = p.cmp(CmpOp::Le, false, r, five);
        let (a, b) = ([(ne, true)], [(le, true)]);
        assert!(contradicts(&p, &a));
        assert!(!contradicts(&p, &[a[0], b[0]]));
        pairs_agree(&p, &[&a, &b, &[(ne, false)], &[(le, false), (ne, true)]]);
    }

    #[test]
    fn param_domains_respect_types() {
        let mut p = TermPool::new();
        p.param_tys = vec![Type::Index];
        let x = p.param(0);
        let big = p.konst(1000);
        let gt = p.cmp(CmpOp::Gt, false, x, big);
        // Index params stay in the synthesizable probe window [0, 16].
        assert!(contradicts(&p, &[(gt, true)]));
    }
}
