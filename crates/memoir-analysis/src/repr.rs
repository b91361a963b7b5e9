//! Adaptive representation selection: chooses a cheaper storage layout
//! per collection *allocation site* when the analyses can prove it safe.
//!
//! The default lowering gives every associative array an opaque host
//! table and every sequence a heap buffer. Two cheaper layouts exist
//! (see [`memoir_ir::Repr`]):
//!
//! * **Dense** — an associative array whose keys are provably integral,
//!   non-negative, and bounded lowers to a direct-indexed array
//!   (present-bitmap + value slots). Legality: every key ever used with
//!   any version of the collection has a constant element-level range
//!   `[lo : hi)` with `0 ≤ lo` and `hi ≤ 2¹⁶` (the
//!   [`IndexRanges`] lattice, including the `x & mask` wrapping rule);
//!   no `keys` op observes insertion order; and the collection never
//!   escapes the function (per [`EscapeAnalysis`]) nor flows through a
//!   call or φ/select whose other inputs are unknown.
//! * **Inline** — a sequence with a small constant length that never
//!   grows, shrinks, or escapes lowers to an inline (stack) buffer.
//!
//! Anything unproven falls back to [`Repr::Default`] — selection is
//! purely an optimization and must never change observable behaviour.
//!
//! Versions of a collection are grouped with a union-find over the SSA
//! chain ops (`write`/`rmw`/`insert`/`remove`/`swap`/`copy`/`use-phi`/φ)
//! plus the mut-form ops (which reuse one SSA value), so a constraint
//! discovered on any version (an unbounded key, a `keys` op, an escape)
//! disqualifies every allocation site feeding that group.

use crate::escape::{EscapeAnalysis, Placement};
use crate::idxrange::IndexRanges;
use memoir_ir::{
    BinOp, Constant, Function, InstId, InstKind, Module, Repr, ReprChoices, Type, ValueDef, ValueId,
};
use std::collections::HashMap;

/// Largest key-space bound eligible for [`Repr::Dense`] (slots are
/// reserved eagerly, so this caps wasted space).
const DENSE_CAP_LIMIT: u64 = 1 << 16;

/// Largest constant sequence length eligible for [`Repr::Inline`].
const INLINE_CAP_LIMIT: u64 = 8;

/// Chooses representations for every eligible allocation site of the
/// module.
pub fn choose_reprs(m: &Module) -> ReprChoices {
    let mut out = ReprChoices::new();
    for (fid, f) in m.funcs.iter() {
        choose_function(m, fid, f, &mut out);
    }
    out
}

/// Union-find over values.
struct Uf {
    parent: HashMap<ValueId, ValueId>,
}

impl Uf {
    fn new() -> Self {
        Uf {
            parent: HashMap::new(),
        }
    }

    fn find(&mut self, v: ValueId) -> ValueId {
        let p = *self.parent.get(&v).unwrap_or(&v);
        if p == v {
            return v;
        }
        let root = self.find(p);
        self.parent.insert(v, root);
        root
    }

    fn union(&mut self, a: ValueId, b: ValueId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// Per-group constraints accumulated over every version of a collection.
#[derive(Clone, Debug, Default)]
struct GroupFacts {
    /// Allocation sites (`new_seq`/`new_assoc`) defining versions of the
    /// group.
    alloc_sites: Vec<InstId>,
    /// A version is a parameter: contents and key space are unknown.
    has_param: bool,
    /// A version flows through a call or is returned (by-value copies
    /// put versions beyond this function's proof).
    crosses_call: bool,
    /// `keys` observes insertion order somewhere.
    keys_observed: bool,
    /// The group's index space changes shape through seq-only resizing
    /// ops (insert/remove/splice/split/append) — disqualifies Inline.
    resized: bool,
    /// Largest exclusive key bound seen, if every key so far is bounded.
    key_hi: Option<u64>,
    /// Every key seen so far has a provably non-negative constant range.
    keys_bounded: bool,
    /// A version came from an op that does not preserve eligibility
    /// (e.g. `keys` result, `copy.range` of something else): neutral for
    /// the sources, but the group gains no allocation site from it.
    _reserved: (),
}

fn choose_function(m: &Module, fid: memoir_ir::FuncId, f: &Function, out: &mut ReprChoices) {
    let is_coll = |v: ValueId| {
        matches!(
            m.types.get(f.value_ty(v)),
            Type::Seq(_) | Type::Assoc { .. }
        )
    };
    let order = f.inst_ids_in_order();

    // ---- 1. group versions --------------------------------------------
    let mut uf = Uf::new();
    for &(_, iid) in &order {
        // SSA chain ops: each result is a new version of an operand.
        let inst = &f.insts[iid];
        for (&r, c) in inst.results.iter().zip(inst.kind.versioned_operands()) {
            uf.union(c, r);
        }
        match &inst.kind {
            InstKind::Copy { c } => uf.union(*c, inst.results[0]),
            InstKind::Phi { incoming } => {
                if let Some(&r) = f.insts[iid].results.first() {
                    if is_coll(r) {
                        for (_, v) in incoming {
                            uf.union(*v, r);
                        }
                    }
                }
            }
            InstKind::Select {
                then_value,
                else_value,
                ..
            } => {
                if let Some(&r) = f.insts[iid].results.first() {
                    if is_coll(r) {
                        uf.union(*then_value, r);
                        uf.union(*else_value, r);
                    }
                }
            }
            _ => {}
        }
    }

    // ---- 2. collect constraints per group ------------------------------
    let esc = EscapeAnalysis::compute(m, f);
    let idx = IndexRanges::new(f);
    let mut facts: HashMap<ValueId, GroupFacts> = HashMap::new();

    // Parameters that are collections taint their groups.
    for (vi, val) in f.values.iter() {
        if matches!(val.def, ValueDef::Param(_)) && is_coll(vi) {
            let root = uf.find(vi);
            facts.entry(root).or_default().has_param = true;
        }
    }

    let note_key =
        |facts: &mut HashMap<ValueId, GroupFacts>, uf: &mut Uf, c: ValueId, k: ValueId| {
            let root = uf.find(c);
            let g = facts.entry(root).or_default();
            match key_bound(f, &idx, k) {
                Some((lo, hi)) if lo >= 0 && (hi as u64) <= DENSE_CAP_LIMIT && hi > 0 => {
                    let hi = hi as u64;
                    g.key_hi = Some(g.key_hi.map_or(hi, |h| h.max(hi)));
                }
                _ => g.keys_bounded = false,
            }
        };

    for &(_, iid) in &order {
        let inst = &f.insts[iid];
        match &inst.kind {
            InstKind::NewSeq { .. } | InstKind::NewAssoc { .. } => {
                let r = inst.results[0];
                let root = uf.find(r);
                let g = facts.entry(root).or_default();
                g.alloc_sites.push(iid);
                if g.key_hi.is_none() {
                    // first sighting: keys start out bounded-vacuously
                    g.keys_bounded = true;
                }
            }
            _ => {}
        }
    }
    // Re-walk for uses now that groups exist (order independent).
    for &(_, iid) in &order {
        let inst = &f.insts[iid];
        match &inst.kind {
            InstKind::Read { c, idx: k }
            | InstKind::Write { c, idx: k, .. }
            | InstKind::Rmw { c, idx: k, .. }
            | InstKind::Has { c, key: k }
            | InstKind::Remove { c, idx: k }
            | InstKind::MutWrite { c, idx: k, .. }
            | InstKind::MutRmw { c, idx: k, .. }
            | InstKind::MutRemove { c, idx: k } => {
                note_key(&mut facts, &mut uf, *c, *k);
            }
            InstKind::Insert { c, idx: k, .. } | InstKind::MutInsert { c, idx: k, .. } => {
                note_key(&mut facts, &mut uf, *c, *k);
                let root = uf.find(*c);
                facts.entry(root).or_default().resized = true;
            }
            InstKind::InsertSeq { c, src, .. } | InstKind::MutInsertSeq { c, src, .. } => {
                for v in [*c, *src] {
                    let root = uf.find(v);
                    facts.entry(root).or_default().resized = true;
                }
            }
            InstKind::RemoveRange { c, .. }
            | InstKind::MutRemoveRange { c, .. }
            | InstKind::MutSplit { c, .. } => {
                let root = uf.find(*c);
                facts.entry(root).or_default().resized = true;
            }
            InstKind::MutAppend { c, src } => {
                for v in [*c, *src] {
                    let root = uf.find(v);
                    facts.entry(root).or_default().resized = true;
                }
            }
            InstKind::Keys { c } => {
                let root = uf.find(*c);
                facts.entry(root).or_default().keys_observed = true;
            }
            InstKind::Call { args, .. } => {
                for &a in args {
                    if is_coll(a) {
                        let root = uf.find(a);
                        facts.entry(root).or_default().crosses_call = true;
                    }
                }
            }
            InstKind::Ret { values } => {
                for &v in values {
                    if is_coll(v) {
                        let root = uf.find(v);
                        facts.entry(root).or_default().crosses_call = true;
                    }
                }
            }
            _ => {}
        }
    }

    // ---- 3. decide per allocation site ---------------------------------
    for &(_, iid) in &order {
        let inst = &f.insts[iid];
        let (is_assoc_site, seq_len) = match &inst.kind {
            InstKind::NewAssoc { key, .. } => {
                if !m.types.get(*key).is_integer() {
                    continue;
                }
                (true, None)
            }
            InstKind::NewSeq { len, .. } => (false, f.value_const(*len).and_then(Constant::as_int)),
            _ => continue,
        };
        let r = inst.results[0];
        let root = uf.find(r);
        let Some(g) = facts.get(&root) else { continue };
        if g.has_param || g.crosses_call || g.keys_observed {
            continue;
        }
        if esc.placement(iid) != Some(Placement::Stack) {
            continue;
        }
        if is_assoc_site {
            if g.keys_bounded {
                if let Some(hi) = g.key_hi {
                    out.insert((fid, iid), Repr::Dense { cap: hi });
                }
            }
        } else if let Some(n) = seq_len {
            if !g.resized && n >= 0 && (n as u64) <= INLINE_CAP_LIMIT {
                out.insert((fid, iid), Repr::Inline { cap: n as u64 });
            }
        }
    }
}

/// A constant `[lo : hi)` bound for a key value: its element-level range
/// lattice when constant, else the `x & mask` wrapping pattern (which
/// bounds the result even when `x` is loop-invariant and the lattice
/// keeps it symbolic).
fn key_bound(f: &Function, idx: &IndexRanges<'_>, k: ValueId) -> Option<(i64, i64)> {
    let r = idx.range_of(k);
    if let (Some(lo), Some(hi)) = (r.lo.as_const(), r.hi.as_const()) {
        return Some((lo, hi));
    }
    if let ValueDef::Inst(iid, _) = f.values[k].def {
        if let InstKind::Bin {
            op: BinOp::And,
            lhs,
            rhs,
        } = f.insts[iid].kind
        {
            let mask = f
                .value_const(rhs)
                .and_then(Constant::as_int)
                .or_else(|| f.value_const(lhs).and_then(Constant::as_int));
            if let Some(m) = mask {
                if m >= 0 {
                    return Some((0, m + 1));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, ModuleBuilder};

    fn choices_of(m: &Module) -> Vec<Repr> {
        let mut v: Vec<Repr> = choose_reprs(m).into_values().collect();
        v.sort_by_key(|r| format!("{r:?}"));
        v
    }

    #[test]
    fn masked_keys_select_dense() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let a0 = b.new_assoc(i64t, i64t);
            let h = b.param("h", i64t);
            let mask = b.i64(255);
            let k = b.bin(BinOp::And, h, mask);
            let one = b.i64(1);
            let a1 = b.write(a0, k, one);
            let v = b.read(a1, k);
            b.returns(&[i64t]);
            b.ret(vec![v]);
        });
        let m = mb.finish();
        assert_eq!(choices_of(&m), vec![Repr::Dense { cap: 256 }]);
    }

    #[test]
    fn unbounded_keys_fall_back_to_default() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let a0 = b.new_assoc(i64t, i64t);
            let k = b.param("k", i64t); // unbounded key space
            let one = b.i64(1);
            let a1 = b.write(a0, k, one);
            let v = b.read(a1, k);
            b.returns(&[i64t]);
            b.ret(vec![v]);
        });
        let m = mb.finish();
        assert!(choices_of(&m).is_empty());
    }

    #[test]
    fn keys_op_disqualifies_dense() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let idxt = b.ty(Type::Index);
            let a0 = b.new_assoc(i64t, i64t);
            let k = b.i64(3);
            let one = b.i64(1);
            let a1 = b.write(a0, k, one);
            let ks = b.keys(a1);
            let n = b.size(ks);
            b.returns(&[idxt]);
            b.ret(vec![n]);
        });
        let m = mb.finish();
        assert!(choices_of(&m).is_empty());
    }

    #[test]
    fn escaping_assoc_falls_back() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let assoc_ty = b.types.assoc_of(i64t, i64t);
            let a0 = b.new_assoc(i64t, i64t);
            let k = b.i64(3);
            let one = b.i64(1);
            let a1 = b.write(a0, k, one);
            b.returns(&[assoc_ty]);
            b.ret(vec![a1]); // escapes
        });
        let m = mb.finish();
        assert!(choices_of(&m).is_empty());
    }

    #[test]
    fn small_const_seq_selects_inline() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(4);
            let s0 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let one = b.i64(1);
            let s1 = b.write(s0, zero, one);
            let v = b.read(s1, zero);
            b.returns(&[i64t]);
            b.ret(vec![v]);
        });
        let m = mb.finish();
        assert_eq!(choices_of(&m), vec![Repr::Inline { cap: 4 }]);
    }

    #[test]
    fn growing_seq_is_not_inline() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(2);
            let s0 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let one = b.i64(1);
            let s1 = b.insert(s0, zero, Some(one)); // grows
            let v = b.read(s1, zero);
            b.returns(&[i64t]);
            b.ret(vec![v]);
        });
        let m = mb.finish();
        assert!(choices_of(&m).is_empty());
    }

    #[test]
    fn mut_form_dense_selection_works() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let a = b.new_assoc(i64t, i64t);
            let k = b.i64(7);
            let one = b.i64(1);
            b.mut_insert(a, k, Some(one));
            b.mut_rmw(a, k, BinOp::Add, one);
            let v = b.read(a, k);
            b.returns(&[i64t]);
            b.ret(vec![v]);
        });
        let m = mb.finish();
        assert_eq!(choices_of(&m), vec![Repr::Dense { cap: 8 }]);
    }
}
