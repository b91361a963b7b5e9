//! Escape analysis for heap/stack selection (§VI, Collection Lowering).
//!
//! The paper: *"If an escape analysis computed on a `new` operator indicates
//! that the collection or object is dead at all exit points of its
//! containing function, it will be allocated on the stack; otherwise it is
//! allocated on the heap."*
//!
//! MEMOIR's value semantics make collection escape nearly syntactic: a
//! collection cannot be aliased, so it escapes only by being returned (or
//! spliced into a collection that is itself returned). Object references,
//! by contrast, are first-class and escape through field writes, element
//! stores, returns, and opaque calls.

use memoir_ir::{Callee, Function, InstId, InstKind, Module, ObjTypeId, Type, TypeId, ValueId};
use std::collections::{HashMap, HashSet};

/// Verdict for one allocation site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The allocation is dead at every exit: stack storage is legal.
    Stack,
    /// The allocation may outlive the function: heap storage required.
    Heap,
}

/// Escape/placement verdicts for every allocation site of a function.
#[derive(Clone, Debug)]
pub struct EscapeAnalysis {
    /// Placement per allocating instruction (`new Seq`, `new Assoc`,
    /// `new T`, `copy`, `split`, `keys`).
    pub placements: HashMap<InstId, Placement>,
}

impl EscapeAnalysis {
    /// Analyzes one (mut-form or SSA-form) function.
    pub fn compute(m: &Module, f: &Function) -> Self {
        // escaped: set of values known to escape; grow to fixed point.
        let mut escaped: HashSet<ValueId> = HashSet::new();
        let insts = f.inst_ids_in_order();

        let mut changed = true;
        while changed {
            changed = false;
            for &(_, i) in &insts {
                let inst = &f.insts[i];
                let mark = |v: ValueId, escaped: &mut HashSet<ValueId>| escaped.insert(v);
                // SSA chains propagate escape backwards: if a version
                // escapes, destruction may reuse its source's storage, so
                // treat the source as escaping too.
                for (r, c) in inst.results.iter().zip(inst.kind.versioned_operands()) {
                    if escaped.contains(r) {
                        changed |= mark(c, &mut escaped);
                    }
                }
                match &inst.kind {
                    // Returning a value escapes it.
                    InstKind::Ret { values } => {
                        for &v in values {
                            changed |= mark(v, &mut escaped);
                        }
                    }
                    // Storing an object reference anywhere escapes the
                    // object (references are first-class).
                    InstKind::FieldWrite { value, .. } => {
                        changed |= mark(*value, &mut escaped);
                    }
                    InstKind::Write { value, .. }
                    | InstKind::MutWrite { value, .. }
                    | InstKind::Rmw { value, .. }
                    | InstKind::MutRmw { value, .. } => {
                        changed |= mark(*value, &mut escaped);
                    }
                    InstKind::Insert { value: Some(v), .. }
                    | InstKind::MutInsert { value: Some(v), .. } => {
                        changed |= mark(*v, &mut escaped);
                    }
                    InstKind::Phi { incoming }
                        if inst.results.first().is_some_and(|r| escaped.contains(r)) =>
                    {
                        for (_, v) in incoming {
                            changed |= mark(*v, &mut escaped);
                        }
                    }
                    // Calls: by-ref args do not escape (value semantics);
                    // object references passed to opaque externs escape.
                    InstKind::Call { callee, args } => {
                        let opaque = match callee {
                            Callee::Extern(e) => m.externs[*e].effects.opaque,
                            Callee::Func(_) => false,
                        };
                        if opaque {
                            for &a in args {
                                changed |= mark(a, &mut escaped);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        let mut placements = HashMap::new();
        for (_, i) in &insts {
            let inst = &f.insts[*i];
            let is_alloc = matches!(
                inst.kind,
                InstKind::NewSeq { .. }
                    | InstKind::NewAssoc { .. }
                    | InstKind::NewObj { .. }
                    | InstKind::Copy { .. }
                    | InstKind::CopyRange { .. }
                    | InstKind::MutSplit { .. }
                    | InstKind::Keys { .. }
            );
            if is_alloc {
                let esc = inst.results.iter().any(|r| escaped.contains(r));
                placements.insert(
                    *i,
                    if esc {
                        Placement::Heap
                    } else {
                        Placement::Stack
                    },
                );
            }
        }
        EscapeAnalysis { placements }
    }

    /// Placement of one allocation site.
    pub fn placement(&self, i: InstId) -> Option<Placement> {
        self.placements.get(&i).copied()
    }

    /// Number of stack-eligible allocation sites.
    pub fn stack_count(&self) -> usize {
        self.placements
            .values()
            .filter(|p| **p == Placement::Stack)
            .count()
    }
}

/// Module-wide type escape: which object types have references that reach
/// *unknown* code (externs that read their arguments, or are opaque).
///
/// Under partial compilation, unknown code may read any field of such a
/// type, so layout transformations (dead-field elimination, field
/// elision) must leave it untouched. The set is closed over reachability:
/// passing `&T` to an extern taints `T` and every type reachable through
/// `T`'s fields, element types, and key/value types.
#[derive(Clone, Debug, Default)]
pub struct TypeEscape {
    /// Object types whose references reach unknown code.
    pub escaping: HashSet<ObjTypeId>,
}

impl TypeEscape {
    /// Scans every extern call site of the module.
    pub fn compute(m: &Module) -> Self {
        let mut escaping = HashSet::new();
        for (_, f) in m.funcs.iter() {
            for (_, i) in f.inst_ids_in_order() {
                if let InstKind::Call {
                    callee: Callee::Extern(e),
                    args,
                } = &f.insts[i].kind
                {
                    let eff = m.externs[*e].effects;
                    if eff.reads_args || eff.opaque {
                        for &a in args {
                            mark_reachable_types(m, f.value_ty(a), &mut escaping);
                        }
                    }
                }
            }
        }
        TypeEscape { escaping }
    }

    /// Whether layout transformations must leave `ty` alone.
    pub fn escapes(&self, ty: ObjTypeId) -> bool {
        self.escaping.contains(&ty)
    }
}

fn mark_reachable_types(m: &Module, ty: TypeId, out: &mut HashSet<ObjTypeId>) {
    match m.types.get(ty) {
        Type::Ref(o) | Type::Object(o) if out.insert(o) => {
            for field in m.types.object(o).fields.clone() {
                mark_reachable_types(m, field.ty, out);
            }
        }
        Type::Seq(e) => mark_reachable_types(m, e, out),
        Type::Assoc(k, v) => {
            mark_reachable_types(m, k, out);
            mark_reachable_types(m, v, out);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, ModuleBuilder, Type};

    #[test]
    fn local_scratch_is_stack() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(8);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(1);
            b.mut_write(s, zero, v);
            let r = b.read(s, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let esc = EscapeAnalysis::compute(&m, f);
        assert_eq!(esc.stack_count(), 1);
    }

    #[test]
    fn returned_collection_is_heap() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let seqt = b.types.seq_of(i64t);
            let n = b.index(8);
            let s = b.new_seq(i64t, n);
            b.returns(&[seqt]);
            b.ret(vec![s]);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let esc = EscapeAnalysis::compute(&m, f);
        assert_eq!(esc.stack_count(), 0);
        assert!(esc.placements.values().all(|p| *p == Placement::Heap));
    }

    #[test]
    fn ssa_chain_propagates_escape_backwards() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let seqt = b.types.seq_of(i64t);
            let n = b.index(8);
            let s0 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(1);
            let s1 = b.write(s0, zero, v);
            b.returns(&[seqt]);
            b.ret(vec![s1]); // s1 escapes ⇒ s0's storage escapes
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let esc = EscapeAnalysis::compute(&m, f);
        assert_eq!(esc.stack_count(), 0);
    }

    #[test]
    fn object_stored_into_collection_escapes() {
        let mut mb = ModuleBuilder::new("m");
        let obj = mb.module.types.define_object("t0", vec![]).unwrap();
        mb.func("f", Form::Mut, |b| {
            let rt = b.ty(Type::Ref(obj));
            let seqt = b.types.seq_of(rt);
            let n = b.index(1);
            let s = b.new_seq(rt, n);
            let o = b.new_obj(obj);
            let zero = b.index(0);
            b.mut_write(s, zero, o);
            b.returns(&[seqt]);
            b.ret(vec![s]);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let esc = EscapeAnalysis::compute(&m, f);
        // Both the sequence (returned) and the object (stored) are heap.
        assert_eq!(esc.stack_count(), 0);
        assert_eq!(esc.placements.len(), 2);
    }
}
