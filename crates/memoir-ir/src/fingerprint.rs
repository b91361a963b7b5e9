//! Content fingerprints for MEMOIR functions (see `passman::fingerprint`
//! for the contract).
//!
//! Each function is hashed in canonical form: blocks in reverse postorder
//! from the entry (unreachable blocks appended in id order), values
//! renumbered by definition order (parameters first, then instruction
//! results in walk order), constants hashed by value rather than by the
//! arena id of their materialized `ValueId`, and φ-incomings sorted by
//! canonical predecessor. Compaction, print/parse round trips, or any
//! other value-id renumbering therefore leaves the fingerprint unchanged,
//! while every op, immediate, type, or control-flow edit changes it.
//! Value *names* are excluded — they are debug info — but the function
//! name is included: cached pass and lowering outputs are whole bodies
//! carrying their symbol name, so two functions may share a fingerprint
//! only when they are byte-compatible, not merely isomorphic.
//!
//! An instruction is serialized by its derived `Hash`: a private copy of
//! the op, with operands and successors rewritten to canonical numbers,
//! is fed to the [`StableHasher`], followed by its constant operands in
//! operand order. One serialization thus covers the whole instruction
//! set, immediates included, and every list in the stream is
//! length-prefixed, so distinct functions never write the same words.
//!
//! Raw `TypeId` / `ObjTypeId` / `ExternId` immediates do appear in the
//! per-op stream, so their meaning is pinned by folding a hash of the
//! whole type table (interned types, object definitions and layouts) and
//! of every extern declaration into each function's fingerprint. This is
//! deliberately conservative: editing any object layout or extern
//! summary invalidates every function, which is exactly what layout
//! transformations (field elision, dead-field elimination) require.
//!
//! Callee *bodies* are not hashed locally (their `FuncId` slots are,
//! since cached pass outputs embed them); [`passman::fingerprint::propagate`]
//! folds in the callees' fingerprints over the condensed callgraph. A
//! pass that edits only callee `g` therefore changes the fingerprint of
//! every (transitive) caller of `g`, even when the pass reported
//! `Mutation::Funcs([g])` — which is what lets the analysis cache drop
//! the callers' callgraph-dependent results.

use crate::function::{Function, ValueDef};
use crate::ids::{BlockId, FuncId, ValueId};
use crate::inst::{Callee, Constant, InstKind};
use crate::module::Module;
use passman::fingerprint::{block_order, propagate, Fingerprint, StableHasher};
use std::hash::{Hash, Hasher};

/// Marker written to the op stream in place of a constant operand (the
/// constant's value is hashed separately, in operand order).
const CONST_MARK: u32 = u32::MAX - 1;
/// Marker for an operand or successor that resolves to nothing (broken
/// IR mid-fuzz), and for a value slot not yet numbered; keeps the walk
/// total and deterministic.
const DANGLING_MARK: u32 = u32::MAX;

/// Hashes the module-wide context every function's meaning depends on:
/// the type table (interned types, object definitions, computed layouts)
/// and the extern declarations. The module name is excluded.
fn table_hash(m: &Module) -> u64 {
    let mut h = StableHasher::new();
    let types: Vec<_> = m.types.entries().collect();
    types.hash(&mut h);
    h.write_usize(m.types.object_count());
    for (oid, obj) in m.types.objects() {
        h.write_u32(oid.raw());
        h.write_str(&obj.name);
        h.write_usize(obj.fields.len());
        for field in &obj.fields {
            h.write_str(&field.name);
            h.write_u32(field.ty.raw());
        }
        let layout = m.types.object_layout(oid);
        h.write_u64(layout.size);
        h.write_u64(layout.align);
        for off in layout.offsets {
            h.write_u64(off);
        }
    }
    h.write_usize(m.externs.len());
    for (eid, e) in m.externs.iter() {
        h.write_u32(eid.raw());
        h.write_str(&e.name);
        e.params.hash(&mut h);
        e.ret_tys.hash(&mut h);
        h.write_bool(e.effects.reads_args);
        h.write_bool(e.effects.writes_args);
        h.write_bool(e.effects.opaque);
    }
    h.finish()
}

/// Hashes one function's structure with canonical value/block numbering,
/// and collects its in-module callee list in call-site order.
fn local_structure(f: &Function) -> (u64, Vec<usize>) {
    let order: Vec<BlockId> = block_order(&f.successor_lists(), f.entry.index())
        .into_iter()
        .map(|b| BlockId::from_raw(b as u32))
        .collect();
    let mut blk_pos = vec![DANGLING_MARK; f.blocks.len()];
    for (i, &b) in order.iter().enumerate() {
        blk_pos[b.index()] = i as u32;
    }
    let canon_block =
        |b: BlockId| BlockId::from_raw(blk_pos.get(b.index()).copied().unwrap_or(DANGLING_MARK));
    // Canonical value numbers: params first, then results in walk order.
    let mut canon = vec![DANGLING_MARK; f.values.len()];
    let mut next = 0u32;
    let mut number = |v: ValueId| {
        if let Some(slot) = canon.get_mut(v.index()) {
            if *slot == DANGLING_MARK {
                *slot = next;
                next += 1;
            }
        }
    };
    f.param_values.iter().copied().for_each(&mut number);
    for &b in &order {
        for &iid in &f.blocks[b].insts {
            if iid.index() < f.insts.len() {
                f.insts[iid].results.iter().copied().for_each(&mut number);
            }
        }
    }

    let mut h = StableHasher::new();
    let mut callees: Vec<usize> = Vec::new();
    let mut consts: Vec<Constant> = Vec::new();
    h.write_str(&f.name);
    h.write_usize(f.params.len());
    for p in &f.params {
        h.write_u32(p.ty.raw());
        h.write_bool(p.by_ref);
    }
    f.ret_tys.hash(&mut h);
    h.write_u64(f.form as u64);
    h.write_usize(order.len());
    for &b in &order {
        h.write_usize(f.blocks[b].insts.len());
        for &iid in &f.blocks[b].insts {
            if iid.index() >= f.insts.len() {
                h.write_u64(u64::MAX); // dangling inst id
                continue;
            }
            let inst = &f.insts[iid];
            h.write_usize(inst.results.len());
            for &r in &inst.results {
                // Result types pin op meanings that depend on the
                // surrounding collection type (e.g. `read`).
                match r.index() < f.values.len() {
                    true => h.write_u32(f.values[r].ty.raw()),
                    false => h.write_u32(DANGLING_MARK),
                }
            }
            // Canonicalize a private copy of the op and hash it
            // structurally, immediates and all.
            let mut kind = inst.kind.clone();
            if let InstKind::Call {
                callee: Callee::Func(fid),
                ..
            } = &kind
            {
                // The callee's *content* enters via fingerprint
                // propagation; its slot id stays in the op because
                // cached pass outputs embed it.
                callees.push(fid.index());
            }
            if let InstKind::Phi { incoming } = &mut kind {
                // Incoming order is id-dependent: sort by canonical
                // predecessor, before the constants are collected.
                for (p, _) in incoming.iter_mut() {
                    *p = canon_block(*p);
                }
                incoming.sort_by_key(|&(p, _)| p.raw());
            }
            consts.clear();
            kind.visit_operands_mut(|v| {
                *v = ValueId::from_raw(if v.index() >= f.values.len() {
                    DANGLING_MARK
                } else if let ValueDef::Const(c) = f.values[*v].def {
                    // Constants are values in the arena, minted in
                    // first-use order — hash by value, not by id.
                    consts.push(c);
                    CONST_MARK
                } else {
                    canon[v.index()]
                });
            });
            kind.visit_successors_mut(|b| *b = canon_block(*b));
            kind.hash(&mut h);
            consts.hash(&mut h);
        }
    }
    (h.finish(), callees)
}

/// Fingerprints every function of a module, with callee propagation
/// across the condensed callgraph (see the module docs).
pub fn module_fingerprints(m: &Module) -> Vec<(FuncId, Fingerprint)> {
    let locals: Vec<_> = m.funcs.iter().map(|(_, f)| local_structure(f)).collect();
    m.funcs
        .ids()
        .zip(propagate(Some(table_hash(m)), &locals))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Form;
    use crate::module::{ExternDecl, ExternEffects};
    use crate::types::Type;

    fn leaf(m: &mut Module, k: i64) -> FuncId {
        let mut b = FunctionBuilder::new(&mut m.types, "leaf", Form::Ssa);
        let i64t = b.ty(Type::I64);
        let x = b.param("x", i64t);
        b.returns(&[i64t]);
        let c = b.i64(k);
        let s = b.add(x, c);
        b.ret(vec![s]);
        {
            let f = b.finish();
            m.add_func(f)
        }
    }

    fn fp_of(fps: &[(FuncId, Fingerprint)], f: FuncId) -> Fingerprint {
        fps.iter().find(|(k, _)| *k == f).unwrap().1
    }

    #[test]
    fn deterministic_across_computations() {
        let mut m = Module::new("t");
        leaf(&mut m, 7);
        assert_eq!(module_fingerprints(&m), module_fingerprints(&m));
    }

    #[test]
    fn insensitive_to_value_id_renumbering() {
        let mut m1 = Module::new("t");
        let f1 = leaf(&mut m1, 7);
        // Same structure, but value ids shifted: an orphan constant is
        // minted first, so every live id is displaced.
        let mut m2 = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m2.types, "leaf", Form::Ssa);
        let i64t = b.ty(Type::I64);
        let x = b.param("x", i64t);
        b.returns(&[i64t]);
        let _orphan = b.i64(999);
        let c = b.i64(7);
        let s = b.add(x, c);
        b.ret(vec![s]);
        let f2 = {
            let f = b.finish();
            m2.add_func(f)
        };
        assert_eq!(
            fp_of(&module_fingerprints(&m1), f1),
            fp_of(&module_fingerprints(&m2), f2),
            "value-id renumbering must not change the fingerprint"
        );
    }

    #[test]
    fn sensitive_to_op_edits() {
        let mut m1 = Module::new("t");
        let f1 = leaf(&mut m1, 7);
        let mut m2 = Module::new("t");
        let f2 = leaf(&mut m2, 8);
        assert_ne!(
            fp_of(&module_fingerprints(&m1), f1),
            fp_of(&module_fingerprints(&m2), f2)
        );
    }

    #[test]
    fn callee_edit_changes_caller_fingerprint() {
        // The audit-gap pin: a change scoped to callee `g` must surface
        // in caller `f`'s fingerprint, so `f`'s callgraph-dependent
        // analyses are dropped even though only `Funcs([g])` mutated.
        let caller = |m: &mut Module, callee: FuncId| {
            let mut b = FunctionBuilder::new(&mut m.types, "caller", Form::Ssa);
            let i64t = b.ty(Type::I64);
            let x = b.param("x", i64t);
            b.returns(&[i64t]);
            let r = b.call(Callee::Func(callee), vec![x], &[i64t]);
            b.ret(vec![r[0]]);
            {
                let f = b.finish();
                m.add_func(f)
            }
        };
        let mut m1 = Module::new("t");
        let g1 = leaf(&mut m1, 7);
        let c1 = caller(&mut m1, g1);
        let mut m2 = Module::new("t");
        let g2 = leaf(&mut m2, 8);
        let c2 = caller(&mut m2, g2);
        assert_ne!(
            fp_of(&module_fingerprints(&m1), c1),
            fp_of(&module_fingerprints(&m2), c2),
            "editing the callee must change the caller's fingerprint"
        );
    }

    #[test]
    fn extern_or_type_edit_changes_every_fingerprint() {
        let mut m1 = Module::new("t");
        let f1 = leaf(&mut m1, 7);
        let mut m2 = Module::new("t");
        let f2 = leaf(&mut m2, 7);
        let i64t = m2.types.intern(Type::I64);
        m2.add_extern(ExternDecl {
            name: "probe".into(),
            params: vec![i64t],
            ret_tys: vec![],
            effects: ExternEffects::unknown(),
        });
        assert_ne!(
            fp_of(&module_fingerprints(&m1), f1),
            fp_of(&module_fingerprints(&m2), f2),
            "extern declarations are module context shared by all functions"
        );
    }
}
