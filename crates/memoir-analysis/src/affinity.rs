//! Field affinity analysis: choosing field-elision candidates (§V).
//!
//! The paper selects fields for elision "via affinity analysis
//! [Chilimbi et al., Rubin et al.]": a field that is rarely accessed
//! together with its co-located fields wastes cache space and is a
//! candidate for migrating out of the object. This implementation computes
//! a static co-access affinity: for every pair of fields of an object type,
//! how often they are accessed in the same basic block, weighted by loop
//! depth (a static stand-in for the profile weights the cited work uses).

use memoir_ir::{Function, InstKind, Module, ObjTypeId};
use std::collections::{HashMap, HashSet};

/// Affinity statistics for one object type.
#[derive(Clone, Debug, Default)]
pub struct FieldAffinity {
    /// Weighted access count per field.
    pub access_weight: Vec<f64>,
    /// Weighted co-access count per field: accesses occurring in a block
    /// that also accesses *another* field of the same object type.
    pub co_access_weight: Vec<f64>,
}

impl FieldAffinity {
    /// Affinity of a field in `[0, 1]`: the fraction of its accesses that
    /// co-occur with accesses to sibling fields. Returns 1.0 for fields
    /// that are never accessed (they are dead-field, not elision,
    /// candidates).
    pub fn affinity(&self, field: usize) -> f64 {
        let a = self.access_weight.get(field).copied().unwrap_or(0.0);
        if a == 0.0 {
            return 1.0;
        }
        self.co_access_weight.get(field).copied().unwrap_or(0.0) / a
    }
}

/// Module-wide affinity analysis results.
#[derive(Clone, Debug, Default)]
pub struct Affinity {
    per_type: HashMap<ObjTypeId, FieldAffinity>,
}

impl Affinity {
    /// Computes affinities over all functions of a module.
    pub fn compute(m: &Module) -> Self {
        let mut per_type: HashMap<ObjTypeId, FieldAffinity> = HashMap::new();
        for (ty, obj) in m.types.objects() {
            per_type.insert(
                ty,
                FieldAffinity {
                    access_weight: vec![0.0; obj.fields.len()],
                    co_access_weight: vec![0.0; obj.fields.len()],
                },
            );
        }
        for (_, f) in m.funcs.iter() {
            accumulate(f, &mut per_type);
        }
        Affinity { per_type }
    }

    /// Affinity data for an object type.
    pub fn for_type(&self, ty: ObjTypeId) -> Option<&FieldAffinity> {
        self.per_type.get(&ty)
    }

    /// Fields of `ty` whose affinity is below `threshold`, which are
    /// accessed at least once, and which are *cold* relative to the
    /// type's hottest field — the elision candidates of §V (eliding a hot
    /// field would trade its inline locality for collection indirection
    /// on the hot path, the regression the paper observes for FE alone).
    pub fn elision_candidates(&self, ty: ObjTypeId, threshold: f64) -> Vec<u32> {
        const HOTNESS_CUTOFF: f64 = 0.5;
        let Some(fa) = self.per_type.get(&ty) else {
            return Vec::new();
        };
        let max_w = fa.access_weight.iter().copied().fold(0.0f64, f64::max);
        (0..fa.access_weight.len())
            .filter(|&i| {
                let w = fa.access_weight[i];
                w > 0.0 && fa.affinity(i) < threshold && w <= HOTNESS_CUTOFF * max_w
            })
            .map(|i| i as u32)
            .collect()
    }
}

fn accumulate(f: &Function, per_type: &mut HashMap<ObjTypeId, FieldAffinity>) {
    let depths = crate::dominators::natural_loop_depths(f, &crate::DomTree::compute(f));
    for (b, block) in f.blocks.iter() {
        let w = 10f64.powi(*depths.get(&b).unwrap_or(&0) as i32);
        // Collect the set of (type, field) accessed in this block.
        let mut accessed: HashMap<ObjTypeId, HashSet<u32>> = HashMap::new();
        let mut counts: HashMap<(ObjTypeId, u32), f64> = HashMap::new();
        for &i in &block.insts {
            if let InstKind::FieldRead { obj_ty, field, .. }
            | InstKind::FieldWrite { obj_ty, field, .. } = &f.insts[i].kind
            {
                accessed.entry(*obj_ty).or_default().insert(*field);
                *counts.entry((*obj_ty, *field)).or_insert(0.0) += w;
            }
        }
        for ((ty, field), c) in counts {
            if let Some(fa) = per_type.get_mut(&ty) {
                fa.access_weight[field as usize] += c;
                let siblings = &accessed[&ty];
                if siblings.len() > 1 {
                    fa.co_access_weight[field as usize] += c;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{CmpOp, Field, Form, ModuleBuilder, Type};

    /// An object with a hot field `a` (accessed in a loop, alone) and a
    /// cold co-accessed pair `b`,`c`.
    fn build() -> (memoir_ir::Module, ObjTypeId) {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "node",
                vec![
                    Field {
                        name: "a".into(),
                        ty: i64t,
                    },
                    Field {
                        name: "b".into(),
                        ty: i64t,
                    },
                    Field {
                        name: "c".into(),
                        ty: i64t,
                    },
                ],
            )
            .unwrap();
        mb.func("f", Form::Mut, |b| {
            let o = b.new_obj(obj);
            let t = b.ty(Type::Index);
            let n = b.param("n", t);
            // Cold block: b and c together.
            let vb = b.field_read(o, obj, 1);
            b.field_write(o, obj, 2, vb);
            // Hot loop: only a.
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let zero = b.index(0);
            let one = b.index(1);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(t);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            let done = b.cmp(CmpOp::Ge, i, n);
            b.branch(done, exit, body);
            b.switch_to(body);
            let va = b.field_read(o, obj, 0);
            b.field_write(o, obj, 0, va);
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.jump(header);
            b.switch_to(exit);
            b.ret(vec![]);
        });
        (mb.finish(), obj)
    }

    #[test]
    fn lone_field_has_low_affinity() {
        let (m, obj) = build();
        let aff = Affinity::compute(&m);
        let fa = aff.for_type(obj).unwrap();
        // `a` is accessed alone: affinity 0.
        assert_eq!(fa.affinity(0), 0.0);
        // `b` and `c` are always co-accessed: affinity 1.
        assert_eq!(fa.affinity(1), 1.0);
        assert_eq!(fa.affinity(2), 1.0);
    }

    #[test]
    fn loop_weighting_dominates() {
        let (m, obj) = build();
        let aff = Affinity::compute(&m);
        let fa = aff.for_type(obj).unwrap();
        // Loop accesses weigh 10×: `a` outweighs `b`.
        assert!(fa.access_weight[0] > fa.access_weight[1]);
    }

    #[test]
    fn candidates_respect_threshold_and_hotness() {
        let (m, obj) = build();
        let aff = Affinity::compute(&m);
        // `a` is a loner (affinity 0) but the *hottest* field: eliding it
        // would put the hot path behind a collection — not a candidate.
        assert!(aff.elision_candidates(obj, 0.5).is_empty());
        // A cold loner qualifies: extend the module with one.
        let mut m2 = m.clone();
        let i64t = m2.types.intern(memoir_ir::Type::I64);
        m2.types
            .set_fields(obj, {
                let mut fs = m2.types.object(obj).fields.clone();
                fs.push(memoir_ir::Field {
                    name: "cold".into(),
                    ty: i64t,
                });
                fs
            })
            .unwrap();
        // Access `cold` once, alone, in its own (cold) block.
        let fid = m2.func_by_name("f").unwrap();
        let f = &mut m2.funcs[fid];
        // The object ref is the first instruction's result.
        let (_, first) = f.inst_ids_in_order()[0];
        let oref = f.insts[first].results[0];
        let cold_block = f.add_block("cold");
        f.append_inst(
            cold_block,
            memoir_ir::InstKind::FieldRead {
                obj: oref,
                obj_ty: obj,
                field: 3,
            },
            &[i64t],
        );
        f.append_inst(cold_block, memoir_ir::InstKind::Ret { values: vec![] }, &[]);
        let aff2 = Affinity::compute(&m2);
        assert_eq!(aff2.elision_candidates(obj, 0.5), vec![3]);
    }

    #[test]
    fn unaccessed_field_is_not_a_candidate() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t",
                vec![Field {
                    name: "dead".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        mb.func("f", Form::Mut, |b| b.ret(vec![]));
        let m = mb.finish();
        let aff = Affinity::compute(&m);
        assert!(aff.elision_candidates(obj, 0.9).is_empty());
        assert_eq!(aff.for_type(obj).unwrap().affinity(0), 1.0);
    }
}
