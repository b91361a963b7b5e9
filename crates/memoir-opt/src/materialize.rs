//! The materialization function `M(e, p)` (paper Def. 7).
//!
//! Given an expression tree and a program point, `M` constructs the
//! side-effect-free operations computing the expression and returns the
//! resulting value — or is undefined when some leaf does not dominate the
//! point. This implementation materializes at a *block-entry-like*
//! position (a block and an instruction index), checking operand dominance
//! against the dominator tree, and reuses existing values where the leaf
//! is already a value (`M(e,p) = e` for constants, parameters, and
//! dominating variables).

use memoir_analysis::exprtree::{Expr, Term};
use memoir_analysis::DomTree;
use memoir_ir::{BinOp, BlockId, Constant, Function, InstKind, Type, TypeId, ValueDef, ValueId};

/// A program point: instructions are inserted into `block` starting at
/// `index` (subsequent insertions shift the index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Point {
    /// The block to insert into.
    pub block: BlockId,
    /// The instruction index within the block.
    pub index: usize,
}

/// Materializes expressions into a function at a point.
#[derive(Debug)]
pub struct Materializer<'a> {
    /// The function being edited.
    pub f: &'a mut Function,
    dt: DomTree,
    index_ty: TypeId,
    /// Value of the symbolic `end` (the relevant sequence's size), if the
    /// expression may mention it.
    pub end_value: Option<ValueId>,
}

impl<'a> Materializer<'a> {
    /// Creates a materializer for a function. `index_ty` must be the
    /// interned `index` type id.
    pub fn new(f: &'a mut Function, index_ty: TypeId) -> Self {
        let dt = DomTree::compute(f);
        Materializer {
            f,
            dt,
            index_ty,
            end_value: None,
        }
    }

    /// Refreshes the dominator tree after CFG edits.
    pub fn refresh(&mut self) {
        self.dt = DomTree::compute(self.f);
    }

    /// `M(e, p)`: materializes `e` immediately before `point`, returning
    /// the value and the number of instructions inserted, or `None` if a
    /// leaf does not dominate the point.
    pub fn materialize(&mut self, e: &Expr, point: Point) -> Option<(ValueId, usize)> {
        // First check that every referenced value dominates the point.
        for v in e.values() {
            if !self.dominates_point(v, point) {
                return None;
            }
        }
        let mut inserted = 0;
        let v = self.emit(e, point, &mut inserted)?;
        Some((v, inserted))
    }

    fn dominates_point(&self, v: ValueId, point: Point) -> bool {
        match &self.f.values[v].def {
            ValueDef::Param(_) | ValueDef::Const(_) => true,
            ValueDef::Inst(iid, _) => {
                // Find the defining block/position.
                for (b, block) in self.f.blocks.iter() {
                    if let Some(pos) = block.insts.iter().position(|i| i == iid) {
                        return if b == point.block {
                            pos < point.index
                        } else {
                            self.dt.dominates(b, point.block)
                        };
                    }
                }
                false
            }
        }
    }

    fn konst(&mut self, c: i64) -> ValueId {
        self.f.constant(Constant::index(c as u64), self.index_ty)
    }

    fn insert(&mut self, point: Point, offset: &mut usize, kind: InstKind) -> ValueId {
        let (_, res) =
            self.f
                .insert_inst_at(point.block, point.index + *offset, kind, &[self.index_ty]);
        *offset += 1;
        res[0]
    }

    fn emit(&mut self, e: &Expr, point: Point, offset: &mut usize) -> Option<ValueId> {
        match e {
            Expr::Affine(a) => {
                // Sum terms left to right: konst + Σ coeff·term.
                let mut acc: Option<ValueId> = if a.konst != 0 || a.terms.is_empty() {
                    Some(self.konst(a.konst))
                } else {
                    None
                };
                for (&t, &coeff) in &a.terms {
                    let base = match t {
                        Term::Value(v) => v,
                        Term::End => self.end_value?,
                    };
                    let scaled = match coeff {
                        1 => base,
                        -1 => {
                            let zero = self.konst(0);
                            self.insert(
                                point,
                                offset,
                                InstKind::Bin {
                                    op: BinOp::Sub,
                                    lhs: zero,
                                    rhs: base,
                                },
                            )
                        }
                        c => {
                            let k = self.konst(c);
                            self.insert(
                                point,
                                offset,
                                InstKind::Bin {
                                    op: BinOp::Mul,
                                    lhs: base,
                                    rhs: k,
                                },
                            )
                        }
                    };
                    acc = Some(match acc {
                        None => scaled,
                        Some(prev) => self.insert(
                            point,
                            offset,
                            InstKind::Bin {
                                op: BinOp::Add,
                                lhs: prev,
                                rhs: scaled,
                            },
                        ),
                    });
                }
                acc
            }
            Expr::Min(es) | Expr::Max(es) => {
                let op = if matches!(e, Expr::Min(_)) {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                let mut acc: Option<ValueId> = None;
                for sub in es {
                    let v = self.emit(sub, point, offset)?;
                    acc = Some(match acc {
                        None => v,
                        Some(prev) => self.insert(
                            point,
                            offset,
                            InstKind::Bin {
                                op,
                                lhs: prev,
                                rhs: v,
                            },
                        ),
                    });
                }
                acc
            }
            Expr::Unknown => None,
        }
    }
}

/// Convenience: interns the index type on a module.
pub fn index_ty(types: &mut memoir_ir::TypeTable) -> TypeId {
    types.intern(Type::Index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_analysis::exprtree::Expr;
    use memoir_ir::{Form, ModuleBuilder};

    #[test]
    fn materializes_affine_over_params() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let n = b.param("n", t);
            probe = Some(n);
            b.returns(&[t]);
            b.ret(vec![n]);
        });
        let mut m = mb.finish();
        let idx_ty = index_ty(&mut m.types);
        let fid = m.func_by_name("f").unwrap();
        let f = &mut m.funcs[fid];
        let n = probe.unwrap();
        let e = Expr::value(n).offset(3);
        let entry = f.entry;
        let mut mat = Materializer::new(f, idx_ty);
        let (v, count) = mat
            .materialize(
                &e,
                Point {
                    block: entry,
                    index: 0,
                },
            )
            .expect("materializable");
        assert_eq!(count, 1, "one add");
        // Replace the return with the materialized value and run.
        let fr = &mut m.funcs[fid];
        for (_, i) in fr.inst_ids_in_order() {
            if let InstKind::Ret { values } = &mut fr.insts[i].kind {
                values[0] = v;
            }
        }
        memoir_ir::verifier::assert_valid(&m);
        let mut interp = memoir_interp::Interp::new(&m);
        let r = interp
            .run_by_name("f", vec![memoir_interp::Value::Int(Type::Index, 4)])
            .unwrap();
        assert_eq!(r, vec![memoir_interp::Value::Int(Type::Index, 7)]);
    }

    #[test]
    fn materializes_min_of_values() {
        let mut mb = ModuleBuilder::new("m");
        let mut probe = None;
        mb.func("f", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let x = b.param("x", t);
            let y = b.param("y", t);
            probe = Some((x, y));
            b.returns(&[t]);
            b.ret(vec![x]);
        });
        let mut m = mb.finish();
        let idx_ty = index_ty(&mut m.types);
        let fid = m.func_by_name("f").unwrap();
        let (x, y) = probe.unwrap();
        let e = Expr::min2(Expr::value(x), Expr::value(y).offset(1));
        let f = &mut m.funcs[fid];
        let entry = f.entry;
        let mut mat = Materializer::new(f, idx_ty);
        let (v, _) = mat
            .materialize(
                &e,
                Point {
                    block: entry,
                    index: 0,
                },
            )
            .unwrap();
        let fr = &mut m.funcs[fid];
        for (_, i) in fr.inst_ids_in_order() {
            if let InstKind::Ret { values } = &mut fr.insts[i].kind {
                values[0] = v;
            }
        }
        memoir_ir::verifier::assert_valid(&m);
        let mut interp = memoir_interp::Interp::new(&m);
        let r = interp
            .run_by_name(
                "f",
                vec![
                    memoir_interp::Value::Int(Type::Index, 9),
                    memoir_interp::Value::Int(Type::Index, 4),
                ],
            )
            .unwrap();
        assert_eq!(r, vec![memoir_interp::Value::Int(Type::Index, 5)]);
    }

    #[test]
    fn unknown_is_not_materializable() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            b.ret(vec![]);
        });
        let mut m = mb.finish();
        let idx_ty = index_ty(&mut m.types);
        let fid = m.func_by_name("f").unwrap();
        let f = &mut m.funcs[fid];
        let entry = f.entry;
        let mut mat = Materializer::new(f, idx_ty);
        assert!(mat
            .materialize(
                &Expr::Unknown,
                Point {
                    block: entry,
                    index: 0
                }
            )
            .is_none());
    }
}
