//! Functions, basic blocks, and SSA values.

use crate::ids::{BlockId, IdMap, InstId, TypeId, ValueId};
use crate::inst::{Constant, Inst, InstKind};
use std::collections::HashMap;

/// How an SSA value is defined.
#[derive(Clone, Debug, PartialEq)]
pub enum ValueDef {
    /// The `index`-th parameter of the function. For collection parameters
    /// in SSA form this value plays the role of the paper's ARGφ.
    Param(u32),
    /// Result `index` of instruction `inst`.
    Inst(InstId, u32),
    /// A constant.
    Const(Constant),
}

/// An SSA value: its type, definition, and an optional name hint used by
/// the printer.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// Type of the value.
    pub ty: TypeId,
    /// Definition site.
    pub def: ValueDef,
    /// Printer name hint (e.g. `S_sorted`, `%pv`).
    pub name: Option<String>,
}

/// A basic block: an ordered list of instructions ending in a terminator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    /// Instructions in storage order; the last one must be a terminator in
    /// a verified function.
    pub insts: Vec<InstId>,
    /// Printer name hint.
    pub name: Option<String>,
}

/// Which program form a function is currently in (see the `memoir-ir`
/// crate docs on the two forms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// MUT-library form: collections mutated in place.
    Mut,
    /// MEMOIR SSA form: collections are immutable values.
    Ssa,
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Name hint.
    pub name: String,
    /// Parameter type.
    pub ty: TypeId,
    /// In mut form, whether a collection parameter is passed by reference
    /// (mutations are visible to the caller), mirroring the C++ MUT
    /// library. Ignored for scalars and in SSA form, where collection flow
    /// uses ARGφ/RETφ instead.
    pub by_ref: bool,
}

/// A MEMOIR function.
#[derive(Clone, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Return types. SSA-form functions that update collection parameters
    /// return the updated collections as extra results (RETφ).
    pub ret_tys: Vec<TypeId>,
    /// Current program form.
    pub form: Form,
    /// Entry block.
    pub entry: BlockId,
    /// Basic blocks.
    pub blocks: IdMap<BlockId, Block>,
    /// Instruction arena. Instructions removed from blocks stay in the
    /// arena but are unreachable; [`Function::compact`] drops them.
    pub insts: IdMap<InstId, Inst>,
    /// Value arena.
    pub values: IdMap<ValueId, Value>,
    /// Parameter values, in parameter order.
    pub param_values: Vec<ValueId>,
    const_cache: HashMap<Constant, ValueId>,
}

impl Function {
    /// Creates an empty function with one (empty) entry block.
    pub fn new(name: impl Into<String>, form: Form) -> Self {
        let mut blocks = IdMap::new();
        let entry = blocks.push(Block {
            insts: Vec::new(),
            name: Some("entry".into()),
        });
        Function {
            name: name.into(),
            params: Vec::new(),
            ret_tys: Vec::new(),
            form,
            entry,
            blocks,
            insts: IdMap::new(),
            values: IdMap::new(),
            param_values: Vec::new(),
            const_cache: HashMap::new(),
        }
    }

    /// Adds a parameter and returns its SSA value.
    pub fn add_param(&mut self, name: impl Into<String>, ty: TypeId, by_ref: bool) -> ValueId {
        let index = self.params.len() as u32;
        let name = name.into();
        self.params.push(Param {
            name: name.clone(),
            ty,
            by_ref,
        });
        let v = self.values.push(Value {
            ty,
            def: ValueDef::Param(index),
            name: Some(name),
        });
        self.param_values.push(v);
        v
    }

    /// Interns a constant value of the given type id.
    pub fn constant(&mut self, c: Constant, ty: TypeId) -> ValueId {
        if let Some(&v) = self.const_cache.get(&c) {
            return v;
        }
        let v = self.values.push(Value {
            ty,
            def: ValueDef::Const(c),
            name: None,
        });
        self.const_cache.insert(c, v);
        v
    }

    /// Appends a new empty block.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        self.blocks.push(Block {
            insts: Vec::new(),
            name: Some(name.into()),
        })
    }

    /// Appends an instruction to a block, minting `result_tys.len()` result
    /// values. Returns the instruction id and its results.
    pub fn append_inst(
        &mut self,
        block: BlockId,
        kind: InstKind,
        result_tys: &[TypeId],
    ) -> (InstId, Vec<ValueId>) {
        let inst_id = InstId::from_raw(self.insts.len() as u32);
        let results: Vec<ValueId> = result_tys
            .iter()
            .enumerate()
            .map(|(i, &ty)| {
                self.values.push(Value {
                    ty,
                    def: ValueDef::Inst(inst_id, i as u32),
                    name: None,
                })
            })
            .collect();
        let id = self.insts.push(Inst {
            kind,
            results: results.clone(),
        });
        debug_assert_eq!(id, inst_id);
        self.blocks[block].insts.push(id);
        (id, results)
    }

    /// Inserts an instruction at a position within a block (used by
    /// transformation passes), minting result values.
    pub fn insert_inst_at(
        &mut self,
        block: BlockId,
        pos: usize,
        kind: InstKind,
        result_tys: &[TypeId],
    ) -> (InstId, Vec<ValueId>) {
        let inst_id = InstId::from_raw(self.insts.len() as u32);
        let results: Vec<ValueId> = result_tys
            .iter()
            .enumerate()
            .map(|(i, &ty)| {
                self.values.push(Value {
                    ty,
                    def: ValueDef::Inst(inst_id, i as u32),
                    name: None,
                })
            })
            .collect();
        let id = self.insts.push(Inst {
            kind,
            results: results.clone(),
        });
        debug_assert_eq!(id, inst_id);
        self.blocks[block].insts.insert(pos, id);
        (id, results)
    }

    /// Removes an instruction from its block (it stays in the arena as
    /// garbage until [`Function::compact`]).
    pub fn remove_inst(&mut self, block: BlockId, inst: InstId) {
        self.blocks[block].insts.retain(|&i| i != inst);
    }

    /// The type of a value.
    pub fn value_ty(&self, v: ValueId) -> TypeId {
        self.values[v].ty
    }

    /// The constant backing a value, if it is a constant.
    pub fn value_const(&self, v: ValueId) -> Option<Constant> {
        match self.values[v].def {
            ValueDef::Const(c) => Some(c),
            _ => None,
        }
    }

    /// The instruction defining a value, if it is an instruction result.
    pub fn value_def_inst(&self, v: ValueId) -> Option<InstId> {
        match self.values[v].def {
            ValueDef::Inst(i, _) => Some(i),
            _ => None,
        }
    }

    /// Replaces every use of `from` with `to` across all instructions.
    pub fn replace_all_uses(&mut self, from: ValueId, to: ValueId) {
        for id in self.insts.ids().collect::<Vec<_>>() {
            self.insts[id].kind.visit_operands_mut(|op| {
                if *op == from {
                    *op = to;
                }
            });
        }
    }

    /// Replaces uses of each key with its value, in one pass.
    pub fn replace_uses_map(&mut self, map: &HashMap<ValueId, ValueId>) {
        if map.is_empty() {
            return;
        }
        for id in self.insts.ids().collect::<Vec<_>>() {
            self.insts[id].kind.visit_operands_mut(|op| {
                // Chase chains (a→b, b→c) to a fixed point; maps produced by
                // passes are acyclic.
                let mut cur = *op;
                let mut hops = 0;
                while let Some(&next) = map.get(&cur) {
                    cur = next;
                    hops += 1;
                    debug_assert!(hops <= map.len(), "cyclic replacement map");
                }
                *op = cur;
            });
        }
    }

    /// Iterates `(BlockId, InstId)` over all instructions in block order.
    pub fn inst_ids_in_order(&self) -> Vec<(BlockId, InstId)> {
        let mut out = Vec::with_capacity(self.insts.len());
        for (b, block) in self.blocks.iter() {
            for &i in &block.insts {
                out.push((b, i));
            }
        }
        out
    }

    /// The block an instruction is placed in, by a scan of every block
    /// (`None` for an instruction removed from its block).
    pub fn block_of(&self, inst: InstId) -> Option<BlockId> {
        self.blocks
            .iter()
            .find(|(_, b)| b.insts.contains(&inst))
            .map(|(id, _)| id)
    }

    /// The terminator of a block, if the block is non-empty and terminated.
    pub fn terminator(&self, b: BlockId) -> Option<InstId> {
        let last = *self.blocks[b].insts.last()?;
        self.insts[last].kind.is_terminator().then_some(last)
    }

    /// Successor blocks of `b`.
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        self.terminator(b)
            .map(|t| self.insts[t].kind.successors())
            .unwrap_or_default()
    }

    /// Predecessor map over all blocks.
    pub fn predecessors(&self) -> IdMap<BlockId, Vec<BlockId>> {
        let mut preds: IdMap<BlockId, Vec<BlockId>> = IdMap::new();
        for _ in self.blocks.ids() {
            preds.push(Vec::new());
        }
        for b in self.blocks.ids() {
            for s in self.successors(b) {
                preds[s].push(b);
            }
        }
        preds
    }

    /// Successor lists by block index (`succs[b.index()]`), the graph
    /// shape [`passman::graph`] works over.
    pub fn successor_lists(&self) -> Vec<Vec<usize>> {
        self.blocks
            .ids()
            .map(|b| self.successors(b).into_iter().map(BlockId::index).collect())
            .collect()
    }

    /// Blocks in reverse post-order from the entry.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        passman::graph::reverse_postorder(&self.successor_lists(), self.entry.index())
            .into_iter()
            .map(|b| BlockId::from_raw(b as u32))
            .collect()
    }

    /// Number of instructions currently reachable from blocks.
    pub fn live_inst_count(&self) -> usize {
        self.blocks.iter().map(|(_, b)| b.insts.len()).sum()
    }

    /// Counts collection-allocating instructions (`new Seq`, `new Assoc`,
    /// `copy`, `split`, `keys`) reachable in block order — the paper's
    /// "# Collections" census for Table III.
    pub fn collection_allocations(&self) -> usize {
        let mut n = 0;
        for (_, i) in self.inst_ids_in_order() {
            match self.insts[i].kind {
                InstKind::NewSeq { .. }
                | InstKind::NewAssoc { .. }
                | InstKind::Copy { .. }
                | InstKind::CopyRange { .. }
                | InstKind::MutSplit { .. }
                | InstKind::Keys { .. } => n += 1,
                _ => {}
            }
        }
        n
    }

    /// Counts SSA collection variables: values of collection type defined
    /// by instructions or parameters.
    pub fn collection_values(&self, types: &crate::TypeTable) -> usize {
        self.values
            .iter()
            .filter(|(_, v)| {
                types.get(v.ty).is_collection() && !matches!(v.def, ValueDef::Const(_))
            })
            .count()
    }

    /// Drops unreferenced instructions and values, renumbering everything.
    /// Invalidates outstanding ids; returns the remapping of values.
    pub fn compact(&mut self) -> HashMap<ValueId, ValueId> {
        let mut new_insts: IdMap<InstId, Inst> = IdMap::new();
        let mut new_values: IdMap<ValueId, Value> = IdMap::new();
        let mut value_map: HashMap<ValueId, ValueId> = HashMap::new();
        let mut inst_map: HashMap<InstId, InstId> = HashMap::new();

        // Parameters and constants first.
        for (i, &pv) in self.param_values.clone().iter().enumerate() {
            let v = self.values[pv].clone();
            let nv = new_values.push(v);
            value_map.insert(pv, nv);
            self.param_values[i] = nv;
        }
        let mut new_cache = HashMap::new();
        for (c, &v) in &self.const_cache {
            let val = self.values[v].clone();
            let nv = new_values.push(val);
            value_map.insert(v, nv);
            new_cache.insert(*c, nv);
        }

        // Live instructions in block order.
        for (_, old_id) in self.inst_ids_in_order() {
            let inst = self.insts[old_id].clone();
            let new_id = InstId::from_raw(new_insts.len() as u32);
            let mut results = Vec::with_capacity(inst.results.len());
            for (ri, &r) in inst.results.iter().enumerate() {
                let mut v = self.values[r].clone();
                v.def = ValueDef::Inst(new_id, ri as u32);
                let nv = new_values.push(v);
                value_map.insert(r, nv);
                results.push(nv);
            }
            let id = new_insts.push(Inst {
                kind: inst.kind,
                results,
            });
            debug_assert_eq!(id, new_id);
            inst_map.insert(old_id, new_id);
        }

        // Rewrite operands and block instruction lists.
        for b in self.blocks.ids().collect::<Vec<_>>() {
            let insts: Vec<InstId> = self.blocks[b].insts.iter().map(|i| inst_map[i]).collect();
            self.blocks[b].insts = insts;
        }
        for id in new_insts.ids().collect::<Vec<_>>() {
            new_insts[id].kind.visit_operands_mut(|op| {
                *op = *value_map
                    .get(op)
                    .unwrap_or_else(|| panic!("dangling operand {op} during compaction"));
            });
        }
        self.insts = new_insts;
        self.values = new_values;
        self.const_cache = new_cache;
        value_map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Type, TypeTable};

    fn simple_fn() -> (Function, TypeTable) {
        let mut types = TypeTable::new();
        let i64t = types.intern(Type::I64);
        let mut f = Function::new("f", Form::Ssa);
        let p = f.add_param("x", i64t, false);
        let one = f.constant(Constant::i64(1), i64t);
        let (_, r) = f.append_inst(
            f.entry,
            InstKind::Bin {
                op: crate::BinOp::Add,
                lhs: p,
                rhs: one,
            },
            &[i64t],
        );
        let entry = f.entry;
        f.append_inst(entry, InstKind::Ret { values: vec![r[0]] }, &[]);
        (f, types)
    }

    #[test]
    fn constants_are_interned() {
        let (mut f, mut types) = simple_fn();
        let i64t = types.intern(Type::I64);
        let a = f.constant(Constant::i64(7), i64t);
        let b = f.constant(Constant::i64(7), i64t);
        assert_eq!(a, b);
        assert_eq!(f.value_const(a), Some(Constant::i64(7)));
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let (mut f, mut types) = simple_fn();
        let i64t = types.intern(Type::I64);
        let nv = f.constant(Constant::i64(42), i64t);
        let p = f.param_values[0];
        f.replace_all_uses(p, nv);
        let (_, add) = f.inst_ids_in_order()[0];
        assert!(f.insts[add].kind.operands().contains(&nv));
        assert!(!f.insts[add].kind.operands().contains(&p));
    }

    #[test]
    fn reverse_postorder_starts_at_entry() {
        let (f, _) = simple_fn();
        let rpo = f.reverse_postorder();
        assert_eq!(rpo, vec![f.entry]);
    }

    #[test]
    fn rpo_visits_reachable_blocks_once() {
        let mut types = TypeTable::new();
        let boolt = types.intern(Type::Bool);
        let mut f = Function::new("g", Form::Ssa);
        let c = f.constant(Constant::Bool(true), boolt);
        let then_b = f.add_block("then");
        let else_b = f.add_block("else");
        let join = f.add_block("join");
        let entry = f.entry;
        f.append_inst(
            entry,
            InstKind::Branch {
                cond: c,
                then_target: then_b,
                else_target: else_b,
            },
            &[],
        );
        f.append_inst(then_b, InstKind::Jump { target: join }, &[]);
        f.append_inst(else_b, InstKind::Jump { target: join }, &[]);
        f.append_inst(join, InstKind::Ret { values: vec![] }, &[]);
        let rpo = f.reverse_postorder();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], entry);
        assert_eq!(*rpo.last().unwrap(), join);
        let preds = f.predecessors();
        assert_eq!(preds[join].len(), 2);
    }

    #[test]
    fn compact_drops_dangling_insts() {
        let (mut f, _) = simple_fn();
        let entry = f.entry;
        let (dead, _) = {
            let i64t = f.values[f.param_values[0]].ty;
            let p = f.param_values[0];
            f.insert_inst_at(
                entry,
                0,
                InstKind::Bin {
                    op: crate::BinOp::Mul,
                    lhs: p,
                    rhs: p,
                },
                &[i64t],
            )
        };
        f.remove_inst(entry, dead);
        let before = f.insts.len();
        f.compact();
        assert!(f.insts.len() < before);
        assert_eq!(f.live_inst_count(), f.insts.len());
    }

    #[test]
    fn census_counts_allocations() {
        let mut types = TypeTable::new();
        let i64t = types.intern(Type::I64);
        let seqt = types.seq_of(i64t);
        let mut f = Function::new("h", Form::Mut);
        let n = f.constant(Constant::index(4), types.intern(Type::Index));
        let entry = f.entry;
        let (_, s) = f.append_inst(entry, InstKind::NewSeq { elem: i64t, len: n }, &[seqt]);
        f.append_inst(entry, InstKind::Copy { c: s[0] }, &[seqt]);
        f.append_inst(entry, InstKind::Ret { values: vec![] }, &[]);
        assert_eq!(f.collection_allocations(), 2);
        assert_eq!(f.collection_values(&types), 2);
    }
}
