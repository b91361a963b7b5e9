//! SSA construction: MUT form → MEMOIR SSA form (paper §VI, Fig. 5).
//!
//! Collections in mut form are storage cells named by their allocating
//! value (or a parameter). SSA construction treats each cell as a variable
//! of the classic SSA algorithm: φs are inserted on the iterated dominance
//! frontier of its assignment blocks, and a depth-first walk of the
//! dominator tree rewrites `mut.*` operations to their SSA counterparts
//! (Fig. 5), updating reaching definitions.
//!
//! Interprocedural flow: by-reference collection parameters become
//! by-value parameters whose final version is returned as an extra result
//! (the explicit form of the paper's ARGφ/RETφ). Call sites receive the
//! extra results as the new reaching definitions of the corresponding
//! argument variables.

use memoir_analysis::DomTree;
use memoir_ir::{
    BlockId, Callee, Form, FuncId, Function, InstId, InstKind, Module, Type, TypeId, ValueDef,
    ValueId,
};
use std::collections::{HashMap, HashSet};

/// Errors raised during construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstructError {
    /// A collection flows into an extern declared to mutate its arguments;
    /// the SSA form cannot represent the unknown update.
    ExternMutatesCollection(String),
    /// The function was already in SSA form.
    AlreadySsa(String),
    /// The input mut form contains a φ over collection handles (only
    /// destructed programs have these); construction starts from frontend
    /// mut form, which has none.
    CollectionPhi(String),
}

impl std::fmt::Display for ConstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstructError::ExternMutatesCollection(n) => {
                write!(
                    f,
                    "extern `{n}` mutates a collection argument; cannot build SSA"
                )
            }
            ConstructError::AlreadySsa(n) => write!(f, "function `{n}` is already in SSA form"),
            ConstructError::CollectionPhi(n) => {
                write!(
                    f,
                    "function `{n}` has a φ over collection handles in mut form"
                )
            }
        }
    }
}

impl std::error::Error for ConstructError {}

/// Converts every mut-form function of the module to SSA form.
pub fn construct_ssa(m: &mut Module) -> Result<(), ConstructError> {
    // Pre-compute the signature extension of every function: by-ref
    // collection params become extra returned collections, in param order.
    let mut extra_rets: HashMap<FuncId, Vec<usize>> = HashMap::new();
    for (fid, f) in m.funcs.iter() {
        if f.form != Form::Mut {
            continue;
        }
        let extras: Vec<usize> = f
            .params
            .iter()
            .enumerate()
            .filter(|(_, p)| p.by_ref && m.types.get(p.ty).is_collection())
            .map(|(i, _)| i)
            .collect();
        extra_rets.insert(fid, extras);
    }

    for fid in m.funcs.ids().collect::<Vec<_>>() {
        if m.funcs[fid].form != Form::Mut {
            continue;
        }
        split_entered_entry(&mut m.funcs[fid]);
        let rebuilt = construct_function(m, fid, &extra_rets)?;
        m.funcs[fid] = rebuilt;
    }
    Ok(())
}

/// When an edge enters the entry block, moves the entry's instructions
/// into a new block, points every edge and φ label that named the entry
/// at it, and leaves the entry as a lone jump to it. φ placement on the
/// dominance frontier never reaches the entry, and renaming starts there
/// from the parameters' versions, so a loop back to the entry would read
/// stale versions.
fn split_entered_entry(f: &mut Function) {
    let entry = f.entry;
    if !f.blocks.ids().any(|b| f.successors(b).contains(&entry)) {
        return;
    }
    let body = f.add_block("body");
    f.blocks[body].insts = std::mem::take(&mut f.blocks[entry].insts);
    let retarget = move |b: &mut BlockId| {
        if *b == entry {
            *b = body;
        }
    };
    for (_, iid) in f.inst_ids_in_order() {
        let kind = &mut f.insts[iid].kind;
        kind.visit_successors_mut(retarget);
        if let InstKind::Phi { incoming } = kind {
            incoming.iter_mut().for_each(|(pred, _)| retarget(pred));
        }
    }
    f.append_inst(entry, InstKind::Jump { target: body }, &[]);
}

struct Builder<'m> {
    new_f: Function,
    types: &'m mut memoir_ir::TypeTable,
    /// old value → new value (scalars and collection versions alike).
    map: HashMap<ValueId, ValueId>,
    /// Copied scalar φs whose incoming values still hold *old* value ids;
    /// patched through `map` after renaming (back-edge operands are not
    /// yet mapped when the φ is visited in dominator order).
    phi_patches: Vec<InstId>,
}

impl Builder<'_> {
    fn lookup(&mut self, old_f: &Function, v: ValueId) -> ValueId {
        if let Some(&n) = self.map.get(&v) {
            return n;
        }
        // Constants are interned on demand.
        if let ValueDef::Const(c) = old_f.values[v].def {
            let ty = old_f.values[v].ty;
            let n = self.new_f.constant(c, ty);
            self.map.insert(v, n);
            return n;
        }
        panic!("value {v} used before mapped during SSA construction");
    }

    fn emit(&mut self, block: BlockId, kind: InstKind, tys: &[TypeId]) -> Vec<ValueId> {
        self.new_f.append_inst(block, kind, tys).1
    }
}

fn construct_function(
    m: &Module,
    fid: FuncId,
    extra_rets: &HashMap<FuncId, Vec<usize>>,
) -> Result<Function, ConstructError> {
    let old = &m.funcs[fid];
    if old.form == Form::Ssa {
        return Err(ConstructError::AlreadySsa(old.name.clone()));
    }
    let dt = DomTree::compute(old);
    let df = dt.dominance_frontiers(old);
    let preds = old.predecessors();

    // ------------------------------------------------------ find variables
    // A "cell" is a mut-form storage root: collection params, allocation
    // results, copy/split/keys results, collection call results, and
    // collection φ results (from re-construction after destruction).
    let mut cells: Vec<ValueId> = Vec::new();
    let mut is_cell: HashSet<ValueId> = HashSet::new();
    for (i, &pv) in old.param_values.iter().enumerate() {
        if m.types.get(old.params[i].ty).is_collection() {
            cells.push(pv);
            is_cell.insert(pv);
        }
    }
    for (_, iid) in old.inst_ids_in_order() {
        let inst = &old.insts[iid];
        for &r in &inst.results {
            if m.types.get(old.value_ty(r)).is_collection() {
                cells.push(r);
                is_cell.insert(r);
            }
        }
    }

    // Blocks assigning each cell (the def sites for φ insertion). The
    // allocation/param itself is a def in its defining block.
    let mut def_blocks: HashMap<ValueId, HashSet<BlockId>> = HashMap::new();
    for &c in &cells {
        let mut s = HashSet::new();
        match old.values[c].def {
            ValueDef::Param(_) => {
                s.insert(old.entry);
            }
            ValueDef::Inst(iid, _) => {
                if let Some(b) = old.block_of(iid) {
                    s.insert(b);
                }
            }
            ValueDef::Const(_) => {}
        }
        def_blocks.insert(c, s);
    }
    for (b, iid) in old.inst_ids_in_order() {
        for cell in old.insts[iid].kind.mutated_collections() {
            def_blocks.entry(cell).or_default().insert(b);
        }
        // Calls through by-ref arguments also assign the cell.
        if let InstKind::Call { callee, args } = &old.insts[iid].kind {
            if let Callee::Func(target) = callee {
                if let Some(extras) = extra_rets.get(target) {
                    for &pi in extras {
                        if let Some(&arg) = args.get(pi) {
                            if is_cell.contains(&arg) {
                                def_blocks.entry(arg).or_default().insert(b);
                            }
                        }
                    }
                }
            }
            if let Callee::Extern(eid) = callee {
                let e = &m.externs[*eid];
                if e.effects.writes_args || e.effects.opaque {
                    for &arg in args {
                        if m.types.get(old.value_ty(arg)).is_collection() {
                            return Err(ConstructError::ExternMutatesCollection(e.name.clone()));
                        }
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------- φ insertion
    // Iterated dominance frontier per cell, pruned to blocks where the
    // cell is live-in (pruned SSA — avoids φs with undefined operands for
    // cells allocated on one branch only).
    let liveness = memoir_analysis::Liveness::compute(old);
    let mut phis_at: HashMap<BlockId, Vec<ValueId>> = HashMap::new(); // block → cells
    for &c in &cells {
        let defs = &def_blocks[&c];
        if defs.len() < 2 {
            continue;
        }
        let mut work: Vec<BlockId> = defs.iter().copied().collect();
        let mut placed: HashSet<BlockId> = HashSet::new();
        while let Some(b) = work.pop() {
            for &frontier in &df[b] {
                if placed.insert(frontier) {
                    if liveness
                        .live_in
                        .get(&frontier)
                        .is_some_and(|s| s.contains(&c))
                    {
                        phis_at.entry(frontier).or_default().push(c);
                    }
                    work.push(frontier);
                }
            }
        }
    }

    // -------------------------------------------------------- new function
    let mut types = m.types.clone();
    let mut b = Builder {
        new_f: Function::new(old.name.clone(), Form::Ssa),
        types: &mut types,
        map: HashMap::new(),
        phi_patches: Vec::new(),
    };
    // Blocks mirror the old CFG (entry pre-created by Function::new).
    b.new_f.blocks[b.new_f.entry].name = old.blocks[old.entry].name.clone();
    for (ob, oblock) in old.blocks.iter() {
        if ob != old.entry {
            let nb = b.new_f.add_block(oblock.name.clone().unwrap_or_default());
            debug_assert_eq!(nb.raw(), ob.raw());
        }
    }
    // Params: by-ref collections become by-value.
    for (i, p) in old.params.iter().enumerate() {
        let nv = b.new_f.add_param(p.name.clone(), p.ty, false);
        b.map.insert(old.param_values[i], nv);
        if let Some(name) = &old.values[old.param_values[i]].name {
            b.new_f.values[nv].name = Some(name.clone());
        }
    }
    // Return types: original + extra collection returns.
    let my_extras = extra_rets.get(&fid).cloned().unwrap_or_default();
    let mut ret_tys = old.ret_tys.clone();
    for &pi in &my_extras {
        ret_tys.push(old.params[pi].ty);
    }
    b.new_f.ret_tys = ret_tys;

    // Pre-create φ instructions (empty incomings; filled during rename).
    // φ value per (block, cell).
    let mut phi_values: HashMap<(BlockId, ValueId), ValueId> = HashMap::new();
    let mut phi_insts: HashMap<(BlockId, ValueId), InstId> = HashMap::new();
    for (&block, cells_here) in &phis_at {
        for &c in cells_here {
            let ty = old.value_ty(c);
            let (iid, res) =
                b.new_f
                    .insert_inst_at(block, 0, InstKind::Phi { incoming: vec![] }, &[ty]);
            phi_values.insert((block, c), res[0]);
            phi_insts.insert((block, c), iid);
            if let Some(n) = &old.values[c].name {
                b.new_f.values[res[0]].name = Some(n.clone());
            }
        }
    }

    // ------------------------------------------------------------- renaming
    // Reaching definition stack per cell.
    let mut stacks: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
    for &c in &cells {
        stacks.insert(c, Vec::new());
    }
    // Param cells start defined at entry.
    for (i, &pv) in old.param_values.iter().enumerate() {
        if is_cell.contains(&pv) {
            let nv = b.map[&pv];
            stacks.get_mut(&pv).unwrap().push(nv);
            let _ = i;
        }
    }

    // Recursive rename over the dominator tree.
    rename_block(
        m,
        old,
        &dt,
        &preds,
        old.entry,
        &mut b,
        &mut stacks,
        &phis_at,
        &phi_values,
        &phi_insts,
        &is_cell,
        extra_rets,
        &my_extras,
    )?;

    // Patch copied scalar φs: their incomings still hold old ids (back-edge
    // operands are defined after the φ in dominator order).
    for iid in b.phi_patches.clone() {
        let mut kind = b.new_f.insts[iid].kind.clone();
        if let InstKind::Phi { incoming } = &mut kind {
            for (_, ov) in incoming.iter_mut() {
                *ov = b.lookup(old, *ov);
            }
        }
        b.new_f.insts[iid].kind = kind;
    }

    let mut new_f = b.new_f;
    new_f.form = Form::Ssa;
    // Prune φs whose block became unreachable artifacts? Not needed: CFG
    // copied verbatim.
    let _ = types; // the type table was only read (no new types needed)
    Ok(new_f)
}

#[allow(clippy::too_many_arguments)]
fn rename_block(
    m: &Module,
    old: &Function,
    dt: &DomTree,
    preds: &memoir_ir::IdMap<BlockId, Vec<BlockId>>,
    block: BlockId,
    b: &mut Builder<'_>,
    stacks: &mut HashMap<ValueId, Vec<ValueId>>,
    phis_at: &HashMap<BlockId, Vec<ValueId>>,
    phi_values: &HashMap<(BlockId, ValueId), ValueId>,
    phi_insts: &HashMap<(BlockId, ValueId), InstId>,
    is_cell: &HashSet<ValueId>,
    extra_rets: &HashMap<FuncId, Vec<usize>>,
    my_extras: &[usize],
) -> Result<(), ConstructError> {
    // Track pushes to pop on exit.
    let mut pushed: Vec<ValueId> = Vec::new();

    // φ defs at block head.
    if let Some(cells_here) = phis_at.get(&block) {
        for &c in cells_here {
            let v = phi_values[&(block, c)];
            stacks.get_mut(&c).unwrap().push(v);
            pushed.push(c);
        }
    }

    let cur =
        |stacks: &HashMap<ValueId, Vec<ValueId>>, b: &mut Builder<'_>, c: ValueId| -> ValueId {
            stacks
                .get(&c)
                .and_then(|s| s.last().copied())
                .unwrap_or_else(|| b.map[&c])
        };

    // Rewrite each instruction.
    for &iid in &old.blocks[block].insts.clone() {
        let inst = old.insts[iid].clone();
        let pushed_before = pushed.len();
        // Remap a (possibly cell) operand to its current version.
        macro_rules! op {
            ($v:expr) => {{
                let v = $v;
                if is_cell.contains(&v) {
                    cur(stacks, b, v)
                } else {
                    b.lookup(old, v)
                }
            }};
        }
        match inst.kind.clone() {
            // Fig. 5 rewrites: a mut op becomes its SSA pair, whose
            // results are new versions of the cells it updated.
            kind if kind.to_ssa().is_some() => {
                let mut update = kind.to_ssa().expect("a pair");
                update.visit_operands_mut(|v| *v = op!(*v));
                let cells = kind.mutated_collections();
                let tys: Vec<TypeId> = cells.iter().map(|&c| old.value_ty(c)).collect();
                for (c, r) in cells.into_iter().zip(b.emit(block, update, &tys)) {
                    stacks.get_mut(&c).unwrap().push(r);
                    pushed.push(c);
                }
            }
            InstKind::MutAppend { c, src } => {
                // Fig. 5: append(s, s2) → s' = INSERT(s, end, s2).
                let (cc, ss) = (op!(c), op!(src));
                let ty = old.value_ty(c);
                let idx_ty = b.types.intern(Type::Index);
                let endv = b.emit(block, InstKind::Size { c: cc }, &[idx_ty]);
                let r = b.emit(
                    block,
                    InstKind::InsertSeq {
                        c: cc,
                        idx: endv[0],
                        src: ss,
                    },
                    &[ty],
                );
                stacks.get_mut(&c).unwrap().push(r[0]);
                pushed.push(c);
            }
            InstKind::MutSplit { c, from, to } => {
                // Fig. 5: s2 = split(s, i, j) → s2 = COPY(s, i, j);
                //                                s' = REMOVE(s, i, j).
                let (cc, ff, tt) = (op!(c), op!(from), op!(to));
                let ty = old.value_ty(c);
                let copy = b.emit(
                    block,
                    InstKind::CopyRange {
                        c: cc,
                        from: ff,
                        to: tt,
                    },
                    &[ty],
                );
                b.map.insert(inst.results[0], copy[0]);
                // The split result is itself a fresh cell; its versions
                // start at the copy.
                stacks.entry(inst.results[0]).or_default().push(copy[0]);
                pushed.push(inst.results[0]);
                let r = b.emit(
                    block,
                    InstKind::RemoveRange {
                        c: cc,
                        from: ff,
                        to: tt,
                    },
                    &[ty],
                );
                stacks.get_mut(&c).unwrap().push(r[0]);
                pushed.push(c);
            }
            InstKind::Call { callee, args } => {
                let new_args: Vec<ValueId> = args.iter().map(|&a| op!(a)).collect();
                // Determine result types: callee's (possibly extended)
                // rets. A callee converted earlier in this module pass is
                // already in SSA form with the extras folded into its
                // ret_tys; a still-mut callee (including self-recursion)
                // gets them appended here.
                let (ret_tys, extra): (Vec<TypeId>, Vec<usize>) = match callee {
                    Callee::Func(target) => {
                        let callee_f = &m.funcs[target];
                        let extras = extra_rets.get(&target).cloned().unwrap_or_default();
                        let mut tys = callee_f.ret_tys.clone();
                        if callee_f.form == Form::Mut {
                            for &pi in &extras {
                                tys.push(callee_f.params[pi].ty);
                            }
                        }
                        (tys, extras)
                    }
                    Callee::Extern(eid) => (m.externs[eid].ret_tys.clone(), vec![]),
                };
                let results = b.emit(
                    block,
                    InstKind::Call {
                        callee,
                        args: new_args,
                    },
                    &ret_tys,
                );
                // Original results map 1:1.
                for (i, &r) in inst.results.iter().enumerate() {
                    b.map.insert(r, results[i]);
                    if m.types.get(old.value_ty(r)).is_collection() {
                        stacks.entry(r).or_default().push(results[i]);
                        pushed.push(r);
                    }
                }
                // Extra results become new versions of the argument cells
                // (the RETφ of the by-ref argument).
                let base = inst.results.len();
                for (k, &pi) in extra.iter().enumerate() {
                    if let Some(&arg) = args.get(pi) {
                        if is_cell.contains(&arg) {
                            stacks.get_mut(&arg).unwrap().push(results[base + k]);
                            pushed.push(arg);
                        }
                    }
                }
            }
            InstKind::Ret { values } => {
                let mut new_vals: Vec<ValueId> = values.iter().map(|&v| op!(v)).collect();
                // Return the final version of each by-ref collection param.
                for &pi in my_extras {
                    let cell = old.param_values[pi];
                    new_vals.push(cur(stacks, b, cell));
                }
                b.emit(block, InstKind::Ret { values: new_vals }, &[]);
            }
            // Scalar φs: copy with *old* operand ids and patch after the
            // rename (back-edge operands are defined later in dominator
            // order). Collection φs cannot occur in frontend mut form.
            InstKind::Phi { incoming } => {
                let ty = old.value_ty(inst.results[0]);
                if m.types.get(ty).is_collection() {
                    return Err(ConstructError::CollectionPhi(old.name.clone()));
                }
                let pos = b.new_f.blocks[block]
                    .insts
                    .iter()
                    .take_while(|&&i| b.new_f.insts[i].kind.is_phi())
                    .count();
                let (iid, results) =
                    b.new_f
                        .insert_inst_at(block, pos, InstKind::Phi { incoming }, &[ty]);
                b.phi_patches.push(iid);
                b.map.insert(inst.results[0], results[0]);
                if let Some(n) = &old.values[inst.results[0]].name {
                    b.new_f.values[results[0]].name = Some(n.clone());
                }
            }
            // Pure/read ops and scalars: copy with operand remap.
            other => {
                let mut kind = other;
                kind.visit_operands_mut(|v| {
                    let nv = if is_cell.contains(v) {
                        cur(stacks, b, *v)
                    } else {
                        b.lookup(old, *v)
                    };
                    *v = nv;
                });
                let tys: Vec<TypeId> = inst.results.iter().map(|&r| old.value_ty(r)).collect();
                let results = b.emit(block, kind, &tys);
                for (i, &r) in inst.results.iter().enumerate() {
                    b.map.insert(r, results[i]);
                    if let Some(n) = &old.values[r].name {
                        b.new_f.values[results[i]].name = Some(n.clone());
                    }
                    if m.types.get(old.value_ty(r)).is_collection() {
                        // Fresh cell (copy/copy-range/keys results).
                        stacks.entry(r).or_default().push(results[i]);
                        pushed.push(r);
                    }
                }
            }
        }

        // Field arrays stay in heap form (DESIGN.md §6), so when a
        // collection that was read *out of a field* gets a new SSA
        // version — a rewritten mut op, or a by-ref call's RETφ — the
        // version must be stored back for later field reads to see it.
        // The `field.read` itself pushes the first version, which the
        // field already holds.
        for &c in &pushed[pushed_before..] {
            let ValueDef::Inst(def_inst, _) = old.values[c].def else {
                continue;
            };
            let InstKind::FieldRead { obj, obj_ty, field } = old.insts[def_inst].kind else {
                continue;
            };
            if def_inst == iid {
                continue;
            }
            let value = cur(stacks, b, c);
            let obj = op!(obj);
            b.emit(
                block,
                InstKind::FieldWrite {
                    obj,
                    obj_ty,
                    field,
                    value,
                },
                &[],
            );
        }
    }

    // Fill φ operands of CFG successors.
    for succ in old.successors(block) {
        if let Some(cells_here) = phis_at.get(&succ) {
            for &c in cells_here {
                let iid = phi_insts[&(succ, c)];
                let val = cur(stacks, b, c);
                if let InstKind::Phi { incoming } = &mut b.new_f.insts[iid].kind {
                    incoming.push((block, val));
                }
            }
        }
    }
    let _ = preds;

    // Recurse into dominator-tree children.
    for child in dt.children(block) {
        rename_block(
            m, old, dt, preds, child, b, stacks, phis_at, phi_values, phi_insts, is_cell,
            extra_rets, my_extras,
        )?;
    }

    // Pop.
    for c in pushed.into_iter().rev() {
        stacks.get_mut(&c).unwrap().pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{CmpOp, ModuleBuilder};

    /// Straight-line writes become an SSA chain.
    #[test]
    fn straightline_writes_chain() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(2);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let one = b.index(1);
            let v1 = b.i64(10);
            let v2 = b.i64(20);
            b.mut_write(s, zero, v1);
            b.mut_write(s, one, v2);
            let r = b.read(s, one);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        construct_ssa(&mut m).unwrap();
        memoir_ir::verifier::assert_valid(&m);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        assert_eq!(f.form, Form::Ssa);
        // Two writes, no mut ops, read uses the last version.
        let writes: Vec<_> = f
            .inst_ids_in_order()
            .into_iter()
            .filter(|(_, i)| matches!(f.insts[*i].kind, InstKind::Write { .. }))
            .collect();
        assert_eq!(writes.len(), 2);
        assert!(f
            .inst_ids_in_order()
            .iter()
            .all(|(_, i)| !f.insts[*i].kind.is_mut_op()));
    }

    /// A write under a branch inserts a φ at the join.
    #[test]
    fn branch_write_inserts_phi() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let boolt = b.ty(Type::Bool);
            let cond = b.param("cond", boolt);
            let n = b.index(1);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v0 = b.i64(1);
            b.mut_write(s, zero, v0);
            let then_b = b.block("then");
            let join = b.block("join");
            b.branch(cond, then_b, join);
            b.switch_to(then_b);
            let v1 = b.i64(2);
            b.mut_write(s, zero, v1);
            b.jump(join);
            b.switch_to(join);
            let r = b.read(s, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        construct_ssa(&mut m).unwrap();
        memoir_ir::verifier::assert_valid(&m);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let phis = f
            .inst_ids_in_order()
            .into_iter()
            .filter(|(_, i)| f.insts[*i].kind.is_phi())
            .count();
        assert_eq!(phis, 1, "exactly one φ at the join");
    }

    /// Loop mutation inserts a loop-header φ (the μ-operation).
    #[test]
    fn loop_write_inserts_mu() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let idxt = b.ty(Type::Index);
            let count = b.param("count", idxt);
            let n = b.index(8);
            let s = b.new_seq(i64t, n);
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let zero = b.index(0);
            let one = b.index(1);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(idxt);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            let done = b.cmp(CmpOp::Ge, i, count);
            b.branch(done, exit, body);
            b.switch_to(body);
            let v = b.i64(7);
            b.mut_write(s, i, v);
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.jump(header);
            b.switch_to(exit);
            let r = b.read(s, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        construct_ssa(&mut m).unwrap();
        memoir_ir::verifier::assert_valid(&m);
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        // Collection φ in the loop header: incoming from entry (the alloc)
        // and from the body (the write result).
        let mut coll_phis = 0;
        for (_, i) in f.inst_ids_in_order() {
            if let InstKind::Phi { .. } = &f.insts[i].kind {
                let ty = f.value_ty(f.insts[i].results[0]);
                if m.types.get(ty).is_collection() {
                    coll_phis += 1;
                }
            }
        }
        assert_eq!(coll_phis, 1, "loop-header μ for the sequence");
    }

    /// By-ref params become value params plus an extra return (RETφ), and
    /// call sites thread the updated collection.
    #[test]
    fn byref_params_become_ret_phi() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let callee = mb.func("callee", Form::Mut, |b| {
            let s = b.param_ref("s", seqt);
            let zero = b.index(0);
            let v = b.i64(9);
            b.mut_write(s, zero, v);
            b.ret(vec![]);
        });
        mb.func("caller", Form::Mut, |b| {
            let n = b.index(1);
            let s = b.new_seq(i64t, n);
            b.call(Callee::Func(callee), vec![s], &[]);
            let zero = b.index(0);
            let r = b.read(s, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let mut m = mb.finish();
        construct_ssa(&mut m).unwrap();
        memoir_ir::verifier::assert_valid(&m);
        let cf = &m.funcs[m.func_by_name("callee").unwrap()];
        assert_eq!(cf.ret_tys.len(), 1, "callee returns the updated sequence");
        assert!(!cf.params[0].by_ref);
        // Caller's read must consume the call result, not the original.
        let caller = &m.funcs[m.func_by_name("caller").unwrap()];
        let mut call_result = None;
        let mut read_operand = None;
        for (_, i) in caller.inst_ids_in_order() {
            match &caller.insts[i].kind {
                InstKind::Call { .. } => call_result = caller.insts[i].results.first().copied(),
                InstKind::Read { c, .. } => read_operand = Some(*c),
                _ => {}
            }
        }
        assert_eq!(read_operand, call_result);
    }

    /// Externs that mutate collection arguments cannot be represented in
    /// SSA form (the unknown update has no defining instruction).
    #[test]
    fn arg_writing_extern_rejected() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let ext = mb.module.add_extern(memoir_ir::ExternDecl {
            name: "scramble".into(),
            params: vec![seqt],
            ret_tys: vec![],
            effects: memoir_ir::ExternEffects {
                reads_args: true,
                writes_args: true,
                opaque: false,
            },
        });
        mb.func("f", Form::Mut, |b| {
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            b.call(Callee::Extern(ext), vec![s], &[]);
            b.ret(vec![]);
        });
        let mut m = mb.finish();
        let err = construct_ssa(&mut m).unwrap_err();
        assert!(
            matches!(err, ConstructError::ExternMutatesCollection(_)),
            "{err}"
        );
    }

    /// Pure-reader externs are fine: the collection version is unchanged
    /// across the call.
    #[test]
    fn pure_extern_allowed() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let ext = mb.module.add_extern(memoir_ir::ExternDecl {
            name: "checksum".into(),
            params: vec![seqt],
            ret_tys: vec![i64t],
            effects: memoir_ir::ExternEffects::pure_reader(),
        });
        mb.func("f", Form::Mut, |b| {
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(1);
            b.mut_write(s, zero, v);
            let r = b.call(Callee::Extern(ext), vec![s], &[i64t]);
            b.returns(&[i64t]);
            b.ret(vec![r[0]]);
        });
        let mut m = mb.finish();
        construct_ssa(&mut m).unwrap();
        memoir_ir::verifier::assert_valid(&m);
    }

    /// Differential: mut-form and constructed SSA compute identical
    /// results (and the SSA census grows while allocations stay equal —
    /// Table III's shape).
    #[test]
    fn construction_preserves_semantics() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let idxt = b.ty(Type::Index);
            let count = b.param("count", idxt);
            let n = b.index(0);
            let s = b.new_seq(i64t, n);
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let zero = b.index(0);
            let one = b.index(1);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(idxt);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            let done = b.cmp(CmpOp::Ge, i, count);
            b.branch(done, exit, body);
            b.switch_to(body);
            let iv = b.cast(Type::I64, i);
            let sz = b.size(s);
            b.mut_insert(s, sz, Some(iv));
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.jump(header);
            b.switch_to(exit);
            // Sum the elements.
            let sum0 = b.i64(0);
            let h2 = b.block("h2");
            let b2 = b.block("b2");
            let e2 = b.block("e2");
            b.jump(h2);
            b.switch_to(h2);
            let j = b.phi_placeholder(idxt);
            let acc = b.phi_placeholder(i64t);
            b.add_phi_incoming(j, exit, zero);
            b.add_phi_incoming(acc, exit, sum0);
            let sz2 = b.size(s);
            let done2 = b.cmp(CmpOp::Ge, j, sz2);
            b.branch(done2, e2, b2);
            b.switch_to(b2);
            let v = b.read(s, j);
            let acc2 = b.add(acc, v);
            let jn = b.add(j, one);
            let bb2 = b.current_block();
            b.add_phi_incoming(j, bb2, jn);
            b.add_phi_incoming(acc, bb2, acc2);
            b.jump(h2);
            b.switch_to(e2);
            b.returns(&[i64t]);
            b.ret(vec![acc]);
        });
        let m_mut = mb.finish();
        memoir_ir::verifier::assert_valid(&m_mut);
        let mut m_ssa = m_mut.clone();
        construct_ssa(&mut m_ssa).unwrap();
        memoir_ir::verifier::assert_valid(&m_ssa);

        use memoir_interp::{Interp, Value};
        for count in [0u64, 1, 5, 17] {
            let args = vec![Value::Int(Type::Index, count as i64)];
            let mut i1 = Interp::new(&m_mut);
            let r1 = i1.run_by_name("main", args.clone()).unwrap();
            let mut i2 = Interp::new(&m_ssa);
            let r2 = i2.run_by_name("main", args).unwrap();
            assert_eq!(r1, r2, "count={count}");
        }
        // Census: SSA variables strictly exceed source allocations.
        let census_mut = m_mut.collection_census();
        let census_ssa = m_ssa.collection_census();
        assert_eq!(census_mut.allocations, census_ssa.allocations);
        assert!(census_ssa.ssa_variables > census_mut.ssa_variables);
    }

    /// A collection read out of a field is stored back after an update
    /// of it, and only then: the read alone leaves the field as it was.
    #[test]
    fn field_collection_is_stored_back_only_after_an_update() {
        for update in [false, true] {
            let mut mb = ModuleBuilder::new("m");
            let i64t = mb.module.types.intern(Type::I64);
            let seq = mb.module.types.seq_of(i64t);
            let tags = memoir_ir::Field {
                name: "tags".into(),
                ty: seq,
            };
            let doc = mb.module.types.define_object("Doc", vec![tags]).unwrap();
            let doc_ref = mb.module.types.ref_of(doc);
            let f = mb.func("f", Form::Mut, |b| {
                let o = b.param("o", doc_ref);
                let s = b.field_read(o, doc, 0);
                if update {
                    let (zero, seven) = (b.index(0), b.i64(7));
                    b.mut_write(s, zero, seven);
                }
                let n = b.size(s);
                let idx = b.ty(Type::Index);
                b.returns(&[idx]);
                b.ret(vec![n]);
            });
            let mut m = mb.finish();
            construct_ssa(&mut m).unwrap();
            memoir_ir::verifier::assert_valid(&m);
            let g = &m.funcs[f];
            let stores = g
                .inst_ids_in_order()
                .into_iter()
                .filter(|&(_, i)| matches!(g.insts[i].kind, InstKind::FieldWrite { .. }))
                .count();
            assert_eq!(stores, update as usize, "update: {update}");
        }
    }

    /// A loop back to the entry block: `f` bumps `s[0]` until it reads 3.
    /// The entry needs a φ for `s`, which the dominance frontier never
    /// places there, so construction first moves the entry's body out.
    #[test]
    fn loop_back_to_the_entry_reads_the_updated_version() {
        use memoir_interp::{Interp, Value};
        const TEXT: &str = "module entry_loop

fn f(&s: Seq<i64>) -> (i64) form=mut {
entry.0:
  %1 = read %s.0, 0:Index
  %2 = cmp.ge %1, 3:I64
  br %2, done.1, again.2
done.1:
  ret %1
again.2:
  %3 = add %1, 1:I64
  mut.write %s.0, 0:Index, %3
  jump entry.0
}

fn main() -> (i64) form=mut {
entry.0:
  %1 = new Seq<i64>(1:Index)
  mut.write %1, 0:Index, 0:I64
  %2 = call @f(%1)
  ret %2
}
";
        let run = |m: &Module| {
            Interp::new(m)
                .with_fuel(10_000)
                .run_by_name("main", vec![])
                .unwrap()
        };
        let three = vec![Value::Int(Type::I64, 3)];
        let m_mut = memoir_ir::parser::parse_module(TEXT).unwrap();
        assert_eq!(run(&m_mut), three);

        let mut m_ssa = m_mut.clone();
        construct_ssa(&mut m_ssa).unwrap();
        memoir_ir::verifier::assert_valid(&m_ssa);
        assert_eq!(run(&m_ssa), three);

        let o3 = crate::OptLevel::O3(crate::OptConfig::all());
        let mut m_o3 = m_mut.clone();
        crate::compile(&mut m_o3, o3).unwrap();
        assert_eq!(run(&m_o3), three);

        // Lowered through the cross-checked stage onto the lir machine.
        let spec = format!("{},lower<adaptive>", crate::default_spec(o3));
        let spec = passman::PipelineSpec::parse(&spec).unwrap();
        let lp = crate::split_lowered_spec(&spec).unwrap().unwrap();
        let mut m_low = m_mut.clone();
        let out = crate::compile_lowered_with(&mut m_low, &lp, &Default::default()).unwrap();
        let lm = out.lowered.expect("pipeline completes");
        let r = lir::LirMachine::new(&lm)
            .with_fuel(10_000)
            .run_by_name("main", vec![])
            .unwrap();
        assert_eq!(r, vec![3]);
    }
}
