//! Bounded path enumeration over MEMOIR functions.
//!
//! The engine mirrors `memoir-interp`'s `Interp` step for step — the same
//! trap conditions, the same wrapping/truncating arithmetic, the same
//! `as_index`/`Key::from_value` coercions, the same by-value copies on
//! mut-form calls — but scalars are symbolic terms over the entry
//! function's parameters. Control splits (branches, possibly-zero
//! divisors, symbolic indices with narrow intervals) fork the execution;
//! everything the term language cannot express precisely (floats,
//! pointers, wide symbolic indices, externs) aborts enumeration with
//! [`SymError::Unsupported`], which callers treat as "fall back to
//! probing" — never as a verdict.
//!
//! Frames keep their values in the interpreter's own register file and
//! enter blocks through its φ routine (`memoir_interp::regs`), in place.
//! The heap is copy-on-write: a fork shares every collection and object,
//! a value copy shares its collection, and a write copies only the one
//! collection or object it touches, and only while something shares it.

use crate::solver::{self, Lit};
use crate::term::{type_domain, TermId, TermPool};
use crate::{Budget, Path, PathEnd, SymError};
use memoir_interp::regs::{enter_block, PhiFault, RegFile};
use memoir_ir::BlockId;
use memoir_ir::{
    BinOp, Callee, CmpOp, Constant, Form, FuncId, Function, InstKind, Module, Type, ValueDef,
    ValueId,
};
use std::collections::HashMap;
use std::rc::Rc;

/// A symbolic value: the mirror of `memoir_interp::Value` with terms for
/// scalar payloads. Floats and raw pointers are unsupported.
#[derive(Clone, Debug, PartialEq)]
pub enum SymValue {
    /// Integer of the given type; the term denotes the `i64` payload.
    Int(Type, TermId),
    /// Boolean; the term denotes `0`/`1`.
    Bool(TermId),
    /// Collection handle into the symbolic store.
    Coll(usize),
    /// Object reference (`None` = null).
    Ref(Option<usize>),
    /// Uninitialized.
    Uninit,
}

/// A concrete associative key (the engine forks until keys are concrete).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymKey {
    /// Raw integer payload (mirrors `Key::Int`: type-erased).
    Int(i64),
    /// Boolean key.
    Bool(bool),
    /// Reference key.
    Ref(Option<usize>),
}

/// A symbolic collection.
#[derive(Clone, Debug, PartialEq)]
pub enum SymColl {
    /// Sequence: length is always concrete.
    Seq(Vec<SymValue>),
    /// Associative array, shaped like `memoir_interp::Collection::Assoc`:
    /// overwrites keep a key's position, removals drop it, re-inserts
    /// append.
    Assoc {
        /// Key → value map.
        map: HashMap<SymKey, SymValue>,
        /// Keys in insertion order (the `keys` order).
        order: Vec<SymKey>,
    },
}

impl SymColl {
    fn len(&self) -> usize {
        match self {
            SymColl::Seq(v) => v.len(),
            SymColl::Assoc { map, .. } => map.len(),
        }
    }
}

/// A symbolic object: `None` fields = deleted.
#[derive(Clone, Debug, PartialEq)]
pub struct SymObj {
    fields: Option<Vec<SymValue>>,
}

/// The symbolic heap of one execution. Collections and objects sit
/// behind `Rc`s, so cloning the heap copies handles only; a write goes
/// through `coll_mut` / `obj_mut`, which copy a shared collection or
/// object first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SymStore {
    colls: Vec<Rc<SymColl>>,
    objs: Vec<Rc<SymObj>>,
}

impl SymStore {
    fn alloc_coll(&mut self, c: SymColl) -> usize {
        self.colls.push(Rc::new(c));
        self.colls.len() - 1
    }

    /// Shallow clone, like `Store::clone_coll` (nested handles stay
    /// shared). The copy shares storage with `id` until either is written.
    fn clone_coll(&mut self, id: usize) -> usize {
        let c = Rc::clone(&self.colls[id]);
        self.colls.push(c);
        self.colls.len() - 1
    }

    fn coll(&self, id: usize) -> &SymColl {
        &self.colls[id]
    }

    fn coll_mut(&mut self, id: usize) -> &mut SymColl {
        Rc::make_mut(&mut self.colls[id])
    }

    fn obj_mut(&mut self, id: usize) -> &mut SymObj {
        Rc::make_mut(&mut self.objs[id])
    }
}

/// One call frame.
#[derive(Clone, Debug)]
struct Frame {
    fid: FuncId,
    block: BlockId,
    at: usize,
    regs: RegFile<SymValue>,
}

/// One in-flight execution (a path prefix).
#[derive(Clone, Debug)]
struct Exec {
    frames: Vec<Frame>,
    store: SymStore,
    cond: Vec<Lit>,
    /// Concrete values pinned by forking, keyed by term: lets a re-run
    /// of the forked instruction resolve the same term concretely.
    fixes: HashMap<TermId, i64>,
}

/// Why an instruction could not complete on this attempt.
enum Stop {
    /// The concrete interpreter would trap here (any trap kind).
    Trap,
    /// Fork the execution, pinning `term` to each value in turn.
    Fork(TermId, Vec<i64>),
    /// Fork the execution on `term != 0` / `term == 0`.
    BoolFork(TermId),
    /// The program uses a construct the engine cannot model.
    Unsupported(&'static str),
}

type R<T> = Result<T, Stop>;

impl From<PhiFault> for Stop {
    fn from(_: PhiFault) -> Self {
        Stop::Trap // phi in entry block / phi missing incoming
    }
}

enum StepOut {
    /// Instruction completed; keep stepping this execution.
    Continue,
    /// Execution was replaced by forked children on the worklist.
    Forked,
    /// The path ended (return from the entry frame, or a trap).
    End(PathEnd),
}

fn is_unsigned(t: Type) -> bool {
    matches!(
        t,
        Type::U64 | Type::U32 | Type::U16 | Type::U8 | Type::Index
    )
}

/// Enumerates all feasible paths of `fid`, with the entry parameters
/// symbolic. The caller must have seeded `pool.param_tys` with the entry
/// function's (all-scalar, non-float) parameter types.
pub fn enumerate_memoir(
    module: &Module,
    fid: FuncId,
    pool: &mut TermPool,
    budget: &Budget,
) -> Result<Vec<Path>, SymError> {
    let f = &module.funcs[fid];
    let mut regs = RegFile::new(f);
    for (i, &pv) in f.param_values.iter().enumerate() {
        let ty = module.types.get(f.params[i].ty);
        let t = pool.param(i as u32);
        let v = match ty {
            Type::Bool => SymValue::Bool(t),
            ty if ty.is_integer() => SymValue::Int(ty, t),
            _ => return Err(SymError::Unsupported("non-integer parameter")),
        };
        regs.set(pv, v);
    }
    let init = Exec {
        frames: vec![Frame {
            fid,
            block: f.entry,
            at: 0,
            regs,
        }],
        store: SymStore::default(),
        cond: Vec::new(),
        fixes: HashMap::new(),
    };
    let mut eng = Engine {
        module,
        pool,
        budget,
        ops: 0,
        worklist: vec![init],
        paths: Vec::new(),
        phis: Vec::new(),
    };
    eng.run()?;
    Ok(eng.paths)
}

struct Engine<'m, 'p, 'b> {
    module: &'m Module,
    pool: &'p mut TermPool,
    budget: &'b Budget,
    ops: u64,
    worklist: Vec<Exec>,
    paths: Vec<Path>,
    /// Scratch for the φ parallel copy at block entry.
    phis: Vec<SymValue>,
}

impl Engine<'_, '_, '_> {
    fn run(&mut self) -> Result<(), SymError> {
        while let Some(mut ex) = self.worklist.pop() {
            loop {
                self.ops += 1;
                if self.ops > self.budget.max_ops {
                    return Err(SymError::BudgetExceeded);
                }
                match self.step(&mut ex)? {
                    StepOut::Continue => {}
                    StepOut::Forked => break,
                    StepOut::End(end) => {
                        if self.paths.len() >= self.budget.max_paths {
                            return Err(SymError::BudgetExceeded);
                        }
                        self.paths.push(Path {
                            cond: ex.cond.clone(),
                            end,
                        });
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Pushes forked children of `ex` (which must not have executed the
    /// current instruction yet) constraining `t` to each value.
    fn fork_values(&mut self, ex: &Exec, t: TermId, vals: &[i64]) {
        // Reverse so the lowest value is popped (and explored) first —
        // the worklist is LIFO.
        for &v in vals.iter().rev() {
            let c = self.pool.konst(v);
            let lit = (self.pool.cmp(CmpOp::Eq, false, t, c), true);
            let mut child = ex.clone();
            child.cond.push(lit);
            child.fixes.insert(t, v);
            if !solver::contradicts(self.pool, &child.cond) {
                self.worklist.push(child);
            }
        }
    }

    fn fork_bool(&mut self, ex: &Exec, t: TermId) {
        for (truth, fix) in [(false, 0i64), (true, 1i64)] {
            let mut child = ex.clone();
            child.cond.push((t, truth));
            child.fixes.insert(t, fix);
            if !solver::contradicts(self.pool, &child.cond) {
                self.worklist.push(child);
            }
        }
    }

    /// A term's concrete value on this path, forking if it is narrow.
    fn resolve_i64(&self, ex: &Exec, t: TermId) -> R<i64> {
        if let Some(v) = self.pool.as_const(t) {
            return Ok(v);
        }
        if let Some(&v) = ex.fixes.get(&t) {
            return Ok(v);
        }
        let iv = solver::interval_under(self.pool, &ex.cond, t);
        let width = iv.hi.saturating_sub(iv.lo).saturating_add(1);
        if width >= 1 && width <= self.budget.fork_width as i128 {
            Err(Stop::Fork(t, (iv.lo..=iv.hi).map(|v| v as i64).collect()))
        } else {
            Err(Stop::Unsupported("wide symbolic index/length"))
        }
    }

    fn resolve_bool(&self, ex: &Exec, t: TermId) -> R<bool> {
        if let Some(v) = self.pool.as_const(t) {
            return Ok(v != 0);
        }
        if let Some(&v) = ex.fixes.get(&t) {
            return Ok(v != 0);
        }
        Err(Stop::BoolFork(t))
    }

    /// Mirrors `Value::as_index` (with forking for symbolic payloads).
    fn resolve_index(&self, ex: &Exec, v: &SymValue) -> R<u64> {
        match v {
            SymValue::Int(Type::Index, t) => Ok(self.resolve_i64(ex, *t)? as u64),
            SymValue::Int(_, t) => {
                let x = self.resolve_i64(ex, *t)?;
                if x >= 0 {
                    Ok(x as u64)
                } else {
                    Err(Stop::Trap) // as_index → None → TypeConfusion
                }
            }
            _ => Err(Stop::Trap),
        }
    }

    /// Mirrors `Key::from_value` (with forking for symbolic payloads).
    fn resolve_key(&self, ex: &Exec, v: &SymValue) -> R<SymKey> {
        match v {
            SymValue::Int(_, t) => Ok(SymKey::Int(self.resolve_i64(ex, *t)?)),
            SymValue::Bool(t) => Ok(SymKey::Bool(self.resolve_bool(ex, *t)?)),
            SymValue::Ref(o) => Ok(SymKey::Ref(*o)),
            _ => Err(Stop::Trap), // Coll/Uninit → bad key
        }
    }

    fn eval(&mut self, f: &Function, regs: &RegFile<SymValue>, v: ValueId) -> R<SymValue> {
        eval(self.pool, f, regs, v)
    }

    fn coll_arg(&mut self, f: &Function, regs: &RegFile<SymValue>, v: ValueId) -> R<usize> {
        match self.eval(f, regs, v)? {
            SymValue::Coll(c) => Ok(c),
            _ => Err(Stop::Trap),
        }
    }

    /// Mirrors `exec_bin` over symbolic operands; `ex` is consulted for
    /// divisor-zero forking.
    fn exec_bin(&mut self, ex: &Exec, op: BinOp, a: &SymValue, b: &SymValue) -> R<SymValue> {
        match (a, b) {
            (SymValue::Int(ta, x), SymValue::Int(_, y)) => {
                if matches!(op, BinOp::Div | BinOp::Rem) {
                    let zero = self.pool.konst(0);
                    let eqz = self.pool.cmp(CmpOp::Eq, false, *y, zero);
                    if self.resolve_bool(ex, eqz)? {
                        return Err(Stop::Trap); // DivByZero
                    }
                }
                let raw = self.pool.bin(op, *x, *y).map_err(|_| Stop::Trap)?;
                Ok(SymValue::Int(*ta, self.pool.trunc(*ta, raw)))
            }
            (SymValue::Bool(x), SymValue::Bool(y)) => match op {
                BinOp::And | BinOp::Or | BinOp::Xor => {
                    // 0/1-valued terms are closed under these.
                    Ok(SymValue::Bool(
                        self.pool.bin(op, *x, *y).map_err(|_| Stop::Trap)?,
                    ))
                }
                _ => Err(Stop::Trap), // arith on bool
            },
            _ => Err(Stop::Trap), // bin operand types
        }
    }

    /// Mirrors `exec_cmp`.
    fn exec_cmp(&mut self, op: CmpOp, a: &SymValue, b: &SymValue) -> R<SymValue> {
        match (a, b) {
            (SymValue::Int(ta, x), SymValue::Int(_, y)) => {
                Ok(SymValue::Bool(self.pool.cmp(op, is_unsigned(*ta), *x, *y)))
            }
            // Booleans compare as 0/1 with signed order.
            (SymValue::Bool(x), SymValue::Bool(y)) => {
                Ok(SymValue::Bool(self.pool.cmp(op, false, *x, *y)))
            }
            (SymValue::Ref(x), SymValue::Ref(y)) => {
                // Identity comparisons are concrete; ordering between
                // allocations is representation-dependent across engines.
                match op {
                    CmpOp::Eq => Ok(SymValue::Bool(self.pool.konst((x == y) as i64))),
                    CmpOp::Ne => Ok(SymValue::Bool(self.pool.konst((x != y) as i64))),
                    _ => Err(Stop::Unsupported("reference ordering")),
                }
            }
            _ => Err(Stop::Trap), // cmp operand types
        }
    }

    /// Mirrors `exec_cast`.
    fn exec_cast(&mut self, to: Type, v: &SymValue) -> R<SymValue> {
        match (to, v) {
            (t, SymValue::Int(_, x)) if t.is_integer() => {
                Ok(SymValue::Int(t, self.pool.trunc(t, *x)))
            }
            // Bool payloads are already 0/1; truncation is the identity.
            (t, SymValue::Bool(b)) if t.is_integer() => Ok(SymValue::Int(t, *b)),
            (Type::Bool, SymValue::Int(_, x)) => {
                let zero = self.pool.konst(0);
                Ok(SymValue::Bool(self.pool.cmp(CmpOp::Ne, false, *x, zero)))
            }
            (t, _) if t.is_float() => Err(Stop::Unsupported("float cast")),
            _ => Err(Stop::Trap), // cast type confusion
        }
    }

    /// Moves the top frame from its block into `target` in place,
    /// running `target`'s φ head as a parallel copy.
    fn jump(&mut self, f: &Function, ex: &mut Exec, target: BlockId) -> R<StepOut> {
        let fr = ex.frames.last_mut().unwrap();
        let (pred, regs, pool) = (Some(fr.block), &mut fr.regs, &mut *self.pool);
        fr.at = enter_block(f, pred, target, regs, &mut self.phis, |regs, v| {
            eval(pool, f, regs, v)
        })?;
        fr.block = target;
        Ok(StepOut::Continue)
    }

    fn step(&mut self, ex: &mut Exec) -> Result<StepOut, SymError> {
        match self.step_inner(ex) {
            Ok(out) => Ok(out),
            Err(Stop::Trap) => Ok(StepOut::End(PathEnd::Trap)),
            Err(Stop::Fork(t, vals)) => {
                self.fork_values(ex, t, &vals);
                Ok(StepOut::Forked)
            }
            Err(Stop::BoolFork(t)) => {
                self.fork_bool(ex, t);
                Ok(StepOut::Forked)
            }
            Err(Stop::Unsupported(what)) => Err(SymError::Unsupported(what)),
        }
    }

    /// Executes one instruction of the top frame. Must not mutate
    /// `ex.store` or bind results before the last possible fork point
    /// (forked children re-execute the instruction from a clone of `ex`).
    fn step_inner(&mut self, ex: &mut Exec) -> R<StepOut> {
        use InstKind::*;
        let m = self.module;
        let frame = ex.frames.last().ok_or(Stop::Trap)?;
        let f = &m.funcs[frame.fid];
        let iid = *f.blocks[frame.block]
            .insts
            .get(frame.at)
            .ok_or(Stop::Trap)?; // fell off the block: malformed
        let inst = &f.insts[iid];
        // Local helper: bind the first result (if the instruction has
        // one) and advance.
        macro_rules! next {
            () => {{
                ex.frames.last_mut().unwrap().at += 1;
                return Ok(StepOut::Continue);
            }};
            ($v:expr) => {{
                let v: SymValue = $v;
                let frame = ex.frames.last_mut().unwrap();
                if let Some(&r) = inst.results.first() {
                    frame.regs.set(r, v);
                }
                frame.at += 1;
                return Ok(StepOut::Continue);
            }};
        }
        match inst.kind {
            Bin { op, lhs, rhs } => {
                let a = self.eval(f, &frame.regs, lhs)?;
                let b = self.eval(f, &frame.regs, rhs)?;
                let v = self.exec_bin(ex, op, &a, &b)?;
                next!(v);
            }
            Cmp { op, lhs, rhs } => {
                let a = self.eval(f, &frame.regs, lhs)?;
                let b = self.eval(f, &frame.regs, rhs)?;
                let v = self.exec_cmp(op, &a, &b)?;
                next!(v);
            }
            Cast { to, value } => {
                let v = self.eval(f, &frame.regs, value)?;
                let to = self.module.types.get(to);
                let out = self.exec_cast(to, &v)?;
                next!(out);
            }
            Select {
                cond,
                then_value,
                else_value,
            } => {
                let c = match self.eval(f, &frame.regs, cond)? {
                    SymValue::Bool(t) => t,
                    _ => return Err(Stop::Trap),
                };
                let tv = self.eval(f, &frame.regs, then_value)?;
                let ev = self.eval(f, &frame.regs, else_value)?;
                let out = match (&tv, &ev) {
                    _ if self.pool.as_const(c).is_some() || ex.fixes.contains_key(&c) => {
                        if self.resolve_bool(ex, c)? {
                            tv
                        } else {
                            ev
                        }
                    }
                    (SymValue::Int(ta, x), SymValue::Int(_, y)) => {
                        SymValue::Int(*ta, self.pool.select(c, *x, *y))
                    }
                    (SymValue::Bool(x), SymValue::Bool(y)) => {
                        SymValue::Bool(self.pool.select(c, *x, *y))
                    }
                    // Selecting between heap values needs a concrete
                    // condition: fork.
                    _ => {
                        if self.resolve_bool(ex, c)? {
                            tv
                        } else {
                            ev
                        }
                    }
                };
                next!(out);
            }
            Phi { .. } => Err(Stop::Trap), // phi outside block head
            Call { callee, ref args } => {
                let argv: Vec<SymValue> = args
                    .iter()
                    .map(|&a| self.eval(f, &frame.regs, a))
                    .collect::<R<_>>()?;
                match callee {
                    Callee::Func(callee_fid) => {
                        let callee_f = &m.funcs[callee_fid];
                        let mut argv = argv;
                        // Mut form: by-value collection args are deep
                        // copies (value semantics of the MUT library).
                        if callee_f.form == Form::Mut {
                            for (i, a) in argv.iter_mut().enumerate() {
                                if let (Some(p), SymValue::Coll(c)) = (callee_f.params.get(i), &*a)
                                {
                                    if !p.by_ref {
                                        *a = SymValue::Coll(ex.store.clone_coll(*c));
                                    }
                                }
                            }
                        }
                        let mut regs = RegFile::new(callee_f);
                        for (i, &pv) in callee_f.param_values.iter().enumerate() {
                            regs.set(pv, argv.get(i).cloned().ok_or(Stop::Trap)?);
                        }
                        ex.frames.push(Frame {
                            fid: callee_fid,
                            block: callee_f.entry,
                            at: 0,
                            regs,
                        });
                        Ok(StepOut::Continue)
                    }
                    Callee::Extern(_) => Err(Stop::Unsupported("extern call")),
                }
            }
            Jump { target } => self.jump(f, ex, target),
            Branch {
                cond,
                then_target,
                else_target,
            } => {
                let c = match self.eval(f, &frame.regs, cond)? {
                    SymValue::Bool(t) => t,
                    _ => return Err(Stop::Trap),
                };
                let taken = if self.resolve_bool(ex, c)? {
                    then_target
                } else {
                    else_target
                };
                self.jump(f, ex, taken)
            }
            Ret { ref values } => {
                let vals: Vec<SymValue> = values
                    .iter()
                    .map(|&v| self.eval(f, &frame.regs, v))
                    .collect::<R<_>>()?;
                if ex.frames.len() == 1 {
                    // Entry return: project scalar results to terms.
                    let mut terms = Vec::with_capacity(vals.len());
                    for v in vals {
                        match v {
                            SymValue::Int(_, t) | SymValue::Bool(t) => terms.push(t),
                            _ => return Err(Stop::Unsupported("non-scalar return")),
                        }
                    }
                    return Ok(StepOut::End(PathEnd::Ret(terms)));
                }
                ex.frames.pop();
                // Bind the caller's call-instruction results.
                let frame = ex.frames.last_mut().unwrap();
                let cf = &m.funcs[frame.fid];
                let call_iid = cf.blocks[frame.block].insts[frame.at];
                for (&r, v) in cf.insts[call_iid].results.iter().zip(vals) {
                    frame.regs.set(r, v);
                }
                frame.at += 1;
                Ok(StepOut::Continue)
            }
            Unreachable => Err(Stop::Trap),

            NewSeq { len, .. } => {
                let lv = self.eval(f, &frame.regs, len)?;
                let n = self.resolve_index(ex, &lv)?;
                if n > u16::MAX as u64 {
                    // A concrete interpreter would allocate this; the
                    // symbolic heap refuses absurd sizes.
                    return Err(Stop::Unsupported("huge sequence"));
                }
                let id = ex
                    .store
                    .alloc_coll(SymColl::Seq(vec![SymValue::Uninit; n as usize]));
                next!(SymValue::Coll(id));
            }
            NewAssoc { .. } => {
                let id = ex.store.alloc_coll(SymColl::Assoc {
                    map: HashMap::new(),
                    order: Vec::new(),
                });
                next!(SymValue::Coll(id));
            }
            NewObj { obj } => {
                let nfields = self.module.types.object(obj).fields.len();
                ex.store.objs.push(Rc::new(SymObj {
                    fields: Some(vec![SymValue::Uninit; nfields]),
                }));
                let id = ex.store.objs.len() - 1;
                next!(SymValue::Ref(Some(id)));
            }
            DeleteObj { obj } => {
                let v = self.eval(f, &frame.regs, obj)?;
                match v {
                    SymValue::Ref(Some(id)) => {
                        ex.store.objs[id] = Rc::new(SymObj { fields: None });
                        next!();
                    }
                    _ => Err(Stop::Trap), // BadReference
                }
            }

            Read { c, idx } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let v = self.read_element(ex, cid, &iv)?;
                next!(v);
            }
            Write { c, idx, value } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let vv = self.eval(f, &frame.regs, value)?;
                let loc = self.locate_write(ex, cid, &iv)?;
                let copy = ex.store.clone_coll(cid);
                Self::store_at(&mut ex.store, copy, loc, vv);
                next!(SymValue::Coll(copy));
            }
            MutWrite { c, idx, value } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let vv = self.eval(f, &frame.regs, value)?;
                let loc = self.locate_write(ex, cid, &iv)?;
                Self::store_at(&mut ex.store, cid, loc, vv);
                next!();
            }
            Rmw { c, idx, op, value } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let vv = self.eval(f, &frame.regs, value)?;
                let old = self.read_element(ex, cid, &iv)?;
                let new = self.exec_bin(ex, op, &old, &vv)?;
                let loc = self.locate_write(ex, cid, &iv)?;
                let copy = ex.store.clone_coll(cid);
                Self::store_at(&mut ex.store, copy, loc, new);
                next!(SymValue::Coll(copy));
            }
            MutRmw { c, idx, op, value } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let vv = self.eval(f, &frame.regs, value)?;
                let old = self.read_element(ex, cid, &iv)?;
                let new = self.exec_bin(ex, op, &old, &vv)?;
                let loc = self.locate_write(ex, cid, &iv)?;
                Self::store_at(&mut ex.store, cid, loc, new);
                next!();
            }
            Insert { c, idx, value } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let vv = match value {
                    Some(v) => Some(self.eval(f, &frame.regs, v)?),
                    None => None,
                };
                let ins = self.locate_insert(ex, cid, &iv)?;
                let copy = ex.store.clone_coll(cid);
                Self::insert_at(&mut ex.store, copy, ins, vv);
                next!(SymValue::Coll(copy));
            }
            MutInsert { c, idx, value } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let vv = match value {
                    Some(v) => Some(self.eval(f, &frame.regs, v)?),
                    None => None,
                };
                let ins = self.locate_insert(ex, cid, &iv)?;
                Self::insert_at(&mut ex.store, cid, ins, vv);
                next!();
            }
            InsertSeq { c, idx, src } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let i = self.resolve_index(ex, &iv)?;
                let sid = self.coll_arg(f, &frame.regs, src)?;
                let copy = ex.store.clone_coll(cid);
                self.splice(ex, copy, i, sid)?;
                next!(SymValue::Coll(copy));
            }
            MutInsertSeq { c, idx, src } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let i = self.resolve_index(ex, &iv)?;
                let sid = self.coll_arg(f, &frame.regs, src)?;
                self.splice(ex, cid, i, sid)?;
                next!();
            }
            MutAppend { c, src } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let at = ex.store.coll(cid).len() as u64;
                let sid = self.coll_arg(f, &frame.regs, src)?;
                self.splice(ex, cid, at, sid)?;
                next!();
            }
            Remove { c, idx } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let loc = self.locate_remove(ex, cid, &iv)?;
                let copy = ex.store.clone_coll(cid);
                Self::remove_at(&mut ex.store, copy, loc);
                next!(SymValue::Coll(copy));
            }
            MutRemove { c, idx } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let iv = self.eval(f, &frame.regs, idx)?;
                let loc = self.locate_remove(ex, cid, &iv)?;
                Self::remove_at(&mut ex.store, cid, loc);
                next!();
            }
            RemoveRange { c, from, to } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let (a, b) = self.range_args(ex, f, &frame.regs, from, to)?;
                let copy = ex.store.clone_coll(cid);
                self.remove_range(ex, copy, a, b)?;
                next!(SymValue::Coll(copy));
            }
            MutRemoveRange { c, from, to } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let (a, b) = self.range_args(ex, f, &frame.regs, from, to)?;
                self.remove_range(ex, cid, a, b)?;
                next!();
            }
            Copy { c } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let copy = ex.store.clone_coll(cid);
                next!(SymValue::Coll(copy));
            }
            CopyRange { c, from, to } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let (a, b) = self.range_args(ex, f, &frame.regs, from, to)?;
                let SymColl::Seq(elems) = ex.store.coll(cid) else {
                    return Err(Stop::Trap); // copy.range on assoc
                };
                let len = elems.len() as u64;
                if a > b || b > len {
                    return Err(Stop::Trap); // OutOfRange
                }
                let slice = elems[a as usize..b as usize].to_vec();
                let id = ex.store.alloc_coll(SymColl::Seq(slice));
                next!(SymValue::Coll(id));
            }
            MutSplit { c, from, to } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let (a, b) = self.range_args(ex, f, &frame.regs, from, to)?;
                let SymColl::Seq(elems) = ex.store.coll_mut(cid) else {
                    return Err(Stop::Trap); // split on assoc
                };
                let len = elems.len() as u64;
                if a > b || b > len {
                    return Err(Stop::Trap); // OutOfRange
                }
                let split: Vec<SymValue> = elems.drain(a as usize..b as usize).collect();
                let id = ex.store.alloc_coll(SymColl::Seq(split));
                next!(SymValue::Coll(id));
            }
            Swap { c, from, to, at } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let (a, b) = self.range_args(ex, f, &frame.regs, from, to)?;
                let kv = self.eval(f, &frame.regs, at)?;
                let k = self.resolve_index(ex, &kv)?;
                let copy = ex.store.clone_coll(cid);
                self.swap_ranges(ex, copy, a, b, k)?;
                next!(SymValue::Coll(copy));
            }
            MutSwap { c, from, to, at } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let (a, b) = self.range_args(ex, f, &frame.regs, from, to)?;
                let kv = self.eval(f, &frame.regs, at)?;
                let k = self.resolve_index(ex, &kv)?;
                self.swap_ranges(ex, cid, a, b, k)?;
                next!();
            }
            Swap2 { a, from, to, b, at } => {
                let aid = self.coll_arg(f, &frame.regs, a)?;
                let bid = self.coll_arg(f, &frame.regs, b)?;
                let (x, y) = self.range_args(ex, f, &frame.regs, from, to)?;
                let kv = self.eval(f, &frame.regs, at)?;
                let k = self.resolve_index(ex, &kv)?;
                let ca = ex.store.clone_coll(aid);
                let cb = ex.store.clone_coll(bid);
                self.swap_across(ex, ca, cb, x, y, k)?;
                let frame = ex.frames.last_mut().unwrap();
                for (&r, v) in inst
                    .results
                    .iter()
                    .zip([SymValue::Coll(ca), SymValue::Coll(cb)])
                {
                    frame.regs.set(r, v);
                }
                frame.at += 1;
                Ok(StepOut::Continue)
            }
            MutSwap2 { a, from, to, b, at } => {
                let aid = self.coll_arg(f, &frame.regs, a)?;
                let bid = self.coll_arg(f, &frame.regs, b)?;
                let (x, y) = self.range_args(ex, f, &frame.regs, from, to)?;
                let kv = self.eval(f, &frame.regs, at)?;
                let k = self.resolve_index(ex, &kv)?;
                self.swap_across(ex, aid, bid, x, y, k)?;
                next!();
            }
            Size { c } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let n = ex.store.coll(cid).len() as i64;
                let t = self.pool.konst(n);
                next!(SymValue::Int(Type::Index, t));
            }
            Has { c, key } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let kv = self.eval(f, &frame.regs, key)?;
                let k = self.resolve_key(ex, &kv)?;
                let SymColl::Assoc { map, .. } = ex.store.coll(cid) else {
                    return Err(Stop::Trap); // has on sequence
                };
                let present = map.contains_key(&k);
                let t = self.pool.konst(present as i64);
                next!(SymValue::Bool(t));
            }
            Keys { c } => {
                let cid = self.coll_arg(f, &frame.regs, c)?;
                let key_ty = match self.module.types.get(f.value_ty(c)) {
                    Type::Assoc(k, _) => self.module.types.get(k),
                    _ => return Err(Stop::Trap), // keys on sequence
                };
                let SymColl::Assoc { order, .. } = ex.store.coll(cid) else {
                    return Err(Stop::Trap);
                };
                let elems: Vec<SymValue> = order
                    .iter()
                    .map(|&k| match k {
                        SymKey::Int(x) => SymValue::Int(key_ty, self.pool.konst(x)),
                        SymKey::Bool(b) => SymValue::Bool(self.pool.konst(b as i64)),
                        SymKey::Ref(o) => SymValue::Ref(o),
                    })
                    .collect();
                let id = ex.store.alloc_coll(SymColl::Seq(elems));
                next!(SymValue::Coll(id));
            }
            UsePhi { c } => {
                let v = self.eval(f, &frame.regs, c)?;
                next!(v);
            }
            FieldRead { obj, field, .. } => {
                let v = self.eval(f, &frame.regs, obj)?;
                let SymValue::Ref(Some(id)) = v else {
                    return Err(Stop::Trap); // BadReference
                };
                let fields = ex.store.objs[id].fields.as_ref().ok_or(Stop::Trap)?;
                let fv = fields[field as usize].clone();
                if fv == SymValue::Uninit {
                    return Err(Stop::Trap); // ReadUninit
                }
                next!(fv);
            }
            FieldWrite {
                obj, field, value, ..
            } => {
                let v = self.eval(f, &frame.regs, obj)?;
                let fv = self.eval(f, &frame.regs, value)?;
                let SymValue::Ref(Some(id)) = v else {
                    return Err(Stop::Trap);
                };
                let fields = ex.store.obj_mut(id).fields.as_mut().ok_or(Stop::Trap)?;
                fields[field as usize] = fv;
                next!();
            }
        }
    }

    fn range_args(
        &mut self,
        ex: &Exec,
        f: &Function,
        regs: &RegFile<SymValue>,
        from: ValueId,
        to: ValueId,
    ) -> R<(u64, u64)> {
        let fv = self.eval(f, regs, from)?;
        let a = self.resolve_index(ex, &fv)?;
        let tv = self.eval(f, regs, to)?;
        let b = self.resolve_index(ex, &tv)?;
        Ok((a, b))
    }

    /// Where a write would land; resolves indices/keys (possibly forking)
    /// *before* any mutation.
    fn locate_write(&mut self, ex: &Exec, cid: usize, idx: &SymValue) -> R<WriteLoc> {
        match ex.store.coll(cid) {
            SymColl::Seq(elems) => {
                let i = self.resolve_index(ex, idx)?;
                if (i as usize) < elems.len() {
                    Ok(WriteLoc::SeqAt(i as usize))
                } else {
                    Err(Stop::Trap) // OutOfRange
                }
            }
            SymColl::Assoc { .. } => {
                let k = self.resolve_key(ex, idx)?;
                Ok(WriteLoc::AssocKey(k))
            }
        }
    }

    fn locate_insert(&mut self, ex: &Exec, cid: usize, idx: &SymValue) -> R<WriteLoc> {
        match ex.store.coll(cid) {
            SymColl::Seq(elems) => {
                let i = self.resolve_index(ex, idx)?;
                if i as usize > elems.len() {
                    Err(Stop::Trap) // OutOfRange (i > len)
                } else {
                    Ok(WriteLoc::SeqAt(i as usize))
                }
            }
            SymColl::Assoc { .. } => {
                let k = self.resolve_key(ex, idx)?;
                Ok(WriteLoc::AssocKey(k))
            }
        }
    }

    fn locate_remove(&mut self, ex: &Exec, cid: usize, idx: &SymValue) -> R<WriteLoc> {
        match ex.store.coll(cid) {
            SymColl::Seq(elems) => {
                let i = self.resolve_index(ex, idx)?;
                if (i as usize) < elems.len() {
                    Ok(WriteLoc::SeqAt(i as usize))
                } else {
                    Err(Stop::Trap) // OutOfRange (i >= len)
                }
            }
            SymColl::Assoc { map, .. } => {
                let k = self.resolve_key(ex, idx)?;
                if map.contains_key(&k) {
                    Ok(WriteLoc::AssocKey(k))
                } else {
                    Err(Stop::Trap) // MissingKey
                }
            }
        }
    }

    fn store_at(store: &mut SymStore, cid: usize, loc: WriteLoc, v: SymValue) {
        match (store.coll_mut(cid), loc) {
            (SymColl::Seq(elems), WriteLoc::SeqAt(i)) => elems[i] = v,
            (SymColl::Assoc { map, order }, WriteLoc::AssocKey(k)) => {
                if map.insert(k, v).is_none() {
                    order.push(k);
                }
            }
            _ => unreachable!("write location shape"),
        }
    }

    fn insert_at(store: &mut SymStore, cid: usize, loc: WriteLoc, v: Option<SymValue>) {
        let v = v.unwrap_or(SymValue::Uninit);
        match (store.coll_mut(cid), loc) {
            (SymColl::Seq(elems), WriteLoc::SeqAt(i)) => elems.insert(i, v),
            (SymColl::Assoc { map, order }, WriteLoc::AssocKey(k)) => {
                if map.insert(k, v).is_none() {
                    order.push(k);
                }
            }
            _ => unreachable!("insert location shape"),
        }
    }

    fn remove_at(store: &mut SymStore, cid: usize, loc: WriteLoc) {
        match (store.coll_mut(cid), loc) {
            (SymColl::Seq(elems), WriteLoc::SeqAt(i)) => {
                elems.remove(i);
            }
            (SymColl::Assoc { map, order }, WriteLoc::AssocKey(k)) => {
                map.remove(&k);
                order.retain(|&ek| ek != k);
            }
            _ => unreachable!("remove location shape"),
        }
    }

    /// Mirrors `read_element` (present + initialized, or trap).
    fn read_element(&mut self, ex: &Exec, cid: usize, idx: &SymValue) -> R<SymValue> {
        match ex.store.coll(cid) {
            SymColl::Seq(elems) => {
                let i = self.resolve_index(ex, idx)?;
                let v = elems.get(i as usize).cloned().ok_or(Stop::Trap)?;
                if v == SymValue::Uninit {
                    return Err(Stop::Trap); // ReadUninit
                }
                Ok(v)
            }
            SymColl::Assoc { map, .. } => {
                let k = self.resolve_key(ex, idx)?;
                let v = map.get(&k).cloned().ok_or(Stop::Trap)?; // MissingKey
                if v == SymValue::Uninit {
                    return Err(Stop::Trap);
                }
                Ok(v)
            }
        }
    }

    fn remove_range(&mut self, ex: &mut Exec, cid: usize, from: u64, to: u64) -> R<()> {
        let SymColl::Seq(elems) = ex.store.coll_mut(cid) else {
            return Err(Stop::Trap);
        };
        let len = elems.len() as u64;
        if from > to || to > len {
            return Err(Stop::Trap);
        }
        elems.drain(from as usize..to as usize);
        Ok(())
    }

    fn splice(&mut self, ex: &mut Exec, dst: usize, at: u64, src: usize) -> R<()> {
        let src_elems = match ex.store.coll(src) {
            SymColl::Seq(e) => e.clone(),
            _ => return Err(Stop::Trap),
        };
        let SymColl::Seq(elems) = ex.store.coll_mut(dst) else {
            return Err(Stop::Trap);
        };
        if at > elems.len() as u64 {
            return Err(Stop::Trap);
        }
        elems.splice(at as usize..at as usize, src_elems);
        Ok(())
    }

    fn swap_ranges(&mut self, ex: &mut Exec, cid: usize, from: u64, to: u64, at: u64) -> R<()> {
        let SymColl::Seq(elems) = ex.store.coll_mut(cid) else {
            return Err(Stop::Trap);
        };
        let len = elems.len() as u64;
        let width = to.checked_sub(from).ok_or(Stop::Trap)?;
        if to > len || at + width > len {
            return Err(Stop::Trap);
        }
        for k in 0..width {
            elems.swap((from + k) as usize, (at + k) as usize);
        }
        Ok(())
    }

    fn swap_across(
        &mut self,
        ex: &mut Exec,
        a: usize,
        b: usize,
        from: u64,
        to: u64,
        at: u64,
    ) -> R<()> {
        if a == b {
            return self.swap_ranges(ex, a, from, to, at);
        }
        let width = to.checked_sub(from).ok_or(Stop::Trap)?;
        let [ca, cb] = ex
            .store
            .colls
            .get_disjoint_mut([a, b])
            .map_err(|_| Stop::Trap)?;
        let (SymColl::Seq(ea), SymColl::Seq(eb)) = (Rc::make_mut(ca), Rc::make_mut(cb)) else {
            return Err(Stop::Trap);
        };
        if to > ea.len() as u64 || at + width > eb.len() as u64 {
            return Err(Stop::Trap);
        }
        for k in 0..width {
            std::mem::swap(&mut ea[(from + k) as usize], &mut eb[(at + k) as usize]);
        }
        Ok(())
    }
}

enum WriteLoc {
    SeqAt(usize),
    AssocKey(SymKey),
}

/// A constant's symbolic value.
fn const_value(pool: &mut TermPool, c: Constant) -> R<SymValue> {
    match c {
        Constant::Int(ty, v) => Ok(SymValue::Int(ty, pool.konst(v))),
        Constant::Bool(b) => Ok(SymValue::Bool(pool.konst(b as i64))),
        Constant::Null(_) => Ok(SymValue::Ref(None)),
        Constant::Float(..) => Err(Stop::Unsupported("float constant")),
    }
}

/// An operand's symbolic value: a constant, or the value bound to it.
fn eval(pool: &mut TermPool, f: &Function, regs: &RegFile<SymValue>, v: ValueId) -> R<SymValue> {
    match &f.values[v].def {
        ValueDef::Const(c) => const_value(pool, *c),
        _ => regs.get(v).cloned().ok_or(Stop::Trap), // unbound value
    }
}

/// The concrete prediction of a symbolic summary on given arguments: the
/// unique feasible path's return terms evaluated under `args`, or `None`
/// when the path traps / no path matches. Used by the oracle-soundness
/// checks (`sym-unsound` detection).
pub fn predict(pool: &TermPool, paths: &[Path], args: &[i64]) -> Option<Result<Vec<i64>, ()>> {
    for p in paths {
        let matches = p.cond.iter().all(|&(t, truth)| {
            pool.eval(t, args)
                .map(|v| (v != 0) == truth)
                // A trap while evaluating the condition means the path
                // prefix itself traps; the path is not taken.
                .unwrap_or(false)
        });
        if !matches {
            continue;
        }
        return Some(match &p.end {
            PathEnd::Trap => Err(()),
            PathEnd::Ret(terms) => {
                let mut out = Vec::with_capacity(terms.len());
                for &t in terms {
                    match pool.eval(t, args) {
                        Some(v) => out.push(v),
                        None => return Some(Err(())),
                    }
                }
                Ok(out)
            }
        });
    }
    None
}

/// Seeds a pool with a function's parameter types (must all be scalar
/// integers or bools). Returns `None` when the signature is ineligible.
pub fn seed_params(module: &Module, fid: FuncId) -> Option<TermPool> {
    let f = &module.funcs[fid];
    let mut pool = TermPool::new();
    for p in &f.params {
        let ty = module.types.get(p.ty);
        if !(ty.is_integer() || ty == Type::Bool) {
            return None;
        }
        pool.param_tys.push(ty);
    }
    for rt in &f.ret_tys {
        let ty = module.types.get(*rt);
        if !(ty.is_integer() || ty == Type::Bool) {
            return None;
        }
    }
    Some(pool)
}

/// Parameter domains matching the typed-probe synthesizer: used to keep
/// witness search inside values both IRs agree on.
pub fn param_domains(pool: &TermPool) -> Vec<(i64, i64)> {
    pool.param_tys.iter().map(|&t| type_domain(t)).collect()
}
