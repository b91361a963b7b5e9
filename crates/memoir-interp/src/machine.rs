//! The execution engine.
//!
//! Executes MEMOIR functions in either program form:
//!
//! * **mut form** — `mut.*` instructions update collection storage in
//!   place; collections passed by value are deep-copied at the call (the
//!   MUT library's value semantics), by-reference parameters alias the
//!   caller's storage.
//! * **SSA form** — every collection update allocates a fresh collection
//!   (the naïve but faithful semantics of immutable collection values).
//!   SSA destruction exists precisely to remove these copies; the
//!   interpreter's copy counter demonstrates it.
//!
//! Undefined behaviour per the paper (§IV-B) — reading uninitialized
//! elements, absent keys, or out-of-range indices — raises a [`Trap`]
//! instead of producing garbage, which makes differential testing strict.

use crate::regs::{enter_block, PhiFault, RegFile};
use crate::stats::ExecStats;
use crate::value::{CollId, Collection, Key, Store, Value};
use memoir_ir::{
    BinOp, BlockId, Callee, CmpOp, Constant, FuncId, Function, InstId, InstKind, Module, Repr,
    ReprChoices, Type, ValueDef, ValueId,
};
use std::collections::HashMap;
use std::fmt;

/// An execution failure.
#[derive(Clone, Debug, PartialEq)]
pub enum Trap {
    /// Read of an uninitialized element (undefined behaviour, §IV-B).
    ReadUninit,
    /// Sequence index out of range.
    OutOfRange {
        /// The offending index.
        index: u64,
        /// The sequence length.
        len: u64,
    },
    /// Associative access with an absent key.
    MissingKey,
    /// Integer division/remainder by zero.
    DivByZero,
    /// `unreachable` executed.
    Unreachable,
    /// Access through a deleted or null object reference.
    BadReference,
    /// Execution exceeded the fuel limit.
    OutOfFuel,
    /// Call of an unregistered extern.
    UnknownExtern(String),
    /// Internal type confusion (verifier should have rejected the module).
    TypeConfusion(&'static str),
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::ReadUninit => write!(f, "read of uninitialized element"),
            Trap::OutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            Trap::MissingKey => write!(f, "key not present in associative array"),
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::Unreachable => write!(f, "reached `unreachable`"),
            Trap::BadReference => write!(f, "null or deleted object reference"),
            Trap::OutOfFuel => write!(f, "execution exceeded fuel limit"),
            Trap::UnknownExtern(n) => write!(f, "unknown extern `{n}`"),
            Trap::TypeConfusion(m) => write!(f, "type confusion: {m}"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<PhiFault> for Trap {
    fn from(fault: PhiFault) -> Self {
        Trap::TypeConfusion(match fault {
            PhiFault::NoPred => "phi in entry block",
            PhiFault::MissingIncoming => "phi missing incoming",
        })
    }
}

/// Host implementation of an extern function.
pub type ExternFn = Box<dyn FnMut(&mut Store, &[Value]) -> Result<Vec<Value>, Trap>>;

/// The interpreter.
pub struct Interp<'m> {
    module: &'m Module,
    /// The heap.
    pub store: Store,
    externs: HashMap<String, ExternFn>,
    /// Accumulated statistics.
    pub stats: ExecStats,
    fuel: u64,
    /// Adaptive representation choices per allocation site (opt-in via
    /// [`Interp::with_repr_choices`]; affects cost accounting only).
    repr_choices: ReprChoices,
    /// Scratch for the φ parallel copy at block entry.
    phis: Vec<Value>,
}

impl fmt::Debug for Interp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("module", &self.module.name)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'m> Interp<'m> {
    /// Creates an interpreter over a module with the default fuel budget
    /// (100 million instructions).
    pub fn new(module: &'m Module) -> Self {
        Interp {
            module,
            store: Store::default(),
            externs: HashMap::new(),
            stats: ExecStats::default(),
            fuel: 100_000_000,
            repr_choices: ReprChoices::default(),
            phis: Vec::new(),
        }
    }

    /// Overrides the fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Enables adaptive-representation cost accounting: collections
    /// allocated at the given sites are tagged with their chosen
    /// representation and charge that representation's (cheaper) per-op
    /// costs. Semantics are unchanged — only `stats.cost` differs — so
    /// observable outputs are byte-identical to a run without choices.
    pub fn with_repr_choices(mut self, choices: ReprChoices) -> Self {
        self.repr_choices = choices;
        self
    }

    /// Registers a host implementation for an extern.
    pub fn register_extern(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Store, &[Value]) -> Result<Vec<Value>, Trap> + 'static,
    ) {
        self.externs.insert(name.into(), Box::new(f));
    }

    /// Convenience: allocates a sequence in the store from values.
    pub fn alloc_seq(&mut self, elems: Vec<Value>) -> Value {
        let id = self.store.alloc_coll(Collection::Seq(elems));
        Value::Coll(id)
    }

    /// Reads out a sequence as a vector of values.
    pub fn seq_values(&self, v: &Value) -> Option<Vec<Value>> {
        match self.store.coll(v.as_coll()?) {
            Collection::Seq(e) => Some(e.clone()),
            _ => None,
        }
    }

    /// Runs a function by id with the given arguments.
    pub fn run(&mut self, fid: FuncId, args: Vec<Value>) -> Result<Vec<Value>, Trap> {
        self.call_function(fid, args)
    }

    /// Runs a function by name.
    pub fn run_by_name(&mut self, name: &str, args: Vec<Value>) -> Result<Vec<Value>, Trap> {
        let fid = self
            .module
            .func_by_name(name)
            .unwrap_or_else(|| panic!("no function named `{name}`"));
        self.run(fid, args)
    }

    fn call_function(&mut self, fid: FuncId, mut args: Vec<Value>) -> Result<Vec<Value>, Trap> {
        let module = self.module;
        let f = &module.funcs[fid];
        self.stats.call();
        // Value semantics: by-value collection arguments are deep copies in
        // mut form (the MUT library mirrors C++). SSA-form functions never
        // mutate their inputs, so the copy is skipped (and ARGφ/RETφ flow
        // returns updated collections explicitly).
        if f.form == memoir_ir::Form::Mut {
            for (i, a) in args.iter_mut().enumerate() {
                if let (Some(p), Value::Coll(c)) = (f.params.get(i), a.clone()) {
                    if !p.by_ref {
                        let (copy, n) = self.store.clone_coll(c);
                        self.stats.copy(n as u64);
                        self.charge_alloc_bytes(copy);
                        *a = Value::Coll(copy);
                    }
                }
            }
        }

        let mut regs = RegFile::new(f);
        for (i, &pv) in f.param_values.iter().enumerate() {
            regs.set(
                pv,
                args.get(i)
                    .cloned()
                    .ok_or(Trap::TypeConfusion("missing argument"))?,
            );
        }

        let mut block = f.entry;
        let mut prev: Option<BlockId> = None;
        loop {
            // Evaluate φs as a parallel copy using the incoming edge.
            let insts = &f.blocks[block].insts;
            let stats = &mut self.stats;
            let phis = enter_block(f, prev, block, &mut regs, &mut self.phis, |regs, v| {
                eval(f, regs, v).inspect(|_| stats.scalar())
            })?;

            // Execute the rest of the block.
            let mut next: Option<BlockId> = None;
            for &iid in &insts[phis..] {
                if self.stats.insts >= self.fuel {
                    return Err(Trap::OutOfFuel);
                }
                match self.exec(f, &mut regs, (fid, iid))? {
                    Control::Next => {}
                    Control::Jump(b) => {
                        next = Some(b);
                        break;
                    }
                    Control::Return(vals) => return Ok(vals),
                }
            }
            match next {
                Some(b) => {
                    prev = Some(block);
                    block = b;
                }
                None => return Err(Trap::TypeConfusion("block fell through")),
            }
        }
    }

    /// Tags a collection allocated at `site` with the site's adaptive
    /// representation choice, if it has one.
    fn tag_repr(&mut self, site: (FuncId, InstId), id: CollId) {
        if let Some(r) = self.repr_choices.get(&site).copied() {
            self.store.reprs.insert(id, r);
        }
    }

    fn charge_alloc_bytes(&mut self, id: CollId) {
        let bytes = match self.store.coll(id) {
            Collection::Seq(v) => 32 + 8 * v.len() as u64,
            Collection::Assoc { map, .. } => 48 + 24 * map.len() as u64,
        };
        self.stats.alloc(self.store.coll(id).len() as u64, bytes);
    }

    /// Executes one non-φ instruction, binding its results in `regs`.
    fn exec(
        &mut self,
        f: &Function,
        regs: &mut RegFile<Value>,
        site: (FuncId, InstId),
    ) -> Result<Control, Trap> {
        use InstKind::*;
        let inst = &f.insts[site.1];
        let results = &inst.results;
        // Binds the first result (a result-less instruction discards its
        // value) and falls through.
        macro_rules! next {
            ($v:expr) => {{
                let v = $v;
                if let Some(&r) = results.first() {
                    regs.set(r, v);
                }
                Control::Next
            }};
        }
        Ok(match &inst.kind {
            Bin { op, lhs, rhs } => {
                self.stats.scalar();
                let a = eval(f, regs, *lhs)?;
                let b = eval(f, regs, *rhs)?;
                next!(exec_bin(*op, &a, &b)?)
            }
            Cmp { op, lhs, rhs } => {
                self.stats.scalar();
                let a = eval(f, regs, *lhs)?;
                let b = eval(f, regs, *rhs)?;
                next!(Value::Bool(exec_cmp(*op, &a, &b)?))
            }
            Cast { to, value } => {
                self.stats.scalar();
                let v = eval(f, regs, *value)?;
                next!(exec_cast(self.module.types.get(*to), &v)?)
            }
            Select {
                cond,
                then_value,
                else_value,
            } => {
                self.stats.scalar();
                let c = eval(f, regs, *cond)?
                    .as_bool()
                    .ok_or(Trap::TypeConfusion("select"))?;
                let v = if c {
                    eval(f, regs, *then_value)?
                } else {
                    eval(f, regs, *else_value)?
                };
                next!(v)
            }
            Phi { .. } => return Err(Trap::TypeConfusion("phi outside block head")),
            Call { callee, args } => {
                let argv: Vec<Value> = args
                    .iter()
                    .map(|&a| eval(f, regs, a))
                    .collect::<Result<_, _>>()?;
                match callee {
                    Callee::Func(fid) => {
                        let rets = self.call_function(*fid, argv)?;
                        for (&r, v) in results.iter().zip(rets) {
                            regs.set(r, v);
                        }
                        Control::Next
                    }
                    Callee::Extern(eid) => {
                        self.stats.call();
                        let name = self.module.externs[*eid].name.clone();
                        let mut host = self
                            .externs
                            .remove(&name)
                            .ok_or_else(|| Trap::UnknownExtern(name.clone()))?;
                        let result = host(&mut self.store, &argv);
                        self.externs.insert(name, host);
                        for (&r, v) in results.iter().zip(result?) {
                            regs.set(r, v);
                        }
                        Control::Next
                    }
                }
            }
            Jump { target } => {
                self.stats.scalar();
                Control::Jump(*target)
            }
            Branch {
                cond,
                then_target,
                else_target,
            } => {
                self.stats.scalar();
                let c = eval(f, regs, *cond)?
                    .as_bool()
                    .ok_or(Trap::TypeConfusion("branch"))?;
                Control::Jump(if c { *then_target } else { *else_target })
            }
            Ret { values } => {
                let vals: Vec<Value> = values
                    .iter()
                    .map(|&v| eval(f, regs, v))
                    .collect::<Result<_, _>>()?;
                Control::Return(vals)
            }
            Unreachable => return Err(Trap::Unreachable),

            NewSeq { len, .. } => {
                let n = index_arg(f, regs, *len)?;
                let id = self
                    .store
                    .alloc_coll(Collection::Seq(vec![Value::Uninit; n as usize]));
                self.charge_alloc_bytes(id);
                self.tag_repr(site, id);
                next!(Value::Coll(id))
            }
            NewAssoc { .. } => {
                let id = self.store.alloc_coll(Collection::new_assoc());
                self.charge_alloc_bytes(id);
                self.tag_repr(site, id);
                next!(Value::Coll(id))
            }
            NewObj { obj } => {
                let nfields = self.module.types.object(*obj).fields.len();
                let bytes = self.module.types.object_layout(*obj).size + 16;
                self.stats.alloc(0, bytes);
                let id = self.store.alloc_obj(*obj, nfields);
                next!(Value::Ref(*obj, Some(id)))
            }
            DeleteObj { obj } => {
                self.stats.scalar();
                let v = eval(f, regs, *obj)?;
                match v {
                    Value::Ref(_, Some(id)) => {
                        self.store.objects[id.0 as usize].fields = None;
                        Control::Next
                    }
                    _ => return Err(Trap::BadReference),
                }
            }

            Read { c, idx } => {
                let cid = coll_arg(f, regs, *c)?;
                let iv = eval(f, regs, *idx)?;
                let v = self.read_element(cid, &iv)?;
                next!(v)
            }
            Write { c, idx, value } => {
                let cid = coll_arg(f, regs, *c)?;
                let (copy, n) = self.store.clone_coll(cid);
                self.stats.copy(n as u64);
                self.charge_alloc_bytes(copy);
                let iv = eval(f, regs, *idx)?;
                let vv = eval(f, regs, *value)?;
                self.write_element(copy, &iv, vv)?;
                next!(Value::Coll(copy))
            }
            MutWrite { c, idx, value } => {
                let cid = coll_arg(f, regs, *c)?;
                let iv = eval(f, regs, *idx)?;
                let vv = eval(f, regs, *value)?;
                self.write_element(cid, &iv, vv)?;
                Control::Next
            }
            Rmw { c, idx, op, value } => {
                let cid = coll_arg(f, regs, *c)?;
                let (copy, n) = self.store.clone_coll(cid);
                self.stats.copy(n as u64);
                self.charge_alloc_bytes(copy);
                let iv = eval(f, regs, *idx)?;
                let vv = eval(f, regs, *value)?;
                self.rmw_element(copy, &iv, *op, &vv)?;
                next!(Value::Coll(copy))
            }
            MutRmw { c, idx, op, value } => {
                let cid = coll_arg(f, regs, *c)?;
                let iv = eval(f, regs, *idx)?;
                let vv = eval(f, regs, *value)?;
                self.rmw_element(cid, &iv, *op, &vv)?;
                Control::Next
            }
            Insert { c, idx, value } => {
                let cid = coll_arg(f, regs, *c)?;
                let (copy, n) = self.store.clone_coll(cid);
                self.stats.copy(n as u64);
                self.charge_alloc_bytes(copy);
                let iv = eval(f, regs, *idx)?;
                let vv = match value {
                    Some(v) => Some(eval(f, regs, *v)?),
                    None => None,
                };
                self.insert_element(copy, &iv, vv)?;
                next!(Value::Coll(copy))
            }
            MutInsert { c, idx, value } => {
                let cid = coll_arg(f, regs, *c)?;
                let iv = eval(f, regs, *idx)?;
                let vv = match value {
                    Some(v) => Some(eval(f, regs, *v)?),
                    None => None,
                };
                self.insert_element(cid, &iv, vv)?;
                Control::Next
            }
            InsertSeq { c, idx, src } => {
                let cid = coll_arg(f, regs, *c)?;
                let (copy, n) = self.store.clone_coll(cid);
                self.stats.copy(n as u64);
                self.charge_alloc_bytes(copy);
                let i = index_arg(f, regs, *idx)?;
                let sid = coll_arg(f, regs, *src)?;
                self.splice(copy, i, sid)?;
                next!(Value::Coll(copy))
            }
            MutInsertSeq { c, idx, src } => {
                let cid = coll_arg(f, regs, *c)?;
                let i = index_arg(f, regs, *idx)?;
                let sid = coll_arg(f, regs, *src)?;
                self.splice(cid, i, sid)?;
                Control::Next
            }
            MutAppend { c, src } => {
                let cid = coll_arg(f, regs, *c)?;
                let at = self.store.coll(cid).len() as u64;
                let sid = coll_arg(f, regs, *src)?;
                self.splice(cid, at, sid)?;
                Control::Next
            }
            Remove { c, idx } => {
                let cid = coll_arg(f, regs, *c)?;
                let (copy, n) = self.store.clone_coll(cid);
                self.stats.copy(n as u64);
                self.charge_alloc_bytes(copy);
                let iv = eval(f, regs, *idx)?;
                self.remove_element(copy, &iv)?;
                next!(Value::Coll(copy))
            }
            MutRemove { c, idx } => {
                let cid = coll_arg(f, regs, *c)?;
                let iv = eval(f, regs, *idx)?;
                self.remove_element(cid, &iv)?;
                Control::Next
            }
            RemoveRange { c, from, to } => {
                let cid = coll_arg(f, regs, *c)?;
                let (copy, n) = self.store.clone_coll(cid);
                self.stats.copy(n as u64);
                self.charge_alloc_bytes(copy);
                let (a, b) = (index_arg(f, regs, *from)?, index_arg(f, regs, *to)?);
                self.remove_range(copy, a, b)?;
                next!(Value::Coll(copy))
            }
            MutRemoveRange { c, from, to } => {
                let cid = coll_arg(f, regs, *c)?;
                let (a, b) = (index_arg(f, regs, *from)?, index_arg(f, regs, *to)?);
                self.remove_range(cid, a, b)?;
                Control::Next
            }
            Copy { c } => {
                let cid = coll_arg(f, regs, *c)?;
                let (copy, n) = self.store.clone_coll(cid);
                self.stats.copy(n as u64);
                self.charge_alloc_bytes(copy);
                next!(Value::Coll(copy))
            }
            CopyRange { c, from, to } => {
                let cid = coll_arg(f, regs, *c)?;
                let (a, b) = (index_arg(f, regs, *from)?, index_arg(f, regs, *to)?);
                let Collection::Seq(elems) = self.store.coll(cid) else {
                    return Err(Trap::TypeConfusion("copy.range on assoc"));
                };
                let len = elems.len() as u64;
                if a > b || b > len {
                    return Err(Trap::OutOfRange { index: b, len });
                }
                let slice = elems[a as usize..b as usize].to_vec();
                let n = slice.len() as u64;
                let id = self.store.alloc_coll(Collection::Seq(slice));
                self.stats.copy(n);
                self.charge_alloc_bytes(id);
                next!(Value::Coll(id))
            }
            MutSplit { c, from, to } => {
                let cid = coll_arg(f, regs, *c)?;
                let (a, b) = (index_arg(f, regs, *from)?, index_arg(f, regs, *to)?);
                let Collection::Seq(elems) = self.store.coll_mut(cid) else {
                    return Err(Trap::TypeConfusion("split on assoc"));
                };
                let len = elems.len() as u64;
                if a > b || b > len {
                    return Err(Trap::OutOfRange { index: b, len });
                }
                let split: Vec<Value> = elems.drain(a as usize..b as usize).collect();
                let n = split.len() as u64;
                let id = self.store.alloc_coll(Collection::Seq(split));
                self.stats.copy(n);
                self.stats.moved(len - b);
                self.charge_alloc_bytes(id);
                next!(Value::Coll(id))
            }
            Swap { c, from, to, at } => {
                let cid = coll_arg(f, regs, *c)?;
                let (copy, n) = self.store.clone_coll(cid);
                self.stats.copy(n as u64);
                self.charge_alloc_bytes(copy);
                let (a, b, k) = (
                    index_arg(f, regs, *from)?,
                    index_arg(f, regs, *to)?,
                    index_arg(f, regs, *at)?,
                );
                self.swap_ranges(copy, a, b, k)?;
                next!(Value::Coll(copy))
            }
            MutSwap { c, from, to, at } => {
                let cid = coll_arg(f, regs, *c)?;
                let (a, b, k) = (
                    index_arg(f, regs, *from)?,
                    index_arg(f, regs, *to)?,
                    index_arg(f, regs, *at)?,
                );
                self.swap_ranges(cid, a, b, k)?;
                Control::Next
            }
            Swap2 { a, from, to, b, at } => {
                let aid = coll_arg(f, regs, *a)?;
                let bid = coll_arg(f, regs, *b)?;
                let (ca, na) = self.store.clone_coll(aid);
                let (cb, nb) = self.store.clone_coll(bid);
                self.stats.copy(na as u64);
                self.stats.copy(nb as u64);
                self.charge_alloc_bytes(ca);
                self.charge_alloc_bytes(cb);
                let (x, y, k) = (
                    index_arg(f, regs, *from)?,
                    index_arg(f, regs, *to)?,
                    index_arg(f, regs, *at)?,
                );
                self.swap_across(ca, cb, x, y, k)?;
                for (&r, v) in results.iter().zip([Value::Coll(ca), Value::Coll(cb)]) {
                    regs.set(r, v);
                }
                Control::Next
            }
            MutSwap2 { a, from, to, b, at } => {
                let aid = coll_arg(f, regs, *a)?;
                let bid = coll_arg(f, regs, *b)?;
                let (x, y, k) = (
                    index_arg(f, regs, *from)?,
                    index_arg(f, regs, *to)?,
                    index_arg(f, regs, *at)?,
                );
                self.swap_across(aid, bid, x, y, k)?;
                Control::Next
            }
            Size { c } => {
                self.stats.scalar();
                let cid = coll_arg(f, regs, *c)?;
                next!(Value::Int(Type::Index, self.store.coll(cid).len() as i64))
            }
            Has { c, key } => {
                let cid = coll_arg(f, regs, *c)?;
                if matches!(self.store.repr_of(cid), Repr::Dense { .. }) {
                    self.stats.dense_access(false);
                } else {
                    self.stats.assoc_op(false);
                }
                let kv = eval(f, regs, *key)?;
                let k = Key::from_value(&kv).ok_or(Trap::TypeConfusion("bad key"))?;
                let Collection::Assoc { map, .. } = self.store.coll(cid) else {
                    return Err(Trap::TypeConfusion("has on sequence"));
                };
                next!(Value::Bool(map.contains_key(&k)))
            }
            Keys { c } => {
                let cid = coll_arg(f, regs, *c)?;
                let key_ty = match self.module.types.get(f.value_ty(*c)) {
                    Type::Assoc(k, _) => self.module.types.get(k),
                    _ => return Err(Trap::TypeConfusion("keys on sequence")),
                };
                let Collection::Assoc { order, map } = self.store.coll(cid) else {
                    return Err(Trap::TypeConfusion("keys on sequence"));
                };
                let elems: Vec<Value> = order
                    .iter()
                    .filter(|k| map.contains_key(k))
                    .map(|k| k.to_value(key_ty))
                    .collect();
                let n = elems.len() as u64;
                let id = self.store.alloc_coll(Collection::Seq(elems));
                self.stats.copy(n);
                self.charge_alloc_bytes(id);
                next!(Value::Coll(id))
            }
            UsePhi { c } => {
                self.stats.scalar();
                let v = eval(f, regs, *c)?;
                next!(v)
            }
            FieldRead { obj, obj_ty, field } => {
                let bytes = self.module.types.object_layout(*obj_ty).size;
                self.stats.field_op(bytes);
                let v = eval(f, regs, *obj)?;
                let Value::Ref(_, Some(id)) = v else {
                    return Err(Trap::BadReference);
                };
                let fields = self.store.objects[id.0 as usize]
                    .fields
                    .as_ref()
                    .ok_or(Trap::BadReference)?;
                let fv = fields[*field as usize].clone();
                if fv == Value::Uninit {
                    return Err(Trap::ReadUninit);
                }
                next!(fv)
            }
            FieldWrite {
                obj,
                obj_ty,
                field,
                value,
            } => {
                let bytes = self.module.types.object_layout(*obj_ty).size;
                self.stats.field_op(bytes);
                let v = eval(f, regs, *obj)?;
                let fv = eval(f, regs, *value)?;
                let Value::Ref(_, Some(id)) = v else {
                    return Err(Trap::BadReference);
                };
                let fields = self.store.objects[id.0 as usize]
                    .fields
                    .as_mut()
                    .ok_or(Trap::BadReference)?;
                fields[*field as usize] = fv;
                Control::Next
            }
        })
    }

    /// Fused read-modify-write of one element: reads (with `read`'s trap
    /// behaviour — the element must be present and initialized), combines
    /// via `op`, and writes back, charging a single fused storage cost.
    fn rmw_element(&mut self, cid: CollId, idx: &Value, op: BinOp, v: &Value) -> Result<(), Trap> {
        let repr = self.store.repr_of(cid);
        match self.store.coll_mut(cid) {
            Collection::Seq(elems) => {
                let i = idx.as_index().ok_or(Trap::TypeConfusion("seq index"))?;
                let len = elems.len() as u64;
                let slot = elems
                    .get_mut(i as usize)
                    .ok_or(Trap::OutOfRange { index: i, len })?;
                if *slot == Value::Uninit {
                    return Err(Trap::ReadUninit);
                }
                *slot = exec_bin(op, slot, v)?;
                self.stats.seq_rmw();
                Ok(())
            }
            Collection::Assoc { map, .. } => {
                let k = Key::from_value(idx).ok_or(Trap::TypeConfusion("bad key"))?;
                let slot = map.get_mut(&k).ok_or(Trap::MissingKey)?;
                if *slot == Value::Uninit {
                    return Err(Trap::ReadUninit);
                }
                *slot = exec_bin(op, slot, v)?;
                if matches!(repr, Repr::Dense { .. }) {
                    self.stats.dense_rmw();
                } else {
                    self.stats.assoc_rmw();
                }
                Ok(())
            }
        }
    }

    fn read_element(&mut self, cid: CollId, idx: &Value) -> Result<Value, Trap> {
        let repr = self.store.repr_of(cid);
        match self.store.coll(cid) {
            Collection::Seq(elems) => {
                if matches!(repr, Repr::Inline { .. }) {
                    self.stats.inline_access(false);
                } else {
                    self.stats.seq_access(false);
                }
                let i = idx.as_index().ok_or(Trap::TypeConfusion("seq index"))?;
                let len = elems.len() as u64;
                let v = elems
                    .get(i as usize)
                    .cloned()
                    .ok_or(Trap::OutOfRange { index: i, len })?;
                if v == Value::Uninit {
                    return Err(Trap::ReadUninit);
                }
                Ok(v)
            }
            Collection::Assoc { map, .. } => {
                if matches!(repr, Repr::Dense { .. }) {
                    self.stats.dense_access(false);
                } else {
                    self.stats.assoc_op(false);
                }
                let k = Key::from_value(idx).ok_or(Trap::TypeConfusion("bad key"))?;
                let v = map.get(&k).cloned().ok_or(Trap::MissingKey)?;
                if v == Value::Uninit {
                    return Err(Trap::ReadUninit);
                }
                Ok(v)
            }
        }
    }

    fn write_element(&mut self, cid: CollId, idx: &Value, v: Value) -> Result<(), Trap> {
        let repr = self.store.repr_of(cid);
        match self.store.coll_mut(cid) {
            Collection::Seq(elems) => {
                let i = idx.as_index().ok_or(Trap::TypeConfusion("seq index"))?;
                let len = elems.len() as u64;
                let slot = elems
                    .get_mut(i as usize)
                    .ok_or(Trap::OutOfRange { index: i, len })?;
                *slot = v;
                if matches!(repr, Repr::Inline { .. }) {
                    self.stats.inline_access(true);
                } else {
                    self.stats.seq_access(true);
                }
                Ok(())
            }
            Collection::Assoc { map, order } => {
                let k = Key::from_value(idx).ok_or(Trap::TypeConfusion("bad key"))?;
                if !map.contains_key(&k) {
                    order.push(k.clone());
                }
                map.insert(k, v);
                if matches!(repr, Repr::Dense { .. }) {
                    self.stats.dense_access(true);
                } else {
                    self.stats.assoc_op(true);
                }
                Ok(())
            }
        }
    }

    fn insert_element(&mut self, cid: CollId, idx: &Value, v: Option<Value>) -> Result<(), Trap> {
        let repr = self.store.repr_of(cid);
        match self.store.coll_mut(cid) {
            Collection::Seq(elems) => {
                let i = idx.as_index().ok_or(Trap::TypeConfusion("seq index"))?;
                let len = elems.len() as u64;
                if i > len {
                    return Err(Trap::OutOfRange { index: i, len });
                }
                elems.insert(i as usize, v.unwrap_or(Value::Uninit));
                let moved = len - i;
                self.stats.seq_access(true);
                self.stats.moved(moved);
                Ok(())
            }
            Collection::Assoc { map, order } => {
                let k = Key::from_value(idx).ok_or(Trap::TypeConfusion("bad key"))?;
                if !map.contains_key(&k) {
                    order.push(k.clone());
                }
                map.insert(k, v.unwrap_or(Value::Uninit));
                if matches!(repr, Repr::Dense { .. }) {
                    self.stats.dense_access(true);
                } else {
                    self.stats.assoc_op(true);
                }
                Ok(())
            }
        }
    }

    fn remove_element(&mut self, cid: CollId, idx: &Value) -> Result<(), Trap> {
        let repr = self.store.repr_of(cid);
        match self.store.coll_mut(cid) {
            Collection::Seq(elems) => {
                let i = idx.as_index().ok_or(Trap::TypeConfusion("seq index"))?;
                let len = elems.len() as u64;
                if i >= len {
                    return Err(Trap::OutOfRange { index: i, len });
                }
                elems.remove(i as usize);
                self.stats.seq_access(true);
                self.stats.moved(len - i - 1);
                Ok(())
            }
            Collection::Assoc { map, order } => {
                let k = Key::from_value(idx).ok_or(Trap::TypeConfusion("bad key"))?;
                if map.remove(&k).is_none() {
                    return Err(Trap::MissingKey);
                }
                order.retain(|x| x != &k);
                if matches!(repr, Repr::Dense { .. }) {
                    self.stats.dense_access(true);
                } else {
                    self.stats.assoc_op(false);
                }
                Ok(())
            }
        }
    }

    fn remove_range(&mut self, cid: CollId, from: u64, to: u64) -> Result<(), Trap> {
        let Collection::Seq(elems) = self.store.coll_mut(cid) else {
            return Err(Trap::TypeConfusion("remove.range on assoc"));
        };
        let len = elems.len() as u64;
        if from > to || to > len {
            return Err(Trap::OutOfRange { index: to, len });
        }
        elems.drain(from as usize..to as usize);
        self.stats.moved(len - to);
        Ok(())
    }

    fn splice(&mut self, dst: CollId, at: u64, src: CollId) -> Result<(), Trap> {
        let src_elems = match self.store.coll(src) {
            Collection::Seq(e) => e.clone(),
            _ => return Err(Trap::TypeConfusion("splice from assoc")),
        };
        let Collection::Seq(elems) = self.store.coll_mut(dst) else {
            return Err(Trap::TypeConfusion("splice into assoc"));
        };
        let len = elems.len() as u64;
        if at > len {
            return Err(Trap::OutOfRange { index: at, len });
        }
        let n = src_elems.len() as u64;
        let tail = len - at;
        elems.splice(at as usize..at as usize, src_elems);
        self.stats.moved(n + tail);
        Ok(())
    }

    fn swap_ranges(&mut self, cid: CollId, from: u64, to: u64, at: u64) -> Result<(), Trap> {
        let Collection::Seq(elems) = self.store.coll_mut(cid) else {
            return Err(Trap::TypeConfusion("swap on assoc"));
        };
        let len = elems.len() as u64;
        let width = to
            .checked_sub(from)
            .ok_or(Trap::OutOfRange { index: from, len })?;
        if to > len || at + width > len {
            return Err(Trap::OutOfRange {
                index: at + width,
                len,
            });
        }
        for k in 0..width {
            elems.swap((from + k) as usize, (at + k) as usize);
        }
        self.stats.moved(2 * width);
        Ok(())
    }

    fn swap_across(
        &mut self,
        a: CollId,
        b: CollId,
        from: u64,
        to: u64,
        at: u64,
    ) -> Result<(), Trap> {
        if a == b {
            return self.swap_ranges(a, from, to, at);
        }
        let width = to.checked_sub(from).ok_or(Trap::OutOfRange {
            index: from,
            len: 0,
        })?;
        // Split-borrow the two collections.
        let (x, y) = {
            let (lo, hi) = if a.0 < b.0 { (a, b) } else { (b, a) };
            let (first, second) = self.store.collections.split_at_mut(hi.0 as usize);
            let xa = &mut first[lo.0 as usize];
            let xb = &mut second[0];
            if a.0 < b.0 {
                (xa, xb)
            } else {
                (xb, xa)
            }
        };
        let (Collection::Seq(ea), Collection::Seq(eb)) = (x, y) else {
            return Err(Trap::TypeConfusion("swap2 on assoc"));
        };
        if to > ea.len() as u64 || at + width > eb.len() as u64 {
            return Err(Trap::OutOfRange {
                index: at + width,
                len: eb.len() as u64,
            });
        }
        for k in 0..width {
            std::mem::swap(&mut ea[(from + k) as usize], &mut eb[(at + k) as usize]);
        }
        self.stats.moved(2 * width);
        Ok(())
    }
}

enum Control {
    /// Results bound; go on to the next instruction.
    Next,
    Jump(BlockId),
    Return(Vec<Value>),
}

fn eval(f: &Function, regs: &RegFile<Value>, v: ValueId) -> Result<Value, Trap> {
    match &f.values[v].def {
        ValueDef::Const(c) => Ok(const_value(*c)),
        _ => regs
            .get(v)
            .cloned()
            .ok_or(Trap::TypeConfusion("unbound value")),
    }
}

fn coll_arg(f: &Function, regs: &RegFile<Value>, v: ValueId) -> Result<CollId, Trap> {
    eval(f, regs, v)?
        .as_coll()
        .ok_or(Trap::TypeConfusion("expected collection"))
}

fn index_arg(f: &Function, regs: &RegFile<Value>, v: ValueId) -> Result<u64, Trap> {
    eval(f, regs, v)?
        .as_index()
        .ok_or(Trap::TypeConfusion("expected index"))
}

/// Materializes a constant.
pub fn const_value(c: Constant) -> Value {
    match c {
        Constant::Int(ty, v) => Value::Int(ty, v),
        Constant::Float(ty, bits) => Value::Float(ty, f64::from_bits(bits)),
        Constant::Bool(b) => Value::Bool(b),
        Constant::Null(obj) => Value::Ref(obj, None),
    }
}

fn exec_bin(op: BinOp, a: &Value, b: &Value) -> Result<Value, Trap> {
    match (a, b) {
        (Value::Int(ta, x), Value::Int(_, y)) => {
            let (x, y) = (*x, *y);
            let v = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x.wrapping_div(y)
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(Trap::DivByZero);
                    }
                    x.wrapping_rem(y)
                }
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                BinOp::Shl => x.wrapping_shl(y as u32),
                BinOp::Shr => x.wrapping_shr(y as u32),
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
            };
            Ok(Value::Int(*ta, truncate(*ta, v)))
        }
        (Value::Float(ta, x), Value::Float(_, y)) => {
            let v = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(*y),
                BinOp::Max => x.max(*y),
                _ => return Err(Trap::TypeConfusion("bitwise op on float")),
            };
            Ok(Value::Float(*ta, v))
        }
        (Value::Bool(x), Value::Bool(y)) => {
            let v = match op {
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
                _ => return Err(Trap::TypeConfusion("arith on bool")),
            };
            Ok(Value::Bool(v))
        }
        _ => Err(Trap::TypeConfusion("bin operand types")),
    }
}

fn exec_cmp(op: CmpOp, a: &Value, b: &Value) -> Result<bool, Trap> {
    let ord = match (a, b) {
        (Value::Int(ta, x), Value::Int(_, y)) => {
            if is_unsigned(*ta) {
                (*x as u64).cmp(&(*y as u64))
            } else {
                x.cmp(y)
            }
        }
        (Value::Float(_, x), Value::Float(_, y)) => {
            return Ok(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            })
        }
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Ref(_, x), Value::Ref(_, y)) => x.cmp(y),
        (Value::Ptr(x), Value::Ptr(y)) => x.cmp(y),
        _ => return Err(Trap::TypeConfusion("cmp operand types")),
    };
    Ok(match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    })
}

fn exec_cast(to: Type, v: &Value) -> Result<Value, Trap> {
    Ok(match (to, v) {
        (t, Value::Int(_, x)) if t.is_integer() => Value::Int(t, truncate(t, *x)),
        (t, Value::Int(_, x)) if t.is_float() => Value::Float(t, *x as f64),
        (t, Value::Float(_, x)) if t.is_integer() => Value::Int(t, truncate(t, *x as i64)),
        (t, Value::Float(_, x)) if t.is_float() => Value::Float(t, *x),
        (t, Value::Bool(b)) if t.is_integer() => Value::Int(t, *b as i64),
        (Type::Bool, Value::Int(_, x)) => Value::Bool(*x != 0),
        _ => return Err(Trap::TypeConfusion("cast")),
    })
}

fn is_unsigned(t: Type) -> bool {
    matches!(
        t,
        Type::U64 | Type::U32 | Type::U16 | Type::U8 | Type::Index
    )
}

fn truncate(t: Type, v: i64) -> i64 {
    match t {
        Type::I8 => v as i8 as i64,
        Type::U8 => v as u8 as i64,
        Type::I16 => v as i16 as i64,
        Type::U16 => v as u16 as i64,
        Type::I32 => v as i32 as i64,
        Type::U32 => v as u32 as i64,
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, ModuleBuilder};

    fn run_main(m: &Module, args: Vec<Value>) -> Result<(Vec<Value>, ExecStats), Trap> {
        let mut interp = Interp::new(m);
        let r = interp.run_by_name("main", args)?;
        Ok((r, interp.stats))
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 0..n
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let n = b.param("n", t);
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let zero = b.index(0);
            let one = b.index(1);
            b.jump(header);
            b.switch_to(header);
            let i = b.phi_placeholder(t);
            let acc = b.phi_placeholder(t);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            b.add_phi_incoming(acc, entry, zero);
            let done = b.cmp(CmpOp::Ge, i, n);
            b.branch(done, exit, body);
            b.switch_to(body);
            let acc2 = b.add(acc, i);
            let next = b.add(i, one);
            let bb = b.current_block();
            b.add_phi_incoming(i, bb, next);
            b.add_phi_incoming(acc, bb, acc2);
            b.jump(header);
            b.switch_to(exit);
            b.returns(&[t]);
            b.ret(vec![acc]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let (r, stats) = run_main(&m, vec![Value::Int(Type::Index, 10)]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::Index, 45)]);
        assert!(stats.insts > 30);
    }

    #[test]
    fn ssa_collection_ops_are_functional() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(2);
            let s0 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v1 = b.i64(10);
            let v2 = b.i64(20);
            let s1 = b.write(s0, zero, v1);
            let s2 = b.write(s1, zero, v2);
            let a = b.read(s1, zero); // must still see 10
            let c = b.read(s2, zero); // sees 20
            let sum = b.add(a, c);
            b.returns(&[i64t]);
            b.ret(vec![sum]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let (r, stats) = run_main(&m, vec![]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::I64, 30)]);
        // Two functional writes ⇒ two collection copies.
        assert_eq!(stats.collection_copies, 2);
    }

    #[test]
    fn mut_ops_update_in_place_without_copies() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(2);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let one = b.index(1);
            let v1 = b.i64(10);
            let v2 = b.i64(20);
            b.mut_write(s, zero, v1);
            b.mut_write(s, one, v2);
            let a = b.read(s, zero);
            let c = b.read(s, one);
            let sum = b.add(a, c);
            b.returns(&[i64t]);
            b.ret(vec![sum]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let (r, stats) = run_main(&m, vec![]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::I64, 30)]);
        assert_eq!(stats.collection_copies, 0);
    }

    #[test]
    fn uninitialized_read_traps() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let r = b.read(s, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let m = mb.finish();
        let err = run_main(&m, vec![]).unwrap_err();
        assert_eq!(err, Trap::ReadUninit);
    }

    #[test]
    fn assoc_insert_read_has_keys() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i32t = b.ty(Type::I32);
            let i64t = b.ty(Type::I64);
            let a = b.new_assoc(i32t, i64t);
            let k0 = b.i32(42);
            let k1 = b.i32(7);
            let v0 = b.i64(100);
            let v1 = b.i64(200);
            b.mut_write(a, k0, v0);
            b.mut_write(a, k1, v1);
            let ks = b.keys(a);
            let nkeys = b.size(ks);
            let h = b.has(a, k0);
            let hv = b.cast(Type::Index, h);
            let r0 = b.read(a, k0);
            let r0i = b.cast(Type::Index, r0);
            let s1 = b.add(nkeys, hv);
            let s2 = b.add(s1, r0i);
            let idxt = b.ty(Type::Index);
            b.returns(&[idxt]);
            b.ret(vec![s2]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let (r, _) = run_main(&m, vec![]).unwrap();
        // 2 keys + has(1) + value(100) = 103
        assert_eq!(r, vec![Value::Int(Type::Index, 103)]);
    }

    #[test]
    fn missing_key_traps() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i32t = b.ty(Type::I32);
            let i64t = b.ty(Type::I64);
            let a = b.new_assoc(i32t, i64t);
            let k = b.i32(1);
            let r = b.read(a, k);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let m = mb.finish();
        assert_eq!(run_main(&m, vec![]).unwrap_err(), Trap::MissingKey);
    }

    #[test]
    fn swap_ranges_in_place() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            for k in 0..4 {
                let ik = b.index(k);
                let vk = b.i64(k as i64);
                b.mut_write(s, ik, vk);
            }
            // swap [0:2) with [2:4) → [2,3,0,1]
            let zero = b.index(0);
            let two = b.index(2);
            b.mut_swap(s, zero, two, two);
            let r0 = b.read(s, zero);
            b.returns(&[i64t]);
            b.ret(vec![r0]);
        });
        let m = mb.finish();
        let (r, _) = run_main(&m, vec![]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::I64, 2)]);
    }

    #[test]
    fn by_value_call_copies_by_ref_does_not() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let byval = mb.func("byval", Form::Mut, |b| {
            let s = b.param("s", seqt);
            let zero = b.index(0);
            let v = b.i64(99);
            b.mut_write(s, zero, v);
            b.ret(vec![]);
        });
        let byref = mb.func("byref", Form::Mut, |b| {
            let s = b.param_ref("s", seqt);
            let zero = b.index(0);
            let v = b.i64(77);
            b.mut_write(s, zero, v);
            b.ret(vec![]);
        });
        mb.func("main", Form::Mut, |b| {
            let n = b.index(1);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(1);
            b.mut_write(s, zero, v);
            b.call(Callee::Func(byval), vec![s], &[]); // callee mutates a copy
            let after_byval = b.read(s, zero);
            b.call(Callee::Func(byref), vec![s], &[]); // callee mutates ours
            let after_byref = b.read(s, zero);
            let sum = b.add(after_byval, after_byref);
            b.returns(&[i64t]);
            b.ret(vec![sum]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let (r, stats) = run_main(&m, vec![]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::I64, 1 + 77)]);
        assert_eq!(stats.collection_copies, 1, "only the by-value call copies");
    }

    #[test]
    fn extern_host_function() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let ext = mb.module.add_extern(memoir_ir::ExternDecl {
            name: "double_it".into(),
            params: vec![i64t],
            ret_tys: vec![i64t],
            effects: memoir_ir::ExternEffects::pure_reader(),
        });
        mb.func("main", Form::Mut, |b| {
            let x = b.i64(21);
            let r = b.call(Callee::Extern(ext), vec![x], &[i64t]);
            b.returns(&[i64t]);
            b.ret(vec![r[0]]);
        });
        let m = mb.finish();
        let mut interp = Interp::new(&m);
        interp.register_extern("double_it", |_store, args| {
            let x = args[0].as_int().unwrap();
            Ok(vec![Value::Int(Type::I64, x * 2)])
        });
        let r = interp.run_by_name("main", vec![]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::I64, 42)]);
    }

    #[test]
    fn object_field_round_trip_and_delete() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t0",
                vec![memoir_ir::Field {
                    name: "cost".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        mb.func("main", Form::Mut, |b| {
            let o = b.new_obj(obj);
            let v = b.i64(5);
            b.field_write(o, obj, 0, v);
            let r = b.field_read(o, obj, 0);
            b.delete_obj(o);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let m = mb.finish();
        let (r, _) = run_main(&m, vec![]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::I64, 5)]);
    }

    #[test]
    fn deleted_object_access_traps() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t0",
                vec![memoir_ir::Field {
                    name: "x".into(),
                    ty: i64t,
                }],
            )
            .unwrap();
        mb.func("main", Form::Mut, |b| {
            let o = b.new_obj(obj);
            b.delete_obj(o);
            let r = b.field_read(o, obj, 0);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let m = mb.finish();
        assert_eq!(run_main(&m, vec![]).unwrap_err(), Trap::BadReference);
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Ssa, |b| {
            let spin = b.block("spin");
            b.jump(spin);
            b.switch_to(spin);
            b.jump(spin);
        });
        let m = mb.finish();
        let mut interp = Interp::new(&m).with_fuel(1000);
        assert_eq!(
            interp.run_by_name("main", vec![]).unwrap_err(),
            Trap::OutOfFuel
        );
    }

    #[test]
    fn two_sequence_swap_both_forms() {
        // SSA form: both results are fresh; originals unchanged.
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(2);
            let s0 = b.new_seq(i64t, n);
            let s1 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let one = b.index(1);
            let two = b.index(2);
            let v1 = b.i64(1);
            let v2 = b.i64(2);
            let a0 = b.write(s0, zero, v1);
            let a1 = b.write(a0, one, v1);
            let b0 = b.write(s1, zero, v2);
            let b1 = b.write(b0, one, v2);
            // Swap the whole [0:2) between them.
            let (na, nb) = b.swap2(a1, zero, two, b1, zero);
            let x = b.read(na, zero); // 2 (from b)
            let y = b.read(nb, one); // 1 (from a)
            let old = b.read(a1, zero); // original untouched: 1
            let s = b.add(x, y);
            let s2 = b.add(s, old);
            b.returns(&[i64t]);
            b.ret(vec![s2]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let (r, _) = run_main(&m, vec![]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::I64, 2 + 1 + 1)]);
    }

    #[test]
    fn mut_swap2_in_place() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(3);
            let s0 = b.new_seq(i64t, n);
            let s1 = b.new_seq(i64t, n);
            for k in 0..3 {
                let ik = b.index(k);
                let va = b.i64(10 + k as i64);
                let vb = b.i64(20 + k as i64);
                b.mut_write(s0, ik, va);
                b.mut_write(s1, ik, vb);
            }
            // Swap s0[1:3) with s1[0:2).
            let one = b.index(1);
            let three = b.index(3);
            let zero = b.index(0);
            b.mut_swap2(s0, one, three, s1, zero);
            let a = b.read(s0, one); // 20
            let c = b.read(s1, zero); // 11
            let s = b.add(a, c);
            b.returns(&[i64t]);
            b.ret(vec![s]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let (r, stats) = run_main(&m, vec![]).unwrap();
        assert_eq!(r, vec![Value::Int(Type::I64, 31)]);
        assert_eq!(stats.collection_copies, 0);
    }

    #[test]
    fn copy_range_and_remove_range() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(5);
            let s0 = b.new_seq(i64t, n);
            let mut s = s0;
            for k in 0..5 {
                let ik = b.index(k);
                let vk = b.i64(k as i64);
                s = b.write(s, ik, vk);
            }
            let one = b.index(1);
            let four = b.index(4);
            let mid = b.copy_range(s, one, four); // [1,2,3]
            let trimmed = b.remove_range(s, one, four); // [0,4]
            let zero = b.index(0);
            let a = b.read(mid, zero); // 1
            let c = b.read(trimmed, one); // 4
            let msz = b.size(mid);
            let tsz = b.size(trimmed);
            let acc1 = b.add(a, c);
            let mszi = b.cast(Type::I64, msz);
            let tszi = b.cast(Type::I64, tsz);
            let acc2 = b.add(acc1, mszi);
            let acc3 = b.add(acc2, tszi);
            b.returns(&[i64t]);
            b.ret(vec![acc3]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let (r, _) = run_main(&m, vec![]).unwrap();
        // 1 + 4 + 3 + 2 = 10
        assert_eq!(r, vec![Value::Int(Type::I64, 10)]);
    }

    #[test]
    fn out_of_range_swap_traps() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let three = b.index(3);
            b.mut_swap(s, zero, three, three); // [3:6) out of range
            b.ret(vec![]);
        });
        let m = mb.finish();
        assert!(matches!(
            run_main(&m, vec![]).unwrap_err(),
            Trap::OutOfRange { .. }
        ));
    }

    #[test]
    fn split_and_append() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            for k in 0..4 {
                let ik = b.index(k);
                let vk = b.i64(k as i64 + 1);
                b.mut_write(s, ik, vk);
            }
            // split [1:3) out → s=[1,4], s2=[2,3]; then append s2 → [1,4,2,3]
            let one = b.index(1);
            let three = b.index(3);
            let s2 = b.mut_split(s, one, three);
            b.mut_append(s, s2);
            let sz = b.size(s);
            let idx3 = b.index(3);
            let last = b.read(s, idx3);
            let lasti = b.cast(Type::Index, last);
            let out = b.add(sz, lasti);
            let idxt = b.ty(Type::Index);
            b.returns(&[idxt]);
            b.ret(vec![out]);
        });
        let m = mb.finish();
        let (r, _) = run_main(&m, vec![]).unwrap();
        // size 4 + last element 3 = 7
        assert_eq!(r, vec![Value::Int(Type::Index, 7)]);
    }
}
