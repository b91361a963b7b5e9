//! The execution engine, generic over its value domain.
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
//!
//! [`Machine`] states this semantics once, over any [`Domain`] of scalar
//! payloads. [`Interp`] runs it on concrete values under a fuel budget;
//! `symexec`'s path enumerator runs it on symbolic terms, resolving each
//! payload that must be concrete (an index, a length, a key, a branch
//! condition) by pinning or forking. Frames live on an explicit stack, so
//! call depth costs heap, not host stack. Every allocation of collection
//! storage first passes the domain's storage guard.

use crate::regs::{enter_block, PhiFault, RegFile};
use crate::stats::ExecStats;
use crate::value::{CollId, Collection, Key, Layout, Store, Val, Value};
use memoir_ir::{
    BinOp, BlockId, Callee, CmpOp, Constant, FuncId, Function, InstId, InstKind, Module, ObjTypeId,
    ReprChoices, Type, ValueDef, ValueId,
};
use std::fmt;
use std::rc::Rc;

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
    /// Call of an extern (the interpreter implements none).
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

/// The scalar payloads a [`Machine`] computes with, and how it decides
/// the payloads that must be concrete. Every method that can fork the
/// symbolic domain (`bin` on a divisor, `resolve`, `truth`) runs before
/// the instruction writes the heap or binds a result, because a forked
/// child re-runs the instruction from a copy of the machine.
pub trait Domain {
    /// An integer payload (the `i64` word of any integer type).
    type Int: Copy + PartialEq + fmt::Debug;
    /// A boolean payload.
    type Bool: Copy + PartialEq + fmt::Debug;
    /// Why an instruction stops short: a trap, or a decision of the
    /// domain (a budget, a fork, a construct it cannot model).
    type Stop: From<Trap> + From<PhiFault>;
    /// Runs before each instruction that is not a φ.
    fn tick(&mut self, stats: &ExecStats) -> Result<(), Self::Stop>;
    /// The storage guard: runs before allocating `elems` elements of
    /// collection storage for a collection that then holds `len`.
    fn guard(&mut self, stats: &ExecStats, elems: u64, len: u64) -> Result<(), Self::Stop>;
    /// Marks a construct the domain may be unable to model (floats,
    /// externs, reference ordering). The answer for a construct must not
    /// change during a run: a function's constant table asks once, on
    /// the function's first entry, and a refused constant is refused
    /// again wherever a path reads it.
    fn refuse(&mut self, what: &'static str) -> Result<(), Self::Stop>;
    /// A constant integer.
    fn int(&mut self, c: i64) -> Self::Int;
    /// A constant boolean.
    fn boolean(&mut self, b: bool) -> Self::Bool;
    /// `x op y` in integer type `ty`: [`BinOp::eval`], truncated to `ty`;
    /// a zero divisor traps [`Trap::DivByZero`].
    fn bin(
        &mut self,
        op: BinOp,
        ty: Type,
        x: Self::Int,
        y: Self::Int,
    ) -> Result<Self::Int, Self::Stop>;
    /// `x op y` for `op` one of `and`, `or`, `xor`.
    fn logic(&mut self, op: BinOp, x: Self::Bool, y: Self::Bool) -> Self::Bool;
    /// [`CmpOp::eval`].
    fn cmp(&mut self, op: CmpOp, unsigned: bool, x: Self::Int, y: Self::Int) -> Self::Bool;
    /// [`Type::truncate`].
    fn trunc(&mut self, ty: Type, x: Self::Int) -> Self::Int;
    /// A boolean as the integer `0` or `1`.
    fn widen(&mut self, b: Self::Bool) -> Self::Int;
    /// Whether an integer is non-zero.
    fn nonzero(&mut self, x: Self::Int) -> Self::Bool;
    /// `c ? x : y` over integers, for a condition [`Domain::known`] cannot
    /// decide.
    fn select(&mut self, c: Self::Bool, x: Self::Int, y: Self::Int) -> Self::Int;
    /// `c ? x : y` over booleans, likewise.
    fn select_bool(&mut self, c: Self::Bool, x: Self::Bool, y: Self::Bool) -> Self::Bool;
    /// A boolean's value, if it is already decided.
    fn known(&self, b: Self::Bool) -> Option<bool>;
    /// The concrete value of an integer that must have one.
    fn resolve(&mut self, x: Self::Int) -> Result<i64, Self::Stop>;
    /// The concrete value of a boolean that must have one.
    fn truth(&mut self, b: Self::Bool) -> Result<bool, Self::Stop>;
}

/// The concrete domain: `i64` and `bool` payloads, and a fuel budget
/// that both instructions (counted by [`ExecStats::insts`]) and
/// collection storage (one unit per element allocated) draw on.
pub(crate) struct Concrete {
    fuel: u64,
}

impl Concrete {
    /// Evaluates `f` on concrete values outside any run, where the
    /// domain's decisions are the identity and never stop.
    pub(crate) fn with<T>(f: impl FnOnce(&mut Concrete) -> Result<T, Trap>) -> T {
        match f(&mut Concrete { fuel: u64::MAX }) {
            Ok(v) => v,
            Err(trap) => unreachable!("concrete decisions never stop: {trap}"),
        }
    }
}

impl Domain for Concrete {
    type Int = i64;
    type Bool = bool;
    type Stop = Trap;

    #[inline]
    fn tick(&mut self, stats: &ExecStats) -> Result<(), Trap> {
        if stats.insts >= self.fuel {
            return Err(Trap::OutOfFuel);
        }
        Ok(())
    }

    #[inline]
    fn guard(&mut self, stats: &ExecStats, elems: u64, _: u64) -> Result<(), Trap> {
        if elems > self.fuel.saturating_sub(stats.insts) {
            return Err(Trap::OutOfFuel);
        }
        self.fuel -= elems;
        Ok(())
    }

    #[inline]
    fn refuse(&mut self, _: &'static str) -> Result<(), Trap> {
        Ok(())
    }

    #[inline]
    fn int(&mut self, c: i64) -> i64 {
        c
    }

    #[inline]
    fn boolean(&mut self, b: bool) -> bool {
        b
    }

    #[inline]
    fn bin(&mut self, op: BinOp, ty: Type, x: i64, y: i64) -> Result<i64, Trap> {
        Ok(ty.truncate(op.eval(x, y).ok_or(Trap::DivByZero)?))
    }

    #[inline]
    fn logic(&mut self, op: BinOp, x: bool, y: bool) -> bool {
        match op {
            BinOp::And => x & y,
            BinOp::Or => x | y,
            _ => x ^ y,
        }
    }

    #[inline]
    fn cmp(&mut self, op: CmpOp, unsigned: bool, x: i64, y: i64) -> bool {
        op.eval(unsigned, x, y)
    }

    #[inline]
    fn trunc(&mut self, ty: Type, x: i64) -> i64 {
        ty.truncate(x)
    }

    #[inline]
    fn widen(&mut self, b: bool) -> i64 {
        b as i64
    }

    #[inline]
    fn nonzero(&mut self, x: i64) -> bool {
        x != 0
    }

    #[inline]
    fn select(&mut self, c: bool, x: i64, y: i64) -> i64 {
        if c {
            x
        } else {
            y
        }
    }

    #[inline]
    fn select_bool(&mut self, c: bool, x: bool, y: bool) -> bool {
        if c {
            x
        } else {
            y
        }
    }

    #[inline]
    fn known(&self, b: bool) -> Option<bool> {
        Some(b)
    }

    #[inline]
    fn resolve(&mut self, x: i64) -> Result<i64, Trap> {
        Ok(x)
    }

    #[inline]
    fn truth(&mut self, b: bool) -> Result<bool, Trap> {
        Ok(b)
    }
}

/// A value over a domain's payloads.
type DVal<D> = Val<<D as Domain>::Int, <D as Domain>::Bool>;

/// A function's constant table: its constants bound in a register file.
type Consts<I, B> = Rc<RegFile<Val<I, B>>>;

/// One call frame: the function, the next instruction, its values.
#[derive(Clone, Debug)]
struct Frame<V> {
    fid: FuncId,
    block: BlockId,
    at: usize,
    regs: RegFile<V>,
}

/// Where control goes after an instruction.
enum Flow {
    /// To the next instruction of the block.
    Next,
    /// To the head of another block.
    Jump(BlockId),
    /// Out of the frame.
    Exit(Exit),
}

/// How a frame's run ends.
enum Exit {
    /// Call `FuncId` with the arguments in `Machine::args`.
    Call(FuncId),
    /// Return the values in `Machine::args`.
    Ret,
}

/// Where an element access lands, found before anything is written.
enum Loc {
    /// A sequence position.
    At(usize),
    /// An associative key.
    Key(Key),
}

/// What an element access does, for [`Machine::locate`]'s checks and
/// the counters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Reads a present, initialized element (a `has` counts as one).
    Read,
    /// Writes an element (any key; an in-range index).
    Write,
    /// Reads a present, initialized element and writes it back.
    Rmw,
    /// Inserts before an index `<= len`, or at any key.
    Insert,
    /// Removes a present element.
    Remove,
}

/// The machine state of one execution — heap, frames and counters —
/// over integer payloads `I` and boolean payloads `B`. [`Interp`] is the
/// concrete instance.
#[derive(Clone)]
pub struct Machine<'m, I, B> {
    module: &'m Module,
    /// The heap.
    pub store: Store<Val<I, B>>,
    /// Accumulated statistics.
    pub stats: ExecStats,
    /// The fuel left to [`Interp::run`].
    fuel: u64,
    /// Adaptive representation choices per allocation site (opt-in via
    /// [`Interp::with_repr_choices`]; affects cost accounting only).
    repr_choices: ReprChoices,
    frames: Vec<Frame<Val<I, B>>>,
    /// Each entered function's constants in this machine's domain, by
    /// [`FuncId`]: built on the function's first entry, copied into each
    /// of its frames. Forks share the tables.
    consts: Vec<Option<Consts<I, B>>>,
    /// Each object type's size in bytes, by [`ObjTypeId`], computed on
    /// first use: object allocations and field accesses are counted by
    /// it.
    obj_sizes: Vec<Option<u64>>,
    /// Scratch for the φ parallel copy at block entry.
    phis: Vec<Val<I, B>>,
    /// Call arguments and return values in flight.
    args: Vec<Val<I, B>>,
}

/// The concrete interpreter.
pub type Interp<'m> = Machine<'m, i64, bool>;

impl<I, B> fmt::Debug for Machine<'_, I, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("module", &self.module.name)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'m> Interp<'m> {
    /// Creates an interpreter over a module with the default fuel budget
    /// (100 million units).
    pub fn new(module: &'m Module) -> Self {
        Machine::fresh(module)
    }

    /// Overrides the fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Enables adaptive-representation cost accounting: collections
    /// allocated at the given sites take their chosen layout, and their
    /// accesses count under it, at its (cheaper) prices. Semantics are
    /// unchanged — only the layout counters and `stats.cost` differ — so
    /// observable outputs are byte-identical to a run without choices.
    pub fn with_repr_choices(mut self, choices: ReprChoices) -> Self {
        self.repr_choices = choices;
        self
    }

    /// Convenience: allocates a sequence in the store from values.
    pub fn alloc_seq(&mut self, elems: Vec<Value>) -> Value {
        Value::Coll(self.store.alloc_coll(Collection::Seq(elems)))
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
        let mut dom = Concrete { fuel: self.fuel };
        self.frames.clear();
        let out = self
            .enter(&mut dom, fid, args)
            .and_then(|()| self.exec(&mut dom));
        self.fuel = dom.fuel;
        self.stats.cost = self.stats.model_cycles() as f64;
        out
    }

    /// Runs a function by name.
    pub fn run_by_name(&mut self, name: &str, args: Vec<Value>) -> Result<Vec<Value>, Trap> {
        let fid = self
            .module
            .func_by_name(name)
            .unwrap_or_else(|| panic!("no function named `{name}`"));
        self.run(fid, args)
    }
}

/// Materializes a constant.
pub fn const_value(c: Constant) -> Value {
    Concrete::with(|dom| konst(dom, c))
}

impl<'m, I, B> Machine<'m, I, B>
where
    I: Copy + PartialEq + fmt::Debug,
    B: Copy + PartialEq + fmt::Debug,
{
    /// A machine with an empty heap and no frames.
    pub fn fresh(module: &'m Module) -> Self {
        Machine {
            module,
            store: Store::default(),
            stats: ExecStats::default(),
            fuel: 100_000_000,
            repr_choices: ReprChoices::default(),
            frames: Vec::new(),
            consts: Vec::new(),
            obj_sizes: Vec::new(),
            phis: Vec::new(),
            args: Vec::new(),
        }
    }

    /// Pushes a frame for `fid` with `args` bound to its parameters,
    /// positioned after the entry block's φ head. Value semantics: by-value
    /// collection arguments of a mut-form function are copies (the MUT
    /// library mirrors C++). SSA-form functions never mutate their
    /// inputs, so the copy is skipped (and ARGφ/RETφ flow returns updated
    /// collections explicitly).
    pub fn enter<D: Domain<Int = I, Bool = B>>(
        &mut self,
        dom: &mut D,
        fid: FuncId,
        mut args: Vec<Val<I, B>>,
    ) -> Result<(), D::Stop> {
        let module = self.module;
        let f = &module.funcs[fid];
        self.count_call();
        if f.form == memoir_ir::Form::Mut {
            for (p, a) in f.params.iter().zip(args.iter_mut()) {
                if let (false, Val::Coll(c)) = (p.by_ref, &*a) {
                    *a = Val::Coll(self.copy_coll(dom, *c)?);
                }
            }
        }
        let mut regs = self.frame_regs(dom, fid, f);
        for (i, &pv) in f.param_values.iter().enumerate() {
            let a = args.get(i).copied();
            regs.set(pv, a.ok_or(Trap::TypeConfusion("missing argument"))?);
        }
        let at = self.enter_block(dom, f, None, f.entry, &mut regs)?;
        self.frames.push(Frame {
            fid,
            block: f.entry,
            at,
            regs,
        });
        Ok(())
    }

    /// A register file for a new frame of `fid`: a copy of the function's
    /// constant table, which the function's first entry builds. Each
    /// constant is materialized once per machine instead of at every
    /// read. A constant the domain refuses (a float in the symbolic
    /// domain) stays out of the table, so only a path that reads it is
    /// refused.
    fn frame_regs<D: Domain<Int = I, Bool = B>>(
        &mut self,
        dom: &mut D,
        fid: FuncId,
        f: &Function,
    ) -> RegFile<Val<I, B>> {
        let i = fid.index();
        if i >= self.consts.len() {
            self.consts.resize(i + 1, None);
        }
        let table = self.consts[i].get_or_insert_with(|| {
            let mut table = RegFile::new(f);
            for (v, value) in f.values.iter() {
                if let ValueDef::Const(c) = value.def {
                    if let Ok(x) = konst(dom, c) {
                        table.set(v, x);
                    }
                }
            }
            Rc::new(table)
        });
        RegFile::clone(table)
    }

    /// The size of object type `obj`, computed once per machine.
    fn object_size(&mut self, obj: ObjTypeId) -> u64 {
        let i = obj.index();
        if i >= self.obj_sizes.len() {
            self.obj_sizes.resize(i + 1, None);
        }
        let types = &self.module.types;
        *self.obj_sizes[i].get_or_insert_with(|| types.object_layout(obj).size)
    }

    /// Runs the frame stack until the bottom frame returns, and returns
    /// its values. On a stop, the top frame stays at the instruction that
    /// stopped, so a copy of the machine can run it again.
    pub fn exec<D: Domain<Int = I, Bool = B>>(
        &mut self,
        dom: &mut D,
    ) -> Result<Vec<Val<I, B>>, D::Stop> {
        let module = self.module;
        loop {
            let top = self.frames.last_mut().expect("a frame to run");
            let (fid, mut block, mut at) = (top.fid, top.block, top.at);
            let mut regs = std::mem::replace(&mut top.regs, RegFile::empty());
            let f = &module.funcs[fid];
            let exit = self.run_frame(dom, fid, f, &mut regs, &mut block, &mut at);
            let top = self.frames.last_mut().expect("the running frame");
            (top.regs, top.block, top.at) = (regs, block, at);
            match exit? {
                Exit::Call(callee) => {
                    let args = std::mem::take(&mut self.args);
                    self.enter(dom, callee, args)?;
                }
                Exit::Ret => {
                    self.frames.pop();
                    let Some(caller) = self.frames.last_mut() else {
                        return Ok(std::mem::take(&mut self.args));
                    };
                    let cf = &module.funcs[caller.fid];
                    let call = cf.blocks[caller.block].insts[caller.at];
                    for (&r, v) in cf.insts[call].results.iter().zip(self.args.drain(..)) {
                        caller.regs.set(r, v);
                    }
                    caller.at += 1;
                }
            }
        }
    }

    /// Runs `f` from `(block, at)` until it calls or returns; jumps move
    /// `block` and `at` along. A block's instructions run in an inner
    /// loop over its slice; `at` is written back only when the frame stops
    /// running.
    #[inline(always)]
    fn run_frame<D: Domain<Int = I, Bool = B>>(
        &mut self,
        dom: &mut D,
        fid: FuncId,
        f: &'m Function,
        regs: &mut RegFile<Val<I, B>>,
        block: &mut BlockId,
        at: &mut usize,
    ) -> Result<Exit, D::Stop> {
        loop {
            let insts = &f.blocks[*block].insts;
            let start = (*at).min(insts.len());
            let mut target = None;
            for (i, &iid) in insts[start..].iter().enumerate() {
                match self.step(dom, fid, f, regs, iid) {
                    Ok(Flow::Next) => {}
                    Ok(Flow::Jump(b)) => {
                        target = Some(b);
                        break;
                    }
                    Ok(Flow::Exit(exit)) => {
                        *at = start + i;
                        return Ok(exit);
                    }
                    Err(stop) => {
                        *at = start + i;
                        return Err(stop);
                    }
                }
            }
            let Some(target) = target else {
                return Err(Trap::TypeConfusion("block fell through").into());
            };
            *at = self.enter_block(dom, f, Some(*block), target, regs)?;
            *block = target;
        }
    }

    /// Executes one instruction other than a φ.
    #[inline(always)]
    fn step<D: Domain<Int = I, Bool = B>>(
        &mut self,
        dom: &mut D,
        fid: FuncId,
        f: &'m Function,
        regs: &mut RegFile<Val<I, B>>,
        iid: InstId,
    ) -> Result<Flow, D::Stop> {
        use InstKind::*;
        let module: &'m Module = self.module;
        let types = &module.types;
        dom.tick(&self.stats)?;
        let inst = &f.insts[iid];
        let ev = |dom: &mut D, v| eval(dom, f, regs, v);
        let out: Val<I, B> = match inst.kind {
            Bin { op, lhs, rhs } => {
                self.count_scalar();
                let (a, b) = (ev(dom, lhs)?, ev(dom, rhs)?);
                exec_bin(dom, op, a, b)?
            }
            Cmp { op, lhs, rhs } => {
                self.count_scalar();
                let (a, b) = (ev(dom, lhs)?, ev(dom, rhs)?);
                exec_cmp(dom, op, a, b)?
            }
            Cast { to, value } => {
                self.count_scalar();
                let v = ev(dom, value)?;
                exec_cast(dom, types.get(to), v)?
            }
            Select {
                cond,
                then_value,
                else_value,
            } => {
                self.count_scalar();
                let Val::Bool(c) = ev(dom, cond)? else {
                    return Err(Trap::TypeConfusion("select").into());
                };
                match dom.known(c) {
                    Some(c) => ev(dom, if c { then_value } else { else_value })?,
                    None => match (ev(dom, then_value)?, ev(dom, else_value)?) {
                        (Val::Int(t, x), Val::Int(_, y)) => Val::Int(t, dom.select(c, x, y)),
                        (Val::Bool(x), Val::Bool(y)) => Val::Bool(dom.select_bool(c, x, y)),
                        // Selecting between heap values needs a
                        // decided condition.
                        (tv, evv) => {
                            if dom.truth(c)? {
                                tv
                            } else {
                                evv
                            }
                        }
                    },
                }
            }
            Phi { .. } => return Err(Trap::TypeConfusion("phi outside block head").into()),
            Call { callee, ref args } => {
                self.args.clear();
                for &a in args {
                    let v = ev(dom, a)?;
                    self.args.push(v);
                }
                match callee {
                    Callee::Func(callee) => return Ok(Flow::Exit(Exit::Call(callee))),
                    Callee::Extern(eid) => {
                        dom.refuse("extern call")?;
                        self.count_call();
                        let name = module.externs[eid].name.clone();
                        return Err(Trap::UnknownExtern(name).into());
                    }
                }
            }
            Jump { target } => {
                self.count_scalar();
                return Ok(Flow::Jump(target));
            }
            Branch {
                cond,
                then_target,
                else_target,
            } => {
                self.count_scalar();
                let Val::Bool(c) = ev(dom, cond)? else {
                    return Err(Trap::TypeConfusion("branch").into());
                };
                return Ok(Flow::Jump(if dom.truth(c)? {
                    then_target
                } else {
                    else_target
                }));
            }
            Ret { ref values } => {
                self.args.clear();
                for &v in values {
                    let v = ev(dom, v)?;
                    self.args.push(v);
                }
                return Ok(Flow::Exit(Exit::Ret));
            }
            Unreachable => return Err(Trap::Unreachable.into()),

            NewSeq { len, .. } => {
                let n = index_arg(dom, f, regs, len)?;
                dom.guard(&self.stats, n, n)?;
                let id = self
                    .store
                    .alloc_coll(Collection::Seq(vec![Val::Uninit; n as usize]));
                self.count_alloc(id);
                self.tag_repr((fid, iid), id);
                Val::Coll(id)
            }
            NewAssoc { .. } => {
                let id = self.store.alloc_coll(Collection::new_assoc());
                self.count_alloc(id);
                self.tag_repr((fid, iid), id);
                Val::Coll(id)
            }
            NewObj { obj } => {
                self.stats.allocations += 1;
                self.stats.bytes_allocated += self.object_size(obj) + 16;
                let nfields = types.object(obj).fields.len();
                Val::Ref(obj, Some(self.store.alloc_obj(obj, nfields)))
            }
            DeleteObj { obj } => {
                self.count_scalar();
                let Val::Ref(_, Some(id)) = ev(dom, obj)? else {
                    return Err(Trap::BadReference.into());
                };
                self.store.obj_mut(id).fields = None;
                return Ok(Flow::Next);
            }

            Read { c, idx } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let iv = ev(dom, idx)?;
                let (_, x) = self.locate(dom, cid, iv, Access::Read)?;
                self.count_access(cid, Access::Read);
                x
            }
            Write { c, idx, value } | MutWrite { c, idx, value } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let (iv, vv) = (ev(dom, idx)?, ev(dom, value)?);
                let (loc, _) = self.locate(dom, cid, iv, Access::Write)?;
                let t = self.target(dom, cid, matches!(inst.kind, Write { .. }))?;
                self.put(t, loc, vv, Access::Write);
                Val::Coll(t)
            }
            Rmw { c, idx, op, value } | MutRmw { c, idx, op, value } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let (iv, vv) = (ev(dom, idx)?, ev(dom, value)?);
                let (loc, old) = self.locate(dom, cid, iv, Access::Rmw)?;
                let new = exec_bin(dom, op, old, vv)?;
                let t = self.target(dom, cid, matches!(inst.kind, Rmw { .. }))?;
                self.put(t, loc, new, Access::Rmw);
                Val::Coll(t)
            }
            Insert { c, idx, value } | MutInsert { c, idx, value } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let iv = ev(dom, idx)?;
                let vv = match value {
                    Some(v) => ev(dom, v)?,
                    None => Val::Uninit,
                };
                let (loc, _) = self.locate(dom, cid, iv, Access::Insert)?;
                let t = self.target(dom, cid, matches!(inst.kind, Insert { .. }))?;
                let len = self.store.coll(t).len() as u64;
                dom.guard(&self.stats, 1, len + 1)?;
                self.insert_at(t, loc, vv);
                Val::Coll(t)
            }
            InsertSeq { c, idx, src } | MutInsertSeq { c, idx, src } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let i = index_arg(dom, f, regs, idx)?;
                let sid = coll_arg(dom, f, regs, src)?;
                let t = self.target(dom, cid, matches!(inst.kind, InsertSeq { .. }))?;
                self.splice(dom, t, i, sid)?;
                Val::Coll(t)
            }
            MutAppend { c, src } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let at = self.store.coll(cid).len() as u64;
                let sid = coll_arg(dom, f, regs, src)?;
                self.splice(dom, cid, at, sid)?;
                Val::Coll(cid)
            }
            Remove { c, idx } | MutRemove { c, idx } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let iv = ev(dom, idx)?;
                let (loc, _) = self.locate(dom, cid, iv, Access::Remove)?;
                let t = self.target(dom, cid, matches!(inst.kind, Remove { .. }))?;
                self.remove_at(t, loc);
                Val::Coll(t)
            }
            RemoveRange { c, from, to } | MutRemoveRange { c, from, to } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let a = index_arg(dom, f, regs, from)?;
                let b = index_arg(dom, f, regs, to)?;
                let t = self.target(dom, cid, matches!(inst.kind, RemoveRange { .. }))?;
                let elems = self
                    .store
                    .seq_mut(t)
                    .ok_or(Trap::TypeConfusion("remove.range on assoc"))?;
                let len = elems.len() as u64;
                if a > b || b > len {
                    return Err(Trap::OutOfRange { index: b, len }.into());
                }
                elems.drain(a as usize..b as usize);
                self.stats.elements_moved += len - b;
                Val::Coll(t)
            }
            Copy { c } => {
                let cid = coll_arg(dom, f, regs, c)?;
                Val::Coll(self.copy_coll(dom, cid)?)
            }
            CopyRange { c, from, to } | MutSplit { c, from, to } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let a = index_arg(dom, f, regs, from)?;
                let b = index_arg(dom, f, regs, to)?;
                let split = matches!(inst.kind, MutSplit { .. });
                let len =
                    self.store
                        .seq(cid)
                        .map(|e| e.len() as u64)
                        .ok_or(Trap::TypeConfusion(if split {
                            "split on assoc"
                        } else {
                            "copy.range on assoc"
                        }))?;
                if a > b || b > len {
                    return Err(Trap::OutOfRange { index: b, len }.into());
                }
                dom.guard(&self.stats, b - a, b - a)?;
                let range = a as usize..b as usize;
                let part = if split {
                    self.store.seq_mut(cid).map(|e| e.drain(range).collect())
                } else {
                    self.store.seq(cid).map(|e| e[range].to_vec())
                };
                let part = part.unwrap_or_default();
                let id = self.store.alloc_coll(Collection::Seq(part));
                self.stats.collection_copies += 1;
                // A split also shifts the tail down.
                self.stats.elements_moved += if split { len - a } else { b - a };
                self.count_alloc(id);
                Val::Coll(id)
            }
            Swap { c, from, to, at: k } | MutSwap { c, from, to, at: k } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let a = index_arg(dom, f, regs, from)?;
                let b = index_arg(dom, f, regs, to)?;
                let k = index_arg(dom, f, regs, k)?;
                let t = self.target(dom, cid, matches!(inst.kind, Swap { .. }))?;
                self.swap_ranges(t, a, b, k)?;
                Val::Coll(t)
            }
            Swap2 {
                a,
                from,
                to,
                b,
                at: k,
            }
            | MutSwap2 {
                a,
                from,
                to,
                b,
                at: k,
            } => {
                let aid = coll_arg(dom, f, regs, a)?;
                let bid = coll_arg(dom, f, regs, b)?;
                let x = index_arg(dom, f, regs, from)?;
                let y = index_arg(dom, f, regs, to)?;
                let k = index_arg(dom, f, regs, k)?;
                let ssa = matches!(inst.kind, Swap2 { .. });
                let ta = self.target(dom, aid, ssa)?;
                let tb = self.target(dom, bid, ssa)?;
                self.swap_across(ta, tb, x, y, k)?;
                for (&r, v) in inst.results.iter().zip([Val::Coll(ta), Val::Coll(tb)]) {
                    regs.set(r, v);
                }
                return Ok(Flow::Next);
            }
            Size { c } => {
                self.count_scalar();
                let cid = coll_arg(dom, f, regs, c)?;
                Val::Int(Type::Index, dom.int(self.store.coll(cid).len() as i64))
            }
            Has { c, key } => {
                let cid = coll_arg(dom, f, regs, c)?;
                self.count_access(cid, Access::Read);
                let kv = ev(dom, key)?;
                let k = key_of(dom, kv)?.ok_or(Trap::TypeConfusion("bad key"))?;
                let Collection::Assoc { map, .. } = self.store.coll(cid) else {
                    return Err(Trap::TypeConfusion("has on sequence").into());
                };
                let present = map.contains_key(&k);
                Val::Bool(dom.boolean(present))
            }
            Keys { c } => {
                let cid = coll_arg(dom, f, regs, c)?;
                let key_ty = match types.get(f.value_ty(c)) {
                    Type::Assoc(k, _) => types.get(k),
                    _ => return Err(Trap::TypeConfusion("keys on sequence").into()),
                };
                let Collection::Assoc { order, map } = self.store.coll(cid) else {
                    return Err(Trap::TypeConfusion("keys on sequence").into());
                };
                let n = map.len() as u64;
                dom.guard(&self.stats, n, n)?;
                let elems: Vec<_> = order
                    .iter()
                    .filter(|k| map.contains_key(k))
                    .map(|k| key_value(dom, k, key_ty))
                    .collect();
                let id = self.store.alloc_coll(Collection::Seq(elems));
                self.stats.collection_copies += 1;
                self.stats.elements_moved += n;
                self.count_alloc(id);
                Val::Coll(id)
            }
            UsePhi { c } => {
                self.count_scalar();
                ev(dom, c)?
            }
            FieldRead { obj, obj_ty, field } => {
                self.count_field_op(obj_ty);
                let Val::Ref(_, Some(id)) = ev(dom, obj)? else {
                    return Err(Trap::BadReference.into());
                };
                let fields = self.store.obj(id).fields.as_ref();
                let fv = fields.ok_or(Trap::BadReference)?[field as usize];
                if matches!(fv, Val::Uninit) {
                    return Err(Trap::ReadUninit.into());
                }
                fv
            }
            FieldWrite {
                obj,
                obj_ty,
                field,
                value,
            } => {
                self.count_field_op(obj_ty);
                let (v, fv) = (ev(dom, obj)?, ev(dom, value)?);
                let Val::Ref(_, Some(id)) = v else {
                    return Err(Trap::BadReference.into());
                };
                let fields = self.store.obj_mut(id).fields.as_mut();
                fields.ok_or(Trap::BadReference)?[field as usize] = fv;
                return Ok(Flow::Next);
            }
        };
        // A result-less instruction (a mut-form update) discards its
        // value.
        if let Some(&r) = inst.results.first() {
            regs.set(r, out);
        }
        Ok(Flow::Next)
    }

    /// Enters `target` from `pred`, running its φ head (each φ counts as
    /// a scalar instruction), and returns the position after it.
    fn enter_block<D: Domain<Int = I, Bool = B>>(
        &mut self,
        dom: &mut D,
        f: &Function,
        pred: Option<BlockId>,
        target: BlockId,
        regs: &mut RegFile<Val<I, B>>,
    ) -> Result<usize, D::Stop> {
        let stats = &mut self.stats;
        enter_block(f, pred, target, regs, &mut self.phis, |regs, v| {
            let x = eval(dom, f, regs, v)?;
            stats.insts += 1;
            stats.scalars += 1;
            Ok(x)
        })
    }

    /// Counts a scalar or control instruction.
    #[inline(always)]
    fn count_scalar(&mut self) {
        self.stats.insts += 1;
        self.stats.scalars += 1;
    }

    /// Counts a call.
    fn count_call(&mut self) {
        self.stats.insts += 1;
        self.stats.calls += 1;
    }

    /// Counts a field access to an object of type `obj`.
    #[inline]
    fn count_field_op(&mut self, obj: ObjTypeId) {
        let lines = self.object_size(obj).div_ceil(64);
        self.stats.insts += 1;
        self.stats.field_ops += 1;
        self.stats.field_lines += lines;
    }

    /// Counts an element access to collection `cid` under its layout.
    #[inline(always)]
    fn count_access(&mut self, cid: CollId, access: Access) {
        let layout = self.store.layout(cid);
        let s = &mut self.stats;
        s.insts += 1;
        if layout == Layout::Hashed {
            s.assoc_ops += 1;
        } else {
            s.seq_reads += matches!(access, Access::Read | Access::Rmw) as u64;
            s.seq_writes += (access != Access::Read) as u64;
        }
        *match (layout, access) {
            (Layout::Hashed, Access::Read | Access::Remove) => &mut s.assoc_lookups,
            (Layout::Hashed, Access::Rmw) => &mut s.assoc_rmws,
            (Layout::Hashed, _) => &mut s.assoc_stores,
            (Layout::Dense, Access::Rmw) => &mut s.dense_rmws,
            (Layout::Dense, _) => &mut s.dense_accesses,
            (_, Access::Rmw) => &mut s.seq_rmws,
            (Layout::Inline, Access::Read | Access::Write) => &mut s.inline_accesses,
            _ => &mut s.seq_accesses,
        } += 1;
    }

    /// Lays a collection allocated at `site` out as the site's adaptive
    /// representation choice says, if it has one.
    fn tag_repr(&mut self, site: (FuncId, InstId), id: CollId) {
        if let Some(&r) = self.repr_choices.get(&site) {
            self.store.set_layout(id, r);
        }
    }

    /// Counts the allocation of collection `id`.
    fn count_alloc(&mut self, id: CollId) {
        let c = self.store.coll(id);
        self.stats.allocations += 1;
        self.stats.elements_reserved += c.len() as u64;
        self.stats.bytes_allocated += match c {
            Collection::Seq(v) => 32 + 8 * v.len() as u64,
            Collection::Assoc { map, .. } => 48 + 24 * map.len() as u64,
        };
    }

    /// A value copy of collection `cid`, counted as one.
    fn copy_coll<D: Domain<Int = I, Bool = B>>(
        &mut self,
        dom: &mut D,
        cid: CollId,
    ) -> Result<CollId, D::Stop> {
        let n = self.store.coll(cid).len() as u64;
        dom.guard(&self.stats, n, n)?;
        let (copy, n) = self.store.clone_coll(cid);
        self.stats.collection_copies += 1;
        self.stats.elements_moved += n as u64;
        self.count_alloc(copy);
        Ok(copy)
    }

    /// The collection an update writes: a copy of `cid` for an SSA-form
    /// update, `cid` itself for a mut-form one.
    fn target<D: Domain<Int = I, Bool = B>>(
        &mut self,
        dom: &mut D,
        cid: CollId,
        ssa: bool,
    ) -> Result<CollId, D::Stop> {
        if ssa {
            self.copy_coll(dom, cid)
        } else {
            Ok(cid)
        }
    }

    /// Where `access` through `idx` lands in collection `cid`, with the
    /// element there ([`Val::Uninit`] where there is none), or the trap
    /// it raises; resolves the index or key (possibly forking) before
    /// anything is written. An associative map is probed once, and only
    /// by the accesses that need the element or its presence.
    fn locate<D: Domain<Int = I, Bool = B>>(
        &self,
        dom: &mut D,
        cid: CollId,
        idx: Val<I, B>,
        access: Access,
    ) -> Result<(Loc, Val<I, B>), D::Stop> {
        match self.store.coll(cid) {
            Collection::Seq(elems) => {
                let i = as_index(dom, idx)?.ok_or(Trap::TypeConfusion("seq index"))?;
                let len = elems.len() as u64;
                let fits = if access == Access::Insert {
                    i <= len
                } else {
                    i < len
                };
                if !fits {
                    return Err(Trap::OutOfRange { index: i, len }.into());
                }
                let x = elems.get(i as usize).copied().unwrap_or(Val::Uninit);
                if matches!(access, Access::Read | Access::Rmw) && matches!(x, Val::Uninit) {
                    return Err(Trap::ReadUninit.into());
                }
                Ok((Loc::At(i as usize), x))
            }
            Collection::Assoc { map, .. } => {
                let k = key_of(dom, idx)?.ok_or(Trap::TypeConfusion("bad key"))?;
                if matches!(access, Access::Write | Access::Insert) {
                    return Ok((Loc::Key(k), Val::Uninit));
                }
                match (access, map.get(&k).copied()) {
                    (_, None) => Err(Trap::MissingKey.into()),
                    (Access::Read | Access::Rmw, Some(Val::Uninit)) => Err(Trap::ReadUninit.into()),
                    (_, Some(x)) => Ok((Loc::Key(k), x)),
                }
            }
        }
    }

    /// Stores `v` at a located position and counts the `access` (a
    /// write, an `rmw`, or an insert into an assoc).
    fn put(&mut self, cid: CollId, loc: Loc, v: Val<I, B>, access: Access) {
        match (self.store.coll_mut(cid), loc) {
            (Collection::Seq(elems), Loc::At(i)) => elems[i] = v,
            (Collection::Assoc { map, order }, Loc::Key(k)) => {
                if map.insert(k.clone(), v).is_none() {
                    order.push(k);
                }
            }
            _ => unreachable!("location shape"),
        }
        self.count_access(cid, access);
    }

    /// Inserts `v` at a located position, counting the insertion.
    fn insert_at(&mut self, cid: CollId, loc: Loc, v: Val<I, B>) {
        let Loc::At(i) = loc else {
            return self.put(cid, loc, v, Access::Insert);
        };
        if let Some(elems) = self.store.seq_mut(cid) {
            let len = elems.len();
            elems.insert(i, v);
            self.count_access(cid, Access::Insert);
            self.stats.elements_moved += (len - i) as u64;
        }
    }

    /// Removes the element at a located position, counting the removal.
    fn remove_at(&mut self, cid: CollId, loc: Loc) {
        match (self.store.coll_mut(cid), loc) {
            (Collection::Seq(elems), Loc::At(i)) => {
                let len = elems.len();
                elems.remove(i);
                self.stats.elements_moved += (len - i - 1) as u64;
            }
            (Collection::Assoc { map, order }, Loc::Key(k)) => {
                map.remove(&k);
                order.retain(|x| x != &k);
            }
            _ => unreachable!("location shape"),
        }
        self.count_access(cid, Access::Remove);
    }

    /// Inserts sequence `src` into sequence `dst` before position `at`.
    fn splice<D: Domain<Int = I, Bool = B>>(
        &mut self,
        dom: &mut D,
        dst: CollId,
        at: u64,
        src: CollId,
    ) -> Result<(), D::Stop> {
        let n = self
            .store
            .seq(src)
            .ok_or(Trap::TypeConfusion("splice from assoc"))?
            .len() as u64;
        let len = self
            .store
            .seq(dst)
            .ok_or(Trap::TypeConfusion("splice into assoc"))?
            .len() as u64;
        if at > len {
            return Err(Trap::OutOfRange { index: at, len }.into());
        }
        dom.guard(&self.stats, n, len + n)?;
        let src_elems = self.store.seq(src).map(<[_]>::to_vec).unwrap_or_default();
        if let Some(elems) = self.store.seq_mut(dst) {
            elems.splice(at as usize..at as usize, src_elems);
        }
        self.stats.elements_moved += n + len - at;
        Ok(())
    }

    fn swap_ranges(&mut self, cid: CollId, from: u64, to: u64, at: u64) -> Result<(), Trap> {
        let elems = self
            .store
            .seq_mut(cid)
            .ok_or(Trap::TypeConfusion("swap on assoc"))?;
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
        self.stats.elements_moved += 2 * width;
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
        let [Collection::Seq(ea), Collection::Seq(eb)] = self.store.colls_mut(a, b) else {
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
        self.stats.elements_moved += 2 * width;
        Ok(())
    }
}

/// A constant's value.
fn konst<D: Domain>(dom: &mut D, c: Constant) -> Result<DVal<D>, D::Stop> {
    Ok(match c {
        Constant::Int(ty, v) => Val::Int(ty, dom.int(v)),
        Constant::Float(ty, bits) => {
            dom.refuse("float constant")?;
            Val::Float(ty, f64::from_bits(bits))
        }
        Constant::Bool(b) => Val::Bool(dom.boolean(b)),
        Constant::Null(obj) => Val::Ref(obj, None),
    })
}

/// An operand's value: one register read, constants included (a frame's
/// registers start from its function's constant table).
#[inline(always)]
fn eval<D: Domain>(
    dom: &mut D,
    f: &Function,
    regs: &RegFile<DVal<D>>,
    v: ValueId,
) -> Result<DVal<D>, D::Stop> {
    match regs.get(v) {
        Some(x) => Ok(x),
        None => Err(unbound(dom, f, v)),
    }
}

/// Why a register is empty: it holds a constant the domain refused when
/// the table was built, refused again now that a path reaches it, or a
/// value read before its definition (or no value of `f` at all). The
/// hot path never merges with this one, so an operand read stays a
/// register load.
#[cold]
#[inline(never)]
fn unbound<D: Domain>(dom: &mut D, f: &Function, v: ValueId) -> D::Stop {
    if v.index() < f.values.len() {
        if let ValueDef::Const(c) = f.values[v].def {
            if let Err(stop) = konst(dom, c) {
                return stop;
            }
        }
    }
    Trap::TypeConfusion("unbound value").into()
}

#[inline(always)]
fn coll_arg<D: Domain>(
    dom: &mut D,
    f: &Function,
    regs: &RegFile<DVal<D>>,
    v: ValueId,
) -> Result<CollId, D::Stop> {
    let c = eval(dom, f, regs, v)?.as_coll();
    Ok(c.ok_or(Trap::TypeConfusion("expected collection"))?)
}

#[inline(always)]
fn index_arg<D: Domain>(
    dom: &mut D,
    f: &Function,
    regs: &RegFile<DVal<D>>,
    v: ValueId,
) -> Result<u64, D::Stop> {
    let v = eval(dom, f, regs, v)?;
    Ok(as_index(dom, v)?.ok_or(Trap::TypeConfusion("expected index"))?)
}

/// An index payload over a domain: an `index` payload, or any other
/// non-negative integer.
pub(crate) fn as_index<D: Domain>(dom: &mut D, v: DVal<D>) -> Result<Option<u64>, D::Stop> {
    Ok(match v {
        Val::Int(Type::Index, x) => Some(dom.resolve(x)? as u64),
        Val::Int(_, x) => {
            let x = dom.resolve(x)?;
            (x >= 0).then_some(x as u64)
        }
        _ => None,
    })
}

/// The key form of a value over a domain.
pub(crate) fn key_of<D: Domain>(dom: &mut D, v: DVal<D>) -> Result<Option<Key>, D::Stop> {
    Ok(match v {
        Val::Int(_, x) => Some(Key::Int(dom.resolve(x)?)),
        Val::Bool(b) => Some(Key::Bool(dom.truth(b)?)),
        Val::Ref(_, o) => Some(Key::Ref(o)),
        Val::Float(_, x) => Some(Key::Float(x.to_bits())),
        Val::Ptr(p) => Some(Key::Ptr(p)),
        Val::Coll(_) | Val::Uninit => None,
    })
}

/// [`Key::to_value`] over a domain.
fn key_value<D: Domain>(dom: &mut D, k: &Key, ty: Type) -> DVal<D> {
    match Key::to_value(k, ty) {
        Value::Int(t, x) => Val::Int(t, dom.int(x)),
        Value::Bool(b) => Val::Bool(dom.boolean(b)),
        Value::Float(t, x) => Val::Float(t, x),
        Value::Ref(t, o) => Val::Ref(t, o),
        Value::Ptr(p) => Val::Ptr(p),
        Value::Coll(c) => Val::Coll(c),
        Value::Uninit => Val::Uninit,
    }
}

/// `a op b`: integers inline, the other operand kinds out of line.
#[inline(always)]
fn exec_bin<D: Domain>(dom: &mut D, op: BinOp, a: DVal<D>, b: DVal<D>) -> Result<DVal<D>, D::Stop> {
    match (a, b) {
        (Val::Int(ta, x), Val::Int(_, y)) => Ok(Val::Int(ta, dom.bin(op, ta, x, y)?)),
        _ => exec_bin_other(dom, op, a, b),
    }
}

#[inline(never)]
fn exec_bin_other<D: Domain>(
    dom: &mut D,
    op: BinOp,
    a: DVal<D>,
    b: DVal<D>,
) -> Result<DVal<D>, D::Stop> {
    Ok(match (a, b) {
        (Val::Float(ta, x), Val::Float(_, y)) => Val::Float(
            ta,
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => return Err(Trap::TypeConfusion("bitwise op on float").into()),
            },
        ),
        (Val::Bool(x), Val::Bool(y)) => match op {
            BinOp::And | BinOp::Or | BinOp::Xor => Val::Bool(dom.logic(op, x, y)),
            _ => return Err(Trap::TypeConfusion("arith on bool").into()),
        },
        _ => return Err(Trap::TypeConfusion("bin operand types").into()),
    })
}

/// `a op b`: integers inline, the other operand kinds out of line.
#[inline(always)]
fn exec_cmp<D: Domain>(dom: &mut D, op: CmpOp, a: DVal<D>, b: DVal<D>) -> Result<DVal<D>, D::Stop> {
    match (a, b) {
        (Val::Int(ta, x), Val::Int(_, y)) => Ok(Val::Bool(dom.cmp(op, ta.is_unsigned(), x, y))),
        _ => exec_cmp_other(dom, op, a, b),
    }
}

#[inline(never)]
fn exec_cmp_other<D: Domain>(
    dom: &mut D,
    op: CmpOp,
    a: DVal<D>,
    b: DVal<D>,
) -> Result<DVal<D>, D::Stop> {
    let holds = match (a, b) {
        (Val::Bool(x), Val::Bool(y)) => {
            // Booleans compare as 0/1 with signed order.
            let (x, y) = (dom.widen(x), dom.widen(y));
            return Ok(Val::Bool(dom.cmp(op, false, x, y)));
        }
        (Val::Float(_, x), Val::Float(_, y)) => match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        },
        (Val::Ref(_, x), Val::Ref(_, y)) => {
            // Identity is the same in every domain; the order between
            // allocations is the concrete store's own.
            if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
                dom.refuse("reference ordering")?;
            }
            op.holds(x.cmp(&y))
        }
        (Val::Ptr(x), Val::Ptr(y)) => op.holds(x.cmp(&y)),
        _ => return Err(Trap::TypeConfusion("cmp operand types").into()),
    };
    Ok(Val::Bool(dom.boolean(holds)))
}

fn exec_cast<D: Domain>(dom: &mut D, to: Type, v: DVal<D>) -> Result<DVal<D>, D::Stop> {
    Ok(match (to, v) {
        (t, Val::Int(_, x)) if t.is_integer() => Val::Int(t, dom.trunc(t, x)),
        (t, Val::Int(_, x)) if t.is_float() => {
            dom.refuse("float cast")?;
            Val::Float(t, dom.resolve(x)? as f64)
        }
        (t, Val::Float(_, x)) if t.is_integer() => Val::Int(t, dom.int(t.truncate(x as i64))),
        (t, Val::Float(_, x)) if t.is_float() => Val::Float(t, x),
        (t, Val::Bool(b)) if t.is_integer() => Val::Int(t, dom.widen(b)),
        (Type::Bool, Val::Int(_, x)) => Val::Bool(dom.nonzero(x)),
        _ => return Err(Trap::TypeConfusion("cast").into()),
    })
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
    fn extern_call_traps_unknown_extern() {
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
        assert_eq!(
            Interp::new(&m).run_by_name("main", vec![]),
            Err(Trap::UnknownExtern("double_it".into()))
        );
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
