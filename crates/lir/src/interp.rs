//! The executor of the low-level IR, generic over its value domain.
//!
//! Memory is a flat, word-addressed array grown by a bump allocator
//! (`free` is a no-op — lifetimes are measured at the MEMOIR level).
//! Opaque runtime routines (`rt_*`) are implemented by the host: sequence
//! helpers manipulate the same linear memory (their data is visible to
//! `load`/`store`), while associative arrays live in host tables —
//! mirroring a real libc++ `unordered_map` being opaque to the compiler
//! *and* to this paper's analyses.
//!
//! [`Machine`] states this semantics once, over any [`Domain`] of words.
//! [`LirMachine`] runs it on concrete `i64` words under a fuel budget;
//! `symexec`'s path enumerator runs it on symbolic terms, resolving each
//! word that must be concrete (an address, a length, a key, a handle, an
//! rmw opcode, a branch condition) by pinning or forking. Frames live on
//! an explicit stack, so call depth costs heap, not host stack.

use crate::ir::{BinOp, Blk, CmpOp, Fun, Function, Ins, Module, Op, Val};
use crate::regs::{enter_block, PhiFault, RegFile};
use std::collections::HashMap;
use std::fmt;

/// Execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LirTrap {
    /// Division by zero.
    DivByZero,
    /// Address out of the allocated range.
    BadAddress(i64),
    /// Missing associative key.
    MissingKey,
    /// Fuel exhausted.
    OutOfFuel,
    /// Unknown runtime routine.
    UnknownRt(String),
    /// Malformed block (no terminator / φ misuse).
    Malformed(&'static str),
}

impl fmt::Display for LirTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LirTrap::DivByZero => write!(f, "division by zero"),
            LirTrap::BadAddress(a) => write!(f, "bad address {a}"),
            LirTrap::MissingKey => write!(f, "missing key"),
            LirTrap::OutOfFuel => write!(f, "out of fuel"),
            LirTrap::UnknownRt(n) => write!(f, "unknown runtime routine `{n}`"),
            LirTrap::Malformed(m) => write!(f, "malformed function: {m}"),
        }
    }
}

impl std::error::Error for LirTrap {}

impl From<PhiFault> for LirTrap {
    fn from(fault: PhiFault) -> Self {
        LirTrap::Malformed(match fault {
            PhiFault::NoPred => "phi in entry",
            PhiFault::MissingIncoming => "phi missing incoming",
        })
    }
}

/// Execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LirStats {
    /// Instructions executed.
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Runtime calls executed.
    pub rt_calls: u64,
}

/// An operation of the executor's ALU: an [`Op::Bin`] operation, or one
/// of the `min` / `max` that only `rt_assoc_rmw` opcodes reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alu {
    /// An [`Op::Bin`] operation.
    Bin(BinOp),
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

impl Alu {
    /// Decodes an `rt_assoc_rmw` opcode (the integer encoding of
    /// `memoir_ir::BinOp` emitted by `memoir-lower`): `0`=add `1`=sub
    /// `2`=mul `3`=div `4`=rem `5`=and `6`=or `7`=xor `8`=shl `9`=shr
    /// `10`=min `11`=max.
    #[inline]
    pub fn from_rmw(op: i64) -> Option<Alu> {
        use BinOp::*;
        Some(match op {
            0..=9 => Alu::Bin([Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr][op as usize]),
            10 => Alu::Min,
            11 => Alu::Max,
            _ => return None,
        })
    }

    /// Concrete semantics: [`BinOp::eval`], or signed min / max. `None`
    /// is a division by zero.
    #[inline]
    pub fn eval(self, x: i64, y: i64) -> Option<i64> {
        match self {
            Alu::Bin(op) => op.eval(x, y),
            Alu::Min => Some(x.min(y)),
            Alu::Max => Some(x.max(y)),
        }
    }
}

/// The words a [`Machine`] computes with, and how it decides the words
/// that must be concrete. Every method that can fork the symbolic domain
/// (`alu` on a divisor, `resolve`, `truth`) runs before the instruction
/// writes memory or binds a result, because a forked child re-runs the
/// instruction from a copy of the machine.
pub trait Domain {
    /// A machine word.
    type Word: Copy;
    /// Why an instruction stops short: a trap, or a decision of the
    /// domain (a budget, a fork, a construct it cannot model).
    type Stop: From<LirTrap>;
    /// Runs before each instruction that is not a φ.
    fn tick(&mut self, stats: &LirStats) -> Result<(), Self::Stop>;
    /// A constant word.
    fn konst(&mut self, c: i64) -> Self::Word;
    /// `x op y`; a zero divisor traps [`LirTrap::DivByZero`].
    fn alu(&mut self, op: Alu, x: Self::Word, y: Self::Word) -> Result<Self::Word, Self::Stop>;
    /// `x op y` as the word `0` or `1`.
    fn cmp(&mut self, op: CmpOp, x: Self::Word, y: Self::Word) -> Self::Word;
    /// The concrete value of a word that must have one.
    fn resolve(&mut self, w: Self::Word) -> Result<i64, Self::Stop>;
    /// Whether a branch condition is non-zero.
    fn truth(&mut self, w: Self::Word) -> Result<bool, Self::Stop>;
}

/// The concrete domain: words are `i64`s, and `fuel` bounds the
/// instructions run.
struct Concrete {
    fuel: u64,
}

impl Domain for Concrete {
    type Word = i64;
    type Stop = LirTrap;

    #[inline]
    fn tick(&mut self, stats: &LirStats) -> Result<(), LirTrap> {
        if stats.insts >= self.fuel {
            return Err(LirTrap::OutOfFuel);
        }
        Ok(())
    }

    #[inline]
    fn konst(&mut self, c: i64) -> i64 {
        c
    }

    #[inline]
    fn alu(&mut self, op: Alu, x: i64, y: i64) -> Result<i64, LirTrap> {
        op.eval(x, y).ok_or(LirTrap::DivByZero)
    }

    #[inline]
    fn cmp(&mut self, op: CmpOp, x: i64, y: i64) -> i64 {
        op.eval(x, y) as i64
    }

    #[inline]
    fn resolve(&mut self, w: i64) -> Result<i64, LirTrap> {
        Ok(w)
    }

    #[inline]
    fn truth(&mut self, w: i64) -> Result<bool, LirTrap> {
        Ok(w != 0)
    }
}

/// One call frame: the function, the next instruction, its values.
#[derive(Clone, Debug)]
struct Frame<W> {
    fun: Fun,
    block: Blk,
    at: usize,
    regs: RegFile<W>,
}

/// Where control goes after an instruction.
enum Flow {
    /// To the next instruction of the block.
    Next,
    /// To the head of another block.
    Jump(Blk),
    /// Out of the frame.
    Exit(Exit),
}

/// How a frame's run ends.
enum Exit {
    /// Call `Fun` with the arguments in `Machine::args`.
    Call(Fun),
    /// Return the values in `Machine::args`.
    Ret,
}

/// The machine state of one execution: linear memory, host tables,
/// frames and counters, over words `W`. [`LirMachine`] is the concrete
/// instance.
#[derive(Clone, Debug)]
pub struct Machine<'m, W> {
    module: &'m Module,
    /// Linear memory (word-addressed).
    pub mem: Vec<W>,
    /// Host assoc tables at negative handles (`-1` is the first): each
    /// key's value, and the keys in insertion order (an overwrite keeps
    /// a key's place, a removal drops it).
    tables: Vec<(HashMap<i64, W>, Vec<i64>)>,
    /// Counters.
    pub stats: LirStats,
    /// The instruction budget of [`LirMachine::run`].
    fuel: u64,
    frames: Vec<Frame<W>>,
    zero: W,
    /// Scratch for the φ parallel copy at block entry.
    phis: Vec<W>,
    /// Call arguments and return values in flight; runtime-call
    /// arguments.
    args: Vec<W>,
}

/// The concrete lir interpreter.
pub type LirMachine<'m> = Machine<'m, i64>;

const NULL_GUARD: usize = 16; // low addresses invalid

/// An assoc routine taking a handle (every `rt_assoc_*` but `new`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Assoc {
    Read,
    Write,
    Rmw,
    Has,
    Remove,
    Size,
    Copy,
    Keys,
}

impl Assoc {
    /// The routine `name` names, with its argument count.
    fn decode(name: &str) -> Option<(Assoc, usize)> {
        Some(match name {
            "rt_assoc_read" => (Assoc::Read, 2),
            "rt_assoc_write" => (Assoc::Write, 3),
            "rt_assoc_rmw" => (Assoc::Rmw, 4),
            "rt_assoc_has" => (Assoc::Has, 2),
            "rt_assoc_remove" => (Assoc::Remove, 2),
            "rt_assoc_size" => (Assoc::Size, 1),
            "rt_assoc_copy" => (Assoc::Copy, 1),
            "rt_assoc_keys" => (Assoc::Keys, 1),
            _ => return None,
        })
    }
}

/// The argument count of every other runtime routine; `None` for an
/// unknown name.
fn rt_arity(name: &str) -> Option<usize> {
    Some(match name {
        "rt_assoc_new" | "rt_obj_delete" => 0,
        "rt_dense_new" | "rt_seq_new" | "rt_seq_copy" | "rt_obj_new" => 1,
        "rt_seq_grow" | "rt_seq_remove" => 2,
        "rt_seq_insert" | "rt_seq_remove_range" | "rt_seq_splice" | "rt_seq_copy_range" => 3,
        "rt_seq_swap_range" => 4,
        "rt_seq_swap2" => 5,
        _ => return None,
    })
}

#[inline]
fn reg<W: Copy>(regs: &RegFile<W>, v: Val) -> Result<W, LirTrap> {
    regs.get(v).ok_or(LirTrap::Malformed("unbound value"))
}

impl<'m> LirMachine<'m> {
    /// Creates a machine.
    pub fn new(module: &'m Module) -> Self {
        Machine::with_zero(module, 0)
    }

    /// Overrides the fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs a function by name.
    pub fn run_by_name(&mut self, name: &str, args: Vec<i64>) -> Result<Vec<i64>, LirTrap> {
        let f = self.module.by_name(name).expect("function exists");
        self.run(f, args)
    }

    /// Runs a function.
    pub fn run(&mut self, fid: Fun, args: Vec<i64>) -> Result<Vec<i64>, LirTrap> {
        self.frames.clear();
        self.enter(fid, &args)?;
        self.exec(&mut Concrete { fuel: self.fuel })
    }
}

impl<'m, W: Copy> Machine<'m, W> {
    /// A machine with empty memory whose cells start as `zero`, the
    /// domain's word `0`.
    pub fn with_zero(module: &'m Module, zero: W) -> Self {
        Machine {
            module,
            mem: vec![zero; NULL_GUARD],
            tables: Vec::new(),
            stats: LirStats::default(),
            fuel: 200_000_000,
            frames: Vec::new(),
            zero,
            phis: Vec::new(),
            args: Vec::new(),
        }
    }

    /// Pushes a frame for `fun` with `args` bound to its parameters,
    /// positioned after the entry block's φ head.
    pub fn enter(&mut self, fun: Fun, args: &[W]) -> Result<(), LirTrap> {
        let f: &'m Function = self
            .module
            .funcs
            .get(fun.0 as usize)
            .ok_or(LirTrap::Malformed("unknown function"))?;
        let mut regs = RegFile::new(f);
        for (i, &a) in args.iter().enumerate() {
            regs.set(Val(i as u32), a);
        }
        let at = self.enter_block(f, None, f.entry, &mut regs)?;
        self.frames.push(Frame {
            fun,
            block: f.entry,
            at,
            regs,
        });
        Ok(())
    }

    /// Runs the frame stack until the bottom frame returns, and returns
    /// its values. On a stop, the top frame stays at the instruction that
    /// stopped, so a copy of the machine can run it again.
    pub fn exec<D: Domain<Word = W>>(&mut self, dom: &mut D) -> Result<Vec<W>, D::Stop> {
        loop {
            let top = self.frames.last_mut().expect("a frame to run");
            let (fun, mut block, mut at) = (top.fun, top.block, top.at);
            let mut regs = std::mem::replace(&mut top.regs, RegFile::empty());
            let module: &'m Module = self.module;
            let f = &module.funcs[fun.0 as usize];
            let exit = self.run_frame(dom, f, &mut regs, &mut block, &mut at);
            let top = self.frames.last_mut().expect("the running frame");
            (top.regs, top.block, top.at) = (regs, block, at);
            match exit? {
                Exit::Call(callee) => {
                    let args = std::mem::take(&mut self.args);
                    let entered = self.enter(callee, &args);
                    self.args = args;
                    entered?;
                }
                Exit::Ret => {
                    self.frames.pop();
                    let Some(caller) = self.frames.last_mut() else {
                        return Ok(std::mem::take(&mut self.args));
                    };
                    let cf = &self.module.funcs[caller.fun.0 as usize];
                    let call = cf.blocks[caller.block.0 as usize].insts[caller.at];
                    for (&r, &v) in cf.insts[call.0 as usize].results.iter().zip(&self.args) {
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
    fn run_frame<D: Domain<Word = W>>(
        &mut self,
        dom: &mut D,
        f: &'m Function,
        regs: &mut RegFile<W>,
        block: &mut Blk,
        at: &mut usize,
    ) -> Result<Exit, D::Stop> {
        loop {
            let insts = &f.blocks[block.0 as usize].insts;
            let start = (*at).min(insts.len());
            let mut target = None;
            for (i, &iid) in insts[start..].iter().enumerate() {
                match self.step(dom, f, regs, iid) {
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
                return Err(LirTrap::Malformed("fell off block").into());
            };
            *at = self.enter_block(f, Some(*block), target, regs)?;
            *block = target;
        }
    }

    /// Executes one instruction other than a φ.
    #[inline(always)]
    fn step<D: Domain<Word = W>>(
        &mut self,
        dom: &mut D,
        f: &'m Function,
        regs: &mut RegFile<W>,
        iid: Ins,
    ) -> Result<Flow, D::Stop> {
        dom.tick(&self.stats)?;
        self.stats.insts += 1;
        let inst = &f.insts[iid.0 as usize];
        let out = match inst.op {
            Op::Const(c) => dom.konst(c),
            Op::Bin(op, a, b) => {
                let (x, y) = (reg(regs, a)?, reg(regs, b)?);
                dom.alu(Alu::Bin(op), x, y)?
            }
            Op::Cmp(op, a, b) => {
                let (x, y) = (reg(regs, a)?, reg(regs, b)?);
                dom.cmp(op, x, y)
            }
            Op::Phi(_) => return Err(LirTrap::Malformed("phi after non-phi").into()),
            Op::Alloca(n) => {
                let base = self.alloc_words(n as usize);
                dom.konst(base)
            }
            Op::Malloc(n) => {
                let words = dom.resolve(reg(regs, n)?)?.max(0) as usize;
                let base = self.alloc_words(words);
                dom.konst(base)
            }
            Op::Free(_) => return Ok(Flow::Next),
            Op::Load(a) => {
                let addr = dom.resolve(reg(regs, a)?)?;
                self.load(addr)?
            }
            Op::Store { addr, value } => {
                let (a, v) = (reg(regs, addr)?, reg(regs, value)?);
                let a = dom.resolve(a)?;
                self.store(a, v)?;
                return Ok(Flow::Next);
            }
            Op::Gep { base, offset } => {
                let (b, o) = (reg(regs, base)?, reg(regs, offset)?);
                dom.alu(Alu::Bin(BinOp::Add), b, o)?
            }
            Op::Call { func, ref args } => {
                self.args.clear();
                for &a in args {
                    self.args.push(reg(regs, a)?);
                }
                return Ok(Flow::Exit(Exit::Call(func)));
            }
            Op::CallRt {
                ref name, ref args, ..
            } => {
                self.stats.rt_calls += 1;
                let mut argv = std::mem::take(&mut self.args);
                argv.clear();
                for &a in args {
                    argv.push(reg(regs, a)?);
                }
                let out = self.call_rt(dom, name, &argv);
                self.args = argv;
                match (inst.results.first(), out?) {
                    (Some(_), Some(v)) => v,
                    _ => return Ok(Flow::Next),
                }
            }
            Op::Jmp(b) => return Ok(Flow::Jump(b)),
            Op::Br {
                cond,
                then_b,
                else_b,
            } => {
                let c = reg(regs, cond)?;
                return Ok(Flow::Jump(if dom.truth(c)? { then_b } else { else_b }));
            }
            Op::Ret(ref vs) => {
                self.args.clear();
                for &v in vs {
                    self.args.push(reg(regs, v)?);
                }
                return Ok(Flow::Exit(Exit::Ret));
            }
        };
        if let Some(&r) = inst.results.first() {
            regs.set(r, out);
        }
        Ok(Flow::Next)
    }

    /// Enters `target` from `pred`, running its φ head (each φ counts as
    /// an instruction), and returns the position after it.
    fn enter_block(
        &mut self,
        f: &Function,
        pred: Option<Blk>,
        target: Blk,
        regs: &mut RegFile<W>,
    ) -> Result<usize, LirTrap> {
        let stats = &mut self.stats;
        enter_block(f, pred, target, regs, &mut self.phis, |regs, v| {
            regs.get(v)
                .inspect(|_| stats.insts += 1)
                .ok_or(LirTrap::Malformed("unbound phi operand"))
        })
    }

    fn alloc_words(&mut self, n: usize) -> i64 {
        let base = self.mem.len() as i64;
        self.mem.resize(self.mem.len() + n.max(1), self.zero);
        base
    }

    #[inline]
    fn load(&mut self, addr: i64) -> Result<W, LirTrap> {
        self.stats.loads += 1;
        if addr < NULL_GUARD as i64 || addr as usize >= self.mem.len() {
            return Err(LirTrap::BadAddress(addr));
        }
        Ok(self.mem[addr as usize])
    }

    #[inline]
    fn store(&mut self, addr: i64, v: W) -> Result<(), LirTrap> {
        self.stats.stores += 1;
        if addr < NULL_GUARD as i64 || addr as usize >= self.mem.len() {
            return Err(LirTrap::BadAddress(addr));
        }
        self.mem[addr as usize] = v;
        Ok(())
    }

    /// Loads a word that must be concrete.
    fn load_i64<D: Domain<Word = W>>(&mut self, dom: &mut D, addr: i64) -> Result<i64, D::Stop> {
        let w = self.load(addr)?;
        dom.resolve(w)
    }

    /// Stores a concrete word.
    fn store_i64<D: Domain<Word = W>>(
        &mut self,
        dom: &mut D,
        addr: i64,
        v: i64,
    ) -> Result<(), LirTrap> {
        let w = dom.konst(v);
        self.store(addr, w)
    }

    /// Sequence header layout: `[data, len, cap]` at the handle address.
    fn seq_parts<D: Domain<Word = W>>(
        &mut self,
        dom: &mut D,
        hdr: i64,
    ) -> Result<(i64, i64, i64), D::Stop> {
        Ok((
            self.load_i64(dom, hdr)?,
            self.load_i64(dom, hdr + 1)?,
            self.load_i64(dom, hdr + 2)?,
        ))
    }

    /// `rt_seq_new`: a sequence of `n` zero words.
    fn seq_new<D: Domain<Word = W>>(&mut self, dom: &mut D, n: i64) -> Result<i64, LirTrap> {
        let n = n.max(0);
        let data = self.alloc_words(n as usize);
        let hdr = self.alloc_words(3);
        self.store_i64(dom, hdr, data)?;
        self.store_i64(dom, hdr + 1, n)?;
        self.store_i64(dom, hdr + 2, n)?;
        Ok(hdr)
    }

    /// `rt_seq_grow`: ensures capacity ≥ `want` for the sequence at `hdr`.
    fn seq_grow<D: Domain<Word = W>>(
        &mut self,
        dom: &mut D,
        hdr: i64,
        want: i64,
    ) -> Result<(), D::Stop> {
        let (data, len, cap) = self.seq_parts(dom, hdr)?;
        if want > cap {
            let new_cap = (cap * 2).max(want).max(4);
            let new_data = self.alloc_words(new_cap as usize);
            for i in 0..len {
                let v = self.load(data + i)?;
                self.store(new_data + i, v)?;
            }
            self.store_i64(dom, hdr, new_data)?;
            self.store_i64(dom, hdr + 2, new_cap)?;
        }
        Ok(())
    }

    /// A fresh sequence holding `keys`.
    fn seq_of<D: Domain<Word = W>>(
        &mut self,
        dom: &mut D,
        keys: &[i64],
    ) -> Result<Option<W>, D::Stop> {
        let out = self.seq_new(dom, keys.len() as i64)?;
        let (odata, _, _) = self.seq_parts(dom, out)?;
        for (i, &k) in keys.iter().enumerate() {
            self.store_i64(dom, odata + i as i64, k)?;
        }
        Ok(Some(dom.konst(out)))
    }

    /// Runs runtime routine `name`. Each routine's argument count is
    /// checked once here: too few arguments are malformed. Kept out of
    /// line: inlined, the routines would bloat the loop every
    /// instruction runs through.
    #[inline(never)]
    fn call_rt<D: Domain<Word = W>>(
        &mut self,
        dom: &mut D,
        name: &str,
        args: &[W],
    ) -> Result<Option<W>, D::Stop> {
        let assoc = Assoc::decode(name);
        let arity = match assoc {
            Some((_, n)) => n,
            None => rt_arity(name).ok_or_else(|| LirTrap::UnknownRt(name.to_string()))?,
        };
        if args.len() < arity {
            return Err(LirTrap::Malformed("missing runtime-call argument").into());
        }
        // Dense dispatch: a non-negative assoc handle is a dense
        // direct-indexed map living in linear memory (emitted by the
        // adaptive `rt_dense_new` lowering); a negative handle is a host
        // table.
        if let Some((op, _)) = assoc {
            let h = dom.resolve(args[0])?;
            return if h >= 0 {
                self.call_dense(dom, op, h, args)
            } else {
                self.call_host(dom, op, h, args)
            };
        }
        let mut arg = |i: usize| dom.resolve(args[i]);
        let out = match name {
            "rt_assoc_new" => {
                self.tables.push(Default::default());
                -(self.tables.len() as i64)
            }
            "rt_dense_new" => {
                let cap = arg(0)?.max(0);
                let hdr = self.alloc_words((2 + 2 * cap) as usize);
                self.store_i64(dom, hdr, cap)?;
                self.store_i64(dom, hdr + 1, 0)?;
                hdr
            }
            // ------------------------------------------------- sequences
            "rt_seq_new" => {
                let n = arg(0)?;
                self.seq_new(dom, n)?
            }
            "rt_seq_grow" => {
                let (hdr, want) = (arg(0)?, arg(1)?);
                self.seq_grow(dom, hdr, want)?;
                return Ok(None);
            }
            "rt_seq_insert" => {
                let (hdr, at) = (arg(0)?, arg(1)?);
                let (_, len, _) = self.seq_parts(dom, hdr)?;
                self.seq_grow(dom, hdr, len + 1)?;
                let (data, len, _) = self.seq_parts(dom, hdr)?;
                let mut i = len;
                while i > at {
                    let x = self.load(data + i - 1)?;
                    self.store(data + i, x)?;
                    i -= 1;
                }
                self.store(data + at, args[2])?;
                self.store_i64(dom, hdr + 1, len + 1)?;
                return Ok(None);
            }
            "rt_seq_remove" => {
                let (hdr, at) = (arg(0)?, arg(1)?);
                let (data, len, _) = self.seq_parts(dom, hdr)?;
                for i in at..len - 1 {
                    let x = self.load(data + i + 1)?;
                    self.store(data + i, x)?;
                }
                self.store_i64(dom, hdr + 1, len - 1)?;
                return Ok(None);
            }
            "rt_seq_remove_range" => {
                let (hdr, from, to) = (arg(0)?, arg(1)?, arg(2)?);
                let (data, len, _) = self.seq_parts(dom, hdr)?;
                let w = to - from;
                for i in from..len - w {
                    let x = self.load(data + i + w)?;
                    self.store(data + i, x)?;
                }
                self.store_i64(dom, hdr + 1, len - w)?;
                return Ok(None);
            }
            "rt_seq_splice" => {
                let (hdr, at, src) = (arg(0)?, arg(1)?, arg(2)?);
                let (_, slen, _) = self.seq_parts(dom, src)?;
                let (_, len, _) = self.seq_parts(dom, hdr)?;
                self.seq_grow(dom, hdr, len + slen)?;
                let (data, len, _) = self.seq_parts(dom, hdr)?;
                let (sdata, slen, _) = self.seq_parts(dom, src)?;
                let mut i = len;
                while i > at {
                    let x = self.load(data + i - 1)?;
                    self.store(data + i - 1 + slen, x)?;
                    i -= 1;
                }
                for i in 0..slen {
                    let x = self.load(sdata + i)?;
                    self.store(data + at + i, x)?;
                }
                self.store_i64(dom, hdr + 1, len + slen)?;
                return Ok(None);
            }
            "rt_seq_swap_range" => {
                let (hdr, from, to, at) = (arg(0)?, arg(1)?, arg(2)?, arg(3)?);
                let (data, _, _) = self.seq_parts(dom, hdr)?;
                for o in 0..(to - from) {
                    let a = self.load(data + from + o)?;
                    let b = self.load(data + at + o)?;
                    self.store(data + from + o, b)?;
                    self.store(data + at + o, a)?;
                }
                return Ok(None);
            }
            "rt_seq_copy" => {
                let hdr = arg(0)?;
                let (data, len, _) = self.seq_parts(dom, hdr)?;
                let out = self.seq_new(dom, len)?;
                let (odata, _, _) = self.seq_parts(dom, out)?;
                for i in 0..len {
                    let v = self.load(data + i)?;
                    self.store(odata + i, v)?;
                }
                out
            }
            "rt_seq_copy_range" => {
                let (hdr, from, to) = (arg(0)?, arg(1)?, arg(2)?);
                let (data, _, _) = self.seq_parts(dom, hdr)?;
                let out = self.seq_new(dom, to - from)?;
                let (odata, _, _) = self.seq_parts(dom, out)?;
                for i in 0..(to - from) {
                    let v = self.load(data + from + i)?;
                    self.store(odata + i, v)?;
                }
                out
            }
            "rt_seq_swap2" => {
                let (ha, from, to) = (arg(0)?, arg(1)?, arg(2)?);
                let (hb, at) = (arg(3)?, arg(4)?);
                let (da, _, _) = self.seq_parts(dom, ha)?;
                let (db, _, _) = self.seq_parts(dom, hb)?;
                for o in 0..(to - from) {
                    let x = self.load(da + from + o)?;
                    let y = self.load(db + at + o)?;
                    self.store(da + from + o, y)?;
                    self.store(db + at + o, x)?;
                }
                return Ok(None);
            }
            // ------------------------------------------------------ misc
            "rt_obj_new" => {
                let words = arg(0)?.max(1);
                self.alloc_words(words as usize)
            }
            _ => return Ok(None), // rt_obj_delete
        };
        Ok(Some(dom.konst(out)))
    }

    /// Dense-map operations at a non-negative assoc handle. Layout in
    /// linear memory: `[cap, size, present[cap], vals[cap]]` at `hdr`.
    /// The repr analysis proved every key in `0 .. cap`, so an
    /// out-of-bound read/write is a compiler bug and traps loudly
    /// (`has` stays total: absent, not a trap).
    fn call_dense<D: Domain<Word = W>>(
        &mut self,
        dom: &mut D,
        op: Assoc,
        hdr: i64,
        args: &[W],
    ) -> Result<Option<W>, D::Stop> {
        let cap = self.load_i64(dom, hdr)?;
        let in_bounds = |k: i64| (0..cap).contains(&k);
        // The present flag of in-bounds key `k`.
        let present = |m: &mut Self, dom: &mut D, k: i64| -> Result<bool, D::Stop> {
            Ok(in_bounds(k) && m.load_i64(dom, hdr + 2 + k)? != 0)
        };
        match op {
            Assoc::Read => {
                let k = dom.resolve(args[1])?;
                if !present(self, dom, k)? {
                    return Err(LirTrap::MissingKey.into());
                }
                Ok(Some(self.load(hdr + 2 + cap + k)?))
            }
            Assoc::Write => {
                let k = dom.resolve(args[1])?;
                if !in_bounds(k) {
                    return Err(LirTrap::BadAddress(k).into());
                }
                if !present(self, dom, k)? {
                    let sz = self.load_i64(dom, hdr + 1)?;
                    self.store_i64(dom, hdr + 2 + k, 1)?;
                    self.store_i64(dom, hdr + 1, sz + 1)?;
                }
                self.store(hdr + 2 + cap + k, args[2])?;
                Ok(None)
            }
            Assoc::Rmw => {
                let k = dom.resolve(args[1])?;
                if !present(self, dom, k)? {
                    return Err(LirTrap::MissingKey.into());
                }
                let code = dom.resolve(args[2])?;
                let x = self.load(hdr + 2 + cap + k)?;
                let alu = Alu::from_rmw(code).ok_or(LirTrap::Malformed("bad rmw opcode"))?;
                let r = dom.alu(alu, x, args[3])?;
                self.store(hdr + 2 + cap + k, r)?;
                Ok(None)
            }
            Assoc::Has => {
                let k = dom.resolve(args[1])?;
                let p = present(self, dom, k)?;
                Ok(Some(dom.konst(p as i64)))
            }
            Assoc::Remove => {
                let k = dom.resolve(args[1])?;
                if present(self, dom, k)? {
                    let sz = self.load_i64(dom, hdr + 1)?;
                    self.store_i64(dom, hdr + 2 + k, 0)?;
                    self.store_i64(dom, hdr + 1, sz - 1)?;
                }
                Ok(None)
            }
            Assoc::Size => Ok(Some(self.load(hdr + 1)?)),
            Assoc::Copy => {
                let out = self.alloc_words((2 + 2 * cap) as usize);
                for i in 0..2 + 2 * cap {
                    let v = self.load(hdr + i)?;
                    self.store(out + i, v)?;
                }
                Ok(Some(dom.konst(out)))
            }
            Assoc::Keys => {
                // Present keys ascending — selection never fires when a
                // `keys` op is reachable, so this order is unobservable;
                // it matches `memoir_runtime::DenseMap::keys`.
                let mut keys = Vec::new();
                for k in 0..cap {
                    if present(self, dom, k)? {
                        keys.push(k);
                    }
                }
                self.seq_of(dom, &keys)
            }
        }
    }

    /// Host-table operations at a negative handle; a handle that names no
    /// table is a bad address.
    fn call_host<D: Domain<Word = W>>(
        &mut self,
        dom: &mut D,
        op: Assoc,
        h: i64,
        args: &[W],
    ) -> Result<Option<W>, D::Stop> {
        let t = (!h) as usize; // -1 ↦ 0, -2 ↦ 1, …
        if t >= self.tables.len() {
            return Err(LirTrap::BadAddress(h).into());
        }
        let word = match op {
            Assoc::Copy => {
                let copy = self.tables[t].clone();
                self.tables.push(copy);
                -(self.tables.len() as i64)
            }
            Assoc::Size => self.tables[t].0.len() as i64,
            Assoc::Keys => {
                let (map, order) = &self.tables[t];
                let keys: Vec<i64> = order
                    .iter()
                    .copied()
                    .filter(|k| map.contains_key(k))
                    .collect();
                return self.seq_of(dom, &keys);
            }
            Assoc::Has => {
                let k = dom.resolve(args[1])?;
                self.tables[t].0.contains_key(&k) as i64
            }
            Assoc::Read => {
                let k = dom.resolve(args[1])?;
                return Ok(Some(*self.tables[t].0.get(&k).ok_or(LirTrap::MissingKey)?));
            }
            Assoc::Write => {
                let k = dom.resolve(args[1])?;
                let (map, order) = &mut self.tables[t];
                if map.insert(k, args[2]).is_none() {
                    order.push(k);
                }
                return Ok(None);
            }
            Assoc::Remove => {
                let k = dom.resolve(args[1])?;
                let (map, order) = &mut self.tables[t];
                if map.remove(&k).is_some() {
                    order.retain(|&x| x != k);
                }
                return Ok(None);
            }
            Assoc::Rmw => {
                // Fused read-modify-write (`mut.rmw` lowering): the
                // read-half traps on a missing key exactly like
                // `rt_assoc_read`, then the combined value is stored
                // without re-hashing.
                let (k, code) = (dom.resolve(args[1])?, dom.resolve(args[2])?);
                let x = *self.tables[t].0.get(&k).ok_or(LirTrap::MissingKey)?;
                let alu = Alu::from_rmw(code).ok_or(LirTrap::Malformed("bad rmw opcode"))?;
                let r = dom.alu(alu, x, args[3])?;
                self.tables[t].0.insert(k, r);
                return Ok(None);
            }
        };
        Ok(Some(dom.konst(word)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_loop_runs() {
        // sum 0..n via a loop.
        let mut f = Function::new("sum", 1, 1);
        let entry = f.entry;
        let header = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let zero = f.push1(entry, Op::Const(0));
        f.push0(entry, Op::Jmp(header));
        let i = f.push1(header, Op::Phi(vec![]));
        let acc = f.push1(header, Op::Phi(vec![]));
        let done = f.push1(header, Op::Cmp(CmpOp::Ge, i, f.param(0)));
        f.push0(
            header,
            Op::Br {
                cond: done,
                then_b: exit,
                else_b: body,
            },
        );
        let one = f.push1(body, Op::Const(1));
        let acc2 = f.push1(body, Op::Bin(BinOp::Add, acc, i));
        let i2 = f.push1(body, Op::Bin(BinOp::Add, i, one));
        f.push0(body, Op::Jmp(header));
        f.push0(exit, Op::Ret(vec![acc]));
        // Patch φs (found by scan; `i` comes before `acc`).
        let mut patched = 0;
        for inst in &mut f.insts {
            if let Op::Phi(incs) = &mut inst.op {
                if patched == 0 {
                    incs.push((entry, zero));
                    incs.push((body, i2));
                } else {
                    incs.push((entry, zero));
                    incs.push((body, acc2));
                }
                patched += 1;
            }
        }
        assert_eq!(patched, 2);
        let mut m = Module::default();
        m.add(f);
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("sum", vec![10]).unwrap(), vec![45]);
    }

    #[test]
    fn memory_roundtrip_and_stats() {
        let mut f = Function::new("mem", 0, 1);
        let e = f.entry;
        let a = f.push1(e, Op::Alloca(2));
        let c = f.push1(e, Op::Const(7));
        f.push0(e, Op::Store { addr: a, value: c });
        let one = f.push1(e, Op::Const(1));
        let a1 = f.push1(
            e,
            Op::Gep {
                base: a,
                offset: one,
            },
        );
        f.push0(
            e,
            Op::Store {
                addr: a1,
                value: one,
            },
        );
        let v = f.push1(e, Op::Load(a));
        f.push0(e, Op::Ret(vec![v]));
        let mut m = Module::default();
        m.add(f);
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("mem", vec![]).unwrap(), vec![7]);
        assert_eq!(vm.stats.stores, 2);
        assert_eq!(vm.stats.loads, 1);
    }

    #[test]
    fn rt_seq_helpers() {
        let mut f = Function::new("seqtest", 0, 2);
        let e = f.entry;
        let n = f.push1(e, Op::Const(3));
        let hdr = f.push1(
            e,
            Op::CallRt {
                name: "rt_seq_new".into(),
                args: vec![n],
                has_result: true,
            },
        );
        // write s[1] = 42 inline: data = load hdr; store data+1.
        let data = f.push1(e, Op::Load(hdr));
        let one = f.push1(e, Op::Const(1));
        let addr = f.push1(
            e,
            Op::Gep {
                base: data,
                offset: one,
            },
        );
        let v42 = f.push1(e, Op::Const(42));
        f.push0(e, Op::Store { addr, value: v42 });
        // insert 99 at 0 → shifts right.
        let zero = f.push1(e, Op::Const(0));
        let v99 = f.push1(e, Op::Const(99));
        f.push0(
            e,
            Op::CallRt {
                name: "rt_seq_insert".into(),
                args: vec![hdr, zero, v99],
                has_result: false,
            },
        );
        // len and s[2] (the shifted 42).
        let lenp = f.push1(
            e,
            Op::Gep {
                base: hdr,
                offset: one,
            },
        );
        let len = f.push1(e, Op::Load(lenp));
        let data2 = f.push1(e, Op::Load(hdr));
        let two = f.push1(e, Op::Const(2));
        let addr2 = f.push1(
            e,
            Op::Gep {
                base: data2,
                offset: two,
            },
        );
        let v = f.push1(e, Op::Load(addr2));
        f.push0(e, Op::Ret(vec![len, v]));
        let mut m = Module::default();
        m.add(f);
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("seqtest", vec![]).unwrap(), vec![4, 42]);
    }

    #[test]
    fn rt_assoc_helpers() {
        let mut f = Function::new("assoctest", 0, 3);
        let e = f.entry;
        let h = f.push1(
            e,
            Op::CallRt {
                name: "rt_assoc_new".into(),
                args: vec![],
                has_result: true,
            },
        );
        let k = f.push1(e, Op::Const(5));
        let v = f.push1(e, Op::Const(50));
        f.push0(
            e,
            Op::CallRt {
                name: "rt_assoc_write".into(),
                args: vec![h, k, v],
                has_result: false,
            },
        );
        let got = f.push1(
            e,
            Op::CallRt {
                name: "rt_assoc_read".into(),
                args: vec![h, k],
                has_result: true,
            },
        );
        let has = f.push1(
            e,
            Op::CallRt {
                name: "rt_assoc_has".into(),
                args: vec![h, k],
                has_result: true,
            },
        );
        let size = f.push1(
            e,
            Op::CallRt {
                name: "rt_assoc_size".into(),
                args: vec![h],
                has_result: true,
            },
        );
        f.push0(e, Op::Ret(vec![got, has, size]));
        let mut m = Module::default();
        m.add(f);
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("assoctest", vec![]).unwrap(), vec![50, 1, 1]);
    }

    /// Builds a one-block function that performs `calls` in order and
    /// returns the listed result values.
    fn rt_program(calls: Vec<(&str, Vec<RtArg>, bool)>, rets: Vec<usize>) -> Module {
        let nrets = rets.len();
        let mut f = Function::new("t", 0, nrets as u32);
        let e = f.entry;
        let mut results: Vec<Val> = Vec::new();
        for (name, args, has_result) in calls {
            let argv: Vec<Val> = args
                .into_iter()
                .map(|a| match a {
                    RtArg::C(c) => f.push1(e, Op::Const(c)),
                    RtArg::R(i) => results[i],
                })
                .collect();
            let out = f.push(
                e,
                Op::CallRt {
                    name: name.into(),
                    args: argv,
                    has_result,
                },
                has_result as usize,
            );
            results.push(out.first().copied().unwrap_or(Val(u32::MAX)));
        }
        let ret_vals: Vec<Val> = rets.into_iter().map(|i| results[i]).collect();
        f.push0(e, Op::Ret(ret_vals));
        let mut m = Module::default();
        m.add(f);
        m
    }

    enum RtArg {
        C(i64),
        R(usize),
    }
    use RtArg::{C, R};

    #[test]
    fn dense_map_roundtrip_through_assoc_dispatch() {
        // new(8); write(3,30); write(3,33); has(3); has(7); size; read(3)
        let m = rt_program(
            vec![
                ("rt_dense_new", vec![C(8)], true),
                ("rt_assoc_write", vec![R(0), C(3), C(30)], false),
                ("rt_assoc_write", vec![R(0), C(3), C(33)], false),
                ("rt_assoc_has", vec![R(0), C(3)], true),
                ("rt_assoc_has", vec![R(0), C(7)], true),
                ("rt_assoc_size", vec![R(0)], true),
                ("rt_assoc_read", vec![R(0), C(3)], true),
            ],
            vec![3, 4, 5, 6],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]).unwrap(), vec![1, 0, 1, 33]);
    }

    #[test]
    fn dense_rmw_and_remove() {
        let m = rt_program(
            vec![
                ("rt_dense_new", vec![C(4)], true),
                ("rt_assoc_write", vec![R(0), C(2), C(5)], false),
                ("rt_assoc_rmw", vec![R(0), C(2), C(0), C(7)], false), // += 7
                ("rt_assoc_read", vec![R(0), C(2)], true),
                ("rt_assoc_remove", vec![R(0), C(2)], false),
                ("rt_assoc_size", vec![R(0)], true),
            ],
            vec![3, 5],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]).unwrap(), vec![12, 0]);
    }

    #[test]
    fn dense_read_of_absent_key_traps_like_hashtable() {
        let m = rt_program(
            vec![
                ("rt_dense_new", vec![C(4)], true),
                ("rt_assoc_read", vec![R(0), C(1)], true),
            ],
            vec![1],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]), Err(LirTrap::MissingKey));
    }

    #[test]
    fn dense_copy_is_value_semantic() {
        let m = rt_program(
            vec![
                ("rt_dense_new", vec![C(4)], true),
                ("rt_assoc_write", vec![R(0), C(1), C(10)], false),
                ("rt_assoc_copy", vec![R(0)], true),
                ("rt_assoc_write", vec![R(0), C(1), C(99)], false),
                ("rt_assoc_read", vec![R(2), C(1)], true),
            ],
            vec![4],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]).unwrap(), vec![10]);
    }

    #[test]
    fn host_assoc_rmw_traps_on_missing_key() {
        let m = rt_program(
            vec![
                ("rt_assoc_new", vec![], true),
                ("rt_assoc_rmw", vec![R(0), C(1), C(0), C(7)], false),
            ],
            vec![],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]), Err(LirTrap::MissingKey));
    }

    #[test]
    fn host_assoc_rmw_combines_in_place() {
        let m = rt_program(
            vec![
                ("rt_assoc_new", vec![], true),
                ("rt_assoc_write", vec![R(0), C(5), C(40)], false),
                ("rt_assoc_rmw", vec![R(0), C(5), C(11), C(50)], false), // max
                ("rt_assoc_read", vec![R(0), C(5)], true),
            ],
            vec![3],
        );
        let mut vm = LirMachine::new(&m);
        assert_eq!(vm.run_by_name("t", vec![]).unwrap(), vec![50]);
    }
}
