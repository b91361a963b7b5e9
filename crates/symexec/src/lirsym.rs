//! Bounded path enumeration over lir functions.
//!
//! The engine mirrors `lir::LirMachine` step for step: the same flat
//! word-addressed memory with a `NULL_GUARD` low-address hole, the same
//! bump allocator, the same `rt_*` runtime routines (sequence helpers in
//! linear memory, dense maps dispatched on the handle sign, host
//! hashtables at negative handles) — but memory *cells* hold symbolic
//! terms while *addresses*, lengths, capacities, keys, handles and rmw
//! opcodes must resolve to concrete values on each path (forking when an
//! interval is narrow enough, [`SymError::Unsupported`] otherwise).
//!
//! This works because `memoir-lower` emits all layout arithmetic over
//! values the repr/range analyses proved small: the path condition
//! accumulated from the lowered bounds checks pins indices tightly
//! enough for the solver's intervals to enumerate them.
//!
//! Frames keep their values in the machine's own register file and
//! enter blocks through its φ routine (`lir::regs`), in place.

use crate::solver::{self, Lit};
use crate::term::{TermId, TermPool};
use crate::{Budget, Path, PathEnd, SymError};
use lir::regs::{enter_block, PhiFault, RegFile};
use lir::{Blk, Fun, Function, Module, Op, Val};
use memoir_ir::{BinOp, CmpOp, Type};
use std::collections::HashMap;

const NULL_GUARD: usize = 16; // must match lir::interp

/// One call frame.
#[derive(Clone, Debug)]
struct Frame {
    fun: Fun,
    block: Blk,
    at: usize,
    regs: RegFile<TermId>,
}

/// One in-flight execution (a path prefix). Memory and host assoc
/// tables are machine-level (shared across frames), like `LirMachine`.
#[derive(Clone, Debug)]
struct Exec {
    frames: Vec<Frame>,
    /// Linear memory: concrete addresses, symbolic cells.
    mem: Vec<TermId>,
    /// Host hashtables at negative handles, in insertion order
    /// (overwrites keep a key's position, removals drop it — the
    /// `map` + `order` pair of the concrete machine).
    assocs: Vec<Vec<(i64, TermId)>>,
    cond: Vec<Lit>,
    /// Concrete values pinned by forking, keyed by term.
    fixes: HashMap<TermId, i64>,
    /// Branch truths pinned by forking. Unlike MEMOIR booleans, a lir
    /// branch condition is an arbitrary word (`!= 0` is taken), so a
    /// "true" pin fixes no single value and lives here instead.
    truths: HashMap<TermId, bool>,
}

/// Why an instruction could not complete on this attempt.
enum Stop {
    /// The concrete machine would trap here (any `LirTrap` kind).
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
        Stop::Trap // phi in entry / phi missing incoming: malformed
    }
}

enum StepOut {
    Continue,
    Forked,
    End(PathEnd),
}

fn lower_binop(op: lir::BinOp) -> BinOp {
    match op {
        lir::BinOp::Add => BinOp::Add,
        lir::BinOp::Sub => BinOp::Sub,
        lir::BinOp::Mul => BinOp::Mul,
        lir::BinOp::Div => BinOp::Div,
        lir::BinOp::Rem => BinOp::Rem,
        lir::BinOp::And => BinOp::And,
        lir::BinOp::Or => BinOp::Or,
        lir::BinOp::Xor => BinOp::Xor,
        lir::BinOp::Shl => BinOp::Shl,
        lir::BinOp::Shr => BinOp::Shr,
    }
}

fn lower_cmpop(op: lir::CmpOp) -> CmpOp {
    match op {
        lir::CmpOp::Eq => CmpOp::Eq,
        lir::CmpOp::Ne => CmpOp::Ne,
        lir::CmpOp::Lt => CmpOp::Lt,
        lir::CmpOp::Le => CmpOp::Le,
        lir::CmpOp::Gt => CmpOp::Gt,
        lir::CmpOp::Ge => CmpOp::Ge,
    }
}

/// The integer rmw-opcode encoding of `memoir-lower::rmw_opcode`.
fn rmw_binop(op: i64) -> Option<BinOp> {
    Some(match op {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::And,
        6 => BinOp::Or,
        7 => BinOp::Xor,
        8 => BinOp::Shl,
        9 => BinOp::Shr,
        10 => BinOp::Min,
        11 => BinOp::Max,
        _ => return None, // bad rmw opcode: Malformed
    })
}

/// Enumerates all feasible paths of `fun`, with its parameters symbolic.
/// `pool.param_tys` should carry the *source-level* parameter types (the
/// MEMOIR signature the function was lowered from) so witness search and
/// interval seeding stay inside the domain both IRs agree on; missing
/// entries are padded with `I64`.
pub fn enumerate_lir(
    module: &Module,
    fun: Fun,
    pool: &mut TermPool,
    budget: &Budget,
) -> Result<Vec<Path>, SymError> {
    let f: &Function = &module.funcs[fun.0 as usize];
    while pool.param_tys.len() < f.num_params as usize {
        pool.param_tys.push(Type::I64);
    }
    let mut regs = RegFile::new(f);
    for i in 0..f.num_params {
        regs.set(Val(i), pool.param(i));
    }
    let zero = pool.konst(0);
    let init = Exec {
        frames: vec![Frame {
            fun,
            block: f.entry,
            at: 0,
            regs,
        }],
        mem: vec![zero; NULL_GUARD],
        assocs: Vec::new(),
        cond: Vec::new(),
        fixes: HashMap::new(),
        truths: HashMap::new(),
    };
    let mut eng = Engine {
        module,
        pool,
        budget,
        ops: 0,
        worklist: vec![init],
        paths: Vec::new(),
        phis: Vec::new(),
        rt_args: Vec::new(),
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
    phis: Vec<TermId>,
    /// Scratch for runtime-call arguments.
    rt_args: Vec<TermId>,
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

    fn fork_values(&mut self, ex: &Exec, t: TermId, vals: &[i64]) {
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
        for truth in [false, true] {
            let mut child = ex.clone();
            child.cond.push((t, truth));
            child.truths.insert(t, truth);
            if !truth {
                // `t == 0` is the one truth that pins a value.
                child.fixes.insert(t, 0);
            }
            if !solver::contradicts(self.pool, &child.cond) {
                self.worklist.push(child);
            }
        }
    }

    /// A term's concrete value on this path, forking if it is narrow.
    fn resolve(&self, ex: &Exec, t: TermId) -> R<i64> {
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
            Err(Stop::Unsupported("wide symbolic address/length"))
        }
    }

    /// Whether `t != 0` on this path (the lir branch-taken condition).
    fn resolve_cond(&self, ex: &Exec, t: TermId) -> R<bool> {
        if let Some(v) = self.pool.as_const(t) {
            return Ok(v != 0);
        }
        if let Some(&b) = ex.truths.get(&t) {
            return Ok(b);
        }
        if let Some(&v) = ex.fixes.get(&t) {
            return Ok(v != 0);
        }
        Err(Stop::BoolFork(t))
    }

    fn alloc_words(&mut self, ex: &mut Exec, n: usize) -> i64 {
        let base = ex.mem.len() as i64;
        let zero = self.pool.konst(0);
        ex.mem.resize(ex.mem.len() + n.max(1), zero);
        base
    }

    fn mem_load(&self, ex: &Exec, addr: i64) -> R<TermId> {
        if addr < NULL_GUARD as i64 || addr as usize >= ex.mem.len() {
            return Err(Stop::Trap); // BadAddress
        }
        Ok(ex.mem[addr as usize])
    }

    fn mem_load_i64(&self, ex: &Exec, addr: i64) -> R<i64> {
        let t = self.mem_load(ex, addr)?;
        self.resolve(ex, t)
    }

    fn mem_store(&self, ex: &mut Exec, addr: i64, v: TermId) -> R<()> {
        if addr < NULL_GUARD as i64 || addr as usize >= ex.mem.len() {
            return Err(Stop::Trap); // BadAddress
        }
        ex.mem[addr as usize] = v;
        Ok(())
    }

    /// Sequence header layout `[data, len, cap]`, all resolved concrete.
    fn seq_parts(&self, ex: &Exec, hdr: i64) -> R<(i64, i64, i64)> {
        Ok((
            self.mem_load_i64(ex, hdr)?,
            self.mem_load_i64(ex, hdr + 1)?,
            self.mem_load_i64(ex, hdr + 2)?,
        ))
    }

    /// `rt_seq_grow`: ensure capacity ≥ `want`.
    fn seq_grow(&mut self, ex: &mut Exec, hdr: i64, want: i64) -> R<()> {
        let (data, len, cap) = self.seq_parts(ex, hdr)?;
        if want > cap {
            let new_cap = (cap * 2).max(want).max(4);
            let new_data = self.alloc_words(ex, new_cap as usize);
            for i in 0..len {
                let v = self.mem_load(ex, data + i)?;
                self.mem_store(ex, new_data + i, v)?;
            }
            let nd = self.pool.konst(new_data);
            self.mem_store(ex, hdr, nd)?;
            let nc = self.pool.konst(new_cap);
            self.mem_store(ex, hdr + 2, nc)?;
        }
        Ok(())
    }

    fn seq_new(&mut self, ex: &mut Exec, n: i64) -> R<i64> {
        let n = n.max(0);
        let data = self.alloc_words(ex, n as usize);
        let hdr = self.alloc_words(ex, 3);
        let (d, l) = (self.pool.konst(data), self.pool.konst(n));
        self.mem_store(ex, hdr, d)?;
        self.mem_store(ex, hdr + 1, l)?;
        self.mem_store(ex, hdr + 2, l)?;
        Ok(hdr)
    }

    /// Symbolic `apply_rmw`: forks on a possibly-zero divisor.
    fn apply_rmw_sym(&mut self, ex: &Exec, op: i64, x: TermId, y: TermId) -> R<TermId> {
        let b = rmw_binop(op).ok_or(Stop::Trap)?;
        if matches!(b, BinOp::Div | BinOp::Rem) {
            let zero = self.pool.konst(0);
            let eqz = self.pool.cmp(CmpOp::Eq, false, y, zero);
            if self.resolve_cond(ex, eqz)? {
                return Err(Stop::Trap); // DivByZero
            }
        }
        self.pool.bin(b, x, y).map_err(|_| Stop::Trap)
    }

    /// Dense-map ops at a non-negative handle (layout
    /// `[cap, size, present[cap], vals[cap]]`). Present flags and
    /// headers must resolve concrete; stored values stay symbolic.
    /// All fork-capable resolution happens before the first store.
    fn call_dense(&mut self, ex: &mut Exec, name: &str, args: &[TermId]) -> R<Option<TermId>> {
        let hdr = self.resolve(ex, args[0])?;
        let cap = self.mem_load_i64(ex, hdr)?;
        let in_bounds = |k: i64| (0..cap).contains(&k);
        match name {
            "rt_assoc_read" => {
                let k = self.resolve(ex, args[1])?;
                if !in_bounds(k) || self.mem_load_i64(ex, hdr + 2 + k)? == 0 {
                    return Err(Stop::Trap); // MissingKey
                }
                Ok(Some(self.mem_load(ex, hdr + 2 + cap + k)?))
            }
            "rt_assoc_write" => {
                let k = self.resolve(ex, args[1])?;
                let v = args[2];
                if !in_bounds(k) {
                    return Err(Stop::Trap); // BadAddress(k)
                }
                if self.mem_load_i64(ex, hdr + 2 + k)? == 0 {
                    let sz = self.mem_load_i64(ex, hdr + 1)?;
                    let one = self.pool.konst(1);
                    self.mem_store(ex, hdr + 2 + k, one)?;
                    let nsz = self.pool.konst(sz + 1);
                    self.mem_store(ex, hdr + 1, nsz)?;
                }
                self.mem_store(ex, hdr + 2 + cap + k, v)?;
                Ok(None)
            }
            "rt_assoc_rmw" => {
                let k = self.resolve(ex, args[1])?;
                if !in_bounds(k) || self.mem_load_i64(ex, hdr + 2 + k)? == 0 {
                    return Err(Stop::Trap); // MissingKey
                }
                let op = self.resolve(ex, args[2])?;
                let x = self.mem_load(ex, hdr + 2 + cap + k)?;
                let r = self.apply_rmw_sym(ex, op, x, args[3])?;
                self.mem_store(ex, hdr + 2 + cap + k, r)?;
                Ok(None)
            }
            "rt_assoc_has" => {
                let k = self.resolve(ex, args[1])?;
                let present = in_bounds(k) && self.mem_load_i64(ex, hdr + 2 + k)? != 0;
                Ok(Some(self.pool.konst(present as i64)))
            }
            "rt_assoc_remove" => {
                let k = self.resolve(ex, args[1])?;
                if in_bounds(k) && self.mem_load_i64(ex, hdr + 2 + k)? != 0 {
                    let sz = self.mem_load_i64(ex, hdr + 1)?;
                    let zero = self.pool.konst(0);
                    self.mem_store(ex, hdr + 2 + k, zero)?;
                    let nsz = self.pool.konst(sz - 1);
                    self.mem_store(ex, hdr + 1, nsz)?;
                }
                Ok(None)
            }
            "rt_assoc_size" => Ok(Some(self.mem_load(ex, hdr + 1)?)),
            "rt_assoc_copy" => {
                let out = self.alloc_words(ex, (2 + 2 * cap) as usize);
                for i in 0..2 + 2 * cap {
                    let v = self.mem_load(ex, hdr + i)?;
                    self.mem_store(ex, out + i, v)?;
                }
                Ok(Some(self.pool.konst(out)))
            }
            "rt_assoc_keys" => {
                // Present keys ascending, matching the concrete machine.
                let mut keys = Vec::new();
                for k in 0..cap {
                    if self.mem_load_i64(ex, hdr + 2 + k)? != 0 {
                        keys.push(k);
                    }
                }
                let out = self.seq_new(ex, keys.len() as i64)?;
                let odata = self.mem_load_i64(ex, out)?;
                for (i, k) in keys.iter().enumerate() {
                    let kt = self.pool.konst(*k);
                    self.mem_store(ex, odata + i as i64, kt)?;
                }
                Ok(Some(self.pool.konst(out)))
            }
            _ => Err(Stop::Trap), // UnknownRt
        }
    }

    /// Host hashtable ops at a negative handle.
    fn call_host_assoc(
        &mut self,
        ex: &mut Exec,
        name: &str,
        h: i64,
        args: &[TermId],
    ) -> R<Option<TermId>> {
        let idx = (-h - 1) as usize;
        if idx >= ex.assocs.len() {
            return Err(Stop::Trap); // bad handle
        }
        match name {
            "rt_assoc_copy" => {
                let cloned = ex.assocs[idx].clone();
                ex.assocs.push(cloned);
                Ok(Some(self.pool.konst(-(ex.assocs.len() as i64))))
            }
            "rt_assoc_write" => {
                let k = self.resolve(ex, args[1])?;
                let v = args[2];
                let entries = &mut ex.assocs[idx];
                if let Some(e) = entries.iter_mut().find(|(ek, _)| *ek == k) {
                    e.1 = v;
                } else {
                    entries.push((k, v));
                }
                Ok(None)
            }
            "rt_assoc_read" => {
                let k = self.resolve(ex, args[1])?;
                ex.assocs[idx]
                    .iter()
                    .find(|(ek, _)| *ek == k)
                    .map(|&(_, v)| Some(v))
                    .ok_or(Stop::Trap) // MissingKey
            }
            "rt_assoc_has" => {
                let k = self.resolve(ex, args[1])?;
                let present = ex.assocs[idx].iter().any(|(ek, _)| *ek == k);
                Ok(Some(self.pool.konst(present as i64)))
            }
            "rt_assoc_remove" => {
                let k = self.resolve(ex, args[1])?;
                ex.assocs[idx].retain(|(ek, _)| *ek != k);
                Ok(None)
            }
            "rt_assoc_rmw" => {
                let k = self.resolve(ex, args[1])?;
                let op = self.resolve(ex, args[2])?;
                let x = ex.assocs[idx]
                    .iter()
                    .find(|(ek, _)| *ek == k)
                    .map(|&(_, v)| v)
                    .ok_or(Stop::Trap)?; // MissingKey
                let r = self.apply_rmw_sym(ex, op, x, args[3])?;
                let e = ex.assocs[idx]
                    .iter_mut()
                    .find(|(ek, _)| *ek == k)
                    .expect("key present");
                e.1 = r;
                Ok(None)
            }
            "rt_assoc_size" => Ok(Some(self.pool.konst(ex.assocs[idx].len() as i64))),
            "rt_assoc_keys" => {
                let keys: Vec<i64> = ex.assocs[idx].iter().map(|&(k, _)| k).collect();
                let out = self.seq_new(ex, keys.len() as i64)?;
                let odata = self.mem_load_i64(ex, out)?;
                for (i, k) in keys.iter().enumerate() {
                    let kt = self.pool.konst(*k);
                    self.mem_store(ex, odata + i as i64, kt)?;
                }
                Ok(Some(self.pool.konst(out)))
            }
            _ => Err(Stop::Trap), // UnknownRt
        }
    }

    fn call_rt(&mut self, ex: &mut Exec, name: &str, args: &[TermId]) -> R<Option<TermId>> {
        match name {
            // Dense dispatch on the sign of a concrete handle.
            n if n.starts_with("rt_assoc_") && !args.is_empty() => {
                let h = self.resolve(ex, args[0])?;
                if h >= 0 {
                    self.call_dense(ex, n, args)
                } else {
                    self.call_host_assoc(ex, n, h, args)
                }
            }
            "rt_assoc_new" => {
                ex.assocs.push(Vec::new());
                Ok(Some(self.pool.konst(-(ex.assocs.len() as i64))))
            }
            "rt_dense_new" => {
                let cap = self.resolve(ex, args[0])?.max(0);
                let hdr = self.alloc_words(ex, (2 + 2 * cap) as usize);
                let (c, z) = (self.pool.konst(cap), self.pool.konst(0));
                self.mem_store(ex, hdr, c)?;
                self.mem_store(ex, hdr + 1, z)?;
                Ok(Some(self.pool.konst(hdr)))
            }
            "rt_seq_new" => {
                let n = self.resolve(ex, args[0])?;
                let hdr = self.seq_new(ex, n)?;
                Ok(Some(self.pool.konst(hdr)))
            }
            "rt_seq_grow" => {
                let hdr = self.resolve(ex, args[0])?;
                let want = self.resolve(ex, args[1])?;
                self.seq_grow(ex, hdr, want)?;
                Ok(None)
            }
            "rt_seq_insert" => {
                let hdr = self.resolve(ex, args[0])?;
                let at = self.resolve(ex, args[1])?;
                let v = args[2];
                let (_, len, _) = self.seq_parts(ex, hdr)?;
                self.seq_grow(ex, hdr, len + 1)?;
                let data = self.mem_load_i64(ex, hdr)?;
                let mut i = len;
                while i > at {
                    let x = self.mem_load(ex, data + i - 1)?;
                    self.mem_store(ex, data + i, x)?;
                    i -= 1;
                }
                self.mem_store(ex, data + at, v)?;
                let nl = self.pool.konst(len + 1);
                self.mem_store(ex, hdr + 1, nl)?;
                Ok(None)
            }
            "rt_seq_remove" => {
                let hdr = self.resolve(ex, args[0])?;
                let at = self.resolve(ex, args[1])?;
                let (data, len, _) = self.seq_parts(ex, hdr)?;
                for i in at..len - 1 {
                    let x = self.mem_load(ex, data + i + 1)?;
                    self.mem_store(ex, data + i, x)?;
                }
                let nl = self.pool.konst(len - 1);
                self.mem_store(ex, hdr + 1, nl)?;
                Ok(None)
            }
            "rt_seq_remove_range" => {
                let hdr = self.resolve(ex, args[0])?;
                let from = self.resolve(ex, args[1])?;
                let to = self.resolve(ex, args[2])?;
                let (data, len, _) = self.seq_parts(ex, hdr)?;
                let w = to - from;
                for i in from..len - w {
                    let x = self.mem_load(ex, data + i + w)?;
                    self.mem_store(ex, data + i, x)?;
                }
                let nl = self.pool.konst(len - w);
                self.mem_store(ex, hdr + 1, nl)?;
                Ok(None)
            }
            "rt_seq_splice" => {
                let hdr = self.resolve(ex, args[0])?;
                let at = self.resolve(ex, args[1])?;
                let src = self.resolve(ex, args[2])?;
                let (_, slen, _) = self.seq_parts(ex, src)?;
                let (_, len, _) = self.seq_parts(ex, hdr)?;
                self.seq_grow(ex, hdr, len + slen)?;
                let data = self.mem_load_i64(ex, hdr)?;
                let sdata = self.mem_load_i64(ex, src)?;
                let mut i = len;
                while i > at {
                    let x = self.mem_load(ex, data + i - 1)?;
                    self.mem_store(ex, data + i - 1 + slen, x)?;
                    i -= 1;
                }
                for i in 0..slen {
                    let x = self.mem_load(ex, sdata + i)?;
                    self.mem_store(ex, data + at + i, x)?;
                }
                let nl = self.pool.konst(len + slen);
                self.mem_store(ex, hdr + 1, nl)?;
                Ok(None)
            }
            "rt_seq_swap_range" => {
                let hdr = self.resolve(ex, args[0])?;
                let from = self.resolve(ex, args[1])?;
                let to = self.resolve(ex, args[2])?;
                let at = self.resolve(ex, args[3])?;
                let data = self.mem_load_i64(ex, hdr)?;
                for o in 0..(to - from) {
                    let a = self.mem_load(ex, data + from + o)?;
                    let b = self.mem_load(ex, data + at + o)?;
                    self.mem_store(ex, data + from + o, b)?;
                    self.mem_store(ex, data + at + o, a)?;
                }
                Ok(None)
            }
            "rt_seq_copy" => {
                let hdr = self.resolve(ex, args[0])?;
                let (data, len, _) = self.seq_parts(ex, hdr)?;
                let out = self.seq_new(ex, len)?;
                let odata = self.mem_load_i64(ex, out)?;
                for i in 0..len {
                    let v = self.mem_load(ex, data + i)?;
                    self.mem_store(ex, odata + i, v)?;
                }
                Ok(Some(self.pool.konst(out)))
            }
            "rt_seq_copy_range" => {
                let hdr = self.resolve(ex, args[0])?;
                let from = self.resolve(ex, args[1])?;
                let to = self.resolve(ex, args[2])?;
                let data = self.mem_load_i64(ex, hdr)?;
                let out = self.seq_new(ex, to - from)?;
                let odata = self.mem_load_i64(ex, out)?;
                for i in 0..(to - from) {
                    let v = self.mem_load(ex, data + from + i)?;
                    self.mem_store(ex, odata + i, v)?;
                }
                Ok(Some(self.pool.konst(out)))
            }
            "rt_seq_swap2" => {
                let ha = self.resolve(ex, args[0])?;
                let from = self.resolve(ex, args[1])?;
                let to = self.resolve(ex, args[2])?;
                let hb = self.resolve(ex, args[3])?;
                let at = self.resolve(ex, args[4])?;
                let da = self.mem_load_i64(ex, ha)?;
                let db = self.mem_load_i64(ex, hb)?;
                for o in 0..(to - from) {
                    let x = self.mem_load(ex, da + from + o)?;
                    let y = self.mem_load(ex, db + at + o)?;
                    self.mem_store(ex, da + from + o, y)?;
                    self.mem_store(ex, db + at + o, x)?;
                }
                Ok(None)
            }
            "rt_obj_new" => {
                let words = self.resolve(ex, args[0])?.max(1);
                let base = self.alloc_words(ex, words as usize);
                Ok(Some(self.pool.konst(base)))
            }
            "rt_obj_delete" => Ok(None),
            _ => Err(Stop::Trap), // UnknownRt
        }
    }

    /// Moves the top frame from its block into `target` in place,
    /// running `target`'s φ head as a parallel copy.
    fn jump(&mut self, f: &Function, ex: &mut Exec, target: Blk) -> R<StepOut> {
        let fr = ex.frames.last_mut().unwrap();
        let (pred, regs) = (Some(fr.block), &mut fr.regs);
        fr.at = enter_block(f, pred, target, regs, &mut self.phis, |regs, v| {
            regs.get(v).ok_or(Stop::Trap) // unbound phi operand
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

    /// Executes one instruction of the top frame. All fork-capable
    /// resolution happens before memory/assoc mutation or result binding
    /// (forked children re-execute the instruction from a clone of `ex`).
    fn step_inner(&mut self, ex: &mut Exec) -> R<StepOut> {
        let m = self.module;
        let frame = ex.frames.last().ok_or(Stop::Trap)?;
        let f: &Function = m.funcs.get(frame.fun.0 as usize).ok_or(Stop::Trap)?;
        let ins = *f.blocks[frame.block.0 as usize]
            .insts
            .get(frame.at)
            .ok_or(Stop::Trap)?; // fell off block: malformed
        let inst = &f.insts[ins.0 as usize];
        let getv = |regs: &RegFile<TermId>, v: Val| -> R<TermId> {
            regs.get(v).ok_or(Stop::Trap) // unbound value
        };
        // Binds the first result (if the instruction has one) and
        // advances.
        macro_rules! next {
            () => {{
                ex.frames.last_mut().unwrap().at += 1;
                return Ok(StepOut::Continue);
            }};
            ($v:expr) => {{
                let v: TermId = $v;
                let fr = ex.frames.last_mut().unwrap();
                if let Some(&r) = inst.results.first() {
                    fr.regs.set(r, v);
                }
                fr.at += 1;
                return Ok(StepOut::Continue);
            }};
        }
        match inst.op {
            Op::Const(c) => {
                let t = self.pool.konst(c);
                next!(t);
            }
            Op::Bin(op, a, b) => {
                let x = getv(&frame.regs, a)?;
                let y = getv(&frame.regs, b)?;
                let op = lower_binop(op);
                if matches!(op, BinOp::Div | BinOp::Rem) {
                    let zero = self.pool.konst(0);
                    let eqz = self.pool.cmp(CmpOp::Eq, false, y, zero);
                    if self.resolve_cond(ex, eqz)? {
                        return Err(Stop::Trap); // DivByZero
                    }
                }
                let t = self.pool.bin(op, x, y).map_err(|_| Stop::Trap)?;
                next!(t);
            }
            Op::Cmp(op, a, b) => {
                let x = getv(&frame.regs, a)?;
                let y = getv(&frame.regs, b)?;
                // lir comparisons are always signed.
                let t = self.pool.cmp(lower_cmpop(op), false, x, y);
                next!(t);
            }
            Op::Phi(_) => Err(Stop::Trap), // phi outside block head
            Op::Alloca(n) => {
                let base = self.alloc_words(ex, n as usize);
                let t = self.pool.konst(base);
                next!(t);
            }
            Op::Malloc(n) => {
                let nt = getv(&frame.regs, n)?;
                let words = self.resolve(ex, nt)?.max(0) as usize;
                let base = self.alloc_words(ex, words);
                let t = self.pool.konst(base);
                next!(t);
            }
            Op::Free(_) => next!(),
            Op::Load(a) => {
                let at = getv(&frame.regs, a)?;
                let addr = self.resolve(ex, at)?;
                let t = self.mem_load(ex, addr)?;
                next!(t);
            }
            Op::Store { addr, value } => {
                let at = getv(&frame.regs, addr)?;
                let v = getv(&frame.regs, value)?;
                let a = self.resolve(ex, at)?;
                self.mem_store(ex, a, v)?;
                next!();
            }
            Op::Gep { base, offset } => {
                let b = getv(&frame.regs, base)?;
                let o = getv(&frame.regs, offset)?;
                // `Add` folds with the same wrapping as the machine.
                let t = self.pool.bin(BinOp::Add, b, o).map_err(|_| Stop::Trap)?;
                next!(t);
            }
            Op::Call { func, ref args } => {
                let callee: &Function = m.funcs.get(func.0 as usize).ok_or(Stop::Trap)?;
                let mut regs = RegFile::new(callee);
                for (i, &a) in args.iter().enumerate() {
                    regs.set(Val(i as u32), getv(&frame.regs, a)?);
                }
                ex.frames.push(Frame {
                    fun: func,
                    block: callee.entry,
                    at: 0,
                    regs,
                });
                Ok(StepOut::Continue)
            }
            Op::CallRt {
                ref name, ref args, ..
            } => {
                // The argument buffer is reused across calls.
                let mut argv = std::mem::take(&mut self.rt_args);
                argv.clear();
                for &a in args {
                    argv.push(getv(&frame.regs, a)?);
                }
                let out = self.call_rt(ex, name, &argv);
                self.rt_args = argv;
                let fr = ex.frames.last_mut().unwrap();
                if let (Some(&r), Some(v)) = (inst.results.first(), out?) {
                    fr.regs.set(r, v);
                }
                fr.at += 1;
                Ok(StepOut::Continue)
            }
            Op::Jmp(b) => self.jump(f, ex, b),
            Op::Br {
                cond,
                then_b,
                else_b,
            } => {
                let c = getv(&frame.regs, cond)?;
                let taken = if self.resolve_cond(ex, c)? {
                    then_b
                } else {
                    else_b
                };
                self.jump(f, ex, taken)
            }
            Op::Ret(ref vs) => {
                let terms: Vec<TermId> =
                    vs.iter().map(|&v| getv(&frame.regs, v)).collect::<R<_>>()?;
                if ex.frames.len() == 1 {
                    return Ok(StepOut::End(PathEnd::Ret(terms)));
                }
                ex.frames.pop();
                let fr = ex.frames.last_mut().unwrap();
                let cf = &m.funcs[fr.fun.0 as usize];
                let call_ins = cf.blocks[fr.block.0 as usize].insts[fr.at];
                for (&r, v) in cf.insts[call_ins.0 as usize].results.iter().zip(terms) {
                    fr.regs.set(r, v);
                }
                fr.at += 1;
                Ok(StepOut::Continue)
            }
        }
    }
}
