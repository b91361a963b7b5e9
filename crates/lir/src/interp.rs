//! An interpreter for the low-level IR.
//!
//! Memory is a flat, word-addressed array grown by a bump allocator
//! (`free` is a no-op — lifetimes are measured at the MEMOIR level).
//! Opaque runtime routines (`rt_*`) are implemented by the host: sequence
//! helpers manipulate the same linear memory (their data is visible to
//! `load`/`store`), while associative arrays live in host tables —
//! mirroring a real libc++ `unordered_map` being opaque to the compiler
//! *and* to this paper's analyses.

use crate::ir::{BinOp, Blk, CmpOp, Fun, Function, Module, Op, Val};
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

/// The machine.
#[derive(Debug)]
pub struct LirMachine<'m> {
    module: &'m Module,
    /// Linear memory (word-addressed).
    pub mem: Vec<i64>,
    assocs: Vec<(HashMap<i64, i64>, Vec<i64>)>,
    /// Counters.
    pub stats: LirStats,
    fuel: u64,
    /// Scratch for the φ parallel copy at block entry.
    phis: Vec<i64>,
    /// Scratch for runtime-call arguments.
    rt_args: Vec<i64>,
}

const NULL_GUARD: usize = 16; // low addresses invalid

/// Applies an `rt_assoc_rmw`/dense-rmw opcode (the integer encoding of
/// `memoir_ir::BinOp` emitted by `memoir-lower::rmw_opcode`):
/// `0`=add `1`=sub `2`=mul `3`=div `4`=rem `5`=and `6`=or `7`=xor
/// `8`=shl `9`=shr `10`=min `11`=max.
fn apply_rmw(op: i64, x: i64, y: i64) -> Result<i64, LirTrap> {
    Ok(match op {
        0 => x.wrapping_add(y),
        1 => x.wrapping_sub(y),
        2 => x.wrapping_mul(y),
        3 => {
            if y == 0 {
                return Err(LirTrap::DivByZero);
            }
            x.wrapping_div(y)
        }
        4 => {
            if y == 0 {
                return Err(LirTrap::DivByZero);
            }
            x.wrapping_rem(y)
        }
        5 => x & y,
        6 => x | y,
        7 => x ^ y,
        8 => x.wrapping_shl(y as u32),
        9 => x.wrapping_shr(y as u32),
        10 => x.min(y),
        11 => x.max(y),
        _ => return Err(LirTrap::Malformed("bad rmw opcode")),
    })
}

impl<'m> LirMachine<'m> {
    /// Creates a machine.
    pub fn new(module: &'m Module) -> Self {
        LirMachine {
            module,
            mem: vec![0; NULL_GUARD],
            assocs: Vec::new(),
            stats: LirStats::default(),
            fuel: 200_000_000,
            phis: Vec::new(),
            rt_args: Vec::new(),
        }
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

    fn alloc_words(&mut self, n: usize) -> i64 {
        let base = self.mem.len() as i64;
        self.mem.resize(self.mem.len() + n.max(1), 0);
        base
    }

    fn load(&mut self, addr: i64) -> Result<i64, LirTrap> {
        self.stats.loads += 1;
        if addr < NULL_GUARD as i64 || addr as usize >= self.mem.len() {
            return Err(LirTrap::BadAddress(addr));
        }
        Ok(self.mem[addr as usize])
    }

    fn store(&mut self, addr: i64, v: i64) -> Result<(), LirTrap> {
        self.stats.stores += 1;
        if addr < NULL_GUARD as i64 || addr as usize >= self.mem.len() {
            return Err(LirTrap::BadAddress(addr));
        }
        self.mem[addr as usize] = v;
        Ok(())
    }

    /// Runs a function.
    pub fn run(&mut self, fid: Fun, args: Vec<i64>) -> Result<Vec<i64>, LirTrap> {
        let module = self.module;
        let f: &Function = &module.funcs[fid.0 as usize];
        let mut regs = RegFile::new(f);
        for (i, &a) in args.iter().enumerate() {
            regs.set(Val(i as u32), a);
        }
        let get = |regs: &RegFile<i64>, v: Val| -> Result<i64, LirTrap> {
            regs.get(v).ok_or(LirTrap::Malformed("unbound value"))
        };
        let mut block = f.entry;
        let mut prev: Option<Blk> = None;
        loop {
            let insts = &f.blocks[block.0 as usize].insts;
            // φs first (parallel); each counts as an instruction.
            let stats = &mut self.stats;
            let phis = enter_block(f, prev, block, &mut regs, &mut self.phis, |regs, v| {
                regs.get(v)
                    .inspect(|_| stats.insts += 1)
                    .ok_or(LirTrap::Malformed("unbound phi operand"))
            })?;

            let mut next: Option<Blk> = None;
            for &iid in &insts[phis..] {
                if self.stats.insts >= self.fuel {
                    return Err(LirTrap::OutOfFuel);
                }
                self.stats.insts += 1;
                let inst = &f.insts[iid.0 as usize];
                match inst.op {
                    Op::Const(c) => {
                        regs.set(inst.results[0], c);
                    }
                    Op::Bin(op, a, b) => {
                        let (x, y) = (get(&regs, a)?, get(&regs, b)?);
                        let r = match op {
                            BinOp::Add => x.wrapping_add(y),
                            BinOp::Sub => x.wrapping_sub(y),
                            BinOp::Mul => x.wrapping_mul(y),
                            BinOp::Div => {
                                if y == 0 {
                                    return Err(LirTrap::DivByZero);
                                }
                                x.wrapping_div(y)
                            }
                            BinOp::Rem => {
                                if y == 0 {
                                    return Err(LirTrap::DivByZero);
                                }
                                x.wrapping_rem(y)
                            }
                            BinOp::And => x & y,
                            BinOp::Or => x | y,
                            BinOp::Xor => x ^ y,
                            BinOp::Shl => x.wrapping_shl(y as u32),
                            BinOp::Shr => x.wrapping_shr(y as u32),
                        };
                        regs.set(inst.results[0], r);
                    }
                    Op::Cmp(op, a, b) => {
                        let (x, y) = (get(&regs, a)?, get(&regs, b)?);
                        let r = match op {
                            CmpOp::Eq => x == y,
                            CmpOp::Ne => x != y,
                            CmpOp::Lt => x < y,
                            CmpOp::Le => x <= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ge => x >= y,
                        };
                        regs.set(inst.results[0], r as i64);
                    }
                    Op::Phi(_) => return Err(LirTrap::Malformed("phi after non-phi")),
                    Op::Alloca(n) => {
                        let base = self.alloc_words(n as usize);
                        regs.set(inst.results[0], base);
                    }
                    Op::Malloc(n) => {
                        let words = get(&regs, n)?.max(0) as usize;
                        let base = self.alloc_words(words);
                        regs.set(inst.results[0], base);
                    }
                    Op::Free(_) => {}
                    Op::Load(a) => {
                        let v = self.load(get(&regs, a)?)?;
                        regs.set(inst.results[0], v);
                    }
                    Op::Store { addr, value } => {
                        let (a, v) = (get(&regs, addr)?, get(&regs, value)?);
                        self.store(a, v)?;
                    }
                    Op::Gep { base, offset } => {
                        let r = get(&regs, base)?.wrapping_add(get(&regs, offset)?);
                        regs.set(inst.results[0], r);
                    }
                    Op::Call { func, ref args } => {
                        let argv: Vec<i64> = args
                            .iter()
                            .map(|&a| get(&regs, a))
                            .collect::<Result<_, _>>()?;
                        let rets = self.run(func, argv)?;
                        for (&r, v) in inst.results.iter().zip(rets) {
                            regs.set(r, v);
                        }
                    }
                    Op::CallRt {
                        ref name, ref args, ..
                    } => {
                        self.stats.rt_calls += 1;
                        // The argument buffer is reused across calls.
                        let mut argv = std::mem::take(&mut self.rt_args);
                        argv.clear();
                        for &a in args {
                            argv.push(get(&regs, a)?);
                        }
                        let out = self.call_rt(name, &argv);
                        self.rt_args = argv;
                        if let (Some(&r), Some(v)) = (inst.results.first(), out?) {
                            regs.set(r, v);
                        }
                    }
                    Op::Jmp(b) => {
                        next = Some(b);
                        break;
                    }
                    Op::Br {
                        cond,
                        then_b,
                        else_b,
                    } => {
                        next = Some(if get(&regs, cond)? != 0 {
                            then_b
                        } else {
                            else_b
                        });
                        break;
                    }
                    Op::Ret(ref vs) => {
                        return vs.iter().map(|&v| get(&regs, v)).collect();
                    }
                }
            }
            match next {
                Some(b) => {
                    prev = Some(block);
                    block = b;
                }
                None => return Err(LirTrap::Malformed("fell off block")),
            }
        }
    }

    /// Sequence header layout: `[data, len, cap]` at the handle address.
    fn seq_parts(&mut self, hdr: i64) -> Result<(i64, i64, i64), LirTrap> {
        Ok((self.load(hdr)?, self.load(hdr + 1)?, self.load(hdr + 2)?))
    }

    /// Dense-map operations at a non-negative assoc handle. Layout in
    /// linear memory: `[cap, size, present[cap], vals[cap]]` at `hdr`.
    /// The repr analysis proved every key in `0 .. cap`, so an
    /// out-of-bound read/write is a compiler bug and traps loudly
    /// (`has` stays total: absent, not a trap).
    fn call_dense(&mut self, name: &str, args: &[i64]) -> Result<Option<i64>, LirTrap> {
        let hdr = args[0];
        let cap = self.load(hdr)?;
        let in_bounds = |k: i64| (0..cap).contains(&k);
        match name {
            "rt_assoc_read" => {
                let k = args[1];
                if !in_bounds(k) || self.load(hdr + 2 + k)? == 0 {
                    return Err(LirTrap::MissingKey);
                }
                Ok(Some(self.load(hdr + 2 + cap + k)?))
            }
            "rt_assoc_write" => {
                let (k, v) = (args[1], args[2]);
                if !in_bounds(k) {
                    return Err(LirTrap::BadAddress(k));
                }
                if self.load(hdr + 2 + k)? == 0 {
                    self.store(hdr + 2 + k, 1)?;
                    let sz = self.load(hdr + 1)?;
                    self.store(hdr + 1, sz + 1)?;
                }
                self.store(hdr + 2 + cap + k, v)?;
                Ok(None)
            }
            "rt_assoc_rmw" => {
                let k = args[1];
                if !in_bounds(k) || self.load(hdr + 2 + k)? == 0 {
                    return Err(LirTrap::MissingKey);
                }
                let x = self.load(hdr + 2 + cap + k)?;
                let r = apply_rmw(args[2], x, args[3])?;
                self.store(hdr + 2 + cap + k, r)?;
                Ok(None)
            }
            "rt_assoc_has" => {
                let k = args[1];
                let present = in_bounds(k) && self.load(hdr + 2 + k)? != 0;
                Ok(Some(present as i64))
            }
            "rt_assoc_remove" => {
                let k = args[1];
                if in_bounds(k) && self.load(hdr + 2 + k)? != 0 {
                    self.store(hdr + 2 + k, 0)?;
                    let sz = self.load(hdr + 1)?;
                    self.store(hdr + 1, sz - 1)?;
                }
                Ok(None)
            }
            "rt_assoc_size" => Ok(Some(self.load(hdr + 1)?)),
            "rt_assoc_copy" => {
                let out = self.alloc_words((2 + 2 * cap) as usize);
                for i in 0..2 + 2 * cap {
                    let v = self.load(hdr + i)?;
                    self.store(out + i, v)?;
                }
                Ok(Some(out))
            }
            "rt_assoc_keys" => {
                // Present keys ascending — selection never fires when a
                // `keys` op is reachable, so this order is unobservable;
                // it matches `memoir_runtime::DenseMap::keys`.
                let mut keys = Vec::new();
                for k in 0..cap {
                    if self.load(hdr + 2 + k)? != 0 {
                        keys.push(k);
                    }
                }
                let out = self.call_rt("rt_seq_new", &[keys.len() as i64])?.unwrap();
                let (odata, _, _) = self.seq_parts(out)?;
                for (i, k) in keys.iter().enumerate() {
                    self.store(odata + i as i64, *k)?;
                }
                Ok(Some(out))
            }
            other => Err(LirTrap::UnknownRt(other.to_string())),
        }
    }

    fn call_rt(&mut self, name: &str, args: &[i64]) -> Result<Option<i64>, LirTrap> {
        match name {
            // Dense dispatch: a non-negative assoc handle is a dense
            // direct-indexed map living in linear memory (emitted by the
            // adaptive `rt_dense_new` lowering); a negative handle is a
            // host hashtable as before.
            n if n.starts_with("rt_assoc_") && args.first().is_some_and(|&h| h >= 0) => {
                self.call_dense(n, args)
            }
            "rt_dense_new" => {
                let cap = args[0].max(0);
                let hdr = self.alloc_words((2 + 2 * cap) as usize);
                self.store(hdr, cap)?;
                self.store(hdr + 1, 0)?;
                Ok(Some(hdr))
            }
            // ------------------------------------------------- sequences
            "rt_seq_new" => {
                let n = args[0].max(0);
                let data = self.alloc_words(n as usize);
                let hdr = self.alloc_words(3);
                self.store(hdr, data)?;
                self.store(hdr + 1, n)?;
                self.store(hdr + 2, n)?;
                Ok(Some(hdr))
            }
            "rt_seq_grow" => {
                // Ensure capacity ≥ args[1] for handle args[0].
                let hdr = args[0];
                let want = args[1];
                let (data, len, cap) = self.seq_parts(hdr)?;
                if want > cap {
                    let new_cap = (cap * 2).max(want).max(4);
                    let new_data = self.alloc_words(new_cap as usize);
                    for i in 0..len {
                        let v = self.load(data + i)?;
                        self.store(new_data + i, v)?;
                    }
                    self.store(hdr, new_data)?;
                    self.store(hdr + 2, new_cap)?;
                }
                Ok(None)
            }
            "rt_seq_insert" => {
                let (hdr, at, v) = (args[0], args[1], args[2]);
                let (_, len, _) = self.seq_parts(hdr)?;
                self.call_rt("rt_seq_grow", &[hdr, len + 1])?;
                let (data, len, _) = self.seq_parts(hdr)?;
                let mut i = len;
                while i > at {
                    let x = self.load(data + i - 1)?;
                    self.store(data + i, x)?;
                    i -= 1;
                }
                self.store(data + at, v)?;
                self.store(hdr + 1, len + 1)?;
                Ok(None)
            }
            "rt_seq_remove" => {
                let (hdr, at) = (args[0], args[1]);
                let (data, len, _) = self.seq_parts(hdr)?;
                for i in at..len - 1 {
                    let x = self.load(data + i + 1)?;
                    self.store(data + i, x)?;
                }
                self.store(hdr + 1, len - 1)?;
                Ok(None)
            }
            "rt_seq_remove_range" => {
                let (hdr, from, to) = (args[0], args[1], args[2]);
                let (data, len, _) = self.seq_parts(hdr)?;
                let w = to - from;
                for i in from..len - w {
                    let x = self.load(data + i + w)?;
                    self.store(data + i, x)?;
                }
                self.store(hdr + 1, len - w)?;
                Ok(None)
            }
            "rt_seq_splice" => {
                let (hdr, at, src) = (args[0], args[1], args[2]);
                let (_, slen, _) = self.seq_parts(src)?;
                let (_, len, _) = self.seq_parts(hdr)?;
                self.call_rt("rt_seq_grow", &[hdr, len + slen])?;
                let (data, len, _) = self.seq_parts(hdr)?;
                let (sdata, slen, _) = self.seq_parts(src)?;
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
                self.store(hdr + 1, len + slen)?;
                Ok(None)
            }
            "rt_seq_swap_range" => {
                let (hdr, from, to, at) = (args[0], args[1], args[2], args[3]);
                let (data, _, _) = self.seq_parts(hdr)?;
                for o in 0..(to - from) {
                    let a = self.load(data + from + o)?;
                    let b = self.load(data + at + o)?;
                    self.store(data + from + o, b)?;
                    self.store(data + at + o, a)?;
                }
                Ok(None)
            }
            "rt_seq_copy" => {
                let hdr = args[0];
                let (data, len, _) = self.seq_parts(hdr)?;
                let out = self.call_rt("rt_seq_new", &[len])?.unwrap();
                let (odata, _, _) = self.seq_parts(out)?;
                for i in 0..len {
                    let v = self.load(data + i)?;
                    self.store(odata + i, v)?;
                }
                Ok(Some(out))
            }
            "rt_seq_copy_range" => {
                let (hdr, from, to) = (args[0], args[1], args[2]);
                let (data, _, _) = self.seq_parts(hdr)?;
                let out = self.call_rt("rt_seq_new", &[to - from])?.unwrap();
                let (odata, _, _) = self.seq_parts(out)?;
                for i in 0..(to - from) {
                    let v = self.load(data + from + i)?;
                    self.store(odata + i, v)?;
                }
                Ok(Some(out))
            }
            "rt_seq_swap2" => {
                let (ha, from, to, hb, at) = (args[0], args[1], args[2], args[3], args[4]);
                let (da, _, _) = self.seq_parts(ha)?;
                let (db, _, _) = self.seq_parts(hb)?;
                for o in 0..(to - from) {
                    let x = self.load(da + from + o)?;
                    let y = self.load(db + at + o)?;
                    self.store(da + from + o, y)?;
                    self.store(db + at + o, x)?;
                }
                Ok(None)
            }
            // ------------------------------------------------ assoc (host)
            "rt_assoc_copy" => {
                let idx = (-args[0] - 1) as usize;
                let cloned = self.assocs[idx].clone();
                self.assocs.push(cloned);
                Ok(Some(-(self.assocs.len() as i64)))
            }
            "rt_assoc_new" => {
                self.assocs.push((HashMap::new(), Vec::new()));
                Ok(Some(-(self.assocs.len() as i64)))
            }
            "rt_assoc_write" => {
                let idx = (-args[0] - 1) as usize;
                let (map, order) = &mut self.assocs[idx];
                if !map.contains_key(&args[1]) {
                    order.push(args[1]);
                }
                map.insert(args[1], args[2]);
                Ok(None)
            }
            "rt_assoc_read" => {
                let idx = (-args[0] - 1) as usize;
                self.assocs[idx]
                    .0
                    .get(&args[1])
                    .copied()
                    .map(Some)
                    .ok_or(LirTrap::MissingKey)
            }
            "rt_assoc_has" => {
                let idx = (-args[0] - 1) as usize;
                Ok(Some(self.assocs[idx].0.contains_key(&args[1]) as i64))
            }
            "rt_assoc_remove" => {
                let idx = (-args[0] - 1) as usize;
                let (map, order) = &mut self.assocs[idx];
                if map.remove(&args[1]).is_some() {
                    order.retain(|&k| k != args[1]);
                }
                Ok(None)
            }
            "rt_assoc_rmw" => {
                // Fused read-modify-write (`mut.rmw` lowering): the
                // read-half traps on a missing key exactly like
                // `rt_assoc_read`, then the combined value is stored
                // without re-hashing.
                let idx = (-args[0] - 1) as usize;
                let x = *self.assocs[idx]
                    .0
                    .get(&args[1])
                    .ok_or(LirTrap::MissingKey)?;
                let r = apply_rmw(args[2], x, args[3])?;
                self.assocs[idx].0.insert(args[1], r);
                Ok(None)
            }
            "rt_assoc_size" => {
                let idx = (-args[0] - 1) as usize;
                Ok(Some(self.assocs[idx].0.len() as i64))
            }
            "rt_assoc_keys" => {
                // Returns a fresh sequence of the keys.
                let idx = (-args[0] - 1) as usize;
                let keys: Vec<i64> = {
                    let (map, order) = &self.assocs[idx];
                    order
                        .iter()
                        .copied()
                        .filter(|k| map.contains_key(k))
                        .collect()
                };
                let out = self.call_rt("rt_seq_new", &[keys.len() as i64])?.unwrap();
                let (odata, _, _) = self.seq_parts(out)?;
                for (i, k) in keys.iter().enumerate() {
                    self.store(odata + i as i64, *k)?;
                }
                Ok(Some(out))
            }
            // ------------------------------------------------------ misc
            "rt_obj_new" => {
                let words = args[0].max(1);
                Ok(Some(self.alloc_words(words as usize)))
            }
            "rt_obj_delete" => Ok(None),
            other => Err(LirTrap::UnknownRt(other.to_string())),
        }
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
