//! Frame state of the lir executor.
//!
//! Each frame of a [`Machine`](crate::interp::Machine) keeps its SSA
//! values in a [`RegFile`]: one slot per value id, holding a concrete
//! word in [`LirMachine`](crate::LirMachine) and a symbolic term in
//! `symexec`'s path enumerator. [`enter_block`] is block entry (the φ
//! head as a parallel copy).

use crate::ir::{Blk, Function, Op, Val};

/// One slot per SSA value of a function, indexed by [`Val`]. A slot is
/// empty until its definition runs on the current path, so a use before
/// definition, or of an id at or beyond the function's `next_val`, reads
/// as unbound instead of panicking.
#[derive(Clone, Debug)]
pub struct RegFile<T> {
    slots: Vec<Option<T>>,
}

impl<T> RegFile<T> {
    /// A file with no slots: every value reads as unbound.
    pub fn empty() -> Self {
        RegFile { slots: Vec::new() }
    }
}

impl<T: Copy> RegFile<T> {
    /// An empty file with a slot for each of `f`'s values
    /// (`%0 .. %next_val`).
    pub fn new(f: &Function) -> Self {
        RegFile {
            slots: vec![None; f.next_val as usize],
        }
    }

    /// The value bound to `v`, if any.
    #[inline]
    pub fn get(&self, v: Val) -> Option<T> {
        self.slots.get(v.0 as usize).copied().flatten()
    }

    /// Binds `v`. Every result id a [`Function`] mints is below its
    /// `next_val`; a larger one (a hand-built instruction, or surplus
    /// call arguments) grows the file.
    #[inline]
    pub fn set(&mut self, v: Val, x: T) {
        let i = v.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(x);
    }
}

/// Why a block's φ head is malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhiFault {
    /// A φ in a block entered without a predecessor (the entry block).
    NoPred,
    /// A φ without an incoming value for the edge taken.
    MissingIncoming,
}

/// Enters `target` from `pred`: evaluates its leading φs as one parallel
/// copy (every incoming value is read through `read` before any φ result
/// is bound) and returns their count, the position of the first non-φ
/// instruction. `read` reports an unbound operand in the caller's own
/// error type. `buf` is scratch owned by the caller, so entering a block
/// allocates nothing once it has grown to the widest φ head.
pub fn enter_block<T: Copy, E: From<PhiFault>>(
    f: &Function,
    pred: Option<Blk>,
    target: Blk,
    regs: &mut RegFile<T>,
    buf: &mut Vec<T>,
    mut read: impl FnMut(&RegFile<T>, Val) -> Result<T, E>,
) -> Result<usize, E> {
    let insts = &f.blocks[target.0 as usize].insts;
    buf.clear();
    for &ins in insts {
        let Op::Phi(incs) = &f.insts[ins.0 as usize].op else {
            break;
        };
        let pred = pred.ok_or(PhiFault::NoPred)?;
        let &(_, v) = incs
            .iter()
            .find(|(b, _)| *b == pred)
            .ok_or(PhiFault::MissingIncoming)?;
        buf.push(read(regs, v)?);
    }
    for (&ins, &x) in insts.iter().zip(buf.iter()) {
        regs.set(f.insts[ins.0 as usize].results[0], x);
    }
    Ok(buf.len())
}
