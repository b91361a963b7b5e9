//! Frame state of the MEMOIR executor.
//!
//! Each frame of a [`Machine`](crate::Machine) keeps its SSA values in a
//! [`RegFile`]: one slot per entry of the function's value arena, holding
//! a [`Value`](crate::Value) in [`Interp`](crate::Interp) and a symbolic
//! value in `symexec`'s path enumerator. [`enter_block`] is block entry
//! (the φ head as a parallel copy).

use memoir_ir::{BlockId, Function, InstKind, ValueId};

/// One slot per SSA value of a function, indexed by [`ValueId`]. A slot
/// is empty until its definition runs on the current path, so a use
/// before definition reads as unbound instead of panicking. A frame's
/// file starts as a copy of its function's constant table, so constants
/// read like any other bound value.
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
    /// An empty file with a slot for each value in `f`'s arena.
    pub fn new(f: &Function) -> Self {
        RegFile {
            slots: vec![None; f.values.len()],
        }
    }

    /// The value bound to `v`, if any.
    #[inline(always)]
    pub fn get(&self, v: ValueId) -> Option<T> {
        *self.slots.get(v.index())?
    }

    /// Binds `v`. Every id a [`Function`] mints indexes its arena; one
    /// from elsewhere grows the file.
    #[inline(always)]
    pub fn set(&mut self, v: ValueId, x: T) {
        match self.slots.get_mut(v.index()) {
            Some(slot) => *slot = Some(x),
            None => self.grow(v, x),
        }
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, v: ValueId, x: T) {
        self.slots.resize(v.index() + 1, None);
        self.slots[v.index()] = Some(x);
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
    pred: Option<BlockId>,
    target: BlockId,
    regs: &mut RegFile<T>,
    buf: &mut Vec<T>,
    mut read: impl FnMut(&RegFile<T>, ValueId) -> Result<T, E>,
) -> Result<usize, E> {
    let insts = &f.blocks[target].insts;
    buf.clear();
    for &iid in insts {
        let InstKind::Phi { incoming } = &f.insts[iid].kind else {
            break;
        };
        let pred = pred.ok_or(PhiFault::NoPred)?;
        let &(_, v) = incoming
            .iter()
            .find(|(b, _)| *b == pred)
            .ok_or(PhiFault::MissingIncoming)?;
        buf.push(read(regs, v)?);
    }
    let n = buf.len();
    for (&iid, x) in insts.iter().zip(buf.drain(..)) {
        regs.set(f.insts[iid].results[0], x);
    }
    Ok(n)
}
