//! The `LLVM opt` runtime twin: a middle-end-shaped workload — value
//! numbering with a hash-consing table, a worklist pass over instruction
//! objects, and per-block instruction sequences. The paper evaluated opt
//! for compilation-time and collection counts only (§VII-B: the MEMOIR
//! optimizations were not applicable), and we use it the same way, plus as
//! a Fig. 1 classification subject.

use crate::Rng;
use memoir_runtime::{stats, Assoc, ObjRef, ObjectHeap, Seq};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct OptlikeParams {
    /// Instructions to generate.
    pub insts: usize,
    /// Basic blocks.
    pub blocks: usize,
    /// Worklist passes.
    pub passes: usize,
}

impl Default for OptlikeParams {
    fn default() -> Self {
        OptlikeParams {
            insts: 60_000,
            blocks: 400,
            passes: 3,
        }
    }
}

/// Outcome.
#[derive(Clone, Debug)]
pub struct OptlikeOutcome {
    /// Number of redundant instructions discovered (the GVN hit count).
    pub redundant: usize,
    /// Ledger snapshot.
    pub ledger: stats::Ledger,
}

#[derive(Debug, Clone, Copy)]
struct SynthInst {
    opcode: u8,
    lhs: u32,
    rhs: u32,
    value_number: u32,
}

/// Runs the workload; resets the thread ledger first.
pub fn run_optlike(p: &OptlikeParams) -> OptlikeOutcome {
    stats::reset();
    let mut heap: ObjectHeap<SynthInst> = ObjectHeap::new(32);
    let mut rng = Rng(0x243F6A8885A308D3);

    // Blocks: sequences of instruction refs.
    let mut blocks: Seq<Seq<u32>> = Seq::new();
    let mut all: Seq<ObjRef> = Seq::new();
    for _ in 0..p.blocks {
        blocks.push(Seq::new());
    }
    for i in 0..p.insts {
        let r = heap.alloc(SynthInst {
            opcode: (rng.next() % 12) as u8,
            lhs: (rng.next() % 64) as u32,
            rhs: (rng.next() % 64) as u32,
            value_number: u32::MAX,
        });
        all.push(r);
        let b = (rng.next() % p.blocks as u64) as usize;
        // Store the instruction ordinal in its block.
        let mut blk = blocks.read(b).clone();
        blk.push(i as u32);
        blocks.write(b, blk);
    }

    // Value numbering passes: expression → value number via hash consing.
    let mut redundant = 0usize;
    for _ in 0..p.passes {
        let mut table: Assoc<u64, u32> = Assoc::new();
        let mut next_vn: u32 = 0;
        for i in 0..all.size() {
            let r = *all.read(i);
            let (op, l, rr) = heap.read(r, |x| (x.opcode, x.lhs, x.rhs));
            let key = ((op as u64) << 56) ^ ((l as u64) << 28) ^ rr as u64;
            stats::charge(2.0);
            if table.contains(&key) {
                let vn = *table.read(&key);
                heap.write(r, |x| x.value_number = vn);
                redundant += 1;
            } else {
                table.write(key, next_vn);
                heap.write(r, |x| x.value_number = next_vn);
                next_vn += 1;
            }
        }
    }
    OptlikeOutcome {
        redundant,
        ledger: stats::snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_with_hits() {
        let p = OptlikeParams {
            insts: 5_000,
            blocks: 50,
            passes: 2,
        };
        let a = run_optlike(&p);
        let b = run_optlike(&p);
        assert_eq!(a.redundant, b.redundant);
        assert!(a.redundant > 0, "hash consing finds duplicates");
    }

    #[test]
    fn traffic_spans_classes() {
        let p = OptlikeParams {
            insts: 5_000,
            blocks: 50,
            passes: 1,
        };
        let out = run_optlike(&p);
        use memoir_runtime::CollectionClass as C;
        assert!(out.ledger.class(C::Object).allocated > 0);
        assert!(out.ledger.class(C::Associative).allocated > 0);
        assert!(out.ledger.class(C::Sequential).allocated > 0);
    }
}
