//! The Smallbank kernel at the IR level (DESIGN §16): an assoc-heavy
//! read-modify-write transaction loop over two account tables keyed by a
//! masked (provably bounded) customer id.
//!
//! This is the automatic-optimization subject matching the
//! [`crate::smallbank`] runtime twin: every balance update is written as
//! the naive `read → bin → mut_write` chain so the fusion pass can
//! rewrite it into a single-pass `RMW`, and every key is an `& 0x3FF`
//! mask of a hash so the representation analysis can prove the key space
//! bounded and lower both tables to the dense direct-indexed layout.
//! The duplicate `size` queries at the exit are fodder for the fusion
//! pass's redundant-query merging.

use memoir_ir::{BinOp, CmpOp, Form, Module, ModuleBuilder, Type};

/// Number of customers (the masked key-space bound).
pub const CUSTOMERS: u64 = 1_024;

/// Builds the Smallbank kernel: `bank(txns: index) -> i64` returns a
/// deterministic checksum over the balances the transaction mix observed.
pub fn build_smallbank_ir() -> Module {
    let mut mb = ModuleBuilder::new("smallbank");
    mb.func("bank", Form::Mut, |b| {
        let idxt = b.ty(Type::Index);
        let i64t = b.ty(Type::I64);
        let txns = b.param("txns", idxt);
        let checking = b.new_assoc(i64t, i64t);
        let savings = b.new_assoc(i64t, i64t);
        let mask = b.i64(CUSTOMERS as i64 - 1);
        let zero_i = b.index(0);
        let one_i = b.index(1);
        let zero64 = b.i64(0);
        let seed0 = b.i64(0x1CEB00DA);
        let c_cust = b.index(CUSTOMERS);
        let c_init_chk = b.i64(1_000);
        let c_init_sav = b.i64(5_000);

        let ih = b.block("init_header");
        let ib = b.block("init_body");
        let mh = b.block("txn_header");
        let tb = b.block("txn_body");
        let exit = b.block("exit");
        let entry = b.func.entry;
        b.jump(ih);

        // Open every account: keys are masked so the bound is provable at
        // every write site, not just the transaction loop.
        b.switch_to(ih);
        let j = b.phi_placeholder(idxt);
        b.add_phi_incoming(j, entry, zero_i);
        let init_done = b.cmp(CmpOp::Ge, j, c_cust);
        b.branch(init_done, mh, ib);

        b.switch_to(ib);
        let jc = b.cast(Type::I64, j);
        let keyj = b.bin(BinOp::And, jc, mask);
        b.mut_write(checking, keyj, c_init_chk);
        b.mut_write(savings, keyj, c_init_sav);
        let j2 = b.add(j, one_i);
        b.add_phi_incoming(j, ib, j2);
        b.jump(ih);

        // The transaction loop.
        b.switch_to(mh);
        let i = b.phi_placeholder(idxt);
        let seed = b.phi_placeholder(i64t);
        let obj = b.phi_placeholder(i64t);
        b.add_phi_incoming(i, ih, zero_i);
        b.add_phi_incoming(seed, ih, seed0);
        b.add_phi_incoming(obj, ih, zero64);
        let done = b.cmp(CmpOp::Ge, i, txns);
        b.branch(done, exit, tb);

        b.switch_to(tb);
        // xorshift.
        let c13 = b.i64(13);
        let c7 = b.i64(7);
        let c17 = b.i64(17);
        let t1 = b.bin(BinOp::Shl, seed, c13);
        let s1 = b.bin(BinOp::Xor, seed, t1);
        let t2 = b.bin(BinOp::Shr, s1, c7);
        let s2 = b.bin(BinOp::Xor, s1, t2);
        let t3 = b.bin(BinOp::Shl, s2, c17);
        let s3 = b.bin(BinOp::Xor, s2, t3);
        // Customer id and amount.
        let key = b.bin(BinOp::And, s3, mask);
        let c24 = b.i64(24);
        let c255 = b.i64(0xFF);
        let sh = b.bin(BinOp::Shr, s3, c24);
        let amt = b.bin(BinOp::And, sh, c255);
        // deposit_checking: the naive RMW chain fusion turns into one
        // storage pass.
        let v = b.read(checking, key);
        let v2 = b.bin(BinOp::Add, v, amt);
        b.mut_write(checking, key, v2);
        // transact_savings on the same customer.
        let w = b.read(savings, key);
        let w2 = b.bin(BinOp::Sub, w, amt);
        b.mut_write(savings, key, w2);
        // send_payment leg to a second (also masked) customer.
        let c13b = b.i64(13);
        let sh2 = b.bin(BinOp::Shr, s3, c13b);
        let key2 = b.bin(BinOp::And, sh2, mask);
        let one64 = b.i64(1);
        let u = b.read(checking, key2);
        let u2 = b.bin(BinOp::Add, u, one64);
        b.mut_write(checking, key2, u2);
        // Observe low bits of the updated balances.
        let b1 = b.bin(BinOp::And, v2, one64);
        let b2 = b.bin(BinOp::And, w2, one64);
        let acc1 = b.add(obj, b1);
        let acc2 = b.add(acc1, b2);
        let i2 = b.add(i, one_i);
        b.add_phi_incoming(i, tb, i2);
        b.add_phi_incoming(seed, tb, s3);
        b.add_phi_incoming(obj, tb, acc2);
        b.jump(mh);

        b.switch_to(exit);
        // Redundant queries for the fusion pass's folding to collapse.
        let sz1 = b.size(checking);
        let sz2 = b.size(checking);
        let sc1 = b.cast(Type::I64, sz1);
        let sc2 = b.cast(Type::I64, sz2);
        let szsum = b.add(sc1, sc2);
        let total = b.add(obj, szsum);
        b.returns(&[i64t]);
        b.ret(vec![total]);
    });
    let mut m = mb.finish();
    m.entry = m.func_by_name("bank");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_analysis::choose_reprs;
    use memoir_interp::{Interp, Value};
    use memoir_ir::Repr;

    fn run(m: &Module, n: i64) -> i64 {
        let mut i = Interp::new(m).with_fuel(200_000_000);
        i.run_by_name("bank", vec![Value::Int(Type::Index, n)])
            .unwrap()[0]
            .as_int()
            .unwrap()
    }

    #[test]
    fn deterministic_and_nontrivial() {
        let m = build_smallbank_ir();
        memoir_ir::verifier::assert_valid(&m);
        let a = run(&m, 2_000);
        assert_eq!(a, run(&m, 2_000));
        // 2 × CUSTOMERS from the size queries, plus observed balance bits.
        assert!(a >= 2 * CUSTOMERS as i64, "checksum too small: {a}");
    }

    /// The O3 pipeline (which includes fusion) preserves the checksum.
    #[test]
    fn pipeline_o3_preserves_semantics() {
        let m0 = build_smallbank_ir();
        let mut m = m0.clone();
        memoir_opt::compile(
            &mut m,
            memoir_opt::OptLevel::O3(memoir_opt::OptConfig::all()),
        )
        .unwrap();
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(run(&m0, 1_500), run(&m, 1_500));
    }

    /// The masked keys make both tables dense-selectable.
    #[test]
    fn repr_analysis_selects_dense_for_both_tables() {
        let m = build_smallbank_ir();
        let choices = choose_reprs(&m);
        let dense: Vec<_> = choices
            .values()
            .filter(|r| matches!(r, Repr::Dense { cap } if *cap == CUSTOMERS))
            .collect();
        assert_eq!(
            dense.len(),
            2,
            "both account tables must select Dense{{cap: {CUSTOMERS}}}: {choices:?}"
        );
    }
}
