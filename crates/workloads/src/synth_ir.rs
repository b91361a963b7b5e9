//! A SPEC-shaped synthetic IR generator for the pass-analysis figures
//! (§VII-D). The paper instruments LLVM passes over whole-program SPEC
//! bitcode; our hand-written kernels are far smaller, so this module
//! generates modules with the *op mix* of lowered C/C++ — cross-block
//! scalar chains (sink candidates), loads separated from stores by
//! may-write operations (blocked sinks, failed load folds), constant
//! stores (occasional load-fold successes), hash-table calls (opaque
//! barriers), and object field traffic.

use crate::Rng;
use memoir_ir::{BinOp, CmpOp, Field, Form, Module, ModuleBuilder, Type};

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Builds a synthetic module with `nfuncs` SPEC-shaped functions.
pub fn build_synth_ir(nfuncs: usize, seed: u64) -> Module {
    let mut rng = Rng(seed | 1);
    let mut mb = ModuleBuilder::new("synth");
    let i64t = mb.module.types.intern(Type::I64);
    let obj = mb
        .module
        .types
        .define_object(
            "rec",
            vec![
                Field {
                    name: "a".into(),
                    ty: i64t,
                },
                Field {
                    name: "b".into(),
                    ty: i64t,
                },
            ],
        )
        .unwrap();

    for k in 0..nfuncs {
        let c1 = rng.below(100) as i64;
        let c2 = rng.below(50) as i64 + 1;
        let use_assoc = rng.below(3) == 0;
        let blocked_read = rng.below(2) == 0;
        let fold_pair = rng.below(2) == 0;
        mb.func(&format!("work_{k}"), Form::Mut, |b| {
            let seqt = b.types.seq_of(i64t);
            let s = b.param_ref("s", seqt);
            let x = b.param("x", i64t);

            // Entry: reads and scalar chains. `u` is single-use in one arm
            // (a sink candidate); `v` is a read separated from its use by
            // a store (a may-write barrier after lowering).
            let i0 = b.index(0);
            let i1 = b.index(1);
            let i2 = b.index(2);
            let i3 = b.index(3);
            let r0 = b.read(s, i0);
            let r1 = b.read(s, i1);
            let c1v = b.i64(c1);
            let c_half = b.i64(c2 / 2);
            // Constant arithmetic the folder resolves (scalar successes
            // after lowering).
            let kk = b.add(c1v, c_half);
            let kk2 = b.mul(kk, c_half);
            let t0 = b.mul(x, kk);
            let t = b.add(t0, kk2);
            let u = b.add(r0, r1);
            let v = if blocked_read {
                Some(b.read(s, i2))
            } else {
                None
            };
            // A store the sinker must respect.
            let stored = b.i64(c2);
            b.mut_write(s, i3, stored);
            if fold_pair {
                // Read back the just-stored constant: in-block forwarding
                // folds this at the MEMOIR level; after lowering the
                // distinct gep chains defeat the tracker (load fail).
                let back = b.read(s, i3);
                let _dead = b.add(back, c1v);
            }
            if use_assoc {
                let a = b.new_assoc(i64t, i64t);
                let key = b.i64(c1 % 7);
                b.mut_write(a, key, t);
                let _probe = b.has(a, key);
            }
            // A local stack-eligible scratch sequence: after lowering
            // (alloca) + mem2reg + GVN, the constant store feeds the read
            // back — the rare load-fold *success* of Fig. 12.
            let scr_n = b.index(4);
            let scratch = b.new_seq(i64t, scr_n);
            let two_i = b.index(2);
            let cst = b.i64(c2 + 1);
            b.mut_write(scratch, two_i, cst);
            let back2 = b.read(scratch, two_i);
            let _use = b.add(back2, c1v);
            // Object traffic.
            let o = b.new_obj(obj);
            b.field_write(o, obj, 0, t);
            let fa = b.field_read(o, obj, 0);

            let c2v = b.i64(c2);
            let cond = b.cmp(CmpOp::Gt, x, c2v);
            let arm_a = b.block("arm_a");
            let arm_b = b.block("arm_b");
            let join = b.block("join");
            b.branch(cond, arm_a, arm_b);

            b.switch_to(arm_a);
            let ya = b.add(u, t); // consumes the sink candidate
            let ya2 = b.bin(BinOp::Xor, ya, fa);
            b.jump(join);

            b.switch_to(arm_b);
            let yb = match v {
                Some(v) => b.mul(v, c2v), // consumes the blocked read
                None => b.mul(x, c2v),
            };
            b.jump(join);

            b.switch_to(join);
            let y = b.phi(i64t, vec![(arm_a, ya2), (arm_b, yb)]);
            b.returns(&[i64t]);
            b.ret(vec![y]);
        });
    }
    mb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_verifies_and_lowers() {
        let m = build_synth_ir(20, 42);
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(m.funcs.len(), 20);
        let lowered = memoir_lower::lower_module(&m).unwrap();
        assert!(lowered.inst_count() > 400);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = memoir_ir::printer::print_module(&build_synth_ir(5, 7));
        let b = memoir_ir::printer::print_module(&build_synth_ir(5, 7));
        assert_eq!(a, b);
    }

    /// The generated mix produces meaningful pass-analysis counters after
    /// lowering (the Figs. 10–12 requirement).
    #[test]
    fn lowered_mix_exercises_pass_counters() {
        let m = build_synth_ir(40, 1);
        let lowered = memoir_lower::lower_module(&m).unwrap();
        let mut g = lowered.clone();
        let gvn = lir::gvn(&mut g);
        assert!(gvn.memory_fraction() > 0.25, "{}", gvn.memory_fraction());

        let mut s = lowered.clone();
        let sink = lir::sink(&mut s);
        assert!(sink.attempts() > 20, "{sink:?}");
        assert!(
            sink.blocked_may_write + sink.blocked_may_reference > 0,
            "{sink:?}"
        );
        assert!(sink.success > 0, "{sink:?}");

        let mut c = lowered.clone();
        let cf = lir::constfold(&mut c);
        assert!(cf.load_fail > 0, "{cf:?}");
        assert!(cf.scalar_success > 0, "{cf:?}");
    }
}
