//! The `whole-program` workload: seeded SPEC-shaped `synth_ir` modules
//! of tens to 120 functions, compiled only. Every output must pass the
//! lir verifier and be byte-identical to the module's first compile.

use crate::compile::{self, compile_staged, CompileTotals, Config};
use crate::metrics::Layers;
use crate::seed;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Window, Workload};
use memoir_ir::Module;
use memoir_opt::lowering::LoweredPipeline;
use std::time::Instant;
use workloads::synth_ir::build_synth_ir;

/// Function counts of the modules in one round. The sizes are fixed so
/// that every seed does the same amount of work; the seed picks the
/// functions. Two modules of each size up to 80 smooth out how much one
/// module's contents sway the latency percentiles.
pub const SIZES: [usize; 21] = [
    6, 6, 10, 10, 14, 14, 20, 20, 24, 24, 32, 32, 40, 40, 48, 48, 64, 64, 80, 80, 120,
];

/// The `synth_ir` generator seed of each module.
pub fn module_seeds(seed: u64) -> Vec<u64> {
    (0..SIZES.len() as u64)
        .map(|i| seed::mix(seed, i))
        .collect()
}

/// The whole-program workload's state after set-up.
pub struct WholeProgram {
    modules: Vec<Module>,
    /// Each module's first compile, printed.
    expected: Vec<String>,
    pipeline: LoweredPipeline,
    build_s: f64,
    code_insts: f64,
}

/// Whether a compiled module verifies and prints as `expected`.
fn check(lm: &lir::Module, expected: &str) -> bool {
    lir::verifier::verify_module(lm).is_empty() && lir::printer::print_module(lm) == expected
}

impl Workload for WholeProgram {
    fn setup(seed: u64) -> Result<Self, String> {
        let t = Instant::now();
        let modules: Vec<Module> = SIZES
            .iter()
            .zip(module_seeds(seed))
            .map(|(&n, s)| build_synth_ir(n, s))
            .collect();
        let build_s = t.elapsed().as_secs_f64();
        let pipeline = compile::pipeline(Config::Optimized);
        // Warm-up: the first compile of each module is the reference.
        let mut expected = Vec::new();
        let mut code_insts = 0.0;
        for m in &modules {
            let lm = compile::compile(m, &pipeline)?;
            let errs = lir::verifier::verify_module(&lm);
            if !errs.is_empty() {
                return Err(format!("whole-program output fails verification: {errs:?}"));
            }
            code_insts += lm.inst_count() as f64;
            expected.push(lir::printer::print_module(&lm));
        }
        Ok(WholeProgram {
            modules,
            expected,
            pipeline,
            build_s,
            code_insts,
        })
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn measure(&mut self, seconds: f64) -> Window {
        let mut w = Window::default();
        let mut compile_s = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds || compile_s.is_empty() {
            let mut c = 0.0;
            for (i, (m, expected)) in self.modules.iter().zip(&self.expected).enumerate() {
                let t = Instant::now();
                let lm = compile::compile(m, &self.pipeline);
                let s = t.elapsed().as_secs_f64();
                c += s;
                w.job(i, s * 1e3, lm.is_ok_and(|lm| check(&lm, expected)));
            }
            compile_s.push(c);
            w.probe_host();
        }
        w.report("compile_s", "s", compile_s);
        w.report("code_insts", "count", vec![self.code_insts]);
        w
    }

    fn trace(
        &mut self,
        seconds: f64,
        layers: &mut Layers,
    ) -> (Window, Vec<(&'static str, String)>) {
        let untraced = self.measure(seconds / 2.0);
        let mut tr = Tracer::new(true);
        let mut w = Window::default();
        let mut totals = CompileTotals::default();
        let mut compile_s = Vec::new();
        let start = Instant::now();
        let mut g = 0;
        while start.elapsed().as_secs_f64() < seconds / 2.0 || compile_s.is_empty() {
            let mut c = 0.0;
            for (i, (m, expected)) in self.modules.iter().zip(&self.expected).enumerate() {
                g += 1;
                let t = Instant::now();
                let staged = compile_staged(&mut tr, g, m, &self.pipeline);
                let s = t.elapsed().as_secs_f64();
                c += s;
                if let Ok(staged) = &staged {
                    totals.add(staged);
                }
                w.job(
                    i,
                    s * 1e3,
                    staged.is_ok_and(|st| check(&st.lowered, expected)),
                );
            }
            compile_s.push(c);
        }
        totals.report(&tr, compile_s.len() as f64, layers);
        layers.set(
            "trace.compile_s_overhead",
            median(&compile_s) / median(untraced.samples("compile_s")) - 1.0,
        );
        w.absorb(untraced);
        (
            w,
            vec![
                ("self_s", crate::self_times_json(&tr)),
                ("spans", tr.spans_json()),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_seeds_depend_only_on_the_seed() {
        assert_eq!(module_seeds(3), module_seeds(3));
        assert_ne!(module_seeds(3), module_seeds(4));
        let s = module_seeds(3);
        let a = build_synth_ir(SIZES[0], s[0]);
        let b = build_synth_ir(SIZES[0], s[0]);
        assert_eq!(
            memoir_ir::printer::print_module(&a),
            memoir_ir::printer::print_module(&b)
        );
    }
}
