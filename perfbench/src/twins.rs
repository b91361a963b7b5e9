//! The `twins` workload: the native `memoir-runtime` twins of the
//! kernels, every variant, each checked against its base variant's
//! objective.

use crate::metrics::{Layers, TWIN_VARIANTS};
use crate::seed;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Window, Workload};
use std::time::Instant;
use workloads::deepsjeng::{run_deepsjeng, DeepsjengParams, DeepsjengVariant};
use workloads::mcf::{run_mcf, McfParams, McfVariant};
use workloads::optlike::{run_optlike, OptlikeParams};
use workloads::smallbank::{run_smallbank, SmallbankParams, SmallbankVariant};

/// How far the seed moves each twin's size parameter.
const SPREAD: f64 = 0.02;

/// The twins' input sizes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Params {
    mcf: McfParams,
    deepsjeng: DeepsjengParams,
    optlike: OptlikeParams,
    smallbank: SmallbankParams,
}

/// The default sizes with each twin's main size parameter (arcs, nodes,
/// instructions, transactions) scaled by the seed.
pub fn params(seed: u64) -> Params {
    let d = Params::default();
    Params {
        mcf: McfParams {
            initial_arcs: seed::scale(d.mcf.initial_arcs, SPREAD, seed, 1),
            ..d.mcf
        },
        deepsjeng: DeepsjengParams {
            nodes: seed::scale(d.deepsjeng.nodes, SPREAD, seed, 2),
            ..d.deepsjeng
        },
        optlike: OptlikeParams {
            insts: seed::scale(d.optlike.insts, SPREAD, seed, 3),
            ..d.optlike
        },
        smallbank: SmallbankParams {
            txns: seed::scale(d.smallbank.txns, SPREAD, seed, 4),
            ..d.smallbank
        },
    }
}

/// Runs one twin variant: its objective and the bytes its ledger
/// recorded as allocated.
pub fn run_variant(p: &Params, twin: &str, variant: &str) -> (i64, u64) {
    match (twin, variant) {
        ("mcf", v) => {
            let o = run_mcf(
                &p.mcf,
                if v == "all" {
                    McfVariant::all()
                } else {
                    McfVariant::default()
                },
            );
            (o.objective, o.ledger.total_allocated())
        }
        ("deepsjeng", v) => {
            let o = run_deepsjeng(
                &p.deepsjeng,
                DeepsjengVariant {
                    fe_key_fold: v == "fe",
                },
            );
            (o.checksum, o.ledger.total_allocated())
        }
        ("optlike", _) => {
            let o = run_optlike(&p.optlike);
            (o.redundant as i64, o.ledger.total_allocated())
        }
        ("smallbank", v) => {
            let o = run_smallbank(
                &p.smallbank,
                SmallbankVariant {
                    fused: v == "fused" || v == "both",
                    dense: v == "dense" || v == "both",
                },
            );
            (o.objective, o.ledger.total_allocated())
        }
        _ => panic!("unknown twin {twin}.{variant}"),
    }
}

/// The twins, in run order.
const TWINS: [&str; 4] = ["mcf", "deepsjeng", "optlike", "smallbank"];

/// A twin's base variant: its first entry in [`TWIN_VARIANTS`].
fn base_variant(twin: &str) -> &'static str {
    TWIN_VARIANTS
        .iter()
        .find(|v| v.0 == twin)
        .expect("known twin")
        .1
}

/// The twins workload's state after set-up.
pub struct Twins {
    params: Params,
    /// Each twin's base-variant objective, the reference for the others.
    base: Vec<(&'static str, i64)>,
    build_s: f64,
}

impl Twins {
    /// Runs every variant once: per-variant seconds, and whether each
    /// objective matched the base variant's.
    fn round(&self, tr: &mut Tracer, g: u64) -> Vec<(f64, bool, u64)> {
        TWIN_VARIANTS
            .iter()
            .enumerate()
            .map(|(i, &(twin, variant))| {
                let t = Instant::now();
                let (objective, allocated) = tr.span(span_name(i), g, |_| {
                    run_variant(&self.params, twin, variant)
                });
                let s = t.elapsed().as_secs_f64();
                let expected = self.base.iter().find(|(n, _)| *n == twin).map(|b| b.1);
                (s, expected == Some(objective), allocated)
            })
            .collect()
    }
}

/// Span names, one per entry of [`TWIN_VARIANTS`].
fn span_name(i: usize) -> &'static str {
    [
        "memoir-runtime.mcf.base",
        "memoir-runtime.mcf.all",
        "memoir-runtime.deepsjeng.base",
        "memoir-runtime.deepsjeng.fe",
        "memoir-runtime.optlike.base",
        "memoir-runtime.smallbank.default",
        "memoir-runtime.smallbank.fused",
        "memoir-runtime.smallbank.dense",
        "memoir-runtime.smallbank.both",
    ][i]
}

impl Workload for Twins {
    fn setup(seed: u64) -> Result<Self, String> {
        let t = Instant::now();
        let params = params(seed);
        let build_s = t.elapsed().as_secs_f64();
        let base = TWINS
            .into_iter()
            .map(|twin| (twin, run_variant(&params, twin, base_variant(twin)).0))
            .collect();
        let w = Twins {
            params,
            base,
            build_s,
        };
        // Warm-up: one full round.
        if w.round(&mut Tracer::new(false), 0).iter().any(|r| !r.1) {
            return Err("a twin variant disagrees with its base variant".into());
        }
        Ok(w)
    }

    fn build_s(&self) -> f64 {
        self.build_s
    }

    fn measure(&mut self, seconds: f64) -> Window {
        let mut w = Window::default();
        let mut run_s = Vec::new();
        let start = Instant::now();
        let mut tr = Tracer::new(false);
        while start.elapsed().as_secs_f64() < seconds || run_s.is_empty() {
            let r = self.round(&mut tr, 0);
            run_s.push(r.iter().map(|x| x.0).sum());
            for (i, &(s, ok, _)) in r.iter().enumerate() {
                w.job(i, s * 1e3, ok);
            }
            w.probe_host();
        }
        w.report("run_s", "s", run_s);
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
        let mut run_s = Vec::new();
        let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); TWIN_VARIANTS.len()];
        let mut allocated = [0.0; TWINS.len()];
        let start = Instant::now();
        let mut g = 0;
        while start.elapsed().as_secs_f64() < seconds / 2.0 || run_s.is_empty() {
            let r = self.round(&mut tr, g);
            g += 1;
            run_s.push(r.iter().map(|x| x.0).sum());
            for (i, (s, ok, bytes)) in r.into_iter().enumerate() {
                per_variant[i].push(s);
                let (twin, variant) = TWIN_VARIANTS[i];
                if variant == base_variant(twin) {
                    let t = TWINS.iter().position(|t| *t == twin).expect("known twin");
                    allocated[t] = bytes as f64;
                }
                w.job(i, s * 1e3, ok);
            }
        }
        for (i, (twin, variant)) in TWIN_VARIANTS.iter().enumerate() {
            layers.set(
                &format!("memoir-runtime.{twin}.{variant}_s"),
                median(&per_variant[i]),
            );
        }
        for (twin, bytes) in TWINS.iter().zip(allocated) {
            layers.set(&format!("memoir-runtime.{twin}.allocated_bytes"), bytes);
        }
        layers.set(
            "trace.run_s_overhead",
            median(&run_s) / median(untraced.samples("run_s")) - 1.0,
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
    fn params_depend_only_on_the_seed() {
        let show = |p: Params| format!("{p:?}");
        assert_eq!(show(params(8)), show(params(8)));
        assert_ne!(show(params(8)), show(params(9)));
        let (d, p) = (Params::default(), params(8));
        let near = |a: usize, b: usize| (a as f64 - b as f64).abs() <= b as f64 * SPREAD + 0.5;
        assert!(near(p.mcf.initial_arcs, d.mcf.initial_arcs));
        assert!(near(p.deepsjeng.nodes, d.deepsjeng.nodes));
        assert!(near(p.optlike.insts, d.optlike.insts));
        assert!(near(p.smallbank.txns, d.smallbank.txns));
        assert_eq!(p.smallbank.customers, d.smallbank.customers);
    }

    #[test]
    fn span_names_follow_the_variants() {
        for (i, (twin, variant)) in TWIN_VARIANTS.iter().enumerate() {
            assert_eq!(span_name(i), format!("memoir-runtime.{twin}.{variant}"));
        }
    }
}
