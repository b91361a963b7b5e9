//! Replayable crash artifacts (`.repro` files).
//!
//! A repro is a small, line-oriented text file that captures *exactly*
//! one fuzz case: the program (`main`'s ops plus any helper functions),
//! the pipeline spec, the fault policy, per-case budgets, any injection
//! plan, the probe seed, and — for through-lowering cases — the
//! low-level IR pipeline run after the `lower` stage.
//! `memoir-fuzz replay file.repro` re-runs it bit-for-bit;
//! `memoir-fuzz reduce file.repro` shrinks it in place. The normative
//! format spec (with versioning rules) lives in `docs/REPRO_FORMAT.md`.
//!
//! ```text
//! memoir-fuzz repro v2
//! seed: 42
//! case: 17
//! spec: ssa-construct,dce,ssa-destruct
//! lir-spec: mem2reg,constfold
//! policy: skip
//! budget: growth=16,fixpoint=2
//! inject: panic@dce
//! probe-seed: 7
//! minimized: true
//! failure: panic: injected fault
//! ops:
//!   push -3
//!   obj-write 0 1 9
//! helper:
//!   assoc-insert 2 5
//! helper-scalar: 3 -2
//! ```
//!
//! The keys between `spec:` and `minimized:` are the case's
//! [`CaseConfig`], which the artifact holds whole. `budget:` is omitted
//! when unlimited, `inject:` and `probe-seed:` when absent, and
//! `cache-check: true` is present only when the case runs the
//! cached-vs-cold differential oracle (two extra compiles through a
//! shared compile cache — the `cache-diverge` crash class). `sym: true`
//! is present only when the case runs the symbolic-oracle axis (the
//! `sym-diverge`/`sym-unsound` crash classes). A present `lir-spec:` key
//! marks a through-lowering case; its value may be empty ("lower, then
//! nothing"). `adaptive: true` marks a through-lowering case that used
//! the adaptive representation selector (dense / inline collection
//! layouts) and is omitted otherwise. Each `helper:` block and
//! `helper-scalar:` line after the `ops:` block appends one helper
//! function, in call order. Files that use none of the v2 features
//! (helpers, object ops, probe seed, cache check) are written with — and
//! round-trip through — the v1 header, so artifacts committed by older
//! campaigns stay valid verbatim.

use crate::genprog::{CaseProgram, Helper, Op};
use crate::harness::CaseConfig;
use passman::{Budgets, PipelineSpec};
use std::fmt;
use std::str::FromStr;

const HEADER_V1: &str = "memoir-fuzz repro v1";
const HEADER_V2: &str = "memoir-fuzz repro v2";

/// One replayable crash case.
#[derive(Clone, Debug, PartialEq)]
pub struct Repro {
    /// Campaign seed that produced the case.
    pub seed: u64,
    /// Case index within the campaign.
    pub case: u64,
    /// The (MEMOIR) pipeline spec the case ran.
    pub spec: PipelineSpec,
    /// The harness configuration the case ran, and replays, under. Its
    /// `adaptive`, `probe_seed`, `cache_check` and `sym` need the v2
    /// header.
    pub cfg: CaseConfig,
    /// Whether this artifact has been through the reducer.
    pub minimized: bool,
    /// One-line failure classification from the harness.
    pub failure: String,
    /// The whole-language program: `main`'s MUT ops plus helpers (v2).
    pub prog: CaseProgram,
}

impl Repro {
    /// Whether this artifact needs the v2 header (any helper, object op,
    /// probe seed, or differential-oracle key).
    pub fn uses_v2(&self) -> bool {
        self.cfg.probe_seed.is_some()
            || self.cfg.adaptive
            || self.cfg.cache_check
            || self.cfg.sym
            || self.prog.uses_v2()
    }
}

impl fmt::Display for Repro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header = if self.uses_v2() { HEADER_V2 } else { HEADER_V1 };
        writeln!(f, "{header}")?;
        writeln!(f, "seed: {}", self.seed)?;
        writeln!(f, "case: {}", self.case)?;
        writeln!(f, "spec: {}", self.spec)?;
        let cfg = &self.cfg;
        if let Some(lspec) = &cfg.lir_spec {
            writeln!(f, "lir-spec: {lspec}")?;
        }
        if cfg.adaptive {
            writeln!(f, "adaptive: true")?;
        }
        writeln!(f, "policy: {}", cfg.policy)?;
        if !cfg.budgets.is_unlimited() {
            writeln!(f, "budget: {}", cfg.budgets)?;
        }
        if let Some(plan) = &cfg.inject {
            writeln!(f, "inject: {plan}")?;
        }
        if let Some(seed) = cfg.probe_seed {
            writeln!(f, "probe-seed: {seed}")?;
        }
        if cfg.cache_check {
            writeln!(f, "cache-check: true")?;
        }
        if cfg.sym {
            writeln!(f, "sym: true")?;
        }
        writeln!(f, "minimized: {}", self.minimized)?;
        writeln!(f, "failure: {}", self.failure)?;
        writeln!(f, "ops:")?;
        for op in &self.prog.main {
            writeln!(f, "  {op}")?;
        }
        for h in &self.prog.helpers {
            match h {
                Helper::Ops(ops) => {
                    writeln!(f, "helper:")?;
                    for op in ops {
                        writeln!(f, "  {op}")?;
                    }
                }
                Helper::Scalar(c1, c2) => writeln!(f, "helper-scalar: {c1} {c2}")?,
                Helper::ObjProbe(c1, c2) => writeln!(f, "helper-obj: {c1} {c2}")?,
            }
        }
        Ok(())
    }
}

impl FromStr for Repro {
    type Err = String;

    fn from_str(s: &str) -> Result<Repro, String> {
        let mut lines = s.lines().enumerate();
        let (_, first) = lines.next().ok_or("empty repro file")?;
        let v2 = match first.trim() {
            h if h == HEADER_V1 => false,
            h if h == HEADER_V2 => true,
            _ => {
                return Err(format!(
                    "not a repro file (expected `{HEADER_V1}` or `{HEADER_V2}`)"
                ))
            }
        };

        let mut seed = None;
        let mut case = None;
        let mut spec = None;
        let mut policy = None;
        let mut cfg = CaseConfig::default();
        let mut minimized = None;
        let mut failure = None;
        let mut main: Option<Vec<Op>> = None;
        let mut helpers: Vec<Helper> = Vec::new();

        for (i, raw) in lines {
            let line = raw.trim_end();
            if line.trim().is_empty() {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}", i + 1);
            if let Some(main_ops) = main.as_mut() {
                // Inside the trailing program section every line is an
                // op of the current block or the start of a helper.
                let trimmed = line.trim();
                if trimmed == "helper:" {
                    if !v2 {
                        return Err(err("`helper:` requires the v2 header"));
                    }
                    helpers.push(Helper::Ops(Vec::new()));
                    continue;
                }
                if let Some(rest) = trimmed.strip_prefix("helper-scalar:") {
                    if !v2 {
                        return Err(err("`helper-scalar:` requires the v2 header"));
                    }
                    let mut it = rest.split_whitespace();
                    let c1 = it
                        .next()
                        .and_then(|t| t.parse::<i8>().ok())
                        .ok_or_else(|| err("bad helper-scalar constants"))?;
                    let c2 = it
                        .next()
                        .and_then(|t| t.parse::<i8>().ok())
                        .ok_or_else(|| err("bad helper-scalar constants"))?;
                    if it.next().is_some() {
                        return Err(err("helper-scalar takes exactly two constants"));
                    }
                    helpers.push(Helper::Scalar(c1, c2));
                    continue;
                }
                if let Some(rest) = trimmed.strip_prefix("helper-obj:") {
                    if !v2 {
                        return Err(err("`helper-obj:` requires the v2 header"));
                    }
                    let mut it = rest.split_whitespace();
                    let c1 = it
                        .next()
                        .and_then(|t| t.parse::<i8>().ok())
                        .ok_or_else(|| err("bad helper-obj constants"))?;
                    let c2 = it
                        .next()
                        .and_then(|t| t.parse::<i8>().ok())
                        .ok_or_else(|| err("bad helper-obj constants"))?;
                    if it.next().is_some() {
                        return Err(err("helper-obj takes exactly two constants"));
                    }
                    helpers.push(Helper::ObjProbe(c1, c2));
                    continue;
                }
                let op = trimmed.parse::<Op>().map_err(|e| err(&e))?;
                if !v2 && op.is_obj() {
                    return Err(err("object ops require the v2 header"));
                }
                match helpers.last_mut() {
                    Some(Helper::Ops(ops)) => ops.push(op),
                    Some(Helper::Scalar(..)) | Some(Helper::ObjProbe(..)) => {
                        return Err(err(
                            "ops after a scalar/obj helper (start a `helper:` block)",
                        ))
                    }
                    None => main_ops.push(op),
                }
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| err("expected `key: value`"))?;
            let value = value.trim();
            match key.trim() {
                "seed" => seed = Some(value.parse::<u64>().map_err(|_| err("bad seed"))?),
                "case" => case = Some(value.parse::<u64>().map_err(|_| err("bad case"))?),
                "spec" => spec = Some(PipelineSpec::parse(value).map_err(|e| err(&e.to_string()))?),
                "lir-spec" => {
                    // The key's presence is what marks a through-lowering
                    // case; an empty value is the empty lir pipeline.
                    cfg.lir_spec = Some(if value.is_empty() {
                        PipelineSpec::new(Vec::new())
                    } else {
                        PipelineSpec::parse(value).map_err(|e| err(&e.to_string()))?
                    })
                }
                "adaptive" => {
                    if !v2 {
                        return Err(err("`adaptive:` requires the v2 header"));
                    }
                    cfg.adaptive = value.parse::<bool>().map_err(|_| err("bad adaptive"))?
                }
                "policy" => policy = Some(value.parse().map_err(|e: String| err(&e))?),
                "budget" => cfg.budgets = Budgets::parse(value).map_err(|e| err(&e))?,
                "inject" => cfg.inject = Some(value.parse().map_err(|e: String| err(&e))?),
                "probe-seed" => {
                    if !v2 {
                        return Err(err("`probe-seed:` requires the v2 header"));
                    }
                    cfg.probe_seed = Some(value.parse::<u64>().map_err(|_| err("bad probe-seed"))?)
                }
                "cache-check" => {
                    if !v2 {
                        return Err(err("`cache-check:` requires the v2 header"));
                    }
                    cfg.cache_check = value.parse::<bool>().map_err(|_| err("bad cache-check"))?
                }
                "sym" => {
                    if !v2 {
                        return Err(err("`sym:` requires the v2 header"));
                    }
                    cfg.sym = value.parse::<bool>().map_err(|_| err("bad sym"))?
                }
                "minimized" => {
                    minimized = Some(value.parse::<bool>().map_err(|_| err("bad minimized"))?)
                }
                "failure" => failure = Some(value.to_string()),
                "ops" => main = Some(Vec::new()),
                other => return Err(err(&format!("unknown key `{other}`"))),
            }
        }

        Ok(Repro {
            seed: seed.ok_or("missing `seed:`")?,
            case: case.ok_or("missing `case:`")?,
            spec: spec.ok_or("missing `spec:`")?,
            cfg: CaseConfig {
                policy: policy.ok_or("missing `policy:`")?,
                ..cfg
            },
            minimized: minimized.ok_or("missing `minimized:`")?,
            failure: failure.ok_or("missing `failure:`")?,
            prog: CaseProgram {
                main: main.ok_or("missing `ops:` section")?,
                helpers,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use passman::FaultPolicy;

    fn sample() -> Repro {
        Repro {
            seed: 42,
            case: 17,
            spec: PipelineSpec::parse("ssa-construct,fixpoint<max=3>(simplify,dce),ssa-destruct")
                .unwrap(),
            cfg: CaseConfig {
                policy: FaultPolicy::SkipPass,
                inject: Some("panic@dce#2".parse().unwrap()),
                ..CaseConfig::default()
            },
            minimized: true,
            failure: "panic: injected fault".to_string(),
            prog: CaseProgram::single(vec![Op::Push(-3), Op::Write(1, 7), Op::RemoveRange(0, 2)]),
        }
    }

    #[test]
    fn round_trips_through_text() {
        let r = sample();
        let text = r.to_string();
        assert!(text.starts_with(HEADER_V1), "{text}");
        assert_eq!(text.parse::<Repro>().unwrap(), r, "{text}");

        // And without the optional inject line.
        let mut r2 = sample();
        r2.cfg.inject = None;
        assert_eq!(r2.to_string().parse::<Repro>().unwrap(), r2);
    }

    #[test]
    fn round_trips_budgets_and_lir_spec() {
        let mut r = sample();
        r.cfg.budgets = Budgets::parse("growth=16,fixpoint=2").unwrap();
        r.cfg.lir_spec =
            Some(PipelineSpec::parse("mem2reg,fixpoint<max=3>(constfold,dce)").unwrap());
        let text = r.to_string();
        assert!(text.contains("budget: growth=16,fixpoint=2"), "{text}");
        assert!(text.contains("lir-spec: mem2reg"), "{text}");
        assert_eq!(text.parse::<Repro>().unwrap(), r, "{text}");

        // An *empty* lir spec is a real case ("lower, then nothing") and
        // must survive the round trip as Some, not collapse to None.
        r.cfg.lir_spec = Some(PipelineSpec::new(Vec::new()));
        let text = r.to_string();
        let back = text.parse::<Repro>().unwrap();
        assert_eq!(back, r, "{text}");
        assert!(back.cfg.lir_spec.is_some());

        // Unlimited budgets write no line and read back as none().
        r.cfg.budgets = Budgets::none();
        let text = r.to_string();
        assert!(!text.contains("budget:"), "{text}");
        assert_eq!(text.parse::<Repro>().unwrap().cfg.budgets, Budgets::none());
    }

    #[test]
    fn round_trips_v2_programs() {
        // Helpers, object ops, and a probe seed together force — and
        // survive — the v2 header.
        let mut r = sample();
        r.cfg.probe_seed = Some(7);
        r.prog = CaseProgram {
            main: vec![
                Op::Push(1),
                Op::ObjWrite(0, 1, 9),
                Op::ObjTagPush(1, -2),
                Op::LinkWrite(0, 1, -3),
                Op::LinkNew(1, 8),
                Op::DocPush(0),
                Op::DocWrite(1, 0, 4),
                Op::DocAssocInsert(6, 1),
                Op::DocAssocRead(6, 0),
            ],
            helpers: vec![
                Helper::Ops(vec![Op::AssocInsert(2, 5), Op::ObjRead(0, 0)]),
                Helper::Scalar(3, -2),
                Helper::ObjProbe(-7, 4),
                Helper::Ops(vec![]),
            ],
        };
        let text = r.to_string();
        assert!(text.starts_with(HEADER_V2), "{text}");
        assert!(text.contains("probe-seed: 7"), "{text}");
        assert!(text.contains("helper-scalar: 3 -2"), "{text}");
        assert!(text.contains("helper-obj: -7 4"), "{text}");
        assert_eq!(text.parse::<Repro>().unwrap(), r, "{text}");

        // Each v2 feature alone is enough to flip the header.
        let mut obj_only = sample();
        obj_only.prog = CaseProgram::single(vec![Op::ObjRead(1, 0)]);
        assert!(obj_only.to_string().starts_with(HEADER_V2));
        assert_eq!(obj_only.to_string().parse::<Repro>().unwrap(), obj_only);
        let mut probe_only = sample();
        probe_only.cfg.probe_seed = Some(0);
        assert!(probe_only.to_string().starts_with(HEADER_V2));
        let mut adaptive_only = sample();
        adaptive_only.cfg.adaptive = true;
        let text = adaptive_only.to_string();
        assert!(text.starts_with(HEADER_V2), "{text}");
        assert!(text.contains("adaptive: true"), "{text}");
        assert_eq!(text.parse::<Repro>().unwrap(), adaptive_only, "{text}");
        let mut cache_only = sample();
        cache_only.cfg.cache_check = true;
        let text = cache_only.to_string();
        assert!(text.starts_with(HEADER_V2), "{text}");
        assert!(text.contains("cache-check: true"), "{text}");
        assert_eq!(text.parse::<Repro>().unwrap(), cache_only, "{text}");
        let mut sym_only = sample();
        sym_only.cfg.sym = true;
        let text = sym_only.to_string();
        assert!(text.starts_with(HEADER_V2), "{text}");
        assert!(text.contains("sym: true"), "{text}");
        assert_eq!(text.parse::<Repro>().unwrap(), sym_only, "{text}");
    }

    #[test]
    fn v1_files_reject_v2_features() {
        // A v1 header must not smuggle in v2 constructs — old tooling
        // would silently misread such a file.
        let with_helper = format!("{}helper:\n  push 1", sample());
        assert!(with_helper.parse::<Repro>().is_err(), "{with_helper}");
        let with_scalar = format!("{}helper-scalar: 1 2", sample());
        assert!(with_scalar.parse::<Repro>().is_err(), "{with_scalar}");
        let with_objprobe = format!("{}helper-obj: 1 2", sample());
        assert!(with_objprobe.parse::<Repro>().is_err(), "{with_objprobe}");
        let with_obj = format!("{}  obj-read 0 1\n", sample());
        assert!(with_obj.parse::<Repro>().is_err(), "{with_obj}");
        let with_graph = format!("{}  obj-link-new 0 3\n", sample());
        assert!(with_graph.parse::<Repro>().is_err(), "{with_graph}");
        let with_probe = sample()
            .to_string()
            .replace("minimized:", "probe-seed: 3\nminimized:");
        assert!(with_probe.parse::<Repro>().is_err(), "{with_probe}");
        let with_cache = sample()
            .to_string()
            .replace("minimized:", "cache-check: true\nminimized:");
        assert!(with_cache.parse::<Repro>().is_err(), "{with_cache}");
        let with_adaptive = sample()
            .to_string()
            .replace("minimized:", "adaptive: true\nminimized:");
        assert!(with_adaptive.parse::<Repro>().is_err(), "{with_adaptive}");
        let with_sym = sample()
            .to_string()
            .replace("minimized:", "sym: true\nminimized:");
        assert!(with_sym.parse::<Repro>().is_err(), "{with_sym}");
    }

    #[test]
    fn retired_service_fault_key_is_rejected() {
        // The service-envelope oracle is gone; a file still carrying its
        // key is refused as an unknown key, under either header.
        let v2 = sample()
            .to_string()
            .replace(HEADER_V1, HEADER_V2)
            .replace("minimized:", "service-fault: worker-panic@0\nminimized:");
        let err = v2.parse::<Repro>().unwrap_err();
        assert!(err.contains("unknown key `service-fault`"), "{err}");
    }

    #[test]
    fn rejects_malformed_files() {
        assert!("".parse::<Repro>().is_err());
        assert!("not a repro".parse::<Repro>().is_err());
        let no_ops = "memoir-fuzz repro v1\nseed: 1\ncase: 0\nspec: dce\n\
                      policy: abort\nminimized: false\nfailure: x";
        assert!(no_ops.parse::<Repro>().is_err());
        let bad_op = format!("{}\n  fly 9", sample().to_string().trim_end());
        assert!(bad_op.parse::<Repro>().is_err());
        let bad_budget = "memoir-fuzz repro v1\nseed: 1\ncase: 0\nspec: dce\n\
                          policy: abort\nbudget: fuel=9\nminimized: false\nfailure: x\nops:";
        assert!(bad_budget.parse::<Repro>().is_err());
        // Ops directly after helper-scalar have no block to live in.
        let stray = format!(
            "{}helper-scalar: 1 2\n  push 3",
            sample().to_string().replace(HEADER_V1, HEADER_V2)
        );
        assert!(stray.parse::<Repro>().is_err(), "{stray}");
    }
}
