//! The `memoir-fuzz` argument surface, plus a fuzzer for every textual
//! surface the `memoir-opt`/`memoir-fuzz` binaries parse.
//!
//! The binaries accept user-controlled text in several places — pipeline
//! spec strings (`--passes`), budget lists (`--budget`), fault-injection
//! plans (`--inject`), fault policies (`--on-fault`), whole `.repro`
//! files, `memoir-fuzz run`'s own argv, and the textual MEMOIR modules
//! `memoir-opt` and `memoird` read. A malformed input must come
//! back as `Err`, never a panic, and anything a parser *accepts* must
//! round-trip through its `Display` form. [`fuzz_cli_case`] throws
//! grammar-aware garbage at all of them; `memoir-fuzz cli` is the
//! campaign driver around it.

use crate::genprog::{build_case, random_case, CaseDims};
use crate::repro::Repro;
use crate::rng::SplitMix64;
use memoir_ir::parser::parse_module;
use memoir_ir::printer::print_module;
use passman::{Budgets, FaultPlan, FaultPolicy, PipelineSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parsed options of `memoir-fuzz run` (public so the CLI fuzzer can
/// drive the argv parser itself).
pub struct RunArgs {
    /// Campaign seed.
    pub seed: u64,
    /// Number of cases.
    pub iters: u64,
    /// Artifact directory.
    pub out: String,
    /// Drive every case through the `lower` stage + a random lir spec.
    pub lower: bool,
    /// Generation dimensions (`--objects`, `--multi`).
    pub dims: CaseDims,
    /// Probe preserved functions on synthesized arguments (`--probe`).
    pub probe: bool,
    /// Pin the fault policy for every case.
    pub policy: Option<FaultPolicy>,
    /// Seed a fault into every case.
    pub inject: Option<FaultPlan>,
    /// Run every passing case through the symbolic oracle (`--sym`; the
    /// `sym-diverge`/`sym-unsound` crash classes).
    pub sym: bool,
}

/// Parses the argv of `memoir-fuzz run` (everything after the
/// subcommand).
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        seed: 1,
        iters: 100,
        out: "fuzz-out".to_string(),
        lower: false,
        dims: CaseDims {
            objects: false,
            multi: false,
        },
        probe: false,
        policy: None,
        inject: None,
        sym: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag {
            "--seed" => r.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--iters" => r.iters = value()?.parse().map_err(|_| "bad --iters".to_string())?,
            "--out" => r.out = value()?,
            "--lower" => r.lower = true,
            "--objects" => r.dims.objects = true,
            "--multi" => r.dims.multi = true,
            "--probe" => r.probe = true,
            "--on-fault" => r.policy = Some(value()?.parse()?),
            "--inject" => r.inject = Some(value()?.parse()?),
            "--sym" => r.sym = true,
            other => return Err(format!("unknown `run` option `{other}`")),
        }
    }
    Ok(r)
}

/// One CLI-surface finding: the parser that misbehaved, the input that
/// triggered it, and what went wrong.
#[derive(Clone, Debug)]
pub struct CliCrash {
    /// Which textual surface (`spec`, `budget`, `inject`, `policy`,
    /// `repro`, `run-args`, `module`).
    pub surface: &'static str,
    /// The offending input, verbatim.
    pub input: String,
    /// Panic message or round-trip mismatch description.
    pub message: String,
}

const SPEC_TOKENS: &[&str] = &[
    "ssa-construct",
    "ssa-destruct",
    "constprop",
    "simplify",
    "dce",
    "dee",
    "dee-strict",
    "dfe",
    "fe",
    "rie",
    "key-fold",
    "copyfold",
    "sink",
    "lower",
    "mem2reg",
    "constfold",
    "gvn",
    "fixpoint",
    "(",
    ")",
    ",",
    "<",
    ">",
    "=",
    "max",
    "max-ms",
    "max-growth",
    "no-cross-check",
    "0",
    "3",
    "4.0",
    "-1",
    "18446744073709551615",
    "",
    " ",
    "fixpoint<max=2>(",
    "<<",
    "héllo",
    "\t",
    "\u{0}",
];

const BUDGET_TOKENS: &[&str] = &[
    "pass-ms",
    "pipeline-ms",
    "growth",
    "fixpoint",
    "=",
    ",",
    "500",
    "4.0",
    "-3",
    "nan",
    "inf",
    "1e999",
    "",
    " ",
    "=,=",
    "growth=",
];

const INJECT_TOKENS: &[&str] = &[
    "panic", "verify", "budget", "@", "#", "%", "dce", "dee", "lower", "gvn", "*", "2", "-1", "",
    " ", "@@", "#%",
];

const ARG_TOKENS: &[&str] = &[
    "--seed",
    "--iters",
    "--out",
    "--lower",
    "--objects",
    "--multi",
    "--probe",
    "--on-fault",
    "--inject",
    "--sym",
    "--seed=abc",
    "--iters=",
    "=",
    "7",
    "skip",
    "panic@dce",
    "--unknown",
    "",
];

pub(crate) fn soup(rng: &mut SplitMix64, tokens: &[&str], max_len: usize) -> String {
    let n = rng.index(max_len.max(1));
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(tokens[rng.index(tokens.len())]);
    }
    s
}

fn argv_soup(rng: &mut SplitMix64) -> Vec<String> {
    let n = rng.index(8);
    (0..n)
        .map(|_| ARG_TOKENS[rng.index(ARG_TOKENS.len())].to_string())
        .collect()
}

/// A syntactically plausible `.repro` file: a valid skeleton with
/// random lines mutated, duplicated, or dropped.
fn repro_soup(rng: &mut SplitMix64) -> String {
    let base = "memoir-fuzz repro v2\nseed: 1\ncase: 0\nspec: ssa-construct,dce,ssa-destruct\n\
                lir-spec: gvn\nadaptive: true\npolicy: skip\nbudget: growth=4.0\ninject: panic@dce\n\
                probe-seed: 9\nsym: true\nminimized: false\nfailure: panic: x\nops:\n  push 3\n\
                  obj-write 0 1 -2\nhelper:\n  assoc-insert 1 2\nhelper-scalar: 3 -1\n";
    let mut lines: Vec<String> = base.lines().map(String::from).collect();
    for _ in 0..rng.index(6) {
        let i = rng.index(lines.len());
        match rng.below(4) {
            0 => {
                lines.remove(i);
            }
            1 => {
                let dup = lines[i].clone();
                lines.insert(i, dup);
            }
            2 => {
                // Clobber the line with token soup from a random grammar.
                lines[i] = soup(rng, SPEC_TOKENS, 6);
            }
            _ => flip_byte(rng, &mut lines[i]),
        }
        if lines.is_empty() {
            break;
        }
    }
    let mut s = lines.join("\n");
    if rng.chance(1, 4) {
        let mut cut = rng.index(s.len().max(1));
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
    }
    s
}

/// Flips one byte of `line` to a printable-ish random one.
fn flip_byte(rng: &mut SplitMix64, line: &mut String) {
    let mut bytes = std::mem::take(line).into_bytes();
    if !bytes.is_empty() {
        let j = rng.index(bytes.len());
        bytes[j] = (rng.below(95) + 32) as u8;
    }
    *line = String::from_utf8_lossy(&bytes).into_owned();
}

/// A printed genprog case (objects and helpers on) with random lines
/// dropped, duplicated, byte-flipped, or token-spliced: a line's first
/// tokens joined to another line's last ones.
fn module_soup(rng: &mut SplitMix64) -> String {
    let dims = CaseDims {
        objects: true,
        multi: true,
    };
    let (m, _) = build_case(&random_case(rng, 12, dims));
    let mut lines: Vec<String> = print_module(&m).lines().map(String::from).collect();
    for _ in 0..1 + rng.index(4) {
        let i = rng.index(lines.len());
        match rng.below(4) {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i].clone()),
            2 => flip_byte(rng, &mut lines[i]),
            _ => {
                let donor = lines[rng.index(lines.len())].clone();
                let donor: Vec<&str> = donor.split(' ').collect();
                let tokens: Vec<&str> = lines[i].split(' ').collect();
                let head = &tokens[..rng.index(tokens.len() + 1)];
                let spliced = [head, &donor[rng.index(donor.len())..]].concat().join(" ");
                lines[i] = spliced;
            }
        }
    }
    lines.join("\n")
}

/// Checks one parser on one input: it must not panic, and if it accepts
/// the input, its `Display` form must reparse to an equal value
/// (`parse . print = id` on the accepted set).
pub(crate) fn check<T, P, D>(
    surface: &'static str,
    input: &str,
    parse: P,
    display: D,
) -> Option<CliCrash>
where
    T: PartialEq,
    P: Fn(&str) -> Option<T> + std::panic::RefUnwindSafe,
    D: Fn(&T) -> String,
{
    let crash = |message: String| {
        Some(CliCrash {
            surface,
            input: input.to_string(),
            message,
        })
    };
    match catch_unwind(AssertUnwindSafe(|| parse(input))) {
        Err(payload) => crash(format!("panic: {}", passman::panic_message(&*payload))),
        Ok(None) => None, // rejected cleanly
        Ok(Some(v)) => {
            let printed = display(&v);
            match catch_unwind(AssertUnwindSafe(|| parse(&printed))) {
                Err(payload) => crash(format!(
                    "accepted, but its printed form `{printed}` panics the parser: {}",
                    passman::panic_message(&*payload)
                )),
                Ok(None) => crash(format!(
                    "accepted, but its printed form `{printed}` is rejected"
                )),
                Ok(Some(v2)) if v2 != v => {
                    crash(format!("printed form `{printed}` reparses differently"))
                }
                Ok(Some(_)) => None,
            }
        }
    }
}

/// Runs one CLI-fuzz case: throws grammar-aware token soup at every
/// textual surface the binaries parse. Returns the first finding, if
/// any.
pub fn fuzz_cli_case(rng: &mut SplitMix64) -> Option<CliCrash> {
    let spec_input = soup(rng, SPEC_TOKENS, 12);
    if let Some(c) = check(
        "spec",
        &spec_input,
        |s| PipelineSpec::parse(s).ok(),
        |v| v.to_string(),
    ) {
        return Some(c);
    }
    // Accepted specs must also survive the lowered-pipeline splitter
    // (the `--lower` path of memoir-opt).
    if let Ok(spec) = PipelineSpec::parse(&spec_input) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            let _ = memoir_opt::lowering::split_lowered_spec(&spec);
        })) {
            return Some(CliCrash {
                surface: "spec",
                input: spec_input,
                message: format!(
                    "split_lowered_spec panicked: {}",
                    passman::panic_message(&*payload)
                ),
            });
        }
    }

    if let Some(c) = check(
        "budget",
        &soup(rng, BUDGET_TOKENS, 8),
        |s| Budgets::parse(s).ok(),
        |v| v.to_string(),
    ) {
        return Some(c);
    }
    if let Some(c) = check(
        "inject",
        &soup(rng, INJECT_TOKENS, 6),
        |s| s.parse::<FaultPlan>().ok(),
        |v| v.to_string(),
    ) {
        return Some(c);
    }
    if let Some(c) = check(
        "policy",
        &soup(rng, INJECT_TOKENS, 3),
        |s| s.parse::<FaultPolicy>().ok(),
        |v| v.to_string(),
    ) {
        return Some(c);
    }
    if let Some(c) = check(
        "repro",
        &repro_soup(rng),
        |s| s.parse::<Repro>().ok(),
        |v| v.to_string(),
    ) {
        return Some(c);
    }

    let argv = argv_soup(rng);
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
        let _ = parse_run_args(&argv);
    })) {
        return Some(CliCrash {
            surface: "run-args",
            input: argv.join(" "),
            message: format!("panic: {}", passman::panic_message(&*payload)),
        });
    }
    // An accepted module is compared by its printed form: it must
    // reparse and print the same.
    check(
        "module",
        &module_soup(rng),
        |s| parse_module(s).ok().map(|m| print_module(&m)),
        String::clone,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_args_parse_the_documented_surface() {
        let args: Vec<String> = [
            "--seed",
            "9",
            "--iters=50",
            "--lower",
            "--objects",
            "--multi",
            "--probe",
            "--on-fault=skip",
            "--inject",
            "panic@dce",
            "--sym",
            "--out",
            "artifacts",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let r = parse_run_args(&args).unwrap();
        assert_eq!(r.seed, 9);
        assert_eq!(r.iters, 50);
        assert!(r.lower && r.dims.objects && r.dims.multi && r.probe);
        assert_eq!(r.policy, Some(FaultPolicy::SkipPass));
        assert!(r.inject.is_some());
        assert!(r.sym, "--sym should turn on the symbolic-oracle axis");
        assert_eq!(r.out, "artifacts");

        assert!(parse_run_args(&["--seed".to_string()]).is_err());
        assert!(parse_run_args(&["--what".to_string()]).is_err());
    }

    #[test]
    fn cli_surfaces_survive_a_smoke_campaign() {
        let mut rng = SplitMix64::new(0xc11);
        for case in 0..300 {
            if let Some(c) = fuzz_cli_case(&mut rng) {
                panic!(
                    "case {case}: [{}] {}\ninput: {}",
                    c.surface, c.message, c.input
                );
            }
        }
    }
}
