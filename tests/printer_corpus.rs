//! Pins the bytes both IR printers produce. A fixed corpus is printed
//! through the streaming renderers into a `TextDigest` and the digest is
//! compared with the one the `String`-building printers these replaced
//! produced on the same corpus: the MEMOIR text is part of `memoird`'s
//! job-cache key and of every compile output, so no byte may move.
//!
//! The corpus: the five kernels as built, after O3 and lowered through
//! `lower<adaptive>` plus the default lir pipeline; and `synth_ir`
//! modules of four sizes and seeds through the same three stages.
//!
//! A second digest pins the MEMOIR parser's side of the text format:
//! `print(parse(print(m)))` over the corpus's MEMOIR modules, 300
//! seeded genprog cases (as built and after O3), `findings/*.mir` and
//! `crates/memoir-opt/examples/sum.mir`. Each text must parse, verify,
//! and print the same after one more trip.

use memoir::ir::printer as memoir_printer;
use memoir::ir::{parser, verifier, Module};
use memoir::lir::printer as lir_printer;
use memoir::opt::compile;
use memoir::opt::lowering::{compile_lowered_with, split_lowered_spec, LowerConfig};
use memoir::opt::pipeline::{default_spec, OptConfig, OptLevel};
use memoir::passman::{PipelineSpec, TextDigest};
use memoir::reduce::genprog::{build_case, random_case, CaseDims};
use memoir::reduce::rng::SplitMix64;
use memoir::workloads::synth_ir::build_synth_ir;
use memoir::workloads::{deepsjeng_ir, docstore, mcf_ir, optlike_ir, smallbank_ir};
use std::fmt::{self, Write};

/// The digest of the whole corpus, each entry preceded by a
/// `; <label>\n` line.
const CORPUS_DIGEST: u64 = 0x0c96_14c9_dbe4_9a2e;

/// The digest of every reparsed text (see the module doc), each
/// preceded by a `; <label>\n` line.
const REPARSED_DIGEST: u64 = 0x38c7_6bd5_bf29_15d3;

/// A kernel's builder.
type Build = fn() -> Module;

const KERNELS: [(&str, Build); 5] = [
    ("mcf", mcf_ir::build_mcf_ir),
    ("deepsjeng", deepsjeng_ir::build_deepsjeng_ir),
    ("optlike", optlike_ir::build_optlike_ir),
    ("smallbank", smallbank_ir::build_smallbank_ir),
    ("docstore", docstore::build_docstore_ir),
];

const SYNTH: [(usize, u64); 4] = [(4, 1), (9, 7), (16, 23), (24, 5)];

/// One printed module of the corpus.
enum Printed {
    Memoir(Module),
    Lir(memoir::lir::Module),
}

impl Printed {
    fn write<W: Write>(&self, w: &mut W) -> fmt::Result {
        match self {
            Printed::Memoir(m) => memoir_printer::write_module(w, m),
            Printed::Lir(m) => lir_printer::write_module(w, m),
        }
    }

    fn print(&self) -> String {
        match self {
            Printed::Memoir(m) => memoir_printer::print_module(m),
            Printed::Lir(m) => lir_printer::print_module(m),
        }
    }
}

/// The corpus, in order.
fn corpus() -> Vec<(String, Printed)> {
    let o3 = default_spec(OptLevel::O3(OptConfig::all()));
    let spec = format!(
        "{o3},lower<adaptive>,{}",
        memoir::lir::passes::default_spec()
    );
    let lp = split_lowered_spec(&PipelineSpec::parse(&spec).unwrap())
        .unwrap()
        .unwrap();
    let config = LowerConfig {
        threads: 1,
        ..LowerConfig::default()
    };
    let mut out = Vec::new();
    let mut add = |label: String, m: Module| {
        let mut o3 = m.clone();
        let lowered = compile_lowered_with(&mut o3, &lp, &config)
            .unwrap()
            .lowered
            .expect("corpus module lowers");
        out.push((format!("{label} built"), Printed::Memoir(m)));
        out.push((format!("{label} O3"), Printed::Memoir(o3)));
        out.push((format!("{label} lowered"), Printed::Lir(lowered)));
    };
    for (name, build) in KERNELS {
        add(name.to_string(), build());
    }
    for (n, seed) in SYNTH {
        add(format!("synth({n},{seed})"), build_synth_ir(n, seed));
    }
    out
}

fn digest_of(parts: &[&str]) -> u64 {
    let mut d = TextDigest::new();
    for p in parts {
        d.write_str(p).unwrap();
    }
    d.fingerprint().0
}

#[test]
fn printed_corpus_matches_the_pinned_digest() {
    let corpus = corpus();
    let mut streamed = TextDigest::new();
    let mut text = String::new();
    for (label, printed) in &corpus {
        writeln!(streamed, "; {label}").unwrap();
        printed.write(&mut streamed).unwrap();
        let s = printed.print();
        assert_eq!(
            digest_of(&[&s]),
            {
                let mut d = TextDigest::new();
                printed.write(&mut d).unwrap();
                d.fingerprint().0
            },
            "{label}: streamed digest differs from the printed string's"
        );
        text.push_str(&format!("; {label}\n"));
        text.push_str(&s);
    }
    assert_eq!(
        streamed.fingerprint().0,
        CORPUS_DIGEST,
        "printed bytes changed ({} bytes)",
        text.len()
    );
    assert_eq!(digest_of(&[&text]), CORPUS_DIGEST);

    // The digest depends on the bytes alone: byte by byte and at
    // arbitrary split points it is the same.
    let bytes: Vec<&str> = text
        .char_indices()
        .map(|(i, c)| &text[i..i + c.len_utf8()])
        .collect();
    assert_eq!(digest_of(&bytes), CORPUS_DIGEST);
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut parts = Vec::new();
    let mut at = 0;
    while at < text.len() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mut end = (at + (state % 40) as usize).min(text.len());
        while !text.is_char_boundary(end) {
            end += 1;
        }
        parts.push(&text[at..end]);
        at = end;
    }
    assert_eq!(digest_of(&parts), CORPUS_DIGEST);
}

/// The texts the reparse digest covers, labelled, in order.
fn parser_inputs() -> Vec<(String, String)> {
    let mut texts: Vec<(String, String)> = corpus()
        .into_iter()
        .filter_map(|(label, printed)| match printed {
            Printed::Memoir(m) => Some((label, memoir_printer::print_module(&m))),
            Printed::Lir(_) => None,
        })
        .collect();
    let mut rng = SplitMix64::new(0x7e47_f0a7);
    let dims = CaseDims {
        objects: true,
        multi: true,
    };
    for case in 0..300 {
        let (m, _) = build_case(&random_case(&mut rng, 24, dims));
        let mut o3 = m.clone();
        compile(&mut o3, OptLevel::O3(OptConfig::all())).unwrap();
        texts.push((
            format!("genprog {case} built"),
            memoir_printer::print_module(&m),
        ));
        texts.push((
            format!("genprog {case} O3"),
            memoir_printer::print_module(&o3),
        ));
    }
    let root = env!("CARGO_MANIFEST_DIR");
    let mut files: Vec<String> = std::fs::read_dir(format!("{root}/findings"))
        .unwrap()
        .map(|e| e.unwrap().path().to_string_lossy().into_owned())
        .filter(|p| p.ends_with(".mir"))
        .collect();
    files.sort();
    files.push(format!("{root}/crates/memoir-opt/examples/sum.mir"));
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let label = path.strip_prefix(root).unwrap_or(&path).to_string();
        texts.push((label, text));
    }
    texts
}

#[test]
fn reparsed_texts_match_the_pinned_digest() {
    let mut digest = TextDigest::new();
    for (label, text) in parser_inputs() {
        let parsed = parser::parse_module(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
        let errs = verifier::verify_module(&parsed);
        assert!(errs.is_empty(), "{label}: {errs:?}");
        let printed = memoir_printer::print_module(&parsed);
        let again = parser::parse_module(&printed).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            memoir_printer::print_module(&again),
            printed,
            "{label}: not stable after one trip"
        );
        writeln!(digest, "; {label}").unwrap();
        digest.write_str(&printed).unwrap();
    }
    let got = digest.fingerprint().0;
    assert_eq!(got, REPARSED_DIGEST, "reparsed bytes changed: {got:#018x}");
}
