//! Pins the bytes both IR printers produce. A fixed corpus is printed
//! through the streaming renderers into a `TextDigest` and the digest is
//! compared with the one the `String`-building printers these replaced
//! produced on the same corpus: the MEMOIR text is part of `memoird`'s
//! job-cache key and of every compile output, so no byte may move.
//!
//! The corpus: the five kernels as built, after O3 and lowered through
//! `lower<adaptive>` plus the default lir pipeline; and `synth_ir`
//! modules of four sizes and seeds through the same three stages.

use memoir::ir::printer as memoir_printer;
use memoir::ir::Module;
use memoir::lir::printer as lir_printer;
use memoir::opt::lowering::{compile_lowered_with, split_lowered_spec, LowerConfig};
use memoir::opt::pipeline::{default_spec, OptConfig, OptLevel};
use memoir::passman::{PipelineSpec, TextDigest};
use memoir::workloads::synth_ir::build_synth_ir;
use memoir::workloads::{deepsjeng_ir, docstore, mcf_ir, optlike_ir, smallbank_ir};
use std::fmt::{self, Write};

/// The digest of the whole corpus, each entry preceded by a
/// `; <label>\n` line.
const CORPUS_DIGEST: u64 = 0x8c90_c830_3ddb_98d6;

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
