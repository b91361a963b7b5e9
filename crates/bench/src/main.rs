//! # bench
//!
//! The evaluation harness: one binary that regenerates every table and
//! figure of the paper (DESIGN.md §4) and the workload cost sweep behind
//! `BENCH_workloads.json`.
//!
//! ```text
//! bench paper ARTIFACT...     print each artifact's table, in the order given
//! bench workloads [--check]   print the BENCH_workloads.json document
//! ```
//!
//! | paper artefact | `bench paper` name |
//! |---|---|
//! | Fig. 1 (heap classification) | `fig1` |
//! | Table II (developer effort) | `table2` |
//! | Table III (compile time / collections) | `table3` |
//! | Fig. 6 (exec time, ported) | `fig6` |
//! | Fig. 7 (max RSS, ported) | `fig7` |
//! | Fig. 8 (mcf time breakdown) | `fig8` |
//! | Fig. 9 (mcf RSS breakdown) | `fig9` |
//! | Fig. 10 (GVN memory VNs) | `fig10` |
//! | Fig. 11 (Sink breakdown) | `fig11` |
//! | Fig. 12 (ConstantFold breakdown) | `fig12` |
//! | E12 (automatic DEE on the mcf IR kernel) | `e12` |
//!
//! `bench workloads` writes the JSON document to stdout and its
//! human-readable table to stderr; `--check` adds the CI assertions.

mod cost_sweep;
mod paper;

use std::io::{ErrorKind, Write};

const USAGE: &str = "usage: bench paper ARTIFACT...
       bench workloads [--check]

artifacts: fig1 table2 table3 fig6 fig7 fig8 fig9 fig10 fig11 fig12 e12";

/// What the command line asks for.
enum Command {
    /// Print these artifacts, in order.
    Paper(Vec<paper::Artifact>),
    /// Run the workload cost sweep, with or without its self-checks.
    Workloads { check: bool },
}

/// Parses the arguments after the program name; `None` is a usage error.
fn parse(args: &[String]) -> Option<Command> {
    match args.split_first()? {
        (cmd, names) if cmd == "paper" && !names.is_empty() => names
            .iter()
            .map(|n| paper::artifact(n))
            .collect::<Option<_>>()
            .map(Command::Paper),
        (cmd, []) if cmd == "workloads" => Some(Command::Workloads { check: false }),
        (cmd, [flag]) if cmd == "workloads" && flag == "--check" => {
            Some(Command::Workloads { check: true })
        }
        _ => None,
    }
}

fn main() {
    let args: Option<Vec<String>> = std::env::args_os()
        .skip(1)
        .map(|a| a.into_string().ok())
        .collect();
    let Some(command) = args.as_deref().and_then(parse) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    // Everything goes through one locked stdout; a reader that closes
    // the pipe early (`bench paper fig1 | head -1`) ends the run quietly.
    let mut out = std::io::stdout().lock();
    let written = match command {
        Command::Paper(artifacts) => artifacts.iter().try_for_each(|write| write(&mut out)),
        Command::Workloads { check } => cost_sweep::run(check, &mut out),
    }
    .and_then(|()| out.flush());
    match written {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("bench: writing stdout: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(args: &str) -> Option<Command> {
        let args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        parse(&args)
    }

    #[test]
    fn every_listed_artifact_parses() {
        let names = USAGE.rsplit("artifacts: ").next().unwrap();
        for args in [format!("paper {names}"), "paper fig7 fig6 fig7".into()] {
            let Some(Command::Paper(list)) = parse_str(&args) else {
                panic!("`{args}` did not parse");
            };
            assert_eq!(list.len(), args.split_whitespace().count() - 1);
        }
    }

    #[test]
    fn workloads_takes_only_check() {
        assert!(matches!(
            parse_str("workloads"),
            Some(Command::Workloads { check: false })
        ));
        assert!(matches!(
            parse_str("workloads --check"),
            Some(Command::Workloads { check: true })
        ));
    }

    #[test]
    fn bad_argv_is_a_usage_error() {
        for args in [
            "",
            "paper",
            "paper nope",
            "paper fig1 nope",
            "paper --check",
            "workloads --out x",
            "workloads --out=x",
            "workloads --check --check",
            "workloads fig1",
            "fig1",
            "--check",
        ] {
            assert!(parse_str(args).is_none(), "`{args}` parsed");
        }
    }
}
