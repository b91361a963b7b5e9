//! Shared plumbing for the `BENCH_*.json`-emitting report binaries:
//! the common CLI shape (`--out FILE`, `--check`), JSON string escaping,
//! and the standard write-and-announce step.

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The common report-binary CLI: `--check` and `--out FILE` (or
/// `--out=FILE`).
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Output path for the primary JSON report.
    pub out: String,
    /// Whether `--check` (the CI smoke assertions) was requested.
    pub check: bool,
}

impl BenchArgs {
    /// Parses `std::env::args()`, accepting `--check` and `--out`.
    /// Panics on unknown flags, matching the report binaries' historical
    /// behaviour.
    pub fn parse(default_out: &str) -> BenchArgs {
        Self::parse_from(std::env::args().skip(1), default_out)
    }

    /// [`BenchArgs::parse`] over an explicit argument iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>, default_out: &str) -> BenchArgs {
        let mut out = BenchArgs {
            out: default_out.to_string(),
            check: false,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--check" {
                out.check = true;
            } else if arg == "--out" {
                out.out = it.next().expect("`--out` needs a value");
            } else if let Some(path) = arg.strip_prefix("--out=") {
                out.out = path.to_string();
            } else {
                panic!("unknown argument `{arg}`");
            }
        }
        out
    }
}

/// Writes the report and prints the standard `wrote <path> (<what>)`
/// line every report binary emits.
pub fn write_report(path: &str, json: &str, what: &str) {
    std::fs::write(path, json).expect("write report");
    println!("wrote {path} ({what})");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()), "BENCH_default.json")
    }

    #[test]
    fn defaults_and_check() {
        let a = parse(&[]);
        assert_eq!(a.out, "BENCH_default.json");
        assert!(!a.check);
        let a = parse(&["--check"]);
        assert!(a.check);
    }

    #[test]
    fn out_both_syntaxes() {
        assert_eq!(parse(&["--out", "x.json"]).out, "x.json");
        assert_eq!(parse(&["--out=y.json"]).out, "y.json");
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag_panics() {
        parse(&["--bogus"]);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
