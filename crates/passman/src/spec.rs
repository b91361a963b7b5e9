//! Textual pipeline specifications, LLVM `-passes=` style.
//!
//! Grammar (whitespace is insignificant):
//!
//! ```text
//! spec     := step ("," step)*
//! step     := call | "fixpoint" opts? "(" call ("," call)* ")"
//! call     := name opts?
//! opts     := "<" opt ("," opt)* ">"
//! opt      := key | key "=" value
//! name,key := [A-Za-z0-9_-]+
//! value    := [A-Za-z0-9_.-]+
//! ```
//!
//! `fixpoint(a,b,c)` runs `a,b,c` repeatedly until an iteration in which
//! no pass reports a change (bounded by the runner's iteration cap).
//! `fixpoint` groups do not nest — a nested `fixpoint(` is a parse error,
//! keeping convergence behaviour predictable.
//!
//! Options attach to a pass invocation (`dee<exact>`, `dce<max-ms=50>`)
//! or to a fixpoint group (`fixpoint<max=4>(simplify,dce)`). The runner
//! interprets the *reserved* option keys itself:
//!
//! * `max` (fixpoint groups only) — iteration cap for this group,
//!   overriding the manager-wide default;
//! * `max-ms` — per-pass wall-clock budget in milliseconds;
//! * `max-growth` — per-pass instruction-count growth factor budget;
//! * `verify-sym` — prove this invocation's input ≡ output with the
//!   manager's symbolic verifier (see
//!   [`with_sym_verifier`](crate::PassManager::with_sym_verifier));
//!   `verify-sym=N` caps the proof at `N` symbolic paths per function.
//!
//! All other options are handed to the pass constructor (see
//! [`PassRegistry::register_with`](crate::PassRegistry::register_with)),
//! which may reject unknown keys.

use std::fmt;
use std::str::FromStr;

/// Option keys interpreted by the runner rather than the pass
/// constructor (budgets, fixpoint caps, per-pass symbolic verification).
/// The worker-thread count is the manager's alone
/// ([`with_threads`](crate::PassManager::with_threads)).
pub const RESERVED_OPTION_KEYS: &[&str] = &["max", "max-ms", "max-growth", "verify-sym"];

/// Options attached to a pass invocation or fixpoint group: an ordered
/// list of `key` / `key=value` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassOptions(Vec<(String, Option<String>)>);

impl PassOptions {
    /// No options.
    pub fn none() -> Self {
        PassOptions(Vec::new())
    }

    /// Options from `(key, value)` pairs.
    pub fn from_pairs(pairs: Vec<(String, Option<String>)>) -> Self {
        PassOptions(pairs)
    }

    /// Whether there are no options.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates `(key, value)` pairs in spec order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Option<&str>)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_deref()))
    }

    /// Whether the bare flag `key` is present (e.g. `exact` in
    /// `dee<exact>`).
    pub fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|(k, v)| k == key && v.is_none())
    }

    /// The value of `key=value`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `key=value` parsed as `T`; `None` when absent, an
    /// error string when present but unparsable.
    pub fn get_parsed<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("option `{key}={v}` is not a valid value")),
        }
    }

    /// The same options minus the runner-reserved keys — what a pass
    /// constructor should see.
    pub fn without_reserved(&self) -> PassOptions {
        PassOptions(
            self.0
                .iter()
                .filter(|(k, _)| !RESERVED_OPTION_KEYS.contains(&k.as_str()))
                .cloned()
                .collect(),
        )
    }

    /// Keys that are neither reserved nor in `known` (for constructors
    /// that want to reject typos).
    pub fn unknown_keys(&self, known: &[&str]) -> Vec<&str> {
        self.0
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| !known.contains(k) && !RESERVED_OPTION_KEYS.contains(k))
            .collect()
    }
}

impl fmt::Display for PassOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return Ok(());
        }
        f.write_str("<")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match v {
                Some(v) => write!(f, "{k}={v}")?,
                None => f.write_str(k)?,
            }
        }
        f.write_str(">")
    }
}

/// One pass invocation in a spec: a name plus its options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassCall {
    /// Registry name of the pass.
    pub name: String,
    /// Options attached at the call site.
    pub opts: PassOptions,
}

impl PassCall {
    /// A call with no options.
    pub fn named(name: impl Into<String>) -> Self {
        PassCall {
            name: name.into(),
            opts: PassOptions::none(),
        }
    }
}

impl From<&str> for PassCall {
    fn from(name: &str) -> Self {
        PassCall::named(name)
    }
}

impl From<String> for PassCall {
    fn from(name: String) -> Self {
        PassCall::named(name)
    }
}

impl fmt::Display for PassCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.opts)
    }
}

/// One step of a pipeline: a single pass or a fixpoint group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecStep {
    /// Run the named pass once.
    Pass(PassCall),
    /// Run the passes repeatedly until none reports a change.
    Fixpoint {
        /// Group options (`max=N` caps this group's iterations).
        opts: PassOptions,
        /// The group body, in order.
        body: Vec<PassCall>,
    },
}

impl SpecStep {
    /// A single-pass step with no options.
    pub fn pass(name: impl Into<String>) -> Self {
        SpecStep::Pass(PassCall::named(name))
    }

    /// A fixpoint step over the named passes, with no options.
    pub fn fixpoint<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        SpecStep::Fixpoint {
            opts: PassOptions::none(),
            body: names.into_iter().map(|n| PassCall::named(n)).collect(),
        }
    }
}

/// A parsed pipeline specification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineSpec {
    /// Steps in execution order.
    pub steps: Vec<SpecStep>,
}

/// A pipeline-spec parse failure, with byte position where applicable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecParseError {
    /// The spec contained no steps.
    Empty,
    /// A character outside the name alphabet / structure.
    UnexpectedChar {
        /// Byte offset of the offending character.
        pos: usize,
        /// The character found.
        ch: char,
    },
    /// A `fixpoint(` occurred inside another `fixpoint(...)`.
    NestedFixpoint {
        /// Byte offset of the inner `fixpoint`.
        pos: usize,
    },
    /// A `fixpoint(` was never closed.
    UnclosedFixpoint,
    /// A `fixpoint()` group with no passes.
    EmptyFixpoint {
        /// Byte offset of the group.
        pos: usize,
    },
    /// An empty pass name (e.g. `a,,b` or a trailing comma).
    EmptyName {
        /// Byte offset where a name was expected.
        pos: usize,
    },
    /// A malformed `<...>` option list.
    BadOptions {
        /// Byte offset of the offending character.
        pos: usize,
        /// What went wrong.
        what: &'static str,
    },
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecParseError::Empty => write!(f, "empty pipeline spec"),
            SpecParseError::UnexpectedChar { pos, ch } => {
                write!(f, "unexpected character `{ch}` at byte {pos}")
            }
            SpecParseError::NestedFixpoint { pos } => {
                write!(f, "nested fixpoint(...) at byte {pos} is not supported")
            }
            SpecParseError::UnclosedFixpoint => write!(f, "unclosed fixpoint(..."),
            SpecParseError::EmptyFixpoint { pos } => {
                write!(f, "fixpoint() at byte {pos} must contain at least one pass")
            }
            SpecParseError::EmptyName { pos } => {
                write!(f, "expected a pass name at byte {pos}")
            }
            SpecParseError::BadOptions { pos, what } => {
                write!(f, "malformed option list at byte {pos}: {what}")
            }
        }
    }
}

impl std::error::Error for SpecParseError {}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

fn is_value_char(c: char) -> bool {
    is_name_char(c) || c == '.'
}

struct Parser<'a> {
    input: &'a str,
    bytes: Vec<(usize, char)>,
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.char_indices().collect(),
            i: 0,
        }
    }

    fn pos(&self) -> usize {
        if self.i < self.bytes.len() {
            self.bytes[self.i].0
        } else {
            self.input.len()
        }
    }

    fn peek(&self) -> Option<char> {
        self.bytes.get(self.i).map(|&(_, c)| c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.i += 1;
        }
    }

    fn read_while(&mut self, pred: impl Fn(char) -> bool) -> Option<String> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if pred(c)) {
            self.i += 1;
        }
        if self.i == start {
            None
        } else {
            Some(self.bytes[start..self.i].iter().map(|&(_, c)| c).collect())
        }
    }

    /// Parses an optional `<opt,...>` list right after a name.
    fn read_opts(&mut self) -> Result<PassOptions, SpecParseError> {
        self.skip_ws();
        if self.peek() != Some('<') {
            return Ok(PassOptions::none());
        }
        self.i += 1; // consume '<'
        let mut pairs = Vec::new();
        loop {
            self.skip_ws();
            let pos = self.pos();
            let Some(key) = self.read_while(is_name_char) else {
                return Err(SpecParseError::BadOptions {
                    pos,
                    what: "expected an option key",
                });
            };
            self.skip_ws();
            let value = if self.peek() == Some('=') {
                self.i += 1;
                self.skip_ws();
                let vpos = self.pos();
                let Some(v) = self.read_while(is_value_char) else {
                    return Err(SpecParseError::BadOptions {
                        pos: vpos,
                        what: "expected a value after `=`",
                    });
                };
                Some(v)
            } else {
                None
            };
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(',') => self.i += 1,
                Some('>') => {
                    self.i += 1;
                    break;
                }
                _ => {
                    return Err(SpecParseError::BadOptions {
                        pos: self.pos(),
                        what: "expected `,` or `>`",
                    })
                }
            }
        }
        Ok(PassOptions(pairs))
    }

    /// Parses `name opts?` (the `call` production).
    fn read_call(&mut self) -> Result<PassCall, SpecParseError> {
        self.skip_ws();
        let pos = self.pos();
        let Some(name) = self.read_while(is_name_char) else {
            return Err(SpecParseError::EmptyName { pos });
        };
        let opts = self.read_opts()?;
        Ok(PassCall { name, opts })
    }
}

impl PipelineSpec {
    /// A spec built from steps.
    pub fn new(steps: Vec<SpecStep>) -> Self {
        PipelineSpec { steps }
    }

    /// Parses a textual spec like
    /// `"constprop,dee<exact>,fixpoint<max=4>(simplify,sink,dce)"`.
    ///
    /// ```
    /// use passman::PipelineSpec;
    ///
    /// let spec = PipelineSpec::parse("constprop,fixpoint<max=4>(simplify,dce)").unwrap();
    /// assert_eq!(spec.pass_names(), ["constprop", "simplify", "dce"]);
    /// // Printing and reparsing closes (the fuzzer's `cli` mode
    /// // attacks this property on every textual surface).
    /// assert_eq!(PipelineSpec::parse(&spec.to_string()).unwrap(), spec);
    /// ```
    pub fn parse(input: &str) -> Result<Self, SpecParseError> {
        let mut p = Parser::new(input);
        let mut steps = Vec::new();

        loop {
            p.skip_ws();
            if steps.is_empty() && p.peek().is_none() {
                return Err(SpecParseError::Empty);
            }
            let call_pos = p.pos();
            let call = p.read_call()?;
            p.skip_ws();

            if call.name == "fixpoint" && p.peek() == Some('(') {
                p.i += 1; // consume '('
                let mut body = Vec::new();
                loop {
                    p.skip_ws();
                    if p.peek() == Some(')') && body.is_empty() {
                        return Err(SpecParseError::EmptyFixpoint { pos: call_pos });
                    }
                    let inner_pos = p.pos();
                    if p.peek().is_none() {
                        return Err(SpecParseError::UnclosedFixpoint);
                    }
                    let inner = p.read_call()?;
                    p.skip_ws();
                    if inner.name == "fixpoint" && p.peek() == Some('(') {
                        return Err(SpecParseError::NestedFixpoint { pos: inner_pos });
                    }
                    body.push(inner);
                    match p.peek() {
                        None => return Err(SpecParseError::UnclosedFixpoint),
                        Some(',') => p.i += 1,
                        Some(')') => {
                            p.i += 1;
                            break;
                        }
                        Some(ch) => {
                            return Err(SpecParseError::UnexpectedChar { pos: p.pos(), ch })
                        }
                    }
                }
                steps.push(SpecStep::Fixpoint {
                    opts: call.opts,
                    body,
                });
            } else {
                steps.push(SpecStep::Pass(call));
            }

            p.skip_ws();
            match p.peek() {
                None => break,
                Some(',') => p.i += 1,
                Some(ch) => return Err(SpecParseError::UnexpectedChar { pos: p.pos(), ch }),
            }
        }

        if steps.is_empty() {
            return Err(SpecParseError::Empty);
        }
        Ok(PipelineSpec { steps })
    }

    /// All pass names referenced by the spec (with repetitions).
    pub fn pass_names(&self) -> Vec<&str> {
        self.calls().map(|c| c.name.as_str()).collect()
    }

    /// All pass calls referenced by the spec, in order (with repetitions).
    pub fn calls(&self) -> impl Iterator<Item = &PassCall> {
        self.steps.iter().flat_map(|s| match s {
            SpecStep::Pass(c) => std::slice::from_ref(c).iter(),
            SpecStep::Fixpoint { body, .. } => body.iter(),
        })
    }
}

impl FromStr for PipelineSpec {
    type Err = SpecParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PipelineSpec::parse(s)
    }
}

impl fmt::Display for PipelineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            match s {
                SpecStep::Pass(c) => write!(f, "{c}")?,
                SpecStep::Fixpoint { opts, body } => {
                    write!(f, "fixpoint{opts}(")?;
                    for (j, c) in body.iter().enumerate() {
                        if j > 0 {
                            f.write_str(",")?;
                        }
                        write!(f, "{c}")?;
                    }
                    f.write_str(")")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_and_fixpoint() {
        let s =
            PipelineSpec::parse("constprop,dee,fixpoint(simplify,sink,dce),ssa-destruct").unwrap();
        assert_eq!(
            s.steps,
            vec![
                SpecStep::pass("constprop"),
                SpecStep::pass("dee"),
                SpecStep::fixpoint(["simplify", "sink", "dce"]),
                SpecStep::pass("ssa-destruct"),
            ]
        );
    }

    #[test]
    fn parses_options() {
        let s =
            PipelineSpec::parse("dee<exact>,dce<max-ms=50>,fixpoint<max=4>(simplify,dce)").unwrap();
        let SpecStep::Pass(dee) = &s.steps[0] else {
            panic!()
        };
        assert!(dee.opts.flag("exact"));
        let SpecStep::Pass(dce) = &s.steps[1] else {
            panic!()
        };
        assert_eq!(dce.opts.get("max-ms"), Some("50"));
        assert_eq!(dce.opts.get_parsed::<u64>("max-ms"), Ok(Some(50)));
        let SpecStep::Fixpoint { opts, body } = &s.steps[2] else {
            panic!()
        };
        assert_eq!(opts.get_parsed::<usize>("max"), Ok(Some(4)));
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn option_helpers_classify_keys() {
        let s = PipelineSpec::parse("dee<exact,max-growth=2.5>").unwrap();
        let SpecStep::Pass(dee) = &s.steps[0] else {
            panic!()
        };
        assert_eq!(dee.opts.get_parsed::<f64>("max-growth"), Ok(Some(2.5)));
        let stripped = dee.opts.without_reserved();
        assert!(stripped.flag("exact"));
        assert_eq!(stripped.get("max-growth"), None);
        assert_eq!(dee.opts.unknown_keys(&["exact"]), Vec::<&str>::new());
        assert_eq!(dee.opts.unknown_keys(&[]), vec!["exact"]);
    }

    #[test]
    fn round_trips_through_display() {
        for text in [
            "constprop",
            "constprop,dce",
            "constprop,fixpoint(simplify,sink,dce)",
            "ssa-construct,dee,fixpoint(constprop,simplify,sink,dce),ssa-destruct",
            "a_b,c-d,fixpoint(e)",
            "dee<exact>",
            "dee<exact,guard=off>,fixpoint<max=4>(simplify,dce<max-ms=10>)",
        ] {
            let spec = PipelineSpec::parse(text).unwrap();
            assert_eq!(spec.to_string(), text, "canonical print");
            let reparsed = PipelineSpec::parse(&spec.to_string()).unwrap();
            assert_eq!(reparsed, spec, "parse ∘ print is identity");
        }
    }

    #[test]
    fn tolerates_whitespace() {
        let a = PipelineSpec::parse(" constprop , fixpoint( sink , dce ) ").unwrap();
        let b = PipelineSpec::parse("constprop,fixpoint(sink,dce)").unwrap();
        assert_eq!(a, b);
        let c = PipelineSpec::parse(" dee < exact , max = 4 > ").unwrap();
        let d = PipelineSpec::parse("dee<exact,max=4>").unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn rejects_nested_fixpoint() {
        let err = PipelineSpec::parse("fixpoint(a,fixpoint(b))").unwrap_err();
        assert!(
            matches!(err, SpecParseError::NestedFixpoint { .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_empty_and_malformed() {
        assert_eq!(PipelineSpec::parse(""), Err(SpecParseError::Empty));
        assert_eq!(PipelineSpec::parse("   "), Err(SpecParseError::Empty));
        assert!(matches!(
            PipelineSpec::parse("a,,b"),
            Err(SpecParseError::EmptyName { .. })
        ));
        assert!(matches!(
            PipelineSpec::parse("a,"),
            Err(SpecParseError::EmptyName { .. })
        ));
        assert!(matches!(
            PipelineSpec::parse("fixpoint()"),
            Err(SpecParseError::EmptyFixpoint { .. })
        ));
        assert!(matches!(
            PipelineSpec::parse("fixpoint(a"),
            Err(SpecParseError::UnclosedFixpoint)
        ));
        assert!(matches!(
            PipelineSpec::parse("a;b"),
            Err(SpecParseError::UnexpectedChar { ch: ';', .. })
        ));
        for bad in ["a<", "a<>", "a<k=>", "a<k=v", "a<k;>", "a<=v>"] {
            assert!(
                matches!(
                    PipelineSpec::parse(bad),
                    Err(SpecParseError::BadOptions { .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn fixpoint_without_parens_is_a_pass_name() {
        // A pass literally named `fixpoint` is allowed when not followed
        // by `(` — the grammar only reserves the call form.
        let s = PipelineSpec::parse("fixpoint").unwrap();
        assert_eq!(s.steps, vec![SpecStep::pass("fixpoint")]);
    }
}
