//! Cross-IR translation validation: prove-then-probe agreement between
//! the MEMOIR module and its lowered low-level form.
//!
//! This is translation validation (cf. *Verifying Peephole Rewriting In
//! SSA Compiler IRs*) in two tiers:
//!
//! 1. **Prove.** When a function's signature is scalar and its path/op
//!    counts fit the symbolic [`Budget`], the `symexec` oracle
//!    enumerates both sides' path sets over a shared term pool and
//!    discharges the function *probe-free* ([`symexec::prove_lowering`]).
//!    A symbolic divergence is only reported after its witness
//!    reproduces on the concrete interpreters, so proving never
//!    produces a false alarm.
//! 2. **Probe.** Functions the oracle cannot settle (budget exceeded,
//!    unsupported constructs, collection parameters) fall back to the
//!    dynamic check: argument vectors are *synthesized from the
//!    parameter types* ([`synth_args`]) — a seeded, deterministic draw
//!    from per-type value domains (boundary values plus small randoms,
//!    clamped to the type's width). The same synthesis is shared with
//!    the fuzz harness in `crates/reduce`, which uses it to probe
//!    individual functions before and after optimization — so the
//!    agreement probe and the fuzz oracle can't drift apart.
//!
//! For the cross-IR comparison only functions whose signature is scalar
//! (integer/bool/index parameters and results — no collections,
//! references, floats, or pointers) are checked: collection handles are
//! not comparable across IRs. The probe runs `memoir-interp` on the
//! MEMOIR function and [`lir::LirMachine`] on the lowered function with
//! the same arguments and requires identical results. Probes where the
//! MEMOIR interpreter itself traps (e.g. out-of-bounds on that input)
//! are skipped conservatively — and skipping is *accounted*: functions
//! that end up with neither a proof nor a single compared probe are
//! reported in [`CrossCheckReport::functions_skipped`].

use lir::{LirMachine, Module as LModule};
use memoir_interp::{Collection, Interp, Key, Value};
use memoir_ir::{Module, ObjTypeId, Type, TypeId, TypeTable};
pub use symexec::Budget;

/// Default probe seeds: each seed synthesizes one typed argument vector
/// per probed function via [`synth_args`] (mixed with the function's
/// index, so different functions see different vectors).
pub const DEFAULT_PROBES: &[u64] = &[0, 1, 3];

/// Interpreter fuel per probe execution, on either side.
pub const PROBE_FUEL: u64 = 10_000_000;

/// What a [`cross_validate`] run covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrossCheckReport {
    /// Functions with checkable (all-scalar) signatures.
    pub functions_checked: usize,
    /// Functions discharged probe-free by the symbolic oracle.
    pub functions_proved: usize,
    /// Functions that fell back to probing and compared at least one
    /// probe.
    pub functions_probed: usize,
    /// Checkable functions that ended with *no* evidence at all: not
    /// proved, and zero probes compared (unsynthesizable parameters, or
    /// every probe trapped on the source side).
    pub functions_skipped: usize,
    /// Probe executions compared on both interpreters.
    pub probes_compared: usize,
    /// Probe executions skipped because the MEMOIR interpreter trapped.
    pub probes_skipped: usize,
}

/// Why cross-validation failed. Every variant is a *definite* problem:
/// inconclusive symbolic runs fall back to probing instead of erroring,
/// and probes the source traps on are skipped (and counted), not failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// A scalar-signature source function has no counterpart in the
    /// lowered module.
    MissingFunction {
        /// The source function's name.
        function: String,
    },
    /// The two sides disagree on a concrete input — found by a probe, or
    /// by the symbolic oracle and then *confirmed* on both interpreters.
    Divergence {
        /// The diverging function's name.
        function: String,
        /// The argument vector that exhibits the disagreement.
        args: Vec<i64>,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// An associative probe argument used a non-scalar key, which has no
    /// well-defined interpreter materialization.
    NonScalarKey,
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::MissingFunction { function } => {
                write!(
                    f,
                    "function `{function}` is missing from the lowered module"
                )
            }
            ValidateError::Divergence {
                function,
                args,
                detail,
            } => write!(
                f,
                "`{function}`({args:?}): {detail} \
                 (see docs/REPRO_FORMAT.md for replaying fuzz artifacts)"
            ),
            ValidateError::NonScalarKey => {
                write!(f, "associative probe argument has a non-scalar key")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Tuning for [`cross_validate_opts`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidateOptions {
    /// Symbolic budget for the prove tier; `None` disables proving and
    /// every checkable function is probed.
    pub prove: Option<Budget>,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        ValidateOptions {
            prove: Some(Budget::default()),
        }
    }
}

/// A synthesized argument value, described independently of any
/// interpreter heap. Scalars carry their payload directly; collections
/// carry their element values and are materialized into a concrete
/// interpreter store by [`materialize`].
#[derive(Clone, Debug, PartialEq)]
pub enum ProbeArg {
    /// An integer (or index) of the given IR type, already clamped to the
    /// type's domain.
    Int(Type, i64),
    /// A boolean.
    Bool(bool),
    /// A sequence with the given element values.
    Seq(Vec<ProbeArg>),
    /// An associative array with the given (distinct-key) entries, in
    /// insertion order.
    Assoc(Vec<(ProbeArg, ProbeArg)>),
    /// A freshly allocated object of the given type, with one value per
    /// field in declaration order.
    Obj(ObjTypeId, Vec<ProbeArg>),
    /// A null reference to the given object type (exercises the callee's
    /// null paths; probes where the source traps on it are skipped).
    NullRef(ObjTypeId),
}

impl ProbeArg {
    /// The scalar payload, if this argument is a scalar.
    pub fn as_scalar(&self) -> Option<i64> {
        match self {
            ProbeArg::Int(_, v) => Some(*v),
            ProbeArg::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }
}

/// Minimal deterministic generator (SplitMix64 step) so synthesis does
/// not depend on the fuzz crate (which depends on this one).
#[derive(Clone, Copy, Debug)]
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Mixes a probe seed with a per-function (or per-call-site) salt,
/// yielding the seed for one synthesized vector. Exposed so harnesses can
/// derive the same streams as [`cross_validate`].
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut m = Mix(seed ^ salt.wrapping_mul(0x2545f4914f6cdd1d));
    m.next()
}

/// Whether a function signature type can be probed with a plain integer
/// on both interpreters.
fn probe_scalar(ty: Type) -> bool {
    matches!(
        ty,
        Type::I64
            | Type::I32
            | Type::I16
            | Type::I8
            | Type::U64
            | Type::U32
            | Type::U16
            | Type::U8
            | Type::Bool
            | Type::Index
    )
}

/// Clamps a raw draw into the domain of an integer parameter type.
fn clamp_int(ty: Type, raw: i64) -> i64 {
    match ty {
        Type::I8 => raw as i8 as i64,
        Type::I16 => raw as i16 as i64,
        Type::I32 => raw as i32 as i64,
        Type::I64 => raw,
        Type::U8 => raw as u8 as i64,
        Type::U16 => raw as u16 as i64,
        Type::U32 => raw as u32 as i64,
        // The interpreters carry unsigned 64-bit payloads in an i64 word;
        // keep the sign bit clear so both sides agree on comparisons.
        Type::U64 => raw & i64::MAX,
        // Indices are used against collections: keep them small enough to
        // land in (and just outside) realistic bounds.
        Type::Index => raw.rem_euclid(17),
        _ => raw,
    }
}

/// Draws one scalar from the "interesting values" pool for a type:
/// boundaries (0, ±1, extremes) with high probability, small randoms
/// otherwise.
fn synth_scalar(ty: Type, rng: &mut Mix) -> ProbeArg {
    if ty == Type::Bool {
        return ProbeArg::Bool(rng.below(2) == 1);
    }
    let raw = match rng.below(8) {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => -1,
        4 => i64::MIN,
        5 => i64::MAX,
        _ => (rng.next() % 255) as i64 - 127,
    };
    ProbeArg::Int(ty, clamp_int(ty, raw))
}

/// Synthesizes one value of type `ty`, or `None` if the type is not
/// synthesizable (floats, pointers, inline objects, void).
fn synth_value(types: &TypeTable, ty: TypeId, rng: &mut Mix, depth: u32) -> Option<ProbeArg> {
    match types.get(ty) {
        t if probe_scalar(t) => Some(synth_scalar(t, rng)),
        Type::Ref(obj) => {
            // Mostly a fresh object with synthesized fields; occasionally
            // null, to probe the callee's null paths (source-side traps
            // are skipped, so null is always safe to draw). At the depth
            // limit null is forced, so recursive object types terminate.
            if depth >= 3 || rng.below(8) == 0 {
                return Some(ProbeArg::NullRef(obj));
            }
            let field_tys: Vec<TypeId> = types.object(obj).fields.iter().map(|f| f.ty).collect();
            let fields = field_tys
                .iter()
                .map(|&ft| synth_value(types, ft, rng, depth + 1))
                .collect::<Option<Vec<_>>>()?;
            Some(ProbeArg::Obj(obj, fields))
        }
        Type::Seq(elem) if depth < 3 => {
            let n = rng.below(5) as usize;
            let elems = (0..n)
                .map(|_| synth_value(types, elem, rng, depth + 1))
                .collect::<Option<Vec<_>>>()?;
            Some(ProbeArg::Seq(elems))
        }
        Type::Assoc(kt, vt) if depth < 3 => {
            // Keys must be scalar (hashable and directly comparable);
            // duplicates are dropped so insertion order is well-defined.
            if !probe_scalar(types.get(kt)) {
                return None;
            }
            let n = rng.below(5) as usize;
            let mut entries: Vec<(ProbeArg, ProbeArg)> = Vec::new();
            for _ in 0..n {
                let k = synth_scalar(types.get(kt), rng);
                let v = synth_value(types, vt, rng, depth + 1)?;
                if !entries.iter().any(|(ek, _)| *ek == k) {
                    entries.push((k, v));
                }
            }
            Some(ProbeArg::Assoc(entries))
        }
        _ => None,
    }
}

/// Synthesizes a typed argument vector for a parameter list from a seed.
/// Deterministic: the same `(types, param_tys, seed)` always yields the
/// same vector. Returns `None` if any parameter type is not
/// synthesizable.
///
/// ```
/// use memoir_ir::{Type, TypeTable};
/// use memoir_lower::synth_args;
///
/// let mut types = TypeTable::new();
/// let i64t = types.intern(Type::I64);
/// let seqt = types.seq_of(i64t);
///
/// let args = synth_args(&types, &[i64t, seqt], 7).unwrap();
/// assert_eq!(args.len(), 2);
/// // Same seed, same vector — probes replay exactly.
/// assert_eq!(synth_args(&types, &[i64t, seqt], 7).unwrap(), args);
/// ```
pub fn synth_args(types: &TypeTable, param_tys: &[TypeId], seed: u64) -> Option<Vec<ProbeArg>> {
    let mut rng = Mix(seed ^ 0xa076_1d64_78bd_642f);
    param_tys
        .iter()
        .map(|&t| synth_value(types, t, &mut rng, 0))
        .collect()
}

/// Projects an argument vector onto plain machine words for the
/// low-level interpreter. `None` if any argument is a collection (no
/// cross-IR representation).
pub fn scalar_args(args: &[ProbeArg]) -> Option<Vec<i64>> {
    args.iter().map(ProbeArg::as_scalar).collect()
}

/// Materializes a synthesized argument in a concrete interpreter heap
/// (collections are allocated in `interp`'s store). Fails with
/// [`ValidateError::NonScalarKey`] when an associative argument carries a
/// collection-valued key ([`synth_args`] never produces one, but
/// hand-built [`ProbeArg`]s can).
pub fn materialize(interp: &mut Interp<'_>, arg: &ProbeArg) -> Result<Value, ValidateError> {
    match arg {
        ProbeArg::Int(ty, v) => Ok(Value::Int(*ty, *v)),
        ProbeArg::Bool(b) => Ok(Value::Bool(*b)),
        ProbeArg::Seq(elems) => {
            let vals: Vec<Value> = elems
                .iter()
                .map(|e| materialize(interp, e))
                .collect::<Result<_, _>>()?;
            Ok(interp.alloc_seq(vals))
        }
        ProbeArg::Assoc(entries) => {
            let mut c = Collection::new_assoc();
            for (k, v) in entries {
                let kv = materialize(interp, k)?;
                let vv = materialize(interp, v)?;
                let key = Key::from_value(&kv).ok_or(ValidateError::NonScalarKey)?;
                if let Collection::Assoc { map, order } = &mut c {
                    if map.insert(key.clone(), vv).is_none() {
                        order.push(key);
                    }
                }
            }
            Ok(Value::Coll(interp.store.alloc_coll(c)))
        }
        ProbeArg::Obj(ty, fields) => {
            let vals: Vec<Value> = fields
                .iter()
                .map(|f| materialize(interp, f))
                .collect::<Result<_, _>>()?;
            let id = interp.store.alloc_obj(*ty, vals.len());
            interp.store.obj_mut(id).fields = Some(vals);
            Ok(Value::Ref(*ty, Some(id)))
        }
        ProbeArg::NullRef(ty) => Ok(Value::Ref(*ty, None)),
    }
}

/// Checks agreement between `m` and its lowered form `lm` with the
/// default options: symbolic proving at the default [`Budget`], probe
/// fallback on the given seeds, no coverage requirement. Returns
/// coverage counters, or the first definite problem found.
pub fn cross_validate(
    m: &Module,
    lm: &LModule,
    probes: &[u64],
) -> Result<CrossCheckReport, ValidateError> {
    cross_validate_opts(m, lm, probes, &ValidateOptions::default())
}

/// [`cross_validate`] with explicit [`ValidateOptions`].
pub fn cross_validate_opts(
    m: &Module,
    lm: &LModule,
    probes: &[u64],
    opts: &ValidateOptions,
) -> Result<CrossCheckReport, ValidateError> {
    let mut report = CrossCheckReport::default();
    for (fidx, (_, f)) in m.funcs.iter().enumerate() {
        let sig_ok = f
            .params
            .iter()
            .map(|p| m.types.get(p.ty))
            .chain(f.ret_tys.iter().map(|&t| m.types.get(t)))
            .all(probe_scalar);
        if !sig_ok {
            continue;
        }
        if lm.by_name(&f.name).is_none() {
            return Err(ValidateError::MissingFunction {
                function: f.name.clone(),
            });
        }
        report.functions_checked += 1;

        // Tier 1: prove the function probe-free when the budget allows.
        // `Inconclusive` (budget, unsupported ops) falls through to the
        // probes; `Diverged` carries a witness already confirmed on both
        // concrete interpreters.
        if let Some(budget) = &opts.prove {
            match symexec::prove_lowering(m, lm, &f.name, budget) {
                symexec::FnVerdict::Proved => {
                    report.functions_proved += 1;
                    continue;
                }
                symexec::FnVerdict::Diverged { args, detail } => {
                    return Err(ValidateError::Divergence {
                        function: f.name.clone(),
                        args,
                        detail,
                    });
                }
                symexec::FnVerdict::Inconclusive(_) => {}
            }
        }

        // Tier 2: typed probes.
        let param_tys: Vec<TypeId> = f.params.iter().map(|p| p.ty).collect();
        let mut compared_here = 0usize;
        for &seed in probes {
            let Some(args) = synth_args(&m.types, &param_tys, mix_seed(seed, fidx as u64)) else {
                // Unsynthesizable parameter type: deterministic per
                // signature, so no other seed will fare better.
                break;
            };
            let Some(lir_args) = scalar_args(&args) else {
                break; // non-scalar argument (can't happen: sig_ok)
            };
            let mut interp = Interp::new(m).with_fuel(PROBE_FUEL);
            let memoir_args: Vec<Value> = args
                .iter()
                .map(|a| materialize(&mut interp, a))
                .collect::<Result<_, _>>()?;
            let memoir_result = interp.run_by_name(&f.name, memoir_args);
            let expected: Vec<i64> = match memoir_result {
                // The source program traps on this input (or runs out of
                // probe fuel): no agreement obligation.
                Err(_) => {
                    report.probes_skipped += 1;
                    continue;
                }
                Ok(vals) => match vals.iter().map(Value::as_int).collect() {
                    Some(ints) => ints,
                    None => {
                        report.probes_skipped += 1;
                        continue;
                    }
                },
            };
            let got = LirMachine::new(lm)
                .with_fuel(PROBE_FUEL)
                .run_by_name(&f.name, lir_args.clone());
            match got {
                Err(trap) => {
                    return Err(ValidateError::Divergence {
                        function: f.name.clone(),
                        args: lir_args,
                        detail: format!(
                            "memoir-interp returned {expected:?} but LirMachine trapped: {trap:?}"
                        ),
                    });
                }
                Ok(got) if got != expected => {
                    return Err(ValidateError::Divergence {
                        function: f.name.clone(),
                        args: lir_args,
                        detail: format!(
                            "memoir-interp returned {expected:?} but LirMachine returned {got:?}"
                        ),
                    });
                }
                Ok(_) => {
                    report.probes_compared += 1;
                    compared_here += 1;
                }
            }
        }
        if compared_here > 0 {
            report.functions_probed += 1;
        } else {
            // Checkable, but no proof and not a single compared probe:
            // this function contributed zero evidence. Report it instead
            // of silently moving on.
            report.functions_skipped += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_module;
    use memoir_ir::{BinOp, Form, ModuleBuilder, Type};

    fn scalar_module() -> Module {
        let mut mb = ModuleBuilder::new("m");
        mb.func("addmul", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let x = b.param("x", i64t);
            let y = b.param("y", i64t);
            let s = b.bin(BinOp::Add, x, y);
            let r = b.bin(BinOp::Mul, s, s);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        mb.finish()
    }

    fn probe_only() -> ValidateOptions {
        ValidateOptions { prove: None }
    }

    #[test]
    fn scalar_function_is_proved_probe_free() {
        let m = scalar_module();
        let lm = lower_module(&m).unwrap();
        let rep = cross_validate(&m, &lm, DEFAULT_PROBES).unwrap();
        assert_eq!(rep.functions_checked, 1);
        assert_eq!(rep.functions_proved, 1);
        assert_eq!(rep.functions_probed, 0);
        assert_eq!(rep.functions_skipped, 0);
        assert_eq!(rep.probes_compared, 0, "proved functions are not probed");
    }

    #[test]
    fn agreement_on_scalar_function_probe_mode() {
        let m = scalar_module();
        let lm = lower_module(&m).unwrap();
        let rep = cross_validate_opts(&m, &lm, DEFAULT_PROBES, &probe_only()).unwrap();
        assert_eq!(rep.functions_checked, 1);
        assert_eq!(rep.functions_proved, 0);
        assert_eq!(rep.functions_probed, 1);
        assert_eq!(rep.probes_compared, DEFAULT_PROBES.len());
        assert_eq!(rep.probes_skipped, 0);
    }

    fn sabotage(lm: &mut LModule) {
        // Sabotage the lowered function: drop the final multiply by
        // rewiring the return to the sum.
        let fun = lm.by_name("addmul").unwrap();
        let f = &mut lm.funcs[fun.0 as usize];
        let entry = f.entry;
        let last = *f.blocks[entry.0 as usize].insts.last().unwrap();
        let p0 = f.param(0);
        if let lir::Op::Ret(vals) = &mut f.insts[last.0 as usize].op {
            vals[0] = p0;
        } else {
            panic!("expected ret terminator");
        }
    }

    #[test]
    fn divergence_is_reported_by_probes() {
        let m = scalar_module();
        let mut lm = lower_module(&m).unwrap();
        sabotage(&mut lm);
        let err = cross_validate_opts(&m, &lm, DEFAULT_PROBES, &probe_only()).unwrap_err();
        let ValidateError::Divergence {
            ref function,
            ref detail,
            ..
        } = err
        else {
            panic!("expected Divergence, got {err:?}");
        };
        assert_eq!(function, "addmul");
        assert!(detail.contains("LirMachine returned"), "{detail}");
        assert!(err.to_string().contains("docs/REPRO_FORMAT.md"), "{err}");
    }

    #[test]
    fn divergence_is_reported_by_the_symbolic_oracle_with_a_witness() {
        let m = scalar_module();
        let mut lm = lower_module(&m).unwrap();
        sabotage(&mut lm);
        let err = cross_validate(&m, &lm, DEFAULT_PROBES).unwrap_err();
        let ValidateError::Divergence { function, args, .. } = err else {
            panic!("expected Divergence, got {err:?}");
        };
        assert_eq!(function, "addmul");
        // The symbolic witness is confirmed: re-run both engines on it.
        let mut interp = Interp::new(&m);
        let vals: Vec<Value> = args.iter().map(|&v| Value::Int(Type::I64, v)).collect();
        let expected = interp.run_by_name("addmul", vals).unwrap()[0]
            .as_int()
            .unwrap();
        let got = LirMachine::new(&lm).run_by_name("addmul", args).unwrap()[0];
        assert_ne!(expected, got);
    }

    #[test]
    fn missing_function_is_an_error() {
        let m = scalar_module();
        let mut lm = lower_module(&m).unwrap();
        let fun = lm.by_name("addmul").unwrap();
        lm.funcs[fun.0 as usize].name = "renamed".into();
        let err = cross_validate(&m, &lm, DEFAULT_PROBES).unwrap_err();
        assert_eq!(
            err,
            ValidateError::MissingFunction {
                function: "addmul".into()
            }
        );
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn non_scalar_assoc_keys_refuse_materialization() {
        let m = scalar_module();
        let mut interp = Interp::new(&m);
        let bad = ProbeArg::Assoc(vec![(
            ProbeArg::Seq(vec![]), // a collection key: no materialization
            ProbeArg::Int(Type::I64, 1),
        )]);
        assert_eq!(
            materialize(&mut interp, &bad),
            Err(ValidateError::NonScalarKey)
        );
        assert!(ValidateError::NonScalarKey.to_string().contains("key"));
    }

    #[test]
    fn zero_coverage_passes_with_zero_counters() {
        // Only collection-signature functions: nothing is checkable.
        let mut mb = ModuleBuilder::new("m");
        mb.func("colly", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let seqt = b.types.seq_of(i64t);
            let s = b.param("s", seqt);
            let n = b.size(s);
            let ni = b.cast(Type::I64, n);
            b.returns(&[i64t]);
            b.ret(vec![ni]);
        });
        let m = mb.finish();
        let lm = lower_module(&m).unwrap();
        let rep = cross_validate(&m, &lm, DEFAULT_PROBES).unwrap();
        assert_eq!(rep.functions_checked, 0);
        assert_eq!(rep.probes_compared, 0);
    }

    #[test]
    fn skipped_functions_are_counted_not_silent() {
        // A scalar signature whose only probeable behavior traps: x / 0
        // would be needed; instead force skips via an always-trapping
        // body so every probe is skipped on the source side.
        let mut mb = ModuleBuilder::new("m");
        mb.func("trappy", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let x = b.param("x", i64t);
            let zero = b.i64(0);
            let q = b.bin(BinOp::Div, x, zero);
            b.returns(&[i64t]);
            b.ret(vec![q]);
        });
        let m = mb.finish();
        let lm = lower_module(&m).unwrap();
        // Probe-only mode: all probes trap on the source side, so the
        // function yields zero evidence and must be counted as skipped.
        let rep = cross_validate_opts(&m, &lm, DEFAULT_PROBES, &probe_only()).unwrap();
        assert_eq!(rep.functions_checked, 1);
        assert_eq!(rep.functions_probed, 0);
        assert_eq!(rep.functions_skipped, 1);
        assert_eq!(rep.probes_skipped, DEFAULT_PROBES.len());
        // The symbolic oracle *can* discharge it (the sole path traps on
        // both sides — no obligation), turning the skip into a proof.
        let rep = cross_validate(&m, &lm, DEFAULT_PROBES).unwrap();
        assert_eq!(rep.functions_proved, 1);
        assert_eq!(rep.functions_skipped, 0);
    }

    #[test]
    fn collection_signatures_are_skipped() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("seqy", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let seqt = b.types.seq_of(i64t);
            let s = b.param("s", seqt);
            let n = b.size(s);
            b.returns(&[i64t]);
            b.ret(vec![n]);
        });
        let m = mb.finish();
        let lm = lower_module(&m).unwrap();
        let rep = cross_validate(&m, &lm, DEFAULT_PROBES).unwrap();
        assert_eq!(rep.functions_checked, 0);
        assert_eq!(rep.probes_compared, 0);
    }

    #[test]
    fn synthesis_is_deterministic_and_typed() {
        let mut types = TypeTable::new();
        let i8t = types.intern(Type::I8);
        let u16t = types.intern(Type::U16);
        let boolt = types.intern(Type::Bool);
        let idxt = types.intern(Type::Index);
        let seqt = types.seq_of(i8t);
        let assoct = types.assoc_of(u16t, seqt);
        let params = [i8t, u16t, boolt, idxt, seqt, assoct];
        for seed in 0..64 {
            let a = synth_args(&types, &params, seed).unwrap();
            let b = synth_args(&types, &params, seed).unwrap();
            assert_eq!(a, b, "seed {seed}");
            match (&a[0], &a[1], &a[2], &a[3], &a[4], &a[5]) {
                (
                    ProbeArg::Int(Type::I8, v8),
                    ProbeArg::Int(Type::U16, v16),
                    ProbeArg::Bool(_),
                    ProbeArg::Int(Type::Index, vi),
                    ProbeArg::Seq(elems),
                    ProbeArg::Assoc(entries),
                ) => {
                    assert!((i8::MIN as i64..=i8::MAX as i64).contains(v8));
                    assert!((0..=u16::MAX as i64).contains(v16));
                    assert!(*vi >= 0);
                    for e in elems {
                        assert!(matches!(e, ProbeArg::Int(Type::I8, _)));
                    }
                    let mut seen = Vec::new();
                    for (k, _) in entries {
                        assert!(matches!(k, ProbeArg::Int(Type::U16, _)));
                        assert!(!seen.contains(k), "duplicate key in {entries:?}");
                        seen.push(k.clone());
                    }
                }
                other => panic!("mis-typed synthesis: {other:?}"),
            }
        }
    }

    #[test]
    fn object_arguments_synthesize_and_probe() {
        use memoir_ir::Field;
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let inner = mb
            .module
            .types
            .define_object(
                "Inner",
                vec![
                    Field {
                        name: "u".into(),
                        ty: i64t,
                    },
                    Field {
                        name: "v".into(),
                        ty: i64t,
                    },
                ],
            )
            .unwrap();
        mb.func("getu", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let rt = b.types.ref_of(inner);
            let p = b.param("p", rt);
            let x = b.param("x", i64t);
            let u = b.field_read(p, inner, 0);
            let s = b.add(u, x);
            b.returns(&[i64t]);
            b.ret(vec![s]);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("getu").unwrap()];
        let param_tys: Vec<TypeId> = f.params.iter().map(|p| p.ty).collect();
        let (mut ran, mut nulls) = (0, 0);
        for seed in 0..64 {
            let args = synth_args(&m.types, &param_tys, seed).unwrap();
            assert_eq!(args, synth_args(&m.types, &param_tys, seed).unwrap());
            match &args[0] {
                ProbeArg::Obj(ty, fields) => {
                    assert_eq!(*ty, inner);
                    assert_eq!(fields.len(), 2);
                    let u = fields[0].as_scalar().unwrap();
                    let x = args[1].as_scalar().unwrap();
                    let mut interp = Interp::new(&m);
                    let vals: Vec<Value> = args
                        .iter()
                        .map(|a| materialize(&mut interp, a).unwrap())
                        .collect();
                    let got = interp.run_by_name("getu", vals).unwrap()[0]
                        .as_int()
                        .unwrap();
                    assert_eq!(got, u.wrapping_add(x), "seed {seed}");
                    ran += 1;
                }
                ProbeArg::NullRef(ty) => {
                    // Null draws are part of the domain: the interpreter
                    // traps on the field read, and probes skip the trap.
                    assert_eq!(*ty, inner);
                    let mut interp = Interp::new(&m);
                    let vals: Vec<Value> = args
                        .iter()
                        .map(|a| materialize(&mut interp, a).unwrap())
                        .collect();
                    assert!(interp.run_by_name("getu", vals).is_err());
                    nulls += 1;
                }
                other => panic!("expected object arg, got {other:?}"),
            }
        }
        assert!(ran > 40, "objects under-sampled: {ran}");
        assert!(nulls > 0, "null refs never sampled");
    }

    #[test]
    fn unsupported_types_refuse_synthesis() {
        let mut types = TypeTable::new();
        let f64t = types.intern(Type::F64);
        let ptrt = types.intern(Type::Ptr);
        assert_eq!(synth_args(&types, &[f64t], 0), None);
        assert_eq!(synth_args(&types, &[ptrt], 0), None);
    }

    #[test]
    fn materialized_collections_run_through_the_interpreter() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("len2", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let seqt = b.types.seq_of(i64t);
            let assoct = b.types.assoc_of(i64t, i64t);
            let s = b.param("s", seqt);
            let a = b.param("a", assoct);
            let n = b.size(s);
            let k = b.size(a);
            let ni = b.cast(Type::I64, n);
            let ki = b.cast(Type::I64, k);
            let total = b.add(ni, ki);
            b.returns(&[i64t]);
            b.ret(vec![total]);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("len2").unwrap()];
        let param_tys: Vec<TypeId> = f.params.iter().map(|p| p.ty).collect();
        let mut compared = 0;
        for seed in 0..32 {
            let args = synth_args(&m.types, &param_tys, seed).unwrap();
            let (ProbeArg::Seq(se), ProbeArg::Assoc(ae)) = (&args[0], &args[1]) else {
                panic!("expected collection args");
            };
            let expect = (se.len() + ae.len()) as i64;
            let mut interp = Interp::new(&m);
            let vals: Vec<Value> = args
                .iter()
                .map(|a| materialize(&mut interp, a).unwrap())
                .collect();
            let got = interp.run_by_name("len2", vals).unwrap()[0]
                .as_int()
                .unwrap();
            assert_eq!(got, expect, "seed {seed}");
            compared += 1;
        }
        assert_eq!(compared, 32);
    }
}
