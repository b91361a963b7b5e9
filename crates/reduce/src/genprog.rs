//! Random MUT-op programs with a built-in oracle, over the whole MEMOIR
//! language surface.
//!
//! The fuzz harness, the reducer, and the property tests (including
//! `tests/pipeline_differential.rs`) all draw from this one generator,
//! so they share one distribution. A generated case ([`CaseProgram`])
//! is:
//!
//! - a straight-line prefix of sequence mutations (push/write/insert/
//!   remove/swap/remove-range), associative-array mutations
//!   (assoc-insert/remove/has/keys over a small key universe), and —
//!   in the object dimension — field reads/writes over a small pool of
//!   objects of a generated struct type `Pt { a, b, sink, tags: Seq }`
//!   (`sink` is written but never read, so dead-field elimination has
//!   something to eliminate; `tags` nests a collection inside a field);
//! - optionally (the multi-function dimension) a list of helper
//!   functions called in order from `main`: *ops helpers* take the
//!   sequence and assoc **by reference** plus a scalar accumulator and
//!   apply their own op list (fuzzing `ARGφ`/`RETφ` construction and
//!   destruction, call lowering, and the call-graph/purity/escape
//!   analyses), and *scalar helpers* are branchy pure arithmetic
//!   (probe-able across IRs by the typed-argument synthesis in
//!   `memoir-lower::validate`);
//! - fold-loop epilogues over every live collection, with a plain-Rust
//!   oracle computing the expected result alongside.
//!
//! Build-time index clamping and the oracle share one resolution step
//! ([`Op`] → `Action`), so the generated IR and the oracle cannot drift.

use crate::harness::CaseConfig;
use crate::rng::SplitMix64;
use memoir_ir::{
    CmpOp, Field, Form, FuncId, FunctionBuilder, Module, ModuleBuilder, ObjTypeId, Type,
};
use passman::{Budgets, FaultPolicy};
use std::fmt;
use std::str::FromStr;

/// One collection mutation in the generated program. Sequence indices are
/// reduced modulo the current length at build time, assoc keys modulo a
/// small key universe, and object slots/fields modulo the pool, so any
/// byte values are valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Append a value.
    Push(i8),
    /// Overwrite the element at index `i % len`.
    Write(u8, i8),
    /// Insert at index `i % (len + 1)`.
    InsertAt(u8, i8),
    /// Remove the element at index `i % len`.
    Remove(u8),
    /// Swap the elements at two (distinct-after-mod) indices.
    SwapElems(u8, u8),
    /// Remove the half-open range between two indices.
    RemoveRange(u8, u8),
    /// Insert (or overwrite) key `k % 16` in the assoc.
    AssocInsert(u8, i8),
    /// Remove key `k % 16` from the assoc (emitted only when present —
    /// removal of a missing key traps).
    AssocRemove(u8),
    /// Probe key `k % 16` and fold the boolean into the result
    /// (position-weighted, so reorderings are observable).
    AssocHas(u8),
    /// Take the key-sequence size and fold it into the result
    /// (position-weighted).
    AssocKeys,
    /// Write field `f % 3` (`a`/`b`/`sink`) of object `slot % OBJ_SLOTS`.
    ObjWrite(u8, u8, i8),
    /// Read field `f % 2` (`a`/`b`) of object `slot % OBJ_SLOTS` and fold
    /// it into the result (position-weighted).
    ObjRead(u8, u8),
    /// Push onto the `tags` sequence nested in a field of object
    /// `slot % OBJ_SLOTS` (re-reads the field each time).
    ObjTagPush(u8, i8),
    /// Write field `f % 2` (`u`/`v`) of the `Inner` object linked from
    /// field `link` of object `slot % OBJ_SLOTS` (one level of object
    /// nesting: a field read chained into a field write).
    LinkWrite(u8, u8, i8),
    /// Read field `f % 2` of the linked `Inner` of object
    /// `slot % OBJ_SLOTS` and fold it in (position-weighted).
    LinkRead(u8, u8),
    /// Re-link object `slot % OBJ_SLOTS` to a freshly allocated
    /// `Inner { u: value, v: old.u }` — the old inner's `u` flows through
    /// the replacement, then the old object becomes garbage.
    LinkNew(u8, i8),
    /// Push a *reference* to pool object `slot % OBJ_SLOTS` onto the
    /// shared doc sequence (`Seq<&Pt>`): the pool and the sequence now
    /// alias.
    DocPush(u8),
    /// Write field `f % 3` (`a`/`b`/`sink`) of the object referenced at
    /// `docs[i % len]` — a store through a collection-held alias of the
    /// pool.
    DocWrite(u8, u8, i8),
    /// Read field `f % 2` of the object referenced at `docs[i % len]`
    /// and fold it in (position-weighted).
    DocRead(u8, u8),
    /// Insert a reference to pool object `slot % OBJ_SLOTS` into the doc
    /// assoc (`Assoc<i64, &Pt>`) at key `k % 16`.
    DocAssocInsert(u8, u8),
    /// If key `k % 16` is present in the doc assoc, read field `f % 2`
    /// of the referenced object and fold it in (position-weighted;
    /// emitted only when present — reading a missing key traps).
    DocAssocRead(u8, u8),
}

/// Assoc keys are drawn from `0..ASSOC_KEYS` so that inserts, removes and
/// probes collide often enough to exercise overwrite and miss paths.
pub const ASSOC_KEYS: u8 = 16;

/// Size of the object pool in the object dimension.
pub const OBJ_SLOTS: u8 = 2;

/// `Pt` field indices: `a`, `b`, `sink` (write-only — dead-field
/// elimination bait), `tags` (a nested `Seq<i64>`), `link` (a nested
/// `&Inner` — one level of object-in-object nesting).
const F_A: u32 = 0;
const F_B: u32 = 1;
const F_SINK: u32 = 2;
const F_TAGS: u32 = 3;
const F_LINK: u32 = 4;

/// `Inner` field indices: `u`, `v`.
const I_U: u32 = 0;
const I_V: u32 = 1;

impl Op {
    /// Whether this op touches the object pool (the object dimension).
    pub fn is_obj(&self) -> bool {
        matches!(
            self,
            Op::ObjWrite(..)
                | Op::ObjRead(..)
                | Op::ObjTagPush(..)
                | Op::LinkWrite(..)
                | Op::LinkRead(..)
                | Op::LinkNew(..)
                | Op::DocPush(..)
                | Op::DocWrite(..)
                | Op::DocRead(..)
                | Op::DocAssocInsert(..)
                | Op::DocAssocRead(..)
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Push(v) => write!(f, "push {v}"),
            Op::Write(i, v) => write!(f, "write {i} {v}"),
            Op::InsertAt(i, v) => write!(f, "insert {i} {v}"),
            Op::Remove(i) => write!(f, "remove {i}"),
            Op::SwapElems(a, b) => write!(f, "swap {a} {b}"),
            Op::RemoveRange(a, b) => write!(f, "remove-range {a} {b}"),
            Op::AssocInsert(k, v) => write!(f, "assoc-insert {k} {v}"),
            Op::AssocRemove(k) => write!(f, "assoc-remove {k}"),
            Op::AssocHas(k) => write!(f, "assoc-has {k}"),
            Op::AssocKeys => write!(f, "assoc-keys"),
            Op::ObjWrite(s, fl, v) => write!(f, "obj-write {s} {fl} {v}"),
            Op::ObjRead(s, fl) => write!(f, "obj-read {s} {fl}"),
            Op::ObjTagPush(s, v) => write!(f, "obj-tag-push {s} {v}"),
            Op::LinkWrite(s, fl, v) => write!(f, "obj-link-write {s} {fl} {v}"),
            Op::LinkRead(s, fl) => write!(f, "obj-link-read {s} {fl}"),
            Op::LinkNew(s, v) => write!(f, "obj-link-new {s} {v}"),
            Op::DocPush(s) => write!(f, "doc-push {s}"),
            Op::DocWrite(i, fl, v) => write!(f, "doc-write {i} {fl} {v}"),
            Op::DocRead(i, fl) => write!(f, "doc-read {i} {fl}"),
            Op::DocAssocInsert(k, s) => write!(f, "doc-assoc-insert {k} {s}"),
            Op::DocAssocRead(k, fl) => write!(f, "doc-assoc-read {k} {fl}"),
        }
    }
}

impl FromStr for Op {
    type Err = String;

    fn from_str(s: &str) -> Result<Op, String> {
        let mut it = s.split_whitespace();
        let head = it.next().ok_or("empty op")?;
        let mut arg = |name: &str| -> Result<i64, String> {
            it.next()
                .ok_or_else(|| format!("op `{head}` is missing its {name} argument"))?
                .parse::<i64>()
                .map_err(|_| format!("op `{s}` has a bad {name} argument"))
        };
        let op = match head {
            "push" => Op::Push(arg("value")? as i8),
            "write" => Op::Write(arg("index")? as u8, arg("value")? as i8),
            "insert" => Op::InsertAt(arg("index")? as u8, arg("value")? as i8),
            "remove" => Op::Remove(arg("index")? as u8),
            "swap" => Op::SwapElems(arg("index")? as u8, arg("index")? as u8),
            "remove-range" => Op::RemoveRange(arg("index")? as u8, arg("index")? as u8),
            "assoc-insert" => Op::AssocInsert(arg("key")? as u8, arg("value")? as i8),
            "assoc-remove" => Op::AssocRemove(arg("key")? as u8),
            "assoc-has" => Op::AssocHas(arg("key")? as u8),
            "assoc-keys" => Op::AssocKeys,
            "obj-write" => {
                Op::ObjWrite(arg("slot")? as u8, arg("field")? as u8, arg("value")? as i8)
            }
            "obj-read" => Op::ObjRead(arg("slot")? as u8, arg("field")? as u8),
            "obj-tag-push" => Op::ObjTagPush(arg("slot")? as u8, arg("value")? as i8),
            "obj-link-write" => {
                Op::LinkWrite(arg("slot")? as u8, arg("field")? as u8, arg("value")? as i8)
            }
            "obj-link-read" => Op::LinkRead(arg("slot")? as u8, arg("field")? as u8),
            "obj-link-new" => Op::LinkNew(arg("slot")? as u8, arg("value")? as i8),
            "doc-push" => Op::DocPush(arg("slot")? as u8),
            "doc-write" => Op::DocWrite(
                arg("index")? as u8,
                arg("field")? as u8,
                arg("value")? as i8,
            ),
            "doc-read" => Op::DocRead(arg("index")? as u8, arg("field")? as u8),
            "doc-assoc-insert" => Op::DocAssocInsert(arg("key")? as u8, arg("slot")? as u8),
            "doc-assoc-read" => Op::DocAssocRead(arg("key")? as u8, arg("field")? as u8),
            other => return Err(format!("unknown op `{other}`")),
        };
        if it.next().is_some() {
            return Err(format!("op `{s}` has trailing arguments"));
        }
        Ok(op)
    }
}

/// A helper function callable from `main` in a multi-function case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Helper {
    /// `fn helperK(s: &Seq<i64>, a: &Assoc<i64,i64>, x: i64) -> i64`:
    /// applies its op list to the caller's collections (by reference) and
    /// returns `x + its own probe/fold contributions`. Object ops are not
    /// valid here and are skipped at build time (the object pool is local
    /// to `main`).
    Ops(Vec<Op>),
    /// `fn helperK(x: i64, y: i64) -> i64`: branchy pure scalar
    /// arithmetic built from two constants —
    /// `if x < y { x*c1 + y } else { y*c2 - x }` (wrapping). All-scalar
    /// signature, so the cross-IR agreement probe exercises it with
    /// synthesized argument vectors.
    Scalar(i8, i8),
    /// `fn helperK(p: &Inner, x: i64) -> i64`: branchy arithmetic over
    /// the fields of an object argument —
    /// `if p.u < x { p.u*c1 + p.v } else { p.v*c2 - x }` (wrapping).
    /// The signature takes a `Ref`, so the same-IR pre/post-opt probe
    /// exercises it with a *synthesized object* argument
    /// (`ProbeArg::Obj` in `memoir-lower::validate`).
    ObjProbe(i8, i8),
}

/// A whole generated case: `main`'s op list plus helper functions called
/// in order after `main`'s own ops.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CaseProgram {
    /// `main`'s straight-line op list.
    pub main: Vec<Op>,
    /// Helper functions, called once each in order.
    pub helpers: Vec<Helper>,
}

impl CaseProgram {
    /// A single-function case over one op list (the v1 shape).
    pub fn single(ops: Vec<Op>) -> Self {
        CaseProgram {
            main: ops,
            helpers: Vec::new(),
        }
    }

    /// Whether this case uses any post-v1 language surface (objects or
    /// helper functions) — used for `.repro` version selection.
    pub fn uses_v2(&self) -> bool {
        !self.helpers.is_empty() || self.main.iter().any(Op::is_obj)
    }
}

/// Which program dimensions the generator draws from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaseDims {
    /// Include object/field ops in `main`.
    pub objects: bool,
    /// Generate helper functions called from `main`.
    pub multi: bool,
}

/// Draws one random op. Without `objects` it comes from the v1
/// (sequence + assoc) distribution; with `objects`, the distribution
/// extends to the object/field ops, including the object-graph shapes
/// (nested `Inner` links and doc collections of object refs).
pub fn random_op(rng: &mut SplitMix64, objects: bool) -> Op {
    match rng.below(if objects { 32 } else { 16 }) {
        0..=2 => Op::Push(rng.next_u64() as i8),
        3..=4 => Op::Write(rng.next_u64() as u8, rng.next_u64() as i8),
        5..=6 => Op::InsertAt(rng.next_u64() as u8, rng.next_u64() as i8),
        7 => Op::Remove(rng.next_u64() as u8),
        8..=9 => Op::SwapElems(rng.next_u64() as u8, rng.next_u64() as u8),
        10 => Op::RemoveRange(rng.next_u64() as u8, rng.next_u64() as u8),
        11..=12 => Op::AssocInsert(rng.next_u64() as u8, rng.next_u64() as i8),
        13 => Op::AssocRemove(rng.next_u64() as u8),
        14 => Op::AssocHas(rng.next_u64() as u8),
        15 => Op::AssocKeys,
        16..=17 => Op::ObjWrite(
            rng.next_u64() as u8,
            rng.next_u64() as u8,
            rng.next_u64() as i8,
        ),
        18..=19 => Op::ObjRead(rng.next_u64() as u8, rng.next_u64() as u8),
        20..=21 => Op::ObjTagPush(rng.next_u64() as u8, rng.next_u64() as i8),
        22..=23 => Op::LinkWrite(
            rng.next_u64() as u8,
            rng.next_u64() as u8,
            rng.next_u64() as i8,
        ),
        24 => Op::LinkRead(rng.next_u64() as u8, rng.next_u64() as u8),
        25 => Op::LinkNew(rng.next_u64() as u8, rng.next_u64() as i8),
        26..=27 => Op::DocPush(rng.next_u64() as u8),
        28 => Op::DocWrite(
            rng.next_u64() as u8,
            rng.next_u64() as u8,
            rng.next_u64() as i8,
        ),
        29 => Op::DocRead(rng.next_u64() as u8, rng.next_u64() as u8),
        30 => Op::DocAssocInsert(rng.next_u64() as u8, rng.next_u64() as u8),
        _ => Op::DocAssocRead(rng.next_u64() as u8, rng.next_u64() as u8),
    }
}

/// Draws a random op sequence of length `0..max_len`, optionally
/// including object ops (see [`random_op`]).
pub fn random_ops(rng: &mut SplitMix64, max_len: usize, objects: bool) -> Vec<Op> {
    let n = rng.index(max_len.max(1));
    (0..n).map(|_| random_op(rng, objects)).collect()
}

/// Draws a whole case in the given dimensions: `main`'s ops, plus 1–3
/// helpers when `dims.multi` (ops helpers twice as likely as scalar
/// ones; with `dims.objects`, a quarter of the non-scalar draws become
/// object-probe helpers taking a `&Inner` argument).
pub fn random_case(rng: &mut SplitMix64, max_ops: usize, dims: CaseDims) -> CaseProgram {
    let main = random_ops(rng, max_ops, dims.objects);
    let mut helpers = Vec::new();
    if dims.multi {
        let n = 1 + rng.index(3);
        for _ in 0..n {
            if rng.chance(1, 3) {
                helpers.push(Helper::Scalar(rng.next_u64() as i8, rng.next_u64() as i8));
            } else if dims.objects && rng.chance(1, 4) {
                helpers.push(Helper::ObjProbe(rng.next_u64() as i8, rng.next_u64() as i8));
            } else {
                helpers.push(Helper::Ops(random_ops(rng, max_ops / 2 + 1, false)));
            }
        }
    }
    CaseProgram { main, helpers }
}

/// The scalar-helper function, evaluated on the oracle side (wrapping,
/// matching the interpreters' integer semantics).
pub fn scalar_helper_eval(c1: i8, c2: i8, x: i64, y: i64) -> i64 {
    if x < y {
        x.wrapping_mul(c1 as i64).wrapping_add(y)
    } else {
        y.wrapping_mul(c2 as i64).wrapping_sub(x)
    }
}

/// The object-probe helper, evaluated on the oracle side: `u`/`v` are
/// the fields of the `&Inner` argument (wrapping).
pub fn obj_probe_eval(c1: i8, c2: i8, u: i64, v: i64, x: i64) -> i64 {
    if u < x {
        u.wrapping_mul(c1 as i64).wrapping_add(v)
    } else {
        v.wrapping_mul(c2 as i64).wrapping_sub(x)
    }
}

// ---------------------------------------------------------------------
// Oracle state and the shared op-resolution step.

#[derive(Clone, Debug, Default, PartialEq)]
struct ObjState {
    a: i64,
    b: i64,
    tags: Vec<i64>,
    // Fields of the `Inner` object reachable through `link`. Each pool
    // slot owns exactly one inner at a time (re-linking replaces it and
    // nothing else ever holds an inner ref), so modelling the pointee
    // inline is exact.
    u: i64,
    v: i64,
}

/// The oracle's model of the whole heap reachable from a case: the shared
/// sequence and assoc (threaded through helpers by reference) and the
/// object pool (local to `main`). The doc collections hold *pool slot
/// indices* — every `&Pt` in them aliases a pool object, and the oracle
/// models the aliasing by indirecting through the slot.
#[derive(Clone, Debug, Default, PartialEq)]
struct OracleState {
    seq: Vec<i64>,
    // Insertion-ordered, mirroring the interpreter's assoc key order.
    assoc: Vec<(i64, i64)>,
    objs: Vec<ObjState>,
    // `Seq<&Pt>` of pool aliases, as slot indices.
    docs: Vec<usize>,
    // `Assoc<i64, &Pt>` of pool aliases: insertion-ordered key → slot.
    adocs: Vec<(i64, usize)>,
}

impl OracleState {
    fn with_objs(objects: bool) -> Self {
        OracleState {
            objs: if objects {
                vec![ObjState::default(); OBJ_SLOTS as usize]
            } else {
                Vec::new()
            },
            ..Default::default()
        }
    }
}

/// An [`Op`] resolved against the current oracle state: concrete clamped
/// indices, with invalid ops resolved to `Skip`. Both the IR emitter and
/// the pure simulator consume resolved actions, so they cannot disagree.
#[derive(Clone, Copy, Debug)]
enum Action {
    Skip,
    Push(i64),
    Write(usize, i64),
    Insert(usize, i64),
    Remove(usize),
    Swap(usize, usize),
    RemoveRange(usize, usize),
    AInsert(i64, i64),
    ARemove(i64),
    AHas(i64),
    AKeys,
    OWrite(usize, u32, i64),
    ORead(usize, u32),
    OTagPush(usize, i64),
    LWrite(usize, u32, i64),
    LRead(usize, u32),
    LNew(usize, i64),
    DPush(usize),
    DWrite(usize, u32, i64),
    DRead(usize, u32),
    DAInsert(i64, usize),
    DARead(i64, u32),
}

/// Resolves `op` against `state`, applies it, and returns the action plus
/// the op's contribution to the position-weighted probe accumulator.
fn step(state: &mut OracleState, weight: i64, op: Op, allow_obj: bool) -> (Action, i64) {
    let act = match op {
        Op::Push(v) => Action::Push(v as i64),
        Op::Write(i, v) if !state.seq.is_empty() => {
            Action::Write(i as usize % state.seq.len(), v as i64)
        }
        Op::InsertAt(i, v) => Action::Insert(i as usize % (state.seq.len() + 1), v as i64),
        Op::Remove(i) if !state.seq.is_empty() => Action::Remove(i as usize % state.seq.len()),
        Op::SwapElems(x, c) if !state.seq.is_empty() => {
            let x = x as usize % state.seq.len();
            let c = c as usize % state.seq.len();
            // Disjoint or identical single-element ranges only.
            if x != c {
                Action::Swap(x, c)
            } else {
                Action::Skip
            }
        }
        Op::RemoveRange(x, c) if !state.seq.is_empty() => {
            let x = x as usize % state.seq.len();
            let c = c as usize % state.seq.len();
            Action::RemoveRange(x.min(c), x.max(c))
        }
        Op::AssocInsert(k, v) => Action::AInsert((k % ASSOC_KEYS) as i64, v as i64),
        Op::AssocRemove(k) => {
            let key = (k % ASSOC_KEYS) as i64;
            if state.assoc.iter().any(|(ek, _)| *ek == key) {
                Action::ARemove(key)
            } else {
                Action::Skip
            }
        }
        Op::AssocHas(k) => Action::AHas((k % ASSOC_KEYS) as i64),
        Op::AssocKeys => Action::AKeys,
        Op::ObjWrite(s, f, v) if allow_obj => {
            Action::OWrite((s % OBJ_SLOTS) as usize, (f % 3) as u32, v as i64)
        }
        Op::ObjRead(s, f) if allow_obj => Action::ORead((s % OBJ_SLOTS) as usize, (f % 2) as u32),
        Op::ObjTagPush(s, v) if allow_obj => Action::OTagPush((s % OBJ_SLOTS) as usize, v as i64),
        Op::LinkWrite(s, f, v) if allow_obj => {
            Action::LWrite((s % OBJ_SLOTS) as usize, (f % 2) as u32, v as i64)
        }
        Op::LinkRead(s, f) if allow_obj => Action::LRead((s % OBJ_SLOTS) as usize, (f % 2) as u32),
        Op::LinkNew(s, v) if allow_obj => Action::LNew((s % OBJ_SLOTS) as usize, v as i64),
        Op::DocPush(s) if allow_obj => Action::DPush((s % OBJ_SLOTS) as usize),
        Op::DocWrite(i, f, v) if allow_obj && !state.docs.is_empty() => {
            Action::DWrite(i as usize % state.docs.len(), (f % 3) as u32, v as i64)
        }
        Op::DocRead(i, f) if allow_obj && !state.docs.is_empty() => {
            Action::DRead(i as usize % state.docs.len(), (f % 2) as u32)
        }
        Op::DocAssocInsert(k, s) if allow_obj => {
            Action::DAInsert((k % ASSOC_KEYS) as i64, (s % OBJ_SLOTS) as usize)
        }
        Op::DocAssocRead(k, f) if allow_obj => {
            let key = (k % ASSOC_KEYS) as i64;
            if state.adocs.iter().any(|(ek, _)| *ek == key) {
                Action::DARead(key, (f % 2) as u32)
            } else {
                Action::Skip
            }
        }
        _ => Action::Skip,
    };
    let mut extra = 0i64;
    match act {
        Action::Skip => {}
        Action::Push(v) => state.seq.push(v),
        Action::Write(i, v) => state.seq[i] = v,
        Action::Insert(i, v) => state.seq.insert(i, v),
        Action::Remove(i) => {
            state.seq.remove(i);
        }
        Action::Swap(x, c) => state.seq.swap(x, c),
        Action::RemoveRange(lo, hi) => {
            state.seq.drain(lo..hi);
        }
        Action::AInsert(k, v) => {
            // Overwrite keeps the original insertion position.
            match state.assoc.iter_mut().find(|(ek, _)| *ek == k) {
                Some(e) => e.1 = v,
                None => state.assoc.push((k, v)),
            }
        }
        Action::ARemove(k) => state.assoc.retain(|(ek, _)| *ek != k),
        Action::AHas(k) => {
            if state.assoc.iter().any(|(ek, _)| *ek == k) {
                extra = weight;
            }
        }
        Action::AKeys => extra = weight.wrapping_mul(state.assoc.len() as i64),
        Action::OWrite(s, f, v) => match f {
            F_A => state.objs[s].a = v,
            F_B => state.objs[s].b = v,
            // `sink` is deliberately unobserved.
            _ => {}
        },
        Action::ORead(s, f) => {
            let v = if f == F_A {
                state.objs[s].a
            } else {
                state.objs[s].b
            };
            extra = weight.wrapping_mul(v);
        }
        Action::OTagPush(s, v) => state.objs[s].tags.push(v),
        Action::LWrite(s, f, v) => {
            if f == I_U {
                state.objs[s].u = v;
            } else {
                state.objs[s].v = v;
            }
        }
        Action::LRead(s, f) => {
            let x = if f == I_U {
                state.objs[s].u
            } else {
                state.objs[s].v
            };
            extra = weight.wrapping_mul(x);
        }
        Action::LNew(s, v) => {
            // The fresh inner carries the old inner's `u` in its `v`.
            state.objs[s].v = state.objs[s].u;
            state.objs[s].u = v;
        }
        Action::DPush(s) => state.docs.push(s),
        Action::DWrite(i, f, v) => {
            let slot = state.docs[i];
            match f {
                F_A => state.objs[slot].a = v,
                F_B => state.objs[slot].b = v,
                // `sink` stays deliberately unobserved.
                _ => {}
            }
        }
        Action::DRead(i, f) => {
            let slot = state.docs[i];
            let x = if f == F_A {
                state.objs[slot].a
            } else {
                state.objs[slot].b
            };
            extra = weight.wrapping_mul(x);
        }
        Action::DAInsert(k, s) => {
            // Overwrite keeps the original insertion position.
            match state.adocs.iter_mut().find(|(ek, _)| *ek == k) {
                Some(e) => e.1 = s,
                None => state.adocs.push((k, s)),
            }
        }
        Action::DARead(k, f) => {
            let slot = state
                .adocs
                .iter()
                .find(|(ek, _)| *ek == k)
                .map(|(_, s)| *s)
                .expect("DARead is only resolved when the key is present");
            let x = if f == F_A {
                state.objs[slot].a
            } else {
                state.objs[slot].b
            };
            extra = weight.wrapping_mul(x);
        }
    }
    (act, extra)
}

fn seq_fold_oracle(seq: &[i64]) -> i64 {
    seq.iter()
        .fold(0i64, |x, &v| x.wrapping_mul(2).wrapping_add(v))
}

fn assoc_fold_oracle(assoc: &[(i64, i64)]) -> i64 {
    assoc.iter().enumerate().fold(0i64, |x, (j, &(k, v))| {
        let w = j as i64 + 1;
        x.wrapping_add(w.wrapping_mul(k.wrapping_add(v.wrapping_mul(2))))
    })
}

fn obj_fold_oracle(objs: &[ObjState]) -> i64 {
    objs.iter().enumerate().fold(0i64, |x, (s, o)| {
        let w = s as i64 + 1;
        let t = seq_fold_oracle(&o.tags);
        let inner = o.u.wrapping_mul(3).wrapping_add(o.v.wrapping_mul(5));
        x.wrapping_add(
            w.wrapping_mul(
                o.a.wrapping_add(o.b.wrapping_mul(2))
                    .wrapping_add(t)
                    .wrapping_add(inner),
            ),
        )
    })
}

/// `Seq<&Pt>` fold: `acc = Σ (2*acc + (a + 2*b))` over the pointees, so
/// writes through either alias (pool slot or doc element) are observed.
fn docs_fold_oracle(state: &OracleState) -> i64 {
    state.docs.iter().fold(0i64, |x, &slot| {
        let o = &state.objs[slot];
        x.wrapping_mul(2)
            .wrapping_add(o.a.wrapping_add(o.b.wrapping_mul(2)))
    })
}

/// `Assoc<i64, &Pt>` fold over the insertion-ordered key sequence:
/// `Σ_j (j+1) * (key_j + 2*a + 3*u)` — the `u` read chains a collection
/// read into two field reads (pointee, then its linked inner).
fn adocs_fold_oracle(state: &OracleState) -> i64 {
    state
        .adocs
        .iter()
        .enumerate()
        .fold(0i64, |x, (j, &(k, slot))| {
            let o = &state.objs[slot];
            let w = j as i64 + 1;
            let term = k
                .wrapping_add(o.a.wrapping_mul(2))
                .wrapping_add(o.u.wrapping_mul(3));
            x.wrapping_add(w.wrapping_mul(term))
        })
}

// ---------------------------------------------------------------------
// IR emission.

/// Per-function emission context: handles of the live collections and the
/// running probe accumulator.
struct EmitCtx {
    s: memoir_ir::ValueId,
    a: memoir_ir::ValueId,
    objs: Option<ObjCtx>,
    extra: memoir_ir::ValueId,
}

struct ObjCtx {
    pt: ObjTypeId,
    inner: ObjTypeId,
    slots: Vec<memoir_ir::ValueId>,
    /// `Seq<&Pt>` of pool aliases.
    docs: memoir_ir::ValueId,
    /// `Assoc<i64, &Pt>` of pool aliases.
    adocs: memoir_ir::ValueId,
}

/// The generated object types: the pool struct `Pt` and the one-level
/// nested `Inner` linked from `Pt.link`.
#[derive(Clone, Copy)]
struct GenObjTypes {
    pt: ObjTypeId,
    inner: ObjTypeId,
}

/// Emits the straight-line op prefix, threading the oracle state; returns
/// the oracle's probe-accumulator total.
fn emit_ops(
    b: &mut FunctionBuilder<'_>,
    ops: &[Op],
    ctx: &mut EmitCtx,
    state: &mut OracleState,
) -> i64 {
    let allow_obj = ctx.objs.is_some();
    let mut extra_oracle = 0i64;
    let zero64 = b.i64(0);
    for (pos, &op) in ops.iter().enumerate() {
        let weight = pos as i64 + 1;
        let (act, delta) = step(state, weight, op, allow_obj);
        extra_oracle = extra_oracle.wrapping_add(delta);
        match act {
            Action::Skip => {}
            Action::Push(v) => {
                let sz = b.size(ctx.s);
                let vv = b.i64(v);
                b.mut_insert(ctx.s, sz, Some(vv));
            }
            Action::Write(i, v) => {
                let iv = b.index(i as u64);
                let vv = b.i64(v);
                b.mut_write(ctx.s, iv, vv);
            }
            Action::Insert(i, v) => {
                let iv = b.index(i as u64);
                let vv = b.i64(v);
                b.mut_insert(ctx.s, iv, Some(vv));
            }
            Action::Remove(i) => {
                let iv = b.index(i as u64);
                b.mut_remove(ctx.s, iv);
            }
            Action::Swap(x, c) => {
                let xv = b.index(x as u64);
                let x1 = b.index(x as u64 + 1);
                let cv = b.index(c as u64);
                b.mut_swap(ctx.s, xv, x1, cv);
            }
            Action::RemoveRange(lo, hi) => {
                let lov = b.index(lo as u64);
                let hiv = b.index(hi as u64);
                b.mut_remove_range(ctx.s, lov, hiv);
            }
            Action::AInsert(k, v) => {
                let kv = b.i64(k);
                let vv = b.i64(v);
                b.mut_insert(ctx.a, kv, Some(vv));
            }
            Action::ARemove(k) => {
                let kv = b.i64(k);
                b.mut_remove(ctx.a, kv);
            }
            Action::AHas(k) => {
                let kv = b.i64(k);
                let h = b.has(ctx.a, kv);
                let w = b.i64(weight);
                let hit = b.select(h, w, zero64);
                ctx.extra = b.add(ctx.extra, hit);
            }
            Action::AKeys => {
                let ks = b.keys(ctx.a);
                let n = b.size(ks);
                let ni = b.cast(Type::I64, n);
                let w = b.i64(weight);
                let term = b.mul(ni, w);
                ctx.extra = b.add(ctx.extra, term);
            }
            Action::OWrite(s, f, v) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let vv = b.i64(v);
                let (pt, slot) = (oc.pt, oc.slots[s]);
                b.field_write(slot, pt, f, vv);
            }
            Action::ORead(s, f) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (pt, slot) = (oc.pt, oc.slots[s]);
                let v = b.field_read(slot, pt, f);
                let w = b.i64(weight);
                let term = b.mul(v, w);
                ctx.extra = b.add(ctx.extra, term);
            }
            Action::OTagPush(s, v) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (pt, slot) = (oc.pt, oc.slots[s]);
                let tags = b.field_read(slot, pt, F_TAGS);
                let sz = b.size(tags);
                let vv = b.i64(v);
                b.mut_insert(tags, sz, Some(vv));
            }
            Action::LWrite(s, f, v) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (pt, inner, slot) = (oc.pt, oc.inner, oc.slots[s]);
                let l = b.field_read(slot, pt, F_LINK);
                let vv = b.i64(v);
                b.field_write(l, inner, f, vv);
            }
            Action::LRead(s, f) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (pt, inner, slot) = (oc.pt, oc.inner, oc.slots[s]);
                let l = b.field_read(slot, pt, F_LINK);
                let v = b.field_read(l, inner, f);
                let w = b.i64(weight);
                let term = b.mul(v, w);
                ctx.extra = b.add(ctx.extra, term);
            }
            Action::LNew(s, v) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (pt, inner, slot) = (oc.pt, oc.inner, oc.slots[s]);
                let old = b.field_read(slot, pt, F_LINK);
                let old_u = b.field_read(old, inner, I_U);
                let l = b.new_obj(inner);
                let vv = b.i64(v);
                b.field_write(l, inner, I_U, vv);
                b.field_write(l, inner, I_V, old_u);
                b.field_write(slot, pt, F_LINK, l);
            }
            Action::DPush(s) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (docs, slot) = (oc.docs, oc.slots[s]);
                let sz = b.size(docs);
                b.mut_insert(docs, sz, Some(slot));
            }
            Action::DWrite(i, f, v) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (pt, docs) = (oc.pt, oc.docs);
                let iv = b.index(i as u64);
                let d = b.read(docs, iv);
                let vv = b.i64(v);
                b.field_write(d, pt, f, vv);
            }
            Action::DRead(i, f) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (pt, docs) = (oc.pt, oc.docs);
                let iv = b.index(i as u64);
                let d = b.read(docs, iv);
                let v = b.field_read(d, pt, f);
                let w = b.i64(weight);
                let term = b.mul(v, w);
                ctx.extra = b.add(ctx.extra, term);
            }
            Action::DAInsert(k, s) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (adocs, slot) = (oc.adocs, oc.slots[s]);
                let kv = b.i64(k);
                b.mut_insert(adocs, kv, Some(slot));
            }
            Action::DARead(k, f) => {
                let oc = ctx.objs.as_ref().expect("object pool");
                let (pt, adocs) = (oc.pt, oc.adocs);
                let kv = b.i64(k);
                let d = b.read(adocs, kv);
                let v = b.field_read(d, pt, f);
                let w = b.i64(weight);
                let term = b.mul(v, w);
                ctx.extra = b.add(ctx.extra, term);
            }
        }
    }
    extra_oracle
}

/// Emits the sequence fold loop `acc = Σ (2*acc + elem)` over `s`.
fn emit_seq_fold(b: &mut FunctionBuilder<'_>, s: memoir_ir::ValueId) -> memoir_ir::ValueId {
    let i64t = b.ty(Type::I64);
    let idxt = b.ty(Type::Index);
    let zero = b.index(0);
    let zero64 = b.i64(0);
    let header = b.block("header");
    let body = b.block("body");
    let exit = b.block("exit");
    let pre = b.current_block();
    b.jump(header);
    b.switch_to(header);
    let i = b.phi_placeholder(idxt);
    let acc = b.phi_placeholder(i64t);
    b.add_phi_incoming(i, pre, zero);
    b.add_phi_incoming(acc, pre, zero64);
    let sz = b.size(s);
    let done = b.cmp(CmpOp::Ge, i, sz);
    b.branch(done, exit, body);
    b.switch_to(body);
    let v = b.read(s, i);
    let two = b.i64(2);
    let acc2x = b.mul(acc, two);
    let acc2 = b.add(acc2x, v);
    let one = b.index(1);
    let next = b.add(i, one);
    let bb = b.current_block();
    b.add_phi_incoming(i, bb, next);
    b.add_phi_incoming(acc, bb, acc2);
    b.jump(header);
    b.switch_to(exit);
    acc
}

/// Emits the assoc fold loop over the insertion-ordered key sequence,
/// weighting by position so key-order bugs are observable:
/// `kacc = Σ_j (j+1) * (key_j + 2*value_j)`.
fn emit_assoc_fold(b: &mut FunctionBuilder<'_>, a: memoir_ir::ValueId) -> memoir_ir::ValueId {
    let i64t = b.ty(Type::I64);
    let idxt = b.ty(Type::Index);
    let zero = b.index(0);
    let zero64 = b.i64(0);
    let ks = b.keys(a);
    let ksz = b.size(ks);
    let header = b.block("kheader");
    let body = b.block("kbody");
    let exit = b.block("kexit");
    let pre = b.current_block();
    b.jump(header);
    b.switch_to(header);
    let j = b.phi_placeholder(idxt);
    let kacc = b.phi_placeholder(i64t);
    b.add_phi_incoming(j, pre, zero);
    b.add_phi_incoming(kacc, pre, zero64);
    let done = b.cmp(CmpOp::Ge, j, ksz);
    b.branch(done, exit, body);
    b.switch_to(body);
    let key = b.read(ks, j);
    let val = b.read(a, key);
    let jv = b.cast(Type::I64, j);
    let one64 = b.i64(1);
    let w = b.add(jv, one64);
    let two = b.i64(2);
    let val2 = b.mul(val, two);
    let kv2 = b.add(key, val2);
    let term = b.mul(w, kv2);
    let kacc2 = b.add(kacc, term);
    let one = b.index(1);
    let next = b.add(j, one);
    let bb = b.current_block();
    b.add_phi_incoming(j, bb, next);
    b.add_phi_incoming(kacc, bb, kacc2);
    b.jump(header);
    b.switch_to(exit);
    kacc
}

/// Emits the object-pool fold: per slot, `(slot+1) * (a + 2*b +
/// fold(tags) + 3*link.u + 5*link.v)` — `sink` is never read.
fn emit_obj_fold(b: &mut FunctionBuilder<'_>, oc: &ObjCtx) -> memoir_ir::ValueId {
    let mut acc = b.i64(0);
    let two = b.i64(2);
    let three = b.i64(3);
    let five = b.i64(5);
    for (s, &slot) in oc.slots.iter().enumerate() {
        let av = b.field_read(slot, oc.pt, F_A);
        let bv = b.field_read(slot, oc.pt, F_B);
        let tags = b.field_read(slot, oc.pt, F_TAGS);
        let tv = emit_seq_fold(b, tags);
        let l = b.field_read(slot, oc.pt, F_LINK);
        let uv = b.field_read(l, oc.inner, I_U);
        let vv = b.field_read(l, oc.inner, I_V);
        let b2 = b.mul(bv, two);
        let u3 = b.mul(uv, three);
        let v5 = b.mul(vv, five);
        let s1 = b.add(av, b2);
        let s2 = b.add(s1, tv);
        let s3 = b.add(s2, u3);
        let s4 = b.add(s3, v5);
        let w = b.i64(s as i64 + 1);
        let term = b.mul(w, s4);
        acc = b.add(acc, term);
    }
    acc
}

/// Emits the `Seq<&Pt>` doc fold: `acc = Σ (2*acc + (a + 2*b))` over the
/// pointees — a loop whose body chains a collection read into two field
/// reads through the alias.
fn emit_docs_fold(b: &mut FunctionBuilder<'_>, oc: &ObjCtx) -> memoir_ir::ValueId {
    let i64t = b.ty(Type::I64);
    let idxt = b.ty(Type::Index);
    let zero = b.index(0);
    let zero64 = b.i64(0);
    let header = b.block("dheader");
    let body = b.block("dbody");
    let exit = b.block("dexit");
    let pre = b.current_block();
    b.jump(header);
    b.switch_to(header);
    let i = b.phi_placeholder(idxt);
    let acc = b.phi_placeholder(i64t);
    b.add_phi_incoming(i, pre, zero);
    b.add_phi_incoming(acc, pre, zero64);
    let sz = b.size(oc.docs);
    let done = b.cmp(CmpOp::Ge, i, sz);
    b.branch(done, exit, body);
    b.switch_to(body);
    let d = b.read(oc.docs, i);
    let av = b.field_read(d, oc.pt, F_A);
    let bv = b.field_read(d, oc.pt, F_B);
    let two = b.i64(2);
    let b2 = b.mul(bv, two);
    let term = b.add(av, b2);
    let acc2x = b.mul(acc, two);
    let acc2 = b.add(acc2x, term);
    let one = b.index(1);
    let next = b.add(i, one);
    let bb = b.current_block();
    b.add_phi_incoming(i, bb, next);
    b.add_phi_incoming(acc, bb, acc2);
    b.jump(header);
    b.switch_to(exit);
    acc
}

/// Emits the `Assoc<i64, &Pt>` doc fold over the insertion-ordered key
/// sequence: `Σ_j (j+1) * (key_j + 2*a + 3*link.u)` — the `u` read
/// chains a collection read into two field reads (pointee, then its
/// linked inner).
fn emit_adocs_fold(b: &mut FunctionBuilder<'_>, oc: &ObjCtx) -> memoir_ir::ValueId {
    let i64t = b.ty(Type::I64);
    let idxt = b.ty(Type::Index);
    let zero = b.index(0);
    let zero64 = b.i64(0);
    let ks = b.keys(oc.adocs);
    let ksz = b.size(ks);
    let header = b.block("adheader");
    let body = b.block("adbody");
    let exit = b.block("adexit");
    let pre = b.current_block();
    b.jump(header);
    b.switch_to(header);
    let j = b.phi_placeholder(idxt);
    let kacc = b.phi_placeholder(i64t);
    b.add_phi_incoming(j, pre, zero);
    b.add_phi_incoming(kacc, pre, zero64);
    let done = b.cmp(CmpOp::Ge, j, ksz);
    b.branch(done, exit, body);
    b.switch_to(body);
    let key = b.read(ks, j);
    let d = b.read(oc.adocs, key);
    let av = b.field_read(d, oc.pt, F_A);
    let l = b.field_read(d, oc.pt, F_LINK);
    let uv = b.field_read(l, oc.inner, I_U);
    let jv = b.cast(Type::I64, j);
    let one64 = b.i64(1);
    let w = b.add(jv, one64);
    let two = b.i64(2);
    let three = b.i64(3);
    let a2 = b.mul(av, two);
    let u3 = b.mul(uv, three);
    let t1 = b.add(key, a2);
    let t2 = b.add(t1, u3);
    let term = b.mul(w, t2);
    let kacc2 = b.add(kacc, term);
    let one = b.index(1);
    let next = b.add(j, one);
    let bb = b.current_block();
    b.add_phi_incoming(j, bb, next);
    b.add_phi_incoming(kacc, bb, kacc2);
    b.jump(header);
    b.switch_to(exit);
    kacc
}

/// Emits `main`'s preamble: the shared sequence and assoc, plus the
/// object pool when `types` is set (objects initialized field-by-field,
/// with a fresh nested `tags` sequence and a fresh zeroed `Inner` linked
/// per slot, and the two empty doc collections of `&Pt`).
fn emit_preamble(b: &mut FunctionBuilder<'_>, types: Option<GenObjTypes>) -> EmitCtx {
    let i64t = b.ty(Type::I64);
    let zero = b.index(0);
    let zero64 = b.i64(0);
    let s = b.new_seq(i64t, zero);
    let a = b.new_assoc(i64t, i64t);
    let objs = types.map(|GenObjTypes { pt, inner }| {
        let slots = (0..OBJ_SLOTS)
            .map(|_| {
                let o = b.new_obj(pt);
                b.field_write(o, pt, F_A, zero64);
                b.field_write(o, pt, F_B, zero64);
                b.field_write(o, pt, F_SINK, zero64);
                let tags = b.new_seq(i64t, zero);
                b.field_write(o, pt, F_TAGS, tags);
                let l = b.new_obj(inner);
                b.field_write(l, inner, I_U, zero64);
                b.field_write(l, inner, I_V, zero64);
                b.field_write(o, pt, F_LINK, l);
                o
            })
            .collect();
        let pt_ref = b.types.ref_of(pt);
        let docs = b.new_seq(pt_ref, zero);
        let adocs = b.new_assoc(i64t, pt_ref);
        ObjCtx {
            pt,
            inner,
            slots,
            docs,
            adocs,
        }
    });
    EmitCtx {
        s,
        a,
        objs,
        extra: zero64,
    }
}

/// Emits the epilogue of `main` (and of each [`build_multi`] function):
/// fold loops over the shared sequence and assoc and, with an object
/// pool, over the pool and both doc collections. Returns their sum plus
/// the probe accumulator; [`epilogue_oracle`] is its oracle side.
fn emit_epilogue(b: &mut FunctionBuilder<'_>, ctx: &EmitCtx) -> memoir_ir::ValueId {
    let acc = emit_seq_fold(b, ctx.s);
    let kacc = emit_assoc_fold(b, ctx.a);
    let t1 = b.add(acc, ctx.extra);
    let mut total = b.add(t1, kacc);
    if let Some(oc) = &ctx.objs {
        let ofold = emit_obj_fold(b, oc);
        let dfold = emit_docs_fold(b, oc);
        let adfold = emit_adocs_fold(b, oc);
        let t2 = b.add(ofold, dfold);
        let t3 = b.add(t2, adfold);
        total = b.add(total, t3);
    }
    total
}

/// The oracle value of [`emit_epilogue`] over the heap `state` with probe
/// accumulator `extra` (wrapping).
fn epilogue_oracle(state: &OracleState, extra: i64) -> i64 {
    seq_fold_oracle(&state.seq)
        .wrapping_add(extra)
        .wrapping_add(assoc_fold_oracle(&state.assoc))
        .wrapping_add(obj_fold_oracle(&state.objs))
        .wrapping_add(docs_fold_oracle(state))
        .wrapping_add(adocs_fold_oracle(state))
}

/// Emits the body of an ops helper (shared collections by reference, the
/// accumulator by value); advances `state` past its ops and returns the
/// oracle's delta to the accumulator.
fn emit_ops_helper_body(b: &mut FunctionBuilder<'_>, ops: &[Op], state: &mut OracleState) -> i64 {
    let i64t = b.ty(Type::I64);
    let seqt = b.types.seq_of(i64t);
    let assoct = b.types.assoc_of(i64t, i64t);
    let s = b.param_ref("s", seqt);
    let a = b.param_ref("a", assoct);
    let x = b.param("x", i64t);
    let zero64 = b.i64(0);
    let mut ctx = EmitCtx {
        s,
        a,
        objs: None,
        extra: zero64,
    };
    let extra_oracle = emit_ops(b, ops, &mut ctx, state);
    let acc = emit_seq_fold(b, s);
    let kacc = emit_assoc_fold(b, a);
    let t1 = b.add(x, ctx.extra);
    let t2 = b.add(t1, acc);
    let total = b.add(t2, kacc);
    b.returns(&[i64t]);
    b.ret(vec![total]);
    extra_oracle
        .wrapping_add(seq_fold_oracle(&state.seq))
        .wrapping_add(assoc_fold_oracle(&state.assoc))
}

/// Emits the branchy scalar helper `if x < y { x*c1 + y } else
/// { y*c2 - x }` (see [`scalar_helper_eval`]).
fn emit_scalar_helper_body(b: &mut FunctionBuilder<'_>, c1: i8, c2: i8) {
    let i64t = b.ty(Type::I64);
    let x = b.param("x", i64t);
    let y = b.param("y", i64t);
    let then_b = b.block("then");
    let else_b = b.block("else");
    let merge = b.block("merge");
    let c = b.cmp(CmpOp::Lt, x, y);
    b.branch(c, then_b, else_b);
    b.switch_to(then_b);
    let c1v = b.i64(c1 as i64);
    let t1 = b.mul(x, c1v);
    let t2 = b.add(t1, y);
    let tb = b.current_block();
    b.jump(merge);
    b.switch_to(else_b);
    let c2v = b.i64(c2 as i64);
    let e1 = b.mul(y, c2v);
    let e2 = b.sub(e1, x);
    let eb = b.current_block();
    b.jump(merge);
    b.switch_to(merge);
    let r = b.phi_placeholder(i64t);
    b.add_phi_incoming(r, tb, t2);
    b.add_phi_incoming(r, eb, e2);
    b.returns(&[i64t]);
    b.ret(vec![r]);
}

/// Emits the branchy object-probe helper `if p.u < x { p.u*c1 + p.v }
/// else { p.v*c2 - x }` over a `&Inner` argument (see
/// [`obj_probe_eval`]).
fn emit_obj_probe_body(b: &mut FunctionBuilder<'_>, inner: ObjTypeId, c1: i8, c2: i8) {
    let i64t = b.ty(Type::I64);
    let innert = b.types.ref_of(inner);
    let p = b.param("p", innert);
    let x = b.param("x", i64t);
    let u = b.field_read(p, inner, I_U);
    let v = b.field_read(p, inner, I_V);
    let then_b = b.block("then");
    let else_b = b.block("else");
    let merge = b.block("merge");
    let c = b.cmp(CmpOp::Lt, u, x);
    b.branch(c, then_b, else_b);
    b.switch_to(then_b);
    let c1v = b.i64(c1 as i64);
    let t1 = b.mul(u, c1v);
    let t2 = b.add(t1, v);
    let tb = b.current_block();
    b.jump(merge);
    b.switch_to(else_b);
    let c2v = b.i64(c2 as i64);
    let e1 = b.mul(v, c2v);
    let e2 = b.sub(e1, x);
    let eb = b.current_block();
    b.jump(merge);
    b.switch_to(merge);
    let r = b.phi_placeholder(i64t);
    b.add_phi_incoming(r, tb, t2);
    b.add_phi_incoming(r, eb, e2);
    b.returns(&[i64t]);
    b.ret(vec![r]);
}

/// Defines the generated object types in a module's type table: the
/// nested `Inner { u, v }` first, then `Pt { a, b, sink, tags, link }`
/// whose `link` field holds a `&Inner` (one level of object nesting).
fn define_obj_types(mb: &mut ModuleBuilder) -> GenObjTypes {
    let i64t = mb.module.types.intern(Type::I64);
    let tags_t = mb.module.types.seq_of(i64t);
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
        .expect("Inner is not recursive");
    let inner_ref = mb.module.types.ref_of(inner);
    let pt = mb
        .module
        .types
        .define_object(
            "Pt",
            vec![
                Field {
                    name: "a".into(),
                    ty: i64t,
                },
                Field {
                    name: "b".into(),
                    ty: i64t,
                },
                Field {
                    name: "sink".into(),
                    ty: i64t,
                },
                Field {
                    name: "tags".into(),
                    ty: tags_t,
                },
                Field {
                    name: "link".into(),
                    ty: inner_ref,
                },
            ],
        )
        .expect("Pt is not recursive");
    GenObjTypes { pt, inner }
}

/// Builds the module and the oracle result for a whole case. Helpers are
/// emitted first (so `main` can call them); index clamping in every
/// function is derived from one oracle state threaded in call order, so
/// any op lists form a valid program.
pub fn build_case(prog: &CaseProgram) -> (Module, i64) {
    let mut mb = ModuleBuilder::new("fuzz");
    let has_obj = prog.main.iter().any(Op::is_obj);
    let has_probe = prog
        .helpers
        .iter()
        .any(|h| matches!(h, Helper::ObjProbe(..)));
    // Object-probe helpers need the types even when `main` has no pool.
    let types = (has_obj || has_probe).then(|| define_obj_types(&mut mb));

    // Pure simulation of main's ops: helpers run against the state they
    // leave behind.
    let mut state = OracleState::with_objs(has_obj);
    for (pos, &op) in prog.main.iter().enumerate() {
        step(&mut state, pos as i64 + 1, op, has_obj);
    }

    // Helpers, in call order, threading the oracle accumulator `r`.
    let mut r = 0i64;
    let mut fids: Vec<FuncId> = Vec::new();
    for (k, h) in prog.helpers.iter().enumerate() {
        let name = format!("helper{k}");
        match h {
            Helper::Ops(ops) => {
                let mut delta = 0i64;
                let fid = mb.func(&name, Form::Mut, |b| {
                    delta = emit_ops_helper_body(b, ops, &mut state);
                });
                r = r.wrapping_add(delta);
                fids.push(fid);
            }
            Helper::Scalar(c1, c2) => {
                let fid = mb.func(&name, Form::Mut, |b| emit_scalar_helper_body(b, *c1, *c2));
                r = scalar_helper_eval(*c1, *c2, r, (k as i64 + 1) * 13);
                fids.push(fid);
            }
            Helper::ObjProbe(c1, c2) => {
                let inner = types.expect("obj types exist for probes").inner;
                let fid = mb.func(&name, Form::Mut, |b| {
                    emit_obj_probe_body(b, inner, *c1, *c2)
                });
                // The call site allocates `Inner { u: (k+1)*3, v: (k+1)*5 }`.
                let (u0, v0) = ((k as i64 + 1) * 3, (k as i64 + 1) * 5);
                r = obj_probe_eval(*c1, *c2, u0, v0, r);
                fids.push(fid);
            }
        }
    }

    // `state` now holds the post-helpers heap: the epilogue folds run
    // over it at runtime, so the oracle folds over it here.
    let mut expect = 0i64;
    mb.func("main", Form::Mut, |b| {
        let i64t = b.ty(Type::I64);
        let mut ctx = emit_preamble(b, types.filter(|_| has_obj));
        let mut st = OracleState::with_objs(has_obj);
        let main_extra = emit_ops(b, &prog.main, &mut ctx, &mut st);
        let mut rv = b.i64(0);
        for (k, h) in prog.helpers.iter().enumerate() {
            let rets = match h {
                Helper::Ops(_) => b.call(
                    memoir_ir::Callee::Func(fids[k]),
                    vec![ctx.s, ctx.a, rv],
                    &[i64t],
                ),
                Helper::Scalar(..) => {
                    let w = b.i64((k as i64 + 1) * 13);
                    b.call(memoir_ir::Callee::Func(fids[k]), vec![rv, w], &[i64t])
                }
                Helper::ObjProbe(..) => {
                    let inner = types.expect("obj types exist for probes").inner;
                    let l = b.new_obj(inner);
                    let u0 = b.i64((k as i64 + 1) * 3);
                    let v0 = b.i64((k as i64 + 1) * 5);
                    b.field_write(l, inner, I_U, u0);
                    b.field_write(l, inner, I_V, v0);
                    b.call(memoir_ir::Callee::Func(fids[k]), vec![l, rv], &[i64t])
                }
            };
            rv = rets[0];
        }
        let folds = emit_epilogue(b, &ctx);
        let total = b.add(folds, rv);
        b.returns(&[i64t]);
        b.ret(vec![total]);
        expect = epilogue_oracle(&state, main_extra).wrapping_add(r);
    });
    let mut m = mb.finish();
    m.entry = m.func_by_name("main");
    (m, expect)
}

/// Samples a per-case harness configuration, so a campaign varies the
/// fault policy and budgets *per case* instead of fixing them for the
/// whole run (an explicit `--on-fault` flag pins the policy again).
///
/// Policy is Abort half the time (every fault is a crash) and a
/// recovering policy otherwise (rollback soundness is the fuzzed
/// property). Budgets are sampled only alongside recovering policies and
/// only on the deterministic axes — a fixpoint iteration cap (never a
/// fault, just an earlier stop) and a growth factor generous enough
/// (8–16×) that legitimate passes stay far inside it; wall-clock budgets
/// would make campaigns flaky. `lower` makes it a through-lowering case
/// with a random [`random_lir_spec`](crate::genspec::random_lir_spec)
/// phase; half of those also lower through the adaptive representation
/// selector (dense / inline layouts for provably bounded collections).
/// Injection plans are never sampled: they come only from the
/// `--inject` flag. The per-function probe seed is left unset here; the
/// campaign driver samples it for multi-function cases (see
/// [`CaseConfig::probe_seed`](crate::harness::CaseConfig)).
pub fn random_case_config(rng: &mut SplitMix64, lower: bool) -> CaseConfig {
    let policy = match rng.below(4) {
        0 | 1 => FaultPolicy::Abort,
        2 => FaultPolicy::SkipPass,
        _ => FaultPolicy::StopPipeline,
    };
    let mut budgets = Budgets::none();
    if policy != FaultPolicy::Abort {
        if rng.chance(1, 3) {
            budgets.max_fixpoint_iters = Some([1, 2, 4][rng.index(3)]);
        }
        if rng.chance(1, 4) {
            budgets.max_growth = Some([8.0, 16.0][rng.index(2)]);
        }
    }
    CaseConfig {
        policy,
        inject: None,
        budgets,
        lir_spec: if lower {
            Some(crate::genspec::random_lir_spec(rng))
        } else {
            None
        },
        // Half of all through-lowering cases lower through the adaptive
        // representation selector, so the differential oracles cover
        // dense / inline layouts as heavily as the default hashed one.
        adaptive: lower && rng.chance(1, 2),
        probe_seed: None,
        // One case in eight also runs the cached-vs-cold differential
        // oracle (two extra compiles through a shared compile cache).
        cache_check: rng.chance(1, 8),
        // The symbolic oracle is opt-in (`--sym`): path enumeration on
        // every case would dominate campaign throughput.
        sym: false,
    }
}

/// Builds the module and the oracle result together for a single-function
/// case (indices are clamped identically in both, so every op list is a
/// valid program).
pub fn build(ops: &[Op]) -> (Module, i64) {
    build_case(&CaseProgram::single(ops.to_vec()))
}

/// Builds one module containing one generated function per op list
/// (`main0`, `main1`, …), with the oracle result for each — multi-function
/// subjects for the sharded pass executor. The entry is `main0`.
pub fn build_multi(progs: &[Vec<Op>]) -> (Module, Vec<i64>) {
    let mut expects = Vec::with_capacity(progs.len());
    let mut mb = ModuleBuilder::new("fuzz-multi");
    let has_obj = progs.iter().flatten().any(Op::is_obj);
    let types = has_obj.then(|| define_obj_types(&mut mb));
    for (i, ops) in progs.iter().enumerate() {
        let name = format!("main{i}");
        let func_obj = ops.iter().any(Op::is_obj);
        mb.func(&name, Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let mut ctx = emit_preamble(b, types.filter(|_| func_obj));
            let mut st = OracleState::with_objs(func_obj);
            let extra_oracle = emit_ops(b, ops, &mut ctx, &mut st);
            let total = emit_epilogue(b, &ctx);
            b.returns(&[i64t]);
            b.ret(vec![total]);
            expects.push(epilogue_oracle(&st, extra_oracle));
        });
    }
    let mut m = mb.finish();
    m.entry = m.func_by_name("main0");
    (m, expects)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_round_trip_as_text() {
        let ops = vec![
            Op::Push(-3),
            Op::Write(4, 7),
            Op::InsertAt(2, -1),
            Op::Remove(0),
            Op::SwapElems(1, 2),
            Op::RemoveRange(1, 3),
            Op::AssocInsert(5, -9),
            Op::AssocRemove(5),
            Op::AssocHas(21),
            Op::AssocKeys,
            Op::ObjWrite(1, 2, -5),
            Op::ObjRead(0, 1),
            Op::ObjTagPush(3, 7),
            Op::LinkWrite(1, 0, -8),
            Op::LinkRead(0, 1),
            Op::LinkNew(1, 6),
            Op::DocPush(1),
            Op::DocWrite(2, 1, -4),
            Op::DocRead(3, 0),
            Op::DocAssocInsert(9, 1),
            Op::DocAssocRead(9, 1),
        ];
        for op in &ops {
            let text = op.to_string();
            assert_eq!(text.parse::<Op>().unwrap(), *op, "{text}");
        }
        assert!("push".parse::<Op>().is_err());
        assert!("nuke 1".parse::<Op>().is_err());
        assert!("push 1 2".parse::<Op>().is_err());
        assert!("assoc-insert 1".parse::<Op>().is_err());
        assert!("assoc-keys 1".parse::<Op>().is_err());
        assert!("obj-write 1 2".parse::<Op>().is_err());
        assert!("obj-read 1 2 3".parse::<Op>().is_err());
        assert!("obj-link-write 1 2".parse::<Op>().is_err());
        assert!("doc-push".parse::<Op>().is_err());
        assert!("doc-assoc-read 1 2 3".parse::<Op>().is_err());
    }

    #[test]
    fn build_matches_the_oracle() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..10 {
            let ops = random_ops(&mut rng, 30, false);
            let (m, expect) = build(&ops);
            memoir_ir::verifier::assert_valid(&m);
            let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
            let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
            assert_eq!(got, expect, "ops: {ops:?}");
        }
    }

    #[test]
    fn object_programs_match_the_oracle() {
        let mut rng = SplitMix64::new(2026);
        let dims = CaseDims {
            objects: true,
            multi: false,
        };
        let mut with_obj = 0;
        for _ in 0..20 {
            let prog = random_case(&mut rng, 30, dims);
            if prog.main.iter().any(Op::is_obj) {
                with_obj += 1;
            }
            let (m, expect) = build_case(&prog);
            memoir_ir::verifier::assert_valid(&m);
            let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
            let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
            assert_eq!(got, expect, "prog: {prog:?}");
        }
        assert!(with_obj > 5, "object ops under-sampled: {with_obj}");
    }

    #[test]
    fn object_ops_are_observable() {
        // slot 0: a=5, b=-2, tags=[3]; slot 1: untouched (all zero).
        let prog = CaseProgram::single(vec![
            Op::ObjWrite(0, 0, 5),
            Op::ObjWrite(0, 1, -2),
            Op::ObjWrite(0, 2, 99), // sink: must not affect the result
            Op::ObjTagPush(0, 3),
            Op::ObjRead(2, 0), // slot 2 % 2 = 0, field a: +weight(5) * 5
        ]);
        let (m, expect) = build_case(&prog);
        memoir_ir::verifier::assert_valid(&m);
        // extra = 5*5 = 25; obj fold = 1*(5 + 2*(-2) + 3) = 4.
        assert_eq!(expect, 25 + 4);
        let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
        let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn object_graph_ops_are_observable() {
        let prog = CaseProgram::single(vec![
            Op::LinkWrite(0, 0, 4),   // slot0.link.u = 4
            Op::LinkNew(0, 9),        // re-link slot0: Inner { u: 9, v: 4 }
            Op::LinkRead(0, 1),       // +weight(3) * v(4) = 12
            Op::DocPush(0),           // docs = [&slot0]
            Op::DocWrite(0, 0, 6),    // through the alias: slot0.a = 6
            Op::DocRead(0, 0),        // +weight(6) * a(6) = 36
            Op::DocAssocInsert(5, 1), // adocs = {5: &slot1}
            Op::DocAssocRead(5, 0),   // +weight(8) * slot1.a(0) = 0
        ]);
        let (m, expect) = build_case(&prog);
        memoir_ir::verifier::assert_valid(&m);
        // extra = 12 + 36 = 48;
        // obj fold = 1*(6 + 3*9 + 5*4) + 2*0 = 53;
        // docs fold = 2*0 + (6 + 2*0) = 6;
        // adocs fold = 1*(5 + 2*0 + 3*0) = 5.
        assert_eq!(expect, 48 + 53 + 6 + 5);
        let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
        let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn doc_ops_on_empty_collections_resolve_to_skip() {
        // No DocPush/DocAssocInsert precedes the reads/writes, so every
        // doc op must resolve to Skip instead of trapping.
        let prog = CaseProgram::single(vec![
            Op::DocWrite(0, 0, 6),
            Op::DocRead(1, 1),
            Op::DocAssocRead(3, 0),
        ]);
        let (m, expect) = build_case(&prog);
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(expect, 0);
        let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
        let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn obj_probe_helpers_match_their_eval() {
        // `main` has no object ops, so the probe helper alone forces the
        // object types plus the call-site `Inner` allocation.
        let prog = CaseProgram {
            main: vec![],
            helpers: vec![Helper::ObjProbe(3, -2), Helper::ObjProbe(-1, 5)],
        };
        let (m, expect) = build_case(&prog);
        memoir_ir::verifier::assert_valid(&m);
        let r1 = obj_probe_eval(3, -2, 3, 5, 0);
        let r2 = obj_probe_eval(-1, 5, 6, 10, r1);
        assert_eq!(expect, r2);
        let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
        let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn multi_function_cases_match_the_oracle() {
        let mut rng = SplitMix64::new(41);
        let dims = CaseDims {
            objects: true,
            multi: true,
        };
        for _ in 0..20 {
            let prog = random_case(&mut rng, 25, dims);
            let (m, expect) = build_case(&prog);
            memoir_ir::verifier::assert_valid(&m);
            let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
            let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
            assert_eq!(got, expect, "prog: {prog:?}");
        }
    }

    #[test]
    fn helpers_mutate_the_callers_collections_by_ref() {
        // Helper pushes 7 onto the shared (initially empty) sequence; the
        // fold in main must see it: seq fold = 7, helper returns
        // 0 + 0 + fold(=7) + 0, so total = 7 (fold) + 7 (r).
        let prog = CaseProgram {
            main: vec![],
            helpers: vec![Helper::Ops(vec![Op::Push(7)])],
        };
        let (m, expect) = build_case(&prog);
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(expect, 14);
        let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
        let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn scalar_helpers_match_their_eval() {
        let prog = CaseProgram {
            main: vec![Op::Push(1)],
            helpers: vec![Helper::Scalar(3, -2), Helper::Scalar(-1, 5)],
        };
        let (m, expect) = build_case(&prog);
        memoir_ir::verifier::assert_valid(&m);
        let r1 = scalar_helper_eval(3, -2, 0, 13);
        let r2 = scalar_helper_eval(-1, 5, r1, 26);
        // seq fold = 1.
        assert_eq!(expect, 1 + r2);
        let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
        let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn assoc_ops_hit_overwrite_and_probe_paths() {
        let ops = vec![
            Op::AssocHas(3),       // miss: weight 1 not added
            Op::AssocInsert(3, 5), // {3: 5}
            Op::AssocInsert(3, 7), // overwrite in place: {3: 7}
            Op::AssocInsert(4, 1), // {3: 7, 4: 1}
            Op::AssocHas(3),       // hit: +5
            Op::AssocKeys,         // +6 * 2 keys
            Op::AssocRemove(4),    // {3: 7}
            Op::AssocRemove(4),    // absent: not emitted
            Op::AssocKeys,         // +9 * 1 key
        ];
        let (m, expect) = build(&ops);
        memoir_ir::verifier::assert_valid(&m);
        // extra = 5 + 12 + 9 = 26; assoc fold = 1*(3 + 2*7) = 17.
        assert_eq!(expect, 26 + 17);
        let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
        let got = vm.run_by_name("main", vec![]).unwrap()[0].as_int().unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn random_case_configs_cover_the_policy_space() {
        let mut rng = SplitMix64::new(17);
        let (mut abort, mut skip, mut stop, mut budgeted, mut lowered) = (0, 0, 0, 0, 0);
        let (mut cached, mut adaptive) = (0, 0);
        for i in 0..200 {
            let cfg = random_case_config(&mut rng, i % 2 == 0);
            match cfg.policy {
                FaultPolicy::Abort => {
                    abort += 1;
                    // Budgets ride only with recovering policies.
                    assert!(cfg.budgets.is_unlimited(), "{:?}", cfg.budgets);
                }
                FaultPolicy::SkipPass => skip += 1,
                FaultPolicy::StopPipeline => stop += 1,
            }
            if !cfg.budgets.is_unlimited() {
                budgeted += 1;
                // Only the deterministic axes are sampled.
                assert!(cfg.budgets.max_pass_millis.is_none());
                assert!(cfg.budgets.max_pipeline_millis.is_none());
            }
            assert!(cfg.inject.is_none());
            assert!(cfg.probe_seed.is_none());
            assert_eq!(cfg.lir_spec.is_some(), i % 2 == 0);
            if cfg.lir_spec.is_some() {
                lowered += 1;
            }
            if cfg.cache_check {
                cached += 1;
            }
            if cfg.adaptive {
                // Adaptive layouts ride only with the lowering phase.
                assert!(cfg.lir_spec.is_some());
                adaptive += 1;
            }
        }
        assert!(
            abort > 60 && skip > 25 && stop > 25,
            "{abort}/{skip}/{stop}"
        );
        assert!(budgeted > 10, "budget axis never sampled");
        assert_eq!(lowered, 100);
        assert!(cached > 5, "cache-check axis never sampled");
        assert!(adaptive > 25, "adaptive axis never sampled: {adaptive}");
    }

    #[test]
    fn build_multi_matches_per_function_oracles() {
        let mut rng = SplitMix64::new(7);
        let progs: Vec<Vec<Op>> = (0..5).map(|_| random_ops(&mut rng, 25, false)).collect();
        let (m, expects) = build_multi(&progs);
        memoir_ir::verifier::assert_valid(&m);
        assert_eq!(m.funcs.ids().count(), 5);
        for (i, expect) in expects.iter().enumerate() {
            let mut vm = memoir_interp::Interp::new(&m).with_fuel(50_000_000);
            let got = vm.run_by_name(&format!("main{i}"), vec![]).unwrap()[0]
                .as_int()
                .unwrap();
            assert_eq!(got, *expect, "func {i}, ops: {:?}", progs[i]);
        }
    }
}
