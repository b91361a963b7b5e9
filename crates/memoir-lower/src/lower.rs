//! Collection lowering: MEMOIR mut form → low-level IR (paper §VI).
//!
//! Sequences lower to a `[data, len, cap]` header plus inlined
//! `load`/`store` element accesses (the `std::vector` shape); associative
//! arrays lower to **opaque runtime calls** (the `std::unordered_map`
//! shape — partially-inlined hash tables are opaque to analyses, which is
//! what Listing 1 and §VII-D measure); objects lower to word-per-field
//! records with `gep`+`load`/`store` accesses.
//!
//! The MUT value semantics are preserved: by-value collection arguments
//! are copied at the call site, by-reference arguments pass the handle.

use lir::{
    BinOp as LBin, Blk, CmpOp as LCmp, Fun, Function as LFunction, Module as LModule, Op, Val,
};
use memoir_analysis::Placement;
use memoir_ir::{
    BinOp, Callee, CmpOp, Constant, Form, FuncId, InstId, InstKind, Module, Repr, Type, ValueDef,
    ValueId,
};
use std::collections::HashMap;

/// Statistics from lowering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Sequences lowered to stack storage (`alloca`) — non-escaping with
    /// a constant length (§VI's heap/stack selection).
    pub stack_seqs: usize,
    /// Sequences lowered to heap storage (runtime allocation).
    pub heap_seqs: usize,
    /// Associative arrays lowered to the dense direct-indexed layout
    /// (`rt_dense_new`) by adaptive representation selection.
    pub dense_assocs: usize,
    /// Stack sequences whose placement was additionally proven by the
    /// repr analysis ([`Repr::Inline`]) — a subset of `stack_seqs`.
    pub inline_seqs: usize,
}

/// Errors from lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LowerError {
    /// A function was not in mut form.
    NotMutForm(String),
    /// Floating-point is not supported by the word-sized low-level IR.
    FloatUnsupported(String),
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::NotMutForm(n) => write!(f, "function `{n}` is not in mut form"),
            LowerError::FloatUnsupported(n) => {
                write!(
                    f,
                    "function `{n}` uses floats (unsupported in the word-sized LIR)"
                )
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers a whole mut-form module.
pub fn lower_module(m: &Module) -> Result<LModule, LowerError> {
    lower_module_with_stats(m).map(|(out, _)| out)
}

/// [`lower_module`], also reporting heap/stack placement statistics.
pub fn lower_module_with_stats(m: &Module) -> Result<(LModule, LowerStats), LowerError> {
    lower_module_opts(m, &LowerOptions::default()).map(|run| (run.module, run.stats))
}

/// Options for [`lower_module_opts`]: per-function sharding and an
/// optional cross-job cache of lowered outputs.
#[derive(Clone, Debug, Default)]
pub struct LowerOptions {
    /// Worker threads lowering functions in parallel (`0`/`1` = serial).
    /// The merged module is byte-identical for every thread count:
    /// functions are reassembled in id order and the error of the
    /// lowest-id failing function wins, exactly as in a serial walk.
    pub threads: usize,
    /// Cache of per-function lowered outputs, keyed by the function's
    /// structural fingerprint (`memoir_ir::fingerprint`). A fingerprint
    /// covers the whole type table, extern summaries, callee slot ids,
    /// and (transitively) callee bodies — everything `lower_function`
    /// and its escape analysis can observe — so a hit is sound to splice
    /// in without re-lowering.
    pub cache: Option<passman::CompileCache>,
    /// Adaptive representation selection (DESIGN §16): run
    /// [`memoir_analysis::choose_reprs`] and lower qualifying assocs to
    /// the dense direct-indexed layout (`rt_dense_new`). The analysis is
    /// per-function and deterministic, so cached entries stay sound —
    /// they are simply namespaced apart from default-layout entries.
    pub adaptive: bool,
}

/// The result of [`lower_module_opts`].
#[derive(Clone, Debug)]
pub struct LowerRun {
    /// The lowered module.
    pub module: LModule,
    /// Heap/stack placement statistics (cache hits contribute their
    /// recorded per-function stats, so totals match a cold run).
    pub stats: LowerStats,
    /// Cache traffic: one lookup per function when a cache is attached.
    pub cache: passman::CompileCacheStats,
}

/// A cached per-function lowering result.
#[derive(Clone)]
struct LoweredEntry {
    func: LFunction,
    stats: LowerStats,
}

/// [`lower_module_with_stats`] with explicit sharding/caching options.
pub fn lower_module_opts(m: &Module, opts: &LowerOptions) -> Result<LowerRun, LowerError> {
    let mut out = LModule::default();
    // Pre-create functions so calls can reference forward ids.
    let mut fun_ids: HashMap<FuncId, Fun> = HashMap::new();
    for (fid, f) in m.funcs.iter() {
        if f.form != Form::Mut {
            return Err(LowerError::NotMutForm(f.name.clone()));
        }
        let lf = LFunction::new(
            f.name.clone(),
            f.params.len() as u32,
            f.ret_tys.len() as u32,
        );
        fun_ids.insert(fid, out.add(lf));
    }

    let fids: Vec<FuncId> = m.funcs.ids().collect();
    type FuncResult = Option<Result<(LFunction, LowerStats), LowerError>>;
    let mut results: Vec<FuncResult> = (0..fids.len()).map(|_| None).collect();
    let mut cache_stats = passman::CompileCacheStats::default();

    // Adaptive representation selection, split per function. The empty
    // map is the conservative default for every function.
    let mut reprs: HashMap<FuncId, HashMap<InstId, Repr>> = HashMap::new();
    if opts.adaptive {
        for ((fid, iid), r) in memoir_analysis::choose_reprs(m) {
            reprs.entry(fid).or_default().insert(iid, r);
        }
    }
    let cache_ns = if opts.adaptive {
        "lower-adaptive"
    } else {
        "lower"
    };

    // Consult the cache serially (before any sharding) so hit/miss
    // accounting and the resulting work list are thread-count-invariant.
    let fps: Option<HashMap<FuncId, passman::Fingerprint>> = opts.cache.as_ref().map(|_| {
        memoir_ir::fingerprint::module_fingerprints(m)
            .into_iter()
            .collect()
    });
    if let (Some(cache), Some(fps)) = (&opts.cache, &fps) {
        for (i, fid) in fids.iter().enumerate() {
            match cache.lookup::<LoweredEntry>(cache_ns, fps[fid]) {
                Some(entry) => {
                    cache_stats.hits += 1;
                    results[i] = Some(Ok((entry.func, entry.stats)));
                }
                None => cache_stats.misses += 1,
            }
        }
    }

    // Lower the misses, sharded in contiguous chunks.
    let miss: Vec<usize> = (0..fids.len()).filter(|&i| results[i].is_none()).collect();
    let mut miss_results: Vec<FuncResult> = (0..miss.len()).map(|_| None).collect();
    let threads = opts.threads.clamp(1, miss.len().max(1));
    static NO_REPRS: std::sync::OnceLock<HashMap<InstId, Repr>> = std::sync::OnceLock::new();
    let no_reprs = NO_REPRS.get_or_init(HashMap::new);
    let run_one = |i: usize| {
        let mut stats = LowerStats::default();
        let frep = reprs.get(&fids[i]).unwrap_or(no_reprs);
        lower_function(m, fids[i], &fun_ids, frep, &mut stats).map(|lf| (lf, stats))
    };
    if threads <= 1 {
        for (&i, slot) in miss.iter().zip(miss_results.iter_mut()) {
            *slot = Some(run_one(i));
        }
    } else {
        let chunk = miss.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (ids, slots) in miss.chunks(chunk).zip(miss_results.chunks_mut(chunk)) {
                let run_one = &run_one;
                s.spawn(move || {
                    for (&i, slot) in ids.iter().zip(slots.iter_mut()) {
                        *slot = Some(run_one(i));
                    }
                });
            }
        });
    }
    for (k, &i) in miss.iter().enumerate() {
        results[i] = miss_results[k].take();
    }

    // Publish fresh results, then assemble in id order; the first error
    // by function id wins, matching the serial walk.
    if let (Some(cache), Some(fps)) = (&opts.cache, &fps) {
        for &i in &miss {
            if let Some(Ok((lf, stats))) = &results[i] {
                cache.store(
                    cache_ns,
                    fps[&fids[i]],
                    LoweredEntry {
                        func: lf.clone(),
                        stats: *stats,
                    },
                );
            }
        }
    }
    let mut stats = LowerStats::default();
    for (i, fid) in fids.iter().enumerate() {
        let (lf, fstats) = results[i].take().expect("every function lowered")?;
        stats.stack_seqs += fstats.stack_seqs;
        stats.heap_seqs += fstats.heap_seqs;
        stats.dense_assocs += fstats.dense_assocs;
        stats.inline_seqs += fstats.inline_seqs;
        out.funcs[fun_ids[fid].0 as usize] = lf;
    }
    Ok(LowerRun {
        module: out,
        stats,
        cache: cache_stats,
    })
}

struct Ctx<'m> {
    m: &'m Module,
    f: &'m memoir_ir::Function,
    lf: LFunction,
    map: HashMap<ValueId, Val>,
    blocks: HashMap<memoir_ir::BlockId, Blk>,
    phi_patches: Vec<(
        usize, /* lir inst index */
        Vec<(memoir_ir::BlockId, ValueId)>,
    )>,
    /// Per-allocation-site heap/stack verdicts (§VI).
    placements: HashMap<InstId, Placement>,
    /// Per-allocation-site adaptive representation choices (DESIGN §16);
    /// empty unless [`LowerOptions::adaptive`] is set.
    reprs: &'m HashMap<InstId, Repr>,
}

impl Ctx<'_> {
    fn is_seq(&self, v: ValueId) -> bool {
        matches!(self.m.types.get(self.f.value_ty(v)), Type::Seq(_))
    }

    fn blk(&self, b: memoir_ir::BlockId) -> Blk {
        self.blocks[&b]
    }

    /// Lowers a value operand, materializing constants on demand.
    fn val(&mut self, b: Blk, v: ValueId) -> Result<Val, LowerError> {
        if let Some(&x) = self.map.get(&v) {
            return Ok(x);
        }
        if let ValueDef::Const(c) = self.f.values[v].def {
            let raw = match c {
                Constant::Int(_, x) => x,
                Constant::Bool(x) => x as i64,
                Constant::Null(_) => 0,
                Constant::Float(..) => {
                    return Err(LowerError::FloatUnsupported(self.f.name.clone()))
                }
            };
            let x = self.lf.push1(b, Op::Const(raw));
            // Constants are per-site: do not cache across blocks (the
            // defining block must dominate all uses). Per-use emission
            // keeps dominance trivially.
            return Ok(x);
        }
        unreachable!("operand lowered before definition")
    }

    fn rt(&mut self, b: Blk, name: &str, args: Vec<Val>, has_result: bool) -> Option<Val> {
        let res = self.lf.push(
            b,
            Op::CallRt {
                name: name.to_string(),
                args,
                has_result,
            },
            has_result as usize,
        );
        res.first().copied()
    }

    /// Loads the element address of `seq[idx]`: `gep(load(hdr), idx)`.
    fn seq_elem_addr(&mut self, b: Blk, hdr: Val, idx: Val) -> Val {
        let data = self.lf.push1(b, Op::Load(hdr));
        self.lf.push1(
            b,
            Op::Gep {
                base: data,
                offset: idx,
            },
        )
    }
}

fn lower_function(
    m: &Module,
    fid: FuncId,
    fun_ids: &HashMap<FuncId, Fun>,
    reprs: &HashMap<InstId, Repr>,
    stats: &mut LowerStats,
) -> Result<LFunction, LowerError> {
    let f = &m.funcs[fid];
    let lf = LFunction::new(
        f.name.clone(),
        f.params.len() as u32,
        f.ret_tys.len() as u32,
    );
    let placements = memoir_analysis::EscapeAnalysis::compute(m, f).placements;
    let mut ctx = Ctx {
        m,
        f,
        lf,
        map: HashMap::new(),
        blocks: HashMap::new(),
        phi_patches: Vec::new(),
        placements,
        reprs,
    };
    // Parameters map 1:1 (floats rejected).
    for (i, p) in f.params.iter().enumerate() {
        if m.types.get(p.ty).is_float() {
            return Err(LowerError::FloatUnsupported(f.name.clone()));
        }
        ctx.map.insert(f.param_values[i], ctx.lf.param(i as u32));
    }
    // Blocks 1:1 (entry is pre-created).
    ctx.blocks.insert(f.entry, ctx.lf.entry);
    for (ob, _) in f.blocks.iter() {
        if ob != f.entry {
            let nb = ctx.lf.add_block();
            ctx.blocks.insert(ob, nb);
        }
    }

    // Lower blocks in dominator-tree preorder: every non-φ operand's
    // definition dominates its use, so it is lowered before the use (id
    // order is not sufficient — transformed functions create dominating
    // blocks with high ids).
    let dt = memoir_analysis::DomTree::compute(f);
    for ob in dt.preorder() {
        let b = ctx.blk(ob);
        for &iid in &f.blocks[ob].insts.clone() {
            lower_inst(
                &mut ctx,
                b,
                iid,
                &f.insts[iid].kind.clone(),
                &f.insts[iid].results.clone(),
                fun_ids,
                stats,
            )?;
        }
    }

    // Patch φ incomings.
    for (lir_idx, incomings) in std::mem::take(&mut ctx.phi_patches) {
        let mut mapped: Vec<(Blk, Val)> = Vec::with_capacity(incomings.len());
        for (ob, ov) in &incomings {
            let lb = ctx.blk(*ob);
            // Incoming constants must be materialized in the
            // predecessor block (before its terminator).
            let lv = match ctx.map.get(ov) {
                Some(&v) => v,
                None => {
                    if let ValueDef::Const(c) = ctx.f.values[*ov].def {
                        let raw = match c {
                            Constant::Int(_, x) => x,
                            Constant::Bool(x) => x as i64,
                            Constant::Null(_) => 0,
                            // Float constants must not silently lower to
                            // 0: the non-φ path (`Ctx::val`) rejects
                            // them, and a φ incoming is no different.
                            Constant::Float(..) => {
                                return Err(LowerError::FloatUnsupported(f.name.clone()))
                            }
                        };
                        let at = ctx.lf.blocks[lb.0 as usize].insts.len().saturating_sub(1);
                        ctx.lf.insert_at(lb, at, Op::Const(raw), 1)[0]
                    } else {
                        panic!("phi incoming unresolved")
                    }
                }
            };
            mapped.push((lb, lv));
        }
        if let Op::Phi(incs) = &mut ctx.lf.insts[lir_idx].op {
            *incs = mapped;
        }
    }
    Ok(ctx.lf)
}

#[allow(clippy::too_many_lines)]
#[allow(clippy::too_many_arguments)]
fn lower_inst(
    ctx: &mut Ctx<'_>,
    b: Blk,
    iid: InstId,
    kind: &InstKind,
    results: &[ValueId],
    fun_ids: &HashMap<FuncId, Fun>,
    stats: &mut LowerStats,
) -> Result<(), LowerError> {
    macro_rules! v {
        ($x:expr) => {
            ctx.val(b, $x)?
        };
    }
    match kind {
        InstKind::Bin { op, lhs, rhs } => {
            let (a, c) = (v!(*lhs), v!(*rhs));
            let r = emit_bin(ctx, b, *op, a, c);
            ctx.map.insert(results[0], r);
        }
        InstKind::Cmp { op, lhs, rhs } => {
            let (a, c) = (v!(*lhs), v!(*rhs));
            let lop = match op {
                CmpOp::Eq => LCmp::Eq,
                CmpOp::Ne => LCmp::Ne,
                CmpOp::Lt => LCmp::Lt,
                CmpOp::Le => LCmp::Le,
                CmpOp::Gt => LCmp::Gt,
                CmpOp::Ge => LCmp::Ge,
            };
            let r = ctx.lf.push1(b, Op::Cmp(lop, a, c));
            ctx.map.insert(results[0], r);
        }
        InstKind::Cast { to, value } => {
            let x = v!(*value);
            let r = match ctx.m.types.get(*to) {
                Type::I8 => truncate_signed(ctx, b, x, 56),
                Type::I16 => truncate_signed(ctx, b, x, 48),
                Type::I32 => truncate_signed(ctx, b, x, 32),
                Type::U8 => mask(ctx, b, x, 0xFF),
                Type::U16 => mask(ctx, b, x, 0xFFFF),
                Type::U32 => mask(ctx, b, x, 0xFFFF_FFFF),
                Type::Bool => {
                    let zero = ctx.lf.push1(b, Op::Const(0));
                    ctx.lf.push1(b, Op::Cmp(LCmp::Ne, x, zero))
                }
                t if t.is_float() => return Err(LowerError::FloatUnsupported(ctx.f.name.clone())),
                _ => x,
            };
            ctx.map.insert(results[0], r);
        }
        InstKind::Select {
            cond,
            then_value,
            else_value,
        } => {
            let (c, t, e) = (v!(*cond), v!(*then_value), v!(*else_value));
            let one = ctx.lf.push1(b, Op::Const(1));
            let not = ctx.lf.push1(b, Op::Bin(LBin::Xor, c, one));
            let pt = ctx.lf.push1(b, Op::Bin(LBin::Mul, c, t));
            let pe = ctx.lf.push1(b, Op::Bin(LBin::Mul, not, e));
            let r = ctx.lf.push1(b, Op::Bin(LBin::Add, pt, pe));
            ctx.map.insert(results[0], r);
        }
        InstKind::Phi { incoming } => {
            let r = ctx.lf.push1(b, Op::Phi(vec![]));
            let lir_idx = ctx.lf.insts.len() - 1;
            ctx.phi_patches.push((lir_idx, incoming.clone()));
            ctx.map.insert(results[0], r);
        }
        InstKind::Call { callee, args } => match callee {
            Callee::Func(t) => {
                let callee_f = &ctx.m.funcs[*t];
                let mut lowered_args = Vec::with_capacity(args.len());
                for (k, &a) in args.iter().enumerate() {
                    let mut la = v!(a);
                    // By-value collection arguments copy at the call site
                    // (MUT value semantics).
                    let p = &callee_f.params[k];
                    if !p.by_ref && ctx.m.types.get(p.ty).is_collection() {
                        la = if matches!(ctx.m.types.get(p.ty), Type::Seq(_)) {
                            ctx.rt(b, "rt_seq_copy", vec![la], true).unwrap()
                        } else {
                            ctx.rt(b, "rt_assoc_copy", vec![la], true).unwrap()
                        };
                    }
                    lowered_args.push(la);
                }
                let res = ctx.lf.push(
                    b,
                    Op::Call {
                        func: fun_ids[t],
                        args: lowered_args,
                    },
                    results.len(),
                );
                for (r, lr) in results.iter().zip(res) {
                    ctx.map.insert(*r, lr);
                }
            }
            Callee::Extern(e) => {
                let name = ctx.m.externs[*e].name.clone();
                let lowered_args: Vec<Val> = args
                    .iter()
                    .map(|&a| ctx.val(b, a))
                    .collect::<Result<_, _>>()?;
                let res = ctx.lf.push(
                    b,
                    Op::CallRt {
                        name,
                        args: lowered_args,
                        has_result: !results.is_empty(),
                    },
                    results.len(),
                );
                for (r, lr) in results.iter().zip(res) {
                    ctx.map.insert(*r, lr);
                }
            }
        },
        InstKind::Jump { target } => {
            let t = ctx.blk(*target);
            ctx.lf.push0(b, Op::Jmp(t));
        }
        InstKind::Branch {
            cond,
            then_target,
            else_target,
        } => {
            let c = v!(*cond);
            let (tb, eb) = (ctx.blk(*then_target), ctx.blk(*else_target));
            ctx.lf.push0(
                b,
                Op::Br {
                    cond: c,
                    then_b: tb,
                    else_b: eb,
                },
            );
        }
        InstKind::Ret { values } => {
            let vs: Vec<Val> = values
                .iter()
                .map(|&x| ctx.val(b, x))
                .collect::<Result<_, _>>()?;
            ctx.lf.push0(b, Op::Ret(vs));
        }
        InstKind::Unreachable => {
            // Lower as a trapping division by zero guard-free return.
            let z = ctx.lf.push1(b, Op::Const(0));
            let one = ctx.lf.push1(b, Op::Const(1));
            let t = ctx.lf.push1(b, Op::Bin(LBin::Div, one, z));
            ctx.lf.push0(b, Op::Ret(vec![t]));
        }

        InstKind::NewSeq { len, .. } => {
            // §VI heap/stack selection: a non-escaping sequence with a
            // constant length lives on the stack — header and data in one
            // alloca, no runtime allocation.
            let const_len = ctx
                .f
                .value_const(*len)
                .and_then(memoir_ir::Constant::as_int)
                .filter(|&c| (0..=4096).contains(&c));
            let stack = ctx.placements.get(&iid) == Some(&Placement::Stack);
            match (stack, const_len) {
                (true, Some(c)) => {
                    stats.stack_seqs += 1;
                    // The repr analysis independently proving Inline is
                    // a strict subset of this §VI stack path (const len,
                    // non-escaping, never resized) — count it so the
                    // adaptive report can attribute the placement.
                    if matches!(ctx.reprs.get(&iid), Some(Repr::Inline { .. })) {
                        stats.inline_seqs += 1;
                    }
                    let hdr = ctx.lf.push1(b, Op::Alloca(3 + c as u32));
                    let three = ctx.lf.push1(b, Op::Const(3));
                    let data = ctx.lf.push1(
                        b,
                        Op::Gep {
                            base: hdr,
                            offset: three,
                        },
                    );
                    ctx.lf.push0(
                        b,
                        Op::Store {
                            addr: hdr,
                            value: data,
                        },
                    );
                    let one = ctx.lf.push1(b, Op::Const(1));
                    let two = ctx.lf.push1(b, Op::Const(2));
                    let lenp = ctx.lf.push1(
                        b,
                        Op::Gep {
                            base: hdr,
                            offset: one,
                        },
                    );
                    let capp = ctx.lf.push1(
                        b,
                        Op::Gep {
                            base: hdr,
                            offset: two,
                        },
                    );
                    let n = ctx.lf.push1(b, Op::Const(c));
                    ctx.lf.push0(
                        b,
                        Op::Store {
                            addr: lenp,
                            value: n,
                        },
                    );
                    ctx.lf.push0(
                        b,
                        Op::Store {
                            addr: capp,
                            value: n,
                        },
                    );
                    ctx.map.insert(results[0], hdr);
                }
                _ => {
                    stats.heap_seqs += 1;
                    let n = v!(*len);
                    let h = ctx.rt(b, "rt_seq_new", vec![n], true).unwrap();
                    ctx.map.insert(results[0], h);
                }
            }
        }
        InstKind::NewAssoc { .. } => {
            // Adaptive selection (DESIGN §16): a bounded-key assoc
            // lowers to a dense direct-indexed map in linear memory; the
            // handle is non-negative, so `rt_assoc_*` dispatch on sign.
            let h = if let Some(Repr::Dense { cap }) = ctx.reprs.get(&iid) {
                stats.dense_assocs += 1;
                let n = ctx.lf.push1(b, Op::Const(*cap as i64));
                ctx.rt(b, "rt_dense_new", vec![n], true).unwrap()
            } else {
                ctx.rt(b, "rt_assoc_new", vec![], true).unwrap()
            };
            ctx.map.insert(results[0], h);
        }
        InstKind::NewObj { obj } => {
            let nfields = ctx.m.types.object(*obj).fields.len().max(1);
            let n = ctx.lf.push1(b, Op::Const(nfields as i64));
            let h = ctx.rt(b, "rt_obj_new", vec![n], true).unwrap();
            ctx.map.insert(results[0], h);
        }
        InstKind::DeleteObj { obj } => {
            let o = v!(*obj);
            ctx.rt(b, "rt_obj_delete", vec![o], false);
        }
        InstKind::Read { c, idx } => {
            let h = v!(*c);
            let i = v!(*idx);
            let r = if ctx.is_seq(*c) {
                let addr = ctx.seq_elem_addr(b, h, i);
                ctx.lf.push1(b, Op::Load(addr))
            } else {
                ctx.rt(b, "rt_assoc_read", vec![h, i], true).unwrap()
            };
            ctx.map.insert(results[0], r);
        }
        InstKind::MutWrite { c, idx, value } => {
            let h = v!(*c);
            let i = v!(*idx);
            let x = v!(*value);
            if ctx.is_seq(*c) {
                let addr = ctx.seq_elem_addr(b, h, i);
                ctx.lf.push0(b, Op::Store { addr, value: x });
            } else {
                ctx.rt(b, "rt_assoc_write", vec![h, i, x], false);
            }
        }
        InstKind::MutRmw { c, idx, op, value } => {
            let h = v!(*c);
            let i = v!(*idx);
            let x = v!(*value);
            if ctx.is_seq(*c) {
                // One address computation for both halves — the fusion
                // payoff the interpreter's cost model charges as a
                // single storage pass.
                let addr = ctx.seq_elem_addr(b, h, i);
                let old = ctx.lf.push1(b, Op::Load(addr));
                let combined = emit_bin(ctx, b, *op, old, x);
                ctx.lf.push0(
                    b,
                    Op::Store {
                        addr,
                        value: combined,
                    },
                );
            } else {
                let opc = ctx.lf.push1(b, Op::Const(rmw_opcode(*op)));
                ctx.rt(b, "rt_assoc_rmw", vec![h, i, opc, x], false);
            }
        }
        InstKind::MutInsert { c, idx, value } => {
            let h = v!(*c);
            let i = v!(*idx);
            let x = match value {
                Some(v) => v!(*v),
                None => ctx.lf.push1(b, Op::Const(0)),
            };
            if ctx.is_seq(*c) {
                ctx.rt(b, "rt_seq_insert", vec![h, i, x], false);
            } else {
                // Insertion-order audit (MEMOIR `keys` determinism):
                // `rt_assoc_write` must append the key to the enumeration
                // order only when absent (overwrite keeps the original
                // position), `rt_assoc_remove` must drop it from the
                // order, and `rt_assoc_keys` must enumerate the current
                // membership in that order — so a remove + reinsert moves
                // the key to the END of the `keys` sequence. This matches
                // `memoir-runtime::Assoc` and the `memoir-interp` store;
                // `LirMachine`'s host tables implement the same contract
                // (see `lir::interp` and the `assoc_remove_reinsert_*`
                // regression tests).
                ctx.rt(b, "rt_assoc_write", vec![h, i, x], false);
            }
        }
        InstKind::MutInsertSeq { c, idx, src } => {
            let (h, i, s) = (v!(*c), v!(*idx), v!(*src));
            ctx.rt(b, "rt_seq_splice", vec![h, i, s], false);
        }
        InstKind::MutAppend { c, src } => {
            let (h, s) = (v!(*c), v!(*src));
            let one = ctx.lf.push1(b, Op::Const(1));
            let lenp = ctx.lf.push1(
                b,
                Op::Gep {
                    base: h,
                    offset: one,
                },
            );
            let len = ctx.lf.push1(b, Op::Load(lenp));
            ctx.rt(b, "rt_seq_splice", vec![h, len, s], false);
        }
        InstKind::MutRemove { c, idx } => {
            let (h, i) = (v!(*c), v!(*idx));
            if ctx.is_seq(*c) {
                ctx.rt(b, "rt_seq_remove", vec![h, i], false);
            } else {
                ctx.rt(b, "rt_assoc_remove", vec![h, i], false);
            }
        }
        InstKind::MutRemoveRange { c, from, to } => {
            let (h, x, y) = (v!(*c), v!(*from), v!(*to));
            ctx.rt(b, "rt_seq_remove_range", vec![h, x, y], false);
        }
        InstKind::MutSwap { c, from, to, at } => {
            let (h, x, y, k) = (v!(*c), v!(*from), v!(*to), v!(*at));
            ctx.rt(b, "rt_seq_swap_range", vec![h, x, y, k], false);
        }
        InstKind::MutSwap2 {
            a,
            from,
            to,
            b: b2,
            at,
        } => {
            let (ha, x, y, hb, k) = (v!(*a), v!(*from), v!(*to), v!(*b2), v!(*at));
            ctx.rt(b, "rt_seq_swap2", vec![ha, x, y, hb, k], false);
        }
        InstKind::MutSplit { c, from, to } => {
            let (h, x, y) = (v!(*c), v!(*from), v!(*to));
            let out = ctx.rt(b, "rt_seq_copy_range", vec![h, x, y], true).unwrap();
            ctx.rt(b, "rt_seq_remove_range", vec![h, x, y], false);
            ctx.map.insert(results[0], out);
        }
        InstKind::Copy { c } => {
            let h = v!(*c);
            let out = if ctx.is_seq(*c) {
                ctx.rt(b, "rt_seq_copy", vec![h], true).unwrap()
            } else {
                ctx.rt(b, "rt_assoc_copy", vec![h], true).unwrap()
            };
            ctx.map.insert(results[0], out);
        }
        InstKind::CopyRange { c, from, to } => {
            let (h, x, y) = (v!(*c), v!(*from), v!(*to));
            let out = ctx.rt(b, "rt_seq_copy_range", vec![h, x, y], true).unwrap();
            ctx.map.insert(results[0], out);
        }
        InstKind::Size { c } => {
            let h = v!(*c);
            let r = if ctx.is_seq(*c) {
                let one = ctx.lf.push1(b, Op::Const(1));
                let lenp = ctx.lf.push1(
                    b,
                    Op::Gep {
                        base: h,
                        offset: one,
                    },
                );
                ctx.lf.push1(b, Op::Load(lenp))
            } else {
                ctx.rt(b, "rt_assoc_size", vec![h], true).unwrap()
            };
            ctx.map.insert(results[0], r);
        }
        InstKind::Has { c, key } => {
            let (h, k) = (v!(*c), v!(*key));
            let r = ctx.rt(b, "rt_assoc_has", vec![h, k], true).unwrap();
            ctx.map.insert(results[0], r);
        }
        InstKind::Keys { c } => {
            let h = v!(*c);
            let r = ctx.rt(b, "rt_assoc_keys", vec![h], true).unwrap();
            ctx.map.insert(results[0], r);
        }
        InstKind::FieldRead { obj, field, .. } => {
            let o = v!(*obj);
            let off = ctx.lf.push1(b, Op::Const(*field as i64));
            let addr = ctx.lf.push1(
                b,
                Op::Gep {
                    base: o,
                    offset: off,
                },
            );
            let r = ctx.lf.push1(b, Op::Load(addr));
            ctx.map.insert(results[0], r);
        }
        InstKind::FieldWrite {
            obj, field, value, ..
        } => {
            let o = v!(*obj);
            let x = v!(*value);
            let off = ctx.lf.push1(b, Op::Const(*field as i64));
            let addr = ctx.lf.push1(
                b,
                Op::Gep {
                    base: o,
                    offset: off,
                },
            );
            ctx.lf.push0(b, Op::Store { addr, value: x });
        }
        // SSA collection ops never appear in mut form (verified upstream).
        other => {
            debug_assert!(
                !other.is_ssa_collection_op() && !matches!(other, InstKind::UsePhi { .. }),
                "SSA op {other:?} in mut form"
            );
        }
    }
    Ok(())
}

/// Emits a scalar binary op (the `InstKind::Bin` lowering, also reused
/// by the sequence `mut.rmw` combine step).
fn emit_bin(ctx: &mut Ctx<'_>, b: Blk, op: BinOp, a: Val, c: Val) -> Val {
    match op {
        BinOp::Add => ctx.lf.push1(b, Op::Bin(LBin::Add, a, c)),
        BinOp::Sub => ctx.lf.push1(b, Op::Bin(LBin::Sub, a, c)),
        BinOp::Mul => ctx.lf.push1(b, Op::Bin(LBin::Mul, a, c)),
        BinOp::Div => ctx.lf.push1(b, Op::Bin(LBin::Div, a, c)),
        BinOp::Rem => ctx.lf.push1(b, Op::Bin(LBin::Rem, a, c)),
        BinOp::And => ctx.lf.push1(b, Op::Bin(LBin::And, a, c)),
        BinOp::Or => ctx.lf.push1(b, Op::Bin(LBin::Or, a, c)),
        BinOp::Xor => ctx.lf.push1(b, Op::Bin(LBin::Xor, a, c)),
        BinOp::Shl => ctx.lf.push1(b, Op::Bin(LBin::Shl, a, c)),
        BinOp::Shr => ctx.lf.push1(b, Op::Bin(LBin::Shr, a, c)),
        BinOp::Min => {
            // min(a, c) = a < c ? a : c — lowered with a select-free
            // arithmetic trick: via compare and branchless blend is
            // overkill; use cmp + mul.
            let lt = ctx.lf.push1(b, Op::Cmp(LCmp::Lt, a, c));
            let one = ctx.lf.push1(b, Op::Const(1));
            let not = ctx.lf.push1(b, Op::Bin(LBin::Xor, lt, one));
            let pa = ctx.lf.push1(b, Op::Bin(LBin::Mul, lt, a));
            let pc = ctx.lf.push1(b, Op::Bin(LBin::Mul, not, c));
            ctx.lf.push1(b, Op::Bin(LBin::Add, pa, pc))
        }
        BinOp::Max => {
            let gt = ctx.lf.push1(b, Op::Cmp(LCmp::Gt, a, c));
            let one = ctx.lf.push1(b, Op::Const(1));
            let not = ctx.lf.push1(b, Op::Bin(LBin::Xor, gt, one));
            let pa = ctx.lf.push1(b, Op::Bin(LBin::Mul, gt, a));
            let pc = ctx.lf.push1(b, Op::Bin(LBin::Mul, not, c));
            ctx.lf.push1(b, Op::Bin(LBin::Add, pa, pc))
        }
    }
}

/// The integer opcode for `rt_assoc_rmw` — decoded by `lir::Alu::from_rmw`
/// (the two tables must stay in sync).
fn rmw_opcode(op: BinOp) -> i64 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Min => 10,
        BinOp::Max => 11,
    }
}

fn truncate_signed(ctx: &mut Ctx<'_>, b: Blk, x: Val, shift: i64) -> Val {
    let s = ctx.lf.push1(b, Op::Const(shift));
    let l = ctx.lf.push1(b, Op::Bin(LBin::Shl, x, s));
    ctx.lf.push1(b, Op::Bin(LBin::Shr, l, s))
}

fn mask(ctx: &mut Ctx<'_>, b: Blk, x: Val, m: i64) -> Val {
    let k = ctx.lf.push1(b, Op::Const(m));
    ctx.lf.push1(b, Op::Bin(LBin::And, x, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::LirMachine;
    use memoir_interp::{Interp, Value};
    use memoir_ir::ModuleBuilder;

    /// Differential: the same mut-form program computes the same result in
    /// the MEMOIR interpreter and after lowering to LIR.
    #[test]
    fn lowering_preserves_semantics() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |bb| {
            let i64t = bb.ty(Type::I64);
            let idxt = bb.ty(Type::Index);
            let count = bb.param("count", idxt);
            let zero = bb.index(0);
            let s = bb.new_seq(i64t, zero);
            let header = bb.block("header");
            let body = bb.block("body");
            let exit = bb.block("exit");
            let one = bb.index(1);
            bb.jump(header);
            bb.switch_to(header);
            let i = bb.phi_placeholder(idxt);
            let entry = bb.func.entry;
            bb.add_phi_incoming(i, entry, zero);
            let done = bb.cmp(CmpOp::Ge, i, count);
            bb.branch(done, exit, body);
            bb.switch_to(body);
            let iv = bb.cast(Type::I64, i);
            let sz = bb.size(s);
            bb.mut_insert(s, sz, Some(iv));
            let next = bb.add(i, one);
            let cur = bb.current_block();
            bb.add_phi_incoming(i, cur, next);
            bb.jump(header);
            bb.switch_to(exit);
            // Sum elements.
            let h2 = bb.block("h2");
            let b2 = bb.block("b2");
            let e2 = bb.block("e2");
            let zero64 = bb.i64(0);
            bb.jump(h2);
            bb.switch_to(h2);
            let j = bb.phi_placeholder(idxt);
            let acc = bb.phi_placeholder(i64t);
            bb.add_phi_incoming(j, exit, zero);
            bb.add_phi_incoming(acc, exit, zero64);
            let sz2 = bb.size(s);
            let done2 = bb.cmp(CmpOp::Ge, j, sz2);
            bb.branch(done2, e2, b2);
            bb.switch_to(b2);
            let x = bb.read(s, j);
            let acc2 = bb.add(acc, x);
            let jn = bb.add(j, one);
            let cur2 = bb.current_block();
            bb.add_phi_incoming(j, cur2, jn);
            bb.add_phi_incoming(acc, cur2, acc2);
            bb.jump(h2);
            bb.switch_to(e2);
            bb.returns(&[i64t]);
            bb.ret(vec![acc]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let lm = lower_module(&m).unwrap();
        for count in [0i64, 1, 5, 13] {
            let want = {
                let mut i = Interp::new(&m);
                i.run_by_name("main", vec![Value::Int(Type::Index, count)])
                    .unwrap()
            };
            let got = {
                let mut vm = LirMachine::new(&lm);
                vm.run_by_name("main", vec![count]).unwrap()
            };
            let want_i: Vec<i64> = want.iter().map(|v| v.as_int().unwrap()).collect();
            assert_eq!(want_i, got, "count={count}");
        }
    }

    /// Associative operations lower to opaque runtime calls.
    #[test]
    fn assoc_lowering_is_opaque_calls() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |bb| {
            let i64t = bb.ty(Type::I64);
            let a = bb.new_assoc(i64t, i64t);
            let k0 = bb.i64(0);
            let k1 = bb.i64(1);
            let ten = bb.i64(10);
            let eleven = bb.i64(11);
            bb.mut_write(a, k0, ten);
            bb.mut_write(a, k1, eleven);
            let r = bb.read(a, k0);
            bb.returns(&[i64t]);
            bb.ret(vec![r]);
        });
        let m = mb.finish();
        let lm = lower_module(&m).unwrap();
        let rt_calls = lm.funcs[0]
            .order()
            .iter()
            .filter(|(_, i)| matches!(lm.funcs[0].insts[i.0 as usize].op, Op::CallRt { .. }))
            .count();
        assert_eq!(rt_calls, 4, "new + 2 writes + read are all opaque");
        let mut vm = LirMachine::new(&lm);
        assert_eq!(vm.run_by_name("main", vec![]).unwrap(), vec![10]);
    }

    /// By-value collection args copy at the call site; by-ref args alias.
    #[test]
    fn call_value_semantics_preserved() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let byval = mb.func("byval", Form::Mut, |bb| {
            let s = bb.param("s", seqt);
            let zero = bb.index(0);
            let v = bb.i64(99);
            bb.mut_write(s, zero, v);
            bb.ret(vec![]);
        });
        let byref = mb.func("byref", Form::Mut, |bb| {
            let s = bb.param_ref("s", seqt);
            let zero = bb.index(0);
            let v = bb.i64(77);
            bb.mut_write(s, zero, v);
            bb.ret(vec![]);
        });
        mb.func("main", Form::Mut, |bb| {
            let n = bb.index(1);
            let s = bb.new_seq(i64t, n);
            let zero = bb.index(0);
            let v = bb.i64(1);
            bb.mut_write(s, zero, v);
            bb.call(Callee::Func(byval), vec![s], &[]);
            let a = bb.read(s, zero); // still 1
            bb.call(Callee::Func(byref), vec![s], &[]);
            let c = bb.read(s, zero); // 77
            let sum = bb.add(a, c);
            bb.returns(&[i64t]);
            bb.ret(vec![sum]);
        });
        let m = mb.finish();
        let lm = lower_module(&m).unwrap();
        let mut vm = LirMachine::new(&lm);
        assert_eq!(vm.run_by_name("main", vec![]).unwrap(), vec![78]);
    }

    /// §VI heap/stack selection: a non-escaping constant-length sequence
    /// lowers to a single `alloca` (no runtime allocation); an escaping
    /// one stays on the heap.
    #[test]
    fn stack_placement_for_local_sequences() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        mb.func("main", Form::Mut, |bb| {
            // Local scratch: stack-eligible.
            let n = bb.index(4);
            let scratch = bb.new_seq(i64t, n);
            let zero = bb.index(0);
            let v = bb.i64(9);
            bb.mut_write(scratch, zero, v);
            let r = bb.read(scratch, zero);
            // Escaping: returned, stays heap.
            let out = bb.new_seq(i64t, n);
            bb.mut_write(out, zero, r);
            bb.returns(&[seqt]);
            bb.ret(vec![out]);
        });
        let m = mb.finish();
        let (lm, stats) = lower_module_with_stats(&m).unwrap();
        assert_eq!(stats.stack_seqs, 1);
        assert_eq!(stats.heap_seqs, 1);
        let f = &lm.funcs[0];
        let allocas = f
            .order()
            .iter()
            .filter(|(_, i)| matches!(f.insts[i.0 as usize].op, Op::Alloca(_)))
            .count();
        assert_eq!(allocas, 1);
        // And it still runs: read back through the stack storage.
        let mut vm = LirMachine::new(&lm);
        let hdr = vm.run_by_name("main", vec![]).unwrap()[0];
        let data = vm.mem[hdr as usize];
        assert_eq!(vm.mem[data as usize], 9);
    }

    /// Stack-placed sequences may still grow: the helpers reallocate the
    /// data while the header stays on the stack.
    #[test]
    fn stack_sequence_can_grow() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        mb.func("main", Form::Mut, |bb| {
            let n = bb.index(1);
            let s = bb.new_seq(i64t, n);
            let zero = bb.index(0);
            let v0 = bb.i64(1);
            bb.mut_write(s, zero, v0);
            for k in 0..5 {
                let sz = bb.size(s);
                let vk = bb.i64(10 + k);
                bb.mut_insert(s, sz, Some(vk));
            }
            let five = bb.index(5);
            let last = bb.read(s, five);
            let szf = bb.size(s);
            let szi = bb.cast(Type::I64, szf);
            let sum = bb.add(last, szi);
            bb.returns(&[i64t]);
            bb.ret(vec![sum]);
        });
        let m = mb.finish();
        let (lm, stats) = lower_module_with_stats(&m).unwrap();
        assert_eq!(stats.stack_seqs, 1, "{stats:?}");
        let mut vm = LirMachine::new(&lm);
        assert_eq!(vm.run_by_name("main", vec![]).unwrap(), vec![14 + 6]);
    }

    /// Object fields lower to gep+load/store.
    #[test]
    fn field_access_lowering() {
        let mut mb = ModuleBuilder::new("m");
        let i64t = mb.module.types.intern(Type::I64);
        let obj = mb
            .module
            .types
            .define_object(
                "t",
                vec![
                    memoir_ir::Field {
                        name: "a".into(),
                        ty: i64t,
                    },
                    memoir_ir::Field {
                        name: "b".into(),
                        ty: i64t,
                    },
                ],
            )
            .unwrap();
        mb.func("main", Form::Mut, |bb| {
            let o = bb.new_obj(obj);
            let x = bb.i64(3);
            let y = bb.i64(4);
            bb.field_write(o, obj, 0, x);
            bb.field_write(o, obj, 1, y);
            let a = bb.field_read(o, obj, 0);
            let c = bb.field_read(o, obj, 1);
            let sum = bb.add(a, c);
            bb.returns(&[i64t]);
            bb.ret(vec![sum]);
        });
        let m = mb.finish();
        let lm = lower_module(&m).unwrap();
        let f = &lm.funcs[0];
        let loads = f
            .order()
            .iter()
            .filter(|(_, i)| matches!(f.insts[i.0 as usize].op, Op::Load(_)))
            .count();
        let stores = f
            .order()
            .iter()
            .filter(|(_, i)| matches!(f.insts[i.0 as usize].op, Op::Store { .. }))
            .count();
        assert_eq!(loads, 2);
        assert_eq!(stores, 2);
        let mut vm = LirMachine::new(&lm);
        assert_eq!(vm.run_by_name("main", vec![]).unwrap(), vec![7]);
    }

    /// The insertion-order contract audited at the `rt_assoc_*` lowering
    /// sites: `rt_assoc_write` appends the key to the enumeration order
    /// only when absent, `rt_assoc_remove` drops it — so a remove +
    /// reinsert moves the key to the **end** of `keys`. The MEMOIR
    /// interpreter and the lowered machine must agree on the exact
    /// order, not just the membership.
    #[test]
    fn assoc_remove_reinsert_moves_key_to_end() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let a = b.new_assoc(i64t, i64t);
            let k1 = b.i64(1);
            let k2 = b.i64(2);
            let v10 = b.i64(10);
            let v20 = b.i64(20);
            let v30 = b.i64(30);
            b.mut_insert(a, k1, Some(v10));
            b.mut_insert(a, k2, Some(v20));
            b.mut_remove(a, k1);
            b.mut_insert(a, k1, Some(v30)); // reinsert: now LAST in order
            let ks = b.keys(a);
            let zero = b.index(0);
            let one = b.index(1);
            let first = b.read(ks, zero);
            let second = b.read(ks, one);
            let val = b.read(a, k1);
            b.returns(&[i64t, i64t, i64t]);
            b.ret(vec![first, second, val]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let mut vm = Interp::new(&m);
        let r = vm.run_by_name("main", vec![]).unwrap();
        let want = [2i64, 1, 30];
        for (got, w) in r.iter().zip(want) {
            assert_eq!(got, &Value::Int(Type::I64, w), "interp order");
        }
        let lm = lower_module(&m).unwrap();
        let mut vm = LirMachine::new(&lm);
        assert_eq!(
            vm.run_by_name("main", vec![]).unwrap(),
            vec![2, 1, 30],
            "lowered order"
        );
    }

    /// A module still in SSA form is a structured [`LowerError`], never a
    /// panic: callers are expected to run `ssa-destruct` first, and the
    /// error names the offending function.
    #[test]
    fn ssa_form_is_rejected_with_context() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("still_ssa", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let one = b.i64(1);
            b.returns(&[i64t]);
            b.ret(vec![one]);
        });
        let m = mb.finish();
        let err = lower_module(&m).unwrap_err();
        assert_eq!(err, LowerError::NotMutForm("still_ssa".into()));
        assert!(err.to_string().contains("still_ssa"), "{err}");
    }

    /// Float parameters cannot be represented in the word-sized LIR and
    /// must surface as [`LowerError::FloatUnsupported`].
    #[test]
    fn float_param_is_rejected_with_context() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("floaty", Form::Mut, |b| {
            let f64t = b.ty(Type::F64);
            let x = b.param("x", f64t);
            b.returns(&[f64t]);
            b.ret(vec![x]);
        });
        let m = mb.finish();
        let err = lower_module(&m).unwrap_err();
        assert_eq!(err, LowerError::FloatUnsupported("floaty".into()));
        assert!(err.to_string().contains("floaty"), "{err}");
    }

    /// Regression for the φ-incoming path: a float constant feeding a φ
    /// used to lower silently to 0 through the patch loop; it must error
    /// exactly like the straight-line constant path does.
    #[test]
    fn float_phi_incoming_is_rejected_with_context() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("phif", Form::Mut, |b| {
            let i64t = b.ty(Type::I64);
            let f64t = b.ty(Type::F64);
            let x = b.param("x", i64t);
            let yes = b.block("yes");
            let no = b.block("no");
            let join = b.block("join");
            let zero = b.i64(0);
            let c = b.cmp(CmpOp::Gt, x, zero);
            b.branch(c, yes, no);
            b.switch_to(yes);
            b.jump(join);
            b.switch_to(no);
            b.jump(join);
            b.switch_to(join);
            let a = b.f64(1.5);
            let bv = b.f64(2.5);
            let p = b.phi(f64t, vec![(yes, a), (no, bv)]);
            b.returns(&[f64t]);
            b.ret(vec![p]);
        });
        let m = mb.finish();
        let err = lower_module(&m).unwrap_err();
        assert_eq!(err, LowerError::FloatUnsupported("phif".into()));
    }

    /// `mut.rmw` lowers to a single address computation on sequences
    /// (load + combine + store through one gep) and to `rt_assoc_rmw` on
    /// associative arrays; both agree with the MEMOIR interpreter.
    #[test]
    fn mut_rmw_lowering_matches_interp() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |bb| {
            let i64t = bb.ty(Type::I64);
            let four = bb.index(4);
            let s = bb.new_seq(i64t, four);
            let zero = bb.index(0);
            let ten = bb.i64(10);
            bb.mut_write(s, zero, ten);
            let seven = bb.i64(7);
            bb.mut_rmw(s, zero, BinOp::Add, seven); // s[0] = 17
            let a = bb.new_assoc(i64t, i64t);
            let k = bb.param("k", i64t); // unbounded key: stays hashtable
            let forty = bb.i64(40);
            bb.mut_write(a, k, forty);
            bb.mut_rmw(a, k, BinOp::Max, ten); // a[k] = max(40, 10)
            let x = bb.read(s, zero);
            let y = bb.read(a, k);
            let sum = bb.add(x, y);
            bb.returns(&[i64t]);
            bb.ret(vec![sum]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let want = {
            let mut i = Interp::new(&m);
            i.run_by_name("main", vec![Value::Int(Type::I64, 3)])
                .unwrap()[0]
                .as_int()
                .unwrap()
        };
        assert_eq!(want, 57);
        for adaptive in [false, true] {
            let run = lower_module_opts(
                &m,
                &LowerOptions {
                    adaptive,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut vm = LirMachine::new(&run.module);
            assert_eq!(
                vm.run_by_name("main", vec![3]).unwrap(),
                vec![want],
                "adaptive={adaptive}"
            );
        }
    }

    /// Adaptive selection lowers a bounded-key assoc to `rt_dense_new`;
    /// the result is byte-for-byte the same program output as the
    /// hashtable layout, and the stats report the choice.
    #[test]
    fn adaptive_dense_assoc_lowering_matches_default() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("main", Form::Mut, |bb| {
            let i64t = bb.ty(Type::I64);
            let a = bb.new_assoc(i64t, i64t);
            let h = bb.param("h", i64t);
            let mask = bb.i64(15);
            let k = bb.bin(BinOp::And, h, mask);
            let one = bb.i64(1);
            bb.mut_insert(a, k, Some(one));
            bb.mut_rmw(a, k, BinOp::Add, one);
            let other = bb.i64(3);
            let present = bb.has(a, other);
            let sz = bb.size(a);
            let szi = bb.cast(Type::I64, sz);
            let v = bb.read(a, k);
            let t = bb.add(v, szi);
            let pi = bb.cast(Type::I64, present);
            let sum = bb.add(t, pi);
            bb.returns(&[i64t]);
            bb.ret(vec![sum]);
        });
        let m = mb.finish();
        memoir_ir::verifier::assert_valid(&m);
        let base = lower_module_opts(&m, &LowerOptions::default()).unwrap();
        assert_eq!(base.stats.dense_assocs, 0);
        let adap = lower_module_opts(
            &m,
            &LowerOptions {
                adaptive: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(adap.stats.dense_assocs, 1, "{:?}", adap.stats);
        for hash in [0i64, 3, 16, 100, -5] {
            let a = LirMachine::new(&base.module)
                .run_by_name("main", vec![hash])
                .unwrap();
            let b = LirMachine::new(&adap.module)
                .run_by_name("main", vec![hash])
                .unwrap();
            assert_eq!(a, b, "hash={hash}");
        }
    }

    /// Sharded lowering is byte-identical to serial for every thread
    /// count, and a warm cache serves every function while leaving the
    /// output and the summed stats unchanged.
    #[test]
    fn sharded_and_cached_lowering_match_serial() {
        let mut mb = ModuleBuilder::new("m");
        for k in 0..5i64 {
            mb.func(&format!("f{k}"), Form::Mut, |bb| {
                let i64t = bb.ty(Type::I64);
                let four = bb.index(4);
                let s = bb.new_seq(i64t, four);
                let zero = bb.index(0);
                let x = bb.i64(10 + k);
                bb.mut_write(s, zero, x);
                let r = bb.read(s, zero);
                bb.returns(&[i64t]);
                bb.ret(vec![r]);
            });
        }
        let m = mb.finish();
        let serial = format!("{:?}", lower_module(&m).unwrap());
        for threads in [2, 4, 8] {
            let run = lower_module_opts(
                &m,
                &LowerOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(format!("{:?}", run.module), serial, "threads={threads}");
        }
        let opts = LowerOptions {
            threads: 4,
            cache: Some(passman::CompileCache::new()),
            ..Default::default()
        };
        let cold = lower_module_opts(&m, &opts).unwrap();
        assert_eq!((cold.cache.hits, cold.cache.misses), (0, 5));
        let warm = lower_module_opts(&m, &opts).unwrap();
        assert_eq!((warm.cache.hits, warm.cache.misses), (5, 0));
        assert_eq!(format!("{:?}", warm.module), serial);
        assert_eq!(warm.stats, cold.stats);
    }
}
