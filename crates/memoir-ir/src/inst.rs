//! MEMOIR instructions (paper §IV, Fig. 2) in both program forms.
//!
//! MEMOIR programs exist in two forms that share one instruction set:
//!
//! * **Mut form** (the MUT library view, §VI): collections are storage
//!   identified by their defining SSA handle, and `mut.*` instructions
//!   update that storage in place. This is the form produced by frontends
//!   and consumed by lowering.
//! * **SSA form** (§IV): collections are immutable values; `write`,
//!   `insert`, `remove`, `swap`, … produce *new* collection values, and
//!   φ-functions merge collection values exactly like scalars.
//!
//! SSA construction ([`memoir-opt::ssa_construct`]) rewrites mut
//! instructions to SSA instructions following the Fig. 5 rules; SSA
//! destruction (Alg. 3) performs the inverse without introducing spurious
//! copies.
//!
//! Scalar instructions (arithmetic, comparisons, branches, calls) are shared
//! by both forms and are always in SSA.

use crate::ids::{BlockId, ExternId, FuncId, ObjTypeId, TypeId, ValueId};
use crate::{Type, TypeTable};
use std::fmt;

/// A compile-time constant value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Constant {
    /// An integer of the given integer type (`index` included); the payload
    /// is the value sign-extended to 64 bits (or zero-extended for unsigned
    /// types).
    Int(Type, i64),
    /// A float of the given float type, stored as raw bits so constants are
    /// hashable.
    Float(Type, u64),
    /// A boolean.
    Bool(bool),
    /// The null reference of the given object type.
    Null(ObjTypeId),
}

impl Constant {
    /// The type of this constant.
    pub fn ty(self) -> Type {
        match self {
            Constant::Int(ty, _) => ty,
            Constant::Float(ty, _) => ty,
            Constant::Bool(_) => Type::Bool,
            Constant::Null(obj) => Type::Ref(obj),
        }
    }

    /// Convenience constructor for an `index` constant.
    pub fn index(v: u64) -> Self {
        Constant::Int(Type::Index, v as i64)
    }

    /// Convenience constructor for an `i64` constant.
    pub fn i64(v: i64) -> Self {
        Constant::Int(Type::I64, v)
    }

    /// Convenience constructor for an `i32` constant.
    pub fn i32(v: i32) -> Self {
        Constant::Int(Type::I32, v as i64)
    }

    /// Convenience constructor for an `f64` constant.
    pub fn f64(v: f64) -> Self {
        Constant::Float(Type::F64, v.to_bits())
    }

    /// The integer payload, if this is an integer constant.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Constant::Int(_, v) => Some(v),
            Constant::Bool(b) => Some(b as i64),
            _ => None,
        }
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(ty, v) => write!(f, "{v}:{ty:?}"),
            Constant::Float(ty, bits) => write!(f, "{}:{ty:?}", f64::from_bits(*bits)),
            Constant::Bool(b) => write!(f, "{b}"),
            Constant::Null(obj) => write!(f, "null:{obj}"),
        }
    }
}

/// Binary arithmetic and bitwise operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (wrapping for integers).
    Add,
    /// Subtraction (wrapping for integers).
    Sub,
    /// Multiplication (wrapping for integers).
    Mul,
    /// Division. Integer division by zero is a trap.
    Div,
    /// Remainder. Integer remainder by zero is a trap.
    Rem,
    /// Bitwise/logical and.
    And,
    /// Bitwise/logical or.
    Or,
    /// Bitwise/logical xor.
    Xor,
    /// Left shift.
    Shl,
    /// Right shift (arithmetic for signed, logical for unsigned).
    Shr,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl BinOp {
    /// Every operator, in declaration order.
    pub const ALL: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Min,
        BinOp::Max,
    ];

    /// The operator spelled `m` (see [`mnemonic`](Self::mnemonic)).
    pub fn from_mnemonic(m: &str) -> Option<BinOp> {
        BinOp::ALL.into_iter().find(|op| op.mnemonic() == m)
    }

    /// The integer semantics every MEMOIR executor and folder shares, on
    /// raw `i64` payloads: wrapping arithmetic, shifts by the low six bits
    /// of `y`, signed `min`/`max`. `None` is a division or remainder by
    /// zero (a trap, never a value). The result is not yet truncated to
    /// the operand type: see [`Type::truncate`](Type::truncate).
    #[inline]
    pub fn eval(self, x: i64, y: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div | BinOp::Rem if y == 0 => return None,
            BinOp::Div => x.wrapping_div(y),
            BinOp::Rem => x.wrapping_rem(y),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32),
            BinOp::Shr => x.wrapping_shr(y as u32),
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
        })
    }

    /// Whether `a op b == b op a` for all operands.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Min | BinOp::Max
        )
    }

    /// Surface mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Comparison operators. Produce `bool`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Every operator, in declaration order.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// The operator spelled `m` (see [`mnemonic`](Self::mnemonic)).
    pub fn from_mnemonic(m: &str) -> Option<CmpOp> {
        CmpOp::ALL.into_iter().find(|op| op.mnemonic() == m)
    }

    /// Surface mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Whether the comparison holds for operands ordered `ord`.
    #[inline]
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    /// The integer comparison every MEMOIR executor and folder shares,
    /// on raw `i64` payloads ordered as unsigned when `unsigned` (see
    /// [`Type::is_unsigned`](Type::is_unsigned)).
    #[inline]
    pub fn eval(self, unsigned: bool, x: i64, y: i64) -> bool {
        self.holds(if unsigned {
            (x as u64).cmp(&(y as u64))
        } else {
            x.cmp(&y)
        })
    }

    /// The comparison with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation (`a < b` ⇔ `!(a >= b)`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// The target of a call: a function in this module or an external
/// declaration (unknown code under partial compilation, §V).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in the module.
    Func(FuncId),
    /// An external declaration with a summarized effect.
    Extern(ExternId),
}

/// A MEMOIR instruction.
///
/// Collection-producing SSA instructions return the new collection as their
/// single result; `swap` over two sequences and `call`s of multi-return
/// functions produce several results. Mut-form instructions mutate the
/// storage named by their first operand and produce no collection result.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum InstKind {
    // ---------------------------------------------------------------- scalar
    /// Binary arithmetic: `res = op lhs, rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Comparison producing `bool`.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Numeric conversion to the given type.
    Cast {
        /// Destination type.
        to: TypeId,
        /// Source value.
        value: ValueId,
    },
    /// `res = cond ? then_value : else_value`.
    Select {
        /// Condition.
        cond: ValueId,
        /// Value when true.
        then_value: ValueId,
        /// Value when false.
        else_value: ValueId,
    },
    /// φ-function merging values by predecessor block. Loop-header φs are
    /// the paper's μ-operations. Must appear before any non-φ instruction
    /// of its block.
    Phi {
        /// `(predecessor, value)` incomings; one per predecessor.
        incoming: Vec<(BlockId, ValueId)>,
    },
    /// Call a function. Collection arguments in SSA form flow back to the
    /// caller as extra results (the paper's RETφ); collection parameters
    /// receive their ARGφ role implicitly.
    Call {
        /// Call target.
        callee: Callee,
        /// Arguments.
        args: Vec<ValueId>,
    },

    // --------------------------------------------------------------- control
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch.
    Branch {
        /// Condition (`bool`).
        cond: ValueId,
        /// Target when true.
        then_target: BlockId,
        /// Target when false.
        else_target: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Returned values (possibly several: scalar returns plus live-out
        /// SSA collections).
        values: Vec<ValueId>,
    },
    /// Marks unreachable control flow.
    Unreachable,

    // --------------------------------------------------- collection creation
    /// `seq = new Seq<elem>(len)` — a new sequence of `len` uninitialized
    /// elements. Reading an uninitialized element is undefined behaviour
    /// (the interpreter traps).
    NewSeq {
        /// Element type.
        elem: TypeId,
        /// Length (an `index`); need not be statically known.
        len: ValueId,
    },
    /// `assoc = new Assoc<K, V>` — a new, empty associative array.
    NewAssoc {
        /// Key type.
        key: TypeId,
        /// Value type.
        value: TypeId,
    },
    /// `obj = new T` — allocates an object, returning a reference.
    NewObj {
        /// Object type.
        obj: ObjTypeId,
    },
    /// `delete (obj)` — ends an object's lifetime.
    DeleteObj {
        /// Object reference.
        obj: ValueId,
    },

    // ------------------------------------------------------ SSA collection ops
    /// `v = READ(c, idx)`. Reading an absent index or an uninitialized
    /// element is undefined behaviour.
    Read {
        /// Collection.
        c: ValueId,
        /// Index (sequence index or associative key).
        idx: ValueId,
    },
    /// `c1 = WRITE(c0, idx, v)` — functional element redefinition.
    Write {
        /// Input collection.
        c: ValueId,
        /// Index.
        idx: ValueId,
        /// New element value.
        value: ValueId,
    },
    /// `c1 = RMW(c0, idx, op, v)` — fused read-modify-write:
    /// `c1 = WRITE(c0, idx, op(READ(c0, idx), v))` in one pass over
    /// storage. The element must already be present and initialized (the
    /// read half traps exactly like `READ`), so unlike `WRITE` an `rmw`
    /// never extends an associative key space. Produced by the fusion
    /// pass; never required for expressiveness.
    Rmw {
        /// Input collection.
        c: ValueId,
        /// Index.
        idx: ValueId,
        /// Combining operator applied as `op(old_element, value)`.
        op: BinOp,
        /// Right-hand operand of the combine.
        value: ValueId,
    },
    /// `c1 = INSERT(c0, idx, [v])` — extends the index space. For
    /// sequences, shifts the suffix right by one; for associative arrays,
    /// adds the key.
    Insert {
        /// Input collection.
        c: ValueId,
        /// Index/key to insert.
        idx: ValueId,
        /// Optional initializing value (absent ⇒ element uninitialized).
        value: Option<ValueId>,
    },
    /// `s1 = INSERT(s0, i, src)` — splices the sequence `src` into `s0` at
    /// `i` (§IV-C).
    InsertSeq {
        /// Destination sequence.
        c: ValueId,
        /// Insertion index.
        idx: ValueId,
        /// Source sequence.
        src: ValueId,
    },
    /// `c1 = REMOVE(c0, idx)` — shrinks the index space by one element.
    Remove {
        /// Input collection.
        c: ValueId,
        /// Index/key to remove.
        idx: ValueId,
    },
    /// `s1 = REMOVE(s0, from, to)` — removes the range `[from : to)`
    /// (§IV-C).
    RemoveRange {
        /// Input sequence.
        c: ValueId,
        /// Range start (inclusive).
        from: ValueId,
        /// Range end (exclusive).
        to: ValueId,
    },
    /// `c1 = COPY(c0)` — a fresh collection with the same index-value
    /// mapping.
    Copy {
        /// Input collection.
        c: ValueId,
    },
    /// `s1 = COPY(s0, from, to)` — a fresh sequence holding the range
    /// `[from : to)` of `s0`.
    CopyRange {
        /// Input sequence.
        c: ValueId,
        /// Range start (inclusive).
        from: ValueId,
        /// Range end (exclusive).
        to: ValueId,
    },
    /// `s1 = SWAP(s0, from, to, at)` — swaps ranges `[from : to)` and
    /// `[at : at + (to - from))` within one sequence.
    Swap {
        /// Input sequence.
        c: ValueId,
        /// First range start.
        from: ValueId,
        /// First range end (exclusive).
        to: ValueId,
        /// Second range start.
        at: ValueId,
    },
    /// `s0', s1' = SWAP(s0, from, to, s1, at)` — swaps ranges between two
    /// sequences; two results.
    Swap2 {
        /// First sequence.
        a: ValueId,
        /// Range start in `a`.
        from: ValueId,
        /// Range end in `a` (exclusive).
        to: ValueId,
        /// Second sequence.
        b: ValueId,
        /// Range start in `b`.
        at: ValueId,
    },
    /// `n = SIZE(c)` — number of index-value pairs.
    Size {
        /// Collection.
        c: ValueId,
    },
    /// `b = HAS(assoc, key)` — key membership test.
    Has {
        /// Associative array.
        c: ValueId,
        /// Key.
        key: ValueId,
    },
    /// `s = KEYS(assoc)` — a sequence of the keys, in unspecified order
    /// (deterministic in this implementation: insertion order).
    Keys {
        /// Associative array.
        c: ValueId,
    },
    /// `c1 = USEφ(c0)` — links reads in control-flow order for sparse
    /// analyses (§IV-B); constructed and destructed on demand.
    UsePhi {
        /// Input collection.
        c: ValueId,
    },

    // -------------------------------------------------------- object fields
    /// `v = READ(F_{T.field}, obj)` — reads a field through the field
    /// array of `T.field` (§IV-E).
    FieldRead {
        /// Object reference.
        obj: ValueId,
        /// Object type that owns the field.
        obj_ty: ObjTypeId,
        /// Field index within the definition.
        field: u32,
    },
    /// Writes a field through its field array. Field arrays are kept in
    /// heap form in this implementation (see DESIGN.md §6): a field write
    /// updates the per-field heap array in place in both program forms.
    FieldWrite {
        /// Object reference.
        obj: ValueId,
        /// Object type that owns the field.
        obj_ty: ObjTypeId,
        /// Field index within the definition.
        field: u32,
        /// Stored value.
        value: ValueId,
    },

    // ------------------------------------------------------ mut-form (Fig. 5)
    /// `mut.write(c, idx, v)` — in-place element redefinition.
    MutWrite {
        /// Mutated collection.
        c: ValueId,
        /// Index.
        idx: ValueId,
        /// New value.
        value: ValueId,
    },
    /// `mut.rmw(c, idx, op, v)` — in-place fused read-modify-write:
    /// `mut.write(c, idx, op(read(c, idx), v))` in one pass over storage.
    MutRmw {
        /// Mutated collection.
        c: ValueId,
        /// Index.
        idx: ValueId,
        /// Combining operator applied as `op(old_element, value)`.
        op: BinOp,
        /// Right-hand operand of the combine.
        value: ValueId,
    },
    /// `mut.insert(c, idx, [v])` — in-place insertion.
    MutInsert {
        /// Mutated collection.
        c: ValueId,
        /// Index/key.
        idx: ValueId,
        /// Optional initializing value.
        value: Option<ValueId>,
    },
    /// `mut.insert(s, i, src)` — in-place sequence splice.
    MutInsertSeq {
        /// Mutated sequence.
        c: ValueId,
        /// Insertion index.
        idx: ValueId,
        /// Source sequence.
        src: ValueId,
    },
    /// `mut.remove(c, idx)` — in-place removal.
    MutRemove {
        /// Mutated collection.
        c: ValueId,
        /// Index/key.
        idx: ValueId,
    },
    /// `mut.remove(s, from, to)` — in-place range removal.
    MutRemoveRange {
        /// Mutated sequence.
        c: ValueId,
        /// Range start.
        from: ValueId,
        /// Range end (exclusive).
        to: ValueId,
    },
    /// `mut.append(s, src)` — appends `src` (Fig. 5: `INSERT(s, end, s2)`).
    MutAppend {
        /// Mutated sequence.
        c: ValueId,
        /// Appended sequence.
        src: ValueId,
    },
    /// `mut.swap(s, from, to, at)` — in-place range swap within one
    /// sequence.
    MutSwap {
        /// Mutated sequence.
        c: ValueId,
        /// First range start.
        from: ValueId,
        /// First range end (exclusive).
        to: ValueId,
        /// Second range start.
        at: ValueId,
    },
    /// `mut.swap(s0, from, to, s1, at)` — in-place range swap between two
    /// sequences.
    MutSwap2 {
        /// First sequence.
        a: ValueId,
        /// Range start in `a`.
        from: ValueId,
        /// Range end in `a` (exclusive).
        to: ValueId,
        /// Second sequence.
        b: ValueId,
        /// Range start in `b`.
        at: ValueId,
    },
    /// `s2 = mut.split(s, from, to)` — removes `[from : to)` from `s` and
    /// returns it as a fresh sequence (Fig. 5: `COPY` + `REMOVE`).
    MutSplit {
        /// Mutated sequence.
        c: ValueId,
        /// Range start.
        from: ValueId,
        /// Range end (exclusive).
        to: ValueId,
    },
}

/// Effect classification of an instruction, used by analyses and DCE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// No observable effect; result depends only on operands.
    Pure,
    /// Reads collection/heap state but does not change it.
    ReadMem,
    /// Mutates collection/heap state in place (mut form, field writes,
    /// object allocation).
    WriteMem,
    /// Transfers control.
    Control,
    /// Calls — effects are those of the callee.
    CallLike,
}

impl InstKind {
    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Jump { .. }
                | InstKind::Branch { .. }
                | InstKind::Ret { .. }
                | InstKind::Unreachable
        )
    }

    /// Whether this is a φ (or USEφ-style) merge that must stay at block
    /// head.
    pub fn is_phi(&self) -> bool {
        matches!(self, InstKind::Phi { .. })
    }

    /// Effect classification.
    pub fn effect(&self) -> Effect {
        use InstKind::*;
        match self {
            Bin { .. } | Cmp { .. } | Cast { .. } | Select { .. } | Phi { .. } => Effect::Pure,
            // SSA collection ops are pure value operations.
            NewSeq { .. } | NewAssoc { .. } => Effect::Pure,
            Write { .. }
            | Insert { .. }
            | InsertSeq { .. }
            | Remove { .. }
            | RemoveRange { .. }
            | Copy { .. }
            | CopyRange { .. }
            | Swap { .. }
            | Swap2 { .. }
            | UsePhi { .. }
            | Keys { .. } => Effect::Pure,
            // `rmw` reads the prior element (and traps like `read` when it
            // is absent/uninitialized), so it is ReadMem, not Pure: DCE
            // must keep the trap even when the new version is unused.
            Read { .. } | Size { .. } | Has { .. } | Rmw { .. } => Effect::ReadMem,
            FieldRead { .. } => Effect::ReadMem,
            NewObj { .. } | DeleteObj { .. } | FieldWrite { .. } => Effect::WriteMem,
            MutWrite { .. }
            | MutRmw { .. }
            | MutInsert { .. }
            | MutInsertSeq { .. }
            | MutRemove { .. }
            | MutRemoveRange { .. }
            | MutAppend { .. }
            | MutSwap { .. }
            | MutSwap2 { .. }
            | MutSplit { .. } => Effect::WriteMem,
            Call { .. } => Effect::CallLike,
            Jump { .. } | Branch { .. } | Ret { .. } | Unreachable => Effect::Control,
        }
    }

    /// The collections a mut-form instruction updates in place: its
    /// pair's versioned operands, and the `c` of `mut.append` and
    /// `mut.split`.
    pub fn mutated_collections(&self) -> Vec<ValueId> {
        match self {
            InstKind::MutAppend { c, .. } | InstKind::MutSplit { c, .. } => vec![*c],
            _ if self.is_mut_op() => self.versioned_operands(),
            _ => Vec::new(),
        }
    }

    /// All value operands, in a stable order.
    pub fn operands(&self) -> Vec<ValueId> {
        let mut out = Vec::new();
        self.visit_operands(|v| out.push(*v));
        out
    }

    /// The types of this instruction's results, in order: the §IV typing
    /// rule, from operand types (`value_ty`) and immediates. Two kinds
    /// take theirs from `declared`: φ has the one type it is annotated
    /// with, and `call` its callee's return types. `Err` names an
    /// operand or immediate no result type can be derived from.
    pub fn result_types(
        &self,
        types: &TypeTable,
        value_ty: impl Fn(ValueId) -> TypeId,
        declared: &[TypeId],
    ) -> Result<Vec<Type>, String> {
        use InstKind::*;
        let ty = |v: ValueId| types.get(value_ty(v));
        Ok(match self {
            Bin { lhs, .. } => vec![ty(*lhs)],
            Cmp { .. } | Has { .. } => vec![Type::Bool],
            Cast { to, .. } => vec![types.get(*to)],
            Select { then_value, .. } => vec![ty(*then_value)],
            Phi { .. } => match declared {
                [t] => vec![types.get(*t)],
                _ => return Err(format!("phi defines one result, not {}", declared.len())),
            },
            Call { .. } => declared.iter().map(|&t| types.get(t)).collect(),
            NewSeq { elem, .. } => vec![Type::Seq(*elem)],
            NewAssoc { key, value } => vec![Type::Assoc(*key, *value)],
            NewObj { obj } => vec![Type::Ref(*obj)],
            Read { c, .. } => match ty(*c) {
                Type::Seq(e) | Type::Assoc(_, e) => vec![types.get(e)],
                other => return Err(format!("read of non-collection {other:?}")),
            },
            Write { c, .. }
            | Rmw { c, .. }
            | Insert { c, .. }
            | InsertSeq { c, .. }
            | Remove { c, .. }
            | RemoveRange { c, .. }
            | Copy { c }
            | CopyRange { c, .. }
            | Swap { c, .. }
            | UsePhi { c }
            | MutSplit { c, .. } => vec![ty(*c)],
            Swap2 { a, b, .. } => vec![ty(*a), ty(*b)],
            Size { .. } => vec![Type::Index],
            Keys { c } => match ty(*c) {
                Type::Assoc(k, _) => vec![Type::Seq(k)],
                other => return Err(format!("keys of non-assoc {other:?}")),
            },
            FieldRead { obj_ty, field, .. } => {
                match types.object(*obj_ty).fields.get(*field as usize) {
                    Some(f) => vec![types.get(f.ty)],
                    None => return Err(format!("field index {field} out of range")),
                }
            }
            Jump { .. }
            | Branch { .. }
            | Ret { .. }
            | Unreachable
            | DeleteObj { .. }
            | FieldWrite { .. }
            | MutWrite { .. }
            | MutRmw { .. }
            | MutInsert { .. }
            | MutInsertSeq { .. }
            | MutRemove { .. }
            | MutRemoveRange { .. }
            | MutAppend { .. }
            | MutSwap { .. }
            | MutSwap2 { .. } => Vec::new(),
        })
    }

    /// Successor blocks named by a terminator (empty for non-terminators).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            InstKind::Jump { target } => vec![*target],
            InstKind::Branch {
                then_target,
                else_target,
                ..
            } => {
                if then_target == else_target {
                    vec![*then_target]
                } else {
                    vec![*then_target, *else_target]
                }
            }
            _ => Vec::new(),
        }
    }

    /// Rewrites successor block references through `f` (used by CFG edits).
    pub fn visit_successors_mut(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match self {
            InstKind::Jump { target } => f(target),
            InstKind::Branch {
                then_target,
                else_target,
                ..
            } => {
                f(then_target);
                f(else_target);
            }
            _ => {}
        }
    }
}

/// The instruction table: one row per flat form `mnemonic v, v, …`,
/// giving its variant, mnemonic and operands in print order (`bin` and
/// `cmp` rows spell the mnemonic with their operator: `add`,
/// `cmp.lt`), then the operand visit of every form with immediates.
/// The rows generate `InstKind::flat` (the printer's flat forms),
/// `InstKind::from_flat` (the parser's), and both operand visitors.
macro_rules! instruction_table {
    (
        operators { $( $ov:ident($oty:ident, $prefix:literal) [$($oo:ident),*] )* }
        flat { $( $fv:ident $fm:literal [$($fo:ident),*] )* }
        optional { $( $qv:ident $qm:literal [$($qo:ident),*; $qopt:ident] )* }
        list { $( $lv:ident $lm:literal [$list:ident] )* }
        immediates($f:ident) { $( $pat:pat => $visit:expr, )* }
    ) => {
        impl InstKind {
            /// Hands a flat form's mnemonic as `(prefix, name)`, e.g.
            /// `("cmp.", "lt")`, and its operands in print order to
            /// `write`; `None` for forms with immediates.
            pub(crate) fn flat<R>(
                &self,
                write: impl FnOnce(&'static str, &'static str, &[ValueId]) -> R,
            ) -> Option<R> {
                Some(match self {
                    $(
                        InstKind::$ov { op, $($oo,)* .. } => {
                            write($prefix, op.mnemonic(), &[$(*$oo),*])
                        }
                    )*
                    $( InstKind::$fv { $($fo),* } => write("", $fm, &[$(*$fo),*]), )*
                    $(
                        InstKind::$qv { $($qo,)* $qopt } => match $qopt {
                            Some(v) => write("", $qm, &[$(*$qo,)* *v]),
                            None => write("", $qm, &[$(*$qo),*]),
                        },
                    )*
                    $( InstKind::$lv { $list } => write("", $lm, $list), )*
                    _ => return None,
                })
            }

            /// The flat form `mnemonic ops…`, if `mnemonic` names one
            /// taking that many operands.
            pub(crate) fn from_flat(mnemonic: &str, ops: &[ValueId]) -> Option<InstKind> {
                $(
                    if let Some(op) = mnemonic.strip_prefix($prefix).and_then($oty::from_mnemonic) {
                        return match *ops {
                            [$($oo),*] => Some(InstKind::$ov { op, $($oo),* }),
                            _ => None,
                        };
                    }
                )*
                match (mnemonic, ops) {
                    $( ($fm, &[$($fo),*]) => Some(InstKind::$fv { $($fo),* }), )*
                    $( ($qm, &[$($qo),*]) => Some(InstKind::$qv { $($qo,)* $qopt: None }), )*
                    $(
                        ($qm, &[$($qo,)* $qopt]) => {
                            Some(InstKind::$qv { $($qo,)* $qopt: Some($qopt) })
                        }
                    )*
                    $( ($lm, $list) => Some(InstKind::$lv { $list: $list.to_vec() }), )*
                    _ => None,
                }
            }

            /// Visits every value operand immutably, in print order.
            pub fn visit_operands(&self, mut $f: impl FnMut(&ValueId)) {
                match self {
                    $( InstKind::$ov { $($oo,)* .. } => { $( $f($oo); )* } )*
                    $( InstKind::$fv { $($fo),* } => { $( $f($fo); )* } )*
                    $(
                        InstKind::$qv { $($qo,)* $qopt } => {
                            $( $f($qo); )*
                            if let Some(v) = $qopt {
                                $f(v);
                            }
                        }
                    )*
                    $( InstKind::$lv { $list } => $list.iter().for_each($f), )*
                    $( $pat => $visit, )*
                }
            }

            /// Visits every value operand mutably (used to rewrite uses).
            pub fn visit_operands_mut(&mut self, mut $f: impl FnMut(&mut ValueId)) {
                match self {
                    $( InstKind::$ov { $($oo,)* .. } => { $( $f($oo); )* } )*
                    $( InstKind::$fv { $($fo),* } => { $( $f($fo); )* } )*
                    $(
                        InstKind::$qv { $($qo,)* $qopt } => {
                            $( $f($qo); )*
                            if let Some(v) = $qopt {
                                $f(v);
                            }
                        }
                    )*
                    $( InstKind::$lv { $list } => $list.iter_mut().for_each($f), )*
                    $( $pat => $visit, )*
                }
            }
        }
    };
}

instruction_table! {
    operators {
        Bin(BinOp, "") [lhs, rhs]
        Cmp(CmpOp, "cmp.") [lhs, rhs]
    }
    flat {
        Select "select" [cond, then_value, else_value]
        DeleteObj "delete" [obj]
        Read "read" [c, idx]
        Write "write" [c, idx, value]
        InsertSeq "insert.seq" [c, idx, src]
        Remove "remove" [c, idx]
        RemoveRange "remove.range" [c, from, to]
        Copy "copy" [c]
        CopyRange "copy.range" [c, from, to]
        Swap "swap" [c, from, to, at]
        Swap2 "swap2" [a, from, to, b, at]
        Size "size" [c]
        Has "has" [c, key]
        Keys "keys" [c]
        UsePhi "usephi" [c]
        MutWrite "mut.write" [c, idx, value]
        MutInsertSeq "mut.insert.seq" [c, idx, src]
        MutRemove "mut.remove" [c, idx]
        MutRemoveRange "mut.remove.range" [c, from, to]
        MutAppend "mut.append" [c, src]
        MutSwap "mut.swap" [c, from, to, at]
        MutSwap2 "mut.swap2" [a, from, to, b, at]
        MutSplit "mut.split" [c, from, to]
    }
    optional {
        Insert "insert" [c, idx; value]
        MutInsert "mut.insert" [c, idx; value]
    }
    list {
        Ret "ret" [values]
    }
    immediates(f) {
        InstKind::Cast { value, .. } | InstKind::NewSeq { len: value, .. } => f(value),
        InstKind::Phi { incoming } => {
            for (_, v) in incoming {
                f(v);
            }
        },
        InstKind::Call { args, .. } => {
            for a in args {
                f(a);
            }
        },
        InstKind::Branch { cond, .. } => f(cond),
        InstKind::Rmw { c, idx, value, .. } | InstKind::MutRmw { c, idx, value, .. } => {
            f(c);
            f(idx);
            f(value);
        },
        InstKind::FieldRead { obj, .. } => f(obj),
        InstKind::FieldWrite { obj, value, .. } => {
            f(obj);
            f(value);
        },
        InstKind::Jump { .. }
        | InstKind::Unreachable
        | InstKind::NewAssoc { .. }
        | InstKind::NewObj { .. } => {},
    }
}

/// Fig. 5's pairs: one row per SSA collection update, the in-place mut
/// op construction rewrites into it and destruction (Alg. 3) rewrites
/// back, their shared fields, and the operands whose collections the
/// results version, in result order. `usephi` versions its operand
/// with no mut form (destruction folds it away); Fig. 5 expands
/// `mut.append` and `mut.split` into two SSA ops each, so construction
/// spells those two out.
macro_rules! collection_pairs {
    (
        pairs { $( $ssa:ident <-> $mut:ident { $($f:ident),* } [$($v:ident),*] )* }
        ssa_only { $( $so:ident [$($sov:ident),*] )* }
        mut_only { $( $mo:ident )* }
    ) => {
        impl InstKind {
            /// The mut op Alg. 3 rewrites this SSA update into.
            pub fn to_mut(&self) -> Option<InstKind> {
                match *self {
                    $( InstKind::$ssa { $($f),* } => Some(InstKind::$mut { $($f),* }), )*
                    _ => None,
                }
            }

            /// The SSA update Fig. 5 rewrites this mut op into.
            pub fn to_ssa(&self) -> Option<InstKind> {
                match *self {
                    $( InstKind::$mut { $($f),* } => Some(InstKind::$ssa { $($f),* }), )*
                    _ => None,
                }
            }

            /// The operands whose collections this update versions, in
            /// result order: an SSA update's results are their new
            /// versions, and its mut pair updates them in place.
            pub fn versioned_operands(&self) -> Vec<ValueId> {
                match self {
                    $(
                        InstKind::$ssa { $($v,)* .. } | InstKind::$mut { $($v,)* .. } => {
                            vec![$(*$v),*]
                        }
                    )*
                    $( InstKind::$so { $($sov,)* .. } => vec![$(*$sov),*], )*
                    _ => Vec::new(),
                }
            }

            /// Visits the operands [`versioned_operands`](Self::versioned_operands)
            /// lists, mutably and by position, in result order.
            pub fn visit_versioned_mut(&mut self, mut f: impl FnMut(&mut ValueId)) {
                match self {
                    $(
                        InstKind::$ssa { $($v,)* .. } | InstKind::$mut { $($v,)* .. } => {
                            $( f($v); )*
                        }
                    )*
                    $( InstKind::$so { $($sov,)* .. } => { $( f($sov); )* } )*
                    _ => {}
                }
            }

            /// Whether this is a mut-form instruction (in-place collection
            /// update).
            pub fn is_mut_op(&self) -> bool {
                matches!(self, $( InstKind::$mut { .. } )|* $( | InstKind::$mo { .. } )*)
            }

            /// Whether this is an SSA-form collection update (produces a
            /// new collection value from an old one).
            pub fn is_ssa_collection_op(&self) -> bool {
                matches!(self, $( InstKind::$ssa { .. } )|* $( | InstKind::$so { .. } )*)
            }
        }
    };
}

collection_pairs! {
    pairs {
        Write <-> MutWrite { c, idx, value } [c]
        Rmw <-> MutRmw { c, idx, op, value } [c]
        Insert <-> MutInsert { c, idx, value } [c]
        InsertSeq <-> MutInsertSeq { c, idx, src } [c]
        Remove <-> MutRemove { c, idx } [c]
        RemoveRange <-> MutRemoveRange { c, from, to } [c]
        Swap <-> MutSwap { c, from, to, at } [c]
        Swap2 <-> MutSwap2 { a, from, to, b, at } [a, b]
    }
    ssa_only { UsePhi [c] }
    mut_only { MutAppend MutSplit }
}

/// A query on a collection version, answered by the op that defined it
/// (§IV-B, Listing 1: `READ(WRITE(A, k, v), k) = v`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// `size c`.
    Size,
    /// `has c, k`.
    Has(ValueId),
    /// `read c, k`.
    Read(ValueId),
}

/// How a query's key relates to an op's key operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyRel {
    /// The same key.
    Same,
    /// A different key, below the op's (as an index).
    Below,
    /// A different key.
    Unequal,
    /// Possibly either.
    Unknown,
}

/// What a query on an op's result equals, by [`InstKind::query_step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryStep {
    /// The same query on the previous version, plus a size delta.
    Pass(ValueId, i64),
    /// An operand of the op.
    Operand(ValueId),
    /// A constant.
    Const(Constant),
    /// Unknown from the op alone.
    Stop,
}

impl InstKind {
    /// The query this instruction asks, and of which collection.
    pub fn query(&self) -> Option<(Query, ValueId)> {
        match *self {
            InstKind::Size { c } => Some((Query::Size, c)),
            InstKind::Has { c, key } => Some((Query::Has(key), c)),
            InstKind::Read { c, idx } => Some((Query::Read(idx), c)),
            _ => None,
        }
    }

    /// The query row of this SSA op: what `q` on its result equals, for
    /// a sequence result when `seq` (else an associative one). `rel`
    /// relates the query's key to the op's key operand.
    pub fn query_step(&self, q: Query, seq: bool, rel: impl Fn(ValueId) -> KeyRel) -> QueryStep {
        use {KeyRel::*, Query::*, QueryStep::*};
        match (self, q) {
            (InstKind::Copy { c } | InstKind::UsePhi { c }, _) => Pass(*c, 0),
            (InstKind::NewSeq { len, .. }, Size) => Operand(*len),
            (InstKind::NewAssoc { .. }, Size) => Const(Constant::index(0)),
            (InstKind::NewAssoc { .. }, Has(_)) => Const(Constant::Bool(false)),
            // An associative write of an absent key adds it.
            (InstKind::Write { c, .. }, Size) if seq => Pass(*c, 0),
            (InstKind::Write { c, idx, value }, Has(_) | Read(_)) => match (rel(*idx), q) {
                (Same, Read(_)) => Operand(*value),
                (Same, _) => Const(Constant::Bool(true)),
                (Below | Unequal, _) => Pass(*c, 0),
                (Unknown, _) => Stop,
            },
            // The key must be present, so neither size nor key set moves.
            (InstKind::Rmw { c, .. }, Size | Has(_)) => Pass(*c, 0),
            (InstKind::Rmw { c, idx, .. }, Read(_)) => match rel(*idx) {
                Below | Unequal => Pass(*c, 0),
                Same | Unknown => Stop,
            },
            // An associative insert of a present key overwrites it.
            (InstKind::Insert { c, .. }, Size) if seq => Pass(*c, 1),
            // A sequence insert shifts the elements at and above its index.
            (InstKind::Insert { c, idx, value }, Read(_)) => match (rel(*idx), value) {
                (Same, Some(v)) => Operand(*v),
                (Below, _) => Pass(*c, 0),
                (Unequal, _) if !seq => Pass(*c, 0),
                _ => Stop,
            },
            (InstKind::Remove { c, .. }, Size) if seq => Pass(*c, -1),
            (InstKind::Swap { c, .. }, Size) => Pass(*c, 0),
            _ => Stop,
        }
    }
}

/// An instruction node: its kind plus the result values it defines.
#[derive(Clone, Debug, PartialEq)]
pub struct Inst {
    /// Operation.
    pub kind: InstKind,
    /// Results, in order. Most instructions define zero or one value;
    /// `swap` across two sequences and multi-return calls define several.
    pub results: Vec<ValueId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Type;

    fn v(n: u32) -> ValueId {
        ValueId::from_raw(n)
    }

    #[test]
    fn operands_and_rewrite_agree() {
        let mut inst = InstKind::Swap2 {
            a: v(0),
            from: v(1),
            to: v(2),
            b: v(3),
            at: v(4),
        };
        assert_eq!(inst.operands(), vec![v(0), v(1), v(2), v(3), v(4)]);
        inst.visit_operands_mut(|op| *op = ValueId::from_raw(op.raw() + 10));
        assert_eq!(inst.operands(), vec![v(10), v(11), v(12), v(13), v(14)]);
    }

    #[test]
    fn effects_classify_forms() {
        assert_eq!(
            InstKind::Write {
                c: v(0),
                idx: v(1),
                value: v(2)
            }
            .effect(),
            Effect::Pure
        );
        assert_eq!(
            InstKind::MutWrite {
                c: v(0),
                idx: v(1),
                value: v(2)
            }
            .effect(),
            Effect::WriteMem
        );
        assert_eq!(
            InstKind::Read { c: v(0), idx: v(1) }.effect(),
            Effect::ReadMem
        );
        assert!(InstKind::Ret { values: vec![] }.is_terminator());
        assert!(InstKind::MutAppend { c: v(0), src: v(1) }.is_mut_op());
        assert!(InstKind::Swap {
            c: v(0),
            from: v(1),
            to: v(2),
            at: v(3)
        }
        .is_ssa_collection_op());
    }

    #[test]
    fn mutated_collections_reported() {
        let k = InstKind::MutSwap2 {
            a: v(0),
            from: v(1),
            to: v(2),
            b: v(3),
            at: v(4),
        };
        assert_eq!(k.mutated_collections(), vec![v(0), v(3)]);
        let k = InstKind::Write {
            c: v(0),
            idx: v(1),
            value: v(2),
        };
        assert!(k.mutated_collections().is_empty());
    }

    #[test]
    fn branch_successors_dedupe() {
        let b = InstKind::Branch {
            cond: v(0),
            then_target: BlockId::from_raw(1),
            else_target: BlockId::from_raw(1),
        };
        assert_eq!(b.successors().len(), 1);
        let b = InstKind::Branch {
            cond: v(0),
            then_target: BlockId::from_raw(1),
            else_target: BlockId::from_raw(2),
        };
        assert_eq!(b.successors().len(), 2);
    }

    #[test]
    fn constant_accessors() {
        assert_eq!(Constant::index(5).ty(), Type::Index);
        assert_eq!(Constant::i64(-3).as_int(), Some(-3));
        assert_eq!(Constant::Bool(true).as_int(), Some(1));
        assert_eq!(Constant::f64(1.5).as_int(), None);
        assert_eq!(Constant::f64(1.5).ty(), Type::F64);
    }

    #[test]
    fn cmp_op_algebra() {
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
    }
}
