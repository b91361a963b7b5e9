//! Ergonomic construction of MEMOIR functions.
//!
//! [`FunctionBuilder`] keeps a cursor on a current block and types each
//! result by the instruction table's rule ([`InstKind::result_types`]),
//! so frontends and tests can build IR without spelling out every type. It is deliberately thin: it never reorders or
//! optimizes what it is given.

use crate::ids::{BlockId, ObjTypeId, TypeId, ValueId};
use crate::inst::{BinOp, Callee, CmpOp, Constant, InstKind};
use crate::{Form, Function, Module, Type, TypeTable};

/// Builder over a [`Function`] plus the module [`TypeTable`].
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    /// The function being built; exposed for advanced surgery.
    pub func: Function,
    /// The module type table.
    pub types: &'a mut TypeTable,
    cur: BlockId,
}

impl<'a> FunctionBuilder<'a> {
    /// Starts building a function with the given name and form.
    pub fn new(types: &'a mut TypeTable, name: impl Into<String>, form: Form) -> Self {
        let func = Function::new(name, form);
        let cur = func.entry;
        FunctionBuilder { func, types, cur }
    }

    /// Finishes, returning the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Interns a type.
    pub fn ty(&mut self, t: Type) -> TypeId {
        self.types.intern(t)
    }

    /// Adds a parameter (by value).
    pub fn param(&mut self, name: &str, ty: TypeId) -> ValueId {
        self.func.add_param(name, ty, false)
    }

    /// Adds a by-reference collection parameter (mut form).
    pub fn param_ref(&mut self, name: &str, ty: TypeId) -> ValueId {
        self.func.add_param(name, ty, true)
    }

    /// Declares the return types.
    pub fn returns(&mut self, tys: &[TypeId]) {
        self.func.ret_tys = tys.to_vec();
    }

    /// Creates a new block.
    pub fn block(&mut self, name: &str) -> BlockId {
        self.func.add_block(name)
    }

    /// Moves the cursor to a block.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// The block the cursor is on.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Names a value for readable printing.
    pub fn name(&mut self, v: ValueId, name: &str) -> ValueId {
        self.func.values[v].name = Some(name.to_string());
        v
    }

    /// Appends `kind` at the cursor, its results typed by the instruction
    /// table's rule (`declared` is φ's annotation or a callee's return
    /// types). Panics when no result type can be derived, e.g. a `read`
    /// of a scalar.
    fn emit(&mut self, kind: InstKind, declared: &[TypeId]) -> Vec<ValueId> {
        let tys = self.result_tys(&kind, declared);
        self.func.append_inst(self.cur, kind, &tys).1
    }

    fn emit1(&mut self, kind: InstKind) -> ValueId {
        self.emit(kind, &[])[0]
    }

    fn result_tys(&mut self, kind: &InstKind, declared: &[TypeId]) -> Vec<TypeId> {
        let func = &self.func;
        let tys = kind
            .result_types(self.types, |v| func.value_ty(v), declared)
            .unwrap_or_else(|e| panic!("ill-typed {kind:?}: {e}"));
        tys.into_iter().map(|t| self.types.intern(t)).collect()
    }

    // ------------------------------------------------------------- constants

    /// `index` constant.
    pub fn index(&mut self, v: u64) -> ValueId {
        let t = self.ty(Type::Index);
        self.func.constant(Constant::index(v), t)
    }

    /// `i64` constant.
    pub fn i64(&mut self, v: i64) -> ValueId {
        let t = self.ty(Type::I64);
        self.func.constant(Constant::i64(v), t)
    }

    /// `i32` constant.
    pub fn i32(&mut self, v: i32) -> ValueId {
        let t = self.ty(Type::I32);
        self.func.constant(Constant::i32(v), t)
    }

    /// `f64` constant.
    pub fn f64(&mut self, v: f64) -> ValueId {
        let t = self.ty(Type::F64);
        self.func.constant(Constant::f64(v), t)
    }

    /// `bool` constant.
    pub fn bool(&mut self, v: bool) -> ValueId {
        let t = self.ty(Type::Bool);
        self.func.constant(Constant::Bool(v), t)
    }

    /// Null reference constant.
    pub fn null(&mut self, obj: ObjTypeId) -> ValueId {
        let t = self.ty(Type::Ref(obj));
        self.func.constant(Constant::Null(obj), t)
    }

    /// Arbitrary typed integer constant.
    pub fn int(&mut self, ty: Type, v: i64) -> ValueId {
        let t = self.ty(ty);
        self.func.constant(Constant::Int(ty, v), t)
    }

    // ---------------------------------------------------------------- scalar

    /// Binary operation; result has the operand type.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.emit1(InstKind::Bin { op, lhs, rhs })
    }

    /// Addition.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Add, a, b)
    }

    /// Subtraction.
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Sub, a, b)
    }

    /// Multiplication.
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Mul, a, b)
    }

    /// Comparison producing `bool`.
    pub fn cmp(&mut self, op: CmpOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.emit1(InstKind::Cmp { op, lhs, rhs })
    }

    /// Numeric cast.
    pub fn cast(&mut self, to: Type, value: ValueId) -> ValueId {
        let to = self.ty(to);
        self.emit1(InstKind::Cast { to, value })
    }

    /// Ternary select.
    pub fn select(&mut self, cond: ValueId, t: ValueId, e: ValueId) -> ValueId {
        self.emit1(InstKind::Select {
            cond,
            then_value: t,
            else_value: e,
        })
    }

    /// Creates a φ with the given incomings.
    pub fn phi(&mut self, ty: TypeId, incoming: Vec<(BlockId, ValueId)>) -> ValueId {
        // φs must precede non-φ instructions: insert after existing φs.
        let pos = self.func.blocks[self.cur]
            .insts
            .iter()
            .take_while(|&&i| self.func.insts[i].kind.is_phi())
            .count();
        let kind = InstKind::Phi { incoming };
        let tys = self.result_tys(&kind, &[ty]);
        self.func.insert_inst_at(self.cur, pos, kind, &tys).1[0]
    }

    /// Creates an empty φ to be filled later via [`FunctionBuilder::add_phi_incoming`]
    /// (the standard trick for loop headers).
    pub fn phi_placeholder(&mut self, ty: TypeId) -> ValueId {
        self.phi(ty, Vec::new())
    }

    /// Adds an incoming edge to a previously created φ.
    pub fn add_phi_incoming(&mut self, phi: ValueId, pred: BlockId, value: ValueId) {
        let inst = self.func.value_def_inst(phi).expect("phi value");
        match &mut self.func.insts[inst].kind {
            InstKind::Phi { incoming } => incoming.push((pred, value)),
            _ => panic!("add_phi_incoming on non-phi"),
        }
    }

    /// Calls a module function; result types must be supplied by the caller
    /// (they are the callee's return types).
    pub fn call(&mut self, callee: Callee, args: Vec<ValueId>, ret_tys: &[TypeId]) -> Vec<ValueId> {
        self.emit(InstKind::Call { callee, args }, ret_tys)
    }

    // --------------------------------------------------------------- control

    /// Unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.emit(InstKind::Jump { target }, &[]);
    }

    /// Conditional branch.
    pub fn branch(&mut self, cond: ValueId, then_target: BlockId, else_target: BlockId) {
        self.emit(
            InstKind::Branch {
                cond,
                then_target,
                else_target,
            },
            &[],
        );
    }

    /// Return.
    pub fn ret(&mut self, values: Vec<ValueId>) {
        self.emit(InstKind::Ret { values }, &[]);
    }

    // ----------------------------------------------------------- collections

    /// `new Seq<elem>(len)`.
    pub fn new_seq(&mut self, elem: TypeId, len: ValueId) -> ValueId {
        self.emit1(InstKind::NewSeq { elem, len })
    }

    /// `new Assoc<K, V>`.
    pub fn new_assoc(&mut self, key: TypeId, value: TypeId) -> ValueId {
        self.emit1(InstKind::NewAssoc { key, value })
    }

    /// `new T` object allocation.
    pub fn new_obj(&mut self, obj: ObjTypeId) -> ValueId {
        self.emit1(InstKind::NewObj { obj })
    }

    /// `delete(obj)`.
    pub fn delete_obj(&mut self, obj: ValueId) {
        self.emit(InstKind::DeleteObj { obj }, &[]);
    }

    /// `READ(c, idx)`.
    pub fn read(&mut self, c: ValueId, idx: ValueId) -> ValueId {
        self.emit1(InstKind::Read { c, idx })
    }

    /// SSA `WRITE`.
    pub fn write(&mut self, c: ValueId, idx: ValueId, value: ValueId) -> ValueId {
        self.emit1(InstKind::Write { c, idx, value })
    }

    /// SSA fused `RMW`: `c' = WRITE(c, idx, op(READ(c, idx), value))`.
    pub fn rmw(&mut self, c: ValueId, idx: ValueId, op: BinOp, value: ValueId) -> ValueId {
        self.emit1(InstKind::Rmw { c, idx, op, value })
    }

    /// SSA `INSERT` of a single element.
    pub fn insert(&mut self, c: ValueId, idx: ValueId, value: Option<ValueId>) -> ValueId {
        self.emit1(InstKind::Insert { c, idx, value })
    }

    /// SSA `REMOVE` of one element.
    pub fn remove(&mut self, c: ValueId, idx: ValueId) -> ValueId {
        self.emit1(InstKind::Remove { c, idx })
    }

    /// SSA `REMOVE` of a range.
    pub fn remove_range(&mut self, c: ValueId, from: ValueId, to: ValueId) -> ValueId {
        self.emit1(InstKind::RemoveRange { c, from, to })
    }

    /// SSA `COPY` of a whole collection.
    pub fn copy(&mut self, c: ValueId) -> ValueId {
        self.emit1(InstKind::Copy { c })
    }

    /// SSA `COPY` of a range.
    pub fn copy_range(&mut self, c: ValueId, from: ValueId, to: ValueId) -> ValueId {
        self.emit1(InstKind::CopyRange { c, from, to })
    }

    /// SSA one-sequence `SWAP`.
    pub fn swap(&mut self, c: ValueId, from: ValueId, to: ValueId, at: ValueId) -> ValueId {
        self.emit1(InstKind::Swap { c, from, to, at })
    }

    /// SSA two-sequence `SWAP`; returns the two updated sequences.
    pub fn swap2(
        &mut self,
        a: ValueId,
        from: ValueId,
        to: ValueId,
        b: ValueId,
        at: ValueId,
    ) -> (ValueId, ValueId) {
        let r = self.emit(InstKind::Swap2 { a, from, to, b, at }, &[]);
        (r[0], r[1])
    }

    /// `SIZE(c)`.
    pub fn size(&mut self, c: ValueId) -> ValueId {
        self.emit1(InstKind::Size { c })
    }

    /// `HAS(assoc, key)`.
    pub fn has(&mut self, c: ValueId, key: ValueId) -> ValueId {
        self.emit1(InstKind::Has { c, key })
    }

    /// `KEYS(assoc)` — a sequence of the key type.
    pub fn keys(&mut self, c: ValueId) -> ValueId {
        self.emit1(InstKind::Keys { c })
    }

    // ---------------------------------------------------------------- fields

    /// Field array read `READ(F_{T.f}, obj)`.
    pub fn field_read(&mut self, obj: ValueId, obj_ty: ObjTypeId, field: u32) -> ValueId {
        self.emit1(InstKind::FieldRead { obj, obj_ty, field })
    }

    /// Field array write.
    pub fn field_write(&mut self, obj: ValueId, obj_ty: ObjTypeId, field: u32, value: ValueId) {
        self.emit(
            InstKind::FieldWrite {
                obj,
                obj_ty,
                field,
                value,
            },
            &[],
        );
    }

    // -------------------------------------------------------------- mut form

    /// `mut.write(c, idx, v)`.
    pub fn mut_write(&mut self, c: ValueId, idx: ValueId, value: ValueId) {
        self.emit(InstKind::MutWrite { c, idx, value }, &[]);
    }

    /// `mut.rmw(c, idx, op, v)` — in-place fused read-modify-write.
    pub fn mut_rmw(&mut self, c: ValueId, idx: ValueId, op: BinOp, value: ValueId) {
        self.emit(InstKind::MutRmw { c, idx, op, value }, &[]);
    }

    /// `mut.insert(c, idx, [v])`.
    pub fn mut_insert(&mut self, c: ValueId, idx: ValueId, value: Option<ValueId>) {
        self.emit(InstKind::MutInsert { c, idx, value }, &[]);
    }

    /// `mut.remove(c, idx)`.
    pub fn mut_remove(&mut self, c: ValueId, idx: ValueId) {
        self.emit(InstKind::MutRemove { c, idx }, &[]);
    }

    /// `mut.remove(s, from, to)`.
    pub fn mut_remove_range(&mut self, c: ValueId, from: ValueId, to: ValueId) {
        self.emit(InstKind::MutRemoveRange { c, from, to }, &[]);
    }

    /// `mut.append(s, src)`.
    pub fn mut_append(&mut self, c: ValueId, src: ValueId) {
        self.emit(InstKind::MutAppend { c, src }, &[]);
    }

    /// `mut.swap(s, from, to, at)`.
    pub fn mut_swap(&mut self, c: ValueId, from: ValueId, to: ValueId, at: ValueId) {
        self.emit(InstKind::MutSwap { c, from, to, at }, &[]);
    }

    /// `mut.swap(s0, from, to, s1, at)`.
    pub fn mut_swap2(&mut self, a: ValueId, from: ValueId, to: ValueId, b: ValueId, at: ValueId) {
        self.emit(InstKind::MutSwap2 { a, from, to, b, at }, &[]);
    }

    /// `s2 = mut.split(s, from, to)`.
    pub fn mut_split(&mut self, c: ValueId, from: ValueId, to: ValueId) -> ValueId {
        self.emit1(InstKind::MutSplit { c, from, to })
    }
}

/// Convenience for building a [`Module`] function-by-function.
#[derive(Debug)]
pub struct ModuleBuilder {
    /// The module under construction.
    pub module: Module,
}

impl ModuleBuilder {
    /// Creates a module builder.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Builds one function with a closure over a [`FunctionBuilder`] and
    /// adds it to the module.
    pub fn func(
        &mut self,
        name: &str,
        form: Form,
        build: impl FnOnce(&mut FunctionBuilder<'_>),
    ) -> crate::FuncId {
        let mut fb = FunctionBuilder::new(&mut self.module.types, name, form);
        build(&mut fb);
        let f = fb.finish();
        self.module.add_func(f)
    }

    /// Finishes, returning the module.
    pub fn finish(self) -> Module {
        self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_loop_with_phi() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("count", Form::Ssa, |b| {
            let n = {
                let t = b.ty(Type::Index);
                b.param("n", t)
            };
            let header = b.block("header");
            let body = b.block("body");
            let exit = b.block("exit");
            let zero = b.index(0);
            let one = b.index(1);
            b.jump(header);

            b.switch_to(header);
            let idx_ty = b.ty(Type::Index);
            let i = b.phi_placeholder(idx_ty);
            let entry = b.func.entry;
            b.add_phi_incoming(i, entry, zero);
            let done = b.cmp(CmpOp::Ge, i, n);
            b.branch(done, exit, body);

            b.switch_to(body);
            let next = b.add(i, one);
            let bodyb = b.current_block();
            b.add_phi_incoming(i, bodyb, next);
            b.jump(header);

            b.switch_to(exit);
            b.returns(&[idx_ty]);
            b.ret(vec![i]);
        });
        let m = mb.finish();
        let f = &m.funcs[m.func_by_name("count").unwrap()];
        assert_eq!(f.blocks.len(), 4);
        // φ is first instruction of header
        let header = BlockId::from_raw(1);
        let first = f.blocks[header].insts[0];
        assert!(f.insts[first].kind.is_phi());
    }

    #[test]
    fn seq_ops_derive_types() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(10);
            let s0 = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(42);
            let s1 = b.write(s0, zero, v);
            let got = b.read(s1, zero);
            assert_eq!(b.func.value_ty(got), i64t);
            let sz = b.size(s1);
            assert_eq!(b.types.get(b.func.value_ty(sz)), Type::Index);
            b.ret(vec![]);
        });
    }

    #[test]
    fn assoc_keys_type() {
        let mut mb = ModuleBuilder::new("m");
        mb.func("f", Form::Ssa, |b| {
            let i32t = b.ty(Type::I32);
            let boolt = b.ty(Type::Bool);
            let a = b.new_assoc(i32t, boolt);
            let ks = b.keys(a);
            let kty = b.func.value_ty(ks);
            assert_eq!(b.types.get(kty), Type::Seq(i32t));
            let k = b.i32(3);
            let h = b.has(a, k);
            assert_eq!(b.types.get(b.func.value_ty(h)), Type::Bool);
            b.ret(vec![]);
        });
    }
}
