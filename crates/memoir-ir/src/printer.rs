//! Textual rendering of MEMOIR modules and functions.
//!
//! The format is stable and parseable by [`crate::parser`]. Values print as
//! `%N` or `%name.N` when a name hint is present; blocks as `bbN` or
//! `name.N`.
//!
//! There is one renderer, [`write_module`]: it streams every name, id,
//! constant and type straight into a [`fmt::Write`] sink, with no
//! intermediate `String`s. [`print_module`] and [`print_function`]
//! collect it into a `String`; a digest sink (`passman::TextDigest`)
//! keys a module by its text without building it.

use crate::ids::{BlockId, ObjTypeId, TypeId, ValueId};
use crate::inst::{Callee, Inst, InstKind};
use crate::{Form, Function, Module, TypeTable, ValueDef};
use std::fmt::{self, Write};

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    write_module(&mut out, m).expect("a String sink never fails");
    out
}

/// Prints a single function.
pub fn print_function(f: &Function, types: &TypeTable, module: &Module) -> String {
    let mut out = String::new();
    write_function(&mut out, f, types, module).expect("a String sink never fails");
    out
}

/// Writes a whole module into `w`.
pub fn write_module<W: Write>(w: &mut W, m: &Module) -> fmt::Result {
    writeln!(w, "module {}", m.name)?;
    for (id, obj) in m.types.objects() {
        write!(w, "type {} = {{ ", obj.name)?;
        for (i, field) in obj.fields.iter().enumerate() {
            if i > 0 {
                w.write_str(", ")?;
            }
            write!(w, "{}: ", field.name)?;
            m.types.write_type(w, field.ty)?;
        }
        writeln!(w, " }}  ; {id}")?;
    }
    for (_, e) in m.externs.iter() {
        write!(w, "extern {}(", e.name)?;
        write_types(w, &m.types, &e.params)?;
        w.write_str(") -> (")?;
        write_types(w, &m.types, &e.ret_tys)?;
        writeln!(w, ") [{}]", e.effects.keyword())?;
    }
    for (_, f) in m.funcs.iter() {
        w.write_char('\n')?;
        write_function(w, f, &m.types, m)?;
    }
    Ok(())
}

/// Writes a single function into `w`.
fn write_function<W: Write>(
    w: &mut W,
    f: &Function,
    types: &TypeTable,
    module: &Module,
) -> fmt::Result {
    write!(w, "fn {}(", f.name)?;
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        write!(w, "{}{}: ", if p.by_ref { "&" } else { "" }, p.name)?;
        types.write_type(w, p.ty)?;
    }
    w.write_str(") -> (")?;
    write_types(w, types, &f.ret_tys)?;
    let form = match f.form {
        Form::Mut => "mut",
        Form::Ssa => "ssa",
    };
    writeln!(w, ") form={form} {{")?;
    let mut p = FnWriter {
        w,
        f,
        types,
        module,
    };
    for (b, block) in f.blocks.iter() {
        p.block(b)?;
        p.w.write_str(":\n")?;
        for &i in &block.insts {
            p.w.write_str("  ")?;
            p.inst(&f.insts[i])?;
            p.w.write_char('\n')?;
        }
    }
    p.w.write_str("}\n")
}

/// Writes `tys` as a comma-separated list.
fn write_types<W: Write>(w: &mut W, types: &TypeTable, tys: &[TypeId]) -> fmt::Result {
    for (i, &t) in tys.iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        types.write_type(w, t)?;
    }
    Ok(())
}

/// A sink plus what a function's operands are rendered against.
struct FnWriter<'a, W> {
    w: &'a mut W,
    f: &'a Function,
    types: &'a TypeTable,
    module: &'a Module,
}

impl<W: Write> FnWriter<'_, W> {
    /// A value reference: its constant, or `%name.N` / `%N`.
    fn value(&mut self, v: ValueId) -> fmt::Result {
        let value = &self.f.values[v];
        match (&value.def, &value.name) {
            (ValueDef::Const(c), _) => write!(self.w, "{c}"),
            (_, Some(n)) => write!(self.w, "%{n}.{}", v.raw()),
            (_, None) => write!(self.w, "%{}", v.raw()),
        }
    }

    /// A block reference: `name.N` or `bbN`.
    fn block(&mut self, b: BlockId) -> fmt::Result {
        match &self.f.blocks[b].name {
            Some(n) => write!(self.w, "{n}.{}", b.raw()),
            None => write!(self.w, "bb{}", b.raw()),
        }
    }

    /// Values as a comma-separated list.
    fn values(&mut self, vs: &[ValueId]) -> fmt::Result {
        for (i, &v) in vs.iter().enumerate() {
            if i > 0 {
                self.w.write_str(", ")?;
            }
            self.value(v)?;
        }
        Ok(())
    }

    /// `T.field` of an object type.
    fn field(&mut self, obj_ty: ObjTypeId, field: u32) -> fmt::Result {
        let obj = self.types.object(obj_ty);
        write!(self.w, "{}.{}", obj.name, obj.fields[field as usize].name)
    }

    /// One instruction, without indentation or newline. Flat forms come
    /// from the instruction table; the arms below spell the forms with
    /// immediates.
    fn inst(&mut self, inst: &Inst) -> fmt::Result {
        if !inst.results.is_empty() {
            self.values(&inst.results)?;
            self.w.write_str(" = ")?;
        }
        match &inst.kind {
            InstKind::Cast { to, value } => {
                self.w.write_str("cast ")?;
                self.value(*value)?;
                self.w.write_str(" to ")?;
                self.types.write_type(self.w, *to)
            }
            InstKind::Phi { incoming } => {
                // The result type is annotated so the parser never needs to
                // resolve forward references to type a φ.
                self.w.write_str("phi ")?;
                self.types
                    .write_type(self.w, self.f.value_ty(inst.results[0]))?;
                self.w.write_char(' ')?;
                for (i, &(b, v)) in incoming.iter().enumerate() {
                    if i > 0 {
                        self.w.write_str(", ")?;
                    }
                    self.w.write_char('[')?;
                    self.block(b)?;
                    self.w.write_str(": ")?;
                    self.value(v)?;
                    self.w.write_char(']')?;
                }
                Ok(())
            }
            InstKind::Call { callee, args } => {
                match *callee {
                    Callee::Func(id) => write!(self.w, "call @{}(", self.module.funcs[id].name)?,
                    Callee::Extern(id) => {
                        write!(self.w, "call @{}!(", self.module.externs[id].name)?
                    }
                }
                self.values(args)?;
                self.w.write_char(')')
            }
            InstKind::Jump { target } => {
                self.w.write_str("jump ")?;
                self.block(*target)
            }
            InstKind::Branch {
                cond,
                then_target,
                else_target,
            } => {
                self.w.write_str("br ")?;
                self.value(*cond)?;
                self.w.write_str(", ")?;
                self.block(*then_target)?;
                self.w.write_str(", ")?;
                self.block(*else_target)
            }
            InstKind::Unreachable => self.w.write_str("unreachable"),
            InstKind::NewSeq { elem, len } => {
                self.w.write_str("new Seq<")?;
                self.types.write_type(self.w, *elem)?;
                self.w.write_str(">(")?;
                self.value(*len)?;
                self.w.write_char(')')
            }
            InstKind::NewAssoc { key, value } => {
                self.w.write_str("new Assoc<")?;
                self.types.write_type(self.w, *key)?;
                self.w.write_str(", ")?;
                self.types.write_type(self.w, *value)?;
                self.w.write_char('>')
            }
            InstKind::NewObj { obj } => write!(self.w, "new {}", self.types.object(*obj).name),
            InstKind::Rmw { c, idx, op, value } | InstKind::MutRmw { c, idx, op, value } => {
                let mnemonic = if inst.kind.is_mut_op() {
                    "mut.rmw "
                } else {
                    "rmw "
                };
                self.w.write_str(mnemonic)?;
                self.values(&[*c, *idx])?;
                write!(self.w, ", {}, ", op.mnemonic())?;
                self.value(*value)
            }
            InstKind::FieldRead { obj, obj_ty, field } => {
                self.w.write_str("field.read ")?;
                self.value(*obj)?;
                self.w.write_str(", ")?;
                self.field(*obj_ty, *field)
            }
            InstKind::FieldWrite {
                obj,
                obj_ty,
                field,
                value,
            } => {
                self.w.write_str("field.write ")?;
                self.value(*obj)?;
                self.w.write_str(", ")?;
                self.field(*obj_ty, *field)?;
                self.w.write_str(", ")?;
                self.value(*value)
            }
            kind => {
                let written = kind.flat(|prefix, mnemonic, operands| {
                    if !prefix.is_empty() {
                        self.w.write_str(prefix)?;
                    }
                    self.w.write_str(mnemonic)?;
                    self.w.write_char(' ')?;
                    self.values(operands)
                });
                written.unwrap_or_else(|| unreachable!("{kind:?} has no printer arm"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::{Form, Type};

    #[test]
    fn prints_readable_function() {
        let mut mb = ModuleBuilder::new("demo");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            b.name(s, "S_0");
            let zero = b.index(0);
            let v = b.i64(9);
            let s1 = b.write(s, zero, v);
            let r = b.read(s1, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let m = mb.finish();
        let text = print_module(&m);
        assert!(text.contains("module demo"), "{text}");
        assert!(text.contains("new Seq<i64>(4:Index)"), "{text}");
        assert!(text.contains("%S_0"), "{text}");
        assert!(text.contains("write"), "{text}");
        assert!(text.contains("ret"), "{text}");
    }

    #[test]
    fn prints_phi_and_branch() {
        let mut mb = ModuleBuilder::new("demo");
        mb.func("g", Form::Ssa, |b| {
            let t = b.ty(Type::Index);
            let exit = b.block("exit");
            let zero = b.index(0);
            let c = b.bool(true);
            b.branch(c, exit, exit);
            b.switch_to(exit);
            let p = b.phi(t, vec![(b.func.entry, zero)]);
            b.ret(vec![p]);
        });
        let m = mb.finish();
        let text = print_module(&m);
        assert!(text.contains("phi index [entry.0: 0:Index]"), "{text}");
        assert!(text.contains("br true, exit.1, exit.1"), "{text}");
    }
}
