//! Textual rendering of low-level IR functions (debugging aid).
//!
//! One renderer, [`write_module`], streams the text into any
//! [`fmt::Write`] sink; [`print_module`] and [`print_function`] collect
//! it into a `String`.

use crate::ir::{Function, Module, Op, Val};
use std::fmt::{self, Write};

/// Prints a module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    write_module(&mut out, m).expect("a String sink never fails");
    out
}

/// Prints one function.
pub fn print_function(f: &Function, m: &Module) -> String {
    let mut out = String::new();
    write_function(&mut out, f, m).expect("a String sink never fails");
    out
}

/// Writes a module into `w`: each function followed by a blank line.
pub fn write_module<W: Write>(w: &mut W, m: &Module) -> fmt::Result {
    for f in &m.funcs {
        write_function(w, f, m)?;
        w.write_char('\n')?;
    }
    Ok(())
}

/// Writes one function into `w`.
fn write_function<W: Write>(w: &mut W, f: &Function, m: &Module) -> fmt::Result {
    write!(w, "fn {}(", f.name)?;
    for i in 0..f.num_params {
        if i > 0 {
            w.write_str(", ")?;
        }
        write!(w, "%{i}")?;
    }
    writeln!(w, ") -> {} values {{", f.num_rets)?;
    for (bi, block) in f.blocks.iter().enumerate() {
        writeln!(w, "b{bi}:")?;
        for &i in &block.insts {
            let inst = &f.insts[i.0 as usize];
            w.write_str("  ")?;
            if !inst.results.is_empty() {
                write_vals(w, &inst.results)?;
                w.write_str(" = ")?;
            }
            match &inst.op {
                Op::Const(c) => write!(w, "const {c}")?,
                Op::Bin(op, a, b) => write_op(w, op.mnemonic(), &[*a, *b])?,
                Op::Cmp(op, a, b) => {
                    w.write_str("cmp.")?;
                    write_op(w, op.mnemonic(), &[*a, *b])?
                }
                Op::Phi(incs) => {
                    w.write_str("phi ")?;
                    for (k, (b, v)) in incs.iter().enumerate() {
                        if k > 0 {
                            w.write_str(", ")?;
                        }
                        write!(w, "[b{}: %{}]", b.0, v.0)?;
                    }
                }
                Op::Alloca(n) => write!(w, "alloca {n}")?,
                Op::Malloc(v) => write_op(w, "malloc", &[*v])?,
                Op::Free(v) => write_op(w, "free", &[*v])?,
                Op::Load(a) => write_op(w, "load", &[*a])?,
                Op::Store { addr, value } => write_op(w, "store", &[*addr, *value])?,
                Op::Gep { base, offset } => write_op(w, "gep", &[*base, *offset])?,
                Op::Call { func, args } => {
                    write!(w, "call @{}(", m.funcs[func.0 as usize].name)?;
                    write_vals(w, args)?;
                    w.write_char(')')?
                }
                Op::CallRt { name, args, .. } => {
                    write!(w, "call @{name}!(")?;
                    write_vals(w, args)?;
                    w.write_char(')')?
                }
                Op::Jmp(b) => write!(w, "jmp b{}", b.0)?,
                Op::Br {
                    cond,
                    then_b,
                    else_b,
                } => write!(w, "br %{}, b{}, b{}", cond.0, then_b.0, else_b.0)?,
                Op::Ret(vs) => write_op(w, "ret", vs)?,
            }
            w.write_char('\n')?;
        }
    }
    w.write_str("}\n")
}

/// `mnemonic %a, %b, ...`.
fn write_op<W: Write>(w: &mut W, mnemonic: &str, vs: &[Val]) -> fmt::Result {
    w.write_str(mnemonic)?;
    w.write_char(' ')?;
    write_vals(w, vs)
}

/// Values as a comma-separated `%N` list.
fn write_vals<W: Write>(w: &mut W, vs: &[Val]) -> fmt::Result {
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        write!(w, "%{}", v.0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BinOp;

    #[test]
    fn prints_readably() {
        let mut f = Function::new("demo", 1, 1);
        let e = f.entry;
        let c = f.push1(e, Op::Const(2));
        let x = f.push1(e, Op::Bin(BinOp::Mul, f.param(0), c));
        let a = f.push1(e, Op::Alloca(1));
        f.push0(e, Op::Store { addr: a, value: x });
        let l = f.push1(e, Op::Load(a));
        f.push0(e, Op::Ret(vec![l]));
        let mut m = Module::default();
        m.add(f);
        let text = print_module(&m);
        assert!(text.contains("fn demo(%0) -> 1 values"), "{text}");
        assert!(text.contains("store"), "{text}");
        assert!(text.contains("ret"), "{text}");
    }
}
