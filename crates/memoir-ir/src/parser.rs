//! Reader for the textual MEMOIR format emitted by [`crate::printer`].
//!
//! The format is line-oriented: a `module` header, object type
//! definitions, extern declarations, then functions whose bodies are
//! labelled blocks of one instruction per line; `;` starts a comment.
//! Instructions are read against the instruction table of
//! [`InstKind`]: a flat form `mnemonic v, v, …` by the table's rows, the
//! forms with immediates (`cast`, `phi`, `call`, `jump`, `br`,
//! `unreachable`, `new`, `rmw`, `field.*`) here, and every result is
//! typed by [`InstKind::result_types`].
//!
//! A body is read in one pass. Values are numbered parameters first,
//! then constants and operands at their first mention, then the results
//! no operand names, in instruction order, so the printer's own text
//! reads back to the same text. The reader rejects, naming the line:
//! malformed syntax; unknown types, fields, functions, externs, blocks
//! and opcodes; integers outside 64 bits; a block or value defined
//! twice; an operand never defined; a result count other than the
//! table's; and a result whose type the rule cannot derive, or that is
//! derived from itself without a φ.

use crate::ids::{BlockId, ExternId, FuncId, InstId, ObjTypeId, TypeId, ValueId};
use crate::inst::{BinOp, Callee, Constant, Inst, InstKind};
use crate::{
    ExternDecl, ExternEffects, Field, Form, Function, IdMap, Module, Type, Value, ValueDef,
};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with a line number and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

fn error(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Deepest type nesting accepted (`Seq<Seq<…>>`), so hostile text cannot
/// exhaust the stack.
const MAX_TYPE_DEPTH: usize = 64;

/// Parses a module from its textual form.
pub fn parse_module(src: &str) -> PResult<Module> {
    let lines: Vec<Line<'_>> = src
        .lines()
        .enumerate()
        .map(|(i, text)| Line {
            no: i + 1,
            rest: text.split(';').next().unwrap_or_default(),
        })
        .filter(|l| !l.clone().at_end())
        .collect();
    let mut r = Reader {
        m: Module::new("anonymous"),
        objects: HashMap::new(),
        funcs: HashMap::new(),
        externs: HashMap::new(),
    };
    // Interned first, as they always were, so type ids keep their order.
    for t in [Type::Index, Type::Bool, Type::Void] {
        r.m.types.intern(t);
    }
    let mut rest = &lines[..];
    if let Some(first) = lines.first() {
        let mut l = first.clone();
        if l.word() == Ok("module") {
            if !l.at_end() {
                r.m.name = l.rest.trim_end().to_string();
            }
            rest = &lines[1..];
        }
    }

    // Declarations and signatures first, so calls can name any function.
    let mut bodies = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let mut l = rest[i].clone();
        match l.word()? {
            "type" => r.object_type(&mut l)?,
            "extern" => r.extern_decl(&mut l)?,
            "fn" => {
                let fid = r.signature(&mut l)?;
                let len = rest[i + 1..]
                    .iter()
                    .position(Line::is_close)
                    .ok_or_else(|| l.error("unterminated function body"))?;
                bodies.push((fid, l.no, &rest[i + 1..i + 1 + len]));
                i += len + 1;
            }
            other => return Err(l.error(format!("unexpected top-level token `{other}`"))),
        }
        i += 1;
    }
    for (fid, line, body) in bodies {
        Body::read(&mut r, fid, line, body)?;
    }
    Ok(r.m)
}

/// The unread rest of one source line.
#[derive(Clone, Debug)]
struct Line<'s> {
    no: usize,
    rest: &'s str,
}

impl<'s> Line<'s> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        error(self.no, message)
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t']);
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.rest.is_empty()
    }

    /// Nothing but blanks is left.
    fn end(&mut self) -> PResult<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.error(format!("unexpected `{}`", self.rest)))
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        match self.rest.strip_prefix(tok) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    fn expect(&mut self, tok: &str) -> PResult<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{tok}`, found `{}`", self.rest)))
        }
    }

    fn take(&mut self, len: usize) -> &'s str {
        let (taken, rest) = self.rest.split_at(len);
        self.rest = rest;
        taken
    }

    /// An identifier: a letter or `_`, then letters, digits, `_` and `.`.
    fn word(&mut self) -> PResult<&'s str> {
        self.skip_ws();
        let mut chars = self.rest.char_indices();
        if !chars
            .next()
            .is_some_and(|(_, c)| c.is_alphabetic() || c == '_')
        {
            return Err(self.error(format!("expected identifier, found `{}`", self.rest)));
        }
        let len = chars
            .find(|&(_, c)| !(c.is_alphanumeric() || c == '_' || c == '.'))
            .map_or(self.rest.len(), |(i, _)| i);
        Ok(self.take(len))
    }

    /// A number: a digit, then digits, `.`, `e`/`E`, and a sign right
    /// after an exponent marker.
    fn number(&mut self) -> Option<&'s str> {
        self.skip_ws();
        let b = self.rest.as_bytes();
        if !b.first().is_some_and(u8::is_ascii_digit) {
            return None;
        }
        let mut len = 1;
        while len < b.len()
            && (b[len].is_ascii_digit()
                || matches!(b[len], b'.' | b'e' | b'E')
                || (matches!(b[len], b'+' | b'-') && matches!(b[len - 1], b'e' | b'E')))
        {
            len += 1;
        }
        Some(self.take(len))
    }

    /// A value name after `%`: a number or an identifier.
    fn name(&mut self) -> PResult<&'s str> {
        match self.number() {
            Some(n) => Ok(n),
            None => self.word(),
        }
    }

    /// `item, item, … close`, possibly empty; an empty `close` is the
    /// end of the line.
    fn list<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> PResult<T>,
    ) -> PResult<Vec<T>> {
        let done = |l: &mut Self| {
            if close.is_empty() {
                l.at_end()
            } else {
                l.eat(close)
            }
        };
        let mut items = Vec::new();
        if done(self) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if done(self) {
                return Ok(items);
            }
            self.expect(",")?;
        }
    }

    /// The block label this line declares (`name:`), if it is one.
    fn label(&self) -> Option<&'s str> {
        let mut l = self.clone();
        let label = l.word().ok()?;
        (l.eat(":") && l.at_end()).then_some(label)
    }

    /// Whether this line closes a function body.
    fn is_close(&self) -> bool {
        let mut l = self.clone();
        l.eat("}") && l.at_end()
    }
}

/// The module being read, with its names.
struct Reader<'s> {
    m: Module,
    objects: HashMap<&'s str, ObjTypeId>,
    funcs: HashMap<&'s str, FuncId>,
    externs: HashMap<&'s str, ExternId>,
}

impl<'s> Reader<'s> {
    fn object(&self, l: &Line<'s>, name: &str) -> PResult<ObjTypeId> {
        self.objects
            .get(name)
            .copied()
            .ok_or_else(|| l.error(format!("unknown object type `{name}`")))
    }

    fn ty(&mut self, l: &mut Line<'s>) -> PResult<TypeId> {
        self.ty_at(l, 0)
    }

    fn ty_at(&mut self, l: &mut Line<'s>, depth: usize) -> PResult<TypeId> {
        if depth > MAX_TYPE_DEPTH {
            return Err(l.error("type nested too deeply"));
        }
        if l.eat("&") {
            let name = l.word()?;
            let obj = self.object(l, name)?;
            return Ok(self.m.types.ref_of(obj));
        }
        let name = l.word()?;
        if let Some(t) = Type::KEYWORD_TYPES
            .into_iter()
            .find(|t| t.keyword() == Some(name))
        {
            return Ok(self.m.types.intern(t));
        }
        Ok(match name {
            "Seq" => {
                l.expect("<")?;
                let elem = self.ty_at(l, depth + 1)?;
                l.expect(">")?;
                self.m.types.seq_of(elem)
            }
            "Assoc" => {
                l.expect("<")?;
                let key = self.ty_at(l, depth + 1)?;
                l.expect(",")?;
                let value = self.ty_at(l, depth + 1)?;
                l.expect(">")?;
                self.m.types.assoc_of(key, value)
            }
            _ => {
                let obj = self.object(l, name)?;
                self.m.types.intern(Type::Object(obj))
            }
        })
    }

    /// `type NAME = { field: T, … }`.
    fn object_type(&mut self, l: &mut Line<'s>) -> PResult<()> {
        let name = l.word()?;
        l.expect("=")?;
        l.expect("{")?;
        let fields = l.list("}", |l| {
            let name = l.word()?.to_string();
            l.expect(":")?;
            Ok(Field {
                name,
                ty: self.ty(l)?,
            })
        })?;
        l.end()?;
        let id = self
            .m
            .types
            .define_object(name, fields)
            .map_err(|e| l.error(e.to_string()))?;
        self.objects.insert(name, id);
        Ok(())
    }

    /// `extern NAME(T, …) -> (T, …) [effects]`.
    fn extern_decl(&mut self, l: &mut Line<'s>) -> PResult<()> {
        let name = l.word()?;
        l.expect("(")?;
        let params = l.list(")", |l| self.ty(l))?;
        l.expect("->")?;
        l.expect("(")?;
        let ret_tys = l.list(")", |l| self.ty(l))?;
        l.expect("[")?;
        let word = l.word()?;
        let (_, effects) = ExternEffects::KEYWORDS
            .into_iter()
            .find(|&(w, _)| w == word)
            .ok_or_else(|| l.error(format!("unknown extern effect `{word}`")))?;
        l.expect("]")?;
        l.end()?;
        let id = self.m.add_extern(ExternDecl {
            name: name.to_string(),
            params,
            ret_tys,
            effects,
        });
        self.externs.insert(name, id);
        Ok(())
    }

    /// `fn NAME(&p: T, …) -> (T, …) form=ssa {`.
    fn signature(&mut self, l: &mut Line<'s>) -> PResult<FuncId> {
        let name = l.word()?;
        l.expect("(")?;
        let params = l.list(")", |l| {
            let by_ref = l.eat("&");
            let name = l.word()?;
            l.expect(":")?;
            Ok((name, self.ty(l)?, by_ref))
        })?;
        l.expect("->")?;
        l.expect("(")?;
        let ret_tys = l.list(")", |l| self.ty(l))?;
        let form_kw = l.word()?;
        if form_kw != "form" {
            return Err(l.error(format!("expected `form=`, found `{form_kw}`")));
        }
        l.expect("=")?;
        let form = match l.word()? {
            "ssa" => Form::Ssa,
            "mut" => Form::Mut,
            other => return Err(l.error(format!("unknown form `{other}`"))),
        };
        l.expect("{")?;
        l.end()?;
        let mut f = Function::new(name, form);
        // Bodies declare every block by label, the first being the entry.
        f.blocks = IdMap::new();
        for (name, ty, by_ref) in params {
            f.add_param(name, ty, by_ref);
        }
        f.ret_tys = ret_tys;
        let id = self.m.add_func(f);
        self.funcs.insert(name, id);
        Ok(id)
    }
}

/// One function body being read.
struct Body<'s, 'r> {
    r: &'r mut Reader<'s>,
    fid: FuncId,
    blocks: HashMap<&'s str, BlockId>,
    values: HashMap<String, ValueId>,
    /// Operands named before any definition: their first line and name.
    undefined: HashMap<ValueId, (usize, &'s str)>,
    /// Per instruction: its line, its result names, and φ's annotation.
    read: Vec<(usize, Vec<&'s str>, Option<TypeId>)>,
}

impl<'s, 'r> Body<'s, 'r> {
    /// Reads the body of `fid`, whose header is on line `header`.
    fn read(r: &'r mut Reader<'s>, fid: FuncId, header: usize, lines: &[Line<'s>]) -> PResult<()> {
        let mut body = Body {
            r,
            fid,
            blocks: HashMap::new(),
            values: HashMap::new(),
            undefined: HashMap::new(),
            read: Vec::new(),
        };
        // Labels first, so branches can name blocks further down.
        for l in lines {
            if let Some(label) = l.label() {
                let base = label.rsplit_once('.').map_or(label, |(base, _)| base);
                let b = body.func().add_block(base);
                if body.blocks.insert(label, b).is_some() {
                    return Err(l.error(format!("block `{label}` is defined twice")));
                }
            }
        }
        if body.blocks.is_empty() {
            return Err(error(header, "function body has no blocks"));
        }
        let f = body.func();
        f.entry = BlockId::from_raw(0);
        let params: Vec<(String, ValueId)> = f
            .param_values
            .iter()
            .map(|&v| (f.values[v].name.clone().unwrap_or_default(), v))
            .collect();
        for (name, v) in params {
            body.values.insert(format!("{name}.{}", v.raw()), v);
            body.values.insert(format!("{}", v.raw()), v);
            body.values.insert(name, v);
        }
        let mut block = None;
        for l in lines {
            if let Some(label) = l.label() {
                block = Some(body.blocks[label]);
                continue;
            }
            let b = block.ok_or_else(|| l.error("instruction before first block label"))?;
            body.inst(&mut l.clone(), b)?;
        }
        body.finish()
    }

    fn func(&mut self) -> &mut Function {
        &mut self.r.m.funcs[self.fid]
    }

    fn block(&mut self, l: &mut Line<'s>) -> PResult<BlockId> {
        let name = l.word()?;
        self.blocks
            .get(name)
            .copied()
            .ok_or_else(|| l.error(format!("unknown block `{name}`")))
    }

    /// An operand: `%name`, minted at its first mention, or a constant.
    fn value(&mut self, l: &mut Line<'s>) -> PResult<ValueId> {
        if l.eat("%") {
            let name = l.name()?;
            if let Some(&v) = self.values.get(name) {
                return Ok(v);
            }
            let void = self.r.m.types.intern(Type::Void);
            let v = self.func().values.push(Value {
                ty: void,
                def: ValueDef::Inst(InstId::from_raw(u32::MAX), 0),
                name: name_hint(name),
            });
            self.values.insert(name.to_string(), v);
            self.undefined.insert(v, (l.no, name));
            return Ok(v);
        }
        let c = self.constant(l)?;
        let ty = self.r.m.types.intern(c.ty());
        Ok(self.func().constant(c, ty))
    }

    /// `true`, `false`, `null:T<n>`, or `<number>:<Type>` (the suffix is
    /// the type's keyword, capitalized as the printer writes it).
    fn constant(&mut self, l: &mut Line<'s>) -> PResult<Constant> {
        l.skip_ws();
        let start = l.rest;
        let negative = l.eat("-");
        if l.number().is_none() {
            match l.word()? {
                "true" if !negative => return Ok(Constant::Bool(true)),
                "false" if !negative => return Ok(Constant::Bool(false)),
                "null" if !negative => {
                    l.expect(":")?;
                    let t = l.word()?;
                    return t
                        .strip_prefix('T')
                        .and_then(|n| n.parse::<u32>().ok())
                        .filter(|&n| (n as usize) < self.r.m.types.object_count())
                        .map(|n| Constant::Null(ObjTypeId::from_raw(n)))
                        .ok_or_else(|| l.error(format!("unknown object type `{t}`")));
                }
                _ => {} // `inf`, `NaN`: float spellings
            }
        }
        let text = &start[..start.len() - l.rest.len()];
        l.expect(":")?;
        let suffix = l.word()?;
        let ty = Type::KEYWORD_TYPES
            .into_iter()
            .filter(|t| t.is_integer() || t.is_float())
            .find(|t| t.keyword().is_some_and(|k| k.eq_ignore_ascii_case(suffix)))
            .ok_or_else(|| l.error(format!("bad constant type `{suffix}`")))?;
        if ty.is_float() {
            let v: f64 = text
                .parse()
                .map_err(|_| l.error(format!("bad float `{text}`")))?;
            return Ok(Constant::Float(ty, v.to_bits()));
        }
        // Unsigned payloads past `i64::MAX` wrap, as the printer's
        // sign-extended payloads do.
        let v = text
            .parse::<i64>()
            .ok()
            .or_else(|| text.parse::<u64>().ok().map(|v| v as i64))
            .ok_or_else(|| l.error(format!("bad 64-bit integer `{text}`")))?;
        Ok(Constant::Int(ty, v))
    }

    /// One instruction line, appended to `block`.
    fn inst(&mut self, l: &mut Line<'s>, block: BlockId) -> PResult<()> {
        let results = if l.clone().eat("%") {
            l.list("=", |l| {
                l.expect("%")?;
                l.name()
            })?
        } else {
            Vec::new()
        };
        let mut annotation = None;
        let kind = match l.word()? {
            "cast" => {
                let value = self.value(l)?;
                if l.word()? != "to" {
                    return Err(l.error("expected `to` in cast"));
                }
                let to = self.r.ty(l)?;
                InstKind::Cast { to, value }
            }
            "phi" => {
                annotation = Some(self.r.ty(l)?);
                let incoming = l.list("", |l| {
                    l.expect("[")?;
                    let b = self.block(l)?;
                    l.expect(":")?;
                    let v = self.value(l)?;
                    l.expect("]")?;
                    Ok((b, v))
                })?;
                InstKind::Phi { incoming }
            }
            "call" => {
                l.expect("@")?;
                let name = l.word()?;
                let callee = if l.eat("!") {
                    self.r.externs.get(name).map(|&e| Callee::Extern(e))
                } else {
                    self.r.funcs.get(name).map(|&f| Callee::Func(f))
                };
                let callee = callee.ok_or_else(|| l.error(format!("unknown callee `{name}`")))?;
                l.expect("(")?;
                let args = l.list(")", |l| self.value(l))?;
                InstKind::Call { callee, args }
            }
            "jump" => InstKind::Jump {
                target: self.block(l)?,
            },
            "br" => {
                let cond = self.value(l)?;
                l.expect(",")?;
                let then_target = self.block(l)?;
                l.expect(",")?;
                let else_target = self.block(l)?;
                InstKind::Branch {
                    cond,
                    then_target,
                    else_target,
                }
            }
            "unreachable" => InstKind::Unreachable,
            "new" => match l.word()? {
                "Seq" => {
                    l.expect("<")?;
                    let elem = self.r.ty(l)?;
                    l.expect(">")?;
                    l.expect("(")?;
                    let len = self.value(l)?;
                    l.expect(")")?;
                    InstKind::NewSeq { elem, len }
                }
                "Assoc" => {
                    l.expect("<")?;
                    let key = self.r.ty(l)?;
                    l.expect(",")?;
                    let value = self.r.ty(l)?;
                    l.expect(">")?;
                    InstKind::NewAssoc { key, value }
                }
                name => InstKind::NewObj {
                    obj: self.r.object(l, name)?,
                },
            },
            m @ ("rmw" | "mut.rmw") => {
                let c = self.value(l)?;
                l.expect(",")?;
                let idx = self.value(l)?;
                l.expect(",")?;
                let name = l.word()?;
                let op = BinOp::from_mnemonic(name)
                    .ok_or_else(|| l.error(format!("bad rmw op `{name}`")))?;
                l.expect(",")?;
                let value = self.value(l)?;
                if m == "rmw" {
                    InstKind::Rmw { c, idx, op, value }
                } else {
                    InstKind::MutRmw { c, idx, op, value }
                }
            }
            m @ ("field.read" | "field.write") => {
                let obj = self.value(l)?;
                l.expect(",")?;
                let path = l.word()?;
                let (ty_name, field_name) = path
                    .rsplit_once('.')
                    .ok_or_else(|| l.error(format!("bad field path `{path}`")))?;
                let obj_ty = self.r.object(l, ty_name)?;
                let field = self.r.m.types.object(obj_ty).field_index(field_name);
                let field =
                    field.ok_or_else(|| l.error(format!("unknown field `{field_name}`")))? as u32;
                if m == "field.read" {
                    InstKind::FieldRead { obj, obj_ty, field }
                } else {
                    l.expect(",")?;
                    let value = self.value(l)?;
                    InstKind::FieldWrite {
                        obj,
                        obj_ty,
                        field,
                        value,
                    }
                }
            }
            m => {
                let ops = l.list("", |l| self.value(l))?;
                InstKind::from_flat(m, &ops).ok_or_else(|| {
                    l.error(format!("unknown opcode `{m}` with {} operands", ops.len()))
                })?
            }
        };
        l.end()?;
        let f = self.func();
        let id = f.insts.push(Inst {
            kind,
            results: Vec::new(),
        });
        f.blocks[block].insts.push(id);
        self.read.push((l.no, results, annotation));
        Ok(())
    }

    /// Binds every result to its value, then types it.
    fn finish(mut self) -> PResult<()> {
        let void = self.r.m.types.intern(Type::Void);
        // A result some operand already named takes that value; the rest
        // are minted now, in instruction order.
        for i in 0..self.read.len() {
            let (line, names) = (self.read[i].0, std::mem::take(&mut self.read[i].1));
            let inst = InstId::from_raw(i as u32);
            for (k, name) in names.into_iter().enumerate() {
                let def = ValueDef::Inst(inst, k as u32);
                let v = match self.values.get(name) {
                    Some(&v) if self.undefined.remove(&v).is_some() => {
                        self.func().values[v].def = def;
                        v
                    }
                    Some(_) => return Err(error(line, format!("`%{name}` is defined twice"))),
                    None => {
                        let v = self.func().values.push(Value {
                            ty: void,
                            def,
                            name: name_hint(name),
                        });
                        self.values.insert(name.to_string(), v);
                        v
                    }
                };
                self.func().insts[inst].results.push(v);
            }
        }
        if let Some((_, &(line, name))) = self
            .undefined
            .iter()
            .min_by_key(|(v, (line, _))| (*line, **v))
        {
            return Err(error(line, format!("`%{name}` is never defined")));
        }

        // Results are typed in instruction order; an operand defined
        // further down is typed first (φ and call results need no
        // operand types, so valid SSA never waits on itself).
        const TYPING: u8 = 1;
        const TYPED: u8 = 2;
        let mut state = vec![0u8; self.read.len()];
        for root in 0..state.len() {
            let mut stack = vec![root];
            while let Some(&i) = stack.last() {
                if state[i] == TYPED {
                    stack.pop();
                    continue;
                }
                state[i] = TYPING;
                let f = &self.r.m.funcs[self.fid];
                let kind = &f.insts[InstId::from_raw(i as u32)].kind;
                let pending = match kind {
                    InstKind::Phi { .. } | InstKind::Call { .. } => None,
                    _ => kind
                        .operands()
                        .into_iter()
                        .find_map(|v| match f.values[v].def {
                            ValueDef::Inst(d, _) if state[d.index()] != TYPED => Some(d.index()),
                            _ => None,
                        }),
                };
                match pending {
                    Some(d) if state[d] == TYPING => {
                        return Err(error(self.read[i].0, "result derived from itself"))
                    }
                    Some(d) => stack.push(d),
                    None => {
                        self.type_results(i)?;
                        state[i] = TYPED;
                        stack.pop();
                    }
                }
            }
        }
        Ok(())
    }

    /// Types instruction `i`'s results by the rule, checking their count.
    fn type_results(&mut self, i: usize) -> PResult<()> {
        let (line, _, annotation) = self.read[i];
        let m = &mut self.r.m;
        let f = &m.funcs[self.fid];
        let inst = &f.insts[InstId::from_raw(i as u32)];
        let declared = match inst.kind {
            InstKind::Phi { .. } => annotation.as_slice(),
            InstKind::Call { callee, .. } => m.ret_tys(callee),
            _ => &[],
        };
        let tys = inst
            .kind
            .result_types(&m.types, |v| f.value_ty(v), declared)
            .map_err(|e| error(line, e))?;
        let (want, got) = (tys.len(), inst.results.len());
        if want != got {
            return Err(error(line, format!("defines {want} results, not {got}")));
        }
        let results = inst.results.clone();
        for (r, t) in results.into_iter().zip(tys) {
            let t = m.types.intern(t);
            m.funcs[self.fid].values[r].ty = t;
        }
        Ok(())
    }
}

/// The printer's name hint behind a value name: `%foo.12` carries `foo`,
/// a bare `%12` none.
fn name_hint(raw: &str) -> Option<String> {
    let base = raw.rsplit_once('.').map_or(raw, |(base, _)| base);
    base.starts_with(|c: char| !c.is_ascii_digit())
        .then(|| base.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;
    use crate::ModuleBuilder;

    #[test]
    fn round_trip_simple() {
        let mut mb = ModuleBuilder::new("rt");
        mb.func("f", Form::Ssa, |b| {
            let i64t = b.ty(Type::I64);
            let n = b.index(4);
            let s = b.new_seq(i64t, n);
            let zero = b.index(0);
            let v = b.i64(7);
            let s1 = b.write(s, zero, v);
            let r = b.read(s1, zero);
            b.returns(&[i64t]);
            b.ret(vec![r]);
        });
        let m = mb.finish();
        let text = print_module(&m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        crate::verifier::assert_valid(&parsed);
        let text2 = print_module(&parsed);
        let parsed2 = parse_module(&text2).unwrap();
        assert_eq!(print_module(&parsed2), text2);
    }

    /// Multi-result instructions (two-sequence swap, multi-return calls)
    /// round-trip through the textual format.
    #[test]
    fn round_trip_multi_result() {
        let mut mb = ModuleBuilder::new("rt");
        let i64t = mb.module.types.intern(Type::I64);
        let seqt = mb.module.types.seq_of(i64t);
        let helper = mb.func("pair", Form::Ssa, |b| {
            let s = b.param("s", seqt);
            let x = b.i64(1);
            b.returns(&[seqt, i64t]);
            b.ret(vec![s, x]);
        });
        mb.func("f", Form::Ssa, |b| {
            let n = b.index(4);
            let a = b.new_seq(i64t, n);
            let c = b.new_seq(i64t, n);
            let zero = b.index(0);
            let two = b.index(2);
            let (a2, c2) = b.swap2(a, zero, two, c, zero);
            let rets = b.call(crate::Callee::Func(helper), vec![a2], &[seqt, i64t]);
            let sz = b.size(c2);
            let szi = b.cast(Type::I64, sz);
            let sum = b.add(rets[1], szi);
            b.returns(&[i64t]);
            b.ret(vec![sum]);
        });
        let m = mb.finish();
        let text = print_module(&m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        crate::verifier::assert_valid(&parsed);
        // Parsing renumbers values; stability holds from the second
        // round trip onward.
        let text2 = print_module(&parsed);
        let parsed2 = parse_module(&text2).unwrap();
        assert_eq!(print_module(&parsed2), text2);
    }

    /// One of each of the 41 instruction kinds, in the printer's own
    /// spelling: it reads back to the same bytes.
    const EVERY_KIND: &str = "\
module every
type Obj = { x: i64, y: index }  ; T0
extern ext(i64) -> (i64) [pure]

fn f(a: Assoc<i64, i64>, s: Seq<i64>, o: &Obj, n: index) -> (i64) form=ssa {
entry.0:
  %r.4 = read %s.1, %n.3
  %b.6 = add %r.4, 1:I64
  %c.8 = cmp.lt %b.6, 2:I64
  %k.9 = cast %n.3 to i64
  %sel.10 = select %c.8, %b.6, %k.9
  %e.15 = call @ext!(%sel.10)
  %s2.21 = new Seq<i64>(%n.3)
  %33 = new Assoc<index, bool>
  %ob.11 = new Obj
  %fx.13 = field.read %ob.11, Obj.x
  field.write %ob.11, Obj.y, %n.3
  delete %ob.11
  %w.14 = write %s.1, 0:Index, %fx.13
  %m.16 = rmw %w.14, 0:Index, max, %e.15
  %i1.18 = insert %m.16, 1:Index
  %i2.20 = insert %i1.18, 1:Index, 5:I64
  %is.22 = insert.seq %i2.20, 0:Index, %s2.21
  %rm.23 = remove %is.22, 0:Index
  %rr.24 = remove.range %rm.23, 0:Index, 1:Index
  %cp.25 = copy %rr.24
  %cr.26 = copy.range %cp.25, 0:Index, 1:Index
  %sw.28 = swap %cr.26, 0:Index, 1:Index, 2:Index
  %34, %y.29 = swap2 %sw.28, 0:Index, 1:Index, %s2.21, 0:Index
  %35 = size %y.29
  %h.31 = has %a.0, %b.6
  %ks.30 = keys %a.0
  %36 = usephi %ks.30
  br %h.31, then.1, else.2
then.1:
  jump join.3
else.2:
  unreachable
join.3:
  %p.32 = phi i64 [then.1: %b.6]
  ret %p.32
}

fn g(&s: Seq<i64>, t: Seq<i64>) -> () form=mut {
entry.0:
  mut.write %s.0, 0:Index, 1:I64
  mut.rmw %s.0, 0:Index, add, 2:I64
  mut.insert %s.0, 0:Index
  mut.insert %s.0, 0:Index, 3:I64
  mut.insert.seq %s.0, 0:Index, %t.1
  mut.remove %s.0, 0:Index
  mut.remove.range %s.0, 0:Index, 1:Index
  mut.append %s.0, %t.1
  mut.swap %s.0, 0:Index, 1:Index, 2:Index
  mut.swap2 %s.0, 0:Index, 1:Index, %t.1, 0:Index
  %as.8 = new Assoc<i64, i64>
  %10 = mut.split %s.0, 0:Index, 1:Index
  %11 = call @f(%as.8, %t.1, null:T0, 0:Index)
  ret 
}
";

    #[test]
    fn every_instruction_kind_round_trips() {
        let m = parse_module(EVERY_KIND).unwrap_or_else(|e| panic!("{e}"));
        crate::verifier::assert_valid(&m);
        assert_eq!(print_module(&m), EVERY_KIND);
        let kinds: std::collections::HashSet<_> = m
            .funcs
            .iter()
            .flat_map(|(_, f)| f.insts.iter().map(|(_, i)| std::mem::discriminant(&i.kind)))
            .collect();
        assert_eq!(kinds.len(), 41);
    }

    /// Wraps `insts` as the body of `fn f() -> (i64)`; its first line is
    /// line 4.
    fn in_body(insts: &str) -> Result<Module, ParseError> {
        parse_module(&format!(
            "module m\nfn f() -> (i64) form=ssa {{\nentry.0:\n{insts}\n}}\n"
        ))
    }

    /// Printer output the reader used to panic on, reject, or rename.
    #[test]
    fn printed_edge_values_read_back() {
        for src in [
            "module m\n\nfn f() -> (i64) form=ssa {\nentry.0:\n  ret -9223372036854775808:I64\n}\n",
            "module m\n\nfn f() -> (f64) form=ssa {\nentry.0:\n  ret -inf:F64\n}\n",
            "module fuzz-multi\n\nfn f() -> (f64) form=ssa {\nentry.0:\n  ret NaN:F64\n}\n",
        ] {
            let m = parse_module(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(print_module(&m), src);
        }
    }

    #[test]
    fn malformed_instructions_are_errors_on_their_line() {
        for (insts, line) in [
            ("  %1 = new Seq<i64>(0:Index)\n  size %1\n  ret 0:I64", 5),
            ("  phi i64 [entry.0: 0:I64]\n  ret 0:I64", 4),
            (
                "  %1 = new Seq<i64>(0:Index)\n  %2, %3 = size %1\n  ret %2",
                5,
            ),
            ("  ret %9", 4),
            ("  ret -18446744073709551615:I64", 4),
            ("  %1 = add %2, 1:I64\n  %2 = add %1, 1:I64\n  ret %2", 5),
            ("  %1 = read 1:I64, 0:Index\n  ret %1", 4),
            (
                "  %1 = add 1:I64, 1:I64\n  %1 = add 1:I64, 2:I64\n  ret %1",
                5,
            ),
        ] {
            let err = in_body(insts).map(|m| print_module(&m)).unwrap_err();
            assert_eq!(err.line, line, "{insts}: {err}");
        }
        let deep = format!(
            "  %1 = new {}i64{}(0:Index)",
            "Seq<".repeat(99),
            ">".repeat(99)
        );
        assert_eq!(in_body(&deep).unwrap_err().line, 4);
    }

    #[test]
    fn parse_error_reports_line() {
        let err = parse_module("module m\nfn f() -> () form=ssa {\nentry.0:\n  bogus_op\n}\n")
            .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("bogus_op"));
    }
}
