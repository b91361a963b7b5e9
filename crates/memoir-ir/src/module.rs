//! Modules: the compilation unit holding functions, externs, and types.

use crate::ids::{ExternId, FuncId, IdMap, TypeId};
use crate::{Callee, Form, Function, TypeTable};

/// Summarized effects of an external (unknown) function, used under partial
/// compilation (§V): externally visible behaviour must be assumed where not
/// summarized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExternEffects {
    /// May read collection arguments.
    pub reads_args: bool,
    /// May mutate collection arguments.
    pub writes_args: bool,
    /// Has effects beyond its arguments (I/O, globals).
    pub opaque: bool,
}

impl ExternEffects {
    /// A pure summarized computation (like the paper's `check_cost` /
    /// `check_opt`): reads its arguments, no side effects.
    pub fn pure_reader() -> Self {
        ExternEffects {
            reads_args: true,
            writes_args: false,
            opaque: false,
        }
    }

    /// Fully unknown code: assume everything.
    pub fn unknown() -> Self {
        ExternEffects {
            reads_args: true,
            writes_args: true,
            opaque: true,
        }
    }

    /// The summaries an `extern` line spells, by keyword, widest first.
    pub const KEYWORDS: [(&'static str, ExternEffects); 4] = [
        ("opaque", ExternEffects::effects(true, true, true)),
        ("writes", ExternEffects::effects(true, true, false)),
        ("pure", ExternEffects::effects(true, false, false)),
        ("const", ExternEffects::effects(false, false, false)),
    ];

    const fn effects(reads_args: bool, writes_args: bool, opaque: bool) -> Self {
        ExternEffects {
            reads_args,
            writes_args,
            opaque,
        }
    }

    /// The keyword of the narrowest spelled summary covering this one.
    pub fn keyword(self) -> &'static str {
        let covers = |k: &ExternEffects| {
            (k.opaque || !self.opaque)
                && (k.writes_args || !self.writes_args)
                && (k.reads_args || !self.reads_args)
        };
        ExternEffects::KEYWORDS
            .iter()
            .rev()
            .find(|(_, k)| covers(k))
            .map_or("opaque", |(word, _)| word)
    }
}

/// Declaration of an external function.
#[derive(Clone, Debug)]
pub struct ExternDecl {
    /// Symbol name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<TypeId>,
    /// Return types.
    pub ret_tys: Vec<TypeId>,
    /// Effect summary.
    pub effects: ExternEffects,
}

/// A MEMOIR module.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Type table (interned types + object type definitions).
    pub types: TypeTable,
    /// Function definitions.
    pub funcs: IdMap<FuncId, Function>,
    /// External declarations.
    pub externs: IdMap<ExternId, ExternDecl>,
    /// The designated entry function, if any (used by the interpreter and
    /// by transformations that thread state from "the beginning of the
    /// program's entry function", §V).
    pub entry: Option<FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(f)
    }

    /// Declares an external function.
    pub fn add_extern(&mut self, decl: ExternDecl) -> ExternId {
        self.externs.push(decl)
    }

    /// The return types of a call's target.
    pub fn ret_tys(&self, callee: Callee) -> &[TypeId] {
        match callee {
            Callee::Func(id) => &self.funcs[id].ret_tys,
            Callee::Extern(id) => &self.externs[id].ret_tys,
        }
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .find(|(_, f)| f.name == name)
            .map(|(id, _)| id)
    }

    /// Total reachable instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|(_, f)| f.live_inst_count()).sum()
    }

    /// Module-wide collection census: the paper's Table III counts.
    pub fn collection_census(&self) -> CollectionCensus {
        let mut census = CollectionCensus::default();
        for (_, f) in self.funcs.iter() {
            census.allocations += f.collection_allocations();
            census.ssa_variables += f.collection_values(&self.types);
        }
        census
    }

    /// Whether every function is in the given form.
    pub fn all_in_form(&self, form: Form) -> bool {
        self.funcs.iter().all(|(_, f)| f.form == form)
    }
}

/// MEMOIR modules can be driven by the generic `passman` pass-manager
/// framework; functions are keyed by [`FuncId`] and detach from the
/// module shell (name, types, externs, entry stay behind), enabling
/// function-sharded passes and per-function copy-on-write snapshots.
impl passman::IrUnit for Module {
    type FuncKey = FuncId;
    type Func = Function;

    fn func_keys(&self) -> Vec<FuncId> {
        self.funcs.ids().collect()
    }

    fn size_hint(&self) -> usize {
        self.inst_count()
    }

    fn fingerprints(&self) -> Vec<(FuncId, passman::Fingerprint)> {
        crate::fingerprint::module_fingerprints(self)
    }

    fn detach_funcs(&mut self) -> Vec<(FuncId, Function)> {
        self.funcs.take_entries()
    }

    fn attach_funcs(&mut self, funcs: Vec<(FuncId, Function)>) {
        debug_assert!(self.funcs.is_empty(), "attach over detached shell only");
        for (id, f) in funcs {
            let got = self.funcs.push(f);
            debug_assert_eq!(got, id, "functions must re-attach in id order");
        }
    }

    fn clone_func(&self, key: FuncId) -> Function {
        self.funcs[key].clone()
    }

    fn restore_func(&mut self, key: FuncId, func: Function) {
        self.funcs[key] = func;
    }

    fn func_size_hint(&self, key: FuncId) -> usize {
        self.funcs[key].live_inst_count()
    }
}

/// Module-wide collection statistics (Table III's "# Collections").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectionCensus {
    /// Collection-allocating operations (`new`, `copy`, `split`, `keys`) —
    /// the paper's "Source"/"Binary" columns count these.
    pub allocations: usize,
    /// Collection-typed SSA variables — the paper's "SSA" column.
    pub ssa_variables: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Form, Function};

    #[test]
    fn func_lookup_by_name() {
        let mut m = Module::new("m");
        let id = m.add_func(Function::new("qsort", Form::Mut));
        assert_eq!(m.func_by_name("qsort"), Some(id));
        assert_eq!(m.func_by_name("missing"), None);
    }

    #[test]
    fn extern_effects_presets() {
        let p = ExternEffects::pure_reader();
        assert!(p.reads_args && !p.writes_args && !p.opaque);
        let u = ExternEffects::unknown();
        assert!(u.reads_args && u.writes_args && u.opaque);
    }

    #[test]
    fn form_query() {
        let mut m = Module::new("m");
        m.add_func(Function::new("a", Form::Mut));
        assert!(m.all_in_form(Form::Mut));
        m.add_func(Function::new("b", Form::Ssa));
        assert!(!m.all_in_form(Form::Mut));
        assert!(!m.all_in_form(Form::Ssa));
    }
}
