//! Call graph construction and recursion groups.

use memoir_ir::{Callee, FuncId, InstId, InstKind, Module};
use std::collections::{HashMap, HashSet};

/// A call site: caller function and the call instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CallSite {
    /// Calling function.
    pub caller: FuncId,
    /// The call instruction inside the caller.
    pub inst: InstId,
}

/// The module call graph.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Direct callees of each function (module functions only).
    pub callees: HashMap<FuncId, Vec<FuncId>>,
    /// Call sites targeting each function.
    pub callers: HashMap<FuncId, Vec<CallSite>>,
    /// Functions that call at least one extern with unknown effects.
    pub calls_opaque: HashSet<FuncId>,
    /// Strongly-connected components in reverse topological order
    /// (leaves first), members in ascending id order
    /// ([`passman::graph::sccs`]). Functions in a component of size > 1
    /// (or with a self-edge) are (mutually) recursive.
    pub sccs: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the call graph of a module.
    pub fn compute(m: &Module) -> Self {
        let n = m.funcs.len();
        let mut callees: HashMap<FuncId, Vec<FuncId>> = HashMap::new();
        let mut callers: HashMap<FuncId, Vec<CallSite>> = HashMap::new();
        let mut calls_opaque = HashSet::new();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];

        for (fid, f) in m.funcs.iter() {
            let entry = callees.entry(fid).or_default();
            for (_, i) in f.inst_ids_in_order() {
                if let InstKind::Call { callee, .. } = &f.insts[i].kind {
                    match callee {
                        Callee::Func(target) => {
                            entry.push(*target);
                            adj[fid.index()].push(target.index());
                            callers.entry(*target).or_default().push(CallSite {
                                caller: fid,
                                inst: i,
                            });
                        }
                        Callee::Extern(eid) => {
                            if m.externs[*eid].effects.opaque {
                                calls_opaque.insert(fid);
                            }
                        }
                    }
                }
            }
        }
        let sccs = passman::graph::sccs(n, &|v| &adj[v])
            .into_iter()
            .map(|comp| {
                comp.into_iter()
                    .map(|i| FuncId::from_raw(i as u32))
                    .collect()
            })
            .collect();
        CallGraph {
            callees,
            callers,
            calls_opaque,
            sccs,
        }
    }

    /// Whether a function is directly or mutually recursive.
    pub fn is_recursive(&self, f: FuncId) -> bool {
        for comp in &self.sccs {
            if comp.contains(&f) {
                return comp.len() > 1 || self.callees.get(&f).is_some_and(|c| c.contains(&f));
            }
        }
        false
    }

    /// Call sites of a function.
    pub fn call_sites_of(&self, f: FuncId) -> &[CallSite] {
        self.callers.get(&f).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memoir_ir::{Form, Function, ModuleBuilder};

    fn call_module() -> memoir_ir::Module {
        let mut mb = ModuleBuilder::new("m");
        // qsort (self-recursive), master calls qsort.
        let qsort_sig = Function::new("qsort", Form::Ssa);
        let qsort_id = mb.module.add_func(qsort_sig);
        {
            let f = &mut mb.module.funcs[qsort_id];
            let entry = f.entry;
            f.append_inst(
                entry,
                InstKind::Call {
                    callee: Callee::Func(qsort_id),
                    args: vec![],
                },
                &[],
            );
            f.append_inst(entry, InstKind::Ret { values: vec![] }, &[]);
        }
        mb.func("master", Form::Ssa, |b| {
            b.call(Callee::Func(qsort_id), vec![], &[]);
            b.ret(vec![]);
        });
        mb.finish()
    }

    #[test]
    fn recursion_detected() {
        let m = call_module();
        let cg = CallGraph::compute(&m);
        let qsort = m.func_by_name("qsort").unwrap();
        let master = m.func_by_name("master").unwrap();
        assert!(cg.is_recursive(qsort));
        assert!(!cg.is_recursive(master));
        assert_eq!(cg.call_sites_of(qsort).len(), 2); // self + master
    }

    #[test]
    fn scc_order_is_leaves_first() {
        let m = call_module();
        let cg = CallGraph::compute(&m);
        let qsort = m.func_by_name("qsort").unwrap();
        // qsort (leaf SCC) must come before master.
        assert!(cg.sccs[0].contains(&qsort));
    }
}
