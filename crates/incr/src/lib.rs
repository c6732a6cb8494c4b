//! The incremental derivation graph: function-granular content
//! addressing for verification artifacts.
//!
//! The PR 4 analysis cache keys on the whole resolved program, so a
//! one-line edit of a 50-function program is a total miss. This crate
//! supplies the node keys of a salsa-style derivation graph instead:
//!
//! ```text
//! fn body text ──fn_key──▶ parsed AST ──▶ lowered CFA ──cfa_key──▶
//!     dataflow fixpoints (Mods / WrBt / By) ──▶
//!     per-cluster dependency set ──dep_key──▶ cluster verdict, reuse
//!     gated on its certificate
//! ```
//!
//! Every derived artifact is memoized against the keys of *exactly the
//! inputs it read*, so `blastlite::Session::update` can answer "which
//! clusters did this edit invalidate?" and reuse everything else.
//!
//! Two properties carry the soundness argument:
//!
//! 1. **Keys are name-resolved, not id-resolved.** [`cfa_key`] hashes
//!    edges through `Program::fmt_op` (source-level names) plus each
//!    referenced variable's `(name, kind, length)`, never a raw
//!    [`VarId`](cfa::VarId) or [`FuncId`] index — so keys survive the id
//!    renumbering that any edit induces during re-lowering.
//! 2. **Dependency sets are control-closed.** [`cluster_deps`] includes
//!    not just the cluster function's callers and callees but every
//!    function a path from `main`'s entry can *enter before* reaching
//!    the cluster (a preceding callee can block the path — e.g. by not
//!    terminating — or change global state, even when its `Mods` set is
//!    disjoint from everything the cluster reads). Equal [`dep_key`]s
//!    therefore imply the checker explores bisimilar state spaces and
//!    the old verdict, slice, and refinement trace transplant verbatim.

pub mod hash;

use cfa::{Cfa, FuncId, Op, Program, VarKind};
use dataflow::Analyses;
use std::collections::BTreeSet;

/// The content identity of one function definition, before lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnShape {
    /// The function's source name (stable across edits; the graph's
    /// join key between program versions).
    pub name: String,
    /// [`hash::fn_key`] of the definition text.
    pub key: u64,
}

/// The content identity of a whole parsed program, split into the parts
/// the derivation graph keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    key: u64,
    skeleton: u64,
    fns: Vec<FnShape>,
}

impl Shape {
    /// Computes the shape of a parsed program.
    pub fn of_ast(ast: &imp::ast::Program) -> Shape {
        let mut sk = hash::Fnv::new();
        sk.write_u64(1); // section: globals
        for g in &ast.globals {
            sk.write_frame(g.as_bytes());
        }
        sk.write_u64(2); // section: arrays
        for (name, len) in &ast.arrays {
            sk.write_frame(name.as_bytes());
            sk.write_u64(*len as u64);
        }
        sk.write_u64(3); // section: function signatures
        for f in &ast.functions {
            sk.write_frame(f.name.as_bytes());
            sk.write_u64(f.params.len() as u64);
            for p in &f.params {
                sk.write_frame(p.as_bytes());
            }
            sk.write_u64(f.locals.len() as u64);
            for l in &f.locals {
                sk.write_frame(l.as_bytes());
            }
        }
        Shape {
            key: hash::ast_key(ast),
            skeleton: sk.finish(),
            fns: ast
                .functions
                .iter()
                .map(|f| FnShape {
                    name: f.name.clone(),
                    key: hash::fn_key(f),
                })
                .collect(),
        }
    }

    /// The whole-program content key ([`hash::ast_key`]) — identical to
    /// `Session::key` and the journal record key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The *skeleton* key: globals, arrays, and every function's name,
    /// parameters, and local declarations — everything except function
    /// bodies. Two versions with equal skeletons declare the same
    /// storage and the same call targets, which is the precondition for
    /// function-granular diffing (`Session::update`).
    pub fn skeleton(&self) -> u64 {
        self.skeleton
    }

    /// Per-function shapes, in source order.
    pub fn fns(&self) -> &[FnShape] {
        &self.fns
    }

    /// The names of functions whose bodies differ from `old`, or `None`
    /// when the skeletons differ (a declaration-level change: the edit
    /// cannot be localized to function bodies and the caller must fall
    /// back to a cold build).
    pub fn changed_since(&self, old: &Shape) -> Option<Vec<String>> {
        if self.skeleton != old.skeleton || self.fns.len() != old.fns.len() {
            return None;
        }
        Some(
            self.fns
                .iter()
                .zip(&old.fns)
                .filter(|(n, o)| n.key != o.key)
                .map(|(n, _)| n.name.clone())
                .collect(),
        )
    }
}

/// The structural key of one lowered CFA: every edge's shape with its
/// operation rendered through source-level names, plus the `(name,
/// kind, length)` of every storage cell the operation touches.
///
/// Deliberately *name*-resolved: re-lowering an edited program renumbers
/// `VarId`s and `FuncId`s globally, and this key must agree between an
/// old and a new program exactly when the function's control flow and
/// semantics are untouched by the edit.
pub fn cfa_key(program: &Program, cfa: &Cfa) -> u64 {
    let mut h = hash::Fnv::new();
    h.write_frame(cfa.name().as_bytes());
    h.write_u64(cfa.n_locs() as u64);
    h.write_u64(cfa.entry().idx as u64);
    h.write_u64(cfa.exit().idx as u64);
    h.write_u64(cfa.error_locs().len() as u64);
    for &err in cfa.error_locs() {
        h.write_u64(err.idx as u64);
    }
    for &p in cfa.params() {
        h.write_frame(program.vars().name(p).as_bytes());
    }
    for &l in cfa.locals() {
        h.write_frame(program.vars().name(l).as_bytes());
    }
    for e in cfa.edges() {
        h.write_u64(e.src.idx as u64);
        h.write_u64(e.dst.idx as u64);
        h.write_frame(program.fmt_op(&e.op).as_bytes());
        // The rendered op resolves names, but two distinct cells can
        // print alike (e.g. a local shadowing nothing vs. a global in
        // another version); fold each referenced cell's identity too.
        let mut vars: Vec<cfa::VarId> = e.op.reads().iter().map(|lv| lv.base()).collect();
        if let Some(w) = e.op.write() {
            vars.push(w.base());
        }
        vars.sort();
        vars.dedup();
        for v in vars {
            h.write_frame(program.vars().name(v).as_bytes());
            match program.vars().kind(v) {
                VarKind::Global => h.write_u64(0),
                VarKind::Local(_) => h.write_u64(1),
                VarKind::Array(n) => {
                    h.write_u64(2);
                    h.write_u64(n as u64);
                }
            }
        }
    }
    h.finish()
}

/// [`cfa_key`] for every function of `program`, indexed by
/// [`FuncId::index`].
pub fn function_keys(program: &Program) -> Vec<u64> {
    program.cfas().iter().map(|c| cfa_key(program, c)).collect()
}

/// A fingerprint of the whole-program pointer analysis. Alias facts are
/// global (one address-taken site anywhere widens `pts` everywhere), so
/// per-cluster keys fold this in rather than trying to localize it.
/// Only ever compared between two in-process `Analyses` over programs
/// with equal skeletons (identical variable tables), never persisted.
pub fn alias_fingerprint(analyses: &Analyses<'_>) -> u64 {
    hash::fnv64(format!("{:?}", analyses.alias()).as_bytes())
}

/// The sound dependency set of the check cluster rooted at `f`: every
/// function whose body can influence the cluster's verdict. The
/// abstract reachability run for cluster `f` starts at `main`'s entry
/// and targets the error locations *of `f`*, so the set is:
///
/// - `f` itself and its transitive callees (they execute under the
///   target),
/// - `f`'s transitive callers (the path runs through their bodies),
/// - and, for every function `h` on that caller chain, the transitive
///   callees of every call that can execute *before* the path descends
///   toward `f` — concretely, a call edge `c` in `h` counts when a
///   *chain call* (a call to another ancestor) is intraprocedurally
///   reachable from `c`'s return location, or, for `h = f` itself, when
///   one of `f`'s error locations is.
///
/// The preceding-call rule is deliberately control-based rather than
/// data-based: a preceding callee with a `Mods` set disjoint from
/// everything the cluster reads can still decide the verdict (an
/// `assume(false)` or non-terminating loop inside it blocks the path
/// entirely), so pruning by write sets would be unsound — and the
/// certificate gate could not catch a wrongly-reused *Bug* verdict
/// whose witness path no longer exists.
///
/// Returned sorted by [`FuncId`]; equal member name sets with equal
/// per-member [`cfa_key`]s (see [`dep_key`]) imply the checker explores
/// the same state space and the prior verdict can be transplanted.
pub fn cluster_deps(analyses: &Analyses<'_>, f: FuncId) -> Vec<FuncId> {
    let cg = analyses.callgraph();
    let program = analyses.program();

    // anc: f plus its transitive callers (the descent chain from main).
    let mut anc: BTreeSet<FuncId> = BTreeSet::new();
    let mut work = vec![f];
    while let Some(g) = work.pop() {
        if anc.insert(g) {
            work.extend(cg.callers(g).iter().copied());
        }
    }

    let mut members: BTreeSet<FuncId> = anc.clone();
    // Membership alone cannot bound this walk: a callee may already be
    // a member as an *ancestor* without its own callees being closed
    // over, so each walk tracks its own visited set.
    let add_desc = |members: &mut BTreeSet<FuncId>, k: FuncId| {
        let mut seen: BTreeSet<FuncId> = BTreeSet::new();
        let mut work = vec![k];
        while let Some(g) = work.pop() {
            if seen.insert(g) {
                members.insert(g);
                work.extend(cg.callees(g).iter().copied());
            }
        }
    };
    // f's own callees always execute under the target.
    add_desc(&mut members, f);

    for &h in &anc {
        let cfa = program.cfa(h);
        // Chain calls in h: calls to other ancestors (the edges the
        // path must take to keep descending toward f). For h = f the
        // set is empty (callees of f cannot be ancestors of f in a
        // recursion-free program) and the error locations take over as
        // the "must still get there" targets.
        let chain: Vec<u32> = (0..cfa.edges().len() as u32)
            .filter(|&ei| match cfa.edge(ei).op {
                Op::Call(g) => anc.contains(&g),
                _ => false,
            })
            .collect();
        for ei in 0..cfa.edges().len() as u32 {
            let e = cfa.edge(ei);
            let Op::Call(k) = e.op else { continue };
            let precedes_chain = chain
                .iter()
                .any(|&ce| ce != ei && analyses.edge_reachable_from(e.dst, ce));
            let precedes_error = h == f
                && cfa
                    .error_locs()
                    .iter()
                    .any(|&err| analyses.reaches(e.dst, err));
            if precedes_chain || precedes_error {
                add_desc(&mut members, k);
            }
        }
    }
    members.into_iter().collect()
}

/// The memo key of one cluster verdict: the dependency set's member
/// names with their structural [`cfa_key`]s, plus the program's alias
/// fingerprint. Two program versions assigning equal `dep_key`s to a
/// cluster are indistinguishable to its check, so the stored verdict —
/// outcome, slice, refinement rounds, certificate — is valid verbatim
/// (edge and location ids transplant because the member CFAs are
/// structurally identical).
pub fn dep_key(program: &Program, fn_keys: &[u64], members: &[FuncId], alias_fp: u64) -> u64 {
    let mut h = hash::Fnv::new();
    h.write_u64(alias_fp);
    h.write_u64(members.len() as u64);
    for &m in members {
        h.write_frame(program.cfa(m).name().as_bytes());
        h.write_u64(fn_keys[m.index()]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(src: &str) -> Program {
        cfa::lower(&imp::parse(src).unwrap()).unwrap()
    }

    fn fid(p: &Program, name: &str) -> FuncId {
        p.func_id(name).unwrap()
    }

    fn dep_names(p: &Program, a: &Analyses<'_>, f: &str) -> Vec<String> {
        cluster_deps(a, fid(p, f))
            .into_iter()
            .map(|g| p.cfa(g).name().to_owned())
            .collect()
    }

    const DISPATCH: &str = "global s;\n\
        fn f1() { local a; a = 1; if (a < 1) { error(); } }\n\
        fn f2() { local b; b = 2; if (b < 2) { error(); } }\n\
        fn main() { s = nondet(); if (s > 0) { f1(); } else { f2(); } }\n";

    #[test]
    fn shape_diff_names_edited_functions() {
        let a = Shape::of_ast(&imp::parse(DISPATCH).unwrap());
        let b = Shape::of_ast(&imp::parse(&DISPATCH.replace("b = 2", "b = 3")).unwrap());
        assert_eq!(a.skeleton(), b.skeleton());
        assert_ne!(a.key(), b.key());
        assert_eq!(b.changed_since(&a).unwrap(), vec!["f2".to_owned()]);
        assert_eq!(a.changed_since(&a).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn shape_diff_rejects_declaration_changes() {
        let a = Shape::of_ast(&imp::parse(DISPATCH).unwrap());
        let b = Shape::of_ast(&imp::parse(&DISPATCH.replace("local b;", "local b, c;")).unwrap());
        assert_eq!(b.changed_since(&a), None, "locals are skeleton");
        let c = Shape::of_ast(&imp::parse(&format!("global t;\n{DISPATCH}")).unwrap());
        assert_eq!(c.changed_since(&a), None, "globals are skeleton");
    }

    #[test]
    fn cfa_key_survives_id_renumbering() {
        // Adding a function *before* f1 shifts every FuncId and VarId,
        // but f1's structural key must not move.
        let p = lower(DISPATCH);
        let q = lower(&format!(
            "global s;\nfn pre() {{ local z; z = 9; }}\n{}",
            &DISPATCH["global s;\n".len()..]
        ));
        assert_eq!(
            cfa_key(&p, p.cfa(fid(&p, "f1"))),
            cfa_key(&q, q.cfa(fid(&q, "f1")))
        );
        // While an edited body does move it.
        let r = lower(&DISPATCH.replace("a = 1", "a = 2"));
        assert_ne!(
            cfa_key(&p, p.cfa(fid(&p, "f1"))),
            cfa_key(&r, r.cfa(fid(&r, "f1")))
        );
    }

    #[test]
    fn dispatcher_clusters_are_independent() {
        let p = lower(DISPATCH);
        let a = Analyses::build(&p);
        // Sibling branches: the call to f2 cannot reach the chain call
        // to f1, so f2 is not a dependency of f1's cluster (and vice
        // versa) — one edit invalidates exactly one cluster.
        assert_eq!(dep_names(&p, &a, "f1"), ["f1", "main"]);
        assert_eq!(dep_names(&p, &a, "f2"), ["f2", "main"]);
    }

    #[test]
    fn sequential_calls_invalidate_suffixes() {
        let p = lower(
            "global g;\n\
             fn f1() { g = 1; if (g < 1) { error(); } }\n\
             fn f2() { if (g > 0) { error(); } }\n\
             fn main() { f1(); f2(); }\n",
        );
        let a = Analyses::build(&p);
        // f1 runs before the chain call to f2: it is in f2's set.
        assert_eq!(dep_names(&p, &a, "f2"), ["f1", "f2", "main"]);
        // Nothing precedes the chain call to f1.
        assert_eq!(dep_names(&p, &a, "f1"), ["f1", "main"]);
    }

    #[test]
    fn preceding_call_pulls_in_its_descendants() {
        let p = lower(
            "global g;\n\
             fn leaf() { g = 1; }\n\
             fn pre() { leaf(); }\n\
             fn tgt() { if (g > 0) { error(); } }\n\
             fn main() { pre(); tgt(); }\n",
        );
        let a = Analyses::build(&p);
        assert_eq!(dep_names(&p, &a, "tgt"), ["leaf", "pre", "tgt", "main"]);
    }

    #[test]
    fn call_preceding_error_inside_cluster_counts() {
        // The call to h precedes f's own error location (h == f case of
        // the preceding rule), even though h is not f's ancestor.
        let p = lower(
            "global g;\n\
             fn h() { g = 5; }\n\
             fn f() { h(); if (g > 0) { error(); } }\n\
             fn main() { f(); }\n",
        );
        let a = Analyses::build(&p);
        assert_eq!(dep_names(&p, &a, "f"), ["h", "f", "main"]);
    }

    #[test]
    fn dep_key_moves_only_with_members() {
        let old = lower(DISPATCH);
        let new = lower(&DISPATCH.replace("b = 2", "b = 3"));
        let (oa, na) = (Analyses::build(&old), Analyses::build(&new));
        let (ok, nk) = (function_keys(&old), function_keys(&new));
        let (ofp, nfp) = (alias_fingerprint(&oa), alias_fingerprint(&na));
        let key = |p: &Program, a: &Analyses<'_>, ks: &[u64], fp, f: &str| {
            dep_key(p, ks, &cluster_deps(a, fid(p, f)), fp)
        };
        // f1's cluster does not contain f2: its key is stable across
        // the edit. f2's own cluster key moves.
        assert_eq!(
            key(&old, &oa, &ok, ofp, "f1"),
            key(&new, &na, &nk, nfp, "f1")
        );
        assert_ne!(
            key(&old, &oa, &ok, ofp, "f2"),
            key(&new, &na, &nk, nfp, "f2")
        );
    }
}
