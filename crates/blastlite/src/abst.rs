//! Predicate pools, tri-state valuations, and the abstract post.

use cfa::{CBool, Op, Program};
use dataflow::Analyses;
use lia::{Formula, SatResult, Solver};
use semantics::wp::{cbool_to_formula, wp_bool};
use std::collections::HashMap;

/// A tri-state predicate valuation: one entry per pool predicate.
/// `1` = known true, `-1` = known false, `0` = unknown.
pub type Valuation = Vec<i8>;

/// The set of abstraction predicates, with their [`lia`] encodings.
///
/// Only pointer-free linear predicates are admitted (others cannot be
/// reasoned about by the solver and would stay permanently unknown).
#[derive(Debug)]
pub struct PredicatePool {
    preds: Vec<CBool>,
    formulas: Vec<Formula>,
    /// Per predicate: `Some(f)` if it mentions a local of `f` (tracked
    /// only inside `f` when scoping is enabled); `None` for predicates
    /// over globals, tracked everywhere.
    scopes: Vec<Option<cfa::FuncId>>,
    solver: Solver,
    /// Cache of assume-consistency checks.
    consistent_cache: HashMap<(Valuation, u64), bool>,
}

/// A conservative hash key for formulas (used only for caching; collisions
/// only cost duplicated solver work — results are keyed by full
/// valuations too, and formulas come from a small per-program set of
/// edges, so the 64-bit FNV of the debug rendering is ample).
fn formula_key(f: &Formula) -> u64 {
    let s = format!("{f}");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl PredicatePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        PredicatePool {
            preds: Vec::new(),
            formulas: Vec::new(),
            scopes: Vec::new(),
            solver: Solver::new(),
            consistent_cache: HashMap::new(),
        }
    }

    /// The scope of predicate `i` (see [`PredicatePool::add_scoped`]).
    pub fn scope(&self, i: usize) -> Option<cfa::FuncId> {
        self.scopes[i]
    }

    /// Adds a predicate with its scope computed from `program`'s
    /// variable table: predicates reading any local of `f` are scoped to
    /// `f`; all-global predicates are unscoped. Returns whether the pool
    /// grew.
    pub fn add_scoped(&mut self, program: &Program, p: CBool) -> bool {
        let mut reads = Vec::new();
        p.collect_reads(&mut reads);
        let mut scope = None;
        for lv in &reads {
            if let cfa::VarKind::Local(f) = program.vars().kind(lv.base()) {
                scope = Some(f);
            }
        }
        self.add_inner(p, scope)
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Adds a predicate if it is new and expressible (unscoped — tracked
    /// everywhere); returns whether the pool grew.
    pub fn add(&mut self, p: CBool) -> bool {
        self.add_inner(p, None)
    }

    fn add_inner(&mut self, p: CBool, scope: Option<cfa::FuncId>) -> bool {
        if matches!(p, CBool::True | CBool::False) {
            return false;
        }
        let Some(f) = cbool_to_formula(&p) else {
            return false;
        };
        if self.preds.contains(&p) {
            return false;
        }
        self.preds.push(p);
        self.formulas.push(f);
        self.scopes.push(scope);
        // Valuations change shape: old cache entries are keyed by
        // shorter valuations and can never be hit again, but clear them
        // to bound memory.
        self.consistent_cache.clear();
        true
    }

    /// The all-unknown valuation.
    pub fn top(&self) -> Valuation {
        vec![0; self.preds.len()]
    }

    /// Forces predicates scoped to functions other than `f` to unknown —
    /// the lazy-abstraction-style locality of BLAST [17 in the paper's
    /// bibliography]: facts about one function's locals are not carried
    /// through other functions' exploration, shrinking the abstract
    /// state space. Sound (unknown over-approximates).
    pub fn mask_for(&self, vals: &mut Valuation, f: cfa::FuncId) {
        for (i, s) in self.scopes.iter().enumerate() {
            if let Some(g) = s {
                if *g != f {
                    vals[i] = 0;
                }
            }
        }
    }

    /// The conjunction of the known predicate values.
    fn state_formula(&self, vals: &Valuation) -> Formula {
        let mut parts = Vec::new();
        for (i, &v) in vals.iter().enumerate() {
            match v {
                1 => parts.push(self.formulas[i].clone()),
                -1 => parts.push(Formula::not(self.formulas[i].clone())),
                _ => {}
            }
        }
        Formula::And(parts)
    }

    /// Does `state ∧ extra ⟹ target` hold (positive) or
    /// `state ∧ extra ⟹ ¬target` (negative)? Unsat-based.
    fn entails(
        &mut self,
        vals: &Valuation,
        extra: &Formula,
        target_idx: usize,
        positive: bool,
    ) -> bool {
        let target = if positive {
            Formula::not(self.formulas[target_idx].clone())
        } else {
            self.formulas[target_idx].clone()
        };
        let q = Formula::and(
            Formula::and(self.state_formula(vals), extra.clone()),
            target,
        );
        self.solver.check(&q).is_unsat()
    }

    /// Abstract post across an `assume(p)` edge: `None` if the branch is
    /// inconsistent with the known predicates (pruned), otherwise the
    /// strengthened valuation.
    pub fn post_assume(&mut self, vals: &Valuation, p: &CBool) -> Option<Valuation> {
        let Some(pf) = cbool_to_formula(p) else {
            // Unexpressible condition: no pruning, no strengthening.
            return Some(vals.clone());
        };
        let ckey = (vals.clone(), formula_key(&pf));
        let consistent = match self.consistent_cache.get(&ckey) {
            Some(&c) => c,
            None => {
                let q = Formula::and(self.state_formula(vals), pf.clone());
                let c = match self.solver.check(&q) {
                    SatResult::Unsat => false,
                    SatResult::Sat(_) | SatResult::Unknown => true,
                };
                self.consistent_cache.insert(ckey, c);
                c
            }
        };
        if !consistent {
            return None;
        }
        let mut out = vals.clone();
        // (indexing, not iterating: `entails` borrows `self` mutably)
        #[allow(clippy::needless_range_loop)]
        for i in 0..out.len() {
            if out[i] != 0 {
                continue;
            }
            if self.entails(vals, &pf, i, true) {
                out[i] = 1;
            } else if self.entails(vals, &pf, i, false) {
                out[i] = -1;
            }
        }
        Some(out)
    }

    /// Abstract post across an assignment/havoc/call/return operation.
    pub fn post_op(&mut self, analyses: &Analyses<'_>, vals: &Valuation, op: &Op) -> Valuation {
        match op {
            Op::Assume(_) => unreachable!("assumes go through post_assume"),
            Op::Call(_) | Op::Return => return vals.clone(),
            _ => {}
        }
        // Which cells may this op write?
        let written = match op.write() {
            Some(lv) => analyses.alias().may_write_cells(lv),
            None => return vals.clone(),
        };
        let mut out = vec![0i8; self.preds.len()];
        for i in 0..self.preds.len() {
            // Fast path: predicate reads no written cell → unchanged.
            let mut reads = Vec::new();
            self.preds[i].collect_reads(&mut reads);
            let read_cells = analyses.cells_of(reads.iter());
            if !read_cells.intersects(&written) {
                out[i] = vals[i];
                continue;
            }
            match wp_bool(&self.preds[i], op) {
                None => out[i] = 0,
                Some(wpp) => {
                    let Some(wpf) = cbool_to_formula(&wpp) else {
                        out[i] = 0;
                        continue;
                    };
                    // state ⟹ wp(p) → p' true; state ⟹ ¬wp(p) → p' false.
                    let q_true = Formula::and(self.state_formula(vals), Formula::not(wpf.clone()));
                    let q_false = Formula::and(self.state_formula(vals), wpf);
                    if self.solver.check(&q_true).is_unsat() {
                        out[i] = 1;
                    } else if self.solver.check(&q_false).is_unsat() {
                        out[i] = -1;
                    } else {
                        out[i] = 0;
                    }
                }
            }
        }
        out
    }
}

impl Default for PredicatePool {
    fn default() -> Self {
        Self::new()
    }
}

/// Collects the atomic comparisons of a condition as candidate
/// predicates.
pub fn atoms_of(p: &CBool, out: &mut Vec<CBool>) {
    match p {
        CBool::True | CBool::False => {}
        CBool::Cmp(..) => out.push(p.clone()),
        CBool::Not(i) => atoms_of(i, out),
        CBool::And(a, b) | CBool::Or(a, b) => {
            atoms_of(a, out);
            atoms_of(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfa::{CExpr, CLval};
    use imp::ast::CmpOp;

    fn prog(src: &str) -> Program {
        cfa::lower(&imp::parse(src).unwrap()).unwrap()
    }

    fn cmp(op: CmpOp, v: cfa::VarId, k: i64) -> CBool {
        CBool::Cmp(op, CExpr::Lval(CLval::Var(v)), CExpr::Int(k))
    }

    #[test]
    fn assume_prunes_contradictions() {
        let p = prog("global x; fn main() { assume(x > 0); }");
        let x = p.vars().lookup("x").unwrap();
        let mut pool = PredicatePool::new();
        assert!(pool.add(cmp(CmpOp::Gt, x, 0)));
        let mut vals = pool.top();
        vals[0] = -1; // x > 0 known false
        let r = pool.post_assume(&vals, &cmp(CmpOp::Gt, x, 0));
        assert!(r.is_none(), "assume(x>0) under ¬(x>0) is pruned");
        // And consistent assumes strengthen unknowns.
        let r2 = pool
            .post_assume(&pool.top(), &cmp(CmpOp::Gt, x, 5))
            .unwrap();
        assert_eq!(r2[0], 1, "x > 5 implies x > 0");
    }

    #[test]
    fn assignment_post_updates_predicate() {
        let p = prog("global x; fn main() { x = 1; }");
        let x = p.vars().lookup("x").unwrap();
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        pool.add(cmp(CmpOp::Eq, x, 1));
        pool.add(cmp(CmpOp::Eq, x, 0));
        let op = &p.cfa(p.main()).edges()[0].op; // x := 1
        let out = pool.post_op(&an, &pool.top(), op);
        assert_eq!(out, vec![1, -1], "x := 1 makes x==1 true and x==0 false");
    }

    #[test]
    fn unrelated_assignment_preserves_values() {
        let p = prog("global x, y; fn main() { y = 3; }");
        let x = p.vars().lookup("x").unwrap();
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        pool.add(cmp(CmpOp::Gt, x, 0));
        let mut vals = pool.top();
        vals[0] = 1;
        let op = &p.cfa(p.main()).edges()[0].op; // y := 3
        let out = pool.post_op(&an, &vals, op);
        assert_eq!(out, vec![1], "y := 3 does not disturb x > 0");
    }

    #[test]
    fn havoc_resets_dependent_predicates() {
        let p = prog("global x; fn main() { x = nondet(); }");
        let x = p.vars().lookup("x").unwrap();
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        pool.add(cmp(CmpOp::Gt, x, 0));
        let mut vals = pool.top();
        vals[0] = 1;
        let op = &p.cfa(p.main()).edges()[0].op;
        let out = pool.post_op(&an, &vals, op);
        assert_eq!(out, vec![0], "x := nondet() forgets x > 0");
    }

    #[test]
    fn increment_shifts_known_facts() {
        let p = prog("global x; fn main() { x = x + 1; }");
        let x = p.vars().lookup("x").unwrap();
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        pool.add(cmp(CmpOp::Gt, x, 0)); // x > 0
        pool.add(cmp(CmpOp::Ge, x, 0)); // x >= 0
        let mut vals = pool.top();
        vals[1] = 1; // x >= 0
        let op = &p.cfa(p.main()).edges()[0].op; // x := x + 1
        let out = pool.post_op(&an, &vals, op);
        assert_eq!(out[0], 1, "x >= 0 implies x + 1 > 0");
        assert_eq!(out[1], 1, "x >= 0 implies x + 1 >= 0");
    }

    #[test]
    fn pool_rejects_duplicates_and_unexpressible() {
        let p = prog("global x, y; fn main() { assume(x * y > 0); }");
        let x = p.vars().lookup("x").unwrap();
        let mut pool = PredicatePool::new();
        assert!(pool.add(cmp(CmpOp::Gt, x, 0)));
        assert!(!pool.add(cmp(CmpOp::Gt, x, 0)), "duplicate");
        let Op::Assume(nl) = &p.cfa(p.main()).edges()[0].op else {
            panic!()
        };
        assert!(!pool.add(nl.clone()), "non-linear predicate rejected");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn scoped_predicates_mask_outside_their_function() {
        let p = prog("global g; fn f() { local t; t = g; } fn main() { f(); }");
        let f = p.func_id("f").unwrap();
        let main = p.main();
        let g = p.vars().lookup("g").unwrap();
        let t = p.vars().lookup("f::t").unwrap();
        let mut pool = PredicatePool::new();
        // g > 0 is global-scoped; t > 0 mentions f's local.
        assert!(pool.add_scoped(&p, cmp(CmpOp::Gt, g, 0)));
        assert!(pool.add_scoped(&p, cmp(CmpOp::Gt, t, 0)));
        assert_eq!(pool.scope(0), None);
        assert_eq!(pool.scope(1), Some(f));
        let mut vals = vec![1i8, 1];
        pool.mask_for(&mut vals, main);
        assert_eq!(vals, vec![1, 0], "t's fact forgotten outside f");
        let mut vals2 = vec![1i8, 1];
        pool.mask_for(&mut vals2, f);
        assert_eq!(vals2, vec![1, 1], "kept inside f");
    }

    #[test]
    fn atoms_of_decomposes_conditions() {
        let p = prog("global x, y; fn main() { assume(x > 0 && !(y == 2)); }");
        let Op::Assume(c) = &p.cfa(p.main()).edges()[0].op else {
            panic!()
        };
        let mut atoms = Vec::new();
        atoms_of(c, &mut atoms);
        assert_eq!(atoms.len(), 2);
    }

    mod soundness {
        use super::*;
        use proptest::prelude::*;
        use semantics::State;

        const MENU: &str = "global x, y; fn main() { \
            x = x + 1; x = 0; x = y; y = x * 2; y = y - 3; x = nondet(); \
            x = x + y; y = 7; }";

        fn op_menu(p: &Program) -> Vec<Op> {
            p.cfa(p.main())
                .edges()
                .iter()
                .map(|e| e.op.clone())
                .collect()
        }

        fn pred_menu(p: &Program) -> Vec<CBool> {
            let x = p.vars().lookup("x").unwrap();
            let y = p.vars().lookup("y").unwrap();
            let xv = CExpr::Lval(CLval::Var(x));
            let yv = CExpr::Lval(CLval::Var(y));
            vec![
                CBool::Cmp(CmpOp::Gt, xv.clone(), CExpr::Int(0)),
                CBool::Cmp(CmpOp::Eq, xv.clone(), CExpr::Int(0)),
                CBool::Cmp(CmpOp::Le, yv.clone(), CExpr::Int(3)),
                CBool::Cmp(CmpOp::Eq, xv.clone(), yv.clone()),
                CBool::Cmp(
                    CmpOp::Lt,
                    xv,
                    CExpr::Bin(imp::ast::BinOp::Add, Box::new(yv), Box::new(CExpr::Int(2))),
                ),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Concrete-abstract simulation: start from the *exact*
            /// abstraction of a concrete state; after any operation, the
            /// abstract post's known values must agree with the concrete
            /// successor (over-approximation soundness of post_op).
            #[test]
            fn post_op_simulates_concrete_steps(
                xv in -4i64..=4,
                yv in -4i64..=4,
                op_idx in 0usize..8,
                havoc in -4i64..=4,
            ) {
                let p = prog(MENU);
                let an = Analyses::build(&p);
                let ops = op_menu(&p);
                let Some(op) = ops.get(op_idx) else { return Ok(()) };
                if matches!(op, Op::Return) { return Ok(()); }
                let preds = pred_menu(&p);
                let mut pool = PredicatePool::new();
                for q in &preds {
                    pool.add(q.clone());
                }
                let mut s = State::zeroed(&p);
                s.set(p.vars().lookup("x").unwrap(), xv);
                s.set(p.vars().lookup("y").unwrap(), yv);
                let vals: Valuation = preds
                    .iter()
                    .map(|q| if s.eval_bool(q).unwrap() { 1i8 } else { -1 })
                    .collect();
                let mut s2 = s.clone();
                s2.step(op, || havoc).unwrap();
                let out = pool.post_op(&an, &vals, op);
                for (i, q) in preds.iter().enumerate() {
                    let truth = s2.eval_bool(q).unwrap();
                    match out[i] {
                        1 => prop_assert!(truth, "pred {} wrongly true after {:?}", i, op),
                        -1 => prop_assert!(!truth, "pred {} wrongly false after {:?}", i, op),
                        _ => {}
                    }
                }
            }

            /// post_assume never prunes a concretely-passing branch.
            #[test]
            fn post_assume_simulates_concrete_branches(
                xv in -4i64..=4,
                yv in -4i64..=4,
                cond_idx in 0usize..5,
            ) {
                let p = prog(MENU);
                let preds = pred_menu(&p);
                let cond = preds[cond_idx].clone();
                let mut pool = PredicatePool::new();
                for q in &preds {
                    pool.add(q.clone());
                }
                let mut s = State::zeroed(&p);
                s.set(p.vars().lookup("x").unwrap(), xv);
                s.set(p.vars().lookup("y").unwrap(), yv);
                if !s.eval_bool(&cond).unwrap() {
                    return Ok(());
                }
                let vals: Valuation = preds
                    .iter()
                    .map(|q| if s.eval_bool(q).unwrap() { 1i8 } else { -1 })
                    .collect();
                let out = pool.post_assume(&vals, &cond);
                prop_assert!(out.is_some(), "pruned a concretely-feasible branch");
            }
        }
    }
}
