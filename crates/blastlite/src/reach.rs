//! Abstract reachability: breadth-first exploration of
//! `(location, call stack, predicate valuation)` states.
//!
//! BFS (rather than BLAST's depth-first context-free reachability) finds
//! *shortest* abstract counterexamples — the improvement the paper's §5
//! "Limitations" says the authors were investigating; building fresh, we
//! simply adopt it.

use crate::abst::{PredicatePool, Valuation};
use cfa::{EdgeId, Loc, Op, Path, Program};
use dataflow::Analyses;
use rt::Budget;
use std::collections::{HashMap, VecDeque};

/// Exploration order for abstract reachability.
///
/// BLAST's context-free reachability was depth-first, which the paper's
/// §5 "Limitations" blames for very long counterexamples; breadth-first
/// finds shortest ones. We support both: BFS is the default, DFS is used
/// by the figure harnesses to reproduce paper-scale trace lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchOrder {
    /// Breadth-first: shortest abstract counterexamples.
    #[default]
    Bfs,
    /// Depth-first: BLAST-style long counterexamples.
    Dfs,
}

/// One abstract state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AbsState {
    loc: Loc,
    /// Return continuations, outermost first.
    stack: Vec<Loc>,
    vals: Valuation,
}

/// The result of one abstract reachability run.
#[derive(Debug)]
pub enum ReachResult {
    /// No error location is abstractly reachable: the program is safe.
    Safe {
        /// Abstract states explored.
        explored: usize,
    },
    /// An abstract path to an error location.
    ErrorPath {
        /// The counterexample.
        path: Path,
        /// Abstract states explored before finding it.
        explored: usize,
    },
    /// The state or time budget was exhausted.
    BudgetExceeded {
        /// Abstract states explored before giving up.
        explored: usize,
    },
}

impl ReachResult {
    /// Abstract states explored by this run.
    pub fn explored(&self) -> usize {
        match self {
            ReachResult::Safe { explored }
            | ReachResult::ErrorPath { explored, .. }
            | ReachResult::BudgetExceeded { explored } => *explored,
        }
    }
}

/// Runs abstract reachability from `main`'s entry toward `targets`.
///
/// `budget` and `max_states` bound the exploration; the budget's
/// cancellation token (if any) is polled between expansions.
pub fn reachable(
    program: &Program,
    analyses: &Analyses<'_>,
    pool: &mut PredicatePool,
    targets: &[Loc],
    max_states: usize,
    budget: &Budget,
    order: SearchOrder,
) -> ReachResult {
    reachable_with(
        program, analyses, pool, targets, max_states, budget, order, false,
    )
}

/// [`reachable`] with predicate scoping: when `scoped` is set,
/// function-local predicates are forgotten outside their function
/// (lazy-abstraction-style locality; sound, smaller state space).
#[allow(clippy::too_many_arguments)]
pub fn reachable_with(
    program: &Program,
    analyses: &Analyses<'_>,
    pool: &mut PredicatePool,
    targets: &[Loc],
    max_states: usize,
    budget: &Budget,
    order: SearchOrder,
    scoped: bool,
) -> ReachResult {
    let entry = program.cfa(program.main()).entry();
    let init = AbsState {
        loc: entry,
        stack: Vec::new(),
        vals: pool.top(),
    };

    // Parent tree for counterexample reconstruction.
    let mut nodes: Vec<(AbsState, Option<(usize, EdgeId)>)> = vec![(init.clone(), None)];
    let mut seen: HashMap<AbsState, ()> = HashMap::new();
    seen.insert(init, ());
    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);
    let states = obs::counter("reach.states");

    while let Some(ni) = match order {
        SearchOrder::Bfs => queue.pop_front(),
        SearchOrder::Dfs => queue.pop_back(),
    } {
        if nodes.len() > max_states || budget.poll().is_err() {
            states.add(nodes.len() as u64);
            return ReachResult::BudgetExceeded {
                explored: nodes.len(),
            };
        }
        let (state, _) = nodes[ni].clone();
        if targets.contains(&state.loc) {
            let explored = nodes.len();
            states.add(explored as u64);
            return ReachResult::ErrorPath {
                path: reconstruct(program, &nodes, ni),
                explored,
            };
        }
        let cfa = program.cfa(state.loc.func);
        for &ei in cfa.succ_edges(state.loc) {
            let edge = cfa.edge(ei);
            let eid = EdgeId {
                func: state.loc.func,
                idx: ei,
            };
            let succ: Option<AbsState> = match &edge.op {
                Op::Assume(p) => pool.post_assume(&state.vals, p).map(|vals| AbsState {
                    loc: edge.dst,
                    stack: state.stack.clone(),
                    vals,
                }),
                Op::Call(f) => {
                    let mut stack = state.stack.clone();
                    stack.push(edge.dst);
                    Some(AbsState {
                        loc: program.cfa(*f).entry(),
                        stack,
                        vals: state.vals.clone(),
                    })
                }
                Op::Return => {
                    let mut stack = state.stack.clone();
                    stack.pop().map(|k| AbsState {
                        loc: k,
                        stack,
                        vals: state.vals.clone(),
                    })
                }
                op => Some(AbsState {
                    loc: edge.dst,
                    stack: state.stack.clone(),
                    vals: pool.post_op(analyses, &state.vals, op),
                }),
            };
            if let Some(mut s) = succ {
                if scoped {
                    pool.mask_for(&mut s.vals, s.loc.func);
                }
                if !seen.contains_key(&s) {
                    seen.insert(s.clone(), ());
                    nodes.push((s, Some((ni, eid))));
                    queue.push_back(nodes.len() - 1);
                }
            }
        }
    }
    states.add(nodes.len() as u64);
    ReachResult::Safe {
        explored: nodes.len(),
    }
}

fn reconstruct(
    program: &Program,
    nodes: &[(AbsState, Option<(usize, EdgeId)>)],
    mut ni: usize,
) -> Path {
    let mut edges = Vec::new();
    while let Some((parent, eid)) = nodes[ni].1 {
        edges.push(eid);
        ni = parent;
    }
    edges.reverse();
    Path::new_unchecked(program, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn setup(src: &str) -> (Program, ()) {
        (cfa::lower(&imp::parse(src).unwrap()).unwrap(), ())
    }

    fn reach_with_empty_pool(src: &str) -> (Program, ReachResult) {
        let (p, _) = setup(src);
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        let targets: Vec<Loc> = p
            .cfas()
            .iter()
            .flat_map(|c| c.error_locs().iter().copied())
            .collect();
        let r = reachable(
            &p,
            &an,
            &mut pool,
            &targets,
            100_000,
            &Budget::lasting(Duration::from_secs(30)),
            SearchOrder::Bfs,
        );
        (p, r)
    }

    #[test]
    fn structurally_unreachable_error_is_safe() {
        // No error location at all.
        let (_, r) = reach_with_empty_pool("global x; fn main() { x = 1; }");
        assert!(matches!(r, ReachResult::Safe { .. }));
    }

    #[test]
    fn reachable_error_yields_valid_path() {
        let (p, r) = reach_with_empty_pool("global a; fn main() { if (a > 0) { error(); } }");
        let ReachResult::ErrorPath { path, .. } = r else {
            panic!("expected path")
        };
        Path::new(&p, path.edges().to_vec()).unwrap();
        let target = path.target(&p).unwrap();
        assert!(p.cfa(p.main()).error_locs().contains(&target));
    }

    #[test]
    fn interprocedural_error_path_balances_calls() {
        let (p, r) = reach_with_empty_pool(
            "global a; fn f() { if (a > 0) { error(); } } fn main() { f(); f(); }",
        );
        let ReachResult::ErrorPath { path, .. } = r else {
            panic!("expected path")
        };
        Path::new(&p, path.edges().to_vec()).unwrap();
        // BFS finds the error through the FIRST call.
        let calls = path
            .edges()
            .iter()
            .filter(|e| matches!(p.edge(**e).op, Op::Call(_)))
            .count();
        assert_eq!(calls, 1);
    }

    #[test]
    fn predicates_prune_infeasible_branches() {
        let src = "global x; fn main() { x = 1; if (x == 2) { error(); } }";
        let (p, _) = setup(src);
        let an = Analyses::build(&p);
        let x = p.vars().lookup("x").unwrap();
        let mut pool = PredicatePool::new();
        // With the predicate x == 2 the abstraction refutes the branch.
        pool.add(CBool::Cmp(
            imp::ast::CmpOp::Eq,
            cfa::CExpr::var(x),
            cfa::CExpr::Int(2),
        ));
        let targets = p.cfa(p.main()).error_locs().to_vec();
        let r = reachable(
            &p,
            &an,
            &mut pool,
            &targets,
            100_000,
            &Budget::lasting(Duration::from_secs(30)),
            SearchOrder::Bfs,
        );
        assert!(
            matches!(r, ReachResult::Safe { .. }),
            "x==2 predicate proves safety"
        );
    }

    #[test]
    fn without_predicates_the_same_program_has_an_abstract_path() {
        let (_, r) =
            reach_with_empty_pool("global x; fn main() { x = 1; if (x == 2) { error(); } }");
        assert!(
            matches!(r, ReachResult::ErrorPath { .. }),
            "empty abstraction is coarse"
        );
    }

    #[test]
    fn budget_exhaustion_reports() {
        let (p, _) = setup(
            "global a; fn main() { local i; while (i < a) { i = i + 1; } if (a < 0) { error(); } }",
        );
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        let targets = p.cfa(p.main()).error_locs().to_vec();
        let r = reachable(
            &p,
            &an,
            &mut pool,
            &targets,
            2,
            &Budget::lasting(Duration::from_secs(30)),
            SearchOrder::Bfs,
        );
        assert!(matches!(r, ReachResult::BudgetExceeded { .. }));
    }

    use cfa::CBool;
}
