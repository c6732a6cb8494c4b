//! The CEGAR loop and the per-function check driver (§5 methodology).

use crate::abst::PredicatePool;
use crate::reach::{reachable_with, ReachResult, SearchOrder};
use crate::refine::mine_predicates;
use cfa::{EdgeId, FuncId, Loc, Op, Path};
use dataflow::Analyses;
use lia::{Formula, SatResult, Solver};
use rt::{Budget, Interrupt};
use semantics::TraceEncoder;
use slicer::{PathSlicer, SliceOptions};
use std::time::{Duration, Instant};

/// How abstract counterexamples are reduced before analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reducer {
    /// No reduction — BLAST before path slicing (the A1 ablation).
    Identity,
    /// The paper's contribution.
    PathSlice(ReducerSliceOptions),
}

/// Copyable mirror of [`SliceOptions`] for [`Reducer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReducerSliceOptions {
    /// §4.2 early-unsat stop.
    pub early_unsat: bool,
    /// §4.2 function skipping.
    pub skip_functions: bool,
}

impl From<ReducerSliceOptions> for SliceOptions {
    fn from(o: ReducerSliceOptions) -> SliceOptions {
        SliceOptions {
            early_unsat: o.early_unsat,
            skip_functions: o.skip_functions,
        }
    }
}

impl Reducer {
    /// The paper's default configuration: path slicing with the
    /// early-unsat optimization.
    pub fn path_slice() -> Reducer {
        Reducer::PathSlice(ReducerSliceOptions {
            early_unsat: true,
            skip_functions: false,
        })
    }
}

/// Budgets and strategy for one check.
#[derive(Debug, Clone, Copy)]
pub struct CheckerConfig {
    /// Counterexample reducer.
    pub reducer: Reducer,
    /// Maximum CEGAR iterations.
    pub max_refinements: usize,
    /// Maximum abstract states per reachability run.
    pub max_states: usize,
    /// Wall-clock budget for the whole check (the paper used 1000 s).
    pub time_budget: Duration,
    /// Abstract-reachability exploration order.
    pub search_order: SearchOrder,
    /// Track function-local predicates only inside their function
    /// (lazy-abstraction-style locality). Sound; shrinks the abstract
    /// state space at some precision cost outside the owning function.
    pub scoped_predicates: bool,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            reducer: Reducer::path_slice(),
            max_refinements: 128,
            max_states: 400_000,
            time_budget: Duration::from_secs(60),
            search_order: SearchOrder::Bfs,
            scoped_predicates: false,
        }
    }
}

/// Why a check gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutReason {
    /// The wall-clock budget elapsed.
    WallClock,
    /// Abstract reachability exceeded its state budget.
    StateBudget,
    /// The refinement-iteration budget elapsed.
    RefinementBudget,
    /// Refinement produced no new predicates (divergence detected).
    NoProgress,
    /// The decision procedure gave up on a trace formula (the paper §5:
    /// "the size of trace formulas generated is usually beyond the limit
    /// of current decision procedures").
    SolverGaveUp,
    /// The run's [`rt::CancelToken`] was cancelled.
    Cancelled,
}

impl TimeoutReason {
    /// The reason corresponding to a budget [`Interrupt`].
    fn from_interrupt(i: Interrupt) -> TimeoutReason {
        match i {
            Interrupt::DeadlineExpired => TimeoutReason::WallClock,
            Interrupt::Cancelled => TimeoutReason::Cancelled,
        }
    }
}

/// The verdict of one check.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// No error location is reachable.
    Safe,
    /// A feasible (modulo termination, §3.2) error witness was found.
    Bug {
        /// The abstract counterexample path.
        path: Path,
        /// The reduced witness the user inspects (equals the path's
        /// edges under [`Reducer::Identity`]).
        slice: Vec<EdgeId>,
    },
    /// The check exhausted a budget.
    Timeout(TimeoutReason),
    /// The check itself failed — a panic (isolated by the driver) or an
    /// injected fault. Never produced by [`Checker::check`] directly;
    /// the driver downgrades caught panics to this so one bad cluster
    /// cannot kill a suite run.
    InternalError {
        /// The rendered panic payload or fault description.
        payload: String,
        /// Which phase failed (`"cluster"`, `"reach"`, `"slice"`,
        /// `"solve"`, …).
        phase: String,
    },
    /// The verdict's certificate failed independent validation
    /// (`--validate` mode). Never produced by [`Checker::check`]; the
    /// driver downgrades a verdict to this when the configured validator
    /// rejects its evidence — a wrong answer is *reported*, never
    /// silently trusted.
    CertificateMismatch {
        /// The verdict the certificate was supposed to support
        /// (`"Safe"`, `"Bug"`, …).
        claimed: String,
        /// Why validation rejected the certificate.
        reason: String,
    },
}

impl CheckOutcome {
    /// Whether this outcome is [`CheckOutcome::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, CheckOutcome::Safe)
    }

    /// Whether this outcome is a [`CheckOutcome::Bug`].
    pub fn is_bug(&self) -> bool {
        matches!(self, CheckOutcome::Bug { .. })
    }

    /// Whether this outcome is a [`CheckOutcome::Timeout`].
    pub fn is_timeout(&self) -> bool {
        matches!(self, CheckOutcome::Timeout(_))
    }

    /// Whether this outcome is a [`CheckOutcome::InternalError`].
    pub fn is_internal_error(&self) -> bool {
        matches!(self, CheckOutcome::InternalError { .. })
    }

    /// Whether this outcome is a [`CheckOutcome::CertificateMismatch`].
    pub fn is_certificate_mismatch(&self) -> bool {
        matches!(self, CheckOutcome::CertificateMismatch { .. })
    }

    /// The label `pathslice check` prints and the wire serves (`SAFE`,
    /// `BUG`, `TIMEOUT(..)`, `INTERNAL(..)`, `MISMATCH(..)`), with the
    /// process exit code it implies (0 safe, 1 bug, 2 timeout/internal,
    /// 3 certificate mismatch).
    pub fn verdict(&self) -> (String, i32) {
        match self {
            CheckOutcome::Safe => ("SAFE".into(), 0),
            CheckOutcome::Bug { .. } => ("BUG".into(), 1),
            CheckOutcome::Timeout(reason) => (format!("TIMEOUT({reason:?})"), 2),
            CheckOutcome::InternalError { phase, .. } => (format!("INTERNAL({phase})"), 2),
            CheckOutcome::CertificateMismatch { claimed, .. } => {
                (format!("MISMATCH({claimed})"), 3)
            }
        }
    }

    /// Inverts [`verdict`](Self::verdict) for the two stable labels:
    /// `SAFE` and `BUG` give their [`kind_label`](Self::kind_label) and
    /// exit code. `None` for every other label — a timeout, an internal
    /// error or a mismatch is not a verdict a certificate vouches for.
    pub fn stable_kind(label: &str) -> Option<(&'static str, i32)> {
        match label {
            "SAFE" => Some(("Safe", 0)),
            "BUG" => Some(("Bug", 1)),
            _ => None,
        }
    }

    /// A short label for the verdict kind (`"Safe"`, `"Bug"`,
    /// `"Timeout(WallClock)"`, …), used by certificates to record what
    /// they claim to support.
    pub fn kind_label(&self) -> String {
        match self {
            CheckOutcome::Safe => "Safe".to_owned(),
            CheckOutcome::Bug { .. } => "Bug".to_owned(),
            CheckOutcome::Timeout(reason) => format!("Timeout({reason:?})"),
            CheckOutcome::InternalError { phase, .. } => format!("InternalError({phase})"),
            CheckOutcome::CertificateMismatch { claimed, .. } => {
                format!("CertificateMismatch({claimed})")
            }
        }
    }
}

/// One abstract counterexample and its reduction (a Figure 5/6 point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Operations in the abstract counterexample.
    pub trace_ops: usize,
    /// Operations kept by the reducer.
    pub slice_ops: usize,
}

impl TraceRecord {
    /// Slice size as a percentage of trace size.
    pub fn ratio_percent(&self) -> f64 {
        if self.trace_ops == 0 {
            return 0.0;
        }
        self.slice_ops as f64 * 100.0 / self.trace_ops as f64
    }
}

/// The evidence for one refuted abstract counterexample: the reduced
/// operation sequence whose constraints were unsatisfiable, and the
/// unsat core the refinement used. A `Safe` verdict's certificate is the
/// list of these rounds — each one independently re-checkable by
/// re-deriving `WP.true` over just the core's operations with a fresh
/// solver context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefutationRound {
    /// The reduced (sliced) trace of the refuted counterexample.
    pub slice: Vec<EdgeId>,
    /// Ascending indices into `slice` of the operations whose SSA
    /// constraints are jointly unsatisfiable.
    pub core: Vec<usize>,
    /// Whether deletion-minimization of the core ran to completion
    /// (`false` marks a sound but possibly non-minimal, budget-truncated
    /// core — validators reject these).
    pub core_complete: bool,
}

/// The full record of one check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The verdict.
    pub outcome: CheckOutcome,
    /// Number of refinement iterations performed.
    pub refinements: usize,
    /// Every abstract counterexample seen, with its reduction.
    pub traces: Vec<TraceRecord>,
    /// Per-round refutation evidence (slice + unsat core) for every
    /// abstract counterexample proven infeasible — the certificate
    /// payload of a `Safe` verdict.
    pub rounds: Vec<RefutationRound>,
    /// Wall-clock time spent.
    pub wall: Duration,
    /// Final predicate-pool size.
    pub n_predicates: usize,
    /// Abstract states explored, summed over all reachability runs.
    pub abstract_states: usize,
}

/// The CEGAR model checker.
#[derive(Debug, Clone, Copy)]
pub struct Checker<'a> {
    analyses: &'a Analyses<'a>,
    config: CheckerConfig,
}

impl<'a> Checker<'a> {
    /// Creates a checker over `analyses` with `config`.
    pub fn new(analyses: &'a Analyses<'a>, config: CheckerConfig) -> Self {
        Checker { analyses, config }
    }

    /// Checks whether any of `targets` is reachable.
    pub fn check(&self, targets: &[Loc]) -> CheckReport {
        self.check_under(targets, &Budget::unlimited())
    }

    /// [`Checker::check`] under an outer [`Budget`]: the effective
    /// deadline is `min(outer deadline, now + config.time_budget)`, and
    /// the outer cancellation token is polled in every layer — the
    /// solver's inner loops, reachability expansion, and the slicer's
    /// backward pass.
    pub fn check_under(&self, targets: &[Loc], outer: &Budget) -> CheckReport {
        let program = self.analyses.program();
        let start = Instant::now();
        let budget = outer.child(self.config.time_budget);
        let mut pool = PredicatePool::new();
        let mut traces = Vec::new();
        let mut refinements = 0usize;
        // A single trace formula must never eat the whole check budget
        // (§5: unreduced trace formulas overwhelm decision procedures),
        // so the feasibility solver gets a per-call slice of it.
        let solver = Solver::with_config(lia::SolverConfig {
            time_budget: Some((self.config.time_budget / 8).max(Duration::from_millis(500))),
            ..lia::SolverConfig::default()
        });
        solver.attach_budget(budget.clone());
        let slicer = PathSlicer::new(self.analyses);

        let mut abstract_states = 0usize;
        let mut rounds: Vec<RefutationRound> = Vec::new();
        macro_rules! finish {
            ($outcome:expr, $refinements:expr, $traces:expr, $pool:expr) => {
                CheckReport {
                    outcome: $outcome,
                    refinements: $refinements,
                    traces: $traces,
                    rounds: std::mem::take(&mut rounds),
                    wall: start.elapsed(),
                    n_predicates: $pool.len(),
                    abstract_states,
                }
            };
        }

        loop {
            if let Err(i) = budget.check() {
                return finish!(
                    CheckOutcome::Timeout(TimeoutReason::from_interrupt(i)),
                    refinements,
                    traces,
                    &pool
                );
            }
            let result = {
                let _s = obs::span!("reach", "round {refinements}");
                reachable_with(
                    program,
                    self.analyses,
                    &mut pool,
                    targets,
                    self.config.max_states,
                    &budget,
                    self.config.search_order,
                    self.config.scoped_predicates,
                )
            };
            abstract_states += result.explored();
            let path = match result {
                ReachResult::Safe { .. } => {
                    return finish!(CheckOutcome::Safe, refinements, traces, &pool);
                }
                ReachResult::BudgetExceeded { .. } => {
                    let reason = match budget.check() {
                        Err(i) => TimeoutReason::from_interrupt(i),
                        Ok(()) => TimeoutReason::StateBudget,
                    };
                    return finish!(CheckOutcome::Timeout(reason), refinements, traces, &pool);
                }
                ReachResult::ErrorPath { path, .. } => path,
            };

            // Reduce the abstract counterexample.
            let (slice_edges, already_unsat) = {
                let _s = obs::span!("slice", "round {refinements} ({} ops)", path.len());
                match self.config.reducer {
                    Reducer::Identity => (path.edges().to_vec(), false),
                    Reducer::PathSlice(opts) => {
                        match slicer.slice_under(&path, opts.into(), &budget) {
                            Ok(r) => (r.edges, r.stopped_unsat),
                            Err(i) => {
                                return finish!(
                                    CheckOutcome::Timeout(TimeoutReason::from_interrupt(i)),
                                    refinements,
                                    traces,
                                    &pool
                                );
                            }
                        }
                    }
                }
            };
            traces.push(TraceRecord {
                trace_ops: path.len(),
                slice_ops: slice_edges.len(),
            });

            // Decide feasibility of the reduced trace: encode each
            // operation's constraint (backwards, §4.2 SSA style) so an
            // unsat verdict comes with per-operation granularity for
            // core extraction.
            let ops: Vec<&Op> = slice_edges.iter().map(|&e| &program.edge(e).op).collect();
            let (parts, conj) = {
                let _s = obs::span!("encode", "round {refinements} ({} ops)", ops.len());
                let mut enc = TraceEncoder::new(self.analyses.alias());
                let mut parts: Vec<(usize, Formula)> = Vec::new();
                for (i, op) in ops.iter().enumerate().rev() {
                    let f = enc.op_backward(op);
                    if f != Formula::True {
                        parts.push((i, f));
                    }
                }
                let conj = Formula::And(parts.iter().map(|(_, f)| f.clone()).collect());
                (parts, conj)
            };
            let verdict = if already_unsat {
                SatResult::Unsat
            } else {
                let _s = obs::span!("solve", "round {refinements} ({} parts)", parts.len());
                solver.check(&conj)
            };
            match verdict {
                SatResult::Sat(_) => {
                    return finish!(
                        CheckOutcome::Bug {
                            path,
                            slice: slice_edges
                        },
                        refinements,
                        traces,
                        &pool
                    );
                }
                SatResult::Unknown => {
                    return finish!(
                        CheckOutcome::Timeout(TimeoutReason::SolverGaveUp),
                        refinements,
                        traces,
                        &pool
                    );
                }
                SatResult::Unsat => {
                    // Refine from the atoms of one infeasibility reason:
                    // a deletion-minimized unsat core of the constraint
                    // set (our stand-in for BLAST's proof-based
                    // predicate discovery), falling back to the whole
                    // reduced trace if the core yields nothing new.
                    let _s = obs::span!("refine", "round {refinements}");
                    obs::counter("checker.rounds").inc();
                    let core = unsat_core(&solver, &parts, &budget);
                    rounds.push(RefutationRound {
                        slice: slice_edges.clone(),
                        core: core.indices.clone(),
                        core_complete: core.complete,
                    });
                    let core_ops: Vec<&Op> = core.indices.iter().map(|&i| ops[i]).collect();
                    let mut grew = false;
                    for p in mine_predicates(core_ops) {
                        grew |= pool.add_scoped(program, p);
                    }
                    if !grew {
                        for p in mine_predicates(ops) {
                            grew |= pool.add_scoped(program, p);
                        }
                    }
                    if !grew {
                        return finish!(
                            CheckOutcome::Timeout(TimeoutReason::NoProgress),
                            refinements,
                            traces,
                            &pool
                        );
                    }
                    refinements += 1;
                    if refinements >= self.config.max_refinements {
                        return finish!(
                            CheckOutcome::Timeout(TimeoutReason::RefinementBudget),
                            refinements,
                            traces,
                            &pool
                        );
                    }
                }
            }
        }
    }
}

/// The result of [`unsat_core`]: op indices whose constraints are
/// jointly unsatisfiable, and whether deletion-minimization ran to
/// completion. When the budget trips mid-minimization, `indices` is the
/// partial core reached so far — every deletion already performed keeps
/// the set unsatisfiable, so the partial core is still a sound (just
/// possibly non-minimal) core — and `complete` is `false` so callers
/// can tell a minimized core from a truncated one.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UnsatCore {
    /// Ascending op indices of the core.
    indices: Vec<usize>,
    /// Whether every candidate deletion was tried.
    complete: bool,
}

/// Deletion-based unsat-core extraction over per-operation constraints.
fn unsat_core(solver: &Solver, parts: &[(usize, Formula)], budget: &Budget) -> UnsatCore {
    let mut keep: Vec<bool> = vec![true; parts.len()];
    // Deletion minimization is quadratic in the constraint count; on the
    // huge unsliced traces of the identity-reducer ablation it would eat
    // the whole budget, so only attempt it on reducer-sized inputs.
    const MAX_MINIMIZABLE: usize = 600;
    let mut complete = parts.len() <= MAX_MINIMIZABLE;
    if complete {
        for k in 0..parts.len() {
            if budget.exceeded() {
                complete = false;
                break;
            }
            keep[k] = false;
            let conj = Formula::And(
                parts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| keep[*i])
                    .map(|(_, (_, f))| f.clone())
                    .collect(),
            );
            if !solver.check(&conj).is_unsat() {
                keep[k] = true;
            }
        }
    }
    let mut idxs: Vec<usize> = parts
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|((i, _), _)| *i)
        .collect();
    idxs.sort_unstable();
    UnsatCore {
        indices: idxs,
        complete,
    }
}

/// One per-function cluster of error sites, checked independently
/// (the paper's §5 methodology: "we cluster calls to `__error__`
/// according to their calling functions, and then check each function
/// … independently").
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The function whose error sites were checked.
    pub func: FuncId,
    /// Its source name.
    pub func_name: String,
    /// Number of instrumented error sites in the cluster.
    pub n_sites: usize,
    /// The check's report.
    pub report: CheckReport,
}

/// Runs one check per function that contains error locations, in
/// [`FuncId`] order. Returns the per-cluster reports.
pub fn check_program(analyses: &Analyses<'_>, config: CheckerConfig) -> Vec<ClusterReport> {
    let program = analyses.program();
    let mut out = Vec::new();
    for cfa in program.cfas() {
        if cfa.error_locs().is_empty() {
            continue;
        }
        let checker = Checker::new(analyses, config);
        let _s = obs::span!("check", "cluster {}", cfa.name());
        let report = checker.check(cfa.error_locs());
        out.push(ClusterReport {
            func: cfa.func(),
            func_name: cfa.name().to_owned(),
            n_sites: cfa.error_locs().len(),
            report,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lia::{Atom, LinTerm, SymId};

    fn setup(src: &str) -> cfa::Program {
        cfa::lower(&imp::parse(src).unwrap()).unwrap()
    }

    /// `x <= c` / `x >= c` atoms over one symbol, for core tests.
    fn le_c(c: i128) -> Formula {
        Formula::Atom(Atom::le(
            LinTerm::sym(SymId(0)).checked_add_const(-c).unwrap(),
        ))
    }
    fn ge_c(c: i128) -> Formula {
        Formula::Atom(Atom::le(
            LinTerm::sym(SymId(0))
                .checked_scale(-1)
                .unwrap()
                .checked_add_const(c)
                .unwrap(),
        ))
    }

    #[test]
    fn unsat_core_minimizes_under_ample_budget() {
        // {x <= 0, x >= 1, x <= 5}: the first two alone are unsat; the
        // third must be deleted from the core.
        let parts = vec![(0usize, le_c(0)), (1, ge_c(1)), (2, le_c(5))];
        let core = unsat_core(&Solver::new(), &parts, &Budget::unlimited());
        assert_eq!(core.indices, vec![0, 1]);
        assert!(core.complete);
    }

    #[test]
    fn unsat_core_reports_partial_when_budget_trips() {
        let parts = vec![(0usize, le_c(0)), (1, ge_c(1)), (2, le_c(5))];
        let spent = Budget::until(Instant::now() - Duration::from_millis(1));
        let core = unsat_core(&Solver::new(), &parts, &spent);
        // No minimization happened; the partial core is the full (still
        // unsatisfiable) set, and that truncation is reported, not
        // silent.
        assert_eq!(core.indices, vec![0, 1, 2]);
        assert!(!core.complete);
    }

    #[test]
    fn unsat_core_skips_minimization_over_size_cap_and_says_so() {
        let mut parts: Vec<(usize, Formula)> = (0..601).map(|i| (i, le_c(5))).collect();
        parts.push((601, ge_c(6)));
        let core = unsat_core(&Solver::new(), &parts, &Budget::unlimited());
        assert_eq!(core.indices.len(), parts.len());
        assert!(!core.complete);
    }

    #[test]
    fn cancelled_token_yields_cancelled_timeout() {
        let p = setup("global a; fn main() { if (a > 0) { error(); } }");
        let an = Analyses::build(&p);
        let checker = Checker::new(&an, CheckerConfig::default());
        let token = rt::CancelToken::new();
        token.cancel();
        let outer = Budget::unlimited().with_token(token);
        let report = checker.check_under(p.cfa(p.main()).error_locs(), &outer);
        assert!(
            matches!(
                report.outcome,
                CheckOutcome::Timeout(TimeoutReason::Cancelled)
            ),
            "{:?}",
            report.outcome
        );
    }

    fn check_with(src: &str, reducer: Reducer) -> Vec<ClusterReport> {
        let p = setup(src);
        let an = Analyses::build(&p);
        let config = CheckerConfig {
            reducer,
            ..CheckerConfig::default()
        };
        check_program(&an, config)
    }

    #[test]
    fn proves_simple_safety_after_refinement() {
        let reports = check_with(
            "global x; fn main() { x = 1; if (x == 2) { error(); } }",
            Reducer::path_slice(),
        );
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0].report.outcome.is_safe(),
            "{:?}",
            reports[0].report.outcome
        );
        assert!(reports[0].report.refinements >= 1);
    }

    #[test]
    fn finds_real_bug_with_witness() {
        let reports = check_with(
            "fn main() { local a; a = nondet(); if (a > 41) { error(); } }",
            Reducer::path_slice(),
        );
        let report = &reports[0].report;
        assert!(report.outcome.is_bug(), "{:?}", report.outcome);
        if let CheckOutcome::Bug { path, slice } = &report.outcome {
            assert!(slice.len() <= path.len());
        }
    }

    #[test]
    fn conditional_safety_needs_relevant_predicate() {
        // Safe: x is set to 1 exactly when a >= 0 (Ex2 shaded, no loop).
        let src = r#"
            global a, x;
            fn main() {
                x = 0;
                if (a >= 0) { x = 1; }
                if (a >= 0) { if (x == 0) { error(); } }
            }
        "#;
        let reports = check_with(src, Reducer::path_slice());
        assert!(
            reports[0].report.outcome.is_safe(),
            "{:?}",
            reports[0].report.outcome
        );
    }

    #[test]
    fn ex2_with_loop_slicing_converges_identity_does_not() {
        // The paper's motivating scenario (§1): an irrelevant loop
        // between the error-relevant branches. With path slicing the
        // loop never enters the slice and CEGAR converges; without it
        // the refinement chases loop unrollings until a budget trips.
        let src = r#"
            global a, x;
            fn main() {
                local i;
                x = 0;
                if (a >= 0) { x = 1; }
                for (i = 1; i <= 50; i = i + 1) { skip; }
                if (a >= 0) { if (x == 0) { error(); } }
            }
        "#;
        let with_slicing = check_with(src, Reducer::path_slice());
        assert!(
            with_slicing[0].report.outcome.is_safe(),
            "{:?}",
            with_slicing[0].report.outcome
        );
        assert!(with_slicing[0].report.refinements <= 3);

        let p = setup(src);
        let an = Analyses::build(&p);
        let config = CheckerConfig {
            reducer: Reducer::Identity,
            max_refinements: 10,
            time_budget: Duration::from_secs(20),
            ..CheckerConfig::default()
        };
        let without = check_program(&an, config);
        assert!(
            without[0].report.outcome.is_timeout(),
            "identity reducer should diverge: {:?}",
            without[0].report.outcome
        );
    }

    #[test]
    fn unreachable_error_behind_infeasible_branch_chain() {
        let src = r#"
            global a, b;
            fn main() {
                a = 3;
                b = a + 1;
                if (b < a) { error(); }
            }
        "#;
        let reports = check_with(src, Reducer::path_slice());
        assert!(reports[0].report.outcome.is_safe());
    }

    #[test]
    fn interprocedural_bug_through_transfer_globals() {
        let src = r#"
            global g;
            fn store(v) { g = v; }
            fn main() { local a; a = nondet(); store(a); if (g == 7) { error(); } }
        "#;
        let reports = check_with(src, Reducer::path_slice());
        assert!(
            reports[0].report.outcome.is_bug(),
            "{:?}",
            reports[0].report.outcome
        );
    }

    #[test]
    fn clusters_are_per_function() {
        let src = r#"
            global a;
            fn f() { if (a > 0) { error(); } }
            fn g() { if (a < 0) { error(); } error(); }
            fn main() { f(); g(); }
        "#;
        let reports = check_with(src, Reducer::path_slice());
        assert_eq!(reports.len(), 2);
        assert_eq!(reports.iter().map(|r| r.n_sites).sum::<usize>(), 3);
        assert!(reports.iter().all(|r| r.report.outcome.is_bug()));
    }

    #[test]
    fn trace_records_measure_reduction() {
        let src = r#"
            global a, x, s;
            fn main() {
                local i;
                for (i = 0; i < 20; i = i + 1) { s = s + i; }
                if (a > 0) { if (x == 0) { error(); } }
            }
        "#;
        let reports = check_with(src, Reducer::path_slice());
        let report = &reports[0].report;
        assert!(report.outcome.is_bug());
        assert!(!report.traces.is_empty());
        let last = report.traces.last().unwrap();
        assert!(last.slice_ops <= 4, "loop sliced away: {last:?}");
    }
}
