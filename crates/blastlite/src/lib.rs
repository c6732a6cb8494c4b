//! `blastlite` — a counterexample-guided abstraction refinement (CEGAR)
//! model checker in the style of BLAST, the system the paper deployed
//! path slicing in (§1, §5).
//!
//! The checker decides reachability of *error locations* by predicate
//! abstraction:
//!
//! 1. **Abstract reachability** ([`reach`]) explores `(location, call
//!    stack, predicate valuation)` states breadth-first, pruning branches
//!    whose `assume` contradicts the known predicates. If no error
//!    location is reachable, the program is **safe** (the abstract post
//!    over-approximates the concrete semantics).
//! 2. On reaching an error location, the **abstract counterexample
//!    path** is reconstructed and handed to the configured
//!    [`Reducer`] — the identity (BLAST before this paper) or the
//!    [`slicer::PathSlicer`] (the paper's contribution).
//! 3. The (reduced) trace's feasibility is decided by the SSA encoder
//!    plus the [`lia`] solver. Feasible ⟹ **bug**, with the slice as the
//!    succinct witness a user actually reads (§5). Infeasible ⟹
//!    **refine**: new predicates are mined from the trace's constraint
//!    atoms, mapped back to program lvalues through symbol provenance —
//!    a simplified "abstractions from proofs" refinement (citation 16 in the paper).
//!
//! The loop is bounded by wall-clock and iteration budgets, mirroring
//! the paper's 1000 s-per-check experimental protocol; exceeding them
//! yields [`CheckOutcome::Timeout`], which is exactly how the paper's
//! "without path slicing, the analysis does not scale" manifests here
//! (ablation A1 in `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use blastlite::{check_program, CheckerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ast = imp::parse("global x; fn main() { x = 1; if (x == 2) { error(); } }")?;
//! let program = cfa::lower(&ast)?;
//! let analyses = dataflow::Analyses::build(&program);
//! let reports = check_program(&analyses, CheckerConfig::default());
//! assert!(reports[0].report.outcome.is_safe());
//! # Ok(())
//! # }
//! ```

pub mod abst;
pub mod checker;
pub mod driver;
pub mod reach;
pub mod refine;
pub mod session;

pub use abst::{PredicatePool, Valuation};
pub use checker::{
    check_program, CheckOutcome, CheckReport, Checker, CheckerConfig, ClusterReport, Reducer,
    ReducerSliceOptions, RefutationRound, TimeoutReason, TraceRecord,
};
pub use driver::{
    run_clusters, run_clusters_with, Attempt, ClusterValidator, DriverClusterReport, DriverConfig,
    DriverReport, DriverSummary, RetryPolicy,
};
pub use reach::SearchOrder;
pub use session::{
    config_fingerprint, parse_verdicts, render_slice_edge, render_verdicts, strip_wall_column,
    ClusterDeps, RenderedVerdict, ReuseOutcome, Session, UpdateReport,
};
