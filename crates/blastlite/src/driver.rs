//! The fault-tolerant verification driver — the batch layer the paper's
//! §5 protocol implies: hundreds of per-function checks under a global
//! cap where individual failures are tolerated and *reported*, never
//! fatal.
//!
//! The driver runs check clusters (one per function with error sites, as
//! in [`crate::check_program`]) on worker threads and adds, on top of
//! the plain checker:
//!
//! * **panic isolation** — each attempt runs inside
//!   [`rt::catch_unwind_silent`]; a panic anywhere in the stack becomes
//!   [`CheckOutcome::InternalError`] for that cluster only.
//! * **cooperative cancellation** — a shared [`CancelToken`] threads
//!   through every solver inner loop, reachability expansion, and slicer
//!   pass via the [`rt::Budget`] plumbing.
//! * **graceful degradation** — a declarative [`RetryPolicy`]: on
//!   `SolverGaveUp`/`NoProgress`/`InternalError`, re-attempt with a
//!   capped exponentially escalated budget and a progressively cheaper
//!   configuration (full slicing → no early-unsat → identity reducer).
//! * **deterministic fault injection** — an [`rt::FaultPlan`] whose
//!   decisions depend only on `(seed, site, cluster)`, so chaos runs are
//!   reproducible at any `jobs` count.
//!
//! Verdicts are deterministic across `jobs` counts as long as no check
//! runs near its wall-clock budget: every cluster is checked in full by
//! a single worker against one shared [`Analyses`] (whose `By` memo
//! table is order-independent), and fault decisions ignore scheduling
//! entirely.

use crate::checker::{
    CheckOutcome, CheckReport, Checker, CheckerConfig, ClusterReport, Reducer, ReducerSliceOptions,
    TimeoutReason,
};
use cfa::{FuncId, Loc, Program};
use dataflow::Analyses;
use rt::{
    catch_unwind_silent, panic_payload, Budget, CancelToken, FaultKind, FaultPlan, FaultSite,
};
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The declarative retry/degradation ladder.
///
/// Attempt 0 runs the caller's configuration unchanged. Each retry
/// multiplies the wall-clock budget by [`RetryPolicy::budget_factor`]
/// (capped at [`RetryPolicy::budget_cap`]) and degrades the reducer one
/// rung: full slicing → slicing without early-unsat → identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = never retry).
    pub max_retries: usize,
    /// Budget multiplier per retry.
    pub budget_factor: u32,
    /// Upper bound on the escalated per-attempt budget (never shrinks a
    /// base budget that already exceeds it).
    pub budget_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            budget_factor: 2,
            budget_cap: Duration::from_secs(600),
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `n` retries with the default escalation.
    pub fn retries(n: usize) -> Self {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::default()
        }
    }

    /// The checker configuration for 0-based `attempt`.
    pub fn config_for(&self, base: &CheckerConfig, attempt: usize) -> CheckerConfig {
        let mut cfg = *base;
        let cap = self.budget_cap.max(base.time_budget);
        for _ in 0..attempt {
            cfg.time_budget = cfg.time_budget.saturating_mul(self.budget_factor).min(cap);
        }
        cfg.reducer = match (attempt, base.reducer) {
            (0, r) => r,
            (1, Reducer::PathSlice(o)) => Reducer::PathSlice(ReducerSliceOptions {
                early_unsat: false,
                ..o
            }),
            (_, Reducer::PathSlice(_)) => Reducer::Identity,
            (_, r) => r,
        };
        cfg
    }

    /// Whether `outcome` of 0-based `attempt` warrants another attempt.
    pub fn should_retry(&self, outcome: &CheckOutcome, attempt: usize) -> bool {
        attempt < self.max_retries
            && matches!(
                outcome,
                CheckOutcome::Timeout(TimeoutReason::SolverGaveUp | TimeoutReason::NoProgress)
                    | CheckOutcome::InternalError { .. }
            )
    }
}

/// The validator hook's function signature (see [`ClusterValidator`]).
pub type ValidatorFn =
    dyn Fn(&Analyses<'_>, &DriverClusterReport) -> Option<CheckOutcome> + Send + Sync;

/// A certificate validator run on every worker result (`--validate`
/// mode). Returns `None` when the verdict's evidence checks out, or
/// `Some(downgraded outcome)` — normally
/// [`CheckOutcome::CertificateMismatch`] — when it does not. The
/// concrete validator lives in the `certify` crate (which depends on
/// this one); the driver only owns the hook.
#[derive(Clone)]
pub struct ClusterValidator(pub Arc<ValidatorFn>);

impl fmt::Debug for ClusterValidator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ClusterValidator(..)")
    }
}

/// Driver-level knobs, orthogonal to the per-check [`CheckerConfig`].
#[derive(Debug, Clone, Default)]
pub struct DriverConfig {
    /// Worker threads (0 or 1 = run on the calling thread).
    pub jobs: usize,
    /// The retry/degradation ladder.
    pub retry: RetryPolicy,
    /// Deterministic fault injection; the default plan injects nothing.
    pub faults: FaultPlan,
    /// Cooperative cancellation for the whole run.
    pub cancel: Option<CancelToken>,
    /// Hard wall-clock deadline for the whole run (request-level, on top
    /// of each attempt's own `time_budget`). Attempts still running at
    /// the deadline are interrupted through the same [`Budget`] plumbing
    /// as cancellation; the server wires per-connection deadlines here.
    pub deadline: Option<Instant>,
    /// When set, every cluster's final verdict is re-checked against its
    /// certificate and mismatches are downgraded — never silently
    /// trusted.
    pub validator: Option<ClusterValidator>,
}

impl DriverConfig {
    /// A sequential, no-retry, no-fault configuration.
    pub fn sequential() -> Self {
        DriverConfig::default()
    }

    /// Sets the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the fault plan (chaos testing).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables certificate validation of every worker result.
    pub fn with_validator(mut self, validator: ClusterValidator) -> Self {
        self.validator = Some(validator);
        self
    }

    /// Sets a hard run-level deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// One driver attempt at a cluster.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// 0-based attempt index.
    pub attempt: usize,
    /// The wall-clock budget this attempt ran under.
    pub time_budget: Duration,
    /// The reducer this attempt used.
    pub reducer: Reducer,
    /// This attempt's outcome.
    pub outcome: CheckOutcome,
}

/// A cluster's final report plus the driver's attempt history.
#[derive(Debug, Clone)]
pub struct DriverClusterReport {
    /// The final attempt's report, in [`crate::check_program`] shape.
    pub cluster: ClusterReport,
    /// Every attempt, in order; the last one's outcome is the final
    /// verdict.
    pub attempts: Vec<Attempt>,
}

/// The result of one driver run.
#[derive(Debug)]
pub struct DriverReport {
    /// Per-cluster results, in program ([`cfa::FuncId`]) order —
    /// independent of scheduling.
    pub clusters: Vec<DriverClusterReport>,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// Worker threads actually used.
    pub jobs: usize,
}

impl DriverClusterReport {
    /// Retry attempts beyond the first (0 = the first attempt stood).
    pub fn retries(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// Whether the final verdict came from a degraded configuration —
    /// a retry that swapped the reducer for a cheaper rung of the
    /// ladder (budget-only escalations do not count).
    pub fn degraded(&self) -> bool {
        match (self.attempts.first(), self.attempts.last()) {
            (Some(first), Some(last)) => last.reducer != first.reducer,
            _ => false,
        }
    }
}

/// Aggregate attempt accounting for one driver run, so degraded runs
/// are visible in summaries without parsing `InternalError` payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriverSummary {
    /// Clusters checked.
    pub clusters: usize,
    /// Retry attempts beyond each cluster's first (total re-runs).
    pub retries: usize,
    /// Clusters that needed at least one retry.
    pub retried_clusters: usize,
    /// Clusters whose final verdict came from a degraded reducer.
    pub degraded_clusters: usize,
    /// Clusters whose final outcome is an `InternalError`.
    pub internal_errors: usize,
}

impl fmt::Display for DriverSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cluster(s): {} retry(ies) across {} cluster(s), {} degraded, {} internal error(s)",
            self.clusters,
            self.retries,
            self.retried_clusters,
            self.degraded_clusters,
            self.internal_errors
        )
    }
}

impl DriverReport {
    /// The per-cluster reports, shaped like [`crate::check_program`]'s
    /// return value.
    pub fn into_cluster_reports(self) -> Vec<ClusterReport> {
        self.clusters.into_iter().map(|c| c.cluster).collect()
    }

    /// Iterates the final verdicts as `(function name, outcome)`.
    pub fn verdicts(&self) -> impl Iterator<Item = (&str, &CheckOutcome)> {
        self.clusters
            .iter()
            .map(|c| (c.cluster.func_name.as_str(), &c.cluster.report.outcome))
    }

    /// Attempt accounting across the whole run.
    pub fn summary(&self) -> DriverSummary {
        let mut s = DriverSummary {
            clusters: self.clusters.len(),
            ..DriverSummary::default()
        };
        for c in &self.clusters {
            s.retries += c.retries();
            s.retried_clusters += usize::from(c.retries() > 0);
            s.degraded_clusters += usize::from(c.degraded());
            s.internal_errors += usize::from(matches!(
                c.cluster.report.outcome,
                CheckOutcome::InternalError { .. }
            ));
        }
        s
    }
}

/// Runs one check per function containing error locations — the same
/// clustering as [`crate::check_program`] — on `driver.jobs` worker
/// threads, with panic isolation, retry escalation, and fault injection.
pub fn run_clusters(
    program: &Program,
    config: CheckerConfig,
    driver: &DriverConfig,
) -> DriverReport {
    // One Analyses serves every worker (its By memo table is behind a
    // Mutex), so adding jobs never duplicates the dataflow fixpoints.
    let analyses = Analyses::build(program);
    run_clusters_with(&analyses, config, driver)
}

/// [`run_clusters`] over prebuilt analyses. This is the entry point for
/// long-lived callers ([`crate::Session`], the server's analysis cache):
/// the `Analyses` fixpoints — and the `By` memo table they accumulate —
/// survive across calls instead of being recomputed per run.
pub fn run_clusters_with(
    analyses: &Analyses<'_>,
    config: CheckerConfig,
    driver: &DriverConfig,
) -> DriverReport {
    let subset: Vec<FuncId> = analyses.program().cfas().iter().map(|c| c.func()).collect();
    run_cluster_subset(analyses, config, driver, &subset)
}

/// [`run_clusters_with`] restricted to the clusters of `subset`: the
/// incremental session re-runs only the clusters it could not reuse.
/// Functions without error locations are skipped (their clusters do not
/// exist); results come back in `subset` order.
pub(crate) fn run_cluster_subset(
    analyses: &Analyses<'_>,
    config: CheckerConfig,
    driver: &DriverConfig,
    subset: &[FuncId],
) -> DriverReport {
    let t0 = Instant::now();
    let program = analyses.program();
    let clusters: Vec<(FuncId, String, Vec<Loc>)> = subset
        .iter()
        .filter(|&&f| !program.cfa(f).error_locs().is_empty())
        .map(|&f| {
            let c = program.cfa(f);
            (f, c.name().to_owned(), c.error_locs().to_vec())
        })
        .collect();
    let jobs = driver.jobs.max(1).min(clusters.len().max(1));

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<DriverClusterReport>>> =
        clusters.iter().map(|_| Mutex::new(None)).collect();
    let work = |analyses: &Analyses<'_>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= clusters.len() {
            break;
        }
        let (func, name, locs) = &clusters[i];
        let (report, attempts) = run_cluster(analyses, &config, driver, name, locs);
        let mut cluster = DriverClusterReport {
            cluster: ClusterReport {
                func: *func,
                func_name: name.clone(),
                n_sites: locs.len(),
                report,
            },
            attempts,
        };
        if let Some(downgraded) = validate_cluster(analyses, driver, &cluster) {
            cluster.cluster.report.outcome = downgraded;
        }
        // A poisoned slot only means another worker panicked while
        // holding this (uncontended, assignment-only) lock; the data is
        // still a plain `Option` write, so recover rather than cascade.
        *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(cluster);
    };

    if jobs <= 1 {
        work(analyses);
    } else {
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| work(analyses));
            }
        });
    }

    DriverReport {
        clusters: results
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                m.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .unwrap_or_else(|| {
                        // A slot can only stay empty if a worker died
                        // outside its panic-catching region; report it
                        // as the cluster's outcome instead of sinking
                        // the whole batch.
                        let (func, name, locs) = &clusters[i];
                        DriverClusterReport {
                            cluster: ClusterReport {
                                func: *func,
                                func_name: name.clone(),
                                n_sites: locs.len(),
                                report: CheckReport {
                                    outcome: CheckOutcome::InternalError {
                                        payload: "worker produced no result for this cluster"
                                            .to_owned(),
                                        phase: "driver".to_owned(),
                                    },
                                    refinements: 0,
                                    traces: Vec::new(),
                                    rounds: Vec::new(),
                                    wall: Duration::ZERO,
                                    n_predicates: 0,
                                    abstract_states: 0,
                                },
                            },
                            attempts: Vec::new(),
                        }
                    })
            })
            .collect(),
        wall: t0.elapsed(),
        jobs,
    }
}

/// Runs the configured validator (if any) on a finished cluster, inside
/// its own panic-catching region: a validator crash becomes an
/// `InternalError` in the `validate` phase, so `--validate` mode can
/// never be killed by its own reporting code. Returns the downgraded
/// outcome, or `None` when the certificate checks out (or no validator
/// is configured).
fn validate_cluster(
    analyses: &Analyses<'_>,
    driver: &DriverConfig,
    cluster: &DriverClusterReport,
) -> Option<CheckOutcome> {
    let validator = driver.validator.as_ref()?;
    let _span = obs::span!("validate", "cluster {}", cluster.cluster.func_name);
    match catch_unwind_silent(|| (validator.0)(analyses, cluster)) {
        Ok(verdict) => verdict,
        Err(payload) => Some(CheckOutcome::InternalError {
            payload: panic_payload(&*payload),
            phase: "validate".to_owned(),
        }),
    }
}

/// Runs the retry ladder for one cluster.
fn run_cluster(
    analyses: &Analyses<'_>,
    base: &CheckerConfig,
    driver: &DriverConfig,
    name: &str,
    targets: &[Loc],
) -> (CheckReport, Vec<Attempt>) {
    let mut attempts = Vec::new();
    let mut attempt = 0usize;
    loop {
        let cfg = driver.retry.config_for(base, attempt);
        let report = run_attempt(analyses, &cfg, driver, name, targets);
        attempts.push(Attempt {
            attempt,
            time_budget: cfg.time_budget,
            reducer: cfg.reducer,
            outcome: report.outcome.clone(),
        });
        if !driver.retry.should_retry(&report.outcome, attempt) {
            return (report, attempts);
        }
        obs::counter("driver.retries").inc();
        attempt += 1;
    }
}

/// One isolated attempt: fault-injection gates, then the checker, all
/// inside a panic-catching region.
fn run_attempt(
    analyses: &Analyses<'_>,
    cfg: &CheckerConfig,
    driver: &DriverConfig,
    name: &str,
    targets: &[Loc],
) -> CheckReport {
    let _span = obs::span!("attempt", "cluster {name}");
    let t0 = Instant::now();
    let mut outer = match driver.deadline {
        Some(deadline) => Budget::until(deadline),
        None => Budget::unlimited(),
    };
    if let Some(token) = &driver.cancel {
        outer = outer.with_token(token.clone());
    }
    // Injected faults are modelled at phase boundaries: each site is
    // consulted (deterministically, keyed by the cluster name) before
    // the phase it represents would run; `fire` panics for Panic-kind
    // rules, landing in the catch below with the phase recorded here.
    let phase = Cell::new("cluster");
    let forced = |reason: TimeoutReason| CheckReport {
        outcome: CheckOutcome::Timeout(reason),
        refinements: 0,
        traces: Vec::new(),
        rounds: Vec::new(),
        wall: t0.elapsed(),
        n_predicates: 0,
        abstract_states: 0,
    };
    let result = catch_unwind_silent(|| {
        const GATES: [(FaultSite, &str); 4] = [
            (FaultSite::ClusterStart, "cluster"),
            (FaultSite::ReachStep, "reach"),
            (FaultSite::SlicePass, "slice"),
            (FaultSite::SolverCheck, "solve"),
        ];
        for (site, ph) in GATES {
            phase.set(ph);
            match driver.faults.fire(site, name) {
                Some(FaultKind::SolverUnknown) => {
                    obs::counter("driver.faults_forced").inc();
                    return forced(TimeoutReason::SolverGaveUp);
                }
                Some(FaultKind::BudgetExhaust) => {
                    obs::counter("driver.faults_forced").inc();
                    return forced(if site == FaultSite::ReachStep {
                        TimeoutReason::StateBudget
                    } else {
                        TimeoutReason::WallClock
                    });
                }
                Some(FaultKind::Panic) => unreachable!("fire panics for Panic rules"),
                // A Stall already slept inside `fire`; the phase then
                // proceeds normally (latency moved, verdict didn't).
                // Certificate corruption is applied by `certify::corrupt`
                // and the I/O kinds by the journal/wire layers, not at
                // the checker gates; a plan that routes them here is
                // simply inert for this phase.
                Some(
                    FaultKind::Stall
                    | FaultKind::CorruptCertificate
                    | FaultKind::TornWrite
                    | FaultKind::IoError,
                )
                | None => {}
            }
        }
        phase.set("check");
        Checker::new(analyses, *cfg).check_under(targets, &outer)
    });
    obs::histogram("driver.attempt_us").observe(t0.elapsed().as_micros() as u64);
    match result {
        Ok(report) => report,
        Err(payload) => {
            obs::counter("driver.panics_isolated").inc();
            CheckReport {
                outcome: CheckOutcome::InternalError {
                    payload: panic_payload(&*payload),
                    phase: phase.get().to_owned(),
                },
                refinements: 0,
                traces: Vec::new(),
                rounds: Vec::new(),
                wall: t0.elapsed(),
                n_predicates: 0,
                abstract_states: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_CLUSTERS: &str = r#"
        global a, x;
        fn f() { if (a > 0) { error(); } }
        fn g() { x = 1; if (x == 2) { error(); } }
        fn main() { f(); g(); }
    "#;

    fn setup(src: &str) -> Program {
        cfa::lower(&imp::parse(src).unwrap()).unwrap()
    }

    fn verdict_kinds(r: &DriverReport) -> Vec<String> {
        r.verdicts()
            .map(|(name, o)| format!("{name}:{}", kind(o)))
            .collect()
    }

    fn kind(o: &CheckOutcome) -> &'static str {
        match o {
            CheckOutcome::Safe => "safe",
            CheckOutcome::Bug { .. } => "bug",
            CheckOutcome::Timeout(_) => "timeout",
            CheckOutcome::InternalError { .. } => "internal",
            CheckOutcome::CertificateMismatch { .. } => "mismatch",
        }
    }

    #[test]
    fn driver_matches_sequential_check_program() {
        let p = setup(TWO_CLUSTERS);
        let an = Analyses::build(&p);
        let plain = crate::check_program(&an, CheckerConfig::default());
        for jobs in [1, 4] {
            let driven = run_clusters(
                &p,
                CheckerConfig::default(),
                &DriverConfig::sequential().with_jobs(jobs),
            );
            assert_eq!(driven.clusters.len(), plain.len());
            for (d, s) in driven.clusters.iter().zip(&plain) {
                assert_eq!(d.cluster.func_name, s.func_name);
                assert_eq!(kind(&d.cluster.report.outcome), kind(&s.report.outcome));
                assert_eq!(d.attempts.len(), 1);
            }
        }
    }

    #[test]
    fn injected_panic_is_isolated_to_its_cluster() {
        let p = setup(TWO_CLUSTERS);
        let faults = FaultPlan::new(1).inject(FaultSite::ClusterStart, FaultKind::Panic, 1.0);
        let only_f = FaultPlan::new(1); // fault-free control
        let clean = run_clusters(
            &p,
            CheckerConfig::default(),
            &DriverConfig::sequential().with_faults(only_f),
        );
        let chaotic = run_clusters(
            &p,
            CheckerConfig::default(),
            &DriverConfig::sequential().with_faults(faults),
        );
        assert_eq!(verdict_kinds(&clean), vec!["f:bug", "g:safe"]);
        // Rate 1.0 faults every cluster; both become InternalError with
        // the injection payload, and the run still completes.
        for c in &chaotic.clusters {
            let CheckOutcome::InternalError { payload, phase } = &c.cluster.report.outcome else {
                panic!("expected InternalError, got {:?}", c.cluster.report.outcome);
            };
            assert!(payload.contains("injected fault"), "{payload}");
            assert_eq!(phase, "cluster");
        }
    }

    #[test]
    fn retry_ladder_escalates_budget_and_degrades_reducer() {
        let p = setup(TWO_CLUSTERS);
        // SolverUnknown at the solver gate fires on every attempt (the
        // decision is keyed by cluster name only), so the ladder runs to
        // exhaustion and we can observe every rung.
        let faults =
            FaultPlan::new(3).inject(FaultSite::SolverCheck, FaultKind::SolverUnknown, 1.0);
        let base = CheckerConfig {
            time_budget: Duration::from_secs(10),
            ..CheckerConfig::default()
        };
        let driver = DriverConfig::sequential()
            .with_faults(faults)
            .with_retry(RetryPolicy::retries(2));
        let r = run_clusters(&p, base, &driver);
        for c in &r.clusters {
            assert!(matches!(
                c.cluster.report.outcome,
                CheckOutcome::Timeout(TimeoutReason::SolverGaveUp)
            ));
            assert_eq!(c.attempts.len(), 3);
            assert_eq!(c.attempts[0].time_budget, Duration::from_secs(10));
            assert_eq!(c.attempts[1].time_budget, Duration::from_secs(20));
            assert_eq!(c.attempts[2].time_budget, Duration::from_secs(40));
            assert_eq!(c.attempts[0].reducer, Reducer::path_slice());
            assert!(matches!(
                c.attempts[1].reducer,
                Reducer::PathSlice(o) if !o.early_unsat
            ));
            assert_eq!(c.attempts[2].reducer, Reducer::Identity);
        }
    }

    #[test]
    fn budget_escalation_is_capped() {
        let policy = RetryPolicy {
            max_retries: 10,
            budget_factor: 10,
            budget_cap: Duration::from_secs(30),
        };
        let base = CheckerConfig {
            time_budget: Duration::from_secs(4),
            ..CheckerConfig::default()
        };
        assert_eq!(
            policy.config_for(&base, 1).time_budget,
            Duration::from_secs(30)
        );
        assert_eq!(
            policy.config_for(&base, 9).time_budget,
            Duration::from_secs(30)
        );
        // A base budget above the cap is never shrunk.
        let big = CheckerConfig {
            time_budget: Duration::from_secs(100),
            ..CheckerConfig::default()
        };
        assert_eq!(
            policy.config_for(&big, 3).time_budget,
            Duration::from_secs(100)
        );
    }

    #[test]
    fn cancellation_stops_every_cluster() {
        let p = setup(TWO_CLUSTERS);
        let token = CancelToken::new();
        token.cancel();
        let driver = DriverConfig {
            cancel: Some(token),
            ..DriverConfig::default()
        };
        let r = run_clusters(&p, CheckerConfig::default(), &driver);
        for c in &r.clusters {
            assert!(
                matches!(
                    c.cluster.report.outcome,
                    CheckOutcome::Timeout(TimeoutReason::Cancelled)
                ),
                "{:?}",
                c.cluster.report.outcome
            );
        }
    }

    #[test]
    fn validator_downgrades_mismatches_and_keeps_attempt_history() {
        let p = setup(TWO_CLUSTERS);
        let reject_bugs = ClusterValidator(Arc::new(|_an, c: &DriverClusterReport| {
            if c.cluster.report.outcome.is_bug() {
                Some(CheckOutcome::CertificateMismatch {
                    claimed: "Bug".to_owned(),
                    reason: "rejected by test validator".to_owned(),
                })
            } else {
                None
            }
        }));
        let r = run_clusters(
            &p,
            CheckerConfig::default(),
            &DriverConfig::sequential().with_validator(reject_bugs),
        );
        assert_eq!(verdict_kinds(&r), vec!["f:mismatch", "g:safe"]);
        // The attempt ledger still records what the checker itself said.
        assert!(r.clusters[0].attempts.last().unwrap().outcome.is_bug());
    }

    #[test]
    fn validator_panics_become_internal_errors_in_the_validate_phase() {
        let p = setup(TWO_CLUSTERS);
        let panicky = ClusterValidator(Arc::new(|_an, _c: &DriverClusterReport| {
            panic!("validator exploded")
        }));
        let r = run_clusters(
            &p,
            CheckerConfig::default(),
            &DriverConfig::sequential().with_validator(panicky),
        );
        for c in &r.clusters {
            let CheckOutcome::InternalError { payload, phase } = &c.cluster.report.outcome else {
                panic!("expected InternalError, got {:?}", c.cluster.report.outcome);
            };
            assert_eq!(phase, "validate");
            assert!(payload.contains("validator exploded"), "{payload}");
        }
    }

    #[test]
    fn bug_and_safe_verdicts_never_retry() {
        let p = setup(TWO_CLUSTERS);
        let driver = DriverConfig::sequential().with_retry(RetryPolicy::retries(3));
        let r = run_clusters(&p, CheckerConfig::default(), &driver);
        for c in &r.clusters {
            assert_eq!(c.attempts.len(), 1, "{:?}", c.cluster.report.outcome);
        }
    }
}
