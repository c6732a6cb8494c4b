//! A reusable check session: one compiled program plus its cached
//! dataflow analyses, shareable across many driver runs — and, since
//! the incremental derivation graph (`incr`) landed, the unit of
//! *edit-to-edit* reuse.
//!
//! Every entry point used to redo the same setup per invocation: parse,
//! lower, validate, `Analyses::build`, then check. A [`Session`] does
//! that setup once and keeps the [`Analyses`] — including the lazily
//! memoized `By` relation — alive across calls, so a long-running caller
//! (the `pathslice serve` daemon, a REPL, a bench harness) pays the
//! fixpoint cost once per *program*, not once per *request*. The batch
//! CLI path (`pathslice check`) runs on the same object, so there is
//! exactly one code path from source text to verdicts.
//!
//! Sessions are content-addressed at two granularities:
//!
//! * [`Session::key`] — FNV-1a over the whole resolved program
//!   ([`incr::hash::ast_key`]); two requests that differ only in
//!   whitespace or comments share one cache entry.
//! * per-function [`incr::cfa_key`]s plus per-cluster [`incr::dep_key`]s
//!   — what [`Session::update`] diffs to answer *which clusters did this
//!   edit invalidate* and what [`Session::check_incremental`] consults
//!   to reuse a prior cluster verdict without re-running its check.
//!
//! Each cluster's memo entry is keyed by its `dep_key` *and* the
//! [`config_fingerprint`] of the checker configuration it was derived
//! under: the same cluster checked without slicing, depth-first, or
//! under another budget may carry different evidence, so it is a
//! different entry. Verdict reuse is **certificate-gated**: a stored
//! verdict is transplanted only when a caller-supplied
//! [`ClusterValidator`] (normally `certify::validator`) re-validates its
//! evidence against the *current* analyses. No gate ⇒ no reuse. A stale
//! or corrupt entry therefore costs warmth (the cluster re-runs cold),
//! never correctness.

use crate::checker::{CheckOutcome, CheckerConfig, ClusterReport, RefutationRound};
use crate::driver::{
    run_cluster_subset, ClusterValidator, DriverClusterReport, DriverConfig, DriverReport,
    RetryPolicy,
};
use cfa::{EdgeId, FuncId, Program};
use dataflow::{Analyses, BuildReuse};
use rt::{FaultKind, FaultSite};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One check cluster's node in the derivation graph: its dependency set
/// ([`incr::cluster_deps`]) and the memo key ([`incr::dep_key`]) its
/// stored verdict is addressed by.
#[derive(Debug, Clone)]
pub struct ClusterDeps {
    /// The cluster's root function (the one whose error sites are
    /// checked).
    pub func: FuncId,
    /// Its source name.
    pub name: String,
    /// Every function whose body can influence this cluster's verdict,
    /// sorted by [`FuncId`].
    pub members: Vec<FuncId>,
    /// The verdict memo key: member names + their structural
    /// [`incr::cfa_key`]s + the program's alias fingerprint.
    pub dep_key: u64,
}

/// A memoized cluster verdict, addressed by the [`incr::dep_key`] and
/// the [`config_fingerprint`] it was produced under.
#[derive(Debug, Clone)]
struct StoredCluster {
    dep_key: u64,
    fingerprint: u64,
    report: DriverClusterReport,
}

/// Fingerprint of the configuration a check runs under — the second
/// half of a stored verdict's memo key, and the `fp` of its journal
/// record. Covers everything that can change a verdict or its evidence:
/// the whole [`CheckerConfig`] (reducer, search order, time budget,
/// refinement and state bounds, predicate scoping), the retry ladder,
/// and whether a validator is attached. A run's deadline, cancellation
/// token, worker count and fault plan are properties of one call, not
/// of its result, and are left out.
pub fn config_fingerprint(config: &CheckerConfig, driver: &DriverConfig) -> u64 {
    let CheckerConfig {
        reducer,
        max_refinements,
        max_states,
        time_budget,
        search_order,
        scoped_predicates,
    } = config;
    let RetryPolicy {
        max_retries,
        budget_factor,
        budget_cap,
    } = driver.retry;
    let text = format!(
        "reducer={reducer:?} order={search_order:?} budget_us={} refinements={max_refinements} \
         states={max_states} scoped={scoped_predicates} retries={max_retries} \
         factor={budget_factor} cap_us={} validate={}",
        time_budget.as_micros(),
        budget_cap.as_micros(),
        driver.validator.is_some()
    );
    incr::hash::fnv64(text.as_bytes())
}

/// What [`Session::update`] reused from the previous session.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// The update fell back to a cold compile (first build, a
    /// declaration-level edit, or a session without a shape).
    pub cold: bool,
    /// Functions whose structural [`incr::cfa_key`]s were unchanged by
    /// the edit (the derivation graph's function-level hit count).
    pub fn_hits: usize,
    /// Names of functions whose bodies the edit changed.
    pub changed_functions: Vec<String>,
    /// Clusters whose stored verdicts were carried into the new session
    /// (their `dep_key`s were untouched by the edit), each still under
    /// the fingerprint it was produced with.
    pub carried_clusters: usize,
    /// Clusters the edit invalidated (their dependency set contains a
    /// changed function, or they are new).
    pub invalidated_clusters: usize,
    /// What `Analyses::build_with_reuse` reused below the verdict layer.
    pub reuse: BuildReuse,
}

/// What one [`Session::check_incremental`] run reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseOutcome {
    /// Clusters whose stored verdicts passed the certificate gate and
    /// were transplanted without re-running the check.
    pub verdict_reused: usize,
    /// Stored verdicts the gate *rejected* (stale or corrupt evidence);
    /// each fell back to a cold re-check.
    pub cert_rejected: usize,
    /// Clusters actually re-run.
    pub recomputed: usize,
}

/// A compiled program with long-lived analyses and a per-cluster verdict
/// memo.
///
/// The struct is self-referential (`analyses` borrows `program`); the
/// program lives in a `Box`, so its address is stable for the session's
/// lifetime, and the field order guarantees the analyses drop first.
#[derive(Debug)]
pub struct Session {
    /// Declared before `program`: dropped first, so the borrow it holds
    /// never dangles.
    analyses: Analyses<'static>,
    program: Box<Program>,
    source: String,
    key: u64,
    /// Function-granular content identity; `None` for sessions built
    /// from an already-lowered program (no AST to diff — `update` falls
    /// back to a cold compile).
    shape: Option<incr::Shape>,
    /// [`incr::cfa_key`] per function, indexed by [`FuncId::index`].
    fn_keys: Vec<u64>,
    /// Per-cluster dependency sets and memo keys, in [`FuncId`] order.
    clusters: Vec<ClusterDeps>,
    /// Stored verdicts by cluster root, one per cluster, each tagged
    /// with the `dep_key` and configuration fingerprint it was produced
    /// under.
    store: Mutex<HashMap<FuncId, StoredCluster>>,
}

impl Session {
    /// Compiles IMP source into a session. `origin` labels front-end
    /// errors (a file path, or `"<request>"` for wire traffic) exactly
    /// like the CLI does, so batch and served checks report identically.
    ///
    /// # Errors
    ///
    /// Returns the rendered front-end error (with source snippet and
    /// caret) on parse, lowering, or validation failure.
    pub fn compile(src: &str, origin: &str) -> Result<Session, String> {
        let ast = imp::parse(src).map_err(|e| format!("{origin}: {}", e.render(src)))?;
        let shape = incr::Shape::of_ast(&ast);
        let program = cfa::lower(&ast).map_err(|e| format!("{origin}: {e}"))?;
        cfa::validate(&program).map_err(|e| format!("{origin}: {e}"))?;
        let key = shape.key();
        Ok(Session::cold(program, src, key, Some(shape)))
    }

    /// Wraps an already-lowered program (keyed by its pretty-printed
    /// source text) — for callers that generate programs directly. The
    /// session has no shape, so [`Session::update`] on it always falls
    /// back to a cold compile.
    pub fn from_program(program: Program, source: &str) -> Session {
        let key = incr::hash::fnv64(source.as_bytes());
        Session::cold(program, source, key, None)
    }

    fn cold(program: Program, source: &str, key: u64, shape: Option<incr::Shape>) -> Session {
        let program = Box::new(program);
        // SAFETY: `pref` points into the boxed program, whose heap
        // address is stable however the `Session` itself moves, and the
        // `analyses` field is declared (hence dropped) before `program`.
        // The `'static` borrow never escapes this struct: every accessor
        // reborrows it at `&self`'s lifetime.
        let pref: &'static Program = unsafe { &*(program.as_ref() as *const Program) };
        let analyses = Analyses::build(pref);
        let fn_keys = incr::function_keys(pref);
        let clusters = derive_clusters(&analyses, &fn_keys);
        Session {
            analyses,
            program,
            source: source.to_owned(),
            key,
            shape,
            fn_keys,
            clusters,
            store: Mutex::new(HashMap::new()),
        }
    }

    /// Rebuilds the session for an edited source, reusing every
    /// derivation-graph node the edit did not invalidate: unchanged
    /// CFAs, their dataflow fixpoints, and the stored verdicts of
    /// clusters whose [`incr::dep_key`]s are untouched.
    ///
    /// Falls back to a cold [`Session::compile`] — reported via
    /// [`UpdateReport::cold`] — when the old session has no shape or the
    /// edit changed declarations (globals, arrays, or any function
    /// signature/locals), where function-granular diffing is not
    /// meaningful.
    ///
    /// # Errors
    ///
    /// The rendered front-end error, as in [`Session::compile`].
    pub fn update(
        old: &Session,
        src: &str,
        origin: &str,
    ) -> Result<(Session, UpdateReport), String> {
        let ast = imp::parse(src).map_err(|e| format!("{origin}: {}", e.render(src)))?;
        let shape = incr::Shape::of_ast(&ast);
        let changed = old.shape.as_ref().and_then(|o| shape.changed_since(o));
        let Some(changed) = changed else {
            let session = Session::compile(src, origin)?;
            return Ok((
                session,
                UpdateReport {
                    cold: true,
                    ..UpdateReport::default()
                },
            ));
        };
        let program = cfa::lower(&ast).map_err(|e| format!("{origin}: {e}"))?;
        cfa::validate(&program).map_err(|e| format!("{origin}: {e}"))?;
        let key = shape.key();

        let program = Box::new(program);
        // SAFETY: as in `Session::cold`.
        let pref: &'static Program = unsafe { &*(program.as_ref() as *const Program) };
        let fn_keys = incr::function_keys(pref);
        // Equal skeletons guarantee the same function list in the same
        // order, so FuncIds line up index-for-index between versions.
        let same_cfa: Vec<bool> = fn_keys
            .iter()
            .zip(&old.fn_keys)
            .map(|(n, o)| n == o)
            .collect();
        let fn_hits = same_cfa.iter().filter(|&&b| b).count();
        obs::counter("incr.fn_hits").add(fn_hits as u64);
        let (analyses, reuse) = Analyses::build_with_reuse(pref, &old.analyses, &same_cfa);
        obs::counter("incr.cfa_reused").add(reuse.cfa_reused as u64);
        obs::counter("incr.fixpoint_reused").add(reuse.fixpoint_reused as u64);

        let clusters = derive_clusters(&analyses, &fn_keys);
        let old_keys: HashMap<FuncId, u64> =
            old.clusters.iter().map(|c| (c.func, c.dep_key)).collect();
        let old_store = old.store.lock().unwrap_or_else(|p| p.into_inner());
        let mut store = HashMap::new();
        let mut carried = 0usize;
        let mut invalidated = 0usize;
        for c in &clusters {
            if old_keys.get(&c.func) != Some(&c.dep_key) {
                invalidated += 1;
                continue;
            }
            let Some(s) = old_store.get(&c.func).filter(|s| s.dep_key == c.dep_key) else {
                continue;
            };
            // Equal dep_keys make every member CFA structurally
            // identical, so the report's locations, edges, and slices
            // transplant verbatim, under the fingerprint they were
            // produced with.
            store.insert(c.func, s.clone());
            carried += 1;
        }
        drop(old_store);
        obs::counter("incr.invalidated_clusters").add(invalidated as u64);

        Ok((
            Session {
                analyses,
                program,
                source: src.to_owned(),
                key,
                shape: Some(shape),
                fn_keys,
                clusters,
                store: Mutex::new(store),
            },
            UpdateReport {
                cold: false,
                fn_hits,
                changed_functions: changed,
                carried_clusters: carried,
                invalidated_clusters: invalidated,
                reuse,
            },
        ))
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The cached analyses (covariance shortens the internal `'static`
    /// borrow to `&self`'s lifetime).
    pub fn analyses<'s>(&'s self) -> &'s Analyses<'s> {
        &self.analyses
    }

    /// The source text the session was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The content key: FNV-1a over the resolved program.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The function-granular content identity, when the session was
    /// compiled from source.
    pub fn shape(&self) -> Option<&incr::Shape> {
        self.shape.as_ref()
    }

    /// Per-cluster dependency sets and memo keys, in [`FuncId`] order.
    pub fn cluster_deps(&self) -> &[ClusterDeps] {
        &self.clusters
    }

    /// Runs the fault-tolerant driver over this session's program,
    /// reusing the cached analyses (and whatever `By` memo entries
    /// earlier checks populated). Every cluster re-runs — verdict-level
    /// reuse requires the certificate gate of
    /// [`Session::check_incremental`].
    pub fn check(&self, config: CheckerConfig, driver: &DriverConfig) -> DriverReport {
        self.check_incremental(config, driver, None).0
    }

    /// [`Session::check`] with certificate-gated verdict reuse.
    ///
    /// For each cluster whose stored verdict matches both its current
    /// `dep_key` and the [`config_fingerprint`] of `config` and
    /// `driver`, the verdict is a *candidate*: `gate` re-validates its
    /// evidence against the current analyses (after the
    /// [`FaultSite::IncrReuse`] chaos hook has had its chance to corrupt
    /// the candidate), and only a confirmed candidate is transplanted.
    /// Rejected or unmatched clusters re-run cold, exactly as
    /// [`Session::check`] would run them.
    ///
    /// `gate: None` disables reuse entirely (every cluster re-runs),
    /// keeping the no-gate path byte-identical to the pre-incremental
    /// driver. Either way every stable verdict is stored for later runs.
    pub fn check_incremental(
        &self,
        config: CheckerConfig,
        driver: &DriverConfig,
        gate: Option<&ClusterValidator>,
    ) -> (DriverReport, ReuseOutcome) {
        let t0 = Instant::now();
        let fingerprint = config_fingerprint(&config, driver);
        let mut outcome = ReuseOutcome::default();
        let mut reused: HashMap<FuncId, DriverClusterReport> = HashMap::new();
        let mut to_run: Vec<FuncId> = Vec::new();
        {
            let store = self.store.lock().unwrap_or_else(|p| p.into_inner());
            for c in &self.clusters {
                let stored = store.get(&c.func).filter(|s| {
                    s.dep_key == c.dep_key
                        && s.fingerprint == fingerprint
                        && matches!(
                            s.report.cluster.report.outcome,
                            CheckOutcome::Safe | CheckOutcome::Bug { .. }
                        )
                });
                let (Some(gate), Some(stored)) = (gate, stored) else {
                    to_run.push(c.func);
                    continue;
                };
                let mut candidate = stored.report.clone();
                if matches!(
                    driver.faults.fire(FaultSite::IncrReuse, &c.name),
                    Some(FaultKind::CorruptCertificate)
                ) {
                    corrupt_stored(&mut candidate);
                }
                // The gate runs arbitrary validator code; treat a panic
                // as a rejection so one bad certificate cannot kill the
                // whole check.
                let verdict = rt::catch_unwind_silent(|| (gate.0)(&self.analyses, &candidate));
                match verdict {
                    Ok(None) => {
                        obs::counter("incr.verdict_reused").inc();
                        outcome.verdict_reused += 1;
                        reused.insert(c.func, candidate);
                    }
                    Ok(Some(_)) | Err(_) => {
                        obs::counter("incr.cert_rejected").inc();
                        outcome.cert_rejected += 1;
                        to_run.push(c.func);
                    }
                }
            }
        }

        outcome.recomputed = to_run.len();
        let fresh = run_cluster_subset(&self.analyses, config, driver, &to_run);
        let jobs = fresh.jobs;
        let mut fresh_iter = fresh.clusters.into_iter();
        let clusters: Vec<DriverClusterReport> = self
            .clusters
            .iter()
            .map(|c| match reused.remove(&c.func) {
                Some(r) => r,
                None => fresh_iter
                    .next()
                    .expect("driver returns one report per requested cluster"),
            })
            .collect();

        let mut store = self.store.lock().unwrap_or_else(|p| p.into_inner());
        for (c, r) in self.clusters.iter().zip(&clusters) {
            match r.cluster.report.outcome {
                // Only stable verdicts are memoized: a Timeout or
                // InternalError might succeed on a re-run, and a
                // CertificateMismatch is by definition unconfirmed.
                CheckOutcome::Safe | CheckOutcome::Bug { .. } => {
                    store.insert(
                        c.func,
                        StoredCluster {
                            dep_key: c.dep_key,
                            fingerprint,
                            report: r.clone(),
                        },
                    );
                }
                _ => {
                    store.remove(&c.func);
                }
            }
        }
        drop(store);

        (
            DriverReport {
                clusters,
                wall: t0.elapsed(),
                jobs,
            },
            outcome,
        )
    }

    /// Stores cluster verdicts this session did not derive in the memo
    /// under `fingerprint`, as if a check under that configuration had
    /// produced them: journal recovery fills a recompiled session from
    /// the trace the certificate gate admitted. Like every stored
    /// verdict, each is served only after [`Session::check_incremental`]'s
    /// gate re-validates it. Reports that are not `SAFE`/`BUG`, or whose
    /// function has no cluster here, are skipped.
    pub fn store_certified(&self, fingerprint: u64, reports: Vec<DriverClusterReport>) {
        let mut store = self.store.lock().unwrap_or_else(|p| p.into_inner());
        for report in reports {
            let cluster = self.clusters.iter().find(|c| c.func == report.cluster.func);
            let stable = matches!(
                report.cluster.report.outcome,
                CheckOutcome::Safe | CheckOutcome::Bug { .. }
            );
            if let (Some(c), true) = (cluster, stable) {
                let dep_key = c.dep_key;
                store.insert(
                    c.func,
                    StoredCluster {
                        dep_key,
                        fingerprint,
                        report,
                    },
                );
            }
        }
    }
}

/// Builds the per-cluster dependency sets and memo keys for a freshly
/// analyzed program.
fn derive_clusters(analyses: &Analyses<'_>, fn_keys: &[u64]) -> Vec<ClusterDeps> {
    let program = analyses.program();
    let alias_fp = incr::alias_fingerprint(analyses);
    program
        .cfas()
        .iter()
        .filter(|c| !c.error_locs().is_empty())
        .map(|c| {
            let members = incr::cluster_deps(analyses, c.func());
            let dep_key = incr::dep_key(program, fn_keys, &members, alias_fp);
            ClusterDeps {
                func: c.func(),
                name: c.name().to_owned(),
                members,
                dep_key,
            }
        })
        .collect()
}

/// The [`FaultSite::IncrReuse`] corruption: damages a reuse candidate's
/// evidence in a way the certificate gate is *guaranteed* to detect, so
/// chaos drills prove the gate is load-bearing.
///
/// * `Safe` — pop one atom from the last non-empty refutation core.
///   Deletion-minimized cores are 1-minimal, so the remainder is
///   satisfiable and re-refutation fails. A report with no rounds gets a
///   bogus empty round instead (rejected as an empty core).
/// * `Bug` — drop the slice's final edge: the slice no longer ends at an
///   error location (or becomes empty), which replay rejects.
fn corrupt_stored(report: &mut DriverClusterReport) {
    let r = &mut report.cluster.report;
    match &mut r.outcome {
        CheckOutcome::Safe => {
            match r
                .rounds
                .iter_mut()
                .rev()
                .find(|round| !round.core.is_empty())
            {
                Some(round) => {
                    round.core.pop();
                }
                None => r.rounds.push(RefutationRound {
                    slice: Vec::new(),
                    core: Vec::new(),
                    core_complete: true,
                }),
            }
        }
        CheckOutcome::Bug { slice, .. } => {
            slice.pop();
        }
        _ => {}
    }
}

/// Indent of the lines under a verdict header (headers start at column 0).
const BODY_INDENT: &str = "    ";

/// Renders cluster verdicts exactly as `pathslice check` prints them and
/// computes the process exit code (0 safe, 1 bug, 2 timeout/internal,
/// 3 certificate mismatch). One function so the CLI and the server are
/// byte-identical by construction; [`parse_verdicts`] reads it back.
pub fn render_verdicts(program: &Program, reports: &[ClusterReport]) -> (String, i32) {
    let mut out = String::new();
    let mut worst = 0;
    for r in reports {
        let (verdict, exit) = r.report.outcome.verdict();
        worst = worst.max(exit);
        let _ = writeln!(
            out,
            "{:<24} {:>4} site(s)  {:<18} {:>3} refinement(s)  {:?}",
            r.func_name, r.n_sites, verdict, r.report.refinements, r.report.wall
        );
        if let CheckOutcome::Bug { slice, .. } = &r.report.outcome {
            for &e in slice {
                let _ = writeln!(out, "{BODY_INDENT}{}", render_slice_edge(program, e));
            }
        }
        if let CheckOutcome::CertificateMismatch { reason, .. } = &r.report.outcome {
            let _ = writeln!(out, "{BODY_INDENT}certificate rejected: {reason}");
        }
    }
    (out, worst)
}

/// The line [`render_verdicts`] prints under a `BUG` header for slice
/// edge `e` (which must be in `program`), without its indent.
pub fn render_slice_edge(program: &Program, e: EdgeId) -> String {
    format!(
        "{:<16} {}",
        program.cfa(e.func).name(),
        program.fmt_op(&program.edge(e).op)
    )
}

/// One cluster of a [`render_verdicts`] rendering, read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedVerdict<'a> {
    /// The cluster's function.
    pub func: &'a str,
    /// Its label, as [`CheckOutcome::verdict`] names it.
    pub label: &'a str,
    /// The lines under the header, unindented: a `BUG`'s slice edges
    /// ([`render_slice_edge`]), a `MISMATCH`'s reason, or none.
    pub body: Vec<&'a str>,
}

/// Reads a [`render_verdicts`] rendering back, one entry per cluster in
/// order; `None` if `render` is not in that format.
pub fn parse_verdicts(render: &str) -> Option<Vec<RenderedVerdict<'_>>> {
    let mut verdicts: Vec<RenderedVerdict<'_>> = Vec::new();
    for line in render.lines() {
        if let Some(body) = line.strip_prefix(BODY_INDENT) {
            verdicts.last_mut()?.body.push(body);
            continue;
        }
        // `<func> <n> site(s) <label> <n> refinement(s) <wall>`
        let mut words = line.split_whitespace();
        let (func, label, body) = (words.next()?, words.nth(2)?, Vec::new());
        verdicts.push(RenderedVerdict { func, label, body });
    }
    Some(verdicts)
}

/// A [`render_verdicts`] rendering as parity checks compare it: each
/// header line loses its trailing wall-clock column (real elapsed time,
/// the one field two honest runs may disagree on), and the indented
/// lines under it — a `BUG`'s slice, a `MISMATCH`'s reason — are kept
/// verbatim.
pub fn strip_wall_column(render: &str) -> Vec<String> {
    render
        .lines()
        .map(|line| {
            if line.starts_with(BODY_INDENT) {
                line
            } else {
                line.rsplit_once("  ").map_or(line, |(head, _)| head)
            }
        })
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_clusters;
    use std::sync::Arc;

    const SRC: &str = r#"
        global a, x;
        fn f() { if (a > 0) { error(); } }
        fn g() { x = 1; if (x == 2) { error(); } }
        fn main() { f(); g(); }
    "#;

    #[test]
    fn session_check_matches_run_clusters() {
        let session = Session::compile(SRC, "<test>").unwrap();
        let program = cfa::lower(&imp::parse(SRC).unwrap()).unwrap();
        let plain = run_clusters(
            &program,
            CheckerConfig::default(),
            &DriverConfig::sequential(),
        );
        for _ in 0..2 {
            // Twice: the second run hits the warmed By memo table.
            let driven = session.check(CheckerConfig::default(), &DriverConfig::sequential());
            let (a, code_a) = render_verdicts(
                session.program(),
                &plain
                    .clusters
                    .iter()
                    .map(|c| c.cluster.clone())
                    .collect::<Vec<_>>(),
            );
            let (b, code_b) = render_verdicts(
                session.program(),
                &driven
                    .clusters
                    .iter()
                    .map(|c| c.cluster.clone())
                    .collect::<Vec<_>>(),
            );
            assert_eq!(code_a, code_b);
            assert_eq!(strip_wall_column(&a), strip_wall_column(&b));
        }
    }

    #[test]
    fn parse_verdicts_reads_render_verdicts_back() {
        let session = Session::compile(SRC, "<test>").unwrap();
        let mut reports: Vec<ClusterReport> = session
            .check(CheckerConfig::default(), &DriverConfig::sequential())
            .clusters
            .into_iter()
            .map(|c| c.cluster)
            .collect();
        for outcome in [
            CheckOutcome::Timeout(crate::TimeoutReason::WallClock),
            CheckOutcome::InternalError {
                payload: "boom".into(),
                phase: "reach".into(),
            },
            CheckOutcome::CertificateMismatch {
                claimed: "Bug".into(),
                reason: "empty slice".into(),
            },
        ] {
            let mut r = reports[0].clone();
            r.report.outcome = outcome;
            reports.push(r);
        }
        let (render, _) = render_verdicts(session.program(), &reports);
        let parsed = parse_verdicts(&render).expect("render_verdicts output parses");
        assert_eq!(parsed.len(), reports.len());
        let mut stable = Vec::new();
        for (r, p) in reports.iter().zip(&parsed) {
            let (label, exit) = r.report.outcome.verdict();
            assert_eq!((p.func, p.label), (r.func_name.as_str(), label.as_str()));
            let body: Vec<String> = match &r.report.outcome {
                CheckOutcome::Bug { slice, .. } => slice
                    .iter()
                    .map(|&e| render_slice_edge(session.program(), e))
                    .collect(),
                CheckOutcome::CertificateMismatch { reason, .. } => {
                    vec![format!("certificate rejected: {reason}")]
                }
                _ => Vec::new(),
            };
            assert_eq!(p.body, body, "{render}");
            // The label mapping the certificate gate binds with agrees
            // with the one the render was written with.
            let kind = r.report.outcome.kind_label();
            let is_stable = r.report.outcome.is_safe() || r.report.outcome.is_bug();
            assert_eq!(
                CheckOutcome::stable_kind(&label),
                is_stable.then_some((kind.as_str(), exit))
            );
            if is_stable {
                stable.push(kind);
            }
        }
        stable.sort();
        stable.dedup();
        assert_eq!(stable, ["Bug", "Safe"], "{render}");
        assert_eq!(parse_verdicts("    indented first line"), None);
    }

    #[test]
    fn strip_wall_column_drops_the_wall_and_keeps_the_slice() {
        let session = Session::compile(SRC, "<test>").unwrap();
        let reports: Vec<ClusterReport> = session
            .check(CheckerConfig::default(), &DriverConfig::sequential())
            .clusters
            .into_iter()
            .map(|c| c.cluster)
            .collect();
        let (render, _) = render_verdicts(session.program(), &reports);
        let slice_line = render
            .lines()
            .find(|l| l.starts_with(BODY_INDENT) && l.contains("assume(a > 0)"))
            .expect("f is BUG through its guard");
        // The same verdicts, one slice operation changed.
        let edited = slice_line.replace('0', "7");
        assert_ne!(edited, slice_line, "{slice_line}");
        let other = render.replace(slice_line, &edited);
        assert_ne!(strip_wall_column(&render), strip_wall_column(&other));
        // The same verdicts, other wall times.
        let mut slower = reports.clone();
        for r in &mut slower {
            r.report.wall += std::time::Duration::from_millis(250);
        }
        let (slower, _) = render_verdicts(session.program(), &slower);
        assert_ne!(slower, render);
        assert_eq!(strip_wall_column(&slower), strip_wall_column(&render));
    }

    #[test]
    fn content_key_ignores_formatting() {
        let a = Session::compile("global x;\nfn main() { x = 1; }", "<a>").unwrap();
        let b = Session::compile("global x;   \n\n fn main() {\n x = 1;\n }", "<b>").unwrap();
        let c = Session::compile("global x;\nfn main() { x = 2; }", "<c>").unwrap();
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn compile_errors_carry_the_origin() {
        let err = Session::compile("fn main() {", "somefile.imp").unwrap_err();
        assert!(err.starts_with("somefile.imp:"), "{err}");
    }

    #[test]
    fn deadline_in_the_past_times_out_every_cluster() {
        use crate::checker::TimeoutReason;
        let session = Session::compile(SRC, "<test>").unwrap();
        let driver = DriverConfig::sequential()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let r = session.check(CheckerConfig::default(), &driver);
        for c in &r.clusters {
            assert!(
                matches!(
                    c.cluster.report.outcome,
                    CheckOutcome::Timeout(TimeoutReason::WallClock)
                ),
                "{:?}",
                c.cluster.report.outcome
            );
        }
    }

    /// An accept-everything gate: reuse is decided purely by dep_keys.
    fn accept_all() -> ClusterValidator {
        ClusterValidator(Arc::new(|_, _| None))
    }

    #[test]
    fn update_reuses_untouched_clusters() {
        let old = Session::compile(SRC, "<old>").unwrap();
        let _ = old.check(CheckerConfig::default(), &DriverConfig::sequential());
        // Edit g only: f's cluster dep set is {f, main} and main's body
        // is untouched, so f's verdict carries.
        let edited = SRC.replace("x == 2", "x == 1");
        let (new, up) = Session::update(&old, &edited, "<new>").unwrap();
        assert!(!up.cold);
        assert_eq!(up.changed_functions, vec!["g".to_owned()]);
        assert_eq!(up.carried_clusters, 1);
        assert_eq!(up.invalidated_clusters, 1);
        let gate = accept_all();
        let (report, reuse) = new.check_incremental(
            CheckerConfig::default(),
            &DriverConfig::sequential(),
            Some(&gate),
        );
        assert_eq!(reuse.verdict_reused, 1);
        assert_eq!(reuse.recomputed, 1);
        // g's bug is now real (x == 1 after x = 1).
        let kinds: Vec<_> = report
            .verdicts()
            .map(|(n, o)| format!("{n}:{}", if o.is_bug() { "bug" } else { "safe" }))
            .collect();
        assert_eq!(kinds, vec!["f:bug", "g:bug"]);
    }

    #[test]
    fn no_gate_means_no_reuse() {
        let session = Session::compile(SRC, "<test>").unwrap();
        let _ = session.check(CheckerConfig::default(), &DriverConfig::sequential());
        let (_, reuse) =
            session.check_incremental(CheckerConfig::default(), &DriverConfig::sequential(), None);
        assert_eq!(reuse.verdict_reused, 0);
        assert_eq!(reuse.recomputed, 2);
    }

    /// A verdict stored under one configuration is not a verdict for
    /// another: the identity reducer's unsliced evidence must never be
    /// served to a path-slicing request for the same clusters.
    #[test]
    fn memo_keys_on_the_checker_configuration() {
        let session = Session::compile(SRC, "<test>").unwrap();
        let gate = accept_all();
        let driver = DriverConfig::sequential();
        let identity = CheckerConfig {
            reducer: crate::Reducer::Identity,
            ..CheckerConfig::default()
        };
        let (_, first) = session.check_incremental(identity, &driver, Some(&gate));
        assert_eq!(first.recomputed, 2);
        let (_, other) = session.check_incremental(CheckerConfig::default(), &driver, Some(&gate));
        assert_eq!(other.verdict_reused, 0, "{other:?}");
        assert_eq!(other.recomputed, 2, "{other:?}");
        let (_, same) = session.check_incremental(CheckerConfig::default(), &driver, Some(&gate));
        assert_eq!(same.verdict_reused, 2, "{same:?}");
    }

    #[test]
    fn declaration_edit_falls_back_cold() {
        let old = Session::compile(SRC, "<old>").unwrap();
        let (new, up) = Session::update(
            &old,
            &SRC.replace("global a, x;", "global a, x, y;"),
            "<new>",
        )
        .unwrap();
        assert!(up.cold);
        assert_eq!(up.carried_clusters, 0);
        assert!(new.shape().is_some());
    }

    #[test]
    fn from_program_updates_cold() {
        let program = cfa::lower(&imp::parse(SRC).unwrap()).unwrap();
        let old = Session::from_program(program, SRC);
        assert!(old.shape().is_none());
        let (_, up) = Session::update(&old, SRC, "<new>").unwrap();
        assert!(up.cold);
    }
}
