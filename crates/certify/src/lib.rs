//! `certify` — self-validating verdicts.
//!
//! Every [`blastlite`] verdict can be packaged as a *certificate*: a
//! machine-checkable evidence payload that an **independent validator**
//! replays with none of the checker's machinery. The checker decides
//! reachability with predicate abstraction over an SSA trace encoding;
//! the validator re-derives each claim with the *other* semantics the
//! workspace already has — the concrete interpreter for bug witnesses
//! and a fresh solver context (plus the substitution-based `WP` of
//! Fig. 3 where it is exact) for safety refutations — so a bug in the
//! shared machinery cannot vouch for itself.
//!
//! * [`CheckOutcome::Bug`] ⟶ [`BugCertificate`]: the abstract path, the
//!   slice, and a concretized witness (initial state + per-edge havoc
//!   oracle from [`semantics::concretize`]). Validation replays the
//!   slice through [`semantics::State::step`] and confirms the slice
//!   actually ends at an error location of the claimed cluster.
//! * [`CheckOutcome::Safe`] ⟶ [`SafeCertificate`]: per refinement
//!   round, the sliced operation sequence and the deletion-minimized
//!   LIA unsat core. Validation re-encodes the slice fresh, selects the
//!   core constraints, and refutes them in a fresh solver context; a
//!   round whose core minimization was cut short (`complete = false`)
//!   is rejected outright — a partial core is not a proof.
//! * [`CheckOutcome::Timeout`] / [`CheckOutcome::InternalError`] ⟶
//!   [`DegradedCertificate`]: the failing phase and the driver's budget
//!   ledger, so degraded verdicts are auditable (which budget ran out,
//!   after how many attempts) even though they prove nothing.
//!
//! Two gates share [`validate`]: [`certify`] for serialized verdicts
//! (journal recovery, `pathslice validate`), and [`validator`], a
//! [`blastlite::ClusterValidator`] for in-process reports (`--validate`,
//! incremental reuse) that downgrades unconfirmed verdicts to
//! [`CheckOutcome::CertificateMismatch`] — a wrong answer is *reported*,
//! never silently trusted. The deterministic certificate-corruption
//! sites ([`FaultSite::CertWitness`], [`FaultSite::CertCore`],
//! [`FaultSite::CertSlice`]) let the chaos suite prove the validator
//! catches exactly the corrupted clusters.
//!
//! # Worked example
//!
//! Check a one-cluster program, certify the verdict, and validate the
//! certificate independently:
//!
//! ```
//! use blastlite::{run_clusters, CheckerConfig, DriverConfig};
//! use certify::{certify_cluster, validate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "global a; fn main() { if (a > 0) { error(); } }";
//! let program = cfa::lower(&imp::parse(src)?)?;
//! let analyses = dataflow::Analyses::build(&program);
//!
//! let report = run_clusters(&program, CheckerConfig::default(), &DriverConfig::sequential());
//! let cluster = &report.clusters[0];
//! assert!(cluster.cluster.report.outcome.is_bug());
//!
//! let cert = certify_cluster(&analyses, cluster)?;
//! let verdict = validate(&analyses, &cert, &cluster.cluster.report.outcome.kind_label());
//! assert!(verdict.is_confirmed());
//! # Ok(())
//! # }
//! ```

use blastlite::{CheckOutcome, ClusterValidator, DriverClusterReport, DriverReport};
use cfa::{CBool, CLval, EdgeId, Op, Program, VarId};
use dataflow::Analyses;
use lia::{Formula, Solver};
use rt::{FaultPlan, FaultSite};
use semantics::wp::{cbool_to_formula, cexpr_to_term};
use semantics::{
    concretize, replay_with_fallback, ConcretizeError, ExecOutcome, State, TraceEncoder, Witness,
};
use std::collections::HashMap;
use std::sync::Arc;

mod gate;
pub mod json;

pub use gate::{certify, Certified, Expect, Rejection, Served};
pub use json::{from_json, to_json, ClusterCert, JsonError, TraceFile};

/// Fuel for the advisory whole-program replay of a bug witness.
const REPLAY_FUEL: usize = 200_000;

/// Evidence for one cluster verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// Evidence for a `Bug` verdict.
    Bug(BugCertificate),
    /// Evidence for a `Safe` verdict.
    Safe(SafeCertificate),
    /// Audit trail for a verdict that proves nothing (`Timeout`,
    /// `InternalError`, or an already-downgraded mismatch).
    Degraded(DegradedCertificate),
}

impl Certificate {
    /// The cluster (function) name the certificate is about.
    pub fn func_name(&self) -> &str {
        match self {
            Certificate::Bug(b) => &b.func_name,
            Certificate::Safe(s) => &s.func_name,
            Certificate::Degraded(d) => &d.func_name,
        }
    }
}

/// A concretized error witness: enough to re-run the bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugCertificate {
    /// The cluster (function) whose error location is reached.
    pub func_name: String,
    /// The abstract counterexample path.
    pub path: Vec<EdgeId>,
    /// The reduced witness (must be a subsequence of `path` ending at an
    /// error location of the cluster).
    pub slice: Vec<EdgeId>,
    /// Non-zero cells of the concretized initial state.
    pub initial: Vec<(VarId, i64)>,
    /// The `nondet()` value drawn at each havoc edge of the slice.
    pub havoc: Vec<(EdgeId, i64)>,
}

/// One refinement round's refutation evidence (mirrors
/// [`blastlite::RefutationRound`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundEvidence {
    /// The sliced operation sequence of the refuted counterexample.
    pub slice: Vec<EdgeId>,
    /// Indices (into `slice`, forward order) of the operations whose
    /// constraints form the unsat core.
    pub core: Vec<usize>,
    /// Whether core minimization ran to completion. Partial cores are
    /// rejected by the validator.
    pub complete: bool,
}

/// Per-round refutation evidence backing a `Safe` verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafeCertificate {
    /// The cluster (function) proven safe.
    pub func_name: String,
    /// One entry per refuted abstract counterexample. May be empty when
    /// abstract reachability never produced a counterexample.
    pub rounds: Vec<RoundEvidence>,
}

/// One driver attempt, as recorded in a degraded verdict's ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// 0-based attempt index.
    pub attempt: usize,
    /// The wall-clock budget the attempt ran under, in milliseconds.
    pub budget_ms: u64,
    /// The reducer used (rendered).
    pub reducer: String,
    /// The attempt's outcome label.
    pub outcome: String,
}

/// The audit trail of a verdict that proves nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedCertificate {
    /// The cluster (function) the check gave up on.
    pub func_name: String,
    /// The final verdict label (includes the timeout reason or failing
    /// phase, e.g. `Timeout(WallClock)` or `InternalError(solve)`).
    pub verdict: String,
    /// The driver's attempt ledger, in attempt order.
    pub ledger: Vec<LedgerEntry>,
}

/// Why a certificate could not be built from a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// The bug witness could not be concretized.
    Concretize(ConcretizeError),
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::Concretize(e) => write!(f, "witness concretization failed: {e}"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// The validator's verdict on a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validation {
    /// Every check the validator could decide passed. `notes` records
    /// advisory observations (e.g. a replay that was inconclusive
    /// because an operation left the exact fragment).
    Confirmed {
        /// Advisory observations.
        notes: Vec<String>,
    },
    /// The evidence does not support the claimed verdict.
    Mismatch {
        /// What failed.
        reason: String,
    },
}

impl Validation {
    /// Whether the certificate was confirmed.
    pub fn is_confirmed(&self) -> bool {
        matches!(self, Validation::Confirmed { .. })
    }
}

fn ledger_of(cluster: &DriverClusterReport) -> Vec<LedgerEntry> {
    cluster
        .attempts
        .iter()
        .map(|a| LedgerEntry {
            attempt: a.attempt,
            budget_ms: a.time_budget.as_millis().min(u64::MAX as u128) as u64,
            reducer: format!("{:?}", a.reducer),
            outcome: a.outcome.kind_label(),
        })
        .collect()
}

/// Builds the certificate for one cluster's final verdict.
///
/// # Errors
///
/// [`CertifyError::Concretize`] when a `Bug` verdict's slice cannot be
/// concretized — which is itself a red flag the caller should surface
/// (the driver's `--validate` mode downgrades it to a mismatch).
pub fn certify_cluster(
    analyses: &Analyses<'_>,
    cluster: &DriverClusterReport,
) -> Result<Certificate, CertifyError> {
    let _span = obs::span!("certify", "cluster {}", cluster.cluster.func_name);
    obs::counter("cert.certificates_built").inc();
    let program = analyses.program();
    let func_name = cluster.cluster.func_name.clone();
    match &cluster.cluster.report.outcome {
        CheckOutcome::Bug { path, slice } => {
            let witness =
                concretize(program, analyses.alias(), slice).map_err(CertifyError::Concretize)?;
            let initial = (0..program.vars().len())
                .map(|i| VarId(i as u32))
                .filter_map(|v| {
                    let val = witness.initial.get(v);
                    (val != 0).then_some((v, val))
                })
                .collect();
            let mut havoc: Vec<(EdgeId, i64)> = witness.havoc_values.into_iter().collect();
            havoc.sort_unstable_by_key(|(e, _)| (e.func.0, e.idx));
            Ok(Certificate::Bug(BugCertificate {
                func_name,
                path: path.edges().to_vec(),
                slice: slice.clone(),
                initial,
                havoc,
            }))
        }
        CheckOutcome::Safe => Ok(Certificate::Safe(SafeCertificate {
            func_name,
            rounds: cluster
                .cluster
                .report
                .rounds
                .iter()
                .map(|r| RoundEvidence {
                    slice: r.slice.clone(),
                    core: r.core.clone(),
                    complete: r.core_complete,
                })
                .collect(),
        })),
        outcome => Ok(Certificate::Degraded(DegradedCertificate {
            func_name,
            verdict: outcome.kind_label(),
            ledger: ledger_of(cluster),
        })),
    }
}

/// Deterministically corrupts a certificate at the plan's
/// certificate-corruption sites, keyed by the cluster name. Returns a
/// description per corruption actually applied, so a chaos test can
/// compute the exact set of clusters whose certificates changed.
pub fn corrupt(cert: &mut Certificate, plan: &FaultPlan) -> Vec<String> {
    let mut applied = Vec::new();
    match cert {
        Certificate::Bug(b) => {
            if plan.fire(FaultSite::CertWitness, &b.func_name).is_some() && !b.slice.is_empty() {
                let dropped = b.slice.pop().expect("checked non-empty");
                b.havoc.retain(|(e, _)| *e != dropped);
                applied.push(format!(
                    "truncated witness of `{}` (dropped {dropped})",
                    b.func_name
                ));
            }
            // Reversal is only a corruption when it changes the sequence.
            if plan.fire(FaultSite::CertSlice, &b.func_name).is_some()
                && b.slice.len() >= 2
                && b.slice.first() != b.slice.last()
            {
                b.slice.reverse();
                applied.push(format!("permuted slice of `{}`", b.func_name));
            }
        }
        Certificate::Safe(s) => {
            if plan.fire(FaultSite::CertCore, &s.func_name).is_some() {
                if let Some(r) = s.rounds.iter_mut().rev().find(|r| !r.core.is_empty()) {
                    let dropped = r.core.pop().expect("checked non-empty");
                    applied.push(format!(
                        "dropped core atom {dropped} from a round of `{}`",
                        s.func_name
                    ));
                }
            }
        }
        Certificate::Degraded(_) => {}
    }
    applied
}

/// Validates a certificate against the program, independently of the
/// checker that produced it. `claimed` is the verdict label the
/// certificate is supposed to support
/// ([`CheckOutcome::kind_label`]-style).
pub fn validate(analyses: &Analyses<'_>, cert: &Certificate, claimed: &str) -> Validation {
    obs::counter("cert.validations").inc();
    let v = validate_inner(analyses, cert, claimed);
    if matches!(v, Validation::Mismatch { .. }) {
        obs::counter("cert.mismatches").inc();
    }
    v
}

fn validate_inner(analyses: &Analyses<'_>, cert: &Certificate, claimed: &str) -> Validation {
    match cert {
        Certificate::Bug(b) => {
            if claimed != "Bug" {
                return mismatch(format!("bug certificate attached to a `{claimed}` verdict"));
            }
            validate_bug(analyses, b)
        }
        Certificate::Safe(s) => {
            if claimed != "Safe" {
                return mismatch(format!(
                    "safety certificate attached to a `{claimed}` verdict"
                ));
            }
            validate_safe(analyses, s)
        }
        Certificate::Degraded(d) => validate_degraded(d, claimed),
    }
}

fn mismatch(reason: String) -> Validation {
    Validation::Mismatch { reason }
}

fn edge_in_program(program: &Program, e: EdgeId) -> bool {
    e.func.index() < program.cfas().len() && (e.idx as usize) < program.cfa(e.func).edges().len()
}

/// Whether replaying `op` through [`State::step`] is *exact* with
/// respect to the constraint semantics the witness was solved under: a
/// stuck result on an exact operation refutes the certificate, while an
/// inexact one (dereferences, array stores, non-linear arithmetic —
/// exactly where the encoder is weak, §5 "Limitations") merely ends the
/// replay inconclusively.
fn op_is_exact(op: &Op) -> bool {
    match op {
        Op::Assign(CLval::Var(_), e) => cexpr_to_term(e).is_some(),
        Op::Assign(..) | Op::ArrStore(..) => false,
        Op::Havoc(CLval::Var(_)) => true,
        Op::Havoc(..) => false,
        Op::Assume(b) => cbool_to_formula(b).is_some(),
        Op::Call(_) | Op::Return => true,
    }
}

fn validate_bug(analyses: &Analyses<'_>, cert: &BugCertificate) -> Validation {
    let program = analyses.program();
    let Some(func) = program.func_id(&cert.func_name) else {
        return mismatch(format!("unknown cluster function `{}`", cert.func_name));
    };
    if cert.slice.is_empty() {
        return mismatch("empty slice".to_owned());
    }
    for &e in cert.path.iter().chain(&cert.slice) {
        if !edge_in_program(program, e) {
            return mismatch(format!("edge {e} does not exist in the program"));
        }
    }
    if !slicer::is_subsequence(&cert.slice, &cert.path) {
        return mismatch("slice is not a subsequence of the claimed path".to_owned());
    }
    let last = *cert.slice.last().expect("checked non-empty");
    let hits = program.edge(last).dst;
    if hits.func != func || !program.cfa(func).error_locs().contains(&hits) {
        return mismatch(format!(
            "slice ends at {hits}, not an error location of `{}`",
            cert.func_name
        ));
    }

    // Rebuild the witness and replay the *slice* operations concretely.
    // The completeness theorem (§3.2) promises the slice is executable
    // from any state satisfying its weakest precondition; the solver
    // model is such a state, so every exact operation must step.
    let mut state = State::zeroed(program);
    for &(v, val) in &cert.initial {
        if v.index() >= program.vars().len() {
            return mismatch(format!("witness binds unknown variable id {}", v.0));
        }
        state.set(v, val);
    }
    let havoc: HashMap<EdgeId, i64> = cert.havoc.iter().copied().collect();
    // One value per havoc edge cannot distinguish loop iterations; only
    // treat a stuck replay as refuting when the slice is iteration-free.
    let mut sorted = cert.slice.clone();
    sorted.sort_unstable_by_key(|e| (e.func.0, e.idx));
    sorted.dedup();
    let repeats_edges = sorted.len() != cert.slice.len();
    let mut notes = Vec::new();
    for &eid in &cert.slice {
        let op = &program.edge(eid).op;
        if matches!(op, Op::Havoc(_)) && !havoc.contains_key(&eid) {
            return mismatch(format!("missing oracle value for havoc edge {eid}"));
        }
        match state.step(op, || havoc.get(&eid).copied().unwrap_or(0)) {
            Ok(()) => {}
            Err(stuck) => {
                if op_is_exact(op) && !repeats_edges {
                    return mismatch(format!(
                        "witness replay of the slice got stuck at {eid} ({stuck:?})"
                    ));
                }
                notes.push(format!(
                    "slice replay inconclusive at {eid} ({stuck:?}, outside the exact fragment)"
                ));
                break;
            }
        }
    }

    // Advisory whole-program replay. A feasible slice guarantees only
    // that some path *variant* reaches the target (§3.2 — "reaches the
    // target or diverges"), and unconstrained `nondet()` edges of the
    // full program may steer into unrelated error sites first, so this
    // never hard-fails the certificate.
    let witness = Witness {
        initial: state_from(program, &cert.initial),
        havoc_values: havoc,
    };
    let run = replay_with_fallback(program, &witness, 0, REPLAY_FUEL);
    match run.outcome {
        ExecOutcome::ReachedError(loc) if loc.func == func => {
            notes.push("whole-program replay reached the target".to_owned());
        }
        other => notes.push(format!(
            "whole-program replay was advisory only (ended with {other:?})"
        )),
    }
    Validation::Confirmed { notes }
}

fn state_from(program: &Program, initial: &[(VarId, i64)]) -> State {
    let mut st = State::zeroed(program);
    for &(v, val) in initial {
        st.set(v, val);
    }
    st
}

fn validate_safe(analyses: &Analyses<'_>, cert: &SafeCertificate) -> Validation {
    let program = analyses.program();
    if program.func_id(&cert.func_name).is_none() {
        return mismatch(format!("unknown cluster function `{}`", cert.func_name));
    }
    let mut notes = Vec::new();
    if cert.rounds.is_empty() {
        notes.push("no refinement rounds: safety rests on abstract reachability alone".to_owned());
    }
    for (ri, round) in cert.rounds.iter().enumerate() {
        if !round.complete {
            return mismatch(format!(
                "round {ri}: partial unsat core (minimization was cut short) is not a proof"
            ));
        }
        if round.core.is_empty() {
            return mismatch(format!("round {ri}: empty unsat core"));
        }
        for &e in &round.slice {
            if !edge_in_program(program, e) {
                return mismatch(format!(
                    "round {ri}: edge {e} does not exist in the program"
                ));
            }
        }
        if round.core.windows(2).any(|w| w[0] >= w[1]) {
            return mismatch(format!("round {ri}: core indices not strictly increasing"));
        }
        if round.core.last().copied().unwrap_or(0) >= round.slice.len() {
            return mismatch(format!("round {ri}: core index out of slice bounds"));
        }

        // Re-encode the slice with a fresh encoder, pick out exactly the
        // constraints the core names, and refute them in a fresh solver
        // context.
        let ops: Vec<&Op> = round.slice.iter().map(|&e| &program.edge(e).op).collect();
        let mut enc = TraceEncoder::new(analyses.alias());
        let mut constraint_of: HashMap<usize, Formula> = HashMap::new();
        for (i, op) in ops.iter().enumerate().rev() {
            let f = enc.op_backward(op);
            if f != Formula::True {
                constraint_of.insert(i, f);
            }
        }
        let mut core_parts = Vec::with_capacity(round.core.len());
        for &i in &round.core {
            match constraint_of.get(&i) {
                Some(f) => core_parts.push(f.clone()),
                None => {
                    return mismatch(format!(
                        "round {ri}: core names operation {i}, which contributes no constraint"
                    ));
                }
            }
        }
        let verdict = Solver::new().check(&Formula::And(core_parts));
        if !verdict.is_unsat() {
            let how = if verdict.is_unknown() {
                "could not be refuted"
            } else {
                "is satisfiable"
            };
            return mismatch(format!("round {ri}: claimed unsat core {how}"));
        }

        // Independent cross-check where the Fig. 3 substitution WP is
        // exact: compute `WP.true` over just the core's operations. Any
        // operation *between* two core members is skipped, which merges
        // its pre/post symbols — a strengthening of the SSA encoding —
        // so a genuine core stays unsatisfiable here too.
        let core_ops = round.core.iter().map(|&i| ops[i]);
        if let Some(wp) = semantics::wp_trace(&CBool::True, core_ops) {
            if let Some(f) = cbool_to_formula(&wp) {
                if Solver::new().check(&f).is_sat() {
                    return mismatch(format!(
                        "round {ri}: WP.true over the core operations is satisfiable"
                    ));
                }
                notes.push(format!("round {ri}: WP cross-check refuted the core"));
            }
        }
    }
    Validation::Confirmed { notes }
}

fn validate_degraded(cert: &DegradedCertificate, claimed: &str) -> Validation {
    if matches!(claimed, "Safe" | "Bug") {
        return mismatch(format!(
            "a degraded certificate proves nothing; it cannot back a `{claimed}` verdict"
        ));
    }
    if cert.verdict != claimed {
        return mismatch(format!(
            "degraded certificate for `{}` attached to a `{claimed}` verdict",
            cert.verdict
        ));
    }
    if cert.ledger.is_empty() {
        return mismatch("degraded verdict with an empty budget ledger".to_owned());
    }
    for (a, b) in cert.ledger.iter().zip(cert.ledger.iter().skip(1)) {
        if b.attempt != a.attempt + 1 {
            return mismatch("budget ledger attempts are not consecutive".to_owned());
        }
        if b.budget_ms < a.budget_ms {
            return mismatch("budget ledger shrinks between retries".to_owned());
        }
    }
    let last = cert.ledger.last().expect("checked non-empty");
    // A mismatch verdict was downgraded *after* the final attempt, so
    // its ledger legitimately ends with the original outcome.
    if !claimed.starts_with("CertificateMismatch") && last.outcome != cert.verdict {
        return mismatch(format!(
            "final verdict `{}` does not match the last attempt's outcome `{}`",
            cert.verdict, last.outcome
        ));
    }
    Validation::Confirmed { notes: Vec::new() }
}

/// Packages build + (optional corruption) + validate as a driver
/// [`ClusterValidator`]: the `--validate` mode. The `plan`'s
/// certificate-corruption sites are applied between building and
/// checking, so a chaos run can prove the validator catches exactly the
/// corrupted clusters; pass a plan with no rules for production use.
pub fn validator(plan: FaultPlan) -> ClusterValidator {
    ClusterValidator(Arc::new(move |analyses, cluster| {
        let outcome = &cluster.cluster.report.outcome;
        if matches!(outcome, CheckOutcome::CertificateMismatch { .. }) {
            return None;
        }
        let claimed = outcome.kind_label();
        let mut cert = match certify_cluster(analyses, cluster) {
            Ok(c) => c,
            Err(e) => {
                return Some(CheckOutcome::CertificateMismatch {
                    claimed,
                    reason: format!("could not build certificate: {e}"),
                });
            }
        };
        corrupt(&mut cert, &plan);
        match validate(analyses, &cert, &claimed) {
            Validation::Confirmed { .. } => None,
            Validation::Mismatch { reason } => {
                Some(CheckOutcome::CertificateMismatch { claimed, reason })
            }
        }
    }))
}

/// Certifies every cluster of a driver run into a portable trace file.
/// Clusters whose certificate cannot be built are recorded as degraded
/// entries with the build error as the verdict's annotation.
pub fn certify_report(analyses: &Analyses<'_>, report: &DriverReport, source: &str) -> TraceFile {
    let clusters = report
        .clusters
        .iter()
        .map(|c| {
            let claimed = c.cluster.report.outcome.kind_label();
            let certificate = certify_cluster(analyses, c).unwrap_or_else(|e| {
                Certificate::Degraded(DegradedCertificate {
                    func_name: c.cluster.func_name.clone(),
                    verdict: format!("Uncertifiable({e})"),
                    ledger: ledger_of(c),
                })
            });
            ClusterCert {
                func_name: c.cluster.func_name.clone(),
                claimed,
                certificate,
            }
        })
        .collect();
    TraceFile {
        source: source.to_owned(),
        clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blastlite::{run_clusters, CheckerConfig, DriverConfig};

    fn driven(src: &str) -> (cfa::Program, Vec<DriverClusterReport>) {
        let p = cfa::lower(&imp::parse(src).unwrap()).unwrap();
        let clusters =
            run_clusters(&p, CheckerConfig::default(), &DriverConfig::sequential()).clusters;
        (p, clusters)
    }

    const BUGGY: &str = "global x; fn main() { local a; a = nondet(); x = a + 1; \
                         if (x > 10) { error(); } }";
    const SAFE: &str = "global x; fn main() { x = 1; x = x + 1; if (x > 5) { error(); } }";

    #[test]
    fn bug_certificate_roundtrips_and_validates() {
        let (p, clusters) = driven(BUGGY);
        let an = Analyses::build(&p);
        let cert = certify_cluster(&an, &clusters[0]).unwrap();
        let Certificate::Bug(b) = &cert else {
            panic!("expected a bug certificate, got {cert:?}");
        };
        assert!(!b.slice.is_empty());
        assert!(validate(&an, &cert, "Bug").is_confirmed());
        // Wrong claim is itself a mismatch.
        assert!(!validate(&an, &cert, "Safe").is_confirmed());
    }

    #[test]
    fn safe_certificate_validates_and_core_drop_is_caught() {
        let (p, clusters) = driven(SAFE);
        let an = Analyses::build(&p);
        let mut cert = certify_cluster(&an, &clusters[0]).unwrap();
        let Certificate::Safe(s) = &cert else {
            panic!("expected a safety certificate, got {cert:?}");
        };
        assert!(!s.rounds.is_empty(), "refinement should have run");
        assert!(validate(&an, &cert, "Safe").is_confirmed());

        let plan =
            FaultPlan::new(1).inject(FaultSite::CertCore, rt::FaultKind::CorruptCertificate, 1.0);
        let applied = corrupt(&mut cert, &plan);
        assert_eq!(applied.len(), 1, "{applied:?}");
        assert!(!validate(&an, &cert, "Safe").is_confirmed());
    }

    #[test]
    fn witness_truncation_and_slice_permutation_are_caught() {
        let (p, clusters) = driven(BUGGY);
        let an = Analyses::build(&p);
        let base = certify_cluster(&an, &clusters[0]).unwrap();

        let mut truncated = base.clone();
        let plan = FaultPlan::new(2).inject(
            FaultSite::CertWitness,
            rt::FaultKind::CorruptCertificate,
            1.0,
        );
        assert_eq!(corrupt(&mut truncated, &plan).len(), 1);
        assert!(!validate(&an, &truncated, "Bug").is_confirmed());

        let mut permuted = base.clone();
        let plan =
            FaultPlan::new(3).inject(FaultSite::CertSlice, rt::FaultKind::CorruptCertificate, 1.0);
        if corrupt(&mut permuted, &plan).is_empty() {
            // Degenerate slice (too short to permute): nothing to assert.
            return;
        }
        assert!(!validate(&an, &permuted, "Bug").is_confirmed());
    }

    #[test]
    fn missing_oracle_value_is_a_structured_mismatch() {
        let (p, clusters) = driven(BUGGY);
        let an = Analyses::build(&p);
        let Certificate::Bug(mut b) = certify_cluster(&an, &clusters[0]).unwrap() else {
            panic!("expected bug");
        };
        b.havoc.clear();
        let v = validate(&an, &Certificate::Bug(b), "Bug");
        let Validation::Mismatch { reason } = v else {
            panic!("expected mismatch, got {v:?}");
        };
        assert!(reason.contains("missing oracle value"), "{reason}");
    }

    #[test]
    fn degraded_ledger_is_audited() {
        let good = DegradedCertificate {
            func_name: "main".into(),
            verdict: "Timeout(WallClock)".into(),
            ledger: vec![
                LedgerEntry {
                    attempt: 0,
                    budget_ms: 100,
                    reducer: "Identity".into(),
                    outcome: "Timeout(WallClock)".into(),
                },
                LedgerEntry {
                    attempt: 1,
                    budget_ms: 200,
                    reducer: "Identity".into(),
                    outcome: "Timeout(WallClock)".into(),
                },
            ],
        };
        assert!(validate_degraded(&good, "Timeout(WallClock)").is_confirmed());

        let mut shrinking = good.clone();
        shrinking.ledger[1].budget_ms = 50;
        assert!(!validate_degraded(&shrinking, "Timeout(WallClock)").is_confirmed());

        let mut empty = good.clone();
        empty.ledger.clear();
        assert!(!validate_degraded(&empty, "Timeout(WallClock)").is_confirmed());

        let mut wrong_tail = good.clone();
        wrong_tail.ledger[1].outcome = "Safe".into();
        assert!(!validate_degraded(&wrong_tail, "Timeout(WallClock)").is_confirmed());

        // A well-formed ledger proves nothing, so it never backs a
        // stable verdict, however consistently it claims one.
        let mut claims_safe = good;
        claims_safe.verdict = "Safe".into();
        for entry in &mut claims_safe.ledger {
            entry.outcome = "Safe".into();
        }
        assert!(!validate_degraded(&claims_safe, "Safe").is_confirmed());
    }

    #[test]
    fn validator_in_the_driver_confirms_clean_runs() {
        let p = cfa::lower(&imp::parse(BUGGY).unwrap()).unwrap();
        let driver = DriverConfig::sequential().with_validator(validator(FaultPlan::new(0)));
        let r = run_clusters(&p, CheckerConfig::default(), &driver);
        assert!(
            r.clusters[0].cluster.report.outcome.is_bug(),
            "{:?}",
            r.clusters[0].cluster.report.outcome
        );
    }
}
