//! The certificate gate for serialized verdicts: journal recovery and
//! `pathslice validate` trust a verdict they did not derive only
//! through [`certify`]. A trace vouches for its own claims;
//! [`Expect::served`] also binds the verdict served next to it to those
//! claims (DESIGN.md §7).

use crate::{
    corrupt, edge_in_program, from_json, validate, Certificate, ClusterCert, JsonError, TraceFile,
    Validation,
};
use blastlite::{
    parse_verdicts, render_slice_edge, CheckOutcome, CheckReport, ClusterReport,
    DriverClusterReport, RefutationRound, Session,
};
use cfa::{Path, Program};
use rt::{FaultKind, FaultPlan, FaultSite};
use std::time::Duration;

/// A verdict about to be served on a trace's word.
#[derive(Debug, Clone, Copy)]
pub struct Served<'a> {
    /// `pathslice check` exit code.
    pub exit: i32,
    /// The verdicts as `pathslice check` renders them.
    pub render: &'a str,
    /// `(function, label)` per cluster in trace order, labels as served.
    pub clusters: &'a [(&'a str, &'a str)],
}

/// What a caller requires of a trace beyond its own consistency.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expect<'a> {
    /// The content key the embedded source must compile to.
    pub key: Option<u64>,
    /// The verdict to bind to the evidence; `None` audits the trace
    /// alone, reporting every cluster's validation instead of rejecting.
    pub served: Option<Served<'a>>,
    /// Chaos hook: corrupt the evidence, then reject whatever the
    /// validator says.
    pub corrupt: bool,
}

/// A trace that passed the gate.
#[derive(Debug)]
pub struct Certified {
    /// The recompiled embedded source.
    pub session: Session,
    /// The parsed trace.
    pub trace: TraceFile,
    /// Validation per cluster, in trace order (all confirmed when a
    /// served verdict was bound).
    pub results: Vec<Validation>,
}

impl Certified {
    /// The inverse of [`certify_cluster`](crate::certify_cluster): one
    /// driver report per traced cluster, rebuilt from its certificate —
    /// a `BUG`'s path and slice, a `SAFE`'s refutation rounds — so the
    /// recompiled session can hold the verdict like one it derived.
    /// `effort` gives each cluster's refinement count and wall time, in
    /// trace order: the columns no certificate covers.
    ///
    /// # Errors
    ///
    /// [`Rejection::ClusterCount`] when `effort` does not cover every
    /// cluster; [`Rejection::Invalid`] for a cluster whose function is
    /// not in the program, whose `BUG` path is not a program path
    /// ([`Path::new`]), or whose certificate proves nothing.
    pub fn cluster_reports(
        &self,
        effort: &[(usize, Duration)],
    ) -> Result<Vec<DriverClusterReport>, Rejection> {
        if effort.len() != self.trace.clusters.len() {
            return Err(Rejection::ClusterCount(
                effort.len(),
                self.trace.clusters.len(),
            ));
        }
        let program = self.session.program();
        let rebuild = |c: &ClusterCert, (refinements, wall): (usize, Duration)| {
            let invalid = |why: String| Rejection::Invalid(c.func_name.clone(), why);
            let func = program
                .func_id(&c.func_name)
                .ok_or_else(|| invalid("no such function".into()))?;
            let (outcome, rounds) = match &c.certificate {
                Certificate::Bug(b) => {
                    let path = Path::new(program, b.path.clone())
                        .map_err(|e| invalid(format!("path: {e}")))?;
                    let slice = b.slice.clone();
                    (CheckOutcome::Bug { path, slice }, Vec::new())
                }
                Certificate::Safe(s) => {
                    let rounds = s.rounds.iter().map(|r| RefutationRound {
                        slice: r.slice.clone(),
                        core: r.core.clone(),
                        core_complete: r.complete,
                    });
                    (CheckOutcome::Safe, rounds.collect())
                }
                Certificate::Degraded(_) => {
                    return Err(invalid("a degraded certificate backs no verdict".into()))
                }
            };
            Ok(DriverClusterReport {
                cluster: ClusterReport {
                    func,
                    func_name: c.func_name.clone(),
                    n_sites: program.cfa(func).error_locs().len(),
                    report: CheckReport {
                        outcome,
                        refinements,
                        traces: Vec::new(),
                        rounds,
                        wall,
                        n_predicates: 0,
                        abstract_states: 0,
                    },
                },
                attempts: Vec::new(),
            })
        };
        self.trace
            .clusters
            .iter()
            .zip(effort)
            .map(|(c, &e)| rebuild(c, e))
            .collect()
    }
}

/// Why the gate refused a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// Not a `pathslice-trace/v1` document.
    Unparseable(JsonError),
    /// The embedded source does not compile (rendered front-end error).
    Uncompilable(String),
    /// The source compiles to another content key: `(expected, actual)`.
    KeyMismatch(u64, u64),
    /// Served and traced cluster counts differ: `(served, trace)`.
    ClusterCount(usize, usize),
    /// A served name, label, rendered line, or exit code disagrees with
    /// the trace's claims, or a label is not `SAFE` or `BUG`.
    Unbound(String),
    /// The chaos hook corrupted the evidence.
    Corrupted(String),
    /// A cluster certificate does not re-validate: `(func, reason)`.
    Invalid(String, String),
}

/// Runs a serialized verdict through the gate: parse the trace,
/// recompile its embedded source (`origin` labels front-end errors),
/// check the expected key, cluster count and served claims, apply the
/// corruption hook, and re-validate every cluster.
///
/// # Errors
///
/// The first check that failed. Without [`Expect::served`], a failing
/// certificate is reported in [`Certified::results`] instead.
pub fn certify(
    trace_json: &str,
    origin: &str,
    expect: &Expect<'_>,
) -> Result<Certified, Rejection> {
    let mut trace = from_json(trace_json).map_err(Rejection::Unparseable)?;
    let session = Session::compile(&trace.source, origin).map_err(Rejection::Uncompilable)?;
    if let Some(expected) = expect.key.filter(|&k| k != session.key()) {
        return Err(Rejection::KeyMismatch(expected, session.key()));
    }
    if let Some(served) = &expect.served {
        bind(served, &trace, session.program())?;
    }
    if expect.corrupt {
        // Damage the evidence as a real bit-flip would and reject either
        // way: injection promises deterministic counters, so evidence
        // the schedule happens not to change must not make drills flaky.
        let plan = FaultPlan::new(0)
            .inject(FaultSite::CertWitness, FaultKind::CorruptCertificate, 1.0)
            .inject(FaultSite::CertCore, FaultKind::CorruptCertificate, 1.0)
            .inject(FaultSite::CertSlice, FaultKind::CorruptCertificate, 1.0);
        for c in &mut trace.clusters {
            corrupt(&mut c.certificate, &plan);
            if let Validation::Mismatch { reason } =
                validate(session.analyses(), &c.certificate, &c.claimed)
            {
                return Err(Rejection::Corrupted(reason));
            }
        }
        return Err(Rejection::Corrupted("immune; rejected by policy".into()));
    }
    let mut results = Vec::with_capacity(trace.clusters.len());
    for c in &trace.clusters {
        let v = validate(session.analyses(), &c.certificate, &c.claimed);
        if let (Some(_), Validation::Mismatch { reason }) = (&expect.served, &v) {
            return Err(Rejection::Invalid(c.func_name.clone(), reason.clone()));
        }
        results.push(v);
    }
    Ok(Certified {
        session,
        trace,
        results,
    })
}

/// Binds the served verdict to the trace's claims, cluster by cluster:
/// name, stable label, the rendered header and the lines under it (a
/// `BUG`'s certificate slice, nothing else), and the exit code.
fn bind(served: &Served<'_>, trace: &TraceFile, program: &Program) -> Result<(), Rejection> {
    let n = served.clusters.len();
    if n != trace.clusters.len() {
        return Err(Rejection::ClusterCount(n, trace.clusters.len()));
    }
    let unbound = |why: String| Err(Rejection::Unbound(why));
    let Some(rendered) = parse_verdicts(served.render).filter(|r| r.len() == n) else {
        return unbound(format!("render does not report {n} cluster verdicts"));
    };
    let mut implied = 0;
    for ((&(func, label), c), r) in served.clusters.iter().zip(&trace.clusters).zip(&rendered) {
        let Some((claim, exit)) = CheckOutcome::stable_kind(label) else {
            return unbound(format!("served label `{label}` is not SAFE or BUG"));
        };
        implied = implied.max(exit);
        if func != c.func_name || c.claimed != claim {
            return unbound(format!(
                "served `{func}` {label}, trace has `{}` {}",
                c.func_name, c.claimed
            ));
        }
        if (r.func, r.label) != (func, label) {
            return unbound(format!("render does not report `{func}` as {label}"));
        }
        // The validator has not vouched for the edges yet: one outside
        // the program cannot be what the render shows.
        let slice = match &c.certificate {
            Certificate::Bug(b) => b.slice.as_slice(),
            _ => &[],
        };
        let shown = r.body.len() == slice.len()
            && r.body.iter().zip(slice).all(|(line, &e)| {
                edge_in_program(program, e) && *line == render_slice_edge(program, e)
            });
        if !shown {
            return unbound(format!(
                "render under `{func}` is not its certificate's slice"
            ));
        }
    }
    if served.exit != implied {
        return unbound(format!(
            "exit {} where the labels imply {implied}",
            served.exit
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{certify_report, to_json, DegradedCertificate, LedgerEntry};
    use blastlite::{render_verdicts, CheckerConfig, ClusterReport, DriverConfig, TimeoutReason};

    const SRC: &str = "global x; fn main() { local a; a = nondet(); x = a + 1; \
                       if (x > 10) { error(); } } \
                       fn aux() { x = 1; if (x > 5) { error(); } }";

    /// An honestly derived verdict for `SRC`: session, per-cluster
    /// reports (to render tampered variants from), trace.
    fn honest() -> (Session, Vec<ClusterReport>, TraceFile) {
        let session = Session::compile(SRC, "<test>").unwrap();
        let report = session.check(CheckerConfig::default(), &DriverConfig::sequential());
        let reports: Vec<_> = report.clusters.iter().map(|c| c.cluster.clone()).collect();
        let trace = certify_report(session.analyses(), &report, SRC);
        (session, reports, trace)
    }

    fn labels(trace: &TraceFile) -> Vec<(String, String)> {
        trace
            .clusters
            .iter()
            .map(|c| (c.func_name.clone(), c.claimed.to_uppercase()))
            .collect()
    }

    /// Runs the gate in serving mode over a (possibly tampered) verdict.
    fn gate(
        key: u64,
        exit: i32,
        render: &str,
        labels: &[(String, String)],
        trace_json: &str,
        corrupt: bool,
    ) -> Result<Certified, Rejection> {
        let clusters: Vec<(&str, &str)> = labels
            .iter()
            .map(|(f, l)| (f.as_str(), l.as_str()))
            .collect();
        let served = Served {
            exit,
            render,
            clusters: &clusters,
        };
        certify(
            trace_json,
            "<test>",
            &Expect {
                key: Some(key),
                served: Some(served),
                corrupt,
            },
        )
    }

    #[test]
    fn every_rejection_reason_is_typed_and_the_honest_trace_is_admitted() {
        let (session, reports, trace) = honest();
        let key = session.key();
        let (render, exit) = render_verdicts(session.program(), &reports);
        assert_eq!(exit, 1, "{render}");
        let good = labels(&trace);
        assert_eq!(
            good,
            [("main".into(), "BUG".into()), ("aux".into(), "SAFE".into())]
        );
        let json = to_json(&trace);
        let with_trace = |edit: &dyn Fn(&mut TraceFile)| {
            let mut t = trace.clone();
            edit(&mut t);
            to_json(&t)
        };
        let swapped = vec![good[0].clone(), ("aux".into(), "BUG".into())];
        let renamed = vec![("mian".into(), "BUG".into()), good[1].clone()];
        let safe_render = render.replacen("BUG ", "SAFE", 1);
        let degrade = |i: usize, verdict: &str| {
            with_trace(&|t| {
                t.clusters[i].claimed = verdict.into();
                t.clusters[i].certificate = Certificate::Degraded(DegradedCertificate {
                    func_name: t.clusters[i].func_name.clone(),
                    verdict: verdict.into(),
                    ledger: vec![LedgerEntry {
                        attempt: 0,
                        budget_ms: 100,
                        reducer: "Identity".into(),
                        outcome: verdict.into(),
                    }],
                });
            })
        };
        // A well-formed degraded ledger, claimed Timeout, served as SAFE.
        let degraded = degrade(1, "Timeout(WallClock)");
        // A placeholder claim whose ledger repeats it, served as a
        // timeout with exit 0: only the label rule stands in the way.
        let placeholder = degrade(0, "an unstable verdict");
        let mut timed_out = reports.clone();
        timed_out[0].report.outcome = CheckOutcome::Timeout(TimeoutReason::WallClock);
        let (timeout_render, _) = render_verdicts(session.program(), &timed_out);
        let timeout_labels = vec![
            ("main".into(), "TIMEOUT(WallClock)".into()),
            good[1].clone(),
        ];
        // Slice lines the certificate does not back: one dropped from the
        // BUG, one added under the SAFE header.
        let mut lines: Vec<&str> = render.lines().collect();
        let slice_line = lines.remove(1);
        assert!(slice_line.starts_with("    "), "{render}");
        let short_slice = lines.join("\n") + "\n";
        let slice_under_safe = format!("{render}{slice_line}\n");
        let failing = with_trace(&|t| {
            let Certificate::Bug(b) = &mut t.clusters[0].certificate else {
                panic!("main is a bug");
            };
            b.havoc.clear();
        });
        let uncompilable = with_trace(&|t| t.source = "fn main( {".into());

        let admitted = gate(key, exit, &render, &good, &json, false).expect("honest trace");
        assert_eq!(admitted.session.key(), key);
        assert!(admitted.results.iter().all(Validation::is_confirmed));

        let rejected =
            |row: &str, got: Result<Certified, Rejection>, is: fn(&Rejection) -> bool| match got {
                Err(r) => assert!(is(&r), "{row}: wrong rejection {r:?}"),
                Ok(_) => panic!("{row}: admitted"),
            };
        rejected(
            "unparseable",
            gate(key, exit, &render, &good, "{\"version\":1", false),
            |r| matches!(r, Rejection::Unparseable(_)),
        );
        rejected(
            "uncompilable",
            gate(key, exit, &render, &good, &uncompilable, false),
            |r| matches!(r, Rejection::Uncompilable(_)),
        );
        rejected(
            "key",
            gate(key ^ 1, exit, &render, &good, &json, false),
            |r| matches!(r, Rejection::KeyMismatch(..)),
        );
        rejected(
            "count",
            gate(key, exit, &render, &good[..1], &json, false),
            |r| matches!(r, Rejection::ClusterCount(1, 2)),
        );
        let unbound: fn(&Rejection) -> bool = |r| matches!(r, Rejection::Unbound(_));
        rejected(
            "name",
            gate(key, exit, &render, &renamed, &json, false),
            unbound,
        );
        rejected(
            "label",
            gate(key, exit, &render, &swapped, &json, false),
            unbound,
        );
        rejected("exit", gate(key, 0, &render, &good, &json, false), unbound);
        rejected(
            "unstable exit",
            gate(key, 2, &render, &good, &json, false),
            unbound,
        );
        rejected(
            "render",
            gate(key, exit, &safe_render, &good, &json, false),
            unbound,
        );
        rejected(
            "degraded behind SAFE",
            gate(key, exit, &render, &good, &degraded, false),
            unbound,
        );
        rejected(
            "unstable label",
            gate(
                key,
                0,
                &timeout_render,
                &timeout_labels,
                &placeholder,
                false,
            ),
            unbound,
        );
        rejected(
            "forged slice",
            gate(key, exit, &short_slice, &good, &json, false),
            unbound,
        );
        rejected(
            "slice under SAFE",
            gate(key, exit, &slice_under_safe, &good, &json, false),
            unbound,
        );
        rejected(
            "failing certificate",
            gate(key, exit, &render, &good, &failing, false),
            |r| matches!(r, Rejection::Invalid(func, _) if func == "main"),
        );
        rejected(
            "corruption",
            gate(key, exit, &render, &good, &json, true),
            |r| matches!(r, Rejection::Corrupted(_)),
        );
    }

    #[test]
    fn cluster_reports_invert_certify_cluster() {
        let (session, reports, trace) = honest();
        let (render, exit) = render_verdicts(session.program(), &reports);
        let json = to_json(&trace);
        let mut admitted = gate(session.key(), exit, &render, &labels(&trace), &json, false)
            .expect("honest trace");
        let effort: Vec<_> = reports
            .iter()
            .map(|r| (r.report.refinements, r.report.wall))
            .collect();
        let rebuilt = admitted.cluster_reports(&effort).expect("honest trace");
        let clusters: Vec<_> = rebuilt.iter().map(|c| c.cluster.clone()).collect();
        assert_eq!(
            render_verdicts(admitted.session.program(), &clusters),
            (render, exit)
        );
        // Rebuilt reports pass the in-process gate that guards reuse.
        let reuse_gate = crate::validator(FaultPlan::default());
        for c in &rebuilt {
            assert!((reuse_gate.0)(admitted.session.analyses(), c).is_none());
        }

        assert!(matches!(
            admitted.cluster_reports(&effort[..1]),
            Err(Rejection::ClusterCount(1, 2))
        ));
        let Certificate::Bug(b) = &mut admitted.trace.clusters[0].certificate else {
            panic!("main is a bug");
        };
        b.path.reverse();
        assert!(matches!(
            admitted.cluster_reports(&effort),
            Err(Rejection::Invalid(func, _)) if func == "main"
        ));
    }

    #[test]
    fn audit_mode_reports_each_cluster_instead_of_rejecting() {
        let (_, _, mut trace) = honest();
        trace.clusters[0].claimed = "Safe".into();
        let audited = certify(&to_json(&trace), "<test>", &Expect::default()).unwrap();
        assert!(!audited.results[0].is_confirmed());
        assert!(audited.results[1].is_confirmed());
    }
}
