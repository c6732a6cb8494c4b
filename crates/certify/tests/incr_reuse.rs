//! Integration tests for certificate-gated incremental verdict reuse:
//! `blastlite::Session::check_incremental` with `certify::validator` as
//! the gate. These live in `certify` (which depends on `blastlite`)
//! because the session crate cannot name the concrete validator without
//! a dependency cycle.

use blastlite::{render_verdicts, CheckerConfig, DriverConfig, Session};
use rt::{FaultKind, FaultPlan, FaultSite};

/// Dispatcher program: `main` calls exactly one of the leaf functions,
/// so each cluster's dependency set is `{leaf, main}` and a single-leaf
/// edit invalidates exactly one cluster.
const SRC: &str = r#"
    global s;
    fn f1() { local a; a = 1; if (a < 1) { error(); } }
    fn f2() { local b; b = 2; if (b == 2) { error(); } }
    fn main() { s = nondet(); if (s > 0) { f1(); } else { f2(); } }
"#;

fn cfg() -> CheckerConfig {
    CheckerConfig::default()
}

/// Renders a driver report the way `pathslice check` would, with the
/// volatile wall-clock column stripped.
fn rendered(session: &Session, report: &blastlite::DriverReport) -> (Vec<String>, i32) {
    let clusters: Vec<_> = report.clusters.iter().map(|c| c.cluster.clone()).collect();
    let (text, code) = render_verdicts(session.program(), &clusters);
    let lines = text
        .lines()
        .map(|l| {
            l.rsplit_once("  ")
                .map_or(l.to_owned(), |(v, _)| v.to_owned())
        })
        .collect();
    (lines, code)
}

#[test]
fn gated_reuse_is_byte_identical_to_cold_check() {
    let old = Session::compile(SRC, "<old>").unwrap();
    let _ = old.check(cfg(), &DriverConfig::sequential());

    // Edit f2's body only; f1's cluster ({f1, main}) is untouched.
    let edited = SRC.replace("b == 2", "b == 3");
    let (new, up) = Session::update(&old, &edited, "<new>").unwrap();
    assert!(!up.cold);
    assert_eq!(up.changed_functions, vec!["f2".to_owned()]);
    assert_eq!(up.carried_clusters, 1);
    assert_eq!(up.invalidated_clusters, 1);

    let gate = certify::validator(FaultPlan::default());
    let (warm, reuse) = new.check_incremental(cfg(), &DriverConfig::sequential(), Some(&gate));
    assert_eq!(reuse.verdict_reused, 1, "{reuse:?}");
    assert_eq!(reuse.cert_rejected, 0, "{reuse:?}");
    assert_eq!(reuse.recomputed, 1, "{reuse:?}");

    // The warm report must be byte-identical (modulo wall clock) to a
    // from-scratch compile-and-check of the edited source.
    let cold = Session::compile(&edited, "<cold>").unwrap();
    let cold_report = cold.check(cfg(), &DriverConfig::sequential());
    let (warm_lines, warm_code) = rendered(&new, &warm);
    let (cold_lines, cold_code) = rendered(&cold, &cold_report);
    assert_eq!(warm_lines, cold_lines);
    assert_eq!(warm_code, cold_code);
}

#[test]
fn corrupted_candidate_is_rejected_and_rechecked_cold() {
    let session = Session::compile(SRC, "<test>").unwrap();
    let baseline = session.check(cfg(), &DriverConfig::sequential());

    // Every reuse candidate is corrupted at the reuse site; the gate
    // must reject each one and the cluster must fall back to a cold
    // re-check whose verdicts match the baseline.
    let chaos = DriverConfig::sequential().with_faults(FaultPlan::new(7).inject(
        FaultSite::IncrReuse,
        FaultKind::CorruptCertificate,
        1.0,
    ));
    let gate = certify::validator(FaultPlan::default());
    let (report, reuse) = session.check_incremental(cfg(), &chaos, Some(&gate));
    assert_eq!(reuse.verdict_reused, 0, "{reuse:?}");
    assert_eq!(reuse.cert_rejected, 2, "{reuse:?}");
    assert_eq!(reuse.recomputed, 2, "{reuse:?}");

    let (lines, code) = rendered(&session, &report);
    let (base_lines, base_code) = rendered(&session, &baseline);
    assert_eq!(lines, base_lines);
    assert_eq!(code, base_code);
}

#[test]
fn intact_candidates_all_reuse_on_an_unchanged_program() {
    let session = Session::compile(SRC, "<test>").unwrap();
    let baseline = session.check(cfg(), &DriverConfig::sequential());

    let gate = certify::validator(FaultPlan::default());
    let (report, reuse) =
        session.check_incremental(cfg(), &DriverConfig::sequential(), Some(&gate));
    assert_eq!(reuse.verdict_reused, 2, "{reuse:?}");
    assert_eq!(reuse.recomputed, 0, "{reuse:?}");

    let (lines, code) = rendered(&session, &report);
    let (base_lines, base_code) = rendered(&session, &baseline);
    assert_eq!(lines, base_lines);
    assert_eq!(code, base_code);
}
