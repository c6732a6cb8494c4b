//! Property tests of the incremental derivation graph (DESIGN.md §15):
//! a single-function edit must invalidate *exactly* the check clusters
//! whose dependency set contains the edited function, the warm
//! incremental check must render byte-identically to a cold
//! `Session::compile` check of the same source, and a corrupted stored
//! certificate at the reuse site must cost warmth — never correctness.
//!
//! The generated family is a dispatcher: `n` leaf functions behind an
//! `else`-nested `main` (nesting keeps each leaf off every other
//! leaf's path), two shared helpers that any leaf may call, and one
//! edited function per case — a leaf, a helper, or `main` itself. The
//! three targets probe the three dependency-set shapes: a leaf edit
//! hits one cluster, a helper edit hits every cluster whose leaf calls
//! it, and a `main` edit hits all of them.

use pathslicing::blastlite::{
    render_verdicts, CheckerConfig, DriverConfig, DriverReport, Reducer, Session,
};
use pathslicing::certify;
use pathslicing::rt::{FaultKind, FaultPlan, FaultSite};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One generated dispatcher: leaf constants, per-leaf helper choice
/// (0 = none, 1 = `h0`, 2 = `h1`), per-leaf buggy flag, and whether
/// `main` carries the extra edited statement.
#[derive(Debug, Clone)]
struct Dispatcher {
    consts: Vec<u64>,
    helper: Vec<u8>,
    buggy: Vec<bool>,
    helper_consts: [u64; 2],
    main_edited: bool,
}

impl Dispatcher {
    fn source(&self) -> String {
        let n = self.consts.len();
        let mut src = String::from("global g, s;\n");
        for (k, c) in self.helper_consts.iter().enumerate() {
            let _ = writeln!(src, "fn h{k}() {{ g = {c}; }}");
        }
        for i in 0..n {
            let call = match self.helper[i] {
                1 => "h0(); ",
                2 => "h1(); ",
                _ => "",
            };
            let c = self.consts[i];
            let check = if self.buggy[i] {
                format!("if (a == {c}) {{ error(); }}")
            } else {
                "if (a < 0) { error(); }".to_string()
            };
            let _ = writeln!(src, "fn f{i}() {{ local a; {call}a = {c}; {check} }}");
        }
        let edit = if self.main_edited { "g = 1; " } else { "" };
        let _ = write!(src, "fn main() {{ s = nondet(); {edit}");
        for i in 0..n {
            let _ = write!(src, "if (s == {i}) {{ f{i}(); }} else {{ ");
        }
        let _ = write!(src, "s = 0; ");
        for _ in 0..n {
            let _ = write!(src, "}} ");
        }
        src.push('}');
        src
    }

    /// Applies the case's edit and returns the edited function's name.
    /// `target < n` edits leaf `f{target}`; `n` / `n+1` edit the
    /// helpers; anything above edits `main`.
    fn edit(&mut self, target: usize) -> String {
        let n = self.consts.len();
        if target < n {
            self.consts[target] += 100;
            format!("f{target}")
        } else if target < n + 2 {
            self.helper_consts[target - n] += 100;
            format!("h{}", target - n)
        } else {
            self.main_edited = true;
            "main".to_owned()
        }
    }
}

fn arb_dispatcher() -> impl Strategy<Value = Dispatcher> {
    (
        proptest::collection::vec((1u64..50, 0u8..3, proptest::any::<bool>()), 3..7),
        1u64..50,
        1u64..50,
    )
        .prop_map(|(leaves, hc0, hc1)| Dispatcher {
            consts: leaves.iter().map(|l| l.0).collect(),
            helper: leaves.iter().map(|l| l.1).collect(),
            buggy: leaves.iter().map(|l| l.2).collect(),
            helper_consts: [hc0, hc1],
            main_edited: false,
        })
}

fn config() -> CheckerConfig {
    CheckerConfig {
        reducer: Reducer::path_slice(),
        ..CheckerConfig::default()
    }
}

/// The render with the wall column stripped from verdict lines (real
/// elapsed time is the only legitimate divergence); witness slice
/// lines are compared verbatim — a reused `BUG`'s slice must resolve
/// to exactly the cold check's operations.
fn rendered(session: &Session, report: DriverReport) -> (i32, Vec<String>) {
    let reports = report.into_cluster_reports();
    let (render, exit) = render_verdicts(session.program(), &reports);
    let lines = render
        .lines()
        .map(|l| {
            if l.contains(" site(s)") {
                l.rsplit_once("  ")
                    .map_or(l.to_owned(), |(v, _)| v.to_owned())
            } else {
                l.to_owned()
            }
        })
        .collect();
    (exit, lines)
}

/// The names of the clusters whose dependency set contains `edited`.
fn dependent_clusters(session: &Session, edited: &str) -> BTreeSet<String> {
    session
        .cluster_deps()
        .iter()
        .filter(|c| {
            c.members
                .iter()
                .any(|&m| session.program().cfa(m).name() == edited)
        })
        .map(|c| c.name.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A single-function edit invalidates exactly the clusters whose
    /// dependency set contains the edited function; every other
    /// cluster's verdict is reused through the certificate gate and
    /// the warm render is byte-identical to a cold compile-and-check.
    #[test]
    fn edit_invalidates_exactly_the_dependent_clusters(
        base in arb_dispatcher(),
        target in 0usize..9,
    ) {
        let mut edited = base.clone();
        let name = edited.edit(target.min(base.consts.len() + 2));
        let old_src = base.source();
        let new_src = edited.source();

        let old = Session::compile(&old_src, "old.imp").unwrap();
        let driver = DriverConfig::sequential();
        let _ = old.check(config(), &driver); // warm the verdict memo
        let dependent = dependent_clusters(&old, &name);
        let total = old.cluster_deps().len();

        let (session, up) = Session::update(&old, &new_src, "new.imp").unwrap();
        prop_assert!(!up.cold, "a body edit must not fall back cold");
        prop_assert_eq!(&up.changed_functions, &vec![name.clone()]);
        prop_assert_eq!(
            up.invalidated_clusters, dependent.len(),
            "dependent clusters of {}: {:?}", name, dependent
        );
        prop_assert_eq!(up.carried_clusters, total - dependent.len());

        // Invalidation is *exact*: a cluster's dep_key moved iff its
        // dependency set contains the edited function.
        for (old_c, new_c) in old.cluster_deps().iter().zip(session.cluster_deps()) {
            prop_assert_eq!(&old_c.name, &new_c.name);
            prop_assert_eq!(
                old_c.dep_key != new_c.dep_key,
                dependent.contains(&old_c.name),
                "cluster {} vs edit of {}", old_c.name, name
            );
        }

        // Warm check through the real certificate gate: every carried
        // verdict re-admitted, none rejected, render byte-identical to
        // a cold session over the same source.
        let gate = certify::validator(FaultPlan::default());
        let (warm, reuse) = session.check_incremental(config(), &driver, Some(&gate));
        prop_assert_eq!(reuse.verdict_reused, total - dependent.len());
        prop_assert_eq!(reuse.cert_rejected, 0);
        prop_assert_eq!(reuse.recomputed, dependent.len());

        let cold = Session::compile(&new_src, "new.imp").unwrap();
        let cold_report = cold.check(config(), &driver);
        prop_assert_eq!(
            rendered(&session, warm),
            rendered(&cold, cold_report),
            "warm verdicts diverge from cold for edit of {}", name
        );
    }

    /// Chaos at the reuse site: with every stored certificate corrupted
    /// in flight, the gate must reject every candidate, re-check each
    /// cluster cold, and still produce the cold render — a stale or
    /// corrupt entry costs warmth, never correctness.
    #[test]
    fn corrupted_certificates_cost_warmth_never_correctness(
        base in arb_dispatcher(),
        target in 0usize..6,
        seed in 0u64..1000,
    ) {
        let mut edited = base.clone();
        let name = edited.edit(target.min(base.consts.len() - 1));
        let old_src = base.source();
        let new_src = edited.source();

        let old = Session::compile(&old_src, "old.imp").unwrap();
        let driver = DriverConfig::sequential();
        let _ = old.check(config(), &driver);
        let dependent = dependent_clusters(&old, &name);
        let total = old.cluster_deps().len();

        let (session, _) = Session::update(&old, &new_src, "new.imp").unwrap();
        let chaos = DriverConfig::sequential().with_faults(FaultPlan::new(seed).inject(
            FaultSite::IncrReuse,
            FaultKind::CorruptCertificate,
            1.0,
        ));
        let gate = certify::validator(FaultPlan::default());
        let (warm, reuse) = session.check_incremental(config(), &chaos, Some(&gate));
        prop_assert_eq!(reuse.verdict_reused, 0, "no corrupted candidate may be reused");
        prop_assert_eq!(reuse.cert_rejected, total - dependent.len());
        prop_assert_eq!(reuse.recomputed, total);

        let cold = Session::compile(&new_src, "new.imp").unwrap();
        let cold_report = cold.check(config(), &driver);
        prop_assert_eq!(
            rendered(&session, warm),
            rendered(&cold, cold_report),
            "rejected reuse must fall back to the cold verdicts ({})", name
        );
    }
}
