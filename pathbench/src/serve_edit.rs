//! `serve-edit`: write-heavy daemon traffic — an editor saving a file.
//!
//! A journaled in-process daemon checks a privoxy-shaped program (Table 1
//! privoxy at small scale: 12 clusters, 2 planted bugs) once during
//! set-up; then one closed-loop editor connection sends a script of
//! sliding single-function edits. Each edit changes one integer constant
//! in an `m{i}_read` or `m{i}_h0` body of the first three modules.
//! Declarations and aliasing stay as generated, so the ground truth
//! stays the generator's, and every request is a new version: each runs
//! `Session::update`, the certificate gate over the untouched clusters,
//! re-checks of the invalidated clusters seeded with the reused
//! clusters' predicates, and a journal append — the opposite use of the
//! cache from `serve-mixed`.
//!
//! Edits further into the program reuse more clusters and so seed their
//! re-checks with more predicates; at this benchmark's first commit an
//! edit in module 3, 4 or 5 took 1.2–2.7 s, which would leave too few
//! samples per window, so the script stays in modules 0–2 (0.1–0.7 s).
//! It cycles through five edits — the read and helper of modules 0 and
//! 1, and the read of module 2 — and the window runs whole cycles, so
//! every round holds each kind of edit equally often. With the slow
//! module-2 edit a fifth of the population, p50 lands among the module-1
//! edits and p90 in the middle of the module-2 ones, away from the edges
//! where one noisy sample would move them.

use crate::harness::{frontend_probe, Config, Window, Workload};
use crate::oracle;
use crate::serve::{self, Requests, Rx, Scrape, Tx};
use crate::stats::Fnv;
use server::{wire, Server};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::WorkloadSpec;

/// Edits in the fixed script the fingerprint covers (the run continues
/// the same rule past it, so every request stays a new version).
const SCRIPT: usize = 120;
/// The script's cycle: `(module, edits the read)`; `false` edits the
/// module's first helper.
const CYCLE: &[(usize, bool)] = &[(0, true), (1, true), (2, true), (0, false), (1, false)];
/// The `--smoke` cycle: module 0 only.
const SMOKE_CYCLE: &[(usize, bool)] = &[(0, true), (0, false)];
/// Whole-request deadline: bounds a run if an edit blows up; an edit
/// that hits it answers `TIMEOUT` and counts as failed.
const DEADLINE_MS: u64 = 10_000;

/// Version `k + 1` of the program: version `k` with edit `k` applied.
/// Edit `k` sets one constant, to `10 + k`, in the function
/// `cycle[k % cycle.len()]` names: the `ns{i}` increment of `m{i}_read`,
/// or the first addend of `m{i}_h0`.
fn edit(source: &str, k: usize, cycle: &[(usize, bool)]) -> Result<String, String> {
    let (i, read) = cycle[k % cycle.len()];
    let (head, needle) = if read {
        (format!("fn m{i}_read("), format!("ns{i} = ns{i} + "))
    } else {
        (format!("fn m{i}_h0("), "t = v + ".to_owned())
    };
    let missing = || format!("edit {k}: no `{needle}` in `{head}`");
    let start = source.find(&head).ok_or_else(missing)?;
    let end = start + source[start..].find("\n}\n").ok_or_else(missing)?;
    let at = start + source[start..end].find(&needle).ok_or_else(missing)? + needle.len();
    let stop = at + source[at..].find(';').ok_or_else(missing)?;
    Ok(format!("{}{}{}", &source[..at], 10 + k, &source[stop..]))
}

pub struct ServeEdit {
    spec: WorkloadSpec,
    base: String,
    cycle: &'static [(usize, bool)],
    /// The version the daemon last saw, and the next edit to apply.
    current: String,
    next: usize,
    server: Server,
    addr: SocketAddr,
    tx: Tx,
    rx: Rx,
    journal: PathBuf,
}

impl ServeEdit {
    /// Sends one version and waits for its verdicts.
    fn check(
        &mut self,
        w: &mut Window,
        requests: &mut Requests,
        source: &str,
        id: String,
    ) -> Option<f64> {
        let mut request = wire::Request::new(source);
        request.id = id;
        request.deadline_ms = Some(DEADLINE_MS);
        w.attempted += 1;
        let sent = Instant::now();
        if let Err(e) = self.tx.send(&request) {
            w.fail(e);
            return None;
        }
        let waited = Duration::from_millis(DEADLINE_MS) * 2;
        match self.rx.recv(waited) {
            Ok(Some(r)) => {
                let round_trip = sent.elapsed();
                requests.record(w, &self.spec, r, round_trip)?;
                Some(round_trip.as_secs_f64() * 1e3)
            }
            Ok(None) => {
                w.fail(format!("{}: no response within {waited:?}", request.id));
                None
            }
            Err(e) => {
                w.fail(e);
                None
            }
        }
    }
}

impl Workload for ServeEdit {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let mut spec = workloads::suite(workloads::Scale::Small)
            .into_iter()
            .find(|s| s.name == "privoxy")
            .ok_or("no privoxy in the Table 1 suite")?;
        spec.seed = oracle::shifted(spec.seed, cfg.seed);
        let base = workloads::gen::generate(&spec).source;
        let journal = serve::scratch_dir(cfg, "journal")?;
        let server = serve::start(Some(journal.clone()))?;
        let addr = server.local_addr();
        let (tx, rx) = match serve::connect(addr) {
            Ok(halves) => halves,
            Err(e) => {
                server.shutdown();
                return Err(e);
            }
        };
        let mut w = ServeEdit {
            spec,
            current: base.clone(),
            base,
            cycle: if cfg.smoke { SMOKE_CYCLE } else { CYCLE },
            next: 0,
            server,
            addr,
            tx,
            rx,
            journal,
        };
        let mut window = Window::default();
        let base = w.base.clone();
        w.check(&mut window, &mut Requests::default(), &base, "base".into());
        if let Some(e) = window.failures.into_iter().next() {
            w.finish();
            return Err(format!("base check: {e}"));
        }
        Ok(w)
    }

    fn fingerprint(&self) -> String {
        let mut h = Fnv::default();
        h.str(&self.base);
        let mut version = self.base.clone();
        for k in 0..SCRIPT {
            version = edit(&version, k, self.cycle).unwrap_or_default();
            h.str(&version);
        }
        h.hex()
    }

    fn run(&mut self, seconds: f64) -> Window {
        let before = Scrape::take(self.addr);
        let mut w = Window::default();
        let mut requests = Requests::default();
        // A round is one pass over the cycle; latency intervals are two
        // rounds, enough samples for a 90th percentile.
        let round_edits = self.cycle.len();
        let start = Instant::now();
        let mut latency = Vec::new();
        while w.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let round = Instant::now();
            for _ in 0..round_edits {
                let version = match edit(&self.current, self.next, self.cycle) {
                    Ok(v) => v,
                    Err(e) => {
                        w.fail(e);
                        return w;
                    }
                };
                let id = format!("e{}", self.next);
                if let Some(ms) = self.check(&mut w, &mut requests, &version, id) {
                    latency.push(ms);
                }
                self.current = version;
                self.next += 1;
            }
            w.rounds
                .push((round_edits as f64, round.elapsed().as_secs_f64()));
            if w.rounds.len() % 2 == 0 {
                w.latency_ms.push(std::mem::take(&mut latency));
            }
        }
        if !latency.is_empty() {
            w.latency_ms.push(latency);
        }
        match (before, Scrape::take(self.addr)) {
            (Ok(before), Ok(after)) => {
                w.layers = requests.layers(&before, &after, w.attempted);
            }
            (Err(e), _) | (_, Err(e)) => w.fail(e),
        }
        w.layers.push(("gen.sent", w.attempted as f64));
        w
    }

    fn probe(&mut self) -> Vec<(&'static str, f64)> {
        // The script replayed in process through `Session::update`.
        frontend_probe(&self.base);
        let Ok(mut session) = blastlite::Session::compile(&self.base, "<probe>") else {
            return Vec::new();
        };
        let mut version = self.base.clone();
        for k in 0..2 * self.cycle.len() {
            let Ok(next) = edit(&version, k, self.cycle) else {
                break;
            };
            let updated = {
                let _s = obs::span!("session.update");
                blastlite::Session::update(&session, &next, "<probe>")
            };
            let Ok((s, _)) = updated else { break };
            session = s;
            version = next;
        }
        Vec::new()
    }

    fn finish(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_keep_the_ground_truth_and_never_repeat_a_version() {
        let spec = workloads::suite(workloads::Scale::Small)[3].clone();
        let mut version = workloads::gen::generate(&spec).source;
        let mut seen = vec![version.clone()];
        for k in 0..2 * CYCLE.len() {
            version = edit(&version, k, CYCLE).expect("edit applies");
            assert!(!seen.contains(&version), "edit {k} repeats a version");
            seen.push(version.clone());
        }
        // Module 0's read was last edited by edit 5, its helper by edit 8.
        assert!(version.contains("ns0 = ns0 + 15;"));
        assert!(version.contains("t = v + 18;"));
        let program = cfa::lower(&imp::parse(&version).expect("parses")).expect("lowers");
        assert_eq!(
            program.cfas().len(),
            workloads::gen::generate(&spec).n_functions
        );
    }
}
