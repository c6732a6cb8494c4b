//! `batch-suite`: the six Table 1 programs, each compiled and checked
//! from scratch every round, as `pathslice check` does.
//!
//! Abstract reachability, abstraction and the solver take nearly all of
//! the time here, and neither the server nor `incr` is involved. The
//! programs are the Table 1 specifications at twice the small scale, so
//! that a round takes about two seconds and a window holds a dozen.
//! Rounds run cold, with no warm-up, because users pay cold costs.
//!
//! The driver runs one job: on a two-CPU machine shared with other
//! tenants, two CPU-bound jobs made round times swing by a fifth from
//! run to run, against a twentieth with one.

use crate::harness::{Config, Window, Workload};
use crate::oracle;
use crate::report::Metric;
use crate::stats::{median, Fnv};
use blastlite::{CheckerConfig, DriverConfig, Reducer, Session};
use std::time::Instant;
use workloads::WorkloadSpec;

pub struct BatchSuite {
    programs: Vec<(WorkloadSpec, String)>,
}

impl Workload for BatchSuite {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let scale = if cfg.smoke { 1 } else { 2 };
        let mut programs = Vec::new();
        for mut spec in workloads::suite(workloads::Scale::Small) {
            spec.modules *= scale;
            spec.seed = oracle::shifted(spec.seed, cfg.seed);
            // The oracle names two check clusters per module; make sure
            // the generated program has exactly those.
            let generated = workloads::gen::generate(&spec);
            let clusters = generated
                .lower()
                .cfas()
                .iter()
                .filter(|c| {
                    oracle::expected(&spec, c.name()).is_some() && !c.error_locs().is_empty()
                })
                .count();
            if clusters != 2 * spec.modules {
                return Err(format!(
                    "{}: {clusters} check clusters, the oracle expects {}",
                    spec.name,
                    2 * spec.modules
                ));
            }
            programs.push((spec, generated.source));
        }
        Ok(BatchSuite { programs })
    }

    fn fingerprint(&self) -> String {
        let mut h = Fnv::default();
        for (_, source) in &self.programs {
            h.str(source);
        }
        h.hex()
    }

    fn run(&mut self, seconds: f64) -> Window {
        let config = CheckerConfig {
            reducer: Reducer::path_slice(),
            ..CheckerConfig::default()
        };
        let driver = DriverConfig::sequential();
        let mut w = Window::default();
        let mut round_walls = Vec::new();
        let start = Instant::now();
        while round_walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let round = Instant::now();
            let mut clusters = 0usize;
            let mut latency = Vec::new();
            for (spec, source) in &self.programs {
                w.attempted += 2 * spec.modules as u64;
                let session = {
                    let _s = obs::span!("session.compile");
                    Session::compile(source, &spec.name)
                };
                let session = match session {
                    Ok(s) => s,
                    Err(e) => {
                        for _ in 0..2 * spec.modules {
                            w.fail(e.clone());
                        }
                        continue;
                    }
                };
                let report = {
                    let _s = obs::span!("session.check");
                    session.check(config, &driver)
                };
                clusters += report.clusters.len();
                let labels: Vec<(&str, String)> = report
                    .clusters
                    .iter()
                    .map(|c| {
                        (
                            c.cluster.func_name.as_str(),
                            oracle::label(&c.cluster.report.outcome),
                        )
                    })
                    .collect();
                for e in oracle::mismatches(spec, labels.iter().map(|(f, l)| (*f, l.as_str()))) {
                    w.fail(e);
                }
                // Time to a verdict, per cluster, as `pathslice check`
                // prints it in its last column.
                latency.extend(
                    report
                        .clusters
                        .iter()
                        .map(|c| c.cluster.report.wall.as_secs_f64() * 1e3),
                );
            }
            let wall = round.elapsed().as_secs_f64();
            round_walls.push(wall);
            w.rounds.push((clusters as f64, wall));
            w.latency_ms.push(latency);
        }
        w.info.push(Metric::new(
            "wall_s",
            median(&round_walls),
            "s",
            round_walls.len() as u64,
        ));
        w
    }

    fn probe(&mut self) -> Vec<(&'static str, f64)> {
        for (_, source) in &self.programs {
            crate::harness::frontend_probe(source);
        }
        Vec::new()
    }

    fn finish(self) {}
}
