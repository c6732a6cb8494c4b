//! `slice-long`: the paper's Figure 5/6 mechanism on its own —
//! `PathSlicer::slice` over long feasible traces into planted bugs.
//!
//! Set-up drives the concrete interpreter into every planted bug of the
//! gcc-like program (loop bounds 400 and 1500) and of the buggy Table 1
//! programs (bounds 600 and 2500): 14 traces of 14k–310k operations.
//! Slicing each once fills the `By` memo and yields the reference slice
//! sizes, and every reference slice is checked to end at the error and
//! to be feasible (a feasible trace has a feasible slice). The window
//! then slices the traces round-robin. Slicer and dataflow queries are
//! all the work; there is no reachability or solving, so this workload
//! is where checker work is bypassed and slicer work shows.
//!
//! One operation of the latency population is a pass that slices every
//! trace once: single calls range over two orders of magnitude with the
//! trace length, so their median would fall between two traces.

use crate::harness::{frontend_probe, Config, Window, Workload};
use crate::oracle;
use crate::report::Metric;
use crate::stats::{quantile, Fnv};
use blastlite::Session;
use lia::{SatResult, Solver};
use semantics::{ExecOutcome, Interp, ReplayOracle, State};
use slicer::{PathSlicer, SliceOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Interpreter fuel: far above the longest trace.
const FUEL: usize = 50_000_000;

/// Latency interval. Bursts of machine noise here last about a second
/// and hit a third of the seconds, so quarter-second intervals leave most
/// intervals either wholly clean or wholly slow, and the median over
/// intervals reads a clean one.
const INTERVAL: Duration = Duration::from_millis(250);

struct Trace {
    /// Index into `SliceLong::sessions`.
    session: usize,
    /// `nondet()` values that drive the run into the bug.
    inputs: Vec<i64>,
    path: cfa::Path,
    /// Reference slice size from set-up.
    kept: usize,
}

pub struct SliceLong {
    sources: Vec<String>,
    sessions: Vec<Session>,
    traces: Vec<Trace>,
}

/// The trace programs: gcc-like at two loop bounds, then every Table 1
/// program with a planted bug at two loop bounds.
fn specs(cfg: &Config) -> Vec<workloads::WorkloadSpec> {
    let (gcc_bounds, suite_bounds): (&[i64], &[i64]) = if cfg.smoke {
        (&[40], &[60])
    } else {
        (&[400, 1500], &[600, 2500])
    };
    let gcc = gcc_bounds.iter().map(|&b| {
        let mut s = workloads::gcc_like(workloads::Scale::Small);
        s.loop_bound = b;
        s
    });
    let suite = suite_bounds.iter().flat_map(|&b| {
        workloads::suite(workloads::Scale::Small)
            .into_iter()
            .filter(|s| !s.buggy_modules.is_empty())
            .map(move |mut s| {
                s.loop_bound = b;
                s
            })
    });
    gcc.chain(suite)
        .map(|mut s| {
            s.seed = oracle::shifted(s.seed, cfg.seed);
            s
        })
        .collect()
}

impl Workload for SliceLong {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let mut w = SliceLong {
            sources: Vec::new(),
            sessions: Vec::new(),
            traces: Vec::new(),
        };
        for spec in specs(cfg) {
            let generated = workloads::gen::generate(&spec);
            let session = Session::compile(&generated.source, &spec.name)?;
            let program = session.program();
            let slicer = PathSlicer::new(session.analyses());
            for &m in &spec.buggy_modules {
                let inputs = generated.inputs_reaching_bug(m);
                let run = Interp::run(
                    program,
                    State::zeroed(program),
                    &mut ReplayOracle::new(inputs.clone()),
                    FUEL,
                );
                let target = format!("m{m}_read");
                match run.outcome {
                    ExecOutcome::ReachedError(loc) if program.cfa(loc.func).name() == target => {}
                    other => {
                        return Err(format!("{}: run for {target} ended {other:?}", spec.name))
                    }
                }
                let reference = slicer.slice(&run.path, SliceOptions::default());
                if reference.kept.last() != Some(&(run.path.len() - 1)) {
                    return Err(format!(
                        "{}: slice for {target} drops the error edge",
                        spec.name
                    ));
                }
                let ops = reference.edges.iter().map(|&e| &program.edge(e).op);
                let (_, sat, _) =
                    semantics::trace_feasibility(session.analyses().alias(), ops, &Solver::new());
                if !matches!(sat, SatResult::Sat(_)) {
                    return Err(format!(
                        "{}: the slice of a feasible trace into {target} is not feasible",
                        spec.name
                    ));
                }
                w.traces.push(Trace {
                    session: w.sessions.len(),
                    inputs,
                    path: run.path,
                    kept: reference.kept.len(),
                });
            }
            w.sources.push(generated.source);
            w.sessions.push(session);
        }
        Ok(w)
    }

    fn fingerprint(&self) -> String {
        let mut h = Fnv::default();
        for s in &self.sources {
            h.str(s);
        }
        for t in &self.traces {
            h.num(t.path.len() as u64).num(t.kept as u64);
        }
        h.hex()
    }

    fn run(&mut self, seconds: f64) -> Window {
        let slicers: Vec<PathSlicer> = self
            .sessions
            .iter()
            .map(|s| PathSlicer::new(s.analyses()))
            .collect();
        let ops_per_pass: usize = self.traces.iter().map(|t| t.path.len()).sum();
        let mut w = Window::default();
        let mut calls_ms = Vec::new();
        let (mut sliced_ops, mut slicing_ns) = (0u64, 0f64);
        let start = Instant::now();
        let mut interval = (Instant::now(), Vec::new());
        while w.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let pass = Instant::now();
            for t in &self.traces {
                let call = Instant::now();
                let result = {
                    let _s = obs::span!("slicer.slice");
                    slicers[t.session].slice(black_box(&t.path), SliceOptions::default())
                };
                let ns = call.elapsed().as_nanos() as f64;
                calls_ms.push(ns / 1e6);
                slicing_ns += ns;
                sliced_ops += t.path.len() as u64;
                w.attempted += 1;
                if result.kept.len() != t.kept {
                    w.fail(format!(
                        "slice of a {}-op trace kept {} ops, set-up kept {}",
                        t.path.len(),
                        result.kept.len(),
                        t.kept
                    ));
                }
            }
            let secs = pass.elapsed().as_secs_f64();
            interval.1.push(secs * 1e3);
            w.rounds.push((ops_per_pass as f64, secs));
            if interval.0.elapsed() >= INTERVAL {
                w.latency_ms.push(std::mem::take(&mut interval.1));
                interval.0 = Instant::now();
            }
        }
        if !interval.1.is_empty() {
            w.latency_ms.push(interval.1);
        }
        let n = calls_ms.len() as u64;
        w.info.push(Metric::new(
            "call_p50_ms",
            quantile(&calls_ms, 0.5),
            "ms",
            n,
        ));
        w.info.push(Metric::new(
            "call_p99_ms",
            quantile(&calls_ms, 0.99),
            "ms",
            n,
        ));
        w.info
            .push(Metric::new("traces", self.traces.len() as f64, "count", 1));
        w.info
            .push(Metric::new("ops_per_pass", ops_per_pass as f64, "count", 1));
        w.layers
            .push(("slicer.ns_per_op", slicing_ns / sliced_ops.max(1) as f64));
        w
    }

    fn probe(&mut self) -> Vec<(&'static str, f64)> {
        // The interpreter, as set-up ran it.
        let (mut interp_ns, mut interp_ops) = (0f64, 0usize);
        for t in &self.traces {
            let program = self.sessions[t.session].program();
            let start = Instant::now();
            let run = {
                let _s = obs::span!("semantics.interp");
                Interp::run(
                    program,
                    State::zeroed(program),
                    &mut ReplayOracle::new(t.inputs.clone()),
                    FUEL,
                )
            };
            interp_ns += start.elapsed().as_nanos() as f64;
            interp_ops += run.path.len();
        }
        // First slices against an empty `By` memo: a fresh session per
        // program.
        for (i, source) in self.sources.iter().enumerate() {
            frontend_probe(source);
            let Ok(fresh) = Session::compile(source, "<probe>") else {
                continue;
            };
            let slicer = PathSlicer::new(fresh.analyses());
            for t in self.traces.iter().filter(|t| t.session == i) {
                let _s = obs::span!("slicer.first_slice");
                black_box(slicer.slice(&t.path, SliceOptions::default()));
            }
        }
        vec![
            ("semantics.interp_ms", interp_ns / 1e6),
            (
                "semantics.interp_ns_per_op",
                interp_ns / interp_ops.max(1) as f64,
            ),
        ]
    }

    fn finish(self) {}
}
