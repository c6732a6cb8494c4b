//! `serve-mixed`: read-heavy daemon traffic.
//!
//! An in-process daemon (two checker jobs, default caches) serves a mix
//! drawn from a seeded schedule: 80% Zipf(s=1) draws from a pool of 64
//! serve-sized programs, 10% programs it has never seen, and 10% pool
//! programs reformatted with whitespace and a comment. The pool is twice
//! the 32-entry analysis cache, so the working set does not fit and the
//! eviction policy matters. On hits the reactor, wire, queue and cache
//! path is most of the latency; on misses the front end, dataflow and
//! `Session::update` are.
//!
//! Two generator threads each pace one wire/v2 connection (each with a
//! second thread taking its responses), open loop, at a combined 100
//! requests/s (under half the saturation rate measured at
//! this benchmark's first commit) for 60% of the window; each request is
//! timed from when it was due to be sent. The rest of the window is a
//! closed-loop saturation phase: the same two connections keep 8
//! requests in flight each, and the throughput is the median rate over
//! its one-second intervals.

use crate::harness::{Config, Window, Workload};
use crate::oracle;
use crate::report::Metric;
use crate::serve::{self, Requests, Scrape};
use crate::stats::{quantile, Fnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server::{wire, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use workloads::WorkloadSpec;

const POOL: usize = 64;
/// Open-loop offered load, requests/s.
const RATE: f64 = 100.0;
/// Share of the window spent open loop; the rest measures saturation.
const OPEN_SHARE: f64 = 0.6;
/// Requests in flight per connection in the closed-loop phases.
const IN_FLIGHT: usize = 8;
/// Untimed warm-up requests, with the same mix, run during set-up.
const WARMUP: usize = 512;
/// How long a request may stay unanswered before it counts as lost.
const LOST_AFTER: Duration = Duration::from_secs(30);

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
enum Draw {
    Pool(usize),
    /// The n-th never-seen program.
    Fresh(usize),
    /// A pool program with its layout changed (same resolved program).
    Reformat(usize),
}

/// A serve-sized program: small enough that a check takes a few
/// milliseconds, so the work a cache hit skips is a visible share.
fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("serve-{seed}"),
        seed,
        modules: 2,
        helpers_per_module: 2,
        loop_bound: 20,
        driver_loops: 1,
        wrapper_depth: 1,
        buggy_modules: vec![1],
        multi_site_modules: 1,
    }
}

pub struct ServeMixed {
    /// Ground truth shared by every program of the mix.
    truth: WorkloadSpec,
    pool: Vec<String>,
    fresh: Vec<String>,
    schedule: Vec<Draw>,
    /// Next schedule entry.
    cursor: usize,
    server: Server,
    addr: SocketAddr,
}

/// What one generator thread saw.
#[derive(Default)]
struct Part {
    w: Window,
    requests: Requests,
    /// `(request number, latency ms, analysis-cache hit)` per answered
    /// request.
    latency: Vec<(usize, f64, bool)>,
    /// How late each send ran behind its schedule, ms.
    lag_ms: Vec<f64>,
    /// Completion times since the phase started, s.
    done_at: Vec<f64>,
    /// Schedule entries used.
    used: usize,
}

impl Part {
    fn merge(parts: Vec<Part>) -> Part {
        let mut all = Part::default();
        for p in parts {
            all.w.attempted += p.w.attempted;
            all.w.failed += p.w.failed;
            all.w.failures.extend(p.w.failures);
            all.requests.queue_ms.extend(p.requests.queue_ms);
            all.requests.service_ms.extend(p.requests.service_ms);
            all.requests.wire_ms.extend(p.requests.wire_ms);
            all.latency.extend(p.latency);
            all.lag_ms.extend(p.lag_ms);
            all.done_at.extend(p.done_at);
            all.used = all.used.max(p.used);
        }
        all.w.failures.truncate(8);
        all
    }
}

impl ServeMixed {
    /// The request for schedule entry `i`, tagged `id`.
    fn request(&self, i: usize, id: String) -> wire::Request {
        let source = match self.schedule[i % self.schedule.len()] {
            Draw::Pool(k) => self.pool[k].clone(),
            Draw::Fresh(j) => self.fresh[j].clone(),
            Draw::Reformat(k) => format!("// {id}\n{}", self.pool[k].replace("    ", "\t")),
        };
        let mut request = wire::Request::new(&source);
        request.id = id;
        request
    }

    /// Open loop: request `n` of the phase is due at `t0 + n / RATE`; the
    /// two connections take alternate requests.
    fn open_loop(&self, seconds: f64) -> Part {
        let total = (seconds * RATE).floor().max(1.0) as usize;
        let period = Duration::from_secs_f64(1.0 / RATE);
        let t0 = Instant::now() + Duration::from_millis(20);
        let parts = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|t| s.spawn(move || self.paced(t0, period, (t..total).step_by(2).collect())))
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        let mut part = Part::merge(parts);
        part.used = total;
        part
    }

    /// One open-loop connection: this thread sleeps until request `n` is
    /// due at `t0 + n · period` and sends it, while a second thread takes
    /// the responses as they arrive (a timed socket read would add the
    /// kernel's timer granularity to every send).
    fn paced(&self, t0: Instant, period: Duration, mine: Vec<usize>) -> Part {
        let mut sender = Part::default();
        let (mut tx, mut rx) = match serve::connect(self.addr) {
            Ok(halves) => halves,
            Err(e) => {
                sender.w.fail(e);
                return sender;
            }
        };
        let inflight: Mutex<BTreeMap<String, (usize, Instant, Instant)>> =
            Mutex::new(BTreeMap::new());
        let receiver = std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut p = Part::default();
                for _ in 0..mine.len() {
                    let r = match rx.recv(LOST_AFTER) {
                        Ok(Some(r)) => r,
                        Ok(None) => {
                            lose_all(&mut p, &mut lock(&inflight), "no response in time");
                            break;
                        }
                        Err(e) => {
                            lose_all(&mut p, &mut lock(&inflight), &e);
                            break;
                        }
                    };
                    let now = Instant::now();
                    let Some((n, due, sent)) = lock(&inflight).remove(r.id()) else {
                        p.w.fail(format!("unsolicited {}", r.id()));
                        continue;
                    };
                    if let Some(hit) = p.requests.record(&mut p.w, &self.truth, r, now - sent) {
                        p.latency.push((n, (now - due).as_secs_f64() * 1e3, hit));
                    }
                }
                p
            });
            for &n in &mine {
                let due = t0 + period * n as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let request = self.request(self.cursor + n, format!("o{n}"));
                let sent = Instant::now();
                sender.lag_ms.push((sent - due).as_secs_f64() * 1e3);
                sender.w.attempted += 1;
                lock(&inflight).insert(request.id.clone(), (n, due, sent));
                if let Err(e) = tx.send(&request) {
                    lock(&inflight).remove(&request.id);
                    sender.w.fail(e);
                    tx.close();
                    break;
                }
            }
            receiver.join().expect("receiver thread")
        });
        Part::merge(vec![sender, receiver])
    }

    /// Closed loop: two connections keep [`IN_FLIGHT`] requests each in
    /// flight until `seconds` pass or `limit` requests are sent.
    fn closed_loop(&self, seconds: f64, limit: usize) -> Part {
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(seconds);
        let parts = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|t| {
                    s.spawn(move || {
                        let mut p = Part::default();
                        let (mut tx, mut rx) = match serve::connect(self.addr) {
                            Ok(halves) => halves,
                            Err(e) => {
                                p.w.fail(e);
                                return p;
                            }
                        };
                        let mut inflight: BTreeMap<String, Instant> = BTreeMap::new();
                        let mut n = t;
                        'run: loop {
                            while inflight.len() < IN_FLIGHT && Instant::now() < stop && n < limit {
                                let request = self.request(self.cursor + n, format!("c{n}"));
                                p.w.attempted += 1;
                                n += 2;
                                if let Err(e) = tx.send(&request) {
                                    p.w.fail(format!("{}: {e}", request.id));
                                    lose_all(&mut p, &mut inflight, &e);
                                    break 'run;
                                }
                                inflight.insert(request.id, Instant::now());
                            }
                            if inflight.is_empty() {
                                break;
                            }
                            let r = match rx.recv(LOST_AFTER) {
                                Ok(Some(r)) => r,
                                Ok(None) => {
                                    lose_all(&mut p, &mut inflight, "no response in time");
                                    break;
                                }
                                Err(e) => {
                                    lose_all(&mut p, &mut inflight, &e);
                                    break;
                                }
                            };
                            let now = Instant::now();
                            let Some(sent) = inflight.remove(r.id()) else {
                                p.w.fail(format!("unsolicited {}", r.id()));
                                continue;
                            };
                            if p.requests
                                .record(&mut p.w, &self.truth, r, now - sent)
                                .is_some()
                            {
                                p.done_at.push((now - start).as_secs_f64());
                            }
                        }
                        p.used = n;
                        p
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        Part::merge(parts)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Charges every request still in flight as failed.
fn lose_all<T>(p: &mut Part, inflight: &mut BTreeMap<String, T>, why: &str) {
    for id in std::mem::take(inflight).into_keys() {
        p.w.fail(format!("{id}: {why}"));
    }
}

impl Workload for ServeMixed {
    fn setup(cfg: &Config) -> Result<Self, String> {
        let schedule_len = if cfg.smoke { 2048 } else { 16384 };
        let weights: Vec<f64> = (1..=POOL).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut rng = StdRng::seed_from_u64(oracle::shifted(7, cfg.seed));
        let zipf = |rng: &mut StdRng| {
            let mut u = rng.gen_range(0..1_000_000_000u64) as f64 / 1e9 * total;
            weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(POOL - 1)
        };
        let mut n_fresh = 0;
        let schedule: Vec<Draw> = (0..schedule_len)
            .map(|_| match rng.gen_range(0..10u32) {
                0..=7 => Draw::Pool(zipf(&mut rng)),
                8 => {
                    n_fresh += 1;
                    Draw::Fresh(n_fresh - 1)
                }
                _ => Draw::Reformat(zipf(&mut rng)),
            })
            .collect();
        let source =
            |base: u64| workloads::gen::generate(&spec(oracle::shifted(base, cfg.seed))).source;
        let pool = (0..POOL as u64).map(|i| source(10_000 + i)).collect();
        let fresh = (0..n_fresh as u64).map(|j| source(20_000 + j)).collect();

        let server = serve::start(None)?;
        let addr = server.local_addr();
        let mut w = ServeMixed {
            truth: spec(0),
            pool,
            fresh,
            schedule,
            cursor: 0,
            server,
            addr,
        };
        // Bounded by the request count, not by time.
        let warmup = if cfg.smoke { 64 } else { WARMUP };
        let part = w.closed_loop(3600.0, warmup);
        if let Some(e) = part.w.failures.into_iter().next() {
            w.finish();
            return Err(format!("warm-up: {e}"));
        }
        w.cursor = warmup;
        Ok(w)
    }

    fn fingerprint(&self) -> String {
        let mut h = Fnv::default();
        for s in self.pool.iter().chain(&self.fresh) {
            h.str(s);
        }
        for d in &self.schedule {
            match *d {
                Draw::Pool(k) => h.num(k as u64),
                Draw::Fresh(j) => h.num(1 << 32 | j as u64),
                Draw::Reformat(k) => h.num(2 << 32 | k as u64),
            };
        }
        h.hex()
    }

    fn run(&mut self, seconds: f64) -> Window {
        let before = Scrape::take(self.addr);
        let open = self.open_loop(seconds * OPEN_SHARE);
        self.cursor += open.used;
        let closed_s = seconds * (1.0 - OPEN_SHARE);
        let closed = self.closed_loop(closed_s, usize::MAX);
        self.cursor += closed.used;
        let after = Scrape::take(self.addr);

        let mut w = Window::default();
        // Latency intervals: the requests due in each half second.
        let per_interval = RATE as usize / 2;
        w.latency_ms = vec![Vec::new(); open.used.div_ceil(per_interval)];
        for &(n, ms, _) in &open.latency {
            w.latency_ms[n / per_interval].push(ms);
        }
        // Saturation: completions per interval of about a second, after
        // a ramp in which the in-flight windows fill.
        let ramp = (closed_s * 0.1).min(1.0);
        let intervals = (closed_s - ramp).floor().max(1.0);
        let width = (closed_s - ramp) / intervals;
        let mut counts = vec![0.0; intervals as usize];
        for &t in closed.done_at.iter().filter(|&&t| t >= ramp) {
            if let Some(c) = counts.get_mut(((t - ramp) / width) as usize) {
                *c += 1.0;
            }
        }
        w.rounds = counts.iter().map(|&c| (c, width)).collect();

        let by_cache = |hit: bool| -> Vec<f64> {
            open.latency
                .iter()
                .filter(|l| l.2 == hit)
                .map(|l| l.1)
                .collect()
        };
        let (cold, warm) = (by_cache(false), by_cache(true));
        let lag_p99 = quantile(&open.lag_ms, 0.99);
        if lag_p99 > 5.0 {
            eprintln!(
                "serve-mixed: generator lag p99 {lag_p99:.2} ms > 5 ms; this window measured the generator, not the daemon"
            );
        }
        let all: Vec<f64> = open.latency.iter().map(|l| l.1).collect();
        w.info = vec![
            Metric::new("p99_ms", quantile(&all, 0.99), "ms", all.len() as u64),
            Metric::new("cold_p50_ms", quantile(&cold, 0.5), "ms", cold.len() as u64),
            Metric::new("warm_p50_ms", quantile(&warm, 0.5), "ms", warm.len() as u64),
            Metric::new("gen.lag_p99_ms", lag_p99, "ms", open.lag_ms.len() as u64),
        ];

        let mut requests = open.requests;
        requests.queue_ms.extend(closed.requests.queue_ms);
        requests.service_ms.extend(closed.requests.service_ms);
        requests.wire_ms.extend(closed.requests.wire_ms);
        w.attempted = open.w.attempted + closed.w.attempted;
        w.failed = open.w.failed + closed.w.failed;
        w.failures = open
            .w
            .failures
            .into_iter()
            .chain(closed.w.failures)
            .take(8)
            .collect();
        match (before, after) {
            (Ok(before), Ok(after)) => {
                w.layers = requests.layers(&before, &after, w.attempted);
            }
            (Err(e), _) | (_, Err(e)) => w.fail(e),
        }
        w.layers.push(("gen.lag_p99_ms", lag_p99));
        w.layers.push(("gen.sent", w.attempted as f64));
        w
    }

    fn probe(&mut self) -> Vec<(&'static str, f64)> {
        for source in self.pool.iter().take(8) {
            crate::harness::frontend_probe(source);
        }
        Vec::new()
    }

    fn finish(self) {
        self.server.shutdown();
    }
}
