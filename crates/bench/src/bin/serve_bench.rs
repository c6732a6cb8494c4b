//! Load generator for the `pathslice serve` daemon.
//!
//! Starts an in-process [`server::Server`], drives it over real TCP
//! with a fleet of persistent NDJSON connections, and reports latency
//! percentiles split by cache outcome — the experiment behind the
//! analysis cache: repeat submissions of the same (or a reformatted)
//! program must be measurably cheaper than cold ones.
//!
//! Usage:
//!
//! ```text
//! serve_bench [small|medium|full]
//!             [--requests <n>] [--concurrency <c>] [--repeat-ratio <r>]
//!             [--rate <req/s>] [--seed <s>] [--server-jobs <n>]
//!             [--pipeline <depth>] [--connections <n>]
//!             [--json] [--smoke] [--metrics-out <metrics.prom>]
//!             [--trace-out <spans.json>]
//!             [--journal <dir>] [--attach <host:port>] [--no-retry]
//!             [--drill restart|pipeline|edit]
//!             [--functions <n>] [--edits <n>]
//! ```
//!
//! Each request is a distinct generated workload program (seed-varied)
//! with probability `1 - r`, or a re-submission of one already sent with
//! probability `r`. Requests are classified *by the response's*
//! `cache: hit|miss` field, so the split is ground truth from the
//! daemon, not a guess from the schedule. With `--rate`, send times are
//! fixed up front (open-loop: a late response makes the next sends
//! burst, and the queueing shows up as latency); without it, each
//! connection issues back-to-back.
//!
//! `--json` writes `BENCH_serve.json` (`pathslice-bench/v1`): rows
//! `all` / `cached` / `cold` with `p50`/`p95`/`p99`/`total` in
//! `times_s`, plus the full per-verdict latency distribution as an
//! [`obs::Histogram`] snapshot (`hists.latency_us`, with bucket-exact
//! `hist_p50_us`/`hist_p95_us`/`hist_p99_us` columns) so regression
//! diffs can reason about tails, not just three points. `--smoke` is
//! the CI mode: 3 requests on 1 connection (the third repeats the
//! first → must hit the cache), then asserts a clean drain and zero
//! leaked threads. `--metrics-out` fetches the daemon's Prometheus
//! exposition over the wire (`op: "metrics"`) right before the drain
//! and writes it to a file; `--trace-out` dumps the run's span trees.
//!
//! Robustness knobs: `--journal <dir>` attaches the durable verdict
//! journal to the in-process daemon; `--attach <host:port>` drives an
//! externally started daemon instead of spawning one (server-side
//! accounting is then unavailable, so it composes with neither
//! `--smoke` nor `--drill`); `--no-retry` disables the client-side
//! transport retry (default: 3 bounded attempts with backoff).
//! `--drill restart` runs the kill-and-recover drill instead of a load
//! run: journaled daemon → half the programs → `SIGKILL`-equivalent
//! crash (no flush, no compaction) → restart on the same journal →
//! assert the recovery counters and that every recovered verdict is
//! served warm, byte-identical to a cold journal-less control.
//!
//! `--pipeline <depth>` switches the load run's connections to
//! `pathslice-wire/v2` with up to `depth` requests in flight per
//! connection (frames are correlated by response id, so completions may
//! return out of order). Pipelined sends are fire-and-forget — the
//! transport retry loop does not apply; a torn connection fails its
//! in-flight window.
//!
//! `--drill pipeline` is the high-concurrency drill: `--connections`
//! (default 1024) persistent sockets are opened *simultaneously*, the
//! cache is primed with a handful of distinct programs, and every
//! connection then pipelines its share of `--requests` warm checks as
//! one v2 burst. Gates (all deterministic): zero failed requests, zero
//! sheds (`server.overloaded == 0` — warm checks ride the fast lane,
//! which must absorb the whole burst), every response `cache: hit` and
//! byte-identical to the batch `pathslice check` verdict for its
//! program. Cache-hit throughput is printed as an advisory wall-clock
//! number (CI runs on whatever core count it gets).
//!
//! `--drill edit` is the interactive-editing drill for the incremental
//! derivation graph: a journaled daemon checks a `--functions`-leaf
//! dispatcher cold, then `--edits` requests each change exactly one
//! function body. Gates: every edit routes through `Session::update`,
//! invalidates exactly one cluster, reuses every untouched cluster's
//! certificate-gated verdict (`incr.verdict_reused`), renders
//! byte-identical to a cold batch check (modulo the wall column —
//! refinement counts included), and the warm walls total less
//! than the cold ones; a chaos pass corrupting every `IncrReuse`
//! candidate must reject them all and still serve correct verdicts.
//! With `--json` the run writes `BENCH_incr.json` (`warm` / `cold`
//! rows with the reuse counters).

use blastlite::strip_wall_column;
use obs::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use server::{wire, Client, Server, ServerConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::gen::generate;
use workloads::WorkloadSpec;

/// One program per seed: small enough that a check is milliseconds, so
/// the setup pipeline (parse → lower → analyses) the cache elides is a
/// visible fraction of cold latency.
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

#[derive(Debug, Clone, Copy)]
struct Sample {
    latency: Duration,
    cache_hit: bool,
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    match flag(name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad {name} value `{v}`");
            std::process::exit(64);
        }),
        None => default,
    }
}

fn os_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// `--drill restart`: the kill-and-recover drill.
///
/// Phase 1 starts a journaled daemon, checks half the programs, and
/// crashes it ([`Server::crash`]: the `SIGKILL` shape — no drain, no
/// journal flush, no compaction). Phase 2 restarts on the same journal
/// directory and asserts the recovery counters: every journaled verdict
/// recovered (each re-validated through its certificate before it may
/// serve), none rejected, no torn tail (the crash landed between
/// appends, and appends are single `write_all`s). It then resends all
/// `k` programs: the first half must come back `warm` — every cluster
/// served from the recovered verdict memo, no check re-run — and identical
/// to the pre-crash verdicts; the second half was never journaled and
/// must run cold. Warm responses are counted by `server.verdict_hits`.
/// Phase 3 is the control: a fresh journal-less daemon
/// checks all `k` programs from scratch, and every phase-2 verdict must
/// match it byte-for-byte (modulo the wall-time column).
fn drill_restart(seed: u64, requests: usize, server_jobs: usize, retry: u32) {
    let k = (requests.clamp(4, 64) + 1) & !1; // even, bounded
    let half = k / 2;
    let journal_dir = flag("--journal").map(PathBuf::from).unwrap_or_else(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        std::env::temp_dir().join(format!("pathslice-drill-{}-{nanos}", std::process::id()))
    });
    let config = || ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: server_jobs,
        journal_dir: Some(journal_dir.clone()),
        ..ServerConfig::default()
    };
    let programs: Vec<String> = (0..k as u64)
        .map(|i| generate(&spec(seed + i)).source)
        .collect();
    let send = |client: &mut Client, i: usize| -> (bool, i32, Vec<String>) {
        let mut request = wire::Request::new(&programs[i]);
        request.id = format!("drill-{i}");
        match client.request(&request) {
            Ok(wire::Response::Ok {
                warm, exit, render, ..
            }) => (warm, exit, strip_wall_column(&render)),
            Ok(other) => panic!("drill request {i}: unexpected response {other:?}"),
            Err(e) => panic!("drill request {i}: {e}"),
        }
    };

    // Phase 1: journaled daemon, half the programs, then the crash.
    let server = Server::start(config()).expect("bind drill server");
    let addr = server.local_addr();
    eprintln!(
        "drill restart: phase 1 on {addr}, journal {}",
        journal_dir.display()
    );
    let mut client = Client::connect_retrying(addr, retry).expect("connect phase 1");
    let before: Vec<_> = (0..half).map(|i| send(&mut client, i)).collect();
    drop(client);
    let crashed = server.crash();
    assert_eq!(crashed.requests, half as u64, "drill: phase-1 accounting");
    for (i, (warm, ..)) in before.iter().enumerate() {
        assert!(!warm, "drill: phase-1 request {i} cannot be warm");
    }
    // The crash leaks its threads instead of joining them; give them a
    // beat to observe the cancelled token before binding the successor.
    std::thread::sleep(Duration::from_millis(150));

    // Phase 2: restart on the same journal. Replay must recover every
    // appended verdict — and nothing else.
    let server = Server::start(config()).expect("restart drill server");
    let addr = server.local_addr();
    let journal = server.stats().journal.expect("journal stats");
    eprintln!(
        "drill restart: phase 2 on {addr} — {} recovered, {} rejected, {} torn",
        journal.recovered, journal.rejected, journal.torn
    );
    assert_eq!(journal.recovered, half as u64, "drill: recovery count");
    assert_eq!(
        journal.rejected, 0,
        "drill: no verdict may fail re-validation"
    );
    assert_eq!(
        journal.torn, 0,
        "drill: crash between appends tears nothing"
    );
    let mut client = Client::connect_retrying(addr, retry).expect("connect phase 2");
    let after: Vec<_> = (0..k).map(|i| send(&mut client, i)).collect();
    drop(client);
    let stats = server.shutdown();
    for (i, (warm, exit, render)) in after.iter().enumerate() {
        if i < half {
            assert!(
                warm,
                "drill: request {i} must be served warm from the journal"
            );
            assert_eq!(
                (exit, render),
                (&before[i].1, &before[i].2),
                "drill: request {i} warm verdict differs from pre-crash"
            );
        } else {
            assert!(
                !warm,
                "drill: request {i} was never journaled, cannot be warm"
            );
        }
    }
    assert_eq!(
        stats.verdict_hits, half as u64,
        "drill: warm-hit accounting"
    );

    // Phase 3: the cold control — no journal, every program checked
    // from scratch. Journal-served verdicts must be indistinguishable.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: server_jobs,
        ..ServerConfig::default()
    })
    .expect("bind control server");
    let mut client = Client::connect_retrying(server.local_addr(), retry).expect("connect control");
    let control: Vec<_> = (0..k).map(|i| send(&mut client, i)).collect();
    drop(client);
    server.shutdown();
    for (i, (_, exit, render)) in control.iter().enumerate() {
        assert_eq!(
            (&after[i].1, &after[i].2),
            (exit, render),
            "drill: request {i} journal-served verdict differs from cold control"
        );
    }

    println!(
        "drill restart: OK ({half} verdict(s) recovered and re-validated, \
         {half} warm replay(s) byte-identical to a cold control, journal at {})",
        journal_dir.display()
    );
}

/// Reads one pipelined response off `client`, resolving it against the
/// in-flight window by id. Returns `false` when the connection is gone
/// (the remaining window is charged as failures).
fn read_pipelined(
    client: &mut Client,
    inflight: &mut HashMap<String, Instant>,
    samples: &mut Vec<Sample>,
    failures: &mut Vec<String>,
) -> bool {
    match client.read_response() {
        Ok(response) => {
            let Some(sent_at) = inflight.remove(response.id()) else {
                failures.push(format!("unsolicited response id `{}`", response.id()));
                return true;
            };
            match response {
                wire::Response::Ok { cache_hit, .. } => samples.push(Sample {
                    latency: sent_at.elapsed(),
                    cache_hit,
                }),
                other => failures.push(format!("{}: {other:?}", other.id())),
            }
            true
        }
        Err(e) => {
            for id in inflight.drain().map(|(id, _)| id) {
                failures.push(format!("{id}: connection lost ({e})"));
            }
            false
        }
    }
}

/// One connection's share of a pipelined (`--pipeline <depth>`) load
/// run: `pathslice-wire/v2` frames, a sliding window of `depth` in
/// flight, completions correlated by id.
#[allow(clippy::too_many_arguments)]
fn pipelined_connection(
    addr: SocketAddr,
    retry: u32,
    depth: usize,
    mine: Vec<(usize, u64)>,
    t0: Instant,
    interval: Option<Duration>,
) -> (Vec<Sample>, Vec<String>) {
    let mut samples: Vec<Sample> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut client = match Client::connect_retrying(addr, retry) {
        Ok(c) => c,
        Err(e) => {
            failures.push(format!("connect: {e}"));
            return (samples, failures);
        }
    };
    let mut inflight: HashMap<String, Instant> = HashMap::new();
    for (i, program_seed) in mine {
        if let Some(interval) = interval {
            // Open-loop: request i is *due* at t0 + i·Δ; if we are
            // behind, send immediately (burst).
            let due = t0 + interval * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        while inflight.len() >= depth.max(1) {
            if !read_pipelined(&mut client, &mut inflight, &mut samples, &mut failures) {
                return (samples, failures);
            }
        }
        let mut request = wire::Request::new(&generate(&spec(program_seed)).source);
        request.id = format!("r{i}");
        let frame = request.to_json_versioned(wire::WireVersion::V2);
        match client.send_frame(&frame) {
            Ok(()) => {
                inflight.insert(request.id, Instant::now());
            }
            Err(e) => failures.push(format!("r{i}: {e}")),
        }
    }
    while !inflight.is_empty() {
        if !read_pipelined(&mut client, &mut inflight, &mut samples, &mut failures) {
            break;
        }
    }
    (samples, failures)
}

/// `--drill pipeline`: the high-concurrency pipelining drill.
///
/// Opens `connections` persistent sockets *simultaneously* (all are
/// connected before any frame is sent), primes the daemon's cache with
/// a handful of distinct programs, then has every connection pipeline
/// its share of warm checks as one `pathslice-wire/v2` burst and read
/// the completions back by id. Every gate is deterministic: zero failed
/// requests, zero sheds (warm checks ride the fast admission lane,
/// sized here to absorb the whole burst), every response a cache hit
/// and byte-identical to the batch `pathslice check` verdict for its
/// program. Throughput is printed but not asserted — wall-clock belongs
/// to the hardware, the invariants belong to this drill.
fn drill_pipeline(
    seed: u64,
    connections: usize,
    requests: usize,
    concurrency: usize,
    server_jobs: usize,
    retry: u32,
) {
    let connections = connections.max(1);
    let per_conn = (requests / connections).max(1);
    let total = per_conn * connections;
    let distinct = 4usize.min(connections);
    let programs: Vec<String> = (0..distinct as u64)
        .map(|i| generate(&spec(seed + i)).source)
        .collect();

    // Ground truth: the batch path — the same `Session::compile` →
    // `check` → `render_verdicts` pipeline `pathslice check` runs
    // (tests/server.rs proves that path byte-identical to the CLI
    // binary's output; `bench` cannot depend on `cli` directly because
    // `pathslice bench diff` makes `cli` depend on `bench`).
    let controls: Vec<(i32, Vec<String>)> = programs
        .iter()
        .enumerate()
        .map(|(i, src)| {
            let session = blastlite::Session::compile(src, &format!("pipedrill-{i}.imp"))
                .expect("drill program compiles");
            let report = session.check(
                blastlite::CheckerConfig {
                    reducer: blastlite::Reducer::path_slice(),
                    ..blastlite::CheckerConfig::default()
                },
                &blastlite::DriverConfig::sequential(),
            );
            let reports = report.into_cluster_reports();
            let (render, exit) = blastlite::render_verdicts(session.program(), &reports);
            (exit, strip_wall_column(&render))
        })
        .collect();

    // Every pipelined request repeats a primed program, so each is
    // served warm from its session's verdict memo — no re-check — which
    // is the tier this drill stresses; the journal rides along as in
    // production.
    let journal_dir = flag("--journal").map(PathBuf::from).unwrap_or_else(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        std::env::temp_dir().join(format!(
            "pathslice-pipedrill-{}-{nanos}",
            std::process::id()
        ))
    });
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: server_jobs,
        journal_dir: Some(journal_dir),
        // The whole burst must fit the fast lane: a shed here would be
        // a config artifact, not a scheduling failure.
        fast_queue_capacity: total.max(4096),
        ..ServerConfig::default()
    })
    .expect("bind drill server");
    let addr = server.local_addr();
    eprintln!(
        "drill pipeline: {connections} connection(s) × {per_conn} warm request(s) \
         (depth {per_conn}) on {addr}"
    );

    // Prime: every distinct program once, cold, verdicts checked
    // against the batch CLI right away.
    let mut primer = Client::connect_retrying(addr, retry).expect("connect primer");
    for (i, src) in programs.iter().enumerate() {
        let mut request = wire::Request::new(src);
        request.id = format!("prime-{i}");
        match primer.request(&request) {
            Ok(wire::Response::Ok { exit, render, .. }) => {
                assert_eq!(
                    (exit, strip_wall_column(&render)),
                    (controls[i].0, controls[i].1.clone()),
                    "drill pipeline: prime {i} diverges from batch CLI"
                );
            }
            other => panic!("drill pipeline: prime {i}: {other:?}"),
        }
    }

    // Every connection exists before any frame is sent: the daemon
    // really is holding `connections` sockets at once.
    let threads = concurrency.clamp(1, connections);
    let conns_per_thread = connections.div_ceil(threads);
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
    let programs = std::sync::Arc::new(programs);
    let controls = std::sync::Arc::new(controls);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let barrier = barrier.clone();
            let programs = programs.clone();
            let controls = controls.clone();
            let lo = t * conns_per_thread;
            let hi = ((t + 1) * conns_per_thread).min(connections);
            std::thread::spawn(move || {
                let mut clients: Vec<Client> = (lo..hi)
                    .map(|_| Client::connect_retrying(addr, retry).expect("connect drill"))
                    .collect();
                barrier.wait(); // all sockets open fleet-wide
                let mut expected: Vec<(usize, usize)> = Vec::new(); // (conn, program)
                for (ci, client) in clients.iter_mut().enumerate() {
                    let conn = lo + ci;
                    for j in 0..per_conn {
                        let program = (conn + j) % programs.len();
                        let mut request = wire::Request::new(&programs[program]);
                        request.id = format!("c{conn}-{j}");
                        client
                            .send_frame(&request.to_json_versioned(wire::WireVersion::V2))
                            .expect("pipeline send");
                        expected.push((ci, program));
                    }
                }
                // Read every completion back; ids tell us which
                // program each response answers, order does not matter.
                let mut failures: Vec<String> = Vec::new();
                let mut served = 0usize;
                for (ci, client) in clients.iter_mut().enumerate() {
                    let conn = lo + ci;
                    let mut seen: HashMap<String, usize> = (0..per_conn)
                        .map(|j| (format!("c{conn}-{j}"), (conn + j) % programs.len()))
                        .collect();
                    for _ in 0..per_conn {
                        match client.read_response() {
                            Ok(wire::Response::Ok {
                                id,
                                cache_hit,
                                warm,
                                exit,
                                render,
                                ..
                            }) => {
                                let Some(program) = seen.remove(&id) else {
                                    failures.push(format!("{id}: duplicate or foreign id"));
                                    continue;
                                };
                                if !cache_hit || !warm {
                                    failures.push(format!(
                                        "{id}: expected a warm cache hit (hit={cache_hit}, warm={warm})"
                                    ));
                                }
                                if (exit, strip_wall_column(&render))
                                    != (controls[program].0, controls[program].1.clone())
                                {
                                    failures.push(format!("{id}: verdict diverges from batch CLI"));
                                }
                                served += 1;
                            }
                            Ok(other) => failures.push(format!("{other:?}")),
                            Err(e) => {
                                failures.push(format!("c{conn}: {e}"));
                                break;
                            }
                        }
                    }
                }
                (served, failures)
            })
        })
        .collect();

    let mut served = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for h in handles {
        let (s, f) = h.join().expect("drill thread");
        served += s;
        failures.extend(f);
    }
    let elapsed = t0.elapsed();
    let stats = server.shutdown();

    for f in failures.iter().take(8) {
        eprintln!("drill pipeline: {f}");
    }
    assert!(
        failures.is_empty(),
        "drill pipeline: {} failure(s)",
        failures.len()
    );
    assert_eq!(served, total, "drill pipeline: lost responses");
    assert_eq!(
        stats.overloaded, 0,
        "drill pipeline: warm burst must not shed: {stats}"
    );
    assert_eq!(
        stats.requests,
        (total + distinct) as u64,
        "drill pipeline: server accounting"
    );
    assert!(
        stats.cache.hits >= total as u64,
        "drill pipeline: every pipelined check must hit the cache: {stats}"
    );
    println!(
        "drill pipeline: OK ({connections} concurrent connection(s), {total} pipelined \
         warm request(s), 0 failed, 0 shed, all byte-identical to batch CLI; \
         {:.0} req/s wall-clock advisory)",
        total as f64 / elapsed.as_secs_f64()
    );
}

/// One leaf of the `--drill edit` dispatcher. `version < 100` is the
/// pristine body; an edit bumps the version past 100 *and* appends a
/// statement, so the function's edge count changes too — every other
/// cluster's reused slice still has to resolve its per-function edge
/// ids against the new program. The appended statement keeps a
/// constant right-hand side on purpose: an arithmetic RHS (`a + 0`)
/// taints the variable *wild* in the Andersen pass, which flips the
/// whole-program alias fingerprint and soundly invalidates every
/// cluster — a real effect, but not the one this drill measures.
/// Every fifth leaf harbors a reachable bug so the reused-verdict mix
/// covers both `SAFE` and `BUG` renders.
fn edit_leaf(i: usize, version: u64) -> String {
    let extra = if version >= 100 {
        format!("a = {version}; ")
    } else {
        String::new()
    };
    if i.is_multiple_of(5) {
        format!("fn f{i}() {{ local a; a = {version}; {extra}if (a == {version}) {{ error(); }} }}")
    } else {
        format!("fn f{i}() {{ local a; a = {version}; {extra}if (a < 0) {{ error(); }} }}")
    }
}

/// The `--drill edit` program: `n` leaves behind an `else`-nested
/// dispatcher. The nesting matters — a *sequential* `if` chain would
/// put every earlier call on the path to every later one, so each
/// cluster's control-closed dependency set would swallow all earlier
/// leaves and a single edit would invalidate everything. Nested `else`
/// keeps each leaf's dependency set at exactly `{main, f_i}`.
fn edit_program(versions: &[u64]) -> String {
    let n = versions.len();
    let mut src = String::from("global s;\n");
    for (i, &v) in versions.iter().enumerate() {
        src.push_str(&edit_leaf(i, v));
        src.push('\n');
    }
    src.push_str("fn main() { s = nondet(); ");
    for i in 0..n {
        src.push_str(&format!("if (s == {i}) {{ f{i}(); }} else {{ "));
    }
    src.push_str("s = 0; ");
    for _ in 0..n {
        src.push_str("} ");
    }
    src.push_str("}\n");
    src
}

/// `--drill edit`: the interactive-editing drill for the incremental
/// derivation graph.
///
/// Phase 1 checks an `n`-function dispatcher cold on a journaled
/// daemon. Phase 2 slides a single-function edit across the program:
/// each request differs from its predecessor in exactly one function
/// body, so the daemon's skeleton index must route it through
/// `Session::update` and the certificate gate must re-admit every
/// untouched cluster's stored verdict. Gates, per edit: exactly one
/// cluster invalidated, `incr.verdict_reused` rises by the unchanged
/// cluster count, `incr.fn_hits` rises by the unedited function count,
/// and the render is byte-identical (modulo the wall column) to a cold
/// batch check of the same edited source: re-checked clusters run
/// exactly as a cold check runs them, so refinement counts match too. Across the phase, warm
/// daemon latency must total strictly less than the cold batch walls —
/// the reuse has to be visible in wall-clock, not just counters.
/// Phase 3 is the chaos pass: a fresh daemon with every `IncrReuse`
/// candidate's certificate corrupted in flight must reject them all
/// (`incr.cert_rejected` > 0, `incr.verdict_reused` == 0), fall back
/// to cold re-checks, and still serve the correct verdicts.
fn drill_edit(
    seed: u64,
    functions: usize,
    edits: usize,
    server_jobs: usize,
    retry: u32,
    json: bool,
    scale: workloads::Scale,
) {
    let n = functions.clamp(20, 64);
    let edits = edits.clamp(2, n);
    let mut versions: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();

    // Ground truth for one source: the batch `Session::compile` →
    // `check` → `render_verdicts` pipeline (no reuse, no gate), timed —
    // the cold wall the warm path must beat.
    let control = |src: &str| -> (i32, Vec<String>, Duration) {
        let t = Instant::now();
        let session =
            blastlite::Session::compile(src, "editdrill.imp").expect("drill program compiles");
        let report = session.check(
            blastlite::CheckerConfig {
                reducer: blastlite::Reducer::path_slice(),
                ..blastlite::CheckerConfig::default()
            },
            &blastlite::DriverConfig::sequential(),
        );
        let wall = t.elapsed();
        let reports = report.into_cluster_reports();
        let (render, exit) = blastlite::render_verdicts(session.program(), &reports);
        (exit, strip_wall_column(&render), wall)
    };

    let journal_root = flag("--journal").map(PathBuf::from).unwrap_or_else(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        std::env::temp_dir().join(format!(
            "pathslice-editdrill-{}-{nanos}",
            std::process::id()
        ))
    });

    // Phase 1: cold check of the pristine program on a journaled daemon.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: server_jobs,
        journal_dir: Some(journal_root.join("main")),
        ..ServerConfig::default()
    })
    .expect("bind edit-drill server");
    let addr = server.local_addr();
    eprintln!("drill edit: {n} function(s), {edits} sliding edit(s) on {addr}");
    let mut client = Client::connect_retrying(addr, retry).expect("connect edit drill");
    let send = |client: &mut Client, src: &str, id: String| -> (i32, Vec<String>, Duration) {
        let mut request = wire::Request::new(src);
        request.id = id;
        let sent_at = Instant::now();
        match client.request(&request) {
            Ok(wire::Response::Ok { exit, render, .. }) => {
                (exit, strip_wall_column(&render), sent_at.elapsed())
            }
            Ok(other) => panic!("drill edit `{}`: unexpected response {other:?}", request.id),
            Err(e) => panic!("drill edit `{}`: {e}", request.id),
        }
    };
    let base_src = edit_program(&versions);
    let (base_exit, base_render, _) = send(&mut client, &base_src, "edit-base".into());
    let (ctl_exit, ctl_render, _) = control(&base_src);
    assert_eq!(
        (base_exit, &base_render),
        (ctl_exit, &ctl_render),
        "drill edit: cold base check diverges from batch CLI"
    );
    let base_stats = server.stats().incr;
    assert_eq!(
        base_stats.verdict_reused, 0,
        "drill edit: a cold daemon has nothing to reuse"
    );

    // Phase 2: slide a single-function edit across the program. Every
    // request is one function body away from its predecessor.
    let mut warm_lat: Vec<Duration> = Vec::new();
    let mut cold_walls: Vec<Duration> = Vec::new();
    let mut prev = server.stats().incr;
    for e in 0..edits {
        versions[e] += 100;
        let src = edit_program(&versions);
        let (exit, render, latency) = send(&mut client, &src, format!("edit-{e}"));
        let (ctl_exit, ctl_render, ctl_wall) = control(&src);
        assert_eq!(
            (exit, &render),
            (ctl_exit, &ctl_render),
            "drill edit: edit {e} warm verdicts diverge from a cold batch check"
        );
        let now = server.stats().incr;
        assert_eq!(
            now.invalidated_clusters - prev.invalidated_clusters,
            1,
            "drill edit: edit {e} touched one function, must invalidate exactly one cluster"
        );
        assert_eq!(
            now.verdict_reused - prev.verdict_reused,
            (n - 1) as u64,
            "drill edit: edit {e} must reuse every untouched cluster's verdict"
        );
        assert_eq!(
            now.fn_hits - prev.fn_hits,
            n as u64, // n + 1 functions, 1 edited
            "drill edit: edit {e} must key-match every unedited function"
        );
        assert_eq!(
            now.cert_rejected, 0,
            "drill edit: no intact certificate may fail the reuse gate"
        );
        prev = now;
        warm_lat.push(latency);
        cold_walls.push(ctl_wall);
        eprintln!(
            "drill edit: edit {e} (f{e}) — {} reused / 1 re-checked, warm {:?} vs cold {:?}",
            n - 1,
            latency,
            ctl_wall
        );
    }
    drop(client);
    let stats = server.shutdown();
    let warm_total: Duration = warm_lat.iter().sum();
    let cold_total: Duration = cold_walls.iter().sum();
    assert!(
        warm_total < cold_total,
        "drill edit: warm re-checks ({warm_total:?}) must beat cold batch walls ({cold_total:?})"
    );
    assert_eq!(
        stats.incr.verdict_reused,
        (edits * (n - 1)) as u64,
        "drill edit: total reuse accounting"
    );

    // Phase 3: chaos. Every reuse candidate's certificate is corrupted
    // at the IncrReuse site; the gate must reject each one and the
    // daemon must fall back to cold re-checks — warmth lost, verdicts
    // intact.
    let plan = rt::FaultPlan::new(seed ^ 0xED17).inject(
        rt::FaultSite::IncrReuse,
        rt::FaultKind::CorruptCertificate,
        1.0,
    );
    let chaos = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: server_jobs,
        journal_dir: Some(journal_root.join("chaos")),
        faults: plan,
        ..ServerConfig::default()
    })
    .expect("bind chaos server");
    let mut client = Client::connect_retrying(chaos.local_addr(), retry).expect("connect chaos");
    send(&mut client, &base_src, "chaos-base".into());
    // One single-function edit against the *pristine* program (the
    // phase-2 `versions` have drifted `edits` functions away from it).
    let mut chaos_versions: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
    chaos_versions[0] += 100;
    let chaos_src = edit_program(&chaos_versions);
    let (exit, render, _) = send(&mut client, &chaos_src, "chaos-edit".into());
    let (ctl_exit, ctl_render, _) = control(&chaos_src);
    assert_eq!(
        (exit, &render),
        (ctl_exit, &ctl_render),
        "drill edit: chaos verdicts must still match a cold batch check"
    );
    drop(client);
    let chaos_stats = chaos.shutdown();
    assert_eq!(
        chaos_stats.incr.verdict_reused, 0,
        "drill edit: a corrupted certificate must never be reused"
    );
    assert_eq!(
        chaos_stats.incr.cert_rejected,
        (n - 1) as u64,
        "drill edit: every corrupted candidate must be rejected at the gate"
    );

    if json {
        let mut rep = bench::BenchReport::new("incr", bench::scale_name(scale));
        rep.config("functions", Json::Num(n as i64));
        rep.config("edits", Json::Num(edits as i64));
        rep.config("seed", Json::Num(seed as i64));
        rep.config("server_jobs", Json::Num(server_jobs as i64));
        for (name, lats, extra) in [
            (
                "warm",
                warm_lat.clone(),
                vec![
                    ("fn_hits".to_owned(), stats.incr.fn_hits as i64),
                    ("cfa_reused".to_owned(), stats.incr.cfa_reused as i64),
                    (
                        "fixpoint_reused".to_owned(),
                        stats.incr.fixpoint_reused as i64,
                    ),
                    (
                        "invalidated_clusters".to_owned(),
                        stats.incr.invalidated_clusters as i64,
                    ),
                    (
                        "verdict_reused".to_owned(),
                        stats.incr.verdict_reused as i64,
                    ),
                    (
                        "chaos_cert_rejected".to_owned(),
                        chaos_stats.incr.cert_rejected as i64,
                    ),
                ],
            ),
            ("cold", cold_walls.clone(), Vec::new()),
        ] {
            let mut sorted = lats;
            sorted.sort();
            let total: Duration = sorted.iter().sum();
            let hist = obs::Histogram::new();
            for d in &sorted {
                hist.record(d.as_micros() as u64);
            }
            let snap = hist.snapshot();
            let mut fields = vec![
                ("requests".to_owned(), sorted.len() as i64),
                (
                    "hist_p50_us".to_owned(),
                    snap.quantile_interpolated(0.50) as i64,
                ),
                (
                    "hist_p95_us".to_owned(),
                    snap.quantile_interpolated(0.95) as i64,
                ),
            ];
            fields.extend(extra);
            rep.rows.push(bench::Row {
                name: name.into(),
                variant: "default".into(),
                fields,
                times_s: vec![
                    ("p50".into(), percentile(&sorted, 0.50).as_secs_f64()),
                    ("p95".into(), percentile(&sorted, 0.95).as_secs_f64()),
                    ("total".into(), total.as_secs_f64()),
                ],
                hists: vec![("latency_us".into(), snap)],
                ..bench::Row::default()
            });
        }
        bench::finish_json_report(rep);
    }

    println!(
        "drill edit: OK ({edits} single-function edit(s) over {n} function(s), \
         {} verdict(s) reused, {} invalidated, warm {warm_total:?} vs cold {cold_total:?}; \
         chaos pass rejected {} corrupted certificate(s), verdicts intact)",
        stats.incr.verdict_reused, stats.incr.invalidated_clusters, chaos_stats.incr.cert_rejected,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json = bench::json_requested();
    if json {
        obs::set_enabled(true);
    }
    let scale = bench::scale_from_args();
    let requests: usize = if smoke {
        3
    } else {
        parse_flag("--requests", 40)
    };
    let concurrency: usize = if smoke {
        1
    } else {
        parse_flag("--concurrency", 4).max(1)
    };
    let repeat_ratio: f64 = parse_flag("--repeat-ratio", 0.5);
    let rate: f64 = parse_flag("--rate", 0.0);
    let seed: u64 = parse_flag("--seed", 7);
    let server_jobs: usize = parse_flag("--server-jobs", 4);
    let pipeline: usize = if smoke {
        1
    } else {
        parse_flag("--pipeline", 1).max(1)
    };
    let retry: u32 = if std::env::args().any(|a| a == "--no-retry") {
        0
    } else {
        3
    };

    if let Some(drill) = flag("--drill") {
        match drill.as_str() {
            "restart" => {
                drill_restart(seed, parse_flag("--requests", 8), server_jobs, retry);
                return;
            }
            "pipeline" => {
                drill_pipeline(
                    seed,
                    parse_flag("--connections", 1024),
                    parse_flag("--requests", 4096),
                    parse_flag("--concurrency", 8),
                    server_jobs,
                    retry,
                );
                return;
            }
            "edit" => {
                drill_edit(
                    seed,
                    parse_flag("--functions", 24),
                    parse_flag("--edits", 6),
                    server_jobs,
                    retry,
                    json,
                    scale,
                );
                return;
            }
            other => {
                eprintln!("unknown --drill `{other}` (expected `restart`, `pipeline`, or `edit`)");
                std::process::exit(64);
            }
        }
    }

    let attach: Option<SocketAddr> = flag("--attach").map(|a| {
        a.parse().unwrap_or_else(|_| {
            eprintln!("bad --attach value `{a}`");
            std::process::exit(64);
        })
    });
    if smoke && attach.is_some() {
        eprintln!("--smoke asserts in-process daemon accounting; drop --attach");
        std::process::exit(64);
    }

    let threads_before = os_threads();
    let server = if attach.is_some() {
        None
    } else {
        Some(
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                jobs: server_jobs,
                journal_dir: flag("--journal").map(PathBuf::from),
                ..ServerConfig::default()
            })
            .expect("bind bench server"),
        )
    };
    let addr = attach.unwrap_or_else(|| server.as_ref().expect("in-process server").local_addr());
    eprintln!(
        "serve_bench: daemon on {addr}, {requests} request(s), {concurrency} connection(s), \
         repeat-ratio {repeat_ratio}"
    );

    // The request schedule, decided up front and deterministic in
    // --seed: each entry is the generating seed of the program to send.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sent: Vec<u64> = Vec::new();
    let mut schedule: Vec<u64> = Vec::new();
    for i in 0..requests {
        if smoke {
            // 3-request CI shape: two distinct programs, then repeat
            // the first — a guaranteed cache hit.
            schedule.push([seed, seed + 1, seed][i % 3]);
            continue;
        }
        if !sent.is_empty() && rng.gen_bool(repeat_ratio) {
            let idx: usize = rng.gen_range(0..sent.len());
            schedule.push(sent[idx]);
        } else {
            let fresh = seed + schedule.len() as u64;
            sent.push(fresh);
            schedule.push(fresh);
        }
    }

    // Fan the schedule out round-robin over the connection fleet.
    let t0 = Instant::now();
    let interval = if rate > 0.0 {
        Some(Duration::from_secs_f64(1.0 / rate))
    } else {
        None
    };
    let handles: Vec<_> = (0..concurrency)
        .map(|c| {
            let mine: Vec<(usize, u64)> = schedule
                .iter()
                .enumerate()
                .filter(|(i, _)| i % concurrency == c)
                .map(|(i, &s)| (i, s))
                .collect();
            std::thread::spawn(move || {
                if pipeline > 1 {
                    // v2 pipelined: a sliding window of `pipeline`
                    // requests in flight per connection.
                    return pipelined_connection(addr, retry, pipeline, mine, t0, interval);
                }
                let mut client = Client::connect_retrying(addr, retry).expect("connect");
                let mut samples: Vec<Sample> = Vec::new();
                let mut failures: Vec<String> = Vec::new();
                for (i, program_seed) in mine {
                    if let Some(interval) = interval {
                        // Open-loop: request i is *due* at t0 + i·Δ; if
                        // we are behind, send immediately (burst).
                        let due = t0 + interval * i as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                    }
                    let mut request = wire::Request::new(&generate(&spec(program_seed)).source);
                    request.id = format!("r{i}");
                    let sent_at = Instant::now();
                    match client.request(&request) {
                        Ok(wire::Response::Ok { cache_hit, .. }) => samples.push(Sample {
                            latency: sent_at.elapsed(),
                            cache_hit,
                        }),
                        Ok(other) => failures.push(format!("r{i}: {other:?}")),
                        Err(e) => failures.push(format!("r{i}: {e}")),
                    }
                }
                (samples, failures)
            })
        })
        .collect();

    let mut samples: Vec<Sample> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for h in handles {
        let (s, f) = h.join().expect("client thread");
        samples.extend(s);
        failures.extend(f);
    }
    let total = t0.elapsed();
    if let Some(path) = flag("--metrics-out") {
        // Through the wire, not Server::metrics_exposition(): the bench
        // should exercise the same path an operator's scraper would.
        let mut scraper = Client::connect_retrying(addr, retry).expect("connect for metrics");
        match scraper.metrics("serve-bench-final") {
            Ok((exposition, _series)) => match std::fs::write(&path, exposition) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("cannot write {path}: {e}"),
            },
            Err(e) => eprintln!("metrics request failed: {e}"),
        }
    }
    // Attached daemons outlive the bench; their accounting reads zero.
    let stats = server.map(Server::shutdown).unwrap_or_default();

    for f in &failures {
        eprintln!("request failed: {f}");
    }

    let split = |keep: Option<bool>| -> Vec<Duration> {
        let mut v: Vec<Duration> = samples
            .iter()
            .filter(|s| keep.is_none_or(|k| s.cache_hit == k))
            .map(|s| s.latency)
            .collect();
        v.sort();
        v
    };
    let (all, cached, cold) = (split(None), split(Some(true)), split(Some(false)));
    let throughput = samples.len() as f64 / total.as_secs_f64();

    println!("# serve_bench — daemon latency under load (scale: {scale:?})");
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>12}",
        "class", "n", "p50(ms)", "p95(ms)", "p99(ms)"
    );
    for (name, lat) in [("all", &all), ("cached", &cached), ("cold", &cold)] {
        println!(
            "{:<8} {:>6} {:>12.3} {:>12.3} {:>12.3}",
            name,
            lat.len(),
            percentile(lat, 0.50).as_secs_f64() * 1000.0,
            percentile(lat, 0.95).as_secs_f64() * 1000.0,
            percentile(lat, 0.99).as_secs_f64() * 1000.0,
        );
    }
    println!(
        "throughput: {throughput:.1} req/s over {:.2} s | server: {stats}",
        total.as_secs_f64()
    );

    if json {
        let mut rep = bench::BenchReport::new("serve", bench::scale_name(scale));
        rep.config("requests", Json::Num(requests as i64));
        rep.config("concurrency", Json::Num(concurrency as i64));
        rep.config("repeat_ratio", Json::Float(repeat_ratio));
        rep.config("rate", Json::Float(rate));
        rep.config("seed", Json::Num(seed as i64));
        rep.config("server_jobs", Json::Num(server_jobs as i64));
        rep.config("pipeline", Json::Num(pipeline as i64));
        for (name, lat) in [("all", &all), ("cached", &cached), ("cold", &cold)] {
            // The full distribution, log₂-bucketed: sort-based
            // percentiles above give exact points for the table, the
            // histogram snapshot round-trips through the report so
            // `bench diff` can compare tails bucket-for-bucket.
            let hist = obs::Histogram::new();
            for d in lat.iter() {
                hist.record(d.as_micros() as u64);
            }
            let snap = hist.snapshot();
            rep.rows.push(bench::Row {
                name: name.into(),
                variant: "default".into(),
                fields: vec![
                    ("requests".into(), lat.len() as i64),
                    ("failures".into(), failures.len() as i64),
                    ("cache_hits".into(), stats.cache.hits as i64),
                    ("cache_misses".into(), stats.cache.misses as i64),
                    ("cache_evictions".into(), stats.cache.evictions as i64),
                    ("overloaded".into(), stats.overloaded as i64),
                    ("throughput_rps".into(), throughput.round() as i64),
                    (
                        "hist_p50_us".into(),
                        snap.quantile_interpolated(0.50) as i64,
                    ),
                    (
                        "hist_p95_us".into(),
                        snap.quantile_interpolated(0.95) as i64,
                    ),
                    (
                        "hist_p99_us".into(),
                        snap.quantile_interpolated(0.99) as i64,
                    ),
                ],
                times_s: vec![
                    ("p50".into(), percentile(lat, 0.50).as_secs_f64()),
                    ("p95".into(), percentile(lat, 0.95).as_secs_f64()),
                    ("p99".into(), percentile(lat, 0.99).as_secs_f64()),
                    ("total".into(), total.as_secs_f64()),
                ],
                hists: vec![("latency_us".into(), snap)],
                ..bench::Row::default()
            });
        }
        bench::finish_json_report(rep);
    }
    bench::flush_trace_out();

    if smoke {
        // CI gate: every request answered, the repeat hit the cache,
        // the drain was clean, and no thread leaked.
        assert!(failures.is_empty(), "smoke: failures {failures:?}");
        assert_eq!(samples.len(), 3, "smoke: lost responses");
        assert_eq!(stats.requests, 3, "smoke: server accounting");
        assert!(stats.cache.hits >= 1, "smoke: repeat request must hit");
        assert_eq!(cached.len() as u64, stats.cache.hits, "smoke: hit split");
        if let (Some(before), Some(after)) = (threads_before, os_threads()) {
            assert_eq!(before, after, "smoke: leaked OS threads");
        }
        println!(
            "smoke: OK (3 requests, {} cache hit(s), clean drain)",
            stats.cache.hits
        );
    } else if !failures.is_empty() {
        std::process::exit(1);
    }
}
