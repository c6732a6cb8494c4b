//! Implementation of the `pathslice` command-line tool.
//!
//! ```text
//! pathslice check <file.imp> [--no-slicing] [--timeout <secs>] [--dfs]
//!                            [--jobs <n>] [--retries <k>]
//!                            [--validate] [--cert <trace.json>]
//!                            [--stats] [--stats-json <stats.json>]
//!                            [--trace-out <spans.json>]
//! pathslice serve [--addr <host:port>] [--jobs <n>] [--queue <n>]
//!                 [--fast-queue <n>] [--cache <n>] [--timeout <secs>]
//!                 [--journal <dir>]
//!                 [--stats] [--trace-out <spans.json>]
//!                 [--slow-ms <ms>] [--slow-out <traces.json>]
//!                 [--metrics-every <ms>]
//! pathslice metrics [--addr <host:port>] [--json] [--slow]
//! pathslice flame <spans.json>
//! pathslice bench diff <baseline.json|dir> <current.json>
//!                      [--rel-tol <f>] [--abs-slack <n>] [--time-gate]
//!                      [--json-out <verdict.json>]
//! pathslice slice <file.imp> [--skip-functions] [--no-early-unsat]
//! pathslice run   <file.imp> [--input v1,v2,...] [--fuel <n>]
//! pathslice dot   <file.imp> [<function>]
//! pathslice validate <trace.json>
//! ```
//!
//! * `check` — CEGAR-verify every error cluster (per-function, §5
//!   methodology) on the fault-tolerant driver and print verdicts; with
//!   a bug, print the witness slice. `--jobs` parallelizes across
//!   clusters; `--retries` enables the budget-escalation ladder.
//!   `--validate` runs the independent certificate validator on every
//!   verdict and downgrades unconfirmed ones to `MISMATCH`; `--cert`
//!   writes the certificates (with the source embedded) to a portable
//!   trace file. `--stats` enables the observability layer and appends
//!   a per-phase timing table plus the metric counters; `--stats-json`
//!   writes the same data machine-readably (`pathslice-stats/v1`, field
//!   names shared with `pathslice-bench/v1`); `--trace-out` dumps the
//!   raw span tree as `pathslice-spans/v1` JSON. SIGINT cancels the run
//!   gracefully: in-flight clusters report `TIMEOUT(Cancelled)` and the
//!   stats/trace epilogue still runs, so no span data is lost.
//! * `serve` — run the long-lived verification daemon (`crates/server`):
//!   newline-delimited `pathslice-wire/v1` (one request in flight) or
//!   `/v2` (pipelined, id-correlated) JSON over TCP on an event-driven
//!   reactor, a bounded two-lane admission pool (`--queue` caps cold
//!   checks, `--fast-queue` caps warm cache lookups) that answers
//!   `overloaded` under pressure, and a content-addressed analysis
//!   cache shared across requests, whose sessions keep per-cluster
//!   verdicts warm across repeats and edits.
//!   `--journal` attaches a durable verdict journal: completed verdicts
//!   are appended (checksummed, fsync-batched) and on restart the
//!   journal is replayed with every recovered verdict re-validated
//!   through its certificate before it may serve warm. SIGINT or
//!   SIGTERM triggers a graceful drain (finish admitted work, join
//!   every thread) and then flushes `--stats` / `--trace-out` output.
//!   `--slow-ms` sets the tail-sampling latency threshold and
//!   `--metrics-every` the telemetry snapshot interval; `--slow-out`
//!   dumps the retained slow-request traces
//!   (`pathslice-slowtraces/v1`) after the drain.
//! * `metrics` — scrape a live daemon over the wire (`op: "metrics"`):
//!   Prometheus text exposition by default, the
//!   `pathslice-metrics/v1` snapshot/delta time series with `--json`,
//!   or the slow-trace ring with `--slow`. Read-only and answered
//!   inline by the daemon's connection thread, so it works even when
//!   every worker is busy.
//! * `flame` — fold a `pathslice-spans/v1` dump (from `--trace-out`)
//!   into collapsed-stack lines for flamegraph tooling.
//! * `bench diff` — the perf-regression gate: compare a fresh
//!   `pathslice-bench/v1` report against a baseline file or the
//!   committed `results/history/` directory (exit 1 on regression;
//!   see `bench::diff` for the metric classes).
//! * `slice` — take the first abstract error path the checker's
//!   reachability produces and print its path slice with reasons.
//! * `run` — execute the program concretely with the given `nondet()`
//!   inputs.
//! * `dot` — emit Graphviz for a function's CFA.
//! * `validate` — recheck a trace file written by `check --cert`:
//!   recompile the embedded source and revalidate every certificate.
//!
//! All logic lives here (testable); `main.rs` is a thin shim.

use pathslicing::prelude::*;
use pathslicing::rt::Budget;
use std::fmt::Write as _;
use std::time::Duration;

/// Runs one CLI invocation. `args` excludes the binary name. Output is
/// appended to `out`; the return value is the process exit code.
///
/// # Errors
///
/// Returns a message (for stderr) on usage errors, I/O errors, or
/// front-end failures.
pub fn run_command(args: &[String], out: &mut String) -> Result<i32, String> {
    let mut it = args.iter();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    match cmd {
        "check" => cmd_check(&args[1..], out),
        "serve" => cmd_serve(&args[1..], out),
        "metrics" => cmd_metrics(&args[1..], out),
        "flame" => cmd_flame(&args[1..], out),
        "bench" => cmd_bench(&args[1..], out),
        "slice" => cmd_slice(&args[1..], out),
        "run" => cmd_run(&args[1..], out),
        "dot" => cmd_dot(&args[1..], out),
        "validate" => cmd_validate(&args[1..], out),
        "help" | "--help" | "-h" => {
            out.push_str(USAGE);
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

const USAGE: &str = "\
pathslice — path slicing (PLDI 2005) toolchain

USAGE:
    pathslice check <file.imp> [--no-slicing] [--timeout <secs>] [--dfs]
                               [--jobs <n>] [--retries <k>]
                               [--validate] [--cert <trace.json>]
                               [--from <old.imp>]
                               [--stats] [--stats-json <stats.json>]
                               [--trace-out <spans.json>]
    pathslice serve [--addr <host:port>] [--jobs <n>] [--queue <n>]
                    [--fast-queue <n>] [--cache <n>] [--timeout <secs>]
                    [--journal <dir>]
                    [--stats] [--trace-out <spans.json>]
                    [--slow-ms <ms>] [--slow-out <traces.json>]
                    [--metrics-every <ms>]
    pathslice metrics [--addr <host:port>] [--json] [--slow]
    pathslice flame <spans.json>
    pathslice bench diff <baseline.json|dir> <current.json>
                         [--rel-tol <f>] [--abs-slack <n>] [--time-gate]
                         [--json-out <verdict.json>]
    pathslice slice <file.imp> [--skip-functions] [--no-early-unsat]
    pathslice run   <file.imp> [--input v1,v2,...] [--fuel <n>]
    pathslice dot   <file.imp> [<function>]
    pathslice validate <trace.json>
";

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    compile_source(&src, path).map(|(p, _)| p)
}

fn compile_source(src: &str, origin: &str) -> Result<(Program, String), String> {
    // Front-end errors render with a source snippet and caret.
    let ast = pathslicing::imp::parse(src).map_err(|e| format!("{origin}: {}", e.render(src)))?;
    let program = pathslicing::cfa::lower(&ast).map_err(|e| format!("{origin}: {e}"))?;
    pathslicing::cfa::validate(&program).map_err(|e| format!("{origin}: {e}"))?;
    Ok((program, src.to_owned()))
}

fn cmd_check(args: &[String], out: &mut String) -> Result<i32, String> {
    let (file, flags) = split_flags(args)?;
    let stats = flags.iter().any(|f| f == "--stats");
    let trace_out = flag_value(&flags, "--trace-out")?;
    let stats_json = flag_value(&flags, "--stats-json")?;
    if stats || trace_out.is_some() || stats_json.is_some() {
        pathslicing::obs::set_enabled(true);
    }
    let src = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let mut config = CheckerConfig {
        reducer: if flags.iter().any(|f| f == "--no-slicing") {
            Reducer::Identity
        } else {
            Reducer::path_slice()
        },
        ..CheckerConfig::default()
    };
    if let Some(t) = flag_value(&flags, "--timeout")? {
        config.time_budget = Duration::from_secs(
            t.parse()
                .map_err(|_| format!("bad --timeout value `{t}`"))?,
        );
    }
    if flags.iter().any(|f| f == "--dfs") {
        config.search_order = SearchOrder::Dfs;
    }
    let mut driver = DriverConfig::sequential();
    // Ctrl-C cancels in-flight clusters instead of killing the process:
    // remaining clusters report TIMEOUT(Cancelled) and the stats/trace
    // epilogue below still runs, so --trace-out is flushed.
    pathslicing::rt::install_sigint_handler();
    driver.cancel = Some(pathslicing::rt::shutdown_token());
    if let Some(j) = flag_value(&flags, "--jobs")? {
        driver.jobs = j.parse().map_err(|_| format!("bad --jobs value `{j}`"))?;
    }
    if let Some(k) = flag_value(&flags, "--retries")? {
        driver.retry = RetryPolicy::retries(
            k.parse()
                .map_err(|_| format!("bad --retries value `{k}`"))?,
        );
    }
    if flags.iter().any(|f| f == "--validate") {
        // Production validation: an empty fault plan corrupts nothing.
        driver = driver.with_validator(pathslicing::certify::validator(
            pathslicing::rt::FaultPlan::default(),
        ));
    }
    let cert_path = flag_value(&flags, "--cert")?;
    // One code path with the server: the same Session compiles the
    // program and the same render_verdicts prints the verdicts. With
    // `--from <old.imp>`, the session is built *incrementally* from the
    // previous version: the old program is checked to warm the
    // per-cluster verdict memo, the edit is diffed function-by-function,
    // and only invalidated clusters re-run (reuse gated on each stored
    // verdict's certificate re-validating).
    let from = flag_value(&flags, "--from")?;
    let (session, update) = match &from {
        Some(old_file) => {
            let old_src = std::fs::read_to_string(old_file)
                .map_err(|e| format!("cannot read {old_file}: {e}"))?;
            let old = pathslicing::blastlite::Session::compile(&old_src, old_file)?;
            let _ = old.check(config, &driver);
            let (session, up) = pathslicing::blastlite::Session::update(&old, &src, &file)?;
            (session, Some(up))
        }
        None => (pathslicing::blastlite::Session::compile(&src, &file)?, None),
    };
    let t0 = std::time::Instant::now();
    let (driver_report, reuse) = if update.is_some() {
        let gate = pathslicing::certify::validator(pathslicing::rt::FaultPlan::default());
        let (report, reuse) = session.check_incremental(config, &driver, Some(&gate));
        (report, Some(reuse))
    } else {
        (session.check(config, &driver), None)
    };
    let wall = t0.elapsed();
    if let (Some(up), Some(reuse)) = (&update, &reuse) {
        if up.cold {
            let _ = writeln!(
                out,
                "incremental: declaration-level change — fell back to a cold check"
            );
        } else {
            let _ = writeln!(
                out,
                "incremental: {} function(s) edited, {} cluster verdict(s) reused, \
                 {} re-checked, {} rejected by the certificate gate",
                up.changed_functions.len(),
                reuse.verdict_reused,
                reuse.recomputed,
                reuse.cert_rejected
            );
        }
    }
    if let Some(path) = cert_path {
        let trace = pathslicing::certify::certify_report(
            session.analyses(),
            &driver_report,
            session.source(),
        );
        std::fs::write(&path, pathslicing::certify::to_json(&trace))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            out,
            "wrote {} certificate(s) to {path}",
            trace.clusters.len()
        );
    }
    let summary = driver_report.summary();
    let reports = driver_report.into_cluster_reports();
    let (render, worst) = if reports.is_empty() {
        ("no error locations — nothing to check\n".to_owned(), 0)
    } else {
        pathslicing::blastlite::render_verdicts(session.program(), &reports)
    };
    out.push_str(&render);
    // Drain the span buffer once; both epilogues read the same batch.
    let spans = pathslicing::obs::take_spans();
    emit_obs(out, stats, trace_out.as_deref(), &summary, &spans)?;
    write_stats_json(stats_json.as_deref(), worst, wall, &summary, &spans)?;
    Ok(worst)
}

/// Writes the `--stats-json` document: the `--stats` tables as
/// machine-readable `pathslice-stats/v1` JSON. Field names (`phases_us`
/// with `count`/`total_us`/`self_us`, `counters`, `times_s`) match the
/// `pathslice-bench/v1` row schema so downstream tooling can share
/// parsers.
fn write_stats_json(
    path: Option<&str>,
    exit: i32,
    wall: Duration,
    summary: &pathslicing::blastlite::DriverSummary,
    spans: &[pathslicing::obs::SpanRecord],
) -> Result<(), String> {
    use pathslicing::obs::{self, json::Json};
    let Some(path) = path else { return Ok(()) };
    let phases = Json::Obj(
        obs::phase_totals(spans)
            .into_iter()
            .map(|(name, s)| {
                (
                    name,
                    Json::Obj(vec![
                        ("count".into(), Json::Num(s.count as i64)),
                        ("total_us".into(), Json::Num(s.total_us as i64)),
                        ("self_us".into(), Json::Num(s.self_us as i64)),
                    ]),
                )
            })
            .collect(),
    );
    let counters = Json::Obj(
        obs::counters()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Json::Num(v as i64)))
            .collect(),
    );
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("pathslice-stats/v1".into())),
        ("command".into(), Json::Str("check".into())),
        ("exit".into(), Json::Num(exit as i64)),
        (
            "times_s".into(),
            Json::Obj(vec![("total".into(), Json::Float(wall.as_secs_f64()))]),
        ),
        ("phases_us".into(), phases),
        ("counters".into(), counters),
        (
            "driver".into(),
            Json::Obj(vec![
                ("clusters".into(), Json::Num(summary.clusters as i64)),
                ("retries".into(), Json::Num(summary.retries as i64)),
                (
                    "retried_clusters".into(),
                    Json::Num(summary.retried_clusters as i64),
                ),
                (
                    "degraded_clusters".into(),
                    Json::Num(summary.degraded_clusters as i64),
                ),
                (
                    "internal_errors".into(),
                    Json::Num(summary.internal_errors as i64),
                ),
            ]),
        ),
    ]);
    std::fs::write(path, doc.to_text() + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

/// The `check` epilogue for `--stats` / `--trace-out`: optionally dumps
/// the drained spans as `pathslice-spans/v1` JSON, and optionally
/// appends the phase-timing table, the counters, and the driver's retry
/// summary.
fn emit_obs(
    out: &mut String,
    stats: bool,
    trace_out: Option<&str>,
    summary: &pathslicing::blastlite::DriverSummary,
    spans: &[pathslicing::obs::SpanRecord],
) -> Result<(), String> {
    use pathslicing::obs;
    // Surface retries even without --stats: a silently degraded verdict
    // is exactly what a per-run summary exists to catch.
    if summary.retries > 0 && !stats {
        let _ = writeln!(out, "# driver: {summary}");
    }
    if !stats && trace_out.is_none() {
        return Ok(());
    }
    if let Some(path) = trace_out {
        obs::write_spans_to(path, spans)?;
        let _ = writeln!(out, "wrote {} span(s) to {path}", spans.len());
    }
    if stats {
        let _ = writeln!(out, "\n== phases ==");
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>12} {:>12}",
            "phase", "count", "total(ms)", "self(ms)"
        );
        for (name, s) in obs::phase_totals(spans) {
            let _ = writeln!(
                out,
                "{:<12} {:>7} {:>12.3} {:>12.3}",
                name,
                s.count,
                s.total_us as f64 / 1000.0,
                s.self_us as f64 / 1000.0
            );
        }
        let _ = writeln!(out, "\n== counters ==");
        for (name, v) in obs::counters() {
            let _ = writeln!(out, "{name:<28} {v:>12}");
        }
        for (name, h) in obs::histograms() {
            let _ = writeln!(out, "{:<28} {:>12} obs, sum {}", name, h.count, h.sum);
        }
        let _ = writeln!(out, "\n== driver ==");
        let _ = writeln!(out, "{summary}");
    }
    Ok(())
}

/// `pathslice metrics` — scrape a live daemon's telemetry over the
/// wire. Exposition by default; `--json` for the snapshot/delta time
/// series; `--slow` for the slow-trace ring.
fn cmd_metrics(args: &[String], out: &mut String) -> Result<i32, String> {
    use std::net::ToSocketAddrs as _;
    let addr_s = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7171".into());
    let addr = addr_s
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .ok_or_else(|| format!("bad --addr `{addr_s}`"))?;
    let mut client =
        server::Client::connect(addr).map_err(|e| format!("cannot connect to {addr_s}: {e}"))?;
    if args.iter().any(|f| f == "--slow") {
        let traces = client.slow_traces("cli-slow")?;
        out.push_str(&traces.to_text());
        out.push('\n');
        return Ok(0);
    }
    let (exposition, series) = client.metrics("cli-metrics")?;
    if args.iter().any(|f| f == "--json") {
        out.push_str(&series.to_text());
        out.push('\n');
    } else {
        out.push_str(&exposition);
    }
    Ok(0)
}

/// `pathslice flame` — fold a `pathslice-spans/v1` dump into
/// collapsed-stack lines (`root;child;leaf <self_us>`), ready for
/// standard flamegraph tooling.
fn cmd_flame(args: &[String], out: &mut String) -> Result<i32, String> {
    let (file, _flags) = split_flags(args)?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let spans = pathslicing::obs::spans_from_json(&text).map_err(|e| format!("{file}: {e}"))?;
    out.push_str(&pathslicing::obs::telemetry::spans_to_collapsed(&spans));
    Ok(0)
}

/// `pathslice bench diff` — delegate to the shared regression-gate
/// logic in `bench::diff` (the `bench_diff` binary is the same code).
fn cmd_bench(args: &[String], out: &mut String) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("diff") => bench::diff::cli_main(&args[1..], out),
        _ => Err(format!("usage: pathslice bench diff <args>\n{USAGE}")),
    }
}

fn cmd_serve(args: &[String], out: &mut String) -> Result<i32, String> {
    // SIGINT or SIGTERM cancels the process-global token; the wait loop
    // below then drains the daemon and flushes --stats / --trace-out.
    // (SIGTERM matters in production: process managers send it first,
    // and a drain beats an abrupt exit — though with --journal even
    // SIGKILL only costs the unfsynced tail.)
    pathslicing::rt::install_shutdown_handlers();
    serve_until(args, out, &pathslicing::rt::shutdown_token())
}

/// Runs the `serve` daemon until `stop` is cancelled, then drains it
/// gracefully and appends the final accounting (and the `--stats` /
/// `--trace-out` epilogue) to `out`. Factored out of the `serve`
/// command so embedders and tests control shutdown with their own token
/// instead of the process-global SIGINT one.
///
/// # Errors
///
/// Returns a message on flag errors or bind failure.
pub fn serve_until(
    args: &[String],
    out: &mut String,
    stop: &pathslicing::rt::CancelToken,
) -> Result<i32, String> {
    let stats = args.iter().any(|f| f == "--stats");
    let trace_out = flag_value(args, "--trace-out")?;
    let slow_out = flag_value(args, "--slow-out")?;
    if stats || trace_out.is_some() {
        pathslicing::obs::set_enabled(true);
    }
    let mut config = server::ServerConfig::default();
    if let Some(a) = flag_value(args, "--addr")? {
        config.addr = a;
    }
    if let Some(ms) = flag_value(args, "--slow-ms")? {
        config.slow_threshold = Duration::from_millis(
            ms.parse()
                .map_err(|_| format!("bad --slow-ms value `{ms}`"))?,
        );
    }
    if let Some(ms) = flag_value(args, "--metrics-every")? {
        config.snapshot_every = Duration::from_millis(
            ms.parse()
                .map_err(|_| format!("bad --metrics-every value `{ms}`"))?,
        );
    }
    if let Some(j) = flag_value(args, "--jobs")? {
        config.jobs = j.parse().map_err(|_| format!("bad --jobs value `{j}`"))?;
    }
    if let Some(q) = flag_value(args, "--queue")? {
        config.queue_capacity = q.parse().map_err(|_| format!("bad --queue value `{q}`"))?;
    }
    if let Some(q) = flag_value(args, "--fast-queue")? {
        config.fast_queue_capacity = q
            .parse()
            .map_err(|_| format!("bad --fast-queue value `{q}`"))?;
    }
    if let Some(c) = flag_value(args, "--cache")? {
        config.cache_capacity = c.parse().map_err(|_| format!("bad --cache value `{c}`"))?;
    }
    if let Some(t) = flag_value(args, "--timeout")? {
        config.default_time_budget = Duration::from_secs(
            t.parse()
                .map_err(|_| format!("bad --timeout value `{t}`"))?,
        );
    }
    if let Some(dir) = flag_value(args, "--journal")? {
        config.journal_dir = Some(std::path::PathBuf::from(dir));
    }
    let removed = args.iter().find_map(|f| {
        f.split('=')
            .next()
            .filter(|f| matches!(*f, "--name" | "--peers"))
    });
    if let Some(f) = removed {
        return Err(format!(
            "serve {f} was removed in 0.11.0: nodes no longer fetch verdicts from peers"
        ));
    }
    let jobs = config.jobs.max(1);
    let journaled = config.journal_dir.is_some();
    let server = server::Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    // Straight to stderr so it appears while the daemon runs (`out` is
    // only printed after exit).
    if journaled {
        let s = server.stats();
        let (recovered, rejected, torn) = s
            .journal
            .map_or((0, 0, 0), |j| (j.recovered, j.rejected, j.torn));
        eprintln!(
            "pathslice serve: journal replayed — {recovered} verdict(s) recovered, \
             {rejected} rejected, {torn} torn"
        );
    }
    eprintln!(
        "pathslice serve: listening on {} with {jobs} worker(s); Ctrl-C drains and exits",
        server.local_addr()
    );
    while !stop.is_cancelled() {
        std::thread::sleep(Duration::from_millis(25));
    }
    let (final_stats, slow) = server.shutdown_full();
    let _ = writeln!(out, "drained: {final_stats}");
    if let Some(path) = slow_out {
        std::fs::write(&path, server::slow_traces_json(&slow).to_text() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "wrote {} slow trace(s) to {path}", slow.len());
    }
    let spans = pathslicing::obs::take_spans();
    if let Some(path) = trace_out {
        pathslicing::obs::write_spans_to(&path, &spans)?;
        let _ = writeln!(out, "wrote {} span(s) to {path}", spans.len());
    }
    if stats {
        let _ = writeln!(out, "\n== counters ==");
        for (name, v) in pathslicing::obs::counters() {
            let _ = writeln!(out, "{name:<28} {v:>12}");
        }
    }
    Ok(0)
}

fn cmd_validate(args: &[String], out: &mut String) -> Result<i32, String> {
    use pathslicing::certify::{certify, Expect, Rejection};
    let (file, _flags) = split_flags(args)?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let origin = format!("{file} (embedded source)");
    // No expectations: audit the trace alone, reporting every cluster.
    let audited = certify(&text, &origin, &Expect::default()).map_err(|r| match r {
        Rejection::Uncompilable(e) => e,
        Rejection::Unparseable(e) => format!("{file}: {e}"),
        other => format!("{file}: {other:?}"),
    })?;
    let mut worst = 0;
    for (c, result) in audited.trace.clusters.iter().zip(audited.results) {
        let (status, notes) = match result {
            Validation::Confirmed { notes } => ("VALID".to_owned(), notes),
            Validation::Mismatch { reason } => {
                worst = 3;
                (format!("MISMATCH: {reason}"), Vec::new())
            }
        };
        let _ = writeln!(out, "{:<24} {:<24} {status}", c.func_name, c.claimed);
        for note in notes {
            let _ = writeln!(out, "    note: {note}");
        }
    }
    if audited.trace.clusters.is_empty() {
        let _ = writeln!(out, "trace file contains no certificates");
    }
    Ok(worst)
}

fn cmd_slice(args: &[String], out: &mut String) -> Result<i32, String> {
    let (file, flags) = split_flags(args)?;
    let program = load(&file)?;
    let analyses = Analyses::build(&program);
    let targets: Vec<_> = program
        .cfas()
        .iter()
        .flat_map(|c| c.error_locs().iter().copied())
        .collect();
    if targets.is_empty() {
        return Err("program has no error locations".into());
    }
    let mut pool = pathslicing::blastlite::PredicatePool::new();
    let reach = pathslicing::blastlite::reach::reachable(
        &program,
        &analyses,
        &mut pool,
        &targets,
        1_000_000,
        &Budget::lasting(Duration::from_secs(60)),
        SearchOrder::Dfs,
    );
    let pathslicing::blastlite::reach::ReachResult::ErrorPath { path, .. } = reach else {
        let _ = writeln!(
            out,
            "no abstract path to any error location (program is safe)"
        );
        return Ok(0);
    };
    let options = SliceOptions {
        early_unsat: !flags.iter().any(|f| f == "--no-early-unsat"),
        skip_functions: flags.iter().any(|f| f == "--skip-functions"),
    };
    let result = PathSlicer::new(&analyses).slice(&path, options);
    let _ = writeln!(out, "abstract path: {}", path.stats(&program));
    out.push_str(&render_slice(&program, &path, &result));
    Ok(0)
}

fn cmd_run(args: &[String], out: &mut String) -> Result<i32, String> {
    let (file, flags) = split_flags(args)?;
    let program = load(&file)?;
    let inputs: Vec<i64> = match flag_value(&flags, "--input")? {
        Some(list) => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("bad input value `{s}`"))
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    let fuel = match flag_value(&flags, "--fuel")? {
        Some(f) => f.parse().map_err(|_| format!("bad --fuel value `{f}`"))?,
        None => 1_000_000,
    };
    let run = Interp::run(
        &program,
        State::zeroed(&program),
        &mut ReplayOracle::new(inputs),
        fuel,
    );
    let _ = writeln!(out, "executed {} operation(s)", run.path.len());
    match run.outcome {
        ExecOutcome::Completed => {
            let _ = writeln!(out, "outcome: completed");
            Ok(0)
        }
        ExecOutcome::ReachedError(loc) => {
            let _ = writeln!(
                out,
                "outcome: reached ERROR in `{}`",
                program.cfa(loc.func).name()
            );
            Ok(1)
        }
        ExecOutcome::OutOfFuel => {
            let _ = writeln!(out, "outcome: out of fuel (possibly diverging)");
            Ok(2)
        }
        ExecOutcome::Stuck(loc, why) => {
            let _ = writeln!(
                out,
                "outcome: stuck at {loc} in `{}` ({why:?})",
                program.cfa(loc.func).name()
            );
            Ok(2)
        }
    }
}

fn cmd_dot(args: &[String], out: &mut String) -> Result<i32, String> {
    let (file, rest) = split_flags(args)?;
    let program = load(&file)?;
    let cfa = match rest.first() {
        Some(name) => {
            let f = program
                .func_id(name)
                .ok_or_else(|| format!("no function named `{name}`"))?;
            program.cfa(f)
        }
        None => program.cfa(program.main()),
    };
    out.push_str(&program.to_dot(cfa));
    Ok(0)
}

/// Splits `[file, flags...]`, requiring the file first.
fn split_flags(args: &[String]) -> Result<(String, Vec<String>), String> {
    let Some(file) = args.first() else {
        return Err(format!("missing input file\n{USAGE}"));
    };
    if file.starts_with('-') {
        return Err(format!("expected input file, found flag `{file}`\n{USAGE}"));
    }
    Ok((file.clone(), args[1..].to_vec()))
}

/// Looks up `--flag value` in the flag list.
fn flag_value(flags: &[String], name: &str) -> Result<Option<String>, String> {
    for (i, f) in flags.iter().enumerate() {
        if f == name {
            return match flags.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{name} requires a value")),
            };
        }
        if let Some(v) = f.strip_prefix(&format!("{name}=")) {
            return Ok(Some(v.to_owned()));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathslicing::blastlite::strip_wall_column;

    fn write_temp(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("pathslice-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    const BUGGY: &str = r#"
        global limit;
        fn main() {
            local amount, w;
            w = 13;
            amount = nondet();
            if (amount > limit) { if (limit == 0) { error(); } }
        }
    "#;

    const SAFE: &str = r#"
        global x;
        fn main() { x = 1; if (x == 2) { error(); } }
    "#;

    fn run_ok(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        let code = run_command(&args, &mut out).unwrap();
        (code, out)
    }

    #[test]
    fn check_reports_bug_with_witness() {
        let f = write_temp("buggy.imp", BUGGY);
        let (code, out) = run_ok(&["check", &f]);
        assert_eq!(code, 1);
        assert!(out.contains("BUG"), "{out}");
        assert!(out.contains("assume"), "witness printed: {out}");
    }

    const DISPATCH_OLD: &str = r#"
        global s;
        fn f1() { local a; a = 1; if (a < 1) { error(); } }
        fn f2() { local b; b = 2; if (b == 2) { error(); } }
        fn main() { s = nondet(); if (s > 0) { f1(); } else { f2(); } }
    "#;

    #[test]
    fn check_from_reuses_untouched_cluster_verdicts() {
        let old = write_temp("incr-old.imp", DISPATCH_OLD);
        let new = write_temp("incr-new.imp", &DISPATCH_OLD.replace("b == 2", "b == 3"));
        let (code, out) = run_ok(&["check", &new, "--from", &old]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("1 cluster verdict(s) reused, 1 re-checked"),
            "{out}"
        );
        // Below the `incremental:` summary line, the render matches a
        // plain cold check.
        let (summary, render) = out.split_once('\n').unwrap();
        assert!(summary.starts_with("incremental:"), "{out}");
        let (cold_code, cold_out) = run_ok(&["check", &new]);
        assert_eq!(code, cold_code);
        assert_eq!(strip_wall_column(render), strip_wall_column(&cold_out));
    }

    #[test]
    fn check_reports_safe() {
        let f = write_temp("safe.imp", SAFE);
        let (code, out) = run_ok(&["check", &f]);
        assert_eq!(code, 0);
        assert!(out.contains("SAFE"), "{out}");
    }

    #[test]
    fn slice_prints_reasons() {
        let f = write_temp("buggy2.imp", BUGGY);
        let (code, out) = run_ok(&["slice", &f]);
        assert_eq!(code, 0);
        assert!(out.contains("path slice"), "{out}");
        assert!(out.contains("bypass"), "{out}");
        assert!(
            !out.contains("w :="),
            "irrelevant assignment sliced away: {out}"
        );
    }

    #[test]
    fn run_executes_with_inputs() {
        let f = write_temp("buggy3.imp", BUGGY);
        let (code, out) = run_ok(&["run", &f, "--input", "5"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("reached ERROR"), "{out}");
        let (code, out) = run_ok(&["run", &f, "--input", "-5"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("completed"), "{out}");
    }

    #[test]
    fn dot_emits_graphviz() {
        let f = write_temp("safe2.imp", SAFE);
        let (code, out) = run_ok(&["dot", &f]);
        assert_eq!(code, 0);
        assert!(out.starts_with("digraph"), "{out}");
    }

    #[test]
    fn usage_errors() {
        let mut out = String::new();
        assert!(run_command(&["check".into()], &mut out).is_err());
        assert!(run_command(&["bogus".into()], &mut out).is_err());
        let f = write_temp("bad.imp", "fn main() {");
        assert!(run_command(&["check".into(), f], &mut out).is_err());
    }

    #[test]
    fn malformed_flags_error_out_instead_of_panicking() {
        let f = write_temp("flags.imp", SAFE);
        let cases: &[&[&str]] = &[
            &["check", &f, "--timeout", "abc"],
            &["check", &f, "--timeout"],
            &["check", &f, "--jobs", "-1"],
            &["check", &f, "--retries", "many"],
            &["run", &f, "--fuel", "1e9"],
            &["run", &f, "--input", "1,x,3"],
            &["check", "/no/such/file.imp"],
        ];
        for case in cases {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            let mut out = String::new();
            assert!(run_command(&args, &mut out).is_err(), "{case:?}");
        }
    }

    #[test]
    fn hostile_sources_error_out_instead_of_panicking() {
        let cases = [
            (
                "overflow.imp",
                "fn main() { local x; x = 99999999999999999999; }",
            ),
            ("nonascii.imp", "fn mäin() { }"),
            ("truncated.imp", "fn main() { if (x"),
            ("empty.imp", ""),
        ];
        for (name, src) in cases {
            let f = write_temp(name, src);
            let mut out = String::new();
            assert!(
                run_command(&["check".into(), f], &mut out).is_err(),
                "{name} should be a front-end error"
            );
        }
    }

    #[test]
    fn check_jobs_and_retries_match_sequential_verdicts() {
        let f = write_temp("par.imp", BUGGY);
        let (seq_code, seq_out) = run_ok(&["check", &f]);
        let (par_code, par_out) = run_ok(&["check", &f, "--jobs", "4", "--retries", "2"]);
        assert_eq!(seq_code, par_code);
        assert_eq!(strip_wall_column(&seq_out), strip_wall_column(&par_out));
    }

    #[test]
    fn check_validate_confirms_both_verdict_kinds() {
        let f = write_temp("validated.imp", BUGGY);
        let (code, out) = run_ok(&["check", &f, "--validate"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("BUG"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");

        let f = write_temp("validated_safe.imp", SAFE);
        let (code, out) = run_ok(&["check", &f, "--validate"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("SAFE"), "{out}");
    }

    #[test]
    fn cert_roundtrip_through_validate_subcommand() {
        let f = write_temp("certified.imp", BUGGY);
        let trace = write_temp("certified.trace.json", "");
        let (code, out) = run_ok(&["check", &f, "--cert", &trace]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("wrote 1 certificate(s)"), "{out}");

        let (code, out) = run_ok(&["validate", &trace]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("VALID"), "{out}");

        // Tamper with the claimed verdict: the validator must object.
        let text = std::fs::read_to_string(&trace).unwrap();
        let tampered = text.replace("\"claimed\":\"Bug\"", "\"claimed\":\"Safe\"");
        assert_ne!(text, tampered);
        let t2 = write_temp("tampered.trace.json", &tampered);
        let (code, out) = run_ok(&["validate", &t2]);
        assert_eq!(code, 3, "{out}");
        assert!(out.contains("MISMATCH"), "{out}");
    }

    #[test]
    fn validate_rejects_malformed_trace_files() {
        for (name, text) in [
            ("empty.trace.json", ""),
            ("junk.trace.json", "{\"version\":9}"),
            (
                "badsrc.trace.json",
                "{\"version\":1,\"source\":\"fn main() {\",\"clusters\":[]}",
            ),
        ] {
            let f = write_temp(name, text);
            let mut out = String::new();
            assert!(
                run_command(&["validate".into(), f], &mut out).is_err(),
                "{name}"
            );
        }
    }

    #[test]
    fn stats_and_trace_out_report_phases() {
        let f = write_temp("stats.imp", BUGGY);
        let spans_path = write_temp("stats.spans.json", "");
        let (code, out) = run_ok(&["check", &f, "--stats", "--trace-out", &spans_path]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("== phases =="), "{out}");
        assert!(out.contains("attempt"), "{out}");
        assert!(out.contains("== counters =="), "{out}");
        assert!(out.contains("lia.checks"), "{out}");
        assert!(out.contains("== driver =="), "{out}");
        // The span dump round-trips through the hand-rolled parser.
        let text = std::fs::read_to_string(&spans_path).unwrap();
        let parsed = pathslicing::obs::spans_from_json(&text).unwrap();
        assert!(!parsed.is_empty(), "{text}");
        assert!(parsed.iter().any(|s| s.name == "attempt"), "{parsed:?}");
    }

    #[test]
    fn stats_json_is_machine_readable() {
        use pathslicing::obs::json::Json;
        let f = write_temp("statsjson.imp", BUGGY);
        let path = write_temp("statsjson.stats.json", "");
        let (code, _out) = run_ok(&["check", &f, "--stats-json", &path]);
        assert_eq!(code, 1);
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.field("schema").and_then(Json::as_str),
            Some("pathslice-stats/v1")
        );
        assert_eq!(doc.field("exit").and_then(Json::as_i64), Some(1));
        // Field names shared with pathslice-bench/v1 rows.
        let attempt = doc
            .field("phases_us")
            .and_then(|p| p.field("attempt"))
            .expect("attempt phase present");
        for k in ["count", "total_us", "self_us"] {
            assert!(attempt.field(k).and_then(Json::as_i64).is_some(), "{k}");
        }
        assert!(
            doc.field("counters")
                .and_then(|c| c.field("lia.checks"))
                .is_some(),
            "solver counters present"
        );
        assert_eq!(
            doc.field("driver")
                .and_then(|d| d.field("clusters"))
                .and_then(Json::as_i64),
            Some(1)
        );
        assert!(doc
            .field("times_s")
            .and_then(|t| t.field("total"))
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn serve_until_drains_on_token_cancel() {
        let token = pathslicing::rt::CancelToken::new();
        let trip = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            trip.cancel();
        });
        let args: Vec<String> = ["--addr", "127.0.0.1:0", "--jobs", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = String::new();
        let code = serve_until(&args, &mut out, &token).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("drained:"), "{out}");
    }

    #[test]
    fn serve_rejects_malformed_flags() {
        let token = pathslicing::rt::CancelToken::new();
        token.cancel();
        for case in [
            vec!["--jobs", "many"],
            vec!["--queue", "-3"],
            vec!["--addr", "not-an-address"],
        ] {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            let mut out = String::new();
            assert!(serve_until(&args, &mut out, &token).is_err(), "{case:?}");
        }
    }

    #[test]
    fn fabric_flags_must_be_coherent() {
        let token = pathslicing::rt::CancelToken::new();
        token.cancel();
        // serve: --name and --peers are gone; a node that names them is
        // refused rather than silently left out of a fabric it expects.
        for case in [
            vec!["--name", "n1"],
            vec!["--peers", "n1=127.0.0.1:1"],
            vec!["--name", "n9", "--peers", "n1=127.0.0.1:1"],
        ] {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            let mut out = String::new();
            assert!(serve_until(&args, &mut out, &token).is_err(), "{case:?}");
        }
        // route: removed with the fabric in 0.12.0, so an unknown command.
        let mut out = String::new();
        let err = run_command(&["route".to_string()], &mut out).unwrap_err();
        assert!(err.starts_with("unknown command `route`"), "{err}");
    }

    #[test]
    fn metrics_subcommand_scrapes_a_live_daemon() {
        let server = server::Server::start(server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..server::ServerConfig::default()
        })
        .expect("bind test server");
        let addr = server.local_addr().to_string();

        let (code, out) = run_ok(&["metrics", "--addr", &addr]);
        assert_eq!(code, 0);
        assert!(out.contains("pathslice_server_requests"), "{out}");

        let (code, out) = run_ok(&["metrics", "--addr", &addr, "--json"]);
        assert_eq!(code, 0);
        assert!(out.contains("pathslice-metrics/v1"), "{out}");

        let (code, out) = run_ok(&["metrics", "--addr", &addr, "--slow"]);
        assert_eq!(code, 0);
        assert!(out.contains("pathslice-slowtraces/v1"), "{out}");
        server.shutdown();

        let mut sink = String::new();
        assert!(run_command(
            &["metrics".into(), "--addr".into(), "not an addr".into()],
            &mut sink
        )
        .is_err());
    }

    #[test]
    fn flame_folds_a_span_dump() {
        use pathslicing::obs::SpanRecord;
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "request".into(),
                detail: None,
                depth: 0,
                start_us: 0,
                dur_us: 100,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "attempt".into(),
                detail: None,
                depth: 1,
                start_us: 10,
                dur_us: 60,
            },
        ];
        let f = write_temp("flame.spans.json", &pathslicing::obs::spans_to_json(&spans));
        let (code, out) = run_ok(&["flame", &f]);
        assert_eq!(code, 0);
        assert_eq!(out, "request 40\nrequest;attempt 60\n");

        let bad = write_temp("flame.bad.json", "{\"schema\":\"nope\"}");
        let mut sink = String::new();
        assert!(run_command(&["flame".into(), bad], &mut sink).is_err());
    }

    #[test]
    fn bench_diff_subcommand_gates_on_regressions() {
        use pathslicing::obs::json::Json;
        let mut rep = bench::BenchReport::new("table1", "small");
        rep.rows.push(bench::Row {
            name: "fcron".into(),
            variant: "default".into(),
            fields: vec![("safe".into(), 5), ("errors".into(), 0)],
            ..bench::Row::default()
        });
        let baseline = write_temp("diff.base.json", &rep.to_json().to_text());
        let (code, out) = run_ok(&["bench", "diff", &baseline, &baseline]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verdict: OK"), "{out}");

        rep.rows[0].fields[1].1 = 1; // errors: 0 -> 1
        let regressed = write_temp("diff.cur.json", &rep.to_json().to_text());
        let (code, out) = run_ok(&["bench", "diff", &baseline, &regressed]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("REGRESSED"), "{out}");

        // The verdict document is machine-readable.
        let verdict = write_temp("diff.verdict.json", "");
        let (code, _out) = run_ok(&[
            "bench",
            "diff",
            &baseline,
            &regressed,
            "--json-out",
            &verdict,
        ]);
        assert_eq!(code, 1);
        let doc = Json::parse(&std::fs::read_to_string(&verdict).unwrap()).unwrap();
        assert_eq!(
            doc.field("schema").and_then(Json::as_str),
            Some("pathslice-benchdiff/v1")
        );

        let mut sink = String::new();
        assert!(run_command(&["bench".into()], &mut sink).is_err());
        assert!(run_command(&["bench".into(), "bogus".into()], &mut sink).is_err());
    }

    #[test]
    fn serve_slow_out_writes_the_trace_ring() {
        let token = pathslicing::rt::CancelToken::new();
        let trip = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            trip.cancel();
        });
        let slow_path = write_temp("serve.slow.json", "");
        let args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--slow-ms",
            "0",
            "--metrics-every",
            "20",
            "--slow-out",
            &slow_path,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut out = String::new();
        let code = serve_until(&args, &mut out, &token).unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("slow trace(s)"), "{out}");
        let text = std::fs::read_to_string(&slow_path).unwrap();
        assert!(text.contains("pathslice-slowtraces/v1"), "{text}");
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_ok(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn flag_value_forms() {
        let flags = vec![
            "--timeout".to_string(),
            "5".to_string(),
            "--fuel=9".to_string(),
        ];
        assert_eq!(
            flag_value(&flags, "--timeout").unwrap().as_deref(),
            Some("5")
        );
        assert_eq!(flag_value(&flags, "--fuel").unwrap().as_deref(), Some("9"));
        assert_eq!(flag_value(&flags, "--other").unwrap(), None);
    }
}
