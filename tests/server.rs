//! Integration tests for the `pathslice serve` daemon (crates/server):
//! socket round-trip parity with `pathslice check`, the analysis cache,
//! admission-control backpressure, hostile-frame survival, chaos under
//! fault injection, and graceful drain (including the CLI `serve`
//! wrapper's span flush).

use pathslicing::blastlite::strip_wall_column;
use pathslicing::rt::{CancelToken, FaultKind, FaultPlan, FaultSite};
use server::{wire, Client, Server, ServerConfig};
use std::time::Duration;
use workloads::WorkloadSpec;

const BUGGY: &str = r#"
    global limit;
    fn main() {
        local amount;
        amount = nondet();
        if (amount > limit) { if (limit == 0) { error(); } }
    }
"#;

const SAFE: &str = r#"
    global x;
    fn main() { x = 1; if (x == 2) { error(); } }
"#;

fn start(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind test server")
}

fn ok_response(resp: wire::Response) -> (bool, i32, String) {
    match resp {
        wire::Response::Ok {
            cache_hit,
            exit,
            render,
            ..
        } => (cache_hit, exit, render),
        other => panic!("expected ok, got {other:?}"),
    }
}

/// A workload program slow enough to occupy a worker for a while (used
/// to wedge the queue in the backpressure test).
fn slow_source() -> String {
    workloads::gen::generate(&WorkloadSpec {
        name: "slow".into(),
        seed: 99,
        modules: 3,
        helpers_per_module: 3,
        loop_bound: 40,
        driver_loops: 2,
        wrapper_depth: 1,
        buggy_modules: vec![1],
        multi_site_modules: 1,
    })
    .source
}

fn temp_file(name: &str, contents: &str) -> String {
    let dir = std::env::temp_dir().join("pathslice-server-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn served_verdicts_match_pathslice_check_byte_for_byte() {
    for (name, src, want_exit) in [("buggy", BUGGY, 1), ("safe", SAFE, 0)] {
        // The batch path.
        let file = temp_file(&format!("parity_{name}.imp"), src);
        let mut cli_out = String::new();
        let cli_exit = cli::run_command(&["check".into(), file], &mut cli_out).unwrap();

        // The served path, same source over a real socket.
        let server = start(ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).unwrap();
        let (_, exit, render) = ok_response(client.request(&wire::Request::new(src)).unwrap());
        server.shutdown();

        assert_eq!(cli_exit, want_exit, "{name}: {cli_out}");
        assert_eq!(exit, cli_exit, "{name}");
        // Identical up to the wall-clock column — including the witness
        // slice lines under a BUG verdict.
        assert_eq!(
            strip_wall_column(&render),
            strip_wall_column(&cli_out),
            "{name}"
        );
        if want_exit == 1 {
            assert!(render.contains("assume"), "witness served: {render}");
        }
    }
}

#[test]
fn repeat_and_reformatted_requests_hit_the_cache() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (hit1, _, _) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    let (hit2, _, _) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    // Same program, different formatting: still a hit (content key is
    // computed from the resolved AST, not the text).
    let reformatted = BUGGY.replace("    ", "\t").replace("{ if", "{\n if");
    let (hit3, exit3, _) = ok_response(client.request(&wire::Request::new(&reformatted)).unwrap());
    let stats = server.shutdown();
    assert!(!hit1);
    assert!(hit2, "verbatim repeat must hit");
    assert!(hit3, "reformatted repeat must hit");
    assert_eq!(exit3, 1);
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.cache.len, 1);
}

/// A request under one checker configuration must never be answered
/// with verdicts derived under another. Each row checks the program
/// under a non-default knob first, then under the defaults, on one
/// daemon: the default answer must be a fresh daemon's cold default
/// answer (the 3-edge path slice, not the identity reducer's 7-edge
/// trace), and no cluster verdict may be reused across the two.
#[test]
fn a_verdict_is_reused_only_under_the_configuration_it_was_derived_with() {
    const SLICED: &str = "global x, y; fn main() { local a; a = nondet(); y = 0; \
                          y = y + 1; y = y + 2; x = a + 1; y = y + 3; \
                          if (x > 10) { error(); } }";
    let cold = start(ServerConfig::default());
    let mut client = Client::connect(cold.local_addr()).unwrap();
    let (_, cold_exit, cold_render) =
        ok_response(client.request(&wire::Request::new(SLICED)).unwrap());
    cold.shutdown();
    let slice = |render: &str| -> Vec<String> {
        render
            .lines()
            .filter(|l| l.starts_with(' '))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(cold_exit, 1, "{cold_render}");
    assert_eq!(slice(&cold_render).len(), 3, "{cold_render}");

    let mut no_slicing = wire::Request::new(SLICED);
    no_slicing.no_slicing = true;
    let mut dfs = wire::Request::new(SLICED);
    dfs.dfs = true;
    for (knob, first) in [("no_slicing", no_slicing), ("dfs", dfs)] {
        let server = start(ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).unwrap();
        ok_response(client.request(&first).unwrap());
        let (hit, exit, render) = ok_response(client.request(&wire::Request::new(SLICED)).unwrap());
        let stats = server.shutdown();
        assert!(hit, "{knob}: same program, so an analysis-cache hit");
        assert_eq!(exit, cold_exit, "{knob}");
        assert_eq!(
            strip_wall_column(&render),
            strip_wall_column(&cold_render),
            "{knob}: the default answer must be the cold default answer"
        );
        assert_eq!(slice(&render), slice(&cold_render), "{knob}: {render}");
        assert_eq!(stats.incr.verdict_reused, 0, "{knob}: {stats:?}");
    }
}

#[test]
fn full_queue_answers_overloaded_instead_of_queuing() {
    let server = start(ServerConfig {
        jobs: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let slow = slow_source();
    // 8 concurrent requests against 1 worker and a queue of 1: the
    // worker takes one, the queue holds one, the rest must be shed
    // immediately rather than queued without bound.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let slow = slow.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut req = wire::Request::new(&slow);
                req.id = format!("q{i}");
                client.request(&req).expect("response")
            })
        })
        .collect();
    let mut ok = 0u32;
    let mut shed = 0u32;
    for h in handles {
        match h.join().unwrap() {
            wire::Response::Ok { .. } => ok += 1,
            wire::Response::Overloaded { .. } => shed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(ok + shed, 8, "every request answered");
    assert!(ok >= 1, "admitted work completed");
    assert!(shed >= 1, "full queue shed load: {stats}");
    assert_eq!(stats.overloaded as u32, shed);
}

#[test]
fn hostile_frames_do_not_kill_the_daemon() {
    let server = start(ServerConfig {
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Malformed frames: error responses, connection stays usable.
    let mut client = Client::connect(addr).unwrap();
    for frame in ["garbage", "{\"schema\":\"pathslice-wire/v1\"}", "[1,2]"] {
        let resp = client.send_raw(frame).unwrap();
        assert!(matches!(resp, wire::Response::Error { .. }), "{frame}");
    }
    let (_, exit, _) = ok_response(client.request(&wire::Request::new(SAFE)).unwrap());
    assert_eq!(exit, 0, "connection survives malformed frames");

    // Oversized frame: rejected with an error, connection closed.
    let mut big = Client::connect(addr).unwrap();
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(8192));
    match big.send_raw(&huge).unwrap() {
        wire::Response::Error { error, .. } => assert!(error.contains("exceeds"), "{error}"),
        other => panic!("expected error, got {other:?}"),
    }
    assert!(
        big.request(&wire::Request::new(SAFE)).is_err(),
        "oversized frame closes the connection"
    );

    // Truncated frame: peer disappears mid-frame; daemon just drops it.
    let mut trunc = Client::connect(addr).unwrap();
    trunc
        .send_partial(b"{\"schema\":\"pathslice-wire/v1\",\"sou")
        .unwrap();
    drop(trunc);
    // Give the reader thread a beat to observe the EOF.
    std::thread::sleep(Duration::from_millis(200));

    // The daemon still serves fresh connections.
    let mut after = Client::connect(addr).unwrap();
    let (_, exit, _) = ok_response(after.request(&wire::Request::new(BUGGY)).unwrap());
    assert_eq!(exit, 1);

    let stats = server.shutdown();
    assert_eq!(stats.rejected_frames, 4, "{stats}");
    assert_eq!(stats.truncated_frames, 1, "{stats}");
}

#[test]
fn injected_panics_stay_isolated_from_the_daemon() {
    // Every cluster start panics: the fault-tolerant driver must convert
    // each to an INTERNAL verdict and the daemon must keep serving.
    let server = start(ServerConfig {
        faults: FaultPlan::new(0xC0FFEE).inject(FaultSite::ClusterStart, FaultKind::Panic, 1.0),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    for round in 0..3 {
        let (_, exit, render) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
        assert_eq!(exit, 2, "round {round}: {render}");
        assert!(render.contains("INTERNAL"), "round {round}: {render}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, 3, "daemon survived every panic");
}

#[test]
fn request_deadline_counts_queue_time_and_cancels_cleanly() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut req = wire::Request::new(BUGGY);
    req.deadline_ms = Some(0);
    let (_, exit, render) = ok_response(client.request(&req).unwrap());
    assert_eq!(exit, 2, "{render}");
    assert!(render.contains("TIMEOUT"), "{render}");
    // The same connection then serves an undeadlined request normally.
    let (_, exit, _) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    assert_eq!(exit, 1);
    server.shutdown();
}

#[test]
fn certificates_and_stats_ride_along_when_requested() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut req = wire::Request::new(BUGGY);
    req.want_certificate = true;
    req.want_stats = true;
    let resp = client.request(&req).unwrap();
    let wire::Response::Ok {
        certificate: Some(cert),
        stats: Some(stats),
        ..
    } = resp
    else {
        panic!("expected certificate and stats: {resp:?}");
    };
    // The embedded certificate is a full pathslice-trace/v1 document:
    // it must reparse through the certify crate's own reader.
    let trace = pathslicing::certify::from_json(&cert.to_text()).expect("embedded trace parses");
    assert_eq!(trace.clusters.len(), 1);
    assert!(stats
        .field("server")
        .and_then(|s| s.field("cache_misses"))
        .is_some());
    server.shutdown();
}

#[test]
fn metrics_request_exposes_prometheus_text_and_snapshot_deltas() {
    let server = start(ServerConfig {
        snapshot_every: Duration::from_millis(20),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, exit, _) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    assert_eq!(exit, 1);

    // Poll until the sampler has pushed enough periodic snapshots for
    // at least two deltas (the acceptance bar), rather than guessing a
    // sleep that a loaded CI box would miss.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (exposition, series) = loop {
        let (exposition, series) = client.metrics("m1").expect("metrics over the wire");
        let deltas = series
            .field("deltas")
            .and_then(|d| d.as_arr())
            .map_or(0, <[_]>::len);
        if deltas >= 2 {
            break (exposition, series);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sampler never produced 2 deltas: {}",
            series.to_text()
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    assert_eq!(
        series.field("schema").and_then(|s| s.as_str()),
        Some("pathslice-metrics/v1")
    );
    // The exposition carries the server-scoped counter families and the
    // latency histograms in Prometheus text format.
    assert!(
        exposition.contains("# TYPE pathslice_server_requests counter"),
        "{exposition}"
    );
    assert!(
        exposition.contains("pathslice_server_requests 1"),
        "{exposition}"
    );
    assert!(
        exposition.contains("pathslice_server_request_us_miss_count 1"),
        "{exposition}"
    );
    assert!(exposition.contains("le=\"+Inf\""), "{exposition}");
    server.shutdown();
}

#[test]
fn stalled_requests_are_tail_sampled_with_balanced_span_trees() {
    // Every cluster start stalls 60ms against a 20ms slow threshold:
    // the request must land in the slow-trace ring, verdict unchanged.
    let server = start(ServerConfig {
        slow_threshold: Duration::from_millis(20),
        faults: FaultPlan::new(7)
            .inject(FaultSite::ClusterStart, FaultKind::Stall, 1.0)
            .with_stall_ms(60),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, exit, _) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    assert_eq!(exit, 1, "a stall delays the verdict, it does not change it");

    // The ring is queryable from the live daemon over the wire…
    let doc = client.slow_traces("s1").expect("slow traces over the wire");
    assert_eq!(
        doc.field("schema").and_then(|s| s.as_str()),
        Some("pathslice-slowtraces/v1")
    );
    let wire_traces = doc.field("traces").and_then(|t| t.as_arr()).unwrap();
    assert_eq!(wire_traces.len(), 1, "{}", doc.to_text());

    // …and handed back on shutdown for the SIGINT dump path.
    let (_, slow) = server.shutdown_full();
    assert_eq!(slow.len(), 1);
    let trace = &slow[0];
    assert_eq!(trace.reason, "latency");
    assert!(trace.wall_us >= 20_000, "stalled for {}us", trace.wall_us);
    assert!(!trace.verdicts.is_empty());

    // The retained span tree is balanced: ids unique, every parent
    // resolves within the trace, and a single `request` root covers it.
    let mut ids = std::collections::HashSet::new();
    for s in &trace.spans {
        assert!(ids.insert(s.id), "duplicate span id {}", s.id);
    }
    let mut roots = 0;
    for s in &trace.spans {
        match s.parent {
            Some(p) => assert!(ids.contains(&p), "dangling parent {p} for span {}", s.name),
            None => {
                assert_eq!(s.name, "request");
                roots += 1;
            }
        }
    }
    assert_eq!(roots, 1, "exactly one request root");
    assert!(
        trace.spans.iter().any(|s| s.name == "attempt"),
        "driver spans retained: {:?}",
        trace.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
}

#[test]
fn server_stats_are_scoped_per_instance_not_process_global() {
    // Two co-resident daemons, as every test binary has. Traffic into
    // one must be invisible in the other's metrics — the old stats
    // payload dumped process-global counters and failed exactly this.
    let busy = start(ServerConfig::default());
    let idle = start(ServerConfig::default());
    let mut client = Client::connect(busy.local_addr()).unwrap();
    for _ in 0..3 {
        ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    }

    let expo = idle.metrics_exposition();
    assert!(expo.contains("pathslice_server_requests 0"), "{expo}");
    assert!(expo.contains("pathslice_server_cache_misses 0"), "{expo}");

    // A stats-bearing request to the idle server counts only itself.
    let mut other = Client::connect(idle.local_addr()).unwrap();
    let mut req = wire::Request::new(SAFE);
    req.want_stats = true;
    let resp = other.request(&req).unwrap();
    let wire::Response::Ok {
        stats: Some(stats), ..
    } = resp
    else {
        panic!("expected stats: {resp:?}");
    };
    let block = stats.field("server").expect("server block");
    // `requests` counts *completed* requests, so the in-flight one that
    // carried this payload is not yet included — the point is that the
    // busy server's 3 are not here either.
    assert_eq!(block.field("requests").and_then(|v| v.as_i64()), Some(0));
    assert_eq!(
        block.field("cache_misses").and_then(|v| v.as_i64()),
        Some(1)
    );
    assert_eq!(block.field("cache_hits").and_then(|v| v.as_i64()), Some(0));

    let busy_stats = busy.shutdown();
    idle.shutdown();
    assert_eq!(busy_stats.requests, 3);
    assert_eq!(busy_stats.cache.hits, 2);
}

#[test]
fn cli_serve_drains_and_flushes_spans_on_token_cancel() {
    let spans_path = temp_file("serve.spans.json", "");
    let token = CancelToken::new();
    let args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--jobs",
        "2",
        "--trace-out",
        &spans_path,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    // serve_until blocks; cancel it shortly after it comes up. There is
    // no client traffic in this test — the point is the drain itself
    // and the span flush on the way out.
    let trip = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        trip.cancel();
    });
    let mut out = String::new();
    let code = cli::serve_until(&args, &mut out, &token).unwrap();
    canceller.join().unwrap();

    assert_eq!(code, 0);
    assert!(out.contains("drained:"), "{out}");
    assert!(out.contains("wrote"), "{out}");
    // The flushed file is a valid pathslice-spans/v1 document (possibly
    // with zero spans — no requests ran).
    let text = std::fs::read_to_string(&spans_path).unwrap();
    pathslicing::obs::spans_from_json(&text).expect("span dump parses");
}
