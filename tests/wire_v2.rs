//! Integration tests for `pathslice-wire/v2` and the reactor's NDJSON
//! framer (docs/WIRE.md is the normative spec): pipelined out-of-order
//! completion, interleaved request ids, torn/batched frame delivery,
//! oversize handling, mixed v1/v2 connections, and the cross-check
//! that every wire op is documented.

use blastlite::strip_wall_column;
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

/// A workload program slow enough that a cold check visibly outlasts a
/// cached one (the out-of-order completion test relies on the gap).
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

fn start(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind test server")
}

fn v2_check(source: &str, id: &str) -> String {
    let mut request = wire::Request::new(source);
    request.id = id.into();
    request.to_json_versioned(wire::WireVersion::V2)
}

/// The heart of v2: two checks pipelined on one connection, the slow
/// one first. The daemon finishes the cached one while the cold one is
/// still running, and the completions come back tagged with their own
/// request ids — out of send order.
#[test]
fn pipelined_completions_return_out_of_order_with_correct_ids() {
    let server = start(ServerConfig {
        jobs: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Prime: SAFE compiles into the analysis cache (a later submission
    // of the same bytes is a fast-lane cache hit).
    let prime = client
        .send_raw(&v2_check(SAFE, "prime"))
        .expect("prime response");
    let primed_render = match prime {
        wire::Response::Ok { render, .. } => render,
        other => panic!("prime: {other:?}"),
    };

    // Pipeline: the slow cold check first, the cached one second.
    client
        .send_frame(&v2_check(&slow_source(), "slow"))
        .unwrap();
    client.send_frame(&v2_check(SAFE, "fast")).unwrap();

    let first = client.read_response().expect("first completion");
    let second = client.read_response().expect("second completion");
    assert_eq!(
        first.id(),
        "fast",
        "the cached check must complete before the cold one"
    );
    assert_eq!(second.id(), "slow");
    match first {
        wire::Response::Ok {
            cache_hit, render, ..
        } => {
            assert!(cache_hit, "fast must be a cache hit");
            // Same program, same verdicts: the response really is the
            // one its id names, not a mislabelled `slow` result.
            assert_eq!(
                strip_wall_column(&render),
                strip_wall_column(&primed_render)
            );
        }
        other => panic!("fast: {other:?}"),
    }
    match second {
        wire::Response::Ok { cache_hit, .. } => {
            assert!(!cache_hit, "slow runs cold");
        }
        other => panic!("slow: {other:?}"),
    }
    server.shutdown();
}

/// Many in-flight ids on one connection: every completion is tagged
/// with exactly one of the submitted ids, none are lost or duplicated,
/// and each id's verdict matches its program.
#[test]
fn interleaved_request_ids_all_come_back_exactly_once() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Prime both programs so the pipelined burst is warm.
    let safe_render = match client.send_raw(&v2_check(SAFE, "p0")).unwrap() {
        wire::Response::Ok { render, exit, .. } => {
            assert_eq!(exit, 0);
            render
        }
        other => panic!("prime safe: {other:?}"),
    };
    let buggy_render = match client.send_raw(&v2_check(BUGGY, "p1")).unwrap() {
        wire::Response::Ok { render, exit, .. } => {
            assert_eq!(exit, 1);
            render
        }
        other => panic!("prime buggy: {other:?}"),
    };

    let n = 12;
    for i in 0..n {
        let (src, tag) = if i % 2 == 0 {
            (SAFE, "safe")
        } else {
            (BUGGY, "buggy")
        };
        client
            .send_frame(&v2_check(src, &format!("{tag}-{i}")))
            .unwrap();
    }
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..n {
        match client.read_response().expect("completion") {
            wire::Response::Ok { id, render, .. } => {
                let want = if id.starts_with("safe") {
                    &safe_render
                } else {
                    &buggy_render
                };
                assert_eq!(
                    strip_wall_column(&render),
                    strip_wall_column(want),
                    "{id}: verdict does not match its id"
                );
                assert!(seen.insert(id.clone()), "{id}: duplicated completion");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(seen.len(), n, "a completion was lost");
    server.shutdown();
}

/// Deterministic torn-delivery fuzz: the same three-frame v2 session is
/// delivered in every chunking the xorshift schedule produces — single
/// bytes, mid-frame splits, batches spanning frame boundaries — and the
/// framer must reassemble exactly three tagged responses every time.
#[test]
fn torn_and_batched_delivery_reassembles_frames() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    // One whole session's bytes: three pipelined v2 frames.
    let mut session_bytes = Vec::new();
    for id in ["a", "b", "c"] {
        session_bytes.extend_from_slice(v2_check(SAFE, id).as_bytes());
        session_bytes.push(b'\n');
    }
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rand = move |bound: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as usize % bound).max(1)
    };
    for round in 0..6 {
        let mut client = Client::connect(addr).unwrap();
        let mut sent = 0;
        while sent < session_bytes.len() {
            let n = match round {
                0 => 1,                   // byte-at-a-time slowloris
                1 => session_bytes.len(), // one giant write
                _ => rand(64),            // random tears
            }
            .min(session_bytes.len() - sent);
            client.send_partial(&session_bytes[sent..sent + n]).unwrap();
            sent += n;
            if round == 0 && sent % 97 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let mut ids = std::collections::BTreeSet::new();
        for _ in 0..3 {
            match client.read_response().expect("reassembled response") {
                wire::Response::Ok { id, .. } => {
                    ids.insert(id);
                }
                other => panic!("round {round}: {other:?}"),
            }
        }
        assert_eq!(
            ids.into_iter().collect::<Vec<_>>(),
            vec!["a".to_owned(), "b".to_owned(), "c".to_owned()],
            "round {round}: frame reassembly lost or invented a request"
        );
    }
    server.shutdown();
}

/// v1 and v2 frames interleave freely on one connection; each response
/// carries the schema of its request, and v1's one-at-a-time contract
/// holds per-frame without poisoning later v2 traffic.
#[test]
fn v1_and_v2_mix_on_one_connection() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // v1 check (the legacy framing, no explicit schema).
    let mut v1_req = wire::Request::new(SAFE);
    v1_req.id = "v1-check".into();
    match client.send_raw(&v1_req.to_json()).unwrap() {
        wire::Response::Ok { id, .. } => assert_eq!(id, "v1-check"),
        other => panic!("v1 check: {other:?}"),
    }
    // v2 ping on the same connection.
    match client
        .send_raw(&wire::ping_request_json_versioned(
            "v2-ping",
            wire::WireVersion::V2,
        ))
        .unwrap()
    {
        wire::Response::Health { id, ready, .. } => {
            assert_eq!(id, "v2-ping");
            assert!(ready);
        }
        other => panic!("v2 ping: {other:?}"),
    }
    // v2 check, then a v1 check again: both answered, in order, since
    // each waits for its response before the next frame is sent.
    match client.send_raw(&v2_check(SAFE, "v2-check")).unwrap() {
        wire::Response::Ok { id, cache_hit, .. } => {
            assert_eq!(id, "v2-check");
            assert!(cache_hit, "same bytes as the v1 check");
        }
        other => panic!("v2 check: {other:?}"),
    }
    match client.send_raw(&v1_req.to_json()).unwrap() {
        wire::Response::Ok { id, .. } => assert_eq!(id, "v1-check"),
        other => panic!("second v1 check: {other:?}"),
    }
    server.shutdown();
}

/// A v2 frame without a request id is a parse error — ids are the
/// pipelining correlation handle and v2 makes them mandatory.
#[test]
fn v2_check_without_id_is_rejected() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut request = wire::Request::new(SAFE);
    request.id = String::new();
    match client
        .send_raw(&request.to_json_versioned(wire::WireVersion::V2))
        .unwrap()
    {
        wire::Response::Error { error, .. } => {
            assert!(error.contains("bad request frame"), "{error}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    // The connection survives the rejection.
    match client.send_raw(&v2_check(SAFE, "after")).unwrap() {
        wire::Response::Ok { id, .. } => assert_eq!(id, "after"),
        other => panic!("after: {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected_frames, 1);
}

/// Oversize handling under v2 is the same contract as v1: a complete
/// over-limit frame (and a never-terminated stream past the limit) is
/// answered with an `error` and the connection is closed.
#[test]
fn oversized_v2_frames_close_the_connection() {
    let server = start(ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // A complete, parseable v2 frame that is simply too large.
    let mut client = Client::connect(addr).unwrap();
    let padded = format!("// {}\n{}", "x".repeat(2048), SAFE);
    match client.send_raw(&v2_check(&padded, "big")).unwrap() {
        wire::Response::Error { error, .. } => assert!(error.contains("exceeds"), "{error}"),
        other => panic!("oversized: {other:?}"),
    }
    assert!(
        client.send_raw(&v2_check(SAFE, "after")).is_err(),
        "the connection must be closed after an oversized frame"
    );

    // A stream that never terminates its frame must not buffer forever.
    let mut client = Client::connect(addr).unwrap();
    client.send_partial(&vec![b'y'; 4096]).unwrap();
    match client.read_response().unwrap() {
        wire::Response::Error { error, .. } => assert!(error.contains("exceeds"), "{error}"),
        other => panic!("unbounded: {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected_frames, 2);
}

/// docs/WIRE.md is normative: every op the server implements must be
/// documented there, and both schema markers must appear. A new op that
/// lands without a spec entry fails here.
#[test]
fn every_wire_op_is_documented_in_wire_md() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/WIRE.md");
    let spec = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("docs/WIRE.md must exist (the wire spec is normative): {e}"));
    for op in wire::SPEC_OPS {
        assert!(
            spec.contains(&format!("`{op}`")) || spec.contains(&format!("\"op\": \"{op}\"")),
            "docs/WIRE.md does not document wire op `{op}`"
        );
    }
    for schema in [wire::WIRE_SCHEMA, wire::WIRE_SCHEMA_V2] {
        assert!(
            spec.contains(schema),
            "docs/WIRE.md does not name the `{schema}` schema marker"
        );
    }
}
