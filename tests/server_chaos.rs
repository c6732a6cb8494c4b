//! Chaos drills for the `pathslice serve` daemon: wire-level fault
//! injection (torn reads, torn/failed response writes), slowloris
//! partial writes, mid-request disconnects, oversized lines, and the
//! durable verdict journal under damage — torn tails, append faults,
//! and corrupted certificates at replay. Every drill asserts two
//! things: the daemon keeps serving, and the counters account for
//! exactly the injected damage (fixed seeds make the plans
//! reproducible).

use pathslicing::blastlite::strip_wall_column;
use pathslicing::incr::hash::fnv64;
use pathslicing::obs::json::Json;
use pathslicing::rt::{FaultKind, FaultPlan, FaultSite};
use server::journal::{Journal, JournalConfig, JournalRecord, ReplayItem};
use server::{wire, Client, Server, ServerConfig};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

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
    .expect("bind chaos server")
}

/// A fresh, empty journal directory for one test.
fn journal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("pathslice-chaos-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ok_response(resp: wire::Response) -> (bool, i32, String) {
    match resp {
        wire::Response::Ok {
            warm, exit, render, ..
        } => (warm, exit, render),
        other => panic!("expected ok, got {other:?}"),
    }
}

#[test]
fn torn_inbound_frames_answer_errors_and_are_accounted() {
    // Every inbound frame is torn mid-line: the parse must reject it,
    // the connection must survive (the newline boundary does), and the
    // counters must cover every single one.
    let server = start(ServerConfig {
        faults: FaultPlan::new(0xB0A7).inject(FaultSite::WireRead, FaultKind::TornWrite, 1.0),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    for round in 0..3 {
        let resp = client
            .send_raw(&wire::Request::new(SAFE).to_json())
            .unwrap();
        assert!(
            matches!(resp, wire::Response::Error { .. }),
            "round {round}: torn frame must answer an error, got {resp:?}"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.wire_faults, 3, "every tear counted: {stats}");
    assert_eq!(stats.rejected_frames, 3, "every tear rejected: {stats}");
    assert_eq!(stats.requests, 0, "no torn frame may reach a worker");
}

#[test]
fn wire_read_io_faults_shed_the_connection_not_the_daemon() {
    // Every read faults like a failing NIC: the connection drops, but
    // the daemon keeps accepting fresh ones.
    let server = start(ServerConfig {
        faults: FaultPlan::new(0x10E7).inject(FaultSite::WireRead, FaultKind::IoError, 1.0),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    for round in 0..3 {
        let mut client = Client::connect(addr).expect("daemon must keep accepting");
        assert!(
            client.request(&wire::Request::new(SAFE)).is_err(),
            "round {round}: the faulted read drops the connection"
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.connections, 3, "{stats}");
    assert_eq!(stats.wire_faults, 3, "{stats}");
    assert_eq!(stats.requests, 0, "{stats}");
}

#[test]
fn torn_response_writes_are_bounded_by_the_client_retry_budget() {
    // Every response write tears mid-frame. A no-retry client fails
    // fast; a retrying client resends exactly `retry` more times and
    // then gives up — bounded, never a hang.
    let server = start(ServerConfig {
        faults: FaultPlan::new(0x7E42).inject(FaultSite::WireWrite, FaultKind::TornWrite, 1.0),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut no_retry = Client::connect(addr).unwrap();
    assert!(no_retry.request(&wire::Request::new(BUGGY)).is_err());

    let mut retrying = Client::connect(addr).unwrap();
    retrying.set_retry(2);
    assert!(
        retrying.request(&wire::Request::new(BUGGY)).is_err(),
        "with every response torn the budget must exhaust"
    );

    let stats = server.shutdown();
    // 1 (no-retry) + 3 (initial + 2 retries): each attempt was a real
    // request whose answer tore on the way out.
    assert_eq!(stats.wire_faults, 4, "{stats}");
    assert_eq!(stats.requests, 4, "{stats}");
    assert_eq!(stats.cache.misses, 1, "retries re-hit the warm cache");
    assert_eq!(stats.cache.hits, 3, "{stats}");
}

#[test]
fn slowloris_partial_writes_either_complete_or_count_as_truncated() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    // A slow but honest peer: the frame arrives a few bytes at a time
    // across many read-timeout ticks, and must still be served.
    let mut slow = Client::connect(addr).unwrap();
    let frame = {
        let mut f = wire::Request::new(SAFE).to_json();
        f.push('\n');
        f
    };
    for chunk in frame.as_bytes().chunks(frame.len() / 8 + 1) {
        slow.send_partial(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let (_, exit, _) = ok_response(slow.read_response().unwrap());
    assert_eq!(exit, 0, "a dripped frame is still a frame");

    // A slowloris that never finishes: drops mid-frame, and the partial
    // line is accounted as truncated, not leaked.
    let mut loris = Client::connect(addr).unwrap();
    loris.send_partial(b"{\"schema\":\"pathslice-wire").unwrap();
    std::thread::sleep(Duration::from_millis(60));
    drop(loris);
    std::thread::sleep(Duration::from_millis(200));

    let mut after = Client::connect(addr).unwrap();
    let (_, exit, _) = ok_response(after.request(&wire::Request::new(BUGGY)).unwrap());
    assert_eq!(exit, 1, "daemon serves after the slowloris");
    let stats = server.shutdown();
    assert_eq!(stats.truncated_frames, 1, "{stats}");
    assert_eq!(stats.requests, 2, "{stats}");
}

#[test]
fn oversized_lines_count_once_each_and_never_wedge_the_daemon() {
    let server = start(ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // A complete oversized frame and an unbounded never-terminated one:
    // both must answer an error and close, each counted exactly once.
    let mut complete = Client::connect(addr).unwrap();
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(2048));
    match complete.send_raw(&huge).unwrap() {
        wire::Response::Error { error, .. } => assert!(error.contains("exceeds"), "{error}"),
        other => panic!("expected error, got {other:?}"),
    }

    let mut unbounded = Client::connect(addr).unwrap();
    unbounded.send_partial(&[b'y'; 4096]).unwrap();
    match unbounded.read_response().unwrap() {
        wire::Response::Error { error, .. } => assert!(error.contains("exceeds"), "{error}"),
        other => panic!("expected error, got {other:?}"),
    }

    let mut after = Client::connect(addr).unwrap();
    let (_, exit, _) = ok_response(after.request(&wire::Request::new(SAFE)).unwrap());
    assert_eq!(exit, 0);
    let stats = server.shutdown();
    assert_eq!(stats.rejected_frames, 2, "{stats}");
}

#[test]
fn mid_request_disconnect_leaves_the_daemon_serving() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    // Full valid frame, then vanish before the response: the worker
    // still runs the check, the dead socket just eats the answer.
    let mut ghost = Client::connect(addr).unwrap();
    let mut frame = wire::Request::new(BUGGY).to_json();
    frame.push('\n');
    ghost.send_partial(frame.as_bytes()).unwrap();
    drop(ghost);

    let mut alive = Client::connect(addr).unwrap();
    let (_, exit, _) = ok_response(alive.request(&wire::Request::new(SAFE)).unwrap());
    assert_eq!(exit, 0);
    let stats = server.shutdown();
    assert_eq!(
        stats.requests, 2,
        "the orphaned request was processed, not dropped: {stats}"
    );
}

#[test]
fn ping_reports_readiness_workers_and_journal_accounting() {
    // Journal-less daemon: ready, all workers alive, no journal block.
    let server = start(ServerConfig {
        jobs: 3,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (ready, workers, journal) = client.ping("h1").unwrap();
    assert!(ready);
    assert_eq!(workers, 3);
    assert!(journal.is_none(), "no journal attached: {journal:?}");
    server.shutdown();

    // Journaled daemon: the health answer carries the replay counters.
    let dir = journal_dir("ping");
    let server = start(ServerConfig {
        journal_dir: Some(dir),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (ready, _, journal) = client.ping("h2").unwrap();
    assert!(ready, "replay of an empty journal still readies");
    let journal = journal.expect("journal accounting in health");
    for field in ["appended", "recovered", "rejected", "torn", "segments"] {
        assert!(journal.field(field).is_some(), "{field} in {journal:?}");
    }
    server.shutdown();
}

/// The core durability invariant, attacked directly: a journal whose
/// certificates are corrupted at replay must reject every record — the
/// daemon re-checks from scratch rather than ever serving an
/// unvalidated verdict.
#[test]
fn corrupted_journal_certificates_are_rejected_never_served() {
    let dir = journal_dir("corrupt-replay");

    // Life 1: check both programs, journaling their verdicts.
    let server = start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, exit, render) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    assert_eq!(exit, 1);
    let cold_render = strip_wall_column(&render);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.journal.expect("journal stats").appended, 1);

    // Life 2: same journal, but every replayed certificate is corrupted
    // in flight. The checksum passes (the record is intact on disk) —
    // only certificate re-validation stands between the damage and the
    // warm cache.
    let server = start(ServerConfig {
        journal_dir: Some(dir),
        faults: FaultPlan::new(0xBAD).inject(
            FaultSite::JournalReplay,
            FaultKind::CorruptCertificate,
            1.0,
        ),
        ..ServerConfig::default()
    });
    let journal = server.stats().journal.expect("journal stats");
    assert_eq!(journal.rejected, 1, "the corrupted record must be rejected");
    assert_eq!(journal.recovered, 0, "nothing unvalidated is recovered");
    assert_eq!(journal.torn, 0, "the record itself was intact");

    let mut client = Client::connect(server.local_addr()).unwrap();
    let (warm, exit, render) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    assert!(!warm, "a rejected record must never serve warm");
    assert_eq!(exit, 1, "the cold re-check still finds the bug");
    assert_eq!(strip_wall_column(&render), cold_render, "verdict parity");
    server.shutdown();
}

/// A record whose certificates honestly prove `main` BUG, but whose
/// served fields were rewritten to SAFE with exit 0, must not be served:
/// the recovery gate binds every served field to the trace's claims.
/// Compaction re-checksums the forged record, so the journal layer sees
/// it intact and only the gate stands in the way.
#[test]
fn a_record_serving_what_its_trace_does_not_prove_is_rejected() {
    let dir = journal_dir("served-flip");

    // Life 1: journal an honest BUG verdict.
    let server = start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, exit, render) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    assert_eq!(exit, 1);
    let cold_render = strip_wall_column(&render);
    drop(client);
    server.shutdown();

    // Between lives: serve SAFE next to the same trace.
    let mut journal = Journal::open(JournalConfig::new(&dir)).unwrap();
    let mut forged = Vec::new();
    for item in journal.replay() {
        let ReplayItem::Intact(mut record) = item else {
            panic!("life 1 left a torn record: {item:?}");
        };
        let entry = &mut record.entry;
        entry.exit = 0;
        entry.render = entry
            .render
            .lines()
            .filter(|l| !l.starts_with(' '))
            .map(|l| l.replacen("BUG ", "SAFE", 1) + "\n")
            .collect();
        for c in &mut entry.clusters {
            c.verdict = "SAFE".into();
        }
        forged.push(record);
    }
    assert_eq!(forged.len(), 1);
    journal.compact(&forged);
    drop(journal);

    // Life 2: the forged record is rejected and the request runs cold.
    let server = start(ServerConfig {
        journal_dir: Some(dir),
        ..ServerConfig::default()
    });
    let journal = server.stats().journal.expect("journal stats");
    assert_eq!(journal.rejected, 1, "the forged record must be rejected");
    assert_eq!(journal.recovered, 0);
    assert_eq!(journal.torn, 0, "the forged record is checksummed");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (warm, exit, render) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    assert!(!warm, "a rejected record must never serve warm");
    assert_eq!(exit, 1, "the cold re-check answers BUG");
    assert_eq!(strip_wall_column(&render), cold_render);
    server.shutdown();
}

#[test]
fn torn_journal_tail_loses_only_the_damaged_record() {
    let dir = journal_dir("torn-tail");

    // Life 1: two verdicts in append order — SAFE then BUGGY.
    let server = start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    ok_response(client.request(&wire::Request::new(SAFE)).unwrap());
    ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    drop(client);
    server.shutdown();

    // Shear the segment's tail, as a crash mid-write would: the last
    // record loses its newline and its checksum no longer matches.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "psj"))
        .expect("a journal segment");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap();

    // Life 2: the intact prefix recovers, the sheared tail is counted
    // torn, and warmness follows exactly that split.
    let server = start(ServerConfig {
        journal_dir: Some(dir),
        ..ServerConfig::default()
    });
    let journal = server.stats().journal.expect("journal stats");
    assert_eq!(journal.recovered, 1, "the intact record recovers");
    assert_eq!(journal.torn, 1, "the sheared tail is detected");
    assert_eq!(journal.rejected, 0, "{journal:?}");

    let mut client = Client::connect(server.local_addr()).unwrap();
    let (warm, exit, _) = ok_response(client.request(&wire::Request::new(SAFE)).unwrap());
    assert!(warm, "the recovered verdict serves warm");
    assert_eq!(exit, 0);
    let (warm, exit, _) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    assert!(!warm, "the torn verdict is gone; it re-checks cold");
    assert_eq!(exit, 1);
    server.shutdown();
}

#[test]
fn journal_append_faults_lose_the_record_but_poison_nothing() {
    let dir = journal_dir("append-fault");

    // Life 1: every append tears mid-record on the way to disk.
    let server = start(ServerConfig {
        journal_dir: Some(dir.clone()),
        faults: FaultPlan::new(0x7EA4).inject(FaultSite::JournalAppend, FaultKind::TornWrite, 1.0),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (warm, exit, _) = ok_response(client.request(&wire::Request::new(SAFE)).unwrap());
    assert!(!warm);
    assert_eq!(exit, 0);
    drop(client);
    server.shutdown();

    // Life 2 (clean plan): the half-written record reads back torn —
    // never recovered, never served — and the daemon re-checks cold.
    let server = start(ServerConfig {
        journal_dir: Some(dir),
        ..ServerConfig::default()
    });
    let journal = server.stats().journal.expect("journal stats");
    assert_eq!(journal.torn, 1, "{journal:?}");
    assert_eq!(journal.recovered, 0, "{journal:?}");
    assert_eq!(journal.rejected, 0, "{journal:?}");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (warm, exit, _) = ok_response(client.request(&wire::Request::new(SAFE)).unwrap());
    assert!(!warm, "a torn append must not warm the successor");
    assert_eq!(exit, 0);
    server.shutdown();
}

#[test]
fn crash_then_recover_serves_identical_verdicts_warm() {
    // The in-test shape of serve_bench's `--drill restart`: a crash
    // (no flush, no joins) between completed appends loses nothing.
    let dir = journal_dir("crash-recover");
    let server = start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, exit_before, render_before) =
        ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    drop(client);
    let crashed = server.crash();
    assert_eq!(crashed.requests, 1);
    std::thread::sleep(Duration::from_millis(150));

    let server = start(ServerConfig {
        journal_dir: Some(dir),
        ..ServerConfig::default()
    });
    let journal = server.stats().journal.expect("journal stats");
    assert_eq!(journal.recovered, 1, "{journal:?}");
    assert_eq!(journal.torn, 0, "{journal:?}");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (warm, exit, render) = ok_response(client.request(&wire::Request::new(BUGGY)).unwrap());
    assert!(warm, "recovered verdict serves warm after the crash");
    assert_eq!(exit, exit_before);
    assert_eq!(
        strip_wall_column(&render),
        strip_wall_column(&render_before)
    );
    let stats = server.shutdown();
    assert_eq!(stats.verdict_hits, 1, "{stats}");
}

/// A program with one `BUG` cluster (`main`) and one `SAFE` cluster
/// that needs a refinement round (`check`), so recovery rebuilds both
/// certificate kinds.
const MIXED: &str = r#"
    global limit, x;
    fn check() { x = 1; if (x == 2) { error(); } }
    fn main() {
        local amount;
        amount = nondet();
        check();
        if (amount > limit) { if (limit == 0) { error(); } }
    }
"#;

/// Every node of `doc` as a path of child indices (object fields and
/// array elements alike), root first.
fn node_paths(doc: &Json) -> Vec<Vec<usize>> {
    let mut paths = vec![Vec::new()];
    let mut i = 0;
    while i < paths.len() {
        let n = match node(doc, &paths[i]) {
            Json::Arr(items) => items.len(),
            Json::Obj(fields) => fields.len(),
            _ => 0,
        };
        for k in 0..n {
            let mut p = paths[i].clone();
            p.push(k);
            paths.push(p);
        }
        i += 1;
    }
    paths
}

fn node<'a>(doc: &'a Json, path: &[usize]) -> &'a Json {
    path.iter().fold(doc, |node, &k| match node {
        Json::Arr(items) => &items[k],
        Json::Obj(fields) => &fields[k].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

fn node_mut<'a>(doc: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(doc, |node, &k| match node {
        Json::Arr(items) => &mut items[k],
        Json::Obj(fields) => &mut fields[k].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

/// One damaged copy of `honest`: one to three mutations drawn from
/// dropped fields, wrong types, edge (and variable) ids outside the
/// program, swapped labels, truncated arrays, and truncated text.
fn mutate(honest: &JournalRecord, rand: &mut impl FnMut(usize) -> usize) -> JournalRecord {
    let mut record = honest.clone();
    let mut trace = Json::parse(&record.entry.trace_json).expect("journaled traces are JSON");
    for _ in 0..=rand(3) {
        // A random non-root node of the trace that `keep` accepts.
        let pick = |trace: &Json, rand: &mut dyn FnMut(usize) -> usize, keep: fn(&Json) -> bool| {
            let hits: Vec<Vec<usize>> = node_paths(trace)
                .into_iter()
                .filter(|p| !p.is_empty() && keep(node(trace, p)))
                .collect();
            (!hits.is_empty()).then(|| hits[rand(hits.len())].clone())
        };
        match rand(6) {
            0 => {
                if let Some(p) = pick(&trace, rand, |j| matches!(j, Json::Obj(f) if !f.is_empty()))
                {
                    if let Json::Obj(fields) = node_mut(&mut trace, &p) {
                        fields.remove(rand(fields.len()));
                    }
                }
            }
            1 => {
                if let Some(p) = pick(&trace, rand, |_| true) {
                    let node = node_mut(&mut trace, &p);
                    *node = match node {
                        Json::Str(_) => Json::Num(7),
                        Json::Num(n) => Json::Str(n.to_string()),
                        Json::Arr(_) => Json::Obj(Vec::new()),
                        Json::Obj(_) => Json::Arr(Vec::new()),
                        _ => Json::Null,
                    };
                }
            }
            2 => {
                let id_pair = |j: &Json| {
                    matches!(j, Json::Arr(v) if (2..=3).contains(&v.len())
                        && v.iter().all(|n| matches!(n, Json::Num(_))))
                };
                if let Some(p) = pick(&trace, rand, id_pair) {
                    if let Json::Arr(ids) = node_mut(&mut trace, &p) {
                        ids[rand(2)] = Json::Num([4096, -1, i64::from(u32::MAX) + 1][rand(3)]);
                    }
                }
            }
            3 => match rand(4) {
                0 => record.entry.exit ^= 1,
                1 => {
                    let c = rand(record.entry.clusters.len());
                    let v = &mut record.entry.clusters[c].verdict;
                    *v = if v == "BUG" { "SAFE" } else { "BUG" }.into();
                }
                2 => {
                    let r = &record.entry.render;
                    record.entry.render = if r.contains("BUG ") {
                        r.replacen("BUG ", "SAFE", 1)
                    } else {
                        r.replacen("SAFE", "BUG ", 1)
                    };
                }
                _ => {
                    let claim = |j: &Json| matches!(j, Json::Str(s) if s == "Bug" || s == "Safe");
                    if let Some(p) = pick(&trace, rand, claim) {
                        let label = node_mut(&mut trace, &p);
                        let swapped = if *label == Json::Str("Bug".into()) {
                            "Safe"
                        } else {
                            "Bug"
                        };
                        *label = Json::Str(swapped.into());
                    }
                }
            },
            4 => {
                let array = |j: &Json| matches!(j, Json::Arr(v) if !v.is_empty());
                if rand(4) == 0 {
                    let n = rand(record.entry.clusters.len());
                    record.entry.clusters.truncate(n);
                } else if let Some(p) = pick(&trace, rand, array) {
                    if let Json::Arr(items) = node_mut(&mut trace, &p) {
                        items.truncate(rand(items.len()));
                    }
                }
            }
            _ => {
                let source = match &mut trace {
                    Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == "source"),
                    _ => None,
                };
                let text = match (rand(2), source) {
                    (0, Some((_, Json::Str(source)))) => source,
                    _ => &mut record.entry.render,
                };
                let cut = rand(text.len() + 1);
                let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i));
                text.truncate(cut.unwrap_or(0));
            }
        }
    }
    record.entry.trace_json = trace.to_text();
    record
}

/// Recovery rebuilds verdict-memo entries from bytes read off disk, so
/// damaged records must fail cleanly. One honest record is mutated into
/// many (fixed xorshift seed, as in `tests/wire_v2.rs`), re-checksummed
/// by compaction so the journal layer reads them back intact, and
/// replayed by one restart: nothing panics, every intact record is
/// either recovered or rejected, and the next request answers exactly
/// what a cold check answers.
#[test]
fn mutated_journal_records_fail_recovery_cleanly() {
    let dir = journal_dir("fuzz-recovery");
    let server = start(ServerConfig {
        journal_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, cold_exit, cold_render) =
        ok_response(client.request(&wire::Request::new(MIXED)).unwrap());
    assert_eq!(cold_exit, 1, "{cold_render}");
    drop(client);
    server.shutdown();

    let mut journal = Journal::open(JournalConfig::new(&dir)).unwrap();
    let honest = match journal.replay().into_iter().next() {
        Some(ReplayItem::Intact(record)) => record,
        other => panic!("life 1 journals one intact record: {other:?}"),
    };
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rand = move |bound: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize % bound.max(1)
    };
    let mut records = vec![honest.clone()];
    records.extend((0..120).map(|_| mutate(&honest, &mut rand)));
    assert!(
        records[1..].iter().all(|r| *r != honest),
        "every mutant differs"
    );
    journal.compact(&records);
    drop(journal);
    // Truncated JSON cannot pass through compaction, which re-serializes
    // the trace, so checksummed truncated payloads go into the compacted
    // segment by hand: they must read back torn and never reach the gate.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "psj"))
        .max()
        .expect("the compacted segment");
    let text = std::fs::read_to_string(&segment).unwrap();
    let payload = text.lines().nth(1).and_then(|l| l.splitn(3, ' ').nth(2));
    let payload = payload.expect("the honest record's line");
    let mut truncated = String::new();
    for _ in 0..8 {
        let cut = rand(payload.len());
        let cut = (0..=cut).rev().find(|&i| payload.is_char_boundary(i));
        let cut = &payload[..cut.unwrap_or(0)];
        truncated += &format!("J1 {:016x} {cut}\n", fnv64(cut.as_bytes()));
    }
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&segment)
        .unwrap();
    file.write_all(truncated.as_bytes()).unwrap();
    drop(file);
    let intact = Journal::open(JournalConfig::new(&dir))
        .unwrap()
        .replay()
        .into_iter()
        .filter(|item| matches!(item, ReplayItem::Intact(_)))
        .count() as u64;
    assert!(
        intact > 100,
        "compaction re-checksums the mutants: {intact}"
    );

    let server = start(ServerConfig {
        journal_dir: Some(dir),
        ..ServerConfig::default()
    });
    let journal = server.stats().journal.expect("journal stats");
    assert_eq!(journal.recovered + journal.rejected, intact, "{journal:?}");
    assert_eq!(journal.torn, 8, "{journal:?}");
    assert!(
        journal.recovered >= 1,
        "the honest record recovers: {journal:?}"
    );
    assert!(journal.rejected > journal.recovered, "{journal:?}");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, exit, render) = ok_response(client.request(&wire::Request::new(MIXED)).unwrap());
    assert_eq!(exit, cold_exit);
    assert_eq!(strip_wall_column(&render), strip_wall_column(&cold_render));
    let slice = |r: &str| -> Vec<String> {
        r.lines()
            .filter(|l| l.starts_with(' '))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(slice(&render), slice(&cold_render), "{render}");
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.supervisor_restarts, 0, "{stats:?}");
}
