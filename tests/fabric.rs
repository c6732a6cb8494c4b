//! Multi-node fabric drills: consistent-hash routing with warm-cache
//! affinity, byte-parity with a single node, crash/partition failover,
//! and the certificate-gated peer verdict tier.
//!
//! Everything runs in-process (port-0 servers + an in-process router),
//! with fixed fault-plan seeds, so each drill is reproducible down to
//! the counter.

use fabric::{Router, RouterConfig};
use rt::ring::Ring;
use rt::{FaultKind, FaultPlan, FaultSite};
use server::{wire, Client, Server, ServerConfig};
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

/// A third program so routing has more than two keys to spread.
const LOOPY: &str = r#"
    global n;
    fn main() {
        local i;
        i = 0;
        while (i < 3) { i = i + 1; }
        if (i > 5) { error(); }
    }
"#;

fn start(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind fabric member")
}

/// A fresh, empty journal directory for one test member.
fn journal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("pathslice-fabric-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Strips the trailing wall-clock column, the same way the parity
/// tests do.
fn strip_timing(s: &str) -> Vec<String> {
    s.lines()
        .map(|l| {
            l.rsplit_once("  ")
                .map_or(l.to_owned(), |(v, _)| v.to_owned())
        })
        .collect()
}

fn ok_response(resp: wire::Response) -> (bool, bool, i32, String) {
    match resp {
        wire::Response::Ok {
            cache_hit,
            warm,
            exit,
            render,
            ..
        } => (cache_hit, warm, exit, render),
        other => panic!("expected ok, got {other:?}"),
    }
}

/// Starts `n` plain (journal-less) members plus a router over them.
fn fleet(n: usize, router_tweak: impl FnOnce(&mut RouterConfig)) -> (Vec<Server>, Router) {
    let servers: Vec<Server> = (0..n).map(|_| start(ServerConfig::default())).collect();
    let members: Vec<(String, String)> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("n{i}"), s.local_addr().to_string()))
        .collect();
    let mut config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        members,
        ..RouterConfig::default()
    };
    router_tweak(&mut config);
    let router = Router::start(config).expect("bind router");
    (servers, router)
}

/// The ring-owner member name for `source`, mirroring the router's own
/// placement (same names, same ring construction).
fn owner_of(source: &str, members: &[(String, String)]) -> String {
    let key = blastlite::Session::content_key(source, "<test>").expect("parses");
    Ring::new(members.iter().cloned())
        .owner(key)
        .expect("all up")
        .name
        .clone()
}

#[test]
fn routed_verdicts_are_byte_identical_to_a_single_node_and_sticky() {
    let (servers, router) = fleet(3, |_| {});
    let control = start(ServerConfig::default());
    let mut via_router = Client::connect(router.local_addr()).unwrap();
    let mut via_control = Client::connect(control.local_addr()).unwrap();

    for (i, src) in [BUGGY, SAFE, LOOPY].into_iter().enumerate() {
        let mut req = wire::Request::new(src);
        req.id = format!("parity-{i}");
        let (_, _, exit_r, render_r) = ok_response(via_router.request(&req).unwrap());
        let (_, _, exit_c, render_c) = ok_response(via_control.request(&req).unwrap());
        assert_eq!(exit_r, exit_c, "exit parity for program {i}");
        assert_eq!(
            strip_timing(&render_r),
            strip_timing(&render_c),
            "verdict parity for program {i}"
        );

        // Affinity: the repeat lands on the same member, whose analysis
        // cache is warm for exactly this program.
        let (cache_hit, _, exit2, _) = ok_response(via_router.request(&req).unwrap());
        assert!(
            cache_hit,
            "repeat of program {i} must hit its owner's cache"
        );
        assert_eq!(exit2, exit_r);
    }

    let stats = router.shutdown();
    assert_eq!(stats.relayed, 6, "{stats}");
    assert_eq!(stats.shed, 0, "{stats}");
    assert_eq!(stats.failovers, 0, "{stats}");
    control.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn router_answers_telemetry_ops_inline() {
    let (servers, router) = fleet(3, |_| {});
    let mut client = Client::connect(router.local_addr()).unwrap();

    let (ready, up, journal) = client.ping("rt-ping").unwrap();
    assert!(ready, "3 live members mean ready");
    assert_eq!(up, 3, "workers_alive carries the up-member count");
    assert!(journal.is_none());

    let (exposition, series) = client.metrics("rt-metrics").unwrap();
    assert!(
        exposition.contains("pathslice_router_routed"),
        "router exposition names its own counters:\n{exposition}"
    );
    assert_eq!(
        series.field("schema").and_then(obs::json::Json::as_str),
        Some("pathslice-metrics/v1")
    );

    let traces = client.slow_traces("rt-slow").unwrap();
    assert_eq!(
        traces.field("schema").and_then(obs::json::Json::as_str),
        Some("pathslice-slowtraces/v1"),
        "inline slow-trace answer is a wellformed empty document"
    );

    router.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn crashed_owner_fails_over_with_zero_dropped_requests() {
    // Health probes are pushed out of the picture (one initial round
    // only), so this drill exercises the *in-request* failure path:
    // pooled stream dies → fresh connect refused → passive down-mark →
    // next ring position.
    let (mut servers, router) = fleet(3, |c| c.health_every = Duration::from_secs(60));
    let members: Vec<(String, String)> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("n{i}"), s.local_addr().to_string()))
        .collect();
    let owner = owner_of(BUGGY, &members);
    let owner_idx: usize = owner[1..].parse().unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    let mut req = wire::Request::new(BUGGY);
    req.id = "pre-crash".into();
    let (_, _, exit_before, render_before) = ok_response(client.request(&req).unwrap());
    assert_eq!(exit_before, 1);

    // SIGKILL-equivalent: no drain, no flush; the port goes dead at the
    // next poll tick.
    servers.remove(owner_idx).crash();
    std::thread::sleep(Duration::from_millis(150));

    req.id = "post-crash".into();
    let (_, _, exit_after, render_after) = ok_response(client.request(&req).unwrap());
    assert_eq!(
        exit_after, exit_before,
        "the fallback re-checks to the same exit"
    );
    assert_eq!(
        strip_timing(&render_after),
        strip_timing(&render_before),
        "failover verdict is byte-identical"
    );

    let stats = router.shutdown();
    assert!(
        stats.failovers >= 1,
        "the dead owner cost a failover: {stats}"
    );
    assert!(
        stats.down_marks >= 1,
        "passive detection marked it down: {stats}"
    );
    assert_eq!(stats.shed, 0, "nothing was dropped or shed: {stats}");
    assert_eq!(stats.members_up, 2, "{stats}");
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn partitioned_owner_is_excluded_and_requests_reroute() {
    // Find a seed whose partition plan cuts off exactly the owner of
    // BUGGY: deterministic (decide() is pure), and self-documenting
    // about what the drill partitions.
    let probe_members: Vec<(String, String)> =
        (0..3).map(|i| (format!("n{i}"), String::new())).collect();
    let owner = owner_of(BUGGY, &probe_members);
    let seed = (0u64..10_000)
        .find(|&s| {
            let plan = FaultPlan::new(s).inject(FaultSite::Partition, FaultKind::IoError, 0.34);
            (0..3).all(|i| {
                let name = format!("n{i}");
                let cut = plan.decide(FaultSite::Partition, &name).is_some();
                cut == (name == owner)
            })
        })
        .expect("a seed that partitions exactly the owner");

    let (servers, router) = fleet(3, |c| {
        c.faults = FaultPlan::new(seed).inject(FaultSite::Partition, FaultKind::IoError, 0.34);
        c.health_every = Duration::from_millis(100);
    });
    let mut client = Client::connect(router.local_addr()).unwrap();
    let mut req = wire::Request::new(BUGGY);
    req.id = "partitioned".into();
    let (_, _, exit, _) = ok_response(client.request(&req).unwrap());
    assert_eq!(exit, 1, "a survivor serves the partitioned owner's key");

    let stats = router.shutdown();
    assert_eq!(
        stats.members_up, 2,
        "the cut member is down-marked: {stats}"
    );
    assert!(stats.down_marks >= 1, "{stats}");
    assert_eq!(stats.shed, 0, "rerouted, never dropped: {stats}");
    for s in servers {
        s.shutdown();
    }
}

/// Starts three *journaled, fabric-enrolled* members (no router): the
/// peer verdict tier is server-to-server.
fn peer_fleet(test: &str, asker_faults: FaultPlan) -> (Vec<Server>, Vec<(String, String)>) {
    let servers: Vec<Server> = (0..3)
        .map(|i| {
            start(ServerConfig {
                journal_dir: Some(journal_dir(&format!("{test}-n{i}"))),
                // Only the asking side injects peer-fetch faults; give
                // every member the same plan for simplicity (members
                // that never fetch never fire it).
                faults: asker_faults.clone(),
                ..ServerConfig::default()
            })
        })
        .collect();
    let members: Vec<(String, String)> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("n{i}"), s.local_addr().to_string()))
        .collect();
    for (i, s) in servers.iter().enumerate() {
        s.set_peers(&format!("n{i}"), &members);
    }
    (servers, members)
}

#[test]
fn peer_verdicts_serve_warm_only_after_certificate_revalidation() {
    let (servers, members) = peer_fleet("peer-accept", FaultPlan::default());
    let owner = owner_of(BUGGY, &members);
    let owner_idx: usize = owner[1..].parse().unwrap();
    let asker_idx = (owner_idx + 1) % 3;

    // The owner checks cold and journals the verdict.
    let mut to_owner = Client::connect(servers[owner_idx].local_addr()).unwrap();
    let (_, warm, exit_owner, render_owner) =
        ok_response(to_owner.request(&wire::Request::new(BUGGY)).unwrap());
    assert!(!warm);
    assert_eq!(exit_owner, 1);

    // A different member misses locally, fetches the journaled verdict
    // from the ring owner, revalidates the certificate, serves warm.
    let mut to_asker = Client::connect(servers[asker_idx].local_addr()).unwrap();
    let (_, warm, exit_peer, render_peer) =
        ok_response(to_asker.request(&wire::Request::new(BUGGY)).unwrap());
    assert!(
        warm,
        "an accepted peer verdict serves warm (no local check)"
    );
    assert_eq!(exit_peer, exit_owner);
    assert_eq!(
        strip_timing(&render_peer),
        strip_timing(&render_owner),
        "peer-served verdict is byte-identical"
    );

    let asker_stats = servers[asker_idx].stats();
    assert_eq!(asker_stats.peer_accepted, 1, "{asker_stats}");
    assert_eq!(asker_stats.peer_rejected, 0, "{asker_stats}");
    assert_eq!(asker_stats.peer_misses, 0, "{asker_stats}");
    let owner_stats = servers[owner_idx].stats();
    assert_eq!(owner_stats.peer_served, 1, "{owner_stats}");
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn corrupt_peer_certificates_are_rejected_and_rechecked_locally() {
    // Every peer fetch on the asking side has its certificate corrupted
    // in flight: the gate must reject it (fabric.peer_rejected) and
    // downgrade to a local cold check that still lands the right
    // verdict — an attacker-controlled peer cannot plant a wrong one.
    let plan =
        FaultPlan::new(0xFAB1).inject(FaultSite::PeerFetch, FaultKind::CorruptCertificate, 1.0);
    let (servers, members) = peer_fleet("peer-corrupt", plan);
    let owner = owner_of(BUGGY, &members);
    let owner_idx: usize = owner[1..].parse().unwrap();
    let asker_idx = (owner_idx + 1) % 3;

    let mut to_owner = Client::connect(servers[owner_idx].local_addr()).unwrap();
    let (_, _, exit_owner, render_owner) =
        ok_response(to_owner.request(&wire::Request::new(BUGGY)).unwrap());

    let mut to_asker = Client::connect(servers[asker_idx].local_addr()).unwrap();
    let (_, warm, exit_peer, render_peer) =
        ok_response(to_asker.request(&wire::Request::new(BUGGY)).unwrap());
    assert!(!warm, "a rejected peer verdict must not serve warm");
    assert_eq!(
        exit_peer, exit_owner,
        "the local re-check finds the same bug"
    );
    assert_eq!(strip_timing(&render_peer), strip_timing(&render_owner));

    let asker_stats = servers[asker_idx].stats();
    assert_eq!(asker_stats.peer_rejected, 1, "{asker_stats}");
    assert_eq!(asker_stats.peer_accepted, 0, "{asker_stats}");
    for s in servers {
        s.shutdown();
    }
}

/// A peer that answers with an honest BUG certificate but serves SAFE
/// next to it (exit 0, SAFE labels and render) must be rejected: the
/// gate binds every served field to the trace's claims, so the trace
/// alone validating is not enough.
#[test]
fn a_peer_serving_what_its_certificate_does_not_prove_is_rejected() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    // An honest verdict and certificate, from a node outside the fabric.
    let honest = start(ServerConfig::default());
    let mut client = Client::connect(honest.local_addr()).unwrap();
    let mut req = wire::Request::new(BUGGY);
    req.want_certificate = true;
    let wire::Response::Ok {
        exit,
        render,
        mut clusters,
        certificate: Some(trace),
        ..
    } = client.request(&req).unwrap()
    else {
        panic!("expected an ok response with a certificate");
    };
    assert_eq!(exit, 1);
    let cold_render = strip_timing(&render);
    honest.shutdown();

    // The forger: answers one `peer_get` with the honest trace and a
    // SAFE verdict beside it.
    for c in &mut clusters {
        c.verdict = "SAFE".into();
    }
    let forged = wire::Response::PeerVerdict {
        id: "forged".into(),
        hit: true,
        exit: 0,
        render: render
            .lines()
            .filter(|l| !l.starts_with(' '))
            .map(|l| l.replacen("BUG ", "SAFE", 1) + "\n")
            .collect(),
        clusters,
        trace: Some(trace),
    }
    .to_json();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let forger_addr = listener.local_addr().unwrap().to_string();
    let forger = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        (&stream)
            .write_all(format!("{forged}\n").as_bytes())
            .unwrap();
    });

    // Enroll the asker with the forger as the ring owner of BUGGY.
    let asker = start(ServerConfig {
        journal_dir: Some(journal_dir("peer-forged")),
        ..ServerConfig::default()
    });
    let asker_addr = asker.local_addr().to_string();
    let members = (0..)
        .map(|i| {
            vec![
                ("asker".to_owned(), asker_addr.clone()),
                (format!("forger{i}"), forger_addr.clone()),
            ]
        })
        .find(|m| owner_of(BUGGY, m).starts_with("forger"))
        .unwrap();
    asker.set_peers("asker", &members);

    let mut to_asker = Client::connect(asker.local_addr()).unwrap();
    let (_, warm, exit, render) =
        ok_response(to_asker.request(&wire::Request::new(BUGGY)).unwrap());
    forger.join().unwrap();
    assert!(!warm, "a forged peer verdict must not serve warm");
    assert_eq!(exit, 1, "the local re-check answers BUG");
    assert_eq!(strip_timing(&render), cold_render);
    let stats = asker.stats();
    assert_eq!(stats.peer_rejected, 1, "{stats}");
    assert_eq!(stats.peer_accepted, 0, "{stats}");
    asker.shutdown();
}

#[test]
fn peer_misses_downgrade_to_local_checks() {
    // Nobody journaled anything yet: the first request on a non-owner
    // asks the owner, gets a miss, and checks locally — one counted
    // miss, no rejection, correct verdict.
    let (servers, members) = peer_fleet("peer-miss", FaultPlan::default());
    let owner = owner_of(SAFE, &members);
    let owner_idx: usize = owner[1..].parse().unwrap();
    let asker_idx = (owner_idx + 1) % 3;

    let mut to_asker = Client::connect(servers[asker_idx].local_addr()).unwrap();
    let (_, warm, exit, _) = ok_response(to_asker.request(&wire::Request::new(SAFE)).unwrap());
    assert!(!warm);
    assert_eq!(exit, 0);
    let stats = servers[asker_idx].stats();
    assert_eq!(stats.peer_misses, 1, "{stats}");
    assert_eq!(stats.peer_accepted, 0, "{stats}");
    assert_eq!(stats.peer_rejected, 0, "{stats}");
    for s in servers {
        s.shutdown();
    }
}
