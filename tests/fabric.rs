//! Multi-node fabric drills: consistent-hash routing with warm-cache
//! affinity, byte-parity with a single node, and crash/partition
//! failover.
//!
//! Everything runs in-process (port-0 servers + an in-process router),
//! with fixed fault-plan seeds, so each drill is reproducible down to
//! the counter.

use fabric::{Router, RouterConfig};
use rt::ring::Ring;
use rt::{FaultKind, FaultPlan, FaultSite};
use server::{wire, Client, Server, ServerConfig};
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
