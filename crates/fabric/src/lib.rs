//! Multi-node verification fabric: a router that places requests on a
//! fleet of `pathslice serve` nodes by consistent hashing.
//!
//! The router accepts both wire revisions downstream and speaks
//! `pathslice-wire/v2` upstream for its own traffic (health probes). A
//! client connects to it exactly as it would to a single daemon, under
//! `pathslice-wire/v1` or `/v2` per frame (`docs/WIRE.md`); each check
//! frame is parsed just enough to derive the program's *content key*
//! (the same key the analysis cache and the journal use), then relayed
//! byte-for-byte to the ring owner of that key — so repeated (or
//! reformatted) submissions of one program always land on the node
//! that already holds its warm session and journaled verdicts, and the
//! relayed frame carries the client's own schema marker, so the
//! backend answers under the revision the client asked for. The
//! backend's response line is relayed back verbatim: a fabric answer
//! is byte-identical to the single-node answer. Frames the router
//! answers itself (telemetry ops, exhaustion sheds) are serialized
//! under the requesting frame's revision.
//!
//! Failure handling is "walk the ring": a member that refuses
//! connections, dies mid-request, or answers `overloaded` costs one
//! failover step to the next ring position ([`rt::ring::Ring::successors`]),
//! never a silent drop — when every candidate is exhausted the router
//! itself answers `overloaded` (if anyone shed) or an `error` frame.
//! A background thread health-checks every member with the wire `ping`
//! op and flips ring marks both ways, so a node that was SIGKILLed
//! stops receiving keys within one probe period and a recovered node
//! is folded back in.
//!
//! Chaos testing reuses the deterministic [`FaultPlan`] machinery:
//! [`FaultSite::Partition`] (keyed by member name) makes the router
//! treat that member as unreachable — connects "refused" — without
//! the member actually dying, which is exactly a network partition as
//! seen from the router.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::telemetry::{prometheus_text, MetricsRing, MetricsSnapshot};
use rt::ring::Ring;
use rt::{CancelToken, FaultPlan, FaultSite};
use server::{net, wire};

/// Poll granularity for blocking loops (accept, reads, shutdown).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Mutex helper: a panicking holder poisons the lock, but every
/// structure here stays usable, so recover the guard.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Router tuning. [`Default`] matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:7170`; use port 0 for tests).
    pub addr: String,
    /// Fabric members as `(name, addr)` pairs. Ring positions derive
    /// from the *name*, so an address change does not reshuffle keys.
    pub members: Vec<(String, String)>,
    /// Health-probe period. Each round pings every member and flips
    /// its ring mark both ways.
    pub health_every: Duration,
    /// Failover budget per request: how many ring positions to try
    /// before answering the client ourselves. `0` means "every live
    /// member".
    pub max_attempts: usize,
    /// Backend connect timeout (also bounds one health probe).
    pub connect_timeout: Duration,
    /// How long to wait for a backend's response line before treating
    /// the member as failed for this request.
    pub reply_timeout: Duration,
    /// Largest accepted request frame, in bytes (mirrors the server's
    /// own bound — the router refuses what the backend would refuse).
    pub max_frame_bytes: usize,
    /// Deterministic fault injection ([`FaultSite::Partition`]).
    pub faults: FaultPlan,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7170".into(),
            members: Vec::new(),
            health_every: Duration::from_millis(250),
            max_attempts: 0,
            connect_timeout: Duration::from_millis(250),
            reply_timeout: Duration::from_secs(30),
            max_frame_bytes: 4 << 20,
            faults: FaultPlan::default(),
        }
    }
}

/// Point-in-time router accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Client connections accepted.
    pub connections: u64,
    /// Check frames routed to a backend.
    pub routed: u64,
    /// Frames that came back with a relayable backend response.
    pub relayed: u64,
    /// Transport-level failovers: a member refused the connection,
    /// died mid-request, or returned garbage, and the request moved to
    /// the next ring position.
    pub failovers: u64,
    /// Load-level failovers: a member answered `overloaded` and the
    /// request moved on (the member stays up — shedding is healthy).
    pub overload_reroutes: u64,
    /// Requests the router had to answer itself after exhausting every
    /// candidate (`overloaded` if any member shed, `error` otherwise).
    pub shed: u64,
    /// Health transitions up→down (probe failures and passive
    /// mid-request failures both count).
    pub down_marks: u64,
    /// Members currently marked up.
    pub members_up: u64,
}

struct RouterShared {
    config: RouterConfig,
    ring: Mutex<Ring>,
    shutdown: CancelToken,
    connections: AtomicU64,
    routed: AtomicU64,
    relayed: AtomicU64,
    failovers: AtomicU64,
    overload_reroutes: AtomicU64,
    shed: AtomicU64,
    down_marks: AtomicU64,
    /// Relay latency (admission at the router to response relayed), µs.
    relay_us: obs::Histogram,
    started: Instant,
}

impl RouterShared {
    fn stats(&self) -> RouterStats {
        RouterStats {
            connections: self.connections.load(Ordering::Relaxed),
            routed: self.routed.load(Ordering::Relaxed),
            relayed: self.relayed.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            overload_reroutes: self.overload_reroutes.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            down_marks: self.down_marks.load(Ordering::Relaxed),
            members_up: lock(&self.ring).up_count() as u64,
        }
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        let s = self.stats();
        BTreeMap::from([
            ("router.connections".into(), s.connections),
            ("router.routed".into(), s.routed),
            ("router.relayed".into(), s.relayed),
            ("router.failovers".into(), s.failovers),
            ("router.overload_reroutes".into(), s.overload_reroutes),
            ("router.shed".into(), s.shed),
            ("router.down_marks".into(), s.down_marks),
            ("router.members_up".into(), s.members_up),
        ])
    }

    /// Marks `name` down (passive failure detection); the health thread
    /// will fold it back in once it answers pings again.
    fn mark_down(&self, name: &str) {
        let mut ring = lock(&self.ring);
        if ring.members().iter().any(|m| m.name == name && m.up) {
            ring.set_up(name, false);
            self.down_marks.fetch_add(1, Ordering::Relaxed);
            obs::counter("router.down_marks").inc();
        }
    }
}

/// A running fabric router. Obtain with [`Router::start`]; stop with
/// [`Router::shutdown`].
pub struct Router {
    shared: Arc<RouterShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Router {
    /// Binds `config.addr`, runs one synchronous health round (so the
    /// ring starts with truthful marks instead of assuming everyone is
    /// up), then starts the acceptor and the periodic health thread.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an empty member list; otherwise I/O errors
    /// from binding the listener or spawning the acceptor.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        if config.members.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "a fabric needs at least one member (--peers)",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let ring = Ring::new(config.members.iter().cloned());
        let shared = Arc::new(RouterShared {
            config,
            ring: Mutex::new(ring),
            shutdown: CancelToken::new(),
            connections: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            relayed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            overload_reroutes: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            down_marks: AtomicU64::new(0),
            relay_us: obs::Histogram::new(),
            started: Instant::now(),
        });
        health_round(&shared);
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let acceptor = {
            let shared = shared.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("fabric-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &conns))?
        };
        let health = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("fabric-health".into())
                .spawn(move || health_loop(&shared))
                .ok()
        };
        Ok(Router {
            shared,
            addr,
            acceptor: Some(acceptor),
            health,
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current accounting.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// Members and their current health marks, in join order.
    pub fn members(&self) -> Vec<(String, bool)> {
        lock(&self.shared.ring)
            .members()
            .iter()
            .map(|m| (m.name.clone(), m.up))
            .collect()
    }

    /// Stops accepting, joins every thread, returns final accounting.
    /// In-flight relays finish (their connection threads are joined).
    pub fn shutdown(mut self) -> RouterStats {
        self.shared.shutdown.cancel();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        for h in std::mem::take(&mut *lock(&self.conns)) {
            let _ = h.join();
        }
        self.shared.stats()
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<RouterShared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.shutdown.is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                obs::counter("router.connections").inc();
                let spawned = {
                    let shared = shared.clone();
                    std::thread::Builder::new()
                        .name("fabric-conn".into())
                        .spawn(move || connection_loop(stream, &shared))
                };
                if let Ok(handle) = spawned {
                    lock(conns).push(handle);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// One health round: ping every member, flip marks both ways. A member
/// under an injected partition is unreachable *from the router*, so it
/// is marked down exactly as a real partition would.
fn health_round(shared: &Arc<RouterShared>) {
    let members: Vec<(String, String)> = lock(&shared.ring)
        .members()
        .iter()
        .map(|m| (m.name.clone(), m.addr.clone()))
        .collect();
    for (name, addr) in members {
        let up = shared
            .config
            .faults
            .decide(FaultSite::Partition, &name)
            .is_none()
            && probe(&addr, shared.config.connect_timeout);
        let mut ring = lock(&shared.ring);
        let was_up = ring.members().iter().any(|m| m.name == name && m.up);
        ring.set_up(&name, up);
        drop(ring);
        if was_up && !up {
            shared.down_marks.fetch_add(1, Ordering::Relaxed);
            obs::counter("router.down_marks").inc();
        }
    }
}

fn health_loop(shared: &Arc<RouterShared>) {
    while !shared.shutdown.is_cancelled() {
        let mut slept = Duration::ZERO;
        while slept < shared.config.health_every && !shared.shutdown.is_cancelled() {
            let step = POLL_INTERVAL.min(shared.config.health_every - slept);
            std::thread::sleep(step);
            slept += step;
        }
        if shared.shutdown.is_cancelled() {
            return;
        }
        health_round(shared);
    }
}

/// One wire `ping` against `addr`: true iff it connects, answers within
/// the timeout, and reports `ready`. The probe is the router's own
/// traffic, so it speaks `pathslice-wire/v2` upstream.
fn probe(addr: &str, timeout: Duration) -> bool {
    let frame = wire::ping_request_json_versioned("fabric-health", wire::WireVersion::V2) + "\n";
    match net::exchange(addr, frame.as_bytes(), timeout, timeout) {
        Ok((line, _)) => matches!(
            wire::Response::from_json(line.trim_end()),
            Ok(wire::Response::Health { ready: true, .. })
        ),
        Err(_) => false,
    }
}

/// Reads client frames until EOF/shutdown, answering each one. Backend
/// connections are pooled per client connection (`addr → stream`), so
/// a client with affinity for one key reuses one warm TCP path.
fn connection_loop(stream: TcpStream, shared: &Arc<RouterShared>) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut pool: HashMap<String, TcpStream> = HashMap::new();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return,
            Ok(_) if buf.last() != Some(&b'\n') => {}
            Ok(_) => {
                let line = std::mem::take(&mut buf);
                if line.len() > shared.config.max_frame_bytes {
                    let e = wire::Response::Error {
                        id: String::new(),
                        error: "frame exceeds maximum size".into(),
                    };
                    let _ = writer.write_all((e.to_json() + "\n").as_bytes());
                    return;
                }
                let response = handle_frame(&line, shared, &mut pool);
                if writer.write_all(&response).is_err() {
                    return;
                }
                if shared.shutdown.is_cancelled() {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.is_cancelled() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
        if buf.len() > shared.config.max_frame_bytes {
            let e = wire::Response::Error {
                id: String::new(),
                error: "frame exceeds maximum size".into(),
            };
            let _ = writer.write_all((e.to_json() + "\n").as_bytes());
            return;
        }
    }
}

/// Answers one client frame: telemetry ops inline, checks by relay.
/// Always returns a newline-terminated frame, serialized under the
/// requesting frame's wire revision (a frame that does not parse names
/// no revision and is answered under v1).
fn handle_frame(
    line: &[u8],
    shared: &Arc<RouterShared>,
    pool: &mut HashMap<String, TcpStream>,
) -> Vec<u8> {
    let text = String::from_utf8_lossy(line);
    let answer =
        |r: wire::Response, v: wire::WireVersion| (r.to_json_versioned(v) + "\n").into_bytes();
    match wire::Incoming::parse(text.trim_end()) {
        Err(e) => answer(
            wire::Response::Error {
                id: String::new(),
                error: format!("bad request: {}", e.message),
            },
            wire::WireVersion::V1,
        ),
        Ok((wire::Incoming::Ping { id }, version)) => {
            let up = lock(&shared.ring).up_count() as u64;
            answer(
                wire::Response::Health {
                    id,
                    ready: up > 0,
                    workers_alive: up,
                    journal: None,
                },
                version,
            )
        }
        Ok((wire::Incoming::Metrics { id }, version)) => {
            let counters = shared.counters();
            let mut hists = BTreeMap::new();
            hists.insert("router.relay_us".to_owned(), shared.relay_us.snapshot());
            let mut ring = MetricsRing::new(1);
            ring.push(MetricsSnapshot {
                at_us: shared.started.elapsed().as_micros() as u64,
                counters: counters.clone(),
                histograms: hists.clone(),
            });
            answer(
                wire::Response::Metrics {
                    id,
                    exposition: prometheus_text(&counters, &hists),
                    series: ring.to_json(),
                },
                version,
            )
        }
        Ok((wire::Incoming::SlowTraces { id }, version)) => answer(
            wire::Response::SlowTraces {
                id,
                // The router holds no span trees; slow requests are
                // traced on the member that ran them.
                traces: server::slow_traces_json(&[]),
            },
            version,
        ),
        Ok((wire::Incoming::Check(req), version)) => {
            forward(line, route_key(&req.source), &req.id, version, shared, pool)
        }
    }
}

/// The ring key for a check: the program's content key when the source
/// parses (so reformatted duplicates collapse onto one node), an FNV
/// over the raw bytes otherwise (the backend will answer the parse
/// error; routing just has to be deterministic).
fn route_key(source: &str) -> u64 {
    blastlite::Session::content_key(source, "<route>")
        .unwrap_or_else(|_| incr::hash::fnv64(source.as_bytes()))
}

/// Relays `line` to the ring owner of `key`, walking successors on
/// failure. Exhaustion answers the client `overloaded` (if any member
/// shed) or an `error` frame — never silence — under the client's own
/// wire revision.
fn forward(
    line: &[u8],
    key: u64,
    id: &str,
    version: wire::WireVersion,
    shared: &Arc<RouterShared>,
    pool: &mut HashMap<String, TcpStream>,
) -> Vec<u8> {
    shared.routed.fetch_add(1, Ordering::Relaxed);
    obs::counter("router.routed").inc();
    let start = Instant::now();
    let candidates: Vec<(String, String)> = lock(&shared.ring)
        .successors(key)
        .into_iter()
        .map(|m| (m.name.clone(), m.addr.clone()))
        .collect();
    let budget = match shared.config.max_attempts {
        0 => candidates.len(),
        n => n,
    };
    let mut saw_overloaded = false;
    let mut tried = 0usize;
    for (name, addr) in candidates.into_iter().take(budget) {
        tried += 1;
        // An injected partition refuses every connection to this
        // member, as seen from the router only.
        if shared
            .config
            .faults
            .decide(FaultSite::Partition, &name)
            .is_some()
        {
            shared.mark_down(&name);
            shared.failovers.fetch_add(1, Ordering::Relaxed);
            obs::counter("router.failovers").inc();
            continue;
        }
        match relay_once(&addr, line, shared, pool) {
            Ok(response) => {
                match wire::Response::from_json(String::from_utf8_lossy(&response).trim_end()) {
                    Ok(wire::Response::Overloaded { .. }) => {
                        // Healthy shedding: move on without a down-mark.
                        saw_overloaded = true;
                        shared.overload_reroutes.fetch_add(1, Ordering::Relaxed);
                        obs::counter("router.overload_reroutes").inc();
                    }
                    Ok(_) => {
                        shared.relayed.fetch_add(1, Ordering::Relaxed);
                        obs::counter("router.relayed").inc();
                        shared.relay_us.record(start.elapsed().as_micros() as u64);
                        return response;
                    }
                    Err(_) => {
                        // A frame that does not parse is a damaged
                        // transport, not a verdict: fail over.
                        pool.remove(&addr);
                        shared.failovers.fetch_add(1, Ordering::Relaxed);
                        obs::counter("router.failovers").inc();
                    }
                }
            }
            Err(_) => {
                pool.remove(&addr);
                shared.mark_down(&name);
                shared.failovers.fetch_add(1, Ordering::Relaxed);
                obs::counter("router.failovers").inc();
            }
        }
    }
    shared.shed.fetch_add(1, Ordering::Relaxed);
    obs::counter("router.shed").inc();
    let answer = if saw_overloaded {
        wire::Response::Overloaded { id: id.to_owned() }
    } else {
        wire::Response::Error {
            id: id.to_owned(),
            error: format!("fabric: no live member could serve this request ({tried} tried)"),
        }
    };
    (answer.to_json_versioned(version) + "\n").into_bytes()
}

/// One relay over the per-connection pool: reuse the pooled stream to
/// `addr` if there is one, falling back to a fresh connect once — a
/// pooled stream goes stale whenever the backend restarts, and that
/// must cost a reconnect, not a failover.
fn relay_once(
    addr: &str,
    line: &[u8],
    shared: &Arc<RouterShared>,
    pool: &mut HashMap<String, TcpStream>,
) -> Result<Vec<u8>, String> {
    if let Some(mut stream) = pool.remove(addr) {
        let _ = stream.set_write_timeout(Some(shared.config.reply_timeout));
        if stream.write_all(line).is_ok() {
            if let Ok(response) = net::read_line(&mut stream, shared.config.reply_timeout) {
                pool.insert(addr.to_owned(), stream);
                return Ok(response.into_bytes());
            }
        }
        // Stale pool entry: drop it and try one fresh connection.
    }
    let (response, stream) = net::exchange(
        addr,
        line,
        shared.config.connect_timeout,
        shared.config.reply_timeout,
    )?;
    pool.insert(addr.to_owned(), stream);
    Ok(response.into_bytes())
}

/// Renders router stats for `--stats` style output.
impl std::fmt::Display for RouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} connection(s), {} routed, {} relayed, {} failover(s), \
             {} overload reroute(s), {} shed, {} down-mark(s), {} member(s) up",
            self.connections,
            self.routed,
            self.relayed,
            self.failovers,
            self.overload_reroutes,
            self.shed,
            self.down_marks,
            self.members_up,
        )
    }
}
