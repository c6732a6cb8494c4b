//! `server` — the `pathslice serve` daemon: path slicing as a
//! long-running verification service.
//!
//! The paper's point is that path slicing makes counterexample analysis
//! cheap enough to run *inside* a long-lived CEGAR loop; operationally
//! that means the slicer is a service component, not a one-shot tool.
//! This crate turns the batch checker into exactly that:
//!
//! * **Wire protocol** ([`wire`]) — newline-delimited JSON over TCP
//!   (`pathslice-wire/v1` and `/v2`, specified normatively in
//!   `docs/WIRE.md`): request = source + per-cluster budget and config;
//!   response = verdicts (rendered byte-identically to `pathslice
//!   check`) + optional certificate + stats. v2 frames carry mandatory
//!   request ids, so one connection can pipeline many in-flight checks.
//! * **Event-driven front half** — a single reactor thread (hand-rolled
//!   epoll via [`rt::reactor`], poll(2) fallback) owns the non-blocking
//!   listener and every connection's read/write buffers; inline ops
//!   (`ping`/`metrics`/`slow_traces`) are answered directly on the
//!   event loop, never behind a worker.
//! * **Admission control** — a sharded two-lane pool with work
//!   stealing. Cold checks admit against `queue_capacity` and shed
//!   first; warm (cache-classified) checks admit against the larger
//!   `fast_queue_capacity`, so cheap lookups are not starved or shed
//!   behind cold compiles. Past either bound the daemon answers
//!   `overloaded` immediately (HTTP-429 style) instead of queuing
//!   unboundedly; memory stays bounded under any offered load.
//! * **Analysis cache** ([`cache`]) — content-addressed sessions:
//!   repeat (or reformatted) programs skip parse/lower/`Analyses::build`
//!   and land on warmed `By` memo tables, going straight to
//!   reach/slice/solve. Each session's per-cluster verdict memo is the
//!   daemon's only verdict store: a repeat whose every cluster passes
//!   the certificate gate from the memo is served `warm`, with no
//!   check run; the [`journal`] persists stable verdicts and refills
//!   the memo on restart.
//! * **Deadlines** — a request-level `deadline_ms` (measured from
//!   admission, so queue wait counts) threads through the existing
//!   [`rt::Budget`] machinery into every solver loop.
//! * **Graceful drain** — shutdown stops accepting, lets queued and
//!   in-flight requests finish, then joins every thread the server ever
//!   spawned: no leaks, no dropped responses.
//! * **Fault isolation** — each check runs on the PR-1 fault-tolerant
//!   driver (panic isolation per cluster), and the worker loop itself is
//!   wrapped in [`rt::catch_unwind_silent`], so a poisoned request
//!   yields an `error` response, never a dead daemon.
//! * **Continuous telemetry** — a sampler thread pushes periodic metric
//!   snapshots into a bounded [`obs::telemetry::MetricsRing`]; request
//!   latency lands in *server-owned* histograms keyed by cache verdict
//!   (a co-resident batch `check` cannot pollute them); requests that
//!   run past [`ServerConfig::slow_threshold`] — or end in
//!   `TIMEOUT`/`INTERNAL`/`MISMATCH` — retain their full span tree in a
//!   bounded slow-trace ring. Both are served over the wire (`op:
//!   "metrics"` / `op: "slow_traces"`), answered inline off the
//!   connection thread so telemetry works even with every worker busy.
//!
//! ```text
//!             ┌───────────┐  try_push   ┌───────────────┐
//!  TCP ──────▶│  reactor  │────────────▶│ shards (N×2)  │──pop/steal──▶ workers (N)
//!  (NDJSON,   │ epoll loop│             │ fast │ cold   │               │ cache lookup
//!  pipelined) │ buffers   │◀─completions┴──────┴────────┘               ▼ session.check
//!             └───────────┘   (+waker)
//! ```

pub mod cache;
pub mod journal;
mod reactor;
pub mod wire;

use blastlite::{
    render_verdicts, CheckerConfig, DriverConfig, Reducer, RetryPolicy, SearchOrder, Session,
};
use cache::{AnalysisCache, CacheStats};
use journal::{Journal, JournalConfig, JournalRecord, JournalStats, ReplayItem, VerdictEntry};
use obs::json::Json;
use obs::telemetry::{prometheus_text, MetricsRing, MetricsSnapshot};
use obs::{Histogram, HistogramSnapshot, SpanRecord};
use rt::reactor::WakeHandle;
use rt::{catch_unwind_silent, panic_payload, CancelToken, FaultPlan};
use std::collections::VecDeque;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on how long the reactor's poll wait (and other periodic
/// loops — worker condvars, the sampler) sleep before re-checking the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:7171`; use port 0 for tests).
    pub addr: String,
    /// Worker threads checking requests (each request runs its clusters
    /// sequentially; concurrency comes from checking *requests* in
    /// parallel).
    pub jobs: usize,
    /// Admission bound for *cold* checks; past it the daemon answers
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Admission bound for the fast lane — checks whose program is
    /// already warm in the analysis cache. Sized generously (cache hits
    /// are cheap and bounded) so pipelined warm traffic is never shed
    /// behind cold checks contending for `queue_capacity`.
    pub fast_queue_capacity: usize,
    /// Analysis-cache bound, in programs.
    pub cache_capacity: usize,
    /// Largest accepted request frame, in bytes.
    pub max_frame_bytes: usize,
    /// Per-cluster wall-clock budget when a request names none.
    pub default_time_budget: Duration,
    /// Deterministic fault injection threaded into every check's driver
    /// (chaos testing; the default plan injects nothing).
    pub faults: FaultPlan,
    /// How often the sampler thread snapshots the metrics into the
    /// time-series ring.
    pub snapshot_every: Duration,
    /// How many periodic snapshots the time-series ring retains.
    pub ring_capacity: usize,
    /// Requests slower than this (admission to response) retain their
    /// span tree in the slow-trace ring, as do requests ending in
    /// `TIMEOUT`/`INTERNAL`/`MISMATCH` or an `error` response
    /// regardless of latency (tail sampling).
    pub slow_threshold: Duration,
    /// How many slow traces the ring retains (oldest evicted first).
    pub slow_capacity: usize,
    /// Durable verdict journal directory (`--journal`). `None` keeps
    /// the daemon memory-only: verdicts stay warm in the session memos
    /// but do not survive a restart.
    pub journal_dir: Option<PathBuf>,
    /// Journal fsync batch: sync after this many appended records.
    pub journal_fsync_every: usize,
    /// Journal segment rotation bound, bytes.
    pub journal_segment_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7171".into(),
            jobs: 1,
            queue_capacity: 64,
            fast_queue_capacity: 4096,
            cache_capacity: 32,
            max_frame_bytes: 4 << 20,
            default_time_budget: CheckerConfig::default().time_budget,
            faults: FaultPlan::default(),
            snapshot_every: Duration::from_secs(1),
            ring_capacity: 120,
            slow_threshold: Duration::from_millis(500),
            slow_capacity: 32,
            journal_dir: None,
            journal_fsync_every: 8,
            journal_segment_bytes: 8 << 20,
        }
    }
}

/// Point-in-time daemon accounting (`--stats`, smoke tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests admitted and processed to any `ok`/`error` response.
    pub requests: u64,
    /// Requests shed by admission control.
    pub overloaded: u64,
    /// Frames rejected before admission (malformed, oversized).
    pub rejected_frames: u64,
    /// Partial frames abandoned by a closing peer.
    pub truncated_frames: u64,
    /// Injected wire-level faults that fired (chaos runs only).
    pub wire_faults: u64,
    /// Panicked service threads restarted by supervision.
    pub supervisor_restarts: u64,
    /// Worker threads currently alive.
    pub workers_alive: u64,
    /// Analysis-cache accounting.
    pub cache: CacheStats,
    /// Responses served `warm`: an analysis-cache hit whose every
    /// cluster came from the verdict memo, no check run.
    pub verdict_hits: u64,
    /// Journal accounting, when a journal is attached.
    pub journal: Option<JournalStats>,
    /// Incremental derivation-graph accounting.
    pub incr: IncrStats,
}

/// Point-in-time incremental-reuse accounting — the derivation graph's
/// hit counters, summed over every `Session::update` and certificate-
/// gated check this daemon ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrStats {
    /// Functions whose structural keys survived an edit.
    pub fn_hits: u64,
    /// Per-function reachability fixpoints reused across updates.
    pub cfa_reused: u64,
    /// Per-function mod/write-set fixpoints reused across updates.
    pub fixpoint_reused: u64,
    /// Clusters invalidated by edits (their dependency set changed).
    pub invalidated_clusters: u64,
    /// Cluster verdicts reused after their certificate re-validated.
    pub verdict_reused: u64,
    /// Reuse candidates the certificate gate rejected (each fell back
    /// to a cold re-check).
    pub cert_rejected: u64,
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} connection(s), {} request(s), {} overloaded, {} rejected frame(s), \
             cache {}/{} entries: {} hit(s) / {} miss(es) ({:.0}% hit rate), {} eviction(s), \
             {} warm hit(s)",
            self.connections,
            self.requests,
            self.overloaded,
            self.rejected_frames,
            self.cache.len,
            self.cache.capacity,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.evictions,
            self.verdict_hits,
        )?;
        if let Some(j) = &self.journal {
            write!(
                f,
                ", journal {} appended / {} recovered / {} rejected / {} torn",
                j.appended, j.recovered, j.rejected, j.torn,
            )?;
        }
        Ok(())
    }
}

/// One tail-sampled request: a request that ran past the slow
/// threshold (or ended badly) with its complete span tree retained.
#[derive(Debug, Clone)]
pub struct SlowTrace {
    /// The request's correlation id.
    pub id: String,
    /// Why it was retained: `latency`, `verdict:<label>`, or `error`.
    pub reason: String,
    /// Admission-to-response wall time, microseconds.
    pub wall_us: u64,
    /// Per-cluster verdict labels (empty for `error` responses).
    pub verdicts: Vec<String>,
    /// The request's span tree (the `request` root plus everything the
    /// driver and checker opened under it).
    pub spans: Vec<SpanRecord>,
}

/// Renders slow traces as a `pathslice-slowtraces/v1` document.
pub fn slow_traces_json(traces: &[SlowTrace]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("pathslice-slowtraces/v1".into())),
        (
            "traces".into(),
            Json::Arr(
                traces
                    .iter()
                    .map(|t| {
                        // Reuse the canonical span serialization and lift
                        // its `spans` array into this document.
                        let spans_doc = Json::parse(&obs::spans_to_json(&t.spans))
                            .expect("spans_to_json emits valid JSON");
                        Json::Obj(vec![
                            ("id".into(), Json::Str(t.id.clone())),
                            ("reason".into(), Json::Str(t.reason.clone())),
                            ("wall_us".into(), Json::Num(t.wall_us as i64)),
                            (
                                "verdicts".into(),
                                Json::Arr(
                                    t.verdicts.iter().map(|v| Json::Str(v.clone())).collect(),
                                ),
                            ),
                            (
                                "spans".into(),
                                spans_doc
                                    .field("spans")
                                    .cloned()
                                    .unwrap_or(Json::Arr(vec![])),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Server-owned telemetry: latency histograms keyed by phase and cache
/// verdict, the periodic snapshot ring, and the slow-trace ring. All of
/// it is scoped to this server instance — nothing reads the
/// process-global `obs` registries, so batch work in the same process
/// (or a second server) cannot pollute what this daemon reports.
struct Telemetry {
    /// Queue wait, admission → worker pickup.
    queue_us: Histogram,
    /// Full request latency for analysis-cache hits.
    request_us_hit: Histogram,
    /// Full request latency for analysis-cache misses.
    request_us_miss: Histogram,
    /// Full request latency for warm responses (every cluster served
    /// from the verdict memo).
    request_us_warm: Histogram,
    /// Check phase alone (driver run, excluding queue/render).
    check_us: Histogram,
    ring: Mutex<MetricsRing>,
    slow: Mutex<VecDeque<SlowTrace>>,
    slow_retained: AtomicU64,
    slow_dropped: AtomicU64,
}

impl Telemetry {
    fn new(config: &ServerConfig) -> Telemetry {
        Telemetry {
            queue_us: Histogram::new(),
            request_us_hit: Histogram::new(),
            request_us_miss: Histogram::new(),
            request_us_warm: Histogram::new(),
            check_us: Histogram::new(),
            ring: Mutex::new(MetricsRing::new(config.ring_capacity)),
            slow: Mutex::new(VecDeque::new()),
            slow_retained: AtomicU64::new(0),
            slow_dropped: AtomicU64::new(0),
        }
    }

    /// Histogram states, keyed by their metric names.
    fn histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        BTreeMap::from([
            ("server.queue_us".to_owned(), self.queue_us.snapshot()),
            (
                "server.request_us_hit".to_owned(),
                self.request_us_hit.snapshot(),
            ),
            (
                "server.request_us_miss".to_owned(),
                self.request_us_miss.snapshot(),
            ),
            (
                "server.request_us_warm".to_owned(),
                self.request_us_warm.snapshot(),
            ),
            ("server.check_us".to_owned(), self.check_us.snapshot()),
        ])
    }

    fn retain_slow(&self, trace: SlowTrace, capacity: usize) {
        self.slow_retained.fetch_add(1, Ordering::Relaxed);
        let mut ring = lock(&self.slow);
        if ring.len() >= capacity.max(1) {
            ring.pop_front();
            self.slow_dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(trace);
    }
}

/// One admitted request travelling from the reactor to a worker. The
/// response travels back as a [`Completion`] tagged with the reactor
/// connection token — there is no per-request channel, which is what
/// lets one connection carry many in-flight checks (wire/v2).
struct Job {
    request: wire::Request,
    admitted: Instant,
    deadline: Option<Instant>,
    /// Reactor token of the connection that admitted this check.
    conn: u64,
    /// Wire revision the request arrived under; the response echoes it.
    version: wire::WireVersion,
}

/// A finished check on its way back from a worker to the reactor.
struct Completion {
    conn: u64,
    version: wire::WireVersion,
    response: wire::Response,
}

/// Admission priority of a check (the lane it queues in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Program already warm in the analysis cache: bounded work, large
    /// admission budget.
    Fast,
    /// Unknown program: a full parse/analyse/check, shed first.
    Cold,
}

/// Why [`Shards::try_push`] refused a job. Either way the caller sheds
/// the request with `overloaded`; the job itself is consumed.
enum PushError {
    /// The job's lane is at capacity — shed the request.
    Full,
    /// Draining for shutdown — shed the request.
    Closed,
}

/// The sharded two-lane admission pool: one shard per worker, each with
/// a fast and a cold deque. A worker pops its own shard front-first and
/// steals from the *back* of other shards; the fast lane is always
/// scanned before the cold lane, so warm lookups never starve behind
/// cold checks — the fairness half of priority-aware shedding (the
/// other half is the per-lane capacity in [`Shards::try_push`]).
struct Shards {
    shards: Vec<ShardLanes>,
    /// Lane occupancy and the closed flag; per-deque locks stay fine-
    /// grained so a steal scan never serializes behind a push.
    state: Mutex<ShardState>,
    ready: Condvar,
    fast_capacity: usize,
    cold_capacity: usize,
}

struct ShardLanes {
    fast: Mutex<VecDeque<Job>>,
    cold: Mutex<VecDeque<Job>>,
}

struct ShardState {
    queued_fast: usize,
    queued_cold: usize,
    closed: bool,
}

impl Shards {
    fn new(shards: usize, fast_capacity: usize, cold_capacity: usize) -> Shards {
        Shards {
            shards: (0..shards.max(1))
                .map(|_| ShardLanes {
                    fast: Mutex::new(VecDeque::new()),
                    cold: Mutex::new(VecDeque::new()),
                })
                .collect(),
            state: Mutex::new(ShardState {
                queued_fast: 0,
                queued_cold: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            fast_capacity: fast_capacity.max(1),
            cold_capacity: cold_capacity.max(1),
        }
    }

    /// Admits `job` into its lane on the hinted shard, or returns it
    /// with the reason it was shed. Never blocks: backpressure is the
    /// *caller's* immediate `overloaded` response, not a hidden wait.
    fn try_push(&self, job: Job, tier: Tier, hint: usize) -> Result<(), PushError> {
        {
            let mut state = lock(&self.state);
            if state.closed {
                return Err(PushError::Closed);
            }
            match tier {
                Tier::Fast => {
                    if state.queued_fast >= self.fast_capacity {
                        return Err(PushError::Full);
                    }
                    state.queued_fast += 1;
                }
                Tier::Cold => {
                    if state.queued_cold >= self.cold_capacity {
                        return Err(PushError::Full);
                    }
                    state.queued_cold += 1;
                }
            }
        }
        let shard = &self.shards[hint % self.shards.len()];
        let lane = match tier {
            Tier::Fast => &shard.fast,
            Tier::Cold => &shard.cold,
        };
        lock(lane).push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job for worker `home`: own shard first (FIFO
    /// front), then a steal sweep over the other shards (LIFO back —
    /// stolen work is the *coldest* queued, keeping each shard's front
    /// warm for its owner). `None` once the pool is closed *and*
    /// drained, so graceful drain finishes admitted work.
    fn pop(&self, home: usize) -> Option<Job> {
        loop {
            {
                let state = lock(&self.state);
                if state.queued_fast == 0 && state.queued_cold == 0 {
                    if state.closed {
                        return None;
                    }
                    // Occupancy is published before the job lands in
                    // its deque, so a timed wait (not a bare one)
                    // guards against the scan racing a push.
                    let _ = self.ready.wait_timeout(state, POLL_INTERVAL);
                    continue;
                }
            }
            if let Some(job) = self.scan(home, Tier::Fast) {
                return Some(job);
            }
            if let Some(job) = self.scan(home, Tier::Cold) {
                return Some(job);
            }
            // Counted but not yet landed (push in flight): retry.
            std::thread::yield_now();
        }
    }

    fn scan(&self, home: usize, tier: Tier) -> Option<Job> {
        let n = self.shards.len();
        for i in 0..n {
            let shard = &self.shards[(home + i) % n];
            let lane = match tier {
                Tier::Fast => &shard.fast,
                Tier::Cold => &shard.cold,
            };
            let job = {
                let mut q = lock(lane);
                if i == 0 {
                    q.pop_front()
                } else {
                    q.pop_back()
                }
            };
            if let Some(job) = job {
                let mut state = lock(&self.state);
                match tier {
                    Tier::Fast => state.queued_fast -= 1,
                    Tier::Cold => state.queued_cold -= 1,
                }
                return Some(job);
            }
        }
        None
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }

    fn len(&self) -> usize {
        let state = lock(&self.state);
        state.queued_fast + state.queued_cold
    }
}

/// State shared by the reactor, the workers, and the sampler.
struct Shared {
    config: ServerConfig,
    shards: Shards,
    /// Finished checks waiting for the reactor to write them out;
    /// workers push here and ring `wake`.
    completions: Mutex<VecDeque<Completion>>,
    /// Wakes the reactor out of its poll wait when a completion lands.
    wake: WakeHandle,
    /// Checks admitted but not yet answered (shed requests never count).
    /// The drain barrier: the reactor exits only once this is zero.
    inflight: AtomicUsize,
    /// Raw request text (hashed) → content key, filled by workers after
    /// each compile. Lets the reactor classify repeat programs as
    /// fast-lane without parsing anything on the event loop.
    key_memo: Mutex<HashMap<u64, u64>>,
    cache: AnalysisCache,
    /// The attached journal, `None` for memory-only serving. Appends
    /// are serialized under the mutex; requests never read it (startup
    /// replays it into the session memos).
    journal: Option<Mutex<Journal>>,
    shutdown: CancelToken,
    telemetry: Telemetry,
    connections: AtomicU64,
    requests: AtomicU64,
    overloaded: AtomicU64,
    rejected_frames: AtomicU64,
    truncated_frames: AtomicU64,
    wire_faults: AtomicU64,
    supervisor_restarts: AtomicU64,
    workers_alive: AtomicUsize,
    /// Journal replayed (trivially true without one). With
    /// `workers_alive > 0` this is the `ping` readiness answer.
    replayed: AtomicBool,
    journal_recovered: AtomicU64,
    journal_rejected: AtomicU64,
    verdict_hits: AtomicU64,
    incr_fn_hits: AtomicU64,
    incr_cfa_reused: AtomicU64,
    incr_fixpoint_reused: AtomicU64,
    incr_invalidated: AtomicU64,
    incr_verdict_reused: AtomicU64,
    incr_cert_rejected: AtomicU64,
    conn_seq: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            rejected_frames: self.rejected_frames.load(Ordering::Relaxed),
            truncated_frames: self.truncated_frames.load(Ordering::Relaxed),
            wire_faults: self.wire_faults.load(Ordering::Relaxed),
            supervisor_restarts: self.supervisor_restarts.load(Ordering::Relaxed),
            workers_alive: self.workers_alive.load(Ordering::Relaxed) as u64,
            cache: self.cache.stats(),
            verdict_hits: self.verdict_hits.load(Ordering::Relaxed),
            journal: self.journal_stats(),
            incr: IncrStats {
                fn_hits: self.incr_fn_hits.load(Ordering::Relaxed),
                cfa_reused: self.incr_cfa_reused.load(Ordering::Relaxed),
                fixpoint_reused: self.incr_fixpoint_reused.load(Ordering::Relaxed),
                invalidated_clusters: self.incr_invalidated.load(Ordering::Relaxed),
                verdict_reused: self.incr_verdict_reused.load(Ordering::Relaxed),
                cert_rejected: self.incr_cert_rejected.load(Ordering::Relaxed),
            },
        }
    }

    /// Journal accounting with the recovery-gate counters merged in
    /// (the journal layer sees torn records; only the gate knows which
    /// intact ones validated).
    fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|j| {
            let mut s = lock(j).stats();
            s.recovered = self.journal_recovered.load(Ordering::Relaxed);
            s.rejected = self.journal_rejected.load(Ordering::Relaxed);
            s
        })
    }

    /// `ping` readiness: recovered state replayed and someone to serve.
    fn ready(&self) -> bool {
        self.replayed.load(Ordering::Relaxed) && self.workers_alive.load(Ordering::Relaxed) > 0
    }

    /// The server-scoped counters, as a name → value map (the basis of
    /// both the snapshot ring and the Prometheus exposition).
    fn scoped_counters(&self) -> BTreeMap<String, u64> {
        let s = self.stats();
        let mut counters = BTreeMap::from([
            ("server.connections".to_owned(), s.connections),
            ("server.requests".to_owned(), s.requests),
            ("server.overloaded".to_owned(), s.overloaded),
            ("server.frames_rejected".to_owned(), s.rejected_frames),
            ("server.frames_truncated".to_owned(), s.truncated_frames),
            ("server.wire_faults".to_owned(), s.wire_faults),
            (
                "server.supervisor_restarts".to_owned(),
                s.supervisor_restarts,
            ),
            ("server.workers_alive".to_owned(), s.workers_alive),
            ("server.cache_hits".to_owned(), s.cache.hits),
            ("server.cache_misses".to_owned(), s.cache.misses),
            ("server.cache_updates".to_owned(), s.cache.updates),
            ("server.cache_evictions".to_owned(), s.cache.evictions),
            ("server.cache_len".to_owned(), s.cache.len as u64),
            ("server.verdict_hits".to_owned(), s.verdict_hits),
            ("incr.fn_hits".to_owned(), s.incr.fn_hits),
            ("incr.cfa_reused".to_owned(), s.incr.cfa_reused),
            ("incr.fixpoint_reused".to_owned(), s.incr.fixpoint_reused),
            (
                "incr.invalidated_clusters".to_owned(),
                s.incr.invalidated_clusters,
            ),
            ("incr.verdict_reused".to_owned(), s.incr.verdict_reused),
            ("incr.cert_rejected".to_owned(), s.incr.cert_rejected),
            (
                "server.slow_retained".to_owned(),
                self.telemetry.slow_retained.load(Ordering::Relaxed),
            ),
            (
                "server.slow_dropped".to_owned(),
                self.telemetry.slow_dropped.load(Ordering::Relaxed),
            ),
        ]);
        if let Some(j) = &s.journal {
            counters.insert("server.journal_appended".to_owned(), j.appended);
            counters.insert("server.journal_append_faults".to_owned(), j.append_faults);
            counters.insert("server.journal_recovered".to_owned(), j.recovered);
            counters.insert("server.journal_rejected".to_owned(), j.rejected);
            counters.insert("server.journal_torn".to_owned(), j.torn);
            counters.insert("server.journal_segments".to_owned(), j.segments);
        }
        counters
    }

    /// One periodic observation for the time-series ring.
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            at_us: obs::now_us(),
            counters: self.scoped_counters(),
            histograms: self.telemetry.histograms(),
        }
    }

    /// The Prometheus text exposition of the scoped metrics.
    fn exposition(&self) -> String {
        prometheus_text(&self.scoped_counters(), &self.telemetry.histograms())
    }

    /// Classifies a check for admission: [`Tier::Fast`] when the raw
    /// request text maps (via the worker-maintained memo) to a content
    /// key that is warm in the analysis cache, [`Tier::Cold`] otherwise.
    /// Runs on the reactor, so it must not parse the program — one hash
    /// and two bounded map probes, neither of which touches cache
    /// accounting.
    fn classify(&self, req: &wire::Request) -> Tier {
        let raw = journal::content_hash(req.source.as_bytes());
        let Some(key) = lock(&self.key_memo).get(&raw).copied() else {
            return Tier::Cold;
        };
        if self.cache.contains(key) {
            Tier::Fast
        } else {
            Tier::Cold
        }
    }

    /// Records `source` → `key` for [`Shared::classify`]. Bounded by
    /// wholesale reset: the memo is a hint, and a rare refill is
    /// cheaper than LRU bookkeeping on every request.
    fn remember_key(&self, source: &str, key: u64) {
        const MEMO_BOUND: usize = 8192;
        let raw = journal::content_hash(source.as_bytes());
        let mut memo = lock(&self.key_memo);
        if memo.len() >= MEMO_BOUND {
            memo.clear();
        }
        memo.insert(raw, key);
    }

    /// Hands a finished check back to the reactor.
    fn complete(&self, completion: Completion) {
        lock(&self.completions).push_back(completion);
        self.wake.wake();
    }

    /// Answers one non-check op. These bypass the admission pool on
    /// purpose — the reactor answers them inline, so telemetry and
    /// health probes stay reachable even with every worker wedged on
    /// slow checks.
    fn inline_response(&self, incoming: wire::Incoming) -> wire::Response {
        match incoming {
            wire::Incoming::Metrics { id } => {
                let series = lock(&self.telemetry.ring).to_json();
                wire::Response::Metrics {
                    id,
                    exposition: self.exposition(),
                    series,
                }
            }
            wire::Incoming::SlowTraces { id } => {
                let traces: Vec<SlowTrace> = lock(&self.telemetry.slow).iter().cloned().collect();
                wire::Response::SlowTraces {
                    id,
                    traces: slow_traces_json(&traces),
                }
            }
            wire::Incoming::Ping { id } => wire::Response::Health {
                id,
                ready: self.ready(),
                workers_alive: self.workers_alive.load(Ordering::Relaxed) as u64,
                journal: self.journal_stats().map(|j| journal_stats_json(&j)),
            },
            wire::Incoming::Check(req) => wire::Response::Error {
                id: req.id,
                error: "internal: check is not an inline op".into(),
            },
        }
    }
}

/// A running daemon. Obtain with [`Server::start`]; stop with
/// [`Server::shutdown`] (graceful drain) — dropping without shutdown
/// leaves detached threads running until process exit.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, replays and compacts the journal (when one
    /// is attached) through the certificate-gated recovery, then starts
    /// the supervised reactor, sampler, and worker threads.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener, building the poller/waker
    /// pair, or opening the journal directory, a failure to spawn *any*
    /// worker, or a failure to spawn the reactor. (A subset of workers
    /// failing, or the sampler failing, degrades capacity/telemetry
    /// without refusing to start.)
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let waker = rt::reactor::Waker::new()?;
        let jobs = config.jobs.max(1);
        // The daemon is a telemetry surface: spans must record for the
        // slow-trace ring to hold anything, so the process-wide switch
        // goes on for the daemon's lifetime. (Batch tools keep their
        // off-by-default discipline; this is a serve-only policy.)
        obs::set_enabled(true);

        // Journal recovery runs before the listener starts accepting:
        // a `ping` can race the very first accept, so readiness is
        // answered from the `replayed` flag, which is only set once
        // every recovered verdict has passed the certificate gate.
        let cache = AnalysisCache::new(config.cache_capacity);
        let mut recovered = 0;
        let mut rejected = 0;
        let journal = match &config.journal_dir {
            Some(dir) => {
                let mut journal = Journal::open(JournalConfig {
                    dir: dir.clone(),
                    fsync_every: config.journal_fsync_every,
                    segment_max_bytes: config.journal_segment_bytes,
                    // One fault plan per daemon: the serve-level chaos
                    // plan governs driver, wire, and journal alike.
                    faults: config.faults.clone(),
                })?;
                (recovered, rejected) = recover_journal(&mut journal, &cache);
                Some(Mutex::new(journal))
            }
            None => None,
        };

        let shared = Arc::new(Shared {
            shards: Shards::new(jobs, config.fast_queue_capacity, config.queue_capacity),
            completions: Mutex::new(VecDeque::new()),
            wake: waker.handle(),
            inflight: AtomicUsize::new(0),
            key_memo: Mutex::new(HashMap::new()),
            cache,
            journal,
            shutdown: CancelToken::new(),
            telemetry: Telemetry::new(&config),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            rejected_frames: AtomicU64::new(0),
            truncated_frames: AtomicU64::new(0),
            wire_faults: AtomicU64::new(0),
            supervisor_restarts: AtomicU64::new(0),
            workers_alive: AtomicUsize::new(0),
            replayed: AtomicBool::new(true),
            journal_recovered: AtomicU64::new(recovered),
            journal_rejected: AtomicU64::new(rejected),
            verdict_hits: AtomicU64::new(0),
            incr_fn_hits: AtomicU64::new(0),
            incr_cfa_reused: AtomicU64::new(0),
            incr_fixpoint_reused: AtomicU64::new(0),
            incr_invalidated: AtomicU64::new(0),
            incr_verdict_reused: AtomicU64::new(0),
            incr_cert_rejected: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            config,
        });

        // Thread exhaustion degrades capacity, it does not kill the
        // daemon: any worker is enough to serve, and a missing sampler
        // only loses periodic snapshots. Only zero workers — or no
        // reactor — is fatal (nothing would ever be served).
        let workers: Vec<JoinHandle<()>> = (0..jobs)
            .filter_map(|i| {
                let shared = shared.clone();
                // Counted before the thread exists, so a `ping` sent the
                // moment `start` returns sees every spawned worker; a
                // failed spawn drops the guard with the closure.
                let mut alive = Some(Alive::new(&shared));
                std::thread::Builder::new()
                    .name(format!("pathslice-worker-{i}"))
                    .spawn(move || {
                        supervised(&shared, "worker", || {
                            // A restart after a panic counts itself back in.
                            let _alive = alive.take().unwrap_or_else(|| Alive::new(&shared));
                            worker_loop(&shared, i)
                        })
                    })
                    .ok()
            })
            .collect();
        if workers.is_empty() {
            shared.shards.close();
            return Err(std::io::Error::other("could not spawn any worker thread"));
        }

        let reactor = {
            let owned = shared.clone();
            std::thread::Builder::new()
                .name("pathslice-reactor".into())
                .spawn(move || {
                    supervised(&owned, "reactor", || {
                        reactor::reactor_loop(&listener, &owned, &waker)
                    })
                })
                .map_err(|e| {
                    shared.shutdown.cancel();
                    shared.shards.close();
                    std::io::Error::other(format!("could not spawn the reactor thread: {e}"))
                })?
        };

        let sampler = {
            let owned = shared.clone();
            std::thread::Builder::new()
                .name("pathslice-sampler".into())
                .spawn(move || supervised(&owned, "sampler", || sampler_loop(&owned)))
                .ok()
        };

        Ok(Server {
            shared,
            addr,
            reactor: Some(reactor),
            sampler,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live accounting.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Requests currently queued (not yet picked up by a worker).
    pub fn queued(&self) -> usize {
        self.shared.shards.len()
    }

    /// The tail-sampled slow-request ring, oldest first (a copy; the
    /// ring keeps accumulating).
    pub fn slow_traces(&self) -> Vec<SlowTrace> {
        lock(&self.shared.telemetry.slow).iter().cloned().collect()
    }

    /// The Prometheus text exposition of the server-scoped metrics
    /// (what the `metrics` wire request answers).
    pub fn metrics_exposition(&self) -> String {
        self.shared.exposition()
    }

    /// Graceful drain: stop accepting, let every admitted request finish
    /// and its response flush, then join all threads. Returns the final
    /// accounting.
    pub fn shutdown(self) -> ServerStats {
        self.shutdown_full().0
    }

    /// [`Server::shutdown`], also handing back the slow-trace ring (for
    /// the CLI's SIGINT dump — after the drain, so in-flight requests
    /// that went slow are included).
    pub fn shutdown_full(mut self) -> (ServerStats, Vec<SlowTrace>) {
        self.shared.shutdown.cancel();
        self.shared.wake.wake();
        // The reactor stops accepting and parsing, waits for every
        // admitted check's completion to flush, then exits; joining it
        // first guarantees no new pushes after the pool closes.
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        self.shared.shards.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        if let Some(j) = &self.shared.journal {
            lock(j).flush();
        }
        let slow = lock(&self.shared.telemetry.slow).iter().cloned().collect();
        (self.shared.stats(), slow)
    }

    /// Simulated `kill -9` for restart drills and chaos tests: stops
    /// the threads at their next poll tick and **abandons** everything
    /// a real crash would abandon — no drain, no journal flush or
    /// fsync, no compaction, no joins. In-flight requests get whatever
    /// the wire had already carried. The final stats snapshot is
    /// returned for the drill's accounting; the journal directory is
    /// left exactly as the "crash" found it.
    pub fn crash(self) -> ServerStats {
        let stats = self.shared.stats();
        self.shared.shutdown.cancel();
        self.shared.wake.wake();
        self.shared.shards.close();
        // The journal's directory lock must go the way the OS reaps a
        // real SIGKILL victim's resources: released without any flush.
        // (A cross-process crash needs no help — the stale-pid reclaim
        // handles it — but in-process drills restart under the same pid,
        // where the lock would otherwise read as live.)
        if let Some(j) = &self.shared.journal {
            lock(j).unlock();
        }
        // Leak the handles and the shared state: nothing gets to run
        // cleanup, exactly like a SIGKILL. The threads observe the
        // cancelled token and exit on their own; the leaked `Journal`
        // never runs its flushing `Drop`.
        std::mem::forget(self);
        stats
    }
}

/// Runs `body` under supervision: a panic is caught, counted, and the
/// thread's role restarts after a capped exponential backoff instead of
/// dying silently. A clean return (graceful drain) ends supervision.
fn supervised(shared: &Arc<Shared>, role: &str, mut body: impl FnMut()) {
    let mut backoff = Duration::from_millis(10);
    loop {
        match catch_unwind_silent(&mut body) {
            Ok(()) => return,
            Err(payload) => {
                shared.supervisor_restarts.fetch_add(1, Ordering::Relaxed);
                obs::counter("server.supervisor_restarts").inc();
                eprintln!(
                    "pathslice-serve: {role} thread panicked ({}); restarting in {:?}",
                    panic_payload(&*payload),
                    backoff
                );
                if shared.shutdown.is_cancelled() {
                    return;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
    }
}

/// Replays the journal through the certificate gate and compacts the
/// survivors. Returns `(recovered, rejected)`; torn-line accounting
/// lives inside the journal.
///
/// **The recovery invariant: no unvalidated verdict is ever served from
/// a recovered journal.** Every intact record passes [`admit`]; anything
/// less downgrades to a plain miss: the verdict is simply re-derived on
/// first request, which costs latency, never soundness.
fn recover_journal(journal: &mut Journal, cache: &AnalysisCache) -> (u64, u64) {
    let mut recovered = 0;
    let mut rejected = 0;
    let mut live: Vec<JournalRecord> = Vec::new();
    for item in journal.replay() {
        let record = match item {
            ReplayItem::Intact(record) => record,
            ReplayItem::Torn(_) => continue, // counted by the journal
        };
        let corrupt = journal.replay_corrupts(record.key);
        match admit(&record, corrupt) {
            Ok(session) => {
                recovered += 1;
                obs::counter("journal.recovered").inc();
                cache.admit(record.key, Arc::new(session));
                live.push(record);
            }
            Err(_rejection) => {
                rejected += 1;
                obs::counter("journal.rejected").inc();
            }
        }
    }
    // Compaction garbage-collects damage: only gate-approved records
    // are carried forward, so a torn tail or poisoned record costs one
    // recovery, not one per restart forever.
    journal.compact(&live);
    (recovered, rejected)
}

/// The certificate gate for a journaled verdict, which this daemon did
/// not derive. The entry passes [`certify::certify`] — its trace
/// recompiles to the record's key, every served cluster name, label,
/// rendered line, and the exit code match the trace's claims, and every
/// certificate re-validates — and its clusters are rebuilt from the
/// certified trace into the recompiled session's verdict memo, under
/// the record's fingerprint. Nothing in the entry is trusted as
/// received except the effort columns (refinements, wall time), which
/// no certificate covers. On `Ok` the session may be admitted to the
/// analysis cache; on `Err` nothing was stored anywhere.
fn admit(record: &JournalRecord, corrupt: bool) -> Result<Session, certify::Rejection> {
    let entry = &record.entry;
    let clusters: Vec<(&str, &str)> = entry
        .clusters
        .iter()
        .map(|c| (c.func.as_str(), c.verdict.as_str()))
        .collect();
    let served = certify::Served {
        exit: entry.exit,
        render: &entry.render,
        clusters: &clusters,
    };
    let certified = certify::certify(
        &entry.trace_json,
        "<journal>",
        &certify::Expect {
            key: Some(record.key),
            served: Some(served),
            corrupt,
        },
    )?;
    let effort: Vec<(usize, Duration)> = entry
        .clusters
        .iter()
        .map(|c| (c.refinements as usize, Duration::from_micros(c.wall_us)))
        .collect();
    let reports = certified.cluster_reports(&effort)?;
    certified
        .session
        .store_certified(record.fingerprint, reports);
    Ok(certified.session)
}

/// Pushes one metrics snapshot into the ring every
/// [`ServerConfig::snapshot_every`], polling the shutdown flag between
/// sleeps. A final snapshot lands on the way out so the series covers
/// the drain.
fn sampler_loop(shared: &Arc<Shared>) {
    loop {
        lock(&shared.telemetry.ring).push(shared.snapshot());
        let mut slept = Duration::ZERO;
        while slept < shared.config.snapshot_every {
            if shared.shutdown.is_cancelled() {
                lock(&shared.telemetry.ring).push(shared.snapshot());
                return;
            }
            let step = POLL_INTERVAL.min(shared.config.snapshot_every - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

/// Renders journal accounting for the `health` response and the stats
/// payload.
fn journal_stats_json(j: &JournalStats) -> Json {
    Json::Obj(vec![
        ("appended".into(), Json::Num(j.appended as i64)),
        ("append_faults".into(), Json::Num(j.append_faults as i64)),
        ("recovered".into(), Json::Num(j.recovered as i64)),
        ("rejected".into(), Json::Num(j.rejected as i64)),
        ("torn".into(), Json::Num(j.torn as i64)),
        ("segments".into(), Json::Num(j.segments as i64)),
    ])
}

/// One worker's share of `workers_alive`, released on drop. The guard
/// drops during the unwind that supervision catches, so a panicked
/// worker leaves the count until its restart — `ping` readiness counts
/// serving workers, not spawned threads.
struct Alive(Arc<Shared>);

impl Alive {
    fn new(shared: &Arc<Shared>) -> Alive {
        shared.workers_alive.fetch_add(1, Ordering::Relaxed);
        Alive(shared.clone())
    }
}

impl Drop for Alive {
    fn drop(&mut self) {
        self.0.workers_alive.fetch_sub(1, Ordering::Relaxed);
    }
}

fn worker_loop(shared: &Arc<Shared>, home: usize) {
    while let Some(job) = shared.shards.pop(home) {
        // Tee the request's span tree out of the thread-local buffers:
        // the worker has no span open outside `process`, so everything
        // captured belongs to this request. A panic discards the
        // partial capture (the trace of a poisoned request is gone, the
        // daemon is not).
        let (response, spans) = match catch_unwind_silent(|| obs::capture(|| process(&job, shared)))
        {
            Ok((response, spans)) => (response, spans),
            Err(payload) => (
                wire::Response::Error {
                    id: job.request.id.clone(),
                    error: format!("internal error: {}", panic_payload(&*payload)),
                },
                Vec::new(),
            ),
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        obs::counter("server.requests").inc();
        let wall_us = job.admitted.elapsed().as_micros() as u64;
        if let Some(reason) = slow_reason(&response, wall_us, shared.config.slow_threshold) {
            let verdicts = match &response {
                wire::Response::Ok { clusters, .. } => {
                    clusters.iter().map(|c| c.verdict.clone()).collect()
                }
                _ => Vec::new(),
            };
            shared.telemetry.retain_slow(
                SlowTrace {
                    id: job.request.id.clone(),
                    reason,
                    wall_us,
                    verdicts,
                    spans,
                },
                shared.config.slow_capacity,
            );
        }
        shared.complete(Completion {
            conn: job.conn,
            version: job.version,
            response,
        });
    }
}

/// Decides whether a finished request is tail-sampled into the
/// slow-trace ring, and why: over the latency threshold, a bad verdict
/// (`TIMEOUT`/`INTERNAL`/`MISMATCH`), or an `error` response.
fn slow_reason(response: &wire::Response, wall_us: u64, threshold: Duration) -> Option<String> {
    if wall_us > threshold.as_micros() as u64 {
        return Some("latency".into());
    }
    match response {
        wire::Response::Ok { clusters, .. } => clusters
            .iter()
            .find(|c| {
                c.verdict.starts_with("TIMEOUT")
                    || c.verdict.starts_with("INTERNAL")
                    || c.verdict.starts_with("MISMATCH")
            })
            .map(|c| format!("verdict:{}", c.verdict)),
        wire::Response::Error { .. } => Some("error".into()),
        _ => None,
    }
}

/// Checks one admitted request end to end: cache lookup (or compile),
/// driver run under the request deadline, render, optional certificate
/// and stats payloads.
fn process(job: &Job, shared: &Shared) -> wire::Response {
    let req = &job.request;
    let _span = obs::span!("request", "id {}", req.id);
    let queue_us = job.admitted.elapsed().as_micros() as u64;
    shared.telemetry.queue_us.record(queue_us);

    let (session, cache_hit, update) = match shared.cache.get_or_update(&req.source, "<request>") {
        Ok(found) => found,
        Err(front_end) => {
            return wire::Response::Error {
                id: req.id.clone(),
                error: front_end,
            }
        }
    };
    if let Some(up) = &update {
        shared
            .incr_fn_hits
            .fetch_add(up.fn_hits as u64, Ordering::Relaxed);
        shared
            .incr_cfa_reused
            .fetch_add(up.reuse.cfa_reused as u64, Ordering::Relaxed);
        shared
            .incr_fixpoint_reused
            .fetch_add(up.reuse.fixpoint_reused as u64, Ordering::Relaxed);
        shared
            .incr_invalidated
            .fetch_add(up.invalidated_clusters as u64, Ordering::Relaxed);
    }
    // Teach the reactor's admission classifier this program's key: the
    // next request with these exact bytes rides the fast lane.
    shared.remember_key(&req.source, session.key());

    let mut config = CheckerConfig {
        reducer: if req.no_slicing {
            Reducer::Identity
        } else {
            Reducer::path_slice()
        },
        time_budget: shared.config.default_time_budget,
        ..CheckerConfig::default()
    };
    if let Some(t) = req.timeout_s {
        config.time_budget = Duration::from_secs_f64(t);
    }
    if req.dfs {
        config.search_order = SearchOrder::Dfs;
    }
    let mut driver = DriverConfig {
        retry: RetryPolicy::retries(req.retries),
        faults: shared.config.faults.clone(),
        deadline: job.deadline,
        ..DriverConfig::sequential()
    };
    if req.validate {
        driver = driver.with_validator(certify::validator(FaultPlan::default()));
    }

    let check_started = Instant::now();
    // The session's verdict memo is the daemon's only verdict store.
    // Each cluster whose stored verdict matches its dependency key and
    // this request's configuration — stored by an earlier request, an
    // edit's predecessor, or journal recovery — is served once its
    // certificate re-validates against the current analyses; only the
    // other clusters re-run.
    let reuse_gate = certify::validator(FaultPlan::default());
    let (report, reuse) = session.check_incremental(config, &driver, Some(&reuse_gate));
    shared
        .incr_verdict_reused
        .fetch_add(reuse.verdict_reused as u64, Ordering::Relaxed);
    shared
        .incr_cert_rejected
        .fetch_add(reuse.cert_rejected as u64, Ordering::Relaxed);
    shared
        .telemetry
        .check_us
        .record(check_started.elapsed().as_micros() as u64);
    let wall_us = job.admitted.elapsed().as_micros() as u64;
    // Warm: the program was resident and no cluster re-ran.
    let warm = cache_hit && reuse.recomputed == 0;
    // Latency keyed by cache verdict: a hit skips parse/lower/build and
    // a warm hit skips the checks too, so the populations have very
    // different shapes — folding them into one histogram would hide
    // regressions in any of them.
    if warm {
        shared.verdict_hits.fetch_add(1, Ordering::Relaxed);
        obs::counter("server.verdict_hits").inc();
        shared.telemetry.request_us_warm.record(wall_us);
    } else if cache_hit {
        shared.telemetry.request_us_hit.record(wall_us);
    } else {
        shared.telemetry.request_us_miss.record(wall_us);
    }

    let clusters: Vec<wire::ClusterVerdict> = report
        .clusters
        .iter()
        .map(|c| wire::ClusterVerdict {
            func: c.cluster.func_name.clone(),
            sites: c.cluster.n_sites as u64,
            verdict: c.cluster.report.outcome.verdict().0,
            refinements: c.cluster.report.refinements as u64,
            wall_us: c.cluster.report.wall.as_micros() as u64,
        })
        .collect();

    let cluster_reports: Vec<blastlite::ClusterReport> =
        report.clusters.iter().map(|c| c.cluster.clone()).collect();
    let (render, exit) = render_verdicts(session.program(), &cluster_reports);

    // Only *stable* complete verdicts (every cluster SAFE or BUG, i.e.
    // exit ≤ 1) are journaled: they carry certificates the recovery
    // gate can re-validate. Timeouts, internal errors, and mismatches
    // are re-derived every time, and a warm verdict is on disk already.
    let append_to = shared.journal.as_ref().filter(|_| exit <= 1 && !warm);
    let trace_json = (req.want_certificate || append_to.is_some()).then(|| {
        certify::to_json(&certify::certify_report(
            session.analyses(),
            &report,
            session.source(),
        ))
    });
    let certificate = if req.want_certificate {
        trace_json
            .as_deref()
            .map(|t| Json::parse(t).expect("certify emits valid JSON"))
    } else {
        None
    };
    if let (Some(journal), Some(trace_json)) = (append_to, trace_json) {
        // Append failures (real or injected) degrade durability, never
        // serving.
        let _ = lock(journal).append(&JournalRecord {
            key: session.key(),
            fingerprint: blastlite::config_fingerprint(&config, &driver),
            entry: VerdictEntry {
                exit,
                render: render.clone(),
                clusters: clusters.clone(),
                trace_json,
            },
        });
    }

    let stats = req.want_stats.then(|| stats_json(shared));

    wire::Response::Ok {
        id: req.id.clone(),
        cache_hit,
        warm,
        exit,
        render,
        clusters,
        wall_us,
        queue_us,
        certificate,
        stats,
    }
}

/// The `stats` payload: server accounting plus the server-owned latency
/// histograms. Everything here is scoped to *this* server instance —
/// the old payload dumped the process-global `obs` counters, which a
/// co-resident batch `check` (or a second server in the same process,
/// as every test binary has) silently inflated.
fn stats_json(shared: &Shared) -> Json {
    let s = shared.stats();
    let latency = shared
        .telemetry
        .histograms()
        .into_iter()
        .map(|(name, h)| {
            (
                name,
                Json::Obj(vec![
                    ("count".into(), Json::Num(h.count as i64)),
                    (
                        "p50_us".into(),
                        Json::Num(h.quantile_interpolated(0.50) as i64),
                    ),
                    (
                        "p95_us".into(),
                        Json::Num(h.quantile_interpolated(0.95) as i64),
                    ),
                    (
                        "p99_us".into(),
                        Json::Num(h.quantile_interpolated(0.99) as i64),
                    ),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        (
            "server".into(),
            Json::Obj(vec![
                ("connections".into(), Json::Num(s.connections as i64)),
                ("requests".into(), Json::Num(s.requests as i64)),
                ("overloaded".into(), Json::Num(s.overloaded as i64)),
                (
                    "rejected_frames".into(),
                    Json::Num(s.rejected_frames as i64),
                ),
                ("cache_hits".into(), Json::Num(s.cache.hits as i64)),
                ("cache_misses".into(), Json::Num(s.cache.misses as i64)),
                (
                    "cache_evictions".into(),
                    Json::Num(s.cache.evictions as i64),
                ),
                ("cache_len".into(), Json::Num(s.cache.len as i64)),
                ("cache_hit_rate".into(), Json::Float(s.cache.hit_rate())),
                (
                    "slow_retained".into(),
                    Json::Num(shared.telemetry.slow_retained.load(Ordering::Relaxed) as i64),
                ),
                ("wire_faults".into(), Json::Num(s.wire_faults as i64)),
                (
                    "supervisor_restarts".into(),
                    Json::Num(s.supervisor_restarts as i64),
                ),
                ("workers_alive".into(), Json::Num(s.workers_alive as i64)),
                ("verdict_hits".into(), Json::Num(s.verdict_hits as i64)),
            ]),
        ),
        (
            "journal".into(),
            match &s.journal {
                Some(j) => journal_stats_json(j),
                None => Json::Null,
            },
        ),
        ("latency".into(), Json::Obj(latency)),
        (
            "telemetry".into(),
            Json::Obj(vec![(
                "snapshots".into(),
                Json::Num(lock(&shared.telemetry.ring).len() as i64),
            )]),
        ),
    ])
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking NDJSON client for one daemon connection (tests, the load
/// generator, scripted drivers).
///
/// By default every transport failure is surfaced immediately — tests
/// rely on exact semantics. [`Client::connect_retrying`] (or
/// [`Client::set_retry`]) opts in to bounded reconnect-and-resend for
/// transient failures (`ECONNREFUSED` while a daemon restarts, a reset
/// mid-drill), which is what the serve_bench restart drill rides
/// through a server crash on. Check requests are idempotent — a resend
/// at worst re-derives (or re-serves) the same verdict — so resending
/// after a transport error is safe.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    retry: u32,
    /// Seed for this client's deterministic backoff jitter.
    jitter_seed: u64,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// First reconnect backoff; doubles per attempt, capped at 500ms.
const RETRY_BACKOFF: Duration = Duration::from_millis(20);

/// Per-process client counter: successive clients get distinct jitter
/// seeds even when they target the same address.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// The jitter seed for the `n`-th client of `addr` in this process.
fn jitter_seed(addr: SocketAddr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.to_string().bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h ^ CLIENT_SEQ
        .fetch_add(1, Ordering::Relaxed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `backoff` stretched by a deterministic jitter in [1.0, 1.5), derived
/// from `(seed, attempt)`. N clients retrying a restarted daemon used
/// to sleep in lockstep and stampede the fresh listener together; the
/// seed spreads them out while keeping every drill run reproducible —
/// no clocks, no global RNG, just the client's identity.
fn jittered(backoff: Duration, seed: u64, attempt: u32) -> Duration {
    let mut h = seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    backoff + backoff.mul_f64((h % 1024) as f64 / 2048.0)
}

impl Client {
    /// Connects to a running daemon. No retry: transport failures
    /// surface immediately.
    ///
    /// # Errors
    ///
    /// I/O errors from the connect.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            addr,
            retry: 0,
            jitter_seed: jitter_seed(addr),
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Connects with up to `attempts` bounded retries on transient
    /// connect failures (refused/reset while a daemon is restarting),
    /// backing off exponentially from 20ms (capped at 500ms) with
    /// deterministic per-client jitter — concurrent clients spread out
    /// instead of stampeding the restarted daemon in lockstep. The
    /// returned client keeps the same retry budget for each
    /// [`Client::request`].
    ///
    /// # Errors
    ///
    /// The last I/O error once the attempts are exhausted.
    pub fn connect_retrying(addr: SocketAddr, attempts: u32) -> std::io::Result<Client> {
        let seed = jitter_seed(addr);
        let mut backoff = RETRY_BACKOFF;
        let mut tried = 0;
        loop {
            match Client::connect(addr) {
                Ok(mut client) => {
                    client.retry = attempts;
                    client.jitter_seed = seed;
                    return Ok(client);
                }
                Err(e) if tried < attempts && transient(&e) => {
                    tried += 1;
                    std::thread::sleep(jittered(backoff, seed, tried));
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sets the per-request retry budget (0 disables — the `--no-retry`
    /// escape hatch).
    pub fn set_retry(&mut self, attempts: u32) {
        self.retry = attempts;
    }

    /// Sends one request and blocks for its response. With a retry
    /// budget, a transport failure (send error, dropped connection,
    /// torn response) reconnects and resends, backing off between
    /// attempts; response *content* (e.g. `overloaded`) is never
    /// retried — backpressure is the caller's to handle.
    ///
    /// # Errors
    ///
    /// A message on I/O failure, connection close, or an unparseable
    /// response, once any retry budget is exhausted.
    pub fn request(&mut self, request: &wire::Request) -> Result<wire::Response, String> {
        let frame = request.to_json();
        let mut backoff = RETRY_BACKOFF;
        let mut tried = 0;
        loop {
            match self.send_raw(&frame) {
                Ok(response) => return Ok(response),
                Err(e) if tried < self.retry => {
                    tried += 1;
                    std::thread::sleep(jittered(backoff, self.jitter_seed, tried));
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                    // Reconnect; a dead daemon just burns the budget.
                    if let Ok(fresh) = Client::connect_retrying(self.addr, self.retry - tried) {
                        self.writer = fresh.writer;
                        self.reader = fresh.reader;
                    }
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Probes daemon readiness (`op: "ping"`).
    ///
    /// # Errors
    ///
    /// As [`Client::request`], plus an unexpected response status.
    pub fn ping(&mut self, id: &str) -> Result<(bool, u64, Option<Json>), String> {
        match self.send_raw(&wire::ping_request_json(id))? {
            wire::Response::Health {
                ready,
                workers_alive,
                journal,
                ..
            } => Ok((ready, workers_alive, journal)),
            other => Err(format!("expected health response, got {other:?}")),
        }
    }

    /// Asks the daemon for its metrics (Prometheus exposition + JSON
    /// time series).
    ///
    /// # Errors
    ///
    /// As [`Client::request`], plus an unexpected response status.
    pub fn metrics(&mut self, id: &str) -> Result<(String, Json), String> {
        match self.send_raw(&wire::metrics_request_json(id))? {
            wire::Response::Metrics {
                exposition, series, ..
            } => Ok((exposition, series)),
            other => Err(format!("expected metrics response, got {other:?}")),
        }
    }

    /// Asks the daemon for its slow-trace ring
    /// (`pathslice-slowtraces/v1`).
    ///
    /// # Errors
    ///
    /// As [`Client::request`], plus an unexpected response status.
    pub fn slow_traces(&mut self, id: &str) -> Result<Json, String> {
        match self.send_raw(&wire::slow_traces_request_json(id))? {
            wire::Response::SlowTraces { traces, .. } => Ok(traces),
            other => Err(format!("expected slow_traces response, got {other:?}")),
        }
    }

    /// Sends one raw frame (malformed-input testing) and blocks for the
    /// response line.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn send_raw(&mut self, frame: &str) -> Result<wire::Response, String> {
        let mut line = frame.to_owned();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.read_response()
    }

    /// Writes one frame **without waiting for the response** — the
    /// pipelining primitive. Under `pathslice-wire/v2` any number of
    /// frames may be in flight on one connection; pair each call with a
    /// later [`Client::read_response`] and correlate by response id
    /// (completions may arrive out of order).
    ///
    /// # Errors
    ///
    /// A message on I/O failure.
    pub fn send_frame(&mut self, frame: &str) -> Result<(), String> {
        let mut line = frame.to_owned();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Writes raw bytes without a frame terminator (truncated-frame
    /// testing).
    ///
    /// # Errors
    ///
    /// A message on I/O failure.
    pub fn send_partial(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Blocks for the next response line.
    ///
    /// # Errors
    ///
    /// A message on I/O failure, connection close, or an unparseable
    /// response.
    pub fn read_response(&mut self) -> Result<wire::Response, String> {
        let mut line = String::new();
        loop {
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("connection closed".into()),
                Ok(_) if line.ends_with('\n') => break,
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        wire::Response::from_json(line.trim_end()).map_err(|e| format!("bad response: {e}"))
    }
}

/// Whether a connect error is worth retrying: the daemon may simply not
/// be listening *yet* (restart drill) or the old socket is mid-teardown.
fn transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::TimedOut
            | ErrorKind::Interrupted
    )
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server(jobs: usize, queue: usize) -> Server {
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs,
            queue_capacity: queue,
            ..ServerConfig::default()
        })
        .expect("bind test server")
    }

    const BUGGY: &str = r#"
        global limit;
        fn main() {
            local amount;
            amount = nondet();
            if (amount > limit) { if (limit == 0) { error(); } }
        }
    "#;

    #[test]
    fn round_trip_bug_verdict_and_cache_hit() {
        let server = test_server(2, 8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut req = wire::Request::new(BUGGY);
        req.id = "first".into();
        let wire::Response::Ok {
            id,
            cache_hit,
            exit,
            render,
            clusters,
            ..
        } = client.request(&req).unwrap()
        else {
            panic!("expected ok");
        };
        assert_eq!(id, "first");
        assert!(!cache_hit);
        assert_eq!(exit, 1);
        assert!(render.contains("BUG"), "{render}");
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].verdict, "BUG");

        req.id = "second".into();
        let wire::Response::Ok { cache_hit, .. } = client.request(&req).unwrap() else {
            panic!("expected ok");
        };
        assert!(cache_hit, "repeat request must hit the analysis cache");

        let stats = server.shutdown();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn malformed_frames_answer_errors_and_daemon_survives() {
        let server = test_server(1, 4);
        let mut client = Client::connect(server.local_addr()).unwrap();
        for frame in ["not json", "{\"schema\":\"wrong/v9\"}", "{}"] {
            let resp = client.send_raw(frame).unwrap();
            assert!(
                matches!(resp, wire::Response::Error { .. }),
                "{frame} → {resp:?}"
            );
        }
        // The same connection still serves a healthy request.
        let resp = client
            .request(&wire::Request::new("global x; fn main() { x = 1; }"))
            .unwrap();
        assert!(matches!(resp, wire::Response::Ok { .. }), "{resp:?}");
        let stats = server.shutdown();
        assert_eq!(stats.rejected_frames, 3);
    }

    #[test]
    fn deadline_in_the_past_times_out_not_hangs() {
        let server = test_server(1, 4);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut req = wire::Request::new(BUGGY);
        req.deadline_ms = Some(0);
        let wire::Response::Ok { clusters, exit, .. } = client.request(&req).unwrap() else {
            panic!("expected ok");
        };
        assert_eq!(exit, 2);
        assert!(
            clusters.iter().all(|c| c.verdict.contains("TIMEOUT")),
            "{clusters:?}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_with_no_traffic_joins_cleanly() {
        let server = test_server(4, 16);
        let stats = server.shutdown();
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn supervised_restarts_a_panicking_body_until_it_returns_cleanly() {
        let server = test_server(1, 4);
        let shared = server.shared.clone();
        let mut panics_left = 2;
        supervised(&shared, "test-role", move || {
            if panics_left > 0 {
                panics_left -= 1;
                panic!("injected supervision panic");
            }
        });
        assert_eq!(server.stats().supervisor_restarts, 2);
        server.shutdown();
    }

    #[test]
    fn supervised_stops_restarting_once_shutdown_is_cancelled() {
        let server = test_server(1, 4);
        let shared = server.shared.clone();
        shared.shutdown.cancel();
        supervised(&shared, "test-role", || panic!("always"));
        // One panic, one restart decision — the cancelled token ends
        // supervision instead of respawning into the drain.
        assert_eq!(server.stats().supervisor_restarts, 1);
        server.shutdown();
    }
}
