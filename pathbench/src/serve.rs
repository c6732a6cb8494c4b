//! What both serve workloads share: the in-process daemon, pipelined
//! wire/v2 connections, the `metrics` scrape, and the per-request
//! accounting.

use crate::harness::{Config, Window};
use crate::oracle;
use crate::stats::quantile;
use obs::HistogramSnapshot;
use server::{wire, Client, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;
use workloads::WorkloadSpec;

/// Starts an in-process daemon with two checker jobs on a free port.
pub fn start(journal: Option<PathBuf>) -> Result<Server, String> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 2,
        journal_dir: journal,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    // The daemon switches tracing on for its slow-trace ring; the
    // benchmark measures with tracing off and turns it on only for the
    // traced window.
    obs::set_enabled(false);
    Ok(server)
}

/// A fresh, empty directory under the run's scratch directory.
pub fn scratch_dir(cfg: &Config, name: &str) -> Result<PathBuf, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = cfg
        .scratch
        .join(format!("{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Opens a wire/v2 connection, split into its sending and receiving
/// halves so that one thread can pace sends while another takes
/// responses as they arrive.
pub fn connect(addr: SocketAddr) -> Result<(Tx, Rx), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("connect: {e}"))?;
    let writer = stream.try_clone().map_err(|e| format!("connect: {e}"))?;
    Ok((
        Tx(writer),
        Rx {
            reader: BufReader::new(stream),
            pending: String::new(),
        },
    ))
}

/// The sending half of a connection.
pub struct Tx(TcpStream);

impl Tx {
    /// Sends a check request without waiting for its response.
    pub fn send(&mut self, request: &wire::Request) -> Result<(), String> {
        let mut line = request.to_json_versioned(wire::WireVersion::V2);
        line.push('\n');
        self.0
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Closes the connection both ways, so a receiver blocked on it
    /// returns.
    pub fn close(&self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// The receiving half of a connection.
pub struct Rx {
    reader: BufReader<TcpStream>,
    /// A response line read in part before a timeout.
    pending: String,
}

impl Rx {
    /// The next response, waiting at most `timeout`; `Ok(None)` when it
    /// expires first.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<wire::Response>, String> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(|e| format!("recv: {e}"))?;
        loop {
            match self.reader.read_line(&mut self.pending) {
                Ok(0) => return Err("connection closed".into()),
                Ok(_) if self.pending.ends_with('\n') => {
                    let line = std::mem::take(&mut self.pending);
                    return wire::Response::from_json(line.trim_end())
                        .map(Some)
                        .map_err(|e| format!("bad response: {e:?}"));
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

/// The daemon's `metrics` exposition: its counters and the check-time
/// histogram.
#[derive(Debug, Default)]
pub struct Scrape {
    counters: BTreeMap<String, u64>,
    check_us: BTreeMap<u64, u64>,
}

impl Scrape {
    /// Asks the daemon over a fresh connection.
    pub fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("metrics: {e}"))?;
        let (exposition, _) = client.metrics("pathbench-metrics")?;
        let mut scrape = Scrape::default();
        for line in exposition.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<u64>() else {
                continue;
            };
            if let Some(le) = key
                .strip_prefix("pathslice_server_check_us_bucket{le=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
            {
                if let Ok(le) = le.parse::<u64>() {
                    scrape.check_us.insert(le, value);
                }
            } else if let Some(name) = key.strip_prefix("pathslice_") {
                scrape.counters.insert(name.to_owned(), value);
            }
        }
        Ok(scrape)
    }

    /// Counter `name` (in exposition spelling, e.g. `server_cache_hits`)
    /// gained since `before`.
    pub fn delta(&self, before: &Scrape, name: &str) -> u64 {
        let get = |s: &Scrape| s.counters.get(name).copied().unwrap_or(0);
        get(self).saturating_sub(get(before))
    }

    /// Median check time since `before`, ms.
    pub fn check_p50_ms(&self, before: &Scrape) -> f64 {
        // Exposition buckets are cumulative (and list only non-empty
        // ones); the snapshot wants per-bucket counts of the difference.
        let cumulative =
            |s: &Scrape, le: u64| s.check_us.range(..=le).next_back().map_or(0, |(_, &c)| c);
        let mut snap = HistogramSnapshot::default();
        for &le in self.check_us.keys() {
            let c = cumulative(self, le).saturating_sub(cumulative(before, le));
            if c > snap.count {
                snap.buckets.push((le, c - snap.count));
                snap.count = c;
            }
        }
        snap.quantile_interpolated(0.5) as f64 / 1e3
    }
}

/// Per-request accounting shared by both serve workloads.
#[derive(Debug, Default)]
pub struct Requests {
    /// Server-side queue wait, ms.
    pub queue_ms: Vec<f64>,
    /// Server-side admission to response, minus the queue wait, ms.
    pub service_ms: Vec<f64>,
    /// Client round trip minus the server's own time, ms.
    pub wire_ms: Vec<f64>,
}

impl Requests {
    /// Checks one response against the ground truth of `spec` and
    /// records its timings; `round_trip` runs from the actual send to
    /// receipt. Returns whether the analysis cache held the program.
    pub fn record(
        &mut self,
        w: &mut Window,
        spec: &WorkloadSpec,
        response: wire::Response,
        round_trip: Duration,
    ) -> Option<bool> {
        match response {
            wire::Response::Ok {
                id,
                cache_hit,
                clusters,
                wall_us,
                queue_us,
                ..
            } => {
                let answers = clusters
                    .iter()
                    .map(|c| (c.func.as_str(), c.verdict.as_str()));
                if let Some(first) = oracle::mismatches(spec, answers).into_iter().next() {
                    w.fail(format!("{id}: {first}"));
                }
                let rtt_ms = round_trip.as_secs_f64() * 1e3;
                self.queue_ms.push(queue_us as f64 / 1e3);
                self.service_ms
                    .push(wall_us.saturating_sub(queue_us) as f64 / 1e3);
                self.wire_ms.push((rtt_ms - wall_us as f64 / 1e3).max(0.0));
                Some(cache_hit)
            }
            other => {
                w.fail(format!("{}: {other:?}", other.id()));
                None
            }
        }
    }

    /// The server-side layer numbers of a window, from these timings
    /// and the `metrics` scrapes taken before and after it.
    pub fn layers(&self, before: &Scrape, after: &Scrape, ops: u64) -> Vec<(&'static str, f64)> {
        let per_op = |name: &str| after.delta(before, name) as f64 / ops.max(1) as f64;
        let (hits, misses) = (
            after.delta(before, "server_cache_hits"),
            after.delta(before, "server_cache_misses"),
        );
        vec![
            ("server.queue_ms_p50", quantile(&self.queue_ms, 0.5)),
            ("server.queue_ms_p99", quantile(&self.queue_ms, 0.99)),
            ("server.service_ms_p50", quantile(&self.service_ms, 0.5)),
            ("server.service_ms_p99", quantile(&self.service_ms, 0.99)),
            ("server.wire_ms_p50", quantile(&self.wire_ms, 0.5)),
            ("server.wire_ms_p99", quantile(&self.wire_ms, 0.99)),
            ("server.check_ms_p50", after.check_p50_ms(before)),
            (
                "server.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("server.cache_evictions", per_op("server_cache_evictions")),
            ("server.verdict_hits", per_op("server_verdict_hits")),
            ("journal.appended", per_op("server_journal_appended")),
        ]
    }
}
