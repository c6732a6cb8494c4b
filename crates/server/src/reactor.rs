//! The event-driven front half of `pathslice serve`: one reactor thread
//! owns the non-blocking listener, every connection's NDJSON framing and
//! read/write buffers, admission into the sharded worker pool, and the
//! completion write-back path.
//!
//! Design notes (DESIGN.md §14 has the full treatment):
//!
//! * **Level-triggered readiness** ([`rt::reactor`]): every readable fd
//!   is read to `WouldBlock`, every complete line in the inbound buffer
//!   is framed and handled, and writes buffer in `Conn::out` with write
//!   interest armed only while something is pending.
//! * **v1 stays strictly sequential.** After a v1 check is admitted the
//!   connection sets `v1_blocked`: read interest is paused and no
//!   buffered frame is parsed until the response is written — exactly
//!   the old thread-per-connection at-most-one-in-flight contract, and
//!   the memory bound for v1 clients that write ahead.
//! * **v2 pipelines.** Every v2 frame carries a mandatory id, so checks
//!   are admitted as they arrive and completions are written in finish
//!   order; the id is the client's correlation handle.
//! * **Inline ops never queue.** `ping`/`metrics`/`slow_traces` are
//!   answered directly on the event loop ([`Shared::inline_response`]),
//!   so telemetry and health stay reachable with every worker wedged.
//! * **One shed path.** Every shed — cold lane full, fast lane full,
//!   pool closed for drain, or an accept-time resource failure — funnels
//!   through [`shed_response`], so `server.overloaded` reconciles
//!   against `server.connections` in drills.
//!
//! Wire-level fault injection keeps its exact historical semantics:
//! `WireRead` fires per extracted frame (keyed `conn{cid}:frame{n}`),
//! `WireWrite` per response id at serialization time.

use crate::wire::{self, WireVersion};
use crate::{lock, Job, PushError, Shared, POLL_INTERVAL};
use rt::{FaultKind, FaultSite};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
use rt::reactor::{Interest, Poller, Waker};

/// Poll token of the listening socket.
const LISTENER: u64 = 0;
/// Poll token of the completion waker's read end.
const WAKER: u64 = 1;
/// Connection tokens start here: `CONN_BASE + cid`.
const CONN_BASE: u64 = 2;

/// Counts one shed request — the **only** place the `overloaded`
/// counter is incremented — and builds its response. Admission-control
/// sheds and accept-path failures both funnel through here so the
/// drill arithmetic `connections == served + shed` always closes.
fn shed_response(shared: &Shared, id: String) -> wire::Response {
    shared.overloaded.fetch_add(1, Ordering::Relaxed);
    obs::counter("server.overloaded").inc();
    wire::Response::Overloaded { id }
}

/// One connection owned by the reactor.
#[cfg(unix)]
struct Conn {
    stream: TcpStream,
    cid: u64,
    token: u64,
    /// Unparsed inbound bytes: at most one partial frame, plus any
    /// pipelined complete frames not yet handled.
    buf: Vec<u8>,
    /// Outbound bytes the socket has not yet accepted.
    out: Vec<u8>,
    out_pos: usize,
    /// Frames extracted so far (keys the `WireRead` chaos plan).
    frame_no: u64,
    /// Checks admitted for this connection, not yet answered.
    inflight: usize,
    /// A v1 check is in flight: parsing (and reading) pause until its
    /// response is written.
    v1_blocked: bool,
    /// Peer half-closed; pending completions still flush.
    read_closed: bool,
    /// Fatal framing (oversize, torn write): stop parsing, flush `out`,
    /// then drop.
    closing: bool,
    /// Drop as soon as `out` is flushed.
    close_after_flush: bool,
    /// Drop now, discarding anything unflushed.
    dead: bool,
    /// Currently-registered interest (avoids redundant `epoll_ctl`s).
    interest: Interest,
}

#[cfg(unix)]
impl Conn {
    /// Reads to `WouldBlock`/EOF, frames and handles every complete
    /// line, and accounts an abandoned partial frame on EOF.
    fn fill(&mut self, shared: &Arc<Shared>) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.v1_blocked || self.closing || self.dead {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.parse_frames(shared);
        if self.read_closed && !self.closing && !self.dead && !self.v1_blocked {
            // EOF with a partial frame the peer abandoned. (While
            // v1-blocked nothing was read, so the EOF itself is still
            // pending; level-triggered readiness re-reports it once the
            // response unblocks the read side.)
            if !self.buf.is_empty() {
                shared.truncated_frames.fetch_add(1, Ordering::Relaxed);
                obs::counter("server.frames_truncated").inc();
                self.buf.clear();
            }
        }
    }

    /// Extracts and handles every complete line in `buf`, honouring the
    /// v1 sequential pause and the `WireRead` chaos plan, then bounds
    /// whatever partial frame remains.
    fn parse_frames(&mut self, shared: &Arc<Shared>) {
        let max = shared.config.max_frame_bytes;
        while !self.v1_blocked && !self.closing && !self.dead {
            let Some(pos) = self.buf.iter().position(|&b| b == b'\n') else {
                break;
            };
            let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
            if line.len() > max {
                self.reject_oversized(shared);
                break;
            }
            // Injected read-path faults: a torn read truncates the
            // frame mid-line (the parse rejects it and the counters
            // account for it); an I/O error drops the connection as a
            // failing NIC would.
            let key = format!("conn{}:frame{}", self.cid, self.frame_no);
            self.frame_no += 1;
            match shared.config.faults.fire(FaultSite::WireRead, &key) {
                Some(FaultKind::TornWrite) => {
                    shared.wire_faults.fetch_add(1, Ordering::Relaxed);
                    obs::counter("server.wire_faults").inc();
                    line.truncate(line.len() / 2);
                }
                Some(FaultKind::IoError) => {
                    shared.wire_faults.fetch_add(1, Ordering::Relaxed);
                    obs::counter("server.wire_faults").inc();
                    self.dead = true;
                    return;
                }
                _ => {}
            }
            self.handle_frame(&line, shared);
            if shared.shutdown.is_cancelled() {
                break;
            }
        }
        if !self.closing && !self.dead && self.buf.len() > max {
            // Still mid-frame: we can't resync an unbounded stream.
            self.reject_oversized(shared);
        }
    }

    /// Answers an `error` for a frame over the size bound and closes
    /// the connection afterwards (a peer that ignores the bound once
    /// will again, and a partial frame has no boundary to resync on).
    fn reject_oversized(&mut self, shared: &Arc<Shared>) {
        shared.rejected_frames.fetch_add(1, Ordering::Relaxed);
        obs::counter("server.frames_rejected").inc();
        let resp = wire::Response::Error {
            id: String::new(),
            error: format!(
                "frame exceeds {} byte(s); connection closed",
                shared.config.max_frame_bytes
            ),
        };
        self.respond(&resp, WireVersion::V1, shared);
        self.closing = true;
        self.close_after_flush = true;
    }

    /// Parses and dispatches one extracted frame: inline ops answer
    /// immediately, checks admit into the pool, failures answer errors
    /// under v1 (an undecodable frame names no revision).
    fn handle_frame(&mut self, line: &[u8], shared: &Arc<Shared>) {
        let text = match std::str::from_utf8(line) {
            Ok(t) => t.trim_end_matches(['\n', '\r']).trim(),
            Err(_) => {
                shared.rejected_frames.fetch_add(1, Ordering::Relaxed);
                obs::counter("server.frames_rejected").inc();
                let resp = wire::Response::Error {
                    id: String::new(),
                    error: "frame is not UTF-8".into(),
                };
                self.respond(&resp, WireVersion::V1, shared);
                return;
            }
        };
        if text.is_empty() {
            return; // tolerate blank keep-alive lines
        }
        match wire::Incoming::parse(text) {
            Ok((wire::Incoming::Check(request), version)) => {
                self.admit(request, version, shared);
            }
            Ok((incoming, version)) => {
                let resp = shared.inline_response(incoming);
                self.respond(&resp, version, shared);
            }
            Err(e) => {
                shared.rejected_frames.fetch_add(1, Ordering::Relaxed);
                obs::counter("server.frames_rejected").inc();
                let resp = wire::Response::Error {
                    id: String::new(),
                    error: format!("bad request frame: {e}"),
                };
                self.respond(&resp, WireVersion::V1, shared);
            }
        }
    }

    /// Classifies and admits one check, or sheds it with `overloaded`.
    fn admit(&mut self, request: wire::Request, version: WireVersion, shared: &Arc<Shared>) {
        let id = request.id.clone();
        let admitted = Instant::now();
        let deadline = request
            .deadline_ms
            .map(|ms| admitted + Duration::from_millis(ms));
        let tier = shared.classify(&request);
        let job = Job {
            request,
            admitted,
            deadline,
            conn: self.token,
            version,
        };
        match shared.shards.try_push(job, tier, self.cid as usize) {
            Ok(()) => {
                self.inflight += 1;
                shared.inflight.fetch_add(1, Ordering::Relaxed);
                if version == WireVersion::V1 {
                    self.v1_blocked = true;
                }
            }
            Err(PushError::Full | PushError::Closed) => {
                let resp = shed_response(shared, id);
                self.respond(&resp, version, shared);
            }
        }
    }

    /// Serializes one response under the requester's revision, honours
    /// the `WireWrite` chaos plan (keyed by the response id: a torn
    /// write buffers a prefix and closes after flushing it, an I/O
    /// error drops the connection without writing), and flushes as far
    /// as the socket allows.
    fn respond(&mut self, response: &wire::Response, version: WireVersion, shared: &Arc<Shared>) {
        if self.dead {
            return;
        }
        let mut line = response.to_json_versioned(version);
        line.push('\n');
        match shared
            .config
            .faults
            .fire(FaultSite::WireWrite, response.id())
        {
            Some(FaultKind::TornWrite) => {
                shared.wire_faults.fetch_add(1, Ordering::Relaxed);
                obs::counter("server.wire_faults").inc();
                self.out
                    .extend_from_slice(&line.as_bytes()[..line.len() / 2]);
                self.closing = true;
                self.close_after_flush = true;
            }
            Some(FaultKind::IoError) => {
                shared.wire_faults.fetch_add(1, Ordering::Relaxed);
                obs::counter("server.wire_faults").inc();
                self.dead = true;
                return;
            }
            _ => self.out.extend_from_slice(line.as_bytes()),
        }
        self.flush();
    }

    /// Writes buffered output until the socket pushes back.
    fn flush(&mut self) {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.out.clear();
        self.out_pos = 0;
        if self.close_after_flush {
            self.dead = true;
        }
    }
}

/// The reactor: accepts, frames, admits, and writes completions until
/// shutdown, then drains — no new parses, every admitted check's
/// response flushed — and exits.
#[cfg(unix)]
pub(crate) fn reactor_loop(listener: &TcpListener, shared: &Arc<Shared>, waker: &Waker) {
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pathslice-serve: cannot build a poller: {e}");
            return;
        }
    };
    if poller
        .register(listener.as_raw_fd(), LISTENER, Interest::READ)
        .is_err()
        || poller
            .register(waker.reader_fd(), WAKER, Interest::READ)
            .is_err()
    {
        eprintln!("pathslice-serve: cannot register the listener with the poller");
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events = Vec::new();
    let mut draining = false;
    loop {
        if shared.shutdown.is_cancelled() && !draining {
            draining = true;
            let _ = poller.deregister(listener.as_raw_fd());
        }
        if draining && conns.is_empty() && shared.inflight.load(Ordering::Relaxed) == 0 {
            return;
        }
        let _ = poller.wait(&mut events, Some(POLL_INTERVAL));
        for ev in &events {
            match ev.token {
                LISTENER => {
                    if !draining {
                        accept_ready(listener, shared, &mut poller, &mut conns);
                    }
                }
                WAKER => waker.drain(),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.writable {
                            conn.flush();
                        }
                        if ev.readable && !draining {
                            conn.fill(shared);
                        }
                    }
                }
            }
        }
        drain_completions(shared, &mut conns);
        sweep(&mut poller, &mut conns, draining);
    }
}

/// Accepts every pending connection (edge exhaustion: until
/// `WouldBlock`), registering each with read interest. A connection the
/// reactor cannot register is shed through the unified path.
#[cfg(unix)]
fn accept_ready(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                obs::counter("server.connections").inc();
                let cid = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                let token = CONN_BASE + cid;
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err()
                    || poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                {
                    shed_at_accept(shared, stream);
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        cid,
                        token,
                        buf: Vec::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        frame_no: 0,
                        inflight: 0,
                        v1_blocked: false,
                        read_closed: false,
                        closing: false,
                        close_after_flush: false,
                        dead: false,
                        interest: Interest::READ,
                    },
                );
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Accept-level resource errors (fd exhaustion and friends):
            // nothing was accepted, so there is no connection to
            // account; retry at the next readiness report.
            Err(_) => return,
        }
    }
}

/// Sheds a connection that was accepted (and counted) but cannot be
/// served: one `overloaded` through the unified accounting, a
/// best-effort bounded write of the response, and the socket drops.
#[cfg(unix)]
fn shed_at_accept(shared: &Shared, mut stream: TcpStream) {
    let mut line = shed_response(shared, String::new()).to_json();
    line.push('\n');
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
    let _ = stream.write_all(line.as_bytes());
}

/// Writes every queued completion to its connection, releasing v1
/// sequential pauses (and parsing what the peer wrote ahead) as
/// responses go out. A completion whose connection died is dropped —
/// the check still ran and was counted, the dead socket just eats the
/// answer, exactly as a broken pipe always has.
#[cfg(unix)]
fn drain_completions(shared: &Arc<Shared>, conns: &mut HashMap<u64, Conn>) {
    loop {
        let Some(done) = lock(&shared.completions).pop_front() else {
            return;
        };
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        let Some(conn) = conns.get_mut(&done.conn) else {
            continue;
        };
        conn.inflight = conn.inflight.saturating_sub(1);
        conn.respond(&done.response, done.version, shared);
        if done.version == WireVersion::V1 && conn.v1_blocked {
            conn.v1_blocked = false;
            conn.parse_frames(shared);
        }
    }
}

/// Reaps finished connections and reconciles poll interest: read while
/// the connection is parseable, write while output is buffered.
#[cfg(unix)]
fn sweep(poller: &mut Poller, conns: &mut HashMap<u64, Conn>, draining: bool) {
    let mut drop_toks: Vec<u64> = Vec::new();
    for (tok, conn) in conns.iter_mut() {
        let idle = conn.inflight == 0 && conn.out.is_empty();
        if conn.dead || (idle && (conn.read_closed || conn.closing || draining)) {
            drop_toks.push(*tok);
            continue;
        }
        let want = Interest {
            readable: !(conn.v1_blocked || conn.closing || conn.read_closed || draining),
            writable: !conn.out.is_empty(),
        };
        if want != conn.interest
            && poller
                .reregister(conn.stream.as_raw_fd(), *tok, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }
    for tok in drop_toks {
        if let Some(conn) = conns.remove(&tok) {
            let _ = poller.deregister(conn.stream.as_raw_fd());
        }
    }
}

/// Without readiness primitives there is nothing to serve; the daemon
/// stays up (telemetry, journal recovery) but the socket is silent.
#[cfg(not(unix))]
pub(crate) fn reactor_loop(
    _listener: &TcpListener,
    shared: &Arc<Shared>,
    _waker: &rt::reactor::Waker,
) {
    eprintln!("pathslice-serve: no readiness poller on this platform; serving is disabled");
    while !shared.shutdown.is_cancelled() {
        std::thread::sleep(POLL_INTERVAL);
    }
}
