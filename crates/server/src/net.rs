//! Bounded one-line transport for calls between fabric processes: the
//! router's health probes and relays. Every call runs under hard
//! deadlines, so a dead or wedged member costs at most a timeout and
//! never wedges the calling thread.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How often [`read_line`] re-checks its deadline while the peer is
/// silent.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// One round trip over a fresh connection: connect within
/// `connect_timeout`, write `frame`, read one response line within
/// `reply_timeout`. The stream comes back open for callers that pool it.
///
/// # Errors
///
/// Any step failing or running past its deadline.
pub fn exchange(
    addr: &str,
    frame: &[u8],
    connect_timeout: Duration,
    reply_timeout: Duration,
) -> Result<(String, TcpStream), String> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no address"))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, connect_timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(reply_timeout));
    stream
        .write_all(frame)
        .map_err(|e| format!("write {addr}: {e}"))?;
    Ok((read_line(&mut stream, reply_timeout)?, stream))
}

/// Reads one newline-terminated line off `stream` within `timeout`.
///
/// # Errors
///
/// The deadline passes, the peer closes first, the read fails, or the
/// line is not UTF-8.
pub fn read_line(stream: &mut TcpStream, timeout: Duration) -> Result<String, String> {
    let deadline = Instant::now() + timeout;
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while !buf.ends_with(b"\n") {
        if Instant::now() >= deadline {
            return Err("timed out waiting for response".into());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("peer closed mid-response".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    String::from_utf8(buf).map_err(|_| "response is not UTF-8".into())
}
