//! The std-TCP transport: a bounded accept queue feeding a hand-rolled
//! worker pool, with per-connection timeouts and max-frame-size
//! enforcement at the socket layer.
//!
//! Concurrency model: one accept thread pushes connections into a
//! bounded channel; `workers` threads pull from it and run
//! request/reply loops. When the queue is full the accept thread
//! answers with a `busy` error frame and closes — clients are never
//! left hanging on an unbounded backlog.
//!
//! Framing: each connection owns one buffered reader for its whole
//! life, so a frame costs a syscall per buffer fill, not per byte, and
//! bytes read ahead belong to the connection's next frame. The read
//! timeout bounds two things: the idle time between frames, and the
//! time one frame may take from its first byte. A frame that arrives
//! within one buffer fill never reads the clock; only a frame that
//! spans fills arms the deadline, so a client trickling one byte at a
//! time cannot hold a worker past it. Oversized and timed-out
//! connections get an error frame, then a half-close and a bounded
//! drain of the unread input, so the peer reads the reply instead of a
//! reset.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use compstat_runtime::CacheMode;

use crate::proto::{transport_error_frame, ErrorCode, RequestLimits, Responder, ServeCounters};

/// Everything a [`Server`] needs to start.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Connections queued or in flight before new ones are rejected
    /// with a `busy` frame.
    pub max_conns: usize,
    /// How long a connection may sit idle between frames, and the most
    /// time one frame may take from its first byte. Either limit is
    /// answered with a `timeout` frame and a close.
    pub read_timeout: Duration,
    /// Untrusted-input bounds for every frame.
    pub limits: RequestLimits,
    /// Oracle-cache mode for scoring requests.
    pub cache_mode: CacheMode,
    /// Explicit oracle-cache directory; `None` honors
    /// `COMPSTAT_CACHE_DIR` / the default location.
    pub cache_dir: Option<PathBuf>,
    /// Runtime threads *per request* (the worker pool provides
    /// cross-request parallelism; per-request parallelism is
    /// deterministic at any setting).
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_conns: 64,
            read_timeout: Duration::from_secs(10),
            limits: RequestLimits::default(),
            cache_mode: CacheMode::ReadWrite,
            cache_dir: None,
            threads: 1,
        }
    }
}

/// A running scoring server. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop and joins every thread.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<ServeCounters>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Returns once the listener is live,
    /// so [`Server::local_addr`] is immediately connectable.
    #[expect(
        clippy::expect_used,
        reason = "thread spawns are startup-only, before any socket is accepted; spawn failure means the process cannot serve at all"
    )]
    pub fn spawn(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let responder = Arc::new(Responder::new(
            config.limits,
            config.threads,
            config.cache_mode,
            config.cache_dir.clone(),
        ));
        let counters = responder.counters();
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.max_conns.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let responder = Arc::clone(&responder);
                let timeout = config.read_timeout;
                let max_frame = config.limits.max_frame_bytes;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &responder, timeout, max_frame))
                    .expect("spawn worker thread")
            })
            .collect();

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &tx, &stop, &counters))
                .expect("spawn accept thread")
        };

        Ok(Server {
            local_addr,
            stop,
            counters,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live service counters (shared with the `stats` verb).
    #[must_use]
    pub fn counters(&self) -> Arc<ServeCounters> {
        Arc::clone(&self.counters)
    }

    /// Stops accepting, drains the workers, joins every thread.
    pub fn shutdown(&mut self) {
        if self.accept_thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a no-op connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // The accept thread owned the sender; with it joined the
        // channel is closed and each worker's recv() errors out.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    stop: &Arc<AtomicBool>,
    counters: &Arc<ServeCounters>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(conn) = conn else { continue };
        counters.connections.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(conn) {
            Ok(()) => {}
            Err(TrySendError::Full(conn)) => {
                counters.busy_rejections.fetch_add(1, Ordering::Relaxed);
                reject_busy(conn);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn reject_busy(mut conn: TcpStream) {
    let frame = transport_error_frame(ErrorCode::Busy, "server at connection capacity");
    let _ = conn.write_all(frame.as_bytes());
    let _ = conn.write_all(b"\n");
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    responder: &Responder,
    timeout: Duration,
    max_frame: usize,
) {
    loop {
        let conn = {
            // Recover from a poisoned queue lock rather than panic: a
            // sibling worker dying while holding it would otherwise
            // cascade through every worker and stop the service. The
            // guarded Receiver has no invariant a poison could have
            // broken — recv() either yields a connection or reports
            // the channel closed.
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(conn) = conn else { return };
        handle_connection(conn, responder, timeout, max_frame);
    }
}

/// Outcome of reading one newline-terminated frame.
enum Frame {
    Line(String),
    /// Clean EOF before any bytes of a next frame.
    Eof,
    /// The line exceeded `max_frame` bytes before its newline.
    TooLong,
    /// The connection sat idle past the timeout, or the frame was not
    /// complete by its deadline.
    TimedOut,
    /// Any other I/O failure — treated as a dead peer.
    Dead,
}

/// A point in time that bounds a run of reads on one socket.
struct Deadline(Instant);

impl Deadline {
    #[expect(
        clippy::disallowed_methods,
        reason = "transport deadline: bounds how long a peer may hold a worker; no reply byte depends on it"
    )]
    fn after(limit: Duration) -> Deadline {
        Deadline(Instant::now() + limit)
    }

    /// Sets `conn`'s read timeout to the time left; `false` once the
    /// deadline has passed.
    #[expect(
        clippy::disallowed_methods,
        reason = "transport deadline: bounds how long a peer may hold a worker; no reply byte depends on it"
    )]
    fn arm(&self, conn: &TcpStream) -> bool {
        let left = self.0.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        let _ = conn.set_read_timeout(Some(left));
        true
    }
}

/// Reads one `\n`-terminated frame without holding more than the frame
/// limit: a peer streaming an endless line is cut off at
/// `max_frame + 1` bytes, not held in memory indefinitely. Bytes past
/// the newline stay buffered for the next frame.
///
/// The socket's read timeout is the idle timeout. A frame not complete
/// within one buffer fill gets a deadline `timeout` after that fill;
/// the idle timeout is restored once the frame ends.
fn read_frame(reader: &mut BufReader<TcpStream>, max_frame: usize, timeout: Duration) -> Frame {
    let mut line = Vec::new();
    let mut deadline: Option<Deadline> = None;
    let frame = loop {
        if deadline.as_ref().is_some_and(|d| !d.arm(reader.get_ref())) {
            break Frame::TimedOut;
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break Frame::TimedOut;
            }
            Err(_) => break Frame::Dead,
        };
        if buf.is_empty() {
            break if line.is_empty() {
                Frame::Eof
            } else {
                Frame::Dead
            };
        }
        // `line` holds at most `max_frame` bytes here, so this scans no
        // further than the first byte over the limit.
        let take = buf.len().min((max_frame - line.len()).saturating_add(1));
        if let Some(end) = buf[..take].iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..end]);
            reader.consume(end + 1);
            break match String::from_utf8(line) {
                Ok(s) => Frame::Line(s),
                Err(_) => Frame::Dead,
            };
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if line.len() > max_frame {
            break Frame::TooLong;
        }
        if deadline.is_none() {
            deadline = Some(Deadline::after(timeout));
        }
    };
    if deadline.is_some() {
        let _ = reader.get_ref().set_read_timeout(Some(timeout));
    }
    frame
}

/// Closes a connection whose input is mid-frame without a reset: shuts
/// down the write half, so the peer reads the reply and then EOF, and
/// discards what the peer still sends, up to `max_frame` bytes or
/// `timeout`, whichever ends first. Closing a socket with unread input
/// makes the kernel send a reset, which can destroy the reply before
/// the peer reads it.
fn drain_and_close(mut conn: TcpStream, max_frame: usize, timeout: Duration) {
    let _ = conn.shutdown(Shutdown::Write);
    let deadline = Deadline::after(timeout);
    let mut left = max_frame;
    let mut sink = [0u8; 4096];
    while left > 0 && deadline.arm(&conn) {
        let want = left.min(sink.len());
        match conn.read(&mut sink[..want]) {
            Ok(0) | Err(_) => return,
            Ok(n) => left -= n,
        }
    }
}

fn handle_connection(conn: TcpStream, responder: &Responder, timeout: Duration, max_frame: usize) {
    let _ = conn.set_read_timeout(Some(timeout));
    let _ = conn.set_nodelay(true);
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let mut out = BufWriter::new(write_half);
    let mut reader = BufReader::new(conn);
    loop {
        // Oversized and timed-out connections are answered then
        // closed: their stream position is mid-frame and cannot be
        // resynchronized safely.
        let (reply, closing) = match read_frame(&mut reader, max_frame, timeout) {
            Frame::Line(line) => (responder.respond_line(&line), false),
            Frame::Eof | Frame::Dead => return,
            Frame::TooLong => (
                transport_error_frame(
                    ErrorCode::TooLarge,
                    &format!("frame exceeds {max_frame} bytes"),
                ),
                true,
            ),
            Frame::TimedOut => (
                transport_error_frame(ErrorCode::Timeout, "read timed out"),
                true,
            ),
        };
        if out.write_all(reply.as_bytes()).is_err()
            || out.write_all(b"\n").is_err()
            || out.flush().is_err()
        {
            return;
        }
        if closing {
            drain_and_close(reader.into_inner(), max_frame, timeout);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(name: &str) -> ServerConfig {
        let dir = std::env::temp_dir().join(format!(
            "compstat-serve-server-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ServerConfig {
            cache_dir: Some(dir),
            ..ServerConfig::default()
        }
    }

    fn send_line(addr: SocketAddr, line: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn serves_ping_and_shuts_down() {
        let mut server = Server::spawn(test_config("ping")).unwrap();
        let reply = send_line(
            server.local_addr(),
            r#"{"schema":"compstat-serve/v1","id":"a","verb":"ping"}"#,
        );
        assert!(
            reply.contains(r#""ok": true"#) || reply.contains(r#""ok":true"#),
            "{reply}"
        );
        server.shutdown();
        // Idempotent.
        server.shutdown();
    }

    #[test]
    fn oversized_frames_are_rejected_and_closed() {
        let mut config = test_config("oversize");
        config.limits.max_frame_bytes = 1024;
        let server = Server::spawn(config).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let long = "x".repeat(4096);
        conn.write_all(long.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();
        assert!(reply.contains("too-large"), "{reply}");
    }

    #[test]
    fn mid_frame_timeout_gets_a_timeout_frame() {
        let mut config = test_config("timeout");
        config.read_timeout = Duration::from_millis(100);
        let server = Server::spawn(config).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // Half a frame, then silence.
        conn.write_all(b"{\"schema\":").unwrap();
        let mut reply = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();
        assert!(reply.contains("timeout"), "{reply}");
    }
}
