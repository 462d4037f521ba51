//! The std-TCP transport: a bounded accept queue feeding a hand-rolled
//! worker pool, with per-connection read timeouts and max-frame-size
//! enforcement at the socket layer.
//!
//! Concurrency model: one accept thread pushes connections into a
//! bounded channel; `workers` threads pull from it and run
//! request/reply loops. When the queue is full the accept thread
//! answers with a `busy` error frame and closes — clients are never
//! left hanging on an unbounded backlog.

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

use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// How long a connection may sit idle (or mid-frame) before it is
    /// answered with a `timeout` frame and closed.
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
    /// The read timed out (idle or mid-frame).
    TimedOut,
    /// Any other I/O failure — treated as a dead peer.
    Dead,
}

/// Reads `\n`-terminated frames without buffering more than the frame
/// limit: a peer streaming an endless line is cut off at
/// `max_frame + 1` bytes, not held in memory indefinitely.
fn read_frame(conn: &mut TcpStream, max_frame: usize) -> Frame {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match conn.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Frame::Eof
                } else {
                    Frame::Dead
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return match String::from_utf8(line) {
                        Ok(s) => Frame::Line(s),
                        Err(_) => Frame::Dead,
                    };
                }
                line.push(byte[0]);
                if line.len() > max_frame {
                    return Frame::TooLong;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Frame::TimedOut;
            }
            Err(_) => return Frame::Dead,
        }
    }
}

fn handle_connection(
    mut conn: TcpStream,
    responder: &Responder,
    timeout: Duration,
    max_frame: usize,
) {
    let _ = conn.set_read_timeout(Some(timeout));
    let _ = conn.set_nodelay(true);
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let mut out = BufWriter::new(write_half);
    loop {
        let frame = {
            // Byte-at-a-time reads go through the OS; a BufReader would
            // be faster but must not outlive the frame (its lookahead
            // would swallow the next frame's bytes). Request frames are
            // one syscall-heavy path; correctness first, the bench
            // still measures thousands of requests per second.
            read_frame(&mut conn, max_frame)
        };
        // Oversized and timed-out connections are answered then
        // closed: their stream position is mid-frame and cannot be
        // resynchronized safely.
        let (reply, closing) = match frame {
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
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

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
