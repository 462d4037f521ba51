//! Differential end-to-end suite: the tentpole claim is that served
//! replies are **byte-for-byte** the direct computation — at 1 and 4
//! server workers, cold and warm cache — plus transport-hardening
//! cases (busy rejection, oversized frames, timeouts, concurrency).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use compstat_bigfloat::Context;
use compstat_core::json::Json;
use compstat_core::StatFloat;
use compstat_logspace::LogF64;
use compstat_runtime::CacheMode;
use compstat_serve::{RequestLimits, Responder, Server, ServerConfig};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("serve-e2e-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(cache_dir: PathBuf, workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        cache_dir: Some(cache_dir),
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// The scripted client batch: control verbs, pbd and hmm scoring in
/// several formats, including an underflow-to-zero column (exercising
/// the `log10_rel: null` wire path) and empty batches.
fn script() -> Vec<String> {
    let deep_probs: Vec<String> = (0..60).map(|_| format!("{:e}", 2f64.powi(-40))).collect();
    let deep = deep_probs.join(",");
    vec![
        r#"{"schema":"compstat-serve/v1","id":"s0","verb":"ping"}"#.to_string(),
        r#"{"schema":"compstat-serve/v1","id":"s1","verb":"pbd/call_columns","format":"Log","prec":256,"columns":[{"probs":[0.25,0.125,0.0625,0.5],"k":2},{"probs":[0.4,0.4,0.4],"k":1}]}"#.to_string(),
        r#"{"schema":"compstat-serve/v1","id":"s2","verb":"pbd/call_columns","format":"binary64","prec":256,"columns":[{"probs":[0.25,0.125,0.0625,0.5],"k":2}]}"#.to_string(),
        format!(
            r#"{{"schema":"compstat-serve/v1","id":"s3","verb":"pbd/call_columns","format":"binary64","prec":256,"columns":[{{"probs":[{deep}],"k":40}}]}}"#
        ),
        r#"{"schema":"compstat-serve/v1","id":"s4","verb":"hmm/forward_batch","format":"binary64","prec":256,"model":{"states":2,"symbols":2,"a":[0.7,0.3,0.4,0.6],"b":[0.9,0.1,0.2,0.8],"pi":[0.5,0.5]},"sequences":[[0,1,0,1,1,0],[1,1,1]]}"#.to_string(),
        r#"{"schema":"compstat-serve/v1","id":"s5","verb":"hmm/forward_batch","format":"posit(64,18)","prec":256,"model":{"states":2,"symbols":2,"a":[0.7,0.3,0.4,0.6],"b":[0.9,0.1,0.2,0.8],"pi":[0.5,0.5]},"sequences":[[0,0,1,1]]}"#.to_string(),
        r#"{"schema":"compstat-serve/v1","id":"s6","verb":"pbd/call_columns","format":"hdr(53)","prec":256,"columns":[]}"#.to_string(),
        r#"{"schema":"compstat-serve/v1","id":"s7","verb":"hmm/forward_batch","format":"Log","prec":256,"model":{"states":2,"symbols":2,"a":[0.7,0.3,0.4,0.6],"b":[0.9,0.1,0.2,0.8],"pi":[0.5,0.5]},"sequences":[[]]}"#.to_string(),
    ]
}

/// Sends every line of `frames` over one connection, returning the
/// reply line for each.
fn send_script(addr: std::net::SocketAddr, frames: &[String]) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    frames
        .iter()
        .map(|frame| {
            conn.write_all(frame.as_bytes()).expect("send");
            conn.write_all(b"\n").expect("send newline");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            assert!(reply.ends_with('\n'), "reply is a full line");
            reply.trim_end().to_string()
        })
        .collect()
}

#[test]
fn served_equals_offline_and_direct_at_1_and_4_workers_cold_and_warm() {
    let frames = script();
    let mut per_workers: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 4] {
        // Cold: fresh cache directory per worker count.
        let dir = tmp_dir(&format!("diff-w{workers}"));
        let server = Server::spawn(config(dir, workers)).expect("spawn");
        let cold = send_script(server.local_addr(), &frames);
        // Warm: same server, same cache, same frames.
        let warm = send_script(server.local_addr(), &frames);
        assert_eq!(cold, warm, "workers={workers}: cold == warm byte-for-byte");
        per_workers.push(cold);
    }
    assert_eq!(
        per_workers[0], per_workers[1],
        "1-worker and 4-worker replies are byte-identical"
    );

    // Offline: the same Responder the server uses, no TCP, cold cache.
    let offline = Responder::new(
        RequestLimits::default(),
        1,
        CacheMode::ReadWrite,
        Some(tmp_dir("diff-offline")),
    );
    let offline_replies: Vec<String> = frames.iter().map(|f| offline.respond_line(f)).collect();
    assert_eq!(
        per_workers[0], offline_replies,
        "served replies == offline (direct) replies byte-for-byte"
    );

    // Field-level proof against the direct public API, independent of
    // the Responder implementation.
    let ctx = Context::new(256);
    let s1 = Json::parse(&per_workers[0][1]).unwrap();
    let results = s1.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    let col = compstat_pbd::Column::try_new(vec![0.25, 0.125, 0.0625, 0.5], 2).unwrap();
    let want = compstat_pbd::call_column::<LogF64>(&col, &ctx);
    assert_eq!(
        results[0].get("pvalue").and_then(Json::as_str).unwrap(),
        want.pvalue.to_sci_string(24)
    );
    assert_eq!(
        results[0].get("log10_rel").and_then(Json::as_f64),
        Some(want.error.log10_rel)
    );

    // The underflow column: binary64 underflows to zero, which the
    // wire reports as class underflow-to-zero with log10_rel 0.
    let s3 = Json::parse(&per_workers[0][3]).unwrap();
    let deep = &s3.get("results").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(
        deep.get("class").and_then(Json::as_str),
        Some("underflow-to-zero")
    );
    assert_eq!(deep.get("pvalue").and_then(Json::as_str), Some("0"));

    // Forward likelihoods against the direct forward pass.
    let s4 = Json::parse(&per_workers[0][4]).unwrap();
    let fwd = s4.get("results").and_then(Json::as_arr).unwrap();
    let model = compstat_hmm::Hmm::try_new(
        2,
        2,
        vec![0.7, 0.3, 0.4, 0.6],
        vec![0.9, 0.1, 0.2, 0.8],
        vec![0.5, 0.5],
    )
    .unwrap();
    let prepared = model.prepare::<f64>();
    for (obs, result) in [vec![0usize, 1, 0, 1, 1, 0], vec![1, 1, 1]].iter().zip(fwd) {
        let direct = compstat_hmm::forward(&prepared, obs);
        assert_eq!(
            result.get("likelihood").and_then(Json::as_str).unwrap(),
            direct.to_bigfloat().to_sci_string(24)
        );
        let oracle = compstat_hmm::forward_oracle(&model, obs, &ctx);
        assert_eq!(
            result.get("oracle").and_then(Json::as_str).unwrap(),
            oracle.to_sci_string(24)
        );
    }

    // The empty observation sequence scores to the empty product, 1.
    let s7 = Json::parse(&per_workers[0][7]).unwrap();
    let ones = s7.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(ones.len(), 1);
    assert_eq!(ones[0].get("class").and_then(Json::as_str), Some("exact"));
}

#[test]
fn concurrent_clients_get_their_own_replies() {
    let server = Server::spawn(config(tmp_dir("concurrent"), 4)).expect("spawn");
    let addr = server.local_addr();
    // An offline twin over a separate cold cache gives the expected
    // bytes for every client's distinct request.
    let offline = Responder::new(
        RequestLimits::default(),
        1,
        CacheMode::ReadWrite,
        Some(tmp_dir("concurrent-offline")),
    );
    let frames: Vec<String> = (0..8)
        .map(|i| {
            format!(
                r#"{{"schema":"compstat-serve/v1","id":"client-{i}","verb":"pbd/call_columns","format":"Log","prec":128,"columns":[{{"probs":[0.5,0.25,0.125],"k":{}}}]}}"#,
                i % 4
            )
        })
        .collect();
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = frames
            .iter()
            .map(|frame| s.spawn(move || send_script(addr, std::slice::from_ref(frame)).remove(0)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (frame, reply)) in frames.iter().zip(&replies).enumerate() {
        let want = offline.respond_line(frame);
        assert_eq!(reply, &want, "client {i}");
        let doc = Json::parse(reply).unwrap();
        assert_eq!(
            doc.get("id").and_then(Json::as_str),
            Some(format!("client-{i}").as_str())
        );
    }
}

#[test]
fn full_queue_rejects_with_busy_frame() {
    let mut cfg = config(tmp_dir("busy"), 1);
    cfg.max_conns = 1;
    cfg.read_timeout = Duration::from_secs(2);
    let server = Server::spawn(cfg).expect("spawn");
    let addr = server.local_addr();
    // Ten idle connections against one worker and a one-slot queue:
    // one is being (slowly) served, one is queued, the rest must be
    // answered with busy frames at accept time. Which connection lands
    // where is scheduling-dependent; how many are rejected is not.
    let conns: Vec<TcpStream> = (0..10).map(|_| TcpStream::connect(addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(300));
    let mut busy_frames = 0;
    for conn in &conns {
        conn.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut reply = String::new();
        // Held/queued connections time out client-side; rejected ones
        // already have their busy frame buffered.
        if BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut reply)
            .is_ok()
            && reply.contains(r#""code":"busy""#)
        {
            busy_frames += 1;
        }
    }
    assert!(
        busy_frames >= 7,
        "got {busy_frames} busy frames of 10 conns"
    );
    let rejected = server
        .counters()
        .busy_rejections
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(rejected >= 7, "counter saw {rejected}");
}

#[test]
fn stats_verb_reports_activity_over_tcp() {
    let server = Server::spawn(config(tmp_dir("stats"), 2)).expect("spawn");
    let frames = vec![
        r#"{"schema":"compstat-serve/v1","id":"a","verb":"ping"}"#.to_string(),
        r#"not json"#.to_string(),
        r#"{"schema":"compstat-serve/v1","id":"b","verb":"stats"}"#.to_string(),
    ];
    let replies = send_script(server.local_addr(), &frames);
    let stats = Json::parse(&replies[2]).unwrap();
    assert_eq!(stats.get("requests").and_then(Json::as_f64), Some(3.0));
    assert_eq!(stats.get("errors").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("connections").and_then(Json::as_f64), Some(1.0));
}

#[test]
fn hostile_frames_cannot_take_a_worker_down() {
    let mut cfg = config(tmp_dir("hostile"), 1);
    cfg.limits.max_frame_bytes = 64 << 10;
    let server = Server::spawn(cfg).expect("spawn");
    let addr = server.local_addr();
    // Deep nesting, truncated-in-spirit frames, wrong types: each gets
    // an error reply on one connection...
    let bomb = format!(
        r#"{{"schema":"compstat-serve/v1","id":"n","verb":"ping","x":{}{}}}"#,
        "[".repeat(100),
        "]".repeat(100)
    );
    let frames = vec![
        bomb,
        r#"{"schema":"compstat-serve/v1","id":9,"verb":"ping"}"#.to_string(),
        r#"{"schema":"compstat-serve/v1","id":"t","verb":"pbd/call_columns","format":"Log","columns":[{"probs":"nope","k":0}]}"#.to_string(),
    ];
    for frame in &frames {
        let reply = send_script(addr, std::slice::from_ref(frame)).remove(0);
        let doc = Json::parse(&reply).unwrap();
        assert!(matches!(doc.get("ok"), Some(Json::Bool(false))), "{frame}");
    }
    // ...and the worker is still alive for honest clients.
    let ping = r#"{"schema":"compstat-serve/v1","id":"ok","verb":"ping"}"#.to_string();
    let reply = send_script(addr, std::slice::from_ref(&ping)).remove(0);
    assert!(reply.contains("\"ok\":true"), "{reply}");
}

/// Writes `bytes` in one `write_all`, half-closes, and reads every
/// reply line until the server closes the connection.
fn send_pipelined(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    conn.write_all(bytes).expect("send");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(conn)
        .lines()
        .map(|line| line.expect("reply"))
        .collect()
}

fn offline_twin(name: &str, limits: RequestLimits) -> Responder {
    Responder::new(limits, 1, CacheMode::ReadWrite, Some(tmp_dir(name)))
}

/// A `ping` frame padded with JSON whitespace to exactly `len` bytes.
fn padded_ping(len: usize) -> String {
    let head = r#"{"schema":"compstat-serve/v1","id":"pad","verb":"ping""#;
    format!("{head}{}}}", " ".repeat(len - head.len() - 1))
}

#[test]
fn pipelined_frames_in_one_write_get_their_replies_in_order() {
    let server = Server::spawn(config(tmp_dir("pipelined"), 1)).expect("spawn");
    let frames = [
        script()[0].clone(),
        script()[1].clone(),
        script()[4].clone(),
    ];
    let bytes: String = frames.iter().map(|f| format!("{f}\n")).collect();
    let replies = send_pipelined(server.local_addr(), bytes.as_bytes());
    let offline = offline_twin("pipelined-offline", RequestLimits::default());
    let want: Vec<String> = frames.iter().map(|f| offline.respond_line(f)).collect();
    assert_eq!(replies, want);
}

#[test]
fn a_frame_spanning_several_buffer_fills_is_answered() {
    let server = Server::spawn(config(tmp_dir("long-frame"), 1)).expect("spawn");
    let symbols: Vec<&str> = (0..12_000).map(|i| ["0", "1"][i % 3 / 2]).collect();
    let frame = format!(
        r#"{{"schema":"compstat-serve/v1","id":"long","verb":"hmm/forward_batch","format":"binary64","prec":128,"model":{{"states":2,"symbols":2,"a":[0.7,0.3,0.4,0.6],"b":[0.9,0.1,0.2,0.8],"pi":[0.5,0.5]}},"sequences":[[{}]]}}"#,
        symbols.join(",")
    );
    assert!(frame.len() >= 20 << 10, "{} bytes", frame.len());
    let replies = send_script(server.local_addr(), std::slice::from_ref(&frame));
    let offline = offline_twin("long-frame-offline", RequestLimits::default());
    assert_eq!(replies, [offline.respond_line(&frame)]);
    assert!(replies[0].contains(r#""ok":true"#), "{}", replies[0]);
}

#[test]
fn the_frame_limit_is_exact() {
    let limits = RequestLimits {
        max_frame_bytes: 1024,
        ..RequestLimits::default()
    };
    let mut cfg = config(tmp_dir("frame-limit"), 1);
    cfg.limits = limits;
    let server = Server::spawn(cfg).expect("spawn");
    let (at, over) = (padded_ping(1024), padded_ping(1025));
    assert_eq!((at.len(), over.len()), (1024, 1025));
    let replies = send_pipelined(server.local_addr(), format!("{at}\n{over}\n").as_bytes());
    let offline = offline_twin("frame-limit-offline", limits);
    assert_eq!(
        replies,
        [
            offline.respond_line(&at),
            compstat_serve::proto::transport_error_frame(
                compstat_serve::ErrorCode::TooLarge,
                "frame exceeds 1024 bytes"
            ),
        ]
    );
    assert!(replies[0].contains(r#""ok":true"#), "{}", replies[0]);
}

#[test]
fn a_slow_loris_is_cut_off_at_the_frame_deadline() {
    let timeout = Duration::from_millis(500);
    let mut cfg = config(tmp_dir("slow-loris"), 1);
    cfg.read_timeout = timeout;
    let server = Server::spawn(cfg).expect("spawn");
    let addr = server.local_addr();

    // One byte per quarter timeout: every read completes well inside
    // the idle timeout, so only a whole-frame deadline stops the
    // frame. 40 bytes bound the trickle to 5 s, so a server without
    // the deadline fails this test quickly instead of hanging it.
    let loris = TcpStream::connect(addr).expect("connect");
    let mut trickle = loris.try_clone().expect("clone");
    let trickler = std::thread::spawn(move || {
        for &byte in br#"{"schema":"compstat-serve/v1","id":"slow","verb":"ping"}"#
            .iter()
            .take(40)
        {
            if trickle.write_all(&[byte]).is_err() {
                return;
            }
            std::thread::sleep(timeout / 4);
        }
    });

    // A well-behaved client. Connections are accepted and queued in
    // connect order, so it waits behind the loris for the only worker.
    let mut honest = TcpStream::connect(addr).expect("connect");
    honest.write_all(script()[0].as_bytes()).expect("send");
    honest.write_all(b"\n").expect("send newline");

    // The loris gets a timeout frame at the deadline, plus slack.
    loris
        .set_read_timeout(Some(timeout * 4))
        .expect("client timeout");
    let mut reply = String::new();
    BufReader::new(&loris)
        .read_line(&mut reply)
        .expect("the loris is answered within the frame deadline plus slack");
    assert!(reply.contains(r#""code":"timeout""#), "{reply}");

    // The honest client is then served within a bounded wait.
    honest
        .set_read_timeout(Some(timeout * 6))
        .expect("client timeout");
    let mut reply = String::new();
    BufReader::new(&honest)
        .read_line(&mut reply)
        .expect("the queued client is served once the loris is cut off");
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    trickler.join().expect("trickler");
}
