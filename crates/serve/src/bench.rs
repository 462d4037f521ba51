//! The built-in load generator behind `compstat serve --bench`:
//! N connections × M requests each against a live server, reported as
//! a `compstat-serve-bench/v1` document.
//!
//! Like `compstat-bench/v1`, the document is **explicitly
//! non-deterministic** — wall-clock latency and throughput vary run to
//! run — so it is marked `"non_deterministic": true` and must never
//! enter the byte-stable report directories or the diff gate.

#![expect(
    clippy::disallowed_methods,
    reason = "the serve load harness; latency percentiles are measurements by definition"
)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use compstat_core::json::Json;

use crate::proto::SERVE_SCHEMA;

/// Schema tag of the latency/throughput document.
pub const SERVE_BENCH_SCHEMA: &str = "compstat-serve-bench/v1";

/// Load-generator shape: `connections` client threads, each sending
/// `requests_per_conn` requests back-to-back over one connection.
#[derive(Clone, Copy, Debug)]
pub struct BenchOptions {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests sent per connection.
    pub requests_per_conn: usize,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            connections: 4,
            requests_per_conn: 25,
        }
    }
}

/// One measured load-generator run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeBenchDoc {
    /// Client connections driven.
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_conn: usize,
    /// Requests that completed (reply line received).
    pub total_requests: u64,
    /// Replies carrying `ok: false` (or dropped connections).
    pub errors: u64,
    /// Wall-clock of the whole run in milliseconds.
    pub wall_ms: f64,
    /// Completed requests per second of wall-clock.
    pub throughput_rps: f64,
    /// Latency percentiles in microseconds:
    /// `[min, p50, p90, p99, max]`.
    pub latency_us: [u64; 5],
    /// Power-of-two latency histogram: `(le_us, count)` — requests
    /// with latency ≤ `le_us` µs and > the previous bucket bound.
    pub histogram: Vec<(u64, u64)>,
}

impl ServeBenchDoc {
    /// Renders the document (insertion-ordered, schema-tagged).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SERVE_BENCH_SCHEMA)),
            ("non_deterministic", Json::Bool(true)),
            ("connections", Json::Num(self.connections as f64)),
            (
                "requests_per_conn",
                Json::Num(self.requests_per_conn as f64),
            ),
            ("total_requests", Json::Num(self.total_requests as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("throughput_rps", Json::Num(self.throughput_rps)),
            (
                "latency_us",
                Json::obj(vec![
                    ("min", Json::Num(self.latency_us[0] as f64)),
                    ("p50", Json::Num(self.latency_us[1] as f64)),
                    ("p90", Json::Num(self.latency_us[2] as f64)),
                    ("p99", Json::Num(self.latency_us[3] as f64)),
                    ("max", Json::Num(self.latency_us[4] as f64)),
                ]),
            ),
            (
                "histogram",
                Json::Arr(
                    self.histogram
                        .iter()
                        .map(|&(le_us, count)| {
                            Json::obj(vec![
                                ("le_us", Json::Num(le_us as f64)),
                                ("count", Json::Num(count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses and validates a rendered document. `Err` explains the
    /// first violation — used by `compstat validate` on bench output.
    pub fn from_json(doc: &Json) -> Result<ServeBenchDoc, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(SERVE_BENCH_SCHEMA) {
            return Err(format!("schema must be {SERVE_BENCH_SCHEMA:?}"));
        }
        if !matches!(doc.get("non_deterministic"), Some(Json::Bool(true))) {
            return Err("non_deterministic must be true".to_string());
        }
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("missing or negative number: {k}"))
        };
        let lat = doc
            .get("latency_us")
            .ok_or_else(|| "missing object: latency_us".to_string())?;
        let lat_num = |k: &str| {
            lat.get(k)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite() && *x >= 0.0)
                .map(|x| x as u64)
                .ok_or_else(|| format!("latency_us: missing or negative number: {k}"))
        };
        let latency_us = [
            lat_num("min")?,
            lat_num("p50")?,
            lat_num("p90")?,
            lat_num("p99")?,
            lat_num("max")?,
        ];
        if latency_us.windows(2).any(|w| w[0] > w[1]) {
            return Err("latency percentiles are not monotone".to_string());
        }
        let hist = doc
            .get("histogram")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing array: histogram".to_string())?;
        let mut histogram = Vec::with_capacity(hist.len());
        for (i, bucket) in hist.iter().enumerate() {
            let get = |k: &str| {
                bucket
                    .get(k)
                    .and_then(Json::as_f64)
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .map(|x| x as u64)
                    .ok_or_else(|| format!("histogram[{i}]: missing or negative number: {k}"))
            };
            histogram.push((get("le_us")?, get("count")?));
        }
        if histogram.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("histogram bounds are not increasing".to_string());
        }
        let total_requests = num("total_requests")? as u64;
        let counted: u64 = histogram.iter().map(|&(_, c)| c).sum();
        if counted != total_requests {
            return Err(format!(
                "histogram counts {counted} != total_requests {total_requests}"
            ));
        }
        Ok(ServeBenchDoc {
            connections: num("connections")? as usize,
            requests_per_conn: num("requests_per_conn")? as usize,
            total_requests,
            errors: num("errors")? as u64,
            wall_ms: num("wall_ms")?,
            throughput_rps: num("throughput_rps")?,
            latency_us,
            histogram,
        })
    }

    /// Human-readable summary for the terminal.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve bench: {} conns x {} reqs = {} requests ({} errors)\n",
            self.connections, self.requests_per_conn, self.total_requests, self.errors
        ));
        out.push_str(&format!(
            "wall {:.1} ms, throughput {:.1} req/s\n",
            self.wall_ms, self.throughput_rps
        ));
        out.push_str(&format!(
            "latency us: min {} p50 {} p90 {} p99 {} max {}\n",
            self.latency_us[0],
            self.latency_us[1],
            self.latency_us[2],
            self.latency_us[3],
            self.latency_us[4]
        ));
        for &(le_us, count) in &self.histogram {
            out.push_str(&format!("  <= {le_us:>9} us  {count}\n"));
        }
        out
    }
}

/// The rotating request workload each connection sends: a ping, a
/// small `pbd/call_columns` batch, a small `hmm/forward_batch` —
/// representative of control, pbd and hmm traffic.
fn workload_frame(i: usize) -> String {
    match i % 3 {
        0 => format!("{{\"schema\":{SERVE_SCHEMA:?},\"id\":\"bench-{i}\",\"verb\":\"ping\"}}"),
        1 => format!(
            "{{\"schema\":{SERVE_SCHEMA:?},\"id\":\"bench-{i}\",\"verb\":\"pbd/call_columns\",\"format\":\"Log\",\"prec\":128,\"columns\":[{{\"probs\":[0.25,0.125,0.0625,0.5],\"k\":2}}]}}"
        ),
        _ => format!(
            "{{\"schema\":{SERVE_SCHEMA:?},\"id\":\"bench-{i}\",\"verb\":\"hmm/forward_batch\",\"format\":\"binary64\",\"prec\":128,\"model\":{{\"states\":2,\"symbols\":2,\"a\":[0.7,0.3,0.4,0.6],\"b\":[0.9,0.1,0.2,0.8],\"pi\":[0.5,0.5]}},\"sequences\":[[0,1,0,1,1,0]]}}"
        ),
    }
}

/// Drives `opts.connections` × `opts.requests_per_conn` requests at
/// `addr` and aggregates latency/throughput. Connection failures count
/// their outstanding requests as errors rather than aborting the run.
#[must_use]
pub fn run_bench(addr: &str, opts: &BenchOptions) -> ServeBenchDoc {
    let start = Instant::now();
    let results: Vec<(Vec<u64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.connections)
            .map(|c| s.spawn(move || drive_connection(addr, c, opts.requests_per_conn)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    for (lats, errs) in results {
        latencies.extend(lats);
        errors += errs;
    }
    latencies.sort_unstable();
    let total_requests = latencies.len() as u64;
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx]
    };
    let latency_us = [
        latencies.first().copied().unwrap_or(0),
        pct(0.50),
        pct(0.90),
        pct(0.99),
        latencies.last().copied().unwrap_or(0),
    ];
    // Power-of-two buckets from 1 us up to the max observed latency.
    let mut histogram = Vec::new();
    let max = latencies.last().copied().unwrap_or(0);
    let mut bound = 1u64;
    let mut from = 0u64;
    loop {
        let count = latencies
            .iter()
            .filter(|&&l| l > from && l <= bound)
            .count() as u64
            + if bound == 1 {
                // The first bucket also holds exact zeros.
                latencies.iter().filter(|&&l| l == 0).count() as u64
            } else {
                0
            };
        histogram.push((bound, count));
        if bound >= max {
            break;
        }
        from = bound;
        bound = bound.saturating_mul(2);
    }
    let throughput = if wall_ms > 0.0 {
        total_requests as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    ServeBenchDoc {
        connections: opts.connections,
        requests_per_conn: opts.requests_per_conn,
        total_requests,
        errors,
        wall_ms,
        throughput_rps: throughput,
        latency_us,
        histogram,
    }
}

/// One client thread: returns (per-request latencies in µs, errors).
fn drive_connection(addr: &str, conn_index: usize, requests: usize) -> (Vec<u64>, u64) {
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return (Vec::new(), requests as u64);
    };
    let _ = conn.set_nodelay(true);
    let Ok(read_half) = conn.try_clone() else {
        return (Vec::new(), requests as u64);
    };
    let mut reader = BufReader::new(read_half);
    let mut latencies = Vec::with_capacity(requests);
    let mut errors = 0u64;
    for i in 0..requests {
        let frame = workload_frame(conn_index * requests + i);
        let sent = Instant::now();
        if conn.write_all(frame.as_bytes()).is_err() || conn.write_all(b"\n").is_err() {
            errors += (requests - i) as u64;
            break;
        }
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => {
                latencies.push(sent.elapsed().as_micros() as u64);
                if !reply.contains("\"ok\": true") && !reply.contains("\"ok\":true") {
                    errors += 1;
                }
            }
            _ => {
                errors += (requests - i) as u64;
                break;
            }
        }
    }
    (latencies, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeBenchDoc {
        ServeBenchDoc {
            connections: 2,
            requests_per_conn: 3,
            total_requests: 6,
            errors: 0,
            wall_ms: 12.5,
            throughput_rps: 480.0,
            latency_us: [10, 20, 40, 80, 100],
            histogram: vec![(16, 1), (32, 2), (64, 1), (128, 2)],
        }
    }

    #[test]
    fn doc_round_trips_and_validates() {
        let doc = sample();
        let json = doc.to_json();
        let back = ServeBenchDoc::from_json(&json).unwrap();
        assert_eq!(doc, back);
        let text = json.to_json_string();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(ServeBenchDoc::from_json(&reparsed).unwrap(), doc);
        assert!(doc.render_text().contains("throughput"));
    }

    #[test]
    fn validation_rejects_mutations() {
        let good = sample().to_json().to_json_string();
        let cases = [
            (SERVE_BENCH_SCHEMA, "compstat-bench/v1", "schema"),
            (
                "\"non_deterministic\":true",
                "\"non_deterministic\":false",
                "non_deterministic",
            ),
            (
                "\"total_requests\":6",
                "\"total_requests\":7",
                "histogram counts",
            ),
            ("\"p90\":40", "\"p90\":5", "monotone"),
        ];
        for (from, to, why) in cases {
            let mutated = good.replace(from, to);
            assert_ne!(mutated, good, "{why}: mutation applied");
            let doc = Json::parse(&mutated).unwrap();
            let err = ServeBenchDoc::from_json(&doc).unwrap_err();
            assert!(err.contains(why) || !err.is_empty(), "{why}: {err}");
        }
    }
}
