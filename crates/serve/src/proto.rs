//! The `compstat-serve/v1` wire protocol: request parsing, validation
//! against [`RequestLimits`], and the [`Responder`] that turns one
//! request line into one reply line.
//!
//! The protocol is newline-delimited JSON over the workspace's strict
//! parser/writer, so replies are **byte-stable**: the same request
//! against the same state produces the same bytes at any worker or
//! thread count. That is what the differential e2e suite pins.
//!
//! Every request and reply carries `"schema": "compstat-serve/v1"`.
//! **Any observable change to the wire shape requires a version bump
//! of [`SERVE_SCHEMA`]** (see CONTRIBUTING.md).

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

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use compstat_bigfloat::{BigFloat, Context, HdrFloat};
use compstat_core::cache::{self, OracleCache};
use compstat_core::json::{Json, ParseLimits};
use compstat_core::{error, ErrorClass, StatFloat};
use compstat_hmm::{forward, forward_oracle_batch_cached, forward_oracle_cache_key, Hmm};
use compstat_logspace::LogF64;
use compstat_pbd::{call_columns, oracle_cache_key, oracle_pvalues_cached, CallOutcome, Column};
use compstat_posit::{P64E12, P64E15, P64E18, P64E21, P64E6, P64E9};
use compstat_runtime::{CacheMode, Runtime};

/// Version tag carried by every request and reply frame. Bump on any
/// observable wire-shape change.
pub const SERVE_SCHEMA: &str = "compstat-serve/v1";

/// Decimal digits of the binary-scientific significand in reply
/// p-values/likelihoods (part of the wire contract).
const WIRE_SCI_DIGITS: usize = 24;

/// Bounds applied to every untrusted request before any compute.
#[derive(Clone, Copy, Debug)]
pub struct RequestLimits {
    /// Longest accepted frame (request line) in bytes.
    pub max_frame_bytes: usize,
    /// Deepest accepted JSON nesting.
    pub max_depth: usize,
    /// Most columns / observation sequences per request.
    pub max_batch_items: usize,
    /// Most probabilities per column / symbols per sequence.
    pub max_item_len: usize,
    /// Largest accepted HMM state count `H`.
    pub max_states: usize,
    /// Largest accepted HMM symbol count `M`.
    pub max_symbols: usize,
    /// Accepted oracle precision range (bits).
    pub min_prec: u32,
    /// See [`RequestLimits::min_prec`].
    pub max_prec: u32,
}

impl Default for RequestLimits {
    fn default() -> RequestLimits {
        RequestLimits {
            max_frame_bytes: 4 << 20,
            max_depth: 32,
            max_batch_items: 4096,
            max_item_len: 65_536,
            max_states: 64,
            max_symbols: 1024,
            min_prec: 64,
            max_prec: 4096,
        }
    }
}

/// Machine-readable error categories in `ok: false` replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame is not a valid JSON document (within limits).
    Parse,
    /// The frame is JSON but not a valid request.
    BadRequest,
    /// A size/limit bound was exceeded.
    TooLarge,
    /// Unknown schema version, verb, or number format.
    Unsupported,
    /// The server is at its connection limit.
    Busy,
    /// The connection idled past the read timeout mid-frame.
    Timeout,
    /// A handler failed unexpectedly (caught panic).
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Internal => "internal",
        }
    }
}

/// Shared service counters, reported by the `stats` verb.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Frames handled (including error replies).
    pub requests: AtomicU64,
    /// Frames answered `ok: false`.
    pub errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections refused with a `busy` frame.
    pub busy_rejections: AtomicU64,
    /// Oracle-cache activity summed over all requests.
    pub cache_hits: AtomicU64,
    /// See [`ServeCounters::cache_hits`].
    pub cache_misses: AtomicU64,
    /// See [`ServeCounters::cache_hits`].
    pub cache_writes: AtomicU64,
    /// See [`ServeCounters::cache_hits`].
    pub cache_errors: AtomicU64,
}

impl ServeCounters {
    fn add_cache(&self, s: &cache::CacheStats) {
        self.cache_hits.fetch_add(s.hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(s.misses, Ordering::Relaxed);
        self.cache_writes.fetch_add(s.writes, Ordering::Relaxed);
        self.cache_errors.fetch_add(s.errors, Ordering::Relaxed);
    }
}

type HandlerError = (ErrorCode, String);

/// Turns one request line into one reply line. Pure with respect to
/// the transport: the TCP server and the CLI's `--offline` mode call
/// the same method, which is what makes served-vs-direct differential
/// testing trivial.
#[derive(Debug)]
pub struct Responder {
    limits: RequestLimits,
    threads: usize,
    cache_mode: CacheMode,
    cache_dir: Option<PathBuf>,
    counters: Arc<ServeCounters>,
}

impl Responder {
    /// Builds a responder scoring on `threads` runtime threads.
    /// `cache_dir: None` means [`cache::default_dir`] (which honors
    /// `COMPSTAT_CACHE_DIR`); passing an explicit directory avoids
    /// depending on process environment.
    #[must_use]
    pub fn new(
        limits: RequestLimits,
        threads: usize,
        cache_mode: CacheMode,
        cache_dir: Option<PathBuf>,
    ) -> Responder {
        Responder {
            limits,
            threads: threads.max(1),
            cache_mode,
            cache_dir,
            counters: Arc::new(ServeCounters::default()),
        }
    }

    /// The counters this responder reports under the `stats` verb
    /// (shared with the server so connection-level events count too).
    #[must_use]
    pub fn counters(&self) -> Arc<ServeCounters> {
        Arc::clone(&self.counters)
    }

    /// The request bounds in force.
    #[must_use]
    pub fn limits(&self) -> &RequestLimits {
        &self.limits
    }

    fn cache_directory(&self) -> PathBuf {
        self.cache_dir.clone().unwrap_or_else(cache::default_dir)
    }

    /// Handles one frame, returning the reply document as a single
    /// line (no trailing newline). Never panics: handler panics are
    /// caught and reported as `internal` error frames.
    pub fn respond_line(&self, line: &str) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.respond(line)))
            .unwrap_or_else(|_| reply_err(None, ErrorCode::Internal, "request handler panicked"));
        if reply.get("ok").map(|v| matches!(v, Json::Bool(true))) != Some(true) {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        reply.to_json_string()
    }

    fn respond(&self, line: &str) -> Json {
        let limits = ParseLimits {
            max_depth: self.limits.max_depth,
            max_bytes: Some(self.limits.max_frame_bytes),
        };
        let doc = match Json::parse_with_limits(line, &limits) {
            Ok(doc) => doc,
            Err(e) => return reply_err(None, ErrorCode::Parse, &e.to_string()),
        };
        let id = match doc.get("id").and_then(Json::as_str) {
            Some(id) if id.len() <= 200 => id.to_string(),
            Some(_) => return reply_err(None, ErrorCode::BadRequest, "id is over 200 bytes"),
            None => return reply_err(None, ErrorCode::BadRequest, "missing string field: id"),
        };
        if doc.get("schema").and_then(Json::as_str) != Some(SERVE_SCHEMA) {
            return reply_err(
                Some(&id),
                ErrorCode::Unsupported,
                &format!("schema must be {SERVE_SCHEMA:?}"),
            );
        }
        let verb = match doc.get("verb").and_then(Json::as_str) {
            Some(v) => v,
            None => {
                return reply_err(
                    Some(&id),
                    ErrorCode::BadRequest,
                    "missing string field: verb",
                )
            }
        };
        let outcome = match verb {
            "ping" => Ok(Vec::new()),
            "stats" => Ok(self.stats_fields()),
            "pbd/call_columns" => self.call_columns(&doc),
            "hmm/forward_batch" => self.forward_batch(&doc),
            other => Err((ErrorCode::Unsupported, format!("unknown verb {other:?}"))),
        };
        match outcome {
            Ok(fields) => reply_ok(&id, verb, fields),
            Err((code, msg)) => reply_err(Some(&id), code, &msg),
        }
    }

    fn stats_fields(&self) -> Vec<(&'static str, Json)> {
        let c = &self.counters;
        let n = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
        vec![
            ("requests", n(&c.requests)),
            ("errors", n(&c.errors)),
            ("connections", n(&c.connections)),
            ("busy_rejections", n(&c.busy_rejections)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", n(&c.cache_hits)),
                    ("misses", n(&c.cache_misses)),
                    ("writes", n(&c.cache_writes)),
                    ("errors", n(&c.cache_errors)),
                ]),
            ),
        ]
    }

    fn runtime(&self) -> Runtime {
        Runtime::with_threads(self.threads).with_cache_mode(self.cache_mode)
    }

    fn call_columns(&self, doc: &Json) -> Result<Vec<(&'static str, Json)>, HandlerError> {
        let format = req_str(doc, "format")?;
        let prec = self.req_prec(doc)?;
        let cols = req_arr(doc, "columns", self.limits.max_batch_items)?;
        let mut columns = Vec::with_capacity(cols.len());
        for (i, col) in cols.iter().enumerate() {
            let probs = req_nums(col, "probs", self.limits.max_item_len)
                .map_err(|(c, m)| (c, format!("column {i}: {m}")))?;
            let k = req_index(col, "k", usize::MAX)
                .map_err(|(c, m)| (c, format!("column {i}: {m}")))?;
            let column = Column::try_new(probs, k)
                .map_err(|m| (ErrorCode::BadRequest, format!("column {i}: {m}")))?;
            columns.push(column);
        }
        let ctx = Context::new(prec);
        let rt = self.runtime();
        let cache = OracleCache::new(self.cache_directory(), self.cache_mode);
        let key = oracle_cache_key("serve", "adhoc", 0, &columns, &ctx);
        let oracles = oracle_pvalues_cached(&columns, &ctx, &rt, &cache, &key);
        self.counters.add_cache(&cache.stats());
        let results = dispatch_format(format, |d| d.call_columns(&columns, &oracles, &ctx, &rt))?;
        Ok(vec![
            ("format", Json::str(format)),
            ("prec", Json::Num(f64::from(prec))),
            ("results", results),
        ])
    }

    fn forward_batch(&self, doc: &Json) -> Result<Vec<(&'static str, Json)>, HandlerError> {
        let format = req_str(doc, "format")?;
        let prec = self.req_prec(doc)?;
        let model = doc
            .get("model")
            .ok_or_else(|| bad("missing field: model"))?;
        let h = req_index(model, "states", self.limits.max_states)?;
        let m = req_index(model, "symbols", self.limits.max_symbols)?;
        let a = req_nums(model, "a", self.limits.max_item_len)?;
        let b = req_nums(model, "b", self.limits.max_item_len)?;
        let pi = req_nums(model, "pi", self.limits.max_item_len)?;
        let hmm = Hmm::try_new(h, m, a, b, pi)
            .map_err(|msg| (ErrorCode::BadRequest, format!("model: {msg}")))?;
        let seqs = req_arr(doc, "sequences", self.limits.max_batch_items)?;
        let mut batch: Vec<Vec<usize>> = Vec::with_capacity(seqs.len());
        for (i, seq) in seqs.iter().enumerate() {
            let arr = seq
                .as_arr()
                .ok_or_else(|| bad(&format!("sequence {i} is not an array")))?;
            if arr.len() > self.limits.max_item_len {
                return Err((
                    ErrorCode::TooLarge,
                    format!(
                        "sequence {i} has {} symbols, over the {} limit",
                        arr.len(),
                        self.limits.max_item_len
                    ),
                ));
            }
            let mut obs = Vec::with_capacity(arr.len());
            for (t, sym) in arr.iter().enumerate() {
                let s = as_index(sym)
                    .ok_or_else(|| bad(&format!("sequence {i}, position {t}: not a symbol")))?;
                if s >= hmm.num_symbols() {
                    return Err(bad(&format!(
                        "sequence {i}, position {t}: symbol {s} out of range (M = {})",
                        hmm.num_symbols()
                    )));
                }
                obs.push(s);
            }
            batch.push(obs);
        }
        let ctx = Context::new(prec);
        let rt = self.runtime();
        let cache = OracleCache::new(self.cache_directory(), self.cache_mode);
        let key = forward_oracle_cache_key("serve", "adhoc", 0, &hmm, &batch, &ctx);
        let oracles = forward_oracle_batch_cached(&hmm, &batch, &ctx, &rt, &cache, &key);
        self.counters.add_cache(&cache.stats());
        let results = dispatch_format(format, |d| {
            d.forward_batch(&hmm, &batch, &oracles, &ctx, &rt)
        })?;
        Ok(vec![
            ("format", Json::str(format)),
            ("prec", Json::Num(f64::from(prec))),
            ("results", results),
        ])
    }

    fn req_prec(&self, doc: &Json) -> Result<u32, HandlerError> {
        let prec = match doc.get("prec") {
            None => return Ok(256),
            Some(v) => v,
        };
        let p = prec
            .as_f64()
            .filter(|p| p.fract() == 0.0 && *p >= 0.0 && *p <= f64::from(u32::MAX))
            .ok_or_else(|| bad("prec is not a whole number"))? as u32;
        if p < self.limits.min_prec || p > self.limits.max_prec {
            return Err((
                ErrorCode::TooLarge,
                format!(
                    "prec {p} outside the accepted {}..={} range",
                    self.limits.min_prec, self.limits.max_prec
                ),
            ));
        }
        Ok(p)
    }
}

// ---------------------------------------------------------------------
// Format dispatch
// ---------------------------------------------------------------------

/// The per-format scoring entry points, monomorphized once per wire
/// format name by [`dispatch_format`].
struct Dispatch<T>(std::marker::PhantomData<T>);

impl<T: StatFloat + Send + Sync> Dispatch<T> {
    fn call_columns(
        &self,
        columns: &[Column],
        oracles: &[BigFloat],
        ctx: &Context,
        rt: &Runtime,
    ) -> Json {
        let outcomes = call_columns::<T>(columns, oracles, ctx, rt);
        Json::Arr(outcomes.iter().map(outcome_json).collect())
    }

    fn forward_batch(
        &self,
        model: &Hmm,
        batch: &[Vec<usize>],
        oracles: &[BigFloat],
        ctx: &Context,
        rt: &Runtime,
    ) -> Json {
        let prepared = model.prepare::<T>();
        let values = rt.par_map(batch, |obs| forward(&prepared, obs));
        Json::Arr(
            values
                .iter()
                .zip(oracles)
                .map(|(v, oracle)| {
                    let exact = v.to_bigfloat();
                    let m = error::relative_error(oracle, &exact, ctx);
                    Json::obj(vec![
                        (
                            "likelihood",
                            Json::str(exact.to_sci_string(WIRE_SCI_DIGITS)),
                        ),
                        ("oracle", Json::str(oracle.to_sci_string(WIRE_SCI_DIGITS))),
                        ("log10_rel", num_or_null(m.log10_rel)),
                        ("class", Json::str(class_str(m.class))),
                    ])
                })
                .collect(),
        )
    }
}

/// A tiny object-safe-free dispatcher: looks the wire format name up
/// against the [`StatFloat::NAME`] constants and runs `f` with the
/// matching monomorphization.
fn dispatch_format<F>(name: &str, f: F) -> Result<Json, HandlerError>
where
    F: FnMut(&dyn DispatchTarget) -> Json,
{
    macro_rules! try_format {
        ($f:ident, $($ty:ty),+) => {
            $(
                if name == <$ty as StatFloat>::NAME {
                    return Ok($f(&Dispatch::<$ty>(std::marker::PhantomData)));
                }
            )+
        };
    }
    let mut f = f;
    try_format!(f, f64, LogF64, HdrFloat, P64E6, P64E9, P64E12, P64E15, P64E18, P64E21);
    Err((ErrorCode::Unsupported, format!("unknown format {name:?}")))
}

/// Object-safe facade over [`Dispatch`], so `dispatch_format` can take
/// one closure rather than one per verb.
trait DispatchTarget {
    fn call_columns(
        &self,
        columns: &[Column],
        oracles: &[BigFloat],
        ctx: &Context,
        rt: &Runtime,
    ) -> Json;
    fn forward_batch(
        &self,
        model: &Hmm,
        batch: &[Vec<usize>],
        oracles: &[BigFloat],
        ctx: &Context,
        rt: &Runtime,
    ) -> Json;
}

impl<T: StatFloat + Send + Sync> DispatchTarget for Dispatch<T> {
    fn call_columns(
        &self,
        columns: &[Column],
        oracles: &[BigFloat],
        ctx: &Context,
        rt: &Runtime,
    ) -> Json {
        Dispatch::call_columns(self, columns, oracles, ctx, rt)
    }
    fn forward_batch(
        &self,
        model: &Hmm,
        batch: &[Vec<usize>],
        oracles: &[BigFloat],
        ctx: &Context,
        rt: &Runtime,
    ) -> Json {
        Dispatch::forward_batch(self, model, batch, oracles, ctx, rt)
    }
}

// ---------------------------------------------------------------------
// Reply builders (also used by the server for transport-level errors)
// ---------------------------------------------------------------------

fn reply_ok(id: &str, verb: &str, extra: Vec<(&'static str, Json)>) -> Json {
    let mut pairs = vec![
        ("schema", Json::str(SERVE_SCHEMA)),
        ("id", Json::str(id)),
        ("ok", Json::Bool(true)),
        ("verb", Json::str(verb)),
    ];
    pairs.extend(extra);
    Json::obj(pairs)
}

fn reply_err(id: Option<&str>, code: ErrorCode, message: &str) -> Json {
    Json::obj(vec![
        ("schema", Json::str(SERVE_SCHEMA)),
        ("id", id.map_or(Json::Null, Json::str)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("code", Json::str(code.as_str())),
                ("message", Json::str(message)),
            ]),
        ),
    ])
}

/// A transport-level error frame (no request id), as one reply line.
/// Used by the server for busy rejections, oversized frames and read
/// timeouts, where no request was successfully read.
#[must_use]
pub fn transport_error_frame(code: ErrorCode, message: &str) -> String {
    reply_err(None, code, message).to_json_string()
}

fn outcome_json(out: &CallOutcome) -> Json {
    Json::obj(vec![
        (
            "pvalue",
            Json::str(out.pvalue.to_sci_string(WIRE_SCI_DIGITS)),
        ),
        ("called_variant", Json::Bool(out.called_variant)),
        ("oracle_variant", Json::Bool(out.oracle_variant)),
        ("log10_rel", num_or_null(out.error.log10_rel)),
        ("class", Json::str(class_str(out.error.class))),
    ])
}

fn num_or_null(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else {
        Json::Null
    }
}

fn class_str(class: ErrorClass) -> &'static str {
    match class {
        ErrorClass::Exact => "exact",
        ErrorClass::Normal => "normal",
        ErrorClass::UnderflowToZero => "underflow-to-zero",
        ErrorClass::Invalid => "invalid",
    }
}

// ---------------------------------------------------------------------
// Field extraction (untrusted input)
// ---------------------------------------------------------------------

fn bad(msg: &str) -> HandlerError {
    (ErrorCode::BadRequest, msg.to_string())
}

fn req_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, HandlerError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(&format!("missing string field: {key}")))
}

fn req_arr<'a>(doc: &'a Json, key: &str, max_len: usize) -> Result<&'a [Json], HandlerError> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| bad(&format!("missing array field: {key}")))?;
    if arr.len() > max_len {
        return Err((
            ErrorCode::TooLarge,
            format!("{key} has {} items, over the {max_len} limit", arr.len()),
        ));
    }
    Ok(arr)
}

fn req_nums(doc: &Json, key: &str, max_len: usize) -> Result<Vec<f64>, HandlerError> {
    let arr = req_arr(doc, key, max_len)?;
    arr.iter()
        .map(|v| v.as_f64())
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| bad(&format!("{key} must be an array of numbers")))
}

fn as_index(v: &Json) -> Option<usize> {
    v.as_f64()
        .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x <= (1u64 << 53) as f64)
        .map(|x| x as usize)
}

fn req_index(doc: &Json, key: &str, max: usize) -> Result<usize, HandlerError> {
    let v = doc
        .get(key)
        .and_then(as_index)
        .ok_or_else(|| bad(&format!("missing whole-number field: {key}")))?;
    if v > max {
        return Err((
            ErrorCode::TooLarge,
            format!("{key} is {v}, over the {max} limit"),
        ));
    }
    if v == 0 && (key == "states" || key == "symbols") {
        return Err(bad(&format!("{key} must be positive")));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn responder() -> Responder {
        let dir = std::env::temp_dir().join(format!("compstat-serve-proto-{}", std::process::id()));
        Responder::new(RequestLimits::default(), 1, CacheMode::Off, Some(dir))
    }

    fn frame(fields: &str) -> String {
        format!("{{\"schema\":\"compstat-serve/v1\",{fields}}}")
    }

    #[test]
    fn ping_and_unknown_verbs() {
        let r = responder();
        let reply = r.respond_line(&frame(r#""id":"p1","verb":"ping""#));
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("p1"));
        assert!(matches!(doc.get("ok"), Some(Json::Bool(true))));
        let reply = r.respond_line(&frame(r#""id":"p2","verb":"flarp""#));
        let doc = Json::parse(&reply).unwrap();
        assert!(matches!(doc.get("ok"), Some(Json::Bool(false))));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("unsupported")
        );
    }

    #[test]
    fn malformed_frames_get_parse_errors() {
        let r = responder();
        for bad in ["", "{", "not json", "[1,2,3"] {
            let doc = Json::parse(&r.respond_line(bad)).unwrap();
            assert!(matches!(doc.get("ok"), Some(Json::Bool(false))), "{bad:?}");
            assert_eq!(
                doc.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("parse"),
                "{bad:?}"
            );
            assert!(matches!(doc.get("id"), Some(Json::Null)));
        }
    }

    #[test]
    fn schema_and_id_are_mandatory() {
        let r = responder();
        let doc = Json::parse(&r.respond_line(r#"{"id":"x","verb":"ping"}"#)).unwrap();
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("unsupported")
        );
        let doc = Json::parse(&r.respond_line(r#"{"schema":"compstat-serve/v1","verb":"ping"}"#))
            .unwrap();
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad-request")
        );
    }

    #[test]
    fn call_columns_validates_untrusted_fields() {
        let r = responder();
        let cases = [
            (
                r#""id":"c1","verb":"pbd/call_columns","format":"binary64","columns":[{"probs":[2.0],"k":0}]"#,
                "bad-request",
            ),
            (
                r#""id":"c2","verb":"pbd/call_columns","format":"binary64","columns":[{"probs":[0.5],"k":3}]"#,
                "bad-request",
            ),
            (
                r#""id":"c3","verb":"pbd/call_columns","format":"float128","columns":[]"#,
                "unsupported",
            ),
            (
                r#""id":"c4","verb":"pbd/call_columns","format":"binary64","prec":8,"columns":[]"#,
                "too-large",
            ),
            (
                r#""id":"c5","verb":"pbd/call_columns","format":"binary64","columns":[{"probs":[0.5]}]"#,
                "bad-request",
            ),
        ];
        for (fields, want) in cases {
            let doc = Json::parse(&r.respond_line(&frame(fields))).unwrap();
            assert_eq!(
                doc.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some(want),
                "{fields}"
            );
        }
    }

    #[test]
    fn forward_batch_rejects_out_of_range_symbols() {
        let r = responder();
        let fields = r#""id":"f1","verb":"hmm/forward_batch","format":"Log","model":{"states":1,"symbols":2,"a":[1.0],"b":[0.5,0.5],"pi":[1.0]},"sequences":[[0,2]]"#;
        let doc = Json::parse(&r.respond_line(&frame(fields))).unwrap();
        let msg = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("symbol 2 out of range"), "{msg}");
    }

    #[test]
    fn empty_batches_score_to_empty_results() {
        let r = responder();
        let doc = Json::parse(&r.respond_line(&frame(
            r#""id":"e1","verb":"pbd/call_columns","format":"binary64","columns":[]"#,
        )))
        .unwrap();
        assert!(matches!(doc.get("ok"), Some(Json::Bool(true))));
        assert_eq!(doc.get("results").and_then(Json::as_arr).unwrap().len(), 0);
        let doc = Json::parse(&r.respond_line(&frame(
            r#""id":"e2","verb":"hmm/forward_batch","format":"binary64","model":{"states":1,"symbols":1,"a":[1.0],"b":[1.0],"pi":[1.0]},"sequences":[]"#,
        )))
        .unwrap();
        assert!(matches!(doc.get("ok"), Some(Json::Bool(true))));
        assert_eq!(doc.get("results").and_then(Json::as_arr).unwrap().len(), 0);
    }

    #[test]
    fn replies_are_deterministic_and_match_direct_computation() {
        let r = responder();
        let fields = r#""id":"d1","verb":"pbd/call_columns","format":"Log","prec":128,"columns":[{"probs":[0.25,0.125,0.0625],"k":2}]"#;
        let a = r.respond_line(&frame(fields));
        let b = r.respond_line(&frame(fields));
        assert_eq!(a, b, "same request, same bytes");
        let doc = Json::parse(&a).unwrap();
        let result = &doc.get("results").and_then(Json::as_arr).unwrap()[0];
        // Direct public-API computation of the same column.
        let ctx = Context::new(128);
        let col = Column::try_new(vec![0.25, 0.125, 0.0625], 2).unwrap();
        let want = compstat_pbd::call_column::<LogF64>(&col, &ctx);
        assert_eq!(
            result.get("pvalue").and_then(Json::as_str).unwrap(),
            want.pvalue.to_sci_string(24)
        );
        assert_eq!(
            result.get("log10_rel").and_then(Json::as_f64),
            Some(want.error.log10_rel)
        );
    }

    #[test]
    fn stats_counts_requests_and_errors() {
        let r = responder();
        let _ = r.respond_line("garbage");
        let _ = r.respond_line(&frame(r#""id":"s0","verb":"ping""#));
        let doc = Json::parse(&r.respond_line(&frame(r#""id":"s1","verb":"stats""#))).unwrap();
        assert_eq!(doc.get("requests").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("errors").and_then(Json::as_f64), Some(1.0));
        assert!(doc.get("cache").is_some());
    }
}
