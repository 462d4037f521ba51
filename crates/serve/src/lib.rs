//! # compstat-serve
//!
//! Batched scoring as a service: the production story for this
//! workspace is variant calling (pbd `call_columns`) and HMM
//! likelihood scoring (`forward_batch`) under load, so this crate
//! wraps both behind a long-running, zero-dependency std-TCP server.
//!
//! The wire format is the workspace's own strict JSON
//! ([`compstat_core::json`]): one request per line, one reply per
//! line, under the versioned [`proto::SERVE_SCHEMA`]
//! (`compstat-serve/v1`) schema with per-request ids, structured
//! error replies and `ping`/`stats` control verbs. Scoring runs on
//! the deterministic [`compstat_runtime::Runtime`] with the
//! persistent oracle cache as shared warm state, so **served replies
//! are byte-for-byte the direct-API computation** — at any worker
//! count, cold or warm cache. The differential e2e suite in
//! `tests/e2e.rs` pins that claim.
//!
//! Untrusted input is the point of a network boundary: frames are
//! parsed under [`compstat_core::json::ParseLimits`] (depth + size
//! caps), every batch dimension is bounded by
//! [`proto::RequestLimits`], model/column validation goes through the
//! typed `try_new` constructors, and a panic in a handler is caught
//! and returned as an `internal` error frame rather than taking a
//! worker down.

pub mod proto;
pub mod server;

pub use proto::{ErrorCode, RequestLimits, Responder, ServeCounters, SERVE_SCHEMA};
pub use server::{Server, ServerConfig};
