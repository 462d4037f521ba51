//! # compstat-core
//!
//! The unifying layer of the `compstat` workspace — a Rust reproduction
//! of *"Design and accuracy trade-offs in Computational Statistics"*
//! (IISWC 2025).
//!
//! This crate ties the number-system crates together behind one
//! abstraction and provides the measurement machinery the paper's
//! evaluation is built on:
//!
//! * [`StatFloat`] — the "same computation, different number system"
//!   interface implemented by `f64`, [`compstat_logspace::LogF64`] and
//!   the `posit(64, ES)` configurations;
//! * [`Arith`] — the same operations taken through `&self`, so one
//!   recurrence runs on a runtime-precision oracle
//!   [`Context`](compstat_bigfloat::Context) and, via [`Native`], on
//!   every `StatFloat`;
//! * [`error`] — relative error against the 256-bit oracle, with
//!   underflow/invalid classification;
//! * [`sample`] — operand corpora (uniform-in-exponent sampling) and
//!   Dirichlet/Gamma samplers for synthetic HMM inputs;
//! * [`stats`] — box-plot summaries and empirical CDFs (the shapes of
//!   Figures 3, 9, 10, 11);
//! * [`accuracy`] — the Section IV-A bucketed accuracy experiment;
//! * [`report`] — the structured [`Report`] model with
//!   text-table and JSON rendering;
//! * [`bench_doc`] — the explicitly non-deterministic wall-clock
//!   timing documents behind `compstat bench` (`compstat-bench/v1`,
//!   kept out of the byte-stable report dirs and the diff gate);
//! * [`experiment`] — the [`Experiment`] trait of the unified engine
//!   (run any registered experiment at any [`Scale`] on any thread
//!   count);
//! * [`json`] — the hand-rolled JSON writer/parser behind `--out`
//!   report emission and validation;
//! * [`diff`] — tolerance-aware report diffing (the `compstat diff`
//!   accuracy regression gate);
//! * [`cache`] — the content-addressed store that persists 256-bit
//!   oracle sweeps across runs (`.compstat-cache/`, `--no-cache`);
//! * [`sources`] — the oracle crates' sources, compiled in and hashed
//!   into every cache key, so a cached sweep always matches the code;
//! * [`archive`] — hand-rolled deterministic ustar archives that make
//!   the cache fleet-portable (`compstat cache export` / `import`);
//! * [`merge`] — shard-stamped indexes and the `compstat merge`
//!   fan-in that reassembles a canonical report directory from
//!   `run --shard K/N` outputs.
//!
//! # Examples
//!
//! Measuring how each format holds a probability far below binary64's
//! range (the paper's core observation):
//!
//! ```
//! use compstat_bigfloat::{BigFloat, Context};
//! use compstat_core::{error, StatFloat};
//! use compstat_logspace::LogF64;
//! use compstat_posit::P64E18;
//!
//! let ctx = Context::new(256);
//! let exact = BigFloat::pow2(-2_000_000);
//!
//! let as_f64 = <f64 as StatFloat>::from_bigfloat(&exact);
//! assert!(as_f64.is_zero()); // binary64: underflow
//!
//! let as_posit = <P64E18 as StatFloat>::from_bigfloat(&exact);
//! let m = error::measure(&exact, &as_posit, &ctx);
//! assert!(m.log10_rel < -9.0); // posit(64,18): ~10 decimal digits
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accuracy;
pub mod archive;
pub mod arith;
pub mod bench_doc;
pub mod cache;
pub mod diff;
pub mod error;
pub mod experiment;
pub mod json;
pub mod merge;
pub mod report;
pub mod sample;
pub mod scale;
pub mod sources;
pub mod statfloat;
pub mod stats;

pub use accuracy::{figure3_buckets, figure9_buckets, ExponentBucket, OpKind};
pub use archive::{export_cache, import_cache, ArchiveError, ImportSummary, TarEntry};
pub use arith::{Arith, Native};
pub use bench_doc::{BenchDoc, BenchEntry, BENCH_SCHEMA};
pub use cache::{CacheKey, CacheStats, OracleCache};
pub use diff::{
    diff_dirs, diff_reports, diff_sets, load_report_dir, DiffReport, DiffStatus, ParsedReport,
    Tolerance, TolerancePolicy,
};
pub use error::{relative_error, ErrorClass, ErrorMeasurement};
pub use experiment::Experiment;
pub use merge::{
    index_doc, index_doc_for_reports, load_shard_index, merge_shard_dirs, IndexEntry, MergeError,
    MergeSummary, ShardIndex,
};
pub use report::{Block, Report, INDEX_SCHEMA, REPORT_SCHEMA};
pub use scale::Scale;
pub use statfloat::{FormatKind, StatFloat, MEASURE_PREC};
pub use stats::{BoxStats, Cdf};

// Re-export the sibling crates so downstream users need only one dep.
pub use compstat_bigfloat as bigfloat;
pub use compstat_logspace as logspace;
pub use compstat_posit as posit;
