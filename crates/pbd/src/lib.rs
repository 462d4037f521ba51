//! # compstat-pbd
//!
//! The Poisson Binomial Distribution (PBD) and a LoFreq-style variant
//! caller — the second statistical bioinformatics case study of
//! *"Design and accuracy trade-offs in Computational Statistics"*
//! (IISWC 2025).
//!
//! LoFreq models each genome-alignment column as a PBD over per-read
//! error probabilities and calls a variant when the p-value
//! `P(X >= K)` falls below `2^-200`. Observed p-values span `2^-434_916`
//! to 1 — far beyond binary64's range, which is why the computation is
//! conventionally done in log-space and why the paper proposes posits.
//!
//! * [`pbd_pvalue`] — Listing 2's p-value `P(X >= K)`, generic over
//!   number format. Each trial updates only the states that can still
//!   reach `K`, bit-identical to sweeping all `K` of them;
//! * [`pbd_pvalue_log`] / [`pbd_pvalue_oracle`] — explicit log-space and
//!   256-bit reference versions, all three one recurrence over
//!   [`compstat_core::Arith`];
//! * [`Column`] / [`call_column`] — the application-level caller;
//! * [`batch`] — dataset-level parallel column sweeps through
//!   `compstat-runtime`: the 256-bit oracle p-values
//!   ([`oracle_pvalues`], and [`oracle_pvalues_cached`] behind the
//!   oracle cache) and per-format variant calls ([`call_columns`]),
//!   bitwise-identical to serial for any `COMPSTAT_THREADS`;
//! * [`datasets`] — synthetic stand-ins for the eight SARS-CoV-2
//!   datasets (descriptors for performance, scaled columns for
//!   accuracy).
//!
//! # Examples
//!
//! ```
//! use compstat_pbd::pbd_pvalue;
//! use compstat_posit::P64E12;
//!
//! // 40 reads, each with a 1e-4 error probability, 12 observed variants:
//! let probs = vec![1e-4; 40];
//! let p: P64E12 = pbd_pvalue(&probs, 12);
//! assert!(!p.is_zero());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_precision_loss)
)]

pub mod batch;
pub mod column;
pub mod datasets;
mod pmf;

pub use batch::{call_columns, oracle_cache_key, oracle_pvalues, oracle_pvalues_cached};
pub use column::{call_column, call_column_with_oracle, CallOutcome, Column, CRITICAL_EXP};
pub use datasets::{
    accuracy_corpus, perf_dataset, perf_datasets, ColumnDims, DatasetSpec, PERF_DATASET_COUNT,
};
pub use pmf::{pbd_pvalue, pbd_pvalue_log, pbd_pvalue_oracle};
