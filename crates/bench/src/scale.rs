//! Workload scaling for the experiment harness.
//!
//! [`Scale`] lives in `compstat-core`, which reads it back from report
//! documents; this module re-exports it so `compstat_bench::Scale`
//! keeps working.

pub use compstat_core::scale::Scale;
