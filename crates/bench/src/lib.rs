//! # compstat-bench
//!
//! The experiment harness behind the unified engine: one
//! [`Experiment`] row per table/figure of the paper (plus ablations),
//! listed by [`registry()`], and the wall-clock suites in [`timing`]. The
//! `compstat` CLI runs the registry (`compstat run`, text or JSON
//! reports) and the suites (`compstat bench`, the workspace's only
//! timing path); unit tests run every experiment at a reduced scale.
//!
//! Workload sizes follow a [`Scale`]: `quick` (CI smoke), `default`,
//! or `full` (paper-scale sample counts where feasible).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod registry;
pub mod scale;
pub mod timing;

pub use registry::{find, registry, Experiment};
pub use scale::Scale;
