//! # compstat-fpga
//!
//! A calibrated model of the paper's FPGA accelerators (Sections V-VI of
//! *"Design and accuracy trade-offs in Computational Statistics"*,
//! IISWC 2025): the forward-algorithm unit (VICAR) and the column unit
//! (LoFreq), in both log-space and posit designs.
//!
//! Real place-and-route is unavailable here, so this crate substitutes a
//! three-layer analytic model (see "Substitutions" in the repository
//! README):
//!
//! 1. [`units`] — the Table II arithmetic-unit catalog (the paper's
//!    measured LUT/FF/DSP/latency/Fmax numbers are the calibration
//!    constants, playing the role of a device datasheet);
//! 2. [`pe`] — Figure 4's processing elements composed from those
//!    units; the paper's latency formulas (`62 + 9·log2 H` vs
//!    `24 + 8·log2 H`, `73` vs `30` cycles) *emerge from composition*
//!    and are asserted by tests;
//! 3. [`forward_unit`] / [`resources`] / [`metrics`] — Figure 5's
//!    pipeline/prefetch timing, shell+composition resource estimates
//!    with CLB packing and SLR fitting, and MMAPS-per-CLB.
//!
//! The embedded paper-reported rows of Tables III/IV let every bench
//! print model-vs-paper deltas.
//!
//! # Examples
//!
//! ```
//! use compstat_fpga::{Design, ForwardUnit};
//!
//! // Figure 6: T = 500,000 sites, H = 64 states, at 300 MHz.
//! let log = ForwardUnit::new(Design::LogSpace, 64);
//! let posit = ForwardUnit::new(Design::Posit64Es18, 64);
//! let (tl, tp) = (log.wall_clock_seconds(500_000), posit.wall_clock_seconds(500_000));
//! assert!(tp < tl); // posit wins
//! let improvement = (tl - tp) / tl;
//! assert!(improvement > 0.15 && improvement < 0.35);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod forward_unit;
pub mod metrics;
pub mod pe;
pub mod resources;
pub mod timeline;
pub mod units;

pub use forward_unit::{ColumnUnit, ForwardUnit, CLOCK_HZ, DRAM_PREFETCH_CYCLES, MAX_LANES};
pub use metrics::{perf_per_resource, perf_per_resource_from, PerfPerResource};
pub use pe::{column_pe, forward_pe, log2_ceil, PeModel, Stage};
pub use resources::{
    clb_estimate, column_unit_resources, forward_unit_resources, paper_column_rows,
    paper_forward_rows, units_per_slr, PaperRow, Resources, SHELL_SHARED_CLB, SLR_CLBS,
};
pub use timeline::{render_timeline, simulate_forward, Event};
pub use units::{table2_units, ArithUnit, Design};
