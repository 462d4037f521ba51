//! Performance-per-resource metrics: MMAPS (Million Multiply-and-Adds
//! Per Second) and MMAPS per CLB — Figure 8's y-axis.

use crate::forward_unit::ColumnUnit;
use crate::resources::{column_unit_resources, Resources};

/// Throughput/efficiency summary for one column-unit run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfPerResource {
    /// Total multiply-and-add operations (`sum N_i * K_i`).
    pub total_ops: u128,
    /// Wall-clock seconds at the evaluation clock.
    pub seconds: f64,
    /// Million multiply-and-adds per second.
    pub mmaps: f64,
    /// MMAPS divided by the unit's CLB count (Figure 8).
    pub mmaps_per_clb: f64,
    /// The unit's resources.
    pub resources: Resources,
}

/// Evaluates a column unit on a dataset of `(N, K)` columns.
#[must_use]
pub fn perf_per_resource(unit: &ColumnUnit, columns: &[(u64, u64)]) -> PerfPerResource {
    let total_ops: u128 = columns.iter().map(|&(n, k)| n as u128 * k as u128).sum();
    perf_per_resource_from(unit, total_ops, unit.dataset_seconds(columns))
}

/// [`perf_per_resource`] from a dataset's precomputed totals: its
/// multiply-and-add count `total_ops` (`sum N_i * K_i`) and the unit's
/// wall-clock `seconds` on it ([`ColumnUnit::dataset_seconds`]).
#[must_use]
pub fn perf_per_resource_from(unit: &ColumnUnit, total_ops: u128, seconds: f64) -> PerfPerResource {
    let mmaps = total_ops as f64 / seconds / 1.0e6;
    let resources = column_unit_resources(unit);
    let mmaps_per_clb = mmaps / resources.clb as f64;
    PerfPerResource {
        total_ops,
        seconds,
        mmaps,
        mmaps_per_clb,
        resources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Design;

    fn toy_dataset() -> Vec<(u64, u64)> {
        (0..64)
            .map(|i| (200_000 + 1_000 * i, 150 + 5 * i))
            .collect()
    }

    #[test]
    fn posit_doubles_mmaps_per_clb() {
        // Figure 8's headline: "posit-based column units perform twice as
        // many MMAPS per CLB unit on all datasets".
        let cols = toy_dataset();
        let log = perf_per_resource(&ColumnUnit::new(Design::LogSpace, 8), &cols);
        let posit = perf_per_resource(&ColumnUnit::new(Design::Posit64Es12, 8), &cols);
        let ratio = posit.mmaps_per_clb / log.mmaps_per_clb;
        assert!((1.6..3.0).contains(&ratio), "ratio {ratio}");
        assert!(posit.mmaps > log.mmaps);
        assert_eq!(posit.total_ops, log.total_ops);
    }

    #[test]
    fn magnitudes_are_plausible() {
        // Figure 8 shows ~0.10-0.15 (log) and ~0.20-0.30 (posit) MMAPS
        // per CLB on the real datasets; the toy dataset should be in the
        // same decade.
        let cols = toy_dataset();
        let posit = perf_per_resource(&ColumnUnit::new(Design::Posit64Es12, 8), &cols);
        assert!(
            (0.05..0.60).contains(&posit.mmaps_per_clb),
            "posit MMAPS/CLB {}",
            posit.mmaps_per_clb
        );
    }
}
