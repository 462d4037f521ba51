//! Figures 7 and 8: column-unit wall-clock times on the eight synthetic
//! SARS-CoV-2-style datasets, and MMAPS per CLB.
//!
//! Both figures print columns of one row set, [`column_unit_rows`]:
//! each dataset is synthesized, reduced to a few totals and dropped, in
//! parallel across datasets. The rows depend only on constants, so a
//! process computes them once and both reports read that copy.

use compstat_core::report::{fmt_f64, Report, Table};
use compstat_core::Scale;
use compstat_fpga::{perf_per_resource_from, ColumnUnit, Design};
use compstat_pbd::{perf_dataset, PERF_DATASET_COUNT};
use compstat_runtime::Runtime;
use std::sync::OnceLock;

/// Registry name of the Figure 7 experiment.
pub const NAME_FIG7: &str = "fig07";
/// Registry title of the Figure 7 experiment.
pub const TITLE_FIG7: &str = "Figure 7: column-unit wall-clock time per dataset";
/// Registry name of the Figure 8 experiment.
pub const NAME_FIG8: &str = "fig08";
/// Registry title of the Figure 8 experiment.
pub const TITLE_FIG8: &str = "Figure 8: MMAPS per CLB per dataset";

/// PEs per column unit, as in the paper's evaluation.
const PES: u64 = 8;

/// One dataset's column-unit totals: everything Figures 7 and 8 print
/// about it.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnUnitRow {
    /// Dataset name ("D0".."D7").
    pub name: String,
    /// Number of columns.
    pub columns: usize,
    /// Mean N across columns.
    pub mean_n: f64,
    /// Multiply-and-add operations, `sum N_i * K_i`.
    pub total_ops: u128,
    /// Posit(64, 12) unit wall-clock seconds.
    pub posit_seconds: f64,
    /// Log-space unit wall-clock seconds.
    pub log_seconds: f64,
}

fn units() -> (ColumnUnit, ColumnUnit) {
    (
        ColumnUnit::new(Design::Posit64Es12, PES),
        ColumnUnit::new(Design::LogSpace, PES),
    )
}

/// Synthesizes each performance dataset through `rt` (one item per
/// dataset) and reduces it to its [`ColumnUnitRow`]. Uncached: the
/// reports read a per-process copy of this result.
#[must_use]
pub fn column_unit_rows(rt: &Runtime) -> Vec<ColumnUnitRow> {
    let (posit, log) = units();
    rt.par_map_index(PERF_DATASET_COUNT, |i| {
        let ds = perf_dataset(i);
        let seconds =
            |unit: &ColumnUnit| unit.dataset_seconds(ds.columns.iter().map(|c| (c.n, c.k)));
        ColumnUnitRow {
            columns: ds.num_columns(),
            mean_n: ds.mean_n(),
            total_ops: ds.total_ops(),
            posit_seconds: seconds(&posit),
            log_seconds: seconds(&log),
            name: ds.name,
        }
    })
}

/// [`column_unit_rows`], computed on the first call in this process.
fn rows(rt: &Runtime) -> &'static [ColumnUnitRow] {
    static ROWS: OnceLock<Vec<ColumnUnitRow>> = OnceLock::new();
    ROWS.get_or_init(|| column_unit_rows(rt))
}

/// Figure 7 report: wall-clock execution time per dataset, posit vs
/// log, and the relative improvement. The analytic model has no
/// scale-dependent sampling; `scale` is recorded for provenance only.
#[must_use]
pub fn fig7_report(scale: Scale, rt: &Runtime) -> Report {
    let mut t = Table::new(vec![
        "Dataset".into(),
        "columns".into(),
        "mean N".into(),
        "posit s".into(),
        "log s".into(),
        "improvement".into(),
    ]);
    let mut best = 0.0f64;
    for row in rows(rt) {
        let (p, l) = (row.posit_seconds, row.log_seconds);
        best = best.max((l - p) / l);
        t.row(vec![
            row.name.clone(),
            row.columns.to_string(),
            format!("{:.0}", row.mean_n),
            fmt_f64(p, 0),
            fmt_f64(l, 0),
            format!("{:.1}%", (l - p) / l * 100.0),
        ]);
    }
    let mut r = Report::new(NAME_FIG7, TITLE_FIG7, scale).param("pes_per_unit", PES);
    r.metric("best_improvement_fraction", best);
    r.text(
        "8 PEs per unit, 300 MHz (paper posit times span ~2,269..24,010 s; improvements 5-25%)\n",
    );
    r.table(t);
    r
}

/// Figure 8 report: MMAPS per CLB unit per dataset.
#[must_use]
pub fn fig8_report(scale: Scale, rt: &Runtime) -> Report {
    let (posit, log) = units();
    let mut t = Table::new(vec![
        "Dataset".into(),
        "ops (N*K sum)".into(),
        "posit MMAPS/CLB".into(),
        "log MMAPS/CLB".into(),
        "ratio".into(),
    ]);
    let mut worst_ratio = f64::INFINITY;
    for row in rows(rt) {
        let p = perf_per_resource_from(&posit, row.total_ops, row.posit_seconds);
        let l = perf_per_resource_from(&log, row.total_ops, row.log_seconds);
        worst_ratio = worst_ratio.min(p.mmaps_per_clb / l.mmaps_per_clb);
        t.row(vec![
            row.name.clone(),
            format!("{:.2e}", p.total_ops as f64),
            fmt_f64(p.mmaps_per_clb, 3),
            fmt_f64(l.mmaps_per_clb, 3),
            format!("{:.2}x", p.mmaps_per_clb / l.mmaps_per_clb),
        ]);
    }
    let mut r = Report::new(NAME_FIG8, TITLE_FIG8, scale).param("pes_per_unit", PES);
    r.metric("worst_mmaps_per_clb_ratio", worst_ratio);
    r.text("paper: posit sustains ~2x MMAPS per CLB on all datasets\n");
    r.table(t);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ColumnUnit::dataset_cycles` as it first was: longest column
    /// first, each onto the PE `Iterator::min` finds least loaded. The
    /// fixed overhead is what an empty dataset costs.
    fn min_loop_cycles(unit: &ColumnUnit, columns: &[(u64, u64)]) -> u64 {
        let mut work: Vec<u64> = columns
            .iter()
            .map(|&(n, k)| unit.column_cycles(n, k))
            .collect();
        work.sort_unstable_by(|a, b| b.cmp(a));
        let mut pe_load = vec![0u64; unit.num_pes() as usize];
        for w in work {
            let min = pe_load.iter_mut().min().expect("pes >= 1");
            *min += w;
        }
        let overhead = unit.dataset_cycles(core::iter::empty::<(u64, u64)>());
        pe_load.into_iter().max().unwrap_or(0) + overhead
    }

    #[test]
    fn pe_assignment_matches_the_min_loop_on_every_perf_dataset() {
        for i in 0..PERF_DATASET_COUNT {
            let columns: Vec<(u64, u64)> =
                perf_dataset(i).columns.iter().map(|c| (c.n, c.k)).collect();
            for design in [Design::Posit64Es12, Design::LogSpace] {
                for pes in [1, 3, 8] {
                    let unit = ColumnUnit::new(design, pes);
                    assert_eq!(
                        unit.dataset_cycles(&columns),
                        min_loop_cycles(&unit, &columns),
                        "D{i}, {design:?}, {pes} PEs"
                    );
                }
            }
        }
    }

    #[test]
    fn figure7_posit_faster_on_every_dataset() {
        let r = fig7_report(Scale::Default, &Runtime::serial()).render_text();
        assert!(r.contains("D0") && r.contains("D7"));
        // All improvements strictly positive and under 40%.
        for line in r.lines() {
            // Data rows look like "D3  ..."; skip the "Dataset" header.
            if line.starts_with('D') && line.chars().nth(1).is_some_and(|c| c.is_ascii_digit()) {
                let imp = line.split_whitespace().last().unwrap();
                let v: f64 = imp.strip_suffix('%').unwrap().parse().unwrap();
                assert!(v > 3.0 && v < 40.0, "improvement {v}% in {line}");
            }
        }
    }

    #[test]
    fn figure8_ratio_near_two() {
        let r = fig8_report(Scale::Default, &Runtime::serial()).render_text();
        for line in r.lines() {
            if line.starts_with('D') && line.chars().nth(1).is_some_and(|c| c.is_ascii_digit()) {
                let ratio = line.split_whitespace().last().unwrap();
                let v: f64 = ratio.strip_suffix('x').unwrap().parse().unwrap();
                assert!((1.5..3.2).contains(&v), "ratio {v} in {line}");
            }
        }
    }
}
