//! Figure 11: CDFs of final p-value relative error in LoFreq, split into
//! critical (p < 2^-200) and non-critical columns.

use crate::experiments::fig09_pvalues::{corpus_evals, FORMATS};
use crate::Scale;
use compstat_core::report::{fmt_f64, Report, Table};
use compstat_core::{Cdf, ErrorClass};
use compstat_pbd::CRITICAL_EXP;
use compstat_runtime::Runtime;

/// Registry name of this experiment.
pub const NAME: &str = "fig11";
/// Registry title of this experiment.
pub const TITLE: &str =
    "Figure 11: CDFs of LoFreq p-value relative error (critical vs non-critical)";

/// Builds both panels: CDF points per format for critical and
/// non-critical columns. The corpus evaluation (oracle plus per-format
/// errors) is fig09's, computed once per process through
/// [`corpus_evals`]; the report is bitwise-identical for every thread
/// count.
#[must_use]
pub fn report(scale: Scale, rt: &Runtime) -> Report {
    let evals = corpus_evals(scale, rt);

    let mut r = Report::new(NAME, TITLE, scale).param("columns", evals.len());
    for (panel, critical) in [
        ("(a) p-values < 2^-200 (critical)", true),
        ("(b) p-values >= 2^-200", false),
    ] {
        let mut per_format: Vec<Vec<f64>> = vec![Vec::new(); FORMATS.len()];
        for e in evals {
            let Some(exp) = e.oracle_exp else { continue };
            if (exp < CRITICAL_EXP) != critical {
                continue;
            }
            for (fi, (_, m)) in e.errors.iter().enumerate() {
                match m.class {
                    ErrorClass::Exact => per_format[fi].push(-18.5),
                    ErrorClass::Normal => per_format[fi].push(m.log10_rel),
                    // Underflows count as error 1 (log10 = 0) in the CDF.
                    ErrorClass::UnderflowToZero => per_format[fi].push(0.0),
                    ErrorClass::Invalid => {}
                }
            }
        }
        let cdfs: Vec<Cdf> = per_format.iter().map(|v| Cdf::new(v)).collect();
        let mut t = Table::new(
            std::iter::once("log10 rel err <=".to_string())
                .chain(FORMATS.iter().map(|f| (*f).to_string()))
                .collect(),
        );
        for x in [-16.0, -14.0, -12.0, -10.0, -8.0, -6.0] {
            let mut row = vec![fmt_f64(x, 0)];
            for c in &cdfs {
                row.push(if c.is_empty() {
                    "-".into()
                } else {
                    fmt_f64(c.fraction_at_most(x), 3)
                });
            }
            t.row(row);
        }
        let n = cdfs.iter().map(Cdf::len).max().unwrap_or(0);
        r.text(format!("{panel} — {n} columns\n"));
        r.table(t);
        r.text("\n");
        if critical {
            r.metric("critical_columns", n as f64);
            if !cdfs[3].is_empty() && !cdfs[1].is_empty() {
                r.metric(
                    "critical_posit12_below_1e10_pct",
                    cdfs[3].fraction_at_most(-10.0) * 100.0,
                );
                r.metric(
                    "critical_log_below_1e10_pct",
                    cdfs[1].fraction_at_most(-10.0) * 100.0,
                );
                r.text(format!(
                    "rel err < 1e-10: posit(64,12) {:.1}%, Log {:.1}% (paper: 99% vs 60%)\n\n",
                    cdfs[3].fraction_at_most(-10.0) * 100.0,
                    cdfs[1].fraction_at_most(-10.0) * 100.0
                ));
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_panel_shows_posit_advantage() {
        let evals = corpus_evals(Scale::Quick, &Runtime::from_env());
        // On critical columns the posit(64,12) error distribution must be
        // left of (better than) the Log distribution at the median.
        let collect = |fi: usize| -> Vec<f64> {
            evals
                .iter()
                .filter(|e| e.oracle_exp.is_some_and(|x| x < CRITICAL_EXP))
                .filter_map(|e| match e.errors[fi].1.class {
                    ErrorClass::Normal => Some(e.errors[fi].1.log10_rel),
                    ErrorClass::Exact => Some(-18.5),
                    ErrorClass::UnderflowToZero => Some(0.0),
                    ErrorClass::Invalid => None,
                })
                .collect()
        };
        let log = Cdf::new(&collect(1));
        let posit12 = Cdf::new(&collect(3));
        assert!(log.len() > 5, "need critical columns");
        assert!(
            posit12.quantile(0.5) < log.quantile(0.5),
            "posit(64,12) median {} vs Log {}",
            posit12.quantile(0.5),
            log.quantile(0.5)
        );
    }

    #[test]
    fn report_renders_both_panels() {
        let r = crate::find(NAME)
            .unwrap()
            .run(&Runtime::from_env(), Scale::Quick)
            .render_text();
        assert!(r.contains("(a)"));
        assert!(r.contains("(b)"));
        assert!(r.contains("posit(64,18)"));
    }
}
