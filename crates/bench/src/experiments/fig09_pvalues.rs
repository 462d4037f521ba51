//! Figure 9: accuracy of final p-values by magnitude bucket, and the
//! shared corpus-evaluation machinery reused by Figure 11.

use crate::Scale;
use compstat_bigfloat::{BigFloat, Context};
use compstat_core::accuracy::figure9_buckets;
use compstat_core::cache::{CacheKey, OracleCache};
use compstat_core::report::{fmt_f64, Report, Table};
use compstat_core::{BoxStats, ErrorClass, ErrorMeasurement, StatFloat};
use compstat_logspace::LogF64;
use compstat_pbd::{accuracy_corpus, Column};
use compstat_posit::{P64E12, P64E18, P64E9};
use compstat_runtime::Runtime;
use std::sync::OnceLock;

/// One evaluated column: the oracle p-value exponent plus each format's
/// error measurement.
#[derive(Clone, Debug)]
pub struct ColumnEval {
    /// Base-2 exponent of the oracle p-value (None if the p-value is 0,
    /// which does not occur).
    pub oracle_exp: Option<i64>,
    /// `(format name, measurement)` per format, in paper legend order.
    pub errors: Vec<(&'static str, ErrorMeasurement)>,
}

/// The format set of Figures 9/11.
pub const FORMATS: [&str; 5] = [
    "binary64",
    "Log",
    "posit(64,9)",
    "posit(64,12)",
    "posit(64,18)",
];

/// Evaluates every column in every format against the 256-bit oracle,
/// in parallel. The oracle sweep runs behind the persistent cache
/// ([`compstat_pbd::batch::oracle_pvalues_cached`]), so with a warm
/// cache the dominant pass is skipped entirely and either way the
/// evaluations are bit-for-bit the uncached ones. The per-format error
/// measurements always recompute (they are the cheap part and depend
/// on every format kernel under study). Results are in column order
/// and bitwise-identical for every thread count.
#[must_use]
pub fn evaluate_corpus_cached(
    columns: &[Column],
    ctx: &Context,
    rt: &Runtime,
    key: &CacheKey,
) -> Vec<ColumnEval> {
    let cache = OracleCache::from_runtime(rt);
    let oracles = compstat_pbd::batch::oracle_pvalues_cached(columns, ctx, rt, &cache, key);
    rt.par_map_index(columns.len(), |i| {
        let col = &columns[i];
        let oracle = &oracles[i];
        let errors = vec![
            ("binary64", measure_as::<f64>(col, oracle, ctx)),
            ("Log", measure_as::<LogF64>(col, oracle, ctx)),
            ("posit(64,9)", measure_as::<P64E9>(col, oracle, ctx)),
            ("posit(64,12)", measure_as::<P64E12>(col, oracle, ctx)),
            ("posit(64,18)", measure_as::<P64E18>(col, oracle, ctx)),
        ];
        ColumnEval {
            oracle_exp: oracle.exponent(),
            errors,
        }
    })
}

fn measure_as<T: StatFloat>(col: &Column, oracle: &BigFloat, ctx: &Context) -> ErrorMeasurement {
    let pv = col.pvalue_in::<T>();
    compstat_core::error::measure(oracle, &pv, ctx)
}

/// Seed of the default accuracy corpus (shared by Figures 9 and 11).
pub const CORPUS_SEED: u64 = 20_260_610;

/// Builds the default accuracy corpus for the given scale.
#[must_use]
pub fn corpus_for(scale: Scale) -> Vec<Column> {
    let count = scale.pick(40, 260, 2_000);
    accuracy_corpus(CORPUS_SEED, count)
}

/// Cache key of the default corpus's oracle sweep at `scale`.
///
/// Figures 9 and 11 evaluate the *same* corpus, so they share this key
/// deliberately: a cold fig09 run in one process warms fig11's oracle
/// pass in the next. Within one process they share [`corpus_evals`].
#[must_use]
pub fn corpus_cache_key(scale: Scale, columns: &[Column], ctx: &Context) -> CacheKey {
    compstat_pbd::batch::oracle_cache_key(
        "pbd-accuracy-corpus",
        scale.as_str(),
        CORPUS_SEED,
        columns,
        ctx,
    )
}

/// The default corpus at `scale`, evaluated by
/// [`evaluate_corpus_cached`] on the first call in this process: fig09
/// and fig11 both read it, so a run that prints both evaluates the
/// corpus once. The evaluations do not depend on the thread count, the
/// shard or the cache mode, so whichever runtime calls first serves
/// every later caller.
pub fn corpus_evals(scale: Scale, rt: &Runtime) -> &'static [ColumnEval] {
    static QUICK: OnceLock<Vec<ColumnEval>> = OnceLock::new();
    static DEFAULT: OnceLock<Vec<ColumnEval>> = OnceLock::new();
    static FULL: OnceLock<Vec<ColumnEval>> = OnceLock::new();
    let evals = match scale {
        Scale::Quick => &QUICK,
        Scale::Default => &DEFAULT,
        Scale::Full => &FULL,
    };
    evals.get_or_init(|| {
        let ctx = Context::new(256);
        let corpus = corpus_for(scale);
        let key = corpus_cache_key(scale, &corpus, &ctx);
        evaluate_corpus_cached(&corpus, &ctx, rt, &key)
    })
}

/// Registry name of this experiment.
pub const NAME: &str = "fig09";
/// Registry title of this experiment.
pub const TITLE: &str = "Figure 9: accuracy of final p-values by magnitude bucket";

/// Builds Figure 9: per-bucket box statistics of log10 relative error.
/// As in the paper, measurements with relative error >= 1 (saturation
/// blow-ups) are *excluded* from the boxes and reported as counts, which
/// is why posit(64,9) vanishes from the deepest buckets.
#[must_use]
pub fn report(scale: Scale, rt: &Runtime) -> Report {
    let evals = corpus_evals(scale, rt);
    let buckets = figure9_buckets();

    let mut t = Table::new(vec![
        "bucket (p-value exp)".into(),
        "format".into(),
        "p25".into(),
        "median".into(),
        "p75".into(),
        "n".into(),
        "excluded(>=1)".into(),
        "underflow".into(),
    ]);
    for bucket in &buckets {
        for (fi, fname) in FORMATS.iter().enumerate() {
            let mut vals = Vec::new();
            let mut excluded = 0usize;
            let mut underflow = 0usize;
            let mut total = 0usize;
            for e in evals {
                let Some(exp) = e.oracle_exp else { continue };
                if !bucket.contains(exp) {
                    continue;
                }
                total += 1;
                let m = e.errors[fi].1;
                match m.class {
                    ErrorClass::UnderflowToZero => underflow += 1,
                    ErrorClass::Invalid => excluded += 1,
                    _ if m.log10_rel >= 0.0 => excluded += 1,
                    ErrorClass::Exact => vals.push(-18.5),
                    ErrorClass::Normal => vals.push(m.log10_rel),
                }
            }
            let stats = BoxStats::from_samples(&vals);
            match stats {
                Some(s) => t.row(vec![
                    bucket.label(),
                    (*fname).into(),
                    fmt_f64(s.p25, 2),
                    fmt_f64(s.p50, 2),
                    fmt_f64(s.p75, 2),
                    total.to_string(),
                    excluded.to_string(),
                    underflow.to_string(),
                ]),
                None => t.row(vec![
                    bucket.label(),
                    (*fname).into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    total.to_string(),
                    excluded.to_string(),
                    underflow.to_string(),
                ]),
            }
        }
    }

    // Range-failure tallies (the paper's underflow counts: posit(64,9)
    // 132, posit(64,12) 2 of 222,131; ours scale with corpus size).
    let mut r = Report::new(NAME, TITLE, scale).param("columns", evals.len());
    let mut tallies = String::new();
    for (fi, fname) in FORMATS.iter().enumerate() {
        let under = evals
            .iter()
            .filter(|e| e.errors[fi].1.class == ErrorClass::UnderflowToZero)
            .count();
        let blown = evals
            .iter()
            .filter(|e| {
                e.errors[fi].1.class == ErrorClass::Normal && e.errors[fi].1.log10_rel >= 0.0
            })
            .count();
        if fi == 0 {
            r.metric("binary64_underflows", under as f64);
        }
        tallies.push_str(&format!(
            "{fname}: {under} underflows, {blown} results with relative error >= 1\n"
        ));
    }
    r.table(t);
    r.text(format!("\n{tallies}"));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_reproduces_headline_effects() {
        let evals = corpus_evals(Scale::Quick, &Runtime::from_env());
        // binary64 underflows on every column whose p-value is below
        // 2^-1074.
        for e in evals {
            let Some(exp) = e.oracle_exp else { continue };
            if exp < -1_080 {
                assert_eq!(
                    e.errors[0].1.class,
                    ErrorClass::UnderflowToZero,
                    "binary64 at exp {exp}"
                );
                // posit(64,18) never underflows in this corpus.
                assert_ne!(e.errors[4].1.class, ErrorClass::UnderflowToZero);
            }
        }
        // posit(64,12) beats Log on most in-range critical columns.
        let mut posit_wins = 0;
        let mut total = 0;
        for e in evals {
            let Some(exp) = e.oracle_exp else { continue };
            if (-100_000..-200).contains(&exp) {
                let log_err = e.errors[1].1.log10_rel;
                let posit_err = e.errors[3].1.log10_rel;
                if posit_err.is_finite() && log_err.is_finite() {
                    total += 1;
                    if posit_err < log_err {
                        posit_wins += 1;
                    }
                }
            }
        }
        assert!(total > 3, "need critical columns, got {total}");
        assert!(
            posit_wins * 3 >= total * 2,
            "posit(64,12) should beat Log on >=2/3 of critical columns: {posit_wins}/{total}"
        );
    }

    #[test]
    fn report_renders() {
        let r = crate::find(NAME)
            .unwrap()
            .run(&Runtime::from_env(), Scale::Quick)
            .render_text();
        assert!(r.contains("[-200, 1)"));
        assert!(r.contains("underflows"));
    }
}
