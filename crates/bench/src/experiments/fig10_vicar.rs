//! Figure 10: CDFs of the relative error of final VICAR likelihoods,
//! Log vs posit(64,18), at two sequence lengths.
//!
//! Scaling note: the paper runs T = 100,000 / 500,000
//! with 512 Dirichlet-sampled (A, B) pairs across H in {13,32,64,128};
//! software posit emulation makes that infeasible here, so the default
//! scale runs shorter sequences and fewer models. The likelihoods still
//! sit tens of thousands of binades below binary64's range, which is the
//! regime the figure studies.

use crate::Scale;
use compstat_bigfloat::Context;
use compstat_core::error::measure;
use compstat_core::report::{fmt_f64, Report, Table};
use compstat_core::Cdf;
use compstat_hmm::{forward, forward_log, DirichletSweep};
use compstat_posit::P64E18;
use compstat_runtime::Runtime;

/// Number of observation symbols in the VICAR models (public so the
/// `compstat bench` timing suite can reproduce the exact oracle sweep).
pub const SYMBOLS: usize = 16;
/// Dirichlet concentration of the sampled (A, B) rows.
pub const ALPHA: f64 = 0.8;

/// Error samples for one sequence length.
#[derive(Clone, Debug)]
pub struct VicarErrors {
    /// Sequence length.
    pub t_len: usize,
    /// log10 relative errors per format.
    pub log_errors: Vec<f64>,
    /// posit(64,18) errors.
    pub posit_errors: Vec<f64>,
}

/// The oracle sweep behind one panel: `models` Dirichlet HMMs with
/// `h` states, sequences of length `t_len`, drawn from `seed`. Shared
/// with the `compstat bench` timing suite, whose `oracle/fig10` rows
/// time exactly this sweep.
#[must_use]
pub fn oracle_sweep(t_len: usize, models: usize, h: usize, seed: u64) -> DirichletSweep {
    DirichletSweep {
        experiment: NAME,
        t_len,
        models,
        states: h,
        symbols: SYMBOLS,
        alpha: ALPHA,
        seed,
    }
}

/// The seed of the panel with sequence length `t_len`.
#[must_use]
pub fn panel_seed(t_len: usize) -> u64 {
    0xF16_0000 + t_len as u64
}

/// Runs the experiment for one T across `models` Dirichlet HMMs,
/// in parallel.
///
/// This is the harness's RNG-dependent sweep: model `i` draws its
/// `(A, B)` matrices *and* its observation sequence from stream
/// `base.split(i)` (the vendored xoshiro's jump-equivalent reseeding),
/// so the sampled corpus — and therefore every error value — is
/// bitwise-identical no matter how many threads `rt` uses.
#[must_use]
pub fn vicar_errors(t_len: usize, models: usize, h: usize, seed: u64, rt: &Runtime) -> VicarErrors {
    let ctx = Context::new(256);
    let sweep = oracle_sweep(t_len, models, h, seed);

    // The 256-bit oracle pass — the cost-dominant half — runs as its
    // own seeded sweep so the persistent cache can absorb it whole
    // (in N parts on a sharded runtime).
    let oracles = sweep.oracle_cached(&ctx, rt);

    // The format pass redraws each item from its stream, so
    // `oracles[i]` is the oracle likelihood of the very inputs item `i`
    // evaluates (cheap next to a 256-bit forward pass, and it keeps the
    // sweep's memory per-item instead of materializing every sequence).
    let errors: Vec<(f64, f64)> = rt.par_map_seeded(models, &sweep.base(), |i, stream| {
        let (model, obs) = sweep.draw(stream);
        let l = forward_log(&model, &obs);
        let p: P64E18 = forward(&model.prepare(), &obs);
        (
            measure(&oracles[i], &l, &ctx).log10_rel,
            measure(&oracles[i], &p, &ctx).log10_rel,
        )
    });
    let (log_errors, posit_errors) = errors.into_iter().unzip();
    VicarErrors {
        t_len,
        log_errors,
        posit_errors,
    }
}

/// The scale-determined workload of the figure:
/// `(t_short, t_long, models, states)`. Shared with the `compstat
/// bench` timing suite so its `oracle/fig10` entry times exactly the
/// sweep the experiment runs.
#[must_use]
pub fn scale_params(scale: Scale) -> (usize, usize, usize, usize) {
    // Stand-ins for the paper's T = 100,000 and 500,000.
    let (t1, t2) = match scale {
        Scale::Quick => (1_500, 4_000),
        Scale::Default => (8_000, 30_000),
        Scale::Full => (100_000, 500_000),
    };
    (t1, t2, scale.pick(4, 10, 128), scale.pick(4, 8, 13))
}

/// Registry name of this experiment.
pub const NAME: &str = "fig10";
/// Registry title of this experiment.
pub const TITLE: &str = "Figure 10: CDFs of VICAR likelihood relative error (Log vs posit)";

/// Builds the two CDFs (Figure 10a/10b) plus the paper's headline
/// statistic (fraction of results with relative error < 1e-8).
#[must_use]
pub fn report(scale: Scale, rt: &Runtime) -> Report {
    let (t1, t2, models, h) = scale_params(scale);

    let mut r = Report::new(NAME, TITLE, scale)
        .param("t_short", t1)
        .param("t_long", t2)
        .param("models", models)
        .param("states", h);
    for (panel, t_len, med_key) in [
        ("(a)", t1, "median_gap_decades_short"),
        ("(b)", t2, "median_gap_decades_long"),
    ] {
        let e = vicar_errors(t_len, models, h, panel_seed(t_len), rt);
        let log_cdf = Cdf::new(&e.log_errors);
        let posit_cdf = Cdf::new(&e.posit_errors);
        let mut table = Table::new(vec![
            "log10 rel err <=".into(),
            "Log fraction".into(),
            "posit(64,18) fraction".into(),
        ]);
        for x in [-14.0, -12.0, -10.0, -8.0, -6.0, -4.0] {
            table.row(vec![
                fmt_f64(x, 0),
                fmt_f64(log_cdf.fraction_at_most(x), 3),
                fmt_f64(posit_cdf.fraction_at_most(x), 3),
            ]);
        }
        r.metric(med_key, log_cdf.quantile(0.5) - posit_cdf.quantile(0.5));
        r.text(format!(
            "{panel} T = {t_len}, H = {h}, {models} (A,B) models\n"
        ));
        r.table(table);
        r.text(format!(
            "\nmedians: Log {:.2}, posit(64,18) {:.2}; \
             rel err < 1e-8: Log {:.1}%, posit {:.1}% (paper at T=500k: 2.4% vs 100%)\n\n",
            log_cdf.quantile(0.5),
            posit_cdf.quantile(0.5),
            log_cdf.fraction_at_most(-8.0) * 100.0,
            posit_cdf.fraction_at_most(-8.0) * 100.0,
        ));
    }
    r
}

/// [`report`] rendered as text (the pre-engine report surface).
#[must_use]
pub fn figure10_report(scale: Scale, rt: &Runtime) -> String {
    report(scale, rt).render_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posit_beats_log_by_orders_of_magnitude() {
        // The decade gap grows with T (log-space spends fraction bits on
        // magnitude as |ln L| grows; the paper's 2-decade figure is at
        // T=500k). At T=6,000 require at least one full decade.
        let e = vicar_errors(6_000, 6, 4, 7, &Runtime::from_env());
        let log_med = Cdf::new(&e.log_errors).quantile(0.5);
        let posit_med = Cdf::new(&e.posit_errors).quantile(0.5);
        assert!(
            posit_med <= log_med - 0.7,
            "posit median {posit_med} vs log {log_med}"
        );
    }

    #[test]
    fn errors_grow_with_t_for_log() {
        let rt = Runtime::from_env();
        let short = vicar_errors(1_000, 3, 4, 7, &rt);
        let long = vicar_errors(4_000, 3, 4, 7, &rt);
        let ms = Cdf::new(&short.log_errors).quantile(0.5);
        let ml = Cdf::new(&long.log_errors).quantile(0.5);
        assert!(
            ml >= ms - 0.3,
            "log error should not shrink with T: {ms} -> {ml}"
        );
    }

    #[test]
    fn report_renders() {
        let r = figure10_report(Scale::Quick, &Runtime::from_env());
        assert!(r.contains("(a)"));
        assert!(r.contains("(b)"));
        assert!(r.contains("rel err < 1e-8"));
    }
}
