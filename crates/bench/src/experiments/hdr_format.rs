//! The `hdr` experiment: the tiered backend's HDR float (binary64
//! mantissa + software `i64` exponent) as a new point in the paper's
//! format–accuracy trade-off space.
//!
//! The paper compares 64-bit formats that trade mantissa bits for
//! range (posit tapering, log-space spending fraction bits on
//! magnitude). `hdr(53)` is the opposite corner: keep binary64's full
//! 53-bit mantissa *everywhere* and pay 64 extra bits for an explicit
//! exponent. This experiment measures where that lands:
//!
//! * **(a)/(b)** — the Figure 3 op sweep (add / multiply by result
//!   magnitude bucket), `hdr(53)` against binary64, Log, and
//!   posit(64,18);
//! * **(c)** — a Figure 10-style forward pass: relative-error CDFs of
//!   final Dirichlet-HMM likelihoods against the 256-bit oracle;
//! * **(d)** — the Figure 1 exponent trace run on the tiered fast tier
//!   (`prec = 53`) versus the 192-bit oracle trace, locking the
//!   tiering seam of the precision ladder.
//!
//! The oracle sweep is cached under this experiment's own name, so it
//! never shares entries with the VICAR (`fig10`) sweep.

use crate::Scale;
use compstat_bigfloat::{Context, HdrFloat};
use compstat_core::accuracy::{bucketed_accuracy, figure3_buckets, BucketAccuracy, OpKind};
use compstat_core::cache::OracleCache;
use compstat_core::error::measure;
use compstat_core::report::{fmt_f64, Report, Table};
use compstat_core::sample::{sample_additions, sample_multiplications, SampledOp};
use compstat_core::Cdf;
use compstat_hmm::{
    dirichlet_hmm, forward, forward_log, forward_trace_rt, uniform_observations, DirichletSweep,
};
use compstat_logspace::LogF64;
use compstat_posit::P64E18;
use compstat_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Registry name of this experiment.
pub const NAME: &str = "hdr";
/// Registry title of this experiment.
pub const TITLE: &str =
    "HDR float: binary64 mantissa with a software exponent vs Log/posit and the 256-bit oracle";

/// Observation symbols of the forward-pass models (same geometry as
/// the VICAR sweep, independently declared).
pub const SYMBOLS: usize = 16;
/// Dirichlet concentration of the sampled (A, B) rows.
pub const ALPHA: f64 = 0.8;

const FLOOR_LOG10: f64 = -18.5;
/// Seed of the op-sweep corpus (this experiment's own stream; fig03
/// keeps seed 3).
const OP_SEED: u64 = 29;
/// Seed of the forward-pass sweep.
const FWD_SEED: u64 = 0x4D8_0001;

/// The format set of panels (a)–(c): the paper's in-range champion
/// (binary64), both range-extending 64-bit formats, and hdr(53).
#[derive(Clone, Copy)]
enum Fmt {
    B64,
    Log,
    P18,
    Hdr,
}

const FMTS: [Fmt; 4] = [Fmt::B64, Fmt::Log, Fmt::P18, Fmt::Hdr];

fn run_format(
    fmt: Fmt,
    op: OpKind,
    corpus: &[SampledOp],
    ctx: &Context,
) -> (&'static str, Vec<BucketAccuracy>) {
    let buckets = figure3_buckets();
    match fmt {
        Fmt::B64 => (
            "binary64",
            bucketed_accuracy::<f64>(op, corpus, &buckets, FLOOR_LOG10, ctx),
        ),
        Fmt::Log => (
            "Log",
            bucketed_accuracy::<LogF64>(op, corpus, &buckets, FLOOR_LOG10, ctx),
        ),
        Fmt::P18 => (
            "posit(64,18)",
            bucketed_accuracy::<P64E18>(op, corpus, &buckets, FLOOR_LOG10, ctx),
        ),
        Fmt::Hdr => (
            "hdr(53)",
            bucketed_accuracy::<HdrFloat>(op, corpus, &buckets, FLOOR_LOG10, ctx),
        ),
    }
}

/// The scale-determined forward-pass workload: `(t_len, models, h)`.
#[must_use]
pub fn scale_params(scale: Scale) -> (usize, usize, usize) {
    (
        scale.pick(1_200, 8_000, 100_000),
        scale.pick(4, 8, 64),
        scale.pick(4, 6, 13),
    )
}

/// log10 relative errors of final likelihoods per format.
#[derive(Clone, Debug)]
pub struct HdrErrors {
    /// hdr(53) errors.
    pub hdr: Vec<f64>,
    /// Log (LSE log-space) errors.
    pub log: Vec<f64>,
    /// posit(64,18) errors.
    pub posit: Vec<f64>,
}

/// Runs the forward-pass sweep: `models` Dirichlet HMMs, each model's
/// matrices and observations drawn from stream `base.split(i)`, so
/// every error value is bitwise-identical at any thread count. The
/// 256-bit oracle pass is cached (sharded-aware) under this
/// experiment's own name.
#[must_use]
fn hdr_errors(t_len: usize, models: usize, h: usize, seed: u64, rt: &Runtime) -> HdrErrors {
    let ctx = Context::new(256);
    let sweep = DirichletSweep {
        experiment: NAME,
        t_len,
        models,
        states: h,
        symbols: SYMBOLS,
        alpha: ALPHA,
        seed,
    };
    let oracles = sweep.oracle_cached(&ctx, rt, &OracleCache::from_runtime(rt));
    let errors: Vec<(f64, f64, f64)> = rt.par_map_seeded(models, &sweep.base(), |i, stream| {
        let (model, obs) = sweep.draw(stream);
        let hd: HdrFloat = forward(&model.prepare(), &obs);
        let l = forward_log(&model, &obs);
        let p: P64E18 = forward(&model.prepare(), &obs);
        (
            measure(&oracles[i], &hd, &ctx).log10_rel,
            measure(&oracles[i], &l, &ctx).log10_rel,
            measure(&oracles[i], &p, &ctx).log10_rel,
        )
    });
    let mut out = HdrErrors {
        hdr: Vec::with_capacity(models),
        log: Vec::with_capacity(models),
        posit: Vec::with_capacity(models),
    };
    for (hd, l, p) in errors {
        out.hdr.push(hd);
        out.log.push(l);
        out.posit.push(p);
    }
    out
}

/// Builds the full report (all four panels).
#[must_use]
pub fn report(scale: Scale, rt: &Runtime) -> Report {
    let n_add = scale.pick(1_200, 16_000, 400_000);
    let n_mul = scale.pick(800, 12_000, 250_000);
    let (t_len, models, h) = scale_params(scale);
    let ctx = Context::new(256);
    let mut rng = StdRng::seed_from_u64(OP_SEED);
    let adds = sample_additions(&mut rng, n_add, -10_050, 0, 60, &ctx);
    let muls = sample_multiplications(&mut rng, n_mul, -10_050, 0, &ctx);

    let mut r = Report::new(NAME, TITLE, scale)
        .param("n_add", n_add)
        .param("n_mul", n_mul)
        .param("t_len", t_len)
        .param("models", models)
        .param("states", h)
        .param("op_seed", OP_SEED)
        .param("fwd_seed", FWD_SEED);

    // (a)/(b): the Figure 3 op sweep with hdr(53) in the line-up.
    let add_results = panel(&mut r, "(a) Addition", OpKind::Add, &adds, &ctx, rt);
    r.text("\n");
    let mul_results = panel(&mut r, "(b) Multiplication", OpKind::Mul, &muls, &ctx, rt);
    // Headline medians: hdr in the deep out-of-range bucket
    // [-6000, -4000) and the near-1 bucket [-10, 1).
    for (metric, results, bucket) in [
        ("hdr_add_median_out_of_range", &add_results, 2usize),
        ("hdr_add_median_in_range", &add_results, 8usize),
        ("hdr_mul_median_out_of_range", &mul_results, 2usize),
        ("hdr_mul_median_in_range", &mul_results, 8usize),
    ] {
        if let Some(m) = median_of(results, "hdr(53)", bucket) {
            r.metric(metric, m);
        }
    }

    // (c): forward-pass CDFs against the 256-bit oracle.
    let e = hdr_errors(t_len, models, h, FWD_SEED, rt);
    let hdr_cdf = Cdf::new(&e.hdr);
    let log_cdf = Cdf::new(&e.log);
    let posit_cdf = Cdf::new(&e.posit);
    let mut table = Table::new(vec![
        "log10 rel err <=".into(),
        "hdr(53) fraction".into(),
        "Log fraction".into(),
        "posit(64,18) fraction".into(),
    ]);
    for x in [-14.0, -12.0, -10.0, -8.0, -6.0, -4.0] {
        table.row(vec![
            fmt_f64(x, 0),
            fmt_f64(hdr_cdf.fraction_at_most(x), 3),
            fmt_f64(log_cdf.fraction_at_most(x), 3),
            fmt_f64(posit_cdf.fraction_at_most(x), 3),
        ]);
    }
    r.text(format!(
        "(c) Forward pass: T = {t_len}, H = {h}, {models} (A,B) models\n"
    ));
    r.table(table);
    r.text(format!(
        "\nmedians: hdr(53) {:.2}, Log {:.2}, posit(64,18) {:.2}\n\n",
        hdr_cdf.quantile(0.5),
        log_cdf.quantile(0.5),
        posit_cdf.quantile(0.5),
    ));
    r.metric("forward_median_hdr", hdr_cdf.quantile(0.5));
    r.metric("forward_median_log", log_cdf.quantile(0.5));
    r.metric("forward_median_posit", posit_cdf.quantile(0.5));

    // (d): the Figure 1 exponent trace on the tiered fast tier.
    let mut trng = StdRng::seed_from_u64(FWD_SEED ^ 0xD);
    let tmodel = dirichlet_hmm(&mut trng, h, SYMBOLS, ALPHA);
    let tobs = uniform_observations(&mut trng, SYMBOLS, t_len);
    let stride = (t_len / 16).max(1);
    let fast = forward_trace_rt(&tmodel, &tobs, &Context::new(53), stride, rt);
    let oracle = forward_trace_rt(&tmodel, &tobs, &Context::new(192), stride, rt);
    let max_dev = fast
        .iter()
        .zip(&oracle)
        .map(|(f, o)| (f.exponent - o.exponent).unsigned_abs())
        .max()
        .unwrap_or(0);
    let final_exp = oracle.last().map_or(0, |p| p.exponent);
    r.text(format!(
        "(d) Exponent trace, tiered prec=53 vs 192-bit oracle: {} points, \
         final exponent {final_exp}, max |deviation| {max_dev} binades\n",
        fast.len()
    ));
    r.metric("trace_points", fast.len() as f64);
    r.metric("trace_final_exponent", final_exp as f64);
    r.metric("trace_max_exponent_dev", max_dev as f64);
    r
}

fn median_of(results: &[(&str, Vec<BucketAccuracy>)], name: &str, bucket: usize) -> Option<f64> {
    results
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, acc)| acc[bucket].stats.as_ref().map(|s| s.p50))
}

fn panel<'a>(
    r: &mut Report,
    title: &str,
    op: OpKind,
    corpus: &[SampledOp],
    ctx: &Context,
    rt: &Runtime,
) -> Vec<(&'a str, Vec<BucketAccuracy>)> {
    let buckets = figure3_buckets();
    let results: Vec<(&str, Vec<BucketAccuracy>)> =
        rt.par_map(&FMTS, |fmt| run_format(*fmt, op, corpus, ctx));
    let mut t = Table::new(vec![
        "bucket (result exp)".into(),
        "format".into(),
        "p5".into(),
        "p25".into(),
        "median".into(),
        "p75".into(),
        "p95".into(),
        "n".into(),
        "underflow".into(),
    ]);
    for (bi, bucket) in buckets.iter().enumerate() {
        for (name, acc) in &results {
            let a = &acc[bi];
            if *name == "binary64" && a.total > 0 && a.underflows == a.total {
                t.row(vec![
                    bucket.label(),
                    (*name).into(),
                    "(underflows)".into(),
                    "".into(),
                    "".into(),
                    "".into(),
                    "".into(),
                    a.total.to_string(),
                    a.underflows.to_string(),
                ]);
                continue;
            }
            match &a.stats {
                Some(s) => t.row(vec![
                    bucket.label(),
                    (*name).into(),
                    fmt_f64(s.p5, 2),
                    fmt_f64(s.p25, 2),
                    fmt_f64(s.p50, 2),
                    fmt_f64(s.p75, 2),
                    fmt_f64(s.p95, 2),
                    a.total.to_string(),
                    a.underflows.to_string(),
                ]),
                None => t.row(vec![
                    bucket.label(),
                    (*name).into(),
                    "-".into(),
                    "".into(),
                    "".into(),
                    "".into(),
                    "".into(),
                    a.total.to_string(),
                    a.underflows.to_string(),
                ]),
            }
        }
    }
    r.text(format!(
        "{title} — log10(relative error), five-number summaries\n"
    ));
    r.table(t);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdr_keeps_binary64_accuracy_out_of_range() {
        // The format's claim: full 53-bit mantissa at any magnitude.
        // In the deep out-of-range bucket hdr must beat both Log and
        // posit(64,18); in the near-1 bucket it must match binary64.
        let ctx = Context::new(256);
        let mut rng = StdRng::seed_from_u64(41);
        let muls = sample_multiplications(&mut rng, 4_000, -10_050, 0, &ctx);
        let results =
            Runtime::from_env().par_map(&FMTS, |fmt| run_format(*fmt, OpKind::Mul, &muls, &ctx));
        let get = |name: &str, b: usize| median_of(&results, name, b).expect("median");
        assert!(
            get("hdr(53)", 2) < get("Log", 2),
            "hdr {} must beat log {} out of range",
            get("hdr(53)", 2),
            get("Log", 2)
        );
        assert!(
            get("hdr(53)", 2) <= get("posit(64,18)", 2),
            "hdr {} must beat posit {} out of range",
            get("hdr(53)", 2),
            get("posit(64,18)", 2)
        );
        assert!(
            (get("hdr(53)", 8) - get("binary64", 8)).abs() < 0.2,
            "hdr {} ~ binary64 {} near 1.0",
            get("hdr(53)", 8),
            get("binary64", 8)
        );
    }

    #[test]
    fn forward_hdr_beats_log_space() {
        let e = hdr_errors(2_000, 4, 4, 11, &Runtime::from_env());
        let hdr_med = Cdf::new(&e.hdr).quantile(0.5);
        let log_med = Cdf::new(&e.log).quantile(0.5);
        assert!(
            hdr_med <= log_med - 1.0,
            "hdr median {hdr_med} vs log {log_med}"
        );
    }

    #[test]
    fn report_renders_all_panels() {
        let r = report(Scale::Quick, &Runtime::from_env()).render_text();
        assert!(r.contains("(a) Addition"));
        assert!(r.contains("(b) Multiplication"));
        assert!(r.contains("(c) Forward pass"));
        assert!(r.contains("(d) Exponent trace"));
        assert!(r.contains("hdr(53)"));
    }
}
