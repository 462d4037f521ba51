//! Figure 3: relative error of individual add/multiply operations across
//! result-magnitude buckets, per format (box statistics).

use crate::Scale;
use compstat_bigfloat::Context;
use compstat_core::accuracy::{bucketed_accuracy, figure3_buckets, BucketAccuracy, OpKind};
use compstat_core::report::{fmt_f64, Report, Table};
use compstat_core::sample::{sample_additions, sample_multiplications, SampledOp};
use compstat_logspace::LogF64;
use compstat_posit::{P64E12, P64E18, P64E9};
use compstat_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FLOOR_LOG10: f64 = -18.5;

/// The Figure 3 format set, as dispatchable tags: each format's bucket
/// sweep (oracle-measured error per sampled op) is an independent work
/// item for the runtime.
#[derive(Clone, Copy)]
enum Fmt {
    B64,
    Log,
    P9,
    P12,
    P18,
}

const FMTS: [Fmt; 5] = [Fmt::B64, Fmt::Log, Fmt::P9, Fmt::P12, Fmt::P18];

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
        Fmt::P9 => (
            "posit(64,9)",
            bucketed_accuracy::<P64E9>(op, corpus, &buckets, FLOOR_LOG10, ctx),
        ),
        Fmt::P12 => (
            "posit(64,12)",
            bucketed_accuracy::<P64E12>(op, corpus, &buckets, FLOOR_LOG10, ctx),
        ),
        Fmt::P18 => (
            "posit(64,18)",
            bucketed_accuracy::<P64E18>(op, corpus, &buckets, FLOOR_LOG10, ctx),
        ),
    }
}

/// Registry name of this experiment.
pub const NAME: &str = "fig03";
/// Registry title of this experiment.
pub const TITLE: &str = "Figure 3: relative error of individual operations by magnitude bucket";

/// Runs the full Figure 3 experiment (both panels) and builds box
/// statistics per bucket per format. The per-format sweeps (the
/// oracle-measured error of every sampled op) run through `rt`;
/// reports are bitwise-identical for every thread count.
#[must_use]
pub fn report(scale: Scale, rt: &Runtime) -> Report {
    // Paper: 1,000,000 adds and 550,000 multiplies.
    let n_add = scale.pick(1_500, 24_000, 1_000_000);
    let n_mul = scale.pick(1_000, 16_000, 550_000);
    let ctx = Context::new(256);
    let mut rng = StdRng::seed_from_u64(3);
    let adds = sample_additions(&mut rng, n_add, -10_050, 0, 60, &ctx);
    let muls = sample_multiplications(&mut rng, n_mul, -10_050, 0, &ctx);

    let mut r = Report::new(NAME, TITLE, scale)
        .param("n_add", n_add)
        .param("n_mul", n_mul)
        .param("seed", 3);
    r.metric("n_add", n_add as f64);
    r.metric("n_mul", n_mul as f64);
    panel(&mut r, "(a) Addition", OpKind::Add, &adds, &ctx, rt);
    r.text("\n");
    panel(&mut r, "(b) Multiplication", OpKind::Mul, &muls, &ctx, rt);
    r
}

fn panel(
    r: &mut Report,
    title: &str,
    op: OpKind,
    corpus: &[SampledOp],
    ctx: &Context,
    rt: &Runtime,
) {
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
            // The paper omits binary64 outside its range (all underflow).
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
}

/// Extracts median log10 errors per (format, bucket) for assertions.
#[cfg(test)]
fn figure3_medians(
    op: OpKind,
    n: usize,
    seed: u64,
    rt: &Runtime,
) -> Vec<(&'static str, Vec<Option<f64>>)> {
    let ctx = Context::new(256);
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = match op {
        OpKind::Add => sample_additions(&mut rng, n, -10_050, 0, 60, &ctx),
        OpKind::Mul => sample_multiplications(&mut rng, n, -10_050, 0, &ctx),
    };
    rt.par_map(&FMTS, |fmt| {
        let (name, acc) = run_format(*fmt, op, &corpus, &ctx);
        let medians = acc
            .iter()
            .map(|a| a.stats.as_ref().map(|s| s.p50))
            .collect();
        (name, medians)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_both_panels() {
        let r = crate::find(NAME)
            .unwrap()
            .run(&Runtime::with_threads(2), Scale::Quick)
            .render_text();
        assert!(r.contains("(a) Addition"));
        assert!(r.contains("(b) Multiplication"));
        assert!(r.contains("[-10, 1)"));
        assert!(r.contains("(underflows)"));
    }

    #[test]
    fn paper_takeaways_hold_on_medians() {
        // Key takeaway 1: within binary64's normal range, log-space is
        // *less* accurate than binary64, and the gap grows as numbers
        // shrink. Key takeaway 2: outside the range, posits beat log.
        let med = figure3_medians(OpKind::Mul, 4_000, 17, &Runtime::from_env());
        let get = |name: &str| {
            med.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
                .expect("format present")
        };
        let b64 = get("binary64");
        let log = get("Log");
        let p18 = get("posit(64,18)");
        let p9 = get("posit(64,9)");
        // Bucket 7 = [-100, -10): binary64 more accurate than log.
        let (Some(b), Some(l)) = (b64[7], log[7]) else {
            panic!("missing medians")
        };
        assert!(b < l, "binary64 median {b} must beat log {l} in range");
        // Log accuracy degrades as magnitudes shrink within range:
        // bucket 5 [-1022,-500) worse than bucket 8 [-10, 1).
        let (Some(l5), Some(l8)) = (log[5], log[8]) else {
            panic!()
        };
        assert!(l5 > l8, "log error grows as numbers shrink: {l5} vs {l8}");
        // Outside binary64's range (bucket 2 = [-6000,-4000)): posit(64,18)
        // beats log.
        let (Some(p), Some(l2)) = (p18[2], log[2]) else {
            panic!()
        };
        assert!(p < l2, "posit(64,18) {p} must beat log {l2} out of range");
        // posit(64,9) is the most accurate format within binary64's range.
        let (Some(p9m), Some(bm)) = (p9[8], b64[8]) else {
            panic!()
        };
        assert!(
            p9m <= bm + 0.2,
            "posit(64,9) {p9m} ~ binary64 {bm} near 1.0"
        );
    }
}
