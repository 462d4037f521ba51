//! The forward algorithm in every number system under study.
//!
//! * [`forward`] — Listing 1, generic over [`StatFloat`] (binary64,
//!   posit configurations, and even log-space via its LSE `add`);
//! * [`forward_log`] — Listing 3, the explicit log-space formulation
//!   with n-ary LSE, as the paper's log accelerators implement it;
//! * [`forward_oracle`] — the 256-bit reference result;
//! * [`forward_scaled`] — the per-step rescaling baseline discussed in
//!   Section VII (Related Works);
//! * [`forward_trace`] — the Figure 1 experiment: the base-2 exponent of
//!   the `alpha` vector over iterations, tracked exactly.

use crate::model::{Hmm, PreparedHmm};
use compstat_bigfloat::{BigFloat, Context, Tiered, TieredCtx};
use compstat_core::StatFloat;
use compstat_logspace::{log_sum_exp, LogF64};

/// The forward algorithm (Listing 1): returns `P(O | lambda)`.
///
/// Sequential accumulation in the innermost loop mirrors the software
/// reference; the accelerator's reduction tree reassociates it, which is
/// measured separately by the FPGA model.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward<T: StatFloat>(model: &PreparedHmm<T>, obs: &[usize]) -> T {
    let h = model.num_states();
    let mut alpha_prev: Vec<T> = Vec::with_capacity(h);
    let mut alpha: Vec<T> = vec![T::zero(); h];
    let Some((&o0, rest)) = obs.split_first() else {
        return T::one(); // empty observation: probability 1
    };
    assert!(o0 < model.num_symbols(), "observation symbol out of range");
    for q in 0..h {
        alpha_prev.push(model.pi(q).mul(model.b(q, o0)));
    }
    for &ot in rest {
        assert!(ot < model.num_symbols(), "observation symbol out of range");
        for q in 0..h {
            let mut path_sum = T::zero();
            for p in 0..h {
                let term = alpha_prev[p].mul(model.a(p, q));
                path_sum = path_sum.add(term);
            }
            alpha[q] = path_sum.mul(model.b(q, ot));
        }
        core::mem::swap(&mut alpha, &mut alpha_prev);
    }
    let mut likelihood = T::zero();
    for q in 0..h {
        likelihood = likelihood.add(alpha_prev[q]);
    }
    likelihood
}

/// The forward algorithm in explicit log-space (Listing 3): `ln_A` and
/// `ln_B` are precomputed logs, the inner reduction is an H-ary LSE, and
/// the result is the log-likelihood.
#[must_use]
pub fn forward_log(model: &Hmm, obs: &[usize]) -> LogF64 {
    let h = model.num_states();
    // Pre-computed logarithm matrices (Listing 3's ln_A / ln_B).
    let prepared: PreparedHmm<LogF64> = model.prepare();
    let Some((&o0, rest)) = obs.split_first() else {
        return LogF64::ONE;
    };
    assert!(o0 < model.num_symbols(), "observation symbol out of range");
    let mut alpha_prev: Vec<LogF64> = (0..h).map(|q| prepared.pi(q) * prepared.b(q, o0)).collect();
    let mut terms: Vec<LogF64> = vec![LogF64::ZERO; h];
    let mut alpha: Vec<LogF64> = vec![LogF64::ZERO; h];
    for &ot in rest {
        assert!(ot < model.num_symbols(), "observation symbol out of range");
        for q in 0..h {
            for p in 0..h {
                // term = alpha_prev[p] + ln_a (log-space add = mul).
                terms[p] = alpha_prev[p] * prepared.a(p, q);
            }
            let path_sum = log_sum_exp(&terms);
            alpha[q] = path_sum * prepared.b(q, ot);
        }
        core::mem::swap(&mut alpha, &mut alpha_prev);
    }
    log_sum_exp(&alpha_prev)
}

/// The 256-bit oracle forward pass: the baseline "correct value" for
/// every accuracy figure.
///
/// # Panics
///
/// Panics if any observation symbol is out of range (same message as
/// [`forward`]).
#[must_use]
pub fn forward_oracle(model: &Hmm, obs: &[usize], ctx: &Context) -> BigFloat {
    let h = model.num_states();
    let a: Vec<BigFloat> = (0..h * h)
        .map(|i| BigFloat::from_f64(model.a(i / h, i % h)))
        .collect();
    let b: Vec<BigFloat> = (0..h * model.num_symbols())
        .map(|i| BigFloat::from_f64(model.b(i / model.num_symbols(), i % model.num_symbols())))
        .collect();
    let Some((&o0, rest)) = obs.split_first() else {
        return BigFloat::one();
    };
    let m = model.num_symbols();
    assert!(o0 < m, "observation symbol out of range");
    let mut alpha_prev: Vec<BigFloat> = (0..h)
        .map(|q| ctx.mul(&BigFloat::from_f64(model.pi(q)), &b[q * m + o0]))
        .collect();
    let mut alpha: Vec<BigFloat> = vec![BigFloat::zero(); h];
    for &ot in rest {
        assert!(ot < m, "observation symbol out of range");
        for q in 0..h {
            // Seeding with the first term is bit-identical to adding it
            // to zero: that add only re-rounds a value already at `prec`.
            let mut path_sum = ctx.mul(&alpha_prev[0], &a[q]);
            for p in 1..h {
                let term = ctx.mul(&alpha_prev[p], &a[p * h + q]);
                path_sum = ctx.add(&path_sum, &term);
            }
            alpha[q] = ctx.mul(&path_sum, &b[q * m + ot]);
        }
        core::mem::swap(&mut alpha, &mut alpha_prev);
    }
    ctx.sum(alpha_prev.iter())
}

/// Result of the rescaling forward pass ([`forward_scaled`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaledForward {
    /// Natural log of the likelihood, accumulated in `f64`.
    pub ln_likelihood: f64,
    /// Number of rescaling events (every step rescales by `1/sum`).
    pub rescales: usize,
}

/// The rescaling baseline (Section VII, "Rescaling ... prevents underflow
/// by multiplying small numbers with a scaling factor"): alpha is
/// renormalized to sum 1 after every step and the log of the scale is
/// accumulated. Works entirely in binary64.
///
/// # Panics
///
/// Panics if any observation symbol is out of range — with the same
/// message as [`forward`] and [`forward_log`], so callers can rely on
/// one diagnostic across the kernel family.
#[must_use]
pub fn forward_scaled(model: &Hmm, obs: &[usize]) -> ScaledForward {
    let h = model.num_states();
    let Some((&o0, rest)) = obs.split_first() else {
        return ScaledForward {
            ln_likelihood: 0.0,
            rescales: 0,
        };
    };
    assert!(o0 < model.num_symbols(), "observation symbol out of range");
    let mut alpha_prev: Vec<f64> = (0..h).map(|q| model.pi(q) * model.b(q, o0)).collect();
    let mut alpha: Vec<f64> = vec![0.0; h];
    let mut ln_l = 0.0;
    let mut rescales = 0;
    let rescale = |v: &mut Vec<f64>, ln_l: &mut f64, rescales: &mut usize| {
        let s: f64 = v.iter().sum();
        if s > 0.0 {
            *ln_l += s.ln();
            for x in v.iter_mut() {
                *x /= s;
            }
            *rescales += 1;
        }
    };
    rescale(&mut alpha_prev, &mut ln_l, &mut rescales);
    for &ot in rest {
        assert!(ot < model.num_symbols(), "observation symbol out of range");
        for q in 0..h {
            let mut path_sum = 0.0;
            for p in 0..h {
                path_sum += alpha_prev[p] * model.a(p, q);
            }
            alpha[q] = path_sum * model.b(q, ot);
        }
        core::mem::swap(&mut alpha, &mut alpha_prev);
        rescale(&mut alpha_prev, &mut ln_l, &mut rescales);
    }
    ScaledForward {
        ln_likelihood: ln_l,
        rescales,
    }
}

/// One point of the Figure 1 trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracePoint {
    /// Iteration `t`.
    pub t: usize,
    /// Base-2 exponent of `sum(alpha_t)`, computed exactly.
    pub exponent: i64,
}

/// Reproduces Figure 1: runs the oracle forward pass and records the
/// base-2 exponent of the alpha mass at each iteration ("the experiment
/// is done using the MPFR arbitrary precision library so that the exact
/// exponent can be tracked even when numbers become extremely small").
///
/// `stride` controls how often points are recorded (1 = every step).
#[must_use]
pub fn forward_trace(model: &Hmm, obs: &[usize], ctx: &Context, stride: usize) -> Vec<TracePoint> {
    forward_trace_rt(
        model,
        obs,
        ctx,
        stride,
        &compstat_runtime::Runtime::serial(),
    )
}

/// [`forward_trace`] with an explicit runtime: the recurrence itself is
/// inherently sequential, but the per-snapshot exponent extraction
/// (a small-context oracle sum per recorded point) is an independent
/// map over snapshots and runs through `rt`. Point order and values are
/// bitwise-identical for every thread count.
///
/// Internally the recurrence runs on the tiered backend at the
/// context's precision: a ladder rung at `prec <= 53` computes on
/// hardware `f64` ([`Tiered`]'s fast tier, bit-identical to the 53-bit
/// [`Context`]), while higher precisions — including the oracle-grade
/// 192-bit trace of Figure 1 — delegate to [`Context`] unchanged, so
/// recorded exponents are byte-for-byte what the pure-BigFloat path
/// produced.
#[must_use]
pub fn forward_trace_rt(
    model: &Hmm,
    obs: &[usize],
    ctx: &Context,
    stride: usize,
    rt: &compstat_runtime::Runtime,
) -> Vec<TracePoint> {
    let stride = stride.max(1);
    let h = model.num_states();
    let m = model.num_symbols();
    let Some((&o0, rest)) = obs.split_first() else {
        return Vec::new();
    };
    let tctx = TieredCtx::new(ctx.prec());
    let a: Vec<Tiered> = (0..h * h)
        .map(|i| tctx.from_f64(model.a(i / h, i % h)))
        .collect();
    let b: Vec<Tiered> = (0..h * m)
        .map(|i| tctx.from_f64(model.b(i / m, i % m)))
        .collect();
    let mut alpha_prev: Vec<Tiered> = (0..h)
        .map(|q| tctx.mul(&tctx.from_f64(model.pi(q)), &b[q * m + o0]))
        .collect();
    let mut alpha: Vec<Tiered> = vec![tctx.zero(); h];
    // The sequential recurrence snapshots alpha at recorded iterations;
    // the exponent extraction (one small-context oracle sum per
    // snapshot) is an independent map and flushes through `rt` in
    // bounded batches, so memory stays O(batch * H) even at stride 1
    // while snapshot order keeps the output identical to a serial run.
    const FLUSH_BATCH: usize = 256;
    let mut snapshots: Vec<(usize, Vec<Tiered>)> = Vec::new();
    let mut out: Vec<TracePoint> = Vec::new();
    let flush = |snapshots: &mut Vec<(usize, Vec<Tiered>)>, out: &mut Vec<TracePoint>| {
        let points = rt.par_map(snapshots, |(t, v)| {
            let ctx_small = TieredCtx::new(64);
            let s = ctx_small.sum(v.iter());
            s.exponent().map(|exponent| TracePoint { t: *t, exponent })
        });
        out.extend(points.into_iter().flatten());
        snapshots.clear();
    };
    snapshots.push((0, alpha_prev.clone()));
    for (idx, &ot) in rest.iter().enumerate() {
        for q in 0..h {
            let mut path_sum = tctx.zero();
            for p in 0..h {
                path_sum = tctx.add(&path_sum, &tctx.mul(&alpha_prev[p], &a[p * h + q]));
            }
            alpha[q] = tctx.mul(&path_sum, &b[q * m + ot]);
        }
        core::mem::swap(&mut alpha, &mut alpha_prev);
        if (idx + 1) % stride == 0 {
            snapshots.push((idx + 1, alpha_prev.clone()));
            if snapshots.len() >= FLUSH_BATCH {
                flush(&mut snapshots, &mut out);
            }
        }
    }
    flush(&mut snapshots, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_posit::{P64E12, P64E18};

    /// The classic umbrella/weather textbook HMM with a hand-computable
    /// likelihood.
    fn toy() -> Hmm {
        Hmm::new(
            2,
            2,
            vec![0.7, 0.3, 0.3, 0.7],
            vec![0.9, 0.1, 0.2, 0.8],
            vec![0.5, 0.5],
        )
    }

    /// Brute-force likelihood: sum over all state paths.
    fn brute_force(m: &Hmm, obs: &[usize]) -> f64 {
        let h = m.num_states();
        let t = obs.len();
        let mut total = 0.0;
        let paths = h.pow(t as u32);
        for code in 0..paths {
            let mut states = Vec::with_capacity(t);
            let mut c = code;
            for _ in 0..t {
                states.push(c % h);
                c /= h;
            }
            let mut p = m.pi(states[0]) * m.b(states[0], obs[0]);
            for i in 1..t {
                p *= m.a(states[i - 1], states[i]) * m.b(states[i], obs[i]);
            }
            total += p;
        }
        total
    }

    #[test]
    fn matches_brute_force_enumeration() {
        let m = toy();
        let obs = [0usize, 1, 0, 0, 1];
        let want = brute_force(&m, &obs);
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        assert!((f - want).abs() < 1e-14, "f64 forward {f} vs brute {want}");
        let p: P64E12 = forward(&m.prepare(), &obs);
        assert!((p.to_f64() - want).abs() < 1e-12);
        let l = forward_log(&m, &obs);
        assert!((l.to_f64() - want).abs() < 1e-12);
        let ctx = Context::new(256);
        let o = forward_oracle(&m, &obs, &ctx);
        assert!((o.to_f64() - want).abs() < 1e-14);
        let s = forward_scaled(&m, &obs);
        assert!((s.ln_likelihood - want.ln()).abs() < 1e-12);
    }

    #[test]
    fn empty_observation_gives_probability_one() {
        let m = toy();
        assert_eq!(forward::<f64>(&m.prepare(), &[]), 1.0);
        assert_eq!(forward_log(&m, &[]).to_f64(), 1.0);
    }

    #[test]
    fn all_formats_agree_on_moderate_length() {
        let m = toy();
        let obs: Vec<usize> = (0..200).map(|i| (i * 7 + 3) % 2).collect();
        let ctx = Context::new(256);
        let oracle = forward_oracle(&m, &obs, &ctx);
        let oe = oracle.exponent().unwrap();
        // Likelihood of a 200-step sequence is small but within f64 range.
        assert!(oe < -100 && oe > -1000, "exponent {oe}");
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        let rel = (f / oracle.to_f64() - 1.0).abs();
        assert!(rel < 1e-10, "f64 rel err {rel}");
        let p: P64E18 = forward(&m.prepare(), &obs);
        let rel = (p.to_f64() / oracle.to_f64() - 1.0).abs();
        assert!(rel < 1e-8, "posit rel err {rel}");
        let l = forward_log(&m, &obs);
        let want_ln = forward_scaled(&m, &obs).ln_likelihood;
        assert!((l.ln_value() - want_ln).abs() < 1e-8);
    }

    #[test]
    fn binary64_underflows_on_long_sequences_but_posit_does_not() {
        // The paper's Section II story at miniature scale: after enough
        // iterations the f64 alpha hits zero while posit keeps going.
        let m = toy();
        let obs: Vec<usize> = (0..30_000).map(|i| (i * 13 + 1) % 2).collect();
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        assert_eq!(f, 0.0, "binary64 must underflow");
        let p: P64E18 = forward(&m.prepare(), &obs);
        assert!(!p.is_zero(), "posit must not underflow");
        let l = forward_log(&m, &obs);
        assert!(!l.is_zero());
        // And the two survivors agree.
        let p_ln = compstat_core::error::log10_abs(&p.to_bigfloat()) / core::f64::consts::LOG10_E;
        assert!(
            (p_ln - l.ln_value()).abs() / l.ln_value().abs() < 1e-6,
            "posit ln {p_ln} vs log-space {}",
            l.ln_value()
        );
    }

    #[test]
    fn trace_exponents_decrease_linearly() {
        let m = toy();
        let obs: Vec<usize> = (0..2_000).map(|i| (i * 13 + 1) % 2).collect();
        let ctx = Context::new(128);
        let trace = forward_trace(&m, &obs, &ctx, 100);
        assert_eq!(trace.len(), 20);
        // Strictly decreasing, roughly linear (Figure 1's shape).
        for w in trace.windows(2) {
            assert!(w[1].exponent < w[0].exponent);
        }
        let total_drop = trace[0].exponent - trace[19].exponent;
        let per_step = total_drop as f64 / 1_900.0;
        assert!(
            per_step > 0.3 && per_step < 3.0,
            "decay {per_step} bits/step"
        );
    }

    #[test]
    fn trace_fast_tier_tracks_the_oracle_trace() {
        // A prec <= 53 ladder rung runs the recurrence on the tiered
        // fast tier (hardware f64 + software exponent). Its exponents
        // must track the 128-bit trace to within accumulated-rounding
        // slack even thousands of binades below f64's range.
        let m = toy();
        let obs: Vec<usize> = (0..4_000).map(|i| (i * 13 + 1) % 2).collect();
        let fast = forward_trace(&m, &obs, &Context::new(53), 200);
        let big = forward_trace(&m, &obs, &Context::new(128), 200);
        assert_eq!(fast.len(), big.len());
        for (f, b) in fast.iter().zip(&big) {
            assert_eq!(f.t, b.t);
            assert!(
                (f.exponent - b.exponent).abs() <= 1,
                "t={} fast {} vs oracle {}",
                f.t,
                f.exponent,
                b.exponent
            );
        }
        // The tail is far outside binary64's reach, proving the fast
        // tier was carrying an HDR exponent, not an f64.
        assert!(big.last().unwrap().exponent < -2_000);
    }

    #[test]
    fn hdr_forward_matches_oracle_where_binary64_underflows() {
        // forward::<HdrFloat> on the sequence that zeroes binary64:
        // same 53-bit mantissa arithmetic, but the likelihood survives
        // with the oracle's exponent.
        let m = toy();
        let obs: Vec<usize> = (0..30_000).map(|i| (i * 13 + 1) % 2).collect();
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        assert_eq!(f, 0.0);
        let h: compstat_bigfloat::HdrFloat = forward(&m.prepare(), &obs);
        assert!(!h.is_zero());
        let ctx = Context::new(256);
        let oracle = forward_oracle(&m, &obs, &ctx);
        let rel = compstat_core::error::relative_error(&oracle, &h.to_bigfloat(), &ctx);
        assert!(
            rel.within(-10.0),
            "hdr log10 rel err {} class {:?}",
            rel.log10_rel,
            rel.class
        );
    }

    #[test]
    fn scaled_forward_matches_oracle_log_likelihood() {
        let m = toy();
        let obs: Vec<usize> = (0..5_000).map(|i| (i * 13 + 1) % 2).collect();
        let ctx = Context::new(256);
        let oracle = forward_oracle(&m, &obs, &ctx);
        let s = forward_scaled(&m, &obs);
        let oracle_ln = ctx.ln(&oracle).to_f64();
        assert!(
            (s.ln_likelihood - oracle_ln).abs() < 1e-6 * oracle_ln.abs(),
            "scaled {} vs oracle {}",
            s.ln_likelihood,
            oracle_ln
        );
        assert_eq!(s.rescales, 5_000);
    }
}
