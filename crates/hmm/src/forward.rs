//! The forward algorithm in every number system under study, written
//! once. `forward_in` is Listing 1 over any [`Arith`]; each public
//! kernel picks an arithmetic and, at most, a per-step callback.
//!
//! * [`forward`] — Listing 1 over any [`StatFloat`] (binary64, posit
//!   configurations, `HdrFloat`, and even log-space via its binary LSE
//!   `add`);
//! * [`forward_log`] — Listing 3, the explicit log-space formulation
//!   whose path sums are one n-ary LSE, as the paper's log accelerators
//!   implement it;
//! * [`forward_oracle`] — the 256-bit reference result, on a [`Context`];
//! * [`forward_scaled`] — binary64 renormalized after every step, the
//!   rescaling baseline discussed in Section VII (Related Works);
//! * [`forward_trace`] — the Figure 1 experiment: the base-2 exponent of
//!   the `alpha` vector over iterations, tracked exactly. At most
//!   [`HDR_FAST_PREC`] bits it runs on `HdrFloat`, above that on the
//!   context itself.
//!
//! Every kernel checks the whole sequence before any arithmetic and
//! panics with "observation symbol out of range" on a bad symbol.

use crate::model::{Hmm, PreparedHmm};
use compstat_bigfloat::{BigFloat, Context, HdrFloat, HDR_FAST_PREC};
use compstat_core::{Arith, Native, StatFloat};
use compstat_logspace::{log_sum_exp, LogF64};
use compstat_runtime::Runtime;

/// Listing 1 in the arithmetic `ar`: returns `P(O | lambda)`, or one for
/// an empty sequence.
///
/// `step(t, alpha)` sees `alpha_t` once it is complete (`t = 0` is the
/// initialization) and may rewrite it: rescaling does, the Figure 1
/// trace takes snapshots. It is not called for an empty sequence.
///
/// Each path sum is one [`Arith::sum`] over `p` in order, which mirrors
/// the software reference's sequential accumulation; the accelerator's
/// reduction tree reassociates it, which is measured separately by the
/// FPGA model.
fn forward_in<A: Arith>(
    ar: &A,
    model: &PreparedHmm<A::V>,
    obs: &[usize],
    mut step: impl FnMut(usize, &mut [A::V]),
) -> A::V {
    let (h, m) = (model.h, model.m);
    check_symbols(obs, m);
    let Some((&o0, rest)) = obs.split_first() else {
        return ar.one(); // empty observation: probability 1
    };
    let mut alpha_prev: Vec<A::V> = (0..h)
        .map(|q| ar.mul(&model.pi[q], &model.b[q * m + o0]))
        .collect();
    step(0, &mut alpha_prev);
    let mut alpha: Vec<A::V> = vec![ar.zero(); h];
    for (t, &ot) in rest.iter().enumerate() {
        for q in 0..h {
            let path_sum = ar.sum((0..h).map(|p| ar.mul(&alpha_prev[p], &model.a[p * h + q])));
            alpha[q] = ar.mul(&path_sum, &model.b[q * m + ot]);
        }
        core::mem::swap(&mut alpha, &mut alpha_prev);
        step(t + 1, &mut alpha_prev);
    }
    ar.sum(alpha_prev.iter().cloned())
}

/// The backward recurrence in the arithmetic `ar`: combines the beta
/// variables into `P(O | lambda)`, or one for an empty sequence. Each
/// path sum is one [`Arith::sum`] over `q` in order, as in
/// [`forward_in`].
pub(crate) fn backward_in<A: Arith>(ar: &A, model: &PreparedHmm<A::V>, obs: &[usize]) -> A::V {
    let (h, m) = (model.h, model.m);
    check_symbols(obs, m);
    let Some((&o0, rest)) = obs.split_first() else {
        return ar.one();
    };
    let mut beta: Vec<A::V> = vec![ar.one(); h];
    let mut next: Vec<A::V> = vec![ar.zero(); h];
    for &ot in rest.iter().rev() {
        for (p, slot) in next.iter_mut().enumerate() {
            *slot = ar.sum(
                (0..h)
                    .map(|q| ar.mul(&ar.mul(&model.a[p * h + q], &model.b[q * m + ot]), &beta[q])),
            );
        }
        core::mem::swap(&mut beta, &mut next);
    }
    ar.sum((0..h).map(|q| ar.mul(&ar.mul(&model.pi[q], &model.b[q * m + o0]), &beta[q])))
}

/// The symbol check every kernel runs over the whole sequence before
/// any arithmetic.
///
/// # Panics
///
/// Panics with "observation symbol out of range" if any symbol is not
/// below `m`.
pub(crate) fn check_symbols(obs: &[usize], m: usize) {
    assert!(
        obs.iter().all(|&o| o < m),
        "observation symbol out of range"
    );
}

/// The forward algorithm (Listing 1): returns `P(O | lambda)`.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward<T: StatFloat>(model: &PreparedHmm<T>, obs: &[usize]) -> T {
    forward_in(&Native::<T>::new(), model, obs, |_, _| {})
}

/// Listing 3's arithmetic: log-space values whose path sums are one
/// n-ary LSE rather than a chain of binary ones.
struct NaryLse;

impl Arith for NaryLse {
    type V = LogF64;

    fn zero(&self) -> LogF64 {
        LogF64::ZERO
    }

    fn one(&self) -> LogF64 {
        LogF64::ONE
    }

    fn import_f64(&self, x: f64) -> LogF64 {
        LogF64::from_f64(x)
    }

    fn add(&self, a: &LogF64, b: &LogF64) -> LogF64 {
        *a + *b
    }

    fn mul(&self, a: &LogF64, b: &LogF64) -> LogF64 {
        *a * *b
    }

    fn sum(&self, terms: impl Iterator<Item = LogF64> + Clone) -> LogF64 {
        log_sum_exp(terms)
    }
}

/// The forward algorithm in explicit log-space (Listing 3): `ln_A` and
/// `ln_B` are precomputed logs, the inner reduction is an H-ary LSE, and
/// the result is the log-likelihood.
#[must_use]
pub fn forward_log(model: &Hmm, obs: &[usize]) -> LogF64 {
    forward_in(&NaryLse, &model.prepare_in(&NaryLse), obs, |_, _| {})
}

/// The 256-bit oracle forward pass: the baseline "correct value" for
/// every accuracy figure.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward_oracle(model: &Hmm, obs: &[usize], ctx: &Context) -> BigFloat {
    forward_in(ctx, &model.prepare_in(ctx), obs, |_, _| {})
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
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward_scaled(model: &Hmm, obs: &[usize]) -> ScaledForward {
    let mut ln_likelihood = 0.0;
    let mut rescales = 0;
    forward_in(&Native::<f64>::new(), &model.prepare(), obs, |_, alpha| {
        let s: f64 = alpha.iter().sum();
        if s > 0.0 {
            ln_likelihood += s.ln();
            for x in alpha.iter_mut() {
                *x /= s;
            }
            rescales += 1;
        }
    });
    ScaledForward {
        ln_likelihood,
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
    forward_trace_rt(model, obs, ctx, stride, &Runtime::serial())
}

/// [`forward_trace`] with an explicit runtime: the recurrence itself is
/// inherently sequential, but the per-snapshot exponent extraction
/// (a small-context oracle sum per recorded point) is an independent
/// map over snapshots and runs through `rt`. Point order and values are
/// bitwise-identical for every thread count.
///
/// The recurrence runs in the cheapest arithmetic that is exact at the
/// context's precision. At `prec <= HDR_FAST_PREC` (53 bits) that is
/// [`HdrFloat`]: hardware `f64` with a software exponent, bit-identical
/// to `Context::new(53)` and computing at 53 bits for any smaller
/// request. Above 53 bits, including the oracle-grade 192-bit trace of
/// Figure 1, it runs on `ctx` itself.
#[must_use]
pub fn forward_trace_rt(
    model: &Hmm,
    obs: &[usize],
    ctx: &Context,
    stride: usize,
    rt: &Runtime,
) -> Vec<TracePoint> {
    let stride = stride.max(1);
    // The sequential recurrence snapshots alpha at recorded iterations;
    // the exponent extraction (one small-context oracle sum per
    // snapshot) is an independent map and flushes through `rt` in
    // bounded batches, so memory stays O(batch * H) even at stride 1
    // while snapshot order keeps the output identical to a serial run.
    const FLUSH_BATCH: usize = 256;
    let flush = |snapshots: &mut Vec<(usize, Vec<BigFloat>)>, out: &mut Vec<TracePoint>| {
        let points = rt.par_map(snapshots, |(t, alpha)| {
            // Zero-seeded: every term is rounded to 64 bits on entry.
            let ctx64 = Context::new(64);
            let s = alpha
                .iter()
                .fold(BigFloat::zero(), |acc, x| ctx64.add(&acc, x));
            s.exponent().map(|exponent| TracePoint { t: *t, exponent })
        });
        out.extend(points.into_iter().flatten());
        snapshots.clear();
    };
    let mut snapshots = Vec::new();
    let mut out = Vec::new();
    let mut record = |t: usize, alpha: Vec<BigFloat>| {
        snapshots.push((t, alpha));
        if snapshots.len() >= FLUSH_BATCH {
            flush(&mut snapshots, &mut out);
        }
    };
    if ctx.prec() <= HDR_FAST_PREC {
        let hdr = Native::<HdrFloat>::new();
        forward_in(&hdr, &model.prepare_in(&hdr), obs, |t, alpha| {
            if t % stride == 0 {
                record(t, alpha.iter().map(HdrFloat::to_bigfloat).collect());
            }
        });
    } else {
        forward_in(ctx, &model.prepare_in(ctx), obs, |t, alpha| {
            if t % stride == 0 {
                record(t, alpha.to_vec());
            }
        });
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
    fn trace_at_53_bits_tracks_the_oracle_trace() {
        // A prec <= 53 ladder rung runs the recurrence on HdrFloat
        // (hardware f64 + software exponent). Its exponents must track
        // the 128-bit trace to within accumulated-rounding slack even
        // thousands of binades below f64's range.
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
        // The tail is far outside binary64's reach, proving the 53-bit
        // run was carrying an HDR exponent, not an f64.
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
