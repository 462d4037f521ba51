//! The forward algorithm in every number system under study, written
//! once. `forward_in` is Listing 1 over any [`Arith`]; each public
//! kernel picks an arithmetic and, at most, a per-step callback.
//!
//! * [`forward`] — Listing 1 over any [`StatFloat`] (binary64, posit
//!   configurations, `HdrFloat`, and even log-space via its binary LSE
//!   `add`), in the arithmetic [`StatFloat::run_pass`] picks;
//! * [`forward_log`] — Listing 3, the explicit log-space formulation
//!   whose path sums are one n-ary LSE, as the paper's log accelerators
//!   implement it;
//! * [`forward_oracle`] — the 256-bit reference result, in the oracle
//!   arithmetic [`run_oracle`] picks for a [`Context`];
//! * [`forward_scaled`] — binary64 renormalized after every step, the
//!   rescaling baseline discussed in Section VII (Related Works);
//! * [`forward_trace`] — the Figure 1 experiment: the base-2 exponent of
//!   the `alpha` vector over iterations, tracked exactly. At most
//!   [`HDR_FAST_PREC`] bits it runs on `HdrFloat`, above that in the
//!   oracle arithmetic.
//!
//! Every kernel checks the whole sequence before any arithmetic and
//! panics with "observation symbol out of range" on a bad symbol.

use crate::model::{Hmm, PreparedHmm};
use compstat_bigfloat::{BigFloat, Context, HdrFloat, HDR_FAST_PREC};
use compstat_core::{
    run_oracle, Arith, FormatArith, FormatPass, Native, Oracle, OraclePass, StatFloat,
};
use compstat_logspace::{log_sum_exp, LogF64};
use compstat_runtime::Runtime;

/// Listing 1 in the arithmetic `ar`: returns `P(O | lambda)`, or one for
/// an empty sequence.
///
/// `step(t, alpha)` sees `alpha_t` once it is complete (`t = 0` is the
/// initialization) and may rewrite it: rescaling does, the Figure 1
/// trace takes snapshots. It is not called for an empty sequence.
///
/// A step is one [`Arith::vec_mat`] of `alpha_{t-1}` and `A`, then the
/// emission multiply. Each path sum there has the bits of [`Arith::sum`]
/// over `p` in order, which mirrors the software reference's sequential
/// accumulation, while the `h` sums advance together; an arithmetic
/// whose `sum` is not a left fold (the n-ary LSE) overrides both. The
/// accelerator's reduction tree reassociates the sums, which is measured
/// separately by the FPGA model.
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
        ar.vec_mat(&alpha_prev, &model.a, &mut alpha);
        for (q, a) in alpha.iter_mut().enumerate() {
            *a = ar.mul(a, &model.b[q * m + ot]);
        }
        core::mem::swap(&mut alpha, &mut alpha_prev);
        step(t + 1, &mut alpha_prev);
    }
    ar.sum(alpha_prev.iter().cloned())
}

/// The symbol check every kernel runs over the whole sequence before
/// any arithmetic.
///
/// # Panics
///
/// Panics with "observation symbol out of range" if any symbol is not
/// below `m`.
fn check_symbols(obs: &[usize], m: usize) {
    assert!(
        obs.iter().all(|&o| o < m),
        "observation symbol out of range"
    );
}

/// The forward algorithm (Listing 1): returns `P(O | lambda)`.
///
/// The pass runs in the arithmetic [`StatFloat::run_pass`] picks for
/// `T`, with the same bits as on `T` itself: for a posit, on decoded
/// values, so the model is decoded once per call and the result encoded
/// once.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward<T: StatFloat>(model: &PreparedHmm<T>, obs: &[usize]) -> T {
    struct Pass<'a, T>(&'a PreparedHmm<T>, &'a [usize]);
    impl<T> FormatPass<T> for Pass<'_, T> {
        type Output = T;
        fn run<A: FormatArith<T>>(self, ar: &A) -> T {
            let Pass(model, obs) = self;
            let model = model.map(|x| ar.decode(x));
            ar.encode(&forward_in(ar, &model, obs, |_, _| {}))
        }
    }
    T::run_pass(Pass(model, obs))
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

    /// One n-ary LSE per column, as [`NaryLse::sum`] gives it.
    fn vec_mat(&self, x: &[LogF64], w: &[LogF64], out: &mut [LogF64]) {
        let h = out.len();
        debug_assert_eq!(w.len(), x.len() * h, "w is not x.len() rows of out.len()");
        for (q, o) in out.iter_mut().enumerate() {
            *o = self.sum(x.iter().enumerate().map(|(p, &xp)| xp * w[p * h + q]));
        }
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
/// The result is `Context`'s, bit for bit. At a whole-limb precision
/// (`64 * N` bits, `N <= 5`: the oracle's 256, serve's 128) the pass runs
/// on `Copy` whole-limb values ([`run_oracle`]) and converts back once;
/// at every other precision it runs on `ctx` itself.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward_oracle(model: &Hmm, obs: &[usize], ctx: &Context) -> BigFloat {
    struct Pass<'a>(&'a Hmm, &'a [usize]);
    impl OraclePass for Pass<'_> {
        type Output = BigFloat;
        fn run<A: Oracle>(self, ar: &A) -> BigFloat {
            let Pass(model, obs) = self;
            ar.to_bigfloat(&forward_in(ar, &model.prepare_in(ar), obs, |_, _| {}))
        }
    }
    run_oracle(ctx, Pass(model, obs))
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
/// request. Above 53 bits it runs in the oracle arithmetic
/// [`run_oracle`] picks: whole-limb values at `64 * N` bits (the
/// 192-bit trace of Figure 1), converted to `BigFloat` per snapshot,
/// and `ctx` itself at every other precision.
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
        struct Trace<'a, R> {
            model: &'a Hmm,
            obs: &'a [usize],
            stride: usize,
            record: R,
        }
        impl<R: FnMut(usize, Vec<BigFloat>)> OraclePass for Trace<'_, R> {
            type Output = ();
            fn run<A: Oracle>(mut self, ar: &A) {
                forward_in(ar, &self.model.prepare_in(ar), self.obs, |t, alpha| {
                    if t % self.stride == 0 {
                        (self.record)(t, alpha.iter().map(|v| ar.to_bigfloat(v)).collect());
                    }
                });
            }
        }
        run_oracle(
            ctx,
            Trace {
                model,
                obs,
                stride,
                record: &mut record,
            },
        );
    }
    flush(&mut snapshots, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_bigfloat::{bit_identical, testing};
    use compstat_posit::testing as posit_testing;
    use compstat_posit::{Posit, P64E12, P64E18, P64E6, P64E9};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The backward recurrence in the arithmetic `ar`: combines the beta
    /// variables into `P(O | lambda)`, or one for an empty sequence. Each
    /// path sum is one [`Arith::sum`] over `q` in order, as in
    /// [`forward_in`].
    fn backward_in<A: Arith>(ar: &A, model: &PreparedHmm<A::V>, obs: &[usize]) -> A::V {
        let (h, m) = (model.h, model.m);
        check_symbols(obs, m);
        let Some((&o0, rest)) = obs.split_first() else {
            return ar.one();
        };
        let mut beta: Vec<A::V> = vec![ar.one(); h];
        let mut next: Vec<A::V> = vec![ar.zero(); h];
        for &ot in rest.iter().rev() {
            for (p, slot) in next.iter_mut().enumerate() {
                *slot =
                    ar.sum((0..h).map(|q| {
                        ar.mul(&ar.mul(&model.a[p * h + q], &model.b[q * m + ot]), &beta[q])
                    }));
            }
            core::mem::swap(&mut beta, &mut next);
        }
        ar.sum((0..h).map(|q| ar.mul(&ar.mul(&model.pi[q], &model.b[q * m + o0]), &beta[q])))
    }

    /// The backward algorithm over format `T`: the beta variables'
    /// final combination `P(O | lambda)`, a cross-check of [`forward`].
    fn backward<T: StatFloat>(model: &PreparedHmm<T>, obs: &[usize]) -> T {
        backward_in(&Native::<T>::new(), model, obs)
    }

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

    /// The oracle arithmetic through the general slice kernels and the
    /// bit-indexed rounding (`compstat_bigfloat::testing`): the
    /// reference the production kernel tiers must reproduce.
    struct GeneralKernels(u32);

    impl Arith for GeneralKernels {
        type V = BigFloat;

        fn zero(&self) -> BigFloat {
            BigFloat::zero().round_to(self.0)
        }

        fn one(&self) -> BigFloat {
            BigFloat::one().round_to(self.0)
        }

        fn import_f64(&self, x: f64) -> BigFloat {
            BigFloat::from_f64(x)
        }

        fn add(&self, a: &BigFloat, b: &BigFloat) -> BigFloat {
            testing::add_general(a, b, self.0)
        }

        fn mul(&self, a: &BigFloat, b: &BigFloat) -> BigFloat {
            testing::mul_general(a, b, self.0)
        }
    }

    #[test]
    fn oracle_forward_matches_the_general_kernels_bit_for_bit() {
        // A Figure 10-shaped pass: 8 states, 16 symbols, 2,000 steps,
        // whose likelihood falls thousands of binades below binary64.
        let mut rng = StdRng::seed_from_u64(10);
        let model = crate::dirichlet_hmm(&mut rng, 8, 16, 0.8);
        let obs = crate::uniform_observations(&mut rng, 16, 2_000);
        for bits in [128, 256] {
            let got = forward_oracle(&model, &obs, &Context::new(bits));
            let general = GeneralKernels(bits);
            let want = forward_in(&general, &model.prepare_in(&general), &obs, |_, _| {});
            assert!(got.exponent().unwrap() < -2_000);
            assert!(
                bit_identical(&got, &want),
                "{bits} bits: {got:?} != {want:?}"
            );
        }
    }

    /// The precisions the dispatched oracle is checked at: every
    /// whole-limb one, and 200 bits, which keeps the `Context` path.
    const ORACLE_PRECS: [u32; 6] = [64, 128, 192, 256, 320, 200];

    /// The edge models of the dispatch tests: the toy, one state, and
    /// entries of exactly 0, exactly 1 and 5e-324, where symbol 0 can
    /// never be emitted.
    fn edge_models() -> Vec<Hmm> {
        vec![
            toy(),
            Hmm::new(1, 3, vec![1.0], vec![0.2, 0.5, 0.3], vec![1.0]),
            Hmm::new(
                2,
                3,
                vec![1.0, 0.0, 5e-324, 1.0],
                vec![0.0, 0.5, 0.5, 0.0, 0.0, 1.0],
                vec![0.5, 0.5],
            ),
        ]
    }

    /// `forward_oracle` against `forward_in` on the context itself,
    /// precision tag included.
    fn assert_oracle_is_context(model: &Hmm, obs: &[usize], what: &str) {
        for bits in ORACLE_PRECS {
            let ctx = Context::new(bits);
            let got = forward_oracle(model, obs, &ctx);
            let want = forward_in(&ctx, &model.prepare_in(&ctx), obs, |_, _| {});
            assert!(
                bit_identical(&got, &want),
                "{what} (T={}) at {bits} bits: {got:?} != {want:?}",
                obs.len()
            );
        }
    }

    #[test]
    fn dispatched_oracle_is_the_context_oracle_on_edge_cases() {
        for (i, model) in edge_models().iter().enumerate() {
            let m = model.num_symbols();
            let long: Vec<usize> = (0..300).map(|t| (t * 7 + 1) % m).collect();
            let last = vec![m - 1; 300];
            for obs in [&[][..], &[0], &[m - 1], &long, &last] {
                assert_oracle_is_context(model, obs, &format!("edge model {i}"));
            }
        }
        // The empty sequence's one carries the context precision.
        let one = forward_oracle(&toy(), &[], &Context::new(128));
        assert!(one.to_f64() == 1.0 && one.precision() == 128, "{one:?}");
        // A zero likelihood is tagged with the context precision.
        let zeros = &edge_models()[2];
        let got = forward_oracle(zeros, &[2, 0], &Context::new(128));
        assert!(got.is_zero() && got.precision() == 128, "{got:?}");
    }

    #[test]
    fn dispatched_oracle_is_the_context_oracle_on_a_fig10_shaped_model() {
        let mut rng = StdRng::seed_from_u64(30);
        let model = crate::dirichlet_hmm(&mut rng, 8, 16, 0.8);
        let obs = crate::uniform_observations(&mut rng, 16, 500);
        assert_oracle_is_context(&model, &obs, "fig10-shaped");
    }

    /// The Figure 1 trace computed on the context itself: the exponent
    /// of each recorded alpha's 64-bit sum.
    fn context_trace(model: &Hmm, obs: &[usize], ctx: &Context, stride: usize) -> Vec<TracePoint> {
        let ctx64 = Context::new(64);
        let mut points = Vec::new();
        forward_in(ctx, &model.prepare_in(ctx), obs, |t, alpha| {
            if t % stride == 0 {
                let s = alpha
                    .iter()
                    .fold(BigFloat::zero(), |acc, x| ctx64.add(&acc, x));
                points.extend(s.exponent().map(|exponent| TracePoint { t, exponent }));
            }
        });
        points
    }

    #[test]
    fn trace_at_192_bits_is_the_context_trace() {
        let ctx = Context::new(192);
        let mut rng = StdRng::seed_from_u64(31);
        let fig10 = crate::dirichlet_hmm(&mut rng, 8, 16, 0.8);
        let fig10_obs = crate::uniform_observations(&mut rng, 16, 600);
        let toy_obs: Vec<usize> = (0..2_000).map(|i| (i * 13 + 1) % 2).collect();
        let runs = [
            (&fig10, &fig10_obs, 1),
            (&fig10, &fig10_obs, 37),
            (&toy(), &toy_obs, 100),
        ];
        for (model, obs, stride) in runs {
            let want = context_trace(model, obs, &ctx, stride);
            assert!(!want.is_empty());
            for threads in [1, 2] {
                let got =
                    forward_trace_rt(model, obs, &ctx, stride, &Runtime::with_threads(threads));
                assert_eq!(got, want, "stride {stride}, {threads} thread(s)");
            }
        }
    }

    /// posit(N, ES) through the runtime-`(n, es)` reference datapath
    /// (`compstat_posit::testing`), on patterns: what the posit passes
    /// must reproduce, whichever arithmetic runs them.
    struct ReferencePosit<const N: u32, const ES: u32>;

    impl<const N: u32, const ES: u32> Arith for ReferencePosit<N, ES> {
        type V = u64;

        fn zero(&self) -> u64 {
            0
        }

        fn one(&self) -> u64 {
            1 << (N - 2)
        }

        fn import_f64(&self, x: f64) -> u64 {
            posit_testing::from_f64_bits(x, N, ES)
        }

        fn add(&self, a: &u64, b: &u64) -> u64 {
            posit_testing::add_bits(*a, *b, N, ES)
        }

        fn mul(&self, a: &u64, b: &u64) -> u64 {
            posit_testing::mul_bits(*a, *b, N, ES)
        }
    }

    /// The dispatched `forward` against a pass on `Posit<N, ES>` itself
    /// and against the reference datapath, by `to_bits`.
    fn assert_dispatch_is_native<const N: u32, const ES: u32>(model: &Hmm, obs: &[usize])
    where
        Posit<N, ES>: StatFloat,
    {
        let got: Posit<N, ES> = forward(&model.prepare(), obs);
        let native = Native::<Posit<N, ES>>::new();
        let want = forward_in(&native, &model.prepare_in(&native), obs, |_, _| {});
        let reference = forward_in(
            &ReferencePosit::<N, ES>,
            &model.prepare_in(&ReferencePosit::<N, ES>),
            obs,
            |_, _| {},
        );
        for (what, want) in [("native", want.to_bits()), ("reference", reference)] {
            assert_eq!(
                got.to_bits(),
                want,
                "posit({N},{ES}) T={}: {got:?} != {what} {want:#x}",
                obs.len()
            );
        }
    }

    fn assert_every_posit_dispatch_is_native(model: &Hmm, obs: &[usize]) {
        assert_dispatch_is_native::<64, 6>(model, obs);
        assert_dispatch_is_native::<64, 9>(model, obs);
        assert_dispatch_is_native::<64, 12>(model, obs);
        assert_dispatch_is_native::<64, 15>(model, obs);
        assert_dispatch_is_native::<64, 18>(model, obs);
        assert_dispatch_is_native::<64, 21>(model, obs);
    }

    #[test]
    fn dispatched_posit_forward_is_the_native_posit_forward() {
        // fig06/fig10-shaped: 8 states, 16 symbols.
        let mut rng = StdRng::seed_from_u64(32);
        let fig10 = crate::dirichlet_hmm(&mut rng, 8, 16, 0.8);
        let obs = crate::uniform_observations(&mut rng, 16, 3_000);
        for t in [0, 1, 2, 500, 3_000] {
            assert_every_posit_dispatch_is_native(&fig10, &obs[..t]);
        }
        for model in &edge_models() {
            let m = model.num_symbols();
            let long: Vec<usize> = (0..300).map(|t| (t * 7 + 1) % m).collect();
            for obs in [&[0][..], &[m - 1], &long] {
                assert_every_posit_dispatch_is_native(model, obs);
            }
        }
        // Long enough to reach the band where the regime leaves no
        // fraction bits: below 2^-26_624 for posit(64, 9) and 2^-3_520
        // for posit(64, 6). Products there round back to the coarse grid
        // they came from, so the likelihood stalls above minpos.
        let deep: Vec<usize> = (0..50_000).map(|i| (i * 13 + 1) % 2).collect();
        for t in [36_000, 40_000, 50_000] {
            assert_every_posit_dispatch_is_native(&toy(), &deep[..t]);
        }
        let scale = |t: usize| forward::<P64E9>(&toy().prepare(), &deep[..t]).scale();
        let minpos = P64E9::format_info().min_positive_exp();
        for t in [40_000, 50_000] {
            assert!((minpos + 1..-26_624).contains(&scale(t).unwrap()), "T={t}");
        }
        let p6 = forward::<P64E6>(&toy().prepare(), &deep).scale().unwrap();
        assert!((P64E6::format_info().min_positive_exp()..-3_520).contains(&p6));
    }

    #[test]
    fn nary_lse_step_is_one_lse_per_column() {
        // Zeros, ordinary probabilities, binary64 subnormals and values
        // millions of binades down, as the recurrences meet them.
        let mut rng = StdRng::seed_from_u64(33);
        let mut term = || match rng.gen_range(0..4) {
            0 => LogF64::ZERO,
            1 => LogF64::from_f64(rng.gen_range(0.0..1.0)),
            2 => LogF64::from_f64(f64::from_bits(rng.gen_range(1..1 << 52))),
            _ => LogF64::from_ln(-rng.gen_range(0.0..3e6)),
        };
        for h in [1, 2, 3, 8, 13] {
            for len in 0..=5 {
                let x: Vec<LogF64> = (0..len).map(|_| term()).collect();
                let w: Vec<LogF64> = (0..len * h).map(|_| term()).collect();
                let mut out = vec![LogF64::ONE; h];
                NaryLse.vec_mat(&x, &w, &mut out);
                for (q, got) in out.iter().enumerate() {
                    let want = log_sum_exp(x.iter().enumerate().map(|(p, &xp)| xp * w[p * h + q]));
                    assert_eq!(
                        got.ln_value().to_bits(),
                        want.ln_value().to_bits(),
                        "h {h}, len {len}, q {q}"
                    );
                }
            }
        }
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

    #[test]
    #[should_panic(expected = "observation symbol out of range")]
    fn backward_rejects_out_of_range_symbols() {
        // Symbol 2 of state 0 would index row 1's entries: only the
        // check stands between it and a silently wrong likelihood.
        let _: f64 = backward(&toy().prepare(), &[2, 0]);
    }

    #[test]
    fn backward_equals_forward_likelihood() {
        let m = toy();
        let obs: Vec<usize> = (0..50).map(|i| (i * 3 + 1) % 2).collect();
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        let b: f64 = backward(&m.prepare::<f64>(), &obs);
        // Forward and backward associate the same sum differently; agree
        // to within a few ulps.
        assert!((f - b).abs() < 1e-13 * f.abs(), "forward {f} backward {b}");
        let fp: P64E12 = forward(&m.prepare(), &obs);
        let bp: P64E12 = backward(&m.prepare(), &obs);
        let rel = (fp.to_f64() / bp.to_f64() - 1.0).abs();
        assert!(rel < 1e-10);
        let bl: LogF64 = backward(&m.prepare(), &obs);
        assert!((bl.to_f64() / f - 1.0).abs() < 1e-10);
    }
}
