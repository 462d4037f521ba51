//! The Poisson Binomial Distribution recurrence (Listing 2): p-value
//! computation in every number system under study, written once as
//! `pbd_in` over any [`Arith`].

use compstat_bigfloat::{BigFloat, Context};
use compstat_core::{run_oracle, Arith, FormatArith, FormatPass, Oracle, OraclePass, StatFloat};
use compstat_logspace::LogF64;

/// Listing 2 in the arithmetic `ar`: `P(X >= k)` over the trials'
/// success probabilities.
///
/// States `0..k` are tracked as in the paper's accelerator: the inner
/// loop is the multiply-and-add `pr[j]*(1-p) + pr[j-1]*p`, and mass
/// reaching state `k` is absorbed into the running p-value. `k == 0`
/// trivially yields p-value 1.
///
/// Trial `t` (0-based) of `n` updates only the states `j` with
/// `max(k + t + 1 - n, 0) <= j <= min(t + 1, k - 1)`, and the p-value is
/// bit-identical to a sweep over all `k` states:
///
/// * a state above `t + 1` holds no mass yet. The full sweep computes it
///   as `0·(1-p) + 0·p`, which returns the zero it already holds in every
///   format (binary64, posit, `LogF64`, `HdrFloat` and `BigFloat`);
/// * a state below `k + t + 1 - n` never feeds the p-value again. Each
///   later trial reads `pr[k - 1]` before its update, so the last read
///   comes `n - t - 2` updates after this trial, and a state climbs at
///   most one step per update.
///
/// The states below the window are left stale, which is why no PMF is
/// returned. The window saves about `k²` of the `n·k` updates.
fn pbd_in<A: Arith>(ar: &A, success_probs: &[f64], k: usize) -> A::V {
    if k == 0 {
        return ar.one();
    }
    let n = success_probs.len();
    let mut pr: Vec<A::V> = vec![ar.zero(); k];
    pr[0] = ar.one(); // zero successes after zero trials
    let mut pvalue = ar.zero();
    for (t, &p) in success_probs.iter().enumerate() {
        debug_assert!((0.0..=1.0).contains(&p), "success probability out of range");
        let pn = ar.import_f64(p);
        let qn = ar.import_f64(1.0 - p);
        // Mass crossing from k-1 into >= k (Listing 2 line 7).
        pvalue = ar.add(&pvalue, &ar.mul(&pr[k - 1], &pn));
        // The window `lo..end` of states that can still reach k; `n - t - 1`
        // trials remain after this one.
        let lo = k.saturating_sub(n - t - 1);
        let end = (t + 2).min(k);
        // In-place reverse sweep == the paper's double-buffered update.
        for j in (lo.max(1)..end).rev() {
            pr[j] = ar.add(&ar.mul(&pr[j], &qn), &ar.mul(&pr[j - 1], &pn));
        }
        if lo == 0 {
            pr[0] = ar.mul(&pr[0], &qn);
        }
    }
    pvalue
}

/// Computes `P(X >= k)` for a Poisson-binomial with the given per-trial
/// success probabilities (Listing 2 of the paper), in format `T`.
///
/// `k = 0` gives 1, and `k > N` gives 0: nothing crosses the boundary.
///
/// The recurrence runs in the arithmetic [`StatFloat::run_pass`] picks
/// for `T`, with the same bits as on `T` itself: for a posit, on decoded
/// values, encoding only the p-value.
#[must_use]
pub fn pbd_pvalue<T: StatFloat>(success_probs: &[f64], k: usize) -> T {
    struct Pass<'a>(&'a [f64], usize);
    impl<T> FormatPass<T> for Pass<'_> {
        type Output = T;
        fn run<A: FormatArith<T>>(self, ar: &A) -> T {
            ar.encode(&pbd_in(ar, self.0, self.1))
        }
    }
    T::run_pass(Pass(success_probs, k))
}

/// The explicit log-space formulation: probabilities as logs, the
/// multiply-and-add as log-add + binary LSE — what LoFreq's software and
/// the paper's log-space column unit compute.
#[must_use]
pub fn pbd_pvalue_log(success_probs: &[f64], k: usize) -> LogF64 {
    // LogF64's StatFloat `add` *is* the binary LSE of Equation (2).
    pbd_pvalue::<LogF64>(success_probs, k)
}

/// The 256-bit oracle p-value — the "correct result" of Figures 9/11.
///
/// The result is `Context`'s, bit for bit. At a whole-limb precision
/// (`64 * N` bits, `N <= 5`: the oracle's 256, serve's 128) the
/// recurrence runs on `Copy` whole-limb values ([`run_oracle`]) and
/// converts back once. It runs on `ctx` itself at every other
/// precision, and when any `p` lies outside `[0, 1]`: the slices are
/// raw, and only a probability has a whole-limb value.
#[must_use]
pub fn pbd_pvalue_oracle(success_probs: &[f64], k: usize, ctx: &Context) -> BigFloat {
    struct Pass<'a>(&'a [f64], usize);
    impl OraclePass for Pass<'_> {
        type Output = BigFloat;
        fn run<A: Oracle>(self, ar: &A) -> BigFloat {
            ar.to_bigfloat(&pbd_in(ar, self.0, self.1))
        }
    }
    let pass = Pass(success_probs, k);
    if success_probs.iter().all(|p| (0.0..=1.0).contains(p)) {
        run_oracle(ctx, pass)
    } else {
        pass.run(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::accuracy_corpus;
    use compstat_bigfloat::{bit_identical, testing, HdrFloat};
    use compstat_core::Native;
    use compstat_posit::testing as posit_testing;
    use compstat_posit::{Posit, P64E12, P64E18, P64E9};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Listing 2's full sweep, every state on every trial: the
    /// differential reference for `pbd_in`'s window.
    fn pbd_in_full_sweep<A: Arith>(ar: &A, success_probs: &[f64], k: usize) -> A::V {
        if k == 0 {
            return ar.one();
        }
        let mut pr: Vec<A::V> = vec![ar.zero(); k];
        pr[0] = ar.one(); // zero successes after zero trials
        let mut pvalue = ar.zero();
        for &p in success_probs {
            debug_assert!((0.0..=1.0).contains(&p), "success probability out of range");
            let pn = ar.import_f64(p);
            let qn = ar.import_f64(1.0 - p);
            // Mass crossing from k-1 into >= k (Listing 2 line 7).
            pvalue = ar.add(&pvalue, &ar.mul(&pr[k - 1], &pn));
            // In-place reverse sweep == the paper's double-buffered update.
            for j in (1..k).rev() {
                pr[j] = ar.add(&ar.mul(&pr[j], &qn), &ar.mul(&pr[j - 1], &pn));
            }
            pr[0] = ar.mul(&pr[0], &qn);
        }
        pvalue
    }

    /// The `(probs, k)` cases of the window's differential test: small
    /// seeded corpus columns, and edge cases of `k`, `N` and `p`.
    fn window_cases() -> Vec<(Vec<f64>, usize)> {
        let mut cases: Vec<(Vec<f64>, usize)> = accuracy_corpus(20_260_610, 48)
            .into_iter()
            .filter(|c| c.n() * c.k <= 40_000)
            .map(|c| (c.success_probs, c.k))
            .collect();
        assert!(cases.len() >= 40, "too few small corpus columns");
        let mut rng = StdRng::seed_from_u64(27);
        let mut draw = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(0.0..0.6)).collect() };
        let base = draw(13);
        for k in [0, 1, base.len(), base.len() + 1] {
            cases.push((base.clone(), k));
        }
        for k in [0, 1, 2] {
            cases.push((vec![0.4], k));
        }
        // N < 2K and N > 3K.
        cases.push((draw(30), 20));
        cases.push((draw(50), 12));
        // Exactly 0 and exactly 1, alone and mixed in.
        for k in [1, 3, 6] {
            cases.push((vec![0.0; 7], k));
            cases.push((vec![1.0; 7], k));
            cases.push((vec![0.3, 0.0, 1.0, 0.7, 1.0, 0.0, 0.5], k));
        }
        cases
    }

    /// `pbd_in` and the full sweep, case by case, compared through `key`.
    fn assert_window_exact<A: Arith, K: PartialEq + core::fmt::Debug>(
        label: &str,
        cases: &[(Vec<f64>, usize)],
        ar: &A,
        key: impl Fn(&A::V) -> K,
    ) {
        for (i, (probs, k)) in cases.iter().enumerate() {
            let got = key(&pbd_in(ar, probs, *k));
            let want = key(&pbd_in_full_sweep(ar, probs, *k));
            assert_eq!(got, want, "{label}: case {i} (N={}, K={k})", probs.len());
        }
    }

    #[test]
    fn window_is_bit_identical_to_the_full_sweep_in_every_format() {
        let cases = window_cases();
        assert_window_exact("binary64", &cases, &Native::<f64>::new(), |v| v.to_bits());
        assert_window_exact("Log", &cases, &Native::<LogF64>::new(), |v| {
            v.ln_value().to_bits()
        });
        assert_window_exact("posit(64,9)", &cases, &Native::<P64E9>::new(), |v| {
            v.to_bits()
        });
        assert_window_exact("posit(64,12)", &cases, &Native::<P64E12>::new(), |v| {
            v.to_bits()
        });
        assert_window_exact("posit(64,18)", &cases, &Native::<P64E18>::new(), |v| {
            v.to_bits()
        });
        assert_window_exact("hdr", &cases, &Native::<HdrFloat>::new(), |v| {
            (v.mantissa().to_bits(), v.exponent())
        });
        for bits in [128, 256] {
            let label = format!("Context({bits})");
            assert_window_exact(&label, &cases, &Context::new(bits), BigFloat::to_bytes);
        }
    }

    /// Columns whose p-values are `2^-300`-sized crossings, `k` of them
    /// in `k + 4` trials: p-values from about `2^-25_000` to below
    /// `2^-33_000`, through posit(64, 9)'s band where the regime leaves
    /// no fraction bits (`fbits <= 0` below `2^-26_624`) and past its
    /// minpos `2^-31_744`, where every format of at most ES = 9
    /// saturates.
    fn deep_cases() -> Vec<(Vec<f64>, usize)> {
        let mut rng = StdRng::seed_from_u64(31);
        (80..=112)
            .step_by(4)
            .map(|k| {
                let mut probs: Vec<f64> = (0..k)
                    .map(|_| rng.gen_range(0.5..1.0) * 2f64.powi(-300))
                    .collect();
                probs.extend((0..4).map(|_| rng.gen_range(0.0..0.3)));
                (probs, k)
            })
            .collect()
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

    /// The dispatched `pbd_pvalue` against a pass on `Posit<N, ES>`
    /// itself and against the reference datapath, by `to_bits`.
    fn assert_dispatch_is_native<const N: u32, const ES: u32>(cases: &[(Vec<f64>, usize)])
    where
        Posit<N, ES>: StatFloat,
    {
        for (i, (probs, k)) in cases.iter().enumerate() {
            let got: Posit<N, ES> = pbd_pvalue(probs, *k);
            let native = pbd_in(&Native::<Posit<N, ES>>::new(), probs, *k).to_bits();
            let reference = pbd_in(&ReferencePosit::<N, ES>, probs, *k);
            for (what, want) in [("native", native), ("reference", reference)] {
                assert_eq!(
                    got.to_bits(),
                    want,
                    "posit({N},{ES}) case {i} (N={}, K={k}): {got:?} != {what} {want:#x}",
                    probs.len()
                );
            }
        }
    }

    #[test]
    fn dispatched_posit_pvalues_are_the_native_posit_pvalues() {
        let mut cases = window_cases();
        cases.extend(deep_cases());
        // Corpus columns of every depth, the deep tail included.
        cases.extend(
            accuracy_corpus(20_261_020, 64)
                .into_iter()
                .filter(|c| c.n() * c.k <= 200_000)
                .map(|c| (c.success_probs, c.k)),
        );
        assert_dispatch_is_native::<64, 6>(&cases);
        assert_dispatch_is_native::<64, 9>(&cases);
        assert_dispatch_is_native::<64, 12>(&cases);
        assert_dispatch_is_native::<64, 15>(&cases);
        assert_dispatch_is_native::<64, 18>(&cases);
        assert_dispatch_is_native::<64, 21>(&cases);
        // The deep cases do cross posit(64, 9)'s short-fraction band and
        // saturate at its minpos.
        let scales: Vec<i64> = deep_cases()
            .iter()
            .map(|(probs, k)| pbd_pvalue::<P64E9>(probs, *k).scale().expect("nonzero"))
            .collect();
        let minpos = P64E9::format_info().min_positive_exp();
        assert!(scales.contains(&minpos), "{scales:?}");
        assert!(
            scales.iter().any(|&s| (minpos + 1..-26_624).contains(&s)),
            "{scales:?}"
        );
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
    fn oracle_pvalues_match_the_general_kernels_bit_for_bit() {
        // Every operation of a corpus column's recurrence: N x 1-limb
        // products and same-sign sums, plus the p-value's accumulation.
        let cases = window_cases();
        for bits in [128, 256] {
            let ctx = Context::new(bits);
            for (i, (probs, k)) in cases.iter().enumerate() {
                let got = pbd_pvalue_oracle(probs, *k, &ctx);
                let want = pbd_in(&GeneralKernels(bits), probs, *k);
                assert!(
                    bit_identical(&got, &want),
                    "case {i} (N={}, K={k}) at {bits} bits: {got:?} != {want:?}",
                    probs.len()
                );
            }
        }
    }

    #[test]
    fn dispatched_oracle_is_the_context_oracle_on_edge_cases() {
        // 48 seeded corpus columns, and every edge of `k`, `N` and `p`:
        // k = 0, k = N, k > N, N = 0, and p of exactly 0, exactly 1 and
        // the least subnormal.
        let mut cases: Vec<(Vec<f64>, usize)> = accuracy_corpus(20_261_019, 48)
            .into_iter()
            .map(|c| (c.success_probs, c.k))
            .collect();
        for k in [0, 1, 3] {
            cases.push((Vec::new(), k));
        }
        let mixed = vec![0.3, 0.0, 1.0, 5e-324, 0.7, 1.0, 0.0, 5e-324];
        for p in [0.0, 1.0, 5e-324] {
            for k in [0, 1, 3, 7, 8] {
                cases.push((vec![p; 7], k));
                cases.push((mixed.clone(), k));
            }
        }
        for bits in [64, 128, 192, 256, 320, 200] {
            let ctx = Context::new(bits);
            for (i, (probs, k)) in cases.iter().enumerate() {
                let got = pbd_pvalue_oracle(probs, *k, &ctx);
                let want = pbd_in(&ctx, probs, *k);
                assert!(
                    bit_identical(&got, &want),
                    "case {i} (N={}, K={k}) at {bits} bits: {got:?} != {want:?}",
                    probs.len()
                );
            }
        }
        // k = 0, N = 0 and a p-value that is exactly zero all carry the
        // context precision.
        let ctx = Context::new(128);
        let one = pbd_pvalue_oracle(&[0.5], 0, &ctx);
        assert!(one.to_f64() == 1.0 && one.precision() == 128, "{one:?}");
        for (probs, k) in [(&[][..], 2), (&[0.0; 3][..], 1)] {
            let none = pbd_pvalue_oracle(probs, k, &ctx);
            assert!(none.is_zero() && none.precision() == 128, "{none:?}");
        }
    }

    /// Brute-force `P(X >= k)` by enumerating all outcome subsets.
    fn brute_pvalue(probs: &[f64], k: usize) -> f64 {
        let n = probs.len();
        let mut total = 0.0;
        for mask in 0u32..(1 << n) {
            let successes = mask.count_ones() as usize;
            if successes < k {
                continue;
            }
            let mut p = 1.0;
            for (i, &pi) in probs.iter().enumerate() {
                p *= if mask >> i & 1 == 1 { pi } else { 1.0 - pi };
            }
            total += p;
        }
        total
    }

    #[test]
    fn matches_brute_force() {
        let probs = [0.3, 0.1, 0.5, 0.25, 0.9, 0.05];
        for k in 0..=6 {
            let want = brute_pvalue(&probs, k);
            let got: f64 = pbd_pvalue(&probs, k);
            assert!((got - want).abs() < 1e-14, "k={k}: got {got} want {want}");
            let gp: P64E9 = pbd_pvalue(&probs, k);
            assert!((gp.to_f64() - want).abs() < 1e-12, "posit k={k}");
            let gl = pbd_pvalue_log(&probs, k);
            assert!((gl.to_f64() - want).abs() < 1e-12, "log k={k}");
            let ctx = Context::new(256);
            let go = pbd_pvalue_oracle(&probs, k, &ctx);
            assert!((go.to_f64() - want).abs() < 1e-15, "oracle k={k}");
        }
    }

    /// `P(X = j) = P(X >= j) - P(X >= j + 1)` for `j` in `0..=N`.
    fn pmf_from_pvalues(probs: &[f64]) -> Vec<f64> {
        (0..=probs.len())
            .map(|j| pbd_pvalue::<f64>(probs, j) - pbd_pvalue::<f64>(probs, j + 1))
            .collect()
    }

    #[test]
    fn pmf_full_sums_to_one() {
        // With k = N + 1 nothing crosses the boundary, so the tail
        // differences are P(X = j) for every j in 0..=N.
        let probs = [0.2, 0.7, 0.4, 0.9, 0.01, 0.35, 0.5];
        assert_eq!(pbd_pvalue::<f64>(&probs, probs.len() + 1), 0.0);
        let pmf = pmf_from_pvalues(&probs);
        let sum: f64 = pmf.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // And matches the binomial closed form when all p equal.
        let equal = [0.3; 10];
        let pmf = pmf_from_pvalues(&equal);
        for (k, &got) in pmf.iter().enumerate() {
            let binom = binomial(10, k) * 0.3f64.powi(k as i32) * 0.7f64.powi((10 - k) as i32);
            assert!((got - binom).abs() < 1e-12, "k={k}: {got} vs {binom}");
        }
    }

    fn binomial(n: usize, k: usize) -> f64 {
        let mut c = 1.0;
        for i in 0..k {
            c = c * (n - i) as f64 / (i + 1) as f64;
        }
        c
    }

    #[test]
    fn pvalue_is_monotone_in_k() {
        let probs: Vec<f64> = (0..20).map(|i| 0.1 + 0.03 * (i % 7) as f64).collect();
        let mut prev = 2.0;
        for k in 0..=20 {
            let r: f64 = pbd_pvalue(&probs, k);
            assert!(r <= prev + 1e-15, "k={k}");
            prev = r;
        }
    }

    #[test]
    fn k_zero_is_certain() {
        let r: f64 = pbd_pvalue(&[0.5, 0.5], 0);
        assert_eq!(r, 1.0);
        let ctx = Context::new(128);
        assert_eq!(pbd_pvalue_oracle(&[0.5], 0, &ctx).to_f64(), 1.0);
    }

    #[test]
    fn paper_motivating_binomial_underflow() {
        // Section II: P = 0.3^N underflows binary64 for N > 618. The
        // probability of N successes in N trials is P(X >= N).
        let probs = vec![0.3; 700];
        let all: f64 = pbd_pvalue(&probs, probs.len());
        assert_eq!(all, 0.0, "binary64 underflows at 0.3^700");
        let all: P64E18 = pbd_pvalue(&probs, probs.len());
        assert!(!all.is_zero(), "posit(64,18) holds 0.3^700");
        // 0.3^700 = 2^(700*log2(0.3)) ~ 2^-1215.6.
        let e = all.to_bigfloat().exponent().unwrap();
        assert_eq!(e, -1216);
    }

    #[test]
    fn deep_pvalue_magnitudes_survive_in_posit_and_log() {
        // A scaled-down "critical column": 60 trials with tiny success
        // probabilities, k=40 -> p-value far below 2^-1074.
        let probs: Vec<f64> = (0..60).map(|i| 2f64.powi(-40 - (i % 17))).collect();
        let ctx = Context::new(256);
        let oracle = pbd_pvalue_oracle(&probs, 40, &ctx);
        let oe = oracle.exponent().unwrap();
        assert!(oe < -1_400, "oracle exponent {oe}");
        let f: f64 = pbd_pvalue(&probs, 40);
        assert!(f.is_zero(), "binary64 underflows");
        let p: P64E12 = pbd_pvalue(&probs, 40);
        let pe = p.to_bigfloat().exponent().unwrap();
        assert!((pe - oe).abs() <= 1, "posit exponent {pe} vs oracle {oe}");
        let l = pbd_pvalue_log(&probs, 40);
        let le = (l.ln_value() / core::f64::consts::LN_2).round() as i64;
        assert!((le - oe).abs() <= 1, "log exponent {le} vs oracle {oe}");
    }
}
