//! [`Arith`]: the [`StatFloat`] operations taken through `&self`, so an
//! arithmetic may carry runtime state. The 256-bit oracle needs that:
//! a `Context` holds its precision at run time. A recurrence written
//! once over `A: Arith` runs on a `Context`, on the whole-limb
//! [`Whole<N>`], on the decoded posits of [`DecodedPosit<N, ES>`], and,
//! through the zero-sized [`Native`], on every `StatFloat`.
//!
//! Summation order lives in two methods: [`Arith::sum`], a left fold,
//! and [`Arith::vec_mat`], the forward step's `h` path sums, each with
//! the bits of that fold over `p` in order. The default step advances
//! the `h` folds together, as independent chains. An arithmetic whose
//! `sum` is not a left fold (the forward pass's n-ary log-sum-exp)
//! overrides both.
//!
//! A format pass, one recurrence computing format `T`'s bits, runs in
//! the arithmetic that [`StatFloat::run_pass`] picks, the one place
//! where that choice is made: [`Native<T>`] by default, and for every
//! `Posit<N, ES>` the [`DecodedPosit<N, ES>`] arithmetic, whose
//! [`PositValue`]s stay decoded between operations and round exactly as
//! the posit's own operators do. The pass converts its inputs into the
//! arithmetic's values once and its result back once ([`FormatArith`]),
//! so a posit result is encoded once, bit-identical to a `Native` pass.
//!
//! The oracle runs in one of two arithmetics, and [`run_oracle`] is the
//! one place that picks between them by precision:
//!
//! * at a whole-limb precision `64 * N` (`N <= 5`: serve's 128 bits,
//!   the fig01 trace's 192 and the oracle's 256, plus 64 and 320), on
//!   [`Whole<N>`]: `Copy` [`WholeFloat<N>`] values, an `i64` exponent
//!   and `N` limbs, run through the same kernels as `Context`'s
//!   whole-limb tier;
//! * at every other precision, on the `Context` itself.
//!
//! Both give the same bits, precision tags included ([`Oracle`]).

use crate::statfloat::StatFloat;
use compstat_bigfloat::{BigFloat, Context, WholeFloat};
use compstat_posit::{Posit, PositValue};
use core::marker::PhantomData;

/// A number system as a value: the operations statistical recurrences
/// are made of, evaluated in the context `self` carries.
pub trait Arith {
    /// The values this arithmetic computes on.
    type V: Clone;

    /// Additive identity.
    fn zero(&self) -> Self::V;

    /// Multiplicative identity.
    fn one(&self) -> Self::V;

    /// Imports an input probability, rounded into the format.
    fn import_f64(&self, x: f64) -> Self::V;

    /// Addition.
    fn add(&self, a: &Self::V, b: &Self::V) -> Self::V;

    /// Multiplication.
    fn mul(&self, a: &Self::V, b: &Self::V) -> Self::V;

    /// Sums `terms` left to right, rounding after each partial sum; an
    /// empty sum is zero.
    ///
    /// The fold is seeded with the first term, which is bit-identical
    /// to seeding with zero wherever `add(zero, x)` is `x`: non-negative
    /// binary64, posits, log-space, `HdrFloat`, `Context` values at the
    /// context's precision, and the whole-limb [`Whole<N>`] (checked by
    /// the property tests below).
    /// The iterator is `Clone` so an override may take two passes, as
    /// the n-ary log-sum-exp does.
    ///
    /// The forward step's path sums do not come through here but through
    /// [`Arith::vec_mat`], which gives each the bits of this fold. An
    /// arithmetic whose `sum` is not a left fold overrides both.
    fn sum(&self, terms: impl Iterator<Item = Self::V> + Clone) -> Self::V {
        let mut terms = terms;
        match terms.next() {
            Some(first) => terms.fold(first, |acc, t| self.add(&acc, &t)),
            None => self.zero(),
        }
    }

    /// The forward step's path sums: `out[q] = Σ_p x[p] · w[p·h + q]`,
    /// where `h = out.len()` and `w` holds `x.len()` rows of `h`.
    ///
    /// Each `out[q]` has exactly the bits of [`Arith::sum`] over `p` in
    /// order. The default seeds every sum with its `p = 0` term and then
    /// adds row after row, so the `h` sums are independent chains that
    /// advance together, each in its own order: the bits of the left
    /// fold in every arithmetic. An arithmetic whose `sum` is not a left
    /// fold (the forward pass's n-ary log-sum-exp) overrides this too.
    fn vec_mat(&self, x: &[Self::V], w: &[Self::V], out: &mut [Self::V]) {
        let h = out.len();
        debug_assert_eq!(w.len(), x.len() * h, "w is not x.len() rows of out.len()");
        let Some((x0, rest)) = x.split_first() else {
            out.fill(self.zero());
            return;
        };
        if h == 0 {
            return;
        }
        let (row0, rows) = w.split_at(h);
        for (o, w0q) in out.iter_mut().zip(row0) {
            *o = self.mul(x0, w0q);
        }
        for (xp, row) in rest.iter().zip(rows.chunks_exact(h)) {
            for (o, wpq) in out.iter_mut().zip(row) {
                *o = self.add(o, &self.mul(xp, wpq));
            }
        }
    }
}

/// The oracle: correctly rounded at the context precision, with `f64`
/// inputs imported exactly. Zero and one carry the context's precision
/// tag, as every sum and product does.
impl Arith for Context {
    type V = BigFloat;

    #[inline]
    fn zero(&self) -> BigFloat {
        BigFloat::zero().round_to(self.prec())
    }

    #[inline]
    fn one(&self) -> BigFloat {
        BigFloat::one().round_to(self.prec())
    }

    #[inline]
    fn import_f64(&self, x: f64) -> BigFloat {
        BigFloat::from_f64(x)
    }

    #[inline]
    fn add(&self, a: &BigFloat, b: &BigFloat) -> BigFloat {
        Context::add(self, a, b)
    }

    #[inline]
    fn mul(&self, a: &BigFloat, b: &BigFloat) -> BigFloat {
        Context::mul(self, a, b)
    }
}

/// The oracle at the whole-limb precision `64 * N` bits (`N <= 5`), on
/// `Copy` [`WholeFloat<N>`] values. Every result is bit-identical to
/// `Context::new(64 * N)`'s, but only finite non-negative values exist
/// here: importing any other `f64` panics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Whole<const N: usize>;

impl<const N: usize> Arith for Whole<N> {
    type V = WholeFloat<N>;

    #[inline]
    fn zero(&self) -> WholeFloat<N> {
        WholeFloat::ZERO
    }

    #[inline]
    fn one(&self) -> WholeFloat<N> {
        WholeFloat::ONE
    }

    #[inline]
    fn import_f64(&self, x: f64) -> WholeFloat<N> {
        WholeFloat::from_f64(x)
    }

    #[inline]
    fn add(&self, a: &WholeFloat<N>, b: &WholeFloat<N>) -> WholeFloat<N> {
        a.add(b)
    }

    #[inline]
    fn mul(&self, a: &WholeFloat<N>, b: &WholeFloat<N>) -> WholeFloat<N> {
        a.mul(b)
    }
}

/// An oracle arithmetic: its values convert back to the `BigFloat` a
/// `Context` at its precision computes.
pub trait Oracle: Arith {
    /// `v` as that `BigFloat`, precision tag included.
    fn to_bigfloat(&self, v: &Self::V) -> BigFloat;
}

impl Oracle for Context {
    fn to_bigfloat(&self, v: &BigFloat) -> BigFloat {
        v.clone()
    }
}

impl<const N: usize> Oracle for Whole<N> {
    fn to_bigfloat(&self, v: &WholeFloat<N>) -> BigFloat {
        v.to_bigfloat()
    }
}

/// A computation written once over every [`Oracle`] arithmetic: what
/// [`run_oracle`] runs.
pub trait OraclePass {
    /// What the pass returns.
    type Output;

    /// Runs the pass in `ar`.
    fn run<A: Oracle>(self, ar: &A) -> Self::Output;
}

/// Runs `pass` in the fastest arithmetic that computes `ctx`'s bits:
/// [`Whole<N>`] when `ctx.prec()` is `64 * N` with `N <= 5`, `ctx`
/// itself at every other precision.
///
/// A pass that [`Whole<N>`] may run imports only finite, non-negative
/// `f64`s, since other values do not exist there. A caller whose inputs
/// may break that rule runs the pass on `ctx` instead.
pub fn run_oracle<P: OraclePass>(ctx: &Context, pass: P) -> P::Output {
    match ctx.prec() {
        64 => pass.run(&Whole::<1>),
        128 => pass.run(&Whole::<2>),
        192 => pass.run(&Whole::<3>),
        256 => pass.run(&Whole::<4>),
        320 => pass.run(&Whole::<5>),
        _ => pass.run(ctx),
    }
}

/// The arithmetic of the [`StatFloat`] format `T`, which needs no state.
pub struct Native<T>(PhantomData<fn() -> T>);

impl<T> Native<T> {
    /// The arithmetic of format `T`.
    #[must_use]
    pub const fn new() -> Native<T> {
        Native(PhantomData)
    }
}

impl<T> Default for Native<T> {
    fn default() -> Self {
        Native::new()
    }
}

impl<T: StatFloat> Arith for Native<T> {
    type V = T;

    #[inline]
    fn zero(&self) -> T {
        T::zero()
    }

    #[inline]
    fn one(&self) -> T {
        T::one()
    }

    #[inline]
    fn import_f64(&self, x: f64) -> T {
        T::from_f64(x)
    }

    #[inline]
    fn add(&self, a: &T, b: &T) -> T {
        a.add(*b)
    }

    #[inline]
    fn mul(&self, a: &T, b: &T) -> T {
        a.mul(*b)
    }
}

/// An arithmetic that computes format `T`'s bits on values of its own,
/// each standing for exactly one `T`.
pub trait FormatArith<T>: Arith {
    /// The value standing for `x` (exact).
    fn decode(&self, x: &T) -> Self::V;

    /// The `T` that `v` stands for (exact).
    fn encode(&self, v: &Self::V) -> T;
}

/// A computation written once over every [`FormatArith`] of format `T`:
/// what [`StatFloat::run_pass`] runs.
pub trait FormatPass<T> {
    /// What the pass returns.
    type Output;

    /// Runs the pass in `ar`.
    fn run<A: FormatArith<T>>(self, ar: &A) -> Self::Output;
}

impl<T: StatFloat> FormatArith<T> for Native<T> {
    #[inline]
    fn decode(&self, x: &T) -> T {
        *x
    }

    #[inline]
    fn encode(&self, v: &T) -> T {
        *v
    }
}

/// `posit(N, ES)` on decoded [`PositValue`]s: each operand is decoded
/// once, and every sum and product rounds onto the posit grid without
/// being encoded, bit-identical to [`Native<Posit<N, ES>>`]. What
/// [`StatFloat::run_pass`] runs a posit's format passes on.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecodedPosit<const N: u32, const ES: u32>;

impl<const N: u32, const ES: u32> Arith for DecodedPosit<N, ES> {
    type V = PositValue<N, ES>;

    #[inline]
    fn zero(&self) -> PositValue<N, ES> {
        PositValue::ZERO
    }

    #[inline]
    fn one(&self) -> PositValue<N, ES> {
        PositValue::ONE
    }

    #[inline]
    fn import_f64(&self, x: f64) -> PositValue<N, ES> {
        PositValue::from_f64(x)
    }

    #[inline]
    fn add(&self, a: &PositValue<N, ES>, b: &PositValue<N, ES>) -> PositValue<N, ES> {
        *a + *b
    }

    #[inline]
    fn mul(&self, a: &PositValue<N, ES>, b: &PositValue<N, ES>) -> PositValue<N, ES> {
        *a * *b
    }
}

impl<const N: u32, const ES: u32> FormatArith<Posit<N, ES>> for DecodedPosit<N, ES> {
    #[inline]
    fn decode(&self, x: &Posit<N, ES>) -> PositValue<N, ES> {
        PositValue::from_posit(*x)
    }

    #[inline]
    fn encode(&self, v: &PositValue<N, ES>) -> Posit<N, ES> {
        v.to_posit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_bigfloat::HdrFloat;
    use compstat_logspace::{log_sum_exp, LogF64};
    use compstat_posit::{P64E12, P64E18, P64E9};
    use proptest::prelude::*;

    /// A non-negative term of the kind the recurrences sum: exact zero,
    /// a binary64 subnormal, an ordinary probability, or a value
    /// thousands to millions of binades below binary64's range.
    fn decode_term(s: u64) -> BigFloat {
        let mantissa = BigFloat::from_f64(1.0 + (s >> 12) as f64 * (f64::EPSILON / 2.0));
        let e = (s >> 3) as i64;
        match s % 8 {
            0 => BigFloat::zero(),
            1 => BigFloat::from_f64(f64::from_bits(1 + (s >> 12))),
            2 | 3 => mantissa.mul_pow2(-(e % 1_000)),
            4 | 5 => mantissa.mul_pow2(-1_100 - e % 20_000),
            _ => mantissa.mul_pow2(-(e % 3_000_000)),
        }
    }

    fn terms() -> impl Strategy<Value = Vec<BigFloat>> {
        proptest::collection::vec(proptest::num::u64::ANY.prop_map(decode_term), 0..10)
    }

    /// `ar.sum` equals a zero-seeded fold, compared through `bits`.
    fn seeded_is_zero_fold<A: Arith, B: PartialEq>(
        ar: &A,
        xs: &[A::V],
        bits: impl Fn(&A::V) -> B,
    ) -> bool {
        let folded = xs.iter().fold(ar.zero(), |acc, x| ar.add(&acc, x));
        bits(&ar.sum(xs.iter().cloned())) == bits(&folded)
    }

    fn native<T: StatFloat, B: PartialEq>(xs: &[BigFloat], bits: impl Fn(&T) -> B) -> bool {
        let vs: Vec<T> = xs.iter().map(T::from_bigfloat).collect();
        seeded_is_zero_fold(&Native::<T>::new(), &vs, bits)
    }

    /// The whole-limb arithmetic at `64 * N` bits: its sum is a
    /// zero-seeded fold, and `Context`'s sum to the bit.
    fn whole<const N: usize>(xs: &[BigFloat]) -> bool {
        let ctx = Context::new(WholeFloat::<N>::PREC);
        let rounded: Vec<BigFloat> = xs.iter().map(|x| ctx.round(x)).collect();
        let vs: Vec<WholeFloat<N>> = rounded
            .iter()
            .map(|x| WholeFloat::from_bigfloat(x).expect("a non-negative term"))
            .collect();
        let whole_sum = Whole::<N>.sum(vs.iter().copied()).to_bigfloat();
        seeded_is_zero_fold(&Whole::<N>, &vs, |v| v.to_bigfloat().to_bytes())
            && (xs.is_empty() || whole_sum.to_bytes() == ctx.sum(rounded.into_iter()).to_bytes())
    }

    /// The path counts the step is checked at: one state, a few, fig10's
    /// 8 and its paper-scale 13.
    const STEP_HS: [usize; 5] = [1, 2, 3, 8, 13];

    /// The most terms a step draws: `x` of up to 5 and `w` of 5 rows of
    /// up to 13.
    const STEP_TERMS: usize = 5 + 5 * 13;

    /// A forward step's shape: `(h, x, w)`.
    type Step = (usize, Vec<BigFloat>, Vec<BigFloat>);

    /// `x` of `len` terms and `w` of `len` rows of `h`, decoded from
    /// `seeds` in that order.
    ///
    /// With `near`, each nonzero term keeps its significand but moves to
    /// within four binades of one, and `x` takes a 320-bit significand
    /// (a third of its term), as `alpha` carries one. Then products and
    /// partial sums round in every format, so a path sum's bits depend
    /// on its order.
    fn step(h: usize, len: usize, seeds: &[u64], near: bool) -> Step {
        let wide = Context::new(320);
        let term = |s: u64| {
            let t = decode_term(s);
            match t.exponent() {
                Some(e) if near => t.mul_pow2(-e - (s >> 3 & 3) as i64),
                _ => t,
            }
        };
        let x_term = |s: u64| {
            if near {
                wide.div(&term(s), &BigFloat::from_f64(3.0))
            } else {
                term(s)
            }
        };
        let x = seeds[..len].iter().map(|&s| x_term(s)).collect();
        let w = seeds[len..len + len * h].iter().map(|&s| term(s)).collect();
        (h, x, w)
    }

    /// `ar.vec_mat(x, w)` on `ar`'s values of the terms (made by `value`)
    /// against one `ar.sum` per column over `p` in order, compared
    /// through `bits`. `out` starts at one, so every slot must be
    /// written, an empty `x` included.
    fn step_is_sum<A: Arith, B: PartialEq>(
        ar: &A,
        (h, x, w): &Step,
        value: impl Fn(&BigFloat) -> A::V,
        bits: impl Fn(&A::V) -> B,
    ) -> bool {
        let h = *h;
        let x: Vec<A::V> = x.iter().map(&value).collect();
        let w: Vec<A::V> = w.iter().map(&value).collect();
        let mut out = vec![ar.one(); h];
        ar.vec_mat(&x, &w, &mut out);
        out.iter().enumerate().all(|(q, got)| {
            let want = ar.sum(
                x.iter()
                    .enumerate()
                    .map(|(p, xp)| ar.mul(xp, &w[p * h + q])),
            );
            bits(got) == bits(&want)
        })
    }

    fn native_step<T: StatFloat, B: PartialEq>(shape: &Step, bits: impl Fn(&T) -> B) -> bool {
        step_is_sum(&Native::<T>::new(), shape, T::from_bigfloat, bits)
    }

    fn decoded_step<const N: u32, const ES: u32>(shape: &Step) -> bool
    where
        Posit<N, ES>: StatFloat,
    {
        let ar = DecodedPosit::<N, ES>;
        step_is_sum(
            &ar,
            shape,
            |x| ar.decode(&Posit::from_bigfloat(x)),
            |v| v.to_posit().to_bits(),
        )
    }

    /// The whole-limb step on the terms rounded to `64 * N` bits.
    fn whole_step<const N: usize>(shape: &Step) -> bool {
        let ctx = Context::new(WholeFloat::<N>::PREC);
        let value = |x: &BigFloat| {
            WholeFloat::<N>::from_bigfloat(&ctx.round(x)).expect("a non-negative term")
        };
        step_is_sum(&Whole::<N>, shape, value, |v| *v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn vec_mat_is_the_per_column_sum(
            hi in 0..STEP_HS.len(),
            len in 0..6usize,
            seeds in proptest::collection::vec(proptest::num::u64::ANY, STEP_TERMS..STEP_TERMS + 1),
            near in proptest::bool::ANY,
        ) {
            let shape = step(STEP_HS[hi], len, &seeds, near);
            prop_assert!(native_step::<f64, _>(&shape, |v| v.to_bits()), "binary64 {:?}", shape);
            prop_assert!(native_step::<HdrFloat, _>(&shape, |v| (v.mantissa().to_bits(), v.exponent())), "hdr {:?}", shape);
            prop_assert!(native_step::<LogF64, _>(&shape, |v| v.ln_value().to_bits()), "Log {:?}", shape);
            prop_assert!(decoded_step::<64, 9>(&shape), "P64E9 {:?}", shape);
            prop_assert!(decoded_step::<64, 12>(&shape), "P64E12 {:?}", shape);
            prop_assert!(decoded_step::<64, 18>(&shape), "P64E18 {:?}", shape);
            prop_assert!(whole_step::<1>(&shape), "Whole<1> {:?}", shape);
            prop_assert!(whole_step::<2>(&shape), "Whole<2> {:?}", shape);
            prop_assert!(whole_step::<3>(&shape), "Whole<3> {:?}", shape);
            prop_assert!(whole_step::<4>(&shape), "Whole<4> {:?}", shape);
            prop_assert!(whole_step::<5>(&shape), "Whole<5> {:?}", shape);
            for prec in [53, 200, 256] {
                let ctx = Context::new(prec);
                prop_assert!(step_is_sum(&ctx, &shape, |x| ctx.round(x), |v| v.to_bytes()), "prec {} {:?}", prec, shape);
            }
        }

        #[test]
        fn seeded_sum_is_a_zero_seeded_fold(xs in terms()) {
            prop_assert!(native::<f64, _>(&xs, |v| v.to_bits()), "binary64 {:?}", xs);
            prop_assert!(native::<P64E9, _>(&xs, |v| v.to_bits()), "P64E9 {:?}", xs);
            prop_assert!(native::<P64E12, _>(&xs, |v| v.to_bits()), "P64E12 {:?}", xs);
            prop_assert!(native::<P64E18, _>(&xs, |v| v.to_bits()), "P64E18 {:?}", xs);
            prop_assert!(native::<LogF64, _>(&xs, |v| v.ln_value().to_bits()), "Log {:?}", xs);
            prop_assert!(native::<HdrFloat, _>(&xs, |v| (v.mantissa().to_bits(), v.exponent())), "hdr {:?}", xs);
            for prec in [53, 128, 192, 256] {
                // Recurrence terms are products, so they carry the
                // context precision; rounding the inputs reproduces that.
                let ctx = Context::new(prec);
                let vs: Vec<BigFloat> = xs.iter().map(|x| ctx.round(x)).collect();
                prop_assert!(seeded_is_zero_fold(&ctx, &vs, |v| v.to_bytes()), "prec {} {:?}", prec, xs);
            }
            prop_assert!(whole::<2>(&xs), "Whole<2> {:?}", xs);
            prop_assert!(whole::<4>(&xs), "Whole<4> {:?}", xs);
        }

        #[test]
        fn lazy_log_sum_exp_matches_the_collected_terms(xs in terms()) {
            // The n-ary LSE reads its terms twice: a lazy iterator that
            // recomputes each product per pass gives the collected bits.
            let w = LogF64::from_f64(0.3);
            let vs: Vec<LogF64> = xs.iter().map(<LogF64 as StatFloat>::from_bigfloat).collect();
            let collected: Vec<LogF64> = vs.iter().map(|&v| v * w).collect();
            let lazy = log_sum_exp(vs.iter().map(|&v| v * w));
            prop_assert_eq!(lazy.ln_value().to_bits(), log_sum_exp(collected).ln_value().to_bits());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "w is not x.len() rows of out.len()")]
    fn vec_mat_rejects_a_shape_mismatch() {
        let mut out = [0.0; 2];
        Native::<f64>::new().vec_mat(&[0.5, 0.5], &[1.0; 3], &mut out);
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(Native::<f64>::new().sum(core::iter::empty()), 0.0);
        let zero = Arith::sum(&Context::new(64), core::iter::empty());
        assert!(zero.is_zero() && zero.precision() == 64, "{zero:?}");
    }
}
