//! [`Arith`]: the [`StatFloat`] operations taken through `&self`, so an
//! arithmetic may carry runtime state. The 256-bit oracle needs that:
//! a `Context` holds its precision at run time. A recurrence written
//! once over `A: Arith` runs on a `Context` and, through the zero-sized
//! [`Native`], on every `StatFloat`.

use crate::statfloat::StatFloat;
use compstat_bigfloat::{BigFloat, Context};
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
    /// binary64, posits, log-space, `HdrFloat`, and `Context` values at
    /// the context's precision (checked by the property tests below).
    /// The iterator is `Clone` so an override may take two passes, as
    /// the n-ary log-sum-exp does.
    fn sum(&self, terms: impl Iterator<Item = Self::V> + Clone) -> Self::V {
        let mut terms = terms;
        match terms.next() {
            Some(first) => terms.fold(first, |acc, t| self.add(&acc, &t)),
            None => self.zero(),
        }
    }
}

/// The oracle: correctly rounded at the context precision, with `f64`
/// inputs imported exactly.
impl Arith for Context {
    type V = BigFloat;

    #[inline]
    fn zero(&self) -> BigFloat {
        BigFloat::zero()
    }

    #[inline]
    fn one(&self) -> BigFloat {
        BigFloat::one()
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

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_bigfloat::{bit_identical, HdrFloat};
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

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
    fn empty_sum_is_zero() {
        assert_eq!(Native::<f64>::new().sum(core::iter::empty()), 0.0);
        assert!(bit_identical(
            &Arith::sum(&Context::new(64), core::iter::empty()),
            &BigFloat::zero()
        ));
    }
}
