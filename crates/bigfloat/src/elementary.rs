//! Elementary functions: natural logarithm and exponential.
//!
//! These are the two transcendental operations statistical log-space
//! computation rests on (`log_sum_exp` is built from them). Results are
//! faithfully rounded: the working precision carries 32-64 guard bits, so
//! the returned value is within 1 ulp of the exact result at the context
//! precision (tight enough for every experiment in the paper, which
//! compares 64-bit formats against a 256-bit oracle).

use crate::arith::Context;
use crate::limb;
use crate::repr::{BigFloat, Kind, Sign};
use std::sync::Mutex;

static LN2_CACHE: Mutex<Option<BigFloat>> = Mutex::new(None);

impl BigFloat {
    /// Divides by a small unsigned integer, keeping `prec` bits.
    ///
    /// Much cheaper than a full [`Context::div`] and exact up to the final
    /// rounding; used heavily by series evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn div_u64(&self, d: u64, prec: u32) -> BigFloat {
        assert!(d != 0, "division by zero");
        let (sign, kind, exp, limbs, _) = self.parts();
        match kind {
            Kind::Zero => return BigFloat::zero(),
            Kind::Inf => return BigFloat::infinity(sign),
            Kind::Nan => return BigFloat::nan(),
            Kind::Normal => {}
        }
        // Extend with two low zero limbs so the quotient keeps full
        // precision even after losing up to 63 bits to the divisor.
        let mut ext = vec![0u64, 0u64];
        ext.extend_from_slice(limbs);
        let top_before = ext.len() as i64 * 64 - 1;
        let rem = limb::div_small_in_place(&mut ext, d);
        let h = limb::highest_bit(&ext).expect("quotient of nonzero by small is nonzero");
        let exp_of_top = exp - (top_before - h as i64);
        BigFloat::from_raw(sign, exp_of_top, &ext, rem != 0, prec)
    }
}

/// Computes `ln 2` to at least `prec` bits via `2·atanh(1/3)`.
fn compute_ln2(prec: u32) -> BigFloat {
    let wp = prec + 32;
    // atanh(1/3) = sum_{k>=0} (1/3)^(2k+1) / (2k+1); each term gains
    // log2(9) ~ 3.17 bits.
    let mut u = BigFloat::one().div_u64(3, wp); // (1/3)^(2k+1)
    let mut sum = u.clone();
    let mut k: u64 = 1;
    loop {
        u = u.div_u64(9, wp);
        let term = u.div_u64(2 * k + 1, wp);
        let Some(te) = term.exponent() else { break };
        sum = Context::new(wp).add(&sum, &term);
        if te < -(wp as i64) - 2 {
            break;
        }
        k += 1;
    }
    sum.mul_pow2(1).round_to(prec)
}

/// Returns `ln 2` rounded to `prec` bits (cached across calls).
#[must_use]
pub fn ln2(prec: u32) -> BigFloat {
    // The cached value is always a fully-constructed BigFloat, so a
    // panic elsewhere while the lock was held (e.g. an out-of-range
    // `prec` asserting inside `round_to` below) cannot leave it torn:
    // recover from poisoning instead of propagating it to every later
    // caller.
    {
        let guard = LN2_CACHE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(v) = &*guard {
            if v.precision() >= prec {
                return v.round_to(prec);
            }
        }
    }
    // Compute with headroom so repeated small bumps don't recompute.
    let fresh = compute_ln2(prec.max(320) + 64);
    let out = fresh.round_to(prec);
    *LN2_CACHE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(fresh);
    out
}

impl Context {
    /// Natural logarithm, faithfully rounded.
    ///
    /// `ln(0)` is negative infinity; `ln` of a negative number is NaN.
    /// This is the conversion *into* log-space: the paper converts
    /// operands to log-space in MPFR exactly this way.
    #[must_use]
    pub fn ln(&self, x: &BigFloat) -> BigFloat {
        let prec = self.prec();
        match x.kind() {
            Kind::Zero => return BigFloat::infinity(Sign::Neg),
            Kind::Nan => return BigFloat::nan(),
            Kind::Inf => {
                return if x.sign() == Sign::Neg {
                    BigFloat::nan()
                } else {
                    BigFloat::infinity(Sign::Pos)
                };
            }
            Kind::Normal => {}
        }
        if x.sign() == Sign::Neg {
            return BigFloat::nan();
        }
        let e = x.exponent().expect("normal");
        let wp = prec + 64;
        let ctx = Context::new(wp);
        // m in [1, 2). `-e` overflows i64 negation at `e == i64::MIN`
        // (reachable: `2^(i64::MIN)` is a representable BigFloat), so
        // split that one shift into two exact halves.
        let m = if e == i64::MIN {
            x.mul_pow2(i64::MAX).mul_pow2(1)
        } else {
            x.mul_pow2(-e)
        };
        // ln m = 2 atanh(t), t = (m-1)/(m+1) in [0, 1/3).
        let one = BigFloat::one();
        let num = ctx.sub(&m, &one);
        let lnm = if num.is_zero() {
            BigFloat::zero()
        } else {
            let den = ctx.add(&m, &one);
            let t = ctx.div(&num, &den);
            let t2 = ctx.mul(&t, &t);
            let mut u = t.clone();
            let mut sum = t;
            let mut k: u64 = 1;
            loop {
                u = ctx.mul(&u, &t2);
                let term = u.div_u64(2 * k + 1, wp);
                let Some(te) = term.exponent() else { break };
                sum = ctx.add(&sum, &term);
                // sum's exponent is >= t's; stop once terms are dust.
                if te < sum.exponent().unwrap_or(0) - wp as i64 - 2 {
                    break;
                }
                k += 1;
            }
            sum.mul_pow2(1)
        };
        // ln x = ln m + e ln 2.
        let result = if e == 0 {
            lnm
        } else {
            let eln2 = ctx.mul(&BigFloat::from_i64(e), &ln2(wp));
            ctx.add(&lnm, &eln2)
        };
        result.round_to(prec)
    }

    /// Exponential function, faithfully rounded.
    ///
    /// Handles arguments of enormous magnitude (e.g. `exp(-2_010_127)`,
    /// the VICAR log-likelihood) by exact argument reduction
    /// `exp(x) = 2^n · exp(x - n ln 2)`.
    #[must_use]
    pub fn exp(&self, x: &BigFloat) -> BigFloat {
        let prec = self.prec();
        match x.kind() {
            Kind::Zero => return BigFloat::one().round_to(prec),
            Kind::Nan => return BigFloat::nan(),
            Kind::Inf => {
                return if x.sign() == Sign::Neg {
                    BigFloat::zero()
                } else {
                    BigFloat::infinity(Sign::Pos)
                };
            }
            Kind::Normal => {}
        }
        // Guard astronomically large arguments: 2^(x/ln2) with |n| beyond
        // i64 saturates.
        if x.exponent().unwrap_or(0) > 62 {
            return if x.sign() == Sign::Neg {
                BigFloat::zero()
            } else {
                BigFloat::infinity(Sign::Pos)
            };
        }
        let wp = prec + 64;
        let ctx = Context::new(wp);
        let l2 = ln2(wp);
        let n = ctx.div(x, &l2).to_i64_round();
        // r = x - n ln2, |r| <= ln2/2 + tiny.
        let r = ctx.sub(x, &ctx.mul(&BigFloat::from_i64(n), &l2));
        // When |x| > i64::MAX * ln2 (~6.39e18, exponent 62 — just under
        // the guard above), `to_i64_round` saturates, the reduction
        // leaves |r| up to ~2.8e18, and the Taylor loop below would
        // effectively never terminate. A successful reduction always
        // has |r| <= ln2/2 + tiny (exponent <= -1), so any larger
        // remainder is the saturation artifact: the true result is far
        // past 2^(i64::MAX) / below 2^(i64::MIN) either way.
        if r.exponent().unwrap_or(i64::MIN) >= 0 {
            return if x.sign() == Sign::Neg {
                BigFloat::zero()
            } else {
                BigFloat::infinity(Sign::Pos)
            };
        }
        let mut term = BigFloat::one();
        let mut sum = BigFloat::one();
        let mut k: u64 = 1;
        loop {
            term = ctx.mul(&term, &r).div_u64(k, wp);
            let Some(te) = term.exponent() else { break };
            sum = ctx.add(&sum, &term);
            if te < -(wp as i64) - 2 {
                break;
            }
            k += 1;
        }
        sum.mul_pow2(n).round_to(prec)
    }

    /// Base-2 logarithm, via `ln(x)/ln(2)`.
    #[must_use]
    pub fn log2(&self, x: &BigFloat) -> BigFloat {
        let wp = Context::new(self.prec() + 32);
        let l = wp.ln(x);
        if !l.is_finite() {
            return l;
        }
        wp.div(&l, &ln2(self.prec() + 32)).round_to(self.prec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::new(256)
    }

    #[test]
    fn ln2_matches_f64_constant() {
        let v = ln2(96);
        assert!((v.to_f64() - core::f64::consts::LN_2).abs() < 1e-16);
    }

    #[test]
    fn ln_matches_f64_ln() {
        for x in [1.0, 2.0, 0.5, 10.0, 0.3, 1e-300, 1e300, 1.0000001] {
            let l = ctx().ln(&BigFloat::from_f64(x));
            let expected = x.ln();
            if expected == 0.0 {
                assert_eq!(l.to_f64(), 0.0);
            } else {
                assert!(
                    (l.to_f64() - expected).abs() <= expected.abs() * 1e-15,
                    "ln({x}) = {} want {expected}",
                    l.to_f64()
                );
            }
        }
    }

    #[test]
    fn exp_matches_f64_exp() {
        for x in [0.0, 1.0, -1.0, 0.5, -20.0, 10.0, 700.0, -700.0] {
            let e = ctx().exp(&BigFloat::from_f64(x));
            let expected = x.exp();
            assert!(
                (e.to_f64() - expected).abs() <= expected.abs() * 1e-14,
                "exp({x}) = {} want {expected}",
                e.to_f64()
            );
        }
    }

    #[test]
    fn ln_exp_round_trip() {
        let c = ctx();
        for x in [0.3, 1.7, 42.0, 1e-10] {
            let b = BigFloat::from_f64(x);
            let back = c.exp(&c.ln(&b));
            let err = (&back - &b).abs();
            // Within ~2 ulp at 256 bits.
            assert!(
                err.is_zero() || err.exponent().unwrap() < b.exponent().unwrap() - 250,
                "round trip {x}"
            );
        }
    }

    #[test]
    fn ln_of_tiny_probability_is_paper_example() {
        // The paper: ln(2^-120_000) ~ -83177.66.
        let x = BigFloat::pow2(-120_000);
        let l = ctx().ln(&x);
        let approx = l.to_f64();
        assert!((approx + 83_177.66).abs() < 0.01, "got {approx}");
    }

    #[test]
    fn exp_of_huge_negative_argument() {
        // The paper: log of 2^-2_900_000 is about -2_010_126.824; exp of
        // that must come back with the right base-2 exponent.
        let l = BigFloat::from_f64(-2_010_126.824);
        let x = ctx().exp(&l);
        let e2 = x.exponent().unwrap();
        assert!((e2 - (-2_900_000)).abs() < 5, "exponent {e2}");
    }

    #[test]
    fn exp_at_the_i64_saturation_threshold() {
        let c = ctx();
        // i64::MAX * ln2 ~ 6.3938e18 (exponent 62). Arguments past it
        // make `to_i64_round` saturate; before the remainder check the
        // Taylor loop on the ~2.8e18 leftover never finished. On both
        // sides of the threshold exp must land on Inf / Zero.
        for mag in [6.4e18, 7.0e18, 9.2e18] {
            let pos = c.exp(&BigFloat::from_f64(mag));
            assert_eq!(pos.kind(), Kind::Inf, "exp({mag})");
            assert_eq!(pos.sign(), Sign::Pos);
            let neg = c.exp(&BigFloat::from_f64(-mag));
            assert!(neg.is_zero(), "exp(-{mag})");
            assert_eq!(neg.sign(), Sign::Pos, "single unsigned zero");
        }
        // Just below the threshold the reduction is legitimate: n is
        // near i64::MAX and the result's base-2 exponent is n exactly
        // (|r| < ln2/2 keeps exp(r) in [2^-1/2, 2^1/2)).
        let x = BigFloat::from_f64(6.3e18);
        let y = Context::new(64).exp(&x);
        let expected_n = (6.3e18 / core::f64::consts::LN_2).round() as i64;
        let got = y.exponent().unwrap();
        // expected_n carries f64 rounding error (~one 1024-ulp step at
        // this magnitude); the exact n is what matters, not its f64
        // estimate.
        assert!(
            (got - expected_n).abs() <= 4096,
            "got {got} want ~{expected_n}"
        );
        // Exponent-63-and-up arguments take the early guard.
        assert_eq!(c.exp(&BigFloat::pow2(63)).kind(), Kind::Inf);
        assert!(c.exp(&BigFloat::pow2(63).neg()).is_zero());
        assert_eq!(c.exp(&BigFloat::pow2(i64::MAX)).kind(), Kind::Inf);
        // And NaN stays NaN through every path.
        assert!(c.exp(&BigFloat::nan()).is_nan());
        assert!(c.ln(&BigFloat::nan()).is_nan());
    }

    #[test]
    fn ln_at_the_exponent_extremes() {
        let c = ctx();
        // 2^(i64::MIN) is representable; normalizing its mantissa used
        // to negate i64::MIN (debug-build panic). ln must return about
        // i64::MIN * ln2 ~ -6.39e18.
        let tiny = BigFloat::pow2(i64::MIN);
        let l = c.ln(&tiny);
        let want = i64::MIN as f64 * core::f64::consts::LN_2;
        let got = l.to_f64();
        assert!(
            ((got - want) / want).abs() < 1e-15,
            "ln(2^i64::MIN) = {got}, want {want}"
        );
        let huge = BigFloat::pow2(i64::MAX);
        let lh = c.ln(&huge).to_f64();
        assert!(((lh + want) / want).abs() < 1e-15, "ln(2^i64::MAX) = {lh}");
    }

    #[test]
    fn ln_specials() {
        let c = ctx();
        assert_eq!(c.ln(&BigFloat::zero()).kind(), Kind::Inf);
        assert_eq!(c.ln(&BigFloat::zero()).sign(), Sign::Neg);
        assert!(c.ln(&BigFloat::from_f64(-1.0)).is_nan());
        assert_eq!(c.ln(&BigFloat::infinity(Sign::Pos)).kind(), Kind::Inf);
        assert!(c.exp(&BigFloat::infinity(Sign::Neg)).is_zero());
        assert_eq!(c.exp(&BigFloat::zero()).to_f64(), 1.0);
    }

    #[test]
    fn log2_recovers_exponent() {
        let c = ctx();
        let x = BigFloat::pow2(-12345);
        assert_eq!(c.log2(&x).to_f64(), -12345.0);
    }

    #[test]
    fn div_u64_exactness() {
        let x = BigFloat::from_u64(12);
        assert_eq!(x.div_u64(4, 64).to_f64(), 3.0);
        let third = BigFloat::one().div_u64(3, 256);
        let back = &third * &BigFloat::from_u64(3);
        let err = (&back - &BigFloat::one()).abs();
        assert!(err.is_zero() || err.exponent().unwrap() < -250);
    }
}
