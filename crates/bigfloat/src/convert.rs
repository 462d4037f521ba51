//! Conversions between [`BigFloat`] and machine types.

use crate::repr::{BigFloat, Kind, Sign};

impl BigFloat {
    /// Constructs a `BigFloat` exactly from an `f64`.
    ///
    /// The result carries 53 bits of precision (the natural precision of
    /// the source); NaN, infinities and signed zeros map to their
    /// `BigFloat` counterparts (both zeros map to the single zero).
    #[must_use]
    pub fn from_f64(x: f64) -> BigFloat {
        let bits = x.to_bits();
        let sign = if bits >> 63 == 1 {
            Sign::Neg
        } else {
            Sign::Pos
        };
        let biased = ((bits >> 52) & 0x7FF) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        match biased {
            0x7FF => {
                if frac == 0 {
                    BigFloat::special(Kind::Inf, sign, 53)
                } else {
                    BigFloat::special(Kind::Nan, Sign::Pos, 53)
                }
            }
            0 => {
                if frac == 0 {
                    BigFloat::special(Kind::Zero, Sign::Pos, 53)
                } else {
                    // Subnormal: value = frac * 2^-1074.
                    let top = 63 - frac.leading_zeros() as i64;
                    BigFloat::from_raw(sign, top - 1074, &[frac], false, 53)
                }
            }
            _ => {
                let sig = frac | (1u64 << 52);
                // value = 1.frac * 2^(biased-1023); top bit (bit 52) has
                // that exponent.
                BigFloat::from_raw(sign, biased - 1023, &[sig], false, 53)
            }
        }
    }

    /// Constructs a `BigFloat` exactly from an unsigned 128-bit significand.
    ///
    /// The highest set bit of `sig` is given the binary weight
    /// `2^exp_of_top`. This is the exact-import path used by the posit and
    /// log-space converters.
    ///
    /// Returns zero if `sig == 0`.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the two casts split the u128 into its low and high 64-bit halves"
    )]
    pub fn from_scaled_u128(sign: Sign, sig: u128, exp_of_top: i64) -> BigFloat {
        if sig == 0 {
            return BigFloat::zero();
        }
        let limbs = [sig as u64, (sig >> 64) as u64];
        BigFloat::from_raw(sign, exp_of_top, &limbs, false, 128)
    }

    /// Converts to the nearest `f64` (round to nearest, ties to even),
    /// with IEEE 754 overflow to infinity, gradual underflow through the
    /// subnormal range, and underflow to zero below `2^-1075`.
    ///
    /// This is the paper's "cast down to binary64" step; values such as
    /// `2^-2_900_000` correctly collapse to `0.0` here while remaining
    /// exact inside `BigFloat`.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`keep` is in 1..=53 where it is cast; the branches above return otherwise"
    )]
    pub fn to_f64(&self) -> f64 {
        let (sign, kind, exp, limbs, _) = self.parts();
        let sgn = match sign {
            Sign::Pos => 1.0f64,
            Sign::Neg => -1.0f64,
        };
        match kind {
            Kind::Zero => return 0.0,
            Kind::Inf => return sgn * f64::INFINITY,
            Kind::Nan => return f64::NAN,
            Kind::Normal => {}
        }
        if exp > 1024 {
            return sgn * f64::INFINITY;
        }
        if exp < -1076 {
            return sgn * 0.0;
        }
        // Top 64 significand bits (top bit set), sticky over the rest.
        let n = limbs.len();
        let m = limbs[n - 1];
        let mut sticky = limbs[..n - 1].iter().any(|&l| l != 0);

        // Number of significand bits representable at this exponent.
        let keep: i64 = if exp >= -1022 { 53 } else { 53 + (exp + 1022) };
        if keep <= 0 {
            // Magnitude in (0, 2^-1074): exp == -1075 means the value is in
            // [2^-1075, 2^-1074); exactly 2^-1075 ties to even (zero).
            if exp == -1075 {
                let exactly_half = m == 1u64 << 63 && !sticky;
                return if exactly_half {
                    sgn * 0.0
                } else {
                    sgn * f64::from_bits(1)
                };
            }
            return sgn * 0.0;
        }
        let keep = keep as u32; // 1..=53
        let kept = m >> (64 - keep);
        let round_bit = (m >> (63 - keep)) & 1 == 1;
        if 63 - keep > 0 {
            sticky |= m & ((1u64 << (63 - keep)) - 1) != 0;
        }
        let mut kept = kept;
        if round_bit && (sticky || kept & 1 == 1) {
            kept += 1;
        }
        let neg_bit = if sign == Sign::Neg { 1u64 << 63 } else { 0 };
        if exp >= -1022 {
            // Normal path: kept in [2^52, 2^53]; 2^53 promotes the exponent.
            let mut e = exp;
            if kept == 1u64 << 53 {
                kept >>= 1;
                e += 1;
            }
            if e > 1023 {
                return sgn * f64::INFINITY;
            }
            let bits = neg_bit | (((e + 1023) as u64) << 52) | (kept & ((1u64 << 52) - 1));
            f64::from_bits(bits)
        } else {
            // Subnormal path: result = kept * 2^-1074 with kept <= 2^52;
            // kept == 2^52 is the IEEE encoding of the smallest normal.
            f64::from_bits(neg_bit | kept)
        }
    }

    /// Rounds to the nearest `i64` (ties to even).
    ///
    /// Out-of-range values saturate: magnitudes at or above `2^63`
    /// (and `±inf`) return `i64::MIN`/`i64::MAX` by sign. **NaN is
    /// pinned to 0** — the deliberate choice here, matching zero
    /// rather than C's unspecified behavior, so a NaN argument fed to
    /// exponent-reduction code (e.g. `Context::exp`) produces a NaN
    /// result downstream instead of a saturation artifact. Callers
    /// that must distinguish NaN from zero check `is_nan()` first.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`exp` is in 0..=62 where it is cast; the branches above return otherwise"
    )]
    pub fn to_i64_round(&self) -> i64 {
        let (sign, kind, exp, limbs, _) = self.parts();
        match kind {
            Kind::Zero | Kind::Nan => return 0,
            Kind::Inf => {
                return if sign == Sign::Neg {
                    i64::MIN
                } else {
                    i64::MAX
                }
            }
            Kind::Normal => {}
        }
        if exp < -1 {
            return 0;
        }
        if exp == -1 {
            // Magnitude in [0.5, 1): 0.5 exactly ties to 0, else 1.
            let n = limbs.len();
            let is_half = limbs[n - 1] == 1u64 << 63 && limbs[..n - 1].iter().all(|&l| l == 0);
            let v = if is_half { 0 } else { 1 };
            return if sign == Sign::Neg { -v } else { v };
        }
        if exp >= 63 {
            return if sign == Sign::Neg {
                i64::MIN
            } else {
                i64::MAX
            };
        }
        let n = limbs.len();
        let m = limbs[n - 1];
        let mut sticky = limbs[..n - 1].iter().any(|&l| l != 0);
        let keep = exp as u32 + 1; // integer bits
        let kept = m >> (64 - keep);
        let round_bit = (m >> (63 - keep)) & 1 == 1;
        if 63 - keep > 0 {
            sticky |= m & ((1u64 << (63 - keep)) - 1) != 0;
        }
        let mut kept = kept;
        if round_bit && (sticky || kept & 1 == 1) {
            kept += 1;
        }
        match sign {
            Sign::Neg if kept == 1u64 << 63 => i64::MIN,
            Sign::Neg => -(kept.min(i64::MAX as u64) as i64),
            Sign::Pos => kept.min(i64::MAX as u64) as i64,
        }
    }
}

impl From<f64> for BigFloat {
    fn from(x: f64) -> BigFloat {
        BigFloat::from_f64(x)
    }
}

impl From<u64> for BigFloat {
    fn from(x: u64) -> BigFloat {
        BigFloat::from_u64(x)
    }
}

impl From<i64> for BigFloat {
    fn from(x: i64) -> BigFloat {
        BigFloat::from_i64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip_exact() {
        let cases = [
            0.0,
            1.0,
            -1.0,
            0.3,
            1.5e308,
            -2.2e-308,
            f64::MIN_POSITIVE,
            f64::from_bits(1),        // min subnormal
            f64::from_bits(0xF_FFFF), // random subnormal
            f64::EPSILON,
            123456.789,
            -0.000123,
        ];
        for x in cases {
            assert_eq!(BigFloat::from_f64(x).to_f64(), x, "round-trip {x}");
        }
        assert!(BigFloat::from_f64(f64::NAN).to_f64().is_nan());
        assert_eq!(BigFloat::from_f64(f64::INFINITY).to_f64(), f64::INFINITY);
        assert_eq!(
            BigFloat::from_f64(f64::NEG_INFINITY).to_f64(),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn to_f64_underflows_below_subnormal_range() {
        assert_eq!(BigFloat::pow2(-1075).to_f64(), 0.0); // exact tie -> even -> 0
        assert_eq!(BigFloat::pow2(-1076).to_f64(), 0.0);
        assert_eq!(BigFloat::pow2(-2_900_000).to_f64(), 0.0);
        assert_eq!(BigFloat::pow2(-1074).to_f64(), f64::from_bits(1));
        // Just above the tie rounds up to the min subnormal.
        let just_above = &BigFloat::pow2(-1075) + &BigFloat::pow2(-1100);
        assert_eq!(just_above.to_f64(), f64::from_bits(1));
    }

    #[test]
    fn to_f64_overflow_to_infinity() {
        assert_eq!(BigFloat::pow2(1024).to_f64(), f64::INFINITY);
        assert_eq!(BigFloat::pow2(1024).neg().to_f64(), f64::NEG_INFINITY);
        assert_eq!(BigFloat::pow2(1023).to_f64(), 2.0f64.powi(1023));
        // 2^1024 - 2^971 is exactly f64::MAX.
        let x = BigFloat::pow2(1024);
        let v = &x - &BigFloat::pow2(971);
        assert_eq!(v.to_f64(), f64::MAX);
        // The midpoint between MAX and 2^1024 ties to even -> infinity
        // (IEEE overflow behavior).
        let mid = &x - &BigFloat::pow2(970);
        assert_eq!(mid.to_f64(), f64::INFINITY);
    }

    #[test]
    fn to_f64_subnormal_rounding() {
        // 3 * 2^-1075 = 1.5 * 2^-1074 -> rounds to 2 * 2^-1074 (ties even).
        let x = BigFloat::from_u64(3).mul_pow2(-1075);
        assert_eq!(x.to_f64(), f64::from_bits(2));
        // 5 * 2^-1076 = 1.25 * 2^-1074 -> rounds to 2^-1074.
        let x = BigFloat::from_u64(5).mul_pow2(-1076);
        assert_eq!(x.to_f64(), f64::from_bits(1));
    }

    #[test]
    fn from_scaled_u128_places_bits() {
        let x = BigFloat::from_scaled_u128(Sign::Pos, 0b11, 0);
        assert_eq!(x.to_f64(), 1.5);
        let y = BigFloat::from_scaled_u128(Sign::Neg, 1, -100);
        assert_eq!(y.to_f64(), -(2.0f64.powi(-100)));
        assert!(BigFloat::from_scaled_u128(Sign::Pos, 0, 5).is_zero());
    }

    #[test]
    fn to_i64_rounds_to_even() {
        assert_eq!(BigFloat::from_f64(2.5).to_i64_round(), 2);
        assert_eq!(BigFloat::from_f64(3.5).to_i64_round(), 4);
        assert_eq!(BigFloat::from_f64(-2.5).to_i64_round(), -2);
        assert_eq!(BigFloat::from_f64(0.5).to_i64_round(), 0);
        assert_eq!(BigFloat::from_f64(0.75).to_i64_round(), 1);
        assert_eq!(BigFloat::from_f64(-1234.49).to_i64_round(), -1234);
        assert_eq!(BigFloat::from_f64(1e30).to_i64_round(), i64::MAX);
        assert_eq!(BigFloat::zero().to_i64_round(), 0);
    }

    #[test]
    fn to_i64_round_pins_specials() {
        // NaN is pinned to 0 (documented semantics — callers that need
        // to tell NaN from zero check is_nan() first).
        assert_eq!(BigFloat::nan().to_i64_round(), 0);
        // Infinities saturate by sign, same as huge finite magnitudes.
        assert_eq!(BigFloat::infinity(Sign::Pos).to_i64_round(), i64::MAX);
        assert_eq!(BigFloat::infinity(Sign::Neg).to_i64_round(), i64::MIN);
        // Saturation threshold: 2^63 is out of range, 2^63 - 1 ulp in.
        assert_eq!(BigFloat::pow2(63).to_i64_round(), i64::MAX);
        assert_eq!(BigFloat::pow2(63).neg().to_i64_round(), i64::MIN);
        let below = &BigFloat::pow2(63) - &BigFloat::one();
        assert_eq!(below.to_i64_round(), i64::MAX); // 2^63 - 1
        assert_eq!(below.neg().to_i64_round(), -(i64::MAX));
    }

    #[test]
    fn to_f64_at_the_min_subnormal_boundary() {
        // 2^-1074 (the smallest subnormal) ± 1 ulp of the BigFloat
        // operand: below the halfway-to-zero point rounds down to 0,
        // at 2^-1074 exactly converts exactly, just above stays at
        // 2^-1074 until the next representable (2 * 2^-1074) midpoint.
        let min_sub = BigFloat::pow2(-1074);
        assert_eq!(min_sub.to_f64(), f64::from_bits(1));
        let just_below = &min_sub - &BigFloat::pow2(-1130);
        assert_eq!(just_below.to_f64(), f64::from_bits(1));
        let just_above = &min_sub + &BigFloat::pow2(-1130);
        assert_eq!(just_above.to_f64(), f64::from_bits(1));
        // The tie at 1.5 * 2^-1074 goes to even (= 2 * 2^-1074).
        let tie = &min_sub + &BigFloat::pow2(-1075);
        assert_eq!(tie.to_f64(), f64::from_bits(2));
        // And negative mirrors, sign preserved through the boundary.
        assert_eq!(min_sub.neg().to_f64(), -f64::from_bits(1));
        assert_eq!(just_below.neg().to_f64(), -f64::from_bits(1));
    }
}
