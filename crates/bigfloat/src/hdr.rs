//! [`HdrFloat`]: binary64 precision at [`BigFloat`] range.

use crate::repr::{BigFloat, Kind, Sign};

/// Largest context precision `HdrFloat` serves exactly: its mantissa is
/// a binary64 significand.
pub const HDR_FAST_PREC: u32 = 53;

/// `2^k` as an `f64`, exact. `k` must be in the normal range.
#[inline]
fn exp2i(k: i64) -> f64 {
    debug_assert!((-1022..=1023).contains(&k), "exp2i({k}) out of range");
    f64::from_bits(((1023 + k) as u64) << 52)
}

/// An "HDR float": a normalized binary64 mantissa (magnitude in
/// `[1, 2)`, sign carried by the mantissa) with a separate `i64` binary
/// exponent. A rung of the paper's precision ladder at 53 bits needs a
/// hardware double's precision but BigFloat's range (VICAR likelihoods
/// reach `2^-2_900_000`); here such a value costs one or two hardware
/// `f64` instructions per operation.
///
/// Specials are canonical: zero is `(+0.0, 0)`, NaN is `(NaN, 0)`, the
/// infinities are `(±inf, 0)` — matching `BigFloat`'s single unsigned
/// zero and unsigned NaN once converted.
///
/// `+`, `-`, `*` and `/` are **bit-identical** to `Context::new(53)`
/// across the entire `i64` exponent range. IEEE 754 binary64 arithmetic
/// *is* correctly-rounded 53-bit arithmetic while operands and results
/// stay normal, which normalized mantissas guarantee; exponents are
/// computed in `i128` and saturate to the signed infinity or the single
/// unsigned zero exactly as the bigfloat rounding core does. That is
/// what lets `compstat_hmm::forward_trace_rt` run every context of at
/// most [`HDR_FAST_PREC`] bits on `HdrFloat` (a smaller request still
/// computes at 53 bits) and record the exponents the `Context` would.
#[derive(Clone, Copy, Debug)]
pub struct HdrFloat {
    /// Mantissa: magnitude in `[1, 2)` for finite nonzero values;
    /// `±0.0`, `±inf`, or NaN for the specials (exponent 0).
    m: f64,
    /// Base-2 exponent: the value is `m * 2^e`.
    e: i64,
}

impl PartialEq for HdrFloat {
    /// IEEE-style equality: NaN compares unequal to everything
    /// (mirroring `f64`), specials and normals compare by value.
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m && (self.e == other.e || self.m == 0.0 || self.m.is_infinite())
    }
}

impl HdrFloat {
    /// The canonical zero (unsigned, like `BigFloat`'s).
    pub const ZERO: HdrFloat = HdrFloat { m: 0.0, e: 0 };
    /// One.
    pub const ONE: HdrFloat = HdrFloat { m: 1.0, e: 0 };
    /// Not-a-number.
    pub const NAN: HdrFloat = HdrFloat { m: f64::NAN, e: 0 };

    /// Signed infinity.
    #[must_use]
    pub fn infinity(sign: Sign) -> HdrFloat {
        HdrFloat {
            m: sign.to_f64() * f64::INFINITY,
            e: 0,
        }
    }

    /// The mantissa (`[1, 2)` magnitude for finite nonzero values).
    #[must_use]
    pub fn mantissa(&self) -> f64 {
        self.m
    }

    /// True if the value is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.m == 0.0
    }

    /// True if the value is NaN.
    #[must_use]
    pub fn is_nan(&self) -> bool {
        self.m.is_nan()
    }

    /// True if the value is `±inf`.
    #[must_use]
    pub fn is_inf(&self) -> bool {
        self.m.is_infinite()
    }

    /// True if finite and nonzero (the normal case).
    #[must_use]
    pub fn is_normal(&self) -> bool {
        self.m.is_finite() && self.m != 0.0
    }

    /// Base-2 exponent of the value (`None` for zero/inf/NaN), the
    /// same quantity [`BigFloat::exponent`] reports.
    #[must_use]
    pub fn exponent(&self) -> Option<i64> {
        self.is_normal().then_some(self.e)
    }

    /// The sign; zero and NaN report positive, like `BigFloat`.
    #[must_use]
    pub fn sign(&self) -> Sign {
        if self.is_normal() || self.is_inf() {
            if self.m < 0.0 {
                Sign::Neg
            } else {
                Sign::Pos
            }
        } else {
            Sign::Pos
        }
    }

    /// Normalizes a finite nonzero **normal-range** `f64` times `2^e`
    /// into canonical form, saturating the exponent exactly as
    /// `BigFloat::from_raw_wide` does: overflow becomes the signed
    /// infinity, underflow the single unsigned zero.
    fn norm(m: f64, e: i128) -> HdrFloat {
        debug_assert!(m.is_finite() && m != 0.0);
        let bits = m.to_bits();
        let biased = (bits >> 52) & 0x7FF;
        debug_assert!(biased != 0, "norm() requires a normal f64");
        let k = biased as i128 - 1023;
        let mantissa = f64::from_bits((bits & !(0x7FFu64 << 52)) | (1023u64 << 52));
        let e2 = e + k;
        if e2 > i64::MAX as i128 {
            return HdrFloat::infinity(if m < 0.0 { Sign::Neg } else { Sign::Pos });
        }
        if e2 < i64::MIN as i128 {
            return HdrFloat::ZERO;
        }
        HdrFloat {
            m: mantissa,
            e: e2 as i64,
        }
    }

    /// Exact conversion from an `f64` (specials map to the canonical
    /// specials; subnormals are rescaled exactly).
    #[must_use]
    pub fn from_f64(x: f64) -> HdrFloat {
        if x == 0.0 {
            return HdrFloat::ZERO;
        }
        if x.is_nan() {
            return HdrFloat::NAN;
        }
        if x.is_infinite() {
            return HdrFloat { m: x, e: 0 };
        }
        if x.abs() < f64::MIN_POSITIVE {
            // Subnormal: scale into the normal range first (exact).
            return HdrFloat::norm(x * exp2i(64), -64);
        }
        HdrFloat::norm(x, 0)
    }

    /// Conversion from a [`BigFloat`], rounding to 53 bits (round to
    /// nearest, ties to even) — the value a 53-bit context would hold.
    /// Exact when `x` already carries at most 53 bits.
    #[must_use]
    pub fn from_bigfloat(x: &BigFloat) -> HdrFloat {
        match x.kind() {
            Kind::Zero => return HdrFloat::ZERO,
            Kind::Nan => return HdrFloat::NAN,
            Kind::Inf => return HdrFloat::infinity(x.sign()),
            Kind::Normal => {}
        }
        let r = x.round_to(53);
        let Some(e) = r.exponent() else {
            // 53-bit rounding of a normal stays normal.
            unreachable!("round_to(53) of a normal is normal");
        };
        // Scale the mantissa to the unit binade. `-e` overflows i64
        // negation when `e == i64::MIN`, so split that shift in two
        // exact steps, so the conversion round-trips at the very bottom
        // of the exponent range too.
        let unit = if e == i64::MIN {
            r.mul_pow2(i64::MAX).mul_pow2(1)
        } else {
            r.mul_pow2(-e)
        };
        debug_assert_eq!(unit.exponent(), Some(0));
        HdrFloat {
            m: unit.to_f64(),
            e,
        }
    }

    /// Exact conversion to a [`BigFloat`] (53 significant bits;
    /// specials carry a 53-bit precision tag so round-trips through a
    /// 53-bit [`Context`](crate::Context) are bit-identical).
    #[must_use]
    pub fn to_bigfloat(&self) -> BigFloat {
        if self.is_normal() {
            // `m` has exponent 0, so `mul_pow2(e)` cannot saturate.
            BigFloat::from_f64(self.m).mul_pow2(self.e)
        } else {
            BigFloat::from_f64(self.m).round_to(53)
        }
    }

    /// Conversion to the nearest `f64`, with IEEE overflow/underflow —
    /// the "cast down to binary64" step of the paper, where
    /// `2^-2_900_000` correctly collapses to `0.0`.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        if !self.is_normal() {
            return self.m;
        }
        if (-1020..=1020).contains(&self.e) {
            // Comfortably normal: the exact product.
            return self.m * exp2i(self.e);
        }
        // Near or past the f64 boundary: go through BigFloat's
        // carefully-rounded conversion (subnormal rounding is not
        // 53-bit rounding, so a naive scale would double-round).
        self.to_bigfloat().to_f64()
    }
}

/// Negation (exact; zero and NaN are unchanged, like
/// [`BigFloat::neg`]).
impl core::ops::Neg for HdrFloat {
    type Output = HdrFloat;

    fn neg(self) -> HdrFloat {
        if self.is_zero() || self.is_nan() {
            self
        } else {
            HdrFloat {
                m: -self.m,
                e: self.e,
            }
        }
    }
}

/// Addition, correctly rounded to 53 bits of the result.
impl core::ops::Add for HdrFloat {
    type Output = HdrFloat;

    fn add(self, other: HdrFloat) -> HdrFloat {
        // Specials first (their exponents are canonical 0 and must not
        // enter the alignment logic). f64 addition of the special
        // mantissas reproduces BigFloat's table: NaN propagates,
        // inf + (-inf) is NaN, inf + finite is inf.
        if self.m.is_nan() || other.m.is_nan() {
            return HdrFloat::NAN;
        }
        match (self.m.is_infinite(), other.m.is_infinite()) {
            (true, true) => {
                let s = self.m + other.m;
                return if s.is_nan() {
                    HdrFloat::NAN
                } else {
                    HdrFloat { m: s, e: 0 }
                };
            }
            (true, false) => return self,
            (false, true) => return other,
            (false, false) => {}
        }
        if self.is_zero() {
            return other;
        }
        if other.is_zero() {
            return self;
        }
        let (hi, lo) = if self.e >= other.e {
            (self, other)
        } else {
            (other, self)
        };
        let d = hi.e as i128 - lo.e as i128;
        if d >= 55 {
            // |lo| < 2^(hi.e - 54): strictly below half an ulp of hi
            // (below a quarter when hi is a power of two and lo has
            // the opposite sign), so the correctly-rounded sum is
            // exactly hi. This is the step that makes exponent gaps of
            // millions of binades free.
            return hi;
        }
        // d <= 54: scaling lo's mantissa by 2^-d is exact (the result
        // is >= 2^-54, far above the subnormal range), so the hardware
        // add is a single correct 53-bit rounding of the exact sum.
        let s = hi.m + lo.m * exp2i(-(d as i64));
        if s == 0.0 {
            // Exact cancellation: the single unsigned zero.
            return HdrFloat::ZERO;
        }
        HdrFloat::norm(s, hi.e as i128)
    }
}

/// Subtraction, correctly rounded to 53 bits of the result.
impl core::ops::Sub for HdrFloat {
    type Output = HdrFloat;

    fn sub(self, other: HdrFloat) -> HdrFloat {
        self + (-other)
    }
}

/// Multiplication, correctly rounded to 53 bits of the result.
impl core::ops::Mul for HdrFloat {
    type Output = HdrFloat;

    fn mul(self, other: HdrFloat) -> HdrFloat {
        let p = self.m * other.m;
        if !p.is_finite() || p == 0.0 {
            // Only special inputs reach here (mantissas are in [1, 4)
            // otherwise): NaN propagates, inf * 0 is NaN, inf * x is
            // the signed infinity, 0 * x the unsigned zero — the
            // BigFloat table exactly.
            if p.is_nan() {
                return HdrFloat::NAN;
            }
            if p == 0.0 {
                return HdrFloat::ZERO;
            }
            return HdrFloat { m: p, e: 0 };
        }
        HdrFloat::norm(p, self.e as i128 + other.e as i128)
    }
}

/// Division, correctly rounded to 53 bits of the result.
impl core::ops::Div for HdrFloat {
    type Output = HdrFloat;

    fn div(self, other: HdrFloat) -> HdrFloat {
        let q = self.m / other.m;
        if !q.is_finite() || q == 0.0 {
            // Special inputs only (mantissa quotients are in (1/2, 2)
            // otherwise): NaN propagates, inf/inf and 0/0 are NaN,
            // x/0 and inf/x the signed infinity, 0/x and x/inf the
            // unsigned zero — matching BigFloat's division table.
            if q.is_nan() {
                return HdrFloat::NAN;
            }
            if q == 0.0 {
                return HdrFloat::ZERO;
            }
            return HdrFloat { m: q, e: 0 };
        }
        HdrFloat::norm(q, self.e as i128 - other.e as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::bit_identical;
    use crate::Context;

    fn ctx53() -> Context {
        Context::new(53)
    }

    fn hdr_of(m: f64, e: i64) -> HdrFloat {
        let h = HdrFloat::from_f64(m);
        assert!(h.is_normal());
        HdrFloat::from_bigfloat(&h.to_bigfloat().mul_pow2(e - h.exponent().unwrap()))
    }

    #[test]
    fn specials_are_canonical() {
        assert!(HdrFloat::from_f64(0.0).is_zero());
        assert!(HdrFloat::from_f64(-0.0).is_zero());
        assert_eq!(HdrFloat::from_f64(-0.0).sign(), Sign::Pos);
        assert!(HdrFloat::from_f64(f64::NAN).is_nan());
        assert!(HdrFloat::from_f64(f64::INFINITY).is_inf());
        assert_eq!(HdrFloat::from_f64(f64::NEG_INFINITY).sign(), Sign::Neg);
    }

    #[test]
    fn from_f64_round_trips_exactly() {
        for x in [
            1.0,
            -1.0,
            0.3,
            1.5e308,
            -2.2e-308,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // min subnormal
            f64::EPSILON,
            123456.789,
        ] {
            let h = HdrFloat::from_f64(x);
            assert_eq!(h.to_f64(), x, "round-trip {x}");
            assert!(bit_identical(&h.to_bigfloat(), &BigFloat::from_f64(x)));
        }
    }

    #[test]
    fn huge_exponents_are_ordinary_values() {
        let tiny = hdr_of(1.5, -2_900_000);
        assert_eq!(tiny.exponent(), Some(-2_900_000));
        assert_eq!(tiny.to_f64(), 0.0); // the paper's binary64 demotion
        let back = HdrFloat::from_bigfloat(&tiny.to_bigfloat());
        assert_eq!(back, tiny);
    }

    #[test]
    fn add_matches_53bit_context_on_alignment_edges() {
        let c = ctx53();
        // Alignment distances around the drop-the-small-operand
        // threshold, including the power-of-two / opposite-sign case
        // that needs d >= 55 rather than 54.
        for d in [0, 1, 52, 53, 54, 55, 56, 120] {
            for (ma, mb) in [(1.0, 1.0), (1.5, 1.25), (1.0, 1.9999999999999998)] {
                for (sa, sb) in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)] {
                    let a = hdr_of(sa * ma, 0);
                    let b = hdr_of(sb * mb, -d);
                    let want = c.add(&a.to_bigfloat(), &b.to_bigfloat());
                    let got = (a + b).to_bigfloat();
                    assert!(
                        bit_identical(&got.round_to(53), &want.round_to(53)),
                        "d={d} ma={ma} mb={mb} sa={sa} sb={sb}"
                    );
                }
            }
        }
    }

    #[test]
    fn exponent_saturation_mirrors_bigfloat() {
        let c = ctx53();
        let top = hdr_of(1.9, i64::MAX);
        // Doubling the largest-exponent value overflows to +inf in
        // both arithmetics.
        let want = c.add(&top.to_bigfloat(), &top.to_bigfloat());
        let got = top + top;
        assert_eq!(want.kind(), Kind::Inf);
        assert!(got.is_inf());
        assert_eq!(got.sign(), want.sign());
        // Squaring the smallest-exponent value underflows to the
        // single unsigned zero in both.
        let bottom = hdr_of(1.0, i64::MIN / 2 - 1);
        let wantz = c.mul(&bottom.to_bigfloat(), &bottom.to_bigfloat());
        let gotz = bottom * bottom;
        assert!(wantz.is_zero() && gotz.is_zero());
        assert_eq!(gotz.sign(), Sign::Pos);
        // Division in the other direction overflows.
        let wanti = c.div(&top.to_bigfloat(), &bottom.to_bigfloat());
        let goti = top / bottom;
        assert_eq!(wanti.kind(), Kind::Inf);
        assert!(goti.is_inf());
    }

    #[test]
    fn special_tables_match_bigfloat() {
        let c = ctx53();
        let vals = [
            HdrFloat::ZERO,
            HdrFloat::ONE,
            -HdrFloat::ONE,
            HdrFloat::infinity(Sign::Pos),
            HdrFloat::infinity(Sign::Neg),
            HdrFloat::NAN,
            hdr_of(1.25, -100_000),
        ];
        for a in vals {
            for b in vals {
                let (ab, bb) = (a.to_bigfloat(), b.to_bigfloat());
                for (name, got, want) in [
                    ("add", a + b, c.add(&ab, &bb)),
                    ("sub", a - b, c.sub(&ab, &bb)),
                    ("mul", a * b, c.mul(&ab, &bb)),
                    ("div", a / b, c.div(&ab, &bb)),
                ] {
                    let got = got.to_bigfloat();
                    assert!(
                        bit_identical(&got.round_to(53), &want.round_to(53)),
                        "{name}({a:?}, {b:?}) = {got:?}, want {want:?}"
                    );
                }
            }
        }
    }
}
