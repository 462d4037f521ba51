//! [`PositValue`]: a posit held decoded, and the crate's arithmetic.
//!
//! Each operation is const-generic over `posit(N, ES)` and `#[inline]`,
//! so it compiles into its caller with the format's shifts and masks as
//! immediates. One branch screens zero and NaR for both operands. The
//! finite path computes the exact result's leading 64 bits plus a sticky
//! bit and rounds them onto the posit grid ([`round`]), without packing:
//! the result stays decoded. Only the alignment shift and cancellation
//! of `+`, the product of `*` and the quotient of `/` take `u128`s. NaR
//! propagates through every operation.
//!
//! `Posit<N, ES>`'s own operators decode both operands, run these and
//! encode the result exactly, so posit rounding exists once.

use crate::decode::{unpack, Format};
use crate::encode::{encode, round, HIDDEN};
use crate::Posit;
use core::ops::{Add, Div, Mul, Neg, Sub};

/// The value of a `posit(N, ES)`, held decoded: a sign, the binary scale
/// `k·2^ES + e` and a Q1.63 significand, or zero, or NaR.
///
/// Every `PositValue` is exactly the value of some `Posit<N, ES>`, and
/// its arithmetic rounds exactly as the posit's does (to the nearest
/// even pattern, saturating at minpos and maxpos). So a chain of
/// operations gives the bits of the same chain on `Posit`s, while each
/// operand is decoded once and only the final result is encoded.
///
/// ```
/// use compstat_posit::{PositValue, P64E12};
///
/// let (a, b) = (P64E12::from_f64(0.3), P64E12::from_f64(1e-300));
/// let (va, vb) = (PositValue::from_posit(a), PositValue::from_posit(b));
/// assert_eq!((va * vb + va).to_posit(), a * b + a);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PositValue<const N: u32, const ES: u32> {
    /// The binary scale of a finite value; zero for zero and NaR.
    scale: i64,
    /// Q1.63 significand with the hidden bit set, or zero for zero and
    /// NaR: a set top bit is what makes a value finite.
    frac: u64,
    /// The sign of a finite value; set for NaR, clear for zero.
    negative: bool,
}

impl<const N: u32, const ES: u32> PositValue<N, ES> {
    /// Zero.
    pub const ZERO: Self = Self {
        scale: 0,
        frac: 0,
        negative: false,
    };

    /// Not-a-Real.
    pub const NAR: Self = Self {
        scale: 0,
        frac: 0,
        negative: true,
    };

    /// One.
    pub const ONE: Self = Self {
        scale: 0,
        frac: HIDDEN,
        negative: false,
    };

    /// The posit nearest to `(-1)^negative · frac/2^63 · 2^scale`, plus
    /// whatever `sticky` says lies below `frac`'s LSB.
    #[inline]
    pub(crate) fn rounded(negative: bool, scale: i64, frac: u64, sticky: bool) -> Self {
        let (scale, frac) = round::<N, ES>(scale, frac, sticky);
        Self {
            scale,
            frac,
            negative,
        }
    }

    /// Decodes `p` (exact).
    #[must_use]
    #[inline]
    pub fn from_posit(p: Posit<N, ES>) -> Self {
        let bits = p.to_bits();
        // Zero and NaR, the two patterns without body bits, unpack as one
        // would and then take their own fields, so no branch screens them.
        let special = bits & Format::<N, ES>::BODY == 0;
        let u = unpack::<N, ES>(if special { 1 << (N - 2) } else { bits });
        Self {
            scale: if special { 0 } else { u.scale },
            frac: if special { 0 } else { u.frac },
            negative: if special { bits != 0 } else { u.negative },
        }
    }

    /// Encodes the posit this value is (exact).
    #[must_use]
    #[inline]
    pub fn to_posit(self) -> Posit<N, ES> {
        let bits = if self.is_finite() {
            encode::<N, ES>(self.negative, self.scale, self.frac)
        } else if self.negative {
            Format::<N, ES>::NAR
        } else {
            0
        };
        Posit::from_kernel(bits)
    }

    /// Rounds an `f64` to the nearest posit (NaN and infinities become
    /// NaR), as [`Posit::from_f64`] does, without the pattern.
    #[must_use]
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        if x == 0.0 {
            return Self::ZERO;
        }
        if !x.is_finite() {
            return Self::NAR;
        }
        let bits = x.to_bits();
        let negative = bits >> 63 == 1;
        let biased = ((bits >> 52) & 0x7FF) as i64;
        let mantissa = bits & ((1u64 << 52) - 1);
        let (scale, frac) = if biased == 0 {
            // Subnormal: value = mantissa * 2^-1074; normalizing the top
            // bit to position 63 gives scale = -1011 - leading_zeros.
            let shift = mantissa.leading_zeros(); // < 64 since mantissa != 0
            (-1011 - i64::from(shift), mantissa << shift)
        } else {
            (biased - 1023, (mantissa << 11) | HIDDEN)
        };
        Self::rounded(negative, scale, frac, false)
    }

    /// True for zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// True for NaR.
    #[must_use]
    pub fn is_nar(self) -> bool {
        self == Self::NAR
    }

    /// True for every value but zero and NaR.
    #[inline]
    fn is_finite(self) -> bool {
        self.frac >> 63 == 1
    }

    /// True when `self` or `other` is zero or NaR: one branch screens
    /// both, since only those two lack the hidden bit.
    #[inline]
    fn either_special(self, other: Self) -> bool {
        (self.frac & other.frac) >> 63 == 0
    }

    /// `self + other` for two finite values.
    #[inline]
    fn add_finite(self, other: Self) -> Self {
        // Order by magnitude, |big| >= |small|, with selects rather than
        // a branch: which operand is larger is a coin toss in a sum.
        let swap =
            self.scale < other.scale || (self.scale == other.scale && self.frac < other.frac);
        let (big, small) = (
            if swap { other } else { self },
            if swap { self } else { other },
        );
        let d = (big.scale - small.scale) as u64;
        // small's significand scaled by 2^-d, split at big's LSB: `hi`
        // lines up with big.frac and `lo` holds the next 64 bits. Bits
        // shifted past those are dropped; `lo` is then nonzero, which is
        // all the sticky bit and a renormalization need from them.
        let wide = (u128::from(small.frac) << 64) >> d.min(127);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the two u64 halves of a u128"
        )]
        let (hi, lo) = ((wide >> 64) as u64, wide as u64);
        if big.negative == small.negative {
            // A carry is the new hidden bit: scale + 1, and the sum's
            // last bit joins the sticky bit. Selected, not branched on.
            let (sum, carry) = big.frac.overflowing_add(hi);
            let c = u64::from(carry);
            Self::rounded(
                big.negative,
                big.scale + i64::from(carry),
                (sum >> c) | (c << 63),
                sum & c != 0 || lo != 0,
            )
        } else {
            // big - small = (big.frac - hi - borrow) + (2^64 - lo) / 2^64,
            // with a borrow when lo is nonzero; |big| >= |small| keeps it
            // >= 0.
            let int = big.frac - hi - u64::from(lo != 0);
            let rest = lo.wrapping_neg();
            if int >> 63 == 1 {
                return Self::rounded(big.negative, big.scale, int, rest != 0);
            }
            // Cancellation: renormalize the hidden bit to bit 63.
            let w = (u128::from(int) << 64) | u128::from(rest);
            if w == 0 {
                return Self::ZERO; // exact cancellation
            }
            let shift = w.leading_zeros();
            let v = w << shift;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the two u64 halves of a u128"
            )]
            let (frac, below) = ((v >> 64) as u64, v as u64);
            Self::rounded(big.negative, big.scale - i64::from(shift), frac, below != 0)
        }
    }
}

impl<const N: u32, const ES: u32> Neg for PositValue<N, ES> {
    type Output = Self;

    /// Exact negation; zero and NaR are their own negations.
    #[inline]
    fn neg(self) -> Self {
        Self {
            negative: self.negative != self.is_finite(),
            ..self
        }
    }
}

impl<const N: u32, const ES: u32> Add for PositValue<N, ES> {
    type Output = Self;

    #[inline]
    fn add(self, other: Self) -> Self {
        if self.either_special(other) {
            return if self.is_nar() || other.is_nar() {
                Self::NAR
            } else if self.is_zero() {
                other
            } else {
                self
            };
        }
        self.add_finite(other)
    }
}

impl<const N: u32, const ES: u32> Sub for PositValue<N, ES> {
    type Output = Self;

    #[inline]
    fn sub(self, other: Self) -> Self {
        self + -other
    }
}

/// Splits a significand product, with its top bit at 126 or 127, into a
/// scale step, the Q1.63 significand and a sticky bit for the rest. A
/// shift by the missing top bit normalizes it without a branch: whether
/// the product carries is a coin toss.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "each cast keeps 64 bits on purpose: the high half of a u128, and `p as u64` the low half tested for sticky bits"
)]
fn normalize_product(p: u128) -> (i64, u64, bool) {
    debug_assert!(p >> 126 != 0);
    let carry = (p >> 127) as u32;
    let p = p << (1 - carry);
    (i64::from(carry), (p >> 64) as u64, p as u64 != 0)
}

impl<const N: u32, const ES: u32> Mul for PositValue<N, ES> {
    type Output = Self;

    #[inline]
    fn mul(self, other: Self) -> Self {
        if self.either_special(other) {
            return if self.is_nar() || other.is_nar() {
                Self::NAR
            } else {
                Self::ZERO
            };
        }
        // Q1.63 * Q1.63 = Q2.126: product in [2^126, 2^128).
        let p = u128::from(self.frac) * u128::from(other.frac);
        let (scale_adj, frac, sticky) = normalize_product(p);
        Self::rounded(
            self.negative != other.negative,
            self.scale + other.scale + scale_adj,
            frac,
            sticky,
        )
    }
}

impl<const N: u32, const ES: u32> Div for PositValue<N, ES> {
    type Output = Self;

    #[inline]
    fn div(self, other: Self) -> Self {
        if self.either_special(other) {
            // x/0 is NaR (no infinities in posit); 0/x is 0.
            return if self.is_nar() || !other.is_finite() {
                Self::NAR
            } else {
                Self::ZERO
            };
        }
        // Compute fa/fb in (1/2, 2) with 64 quotient bits + remainder.
        let (num_shift, scale_adj) = if self.frac >= other.frac {
            (63u32, 0i64)
        } else {
            (64, -1)
        };
        let num = u128::from(self.frac) << num_shift;
        let q = num / u128::from(other.frac);
        let rem = num % u128::from(other.frac);
        debug_assert!(q >> 63 == 1, "quotient normalized to Q1.63");
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the significands' ratio is below 2, so q < 2^64"
        )]
        let q = q as u64;
        Self::rounded(
            self.negative != other.negative,
            self.scale - other.scale + scale_adj,
            q,
            rem != 0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, Decoded};

    /// A binary operation on two patterns, through the values.
    fn bin<const N: u32, const ES: u32>(
        a: u64,
        b: u64,
        op: impl Fn(PositValue<N, ES>, PositValue<N, ES>) -> PositValue<N, ES>,
    ) -> u64 {
        let value = |bits| PositValue::from_posit(Posit::<N, ES>::from_bits(bits));
        op(value(a), value(b)).to_posit().to_bits()
    }

    fn add<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
        bin::<N, ES>(a, b, |x, y| x + y)
    }

    fn sub<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
        bin::<N, ES>(a, b, |x, y| x - y)
    }

    fn mul<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
        bin::<N, ES>(a, b, |x, y| x * y)
    }

    fn div<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
        bin::<N, ES>(a, b, |x, y| x / y)
    }

    fn neg<const N: u32, const ES: u32>(a: u64) -> u64 {
        (-PositValue::from_posit(Posit::<N, ES>::from_bits(a)))
            .to_posit()
            .to_bits()
    }

    // posit(8,2) value table helpers: decode to f64 by formula.
    fn p8_to_f64(bits: u64) -> f64 {
        match decode::<8, 2>(bits) {
            Decoded::Zero => 0.0,
            Decoded::NaR => f64::NAN,
            Decoded::Finite(u) => {
                let m = u.frac as f64 / (1u64 << 63) as f64;
                let v = m * 2f64.powi(u.scale as i32);
                if u.negative {
                    -v
                } else {
                    v
                }
            }
        }
    }

    /// Bracket endpoints around a result pattern. Walking +1 from maxpos
    /// or -1 from -maxpos lands on NaR, which acts as the open end of the
    /// range on that side.
    fn bracket(got: u64) -> (f64, f64) {
        let lo_bits = got.wrapping_sub(1) & 0xFF;
        let hi_bits = (got + 1) & 0xFF;
        let lo = if lo_bits == 0x80 {
            f64::NEG_INFINITY
        } else {
            p8_to_f64(lo_bits)
        };
        let hi = if hi_bits == 0x80 {
            f64::INFINITY
        } else {
            p8_to_f64(hi_bits)
        };
        (lo, hi)
    }

    fn p8_from_f64_exact(x: f64) -> u64 {
        // Only for values exactly representable in posit(8,2).
        for bits in 0u64..256 {
            if bits == 0x80 {
                continue;
            }
            if p8_to_f64(bits) == x {
                return bits;
            }
        }
        panic!("{x} not representable");
    }

    #[test]
    fn exhaustive_add_posit8_matches_real_rounding() {
        // For every pair of posit(8,2) values, a+b computed here must be
        // one of the two patterns bracketing the real sum, and must equal
        // the nearer one when the sum is strictly inside the bracket and
        // within range (pattern-RNE agrees with value order).
        let vals: Vec<(u64, f64)> = (0..256)
            .filter(|&b| b != 0x80)
            .map(|b| (b as u64, p8_to_f64(b as u64)))
            .collect();
        for &(ab, av) in &vals {
            for &(bb, bv) in &vals {
                let got = add::<8, 2>(ab, bb);
                assert_ne!(got, 0x80, "add must not produce NaR");
                let gv = p8_to_f64(got);
                let exact = av + bv;
                // The result must be the closest or tied-closest posit.
                let mut best = f64::INFINITY;
                for &(_, v) in &vals {
                    best = best.min((v - exact).abs());
                }
                let err = (gv - exact).abs();
                // Pattern rounding can differ from value-nearest only at
                // exact pattern midpoints; allow equality with the second
                // nearest in that case by checking err <= 2*best is too
                // loose — instead require err == best OR the exact value
                // sits between got and its pattern neighbor.
                if err > best {
                    let (lo, hi) = bracket(got);
                    let between = (lo.min(hi) <= exact) && (exact <= lo.max(hi));
                    assert!(
                        between,
                        "add({av}, {bv}) = {gv}, exact {exact}, best err {best}, got err {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn add_simple_values() {
        let one = p8_from_f64_exact(1.0);
        let two = p8_from_f64_exact(2.0);
        let three = p8_from_f64_exact(3.0);
        assert_eq!(add::<8, 2>(one, one), two);
        assert_eq!(add::<8, 2>(one, two), three);
        assert_eq!(sub::<8, 2>(three, two), one);
        assert_eq!(sub::<8, 2>(one, one), 0);
    }

    #[test]
    fn mul_simple_values() {
        let half = p8_from_f64_exact(0.5);
        let two = p8_from_f64_exact(2.0);
        let four = p8_from_f64_exact(4.0);
        let one = p8_from_f64_exact(1.0);
        assert_eq!(mul::<8, 2>(two, two), four);
        assert_eq!(mul::<8, 2>(two, half), one);
        assert_eq!(mul::<8, 2>(0, two), 0);
    }

    #[test]
    fn exhaustive_mul_posit8_is_faithful() {
        let vals: Vec<(u64, f64)> = (0..256)
            .filter(|&b| b != 0x80)
            .map(|b| (b as u64, p8_to_f64(b as u64)))
            .collect();
        for &(ab, av) in &vals {
            for &(bb, bv) in &vals {
                let got = mul::<8, 2>(ab, bb);
                assert_ne!(got, 0x80);
                let gv = p8_to_f64(got);
                let exact = av * bv;
                if exact == 0.0 {
                    assert_eq!(gv, 0.0, "mul({av},{bv})");
                    continue;
                }
                // Saturation cases: clamp to maxpos/minpos.
                let maxpos = p8_to_f64(0x7F);
                let minpos = p8_to_f64(0x01);
                if exact.abs() >= maxpos {
                    assert_eq!(gv.abs(), maxpos, "mul({av},{bv}) saturates");
                    continue;
                }
                if exact.abs() <= minpos {
                    assert_eq!(gv.abs(), minpos, "mul({av},{bv}) clamps at minpos");
                    continue;
                }
                let (lo, hi) = bracket(got);
                assert!(
                    (lo.min(hi) < exact && exact < lo.max(hi)) || gv == exact,
                    "mul({av}, {bv}) = {gv} not faithful (exact {exact})"
                );
            }
        }
    }

    #[test]
    fn div_inverts_mul() {
        let vals = [1.0f64, 2.0, 0.5, 4.0, 16.0, 3.0];
        for &a in &vals {
            for &b in &vals {
                let pa = p8_from_f64_exact(a);
                let pb = p8_from_f64_exact(b);
                let q = div::<8, 2>(mul::<8, 2>(pa, pb), pb);
                // a*b then /b returns a when all intermediates are exact.
                if (a * b).abs() <= p8_to_f64(0x7F) && p8_to_f64(p8_from_f64_exact(a * b)) == a * b
                {
                    assert_eq!(q, pa, "{a} * {b} / {b}");
                }
            }
        }
    }

    #[test]
    fn div_by_zero_is_nar() {
        assert_eq!(div::<8, 2>(p8_from_f64_exact(1.0), 0), 0x80);
        assert_eq!(div::<8, 2>(0, 0), 0x80);
        assert_eq!(div::<8, 2>(0, p8_from_f64_exact(2.0)), 0);
    }

    #[test]
    fn nar_propagates() {
        let one = p8_from_f64_exact(1.0);
        for op in [add::<8, 2>, sub::<8, 2>, mul::<8, 2>, div::<8, 2>] {
            assert_eq!(op(0x80, one), 0x80);
            assert_eq!(op(one, 0x80), 0x80);
        }
        assert_eq!(neg::<8, 2>(0x80), 0x80);
        assert_eq!(neg::<8, 2>(0), 0);
    }

    #[test]
    fn deep_product_chain_posit64() {
        // 0.5^k scales exactly: bits should decode back to scale -k while
        // in range.
        let half = PositValue::<64, 12>::rounded(false, -1, 1u64 << 63, false)
            .to_posit()
            .to_bits();
        let mut acc = PositValue::<64, 12>::ONE.to_posit().to_bits();
        for k in 1..=1000 {
            acc = mul::<64, 12>(acc, half);
            if let Decoded::Finite(u) = decode::<64, 12>(acc) {
                assert_eq!(u.scale, -k, "iteration {k}");
                assert_eq!(u.frac, 1u64 << 63);
            } else {
                panic!("not finite at {k}");
            }
        }
    }
}
