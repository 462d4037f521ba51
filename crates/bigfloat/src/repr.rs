//! The [`BigFloat`] representation and the shared normalize-and-round core.

use crate::limb;

/// Maximum supported precision, in bits.
pub const MAX_PREC: u32 = 16_384;

/// Minimum supported precision, in bits.
pub const MIN_PREC: u32 = 2;

/// Default working precision (matches the paper's 256-bit MPFR oracle).
pub const DEFAULT_PREC: u32 = 256;

/// Significand limbs a value holds inline: 320 bits, which covers the
/// oracle (256), measurement (192) and binary64 (53) precisions. Wider
/// values spill to the heap.
pub(crate) const INLINE_LIMBS: usize = 5;

/// Significand storage: inline up to [`INLINE_LIMBS`] limbs, a heap
/// vector above that. Only [`Limbs::as_slice`] is visible to the
/// arithmetic, so which variant holds a value never affects results.
#[derive(Clone)]
enum Limbs {
    Inline { len: u8, buf: [u64; INLINE_LIMBS] },
    Heap(Vec<u64>),
}

impl Limbs {
    const EMPTY: Limbs = Limbs::Inline {
        len: 0,
        buf: [0; INLINE_LIMBS],
    };

    /// `n` zero limbs; allocates only when `n > INLINE_LIMBS`.
    fn zeroed(n: usize) -> Limbs {
        if n <= INLINE_LIMBS {
            Limbs::Inline {
                len: n as u8,
                buf: [0; INLINE_LIMBS],
            }
        } else {
            Limbs::Heap(vec![0; n])
        }
    }

    fn from_slice(limbs: &[u64]) -> Limbs {
        let mut out = Limbs::zeroed(limbs.len());
        out.as_mut_slice().copy_from_slice(limbs);
        out
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            Limbs::Inline { len, buf } => &buf[..usize::from(*len)],
            Limbs::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Limbs::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Limbs::Heap(v) => v,
        }
    }
}

/// Prints as the limb list, whichever variant holds it.
impl core::fmt::Debug for Limbs {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Sign of a [`BigFloat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Non-negative.
    Pos,
    /// Negative.
    Neg,
}

impl Sign {
    /// Flips the sign.
    #[must_use]
    pub fn negate(self) -> Sign {
        match self {
            Sign::Pos => Sign::Neg,
            Sign::Neg => Sign::Pos,
        }
    }

    /// XOR of two signs: the sign of a product or quotient.
    #[must_use]
    pub fn xor(self, other: Sign) -> Sign {
        if self == other {
            Sign::Pos
        } else {
            Sign::Neg
        }
    }

    /// `+1.0` or `-1.0`.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        match self {
            Sign::Pos => 1.0,
            Sign::Neg => -1.0,
        }
    }
}

/// Classification of a [`BigFloat`] value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Exact zero (unsigned; `BigFloat` has a single zero, like posit).
    Zero,
    /// Finite nonzero number.
    Normal,
    /// Signed infinity (produced by overflow of the exponent range or
    /// division by zero).
    Inf,
    /// Not a number.
    Nan,
}

/// An arbitrary-precision binary floating-point number.
///
/// `BigFloat` plays the role of the 256-bit MPFR oracle in the paper: a
/// reference number system with enough precision and range that every
/// 64-bit format under study can be evaluated against it.
///
/// A `Normal` value is `(-1)^sign * 1.f * 2^exp` where the significand
/// `1.f` is stored in `limbs` (little-endian, most-significant bit of the
/// top limb always set) and carries `prec` significant bits. The exponent
/// is an `i64`, so magnitudes like `2^-2_900_000` (VICAR likelihoods) are
/// representable with room to spare.
///
/// # Examples
///
/// ```
/// use compstat_bigfloat::{BigFloat, Context};
///
/// let ctx = Context::new(256);
/// let x = BigFloat::from_f64(0.3);
/// let y = ctx.mul(&x, &x);
/// assert!((y.to_f64() - 0.09).abs() < 1e-15);
/// ```
#[derive(Clone, Debug)]
pub struct BigFloat {
    sign: Sign,
    kind: Kind,
    /// Binary exponent: value magnitude lies in `[2^exp, 2^(exp+1))`.
    exp: i64,
    /// Significand limbs, little-endian, top bit of the last limb set.
    limbs: Limbs,
    /// Precision (significant bits) this value was rounded to.
    prec: u32,
}

impl BigFloat {
    /// The single zero value.
    #[must_use]
    pub fn zero() -> BigFloat {
        BigFloat {
            sign: Sign::Pos,
            kind: Kind::Zero,
            exp: 0,
            limbs: Limbs::EMPTY,
            prec: DEFAULT_PREC,
        }
    }

    /// Positive or negative infinity.
    #[must_use]
    pub fn infinity(sign: Sign) -> BigFloat {
        BigFloat {
            sign,
            kind: Kind::Inf,
            exp: 0,
            limbs: Limbs::EMPTY,
            prec: DEFAULT_PREC,
        }
    }

    /// Not-a-number.
    #[must_use]
    pub fn nan() -> BigFloat {
        BigFloat {
            sign: Sign::Pos,
            kind: Kind::Nan,
            exp: 0,
            limbs: Limbs::EMPTY,
            prec: DEFAULT_PREC,
        }
    }

    /// One, at default precision.
    #[must_use]
    pub fn one() -> BigFloat {
        BigFloat::from_u64(1)
    }

    /// The sign. Zero and NaN report [`Sign::Pos`].
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The value classification.
    #[must_use]
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// True if the value is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.kind == Kind::Zero
    }

    /// True if the value is finite (zero or normal).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        matches!(self.kind, Kind::Zero | Kind::Normal)
    }

    /// True if the value is NaN.
    #[must_use]
    pub fn is_nan(&self) -> bool {
        self.kind == Kind::Nan
    }

    /// Binary exponent: the magnitude lies in `[2^exp, 2^(exp+1))`.
    ///
    /// This is the quantity plotted on the x-axes of Figures 1, 3 and 9 of
    /// the paper.
    ///
    /// Returns `None` for zero, infinity and NaN.
    #[must_use]
    pub fn exponent(&self) -> Option<i64> {
        match self.kind {
            Kind::Normal => Some(self.exp),
            _ => None,
        }
    }

    /// The precision (in significant bits) this value carries.
    #[must_use]
    pub fn precision(&self) -> u32 {
        self.prec
    }

    /// Read-only view of the significand limbs (little-endian).
    ///
    /// Empty for zero/inf/NaN; otherwise the top bit of the last limb is
    /// set (the explicit leading `1.` of the significand).
    #[must_use]
    pub fn limbs(&self) -> &[u64] {
        self.limbs.as_slice()
    }

    /// Negation (exact).
    #[must_use]
    pub fn neg(&self) -> BigFloat {
        let mut r = self.clone();
        if !matches!(r.kind, Kind::Zero | Kind::Nan) {
            r.sign = r.sign.negate();
        }
        r
    }

    /// Absolute value (exact).
    #[must_use]
    pub fn abs(&self) -> BigFloat {
        let mut r = self.clone();
        if r.kind != Kind::Nan {
            r.sign = Sign::Pos;
        }
        r
    }

    /// Multiplies by `2^k` (exact; adjusts the exponent only).
    ///
    /// Saturates if the `i64` exponent would overflow, mirroring the
    /// rounding core (`from_raw_wide`): positive overflow becomes the
    /// infinity *of the operand's sign*, while negative overflow
    /// becomes the single **unsigned** zero — `(-x).mul_pow2(i64::MIN)`
    /// loses the sign, because this `BigFloat` has no negative zero.
    /// Specials (zero, infinities, NaN) pass through unchanged for any
    /// `k`. `HdrFloat`'s conversions rely on both saturation
    /// directions being exactly these values.
    #[must_use]
    pub fn mul_pow2(&self, k: i64) -> BigFloat {
        let mut r = self.clone();
        if r.kind == Kind::Normal {
            match r.exp.checked_add(k) {
                Some(e) => r.exp = e,
                None if k > 0 => return BigFloat::infinity(r.sign),
                None => return BigFloat::zero(),
            }
        }
        r
    }

    /// Builds a `BigFloat` from raw parts, normalizing and rounding to
    /// `prec` bits (round to nearest, ties to even).
    ///
    /// `limbs` is an arbitrary (possibly unnormalized) magnitude; `exp` is
    /// the weight of bit `top` where `top` is the index of the highest set
    /// bit — i.e. the raw value is `limbs * 2^(exp - top)`. `sticky_in`
    /// reports whether nonzero bits were already discarded below the
    /// represented ones.
    #[must_use]
    pub(crate) fn from_raw(
        sign: Sign,
        exp_of_top_bit: i64,
        limbs: &[u64],
        sticky_in: bool,
        prec: u32,
    ) -> BigFloat {
        BigFloat::from_raw_wide(sign, exp_of_top_bit as i128, limbs, sticky_in, prec)
    }

    /// [`BigFloat::from_raw`] with a wide exponent: arithmetic computes
    /// the exponent of the top bit in `i128` (sums and differences of
    /// `i64` exponents plus bit-index adjustments cannot overflow it)
    /// and the final value saturates to infinity/zero if it leaves the
    /// `i64` range, mirroring [`BigFloat::mul_pow2`].
    ///
    /// This is the single rounding point shared by all arithmetic. `raw`
    /// is only read, so the fixed-width kernels pass their stack arrays
    /// straight in. Rather than shifting and masking `raw` bit by bit,
    /// it copies out the `ceil(prec/64)`-limb window whose top bit is
    /// the value's top bit, plus one guard limb below it, as whole-limb
    /// reads. The round bit, the sticky bits and the kept bits then all
    /// lie in that window. When `prec` is a multiple of 64, the guard
    /// limb is exactly the discarded part.
    #[must_use]
    #[inline]
    pub(crate) fn from_raw_wide(
        sign: Sign,
        exp_of_top_bit: i128,
        raw: &[u64],
        sticky_in: bool,
        prec: u32,
    ) -> BigFloat {
        debug_assert!((MIN_PREC..=MAX_PREC).contains(&prec));
        let Some(top) = limb::highest_bit(raw) else {
            // All bits zero. If sticky is set the true value was a tiny
            // nonzero residue; rounding to nearest still yields zero.
            return BigFloat::zero();
        };
        let n = prec.div_ceil(limb::LIMB_BITS) as usize;
        let mut limbs = Limbs::zeroed(n);
        let out = limbs.as_mut_slice();
        // Raw limb `t` holds the top bit; shifting left by `sh` puts it at
        // bit 63. Window limb `j` down from the top comes from raw limbs
        // `t - j` and `t - j - 1`. Limbs below raw[0] read as zero, so a
        // value shorter than the window keeps every bit and never rounds.
        let t = (top / 64) as usize;
        let sh = 63 - (top % 64) as u32;
        let below_top = |j: usize| if j <= t { raw[t - j] } else { 0 };
        let window = |j: usize| match sh {
            0 => below_top(j),
            _ => below_top(j) << sh | below_top(j + 1) >> (64 - sh),
        };
        for (j, o) in out.iter_mut().rev().enumerate() {
            *o = window(j);
        }
        let guard = window(n);
        // Everything below the guard limb folds into one sticky flag: the
        // bits of raw limb `t - n - 1` the guard did not take, and every
        // limb under it.
        let below = sticky_in
            || t.checked_sub(n + 1).is_some_and(|i| {
                (sh > 0 && raw[i] << sh != 0)
                    || raw[..i + usize::from(sh == 0)].iter().any(|&w| w != 0)
            });
        // Discarded bits at the bottom of the window (0..=63).
        let pad = (64 * n) as u32 - prec;
        let (round_bit, sticky, lsb) = if pad == 0 {
            (guard >> 63 == 1, below || guard << 1 != 0, out[0] & 1 == 1)
        } else {
            let round_bit = (out[0] >> (pad - 1)) & 1 == 1;
            let sticky = below || guard != 0 || out[0] & ((1 << (pad - 1)) - 1) != 0;
            let lsb = (out[0] >> pad) & 1 == 1;
            out[0] &= u64::MAX << pad;
            (round_bit, sticky, lsb)
        };
        let mut exp = exp_of_top_bit;
        if round_bit && (sticky || lsb) && limb::add_bit(out, u64::from(pad)) {
            // 1.111..1 rounded up to 10.000..0: the magnitude became a
            // power of two one position higher.
            out[n - 1] = 1 << 63;
            exp += 1;
        }
        BigFloat::normal_or_saturated(sign, exp, limbs, prec)
    }

    /// A `Normal` value from normalized limbs, or — when the exponent
    /// leaves the `i64` range — infinity (overflow) or the single
    /// unsigned zero (underflow).
    fn normal_or_saturated(sign: Sign, exp: i128, limbs: Limbs, prec: u32) -> BigFloat {
        let Ok(exp) = i64::try_from(exp) else {
            return if exp > 0 {
                BigFloat::special(Kind::Inf, sign, prec)
            } else {
                BigFloat::special(Kind::Zero, Sign::Pos, prec)
            };
        };
        BigFloat {
            sign,
            kind: Kind::Normal,
            exp,
            limbs,
            prec,
        }
    }

    /// The retired bit-indexed rounding: reads the round and sticky bits
    /// one bit index at a time, then shifts the whole buffer into place.
    /// Kept only as the differential reference for
    /// [`BigFloat::from_raw_wide`] (the `testing::*_general` paths).
    pub(crate) fn from_raw_bitwise(
        sign: Sign,
        exp_of_top_bit: i128,
        raw: &[u64],
        sticky_in: bool,
        prec: u32,
    ) -> BigFloat {
        let mut limbs = raw.to_vec();
        let Some(top) = limb::highest_bit(&limbs) else {
            return BigFloat::zero();
        };
        // We keep bits [top - prec + 1 ..= top].
        let keep_low = top as i64 - prec as i64 + 1;
        let mut exp = exp_of_top_bit;
        if keep_low > 0 {
            let keep_low = keep_low as u64;
            let round_bit = limb::get_bit(&limbs, keep_low - 1);
            let sticky = sticky_in || limb::any_bit_below(&limbs, keep_low - 1);
            let lsb = limb::get_bit(&limbs, keep_low);
            limb::clear_bits_below(&mut limbs, keep_low);
            if round_bit && (sticky || lsb) {
                if limb::add_bit(&mut limbs, keep_low) {
                    let n = limbs.len();
                    limbs[n - 1] = 1 << 63;
                    exp += 1;
                } else {
                    // Rounding may have rippled into a new top bit
                    // (e.g. 1.111 -> 10.000): recompute.
                    let new_top = limb::highest_bit(&limbs).expect("nonzero after round up");
                    exp += new_top as i128 - top as i128;
                }
            }
        }
        // Left/right align so the top bit sits at the MSB of the top
        // limb, then trim to `ceil(prec/64)` limbs.
        let top = limb::highest_bit(&limbs).expect("nonzero after rounding");
        let nlimbs = prec.div_ceil(limb::LIMB_BITS) as usize;
        let want_top = nlimbs as u64 * 64 - 1;
        if want_top > top {
            if limbs.len() < nlimbs {
                limbs.resize(nlimbs, 0);
            }
            limb::shl_in_place(&mut limbs, (want_top - top) as u32);
        } else {
            // Rounding cleared every bit below keep_low, so this shift
            // discards only zeros.
            let sticky = limb::shr_in_place_sticky(&mut limbs, (top - want_top) as u32);
            debug_assert!(!sticky, "normalization discarded set bits");
        }
        limbs.truncate(nlimbs);
        BigFloat::normal_or_saturated(sign, exp, Limbs::from_slice(&limbs), prec)
    }

    /// Re-rounds this value to a (typically lower) precision.
    #[must_use]
    pub fn round_to(&self, prec: u32) -> BigFloat {
        assert!(
            (MIN_PREC..=MAX_PREC).contains(&prec),
            "precision out of range"
        );
        match self.kind {
            Kind::Normal => {
                BigFloat::from_raw(self.sign, self.exp, self.limbs.as_slice(), false, prec)
            }
            _ => {
                let mut r = self.clone();
                r.prec = prec;
                r
            }
        }
    }

    /// Constructs from an unsigned integer (exact; precision grows to fit
    /// if the default does not).
    #[must_use]
    pub fn from_u64(v: u64) -> BigFloat {
        if v == 0 {
            return BigFloat::zero();
        }
        let top = 63 - v.leading_zeros() as i64;
        BigFloat::from_raw(Sign::Pos, top, &[v], false, DEFAULT_PREC)
    }

    /// Constructs from a signed integer (exact).
    #[must_use]
    pub fn from_i64(v: i64) -> BigFloat {
        if v >= 0 {
            BigFloat::from_u64(v as u64)
        } else {
            BigFloat::from_u64(v.unsigned_abs()).neg()
        }
    }

    /// `2^k` exactly.
    #[must_use]
    pub fn pow2(k: i64) -> BigFloat {
        let mut one = BigFloat::from_u64(1);
        one.exp = k;
        one
    }

    /// Internal accessor used by sibling modules.
    pub(crate) fn parts(&self) -> (Sign, Kind, i64, &[u64], u32) {
        (
            self.sign,
            self.kind,
            self.exp,
            self.limbs.as_slice(),
            self.prec,
        )
    }

    /// Internal constructor for special values carrying a precision tag.
    pub(crate) fn special(kind: Kind, sign: Sign, prec: u32) -> BigFloat {
        BigFloat {
            sign,
            kind,
            exp: 0,
            limbs: Limbs::EMPTY,
            prec,
        }
    }

    /// Exact reconstruction from already-validated parts — the
    /// deserialization path ([`crate::serial`]). The caller must have
    /// checked the invariants (`prec` in range; for `Normal`:
    /// `ceil(prec/64)` limbs, top bit of the last limb set, bits below
    /// the precision cleared); no normalization or rounding happens
    /// here, so a round-trip is bit-exact.
    pub(crate) fn from_parts_exact(
        sign: Sign,
        kind: Kind,
        exp: i64,
        limbs: &[u64],
        prec: u32,
    ) -> BigFloat {
        BigFloat {
            sign,
            kind,
            exp,
            limbs: Limbs::from_slice(limbs),
            prec,
        }
    }
}

impl Default for BigFloat {
    fn default() -> Self {
        BigFloat::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_specials_classify() {
        assert!(BigFloat::zero().is_zero());
        assert!(BigFloat::zero().is_finite());
        assert!(BigFloat::nan().is_nan());
        assert!(!BigFloat::infinity(Sign::Neg).is_finite());
        assert_eq!(BigFloat::zero().exponent(), None);
    }

    #[test]
    fn from_u64_normalizes() {
        let x = BigFloat::from_u64(1);
        assert_eq!(x.exponent(), Some(0));
        let x = BigFloat::from_u64(6);
        assert_eq!(x.exponent(), Some(2)); // 6 = 1.5 * 2^2
        assert_eq!(x.limbs().last().copied(), Some(0b11u64 << 62));
    }

    #[test]
    fn pow2_is_exact() {
        let x = BigFloat::pow2(-2_900_000);
        assert_eq!(x.exponent(), Some(-2_900_000));
        let y = BigFloat::pow2(40);
        assert_eq!(y.to_f64(), (1u64 << 40) as f64);
    }

    #[test]
    fn rounding_ties_to_even() {
        // Value 0b1011 (11) rounded to 3 bits: keep 101|1, round bit 1,
        // sticky 0, lsb of kept = 1 -> round up to 0b110 << 1 = 12.
        let x = BigFloat::from_raw(Sign::Pos, 3, &[0b1011], false, 3);
        assert_eq!(x.to_f64(), 12.0);
        // Value 0b1001 (9) to 3 bits: keep 100|1 round 1 sticky 0 lsb 0 ->
        // stay 0b100 << 1 = 8 (tie to even).
        let x = BigFloat::from_raw(Sign::Pos, 3, &[0b1001], false, 3);
        assert_eq!(x.to_f64(), 8.0);
        // 0b10011 (19) to 3 bits: round bit 1, sticky 1 -> up -> 20.
        let x = BigFloat::from_raw(Sign::Pos, 4, &[0b10011], false, 3);
        assert_eq!(x.to_f64(), 20.0);
    }

    #[test]
    fn rounding_carry_into_new_power_of_two() {
        // 0b1111 (15) rounded to 3 bits -> 16.
        let x = BigFloat::from_raw(Sign::Pos, 3, &[0b1111], false, 3);
        assert_eq!(x.to_f64(), 16.0);
        assert_eq!(x.exponent(), Some(4));
    }

    #[test]
    fn round_to_lower_precision() {
        let x = BigFloat::from_f64(1.0 + f64::EPSILON);
        let y = x.round_to(10);
        assert_eq!(y.to_f64(), 1.0);
        assert_eq!(y.precision(), 10);
    }

    #[test]
    fn neg_abs() {
        let x = BigFloat::from_i64(-5);
        assert_eq!(x.sign(), Sign::Neg);
        assert_eq!(x.abs().to_f64(), 5.0);
        assert_eq!(x.neg().to_f64(), 5.0);
        assert_eq!(BigFloat::zero().neg().sign(), Sign::Pos);
    }

    #[test]
    fn mul_pow2_shifts_exponent() {
        let x = BigFloat::from_u64(3).mul_pow2(-10);
        assert_eq!(x.to_f64(), 3.0 / 1024.0);
    }

    #[test]
    fn mul_pow2_saturation_signs() {
        // Positive overflow keeps the operand's sign...
        let up = BigFloat::one().neg().mul_pow2(i64::MAX).mul_pow2(1);
        assert_eq!(up.kind(), Kind::Inf);
        assert_eq!(up.sign(), Sign::Neg);
        // ...negative overflow collapses to the single unsigned zero
        // (documented: there is no negative zero to preserve the sign).
        let down = BigFloat::one().neg().mul_pow2(i64::MIN).mul_pow2(-1);
        assert!(down.is_zero());
        assert_eq!(down.sign(), Sign::Pos);
        // Specials pass through unchanged at any shift.
        assert!(BigFloat::nan().mul_pow2(i64::MAX).is_nan());
        assert!(BigFloat::zero().mul_pow2(i64::MIN).is_zero());
        let inf = BigFloat::infinity(Sign::Neg).mul_pow2(i64::MIN);
        assert_eq!(inf.kind(), Kind::Inf);
        assert_eq!(inf.sign(), Sign::Neg);
    }
}
