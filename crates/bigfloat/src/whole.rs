//! [`WholeFloat`]: a finite, non-negative value at a whole-limb
//! precision `64 * N` (`N <= 5`), and the two kernels of every
//! whole-limb operation: a same-sign sum and a product by a one-limb
//! operand.
//!
//! The oracle recurrences only add and multiply probabilities. Their
//! values never need `BigFloat`'s sign, kind or precision tags, its
//! run-time limb count or its enum storage: an `i64` exponent and `N`
//! limbs say everything, with all-zero limbs meaning zero. A
//! `WholeFloat` is that, and it is `Copy`.
//!
//! Both kernels take the exact result to `N` limbs above one guard limb
//! plus a sticky flag, and round to nearest, ties to even, in registers
//! ([`round_guarded`]). None of them branches on the data: a carry out of
//! the sum and the product's normalization pick between shifted and
//! unshifted limbs under a mask, and the round-up adds a 0/1 increment,
//! so a run of operations waits on latency, not on mispredictions. `Context::{add, sub, mul}` place their
//! whole-limb shapes into arrays and call the same kernels, so each
//! rounding exists once, and a `WholeFloat` result is bit-identical to
//! the `Context::new(64 * N)` result of the same operands.

use crate::limb::{self, Limb};
use crate::repr::{BigFloat, INLINE_LIMBS};
use crate::{Context, Kind, Sign};

/// A finite, non-negative value at `64 * N` bits of precision: the
/// oracle's values when every input is a probability.
///
/// `add` and `mul` return exactly what `Context::new(64 * N)` returns
/// for the same operands, and [`WholeFloat::to_bigfloat`] tags the value
/// with that precision. An exponent below `i64::MIN` rounds to zero, as
/// `BigFloat`'s does. An exponent above `i64::MAX` panics: sums and
/// products of probabilities stay near or below one.
///
/// # Examples
///
/// ```
/// use compstat_bigfloat::{bit_identical, BigFloat, Context, WholeFloat};
///
/// let ctx = Context::new(256);
/// let (a, b) = (0.3, 0.7);
/// let whole = WholeFloat::<4>::from_f64(a).mul(&WholeFloat::from_f64(b));
/// let big = ctx.mul(&BigFloat::from_f64(a), &BigFloat::from_f64(b));
/// assert!(bit_identical(&whole.to_bigfloat(), &big));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WholeFloat<const N: usize> {
    /// The weight of the top bit: the value lies in `[2^exp, 2^(exp+1))`.
    /// Zero for zero.
    exp: i64,
    /// Significand limbs, little-endian, top bit of `limbs[N - 1]` set.
    /// All zero for zero.
    limbs: [u64; N],
}

impl<const N: usize> WholeFloat<N> {
    /// The precision, `64 * N` bits.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`N <= INLINE_LIMBS` (5), checked at compile time"
    )]
    pub const PREC: u32 = {
        assert!(
            N >= 1 && N <= INLINE_LIMBS,
            "a whole-limb value has 1 to 5 limbs"
        );
        64 * N as u32
    };

    /// Zero.
    pub const ZERO: WholeFloat<N> = WholeFloat {
        exp: 0,
        limbs: [0; N],
    };

    /// One.
    pub const ONE: WholeFloat<N> = {
        let mut limbs = [0; N];
        limbs[N - 1] = 1 << 63;
        WholeFloat { exp: 0, limbs }
    };

    /// `x` exactly: either zero maps to zero.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative, infinite or NaN.
    #[must_use]
    #[inline]
    pub fn from_f64(x: f64) -> WholeFloat<N> {
        assert!(
            x >= 0.0 && x.is_finite(),
            "a whole-limb value is finite and non-negative, not {x}"
        );
        if x == 0.0 {
            return WholeFloat::ZERO;
        }
        let bits = x.to_bits();
        let frac = bits & ((1 << 52) - 1);
        let (exp, top) = match (bits >> 52) as i64 {
            // Subnormal: frac * 2^-1074.
            0 => {
                let lz = frac.leading_zeros();
                (63 - i64::from(lz) - 1074, frac << lz)
            }
            biased => (biased - 1023, (frac | 1 << 52) << 11),
        };
        let mut limbs = [0; N];
        limbs[N - 1] = top;
        WholeFloat { exp, limbs }
    }

    /// `x` exactly, if it is zero or a positive normal value of at most
    /// `N` limbs (a precision of at most `64 * N` bits); otherwise
    /// `None`.
    #[must_use]
    pub fn from_bigfloat(x: &BigFloat) -> Option<WholeFloat<N>> {
        match (x.kind(), x.sign()) {
            (Kind::Zero, _) => Some(WholeFloat::ZERO),
            (Kind::Normal, Sign::Pos) if x.limbs().len() <= N => Some(WholeFloat {
                exp: x.exponent()?,
                limbs: place(x.limbs()),
            }),
            _ => None,
        }
    }

    /// The value as the `BigFloat` that `Context::new(64 * N)` returns
    /// for it: a zero too carries the precision tag `64 * N`.
    #[must_use]
    pub fn to_bigfloat(&self) -> BigFloat {
        if self.is_zero() {
            BigFloat::special(Kind::Zero, Sign::Pos, Self::PREC)
        } else {
            BigFloat::from_whole(Sign::Pos, (i128::from(self.exp), self.limbs))
        }
    }

    /// True for zero.
    #[must_use]
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs[N - 1] == 0
    }

    /// `self + other`, correctly rounded to `64 * N` bits.
    ///
    /// # Panics
    ///
    /// Panics if the sum's exponent exceeds `i64::MAX`.
    #[must_use]
    #[inline]
    pub fn add(&self, other: &WholeFloat<N>) -> WholeFloat<N> {
        if other.is_zero() {
            return *self;
        }
        if self.is_zero() {
            return *other;
        }
        // The operand with the larger exponent goes first, picked by
        // index rather than by a branch.
        let pair = [self, other];
        let swap = usize::from(self.exp < other.exp);
        let (x, y) = (pair[swap], pair[1 - swap]);
        WholeFloat::finish(add_kernel(x.exp, &x.limbs, y.exp, &y.limbs))
    }

    /// `self * other`, correctly rounded to `64 * N` bits. A product by
    /// a one-limb operand (a `from_f64` import, say) runs in the
    /// whole-limb kernel; an `N x N` product, which the oracle
    /// recurrences never form, goes through `Context::mul`.
    ///
    /// # Panics
    ///
    /// Panics if the product's exponent exceeds `i64::MAX`.
    #[must_use]
    #[inline]
    pub fn mul(&self, other: &WholeFloat<N>) -> WholeFloat<N> {
        if self.is_zero() || other.is_zero() {
            return WholeFloat::ZERO;
        }
        let one_limb = |v: &WholeFloat<N>| v.limbs[..N - 1].iter().all(|&l| l == 0);
        let (wide, narrow) = if one_limb(other) {
            (self, other)
        } else if one_limb(self) {
            (other, self)
        } else {
            let product = Context::new(Self::PREC).mul(&self.to_bigfloat(), &other.to_bigfloat());
            return WholeFloat::from_bigfloat(&product)
                .expect("a product of probabilities stays finite");
        };
        let exp_sum = i128::from(self.exp) + i128::from(other.exp);
        WholeFloat::finish(mul_kernel(exp_sum, &wide.limbs, narrow.limbs[N - 1]))
    }

    /// A kernel result as a value: an exponent below `i64::MIN` gives
    /// zero, as `BigFloat`'s rounding saturates.
    #[inline]
    fn finish((exp, limbs): (i128, [u64; N])) -> WholeFloat<N> {
        match i64::try_from(exp) {
            Ok(exp) => WholeFloat { exp, limbs },
            Err(_) if exp < 0 => WholeFloat::ZERO,
            Err(_) => panic!("a whole-limb value overflowed the i64 exponent range"),
        }
    }
}

/// `limbs` (at most `W`) at the top of a zeroed `W`-limb array, limb by
/// limb: a copy of run-time length would be a `memcpy` call.
#[inline]
pub(crate) fn place<const W: usize>(limbs: &[u64]) -> [u64; W] {
    let off = W - limbs.len();
    core::array::from_fn(|i| limbs.get(i.wrapping_sub(off)).copied().unwrap_or(0))
}

/// The same-sign sum of two nonzero magnitudes `x` (top bit weighing
/// `2^ex`) and `y` (`2^ey`, `ey <= ex`), each normalized in `N` limbs,
/// rounded to `64 * N` bits: the exponent of the result's top bit and
/// its limbs. `y` is shifted under `x`, so the limb below the result is
/// a guard, and whatever falls off the bottom folds into a sticky flag.
/// A carry out of the top shifts the sum back down one bit, the carry
/// entering at the top: the shifted limbs are picked under the mask of
/// the carry bit.
#[inline]
pub(crate) fn add_kernel<const N: usize>(
    ex: i64,
    x: &[u64; N],
    ey: i64,
    y: &[u64; N],
) -> (i128, [u64; N]) {
    let (y, guard, sticky) = shr_into_guard(y, ex.abs_diff(ey));
    // `x` has nothing under its last limb, so the guard takes no carry.
    let (sum, carry) = limb::fixed::add(x, &y);
    let c = u64::from(carry);
    let mask = c.wrapping_neg();
    // Limb `i` of the sum with the carry above it.
    let s = |i: usize| if i < N { sum[i] } else { c };
    let hi = core::array::from_fn(|i| select(mask, s(i) >> 1 | s(i + 1) << 63, sum[i]));
    let sticky = sticky | (guard & c != 0);
    let guard = select(mask, guard >> 1 | sum[0] << 63, guard);
    round_guarded(i128::from(ex) + i128::from(c), hi, guard, sticky)
}

/// `y >> d` over `N` limbs and a guard limb below them, which starts
/// at zero, and whether a set bit fell off the bottom of the guard.
#[inline]
fn shr_into_guard<const N: usize>(y: &[u64; N], d: u64) -> ([u64; N], u64, bool) {
    // `e(0)` is the guard and `e(i)` is `y[i - 1]`; limbs past the top
    // read as zero, so a word shift past the array leaves only dust:
    // zero, and the sticky bit.
    let (q, r) = ((d / 64).min(N as u64 + 1) as usize, (d % 64) as u32);
    let e = |i: usize| match i {
        0 => 0,
        _ => y.get(i - 1).copied().unwrap_or(0),
    };
    // `<< (63 - r) << 1` is `<< (64 - r)`, and zero when `r == 0`.
    let shifted = |i: usize| e(i + q) >> r | e(i + q + 1) << (63 - r) << 1;
    let mut sticky = e(q) << (63 - r) << 1 != 0;
    for (i, &l) in y.iter().enumerate() {
        sticky |= i + 1 < q && l != 0;
    }
    (core::array::from_fn(|i| shifted(i + 1)), shifted(0), sticky)
}

/// The product of a nonzero `N`-limb magnitude `a` and a one-limb `b`,
/// both normalized, rounded to `64 * N` bits, where `exp_sum` is the sum
/// of their exponents. The exact product fills `N + 1` limbs; when its
/// top bit is clear, one left shift normalizes it without losing a bit,
/// and the limb below the result is the guard. The shifted limbs are
/// picked under the mask of that bit.
#[inline]
pub(crate) fn mul_kernel<const N: usize>(exp_sum: i128, a: &[u64; N], b: u64) -> (i128, [u64; N]) {
    let mut low = [0; N];
    let mut top = 0;
    for (l, &ai) in low.iter_mut().zip(a) {
        (*l, top) = Limb::carrying_mul_add(ai, b, top, 0);
    }
    // Limb `i` of the `N + 1`-limb product.
    let p = |i: usize| if i < N { low[i] } else { top };
    // Significands in [1, 2) multiply into [1, 4): the top bit is set
    // from 2 on.
    let t = top >> 63;
    let mask = t.wrapping_neg();
    let hi = core::array::from_fn(|i| select(mask, p(i + 1), p(i + 1) << 1 | p(i) >> 63));
    let guard = select(mask, p(0), p(0) << 1);
    round_guarded(exp_sum + i128::from(t), hi, guard, false)
}

/// `a` where `mask` is all ones, `b` where it is zero: a choice that
/// costs three operations and no branch.
#[inline]
fn select(mask: u64, a: u64, b: u64) -> u64 {
    b ^ ((a ^ b) & mask)
}

/// The rounding point of the whole-limb kernels: `hi` holds the `N`
/// result limbs (top bit of `hi[N - 1]` set, weighing `2^exp`) above the
/// `guard` limb, and `sticky` reports set bits already discarded below
/// it.
///
/// The guard's top bit is the round bit, so ties-to-even needs no window
/// walk: it reads the guard, the flag and the lowest result limb into a
/// 0/1 increment, which always runs through the carry chain. It returns
/// exactly the exponent and limbs that `BigFloat`'s general rounding
/// core gives the same magnitude and sticky flag.
#[inline]
fn round_guarded<const N: usize>(
    exp: i128,
    mut hi: [u64; N],
    guard: u64,
    sticky: bool,
) -> (i128, [u64; N]) {
    let above_tie = u64::from(sticky | (guard << 1 != 0)) | hi[0] & 1;
    let mut carry = guard >> 63 & above_tie;
    for l in &mut hi {
        let (sum, out) = l.overflowing_add(carry);
        (*l, carry) = (sum, u64::from(out));
    }
    // A carry out leaves all-zero limbs: 1.111..1 rounded up to
    // 10.000..0, whose top bit weighs one more.
    hi[N - 1] |= carry << 63;
    (exp + i128::from(carry), hi)
}
