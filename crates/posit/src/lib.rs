//! # compstat-posit
//!
//! Software posit arithmetic: `Posit<N, ES>` for any width up to 64 bits
//! and any exponent-field size, as studied in *"Design and accuracy
//! trade-offs in Computational Statistics"* (IISWC 2025).
//!
//! The paper's thesis is that posits suit statistical computations on
//! extremely small probabilities because the regime field re-allocates
//! bits between range and precision on demand. This crate implements the
//! encoding of Equation (4), arithmetic with round-to-nearest-even on the
//! bit pattern (matching softposit/MArTo behavior), the standard's
//! saturation rules (results never round to zero or NaR), and exact
//! conversions to and from the [`BigFloat`] oracle.
//!
//! Posit rounding exists once. [`PositValue`] holds a posit decoded (a
//! sign, a scale and a Q1.63 significand, or zero, or NaR), and its `+`,
//! `-`, `*` and `/` round the exact result straight onto the posit grid
//! at the result's scale, returning another decoded value. `Posit`'s own
//! operators decode both operands, run the value's operation and encode
//! the result, exactly; the conversions from `f64` and [`BigFloat`] round
//! the same way. The whole datapath is const-generic over `N, ES` and
//! inlined into its caller, so each format gets its own code with its
//! shifts and masks as immediates.
//!
//! A chain of value operations gives the bits of the same chain on
//! `Posit`s while decoding each input once and encoding only the result.
//! The recurrences use that: `compstat_core`'s `StatFloat::run_pass`, the
//! one place a format pass's arithmetic is chosen, runs every posit
//! format's forward and PBD passes on decoded values
//! (`compstat_core::DecodedPosit`).
//!
//! # Examples
//!
//! ```
//! use compstat_posit::P64E12;
//!
//! // A probability far below binary64's 2^-1074 floor:
//! let tiny = P64E12::from_parts(false, -100_000, 1 << 63);
//! let sq = tiny * tiny;
//! assert_eq!(sq.scale(), Some(-200_000));
//! assert!(!sq.is_zero()); // no underflow
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_precision_loss)
)]

mod decode;
mod encode;
mod info;
/// Differential-test hooks: the runtime-`(n, es)` datapath that the
/// const-generic kernels replaced. Not a public API.
#[doc(hidden)]
pub mod testing;
mod value;

pub use decode::{Decoded, Unpacked};
pub use info::FormatInfo;
pub use value::PositValue;

use compstat_bigfloat::{BigFloat, Kind, Sign};
use core::fmt;
use core::marker::PhantomData;

/// An `N`-bit posit with `ES` maximum exponent bits — `posit(N, ES)` in
/// the paper's notation.
///
/// The pattern is stored in the low `N` bits of a `u64`. Negative posits
/// are two's complements of their magnitude pattern, which is why posit
/// comparison hardware is a signed-integer comparator (and why [`Ord`]
/// here is exact and total, with NaR ordered below every real value).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posit<const N: u32, const ES: u32> {
    bits: u64,
    _marker: PhantomData<()>,
}

/// posit(8, 2) — the worked example size from Section III.
pub type P8E2 = Posit<8, 2>;
/// posit(16, 2).
pub type P16E2 = Posit<16, 2>;
/// posit(32, 2) — the 2022-standard 32-bit posit.
pub type P32E2 = Posit<32, 2>;
/// posit(64, 6) — Table I configuration.
pub type P64E6 = Posit<64, 6>;
/// posit(64, 9): precision matches binary64 (up to 52 fraction bits) with
/// far wider dynamic range.
pub type P64E9 = Posit<64, 9>;
/// posit(64, 12): the paper's balanced range/precision configuration.
pub type P64E12 = Posit<64, 12>;
/// posit(64, 15) — Table I configuration.
pub type P64E15 = Posit<64, 15>;
/// posit(64, 18): range sufficient for the smallest values observed in
/// the paper's bioinformatics applications (down to `2^-16_252_928`).
pub type P64E18 = Posit<64, 18>;
/// posit(64, 21) — Table I configuration.
pub type P64E21 = Posit<64, 21>;

impl<const N: u32, const ES: u32> Posit<N, ES> {
    const VALID: () = assert!(N >= 3 && N <= 64 && ES <= 30, "posit config out of range");

    /// The zero pattern (all zeros). Posit has a single zero.
    pub const ZERO: Self = Self {
        bits: 0,
        _marker: PhantomData,
    };

    /// Not-a-Real: `1` followed by zeros. Replaces IEEE's infinities and
    /// NaNs.
    pub const NAR: Self = Self {
        bits: 1 << (N - 1),
        _marker: PhantomData,
    };

    /// One (`01` followed by zeros).
    pub const ONE: Self = Self {
        bits: 1 << (N - 2),
        _marker: PhantomData,
    };

    /// The smallest positive posit: `useed^-(N-2)` (Table I's "smallest
    /// representable positive number").
    pub const MIN_POSITIVE: Self = Self {
        bits: 1,
        _marker: PhantomData,
    };

    /// The largest finite posit: `useed^(N-2)`.
    pub const MAX: Self = Self {
        bits: (1 << (N - 1)) - 1,
        _marker: PhantomData,
    };

    /// Constructs from a raw pattern (low `N` bits).
    ///
    /// # Panics
    ///
    /// Panics if bits above the pattern width are set.
    #[must_use]
    pub fn from_bits(bits: u64) -> Self {
        assert!(N == 64 || bits >> N == 0, "bits beyond pattern width");
        Self::from_kernel(bits)
    }

    /// Wraps a pattern that a kernel produced, so it already fits `N`.
    #[inline]
    pub(crate) fn from_kernel(bits: u64) -> Self {
        #[expect(
            clippy::let_unit_value,
            reason = "naming the unit-typed VALID const forces its compile-time width check"
        )]
        let _ = Self::VALID;
        debug_assert!(N == 64 || bits >> N == 0, "bits beyond pattern width");
        Self {
            bits,
            _marker: PhantomData,
        }
    }

    /// The raw pattern in the low `N` bits.
    #[must_use]
    #[inline]
    pub fn to_bits(self) -> u64 {
        self.bits
    }

    /// Builds the posit nearest to `(-1)^neg * (frac/2^63) * 2^scale`,
    /// where `frac` is a Q1.63 significand with the hidden bit set.
    ///
    /// # Panics
    ///
    /// Panics if the hidden bit (bit 63) of `frac` is clear.
    #[must_use]
    pub fn from_parts(negative: bool, scale: i64, frac: u64) -> Self {
        assert!(frac >> 63 == 1, "hidden bit must be set");
        PositValue::rounded(negative, scale, frac, false).to_posit()
    }

    /// True for the zero pattern.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.bits == 0
    }

    /// True for the NaR pattern.
    #[must_use]
    pub fn is_nar(self) -> bool {
        self.bits == Self::NAR.bits
    }

    /// True for negative values (NaR and zero are not negative).
    #[must_use]
    pub fn is_negative(self) -> bool {
        !self.is_nar() && self.bits >> (N - 1) == 1
    }

    /// Decodes into sign/scale/significand form.
    #[must_use]
    pub fn decode(self) -> Decoded {
        decode::decode::<N, ES>(self.bits)
    }

    /// The combined binary scale `k·2^ES + e`, or `None` for zero/NaR.
    ///
    /// For a decoded magnitude `1.f × 2^scale` this is the base-2
    /// exponent plotted throughout the paper's figures.
    #[must_use]
    pub fn scale(self) -> Option<i64> {
        match self.decode() {
            Decoded::Finite(u) => Some(u.scale),
            _ => None,
        }
    }

    /// Absolute value (exact).
    #[must_use]
    pub fn abs(self) -> Self {
        if self.is_negative() {
            -self
        } else {
            self
        }
    }

    /// Converts exactly into the [`BigFloat`] oracle (NaR maps to NaN).
    #[must_use]
    pub fn to_bigfloat(self) -> BigFloat {
        match self.decode() {
            Decoded::Zero => BigFloat::zero(),
            Decoded::NaR => BigFloat::nan(),
            Decoded::Finite(u) => {
                let sign = if u.negative { Sign::Neg } else { Sign::Pos };
                BigFloat::from_scaled_u128(sign, u.frac as u128, u.scale)
            }
        }
    }

    /// Rounds a [`BigFloat`] to the nearest posit (the paper's
    /// "convert operands from MPFR into each format" step).
    ///
    /// Values beyond the posit range saturate at `MAX`/`MIN_POSITIVE`
    /// magnitudes; NaN and infinities become NaR.
    #[must_use]
    pub fn from_bigfloat(x: &BigFloat) -> Self {
        match x.kind() {
            Kind::Zero => Self::ZERO,
            Kind::Nan | Kind::Inf => Self::NAR,
            Kind::Normal => {
                let negative = x.sign() == Sign::Neg;
                let scale = x.exponent().expect("normal");
                let limbs = x.limbs();
                let frac = limbs[limbs.len() - 1];
                let sticky = limbs[..limbs.len() - 1].iter().any(|&l| l != 0);
                PositValue::rounded(negative, scale, frac, sticky).to_posit()
            }
        }
    }

    /// Converts to the nearest `f64` (NaR maps to NaN).
    #[must_use]
    pub fn to_f64(self) -> f64 {
        match self.decode() {
            Decoded::Zero => 0.0,
            Decoded::NaR => f64::NAN,
            Decoded::Finite(_) => self.to_bigfloat().to_f64(),
        }
    }

    /// Rounds an `f64` to the nearest posit (NaN/inf become NaR).
    #[must_use]
    pub fn from_f64(x: f64) -> Self {
        PositValue::from_f64(x).to_posit()
    }

    /// Format metadata (Table I row for this configuration).
    #[must_use]
    pub fn format_info() -> FormatInfo {
        FormatInfo::new(N, ES)
    }
}

impl<const N: u32, const ES: u32> core::ops::Neg for Posit<N, ES> {
    type Output = Self;
    /// Exact: the two's complement of the pattern.
    fn neg(self) -> Self {
        Self::from_kernel(self.bits.wrapping_neg() & decode::Format::<N, ES>::MASK)
    }
}

/// Each operator decodes both operands, runs [`PositValue`]'s operation
/// and encodes the result, which is exact: the value's operation has
/// already rounded it onto the posit grid.
macro_rules! posit_bin_op {
    ($trait:ident, $method:ident) => {
        impl<const N: u32, const ES: u32> core::ops::$trait for Posit<N, ES> {
            type Output = Self;
            #[inline]
            fn $method(self, rhs: Self) -> Self {
                core::ops::$trait::$method(
                    PositValue::from_posit(self),
                    PositValue::from_posit(rhs),
                )
                .to_posit()
            }
        }
        impl<const N: u32, const ES: u32> core::ops::$trait<&Posit<N, ES>> for Posit<N, ES> {
            type Output = Self;
            #[inline]
            fn $method(self, rhs: &Self) -> Self {
                <Self as core::ops::$trait>::$method(self, *rhs)
            }
        }
    };
}

posit_bin_op!(Add, add);
posit_bin_op!(Sub, sub);
posit_bin_op!(Mul, mul);
posit_bin_op!(Div, div);

macro_rules! posit_assign_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const N: u32, const ES: u32> core::ops::$trait for Posit<N, ES> {
            #[inline]
            fn $method(&mut self, rhs: Self) {
                *self = *self $op rhs;
            }
        }
    };
}

posit_assign_op!(AddAssign, add_assign, +);
posit_assign_op!(SubAssign, sub_assign, -);
posit_assign_op!(MulAssign, mul_assign, *);
posit_assign_op!(DivAssign, div_assign, /);

impl<const N: u32, const ES: u32> PartialOrd for Posit<N, ES> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: u32, const ES: u32> Ord for Posit<N, ES> {
    /// Total order by sign-extended pattern — the signed-integer compare
    /// posit hardware uses. NaR sorts below all real values.
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        let a = ((self.bits << (64 - N)) as i64) >> (64 - N);
        let b = ((other.bits << (64 - N)) as i64) >> (64 - N);
        a.cmp(&b)
    }
}

impl<const N: u32, const ES: u32> Default for Posit<N, ES> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: u32, const ES: u32> fmt::Debug for Posit<N, ES> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Posit<{N},{ES}>({:#x} = {})", self.bits, self)
    }
}

impl<const N: u32, const ES: u32> fmt::Display for Posit<N, ES> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.decode() {
            Decoded::Zero => write!(f, "0"),
            Decoded::NaR => write!(f, "NaR"),
            Decoded::Finite(u) => {
                let bf = self.to_bigfloat();
                if (-1020..=1020).contains(&u.scale) {
                    write!(f, "{}", bf.to_f64())
                } else {
                    write!(f, "{}", bf.to_sci_string(6))
                }
            }
        }
    }
}

impl<const N: u32, const ES: u32> From<f64> for Posit<N, ES> {
    fn from(x: f64) -> Self {
        Self::from_f64(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_decode_correctly() {
        assert!(P64E9::ZERO.is_zero());
        assert!(P64E9::NAR.is_nar());
        assert_eq!(P64E9::ONE.to_f64(), 1.0);
        assert_eq!(P8E2::MAX.to_f64(), 2f64.powi(24));
        assert_eq!(P8E2::MIN_POSITIVE.to_f64(), 2f64.powi(-24));
        assert_eq!(P64E9::MIN_POSITIVE.scale(), Some(-31_744));
        assert_eq!(P64E18::MIN_POSITIVE.scale(), Some(-16_252_928));
    }

    #[test]
    #[expect(
        clippy::unusual_byte_groupings,
        reason = "groups are posit fields: sign_regime_exp_frac"
    )]
    fn paper_example_value() {
        let p = P8E2::from_bits(0b0_0001_10_1);
        assert_eq!(p.to_f64(), 1.5 * 2f64.powi(-10));
    }

    #[test]
    fn f64_round_trips_for_exact_values() {
        for x in [
            0.0,
            1.0,
            -1.0,
            0.5,
            1.5,
            -3.25,
            1024.0,
            2f64.powi(-30) * 1.75,
        ] {
            assert_eq!(P64E12::from_f64(x).to_f64(), x, "{x}");
            assert_eq!(P32E2::from_f64(x).to_f64(), x, "{x}");
        }
        assert!(P64E12::from_f64(f64::NAN).is_nar());
        assert!(P64E12::from_f64(f64::INFINITY).is_nar());
    }

    #[test]
    fn f64_subnormals_convert() {
        let x = f64::from_bits(1); // 2^-1074
        let p = P64E12::from_f64(x);
        assert_eq!(p.scale(), Some(-1074));
        let y = f64::from_bits(0b1011); // 11 * 2^-1074
        let p = P64E12::from_f64(y);
        assert_eq!(p.to_f64(), y);
    }

    #[test]
    fn posit64_es9_preserves_binary64_precision_in_range() {
        // posit(64,9) has up to 52 fraction bits: every f64 with modest
        // exponent converts exactly.
        for x in [0.3, 0.1, 0.7, 123.456, 1e-5, 0.9999999999999999] {
            assert_eq!(P64E9::from_f64(x).to_f64(), x, "{x}");
        }
    }

    #[test]
    fn ordering_is_total_and_matches_values() {
        let vals = [
            -4.0, -1.0, -0.5, -0.015625, 0.0, 0.015625, 0.5, 1.0, 1.5, 4.0, 64.0,
        ];
        let posits: Vec<P16E2> = vals.iter().map(|&v| P16E2::from_f64(v)).collect();
        for i in 0..posits.len() {
            for j in 0..posits.len() {
                assert_eq!(
                    posits[i].cmp(&posits[j]),
                    vals[i].partial_cmp(&vals[j]).unwrap(),
                    "cmp({}, {})",
                    vals[i],
                    vals[j]
                );
            }
        }
        // NaR below everything.
        assert!(P16E2::NAR < P16E2::from_f64(-1e9));
    }

    #[test]
    fn bigfloat_round_trip_is_exact() {
        let p = P64E18::from_parts(false, -5_000_000, (1u64 << 63) | 0xDEAD_BEEF);
        let bf = p.to_bigfloat();
        assert_eq!(P64E18::from_bigfloat(&bf), p);
    }

    #[test]
    fn from_bigfloat_saturates() {
        use compstat_bigfloat::BigFloat;
        let huge = BigFloat::pow2(10_000_000);
        assert_eq!(P64E9::from_bigfloat(&huge), P64E9::MAX);
        let tiny = BigFloat::pow2(-10_000_000);
        assert_eq!(P64E9::from_bigfloat(&tiny), P64E9::MIN_POSITIVE);
        assert!(P64E9::from_bigfloat(&BigFloat::nan()).is_nar());
        assert!(P64E9::from_bigfloat(&BigFloat::zero()).is_zero());
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(P8E2::ONE.to_string(), "1");
        assert_eq!(P8E2::NAR.to_string(), "NaR");
        assert_eq!(P64E18::MIN_POSITIVE.to_string(), "1.000000 * 2^-16252928");
        assert!(format!("{:?}", P8E2::ONE).contains("Posit<8,2>"));
    }

    #[test]
    fn arithmetic_traits_work() {
        let a = P64E12::from_f64(0.3);
        let b = P64E12::from_f64(0.2);
        let mut c = a;
        c += b;
        assert!((c.to_f64() - 0.5).abs() < 1e-15);
        c -= b;
        assert!((c.to_f64() - 0.3).abs() < 1e-15);
        c *= b;
        assert!((c.to_f64() - 0.06).abs() < 1e-15);
        c /= b;
        assert!((c.to_f64() - 0.3).abs() < 1e-15);
        assert_eq!(-(-a), a);
    }
}
