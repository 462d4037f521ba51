//! The [`StatFloat`] abstraction: "the same statistical computation,
//! instantiated per number system".
//!
//! The paper's method is to run one algorithm (the forward algorithm,
//! the Poisson-binomial recurrence) under binary64, log-space and several
//! posit configurations, then compare against a 256-bit oracle. This
//! trait is that method as an interface: applications are written once,
//! generically, and the formats plug in.

use crate::arith::{DecodedPosit, FormatPass, Native};
use compstat_bigfloat::{BigFloat, Context, HdrFloat};
use compstat_logspace::LogF64;
use compstat_posit::Posit;
use core::fmt::Debug;

/// Precision used for measurement-grade conversions (well beyond any
/// 64-bit format's information content; the oracle itself runs at 256).
pub const MEASURE_PREC: u32 = 192;

/// Identifies a number system in reports and in the FPGA model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FormatKind {
    /// IEEE 754 double precision, computed in linear space.
    Binary64,
    /// Binary64 log-space with LSE addition.
    LogSpace,
    /// `posit(n, es)`.
    Posit {
        /// Total width in bits.
        n: u32,
        /// Exponent field width.
        es: u32,
    },
    /// HDR float: binary64 mantissa (53 significant bits) with a
    /// software `i64` exponent — binary64 precision, BigFloat range.
    Hdr,
}

/// A 64-bit number system under study.
///
/// `add`/`mul` are the two operations statistical inner loops are made of
/// (Listings 1 and 2); conversions to/from [`BigFloat`] define what value
/// a representation *means*, which is how accuracy is measured.
pub trait StatFloat: Copy + Clone + Debug + PartialEq + 'static {
    /// Display name matching the paper's figure legends.
    const NAME: &'static str;

    /// Which format family this is.
    const KIND: FormatKind;

    /// Additive identity.
    fn zero() -> Self;

    /// Multiplicative identity.
    fn one() -> Self;

    /// True if the value is exactly zero (for underflow detection).
    fn is_zero(&self) -> bool;

    /// True if the value is invalid (NaN / NaR).
    fn is_invalid(&self) -> bool;

    /// Addition in this format (LSE for log-space).
    #[must_use]
    fn add(self, other: Self) -> Self;

    /// Multiplication in this format (log add for log-space).
    #[must_use]
    fn mul(self, other: Self) -> Self;

    /// Division in this format.
    #[must_use]
    fn div(self, other: Self) -> Self;

    /// Rounds an `f64` into this format.
    fn from_f64(x: f64) -> Self;

    /// Rounds an exact value into this format (the paper's
    /// "convert operands from MPFR" step).
    fn from_bigfloat(x: &BigFloat) -> Self;

    /// The exact real value this representation denotes.
    fn to_bigfloat(&self) -> BigFloat;

    /// Base-2 exponent of the represented value, if finite nonzero.
    fn exponent(&self) -> Option<i64> {
        self.to_bigfloat().exponent()
    }

    /// Runs `pass` in the fastest arithmetic that computes this format's
    /// bits: the format's own values ([`Native`]) unless it overrides
    /// this, as every posit does with its decoded values
    /// ([`DecodedPosit`]). The one place a format pass's arithmetic is
    /// chosen.
    fn run_pass<P: FormatPass<Self>>(pass: P) -> P::Output {
        pass.run(&Native::<Self>::new())
    }
}

impl StatFloat for f64 {
    const NAME: &'static str = "binary64";
    const KIND: FormatKind = FormatKind::Binary64;

    fn zero() -> Self {
        0.0
    }

    fn one() -> Self {
        1.0
    }

    fn is_zero(&self) -> bool {
        *self == 0.0
    }

    fn is_invalid(&self) -> bool {
        self.is_nan()
    }

    fn add(self, other: Self) -> Self {
        self + other
    }

    fn mul(self, other: Self) -> Self {
        self * other
    }

    fn div(self, other: Self) -> Self {
        self / other
    }

    fn from_f64(x: f64) -> Self {
        x
    }

    fn from_bigfloat(x: &BigFloat) -> Self {
        x.to_f64()
    }

    fn to_bigfloat(&self) -> BigFloat {
        BigFloat::from_f64(*self)
    }
}

impl StatFloat for LogF64 {
    const NAME: &'static str = "Log";
    const KIND: FormatKind = FormatKind::LogSpace;

    fn zero() -> Self {
        LogF64::ZERO
    }

    fn one() -> Self {
        LogF64::ONE
    }

    fn is_zero(&self) -> bool {
        LogF64::is_zero(*self)
    }

    fn is_invalid(&self) -> bool {
        !self.is_valid()
    }

    fn add(self, other: Self) -> Self {
        self + other
    }

    fn mul(self, other: Self) -> Self {
        self * other
    }

    fn div(self, other: Self) -> Self {
        self / other
    }

    fn from_f64(x: f64) -> Self {
        LogF64::from_f64(x)
    }

    fn from_bigfloat(x: &BigFloat) -> Self {
        LogF64::from_bigfloat(x, &Context::new(MEASURE_PREC))
    }

    fn to_bigfloat(&self) -> BigFloat {
        LogF64::to_bigfloat(*self, &Context::new(MEASURE_PREC))
    }
}

impl StatFloat for HdrFloat {
    const NAME: &'static str = "hdr(53)";
    const KIND: FormatKind = FormatKind::Hdr;

    fn zero() -> Self {
        HdrFloat::ZERO
    }

    fn one() -> Self {
        HdrFloat::ONE
    }

    fn is_zero(&self) -> bool {
        HdrFloat::is_zero(self)
    }

    fn is_invalid(&self) -> bool {
        self.is_nan()
    }

    fn add(self, other: Self) -> Self {
        self + other
    }

    fn mul(self, other: Self) -> Self {
        self * other
    }

    fn div(self, other: Self) -> Self {
        self / other
    }

    fn from_f64(x: f64) -> Self {
        HdrFloat::from_f64(x)
    }

    fn from_bigfloat(x: &BigFloat) -> Self {
        HdrFloat::from_bigfloat(x)
    }

    fn to_bigfloat(&self) -> BigFloat {
        HdrFloat::to_bigfloat(self)
    }

    fn exponent(&self) -> Option<i64> {
        HdrFloat::exponent(self)
    }
}

macro_rules! statfloat_for_posit {
    ($n:expr, $es:expr, $name:expr) => {
        impl StatFloat for Posit<$n, $es> {
            const NAME: &'static str = $name;
            const KIND: FormatKind = FormatKind::Posit { n: $n, es: $es };

            fn zero() -> Self {
                Self::ZERO
            }

            fn one() -> Self {
                Self::ONE
            }

            fn is_zero(&self) -> bool {
                Posit::is_zero(*self)
            }

            fn is_invalid(&self) -> bool {
                self.is_nar()
            }

            #[inline]
            fn add(self, other: Self) -> Self {
                self + other
            }

            #[inline]
            fn mul(self, other: Self) -> Self {
                self * other
            }

            #[inline]
            fn div(self, other: Self) -> Self {
                self / other
            }

            fn from_f64(x: f64) -> Self {
                Self::from_f64(x)
            }

            fn from_bigfloat(x: &BigFloat) -> Self {
                Self::from_bigfloat(x)
            }

            fn to_bigfloat(&self) -> BigFloat {
                Posit::to_bigfloat(*self)
            }

            fn run_pass<P: FormatPass<Self>>(pass: P) -> P::Output {
                pass.run(&DecodedPosit::<$n, $es>)
            }
        }
    };
}

statfloat_for_posit!(64, 6, "posit(64,6)");
statfloat_for_posit!(64, 9, "posit(64,9)");
statfloat_for_posit!(64, 12, "posit(64,12)");
statfloat_for_posit!(64, 15, "posit(64,15)");
statfloat_for_posit!(64, 18, "posit(64,18)");
statfloat_for_posit!(64, 21, "posit(64,21)");

// Re-exported so generic code can enumerate configurations.
pub use compstat_posit::{P64E12 as Posit64Es12, P64E18 as Posit64Es18, P64E9 as Posit64Es9};

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_posit::{P64E12, P64E15, P64E18, P64E21, P64E6, P64E9};

    /// The five formats compared throughout the paper's figures.
    fn paper_format_names() -> [&'static str; 5] {
        [
            <f64 as StatFloat>::NAME,
            <LogF64 as StatFloat>::NAME,
            <P64E9 as StatFloat>::NAME,
            <P64E12 as StatFloat>::NAME,
            <P64E18 as StatFloat>::NAME,
        ]
    }

    fn check_roundtrip<T: StatFloat>() {
        let x = T::from_f64(0.3);
        let bf = x.to_bigfloat();
        let back = T::from_bigfloat(&bf);
        assert_eq!(back, x, "{} round trip", T::NAME);
        assert!(T::zero().is_zero());
        assert!(!T::one().is_zero());
        let sum = T::from_f64(0.25).add(T::from_f64(0.5));
        assert!(
            (sum.to_bigfloat().to_f64() - 0.75).abs() < 1e-12,
            "{}",
            T::NAME
        );
        let prod = T::from_f64(0.25).mul(T::from_f64(0.5));
        assert!(
            (prod.to_bigfloat().to_f64() - 0.125).abs() < 1e-12,
            "{}",
            T::NAME
        );
        let quot = T::from_f64(0.25).div(T::from_f64(0.5));
        assert!(
            (quot.to_bigfloat().to_f64() - 0.5).abs() < 1e-12,
            "{}",
            T::NAME
        );
    }

    #[test]
    fn all_formats_satisfy_contract() {
        check_roundtrip::<f64>();
        check_roundtrip::<LogF64>();
        check_roundtrip::<HdrFloat>();
        check_roundtrip::<P64E6>();
        check_roundtrip::<P64E9>();
        check_roundtrip::<P64E12>();
        check_roundtrip::<P64E15>();
        check_roundtrip::<P64E18>();
        check_roundtrip::<P64E21>();
    }

    #[test]
    fn binary64_underflows_where_posit_does_not() {
        let tiny = BigFloat::pow2(-2_000);
        let f = <f64 as StatFloat>::from_bigfloat(&tiny);
        assert!(f.is_zero(), "binary64 underflows at 2^-2000");
        let p = <P64E12 as StatFloat>::from_bigfloat(&tiny);
        assert!(!p.is_zero(), "posit(64,12) holds 2^-2000");
        let l = <LogF64 as StatFloat>::from_bigfloat(&tiny);
        assert!(!l.is_zero(), "log-space holds 2^-2000");
    }

    #[test]
    fn hdr_holds_the_full_exponent_range() {
        // The whole point of the format: binary64 mantissa precision
        // at BigFloat range — 2^-2_900_000 is an ordinary value.
        let tiny = BigFloat::pow2(-2_900_000);
        let h = <HdrFloat as StatFloat>::from_bigfloat(&tiny);
        assert!(!h.is_zero());
        assert_eq!(StatFloat::exponent(&h), Some(-2_900_000));
        // ...and conversion is 53-bit rounding, so in-range values
        // round-trip through binary64 exactly.
        assert_eq!(
            <HdrFloat as StatFloat>::from_f64(0.3)
                .to_bigfloat()
                .to_f64(),
            0.3
        );
    }

    #[test]
    fn exponent_reporting() {
        let x = <P64E18 as StatFloat>::from_bigfloat(&BigFloat::pow2(-1_000_000));
        assert_eq!(x.exponent(), Some(-1_000_000));
        let l = <LogF64 as StatFloat>::from_bigfloat(&BigFloat::pow2(-1_000_000));
        let e = l.exponent().unwrap();
        assert!((e + 1_000_000).abs() <= 1);
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(
            paper_format_names(),
            [
                "binary64",
                "Log",
                "posit(64,9)",
                "posit(64,12)",
                "posit(64,18)"
            ]
        );
    }
}
