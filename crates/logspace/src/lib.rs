//! # compstat-logspace
//!
//! Log-space arithmetic over binary64 — the *standard practice* the paper
//! evaluates posits against (Section II-B).
//!
//! A probability `x` is stored as `ln x` in an `f64`. Multiplication
//! becomes addition; addition becomes the Log-Sum-Exp (LSE) dance of
//! Equations (2) and (3), which trades one floating-point add for a max,
//! subtractions, exponentials, an add and a logarithm — the cost the
//! paper quantifies in Table II and Figure 4.
//!
//! Two LSE variants are provided:
//!
//! * [`LogF64`]'s `+` operator uses `log1p`-fused software LSE (what
//!   Stan-style software does);
//! * [`LogF64::add_hw_dataflow`] evaluates the literal Equation (2)
//!   dataflow (max → sub → exp → add → log), each step rounded to
//!   binary64 — the operation the paper's log-space accelerator PEs
//!   implement. The difference between the two is itself an ablation in
//!   the benchmark suite.
//!
//! # Examples
//!
//! The paper's motivating example — adding `e^-1000 + e^-999`-scale
//! quantities whose linear values underflow `exp`:
//!
//! ```
//! use compstat_logspace::LogF64;
//!
//! let x = LogF64::from_ln(-1000.0); // e^-1000: exp() would underflow
//! let y = LogF64::from_ln(-999.0);
//! let s = x + y;                    // LSE keeps it finite
//! assert!((s.ln_value() - (-998.686738)).abs() < 1e-5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use compstat_bigfloat::{BigFloat, Context, Kind, Sign};
use core::fmt;

/// A non-negative real number represented by its natural logarithm in
/// binary64.
///
/// Zero is `ln = -inf`. The effective dynamic range is
/// `exp(±f64::MAX)` — "effectively infinite" as the paper puts it — but
/// the *precision* of the represented value degrades as `|ln x|` grows,
/// which is exactly the trade-off the paper quantifies.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct LogF64 {
    ln: f64,
}

impl LogF64 {
    /// Exact zero (`ln = -inf`).
    pub const ZERO: LogF64 = LogF64 {
        ln: f64::NEG_INFINITY,
    };

    /// One (`ln = 0`).
    pub const ONE: LogF64 = LogF64 { ln: 0.0 };

    /// Wraps a natural logarithm directly (the paper's `ln_A`, `ln_B`
    /// precomputed matrices are built this way).
    #[must_use]
    pub fn from_ln(ln: f64) -> LogF64 {
        LogF64 { ln }
    }

    /// Converts a non-negative `f64` into log-space.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or NaN: a `LogF64` has no sign.
    #[must_use]
    pub fn from_f64(x: f64) -> LogF64 {
        assert!(x >= 0.0, "LogF64 represents non-negative reals, got {x}");
        LogF64 { ln: x.ln() }
    }

    /// The stored natural logarithm.
    #[must_use]
    pub fn ln_value(self) -> f64 {
        self.ln
    }

    /// The represented value as `f64` (`exp(ln)`), which may underflow to
    /// zero or overflow to infinity — the very failure mode log-space
    /// storage exists to avoid; prefer [`LogF64::to_bigfloat`] for
    /// measurement.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.ln.exp()
    }

    /// True if this represents zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.ln == f64::NEG_INFINITY
    }

    /// True if the value is valid (not NaN).
    #[must_use]
    pub fn is_valid(self) -> bool {
        !self.ln.is_nan()
    }

    /// The represented real value, evaluated exactly (to `ctx` precision)
    /// in the BigFloat oracle: `exp(ln)` with `ln` taken as an exact
    /// binary64 value.
    #[must_use]
    pub fn to_bigfloat(self, ctx: &Context) -> BigFloat {
        if self.is_zero() {
            return BigFloat::zero();
        }
        ctx.exp(&BigFloat::from_f64(self.ln))
    }

    /// Rounds an exact real (BigFloat) into log-space: `ln x` computed at
    /// high precision, then rounded to binary64 — the paper's
    /// "operands are transformed into log-space in MPFR" step.
    ///
    /// Negative values map to an invalid (NaN) entry; infinity maps to
    /// `ln = +inf`.
    #[must_use]
    pub fn from_bigfloat(x: &BigFloat, ctx: &Context) -> LogF64 {
        match x.kind() {
            Kind::Zero => LogF64::ZERO,
            Kind::Nan => LogF64 { ln: f64::NAN },
            Kind::Inf => {
                if x.sign() == Sign::Neg {
                    LogF64 { ln: f64::NAN }
                } else {
                    LogF64 { ln: f64::INFINITY }
                }
            }
            Kind::Normal => {
                if x.sign() == Sign::Neg {
                    LogF64 { ln: f64::NAN }
                } else {
                    LogF64 {
                        ln: ctx.ln(x).to_f64(),
                    }
                }
            }
        }
    }

    /// Log-space addition via the literal Equation (2) dataflow:
    /// `m + log(exp(lx-m) + exp(ly-m))` with every intermediate rounded
    /// to binary64. This is what the paper's log-space accelerator PE
    /// computes (Figure 4a).
    #[must_use]
    pub fn add_hw_dataflow(self, other: LogF64) -> LogF64 {
        let (m, d) = if self.ln >= other.ln {
            (self.ln, other.ln)
        } else {
            (other.ln, self.ln)
        };
        if m == f64::NEG_INFINITY {
            return LogF64::ZERO; // 0 + 0
        }
        // exp(lx - m) == exp(0) == 1 exactly, in hardware too.
        let t = (d - m).exp();
        LogF64 {
            ln: m + (1.0 + t).ln(),
        }
    }
}

impl core::ops::Add for LogF64 {
    type Output = LogF64;

    /// Software LSE: `m + log1p(exp(d))`, the numerically recommended
    /// form (Stan, HMM tutorials).
    fn add(self, other: LogF64) -> LogF64 {
        let (m, d) = if self.ln >= other.ln {
            (self.ln, other.ln)
        } else {
            (other.ln, self.ln)
        };
        if m == f64::NEG_INFINITY {
            return LogF64::ZERO;
        }
        if d == f64::NEG_INFINITY {
            return LogF64 { ln: m };
        }
        LogF64 {
            ln: m + (d - m).exp().ln_1p(),
        }
    }
}

impl core::ops::Mul for LogF64 {
    type Output = LogF64;

    /// Multiplication is the cheap operation in log-space (Table II:
    /// "Log mul" is just a binary64 add).
    fn mul(self, other: LogF64) -> LogF64 {
        if self.is_zero() || other.is_zero() {
            // Avoid -inf + inf = NaN when the other side overflowed.
            return LogF64::ZERO;
        }
        LogF64 {
            ln: self.ln + other.ln,
        }
    }
}

impl core::ops::Div for LogF64 {
    type Output = LogF64;

    /// Division (log subtraction). Division by zero yields an invalid
    /// (NaN) entry.
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "in the log domain, division really is subtraction of logarithms"
    )]
    fn div(self, other: LogF64) -> LogF64 {
        if other.is_zero() {
            return LogF64 { ln: f64::NAN };
        }
        if self.is_zero() {
            return LogF64::ZERO;
        }
        LogF64 {
            ln: self.ln - other.ln,
        }
    }
}

impl core::ops::AddAssign for LogF64 {
    fn add_assign(&mut self, rhs: LogF64) {
        *self = *self + rhs;
    }
}

impl core::ops::MulAssign for LogF64 {
    fn mul_assign(&mut self, rhs: LogF64) {
        *self = *self * rhs;
    }
}

impl Default for LogF64 {
    fn default() -> Self {
        LogF64::ZERO
    }
}

impl fmt::Debug for LogF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogF64(ln={})", self.ln)
    }
}

impl fmt::Display for LogF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            write!(f, "0")
        } else if self.ln.abs() < 700.0 {
            write!(f, "{}", self.ln.exp())
        } else {
            write!(f, "exp({})", self.ln)
        }
    }
}

/// N-ary Log-Sum-Exp over log-values — Equation (3), the reduction at
/// the heart of the forward algorithm's log-space inner loop (Listing
/// 3's `LSE(terms)`).
///
/// Two passes (the maximum, then the scaled sum) read the terms, so the
/// iterator must be `Clone`; a lazy iterator needs no buffer. Returns
/// [`LogF64::ZERO`] for no terms or all-zero inputs.
#[must_use]
pub fn log_sum_exp<I>(terms: I) -> LogF64
where
    I: IntoIterator<Item = LogF64>,
    I::IntoIter: Clone,
{
    let terms = terms.into_iter();
    let m = terms.clone().fold(f64::NEG_INFINITY, |m, t| m.max(t.ln));
    if m == f64::NEG_INFINITY {
        return LogF64::ZERO;
    }
    let sum: f64 = terms.map(|t| (t.ln - m).exp()).sum();
    LogF64::from_ln(m + sum.ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(LogF64::ZERO.is_zero());
        assert_eq!(LogF64::ONE.to_f64(), 1.0);
        assert_eq!((LogF64::ZERO + LogF64::ONE).to_f64(), 1.0);
        assert_eq!((LogF64::ZERO * LogF64::ONE).to_f64(), 0.0);
    }

    #[test]
    fn mul_is_log_add() {
        let a = LogF64::from_f64(0.25);
        let b = LogF64::from_f64(0.5);
        assert!((a * b).ln_value() - 0.125f64.ln() < 1e-15);
    }

    #[test]
    fn add_within_f64_range_matches_linear() {
        let a = LogF64::from_f64(0.3);
        let b = LogF64::from_f64(0.4);
        assert!(((a + b).to_f64() - 0.7).abs() < 1e-14);
        assert!((a.add_hw_dataflow(b).to_f64() - 0.7).abs() < 1e-14);
    }

    #[test]
    fn paper_example_lse_survives_underflow() {
        // Section II-B: lx = -1000, ly = -999. Naive exp underflows; LSE
        // computes ln(e^-1000 + e^-999) = -999 + ln(1 + e^-1) correctly.
        let x = LogF64::from_ln(-1000.0);
        let y = LogF64::from_ln(-999.0);
        let want = -999.0 + (1.0 + (-1.0f64).exp()).ln();
        assert!((x + y).ln_value() - want < 1e-12);
        assert!((x.add_hw_dataflow(y)).ln_value() - want < 1e-12);
        assert_eq!((x + y).ln_value(), (y + x).ln_value());
    }

    #[test]
    fn extreme_small_probabilities_representable() {
        // ln(2^-2_900_000) ~ -2_010_126.8: trivially representable.
        let lx = -2_010_126.824;
        let x = LogF64::from_ln(lx);
        assert!(!x.is_zero());
        let sq = x * x;
        assert_eq!(sq.ln_value(), lx + lx);
    }

    #[test]
    fn n_ary_lse_matches_pairwise() {
        let terms: Vec<LogF64> = [-5.0, -3.0, -4.0, -10.0]
            .iter()
            .map(|&l| LogF64::from_ln(l))
            .collect();
        let nary = log_sum_exp(terms.iter().copied());
        let pair = ((terms[0] + terms[1]) + terms[2]) + terms[3];
        assert!((nary.ln_value() - pair.ln_value()).abs() < 1e-12);
        assert!(log_sum_exp([]).is_zero());
        assert!(log_sum_exp([LogF64::ZERO, LogF64::ZERO]).is_zero());
    }

    #[test]
    fn bigfloat_measurement_round_trip() {
        let ctx = Context::new(192);
        let x = LogF64::from_ln(-123_456.789);
        let bf = x.to_bigfloat(&ctx);
        let back = LogF64::from_bigfloat(&bf, &ctx);
        assert_eq!(back.ln_value(), x.ln_value());
    }

    #[test]
    fn from_bigfloat_of_tiny_probability() {
        // ln(2^-120_000) ~ -83177.66 (paper, Section II-B).
        let ctx = Context::new(192);
        let x = BigFloat::pow2(-120_000);
        let l = LogF64::from_bigfloat(&x, &ctx);
        assert!((l.ln_value() + 83_177.66).abs() < 0.01);
    }

    #[test]
    fn zero_times_anything_is_zero() {
        let big = LogF64::from_ln(f64::MAX / 2.0);
        assert!((LogF64::ZERO * big).is_zero());
        assert!((big * LogF64::ZERO).is_zero());
    }

    #[test]
    fn div_by_zero_is_invalid() {
        let a = LogF64::from_f64(0.5);
        assert!(!(a / LogF64::ZERO).is_valid());
        assert!((LogF64::ZERO / a).is_zero());
    }

    #[test]
    fn ordering_by_ln() {
        assert!(LogF64::from_ln(-5.0) < LogF64::from_ln(-4.0));
        assert!(LogF64::ZERO < LogF64::from_ln(-1e300));
    }
}
