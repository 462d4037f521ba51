//! Format metadata: the quantities tabulated in Table I of the paper.

/// Static properties of a `posit(N, ES)` configuration.
///
/// Reproduces the columns of Table I: `useed`, the smallest representable
/// positive number, and the maximum number of fraction bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FormatInfo {
    n: u32,
    es: u32,
}

impl FormatInfo {
    /// Metadata for `posit(n, es)`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is outside `3 <= n <= 64`, `es <= 30`.
    #[must_use]
    pub fn new(n: u32, es: u32) -> FormatInfo {
        assert!(
            (3..=64).contains(&n) && es <= 30,
            "posit config out of range"
        );
        FormatInfo { n, es }
    }

    /// Total bit width `N`.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Maximum exponent field width `ES`.
    #[must_use]
    pub fn es(&self) -> u32 {
        self.es
    }

    /// `log2(useed) = 2^ES` — `useed` itself overflows any integer type
    /// for large `ES`, so Table I's `useed` column is reported as a power
    /// of two.
    #[must_use]
    pub fn useed_log2(&self) -> i64 {
        1i64 << self.es
    }

    /// Base-2 exponent of the smallest representable positive number:
    /// `-(N-2) * 2^ES` (Table I column 3).
    #[must_use]
    pub fn min_positive_exp(&self) -> i64 {
        -((self.n as i64 - 2) << self.es)
    }

    /// Base-2 exponent of the largest representable number.
    #[must_use]
    pub fn max_exp(&self) -> i64 {
        (self.n as i64 - 2) << self.es
    }

    /// Maximum number of fraction bits: `N - 3 - ES` (sign + minimal
    /// 2-bit regime + exponent field leave the rest for fraction;
    /// Table I column 4).
    #[must_use]
    pub fn max_fraction_bits(&self) -> u32 {
        (self.n - 3).saturating_sub(self.es)
    }

    /// Fraction bits available for a value with the given binary scale:
    /// `N - 1 - regime_len - ES`, clamped at zero. This is the quantity
    /// behind the paper's observation that posit(64,6) keeps only 24
    /// fraction bits at `2^-2048` while posit(64,9) keeps 49.
    #[must_use]
    pub fn fraction_bits_at_scale(&self, scale: i64) -> u32 {
        let k = scale.div_euclid(1 << self.es);
        let run = if k >= 0 { k + 1 } else { -k };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "run >= 1 and the min caps at n - 1, so the length is in 2..=63"
        )]
        let regime_len = (run + 1).min(self.n as i64 - 1) as u32;
        (self.n - 1)
            .saturating_sub(regime_len)
            .saturating_sub(self.es)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_rows() {
        // (es, smallest positive exp, max fraction bits) from Table I.
        let rows = [
            (6u32, -3_968i64, 55u32),
            (9, -31_744, 52),
            (12, -253_952, 49),
            (15, -2_031_616, 46),
            (18, -16_252_928, 43),
            (21, -130_023_424, 40),
        ];
        for (es, min_exp, frac) in rows {
            let info = FormatInfo::new(64, es);
            assert_eq!(info.min_positive_exp(), min_exp, "posit(64,{es})");
            assert_eq!(info.max_fraction_bits(), frac, "posit(64,{es})");
            assert_eq!(info.useed_log2(), 1i64 << es);
        }
    }

    #[test]
    fn paper_regime_example() {
        // Section III: to encode 2^-2048, posit(64,6) needs 33 regime bits
        // (k = -32) leaving 24 fraction bits; posit(64,9) needs 5 leaving
        // 49.
        let p646 = FormatInfo::new(64, 6);
        assert_eq!(p646.fraction_bits_at_scale(-2048), 63 - 33 - 6); // 24
        let p649 = FormatInfo::new(64, 9);
        assert_eq!(p649.fraction_bits_at_scale(-2048), 63 - 5 - 9); // 49
    }

    #[test]
    fn fraction_bits_clamp_to_zero_near_range_edge() {
        let info = FormatInfo::new(64, 9);
        assert_eq!(info.fraction_bits_at_scale(info.min_positive_exp()), 0);
        assert_eq!(info.fraction_bits_at_scale(info.max_exp() - 1), 0);
        // Near 1.0 the full fraction is available.
        assert_eq!(info.fraction_bits_at_scale(0), 52);
    }
}
