//! Alignment columns and the LoFreq-style variant caller.

use crate::pmf::{pbd_pvalue, pbd_pvalue_oracle};
use compstat_bigfloat::{BigFloat, Context};
use compstat_core::{error, StatFloat};

/// LoFreq's significance threshold: a column is a variant if its p-value
/// is below `2^-200` (Section V-A).
pub const CRITICAL_EXP: i64 = -200;

/// One genome-alignment column: `N` reads, each contributing an error
/// (success) probability derived from its quality score, and the
/// observed count `K` of non-reference bases.
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    /// Per-read success (sequencing-error) probabilities.
    pub success_probs: Vec<f64>,
    /// Observed variant count `K`.
    pub k: usize,
}

impl Column {
    /// Builds a column.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or `k > N`.
    #[must_use]
    pub fn new(success_probs: Vec<f64>, k: usize) -> Column {
        Column::try_new(success_probs, k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a column, returning the validation failure as a typed
    /// error instead of panicking — the constructor for untrusted
    /// (network) input.
    pub fn try_new(success_probs: Vec<f64>, k: usize) -> Result<Column, String> {
        if !success_probs.iter().all(|p| (0.0..=1.0).contains(p)) {
            return Err("success probabilities must be in [0,1]".into());
        }
        if k > success_probs.len() {
            return Err("K cannot exceed N".into());
        }
        Ok(Column { success_probs, k })
    }

    /// Number of reads `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.success_probs.len()
    }

    /// The oracle p-value.
    #[must_use]
    pub fn pvalue_oracle(&self, ctx: &Context) -> BigFloat {
        pbd_pvalue_oracle(&self.success_probs, self.k, ctx)
    }

    /// The p-value computed in format `T`.
    #[must_use]
    pub fn pvalue_in<T: StatFloat>(&self) -> T {
        pbd_pvalue::<T>(&self.success_probs, self.k)
    }
}

/// Outcome of calling one column in one format, compared to the oracle.
#[derive(Clone, Debug)]
pub struct CallOutcome {
    /// p-value in the evaluated format (as its exact represented value).
    pub pvalue: BigFloat,
    /// The format's variant decision (p < 2^-200).
    pub called_variant: bool,
    /// The oracle's decision.
    pub oracle_variant: bool,
    /// Relative error of the p-value against the oracle.
    pub error: error::ErrorMeasurement,
}

/// Calls a column in format `T` and scores it against the oracle — the
/// application-level accuracy measurement behind Figures 9 and 11.
#[must_use]
pub fn call_column<T: StatFloat>(column: &Column, ctx: &Context) -> CallOutcome {
    let oracle = column.pvalue_oracle(ctx);
    call_column_with_oracle::<T>(column, &oracle, ctx)
}

/// Same as [`call_column`] but reuses a precomputed oracle p-value
/// (the oracle pass dominates cost when scoring many formats).
#[must_use]
pub fn call_column_with_oracle<T: StatFloat>(
    column: &Column,
    oracle: &BigFloat,
    ctx: &Context,
) -> CallOutcome {
    let pv = column.pvalue_in::<T>();
    let pv_exact = pv.to_bigfloat();
    let threshold = BigFloat::pow2(CRITICAL_EXP);
    let called_variant = pv_exact < threshold;
    let oracle_variant = *oracle < threshold;
    let error = error::relative_error(oracle, &pv_exact, ctx);
    CallOutcome {
        pvalue: pv_exact,
        called_variant,
        oracle_variant,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_logspace::LogF64;
    use compstat_posit::P64E12;

    #[test]
    fn shallow_column_is_not_a_variant() {
        let ctx = Context::new(256);
        let col = Column::new(vec![0.4; 10], 2);
        let out = call_column::<f64>(&col, &ctx);
        assert!(!out.oracle_variant);
        assert!(!out.called_variant);
        assert!(out.error.log10_rel < -12.0);
    }

    #[test]
    fn deep_column_is_a_variant_and_f64_misses_nothing_at_threshold() {
        let ctx = Context::new(256);
        // ~45 tiny probabilities with k=30: p-value ~ 2^-900 (< 2^-200,
        // still within binary64 range).
        let probs: Vec<f64> = (0..45).map(|i| 2f64.powi(-30 - (i % 5))).collect();
        let col = Column::new(probs, 30);
        let oe = col.pvalue_oracle(&ctx).exponent().unwrap();
        assert!(oe < -600 && oe > -1_022, "exponent {oe}");
        for_called_all_formats(&col, &ctx, true);
    }

    #[test]
    fn beyond_f64_range_binary64_calls_spuriously() {
        let ctx = Context::new(256);
        // p-value below 2^-1074: binary64 underflows to zero, which reads
        // as "variant" (0 < 2^-200) — the catastrophic outcome the paper
        // warns about is the *opposite* in VICAR (convergence failure);
        // for LoFreq, underflow makes every deep column an apparent
        // variant with zero confidence granularity.
        let probs: Vec<f64> = (0..60).map(|_| 2f64.powi(-40)).collect();
        let col = Column::new(probs, 40);
        let out = call_column::<f64>(&col, &ctx);
        assert!(out.oracle_variant);
        assert!(out.called_variant);
        assert_eq!(out.error.class, compstat_core::ErrorClass::UnderflowToZero);
    }

    fn for_called_all_formats(col: &Column, ctx: &Context, want: bool) {
        assert_eq!(
            call_column::<f64>(col, ctx).called_variant,
            want,
            "binary64"
        );
        assert_eq!(call_column::<LogF64>(col, ctx).called_variant, want, "log");
        assert_eq!(
            call_column::<P64E12>(col, ctx).called_variant,
            want,
            "posit"
        );
    }

    #[test]
    #[should_panic(expected = "K cannot exceed N")]
    fn rejects_k_beyond_n() {
        let _ = Column::new(vec![0.5; 3], 4);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            Column::try_new(vec![0.5; 3], 4).unwrap_err(),
            "K cannot exceed N"
        );
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                Column::try_new(vec![bad], 0).unwrap_err(),
                "success probabilities must be in [0,1]"
            );
        }
        assert!(Column::try_new(vec![0.0, 1.0, 0.5], 3).is_ok());
    }

    #[test]
    fn empty_column_has_pvalue_one() {
        // Zero reads, zero observed variants: P(K >= 0) = 1 in every
        // format and in the oracle — pinned because the network path
        // can submit it.
        let ctx = Context::new(128);
        let col = Column::try_new(Vec::new(), 0).unwrap();
        assert_eq!(col.n(), 0);
        assert_eq!(col.pvalue_in::<f64>(), 1.0);
        let out = call_column::<f64>(&col, &ctx);
        assert!(!out.called_variant && !out.oracle_variant);
        assert_eq!(out.error.class, compstat_core::ErrorClass::Exact);
    }
}
