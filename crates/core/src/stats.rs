//! Summary statistics: box-plot five-number summaries (Figure 3/9) and
//! empirical CDFs (Figures 10/11).

/// The five-number summary drawn as one box in Figures 3 and 9:
/// whiskers at the 5th/95th percentiles, box at the 25th/75th, line at
/// the median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxStats {
    /// 5th percentile (lower whisker).
    pub p5: f64,
    /// 25th percentile (box bottom).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile (box top).
    pub p75: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
    /// Number of samples summarized.
    pub count: usize,
}

impl BoxStats {
    /// Summarizes a sample set. Non-finite samples are kept only at the
    /// extremes they sort to (NaNs are dropped).
    ///
    /// Returns `None` for an empty (or all-NaN) sample set.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<BoxStats> {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after filter"));
        Some(BoxStats {
            p5: percentile_sorted(&v, 0.05),
            p25: percentile_sorted(&v, 0.25),
            p50: percentile_sorted(&v, 0.50),
            p75: percentile_sorted(&v, 0.75),
            p95: percentile_sorted(&v, 0.95),
            count: v.len(),
        })
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
#[must_use]
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile out of [0,1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let w = pos - lo as f64;
    // Interpolating between an infinite and a finite sample stays at the
    // infinity only when weight demands it.
    let (a, b) = (sorted[lo], sorted[hi]);
    if a.is_infinite() || b.is_infinite() {
        return if w < 0.5 { a } else { b };
    }
    a + (b - a) * w
}

/// An empirical cumulative distribution function.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs dropped).
    #[must_use]
    pub fn new(samples: &[f64]) -> Cdf {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after filter"));
        Cdf { sorted }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (the cumulative probability the paper's
    /// CDF plots show on the y-axis).
    #[must_use]
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (inverse CDF).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` outside `[0,1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_stats_of_uniform_ramp() {
        let v: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let b = BoxStats::from_samples(&v).unwrap();
        assert_eq!(b.p5, 5.0);
        assert_eq!(b.p25, 25.0);
        assert_eq!(b.p50, 50.0);
        assert_eq!(b.p75, 75.0);
        assert_eq!(b.p95, 95.0);
        assert_eq!(b.count, 101);
    }

    #[test]
    fn box_stats_edge_cases() {
        assert!(BoxStats::from_samples(&[]).is_none());
        assert!(BoxStats::from_samples(&[f64::NAN]).is_none());
        let one = BoxStats::from_samples(&[3.5]).unwrap();
        assert_eq!(one.p5, 3.5);
        assert_eq!(one.p95, 3.5);
        // Infinities (exact measurements mapped to -inf) survive.
        let b = BoxStats::from_samples(&[f64::NEG_INFINITY, 1.0, 2.0]).unwrap();
        assert_eq!(b.p5, f64::NEG_INFINITY);
    }

    #[test]
    fn cdf_fractions() {
        let c = Cdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_at_most(0.0), 0.0);
        assert_eq!(c.fraction_at_most(2.0), 0.5);
        assert_eq!(c.fraction_at_most(10.0), 1.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 4.0);
        assert_eq!(c.len(), 4);
    }
}
