//! Synthetic SARS-CoV-2-style datasets.
//!
//! The paper evaluates column units on eight real SARS-CoV-2 datasets
//! (222,131 columns total, average N = 309,189, p-values spanning
//! `2^-434_916` to 1, with 16,205 "critical" columns below `2^-200`).
//! Real alignment data is not available here, so two seeded synthetic
//! corpora stand in (see "Substitutions" in the repository README):
//!
//! * [`accuracy_corpus`] — *scaled-down* columns whose p-values span all
//!   of Figure 9's magnitude buckets, for numerical-accuracy experiments
//!   (the recurrence is executed in software, so N is kept small while
//!   per-trial probabilities are made smaller to reach the same p-value
//!   magnitudes);
//! * [`perf_datasets`] / [`perf_dataset`] — full-size (N, K)
//!   *descriptors* for D0..D7, fed to the FPGA timing model exactly as
//!   the paper's datasets were fed to the accelerator (no software
//!   execution of 10^13 operations is needed to predict cycles).

use crate::column::Column;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A column described only by its loop bounds — all the FPGA timing
/// model needs (cycles depend on N and K, not on the probability values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnDims {
    /// Reads in the column (outer loop bound).
    pub n: u64,
    /// Observed variant count (inner loop bound / pipeline fill).
    pub k: u64,
}

/// A performance dataset: a bag of column dimensions.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Name ("D0".."D7").
    pub name: String,
    /// Column dimensions.
    pub columns: Vec<ColumnDims>,
}

impl DatasetSpec {
    /// Total multiply-and-add operations `sum(N_i * K_i)` — the paper's
    /// MMAPS numerator ("each dataset has about 10^13 multiply-and-add
    /// operations").
    #[must_use]
    pub fn total_ops(&self) -> u128 {
        self.columns.iter().map(|c| c.n as u128 * c.k as u128).sum()
    }

    /// Number of columns.
    #[must_use]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Mean N across columns.
    #[must_use]
    #[expect(
        clippy::cast_precision_loss,
        reason = "N is clamped to <= 1,500,000 at synthesis and the column count is a Vec length, both far below 2^53"
    )]
    pub fn mean_n(&self) -> f64 {
        if self.columns.is_empty() {
            return 0.0;
        }
        self.columns.iter().map(|c| c.n as f64).sum::<f64>() / self.columns.len() as f64
    }
}

/// Number of performance datasets (D0..D7).
pub const PERF_DATASET_COUNT: usize = 8;

/// Target posit-unit seconds per dataset, shaped like Figure 7(a).
const PERF_TARGET_SECONDS: [f64; PERF_DATASET_COUNT] = [
    2_269.0, 3_190.0, 6_103.0, 3_217.0, 6_322.0, 7_454.0, 8_355.0, 24_010.0,
];

/// Mean K per dataset: the per-column posit improvement is 43/(K+73),
/// so K in [100, 800] spans Figure 7(b)'s 5-25% range.
const PERF_MEAN_K: [f64; PERF_DATASET_COUNT] =
    [100.0, 140.0, 300.0, 180.0, 350.0, 450.0, 600.0, 800.0];

/// Synthesizes the eight performance datasets D0..D7:
/// [`perf_dataset`] for each index, in order.
#[must_use]
pub fn perf_datasets() -> Vec<DatasetSpec> {
    (0..PERF_DATASET_COUNT).map(perf_dataset).collect()
}

/// Synthesizes performance dataset `D{index}` on its own seed, so any
/// subset of the eight can be built independently (and in parallel).
///
/// Each dataset's total work is tuned so the *posit column unit* model
/// predicts wall-clock times spanning the paper's Figure 7 range
/// (~2,300 s to ~24,000 s at 300 MHz with 8 PEs); N is lognormal around
/// the paper's average 309,189 and K is spread widely ("N and K are
/// diversely distributed").
///
/// # Panics
///
/// Panics if `index >= PERF_DATASET_COUNT`.
#[must_use]
pub fn perf_dataset(index: usize) -> DatasetSpec {
    synth_dataset(index, PERF_TARGET_SECONDS[index], PERF_MEAN_K[index])
}

#[expect(
    clippy::cast_precision_loss,
    reason = "n <= 1.5e6 and k <= 3e4 (the clamps below), both f64-exact"
)]
fn synth_dataset(index: usize, target_posit_seconds: f64, mean_k: f64) -> DatasetSpec {
    const CLOCK_HZ: f64 = 300.0e6;
    const PES: f64 = 8.0;
    const POSIT_PE_LATENCY: f64 = 30.0;
    let mut rng = StdRng::seed_from_u64(0xD0 + index as u64);
    let budget_cycles = target_posit_seconds * CLOCK_HZ * PES;
    let mut columns = Vec::new();
    let mut used = 0.0;
    while used < budget_cycles {
        // N: lognormal around 309,189 (sigma ~ 0.35).
        let z = normal(&mut rng);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "clamped to [1e4, 1.5e6]; the truncation is the intended integer draw and the range is f64-exact"
        )]
        let n = (309_189.0 * (0.35 * z).exp()).clamp(10_000.0, 1_500_000.0) as u64;
        // K: exponential around the dataset's mean, at least 10.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "clamped to [10, 30_000]; truncation is the intended integer draw"
        )]
        let k = ((-u.ln()) * mean_k).clamp(10.0, 30_000.0) as u64;
        used += n as f64 * (k as f64 + POSIT_PE_LATENCY);
        columns.push(ColumnDims { n, k });
    }
    DatasetSpec {
        name: format!("D{index}"),
        columns,
    }
}

fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

/// Synthesizes the accuracy corpus: `count` scaled-down columns whose
/// oracle p-values span Figure 9's buckets from `2^-440_000` up to 1.
///
/// The mix follows the paper's reported distribution: ~7% critical
/// columns (p < 2^-200), of which ~40% lie below binary64's range and
/// ~5% below `2^-10_000`, with a deep tail to ~`2^-434_916`.
#[must_use]
pub fn accuracy_corpus(seed: u64, count: usize) -> Vec<Column> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let r: f64 = rng.gen();
        // Target p-value exponent tiers (matching the reported shares of
        // the 222,131-column corpus).
        let target_exp: f64 = if r < 0.5 {
            // Non-critical: [-200, 0).
            -rng.gen_range(0.0..200.0)
        } else if r < 0.93 {
            // Critical but within binary64 range: [-1022, -200).
            -rng.gen_range(200.0..1_022.0)
        } else if r < 0.966 {
            // Below binary64, above 2^-10_000.
            -rng.gen_range(1_022.0..10_000.0)
        } else if r < 0.985 {
            // Deep: 2^-10_000 .. 2^-100_000.
            -rng.gen_range(10_000.0..100_000.0)
        } else {
            // Extreme tail: down to ~2^-440_000 (over-weighted slightly
            // relative to the paper's corpus so the deepest Figure 9
            // bucket is populated even at reduced scale).
            -rng.gen_range(100_000.0..440_000.0)
        };
        out.push(column_with_target_exponent(&mut rng, target_exp));
    }
    out
}

/// Builds one column whose p-value has roughly the requested base-2
/// exponent: `K` crossings, each contributing `target_exp / K` bits.
fn column_with_target_exponent<R: Rng + ?Sized>(rng: &mut R, target_exp: f64) -> Column {
    if target_exp >= -2.0 {
        // Near-certain columns: moderate probabilities, tiny K.
        let n = rng.gen_range(20..60);
        let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.3)).collect();
        return Column::new(probs, 1.max(n / 20));
    }
    // Choose K so per-trial log2 p stays in a representable band
    // [-380, -1] (f64-exact inputs): realistic K for shallow columns,
    // large K with very deep per-trial probabilities for the extreme
    // tail (2^-100k .. 2^-440k needs K ~ target/350).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "deep tail: ceil() makes the value integral and target_exp >= -440_000 bounds it near 1_467; \
                  shallow: bounded in [8, 120), truncation is the intended integer draw"
    )]
    let k = if target_exp < -40_000.0 {
        ((-target_exp) / rng.gen_range(300.0..370.0)).ceil() as usize
    } else {
        let k_max = ((-target_exp) / 3.0).floor().max(2.0);
        rng.gen_range(8.0..120.0_f64.min(k_max).max(9.0)) as usize
    };
    #[expect(
        clippy::cast_precision_loss,
        reason = "k <= ~1_467 by construction, exactly representable in f64"
    )]
    let per_trial = (target_exp / k as f64).clamp(-380.0, -1.0);
    // N: a few times K (the tail mass is dominated by the K-success
    // paths; extra trials mostly add combinatorial slack).
    let n = k + rng.gen_range(k / 2..k * 2 + 4);
    let probs: Vec<f64> = (0..n)
        .map(|_| {
            let jitter = rng.gen_range(-0.5..0.5);
            // exp2, not 2f64.powf(..): LLVM rewrites pow(2, x) to
            // exp2(x) only at opt-level > 0, and the two differ by an
            // ulp for some operands — calling exp2 directly keeps the
            // corpus bit-identical across debug and release builds
            // (the golden-value tests pin both).
            f64::exp2(per_trial + jitter)
        })
        .collect();
    Column::new(probs, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_bigfloat::Context;

    #[test]
    fn perf_datasets_match_paper_statistics() {
        let ds = perf_datasets();
        assert_eq!(ds.len(), 8);
        for d in &ds {
            // Average N near the paper's 309,189 (within 15%).
            let mean_n = d.mean_n();
            assert!(
                (mean_n - 309_189.0).abs() < 0.15 * 309_189.0,
                "{}: mean N {mean_n}",
                d.name
            );
            assert!(
                d.num_columns() > 1_000,
                "{}: {} columns",
                d.name,
                d.num_columns()
            );
        }
        // Total ops about 10^12..10^14 per dataset ("about 10^13").
        for d in &ds {
            let ops = d.total_ops() as f64;
            assert!(ops > 1e12 && ops < 1e14, "{}: {ops:.2e} ops", d.name);
        }
        // Deterministic: same seed, same data.
        let again = perf_datasets();
        assert_eq!(ds[3].columns, again[3].columns);
    }

    #[test]
    fn accuracy_corpus_spans_the_buckets() {
        let cols = accuracy_corpus(99, 60);
        assert_eq!(cols.len(), 60);
        let ctx = Context::new(256);
        let mut exps = Vec::new();
        for c in &cols {
            // Keep the test quick: only evaluate the cheap columns here.
            if c.n() * c.k < 20_000 {
                if let Some(e) = c.pvalue_oracle(&ctx).exponent() {
                    exps.push(e);
                }
            }
        }
        assert!(exps.len() > 20);
        let shallow = exps.iter().filter(|&&e| e >= -200).count();
        let critical = exps.iter().filter(|&&e| e < -200).count();
        assert!(shallow > 0, "need non-critical columns");
        assert!(critical > 0, "need critical columns");
    }

    #[test]
    fn deep_column_hits_target_magnitude() {
        let mut rng = StdRng::seed_from_u64(5);
        let ctx = Context::new(256);
        let col = column_with_target_exponent(&mut rng, -30_000.0);
        let e = col.pvalue_oracle(&ctx).exponent().unwrap();
        // Within a factor of ~2 in exponent (combinatorial slack).
        assert!(e < -15_000 && e > -60_000, "exponent {e}");
    }
}
