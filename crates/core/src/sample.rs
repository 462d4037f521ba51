//! Workload samplers: operands for the arithmetic accuracy study and
//! probability distributions (Gamma/Dirichlet) for synthetic HMM inputs.
//!
//! Gamma and Dirichlet sampling are implemented in-tree (Marsaglia-Tsang)
//! because the allowed dependency set has no `rand_distr`.

use compstat_bigfloat::{BigFloat, Context, Sign};
use rand::Rng;

/// Draws a value uniformly from the binade `[2^exp, 2^(exp+1))` with a
/// 128-bit random mantissa (exact in BigFloat).
pub fn uniform_in_binade<R: Rng + ?Sized>(rng: &mut R, exp: i64) -> BigFloat {
    let hi: u64 = rng.gen::<u64>() | (1 << 63); // top bit set
    let lo: u64 = rng.gen();
    let sig = ((hi as u128) << 64) | lo as u128;
    BigFloat::from_scaled_u128(Sign::Pos, sig, exp)
}

/// An operand pair together with its exact result under some operation.
#[derive(Clone, Debug)]
pub struct SampledOp {
    /// First operand (exact).
    pub a: BigFloat,
    /// Second operand (exact).
    pub b: BigFloat,
    /// The exact (256-bit) result of the operation.
    pub exact: BigFloat,
}

/// Generates addition operand pairs whose exact sums range over
/// `[2^lo_exp, 2^0]`, mirroring Figure 3(a)'s corpus: the larger operand
/// determines the result binade; the smaller sits up to `max_gap` binades
/// below it so that alignment distances are exercised.
pub fn sample_additions<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    lo_exp: i64,
    hi_exp: i64,
    max_gap: i64,
    ctx: &Context,
) -> Vec<SampledOp> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let ea = rng.gen_range(lo_exp..hi_exp);
        let gap = rng.gen_range(0..=max_gap);
        let eb = ea - gap;
        let a = uniform_in_binade(rng, ea);
        let b = uniform_in_binade(rng, eb);
        let exact = ctx.add(&a, &b);
        out.push(SampledOp { a, b, exact });
    }
    out
}

/// Generates multiplication operand pairs whose exact products range over
/// `[2^lo_exp, 2^0]` (Figure 3(b)'s corpus). Both factors are
/// probabilities (`<= 1`), as in the motivating applications.
pub fn sample_multiplications<R: Rng + ?Sized>(
    rng: &mut R,
    count: usize,
    lo_exp: i64,
    hi_exp: i64,
    ctx: &Context,
) -> Vec<SampledOp> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        // Target product exponent, then split it between the two factors:
        // ep = ea + eb with both factors <= 1 (ea, eb <= 0).
        let ep = rng.gen_range(lo_exp..hi_exp);
        let ea = rng.gen_range(ep..=0);
        let eb = ep - ea;
        let a = uniform_in_binade(rng, ea.min(0));
        let b = uniform_in_binade(rng, eb.min(0));
        let exact = ctx.mul(&a, &b);
        out.push(SampledOp { a, b, exact });
    }
    out
}

/// Standard Gamma(alpha, 1) sampler (Marsaglia-Tsang for `alpha >= 1`,
/// with the boost transform for `alpha < 1`).
///
/// # Panics
///
/// Panics if `alpha <= 0`.
#[expect(
    clippy::disallowed_methods,
    reason = "the boost transform raises U to 1/alpha; the base is never 2, so no exp2 rewrite applies"
)]
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, alpha: f64) -> f64 {
    assert!(alpha > 0.0, "gamma shape must be positive");
    if alpha < 1.0 {
        // Gamma(a) = Gamma(a+1) * U^(1/a).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma(rng, alpha + 1.0) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box-Muller.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Samples a probability vector from a symmetric Dirichlet(alpha)
/// distribution — how the paper synthesizes HMM transition and emission
/// matrices ("A and B are synthesized from the Dirichlet distribution").
///
/// # Panics
///
/// Panics if `dim == 0` or `alpha <= 0`.
pub fn dirichlet<R: Rng + ?Sized>(rng: &mut R, alpha: f64, dim: usize) -> Vec<f64> {
    assert!(dim > 0, "dirichlet dimension must be positive");
    let mut draws: Vec<f64> = (0..dim).map(|_| gamma(rng, alpha)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 {
        // Astronomically unlikely; fall back to uniform.
        return vec![1.0 / dim as f64; dim];
    }
    for d in &mut draws {
        *d /= sum;
    }
    draws
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn binade_sampling_stays_in_binade() {
        let mut r = rng();
        for _ in 0..100 {
            let x = uniform_in_binade(&mut r, -5_000);
            assert_eq!(x.exponent(), Some(-5_000));
        }
    }

    #[test]
    fn sampled_additions_have_consistent_exact_results() {
        let ctx = Context::new(256);
        let mut r = rng();
        let ops = sample_additions(&mut r, 50, -10_000, 0, 60, &ctx);
        for op in &ops {
            let recomputed = ctx.add(&op.a, &op.b);
            assert!(recomputed == op.exact);
            // Sum exponent is near the larger operand's.
            let ea = op.a.exponent().unwrap();
            let es = op.exact.exponent().unwrap();
            assert!((es - ea).abs() <= 1);
        }
    }

    #[test]
    fn sampled_multiplications_are_products_of_probabilities() {
        let ctx = Context::new(256);
        let mut r = rng();
        let ops = sample_multiplications(&mut r, 50, -10_000, 0, &ctx);
        for op in &ops {
            assert!(op.a.exponent().unwrap() <= 0);
            assert!(op.b.exponent().unwrap() <= 0);
            let e = op.exact.exponent().unwrap();
            assert!((-10_002..=1).contains(&e), "exponent {e}");
        }
    }

    #[test]
    fn gamma_moments_are_plausible() {
        let mut r = rng();
        for alpha in [0.5, 1.0, 2.0, 5.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| gamma(&mut r, alpha)).sum::<f64>() / n as f64;
            assert!(
                (mean - alpha).abs() < 0.1 * alpha.max(1.0),
                "alpha={alpha} mean={mean}"
            );
        }
    }

    #[test]
    fn dirichlet_sums_to_one_and_is_positive() {
        let mut r = rng();
        for _ in 0..50 {
            let v = dirichlet(&mut r, 0.8, 16);
            let s: f64 = v.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(v.iter().all(|&p| p > 0.0));
        }
    }
}
