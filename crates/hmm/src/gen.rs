//! Synthetic HMM generators: the Dirichlet-sampled models of the paper's
//! synthetic datasets and an "HCG-like" preset whose likelihood decays at
//! the rate observed on Human-Chimp-Gorilla genome data.

use crate::model::Hmm;
use compstat_core::sample::dirichlet;
use rand::Rng;

/// Synthesizes an HMM with `h` states and `m` symbols: every row of `A`
/// and `B` (and `pi`) is drawn from a symmetric Dirichlet(`alpha`) —
/// "A and B are synthesized from the Dirichlet distribution" (Section
/// VI-A).
pub fn dirichlet_hmm<R: Rng + ?Sized>(rng: &mut R, h: usize, m: usize, alpha: f64) -> Hmm {
    let mut a = Vec::with_capacity(h * h);
    let mut b = Vec::with_capacity(h * m);
    for _ in 0..h {
        a.extend(dirichlet(rng, alpha, h));
        b.extend(dirichlet(rng, alpha, m));
    }
    let pi = dirichlet(rng, alpha, h);
    Hmm::new(h, m, a, b, pi)
}

/// Uniformly sampled observation sequence ("O is universally sampled").
pub fn uniform_observations<R: Rng + ?Sized>(rng: &mut R, m: usize, t: usize) -> Vec<usize> {
    (0..t).map(|_| rng.gen_range(0..m)).collect()
}

/// Samples an observation sequence *from the model itself* (ancestral
/// sampling) — useful when the likelihood should reflect a plausible
/// sequence rather than noise.
pub fn model_observations<R: Rng + ?Sized>(rng: &mut R, hmm: &Hmm, t: usize) -> Vec<usize> {
    let mut obs = Vec::with_capacity(t);
    if t == 0 {
        return obs;
    }
    let mut state = sample_categorical(rng, (0..hmm.num_states()).map(|i| hmm.pi(i)));
    for _ in 0..t {
        obs.push(sample_categorical(
            rng,
            (0..hmm.num_symbols()).map(|o| hmm.b(state, o)),
        ));
        state = sample_categorical(rng, (0..hmm.num_states()).map(|j| hmm.a(state, j)));
    }
    obs
}

fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, probs: impl Iterator<Item = f64>) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    let mut last = 0;
    for (i, p) in probs.enumerate() {
        acc += p;
        last = i;
        if u < acc {
            return i;
        }
    }
    last
}

/// An "HCG-like" model: `h` states over a 56-symbol alphabet with
/// near-uniform emissions, so the per-site likelihood decay is
/// `log2(56) ~ 5.81` bits — matching the paper's observation that
/// 500,000 HCG sites yield likelihoods near `2^-2_900_000`
/// (5.8 bits/site). The transition structure is sticky (phylogenetic
/// hidden states persist across sites).
#[expect(
    clippy::cast_precision_loss,
    reason = "h is the hidden-state count (paper uses 2..=64), exactly representable in f64"
)]
pub fn hcg_like<R: Rng + ?Sized>(rng: &mut R, h: usize) -> Hmm {
    let m = 56;
    let mut a = vec![0.0; h * h];
    for i in 0..h {
        for j in 0..h {
            a[i * h + j] = if i == j {
                0.9
            } else if h > 1 {
                0.1 / (h - 1) as f64
            } else {
                0.0
            };
        }
        if h == 1 {
            a[i * h + i] = 1.0;
        }
    }
    // Near-uniform emissions with +-10% jitter, renormalized.
    let mut b = Vec::with_capacity(h * m);
    for _ in 0..h {
        let mut row: Vec<f64> = (0..m)
            .map(|_| 1.0 + 0.1 * (rng.gen::<f64>() - 0.5))
            .collect();
        let s: f64 = row.iter().sum();
        for x in &mut row {
            *x /= s;
        }
        b.extend(row);
    }
    let pi = vec![1.0 / h as f64; h];
    Hmm::new(h, m, a, b, pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::{forward_scaled, forward_trace};
    use compstat_bigfloat::Context;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dirichlet_hmm_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = dirichlet_hmm(&mut rng, 8, 4, 0.7);
        assert_eq!(m.num_states(), 8);
        assert_eq!(m.num_symbols(), 4);
        // Hmm::new validated stochasticity already; spot-check one row.
        let s: f64 = (0..8).map(|j| m.a(3, j)).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn observation_generators_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = dirichlet_hmm(&mut rng, 4, 6, 1.0);
        for o in uniform_observations(&mut rng, 6, 500) {
            assert!(o < 6);
        }
        for o in model_observations(&mut rng, &m, 500) {
            assert!(o < 6);
        }
        assert!(model_observations(&mut rng, &m, 0).is_empty());
    }

    #[test]
    fn hcg_like_decays_at_paper_rate() {
        // ~5.8 bits per site: 2000 sites should drop ~11,600 exponent
        // bits (within 10%).
        let mut rng = StdRng::seed_from_u64(3);
        let m = hcg_like(&mut rng, 4);
        let obs = uniform_observations(&mut rng, m.num_symbols(), 2_000);
        let ctx = Context::new(128);
        let trace = forward_trace(&m, &obs, &ctx, 1_999);
        let drop = (trace[0].exponent - trace.last().unwrap().exponent) as f64;
        let per_site = drop / 1_999.0;
        assert!(
            (per_site - 5.81).abs() < 0.3,
            "decay {per_site} bits/site, want ~5.81"
        );
        // Extrapolated to T=500k this is the paper's 2^-2.9M likelihood.
        let extrapolated = per_site * 500_000.0;
        assert!((extrapolated - 2_900_000.0).abs() < 150_000.0);
    }

    #[test]
    fn hcg_like_single_state_degenerates_gracefully() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = hcg_like(&mut rng, 1);
        let obs = uniform_observations(&mut rng, m.num_symbols(), 100);
        let s = forward_scaled(&m, &obs);
        assert!(s.ln_likelihood < 0.0);
    }
}
