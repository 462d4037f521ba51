//! Hidden Markov Model definition and per-format preparation.

use compstat_core::{Arith, Native, StatFloat};

/// A discrete-observation HMM `lambda = (A, B, pi)` (Section V-A).
///
/// * `A` is the `H x H` transition matrix: `a(i, j)` is the probability
///   of moving from state `i` to state `j`.
/// * `B` is the `H x M` emission matrix: `b(i, o)` is the probability of
///   observing symbol `o` in state `i`.
/// * `pi` is the initial state distribution.
///
/// Inputs are plain probabilities (binary64-representable, as in the
/// paper where A and B are ordinary inputs); it is the *iterated
/// products* over long observation sequences that leave binary64's
/// range.
#[derive(Clone, Debug, PartialEq)]
pub struct Hmm {
    h: usize,
    m: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    pi: Vec<f64>,
}

impl Hmm {
    /// Builds an HMM, validating shapes and (loosely) stochasticity.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or inconsistent, if any entry is
    /// negative/NaN, or if any row sum deviates from 1 by more than 1e-6.
    #[must_use]
    pub fn new(h: usize, m: usize, a: Vec<f64>, b: Vec<f64>, pi: Vec<f64>) -> Hmm {
        Hmm::try_new(h, m, a, b, pi).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an HMM, returning validation failures as typed errors
    /// instead of panicking — the constructor for untrusted (network)
    /// input. Dimension products are overflow-checked, so hostile
    /// `h`/`m` values cannot wrap.
    pub fn try_new(
        h: usize,
        m: usize,
        a: Vec<f64>,
        b: Vec<f64>,
        pi: Vec<f64>,
    ) -> Result<Hmm, String> {
        if h == 0 || m == 0 {
            return Err("empty model".into());
        }
        let hh = h.checked_mul(h).ok_or("A must be H x H")?;
        let hm = h.checked_mul(m).ok_or("B must be H x M")?;
        if a.len() != hh {
            return Err("A must be H x H".into());
        }
        if b.len() != hm {
            return Err("B must be H x M".into());
        }
        if pi.len() != h {
            return Err("pi must have H entries".into());
        }
        let check_row = |row: &[f64], what: &str| -> Result<(), String> {
            if !row.iter().all(|&p| p >= 0.0 && p.is_finite()) {
                return Err(format!("{what}: bad probability"));
            }
            let s: f64 = row.iter().sum();
            if (s - 1.0).abs() >= 1e-6 {
                return Err(format!("{what}: row sums to {s}"));
            }
            Ok(())
        };
        for i in 0..h {
            check_row(&a[i * h..(i + 1) * h], "A row")?;
            check_row(&b[i * m..(i + 1) * m], "B row")?;
        }
        check_row(&pi, "pi")?;
        Ok(Hmm { h, m, a, b, pi })
    }

    /// Number of hidden states `H`.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.h
    }

    /// Number of observation symbols `M`.
    #[must_use]
    pub fn num_symbols(&self) -> usize {
        self.m
    }

    /// Transition probability `P(q_j | q_i)`.
    #[must_use]
    pub fn a(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.h + j]
    }

    /// Emission probability `P(o | q_i)`.
    #[must_use]
    pub fn b(&self, i: usize, o: usize) -> f64 {
        self.b[i * self.m + o]
    }

    /// Initial probability of state `i`.
    #[must_use]
    pub fn pi(&self, i: usize) -> f64 {
        self.pi[i]
    }

    /// Converts every model probability into format `T` once, so the
    /// inner loops run without repeated conversion (the accelerators
    /// likewise store `A`/`B` on-chip in the compute format; log-space
    /// designs store pre-computed `ln_A`, `ln_B` — Listing 3).
    #[must_use]
    pub fn prepare<T: StatFloat>(&self) -> PreparedHmm<T> {
        self.prepare_in(&Native::<T>::new())
    }

    /// [`Hmm::prepare`] for any arithmetic, including a runtime-precision
    /// oracle context: every probability is imported once through `ar`.
    #[must_use]
    pub fn prepare_in<A: Arith>(&self, ar: &A) -> PreparedHmm<A::V> {
        let import = |ps: &[f64]| ps.iter().map(|&p| ar.import_f64(p)).collect();
        PreparedHmm {
            h: self.h,
            m: self.m,
            a: import(&self.a),
            b: import(&self.b),
            pi: import(&self.pi),
        }
    }
}

/// An [`Hmm`] with all probabilities pre-converted into format `T`
/// (or into an [`Arith`]'s values, see [`Hmm::prepare_in`]).
#[derive(Clone, Debug)]
pub struct PreparedHmm<T> {
    pub(crate) h: usize,
    pub(crate) m: usize,
    pub(crate) a: Vec<T>,
    pub(crate) b: Vec<T>,
    pub(crate) pi: Vec<T>,
}

impl<T: Copy> PreparedHmm<T> {
    /// Number of hidden states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.h
    }

    /// Number of observation symbols.
    #[must_use]
    pub fn num_symbols(&self) -> usize {
        self.m
    }

    /// Transition probability in format `T`.
    #[must_use]
    pub fn a(&self, i: usize, j: usize) -> T {
        self.a[i * self.h + j]
    }

    /// Emission probability in format `T`.
    #[must_use]
    pub fn b(&self, i: usize, o: usize) -> T {
        self.b[i * self.m + o]
    }

    /// Initial probability in format `T`.
    #[must_use]
    pub fn pi(&self, i: usize) -> T {
        self.pi[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Hmm {
        Hmm::new(
            2,
            2,
            vec![0.7, 0.3, 0.4, 0.6],
            vec![0.9, 0.1, 0.2, 0.8],
            vec![0.5, 0.5],
        )
    }

    #[test]
    fn accessors() {
        let m = two_state();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.num_symbols(), 2);
        assert_eq!(m.a(0, 1), 0.3);
        assert_eq!(m.b(1, 0), 0.2);
        assert_eq!(m.pi(1), 0.5);
    }

    #[test]
    #[should_panic(expected = "row sums")]
    fn rejects_non_stochastic_rows() {
        let _ = Hmm::new(1, 2, vec![1.0], vec![0.5, 0.4], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "A must be H x H")]
    fn rejects_bad_shapes() {
        let _ = Hmm::new(2, 2, vec![1.0; 3], vec![0.5; 4], vec![0.5, 0.5]);
    }

    #[test]
    fn prepare_converts_all_entries() {
        use compstat_posit::{P64E12, P64E9};
        let m = two_state();
        // posit(64,9) keeps all 52 fraction bits near 1.0: conversions of
        // f64 probabilities are exact.
        let p: PreparedHmm<P64E9> = m.prepare();
        assert_eq!(p.a(0, 0).to_f64(), 0.7);
        assert_eq!(p.b(0, 1).to_f64(), 0.1);
        assert_eq!(p.pi(0).to_f64(), 0.5);
        // posit(64,12) has 49 fraction bits there: 0.7 re-rounds by a few
        // ulps (the precision trade-off Table I quantifies).
        let p12: PreparedHmm<P64E12> = m.prepare();
        assert!((p12.a(0, 0).to_f64() - 0.7).abs() < 1e-14);
        assert_eq!(p12.pi(0).to_f64(), 0.5); // dyadic: always exact
    }
}
