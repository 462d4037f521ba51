//! Viterbi decoding and the backward algorithm — the companion HMM
//! kernels (extensions beyond the paper's forward-only evaluation, with
//! the same iterated-product numerical structure).

use crate::forward::{backward_in, check_symbols};
use crate::model::{Hmm, PreparedHmm};
use compstat_core::{Native, StatFloat};
use compstat_logspace::LogF64;

/// Result of Viterbi decoding.
#[derive(Clone, Debug, PartialEq)]
pub struct ViterbiPath {
    /// The most probable hidden state sequence.
    pub states: Vec<usize>,
    /// Natural log of that path's joint probability.
    pub ln_probability: f64,
}

/// Viterbi decoding in log-space (the standard formulation: max-plus
/// instead of sum-product, so no LSE is needed and log-space is the
/// natural choice even by the paper's cost model).
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn viterbi(model: &Hmm, obs: &[usize]) -> ViterbiPath {
    check_symbols(obs, model.num_symbols());
    let h = model.num_states();
    if obs.is_empty() {
        return ViterbiPath {
            states: Vec::new(),
            ln_probability: 0.0,
        };
    }
    let ln = |p: f64| if p > 0.0 { p.ln() } else { f64::NEG_INFINITY };
    let t_len = obs.len();
    let mut delta: Vec<f64> = (0..h)
        .map(|q| ln(model.pi(q)) + ln(model.b(q, obs[0])))
        .collect();
    let mut back: Vec<usize> = Vec::with_capacity(h * (t_len - 1));
    let mut next = vec![f64::NEG_INFINITY; h];
    for &ot in &obs[1..] {
        for q in 0..h {
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0;
            for p in 0..h {
                let cand = delta[p] + ln(model.a(p, q));
                if cand > best {
                    best = cand;
                    arg = p;
                }
            }
            next[q] = best + ln(model.b(q, ot));
            back.push(arg);
        }
        core::mem::swap(&mut delta, &mut next);
    }
    let (mut state, &best) = delta
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
        .expect("h > 0");
    let mut states = vec![0usize; t_len];
    states[t_len - 1] = state;
    for t in (1..t_len).rev() {
        state = back[(t - 1) * h + state];
        states[t - 1] = state;
    }
    ViterbiPath {
        states,
        ln_probability: best,
    }
}

/// The backward algorithm, generic over number format: returns the beta
/// variables' final combination `P(O | lambda)` (must agree with the
/// forward pass — a strong cross-check used in tests).
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn backward<T: StatFloat>(model: &PreparedHmm<T>, obs: &[usize]) -> T {
    backward_in(&Native::<T>::new(), model, obs)
}

/// Log-space backward pass (paired with [`crate::forward::forward_log`]):
/// [`backward`] over `LogF64`, whose path sums chain binary LSEs.
#[must_use]
pub fn backward_log(model: &Hmm, obs: &[usize]) -> LogF64 {
    backward(&model.prepare::<LogF64>(), obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::forward;
    use compstat_posit::P64E12;

    fn toy() -> Hmm {
        Hmm::new(
            2,
            2,
            vec![0.7, 0.3, 0.3, 0.7],
            vec![0.9, 0.1, 0.2, 0.8],
            vec![0.5, 0.5],
        )
    }

    #[test]
    fn viterbi_finds_the_best_path_by_enumeration() {
        let m = toy();
        let obs = [0usize, 0, 1, 0, 1];
        let got = viterbi(&m, &obs);
        // Enumerate all paths.
        let h = 2usize;
        let mut best = f64::NEG_INFINITY;
        let mut best_states = Vec::new();
        for code in 0..h.pow(5) {
            let mut states = Vec::new();
            let mut c = code;
            for _ in 0..5 {
                states.push(c % h);
                c /= h;
            }
            let mut lp = m.pi(states[0]).ln() + m.b(states[0], obs[0]).ln();
            for i in 1..5 {
                lp += m.a(states[i - 1], states[i]).ln() + m.b(states[i], obs[i]).ln();
            }
            if lp > best {
                best = lp;
                best_states = states;
            }
        }
        assert_eq!(got.states, best_states);
        assert!((got.ln_probability - best).abs() < 1e-12);
    }

    #[test]
    fn viterbi_empty_sequence() {
        let got = viterbi(&toy(), &[]);
        assert!(got.states.is_empty());
        assert_eq!(got.ln_probability, 0.0);
    }

    #[test]
    #[should_panic(expected = "observation symbol out of range")]
    fn viterbi_rejects_out_of_range_symbols() {
        let _ = viterbi(&toy(), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "observation symbol out of range")]
    fn backward_rejects_out_of_range_symbols() {
        // Symbol 2 of state 0 would index row 1's entries: only the
        // check stands between it and a silently wrong likelihood.
        let _: f64 = backward(&toy().prepare(), &[2, 0]);
    }

    #[test]
    fn backward_equals_forward_likelihood() {
        let m = toy();
        let obs: Vec<usize> = (0..50).map(|i| (i * 3 + 1) % 2).collect();
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        let b: f64 = backward(&m.prepare::<f64>(), &obs);
        // Forward and backward associate the same sum differently; agree
        // to within a few ulps.
        assert!((f - b).abs() < 1e-13 * f.abs(), "forward {f} backward {b}");
        let fp: P64E12 = forward(&m.prepare(), &obs);
        let bp: P64E12 = backward(&m.prepare(), &obs);
        let rel = (fp.to_f64() / bp.to_f64() - 1.0).abs();
        assert!(rel < 1e-10);
        let bl = backward_log(&m, &obs);
        assert!((bl.to_f64() / f - 1.0).abs() < 1e-10);
    }
}
