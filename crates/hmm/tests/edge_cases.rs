//! Edge-case behavior of the forward-kernel family: empty observation
//! sequences, single-state (H = 1) models, and out-of-range symbol
//! diagnostics must be consistent across `forward`, `forward_log`,
//! `forward_scaled`, `forward_oracle`, and `forward_trace` — a caller
//! switching number systems must never see the *shape* of the
//! computation change.

use compstat_bigfloat::Context;
use compstat_hmm::{forward, forward_log, forward_oracle, forward_scaled, forward_trace, Hmm};
use compstat_logspace::LogF64;
use compstat_posit::P64E18;

fn two_state() -> Hmm {
    Hmm::new(
        2,
        2,
        vec![0.7, 0.3, 0.3, 0.7],
        vec![0.9, 0.1, 0.2, 0.8],
        vec![0.5, 0.5],
    )
}

/// A single-state model: the forward likelihood degenerates to the
/// plain product of emission probabilities, hand-computable exactly.
fn single_state() -> Hmm {
    Hmm::new(1, 3, vec![1.0], vec![0.5, 0.25, 0.25], vec![1.0])
}

// ---------------------------------------------------------------------
// Empty observation sequences: probability of the empty evidence is 1
// (ln 1 = 0) in every kernel.
// ---------------------------------------------------------------------

#[test]
fn empty_observations_yield_probability_one_everywhere() {
    for m in [two_state(), single_state()] {
        assert_eq!(forward::<f64>(&m.prepare(), &[]), 1.0);
        assert_eq!(forward::<P64E18>(&m.prepare(), &[]).to_f64(), 1.0);
        assert_eq!(forward_log(&m, &[]).to_f64(), 1.0);
        let s = forward_scaled(&m, &[]);
        assert_eq!(s.ln_likelihood, 0.0);
        assert_eq!(s.rescales, 0);
        let ctx = Context::new(128);
        assert_eq!(forward_oracle(&m, &[], &ctx).to_f64(), 1.0);
        // The Figure 1 trace of an empty sequence is empty, not a panic.
        assert!(forward_trace(&m, &[], &ctx, 1).is_empty());
    }
}

// ---------------------------------------------------------------------
// Single-state models: likelihood == product of b(0, o_t).
// ---------------------------------------------------------------------

#[test]
fn single_state_model_reduces_to_emission_product() {
    let m = single_state();
    let obs = [0usize, 1, 2, 0, 1, 0];
    let want: f64 = obs.iter().map(|&o| m.b(0, o)).product();
    assert!(want > 0.0);

    let f: f64 = forward(&m.prepare(), &obs);
    assert_eq!(f, want, "binary64 exact on powers of two");
    let p: P64E18 = forward(&m.prepare(), &obs);
    assert_eq!(p.to_f64(), want, "posit exact on powers of two");
    let l: LogF64 = forward_log(&m, &obs);
    assert!((l.to_f64() - want).abs() < 1e-12 * want);
    let s = forward_scaled(&m, &obs);
    assert!((s.ln_likelihood - want.ln()).abs() < 1e-12);
    let ctx = Context::new(128);
    assert_eq!(forward_oracle(&m, &obs, &ctx).to_f64(), want);
}

#[test]
fn single_state_long_sequence_underflows_f64_but_not_posit() {
    // H = 1 is the purest form of the paper's Section II story: the
    // likelihood is 0.5^T, which leaves binary64's range at T > 1074.
    let m = single_state();
    let obs = vec![0usize; 2_000];
    assert_eq!(forward::<f64>(&m.prepare(), &obs), 0.0);
    let p: P64E18 = forward(&m.prepare(), &obs);
    assert_eq!(p.scale(), Some(-2_000), "0.5^2000 == 2^-2000, exactly");
    let ctx = Context::new(64);
    assert_eq!(forward_oracle(&m, &obs, &ctx).exponent(), Some(-2_000));
    let s = forward_scaled(&m, &obs);
    assert!((s.ln_likelihood - 2_000.0 * 0.5f64.ln()).abs() < 1e-9 * 2_000.0);
}

// ---------------------------------------------------------------------
// Out-of-range symbols: one panic message across the kernel family.
// ---------------------------------------------------------------------

fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("must panic");
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("panic payload is a message")
}

#[test]
fn out_of_range_symbol_panics_with_one_message_across_kernels() {
    const WANT: &str = "observation symbol out of range";
    let kernels: [fn(&Hmm, &[usize]) -> f64; 6] = [
        |m, obs| forward::<f64>(&m.prepare(), obs),
        |m, obs| forward_log(m, obs).to_f64(),
        |m, obs| forward_scaled(m, obs).ln_likelihood,
        |m, obs| forward_oracle(m, obs, &Context::new(64)).to_f64(),
        // The trace in both of its arithmetics: HdrFloat at <= 53 bits,
        // the context itself above.
        |m, obs| forward_trace(m, obs, &Context::new(53), 1).len() as f64,
        |m, obs| forward_trace(m, obs, &Context::new(128), 1).len() as f64,
    ];
    // At the first symbol, mid-sequence, and one past the last symbol
    // (which a flat `b[q * m + o]` index would silently read as the
    // next row's emission): every kernel must agree.
    for obs in [vec![9usize, 0, 1], vec![0usize, 1, 9], vec![0usize, 2]] {
        for (i, kernel) in kernels.into_iter().enumerate() {
            let (m, o) = (two_state(), obs.clone());
            let msg = panic_message(move || {
                kernel(&m, &o);
            });
            assert_eq!(msg, WANT, "kernel {i}, obs {obs:?}");
        }
    }
}

#[test]
fn boundary_symbol_is_in_range() {
    // Symbol m-1 is valid everywhere; only m panics.
    let m = two_state();
    let obs = [1usize, 1, 1];
    let f: f64 = forward(&m.prepare(), &obs);
    assert!(f > 0.0);
    assert!(forward_log(&m, &obs).to_f64() > 0.0);
    assert!(forward_scaled(&m, &obs).ln_likelihood < 0.0);
}
