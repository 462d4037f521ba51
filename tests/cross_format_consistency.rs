//! Cross-crate integration: the same statistical workloads pushed
//! through every number system must agree wherever the formats have the
//! precision/range to agree, and must fail in exactly the ways the paper
//! describes where they don't.

use compstat::bigfloat::{BigFloat, Context};
use compstat::core::error::measure;
use compstat::core::StatFloat;
use compstat::hmm::{dirichlet_hmm, forward, forward_log, forward_oracle, uniform_observations};
use compstat::logspace::LogF64;
use compstat::pbd::{pbd_pvalue, pbd_pvalue_oracle};
use compstat::posit::{P64E12, P64E18, P64E9};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn forward_likelihood_all_formats_agree_in_range() {
    let mut rng = StdRng::seed_from_u64(101);
    let model = dirichlet_hmm(&mut rng, 6, 8, 1.0);
    let obs = uniform_observations(&mut rng, 8, 120);
    let ctx = Context::new(256);
    let oracle = forward_oracle(&model, &obs, &ctx);
    assert!(
        oracle.exponent().unwrap() > -900,
        "keep the workload inside f64 range"
    );

    let f: f64 = forward(&model.prepare(), &obs);
    assert!(measure(&oracle, &f, &ctx).log10_rel < -12.0);
    let p9: P64E9 = forward(&model.prepare(), &obs);
    assert!(measure(&oracle, &p9, &ctx).log10_rel < -12.0);
    let p12: P64E12 = forward(&model.prepare(), &obs);
    assert!(measure(&oracle, &p12, &ctx).log10_rel < -11.0);
    let l = forward_log(&model, &obs);
    assert!(measure(&oracle, &l, &ctx).log10_rel < -9.0);
}

#[test]
fn deep_forward_only_wide_formats_survive() {
    let mut rng = StdRng::seed_from_u64(102);
    let model = dirichlet_hmm(&mut rng, 4, 16, 0.7);
    let obs = uniform_observations(&mut rng, 16, 9_000);
    let ctx = Context::new(256);
    let oracle = forward_oracle(&model, &obs, &ctx);
    let oe = oracle.exponent().unwrap();
    assert!(oe < -10_000, "workload deep below binary64 (got 2^{oe})");

    let f: f64 = forward(&model.prepare(), &obs);
    assert_eq!(f, 0.0);
    let p18: P64E18 = forward(&model.prepare(), &obs);
    let m18 = measure(&oracle, &p18, &ctx);
    let l = forward_log(&model, &obs);
    let ml = measure(&oracle, &l, &ctx);
    assert!(
        m18.log10_rel < ml.log10_rel,
        "posit {} vs log {}",
        m18.log10_rel,
        ml.log10_rel
    );
    // Both are decent in absolute terms.
    assert!(m18.log10_rel < -8.0);
    assert!(ml.log10_rel < -5.0);
}

#[test]
fn pbd_pvalues_cross_check() {
    let probs: Vec<f64> = (0..300).map(|i| 1e-4 * (1.0 + (i % 13) as f64)).collect();
    let k = 12;
    let ctx = Context::new(256);
    let oracle = pbd_pvalue_oracle(&probs, k, &ctx);
    let f: f64 = pbd_pvalue(&probs, k);
    let p: P64E12 = pbd_pvalue(&probs, k);
    let l: LogF64 = pbd_pvalue(&probs, k);
    assert!(measure(&oracle, &f, &ctx).log10_rel < -11.0);
    assert!(measure(&oracle, &p, &ctx).log10_rel < -10.0);
    assert!(measure(&oracle, &l, &ctx).log10_rel < -9.0);
}

#[test]
fn posit_conversion_chain_is_lossless_roundtrip() {
    // posit -> BigFloat -> posit must be the identity for every tested
    // pattern (across configs), including extremes.
    for bits in [
        1u64,
        2,
        0x7FFF_FFFF_FFFF_FFFF,
        1 << 62,
        (1 << 63) + 1,
        u64::MAX,
    ] {
        let p = P64E18::from_bits(bits);
        if p.is_nar() {
            continue;
        }
        assert_eq!(P64E18::from_bigfloat(&p.to_bigfloat()), p, "{bits:#x}");
    }
}

#[test]
fn statfloat_generic_code_is_format_agnostic() {
    fn geometric_sum<T: StatFloat>(ratio: f64, n: usize) -> T {
        let r = T::from_f64(ratio);
        let mut term = T::one();
        let mut acc = T::zero();
        for _ in 0..n {
            acc = acc.add(term);
            term = term.mul(r);
        }
        acc
    }
    // sum_{k<40} 0.5^k ~ 2.
    let expect = 2.0 * (1.0 - 0.5f64.powi(40));
    let ctx = Context::new(128);
    let e = BigFloat::from_f64(expect);
    assert!(measure(&e, &geometric_sum::<f64>(0.5, 40), &ctx).log10_rel < -14.0);
    assert!(measure(&e, &geometric_sum::<P64E9>(0.5, 40), &ctx).log10_rel < -13.0);
    assert!(measure(&e, &geometric_sum::<P64E18>(0.5, 40), &ctx).log10_rel < -10.0);
    assert!(measure(&e, &geometric_sum::<LogF64>(0.5, 40), &ctx).log10_rel < -9.0);
}
