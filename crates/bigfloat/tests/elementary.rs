//! Differential tests for `Context::ln` and `Context::exp`.
//!
//! Both are documented as faithfully rounded: the result is one of the
//! two `prec`-bit values that bracket the exact one, so it lies within
//! 1 ulp of it. Every check here compares against the unreduced series
//! (`testing::{ln_series, exp_series}`) run 128 bits wider, which is
//! accurate to far below that ulp, at the precisions the workspace uses
//! (64, 192 = log-space measurement, 256 = the oracle) and one wider
//! (512). Near 1, where the reference `ln` cancels, it is run wider
//! still, by the bits the cancellation costs.

use compstat_bigfloat::{testing, BigFloat, Context, Kind};
use proptest::prelude::*;

const PRECS: [u32; 4] = [64, 192, 256, 512];

/// Deterministic splitmix64 stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A positive value with a full-width random `bits`-bit significand and
/// exponent `exp`, built through the exact public API.
fn significand(seed: u64, bits: u32, exp: i64) -> BigFloat {
    let mut state = seed;
    let nl = bits.div_ceil(64);
    let build = Context::new(nl * 64);
    let mut acc = BigFloat::zero();
    for i in 0..nl {
        let limb = splitmix(&mut state) | if i == 0 { 1 << 63 } else { 0 };
        acc = build.add(&acc.mul_pow2(64), &BigFloat::from_u64(limb));
    }
    let acc = acc.round_to(bits);
    let top = acc.exponent().expect("nonzero");
    acc.mul_pow2(-top).mul_pow2(exp)
}

/// `1 + 2^-k` (`above`) or `1 - 2^-k`, exact.
fn one_near(k: i64, above: bool) -> BigFloat {
    let ctx = Context::new(u32::try_from(k).expect("small k") + 2);
    let (one, d) = (BigFloat::one(), BigFloat::pow2(-k));
    if above {
        ctx.add(&one, &d)
    } else {
        ctx.sub(&one, &d)
    }
}

/// Whether `got` is within 1 ulp (at `prec` bits, in the binade of the
/// exact value) of `reference`.
fn within_one_ulp(got: &BigFloat, reference: &BigFloat, prec: u32) -> bool {
    if got.kind() != Kind::Normal || reference.kind() != Kind::Normal {
        return got.kind() == reference.kind() && got.sign() == reference.sign();
    }
    let exact = Context::new(got.precision().max(reference.precision()) + 128);
    let diff = exact.sub(got, reference);
    let ulp_exp = reference.exponent().expect("normal") - i64::from(prec) + 1;
    diff.exponent().is_none_or(|d| d < ulp_exp)
}

/// `ln x` from the unreduced series, 128 bits wider than `prec` plus
/// the bits its cancellation just below 1 loses: about `k` for
/// `|x - 1| ~ 2^-k`.
fn ln_reference(x: &BigFloat, prec: u32) -> BigFloat {
    let gap = Context::new(x.precision() + 2).sub(x, &BigFloat::one());
    let lost = gap.exponent().map_or(0, |e| (-e).max(0));
    testing::ln_series(x, prec + 128 + u32::try_from(lost).expect("small"))
}

fn check_ln(x: &BigFloat, prec: u32) -> Result<(), String> {
    let got = Context::new(prec).ln(x);
    let want = ln_reference(x, prec);
    if within_one_ulp(&got, &want, prec) {
        Ok(())
    } else {
        Err(format!(
            "ln({x:?}) at {prec} bits: got {got:?}, want {want:?}"
        ))
    }
}

fn check_exp(x: &BigFloat, prec: u32) -> Result<(), String> {
    let got = Context::new(prec).exp(x);
    let want = testing::exp_series(x, prec + 128);
    if within_one_ulp(&got, &want, prec) {
        Ok(())
    } else {
        Err(format!(
            "exp({x:?}) at {prec} bits: got {got:?}, want {want:?}"
        ))
    }
}

#[test]
fn ln_is_faithful_at_the_edges() {
    let mut inputs = vec![
        BigFloat::pow2(i64::MIN),
        BigFloat::pow2(i64::MAX),
        // Top of the significand range at both exponent extremes: the
        // halved significand's exponent e + 1 is 2^63 at e = i64::MAX.
        significand(1, 256, i64::MAX),
        significand(2, 256, i64::MIN),
        BigFloat::from_f64(1.5),
        BigFloat::from_f64(0.75),
        BigFloat::from_f64(2.0 - f64::EPSILON),
    ];
    for k in [1, 2, 8, 9, 10, 20, 30, 60, 100, 150, 200] {
        inputs.push(one_near(k, true));
        inputs.push(one_near(k, false));
    }
    for prec in PRECS {
        for x in &inputs {
            check_ln(x, prec).unwrap();
        }
    }
}

/// Every table entry, at both ends and the middle of the significand
/// interval it covers.
#[test]
fn ln_is_faithful_across_every_table_entry() {
    let ctx = Context::new(80);
    for prec in [64, 192] {
        for i in 0..256u64 {
            let lo = BigFloat::from_u64(256 + i).mul_pow2(-8);
            let hi = ctx.sub(
                &BigFloat::from_u64(257 + i).mul_pow2(-8),
                &BigFloat::pow2(-70),
            );
            let mid = BigFloat::from_u64(512 + 2 * i + 1).mul_pow2(-9);
            for m in [lo, mid, hi] {
                check_ln(&m, prec).unwrap();
                check_ln(&m.mul_pow2(-1), prec).unwrap();
            }
        }
    }
}

#[test]
fn exp_is_faithful_at_the_edges() {
    let ln2 = core::f64::consts::LN_2;
    let mut inputs: Vec<BigFloat> = [
        // Around the i64 saturation threshold i64::MAX * ln2 ~ 6.39e18.
        6.3e18,
        6.39e18,
        6.4e18,
        -6.3e18,
        -6.39e18,
        // The paper's VICAR log-likelihood scale, and ordinary ones.
        -2_010_126.824,
        -745.2,
        709.8,
        1.0,
        -1.0,
        ln2 / 2.0,
        -ln2 / 2.0,
        1e-300,
        -1e-300,
    ]
    .map(BigFloat::from_f64)
    .to_vec();
    for k in [1, 10, 17, 18, 30, 62] {
        inputs.push(BigFloat::pow2(k));
        inputs.push(BigFloat::pow2(k).neg());
        inputs.push(BigFloat::pow2(-k));
        inputs.push(BigFloat::pow2(-k).neg());
    }
    for prec in PRECS {
        for x in &inputs {
            check_exp(x, prec).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ln_matches_the_wide_series(
        seed in proptest::num::u64::ANY,
        exp in -100_000i64..100_000,
        bits in 2u32..600,
        p in 0usize..4,
    ) {
        let x = significand(seed, bits, exp);
        if let Err(msg) = check_ln(&x, PRECS[p]) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn ln_near_one_matches_the_wide_series(
        seed in proptest::num::u64::ANY,
        k in 1i64..300,
        above in proptest::bool::ANY,
        p in 0usize..4,
    ) {
        // 1 ± 2^-k perturbed in its low bits.
        let x = Context::new(1024).add(
            &one_near(k, above),
            &significand(seed, 64, -k - 70),
        );
        if let Err(msg) = check_ln(&x, PRECS[p]) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn exp_matches_the_wide_series(
        seed in proptest::num::u64::ANY,
        exp in -80i64..63,
        bits in 2u32..600,
        neg in proptest::bool::ANY,
        p in 0usize..4,
    ) {
        let x = significand(seed, bits, exp);
        let x = if neg { x.neg() } else { x };
        if let Err(msg) = check_exp(&x, PRECS[p]) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Regression: the unreduced `ln` computes `ln(1 - 2^-k)` as
/// `ln(2 - 2^(1-k)) - ln 2`, which cancels about `k` bits; at 192 bits
/// that left ~54 correct bits at `k = 200`. The reduced `ln` keeps such
/// inputs in one series with `e = 0`.
#[test]
fn ln_just_below_one_is_faithful() {
    let prec = 192;
    for k in [60, 100, 150, 200] {
        let x = one_near(k, false);
        let reference = testing::ln_series(&x, 640);
        let got = Context::new(prec).ln(&x);
        assert!(
            within_one_ulp(&got, &reference, prec),
            "ln(1 - 2^-{k}): got {got:?}, want {reference:?}"
        );
    }
    // The reference series at 192 bits really does lose those bits: the
    // inputs above exercise the cancellation.
    let x = one_near(200, false);
    let old = testing::ln_series(&x, prec);
    assert!(!within_one_ulp(&old, &testing::ln_series(&x, 640), prec));
}
