//! Differential tests for the arithmetic kernels.
//!
//! Two independent cross-checks, both bit-exact:
//!
//! 1. **Correct rounding** — computing any of `+ - * /` at
//!    `2*prec + 64` working bits and then rounding to `prec` must equal
//!    the direct operation at `prec`. For correctly-rounded ops on
//!    `prec`-bit operands, double rounding through `q >= 2p + 2` bits
//!    is innocuous (Figueroa's theorem), so any divergence means one of
//!    the two paths rounded wrong.
//! 2. **Kernel equivalence** — the fixed-width fast paths and the
//!    Knuth-D division must agree bit-for-bit with the general slice
//!    kernels and the retired restoring division (`testing::*`) across
//!    operand widths 24..4096. The general references also finish
//!    through the retired bit-indexed rounding, so the same comparisons
//!    check the whole-limb rounding core, including the mixed
//!    `N x 1`-limb products, carries out of rounding, and exponent
//!    saturation.

use compstat_bigfloat::{bit_identical, testing, BigFloat, Context};
use proptest::prelude::*;

/// Deterministic splitmix64 stream for the fixed-width sweeps.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random nonzero value with exactly `prec` significant bits, a random
/// exponent in ±2000, and a random sign — built exclusively through the
/// public exact-arithmetic API so the generator can't share bugs with
/// the kernels under test.
fn random_operand(state: &mut u64, prec: u32) -> BigFloat {
    let nl = (prec as usize).div_ceil(64);
    let build = Context::new((nl as u32) * 64);
    let mut acc = BigFloat::zero();
    for i in 0..nl {
        let mut l = splitmix(state);
        if i == 0 {
            // Top limb: keep the value full-width.
            l |= 1 << 63;
        }
        // acc = acc * 2^64 + l, exact at build precision.
        acc = build.add(&acc.mul_pow2(64), &BigFloat::from_u64(l));
    }
    let exp = (splitmix(state) % 4001) as i64 - 2000;
    let v = acc.round_to(prec).mul_pow2(exp);
    if splitmix(state) & 1 == 1 {
        v.neg()
    } else {
        v
    }
}

const WIDTHS: [u32; 12] = [24, 53, 64, 127, 128, 192, 256, 320, 512, 1024, 2048, 4096];

#[test]
fn double_rounding_differential_across_widths() {
    let mut st = 0x5EED_0001u64;
    for &p in &WIDTHS {
        let cp = Context::new(p);
        let cw = Context::new(2 * p + 64);
        for _ in 0..8 {
            let a = random_operand(&mut st, p);
            let b = random_operand(&mut st, p);
            let cases = [
                ("add", cp.add(&a, &b), cw.add(&a, &b)),
                ("sub", cp.sub(&a, &b), cw.sub(&a, &b)),
                ("mul", cp.mul(&a, &b), cw.mul(&a, &b)),
                ("div", cp.div(&a, &b), cw.div(&a, &b)),
            ];
            for (name, direct, wide) in cases {
                let double = cp.round(&wide);
                assert!(
                    bit_identical(&direct, &double),
                    "{name} at prec {p}: direct != wide-then-round for a={a:?} b={b:?}"
                );
            }
        }
    }
}

#[test]
fn fast_paths_match_general_kernels_across_widths() {
    let mut st = 0x5EED_0002u64;
    for &p in &WIDTHS {
        let cp = Context::new(p);
        for i in 0..8 {
            let a = random_operand(&mut st, p);
            // Every other round: mismatched operand widths, so the
            // unequal-limb-count paths (shifted alignment in add, the
            // general multiply) get exercised too.
            let b = if i % 2 == 0 {
                random_operand(&mut st, p)
            } else {
                random_operand(&mut st, 24.max(p / 2))
            };
            let pairs = [
                ("add", cp.add(&a, &b), testing::add_general(&a, &b, p)),
                ("sub", cp.sub(&a, &b), testing::sub_general(&a, &b, p)),
                ("mul", cp.mul(&a, &b), testing::mul_general(&a, &b, p)),
                ("div", cp.div(&a, &b), testing::div_restoring(&a, &b, p)),
            ];
            for (name, fast, general) in pairs {
                assert!(
                    bit_identical(&fast, &general),
                    "{name} at prec {p}: fast path != general kernel for a={a:?} b={b:?}"
                );
            }
        }
    }
}

#[test]
fn cancellation_and_near_equal_operands_stay_identical() {
    // Near-total cancellation is where the sticky/decrement logic in the
    // subtract path earns its keep; drive it explicitly at the fast-path
    // widths and one general width.
    let mut st = 0x5EED_0003u64;
    for &p in &[53u32, 128, 192, 256, 1024] {
        let cp = Context::new(p);
        let cw = Context::new(2 * p + 64);
        for _ in 0..16 {
            let a = random_operand(&mut st, p);
            // b agrees with a in all but the last few significant bits:
            // scale a perturbation to sit within a few ulps of a.
            let eps0 = random_operand(&mut st, p).abs();
            let shift = a.exponent().unwrap() - eps0.exponent().unwrap() - p as i64
                + (splitmix(&mut st) % 8) as i64
                - 3;
            let b = cp.add(&a, &eps0.mul_pow2(shift));
            let direct = cp.sub(&a, &b);
            let wide = cp.round(&cw.sub(&a, &b));
            assert!(
                bit_identical(&direct, &wide),
                "cancellation sub at prec {p} diverged"
            );
            let general = testing::sub_general(&a, &b, p);
            assert!(
                bit_identical(&direct, &general),
                "cancellation sub at prec {p}: fast != general"
            );
        }
    }
}

/// Result precisions for the rounding-core sweeps: both sides of every
/// limb boundary up to the inline limit, odd widths, and heap widths.
const ROUND_PRECS: [u32; 12] = [2, 24, 53, 64, 113, 128, 192, 200, 256, 320, 321, 1024];

/// A random operand of exactly `n` limbs: its precision is drawn from
/// `(64(n-1), 64n]`.
fn operand_of_limbs(state: &mut u64, n: u32) -> BigFloat {
    let prec = (64 * n - (splitmix(state) % 64) as u32).max(2);
    random_operand(state, prec)
}

/// `1 - 2^-p`: `p` one bits, the value that carries out of any rounding
/// that drops a one.
fn all_ones(p: u32) -> BigFloat {
    Context::new(p).sub(&BigFloat::one(), &BigFloat::pow2(-i64::from(p)))
}

/// Every fast-path operation of `a` and `b` at `prec` against its
/// general reference, plus both operands' `round_to(prec)`.
fn assert_matches_reference(a: &BigFloat, b: &BigFloat, prec: u32, what: &str) {
    let cp = Context::new(prec);
    let pairs = [
        ("add", cp.add(a, b), testing::add_general(a, b, prec)),
        ("sub", cp.sub(a, b), testing::sub_general(a, b, prec)),
        ("mul", cp.mul(a, b), testing::mul_general(a, b, prec)),
        (
            "mul swapped",
            cp.mul(b, a),
            testing::mul_general(b, a, prec),
        ),
        ("round a", a.round_to(prec), testing::round_general(a, prec)),
        ("round b", b.round_to(prec), testing::round_general(b, prec)),
    ];
    for (name, fast, general) in pairs {
        assert!(
            bit_identical(&fast, &general),
            "{name} ({what}) at prec {prec}: fast {fast:?} != general {general:?}"
        );
    }
}

#[test]
fn mixed_width_products_match_general_at_every_limb_count() {
    let mut st = 0x5EED_0004u64;
    for n in 1..=5u32 {
        for &prec in &ROUND_PRECS {
            for _ in 0..4 {
                let wide = operand_of_limbs(&mut st, n);
                let narrow = operand_of_limbs(&mut st, 1);
                assert_matches_reference(&wide, &narrow, prec, &format!("{n}x1"));
            }
        }
    }
}

#[test]
fn all_ones_significands_carry_out_of_rounding() {
    for &p in &[53u32, 64, 128, 192, 256, 320, 321, 1024] {
        let ones = all_ones(p);
        for &prec in &ROUND_PRECS {
            assert_matches_reference(&ones, &ones, prec, "ones x ones");
            assert_matches_reference(&ones, &all_ones(53), prec, "ones x ones53");
            assert_matches_reference(
                &ones,
                &BigFloat::pow2(-i64::from(p) - 1),
                prec,
                "ones + half ulp",
            );
            if prec < p {
                // Dropping the tail of p one bits rounds up into 1.0.
                let r = ones.round_to(prec);
                assert_eq!(r.exponent(), Some(0), "round {p} ones to {prec}");
                assert_eq!(r.to_f64(), 1.0);
            }
        }
    }
}

#[test]
fn ties_break_on_a_sticky_bit_in_any_limb() {
    // 1 + 2^-prec sits exactly halfway between two `prec`-bit values;
    // one more bit anywhere below, in any limb, must round it up.
    for &prec in &[53u32, 64, 128, 200, 256, 320] {
        let tie = Context::new(prec + 1).add(&BigFloat::one(), &BigFloat::pow2(-i64::from(prec)));
        let one = BigFloat::one();
        assert!(tie.round_to(prec) == one, "tie to even at {prec}");
        for width in [prec + 64, prec + 128, prec + 192, 1024] {
            let build = Context::new(width);
            for k in (prec + 1..width).step_by(5).chain([width - 1]) {
                let x = build.add(&tie, &BigFloat::pow2(-i64::from(k)));
                let fast = x.round_to(prec);
                let reference = testing::round_general(&x, prec);
                assert!(
                    bit_identical(&fast, &reference),
                    "sticky bit 2^-{k} of a {width}-bit tie at prec {prec}"
                );
                assert!(fast > one, "sticky bit 2^-{k} ignored at {prec}");
            }
        }
    }
}

#[test]
fn exponent_saturation_matches_general() {
    let mut st = 0x5EED_0005u64;
    for &prec in &ROUND_PRECS {
        for n in 1..=5u32 {
            // A random significand in [1, 2).
            let x = operand_of_limbs(&mut st, n).abs();
            let x = x.mul_pow2(-x.exponent().unwrap());
            let ones = all_ones(64 * n);
            let edges = [
                (x.mul_pow2(i64::MAX), x.clone()),
                (ones.mul_pow2(i64::MAX), ones.mul_pow2(i64::MAX)),
                (ones.mul_pow2(i64::MAX), BigFloat::from_f64(1.5)),
                (x.mul_pow2(i64::MIN), x.neg()),
                (BigFloat::pow2(i64::MIN), BigFloat::from_f64(0.75)),
                (
                    BigFloat::from_f64(1.5).mul_pow2(i64::MIN),
                    BigFloat::pow2(i64::MIN).neg(),
                ),
            ];
            for (a, b) in &edges {
                assert_matches_reference(a, b, prec, "exponent edge");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mixed_width_products_match_general_at_random_precision(
        seed in proptest::num::u64::ANY,
        n in 1u32..=5,
        prec_index in 0usize..ROUND_PRECS.len(),
        offset in 0u32..64,
    ) {
        let mut st = seed;
        let wide = operand_of_limbs(&mut st, n);
        let narrow = operand_of_limbs(&mut st, 1);
        // Sweep off the listed precisions too, so odd pads get covered.
        let prec = (ROUND_PRECS[prec_index] + offset).min(1024);
        assert_matches_reference(&wide, &narrow, prec, "random Nx1");
        let other = operand_of_limbs(&mut st, 1 + (seed % 5) as u32);
        assert_matches_reference(&wide, &other, prec, "random NxM");
    }

    #[test]
    fn ops_are_correctly_rounded_at_random_precision(
        x in proptest::num::f64::NORMAL,
        y in proptest::num::f64::NORMAL,
        ex in -2000i64..2000,
        ey in -2000i64..2000,
        prec in 24u32..512,
    ) {
        // Operands rounded to `prec` bits first, so the double-rounding
        // theorem's precondition (p-bit inputs) holds even below 53 bits.
        let a = BigFloat::from_f64(x).round_to(prec).mul_pow2(ex);
        let b = BigFloat::from_f64(y).round_to(prec).mul_pow2(ey);
        let cp = Context::new(prec);
        let cw = Context::new(2 * prec + 64);
        let cases = [
            ("add", cp.add(&a, &b), cw.add(&a, &b)),
            ("sub", cp.sub(&a, &b), cw.sub(&a, &b)),
            ("mul", cp.mul(&a, &b), cw.mul(&a, &b)),
            ("div", cp.div(&a, &b), cw.div(&a, &b)),
        ];
        for (name, direct, wide) in cases {
            let double = cp.round(&wide);
            prop_assert!(
                bit_identical(&direct, &double),
                "{} of {}*2^{} and {}*2^{} at prec {}", name, x, ex, y, ey, prec
            );
        }
    }

    #[test]
    fn fast_paths_match_general_at_random_precision(
        x in proptest::num::f64::NORMAL,
        y in proptest::num::f64::NORMAL,
        ex in -2000i64..2000,
        ey in -2000i64..2000,
        prec in 24u32..300,
    ) {
        let a = BigFloat::from_f64(x).round_to(prec).mul_pow2(ex);
        let b = BigFloat::from_f64(y).round_to(prec).mul_pow2(ey);
        let cp = Context::new(prec);
        let pairs = [
            ("add", cp.add(&a, &b), testing::add_general(&a, &b, prec)),
            ("sub", cp.sub(&a, &b), testing::sub_general(&a, &b, prec)),
            ("mul", cp.mul(&a, &b), testing::mul_general(&a, &b, prec)),
            ("div", cp.div(&a, &b), testing::div_restoring(&a, &b, prec)),
        ];
        for (name, fast, general) in pairs {
            prop_assert!(
                bit_identical(&fast, &general),
                "{} of {}*2^{} and {}*2^{} at prec {}", name, x, ex, y, ey, prec
            );
        }
    }
}
