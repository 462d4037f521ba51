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
//!    saturation. The whole-limb cases also run through `WholeFloat`,
//!    the `Copy` value that calls the same kernels. Each of their
//!    selects has a case of its own: products landing just below 2 and
//!    from 2 on, each at a guard tie that rounds up or down, and a sum
//!    that carries out and then rounds up through every limb.

use compstat_bigfloat::{bit_identical, testing, BigFloat, Context, Kind, WholeFloat};
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

/// The whole-limb precisions: `64 * N` for every inline limb count.
const WHOLE_PRECS: [u32; 5] = [64, 128, 192, 256, 320];

/// The exact value with little-endian limbs `limbs` (top limb nonzero),
/// scaled so its top bit weighs `2^exp`.
fn from_limbs(limbs: &[u64], exp: i64) -> BigFloat {
    let build = Context::new(64 * limbs.len() as u32);
    let v = limbs.iter().rev().fold(BigFloat::zero(), |acc, &l| {
        build.add(&acc.mul_pow2(64), &BigFloat::from_u64(l))
    });
    v.mul_pow2(exp - v.exponent().unwrap())
}

/// `1 + k * 2^(1 - prec)`: `1` plus `k` units in the last place, on
/// exactly `prec / 64` limbs.
fn one_plus_ulps(prec: u32, k: u64) -> BigFloat {
    let mut limbs = vec![0u64; prec as usize / 64];
    limbs[0] |= k;
    *limbs.last_mut().unwrap() |= 1 << 63;
    from_limbs(&limbs, 0)
}

/// Same-sign sums and products of `x` and `y`, in both orders, each
/// against the general kernels and the bit-indexed rounding, and
/// through `WholeFloat` ([`assert_whole_value_ops`]).
fn assert_whole_limb_ops(x: &BigFloat, y: &BigFloat, prec: u32, what: &str) {
    let cp = Context::new(prec);
    let pairs = [
        ("x + y", cp.add(x, y), testing::add_general(x, y, prec)),
        ("y + x", cp.add(y, x), testing::add_general(y, x, prec)),
        (
            "-x - y",
            cp.sub(&x.neg(), y),
            testing::sub_general(&x.neg(), y, prec),
        ),
        ("x * y", cp.mul(x, y), testing::mul_general(x, y, prec)),
        ("y * x", cp.mul(y, x), testing::mul_general(y, x, prec)),
    ];
    for (name, fast, general) in pairs {
        assert!(
            bit_identical(&fast, &general),
            "{name} ({what}) at prec {prec}: fast {fast:?} != general {general:?}"
        );
    }
    assert_whole_value_ops(x, y, prec, what);
}

/// `a + b`, or `a * b` when `mul` is set, through `WholeFloat<N>`, or
/// `None` if an operand has no `WholeFloat<N>` value. The result must be
/// canonical (zero has exponent 0), so `==` on values is `==` on
/// numbers.
fn whole_value_op<const N: usize>(a: &BigFloat, b: &BigFloat, mul: bool) -> Option<BigFloat> {
    let (a, b) = (
        WholeFloat::<N>::from_bigfloat(a)?,
        WholeFloat::from_bigfloat(b)?,
    );
    let r = if mul { a.mul(&b) } else { a.add(&b) };
    let back = r.to_bigfloat();
    assert_eq!(WholeFloat::from_bigfloat(&back), Some(r), "not canonical");
    Some(back)
}

/// Sums and products of `x` and `y` in both orders, and of each with
/// zero, through `WholeFloat` at the whole-limb `prec`, each against
/// `Context::new(prec)`: value, exponent and precision tag. Operands
/// wider than `prec` have no value, and an operation whose `Context`
/// result overflows to infinity is skipped: the value panics there by
/// design.
fn assert_whole_value_ops(x: &BigFloat, y: &BigFloat, prec: u32, what: &str) {
    let n = prec as usize / 64;
    if x.limbs().len() > n || y.limbs().len() > n {
        return;
    }
    let cp = Context::new(prec);
    let zero = BigFloat::zero();
    for (a, b, pair) in [
        (x, y, "x, y"),
        (y, x, "y, x"),
        (x, &zero, "x, 0"),
        (&zero, y, "0, y"),
    ] {
        for (mul, want) in [(false, cp.add(a, b)), (true, cp.mul(a, b))] {
            if want.kind() == Kind::Inf {
                continue;
            }
            let got = match prec {
                64 => whole_value_op::<1>(a, b, mul),
                128 => whole_value_op::<2>(a, b, mul),
                192 => whole_value_op::<3>(a, b, mul),
                256 => whole_value_op::<4>(a, b, mul),
                320 => whole_value_op::<5>(a, b, mul),
                _ => panic!("{prec} is not a whole-limb precision"),
            }
            .unwrap_or_else(|| panic!("({what}) has no {prec}-bit whole-limb value"));
            let op = if mul { "*" } else { "+" };
            assert!(
                bit_identical(&got, &want),
                "WholeFloat {op} of ({pair}) ({what}) at prec {prec}: {got:?} != Context {want:?}"
            );
        }
    }
}

/// The operand shapes of the whole-limb kernels at `n` limbs: full
/// width, all ones (carries out of the top limb), every shorter limb
/// count, a 53-bit `from_f64` import, and one- and two-limb edge
/// patterns. All are positive; `assert_whole_limb_ops` negates.
fn whole_limb_operands(st: &mut u64, n: u32) -> Vec<(String, BigFloat)> {
    let mut out = vec![
        ("full".to_string(), random_operand(st, 64 * n).abs()),
        ("all ones".to_string(), all_ones(64 * n)),
        ("f64 0.3".to_string(), BigFloat::from_f64(0.3)),
        ("1".to_string(), from_limbs(&[1 << 63], 0)),
        ("one-limb ones".to_string(), all_ones(64)),
        ("1 + 2^-63".to_string(), from_limbs(&[1 << 63 | 1], 0)),
        ("1 + 2^-65".to_string(), from_limbs(&[1 << 62, 1 << 63], 0)),
        ("1 + 2^-127".to_string(), from_limbs(&[1, 1 << 63], 0)),
    ];
    for k in 1..n {
        out.push((format!("{k} limbs"), operand_of_limbs(st, k).abs()));
    }
    out
}

#[test]
fn whole_limb_sums_and_products_match_general_at_every_gap() {
    let mut st = 0x5EED_0006u64;
    for &prec in &WHOLE_PRECS {
        let operands = whole_limb_operands(&mut st, prec / 64);
        let width = i64::from(prec);
        let gaps = [0, 1, 63, 64, 65]
            .into_iter()
            .chain(width - 2..=width + 65)
            .chain([2 * width + 64, 1 << 40, i64::MAX]);
        for gap in gaps {
            // The exponents straddle zero, so even a gap of i64::MAX fits.
            let (ex, ey) = (gap - gap / 2, -(gap / 2));
            for (xn, x) in &operands {
                let x = x.mul_pow2(ex - x.exponent().unwrap());
                for (yn, y) in &operands {
                    let y = y.mul_pow2(ey - y.exponent().unwrap());
                    assert_whole_limb_ops(&x, &y, prec, &format!("{xn}, {yn} at gap {gap}"));
                }
            }
        }
    }
}

#[test]
fn whole_limb_ties_round_to_even_and_break_on_the_lowest_sticky_bit() {
    for &prec in &WHOLE_PRECS {
        let cp = Context::new(prec);
        let half_ulp = -i64::from(prec);
        let (even, odd) = (one_plus_ulps(prec, 2), one_plus_ulps(prec, 1));
        let tie = from_limbs(&[1 << 63], half_ulp);
        // A tie keeps an even last bit and rounds an odd one up.
        assert!(
            bit_identical(&cp.add(&even, &tie), &even),
            "even tie at {prec}"
        );
        assert!(
            bit_identical(&cp.add(&odd, &tie), &even),
            "odd tie at {prec}"
        );
        // Half an ulp plus a bit in the guard limb, or plus only the
        // lowest bit of the limb shifted out under the guard: above the
        // tie, so both round up.
        let in_guard = from_limbs(&[3 << 62], half_ulp);
        let shifted_out = from_limbs(&[1, 1 << 63], half_ulp);
        let above = one_plus_ulps(prec, 3);
        assert!(
            bit_identical(&cp.add(&even, &in_guard), &above),
            "guard sticky at {prec}"
        );
        assert!(
            bit_identical(&cp.add(&even, &shifted_out), &above),
            "low sticky at {prec}"
        );
        for (x, y, what) in [
            (&even, &tie, "even tie"),
            (&odd, &tie, "odd tie"),
            (&even, &in_guard, "tie + guard bit"),
            (&even, &shifted_out, "tie + lowest shifted-out bit"),
            (&odd, &shifted_out, "odd tie + lowest shifted-out bit"),
        ] {
            assert_whole_limb_ops(x, y, prec, what);
        }
        if prec > 64 {
            // A sum that carries out of the top limb, leaving a tie whose
            // only sticky bit is the one the renormalizing shift drops.
            let carry_tie = from_limbs(&[1 << 62, 1 << 63], 1 - i64::from(prec));
            let r = cp.add(&all_ones(prec), &carry_tie);
            assert!(
                r > Context::new(prec + 2).add(&all_ones(prec), &carry_tie),
                "carry tie at {prec}"
            );
            assert_whole_limb_ops(&all_ones(prec), &carry_tie, prec, "carry tie");
        }
        // Products: 1.5 * (1 + k ulps) leaves exactly half an ulp for odd
        // k, and 1.25 * (1 + k ulps) a quarter.
        for k in [1, 2, 3] {
            let x = one_plus_ulps(prec, k);
            assert_whole_limb_ops(
                &x,
                &BigFloat::from_f64(1.5),
                prec,
                &format!("1.5 * (1 + {k} ulps)"),
            );
            assert_whole_limb_ops(
                &x,
                &BigFloat::from_f64(1.25),
                prec,
                &format!("1.25 * (1 + {k} ulps)"),
            );
        }
        let up = cp.mul(&odd, &BigFloat::from_f64(1.5));
        assert!(
            up > Context::new(prec + 2).mul(&odd, &BigFloat::from_f64(1.5)),
            "odd product tie at {prec}"
        );
    }
}

/// `0xAAAA...AA` on `n` limbs plus `delta`: `3/2` times it is just
/// under `2^(64n)`, so with a `1.5` one-limb operand it picks which
/// side of 2 an `n x 1` product lands on.
fn alternating_plus(n: usize, delta: i64) -> Vec<u64> {
    let mut limbs = vec![0xAAAA_AAAA_AAAA_AAAAu64; n];
    limbs[0] = limbs[0].wrapping_add_signed(delta);
    limbs
}

#[test]
fn whole_limb_products_normalize_and_round_each_guard_tie() {
    let b = BigFloat::from_f64(1.5);
    for &prec in &WHOLE_PRECS {
        let n = prec as usize / 64;
        let cp = Context::new(prec);
        // `a = A * 2^(1 - 64n)` with `A` the `n`-limb integer, so `1.5 a`
        // is `3A * 2^(-64n)`: below 2 it rounds to `2^(1 - 64n)`, and
        // from 2 on to `2^(2 - 64n)`. Each `A` leaves exactly half of
        // that step, and its even neighbor is the result.
        let all_but = |k: u64| {
            let mut limbs = vec![u64::MAX; n];
            limbs[0] -= k;
            limbs
        };
        let cases = [
            // 3A = 2^(64n + 1) - 5: 2 - 2.5 ulps rounds up to 2 - 2 ulps.
            (
                alternating_plus(n, -1),
                from_limbs(&all_but(1), 0),
                "below 2, tie up",
            ),
            // 3A = 2^(64n + 1) - 11: 2 - 5.5 ulps rounds down to 2 - 6 ulps.
            (
                alternating_plus(n, -3),
                from_limbs(&all_but(5), 0),
                "below 2, tie down",
            ),
            // 3A = 2^(64n + 1) + 10: 2 + 2.5 ulps rounds down to 2 + 2 ulps.
            (
                alternating_plus(n, 4),
                one_plus_ulps(prec, 2).mul_pow2(1),
                "above 2, tie down",
            ),
            // 3A = 2^(64n + 1) + 22: 2 + 5.5 ulps rounds up to 2 + 6 ulps.
            (
                alternating_plus(n, 8),
                one_plus_ulps(prec, 6).mul_pow2(1),
                "above 2, tie up",
            ),
        ];
        for (a, want, what) in &cases {
            let a = from_limbs(a, 0);
            for got in [cp.mul(&a, &b), cp.mul(&b, &a)] {
                assert!(
                    bit_identical(&got, want),
                    "{what} at {prec}: {got:?} != {want:?}"
                );
            }
            assert_whole_limb_ops(&a, &b, prec, what);
        }
    }
}

#[test]
fn whole_limb_sum_carries_out_then_rounds_up_through_every_limb() {
    for &prec in &WHOLE_PRECS {
        let cp = Context::new(prec);
        // `2 - 2^(1 - prec)` (all ones) plus 1 carries out of the top
        // limb. Shifted back down, the sum is `1.0111...1` with exactly
        // half an ulp in the guard: the tie rounds its odd last bit up,
        // and the increment carries through all `prec / 64` limbs to 3.
        let ones = all_ones(prec).mul_pow2(1);
        for scale in [0, -1, -3_000] {
            let (x, y) = (ones.mul_pow2(scale), BigFloat::one().mul_pow2(scale));
            let want = BigFloat::from_f64(3.0).mul_pow2(scale).round_to(prec);
            for got in [cp.add(&x, &y), cp.add(&y, &x)] {
                assert!(
                    bit_identical(&got, &want),
                    "ones + 1 at 2^{scale}, prec {prec}: {got:?} != {want:?}"
                );
            }
            assert_whole_limb_ops(&x, &y, prec, &format!("ones + 1 at 2^{scale}"));
        }
    }
}

#[test]
fn whole_limb_results_saturate_like_general() {
    for &prec in &WHOLE_PRECS {
        let cp = Context::new(prec);
        // `all_ones` lies just under 1: scale its top bit to 2^MAX.
        let ones = all_ones(prec);
        let top = ones.mul_pow2(i64::MAX).mul_pow2(1);
        // All ones at the top exponent plus half an ulp: the tie rounds
        // up and carries one past i64::MAX.
        let half_ulp = BigFloat::pow2(i64::MAX - i64::from(prec)).round_to(64);
        let bottom = BigFloat::pow2(i64::MIN).round_to(64);
        let edges = [
            (top.clone(), half_ulp.clone(), "ones + half ulp at MAX"),
            (top.clone(), top.clone(), "carry past MAX"),
            (top.clone(), BigFloat::from_f64(1.5), "product past MAX"),
            (
                BigFloat::pow2(i64::MAX).round_to(64),
                BigFloat::from_f64(0.75),
                "MAX times 0.75",
            ),
            (
                bottom.clone(),
                BigFloat::from_f64(0.75),
                "product under MIN",
            ),
            (ones.clone(), ones.mul_pow2(i64::MIN + 1), "dust at MIN"),
        ];
        for (x, y, what) in &edges {
            assert_whole_limb_ops(x, y, prec, what);
        }
        assert_eq!(cp.add(&top, &half_ulp).kind(), Kind::Inf);
        assert_eq!(cp.add(&top, &top).kind(), Kind::Inf);
        assert_eq!(cp.mul(&top, &BigFloat::from_f64(1.5)).kind(), Kind::Inf);
        assert!(cp.mul(&bottom, &BigFloat::from_f64(0.75)).is_zero());
    }
}

/// The products around `i64::MIN` through `WholeFloat<N>`: an exponent
/// sum just below it gives `Context`'s zero, tagged `64 * N`, unless the
/// product's carry lifts it back to `i64::MIN`.
fn assert_whole_value_underflow<const N: usize>() {
    let prec = WholeFloat::<N>::PREC;
    let cp = Context::new(prec);
    let value = |x: &BigFloat| WholeFloat::<N>::from_bigfloat(x).unwrap();
    let at_min = BigFloat::pow2(i64::MIN).round_to(64);
    let one_and_half_at_min = BigFloat::from_f64(1.5).mul_pow2(i64::MIN);
    let cases = [
        // 1 * 1.5 at exponent sum MIN - 1: no carry, under the range.
        (&at_min, BigFloat::from_f64(0.75), true),
        // 1.5 * 1.5 = 2.25 carries the sum MIN - 1 back to MIN.
        (&one_and_half_at_min, BigFloat::from_f64(0.75), false),
        // Exactly MIN.
        (&at_min, BigFloat::from_f64(1.0), false),
        (&one_and_half_at_min, BigFloat::from_f64(0.5), true),
    ];
    for (x, y, zero) in &cases {
        let want = cp.mul(x, y);
        for got in [value(x).mul(&value(y)), value(y).mul(&value(x))] {
            assert_eq!(got.is_zero(), *zero, "{x:?} * {y:?} at {prec}");
            let got = got.to_bigfloat();
            assert!(
                bit_identical(&got, &want),
                "{x:?} * {y:?} at {prec}: {got:?} != {want:?}"
            );
            assert_eq!(got.precision(), prec);
        }
    }
}

#[test]
fn whole_values_underflow_to_the_tagged_zero_below_i64_min() {
    assert_whole_value_underflow::<1>();
    assert_whole_value_underflow::<2>();
    assert_whole_value_underflow::<3>();
    assert_whole_value_underflow::<4>();
    assert_whole_value_underflow::<5>();
}

#[test]
#[should_panic(expected = "overflowed the i64 exponent range")]
fn whole_values_refuse_to_overflow() {
    let top = WholeFloat::<2>::from_bigfloat(&BigFloat::pow2(i64::MAX).round_to(128)).unwrap();
    let _ = top.mul(&WholeFloat::from_f64(2.0));
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
