//! Posit arithmetic on raw bit patterns.
//!
//! Each kernel is const-generic over `posit(N, ES)` and `#[inline]`, so
//! it compiles into its caller with the format's shifts and masks as
//! immediates. One branch screens zero and NaR for both operands. The
//! finite path unpacks both operands to sign/scale/Q1.63-significand
//! form, computes the exact result's leading 64 bits plus a sticky bit,
//! and packs with round-to-nearest-even on the pattern. Only the
//! alignment shift and cancellation of [`add`], the product of [`mul`]
//! and the quotient of [`div`] take `u128`s. NaR propagates through every
//! operation.

use crate::decode::{either_special, unpack, Format, Unpacked};
use crate::encode::pack;

/// Exact negation: two's complement of the pattern.
#[inline]
pub(crate) fn neg<const N: u32, const ES: u32>(a: u64) -> u64 {
    a.wrapping_neg() & Format::<N, ES>::MASK
}

/// Posit addition.
#[inline]
pub(crate) fn add<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
    if either_special::<N, ES>(a, b) {
        let nar = Format::<N, ES>::NAR;
        return if a == nar || b == nar {
            nar
        } else if a == 0 {
            b
        } else {
            a
        };
    }
    add_finite::<N, ES>(unpack::<N, ES>(a), unpack::<N, ES>(b))
}

/// Posit subtraction (`a + (-b)`).
#[inline]
pub(crate) fn sub<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
    add::<N, ES>(a, neg::<N, ES>(b))
}

#[inline]
fn add_finite<const N: u32, const ES: u32>(x: Unpacked, y: Unpacked) -> u64 {
    // Order by magnitude: |big| >= |small|.
    let (big, small) = if (x.scale, x.frac) >= (y.scale, y.frac) {
        (x, y)
    } else {
        (y, x)
    };
    let d = (big.scale - small.scale) as u64;
    // small's significand scaled by 2^-d, split at big's LSB: `hi` lines
    // up with big.frac and `lo` holds the next 64 bits. Bits shifted past
    // those are dropped; `lo` is then nonzero, which is all the sticky bit
    // and a renormalization need from them.
    let wide = (u128::from(small.frac) << 64) >> d.min(127);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the two u64 halves of a u128"
    )]
    let (hi, lo) = ((wide >> 64) as u64, wide as u64);
    if big.negative == small.negative {
        let (sum, carry) = big.frac.overflowing_add(hi);
        if carry {
            // The carry is the new hidden bit: scale + 1.
            pack::<N, ES>(
                big.negative,
                big.scale + 1,
                (sum >> 1) | 1 << 63,
                sum & 1 != 0 || lo != 0,
            )
        } else {
            pack::<N, ES>(big.negative, big.scale, sum, lo != 0)
        }
    } else {
        // big - small = (big.frac - hi - borrow) + (2^64 - lo) / 2^64,
        // with a borrow when lo is nonzero; |big| >= |small| keeps it >= 0.
        let int = big.frac - hi - u64::from(lo != 0);
        let rest = lo.wrapping_neg();
        if int >> 63 == 1 {
            return pack::<N, ES>(big.negative, big.scale, int, rest != 0);
        }
        // Cancellation: renormalize the hidden bit to bit 63.
        let w = (u128::from(int) << 64) | u128::from(rest);
        if w == 0 {
            return 0; // exact cancellation
        }
        let shift = w.leading_zeros();
        let v = w << shift;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the two u64 halves of a u128"
        )]
        let (frac, below) = ((v >> 64) as u64, v as u64);
        pack::<N, ES>(big.negative, big.scale - i64::from(shift), frac, below != 0)
    }
}

/// Splits a significand product, with its top bit at 126 or 127, into a
/// scale step, the Q1.63 significand and a sticky bit for the rest.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "each cast keeps 64 bits on purpose: a right shift by >= 63 of a u128 below 2^128 fits, and `p as u64` is the low half tested for sticky bits"
)]
fn normalize_product(p: u128) -> (i64, u64, bool) {
    if p >> 127 != 0 {
        // Carry: top at 127 -> scale + 1.
        let frac = (p >> 64) as u64;
        let sticky = p as u64 != 0;
        (1, frac, sticky)
    } else {
        debug_assert!(p >> 126 != 0);
        let frac = (p >> 63) as u64;
        let sticky = p & ((1u128 << 63) - 1) != 0;
        (0, frac, sticky)
    }
}

/// Posit multiplication.
#[inline]
pub(crate) fn mul<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
    if either_special::<N, ES>(a, b) {
        let nar = Format::<N, ES>::NAR;
        return if a == nar || b == nar { nar } else { 0 };
    }
    let x = unpack::<N, ES>(a);
    let y = unpack::<N, ES>(b);
    // Q1.63 * Q1.63 = Q2.126: product in [2^126, 2^128).
    let p = u128::from(x.frac) * u128::from(y.frac);
    let (scale_adj, frac, sticky) = normalize_product(p);
    pack::<N, ES>(
        x.negative != y.negative,
        x.scale + y.scale + scale_adj,
        frac,
        sticky,
    )
}

/// Posit division.
#[inline]
pub(crate) fn div<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
    if either_special::<N, ES>(a, b) {
        // x/0 is NaR (no infinities in posit); 0/x is 0.
        let nar = Format::<N, ES>::NAR;
        return if a == nar || b & Format::<N, ES>::BODY == 0 {
            nar
        } else {
            0
        };
    }
    let x = unpack::<N, ES>(a);
    let y = unpack::<N, ES>(b);
    // Compute fa/fb in (1/2, 2) with 64 quotient bits + remainder.
    let (num_shift, scale_adj) = if x.frac >= y.frac {
        (63u32, 0i64)
    } else {
        (64, -1)
    };
    let num = u128::from(x.frac) << num_shift;
    let q = num / u128::from(y.frac);
    let rem = num % u128::from(y.frac);
    debug_assert!(q >> 63 == 1, "quotient normalized to Q1.63");
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the significands' ratio is below 2, so q < 2^64"
    )]
    let q = q as u64;
    pack::<N, ES>(
        x.negative != y.negative,
        x.scale - y.scale + scale_adj,
        q,
        rem != 0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, Decoded};

    // posit(8,2) value table helpers: decode to f64 by formula.
    fn p8_to_f64(bits: u64) -> f64 {
        match decode::<8, 2>(bits) {
            Decoded::Zero => 0.0,
            Decoded::NaR => f64::NAN,
            Decoded::Finite(u) => {
                let m = u.frac as f64 / (1u64 << 63) as f64;
                let v = m * 2f64.powi(u.scale as i32);
                if u.negative {
                    -v
                } else {
                    v
                }
            }
        }
    }

    /// Bracket endpoints around a result pattern. Walking +1 from maxpos
    /// or -1 from -maxpos lands on NaR, which acts as the open end of the
    /// range on that side.
    fn bracket(got: u64) -> (f64, f64) {
        let lo_bits = got.wrapping_sub(1) & 0xFF;
        let hi_bits = (got + 1) & 0xFF;
        let lo = if lo_bits == 0x80 {
            f64::NEG_INFINITY
        } else {
            p8_to_f64(lo_bits)
        };
        let hi = if hi_bits == 0x80 {
            f64::INFINITY
        } else {
            p8_to_f64(hi_bits)
        };
        (lo, hi)
    }

    fn p8_from_f64_exact(x: f64) -> u64 {
        // Only for values exactly representable in posit(8,2).
        for bits in 0u64..256 {
            if bits == 0x80 {
                continue;
            }
            if p8_to_f64(bits) == x {
                return bits;
            }
        }
        panic!("{x} not representable");
    }

    #[test]
    fn exhaustive_add_posit8_matches_real_rounding() {
        // For every pair of posit(8,2) values, a+b computed here must be
        // one of the two patterns bracketing the real sum, and must equal
        // the nearer one when the sum is strictly inside the bracket and
        // within range (pattern-RNE agrees with value order).
        let vals: Vec<(u64, f64)> = (0..256)
            .filter(|&b| b != 0x80)
            .map(|b| (b as u64, p8_to_f64(b as u64)))
            .collect();
        for &(ab, av) in &vals {
            for &(bb, bv) in &vals {
                let got = add::<8, 2>(ab, bb);
                assert_ne!(got, 0x80, "add must not produce NaR");
                let gv = p8_to_f64(got);
                let exact = av + bv;
                // The result must be the closest or tied-closest posit.
                let mut best = f64::INFINITY;
                for &(_, v) in &vals {
                    best = best.min((v - exact).abs());
                }
                let err = (gv - exact).abs();
                // Pattern rounding can differ from value-nearest only at
                // exact pattern midpoints; allow equality with the second
                // nearest in that case by checking err <= 2*best is too
                // loose — instead require err == best OR the exact value
                // sits between got and its pattern neighbor.
                if err > best {
                    let (lo, hi) = bracket(got);
                    let between = (lo.min(hi) <= exact) && (exact <= lo.max(hi));
                    assert!(
                        between,
                        "add({av}, {bv}) = {gv}, exact {exact}, best err {best}, got err {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn add_simple_values() {
        let one = p8_from_f64_exact(1.0);
        let two = p8_from_f64_exact(2.0);
        let three = p8_from_f64_exact(3.0);
        assert_eq!(add::<8, 2>(one, one), two);
        assert_eq!(add::<8, 2>(one, two), three);
        assert_eq!(sub::<8, 2>(three, two), one);
        assert_eq!(sub::<8, 2>(one, one), 0);
    }

    #[test]
    fn mul_simple_values() {
        let half = p8_from_f64_exact(0.5);
        let two = p8_from_f64_exact(2.0);
        let four = p8_from_f64_exact(4.0);
        let one = p8_from_f64_exact(1.0);
        assert_eq!(mul::<8, 2>(two, two), four);
        assert_eq!(mul::<8, 2>(two, half), one);
        assert_eq!(mul::<8, 2>(0, two), 0);
    }

    #[test]
    fn exhaustive_mul_posit8_is_faithful() {
        let vals: Vec<(u64, f64)> = (0..256)
            .filter(|&b| b != 0x80)
            .map(|b| (b as u64, p8_to_f64(b as u64)))
            .collect();
        for &(ab, av) in &vals {
            for &(bb, bv) in &vals {
                let got = mul::<8, 2>(ab, bb);
                assert_ne!(got, 0x80);
                let gv = p8_to_f64(got);
                let exact = av * bv;
                if exact == 0.0 {
                    assert_eq!(gv, 0.0, "mul({av},{bv})");
                    continue;
                }
                // Saturation cases: clamp to maxpos/minpos.
                let maxpos = p8_to_f64(0x7F);
                let minpos = p8_to_f64(0x01);
                if exact.abs() >= maxpos {
                    assert_eq!(gv.abs(), maxpos, "mul({av},{bv}) saturates");
                    continue;
                }
                if exact.abs() <= minpos {
                    assert_eq!(gv.abs(), minpos, "mul({av},{bv}) clamps at minpos");
                    continue;
                }
                let (lo, hi) = bracket(got);
                assert!(
                    (lo.min(hi) < exact && exact < lo.max(hi)) || gv == exact,
                    "mul({av}, {bv}) = {gv} not faithful (exact {exact})"
                );
            }
        }
    }

    #[test]
    fn div_inverts_mul() {
        let vals = [1.0f64, 2.0, 0.5, 4.0, 16.0, 3.0];
        for &a in &vals {
            for &b in &vals {
                let pa = p8_from_f64_exact(a);
                let pb = p8_from_f64_exact(b);
                let q = div::<8, 2>(mul::<8, 2>(pa, pb), pb);
                // a*b then /b returns a when all intermediates are exact.
                if (a * b).abs() <= p8_to_f64(0x7F) && p8_to_f64(p8_from_f64_exact(a * b)) == a * b
                {
                    assert_eq!(q, pa, "{a} * {b} / {b}");
                }
            }
        }
    }

    #[test]
    fn div_by_zero_is_nar() {
        assert_eq!(div::<8, 2>(p8_from_f64_exact(1.0), 0), 0x80);
        assert_eq!(div::<8, 2>(0, 0), 0x80);
        assert_eq!(div::<8, 2>(0, p8_from_f64_exact(2.0)), 0);
    }

    #[test]
    fn nar_propagates() {
        let one = p8_from_f64_exact(1.0);
        for op in [add::<8, 2>, sub::<8, 2>, mul::<8, 2>, div::<8, 2>] {
            assert_eq!(op(0x80, one), 0x80);
            assert_eq!(op(one, 0x80), 0x80);
        }
        assert_eq!(neg::<8, 2>(0x80), 0x80);
        assert_eq!(neg::<8, 2>(0), 0);
    }

    #[test]
    fn deep_product_chain_posit64() {
        // 0.5^k scales exactly: bits should decode back to scale -k while
        // in range.
        let half = pack::<64, 12>(false, -1, 1u64 << 63, false);
        let mut acc = pack::<64, 12>(false, 0, 1u64 << 63, false);
        for k in 1..=1000 {
            acc = mul::<64, 12>(acc, half);
            if let Decoded::Finite(u) = decode::<64, 12>(acc) {
                assert_eq!(u.scale, -k, "iteration {k}");
                assert_eq!(u.frac, 1u64 << 63);
            } else {
                panic!("not finite at {k}");
            }
        }
    }
}
