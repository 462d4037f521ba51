//! Decoding posit bit patterns into sign/scale/significand form.

/// A decoded finite, nonzero posit value.
///
/// The represented magnitude is `1.f * 2^scale` where the significand
/// `1.f` is `frac` read as a Q1.63 fixed-point number (hidden bit at bit
/// 63, always set). `scale = k * 2^ES + e` combines the regime and
/// exponent fields, exactly Equation (4) of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unpacked {
    /// True for negative values (the magnitude fields describe `|x|`).
    pub negative: bool,
    /// Combined binary scale `k * 2^ES + e`.
    pub scale: i64,
    /// Significand in Q1.63: bit 63 is the hidden `1`.
    pub frac: u64,
}

/// Decoded posit: one of the two special encodings or a finite value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decoded {
    /// The all-zeros pattern.
    Zero,
    /// Not-a-Real: `1` followed by all zeros.
    NaR,
    /// Any other pattern.
    Finite(Unpacked),
}

/// Decodes an `n`-bit posit with `es` exponent bits.
///
/// `bits` must carry the pattern in its low `n` bits (upper bits zero).
#[inline]
pub fn decode(bits: u64, n: u32, es: u32) -> Decoded {
    debug_assert!((3..=64).contains(&n));
    debug_assert!(es <= 30);
    debug_assert!(n == 64 || bits >> n == 0, "stray bits above the pattern");
    if bits == 0 {
        return Decoded::Zero;
    }
    let sign_mask = 1u64 << (n - 1);
    if bits == sign_mask {
        return Decoded::NaR;
    }
    let negative = bits & sign_mask != 0;
    // Two's-complement negation within n bits yields the magnitude pattern.
    let mag = if negative {
        bits.wrapping_neg() & mask(n)
    } else {
        bits
    };
    // Left-align the n-1 body bits at bit 63; vacated low bits read as the
    // zero padding the posit standard prescribes for truncated fields.
    let body = mag << (64 - (n - 1));
    let r = body >> 63;
    let run = if r == 1 {
        body.leading_ones()
    } else {
        body.leading_zeros()
    };
    // A run of ones can extend into the zero padding only for maxpos,
    // where leading_ones stops at the padding; cap to the body width.
    let run = run.min(n - 1);
    let k: i64 = if r == 1 {
        run as i64 - 1
    } else {
        -(run as i64)
    };
    // Regime field: run + terminating bit, capped at the body width.
    let regime_len = (run + 1).min(n - 1);
    let rem = if regime_len >= 64 {
        0
    } else {
        body << regime_len
    };
    let e = if es == 0 { 0 } else { rem >> (64 - es) };
    let frac_field = if es >= 64 { 0 } else { rem << es };
    // Q1.63: hidden bit at 63, fraction below.
    let frac = (1u64 << 63) | (frac_field >> 1);
    let scale = k * (1i64 << es) + e as i64;
    Decoded::Finite(Unpacked {
        negative,
        scale,
        frac,
    })
}

/// Mask of the low `n` bits (`n` in 1..=64).
#[inline]
pub fn mask(n: u32) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::unusual_byte_groupings,
        reason = "groups are posit fields: sign_regime_exp_frac"
    )]
    fn paper_worked_example_posit_8_2() {
        // Section III: 0_0001_10_1 -> 1.5 * 2^-10.
        let bits = 0b0_0001_10_1u64;
        match decode(bits, 8, 2) {
            Decoded::Finite(u) => {
                assert!(!u.negative);
                assert_eq!(u.scale, -10);
                assert_eq!(u.frac, (1u64 << 63) | (1u64 << 62)); // 1.1 binary
            }
            other => panic!("expected finite, got {other:?}"),
        }
    }

    #[test]
    fn specials() {
        assert_eq!(decode(0, 8, 2), Decoded::Zero);
        assert_eq!(decode(0x80, 8, 2), Decoded::NaR);
        assert_eq!(decode(0, 64, 9), Decoded::Zero);
        assert_eq!(decode(1u64 << 63, 64, 9), Decoded::NaR);
    }

    #[test]
    fn one_decodes_to_scale_zero() {
        // 0b01000...0 is always 1.0.
        for (n, es) in [(8u32, 2u32), (16, 1), (32, 2), (64, 9), (64, 18)] {
            let bits = 1u64 << (n - 2);
            match decode(bits, n, es) {
                Decoded::Finite(u) => {
                    assert!(!u.negative);
                    assert_eq!(u.scale, 0, "posit({n},{es})");
                    assert_eq!(u.frac, 1u64 << 63);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn minpos_scale_matches_table_one() {
        // minpos pattern: 0...01. Table I: smallest positive of
        // posit(64,es) is 2^(-62 * 2^es).
        for (es, want) in [
            (6i64, -3_968i64),
            (9, -31_744),
            (12, -253_952),
            (15, -2_031_616),
            (18, -16_252_928),
            (21, -130_023_424),
        ] {
            match decode(1, 64, es as u32) {
                Decoded::Finite(u) => {
                    assert_eq!(u.scale, want, "posit(64,{es}) minpos");
                    assert_eq!(u.frac, 1u64 << 63);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn maxpos_scale() {
        // maxpos pattern: 0111...1 -> k = n-2, e = 0, frac = 1.0.
        match decode(0x7F, 8, 2) {
            Decoded::Finite(u) => assert_eq!(u.scale, 6 * 4),
            other => panic!("{other:?}"),
        }
        match decode((1u64 << 63) - 1, 64, 9) {
            Decoded::Finite(u) => assert_eq!(u.scale, 62 * 512),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_patterns_decode_via_twos_complement() {
        // -1.0 is 0b11000...0 for any config.
        let bits = 0b11u64 << 6; // 8-bit: 0xC0
        match decode(bits, 8, 2) {
            Decoded::Finite(u) => {
                assert!(u.negative);
                assert_eq!(u.scale, 0);
                assert_eq!(u.frac, 1u64 << 63);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[expect(
        clippy::unusual_byte_groupings,
        reason = "groups are posit fields: sign_regime_exp"
    )]
    fn truncated_exponent_reads_as_high_bits() {
        // posit(8,2) pattern 0_000001_1: regime 000001 (k=-5, 7 bits with
        // terminator... run=5, regime_len=6), remaining 1 bit = exponent
        // MSB -> e = 0b10 = 2. scale = -5*4 + 2 = -18.
        let bits = 0b0_000001_1u64;
        match decode(bits, 8, 2) {
            Decoded::Finite(u) => assert_eq!(u.scale, -18),
            other => panic!("{other:?}"),
        }
    }
}
