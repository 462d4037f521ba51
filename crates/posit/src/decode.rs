//! Decoding posit bit patterns into sign/scale/significand form.
//!
//! [`unpack`] is const-generic over the format, so the regime and
//! exponent shifts are immediates and the whole decode inlines into
//! [`PositValue::from_posit`](crate::PositValue::from_posit).

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

/// The pattern constants of `posit(N, ES)`, folded at compile time.
pub(crate) struct Format<const N: u32, const ES: u32>;

impl<const N: u32, const ES: u32> Format<N, ES> {
    /// The low `N` bits.
    pub(crate) const MASK: u64 = u64::MAX >> (64 - N);
    /// Not-a-Real: the sign bit alone.
    pub(crate) const NAR: u64 = 1 << (N - 1);
    /// The `N - 1` bits below the sign; also the body of maxpos.
    pub(crate) const BODY: u64 = Self::NAR - 1;
    /// The scale of maxpos, `(N - 2) · 2^ES`; minpos has its negation.
    pub(crate) const MAXPOS_SCALE: i64 = (N as i64 - 2) << ES;
}

/// Decodes a pattern held in the low `N` bits (upper bits zero).
#[inline]
pub(crate) fn decode<const N: u32, const ES: u32>(bits: u64) -> Decoded {
    if bits & Format::<N, ES>::BODY != 0 {
        Decoded::Finite(unpack::<N, ES>(bits))
    } else if bits == 0 {
        Decoded::Zero
    } else {
        Decoded::NaR
    }
}

/// Unpacks a pattern that is neither zero nor NaR.
#[inline]
pub(crate) fn unpack<const N: u32, const ES: u32>(bits: u64) -> Unpacked {
    debug_assert!(
        bits & !Format::<N, ES>::MASK == 0,
        "stray bits above the pattern"
    );
    debug_assert!(bits & Format::<N, ES>::BODY != 0, "zero or NaR");
    let negative = bits & Format::<N, ES>::NAR != 0;
    // Two's-complement negation within N bits yields the magnitude pattern.
    let mag = if negative {
        bits.wrapping_neg() & Format::<N, ES>::MASK
    } else {
        bits
    };
    // Left-align the N-1 body bits at bit 63; vacated low bits read as the
    // zero padding the posit standard prescribes for truncated fields.
    let body = mag << (65 - N);
    // The regime is the run of copies of bit 63. XOR with the
    // sign-extended top bit turns either run into leading zeros; the
    // padding ends a run of ones by maxpos at the latest.
    let run = (body ^ ((body as i64 >> 63) as u64)).leading_zeros();
    let k = if body >> 63 == 1 {
        i64::from(run) - 1
    } else {
        -i64::from(run)
    };
    // Drop the run and its terminator; after maxpos's full-width run only
    // padding is left.
    let rem = body << run << 1;
    let e = if ES == 0 { 0 } else { rem >> (64 - ES) };
    // Q1.63: hidden bit at 63, fraction below.
    let frac = (1 << 63) | (rem << ES >> 1);
    Unpacked {
        negative,
        scale: (k << ES) + e as i64,
        frac,
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
        match decode::<8, 2>(bits) {
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
        assert_eq!(decode::<8, 2>(0), Decoded::Zero);
        assert_eq!(decode::<8, 2>(0x80), Decoded::NaR);
        assert_eq!(decode::<64, 9>(0), Decoded::Zero);
        assert_eq!(decode::<64, 9>(1u64 << 63), Decoded::NaR);
    }

    #[test]
    fn one_decodes_to_scale_zero() {
        // 0b01000...0 is always 1.0.
        fn check<const N: u32, const ES: u32>() {
            match decode::<N, ES>(1u64 << (N - 2)) {
                Decoded::Finite(u) => {
                    assert!(!u.negative);
                    assert_eq!(u.scale, 0, "posit({N},{ES})");
                    assert_eq!(u.frac, 1u64 << 63);
                }
                other => panic!("{other:?}"),
            }
        }
        check::<8, 2>();
        check::<16, 1>();
        check::<32, 2>();
        check::<64, 9>();
        check::<64, 18>();
    }

    #[test]
    fn minpos_scale_matches_table_one() {
        // minpos pattern: 0...01. Table I: smallest positive of
        // posit(64,es) is 2^(-62 * 2^es).
        for (got, want) in [
            (decode::<64, 6>(1), -3_968i64),
            (decode::<64, 9>(1), -31_744),
            (decode::<64, 12>(1), -253_952),
            (decode::<64, 15>(1), -2_031_616),
            (decode::<64, 18>(1), -16_252_928),
            (decode::<64, 21>(1), -130_023_424),
        ] {
            match got {
                Decoded::Finite(u) => {
                    assert_eq!(u.scale, want, "minpos");
                    assert_eq!(u.frac, 1u64 << 63);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn maxpos_scale() {
        // maxpos pattern: 0111...1 -> k = n-2, e = 0, frac = 1.0.
        match decode::<8, 2>(0x7F) {
            Decoded::Finite(u) => assert_eq!(u.scale, 6 * 4),
            other => panic!("{other:?}"),
        }
        match decode::<64, 9>((1u64 << 63) - 1) {
            Decoded::Finite(u) => assert_eq!(u.scale, 62 * 512),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_patterns_decode_via_twos_complement() {
        // -1.0 is 0b11000...0 for any config.
        let bits = 0b11u64 << 6; // 8-bit: 0xC0
        match decode::<8, 2>(bits) {
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
        match decode::<8, 2>(bits) {
            Decoded::Finite(u) => assert_eq!(u.scale, -18),
            other => panic!("{other:?}"),
        }
    }
}
