//! Encoding (packing) real values into posit bit patterns, with the
//! standard's round-to-nearest-even on the bit pattern and saturation at
//! minpos/maxpos (a posit operation never rounds a nonzero value to zero
//! or to NaR).
//!
//! [`pack`] is const-generic over the format. The regime, exponent and
//! fraction are assembled in one `u64` window that holds the `N - 1`
//! kept body bits and the round bit; every bit that falls below it only
//! feeds the sticky bit.

use crate::decode::Format;

/// Packs a finite nonzero magnitude `1.f * 2^scale` (with `frac` in Q1.63,
/// hidden bit set) into a `posit(N, ES)` pattern.
///
/// `sticky` reports nonzero value bits below `frac`'s LSB (from a wider
/// intermediate result). `negative` selects the two's-complement encoding.
#[inline]
pub(crate) fn pack<const N: u32, const ES: u32>(
    negative: bool,
    scale: i64,
    frac: u64,
    sticky: bool,
) -> u64 {
    debug_assert!(frac >> 63 == 1, "hidden bit must be set");
    // Saturation: values at or beyond maxpos's binade clamp to maxpos;
    // values strictly below minpos's binade clamp to minpos (never zero).
    let body = if scale >= Format::<N, ES>::MAXPOS_SCALE {
        Format::<N, ES>::BODY
    } else if scale < -Format::<N, ES>::MAXPOS_SCALE {
        1
    } else {
        round_body::<N, ES>(scale, frac, sticky)
    };
    if negative {
        body.wrapping_neg() & Format::<N, ES>::MASK
    } else {
        body
    }
}

/// The rounded `N - 1` body bits of an in-range magnitude.
#[inline]
fn round_body<const N: u32, const ES: u32>(scale: i64, frac: u64, sticky: bool) -> u64 {
    // The shifts by ES are immediates: k = floor(scale / 2^ES).
    let k = scale >> ES;
    let e = (scale & ((1 << ES) - 1)) as u64;
    debug_assert!((-(N as i64 - 2)..(N as i64 - 2)).contains(&k));
    // Regime, left-aligned: k+1 ones then a zero for k >= 0, -k zeros
    // then a one for k < 0. Its length is at most N - 1 <= 63.
    let (regime, len) = if k >= 0 {
        ((i64::MIN >> k) as u64, k + 2)
    } else {
        (1 << 63 >> -k, 1 - k)
    };
    // Exponent ++ the 63 fraction bits, left-aligned; the fraction's
    // lowest ES bits fall off the end.
    let fbits = frac << 1;
    let (tail, lost) = if ES == 0 {
        (fbits, 0)
    } else {
        ((e << (64 - ES)) | (fbits >> ES), fbits << (64 - ES))
    };
    let window = regime | (tail >> len);
    let lost = lost | (tail << (64 - len));
    // Round the infinite pattern at N-1 body bits (RNE on the pattern, as
    // softposit/MArTo do): the round bit sits right below the kept bits.
    let kept = window >> (65 - N);
    let round = (window >> (64 - N)) & 1;
    let below = window & ((1 << (64 - N)) - 1);
    let sticky = sticky || lost != 0 || below != 0;
    // kept can never ripple into the sign bit: reaching the all-ones body
    // requires scale >= maxpos_scale, handled by the caller.
    let body = kept + (round & (u64::from(sticky) | kept));
    debug_assert!(body >> (N - 1) == 0, "rounded into NaR");
    debug_assert!(body != 0, "rounded to zero");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, Decoded, Unpacked};

    fn roundtrip<const N: u32, const ES: u32>(bits: u64) -> u64 {
        match decode::<N, ES>(bits) {
            Decoded::Finite(Unpacked {
                negative,
                scale,
                frac,
            }) => pack::<N, ES>(negative, scale, frac, false),
            _ => panic!("not finite"),
        }
    }

    #[test]
    fn decode_encode_identity_posit8() {
        for bits in 1u64..256 {
            if bits == 0x80 {
                continue;
            }
            assert_eq!(roundtrip::<8, 2>(bits), bits, "pattern {bits:#010b}");
        }
    }

    #[test]
    fn decode_encode_identity_sampled_posit64() {
        // Every exact decode must re-encode to the same pattern.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = x;
            if bits == 0 || bits == 1u64 << 63 {
                continue;
            }
            assert_eq!(roundtrip::<64, 12>(bits), bits, "pattern {bits:#x}");
        }
    }

    #[test]
    #[expect(
        clippy::unusual_byte_groupings,
        reason = "groups are posit fields: sign_regime_exp_frac"
    )]
    fn paper_example_packs_back() {
        // 1.5 * 2^-10 in posit(8,2) is 0_0001_10_1.
        let frac = (1u64 << 63) | (1u64 << 62);
        assert_eq!(pack::<8, 2>(false, -10, frac, false), 0b0_0001_10_1);
    }

    #[test]
    fn saturation_clamps_not_wraps() {
        let one_frac = 1u64 << 63;
        // Far beyond maxpos scale for posit(8,2) (24).
        assert_eq!(pack::<8, 2>(false, 100, one_frac, false), 0x7F);
        assert_eq!(pack::<8, 2>(true, 100, one_frac, false), 0x81);
        // Far below minpos scale (-24): clamps to minpos, never zero.
        assert_eq!(pack::<8, 2>(false, -100, one_frac, false), 0x01);
        assert_eq!(pack::<8, 2>(true, -100, one_frac, false), 0xFF);
    }

    #[test]
    fn rounding_down_drops_sub_ulp_bits() {
        // 1.0 + 2^-62 in posit(8,2): fraction bits way below the 3
        // available -> rounds to 1.0.
        let frac = (1u64 << 63) | 1;
        assert_eq!(pack::<8, 2>(false, 0, frac, false), 0b0100_0000);
        // sticky alone must not round up either
        assert_eq!(pack::<8, 2>(false, 0, 1u64 << 63, true), 0b0100_0000);
    }

    #[test]
    fn rounding_ties_to_even_pattern() {
        // posit(8,2) around 1.0: body 0b100_00_ff with 2 frac bits... For
        // scale 0: regime "10" (2 bits), e (2 bits) = 00, frac 3 bits.
        // 1 + 2^-4 is exactly the midpoint between 1.0 (frac 000) and
        // 1.0625 (frac 001): round bit 1, sticky 0, lsb 0 -> stays 1.0.
        let frac = (1u64 << 63) | (1u64 << 59);
        assert_eq!(pack::<8, 2>(false, 0, frac, false), 0b0100_0000);
        // 1 + 2^-4 + 2^-40: sticky breaks the tie upward.
        let frac = (1u64 << 63) | (1u64 << 59) | (1u64 << 23);
        assert_eq!(pack::<8, 2>(false, 0, frac, false), 0b0100_0001);
        // 3/16 past an odd lsb: 1 + 2^-3 + 2^-4 -> midpoint above odd
        // pattern 001 -> rounds up to even 010.
        let frac = (1u64 << 63) | (1u64 << 60) | (1u64 << 59);
        assert_eq!(pack::<8, 2>(false, 0, frac, false), 0b0100_0010);
    }

    #[test]
    fn values_between_minpos_and_next_round_by_pattern() {
        // posit(8,2): minpos = 2^-24 (pattern 0x01); next is pattern 0x02
        // = 2^-22 (regime 0000011? no: 0x02 body 0000010: run 5, k=-5,
        // terminator, remaining 0 -> e=0 (padded) -> 2^-20)... the
        // pattern-space neighbor decides rounding.
        let next = decode::<8, 2>(0x02);
        let Decoded::Finite(u) = next else { panic!() };
        // Halfway *in pattern space* between 0x01 and 0x02 is determined
        // by the first dropped bit; 2^-21 (scale -21) has k=-6, e=3 ->
        // regime 0000001 (7 bits) fills the body, e dropped: round bit =
        // e MSB = 1, sticky = 1 (e LSB) -> rounds up to 0x02.
        let got = pack::<8, 2>(false, -21, 1u64 << 63, false);
        assert_eq!(got, 0x02, "2^-21 rounds to {}", u.scale);
        // 2^-23: k=-6, e=1: round bit = 0 -> stays minpos.
        let got = pack::<8, 2>(false, -23, 1u64 << 63, false);
        assert_eq!(got, 0x01);
    }
}
