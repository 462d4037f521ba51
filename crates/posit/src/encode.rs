//! Encoding (packing) real values into posit bit patterns, with the
//! standard's round-to-nearest-even on the bit pattern and saturation at
//! minpos/maxpos (a posit operation never rounds a nonzero value to zero
//! or to NaR).

use crate::decode::mask;

/// Packs a finite nonzero magnitude `1.f * 2^scale` (with `frac` in Q1.63,
/// hidden bit set) into an `n`-bit, `es`-exponent posit pattern.
///
/// `sticky` reports nonzero value bits below `frac`'s LSB (from a wider
/// intermediate result). `negative` selects the two's-complement encoding.
#[inline]
pub fn pack(negative: bool, scale: i64, frac: u64, sticky: bool, n: u32, es: u32) -> u64 {
    debug_assert!((3..=64).contains(&n));
    debug_assert!(es <= 30);
    debug_assert!(frac >> 63 == 1, "hidden bit must be set");

    let maxpos_scale = (n as i64 - 2) << es;
    let minpos_scale = -maxpos_scale;
    // Saturation: values at or beyond maxpos's binade clamp to maxpos;
    // values strictly below minpos's binade clamp to minpos (never zero).
    if scale >= maxpos_scale {
        return finish(maxpos_body(n), negative, n);
    }
    if scale < minpos_scale {
        return finish(1, negative, n);
    }

    let k = scale.div_euclid(1 << es);
    let e = scale.rem_euclid(1 << es) as u64;
    debug_assert!((-(n as i64 - 2)..(n as i64 - 2)).contains(&k));

    // Assemble regime ++ exponent ++ fraction left-aligned in a u128.
    // Regime <= n-1 <= 63 bits and exponent <= 30 bits always fit; the
    // fraction may spill into `sticky`.
    let mut acc: u128 = 0;
    let mut pos: u32 = 128; // next free bit (bits [pos..128) are used)
    let mut sticky = sticky;
    {
        // Regime: k >= 0 -> (k+1) ones then 0; k < 0 -> (-k) zeros then 1.
        let (run, bit) = if k >= 0 {
            (k as u32 + 1, 1u128)
        } else {
            ((-k) as u32, 0u128)
        };
        let regime_len = run + 1;
        debug_assert!(regime_len < n);
        if bit == 1 {
            let ones = (1u128 << run) - 1;
            acc |= ones << (128 - run); // run ones
        } else {
            // run zeros: nothing to set.
        }
        pos -= run;
        // Terminator is the opposite bit.
        pos -= 1;
        if bit == 0 {
            acc |= 1u128 << pos;
        }
    }
    if es > 0 {
        pos -= es;
        acc |= (e as u128) << pos;
    }
    {
        // Fraction: 63 bits below the hidden bit.
        let fbits = frac & ((1u64 << 63) - 1);
        if pos >= 63 {
            pos -= 63;
            acc |= (fbits as u128) << pos;
        } else {
            let dropped = 63 - pos;
            acc |= (fbits as u128) >> dropped;
            sticky |= fbits & ((1u64 << dropped) - 1) != 0;
            pos = 0;
        }
    }
    let _ = pos;

    // Round the infinite pattern at n-1 body bits (RNE on the pattern,
    // as softposit/MArTo do).
    let body_bits = n - 1;
    let kept = (acc >> (128 - body_bits)) as u64;
    let round_bit = (acc >> (127 - body_bits)) & 1 == 1;
    let below = acc << (body_bits + 1);
    let sticky = sticky || below != 0;
    let mut kept = kept;
    if round_bit && (sticky || kept & 1 == 1) {
        kept += 1;
        // kept can never ripple into the sign bit: reaching the all-ones
        // body requires scale >= maxpos_scale, handled above.
        debug_assert!(kept >> body_bits == 0, "rounded into NaR");
    }
    debug_assert!(kept != 0, "rounded to zero");
    finish(kept, negative, n)
}

/// Body of maxpos: `n-1` ones.
#[inline]
fn maxpos_body(n: u32) -> u64 {
    mask(n - 1)
}

/// Applies the sign (two's complement within `n` bits).
#[inline]
fn finish(body: u64, negative: bool, n: u32) -> u64 {
    if negative {
        body.wrapping_neg() & mask(n)
    } else {
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, Decoded, Unpacked};

    fn roundtrip(bits: u64, n: u32, es: u32) -> u64 {
        match decode(bits, n, es) {
            Decoded::Finite(Unpacked {
                negative,
                scale,
                frac,
            }) => pack(negative, scale, frac, false, n, es),
            _ => panic!("not finite"),
        }
    }

    #[test]
    fn decode_encode_identity_posit8() {
        for bits in 1u64..256 {
            if bits == 0x80 {
                continue;
            }
            assert_eq!(roundtrip(bits, 8, 2), bits, "pattern {bits:#010b}");
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
            assert_eq!(roundtrip(bits, 64, 12), bits, "pattern {bits:#x}");
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
        assert_eq!(pack(false, -10, frac, false, 8, 2), 0b0_0001_10_1);
    }

    #[test]
    fn saturation_clamps_not_wraps() {
        let one_frac = 1u64 << 63;
        // Far beyond maxpos scale for posit(8,2) (24).
        assert_eq!(pack(false, 100, one_frac, false, 8, 2), 0x7F);
        assert_eq!(pack(true, 100, one_frac, false, 8, 2), 0x81);
        // Far below minpos scale (-24): clamps to minpos, never zero.
        assert_eq!(pack(false, -100, one_frac, false, 8, 2), 0x01);
        assert_eq!(pack(true, -100, one_frac, false, 8, 2), 0xFF);
    }

    #[test]
    fn rounding_down_drops_sub_ulp_bits() {
        // 1.0 + 2^-62 in posit(8,2): fraction bits way below the 3
        // available -> rounds to 1.0.
        let frac = (1u64 << 63) | 1;
        assert_eq!(pack(false, 0, frac, false, 8, 2), 0b0100_0000);
        // sticky alone must not round up either
        assert_eq!(pack(false, 0, 1u64 << 63, true, 8, 2), 0b0100_0000);
    }

    #[test]
    fn rounding_ties_to_even_pattern() {
        // posit(8,2) around 1.0: body 0b100_00_ff with 2 frac bits... For
        // scale 0: regime "10" (2 bits), e (2 bits) = 00, frac 3 bits.
        // 1 + 2^-4 is exactly the midpoint between 1.0 (frac 000) and
        // 1.0625 (frac 001): round bit 1, sticky 0, lsb 0 -> stays 1.0.
        let frac = (1u64 << 63) | (1u64 << 59);
        assert_eq!(pack(false, 0, frac, false, 8, 2), 0b0100_0000);
        // 1 + 2^-4 + 2^-40: sticky breaks the tie upward.
        let frac = (1u64 << 63) | (1u64 << 59) | (1u64 << 23);
        assert_eq!(pack(false, 0, frac, false, 8, 2), 0b0100_0001);
        // 3/16 past an odd lsb: 1 + 2^-3 + 2^-4 -> midpoint above odd
        // pattern 001 -> rounds up to even 010.
        let frac = (1u64 << 63) | (1u64 << 60) | (1u64 << 59);
        assert_eq!(pack(false, 0, frac, false, 8, 2), 0b0100_0010);
    }

    #[test]
    fn values_between_minpos_and_next_round_by_pattern() {
        // posit(8,2): minpos = 2^-24 (pattern 0x01); next is pattern 0x02
        // = 2^-22 (regime 0000011? no: 0x02 body 0000010: run 5, k=-5,
        // terminator, remaining 0 -> e=0 (padded) -> 2^-20)... the
        // pattern-space neighbor decides rounding.
        let next = decode(0x02, 8, 2);
        let Decoded::Finite(u) = next else { panic!() };
        // Halfway *in pattern space* between 0x01 and 0x02 is determined
        // by the first dropped bit; 2^-21 (scale -21) has k=-6, e=3 ->
        // regime 0000001 (7 bits) fills the body, e dropped: round bit =
        // e MSB = 1, sticky = 1 (e LSB) -> rounds up to 0x02.
        let got = pack(false, -21, 1u64 << 63, false, 8, 2);
        assert_eq!(got, 0x02, "2^-21 rounds to {}", u.scale);
        // 2^-23: k=-6, e=1: round bit = 0 -> stays minpos.
        let got = pack(false, -23, 1u64 << 63, false, 8, 2);
        assert_eq!(got, 0x01);
    }
}
