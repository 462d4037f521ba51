//! Rounding onto the posit grid, and encoding grid values into bit
//! patterns.
//!
//! [`round`] is the crate's one rounding: round-to-nearest-even on the
//! bit pattern (as softposit and MArTo do) and the standard's saturation
//! at minpos and maxpos (a posit operation never rounds a nonzero value
//! to zero or to NaR). It works on the decoded magnitude and returns the
//! decoded magnitude of the chosen posit. [`encode`] then assembles that
//! posit's pattern exactly: regime, exponent and fraction in one `u64`
//! window, with nothing left to round.

use crate::decode::Format;

/// The Q1.63 significand of a power of two: the hidden bit alone.
pub(crate) const HIDDEN: u64 = 1 << 63;

/// Rounds the magnitude `frac/2^63 · 2^scale` to the nearest
/// `posit(N, ES)` magnitude, returned as its `(scale, frac)`.
///
/// `frac` is Q1.63 with the hidden bit set; `sticky` reports nonzero
/// value bits below its LSB (from a wider intermediate result).
///
/// The pattern keeps `N - 1 - regime_len - ES` fraction bits at `scale`
/// ([`crate::FormatInfo::fraction_bits_at_scale`]), so rounding needs
/// no pattern: where that count is positive it rounds `frac` alone,
/// with the fraction's last kept bit as the pattern's LSB. A carry out
/// of the significand gives `2^(scale + 1)`, the next posit, which is
/// what incrementing the pattern gives. Where the regime leaves no
/// fraction bits (and possibly truncates the exponent), [`round_short`]
/// rounds the exponent field instead.
#[inline]
pub(crate) fn round<const N: u32, const ES: u32>(
    scale: i64,
    frac: u64,
    sticky: bool,
) -> (i64, u64) {
    debug_assert!(frac >> 63 == 1, "hidden bit must be set");
    // The shift by ES is an immediate: k = floor(scale / 2^ES). The
    // regime is k + 2 bits long for k >= 0 and 1 - k below, and
    // k ^ (k >> 63) is k or -k - 1, so no branch picks the length.
    let k = scale >> ES;
    let fbits = i64::from(N) - 1 - ((k ^ (k >> 63)) + 2) - i64::from(ES);
    if fbits <= 0 {
        // Also every scale beyond maxpos's or minpos's binade: there the
        // regime alone would not fit.
        return round_short::<N, ES>(scale, frac, sticky);
    }
    // `drop` fraction bits fall below the pattern: 63 - fbits, in 2..=62.
    #[expect(clippy::cast_possible_truncation, reason = "fbits is in 1..=N - 3")]
    let drop = (63 - fbits) as u32;
    let lsb = (frac >> drop) & 1;
    // Adding half an ulp, less one unless a tie should go up (the kept
    // LSB is odd, or the sticky bit breaks the tie), carries into the
    // kept bits exactly when round-to-nearest-even rounds up.
    let bias = (1 << (drop - 1)) - 1 + (lsb | u64::from(sticky));
    match frac.overflowing_add(bias) {
        (_, true) => (scale + 1, HIDDEN),
        (r, false) => (scale, r & (u64::MAX << drop)),
    }
}

/// [`round`] where the regime leaves no fraction bits: saturation, and
/// the `avail <= ES` body bits left after the regime, where the pattern
/// ends inside the exponent field (or, at `avail == 0`, with the
/// regime's terminator) and every posit of regime `k` is a power of two
/// whose exponent's low `ES - avail` bits are zero.
#[cold]
fn round_short<const N: u32, const ES: u32>(scale: i64, frac: u64, sticky: bool) -> (i64, u64) {
    // Saturation: values at or beyond maxpos's binade clamp to maxpos;
    // values strictly below minpos's binade clamp to minpos (never zero).
    let max = Format::<N, ES>::MAXPOS_SCALE;
    if scale >= max {
        return (max, HIDDEN);
    }
    if scale < -max {
        return (-max, HIDDEN);
    }
    let k = scale >> ES;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "in range the regime is at most N - 1 bits long, so avail is in 0..=ES"
    )]
    let avail = (i64::from(N) - 1 - ((k ^ (k >> 63)) + 2)) as u32;
    // The exponent field, in 0..2^ES.
    let e = (scale - (k << ES)) as u128;
    // The ES + 63 bits after the regime: exponent, then fraction.
    let tail = (e << 63) | u128::from(frac & !HIDDEN);
    let drop = ES + 63 - avail;
    let kept = tail >> drop;
    let round_bit = (tail >> (drop - 1)) & 1 == 1;
    let rest = tail & ((1 << (drop - 1)) - 1) != 0 || sticky;
    // The pattern's LSB: the last kept exponent bit, or else the regime's
    // terminator, a one for k < 0 and a zero for k >= 0.
    let lsb = if avail > 0 { kept & 1 == 1 } else { k < 0 };
    let kept = kept + u128::from(round_bit && (rest || lsb));
    if kept >> avail != 0 {
        // Carried out of the exponent field: the first posit of regime
        // k + 1, which is maxpos when k + 1 = N - 2.
        ((k + 1) << ES, HIDDEN)
    } else {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "kept < 2^avail, so the shifted exponent is below 2^ES"
        )]
        let e = (kept << (ES - avail)) as i64;
        ((k << ES) + e, HIDDEN)
    }
}

/// The pattern of the `posit(N, ES)` magnitude `frac/2^63 · 2^scale`,
/// which must be a posit: a value [`round`] returned, or a decoded one.
/// `negative` selects the two's-complement encoding.
#[inline]
pub(crate) fn encode<const N: u32, const ES: u32>(negative: bool, scale: i64, frac: u64) -> u64 {
    debug_assert!(frac >> 63 == 1, "hidden bit must be set");
    let body = if scale >= Format::<N, ES>::MAXPOS_SCALE {
        Format::<N, ES>::BODY
    } else {
        // The shifts by ES are immediates: k = floor(scale / 2^ES).
        let k = scale >> ES;
        let e = (scale & ((1 << ES) - 1)) as u64;
        debug_assert!((-(i64::from(N) - 2)..(i64::from(N) - 2)).contains(&k));
        // Regime, left-aligned: k+1 ones then a zero for k >= 0, -k zeros
        // then a one for k < 0. With m = k ^ (k >> 63), which is k or
        // -k - 1, that is m + 1 ones, with the run flipped into its
        // terminator for k < 0; no branch picks it. Its length m + 2 is at
        // most N - 1 <= 63.
        let m = k ^ (k >> 63);
        let flip = (k >> 63) as u64 & (i64::MIN >> (m + 1)) as u64;
        let (regime, len) = ((i64::MIN >> m) as u64 ^ flip, m + 2);
        // Exponent ++ the 63 fraction bits, left-aligned; on the grid,
        // every bit that falls below the N - 1 body bits is zero.
        let fbits = frac << 1;
        let tail = if ES == 0 {
            fbits
        } else {
            (e << (64 - ES)) | (fbits >> ES)
        };
        let window = regime | (tail >> len);
        debug_assert!(
            window << (N - 1) == 0
                && (ES == 0 || fbits << (64 - ES) == 0)
                && tail << (64 - len) == 0,
            "not a posit(N, ES) value"
        );
        window >> (65 - N)
    };
    if negative {
        body.wrapping_neg() & Format::<N, ES>::MASK
    } else {
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, Decoded, Unpacked};

    /// The nearest pattern: [`round`], then [`encode`].
    fn pack<const N: u32, const ES: u32>(
        negative: bool,
        scale: i64,
        frac: u64,
        sticky: bool,
    ) -> u64 {
        let (scale, frac) = round::<N, ES>(scale, frac, sticky);
        encode::<N, ES>(negative, scale, frac)
    }

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
