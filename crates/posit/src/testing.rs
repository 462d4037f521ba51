//! The runtime-`(n, es)` posit datapath that the const-generic kernels
//! replaced, kept verbatim as their differential reference
//! (`tests/kernels.rs`, and the forward and PBD recurrences' posit tests
//! in `compstat-hmm` and `compstat-pbd`), plus the `f64` import on top
//! of its `pack`. Not a public API, and nothing outside the tests calls
//! it.
//!
//! Every function takes the width `n` and exponent size `es` as
//! arguments, aligns in `u128` and packs through a variable-position
//! `u128` assembler.

#![expect(
    clippy::cast_possible_truncation,
    reason = "frozen reference: each u128 -> u64 cast takes a half or a quotient below 2^64, and the kernels it checks carry the reviewed casts"
)]

use crate::decode::{Decoded, Unpacked};

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

#[inline]
fn nar_bits(n: u32) -> u64 {
    1u64 << (n - 1)
}

/// Rounds an `f64` to the nearest `n`-bit, `es`-exponent posit pattern
/// (NaN and infinities become NaR): its sign, scale and Q1.63
/// significand, packed.
pub fn from_f64_bits(x: f64, n: u32, es: u32) -> u64 {
    if x == 0.0 {
        return 0;
    }
    if !x.is_finite() {
        return nar_bits(n);
    }
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7FF) as i64;
    let mantissa = bits & ((1u64 << 52) - 1);
    let (scale, frac) = if biased == 0 {
        // Subnormal: value = mantissa * 2^-1074.
        let shift = mantissa.leading_zeros();
        (-1011 - shift as i64, mantissa << shift)
    } else {
        (biased - 1023, (mantissa << 11) | (1u64 << 63))
    };
    pack(bits >> 63 == 1, scale, frac, false, n, es)
}

/// Exact negation: two's complement of the pattern.
#[inline]
pub fn neg_bits(a: u64, n: u32) -> u64 {
    a.wrapping_neg() & mask(n)
}

/// Posit addition.
pub fn add_bits(a: u64, b: u64, n: u32, es: u32) -> u64 {
    let da = decode(a, n, es);
    let db = decode(b, n, es);
    match (da, db) {
        (Decoded::NaR, _) | (_, Decoded::NaR) => nar_bits(n),
        (Decoded::Zero, _) => b,
        (_, Decoded::Zero) => a,
        (Decoded::Finite(x), Decoded::Finite(y)) => add_unpacked(x, y, n, es),
    }
}

/// Posit subtraction (`a + (-b)`).
pub fn sub_bits(a: u64, b: u64, n: u32, es: u32) -> u64 {
    add_bits(a, neg_bits(b, n), n, es)
}

fn add_unpacked(x: Unpacked, y: Unpacked, n: u32, es: u32) -> u64 {
    // Order by magnitude: |big| >= |small|.
    let (big, small) = if (x.scale, x.frac) >= (y.scale, y.frac) {
        (x, y)
    } else {
        (y, x)
    };
    let d = (big.scale - small.scale) as u64; // >= 0

    // Fixed point with the hidden bit of `big` at bit 126 (one headroom
    // bit at 127 for the same-sign carry).
    let abig = (big.frac as u128) << 63;
    let asmall_full = (small.frac as u128) << 63;
    let (asmall, small_sticky) = if d >= 127 {
        (0u128, true)
    } else {
        let shifted = asmall_full >> d;
        let lost = d > 0 && asmall_full & (((1u128) << d) - 1) != 0;
        (shifted, lost)
    };

    if big.negative == small.negative {
        let sum = abig + asmall;
        let (scale_adj, frac, mut sticky) = normalize_sum(sum);
        sticky |= small_sticky;
        pack(big.negative, big.scale + scale_adj, frac, sticky, n, es)
    } else {
        let mut diff = abig - asmall;
        let mut sticky = false;
        if small_sticky {
            // True value is diff - epsilon, epsilon in (0,1) array ulps:
            // rewrite as (diff - 1) + (1 - epsilon) to keep the residue
            // positive for the sticky bit.
            diff -= 1;
            sticky = true;
        }
        if diff == 0 {
            return 0; // exact cancellation
        }
        let top = 127 - diff.leading_zeros() as i64;
        // Renormalize the hidden bit to position 126 (top <= 126 since the
        // difference cannot exceed the larger operand).
        let shift = 126 - top;
        debug_assert!(shift >= 0);
        let v = diff << shift;
        let scale_adj = -shift;
        let frac = (v >> 63) as u64;
        sticky |= v & ((1u128 << 63) - 1) != 0;
        pack(big.negative, big.scale + scale_adj, frac, sticky, n, es)
    }
}

/// Normalizes a sum with hidden bits at 126 (result top at 126 or 127).
#[inline]
fn normalize_sum(sum: u128) -> (i64, u64, bool) {
    if sum >> 127 != 0 {
        // Carry: top at 127 -> scale + 1.
        let frac = (sum >> 64) as u64;
        let sticky = sum as u64 != 0;
        (1, frac, sticky)
    } else {
        debug_assert!(sum >> 126 != 0);
        let frac = (sum >> 63) as u64;
        let sticky = sum & ((1u128 << 63) - 1) != 0;
        (0, frac, sticky)
    }
}

/// Posit multiplication.
pub fn mul_bits(a: u64, b: u64, n: u32, es: u32) -> u64 {
    let da = decode(a, n, es);
    let db = decode(b, n, es);
    match (da, db) {
        (Decoded::NaR, _) | (_, Decoded::NaR) => nar_bits(n),
        (Decoded::Zero, _) | (_, Decoded::Zero) => 0,
        (Decoded::Finite(x), Decoded::Finite(y)) => {
            let negative = x.negative != y.negative;
            // Q1.63 * Q1.63 = Q2.126: product in [2^126, 2^128).
            let p = x.frac as u128 * y.frac as u128;
            let (scale_adj, frac, sticky) = normalize_sum(p);
            pack(negative, x.scale + y.scale + scale_adj, frac, sticky, n, es)
        }
    }
}

/// Posit division.
pub fn div_bits(a: u64, b: u64, n: u32, es: u32) -> u64 {
    let da = decode(a, n, es);
    let db = decode(b, n, es);
    match (da, db) {
        (Decoded::NaR, _) | (_, Decoded::NaR) => nar_bits(n),
        // x/0 is NaR (no infinities in posit); 0/x is 0.
        (_, Decoded::Zero) => nar_bits(n),
        (Decoded::Zero, Decoded::Finite(_)) => 0,
        (Decoded::Finite(x), Decoded::Finite(y)) => {
            let negative = x.negative != y.negative;
            // Compute fa/fb in (1/2, 2) with 64 quotient bits + remainder.
            let (num_shift, scale_adj) = if x.frac >= y.frac {
                (63u32, 0i64)
            } else {
                (64, -1)
            };
            let num = (x.frac as u128) << num_shift;
            let q = num / y.frac as u128;
            let rem = num % y.frac as u128;
            debug_assert!(q >> 63 == 1, "quotient normalized to Q1.63");
            pack(
                negative,
                x.scale - y.scale + scale_adj,
                q as u64,
                rem != 0,
                n,
                es,
            )
        }
    }
}
