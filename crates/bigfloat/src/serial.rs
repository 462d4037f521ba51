//! Exact binary serialization of [`BigFloat`] values.
//!
//! The oracle cache persists 256-bit (and higher) oracle results across
//! runs, so the on-disk form must reconstruct *every bit* of the value:
//! routing through `to_f64` would collapse the sub-`2^-1074` magnitudes
//! the whole evaluation is about. This module writes the representation
//! itself — sign, kind, binary exponent, precision, and the raw
//! significand limbs — and reads it back without normalizing or
//! rounding, so `read_bytes(write_bytes(x)) == x` limb for limb.
//!
//! ## Wire format (little-endian throughout)
//!
//! ```text
//! byte 0        tag: bits 0-1 kind (0 zero, 1 normal, 2 inf, 3 nan),
//!               bit 4 sign (set = negative); other bits must be zero
//! bytes 1..5    precision in bits (u32)
//! -- Normal values only --
//! bytes 5..13   binary exponent (i64)
//! bytes 13..    ceil(prec/64) significand limbs (u64 each)
//! ```
//!
//! [`BigFloat::read_bytes`] validates everything the representation
//! invariants require (precision range, limb count, normalized top bit,
//! cleared sub-precision bits), so corrupt or truncated input is a
//! [`SerialError`], never a silently wrong value.

use crate::repr::{BigFloat, Kind, Sign, MAX_PREC, MIN_PREC};

/// A failure while decoding serialized [`BigFloat`] bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SerialError {
    /// What was malformed.
    pub message: String,
}

impl SerialError {
    fn new(message: impl Into<String>) -> SerialError {
        SerialError {
            message: message.into(),
        }
    }
}

impl core::fmt::Display for SerialError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bigfloat deserialization: {}", self.message)
    }
}

impl std::error::Error for SerialError {}

const TAG_KIND_MASK: u8 = 0b0000_0011;
const TAG_SIGN_NEG: u8 = 0b0001_0000;

fn kind_code(kind: Kind) -> u8 {
    match kind {
        Kind::Zero => 0,
        Kind::Normal => 1,
        Kind::Inf => 2,
        Kind::Nan => 3,
    }
}

impl BigFloat {
    /// Appends the exact binary encoding of this value to `out` (see
    /// the [module docs](self) for the wire format).
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        let mut tag = kind_code(self.kind());
        if self.sign() == Sign::Neg {
            tag |= TAG_SIGN_NEG;
        }
        out.push(tag);
        out.extend_from_slice(&self.precision().to_le_bytes());
        if self.kind() == Kind::Normal {
            let exp = self.exponent().expect("normal value has an exponent");
            out.extend_from_slice(&exp.to_le_bytes());
            for limb in self.limbs() {
                out.extend_from_slice(&limb.to_le_bytes());
            }
        }
    }

    /// The exact binary encoding as a fresh byte vector.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes(&mut out);
        out
    }

    /// Decodes one value from the front of `bytes`, returning it with
    /// the number of bytes consumed. The decode is strict: every
    /// representation invariant is checked, so the returned value is
    /// bit-for-bit the one [`BigFloat::write_bytes`] encoded.
    ///
    /// # Errors
    ///
    /// Returns a [`SerialError`] for truncated input, an unknown tag,
    /// an out-of-range precision, a wrong limb count, or a significand
    /// that is not in normalized form.
    pub fn read_bytes(bytes: &[u8]) -> Result<(BigFloat, usize), SerialError> {
        let need = |n: usize| -> Result<(), SerialError> {
            if bytes.len() < n {
                Err(SerialError::new(format!(
                    "truncated: need {n} bytes, have {}",
                    bytes.len()
                )))
            } else {
                Ok(())
            }
        };
        need(5)?;
        let tag = bytes[0];
        if tag & !(TAG_KIND_MASK | TAG_SIGN_NEG) != 0 {
            return Err(SerialError::new(format!("invalid tag byte {tag:#04x}")));
        }
        let sign = if tag & TAG_SIGN_NEG != 0 {
            Sign::Neg
        } else {
            Sign::Pos
        };
        let kind = match tag & TAG_KIND_MASK {
            0 => Kind::Zero,
            1 => Kind::Normal,
            2 => Kind::Inf,
            _ => Kind::Nan,
        };
        let prec = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes"));
        if !(MIN_PREC..=MAX_PREC).contains(&prec) {
            return Err(SerialError::new(format!("precision {prec} out of range")));
        }
        if kind != Kind::Normal {
            // Zero and NaN are canonically positive in this
            // representation (there is a single zero, like posit).
            if sign == Sign::Neg && kind != Kind::Inf {
                return Err(SerialError::new("negative sign on zero/NaN"));
            }
            return Ok((BigFloat::from_parts_exact(sign, kind, 0, &[], prec), 5));
        }
        let nlimbs = prec.div_ceil(64) as usize;
        let total = 5 + 8 + nlimbs * 8;
        need(total)?;
        let exp = i64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
        let limbs: Vec<u64> = (0..nlimbs)
            .map(|i| {
                let at = 13 + i * 8;
                u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
            })
            .collect();
        if limbs[nlimbs - 1] >> 63 != 1 {
            return Err(SerialError::new("significand top bit not set"));
        }
        // Bits below the precision must be zero: the representation
        // keeps exactly `prec` significant bits left-aligned in the
        // limbs, and the rounding core cleared everything beneath them.
        let spare = nlimbs as u32 * 64 - prec;
        let spare_limbs = (spare / 64) as usize;
        if limbs[..spare_limbs].iter().any(|&l| l != 0)
            || (spare % 64 != 0 && limbs[spare_limbs] & ((1u64 << (spare % 64)) - 1) != 0)
        {
            return Err(SerialError::new("set bits below the stated precision"));
        }
        Ok((
            BigFloat::from_parts_exact(sign, kind, exp, &limbs, prec),
            total,
        ))
    }
}

/// True when two values are identical *representations* — same sign,
/// kind, exponent, precision, and limbs — not merely numerically equal
/// (`PartialEq` treats `2.0` at 53 and 256 bits as equal; this does
/// not, and it distinguishes NaN payloads' kinds properly by never
/// comparing through arithmetic).
#[must_use]
pub fn bit_identical(a: &BigFloat, b: &BigFloat) -> bool {
    a.sign() == b.sign()
        && a.kind() == b.kind()
        && a.exponent() == b.exponent()
        && a.precision() == b.precision()
        && a.limbs() == b.limbs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::Context;

    fn round_trip(x: &BigFloat) {
        let bytes = x.to_bytes();
        let (back, used) = BigFloat::read_bytes(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert!(bit_identical(x, &back), "{x:?} vs {back:?}");
    }

    #[test]
    fn specials_round_trip() {
        round_trip(&BigFloat::zero());
        round_trip(&BigFloat::nan());
        round_trip(&BigFloat::infinity(Sign::Pos));
        round_trip(&BigFloat::infinity(Sign::Neg));
    }

    #[test]
    fn normals_round_trip_bit_exactly() {
        for x in [
            BigFloat::from_f64(0.3),
            BigFloat::from_f64(-1.0e-300),
            BigFloat::pow2(-2_900_000),
            BigFloat::from_u64(u64::MAX),
        ] {
            round_trip(&x);
        }
        // A 256-bit product with a full significand.
        let ctx = Context::new(256);
        let mut p = BigFloat::one();
        let third = ctx.div(&BigFloat::one(), &BigFloat::from_u64(3));
        for _ in 0..40 {
            p = ctx.mul(&p, &third);
        }
        round_trip(&p);
    }

    #[test]
    fn non_limb_aligned_precisions_round_trip() {
        for prec in [2, 3, 24, 53, 63, 64, 65, 100, 127, 129, 1000] {
            let ctx = Context::new(prec);
            let x = ctx.div(&BigFloat::from_u64(2), &BigFloat::from_u64(7));
            assert_eq!(x.precision(), prec);
            round_trip(&x);
        }
    }

    #[test]
    fn values_concatenate_and_split() {
        let vals = [
            BigFloat::from_f64(1.5),
            BigFloat::zero(),
            BigFloat::pow2(-9),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            v.write_bytes(&mut buf);
        }
        let mut at = 0;
        for v in &vals {
            let (back, used) = BigFloat::read_bytes(&buf[at..]).unwrap();
            assert!(bit_identical(v, &back));
            at += used;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn corrupt_bytes_are_rejected_not_misread() {
        let good = BigFloat::from_f64(0.3).to_bytes();
        // Truncation at every prefix length fails cleanly.
        for n in 0..good.len() {
            assert!(BigFloat::read_bytes(&good[..n]).is_err(), "prefix {n}");
        }
        // Unknown tag bits.
        let mut bad = good.clone();
        bad[0] |= 0b0100_0000;
        assert!(BigFloat::read_bytes(&bad).is_err());
        // Precision zero / out of range.
        let mut bad = good.clone();
        bad[1..5].copy_from_slice(&0u32.to_le_bytes());
        assert!(BigFloat::read_bytes(&bad).is_err());
        let mut bad = good.clone();
        bad[1..5].copy_from_slice(&(MAX_PREC + 1).to_le_bytes());
        assert!(BigFloat::read_bytes(&bad).is_err());
        // Clearing the top limb's high bit denormalizes the significand.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] &= 0x7F;
        assert!(BigFloat::read_bytes(&bad).is_err());
        // Setting a bit below the precision violates the invariant
        // (0.3 at 53 bits leaves the low 11 bits of its limb clear).
        let mut bad = good;
        bad[13] |= 1;
        assert!(BigFloat::read_bytes(&bad).is_err());
    }

    #[test]
    fn negative_zero_and_nan_are_rejected() {
        let mut z = BigFloat::zero().to_bytes();
        z[0] |= TAG_SIGN_NEG;
        assert!(BigFloat::read_bytes(&z).is_err());
        let mut n = BigFloat::nan().to_bytes();
        n[0] |= TAG_SIGN_NEG;
        assert!(BigFloat::read_bytes(&n).is_err());
    }
}
