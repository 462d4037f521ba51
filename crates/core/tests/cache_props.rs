//! Property tests for the oracle cache: key sensitivity and the
//! bit-exactness of the BigFloat serialization it stores.
//!
//! The cache is only safe if (a) any change to a sweep's identity
//! changes its content address — no stale entry can ever be served for
//! new inputs — and (b) the value encoding is a bijection on the
//! representation: what comes back from disk is limb-for-limb what the
//! sweep computed, at every precision the oracle might run at
//! (`to_f64` round-tripping would silently destroy every sub-binary64
//! magnitude the paper studies).

use compstat_core::bigfloat::{bit_identical, BigFloat, Context, Sign};
use compstat_core::cache::{decode_values, encode_values, CacheKey};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

fn arb_ident(rng: &mut StdRng) -> String {
    const CHARS: &[char] = &['a', 'b', 'z', '0', '9', '-', '_', '/', '='];
    let len = rng.gen_range(1usize..10);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// A random sweep identity: experiment, scale, seed, precision.
#[derive(Clone, Debug, PartialEq)]
struct SweepId {
    experiment: String,
    scale: String,
    seed: u64,
    prec: u32,
}

struct ArbSweepId;

impl Strategy for ArbSweepId {
    type Value = SweepId;

    fn sample(&self, rng: &mut StdRng) -> Option<SweepId> {
        Some(SweepId {
            experiment: arb_ident(rng),
            scale: ["quick", "default", "full"][rng.gen_range(0usize..3)].to_string(),
            seed: rng.gen::<u64>() >> rng.gen_range(0u32..60),
            prec: rng.gen_range(24u32..=4096),
        })
    }
}

fn key_of(id: &SweepId) -> CacheKey {
    CacheKey::new("pbd/oracle-pvalues")
        .field("kernel", "v1")
        .field("experiment", &id.experiment)
        .field("scale", &id.scale)
        .field("seed", id.seed)
        .field("prec", id.prec)
}

/// A random `BigFloat` at the given precision: mostly full-significand
/// normals (a quotient of random integers carries ~`prec` random
/// bits), spanning huge positive and negative binary exponents, plus
/// the special values and exact powers of two.
fn arb_bigfloat(rng: &mut StdRng, prec: u32) -> BigFloat {
    match rng.gen_range(0u32..12) {
        0 => BigFloat::zero().round_to(prec),
        1 => BigFloat::nan().round_to(prec),
        2 => BigFloat::infinity(Sign::Pos).round_to(prec),
        3 => BigFloat::infinity(Sign::Neg).round_to(prec),
        4 => BigFloat::pow2(rng.gen_range(-3_000_000i64..3_000_000)).round_to(prec),
        _ => {
            let ctx = Context::new(prec);
            let a = BigFloat::from_u64(rng.gen::<u64>() | 1);
            let b = BigFloat::from_u64(rng.gen::<u64>() | (1 << 63));
            let q = ctx.div(&a, &b);
            let q = if rng.gen::<bool>() { q.neg() } else { q };
            q.mul_pow2(rng.gen_range(-2_900_000i64..2_900_000))
        }
    }
}

struct ArbVector;

impl Strategy for ArbVector {
    type Value = Vec<BigFloat>;

    fn sample(&self, rng: &mut StdRng) -> Option<Vec<BigFloat>> {
        let prec = rng.gen_range(24u32..=4096);
        let n = rng.gen_range(0usize..8);
        Some((0..n).map(|_| arb_bigfloat(rng, prec)).collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Equal sweep identities address the same entry (that is what a
    // cache *hit* is), and changing any single component of the
    // identity moves to a different entry.
    #[test]
    fn key_digest_separates_every_identity_component(id in ArbSweepId) {
        let digest = key_of(&id).digest();
        prop_assert_eq!(&key_of(&id).digest(), &digest);

        let mut other = id.clone();
        other.experiment.push('x');
        prop_assert!(key_of(&other).digest() != digest);

        let mut other = id.clone();
        other.scale = if other.scale == "quick" { "full".into() } else { "quick".into() };
        prop_assert!(key_of(&other).digest() != digest);

        let mut other = id.clone();
        other.seed = other.seed.wrapping_add(1);
        prop_assert!(key_of(&other).digest() != digest);

        let mut other = id.clone();
        other.prec = if other.prec == 24 { 25 } else { other.prec - 1 };
        prop_assert!(key_of(&other).digest() != digest);
    }

    // The store's value encoding is bit-exact at every oracle
    // precision from 24 to 4096 bits — sign, kind, exponent, precision
    // tag, and every significand limb survive the disk round trip —
    // and an entry decodes under its own key's digest only.
    #[test]
    fn encode_decode_round_trips_bit_exactly_at_any_precision(
        values in ArbVector,
        id in ArbSweepId,
    ) {
        let digest = key_of(&id).digest();
        let bytes = encode_values(&digest, &values);
        let mut other = id.clone();
        other.seed = other.seed.wrapping_add(1);
        prop_assert!(decode_values(&key_of(&other).digest(), &bytes).is_err());
        let back = match decode_values(&digest, &bytes) {
            Ok(v) => v,
            Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e}"))),
        };
        prop_assert_eq!(back.len(), values.len());
        for (i, (a, b)) in values.iter().zip(&back).enumerate() {
            prop_assert!(bit_identical(a, b), "value {} changed: {:?} vs {:?}", i, a, b);
        }
    }

    // No truncation of an encoded vector decodes: every strict prefix
    // is rejected, so a torn cache write can never be served.
    #[test]
    fn truncated_encodings_never_decode(values in ArbVector, id in ArbSweepId) {
        let digest = key_of(&id).digest();
        let bytes = encode_values(&digest, &values);
        // Probe a spread of prefix lengths (all of them on short
        // buffers; a sample on long ones).
        let step = (bytes.len() / 64).max(1);
        for n in (0..bytes.len()).step_by(step) {
            prop_assert!(decode_values(&digest, &bytes[..n]).is_err(), "prefix {} decoded", n);
        }
    }
}
