//! Property tests for posit arithmetic, cross-validated against the
//! BigFloat oracle.

use compstat_bigfloat::{BigFloat, Context};
use compstat_posit::{
    Decoded, Posit, P16E2, P32E2, P64E12, P64E15, P64E18, P64E21, P64E6, P64E9, P8E2,
};
use proptest::prelude::*;

/// A strategy over valid (non-NaR) posit bit patterns.
fn posit_bits(n: u32) -> impl Strategy<Value = u64> {
    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let nar = 1u64 << (n - 1);
    proptest::num::u64::ANY
        .prop_map(move |b| b & mask)
        .prop_filter("NaR", move |&b| b != nar)
}

/// Checks that `got` is within one pattern step of the correctly rounded
/// result of `exact` (faithful rounding in pattern space).
fn assert_faithful<const N: u32, const ES: u32>(got: Posit<N, ES>, exact: &BigFloat, what: &str) {
    // Round-trip the exact value through from_bigfloat: that *is* the
    // pattern-RNE result, so `got` must match it exactly...
    let want = Posit::<N, ES>::from_bigfloat(exact);
    assert_eq!(got, want, "{what}: got {got:?}, correctly rounded {want:?}");
}

macro_rules! oracle_props {
    ($modname:ident, $ty:ty, $n:expr) => {
        mod $modname {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(300))]

                #[test]
                fn add_matches_oracle(a in posit_bits($n), b in posit_bits($n)) {
                    let pa = <$ty>::from_bits(a);
                    let pb = <$ty>::from_bits(b);
                    let ctx = Context::new(300);
                    let exact = ctx.add(&pa.to_bigfloat(), &pb.to_bigfloat());
                    assert_faithful(pa + pb, &exact, "add");
                }

                #[test]
                fn mul_matches_oracle(a in posit_bits($n), b in posit_bits($n)) {
                    let pa = <$ty>::from_bits(a);
                    let pb = <$ty>::from_bits(b);
                    let ctx = Context::new(300);
                    let exact = ctx.mul(&pa.to_bigfloat(), &pb.to_bigfloat());
                    assert_faithful(pa * pb, &exact, "mul");
                }

                #[test]
                fn sub_matches_oracle(a in posit_bits($n), b in posit_bits($n)) {
                    let pa = <$ty>::from_bits(a);
                    let pb = <$ty>::from_bits(b);
                    let ctx = Context::new(300);
                    let exact = ctx.sub(&pa.to_bigfloat(), &pb.to_bigfloat());
                    assert_faithful(pa - pb, &exact, "sub");
                }

                #[test]
                fn div_matches_oracle(a in posit_bits($n), b in posit_bits($n)) {
                    let pb = <$ty>::from_bits(b);
                    prop_assume!(!pb.is_zero());
                    let pa = <$ty>::from_bits(a);
                    let ctx = Context::new(300);
                    let exact = ctx.div(&pa.to_bigfloat(), &pb.to_bigfloat());
                    assert_faithful(pa / pb, &exact, "div");
                }

                #[test]
                fn bigfloat_round_trip(a in posit_bits($n)) {
                    let p = <$ty>::from_bits(a);
                    prop_assert_eq!(<$ty>::from_bigfloat(&p.to_bigfloat()), p);
                }

                #[test]
                fn ordering_matches_value_order(a in posit_bits($n), b in posit_bits($n)) {
                    let pa = <$ty>::from_bits(a);
                    let pb = <$ty>::from_bits(b);
                    let va = pa.to_bigfloat();
                    let vb = pb.to_bigfloat();
                    prop_assert_eq!(Some(pa.cmp(&pb)), va.partial_cmp(&vb));
                }

                #[test]
                fn add_commutes(a in posit_bits($n), b in posit_bits($n)) {
                    let pa = <$ty>::from_bits(a);
                    let pb = <$ty>::from_bits(b);
                    prop_assert_eq!(pa + pb, pb + pa);
                }

                #[test]
                fn mul_commutes(a in posit_bits($n), b in posit_bits($n)) {
                    let pa = <$ty>::from_bits(a);
                    let pb = <$ty>::from_bits(b);
                    prop_assert_eq!(pa * pb, pb * pa);
                }

                #[test]
                fn negation_distributes_over_add(a in posit_bits($n), b in posit_bits($n)) {
                    let pa = <$ty>::from_bits(a);
                    let pb = <$ty>::from_bits(b);
                    // Posit negation is exact, so -(a+b) == (-a)+(-b).
                    prop_assert_eq!(-(pa + pb), (-pa) + (-pb));
                }

                #[test]
                fn identity_elements(a in posit_bits($n)) {
                    let p = <$ty>::from_bits(a);
                    prop_assert_eq!(p + <$ty>::ZERO, p);
                    prop_assert_eq!(p * <$ty>::ONE, p);
                    prop_assert_eq!(p - p, <$ty>::ZERO);
                    if !p.is_zero() {
                        prop_assert_eq!(p / p, <$ty>::ONE);
                    }
                }

                #[test]
                fn decode_scale_in_range(a in posit_bits($n)) {
                    let p = <$ty>::from_bits(a);
                    if let Decoded::Finite(u) = p.decode() {
                        let info = <$ty>::format_info();
                        prop_assert!(u.scale >= info.min_positive_exp());
                        prop_assert!(u.scale <= info.max_exp());
                        prop_assert!(u.frac >> 63 == 1);
                    }
                }

                #[test]
                fn encode_decode_round_trip(a in posit_bits($n)) {
                    // Decoding a pattern into (sign, scale, significand)
                    // and re-encoding must reproduce the pattern exactly:
                    // decode and pack are mutual inverses on valid
                    // patterns (no rounding can occur, since the decoded
                    // fields came from a representable value).
                    let p = <$ty>::from_bits(a);
                    match p.decode() {
                        Decoded::Finite(u) => {
                            let packed = <$ty>::from_parts(u.negative, u.scale, u.frac);
                            prop_assert_eq!(packed.to_bits(), a, "decode->pack drifted");
                        }
                        Decoded::Zero => prop_assert!(p.is_zero()),
                        Decoded::NaR => prop_assert!(false, "posit_bits filters NaR"),
                    }
                }
            }
        }
    };
}

oracle_props!(p8e2, P8E2, 8);
oracle_props!(p16e2, P16E2, 16);
oracle_props!(p32e2, P32E2, 32);
oracle_props!(p64e6, P64E6, 64);
oracle_props!(p64e9, P64E9, 64);
oracle_props!(p64e12, P64E12, 64);
oracle_props!(p64e15, P64E15, 64);
oracle_props!(p64e18, P64E18, 64);
oracle_props!(p64e21, P64E21, 64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn f64_conversion_faithful(x in proptest::num::f64::NORMAL) {
        // from_f64 must agree with the BigFloat path exactly.
        let via_bf = P64E12::from_bigfloat(&BigFloat::from_f64(x));
        prop_assert_eq!(P64E12::from_f64(x), via_bf);
        let via_bf9 = P64E9::from_bigfloat(&BigFloat::from_f64(x));
        prop_assert_eq!(P64E9::from_f64(x), via_bf9);
    }

    #[test]
    fn f64_subnormal_conversion_faithful(bits in 1u64..(1u64 << 52)) {
        let x = f64::from_bits(bits);
        let via_bf = P64E18::from_bigfloat(&BigFloat::from_f64(x));
        prop_assert_eq!(P64E18::from_f64(x), via_bf);
    }

    #[test]
    fn probability_products_never_underflow(
        scales in proptest::collection::vec(-400i64..-1, 1..60),
    ) {
        // Multiplying probabilities 2^s with total scale within range must
        // never produce zero — the paper's core claim for posits.
        let total: i64 = scales.iter().sum();
        prop_assume!(total > P64E18::format_info().min_positive_exp());
        let mut acc = P64E18::ONE;
        for &s in &scales {
            acc *= P64E18::from_parts(false, s, 1 << 63);
        }
        prop_assert!(!acc.is_zero());
        prop_assert_eq!(acc.scale(), Some(total));
    }
}
