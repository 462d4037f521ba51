//! Bit-identity of the const-generic kernels with the runtime-`(n, es)`
//! datapath they replaced (`compstat_posit::testing`), three ways: every
//! pair at posit(8, es), a seeded million pairs per posit(16, es), and a
//! seeded sweep at each of the six posit(64, es) formats of Table I.
//! Every pair runs twice: through `Posit`'s operators, and through
//! [`PositValue`]'s, whose decoded result must be the reference posit's
//! decoded value, so a chain of value operations gives the same bits.
//!
//! The seeded operands lean toward the cases where a datapath goes wrong:
//! near-equal magnitudes of opposite sign (cancellation), long regimes
//! (saturation at maxpos and minpos), zero and NaR, and dense against
//! sparse significands a few binades apart (carries, exact ties and the
//! sticky bit).

use compstat_posit::{testing, Posit, PositValue};

/// Checks `+ - * /`, negation and decode of one pair against the
/// reference, on patterns and on decoded values.
fn check<const N: u32, const ES: u32>(a: u64, b: u64) {
    let (pa, pb) = (Posit::<N, ES>::from_bits(a), Posit::<N, ES>::from_bits(b));
    let (va, vb) = (PositValue::from_posit(pa), PositValue::from_posit(pb));
    let ops: [(&str, Posit<N, ES>, PositValue<N, ES>, u64); 5] = [
        ("add", pa + pb, va + vb, testing::add_bits(a, b, N, ES)),
        ("sub", pa - pb, va - vb, testing::sub_bits(a, b, N, ES)),
        ("mul", pa * pb, va * vb, testing::mul_bits(a, b, N, ES)),
        ("div", pa / pb, va / vb, testing::div_bits(a, b, N, ES)),
        ("neg", -pa, -va, testing::neg_bits(a, N)),
    ];
    for (op, got, value, want) in ops {
        assert_eq!(
            got.to_bits(),
            want,
            "posit({N},{ES}) {op}({a:#x}, {b:#x}): kernel {:#x}, reference {want:#x}",
            got.to_bits()
        );
        assert_eq!(
            value,
            PositValue::from_posit(Posit::from_bits(want)),
            "posit({N},{ES}) value {op}({a:#x}, {b:#x}): reference {want:#x}"
        );
        assert_eq!(value.to_posit().to_bits(), want, "posit({N},{ES}) encode");
    }
    assert_eq!(
        pa.decode(),
        testing::decode(a, N, ES),
        "posit({N},{ES}) decode({a:#x})"
    );
}

fn all_pairs<const ES: u32>() {
    for a in 0..256 {
        for b in 0..256 {
            check::<8, ES>(a, b);
        }
    }
}

#[test]
fn every_posit8_pair_matches_the_reference() {
    all_pairs::<0>();
    all_pairs::<1>();
    all_pairs::<2>();
    all_pairs::<3>();
    all_pairs::<4>();
    all_pairs::<5>();
}

/// SplitMix64: a fixed, dependency-free operand stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An `N`-bit operand: uniform, or with a long regime, or special.
    fn operand<const N: u32>(&mut self) -> u64 {
        let mask = u64::MAX >> (64 - N);
        let r = self.next();
        let sign = (r & 1) << (N - 1);
        let body = (r >> 1) & (mask >> 1);
        let run = (self.next() % u64::from(N)) as u32;
        match (r >> 60) % 8 {
            // A long run of zeros: magnitudes down toward minpos.
            0 | 1 => negate_if::<N>(body >> run, sign != 0),
            // A long run of ones: magnitudes up toward maxpos.
            2 | 3 => negate_if::<N>(!(body >> run) & (mask >> 1), sign != 0),
            4 => [0, 1u64 << (N - 1), 1, mask >> 1, mask][(r % 5) as usize],
            _ => r & mask,
        }
    }

    /// A pair whose magnitudes are equal or pattern neighbours, with
    /// opposite signs more often than not: the cancellation cases.
    fn near_pair<const N: u32>(&mut self) -> (u64, u64) {
        let mask = u64::MAX >> (64 - N);
        let a = self.operand::<N>();
        let r = self.next();
        let step = (r >> 8) % 4;
        let near = if (r >> 4) & 1 == 0 {
            a.wrapping_add(step)
        } else {
            a.wrapping_sub(step)
        } & mask;
        let b = if r & 3 == 0 {
            near
        } else {
            near.wrapping_neg() & mask
        };
        (a, b)
    }

    /// A pair of finite operands `d` binades apart, `d` in 0..72: a
    /// significand dense in ones against a sparse one, so that carries,
    /// exact ties and the last bits shifted out of the smaller operand
    /// all occur.
    fn aligned_pair<const N: u32, const ES: u32>(&mut self) -> (u64, u64) {
        let r = self.next();
        let reach = Posit::<N, ES>::format_info().max_exp();
        // Half of them near 1.0, where the fractions are longest.
        let scale = if r & 4 == 0 {
            (self.next() % 129) as i64 - 64
        } else {
            (self.next() % (2 * reach as u64)) as i64 - reach
        };
        let d = ((r >> 8) % 72) as i64;
        let dense = self.next() | self.next() | self.next();
        let sparse = self.next() & self.next() & self.next();
        let (fa, fb) = if r & 8 == 0 {
            (dense, sparse)
        } else {
            (sparse, dense)
        };
        let a = Posit::<N, ES>::from_parts(r & 1 == 1, scale, fa | 1 << 63);
        let b = Posit::<N, ES>::from_parts(r & 2 == 2, scale - d, fb | 1 << 63);
        (a.to_bits(), b.to_bits())
    }
}

fn negate_if<const N: u32>(x: u64, negative: bool) -> u64 {
    if negative {
        x.wrapping_neg() & (u64::MAX >> (64 - N))
    } else {
        x
    }
}

fn seeded<const N: u32, const ES: u32>(seed: u64, pairs: u32) {
    let mut s = Stream(seed ^ (u64::from(N) << 32) ^ u64::from(ES));
    for i in 0..pairs {
        let (a, b) = match i % 3 {
            0 => s.near_pair::<N>(),
            1 => s.aligned_pair::<N, ES>(),
            _ => (s.operand::<N>(), s.operand::<N>()),
        };
        check::<N, ES>(a, b);
        check::<N, ES>(b, a);
    }
}

const POSIT16_PAIRS: u32 = 500_000; // each checked both ways round

#[test]
fn a_million_posit16_pairs_per_es_match_the_reference() {
    seeded::<16, 0>(16, POSIT16_PAIRS);
    seeded::<16, 1>(16, POSIT16_PAIRS);
    seeded::<16, 2>(16, POSIT16_PAIRS);
    seeded::<16, 3>(16, POSIT16_PAIRS);
}

const POSIT64_PAIRS: u32 = 100_000;

#[test]
fn posit64_formats_match_the_reference() {
    seeded::<64, 6>(64, POSIT64_PAIRS);
    seeded::<64, 9>(64, POSIT64_PAIRS);
    seeded::<64, 12>(64, POSIT64_PAIRS);
    seeded::<64, 15>(64, POSIT64_PAIRS);
    seeded::<64, 18>(64, POSIT64_PAIRS);
    seeded::<64, 21>(64, POSIT64_PAIRS);
}

#[test]
fn f64_imports_match_the_reference() {
    fn sweep<const N: u32, const ES: u32>(seed: u64) {
        let mut s = Stream(seed);
        for i in 0..100_000u32 {
            let r = s.next();
            // Every binade, subnormals included, and probabilities.
            let x = match i % 4 {
                0 => f64::from_bits((r & !(0x7FF << 52)) | (((r >> 11) % 2047) << 52)),
                1 => f64::from_bits(r >> 12),
                2 => (r >> 11) as f64 / (1u64 << 53) as f64,
                _ => 1.0 - (r >> 11) as f64 / (1u64 << 53) as f64,
            };
            let want = testing::from_f64_bits(x, N, ES);
            let value = PositValue::<N, ES>::from_f64(x);
            assert_eq!(
                value,
                PositValue::from_posit(Posit::from_bits(want)),
                "posit({N},{ES}) from_f64({x:e})"
            );
            assert_eq!(Posit::<N, ES>::from_f64(x).to_bits(), want);
        }
        for x in [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let want = testing::from_f64_bits(x, N, ES);
            assert_eq!(
                PositValue::<N, ES>::from_f64(x),
                PositValue::from_posit(Posit::from_bits(want))
            );
        }
    }
    sweep::<8, 0>(11);
    sweep::<8, 2>(12);
    sweep::<16, 1>(13);
    sweep::<32, 2>(14);
    sweep::<64, 6>(15);
    sweep::<64, 9>(16);
    sweep::<64, 12>(17);
    sweep::<64, 18>(18);
}

#[test]
fn from_parts_matches_the_reference_pack() {
    fn sweep<const N: u32, const ES: u32>(seed: u64) {
        let mut s = Stream(seed);
        let reach = Posit::<N, ES>::format_info().max_exp() + 8;
        for _ in 0..100_000 {
            let r = s.next();
            let scale = (s.next() % (2 * reach as u64 + 1)) as i64 - reach;
            let frac = s.next() | 1 << 63;
            let negative = r & 1 == 1;
            assert_eq!(
                Posit::<N, ES>::from_parts(negative, scale, frac).to_bits(),
                testing::pack(negative, scale, frac, false, N, ES),
                "posit({N},{ES}) from_parts({negative}, {scale}, {frac:#x})"
            );
        }
    }
    sweep::<8, 0>(1);
    sweep::<8, 5>(2);
    sweep::<16, 1>(3);
    sweep::<32, 2>(4);
    sweep::<64, 6>(5);
    sweep::<64, 12>(6);
    sweep::<64, 21>(7);
}
