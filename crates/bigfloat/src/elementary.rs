//! Elementary functions: natural logarithm and exponential.
//!
//! These are the two transcendental operations statistical log-space
//! computation rests on (`log_sum_exp` is built from them), and the
//! conversions into and out of log-space run them once per value. Both
//! are faithfully rounded: the returned value is within 1 ulp of the
//! exact result at the context precision (tight enough for every
//! experiment in the paper, which compares 64-bit formats against a
//! 256-bit oracle). Both reduce their argument until a short series
//! converges fast (Brent & Zimmermann, *Modern Computer Arithmetic*,
//! ch. 4).
//!
//! # `ln`
//!
//! Write `x = m' · 2^e'` with `m'` in `[3/4, 3/2)`: the significand `m`
//! in `[1, 2)` is halved when `m >= 3/2`. Splitting at `3/2` instead of
//! at 2 keeps `m'` on both sides of 1, so `ln x` for `x` just below 1 is
//! `ln m'` with `e' = 0`, not the cancelling difference `ln(2m) - ln 2`.
//! The top 8 fraction bits of `m` index a 256-entry table of dyadic
//! reciprocals `c_i ≈ 1/m'` (16 fraction bits), and
//!
//! ```text
//! ln x = 2·atanh(t) - ln c_i + e'·ln 2,   t = (y - 1)/(y + 1),  y = m'·c_i.
//! ```
//!
//! Since `|y - 1| < 2^-8.9`, `|t| < 2^-9` and each atanh term gains
//! about 20 bits: 13 terms at 256 bits, where the unreduced series
//! (`t` up to 1/3) needed about 80. The two entries around 1 (`m'` in
//! `[1 - 2^-9, 1 + 2^-8)`) have `c_i = 1` exactly, so `ln m'` near 1 is
//! one series with no constant to cancel against. Each `ln c_i` is
//! computed on first use, once per working precision, by the unreduced
//! series with 64 guard bits of its own.
//!
//! # `exp`
//!
//! `exp x = 2^n · exp(r)` with `n = round(x / ln 2)` and `|r| < 0.35`.
//! `r` is formed 64 bits above the working precision, so the `n·ln 2`
//! product loses nothing for `|x|` up to the `2^62` saturation guard.
//! Then `exp(r) = exp(r / 2^s)^(2^s)`, with `s <= 16` chosen so that
//! `|r / 2^s| < 2^-17`: the Taylor series needs about 14 terms at 256
//! bits instead of about 45, and `s` squarings follow.
//!
//! # Summing the series
//!
//! Up to a working precision of about 330 bits both reduced series are
//! summed by Horner's rule in integer-scaled fixed point
//! ([`horner_u64`]): each term costs one limb-array product and one limb
//! add rather than a rounded multiply, divide and add. Wider precisions
//! sum term by term with rounded operations.
//!
//! # Error budget
//!
//! Both run at a working precision `wp = prec + 64`.
//!
//! * `ln`: the fixed-point sum is within `2^-(wp+62)` of exact; every
//!   other step rounds at `wp`. The table constant, `y = m'·c_i`, `t`
//!   and the final products each contribute a unit or so in the last
//!   place of `wp`. Subtracting `ln c_i` loses under one bit: every
//!   entry with `c_i != 1` keeps `m'` at least `2^-9` from 1, so
//!   `|ln m'|` is at least two thirds of `|ln c_i|`. Adding `e'·ln 2` loses at most two more, because `|ln m'| < 0.41`
//!   while `|e'·ln 2| >= 0.69`. That leaves over 55 guard bits.
//! * `exp`: the reduced argument is accurate to `2^-(wp+1)` absolute,
//!   which is a relative error of `2^-(wp+1)` in the result. The series
//!   and the squarings run at `wp`, which keeps the squarings at 256
//!   bits on four limbs for the 192-bit log-space conversions. Each
//!   squaring doubles the error so far and adds `2^-wp`, so `s <= 16` of
//!   them leave it under `2^(s+2-wp)`: at least 46 guard bits.
//!
//! The unreduced series stay callable as `testing::{ln_series,
//! exp_series}`, the differential reference the test suites and
//! `compstat bench` compare against. The reference `ln` still has the
//! cancellation just below 1 that the `3/2` split removes.
//!
//! The constants (`ln 2` and the table's `ln c_i`) live in one cache
//! keyed by working precision, shared by every thread. Precisions must
//! leave room for the guard bits: `ln` and `exp` panic above
//! `MAX_PREC - 224`, where the constants' working precision would pass
//! [`MAX_PREC`](crate::MAX_PREC).

use crate::arith::Context;
use crate::limb;
use crate::repr::{BigFloat, Kind, Sign, INLINE_LIMBS};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Guard bits carried above the target precision, and again above the
/// working precision where `ln 2` feeds `exp`'s argument reduction.
const GUARD: u32 = 64;

/// Fraction bits of the table reciprocals `c_i`.
const RECIP_FRAC_BITS: u32 = 16;

/// Entries of the `ln` reduction table: one per value of the top 8
/// fraction bits of the significand.
const TABLE_LEN: usize = 256;

/// `exp` scales its reduced argument until `|r / 2^s| < 2^-EXP_SCALE_BITS`.
const EXP_SCALE_BITS: i64 = 17;

/// Working precisions whose constants stay cached at once; the oldest
/// is dropped when a new one arrives.
const CACHED_PRECS: usize = 16;

/// Numerators of the table reciprocals: `c_i = RECIP[i] / 2^16 ≈ 1/m'`
/// at the midpoint of the `m'` interval entry `i` covers. Entries
/// `0..128` cover `m` in `[1, 3/2)`, entries `128..256` cover the halved
/// `m' = m/2` in `[3/4, 1)`. The two entries next to 1 are exactly 1.
const RECIP: [u64; TABLE_LEN] = recip_table();

const fn recip_table() -> [u64; TABLE_LEN] {
    let mut table = [0u64; TABLE_LEN];
    let mut i = 0;
    while i < TABLE_LEN {
        // Entry i covers m in [1 + i/256, 1 + (i+1)/256), midpoint
        // (513 + 2i)/512; c = 1/m', rounded to 16 fraction bits.
        let d = 513 + 2 * i as u64;
        let n = if i < TABLE_LEN / 2 { 512 } else { 1024 } << RECIP_FRAC_BITS;
        table[i] = if i == 0 || i == TABLE_LEN - 1 {
            1 << RECIP_FRAC_BITS
        } else {
            (2 * n + d) / (2 * d)
        };
        i += 1;
    }
    table
}

/// The table reciprocal `c_i` as an exact `BigFloat`.
fn recip(i: usize) -> BigFloat {
    BigFloat::from_u64(RECIP[i]).mul_pow2(-i64::from(RECIP_FRAC_BITS))
}

/// The per-working-precision constants `ln` and `exp` share.
struct Constants {
    /// The working precision these constants serve.
    wp: u32,
    /// `ln 2` at `wp + GUARD` bits.
    ln2: BigFloat,
    /// `ln c_i` at `wp` bits, each computed on first use.
    ln_recip: [OnceLock<BigFloat>; TABLE_LEN],
}

impl Constants {
    fn new(wp: u32) -> Constants {
        Constants {
            wp,
            ln2: compute_ln2(wp + 2 * GUARD).round_to(wp + GUARD),
            ln_recip: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// `ln c_i` at the working precision, by the unreduced series.
    fn ln_recip(&self, i: usize) -> &BigFloat {
        self.ln_recip[i].get_or_init(|| ln_unreduced(&recip(i), self.wp, &self.ln2))
    }
}

static CONSTANTS: Mutex<Vec<Arc<Constants>>> = Mutex::new(Vec::new());

/// The constants for working precision `wp`, computed on first use.
fn constants(wp: u32) -> Arc<Constants> {
    // The lock only guards lookups and pushes of fully built entries
    // (entries are built outside it), so no panic can leave the cache
    // torn: recover from poisoning instead of propagating it to every
    // later caller.
    let cache = || CONSTANTS.lock().unwrap_or_else(PoisonError::into_inner);
    let find = |entries: &[Arc<Constants>]| entries.iter().find(|c| c.wp == wp).cloned();
    if let Some(hit) = find(&cache()) {
        return hit;
    }
    // Computed outside the lock; a racing thread's entry wins.
    let fresh = Arc::new(Constants::new(wp));
    let mut entries = cache();
    if let Some(hit) = find(&entries) {
        return hit;
    }
    if entries.len() == CACHED_PRECS {
        entries.remove(0);
    }
    entries.push(Arc::clone(&fresh));
    fresh
}

impl BigFloat {
    /// Divides by a small unsigned integer, keeping `prec` bits.
    ///
    /// Much cheaper than a full [`Context::div`] and exact up to the final
    /// rounding; used heavily by series evaluation. Values of up to 320
    /// bits divide on the stack, without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn div_u64(&self, d: u64, prec: u32) -> BigFloat {
        assert!(d != 0, "division by zero");
        let (sign, kind, exp, limbs, _) = self.parts();
        match kind {
            Kind::Zero => return BigFloat::zero(),
            Kind::Inf => return BigFloat::infinity(sign),
            Kind::Nan => return BigFloat::nan(),
            Kind::Normal => {}
        }
        // Extend with low zero limbs until the dividend is two limbs
        // wider than both itself and `prec`, so the quotient keeps every
        // bit `prec` needs (plus a guard limb) even after losing up to 63
        // bits to the divisor; the remainder feeds the sticky bit.
        let len = limbs.len().max(prec.div_ceil(limb::LIMB_BITS) as usize) + 2;
        let mut stack = [0u64; INLINE_LIMBS + 2];
        let mut heap = Vec::new();
        let ext = if len <= stack.len() {
            &mut stack[..len]
        } else {
            heap.resize(len, 0);
            &mut heap[..]
        };
        ext[len - limbs.len()..].copy_from_slice(limbs);
        let top_before = len as i64 * 64 - 1;
        let rem = limb::div_small_in_place(ext, d);
        let h = limb::highest_bit(ext).expect("quotient of nonzero by small is nonzero");
        let exp_of_top = exp - (top_before - h as i64);
        BigFloat::from_raw(sign, exp_of_top, ext, rem != 0, prec)
    }
}

/// Computes `ln 2` to at least `prec` bits via `2·atanh(1/3)`.
fn compute_ln2(prec: u32) -> BigFloat {
    let wp = prec + 32;
    // atanh(1/3) = sum_{k>=0} (1/3)^(2k+1) / (2k+1); each term gains
    // log2(9) ~ 3.17 bits.
    let mut u = BigFloat::one().div_u64(3, wp); // (1/3)^(2k+1)
    let mut sum = u.clone();
    let mut k: u64 = 1;
    loop {
        u = u.div_u64(9, wp);
        let term = u.div_u64(2 * k + 1, wp);
        let Some(te) = term.exponent() else { break };
        sum = Context::new(wp).add(&sum, &term);
        if te < -(wp as i64) - 2 {
            break;
        }
        k += 1;
    }
    sum.mul_pow2(1).round_to(prec)
}

/// Returns `ln 2` rounded to `prec` bits (cached across calls).
#[must_use]
pub fn ln2(prec: u32) -> BigFloat {
    constants(prec).ln2.round_to(prec)
}

/// `ln` and `exp` of the non-`Normal` values, and `ln` of negatives.
fn ln_special(x: &BigFloat) -> Option<BigFloat> {
    match (x.kind(), x.sign()) {
        (Kind::Zero, _) => Some(BigFloat::infinity(Sign::Neg)),
        (Kind::Nan, _) | (_, Sign::Neg) => Some(BigFloat::nan()),
        (Kind::Inf, Sign::Pos) => Some(BigFloat::infinity(Sign::Pos)),
        (Kind::Normal, Sign::Pos) => None,
    }
}

/// `exp x` past the `i64` exponent range: zero below, infinity above.
fn exp_saturated(x: &BigFloat) -> BigFloat {
    if x.sign() == Sign::Neg {
        BigFloat::zero()
    } else {
        BigFloat::infinity(Sign::Pos)
    }
}

/// `exp` of the non-`Normal` values and of arguments beyond the `i64`
/// exponent range.
fn exp_special(x: &BigFloat, prec: u32) -> Option<BigFloat> {
    match x.kind() {
        Kind::Zero => Some(BigFloat::one().round_to(prec)),
        Kind::Nan => Some(BigFloat::nan()),
        // 2^(x/ln2) with |n| beyond i64 saturates.
        Kind::Normal if x.exponent().unwrap_or(0) <= 62 => None,
        Kind::Inf | Kind::Normal => Some(exp_saturated(x)),
    }
}

/// `t = (y - 1)/(y + 1)`, so that `ln y = 2·atanh(t)`; `None` at
/// `y = 1`.
fn atanh_arg(ctx: &Context, y: &BigFloat) -> Option<BigFloat> {
    let one = BigFloat::one();
    let num = ctx.sub(y, &one);
    (!num.is_zero()).then(|| ctx.div(&num, &ctx.add(y, &one)))
}

/// `2·atanh(t) = 2·Σ t^(2k+1)/(2k+1)`, term by term at `ctx`'s
/// precision until the terms are dust.
fn atanh_series(ctx: &Context, t: &BigFloat) -> BigFloat {
    let t2 = ctx.mul(t, t);
    let wp = i64::from(ctx.prec());
    let mut u = t.clone();
    let mut sum = t.clone();
    let mut k: u64 = 1;
    loop {
        u = ctx.mul(&u, &t2);
        let term = u.div_u64(2 * k + 1, ctx.prec());
        let Some(te) = term.exponent() else { break };
        sum = ctx.add(&sum, &term);
        // sum's exponent is >= t's; stop once terms are dust.
        if te < sum.exponent().unwrap_or(0) - wp - 2 {
            break;
        }
        k += 1;
    }
    sum.mul_pow2(1)
}

/// `exp r` by its Taylor series at `ctx`'s precision, for `|r| < 1`.
fn exp_taylor(ctx: &Context, r: &BigFloat) -> BigFloat {
    let wp = i64::from(ctx.prec());
    let mut term = BigFloat::one();
    let mut sum = BigFloat::one();
    let mut k: u64 = 1;
    loop {
        term = ctx.mul(&term, r).div_u64(k, ctx.prec());
        let Some(te) = term.exponent() else { break };
        sum = ctx.add(&sum, &term);
        if te < -wp - 2 {
            break;
        }
        k += 1;
    }
    sum
}

/// Array length of a [`Series`]; the multipliers overflow before it
/// (past degree 20 for `exp`, 22 for `atanh`).
const SERIES_LEN: usize = 24;

/// The integers of one series [`horner_u64`] sums, `Σ x^k / q_k`: the
/// `q_k`, and `lcm[k]`, the least common multiple of `q_0..=q_k`, for
/// every degree up to `max_degree`, the last whose multiple stays
/// below `2^62`.
struct Series {
    q: [u64; SERIES_LEN],
    lcm: [u64; SERIES_LEN],
    max_degree: usize,
}

/// The Taylor series of `exp`: `q_k = k!`.
const EXP_TAYLOR: Series = series(false);

/// `atanh(t)/t` in `u = t²`: `q_k = 2k + 1`.
const ATANH: Series = series(true);

const fn series(odd: bool) -> Series {
    let mut s = Series {
        q: [1; SERIES_LEN],
        lcm: [1; SERIES_LEN],
        max_degree: 0,
    };
    let mut k = 1;
    while k < SERIES_LEN {
        let qk = if odd {
            Some(2 * k as u64 + 1)
        } else {
            s.q[k - 1].checked_mul(k as u64)
        };
        let Some(qk) = qk else { break };
        let Some(lcm) = (s.lcm[k - 1] / gcd(s.lcm[k - 1], qk)).checked_mul(qk) else {
            break;
        };
        if lcm >= 1 << 62 {
            break;
        }
        (s.q[k], s.lcm[k], s.max_degree) = (qk, lcm, k);
        k += 1;
    }
    s
}

const fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Widest fixed-point fraction, in limbs, [`horner_u64`] works in: 512
/// bits, past every working precision its multipliers reach.
const FIX_LIMBS: usize = 8;

/// `Σ_{k=0}^{K} x^k / q_k` for a small `|x| < 2^-9`, by Horner's rule in
/// integer-scaled fixed point.
///
/// With `D` the least common multiple of `q_0..=q_K`,
/// `D·Σ x^k/q_k = c_0 + x·(c_1 + x·(c_2 + ...))` with integers
/// `c_k = D/q_k`. Each level `h ← c_k ± |x|·h` runs on limb arrays
/// holding `h·2^F` and `|x|·2^F`, `F = 64·(ceil(wp/64) + 1)`: one
/// schoolbook product, a whole-limb shift and one limb add, with none of
/// a rounded operation's normalizing. Each level truncates by under
/// `2^-F`, and `|x| < 2^-9` damps every earlier error, so the sum is
/// within `2^-(F-2) < 2^-(wp+62)` of exact before its one division by
/// `D` and its one rounding to `ctx`'s precision.
///
/// `K` is the first degree whose next term falls below `2^-(wp+2)`.
/// Returns `None` when `K` passes the series' `max_degree` (working
/// precisions above about 330 bits), for the caller to fall back to a
/// term-by-term series.
fn horner_u64(ctx: &Context, x: &BigFloat, series: &Series) -> Option<BigFloat> {
    let wp = ctx.prec();
    let Some(xe) = x.exponent() else {
        return Some(BigFloat::one());
    };
    let f = (wp as usize).div_ceil(64) + 1;
    let xl = x.limbs();
    if f > FIX_LIMBS || xl.len() >= f || xe > -9 {
        return None;
    }
    // The degree: |x^k / q_k| < 2^(k·(xe+1) - floor(log2 q_k)).
    let mut degree = 0;
    loop {
        let k = degree + 1;
        if k > series.max_degree {
            return None;
        }
        if (k as i64) * (xe + 1) - i64::from(series.q[k].ilog2()) < -i64::from(wp) - 2 {
            break;
        }
        degree = k;
    }
    let d = series.lcm[degree];
    // |x|·2^F, truncated: significand bit b weighs 2^(b + shift).
    let mut xf = [0u64; FIX_LIMBS];
    let xf = &mut xf[..f];
    xf[..xl.len()].copy_from_slice(xl);
    let shift = xe + 1 + 64 * (f - xl.len()) as i64;
    if shift >= 0 {
        limb::shl_in_place(xf, u32::try_from(shift).expect("at most 64·FIX_LIMBS"));
    } else {
        limb::shr_in_place_sticky(xf, u32::try_from(-shift).unwrap_or(u32::MAX));
    }
    // h·2^F in f + 1 limbs: h < 2^63 never carries out of the top one.
    let n = f + 1;
    let mut h = [0u64; FIX_LIMBS + 1];
    let mut c = [0u64; FIX_LIMBS + 1];
    let mut prod = [0u64; 2 * FIX_LIMBS + 1];
    let (h, c, prod) = (&mut h[..n], &mut c[..n], &mut prod[..f + n]);
    h[f] = d / series.q[degree];
    for k in (0..degree).rev() {
        limb::mul(xf, h, prod);
        // prod[f..] = floor(|x|·h·2^F / 2^F), as h's fixed point.
        c[f] = d / series.q[k];
        let out = if x.sign() == Sign::Neg {
            limb::sub_same_len(c, &prod[f..], h)
        } else {
            limb::add_same_len(c, &prod[f..], h)
        };
        debug_assert!(!out, "c_k dominates |x|·h, which stays below 2^63");
    }
    let rem = limb::div_small_in_place(h, d);
    let top = limb::highest_bit(h).expect("the sum is about 1");
    let exp_of_top = i64::try_from(top).expect("small") - 64 * f as i64;
    Some(BigFloat::from_raw(Sign::Pos, exp_of_top, h, rem != 0, wp))
}

/// `2·atanh(t)` for the table-reduced `|t| < 2^-9`: `2t·Σ u^k/(2k+1)`
/// with `u = t²` by [`horner_u64`], or term by term past its reach.
fn atanh_reduced(ctx: &Context, t: &BigFloat) -> BigFloat {
    match horner_u64(ctx, &ctx.mul(t, t), &ATANH) {
        Some(sum) => ctx.mul(t, &sum).mul_pow2(1),
        None => atanh_series(ctx, t),
    }
}

/// `exp r` for the scaled `|r| < 2^-17`: the Taylor polynomial by
/// [`horner_u64`], or term by term past its reach.
fn exp_reduced(ctx: &Context, r: &BigFloat) -> BigFloat {
    horner_u64(ctx, r, &EXP_TAYLOR).unwrap_or_else(|| exp_taylor(ctx, r))
}

/// `x - n·ln 2`, formed at `red`'s precision from `ln2` (which must
/// carry at least that many bits), for `n ≈ x / ln 2`. `None` when `n`
/// saturated `i64`: the true result is then past `2^(i64::MAX)` or
/// below `2^(i64::MIN)`.
fn reduce_ln2(x: &BigFloat, n: i64, red: &Context, ln2: &BigFloat) -> Option<BigFloat> {
    let r = red.sub(x, &red.mul(&BigFloat::from_i64(n), ln2));
    // When |x| > i64::MAX * ln2 (~6.39e18, exponent 62 — just under the
    // guard in `exp_special`), `to_i64_round` saturates and the
    // reduction leaves |r| up to ~2.8e18, where the series would
    // effectively never terminate. A successful reduction always has
    // |r| <= ln2/2 + tiny (exponent <= -1), so any larger remainder is
    // the saturation artifact.
    (r.exponent().unwrap_or(i64::MIN) < 0).then_some(r)
}

/// The retired unreduced `ln`: `ln m + e·ln 2` with `m` in `[1, 2)` and
/// the atanh series on `t` up to 1/3, at `prec + 64` bits. `ln2` must
/// carry at least `prec + 64` bits.
fn ln_unreduced(x: &BigFloat, prec: u32, ln2: &BigFloat) -> BigFloat {
    if let Some(special) = ln_special(x) {
        return special;
    }
    let e = x.exponent().expect("normal");
    let ctx = Context::new(prec + GUARD);
    // m in [1, 2). `-e` overflows i64 negation at `e == i64::MIN`
    // (reachable: `2^(i64::MIN)` is a representable BigFloat), so
    // split that one shift into two exact halves.
    let m = if e == i64::MIN {
        x.mul_pow2(i64::MAX).mul_pow2(1)
    } else {
        x.mul_pow2(-e)
    };
    let lnm = atanh_arg(&ctx, &m).map_or_else(BigFloat::zero, |t| atanh_series(&ctx, &t));
    // ln x = ln m + e ln 2.
    let result = if e == 0 {
        lnm
    } else {
        ctx.add(&lnm, &ctx.mul(&BigFloat::from_i64(e), ln2))
    };
    result.round_to(prec)
}

/// `v` rounded to the nearest integer, for `|v| < 2^62`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "callers pass |v| < 2^62, inside i64"
)]
fn round_f64_to_i64(v: f64) -> i64 {
    v.round() as i64
}

/// The table index of a `Normal` value: the top 8 fraction bits of its
/// significand.
fn table_index(x: &BigFloat) -> usize {
    let top = x.limbs().last().copied().unwrap_or(0);
    ((top >> (limb::LIMB_BITS - 9)) & 0xFF) as usize
}

impl Context {
    /// Natural logarithm, faithfully rounded.
    ///
    /// `ln(0)` is negative infinity; `ln` of a negative number is NaN.
    /// This is the conversion *into* log-space: the paper converts
    /// operands to log-space in MPFR exactly this way.
    ///
    /// # Panics
    ///
    /// Panics if the precision is above `MAX_PREC - 224` (see the
    /// module docs).
    #[must_use]
    pub fn ln(&self, x: &BigFloat) -> BigFloat {
        if let Some(special) = ln_special(x) {
            return special;
        }
        let prec = self.prec();
        let wp = prec + GUARD;
        let ctx = Context::new(wp);
        let consts = constants(wp);
        let e = x.exponent().expect("normal");
        let i = table_index(x);
        // x = m' 2^e' with m' in [3/4, 3/2): halve m from 3/2 up.
        let halved = i >= TABLE_LEN / 2;
        let m = BigFloat::from_parts_exact(
            Sign::Pos,
            Kind::Normal,
            -i64::from(halved),
            x.limbs(),
            x.precision(),
        );
        let ln_reduced = |y: &BigFloat| {
            atanh_arg(&ctx, y).map_or_else(BigFloat::zero, |t| atanh_reduced(&ctx, &t))
        };
        let lnm = if RECIP[i] == 1 << RECIP_FRAC_BITS {
            ln_reduced(&m)
        } else {
            ctx.sub(&ln_reduced(&ctx.mul(&m, &recip(i))), consts.ln_recip(i))
        };
        // ln x = ln m' + e' ln 2; e' = e + 1 reaches 2^63 at e = i64::MAX.
        let e1 = i128::from(e) + i128::from(halved);
        let result = if e1 == 0 {
            lnm
        } else {
            let mag = u64::try_from(e1.unsigned_abs()).expect("|e + 1| <= 2^63");
            let e1 = BigFloat::from_u64(mag);
            let e1 = if e < 0 { e1.neg() } else { e1 };
            ctx.add(&lnm, &ctx.mul(&e1, &consts.ln2))
        };
        result.round_to(prec)
    }

    /// Exponential function, faithfully rounded.
    ///
    /// Handles arguments of enormous magnitude (e.g. `exp(-2_010_127)`,
    /// the VICAR log-likelihood) by exact argument reduction
    /// `exp(x) = 2^n · exp(x - n ln 2)`.
    ///
    /// # Panics
    ///
    /// Panics if the precision is above `MAX_PREC - 224` (see the
    /// module docs).
    #[must_use]
    pub fn exp(&self, x: &BigFloat) -> BigFloat {
        let prec = self.prec();
        if let Some(special) = exp_special(x, prec) {
            return special;
        }
        // The squarings spend up to 18 of the guard bits (module docs).
        let wp = prec + GUARD;
        let consts = constants(wp);
        let n = if x.exponent().unwrap_or(0) < 40 {
            // Binary64 is within 2^-11 of x / ln 2 here, so n is the
            // nearest integer or, at a near-tie, its neighbour: |r| < 0.35.
            round_f64_to_i64(x.to_f64() / core::f64::consts::LN_2)
        } else {
            Context::new(wp).div(x, &consts.ln2).to_i64_round()
        };
        let Some(r) = reduce_ln2(x, n, &Context::new(wp + GUARD), &consts.ln2) else {
            return exp_saturated(x);
        };
        // exp r = exp(r / 2^s)^(2^s) with |r / 2^s| < 2^-17.
        let s = r
            .exponent()
            .map_or(0, |er| (er + 1 + EXP_SCALE_BITS).max(0));
        let ctx = Context::new(wp);
        let mut y = exp_reduced(&ctx, &r.mul_pow2(-s).round_to(wp));
        for _ in 0..s {
            y = ctx.mul(&y, &y);
        }
        y.mul_pow2(n).round_to(prec)
    }

    /// Base-2 logarithm, via `ln(x)/ln(2)`.
    #[must_use]
    pub fn log2(&self, x: &BigFloat) -> BigFloat {
        let wp = Context::new(self.prec() + 32);
        let l = wp.ln(x);
        if !l.is_finite() {
            return l;
        }
        wp.div(&l, &ln2(self.prec() + 32)).round_to(self.prec())
    }
}

/// Differential-test hooks: the unreduced series `ln` and `exp` ran
/// before the table and squaring reductions, callable directly so test
/// suites and `compstat bench` can compare against them. Not a public
/// API.
pub mod testing {
    use super::*;

    /// `ln x` at `prec` bits by the unreduced atanh series (`t` up to
    /// 1/3). Not faithful just below 1, where `ln(2m) - ln 2` cancels.
    #[must_use]
    pub fn ln_series(x: &BigFloat, prec: u32) -> BigFloat {
        ln_unreduced(x, prec, &constants(prec + GUARD).ln2)
    }

    /// `exp x` at `prec` bits by the Taylor series on `x - n·ln 2`
    /// (up to `ln2/2`), reduced at the working precision.
    #[must_use]
    pub fn exp_series(x: &BigFloat, prec: u32) -> BigFloat {
        if let Some(special) = exp_special(x, prec) {
            return special;
        }
        let ctx = Context::new(prec + GUARD);
        let l2 = constants(prec + GUARD).ln2.round_to(ctx.prec());
        let n = ctx.div(x, &l2).to_i64_round();
        match reduce_ln2(x, n, &ctx, &l2) {
            Some(r) => exp_taylor(&ctx, &r).mul_pow2(n).round_to(prec),
            None => exp_saturated(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::new(256)
    }

    #[test]
    fn ln2_matches_f64_constant() {
        let v = ln2(96);
        assert!((v.to_f64() - core::f64::consts::LN_2).abs() < 1e-16);
    }

    #[test]
    fn ln_matches_f64_ln() {
        for x in [1.0, 2.0, 0.5, 10.0, 0.3, 1e-300, 1e300, 1.0000001] {
            let l = ctx().ln(&BigFloat::from_f64(x));
            let expected = x.ln();
            if expected == 0.0 {
                assert_eq!(l.to_f64(), 0.0);
            } else {
                assert!(
                    (l.to_f64() - expected).abs() <= expected.abs() * 1e-15,
                    "ln({x}) = {} want {expected}",
                    l.to_f64()
                );
            }
        }
    }

    #[test]
    fn exp_matches_f64_exp() {
        for x in [0.0, 1.0, -1.0, 0.5, -20.0, 10.0, 700.0, -700.0] {
            let e = ctx().exp(&BigFloat::from_f64(x));
            let expected = x.exp();
            assert!(
                (e.to_f64() - expected).abs() <= expected.abs() * 1e-14,
                "exp({x}) = {} want {expected}",
                e.to_f64()
            );
        }
    }

    #[test]
    fn ln_exp_round_trip() {
        let c = ctx();
        for x in [0.3, 1.7, 42.0, 1e-10] {
            let b = BigFloat::from_f64(x);
            let back = c.exp(&c.ln(&b));
            let err = (&back - &b).abs();
            // Within ~2 ulp at 256 bits.
            assert!(
                err.is_zero() || err.exponent().unwrap() < b.exponent().unwrap() - 250,
                "round trip {x}"
            );
        }
    }

    #[test]
    fn ln_of_tiny_probability_is_paper_example() {
        // The paper: ln(2^-120_000) ~ -83177.66.
        let x = BigFloat::pow2(-120_000);
        let l = ctx().ln(&x);
        let approx = l.to_f64();
        assert!((approx + 83_177.66).abs() < 0.01, "got {approx}");
    }

    #[test]
    fn exp_of_huge_negative_argument() {
        // The paper: log of 2^-2_900_000 is about -2_010_126.824; exp of
        // that must come back with the right base-2 exponent.
        let l = BigFloat::from_f64(-2_010_126.824);
        let x = ctx().exp(&l);
        let e2 = x.exponent().unwrap();
        assert!((e2 - (-2_900_000)).abs() < 5, "exponent {e2}");
    }

    #[test]
    fn exp_at_the_i64_saturation_threshold() {
        let c = ctx();
        // i64::MAX * ln2 ~ 6.3938e18 (exponent 62). Arguments past it
        // make `to_i64_round` saturate; before the remainder check the
        // Taylor loop on the ~2.8e18 leftover never finished. On both
        // sides of the threshold exp must land on Inf / Zero.
        for mag in [6.4e18, 7.0e18, 9.2e18] {
            let pos = c.exp(&BigFloat::from_f64(mag));
            assert_eq!(pos.kind(), Kind::Inf, "exp({mag})");
            assert_eq!(pos.sign(), Sign::Pos);
            let neg = c.exp(&BigFloat::from_f64(-mag));
            assert!(neg.is_zero(), "exp(-{mag})");
            assert_eq!(neg.sign(), Sign::Pos, "single unsigned zero");
        }
        // Just below the threshold the reduction is legitimate: n is
        // near i64::MAX and the result's base-2 exponent is n exactly
        // (|r| < ln2/2 keeps exp(r) in [2^-1/2, 2^1/2)).
        let x = BigFloat::from_f64(6.3e18);
        let y = Context::new(64).exp(&x);
        let expected_n = (6.3e18 / core::f64::consts::LN_2).round() as i64;
        let got = y.exponent().unwrap();
        // expected_n carries f64 rounding error (~one 1024-ulp step at
        // this magnitude); the exact n is what matters, not its f64
        // estimate.
        assert!(
            (got - expected_n).abs() <= 4096,
            "got {got} want ~{expected_n}"
        );
        // Exponent-63-and-up arguments take the early guard.
        assert_eq!(c.exp(&BigFloat::pow2(63)).kind(), Kind::Inf);
        assert!(c.exp(&BigFloat::pow2(63).neg()).is_zero());
        assert_eq!(c.exp(&BigFloat::pow2(i64::MAX)).kind(), Kind::Inf);
        // And NaN stays NaN through every path.
        assert!(c.exp(&BigFloat::nan()).is_nan());
        assert!(c.ln(&BigFloat::nan()).is_nan());
    }

    #[test]
    fn ln_at_the_exponent_extremes() {
        let c = ctx();
        // 2^(i64::MIN) is representable; normalizing its mantissa used
        // to negate i64::MIN (debug-build panic). ln must return about
        // i64::MIN * ln2 ~ -6.39e18.
        let tiny = BigFloat::pow2(i64::MIN);
        let l = c.ln(&tiny);
        let want = i64::MIN as f64 * core::f64::consts::LN_2;
        let got = l.to_f64();
        assert!(
            ((got - want) / want).abs() < 1e-15,
            "ln(2^i64::MIN) = {got}, want {want}"
        );
        let huge = BigFloat::pow2(i64::MAX);
        let lh = c.ln(&huge).to_f64();
        assert!(((lh + want) / want).abs() < 1e-15, "ln(2^i64::MAX) = {lh}");
    }

    #[test]
    fn ln_specials() {
        let c = ctx();
        assert_eq!(c.ln(&BigFloat::zero()).kind(), Kind::Inf);
        assert_eq!(c.ln(&BigFloat::zero()).sign(), Sign::Neg);
        assert!(c.ln(&BigFloat::from_f64(-1.0)).is_nan());
        assert_eq!(c.ln(&BigFloat::infinity(Sign::Pos)).kind(), Kind::Inf);
        assert!(c.exp(&BigFloat::infinity(Sign::Neg)).is_zero());
        assert_eq!(c.exp(&BigFloat::zero()).to_f64(), 1.0);
    }

    #[test]
    fn log2_recovers_exponent() {
        let c = ctx();
        let x = BigFloat::pow2(-12345);
        assert_eq!(c.log2(&x).to_f64(), -12345.0);
    }

    #[test]
    fn div_u64_exactness() {
        let x = BigFloat::from_u64(12);
        assert_eq!(x.div_u64(4, 64).to_f64(), 3.0);
        let third = BigFloat::one().div_u64(3, 256);
        let back = &third * &BigFloat::from_u64(3);
        let err = (&back - &BigFloat::one()).abs();
        assert!(err.is_zero() || err.exponent().unwrap() < -250);
    }
}
