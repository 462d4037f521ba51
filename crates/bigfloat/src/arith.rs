//! Correctly-rounded arithmetic: add, sub, mul, div.
//!
//! All operations round to the precision of the [`Context`] (round to
//! nearest, ties to even) in a single rounding step — there is no double
//! rounding. Working arrays keep at least `prec + 66` bits plus a sticky
//! bit, which is sufficient for correct RNE results of `+ - * /`.
//!
//! Three kernel tiers sit below the `Context` API. At a whole-limb
//! precision (`64 * N` bits, `N <= 5`: the oracle's 256, serve's 128),
//! the two shapes the oracle recurrences run, a same-sign sum and a
//! product by a one-limb `from_f64` coefficient, place their operands
//! in `[u64; N]` arrays and call the kernels of [`crate::WholeFloat`],
//! which work on the result limbs, one guard limb and a sticky flag and
//! round in registers. Other operands that fit the inline widths
//! (anything up to 320-bit precision) route through the const-generic
//! kernels in [`crate::limb::fixed`] on stack arrays, which feed the
//! general rounding core directly, so `add`/`sub`/`mul` never touch the
//! heap there. Everything wider falls back to the general slice
//! kernels. Division is word-at-a-time ([`crate::limb::div_rem_knuth`])
//! at every width. Every tier rounds correctly, so they agree bit for
//! bit; differential tests check each against the general kernels and
//! the retired bit-indexed rounding (see `testing`).

use crate::limb;
use crate::repr::{BigFloat, Kind, Sign, DEFAULT_PREC, INLINE_LIMBS, MAX_PREC, MIN_PREC};
use crate::whole::{self, place};

/// An arithmetic context carrying the target precision.
///
/// Mirrors MPFR's model: every operation rounds its mathematically exact
/// result to `prec` significant bits.
///
/// # Examples
///
/// ```
/// use compstat_bigfloat::{BigFloat, Context};
///
/// let ctx = Context::new(256);
/// let a = BigFloat::pow2(-120_000);
/// let b = ctx.mul(&a, &a);
/// assert_eq!(b.exponent(), Some(-240_000));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Context {
    prec: u32,
}

impl Context {
    /// Creates a context with the given precision in bits.
    ///
    /// # Panics
    ///
    /// Panics if `prec` is outside `[2, 16384]`.
    #[must_use]
    pub fn new(prec: u32) -> Context {
        assert!(
            (MIN_PREC..=MAX_PREC).contains(&prec),
            "precision {prec} out of [2, 16384]"
        );
        Context { prec }
    }

    /// The context's precision in bits.
    #[must_use]
    pub fn prec(&self) -> u32 {
        self.prec
    }

    /// Addition, correctly rounded to the context precision.
    #[must_use]
    pub fn add(&self, a: &BigFloat, b: &BigFloat) -> BigFloat {
        add_signed(a, b, false, self.prec)
    }

    /// Subtraction, correctly rounded to the context precision.
    #[must_use]
    pub fn sub(&self, a: &BigFloat, b: &BigFloat) -> BigFloat {
        add_signed(a, b, true, self.prec)
    }

    /// Multiplication, correctly rounded to the context precision.
    #[must_use]
    pub fn mul(&self, a: &BigFloat, b: &BigFloat) -> BigFloat {
        mul_impl(a, b, self.prec)
    }

    /// Division, correctly rounded to the context precision.
    #[must_use]
    pub fn div(&self, a: &BigFloat, b: &BigFloat) -> BigFloat {
        div_impl(a, b, self.prec)
    }

    /// Rounds `x` to the context precision (round to nearest, ties to
    /// even) — MPFR's `mpfr_set` with a target precision. Idempotent:
    /// a value already representable at `prec` bits passes unchanged,
    /// so `ctx.round(&ctx.round(x)) == ctx.round(x)` always.
    #[must_use]
    pub fn round(&self, x: &BigFloat) -> BigFloat {
        x.round_to(self.prec)
    }
}

impl Default for Context {
    fn default() -> Self {
        Context { prec: DEFAULT_PREC }
    }
}

fn nlimbs(prec: u32) -> usize {
    prec.div_ceil(limb::LIMB_BITS) as usize
}

/// Places `src` (normalized: top bit of last limb set) into a fresh array
/// of `wl` limbs with its top bit at bit index `wl*64 - 2` (one headroom
/// bit below the array MSB).
fn place_with_headroom(src: &[u64], wl: usize) -> Vec<u64> {
    debug_assert!(wl > src.len());
    let mut arr = vec![0u64; wl];
    // Copy into the high limbs, then shift right by 1 to create headroom.
    arr[wl - src.len()..].copy_from_slice(src);
    let sticky = limb::shr_in_place_sticky(&mut arr, 1);
    debug_assert!(!sticky, "normalized operand had a set LSB beyond range");
    arr
}

/// Which kernels compute a result: the production tiers, or the general
/// slice kernels finished by the retired bit-indexed rounding — the
/// differential reference behind `testing::*_general`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    Fast,
    Reference,
}

impl Path {
    /// Rounds a raw magnitude through this path's rounding.
    fn round(self, sign: Sign, exp_of_top: i128, raw: &[u64], sticky: bool, prec: u32) -> BigFloat {
        match self {
            Path::Fast => BigFloat::from_raw_wide(sign, exp_of_top, raw, sticky, prec),
            Path::Reference => BigFloat::from_raw_bitwise(sign, exp_of_top, raw, sticky, prec),
        }
    }
}

fn add_signed(a: &BigFloat, b: &BigFloat, negate_b: bool, prec: u32) -> BigFloat {
    add_signed_with(a, b, negate_b, prec, Path::Fast)
}

#[inline]
fn add_signed_with(a: &BigFloat, b: &BigFloat, negate_b: bool, prec: u32, path: Path) -> BigFloat {
    let (sa, ka, ea, la, _) = a.parts();
    let (sb0, kb, eb, lb, _) = b.parts();
    let sb = if negate_b && !matches!(kb, Kind::Zero | Kind::Nan) {
        sb0.negate()
    } else {
        sb0
    };
    match (ka, kb) {
        (Kind::Nan, _) | (_, Kind::Nan) => return BigFloat::special(Kind::Nan, Sign::Pos, prec),
        (Kind::Inf, Kind::Inf) => {
            return if sa == sb {
                BigFloat::special(Kind::Inf, sa, prec)
            } else {
                BigFloat::special(Kind::Nan, Sign::Pos, prec)
            };
        }
        (Kind::Inf, _) => return BigFloat::special(Kind::Inf, sa, prec),
        (_, Kind::Inf) => return BigFloat::special(Kind::Inf, sb, prec),
        (Kind::Zero, Kind::Zero) => return BigFloat::special(Kind::Zero, Sign::Pos, prec),
        (Kind::Zero, Kind::Normal) => {
            let r = round_with(b, prec, path);
            return if negate_b { r.neg() } else { r };
        }
        (Kind::Normal, Kind::Zero) => return round_with(a, prec, path),
        (Kind::Normal, Kind::Normal) => {}
    }

    // Order so that |x| >= |y|.
    let a_larger = match ea.cmp(&eb) {
        core::cmp::Ordering::Greater => true,
        core::cmp::Ordering::Less => false,
        core::cmp::Ordering::Equal => cmp_magnitude(la, lb) != core::cmp::Ordering::Less,
    };
    let (sx, ex, lx, sy, ey, ly) = if a_larger {
        (sa, ea, la, sb, eb, lb)
    } else {
        (sb, eb, lb, sa, ea, la)
    };

    // Fixed-width fast paths: every operand and target width up to the
    // inline limit stays on the stack.
    if path == Path::Fast {
        // Same-sign sums at a whole-limb precision, the oracle's, run
        // the `WholeFloat` kernel: one guard limb and a sticky flag carry
        // everything rounding reads.
        if sx == sy && lx.len().max(ly.len()) <= nlimbs(prec) {
            match prec {
                64 => return add_whole::<1>(sx, ex, lx, ey, ly),
                128 => return add_whole::<2>(sx, ex, lx, ey, ly),
                192 => return add_whole::<3>(sx, ex, lx, ey, ly),
                256 => return add_whole::<4>(sx, ex, lx, ey, ly),
                320 => return add_whole::<5>(sx, ex, lx, ey, ly),
                _ => {}
            }
        }
        match lx.len().max(ly.len()).max(nlimbs(prec)) + 2 {
            3 => return add_core_fixed::<3>(sx, ex, lx, sy, ey, ly, prec),
            4 => return add_core_fixed::<4>(sx, ex, lx, sy, ey, ly, prec),
            5 => return add_core_fixed::<5>(sx, ex, lx, sy, ey, ly, prec),
            6 => return add_core_fixed::<6>(sx, ex, lx, sy, ey, ly, prec),
            7 => return add_core_fixed::<7>(sx, ex, lx, sy, ey, ly, prec),
            _ => {}
        }
    }
    add_core_general(sx, ex, lx, sy, ey, ly, prec, path)
}

/// `x.round_to(prec)` through `path`'s rounding.
fn round_with(x: &BigFloat, prec: u32, path: Path) -> BigFloat {
    match (path, x.parts()) {
        (Path::Reference, (sign, Kind::Normal, exp, limbs, _)) => {
            BigFloat::from_raw_bitwise(sign, i128::from(exp), limbs, false, prec)
        }
        _ => x.round_to(prec),
    }
}

/// The magnitude add/sub core over heap buffers of `wl` limbs — the
/// general path for arbitrary widths.
#[expect(
    clippy::too_many_arguments,
    reason = "the operand pair plus the path; a struct would only rename them"
)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the alignment shift `d` is at most `top_pos`, a bit width of the working buffer, so it fits u32"
)]
fn add_core_general(
    sx: Sign,
    ex: i64,
    lx: &[u64],
    sy: Sign,
    ey: i64,
    ly: &[u64],
    prec: u32,
    path: Path,
) -> BigFloat {
    let wl = lx.len().max(ly.len()).max(nlimbs(prec)) + 2;
    let top_pos = wl as u64 * 64 - 2;
    let ax = place_with_headroom(lx, wl);
    let mut ay = place_with_headroom(ly, wl);
    // ex >= ey by construction; the difference can still overflow i64 for
    // astronomically separated exponents, which simply means "y is dust".
    let d = ex.checked_sub(ey).map(|d| d as u64);
    let sticky_y = match d {
        Some(d) if d <= top_pos => limb::shr_in_place_sticky(&mut ay, d as u32),
        _ => {
            ay.fill(0);
            true
        }
    };

    let same_sign = sx == sy;
    let mut out = vec![0u64; wl];
    let mut sticky = sticky_y;
    if same_sign {
        let carry = limb::add_same_len(&ax, &ay, &mut out);
        debug_assert!(!carry, "headroom bit absorbed the carry");
    } else {
        // |x| >= |y_shifted| (strictly, unless d == 0 where sticky_y is
        // false). Equal magnitudes cancel to zero.
        if limb::cmp_same_len(&ax, &ay) == core::cmp::Ordering::Equal && !sticky_y {
            return BigFloat::special(Kind::Zero, Sign::Pos, prec);
        }
        let borrow = limb::sub_same_len(&ax, &ay, &mut out);
        debug_assert!(!borrow, "subtrahend exceeded minuend");
        if sticky_y {
            // True result is out - epsilon with epsilon in (0,1) units of
            // the array LSB; re-expressing as (out-1) + (1-epsilon) keeps
            // the residue positive so the sticky bit rounds correctly.
            let mut one = vec![0u64; wl];
            one[0] = 1;
            let mut dec = vec![0u64; wl];
            let borrow = limb::sub_same_len(&out, &one, &mut dec);
            debug_assert!(!borrow);
            out = dec;
            sticky = true;
        }
    }

    let Some(h) = limb::highest_bit(&out) else {
        return BigFloat::special(Kind::Zero, Sign::Pos, prec);
    };
    let exp_of_top = ex as i128 - (top_pos as i128 - h as i128);
    path.round(sx, exp_of_top, &out, sticky, prec)
}

/// The same magnitude add/sub core over `[u64; W]` stack buffers —
/// mirrors `add_core_general` step for step so results are identical,
/// but with no heap traffic and unrolled limb loops.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the alignment shift `d` is at most `top_pos = W * 64 - 2`, so it fits u32"
)]
fn add_core_fixed<const W: usize>(
    sx: Sign,
    ex: i64,
    lx: &[u64],
    sy: Sign,
    ey: i64,
    ly: &[u64],
    prec: u32,
) -> BigFloat {
    debug_assert!(lx.len() < W && ly.len() < W);
    let top_pos = W as u64 * 64 - 2;
    let mut ax = [0u64; W];
    ax[W - lx.len()..].copy_from_slice(lx);
    let s = limb::shr_in_place_sticky(&mut ax, 1);
    debug_assert!(!s, "normalized operand had a set LSB beyond range");
    let mut ay = [0u64; W];
    ay[W - ly.len()..].copy_from_slice(ly);
    let s = limb::shr_in_place_sticky(&mut ay, 1);
    debug_assert!(!s, "normalized operand had a set LSB beyond range");
    let d = ex.checked_sub(ey).map(|d| d as u64);
    let sticky_y = match d {
        Some(d) if d <= top_pos => limb::shr_in_place_sticky(&mut ay, d as u32),
        _ => {
            ay = [0u64; W];
            true
        }
    };

    let mut sticky = sticky_y;
    let out = if sx == sy {
        let (out, carry) = limb::fixed::add(&ax, &ay);
        debug_assert!(!carry, "headroom bit absorbed the carry");
        out
    } else {
        if limb::fixed::cmp(&ax, &ay) == core::cmp::Ordering::Equal && !sticky_y {
            return BigFloat::special(Kind::Zero, Sign::Pos, prec);
        }
        let (diff, borrow) = limb::fixed::sub(&ax, &ay);
        debug_assert!(!borrow, "subtrahend exceeded minuend");
        if sticky_y {
            // See add_core_general: (out-1) + (1-epsilon) keeps the
            // discarded residue positive for the sticky bit.
            let mut one = [0u64; W];
            one[0] = 1;
            let (dec, borrow) = limb::fixed::sub(&diff, &one);
            debug_assert!(!borrow);
            sticky = true;
            dec
        } else {
            diff
        }
    };

    let Some(h) = limb::highest_bit(&out) else {
        return BigFloat::special(Kind::Zero, Sign::Pos, prec);
    };
    let exp_of_top = ex as i128 - (top_pos as i128 - h as i128);
    BigFloat::from_raw_wide(sx, exp_of_top, &out, sticky, prec)
}

/// The same-sign sum `x + y` (`ex >= ey`, each of at most `N` limbs)
/// rounded to `64 * N` bits: the operands placed in `N` limbs, through
/// the whole-limb kernel.
#[inline]
fn add_whole<const N: usize>(sign: Sign, ex: i64, lx: &[u64], ey: i64, ly: &[u64]) -> BigFloat {
    BigFloat::from_whole(sign, whole::add_kernel::<N>(ex, &place(lx), ey, &place(ly)))
}

fn cmp_magnitude(a: &[u64], b: &[u64]) -> core::cmp::Ordering {
    // Both normalized with the top bit of the last limb set; compare from
    // the top down, treating the shorter as zero-extended at the bottom.
    let mut i = a.len();
    let mut j = b.len();
    while i > 0 && j > 0 {
        i -= 1;
        j -= 1;
        match a[i].cmp(&b[j]) {
            core::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            return core::cmp::Ordering::Greater;
        }
    }
    while j > 0 {
        j -= 1;
        if b[j] != 0 {
            return core::cmp::Ordering::Less;
        }
    }
    core::cmp::Ordering::Equal
}

fn mul_impl(a: &BigFloat, b: &BigFloat, prec: u32) -> BigFloat {
    mul_impl_with(a, b, prec, Path::Fast)
}

#[inline]
fn mul_impl_with(a: &BigFloat, b: &BigFloat, prec: u32, path: Path) -> BigFloat {
    let (sa, ka, ea, la, _) = a.parts();
    let (sb, kb, eb, lb, _) = b.parts();
    let sign = sa.xor(sb);
    match (ka, kb) {
        (Kind::Nan, _) | (_, Kind::Nan) => return BigFloat::special(Kind::Nan, Sign::Pos, prec),
        (Kind::Inf, Kind::Zero) | (Kind::Zero, Kind::Inf) => {
            return BigFloat::special(Kind::Nan, Sign::Pos, prec)
        }
        (Kind::Inf, _) | (_, Kind::Inf) => return BigFloat::special(Kind::Inf, sign, prec),
        (Kind::Zero, _) | (_, Kind::Zero) => return BigFloat::special(Kind::Zero, Sign::Pos, prec),
        (Kind::Normal, Kind::Normal) => {}
    }
    let top_a = la.len() as i128 * 64 - 1;
    let top_b = lb.len() as i128 * 64 - 1;
    // The significand product is exact in every tier; the fixed-width
    // kernels just do it on the stack and hand it straight to rounding.
    let round = |out: &[u64]| {
        let h = limb::highest_bit(out).expect("product of normals is nonzero");
        // Exponents combine in i128: |ea + eb| plus bit-index adjustments
        // cannot overflow it, and rounding saturates to Inf/Zero when the
        // final exponent leaves the i64 range.
        let exp_of_top = ea as i128 + eb as i128 - top_a - top_b + h as i128;
        path.round(sign, exp_of_top, out, false, prec)
    };
    if path == Path::Reference {
        return round(&mul_slices(la, lb));
    }
    let exp_sum = i128::from(ea) + i128::from(eb);
    match (la.len(), lb.len()) {
        (_, 1) => mul_by_limb(sign, exp_sum, la, lb[0], prec, round),
        (1, _) => mul_by_limb(sign, exp_sum, lb, la[0], prec, round),
        (2, 2) => round(&limb::fixed::mul::<u64, 2, 4>(fixed_ref(la), fixed_ref(lb))),
        (4, 4) => round(&limb::fixed::mul::<u64, 4, 8>(fixed_ref(la), fixed_ref(lb))),
        (m, n) if m + n <= 2 * INLINE_LIMBS => {
            let mut buf = [0u64; 2 * INLINE_LIMBS];
            let out = &mut buf[..m + n];
            limb::mul(la, lb, out);
            round(out)
        }
        _ => round(&mul_slices(la, lb)),
    }
}

/// `a * b` for a one-limb `b` (a 53-bit `from_f64` coefficient, say),
/// where `exp_sum` is the sum of the operands' exponents: the `N x 1`
/// kernel on the stack up to the inline width, the general slice kernel
/// above it. A whole-limb `prec` rounds in [`mul_whole`].
fn mul_by_limb(
    sign: Sign,
    exp_sum: i128,
    a: &[u64],
    b: u64,
    prec: u32,
    round: impl Fn(&[u64]) -> BigFloat,
) -> BigFloat {
    if a.len() <= nlimbs(prec) {
        match prec {
            64 => return mul_whole::<1>(sign, exp_sum, a, b),
            128 => return mul_whole::<2>(sign, exp_sum, a, b),
            192 => return mul_whole::<3>(sign, exp_sum, a, b),
            256 => return mul_whole::<4>(sign, exp_sum, a, b),
            320 => return mul_whole::<5>(sign, exp_sum, a, b),
            _ => {}
        }
    }
    match a.len() {
        1 => round(&limb::fixed::mul_1::<u64, 1, 2>(fixed_ref(a), b)),
        2 => round(&limb::fixed::mul_1::<u64, 2, 3>(fixed_ref(a), b)),
        3 => round(&limb::fixed::mul_1::<u64, 3, 4>(fixed_ref(a), b)),
        4 => round(&limb::fixed::mul_1::<u64, 4, 5>(fixed_ref(a), b)),
        5 => round(&limb::fixed::mul_1::<u64, 5, 6>(fixed_ref(a), b)),
        _ => round(&mul_slices(a, &[b])),
    }
}

/// `a * b` (`a` of at most `N` limbs, `exp_sum` the operands' exponent
/// sum) rounded to `64 * N` bits: `a` placed in `N` limbs, through the
/// whole-limb kernel.
#[inline]
fn mul_whole<const N: usize>(sign: Sign, exp_sum: i128, a: &[u64], b: u64) -> BigFloat {
    BigFloat::from_whole(sign, whole::mul_kernel::<N>(exp_sum, &place(a), b))
}

/// Views a slice whose length the caller matched as a fixed array.
fn fixed_ref<const N: usize>(limbs: &[u64]) -> &[u64; N] {
    limbs.try_into().expect("length matched by the caller")
}

fn mul_slices(la: &[u64], lb: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; la.len() + lb.len()];
    limb::mul(la, lb, &mut out);
    out
}

fn div_specials(ka: Kind, kb: Kind, sign: Sign, prec: u32) -> Option<BigFloat> {
    match (ka, kb) {
        (Kind::Nan, _) | (_, Kind::Nan) => Some(BigFloat::special(Kind::Nan, Sign::Pos, prec)),
        (Kind::Inf, Kind::Inf) => Some(BigFloat::special(Kind::Nan, Sign::Pos, prec)),
        (Kind::Inf, _) => Some(BigFloat::special(Kind::Inf, sign, prec)),
        (_, Kind::Inf) => Some(BigFloat::special(Kind::Zero, Sign::Pos, prec)),
        (Kind::Zero, Kind::Zero) => Some(BigFloat::special(Kind::Nan, Sign::Pos, prec)),
        (Kind::Zero, Kind::Normal) => Some(BigFloat::special(Kind::Zero, Sign::Pos, prec)),
        (Kind::Normal, Kind::Zero) => Some(BigFloat::special(Kind::Inf, sign, prec)),
        (Kind::Normal, Kind::Normal) => None,
    }
}

fn div_impl(a: &BigFloat, b: &BigFloat, prec: u32) -> BigFloat {
    let (sa, ka, ea, la, _) = a.parts();
    let (sb, kb, eb, lb, _) = b.parts();
    let sign = sa.xor(sb);
    if let Some(r) = div_specials(ka, kb, sign, prec) {
        return r;
    }

    // Word-at-a-time division: widen the dividend by k whole limbs so
    // the integer quotient floor(A·2^(64k) / B) carries at least
    // prec + 64 significant bits, then let the remainder drive an exact
    // sticky bit. One correctly-rounded result, same as the restoring
    // bit loop this replaced (kept as `testing::div_restoring`), at
    // O(n·m) limb ops instead of O(prec·n).
    let ql = prec as usize / 64 + 2;
    let k = (lb.len() + ql).saturating_sub(la.len());
    let (q, r) = if k == 0 {
        // Dividend already k-limbs wider than needed; quotient keeps
        // >= 64*ql - 1 bits regardless.
        limb::div_rem_knuth(la, lb)
    } else {
        let mut num = vec![0u64; la.len() + k];
        num[k..].copy_from_slice(la);
        limb::div_rem_knuth(&num, lb)
    };
    let sticky = !limb::is_zero(&r);
    let h = limb::highest_bit(&q).expect("quotient of normals is nonzero");
    let top_a = la.len() as i128 * 64 - 1;
    let top_b = lb.len() as i128 * 64 - 1;
    // a/b = (Q + r/B) · 2^E with E = ea - eb + top_b - top_a - 64k, so
    // bit i of Q has weight 2^(i+E) and the top bit carries E + h.
    let exp_of_top = ea as i128 - eb as i128 + top_b - top_a - 64 * k as i128 + h as i128;
    BigFloat::from_raw_wide(sign, exp_of_top, &q, sticky, prec)
}

/// The pre-rewrite restoring bit-by-bit division, kept as a slow
/// differential reference for the Knuth-D path (`prec + 3` full-slice
/// compare/sub/shift passes).
#[expect(
    clippy::cast_possible_truncation,
    reason = "`prec + 3` quotient bits is at most MAX_PREC + 3, so their limb count fits usize"
)]
fn div_impl_restoring(a: &BigFloat, b: &BigFloat, prec: u32) -> BigFloat {
    let (sa, ka, ea, la, _) = a.parts();
    let (sb, kb, eb, lb, _) = b.parts();
    let sign = sa.xor(sb);
    if let Some(r) = div_specials(ka, kb, sign, prec) {
        return r;
    }

    // Restoring binary long division on magnitudes aligned to a common
    // width, producing prec + 3 quotient bits plus an exact sticky.
    let wl = la.len().max(lb.len()) + 1;
    let mut r = vec![0u64; wl];
    let mut den = vec![0u64; wl];
    // Align both tops to bit wl*64 - 2 (headroom for the shift).
    r[wl - la.len()..].copy_from_slice(la);
    den[wl - lb.len()..].copy_from_slice(lb);
    limb::shr_in_place_sticky(&mut r, 1);
    limb::shr_in_place_sticky(&mut den, 1);

    let qbits = prec as u64 + 3;
    let qlimbs = qbits.div_ceil(64) as usize;
    let mut q = vec![0u64; qlimbs];
    let mut tmp = vec![0u64; wl];
    for i in 0..qbits {
        if limb::cmp_same_len(&r, &den) != core::cmp::Ordering::Less {
            let borrow = limb::sub_same_len(&r, &den, &mut tmp);
            debug_assert!(!borrow);
            core::mem::swap(&mut r, &mut tmp);
            limb::add_bit(&mut q, qbits - 1 - i);
        }
        limb::shl_in_place(&mut r, 1);
    }
    let sticky = !limb::is_zero(&r);
    let Some(h) = limb::highest_bit(&q) else {
        // Quotient in (1/2, 2) always produces at least one bit.
        unreachable!("quotient of normals is nonzero");
    };
    // Bit (qbits-1) of q carries weight 2^0 of the aligned ratio.
    let exp_of_top = ea as i128 - eb as i128 - (qbits as i128 - 1) + h as i128;
    BigFloat::from_raw_wide(sign, exp_of_top, &q, sticky, prec)
}

/// Differential-test hooks: the general slice kernels, the retired
/// bit-indexed rounding and the retired restoring division, callable
/// directly so test suites can prove the specialized fast paths and the
/// rounding core bit-identical to them. Not a public API.
#[doc(hidden)]
pub mod testing {
    use super::*;

    /// Addition forced through the general slice kernels and the
    /// bit-indexed rounding.
    #[must_use]
    pub fn add_general(a: &BigFloat, b: &BigFloat, prec: u32) -> BigFloat {
        add_signed_with(a, b, false, prec, Path::Reference)
    }

    /// Subtraction forced through the general slice kernels and the
    /// bit-indexed rounding.
    #[must_use]
    pub fn sub_general(a: &BigFloat, b: &BigFloat, prec: u32) -> BigFloat {
        add_signed_with(a, b, true, prec, Path::Reference)
    }

    /// Multiplication forced through the general slice kernel and the
    /// bit-indexed rounding.
    #[must_use]
    pub fn mul_general(a: &BigFloat, b: &BigFloat, prec: u32) -> BigFloat {
        mul_impl_with(a, b, prec, Path::Reference)
    }

    /// `x.round_to(prec)` through the bit-indexed rounding.
    #[must_use]
    pub fn round_general(x: &BigFloat, prec: u32) -> BigFloat {
        round_with(x, prec, Path::Reference)
    }

    /// Division via the pre-rewrite restoring bit-by-bit algorithm.
    #[must_use]
    pub fn div_restoring(a: &BigFloat, b: &BigFloat, prec: u32) -> BigFloat {
        div_impl_restoring(a, b, prec)
    }
}

impl core::ops::Neg for &BigFloat {
    type Output = BigFloat;
    fn neg(self) -> BigFloat {
        BigFloat::neg(self)
    }
}

macro_rules! bin_op {
    ($trait:ident, $method:ident, $ctx_method:ident) => {
        impl core::ops::$trait<&BigFloat> for &BigFloat {
            type Output = BigFloat;
            fn $method(self, rhs: &BigFloat) -> BigFloat {
                let prec = self.precision().max(rhs.precision());
                Context::new(prec).$ctx_method(self, rhs)
            }
        }
        impl core::ops::$trait<BigFloat> for BigFloat {
            type Output = BigFloat;
            fn $method(self, rhs: BigFloat) -> BigFloat {
                (&self).$method(&rhs)
            }
        }
    };
}

bin_op!(Add, add, add);
bin_op!(Sub, sub, sub);
bin_op!(Mul, mul, mul);
bin_op!(Div, div, div);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit_identical;

    fn ctx() -> Context {
        Context::new(256)
    }

    #[test]
    fn add_small_integers() {
        let c = ctx();
        let r = c.add(&BigFloat::from_u64(2), &BigFloat::from_u64(3));
        assert_eq!(r.to_f64(), 5.0);
    }

    #[test]
    fn add_matches_f64_on_random_values() {
        let c = Context::new(53);
        let cases: [(f64, f64); 8] = [
            (1.5, 2.25),
            (0.1, 0.2),
            (1e300, 1e280),
            (1e-300, 1e-280),
            (3.7, -3.7),
            (1.0, f64::EPSILON / 2.0),
            (-5.5, 2.25),
            (123456789.0, 0.000001),
        ];
        for (x, y) in cases {
            let r = c.add(&BigFloat::from_f64(x), &BigFloat::from_f64(y));
            assert_eq!(r.to_f64(), x + y, "add({x}, {y})");
        }
    }

    #[test]
    fn sub_matches_f64() {
        let c = Context::new(53);
        let cases: [(f64, f64); 6] = [
            (1.5, 2.25),
            (0.3, 0.1),
            (1e16, 1.0),
            (1.0000000000000002, 1.0),
            (-2.5, -2.5),
            (1e-308, 1e-309),
        ];
        for (x, y) in cases {
            let r = c.sub(&BigFloat::from_f64(x), &BigFloat::from_f64(y));
            assert_eq!(r.to_f64(), x - y, "sub({x}, {y})");
        }
    }

    #[test]
    fn mul_matches_f64() {
        let c = Context::new(53);
        let cases: [(f64, f64); 6] = [
            (1.5, 2.25),
            (0.1, 0.2),
            (1e150, 1e-150),
            (-3.0, 7.0),
            (0.3, 0.3),
            (1e-200, 1e-120),
        ];
        for (x, y) in cases {
            let r = c.mul(&BigFloat::from_f64(x), &BigFloat::from_f64(y));
            assert_eq!(r.to_f64(), x * y, "mul({x}, {y})");
        }
    }

    #[test]
    fn div_matches_f64() {
        let c = Context::new(53);
        let cases: [(f64, f64); 6] = [
            (1.0, 3.0),
            (2.0, 7.0),
            (1e300, 1e-5),
            (-10.0, 4.0),
            (0.3, 0.7),
            (1.0, 10.0),
        ];
        for (x, y) in cases {
            let r = c.div(&BigFloat::from_f64(x), &BigFloat::from_f64(y));
            assert_eq!(r.to_f64(), x / y, "div({x}, {y})");
        }
    }

    #[test]
    fn tiny_probabilities_survive() {
        // The motivating case: products far below binary64's 2^-1074.
        let c = ctx();
        let p = BigFloat::pow2(-100_000);
        let q = c.mul(&p, &p);
        assert_eq!(q.exponent(), Some(-200_000));
        let s = c.add(&q, &q);
        assert_eq!(s.exponent(), Some(-199_999));
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        let c = ctx();
        let x = BigFloat::from_f64(1.0);
        let y = c.sub(&x, &BigFloat::pow2(-200));
        let back = c.sub(&x, &y);
        assert_eq!(back.exponent(), Some(-200));
    }

    #[test]
    fn add_far_apart_keeps_larger_with_sticky() {
        let c = Context::new(53);
        let big = BigFloat::from_f64(1.0);
        let tiny = BigFloat::pow2(-500);
        let r = c.add(&big, &tiny);
        // 1 + 2^-500 rounds to 1 at 53 bits...
        assert_eq!(r.to_f64(), 1.0);
        // ...but subtracting should reveal it was rounded (sticky made it
        // round *down* to exactly 1, not up).
        let r2 = c.sub(&big, &tiny);
        assert!(r2.to_f64() < 1.0 || r2.to_f64() == 1.0);
        // At high precision the sum is exact.
        let c2 = Context::new(600);
        let r3 = c2.add(&big, &tiny);
        let diff = c2.sub(&r3, &big);
        assert_eq!(diff.exponent(), Some(-500));
    }

    #[test]
    fn sub_sticky_rounds_toward_zero_correctly() {
        // x = 1, y = 2^-60 at 10 bits of result precision: 1 - eps must
        // round to 1 - 2^-10 is wrong; correct RNE answer is 1.0? No:
        // 1 - 2^-60 is closer to 1 than to the next 10-bit value below
        // (1 - 2^-10), so it rounds to 1.0.
        let c = Context::new(10);
        let r = c.sub(&BigFloat::from_f64(1.0), &BigFloat::pow2(-60));
        assert_eq!(r.to_f64(), 1.0);
        // 1 - 2^-11 sits exactly halfway between the 10-bit neighbors
        // 1 - 2^-10 and 1.0; the tie goes to the even mantissa, 1.0.
        let r = c.sub(&BigFloat::from_f64(1.0), &BigFloat::pow2(-11));
        assert_eq!(r.to_f64(), 1.0);
        // One sticky bit below the midpoint breaks the tie downward.
        let just_less = &BigFloat::pow2(-11) + &BigFloat::pow2(-40);
        let r = c.sub(&BigFloat::from_f64(1.0), &just_less);
        assert_eq!(r.to_f64(), 1.0 - 1.0 / 1024.0);
    }

    #[test]
    fn specials_propagate() {
        let c = ctx();
        let nan = BigFloat::nan();
        let inf = BigFloat::infinity(Sign::Pos);
        let one = BigFloat::one();
        assert!(c.add(&nan, &one).is_nan());
        assert!(c.sub(&inf, &inf).is_nan());
        assert!(c.mul(&inf, &BigFloat::zero()).is_nan());
        assert!(c.div(&BigFloat::zero(), &BigFloat::zero()).is_nan());
        assert_eq!(c.div(&one, &BigFloat::zero()).kind(), Kind::Inf);
        assert!(c.div(&one, &inf).is_zero());
        assert_eq!(c.add(&inf, &one).kind(), Kind::Inf);
    }

    #[test]
    fn div_exact_quotients() {
        let c = ctx();
        let r = c.div(&BigFloat::from_u64(10), &BigFloat::from_u64(2));
        assert_eq!(r.to_f64(), 5.0);
        let r = c.div(&BigFloat::from_u64(1), &BigFloat::from_u64(1024));
        assert_eq!(r.to_f64(), 1.0 / 1024.0);
    }

    #[test]
    fn div_one_third_round_trips() {
        let c = ctx();
        let third = c.div(&BigFloat::one(), &BigFloat::from_u64(3));
        let back = c.mul(&third, &BigFloat::from_u64(3));
        // 3 * round(1/3) is within 1 ulp of 1 at 256 bits.
        let err = c.sub(&back, &BigFloat::one()).abs();
        assert!(err.is_zero() || err.exponent().unwrap() < -250);
    }

    #[test]
    fn div_matches_restoring_reference() {
        // Spot check: the Knuth-D quotient path must agree bit-for-bit
        // with the retired restoring division (the full differential
        // proptests live in tests/kernels.rs).
        let vals = [0.3, 1.0 / 3.0, 7.25, 1e-17, 123456.789, 2.0];
        for prec in [24u32, 53, 128, 256, 1024] {
            let c = Context::new(prec);
            for &x in &vals {
                for &y in &vals {
                    let a = BigFloat::from_f64(x);
                    let b = BigFloat::from_f64(y);
                    let new = c.div(&a, &b);
                    let old = testing::div_restoring(&a, &b, prec);
                    assert!(
                        bit_identical(&new, &old),
                        "div({x}, {y}) at prec {prec} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn mul_exponent_saturates_to_inf() {
        // exp(1.5 * 2^MAX * 1.5) = i64::MAX + 1: must saturate, not
        // panic (the old i64 exponent arithmetic overflowed in debug).
        let c = ctx();
        let big = BigFloat::from_f64(1.5).mul_pow2(i64::MAX);
        let r = c.mul(&big, &BigFloat::from_f64(1.5));
        assert_eq!(r.kind(), Kind::Inf);
        assert_eq!(r.sign(), Sign::Pos);
        let rneg = c.mul(&big.neg(), &BigFloat::from_f64(1.5));
        assert_eq!(rneg.kind(), Kind::Inf);
        assert_eq!(rneg.sign(), Sign::Neg);
    }

    #[test]
    fn mul_exponent_saturates_to_zero() {
        let c = ctx();
        let tiny = BigFloat::from_f64(0.75).mul_pow2(i64::MIN + 1);
        let r = c.mul(&tiny, &tiny);
        assert!(r.is_zero());
        assert_eq!(r.sign(), Sign::Pos);
    }

    #[test]
    fn mul_stays_finite_at_exponent_boundary() {
        let c = ctx();
        let r = c.mul(&BigFloat::pow2(i64::MAX), &BigFloat::from_f64(0.5));
        assert_eq!(r.exponent(), Some(i64::MAX - 1));
        let r = c.mul(&BigFloat::pow2(i64::MAX), &BigFloat::one());
        assert_eq!(r.exponent(), Some(i64::MAX));
        let r = c.mul(&BigFloat::pow2(i64::MAX), &BigFloat::from_u64(2));
        assert_eq!(r.kind(), Kind::Inf);
        let r = c.mul(&BigFloat::pow2(i64::MIN), &BigFloat::one());
        assert_eq!(r.exponent(), Some(i64::MIN));
    }

    #[test]
    fn mul_huge_opposite_exponents_cancel_to_finite() {
        // Regression for the old checked_add fallback: opposite-sign
        // exponent extremes must produce the exact finite product, never
        // NaN. 2^MAX * 2^(MIN+1) = 2^0.
        let c = ctx();
        let r = c.mul(&BigFloat::pow2(i64::MAX), &BigFloat::pow2(i64::MIN + 1));
        assert_eq!(r.exponent(), Some(0));
        assert_eq!(r.to_f64(), 1.0);
        let r = c.mul(&BigFloat::pow2(i64::MIN + 1), &BigFloat::pow2(i64::MAX));
        assert!(!r.is_nan());
        assert_eq!(r.exponent(), Some(0));
    }

    #[test]
    fn div_exponent_saturates() {
        let c = ctx();
        // exp(2^MAX / 2^MIN) = MAX - MIN, far past i64: saturate to Inf.
        let r = c.div(&BigFloat::pow2(i64::MAX), &BigFloat::pow2(i64::MIN));
        assert_eq!(r.kind(), Kind::Inf);
        assert_eq!(r.sign(), Sign::Pos);
        let r = c.div(
            &BigFloat::from_f64(-1.0).mul_pow2(i64::MAX),
            &BigFloat::pow2(i64::MIN),
        );
        assert_eq!(r.kind(), Kind::Inf);
        assert_eq!(r.sign(), Sign::Neg);
        // And the mirror image underflows to the single unsigned zero.
        let r = c.div(&BigFloat::pow2(i64::MIN), &BigFloat::pow2(i64::MAX));
        assert!(r.is_zero());
        assert_eq!(r.sign(), Sign::Pos);
        // Exactly at the boundary stays finite.
        let r = c.div(&BigFloat::pow2(i64::MIN + 10), &BigFloat::pow2(10));
        assert_eq!(r.exponent(), Some(i64::MIN));
    }

    #[test]
    fn add_exponent_saturates_at_range_edges() {
        let c = ctx();
        // 2^MAX + 2^MAX = 2^(MAX+1): overflow to Inf instead of panicking.
        let r = c.add(&BigFloat::pow2(i64::MAX), &BigFloat::pow2(i64::MAX));
        assert_eq!(r.kind(), Kind::Inf);
        assert_eq!(r.sign(), Sign::Pos);
        // 1.5*2^MIN - 2^MIN = 2^(MIN-1): underflow to zero.
        let a = BigFloat::from_f64(1.5).mul_pow2(i64::MIN);
        let r = c.sub(&a, &BigFloat::pow2(i64::MIN));
        assert!(r.is_zero());
    }

    #[test]
    fn operators_use_max_precision() {
        let a = BigFloat::from_f64(0.1);
        let b = BigFloat::from_f64(0.2);
        let s = &a + &b;
        assert!((s.to_f64() - 0.30000000000000004).abs() < 1e-18);
        let p = &a * &b;
        assert!((p.to_f64() - 0.1 * 0.2).abs() < 1e-18);
    }
}
