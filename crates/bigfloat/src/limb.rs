//! Low-level operations on little-endian limb slices.
//!
//! All functions in this module operate on *magnitudes*: slices are
//! interpreted as unsigned integers with `limbs[0]` least significant.
//! Higher layers attach sign and binary exponent.
//!
//! The arithmetic is generic over the machine word via the [`Limb`]
//! trait. Production code uses `u64` limbs throughout (type inference
//! keeps every existing call site unchanged); the `u32` instantiation
//! exists so tests can cross-check the generic kernels against a second
//! word size. Two specialized layers sit on top of the general slice
//! kernels:
//!
//! - [`fixed`] — const-generic `[L; N]` kernels for the hot fixed
//!   widths (operands up to 320 bits, including `N x 1`-limb
//!   products). No heap, no length dispatch, and the inner loops fully
//!   unroll at monomorphization time.
//! - [`div_rem_knuth`] — word-at-a-time long division (Knuth's
//!   Algorithm D), O(n·m) limb operations instead of the O(bits·n)
//!   restoring bit loop it replaced.

/// Number of bits in one `u64` limb (the production limb type).
pub const LIMB_BITS: u32 = 64;

/// A machine word usable as a bignum limb.
///
/// Implemented for `u64` (production) and `u32` (tested alternative).
/// All methods mirror the corresponding inherent integer methods; the
/// double-width helpers (`widening_mul`, `carrying_mul_add`,
/// `div2by1`) are the only places a wider intermediate type appears.
pub trait Limb:
    Copy
    + Eq
    + Ord
    + core::fmt::Debug
    + core::hash::Hash
    + core::ops::BitAnd<Output = Self>
    + core::ops::BitOr<Output = Self>
{
    /// Number of bits in the limb.
    const BITS: u32;
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// All bits set.
    const MAX: Self;

    /// `1` if `bit` else `0` — carries and borrows as limbs.
    fn from_bit(bit: bool) -> Self;
    /// Number of leading zero bits.
    fn leading_zeros(self) -> u32;
    /// Wrapping addition plus carry-out flag.
    fn overflowing_add(self, rhs: Self) -> (Self, bool);
    /// Wrapping subtraction plus borrow-out flag.
    fn overflowing_sub(self, rhs: Self) -> (Self, bool);
    /// Wrapping addition.
    fn wrapping_add(self, rhs: Self) -> Self;
    /// Wrapping subtraction.
    fn wrapping_sub(self, rhs: Self) -> Self;
    /// Left shift by `k < Self::BITS` bits.
    fn shl(self, k: u32) -> Self;
    /// Logical right shift by `k < Self::BITS` bits.
    fn shr(self, k: u32) -> Self;
    /// Full `(lo, hi)` product of two limbs.
    fn widening_mul(self, rhs: Self) -> (Self, Self);
    /// `(lo, hi)` of `self * rhs + add + carry`. The result always fits
    /// two limbs: `(B-1)² + 2(B-1) = B² - 1` where `B = 2^BITS`.
    fn carrying_mul_add(self, rhs: Self, add: Self, carry: Self) -> (Self, Self);
    /// `(quotient, remainder)` of the two-limb value `hi·B + lo` by `d`.
    ///
    /// Requires `hi < d` so the quotient fits one limb.
    fn div2by1(hi: Self, lo: Self, d: Self) -> (Self, Self);
}

macro_rules! impl_limb {
    ($t:ty, $wide:ty) => {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "double-width splits: `t as $t` keeps the low limb and `t >> BITS` the high one; `hi < d` keeps a div2by1 quotient within one limb"
        )]
        impl Limb for $t {
            const BITS: u32 = <$t>::BITS;
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const MAX: Self = <$t>::MAX;

            #[inline(always)]
            fn from_bit(bit: bool) -> Self {
                bit as $t
            }
            #[inline(always)]
            fn leading_zeros(self) -> u32 {
                <$t>::leading_zeros(self)
            }
            #[inline(always)]
            fn overflowing_add(self, rhs: Self) -> (Self, bool) {
                <$t>::overflowing_add(self, rhs)
            }
            #[inline(always)]
            fn overflowing_sub(self, rhs: Self) -> (Self, bool) {
                <$t>::overflowing_sub(self, rhs)
            }
            #[inline(always)]
            fn wrapping_add(self, rhs: Self) -> Self {
                <$t>::wrapping_add(self, rhs)
            }
            #[inline(always)]
            fn wrapping_sub(self, rhs: Self) -> Self {
                <$t>::wrapping_sub(self, rhs)
            }
            #[inline(always)]
            fn shl(self, k: u32) -> Self {
                self << k
            }
            #[inline(always)]
            fn shr(self, k: u32) -> Self {
                self >> k
            }
            #[inline(always)]
            fn widening_mul(self, rhs: Self) -> (Self, Self) {
                let t = self as $wide * rhs as $wide;
                (t as $t, (t >> <$t>::BITS) as $t)
            }
            #[inline(always)]
            fn carrying_mul_add(self, rhs: Self, add: Self, carry: Self) -> (Self, Self) {
                let t = self as $wide * rhs as $wide + add as $wide + carry as $wide;
                (t as $t, (t >> <$t>::BITS) as $t)
            }
            #[inline(always)]
            fn div2by1(hi: Self, lo: Self, d: Self) -> (Self, Self) {
                debug_assert!(hi < d, "div2by1 quotient would not fit one limb");
                let t = ((hi as $wide) << <$t>::BITS) | lo as $wide;
                ((t / d as $wide) as $t, (t % d as $wide) as $t)
            }
        }
    };
}

impl_limb!(u64, u128);
impl_limb!(u32, u64);

/// Returns `a + b` over equal-length slices, writing into `out`.
///
/// `out` must have the same length as `a` and `b`. Returns the carry out
/// of the most significant limb.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_same_len<L: Limb>(a: &[L], b: &[L], out: &mut [L]) -> bool {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    let mut carry = false;
    for i in 0..a.len() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(L::from_bit(carry));
        out[i] = s2;
        carry = c1 || c2;
    }
    carry
}

/// Returns `a - b` over equal-length slices, writing into `out`.
///
/// Requires `a >= b` numerically; the final borrow is returned and is
/// `false` when the precondition holds.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn sub_same_len<L: Limb>(a: &[L], b: &[L], out: &mut [L]) -> bool {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    let mut borrow = false;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(L::from_bit(borrow));
        out[i] = d2;
        borrow = b1 || b2;
    }
    borrow
}

/// Compares two equal-length magnitudes.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn cmp_same_len<L: Limb>(a: &[L], b: &[L]) -> core::cmp::Ordering {
    assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            core::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    core::cmp::Ordering::Equal
}

/// Shifts a magnitude left (towards most significant) by `k` bits in place.
///
/// Bits shifted out of the top are discarded; the caller must ensure the
/// slice is long enough for the intended use.
pub fn shl_in_place<L: Limb>(limbs: &mut [L], k: u32) {
    if k == 0 || limbs.is_empty() {
        return;
    }
    let limb_shift = (k / L::BITS) as usize;
    let bit_shift = k % L::BITS;
    let n = limbs.len();
    if limb_shift >= n {
        limbs.fill(L::ZERO);
        return;
    }
    if bit_shift == 0 {
        for i in (limb_shift..n).rev() {
            limbs[i] = limbs[i - limb_shift];
        }
    } else {
        for i in (limb_shift..n).rev() {
            let lo = limbs[i - limb_shift];
            let lo2 = if i > limb_shift {
                limbs[i - limb_shift - 1]
            } else {
                L::ZERO
            };
            limbs[i] = lo.shl(bit_shift) | lo2.shr(L::BITS - bit_shift);
        }
    }
    limbs[..limb_shift].fill(L::ZERO);
}

/// Shifts a magnitude right by `k` bits in place, returning `true` if any
/// nonzero bit was shifted out (the *sticky* bit).
pub fn shr_in_place_sticky<L: Limb>(limbs: &mut [L], k: u32) -> bool {
    if k == 0 || limbs.is_empty() {
        return false;
    }
    let n = limbs.len();
    let total_bits = n as u64 * L::BITS as u64;
    if k as u64 >= total_bits {
        let sticky = limbs.iter().any(|&l| l != L::ZERO);
        limbs.fill(L::ZERO);
        return sticky;
    }
    let limb_shift = (k / L::BITS) as usize;
    let bit_shift = k % L::BITS;
    let mut sticky = limbs[..limb_shift].iter().any(|&l| l != L::ZERO);
    if bit_shift > 0 {
        sticky |= limbs[limb_shift].shl(L::BITS - bit_shift) != L::ZERO;
    }
    if bit_shift == 0 {
        for i in 0..n - limb_shift {
            limbs[i] = limbs[i + limb_shift];
        }
    } else {
        for i in 0..n - limb_shift {
            let hi = limbs[i + limb_shift];
            let hi2 = if i + limb_shift + 1 < n {
                limbs[i + limb_shift + 1]
            } else {
                L::ZERO
            };
            limbs[i] = hi.shr(bit_shift) | hi2.shl(L::BITS - bit_shift);
        }
    }
    limbs[n - limb_shift..].fill(L::ZERO);
    sticky
}

/// Full schoolbook multiplication: `out = a * b`.
///
/// `out` must have length `a.len() + b.len()` and is fully overwritten.
///
/// # Panics
///
/// Panics if `out.len() != a.len() + b.len()`.
pub fn mul<L: Limb>(a: &[L], b: &[L], out: &mut [L]) {
    assert_eq!(out.len(), a.len() + b.len());
    out.fill(L::ZERO);
    for (i, &ai) in a.iter().enumerate() {
        if ai == L::ZERO {
            continue;
        }
        let mut carry = L::ZERO;
        for (j, &bj) in b.iter().enumerate() {
            let (lo, hi) = ai.carrying_mul_add(bj, out[i + j], carry);
            out[i + j] = lo;
            carry = hi;
        }
        out[i + b.len()] = out[i + b.len()].wrapping_add(carry);
    }
}

/// Divides a magnitude by a single limb in place, returning the remainder.
///
/// # Panics
///
/// Panics if `d == 0`.
pub fn div_small_in_place<L: Limb>(limbs: &mut [L], d: L) -> L {
    assert!(d != L::ZERO, "division by zero limb");
    let mut rem = L::ZERO;
    for l in limbs.iter_mut().rev() {
        let (q, r) = L::div2by1(rem, *l, d);
        *l = q;
        rem = r;
    }
    rem
}

/// Word-at-a-time long division (Knuth's Algorithm D): returns the
/// quotient `floor(num / den)` and the remainder.
///
/// `den` must be *normalized* — its top limb must have the high bit set
/// — which every `BigFloat` significand satisfies by construction, so
/// the usual D1 normalization shift is not needed. The quotient has
/// `num.len() - den.len() + 1` limbs.
///
/// Cost is O(`num.len()` · `den.len()`) limb multiplications, versus
/// O(bits · limbs) full-slice passes for the restoring bit-by-bit
/// division this replaced (`testing::div_restoring` keeps that
/// algorithm as a differential reference).
///
/// # Panics
///
/// Panics if `den` is empty or not normalized, or if
/// `num.len() < den.len()`.
pub fn div_rem_knuth<L: Limb>(num: &[L], den: &[L]) -> (Vec<L>, Vec<L>) {
    let n = den.len();
    assert!(n > 0, "empty divisor");
    assert!(
        den[n - 1].shr(L::BITS - 1) == L::ONE,
        "divisor not normalized"
    );
    assert!(num.len() >= n, "dividend shorter than divisor");

    if n == 1 {
        let d = den[0];
        let mut q = num.to_vec();
        let rem = div_small_in_place(&mut q, d);
        return (q, vec![rem]);
    }

    let m = num.len() - n;
    // Working dividend with one extra high limb for the per-step
    // two-limb window (u[j+n], u[j+n-1]).
    let mut w: Vec<L> = Vec::with_capacity(num.len() + 1);
    w.extend_from_slice(num);
    w.push(L::ZERO);
    let mut q = vec![L::ZERO; m + 1];
    let v_hi = den[n - 1];
    let v_next = den[n - 2];

    for j in (0..=m).rev() {
        // D3: estimate qhat from the top limbs. When the top dividend
        // limb equals the top divisor limb the true digit is B-1 and
        // rhat can exceed one limb (in which case the refinement test
        // below is vacuously satisfied, flagged by `rhat_valid`).
        let (mut qhat, mut rhat, mut rhat_valid) = if w[j + n] == v_hi {
            let (r, overflow) = w[j + n - 1].overflowing_add(v_hi);
            (L::MAX, r, !overflow)
        } else {
            let (qh, r) = L::div2by1(w[j + n], w[j + n - 1], v_hi);
            (qh, r, true)
        };
        // Refine: decrement qhat while qhat·v[n-2] > rhat·B + w[j+n-2].
        // At most two decrements happen for a normalized divisor.
        while rhat_valid {
            let (p_lo, p_hi) = qhat.widening_mul(v_next);
            if (p_hi, p_lo) <= (rhat, w[j + n - 2]) {
                break;
            }
            qhat = qhat.wrapping_sub(L::ONE);
            let (r, overflow) = rhat.overflowing_add(v_hi);
            rhat = r;
            rhat_valid = !overflow;
        }
        // D4: multiply-and-subtract w[j ..= j+n] -= qhat * den.
        let mut carry = L::ZERO;
        let mut borrow = false;
        for i in 0..n {
            let (p_lo, p_hi) = qhat.carrying_mul_add(den[i], carry, L::ZERO);
            carry = p_hi;
            let (d1, b1) = w[j + i].overflowing_sub(p_lo);
            let (d2, b2) = d1.overflowing_sub(L::from_bit(borrow));
            w[j + i] = d2;
            borrow = b1 || b2;
        }
        let (d1, b1) = w[j + n].overflowing_sub(carry);
        let (d2, b2) = d1.overflowing_sub(L::from_bit(borrow));
        w[j + n] = d2;
        // D5/D6: qhat was one too large (probability ~2/B) — add back.
        if b1 || b2 {
            qhat = qhat.wrapping_sub(L::ONE);
            let mut carry = false;
            for i in 0..n {
                let (s1, c1) = w[j + i].overflowing_add(den[i]);
                let (s2, c2) = s1.overflowing_add(L::from_bit(carry));
                w[j + i] = s2;
                carry = c1 || c2;
            }
            // The carry out cancels the borrow that triggered add-back.
            w[j + n] = w[j + n].wrapping_add(L::from_bit(carry));
        }
        q[j] = qhat;
    }

    w.truncate(n);
    (q, w)
}

/// Index (from the least-significant bit, 0-based) of the highest set bit,
/// or `None` if the magnitude is zero.
pub fn highest_bit<L: Limb>(limbs: &[L]) -> Option<u64> {
    for i in (0..limbs.len()).rev() {
        if limbs[i] != L::ZERO {
            return Some(
                i as u64 * L::BITS as u64 + (L::BITS - 1 - limbs[i].leading_zeros()) as u64,
            );
        }
    }
    None
}

/// Returns true if all limbs are zero.
pub fn is_zero<L: Limb>(limbs: &[L]) -> bool {
    limbs.iter().all(|&l| l == L::ZERO)
}

/// Reads the bit at `idx` (0 = least significant). Bits beyond the slice
/// read as zero.
#[expect(
    clippy::cast_possible_truncation,
    reason = "bit indices stay below the buffer bit length, so `idx / BITS` fits usize, and `idx % BITS` < BITS fits u32"
)]
pub fn get_bit<L: Limb>(limbs: &[L], idx: u64) -> bool {
    let limb = (idx / L::BITS as u64) as usize;
    if limb >= limbs.len() {
        return false;
    }
    limbs[limb].shr((idx % L::BITS as u64) as u32) & L::ONE == L::ONE
}

/// Returns true if any bit strictly below `idx` is set.
#[expect(
    clippy::cast_possible_truncation,
    reason = "bit indices stay below the buffer bit length, so `idx / BITS` fits usize, and `idx % BITS` < BITS fits u32"
)]
pub fn any_bit_below<L: Limb>(limbs: &[L], idx: u64) -> bool {
    if idx == 0 {
        return false;
    }
    let whole = (idx / L::BITS as u64) as usize;
    let part = (idx % L::BITS as u64) as u32;
    for &l in limbs.iter().take(whole.min(limbs.len())) {
        if l != L::ZERO {
            return true;
        }
    }
    if part > 0 && whole < limbs.len() {
        let mask = L::MAX.shr(L::BITS - part);
        if limbs[whole] & mask != L::ZERO {
            return true;
        }
    }
    false
}

/// Clears every bit strictly below `idx`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "bit indices stay below the buffer bit length, so `idx / BITS` fits usize, and `idx % BITS` < BITS fits u32"
)]
pub fn clear_bits_below<L: Limb>(limbs: &mut [L], idx: u64) {
    let whole = (idx / L::BITS as u64) as usize;
    let part = (idx % L::BITS as u64) as u32;
    let upto = whole.min(limbs.len());
    for l in limbs.iter_mut().take(upto) {
        *l = L::ZERO;
    }
    if part > 0 && whole < limbs.len() {
        let mask = L::MAX.shl(part);
        limbs[whole] = limbs[whole] & mask;
    }
}

/// Adds `1 << idx` to the magnitude in place; returns carry out of the top.
#[expect(
    clippy::cast_possible_truncation,
    reason = "bit indices stay below the buffer bit length, so `idx / BITS` fits usize, and `idx % BITS` < BITS fits u32"
)]
pub fn add_bit<L: Limb>(limbs: &mut [L], idx: u64) -> bool {
    let mut limb = (idx / L::BITS as u64) as usize;
    if limb >= limbs.len() {
        return false;
    }
    let mut add = L::ONE.shl((idx % L::BITS as u64) as u32);
    while limb < limbs.len() {
        let (s, c) = limbs[limb].overflowing_add(add);
        limbs[limb] = s;
        if !c {
            return false;
        }
        add = L::ONE;
        limb += 1;
    }
    true
}

/// Allocation-free const-generic kernels for fixed operand widths.
///
/// These are the hot paths `Context::{add,sub,mul}` routes work up to
/// 320 bits through: the array length is a compile-time constant, so the
/// inner loops fully unroll and nothing touches the heap. Results are
/// bit-identical to the general slice kernels (cross-checked by tests
/// and by the goldens diff gate).
pub mod fixed {
    use super::Limb;

    /// `a + b` over fixed-width arrays; returns `(sum, carry_out)`.
    #[inline]
    pub fn add<L: Limb, const N: usize>(a: &[L; N], b: &[L; N]) -> ([L; N], bool) {
        let mut out = [L::ZERO; N];
        let mut carry = false;
        for i in 0..N {
            let (s1, c1) = a[i].overflowing_add(b[i]);
            let (s2, c2) = s1.overflowing_add(L::from_bit(carry));
            out[i] = s2;
            carry = c1 || c2;
        }
        (out, carry)
    }

    /// `a - b` over fixed-width arrays; returns `(difference, borrow_out)`.
    #[inline]
    pub fn sub<L: Limb, const N: usize>(a: &[L; N], b: &[L; N]) -> ([L; N], bool) {
        let mut out = [L::ZERO; N];
        let mut borrow = false;
        for i in 0..N {
            let (d1, b1) = a[i].overflowing_sub(b[i]);
            let (d2, b2) = d1.overflowing_sub(L::from_bit(borrow));
            out[i] = d2;
            borrow = b1 || b2;
        }
        (out, borrow)
    }

    /// Compares two fixed-width magnitudes.
    #[inline]
    pub fn cmp<L: Limb, const N: usize>(a: &[L; N], b: &[L; N]) -> core::cmp::Ordering {
        let mut i = N;
        while i > 0 {
            i -= 1;
            match a[i].cmp(&b[i]) {
                core::cmp::Ordering::Equal => {}
                other => return other,
            }
        }
        core::cmp::Ordering::Equal
    }

    /// Full `N x N -> 2N` limb product with unrolled schoolbook loops.
    ///
    /// # Panics
    ///
    /// Panics if `N2 != 2 * N` (checked once, optimized out).
    #[inline]
    pub fn mul<L: Limb, const N: usize, const N2: usize>(a: &[L; N], b: &[L; N]) -> [L; N2] {
        assert!(N2 == 2 * N, "output width must be twice the input width");
        let mut out = [L::ZERO; N2];
        for i in 0..N {
            let mut carry = L::ZERO;
            for j in 0..N {
                let (lo, hi) = a[i].carrying_mul_add(b[j], out[i + j], carry);
                out[i + j] = lo;
                carry = hi;
            }
            out[i + N] = carry;
        }
        out
    }

    /// Full `N x 1 -> N+1` limb product: a wide value times one limb,
    /// the shape of an oracle state times a 53-bit coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `N1 != N + 1` (checked once, optimized out).
    #[inline]
    pub fn mul_1<L: Limb, const N: usize, const N1: usize>(a: &[L; N], b: L) -> [L; N1] {
        assert!(N1 == N + 1, "output width must be one limb wider");
        let mut out = [L::ZERO; N1];
        let mut carry = L::ZERO;
        for i in 0..N {
            let (lo, hi) = a[i].carrying_mul_add(b, carry, L::ZERO);
            out[i] = lo;
            carry = hi;
        }
        out[N] = carry;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::cmp::Ordering;

    #[test]
    fn add_and_sub_round_trip() {
        let a = [0xFFFF_FFFF_FFFF_FFFFu64, 1];
        let b = [1u64, 0];
        let mut s = [0u64; 2];
        let carry = add_same_len(&a, &b, &mut s);
        assert!(!carry);
        assert_eq!(s, [0, 2]);
        let mut d = [0u64; 2];
        let borrow = sub_same_len(&s, &b, &mut d);
        assert!(!borrow);
        assert_eq!(d, a);
    }

    #[test]
    fn add_carries_out() {
        let a = [u64::MAX, u64::MAX];
        let b = [1u64, 0];
        let mut s = [0u64; 2];
        assert!(add_same_len(&a, &b, &mut s));
        assert_eq!(s, [0, 0]);
    }

    #[test]
    fn cmp_orders_by_high_limb_first() {
        assert_eq!(cmp_same_len(&[0, 2], &[u64::MAX, 1]), Ordering::Greater);
        assert_eq!(cmp_same_len(&[5u64, 1], &[5, 1]), Ordering::Equal);
        assert_eq!(cmp_same_len(&[4u64, 1], &[5, 1]), Ordering::Less);
    }

    #[test]
    fn shl_moves_bits_up() {
        let mut l = [0b1011u64, 0];
        shl_in_place(&mut l, 2);
        assert_eq!(l, [0b101100, 0]);
        let mut l = [1u64 << 63, 0];
        shl_in_place(&mut l, 1);
        assert_eq!(l, [0, 1]);
        let mut l = [7u64, 0];
        shl_in_place(&mut l, 64);
        assert_eq!(l, [0, 7]);
    }

    #[test]
    fn shr_reports_sticky() {
        let mut l = [0b1011u64, 0];
        let sticky = shr_in_place_sticky(&mut l, 2);
        assert!(sticky);
        assert_eq!(l, [0b10, 0]);
        let mut l = [0b1000u64, 0];
        assert!(!shr_in_place_sticky(&mut l, 3));
        assert_eq!(l, [1, 0]);
        let mut l = [1u64, 2];
        assert!(shr_in_place_sticky(&mut l, 65));
        assert_eq!(l, [1, 0]);
        let mut l = [1u64, 0];
        assert!(shr_in_place_sticky(&mut l, 200));
        assert_eq!(l, [0, 0]);
    }

    #[test]
    fn mul_matches_u128() {
        let a = [0xDEAD_BEEF_u64, 0x1234];
        let b = [0xCAFE_BABE_u64, 0];
        let mut out = [0u64; 4];
        mul(&a, &b, &mut out);
        let wide = ((a[1] as u128) << 64 | a[0] as u128) * b[0] as u128;
        // a*b fits in 192 bits here; check the low 128 explicitly.
        assert_eq!(out[0], wide as u64);
        // Recompute limb 1..2 via u128 pieces.
        let lo = a[0] as u128 * b[0] as u128;
        let hi = a[1] as u128 * b[0] as u128 + (lo >> 64);
        assert_eq!(out[1], hi as u64);
        assert_eq!(out[2], (hi >> 64) as u64);
        assert_eq!(out[3], 0);
    }

    /// Multiplies a magnitude by a single limb in place, returning the
    /// carry: the inverse of [`div_small_in_place`].
    fn mul_small_in_place<L: Limb>(limbs: &mut [L], m: L) -> L {
        let mut carry = L::ZERO;
        for l in limbs.iter_mut() {
            let (lo, hi) = l.carrying_mul_add(m, carry, L::ZERO);
            *l = lo;
            carry = hi;
        }
        carry
    }

    #[test]
    fn small_mul_div_invert() {
        let mut l = [0x0123_4567_89AB_CDEFu64, 0x42];
        let orig = l;
        let carry = mul_small_in_place(&mut l, 1_000_003);
        assert_eq!(carry, 0);
        let rem = div_small_in_place(&mut l, 1_000_003);
        assert_eq!(rem, 0);
        assert_eq!(l, orig);
    }

    #[test]
    fn highest_bit_and_bit_access() {
        assert_eq!(highest_bit(&[0u64, 0]), None);
        assert_eq!(highest_bit(&[1u64, 0]), Some(0));
        assert_eq!(highest_bit(&[0u64, 1]), Some(64));
        assert_eq!(highest_bit(&[0u64, 1 << 63]), Some(127));
        let l = [0b100u64, 1];
        assert!(get_bit(&l, 2));
        assert!(!get_bit(&l, 3));
        assert!(get_bit(&l, 64));
        assert!(!get_bit(&l, 1000));
        assert!(any_bit_below(&l, 3));
        assert!(!any_bit_below(&l, 2));
    }

    #[test]
    fn clear_and_add_bit() {
        let mut l = [0b1111u64, 0b1];
        clear_bits_below(&mut l, 3);
        assert_eq!(l, [0b1000, 0b1]);
        let mut l = [u64::MAX, 0];
        assert!(!add_bit(&mut l, 0));
        assert_eq!(l, [0, 1]);
        let mut l = [u64::MAX, u64::MAX];
        assert!(add_bit(&mut l, 0));
        assert_eq!(l, [0, 0]);
    }

    #[test]
    fn generic_kernels_work_with_u32_limbs() {
        // The same operations, instantiated at a different word size,
        // must agree with wide-integer arithmetic.
        let a = [0xFFFF_FFFFu32, 0x1234_5678];
        let b = [1u32, 0x0000_0001];
        let mut s = [0u32; 2];
        assert!(!add_same_len(&a, &b, &mut s));
        let wide = |l: &[u32; 2]| (l[1] as u64) << 32 | l[0] as u64;
        assert_eq!(wide(&s), wide(&a) + wide(&b));
        let mut out = [0u32; 4];
        mul(&a, &b, &mut out);
        let prod = wide(&a) as u128 * wide(&b) as u128;
        let got = (0..4).fold(0u128, |acc, i| acc | (out[i] as u128) << (32 * i));
        assert_eq!(got, prod);
        assert_eq!(highest_bit(&[0u32, 1 << 31]), Some(63));
        let mut l = [0x8000_0001u32, 0x8000_0000];
        assert!(shr_in_place_sticky(&mut l, 1));
        assert_eq!(l, [0x4000_0000, 0x4000_0000]);
    }

    /// Bit-at-a-time restoring long division — slow but obviously
    /// correct; the differential reference for `div_rem_knuth`.
    fn div_rem_bitwise(num: &[u64], den: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let qlen = num.len() - den.len() + 1;
        let mut q = vec![0u64; qlen];
        let mut rem = num.to_vec();
        let db = highest_bit(den).expect("zero divisor");
        let Some(nb) = highest_bit(num) else {
            return (q, rem);
        };
        if nb < db {
            return (q, rem);
        }
        let shift = nb - db;
        let mut d = vec![0u64; rem.len()];
        d[..den.len()].copy_from_slice(den);
        shl_in_place(&mut d, shift as u32);
        for i in (0..=shift).rev() {
            if cmp_same_len(&rem, &d) != Ordering::Less {
                let mut t = vec![0u64; rem.len()];
                let borrow = sub_same_len(&rem, &d, &mut t);
                assert!(!borrow);
                rem = t;
                add_bit(&mut q, i);
            }
            shr_in_place_sticky(&mut d, 1);
        }
        (q, rem)
    }

    fn check_division(num: &[u64], den: &[u64]) {
        let (q, r) = div_rem_knuth(num, den);
        assert_eq!(q.len(), num.len() - den.len() + 1);
        assert_eq!(r.len(), den.len());
        // Identity: q*den + r == num, with r < den.
        assert_eq!(
            cmp_same_len(&r, den),
            Ordering::Less,
            "remainder >= divisor"
        );
        let mut prod = vec![0u64; q.len() + den.len()];
        mul(&q, den, &mut prod);
        let mut rr = vec![0u64; prod.len()];
        rr[..r.len()].copy_from_slice(&r);
        let mut sum = vec![0u64; prod.len()];
        assert!(!add_same_len(&prod, &rr, &mut sum));
        let mut nn = vec![0u64; prod.len()];
        nn[..num.len()].copy_from_slice(num);
        assert_eq!(sum, nn, "q*den + r != num for num={num:?} den={den:?}");
        // And against the bitwise reference.
        let (q2, r2) = div_rem_bitwise(num, den);
        assert!(is_zero(&r2[den.len()..]), "reference remainder too wide");
        assert_eq!(q, q2);
        assert_eq!(&r[..], &r2[..den.len()]);
    }

    #[test]
    fn knuth_division_structured_sweep() {
        // Structured operand patterns chosen to exercise the qhat
        // estimate clamp (top limbs equal), the refinement decrements,
        // and the rare add-back path.
        const S: [u64; 5] = [0, 1, u64::MAX, 1 << 63, (1 << 63) - 1];
        const T: [u64; 4] = [1 << 63, (1 << 63) + 1, u64::MAX, u64::MAX - 1];
        for &d0 in &S {
            for &d1 in &T {
                let den = [d0, d1];
                for &a in &S {
                    for &b in &S {
                        for &c in &S {
                            for &d in &S {
                                check_division(&[a, b, c, d], &den);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn knuth_division_single_limb_divisor() {
        check_division(&[7, 0, 0], &[1 << 63]);
        check_division(&[u64::MAX, u64::MAX, u64::MAX], &[u64::MAX]);
        check_division(&[0x1234_5678_9ABC_DEF0, 42], &[(1 << 63) + 12345]);
    }

    #[test]
    fn knuth_division_known_add_back_shape() {
        // den just above B/2 with a zero second limb forces qhat
        // overestimates; include the canonical shapes from Knuth 4.3.1.
        check_division(&[0, 0, 1 << 63, (1 << 63) - 1], &[0, 1 << 63]);
        check_division(&[0, u64::MAX, u64::MAX - 1, 1 << 63], &[u64::MAX, 1 << 63]);
        check_division(&[0, 0, 0, 1 << 63], &[1, 1 << 63]);
    }

    #[test]
    fn knuth_division_u32_limbs() {
        let num = [0xFFFF_FFFFu32, 0x8000_0001, 0x7FFF_FFFF, 0x9234_5678];
        let den = [0x0000_0003u32, 0x8000_0000];
        let (q, r) = div_rem_knuth(&num, &den);
        let wide = |l: &[u32]| {
            l.iter()
                .enumerate()
                .fold(0u128, |acc, (i, &x)| acc | (x as u128) << (32 * i))
        };
        let (nw, dw) = (wide(&num), wide(&den));
        assert_eq!(wide(&q), nw / dw);
        assert_eq!(wide(&r), nw % dw);
    }

    #[test]
    fn fixed_kernels_match_slice_kernels() {
        let a = [0x0123_4567_89AB_CDEFu64, u64::MAX, 7, 1 << 63];
        let b = [u64::MAX, 1, u64::MAX - 1, (1 << 63) - 1];
        let (s, carry) = fixed::add(&a, &b);
        let mut s2 = [0u64; 4];
        assert_eq!(carry, add_same_len(&a, &b, &mut s2));
        assert_eq!(s, s2);
        let (d, borrow) = fixed::sub(&a, &b);
        let mut d2 = [0u64; 4];
        assert_eq!(borrow, sub_same_len(&a, &b, &mut d2));
        assert_eq!(d, d2);
        assert_eq!(fixed::cmp(&a, &b), cmp_same_len(&a, &b));
        let p: [u64; 8] = fixed::mul(&a, &b);
        let mut p2 = [0u64; 8];
        mul(&a, &b, &mut p2);
        assert_eq!(p, p2);
        let a2 = [a[0], a[1]];
        let b2 = [b[0], b[1]];
        let p_small: [u64; 4] = fixed::mul(&a2, &b2);
        let mut p_small2 = [0u64; 4];
        mul(&a2, &b2, &mut p_small2);
        assert_eq!(p_small, p_small2);
        let p_one: [u64; 5] = fixed::mul_1(&a, b[3]);
        let mut p_one2 = [0u64; 5];
        mul(&a, &b[3..], &mut p_one2);
        assert_eq!(p_one, p_one2);
    }
}
