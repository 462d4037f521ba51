//! Ordering and equality for [`BigFloat`].

use crate::repr::{BigFloat, Kind, Sign};
use core::cmp::Ordering;

impl BigFloat {
    /// Compares magnitudes (`|self|` vs `|other|`).
    ///
    /// Returns `None` if either value is NaN. Infinities compare larger
    /// than every finite value.
    #[must_use]
    fn cmp_abs(&self, other: &BigFloat) -> Option<Ordering> {
        let (_, ka, ea, la, _) = self.parts();
        let (_, kb, eb, lb, _) = other.parts();
        match (ka, kb) {
            (Kind::Nan, _) | (_, Kind::Nan) => None,
            (Kind::Inf, Kind::Inf) => Some(Ordering::Equal),
            (Kind::Inf, _) => Some(Ordering::Greater),
            (_, Kind::Inf) => Some(Ordering::Less),
            (Kind::Zero, Kind::Zero) => Some(Ordering::Equal),
            (Kind::Zero, _) => Some(Ordering::Less),
            (_, Kind::Zero) => Some(Ordering::Greater),
            (Kind::Normal, Kind::Normal) => Some(match ea.cmp(&eb) {
                Ordering::Equal => cmp_limbs_padded(la, lb),
                other => other,
            }),
        }
    }
}

/// Compares two normalized limb magnitudes that may differ in length;
/// the shorter is treated as zero-extended at the least-significant end.
fn cmp_limbs_padded(a: &[u64], b: &[u64]) -> Ordering {
    let mut i = a.len();
    let mut j = b.len();
    while i > 0 && j > 0 {
        i -= 1;
        j -= 1;
        match a[i].cmp(&b[j]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    if a[..i].iter().any(|&l| l != 0) {
        return Ordering::Greater;
    }
    if b[..j].iter().any(|&l| l != 0) {
        return Ordering::Less;
    }
    Ordering::Equal
}

impl PartialEq for BigFloat {
    fn eq(&self, other: &BigFloat) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialOrd for BigFloat {
    fn partial_cmp(&self, other: &BigFloat) -> Option<Ordering> {
        let (sa, ka, ..) = self.parts();
        let (sb, kb, ..) = other.parts();
        if ka == Kind::Nan || kb == Kind::Nan {
            return None;
        }
        let neg_a = sa == Sign::Neg && ka != Kind::Zero;
        let neg_b = sb == Sign::Neg && kb != Kind::Zero;
        match (neg_a, neg_b) {
            (false, true) => Some(Ordering::Greater),
            (true, false) => Some(Ordering::Less),
            (false, false) => self.cmp_abs(other),
            (true, true) => other.cmp_abs(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_f64() {
        let pairs = [
            (1.0, 2.0),
            (-1.0, 1.0),
            (-2.0, -1.0),
            (0.0, 1e-300),
            (0.3, 0.2999999),
            (1e300, 1e299),
            (-0.0, 0.0),
        ];
        for (x, y) in pairs {
            let bx = BigFloat::from_f64(x);
            let by = BigFloat::from_f64(y);
            assert_eq!(bx.partial_cmp(&by), x.partial_cmp(&y), "cmp({x}, {y})");
        }
    }

    #[test]
    fn nan_is_unordered() {
        let nan = BigFloat::nan();
        assert_eq!(nan.partial_cmp(&BigFloat::one()), None);
        assert!(nan != nan);
    }

    #[test]
    fn huge_exponents_order_correctly() {
        let a = BigFloat::pow2(-2_900_000);
        let b = BigFloat::pow2(-1_000_000);
        assert!(a < b);
        assert!(a > BigFloat::zero());
        assert!(a.neg() < BigFloat::zero());
        assert!(BigFloat::infinity(Sign::Pos) > b);
        assert!(BigFloat::infinity(Sign::Neg) < a.neg());
    }

    #[test]
    fn equal_values_with_different_precision() {
        let a = BigFloat::from_f64(1.5);
        let b = a.round_to(500);
        assert_eq!(a, b);
        let c = &BigFloat::from_f64(0.75) + &BigFloat::from_f64(0.75);
        assert_eq!(a, c);
    }
}
