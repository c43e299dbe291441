//! Modular inversion via the binary extended GCD (for odd moduli).

use crate::uint::Uint;

/// Halves `x` modulo an odd `m`: `x/2` if even, else `(x+m)/2`.
fn half_mod<const L: usize>(x: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    if x.is_even() {
        x.shr1()
    } else {
        let (s, carry) = x.overflowing_add(m);
        let mut r = s.shr1();
        if carry {
            r.limbs_mut()[L - 1] |= 1u64 << 63;
        }
        r
    }
}

/// `x - y mod m` for reduced inputs.
fn sub_mod<const L: usize>(x: &Uint<L>, y: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    let (d, borrow) = x.overflowing_sub(y);
    if borrow {
        d.wrapping_add(m)
    } else {
        d
    }
}

/// Computes `a^{-1} mod m` for an **odd** modulus `m > 1`.
///
/// Returns `None` if `m` is even, `m <= 1`, or `gcd(a, m) != 1`.
///
/// Binary extended GCD: maintains `x1·a ≡ u (mod m)` and `x2·a ≡ v (mod m)`
/// while reducing `(u, v)` toward `1` by halving and subtraction.
pub fn mod_inverse<const L: usize>(a: &Uint<L>, m: &Uint<L>) -> Option<Uint<L>> {
    if m.is_even() || *m <= Uint::ONE {
        return None;
    }
    // Field inversions pass an already-reduced value: skip the
    // bit-serial division for them.
    let a = if a < m { *a } else { a.rem(m) };
    if a.is_zero() {
        return None;
    }
    let mut u = a;
    let mut v = *m;
    let mut x1 = Uint::<L>::ONE;
    let mut x2 = Uint::<L>::ZERO;
    while u != Uint::ONE && v != Uint::ONE {
        while u.is_even() {
            u = u.shr1();
            x1 = half_mod(&x1, m);
        }
        while v.is_even() {
            v = v.shr1();
            x2 = half_mod(&x2, m);
        }
        if u >= v {
            u = u.wrapping_sub(&v);
            x1 = sub_mod(&x1, &x2, m);
            if u.is_zero() {
                // gcd(a, m) = v != 1 at this point.
                return None;
            }
        } else {
            v = v.wrapping_sub(&u);
            x2 = sub_mod(&x2, &x1, m);
            if v.is_zero() {
                return None;
            }
        }
    }
    Some(if u == Uint::ONE { x1 } else { x2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    type U256 = Uint<4>;

    fn mul_mod(a: &U256, b: &U256, m: &U256) -> U256 {
        let (lo, hi) = a.widening_mul(b);
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(lo.limbs());
        wide[4..].copy_from_slice(hi.limbs());
        Uint::<8>::from_limbs(wide)
            .rem(&m.resize())
            .try_narrow()
            .unwrap()
    }

    #[test]
    fn inverse_small() {
        let m = U256::from_u64(101);
        for a in 1u64..101 {
            let a = U256::from_u64(a);
            let inv = mod_inverse(&a, &m).unwrap();
            assert_eq!(mul_mod(&a, &inv, &m), U256::ONE, "a={:?}", a);
        }
    }

    #[test]
    fn non_invertible() {
        let m = U256::from_u64(99); // 9 * 11
        assert!(mod_inverse(&U256::from_u64(33), &m).is_none());
        assert!(mod_inverse(&U256::from_u64(9), &m).is_none());
        assert!(mod_inverse(&U256::ZERO, &m).is_none());
        // gcd=1 still works for composite odd m
        let inv = mod_inverse(&U256::from_u64(7), &m).unwrap();
        assert_eq!(mul_mod(&U256::from_u64(7), &inv, &m), U256::ONE);
    }

    #[test]
    fn even_modulus_rejected() {
        assert!(mod_inverse(&U256::from_u64(3), &U256::from_u64(100)).is_none());
        assert!(mod_inverse(&U256::from_u64(3), &U256::ONE).is_none());
    }

    #[test]
    fn inverse_large_prime() {
        let p =
            U256::from_be_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
                .unwrap();
        let a = U256::from_be_hex("123456789abcdef0123456789abcdef0123456789abcdef").unwrap();
        let inv = mod_inverse(&a, &p).unwrap();
        assert_eq!(mul_mod(&a, &inv, &p), U256::ONE);
    }

    #[test]
    fn unreduced_input_accepted() {
        let m = U256::from_u64(101);
        let a = U256::from_u64(101 * 5 + 7);
        let inv = mod_inverse(&a, &m).unwrap();
        assert_eq!(mul_mod(&U256::from_u64(7), &inv, &m), U256::ONE);
    }
}
