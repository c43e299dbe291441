//! Property-based tests: ring axioms for `Uint` checked against `u128`
//! reference arithmetic and algebraic identities at full width.

use proptest::prelude::*;
use proptest::TestCaseError;
use tre_bigint::{mod_inverse, prime, MontyParams, Uint, U256};

fn u256(v: u128) -> U256 {
    U256::from_u128(v)
}

/// Oracle check for the fused-CIOS multiplier and the dedicated squaring:
/// at any limb width, both must agree with the classic two-pass
/// (schoolbook product, then REDC) on a random odd modulus.
fn cios_matches_two_pass<const L: usize>(
    m_raw: [u64; L],
    a_raw: [u64; L],
    b_raw: [u64; L],
) -> Result<(), TestCaseError> {
    let mut m = Uint::<L>::from_limbs(m_raw);
    m.limbs_mut()[0] |= 1; // Montgomery needs an odd modulus
    prop_assume!(m > Uint::from_u64(2));
    let ctx = MontyParams::new(m).unwrap();
    let a = Uint::from_limbs(a_raw).rem(&m);
    let b = Uint::from_limbs(b_raw).rem(&m);
    prop_assert_eq!(ctx.mul(&a, &b), ctx.mul_two_pass(&a, &b));
    prop_assert_eq!(ctx.square(&a), ctx.mul_two_pass(&a, &a));
    prop_assert_eq!(ctx.square(&b), ctx.mul(&b, &b));
    Ok(())
}

/// Squaring at the carry extremes: a modulus with its top limb's high bit
/// set (so `m²` and every REDC intermediate use the full `2L` limbs) and
/// the inputs 0, 1, `m − 1` and the Montgomery one, against both
/// multipliers.
fn square_edges_full_width<const L: usize>(m_raw: [u64; L]) -> Result<(), TestCaseError> {
    let mut m = Uint::<L>::from_limbs(m_raw);
    m.limbs_mut()[0] |= 1;
    m.limbs_mut()[L - 1] |= 1 << 63;
    let ctx = MontyParams::new(m).unwrap();
    for a in [Uint::ZERO, Uint::ONE, m.wrapping_sub(&Uint::ONE), ctx.one()] {
        prop_assert_eq!(ctx.square(&a), ctx.mul(&a, &a));
        prop_assert_eq!(ctx.square(&a), ctx.mul_two_pass(&a, &a));
    }
    Ok(())
}

proptest! {
    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let s = u256(a as u128).wrapping_add(&u256(b as u128));
        prop_assert_eq!(s, u256(a as u128 + b as u128));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let p = u256(a as u128).wrapping_mul(&u256(b as u128));
        prop_assert_eq!(p, u256(a as u128 * b as u128));
    }

    #[test]
    fn add_commutes(a in any::<[u64; 4]>(), b in any::<[u64; 4]>()) {
        let (a, b) = (U256::from_limbs(a), U256::from_limbs(b));
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }

    #[test]
    fn mul_commutes(a in any::<[u64; 4]>(), b in any::<[u64; 4]>()) {
        let (a, b) = (U256::from_limbs(a), U256::from_limbs(b));
        prop_assert_eq!(a.widening_mul(&b), b.widening_mul(&a));
    }

    #[test]
    fn sub_inverts_add(a in any::<[u64; 4]>(), b in any::<[u64; 4]>()) {
        let (a, b) = (U256::from_limbs(a), U256::from_limbs(b));
        prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn div_rem_reconstructs(a in any::<[u64; 4]>(), b in any::<[u64; 4]>()) {
        let (a, b) = (U256::from_limbs(a), U256::from_limbs(b));
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        // q*b + r == a, with q*b guaranteed not to overflow since q <= a/b.
        let (lo, hi) = q.widening_mul(&b);
        prop_assert!(hi.is_zero());
        prop_assert_eq!(lo.wrapping_add(&r), a);
    }

    #[test]
    fn bytes_roundtrip(a in any::<[u64; 4]>()) {
        let a = U256::from_limbs(a);
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()).unwrap(), a);
    }

    #[test]
    fn hex_roundtrip(a in any::<[u64; 4]>()) {
        let a = U256::from_limbs(a);
        prop_assert_eq!(U256::from_be_hex(&format!("{:x}", a)).unwrap(), a);
    }

    #[test]
    fn shl_shr_inverse(a in any::<[u64; 4]>(), k in 0u32..256) {
        let a = U256::from_limbs(a);
        // Mask off the bits that fall out the top, then the round trip holds.
        let masked = a.shl_vartime(k).shr_vartime(k);
        let expect = if k == 0 { a } else { a.shl_vartime(k).shr_vartime(k) };
        prop_assert_eq!(masked, expect);
        // shr never gains bits
        prop_assert!(a.shr_vartime(k) <= a);
    }

    #[test]
    fn monty_mul_matches_plain(a in any::<u64>(), b in any::<u64>(), raw in any::<[u64; 4]>()) {
        let mut m = U256::from_limbs(raw);
        m.limbs_mut()[0] |= 1; // force odd
        prop_assume!(m > U256::from_u64(2));
        let ctx = MontyParams::new(m).unwrap();
        let am = ctx.to_monty(&U256::from_u64(a));
        let bm = ctx.to_monty(&U256::from_u64(b));
        let got = ctx.from_monty(&ctx.mul(&am, &bm));
        let expect = U256::from_u128(a as u128 * b as u128).rem(&m);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn monty_add_sub_roundtrip(a in any::<[u64; 4]>(), b in any::<[u64; 4]>(), raw in any::<[u64; 4]>()) {
        let mut m = U256::from_limbs(raw);
        m.limbs_mut()[0] |= 1;
        prop_assume!(m > U256::from_u64(2));
        let ctx = MontyParams::new(m).unwrap();
        let a = U256::from_limbs(a).rem(&m);
        let b = U256::from_limbs(b).rem(&m);
        let s = ctx.add(&a, &b);
        prop_assert!(s < m);
        prop_assert_eq!(ctx.sub(&s, &b), a);
        prop_assert_eq!(ctx.add(&a, &ctx.neg(&a)), U256::ZERO);
    }

    #[test]
    fn pow_addition_law(base in any::<u64>(), e1 in 0u64..512, e2 in 0u64..512) {
        // b^(e1+e2) == b^e1 * b^e2 mod p
        let p = U256::from_be_hex(
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
        ).unwrap();
        let ctx = MontyParams::new(p).unwrap();
        let b = ctx.to_monty(&U256::from_u64(base));
        let lhs = ctx.pow(&b, &U256::from_u64(e1 + e2));
        let rhs = ctx.mul(&ctx.pow(&b, &U256::from_u64(e1)), &ctx.pow(&b, &U256::from_u64(e2)));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn inverse_is_inverse(raw in any::<[u64; 4]>()) {
        let p = U256::from_be_hex(
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
        ).unwrap();
        let a = U256::from_limbs(raw).rem(&p);
        prop_assume!(!a.is_zero());
        let inv = mod_inverse(&a, &p).unwrap();
        let ctx = MontyParams::new(p).unwrap();
        let got = ctx.from_monty(&ctx.mul(&ctx.to_monty(&a), &ctx.to_monty(&inv)));
        prop_assert_eq!(got, U256::ONE);
    }

    #[test]
    fn from_be_bytes_mod_matches_rem(bytes in proptest::collection::vec(any::<u8>(), 0..64), raw in any::<[u64; 4]>()) {
        let mut m = U256::from_limbs(raw);
        m.limbs_mut()[0] |= 1;
        prop_assume!(m > U256::ONE);
        let got = U256::from_be_bytes_mod(&bytes, &m);
        // Reference: reduce via 512-bit arithmetic.
        let wide = Uint::<8>::from_be_bytes(&bytes).unwrap();
        let expect = wide.rem(&m.resize()).try_narrow::<4>().unwrap();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn fused_cios_matches_two_pass_2_limbs(m in any::<[u64; 2]>(), a in any::<[u64; 2]>(), b in any::<[u64; 2]>()) {
        cios_matches_two_pass(m, a, b)?;
    }

    #[test]
    fn fused_cios_matches_two_pass_4_limbs(m in any::<[u64; 4]>(), a in any::<[u64; 4]>(), b in any::<[u64; 4]>()) {
        cios_matches_two_pass(m, a, b)?;
    }

    #[test]
    fn fused_cios_matches_two_pass_8_limbs(m in any::<[u64; 8]>(), a in any::<[u64; 8]>(), b in any::<[u64; 8]>()) {
        cios_matches_two_pass(m, a, b)?;
    }

    #[test]
    fn fused_cios_matches_two_pass_16_limbs(m in any::<[u64; 16]>(), a in any::<[u64; 16]>(), b in any::<[u64; 16]>()) {
        cios_matches_two_pass(m, a, b)?;
    }

    #[test]
    fn fused_cios_matches_two_pass_24_limbs(m in any::<[u64; 24]>(), a in any::<[u64; 24]>(), b in any::<[u64; 24]>()) {
        cios_matches_two_pass(m, a, b)?;
    }

    #[test]
    fn square_edges_1_limb(m in any::<[u64; 1]>()) {
        square_edges_full_width(m)?;
    }

    #[test]
    fn square_edges_4_limbs(m in any::<[u64; 4]>()) {
        square_edges_full_width(m)?;
    }

    #[test]
    fn square_edges_8_limbs(m in any::<[u64; 8]>()) {
        square_edges_full_width(m)?;
    }

    #[test]
    fn square_edges_24_limbs(m in any::<[u64; 24]>()) {
        square_edges_full_width(m)?;
    }

    #[test]
    fn jacobi_multiplicative(a in 1u64..1000, b in 1u64..1000) {
        let n = U256::from_u64(1_000_003);
        let ja = prime::jacobi(&U256::from_u64(a), &n);
        let jb = prime::jacobi(&U256::from_u64(b), &n);
        let jab = prime::jacobi(&U256::from_u64(a * b), &n);
        prop_assert_eq!(jab, ja * jb);
    }
}
