//! Group-law and pairing-algebra tests on the embedded `toy64` parameters.

use tre_bigint::{Uint, U256};
use tre_pairing::{toy64, G1Affine, Gt};

#[test]
fn params_validate() {
    // Curve::new asserts p ≡ 3 mod 4, q | p+1, generator order — just force
    // construction of all three embedded sets.
    let _ = tre_pairing::toy64();
    let _ = tre_pairing::mid96();
    let _ = tre_pairing::high128();
}

#[test]
fn generator_on_curve_and_in_subgroup() {
    let c = toy64();
    let g = c.generator();
    assert!(c.is_on_curve(&g));
    assert!(c.in_subgroup(&g));
    assert!(!g.is_infinity());
}

#[test]
fn add_identity_and_inverse() {
    let c = toy64();
    let g = c.generator();
    let inf = G1Affine::infinity(c.fp());
    assert_eq!(c.g1_add(&g, &inf), g);
    assert_eq!(c.g1_add(&inf, &g), g);
    assert!(c.g1_add(&g, &c.g1_neg(&g)).is_infinity());
    assert!(c.g1_neg(&inf).is_infinity());
}

#[test]
fn add_associative_commutative() {
    let c = toy64();
    let g = c.generator();
    let p2 = c.g1_double(&g);
    let p3 = c.g1_add(&p2, &g);
    let p5a = c.g1_add(&p3, &p2);
    let p5b = c.g1_add(&p2, &p3);
    assert_eq!(p5a, p5b);
    let lhs = c.g1_add(&c.g1_add(&g, &p2), &p3);
    let rhs = c.g1_add(&g, &c.g1_add(&p2, &p3));
    assert_eq!(lhs, rhs);
}

#[test]
fn double_equals_add_self() {
    let c = toy64();
    let g = c.generator();
    assert_eq!(c.g1_double(&g), c.g1_add(&g, &g));
    assert!(c.g1_double(&G1Affine::infinity(c.fp())).is_infinity());
}

#[test]
fn scalar_mul_matches_repeated_add() {
    let c = toy64();
    let g = c.generator();
    let mut acc = G1Affine::infinity(c.fp());
    for k in 0u64..=17 {
        assert_eq!(c.g1_mul(&g, &U256::from_u64(k)), acc, "k={}", k);
        acc = c.g1_add(&acc, &g);
    }
}

#[test]
fn scalar_mul_distributes() {
    let c = toy64();
    let mut rng = rand::thread_rng();
    let g = c.generator();
    let a = c.random_scalar(&mut rng);
    let b = c.random_scalar(&mut rng);
    // (a+b)G == aG + bG
    let lhs = c.g1_mul(&g, &c.scalar_add(&a, &b));
    let rhs = c.g1_add(&c.g1_mul(&g, &a), &c.g1_mul(&g, &b));
    assert_eq!(lhs, rhs);
    // (ab)G == a(bG)
    let lhs = c.g1_mul(&g, &c.scalar_mul(&a, &b));
    let rhs = c.g1_mul(&c.g1_mul(&g, &b), &a);
    assert_eq!(lhs, rhs);
}

#[test]
fn order_annihilates() {
    let c = toy64();
    let g = c.generator();
    assert!(c.g1_mul(&g, c.order()).is_infinity());
    // (q-1)G == -G
    let qm1 = c.order().wrapping_sub(&U256::ONE);
    assert_eq!(c.g1_mul(&g, &qm1), c.g1_neg(&g));
}

#[test]
fn point_serialization_roundtrip() {
    let c = toy64();
    let mut rng = rand::thread_rng();
    for _ in 0..5 {
        let k = c.random_scalar(&mut rng);
        let p = c.g1_mul(&c.generator(), &k);
        let bytes = c.g1_to_bytes(&p);
        assert_eq!(bytes.len(), c.point_len());
        let q = c.g1_from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
        let q = c.g1_from_bytes_checked(&bytes).unwrap();
        assert_eq!(p, q);
    }
    // Infinity round-trips.
    let inf = G1Affine::infinity(c.fp());
    assert!(c.g1_from_bytes(&c.g1_to_bytes(&inf)).unwrap().is_infinity());
}

#[test]
fn point_deserialization_rejects_garbage() {
    let c = toy64();
    assert!(c.g1_from_bytes(&[]).is_err());
    assert!(c.g1_from_bytes(&vec![9u8; c.point_len()]).is_err());
    let mut bytes = c.g1_to_bytes(&c.generator());
    bytes[0] = 7; // bad tag
    assert!(c.g1_from_bytes(&bytes).is_err());
    // x = p (non-canonical) must be rejected.
    let mut noncanon = vec![2u8];
    noncanon.extend_from_slice(&c.fp().modulus().to_be_bytes());
    assert!(c.g1_from_bytes(&noncanon).is_err());
}

#[test]
fn pairing_nondegenerate() {
    let c = toy64();
    let g = c.generator();
    let e = c.pairing(&g, &g);
    assert!(!e.is_one(c));
    // Order q: e^q == 1.
    assert!(e.pow(c.order(), c).is_one(c));
    // But e^(q-1) != 1 (primitive q-th root).
    let qm1 = c.order().wrapping_sub(&U256::ONE);
    assert!(!e.pow(&qm1, c).is_one(c));
}

#[test]
fn pairing_bilinear() {
    let c = toy64();
    let mut rng = rand::thread_rng();
    let g = c.generator();
    let a = c.random_scalar(&mut rng);
    let b = c.random_scalar(&mut rng);
    let ag = c.g1_mul(&g, &a);
    let bg = c.g1_mul(&g, &b);
    let lhs = c.pairing(&ag, &bg);
    let rhs = c.pairing(&g, &g).pow(&c.scalar_mul(&a, &b), c);
    assert_eq!(lhs, rhs);
    // Left/right linearity separately.
    assert_eq!(c.pairing(&ag, &g), c.pairing(&g, &g).pow(&a, c));
    assert_eq!(c.pairing(&g, &bg), c.pairing(&g, &g).pow(&b, c));
}

#[test]
fn pairing_symmetric_in_exponent() {
    // ê(aG, bG) == ê(bG, aG) for the distortion-map pairing.
    let c = toy64();
    let mut rng = rand::thread_rng();
    let g = c.generator();
    let a = c.random_scalar(&mut rng);
    let b = c.random_scalar(&mut rng);
    let ag = c.g1_mul(&g, &a);
    let bg = c.g1_mul(&g, &b);
    assert_eq!(c.pairing(&ag, &bg), c.pairing(&bg, &ag));
}

#[test]
fn pairing_with_infinity_is_one() {
    let c = toy64();
    let g = c.generator();
    let inf = G1Affine::infinity(c.fp());
    assert!(c.pairing(&g, &inf).is_one(c));
    assert!(c.pairing(&inf, &g).is_one(c));
}

#[test]
fn pairing_product_and_inverse() {
    let c = toy64();
    let mut rng = rand::thread_rng();
    let g = c.generator();
    let a = c.random_scalar(&mut rng);
    let ag = c.g1_mul(&g, &a);
    // ê(G+aG, G) == ê(G,G)·ê(aG,G)
    let lhs = c.pairing(&c.g1_add(&g, &ag), &g);
    let rhs = c.pairing(&g, &g).mul(&c.pairing(&ag, &g), c);
    assert_eq!(lhs, rhs);
    // ê(−G, G) == ê(G, G)^{-1}
    let lhs = c.pairing(&c.g1_neg(&g), &g);
    let rhs = c.pairing(&g, &g).invert(c);
    assert_eq!(lhs, rhs);
    // multi_pairing agrees with the manual product.
    let mp = c.multi_pairing(&[(g, g), (ag, g)]);
    let manual = c.pairing(&g, &g).mul(&c.pairing(&ag, &g), c);
    assert_eq!(mp, manual);
    assert!(c.multi_pairing(&[]).is_one(c));
}

#[test]
fn hash_to_g1_properties() {
    let c = toy64();
    let p1 = c.hash_to_g1(b"time", b"2026-07-04T00:00:00Z");
    let p2 = c.hash_to_g1(b"time", b"2026-07-04T00:00:00Z");
    let p3 = c.hash_to_g1(b"time", b"2026-07-04T00:00:01Z");
    let p4 = c.hash_to_g1(b"othr", b"2026-07-04T00:00:00Z");
    assert_eq!(p1, p2, "deterministic");
    assert_ne!(p1, p3, "message-sensitive");
    assert_ne!(p1, p4, "domain-separated");
    assert!(c.in_subgroup(&p1));
    assert!(!p1.is_infinity());
}

#[test]
fn hash_to_g1_pairing_compatible() {
    // ê(sG, H(T)) == ê(G, sH(T)) — the paper's key-update verification.
    let c = toy64();
    let mut rng = rand::thread_rng();
    let g = c.generator();
    let s = c.random_scalar(&mut rng);
    let h = c.hash_to_g1(b"t", b"12:00");
    let lhs = c.pairing(&c.g1_mul(&g, &s), &h);
    let rhs = c.pairing(&g, &c.g1_mul(&h, &s));
    assert_eq!(lhs, rhs);
}

#[test]
fn cofactor_fold_identity_mid96() {
    // The toy64 proptest's identity on the paper-era parameters:
    // h·P = H1 and ê((h mod q)·A, P) = ê(A, H1) = ê(A, P)^(h mod q).
    let c = tre_pairing::mid96();
    let a = c.g1_mul(&c.generator(), &U256::from_u64(0x5eed_f01d));
    let h_a = c.g1_mul(&a, c.cofactor_mod_q());
    for msg in [&b"2026-07-04T00:00:00Z"[..], b"epoch-17"] {
        let p = c.h1_candidate(b"time", msg);
        let h1 = c.hash_to_g1(b"time", msg);
        assert_eq!(c.g1_mul_uint(&p, c.cofactor()), h1);
        let folded = c.pairing(&h_a, &p);
        assert_eq!(folded, c.pairing(&a, &h1));
        assert_eq!(c.pairing(&a, &p).pow(c.cofactor_mod_q(), c), folded);
    }
}

#[test]
fn h_torsion_points_pair_to_one() {
    // A candidate P with h·P = O pairs to 1 against any order-q point:
    // the case the folded verify, forecast and seal must fall back on.
    let c = toy64();
    let a = c.g1_mul(&c.generator(), &U256::from_u64(77));
    let at_x = |x: Uint<8>| {
        let mut bytes = vec![2];
        bytes.extend_from_slice(&x.to_be_bytes());
        c.g1_from_bytes(&bytes).ok()
    };
    let one = Uint::<8>::ONE;
    let order2 = at_x(Uint::ZERO).expect("(0, 0) is on the curve");
    let order4 = at_x(one)
        .or_else(|| at_x(c.fp().modulus().wrapping_sub(&one)))
        .expect("x = 1 or x = −1 is on the curve");
    assert_eq!(c.g1_double(&order4), order2);
    for p in [order2, order4] {
        assert!(c.g1_mul_uint(&p, c.cofactor()).is_infinity());
        assert!(!c.in_subgroup(&p));
        assert!(c.pairing(&a, &p).is_one(c));
        assert!(c.pairing_prepared(&c.prepare(&a), &p).is_one(c));
    }
}

#[test]
fn gt_kdf_stable_and_separated() {
    let c = toy64();
    let g = c.generator();
    let e = c.pairing(&g, &g);
    let k1 = c.gt_kdf(&e, b"mask", 32);
    let k2 = c.gt_kdf(&e, b"mask", 32);
    let k3 = c.gt_kdf(&e, b"other", 32);
    assert_eq!(k1, k2);
    assert_ne!(k1, k3);
    assert_eq!(c.gt_kdf(&e, b"mask", 100).len(), 100);
    // Different Gt values → different keys.
    let e2 = e.mul(&e, c);
    assert_ne!(c.gt_kdf(&e2, b"mask", 32), k1);
}

#[test]
fn gt_group_order() {
    let c = toy64();
    let g = c.generator();
    let e = c.pairing(&g, &g);
    // Raising to the full cofactored order (p+1) gives identity too, since
    // q | p+1.
    let p1: Uint<8> = c.fp().modulus().wrapping_add(&Uint::ONE);
    assert!(e.pow_uint(&p1, c).is_one(c));
    assert_eq!(Gt::one(c).mul(&e, c), e);
}

#[test]
fn mid96_pairing_smoke() {
    let c = tre_pairing::mid96();
    let mut rng = rand::thread_rng();
    let g = c.generator();
    let a = c.random_scalar(&mut rng);
    let lhs = c.pairing(&c.g1_mul(&g, &a), &g);
    let rhs = c.pairing(&g, &g).pow(&a, c);
    assert_eq!(lhs, rhs);
}

#[test]
fn wnaf_matches_binary_scalar_mul() {
    let c = toy64();
    let mut rng = rand::thread_rng();
    let g = c.generator();
    for _ in 0..5 {
        let k = c.random_scalar(&mut rng);
        assert_eq!(c.g1_mul(&g, &k), c.g1_mul_binary(&g, &k));
    }
    // Edge scalars.
    for v in [1u64, 2, 3, 15, 16, 17] {
        let k = U256::from_u64(v);
        assert_eq!(c.g1_mul(&g, &k), c.g1_mul_binary(&g, &k), "k={v}");
    }
}

#[test]
fn shared_miller_matches_naive_product() {
    let c = toy64();
    let mut rng = rand::thread_rng();
    let g = c.generator();
    let pairs: Vec<_> = (0..4)
        .map(|_| {
            (
                c.g1_mul(&g, &c.random_scalar(&mut rng)),
                c.g1_mul(&g, &c.random_scalar(&mut rng)),
            )
        })
        .collect();
    assert_eq!(c.multi_pairing(&pairs), c.multi_pairing_naive(&pairs));
    // With an infinity lane mixed in.
    let mut with_inf = pairs.clone();
    with_inf.push((G1Affine::infinity(c.fp()), g));
    assert_eq!(c.multi_pairing(&with_inf), c.multi_pairing(&pairs));
    assert!(c.multi_pairing(&[]).is_one(c));
}
