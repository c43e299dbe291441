//! Property-based tests for field and group algebra on `toy64`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tre_bigint::{Uint, U256};
use tre_pairing::{toy64, Fp2, G1Affine};

fn scalar(raw: [u64; 4]) -> U256 {
    let c = toy64();
    U256::from_limbs(raw).rem(c.order())
}

/// The point of `toy64` with compressed x-coordinate `x` (tag 2).
fn point_at_x(x: &Uint<8>) -> Option<G1Affine<8>> {
    let mut bytes = vec![2];
    bytes.extend_from_slice(&x.to_be_bytes());
    toy64().g1_from_bytes(&bytes).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fp_field_axioms(a in any::<u64>(), b in any::<u64>(), d in any::<u64>()) {
        let ctx = toy64().fp();
        let (a, b, d) = (ctx.from_u64(a), ctx.from_u64(b), ctx.from_u64(d));
        prop_assert_eq!(a.add(&b, ctx), b.add(&a, ctx));
        prop_assert_eq!(a.mul(&b, ctx), b.mul(&a, ctx));
        prop_assert_eq!(a.mul(&b.add(&d, ctx), ctx), a.mul(&b, ctx).add(&a.mul(&d, ctx), ctx));
        prop_assert_eq!(a.sub(&a, ctx), ctx.zero());
        if !a.is_zero() {
            let inv = a.invert(ctx).unwrap();
            prop_assert_eq!(a.mul(&inv, ctx), ctx.one());
        }
    }

    #[test]
    fn fp2_mul_associative(a0 in any::<u64>(), a1 in any::<u64>(), b0 in any::<u64>(), b1 in any::<u64>()) {
        let ctx = toy64().fp();
        let a = Fp2::new(ctx.from_u64(a0), ctx.from_u64(a1));
        let b = Fp2::new(ctx.from_u64(b0), ctx.from_u64(b1));
        let d = Fp2::new(ctx.from_u64(7), ctx.from_u64(13));
        prop_assert_eq!(a.mul(&b, ctx).mul(&d, ctx), a.mul(&b.mul(&d, ctx), ctx));
        prop_assert_eq!(a.square(ctx), a.mul(&a, ctx));
    }

    #[test]
    fn group_scalar_homomorphism(ra in any::<[u64; 4]>(), rb in any::<[u64; 4]>()) {
        let c = toy64();
        let g = c.generator();
        let (a, b) = (scalar(ra), scalar(rb));
        let lhs = c.g1_mul(&g, &c.scalar_add(&a, &b));
        let rhs = c.g1_add(&c.g1_mul(&g, &a), &c.g1_mul(&g, &b));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mul_results_stay_on_curve(ra in any::<[u64; 4]>()) {
        let c = toy64();
        let p = c.g1_mul(&c.generator(), &scalar(ra));
        prop_assert!(c.is_on_curve(&p));
        prop_assert!(c.in_subgroup(&p));
        let bytes = c.g1_to_bytes(&p);
        prop_assert_eq!(c.g1_from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn pairing_bilinear_random(ra in any::<[u64; 4]>(), rb in any::<[u64; 4]>()) {
        let c = toy64();
        let g = c.generator();
        let (a, b) = (scalar(ra), scalar(rb));
        let lhs = c.pairing(&c.g1_mul(&g, &a), &c.g1_mul(&g, &b));
        let rhs = c.pairing(&g, &g).pow(&c.scalar_mul(&a, &b), c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn fp2_karatsuba_matches_schoolbook(a0 in any::<u64>(), a1 in any::<u64>(), b0 in any::<u64>(), b1 in any::<u64>()) {
        // The Karatsuba product is an exact drop-in for the four-mul
        // schoolbook reference, coefficient for coefficient.
        let ctx = toy64().fp();
        let a = Fp2::new(ctx.from_u64(a0), ctx.from_u64(a1));
        let b = Fp2::new(ctx.from_u64(b0), ctx.from_u64(b1));
        prop_assert_eq!(a.mul(&b, ctx), a.mul_schoolbook(&b, ctx));
        prop_assert_eq!(b.mul(&a, ctx), a.mul_schoolbook(&b, ctx));
        prop_assert_eq!(a.square(ctx), a.mul_schoolbook(&a, ctx));
    }

    #[test]
    fn pairing_prepared_matches_generic(ra in any::<[u64; 4]>(), rb in any::<[u64; 4]>()) {
        let c = toy64();
        let g = c.generator();
        let p = c.g1_mul(&g, &scalar(ra)); // infinity when scalar(ra) == 0
        let q = c.g1_mul(&g, &scalar(rb));
        let prep = c.prepare(&p);
        let want = c.pairing(&p, &q);
        prop_assert_eq!(c.pairing_prepared(&prep, &q), want.clone());
        // Type-1 symmetry: either argument may take the prepared side.
        prop_assert_eq!(c.pairing_prepared(&c.prepare(&q), &p), want);

        // Edges: infinity on both sides of the prepared slot…
        let inf = c.g1_mul(&g, &tre_bigint::U256::ZERO);
        prop_assert!(inf.is_infinity());
        prop_assert_eq!(c.pairing_prepared(&prep, &inf), c.pairing(&p, &inf));
        prop_assert_eq!(c.pairing_prepared(&c.prepare(&inf), &q), c.pairing(&inf, &q));

        // …and the low-order point (0, 0) of order 2, which zeroes y_Q
        // and exercises every stored-line coefficient degenerately.
        let mut bytes = vec![0u8; c.point_len()];
        bytes[0] = 2;
        let two_torsion = c.g1_from_bytes(&bytes).unwrap();
        prop_assert!(c.is_on_curve(&two_torsion) && !two_torsion.is_infinity());
        prop_assert_eq!(
            c.pairing_prepared(&prep, &two_torsion),
            c.pairing(&p, &two_torsion)
        );
        prop_assert_eq!(
            c.pairing_prepared(&c.prepare(&two_torsion), &q),
            c.pairing(&two_torsion, &q)
        );
    }

    #[test]
    fn mixed_multi_pairing_matches_lane_product(ra in any::<[u64; 4]>(), rb in any::<[u64; 4]>(), rc in any::<[u64; 4]>(), rd in any::<[u64; 4]>()) {
        let c = toy64();
        let g = c.generator();
        let (p1, q1) = (c.g1_mul(&g, &scalar(ra)), c.g1_mul(&g, &scalar(rb)));
        let (p2, q2) = (c.g1_mul(&g, &scalar(rc)), c.g1_mul(&g, &scalar(rd)));
        let prep1 = c.prepare(&p1);
        let got = c.multi_pairing_mixed(&[(&prep1, q1)], &[(p2, q2)]);
        let want = c.pairing(&p1, &q1).mul(&c.pairing(&p2, &q2), c);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn hash_to_g1_always_valid(msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let c = toy64();
        let p = c.hash_to_g1(b"prop", &msg);
        prop_assert!(c.in_subgroup(&p));
        prop_assert!(!p.is_infinity());
    }

    #[test]
    fn cofactor_folds_onto_the_prepared_side(
        msg in proptest::collection::vec(any::<u8>(), 0..32),
        ra in any::<[u64; 4]>(),
    ) {
        // H1 = h·P for the uncleared candidate P, and against an order-q
        // point A the cofactor moves across the pairing:
        // ê((h mod q)·A, P) = ê(A, H1) = ê(A, P)^(h mod q).
        let c = toy64();
        let k = scalar(ra);
        prop_assume!(!k.is_zero());
        let a = c.g1_mul(&c.generator(), &k);
        let p = c.h1_candidate(b"prop-fold", &msg);
        let h1 = c.hash_to_g1(b"prop-fold", &msg);
        prop_assert_eq!(c.g1_mul_uint(&p, c.cofactor()), h1);
        prop_assert!(c.is_on_curve(&p) && !c.in_subgroup(&p), "P carries a cofactor part");
        let h_a = c.g1_mul(&a, c.cofactor_mod_q());
        let folded = c.pairing_prepared(&c.prepare(&h_a), &p);
        prop_assert_eq!(folded, c.pairing(&a, &h1));
        prop_assert_eq!(c.pairing(&a, &p).pow(c.cofactor_mod_q(), c), folded);
        prop_assert!(!folded.is_one(c));
    }

    #[test]
    fn scalar_mul_paths_agree(ra in any::<[u64; 4]>(), rp in any::<[u64; 4]>()) {
        // The documented contract on Curve::g1_mul: the wNAF fast path,
        // the binary reference path, and the fixed-base precomputed path
        // are interchangeable for every scalar, including the edges.
        let c = toy64();
        let p = c.g1_mul(&c.generator(), &scalar(rp));
        let table = tre_pairing::G1Precomp::new(c, &p);
        let q_minus_1 = c.order().wrapping_sub(&U256::ONE);
        // Unreduced scalars too: q + 5 still fits the table's q-sized
        // windows, 2^255 + 3 is wider and takes the generic fallback.
        let q_plus_5 = c.order().wrapping_add(&U256::from_u64(5));
        let wide = U256::from_limbs([3, 0, 0, 1 << 63]);
        for k in [scalar(ra), U256::ZERO, U256::ONE, q_minus_1, q_plus_5, wide] {
            let fast = c.g1_mul(&p, &k);
            prop_assert_eq!(c.g1_mul_binary(&p, &k), fast);
            prop_assert_eq!(table.mul(c, &k), fast);
        }
    }

    #[test]
    fn g1_msm_matches_sum_of_muls(seed in any::<u64>()) {
        // The Straus combine equals Σ g1_mul folded with g1_add at every
        // size, over identity points, P/−P pairs that cancel, the order-2
        // point (0, 0), an order-4 point, an uncleared H1 candidate, and
        // the scalars 0, 1, 2⁶⁴−1 and q−1 among random ones of unequal
        // bit lengths; it counts one scalar multiplication per term.
        let c = toy64();
        let mut rng = StdRng::seed_from_u64(seed);
        let inf = G1Affine::infinity(c.fp());
        let two_torsion = point_at_x(&Uint::ZERO).unwrap();
        let minus_one = c.fp().modulus().wrapping_sub(&Uint::ONE);
        let four_torsion = point_at_x(&Uint::ONE).or_else(|| point_at_x(&minus_one)).unwrap();
        prop_assert_eq!(c.g1_double(&four_torsion), two_torsion);
        let candidate = c.h1_candidate(b"prop-msm", &seed.to_be_bytes());
        let special = [inf, two_torsion, four_torsion, candidate];
        let edge = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(u64::MAX),
            c.order().wrapping_sub(&U256::ONE),
        ];
        let pick = |rng: &mut StdRng, n: usize| (rng.next_u64() % n as u64) as usize;
        for n in [0usize, 1, 2, 3, 17, 64] {
            let (mut points, mut scalars) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for i in 0..n {
                let (p, k) = if i % 4 == 3 {
                    // The previous term negated under the same scalar.
                    (c.g1_neg(&points[i - 1]), scalars[i - 1])
                } else {
                    let p = match pick(&mut rng, 3) {
                        0 => special[pick(&mut rng, special.len())],
                        _ => c.g1_mul(&c.generator(), &U256::from_u64(rng.next_u64())),
                    };
                    let k = match pick(&mut rng, 3) {
                        0 => edge[pick(&mut rng, edge.len())],
                        _ => {
                            let raw = U256::from_limbs([0; 4].map(|_: u64| rng.next_u64()));
                            raw.shr_vartime(pick(&mut rng, 256) as u32)
                        }
                    };
                    (p, k)
                };
                points.push(p);
                scalars.push(k);
            }
            let want = points
                .iter()
                .zip(&scalars)
                .fold(inf, |acc, (p, k)| c.g1_add(&acc, &c.g1_mul(p, k)));
            tre_obs::enable();
            let got = c.g1_msm(&points, &scalars);
            let ops = tre_obs::finish().total_ops();
            prop_assert!(got == want, "n = {n}: msm {got:?} != oracle {want:?}");
            prop_assert_eq!(ops.scalar_mults, n as u64);
            prop_assert!(c.is_on_curve(&got));
        }
        // A sum of cancelling pairs is the identity.
        let p = c.g1_mul(&c.generator(), &U256::from_u64(rng.next_u64()));
        let k = U256::from_u64(rng.next_u64());
        prop_assert!(c.g1_msm(&[p, c.g1_neg(&p), two_torsion, two_torsion], &[k, k, k, k]).is_infinity());
    }

    #[test]
    fn batch_bls_agrees_with_sequential(rs in any::<[u64; 4]>(), n in 1usize..12) {
        // Batch verification accepts exactly the batches whose every entry
        // the 2-pairing sequential check accepts, and bisection names
        // exactly the entries that check rejects.
        let c = toy64();
        let mut rng = rand::thread_rng();
        let s = {
            let v = scalar(rs);
            if v.is_zero() { U256::ONE } else { v }
        };
        let g = c.generator();
        let pk = c.g1_mul(&g, &s);
        let (neg_g_prep, pk_prep) = (c.prepare(&c.g1_neg(&g)), c.prepare(&pk));
        let entries: Vec<_> = (0..n)
            .map(|i| {
                let h = c.hash_to_g1(b"prop-batch", &[i as u8]);
                (h, c.g1_mul(&h, &s))
            })
            .collect();
        prop_assert!(c.bls_batch_check_prepared(&neg_g_prep, &pk_prep, &entries, &mut rng));
        let mut tampered = entries.clone();
        tampered[n / 2].1 = c.g1_add(&tampered[n / 2].1, &g);
        prop_assert!(!c.bls_batch_check_prepared(&neg_g_prep, &pk_prep, &tampered, &mut rng));
        let sequential: Vec<usize> = (0..n)
            .filter(|&i| c.pairing(&pk, &tampered[i].0) != c.pairing(&g, &tampered[i].1))
            .collect();
        prop_assert_eq!(&sequential, &vec![n / 2]);
        let named = tre_pairing::bisect(n, |r| {
            c.bls_batch_check_prepared(&neg_g_prep, &pk_prep, &tampered[r], &mut rng)
        });
        prop_assert_eq!(named, sequential);
    }
}
