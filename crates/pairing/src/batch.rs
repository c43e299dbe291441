//! Randomized small-exponent batch verification of BLS-style equations.
//!
//! The TRE hot path at scale is update verification: every receiver checks
//! `ê(sG, H1(T)) = ê(G, I_T)` — two pairings — for every epoch it
//! consumes. A receiver catching up after downtime holds N such equations
//! against the *same* server key, and the classic small-exponent batch
//! test (Bellare–Garay–Rabin) collapses them into one:
//!
//! ```text
//! pick random e_1..e_N;  P = Σ e_i·H_i,  S = Σ e_i·I_i
//! accept all N  ⇔  ê(sG, P) = ê(G, S)
//! ```
//!
//! Two pairings per **batch** instead of per update. Bilinearity gives
//! completeness; soundness is statistical: a batch containing any forgery
//! passes with probability at most `2^-EXPONENT_BITS` over the verifier's
//! random exponents (the forged lane's error term must hit a random
//! linear relation). On failure, [`bisect`] splits the batch to name the
//! offending indices in `O(bad · log N)` batch checks instead of `N`
//! individual ones.
//!
//! Both fixed sides of the equation (`sG` and `−G`) are prepared once per
//! key ([`Curve::prepare`]), so every check — the combined one and each
//! bisection step — pays only line evaluations on its two lanes.
//!
//! Each side's combine is one multi-scalar multiplication
//! ([`Curve::g1_msm`]): the entries' odd-multiple tables are normalized
//! with one shared inversion, one 64-step doubling chain serves every
//! entry, and the sum is normalized once — two field inversions per side
//! whatever `N`, where a per-entry `g1_mul` and affine `g1_add` paid a
//! doubling chain and three inversions each.

use std::ops::Range;

use rand::RngCore;
use tre_bigint::U256;

use crate::curve::{Curve, G1Affine};
use crate::pairing::MillerPrecomp;

/// Bit length of the random batching exponents: soundness error is
/// `2^-64` per batch check, at the cost of a 64-step doubling chain per
/// equation side, shared by the batch, plus ~13 mixed additions per side
/// per entry (cheap next to a pairing).
pub const EXPONENT_BITS: u32 = 64;

impl<const L: usize> Curve<L> {
    /// Verifies one BLS equation `ê(pk, h) = ê(g, sig)` off prepared
    /// fixed sides (`pk` and `−g`, built once per key via
    /// [`Curve::prepare`]): 2 pairing lanes sharing one Miller squaring
    /// chain and one final exponentiation, with no Jacobian point
    /// arithmetic.
    pub fn bls_verify_one_prepared(
        &self,
        neg_g_prep: &MillerPrecomp<L>,
        pk_prep: &MillerPrecomp<L>,
        h: &G1Affine<L>,
        sig: &G1Affine<L>,
    ) -> bool {
        // ê(pk, h)·ê(−G, sig) = 1  ⇔  ê(pk, h) = ê(G, sig).
        self.multi_pairing_mixed(&[(pk_prep, *h), (neg_g_prep, *sig)], &[])
            .is_one(self)
    }

    /// Small-exponent batch verification of `entries = [(H_i, I_i)]`
    /// against the prepared key sides: accepts iff (whp over `rng`) every
    /// `ê(pk, H_i) = ê(g, I_i)` holds. Draws one exponent per entry, in
    /// entry order, and combines each side with one [`Curve::g1_msm`].
    /// Performs exactly 2 pairing lanes regardless of `N`; an empty batch
    /// is vacuously valid and a singleton draws no exponent.
    ///
    /// The caller must reject duplicate/conflicting message points
    /// *before* batching — the linear combination cannot distinguish
    /// `{(H, I), (H, I')}` from `{(H, (I+I')/2) twice}`.
    pub fn bls_batch_check_prepared(
        &self,
        neg_g_prep: &MillerPrecomp<L>,
        pk_prep: &MillerPrecomp<L>,
        entries: &[(G1Affine<L>, G1Affine<L>)],
        rng: &mut (impl RngCore + ?Sized),
    ) -> bool {
        match entries {
            [] => true,
            [(h, sig)] => self.bls_verify_one_prepared(neg_g_prep, pk_prep, h, sig),
            _ => {
                let e: Vec<U256> = entries
                    .iter()
                    .map(|_| U256::from_u64(rng.next_u64().max(1)))
                    .collect();
                let (hs, sigs): (Vec<_>, Vec<_>) = entries.iter().copied().unzip();
                let p = self.g1_msm(&hs, &e);
                let s = self.g1_msm(&sigs, &e);
                self.bls_verify_one_prepared(neg_g_prep, pk_prep, &p, &s)
            }
        }
    }
}

/// Names the failing indices of a batch of `n` by bisection: `holds`
/// decides one contiguous sub-batch, a failing singleton is named, and a
/// failing larger range is split in half (left first). Returns the named
/// indices ascending: one check when every entry holds, `~2·bad·log2(n)`
/// otherwise. `holds` is called in a fixed order, so a caller drawing
/// batching exponents from a deterministic stream gets the same stream
/// on every run.
pub fn bisect(n: usize, mut holds: impl FnMut(Range<usize>) -> bool) -> Vec<usize> {
    fn split(
        range: Range<usize>,
        holds: &mut dyn FnMut(Range<usize>) -> bool,
        bad: &mut Vec<usize>,
    ) {
        if range.is_empty() || holds(range.clone()) {
            return;
        }
        if range.len() == 1 {
            bad.push(range.start);
            return;
        }
        let mid = range.start + range.len() / 2;
        split(range.start..mid, holds, bad);
        split(mid..range.end, holds, bad);
    }
    let mut bad = Vec::new();
    split(0..n, &mut holds, &mut bad);
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::toy64;

    struct Fixture {
        g: G1Affine<8>,
        pk: G1Affine<8>,
        secret: U256,
        neg_g_prep: MillerPrecomp<8>,
        pk_prep: MillerPrecomp<8>,
    }

    fn fixture() -> Fixture {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let g = curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng));
        let secret = curve.random_scalar(&mut rng);
        let pk = curve.g1_mul(&g, &secret);
        Fixture {
            g,
            pk,
            secret,
            neg_g_prep: curve.prepare(&curve.g1_neg(&g)),
            pk_prep: curve.prepare(&pk),
        }
    }

    fn signed(fx: &Fixture, n: usize) -> Vec<(G1Affine<8>, G1Affine<8>)> {
        let curve = toy64();
        (0..n)
            .map(|i| {
                let h = curve.hash_to_g1(b"batch-test", format!("epoch-{i}").as_bytes());
                (h, curve.g1_mul(&h, &fx.secret))
            })
            .collect()
    }

    fn batch(fx: &Fixture, entries: &[(G1Affine<8>, G1Affine<8>)]) -> bool {
        toy64().bls_batch_check_prepared(
            &fx.neg_g_prep,
            &fx.pk_prep,
            entries,
            &mut rand::thread_rng(),
        )
    }

    fn isolate(fx: &Fixture, entries: &[(G1Affine<8>, G1Affine<8>)]) -> Vec<usize> {
        let mut rng = rand::thread_rng();
        bisect(entries.len(), |r| {
            toy64().bls_batch_check_prepared(&fx.neg_g_prep, &fx.pk_prep, &entries[r], &mut rng)
        })
    }

    /// The oracle: two independent generic pairings per entry.
    fn textbook(fx: &Fixture, (h, sig): &(G1Affine<8>, G1Affine<8>)) -> bool {
        let curve = toy64();
        curve.pairing(&fx.pk, h) == curve.pairing(&fx.g, sig)
    }

    #[test]
    fn valid_batch_accepts_with_two_pairings() {
        let fx = fixture();
        let entries = signed(&fx, 32);
        tre_obs::enable();
        assert!(batch(&fx, &entries));
        let trace = tre_obs::finish();
        assert_eq!(
            trace.total_ops().pairings,
            2,
            "one batch = 2 pairing lanes, independent of N"
        );
    }

    #[test]
    fn empty_and_singleton() {
        let fx = fixture();
        assert!(batch(&fx, &[]));
        assert!(isolate(&fx, &[]).is_empty());
        let one = signed(&fx, 1);
        assert!(batch(&fx, &one));
        assert!(toy64().bls_verify_one_prepared(&fx.neg_g_prep, &fx.pk_prep, &one[0].0, &one[0].1));
    }

    #[test]
    fn forged_entry_rejects_batch() {
        let curve = toy64();
        let fx = fixture();
        let mut rng = rand::thread_rng();
        let mut entries = signed(&fx, 16);
        entries[7].1 = curve.g1_mul(&fx.g, &curve.random_scalar(&mut rng));
        assert!(!textbook(&fx, &entries[7]));
        assert!(!batch(&fx, &entries));
    }

    #[test]
    fn isolation_names_exact_forgeries() {
        let curve = toy64();
        let fx = fixture();
        let mut rng = rand::thread_rng();
        let mut entries = signed(&fx, 16);
        for &i in &[3usize, 11] {
            entries[i].1 = curve.g1_mul(&fx.g, &curve.random_scalar(&mut rng));
        }
        assert_eq!(isolate(&fx, &entries), vec![3, 11]);
        // And a fully valid batch is one cheap check.
        let clean = signed(&fx, 16);
        tre_obs::enable();
        assert!(isolate(&fx, &clean).is_empty());
        assert_eq!(tre_obs::finish().total_ops().pairings, 2);
    }

    #[test]
    fn bisect_visits_ranges_left_first() {
        let mut seen = Vec::new();
        let bad = bisect(5, |r| {
            seen.push(r.clone());
            !r.contains(&3)
        });
        assert_eq!(bad, vec![3]);
        assert_eq!(seen, vec![0..5, 0..2, 2..5, 2..3, 3..5, 3..4, 4..5]);
        assert!(bisect(0, |_| unreachable!("an empty batch is never checked")).is_empty());
    }

    #[test]
    fn infinity_pair_still_isolates() {
        // An infinity point in a batch entry is *dropped* by the
        // multi-pairing lane filter (ê(·, ∞) = 1) — but the equation's
        // other lane stays live, so the check fails and bisection names
        // the entry rather than letting it pass vacuously.
        let fx = fixture();
        let inf = G1Affine::infinity(toy64().fp());

        // Infinity signature.
        let mut entries = signed(&fx, 8);
        entries[5].1 = inf;
        assert_eq!(isolate(&fx, &entries), vec![5]);
        assert!(!textbook(&fx, &entries[5]));

        // Infinity message point with a non-trivial signature.
        let mut entries = signed(&fx, 8);
        entries[2].0 = inf;
        assert_eq!(isolate(&fx, &entries), vec![2]);
        assert!(!textbook(&fx, &entries[2]));
    }

    #[test]
    fn small_exponent_combination_skips_high_bits() {
        // The 64-bit batching exponents must cost ~64 bits of scalar-mul
        // work, not a full-width walk (satellite op-counter guard).
        let curve = toy64();
        let h = curve.hash_to_g1(b"batch-test", b"cost-probe");

        tre_obs::enable();
        let _ = curve.g1_mul(&h, &U256::from_u64(u64::MAX));
        let small = tre_obs::finish().total_ops().fp_muls;

        let full = curve.order().wrapping_sub(&U256::ONE);
        tre_obs::enable();
        let _ = curve.g1_mul(&h, &full);
        let wide = tre_obs::finish().total_ops().fp_muls;

        assert!(small > 0, "fp_mul accounting must be live");
        assert!(
            small * 2 < wide,
            "64-bit exponent ({small} fp muls) must cost well under half of a \
             full-width scalar ({wide} fp muls)"
        );
    }

    #[test]
    fn batch_agrees_with_per_entry_verification() {
        let curve = toy64();
        let fx = fixture();
        for n in [2usize, 5, 9] {
            let mut entries = signed(&fx, n);
            assert!(entries.iter().all(|e| textbook(&fx, e)));
            assert!(batch(&fx, &entries));
            // Tamper each position in turn; the batch must notice every
            // one and bisection must name exactly the entry the textbook
            // check rejects.
            for i in 0..n {
                let orig = entries[i].1;
                entries[i].1 = curve.g1_add(&orig, &fx.g);
                assert!(!batch(&fx, &entries), "tamper at {i}/{n} must reject");
                let oracle: Vec<usize> = (0..n).filter(|&k| !textbook(&fx, &entries[k])).collect();
                assert_eq!(isolate(&fx, &entries), oracle, "tamper at {i}/{n}");
                entries[i].1 = orig;
            }
        }
    }
}
