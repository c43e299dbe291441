//! Fixed-base scalar-multiplication precomputation.
//!
//! When many scalar multiplications share one base point — a sender
//! encrypting lots of messages under the same server generator, or a
//! high-rate time server signing epoch after epoch — a windowed table
//! trades one-time setup for doubling-free multiplications afterwards.
//!
//! The table is signed: a scalar is recoded into base-16 digits in
//! `[−8, 8)`, so each window stores only `d·16^i·P` for `d = 1..=8` and a
//! negative digit adds the negated entry. Half the entries of an
//! unsigned `1..=15` table, each window built with doublings for the
//! even multiples and additions for the odd ones, for one more window
//! (the recoding's final carry).

use tre_bigint::U256;

use crate::curve::{Curve, G1Affine, G1Jac};

/// Window width in bits.
const W: u32 = 4;

/// Entries per window: the magnitudes `1..=2^(W−1)` a signed digit in
/// `[−2^(W−1), 2^(W−1))` can name.
const HALF: usize = 1 << (W - 1);

/// A fixed-base precomputation table for one point.
///
/// # Example
/// ```
/// let curve = tre_pairing::toy64();
/// let mut rng = rand::thread_rng();
/// let table = tre_pairing::G1Precomp::new(curve, &curve.generator());
/// let k = curve.random_scalar(&mut rng);
/// assert_eq!(table.mul(curve, &k), curve.g1_mul(&curve.generator(), &k));
/// ```
#[derive(Clone, Debug)]
pub struct G1Precomp<const L: usize> {
    /// The point `P` the table multiplies, kept for scalars wider than
    /// the table covers.
    base: G1Affine<L>,
    /// `table[i][d-1] = d · 2^(W·i) · P` for `d in 1..=2^(W−1)`.
    table: Vec<[G1Affine<L>; HALF]>,
}

impl<const L: usize> G1Precomp<L> {
    /// Builds the table for `base`, covering every scalar below `q`: an
    /// `n`-bit scalar recodes into at most `⌈(n + 2)/W⌉` signed digits,
    /// so toy64's 160-bit `q` takes 41 windows rather than the 65 a full
    /// 256-bit scalar would need.
    ///
    /// Cost per window: five doublings (the even multiples and the next
    /// window's base) and three additions (the odd multiples), plus one
    /// shared batch normalization — amortized after a handful of
    /// multiplications.
    pub fn new(curve: &Curve<L>, base: &G1Affine<L>) -> Self {
        let windows = (curve.order().bits() + 2).div_ceil(W) as usize;
        if base.is_infinity() {
            return Self {
                base: *base,
                table: vec![[*base; HALF]; windows],
            };
        }
        let mut jacs: Vec<G1Jac<L>> = Vec::with_capacity(windows * HALF);
        let mut window_base = G1Jac::from_affine(base, curve.fp());
        for _ in 0..windows {
            let start = jacs.len();
            jacs.push(window_base);
            for d in 2..=HALF {
                let next = if d % 2 == 0 {
                    curve.jac_double(&jacs[start + d / 2 - 1])
                } else {
                    curve.jac_add(&jacs[start + d - 2], &window_base)
                };
                jacs.push(next);
            }
            // 2^W·B = 2·(2^(W−1)·B).
            window_base = curve.jac_double(&jacs[start + HALF - 1]);
        }
        let table = curve
            .batch_normalize(&jacs)
            .chunks_exact(HALF)
            .map(|w| w.try_into().expect("HALF entries per window"))
            .collect();
        Self { base: *base, table }
    }

    /// Fixed-base multiplication `k·P` — one mixed addition per non-zero
    /// signed digit, zero doublings.
    ///
    /// Walks only the windows covering `k`'s digits, so small exponents
    /// (the 64-bit coefficients of batched verification equations) pay
    /// for at most 17 windows, not 41. A scalar wider than the table
    /// (never a reduced scalar) falls back to [`Curve::g1_mul`] on the
    /// base, so the two paths agree for every `k`.
    pub fn mul(&self, curve: &Curve<L>, k: &U256) -> G1Affine<L> {
        let digits = signed_digits(k);
        if digits.len() > self.table.len() {
            return curve.g1_mul(&self.base, k);
        }
        tre_obs::record_scalar_mul();
        let mut acc = G1Jac::infinity(curve.fp());
        for (window, &d) in self.table.iter().zip(&digits) {
            if d != 0 {
                let entry = &window[d.unsigned_abs() as usize - 1];
                let entry = if d > 0 { *entry } else { curve.g1_neg(entry) };
                acc = curve.jac_add_affine(&acc, &entry);
            }
        }
        curve.jac_to_affine(&acc)
    }
}

/// `k` in base `2^W` with digits in `[−2^(W−1), 2^(W−1))`, least
/// significant first: a digit of `2^(W−1)` or more becomes `d − 2^W`
/// and carries one into the next window.
fn signed_digits(k: &U256) -> Vec<i8> {
    let mask = (1u64 << W) - 1;
    let mut digits = Vec::with_capacity(k.bits().div_ceil(W) as usize + 1);
    let mut carry = 0i8;
    for i in 0..k.bits().div_ceil(W) {
        let shift = i * W;
        let d = ((k.limbs()[(shift / 64) as usize] >> (shift % 64)) & mask) as i8 + carry;
        carry = i8::from(d >= HALF as i8);
        digits.push(d - (carry << W));
    }
    if carry != 0 {
        digits.push(carry);
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::toy64;

    #[test]
    fn matches_generic_mul() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let g = curve.generator();
        let table = G1Precomp::new(curve, &g);
        for _ in 0..5 {
            let k = curve.random_scalar(&mut rng);
            assert_eq!(table.mul(curve, &k), curve.g1_mul(&g, &k));
        }
        for v in [0u64, 1, 2, 15, 16, 0xffff_ffff] {
            let k = U256::from_u64(v);
            assert_eq!(table.mul(curve, &k), curve.g1_mul(&g, &k), "k={v}");
        }
    }

    #[test]
    fn table_is_sized_to_the_scalar_field() {
        // toy64's q has 160 bits: 41 windows of 8 entries (the signed
        // recoding's carry needs one window past the 40 nibbles), not the
        // 65 a 256-bit scalar would need.
        let curve = toy64();
        let table = G1Precomp::new(curve, &curve.generator());
        assert_eq!((table.table.len(), HALF), (41, 8));
        // q − 1, the widest reduced scalar, fills every window.
        let q_minus_1 = curve.order().wrapping_sub(&U256::ONE);
        assert_eq!(signed_digits(&q_minus_1).len(), table.table.len());
        // Wider scalars (the generic fallback) are pinned by the
        // `scalar_mul_paths_agree` property test.
    }

    #[test]
    fn signed_digits_match_g1_mul_at_the_edges() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let g = curve.generator();
        let p = curve.g1_mul(&g, &curve.random_scalar(&mut rng));
        let q = *curve.order();
        let eights = U256::from_be_hex(&"8".repeat(40)).unwrap();
        let mut ks: Vec<U256> = [0u64, 1, 7, 8, 9, 15, 16]
            .into_iter()
            .map(U256::from_u64)
            .collect();
        ks.extend([
            eights,
            U256::ONE.shl_vartime(160).wrapping_sub(&U256::ONE),
            q.wrapping_sub(&U256::ONE),
            // Wider than the table: the g1_mul fallback.
            U256::ONE.shl_vartime(200).wrapping_add(&U256::from_u64(9)),
            U256::MAX,
        ]);
        ks.extend((0..8).map(|_| curve.random_scalar(&mut rng)));
        ks.extend((0..4).map(|_| U256::random(&mut rng)));
        for base in [g, p] {
            let table = G1Precomp::new(curve, &base);
            for k in &ks {
                assert_eq!(table.mul(curve, k), curve.g1_mul(&base, k), "k={k:?}");
            }
        }
        let inf = G1Affine::infinity(curve.fp());
        let table = G1Precomp::new(curve, &inf);
        for k in &ks {
            assert!(table.mul(curve, k).is_infinity(), "k={k:?}");
        }
        // Every digit lies in [−8, 8) and the digits reconstruct k.
        for k in ks.iter().filter(|k| k.bits() <= 252) {
            let digits = signed_digits(k);
            assert!(digits.iter().all(|d| (-8..8).contains(d)), "k={k:?}");
            let mut acc = U256::ZERO;
            for &d in digits.iter().rev() {
                acc = acc.shl_vartime(W);
                acc = if d >= 0 {
                    acc.wrapping_add(&U256::from_u64(d as u64))
                } else {
                    acc.wrapping_sub(&U256::from_u64(d.unsigned_abs() as u64))
                };
            }
            assert_eq!(acc, *k);
        }
    }

    #[test]
    fn small_exponent_skips_high_windows() {
        // A 64-bit batch exponent touches at most 17 windows, not all
        // 41, and the fp-mul count must reflect that.
        let curve = toy64();
        let table = G1Precomp::new(curve, &curve.generator());

        tre_obs::enable();
        let _ = table.mul(curve, &U256::from_u64(u64::MAX));
        let small = tre_obs::finish().total_ops().fp_muls;

        let full = curve.order().wrapping_sub(&U256::ONE);
        tre_obs::enable();
        let _ = table.mul(curve, &full);
        let wide = tre_obs::finish().total_ops().fp_muls;

        assert!(small > 0, "fp_mul accounting must be live");
        assert!(
            small * 2 < wide,
            "64-bit table mul ({small} fp muls) must cost well under half of a \
             full-width one ({wide} fp muls)"
        );
        assert_eq!(
            table.mul(curve, &U256::ZERO),
            G1Affine::infinity(curve.fp()),
            "zero exponent walks zero windows"
        );
    }

    #[test]
    fn arbitrary_base() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let p = curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng));
        let table = G1Precomp::new(curve, &p);
        let k = curve.random_scalar(&mut rng);
        assert_eq!(table.mul(curve, &k), curve.g1_mul(&p, &k));
    }

    #[test]
    fn infinity_base() {
        let curve = toy64();
        let inf = G1Affine::infinity(curve.fp());
        let table = G1Precomp::new(curve, &inf);
        assert!(table.mul(curve, &U256::from_u64(42)).is_infinity());
    }
}
