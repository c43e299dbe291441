//! Fixed-base scalar-multiplication precomputation.
//!
//! When many scalar multiplications share one base point — a sender
//! encrypting lots of messages under the same server generator, or a
//! high-rate time server signing epoch after epoch — a windowed table
//! trades one-time setup for doubling-free multiplications afterwards.

use tre_bigint::U256;

use crate::curve::{Curve, G1Affine};
use crate::fp::FpCtx;

/// Window width in bits (table stores `2^W − 1` odd-and-even multiples per
/// window position).
const W: u32 = 4;

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
    /// `table[i][d-1] = d · 2^(W·i) · P` for `d in 1..2^W`.
    table: Vec<Vec<G1Affine<L>>>,
}

impl<const L: usize> G1Precomp<L> {
    /// Builds the table for `base`, covering scalars as wide as the
    /// group order `q` (160 bits on toy64, so 40 windows rather than the
    /// 64 a full 256-bit scalar would need).
    ///
    /// Cost: ~`(2^W − 1) · bits(q)/W` group additions plus one shared
    /// batch normalization — amortized after a handful of
    /// multiplications.
    pub fn new(curve: &Curve<L>, base: &G1Affine<L>) -> Self {
        let windows = curve.order().bits().div_ceil(W) as usize;
        let per_window = (1usize << W) - 1;
        if base.is_infinity() {
            return Self {
                base: *base,
                table: vec![vec![*base; per_window]; windows],
            };
        }
        let ctx: &FpCtx<L> = curve.fp();
        let mut jacs = Vec::with_capacity(windows * per_window);
        // Window base starts at P and advances by doubling W times per
        // window.
        let mut window_base = crate::curve::G1Jac::from_affine(base, ctx);
        for _ in 0..windows {
            // d·B for d = 1..2^W − 1 via repeated addition.
            let mut acc = window_base;
            jacs.push(acc);
            for _ in 1..per_window {
                acc = curve.jac_add(&acc, &window_base);
                jacs.push(acc);
            }
            for _ in 0..W {
                window_base = curve.jac_double(&window_base);
            }
        }
        let flat = curve.batch_normalize(&jacs);
        let table = flat.chunks(per_window).map(|c| c.to_vec()).collect();
        Self { base: *base, table }
    }

    /// Fixed-base multiplication `k·P` — one mixed addition per non-zero
    /// window, zero doublings.
    ///
    /// Walks only the windows covering `k.bits()`, so small exponents (the
    /// 64-bit coefficients of batched verification equations) pay for 16
    /// windows, not 40. A scalar wider than the table (`k ≥ 2^(W·windows)`,
    /// never a reduced scalar) falls back to [`Curve::g1_mul`] on the
    /// base, so the two paths agree for every `k`.
    pub fn mul(&self, curve: &Curve<L>, k: &U256) -> G1Affine<L> {
        let live_windows = k.bits().div_ceil(W) as usize;
        if live_windows > self.table.len() {
            return curve.g1_mul(&self.base, k);
        }
        tre_obs::record_scalar_mul();
        let ctx = curve.fp();
        let mut acc = crate::curve::G1Jac::infinity(ctx);
        let mask = (1u64 << W) - 1;
        for (i, window) in self.table[..live_windows].iter().enumerate() {
            let shift = (i as u32) * W;
            let limb = k.limbs()[(shift / 64) as usize];
            let d = ((limb >> (shift % 64)) & mask) as usize;
            if d != 0 {
                acc = curve.jac_add_affine(&acc, &window[d - 1]);
            }
        }
        curve.jac_to_affine(&acc)
    }
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
        // toy64's q has 160 bits: 40 windows, not the 64 a 256-bit
        // scalar would need.
        let curve = toy64();
        let table = G1Precomp::new(curve, &curve.generator());
        assert_eq!(table.table.len(), 40);
        assert_eq!(table.table.len(), curve.order().bits().div_ceil(W) as usize);
        // Wider scalars (the generic fallback) are pinned by the
        // `scalar_mul_paths_agree` property test.
    }

    #[test]
    fn small_exponent_skips_high_windows() {
        // A 64-bit batch exponent touches 16 windows, not all 40 — the
        // fp-mul count must reflect that (satellite op-counter guard).
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
