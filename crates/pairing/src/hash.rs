//! Random-oracle instantiations: `H1 : {0,1}* → G1` (hash-to-curve) and
//! `H2 : G_T → {0,1}^n` (mask/key derivation), per §5.1 of the paper.

use tre_hashes::{xof, Sha256};

use crate::curve::{Curve, G1Affine};
use crate::pairing::Gt;

impl<const L: usize> Curve<L> {
    /// Hashes an arbitrary message to a point of order `q` (the paper's
    /// `H1`). Try-and-increment: derive a candidate x-coordinate from
    /// `XOF(domain, msg ‖ counter)`, solve for `y`, clear the cofactor;
    /// retry until the result is a non-identity subgroup point.
    ///
    /// Deterministic for fixed `(domain, msg)` and uniform in the subgroup
    /// under the random-oracle model. The expected number of iterations is 2.
    pub fn hash_to_g1(&self, domain: &[u8], msg: &[u8]) -> G1Affine<L> {
        let mut from = 0;
        loop {
            let (ctr, cand) = self.h1_candidate_from(domain, msg, from);
            let cleared = self.g1_mul_uint(&cand, self.cofactor());
            if !cleared.is_infinity() {
                return cleared;
            }
            from = ctr
                .checked_add(1)
                .expect("hash-to-curve failed for 2^32 counters");
        }
    }

    /// The first on-curve try-and-increment candidate `P` for
    /// `(domain, msg)`, **before** cofactor clearing: `H1 = h·P` unless
    /// `h·P` is the identity (probability `1/q`), in which case
    /// [`Curve::hash_to_g1`] moves on to the next counter.
    ///
    /// `P` is not `H1` and must never be signed, encoded or compared as
    /// one. It exists for pairings against a fixed order-`q` point `A`:
    /// `ê((h mod q)·A, P) = ê(A, h·P)` (see [`Curve::cofactor_mod_q`]),
    /// which skips the ~350-bit clearing multiplication. A caller must
    /// treat `ê((h mod q)·A, P) = 1` as the `h·P = O` case and fall back
    /// to [`Curve::hash_to_g1`].
    pub fn h1_candidate(&self, domain: &[u8], msg: &[u8]) -> G1Affine<L> {
        self.h1_candidate_from(domain, msg, 0).1
    }

    /// The try-and-increment loop: the first counter at or after `from`
    /// whose x-coordinate lies on the curve, and its point.
    fn h1_candidate_from(&self, domain: &[u8], msg: &[u8], from: u32) -> (u32, G1Affine<L>) {
        let ctx = self.fp();
        let fp_bytes = tre_bigint::Uint::<L>::BYTES;
        for ctr in from..=u32::MAX {
            tre_obs::record_h2c_iter();
            let mut input = Vec::with_capacity(msg.len() + 4);
            input.extend_from_slice(msg);
            input.extend_from_slice(&ctr.to_be_bytes());
            // 16 extra bytes + 1 sign byte so the mod-p reduction bias is
            // negligible and the y-sign is independent of x.
            let h = xof::<Sha256>(&self.h1_domain(domain), &input, fp_bytes + 17);
            let sign_byte = h[fp_bytes + 16];
            let x = ctx.from_be_bytes_mod(&h[..fp_bytes + 16]);
            let rhs = x.square(ctx).mul(&x, ctx).add(&x, ctx);
            // About half of all counters are non-residues: the Jacobi
            // screen turns them away before the square root.
            if !rhs.is_square(ctx) {
                continue;
            }
            let y = match rhs.sqrt(ctx) {
                Some(y) => y,
                None => continue,
            };
            let y = if (sign_byte & 1 == 1) != y.is_odd(ctx) {
                y.neg(ctx)
            } else {
                y
            };
            let cand = G1Affine { x, y, inf: false };
            debug_assert!(self.is_on_curve(&cand));
            return (ctr, cand);
        }
        unreachable!("hash-to-curve failed for 2^32 counters")
    }

    /// The paper's `H2 : G_T → {0,1}^n` — expands a pairing value into `n`
    /// mask/key bytes. Domain-separated per parameter set.
    pub fn gt_kdf(&self, k: &Gt<L>, domain: &[u8], n: usize) -> Vec<u8> {
        let mut dom = b"TRE-H2/".to_vec();
        dom.extend_from_slice(self.name().as_bytes());
        dom.push(b'/');
        dom.extend_from_slice(domain);
        xof::<Sha256>(&dom, &k.to_bytes(self), n)
    }

    fn h1_domain(&self, domain: &[u8]) -> Vec<u8> {
        let mut dom = b"TRE-H1/".to_vec();
        dom.extend_from_slice(self.name().as_bytes());
        dom.push(b'/');
        dom.extend_from_slice(domain);
        dom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp;
    use crate::params::toy64;

    /// The try-and-increment loop without the Jacobi screen: every
    /// counter pays the square root.
    fn candidate_unscreened<const L: usize>(
        curve: &Curve<L>,
        domain: &[u8],
        msg: &[u8],
    ) -> (u32, G1Affine<L>) {
        let ctx = curve.fp();
        let n = tre_bigint::Uint::<L>::BYTES;
        for ctr in 0..=u32::MAX {
            let input = [msg, &ctr.to_be_bytes()].concat();
            let h = xof::<Sha256>(&curve.h1_domain(domain), &input, n + 17);
            let x = ctx.from_uint(&tre_bigint::Uint::from_be_bytes_mod(
                &h[..n + 16],
                ctx.modulus(),
            ));
            let rhs = x.square(ctx).mul(&x, ctx).add(&x, ctx);
            if let Some(y) = rhs.sqrt(ctx) {
                let y: Fp<L> = if (h[n + 16] & 1 == 1) != y.is_odd(ctx) {
                    y.neg(ctx)
                } else {
                    y
                };
                return (ctr, G1Affine { x, y, inf: false });
            }
        }
        unreachable!()
    }

    #[test]
    fn screened_candidates_match_unscreened_loop() {
        let curve = toy64();
        for i in 0u32..2000 {
            let msg = format!("epoch-{i}");
            let expect = candidate_unscreened(curve, b"tag", msg.as_bytes());
            tre_obs::enable();
            let got = curve.h1_candidate_from(b"tag", msg.as_bytes(), 0);
            let ops = tre_obs::finish().total_ops();
            assert_eq!(got, expect, "{msg}");
            // Same counters walked, one square root (the accepted one).
            assert_eq!(ops.h2c_iters, u64::from(expect.0) + 1, "{msg}");
            assert_eq!(ops.fp_sqrts, 1, "{msg}");
        }
    }
}
