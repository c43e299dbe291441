//! Threshold (k-of-N) multi-server timed release — an availability
//! extension of §5.3.5.
//!
//! The paper's multi-server mode needs **all** N updates (maximum
//! collusion resistance, minimum availability). Here the sender
//! Shamir-splits a secret scalar across the N per-server encapsulations so
//! that updates from **any k** servers suffice, while any `k − 1`
//! colluding servers (plus the receiver) learn information-theoretically
//! nothing about the DEM key.
//!
//! Shamir's scheme runs over the curve's scalar field `Z_q`.

use rand::RngCore;
use tre_bigint::U256;
use tre_pairing::{Curve, G1Affine};
use tre_sym::ChaCha20Poly1305;

use crate::error::TreError;
use crate::keys::{KeyUpdate, ServerPublicKey, UserKeyPair};
use crate::multi_server::MultiServerUserKey;
use crate::tag::ReleaseTag;

const MASK_DOMAIN: &[u8] = b"tre/threshold/mask";
const DEM_DOMAIN: &[u8] = b"tre/threshold/dem";

/// One Shamir share: the polynomial evaluated at `x = index` (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point (`1..=n`; 0 is the secret and never issued).
    pub index: u32,
    /// `f(index) mod q`.
    pub value: U256,
}

/// Splits `secret` into `n` shares with threshold `k` over `Z_q`.
///
/// # Panics
/// Panics unless `1 ≤ k ≤ n` and `n < 2^16`.
pub fn shamir_split<const L: usize>(
    curve: &Curve<L>,
    secret: &U256,
    k: u32,
    n: u32,
    rng: &mut (impl RngCore + ?Sized),
) -> Vec<Share> {
    assert!(
        k >= 1 && k <= n && n < 1 << 16,
        "invalid threshold parameters"
    );
    // f(x) = secret + c₁x + … + c_{k−1}x^{k−1}, random cᵢ.
    let coeffs: Vec<U256> = (1..k).map(|_| curve.random_scalar(rng)).collect();
    (1..=n)
        .map(|x| {
            let xs = U256::from_u64(x as u64);
            // Horner evaluation: (((c_{k−1})x + c_{k−2})x + …)x + secret.
            let mut acc = U256::ZERO;
            for c in coeffs.iter().rev() {
                acc = curve.scalar_add(&curve.scalar_mul(&acc, &xs), c);
            }
            let value = curve.scalar_add(&curve.scalar_mul(&acc, &xs), &secret.rem(curve.order()));
            Share { index: x, value }
        })
        .collect()
}

/// Lagrange interpolation at 0 from `k` (or more) distinct shares.
///
/// Returns `None` on duplicate indices or an empty slice.
pub fn shamir_reconstruct<const L: usize>(curve: &Curve<L>, shares: &[Share]) -> Option<U256> {
    if shares.is_empty() {
        return None;
    }
    for (i, a) in shares.iter().enumerate() {
        if shares[i + 1..].iter().any(|b| b.index == a.index) {
            return None;
        }
    }
    let mut secret = U256::ZERO;
    for a in shares {
        let xa = U256::from_u64(a.index as u64);
        // λ_a = ∏_{b≠a} x_b / (x_b − x_a), evaluated at 0.
        let mut num = U256::ONE;
        let mut den = U256::ONE;
        for b in shares {
            if b.index == a.index {
                continue;
            }
            let xb = U256::from_u64(b.index as u64);
            num = curve.scalar_mul(&num, &xb);
            den = curve.scalar_mul(&den, &curve.scalar_sub(&xb, &xa));
        }
        let lambda = curve.scalar_mul(&num, &curve.scalar_inv(&den)?);
        secret = curve.scalar_add(&secret, &curve.scalar_mul(&lambda, &a.value));
    }
    Some(secret)
}

/// A k-of-N threshold timed-release ciphertext.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThresholdCiphertext<const L: usize> {
    threshold: u32,
    us: Vec<G1Affine<L>>,
    masked_shares: Vec<[u8; 32]>,
    body: Vec<u8>,
    tag: ReleaseTag,
}

impl<const L: usize> ThresholdCiphertext<L> {
    /// The threshold `k`.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The release tag.
    pub fn tag(&self) -> &ReleaseTag {
        &self.tag
    }

    /// Total wire size in bytes.
    pub fn size(&self, curve: &Curve<L>) -> usize {
        self.tag.to_bytes().len() + self.us.len() * (curve.point_len() + 32) + self.body.len() + 8
    }
}

fn dem_key(z: &U256) -> [u8; 32] {
    tre_hashes::xof::<tre_hashes::Sha256>(DEM_DOMAIN, &z.to_be_bytes(), 32)
        .try_into()
        .unwrap()
}

/// Encrypts so that updates from **any k** of the N servers (plus the
/// receiver's secret) decrypt.
///
/// # Errors
/// * [`TreError::ArityMismatch`] for `k = 0`, `k > N`, or `N = 0`;
/// * [`TreError::InvalidUserKey`] on multi-server key validation failure.
pub fn encrypt<const L: usize>(
    curve: &Curve<L>,
    servers: &[ServerPublicKey<L>],
    user: &MultiServerUserKey<L>,
    threshold: u32,
    tag: &ReleaseTag,
    msg: &[u8],
    rng: &mut (impl RngCore + ?Sized),
) -> Result<ThresholdCiphertext<L>, TreError> {
    let n = servers.len();
    if n == 0 || threshold == 0 || threshold as usize > n {
        return Err(TreError::ArityMismatch {
            expected: threshold as usize,
            got: n,
        });
    }
    user.validate(curve, servers)?;
    let z = curve.random_scalar(rng);
    let shares = shamir_split(curve, &z, threshold, n as u32, rng);
    let r = curve.random_scalar(rng);
    let h_t = curve.hash_to_g1(tag.h1_domain(), tag.value());
    let masked_shares = shares
        .iter()
        .enumerate()
        .map(|(i, share)| {
            // Per-server encapsulation key: ê(r·a·s_iG_i, H1(T)).
            let r_asg = curve.g1_mul(user.component_a_s_g(i), &r);
            let k = curve.pairing(&r_asg, &h_t);
            let mut dom = MASK_DOMAIN.to_vec();
            dom.extend_from_slice(&(share.index).to_be_bytes());
            let mask = curve.gt_kdf(&k, &dom, 32);
            let mut e = [0u8; 32];
            let val = share.value.to_be_bytes();
            for j in 0..32 {
                e[j] = val[j] ^ mask[j];
            }
            e
        })
        .collect();
    let us = servers.iter().map(|s| curve.g1_mul(s.g(), &r)).collect();
    let aad = tag.to_bytes();
    let body = ChaCha20Poly1305::new(&dem_key(&z)).seal(&[0u8; 12], &aad, msg);
    Ok(ThresholdCiphertext {
        threshold,
        us,
        masked_shares,
        body,
        tag: tag.clone(),
    })
}

/// Decrypts with verified updates from at least `k` servers.
/// `updates[i]` must be `Some(update_i)` for the servers whose updates are
/// available (positionally aligned with `servers`).
///
/// # Errors
/// * [`TreError::ArityMismatch`] if fewer than `k` updates are supplied or
///   the server list length is wrong;
/// * [`TreError::UpdateTagMismatch`] / [`TreError::InvalidUpdate`] on bad
///   updates;
/// * [`TreError::DecryptionFailed`] on wrong receiver / mauled ciphertext.
pub fn decrypt<const L: usize>(
    curve: &Curve<L>,
    servers: &[ServerPublicKey<L>],
    user: &UserKeyPair<L>,
    updates: &[Option<KeyUpdate<L>>],
    ct: &ThresholdCiphertext<L>,
) -> Result<Vec<u8>, TreError> {
    if servers.len() != ct.us.len() || updates.len() != ct.us.len() {
        return Err(TreError::ArityMismatch {
            expected: ct.us.len(),
            got: updates.len(),
        });
    }
    let available = updates.iter().flatten().count();
    if available < ct.threshold as usize {
        return Err(TreError::ArityMismatch {
            expected: ct.threshold as usize,
            got: available,
        });
    }
    let mut shares = Vec::with_capacity(ct.threshold as usize);
    for (i, maybe) in updates.iter().enumerate() {
        if shares.len() == ct.threshold as usize {
            break;
        }
        let Some(update) = maybe else { continue };
        if update.tag() != &ct.tag {
            return Err(TreError::UpdateTagMismatch);
        }
        if !update.verify(curve, &servers[i]) {
            return Err(TreError::InvalidUpdate);
        }
        let k = curve
            .pairing(&ct.us[i], update.sig())
            .pow(user.secret_scalar(), curve);
        let index = i as u32 + 1;
        let mut dom = MASK_DOMAIN.to_vec();
        dom.extend_from_slice(&index.to_be_bytes());
        let mask = curve.gt_kdf(&k, &dom, 32);
        let mut val = [0u8; 32];
        for j in 0..32 {
            val[j] = ct.masked_shares[i][j] ^ mask[j];
        }
        let value = U256::from_be_bytes(&val).map_err(|_| TreError::Malformed("share bytes"))?;
        shares.push(Share { index, value });
    }
    let z = shamir_reconstruct(curve, &shares).ok_or(TreError::DecryptionFailed)?;
    ChaCha20Poly1305::new(&dem_key(&z))
        .open(&[0u8; 12], &ct.tag.to_bytes(), &ct.body)
        .map_err(|_| TreError::DecryptionFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ServerKeyPair;
    use tre_pairing::toy64;

    #[test]
    fn shamir_roundtrip_all_subsets() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let secret = curve.random_scalar(&mut rng);
        let shares = shamir_split(curve, &secret, 3, 5, &mut rng);
        assert_eq!(shares.len(), 5);
        // Any 3 shares reconstruct.
        for combo in [[0, 1, 2], [0, 3, 4], [2, 3, 4], [1, 2, 4]] {
            let subset: Vec<_> = combo.iter().map(|&i| shares[i]).collect();
            assert_eq!(shamir_reconstruct(curve, &subset), Some(secret));
        }
        // More than k also works.
        assert_eq!(shamir_reconstruct(curve, &shares), Some(secret));
        // 2 shares give a different (wrong) value or garbage — never the
        // secret with overwhelming probability.
        let two: Vec<_> = shares[..2].to_vec();
        assert_ne!(shamir_reconstruct(curve, &two), Some(secret));
    }

    #[test]
    fn shamir_edge_cases() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let secret = curve.random_scalar(&mut rng);
        // k = 1: every share IS the secret.
        let shares = shamir_split(curve, &secret, 1, 3, &mut rng);
        for s in &shares {
            assert_eq!(shamir_reconstruct(curve, &[*s]), Some(secret));
        }
        // k = n.
        let shares = shamir_split(curve, &secret, 4, 4, &mut rng);
        assert_eq!(shamir_reconstruct(curve, &shares), Some(secret));
        // Duplicate indices rejected.
        assert_eq!(shamir_reconstruct(curve, &[shares[0], shares[0]]), None);
        assert_eq!(shamir_reconstruct::<8>(curve, &[]), None);
    }

    fn world(
        n: usize,
    ) -> (
        Vec<ServerKeyPair<8>>,
        Vec<ServerPublicKey<8>>,
        UserKeyPair<8>,
        MultiServerUserKey<8>,
    ) {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let servers: Vec<ServerKeyPair<8>> = (0..n)
            .map(|_| ServerKeyPair::generate(curve, &mut rng))
            .collect();
        let pks: Vec<_> = servers.iter().map(|s| *s.public()).collect();
        let a = curve.random_scalar(&mut rng);
        let user = UserKeyPair::from_secret(curve, &pks[0], a);
        let mpk = MultiServerUserKey::derive(curve, &pks, &a);
        (servers, pks, user, mpk)
    }

    #[test]
    fn two_of_three_roundtrip() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, user, mpk) = world(3);
        let tag = ReleaseTag::time("t");
        let msg = b"any two servers suffice";
        let ct = encrypt(curve, &pks, &mpk, 2, &tag, msg, &mut rng).unwrap();
        let all: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        // All three available.
        assert_eq!(decrypt(curve, &pks, &user, &all, &ct).unwrap(), msg);
        // Each 2-subset works (one server down).
        for down in 0..3 {
            let mut subset = all.clone();
            subset[down] = None;
            assert_eq!(
                decrypt(curve, &pks, &user, &subset, &ct).unwrap(),
                msg,
                "server {down} down"
            );
        }
        // Only one update: below threshold.
        let mut one = vec![None, None, None];
        one[1] = all[1].clone();
        assert!(matches!(
            decrypt(curve, &pks, &user, &one, &ct),
            Err(TreError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn forged_update_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, user, mpk) = world(3);
        let tag = ReleaseTag::time("t");
        let ct = encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let mut updates: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        updates[0] = Some(KeyUpdate::from_parts(
            tag,
            curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        ));
        assert_eq!(
            decrypt(curve, &pks, &user, &updates, &ct),
            Err(TreError::InvalidUpdate)
        );
    }

    #[test]
    fn wrong_receiver_fails_closed() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, _user, mpk) = world(2);
        let eve = UserKeyPair::generate(curve, &pks[0], &mut rng);
        let tag = ReleaseTag::time("t");
        let ct = encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let updates: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        assert_eq!(
            decrypt(curve, &pks, &eve, &updates, &ct),
            Err(TreError::DecryptionFailed)
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (_servers, pks, _user, mpk) = world(2);
        let tag = ReleaseTag::time("t");
        assert!(matches!(
            encrypt(curve, &pks, &mpk, 0, &tag, b"m", &mut rng),
            Err(TreError::ArityMismatch { .. })
        ));
        assert!(matches!(
            encrypt(curve, &pks, &mpk, 3, &tag, b"m", &mut rng),
            Err(TreError::ArityMismatch { .. })
        ));
    }
}
