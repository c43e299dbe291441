//! Multiple time servers (§5.3.5): the sender spreads trust over `N`
//! servers so that early release requires *all* of them to collude.
//!
//! Each server `i` has its own generator and key `(G_i, s_i·G_i)`. The
//! receiver publishes per-server components `(a·G_i, a·s_i·G_i)` under the
//! single secret `a`; the sender validates each pair, aggregates
//! `K_new = Σ a·s_i·G_i`, and encrypts with **one** pairing:
//!
//! ```text
//! K = ê(r·K_new, H1(T)) = ∏ ê(G_i, H1(T))^{r·a·s_i}
//! C = ⟨rG_1, …, rG_N, M ⊕ H2(K)⟩
//! ```
//!
//! Decryption needs the key update `s_i·H1(T)` from **every** server:
//! `K' = (∏ ê(rG_i, s_i·H1(T)))^a`.

use rand::RngCore;
use tre_bigint::U256;
use tre_pairing::{Curve, G1Affine};

use crate::error::TreError;
use crate::keys::{KeyUpdate, ServerPublicKey, UserKeyPair};
use crate::tag::ReleaseTag;

const MASK_DOMAIN: &[u8] = b"tre/multi/mask";

/// A receiver public key spanning `N` time servers: the pairs
/// `(a·G_i, a·s_i·G_i)` in server order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MultiServerUserKey<const L: usize> {
    components: Vec<(G1Affine<L>, G1Affine<L>)>,
}

/// A multi-server ciphertext `⟨rG_1, …, rG_N, V⟩`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MultiCiphertext<const L: usize> {
    us: Vec<G1Affine<L>>,
    v: Vec<u8>,
    tag: ReleaseTag,
}

impl<const L: usize> MultiServerUserKey<L> {
    /// Receiver-side: builds the multi-server key from the long-term secret
    /// `a` and the chosen servers' public keys.
    pub fn derive(curve: &Curve<L>, servers: &[ServerPublicKey<L>], user_secret: &U256) -> Self {
        let components = servers
            .iter()
            .map(|s| {
                (
                    curve.g1_mul(s.g(), user_secret),
                    curve.g1_mul(s.s_g(), user_secret),
                )
            })
            .collect();
        Self { components }
    }

    /// Number of servers this key spans.
    pub fn arity(&self) -> usize {
        self.components.len()
    }

    /// The `a·s_i·G_i` component for server `i` (used by the threshold
    /// extension's per-server encapsulations).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn component_a_s_g(&self, i: usize) -> &G1Affine<L> {
        &self.components[i].1
    }

    /// Sender-side validation: each component pair must satisfy
    /// `ê(a·G_i, s_i·G_i) = ê(G_i, a·s_i·G_i)` — so decryption genuinely
    /// requires every server's update.
    ///
    /// # Errors
    /// * [`TreError::ArityMismatch`] if the server list length differs;
    /// * [`TreError::InvalidUserKey`] if any pair fails its check.
    pub fn validate(
        &self,
        curve: &Curve<L>,
        servers: &[ServerPublicKey<L>],
    ) -> Result<(), TreError> {
        if servers.len() != self.components.len() {
            return Err(TreError::ArityMismatch {
                expected: self.components.len(),
                got: servers.len(),
            });
        }
        for ((a_g, a_s_g), server) in self.components.iter().zip(servers) {
            if a_g.is_infinity() || a_s_g.is_infinity() {
                return Err(TreError::InvalidUserKey);
            }
            if curve.pairing(a_g, server.s_g()) != curve.pairing(server.g(), a_s_g) {
                return Err(TreError::InvalidUserKey);
            }
        }
        Ok(())
    }

    /// The aggregate `K_new = Σ a·s_i·G_i`.
    fn aggregate(&self, curve: &Curve<L>) -> G1Affine<L> {
        let mut acc = G1Affine::infinity(curve.fp());
        for (_, a_s_g) in &self.components {
            acc = curve.g1_add(&acc, a_s_g);
        }
        acc
    }
}

impl<const L: usize> MultiCiphertext<L> {
    /// The release tag the ciphertext is locked to.
    pub fn tag(&self) -> &ReleaseTag {
        &self.tag
    }

    /// Number of servers whose updates are needed to decrypt.
    pub fn arity(&self) -> usize {
        self.us.len()
    }

    /// Total wire size in bytes.
    pub fn size(&self, curve: &Curve<L>) -> usize {
        self.tag.to_bytes().len() + self.us.len() * curve.point_len() + 4 + self.v.len()
    }

    /// Serializes as `tag ‖ n ‖ U_1…U_n ‖ len ‖ V`.
    pub fn to_bytes(&self, curve: &Curve<L>) -> Vec<u8> {
        let mut out = self.tag.to_bytes();
        out.extend_from_slice(&(self.us.len() as u16).to_be_bytes());
        for u in &self.us {
            out.extend_from_slice(&curve.g1_to_bytes(u));
        }
        out.extend_from_slice(&(self.v.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.v);
        out
    }

    /// Parses the canonical encoding.
    ///
    /// # Errors
    /// Returns [`TreError::Malformed`] on truncated or invalid input.
    pub fn from_bytes(curve: &Curve<L>, bytes: &[u8]) -> Result<Self, TreError> {
        let (tag, mut off) =
            ReleaseTag::from_bytes(bytes).ok_or(TreError::Malformed("multi ciphertext tag"))?;
        if bytes.len() < off + 2 {
            return Err(TreError::Malformed("multi ciphertext truncated"));
        }
        let n = u16::from_be_bytes(bytes[off..off + 2].try_into().unwrap()) as usize;
        off += 2;
        let plen = curve.point_len();
        if bytes.len() < off + n * plen + 4 {
            return Err(TreError::Malformed("multi ciphertext truncated"));
        }
        let mut us = Vec::with_capacity(n);
        for _ in 0..n {
            us.push(
                curve
                    .g1_from_bytes(&bytes[off..off + plen])
                    .map_err(|_| TreError::Malformed("multi ciphertext U_i"))?,
            );
            off += plen;
        }
        let vlen = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        if bytes.len() != off + vlen {
            return Err(TreError::Malformed("multi ciphertext V length"));
        }
        Ok(Self {
            us,
            v: bytes[off..].to_vec(),
            tag,
        })
    }
}

/// Multi-server timed-release encryption.
///
/// # Errors
/// Propagates [`MultiServerUserKey::validate`] failures; also rejects an
/// empty server list with [`TreError::ArityMismatch`].
pub fn encrypt<const L: usize>(
    curve: &Curve<L>,
    servers: &[ServerPublicKey<L>],
    user: &MultiServerUserKey<L>,
    tag: &ReleaseTag,
    msg: &[u8],
    rng: &mut (impl RngCore + ?Sized),
) -> Result<MultiCiphertext<L>, TreError> {
    if servers.is_empty() {
        return Err(TreError::ArityMismatch {
            expected: user.arity(),
            got: 0,
        });
    }
    user.validate(curve, servers)?;
    let r = curve.random_scalar(rng);
    let k_new = user.aggregate(curve);
    let h_t = curve.hash_to_g1(tag.h1_domain(), tag.value());
    let k = curve.pairing(&curve.g1_mul(&k_new, &r), &h_t);
    let mask = curve.gt_kdf(&k, MASK_DOMAIN, msg.len());
    let us = servers.iter().map(|s| curve.g1_mul(s.g(), &r)).collect();
    Ok(MultiCiphertext {
        us,
        v: msg.iter().zip(&mask).map(|(m, k)| m ^ k).collect(),
        tag: tag.clone(),
    })
}

/// Multi-server decryption: requires a verified update from **every**
/// server, in the same order as at encryption time.
///
/// # Errors
/// * [`TreError::ArityMismatch`] if the number of updates differs from the
///   ciphertext arity;
/// * [`TreError::UpdateTagMismatch`] / [`TreError::InvalidUpdate`] if any
///   update is for the wrong tag or fails verification against its server.
pub fn decrypt<const L: usize>(
    curve: &Curve<L>,
    servers: &[ServerPublicKey<L>],
    user: &UserKeyPair<L>,
    updates: &[KeyUpdate<L>],
    ct: &MultiCiphertext<L>,
) -> Result<Vec<u8>, TreError> {
    if updates.len() != ct.us.len() || servers.len() != ct.us.len() {
        return Err(TreError::ArityMismatch {
            expected: ct.us.len(),
            got: updates.len(),
        });
    }
    for (update, server) in updates.iter().zip(servers) {
        if update.tag() != &ct.tag {
            return Err(TreError::UpdateTagMismatch);
        }
        if !update.verify(curve, server) {
            return Err(TreError::InvalidUpdate);
        }
    }
    let pairs: Vec<_> = ct
        .us
        .iter()
        .zip(updates)
        .map(|(u, upd)| (*u, *upd.sig()))
        .collect();
    let k = curve.multi_pairing(&pairs).pow(user.secret_scalar(), curve);
    let mask = curve.gt_kdf(&k, MASK_DOMAIN, ct.v.len());
    Ok(ct.v.iter().zip(&mask).map(|(c, k)| c ^ k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ServerKeyPair;
    use tre_pairing::toy64;

    fn servers(n: usize) -> Vec<ServerKeyPair<8>> {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        (0..n)
            .map(|_| ServerKeyPair::generate(curve, &mut rng))
            .collect()
    }

    #[test]
    fn roundtrip_various_arities() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        for n in [1usize, 2, 3] {
            let srv = servers(n);
            let pks: Vec<_> = srv.iter().map(|s| *s.public()).collect();
            let a = curve.random_scalar(&mut rng);
            let user = UserKeyPair::from_secret(curve, &pks[0], a);
            let multi_pk = MultiServerUserKey::derive(curve, &pks, &a);
            let tag = ReleaseTag::time("t");
            let msg = b"multi-locked";
            let ct = encrypt(curve, &pks, &multi_pk, &tag, msg, &mut rng).unwrap();
            assert_eq!(ct.arity(), n);
            let updates: Vec<_> = srv.iter().map(|s| s.issue_update(curve, &tag)).collect();
            assert_eq!(decrypt(curve, &pks, &user, &updates, &ct).unwrap(), msg);
        }
    }

    #[test]
    fn missing_one_update_means_no_decryption() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let srv = servers(3);
        let pks: Vec<_> = srv.iter().map(|s| *s.public()).collect();
        let a = curve.random_scalar(&mut rng);
        let user = UserKeyPair::from_secret(curve, &pks[0], a);
        let multi_pk = MultiServerUserKey::derive(curve, &pks, &a);
        let tag = ReleaseTag::time("t");
        let msg = b"all three needed";
        let ct = encrypt(curve, &pks, &multi_pk, &tag, msg, &mut rng).unwrap();
        let updates: Vec<_> = srv.iter().map(|s| s.issue_update(curve, &tag)).collect();
        // Too few updates: structural failure.
        assert!(matches!(
            decrypt(curve, &pks, &user, &updates[..2], &ct),
            Err(TreError::ArityMismatch { .. })
        ));
        // Substituting server 2's update with a forgery: rejected.
        let mut forged = updates.clone();
        forged[2] = KeyUpdate::from_parts(
            tag.clone(),
            curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        );
        assert_eq!(
            decrypt(curve, &pks, &user, &forged, &ct),
            Err(TreError::InvalidUpdate)
        );
        // Even a coalition of 2 servers colluding with the receiver cannot
        // produce the third component: swap in an update from the wrong
        // server's key.
        let mut collusion = updates.clone();
        collusion[2] = srv[1].issue_update(curve, &tag); // s_1's signature reused
        assert_eq!(
            decrypt(curve, &pks, &user, &collusion, &ct),
            Err(TreError::InvalidUpdate)
        );
    }

    #[test]
    fn validation_rejects_inconsistent_key() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let srv = servers(2);
        let pks: Vec<_> = srv.iter().map(|s| *s.public()).collect();
        let a = curve.random_scalar(&mut rng);
        let b = curve.random_scalar(&mut rng);
        // Second pair internally inconsistent: (a·G_2, b·s_2·G_2) with
        // b ≠ a is not of the form the time lock requires.
        let mut mixed = MultiServerUserKey::derive(curve, &pks, &a);
        mixed.components[1] = (curve.g1_mul(pks[1].g(), &a), curve.g1_mul(pks[1].s_g(), &b));
        assert_eq!(mixed.validate(curve, &pks), Err(TreError::InvalidUserKey));
        assert!(matches!(
            mixed.validate(curve, &pks[..1]),
            Err(TreError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn empty_server_list_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let a = curve.random_scalar(&mut rng);
        let multi_pk = MultiServerUserKey::derive(curve, &[], &a);
        assert!(matches!(
            encrypt(
                curve,
                &[],
                &multi_pk,
                &ReleaseTag::time("t"),
                b"m",
                &mut rng
            ),
            Err(TreError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn serialization_roundtrip() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let srv = servers(2);
        let pks: Vec<_> = srv.iter().map(|s| *s.public()).collect();
        let a = curve.random_scalar(&mut rng);
        let mpk = MultiServerUserKey::derive(curve, &pks, &a);
        let ct = encrypt(curve, &pks, &mpk, &ReleaseTag::time("t"), b"m", &mut rng).unwrap();
        let parsed = MultiCiphertext::from_bytes(curve, &ct.to_bytes(curve)).unwrap();
        assert_eq!(parsed, ct);
        assert!(MultiCiphertext::<8>::from_bytes(curve, &[1]).is_err());
        let bytes = ct.to_bytes(curve);
        assert!(MultiCiphertext::<8>::from_bytes(curve, &bytes[..bytes.len() - 1]).is_err());
    }
    #[test]
    fn update_order_matters() {
        // Updates must line up with the server order used at encryption.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let srv = servers(2);
        let pks: Vec<_> = srv.iter().map(|s| *s.public()).collect();
        let a = curve.random_scalar(&mut rng);
        let user = UserKeyPair::from_secret(curve, &pks[0], a);
        let multi_pk = MultiServerUserKey::derive(curve, &pks, &a);
        let tag = ReleaseTag::time("t");
        let ct = encrypt(curve, &pks, &multi_pk, &tag, b"m", &mut rng).unwrap();
        let mut updates: Vec<_> = srv.iter().map(|s| s.issue_update(curve, &tag)).collect();
        updates.swap(0, 1);
        // Swapped updates fail verification against their paired servers.
        assert_eq!(
            decrypt(curve, &pks, &user, &updates, &ct),
            Err(TreError::InvalidUpdate)
        );
    }
}
