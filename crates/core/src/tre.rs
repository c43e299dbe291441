//! The basic TRE scheme of §5.1 — one-way / CPA-secure timed-release
//! public-key encryption (the Fujisaki-Okamoto hardening lives in
//! [`crate::fo`]; an AEAD hybrid in [`crate::hybrid`]).
//!
//! ```text
//! Encrypt(PK_S=(G,sG), PK_U=(aG,asG), T, M):
//!     check ê(aG, sG) = ê(G, asG)
//!     r ←$ Z_q*;  K = ê(r·asG, H1(T));  C = ⟨rG, M ⊕ H2(K)⟩
//! Decrypt(a, I_T = sH1(T), C=⟨U,V⟩):
//!     K' = ê(U, I_T)^a;  M = V ⊕ H2(K')
//! ```

use rand::RngCore;
use tre_bigint::U256;
use tre_pairing::{Curve, G1Affine, Gt, MillerPrecomp};

use crate::error::TreError;
use crate::keys::{KeyUpdate, SenderPrecomp, UserKeyPair, UserPublicKey};
use crate::tag::ReleaseTag;

/// Domain string for the `H2` mask oracle of the basic scheme.
pub(crate) const MASK_DOMAIN: &[u8] = b"tre/basic/mask";

/// A basic-scheme ciphertext `⟨U, V⟩ = ⟨rG, M ⊕ H2(K)⟩` plus its release
/// tag (carried in the clear so the receiver knows which update to wait
/// for — the paper sends `T` alongside the ciphertext).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ciphertext<const L: usize> {
    pub(crate) u: G1Affine<L>,
    pub(crate) v: Vec<u8>,
    pub(crate) tag: ReleaseTag,
}

impl<const L: usize> Ciphertext<L> {
    /// The release tag the ciphertext is locked to.
    pub fn tag(&self) -> &ReleaseTag {
        &self.tag
    }

    /// The ephemeral point `U = rG`.
    pub fn u(&self) -> &G1Affine<L> {
        &self.u
    }

    /// The masked payload `V`.
    pub fn v(&self) -> &[u8] {
        &self.v
    }

    /// Total body size in bytes (excluding any wire framing).
    pub fn size(&self, curve: &Curve<L>) -> usize {
        let mut out = Vec::new();
        self.write_body(curve, &mut out);
        out.len()
    }

    /// Canonical body encoding `tag ‖ U ‖ len(V) ‖ V`, appended to `out`.
    pub fn write_body(&self, curve: &Curve<L>, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.tag.to_bytes());
        out.extend_from_slice(&curve.g1_to_bytes(&self.u));
        out.extend_from_slice(&(self.v.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.v);
    }

    /// Parses the canonical body encoding, requiring `bytes` to be
    /// consumed exactly.
    ///
    /// # Errors
    /// Returns [`TreError::Malformed`] on truncated or invalid input.
    pub fn read_body(curve: &Curve<L>, bytes: &[u8]) -> Result<Self, TreError> {
        let (tag, mut off) =
            ReleaseTag::from_bytes(bytes).ok_or(TreError::Malformed("ciphertext tag"))?;
        let plen = curve.point_len();
        if bytes.len() < off + plen + 4 {
            return Err(TreError::Malformed("ciphertext truncated"));
        }
        let u = curve
            .g1_from_bytes(&bytes[off..off + plen])
            .map_err(|_| TreError::Malformed("ciphertext U"))?;
        off += plen;
        let vlen = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        if bytes.len() != off + vlen {
            return Err(TreError::Malformed("ciphertext V length"));
        }
        Ok(Self {
            u,
            v: bytes[off..].to_vec(),
            tag,
        })
    }
}

/// Computes the sender-side pairing key `K = ê(r·asG, H1(T))` as
/// `ê(asG, H1(T))^r` (bilinearity): one pairing and one windowed `G_T`
/// power instead of a variable-base `r·asG` before the pairing.
pub(crate) fn sender_key<const L: usize>(
    curve: &Curve<L>,
    user: &UserPublicKey<L>,
    tag: &ReleaseTag,
    r: &U256,
) -> Gt<L> {
    let h_t = curve.hash_to_g1(tag.h1_domain(), tag.value());
    curve.pairing(user.a_s_g(), &h_t).pow(r, curve)
}

/// Computes the receiver-side pairing key `K' = ê(U, I_T)^a` (windowed
/// exponentiation — the `^a` is the second-hottest op on the decrypt
/// path after the pairing itself).
pub(crate) fn receiver_key<const L: usize>(
    curve: &Curve<L>,
    u: &G1Affine<L>,
    update: &KeyUpdate<L>,
    a: &U256,
) -> Gt<L> {
    curve.pairing(u, update.sig()).pow(a, curve)
}

/// [`receiver_key`] with the update signature *prepared*: Type-1
/// symmetry gives `ê(U, I_T) = ê(I_T, U)`, so the fixed `I_T` of an
/// epoch goes on the prepared side and every ciphertext of that epoch
/// replays the same Miller coefficients against its fresh `U`.
pub(crate) fn receiver_key_prepared<const L: usize>(
    curve: &Curve<L>,
    prep_sig: &MillerPrecomp<L>,
    u: &G1Affine<L>,
    a: &U256,
) -> Gt<L> {
    curve.pairing_prepared(prep_sig, u).pow(a, curve)
}

/// Decrypts with an already-verified update, off its prepared signature:
/// the update must have been verified out of band, and its tag matched
/// against the ciphertext by the caller ([`crate::Receiver::open`] does
/// both). One prepared pairing per ciphertext.
pub(crate) fn decrypt_trusted_prepared_impl<const L: usize>(
    curve: &Curve<L>,
    user: &UserKeyPair<L>,
    prep_sig: &MillerPrecomp<L>,
    ct: &Ciphertext<L>,
) -> Vec<u8> {
    let _span = tre_obs::span("tre.decrypt_trusted");
    let k = receiver_key_prepared(curve, prep_sig, &ct.u, user.secret_scalar());
    let mask = curve.gt_kdf(&k, MASK_DOMAIN, ct.v.len());
    ct.v.iter().zip(&mask).map(|(c, k)| c ^ k).collect()
}

/// Encrypts `msg` to `tag` off a validated [`SenderPrecomp`] (basic §5.1
/// scheme); [`crate::Sender::encrypt`] is the public entry point.
///
/// The sender talks only to local data: the server's *public* key and the
/// receiver's *public* key. No interaction with the time server occurs, and
/// the tag may name any instant in the (possibly infinite) future. The
/// marginal cost per message is one table-driven `r·G` and one `G_T`
/// power `ê(H1(T), asG)^r`; a message whose tag differs from the previous
/// one's also pays one hash-to-curve and one pairing (see
/// [`SenderPrecomp`]).
pub(crate) fn encrypt_with_impl<const L: usize>(
    curve: &Curve<L>,
    pre: &SenderPrecomp<L>,
    tag: &ReleaseTag,
    msg: &[u8],
    rng: &mut (impl RngCore + ?Sized),
) -> Ciphertext<L> {
    let _span = tre_obs::span("tre.encrypt");
    let r = curve.random_scalar(rng);
    let k = pre.seal_key(curve, tag, &r);
    let mask = curve.gt_kdf(&k, MASK_DOMAIN, msg.len());
    Ciphertext {
        u: pre.g_table().mul(curve, &r),
        v: msg.iter().zip(&mask).map(|(m, k)| m ^ k).collect(),
        tag: tag.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ServerKeyPair;
    use crate::session::{Receiver, Sender};
    use tre_pairing::toy64;

    struct Setup {
        server: ServerKeyPair<8>,
        user: UserKeyPair<8>,
        sender: Sender<'static, 8>,
    }

    fn setup() -> Setup {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        let sender = Sender::new(curve, server.public(), user.public()).unwrap();
        Setup {
            server,
            user,
            sender,
        }
    }

    impl Setup {
        /// A fresh receiving session for `user` under this setup's server.
        fn receiver(&self, user: &UserKeyPair<8>) -> Receiver<'static, 8> {
            Receiver::new(toy64(), *self.server.public(), user.clone())
        }
    }

    /// The textbook §5.1 decryption `V ⊕ H2(ê(U, I_T)^a)` with the
    /// generic pairing: the reference every open is checked against.
    fn textbook_decrypt(
        user: &UserKeyPair<8>,
        update: &KeyUpdate<8>,
        ct: &Ciphertext<8>,
    ) -> Vec<u8> {
        let curve = toy64();
        let k = receiver_key(curve, &ct.u, update, user.secret_scalar());
        let mask = curve.gt_kdf(&k, MASK_DOMAIN, ct.v.len());
        ct.v.iter().zip(&mask).map(|(c, k)| c ^ k).collect()
    }

    #[test]
    fn roundtrip() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let tag = ReleaseTag::time("2026-07-04T12:00:00Z");
        let msg = b"the bid is $1,000,000";
        let ct = s.sender.encrypt(&tag, msg, &mut rng);
        let update = s.server.issue_update(curve, &tag);
        let pt = s.receiver(&s.user).open_with(&update, &ct).unwrap();
        assert_eq!(pt, msg);
        assert_eq!(textbook_decrypt(&s.user, &update, &ct), msg);
    }

    #[test]
    fn roundtrip_empty_and_long() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let tag = ReleaseTag::time("t");
        let update = s.server.issue_update(curve, &tag);
        let mut receiver = s.receiver(&s.user);
        for msg in [vec![], vec![7u8; 1], vec![42u8; 5000]] {
            let ct = s.sender.encrypt(&tag, &msg, &mut rng);
            let pt = receiver.open_with(&update, &ct).unwrap();
            assert_eq!(pt, msg);
        }
    }

    #[test]
    fn wrong_update_tag_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let ct = s.sender.encrypt(&ReleaseTag::time("noon"), b"m", &mut rng);
        let wrong = s.server.issue_update(curve, &ReleaseTag::time("midnight"));
        let mut receiver = s.receiver(&s.user);
        assert_eq!(
            receiver.open_with(&wrong, &ct),
            Err(TreError::UpdateTagMismatch)
        );
        // Holding an authentic update for another tag opens nothing.
        receiver.observe_update(wrong).unwrap();
        assert_eq!(receiver.open(&ct), Err(TreError::MissingUpdate));
    }

    #[test]
    fn early_decryption_garbage_without_update() {
        // Before the update exists nothing opens; a cheater who forges one
        // has it rejected outright, and force-feeding it yields noise.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let tag = ReleaseTag::time("t");
        let msg = b"secret";
        let ct = s.sender.encrypt(&tag, msg, &mut rng);
        let mut receiver = s.receiver(&s.user);
        assert_eq!(receiver.open(&ct), Err(TreError::MissingUpdate));
        let forged_sig = curve.g1_mul(
            &curve.hash_to_g1(tag.h1_domain(), tag.value()),
            &curve.random_scalar(&mut rng),
        );
        let forged = KeyUpdate::from_parts(tag.clone(), forged_sig);
        assert_eq!(
            receiver.open_with(&forged, &ct),
            Err(TreError::InvalidUpdate)
        );
        assert_ne!(textbook_decrypt(&s.user, &forged, &ct), msg);
    }

    #[test]
    fn wrong_receiver_cannot_decrypt() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let eve = UserKeyPair::generate(curve, s.server.public(), &mut rng);
        let tag = ReleaseTag::time("t");
        let msg = b"for alice only";
        let ct = s.sender.encrypt(&tag, msg, &mut rng);
        let update = s.server.issue_update(curve, &tag);
        let pt = s.receiver(&eve).open_with(&update, &ct).unwrap();
        assert_ne!(
            pt, msg,
            "different private key must not recover the message"
        );
    }

    #[test]
    fn update_from_other_time_does_not_decrypt() {
        // Even an authentic update for T' != T yields garbage when force-fed
        // (after re-labelling it would fail verification; here we check the
        // key material itself differs).
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let tag = ReleaseTag::time("t");
        let ct = s.sender.encrypt(&tag, b"secret", &mut rng);
        let other = s.server.issue_update(curve, &ReleaseTag::time("t'"));
        // Same-tag wrapper around the wrong signature point: authentic-looking
        // but cryptographically wrong — fails verify.
        let mismatched = KeyUpdate::from_parts(tag.clone(), *other.sig());
        assert_eq!(
            s.receiver(&s.user).open_with(&mismatched, &ct),
            Err(TreError::InvalidUpdate)
        );
        assert_ne!(textbook_decrypt(&s.user, &mismatched, &ct), b"secret");
    }
    #[test]
    fn invalid_user_key_blocks_encryption() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let a = curve.random_scalar(&mut rng);
        let b = curve.random_scalar(&mut rng);
        let bogus = UserPublicKey::from_points(
            curve,
            curve.g1_mul(s.server.public().g(), &a),
            curve.g1_mul(s.server.public().g(), &b),
        )
        .unwrap();
        assert!(matches!(
            SenderPrecomp::new(curve, s.server.public(), &bogus),
            Err(TreError::InvalidUserKey)
        ));
    }

    #[test]
    fn ciphertext_serialization_roundtrip() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let ct = s.sender.encrypt(&ReleaseTag::time("t"), b"hello", &mut rng);
        let mut bytes = Vec::new();
        ct.write_body(curve, &mut bytes);
        assert_eq!(bytes.len(), ct.size(curve));
        let parsed = Ciphertext::read_body(curve, &bytes).unwrap();
        assert_eq!(parsed, ct);
        assert!(Ciphertext::<8>::read_body(curve, &bytes[..bytes.len() - 1]).is_err());
        assert!(Ciphertext::<8>::read_body(curve, &[]).is_err());
    }

    #[test]
    fn randomized_encryption() {
        let mut rng = rand::thread_rng();
        let s = setup();
        let tag = ReleaseTag::time("t");
        let c1 = s.sender.encrypt(&tag, b"m", &mut rng);
        let c2 = s.sender.encrypt(&tag, b"m", &mut rng);
        assert_ne!(c1, c2, "fresh r per encryption");
    }

    #[test]
    fn server_cannot_decrypt_for_user() {
        // Highest-privacy property (§3): the server, holding s, still lacks
        // the user's a. With only s it can compute ê(U, sH1(T)) but not the
        // `^a` step; simulate by decrypting with the *server* key material
        // as if it were a user secret and checking the result is wrong.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let tag = ReleaseTag::time("t");
        let msg = b"user-private";
        let ct = s.sender.encrypt(&tag, msg, &mut rng);
        let update = s.server.issue_update(curve, &tag);
        let k_server = curve.pairing(&ct.u, update.sig()); // no ^a available
        let mask = curve.gt_kdf(&k_server, MASK_DOMAIN, msg.len());
        let attempt: Vec<u8> = ct.v.iter().zip(&mask).map(|(c, k)| c ^ k).collect();
        assert_ne!(attempt, msg);
    }

    #[test]
    fn sender_key_matches_memoized_seal_key() {
        // The FO/REACT/hybrid key and the memoized basic-scheme key are the
        // same ê(r·asG, H1(T)), and both equal the textbook formula.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let tag = ReleaseTag::time("t");
        let r = curve.random_scalar(&mut rng);
        let textbook = curve.pairing(
            &curve.g1_mul(s.user.public().a_s_g(), &r),
            &curve.hash_to_g1(tag.h1_domain(), tag.value()),
        );
        assert_eq!(sender_key(curve, s.user.public(), &tag, &r), textbook);
        assert_eq!(s.sender.precomp().seal_key(curve, &tag, &r), textbook);
    }

    #[test]
    fn cached_open_skips_verification_pairings() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let tag = ReleaseTag::time("t");
        let update = s.server.issue_update(curve, &tag);
        let ct = s.sender.encrypt(&tag, b"m", &mut rng);
        let mut receiver = s.receiver(&s.user);
        tre_obs::enable();
        receiver.open_with(&update, &ct).unwrap();
        let first = tre_obs::finish().total_ops().pairings;
        tre_obs::enable();
        receiver.open_with(&update, &ct).unwrap();
        let trace = tre_obs::finish();
        assert_eq!(
            first, 3,
            "first sighting verifies (2 pairings) then opens (1)"
        );
        assert_eq!(
            trace.total_ops().pairings,
            1,
            "a cached update opens with 1"
        );
        assert_eq!(trace.spans_named("tre.decrypt_trusted")[0].ops.pairings, 1);
        // Tag mismatch still enforced.
        let other = s.server.issue_update(curve, &ReleaseTag::time("t'"));
        assert_eq!(
            receiver.open_with(&other, &ct),
            Err(TreError::UpdateTagMismatch)
        );
    }

    #[test]
    fn bulk_open_matches_sequential_for_any_thread_count() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s = setup();
        let tag = ReleaseTag::time("t");
        let update = s.server.issue_update(curve, &tag);
        let msgs: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; i as usize + 1]).collect();
        let cts: Vec<_> = msgs
            .iter()
            .map(|m| s.sender.encrypt(&tag, m, &mut rng))
            .collect();
        for threads in [0usize, 1, 2, 4] {
            let out = s
                .receiver(&s.user)
                .open_bulk(&update, &cts, threads)
                .unwrap();
            assert_eq!(out, msgs, "threads={threads}");
        }
        // A mistagged ciphertext in the batch aborts before decrypting.
        let stray = s.sender.encrypt(&ReleaseTag::time("t'"), b"x", &mut rng);
        let mut mixed = cts.clone();
        mixed.push(stray);
        assert_eq!(
            s.receiver(&s.user).open_bulk(&update, &mixed, 1),
            Err(TreError::UpdateTagMismatch)
        );
        // A forged update is refused up front.
        let forged = KeyUpdate::from_parts(
            tag.clone(),
            curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        );
        assert_eq!(
            s.receiver(&s.user).open_bulk(&forged, &cts, 1),
            Err(TreError::InvalidUpdate)
        );
    }
}
