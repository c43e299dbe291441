//! Changing time servers without re-certification (§5.3.4).
//!
//! A user's certificate covers `aG` inside `PK_U = (aG, a·sG)`. When a
//! sender insists on a different time server `S'` (public key
//! `(G', s'G')`), the receiver publishes a *re-bound* key
//! `(aG, a·s'G')` — and anyone can check it descends from the same `a`
//! without a new certificate:
//!
//! ```text
//! ê(G, a·s'G') = ê(s'G', aG)
//! ```
//!
//! (both sides equal `ê(G, G')^{as'}`; footnote 11 of the paper covers the
//! distinct-generator case, which the symmetric pairing handles for free).

use tre_pairing::{Curve, G1Affine};

use crate::error::TreError;
use crate::keys::{ServerPublicKey, UserKeyPair, UserPublicKey};

/// A user's public key re-bound to a new time server, carrying the
/// certified `aG` (under the *original* server's generator `G`) and the
/// fresh `a·s'G'`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReboundKey<const L: usize> {
    /// `(aG, a·s'G')`: the certified `aG` and the fresh component.
    key: UserPublicKey<L>,
}

impl<const L: usize> ReboundKey<L> {
    /// Receiver-side: derives the re-bound key for `new_server` from the
    /// long-term secret. `certified` is the user's original (CA-certified)
    /// public key.
    pub fn derive(
        curve: &Curve<L>,
        certified: &UserPublicKey<L>,
        new_server: &ServerPublicKey<L>,
        user: &UserKeyPair<L>,
    ) -> Self {
        Self {
            key: UserPublicKey::from_derived_points(
                *certified.a_g(),
                curve.g1_mul(new_server.s_g(), user.secret_scalar()),
            ),
        }
    }

    /// Assembles a received re-bound key for verification.
    ///
    /// # Errors
    /// Returns [`TreError::InvalidUserKey`] if either point is off the
    /// curve or outside the order-`q` subgroup, as
    /// [`UserPublicKey::from_points`] does.
    pub fn from_points(
        curve: &Curve<L>,
        certified_a_g: G1Affine<L>,
        new_a_s_g: G1Affine<L>,
    ) -> Result<Self, TreError> {
        Ok(Self {
            key: UserPublicKey::from_points(curve, certified_a_g, new_a_s_g)?,
        })
    }

    /// Sender-side verification without any CA involvement:
    /// `ê(G_old, a·s'G') = ê(s'G', aG)` against the certified `aG`.
    ///
    /// # Errors
    /// Returns [`TreError::InvalidUserKey`] if the check fails — the new
    /// component was not produced by the certified key's owner.
    pub fn verify(
        &self,
        curve: &Curve<L>,
        old_server: &ServerPublicKey<L>,
        new_server: &ServerPublicKey<L>,
    ) -> Result<(), TreError> {
        let (certified_a_g, new_a_s_g) = (self.key.a_g(), self.key.a_s_g());
        if certified_a_g.is_infinity() || new_a_s_g.is_infinity() {
            return Err(TreError::InvalidUserKey);
        }
        let lhs = curve.pairing(old_server.g(), new_a_s_g);
        let rhs = curve.pairing(new_server.s_g(), certified_a_g);
        if lhs == rhs {
            Ok(())
        } else {
            Err(TreError::InvalidUserKey)
        }
    }

    /// Converts into a normal [`UserPublicKey`] usable with the new server,
    /// for the common case where the new server reuses the old generator
    /// (the paper's simplifying assumption in §5.3.4).
    ///
    /// Note: encryption under a new server with a *different* generator
    /// additionally needs `aG'`; receivers then run ordinary key
    /// generation against `S'` and use this struct only to prove
    /// continuity of identity.
    ///
    /// Infallible: both points are already subgroup points, checked by
    /// [`ReboundKey::from_points`] or derived by [`ReboundKey::derive`].
    pub fn into_user_key(self) -> UserPublicKey<L> {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ServerKeyPair;
    use crate::session::{Receiver, Sender};
    use crate::tag::ReleaseTag;
    use tre_pairing::toy64;

    #[test]
    fn rebound_key_verifies_and_works() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let old_server = ServerKeyPair::generate(curve, &mut rng);
        // New server shares the generator (paper's primary case).
        let new_server = ServerKeyPair::from_secret(
            curve,
            *old_server.public().g(),
            curve.random_scalar(&mut rng),
        );
        let user = UserKeyPair::generate(curve, old_server.public(), &mut rng);
        let rebound = ReboundKey::derive(curve, user.public(), new_server.public(), &user);
        rebound
            .verify(curve, old_server.public(), new_server.public())
            .unwrap();

        // The re-bound key is a fully functional public key for S'.
        let new_pk = rebound.into_user_key();
        new_pk.validate(curve, new_server.public()).unwrap();
        let tag = ReleaseTag::time("t");
        let msg = b"via new server";
        let sender = Sender::new(curve, new_server.public(), &new_pk).unwrap();
        let ct = sender.encrypt(&tag, msg, &mut rng);
        let update = new_server.issue_update(curve, &tag);
        let mut receiver = Receiver::new(curve, *new_server.public(), user);
        assert_eq!(receiver.open_with(&update, &ct).unwrap(), msg);
    }

    #[test]
    fn rebound_verifies_with_distinct_generator() {
        // Footnote 11: new server with its own generator G' = xG.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let old_server = ServerKeyPair::generate(curve, &mut rng);
        let new_server = ServerKeyPair::generate(curve, &mut rng); // fresh G'
        let user = UserKeyPair::generate(curve, old_server.public(), &mut rng);
        let rebound = ReboundKey::derive(curve, user.public(), new_server.public(), &user);
        rebound
            .verify(curve, old_server.public(), new_server.public())
            .unwrap();
    }

    #[test]
    fn impostor_rebound_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let old_server = ServerKeyPair::generate(curve, &mut rng);
        let new_server = ServerKeyPair::generate(curve, &mut rng);
        let alice = UserKeyPair::generate(curve, old_server.public(), &mut rng);
        let mallory = UserKeyPair::generate(curve, old_server.public(), &mut rng);
        // Mallory tries to pass her new-server component off under Alice's
        // certified aG.
        let forged = ReboundKey::from_points(
            curve,
            *alice.public().a_g(),
            curve.g1_mul(new_server.public().s_g(), mallory.secret_scalar()),
        )
        .unwrap();
        assert_eq!(
            forged.verify(curve, old_server.public(), new_server.public()),
            Err(TreError::InvalidUserKey)
        );
    }

    #[test]
    fn forged_multiple_of_new_server_key_rejected() {
        // The strongest structural forgery: a·s'G' replaced by r·s'G'
        // for an attacker-chosen r — a perfectly well-formed multiple of
        // the new server's key, just not one descending from the
        // certified aG. The pairing check must catch exactly this.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let old_server = ServerKeyPair::generate(curve, &mut rng);
        let new_server = ServerKeyPair::generate(curve, &mut rng);
        let alice = UserKeyPair::generate(curve, old_server.public(), &mut rng);
        let r = curve.random_scalar(&mut rng);
        let forged = ReboundKey::from_points(
            curve,
            *alice.public().a_g(),
            curve.g1_mul(new_server.public().s_g(), &r),
        )
        .unwrap();
        assert_eq!(
            forged.verify(curve, old_server.public(), new_server.public()),
            Err(TreError::InvalidUserKey)
        );
    }

    #[test]
    fn tampered_and_swapped_components_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let old_server = ServerKeyPair::generate(curve, &mut rng);
        let new_server = ServerKeyPair::generate(curve, &mut rng);
        let user = UserKeyPair::generate(curve, old_server.public(), &mut rng);
        let honest = ReboundKey::derive(curve, user.public(), new_server.public(), &user);
        honest
            .verify(curve, old_server.public(), new_server.public())
            .unwrap();

        // One-point malleation of the honest key: a·s'G' + G.
        let nudged = ReboundKey::from_points(
            curve,
            *user.public().a_g(),
            curve.g1_add(
                &curve.g1_mul(new_server.public().s_g(), user.secret_scalar()),
                &curve.generator(),
            ),
        )
        .unwrap();
        assert_eq!(
            nudged.verify(curve, old_server.public(), new_server.public()),
            Err(TreError::InvalidUserKey)
        );

        // Components transposed in transit.
        let swapped = ReboundKey::from_points(
            curve,
            curve.g1_mul(new_server.public().s_g(), user.secret_scalar()),
            *user.public().a_g(),
        )
        .unwrap();
        assert_eq!(
            swapped.verify(curve, old_server.public(), new_server.public()),
            Err(TreError::InvalidUserKey)
        );
    }

    #[test]
    fn rebound_is_bound_to_its_new_server() {
        // A rebind derived for S' must not verify as a rebind to some
        // other server S'' — otherwise a sender could be tricked into
        // encrypting toward a server the receiver never accepted.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let old_server = ServerKeyPair::generate(curve, &mut rng);
        let s_prime = ServerKeyPair::generate(curve, &mut rng);
        let s_other = ServerKeyPair::generate(curve, &mut rng);
        let user = UserKeyPair::generate(curve, old_server.public(), &mut rng);
        let rebound = ReboundKey::derive(curve, user.public(), s_prime.public(), &user);
        rebound
            .verify(curve, old_server.public(), s_prime.public())
            .unwrap();
        assert_eq!(
            rebound.verify(curve, old_server.public(), s_other.public()),
            Err(TreError::InvalidUserKey)
        );
    }

    #[test]
    fn honest_rebind_round_trips_across_epochs() {
        // The full §5.3.4 flow over several epochs: certify under S,
        // migrate to S' (same generator), and keep sealing/opening.
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let old_server = ServerKeyPair::generate(curve, &mut rng);
        let new_server = ServerKeyPair::from_secret(
            curve,
            *old_server.public().g(),
            curve.random_scalar(&mut rng),
        );
        let user = UserKeyPair::generate(curve, old_server.public(), &mut rng);
        let rebound = ReboundKey::derive(curve, user.public(), new_server.public(), &user);
        rebound
            .verify(curve, old_server.public(), new_server.public())
            .unwrap();
        let new_pk = rebound.into_user_key();
        let sender = Sender::new(curve, new_server.public(), &new_pk).unwrap();
        let mut receiver = Receiver::new(curve, *new_server.public(), user);
        for epoch in 0..3u64 {
            let tag = ReleaseTag::time(format!("rebind/{epoch}"));
            let msg = format!("epoch {epoch} via S'");
            let ct = sender.encrypt(&tag, msg.as_bytes(), &mut rng);
            let update = new_server.issue_update(curve, &tag);
            assert_eq!(receiver.open_with(&update, &ct).unwrap(), msg.as_bytes());
        }
    }

    #[test]
    fn infinity_components_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s1 = ServerKeyPair::generate(curve, &mut rng);
        let s2 = ServerKeyPair::generate(curve, &mut rng);
        let forged = ReboundKey::from_points(
            curve,
            tre_pairing::G1Affine::infinity(curve.fp()),
            tre_pairing::G1Affine::infinity(curve.fp()),
        )
        .unwrap();
        assert_eq!(
            forged.verify(curve, s1.public(), s2.public()),
            Err(TreError::InvalidUserKey)
        );
    }
}
