//! Batched update verification for the client hot path.
//!
//! A receiver that falls behind — or sits on a bursty broadcast channel —
//! holds N pending key updates against one server key. Verifying them one
//! by one costs 2 pairings each; the small-exponent batch test in
//! `tre-core` costs 2 pairings per *batch*, with a bisection fall-back
//! that still names the individual forgeries when a burst is poisoned.
//! [`BatchVerifier`] holds one prepared server key, attributes the
//! pairing cost to a `client.batch_verify` span, and reports exactly
//! which positions survived.
//!
//! Deciding *which* updates to verify is not done here. The one
//! admission rule, [`PreparedServerKey::admit`] in `tre-core`, screens a
//! burst by bytes (duplicates, equivocations) and verifies the rest in
//! one burst check. The receiver session, [`crate::ReceiverClient`] and
//! the relay's admission step (through this verifier's key) all call it.

use tre_core::{KeyUpdate, PreparedServerKey, ServerPublicKey};
use tre_pairing::Curve;

/// Which entries of one verified batch were accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchVerdict {
    /// Indices (into the input slice, ascending) that verified.
    pub valid: Vec<usize>,
    /// Indices that failed self-authentication, isolated by bisection.
    pub invalid: Vec<usize>,
}

impl BatchVerdict {
    /// Whether every entry verified.
    pub fn all_valid(&self) -> bool {
        self.invalid.is_empty()
    }

    /// Splits `0..n` around the ascending rejected indices, in one pass.
    fn from_invalid(n: usize, invalid: Vec<usize>) -> Self {
        let mut rejected = invalid.iter().peekable();
        let valid = (0..n)
            .filter(|&i| rejected.next_if_eq(&&i).is_none())
            .collect();
        Self { valid, invalid }
    }
}

/// A reusable batched verifier bound to one server key. It runs inline
/// on the calling thread: crypto-op counters are thread-local, so a
/// deterministic, fully-attributed trace needs the work there.
pub struct BatchVerifier<'c, const L: usize> {
    curve: &'c Curve<L>,
    server_pk: PreparedServerKey<L>,
}

impl<'c, const L: usize> BatchVerifier<'c, L> {
    /// A verifier for updates claiming to come from `server_pk`. The
    /// key is prepared once here (Miller coefficients for `sG` / `−G`),
    /// so every burst's batch lanes — and every bisection re-check on a
    /// poisoned burst — skip the pairing's point arithmetic.
    pub fn new(curve: &'c Curve<L>, server_pk: ServerPublicKey<L>) -> Self {
        Self {
            curve,
            server_pk: server_pk.prepare(curve),
        }
    }

    /// The curve every check runs on.
    pub(crate) fn curve(&self) -> &'c Curve<L> {
        self.curve
    }

    /// The prepared key every check runs against — what a verifier's
    /// [`PreparedServerKey::forecast`] must be built from.
    pub(crate) fn key(&self) -> &PreparedServerKey<L> {
        &self.server_pk
    }

    /// Verifies a burst of updates: one 2-pairing batch check when the
    /// burst is clean, bisection isolation when it is not, under a
    /// `client.batch_verify` span. The caller must have resolved
    /// duplicate/equivocating tags already; [`PreparedServerKey::admit`]
    /// is the path that does both.
    pub fn verify(&self, updates: &[KeyUpdate<L>]) -> BatchVerdict {
        let _span = tre_obs::span("client.batch_verify");
        let invalid = self.server_pk.verify_burst(self.curve, updates, None, 1);
        let verdict = BatchVerdict::from_invalid(updates.len(), invalid);
        if tre_obs::is_enabled() {
            tre_obs::event(
                "client.batch_verified",
                &format!("n={} invalid={}", updates.len(), verdict.invalid.len()),
            );
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_core::{ReleaseTag, ServerKeyPair};
    use tre_pairing::toy64;

    fn world(n: usize) -> (ServerKeyPair<8>, Vec<KeyUpdate<8>>) {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let updates = (0..n)
            .map(|i| server.issue_update(curve, &ReleaseTag::time(format!("epoch/s/{i}"))))
            .collect();
        (server, updates)
    }

    #[test]
    fn new_builds_no_fixed_base_table() {
        let curve = toy64();
        let (server, _) = world(0);
        let pk = *server.public();
        let h_s_g = curve.g1_mul(pk.s_g(), curve.cofactor_mod_q());
        tre_obs::enable();
        curve.g1_mul(pk.s_g(), curve.cofactor_mod_q());
        for p in [*pk.s_g(), h_s_g, curve.g1_neg(pk.g())] {
            curve.prepare(&p);
        }
        let eager = tre_obs::finish().total_ops().fp_muls;
        tre_obs::enable();
        let _verifier = BatchVerifier::new(curve, pk);
        let new = tre_obs::finish().total_ops().fp_muls;
        assert!(
            new <= eager,
            "BatchVerifier::new spent {new} fp muls; 3 preparations and 1 g1_mul cost {eager}"
        );
    }

    #[test]
    fn clean_burst_is_two_pairings() {
        let curve = toy64();
        let (server, updates) = world(32);
        let verifier = BatchVerifier::new(curve, *server.public());
        tre_obs::enable();
        let verdict = verifier.verify(&updates);
        let trace = tre_obs::finish();
        assert!(verdict.all_valid());
        assert_eq!(verdict.valid.len(), 32);
        assert_eq!(
            trace.spans_named("client.batch_verify")[0].ops.pairings,
            2,
            "32 updates, one batch, 2 pairing lanes"
        );
    }

    #[test]
    fn poisoned_burst_isolates_forgeries() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut updates) = world(16);
        for &i in &[2usize, 9] {
            updates[i] = KeyUpdate::from_parts(
                updates[i].tag().clone(),
                curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
            );
        }
        let verifier = BatchVerifier::new(curve, *server.public());
        let verdict = verifier.verify(&updates);
        assert_eq!(verdict.invalid, vec![2, 9]);
        assert_eq!(verdict.valid.len(), 14);
        assert!(!verdict.valid.contains(&2) && !verdict.valid.contains(&9));
    }

    #[test]
    fn forecast_hit_is_one_lane_and_verdict_is_split_in_order() {
        let curve = toy64();
        let (server, mut updates) = world(5);
        let verifier = BatchVerifier::new(curve, *server.public());
        let forecast = verifier.key().forecast(curve, updates[0].tag());
        tre_obs::enable();
        let hit = verifier.key().admit(
            curve,
            &updates[..1],
            |_| None::<KeyUpdate<8>>,
            |_| Some(forecast),
            1,
        );
        let trace = tre_obs::finish();
        assert_eq!(hit, [tre_core::Admission::Fresh]);
        assert_eq!(
            trace.spans_named("client.batch_verify")[0].ops.pairings,
            1,
            "a forecast hit is one pairing lane"
        );
        for i in [0usize, 3, 4] {
            updates[i] =
                KeyUpdate::from_parts(updates[i].tag().clone(), curve.g1_double(updates[i].sig()));
        }
        let verdict = verifier.verify(&updates);
        assert_eq!(verdict.invalid, vec![0, 3, 4]);
        assert_eq!(verdict.valid, vec![1, 2]);
    }

    #[test]
    fn empty_burst_is_trivially_valid() {
        let curve = toy64();
        let (server, _) = world(0);
        let verdict = BatchVerifier::new(curve, *server.public()).verify(&[]);
        assert!(verdict.all_valid());
        assert!(verdict.valid.is_empty());
    }
}
