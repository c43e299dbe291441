//! Batched update verification for the client hot path.
//!
//! A receiver that falls behind — or sits on a bursty broadcast channel —
//! holds N pending key updates against one server key. Verifying them one
//! by one costs 2 pairings each; the small-exponent batch test in
//! `tre-core` costs 2 pairings per *batch*, with a bisection fall-back
//! that still names the individual forgeries when a burst is poisoned.
//! [`BatchVerifier`] is the client-side front-end: it owns the thread
//! budget for the parallel hash-to-curve fan-out, attributes the pairing
//! cost to a `client.batch_verify` span, and reports exactly which
//! positions survived.

use tre_core::{KeyUpdate, PreparedServerKey, ServerPublicKey, VerifyForecast};
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

/// A reusable batched verifier bound to one server key.
///
/// `threads` controls the worker fan-out for the per-update
/// hash-to-curve step (`0` = auto-detect, `1` = fully inline). The
/// default is `1`: crypto-op counters are thread-local, so a
/// deterministic, fully-attributed trace needs the work on the calling
/// thread; bump it only for throughput runs where the trace totals may
/// undercount worker-side ops.
pub struct BatchVerifier<'c, const L: usize> {
    curve: &'c Curve<L>,
    server_pk: PreparedServerKey<L>,
    threads: usize,
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
            threads: 1,
        }
    }

    /// Overrides the hash-to-curve worker count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
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
    /// burst is clean, bisection isolation when it is not. The caller
    /// must have resolved duplicate/equivocating tags already (the
    /// client runtime does this by byte comparison before batching).
    pub fn verify(&self, updates: &[KeyUpdate<L>]) -> BatchVerdict {
        verify_burst(self.curve, &self.server_pk, updates, None, self.threads)
    }
}

/// The one burst check behind [`BatchVerifier::verify`], a relay's
/// admission and a [`crate::ReceiverClient`]'s burst drain (which
/// verifies off its session's prepared key instead of preparing a
/// second copy): [`PreparedServerKey::verify_burst`] under a
/// `client.batch_verify` span. A one-update burst whose tag was
/// forecast under `key` costs one pairing lane.
pub(crate) fn verify_burst<const L: usize>(
    curve: &Curve<L>,
    key: &PreparedServerKey<L>,
    updates: &[KeyUpdate<L>],
    forecast: Option<&VerifyForecast<L>>,
    threads: usize,
) -> BatchVerdict {
    let _span = tre_obs::span("client.batch_verify");
    let invalid = key.verify_burst(curve, updates, forecast, threads);
    let verdict = BatchVerdict::from_invalid(updates.len(), invalid);
    if tre_obs::is_enabled() {
        tre_obs::event(
            "client.batch_verified",
            &format!("n={} invalid={}", updates.len(), verdict.invalid.len()),
        );
    }
    verdict
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
        let hit = verify_burst(curve, verifier.key(), &updates[..1], Some(&forecast), 1);
        let trace = tre_obs::finish();
        assert!(hit.all_valid());
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
