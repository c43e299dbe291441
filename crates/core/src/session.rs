//! Sender/receiver session types — the stateful front door to the basic
//! TRE scheme (§5.1).
//!
//! Two checks guard the scheme: that the receiver key is well formed (the
//! 2-pairing `ê(aG, sG) = ê(G, asG)` check) and that the key update is
//! authentic (the 2-pairing BLS check). [`Sender`] and [`Receiver`] make
//! both decisions *once* and carry them as state:
//!
//! * [`Sender`] owns a [`SenderPrecomp`] — the receiver key is validated
//!   at construction and every [`Sender::encrypt`] costs one table-driven
//!   `r·G` and one `G_T` power, plus a hash-to-curve and one pairing
//!   whenever the tag differs from the previous message's (memo miss);
//! * [`Receiver`] owns the user key pair and a verified-update cache, so
//!   whether an update is trusted is internal state: the first sighting
//!   of an update pays the 2-pairing verification and nothing more. The
//!   first open of a tag prepares its `I_T` (Miller coefficients) and
//!   every open, first or later, pays exactly one prepared pairing. A
//!   tag that is verified but never opened is never prepared.

use std::collections::HashMap;
use std::sync::OnceLock;

use rand::RngCore;
use tre_pairing::{Curve, MillerPrecomp};

use crate::admission::{screen, Admission};
use crate::error::TreError;
use crate::keys::{
    KeyUpdate, PreparedServerKey, SenderPrecomp, ServerPublicKey, UserKeyPair, UserPublicKey,
};
use crate::tag::ReleaseTag;
use crate::tre::{decrypt_trusted_prepared_impl, encrypt_with_impl, Ciphertext};

/// A sending session bound to one `(server, receiver)` pair.
///
/// Construction validates the receiver key (2 pairings) and builds the
/// sealing precomputation; each [`Sender::encrypt`] afterwards is
/// infallible and pays only the marginal per-message cost.
#[derive(Clone, Debug)]
pub struct Sender<'c, const L: usize> {
    curve: &'c Curve<L>,
    pre: SenderPrecomp<L>,
}

impl<'c, const L: usize> Sender<'c, L> {
    /// Opens a sending session: validates `user` against `server` once
    /// and precomputes the encryption tables.
    ///
    /// # Errors
    /// Returns [`TreError::InvalidUserKey`] if the receiver key fails
    /// the `ê(aG, sG) = ê(G, asG)` check.
    pub fn new(
        curve: &'c Curve<L>,
        server: &ServerPublicKey<L>,
        user: &UserPublicKey<L>,
    ) -> Result<Self, TreError> {
        Ok(Self {
            curve,
            pre: SenderPrecomp::new(curve, server, user)?,
        })
    }

    /// Wraps an existing precomputation (already validated).
    pub fn from_precomp(curve: &'c Curve<L>, pre: SenderPrecomp<L>) -> Self {
        Self { curve, pre }
    }

    /// The server key this session is bound to.
    pub fn server(&self) -> &ServerPublicKey<L> {
        self.pre.server()
    }

    /// The (validated) receiver key this session is bound to.
    pub fn user(&self) -> &UserPublicKey<L> {
        self.pre.user()
    }

    /// The underlying precomputation tables.
    pub fn precomp(&self) -> &SenderPrecomp<L> {
        &self.pre
    }

    /// Encrypts `msg` locked to `tag` (basic §5.1 scheme). Infallible:
    /// every failure mode was checked at session construction.
    pub fn encrypt(
        &self,
        tag: &ReleaseTag,
        msg: &[u8],
        rng: &mut (impl RngCore + ?Sized),
    ) -> Ciphertext<L> {
        encrypt_with_impl(self.curve, &self.pre, tag, msg, rng)
    }
}

/// A receiving session: the user key pair plus a cache of updates that
/// have already been verified against the server key.
///
/// The cache is what makes the old trusted/untrusted split internal:
/// [`Receiver::observe_update`] pays the 2-pairing verification on first
/// sighting (and detects equivocation on later ones), after which
/// [`Receiver::open`] decrypts with a single pairing and no caller-side
/// "is this update trusted?" judgement.
///
/// Who pays for preparation, and when: [`Receiver::new`] prepares the
/// server key's Miller coefficients (three preparations, no fixed-base
/// table). Verifying or admitting an update prepares nothing. The first
/// [`Receiver::open`] (or [`Receiver::open_bulk`]) of a tag prepares its
/// `I_T` once; later opens of that tag, from this session or from any
/// clone made after it, replay the preparation.
#[derive(Clone, Debug)]
pub struct Receiver<'c, const L: usize> {
    curve: &'c Curve<L>,
    server: PreparedServerKey<L>,
    keys: UserKeyPair<L>,
    /// Each verified update with the Miller coefficients of its
    /// signature `I_T`, built at the tag's first open. By Type-1
    /// symmetry `ê(U, I_T) = ê(I_T, U)`, so every open of an epoch
    /// replays them against the ciphertext's fresh `U`.
    verified: HashMap<ReleaseTag, (KeyUpdate<L>, OnceLock<MillerPrecomp<L>>)>,
}

impl<'c, const L: usize> Receiver<'c, L> {
    /// Opens a receiving session for an existing key pair bound to
    /// `server`. The server key is prepared once here (Miller
    /// coefficients for `sG`, `(h mod q)·sG` and `−G`), so every later
    /// update verification skips its Miller-loop point arithmetic.
    pub fn new(curve: &'c Curve<L>, server: ServerPublicKey<L>, keys: UserKeyPair<L>) -> Self {
        Self {
            curve,
            server: server.prepare(curve),
            keys,
            verified: HashMap::new(),
        }
    }

    /// Generates a fresh user key pair bound to `server` and opens a
    /// session for it.
    pub fn generate(
        curve: &'c Curve<L>,
        server: ServerPublicKey<L>,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Self {
        let keys = UserKeyPair::generate(curve, &server, rng);
        Self::new(curve, server, keys)
    }

    /// The public key senders encrypt to.
    pub fn public_key(&self) -> &UserPublicKey<L> {
        self.keys.public()
    }

    /// The full user key pair (e.g. to persist it).
    pub fn key_pair(&self) -> &UserKeyPair<L> {
        &self.keys
    }

    /// The server key updates are verified against.
    pub fn server(&self) -> &ServerPublicKey<L> {
        self.server.key()
    }

    /// The prepared form of the server key (e.g. to share with a
    /// batched verifier front-end instead of re-preparing).
    pub fn prepared_server(&self) -> &PreparedServerKey<L> {
        &self.server
    }

    /// The verified update cached for `tag`, if any.
    pub fn cached_update(&self, tag: &ReleaseTag) -> Option<&KeyUpdate<L>> {
        self.verified.get(tag).map(|(update, _)| update)
    }

    /// Number of verified updates held in the cache.
    pub fn cached_updates(&self) -> usize {
        self.verified.len()
    }

    /// Ingests a key update from an untrusted source: admits it as a
    /// burst of one (see [`Receiver::observe_burst`]) and caches it. The
    /// update's `I_T` is prepared later, at the tag's first open.
    ///
    /// Returns `Ok(true)` if the update was fresh and admitted,
    /// `Ok(false)` if a byte-identical update was already cached (the
    /// verification is skipped).
    ///
    /// # Errors
    /// * [`TreError::Equivocation`] if a *different* update is cached
    ///   for the same tag — honest updates are deterministic, so this is
    ///   evidence of a Byzantine server or an active attacker;
    /// * [`TreError::InvalidUpdate`] if self-authentication fails (the
    ///   update is not cached).
    pub fn observe_update(&mut self, update: KeyUpdate<L>) -> Result<bool, TreError> {
        let verdict = self.admit(std::slice::from_ref(&update), 1)[0];
        self.settle(update, verdict)
    }

    /// Admits a burst of untrusted key updates against this session's
    /// cache ([`PreparedServerKey::admit`], `threads` hash-to-curve
    /// workers, `0` = auto), caches the `Fresh` ones unprepared, and
    /// returns one verdict per update in input order.
    pub fn observe_burst(&mut self, burst: &[KeyUpdate<L>], threads: usize) -> Vec<Admission> {
        let verdicts = self.admit(burst, threads);
        for (update, &verdict) in burst.iter().zip(&verdicts) {
            if verdict == Admission::Fresh {
                self.verified
                    .insert(update.tag().clone(), (update.clone(), OnceLock::new()));
            }
        }
        verdicts
    }

    /// Caches an update that was **already verified** out of band —
    /// e.g. by the small-exponent batch test, where per-update
    /// re-verification would defeat the 2-pairings-per-batch economics.
    /// Only the byte screen of the admission rule runs; no pairings.
    ///
    /// Correctness contract: `update` must have passed
    /// [`PreparedServerKey::verify_burst`] (or the textbook
    /// [`KeyUpdate::verify`]) against this session's server key.
    ///
    /// # Errors
    /// Returns [`TreError::Equivocation`] if a different update is
    /// already cached for the same tag.
    pub fn admit_verified(&mut self, update: KeyUpdate<L>) -> Result<bool, TreError> {
        let (verdicts, _) = screen(std::slice::from_ref(&update), |_| {
            self.cached_update(update.tag())
        });
        self.settle(update, verdicts[0])
    }

    /// The admission rule's verdicts on `burst` against this session's
    /// cache.
    fn admit(&self, burst: &[KeyUpdate<L>], threads: usize) -> Vec<Admission> {
        let known = |i: usize| self.cached_update(burst[i].tag());
        self.server
            .admit(self.curve, burst, known, |_| None, threads)
    }

    /// Caches a `Fresh` update, unprepared, and reports `verdict` the way
    /// [`Receiver::observe_update`] does.
    fn settle(&mut self, update: KeyUpdate<L>, verdict: Admission) -> Result<bool, TreError> {
        match verdict {
            Admission::Fresh => {
                self.verified
                    .insert(update.tag().clone(), (update, OnceLock::new()));
                Ok(true)
            }
            Admission::Duplicate => Ok(false),
            Admission::Equivocation => Err(TreError::Equivocation),
            Admission::Invalid => Err(TreError::InvalidUpdate),
        }
    }

    /// The prepared `I_T` for `tag`, prepared here on the tag's first
    /// open.
    fn prepared_sig(&self, tag: &ReleaseTag) -> Result<&MillerPrecomp<L>, TreError> {
        let (update, prep) = self.verified.get(tag).ok_or(TreError::MissingUpdate)?;
        Ok(prep.get_or_init(|| self.curve.prepare(update.sig())))
    }

    /// Opens a ciphertext against the verified-update cache: one prepared
    /// pairing, no re-verification. The tag's first open also prepares
    /// its `I_T`.
    ///
    /// # Errors
    /// Returns [`TreError::MissingUpdate`] if no verified update for the
    /// ciphertext's tag has been observed — the release instant has not
    /// arrived (or its broadcast was missed).
    pub fn open(&self, ct: &Ciphertext<L>) -> Result<Vec<u8>, TreError> {
        let prep = self.prepared_sig(ct.tag())?;
        Ok(decrypt_trusted_prepared_impl(
            self.curve, &self.keys, prep, ct,
        ))
    }

    /// Convenience path for callers holding the update and the
    /// ciphertext together: verifies/caches the update (first sighting
    /// only), then opens.
    ///
    /// # Errors
    /// Any [`Receiver::observe_update`] error, plus
    /// [`TreError::UpdateTagMismatch`] if `update` is for a different
    /// tag than the ciphertext.
    pub fn open_with(
        &mut self,
        update: &KeyUpdate<L>,
        ct: &Ciphertext<L>,
    ) -> Result<Vec<u8>, TreError> {
        if update.tag() != ct.tag() {
            return Err(TreError::UpdateTagMismatch);
        }
        self.observe_update(update.clone())?;
        self.open(ct)
    }

    /// Opens many ciphertexts locked to the **same tag**: the update is
    /// verified once through the cache and its `I_T` prepared once, then
    /// the per-ciphertext work (one prepared pairing each) fans out over
    /// `threads` workers (`0` = auto, `1` = inline). Results are in input
    /// order for any thread count.
    ///
    /// # Errors
    /// Any [`Receiver::observe_update`] error, plus
    /// [`TreError::UpdateTagMismatch`] if any ciphertext is for a
    /// different tag (checked before decryption work starts).
    pub fn open_bulk(
        &mut self,
        update: &KeyUpdate<L>,
        cts: &[Ciphertext<L>],
        threads: usize,
    ) -> Result<Vec<Vec<u8>>, TreError> {
        let _span = tre_obs::span("tre.decrypt_bulk");
        self.observe_update(update.clone())?;
        if cts.iter().any(|ct| ct.tag() != update.tag()) {
            return Err(TreError::UpdateTagMismatch);
        }
        let prep = self.prepared_sig(update.tag())?;
        let keys = &self.keys;
        let curve = self.curve;
        Ok(tre_par::par_map(cts, threads, |ct| {
            decrypt_trusted_prepared_impl(curve, keys, prep, ct)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ServerKeyPair;
    use std::collections::HashMap;
    use tre_obs::CryptoOps;
    use tre_pairing::toy64;

    fn world() -> (ServerKeyPair<8>, Receiver<'static, 8>) {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let receiver = Receiver::generate(curve, *server.public(), &mut rng);
        (server, receiver)
    }

    #[test]
    fn session_roundtrip() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tag = ReleaseTag::time("2026-08-06T00:00Z");
        let ct = sender.encrypt(&tag, b"sealed until midnight", &mut rng);

        // Before the update arrives the ciphertext stays sealed.
        assert_eq!(receiver.open(&ct), Err(TreError::MissingUpdate));

        let update = server.issue_update(curve, &tag);
        assert!(receiver.observe_update(update).unwrap());
        assert_eq!(receiver.open(&ct).unwrap(), b"sealed until midnight");
    }

    #[test]
    fn open_is_one_pairing_after_observe() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tag = ReleaseTag::time("t");
        let ct = sender.encrypt(&tag, b"m", &mut rng);
        receiver
            .observe_update(server.issue_update(curve, &tag))
            .unwrap();
        tre_obs::enable();
        receiver.open(&ct).unwrap();
        let trace = tre_obs::finish();
        assert_eq!(trace.spans_named("tre.decrypt_trusted")[0].ops.pairings, 1);
    }

    #[test]
    fn duplicate_and_equivocating_updates() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let tag = ReleaseTag::time("t");
        let update = server.issue_update(curve, &tag);
        assert!(receiver.observe_update(update.clone()).unwrap());
        assert!(!receiver.observe_update(update.clone()).unwrap());
        assert_eq!(receiver.cached_updates(), 1);
        let conflicting = KeyUpdate::from_parts(
            tag.clone(),
            curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        );
        assert_eq!(
            receiver.observe_update(conflicting.clone()),
            Err(TreError::Equivocation)
        );
        assert_eq!(
            receiver.admit_verified(conflicting),
            Err(TreError::Equivocation)
        );
        // The original verified update survives the attack.
        assert_eq!(receiver.cached_update(&tag), Some(&update));
    }

    #[test]
    fn forged_update_rejected_and_not_cached() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (_server, mut receiver) = world();
        let tag = ReleaseTag::time("t");
        let forged = KeyUpdate::from_parts(
            tag.clone(),
            curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        );
        assert_eq!(
            receiver.observe_update(forged),
            Err(TreError::InvalidUpdate)
        );
        assert!(receiver.cached_update(&tag).is_none());
    }

    /// An update signed with a random scalar: it fails verification.
    fn forged(tag: &ReleaseTag) -> KeyUpdate<8> {
        let curve = toy64();
        let sig = curve.g1_mul(
            &curve.generator(),
            &curve.random_scalar(&mut rand::thread_rng()),
        );
        KeyUpdate::from_parts(tag.clone(), sig)
    }

    /// The admission rule restated from its definition: a known tag is
    /// judged by byte equality; an unknown tag seen with two different
    /// byte strings in the burst is an equivocation; otherwise the
    /// textbook verify decides, and only the first valid copy is fresh.
    fn oracle(
        server: &ServerPublicKey<8>,
        known: &HashMap<ReleaseTag, KeyUpdate<8>>,
        burst: &[KeyUpdate<8>],
    ) -> Vec<Admission> {
        let curve = toy64();
        let mut seen = Vec::new();
        burst
            .iter()
            .map(|u| match known.get(u.tag()) {
                Some(k) if k == u => Admission::Duplicate,
                Some(_) => Admission::Equivocation,
                None if burst.iter().any(|v| v.tag() == u.tag() && v != u) => {
                    Admission::Equivocation
                }
                None if !u.verify(curve, server) => Admission::Invalid,
                None if seen.contains(&u.tag()) => Admission::Duplicate,
                None => {
                    seen.push(u.tag());
                    Admission::Fresh
                }
            })
            .collect()
    }

    #[test]
    fn observe_burst_matches_the_oracle_at_every_position() {
        let curve = toy64();
        let (server, base) = world();
        let t = |name: &str| ReleaseTag::time(name);
        let honest = |name: &str| server.issue_update(curve, &t(name));
        // One or two burst entries per kind.
        let kinds: Vec<Vec<KeyUpdate<8>>> = vec![
            vec![honest("fresh")],
            vec![honest("cached")],
            vec![forged(&t("cached-conflict"))],
            vec![honest("in-burst-duplicate"), honest("in-burst-duplicate")],
            vec![
                honest("in-burst-conflict"),
                forged(&t("in-burst-conflict")),
                honest("in-burst-conflict"),
            ],
            vec![forged(&t("forged"))],
            vec![forged(&t("forged-twice")); 2],
        ];
        let mut known = HashMap::new();
        for name in ["cached", "cached-conflict"] {
            known.insert(t(name), honest(name));
        }
        let entries: Vec<KeyUpdate<8>> = kinds.into_iter().flatten().collect();
        for reversed in [false, true] {
            for shift in 0..entries.len() {
                let mut burst = entries.clone();
                if reversed {
                    burst.reverse();
                }
                burst.rotate_left(shift);
                let mut receiver = base.clone();
                for update in known.values() {
                    receiver.observe_update(update.clone()).unwrap();
                }
                let want = oracle(server.public(), &known, &burst);
                assert_eq!(
                    receiver.observe_burst(&burst, 1),
                    want,
                    "reversed={reversed} shift={shift}"
                );
                // Exactly the fresh updates joined the cache.
                let mut cached = known.clone();
                for (u, v) in burst.iter().zip(&want) {
                    if *v == Admission::Fresh {
                        cached.insert(u.tag().clone(), u.clone());
                    }
                }
                assert_eq!(receiver.cached_updates(), cached.len());
                for (tag, update) in &cached {
                    assert_eq!(receiver.cached_update(tag), Some(update));
                }
            }
        }
    }

    #[test]
    fn open_with_verifies_then_caches() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tag = ReleaseTag::time("t");
        let ct = sender.encrypt(&tag, b"m", &mut rng);
        let update = server.issue_update(curve, &tag);
        assert_eq!(receiver.open_with(&update, &ct).unwrap(), b"m");
        // Cached now: plain open works without re-presenting the update.
        assert_eq!(receiver.open(&ct).unwrap(), b"m");
        // Mismatched update refused before any verification.
        let other = server.issue_update(curve, &ReleaseTag::time("u"));
        assert_eq!(
            receiver.open_with(&other, &ct),
            Err(TreError::UpdateTagMismatch)
        );
    }

    #[test]
    fn open_bulk_matches_individual_opens() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tag = ReleaseTag::time("t");
        let msgs: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; i as usize + 1]).collect();
        let cts: Vec<_> = msgs
            .iter()
            .map(|m| sender.encrypt(&tag, m, &mut rng))
            .collect();
        let update = server.issue_update(curve, &tag);
        for threads in [0usize, 1, 3] {
            let mut fresh = Receiver::new(curve, *server.public(), receiver.key_pair().clone());
            assert_eq!(
                fresh.open_bulk(&update, &cts, threads).unwrap(),
                msgs,
                "threads={threads}"
            );
        }
        // A mistagged ciphertext aborts the whole batch.
        let stray = sender.encrypt(&ReleaseTag::time("u"), b"x", &mut rng);
        let mut mixed = cts.clone();
        mixed.push(stray);
        assert_eq!(
            receiver.open_bulk(&update, &mixed, 1),
            Err(TreError::UpdateTagMismatch)
        );
    }

    /// `f`'s result and the crypto ops it ran on this thread.
    fn ops<R>(f: impl FnOnce() -> R) -> (R, CryptoOps) {
        tre_obs::enable();
        let r = f();
        (r, tre_obs::finish().total_ops())
    }

    /// The sum of two op counts.
    fn plus(mut a: CryptoOps, b: &CryptoOps) -> CryptoOps {
        a.absorb(b);
        a
    }

    /// Whether the session has prepared `tag`'s `I_T`.
    fn is_prepared(receiver: &Receiver<'_, 8>, tag: &ReleaseTag) -> bool {
        receiver.verified[tag].1.get().is_some()
    }

    #[test]
    fn verifying_and_admitting_prepare_nothing() {
        let curve = toy64();
        let (server, mut receiver) = world();
        let tag = ReleaseTag::time("t");
        let update = server.issue_update(curve, &tag);
        let (_, burst) = ops(|| {
            receiver
                .prepared_server()
                .verify_burst(curve, std::slice::from_ref(&update), None, 1)
        });
        let (fresh, observed) = ops(|| receiver.observe_update(update.clone()).unwrap());
        assert!(fresh);
        assert_eq!(observed, burst, "observe_update costs one verify_burst");
        let (fresh, again) = ops(|| receiver.observe_update(update.clone()).unwrap());
        assert!(!fresh);
        assert_eq!(again, CryptoOps::default(), "a duplicate costs nothing");
        assert!(!is_prepared(&receiver, &tag));

        let mut other = Receiver::new(curve, *server.public(), receiver.key_pair().clone());
        let (fresh, admitted) = ops(|| other.admit_verified(update.clone()).unwrap());
        assert!(fresh);
        assert_eq!(admitted, CryptoOps::default(), "admission costs nothing");
        assert!(!is_prepared(&other, &tag));
    }

    #[test]
    fn unopened_tag_is_never_prepared() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let (opened, idle) = (ReleaseTag::time("opened"), ReleaseTag::time("idle"));
        for tag in [&opened, &idle] {
            receiver
                .observe_update(server.issue_update(curve, tag))
                .unwrap();
        }
        let ct = sender.encrypt(&opened, b"m", &mut rng);
        assert_eq!(receiver.open(&ct).unwrap(), b"m");
        assert!(is_prepared(&receiver, &opened));
        assert!(!is_prepared(&receiver, &idle));
    }

    #[test]
    fn first_open_prepares_and_later_opens_replay() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tag = ReleaseTag::time("t");
        let update = server.issue_update(curve, &tag);
        let cts: Vec<_> = (0..4u8)
            .map(|i| sender.encrypt(&tag, &[i], &mut rng))
            .collect();
        receiver.observe_update(update.clone()).unwrap();

        let (prep, preparation) = ops(|| curve.prepare(update.sig()));
        for (i, ct) in cts.iter().enumerate() {
            let (_, pairing) =
                ops(|| decrypt_trusted_prepared_impl(curve, receiver.key_pair(), &prep, ct));
            assert_eq!(pairing.pairings, 1);
            let (pt, open) = ops(|| receiver.open(ct).unwrap());
            assert_eq!(pt, [i as u8]);
            let want = if i == 0 {
                plus(preparation, &pairing)
            } else {
                pairing
            };
            assert_eq!(open, want, "open #{}", i + 1);
        }
    }

    #[test]
    fn open_bulk_prepares_once_before_fanning_out() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tag = ReleaseTag::time("t");
        let update = server.issue_update(curve, &tag);
        let cts: Vec<_> = (0..16u8)
            .map(|i| sender.encrypt(&tag, &[i], &mut rng))
            .collect();
        let prep = curve.prepare(update.sig());
        let (_, preparation) = ops(|| curve.prepare(update.sig()));
        let (_, all_opens) = ops(|| {
            for ct in &cts {
                decrypt_trusted_prepared_impl(curve, receiver.key_pair(), &prep, ct);
            }
        });
        for threads in [1usize, 4] {
            let mut fresh = Receiver::new(curve, *server.public(), receiver.key_pair().clone());
            fresh.observe_update(update.clone()).unwrap();
            let (pts, bulk) = ops(|| fresh.open_bulk(&update, &cts, threads).unwrap());
            assert!(pts.iter().zip(0u8..).all(|(pt, i)| pt == &[i]));
            // Op counters are per thread: the calling thread pays the one
            // preparation, plus every open when the map runs inline.
            let inline = plus(preparation, &all_opens);
            assert!(
                bulk == inline || (threads > 1 && bulk == preparation),
                "threads={threads}: {bulk:?}"
            );
        }
    }

    #[test]
    fn new_session_builds_no_fixed_base_table() {
        let curve = toy64();
        let (server, receiver) = world();
        let pk = *server.public();
        let h_s_g = curve.g1_mul(pk.s_g(), curve.cofactor_mod_q());
        let (_, eager) = ops(|| {
            curve.g1_mul(pk.s_g(), curve.cofactor_mod_q());
            for p in [*pk.s_g(), h_s_g, curve.g1_neg(pk.g())] {
                curve.prepare(&p);
            }
        });
        let (_, new) = ops(|| Receiver::new(curve, pk, receiver.key_pair().clone()));
        assert!(
            new.fp_muls <= eager.fp_muls,
            "Receiver::new spent {} fp muls; 3 preparations and 1 g1_mul cost {}",
            new.fp_muls,
            eager.fp_muls
        );
    }

    #[test]
    fn clones_open_before_and_after_the_original_prepares() {
        fn shareable<T: Clone + Send + Sync>() {}
        shareable::<Receiver<'static, 8>>();
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tag = ReleaseTag::time("t");
        let ct = sender.encrypt(&tag, b"m", &mut rng);
        receiver
            .observe_update(server.issue_update(curve, &tag))
            .unwrap();
        let early = receiver.clone();
        assert_eq!(early.open(&ct).unwrap(), b"m");
        assert!(!is_prepared(&receiver, &tag), "clones prepare apart");
        assert_eq!(receiver.open(&ct).unwrap(), b"m");
        let late = receiver.clone();
        assert!(is_prepared(&late, &tag), "a clone keeps the preparation");
        assert_eq!(late.open(&ct).unwrap(), b"m");
    }

    /// The textbook §5.1 decryption `V ⊕ H2(ê(U, I_T)^a)` with the
    /// generic pairing.
    fn textbook_decrypt(
        user: &UserKeyPair<8>,
        update: &KeyUpdate<8>,
        ct: &Ciphertext<8>,
    ) -> Vec<u8> {
        let curve = toy64();
        let k = crate::tre::receiver_key(curve, &ct.u, update, user.secret_scalar());
        let mask = curve.gt_kdf(&k, crate::tre::MASK_DOMAIN, ct.v.len());
        ct.v.iter().zip(&mask).map(|(c, k)| c ^ k).collect()
    }

    #[test]
    fn open_runs_prepared_and_beats_generic_decrypt() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tag = ReleaseTag::time("t");
        let ct = sender.encrypt(&tag, b"m", &mut rng);
        let update = server.issue_update(curve, &tag);
        receiver.observe_update(update.clone()).unwrap();
        // The first open prepares `I_T`; the measured one is cached.
        receiver.open(&ct).unwrap();

        tre_obs::enable();
        let via_open = receiver.open(&ct).unwrap();
        let prep_ops = tre_obs::finish().total_ops();

        tre_obs::enable();
        let via_textbook = textbook_decrypt(receiver.key_pair(), &update, &ct);
        let generic_ops = tre_obs::finish().total_ops();

        assert_eq!(via_open, via_textbook);
        assert_eq!(prep_ops.pairings, generic_ops.pairings);
        assert!(
            prep_ops.fp_muls < generic_ops.fp_muls,
            "cached-prepared open ({}) must spend fewer base-field muls than \
             the generic textbook decrypt ({})",
            prep_ops.fp_muls,
            generic_ops.fp_muls
        );
    }

    #[test]
    fn encrypt_memoizes_tag_hash_and_preparation() {
        let curve = toy64();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tag = ReleaseTag::time("epoch-42");
        let seal = |tag: &ReleaseTag, msg: &[u8]| {
            tre_obs::enable();
            let ct = sender.encrypt(tag, msg, &mut rand::thread_rng());
            (ct, tre_obs::finish().total_ops())
        };

        let (ct1, first) = seal(&tag, b"first");
        let (ct2, repeat) = seal(&tag, b"second");

        assert!(first.h2c_iters >= 1, "first sighting hashes the tag");
        assert_eq!(first.pairings, 1, "a memo miss pays exactly one pairing");
        assert_eq!(repeat.h2c_iters, 0, "repeat encryptions serve the memo");
        assert_eq!(repeat.pairings, 0, "a memo hit pays no pairing");
        assert!(
            repeat.fp_muls < first.fp_muls,
            "memoized tag must cut the per-message base-field work \
             ({} vs {})",
            repeat.fp_muls,
            first.fp_muls
        );

        // Switching tags refreshes the single-entry memo; all decrypt.
        let other = ReleaseTag::time("epoch-43");
        let (ct3, switched) = seal(&other, b"third");
        assert!(switched.h2c_iters >= 1, "a new tag is hashed");
        assert_eq!(switched.pairings, 1, "a new tag pays exactly one pairing");
        receiver
            .observe_update(server.issue_update(curve, &tag))
            .unwrap();
        receiver
            .observe_update(server.issue_update(curve, &other))
            .unwrap();
        assert_eq!(receiver.open(&ct1).unwrap(), b"first");
        assert_eq!(receiver.open(&ct2).unwrap(), b"second");
        assert_eq!(receiver.open(&ct3).unwrap(), b"third");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// Over tag sequences with repeats and switches, every memoized
        /// seal equals the textbook `⟨r·G, M ⊕ H2(ê(r·asG, H1(T)))⟩`
        /// computed with generic scalar muls and pairings from the same `r`.
        #[test]
        fn encrypt_matches_generic_reference(
            tag_ids in proptest::collection::vec(0u8..3, 1..10),
            seed in proptest::any::<[u8; 16]>(),
            msg in proptest::collection::vec(proptest::any::<u8>(), 0..48),
        ) {
            let curve = toy64();
            let (server, receiver) = world();
            let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
            let mut rng = tre_hashes::HmacDrbg::new(&seed, b"seal");
            let mut reference_rng = rng.clone();
            for id in tag_ids {
                let tag = ReleaseTag::time(format!("epoch-{id}"));
                let ct = sender.encrypt(&tag, &msg, &mut rng);
                let r = curve.random_scalar(&mut reference_rng);
                let k = curve.pairing(
                    &curve.g1_mul(receiver.public_key().a_s_g(), &r),
                    &curve.hash_to_g1(tag.h1_domain(), tag.value()),
                );
                let mask = curve.gt_kdf(&k, crate::tre::MASK_DOMAIN, msg.len());
                let reference = Ciphertext {
                    u: curve.g1_mul(server.public().g(), &r),
                    v: msg.iter().zip(&mask).map(|(m, k)| m ^ k).collect(),
                    tag,
                };
                proptest::prop_assert_eq!(ct, reference);
            }
        }
    }

    #[test]
    fn shared_sender_seals_alternating_tags_from_two_threads() {
        let curve = toy64();
        let (server, mut receiver) = world();
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let tags = [ReleaseTag::time("even"), ReleaseTag::time("odd")];
        // The workers seal in lockstep, each round to opposite tags, so
        // the shared single-entry memo is replaced under contention.
        let round = std::sync::Barrier::new(2);
        let sealed: Vec<(Vec<u8>, Ciphertext<8>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2u8)
                .map(|w| {
                    let (sender, tags, round) = (&sender, &tags, &round);
                    scope.spawn(move || {
                        let mut rng = rand::thread_rng();
                        (0..8u8)
                            .map(|i| {
                                let msg = vec![w, i];
                                let tag = &tags[usize::from((w + i) % 2)];
                                round.wait();
                                (msg.clone(), sender.encrypt(tag, &msg, &mut rng))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        for tag in &tags {
            receiver
                .observe_update(server.issue_update(curve, tag))
                .unwrap();
        }
        for (msg, ct) in &sealed {
            assert_eq!(&receiver.open(ct).unwrap(), msg);
        }
    }

    #[test]
    fn session_interoperates_with_free_functions() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (server, mut receiver) = world();
        let tag = ReleaseTag::time("t");
        // Ciphertexts from a hub's shared-server precomputation open
        // through the session…
        let hub = SenderPrecomp::with_server(
            curve,
            &server.public().prepare(curve),
            receiver.public_key(),
        )
        .unwrap();
        let ct = Sender::from_precomp(curve, hub).encrypt(&tag, b"hub", &mut rng);
        let update = server.issue_update(curve, &tag);
        assert_eq!(receiver.open_with(&update, &ct).unwrap(), b"hub");
        // …and session ciphertexts open under the textbook formula.
        let sender = Sender::new(curve, server.public(), receiver.public_key()).unwrap();
        let ct2 = sender.encrypt(&tag, b"session", &mut rng);
        assert_eq!(
            textbook_decrypt(receiver.key_pair(), &update, &ct2),
            b"session"
        );
    }
}
