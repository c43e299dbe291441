//! Multi-server failover: graceful k-of-N degradation.
//!
//! [`threshold::decrypt`] is deliberately strict — *any* invalid update in
//! the supplied slice is an error, because silently skipping a bad share
//! would hide a misbehaving server from the caller. That strictness is the
//! wrong default for a client riding out faults: with N = 3 and k = 2, one
//! crashed server and one Byzantine server should still decrypt as long as
//! two honest updates remain.
//!
//! This module adds the lenient path on top of the strict one: updates are
//! pre-validated per server, faulty ones are demoted to "missing" with an
//! explicit per-server verdict, and the sanitized set is handed to the
//! strict decryptor only if at least `k` valid updates survive. A
//! [`FailoverTracker`] accumulates the verdicts into per-server health
//! counters so a deployment can spot which of its N servers are flaky or
//! hostile.

use rand::RngCore;
use tre_bigint::U256;
use tre_hashes::{Digest, HmacDrbg, Sha256};
use tre_pairing::{Curve, G1Affine};

use crate::error::TreError;
use crate::keys::{KeyUpdate, PreparedServerKey, ServerPublicKey, UserKeyPair};
use crate::threshold::{self, ThresholdCiphertext};

/// Domain string seeding the derandomized per-verdict batching exponents.
const VERDICT_DRBG_DOMAIN: &[u8] = b"tre/failover-verdict/v1";

/// Why a server's update was excluded from a failover decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateFault {
    /// No update was supplied for this server (crashed / unreachable).
    Missing,
    /// The update is for a different release tag than the ciphertext's.
    TagMismatch,
    /// The update failed self-authentication against this server's key.
    BadSignature,
}

/// Per-server outcome of one failover decryption attempt: `None` means the
/// update was valid and usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerVerdict {
    /// Position in the server list.
    pub index: usize,
    /// The fault, if the update was unusable.
    pub fault: Option<UpdateFault>,
}

/// Validates `updates[i]` against `servers[i]` and the ciphertext tag,
/// returning the sanitized update set (faulty entries demoted to `None`)
/// and one verdict per server.
///
/// Signature checks are **batched**: every candidate update shares the
/// ciphertext's tag (mistagged ones were already demoted), hence the same
/// message point `H = H1(T)`, and bilinearity collapses the combined
/// small-exponent test
///
/// ```text
/// Π ê(s_i·G_i, H)^{e_i} · ê(−G_i, I_i)^{e_i} = 1
/// ```
///
/// into `N + 1` pairing lanes — one `(Σ e_i·s_iG_i, H)` lane plus one
/// `(−G_i, e_i·I_i)` lane per server — instead of the `2N` pairings of
/// per-server verification. Every per-server lane replays its key's
/// prepared `−G_i` coefficients (the exponent rides on the update, by
/// bilinearity), and the `Σ e_i·s_iG_i` lane accumulates through the
/// keys' cached fixed-base tables, so a client riding out faults epoch
/// after epoch prepares its N server keys once. On a batch failure a
/// bisection isolates the bad servers so the per-server verdicts stay
/// exact.
pub fn sanitize_updates<const L: usize>(
    curve: &Curve<L>,
    servers: &[PreparedServerKey<L>],
    ct: &ThresholdCiphertext<L>,
    updates: &[Option<KeyUpdate<L>>],
) -> (Vec<Option<KeyUpdate<L>>>, Vec<ServerVerdict>) {
    let _span = tre_obs::span("failover.sanitize");
    let mut faults = structural_faults(ct, updates);
    let candidates: Vec<usize> = faults
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.is_none().then_some(i))
        .collect();
    if !candidates.is_empty() {
        let h = curve.hash_to_g1(ct.tag().h1_domain(), ct.tag().value());
        let e = verdict_exponents(curve, servers, updates, &candidates);
        let bad = tre_pairing::bisect(candidates.len(), |range| {
            verdicts_hold(curve, servers, updates, &h, &e, &candidates[range])
        });
        for k in bad {
            faults[candidates[k]] = Some(UpdateFault::BadSignature);
        }
    }
    finalize_verdicts(updates, faults)
}

/// Phase 1 of sanitization: structural verdicts — no crypto.
fn structural_faults<const L: usize>(
    ct: &ThresholdCiphertext<L>,
    updates: &[Option<KeyUpdate<L>>],
) -> Vec<Option<UpdateFault>> {
    updates
        .iter()
        .map(|maybe| match maybe {
            None => Some(UpdateFault::Missing),
            Some(u) if u.tag() != ct.tag() => Some(UpdateFault::TagMismatch),
            Some(_) => None,
        })
        .collect()
}

/// Phase 3 of sanitization: fold the faults into the sanitized update
/// set and per-server verdicts (with trace events).
fn finalize_verdicts<const L: usize>(
    updates: &[Option<KeyUpdate<L>>],
    faults: Vec<Option<UpdateFault>>,
) -> (Vec<Option<KeyUpdate<L>>>, Vec<ServerVerdict>) {
    let mut sanitized = Vec::with_capacity(updates.len());
    let mut verdicts = Vec::with_capacity(updates.len());
    for (index, (maybe, fault)) in updates.iter().zip(faults).enumerate() {
        if tre_obs::is_enabled() {
            let verdict = match fault {
                None => "valid",
                Some(UpdateFault::Missing) => "missing",
                Some(UpdateFault::TagMismatch) => "tag_mismatch",
                Some(UpdateFault::BadSignature) => "bad_signature",
            };
            tre_obs::event("failover.verdict", &format!("server={index} {verdict}"));
        }
        sanitized.push(if fault.is_none() { maybe.clone() } else { None });
        verdicts.push(ServerVerdict { index, fault });
    }
    (sanitized, verdicts)
}

/// Derandomized 64-bit batching exponents, one per candidate server,
/// seeded by hashing the candidate keys and updates (exponents are fixed
/// only after the batch contents are committed). Indexed by server
/// position; non-candidate slots stay zero and are never read.
fn verdict_exponents<const L: usize>(
    curve: &Curve<L>,
    servers: &[PreparedServerKey<L>],
    updates: &[Option<KeyUpdate<L>>],
    candidates: &[usize],
) -> Vec<U256> {
    let mut h = Sha256::new();
    h.update(VERDICT_DRBG_DOMAIN);
    let mut buf = Vec::new();
    for &i in candidates {
        buf.clear();
        servers[i].key().write_body(curve, &mut buf);
        updates[i]
            .as_ref()
            .expect("candidate present")
            .write_body(curve, &mut buf);
        h.update(&buf);
    }
    let mut drbg = HmacDrbg::new(&h.finalize(), VERDICT_DRBG_DOMAIN);
    let mut e = vec![U256::ZERO; updates.len()];
    for &i in candidates {
        e[i] = U256::from_u64(drbg.next_u64().max(1));
    }
    e
}

/// The combined check over `idxs`: `N + 1` pairing lanes for `N`
/// servers (2 for a singleton). Per-server `(−G_i, e_i·I_i)` lanes
/// replay prepared coefficients, the `Σ e_i·s_iG_i` lane runs off the
/// cached `s_iG` tables, and one squaring chain plus one final
/// exponentiation is shared by all lanes.
fn verdicts_hold<const L: usize>(
    curve: &Curve<L>,
    servers: &[PreparedServerKey<L>],
    updates: &[Option<KeyUpdate<L>>],
    h: &G1Affine<L>,
    e: &[U256],
    idxs: &[usize],
) -> bool {
    if let [i] = idxs {
        let u = updates[*i].as_ref().expect("candidate present");
        let p = &servers[*i];
        return curve.bls_verify_one_prepared(p.neg_g_prep(), p.s_g_prep(curve), h, u.sig());
    }
    let mut lhs = G1Affine::infinity(curve.fp());
    let mut lanes = Vec::with_capacity(idxs.len());
    for &i in idxs {
        let u = updates[i].as_ref().expect("candidate present");
        let p = &servers[i];
        lhs = curve.g1_add(&lhs, &p.s_g_table(curve).mul(curve, &e[i]));
        lanes.push((p.neg_g_prep(), curve.g1_mul(u.sig(), &e[i])));
    }
    curve
        .multi_pairing_mixed(&lanes, &[(lhs, *h)])
        .is_one(curve)
}

/// Decrypts a threshold ciphertext while tolerating missing, mistagged,
/// and forged updates, as long as `k` valid ones remain — the degraded
/// mode of a k-of-N deployment with up to `N − k` servers down or hostile.
/// The server keys are prepared once by the caller (a long-lived k-of-N
/// client keeps them across epochs); see [`sanitize_updates`].
///
/// Returns the plaintext together with the per-server verdicts so callers
/// can feed a [`FailoverTracker`].
///
/// # Errors
/// * [`TreError::ArityMismatch`] if the update slice length is wrong, or
///   fewer than `k` updates survive validation (`expected` is `k`, `got`
///   the number of valid updates);
/// * [`TreError::DecryptionFailed`] on wrong receiver / mauled ciphertext.
pub fn decrypt_resilient<const L: usize>(
    curve: &Curve<L>,
    servers: &[PreparedServerKey<L>],
    user: &UserKeyPair<L>,
    updates: &[Option<KeyUpdate<L>>],
    ct: &ThresholdCiphertext<L>,
) -> Result<(Vec<u8>, Vec<ServerVerdict>), TreError> {
    let _span = tre_obs::span("failover.decrypt_resilient");
    if servers.len() != updates.len() {
        return Err(TreError::ArityMismatch {
            expected: servers.len(),
            got: updates.len(),
        });
    }
    let (sanitized, verdicts) = sanitize_updates(curve, servers, ct, updates);
    let valid = sanitized.iter().flatten().count();
    if valid < ct.threshold() as usize {
        return Err(TreError::ArityMismatch {
            expected: ct.threshold() as usize,
            got: valid,
        });
    }
    let keys: Vec<ServerPublicKey<L>> = servers.iter().map(|p| *p.key()).collect();
    let msg = threshold::decrypt(curve, &keys, user, &sanitized, ct)?;
    Ok((msg, verdicts))
}

/// Rolling health counters for one server in a k-of-N deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerHealth {
    /// Attempts where this server's update was valid and usable.
    pub valid: u64,
    /// Attempts where no update was available (down / unreachable).
    pub missing: u64,
    /// Updates for the wrong release tag.
    pub tag_mismatch: u64,
    /// Updates failing self-authentication (forged or corrupted).
    pub bad_signature: u64,
}

impl ServerHealth {
    /// Whether this server has ever produced provably bad material.
    /// Missing updates are an availability problem; bad signatures and
    /// mistagged updates are an integrity problem and mark the server
    /// suspect.
    pub fn is_suspect(&self) -> bool {
        self.tag_mismatch + self.bad_signature > 0
    }
}

/// Accumulates [`ServerVerdict`]s across decryption attempts into
/// per-server [`ServerHealth`] counters.
#[derive(Debug, Clone, Default)]
pub struct FailoverTracker {
    healths: Vec<ServerHealth>,
}

impl FailoverTracker {
    /// A tracker for `n` servers.
    pub fn new(n: usize) -> Self {
        Self {
            healths: vec![ServerHealth::default(); n],
        }
    }

    /// Folds one attempt's verdicts into the counters.
    pub fn record(&mut self, verdicts: &[ServerVerdict]) {
        for v in verdicts {
            if v.index >= self.healths.len() {
                self.healths.resize(v.index + 1, ServerHealth::default());
            }
            let h = &mut self.healths[v.index];
            match v.fault {
                None => h.valid += 1,
                Some(UpdateFault::Missing) => h.missing += 1,
                Some(UpdateFault::TagMismatch) => h.tag_mismatch += 1,
                Some(UpdateFault::BadSignature) => h.bad_signature += 1,
            }
        }
    }

    /// Per-server health counters.
    pub fn healths(&self) -> &[ServerHealth] {
        &self.healths
    }

    /// Indices of servers that have produced provably bad material.
    pub fn suspects(&self) -> Vec<usize> {
        self.healths
            .iter()
            .enumerate()
            .filter(|(_, h)| h.is_suspect())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ServerKeyPair;
    use crate::multi_server::MultiServerUserKey;
    use crate::tag::ReleaseTag;
    use tre_pairing::toy64;

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

    fn forged(curve: &Curve<8>, tag: &ReleaseTag) -> KeyUpdate<8> {
        let mut rng = rand::thread_rng();
        KeyUpdate::from_parts(
            tag.clone(),
            curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        )
    }

    fn prepare(pks: &[ServerPublicKey<8>]) -> Vec<PreparedServerKey<8>> {
        pks.iter().map(|pk| pk.prepare(toy64())).collect()
    }

    /// The oracle: per-server verdicts from the textbook `verify`.
    fn textbook_verdicts(
        pks: &[ServerPublicKey<8>],
        ct: &ThresholdCiphertext<8>,
        updates: &[Option<KeyUpdate<8>>],
    ) -> Vec<ServerVerdict> {
        let fault = |i: usize| match &updates[i] {
            None => Some(UpdateFault::Missing),
            Some(u) if u.tag() != ct.tag() => Some(UpdateFault::TagMismatch),
            Some(u) if !u.verify(toy64(), &pks[i]) => Some(UpdateFault::BadSignature),
            Some(_) => None,
        };
        (0..updates.len())
            .map(|index| ServerVerdict {
                index,
                fault: fault(index),
            })
            .collect()
    }

    #[test]
    fn tolerates_byzantine_server_where_strict_decrypt_fails() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, user, mpk) = world(3);
        let tag = ReleaseTag::time("t");
        let msg = b"two honest servers suffice";
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, msg, &mut rng).unwrap();
        let mut updates: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        updates[1] = Some(forged(curve, &tag));
        // The strict path refuses the set outright…
        assert_eq!(
            threshold::decrypt(curve, &pks, &user, &updates, &ct),
            Err(TreError::InvalidUpdate)
        );
        // …the failover path drops the bad share and decrypts.
        let (pt, verdicts) =
            decrypt_resilient(curve, &prepare(&pks), &user, &updates, &ct).unwrap();
        assert_eq!(pt, msg);
        assert_eq!(verdicts[0].fault, None);
        assert_eq!(verdicts[1].fault, Some(UpdateFault::BadSignature));
        assert_eq!(verdicts[2].fault, None);
    }

    #[test]
    fn degrades_across_all_n_minus_k_down_patterns() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, user, mpk) = world(4);
        let tag = ReleaseTag::time("t");
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let all: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        // Any 2 of the 4 servers down (crash or Byzantine) still decrypts.
        for down_a in 0..4 {
            for down_b in down_a + 1..4 {
                let mut faulty = all.clone();
                faulty[down_a] = None; // crashed
                faulty[down_b] = Some(forged(curve, &tag)); // hostile
                let (pt, _) =
                    decrypt_resilient(curve, &prepare(&pks), &user, &faulty, &ct).unwrap();
                assert_eq!(pt, b"m", "servers {down_a},{down_b} down");
            }
        }
    }

    #[test]
    fn below_threshold_reports_surviving_count() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, user, mpk) = world(3);
        let tag = ReleaseTag::time("t");
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let updates = vec![
            Some(servers[0].issue_update(curve, &tag)),
            Some(forged(curve, &tag)),
            None,
        ];
        assert_eq!(
            decrypt_resilient(curve, &prepare(&pks), &user, &updates, &ct),
            Err(TreError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn mistagged_update_demoted_not_fatal() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, user, mpk) = world(3);
        let tag = ReleaseTag::time("t");
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let mut updates: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        // Server 0 answers with an authentic update for the wrong epoch.
        updates[0] = Some(servers[0].issue_update(curve, &ReleaseTag::time("t+1")));
        let (pt, verdicts) =
            decrypt_resilient(curve, &prepare(&pks), &user, &updates, &ct).unwrap();
        assert_eq!(pt, b"m");
        assert_eq!(verdicts[0].fault, Some(UpdateFault::TagMismatch));
    }

    #[test]
    fn tracker_accumulates_and_flags_suspects() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, user, mpk) = world(4);
        let tag = ReleaseTag::time("t");
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let mut tracker = FailoverTracker::new(4);
        for round in 0..3 {
            let mut updates: Vec<_> = servers
                .iter()
                .map(|s| Some(s.issue_update(curve, &tag)))
                .collect();
            updates[2] = Some(forged(curve, &tag)); // server 2 hostile every round
            if round == 1 {
                updates[0] = None; // server 0 briefly down
            }
            let (_, verdicts) =
                decrypt_resilient(curve, &prepare(&pks), &user, &updates, &ct).unwrap();
            tracker.record(&verdicts);
        }
        let h = tracker.healths();
        assert_eq!(h[0].valid, 2);
        assert_eq!(h[0].missing, 1);
        assert!(!h[0].is_suspect(), "downtime alone is not suspicion");
        assert_eq!(h[1].valid, 3);
        assert_eq!(h[2].bad_signature, 3);
        assert_eq!(h[3].valid, 3);
        assert_eq!(tracker.suspects(), vec![2]);
    }

    #[test]
    fn batched_verdicts_cost_n_plus_one_pairings() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, _user, mpk) = world(4);
        let tag = ReleaseTag::time("t");
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let updates: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        tre_obs::enable();
        let (_, verdicts) = sanitize_updates(curve, &prepare(&pks), &ct, &updates);
        let trace = tre_obs::finish();
        assert!(verdicts.iter().all(|v| v.fault.is_none()));
        let span = &trace.spans_named("failover.sanitize")[0];
        assert_eq!(
            span.ops.pairings, 5,
            "all-valid verdicts for N=4 servers are one (N+1)-lane check"
        );
        assert!(span.ops.pairings < 2 * 4, "strictly below sequential 2N");
    }

    #[test]
    fn batched_verdicts_still_exact_under_mixed_faults() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, _user, mpk) = world(5);
        let tag = ReleaseTag::time("t");
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let mut updates: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        updates[0] = None;
        updates[2] = Some(forged(curve, &tag));
        updates[4] = Some(servers[4].issue_update(curve, &ReleaseTag::time("t+1")));
        let (sanitized, verdicts) = sanitize_updates(curve, &prepare(&pks), &ct, &updates);
        assert_eq!(verdicts[0].fault, Some(UpdateFault::Missing));
        assert_eq!(verdicts[1].fault, None);
        assert_eq!(verdicts[2].fault, Some(UpdateFault::BadSignature));
        assert_eq!(verdicts[3].fault, None);
        assert_eq!(verdicts[4].fault, Some(UpdateFault::TagMismatch));
        assert_eq!(sanitized.iter().flatten().count(), 2);
    }

    #[test]
    fn sanitize_matches_textbook_with_fewer_fp_muls() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, _user, mpk) = world(4);
        let tag = ReleaseTag::time("t");
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let updates: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        let prepared = prepare(&pks);
        // Per-key precomputation stays outside the measured span: the
        // `s_iG` tables are built on first read.
        for p in &prepared {
            p.s_g_table(curve);
        }

        tre_obs::enable();
        let textbook = textbook_verdicts(&pks, &ct, &updates);
        let generic = tre_obs::finish().total_ops();

        tre_obs::enable();
        let (sanitized, verdicts) = sanitize_updates(curve, &prepared, &ct, &updates);
        let trace = tre_obs::finish();
        let prep = trace.total_ops();

        assert_eq!(verdicts, textbook);
        assert_eq!(sanitized.iter().flatten().count(), 4);
        assert_eq!(
            trace.spans_named("failover.sanitize")[0].ops.pairings,
            5,
            "one (N+1)-lane check for N=4"
        );
        assert!(
            prep.fp_muls < generic.fp_muls,
            "sanitize ({}) must spend fewer base-field muls than per-server \
             textbook verification ({})",
            prep.fp_muls,
            generic.fp_muls
        );
    }

    #[test]
    fn resilient_decrypt_matches_textbook_under_mixed_faults() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (servers, pks, user, mpk) = world(5);
        let tag = ReleaseTag::time("t");
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        let honest: Vec<_> = servers
            .iter()
            .map(|s| Some(s.issue_update(curve, &tag)))
            .collect();
        let prepared = prepare(&pks);
        // Every fault kind at every server, plus one fixed mixed set.
        let mut sets = Vec::new();
        for i in 0..servers.len() {
            for fault in [
                None,
                Some(forged(curve, &tag)),
                Some(servers[i].issue_update(curve, &ReleaseTag::time("t+1"))),
                Some(servers[(i + 1) % 5].issue_update(curve, &tag)),
            ] {
                let mut set = honest.clone();
                set[i] = fault;
                sets.push(set);
            }
        }
        let mut mixed = honest.clone();
        mixed[0] = None;
        mixed[2] = Some(forged(curve, &tag));
        mixed[4] = Some(servers[4].issue_update(curve, &ReleaseTag::time("t+1")));
        sets.push(mixed);
        for updates in &sets {
            let (pt, verdicts) = decrypt_resilient(curve, &prepared, &user, updates, &ct).unwrap();
            assert_eq!(pt, b"m");
            assert_eq!(verdicts, textbook_verdicts(&pks, &ct, updates));
        }
        let verdicts = &textbook_verdicts(&pks, &ct, sets.last().unwrap());
        assert_eq!(verdicts[0].fault, Some(UpdateFault::Missing));
        assert_eq!(verdicts[2].fault, Some(UpdateFault::BadSignature));
        assert_eq!(verdicts[4].fault, Some(UpdateFault::TagMismatch));
    }

    #[test]
    fn length_mismatch_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (_, pks, user, mpk) = world(2);
        let tag = ReleaseTag::time("t");
        let ct = threshold::encrypt(curve, &pks, &mpk, 2, &tag, b"m", &mut rng).unwrap();
        assert!(matches!(
            decrypt_resilient(curve, &prepare(&pks), &user, &[None], &ct),
            Err(TreError::ArityMismatch { .. })
        ));
    }
}
