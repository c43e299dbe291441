//! §5.3.5 as a *live* threshold committee: dealer-based Shamir setup of
//! the master secret, per-member key-update shares, pairing-wise share
//! verification against public commitments, and exponent-Lagrange
//! aggregation back to the full update `I_T = s·H1(T)`.
//!
//! A dealer picks the committee generator `G` and master secret `s`,
//! splits `s` into `n` Shamir shares `s_i` with threshold `k`
//! ([`crate::threshold::shamir_split`]), and hands member `i` only
//! `(i, s_i)`. The public [`CommitteeRoster`] carries the ordinary
//! server key `(G, sG)` — so **senders are oblivious**: they encrypt
//! against the roster's public key exactly as against a single server —
//! plus one *share commitment* `(G, s_i·G)` per member.
//!
//! Each epoch, member `i` publishes the **key-update share**
//! `s_i·H1(T)` (its [`ServerKeyPair::issue_update`] under `s_i`).
//! Receivers verify shares pairing-wise against the commitments
//! (batched into one multi-pairing, Byzantine shares isolated by
//! bisection and named in [`MemberVerdict`]s), then Lagrange-interpolate
//! *in the exponent*: with `λ_i` the Lagrange coefficients at 0 over any
//! `k` valid member indices,
//!
//! ```text
//! Σ λ_i · (s_i·H1(T))  =  (Σ λ_i·s_i) · H1(T)  =  s·H1(T)  =  I_T .
//! ```
//!
//! No single server ever holds `s` after setup, any `k` of `n` members
//! keep every epoch decryptable, and fewer than `k` colluding members
//! learn nothing about `I_T` (Shamir privacy in the exponent).
//!
//! §5.3.4 server change composes unchanged: the roster's public key is
//! an ordinary [`ServerPublicKey`], so a
//! [`crate::server_change::ReboundKey`] re-binds an existing user key to
//! a *new* committee (fresh dealer setup) without re-certification.

use std::sync::OnceLock;

use rand::RngCore;
use tre_bigint::U256;
use tre_hashes::{Digest, HmacDrbg, Sha256};
use tre_pairing::{Curve, G1Affine, G1Precomp, MillerPrecomp};

use crate::error::TreError;
use crate::keys::{KeyUpdate, ServerKeyPair, ServerPublicKey};
use crate::tag::ReleaseTag;
use crate::threshold::shamir_split;

/// Domain separator for the derandomized share-verdict exponents.
const SHARE_DRBG_DOMAIN: &[u8] = b"tre/committee-share/v1";

/// Per-member pairing precomputation for a roster: prepared Miller
/// coefficients for the commitment's negated generator `−G_i` (the
/// fixed first argument of every `ê(−e_i·G, share_i)` verdict lane)
/// and a fixed-base table for `s_i·G` (the `Σ e_i·s_iG` lane, whose
/// 64-bit exponents walk only the low table windows).
#[derive(Debug, Clone)]
struct RosterPrecomp<const L: usize> {
    members: Vec<(MillerPrecomp<L>, G1Precomp<L>)>,
}

/// The public face of a committee: threshold `k`, the master public key
/// `(G, sG)` senders encrypt against, and one share commitment
/// `(G, s_i·G)` per member (1-based), which shares are verified against.
///
/// The roster lazily caches per-commitment pairing precomputation on
/// the first share verification, so every later epoch's batched check
/// replays prepared Miller coefficients instead of redoing the loop's
/// point arithmetic. The cache is invisible to equality and the wire
/// codec.
#[derive(Debug, Clone)]
pub struct CommitteeRoster<const L: usize> {
    k: u32,
    public: ServerPublicKey<L>,
    commitments: Vec<ServerPublicKey<L>>,
    prepared: OnceLock<RosterPrecomp<L>>,
}

// Manual: two rosters are the same committee iff their public parts
// match — whether the lazy precomp cache has been populated yet is
// state, not identity.
impl<const L: usize> PartialEq for CommitteeRoster<L> {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.public == other.public && self.commitments == other.commitments
    }
}

impl<const L: usize> Eq for CommitteeRoster<L> {}

impl<const L: usize> CommitteeRoster<L> {
    /// Assembles a roster from already-derived parts (e.g. read back
    /// from disk). `commitments[i]` is member `i+1`'s commitment.
    pub fn from_parts(
        k: u32,
        public: ServerPublicKey<L>,
        commitments: Vec<ServerPublicKey<L>>,
    ) -> Self {
        assert!(
            k >= 1 && k as usize <= commitments.len(),
            "invalid threshold parameters"
        );
        Self {
            k,
            public,
            commitments,
            prepared: OnceLock::new(),
        }
    }

    /// The lazily-built per-member precomputation (prepared `−G_i` +
    /// `s_iG` table per commitment), built once per roster.
    fn prepared(&self, curve: &Curve<L>) -> &RosterPrecomp<L> {
        self.prepared.get_or_init(|| RosterPrecomp {
            members: self
                .commitments
                .iter()
                .map(|c| {
                    (
                        curve.prepare(&curve.g1_neg(c.g())),
                        G1Precomp::new(curve, c.s_g()),
                    )
                })
                .collect(),
        })
    }

    /// The aggregation threshold `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The committee size `n`.
    pub fn n(&self) -> u32 {
        self.commitments.len() as u32
    }

    /// The master public key `(G, sG)` — what senders encrypt against
    /// and what aggregated updates verify against.
    pub fn public(&self) -> &ServerPublicKey<L> {
        &self.public
    }

    /// Member `member`'s share commitment `(G, s_i·G)` (1-based), or
    /// `None` for an index outside `1..=n`.
    pub fn commitment(&self, member: u32) -> Option<&ServerPublicKey<L>> {
        (member >= 1)
            .then(|| self.commitments.get(member as usize - 1))
            .flatten()
    }

    /// All `n` commitments, member `1` first.
    pub fn commitments(&self) -> &[ServerPublicKey<L>] {
        &self.commitments
    }

    /// Canonical body encoding `k ‖ n ‖ public ‖ commitments…` (u32s
    /// big-endian, keys as their canonical bodies), appended to `out`.
    pub fn write_body(&self, curve: &Curve<L>, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.k.to_be_bytes());
        out.extend_from_slice(&self.n().to_be_bytes());
        self.public.write_body(curve, out);
        for c in &self.commitments {
            c.write_body(curve, out);
        }
    }

    /// Parses the [`CommitteeRoster::write_body`] encoding, consuming
    /// exactly `bytes`.
    ///
    /// # Errors
    /// [`TreError::Malformed`] on truncation, trailing bytes, invalid
    /// points, or inconsistent `k`/`n`.
    pub fn read_body(curve: &Curve<L>, bytes: &[u8]) -> Result<Self, TreError> {
        let key_len = 2 * curve.point_len();
        if bytes.len() < 8 {
            return Err(TreError::Malformed("committee roster body"));
        }
        let k = u32::from_be_bytes(bytes[..4].try_into().unwrap());
        let n = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        let rest = &bytes[8..];
        if k < 1 || k > n || rest.len() != (n as usize + 1) * key_len {
            return Err(TreError::Malformed("committee roster body"));
        }
        let public = ServerPublicKey::read_body(curve, &rest[..key_len])?;
        let commitments = (0..n as usize)
            .map(|i| {
                let at = (i + 1) * key_len;
                ServerPublicKey::read_body(curve, &rest[at..at + key_len])
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            k,
            public,
            commitments,
            prepared: OnceLock::new(),
        })
    }
}

/// One committee member's private state: its 1-based index and the key
/// pair `(G, s_i)` it signs epoch shares with. After setup this is the
/// *only* secret the member holds — never the master `s`.
#[derive(Debug, Clone)]
pub struct CommitteeMember<const L: usize> {
    index: u32,
    keys: ServerKeyPair<L>,
}

impl<const L: usize> CommitteeMember<L> {
    /// Reassembles a member from persisted parts (index + key pair).
    pub fn from_parts(index: u32, keys: ServerKeyPair<L>) -> Self {
        assert!(index >= 1, "member indices are 1-based");
        Self { index, keys }
    }

    /// The member's 1-based roster index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The member's share key pair `(G, s_i)`.
    pub fn key_pair(&self) -> &ServerKeyPair<L> {
        &self.keys
    }

    /// The member's public share commitment `(G, s_i·G)` — equals the
    /// roster entry at this member's index.
    pub fn commitment(&self) -> &ServerPublicKey<L> {
        self.keys.public()
    }

    /// Issues this member's key-update share for `tag`: `s_i·H1(T)`.
    /// Structurally an ordinary [`KeyUpdate`], verifiable against the
    /// member's commitment — never against the roster's master key.
    pub fn issue_share(&self, curve: &Curve<L>, tag: &ReleaseTag) -> KeyUpdate<L> {
        self.keys.issue_update(curve, tag)
    }
}

/// Dealer setup: picks a fresh generator `G` and master secret `s`,
/// Shamir-splits `s` with threshold `k` over `n` members, and returns
/// the public roster plus each member's private state. The dealer's
/// copy of `s` lives only inside this call; after it returns, `s` is
/// reconstructible only by `k` cooperating members.
///
/// Re-running this (fresh `G'`, `s'`) is also the §5.3.4 *server
/// change* for a committee: existing user keys re-bind to the new
/// roster's public key via [`crate::server_change::ReboundKey`].
///
/// # Panics
/// Panics unless `1 ≤ k ≤ n` and `n < 2^16`.
pub fn dealer_setup<const L: usize>(
    curve: &Curve<L>,
    k: u32,
    n: u32,
    rng: &mut (impl RngCore + ?Sized),
) -> (CommitteeRoster<L>, Vec<CommitteeMember<L>>) {
    let g = curve.g1_mul(&curve.generator(), &curve.random_scalar(rng));
    dealer_setup_with_generator(curve, g, k, n, rng)
}

/// [`dealer_setup`] with a caller-chosen committee generator `G`.
///
/// Reusing the *outgoing* committee's generator here is what makes a
/// §5.3.4 committee change seamless: re-bound user keys
/// (`ReboundKey::into_user_key`) are then fully functional against the
/// new roster, not just proofs of identity continuity.
///
/// # Panics
/// Panics unless `1 ≤ k ≤ n` and `n < 2^16`, or if `g` is infinity.
pub fn dealer_setup_with_generator<const L: usize>(
    curve: &Curve<L>,
    g: G1Affine<L>,
    k: u32,
    n: u32,
    rng: &mut (impl RngCore + ?Sized),
) -> (CommitteeRoster<L>, Vec<CommitteeMember<L>>) {
    let _span = tre_obs::span("committee.setup");
    let s = curve.random_scalar(rng);
    let master = ServerKeyPair::from_secret(curve, g, s);
    let members: Vec<CommitteeMember<L>> = shamir_split(curve, &s, k, n, rng)
        .into_iter()
        .map(|share| CommitteeMember {
            index: share.index,
            keys: ServerKeyPair::from_secret(curve, g, share.value),
        })
        .collect();
    let commitments = members.iter().map(|m| *m.commitment()).collect();
    (
        CommitteeRoster {
            k,
            public: *master.public(),
            commitments,
            prepared: OnceLock::new(),
        },
        members,
    )
}

/// Why a member's share was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareFault {
    /// No share from this member among the submissions.
    Missing,
    /// Share index outside the roster's `1..=n`.
    UnknownMember,
    /// Share issued for a different release tag than requested.
    TagMismatch,
    /// Share failed the pairing check against the member's commitment
    /// `ê(G, share) = ê(s_i·G, H1(T))` — a corrupt or forged share.
    BadShare,
    /// Two *different* shares from the same member for the same tag.
    /// Honest shares are deterministic, so this is cryptographic
    /// evidence of a Byzantine member; every copy is rejected unverified.
    Equivocation,
}

/// The per-member outcome of a share verification pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberVerdict {
    /// The member's 1-based roster index (or the claimed index, for
    /// [`ShareFault::UnknownMember`]).
    pub member: u32,
    /// `None` = no fault found in this member's submission.
    pub fault: Option<ShareFault>,
}

/// Derandomized small exponents for the batched share check, one per
/// candidate: an HMAC-DRBG keyed on a hash of every candidate's
/// commitment and share bytes, so an adversary cannot pick shares that
/// cancel under exponents it can predict (mirrors the failover verdict
/// batching).
fn share_exponents<const L: usize>(
    curve: &Curve<L>,
    roster: &CommitteeRoster<L>,
    candidates: &[(u32, KeyUpdate<L>)],
) -> Vec<U256> {
    let mut h = Sha256::new();
    h.update(SHARE_DRBG_DOMAIN);
    let mut buf = Vec::new();
    for (member, share) in candidates {
        buf.clear();
        buf.extend_from_slice(&member.to_be_bytes());
        roster
            .commitment(*member)
            .expect("candidate member on roster")
            .write_body(curve, &mut buf);
        share.write_body(curve, &mut buf);
        h.update(&buf);
    }
    let mut drbg = HmacDrbg::new(&h.finalize(), SHARE_DRBG_DOMAIN);
    candidates
        .iter()
        .map(|_| U256::from_u64(drbg.next_u64().max(1)))
        .collect()
}

/// Batched check that every candidate share at `idxs` verifies against
/// its commitment: one `(|idxs|+1)`-lane multi-pairing testing
/// `ê(Σ e_i·s_iG, H1(T)) · Π ê(−e_i·G, share_i) = 1`.
///
/// The per-member lanes run off the roster's prepared Miller
/// coefficients, with the batching exponent shifted onto the share by
/// bilinearity — `ê(−e_i·G, share_i) = ê(−G, e_i·share_i)` — so the
/// fixed `−G_i` stays the prepared first argument; the `Σ e_i·s_iG`
/// lane accumulates through the cached fixed-base tables (64-bit
/// exponents walk only the low windows).
fn shares_hold<const L: usize>(
    curve: &Curve<L>,
    roster: &CommitteeRoster<L>,
    candidates: &[(u32, KeyUpdate<L>)],
    h: &G1Affine<L>,
    e: &[U256],
    idxs: &[usize],
) -> bool {
    let pre = roster.prepared(curve);
    let member_pre = |member: u32| &pre.members[member as usize - 1];
    if let [i] = idxs {
        let (member, share) = &candidates[*i];
        let c = roster.commitment(*member).expect("member on roster");
        let (neg_g_prep, _) = member_pre(*member);
        return curve
            .multi_pairing_mixed(&[(neg_g_prep, *share.sig())], &[(*c.s_g(), *h)])
            .is_one(curve);
    }
    let mut lhs = G1Affine::infinity(curve.fp());
    let mut lanes = Vec::with_capacity(idxs.len());
    for &i in idxs {
        let (member, share) = &candidates[i];
        let (neg_g_prep, s_g_table) = member_pre(*member);
        lhs = curve.g1_add(&lhs, &s_g_table.mul(curve, &e[i]));
        lanes.push((neg_g_prep, curve.g1_mul(share.sig(), &e[i])));
    }
    curve
        .multi_pairing_mixed(&lanes, &[(lhs, *h)])
        .is_one(curve)
}

/// Bisection isolation: recurses only into halves whose batched check
/// fails, so a clean batch costs one multi-pairing and each Byzantine
/// share is pinpointed in `O(log)` extra checks.
fn isolate_bad_shares<const L: usize>(
    curve: &Curve<L>,
    roster: &CommitteeRoster<L>,
    candidates: &[(u32, KeyUpdate<L>)],
    h: &G1Affine<L>,
    e: &[U256],
    idxs: &[usize],
    bad: &mut Vec<usize>,
) {
    if idxs.is_empty() || shares_hold(curve, roster, candidates, h, e, idxs) {
        return;
    }
    if let [i] = idxs {
        bad.push(*i);
        return;
    }
    let mid = idxs.len() / 2;
    isolate_bad_shares(curve, roster, candidates, h, e, &idxs[..mid], bad);
    isolate_bad_shares(curve, roster, candidates, h, e, &idxs[mid..], bad);
}

/// Verifies a batch of structurally-screened candidate shares (distinct
/// on-roster members, matching tags) pairing-wise against their
/// commitments. Returns one verdict per candidate, in input order:
/// fault `None` or [`ShareFault::BadShare`].
///
/// Cost: one `(len+1)`-lane multi-pairing when every share is honest;
/// bisection (logarithmic extra multi-pairings) isolates the bad ones
/// otherwise.
pub fn verify_share_batch<const L: usize>(
    curve: &Curve<L>,
    roster: &CommitteeRoster<L>,
    tag: &ReleaseTag,
    candidates: &[(u32, KeyUpdate<L>)],
) -> Vec<MemberVerdict> {
    let _span = tre_obs::span("committee.verify");
    for (member, share) in candidates {
        assert!(
            roster.commitment(*member).is_some(),
            "candidate member {member} not on roster"
        );
        assert!(share.tag() == tag, "candidate share for a different tag");
    }
    if candidates.is_empty() {
        return Vec::new();
    }
    let h = curve.hash_to_g1(tag.h1_domain(), tag.value());
    let e = share_exponents(curve, roster, candidates);
    let idxs: Vec<usize> = (0..candidates.len()).collect();
    let mut bad = Vec::new();
    isolate_bad_shares(curve, roster, candidates, &h, &e, &idxs, &mut bad);
    candidates
        .iter()
        .enumerate()
        .map(|(i, (member, _))| {
            let fault = bad.contains(&i).then_some(ShareFault::BadShare);
            if tre_obs::is_enabled() {
                tre_obs::event(
                    "committee.verdict",
                    &format!(
                        "member={member} fault={}",
                        if fault.is_some() { "bad_share" } else { "none" }
                    ),
                );
            }
            MemberVerdict {
                member: *member,
                fault,
            }
        })
        .collect()
}

/// Lagrange coefficient at 0 for evaluation point `x_a` over the point
/// set `xs`: `λ_a = Π_{b≠a} x_b / (x_b − x_a) mod q`.
fn lagrange_at_zero<const L: usize>(curve: &Curve<L>, xs: &[u32], a: u32) -> Option<U256> {
    let xa = U256::from_u64(a as u64);
    let mut num = U256::ONE;
    let mut den = U256::ONE;
    for &b in xs {
        if b == a {
            continue;
        }
        let xb = U256::from_u64(b as u64);
        num = curve.scalar_mul(&num, &xb);
        den = curve.scalar_mul(&den, &curve.scalar_sub(&xb, &xa));
    }
    curve
        .scalar_inv(&den)
        .map(|inv| curve.scalar_mul(&num, &inv))
}

/// Exponent-Lagrange aggregation: reconstructs the full update
/// `I_T = s·H1(T)` from the first `k` *verified* shares (distinct
/// members), as `Σ λ_i·(s_i·H1(T))`: one [`Curve::g1_msm`] over `k`
/// terms (counted as `k` scalar multiplications) and **zero pairings**
/// — verify the result against [`CommitteeRoster::public`] only if the
/// inputs were not already verified with [`verify_share_batch`].
///
/// # Errors
/// * [`TreError::ArityMismatch`] with fewer than `k` shares;
/// * [`TreError::Malformed`] on a duplicate or off-roster member index;
/// * [`TreError::UpdateTagMismatch`] if any share is for another tag.
pub fn aggregate_shares<const L: usize>(
    curve: &Curve<L>,
    roster: &CommitteeRoster<L>,
    tag: &ReleaseTag,
    shares: &[(u32, KeyUpdate<L>)],
) -> Result<KeyUpdate<L>, TreError> {
    let _span = tre_obs::span("committee.aggregate");
    let k = roster.k() as usize;
    if shares.len() < k {
        return Err(TreError::ArityMismatch {
            expected: k,
            got: shares.len(),
        });
    }
    let chosen = &shares[..k];
    let xs: Vec<u32> = chosen.iter().map(|(m, _)| *m).collect();
    for (i, &x) in xs.iter().enumerate() {
        if roster.commitment(x).is_none() || xs[..i].contains(&x) {
            return Err(TreError::Malformed("committee share index"));
        }
    }
    if chosen.iter().any(|(_, share)| share.tag() != tag) {
        return Err(TreError::UpdateTagMismatch);
    }
    let lambdas = xs
        .iter()
        .map(|&member| lagrange_at_zero(curve, &xs, member))
        .collect::<Option<Vec<_>>>()
        .ok_or(TreError::Malformed("committee share index"))?;
    let sigs: Vec<G1Affine<L>> = chosen.iter().map(|(_, share)| *share.sig()).collect();
    let sig = curve.g1_msm(&sigs, &lambdas);
    if tre_obs::is_enabled() {
        tre_obs::event("committee.aggregated", &format!("from_k={k}"));
    }
    Ok(KeyUpdate::from_parts(tag.clone(), sig))
}

/// One-shot receive path over a full set of submissions: structural
/// screening (unknown members, tag mismatches, duplicate detection,
/// equivocation), pairing verification of the first `k` clean
/// candidates (topping up past Byzantine shares), and aggregation.
///
/// Returns the aggregated update (or `None` if fewer than `k` shares
/// survive) plus one verdict per roster member — members with no
/// submission are reported [`ShareFault::Missing`]; submitted shares
/// beyond the `k` needed are left unverified (fault `None`) to keep the
/// clean-path cost at one `(k+1)`-lane multi-pairing per epoch.
/// Off-roster submissions are appended after the `n` roster verdicts.
pub fn verify_and_aggregate<const L: usize>(
    curve: &Curve<L>,
    roster: &CommitteeRoster<L>,
    tag: &ReleaseTag,
    submissions: &[(u32, KeyUpdate<L>)],
) -> (Option<KeyUpdate<L>>, Vec<MemberVerdict>) {
    use std::collections::BTreeMap;
    let k = roster.k() as usize;

    // Structural screen: first distinct share per member; byte-identical
    // duplicates collapse, a conflicting second share convicts the
    // member of equivocation (no pairings spent on either copy).
    let mut first: BTreeMap<u32, &KeyUpdate<L>> = BTreeMap::new();
    let mut faults: BTreeMap<u32, ShareFault> = BTreeMap::new();
    let mut unknown: Vec<u32> = Vec::new();
    for (member, share) in submissions {
        if roster.commitment(*member).is_none() {
            if !unknown.contains(member) {
                unknown.push(*member);
            }
            continue;
        }
        if share.tag() != tag {
            faults.entry(*member).or_insert(ShareFault::TagMismatch);
            continue;
        }
        match first.get(member) {
            None => {
                first.insert(*member, share);
            }
            Some(known) if *known == share => {}
            Some(_) => {
                faults.insert(*member, ShareFault::Equivocation);
                first.remove(member);
            }
        }
    }

    // Pairing phase: verify the first k clean candidates as one batch;
    // on Byzantine failures, top up from the remaining candidates until
    // k shares are verified or the pool runs dry.
    let candidates: Vec<(u32, KeyUpdate<L>)> = first
        .iter()
        .filter(|(m, _)| !faults.contains_key(m))
        .map(|(m, s)| (*m, (*s).clone()))
        .collect();
    let mut valid: Vec<(u32, KeyUpdate<L>)> = Vec::new();
    let mut cursor = 0;
    while valid.len() < k && cursor < candidates.len() {
        let take = (k - valid.len()).min(candidates.len() - cursor);
        let batch = &candidates[cursor..cursor + take];
        cursor += take;
        for (verdict, cand) in verify_share_batch(curve, roster, tag, batch)
            .into_iter()
            .zip(batch)
        {
            match verdict.fault {
                None => valid.push(cand.clone()),
                Some(fault) => {
                    faults.insert(verdict.member, fault);
                }
            }
        }
    }

    let update = aggregate_shares(curve, roster, tag, &valid).ok();
    let mut verdicts: Vec<MemberVerdict> = (1..=roster.n())
        .map(|member| MemberVerdict {
            member,
            fault: match faults.get(&member) {
                Some(&fault) => Some(fault),
                None if !first.contains_key(&member) => Some(ShareFault::Missing),
                None => None,
            },
        })
        .collect();
    verdicts.extend(unknown.into_iter().map(|member| MemberVerdict {
        member,
        fault: Some(ShareFault::UnknownMember),
    }));
    (update, verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server_change::ReboundKey;
    use crate::session::{Receiver, Sender};
    use crate::tag::ReleaseTag;
    use tre_pairing::toy64;

    fn world(
        k: u32,
        n: u32,
    ) -> (
        CommitteeRoster<8>,
        Vec<CommitteeMember<8>>,
        ReleaseTag,
        Vec<(u32, KeyUpdate<8>)>,
    ) {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (roster, members) = dealer_setup(curve, k, n, &mut rng);
        let tag = ReleaseTag::time("committee-epoch");
        let shares: Vec<(u32, KeyUpdate<8>)> = members
            .iter()
            .map(|m| (m.index(), m.issue_share(curve, &tag)))
            .collect();
        (roster, members, tag, shares)
    }

    #[test]
    fn any_k_of_n_shares_aggregate_to_the_master_update() {
        let curve = toy64();
        let (roster, _, tag, shares) = world(3, 5);
        // Every 3-subset must reconstruct the same I_T, and it must
        // verify against the master public key (G, sG).
        let mut reference: Option<KeyUpdate<8>> = None;
        for a in 0..5 {
            for b in a + 1..5 {
                for c in b + 1..5 {
                    let subset = [shares[a].clone(), shares[b].clone(), shares[c].clone()];
                    let update = aggregate_shares(curve, &roster, &tag, &subset).unwrap();
                    assert!(
                        update.verify(curve, roster.public()),
                        "aggregate from {{{a},{b},{c}}} verifies against (G, sG)"
                    );
                    match &reference {
                        None => reference = Some(update),
                        Some(want) => assert_eq!(&update, want, "subset-independent"),
                    }
                }
            }
        }
    }

    #[test]
    fn individual_shares_verify_against_commitments_not_master() {
        let curve = toy64();
        let (roster, _, _, shares) = world(3, 5);
        for (member, share) in &shares {
            let c = roster.commitment(*member).unwrap();
            assert!(
                share.verify(curve, c),
                "member {member} share vs commitment"
            );
            assert!(
                !share.verify(curve, roster.public()),
                "a lone share must not pass as the full update"
            );
        }
    }

    #[test]
    fn fewer_than_k_shares_cannot_aggregate() {
        let curve = toy64();
        let (roster, _, tag, shares) = world(3, 5);
        let err = aggregate_shares(curve, &roster, &tag, &shares[..2]).unwrap_err();
        assert_eq!(
            err,
            TreError::ArityMismatch {
                expected: 3,
                got: 2
            }
        );
        // And the wrong k-subset shapes are rejected too.
        let dup = [shares[0].clone(), shares[0].clone(), shares[1].clone()];
        assert_eq!(
            aggregate_shares(curve, &roster, &tag, &dup),
            Err(TreError::Malformed("committee share index"))
        );
    }

    #[test]
    fn byzantine_share_is_named_and_aggregation_survives() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (roster, _, tag, mut shares) = world(3, 5);
        // Member 2 serves garbage: a random group element.
        let forged = curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng));
        shares[1].1 = KeyUpdate::from_parts(tag.clone(), forged);

        let (update, verdicts) = verify_and_aggregate(curve, &roster, &tag, &shares);
        let update = update.expect("k honest members remain");
        assert!(update.verify(curve, roster.public()));
        assert_eq!(
            verdicts
                .iter()
                .find(|v| v.member == 2)
                .and_then(|v| v.fault),
            Some(ShareFault::BadShare),
            "the Byzantine member is named"
        );
        assert!(
            verdicts
                .iter()
                .filter(|v| v.member != 2)
                .all(|v| v.fault.is_none()),
            "honest members are not convicted"
        );
    }

    #[test]
    fn equivocating_member_rejected_without_pairings_and_named() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (roster, _, tag, shares) = world(3, 5);
        // Member 1 submits its honest share and a conflicting one.
        let conflicting = KeyUpdate::from_parts(
            tag.clone(),
            curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        );
        let mut submissions = shares.clone();
        submissions.push((1, conflicting));

        let (update, verdicts) = verify_and_aggregate(curve, &roster, &tag, &submissions);
        assert!(update.unwrap().verify(curve, roster.public()));
        assert_eq!(
            verdicts
                .iter()
                .find(|v| v.member == 1)
                .and_then(|v| v.fault),
            Some(ShareFault::Equivocation)
        );
    }

    #[test]
    fn missing_tag_mismatch_and_unknown_member_screened() {
        let curve = toy64();
        let (roster, members, tag, shares) = world(3, 5);
        let other = members[3].issue_share(curve, &ReleaseTag::time("other-epoch"));
        let submissions = vec![
            shares[0].clone(),
            shares[1].clone(),
            shares[2].clone(),
            (4, other),               // member 4: right member, wrong tag
            (9, shares[4].1.clone()), // off-roster index
        ];
        let (update, verdicts) = verify_and_aggregate(curve, &roster, &tag, &submissions);
        assert!(update.unwrap().verify(curve, roster.public()));
        let fault_of = |m: u32| {
            verdicts
                .iter()
                .find(|v| v.member == m)
                .and_then(|v| v.fault)
        };
        assert_eq!(fault_of(4), Some(ShareFault::TagMismatch));
        assert_eq!(fault_of(5), Some(ShareFault::Missing));
        assert_eq!(fault_of(9), Some(ShareFault::UnknownMember));
    }

    /// The aggregation cost guard: a clean epoch costs exactly one
    /// (k+1)-lane multi-pairing for verification and zero pairings for
    /// the exponent-Lagrange aggregation itself.
    #[test]
    fn clean_epoch_costs_k_plus_one_pairings() {
        let curve = toy64();
        let (roster, _, tag, shares) = world(3, 5);
        tre_obs::enable();
        let (update, _) = verify_and_aggregate(curve, &roster, &tag, &shares);
        let trace = tre_obs::finish();
        assert!(update.is_some());
        let verify_pairings: u64 = trace
            .spans_named("committee.verify")
            .iter()
            .map(|s| s.ops.pairings)
            .sum();
        assert_eq!(verify_pairings, 4, "k+1 = 4 lanes in one multi-pairing");
        let agg_pairings: u64 = trace
            .spans_named("committee.aggregate")
            .iter()
            .map(|s| s.ops.pairings)
            .sum();
        assert_eq!(agg_pairings, 0, "aggregation is pairing-free");
    }

    /// §5.3.4 server change, committee edition: a fresh dealer setup is
    /// the "new server", and an existing user key re-binds to it via
    /// ReboundKey — end to end through encrypt/decrypt with an
    /// aggregated update from the *new* committee.
    #[test]
    fn rebind_to_new_committee_round_trips() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (old_roster, _, _, _) = world(3, 5);
        let user = crate::keys::UserKeyPair::generate(curve, old_roster.public(), &mut rng);

        // Committee change: same generator (§5.3.4's simplifying
        // assumption, so re-bound keys stay fully functional), fresh
        // master secret and members.
        let (new_roster, new_members) =
            dealer_setup_with_generator(curve, *old_roster.public().g(), 3, 5, &mut rng);
        let rebound = ReboundKey::derive(curve, user.public(), new_roster.public(), &user);
        rebound
            .verify(curve, old_roster.public(), new_roster.public())
            .expect("rebind certificate verifies against old and new committee keys");
        let new_public = rebound.into_user_key();

        let tag = ReleaseTag::time("after-the-handover");
        let sender = Sender::new(curve, new_roster.public(), &new_public).unwrap();
        let ct = sender.encrypt(&tag, b"committee rebind", &mut rng);

        let shares: Vec<(u32, KeyUpdate<8>)> = new_members[..3]
            .iter()
            .map(|m| (m.index(), m.issue_share(curve, &tag)))
            .collect();
        let update = aggregate_shares(curve, &new_roster, &tag, &shares).unwrap();
        let mut receiver = Receiver::new(curve, *new_roster.public(), user);
        assert_eq!(
            receiver.open_with(&update, &ct).unwrap(),
            b"committee rebind"
        );
    }

    /// The lazy roster cache: the first batch verification pays for the
    /// per-member Miller precomputation, every later epoch rides it.
    #[test]
    fn warm_roster_cache_cuts_fp_muls_without_changing_pairings() {
        let curve = toy64();
        let (roster, members, _, _) = world(3, 5);
        let epoch = |name: &str| {
            let tag = ReleaseTag::time(name);
            let shares: Vec<(u32, KeyUpdate<8>)> = members
                .iter()
                .map(|m| (m.index(), m.issue_share(curve, &tag)))
                .collect();
            (tag, shares)
        };
        let (tag1, shares1) = epoch("cold-epoch");
        let (tag2, shares2) = epoch("warm-epoch");

        tre_obs::enable();
        let (u1, _) = verify_and_aggregate(curve, &roster, &tag1, &shares1);
        let cold = tre_obs::finish().total_ops();

        tre_obs::enable();
        let (u2, _) = verify_and_aggregate(curve, &roster, &tag2, &shares2);
        let warm = tre_obs::finish().total_ops();

        assert!(u1.is_some() && u2.is_some());
        assert_eq!(cold.pairings, warm.pairings, "lane count is cache-blind");
        assert!(
            warm.fp_muls < cold.fp_muls,
            "warm cache ({}) must beat the cold epoch that builds it ({})",
            warm.fp_muls,
            cold.fp_muls
        );
    }

    #[test]
    fn roster_equality_ignores_cache_state() {
        let curve = toy64();
        let (roster, _, tag, shares) = world(3, 5);
        let mut bytes = Vec::new();
        roster.write_body(curve, &mut bytes);
        let fresh = CommitteeRoster::read_body(curve, &bytes).unwrap();
        // Warm the original's cache; the freshly parsed copy stays cold.
        let (update, _) = verify_and_aggregate(curve, &roster, &tag, &shares);
        assert!(update.is_some());
        assert_eq!(roster, fresh, "equality compares state, not identity");
        assert_eq!(fresh, roster);
    }

    #[test]
    fn roster_body_round_trips_and_rejects_malformed() {
        let curve = toy64();
        let (roster, _, _, _) = world(3, 5);
        let mut bytes = Vec::new();
        roster.write_body(curve, &mut bytes);
        let back = CommitteeRoster::read_body(curve, &bytes).unwrap();
        assert_eq!(back, roster);

        assert!(CommitteeRoster::<8>::read_body(curve, &bytes[..7]).is_err());
        assert!(CommitteeRoster::<8>::read_body(curve, &bytes[..bytes.len() - 1]).is_err());
        let mut swapped = bytes.clone();
        swapped[..4].copy_from_slice(&9u32.to_be_bytes()); // k > n
        assert!(CommitteeRoster::<8>::read_body(curve, &swapped).is_err());
    }
}
