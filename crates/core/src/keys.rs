//! Key material: time-server keys, user keys, and the self-authenticating
//! time-bound key update `I_T = s·H1(T)` (§5.1 of the paper).

use std::sync::{Mutex, OnceLock};

use rand::RngCore;
use tre_bigint::U256;
use tre_hashes::{Digest, HmacDrbg, Sha256};
use tre_pairing::{Curve, G1Affine, G1Precomp, Gt, GtPrecomp, MillerPrecomp};

use crate::error::TreError;
use crate::tag::ReleaseTag;

/// Domain string seeding the derandomized batch-verification exponents.
const BATCH_DRBG_DOMAIN: &[u8] = b"tre/batch-verify/v1";

/// The time server's public key `PK_S = (G, sG)`.
///
/// The server picks its own generator `G` (a random point of order `q`), so
/// distinct servers are independent even on shared curve parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServerPublicKey<const L: usize> {
    g: G1Affine<L>,
    s_g: G1Affine<L>,
}

/// The time server's key pair `(s, PK_S)`.
///
/// The only party that can issue [`KeyUpdate`]s. Note what the server does
/// **not** hold: any user keys, any messages, any release schedule — it is
/// completely passive (§3).
#[derive(Clone, Debug)]
pub struct ServerKeyPair<const L: usize> {
    secret: U256,
    public: ServerPublicKey<L>,
}

/// A receiver's public key `PK_U = (aG, a·sG)`, bound to one time server.
/// Both points lie in the order-`q` subgroup: every constructor either
/// checks them or derives them from subgroup points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UserPublicKey<const L: usize> {
    a_g: G1Affine<L>,
    a_s_g: G1Affine<L>,
}

/// A receiver's key pair `(a, PK_U)`.
#[derive(Clone, Debug)]
pub struct UserKeyPair<const L: usize> {
    secret: U256,
    public: UserPublicKey<L>,
}

/// The time-bound key update `I_T = s·H1(T)` — a BLS short signature on the
/// release tag, identical for every receiver, self-authenticating against
/// `PK_S` (§5.3.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KeyUpdate<const L: usize> {
    tag: ReleaseTag,
    sig: G1Affine<L>,
}

impl<const L: usize> ServerKeyPair<L> {
    /// Server key generation: random generator `G` and secret `s`; publishes
    /// `(G, sG)`.
    pub fn generate(curve: &Curve<L>, rng: &mut (impl RngCore + ?Sized)) -> Self {
        // A random generator: random scalar multiple of the curve generator
        // (any non-identity point of prime order q generates the subgroup).
        let g = curve.g1_mul(&curve.generator(), &curve.random_scalar(rng));
        let secret = curve.random_scalar(rng);
        let s_g = curve.g1_mul(&g, &secret);
        Self {
            secret,
            public: ServerPublicKey { g, s_g },
        }
    }

    /// Deterministic server keys from a seed (test fixtures / simulations).
    pub fn from_secret(curve: &Curve<L>, g: G1Affine<L>, secret: U256) -> Self {
        assert!(!g.is_infinity(), "generator must not be infinity");
        let secret = secret.rem(curve.order());
        assert!(!secret.is_zero(), "secret must be nonzero mod q");
        let s_g = curve.g1_mul(&g, &secret);
        Self {
            secret,
            public: ServerPublicKey { g, s_g },
        }
    }

    /// The public key `(G, sG)`.
    pub fn public(&self) -> &ServerPublicKey<L> {
        &self.public
    }

    /// Issues the time-bound key update for `tag`: `I_T = s·H1(T)`.
    ///
    /// This is the **only** operation the server performs in steady state,
    /// and its output is independent of who (or how many) the receivers are.
    pub fn issue_update(&self, curve: &Curve<L>, tag: &ReleaseTag) -> KeyUpdate<L> {
        self.issue_forecast(curve, &TagForecast::hash(curve, tag))
    }

    /// [`ServerKeyPair::issue_update`] with the hash already done: signs
    /// the forecast's tag as `s·H1(T)` off its precomputed `H1(T)`, one
    /// scalar multiplication. The forecast holds public values only;
    /// whether the tag's time has come is the caller's check.
    pub fn issue_forecast(&self, curve: &Curve<L>, forecast: &TagForecast<L>) -> KeyUpdate<L> {
        KeyUpdate {
            tag: forecast.tag.clone(),
            sig: curve.g1_mul(&forecast.h, &self.secret),
        }
    }

    /// ID-TRE key extraction (§5.2): the user's private key `s·H1(ID)`.
    ///
    /// Only meaningful for the identity-based scheme, where the server is
    /// also the trusted key-issuing authority (and can therefore decrypt —
    /// the key-escrow property the non-ID scheme avoids).
    pub fn extract_identity_key(&self, curve: &Curve<L>, identity: &[u8]) -> G1Affine<L> {
        let h = curve.hash_to_g1(b"identity", identity);
        curve.g1_mul(&h, &self.secret)
    }

    /// Test/benchmark helper: exposes `s`. Real deployments never need it.
    #[doc(hidden)]
    pub fn secret_scalar(&self) -> &U256 {
        &self.secret
    }
}

impl<const L: usize> ServerPublicKey<L> {
    /// The server's generator `G`.
    pub fn g(&self) -> &G1Affine<L> {
        &self.g
    }

    /// The point `sG`.
    pub fn s_g(&self) -> &G1Affine<L> {
        &self.s_g
    }

    /// Canonical body encoding `G ‖ sG` (compressed points), appended to
    /// `out`. This is the exact payload a versioned `tre-wire` frame
    /// carries for this type.
    pub fn write_body(&self, curve: &Curve<L>, out: &mut Vec<u8>) {
        out.extend_from_slice(&curve.g1_to_bytes(&self.g));
        out.extend_from_slice(&curve.g1_to_bytes(&self.s_g));
    }

    /// Parses a canonical body `G ‖ sG`, verifying both points and
    /// requiring `bytes` to be consumed exactly.
    ///
    /// # Errors
    /// Returns [`TreError::Malformed`] on bad encodings.
    pub fn read_body(curve: &Curve<L>, bytes: &[u8]) -> Result<Self, TreError> {
        let n = curve.point_len();
        if bytes.len() != 2 * n {
            return Err(TreError::Malformed("server public key length"));
        }
        let g = curve
            .g1_from_bytes_checked(&bytes[..n])
            .map_err(|_| TreError::Malformed("server generator"))?;
        let s_g = curve
            .g1_from_bytes_checked(&bytes[n..])
            .map_err(|_| TreError::Malformed("server sG"))?;
        if g.is_infinity() {
            return Err(TreError::Malformed("server generator is infinity"));
        }
        Ok(Self { g, s_g })
    }
}

/// A [`ServerPublicKey`] with its pairing and scalar-multiplication
/// precomputation attached: prepared Miller-loop coefficients for the
/// fixed first arguments of every verification equation (`sG`,
/// `(h mod q)·sG` and `−G`) plus fixed-base windowed tables for `G` and
/// `sG`.
///
/// Every check against a server key pairs with the *same* two points —
/// `ê(sG, H1(T)) · ê(−G, I_T) = 1` — so a receiver that verifies a
/// stream of epochs against one server amortizes the per-pairing
/// point arithmetic down to zero by preparing both sides once. The
/// `(h mod q)·sG` side takes `H1(T)`'s uncleared candidate `P` instead
/// of `H1(T) = h·P`: `ê((h mod q)·sG, P) = ê(sG, h·P)`, so the hash
/// skips its cofactor clearing (DESIGN §10, "Cofactor on the prepared
/// side").
///
/// Built by [`ServerPublicKey::prepare`]; consumed by the one update
/// verifier, [`PreparedServerKey::verify_burst`], by failover's verdict
/// checks, and by [`SenderPrecomp::with_server`] (which reuses the `G` table instead
/// of rebuilding it per receiver).
///
/// The three Miller preparations are built eagerly: every verification
/// reads them. The two fixed-base tables are built on their first read
/// ([`PreparedServerKey::g_table`], [`PreparedServerKey::s_g_table`]),
/// so receivers and relays, which never read them, never pay for them.
#[derive(Clone, Debug)]
pub struct PreparedServerKey<const L: usize> {
    key: ServerPublicKey<L>,
    s_g_prep: MillerPrecomp<L>,
    /// `(h mod q)·sG`, the lane an uncleared `H1` candidate pairs with.
    h_s_g_prep: MillerPrecomp<L>,
    neg_g_prep: MillerPrecomp<L>,
    g_table: OnceLock<G1Precomp<L>>,
    s_g_table: OnceLock<G1Precomp<L>>,
}

impl<const L: usize> ServerPublicKey<L> {
    /// Precomputes the prepared Miller coefficients for this key: three
    /// preparations and one `g1_mul`, together about three pairings'
    /// worth on toy64. Every subsequent prepared verification skips all
    /// Miller-loop point arithmetic on both lanes. The fixed-base tables
    /// are left to their first read; each costs about 2.5 pairings (40
    /// windows on toy64).
    pub fn prepare(&self, curve: &Curve<L>) -> PreparedServerKey<L> {
        let _span = tre_obs::span("tre.prepare_server_key");
        PreparedServerKey {
            key: *self,
            s_g_prep: curve.prepare(&self.s_g),
            h_s_g_prep: curve.prepare(&curve.g1_mul(&self.s_g, curve.cofactor_mod_q())),
            neg_g_prep: curve.prepare(&curve.g1_neg(&self.g)),
            g_table: OnceLock::new(),
            s_g_table: OnceLock::new(),
        }
    }
}

impl<const L: usize> PreparedServerKey<L> {
    /// The plain public key the precomputation is bound to.
    pub fn key(&self) -> &ServerPublicKey<L> {
        &self.key
    }

    /// Prepared Miller coefficients for first argument `sG`.
    pub fn s_g_prep(&self) -> &MillerPrecomp<L> {
        &self.s_g_prep
    }

    /// Prepared Miller coefficients for first argument `−G`.
    pub fn neg_g_prep(&self) -> &MillerPrecomp<L> {
        &self.neg_g_prep
    }

    /// Fixed-base table for the generator `G`, built on the first call.
    pub fn g_table(&self, curve: &Curve<L>) -> &G1Precomp<L> {
        self.g_table
            .get_or_init(|| G1Precomp::new(curve, &self.key.g))
    }

    /// Fixed-base table for `sG` (e.g. the `Σ e_i·s_iG` lane of batched
    /// verdicts, where the 64-bit exponents walk only 16 windows), built
    /// on the first call.
    pub fn s_g_table(&self, curve: &Curve<L>) -> &G1Precomp<L> {
        self.s_g_table
            .get_or_init(|| G1Precomp::new(curve, &self.key.s_g))
    }

    /// Forecasts `tag` against this key: the public half of the
    /// verification equation, `y_T = ê(sG, H1(T))`, as one prepared
    /// lane `ê((h mod q)·sG, P)` off `H1(T)`'s uncleared candidate `P`.
    /// It depends only on public values, so it can be computed before
    /// `T`; [`PreparedServerKey::verify_burst`] then checks the update
    /// with the one remaining lane. `y_T = 1` means `P` was `h`-torsion, and
    /// the lane is retaken against the cleared `H1(T)`.
    pub fn forecast(&self, curve: &Curve<L>, tag: &ReleaseTag) -> VerifyForecast<L> {
        let mut y = curve.pairing_prepared(&self.h_s_g_prep, &h1_candidate(curve, tag));
        if y.is_one(curve) {
            y = curve.pairing_prepared(&self.s_g_prep, &h1(curve, tag));
        }
        VerifyForecast {
            tag: tag.clone(),
            s_g: self.key.s_g,
            y,
        }
    }

    /// Self-authenticates a burst of key updates against this key
    /// (§5.3.1: `ê(sG, H1(T)) = ê(G, I_T)` for each) and returns the
    /// indices, ascending, that the textbook [`KeyUpdate::verify`]
    /// rejects. Every lane replays prepared coefficients, and the
    /// `(h mod q)·sG` lane takes `H1(T)`'s uncleared candidate `P`
    /// instead of `H1(T) = h·P`, so an honest update clears no cofactor.
    ///
    /// * **One update** is one folded 2-lane check, `ê((h mod q)·sG, P)
    ///   · ê(−G, I_T) = 1`. With a `forecast` for its tag under this key
    ///   it is one lane and one `G_T` multiplication against `y_T`, with
    ///   no hash. Any other forecast (another tag, another key) is
    ///   ignored, so the verdict never depends on which one the caller
    ///   holds.
    /// * **Two or more** run the small-exponent test (2 lanes for a clean
    ///   burst of any size), with exponents drawn by a Fiat–Shamir DRBG
    ///   over the key and the burst, and bisect on a failure
    ///   ([`tre_pairing::bisect`]). `forecast` is not used.
    ///
    /// The verdict is the textbook one for every `I_T` in `G1` (every
    /// decoded update):
    /// * `I_T = O` is decided before any pairing (`ê(sG, H1(T)) = 1`
    ///   holds only for the degenerate key `sG = O`);
    /// * a passing check implies `h·P ≠ O` (else it reads
    ///   `ê(G, I_T) = 1`), so `h·P` is `H1(T)` and the pass is an accept;
    /// * an update the check names is rejected if `h·P ≠ O`, and if
    ///   `h·P = O` is checked again against the cleared `H1(T)`. A
    ///   forgery pays the one clearing the hash used to.
    ///
    /// `threads` fans the candidate hashing of a burst out over
    /// [`tre_par::par_map`] (`0` = auto, `1` = inline). Crypto-op
    /// counters are thread-local, so count ops with `threads = 1`. A
    /// caller holding conflicting signatures for one tag must resolve the
    /// equivocation first (see [`Curve::bls_batch_check_prepared`]).
    pub fn verify_burst(
        &self,
        curve: &Curve<L>,
        updates: &[KeyUpdate<L>],
        forecast: Option<&VerifyForecast<L>>,
        threads: usize,
    ) -> Vec<usize> {
        match updates {
            [] => Vec::new(),
            [update] => {
                let _span = tre_obs::span("tre.verify");
                let ok = match forecast {
                    Some(f) if f.tag == update.tag && f.s_g == self.key.s_g => curve
                        .pairing_prepared(&self.neg_g_prep, &update.sig)
                        .mul(&f.y, curve)
                        .is_one(curve),
                    _ => self.verify_one(curve, update),
                };
                if ok {
                    Vec::new()
                } else {
                    vec![0]
                }
            }
            _ => {
                let _span = tre_obs::span("tre.batch_verify");
                self.isolate_folded(curve, updates, threads)
            }
        }
    }

    /// The folded check of one update, with the `I_T = O` and
    /// `h`-torsion cases of [`PreparedServerKey::verify_burst`].
    fn verify_one(&self, curve: &Curve<L>, update: &KeyUpdate<L>) -> bool {
        if update.sig.is_infinity() {
            return self.key.s_g.is_infinity();
        }
        let p = h1_candidate(curve, &update.tag);
        curve.bls_verify_one_prepared(&self.neg_g_prep, &self.h_s_g_prep, &p, &update.sig)
            || self.recheck_torsion(curve, update, &p)
    }

    /// The rest of a folded check that failed against candidate `p`: a
    /// reject unless `p` is `h`-torsion, in which case the check runs
    /// again on the cleared `H1(T)`.
    fn recheck_torsion(&self, curve: &Curve<L>, update: &KeyUpdate<L>, p: &G1Affine<L>) -> bool {
        is_h_torsion(curve, p)
            && curve.bls_verify_one_prepared(
                &self.neg_g_prep,
                &self.s_g_prep,
                &h1(curve, &update.tag),
                &update.sig,
            )
    }

    /// The indices (ascending) of a burst that the folded check rejects:
    /// signatures at infinity are decided up front, the rest are bisected
    /// under small-exponent checks, and every index the bisection names
    /// is re-decided by [`PreparedServerKey::recheck_torsion`].
    fn isolate_folded(
        &self,
        curve: &Curve<L>,
        updates: &[KeyUpdate<L>],
        threads: usize,
    ) -> Vec<usize> {
        let (live, at_infinity): (Vec<usize>, Vec<usize>) =
            (0..updates.len()).partition(|&i| !updates[i].sig.is_infinity());
        let entries = tre_par::par_map(&live, threads, |&i| {
            (h1_candidate(curve, &updates[i].tag), updates[i].sig)
        });
        let mut rng = batch_drbg(curve, &self.key, updates);
        let named = tre_pairing::bisect(entries.len(), |range| {
            curve.bls_batch_check_prepared(
                &self.neg_g_prep,
                &self.h_s_g_prep,
                &entries[range],
                &mut rng,
            )
        });
        let mut bad: Vec<usize> = named
            .into_iter()
            .filter(|&k| !self.recheck_torsion(curve, &updates[live[k]], &entries[k].0))
            .map(|k| live[k])
            .chain(
                at_infinity
                    .into_iter()
                    .filter(|_| !self.key.s_g.is_infinity()),
            )
            .collect();
        bad.sort_unstable();
        bad
    }
}

/// The signer's forecast: one release tag hashed to `H1(T)` ahead of
/// time, so [`ServerKeyPair::issue_forecast`] signs it at the boundary
/// with one scalar multiplication.
///
/// The tag of a scheduled epoch is public and known in advance (§5.3.1),
/// so a signer can hash it before the boundary. A forecast is never a
/// signature: it holds no secret and no part of `I_T = s·H1(T)`.
#[derive(Clone, Debug)]
pub struct TagForecast<const L: usize> {
    tag: ReleaseTag,
    /// The cleared `H1(T)`: the only point `issue_forecast` ever signs.
    h: G1Affine<L>,
}

impl<const L: usize> TagForecast<L> {
    /// Hashes `tag` to `H1(T)`.
    pub fn hash(curve: &Curve<L>, tag: &ReleaseTag) -> Self {
        Self {
            tag: tag.clone(),
            h: h1(curve, tag),
        }
    }

    /// The tag this forecast is for.
    pub fn tag(&self) -> &ReleaseTag {
        &self.tag
    }
}

/// The verifier's forecast, built by [`PreparedServerKey::forecast`]:
/// `y_T = ê(sG, H1(T))` for one tag under one server key, paired before
/// `T`. It carries no curve point, so nothing in it can be signed.
#[derive(Clone, Debug)]
pub struct VerifyForecast<const L: usize> {
    tag: ReleaseTag,
    /// The key half `sG` the pairing was taken with.
    s_g: G1Affine<L>,
    y: Gt<L>,
}

/// The derandomized exponent source for one burst: a DRBG seeded by
/// hashing the server key and the full burst contents, so the exponents
/// are fixed only *after* the burst is committed (the Fiat–Shamir variant
/// of the small-exponent test). Verification stays deterministic — no
/// caller-supplied RNG, byte-identical traces across runs — without
/// weakening the `2^-64` soundness bound, because an adversary must
/// choose the updates before learning the exponents they will be
/// combined under.
fn batch_drbg<const L: usize>(
    curve: &Curve<L>,
    server: &ServerPublicKey<L>,
    updates: &[KeyUpdate<L>],
) -> HmacDrbg {
    let mut h = Sha256::new();
    h.update(BATCH_DRBG_DOMAIN);
    let mut buf = Vec::new();
    server.write_body(curve, &mut buf);
    h.update(&buf);
    for u in updates {
        buf.clear();
        u.write_body(curve, &mut buf);
        h.update(&buf);
    }
    HmacDrbg::new(&h.finalize(), BATCH_DRBG_DOMAIN)
}

/// `H1(T)`, the cleared hash of a release tag.
fn h1<const L: usize>(curve: &Curve<L>, tag: &ReleaseTag) -> G1Affine<L> {
    curve.hash_to_g1(tag.h1_domain(), tag.value())
}

/// `H1(T)`'s uncleared try-and-increment candidate `P`
/// ([`Curve::h1_candidate`]): `H1(T) = h·P` unless `h·P = O`.
fn h1_candidate<const L: usize>(curve: &Curve<L>, tag: &ReleaseTag) -> G1Affine<L> {
    #[cfg(test)]
    if let Some(p) = tests::injected_candidate(curve, tag) {
        return p;
    }
    curve.h1_candidate(tag.h1_domain(), tag.value())
}

/// Whether `h·P = O`: the probability-`1/q` case where `P` is not
/// `H1(T)`'s candidate after all and [`Curve::hash_to_g1`] moves on.
fn is_h_torsion<const L: usize>(curve: &Curve<L>, p: &G1Affine<L>) -> bool {
    curve.g1_mul_uint(p, curve.cofactor()).is_infinity()
}

impl<const L: usize> UserKeyPair<L> {
    /// User key generation bound to `server`: secret `a`, public
    /// `(aG, a·sG)` where `G, sG` come from the server's public key.
    pub fn generate(
        curve: &Curve<L>,
        server: &ServerPublicKey<L>,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Self {
        let secret = curve.random_scalar(rng);
        Self::from_secret(curve, server, secret)
    }

    /// Derives the key pair from an existing secret scalar — e.g. one
    /// produced by hashing a human-memorable password (§5.1 notes this
    /// option), or when re-binding to a new server (§5.3.4).
    pub fn from_secret(curve: &Curve<L>, server: &ServerPublicKey<L>, secret: U256) -> Self {
        let secret = secret.rem(curve.order());
        assert!(!secret.is_zero(), "secret must be nonzero mod q");
        let a_g = curve.g1_mul(server.g(), &secret);
        let a_s_g = curve.g1_mul(server.s_g(), &secret);
        Self {
            secret,
            public: UserPublicKey { a_g, a_s_g },
        }
    }

    /// The public key `(aG, a·sG)`.
    pub fn public(&self) -> &UserPublicKey<L> {
        &self.public
    }

    /// The secret scalar `a` (needed by decryption).
    pub fn secret_scalar(&self) -> &U256 {
        &self.secret
    }
}

impl<const L: usize> UserPublicKey<L> {
    /// Assembles a public key from raw points (e.g. received over the wire).
    /// Call [`UserPublicKey::validate`] before encrypting to it.
    ///
    /// # Errors
    /// Returns [`TreError::InvalidUserKey`] if either point is off the
    /// curve or outside the order-`q` subgroup. `validate` cannot see an
    /// `h`-torsion part: pairing with `G` cancels it.
    pub fn from_points(
        curve: &Curve<L>,
        a_g: G1Affine<L>,
        a_s_g: G1Affine<L>,
    ) -> Result<Self, TreError> {
        if curve.in_subgroup(&a_g) && curve.in_subgroup(&a_s_g) {
            Ok(Self { a_g, a_s_g })
        } else {
            Err(TreError::InvalidUserKey)
        }
    }

    /// Assembles a key the caller computed as `a·X` for subgroup points
    /// `X` (a re-bound `a·s'G'`), so the subgroup check would be wasted.
    pub(crate) fn from_derived_points(a_g: G1Affine<L>, a_s_g: G1Affine<L>) -> Self {
        Self { a_g, a_s_g }
    }

    /// The point `aG`.
    pub fn a_g(&self) -> &G1Affine<L> {
        &self.a_g
    }

    /// The point `a·sG`.
    pub fn a_s_g(&self) -> &G1Affine<L> {
        &self.a_s_g
    }

    /// The sender-side check `ê(aG, sG) = ê(G, asG)` (§5.1 Encryption
    /// step 1): confirms the key has the form `(aG, a·sG)`, i.e. the
    /// receiver genuinely needs the server's key update to decrypt.
    ///
    /// # Errors
    /// Returns [`TreError::InvalidUserKey`] if the check fails.
    pub fn validate(&self, curve: &Curve<L>, server: &ServerPublicKey<L>) -> Result<(), TreError> {
        let _span = tre_obs::span("tre.validate_user_key");
        if self.a_g.is_infinity() || self.a_s_g.is_infinity() {
            return Err(TreError::InvalidUserKey);
        }
        let lhs = curve.pairing(&self.a_g, server.s_g());
        let rhs = curve.pairing(server.g(), &self.a_s_g);
        if lhs == rhs {
            Ok(())
        } else {
            Err(TreError::InvalidUserKey)
        }
    }

    /// [`UserPublicKey::validate`] against a [`PreparedServerKey`]: the
    /// same `ê(aG, sG) = ê(G, asG)` check, rewritten by Type-1 symmetry
    /// as `ê(sG, aG) · ê(−G, asG) = 1` so both Miller loops run off the
    /// server key's prepared coefficients and share one squaring chain
    /// and final exponentiation.
    ///
    /// # Errors
    /// Returns [`TreError::InvalidUserKey`] if the check fails.
    pub fn validate_prepared(
        &self,
        curve: &Curve<L>,
        server: &PreparedServerKey<L>,
    ) -> Result<(), TreError> {
        let _span = tre_obs::span("tre.validate_user_key");
        if self.a_g.is_infinity() || self.a_s_g.is_infinity() {
            return Err(TreError::InvalidUserKey);
        }
        let ok = curve
            .multi_pairing_mixed(
                &[
                    (server.s_g_prep(), self.a_g),
                    (server.neg_g_prep(), self.a_s_g),
                ],
                &[],
            )
            .is_one(curve);
        if ok {
            Ok(())
        } else {
            Err(TreError::InvalidUserKey)
        }
    }

    /// Canonical body encoding `aG ‖ asG` (compressed points), appended
    /// to `out`.
    pub fn write_body(&self, curve: &Curve<L>, out: &mut Vec<u8>) {
        out.extend_from_slice(&curve.g1_to_bytes(&self.a_g));
        out.extend_from_slice(&curve.g1_to_bytes(&self.a_s_g));
    }

    /// Parses a canonical body `aG ‖ asG`.
    ///
    /// # Errors
    /// Returns [`TreError::Malformed`] on bad encodings. Does **not** run
    /// the pairing validation; call [`UserPublicKey::validate`].
    pub fn read_body(curve: &Curve<L>, bytes: &[u8]) -> Result<Self, TreError> {
        let n = curve.point_len();
        if bytes.len() != 2 * n {
            return Err(TreError::Malformed("user public key length"));
        }
        let a_g = curve
            .g1_from_bytes_checked(&bytes[..n])
            .map_err(|_| TreError::Malformed("user aG"))?;
        let a_s_g = curve
            .g1_from_bytes_checked(&bytes[n..])
            .map_err(|_| TreError::Malformed("user asG"))?;
        Ok(Self { a_g, a_s_g })
    }
}

impl<const L: usize> KeyUpdate<L> {
    /// Reassembles an update from its parts (e.g. from an archive lookup).
    pub fn from_parts(tag: ReleaseTag, sig: G1Affine<L>) -> Self {
        Self { tag, sig }
    }

    /// The release tag this update unlocks.
    pub fn tag(&self) -> &ReleaseTag {
        &self.tag
    }

    /// The signature point `s·H1(T)`.
    pub fn sig(&self) -> &G1Affine<L> {
        &self.sig
    }

    /// Self-authentication (§5.3.1): checks `ê(sG, H1(T)) = ê(G, I_T)`.
    /// No separate server signature is needed — this *is* a BLS short
    /// signature under the server key.
    pub fn verify(&self, curve: &Curve<L>, server: &ServerPublicKey<L>) -> bool {
        let _span = tre_obs::span("tre.verify");
        curve.pairing(server.s_g(), &h1(curve, &self.tag)) == curve.pairing(server.g(), &self.sig)
    }

    /// Canonical body encoding `tag ‖ sig` (compressed point), appended
    /// to `out`.
    pub fn write_body(&self, curve: &Curve<L>, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.tag.to_bytes());
        out.extend_from_slice(&curve.g1_to_bytes(&self.sig));
    }

    /// Parses a canonical body `tag ‖ sig`, requiring `bytes` to be
    /// consumed exactly.
    ///
    /// # Errors
    /// Returns [`TreError::Malformed`] on bad encodings.
    pub fn read_body(curve: &Curve<L>, bytes: &[u8]) -> Result<Self, TreError> {
        let (tag, consumed) =
            ReleaseTag::from_bytes(bytes).ok_or(TreError::Malformed("update tag"))?;
        let rest = &bytes[consumed..];
        if rest.len() != curve.point_len() {
            return Err(TreError::Malformed("update signature length"));
        }
        let sig = curve
            .g1_from_bytes_checked(rest)
            .map_err(|_| TreError::Malformed("update signature"))?;
        Ok(Self { tag, sig })
    }
}

/// Cached sender-side state for one `(server, receiver)` pair: the user
/// key is validated **once** (2 pairings), a fixed-base windowed table
/// is built for the ephemeral point `U = r·G`, and the receiver point
/// `asG` is prepared for the pairing.
///
/// Sealing uses bilinearity: `K = ê(r·asG, H1(T)) = ê(asG, P)^(r·h)`
/// for `H1(T) = h·P`, and the base `g_T = ê(asG, P)` depends only on the
/// tag. A single-entry tag memo keeps the odd-power table of `g_T` and
/// its exponent factor `h mod q` for the most recent release tag, so a
/// seal to the previous seal's tag costs one table-driven `r·G`, one
/// scalar-field multiplication and one `G_T` power with no pairing. A new
/// tag adds one candidate hash and one pairing (Type-1 symmetry puts the
/// fixed `asG` on the prepared side) and no cofactor clearing; only an
/// `h`-torsion candidate (`g_T = 1`) falls back to the cleared `H1(T)`
/// with factor 1.
#[derive(Debug)]
pub struct SenderPrecomp<const L: usize> {
    server: ServerPublicKey<L>,
    user: UserPublicKey<L>,
    g_table: G1Precomp<L>,
    a_s_g_prep: MillerPrecomp<L>,
    tag_memo: Mutex<Option<(ReleaseTag, SealBase<L>)>>,
}

/// One tag's sealing base: `K = g_T^(r·factor)`.
type SealBase<const L: usize> = (GtPrecomp<L>, U256);

impl<const L: usize> Clone for SenderPrecomp<L> {
    fn clone(&self) -> Self {
        Self {
            server: self.server,
            user: self.user,
            g_table: self.g_table.clone(),
            a_s_g_prep: self.a_s_g_prep.clone(),
            tag_memo: Mutex::new(self.tag_memo.lock().expect("memo poisoned").clone()),
        }
    }
}

impl<const L: usize> SenderPrecomp<L> {
    /// Validates `user` against `server` (the §5.1 pairing check, once),
    /// builds the `G` table and prepares `asG`.
    ///
    /// # Errors
    /// Returns [`TreError::InvalidUserKey`] if the receiver key fails
    /// `ê(aG, sG) = ê(G, asG)`.
    pub fn new(
        curve: &Curve<L>,
        server: &ServerPublicKey<L>,
        user: &UserPublicKey<L>,
    ) -> Result<Self, TreError> {
        let _span = tre_obs::span("tre.sender_precomp");
        user.validate(curve, server)?;
        let g_table = G1Precomp::new(curve, server.g());
        Ok(Self::build(curve, server, user, g_table))
    }

    /// [`SenderPrecomp::new`] against a [`PreparedServerKey`]: the
    /// validation pairings replay the server key's prepared Miller
    /// coefficients and the `G` table is **reused** from the prepared
    /// key instead of being rebuilt — a hub encrypting to many
    /// receivers under one server pays the generator table once, at its
    /// first call.
    ///
    /// # Errors
    /// Returns [`TreError::InvalidUserKey`] if the receiver key fails
    /// `ê(aG, sG) = ê(G, asG)`.
    pub fn with_server(
        curve: &Curve<L>,
        server: &PreparedServerKey<L>,
        user: &UserPublicKey<L>,
    ) -> Result<Self, TreError> {
        let _span = tre_obs::span("tre.sender_precomp");
        user.validate_prepared(curve, server)?;
        let g_table = server.g_table(curve).clone();
        Ok(Self::build(curve, server.key(), user, g_table))
    }

    fn build(
        curve: &Curve<L>,
        server: &ServerPublicKey<L>,
        user: &UserPublicKey<L>,
        g_table: G1Precomp<L>,
    ) -> Self {
        Self {
            server: *server,
            user: *user,
            g_table,
            a_s_g_prep: curve.prepare(user.a_s_g()),
            tag_memo: Mutex::new(None),
        }
    }

    /// The sealing key `K = ê(r·asG, H1(T))`, computed as
    /// `g_T^(r·factor)` off the single-entry tag memo. The lock is held
    /// only to read or replace the entry; a miss hashes and pairs outside
    /// it.
    pub(crate) fn seal_key(&self, curve: &Curve<L>, tag: &ReleaseTag, r: &U256) -> Gt<L> {
        let hit = self
            .tag_memo
            .lock()
            .expect("memo poisoned")
            .as_ref()
            .filter(|(t, _)| t == tag)
            .map(|(_, base)| base.clone());
        let (g_t, factor) = hit.unwrap_or_else(|| {
            let base = self.seal_base(curve, tag);
            *self.tag_memo.lock().expect("memo poisoned") = Some((tag.clone(), base.clone()));
            base
        });
        g_t.pow(&curve.scalar_mul(r, &factor), curve)
    }

    /// `(ê(asG, P), h mod q)` for `H1(T)`'s uncleared candidate `P`, or
    /// `(ê(asG, H1(T)), 1)` when `P` is `h`-torsion.
    fn seal_base(&self, curve: &Curve<L>, tag: &ReleaseTag) -> SealBase<L> {
        let g_t = curve.pairing_prepared(&self.a_s_g_prep, &h1_candidate(curve, tag));
        if g_t.is_one(curve) {
            let g_t = curve.pairing_prepared(&self.a_s_g_prep, &h1(curve, tag));
            return (GtPrecomp::new(curve, &g_t), U256::ONE);
        }
        (GtPrecomp::new(curve, &g_t), *curve.cofactor_mod_q())
    }

    /// The server key the tables are bound to.
    pub fn server(&self) -> &ServerPublicKey<L> {
        &self.server
    }

    /// The (validated) receiver key the tables are bound to.
    pub fn user(&self) -> &UserPublicKey<L> {
        &self.user
    }

    /// Fixed-base table for the server generator `G`.
    pub fn g_table(&self) -> &G1Precomp<L> {
        &self.g_table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_pairing::toy64;

    #[test]
    fn server_keygen_and_update_verify() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let tag = ReleaseTag::time("2026-07-04T12:00:00Z");
        let update = server.issue_update(curve, &tag);
        assert!(update.verify(curve, server.public()));
        assert_eq!(update.tag(), &tag);
    }

    #[test]
    fn update_fails_against_wrong_server() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server1 = ServerKeyPair::generate(curve, &mut rng);
        let server2 = ServerKeyPair::generate(curve, &mut rng);
        let update = server1.issue_update(curve, &ReleaseTag::time("t"));
        assert!(!update.verify(curve, server2.public()));
    }

    #[test]
    fn forged_update_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        // An adversary without s signs with a random scalar.
        let forged_sig = curve.g1_mul(
            &curve.hash_to_g1(b"time", b"t"),
            &curve.random_scalar(&mut rng),
        );
        let forged = KeyUpdate::from_parts(ReleaseTag::time("t"), forged_sig);
        assert!(!forged.verify(curve, server.public()));
    }

    #[test]
    fn update_for_other_tag_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let update = server.issue_update(curve, &ReleaseTag::time("t1"));
        // Re-labelling an authentic update as a different tag must fail.
        let relabeled = KeyUpdate::from_parts(ReleaseTag::time("t2"), *update.sig());
        assert!(!relabeled.verify(curve, server.public()));
        // Policy tag with the same bytes is also distinct.
        let cross_kind = KeyUpdate::from_parts(ReleaseTag::policy("t1"), *update.sig());
        assert!(!cross_kind.verify(curve, server.public()));
    }

    #[test]
    fn user_keygen_validates() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        assert!(user.public().validate(curve, server.public()).is_ok());
    }

    #[test]
    fn malformed_user_key_rejected() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        // (aG, bG) with b != a·s fails the check — such a key would not
        // need the update, so honest senders refuse it.
        let a = curve.random_scalar(&mut rng);
        let b = curve.random_scalar(&mut rng);
        let bogus = UserPublicKey::from_points(
            curve,
            curve.g1_mul(server.public().g(), &a),
            curve.g1_mul(server.public().g(), &b),
        )
        .unwrap();
        assert_eq!(
            bogus.validate(curve, server.public()),
            Err(TreError::InvalidUserKey)
        );
    }

    #[test]
    fn h_torsion_user_key_rejected_at_assembly() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        let (a_g, a_s_g) = (*user.public().a_g(), *user.public().a_s_g());
        for t in h_torsion_points() {
            // `asG + T` pairs with `G` exactly as `asG` does, so both
            // pairing checks accept the tainted key ...
            let tainted = UserPublicKey {
                a_g,
                a_s_g: curve.g1_add(&a_s_g, &t),
            };
            assert_eq!(tainted.validate(curve, server.public()), Ok(()));
            assert_eq!(tainted.validate_prepared(curve, &prepared), Ok(()));
            // ... and only the subgroup check at assembly refuses it.
            assert_eq!(
                UserPublicKey::from_points(curve, tainted.a_g, tainted.a_s_g),
                Err(TreError::InvalidUserKey)
            );
            assert_eq!(
                UserPublicKey::from_points(curve, curve.g1_add(&a_g, &t), a_s_g),
                Err(TreError::InvalidUserKey)
            );
            assert_eq!(
                crate::server_change::ReboundKey::from_points(curve, a_g, tainted.a_s_g),
                Err(TreError::InvalidUserKey)
            );
        }
        assert_eq!(
            UserPublicKey::from_points(curve, a_g, a_s_g),
            Ok(*user.public())
        );
    }

    #[test]
    fn user_key_bound_to_server() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let s1 = ServerKeyPair::generate(curve, &mut rng);
        let s2 = ServerKeyPair::generate(curve, &mut rng);
        let user = UserKeyPair::generate(curve, s1.public(), &mut rng);
        assert!(user.public().validate(curve, s2.public()).is_err());
    }

    macro_rules! body {
        ($curve:expr, $x:expr) => {{
            let mut out = Vec::new();
            $x.write_body($curve, &mut out);
            out
        }};
    }

    #[test]
    fn serialization_roundtrips() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let spk = server.public();
        assert_eq!(
            ServerPublicKey::read_body(curve, &body!(curve, spk)).unwrap(),
            *spk
        );
        let user = UserKeyPair::generate(curve, spk, &mut rng);
        let upk = user.public();
        assert_eq!(
            UserPublicKey::read_body(curve, &body!(curve, upk)).unwrap(),
            *upk
        );
        let update = server.issue_update(curve, &ReleaseTag::time("x"));
        assert_eq!(
            KeyUpdate::read_body(curve, &body!(curve, &update)).unwrap(),
            update
        );
        // Truncations rejected.
        assert!(ServerPublicKey::read_body(curve, &body!(curve, spk)[1..]).is_err());
        assert!(UserPublicKey::read_body(curve, &[]).is_err());
        assert!(KeyUpdate::read_body(curve, &body!(curve, &update)[..4]).is_err());
    }

    #[test]
    fn deterministic_from_secret() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let g = curve.generator();
        let s1 = ServerKeyPair::from_secret(curve, g, tre_bigint::U256::from_u64(12345));
        let s2 = ServerKeyPair::from_secret(curve, g, tre_bigint::U256::from_u64(12345));
        assert_eq!(s1.public(), s2.public());
        let u1 = UserKeyPair::from_secret(curve, s1.public(), tre_bigint::U256::from_u64(777));
        let u2 = UserKeyPair::from_secret(curve, s2.public(), tre_bigint::U256::from_u64(777));
        assert_eq!(u1.public(), u2.public());
        let _ = &mut rng;
    }

    #[test]
    fn password_derived_secret() {
        // §5.1: "The secret key a could be generated by applying a good hash
        // function to a human-memorable password".
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let pw_hash = tre_hashes::Sha256::digest(b"correct horse battery staple");
        use tre_hashes::Digest;
        let secret = curve.scalar_from_bytes_mod(&pw_hash);
        let user = UserKeyPair::from_secret(curve, server.public(), secret);
        assert!(user.public().validate(curve, server.public()).is_ok());
    }

    fn epoch_updates(server: &ServerKeyPair<8>, n: usize) -> Vec<KeyUpdate<8>> {
        let curve = toy64();
        (0..n)
            .map(|i| server.issue_update(curve, &ReleaseTag::time(format!("epoch-{i}"))))
            .collect()
    }

    /// The one verifier's verdict on a single update.
    fn accepts(
        server: &PreparedServerKey<8>,
        update: &KeyUpdate<8>,
        forecast: Option<&VerifyForecast<8>>,
    ) -> bool {
        server
            .verify_burst(toy64(), std::slice::from_ref(update), forecast, 1)
            .is_empty()
    }

    #[test]
    fn clean_burst_is_two_pairings() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let updates = epoch_updates(&server, 64);
        tre_obs::enable();
        assert!(prepared.verify_burst(curve, &updates, None, 1).is_empty());
        let trace = tre_obs::finish();
        let span = &trace.spans_named("tre.batch_verify")[0];
        assert_eq!(
            span.ops.pairings, 2,
            "64 updates must cost 2 pairing lanes, not 128"
        );
        assert!(
            trace.spans_named("tre.verify").is_empty(),
            "a burst verifies no update singly"
        );
    }

    #[test]
    fn burst_is_deterministic_and_thread_invariant() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let mut updates = epoch_updates(&server, 9);
        for threads in [0usize, 1, 4] {
            assert!(prepared
                .verify_burst(curve, &updates, None, threads)
                .is_empty());
        }
        assert!(prepared.verify_burst(curve, &[], None, 1).is_empty());
        for i in [2usize, 7] {
            updates[i] =
                KeyUpdate::from_parts(updates[i].tag().clone(), curve.g1_double(updates[i].sig()));
        }
        let ops_of = |threads: usize| {
            tre_obs::enable();
            assert_eq!(
                prepared.verify_burst(curve, &updates, None, threads),
                vec![2, 7]
            );
            tre_obs::finish().total_ops()
        };
        // The exponents are a function of the burst alone, so the
        // bisection replays the same scalar multiplications every run.
        assert_eq!(ops_of(1), ops_of(1));
        for threads in [0usize, 4] {
            ops_of(threads);
        }
    }

    #[test]
    fn burst_isolates_forgeries() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let mut updates = epoch_updates(&server, 16);
        let forged_sig = curve.g1_mul(
            &curve.hash_to_g1(b"time", b"epoch-5"),
            &curve.random_scalar(&mut rng),
        );
        updates[5] = KeyUpdate::from_parts(ReleaseTag::time("epoch-5"), forged_sig);
        assert!(!updates[5].verify(curve, server.public()));
        assert_eq!(prepared.verify_burst(curve, &updates, None, 1), vec![5]);
    }

    #[test]
    fn single_update_same_pairings_fewer_fp_muls() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let update = server.issue_update(curve, &ReleaseTag::time("t"));

        tre_obs::enable();
        assert!(update.verify(curve, server.public()));
        let textbook = tre_obs::finish().total_ops();

        tre_obs::enable();
        assert!(accepts(&prepared, &update, None));
        let prep = tre_obs::finish().total_ops();

        assert_eq!(textbook.pairings, prep.pairings, "same pairing accounting");
        assert!(
            prep.fp_muls < textbook.fp_muls,
            "the one verifier ({}) must spend strictly fewer base-field muls \
             than the textbook check ({})",
            prep.fp_muls,
            textbook.fp_muls
        );
    }

    /// Every bad kind at every position of bursts of 1, 2, 3 and 17, on
    /// 1 and 4 threads (a single update also under its forecast): the
    /// one verifier names exactly the indices the textbook `verify`
    /// rejects.
    #[test]
    fn burst_verdicts_match_textbook_at_every_position() {
        let curve = toy64();
        let mut rng = tre_hashes::HmacDrbg::new(b"burst table", b"keys");
        let server = ServerKeyPair::generate(curve, &mut rng);
        let other = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let bad = ReleaseTag::time("burst-table/bad");
        let torsion = ReleaseTag::time("burst-table/torsion");
        inject(&torsion, Some(&h_torsion_points()[1]));
        let torsion_valid = server.issue_update(curve, &torsion);
        let kinds = [
            (
                "forged",
                KeyUpdate::from_parts(
                    bad.clone(),
                    curve.g1_mul(
                        &curve.hash_to_g1(bad.h1_domain(), bad.value()),
                        &curve.random_scalar(&mut rng),
                    ),
                ),
            ),
            (
                "relabelled",
                KeyUpdate::from_parts(
                    bad.clone(),
                    *server
                        .issue_update(curve, &ReleaseTag::time("burst-table/next"))
                        .sig(),
                ),
            ),
            ("foreign key", other.issue_update(curve, &bad)),
            (
                "infinity",
                KeyUpdate::from_parts(bad.clone(), G1Affine::infinity(curve.fp())),
            ),
            (
                "h-torsion forged",
                KeyUpdate::from_parts(torsion.clone(), curve.g1_double(torsion_valid.sig())),
            ),
            ("h-torsion valid", torsion_valid),
        ];
        let honest = epoch_updates(&server, 17);
        // The oracle, once per distinct update.
        let honest_ok: Vec<bool> = honest
            .iter()
            .map(|u| u.verify(curve, server.public()))
            .collect();
        assert!(honest_ok.iter().all(|&ok| ok));
        for (kind, update) in &kinds {
            let kind_ok = update.verify(curve, server.public());
            assert_eq!(kind_ok, *kind == "h-torsion valid", "{kind}");
            for n in [1usize, 2, 3, 17] {
                for pos in 0..n {
                    let mut burst = honest[..n].to_vec();
                    burst[pos] = update.clone();
                    let verdict = |i: usize| if i == pos { kind_ok } else { honest_ok[i] };
                    let textbook: Vec<usize> = (0..n).filter(|&i| !verdict(i)).collect();
                    // A burst ignores the forecast, so only n = 1 takes one.
                    let forecast = prepared.forecast(curve, burst[0].tag());
                    let forecasts = if n == 1 {
                        vec![None, Some(&forecast)]
                    } else {
                        vec![None]
                    };
                    for threads in [1usize, 4] {
                        for &fc in &forecasts {
                            assert_eq!(
                                prepared.verify_burst(curve, &burst, fc, threads),
                                textbook,
                                "{kind} at {pos} of {n}, {threads} threads, \
                                 forecast {}",
                                fc.is_some()
                            );
                        }
                    }
                }
            }
        }
        inject(&torsion, None);
    }

    /// The candidate seam: an entry `(tag, point)` makes
    /// [`h1_candidate`] return `point` for `tag`, on every thread (a
    /// burst hashes its candidates on worker threads). Each test injects
    /// under its own tag.
    static INJECTED: Mutex<Vec<(ReleaseTag, Vec<u8>)>> = Mutex::new(Vec::new());

    pub(super) fn injected_candidate<const L: usize>(
        curve: &Curve<L>,
        tag: &ReleaseTag,
    ) -> Option<G1Affine<L>> {
        let slot = INJECTED.lock().unwrap_or_else(|e| e.into_inner());
        let (_, bytes) = slot.iter().find(|(t, _)| t == tag)?;
        Some(curve.g1_from_bytes(bytes).expect("injected point"))
    }

    fn inject(tag: &ReleaseTag, point: Option<&G1Affine<8>>) {
        let mut slot = INJECTED.lock().unwrap_or_else(|e| e.into_inner());
        slot.retain(|(t, _)| t != tag);
        slot.extend(point.map(|p| (tag.clone(), toy64().g1_to_bytes(p))));
    }

    /// The `h`-torsion points a candidate could be: the order-2 point
    /// `(0, 0)` and an order-4 point with `x = ±1`.
    fn h_torsion_points() -> Vec<G1Affine<8>> {
        let curve = toy64();
        let one = tre_bigint::Uint::<8>::ONE;
        let minus_one = curve.fp().modulus().wrapping_sub(&one);
        let at = |x: tre_bigint::Uint<8>| {
            let mut bytes = vec![2];
            bytes.extend_from_slice(&x.to_be_bytes());
            curve.g1_from_bytes(&bytes).ok()
        };
        let points = vec![
            at(tre_bigint::Uint::ZERO).expect("(0, 0) is on the curve"),
            at(one)
                .or_else(|| at(minus_one))
                .expect("x = 1 or x = −1 is on the curve"),
        ];
        for p in &points {
            assert!(is_h_torsion(curve, p));
        }
        assert!(
            curve.g1_double(&points[1]) == points[0],
            "the second point has order 4"
        );
        points
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// The one verifier's verdicts — one update with no forecast, a
        /// forecast hit, either kind of miss (another tag, another key's
        /// pairing), and a 3-update burst — equal the textbook `verify`
        /// for valid, forged, relabelled, foreign-key and
        /// infinity-signature updates.
        #[test]
        fn forecast_verdict_matches_prepared(
            seed in proptest::any::<[u8; 16]>(),
            tag in proptest::collection::vec(proptest::any::<u8>(), 0..24),
        ) {
            let curve = toy64();
            let mut rng = tre_hashes::HmacDrbg::new(&seed, b"forecast");
            let server = ServerKeyPair::generate(curve, &mut rng);
            let other = ServerKeyPair::generate(curve, &mut rng);
            let prepared = server.public().prepare(curve);
            let tag = ReleaseTag::time(tag);
            let next = ReleaseTag::time("the next epoch");
            let valid = server.issue_update(curve, &tag);
            let forged = KeyUpdate::from_parts(
                tag.clone(),
                curve.g1_mul(
                    &curve.hash_to_g1(tag.h1_domain(), tag.value()),
                    &curve.random_scalar(&mut rng),
                ),
            );
            let relabelled =
                KeyUpdate::from_parts(tag.clone(), *server.issue_update(curve, &next).sig());
            let foreign = other.issue_update(curve, &tag);
            let at_infinity = KeyUpdate::from_parts(tag.clone(), G1Affine::infinity(curve.fp()));
            let forecasts = [
                prepared.forecast(curve, &tag),
                prepared.forecast(curve, &next),
                other.public().prepare(curve).forecast(curve, &tag),
            ];
            let honest = |label: &str| server.issue_update(curve, &ReleaseTag::time(label));
            for update in [&valid, &forged, &relabelled, &foreign, &at_infinity] {
                let textbook = update.verify(curve, server.public());
                proptest::prop_assert_eq!(accepts(&prepared, update, None), textbook);
                for forecast in &forecasts {
                    proptest::prop_assert_eq!(accepts(&prepared, update, Some(forecast)), textbook);
                }
                let burst = [honest("before"), update.clone(), honest("after")];
                let isolated = if textbook { vec![] } else { vec![1] };
                proptest::prop_assert_eq!(prepared.verify_burst(curve, &burst, None, 1), isolated);
            }
            proptest::prop_assert!(accepts(&prepared, &valid, Some(&forecasts[0])));
        }
    }

    /// An `h`-torsion candidate (probability `1/q` for a real tag) makes
    /// verify, forecast, batch and seal each fall back to the cleared
    /// `H1(T)` and agree with the textbook path.
    #[test]
    fn h_torsion_candidate_falls_back_to_cleared_hash() {
        let curve = toy64();
        let mut rng = tre_hashes::HmacDrbg::new(b"torsion seam", b"keys");
        let server = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        let tag = ReleaseTag::time("torsion");
        let valid = server.issue_update(curve, &tag);
        let forged = KeyUpdate::from_parts(tag.clone(), curve.g1_double(valid.sig()));
        // Against an h-torsion candidate the folded check alone would
        // read ê(−G, O) = 1 and pass this one.
        let at_infinity = KeyUpdate::from_parts(tag.clone(), G1Affine::infinity(curve.fp()));
        let h_t = curve.hash_to_g1(tag.h1_domain(), tag.value());
        let r = curve.random_scalar(&mut rng);
        let textbook_key = curve.pairing(&curve.g1_mul(user.public().a_s_g(), &r), &h_t);
        let clean_forecast = prepared.forecast(curve, &tag);
        for point in h_torsion_points() {
            inject(&tag, Some(&point));
            assert_eq!(h1_candidate(curve, &tag), point, "the seam is live");

            tre_obs::enable();
            assert!(accepts(&prepared, &valid, None));
            let ops = tre_obs::finish().total_ops();
            assert_eq!(ops.pairings, 4, "folded check, then the full one");
            assert_eq!(
                ops.scalar_mults, 2,
                "the torsion test and the hash's clearing"
            );
            assert!(!accepts(&prepared, &forged, None));
            assert!(!accepts(&prepared, &at_infinity, None));

            let forecast = prepared.forecast(curve, &tag);
            assert_eq!(
                forecast.y, clean_forecast.y,
                "y_T is ê(sG, H1(T)) either way"
            );
            assert!(accepts(&prepared, &valid, Some(&forecast)));
            assert!(!accepts(&prepared, &forged, Some(&forecast)));

            let mut burst: Vec<_> = (0..4)
                .map(|i| server.issue_update(curve, &ReleaseTag::time(format!("t{i}"))))
                .collect();
            burst.insert(2, valid.clone());
            assert!(prepared.verify_burst(curve, &burst, None, 1).is_empty());
            for bad in [&forged, &at_infinity] {
                burst[2] = bad.clone();
                assert_eq!(prepared.verify_burst(curve, &burst, None, 1), vec![2]);
            }

            let sender = SenderPrecomp::new(curve, server.public(), user.public()).unwrap();
            tre_obs::enable();
            assert_eq!(sender.seal_key(curve, &tag, &r), textbook_key);
            let ops = tre_obs::finish().total_ops();
            assert_eq!(ops.pairings, 2, "the torsion candidate's pairing is 1");
            assert_eq!(sender.seal_key(curve, &tag, &r), textbook_key, "memo hit");
        }
        inject(&tag, None);
    }

    /// Op-count guards for the fold: an honest prepared verify is 2
    /// lanes and no `G1` scalar multiplication, a forgery adds the one
    /// clearing (no second hash, no extra lane), and a seal-memo miss is
    /// one pairing with no scalar multiplication.
    #[test]
    fn folded_cofactor_op_counts() {
        let curve = toy64();
        let mut rng = tre_hashes::HmacDrbg::new(b"fold op counts", b"keys");
        let server = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let tag = ReleaseTag::time("fold");
        let valid = server.issue_update(curve, &tag);
        let forged = KeyUpdate::from_parts(tag.clone(), curve.g1_double(valid.sig()));
        let ops_of = |f: &dyn Fn() -> bool, verdict: bool| {
            tre_obs::enable();
            assert_eq!(f(), verdict);
            tre_obs::finish().total_ops()
        };
        let honest = ops_of(&|| accepts(&prepared, &valid, None), true);
        assert_eq!(honest.pairings, 2);
        assert_eq!(
            honest.scalar_mults, 0,
            "an honest verify clears no cofactor"
        );
        assert!(honest.h2c_iters >= 1);
        let forgery = ops_of(&|| accepts(&prepared, &forged, None), false);
        assert_eq!(forgery.pairings, 2, "a forgery costs no extra lane");
        assert_eq!(forgery.scalar_mults, 1, "one clearing decides the fail");
        assert_eq!(forgery.h2c_iters, honest.h2c_iters, "and no second hash");

        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        let sender = SenderPrecomp::new(curve, server.public(), user.public()).unwrap();
        let r = curve.random_scalar(&mut rng);
        tre_obs::enable();
        sender.seal_key(curve, &tag, &r);
        let miss = tre_obs::finish().total_ops();
        assert_eq!(miss.pairings, 1, "a seal miss pairs once");
        assert_eq!(miss.scalar_mults, 0, "and multiplies no point");
    }

    #[test]
    fn forecast_hit_is_one_lane_and_no_hash() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let tag = ReleaseTag::time("t");
        let update = server.issue_update(curve, &tag);
        let hit = prepared.forecast(curve, &tag);
        let miss = prepared.forecast(curve, &ReleaseTag::time("u"));
        let ops_of = |f: &dyn Fn() -> bool| {
            tre_obs::enable();
            assert!(f());
            tre_obs::finish().total_ops()
        };

        let full = ops_of(&|| accepts(&prepared, &update, None));
        let on_hit = ops_of(&|| accepts(&prepared, &update, Some(&hit)));
        let on_miss = ops_of(&|| accepts(&prepared, &update, Some(&miss)));
        assert_eq!(on_hit.h2c_iters, 0, "a hit hashes nothing");
        assert_eq!(on_hit.pairings, 1, "a hit runs one pairing lane");
        assert!(
            on_hit.fp_muls < full.fp_muls,
            "a hit ({}) must spend fewer Fp muls than the full check ({})",
            on_hit.fp_muls,
            full.fp_muls
        );
        assert_eq!(on_miss, full, "a miss runs the full prepared check");

        // The signer's side: a pre-hashed tag signs with one s·H and
        // yields the same update.
        let hashed = TagForecast::hash(curve, &tag);
        tre_obs::enable();
        let signed = server.issue_forecast(curve, &hashed);
        let sign = tre_obs::finish().total_ops();
        assert_eq!(signed, update);
        assert_eq!(sign.h2c_iters, 0, "a pre-hashed tag signs without hashing");
        assert_eq!(sign.scalar_mults, 1, "one s·H");
    }

    #[test]
    fn prepared_user_key_validation_agrees() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let prepared = server.public().prepare(curve);
        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        assert!(user.public().validate_prepared(curve, &prepared).is_ok());
        let bogus = UserPublicKey::from_points(
            curve,
            curve.g1_mul(server.public().g(), &curve.random_scalar(&mut rng)),
            curve.g1_mul(server.public().g(), &curve.random_scalar(&mut rng)),
        )
        .unwrap();
        assert_eq!(
            bogus.validate_prepared(curve, &prepared),
            Err(TreError::InvalidUserKey)
        );
    }

    #[test]
    fn sender_precomp_with_server_reuses_generator_table() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        let prepared = server.public().prepare(curve);
        // The table is built on first read; this test measures reuse.
        prepared.g_table(curve);

        tre_obs::enable();
        let fresh = SenderPrecomp::new(curve, server.public(), user.public()).unwrap();
        let cost_fresh = tre_obs::finish().total_ops().fp_muls;

        tre_obs::enable();
        let reused = SenderPrecomp::with_server(curve, &prepared, user.public()).unwrap();
        let cost_reused = tre_obs::finish().total_ops().fp_muls;

        assert!(
            cost_reused < cost_fresh,
            "reusing the prepared G table ({cost_reused} fp muls) must beat \
             rebuilding it ({cost_fresh} fp muls)"
        );
        // Both precomps drive identical encryptions.
        let r = curve.random_scalar(&mut rng);
        assert_eq!(
            fresh.g_table().mul(curve, &r),
            reused.g_table().mul(curve, &r)
        );
        let tag = ReleaseTag::time("t");
        assert_eq!(
            fresh.seal_key(curve, &tag, &r),
            reused.seal_key(curve, &tag, &r)
        );
        // And the prepared validation still refuses malformed keys.
        let bogus = UserPublicKey::from_points(
            curve,
            curve.g1_mul(server.public().g(), &curve.random_scalar(&mut rng)),
            curve.g1_mul(server.public().g(), &curve.random_scalar(&mut rng)),
        )
        .unwrap();
        assert!(matches!(
            SenderPrecomp::with_server(curve, &prepared, &bogus),
            Err(TreError::InvalidUserKey)
        ));
    }

    /// `f`'s result and the crypto ops it ran on this thread.
    fn ops<R>(f: impl FnOnce() -> R) -> (R, tre_obs::CryptoOps) {
        tre_obs::enable();
        let r = f();
        (r, tre_obs::finish().total_ops())
    }

    #[test]
    fn prepare_builds_tables_on_first_read() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        let pk = server.public();

        // Eager: three Miller preparations and one g1_mul, no table.
        let h_s_g = curve.g1_mul(pk.s_g(), curve.cofactor_mod_q());
        let (_, eager) = ops(|| {
            curve.g1_mul(pk.s_g(), curve.cofactor_mod_q());
            for p in [*pk.s_g(), h_s_g, curve.g1_neg(pk.g())] {
                curve.prepare(&p);
            }
        });
        let (prepared, cost) = ops(|| pk.prepare(curve));
        assert!(
            cost.fp_muls <= eager.fp_muls,
            "prepare spent {} fp muls; 3 preparations and 1 g1_mul cost {}",
            cost.fp_muls,
            eager.fp_muls
        );
        assert!(prepared.g_table.get().is_none() && prepared.s_g_table.get().is_none());

        // Two hub sessions on one prepared key build the G table once.
        let (_, table) = ops(|| G1Precomp::new(curve, pk.g()));
        let (first, cost_first) =
            ops(|| SenderPrecomp::with_server(curve, &prepared, user.public()).unwrap());
        let (_, cost_second) =
            ops(|| SenderPrecomp::with_server(curve, &prepared, user.public()).unwrap());
        assert_eq!(cost_first.fp_muls, cost_second.fp_muls + table.fp_muls);
        let r = curve.random_scalar(&mut rng);
        assert_eq!(first.g_table().mul(curve, &r), curve.g1_mul(pk.g(), &r));

        // The sG table, read once, matches the generic path.
        assert!(prepared.s_g_table.get().is_none());
        let (mul, _) = ops(|| prepared.s_g_table(curve).mul(curve, &r));
        assert_eq!(mul, curve.g1_mul(pk.s_g(), &r));
        let (_, reread) = ops(|| prepared.s_g_table(curve));
        assert_eq!(reread, tre_obs::CryptoOps::default());
    }

    #[test]
    fn sender_precomp_validates_once_and_matches_points() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let user = UserKeyPair::generate(curve, server.public(), &mut rng);
        let pre = SenderPrecomp::new(curve, server.public(), user.public()).unwrap();
        let r = curve.random_scalar(&mut rng);
        assert_eq!(
            pre.g_table().mul(curve, &r),
            curve.g1_mul(server.public().g(), &r)
        );
        // The memoized G_T power is the §5.1 key ê(r·asG, H1(T)).
        let tag = ReleaseTag::time("t");
        assert_eq!(
            pre.seal_key(curve, &tag, &r),
            curve.pairing(
                &curve.g1_mul(user.public().a_s_g(), &r),
                &curve.hash_to_g1(tag.h1_domain(), tag.value())
            )
        );
        // A malformed key is refused at table-build time.
        let bogus = UserPublicKey::from_points(
            curve,
            curve.g1_mul(server.public().g(), &curve.random_scalar(&mut rng)),
            curve.g1_mul(server.public().g(), &curve.random_scalar(&mut rng)),
        )
        .unwrap();
        assert!(matches!(
            SenderPrecomp::new(curve, server.public(), &bogus),
            Err(TreError::InvalidUserKey)
        ));
    }
}
