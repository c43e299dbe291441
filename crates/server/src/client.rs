//! A resilient receiver client: holds pending timed-release ciphertexts,
//! consumes key updates from the broadcast channel, recovers missed
//! updates from the archive with bounded exponential backoff, and records
//! *when* each message actually became readable (the measurement behind
//! the release-precision experiment E4 and the fault experiments E13).
//!
//! The client is written as a small state machine hardened against the
//! fault model of §6:
//!
//! * **Duplicates** — re-broadcast updates hit a dedup cache and are
//!   skipped *without* re-running pairing verification (two pairings per
//!   verify make this the dominant cost on the receive path).
//! * **Equivocation** — honest updates are deterministic, so a *different*
//!   update for an already-verified tag is cryptographic evidence of a
//!   Byzantine server; it is counted and rejected by byte comparison, no
//!   pairing needed.
//! * **Invalid updates** — rejected, counted, and tracked as a consecutive
//!   streak; a long streak quarantines the broadcast path (the client
//!   should then prefer the archive).
//! * **Archive faults** — failed fetches back off exponentially per tag
//!   (bounded, so liveness is preserved once the archive heals).
//! * **Decryption failures** — no longer silently discarded: failed
//!   ciphertexts land in a dead-letter queue with their error.

use std::collections::{HashMap, HashSet};

use tre_core::{
    tre, Admission, KeyUpdate, Receiver, ReleaseTag, ServerPublicKey, TreError, UserKeyPair,
};
use tre_pairing::Curve;

use crate::archive::UpdateArchive;
use crate::feed::{Feed, SubscriberId};
use crate::metrics::ClientHealth;
use crate::telemetry::{Stage, TraceSink};

/// A message successfully opened by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenedMessage {
    /// The recovered plaintext.
    pub plaintext: Vec<u8>,
    /// The release tag it was locked to.
    pub tag: ReleaseTag,
    /// Clock tick at which the ciphertext arrived.
    pub received_at: u64,
    /// Clock tick at which decryption became possible (update in hand).
    pub opened_at: u64,
}

/// Retry policy for archive recovery: delays grow `base, 2·base, 4·base, …`
/// per consecutive failure, capped at `max` — bounded, so a healed archive
/// is always retried within `max` ticks (liveness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay after the first failure, in clock ticks.
    pub base: u64,
    /// Upper bound on the delay, in clock ticks.
    pub max: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        Self { base: 1, max: 64 }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RetryState {
    attempts: u32,
    next_attempt_at: u64,
}

/// Consecutive invalid updates after which the broadcast path is
/// considered compromised (see [`ReceiverClient::is_quarantined`]).
pub const DEFAULT_QUARANTINE_THRESHOLD: u32 = 3;

/// What happened to one update of a burst fed to
/// [`ReceiverClient::receive_updates`], in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// Verified and admitted; `opened` pending ciphertexts unlocked.
    Accepted {
        /// Messages this update opened.
        opened: usize,
    },
    /// Byte-identical to an already-held update (cached, or earlier in
    /// the same burst and verified); skipped without crypto.
    Duplicate,
    /// Conflicts with a different update for the same tag — Byzantine
    /// evidence. When the conflict is *within* the burst, every copy for
    /// that tag is rejected unverified (none can be trusted).
    Equivocation,
    /// Failed batch self-authentication (isolated by bisection), or is
    /// a copy of such an update within the burst.
    Invalid,
}

/// Summary of one [`ReceiverClient::receive_updates`] burst.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Per-input outcome, aligned with the input slice.
    pub outcomes: Vec<UpdateOutcome>,
    /// Updates verified and admitted.
    pub accepted: usize,
    /// Messages opened across all accepted updates.
    pub opened: usize,
    /// Exact duplicates skipped.
    pub duplicates: usize,
    /// Equivocating updates rejected.
    pub equivocations: usize,
    /// Updates failing signature verification.
    pub rejected: usize,
}

/// A receiver endpoint, usable against any [`Feed`] (simulated
/// broadcast, live TCP, supervised, or committee).
///
/// The cryptographic state — user key pair, server binding, and the
/// cache of *verified* updates — lives in a [`tre_core::Receiver`]
/// session; this type layers the distribution-side resilience on top:
/// pending queues, batch verification, archive recovery with backoff,
/// health accounting, and quarantine.
pub struct ReceiverClient<'c, const L: usize> {
    session: Receiver<'c, L>,
    pending: Vec<(tre::Ciphertext<L>, u64)>,
    opened: Vec<OpenedMessage>,
    dead_letters: Vec<(tre::Ciphertext<L>, TreError)>,
    retry: HashMap<ReleaseTag, RetryState>,
    backoff: BackoffConfig,
    quarantine_threshold: u32,
    threads: usize,
    highest_epoch: Option<u64>,
    health: ClientHealth,
    trace: Option<TraceSink>,
}

/// Best-effort epoch hint from the `epoch/<unit>/<n>` tag convention —
/// the client needs no granularity knowledge to spot broadcast gaps.
fn epoch_hint(tag: &ReleaseTag) -> Option<u64> {
    let s = core::str::from_utf8(tag.value()).ok()?;
    let rest = s.strip_prefix("epoch/")?;
    rest.split_once('/')?.1.parse().ok()
}

impl<'c, const L: usize> ReceiverClient<'c, L> {
    /// Creates a client for `keys` bound to `server_pk`.
    pub fn new(curve: &'c Curve<L>, server_pk: ServerPublicKey<L>, keys: UserKeyPair<L>) -> Self {
        Self {
            session: Receiver::new(curve, server_pk, keys),
            pending: Vec::new(),
            opened: Vec::new(),
            dead_letters: Vec::new(),
            retry: HashMap::new(),
            backoff: BackoffConfig::default(),
            quarantine_threshold: DEFAULT_QUARANTINE_THRESHOLD,
            threads: 1,
            highest_epoch: None,
            health: ClientHealth::default(),
            trace: None,
        }
    }

    /// Attaches an epoch-delivery [`TraceSink`] (builder style): admitted
    /// updates stamp [`Stage::Verified`] and successful decryptions stamp
    /// [`Stage::Decrypted`], closing the end-to-end attribution chain the
    /// server and transport opened.
    pub fn with_trace_sink(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Stamps `stage` for the epoch `tag` encodes, if tracing is on and
    /// the tag follows the epoch convention.
    fn trace_stage(&self, tag: &ReleaseTag, stage: Stage) {
        if let (Some(sink), Some(epoch)) = (&self.trace, epoch_hint(tag)) {
            sink.record_now(epoch, stage);
        }
    }

    /// Overrides the archive retry backoff (builder style).
    pub fn with_backoff(mut self, backoff: BackoffConfig) -> Self {
        self.backoff = backoff;
        self
    }

    /// Overrides the worker count for batched verification's
    /// hash-to-curve fan-out (builder style; `0` = auto, default `1`).
    /// Keep the default when op-count traces must be complete: crypto-op
    /// counters are thread-local and worker-side ops are not attributed.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the quarantine threshold (builder style). `0` disables
    /// quarantine entirely.
    pub fn with_quarantine_threshold(mut self, threshold: u32) -> Self {
        self.quarantine_threshold = threshold;
        self
    }

    /// The client's public key (what senders encrypt to).
    pub fn public_key(&self) -> &tre_core::UserPublicKey<L> {
        self.session.public_key()
    }

    /// The underlying crypto session (verified-update cache, server
    /// binding) — read access for diagnostics and tests.
    pub fn session(&self) -> &Receiver<'c, L> {
        &self.session
    }

    /// Hands the client a ciphertext at clock tick `now`. If the matching
    /// update is already known (release time long past), it opens
    /// immediately; otherwise it is queued.
    pub fn receive_ciphertext(&mut self, ct: tre::Ciphertext<L>, now: u64) {
        if self.session.cached_update(ct.tag()).is_some() {
            self.open_now(ct, now, now);
        } else {
            self.pending.push((ct, now));
        }
    }

    /// Feeds a key update (from broadcast or archive) received at
    /// `delivered_at`, as a burst of one through
    /// [`ReceiverClient::receive_updates`]. Returns how many messages
    /// opened (0 for an exact duplicate of a held update).
    ///
    /// # Errors
    /// * [`TreError::InvalidUpdate`] if self-authentication fails;
    /// * [`TreError::Equivocation`] if a *different* update arrives for a
    ///   tag the client already holds a verified update for (honest
    ///   updates are deterministic, so this is Byzantine evidence).
    pub fn receive_update(
        &mut self,
        update: KeyUpdate<L>,
        delivered_at: u64,
    ) -> Result<usize, TreError> {
        let report = self.receive_updates(std::slice::from_ref(&update), delivered_at);
        match report.outcomes[0] {
            UpdateOutcome::Accepted { opened } => Ok(opened),
            UpdateOutcome::Duplicate => Ok(0),
            UpdateOutcome::Equivocation => Err(TreError::Equivocation),
            UpdateOutcome::Invalid => Err(TreError::InvalidUpdate),
        }
    }

    /// Distribution-side bookkeeping for an update the session just
    /// admitted: epoch-gap accounting, retry state cleanup, and opening
    /// every pending ciphertext it unlocks. Returns how many messages
    /// opened.
    fn settle_update(&mut self, update: &KeyUpdate<L>, delivered_at: u64) -> usize {
        if let Some(epoch) = epoch_hint(update.tag()) {
            let next = self.highest_epoch.map_or(0, |h| h.saturating_add(1));
            if epoch >= next {
                self.health.missed_epochs += epoch - next;
                self.highest_epoch = Some(epoch);
            }
        }
        self.retry.remove(update.tag());
        let (matching, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|(ct, _)| ct.tag() == update.tag());
        self.pending = rest;
        let before = self.opened.len();
        for (ct, received_at) in matching {
            self.open_now(ct, received_at, delivered_at);
        }
        self.opened.len() - before
    }

    /// Burst-drain path: admits a batch of updates delivered together at
    /// `delivered_at` through the session's admission rule
    /// ([`Receiver::observe_burst`]: duplicates skipped and equivocations
    /// rejected before any crypto, the fresh rest verified **in one
    /// batch**), then opens every pending ciphertext a fresh update
    /// unlocks.
    ///
    /// Health counters and the invalid streak are updated in input order,
    /// so a burst leaves the same state as the equivalent sequence of
    /// [`ReceiverClient::receive_update`] calls, except when it holds two
    /// different copies of one tag: the burst `[forged(T), honest(T)]`
    /// counts two equivocations and ends with `invalid_streak = 2`, the
    /// same two updates one at a time a rejection and an acceptance,
    /// ending at 0.
    pub fn receive_updates(&mut self, updates: &[KeyUpdate<L>], delivered_at: u64) -> BatchReport {
        let _span = tre_obs::span("client.receive_updates");
        self.health.updates_received += updates.len() as u64;
        let verdicts = self.session.observe_burst(updates, self.threads);
        // Bookkeeping in input order — streak and quarantine semantics
        // match sequential delivery.
        let mut report = BatchReport::default();
        for (u, verdict) in updates.iter().zip(verdicts) {
            let outcome = match verdict {
                Admission::Duplicate => {
                    self.health.duplicates_skipped += 1;
                    tre_obs::event("client.duplicate_skipped", "");
                    report.duplicates += 1;
                    UpdateOutcome::Duplicate
                }
                Admission::Equivocation => {
                    self.health.equivocations += 1;
                    self.health.invalid_streak = self.health.invalid_streak.saturating_add(1);
                    tre_obs::event("client.equivocation", "");
                    self.note_quarantine_transition();
                    report.equivocations += 1;
                    UpdateOutcome::Equivocation
                }
                Admission::Invalid => {
                    self.health.rejected_updates += 1;
                    self.health.invalid_streak = self.health.invalid_streak.saturating_add(1);
                    tre_obs::event("client.update_rejected", "");
                    self.note_quarantine_transition();
                    report.rejected += 1;
                    UpdateOutcome::Invalid
                }
                Admission::Fresh => {
                    self.health.invalid_streak = 0;
                    self.health.accepted_updates += 1;
                    tre_obs::event("client.update_accepted", "");
                    self.trace_stage(u.tag(), Stage::Verified);
                    let opened = self.settle_update(u, delivered_at);
                    report.accepted += 1;
                    report.opened += opened;
                    UpdateOutcome::Accepted { opened }
                }
            };
            report.outcomes.push(outcome);
        }
        report
    }

    /// Drains every deliverable update from a [`Feed`] subscription
    /// and feeds it through the burst-drain path: updates sharing a
    /// delivery stamp arrived together and are verified as one batch (2
    /// pairings per group instead of 2 each). This is the single receive
    /// loop for every feed — the [`crate::ChaosSim`] channel, the live
    /// [`crate::TcpFeed`], a [`crate::SupervisedFeed`], or a
    /// [`crate::CommitteeFeed`]. Returns how many messages opened.
    pub fn pump(&mut self, feed: &mut impl Feed<L>, id: SubscriberId) -> usize {
        let mut deliveries = feed.poll(id).into_iter().peekable();
        let mut opened = 0;
        while let Some((at, first)) = deliveries.next() {
            let mut batch = vec![first];
            while deliveries.peek().is_some_and(|(a, _)| *a == at) {
                batch.push(deliveries.next().unwrap().1);
            }
            opened += self.receive_updates(&batch, at).opened;
        }
        opened
    }

    /// Recovers any updates this client is still waiting for from the
    /// public archive (the paper's missed-broadcast story), honoring the
    /// per-tag retry backoff. `lookup` maps a release tag to an archive
    /// epoch. Returns how many messages opened.
    ///
    /// Recovery is **gather-then-batch**: every due tag is fetched first,
    /// then all fetched updates are verified together through the
    /// burst-drain path — a receiver returning from downtime with N
    /// missed epochs pays 2 verification pairings total instead of 2N
    /// (plus one decryption pairing per pending ciphertext).
    ///
    /// Unlike the broadcast path, archive failures are not errors the
    /// caller must handle: a miss schedules a bounded-backoff retry, an
    /// invalid archived update is counted in the health metrics, and the
    /// client simply tries again on the next call.
    pub fn catch_up(
        &mut self,
        archive: &UpdateArchive<L>,
        now: u64,
        lookup: impl Fn(&ReleaseTag) -> Option<u64>,
    ) -> usize {
        let _span = tre_obs::span("client.catch_up");
        // Gather: one archive fetch per due tag, no crypto yet.
        let mut fetched: Vec<KeyUpdate<L>> = Vec::new();
        for tag in self.due_tags(now) {
            let Some(epoch) = lookup(&tag) else { continue };
            self.health.archive_attempts += 1;
            match archive.get(epoch) {
                Some(update) => fetched.push(update),
                None => {
                    self.health.archive_misses += 1;
                    self.note_archive_failure(tag, now);
                }
            }
        }
        if fetched.is_empty() {
            return 0;
        }
        // Batch: verify all fetched updates together, then settle the
        // per-tag archive bookkeeping from the outcomes.
        let report = self.receive_updates(&fetched, now);
        let mut opened = 0;
        for (update, outcome) in fetched.iter().zip(&report.outcomes) {
            match outcome {
                UpdateOutcome::Accepted { opened: n } => {
                    self.health.recovered_from_archive += 1;
                    opened += n;
                }
                // Exact duplicate of an update learned mid-call (e.g. the
                // archive returned the same update under two tags): still
                // a successful recovery, nothing to back off.
                UpdateOutcome::Duplicate => self.health.recovered_from_archive += 1,
                // Invalid or equivocating archive entry: already counted
                // by the burst path; back off before retrying this tag.
                _ => self.note_archive_failure(update.tag().clone(), now),
            }
        }
        opened
    }

    /// Records that the archive itself was unreachable at `now` (transport
    /// outage, as opposed to a per-epoch miss): every due pending tag is
    /// counted as a miss and backs off, exactly as if each fetch had
    /// returned nothing.
    pub fn archive_unreachable(&mut self, now: u64) {
        for tag in self.due_tags(now) {
            self.health.archive_attempts += 1;
            self.health.archive_misses += 1;
            self.note_archive_failure(tag, now);
        }
    }

    /// The tags of pending ciphertexts, each once and in arrival order,
    /// whose update the session lacks and whose archive retry is due.
    fn due_tags(&self, now: u64) -> Vec<ReleaseTag> {
        let mut seen = HashSet::new();
        self.pending
            .iter()
            .map(|(ct, _)| ct.tag())
            .filter(|tag| seen.insert(*tag) && self.session.cached_update(tag).is_none())
            .filter(|tag| {
                self.retry
                    .get(*tag)
                    .is_none_or(|r| now >= r.next_attempt_at)
            })
            .cloned()
            .collect()
    }

    /// Emits a trace event the moment the invalid streak crosses the
    /// quarantine threshold (exactly once per transition).
    fn note_quarantine_transition(&mut self) {
        if self.quarantine_threshold > 0
            && self.health.invalid_streak == self.quarantine_threshold
            && tre_obs::is_enabled()
        {
            tre_obs::event(
                "client.quarantined",
                &format!("invalid_streak={}", self.health.invalid_streak),
            );
        }
    }

    fn note_archive_failure(&mut self, tag: ReleaseTag, now: u64) {
        let state = self.retry.entry(tag).or_default();
        state.attempts = state.attempts.saturating_add(1);
        let shift = (state.attempts - 1).min(32);
        let delay = self
            .backoff
            .base
            .saturating_mul(1 << shift)
            .clamp(self.backoff.base, self.backoff.max);
        state.next_attempt_at = now.saturating_add(delay);
    }

    fn open_now(&mut self, ct: tre::Ciphertext<L>, received_at: u64, opened_at: u64) {
        // Every update in the session cache passed (batch) verification
        // on admission, so the session's trusted open applies: one
        // pairing per ciphertext instead of three.
        match self.session.open(&ct) {
            Ok(plaintext) => {
                self.trace_stage(ct.tag(), Stage::Decrypted);
                let latency = opened_at.saturating_sub(received_at);
                self.health.open_latency.record(latency);
                if tre_obs::is_enabled() {
                    tre_obs::event("client.opened", &format!("latency={latency}"));
                }
                self.opened.push(OpenedMessage {
                    plaintext,
                    tag: ct.tag().clone(),
                    received_at,
                    opened_at,
                });
            }
            Err(err) => {
                self.health.decrypt_failures += 1;
                tre_obs::event("client.dead_letter", "");
                self.dead_letters.push((ct, err));
            }
        }
    }

    /// Messages opened so far, in opening order.
    pub fn opened(&self) -> &[OpenedMessage] {
        &self.opened
    }

    /// Ciphertexts still awaiting their release time.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Ciphertexts whose decryption failed once the update was available,
    /// with the error — these used to be silently discarded.
    pub fn dead_letters(&self) -> &[(tre::Ciphertext<L>, TreError)] {
        &self.dead_letters
    }

    /// The client's health counters.
    pub fn health(&self) -> &ClientHealth {
        &self.health
    }

    /// Whether the broadcast path has delivered enough *consecutive*
    /// invalid updates to be considered compromised. Quarantine never
    /// blocks archive recovery — that is the trusted fallback path.
    pub fn is_quarantined(&self) -> bool {
        self.quarantine_threshold > 0 && self.health.invalid_streak >= self.quarantine_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Granularity, SimClock};
    use crate::server::TimeServer;
    use tre_core::ServerKeyPair;
    use tre_pairing::toy64;

    fn seal(
        spk: &ServerPublicKey<8>,
        upk: &tre_core::UserPublicKey<8>,
        tag: &ReleaseTag,
        msg: &[u8],
    ) -> tre::Ciphertext<8> {
        tre_core::Sender::new(toy64(), spk, upk)
            .unwrap()
            .encrypt(tag, msg, &mut rand::thread_rng())
    }

    fn world() -> (SimClock, TimeServer<'static, 8>, ReceiverClient<'static, 8>) {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let clock = SimClock::new();
        let skeys = ServerKeyPair::generate(curve, &mut rng);
        let spk = *skeys.public();
        let server = TimeServer::new(curve, skeys, clock.clone(), Granularity::Seconds);
        let ukeys = UserKeyPair::generate(curve, &spk, &mut rng);
        let client = ReceiverClient::new(curve, spk, ukeys);
        (clock, server, client)
    }

    #[test]
    fn message_opens_when_update_arrives() {
        let (clock, mut server, mut client) = world();
        // Sender locks a message to epoch 5.
        let tag = server.tag_for_epoch(5);
        let ct = seal(
            server.public_key(),
            client.public_key(),
            &tag,
            b"contest problems",
        );
        client.receive_ciphertext(ct, clock.now());
        assert_eq!(client.pending_count(), 1);
        // Time passes; server broadcasts each epoch.
        clock.advance(5);
        for u in server.poll() {
            client.receive_update(u, clock.now()).unwrap();
        }
        assert_eq!(client.pending_count(), 0);
        let opened = client.opened();
        assert_eq!(opened.len(), 1);
        assert_eq!(opened[0].plaintext, b"contest problems");
        assert_eq!(opened[0].opened_at, 5);
        assert_eq!(client.health().open_latency.count(), 1);
        assert_eq!(client.health().open_latency.max(), 5);
    }

    #[test]
    fn late_ciphertext_opens_immediately_from_cache() {
        let (clock, mut server, mut client) = world();
        clock.advance(10);
        for u in server.poll() {
            client.receive_update(u, clock.now()).unwrap();
        }
        // A ciphertext for the already-passed epoch 3 arrives late.
        let tag = server.tag_for_epoch(3);
        let ct = seal(server.public_key(), client.public_key(), &tag, b"old news");
        client.receive_ciphertext(ct, clock.now());
        assert_eq!(client.pending_count(), 0);
        assert_eq!(client.opened()[0].plaintext, b"old news");
    }

    #[test]
    fn missed_update_recovered_from_archive() {
        let (clock, mut server, mut client) = world();
        let tag = server.tag_for_epoch(2);
        let ct = seal(server.public_key(), client.public_key(), &tag, b"missed me");
        client.receive_ciphertext(ct, 0);
        // Server broadcasts while the client is offline.
        clock.advance(6);
        server.poll();
        assert_eq!(client.pending_count(), 1);
        // Client comes back and catches up from the public archive.
        let g = server.granularity();
        let opened = client.catch_up(server.archive(), clock.now(), |tag| g.epoch_of_tag(tag));
        assert_eq!(opened, 1);
        assert_eq!(client.opened()[0].plaintext, b"missed me");
        assert_eq!(client.health().recovered_from_archive, 1);
        assert_eq!(client.health().archive_attempts, 1);
    }

    /// The session prepared the server key once, at construction; a
    /// burst and an archive catch-up verify against that copy.
    #[test]
    fn bursts_and_catch_up_reuse_the_prepared_key() {
        let (clock, mut server, mut client) = world();
        for epoch in [2, 5] {
            let tag = server.tag_for_epoch(epoch);
            let ct = seal(server.public_key(), client.public_key(), &tag, b"m");
            client.receive_ciphertext(ct, 0);
        }
        clock.advance(3);
        let burst = server.poll();
        clock.advance(3);
        server.poll();
        let g = server.granularity();

        tre_obs::enable();
        let report = client.receive_updates(&burst, clock.now());
        let opened = client.catch_up(server.archive(), clock.now(), |tag| g.epoch_of_tag(tag));
        let trace = tre_obs::finish();
        assert_eq!((report.accepted, report.opened, opened), (4, 1, 1));
        assert_eq!(trace.spans_named("client.batch_verify").len(), 2);
        assert!(
            trace.spans_named("tre.prepare_server_key").is_empty(),
            "no burst re-prepares the server key"
        );
    }

    /// A burst with no two different copies of one tag leaves the same
    /// outcomes, health counters, quarantine state and opened messages as
    /// the same updates fed one at a time through `receive_update`.
    #[test]
    fn burst_equals_sequence_without_an_in_burst_conflict() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (clock, mut server, base) = world();
        let spk = *server.public_key();
        let keys = base.session().key_pair().clone();
        clock.advance(8);
        let signed = server.poll();
        let mut forged = |epoch: u64| {
            let sig = curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng));
            KeyUpdate::from_parts(server.tag_for_epoch(epoch), sig)
        };
        // Epochs 0 and 1 are held before the burst; 2..=5 are fresh.
        let kinds: Vec<Vec<KeyUpdate<8>>> = vec![
            vec![signed[2].clone()],
            vec![signed[0].clone()],
            vec![forged(1)],
            vec![signed[3].clone(), signed[3].clone()],
            vec![forged(4)],
            vec![forged(5); 2],
        ];
        for mask in 1u32..(1 << kinds.len()) {
            let mut burst: Vec<KeyUpdate<8>> = (0..kinds.len())
                .filter(|k| mask & (1 << k) != 0)
                .flat_map(|k| kinds[k].clone())
                .collect();
            let shift = mask as usize % burst.len();
            burst.rotate_left(shift);
            let [mut batched, mut single] = [(); 2].map(|_| {
                let mut c =
                    ReceiverClient::new(curve, spk, keys.clone()).with_quarantine_threshold(2);
                for epoch in 0..6 {
                    let tag = server.tag_for_epoch(epoch);
                    c.receive_ciphertext(seal(&spk, keys.public(), &tag, b"m"), 0);
                }
                for update in &signed[..2] {
                    c.receive_update(update.clone(), 1).unwrap();
                }
                c
            });
            let report = batched.receive_updates(&burst, 2);
            let results: Vec<Result<usize, TreError>> = burst
                .iter()
                .map(|u| single.receive_update(u.clone(), 2))
                .collect();
            for (outcome, result) in report.outcomes.iter().zip(&results) {
                let want = match outcome {
                    UpdateOutcome::Accepted { opened } => Ok(*opened),
                    UpdateOutcome::Duplicate => Ok(0),
                    UpdateOutcome::Equivocation => Err(TreError::Equivocation),
                    UpdateOutcome::Invalid => Err(TreError::InvalidUpdate),
                };
                assert_eq!(&want, result, "mask={mask:#b}");
            }
            let counters = |c: &ReceiverClient<'_, 8>| {
                let h = c.health();
                (
                    h.updates_received,
                    h.duplicates_skipped,
                    h.equivocations,
                    h.rejected_updates,
                    h.accepted_updates,
                    h.invalid_streak,
                    h.missed_epochs,
                    c.is_quarantined(),
                    c.pending_count(),
                    c.opened().len(),
                )
            };
            assert_eq!(counters(&batched), counters(&single), "mask={mask:#b}");
        }
    }

    #[test]
    fn forged_update_ignored() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (_clock, server, mut client) = world();
        let forged = KeyUpdate::from_parts(
            server.tag_for_epoch(1),
            curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        );
        assert_eq!(
            client.receive_update(forged, 1),
            Err(TreError::InvalidUpdate)
        );
        assert_eq!(client.health().rejected_updates, 1);
        assert_eq!(client.health().invalid_streak, 1);
        assert!(!client.is_quarantined(), "one bad update is not a pattern");
    }

    #[test]
    fn duplicate_update_skips_reverification() {
        let (clock, mut server, mut client) = world();
        clock.advance(1);
        let updates = server.poll();
        for u in &updates {
            client.receive_update(u.clone(), clock.now()).unwrap();
        }
        assert_eq!(client.health().duplicates_skipped, 0);
        // Re-broadcast of the identical updates: dedup path, Ok(0) each.
        for u in &updates {
            assert_eq!(client.receive_update(u.clone(), clock.now()), Ok(0));
        }
        assert_eq!(client.health().duplicates_skipped, updates.len() as u64);
        assert_eq!(client.health().updates_received, 2 * updates.len() as u64);
    }

    #[test]
    fn equivocating_update_detected_by_byte_comparison() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (clock, mut server, mut client) = world();
        clock.advance(1);
        let updates = server.poll();
        for u in &updates {
            client.receive_update(u.clone(), clock.now()).unwrap();
        }
        // A Byzantine server sends a *different* update for a seen tag.
        let conflicting = KeyUpdate::from_parts(
            updates[0].tag().clone(),
            curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        );
        assert_eq!(
            client.receive_update(conflicting, clock.now()),
            Err(TreError::Equivocation)
        );
        assert_eq!(client.health().equivocations, 1);
    }

    #[test]
    fn consecutive_invalid_updates_trigger_quarantine() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (clock, mut server, mut client) = world();
        for i in 0..DEFAULT_QUARANTINE_THRESHOLD {
            let forged = KeyUpdate::from_parts(
                server.tag_for_epoch(u64::from(i)),
                curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
            );
            let _ = client.receive_update(forged, clock.now());
        }
        assert!(client.is_quarantined());
        // A valid update clears the streak.
        clock.advance(1);
        for u in server.poll() {
            let _ = client.receive_update(u, clock.now());
        }
        assert!(!client.is_quarantined());
        assert_eq!(client.health().invalid_streak, 0);
    }

    #[test]
    fn archive_miss_backs_off_exponentially_but_bounded() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (clock, mut server, _) = world();
        let spk = *server.public_key();
        let ukeys = UserKeyPair::generate(curve, &spk, &mut rng);
        let mut client =
            ReceiverClient::new(curve, spk, ukeys).with_backoff(BackoffConfig { base: 2, max: 8 });
        let tag = server.tag_for_epoch(4);
        let ct = seal(&spk, client.public_key(), &tag, b"m");
        client.receive_ciphertext(ct, 0);
        let empty = UpdateArchive::new();
        let g = server.granularity();
        // Attempt at t=0 misses: next attempt not before t=2.
        assert_eq!(client.catch_up(&empty, 0, |t| g.epoch_of_tag(t)), 0);
        assert_eq!(client.health().archive_attempts, 1);
        client.catch_up(&empty, 1, |t| g.epoch_of_tag(t));
        assert_eq!(client.health().archive_attempts, 1, "backoff suppressed");
        client.catch_up(&empty, 2, |t| g.epoch_of_tag(t));
        assert_eq!(client.health().archive_attempts, 2, "retry after base");
        // Second miss: delay 4. Third: 8. Fourth: capped at 8.
        client.catch_up(&empty, 6, |t| g.epoch_of_tag(t));
        assert_eq!(client.health().archive_attempts, 3);
        client.catch_up(&empty, 14, |t| g.epoch_of_tag(t));
        assert_eq!(client.health().archive_attempts, 4);
        client.catch_up(&empty, 22, |t| g.epoch_of_tag(t));
        assert_eq!(client.health().archive_attempts, 5, "delay capped at max");
        assert_eq!(client.health().archive_misses, 5);
        // Once the archive heals, recovery succeeds despite past failures.
        clock.set(100);
        server.poll();
        let opened = client.catch_up(server.archive(), clock.now(), |t| g.epoch_of_tag(t));
        assert_eq!(opened, 1, "liveness: healed archive is retried");
        assert_eq!(client.health().recovered_from_archive, 1);
    }

    /// The retry delay doubles up to `max` and stays there: a shift that
    /// overflows `u64` saturates rather than wrapping back to a short delay.
    #[test]
    fn archive_backoff_saturates_instead_of_wrapping() {
        let (_clock, server, client) = world();
        let mut client = client.with_backoff(BackoffConfig {
            base: 1 << 40,
            max: u64::MAX,
        });
        let tag = server.tag_for_epoch(1);
        let delays: Vec<u64> = (0..40)
            .map(|_| {
                client.note_archive_failure(tag.clone(), 0);
                client.retry[&tag].next_attempt_at
            })
            .collect();
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "{delays:?}");
        assert_eq!(delays[23], 1 << 63);
        assert_eq!(delays.last(), Some(&u64::MAX));
    }

    #[test]
    fn archive_unreachable_counts_and_backs_off() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let (_clock, server, _) = world();
        let spk = *server.public_key();
        let ukeys = UserKeyPair::generate(curve, &spk, &mut rng);
        let mut client =
            ReceiverClient::new(curve, spk, ukeys).with_backoff(BackoffConfig { base: 4, max: 16 });
        let tag = server.tag_for_epoch(1);
        let ct = seal(&spk, client.public_key(), &tag, b"m");
        client.receive_ciphertext(ct, 0);
        client.archive_unreachable(0);
        assert_eq!(client.health().archive_misses, 1);
        client.archive_unreachable(1);
        assert_eq!(client.health().archive_misses, 1, "still backing off");
        client.archive_unreachable(4);
        assert_eq!(client.health().archive_misses, 2);
    }

    #[test]
    fn update_is_shared_across_clients() {
        // The same single update opens messages for many receivers — the
        // paper's "single form of update for all users".
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let clock = SimClock::new();
        let skeys = ServerKeyPair::generate(curve, &mut rng);
        let spk = *skeys.public();
        let mut server = TimeServer::new(curve, skeys, clock.clone(), Granularity::Seconds);
        let mut clients: Vec<_> = (0..5)
            .map(|_| {
                let uk = UserKeyPair::generate(curve, &spk, &mut rng);
                ReceiverClient::new(curve, spk, uk)
            })
            .collect();
        let tag = server.tag_for_epoch(1);
        for (i, c) in clients.iter_mut().enumerate() {
            let ct = seal(&spk, c.public_key(), &tag, format!("msg-{i}").as_bytes());
            c.receive_ciphertext(ct, 0);
        }
        clock.advance(1);
        let updates = server.poll();
        // One of these is the epoch-1 update; feed the same objects to all.
        for c in clients.iter_mut() {
            for u in &updates {
                c.receive_update(u.clone(), clock.now()).unwrap();
            }
        }
        for (i, c) in clients.iter().enumerate() {
            assert_eq!(c.opened()[0].plaintext, format!("msg-{i}").as_bytes());
        }
    }
}
