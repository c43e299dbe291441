//! The passive time server runtime.
//!
//! In steady state the server does exactly one thing: when an epoch
//! boundary passes, it signs that epoch's tag and broadcasts the update
//! (§3). It holds **no** user state, stores **no** messages, and refuses to
//! sign future epochs (the second trust assumption).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use tre_core::{KeyUpdate, ReleaseTag, ServerKeyPair, ServerPublicKey, TagForecast};
use tre_pairing::Curve;

use crate::archive::UpdateArchive;
use crate::clock::{Granularity, SimClock};
use crate::telemetry::{now_ns, Stage, TraceSink};

/// Error returned when asking a server to violate its trust assumptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FutureEpochError {
    /// The epoch that was requested.
    pub requested: u64,
    /// The newest epoch the server is willing to sign.
    pub current: u64,
}

impl core::fmt::Display for FutureEpochError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "refusing to issue update for future epoch {} (current epoch {})",
            self.requested, self.current
        )
    }
}

impl std::error::Error for FutureEpochError {}

/// A running passive time server: keys + clock + archive + epoch cursor.
pub struct TimeServer<'c, const L: usize> {
    curve: &'c Curve<L>,
    keys: ServerKeyPair<L>,
    clock: SimClock,
    granularity: Granularity,
    archive: Arc<UpdateArchive<L>>,
    next_epoch: u64,
    broadcasts: u64,
    trace: Option<TraceSink>,
    /// A pre-hashed tag for an upcoming epoch (public values only).
    forecast: Option<TagForecast<L>>,
}

impl<'c, const L: usize> TimeServer<'c, L> {
    /// Boots a server on the shared simulation clock.
    pub fn new(
        curve: &'c Curve<L>,
        keys: ServerKeyPair<L>,
        clock: SimClock,
        granularity: Granularity,
    ) -> Self {
        let next_epoch = granularity.epoch_of(clock.now());
        Self {
            curve,
            keys,
            clock,
            granularity,
            archive: Arc::new(UpdateArchive::new()),
            next_epoch,
            broadcasts: 0,
            trace: None,
            forecast: None,
        }
    }

    /// Reboots a server against an archive that survived a crash. Any
    /// epoch missing between the oldest and newest archived epochs (a
    /// record quarantined on open) is re-signed and archived at once —
    /// updates are deterministic, and every such epoch has already been
    /// released. The epoch cursor resumes just past the newest archived
    /// epoch, so the first [`TimeServer::poll`] back-fills every epoch
    /// the crashed process skipped — the archive (the scheme's only
    /// durable state) ends up gap-free. With an empty archive this is
    /// identical to [`TimeServer::new`].
    pub fn recover(
        curve: &'c Curve<L>,
        keys: ServerKeyPair<L>,
        clock: SimClock,
        granularity: Granularity,
        archive: Arc<UpdateArchive<L>>,
    ) -> Self {
        for epoch in archive.missing_epochs() {
            archive.publish(
                epoch,
                keys.issue_update(curve, &granularity.tag_for_epoch(epoch)),
            );
            if tre_obs::is_enabled() {
                tre_obs::event("server.reissue", &format!("epoch={epoch}"));
            }
        }
        let next_epoch = match archive.latest_epoch() {
            Some(latest) => latest + 1,
            None => granularity.epoch_of(clock.now()),
        };
        if tre_obs::is_enabled() {
            tre_obs::event("server.recover", &format!("resume_epoch={next_epoch}"));
        }
        Self {
            curve,
            keys,
            clock,
            granularity,
            archive,
            next_epoch,
            broadcasts: 0,
            trace: None,
            forecast: None,
        }
    }

    /// Attaches an epoch-delivery [`TraceSink`]: every subsequent
    /// publish stamps [`Stage::Publish`] after signing and
    /// [`Stage::JournalFsync`] once the archive write (journal append +
    /// fsync under a durable archive) returns.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// The server's public key — the only thing users ever need from it in
    /// advance.
    pub fn public_key(&self) -> &ServerPublicKey<L> {
        self.keys.public()
    }

    /// The broadcast granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// The public archive of already-released updates.
    pub fn archive(&self) -> &UpdateArchive<L> {
        &self.archive
    }

    /// A shared handle to the archive — the durable state that outlives a
    /// server crash and seeds [`TimeServer::recover`].
    pub fn archive_handle(&self) -> Arc<UpdateArchive<L>> {
        Arc::clone(&self.archive)
    }

    /// Number of broadcasts performed so far (server-cost metric for the
    /// scalability experiments — note it never depends on the user count).
    pub fn broadcast_count(&self) -> u64 {
        self.broadcasts
    }

    /// Release tag for a given epoch (senders call the equivalent freely;
    /// exposed here for convenience and tests).
    pub fn tag_for_epoch(&self, epoch: u64) -> ReleaseTag {
        self.granularity.tag_for_epoch(epoch)
    }

    /// Emits updates for every epoch boundary that has passed since the
    /// last poll. Returns the newly published updates (each is broadcast
    /// once, to everyone, regardless of user count) and archives them.
    pub fn poll(&mut self) -> Vec<KeyUpdate<L>> {
        let current = self.granularity.epoch_of(self.clock.now());
        if self.next_epoch > current {
            return Vec::new();
        }
        // Open the span only when at least one epoch is due — poll() runs
        // every tick and idle polls would swamp the trace.
        let _span = tre_obs::span("server.poll");
        let mut out = Vec::new();
        while self.next_epoch <= current {
            let update = self
                .issue_for_epoch(self.next_epoch)
                .expect("epoch <= current by construction");
            if tre_obs::is_enabled() {
                tre_obs::event("server.issue", &format!("epoch={}", self.next_epoch));
            }
            if let Some(sink) = &self.trace {
                sink.record(self.next_epoch, Stage::Publish, now_ns());
            }
            self.archive.publish(self.next_epoch, update.clone());
            if let Some(sink) = &self.trace {
                sink.record(self.next_epoch, Stage::JournalFsync, now_ns());
            }
            out.push(update);
            self.next_epoch += 1;
            self.broadcasts += 1;
        }
        out
    }

    /// The next epoch [`TimeServer::poll`] will publish.
    pub(crate) fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Hands the server a pre-hashed tag (see [`TagForecast::hash`]):
    /// once its epoch is due, [`TimeServer::issue_for_epoch`] signs it
    /// with one `s·H` instead of hashing first. The forecast holds only
    /// `H1(T)`, so installing one ahead of time signs nothing early;
    /// future epochs are refused exactly as before.
    pub(crate) fn install_forecast(&mut self, forecast: TagForecast<L>) {
        self.forecast = Some(forecast);
    }

    /// Blocks until the next unpublished epoch is due — the clock reaches
    /// its start — so the following [`TimeServer::poll`] publishes it.
    /// Returns `false` without waiting further once `stop` is set and
    /// the clock's [`SimClock::wake_all`] is called.
    pub fn wait_next_epoch(&self, stop: &AtomicBool) -> bool {
        let due = self.next_epoch.saturating_mul(self.granularity.seconds());
        self.clock.wait_until(due, stop)
    }

    /// The clock this server publishes against.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Issues the update for a specific epoch **whose time has come**.
    ///
    /// # Errors
    /// Returns [`FutureEpochError`] for epochs still in the future — the
    /// trust assumption the whole scheme rests on. (A malicious server
    /// colluding with a receiver is modeled in tests by calling the
    /// underlying key pair directly.)
    pub fn issue_for_epoch(&self, epoch: u64) -> Result<KeyUpdate<L>, FutureEpochError> {
        let current = self.granularity.epoch_of(self.clock.now());
        if epoch > current {
            return Err(FutureEpochError {
                requested: epoch,
                current,
            });
        }
        let tag = self.tag_for_epoch(epoch);
        Ok(match self.forecast.as_ref().filter(|f| f.tag() == &tag) {
            Some(forecast) => self.keys.issue_forecast(self.curve, forecast),
            None => self.keys.issue_update(self.curve, &tag),
        })
    }

    /// Test-only access to the raw key pair (modeling server compromise).
    #[doc(hidden)]
    pub fn keys(&self) -> &ServerKeyPair<L> {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_pairing::toy64;

    fn boot(clock: &SimClock) -> TimeServer<'static, 8> {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds)
    }

    #[test]
    fn poll_emits_each_epoch_once() {
        let clock = SimClock::new();
        let mut server = boot(&clock);
        // Epoch 0 is current at boot.
        let first = server.poll();
        assert_eq!(first.len(), 1);
        assert_eq!(server.poll().len(), 0, "no double broadcast");
        clock.advance(3);
        let batch = server.poll();
        assert_eq!(batch.len(), 3, "catches up on every missed boundary");
        assert_eq!(server.broadcast_count(), 4);
        assert_eq!(server.archive().len(), 4);
    }

    #[test]
    fn refuses_future_epochs() {
        let clock = SimClock::new();
        let server = boot(&clock);
        clock.advance(5);
        assert!(server.issue_for_epoch(5).is_ok());
        let err = server.issue_for_epoch(6).unwrap_err();
        assert_eq!(
            err,
            FutureEpochError {
                requested: 6,
                current: 5
            }
        );
        assert!(!err.to_string().is_empty());
    }

    /// A forecast is a hash, never a signature: installing one for the
    /// next epoch signs nothing early — the server still refuses the
    /// epoch, and neither the archive nor the journal files hold its
    /// update — and once the epoch is due it signs with one `s·H`.
    #[test]
    fn forecast_never_pre_signs() {
        let curve = toy64();
        let keys = ServerKeyPair::generate(curve, &mut rand::thread_rng());
        let dir = std::env::temp_dir().join(format!("tre-forecast-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (archive, _) =
            UpdateArchive::open_durable(&dir, curve, crate::JournalConfig::default()).unwrap();
        let archive = Arc::new(archive);
        let clock = SimClock::new();
        let mut server = TimeServer::recover(
            curve,
            keys.clone(),
            clock.clone(),
            Granularity::Seconds,
            Arc::clone(&archive),
        );
        assert_eq!(server.poll().len(), 1, "epoch 0 is due at boot");
        assert_eq!(server.next_epoch(), 1);

        let tag = server.tag_for_epoch(1);
        server.install_forecast(TagForecast::hash(curve, &tag));
        assert_eq!(
            server.issue_for_epoch(1),
            Err(FutureEpochError {
                requested: 1,
                current: 0
            })
        );
        assert!(server.poll().is_empty());
        assert!(archive.get(1).is_none());
        assert_eq!(archive.latest_epoch(), Some(0));
        assert_eq!(archive.journal_stats().unwrap().appends, 1);
        // The update a colluding server would have issued appears in no
        // journal file.
        let early = keys.issue_update(curve, &tag);
        let mut sig = Vec::new();
        early.write_body(curve, &mut sig);
        let sig = &sig[sig.len() - curve.point_len()..];
        for entry in std::fs::read_dir(&dir).unwrap() {
            let bytes = std::fs::read(entry.unwrap().path()).unwrap();
            assert!(
                !bytes.windows(sig.len()).any(|w| w == sig),
                "epoch 1's signature reached the journal before its time"
            );
        }

        clock.advance(1);
        tre_obs::enable();
        let published = server.poll();
        let ops = tre_obs::finish().total_ops();
        assert_eq!(published, vec![early]);
        assert_eq!(ops.h2c_iters, 0, "the due epoch signs off the forecast");
        assert_eq!(ops.scalar_mults, 1, "one s·H");
        drop(server);
        drop(archive);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn updates_verify_and_match_sender_side_tags() {
        let clock = SimClock::new();
        let mut server = boot(&clock);
        clock.advance(2);
        let updates = server.poll();
        let curve = toy64();
        for (i, u) in updates.iter().enumerate() {
            assert!(u.verify(curve, server.public_key()));
            // A sender, knowing only the granularity convention, derives the
            // same tag with no server contact.
            assert_eq!(u.tag(), &Granularity::Seconds.tag_for_epoch(i as u64));
        }
    }

    #[test]
    fn recover_backfills_epochs_skipped_by_the_crash() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let clock = SimClock::new();
        let mut server = TimeServer::new(curve, keys.clone(), clock.clone(), Granularity::Seconds);
        clock.advance(3);
        server.poll(); // archive holds epochs 0..=3
        let archive = server.archive_handle();
        drop(server); // crash: all in-memory state gone
        clock.advance(4); // downtime covers epochs 4..=6 (restart at t=7)
        let mut revived = TimeServer::recover(
            curve,
            keys,
            clock.clone(),
            Granularity::Seconds,
            Arc::clone(&archive),
        );
        let backfilled = revived.poll();
        assert_eq!(backfilled.len(), 4, "epochs 4..=7 published on restart");
        assert_eq!(archive.len(), 8, "archive gap-free after recovery");
        for e in 0..=7 {
            assert!(archive.get(e).is_some(), "epoch {e} present");
        }
        assert_eq!(revived.poll().len(), 0, "no double publication");
    }

    #[test]
    fn recover_reissues_epochs_missing_mid_history() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let archive = Arc::new(UpdateArchive::new());
        for e in [0, 1, 3, 4] {
            let tag = Granularity::Seconds.tag_for_epoch(e);
            archive.publish(e, keys.issue_update(curve, &tag));
        }
        let clock = SimClock::new();
        clock.set(4);
        let mut server = TimeServer::recover(
            curve,
            keys,
            clock,
            Granularity::Seconds,
            Arc::clone(&archive),
        );
        assert!(archive.missing_epochs().is_empty());
        assert!(archive
            .get(2)
            .is_some_and(|u| u.verify(curve, server.public_key())));
        assert_eq!(server.poll().len(), 0, "the cursor still resumes past 4");
    }

    #[test]
    fn recover_with_empty_archive_matches_fresh_boot() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let clock = SimClock::new();
        clock.advance(5);
        let mut fresh = TimeServer::new(curve, keys.clone(), clock.clone(), Granularity::Seconds);
        let mut recovered = TimeServer::recover(
            curve,
            keys,
            clock.clone(),
            Granularity::Seconds,
            Arc::new(UpdateArchive::new()),
        );
        assert_eq!(fresh.poll().len(), recovered.poll().len());
    }

    #[test]
    fn archive_supports_missed_update_recovery() {
        let clock = SimClock::new();
        let mut server = boot(&clock);
        clock.advance(10);
        server.poll();
        // A client that slept through epochs 3..=7 recovers them all.
        let missed = server.archive().range(3, 7);
        assert_eq!(missed.len(), 5);
        let curve = toy64();
        for (_, u) in missed {
            assert!(u.verify(curve, server.public_key()));
        }
    }
}
