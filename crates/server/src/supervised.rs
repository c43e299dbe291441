//! Reconnect supervision for the client side of a live feed.
//!
//! [`SupervisedFeed`] wraps a [`TcpFeed`] with what a production
//! receiver needs to survive a faulty link (see
//! [`crate::ChaosProxy`]): detection of dead connections,
//! reconnection with jittered exponential backoff, and gap repair — on
//! every successful reconnect it issues a [`tre_wire::CatchUpRequest`]-backed
//! replay from the last epoch it saw, so a receiver that lived through
//! a partition or reset still converges on the complete epoch range
//! (liveness) while the client's signature verification continues to
//! reject anything the proxy mangled (safety).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tre_core::{KeyUpdate, TreError};
use tre_wire::Telemetry;

use crate::clock::Granularity;
use crate::evloop::Waker;
use crate::feed::{Feed, SubscriberId};
use crate::tcp::TcpFeed;
use crate::telemetry::TraceSink;

/// Reconnect supervision knobs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// First-retry backoff.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// How many epochs past the last-seen one a reconnect catch-up
    /// requests (the daemon clamps the range to what it has archived).
    pub catch_up_horizon: u64,
    /// Minimum spacing between in-stream gap-repair requests per
    /// subscriber (anti-entropy rate limit).
    pub repair_interval: Duration,
    /// How long a supervised catch-up (cold start or post-reconnect
    /// tail repair) may run without completing before it is re-issued
    /// from the resume point (one past the highest epoch received so
    /// far — progress is never replayed).
    pub catch_up_timeout: Duration,
    /// Re-issue budget per supervised catch-up before the supervisor
    /// gives up on it (interior gap repair still runs afterwards, so
    /// giving up degrades to the anti-entropy path, not to loss).
    pub catch_up_retries: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
            catch_up_horizon: 1024,
            repair_interval: Duration::from_millis(100),
            catch_up_timeout: Duration::from_secs(2),
            catch_up_retries: 4,
        }
    }
}

tre_obs::metrics! {
    /// Per-supervised-subscriber counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SupervisorStats {
        /// Dead connections detected.
        pub disconnects_seen: u64,
        /// Reconnect attempts (successful or not).
        pub reconnect_attempts: u64,
        /// Successful reconnects.
        pub reconnects: u64,
        /// Gap-repair catch-up requests issued after a reconnect.
        pub gap_repairs: u64,
        /// Supervised catch-ups re-issued after timing out or being shed.
        pub catch_up_retries: u64,
        /// Re-issues that resumed past already-received epochs instead of
        /// replaying the whole range.
        pub catch_up_resumes: u64,
        /// `Busy` shed frames received from a saturated daemon (each delays
        /// the next attempt by the daemon's retry hint).
        pub busy_sheds_seen: u64,
    }
}

/// A supervised catch-up in flight: cold start or post-reconnect tail
/// repair, tracked so timeouts resume from the highest epoch received
/// instead of replaying the range from scratch.
#[derive(Debug, Clone, Copy)]
struct PendingCatchUp {
    /// Next epoch still owed (advanced past received epochs on re-issue).
    next: u64,
    /// Inclusive end of the supervised range.
    to: u64,
    /// When the current request was issued.
    issued_at: Instant,
    /// Earliest re-issue instant set by a `Busy` shed reply's retry
    /// hint (overrides the timeout while armed).
    retry_at: Option<Instant>,
    /// Requests issued so far for this range.
    attempts: u32,
}

#[derive(Debug, Default)]
struct SubState {
    /// Every epoch seen on this subscription (tracked across faults, so
    /// interior gaps — a corrupted frame on a live connection — are
    /// detectable, not just tail gaps after a disconnect).
    seen: std::collections::BTreeSet<u64>,
    /// Consecutive failed reconnect attempts.
    attempts: u32,
    /// Earliest instant the next reconnect may be tried.
    retry_at: Option<Instant>,
    /// Earliest instant the next in-stream gap repair may be issued.
    next_repair_at: Option<Instant>,
    /// Whether the cold-start catch-up (if configured) has been issued.
    cold_started: bool,
    /// The supervised catch-up currently awaited, if any.
    pending: Option<PendingCatchUp>,
}

/// A [`TcpFeed`] wrapped with reconnect supervision: dead connections
/// are detected on [`Feed::poll`], re-dialed with jittered
/// exponential backoff, and repaired with an archive catch-up from the
/// last epoch the subscriber saw. Implements [`Feed`], so a
/// [`crate::ReceiverClient`] (or a relay's upstream pump) drives it
/// exactly like a bare feed — the supervision is invisible above the
/// feed line.
pub struct SupervisedFeed<const L: usize> {
    feed: TcpFeed<L>,
    granularity: Granularity,
    config: SupervisorConfig,
    rng: StdRng,
    subs: HashMap<usize, SubState>,
    stats: SupervisorStats,
    /// Cold-start epoch: each subscriber's first connected poll issues a
    /// catch-up from here to the end of the upstream archive.
    cold_start_from: Option<u64>,
}

impl<const L: usize> SupervisedFeed<L> {
    /// Wraps `feed`. `granularity` maps update tags back to epochs for
    /// gap tracking; `seed` makes the backoff jitter reproducible.
    pub fn new(
        feed: TcpFeed<L>,
        granularity: Granularity,
        config: SupervisorConfig,
        seed: u64,
    ) -> Self {
        Self {
            feed,
            granularity,
            config,
            rng: StdRng::seed_from_u64(seed),
            subs: HashMap::new(),
            stats: SupervisorStats::default(),
            cold_start_from: None,
        }
    }

    /// Arms cold-start catch-up: each subscriber's *first* connected
    /// poll requests an archive replay from `epoch` to the end of
    /// whatever the upstream holds, before live updates are relied on.
    /// This is how a relay (or a client returning from long downtime)
    /// backfills history it never saw — the daemon clamps the range to
    /// its archive, so an open-ended request is harmless.
    pub fn set_cold_start_from(&mut self, epoch: u64) {
        self.cold_start_from = Some(epoch);
    }

    /// Supervision counters.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// The wrapped feed (e.g. for [`TcpFeed::stats`]).
    pub fn inner(&self) -> &TcpFeed<L> {
        &self.feed
    }

    /// Attaches an epoch-delivery [`TraceSink`] to the wrapped feed:
    /// decoded `Telemetry` trailers are adopted there and every decode
    /// stamps [`crate::Stage::FirstByte`]. Supervision itself never
    /// touches the sink — reconnects and gap repairs surface through
    /// [`SupervisorStats`] instead.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.feed.set_trace_sink(sink);
    }

    /// The most recent wire trace context the wrapped feed decoded for
    /// `epoch` (catch-up replays overwrite the original broadcast's).
    pub fn trace_for(&self, epoch: u64) -> Option<Telemetry> {
        self.feed.trace_for(epoch)
    }

    /// Publishes supervision counters (`<prefix>_supervisor_*`) and the
    /// wrapped feed's counters (`<prefix>_feed_*`) into a shared
    /// registry, so one scrape covers both layers of a supervised link.
    pub fn export_into(&self, registry: &mut tre_obs::Registry, prefix: &str) {
        self.stats
            .export_into(registry, &format!("{prefix}_supervisor"));
        self.feed
            .stats()
            .export_into(registry, &format!("{prefix}_feed"));
    }

    /// Highest epoch this subscriber has seen, if any.
    pub fn last_epoch(&self, id: SubscriberId) -> Option<u64> {
        self.subs
            .get(&id.index())
            .and_then(|s| s.seen.iter().next_back().copied())
    }

    /// Epochs missing from the contiguous range `0..=last_epoch` — what
    /// the next gap repair will request.
    pub fn missing_epochs(&self, id: SubscriberId) -> Vec<u64> {
        let Some(state) = self.subs.get(&id.index()) else {
            return Vec::new();
        };
        let Some(&max) = state.seen.iter().next_back() else {
            return Vec::new();
        };
        (0..=max).filter(|e| !state.seen.contains(e)).collect()
    }

    /// Whether the subscriber's connection is currently up.
    pub fn is_connected(&self, id: SubscriberId) -> bool {
        self.feed.is_connected(id)
    }

    /// Registers a subscriber without dialing: the supervision loop's
    /// next [`Feed::poll`] treats it as a dead connection and
    /// establishes it with the usual backoff machinery. Lets a
    /// `CommitteeFeed` start supervising members that are down (or not
    /// yet up) at construction time.
    pub fn subscribe_lazy(&mut self) -> SubscriberId {
        let id = self.feed.subscribe_lazy();
        self.subs.insert(id.index(), SubState::default());
        id
    }

    /// The member index this subscriber's peer announced in its
    /// committee greeting, once one has been decoded.
    pub fn announced_member(&self, id: SubscriberId) -> Option<u32> {
        self.feed.announced_member(id)
    }

    /// Passes an explicit archive catch-up request through to the
    /// underlying feed (supervision also issues its own on reconnect
    /// and gap detection).
    ///
    /// # Errors
    /// [`TreError::Io`] if the subscriber is disconnected or the write
    /// fails.
    pub fn request_catch_up(
        &mut self,
        id: SubscriberId,
        from: u64,
        to: u64,
    ) -> Result<(), tre_core::TreError> {
        self.feed.request_catch_up(id, from, to)
    }

    /// [`Feed::poll`] plus committee shares: runs the normal
    /// supervised poll (socket drain, reconnect supervision, gap
    /// repair), then drains the `(stamp, member, share)` triples the
    /// poll decoded. Share epochs feed the same gap tracker as plain
    /// updates, so catch-up repair works identically in committee mode.
    pub fn poll_shares(&mut self, id: SubscriberId) -> Vec<(u64, u32, KeyUpdate<L>)> {
        let _updates = self.poll(id);
        let shares = self.feed.take_shares(id);
        let granularity = self.granularity;
        let state = self.subs.entry(id.index()).or_default();
        for epoch in shares
            .iter()
            .filter_map(|(_, _, u)| granularity.epoch_of_tag(u.tag()))
        {
            state.seen.insert(epoch);
        }
        shares
    }

    /// The nearest instant at which [`Feed::poll`] has supervision work
    /// for this subscriber even if no byte arrives: the reconnect
    /// backoff while disconnected; otherwise the cold-start request, the
    /// pending catch-up's re-issue (its `Busy` retry hint or timeout) or
    /// the next interior-gap repair, whichever comes first. `None` when
    /// only upstream traffic can create work. A past instant means a
    /// poll is due now.
    pub fn next_deadline(&self, id: SubscriberId) -> Option<Instant> {
        let now = Instant::now();
        let Some(state) = self.subs.get(&id.index()) else {
            // Never polled: the first poll sets the state up.
            return Some(now);
        };
        if !self.feed.is_connected(id) {
            return Some(state.retry_at.unwrap_or(now));
        }
        if self.cold_start_from.is_some() && !state.cold_started {
            return Some(now);
        }
        let catch_up = state.pending.map(|p| {
            p.retry_at
                .unwrap_or(p.issued_at + self.config.catch_up_timeout)
        });
        let has_gaps = state
            .seen
            .iter()
            .next_back()
            .is_some_and(|&max| (state.seen.len() as u64) <= max);
        let repair = has_gaps.then(|| state.next_repair_at.unwrap_or(now));
        catch_up.into_iter().chain(repair).min()
    }

    /// Blocks until the subscriber's connection is readable,
    /// [`SupervisedFeed::next_deadline`] passes, or `waker` is woken.
    /// Returns whether the connection became readable. Follow it with
    /// [`Feed::poll`].
    pub(crate) fn wait_with(&self, id: SubscriberId, waker: Option<&Waker>) -> bool {
        let timeout = self
            .next_deadline(id)
            .map(|at| at.saturating_duration_since(Instant::now()));
        if timeout == Some(Duration::ZERO) {
            return false;
        }
        self.feed.wait_with(id, timeout, waker)
    }

    /// Jittered exponential backoff: `base * 2^attempts` capped at
    /// `max`, then uniformly jittered into `[d/2, d]` so a fleet of
    /// receivers does not reconnect in lockstep after a partition heals.
    fn backoff(&mut self, attempts: u32) -> Duration {
        let base = self.config.base_delay.as_millis() as u64;
        let max = self.config.max_delay.as_millis() as u64;
        let d = base
            .saturating_mul(1u64 << attempts.min(20))
            .clamp(1, max.max(1));
        let jittered = d / 2 + self.rng.next_u64() % (d / 2 + 1);
        Duration::from_millis(jittered)
    }

    /// Runs the supervision state machine for one dead subscriber.
    fn supervise(&mut self, id: SubscriberId) {
        let idx = id.index();
        let now = Instant::now();
        {
            let state = self.subs.entry(idx).or_default();
            if state.retry_at.is_none() {
                // Freshly detected disconnect: back off before the
                // first re-dial (the daemon may still be restarting).
                self.stats.disconnects_seen += 1;
                state.attempts = 0;
            }
        }
        let delay_due = match self.subs[&idx].retry_at {
            Some(at) => now >= at,
            None => true,
        };
        if !delay_due {
            return;
        }
        self.stats.reconnect_attempts += 1;
        match self.feed.reconnect(id) {
            Ok(()) => {
                self.stats.reconnects += 1;
                let last = self.subs[&idx].seen.iter().next_back().copied();
                let state = self.subs.get_mut(&idx).expect("state inserted above");
                state.attempts = 0;
                state.retry_at = None;
                // Ask for an immediate interior-gap sweep too.
                state.next_repair_at = None;
                // Tail repair: replay everything after the last epoch we
                // saw. The daemon serves only what the archive holds, so
                // an over-wide range is harmless.
                let from = last.map_or(0, |e| e + 1);
                let to = from + self.config.catch_up_horizon;
                if self.feed.request_catch_up(id, from, to).is_ok() {
                    self.stats.gap_repairs += 1;
                    self.subs
                        .get_mut(&idx)
                        .expect("state inserted above")
                        .pending = Some(PendingCatchUp {
                        next: from,
                        to,
                        issued_at: Instant::now(),
                        retry_at: None,
                        attempts: 1,
                    });
                    if tre_obs::is_enabled() {
                        tre_obs::event(
                            "supervisor.gap_repair",
                            &format!("sub={idx} from={from} to={to}"),
                        );
                    }
                }
            }
            Err(_) => {
                let attempts = self.subs[&idx].attempts;
                let delay = self.backoff(attempts);
                let state = self.subs.get_mut(&idx).expect("state inserted above");
                state.attempts = attempts.saturating_add(1);
                state.retry_at = Some(now + delay);
            }
        }
    }

    /// Issues the armed cold-start catch-up once per subscriber, on its
    /// first connected poll: replay from `cold_start_from` to the end
    /// of the upstream archive (`u64::MAX`; the daemon clamps).
    fn cold_start(&mut self, id: SubscriberId) {
        let Some(from) = self.cold_start_from else {
            return;
        };
        let idx = id.index();
        if self.subs.entry(idx).or_default().cold_started {
            return;
        }
        if self.feed.request_catch_up(id, from, u64::MAX).is_ok() {
            self.stats.gap_repairs += 1;
            let state = self.subs.get_mut(&idx).expect("inserted above");
            state.cold_started = true;
            state.pending = Some(PendingCatchUp {
                next: from,
                to: u64::MAX,
                issued_at: Instant::now(),
                retry_at: None,
                attempts: 1,
            });
            if tre_obs::is_enabled() {
                tre_obs::event("supervisor.cold_start", &format!("sub={idx} from={from}"));
            }
        }
    }

    /// Drives the supervised catch-up state machine: honors `Busy`
    /// retry hints from a saturated daemon, detects completion, and —
    /// within the configured retry budget — re-issues a stalled request
    /// from its resume point (one past the highest epoch received in
    /// range), so a partial replay is never repeated from scratch.
    fn pump_catch_up(&mut self, id: SubscriberId) {
        let idx = id.index();
        let now = Instant::now();
        if let Some(ms) = self.feed.take_retry_after(id) {
            self.stats.busy_sheds_seen += 1;
            if let Some(p) = self
                .subs
                .get_mut(&idx)
                .and_then(|state| state.pending.as_mut())
            {
                p.retry_at = Some(now + Duration::from_millis(u64::from(ms)));
            }
            if tre_obs::is_enabled() {
                tre_obs::event("supervisor.busy_shed", &format!("sub={idx} retry_ms={ms}"));
            }
        }
        let timeout = self.config.catch_up_timeout;
        let budget = self.config.catch_up_retries;
        let (from, to, resumed) = {
            let Some(state) = self.subs.get_mut(&idx) else {
                return;
            };
            let Some(p) = state.pending.as_mut() else {
                return;
            };
            let resume = state
                .seen
                .range(p.next..=p.to)
                .next_back()
                .map_or(p.next, |&e| e.saturating_add(1));
            if resume > p.to {
                state.pending = None; // range fully received
                return;
            }
            let due = match p.retry_at {
                Some(at) => now >= at,
                None => now.duration_since(p.issued_at) >= timeout,
            };
            if !due {
                return;
            }
            if p.attempts > budget {
                // Budget exhausted: stop supervising this range; the
                // interior gap sweep remains as the recovery path.
                state.pending = None;
                return;
            }
            let resumed = resume > p.next;
            p.next = resume;
            p.attempts += 1;
            p.issued_at = now;
            p.retry_at = None;
            (resume, p.to, resumed)
        };
        if self.feed.request_catch_up(id, from, to).is_ok() {
            self.stats.catch_up_retries += 1;
            if resumed {
                self.stats.catch_up_resumes += 1;
            }
            if tre_obs::is_enabled() {
                tre_obs::event(
                    "supervisor.catch_up_retry",
                    &format!("sub={idx} from={from} to={to} resumed={resumed}"),
                );
            }
        }
    }

    /// Requests a replay of any interior gaps (epochs missing from
    /// `0..=max_seen`) — the anti-entropy path that recovers updates a
    /// fault mangled *without* killing the connection. Rate-limited by
    /// `repair_interval`.
    fn repair_gaps(&mut self, id: SubscriberId) {
        let idx = id.index();
        let now = Instant::now();
        let (from, to) = {
            let Some(state) = self.subs.get(&idx) else {
                return;
            };
            if state.next_repair_at.is_some_and(|at| now < at) {
                return;
            }
            let Some(&max) = state.seen.iter().next_back() else {
                return;
            };
            let missing: Vec<u64> = (0..=max).filter(|e| !state.seen.contains(e)).collect();
            match (missing.first(), missing.last()) {
                (Some(&a), Some(&b)) => (a, b),
                _ => return,
            }
        };
        if self.feed.request_catch_up(id, from, to).is_ok() {
            self.stats.gap_repairs += 1;
            if tre_obs::is_enabled() {
                tre_obs::event(
                    "supervisor.gap_repair",
                    &format!("sub={idx} from={from} to={to}"),
                );
            }
        }
        let state = self.subs.get_mut(&idx).expect("checked above");
        state.next_repair_at = Some(now + self.config.repair_interval);
    }
}

impl<const L: usize> Feed<L> for SupervisedFeed<L> {
    fn subscribe(&mut self) -> SubscriberId {
        let id = Feed::subscribe(&mut self.feed);
        self.subs.insert(id.index(), SubState::default());
        id
    }

    fn poll(&mut self, id: SubscriberId) -> Vec<(u64, KeyUpdate<L>)> {
        let updates = Feed::poll(&mut self.feed, id);
        {
            let granularity = self.granularity;
            let state = self.subs.entry(id.index()).or_default();
            for epoch in updates
                .iter()
                .filter_map(|(_, u)| granularity.epoch_of_tag(u.tag()))
            {
                state.seen.insert(epoch);
            }
        }
        if self.feed.is_connected(id) {
            self.cold_start(id);
            self.pump_catch_up(id);
            self.repair_gaps(id);
        } else {
            self.supervise(id);
        }
        updates
    }

    fn request_catch_up(&mut self, id: SubscriberId, from: u64, to: u64) -> Result<(), TreError> {
        SupervisedFeed::request_catch_up(self, id, from, to)
    }

    fn is_connected(&self, id: SubscriberId) -> bool {
        SupervisedFeed::is_connected(self, id)
    }

    fn disconnect(&mut self, id: SubscriberId) {
        self.feed.disconnect(id);
    }

    fn reconnect(&mut self, id: SubscriberId) -> Result<(), TreError> {
        self.feed.reconnect(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn backoff_is_exponential_capped_and_jittered_deterministically() {
        let curve = tre_pairing::toy64();
        let feed: TcpFeed<8> = TcpFeed::new(curve, "127.0.0.1:1".parse().unwrap());
        let config = SupervisorConfig {
            base_delay: Duration::from_millis(8),
            max_delay: Duration::from_millis(100),
            catch_up_horizon: 16,
            repair_interval: Duration::from_millis(50),
            ..SupervisorConfig::default()
        };
        let mut a = SupervisedFeed::new(feed, Granularity::Seconds, config, 7);
        let delays: Vec<u64> = (0..8).map(|n| a.backoff(n).as_millis() as u64).collect();
        for (n, d) in delays.iter().enumerate() {
            let ceiling = (8u64 << n).min(100);
            assert!(
                (ceiling / 2..=ceiling).contains(d),
                "attempt {n}: {d}ms outside [{}, {ceiling}]",
                ceiling / 2
            );
        }
        assert!(delays.iter().skip(4).all(|&d| d <= 100), "cap respected");
        // Same seed → same jitter sequence.
        let feed2: TcpFeed<8> = TcpFeed::new(curve, "127.0.0.1:1".parse().unwrap());
        let mut b = SupervisedFeed::new(feed2, Granularity::Seconds, config, 7);
        let delays2: Vec<u64> = (0..8).map(|n| b.backoff(n).as_millis() as u64).collect();
        assert_eq!(delays, delays2);
    }

    /// A subscriber whose upstream is down has its reconnect backoff as
    /// its only deadline; a wait on it ends early when the waker fires.
    #[test]
    fn backoff_is_the_deadline_and_a_wake_ends_the_wait() {
        let down = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = down.local_addr().unwrap();
        drop(down);
        let feed: TcpFeed<8> = TcpFeed::new(tre_pairing::toy64(), addr);
        let config = SupervisorConfig {
            base_delay: Duration::from_secs(60),
            max_delay: Duration::from_secs(60),
            ..SupervisorConfig::default()
        };
        let mut sup = SupervisedFeed::new(feed, Granularity::Seconds, config, 7);
        let sub = sup.subscribe_lazy();
        assert!(
            sup.next_deadline(sub).unwrap() <= Instant::now(),
            "a lazy subscriber dials on its first poll"
        );
        let _ = Feed::poll(&mut sup, sub);
        assert_eq!(sup.stats().reconnect_attempts, 1);
        let until = sup.next_deadline(sub).expect("backoff deadline");
        assert!(
            until >= Instant::now() + Duration::from_secs(25),
            "in backoff"
        );

        let waker = Arc::new(Waker::new().unwrap());
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let (waker, barrier) = (Arc::clone(&waker), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                let readable = sup.wait_with(sub, Some(&waker));
                (readable, sup)
            })
        };
        barrier.wait();
        waker.wake();
        let (readable, sup) = waiter.join().unwrap();
        assert!(!readable, "woken, not readable");
        assert_eq!(
            sup.stats().reconnect_attempts,
            1,
            "no dial before the deadline"
        );
    }

    #[test]
    fn supervisor_stats_export_lands_in_registry() {
        let stats = SupervisorStats {
            disconnects_seen: 3,
            reconnect_attempts: 5,
            reconnects: 2,
            gap_repairs: 4,
            catch_up_retries: 6,
            catch_up_resumes: 1,
            busy_sheds_seen: 2,
        };
        let mut reg = tre_obs::Registry::new();
        stats.export_into(&mut reg, "sup");
        assert_eq!(reg.counter("sup_disconnects_seen"), 3);
        assert_eq!(reg.counter("sup_reconnect_attempts"), 5);
        assert_eq!(reg.counter("sup_reconnects"), 2);
        assert_eq!(reg.counter("sup_gap_repairs"), 4);
        assert_eq!(reg.counter("sup_catch_up_retries"), 6);
        assert_eq!(reg.counter("sup_catch_up_resumes"), 1);
        assert_eq!(reg.counter("sup_busy_sheds_seen"), 2);
        // Re-export overwrites (absolute semantics), never accumulates.
        stats.export_into(&mut reg, "sup");
        assert_eq!(reg.counter("sup_gap_repairs"), 4);
    }

    /// A cold-start catch-up wider than the daemon's span cap is
    /// clipped server-side; the supervisor's timeout machinery then
    /// *resumes* from one past the highest epoch received — never
    /// replaying progress — until the whole archive has arrived.
    #[test]
    fn clipped_catch_up_resumes_until_range_complete() {
        use crate::clock::SimClock;
        use crate::server::TimeServer;
        use crate::tcp::{CatchUpConfig, Tred, TredConfig};
        use tre_core::ServerKeyPair;

        let curve = tre_pairing::toy64();
        let mut rng = rand::thread_rng();
        let clock = SimClock::new();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let mut server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
        clock.advance(9);
        assert_eq!(server.poll().len(), 10, "epochs 0..=9 archived before bind");
        let tred = Tred::bind(
            "127.0.0.1:0",
            curve,
            server,
            TredConfig {
                catch_up: CatchUpConfig {
                    max_span: 3,
                    ..CatchUpConfig::default()
                },
                ..TredConfig::default()
            },
        )
        .unwrap();

        let feed: TcpFeed<8> = TcpFeed::new(curve, tred.local_addr());
        let mut sup = SupervisedFeed::new(
            feed,
            Granularity::Seconds,
            SupervisorConfig {
                catch_up_timeout: Duration::from_millis(50),
                catch_up_retries: 16,
                ..SupervisorConfig::default()
            },
            7,
        );
        sup.set_cold_start_from(0);
        let sub = Feed::subscribe(&mut sup);

        // Each clipped reply ends short of the range; the supervisor's
        // catch-up deadline (not a timer in the test) paces the resumes.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let _ = Feed::poll(&mut sup, sub);
            if sup.last_epoch(sub) == Some(9) && sup.missing_epochs(sub).is_empty() {
                break;
            }
            sup.wait_with(sub, None);
        }
        assert_eq!(sup.last_epoch(sub), Some(9), "full archive recovered");
        assert!(sup.missing_epochs(sub).is_empty(), "no interior gaps");
        assert!(
            sup.stats().catch_up_resumes >= 3,
            "3-epoch clips of a 10-epoch archive force >= 3 resumes, saw {}",
            sup.stats().catch_up_resumes
        );
        assert!(
            tred.stats().catch_up_clipped.load(Ordering::Relaxed) >= 3,
            "every over-wide request was clipped server-side"
        );
        tred.shutdown();
    }
}
