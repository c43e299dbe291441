//! Simulated absolute time.
//!
//! The paper's model is GPS-like: one authoritative clock everyone can
//! observe (§3). [`SimClock`] is that reference for simulations — a shared
//! monotone counter of seconds, advanced explicitly by the test harness so
//! every run is deterministic. A thread can block until the clock reaches
//! a given tick ([`SimClock::wait_until`]) instead of polling it, which is
//! how the `tred` ticker sleeps exactly until the next epoch boundary.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use tre_core::ReleaseTag;

/// Epoch granularity for time-bound key updates (how often the server
/// broadcasts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One update per simulated second.
    Seconds,
    /// One update per simulated minute.
    Minutes,
    /// One update per simulated hour.
    Hours,
    /// One update per simulated day.
    Days,
    /// A custom epoch length in raw clock ticks — lets fine-grained
    /// simulations (e.g. millisecond-resolution jitter studies) reinterpret
    /// the clock unit.
    Custom(u64),
}

impl Granularity {
    /// Epoch length in clock ticks (seconds for the named variants).
    pub fn seconds(self) -> u64 {
        match self {
            Granularity::Seconds => 1,
            Granularity::Minutes => 60,
            Granularity::Hours => 3_600,
            Granularity::Days => 86_400,
            Granularity::Custom(ticks) => {
                assert!(ticks > 0, "custom granularity must be positive");
                ticks
            }
        }
    }

    /// The epoch index containing absolute second `t`.
    pub fn epoch_of(self, t: u64) -> u64 {
        t / self.seconds()
    }

    /// Start second of epoch `e`.
    pub fn epoch_start(self, e: u64) -> u64 {
        e * self.seconds()
    }

    /// Canonical release tag for epoch `e` — the string the server signs.
    ///
    /// Senders can compute this for *any* epoch arbitrarily far in the
    /// future without contacting the server (the paper's key scalability
    /// point versus Rivest's published-key-list variant).
    pub fn tag_for_epoch(self, e: u64) -> ReleaseTag {
        let unit = match self {
            Granularity::Seconds => "s".to_string(),
            Granularity::Minutes => "m".to_string(),
            Granularity::Hours => "h".to_string(),
            Granularity::Days => "d".to_string(),
            Granularity::Custom(ticks) => format!("c{ticks}"),
        };
        ReleaseTag::time(format!("epoch/{unit}/{e}"))
    }

    /// Tag for the epoch containing absolute second `t`.
    pub fn tag_at(self, t: u64) -> ReleaseTag {
        self.tag_for_epoch(self.epoch_of(t))
    }

    /// Parses the epoch index back out of a tag produced by
    /// [`Granularity::tag_for_epoch`]. Returns `None` for tags of a
    /// different granularity, foreign formats, or non-time tags — callers
    /// (archive catch-up, invariant checkers) treat those as
    /// "not an epoch tag" rather than an error.
    pub fn epoch_of_tag(self, tag: &ReleaseTag) -> Option<u64> {
        if tag.kind() != tre_core::TagKind::Time {
            return None;
        }
        let s = core::str::from_utf8(tag.value()).ok()?;
        let rest = s.strip_prefix("epoch/")?;
        let (unit, epoch) = rest.split_once('/')?;
        let expected = match self {
            Granularity::Seconds => "s".to_string(),
            Granularity::Minutes => "m".to_string(),
            Granularity::Hours => "h".to_string(),
            Granularity::Days => "d".to_string(),
            Granularity::Custom(ticks) => format!("c{ticks}"),
        };
        if unit != expected {
            return None;
        }
        epoch.parse().ok()
    }
}

/// A shared, monotone simulated clock (seconds since simulation start).
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    inner: Arc<ClockInner>,
}

#[derive(Debug, Default)]
struct ClockInner {
    /// The current tick; read lock-free by [`SimClock::now`].
    now: AtomicU64,
    /// Serialises waiters' re-checks against notifications, so a tick
    /// stored between a waiter's check and its sleep is never missed.
    lock: Mutex<()>,
    ticked: Condvar,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> u64 {
        self.inner.now.load(Ordering::SeqCst)
    }

    /// Advances the clock by `dt` seconds, returning the new time.
    pub fn advance(&self, dt: u64) -> u64 {
        let now = self.inner.now.fetch_add(dt, Ordering::SeqCst) + dt;
        self.wake_all();
        now
    }

    /// Sets the clock forward to `t`.
    ///
    /// # Panics
    /// Panics if `t` is in the past — the reference clock never goes
    /// backwards (first trust assumption of §3).
    pub fn set(&self, t: u64) {
        let prev = self.inner.now.swap(t, Ordering::SeqCst);
        assert!(t >= prev, "SimClock must be monotone (was {prev}, set {t})");
        self.wake_all();
    }

    /// Blocks until the clock reads at least `t` (returns `true`) or
    /// `stop` is set (returns `false`, checked first). Whoever sets
    /// `stop` must call [`SimClock::wake_all`] afterwards to release the
    /// waiter.
    pub fn wait_until(&self, t: u64, stop: &AtomicBool) -> bool {
        let mut guard = self.inner.lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            if self.now() >= t {
                return true;
            }
            guard = self
                .inner
                .ticked
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes every [`SimClock::wait_until`] caller so it re-checks the
    /// clock and its stop flag.
    pub fn wake_all(&self) {
        let _guard = self.inner.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.inner.ticked.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_math() {
        let g = Granularity::Minutes;
        assert_eq!(g.seconds(), 60);
        assert_eq!(g.epoch_of(0), 0);
        assert_eq!(g.epoch_of(59), 0);
        assert_eq!(g.epoch_of(60), 1);
        assert_eq!(g.epoch_start(2), 120);
    }

    #[test]
    fn tags_are_distinct_per_epoch_and_granularity() {
        assert_ne!(
            Granularity::Minutes.tag_for_epoch(5),
            Granularity::Minutes.tag_for_epoch(6)
        );
        assert_ne!(
            Granularity::Minutes.tag_for_epoch(5),
            Granularity::Hours.tag_for_epoch(5)
        );
        assert_eq!(
            Granularity::Seconds.tag_at(7),
            Granularity::Seconds.tag_for_epoch(7)
        );
    }

    #[test]
    fn epoch_of_tag_roundtrips_and_rejects_foreign() {
        for g in [
            Granularity::Seconds,
            Granularity::Minutes,
            Granularity::Hours,
            Granularity::Days,
            Granularity::Custom(250),
        ] {
            for e in [0, 1, 7, u64::MAX / 2] {
                assert_eq!(g.epoch_of_tag(&g.tag_for_epoch(e)), Some(e));
            }
        }
        let g = Granularity::Seconds;
        assert_eq!(g.epoch_of_tag(&Granularity::Minutes.tag_for_epoch(3)), None);
        assert_eq!(g.epoch_of_tag(&ReleaseTag::time("2026-07-04")), None);
        assert_eq!(g.epoch_of_tag(&ReleaseTag::time("epoch/s/notanum")), None);
        assert_eq!(g.epoch_of_tag(&ReleaseTag::policy("epoch/s/3")), None);
    }

    #[test]
    fn clock_advances_and_is_shared() {
        let c = SimClock::new();
        let c2 = c.clone();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c2.now(), 10, "clones observe the same time");
        c2.set(15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn custom_granularity() {
        let g = Granularity::Custom(250);
        assert_eq!(g.seconds(), 250);
        assert_eq!(g.epoch_of(499), 1);
        assert_eq!(g.epoch_start(2), 500);
        assert_ne!(
            g.tag_for_epoch(1),
            Granularity::Custom(500).tag_for_epoch(1)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn custom_zero_rejected() {
        let _ = Granularity::Custom(0).seconds();
    }

    /// Runs `wait_until(target)` on a helper thread, calls `release`,
    /// and returns the wait's result. The `Barrier` handshake guarantees
    /// the helper is about to wait when `release` runs; the waiter's
    /// re-check under the clock's lock makes the outcome independent of
    /// whether it is already asleep. A lost wakeup fails after 30 s
    /// instead of hanging the suite.
    fn wait_on_thread(
        clock: &SimClock,
        target: u64,
        stop: &Arc<AtomicBool>,
        release: impl FnOnce(),
    ) -> bool {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        {
            let (clock, stop, barrier) = (clock.clone(), Arc::clone(stop), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                let _ = done_tx.send(clock.wait_until(target, &stop));
            });
        }
        barrier.wait();
        release();
        done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("waiter never woke")
    }

    #[test]
    fn wait_for_a_passed_tick_returns_at_once() {
        let c = SimClock::new();
        c.set(7);
        let stop = AtomicBool::new(false);
        assert!(c.wait_until(7, &stop));
        assert!(c.wait_until(3, &stop));
    }

    #[test]
    fn waiter_wakes_on_advance() {
        let c = SimClock::new();
        let stop = Arc::new(AtomicBool::new(false));
        assert!(wait_on_thread(&c, 2, &stop, || {
            c.advance(1);
            c.advance(1);
        }));
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn waiter_wakes_on_set() {
        let c = SimClock::new();
        let stop = Arc::new(AtomicBool::new(false));
        assert!(wait_on_thread(&c, 40, &stop, || c.set(41)));
    }

    #[test]
    fn stop_releases_a_waiter_whose_clock_never_moves() {
        let c = SimClock::new();
        let stop = Arc::new(AtomicBool::new(false));
        let reached = wait_on_thread(&c, 1, &stop, || {
            stop.store(true, Ordering::SeqCst);
            c.wake_all();
        });
        assert!(!reached, "stopped, not reached");
        assert_eq!(c.now(), 0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn clock_rejects_time_travel() {
        let c = SimClock::new();
        c.advance(10);
        c.set(5);
    }
}
