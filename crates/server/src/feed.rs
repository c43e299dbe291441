//! The unified subscription surface: the [`Feed`] trait and its
//! builder front-ends.
//!
//! [`Feed`] is the surface every update source implements — the
//! [`crate::ChaosSim`] channel, [`crate::TcpFeed`] (one daemon),
//! [`crate::SupervisedFeed`] (reconnect supervision + gap repair), and
//! [`crate::CommitteeFeed`] (t-of-n aggregation) — so
//! [`crate::ReceiverClient::pump`] and the relay's upstream pump are
//! written once against it. Beyond `subscribe`/`poll` it covers what a
//! relay needs: catching up an archive range on cold start, and the
//! connection lifecycle (is the link up? drop it, re-dial it).
//!
//! The builder functions realize the `Feed::tcp(addr)`-style
//! construction surface (Rust puts traits and types in one namespace,
//! so the entry points live here as `feed::tcp(..)` and
//! `feed::committee(..)`):
//!
//! ```no_run
//! # use tre_server::{feed, Granularity, SupervisorConfig};
//! # let curve = tre_pairing::toy64();
//! # let addr: std::net::SocketAddr = "127.0.0.1:7878".parse().unwrap();
//! // A supervised TCP feed that cold-starts from epoch 0:
//! let upstream = feed::tcp::<8>(curve, addr)
//!     .supervised(Granularity::Seconds, SupervisorConfig::default(), 7)
//!     .catch_up_from(0)
//!     .build();
//! ```

use std::net::SocketAddr;

use tre_core::{KeyUpdate, TreError};
use tre_pairing::Curve;

use crate::clock::{Granularity, SimClock};
use crate::committee::{CollectorConfig, CommitteeFeed};
use crate::supervised::{SupervisedFeed, SupervisorConfig};
use crate::tcp::TcpFeed;
use crate::telemetry::TraceSink;

/// Handle identifying a subscriber on a [`Feed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriberId(usize);

impl SubscriberId {
    pub(crate) fn new(index: usize) -> Self {
        Self(index)
    }

    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A source of broadcast key updates with per-subscriber delivery,
/// catch-up ranges, and connection lifecycle.
///
/// Only `subscribe` and `poll` are required; the lifecycle methods
/// default to the behavior of a lossless always-up channel (the
/// simulation), so in-process feeds implement nothing extra while
/// socket-backed feeds override all four.
pub trait Feed<const L: usize> {
    /// Registers a new subscriber and returns its handle.
    fn subscribe(&mut self) -> SubscriberId;

    /// Drains every update currently deliverable to `id`, as
    /// `(delivered_at, update)` pairs in delivery order. Updates sharing
    /// a `delivered_at` stamp arrived together and may be batch-verified
    /// as one burst (see [`crate::ReceiverClient::pump`]).
    fn poll(&mut self, id: SubscriberId) -> Vec<(u64, KeyUpdate<L>)>;

    /// Asks the source to replay archived epochs `from..=to` into the
    /// normal update stream. Default: no-op `Ok` — a lossless channel
    /// has nothing to replay.
    ///
    /// # Errors
    /// [`TreError::Io`] if the subscriber has no live connection to
    /// request over.
    fn request_catch_up(
        &mut self,
        _id: SubscriberId,
        _from: u64,
        _to: u64,
    ) -> Result<(), TreError> {
        Ok(())
    }

    /// Whether the subscriber's link is currently up. Default: `true`
    /// (an in-process channel is never down).
    fn is_connected(&self, _id: SubscriberId) -> bool {
        true
    }

    /// Drops the subscriber's connection (modeling receiver downtime).
    /// Default: no-op.
    fn disconnect(&mut self, _id: SubscriberId) {}

    /// Re-establishes a dropped connection. Default: no-op `Ok`.
    ///
    /// # Errors
    /// [`TreError::Io`] if the dial or handshake fails.
    fn reconnect(&mut self, _id: SubscriberId) -> Result<(), TreError> {
        Ok(())
    }
}

/// Starts a TCP feed builder dialing `addr` (the `Feed::tcp(addr)`
/// entry point). Finish with [`TcpBuilder::build`], or chain
/// [`TcpBuilder::supervised`] for reconnect supervision.
pub fn tcp<const L: usize>(curve: &'static Curve<L>, addr: SocketAddr) -> TcpBuilder<L> {
    TcpBuilder {
        curve,
        addrs: vec![addr],
        clock: None,
        trace: None,
    }
}

/// A live t-of-n committee feed (the `Feed::committee(roster, addrs)`
/// entry point): one supervised, lazily-dialed link per member.
pub fn committee<const L: usize>(
    curve: &'static Curve<L>,
    roster: tre_core::committee::CommitteeRoster<L>,
    granularity: Granularity,
    members: &[(u32, SocketAddr)],
    supervisor: SupervisorConfig,
    collector: CollectorConfig,
    seed: u64,
) -> CommitteeFeed<L> {
    CommitteeFeed::new(
        curve,
        roster,
        granularity,
        members,
        supervisor,
        collector,
        seed,
    )
}

/// Builder for a [`TcpFeed`] (and, via [`TcpBuilder::supervised`], a
/// [`SupervisedFeed`]).
pub struct TcpBuilder<const L: usize> {
    curve: &'static Curve<L>,
    addrs: Vec<SocketAddr>,
    clock: Option<SimClock>,
    trace: Option<TraceSink>,
}

impl<const L: usize> TcpBuilder<L> {
    /// Stamps deliveries with this clock instead of an internal poll
    /// counter (see [`TcpFeed::with_clock`]).
    pub fn with_clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attaches a delivery-side [`TraceSink`] (see
    /// [`TcpFeed::with_trace_sink`]).
    pub fn with_trace_sink(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Adds a fallback upstream address rotated through on reconnect
    /// (see [`TcpFeed::add_fallback`]).
    pub fn fallback(mut self, addr: SocketAddr) -> Self {
        self.addrs.push(addr);
        self
    }

    /// Wraps the feed in reconnect supervision: jittered exponential
    /// backoff re-dials, tail catch-up after downtime, and rate-limited
    /// interior gap repair.
    pub fn supervised(
        self,
        granularity: Granularity,
        config: SupervisorConfig,
        seed: u64,
    ) -> SupervisedBuilder<L> {
        SupervisedBuilder {
            inner: self,
            granularity,
            config,
            seed,
            catch_up_from: None,
        }
    }

    /// The bare (unsupervised) feed.
    pub fn build(self) -> TcpFeed<L> {
        let mut addrs = self.addrs.into_iter();
        let mut feed = TcpFeed::new(self.curve, addrs.next().expect("primary address"));
        for addr in addrs {
            feed.add_fallback(addr);
        }
        if let Some(clock) = self.clock {
            feed = feed.with_clock(clock);
        }
        if let Some(sink) = self.trace {
            feed.set_trace_sink(sink);
        }
        feed
    }
}

/// Builder for a [`SupervisedFeed`], continuing a [`TcpBuilder`].
pub struct SupervisedBuilder<const L: usize> {
    inner: TcpBuilder<L>,
    granularity: Granularity,
    config: SupervisorConfig,
    seed: u64,
    catch_up_from: Option<u64>,
}

impl<const L: usize> SupervisedBuilder<L> {
    /// Cold-start catch-up: on each subscriber's first connected poll,
    /// ask the upstream to replay its archive from `epoch` onward
    /// before live updates are relied on — how a relay (or a client
    /// returning from long downtime) backfills history it never saw.
    pub fn catch_up_from(mut self, epoch: u64) -> Self {
        self.catch_up_from = Some(epoch);
        self
    }

    /// The supervised feed.
    pub fn build(self) -> SupervisedFeed<L> {
        let seed = self.seed;
        let granularity = self.granularity;
        let config = self.config;
        let catch_up_from = self.catch_up_from;
        let feed = self.inner.build();
        let mut supervised = SupervisedFeed::new(feed, granularity, config, seed);
        if let Some(epoch) = catch_up_from {
            supervised.set_cold_start_from(epoch);
        }
        supervised
    }
}
