#![warn(missing_docs)]
//! # tre-server
//!
//! The passive time-server runtime and a deterministic simulation of its
//! distribution environment:
//!
//! * [`SimClock`] / [`Granularity`] — the shared absolute time reference
//!   (the paper's GPS analogy, §3) and the broadcast epoch schedule;
//! * [`TimeServer`] — the passive server: signs each epoch's tag exactly
//!   once, refuses future epochs, holds zero user state;
//! * [`UpdateArchive`] — the public list of past updates, enabling
//!   missed-broadcast recovery;
//! * [`ReceiverClient`] — a resilient receiver endpoint: queues
//!   ciphertexts, admits updates through its `tre_core::Receiver`
//!   session, catches up from the archive with bounded exponential
//!   backoff, and exposes [`ClientHealth`] metrics;
//! * [`BatchVerifier`] — small-exponent batch verification of update
//!   bursts (2 pairings per clean batch instead of 2 per update, with
//!   bisection isolation of forgeries) on one prepared server key. The
//!   client and the relay both admit updates through one rule,
//!   `tre_core::PreparedServerKey::admit` (duplicates skipped and
//!   equivocations rejected by bytes before any pairing, the fresh rest
//!   verified in one burst check), and keep only their own bookkeeping;
//! * [`ChaosSim`] / [`FaultPlan`] — the one simulated world: clock,
//!   crash-recoverable server, a broadcast channel with seeded latency,
//!   jitter and loss ([`NetConfig`]), and receiver clients drained
//!   through [`ReceiverClient::pump`] like every live feed, with
//!   deterministic fault injection (server crash/restart, partitions,
//!   duplicate storms, reordering, corruption, Byzantine
//!   equivocation/forgery, archive outages) and safety and liveness
//!   invariant checking (experiment E13); an empty plan is the plain
//!   world;
//! * [`RelayTreeSim`] — a million-subscriber relay tree (experiment E20)
//!   whose relays run the `trerelay` admission step and whose wires are
//!   a seeded latency model;
//! * [`Feed`] — the unified subscription surface ([`feed`] has the
//!   TCP and committee builder entry points) that the [`ChaosSim`]
//!   channel, [`TcpFeed`], [`SupervisedFeed`], [`CommitteeFeed`], and
//!   the relay upstream all implement, so [`ReceiverClient::pump`] and
//!   [`Relay`] are written once against it;
//! * [`Tred`] / [`TcpFeed`] — the real TCP broadcast daemon (sharded
//!   readiness-polling event loop, bounded per-subscriber write queues,
//!   slow-subscriber eviction, archive catch-up over the versioned
//!   `tre-wire` framing — O(shards) threads, not O(subscribers)) and
//!   its subscriber feed;
//! * [`Relay`] — the untrusted fan-out tier (`trerelay`): cold-starts
//!   from a [`SupervisedFeed`] upstream via archive catch-up, admits
//!   each epoch exactly once through the admission rule, and
//!   re-serves downstream through the same event loop with the
//!   `Telemetry` hop counter incremented per tree level;
//! * [`Journal`] — the durable append-only update log behind
//!   [`UpdateArchive::open_durable`], and the archive's only on-disk
//!   copy: CRC32-framed records in `seg-*.trej` segment files,
//!   configurable fsync policy, torn-tail truncation and corruption
//!   quarantine on open, segment rotation + retention compaction, and an
//!   in-memory epoch → (segment, offset, length) index that a
//!   [`JournalReader`] serves point lookups and chunked range reads
//!   from with positioned reads — the storage side of the
//!   overload-safe deep catch-up path;
//! * [`ChaosProxy`] / [`SupervisedFeed`] — live-socket fault injection
//!   (partitions, latency spikes, torn frames, byte corruption,
//!   connection resets) between `tred` and its feeds, plus a reconnect
//!   supervisor with jittered exponential backoff and catch-up gap
//!   repair;
//! * [`ShareCollector`] / [`CommitteeFeed`] — the live t-of-n committee
//!   receiver: per-epoch quorum tracking over n supervised member
//!   connections, batched pairing verification of key-update shares
//!   against roster commitments, Byzantine quarantine with per-member
//!   verdicts, and exponent-Lagrange aggregation to the full update
//!   (`Tred::bind_member` is the member-daemon side);
//! * [`TraceSink`] / [`TelemetryServer`] — end-to-end epoch-delivery
//!   tracing (publish→journal-fsync→broadcast→first-byte→verified→
//!   decrypted stage attribution, carried across the wire by the
//!   `Telemetry` 0x14 trailer frame) and the live HTTP exposition
//!   plane (`/metrics`, `/metrics.json`, `/healthz`, `/readyz`)
//!   behind `tred --telemetry` and the `tretop` dashboard.
//!
//! # Example
//! ```
//! use tre_server::{Granularity, SimClock, TimeServer};
//! use tre_core::ServerKeyPair;
//!
//! let curve = tre_pairing::toy64();
//! let mut rng = rand::thread_rng();
//! let clock = SimClock::new();
//! let keys = ServerKeyPair::generate(curve, &mut rng);
//! let mut server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
//!
//! clock.advance(3);
//! let updates = server.poll(); // epochs 0..=3, one broadcast each
//! assert_eq!(updates.len(), 4);
//! assert!(server.issue_for_epoch(99).is_err(), "never signs the future");
//! ```

mod archive;
mod batch;
mod chaos_tcp;
mod client;
mod clock;
mod committee;
mod evloop;
mod faults;
pub mod feed;
mod forecast;
mod journal;
mod metrics;
mod relay;
mod server;
mod sim;
mod supervised;
mod tcp;
mod telemetry;

pub use archive::{ArchiveReadStats, UpdateArchive};
pub use batch::{BatchVerdict, BatchVerifier};
pub use chaos_tcp::{ChaosProxy, ProxyStats};
pub use client::{
    BackoffConfig, BatchReport, OpenedMessage, ReceiverClient, UpdateOutcome,
    DEFAULT_QUARANTINE_THRESHOLD,
};
pub use clock::{Granularity, SimClock};
pub use committee::{CollectorConfig, CommitteeFeed, CommitteeStats, ShareCollector};
pub use faults::{ChaosSim, Fault, FaultEvent, FaultPlan, InvariantReport, NetConfig, NetStats};
pub use feed::{Feed, SubscriberId};
pub use journal::{
    FsyncPolicy, Journal, JournalConfig, JournalReader, JournalStats, ReplayReport,
    RECORD_HEADER_LEN, RECORD_MAGIC, RECORD_TRAILER_LEN,
};
pub use metrics::{ClientHealth, LatencyHistogram};
pub use relay::{Relay, RelayConfig, RelayExporter, RelayStats};
pub use server::{FutureEpochError, TimeServer};
pub use sim::{DeliveryReport, FanoutShape, RelayTreeSim};
pub use supervised::{SupervisedFeed, SupervisorConfig, SupervisorStats};
pub use tcp::{
    CatchUpConfig, FeedStats, TcpFeed, TickerStats, Tred, TredConfig, TredExporter, TredStats,
};
pub use telemetry::{
    now_ns, EpochTrace, HealthSnapshot, Stage, TelemetryServer, TelemetrySnapshot, TraceSink,
};
