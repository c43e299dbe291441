//! A real TCP broadcast transport: the `tred` daemon core and the
//! [`TcpFeed`] subscriber feed.
//!
//! [`Tred`] serves the passive time server's broadcast duty over loopback
//! or LAN TCP using the versioned `tre-wire` framing, on top of the
//! sharded readiness event loop in [`crate::evloop`]: N shard threads
//! each multiplex their share of the subscriber sockets with `poll(2)`,
//! so the daemon's thread count is `O(shards)` — never
//! `O(subscribers)` — and one process holds 100k+ sockets. Each
//! subscriber has a **bounded** outbound frame queue (a slow subscriber
//! is evicted rather than allowed to stall the broadcast — the paper's
//! server never blocks on a receiver), and [`CatchUpRequest`] frames
//! are answered inline by replaying archived epochs. Each update is
//! wire-encoded **once** per broadcast and shared by reference with
//! every subscriber queue, so server-side cost stays independent of the
//! subscriber count (the scalability claim, now measurable on a real
//! socket).
//!
//! [`TcpFeed`] is the client side: it dials the daemon, speaks the
//! [`Hello`] handshake, decodes the frame stream incrementally with
//! [`tre_wire::peek_frame`], and implements [`Feed`] so a
//! [`crate::ReceiverClient`] pumps updates from it exactly as from the
//! simulated [`crate::ChaosSim`] channel.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tre_core::{KeyUpdate, ServerPublicKey, TagForecast, TreError};
use tre_pairing::Curve;
use tre_wire::{
    peek_frame, Busy, CatchUpRequest, CommitteeHello, Hello, KeyUpdateShare, Telemetry, Wire,
    HEADER_LEN,
};

use crate::archive::UpdateArchive;
use crate::clock::SimClock;
use crate::evloop::{poll_timeout_ms, sys, Broadcaster, ServeShared, Waker};
use crate::feed::{Feed, SubscriberId};
use crate::forecast::Forecaster;
use crate::server::TimeServer;
use crate::telemetry::{HealthSnapshot, Stage, TelemetrySnapshot, TraceSink};

/// Admission control for archive catch-up service: the knobs that keep
/// a reconnect storm of deep-history requests from materialising
/// unbounded replies or starving the live broadcast path.
#[derive(Debug, Clone, Copy)]
pub struct CatchUpConfig {
    /// Largest epoch span one [`CatchUpRequest`] may claim; wider
    /// requests are clipped to `[from, from + max_span - 1]` (counted in
    /// [`TredStats::catch_up_clipped`]) rather than rejected — the
    /// client resumes from where the clipped replay ends.
    pub max_span: u64,
    /// Catch-up replays allowed to be in flight at once across the
    /// whole daemon. Requests beyond this are shed with a [`Busy`]
    /// frame (counted in [`TredStats::catch_up_shed`]) instead of
    /// queueing unbounded archive reads.
    pub max_concurrent: usize,
    /// Archive records read (and frames encoded) per scheduling round
    /// of one replay — the unit of fairness between a deep catch-up
    /// and the live broadcast sharing the same bounded write queue.
    pub chunk: usize,
    /// The retry hint carried by [`Busy`] shed replies, in
    /// milliseconds.
    pub retry_after_ms: u32,
}

impl Default for CatchUpConfig {
    fn default() -> Self {
        Self {
            max_span: 4096,
            max_concurrent: 32,
            chunk: 64,
            retry_after_ms: 100,
        }
    }
}

/// Tuning knobs for the daemon.
#[derive(Debug, Clone, Copy)]
pub struct TredConfig {
    /// Outbound frames buffered per subscriber before it is evicted as
    /// too slow.
    pub queue_capacity: usize,
    /// Cap on the kernel send buffer per subscriber socket, in bytes
    /// (`SO_SNDBUF`; Linux only, ignored elsewhere). Without a cap the
    /// kernel autotunes the buffer into the megabytes, so a stalled
    /// subscriber can absorb minutes of broadcasts before the bounded
    /// queue ever fills and evicts it; capping bounds both the memory a
    /// slow peer pins and the delay until it is detected. `None` keeps
    /// the OS default.
    pub send_buffer: Option<u32>,
    /// Event-loop shard threads. Each shard owns a disjoint set of
    /// subscriber sockets and multiplexes them with `poll(2)`; the
    /// daemon's total thread count is `shards + 3` (accept, ticker and
    /// the ticker's forecast worker), independent of the subscriber
    /// count.
    pub shards: usize,
    /// Admission control for archive catch-up service.
    pub catch_up: CatchUpConfig,
}

impl Default for TredConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            send_buffer: None,
            shards: 4,
            catch_up: CatchUpConfig::default(),
        }
    }
}

tre_obs::metrics! {
    /// Daemon counters (all monotone; readable while the daemon runs).
    ///
    /// The export reads fields in declaration order, so the resolution
    /// counters come before `frames_offered`: every resolution is
    /// preceded by its offer (often on the same shard thread), so a
    /// scrape racing the broadcast path can only under-count
    /// resolutions and never over-resolves.
    #[derive(Debug, Default)]
    pub struct TredStats {
        /// Connections accepted.
        pub connections: AtomicU64,
        /// Key updates broadcast (frames encoded; one per update, not per
        /// subscriber — the scalability invariant).
        pub broadcasts: AtomicU64,
        /// Frames enqueued across all subscriber queues.
        pub frames_enqueued: AtomicU64,
        /// Frames actually written to a subscriber socket (deliveries).
        pub frames_written: AtomicU64,
        /// Frames that were enqueued but never written: left behind in the
        /// bounded queue when its subscriber was evicted, disconnected, or
        /// the daemon shut down.
        pub frames_abandoned: AtomicU64,
        /// Offers dropped because the subscriber was already closed or its
        /// queue receiver was gone.
        pub frames_dropped: AtomicU64,
        /// Subscribers evicted for falling behind (outbound queue full).
        /// Each eviction also drops exactly the frame that overflowed.
        pub evicted: AtomicU64,
        /// Per-subscriber frame offers: each broadcast frame counts once
        /// per subscriber slot it is offered to. Every offer resolves into
        /// exactly one of `frames_written`, `frames_abandoned`, `evicted`,
        /// or `frames_dropped`, or is still in flight — the
        /// delivery-conservation identity the telemetry endpoint is
        /// checked against.
        pub frames_offered: AtomicU64,
        /// Catch-up requests served.
        pub catch_up_requests: AtomicU64,
        /// Archived updates replayed in catch-up responses.
        pub catch_up_replies: AtomicU64,
        /// Catch-up requests whose span exceeded
        /// [`CatchUpConfig::max_span`] and were clipped.
        pub catch_up_clipped: AtomicU64,
        /// Catch-up requests shed with a [`Busy`] frame because
        /// [`CatchUpConfig::max_concurrent`] replays were already in
        /// flight.
        pub catch_up_shed: AtomicU64,
        /// Malformed or version-mismatched frames received.
        pub wire_errors: AtomicU64,
        /// Shard `poll(2)` returns that found no ready fd and no command:
        /// wakeups that did no work. Shards block without a timeout and are
        /// woken by their wake fd, so this stays 0 unless something
        /// reintroduces sleep-polling.
        pub idle_wakeups: AtomicU64,
    }
}

tre_obs::metrics! {
    /// The [`Tred`] ticker's signing counters (all monotone).
    #[derive(Debug, Default)]
    pub struct TickerStats {
        /// Epochs the ticker signed off a forecast `H1(T)`, hashed ahead of
        /// time on the idle-priority worker: one `s·H` at the boundary.
        pub forecast_hits: AtomicU64,
        /// Epochs the ticker signed without a forecast (boot, catch-up
        /// after a stall, or a forecast still in flight): hash, then sign.
        pub forecast_misses: AtomicU64,
    }
}

impl TredStats {
    /// Frame offers not yet terminally resolved: still sitting in a
    /// subscriber queue awaiting its writer thread. The balance of the
    /// conservation identity `frames_offered == frames_written +
    /// frames_abandoned + evicted + frames_dropped + in_flight`;
    /// resolutions are read before offers (see [`TredStats`]), and the
    /// result saturates at zero.
    pub fn in_flight(&self) -> u64 {
        let resolved = self.frames_written.load(Ordering::Relaxed)
            + self.frames_abandoned.load(Ordering::Relaxed)
            + self.evicted.load(Ordering::Relaxed)
            + self.frames_dropped.load(Ordering::Relaxed);
        let offered = self.frames_offered.load(Ordering::Relaxed);
        offered.saturating_sub(resolved)
    }
}

/// A running broadcast daemon. Dropping without [`Tred::shutdown`]
/// leaves the background threads running until process exit; tests and
/// the `tred` binary always shut down explicitly.
pub struct Tred<const L: usize> {
    addr: SocketAddr,
    public_key: ServerPublicKey<L>,
    shared: Arc<ServeShared<L>>,
    ticker_stats: Arc<TickerStats>,
    broadcaster: Option<Broadcaster<L>>,
    /// The server's clock, kept to wake the ticker on shutdown.
    clock: SimClock,
    ticker_handle: Option<JoinHandle<()>>,
}

impl<const L: usize> Tred<L> {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept loop
    /// and the epoch ticker. The [`TimeServer`] moves into the ticker
    /// thread; its archive handle stays shared for catch-up service.
    ///
    /// # Errors
    /// Propagates socket errors from bind.
    pub fn bind(
        addr: &str,
        curve: &'static Curve<L>,
        server: TimeServer<'static, L>,
        config: TredConfig,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, curve, server, config, None, None)
    }

    /// Like [`Tred::bind`], with epoch-delivery tracing: the server
    /// stamps `publish`/`journal_fsync` into `sink`, the ticker stamps
    /// `broadcast`, and every outbound update carries a [`Telemetry`]
    /// trailer frame (hop count bumped on catch-up replays).
    ///
    /// # Errors
    /// Propagates socket errors from bind.
    pub fn bind_traced(
        addr: &str,
        curve: &'static Curve<L>,
        mut server: TimeServer<'static, L>,
        config: TredConfig,
        sink: TraceSink,
    ) -> std::io::Result<Self> {
        server.set_trace_sink(sink.clone());
        Self::bind_inner(addr, curve, server, config, None, Some(sink))
    }

    /// Like [`Tred::bind_member`], with epoch-delivery tracing (see
    /// [`Tred::bind_traced`]); the trailer's origin is the member's
    /// roster index.
    ///
    /// # Errors
    /// Propagates socket errors from bind.
    pub fn bind_member_traced(
        addr: &str,
        curve: &'static Curve<L>,
        member: u32,
        mut server: TimeServer<'static, L>,
        config: TredConfig,
        sink: TraceSink,
    ) -> std::io::Result<Self> {
        server.set_trace_sink(sink.clone());
        Self::bind_inner(addr, curve, server, config, Some(member), Some(sink))
    }

    /// Like [`Tred::bind`], but runs the daemon as committee member
    /// `member` (1-based roster index): every broadcast and catch-up
    /// reply is framed as a [`KeyUpdateShare`] carrying this index, and
    /// each new subscriber is greeted with a [`CommitteeHello`] so a
    /// `CommitteeFeed` can check it dialed the member it expected. The
    /// [`TimeServer`]'s key pair must be the member's *share* key
    /// `(G, s_i)` — never the master secret.
    ///
    /// # Errors
    /// Propagates socket errors from bind.
    pub fn bind_member(
        addr: &str,
        curve: &'static Curve<L>,
        member: u32,
        server: TimeServer<'static, L>,
        config: TredConfig,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, curve, server, config, Some(member), None)
    }

    fn bind_inner(
        addr: &str,
        curve: &'static Curve<L>,
        server: TimeServer<'static, L>,
        config: TredConfig,
        member: Option<u32>,
        trace: Option<TraceSink>,
    ) -> std::io::Result<Self> {
        let public_key = *server.public_key();
        let shared = Arc::new(ServeShared {
            curve,
            archive: server.archive_handle(),
            stats: Arc::new(TredStats::default()),
            shutdown: AtomicBool::new(false),
            queue_capacity: config.queue_capacity,
            send_buffer: config.send_buffer,
            member,
            granularity: server.granularity(),
            trace,
            forward_origin: false,
            catch_up: config.catch_up,
            active_catch_ups: std::sync::atomic::AtomicUsize::new(0),
            subscribers: std::sync::atomic::AtomicUsize::new(0),
        });
        let broadcaster = Broadcaster::bind(addr, Arc::clone(&shared), config.shards)?;
        let local = broadcaster.local_addr();
        let handle = broadcaster.handle();
        let clock = server.clock().clone();
        let ticker_stats = Arc::new(TickerStats::default());

        // The ticker publishes whatever is due, asks the forecast worker
        // to hash the next epoch's tag, then sleeps on the clock until the
        // next epoch boundary passes (or shutdown wakes it). The worker
        // sees only the curve and the granularity.
        let ticker_handle = {
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&ticker_stats);
            let mut server = server;
            let granularity = server.granularity();
            let mut forecaster = Forecaster::new(move |epoch| {
                TagForecast::hash(curve, &granularity.tag_for_epoch(epoch))
            });
            std::thread::Builder::new()
                .name("tred-ticker".into())
                .spawn(move || loop {
                    let forecast = forecaster.take(server.next_epoch());
                    let hit = u64::from(forecast.is_some());
                    if let Some(forecast) = forecast {
                        server.install_forecast(forecast);
                    }
                    let updates = server.poll();
                    if !updates.is_empty() {
                        stats.forecast_hits.fetch_add(hit, Ordering::Relaxed);
                        stats
                            .forecast_misses
                            .fetch_add(updates.len() as u64 - hit, Ordering::Relaxed);
                    }
                    for update in &updates {
                        // Stamp before the handoff: a woken shard can
                        // write, and a subscriber read, before this
                        // thread runs again.
                        if let Some(sink) = &shared.trace {
                            if let Some(epoch) = shared.granularity.epoch_of_tag(update.tag()) {
                                sink.record_now(epoch, Stage::Broadcast);
                            }
                        }
                        handle.broadcast(update, 0);
                    }
                    if !updates.is_empty() {
                        forecaster.request(server.next_epoch());
                    }
                    if !server.wait_next_epoch(&shared.shutdown) {
                        break;
                    }
                })
                .expect("spawn ticker thread")
        };

        Ok(Self {
            addr: local,
            public_key,
            shared,
            ticker_stats,
            broadcaster: Some(broadcaster),
            clock,
            ticker_handle: Some(ticker_handle),
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The time server's public key (what subscribers verify against).
    pub fn public_key(&self) -> &ServerPublicKey<L> {
        &self.public_key
    }

    /// Live daemon counters.
    pub fn stats(&self) -> Arc<TredStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Current subscriber count (post-eviction), summed across shards.
    pub fn subscriber_count(&self) -> usize {
        self.shared.subscribers.load(Ordering::Relaxed)
    }

    /// The archive this daemon serves catch-ups from (durable when the
    /// [`TimeServer`] was recovered over a journal-backed archive).
    pub fn archive(&self) -> Arc<UpdateArchive<L>> {
        Arc::clone(&self.shared.archive)
    }

    /// Exports the daemon's metrics into a shared registry under
    /// `<prefix>_*` names (see [`TredExporter::export_into`]).
    pub fn export_into(&self, registry: &mut tre_obs::Registry, prefix: &str) {
        self.exporter().export_into(registry, prefix);
    }

    /// A cloneable handle that exports this daemon's metrics — what a
    /// `/metrics` snapshot closure captures.
    pub fn exporter(&self) -> TredExporter<L> {
        TredExporter {
            shared: Arc::clone(&self.shared),
            ticker: Arc::clone(&self.ticker_stats),
        }
    }

    /// The daemon's trace sink, when bound with tracing
    /// ([`Tred::bind_traced`] / [`Tred::bind_member_traced`]).
    pub fn trace_sink(&self) -> Option<TraceSink> {
        self.shared.trace.clone()
    }

    /// Stops the ticker, the accept loop, and every shard; closes every
    /// subscriber socket and joins the daemon threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.clock.wake_all();
        if let Some(broadcaster) = self.broadcaster.take() {
            broadcaster.shutdown();
        }
        if let Some(h) = self.ticker_handle.take() {
            let _ = h.join();
        }
    }
}

/// Exports a running [`Tred`]'s metrics: the one export path behind
/// both [`Tred::export_into`] and the daemon's `/metrics` endpoint.
#[derive(Clone)]
pub struct TredExporter<const L: usize> {
    shared: Arc<ServeShared<L>>,
    ticker: Arc<TickerStats>,
}

impl<const L: usize> TredExporter<L> {
    /// Exports the daemon and ticker counters, the subscriber gauge and — when
    /// the archive is journal-backed — the journal (`<prefix>_journal_*`)
    /// and archive-read (`<prefix>_archive_*`) counters, plus the trace
    /// sink (`<prefix>_trace_*`) when tracing, into a shared registry.
    pub fn export_into(&self, registry: &mut tre_obs::Registry, prefix: &str) {
        self.shared.export_into(registry, prefix, prefix);
        self.ticker.export_into(registry, prefix);
    }

    /// The snapshot a [`crate::TelemetryServer`] serves under `prefix`.
    /// Ready once the journal, if any, has fsynced what it appended.
    pub fn snapshot(self, prefix: &'static str) -> TelemetrySnapshot {
        Arc::new(move |registry| {
            self.export_into(registry, prefix);
            match self.shared.archive.journal_stats() {
                Some(js) => HealthSnapshot::serving(
                    js.appends == 0 || js.fsyncs > 0,
                    format!("journal appends={} fsyncs={}", js.appends, js.fsyncs),
                ),
                None => HealthSnapshot::serving(true, "ephemeral archive"),
            }
        })
    }
}

tre_obs::metrics! {
    /// Per-feed client counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FeedStats {
        /// Key-update frames decoded.
        pub updates_decoded: u64,
        /// Committee key-update-share frames decoded.
        pub shares_decoded: u64,
        /// Raw bytes received.
        pub bytes_received: u64,
        /// Frames dropped for wire errors (bad magic/version/body).
        pub wire_errors: u64,
        /// Successful reconnects.
        pub reconnects: u64,
        /// Catch-up requests sent.
        pub catch_up_requests: u64,
        /// [`Telemetry`] trailer frames decoded.
        pub traces_decoded: u64,
        /// [`Busy`] shed frames received (the daemon refused a catch-up
        /// under load and asked us to retry later).
        pub busy_seen: u64,
    }
}

struct FeedConn<const L: usize> {
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Committee shares decoded but not yet taken: `(stamp, member,
    /// share)` in arrival order. Drained by [`TcpFeed::take_shares`].
    shares: Vec<(u64, u32, KeyUpdate<L>)>,
    /// The member index this connection's peer announced in its
    /// [`CommitteeHello`], if any arrived yet.
    announced: Option<u32>,
    /// The retry hint from the latest [`Busy`] shed frame, until taken
    /// with [`TcpFeed::take_retry_after`].
    retry_after_ms: Option<u32>,
}

impl<const L: usize> FeedConn<L> {
    fn new(stream: Option<TcpStream>) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            shares: Vec::new(),
            announced: None,
            retry_after_ms: None,
        }
    }
}

/// A TCP subscriber feed: the client-side [`Feed`] over a running
/// [`Tred`] (or relay) daemon. Each [`Feed::subscribe`] call opens its
/// own connection (so one feed can model several independent
/// subscribers, as the [`crate::ChaosSim`] channel does);
/// [`TcpFeed::disconnect`] / [`TcpFeed::reconnect`] model receiver
/// downtime, and [`TcpFeed::request_catch_up`] asks the daemon to
/// replay missed archived epochs into the normal update stream. Extra
/// upstream addresses added with [`TcpFeed::add_fallback`] are rotated
/// through on reconnect, so a subscriber whose relay dies fails over to
/// the next tree level — any daemon serving the same self-authenticated
/// stream is interchangeable.
pub struct TcpFeed<const L: usize> {
    curve: &'static Curve<L>,
    /// Upstream addresses in failover order; `addrs[active]` is dialed
    /// first, the rest are tried in rotation when it refuses.
    addrs: Vec<SocketAddr>,
    active: usize,
    conns: Vec<FeedConn<L>>,
    clock: Option<crate::clock::SimClock>,
    polls: u64,
    stats: FeedStats,
    /// Delivery-side trace sink: [`Stage::FirstByte`] is stamped (and
    /// the wire trace folded in) whenever a [`Telemetry`] trailer
    /// decodes.
    trace: Option<TraceSink>,
    /// Latest decoded trace context per epoch (catch-up replays
    /// overwrite with their higher hop count), for test assertions and
    /// dashboards.
    traces: std::collections::BTreeMap<u64, Telemetry>,
}

impl<const L: usize> TcpFeed<L> {
    /// A feed that will dial `addr` on each subscribe.
    pub fn new(curve: &'static Curve<L>, addr: SocketAddr) -> Self {
        Self {
            curve,
            addrs: vec![addr],
            active: 0,
            conns: Vec::new(),
            clock: None,
            polls: 0,
            stats: FeedStats::default(),
            trace: None,
            traces: std::collections::BTreeMap::new(),
        }
    }

    /// Adds a fallback upstream address tried (in rotation) when the
    /// active address refuses a dial. The paper's self-authentication
    /// property makes every daemon serving the stream interchangeable,
    /// so failing over across relays — or all the way up to the root —
    /// needs no extra trust.
    pub fn add_fallback(&mut self, addr: SocketAddr) {
        self.addrs.push(addr);
    }

    /// Builder-style [`TcpFeed::add_fallback`].
    pub fn with_fallback(mut self, addr: SocketAddr) -> Self {
        self.addrs.push(addr);
        self
    }

    /// The upstream address currently dialed by new connections.
    pub fn active_addr(&self) -> SocketAddr {
        self.addrs[self.active]
    }

    /// Stamps deliveries with this clock instead of an internal poll
    /// counter (builder style) — keeps latency accounting comparable
    /// with the simulation when daemon and feed share a [`crate::SimClock`].
    pub fn with_clock(mut self, clock: crate::clock::SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attaches a delivery-side [`TraceSink`] (builder style): decoded
    /// [`Telemetry`] trailers stamp [`Stage::FirstByte`] and fold
    /// their origin context into the sink.
    pub fn with_trace_sink(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attaches (or replaces) the delivery-side [`TraceSink`].
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// The latest [`Telemetry`] trace context decoded for `epoch`, if
    /// any trailer arrived (on any of this feed's connections).
    pub fn trace_for(&self, epoch: u64) -> Option<Telemetry> {
        self.traces.get(&epoch).copied()
    }

    /// Every epoch with a decoded trace context, with its latest
    /// context, ascending by epoch.
    pub fn traces(&self) -> Vec<(u64, Telemetry)> {
        self.traces.iter().map(|(e, t)| (*e, *t)).collect()
    }

    /// Client-side counters.
    pub fn stats(&self) -> FeedStats {
        self.stats
    }

    /// Whether the subscriber's connection is currently up.
    pub fn is_connected(&self, id: SubscriberId) -> bool {
        self.conns[id.index()].stream.is_some()
    }

    fn dial(&mut self) -> Result<TcpStream, TreError> {
        let mut last_err = None;
        for i in 0..self.addrs.len() {
            let idx = (self.active + i) % self.addrs.len();
            match Self::dial_addr(self.curve, self.addrs[idx]) {
                Ok(stream) => {
                    self.active = idx;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one address"))
    }

    fn dial_addr(curve: &'static Curve<L>, addr: SocketAddr) -> Result<TcpStream, TreError> {
        let stream = TcpStream::connect(addr)?;
        // Interactive control frames (subscribes, catch-up requests)
        // must not wait on Nagle coalescing.
        let _ = stream.set_nodelay(true);
        let mut hello = Vec::new();
        <Hello as Wire<L>>::wire_write(&Hello::current(), curve, &mut hello);
        (&stream).write_all(&hello)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Drops the subscriber's connection (modeling receiver downtime);
    /// buffered-but-unparsed bytes are kept and parsed on reconnect.
    pub fn disconnect(&mut self, id: SubscriberId) {
        if let Some(stream) = self.conns[id.index()].stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Re-dials a disconnected subscriber.
    ///
    /// # Errors
    /// [`TreError::Io`] if the dial or handshake fails.
    pub fn reconnect(&mut self, id: SubscriberId) -> Result<(), TreError> {
        let stream = self.dial()?;
        let conn = &mut self.conns[id.index()];
        conn.stream = Some(stream);
        self.stats.reconnects += 1;
        Ok(())
    }

    /// Drains the committee key-update shares decoded on this
    /// subscriber's connection since the last call: `(stamp, member,
    /// share)` in arrival order. Call after [`Feed::poll`] (which
    /// does the socket draining and decoding).
    pub fn take_shares(&mut self, id: SubscriberId) -> Vec<(u64, u32, KeyUpdate<L>)> {
        std::mem::take(&mut self.conns[id.index()].shares)
    }

    /// The member index this subscriber's peer announced in its
    /// [`CommitteeHello`], once one has been decoded.
    pub fn announced_member(&self, id: SubscriberId) -> Option<u32> {
        self.conns[id.index()].announced
    }

    /// Takes (and clears) the retry hint from the latest [`Busy`] shed
    /// frame decoded on this subscriber's connection, if one arrived
    /// since the last call. A supervising feed uses it to delay its
    /// next catch-up attempt instead of hammering a saturated daemon.
    pub fn take_retry_after(&mut self, id: SubscriberId) -> Option<u32> {
        self.conns[id.index()].retry_after_ms.take()
    }

    /// Blocks until the subscriber's connection has bytes to read (or
    /// has hung up), or until `timeout` passes; `None` waits without a
    /// time limit. Returns whether the connection became readable. A
    /// disconnected subscriber has nothing to wait on and returns
    /// `false` at once. Follow a `true` with [`Feed::poll`].
    pub fn wait_readable(&self, id: SubscriberId, timeout: Option<Duration>) -> bool {
        self.conns[id.index()].stream.is_some() && self.wait_with(id, timeout, None)
    }

    /// [`TcpFeed::wait_readable`] that also returns when `waker` is
    /// woken, and sleeps out `timeout` while disconnected (a supervisor
    /// waiting for its reconnect backoff).
    pub(crate) fn wait_with(
        &self,
        id: SubscriberId,
        timeout: Option<Duration>,
        waker: Option<&Waker>,
    ) -> bool {
        let mut fds = Vec::with_capacity(2);
        if let Some(stream) = &self.conns[id.index()].stream {
            fds.push(sys::PollFd {
                fd: sys::fd_of(stream),
                events: sys::POLLIN,
                revents: 0,
            });
        }
        let stream_fds = fds.len();
        if let Some(waker) = waker {
            fds.push(sys::PollFd {
                fd: waker.fd(),
                events: sys::POLLIN,
                revents: 0,
            });
        }
        sys::poll_wait(&mut fds, poll_timeout_ms(timeout)) > 0
            && fds[..stream_fds].iter().any(|fd| fd.revents != 0)
    }

    /// Registers a subscriber slot *without* dialing: the connection
    /// starts disconnected and is established by the first
    /// [`TcpFeed::reconnect`] (e.g. driven by a `SupervisedFeed`'s
    /// backoff loop). This is how a `CommitteeFeed` tolerates members
    /// that are down at construction time.
    pub fn subscribe_lazy(&mut self) -> SubscriberId {
        self.conns.push(FeedConn::new(None));
        SubscriberId::new(self.conns.len() - 1)
    }

    /// Asks the daemon to replay archived epochs `from..=to`; the
    /// replayed updates arrive through [`Feed::poll`] like any
    /// broadcast.
    ///
    /// # Errors
    /// [`TreError::Io`] if the subscriber is disconnected or the write
    /// fails.
    pub fn request_catch_up(
        &mut self,
        id: SubscriberId,
        from: u64,
        to: u64,
    ) -> Result<(), TreError> {
        let curve = self.curve;
        let conn = &mut self.conns[id.index()];
        let Some(stream) = conn.stream.as_mut() else {
            return Err(TreError::Io(std::io::ErrorKind::NotConnected));
        };
        let mut frame = Vec::new();
        <CatchUpRequest as Wire<L>>::wire_write(&CatchUpRequest { from, to }, curve, &mut frame);
        stream.write_all(&frame)?;
        self.stats.catch_up_requests += 1;
        tre_obs::event("feed.catch_up_request", "");
        Ok(())
    }
}

impl<const L: usize> Feed<L> for TcpFeed<L> {
    /// Dials a fresh connection. Panics on connect failure — subscribes
    /// are infallible by trait; use [`TcpFeed::subscribe_lazy`] plus
    /// [`TcpFeed::reconnect`]-style flows for fallible recovery.
    fn subscribe(&mut self) -> SubscriberId {
        let stream = self.dial().expect("tcp feed: initial subscribe failed");
        self.conns.push(FeedConn::new(Some(stream)));
        SubscriberId::new(self.conns.len() - 1)
    }

    fn poll(&mut self, id: SubscriberId) -> Vec<(u64, KeyUpdate<L>)> {
        self.polls += 1;
        let stamp = match &self.clock {
            Some(clock) => clock.now(),
            None => self.polls,
        };
        let curve = self.curve;
        let conn = &mut self.conns[id.index()];

        // Drain the socket without blocking.
        if let Some(stream) = conn.stream.as_mut() {
            let mut chunk = [0u8; 4096];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        // Peer closed (eviction or daemon shutdown).
                        conn.stream = None;
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&chunk[..n]);
                        self.stats.bytes_received += n as u64;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        conn.stream = None;
                        break;
                    }
                }
            }
        }

        // Decode every complete frame buffered so far.
        let mut out = Vec::new();
        let mut off = 0;
        loop {
            match peek_frame(&conn.buf[off..]) {
                Ok(Some((header, body, _))) => {
                    if header.type_tag == <KeyUpdate<L> as Wire<L>>::TYPE_TAG {
                        match KeyUpdate::read_body(curve, body) {
                            Ok(update) => {
                                self.stats.updates_decoded += 1;
                                out.push((stamp, update));
                            }
                            Err(_) => self.stats.wire_errors += 1,
                        }
                    } else if header.type_tag == <KeyUpdateShare<L> as Wire<L>>::TYPE_TAG {
                        match <KeyUpdateShare<L> as Wire<L>>::wire_read_body(curve, body) {
                            Ok(share) => {
                                self.stats.shares_decoded += 1;
                                conn.shares.push((stamp, share.member, share.update));
                            }
                            Err(_) => self.stats.wire_errors += 1,
                        }
                    } else if header.type_tag == <CommitteeHello as Wire<L>>::TYPE_TAG {
                        match <CommitteeHello as Wire<L>>::wire_read_body(curve, body) {
                            Ok(hello) => conn.announced = Some(hello.member),
                            Err(_) => self.stats.wire_errors += 1,
                        }
                    } else if header.type_tag == <Busy as Wire<L>>::TYPE_TAG {
                        match <Busy as Wire<L>>::wire_read_body(curve, body) {
                            Ok(busy) => {
                                self.stats.busy_seen += 1;
                                conn.retry_after_ms = Some(busy.retry_after_ms);
                            }
                            Err(_) => self.stats.wire_errors += 1,
                        }
                    } else if header.type_tag == <Telemetry as Wire<L>>::TYPE_TAG {
                        match <Telemetry as Wire<L>>::wire_read_body(curve, body) {
                            Ok(ctx) => {
                                self.stats.traces_decoded += 1;
                                self.traces.insert(ctx.epoch, ctx);
                                if let Some(sink) = &self.trace {
                                    sink.note_wire_trace(&ctx);
                                    sink.record_now(ctx.epoch, Stage::FirstByte);
                                }
                            }
                            Err(_) => self.stats.wire_errors += 1,
                        }
                    }
                    // Other (unknown) frame types: skipped, forward compat.
                    off += HEADER_LEN + header.body_len;
                }
                Ok(None) => break,
                Err(_) => {
                    // Stream desynchronised: count it and resync by
                    // dropping the buffer (reconnect gets a clean stream).
                    self.stats.wire_errors += 1;
                    off = conn.buf.len();
                    break;
                }
            }
        }
        conn.buf.drain(..off);
        out
    }

    fn request_catch_up(&mut self, id: SubscriberId, from: u64, to: u64) -> Result<(), TreError> {
        TcpFeed::request_catch_up(self, id, from, to)
    }

    fn is_connected(&self, id: SubscriberId) -> bool {
        TcpFeed::is_connected(self, id)
    }

    fn disconnect(&mut self, id: SubscriberId) {
        TcpFeed::disconnect(self, id)
    }

    fn reconnect(&mut self, id: SubscriberId) -> Result<(), TreError> {
        TcpFeed::reconnect(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Granularity, SimClock};
    use std::time::Instant;
    use tre_core::ServerKeyPair;
    use tre_pairing::toy64;

    /// Polls `sub` until `done` holds for everything received so far,
    /// blocking on the connection's readiness between polls. Gives up
    /// after 10 s (or when the connection drops) and returns what
    /// arrived, so the caller's assertion reports the shortfall.
    fn recv_until(
        feed: &mut TcpFeed<8>,
        sub: SubscriberId,
        mut done: impl FnMut(&[KeyUpdate<8>]) -> bool,
    ) -> Vec<KeyUpdate<8>> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        loop {
            got.extend(feed.poll(sub).into_iter().map(|(_, u)| u));
            let left = deadline.saturating_duration_since(Instant::now());
            if done(&got) || left.is_zero() || !feed.is_connected(sub) {
                return got;
            }
            feed.wait_readable(sub, Some(left));
        }
    }

    fn epochs_of(got: &[KeyUpdate<8>]) -> Vec<u64> {
        let g = Granularity::Seconds;
        got.iter().filter_map(|u| g.epoch_of_tag(u.tag())).collect()
    }

    /// Full loopback round trip: daemon broadcasts two epochs, a TcpFeed
    /// subscriber receives and verifies them.
    #[test]
    fn loopback_broadcast_reaches_feed() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let clock = SimClock::new();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let spk = *keys.public();
        let mut server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
        assert_eq!(server.poll().len(), 1, "epoch 0 archived before bind");
        let tred = Tred::bind("127.0.0.1:0", curve, server, TredConfig::default()).unwrap();

        let mut feed: TcpFeed<8> = TcpFeed::new(curve, tred.local_addr()).with_clock(clock.clone());
        let sub = feed.subscribe();
        // The shard reads a request only from a registered connection, so
        // once the replayed epoch 0 arrives, live broadcasts reach us too.
        feed.request_catch_up(sub, 0, 0).unwrap();
        let mut got = recv_until(&mut feed, sub, |got| !got.is_empty());
        assert_eq!(epochs_of(&got), vec![0], "epoch 0 replayed");

        clock.advance(2); // epochs 1..=2 become due, delivered live
        got.extend(recv_until(&mut feed, sub, |got| got.len() >= 2));
        assert_eq!(
            epochs_of(&got),
            vec![0, 1, 2],
            "epochs 0..=2 delivered over TCP"
        );
        for u in &got {
            assert!(u.verify(curve, &spk));
        }
        assert_eq!(feed.stats().updates_decoded, 3);
        assert!(feed.stats().bytes_received > 0);
        tred.shutdown();
    }

    /// Catch-up: a subscriber that connects late asks for the archive
    /// range and receives the missed epochs through the same stream.
    #[test]
    fn catch_up_replays_archived_epochs() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let clock = SimClock::new();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let mut server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
        clock.advance(4);
        assert_eq!(server.poll().len(), 5, "epochs 0..=4 archived before bind");
        let tred = Tred::bind("127.0.0.1:0", curve, server, TredConfig::default()).unwrap();

        let mut feed: TcpFeed<8> = TcpFeed::new(curve, tred.local_addr());
        let sub = feed.subscribe();
        feed.request_catch_up(sub, 1, 3).unwrap();
        let got = recv_until(&mut feed, sub, |got| got.len() >= 3);
        assert_eq!(epochs_of(&got), vec![1, 2, 3], "epochs 1..=3 replayed");
        assert_eq!(tred.stats().catch_up_requests.load(Ordering::Relaxed), 1);
        assert_eq!(tred.stats().catch_up_replies.load(Ordering::Relaxed), 3);
        tred.shutdown();
    }

    #[test]
    fn garbage_connection_is_dropped_not_crashed() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let clock = SimClock::new();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
        let tred = Tred::bind("127.0.0.1:0", curve, server, TredConfig::default()).unwrap();

        let mut stream = TcpStream::connect(tred.local_addr()).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // The daemon counts the wire error, then closes the connection:
        // block until that close (EOF) reaches us.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 64];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    assert_ne!(e.kind(), std::io::ErrorKind::WouldBlock, "no close in 10 s");
                    break; // reset: closed all the same
                }
            }
        }
        assert_eq!(tred.stats().wire_errors.load(Ordering::Relaxed), 1);
        tred.shutdown();
    }

    /// The ticker sleeps on the clock until the next epoch boundary;
    /// shutdown must wake it even though the clock never advances.
    #[test]
    fn shutdown_returns_while_the_clock_stands_still() {
        let curve = toy64();
        let keys = ServerKeyPair::generate(curve, &mut rand::thread_rng());
        let clock = SimClock::new();
        let mut server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
        server.poll(); // epoch 0 published: the ticker goes straight to its wait
        let tred = Tred::bind("127.0.0.1:0", curve, server, TredConfig::default()).unwrap();
        // A catch-up round trip gives the ticker ample time to block on
        // the clock, so shutdown has to wake it rather than race it.
        let mut feed: TcpFeed<8> = TcpFeed::new(curve, tred.local_addr());
        let sub = feed.subscribe();
        feed.request_catch_up(sub, 0, 0).unwrap();
        assert_eq!(
            epochs_of(&recv_until(&mut feed, sub, |got| !got.is_empty())),
            [0]
        );
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tred.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("Tred::shutdown hung: the ticker was never woken");
        assert_eq!(clock.now(), 0);
    }
}
