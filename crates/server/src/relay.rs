//! The untrusted relay tier: `trerelay`, a daemon that re-broadcasts
//! another daemon's update stream one tree level down.
//!
//! The paper's server is *passive*: each epoch's key update
//! `I_T = s·H1(T)` is one short, self-authenticating message, identical
//! for every user. Anyone holding the server's public key can check
//! `e(I_T, G) == e(H1(T), sG)` — so *anyone* can re-broadcast the
//! stream with **zero added trust**. A relay cannot forge an update
//! (that needs `s`), cannot target individual subscribers with
//! different values (verification catches any mutation), and learns
//! nothing about its subscribers' messages (updates are
//! ciphertext-independent). The worst a malicious relay can do is go
//! silent, and the feed layer's failover
//! ([`crate::TcpFeed::add_fallback`])
//! plus catch-up recovery already handle silence. That is what makes a
//! CDN-style fan-out tree of *untrusted* relays the natural path to
//! millions of subscribers.
//!
//! A [`Relay`] is three pieces wired back-to-back:
//!
//! * **upstream**: a [`SupervisedFeed`] (pointed at the root `tred` or
//!   another relay) pumped by one thread — reconnect supervision, gap
//!   repair, and cold-start archive catch-up all come from the feed
//!   layer for free. Between polls the pump blocks on the upstream
//!   socket, a shutdown wake fd, and the supervisor's nearest deadline
//!   ([`SupervisedFeed::next_deadline`]), never on a fixed timer;
//! * **verify once**: the admission step ([`RelayCore`], sans-IO, also
//!   what [`crate::RelayTreeSim`] runs per simulated relay) checks every
//!   *new* epoch through the prepared-pairing [`BatchVerifier`] exactly
//!   once per relay and archives it — the
//!   per-burst cost is 2 pairings regardless of burst size, or 1 when
//!   the burst is the one epoch an idle-priority worker forecast while
//!   the upstream was quiet (`ê(sG, H1(T))` precomputed, public values
//!   only) — and duplicates of archived epochs (catch-up overlap,
//!   upstream failover replays) are dropped *before* the pairing, never
//!   verified twice;
//! * **downstream**: the same sharded readiness event loop `tred`
//!   serves through ([`crate::evloop`]), re-serving verified updates —
//!   live and via archive catch-up — to `O(100k)` subscribers on
//!   `O(shards)` threads.
//!
//! Telemetry is transparent: the relay forwards the *root's* origin and
//! publish stamp from the upstream [`Telemetry`] trailer and stamps
//! `hops = upstream_hops + 1`, so `tretop` attributes latency per tree
//! level end-to-end. Catch-up replays served by this relay are stamped
//! one hop higher still, exactly as on the root daemon.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use tre_core::{KeyUpdate, ServerPublicKey, VerifyForecast};
use tre_pairing::Curve;
use tre_wire::Telemetry;

use crate::archive::UpdateArchive;
use crate::batch::{verify_burst, BatchVerifier};
use crate::clock::Granularity;
use crate::evloop::{Broadcaster, ServeShared, Waker};
use crate::feed::Feed;
use crate::forecast::Forecaster;
use crate::supervised::SupervisedFeed;
use crate::tcp::{CatchUpConfig, TredStats};
use crate::telemetry::{HealthSnapshot, Stage, TelemetrySnapshot, TraceSink};

/// Tuning knobs for a relay daemon.
#[derive(Debug, Clone, Copy)]
pub struct RelayConfig {
    /// Outbound frames buffered per downstream subscriber before it is
    /// evicted as too slow (same policy as [`crate::TredConfig`]).
    pub queue_capacity: usize,
    /// Kernel send-buffer cap per downstream socket (`SO_SNDBUF`;
    /// Linux only). See [`crate::TredConfig::send_buffer`].
    pub send_buffer: Option<u32>,
    /// Downstream event-loop shard threads. Total relay threads:
    /// `shards + 3` (accept, upstream pump and the pump's forecast
    /// worker), independent of the subscriber count.
    pub shards: usize,
    /// The epoch schedule, for mapping update tags to epochs (dedup,
    /// archive indexing, telemetry trailers).
    pub granularity: Granularity,
    /// Admission control for the relay's own downstream catch-up
    /// service (same policy as [`crate::TredConfig::catch_up`]).
    pub catch_up: CatchUpConfig,
}

impl Default for RelayConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            send_buffer: None,
            shards: 4,
            granularity: Granularity::Seconds,
            catch_up: CatchUpConfig::default(),
        }
    }
}

tre_obs::metrics! {
    /// Relay pump counters (all monotone; readable while the relay runs).
    #[derive(Debug, Default)]
    pub struct RelayStats {
        /// Epochs verified and re-broadcast downstream.
        pub epochs_relayed: AtomicU64,
        /// Updates that failed self-authentication against the root key
        /// (a Byzantine or buggy upstream) and were *not* relayed.
        pub updates_rejected: AtomicU64,
        /// Updates skipped as duplicates of an already-relayed epoch
        /// (catch-up overlap, upstream failover) — never re-verified.
        pub duplicates_skipped: AtomicU64,
        /// Untagged updates (no epoch under the relay's granularity)
        /// dropped: the relay cannot dedupe or archive what it cannot
        /// index, so it refuses to forward it.
        pub untagged_dropped: AtomicU64,
        /// Verification calls, one per burst of fresh epochs: 2 pairings
        /// when clean, 1 on a forecast hit.
        pub verify_batches: AtomicU64,
        /// Epochs verified off a forecast `ê(sG, H1(T))` computed ahead of
        /// time on the idle-priority worker: one pairing lane, no hash.
        pub forecast_hits: AtomicU64,
        /// Fresh epochs verified without a forecast (cold start, a
        /// multi-epoch burst, or a forecast still in flight).
        pub forecast_misses: AtomicU64,
    }
}

/// Exports a running [`Relay`]'s metrics: the one export path behind
/// both [`Relay::export_into`] and the relay's `/metrics` endpoint.
#[derive(Clone)]
pub struct RelayExporter<const L: usize> {
    shared: Arc<ServeShared<L>>,
    stats: Arc<RelayStats>,
}

impl<const L: usize> RelayExporter<L> {
    /// Exports pump counters (`<prefix>_*`), downstream serving
    /// counters (`<prefix>_serve_*`), the subscriber gauge, and the
    /// trace histograms into a shared registry.
    pub fn export_into(&self, registry: &mut tre_obs::Registry, prefix: &str) {
        self.stats.export_into(registry, prefix);
        self.shared
            .export_into(registry, prefix, &format!("{prefix}_serve"));
    }

    /// The snapshot a [`crate::TelemetryServer`] serves under `prefix`.
    /// Ready once at least one verified epoch has crossed the relay.
    pub fn snapshot(self, prefix: &'static str) -> TelemetrySnapshot {
        Arc::new(move |registry| {
            self.export_into(registry, prefix);
            let relayed = self.stats.epochs_relayed.load(Ordering::Relaxed);
            HealthSnapshot::serving(relayed > 0, format!("epochs relayed={relayed}"))
        })
    }
}

/// A running relay daemon: verifies an upstream daemon's stream once
/// and re-serves it downstream through the sharded event loop. See the
/// module docs for the trust argument.
pub struct Relay<const L: usize> {
    addr: SocketAddr,
    public_key: ServerPublicKey<L>,
    shared: Arc<ServeShared<L>>,
    stats: Arc<RelayStats>,
    sink: TraceSink,
    broadcaster: Option<Broadcaster<L>>,
    /// Wakes the upstream pump out of its readiness wait on shutdown.
    pump_waker: Arc<Waker>,
    pump_handle: Option<JoinHandle<SupervisedFeed<L>>>,
}

impl<const L: usize> Relay<L> {
    /// Binds `addr` for downstream subscribers and starts the upstream
    /// pump. `upstream` should already be subscribed to nothing — the
    /// relay registers its own subscription — and is typically built
    /// with cold-start catch-up so the relay backfills the root archive
    /// before (and alongside) live traffic:
    ///
    /// ```no_run
    /// # use tre_server::{feed, Granularity, Relay, RelayConfig, SupervisorConfig};
    /// # let curve = tre_pairing::toy64();
    /// # let root: std::net::SocketAddr = "127.0.0.1:7878".parse().unwrap();
    /// # let root_pk: tre_core::ServerPublicKey<8> = unimplemented!();
    /// let upstream = feed::tcp::<8>(curve, root)
    ///     .supervised(Granularity::Seconds, SupervisorConfig::default(), 7)
    ///     .catch_up_from(0)
    ///     .build();
    /// let relay = Relay::bind("127.0.0.1:0", curve, root_pk, upstream, RelayConfig::default());
    /// ```
    ///
    /// `root_pk` is the **root** time server's public key — the one
    /// every update in the tree authenticates against, regardless of
    /// how many relay levels sit between.
    ///
    /// # Errors
    /// Propagates socket errors from bind.
    pub fn bind(
        addr: &str,
        curve: &'static Curve<L>,
        root_pk: ServerPublicKey<L>,
        upstream: SupervisedFeed<L>,
        config: RelayConfig,
    ) -> std::io::Result<Self> {
        // One sink spans both sides: the upstream feed folds decoded
        // trailers into it (origin, root publish stamp, upstream hop
        // count) and the downstream encoder reads them back out —
        // that is what makes the relay telemetry-transparent.
        let sink = TraceSink::new();
        let mut upstream = upstream;
        upstream.set_trace_sink(sink.clone());

        let shared = Arc::new(ServeShared {
            curve,
            archive: Arc::new(UpdateArchive::new()),
            stats: Arc::new(TredStats::default()),
            shutdown: AtomicBool::new(false),
            queue_capacity: config.queue_capacity,
            send_buffer: config.send_buffer,
            member: None,
            granularity: config.granularity,
            trace: Some(sink.clone()),
            forward_origin: true,
            catch_up: config.catch_up,
            active_catch_ups: std::sync::atomic::AtomicUsize::new(0),
            subscribers: std::sync::atomic::AtomicUsize::new(0),
        });
        let pump_waker = Arc::new(Waker::new()?);
        let broadcaster = Broadcaster::bind(addr, Arc::clone(&shared), config.shards)?;
        let local = broadcaster.local_addr();
        let handle = broadcaster.handle();
        let stats = Arc::new(RelayStats::default());

        let pump_handle = {
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&stats);
            let sink = sink.clone();
            let waker = Arc::clone(&pump_waker);
            std::thread::Builder::new()
                .name("trerelay-pump".into())
                .spawn(move || {
                    let verifier = BatchVerifier::new(curve, root_pk);
                    // The worker sees the curve, the granularity and the
                    // root's public key: everything it computes is public.
                    let key = verifier.key().clone();
                    let granularity = shared.granularity;
                    let mut forecaster = Forecaster::new(move |epoch| {
                        key.forecast(curve, &granularity.tag_for_epoch(epoch))
                    });
                    let core = RelayCore {
                        granularity,
                        archive: Arc::clone(&shared.archive),
                        stats,
                    };
                    // Lazy subscribe: if the upstream is down at bind,
                    // the supervision loop dials it with backoff instead
                    // of the pump thread panicking.
                    let sub = upstream.subscribe_lazy();
                    while !shared.shutdown.load(Ordering::SeqCst) {
                        pump_once(
                            &core,
                            &sink,
                            &verifier,
                            &mut forecaster,
                            &mut upstream,
                            sub,
                            &handle,
                        );
                        upstream.wait_with(sub, Some(&waker));
                    }
                    upstream
                })
                .expect("spawn relay pump thread")
        };

        Ok(Self {
            addr: local,
            public_key: root_pk,
            shared,
            stats,
            sink,
            broadcaster: Some(broadcaster),
            pump_waker,
            pump_handle: Some(pump_handle),
        })
    }

    /// The bound downstream address (with the OS-assigned port when
    /// bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The root server's public key the relay verifies against (and
    /// what downstream subscribers should verify against too — the
    /// relay introduces no key of its own).
    pub fn public_key(&self) -> &ServerPublicKey<L> {
        &self.public_key
    }

    /// Relay pump counters.
    pub fn stats(&self) -> Arc<RelayStats> {
        Arc::clone(&self.stats)
    }

    /// Downstream serving counters (same shape as [`crate::Tred`]'s).
    pub fn serve_stats(&self) -> Arc<TredStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Current downstream subscriber count (post-eviction).
    pub fn subscriber_count(&self) -> usize {
        self.shared.subscribers.load(Ordering::Relaxed)
    }

    /// The relay's local archive of verified updates — what its own
    /// downstream catch-up requests are served from.
    pub fn archive(&self) -> Arc<UpdateArchive<L>> {
        Arc::clone(&self.shared.archive)
    }

    /// The shared trace sink (upstream trailer context + this relay's
    /// broadcast stamps).
    pub fn trace_sink(&self) -> TraceSink {
        self.sink.clone()
    }

    /// Exports the relay's metrics into a shared registry under
    /// `<prefix>_*` names (see [`RelayExporter::export_into`]).
    pub fn export_into(&self, registry: &mut tre_obs::Registry, prefix: &str) {
        self.exporter().export_into(registry, prefix);
    }

    /// A cloneable handle that exports this relay's metrics — what a
    /// `/metrics` snapshot closure captures.
    pub fn exporter(&self) -> RelayExporter<L> {
        RelayExporter {
            shared: Arc::clone(&self.shared),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Stops the upstream pump, the accept loop, and every shard;
    /// closes all downstream sockets and joins the relay threads.
    /// Returns the upstream feed so a caller can inspect its stats.
    pub fn shutdown(mut self) -> Option<SupervisedFeed<L>> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.pump_waker.wake();
        let upstream = self.pump_handle.take().and_then(|h| h.join().ok());
        if let Some(broadcaster) = self.broadcaster.take() {
            broadcaster.shutdown();
        }
        upstream
    }
}

/// A relay's admission step, with no sockets, threads or clocks: drop
/// what cannot be indexed or was already admitted, verify each fresh
/// epoch once, archive the valid ones. The `trerelay` pump runs it on
/// every upstream burst and [`crate::RelayTreeSim`] on every simulated
/// relay, so the protocol the simulator measures is the daemon's.
pub(crate) struct RelayCore<const L: usize> {
    /// Maps update tags to epochs (dedup and archive index).
    pub(crate) granularity: Granularity,
    /// The verified updates admitted so far: the dedup set, and what the
    /// relay serves downstream catch-ups from.
    pub(crate) archive: Arc<UpdateArchive<L>>,
    pub(crate) stats: Arc<RelayStats>,
}

impl<const L: usize> RelayCore<L> {
    /// Admits one upstream burst and returns the updates it archived, as
    /// `(epoch, update)` in burst order.
    ///
    /// Untagged updates are dropped (the relay cannot dedupe or archive
    /// what it cannot index). Epochs already archived, or repeated
    /// within the burst (catch-up overlap, upstream failover replays),
    /// are skipped *before* the pairing, so each epoch is verified
    /// exactly once per relay: one burst check per burst of fresh
    /// epochs. A burst of one fresh epoch asks `forecast` for
    /// that epoch's [`VerifyForecast`] and, given one, verifies with one
    /// pairing lane.
    pub(crate) fn admit(
        &self,
        verifier: &BatchVerifier<'_, L>,
        deliveries: Vec<(u64, KeyUpdate<L>)>,
        forecast: impl FnOnce(u64) -> Option<VerifyForecast<L>>,
    ) -> Vec<(u64, KeyUpdate<L>)> {
        let stats = &self.stats;
        let mut epochs = Vec::new();
        let mut fresh = Vec::new();
        for (_, update) in deliveries {
            let Some(epoch) = self.granularity.epoch_of_tag(update.tag()) else {
                stats.untagged_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            if self.archive.contains(epoch) || epochs.contains(&epoch) {
                stats.duplicates_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            epochs.push(epoch);
            fresh.push(update);
        }
        if fresh.is_empty() {
            return Vec::new();
        }
        let forecast = match epochs[..] {
            [epoch] => forecast(epoch),
            _ => None,
        };
        stats.verify_batches.fetch_add(1, Ordering::Relaxed);
        if forecast.is_some() {
            stats.forecast_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            stats
                .forecast_misses
                .fetch_add(fresh.len() as u64, Ordering::Relaxed);
        }
        let verdict = verify_burst(
            verifier.curve(),
            verifier.key(),
            &fresh,
            forecast.as_ref(),
            verifier.threads(),
        );
        stats
            .updates_rejected
            .fetch_add(verdict.invalid.len() as u64, Ordering::Relaxed);
        for &i in &verdict.invalid {
            tre_obs::event("relay.rejected", &format!("epoch={}", epochs[i]));
        }
        verdict
            .valid
            .iter()
            .map(|&i| {
                self.archive.publish(epochs[i], fresh[i].clone());
                (epochs[i], fresh[i].clone())
            })
            .collect()
    }
}

/// One pump iteration: drain the upstream feed, admit the burst through
/// the [`RelayCore`], re-broadcast what it archived, then ask the
/// forecast worker for the epoch after the newest one archived. A
/// one-epoch burst whose forecast is ready verifies with one pairing
/// lane.
fn pump_once<const L: usize>(
    core: &RelayCore<L>,
    sink: &TraceSink,
    verifier: &BatchVerifier<'static, L>,
    forecaster: &mut Forecaster<VerifyForecast<L>>,
    upstream: &mut SupervisedFeed<L>,
    sub: crate::net::SubscriberId,
    handle: &crate::evloop::BroadcastHandle<L>,
) {
    let deliveries = Feed::poll(upstream, sub);
    if deliveries.is_empty() {
        return;
    }
    let admitted = core.admit(verifier, deliveries, |epoch| forecaster.take(epoch));
    for (epoch, update) in &admitted {
        let epoch = *epoch;
        // Hop accounting: the upstream trailer (already folded into the
        // sink by the feed) says how many process boundaries the update
        // crossed to reach us; our live broadcast is one more. Noting
        // our own outgoing trailer back into the sink raises the
        // epoch's stamped hop count to the outgoing value, so catch-up
        // replays served by *this* relay are stamped one higher still —
        // the same live/replay offset the root daemon has.
        let trace = sink.epoch_trace(epoch);
        let upstream_hops = trace.as_ref().map(|t| t.hops).unwrap_or(0);
        let hops = upstream_hops.saturating_add(1);
        // Stamped before the handoff, as on the root daemon.
        sink.record_now(epoch, Stage::Broadcast);
        handle.broadcast(update, hops);
        sink.note_wire_trace(&Telemetry {
            epoch,
            origin: trace.as_ref().map(|t| t.origin).unwrap_or(0),
            publish_ns: sink.publish_ns(epoch).unwrap_or(0),
            hops,
        });
        core.stats.epochs_relayed.fetch_add(1, Ordering::Relaxed);
        if tre_obs::is_enabled() {
            tre_obs::event("relay.relayed", &format!("epoch={epoch} hops={hops}"));
        }
    }
    if !admitted.is_empty() {
        if let Some(newest) = core.archive.latest_epoch() {
            forecaster.request(newest + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::feed;
    use crate::server::TimeServer;
    use crate::supervised::SupervisorConfig;
    use crate::tcp::{TcpFeed, Tred, TredConfig};
    use std::time::{Duration, Instant};
    use tre_core::{KeyUpdate, ServerKeyPair};
    use tre_pairing::toy64;

    fn wait_until(mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Root → relay → subscriber: updates cross both levels, verify
    /// against the root key end-to-end, live broadcasts carry hop
    /// count 1 (root stamps 0), and a catch-up replay served *by the
    /// relay* is stamped one hop higher still (2).
    #[test]
    fn relay_re_serves_verified_updates_one_hop_down() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let clock = SimClock::new();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let root_pk = *keys.public();
        let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
        let root_sink = TraceSink::new();
        let tred = Tred::bind_traced(
            "127.0.0.1:0",
            curve,
            server,
            TredConfig {
                shards: 1,
                ..TredConfig::default()
            },
            root_sink,
        )
        .unwrap();

        let upstream = feed::tcp::<8>(curve, tred.local_addr())
            .supervised(Granularity::Seconds, SupervisorConfig::default(), 7)
            .catch_up_from(0)
            .build();
        let relay = Relay::bind(
            "127.0.0.1:0",
            curve,
            root_pk,
            upstream,
            RelayConfig {
                shards: 1,
                ..RelayConfig::default()
            },
        )
        .unwrap();

        // Let cold start finish (epoch 0 backfilled via catch-up) before
        // advancing the clock, so epochs 1 and 2 reach the relay over the
        // live path only — a catch-up reply racing the live broadcast
        // would max-fold a replay hop count into the sink.
        wait_until(|| relay.stats().epochs_relayed.load(Ordering::Relaxed) >= 1);

        let mut feed: TcpFeed<8> = TcpFeed::new(curve, relay.local_addr());
        let sub = Feed::subscribe(&mut feed);
        wait_until(|| relay.subscriber_count() >= 1);

        // Epochs 1 and 2 are broadcast while the downstream subscriber
        // is registered, so they arrive live with the relay's hop stamp.
        clock.advance(2);
        let mut got: Vec<KeyUpdate<8>> = Vec::new();
        wait_until(|| {
            got.extend(Feed::poll(&mut feed, sub).into_iter().map(|(_, u)| u));
            feed.trace_for(2).is_some()
        });
        assert!(got.len() >= 2, "epochs 1 and 2 crossed the relay live");
        for u in &got {
            assert!(u.verify(curve, &root_pk), "root key verifies end-to-end");
        }
        let live = feed.trace_for(2).expect("live trailer decoded");
        assert_eq!(live.hops, 1, "live relay broadcast is one hop down");
        assert!(
            live.publish_ns > 0,
            "root publish stamp forwarded through the relay"
        );

        // Re-request epoch 1 from the *relay's* archive. Replays are
        // stamped one hop above the relay's live broadcast of the same
        // epoch (1 live → 2 replayed), the same live/replay offset the
        // root daemon applies.
        wait_until(|| {
            let _ = feed.request_catch_up(sub, 1, 1);
            got.extend(Feed::poll(&mut feed, sub).into_iter().map(|(_, u)| u));
            feed.trace_for(1).is_some_and(|t| t.hops == 2)
        });
        let replayed = feed.trace_for(1).expect("replay trailer decoded");
        assert_eq!(replayed.hops, 2, "relay-served replay is live + 1 hop");

        let stats = relay.stats();
        assert!(stats.epochs_relayed.load(Ordering::Relaxed) >= 3);
        assert_eq!(stats.updates_rejected.load(Ordering::Relaxed), 0);
        relay.shutdown();
        tred.shutdown();
    }

    /// With its upstream down, the pump sleeps out a 30–60 s reconnect
    /// backoff; only the shutdown wake fd can end that wait in time.
    #[test]
    fn shutdown_returns_while_upstream_is_in_backoff() {
        use std::io::{Read, Write};
        let curve = toy64();
        let keys = ServerKeyPair::generate(curve, &mut rand::thread_rng());
        let upstream_listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let backoff = SupervisorConfig {
            base_delay: Duration::from_secs(60),
            max_delay: Duration::from_secs(60),
            ..SupervisorConfig::default()
        };
        let upstream = feed::tcp::<8>(curve, upstream_listener.local_addr().unwrap())
            .supervised(Granularity::Seconds, backoff, 7)
            .build();
        let relay = Relay::bind(
            "127.0.0.1:0",
            curve,
            *keys.public(),
            upstream,
            RelayConfig::default(),
        )
        .unwrap();
        // The pump's first dial reaches this stand-in upstream: its Hello
        // proves the pump is running. Then the upstream goes down for good.
        let (mut conn, _) = upstream_listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut hello = [0u8; 8];
        conn.read_exact(&mut hello)
            .expect("relay greets its upstream");
        drop(upstream_listener);
        drop(conn);
        // A downstream round trip (the shard drops a garbage peer) gives
        // the pump ample time to see the close, fail its re-dial and
        // enter backoff.
        let mut peer = std::net::TcpStream::connect(relay.local_addr()).unwrap();
        peer.write_all(b"not a tre stream").unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let _ = peer.read(&mut [0u8; 16]);

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(relay.shutdown());
        });
        let upstream = done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("Relay::shutdown hung: the pump was never woken")
            .expect("pump thread returned its feed");
        assert_eq!(
            upstream.stats().reconnects,
            1,
            "only the first dial succeeded"
        );
    }

    /// The admission step's pre-pairing screen: an epoch redelivered
    /// within a burst and again in a later burst is verified once (2
    /// pairings, 1 with a matching forecast) and archived once, and
    /// untagged updates never reach the verifier.
    #[test]
    fn burst_screen_dedupes_before_verification() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let verifier = BatchVerifier::new(curve, *keys.public());
        let core = RelayCore {
            granularity: Granularity::Seconds,
            archive: Arc::new(UpdateArchive::new()),
            stats: Arc::default(),
        };
        let tag = |e: u64| Granularity::Seconds.tag_for_epoch(e);
        let epoch = |e: u64| keys.issue_update(curve, &tag(e));
        let untagged = || keys.issue_update(curve, &tre_core::ReleaseTag::time("not/an/epoch"));
        let admit = |deliveries, forecast: Option<VerifyForecast<8>>| {
            tre_obs::enable();
            let admitted: Vec<(u64, KeyUpdate<8>)> =
                core.admit(&verifier, deliveries, |_| forecast);
            let pairings = tre_obs::finish().total_ops().pairings;
            (
                admitted.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
                pairings,
            )
        };

        let burst = vec![(1, epoch(1)), (1, epoch(1)), (1, untagged())];
        assert_eq!(admit(burst, None), (vec![1], 2), "one verify, no forecast");
        let forecast = verifier.key().forecast(curve, &tag(2));
        let burst = vec![(2, epoch(1)), (2, epoch(2)), (2, untagged())];
        assert_eq!(
            admit(burst, Some(forecast)),
            (vec![2], 1),
            "the redelivered epoch costs nothing; a forecast hit is one lane"
        );
        assert_eq!(admit(vec![(3, untagged())], None), (vec![], 0));

        let stats = &core.stats;
        assert_eq!(core.archive.len(), 2, "each epoch archived once");
        assert_eq!(stats.duplicates_skipped.load(Ordering::Relaxed), 2);
        assert_eq!(stats.untagged_dropped.load(Ordering::Relaxed), 3);
        assert_eq!(stats.verify_batches.load(Ordering::Relaxed), 2);
        assert_eq!(stats.forecast_hits.load(Ordering::Relaxed), 1);
        assert_eq!(stats.forecast_misses.load(Ordering::Relaxed), 1);
    }
}
