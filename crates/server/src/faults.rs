//! Deterministic fault injection for the timed-release distribution path
//! (experiment E13).
//!
//! The paper's §3 trust assumptions cover the *server*; everything between
//! the server and a receiver — the broadcast channel, the public archive,
//! even a compromised server equivocating about an epoch — is fair game
//! for faults. This module scripts those faults against a full simulated
//! world and checks the two properties that must survive them:
//!
//! * **Safety** — no message opens before its release epoch begins, and no
//!   message opens twice, no matter what the network does.
//! * **Liveness** — every message eventually opens once connectivity
//!   returns (broadcast heals or the archive becomes reachable).
//!
//! Everything is deterministic under a fixed seed: the same [`FaultPlan`]
//! and seed reproduce the same delivery schedule, corruption bytes, and
//! client metrics, tick for tick.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tre_core::{KeyUpdate, Sender, ServerKeyPair, UserKeyPair};
use tre_pairing::Curve;
use tre_wire::Wire;

use crate::archive::UpdateArchive;
use crate::client::ReceiverClient;
use crate::clock::{Granularity, SimClock};
use crate::feed::{Feed, SubscriberId};
use crate::server::TimeServer;

/// Delivery characteristics of the [`ChaosSim`] broadcast channel. The
/// paper's footnote 1 rests on the small key update arriving within a
/// bounded jitter; experiment E4 measures release precision against
/// `base_latency + jitter`.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Fixed propagation delay (clock ticks).
    pub base_latency: u64,
    /// Maximum extra random delay (uniform in `0..=jitter`, clock ticks).
    pub jitter: u64,
    /// Per-subscriber probability a broadcast is lost.
    pub loss_prob: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            base_latency: 1,
            jitter: 0,
            loss_prob: 0.0,
        }
    }
}

tre_obs::metrics! {
    /// Aggregate channel statistics (for the scalability experiment E2).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NetStats {
        /// Number of broadcast operations the server performed.
        pub broadcasts: u64,
        /// Payload bytes the server put on the air — one copy per broadcast,
        /// independent of subscriber count (the paper's scalability claim).
        pub broadcast_bytes: u64,
        /// Bytes that would have been sent under per-user unicast (Mont et
        /// al.-style individual delivery): `payload × subscribers`.
        pub unicast_equivalent_bytes: u64,
        /// Deliveries dropped by the loss model.
        pub lost: u64,
    }
}

/// The simulated broadcast channel: one sender, one mailbox per
/// subscriber. A mailbox is keyed on `(deliver_at, seq)` with `seq`
/// unique per delivery, so same-tick deliveries keep their send order.
struct Channel<const L: usize> {
    config: NetConfig,
    clock: SimClock,
    rng: StdRng,
    mailboxes: Vec<BTreeMap<(u64, u64), KeyUpdate<L>>>,
    seq: u64,
    stats: NetStats,
}

impl<const L: usize> Channel<L> {
    fn new(clock: SimClock, config: NetConfig, seed: u64) -> Self {
        Self {
            config,
            clock,
            rng: StdRng::seed_from_u64(seed),
            mailboxes: Vec::new(),
            seq: 0,
            stats: NetStats::default(),
        }
    }

    /// Counts one broadcast of `payload_bytes`: one copy on the air,
    /// one per subscriber under unicast.
    fn count_broadcast(&mut self, payload_bytes: usize) {
        self.stats.broadcasts += 1;
        self.stats.broadcast_bytes += payload_bytes as u64;
        self.stats.unicast_equivalent_bytes += payload_bytes as u64 * self.mailboxes.len() as u64;
    }

    /// The channel model's draw for one subscriber's copy of a broadcast
    /// sent now: its delivery tick, or `None` when the copy is lost
    /// (counted in [`NetStats::lost`]). The default config (no jitter,
    /// no loss) draws nothing from the RNG.
    fn draw(&mut self, id: SubscriberId) -> Option<u64> {
        if self.config.loss_prob > 0.0 && self.rng.gen::<f64>() < self.config.loss_prob {
            self.stats.lost += 1;
            if tre_obs::is_enabled() {
                tre_obs::event("net.dropped", &format!("subscriber={}", id.index()));
            }
            return None;
        }
        let jitter = if self.config.jitter > 0 {
            self.rng.next_u64() % (self.config.jitter + 1)
        } else {
            0
        };
        Some(self.clock.now() + self.config.base_latency + jitter)
    }

    /// Queues one delivery in `id`'s mailbox, bypassing the model: the
    /// hook for drawn copies and for the fault layer's injections.
    fn deliver_to(&mut self, id: SubscriberId, update: KeyUpdate<L>, deliver_at: u64) {
        self.mailboxes[id.index()].insert((deliver_at, self.seq), update);
        self.seq += 1;
    }
}

impl<const L: usize> Feed<L> for Channel<L> {
    fn subscribe(&mut self) -> SubscriberId {
        self.mailboxes.push(BTreeMap::new());
        SubscriberId::new(self.mailboxes.len() - 1)
    }

    fn poll(&mut self, id: SubscriberId) -> Vec<(u64, KeyUpdate<L>)> {
        let mailbox = &mut self.mailboxes[id.index()];
        let later = mailbox.split_off(&(self.clock.now() + 1, 0));
        std::mem::replace(mailbox, later)
            .into_iter()
            .map(|((at, _), update)| (at, update))
            .collect()
    }
}

/// One fault, scoped to a server, a client, or the archive. Client indices
/// are the order of [`ChaosSim::add_client`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The time server process dies and restarts `down_for` ticks later
    /// via [`TimeServer::recover`], back-filling the archive.
    ServerCrash {
        /// Ticks until the server restarts.
        down_for: u64,
    },
    /// `client` is partitioned from the broadcast channel (deliveries are
    /// dropped) until the partition heals.
    Partition {
        /// Affected client index.
        client: usize,
        /// Ticks until the partition heals.
        heal_after: u64,
    },
    /// Every delivery to `client` arrives `copies` extra times.
    DuplicateStorm {
        /// Affected client index.
        client: usize,
        /// Extra copies per delivery.
        copies: u32,
        /// Window length in ticks.
        for_ticks: u64,
    },
    /// Deliveries to `client` pick up a random extra delay in
    /// `0..=max_extra`, reordering them.
    Reorder {
        /// Affected client index.
        client: usize,
        /// Maximum extra delay in ticks.
        max_extra: u64,
        /// Window length in ticks.
        for_ticks: u64,
    },
    /// Deliveries to `client` are corrupted in transit: the update's
    /// signature point is replaced by a random group element, so
    /// self-authentication fails.
    Corrupt {
        /// Affected client index.
        client: usize,
        /// Window length in ticks.
        for_ticks: u64,
    },
    /// The public archive stops answering fetches.
    ArchiveOutage {
        /// Ticks until the archive is reachable again.
        down_for: u64,
    },
    /// A Byzantine server equivocates: alongside each honest update,
    /// `client` receives a second, conflicting update for the same tag.
    Equivocate {
        /// Affected client index.
        client: usize,
        /// Window length in ticks.
        for_ticks: u64,
    },
    /// A Byzantine impostor forges updates for epochs `epochs_ahead` in
    /// the future, trying to spring the time lock early.
    Forge {
        /// Affected client index.
        client: usize,
        /// How far ahead of the current epoch the forgeries claim to be.
        epochs_ahead: u64,
        /// Window length in ticks.
        for_ticks: u64,
    },
    /// (Live transport) Every chunk relayed by a [`crate::ChaosProxy`]
    /// picks up a fixed extra delay. In a proxy plan, `at` and window
    /// lengths are milliseconds of proxy uptime; the tick-based
    /// [`ChaosSim`] ignores this variant.
    LatencySpike {
        /// Extra delay added to each relayed chunk, in milliseconds.
        delay_ms: u64,
        /// Window length in milliseconds.
        for_ms: u64,
    },
    /// (Live transport) The proxy forwards only half of an in-flight
    /// chunk, then severs the connection mid-frame — the torn-write
    /// failure the stream decoder must survive. Ignored by [`ChaosSim`].
    TornFrame {
        /// Window length in milliseconds.
        for_ms: u64,
    },
    /// (Live transport) One byte of each server→client chunk is flipped
    /// in transit, so frames fail CRC-of-trust (signature verification)
    /// or framing. Ignored by [`ChaosSim`].
    CorruptByte {
        /// Window length in milliseconds.
        for_ms: u64,
    },
    /// (Live transport) Every connection alive through the proxy at this
    /// instant is reset (RST-style abrupt close). Ignored by
    /// [`ChaosSim`].
    ConnReset,
    /// (Committee harness) Member `member` of a threshold committee is
    /// Byzantine for the whole run: its daemon signs key-update shares
    /// with a secret unrelated to its dealt share, so every share fails
    /// the commitment pairing check. Consumed by committee test
    /// harnesses when booting the member fleet; ignored by [`ChaosSim`]
    /// and [`crate::ChaosProxy`].
    ByzantineShare {
        /// The 1-based roster index of the corrupt member.
        member: u32,
    },
    /// (Committee harness) Member `member` equivocates: for each epoch
    /// it publishes two conflicting key-update shares, which is
    /// cryptographic evidence of misbehaviour and must convict the
    /// member without spending pairings. Consumed by committee test
    /// harnesses; ignored by [`ChaosSim`] and [`crate::ChaosProxy`].
    EquivocatingShare {
        /// The 1-based roster index of the equivocating member.
        member: u32,
    },
}

/// A fault scheduled at an absolute clock tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Tick at which the fault takes effect.
    pub at: u64,
    /// The fault.
    pub fault: Fault,
}

/// A deterministic schedule of faults, built up front and replayed by the
/// [`ChaosSim`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (a chaos run with no chaos — useful as a control).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `fault` at tick `at` (builder style).
    pub fn at(mut self, at: u64, fault: Fault) -> Self {
        self.events.push(FaultEvent { at, fault });
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Per-client fault windows active at some instant.
#[derive(Debug, Clone, Copy, Default)]
struct ClientWindows {
    partitioned_until: u64,
    duplicating_until: u64,
    duplicate_copies: u32,
    reordering_until: u64,
    reorder_max_extra: u64,
    corrupting_until: u64,
    equivocating_until: u64,
    forging_until: u64,
    forge_ahead: u64,
}

/// Replays a [`FaultPlan`] tick by tick, answering "what is broken right
/// now?" queries for the [`ChaosSim`] delivery loop.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    events: Vec<FaultEvent>, // sorted by `at`, stable
    cursor: usize,
    server_down_until: u64,
    archive_down_until: u64,
    clients: HashMap<usize, ClientWindows>,
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> Self {
        let mut events = plan.events;
        events.sort_by_key(|e| e.at);
        Self {
            events,
            cursor: 0,
            server_down_until: 0,
            archive_down_until: 0,
            clients: HashMap::new(),
        }
    }

    /// Activates every event scheduled at or before `now`.
    fn advance_to(&mut self, now: u64) {
        while let Some(event) = self.events.get(self.cursor) {
            if event.at > now {
                break;
            }
            let start = event.at;
            if tre_obs::is_enabled() {
                tre_obs::event(
                    "fault.activated",
                    &format!("at={start} {}", fault_name(&event.fault)),
                );
            }
            match event.fault {
                Fault::ServerCrash { down_for } => {
                    self.server_down_until = self.server_down_until.max(start + down_for);
                }
                Fault::ArchiveOutage { down_for } => {
                    self.archive_down_until = self.archive_down_until.max(start + down_for);
                }
                Fault::Partition { client, heal_after } => {
                    let w = self.clients.entry(client).or_default();
                    w.partitioned_until = w.partitioned_until.max(start + heal_after);
                }
                Fault::DuplicateStorm {
                    client,
                    copies,
                    for_ticks,
                } => {
                    let w = self.clients.entry(client).or_default();
                    w.duplicating_until = w.duplicating_until.max(start + for_ticks);
                    w.duplicate_copies = copies;
                }
                Fault::Reorder {
                    client,
                    max_extra,
                    for_ticks,
                } => {
                    let w = self.clients.entry(client).or_default();
                    w.reordering_until = w.reordering_until.max(start + for_ticks);
                    w.reorder_max_extra = max_extra;
                }
                Fault::Corrupt { client, for_ticks } => {
                    let w = self.clients.entry(client).or_default();
                    w.corrupting_until = w.corrupting_until.max(start + for_ticks);
                }
                Fault::Equivocate { client, for_ticks } => {
                    let w = self.clients.entry(client).or_default();
                    w.equivocating_until = w.equivocating_until.max(start + for_ticks);
                }
                Fault::Forge {
                    client,
                    epochs_ahead,
                    for_ticks,
                } => {
                    let w = self.clients.entry(client).or_default();
                    w.forging_until = w.forging_until.max(start + for_ticks);
                    w.forge_ahead = epochs_ahead;
                }
                Fault::LatencySpike { .. }
                | Fault::TornFrame { .. }
                | Fault::CorruptByte { .. }
                | Fault::ConnReset
                | Fault::ByzantineShare { .. }
                | Fault::EquivocatingShare { .. } => {
                    // Live-transport and committee-harness faults:
                    // interpreted by the ChaosProxy / committee chaos
                    // harness against real sockets, not by the sim.
                }
            }
            self.cursor += 1;
        }
    }

    fn server_up(&self, now: u64) -> bool {
        now >= self.server_down_until
    }

    fn archive_up(&self, now: u64) -> bool {
        now >= self.archive_down_until
    }

    fn windows(&self, client: usize, now: u64) -> ActiveWindows {
        let w = self.clients.get(&client).copied().unwrap_or_default();
        ActiveWindows {
            partitioned: now < w.partitioned_until,
            duplicate_copies: if now < w.duplicating_until {
                w.duplicate_copies
            } else {
                0
            },
            reorder_max_extra: if now < w.reordering_until {
                w.reorder_max_extra
            } else {
                0
            },
            corrupting: now < w.corrupting_until,
            equivocating: now < w.equivocating_until,
            forging: (now < w.forging_until).then_some(w.forge_ahead),
        }
    }
}

/// Stable fault-variant label for trace events.
pub(crate) fn fault_name(fault: &Fault) -> &'static str {
    match fault {
        Fault::ServerCrash { .. } => "server_crash",
        Fault::Partition { .. } => "partition",
        Fault::DuplicateStorm { .. } => "duplicate_storm",
        Fault::Reorder { .. } => "reorder",
        Fault::Corrupt { .. } => "corrupt",
        Fault::ArchiveOutage { .. } => "archive_outage",
        Fault::Equivocate { .. } => "equivocate",
        Fault::Forge { .. } => "forge",
        Fault::LatencySpike { .. } => "latency_spike",
        Fault::TornFrame { .. } => "torn_frame",
        Fault::CorruptByte { .. } => "corrupt_byte",
        Fault::ConnReset => "conn_reset",
        Fault::ByzantineShare { .. } => "byzantine_share",
        Fault::EquivocatingShare { .. } => "equivocating_share",
    }
}

#[derive(Debug, Clone, Copy)]
struct ActiveWindows {
    partitioned: bool,
    duplicate_copies: u32,
    reorder_max_extra: u64,
    corrupting: bool,
    equivocating: bool,
    forging: Option<u64>,
}

/// One message the invariant checker expects to (eventually) open.
#[derive(Debug, Clone)]
struct Expectation {
    client: usize,
    epoch: u64,
    msg: Vec<u8>,
}

/// Outcome of [`ChaosSim::check_invariants`].
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Messages that opened before their release epoch or opened twice.
    pub safety_violations: Vec<String>,
    /// Messages that never opened.
    pub liveness_violations: Vec<String>,
}

impl InvariantReport {
    /// No message opened early or twice.
    pub fn safety_ok(&self) -> bool {
        self.safety_violations.is_empty()
    }

    /// Every message eventually opened.
    pub fn liveness_ok(&self) -> bool {
        self.liveness_violations.is_empty()
    }

    /// Panics with the collected violations unless both invariants hold.
    pub fn assert_ok(&self) {
        assert!(
            self.safety_ok() && self.liveness_ok(),
            "invariant violations:\n  safety: {:?}\n  liveness: {:?}",
            self.safety_violations,
            self.liveness_violations
        );
    }
}

/// The simulated timed-release world: a clock, a crash-recoverable
/// server, the broadcast channel and resilient clients, driven by a
/// [`FaultPlan`]. With an empty plan it is the plain world the
/// scalability, anonymity and stress scenarios run in;
/// [`ChaosSim::with_net`] gives the channel latency, jitter and loss.
///
/// All randomness (keys, message encryption, corruption bytes, reorder
/// delays, channel jitter and loss) derives from the single constructor
/// seed, so a run is exactly reproducible.
pub struct ChaosSim<'c, const L: usize> {
    curve: &'c Curve<L>,
    clock: SimClock,
    granularity: Granularity,
    keys: ServerKeyPair<L>,
    byz_keys: ServerKeyPair<L>,
    archive: Arc<UpdateArchive<L>>,
    server: Option<TimeServer<'c, L>>,
    channel: Channel<L>,
    clients: Vec<(ReceiverClient<'c, L>, SubscriberId)>,
    injector: FaultInjector,
    rng: StdRng,
    expectations: Vec<Expectation>,
    server_restarts: u64,
    deliveries_dropped: u64,
    deliveries_injected: u64,
    archive_denied: u64,
}

impl<'c, const L: usize> ChaosSim<'c, L> {
    /// Boots a world that will replay `plan`. The channel delivers every
    /// broadcast one tick later ([`NetConfig::default`]); all other
    /// channel behavior comes from the plan and [`ChaosSim::with_net`].
    pub fn new(curve: &'c Curve<L>, granularity: Granularity, plan: FaultPlan, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let clock = SimClock::new();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let byz_keys = ServerKeyPair::generate(curve, &mut rng);
        let server = TimeServer::new(curve, keys.clone(), clock.clone(), granularity);
        let archive = server.archive_handle();
        let channel = Channel::new(clock.clone(), NetConfig::default(), seed ^ 0x5EED);
        Self {
            curve,
            clock,
            granularity,
            keys,
            byz_keys,
            archive,
            server: Some(server),
            channel,
            clients: Vec::new(),
            injector: FaultInjector::new(plan),
            rng,
            expectations: Vec::new(),
            server_restarts: 0,
            deliveries_dropped: 0,
            deliveries_injected: 0,
            archive_denied: 0,
        }
    }

    /// Replaces the default channel model with `config` (builder style):
    /// each client's copy of a broadcast takes `config`'s latency, jitter
    /// and loss draw before the fault windows apply.
    pub fn with_net(mut self, config: NetConfig) -> Self {
        self.channel.config = config;
        self
    }

    /// Adds a receiver with a fresh (seed-derived) key pair; returns its
    /// index for use in [`Fault`] scopes and accessors.
    pub fn add_client(&mut self) -> usize {
        let spk = *self.keys.public();
        let keys = UserKeyPair::generate(self.curve, &spk, &mut self.rng);
        let client = ReceiverClient::new(self.curve, spk, keys);
        let sub = self.channel.subscribe();
        self.clients.push((client, sub));
        self.clients.len() - 1
    }

    /// Sends a timed-release message to `client` locked to `epoch`,
    /// registering it with the invariant checker.
    pub fn send_for_epoch(&mut self, client: usize, epoch: u64, msg: &[u8]) {
        let tag = self.granularity.tag_for_epoch(epoch);
        let spk = *self.keys.public();
        let (receiver, _) = &mut self.clients[client];
        let ct = Sender::new(self.curve, &spk, receiver.public_key())
            .expect("receiver key is honestly generated")
            .encrypt(&tag, msg, &mut self.rng);
        let now = self.clock.now();
        receiver.receive_ciphertext(ct, now);
        self.expectations.push(Expectation {
            client,
            epoch,
            msg: msg.to_vec(),
        });
    }

    /// Advances one tick: applies due faults, runs the (possibly crashed)
    /// server, routes deliveries through the fault windows, and drains
    /// client mailboxes. Returns how many messages opened this tick.
    pub fn tick(&mut self) -> usize {
        let now = self.clock.advance(1);
        self.injector.advance_to(now);

        // Server lifecycle: a crash destroys the process (in-memory epoch
        // cursor included); the archive is the durable state a restart
        // recovers from.
        if self.injector.server_up(now) {
            if self.server.is_none() {
                self.server = Some(TimeServer::recover(
                    self.curve,
                    self.keys.clone(),
                    self.clock.clone(),
                    self.granularity,
                    Arc::clone(&self.archive),
                ));
                self.server_restarts += 1;
                if tre_obs::is_enabled() {
                    tre_obs::event("sim.server_restarted", &format!("at={now}"));
                }
            }
        } else {
            if self.server.is_some() && tre_obs::is_enabled() {
                tre_obs::event("sim.server_crashed", &format!("at={now}"));
            }
            self.server = None;
        }

        let fresh = match &mut self.server {
            Some(server) => server.poll(),
            None => Vec::new(),
        };
        for update in &fresh {
            // On-air size is the framed wire encoding: what the TCP
            // transport actually ships.
            let bytes = update.wire_bytes(self.curve).len();
            self.channel.count_broadcast(bytes);
            self.route(now, update);
        }

        // The production receive loop: one admitted burst per (client,
        // delivery stamp). Invalid and equivocating updates land in the
        // client's health counters; the runtime keeps going.
        let mut opened = 0;
        for (client, sub) in &mut self.clients {
            opened += client.pump(&mut self.channel, *sub);
        }
        opened
    }

    /// Routes one freshly published update to every client: the
    /// channel's latency/jitter/loss draw first, then the active fault
    /// windows.
    fn route(&mut self, now: u64, update: &KeyUpdate<L>) {
        for idx in 0..self.clients.len() {
            let sub = self.clients[idx].1;
            let Some(on_air) = self.channel.draw(sub) else {
                continue;
            };
            let w = self.injector.windows(idx, now);
            if w.partitioned {
                self.deliveries_dropped += 1;
                continue;
            }
            let extra = if w.reorder_max_extra > 0 {
                self.rng.next_u64() % (w.reorder_max_extra + 1)
            } else {
                0
            };
            let deliver_at = on_air + extra;
            let delivered = if w.corrupting {
                // In-transit corruption: the signature point is replaced
                // by a random group element, so self-authentication fails.
                self.deliveries_injected += 1;
                KeyUpdate::from_parts(update.tag().clone(), self.random_point())
            } else {
                update.clone()
            };
            self.channel.deliver_to(sub, delivered.clone(), deliver_at);
            for copy in 0..w.duplicate_copies {
                self.deliveries_injected += 1;
                self.channel
                    .deliver_to(sub, delivered.clone(), deliver_at + u64::from(copy) % 2);
            }
            if w.equivocating {
                // The conflicting twin lands one tick after the honest
                // update, so the client's dedup cache already holds the
                // verified one — deterministic equivocation evidence.
                self.deliveries_injected += 1;
                let conflicting = KeyUpdate::from_parts(update.tag().clone(), self.random_point());
                self.channel.deliver_to(sub, conflicting, deliver_at + 1);
            }
            if let Some(ahead) = w.forging {
                // An impostor (different key) signs a future epoch's tag,
                // trying to spring the lock early.
                self.deliveries_injected += 1;
                let future = self.granularity.epoch_of(now) + ahead;
                let forged = self
                    .byz_keys
                    .issue_update(self.curve, &self.granularity.tag_for_epoch(future));
                self.channel.deliver_to(sub, forged, deliver_at);
            }
        }
    }

    fn random_point(&mut self) -> tre_pairing::G1Affine<L> {
        let s = self.curve.random_scalar(&mut self.rng);
        self.curve.g1_mul(&self.curve.generator(), &s)
    }

    /// Runs `ticks` ticks; returns total messages opened.
    pub fn run(&mut self, ticks: u64) -> usize {
        (0..ticks).map(|_| self.tick()).sum()
    }

    /// Lets every client try archive recovery, honoring archive outage
    /// windows and each client's retry backoff. Returns messages opened.
    pub fn catch_up(&mut self) -> usize {
        let now = self.clock.now();
        if !self.injector.archive_up(now) {
            self.archive_denied += 1;
            if tre_obs::is_enabled() {
                tre_obs::event("sim.archive_denied", &format!("at={now}"));
            }
            for (client, _) in &mut self.clients {
                client.archive_unreachable(now);
            }
            return 0;
        }
        let g = self.granularity;
        let archive = Arc::clone(&self.archive);
        let mut opened = 0;
        for (client, _) in &mut self.clients {
            opened += client.catch_up(&archive, now, |tag| g.epoch_of_tag(tag));
        }
        opened
    }

    /// Runs tick + catch-up rounds until every expected message has opened
    /// or `max_ticks` elapse. Returns `true` on full liveness.
    pub fn settle(&mut self, max_ticks: u64) -> bool {
        for _ in 0..max_ticks {
            self.tick();
            self.catch_up();
            if self.check_invariants().liveness_ok() {
                return true;
            }
        }
        self.check_invariants().liveness_ok()
    }

    /// Checks the chaos invariants against everything sent so far:
    ///
    /// * safety — each expected message opened at most once, and never
    ///   before its release epoch began;
    /// * liveness — each expected message has opened (call after
    ///   [`ChaosSim::settle`], not mid-outage).
    pub fn check_invariants(&self) -> InvariantReport {
        let mut report = InvariantReport::default();
        for (i, exp) in self.expectations.iter().enumerate() {
            let (client, _) = &self.clients[exp.client];
            let matches: Vec<_> = client
                .opened()
                .iter()
                .filter(|m| m.plaintext == exp.msg)
                .collect();
            match matches.len() {
                0 => report.liveness_violations.push(format!(
                    "message {i} (client {}, epoch {}) never opened",
                    exp.client, exp.epoch
                )),
                1 => {
                    let release = self.granularity.epoch_start(exp.epoch);
                    let opened_at = matches[0].opened_at;
                    if opened_at < release {
                        report.safety_violations.push(format!(
                            "message {i} opened at t={opened_at}, before release t={release}"
                        ));
                    }
                }
                n => report
                    .safety_violations
                    .push(format!("message {i} opened {n} times")),
            }
        }
        report
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// A client by index.
    pub fn client(&self, idx: usize) -> &ReceiverClient<'c, L> {
        &self.clients[idx].0
    }

    /// The shared archive handle.
    pub fn archive(&self) -> &UpdateArchive<L> {
        &self.archive
    }

    /// Whether the server process is currently alive.
    pub fn server_alive(&self) -> bool {
        self.server.is_some()
    }

    /// Times the server restarted after a crash.
    pub fn server_restarts(&self) -> u64 {
        self.server_restarts
    }

    /// Deliveries dropped by partitions.
    pub fn deliveries_dropped(&self) -> u64 {
        self.deliveries_dropped
    }

    /// Extra deliveries the fault layer injected (duplicates, corruptions,
    /// equivocations, forgeries).
    pub fn deliveries_injected(&self) -> u64 {
        self.deliveries_injected
    }

    /// Catch-up rounds refused by an archive outage.
    pub fn archive_denied(&self) -> u64 {
        self.archive_denied
    }

    /// Broadcast-channel statistics: one broadcast per published update.
    pub fn net_stats(&self) -> NetStats {
        self.channel.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tre_core::ReleaseTag;
    use tre_pairing::toy64;

    fn channel(config: NetConfig, seed: u64) -> (SimClock, Channel<8>) {
        let clock = SimClock::new();
        (clock.clone(), Channel::new(clock, config, seed))
    }

    /// What [`ChaosSim::tick`] does with a published update, minus the
    /// fault windows.
    fn broadcast(ch: &mut Channel<8>, update: &KeyUpdate<8>, bytes: usize) {
        ch.count_broadcast(bytes);
        for i in 0..ch.mailboxes.len() {
            let id = SubscriberId::new(i);
            if let Some(at) = ch.draw(id) {
                ch.deliver_to(id, update.clone(), at);
            }
        }
    }

    fn updates(n: usize) -> Vec<KeyUpdate<8>> {
        let curve = toy64();
        let server = ServerKeyPair::generate(curve, &mut StdRng::seed_from_u64(5));
        (0..n)
            .map(|i| server.issue_update(curve, &ReleaseTag::time(format!("t{i}"))))
            .collect()
    }

    #[test]
    fn channel_delivers_after_latency_in_send_order() {
        let latency = NetConfig {
            base_latency: 5,
            ..NetConfig::default()
        };
        let (clock, mut ch) = channel(latency, 1);
        let a = ch.subscribe();
        let us = updates(4);
        broadcast(&mut ch, &us[0], 64);
        clock.advance(1);
        for u in &us[1..] {
            broadcast(&mut ch, u, 64);
        }
        clock.advance(3);
        assert!(ch.poll(a).is_empty(), "not before the base latency");
        clock.advance(1);
        assert_eq!(ch.poll(a), vec![(5, us[0].clone())]);
        clock.advance(1);
        let same_tick: Vec<_> = us[1..].iter().map(|u| (6, u.clone())).collect();
        assert_eq!(ch.poll(a), same_tick, "ties on deliver_at keep send order");
        assert!(ch.poll(a).is_empty(), "drained");
    }

    #[test]
    fn channel_jitter_within_bound_and_deterministic() {
        let cfg = NetConfig {
            base_latency: 10,
            jitter: 7,
            loss_prob: 0.0,
        };
        let u = &updates(1)[0];
        let run = |seed| {
            let (clock, mut ch) = channel(cfg, seed);
            let subs: Vec<_> = (0..20).map(|_| ch.subscribe()).collect();
            broadcast(&mut ch, u, 64);
            clock.advance(17);
            subs.iter().map(|&s| ch.poll(s)[0].0).collect::<Vec<_>>()
        };
        let times = run(42);
        for &t in &times {
            assert!((10..=17).contains(&t), "delivery at {t} outside bound");
        }
        assert_eq!(times, run(42), "same seed, same schedule");
        assert_ne!(times, run(43), "different seed, different jitter");
    }

    #[test]
    fn channel_broadcast_bytes_independent_of_subscribers() {
        let (_, mut ch) = channel(NetConfig::default(), 3);
        for _ in 0..100 {
            ch.subscribe();
        }
        broadcast(&mut ch, &updates(1)[0], 64);
        let stats = ch.stats;
        assert_eq!(stats.broadcasts, 1);
        assert_eq!(stats.broadcast_bytes, 64, "one copy on the air");
        assert_eq!(stats.unicast_equivalent_bytes, 100 * 64);
    }

    #[test]
    fn channel_injection_bypasses_the_model() {
        let dark = NetConfig {
            loss_prob: 1.0,
            ..NetConfig::default()
        };
        let (clock, mut ch) = channel(dark, 9);
        let (a, b) = (ch.subscribe(), ch.subscribe());
        let u = updates(1).remove(0);
        broadcast(&mut ch, &u, 64);
        assert_eq!(ch.stats.lost, 2, "every drawn copy lost and counted");
        ch.deliver_to(a, u.clone(), 2);
        clock.advance(2);
        assert_eq!(ch.poll(a), vec![(2, u)]);
        assert!(ch.poll(b).is_empty(), "injection is per-subscriber");
        assert_eq!(ch.stats.broadcasts, 1, "injections are not broadcasts");
    }

    /// Generic over the trait, including the defaulted lifecycle
    /// methods of an always-up in-process feed.
    #[test]
    fn channel_is_a_feed() {
        fn drain_all<F: Feed<8>>(f: &mut F, id: SubscriberId) -> Vec<KeyUpdate<8>> {
            assert!(f.is_connected(id), "sim feeds are never down");
            f.request_catch_up(id, 0, 0).unwrap();
            f.poll(id).into_iter().map(|(_, u)| u).collect()
        }
        let (clock, mut ch) = channel(NetConfig::default(), 5);
        let id = Feed::subscribe(&mut ch);
        let u = updates(1).remove(0);
        broadcast(&mut ch, &u, 64);
        clock.advance(1);
        assert_eq!(drain_all(&mut ch, id), vec![u]);
    }

    /// Epochs a `Reorder` window lands on one delivery stamp arrive
    /// together, so the client admits them as one burst: one
    /// `client.batch_verify` span of 2 pairings per (client, stamp), not
    /// one per update.
    #[test]
    fn reordered_epochs_sharing_a_stamp_verify_as_one_burst() {
        let curve = toy64();
        let plan = FaultPlan::new().at(
            1,
            Fault::Reorder {
                client: 0,
                max_extra: 4,
                for_ticks: 10,
            },
        );
        let mut sim: ChaosSim<'_, 8> = ChaosSim::new(curve, Granularity::Seconds, plan, 27);
        let c = sim.add_client();
        sim.send_for_epoch(c, 4, b"reordered");
        tre_obs::enable();
        let mut stamps = BTreeSet::new();
        for _ in 0..14 {
            sim.tick();
            // A routed copy is due at least one tick later, so every
            // stamp is still queued after the tick that routed it.
            stamps.extend(sim.channel.mailboxes[0].keys().map(|&(at, _)| at));
        }
        let trace = tre_obs::finish();
        let now = sim.clock().now();
        let bursts = stamps.iter().filter(|&&at| at <= now).count();
        let accepted = sim.client(c).health().accepted_updates as usize;
        assert!(bursts < accepted, "{bursts} stamps for {accepted} updates");
        let spans = trace.spans_named("client.batch_verify");
        assert_eq!(spans.len(), bursts, "one verify per (client, stamp)");
        assert!(spans.iter().all(|s| s.ops.pairings == 2));
        sim.check_invariants().assert_ok();
    }

    #[test]
    fn control_run_without_faults_is_clean() {
        let curve = toy64();
        let mut sim: ChaosSim<'_, 8> =
            ChaosSim::new(curve, Granularity::Seconds, FaultPlan::new(), 1);
        let c = sim.add_client();
        sim.send_for_epoch(c, 3, b"plain run");
        assert!(sim.settle(10));
        sim.check_invariants().assert_ok();
        let h = sim.client(c).health();
        assert_eq!(h.rejected_updates, 0);
        assert_eq!(h.duplicates_skipped, 0);
        assert_eq!(h.equivocations, 0);
    }

    #[test]
    fn scripted_world() {
        let curve = toy64();
        let mut sim: ChaosSim<'_, 8> =
            ChaosSim::new(curve, Granularity::Seconds, FaultPlan::new(), 7);
        let alice = sim.add_client();
        let bob = sim.add_client();
        sim.send_for_epoch(alice, 3, b"for alice at 3");
        sim.send_for_epoch(bob, 5, b"for bob at 5");

        // Nothing opens before the respective epochs (+1 tick latency).
        let opened_by_4 = sim.run(4);
        assert_eq!(opened_by_4, 1, "only alice's message by t=4");
        assert_eq!(sim.client(alice).opened().len(), 1);
        assert_eq!(sim.client(bob).opened().len(), 0);

        let opened_rest = sim.run(3);
        assert_eq!(opened_rest, 1);
        assert_eq!(sim.client(bob).opened()[0].plaintext, b"for bob at 5");
        assert!(sim.client(bob).opened()[0].opened_at >= 5);
        sim.check_invariants().assert_ok();
    }

    /// A lossy, jittery channel: one seed replays the same channel draws
    /// and open times, every published update is one broadcast whatever
    /// the population, and `settle` recovers what the channel lost from
    /// the archive.
    #[test]
    fn lossy_jittery_net_replays_and_settles() {
        let curve = toy64();
        let lossy = NetConfig {
            base_latency: 1,
            jitter: 3,
            loss_prob: 0.5,
        };
        let run = |seed| {
            let mut sim: ChaosSim<'_, 8> =
                ChaosSim::new(curve, Granularity::Seconds, FaultPlan::new(), seed).with_net(lossy);
            let clients: Vec<usize> = (0..10).map(|_| sim.add_client()).collect();
            for &c in &clients {
                sim.send_for_epoch(c, 1 + c as u64 % 4, format!("m{c}").as_bytes());
            }
            sim.run(3);
            let stats = sim.net_stats();
            assert_eq!(stats.broadcasts, 4, "epochs 0..=3, one broadcast each");
            assert_eq!(stats.unicast_equivalent_bytes, stats.broadcast_bytes * 10);
            assert!(sim.settle(30), "the archive restores liveness");
            sim.check_invariants().assert_ok();
            let opened_at: Vec<Vec<u64>> = clients
                .iter()
                .map(|&c| sim.client(c).opened().iter().map(|m| m.opened_at).collect())
                .collect();
            (sim.net_stats(), opened_at)
        };
        let (stats, opened_at) = run(9);
        assert!(stats.lost > 0, "the channel dropped copies");
        assert_eq!((stats, opened_at), run(9), "same seed, same world");

        // A channel that loses everything: only the archive opens.
        let mut dark: ChaosSim<'_, 8> =
            ChaosSim::new(curve, Granularity::Seconds, FaultPlan::new(), 9).with_net(NetConfig {
                loss_prob: 1.0,
                ..NetConfig::default()
            });
        let c = dark.add_client();
        dark.send_for_epoch(c, 2, b"lost on air");
        dark.run(5);
        assert!(dark.client(c).opened().is_empty(), "all broadcasts lost");
        assert_eq!(dark.catch_up(), 1, "archive saves the day");
        assert_eq!(dark.client(c).opened()[0].plaintext, b"lost on air");
        assert_eq!(dark.net_stats().lost, 6, "epochs 0..=5 lost on air");
    }

    #[test]
    fn injector_windows_open_and_close() {
        let plan = FaultPlan::new()
            .at(
                2,
                Fault::Partition {
                    client: 0,
                    heal_after: 3,
                },
            )
            .at(4, Fault::ArchiveOutage { down_for: 2 });
        let mut inj = FaultInjector::new(plan);
        inj.advance_to(1);
        assert!(!inj.windows(0, 1).partitioned);
        assert!(inj.archive_up(1));
        inj.advance_to(2);
        assert!(inj.windows(0, 2).partitioned);
        inj.advance_to(4);
        assert!(inj.windows(0, 4).partitioned);
        assert!(!inj.archive_up(4));
        inj.advance_to(5);
        assert!(!inj.windows(0, 5).partitioned, "partition healed at 5");
        assert!(!inj.archive_up(5));
        inj.advance_to(6);
        assert!(inj.archive_up(6), "archive back at 6");
    }

    #[test]
    fn same_seed_same_world() {
        let curve = toy64();
        let plan = || {
            FaultPlan::new()
                .at(
                    1,
                    Fault::Reorder {
                        client: 0,
                        max_extra: 4,
                        for_ticks: 10,
                    },
                )
                .at(
                    3,
                    Fault::DuplicateStorm {
                        client: 0,
                        copies: 2,
                        for_ticks: 5,
                    },
                )
        };
        let run = |seed| {
            let mut sim: ChaosSim<'_, 8> = ChaosSim::new(curve, Granularity::Seconds, plan(), seed);
            let c = sim.add_client();
            sim.send_for_epoch(c, 2, b"deterministic?");
            sim.settle(30);
            let h = sim.client(c).health();
            (
                h.updates_received,
                h.duplicates_skipped,
                sim.client(c)
                    .opened()
                    .iter()
                    .map(|m| m.opened_at)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(42), run(42), "same seed, same trace");
    }
}
