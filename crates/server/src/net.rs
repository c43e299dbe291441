//! A simulated broadcast channel with latency, jitter, and loss.
//!
//! The paper's footnote 1 observes that timely delivery of the *small* key
//! update (within a bounded jitter) is much easier than timely delivery of
//! whole messages — this module is where that bound lives, and experiment
//! E4 measures release-time precision against it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tre_core::KeyUpdate;

use crate::clock::SimClock;

/// Delivery characteristics of the broadcast channel.
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

/// Handle identifying a subscriber on a broadcast transport (the
/// simulated [`BroadcastNet`] or the TCP-backed [`crate::TcpFeed`]).
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

type Mailbox<const L: usize> = BinaryHeap<Reverse<Envelope<L>>>;

/// One queued delivery. The heap is keyed on `(deliver_at, seq)` only —
/// `seq` is unique per delivery, so the ordering is total and the payload
/// never participates in comparisons.
#[derive(Debug, Clone)]
struct Envelope<const L: usize> {
    deliver_at: u64,
    seq: u64,
    update: KeyUpdate<L>,
}

impl<const L: usize> PartialEq for Envelope<L> {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}

impl<const L: usize> Eq for Envelope<L> {}

impl<const L: usize> PartialOrd for Envelope<L> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> Ord for Envelope<L> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// The broadcast network: one sender (the time server), many subscribers.
pub struct BroadcastNet<const L: usize> {
    pub(crate) config: NetConfig,
    clock: SimClock,
    rng: StdRng,
    mailboxes: Vec<Mailbox<L>>,
    seq: u64,
    stats: NetStats,
}

impl<const L: usize> BroadcastNet<L> {
    /// Creates a channel with a deterministic RNG seed (reproducible runs).
    pub fn new(clock: SimClock, config: NetConfig, seed: u64) -> Self {
        Self {
            config,
            clock,
            rng: StdRng::seed_from_u64(seed),
            mailboxes: Vec::new(),
            seq: 0,
            stats: NetStats::default(),
        }
    }

    /// Registers a new subscriber.
    pub fn subscribe(&mut self) -> SubscriberId {
        self.mailboxes.push(BinaryHeap::new());
        SubscriberId(self.mailboxes.len() - 1)
    }

    /// Number of subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.mailboxes.len()
    }

    /// Broadcasts one key update to every subscriber, applying the
    /// latency/jitter/loss model per subscriber. `payload_bytes` is the
    /// update's wire size (callers have the curve to compute it).
    pub fn broadcast(&mut self, update: &KeyUpdate<L>, payload_bytes: usize) {
        let _span = tre_obs::span("net.broadcast");
        self.count_broadcast(payload_bytes);
        for sub in 0..self.mailboxes.len() {
            let id = SubscriberId(sub);
            if let Some(deliver_at) = self.draw(id) {
                self.deliver_to(id, update.clone(), deliver_at);
            }
        }
    }

    /// Counts one broadcast of `payload_bytes` in the channel statistics:
    /// one copy on the air, `subscribers` copies under unicast.
    pub(crate) fn count_broadcast(&mut self, payload_bytes: usize) {
        self.stats.broadcasts += 1;
        self.stats.broadcast_bytes += payload_bytes as u64;
        self.stats.unicast_equivalent_bytes += payload_bytes as u64 * self.mailboxes.len() as u64;
    }

    /// The channel model's draw for one subscriber's copy of a broadcast
    /// sent now: its delivery tick, or `None` when the copy is lost
    /// (counted in [`NetStats::lost`]). The default config (no jitter,
    /// no loss) draws nothing from the RNG.
    pub(crate) fn draw(&mut self, id: SubscriberId) -> Option<u64> {
        if self.config.loss_prob > 0.0 && self.rng.gen::<f64>() < self.config.loss_prob {
            self.stats.lost += 1;
            if tre_obs::is_enabled() {
                tre_obs::event("net.dropped", &format!("subscriber={}", id.0));
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

    /// Enqueues a single delivery directly into one subscriber's mailbox,
    /// bypassing the latency/jitter/loss model. This is the injection hook
    /// the fault layer uses for duplicated, reordered, corrupted, and
    /// forged deliveries; it is not counted in the broadcast statistics.
    pub fn deliver_to(&mut self, id: SubscriberId, update: KeyUpdate<L>, deliver_at: u64) {
        let mbox = &mut self.mailboxes[id.0];
        mbox.push(Reverse(Envelope {
            deliver_at,
            seq: self.seq,
            update,
        }));
        self.seq += 1;
    }

    /// Drains every update whose delivery time has arrived for `id`,
    /// returning `(delivered_at, update)` pairs in delivery order.
    pub fn poll(&mut self, id: SubscriberId) -> Vec<(u64, KeyUpdate<L>)> {
        let now = self.clock.now();
        let mbox = &mut self.mailboxes[id.0];
        let mut out = Vec::new();
        while let Some(Reverse(env)) = mbox.peek() {
            if env.deliver_at > now {
                break;
            }
            let Reverse(env) = mbox.pop().unwrap();
            out.push((env.deliver_at, env.update));
        }
        out
    }

    /// Channel statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_core::{ReleaseTag, ServerKeyPair};
    use tre_pairing::toy64;

    fn mk_update() -> (KeyUpdate<8>, usize) {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let u = server.issue_update(curve, &ReleaseTag::time("t"));
        let mut body = Vec::new();
        u.write_body(curve, &mut body);
        (u, body.len())
    }

    #[test]
    fn delivery_respects_latency() {
        let clock = SimClock::new();
        let mut net: BroadcastNet<8> = BroadcastNet::new(
            clock.clone(),
            NetConfig {
                base_latency: 5,
                jitter: 0,
                loss_prob: 0.0,
            },
            1,
        );
        let a = net.subscribe();
        let (u, sz) = mk_update();
        net.broadcast(&u, sz);
        assert!(net.poll(a).is_empty(), "not yet delivered");
        clock.advance(4);
        assert!(net.poll(a).is_empty());
        clock.advance(1);
        let got = net.poll(a);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 5);
        assert_eq!(got[0].1, u);
        assert!(net.poll(a).is_empty(), "drained");
    }

    #[test]
    fn jitter_within_bound_and_deterministic() {
        let cfg = NetConfig {
            base_latency: 10,
            jitter: 7,
            loss_prob: 0.0,
        };
        let run = |seed| {
            let clock = SimClock::new();
            let mut net: BroadcastNet<8> = BroadcastNet::new(clock.clone(), cfg, seed);
            let subs: Vec<_> = (0..20).map(|_| net.subscribe()).collect();
            let (u, sz) = mk_update();
            net.broadcast(&u, sz);
            clock.advance(17);
            subs.iter().map(|&s| net.poll(s)[0].0).collect::<Vec<_>>()
        };
        let times = run(42);
        for &t in &times {
            assert!((10..=17).contains(&t), "delivery at {t} outside bound");
        }
        assert_eq!(times, run(42), "same seed, same schedule");
        assert_ne!(times, run(43), "different seed, different jitter");
    }

    #[test]
    fn loss_model_drops_and_counts() {
        let clock = SimClock::new();
        let mut net: BroadcastNet<8> = BroadcastNet::new(
            clock.clone(),
            NetConfig {
                base_latency: 1,
                jitter: 0,
                loss_prob: 1.0,
            },
            7,
        );
        let a = net.subscribe();
        let (u, sz) = mk_update();
        net.broadcast(&u, sz);
        clock.advance(10);
        assert!(net.poll(a).is_empty());
        assert_eq!(net.stats().lost, 1);
    }

    #[test]
    fn broadcast_bytes_independent_of_subscribers() {
        let clock = SimClock::new();
        let mut net: BroadcastNet<8> = BroadcastNet::new(clock.clone(), NetConfig::default(), 3);
        for _ in 0..100 {
            net.subscribe();
        }
        let (u, sz) = mk_update();
        net.broadcast(&u, sz);
        let stats = net.stats();
        assert_eq!(stats.broadcast_bytes, sz as u64, "one copy on the air");
        assert_eq!(stats.unicast_equivalent_bytes, 100 * sz as u64);
        assert_eq!(stats.broadcasts, 1);
    }

    #[test]
    fn same_tick_deliveries_preserve_send_order() {
        let clock = SimClock::new();
        let mut net: BroadcastNet<8> = BroadcastNet::new(
            clock.clone(),
            NetConfig {
                base_latency: 3,
                jitter: 0,
                loss_prob: 0.0,
            },
            1,
        );
        let a = net.subscribe();
        let updates: Vec<_> = (0..4).map(|_| mk_update().0).collect();
        for u in &updates {
            net.broadcast(u, 64);
        }
        clock.advance(3);
        let got: Vec<_> = net.poll(a).into_iter().map(|(_, u)| u).collect();
        assert_eq!(got, updates, "ties on deliver_at break by sequence number");
    }

    #[test]
    fn deliver_to_bypasses_channel_model() {
        let clock = SimClock::new();
        let mut net: BroadcastNet<8> = BroadcastNet::new(
            clock.clone(),
            NetConfig {
                base_latency: 1,
                jitter: 0,
                loss_prob: 1.0, // broadcast path would drop everything
            },
            9,
        );
        let a = net.subscribe();
        let b = net.subscribe();
        let (u, _) = mk_update();
        net.deliver_to(a, u.clone(), 2);
        clock.advance(2);
        assert_eq!(net.poll(a), vec![(2, u)]);
        assert!(net.poll(b).is_empty(), "injection is per-subscriber");
        assert_eq!(net.stats().broadcasts, 0, "injections are not broadcasts");
    }

    #[test]
    fn multiple_updates_ordered() {
        let clock = SimClock::new();
        let mut net: BroadcastNet<8> = BroadcastNet::new(
            clock.clone(),
            NetConfig {
                base_latency: 2,
                jitter: 0,
                loss_prob: 0.0,
            },
            1,
        );
        let a = net.subscribe();
        let (u1, sz) = mk_update();
        net.broadcast(&u1, sz);
        clock.advance(1);
        let (u2, sz2) = mk_update();
        net.broadcast(&u2, sz2);
        clock.advance(5);
        let got = net.poll(a);
        assert_eq!(got.len(), 2);
        assert!(got[0].0 <= got[1].0);
        assert_eq!(got[0].1, u1);
    }
}
