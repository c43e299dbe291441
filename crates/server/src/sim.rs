//! The relay-tree model behind experiment E20: a million-subscriber
//! fan-out whose relays run the real admission step (`RelayCore`) and
//! whose wires are a seeded latency model.

use std::sync::Arc;

use rand::RngCore;
use tre_core::ServerKeyPair;
use tre_pairing::Curve;

use crate::archive::UpdateArchive;
use crate::batch::BatchVerifier;
use crate::clock::Granularity;
use crate::relay::RelayCore;

/// One shape of the relay tree between the root daemon and its leaf
/// subscribers: `branching` children per node across `levels` relay
/// levels. `levels == 0` is the flat baseline — the root serves every
/// subscriber directly and per-link serialization dominates.
#[derive(Debug, Clone, Copy)]
pub struct FanoutShape {
    /// Human-readable label for tables ("direct", "1024¹", …).
    pub name: &'static str,
    /// Children per node at every relay level.
    pub branching: usize,
    /// Relay levels between the root and the leaves.
    pub levels: u32,
}

impl FanoutShape {
    /// Total relay daemons in the tree: `B + B² + … + B^levels`.
    pub fn relay_count(&self) -> usize {
        (1..=self.levels)
            .map(|l| self.branching.pow(l))
            .sum::<usize>()
    }

    /// Relays at the deepest level — the ones serving subscribers.
    pub fn leaf_relays(&self) -> usize {
        if self.levels == 0 {
            1 // the root itself
        } else {
            self.branching.pow(self.levels)
        }
    }
}

/// Per-epoch delivery outcome of one [`RelayTreeSim`] epoch: exact
/// (sort-based, not histogram-bucketed) percentiles of the
/// epoch-to-delivery latency across every leaf subscriber.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeliveryReport {
    /// Median leaf delivery latency, µs after the root published.
    pub p50_us: u64,
    /// 99th-percentile leaf delivery latency, µs.
    pub p99_us: u64,
    /// Epoch-to-**last**-delivery: the slowest leaf, µs.
    pub max_us: u64,
    /// Wall-clock µs the relay tier spent admitting this epoch: the
    /// measured `RelayCore` admission of every relay (screen, one
    /// verify, archive).
    pub verify_us: u64,
}

/// A million-subscriber relay tree under a deterministic latency model.
///
/// The *admission* work is real: every relay admits the root update
/// through its own `RelayCore`, the `trerelay` pump's admission step,
/// so it is verified exactly once per relay and epoch (callers
/// counter-assert `2 × relays × epochs` pairings via `tre_obs`), and
/// the measured wall time of each admission feeds the latency model. The
/// *fan-out* is modeled: each tree edge costs a seeded wire latency
/// draw, and each node serializes frames to its children in slot order
/// at a fixed per-frame spacing — which is exactly what makes the flat
/// shape lose: a root with a million direct sockets pays a million
/// serialization slots, while a tree amortizes them across levels.
pub struct RelayTreeSim<'c, const L: usize> {
    curve: &'c Curve<L>,
    keys: ServerKeyPair<L>,
    verifier: BatchVerifier<'c, L>,
    /// One admission core per relay, in level order.
    relays: Vec<RelayCore<L>>,
    shape: FanoutShape,
    subscribers: u64,
    granularity: Granularity,
    rng: rand::rngs::StdRng,
    scratch: Vec<u64>,
}

/// Base one-way latency of a tree edge, µs.
const WIRE_BASE_US: u64 = 200;
/// Uniform jitter added on top of [`WIRE_BASE_US`], µs.
const WIRE_JITTER_US: u64 = 300;
/// Per-child frame serialization spacing at a broadcasting node, in
/// tenths of a µs: the k-th child of a node sees the frame `k × 0.2µs`
/// after the first byte leaves (≈5 Gbit/s of ~128-byte frames).
const SEND_SPACING_TENTH_US: u64 = 2;

impl<'c, const L: usize> RelayTreeSim<'c, L> {
    /// Builds the tree world: a fresh root key pair, one prepared
    /// batch verifier (every relay authenticates against the *same*
    /// root key — the prepared Miller coefficients are shared, the
    /// per-relay admissions and archives are not), and a seeded RNG so
    /// the whole latency schedule is reproducible.
    pub fn new(
        curve: &'c Curve<L>,
        shape: FanoutShape,
        subscribers: u64,
        granularity: Granularity,
        seed: u64,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Self {
        use rand::SeedableRng;
        let keys = ServerKeyPair::generate(curve, rng);
        let verifier = BatchVerifier::new(curve, *keys.public());
        let relays = (0..shape.relay_count())
            .map(|_| RelayCore {
                granularity,
                archive: Arc::new(UpdateArchive::new()),
                stats: Arc::default(),
            })
            .collect();
        Self {
            curve,
            keys,
            verifier,
            relays,
            shape,
            subscribers,
            granularity,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            scratch: Vec::new(),
        }
    }

    /// The shape this world was built with.
    pub fn shape(&self) -> FanoutShape {
        self.shape
    }

    fn wire_us(&mut self) -> u64 {
        WIRE_BASE_US + self.rng.next_u64() % (WIRE_JITTER_US + 1)
    }

    /// Runs one epoch end to end: the root issues the update, each
    /// relay level receives it (edge latency + its slot in the parent's
    /// serialization order), **admits it for real** — one
    /// `RelayCore` admission per relay, with no forecast, whose
    /// measured wall time is that relay's processing cost — and fans it
    /// onward; every leaf subscriber's arrival time is then drawn and
    /// the exact percentile spread returned.
    pub fn run_epoch(&mut self, epoch: u64) -> DeliveryReport {
        let update = self
            .keys
            .issue_update(self.curve, &self.granularity.tag_for_epoch(epoch));
        let mut relay = 0;

        let spacing = |slot: u64| slot * SEND_SPACING_TENTH_US / 10;
        let mut verify_us = 0u64;
        // Arrival time (µs after publish) of each relay at the current
        // level, starting from the root alone at t = 0.
        let mut level: Vec<u64> = vec![0];
        for _ in 0..self.shape.levels {
            let b = self.shape.branching;
            let mut next = Vec::with_capacity(level.len() * b);
            for &parent_at in &level {
                for slot in 0..b {
                    let t0 = std::time::Instant::now();
                    let admitted = self.relays[relay].admit(
                        &self.verifier,
                        vec![(parent_at, update.clone())],
                        |_| None,
                    );
                    relay += 1;
                    let spent = t0.elapsed().as_micros() as u64;
                    verify_us += spent;
                    assert_eq!(admitted.len(), 1, "root update admitted at every relay");
                    next.push(parent_at + spacing(slot as u64) + self.wire_us() + spent);
                }
            }
            level = next;
        }

        // Leaf subscribers, spread evenly across the deepest relays.
        let leaf_relays = level.len() as u64;
        let per_relay = self.subscribers / leaf_relays;
        let remainder = self.subscribers % leaf_relays;
        self.scratch.clear();
        self.scratch.reserve(self.subscribers as usize);
        for (i, &relay_at) in level.iter().enumerate() {
            let subs = per_relay + u64::from((i as u64) < remainder);
            for slot in 0..subs {
                let wire = self.wire_us();
                self.scratch.push(relay_at + spacing(slot) + wire);
            }
        }
        self.scratch.sort_unstable();
        let n = self.scratch.len();
        let at = |q: f64| self.scratch[((n - 1) as f64 * q) as usize];
        DeliveryReport {
            p50_us: at(0.50),
            p99_us: at(0.99),
            max_us: self.scratch[n - 1],
            verify_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_pairing::toy64;

    #[test]
    fn relay_tree_verifies_once_per_relay() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let shape = FanoutShape {
            name: "2x2",
            branching: 2,
            levels: 2,
        };
        assert_eq!(shape.relay_count(), 6);
        assert_eq!(shape.leaf_relays(), 4);
        let mut sim = RelayTreeSim::new(curve, shape, 600, Granularity::Seconds, 11, &mut rng);
        tre_obs::enable();
        let r0 = sim.run_epoch(0);
        let r1 = sim.run_epoch(1);
        let pairings = tre_obs::finish().total_ops().pairings;
        assert_eq!(
            pairings,
            2 * 6 * 2,
            "each relay verifies each epoch exactly once (2 pairings per verify)"
        );
        for r in [r0, r1] {
            assert!(r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
            // Two relay levels and a leaf edge: at least 3 wire hops.
            assert!(r.max_us >= 3 * 200);
        }
    }

    #[test]
    fn flat_shape_pays_for_serialization() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let flat = FanoutShape {
            name: "direct",
            branching: 0,
            levels: 0,
        };
        let tree = FanoutShape {
            name: "32x1",
            branching: 32,
            levels: 1,
        };
        let subs = 200_000u64;
        let mut a = RelayTreeSim::new(curve, flat, subs, Granularity::Seconds, 5, &mut rng);
        let mut b = RelayTreeSim::new(curve, tree, subs, Granularity::Seconds, 5, &mut rng);
        let fa = a.run_epoch(0);
        let fb = b.run_epoch(0);
        assert!(
            fa.max_us > fb.max_us,
            "fan-out tree beats the flat root on last delivery \
             ({} vs {} µs)",
            fa.max_us,
            fb.max_us
        );
        assert_eq!(fa.verify_us, 0, "no relays, no relay verification");
    }
}
