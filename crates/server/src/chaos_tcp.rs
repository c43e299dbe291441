//! Live-socket fault injection: a chaos proxy between `tred` and its
//! feeds.
//!
//! The PR 1 [`crate::ChaosSim`] exercises the *simulated* broadcast
//! channel; this module points the same [`FaultPlan`] vocabulary at the
//! real TCP transport. A [`ChaosProxy`] listens on its own port,
//! forwards every accepted connection to an upstream [`crate::Tred`]
//! daemon, and perturbs the byte stream according to the plan's
//! transport faults:
//!
//! * [`Fault::Partition`] — the proxy stalls all forwarding for the
//!   window (bytes are held, not dropped — TCP semantics);
//! * [`Fault::LatencySpike`] — each relayed chunk picks up a fixed
//!   extra delay;
//! * [`Fault::TornFrame`] — the proxy forwards *half* of a
//!   server→client chunk and severs the connection mid-frame;
//! * [`Fault::CorruptByte`] — one byte of each server→client chunk is
//!   flipped in transit;
//! * [`Fault::ConnReset`] — every connection alive at the instant is
//!   abruptly closed.
//!
//! In a proxy plan, [`FaultEvent::at`] and all window lengths are
//! **milliseconds of proxy uptime** (the sim interprets the same fields
//! as clock ticks). The `client` field of `Partition` is ignored here:
//! the proxy cannot attribute a TCP connection to a sim client index,
//! so partitions are global stalls.
//!
//! The client side that survives the proxy — reconnect supervision and
//! gap repair — is [`crate::SupervisedFeed`].

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::faults::{fault_name, Fault, FaultEvent, FaultPlan};

tre_obs::metrics! {
    /// Proxy counters (all monotone; readable while the proxy runs).
    #[derive(Debug, Default)]
    pub struct ProxyStats {
        /// Client connections accepted (and bridged upstream).
        pub connections: AtomicU64,
        /// Bytes relayed client → server.
        pub bytes_up: AtomicU64,
        /// Bytes relayed server → client.
        pub bytes_down: AtomicU64,
        /// Chunks held back by a partition stall window.
        pub stalled_chunks: AtomicU64,
        /// Chunks delayed by a latency spike window.
        pub delayed_chunks: AtomicU64,
        /// Bytes flipped by corruption windows.
        pub corrupted_bytes: AtomicU64,
        /// Connections severed mid-frame by torn-frame windows.
        pub torn_frames: AtomicU64,
        /// Connections killed by reset events.
        pub resets: AtomicU64,
    }
}

/// The transport fault schedule, resolved from a [`FaultPlan`] into
/// absolute millisecond windows at bind time.
#[derive(Debug, Clone, Default)]
struct Schedule {
    /// Partition stall windows `[start, end)`.
    stalls: Vec<(u64, u64)>,
    /// Latency windows `(start, end, delay_ms)`.
    latency: Vec<(u64, u64, u64)>,
    /// Torn-frame windows `[start, end)`.
    torn: Vec<(u64, u64)>,
    /// Corruption windows `[start, end)`.
    corrupt: Vec<(u64, u64)>,
    /// Reset instants, sorted.
    resets: Vec<u64>,
}

impl Schedule {
    fn from_plan(plan: &FaultPlan) -> Self {
        let mut s = Self::default();
        for FaultEvent { at, fault } in plan.events() {
            let at = *at;
            match *fault {
                Fault::Partition { heal_after, .. } => s.stalls.push((at, at + heal_after)),
                Fault::LatencySpike { delay_ms, for_ms } => {
                    s.latency.push((at, at + for_ms, delay_ms));
                }
                Fault::TornFrame { for_ms } => s.torn.push((at, at + for_ms)),
                Fault::CorruptByte { for_ms } => s.corrupt.push((at, at + for_ms)),
                Fault::ConnReset => s.resets.push(at),
                // Sim-only faults have no transport meaning.
                _ => {}
            }
        }
        s.resets.sort_unstable();
        s
    }

    /// Latest end among stall windows containing `now` (None = not stalled).
    fn stalled_until(&self, now: u64) -> Option<u64> {
        self.stalls
            .iter()
            .filter(|(a, b)| *a <= now && now < *b)
            .map(|(_, b)| *b)
            .max()
    }

    /// Extra delay active at `now` (max across overlapping windows).
    fn delay_at(&self, now: u64) -> Option<u64> {
        self.latency
            .iter()
            .filter(|(a, b, _)| *a <= now && now < *b)
            .map(|(_, _, d)| *d)
            .max()
    }

    fn tearing(&self, now: u64) -> bool {
        self.torn.iter().any(|(a, b)| *a <= now && now < *b)
    }

    fn corrupting(&self, now: u64) -> bool {
        self.corrupt.iter().any(|(a, b)| *a <= now && now < *b)
    }

    /// Whether a reset fires in `(born, now]` — i.e. while this
    /// connection has been alive.
    fn reset_since(&self, born: u64, now: u64) -> bool {
        self.resets.iter().any(|&t| born < t && t <= now)
    }
}

struct ProxyShared {
    upstream: SocketAddr,
    schedule: Schedule,
    start: Instant,
    stats: Arc<ProxyStats>,
    shutdown: AtomicBool,
    seed: u64,
    pipe_counter: AtomicU64,
}

impl ProxyShared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// A fault-injecting TCP proxy in front of a [`crate::Tred`] daemon.
/// Point feeds at [`ChaosProxy::local_addr`] instead of the daemon and
/// drive the transport faults of a [`FaultPlan`] against real sockets.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `listen` (e.g. `"127.0.0.1:0"`), forwarding every accepted
    /// connection to `upstream` through the plan's transport-fault
    /// windows. The fault clock (event `at` offsets, in milliseconds)
    /// starts now.
    ///
    /// # Errors
    /// Propagates socket errors from bind.
    pub fn bind(
        listen: &str,
        upstream: SocketAddr,
        plan: &FaultPlan,
        seed: u64,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream,
            schedule: Schedule::from_plan(plan),
            start: Instant::now(),
            stats: Arc::new(ProxyStats::default()),
            shutdown: AtomicBool::new(false),
            seed,
            pipe_counter: AtomicU64::new(0),
        });
        if tre_obs::is_enabled() {
            for FaultEvent { at, fault } in plan.events() {
                tre_obs::event(
                    "chaos_proxy.scheduled",
                    &format!("at_ms={at} {}", fault_name(fault)),
                );
            }
        }
        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(client) = stream {
                        bridge(&shared, client);
                    }
                }
            })
        };
        Ok(Self {
            addr,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The proxy's listen address — what feeds should dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live proxy counters.
    pub fn stats(&self) -> Arc<ProxyStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Stops accepting, severs the relay pipes, and joins the accept
    /// loop. Established `tred` connections close as their pipes notice
    /// the flag.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

/// Bridges one accepted client connection to the upstream daemon: two
/// pipe threads, one per direction. Faults that mangle payload bytes
/// (`TornFrame`, `CorruptByte`) apply only server→client — the chaos
/// model attacks what receivers *consume*; mangling the client's
/// control frames would just make the daemon drop the connection.
fn bridge(shared: &Arc<ProxyShared>, client: TcpStream) {
    let Ok(upstream) = TcpStream::connect(shared.upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    // The proxy must not add Nagle latency on top of injected faults.
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    let (Ok(client_r), Ok(upstream_r)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let up_id = shared.pipe_counter.fetch_add(1, Ordering::Relaxed);
    let down_id = shared.pipe_counter.fetch_add(1, Ordering::Relaxed);
    {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || pipe(&shared, client_r, upstream, false, up_id));
    }
    {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || pipe(&shared, upstream_r, client, true, down_id));
    }
}

/// Relays `src` → `dst` through the fault schedule until EOF, error,
/// shutdown, or an injected kill. `downstream` marks the server→client
/// direction (the only one whose payload is mangled).
fn pipe(shared: &ProxyShared, mut src: TcpStream, mut dst: TcpStream, downstream: bool, id: u64) {
    use std::io::{Read, Write};
    let _ = src.set_read_timeout(Some(Duration::from_millis(10)));
    let mut rng = StdRng::seed_from_u64(shared.seed ^ (0x9E37_79B9 * (id + 1)));
    let born = shared.now_ms();
    let mut chunk = [0u8; 4096];
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        // Reset events kill connections even while idle.
        if shared.schedule.reset_since(born, shared.now_ms()) {
            shared.stats.resets.fetch_add(1, Ordering::Relaxed);
            if tre_obs::is_enabled() {
                tre_obs::event("chaos_proxy.reset", &format!("pipe={id}"));
            }
            break;
        }
        let n = match src.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let mut data = chunk[..n].to_vec();

        // Partition: hold the bytes until every stall window closes
        // (TCP never drops; it delays).
        let mut stalled = false;
        while let Some(until) = shared.schedule.stalled_until(shared.now_ms()) {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            stalled = true;
            let remaining = until.saturating_sub(shared.now_ms());
            std::thread::sleep(Duration::from_millis(remaining.clamp(1, 10)));
        }
        if stalled {
            shared.stats.stalled_chunks.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(delay) = shared.schedule.delay_at(shared.now_ms()) {
            shared.stats.delayed_chunks.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(delay));
        }
        if downstream && shared.schedule.corrupting(shared.now_ms()) {
            // Flip one bit of one byte: enough to break the signature
            // (or the framing) without desyncing deterministic replays.
            let i = (rng.next_u64() as usize) % data.len();
            let bit = 1u8 << (rng.next_u64() % 8) as u8;
            data[i] ^= bit;
            shared.stats.corrupted_bytes.fetch_add(1, Ordering::Relaxed);
            if tre_obs::is_enabled() {
                tre_obs::event("chaos_proxy.corrupt", &format!("pipe={id} offset={i}"));
            }
        }
        if downstream && shared.schedule.tearing(shared.now_ms()) && data.len() >= 2 {
            // Forward half the chunk, then sever mid-frame.
            let _ = dst.write_all(&data[..data.len() / 2]);
            shared.stats.torn_frames.fetch_add(1, Ordering::Relaxed);
            if tre_obs::is_enabled() {
                tre_obs::event("chaos_proxy.torn", &format!("pipe={id}"));
            }
            break;
        }
        if dst.write_all(&data).is_err() {
            break;
        }
        let counter = if downstream {
            &shared.stats.bytes_down
        } else {
            &shared.stats.bytes_up
        };
        counter.fetch_add(data.len() as u64, Ordering::Relaxed);
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Granularity;
    use crate::feed::Feed;
    use crate::tcp::TcpFeed;
    use tre_core::KeyUpdate;

    #[test]
    fn schedule_windows_resolve_from_plan() {
        let plan = FaultPlan::new()
            .at(
                10,
                Fault::Partition {
                    client: 0,
                    heal_after: 30,
                },
            )
            .at(
                50,
                Fault::LatencySpike {
                    delay_ms: 7,
                    for_ms: 20,
                },
            )
            .at(100, Fault::TornFrame { for_ms: 5 })
            .at(200, Fault::CorruptByte { for_ms: 5 })
            .at(300, Fault::ConnReset)
            // Sim-only faults must not leak into the transport schedule.
            .at(400, Fault::ServerCrash { down_for: 9 });
        let s = Schedule::from_plan(&plan);
        assert_eq!(s.stalled_until(9), None);
        assert_eq!(s.stalled_until(10), Some(40));
        assert_eq!(s.stalled_until(39), Some(40));
        assert_eq!(s.stalled_until(40), None);
        assert_eq!(s.delay_at(49), None);
        assert_eq!(s.delay_at(60), Some(7));
        assert!(s.tearing(100) && !s.tearing(105));
        assert!(s.corrupting(204) && !s.corrupting(205));
        assert!(
            s.reset_since(0, 300),
            "reset fires for conns born before it"
        );
        assert!(!s.reset_since(300, 1000), "born at the instant: not killed");
        assert!(!s.reset_since(0, 299), "not yet fired");
    }

    #[test]
    fn overlapping_stalls_take_the_latest_end() {
        let plan = FaultPlan::new()
            .at(
                0,
                Fault::Partition {
                    client: 0,
                    heal_after: 10,
                },
            )
            .at(
                5,
                Fault::Partition {
                    client: 1,
                    heal_after: 20,
                },
            );
        let s = Schedule::from_plan(&plan);
        assert_eq!(s.stalled_until(6), Some(25));
    }

    /// Clean proxy (empty plan) is a transparent relay: a feed through
    /// it behaves exactly like a direct connection.
    #[test]
    fn transparent_proxy_relays_broadcasts() {
        use crate::clock::SimClock;
        use crate::server::TimeServer;
        use crate::tcp::{Tred, TredConfig};
        use tre_core::ServerKeyPair;

        let curve = tre_pairing::toy64();
        let mut rng = rand::thread_rng();
        let clock = SimClock::new();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let spk = *keys.public();
        let mut server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
        assert_eq!(server.poll().len(), 1, "epoch 0 archived before bind");
        let tred = Tred::bind("127.0.0.1:0", curve, server, TredConfig::default()).unwrap();
        let proxy =
            ChaosProxy::bind("127.0.0.1:0", tred.local_addr(), &FaultPlan::new(), 1).unwrap();

        let mut feed: TcpFeed<8> =
            TcpFeed::new(curve, proxy.local_addr()).with_clock(clock.clone());
        let sub = feed.subscribe();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got: Vec<KeyUpdate<8>> = Vec::new();
        let mut recv_until = |feed: &mut TcpFeed<8>, n: usize| {
            while got.len() < n && feed.is_connected(sub) {
                got.extend(feed.poll(sub).into_iter().map(|(_, u)| u));
                let left = deadline.saturating_duration_since(Instant::now());
                if got.len() >= n || left.is_zero() {
                    break;
                }
                feed.wait_readable(sub, Some(left));
            }
        };
        // The replayed epoch 0 proves the daemon registered the proxied
        // connection, so the next epochs reach it live.
        feed.request_catch_up(sub, 0, 0).unwrap();
        recv_until(&mut feed, 1);
        clock.advance(2);
        recv_until(&mut feed, 3);
        assert_eq!(got.len(), 3, "broadcasts crossed the proxy");
        for u in &got {
            assert!(u.verify(curve, &spk), "nothing mangled in transit");
        }
        let stats = proxy.stats();
        assert_eq!(stats.connections.load(Ordering::Relaxed), 1);
        assert!(stats.bytes_down.load(Ordering::Relaxed) > 0);
        assert_eq!(stats.corrupted_bytes.load(Ordering::Relaxed), 0);
        proxy.shutdown();
        tred.shutdown();
    }
}
