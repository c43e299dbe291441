//! Relay-tree integration: a 2-level tree (root `tred` → two relays →
//! client), with one relay killed mid-run. The client's supervised
//! feed must fail over to the surviving relay and repair any gap via
//! catch-up — no missed epochs — and the telemetry trailers must carry
//! monotone hop counts: everything the client sees crossed at least
//! one relay (hops ≥ 1), live deliveries are exactly one hop down,
//! and archive replays are stamped above the live path.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use tre_core::ServerKeyPair;
use tre_pairing::toy64;
use tre_server::{
    feed, Feed, Granularity, Relay, RelayConfig, SimClock, Stage, SupervisorConfig, TimeServer,
    TraceSink, Tred, TredConfig,
};

const DEADLINE: Duration = Duration::from_secs(20);

fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + DEADLINE;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(3));
    }
    false
}

#[test]
fn client_survives_relay_death_with_no_missed_epochs() {
    let curve = toy64();
    let mut rng = rand::thread_rng();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let root_pk = *keys.public();
    let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
    let tred = Tred::bind_traced(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig {
            shards: 1,
            ..TredConfig::default()
        },
        TraceSink::new(),
    )
    .unwrap();

    let bind_relay = || {
        let upstream = feed::tcp::<8>(curve, tred.local_addr())
            .supervised(Granularity::Seconds, SupervisorConfig::default(), 21)
            .catch_up_from(0)
            .build();
        Relay::bind(
            "127.0.0.1:0",
            curve,
            root_pk,
            upstream,
            RelayConfig {
                shards: 1,
                ..RelayConfig::default()
            },
        )
        .unwrap()
    };
    let relay_a = bind_relay();
    let relay_b = bind_relay();

    // Both relays finish cold start (epoch 0 backfilled and verified)
    // before the clock moves, so later epochs cross them live.
    assert!(
        wait_until(|| {
            relay_a.stats().epochs_relayed.load(Ordering::Relaxed) >= 1
                && relay_b.stats().epochs_relayed.load(Ordering::Relaxed) >= 1
        }),
        "both relays cold-started"
    );

    // The client speaks to relay A, with relay B as dial fallback, and
    // backfills from epoch 0 so the pre-subscription epoch arrives too.
    let mut client = feed::tcp::<8>(curve, relay_a.local_addr())
        .fallback(relay_b.local_addr())
        .supervised(Granularity::Seconds, SupervisorConfig::default(), 22)
        .catch_up_from(0)
        .build();
    let sub = Feed::subscribe(&mut client);
    assert!(
        wait_until(|| relay_a.subscriber_count() >= 1),
        "client reached relay A"
    );

    let mut seen: BTreeSet<u64> = BTreeSet::new();
    fn drain(
        client: &mut tre_server::SupervisedFeed<8>,
        sub: tre_server::SubscriberId,
        root_pk: &tre_core::ServerPublicKey<8>,
        seen: &mut BTreeSet<u64>,
    ) {
        let curve = toy64();
        for (_, update) in Feed::poll(client, sub) {
            assert!(
                update.verify(curve, root_pk),
                "root key verifies end-to-end"
            );
            if let Some(epoch) = Granularity::Seconds.epoch_of_tag(update.tag()) {
                seen.insert(epoch);
            }
        }
    }

    // The client's open-ended cold-start catch-up replays everything
    // relay A holds when it is served. Wait until it has delivered
    // epoch 0 before publishing more, or epoch 1 could ride in that
    // replay (hops 2) instead of crossing live.
    assert!(
        wait_until(|| {
            drain(&mut client, sub, &root_pk, &mut seen);
            seen.contains(&0)
        }),
        "cold-start catch-up delivered epoch 0 (got {seen:?})"
    );

    // Epochs 1–2 cross relay A live.
    clock.advance(2);
    assert!(
        wait_until(|| {
            drain(&mut client, sub, &root_pk, &mut seen);
            (0..=2).all(|e| seen.contains(&e))
        }),
        "epochs 0..=2 delivered via relay A (got {seen:?})"
    );
    for epoch in [1u64, 2] {
        let trace = client.trace_for(epoch).expect("live trailer decoded");
        assert_eq!(trace.hops, 1, "epoch {epoch} arrived live, one hop down");
    }

    // Kill relay A mid-run. Epochs 3–4 are published while the client
    // is dangling on a dead socket; supervision must rotate the dial to
    // relay B and catch up whatever was missed.
    let serve_a = relay_a.serve_stats();
    relay_a.shutdown();
    clock.advance(2);
    assert!(
        wait_until(|| {
            drain(&mut client, sub, &root_pk, &mut seen);
            (0..=4).all(|e| seen.contains(&e))
        }),
        "no missed epochs across the failover (got {seen:?})"
    );
    assert!(
        wait_until(|| relay_b.subscriber_count() >= 1),
        "client failed over to relay B"
    );

    // Monotone hop counts: everything crossed at least one relay; a
    // catch-up replay is stamped above the relay's live broadcast
    // (live = 1; replay of a live-received epoch = 2; replay of a
    // cold-started epoch = 3). Nothing claims to be the root's own
    // zero-hop broadcast.
    for epoch in 0..=4u64 {
        let trace = client
            .trace_for(epoch)
            .unwrap_or_else(|| panic!("epoch {epoch} trailer decoded"));
        assert!(
            (1..=3).contains(&trace.hops),
            "epoch {epoch}: hops {} within the 2-level tree bounds",
            trace.hops
        );
    }

    // Epochs published after the kill were verified and re-served by
    // the survivor — and the dead relay never saw them.
    let b = relay_b.stats();
    assert!(b.epochs_relayed.load(Ordering::Relaxed) >= 5);
    assert_eq!(b.updates_rejected.load(Ordering::Relaxed), 0);

    let serve_b = relay_b.serve_stats();
    let root = tred.stats();
    relay_b.shutdown();
    tred.shutdown();

    // Every shard slept until a command or a ready socket woke it: no
    // poll(2) return on the root or either relay found nothing to do.
    // And with every queue resolved at shutdown, each daemon's delivery
    // conservation identity balances.
    for (name, stats) in [
        ("root", &root),
        ("relay A", &serve_a),
        ("relay B", &serve_b),
    ] {
        assert_eq!(
            stats.idle_wakeups.load(Ordering::Relaxed),
            0,
            "{name}: shard woke with no work"
        );
        assert_eq!(stats.in_flight(), 0, "{name}: every offer resolved");
    }
}

/// Reads `feed` until `epoch` arrives, asking for it by catch-up first:
/// a replay answers if the daemon already holds the epoch, and the live
/// broadcast does otherwise (the request is read only after the daemon
/// registered the subscriber). Blocks on the socket, never on a timer.
fn await_epoch(feed: &mut tre_server::TcpFeed<8>, sub: tre_server::SubscriberId, epoch: u64) {
    feed.request_catch_up(sub, epoch, epoch)
        .expect("catch-up request");
    loop {
        let got = Feed::poll(feed, sub);
        if got
            .iter()
            .any(|(_, u)| Granularity::Seconds.epoch_of_tag(u.tag()) == Some(epoch))
        {
            return;
        }
        assert!(
            feed.wait_readable(sub, Some(DEADLINE)),
            "epoch {epoch} never reached the subscriber"
        );
    }
}

/// Stage stamps are monotone across the tree: the root stamps
/// `Broadcast` before it hands the frame to its shards, so no relay can
/// read an epoch's first byte before the root's broadcast stamp. The
/// rig runs in one process (one `now_ns` anchor), steps a `SimClock`,
/// and waits only on sockets.
#[test]
fn root_broadcast_stamp_precedes_relay_first_byte() {
    const EPOCHS: u64 = 12;
    let curve = toy64();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut rand::thread_rng());
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
        root_sink.clone(),
    )
    .unwrap();
    let upstream = feed::tcp::<8>(curve, tred.local_addr())
        .supervised(Granularity::Seconds, SupervisorConfig::default(), 31)
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
    let mut client = tre_server::TcpFeed::<8>::new(curve, relay.local_addr());
    let sub = Feed::subscribe(&mut client);
    // Epoch 0 through the relay means its cold start is over, so every
    // later epoch crosses both hops live.
    await_epoch(&mut client, sub, 0);
    for epoch in 1..=EPOCHS {
        clock.advance(1);
        await_epoch(&mut client, sub, epoch);
    }

    let relay_sink = relay.trace_sink();
    let stamp = |sink: &TraceSink, epoch: u64, stage: Stage| {
        let i = Stage::ALL.iter().position(|s| *s == stage).unwrap();
        sink.epoch_trace(epoch)
            .and_then(|t| t.stamps[i])
            .unwrap_or_else(|| panic!("epoch {epoch}: no {} stamp", stage.name()))
    };
    for epoch in 1..=EPOCHS {
        let publish = stamp(&root_sink, epoch, Stage::Publish);
        let fsync = stamp(&root_sink, epoch, Stage::JournalFsync);
        let broadcast = stamp(&root_sink, epoch, Stage::Broadcast);
        let first_byte = stamp(&relay_sink, epoch, Stage::FirstByte);
        assert!(
            publish <= fsync && fsync <= broadcast,
            "epoch {epoch}: root stamps out of order"
        );
        assert!(
            broadcast <= first_byte,
            "epoch {epoch}: relay read its first byte {} ns before the root's broadcast stamp",
            broadcast - first_byte
        );
        assert!(
            first_byte <= stamp(&relay_sink, epoch, Stage::Broadcast),
            "epoch {epoch}: relay broadcast stamped before its first byte"
        );
    }
    relay.shutdown();
    tred.shutdown();
}
