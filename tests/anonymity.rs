//! User anonymity (§3): the server's entire observable behaviour is
//! independent of who — and how many — users exist. "The server would not
//! even be aware of the existence of a sender or receiver."

use tre::prelude::*;
use tre::server::{ChaosSim, FaultPlan};

/// Runs a world with `n_users` receivers all exchanging messages, and
/// returns the server's complete observable transcript: every byte it
/// emitted, in order.
fn server_transcript(n_users: usize, seed: u64) -> (Vec<Vec<u8>>, u64) {
    let curve = tre::pairing::toy64();
    let mut rng = rand::thread_rng();
    let clock = SimClock::new();
    // Fixed server key so the transcript is comparable across runs.
    let keys =
        ServerKeyPair::from_secret(curve, curve.generator(), tre::bigint::U256::from_u64(seed));
    let mut server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);

    // User activity happens entirely off to the side.
    let users: Vec<_> = (0..n_users)
        .map(|_| UserKeyPair::generate(curve, server.public_key(), &mut rng))
        .collect();
    let tag = server.tag_for_epoch(2);
    let _cts: Vec<_> = users
        .iter()
        .map(|u| {
            Sender::new(curve, server.public_key(), u.public())
                .unwrap()
                .encrypt(&tag, b"m", &mut rng)
        })
        .collect();

    // The server's life: tick, sign, broadcast. Record everything it says.
    let mut transcript = Vec::new();
    for _ in 0..5 {
        clock.advance(1);
        for update in server.poll() {
            transcript.push(update.wire_bytes(curve));
        }
    }
    (transcript, server.broadcast_count())
}

#[test]
fn server_transcript_is_user_independent() {
    let (t0, c0) = server_transcript(0, 42);
    let (t1, c1) = server_transcript(1, 42);
    let (t100, c100) = server_transcript(100, 42);
    assert_eq!(t0, t1, "0 users vs 1 user: identical server output");
    assert_eq!(t1, t100, "1 user vs 100 users: identical server output");
    assert_eq!(c0, c1);
    assert_eq!(c1, c100);
    assert!(!t0.is_empty());
}

#[test]
fn updates_carry_no_receiver_information() {
    // The update an eavesdropper sees depends only on (server key, tag) —
    // re-deriving it with no users in the world produces the same bytes.
    let curve = tre::pairing::toy64();
    let server =
        ServerKeyPair::from_secret(curve, curve.generator(), tre::bigint::U256::from_u64(777));
    let tag = ReleaseTag::time("2026-07-04T12:00:00Z");
    let with_users = {
        let mut rng = rand::thread_rng();
        let _alice = UserKeyPair::generate(curve, server.public(), &mut rng);
        server.issue_update(curve, &tag).wire_bytes(curve)
    };
    let without_users = server.issue_update(curve, &tag).wire_bytes(curve);
    assert_eq!(with_users, without_users);
}

#[test]
fn broadcast_volume_constant_under_population_growth() {
    // The network-level counterpart, via the simulation stats.
    let curve = tre::pairing::toy64();
    let mut volumes = Vec::new();
    for n in [1usize, 10, 50] {
        let mut sim: ChaosSim<'_, 8> =
            ChaosSim::new(curve, Granularity::Seconds, FaultPlan::new(), 5);
        for _ in 0..n {
            sim.add_client();
        }
        sim.run(4);
        volumes.push(sim.net_stats().broadcast_bytes);
    }
    assert_eq!(volumes[0], volumes[1]);
    assert_eq!(volumes[1], volumes[2]);
}
