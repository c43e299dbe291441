//! A heavier end-to-end scenario: many epochs, many receivers, mixed
//! schemes, lossy network — the whole stack under sustained load.

use tre::core::fo;
use tre::prelude::*;
use tre::server::{ChaosSim, FaultPlan, NetConfig};

#[test]
fn sustained_mixed_load() {
    let curve = tre::pairing::toy64();
    let mut sim: ChaosSim<'_, 8> =
        ChaosSim::new(curve, Granularity::Seconds, FaultPlan::new(), 1234).with_net(NetConfig {
            base_latency: 1,
            jitter: 2,
            loss_prob: 0.2,
        });
    let clients: Vec<_> = (0..6).map(|_| sim.add_client()).collect();
    // 3 messages per client, spread over epochs 1..=12.
    let mut expected = 0;
    for (i, &c) in clients.iter().enumerate() {
        for j in 0..3u64 {
            let epoch = 1 + ((i as u64) * 3 + j) % 12;
            sim.send_for_epoch(c, epoch, format!("m-{i}-{j}").as_bytes());
            expected += 1;
        }
    }
    // Run 20 ticks; then recover anything the lossy channel dropped.
    let mut opened = sim.run(20);
    opened += sim.catch_up();
    assert_eq!(opened, expected, "every message eventually opens");
    for &c in &clients {
        assert_eq!(sim.client(c).pending_count(), 0);
    }
    // Each message opened exactly once, never before its epoch.
    sim.check_invariants().assert_ok();
}

#[test]
fn many_tags_one_server() {
    // One server issuing many distinct updates; each unlocks exactly its
    // own ciphertext set.
    let curve = tre::pairing::toy64();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let user = UserKeyPair::generate(curve, server.public(), &mut rng);
    let n = 12;
    let cts: Vec<_> = (0..n)
        .map(|i| {
            let tag = ReleaseTag::time(format!("slot-{i}"));
            let ct = Sender::new(curve, server.public(), user.public())
                .unwrap()
                .encrypt(&tag, format!("payload-{i}").as_bytes(), &mut rng);
            (tag, ct)
        })
        .collect();
    let mut session = Receiver::new(curve, *server.public(), user);
    for (i, (tag, ct)) in cts.iter().enumerate() {
        let update = server.issue_update(curve, tag);
        assert_eq!(
            session.open_with(&update, ct).unwrap(),
            format!("payload-{i}").as_bytes()
        );
        // The same update fails on every other slot.
        for (j, (_, other)) in cts.iter().enumerate() {
            if j != i {
                assert!(session.open_with(&update, other).is_err());
            }
        }
    }
}

#[test]
fn fo_bulk_roundtrip_unique_ciphertexts() {
    let curve = tre::pairing::toy64();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let user = UserKeyPair::generate(curve, server.public(), &mut rng);
    let tag = ReleaseTag::time("bulk");
    let update = server.issue_update(curve, &tag);
    let mut seen = std::collections::HashSet::new();
    for i in 0..10 {
        let msg = format!("bulk message {i}");
        let ct = fo::encrypt(
            curve,
            server.public(),
            user.public(),
            &tag,
            msg.as_bytes(),
            &mut rng,
        )
        .unwrap();
        assert!(
            seen.insert(ct.wire_bytes(curve)),
            "ciphertexts must be unique"
        );
        assert_eq!(
            fo::decrypt(curve, server.public(), &user, &update, &ct).unwrap(),
            msg.as_bytes()
        );
    }
}
