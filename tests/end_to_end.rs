//! End-to-end integration tests spanning the whole stack: pairing →
//! schemes → server runtime → network simulation.

use tre::core::{fo, hybrid, react};
use tre::prelude::*;
use tre::server::{ChaosSim, FaultPlan, NetConfig};

type Curve8 = &'static tre::pairing::CurveToy64;

fn curve() -> Curve8 {
    tre::pairing::toy64()
}

#[test]
fn all_four_schemes_roundtrip_same_setup() {
    let curve = curve();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let user = UserKeyPair::generate(curve, server.public(), &mut rng);
    let tag = ReleaseTag::time("t");
    let update = server.issue_update(curve, &tag);
    let msg = b"the same message through four pipelines";

    let ct = Sender::new(curve, server.public(), user.public())
        .unwrap()
        .encrypt(&tag, msg, &mut rng);
    assert_eq!(
        Receiver::new(curve, *server.public(), user.clone())
            .open_with(&update, &ct)
            .unwrap(),
        msg
    );

    let ct = fo::encrypt(curve, server.public(), user.public(), &tag, msg, &mut rng).unwrap();
    assert_eq!(
        fo::decrypt(curve, server.public(), &user, &update, &ct).unwrap(),
        msg
    );

    let ct = react::encrypt(curve, server.public(), user.public(), &tag, msg, &mut rng).unwrap();
    assert_eq!(
        react::decrypt(curve, server.public(), &user, &update, &ct).unwrap(),
        msg
    );

    let ct = hybrid::encrypt(curve, server.public(), user.public(), &tag, msg, &mut rng).unwrap();
    assert_eq!(
        hybrid::decrypt(curve, server.public(), &user, &update, &ct).unwrap(),
        msg
    );
}

#[test]
fn full_simulation_with_lossy_network_and_archive_recovery() {
    let curve = curve();
    // Heavy loss: 40% of deliveries drop.
    let lossy = NetConfig {
        base_latency: 1,
        jitter: 1,
        loss_prob: 0.4,
    };
    let mut sim: ChaosSim<'_, 8> =
        ChaosSim::new(curve, Granularity::Seconds, FaultPlan::new(), 101).with_net(lossy);
    let n_clients = 4;
    // Each client gets a message locked to epoch 3.
    for i in 0..n_clients {
        sim.add_client();
        sim.send_for_epoch(i, 3, format!("payload-{i}").as_bytes());
    }

    // Run 8 ticks of simulation.
    sim.run(8);
    assert!(sim.net_stats().lost > 0, "the channel dropped copies");

    // Under this seed some clients lost the epoch-3 broadcast; everyone
    // catches up from the public archive.
    let pending = (0..n_clients)
        .filter(|&i| sim.client(i).pending_count() > 0)
        .count();
    assert!(pending > 0, "the archive path is exercised");
    let recovered = sim.catch_up();
    assert_eq!(recovered, pending, "archive recovery must succeed");
    sim.check_invariants().assert_ok();
    let tag = Granularity::Seconds.tag_for_epoch(3);
    for i in 0..n_clients {
        let c = sim.client(i);
        assert_eq!(c.pending_count(), 0);
        let m = c.opened().iter().find(|m| m.tag == tag).unwrap();
        assert_eq!(m.plaintext, format!("payload-{i}").as_bytes());
        assert!(m.opened_at >= 3, "never opened before release");
    }
}

#[test]
fn sender_needs_no_server_state_for_far_future_tags() {
    // The anti-Rivest-offline property: any tag, arbitrarily far out,
    // without the server publishing anything in advance.
    let curve = curve();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let user = UserKeyPair::generate(curve, server.public(), &mut rng);
    let far = ReleaseTag::time("9999-12-31T23:59:59Z");
    let ct = Sender::new(curve, server.public(), user.public())
        .unwrap()
        .encrypt(&far, b"time capsule", &mut rng);
    // Centuries later the server (same key) signs that instant.
    let update = server.issue_update(curve, &far);
    assert_eq!(
        Receiver::new(curve, *server.public(), user)
            .open_with(&update, &ct)
            .unwrap(),
        b"time capsule"
    );
}

#[test]
fn one_update_many_receivers() {
    // The headline scalability property (§5.3.1): a single update object
    // serves every receiver.
    let curve = curve();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let tag = ReleaseTag::time("t");
    let users: Vec<_> = (0..8)
        .map(|_| UserKeyPair::generate(curve, server.public(), &mut rng))
        .collect();
    let cts: Vec<_> = users
        .iter()
        .enumerate()
        .map(|(i, u)| {
            Sender::new(curve, server.public(), u.public())
                .unwrap()
                .encrypt(&tag, format!("m{i}").as_bytes(), &mut rng)
        })
        .collect();
    let update = server.issue_update(curve, &tag); // exactly one
    for (i, (u, ct)) in users.iter().zip(&cts).enumerate() {
        assert_eq!(
            Receiver::new(curve, *server.public(), u.clone())
                .open_with(&update, ct)
                .unwrap(),
            format!("m{i}").as_bytes()
        );
    }
}

#[test]
fn wire_format_survives_serialization_across_components() {
    // Sender and receiver only ever exchange bytes.
    let curve = curve();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let user = UserKeyPair::generate(curve, server.public(), &mut rng);

    // Receiver publishes its key as framed wire bytes; the sender parses
    // and validates it.
    let pk_bytes = user.public().wire_bytes(curve);
    let parsed_pk = UserPublicKey::wire_read(curve, &mut &pk_bytes[..]).unwrap();
    parsed_pk.validate(curve, server.public()).unwrap();

    let tag = ReleaseTag::time("t");
    let ct = fo::encrypt(curve, server.public(), &parsed_pk, &tag, b"wire", &mut rng).unwrap();
    let ct_bytes = ct.wire_bytes(curve);

    // Update also travels as framed bytes.
    let update_bytes = server.issue_update(curve, &tag).wire_bytes(curve);
    let update = KeyUpdate::wire_read(curve, &mut &update_bytes[..]).unwrap();
    assert!(update.verify(curve, server.public()));

    let ct2 = tre::core::fo::FoCiphertext::wire_read(curve, &mut &ct_bytes[..]).unwrap();
    assert_eq!(
        fo::decrypt(curve, server.public(), &user, &update, &ct2).unwrap(),
        b"wire"
    );
}

#[test]
fn id_tre_and_tre_coexist_on_one_server() {
    // The same server key serves both the ID-based and the non-ID scheme
    // (§5.2 notes they can be the same entity).
    let curve = curve();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let tag = ReleaseTag::time("t");
    let update = server.issue_update(curve, &tag);

    let user = UserKeyPair::generate(curve, server.public(), &mut rng);
    let ct1 = Sender::new(curve, server.public(), user.public())
        .unwrap()
        .encrypt(&tag, b"pk", &mut rng);
    assert_eq!(
        Receiver::new(curve, *server.public(), user)
            .open_with(&update, &ct1)
            .unwrap(),
        b"pk"
    );

    let id_key = tre::core::idtre::IdentityKey::new(server.extract_identity_key(curve, b"alice"));
    let ct2 = tre::core::idtre::encrypt(curve, server.public(), b"alice", &tag, b"id", &mut rng);
    assert_eq!(
        tre::core::idtre::decrypt(curve, server.public(), &id_key, &update, &ct2).unwrap(),
        b"id"
    );
}
