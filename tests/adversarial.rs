//! Adversarial integration tests: every cheating strategy the paper's
//! security sketch (§5.1) discusses, plus systematic mauling.

use tre::core::fo;
use tre::prelude::*;

fn curve() -> &'static tre::pairing::CurveToy64 {
    tre::pairing::toy64()
}

struct World {
    server: ServerKeyPair<8>,
    alice: UserKeyPair<8>,
}

fn world() -> World {
    let curve = curve();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let alice = UserKeyPair::generate(curve, server.public(), &mut rng);
    World { server, alice }
}

#[test]
fn receiver_cannot_decrypt_before_release() {
    // The cheating receiver holds: her own secret a, the server public key,
    // the ciphertext, and updates for *other* times. None of it suffices.
    let curve = curve();
    let mut rng = rand::thread_rng();
    let w = world();
    let target = ReleaseTag::time("secret-release-time");
    let msg = b"premature access forbidden";
    let ct = Sender::new(curve, w.server.public(), w.alice.public())
        .unwrap()
        .encrypt(&target, msg, &mut rng);

    // Strategy 1: harvest updates for many other times and try each.
    for i in 0..10 {
        let other = w
            .server
            .issue_update(curve, &ReleaseTag::time(format!("other-{i}")));
        // Structurally blocked (tag mismatch)...
        let mut session = Receiver::new(curve, *w.server.public(), w.alice.clone());
        assert!(session.open_with(&other, &ct).is_err());
        // ...and cryptographically: force-feeding the foreign signature
        // point under the right tag fails verification, never unmasking.
        let relabeled = KeyUpdate::from_parts(target.clone(), *other.sig());
        assert!(session.open_with(&relabeled, &ct).is_err());
        // Even bypassing all checks and pairing directly:
        let k = curve
            .pairing(ct.u(), other.sig())
            .pow(w.alice.secret_scalar(), curve);
        let mask = curve.gt_kdf(&k, b"tre/basic/mask", msg.len());
        let attempt: Vec<u8> = ct.v().iter().zip(&mask).map(|(c, m)| c ^ m).collect();
        assert_ne!(attempt, msg, "foreign update {i} must not unmask");
    }

    // Strategy 2: use combinations — sum of two update signatures.
    let u1 = w.server.issue_update(curve, &ReleaseTag::time("a"));
    let u2 = w.server.issue_update(curve, &ReleaseTag::time("b"));
    let combined = curve.g1_add(u1.sig(), u2.sig());
    let k = curve
        .pairing(ct.u(), &combined)
        .pow(w.alice.secret_scalar(), curve);
    let mask = curve.gt_kdf(&k, b"tre/basic/mask", msg.len());
    let attempt: Vec<u8> = ct.v().iter().zip(&mask).map(|(c, m)| c ^ m).collect();
    assert_ne!(attempt, msg);
}

#[test]
fn curious_server_cannot_read_user_traffic() {
    // §3 "highest possible privacy": the server knows s and every update,
    // but not a. Its best effort produces garbage.
    let curve = curve();
    let mut rng = rand::thread_rng();
    let w = world();
    let tag = ReleaseTag::time("t");
    let msg = b"none of the server's business";
    let ct = Sender::new(curve, w.server.public(), w.alice.public())
        .unwrap()
        .encrypt(&tag, msg, &mut rng);
    let update = w.server.issue_update(curve, &tag);

    // The server can compute ê(U, I_T) and even ê(U, I_T)^s — neither is
    // ê(U, I_T)^a.
    for k in [
        curve.pairing(ct.u(), update.sig()),
        curve
            .pairing(ct.u(), update.sig())
            .pow(w.server.secret_scalar(), curve),
        // It can also pair against the user's public points:
        curve.pairing(w.alice.public().a_s_g(), update.sig()),
        curve.pairing(w.alice.public().a_g(), update.sig()),
    ] {
        let mask = curve.gt_kdf(&k, b"tre/basic/mask", msg.len());
        let attempt: Vec<u8> = ct.v().iter().zip(&mask).map(|(c, m)| c ^ m).collect();
        assert_ne!(attempt, msg);
    }
}

#[test]
fn update_forgery_attempts_all_fail() {
    let curve = curve();
    let mut rng = rand::thread_rng();
    let w = world();
    let tag = ReleaseTag::time("target");
    let h_target = curve.hash_to_g1(tag.h1_domain(), tag.value());

    // Random points, scalar multiples of H1(T) by guessed scalars, scaled
    // versions of real updates for other tags — every forgery fails the
    // self-authentication pairing check.
    let other_update = w.server.issue_update(curve, &ReleaseTag::time("other"));
    let candidates = vec![
        curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
        curve.g1_mul(&h_target, &curve.random_scalar(&mut rng)),
        curve.g1_mul(other_update.sig(), &curve.random_scalar(&mut rng)),
        curve.g1_add(other_update.sig(), &h_target),
        tre::pairing::G1Affine::infinity(curve.fp()),
    ];
    for (i, sig) in candidates.into_iter().enumerate() {
        let forged = KeyUpdate::from_parts(tag.clone(), sig);
        assert!(
            !forged.verify(curve, w.server.public()),
            "forgery {i} accepted"
        );
    }
    // And the genuine one passes.
    assert!(w
        .server
        .issue_update(curve, &tag)
        .verify(curve, w.server.public()));
}

#[test]
fn malformed_user_keys_rejected_at_encryption() {
    let curve = curve();
    let mut rng = rand::thread_rng();
    let w = world();
    let g = w.server.public().g();
    let a = curve.random_scalar(&mut rng);
    let b = curve.random_scalar(&mut rng);
    // A rogue receiver tries to publish a key that doesn't bind to the
    // server (so she could decrypt without any update).
    let tries = vec![
        // (aG, bG): second component not a·sG.
        (curve.g1_mul(g, &a), curve.g1_mul(g, &b)),
        // (aG, aG): reuses the first component.
        (curve.g1_mul(g, &a), curve.g1_mul(g, &a)),
        // (∞, a·sG) and (aG, ∞): degenerate points.
        (
            tre::pairing::G1Affine::infinity(curve.fp()),
            curve.g1_mul(w.server.public().s_g(), &a),
        ),
        (
            curve.g1_mul(g, &a),
            tre::pairing::G1Affine::infinity(curve.fp()),
        ),
    ];
    for (i, (a_g, a_s_g)) in tries.into_iter().enumerate() {
        // Subgroup points all: assembly accepts them, the pairing check
        // must not.
        let pk = UserPublicKey::from_points(curve, a_g, a_s_g).unwrap();
        // `Sender::new` front-loads the key validation, so the rogue key
        // is rejected before any message is ever encrypted to it.
        let r = Sender::new(curve, w.server.public(), &pk).err();
        assert_eq!(r, Some(TreError::InvalidUserKey), "bad key {i} accepted");
    }
}

#[test]
fn fo_ciphertext_systematic_mauling() {
    // Flip a sample of byte positions through the serialized CCA
    // ciphertext; all must be rejected.
    let curve = curve();
    let mut rng = rand::thread_rng();
    let w = world();
    let tag = ReleaseTag::time("t");
    let ct = fo::encrypt(
        curve,
        w.server.public(),
        w.alice.public(),
        &tag,
        b"target",
        &mut rng,
    )
    .unwrap();
    let update = w.server.issue_update(curve, &tag);
    let mut bytes = Vec::new();
    ct.write_body(curve, &mut bytes);
    for i in (0..bytes.len()).step_by(5) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        if let Ok(parsed) = tre::core::fo::FoCiphertext::read_body(curve, &bad) {
            assert!(
                fo::decrypt(curve, w.server.public(), &w.alice, &update, &parsed).is_err(),
                "mauled byte {i} accepted"
            );
        }
    }
}

#[test]
fn replayed_ciphertext_across_users_fails() {
    // A ciphertext for Alice re-targeted at Bob (same tag, same server)
    // cannot be opened by Bob.
    let curve = curve();
    let mut rng = rand::thread_rng();
    let w = world();
    let bob = UserKeyPair::generate(curve, w.server.public(), &mut rng);
    let tag = ReleaseTag::time("t");
    let ct = fo::encrypt(
        curve,
        w.server.public(),
        w.alice.public(),
        &tag,
        b"for alice",
        &mut rng,
    )
    .unwrap();
    let update = w.server.issue_update(curve, &tag);
    assert_eq!(
        fo::decrypt(curve, w.server.public(), &bob, &update, &ct),
        Err(TreError::DecryptionFailed)
    );
}

#[test]
fn cross_server_updates_are_useless() {
    // An update from a *different* time server (e.g. a malicious one the
    // attacker controls) neither verifies nor decrypts.
    let curve = curve();
    let mut rng = rand::thread_rng();
    let w = world();
    let evil_server = ServerKeyPair::generate(curve, &mut rng);
    let tag = ReleaseTag::time("t");
    let msg = b"bound to the honest server";
    let ct = Sender::new(curve, w.server.public(), w.alice.public())
        .unwrap()
        .encrypt(&tag, msg, &mut rng);
    let evil_update = evil_server.issue_update(curve, &tag);
    assert!(!evil_update.verify(curve, w.server.public()));
    assert_eq!(
        Receiver::new(curve, *w.server.public(), w.alice.clone()).open_with(&evil_update, &ct),
        Err(TreError::InvalidUpdate)
    );
}
