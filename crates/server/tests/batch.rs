//! Adversarial and cost-accounting tests for the batched verification
//! pipeline (experiment E15's correctness side):
//!
//! 1. a single forged update hidden in a burst of 64 is isolated by
//!    bisection — the other 63 are admitted, and the whole hunt costs a
//!    fraction of 64 individual verifications;
//! 2. equivocating duplicate tags are rejected *before* batching, so no
//!    conflicting pair ever reaches the linear combination;
//! 3. the hermetic counter guard: catching up on 64 archived updates
//!    spends at most 4 verification pairings (the sequential path spends
//!    128), 128 scalar multiplications and at most
//!    [`BURST_64_FP_MUL_CEILING`] `F_p` multiplications.

use tre_core::{KeyUpdate, ReleaseTag, Sender, ServerKeyPair, UserKeyPair};
use tre_pairing::toy64;
use tre_server::{Granularity, ReceiverClient, SimClock, TimeServer, UpdateOutcome};

/// `F_p` multiplications a 64-update burst verify may spend: the
/// measured ~34,000 of the multi-scalar combine plus 15% headroom; a
/// per-term combine spends ~104,000. E15 asserts the same ceiling on its
/// 64-update row.
const BURST_64_FP_MUL_CEILING: u64 = 39_000;

fn forged(tag: &ReleaseTag) -> KeyUpdate<8> {
    let curve = toy64();
    let mut rng = rand::thread_rng();
    KeyUpdate::from_parts(
        tag.clone(),
        curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut rng)),
    )
}

#[test]
fn single_forgery_in_burst_of_64_is_isolated() {
    let curve = toy64();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let user = UserKeyPair::generate(curve, server.public(), &mut rng);
    let mut client = ReceiverClient::new(curve, *server.public(), user);
    let mut updates: Vec<KeyUpdate<8>> = (0..64)
        .map(|i| server.issue_update(curve, &ReleaseTag::time(format!("epoch/s/{i}"))))
        .collect();
    updates[37] = forged(updates[37].tag());

    tre_obs::enable();
    let report = client.receive_updates(&updates, 5);
    let trace = tre_obs::finish();

    assert_eq!(report.accepted, 63);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.outcomes[37], UpdateOutcome::Invalid);
    assert_eq!(client.health().accepted_updates, 63);
    assert_eq!(client.health().rejected_updates, 1);
    // The forged tag was not admitted: a replacement authentic update for
    // it is still fresh (accepted), not a duplicate.
    let real = server.issue_update(curve, &ReleaseTag::time("epoch/s/37"));
    assert_eq!(client.receive_update(real, 6), Ok(0));

    // Bisection cost: ~2·log2(64) batch checks of 2 lanes each — far
    // below the 128 pairings of one-by-one verification.
    let span = &trace.spans_named("client.batch_verify")[0];
    assert!(
        span.ops.pairings <= 30,
        "isolation spent {} pairings; expected ~26",
        span.ops.pairings
    );
}

#[test]
fn equivocating_duplicate_tags_rejected_before_batching() {
    let curve = toy64();
    let mut rng = rand::thread_rng();
    let server = ServerKeyPair::generate(curve, &mut rng);
    let user = UserKeyPair::generate(curve, server.public(), &mut rng);
    let mut client = ReceiverClient::new(curve, *server.public(), user);

    let contested = ReleaseTag::time("epoch/s/3");
    let authentic = server.issue_update(curve, &contested);
    let clean: Vec<KeyUpdate<8>> = (10..14)
        .map(|i| server.issue_update(curve, &ReleaseTag::time(format!("epoch/s/{i}"))))
        .collect();
    // Burst: the authentic update for the contested tag, four clean ones,
    // then a conflicting signature for the contested tag.
    let mut burst = vec![authentic.clone()];
    burst.extend(clean);
    burst.push(forged(&contested));

    tre_obs::enable();
    let report = client.receive_updates(&burst, 1);
    let trace = tre_obs::finish();

    // Both copies of the contested tag are equivocation evidence; neither
    // is trusted, even though one would verify.
    assert_eq!(report.outcomes[0], UpdateOutcome::Equivocation);
    assert_eq!(report.outcomes[5], UpdateOutcome::Equivocation);
    assert_eq!(report.equivocations, 2);
    assert_eq!(report.accepted, 4);
    assert_eq!(client.health().equivocations, 2);
    // The contested tag never entered the dedup cache…
    let replay = client.receive_update(authentic, 2);
    assert_eq!(replay, Ok(0), "authentic update is still fresh afterwards");
    // …and the batch check itself only covered the four clean updates:
    // one clean batch, two pairing lanes, no bisection.
    assert_eq!(trace.spans_named("client.batch_verify")[0].ops.pairings, 2);
}

#[test]
fn catch_up_over_64_archived_updates_spends_at_most_4_verification_pairings() {
    let curve = toy64();
    let mut rng = rand::thread_rng();
    let clock = SimClock::new();
    let skeys = ServerKeyPair::generate(curve, &mut rng);
    let spk = *skeys.public();
    let mut server = TimeServer::new(curve, skeys, clock.clone(), Granularity::Seconds);
    let ukeys = UserKeyPair::generate(curve, &spk, &mut rng);
    let mut client = ReceiverClient::new(curve, spk, ukeys);

    // 64 ciphertexts across 64 distinct epochs, all missed on air.
    for epoch in 1..=64u64 {
        let tag = server.tag_for_epoch(epoch);
        let ct = Sender::new(curve, &spk, client.public_key())
            .unwrap()
            .encrypt(&tag, format!("m{epoch}").as_bytes(), &mut rng);
        client.receive_ciphertext(ct, 0);
    }
    clock.advance(70);
    server.poll(); // archive now holds every missed epoch
    let g = server.granularity();

    tre_obs::enable();
    let opened = client.catch_up(server.archive(), clock.now(), |t| g.epoch_of_tag(t));
    let trace = tre_obs::finish();

    assert_eq!(opened, 64, "every backlog message opened in one call");
    assert_eq!(client.health().recovered_from_archive, 64);

    // The guard: verification cost is bounded by the batch, not by N.
    let spans = trace.spans_named("client.batch_verify");
    let verify_pairings: u64 = spans.iter().map(|s| s.ops.pairings).sum();
    assert!(
        verify_pairings <= 4,
        "batched catch-up spent {verify_pairings} verification pairings (sequential spends 128)"
    );
    // The combine is one multi-scalar multiplication per side, counted as
    // one scalar multiplication per term: 2 × 64.
    let scalar_mults: u64 = spans.iter().map(|s| s.ops.scalar_mults).sum();
    assert_eq!(
        scalar_mults, 128,
        "one scalar multiplication per term per side"
    );
    let fp_muls: u64 = spans.iter().map(|s| s.ops.fp_muls).sum();
    assert!(
        fp_muls <= BURST_64_FP_MUL_CEILING,
        "batched catch-up spent {fp_muls} F_p multiplications (ceiling {BURST_64_FP_MUL_CEILING})"
    );
    assert!(
        trace.spans_named("tre.verify").is_empty(),
        "no update was verified individually"
    );
    // Decryption is the only per-message pairing cost: one each.
    let trusted = trace.spans_named("tre.decrypt_trusted");
    assert_eq!(trusted.len(), 64);
    assert!(trusted.iter().all(|s| s.ops.pairings == 1));
    assert_eq!(
        trace.total_ops().pairings,
        verify_pairings + 64,
        "total = batch verification + one decrypt pairing per message"
    );
}
