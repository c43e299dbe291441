//! E15 bench: batched verification and the parallel crypto pipeline on
//! the broadcast hot path.
//!
//! Measures the small-exponent batch BLS check against one-by-one
//! verification across burst sizes, bulk decryption against a decrypt
//! loop, and the precomputed sender path against the plain one. The
//! E15 record (`target/e15/e15.json`) comes from `tables --exp e15`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tre_bench::{rng, Fixture};
use tre_core::{KeyUpdate, Receiver, ReleaseTag, Sender};
use tre_pairing::toy64;

fn updates(fx: &Fixture<8>, n: usize) -> Vec<KeyUpdate<8>> {
    let curve = toy64();
    (0..n)
        .map(|i| {
            fx.server
                .issue_update(curve, &ReleaseTag::time(format!("e15/{i}")))
        })
        .collect()
}

/// Sequential 2-pairings-per-update verification vs one batched check
/// (2 pairings total) across burst sizes.
fn batch_verify(c: &mut Criterion) {
    let curve = toy64();
    let fx = Fixture::new(curve);
    let spk = *fx.server.public();
    let mut grp = c.benchmark_group("e15_verify");
    grp.sample_size(10);
    for n in [1usize, 16, 64] {
        let batch = updates(&fx, n);
        grp.bench_function(BenchmarkId::new("sequential", n), |b| {
            b.iter(|| batch.iter().all(|u| u.verify(curve, &spk)))
        });
        grp.bench_function(BenchmarkId::new("batched", n), |b| {
            b.iter(|| KeyUpdate::batch_verify(curve, &spk, black_box(&batch), 1))
        });
    }
    grp.finish();
}

/// Bisection isolation of one forgery hidden in a burst of 64 — the
/// adversarial worst case the batch path must stay cheap under.
fn batch_isolate(c: &mut Criterion) {
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let spk = *fx.server.public();
    let mut batch = updates(&fx, 64);
    batch[21] = KeyUpdate::from_parts(
        batch[21].tag().clone(),
        curve.g1_mul(&curve.generator(), &curve.random_scalar(&mut r)),
    );
    let mut grp = c.benchmark_group("e15_isolate");
    grp.sample_size(10);
    grp.bench_function("one_forgery_in_64", |b| {
        b.iter(|| KeyUpdate::batch_verify_isolate(curve, &spk, black_box(&batch), 1).unwrap_err())
    });
    grp.finish();
}

/// Bulk decryption under one update: a decrypt loop (re-verifying every
/// time) vs `decrypt_bulk` (verify once, then trusted decrypts).
fn bulk_decrypt(c: &mut Criterion) {
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let spk = *fx.server.public();
    let tag = ReleaseTag::time("e15/bulk");
    let update = fx.server.issue_update(curve, &tag);
    let sender = Sender::new(curve, &spk, fx.user.public()).unwrap();
    let cts: Vec<_> = (0..32)
        .map(|i| sender.encrypt(&tag, &[i as u8; 32], &mut r))
        .collect();
    let mut grp = c.benchmark_group("e15_decrypt");
    grp.sample_size(10);
    grp.bench_function("loop_32", |b| {
        // Fresh session per ciphertext so every open re-verifies the
        // update — the naive loop the bulk path is measured against.
        b.iter(|| {
            cts.iter()
                .map(|ct| {
                    Receiver::new(curve, spk, fx.user.clone())
                        .open_with(&update, ct)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        })
    });
    grp.bench_function("bulk_32", |b| {
        b.iter(|| {
            Receiver::new(curve, spk, fx.user.clone())
                .open_bulk(&update, black_box(&cts), 1)
                .unwrap()
        })
    });
    grp.finish();
}

/// Per-call session open (key check + table build every encrypt) vs a
/// reused [`Sender`] (tables for `G` and `asG`, validated once).
fn sender_precomp(c: &mut Criterion) {
    let curve = toy64();
    let mut r = rng();
    let fx = Fixture::new(curve);
    let spk = *fx.server.public();
    let sender = Sender::new(curve, &spk, fx.user.public()).unwrap();
    let tag = ReleaseTag::time("e15/sender");
    let mut grp = c.benchmark_group("e15_encrypt");
    grp.sample_size(10);
    grp.bench_function("plain", |b| {
        b.iter(|| {
            Sender::new(curve, &spk, fx.user.public())
                .unwrap()
                .encrypt(&tag, b"msg", &mut r)
        })
    });
    grp.bench_function("precomputed", |b| {
        b.iter(|| sender.encrypt(&tag, b"msg", &mut r))
    });
    grp.finish();
}

criterion_group!(
    benches,
    batch_verify,
    batch_isolate,
    bulk_decrypt,
    sender_precomp
);
criterion_main!(benches);
