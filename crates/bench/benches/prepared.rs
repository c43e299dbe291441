//! E19 bench: fixed-argument Miller precomputation on the pairing hot
//! path.
//!
//! Measures the generic Tate pairing against the prepared replay
//! (`Curve::prepare` + `pairing_prepared`) and the verify/verdict-shaped
//! prepared multi-pairings against naive per-lane evaluation, plus the
//! one burst verifier against the textbook small-exponent batch. The E19 record
//! (`target/e19/e19.json`) and its counter guards come from
//! `tables --exp e19`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tre_bench::{rng, textbook_batch_verify, Fixture};
use tre_core::{KeyUpdate, ReleaseTag};
use tre_pairing::{toy64, G1Affine, MillerPrecomp};

fn lane_points(n: usize) -> (Vec<G1Affine<8>>, Vec<G1Affine<8>>) {
    let curve = toy64();
    let mut r = rng();
    let mk = |r: &mut rand::rngs::StdRng| {
        (0..n)
            .map(|_| curve.g1_mul(&curve.generator(), &curve.random_scalar(r)))
            .collect()
    };
    (mk(&mut r), mk(&mut r))
}

/// One fixed-argument pairing: generic vs prepared replay.
fn single_pairing(c: &mut Criterion) {
    let curve = toy64();
    let (fixed, fresh) = lane_points(1);
    let prep = curve.prepare(&fixed[0]);
    let mut grp = c.benchmark_group("e19_pairing");
    grp.sample_size(10);
    grp.bench_function("generic", |b| {
        b.iter(|| curve.pairing(black_box(&fixed[0]), black_box(&fresh[0])))
    });
    grp.bench_function("prepared", |b| {
        b.iter(|| curve.pairing_prepared(black_box(&prep), black_box(&fresh[0])))
    });
    grp.bench_function("prepare_cost", |b| b.iter(|| curve.prepare(&fixed[0])));
    grp.finish();
}

/// The verification shapes: 2-lane (BLS verify) and 5-lane (failover
/// verdict, N=4) prepared multi-pairings vs naive per-lane products.
fn multi_pairing(c: &mut Criterion) {
    let curve = toy64();
    for n in [2usize, 5] {
        let (fixed, fresh) = lane_points(n);
        let preps: Vec<MillerPrecomp<8>> = fixed.iter().map(|p| curve.prepare(p)).collect();
        let lanes: Vec<_> = preps.iter().zip(&fresh).map(|(p, q)| (p, *q)).collect();
        let mut grp = c.benchmark_group(format!("e19_multi_{n}_lane"));
        grp.sample_size(10);
        grp.bench_function("naive_lanes", |b| {
            b.iter(|| {
                fixed
                    .iter()
                    .zip(&fresh)
                    .map(|(p, q)| curve.pairing(p, q))
                    .reduce(|a, b| a.mul(&b, curve))
                    .unwrap()
            })
        });
        grp.bench_function("prepared_multi", |b| {
            b.iter(|| curve.multi_pairing_mixed(black_box(&lanes), &[]))
        });
        grp.finish();
    }
}

/// A clean 64-burst: the textbook small-exponent batch on the unprepared
/// key vs the one burst verifier on the prepared key.
fn batch_verify(c: &mut Criterion) {
    let curve = toy64();
    let fx = Fixture::new(curve);
    let spk = *fx.server.public();
    let prep = spk.prepare(curve);
    let batch: Vec<KeyUpdate<8>> = (0..64)
        .map(|i| {
            fx.server
                .issue_update(curve, &ReleaseTag::time(format!("e19/{i}")))
        })
        .collect();
    let mut grp = c.benchmark_group("e19_batch_verify");
    grp.sample_size(10);
    grp.bench_function("generic_64", |b| {
        b.iter(|| textbook_batch_verify(curve, &spk, black_box(&batch)))
    });
    grp.bench_function("prepared_64", |b| {
        b.iter(|| prep.verify_burst(curve, black_box(&batch), None, 1))
    });
    grp.finish();
}

criterion_group!(benches, single_pairing, multi_pairing, batch_verify);
criterion_main!(benches);
