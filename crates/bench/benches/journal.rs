//! E16 bench: durable journal overhead on the broadcast hot path.
//!
//! Measures `UpdateArchive::publish` against an in-memory archive and
//! against durable archives under each [`FsyncPolicy`], plus cold-start
//! replay speed. Always writes the E16 record to `target/e16/e16.json`;
//! set `TRE_BENCH_QUICK=1` for the single-iteration CI smoke run.
//!
//! The report doubles as the regression guard: under `EveryN` fsync the
//! amortised per-publish journal cost must stay below the signing cost
//! of issuing one update — i.e. adding durability must not move the
//! broadcast numbers — and the fsync counter must show the amortisation
//! actually happened (64 appends at N=32 → at most 3 fsyncs).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tre_bench::{quick, record, time_ms, Fixture};
use tre_core::{KeyUpdate, ReleaseTag};
use tre_pairing::toy64;
use tre_server::{FsyncPolicy, JournalConfig, UpdateArchive};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn bench_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tre-e16-{}-{n}", std::process::id()))
}

fn updates(fx: &Fixture<8>, n: usize) -> Vec<KeyUpdate<8>> {
    let curve = toy64();
    (0..n)
        .map(|i| {
            fx.server
                .issue_update(curve, &ReleaseTag::time(format!("e16/{i}")))
        })
        .collect()
}

fn policy_name(p: FsyncPolicy) -> &'static str {
    match p {
        FsyncPolicy::EveryRecord => "every_record",
        FsyncPolicy::EveryN(_) => "every_n_32",
        FsyncPolicy::OnClose => "on_close",
    }
}

/// Publishes `batch` through a fresh durable archive, returning the
/// total wall-clock ms and the final fsync count.
fn durable_publish_ms(batch: &[KeyUpdate<8>], policy: FsyncPolicy) -> (f64, u64) {
    let curve = toy64();
    let dir = bench_dir();
    let config = JournalConfig {
        fsync: policy,
        ..JournalConfig::default()
    };
    let (archive, _) = UpdateArchive::open_durable(&dir, curve, config).expect("open journal");
    let ms = time_ms(1, || {
        for (epoch, u) in batch.iter().enumerate() {
            archive.publish(epoch as u64, u.clone());
        }
    });
    let fsyncs = archive.journal_stats().expect("durable").fsyncs;
    drop(archive);
    let _ = std::fs::remove_dir_all(&dir);
    (ms, fsyncs)
}

/// Per-publish cost: in-memory map insert vs journaled append under each
/// fsync policy.
fn publish(c: &mut Criterion) {
    let fx = Fixture::new(toy64());
    let batch = updates(&fx, 64);
    let mut grp = c.benchmark_group("e16_publish");
    grp.sample_size(10);
    grp.bench_function(BenchmarkId::new("memory", 64), |b| {
        b.iter(|| {
            let archive: UpdateArchive<8> = UpdateArchive::new();
            for (epoch, u) in batch.iter().enumerate() {
                archive.publish(epoch as u64, black_box(u.clone()));
            }
        })
    });
    for policy in [
        FsyncPolicy::EveryRecord,
        FsyncPolicy::EveryN(32),
        FsyncPolicy::OnClose,
    ] {
        grp.bench_function(BenchmarkId::new(policy_name(policy), 64), |b| {
            b.iter(|| durable_publish_ms(black_box(&batch), policy))
        });
    }
    grp.finish();
}

/// Cold-start replay: reopening a journal of 64 archived epochs (read +
/// CRC + decode + verify-free map rebuild).
fn replay(c: &mut Criterion) {
    let curve = toy64();
    let fx = Fixture::new(curve);
    let batch = updates(&fx, 64);
    let dir = bench_dir();
    let config = JournalConfig {
        fsync: FsyncPolicy::OnClose,
        ..JournalConfig::default()
    };
    {
        let (archive, _) = UpdateArchive::open_durable(&dir, curve, config).expect("open");
        for (epoch, u) in batch.iter().enumerate() {
            archive.publish(epoch as u64, u.clone());
        }
    }
    let mut grp = c.benchmark_group("e16_replay");
    grp.sample_size(10);
    grp.bench_function("reopen_64", |b| {
        b.iter(|| {
            let (archive, report) =
                UpdateArchive::<8>::open_durable(&dir, curve, config).expect("reopen");
            assert_eq!(report.records, 64);
            archive
        })
    });
    grp.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes the E16 record and enforces the overhead guard.
fn report(_c: &mut Criterion) {
    let curve = toy64();
    let fx = Fixture::new(curve);
    let iters = if quick() { 1 } else { 5 };
    const N: usize = 64;
    let batch = updates(&fx, N);

    // The broadcast hot path's dominant cost: signing one update.
    let issue_ms = time_ms(iters, || {
        fx.server
            .issue_update(curve, &ReleaseTag::time("e16/probe"))
    });

    let memory_ms = time_ms(iters, || {
        let archive: UpdateArchive<8> = UpdateArchive::new();
        for (epoch, u) in batch.iter().enumerate() {
            archive.publish(epoch as u64, u.clone());
        }
    }) / N as f64;

    let mut rows = Vec::new();
    let mut every_n_per_publish = f64::MAX;
    let mut every_n_fsyncs = u64::MAX;
    for policy in [
        FsyncPolicy::EveryRecord,
        FsyncPolicy::EveryN(32),
        FsyncPolicy::OnClose,
    ] {
        let mut total = 0.0;
        let mut fsyncs = 0;
        for _ in 0..iters {
            let (ms, f) = durable_publish_ms(&batch, policy);
            total += ms;
            fsyncs = f;
        }
        let per_publish = total / (iters as f64 * N as f64);
        if matches!(policy, FsyncPolicy::EveryN(_)) {
            every_n_per_publish = per_publish;
            every_n_fsyncs = fsyncs;
        }
        rows.push(record! {
            "policy": policy_name(policy), "per_publish_ms": per_publish,
            "overhead_vs_memory": per_publish / memory_ms.max(1e-9), "fsyncs_per_64": fsyncs,
        });
    }

    // Guard 1 (hermetic): EveryN(32) over 64 appends amortises to at
    // most 3 fsyncs (two windows + the replay-open sync path).
    assert!(
        every_n_fsyncs <= 3,
        "EveryN(32) issued {every_n_fsyncs} fsyncs over 64 appends — amortisation broken"
    );
    // Guard 2: the journaled publish must stay cheaper than the signing
    // work it rides behind, so durability cannot move broadcast numbers.
    assert!(
        every_n_per_publish < issue_ms,
        "EveryN publish {every_n_per_publish:.4} ms/record exceeds issue_update \
         {issue_ms:.4} ms — journal overhead now dominates the broadcast path"
    );

    record! {
        "iters": iters, "issue_update_ms": issue_ms, "memory_publish_ms": memory_ms,
        "durable_publish": rows,
        "guard": record! { "every_n_fsyncs_max": 3u32, "every_n_cheaper_than_signing": true },
    }
    .write("e16");
}

criterion_group!(benches, publish, replay, report);
criterion_main!(benches);
