#![warn(missing_docs)]
//! # tre-par — deterministic worker-pool parallelism
//!
//! A minimal fork-join layer for the batch crypto pipeline: [`par_map`]
//! fans a slice out over scoped worker threads (vendored `crossbeam`
//! scope, no external dependency) and returns results **in input order**,
//! so seeded workloads produce byte-identical traces whether they run on
//! 1 thread or 16.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism** — results are positionally stable: `par_map(xs, t,
//!    f)[i] == f(&xs[i])` for every `t`. Work is split into contiguous
//!    chunks (one per worker) rather than work-stolen, so there is no
//!    scheduler-dependent ordering anywhere in the result path.
//! 2. **Zero setup cost when it can't help** — a single item, a single
//!    requested thread, or a single available core short-circuits to a
//!    plain sequential map with no thread spawned at all.
//! 3. **Panic transparency** — a panicking worker propagates the panic to
//!    the caller (no poisoned pools, no swallowed errors).

use std::num::NonZeroUsize;

/// Number of worker threads [`par_map`] uses when the caller passes
/// `0` ("auto"): the machine's available parallelism, capped so a batch
/// job never oversubscribes a shared host.
const AUTO_THREAD_CAP: usize = 16;

/// The machine's available parallelism (1 if it cannot be determined),
/// capped at 16 — the worker count used by "auto" (`threads == 0`) calls.
pub fn auto_threads() -> usize {
    host_parallelism().min(AUTO_THREAD_CAP)
}

/// Raw available parallelism of the host, 1 if it cannot be determined.
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// How many OS threads to actually spawn for a logical worker count:
/// never more than the host has cores. Chunk *boundaries* are still
/// derived from the caller's requested count (host-independent results);
/// this only stops a `threads=4` request on a 1-core container from
/// oversubscribing — the chunks run inline instead, at sequential speed
/// rather than slower (the E15 negative-scaling fix).
fn spawn_width(workers: usize) -> usize {
    workers.min(host_parallelism())
}

/// Maps `f` over `items` using up to `threads` scoped worker threads
/// (`0` = auto-detect), returning results in **input order**.
///
/// The slice is split into `min(threads, items.len())` contiguous chunks;
/// each worker maps one chunk; chunk results are concatenated in chunk
/// order, which is input order. With `threads <= 1` or fewer than two
/// items, no thread is spawned and the map runs inline.
///
/// # Panics
/// Propagates any panic raised by `f` on a worker thread.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    // For a map the chunk boundaries are invisible in the result, so the
    // effective worker count is clamped by the host's cores directly: a
    // 4-thread request on a 1-core box runs inline.
    let workers = spawn_width(threads.min(items.len()));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Ceil-divided chunk size: every worker gets a contiguous run, the
    // last may be short. chunks() preserves slice order, so flattening
    // per-chunk outputs in spawn order restores input order exactly.
    let chunk = items.len().div_ceil(workers);
    let chunk_outputs: Vec<Vec<U>> = crossbeam::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|_| c.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
    .expect("scope itself never fails");
    let mut out = Vec::with_capacity(items.len());
    for c in chunk_outputs {
        out.extend(c);
    }
    out
}

/// Fold-friendly variant for associative reductions: maps `f` over
/// contiguous chunks of `items` in parallel (chunk boundaries identical
/// for a given `(len, threads)` pair), then folds the per-chunk results
/// **in chunk order** with `combine`. Deterministic for any associative
/// `combine`, even a non-commutative one.
///
/// Returns `None` on an empty slice.
pub fn par_chunks_reduce<T, U, FM, FC>(
    items: &[T],
    threads: usize,
    map_chunk: FM,
    combine: FC,
) -> Option<U>
where
    T: Sync,
    U: Send,
    FM: Fn(&[T]) -> U + Sync,
    FC: Fn(U, U) -> U,
{
    if items.is_empty() {
        return None;
    }
    let threads = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    let workers = threads.min(items.len());
    if workers <= 1 {
        return Some(map_chunk(items));
    }
    // Chunk boundaries ARE observable here (map_chunk sees them), so
    // they stay a pure function of (len, threads). Only the number of
    // OS threads is clamped: each spawned thread walks a contiguous run
    // of chunks, producing the same per-chunk values in the same order
    // as a one-thread-per-chunk execution would.
    let chunk = items.len().div_ceil(workers);
    let spawn = spawn_width(workers);
    if spawn <= 1 {
        return items.chunks(chunk).map(map_chunk).reduce(combine);
    }
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    let run = chunks.len().div_ceil(spawn);
    let parts: Vec<Vec<U>> = crossbeam::scope(|s| {
        let handles: Vec<_> = chunks
            .chunks(run)
            .map(|cs| s.spawn(|_| cs.iter().map(|c| map_chunk(c)).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
    .expect("scope itself never fails");
    parts.into_iter().flatten().reduce(combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_for_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0usize, 1, 2, 3, 7, 16, 200] {
            assert_eq!(
                par_map(&items, threads, |x| x * x + 1),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, 4, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn ordering_is_positional_not_completion_order() {
        // Earlier items sleep longer; a completion-ordered implementation
        // would return them last.
        let delays: Vec<u64> = vec![8, 4, 2, 0];
        let out = par_map(&delays, 4, |d| {
            std::thread::sleep(std::time::Duration::from_millis(*d));
            *d
        });
        assert_eq!(out, delays);
    }

    #[test]
    fn chunks_reduce_respects_chunk_order() {
        // String concatenation is associative but not commutative: any
        // out-of-order combine would scramble the result.
        let items: Vec<String> = (0..23).map(|i| i.to_string()).collect();
        let expect = items.concat();
        for threads in [1usize, 2, 5, 23] {
            let got =
                par_chunks_reduce(&items, threads, |chunk| chunk.concat(), |a, b| a + &b).unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
        assert!(par_chunks_reduce(&[] as &[u8], 2, |_| 0u8, |a, _| a).is_none());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map(&items, 4, |x| {
            if *x == 5 {
                panic!("worker boom");
            }
            *x
        });
    }

    #[test]
    fn auto_threads_is_sane() {
        let t = auto_threads();
        assert!((1..=16).contains(&t));
    }

    #[test]
    fn chunks_reduce_boundaries_are_host_independent() {
        // map_chunk observes its chunk length; the per-chunk values must
        // depend only on (len, threads), never on how many OS threads
        // the host allows — so requesting more threads than cores yields
        // exactly the per-chunk lengths a big machine would compute.
        let items: Vec<u8> = vec![0; 23];
        for threads in [2usize, 3, 7, 16] {
            let expect: Vec<usize> = items
                .chunks(items.len().div_ceil(threads))
                .map(|c| c.len())
                .collect();
            let got = par_chunks_reduce(
                &items,
                threads,
                |chunk| vec![chunk.len()],
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
            .unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    /// Bench guard for the E15 negative-scaling fix: asking for 4
    /// threads must never run slower than asking for 1, including on a
    /// single-core host (where the spawn clamp makes the 4-thread call
    /// run inline instead of oversubscribing).
    #[test]
    fn four_threads_not_slower_than_one() {
        let items: Vec<u64> = (0..64).collect();
        let work = |x: &u64| {
            let mut acc = *x;
            for _ in 0..50_000 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        // Same ordered output whatever the thread count.
        assert_eq!(par_map(&items, 4, work), par_map(&items, 1, work));
        let time = |threads: usize| {
            let start = std::time::Instant::now();
            std::hint::black_box(par_map(&items, threads, work));
            start.elapsed().as_secs_f64()
        };
        // Interleaved 1-thread/4-thread pairs, alternating which side
        // runs first: a loaded host slows both halves of a pair alike,
        // so the median per-pair ratio is not decided by one noisy
        // stretch. 25% head-room still catches the 1.3x regression this
        // guards against.
        let mut ratios: Vec<f64> = (0..9)
            .map(|i| {
                let (t1, t4) = if i % 2 == 0 {
                    let t1 = time(1);
                    (t1, time(4))
                } else {
                    let t4 = time(4);
                    (time(1), t4)
                };
                t4 / t1.max(1e-9)
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        assert!(
            median <= 1.25,
            "4-thread par_map slower than 1-thread: median ratio {median:.2} over {ratios:?}"
        );
    }
}
