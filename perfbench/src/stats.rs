//! Harness arithmetic: the seeded input generators, schedule-lateness
//! accounting, and the percentile rules every reported timing follows.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A seeded generator for one named input stream. Distinct streams of
/// one run never share draws, so changing how much one stream consumes
/// leaves every other stream's inputs unchanged.
pub fn stream_rng(seed: u64, stream: &str, round: usize) -> StdRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    for b in stream.bytes().chain((round as u64).to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ seed)
}

/// Middle value of the samples (mean of the two middle ones for an even
/// count). The median needs no samples beyond it; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The 1-based nearest rank of the `q` quantile (`0 < q < 1`) among `n`
/// samples; `None` when there are none.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    Some((((q * n as f64) - 1e-9).ceil() as usize).clamp(1, n))
}

fn nth_smallest(samples: &[f64], rank: usize) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank - 1]
}

/// Nearest-rank `q` percentile (`0 < q < 1`), reported only when at
/// least [`MIN_BEYOND`] samples lie beyond it: a p99 needs 1000
/// samples, a p95 needs 200.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let rank = nearest_rank(samples.len(), q)?;
    (samples.len() - rank >= MIN_BEYOND).then(|| nth_smallest(samples, rank))
}

/// The quantile at which fixed-work timings are reported. Every sample of
/// such a timing is the same work, so a slow sample means the shared host
/// starved the process; the host's speed drifts over seconds to minutes.
/// A low quantile of short samples spread over the whole run reads the
/// speed of its quiet moments, while a slower program still slows every
/// sample and shows.
pub const QUIET_Q: f64 = 0.05;

/// Nearest-rank `q` quantile (`0 < q < 1`) of the samples, with no
/// minimum count beyond it; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    nearest_rank(samples.len(), q).map(|rank| nth_smallest(samples, rank))
}

/// The open-loop publish schedule of one round: seeded inter-epoch gaps
/// whose mean is `mean_ns` and which are jittered uniformly over
/// `mean_ns ± mean_ns/2`, so due instants never phase-lock with a
/// fixed-period sleep loop in the program. Returns the due offsets (from
/// the schedule start) of every epoch that falls inside `window_ns`.
pub fn schedule(rng: &mut StdRng, mean_ns: u64, window_ns: u64) -> Vec<u64> {
    let min = mean_ns / 2;
    let mut due = Vec::new();
    let mut t = 0u64;
    loop {
        t += min + rng.next_u64() % mean_ns;
        if t > window_ns {
            return due;
        }
        due.push(t);
    }
}

/// How late the generator ran: per epoch, actual publish instant minus
/// its due instant (never negative — publishing early is impossible by
/// construction, and a clock read racing the due instant counts as on
/// time).
pub fn lateness_ns(due: &[u64], actual: &[u64]) -> Vec<u64> {
    assert_eq!(due.len(), actual.len(), "one actual instant per due epoch");
    due.iter()
        .zip(actual)
        .map(|(d, a)| a.saturating_sub(*d))
        .collect()
}

/// The seal-open message stream: each message is locked to a release
/// epoch drawn from a skewed mix. Every batch has the same shape, so
/// every batch is the same amount of work: 8 runs of messages to the
/// batch's 4 near epochs (run lengths 4–9, 56 messages, so consecutive
/// seals share a tag and the sender's memo hits) and 8 single messages
/// to fresh far epochs never used before (memo misses). The seed picks
/// which near epoch each run targets (every near epoch gets one, the
/// rest weighted 8:4:2:1), the order of the runs, the far epochs'
/// positions and every plaintext. No two adjacent runs share an epoch,
/// so each batch makes exactly 16 memo misses and 48 hits.
pub struct SealStream {
    rng: StdRng,
    next_far: u64,
}

/// Near epochs per batch.
pub const NEAR_EPOCHS: u64 = 4;
/// Lengths of a batch's runs to near epochs.
const NEAR_RUNS: [usize; 8] = [4, 5, 6, 7, 8, 8, 9, 9];
/// Far epochs per batch, one message each.
const FAR_PER_BATCH: usize = 8;
/// Messages per batch.
pub const BATCH_MESSAGES: usize = 56 + FAR_PER_BATCH;

impl SealStream {
    /// A stream whose far epochs start at `far_base`.
    pub fn new(rng: StdRng, far_base: u64) -> Self {
        Self {
            rng,
            next_far: far_base,
        }
    }

    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    /// The next batch of `(epoch, plaintext)` pairs, with near epochs
    /// `near_base..near_base + NEAR_EPOCHS`.
    pub fn batch(&mut self, near_base: u64) -> Vec<(u64, Vec<u8>)> {
        let mut slots: Vec<u64> = (0..NEAR_EPOCHS).collect();
        for i in (1..slots.len()).rev() {
            let j = self.below(i + 1);
            slots.swap(i, j);
        }
        while slots.len() < NEAR_RUNS.len() {
            slots.push(match self.below(15) {
                0..=7 => 0,
                8..=11 => 1,
                12..=13 => 2,
                _ => 3,
            });
        }
        let mut runs: Vec<(u64, usize)> = slots
            .iter()
            .zip(NEAR_RUNS)
            .map(|(slot, len)| (near_base + slot, len))
            .collect();
        for _ in 0..FAR_PER_BATCH {
            runs.push((self.next_far, 1));
            self.next_far += 1;
        }
        // Shuffle until no two adjacent runs share an epoch (always
        // possible: no epoch owns more than half of the 16 runs).
        loop {
            for i in (1..runs.len()).rev() {
                let j = self.below(i + 1);
                runs.swap(i, j);
            }
            if runs.windows(2).all(|w| w[0].0 != w[1].0) {
                break;
            }
        }
        let mut out = Vec::with_capacity(BATCH_MESSAGES);
        for (epoch, len) in runs {
            for _ in 0..len {
                let mut msg = vec![0u8; 32];
                self.rng.fill_bytes(&mut msg);
                out.push((epoch, msg));
            }
        }
        out
    }
}

/// The plaintext a live receiver expects for `epoch`: seeded per
/// receiver, so a decrypt that lands on the wrong epoch's ciphertext or
/// key never matches.
pub fn live_plaintext(seed: u64, conn: usize, epoch: u64) -> Vec<u8> {
    let mut rng = stream_rng(
        seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        "plaintext",
        conn,
    );
    let mut msg = vec![0u8; 32];
    rng.fill_bytes(&mut msg);
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs() {
        let a = schedule(
            &mut stream_rng(7, "schedule", 0),
            100_000_000,
            5_000_000_000,
        );
        let b = schedule(
            &mut stream_rng(7, "schedule", 0),
            100_000_000,
            5_000_000_000,
        );
        assert_eq!(a, b);
        let c = schedule(
            &mut stream_rng(8, "schedule", 0),
            100_000_000,
            5_000_000_000,
        );
        assert_ne!(a, c, "another seed, another schedule");
        let d = schedule(
            &mut stream_rng(7, "schedule", 1),
            100_000_000,
            5_000_000_000,
        );
        assert_ne!(a, d, "each round draws its own schedule");

        let mut s1 = SealStream::new(stream_rng(3, "seal", 0), 1_000);
        let mut s2 = SealStream::new(stream_rng(3, "seal", 0), 1_000);
        assert_eq!(s1.batch(10), s2.batch(10));
        assert_eq!(s1.batch(14), s2.batch(14));
        let mut s3 = SealStream::new(stream_rng(4, "seal", 0), 1_000);
        assert_ne!(
            s3.batch(10),
            SealStream::new(stream_rng(3, "seal", 0), 1_000).batch(10)
        );
        assert_eq!(live_plaintext(5, 1, 9), live_plaintext(5, 1, 9));
        assert_ne!(live_plaintext(5, 1, 9), live_plaintext(5, 0, 9));
    }

    #[test]
    fn schedule_is_jittered_around_its_mean_and_fits_the_window() {
        let mean = 100_000_000;
        let window = 60_000_000_000;
        let due = schedule(&mut stream_rng(1, "schedule", 0), mean, window);
        assert!(due.windows(2).all(|w| w[1] > w[0]));
        assert!(*due.last().unwrap() <= window);
        let gaps: Vec<u64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|g| *g >= mean / 2 && *g < mean / 2 + mean));
        let avg = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((avg / mean as f64 - 1.0).abs() < 0.05, "mean gap {avg}");
        let distinct: std::collections::BTreeSet<u64> =
            gaps.iter().map(|g| g % 5_000_000).collect();
        assert!(
            distinct.len() > gaps.len() / 2,
            "gaps do not lock to a 5 ms grid"
        );
    }

    #[test]
    fn lateness_counts_only_late_publishes() {
        let due = [100, 200, 300, 400];
        let actual = [100, 250, 299, 460];
        assert_eq!(lateness_ns(&due, &actual), vec![0, 50, 0, 60]);
    }

    #[test]
    #[should_panic(expected = "one actual instant per due epoch")]
    fn lateness_rejects_a_missing_publish() {
        lateness_ns(&[1, 2], &[1]);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_is_nearest_rank_in_any_order() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), Some(20.0));
        assert_eq!(quantile(&v, 0.5), Some(100.0));
        assert_eq!(quantile(&[7.0, 3.0], 0.1), Some(3.0), "rank rounds up to 1");
        assert_eq!(quantile(&[], 0.1), None);
        assert_eq!(quantile(&v, 0.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None, "only 9 beyond");
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(
            tail_percentile(&v, 0.95),
            Some(190.0),
            "input order is irrelevant"
        );
        assert_eq!(tail_percentile(&v[..199], 0.95), None);
        // The 20 values 200..=181: the nearest-rank median is the 10th
        // smallest, and 10 samples lie beyond it.
        assert_eq!(tail_percentile(&v[..20], 0.5), Some(190.0));
        assert_eq!(tail_percentile(&v[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(tail_percentile(&v, 1.0), None);
    }

    #[test]
    fn every_seal_batch_is_the_same_mix_of_hits_and_misses() {
        let mut s = SealStream::new(stream_rng(11, "seal", 0), 1_000_000);
        let mut seen_far = std::collections::BTreeSet::new();
        for b in 0..50u64 {
            let near_base = 100 + NEAR_EPOCHS * b;
            let msgs = s.batch(near_base);
            assert_eq!(msgs.len(), BATCH_MESSAGES);
            let near: std::collections::BTreeSet<u64> = msgs
                .iter()
                .map(|m| m.0)
                .filter(|e| *e < 1_000_000)
                .collect();
            assert_eq!(near, (near_base..near_base + NEAR_EPOCHS).collect());
            let far: Vec<u64> = msgs
                .iter()
                .map(|m| m.0)
                .filter(|e| *e >= 1_000_000)
                .collect();
            assert_eq!(far.len(), FAR_PER_BATCH);
            assert!(
                far.iter().all(|e| seen_far.insert(*e)),
                "far epochs are fresh"
            );
            let misses = 1 + msgs.windows(2).filter(|w| w[0].0 != w[1].0).count();
            assert_eq!(
                misses,
                NEAR_RUNS.len() + FAR_PER_BATCH,
                "16 misses, 48 hits"
            );
        }
    }
}
