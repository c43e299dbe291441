//! The `seal-open` workload: no network, no archive. A seeded message
//! stream is sealed to a skewed mix of release epochs (so the sender's
//! memoized `H1(T)` preparation both hits and misses); each epoch's
//! `I_T` is then issued, verified once, and all of its ciphertexts are
//! opened. Only `bigint`/`pairing`/`core` (and the server's signing) do
//! work here.
//!
//! The other end-to-end metrics are measured on the same in-process
//! path: a release is sign → verify → first open, handed over in memory;
//! a catch-up is a receiver absorbing a backlog of `KEY_UPDATE` frames
//! (decode, batch-verify, byte-compare to the reference, admit); a
//! restart rebuilds a receiving and sending session from stored keys and
//! opens the newest epoch's ciphertext.
//!
//! A run is a sequence of cycles: one batch, one absorption, one restart,
//! each batch the same amount of work. Every timing is taken at the quiet
//! quantile ([`QUIET_Q`]) over samples of one kind of work spread over the
//! run: single seal, verify and open calls, releases, absorptions and
//! restarts. So the stretches where a shared host starves the process do
//! not move the figures.

use tre_core::{KeyUpdate, Receiver, Sender, ServerKeyPair, ServerPublicKey, UserKeyPair};
use tre_server::{BatchVerifier, Granularity, SimClock, TimeServer};
use tre_wire::{peek_frame, Wire};

use crate::live::{add_layers, Layers};
use crate::report::{mono_ns, peak_rss_mb, Report, Spans, Tally};
use crate::stats::{median, quantile, stream_rng, SealStream, NEAR_EPOCHS, QUIET_Q};
use crate::{Curve8, RunCfg};

/// Set-ups (and measurement windows) per run.
const ROUNDS: usize = 9;
/// Epochs in one catch-up backlog.
const BACKLOG: u64 = 8;

/// One measurement cycle: a sealed-then-opened batch, one backlog
/// absorption and one session restart, back to back, so every metric
/// samples the same stretch of host time.
#[derive(Default)]
struct Cycle {
    /// The whole batch's seal time (traced against untraced).
    seal_ns: u64,
    /// Per-call seal times, split by whether the sender's one-entry tag
    /// memo hit (the message's epoch is the previous message's).
    seal_hit_ns: Vec<f64>,
    seal_miss_ns: Vec<f64>,
    /// Per-call times of each epoch's one verify and of every open.
    verify_ns: Vec<f64>,
    open_ns: Vec<f64>,
    release_ms: Vec<f64>,
    catchup_ms: f64,
    restart_s: f64,
}

#[derive(Default)]
struct Round {
    traced: bool,
    setup_s: f64,
    cycles: Vec<Cycle>,
    spans: Spans,
}

fn run_round(cfg: &RunCfg, r: usize, traced: bool, tally: &mut Tally) -> Result<Round, String> {
    let curve: Curve8 = tre_pairing::toy64();
    let mut round = Round {
        traced,
        ..Round::default()
    };
    let t_start = mono_ns();
    let window_ns = cfg.seconds * 1e9 / ROUNDS as f64;

    let mut rng = stream_rng(cfg.seed, "seal-keys", r);
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let pk = *keys.public();
    let clock = SimClock::new();
    clock.set(1 << 50); // every epoch the stream names is due
    let server = TimeServer::new(curve, keys, clock, Granularity::Seconds);
    let base = Receiver::generate(curve, pk, &mut rng);
    let user_secret = *base.key_pair().secret_scalar();
    let sender = Sender::new(curve, &pk, base.public_key()).map_err(|e| format!("{e:?}"))?;
    // The catch-up backlog and its reference, verified once.
    let backlog_from = 1_000_000 * (r as u64 + 1);
    let backlog: Vec<KeyUpdate<8>> = (backlog_from..backlog_from + BACKLOG)
        .map(|e| server.issue_for_epoch(e).expect("due"))
        .collect();
    if !BatchVerifier::new(curve, pk).verify(&backlog).all_valid() {
        return Err("backlog fails verification".into());
    }
    let frames: Vec<Vec<u8>> = backlog.iter().map(|u| u.wire_bytes(curve)).collect();
    let reference: Vec<Vec<u8>> = backlog
        .iter()
        .map(|u| {
            let mut b = Vec::new();
            u.write_body(curve, &mut b);
            b
        })
        .collect();
    let mut stream = SealStream::new(stream_rng(cfg.seed, "seal-stream", r), 1 << 40);
    let verifier = BatchVerifier::new(curve, pk);
    let pk_bytes = pk.wire_bytes(curve);
    round.setup_s = (mono_ns() - t_start) as f64 / 1e9;

    if traced {
        tre_obs::enable();
    }
    let end = mono_ns() + window_ns as u64;
    let mut b = 0u64;
    while mono_ns() < end {
        let mut cycle = Cycle::default();
        let near_base = 10_000 * (r as u64 + 1) + NEAR_EPOCHS * b;
        b += 1;
        let msgs = stream.batch(near_base);
        let t0 = mono_ns();
        let mut prev_epoch = None;
        let cts: Vec<_> = msgs
            .iter()
            .map(|(epoch, pt)| {
                let t = mono_ns();
                let ct = {
                    let _span = tre_obs::span("core.seal");
                    sender.encrypt(&Granularity::Seconds.tag_for_epoch(*epoch), pt, &mut rng)
                };
                let ns = (mono_ns() - t) as f64;
                if prev_epoch.replace(*epoch) == Some(*epoch) {
                    cycle.seal_hit_ns.push(ns);
                } else {
                    cycle.seal_miss_ns.push(ns);
                }
                ct
            })
            .collect();
        cycle.seal_ns = mono_ns() - t0;
        for _ in &cts {
            tally.op(true);
        }

        // Each epoch: issue I_T, verify it once, open all its messages.
        let mut order: Vec<u64> = Vec::new();
        for (epoch, _) in &msgs {
            if !order.contains(epoch) {
                order.push(*epoch);
            }
        }
        let mut recv = base.clone();
        let mut newest = None;
        for epoch in order {
            let t_release = mono_ns();
            let update = {
                let _span = tre_obs::span("server.sign");
                server.issue_for_epoch(epoch).expect("due")
            };
            let t_verify = mono_ns();
            let verified = {
                let _span = tre_obs::span("core.verify");
                recv.observe_update(update.clone())
            };
            cycle.verify_ns.push((mono_ns() - t_verify) as f64);
            let mut first = true;
            for (i, _) in msgs.iter().enumerate().filter(|(_, m)| m.0 == epoch) {
                let t = mono_ns();
                let opened = {
                    let _span = tre_obs::span("core.open");
                    recv.open(&cts[i])
                };
                cycle.open_ns.push((mono_ns() - t) as f64);
                let ok = verified.is_ok() && opened.is_ok_and(|pt| pt == msgs[i].1);
                tally.op(ok);
                if first {
                    cycle.release_ms.push((mono_ns() - t_release) as f64 / 1e6);
                    first = false;
                }
                if ok {
                    newest = Some(i);
                }
            }
        }

        // A receiver back from downtime absorbs a backlog of frames.
        let mut absorber = base.clone();
        let t0 = mono_ns();
        let mut updates = Vec::with_capacity(frames.len());
        let mut bytes_ok = true;
        for (frame, want) in frames.iter().zip(&reference) {
            let decoded = {
                let _span = tre_obs::span("wire.decode");
                peek_frame(frame).ok().flatten().and_then(|(_, body, _)| {
                    bytes_ok &= body == want.as_slice();
                    <KeyUpdate<8> as Wire<8>>::wire_read_body(curve, body).ok()
                })
            };
            match decoded {
                Some(u) => updates.push(u),
                None => bytes_ok = false,
            }
        }
        let valid = {
            let _span = tre_obs::span("catchup.verify");
            verifier.verify(&updates).all_valid()
        };
        for u in updates {
            bytes_ok &= absorber.admit_verified(u).is_ok();
        }
        cycle.catchup_ms = (mono_ns() - t0) as f64 / 1e6;
        tally.op(bytes_ok && valid && absorber.cached_updates() == BACKLOG as usize);

        // A restarted client rebuilds its sessions from stored keys and
        // opens the newest message.
        let i = newest.ok_or("batch opened nothing")?;
        let update = recv
            .cached_update(&Granularity::Seconds.tag_for_epoch(msgs[i].0))
            .cloned()
            .ok_or("newest update not cached")?;
        let t0 = mono_ns();
        let restarted = (|| -> Option<bool> {
            let server_pk = ServerPublicKey::wire_read(curve, &mut pk_bytes.as_slice()).ok()?;
            let user = UserKeyPair::from_secret(curve, &server_pk, user_secret);
            let mut recv = Receiver::new(curve, server_pk, user);
            Sender::new(curve, &server_pk, recv.public_key()).ok()?;
            recv.observe_update(update).ok()?;
            Some(recv.open(&cts[i]).ok()? == msgs[i].1)
        })()
        .unwrap_or(false);
        cycle.restart_s = (mono_ns() - t0) as f64 / 1e9;
        tally.op(restarted);
        round.cycles.push(cycle);
    }
    if traced {
        round.spans.absorb_trace(&tre_obs::finish());
    }
    Ok(round)
}

/// Runs `seal-open` and prints its result.
pub fn run(cfg: &RunCfg) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    for r in 0..ROUNDS {
        // A traced run leaves every other round untraced: the difference
        // between the two is the tracing overhead.
        rounds.push(run_round(cfg, r, cfg.trace && r % 2 == 0, &mut tally)?);
    }
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("too few samples for {what}"));
    let mut report = Report::new();
    let mut spans = Spans::default();
    for r in &mut rounds {
        spans.extend(std::mem::take(&mut r.spans));
    }
    let cycles = |traced: bool| -> Vec<&Cycle> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .flat_map(|r| r.cycles.iter())
            .collect()
    };
    if !cfg.trace {
        let all = cycles(false);
        let per_cycle = |f: fn(&Cycle) -> f64| all.iter().map(|c| f(c)).collect::<Vec<f64>>();
        let pool = |f: fn(&Cycle) -> &Vec<f64>| {
            all.iter()
                .flat_map(|c| f(c).iter().copied())
                .collect::<Vec<f64>>()
        };
        let quiet = |v: &[f64], what: &str| need(quantile(v, QUIET_Q), what);
        // Every release is one sign, one verify and one open.
        let release = pool(|c| &c.release_ms);
        report.add("release_ms_p50", quiet(&release, "release")?, "ms");
        report.note_tail("release_ms", &release);
        let catchup = per_cycle(|c| c.catchup_ms);
        report.add("catchup_ms_p50", quiet(&catchup, "catch-up")?, "ms");
        report.note_tail("catchup_ms", &catchup);
        let restart = per_cycle(|c| c.restart_s);
        report.add("restart_s", quiet(&restart, "restart")?, "s");
        report.add("rss_mb", peak_rss_mb(), "MiB");
        // Throughput of the run's calls at the quiet speed of each kind:
        // a seal that hit or missed the tag memo, an epoch's one verify,
        // an open. Calls of one kind are the same work, and a
        // millisecond call catches quiet moments that a whole batch spans.
        let total = |v: &[f64], what: &str| quiet(v, what).map(|q| q * v.len() as f64);
        let (hits, misses) = (pool(|c| &c.seal_hit_ns), pool(|c| &c.seal_miss_ns));
        let seal_ns = total(&hits, "seal hit")? + total(&misses, "seal miss")?;
        let seals = (hits.len() + misses.len()) as f64;
        report.add("seal_per_s", seals * 1e9 / seal_ns, "1/s");
        let opens = pool(|c| &c.open_ns);
        let open_ns = total(&pool(|c| &c.verify_ns), "verify")? + total(&opens, "open")?;
        report.add("open_per_s", opens.len() as f64 * 1e9 / open_ns, "1/s");
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        report.add("setup_s", need(median(&setups), "setup")?, "s");
    } else {
        let seal_ns = |cs: Vec<&Cycle>| {
            median(&cs.iter().map(|c| c.seal_ns as f64).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let traced = cycles(true);
        let release: Vec<f64> = traced
            .iter()
            .flat_map(|c| c.release_ms.iter().copied())
            .collect();
        let busy = spans.median_ms("server.sign")
            + spans.median_ms("core.verify")
            + spans.median_ms("core.open");
        let overhead = (seal_ns(traced) / seal_ns(cycles(false)).max(1.0) - 1.0) * 100.0;
        add_layers(
            &mut report,
            &spans,
            Layers {
                release_wait_ms: median(&release).unwrap_or(0.0) - busy,
                overhead_pct: overhead,
                ..Layers::default()
            },
        );
    }
    report.print(&tally);
    Ok(())
}
