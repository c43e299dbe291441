//! The two networked workloads, driven from one process that owns the
//! [`SimClock`] and the root [`Tred`]:
//!
//! * `live-tree` — root (durable journal) → 2 relay processes → 2
//!   receivers (one per relay) in a receiver process;
//! * `catchup-under-publish` — the root alone over a pre-signed history
//!   in small sealed segments, a closed-loop catch-up client and a live
//!   receiver sharing it.
//!
//! Epochs are published open-loop on a seeded, jittered schedule; every
//! release sample runs from the epoch's *due* instant to the receiver
//! holding the decrypted plaintext, all on the host clock.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use tre_core::ServerKeyPair;
use tre_server::{
    Granularity, JournalConfig, SimClock, Stage, TimeServer, TraceSink, Tred, TredConfig,
    TredStats, UpdateArchive,
};
use tre_wire::TAG_KEY_UPDATE;

use crate::child::{key_hex, ChildProc};
use crate::net::Conn;
use crate::report::{mono_ns, peak_rss_mb, trace_anchor_ns, Report, Spans, Tally};
use crate::stats::{lateness_ns, median, quantile, schedule, stream_rng, tail_percentile, QUIET_Q};
use crate::{Curve8, RunCfg, CATCH_UP_DEADLINE_NS};

/// Mean gap between scheduled epochs (about 10 epochs/s).
const MEAN_GAP_NS: u64 = 100_000_000;
/// A release later than this after its due instant counts as failed.
const RELEASE_DEADLINE_NS: u64 = 1_000_000_000;
/// Pre-signed history epochs of `catchup-under-publish`.
const HISTORY: u64 = 320;
/// Epochs one catch-up replays: the newest `SPAN` of the history.
const SPAN: u64 = 256;
/// Journal rotation threshold (`tred --segment-bytes`) of
/// `catchup-under-publish`: about 80 records per sealed segment.
const SEGMENT_BYTES: u64 = 8 << 10;
/// Replays of the round's newest epochs each `live-tree` receiver makes
/// from its relay after the live phase.
const POST_CATCH_UPS: usize = 50;
/// Sign calls timed per traced round.
const SIGN_SAMPLES: u64 = 16;

/// Which networked workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// root → 2 relays → 2 receivers.
    Tree,
    /// root with sealed history; catch-up client + live receiver.
    CatchUp,
}

impl Shape {
    /// Set-ups per run. Every daemon's 5 ms sleep loops start at a fresh
    /// phase in each round, and the gap between two loops' phases holds
    /// for a whole round, so more, shorter rounds average more phase
    /// draws; the restarts and post-live replays that end each round are
    /// spread over more of the run. A `catchup-under-publish` set-up signs
    /// and journals the whole history (~1.4 s), so it makes fewer.
    fn rounds(self) -> usize {
        match self {
            Shape::Tree => 10,
            Shape::CatchUp => 6,
        }
    }

    /// Root restarts timed per round: a `live-tree` restart reads a short
    /// journal (~20 ms), a `catchup-under-publish` one the whole history
    /// (~200 ms).
    fn restarts(self) -> usize {
        match self {
            Shape::Tree => 12,
            Shape::CatchUp => 6,
        }
    }
}

#[derive(Default)]
struct Round {
    traced: bool,
    setup_s: f64,
    release_ms: Vec<f64>,
    catchup_ms: Vec<f64>,
    restart_s: Vec<f64>,
    seal_ns: Vec<f64>,
    open_ns: Vec<f64>,
    spans: Spans,
    ticker_wait_ms: Vec<f64>,
    append_ms: Vec<f64>,
    b2r_ms: Vec<f64>,
    dwell_ms: Vec<f64>,
    relay_verify_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    verify_batches: u64,
    epochs_relayed: u64,
    replay_frames: u64,
    catch_up_busy_ns: u64,
    shed: u64,
    catch_up_requests: u64,
    evicted: u64,
    fsyncs: u64,
    appends: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn sleep_until(t: u64) {
    loop {
        let now = mono_ns();
        if now >= t {
            return;
        }
        std::thread::sleep(Duration::from_nanos(t - now));
    }
}

/// `frames_offered == written + abandoned + evicted + dropped`, with
/// nothing left in flight once the daemon has shut down.
fn conserved(offered: u64, written: u64, abandoned: u64, evicted: u64, dropped: u64) -> bool {
    offered == written + abandoned + evicted + dropped
}

fn root_conserved(s: &TredStats) -> (bool, String) {
    let l = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::SeqCst);
    let (o, w, a, e, d) = (
        l(&s.frames_offered),
        l(&s.frames_written),
        l(&s.frames_abandoned),
        l(&s.evicted),
        l(&s.frames_dropped),
    );
    (
        conserved(o, w, a, e, d) && s.in_flight() == 0,
        format!(
            "root frames offered {o} != written {w} + abandoned {a} + evicted {e} + dropped {d}"
        ),
    )
}

/// Times `count` cold restarts of the root over `dir`: reopen the
/// journal, recover the server, bind the daemon, and fetch the newest
/// epoch through it, byte-equal to what was published.
#[allow(clippy::too_many_arguments)]
fn restarts(
    count: usize,
    curve: Curve8,
    dir: &Path,
    config: JournalConfig,
    keys: &ServerKeyPair<8>,
    clock: &SimClock,
    latest: u64,
    latest_body: &[u8],
    round: &mut Round,
    tally: &mut Tally,
) -> Result<(), String> {
    for _ in 0..count {
        let t0 = mono_ns();
        let (archive, _) = {
            let _span = tre_obs::span("archive.open");
            UpdateArchive::open_durable(dir, curve, config).map_err(|e| format!("reopen: {e}"))?
        };
        let server = TimeServer::recover(
            curve,
            keys.clone(),
            clock.clone(),
            Granularity::Seconds,
            Arc::new(archive),
        );
        let tred = Tred::bind("127.0.0.1:0", curve, server, TredConfig::default())
            .map_err(|e| format!("rebind: {e}"))?;
        let mut served = false;
        if let Ok(mut conn) = Conn::connect(curve, tred.local_addr()) {
            let deadline = mono_ns() + 10_000_000_000;
            let _ = conn.request(curve, latest, latest);
            while !served && mono_ns() < deadline {
                match conn.next_frame() {
                    Ok(Some(f)) => served = f.tag == TAG_KEY_UPDATE && f.body == latest_body,
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
        }
        let dt = mono_ns() - t0;
        tred.shutdown();
        tally.op(served);
        round.restart_s.push(dt as f64 / 1e9);
    }
    Ok(())
}

fn run_round(
    shape: Shape,
    cfg: &RunCfg,
    r: usize,
    traced: bool,
    tally: &mut Tally,
) -> Result<Round, String> {
    let curve = tre_pairing::toy64();
    let mut round = Round {
        traced,
        ..Round::default()
    };
    let t_setup = mono_ns();
    let dir = cfg.workdir.join(format!("round-{r}"));
    let _ = std::fs::remove_dir_all(&dir);
    let keys = ServerKeyPair::generate(curve, &mut stream_rng(cfg.seed, "server-key", r));
    let pk = *keys.public();
    let clock = SimClock::new();
    let jconfig = match shape {
        Shape::Tree => JournalConfig::default(),
        Shape::CatchUp => JournalConfig {
            max_segment_bytes: SEGMENT_BYTES,
            ..JournalConfig::default()
        },
    };
    let (archive, _) = UpdateArchive::open_durable(&dir, curve, jconfig)
        .map_err(|e| format!("open journal: {e}"))?;
    let archive = Arc::new(archive);
    if shape == Shape::CatchUp {
        // History signing: every epoch signed and journaled, then the
        // active segment sealed so the replayed range is all on disk.
        let signer = TimeServer::new(curve, keys.clone(), clock.clone(), Granularity::Seconds);
        clock.set(HISTORY - 1);
        for epoch in 0..HISTORY {
            archive.publish(epoch, signer.issue_for_epoch(epoch).expect("due"));
        }
        archive
            .rotate_journal()
            .map_err(|e| format!("seal history: {e}"))?;
    }
    let server = TimeServer::recover(
        curve,
        keys.clone(),
        clock.clone(),
        Granularity::Seconds,
        Arc::clone(&archive),
    );
    let sink = TraceSink::new();
    let tred = if traced {
        Tred::bind_traced(
            "127.0.0.1:0",
            curve,
            server,
            TredConfig::default(),
            sink.clone(),
        )
    } else {
        Tred::bind("127.0.0.1:0", curve, server, TredConfig::default())
    }
    .map_err(|e| format!("bind root: {e}"))?;
    let root = tred.local_addr().to_string();
    let key = key_hex(curve, &pk);
    let trace_flag = |mut v: Vec<String>| {
        if traced {
            v.push("--trace".into());
        }
        v
    };

    let mut relays = Vec::new();
    let mut live_addrs = Vec::new();
    match shape {
        Shape::Tree => {
            for i in 0..2u64 {
                let args = trace_flag(vec![
                    "--upstream".into(),
                    root.clone(),
                    "--server-key".into(),
                    key.clone(),
                    "--seed".into(),
                    (cfg.seed ^ (i + 1)).to_string(),
                ]);
                let mut relay = ChildProc::spawn("relay", &args)?;
                live_addrs.push(relay.wait_for("ready ", Duration::from_secs(60))?);
                relays.push(relay);
            }
        }
        Shape::CatchUp => live_addrs.push(root.clone()),
    }

    let window_ns = (cfg.seconds * 1e9 / shape.rounds() as f64) as u64;
    let due_off = schedule(
        &mut stream_rng(cfg.seed, "schedule", r),
        MEAN_GAP_NS,
        window_ns,
    );
    if due_off.is_empty() {
        return Err("--seconds too short for one epoch per round".into());
    }
    let first = match shape {
        Shape::Tree => 1,
        Shape::CatchUp => HISTORY,
    };
    let last = first + due_off.len() as u64 - 1;
    let mut args = trace_flag(vec![
        "--server-key".into(),
        key,
        "--seed".into(),
        cfg.seed.to_string(),
        "--first".into(),
        first.to_string(),
        "--last".into(),
        last.to_string(),
    ]);
    for a in &live_addrs {
        args.extend(["--live".to_string(), a.clone()]);
    }
    match shape {
        Shape::Tree => args.extend(["--post-catch-ups".to_string(), POST_CATCH_UPS.to_string()]),
        Shape::CatchUp => args.extend([
            "--replay".to_string(),
            root.clone(),
            "--replay-from".to_string(),
            (HISTORY - SPAN).to_string(),
            "--replay-to".to_string(),
            (HISTORY - 1).to_string(),
        ]),
    }
    let mut recv = ChildProc::spawn("recv", &args)?;
    recv.wait_for("ready", Duration::from_secs(120))?;
    round.setup_s = (mono_ns() - t_setup) as f64 / 1e9;

    // Open loop: advance the clock at each due instant, whatever the
    // system is doing.
    let anchor = trace_anchor_ns();
    let start = mono_ns() + 20_000_000;
    let due: Vec<u64> = due_off.iter().map(|d| start + d).collect();
    let mut actual = Vec::with_capacity(due.len());
    for d in &due {
        sleep_until(*d);
        clock.advance(1);
        actual.push(mono_ns());
    }
    round.lag_ms = lateness_ns(&due, &actual).into_iter().map(ms).collect();
    let grace = Duration::from_nanos(RELEASE_DEADLINE_NS + 2_000_000_000);
    for _ in &live_addrs {
        if recv.wait_for("live_done", grace).is_err() {
            break;
        }
    }
    let recv_lines = recv.finish(Duration::from_secs(120))?;
    let mut relay_lines = Vec::new();
    for relay in relays {
        relay_lines.push(relay.finish(Duration::from_secs(60))?);
    }

    // Receiver report.
    let mut done: std::collections::HashMap<(usize, u64), (u64, u64, bool)> = Default::default();
    let mut cu_busy = 0u64;
    for line in &recv_lines {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        match f.first().copied() {
            Some("rel") => {
                done.insert((num(1) as usize, num(2)), (num(3), num(4), num(5) == 1));
            }
            Some("open") => {
                tally.op(num(2) == 1);
                round.open_ns.push(num(1) as f64);
            }
            Some("seal") => {
                tally.op(true);
                round.seal_ns.push(num(1) as f64);
            }
            Some("cu") => {
                let ok = num(2) == 1 && num(1) <= CATCH_UP_DEADLINE_NS;
                tally.op(ok);
                cu_busy += num(1);
                round.catchup_ms.push(if ok {
                    ms(num(1))
                } else {
                    ms(CATCH_UP_DEADLINE_NS)
                });
            }
            Some("fail") => {
                eprintln!("perfbench: {line}");
                tally.op(false);
            }
            Some("span") => {
                round.spans.parse_line(&f[1..]);
            }
            _ => {}
        }
    }
    round.catch_up_busy_ns = cu_busy;
    for (c, _) in live_addrs.iter().enumerate() {
        for (k, epoch) in (first..=last).enumerate() {
            let ok = match done.get(&(c, epoch)) {
                Some(&(read_ns, done_ns, true))
                    if done_ns.saturating_sub(due[k]) <= RELEASE_DEADLINE_NS =>
                {
                    round.release_ms.push(ms(done_ns.saturating_sub(due[k])));
                    if traced && shape == Shape::CatchUp {
                        if let Some(b) = sink.epoch_trace(epoch).and_then(|t| t.stamps[2]) {
                            round.b2r_ms.push(ms(read_ns.saturating_sub(b + anchor)));
                        }
                    }
                    true
                }
                _ => {
                    round.release_ms.push(ms(RELEASE_DEADLINE_NS));
                    false
                }
            };
            if !ok {
                eprintln!("perfbench: receiver {c} missed or overran epoch {epoch}");
            }
            tally.op(ok);
        }
    }

    // Relay reports.
    for (i, lines) in relay_lines.iter().enumerate() {
        let mut stat = std::collections::HashMap::new();
        for line in lines {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            match f.first().copied() {
                Some("stat") => {
                    stat.insert(f.get(1).copied().unwrap_or("").to_string(), num(2));
                }
                Some("first_byte") => {
                    let epoch = num(1);
                    if (first..=last).contains(&epoch) {
                        if let Some(b) = sink.epoch_trace(epoch).and_then(|t| t.stamps[2]) {
                            round.b2r_ms.push(ms(num(2).saturating_sub(b + anchor)));
                        }
                    }
                }
                Some("dwell") if (first..=last).contains(&num(1)) => {
                    round.dwell_ms.push(ms(num(2)))
                }
                Some("verify") => {
                    tally.check(num(2) == 1, || {
                        format!("relay {i} timed verify rejected a relayed update")
                    });
                    round.relay_verify_ms.push(ms(num(1)));
                }
                _ => {}
            }
        }
        let s = |k: &str| stat.get(k).copied().unwrap_or(0);
        tally.check(
            conserved(
                s("frames_offered"),
                s("frames_written"),
                s("frames_abandoned"),
                s("evicted"),
                s("frames_dropped"),
            ),
            || format!("relay {i} frame conservation broken: {stat:?}"),
        );
        tally.check(
            s("epochs_relayed") == last + 1 && s("updates_rejected") == 0,
            || {
                format!(
                    "relay {i} relayed {} of {} epochs ({} rejected)",
                    s("epochs_relayed"),
                    last + 1,
                    s("updates_rejected")
                )
            },
        );
        tally.check(s("verify_batches") <= s("epochs_relayed"), || {
            format!(
                "relay {i} ran {} verifications for {} epochs",
                s("verify_batches"),
                s("epochs_relayed")
            )
        });
        round.verify_batches += s("verify_batches");
        round.epochs_relayed += s("epochs_relayed");
        round.replay_frames += s("catch_up_replies");
        round.shed += s("catch_up_shed");
        round.catch_up_requests += s("catch_up_requests");
        round.evicted += s("evicted");
    }

    // Root-side stamps and counters.
    let stats = tred.stats();
    if traced {
        for (k, epoch) in (first..=last).enumerate() {
            let Some(t) = sink.epoch_trace(epoch) else {
                continue;
            };
            let idx = |s: Stage| Stage::ALL.iter().position(|x| *x == s).unwrap();
            if let Some(p) = t.stamps[idx(Stage::Publish)] {
                round
                    .ticker_wait_ms
                    .push(ms((p + anchor).saturating_sub(actual[k])));
                if let Some(j) = t.stamps[idx(Stage::JournalFsync)] {
                    round.append_ms.push(ms(j.saturating_sub(p)));
                }
            }
        }
        tre_obs::enable();
        let (lo, hi) = match shape {
            Shape::Tree => (first, last),
            Shape::CatchUp => (HISTORY - SPAN, HISTORY - 1),
        };
        let chunk = TredConfig::default().catch_up.chunk;
        for _ in 0..16 {
            let _span = tre_obs::span("archive.read_chunk");
            let (got, _) = archive.read_range_chunk_raw(curve, lo, hi, chunk);
            assert!(!got.is_empty());
        }
        let signer = TimeServer::new(curve, keys.clone(), clock.clone(), Granularity::Seconds);
        for epoch in first..first + SIGN_SAMPLES {
            let _span = tre_obs::span("server.sign");
            let _ = signer.issue_for_epoch(epoch);
        }
        round.spans.absorb_trace(&tre_obs::finish());
    }
    if shape == Shape::CatchUp {
        round.replay_frames += stats.catch_up_replies.load(Ordering::SeqCst);
        round.shed += stats.catch_up_shed.load(Ordering::SeqCst);
        round.catch_up_requests += stats.catch_up_requests.load(Ordering::SeqCst);
    }
    round.evicted += stats.evicted.load(Ordering::SeqCst);
    if let Some(js) = archive.journal_stats() {
        round.fsyncs = js.fsyncs;
        round.appends = js.appends;
    }
    let latest_body = {
        let mut b = Vec::new();
        archive
            .get(last)
            .ok_or("newest epoch not archived")?
            .write_body(curve, &mut b);
        b
    };
    tally.check(archive.latest_epoch() == Some(last), || {
        format!(
            "root archived up to {:?}, scheduled {last}",
            archive.latest_epoch()
        )
    });
    drop(archive);
    tred.shutdown();
    let (ok, msg) = root_conserved(&stats);
    tally.check(ok, || msg);

    if traced {
        tre_obs::enable();
    }
    let restarted = restarts(
        shape.restarts(),
        curve,
        &dir,
        jconfig,
        &keys,
        &clock,
        last,
        &latest_body,
        &mut round,
        tally,
    );
    if traced {
        round.spans.absorb_trace(&tre_obs::finish());
    }
    let _ = std::fs::remove_dir_all(&dir);
    restarted?;
    eprintln!(
        "perfbench: round {r}: setup {:.3} s, release p50 {:.2} ms over {}, catch-up p50 {:.3} ms over {}, open p50 {:.3} ms",
        round.setup_s,
        median(&round.release_ms).unwrap_or(0.0),
        round.release_ms.len(),
        median(&round.catchup_ms).unwrap_or(0.0),
        round.catchup_ms.len(),
        median(&round.open_ns).unwrap_or(0.0) / 1e6
    );
    Ok(round)
}

fn pooled<T: Clone>(rounds: &[&Round], f: impl Fn(&Round) -> &Vec<T>) -> Vec<T> {
    rounds.iter().flat_map(|r| f(r).iter().cloned()).collect()
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("too few samples for {what}"))
}

/// Runs one networked workload and prints its result.
pub fn run(shape: Shape, cfg: &RunCfg) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    for r in 0..shape.rounds() {
        // A traced run leaves every other round untraced: the difference
        // between the two halves is the tracing overhead.
        let traced = cfg.trace && r % 2 == 0;
        rounds.push(run_round(shape, cfg, r, traced, &mut tally)?);
    }
    let mut report = Report::new();
    if !cfg.trace {
        let all: Vec<&Round> = rounds.iter().collect();
        let release = pooled(&all, |r| &r.release_ms);
        let catchup = pooled(&all, |r| &r.catchup_ms);
        report.add(
            "release_ms_p50",
            need(median(&release), "release p50")?,
            "ms",
        );
        report.note_tail("release_ms", &release);
        report.add(
            "catchup_ms_p50",
            need(median(&catchup), "catch-up p50")?,
            "ms",
        );
        report.note_tail("catchup_ms", &catchup);
        // Every restart of a round reopens the same journal: fixed work.
        report.add(
            "restart_s",
            need(
                quantile(&pooled(&all, |r| &r.restart_s), QUIET_Q),
                "restart",
            )?,
            "s",
        );
        report.add("rss_mb", peak_rss_mb(), "MiB");
        // Closed-loop calls of one kind are the same work: read at the
        // quiet quantile, as on `seal-open`.
        let per_s = |ns: Option<f64>| ns.map(|ns| 1e9 / ns);
        let quiet = |f: fn(&Round) -> &Vec<f64>| quantile(&pooled(&all, f), QUIET_Q);
        report.add(
            "seal_per_s",
            need(per_s(quiet(|r| &r.seal_ns)), "seal")?,
            "1/s",
        );
        report.add(
            "open_per_s",
            need(per_s(quiet(|r| &r.open_ns)), "open")?,
            "1/s",
        );
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        report.add("setup_s", need(median(&setups), "setup")?, "s");
    } else {
        let mut spans = Spans::default();
        for r in &mut rounds {
            spans.extend(std::mem::take(&mut r.spans));
        }
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
        let sum = |f: &dyn Fn(&Round) -> u64| traced.iter().map(|r| f(r)).sum::<u64>();
        let release_p50 = med(pooled(&traced, |r| &r.release_ms));
        let primary = |rs: &[&Round]| match shape {
            Shape::Tree => med(pooled(rs, |r| &r.release_ms)),
            Shape::CatchUp => med(pooled(rs, |r| &r.catchup_ms)),
        };
        let relay_verify = med(pooled(&traced, |r| &r.relay_verify_ms));
        let busy = spans.median_ms("server.sign")
            + med(pooled(&traced, |r| &r.append_ms))
            + if shape == Shape::Tree {
                relay_verify
            } else {
                0.0
            }
            + spans.median_ms("wire.decode")
            + spans.median_ms("core.verify")
            + spans.median_ms("core.open");
        add_layers(
            &mut report,
            &spans,
            Layers {
                append_ms: med(pooled(&traced, |r| &r.append_ms)),
                fsyncs_per_epoch: sum(&|r| r.fsyncs) as f64 / sum(&|r| r.appends).max(1) as f64,
                ticker_wait_ms: med(pooled(&traced, |r| &r.ticker_wait_ms)),
                b2r_ms: med(pooled(&traced, |r| &r.b2r_ms)),
                replay_frames_per_s: sum(&|r| r.replay_frames) as f64
                    / (sum(&|r| r.catch_up_busy_ns).max(1) as f64 / 1e9),
                shed_ratio: sum(&|r| r.shed) as f64 / sum(&|r| r.catch_up_requests).max(1) as f64,
                evicted: sum(&|r| r.evicted) as f64,
                dwell_ms: med(pooled(&traced, |r| &r.dwell_ms)),
                relay_verify_ms: relay_verify,
                verifies_per_epoch: sum(&|r| r.verify_batches) as f64
                    / sum(&|r| r.epochs_relayed).max(1) as f64,
                release_wait_ms: release_p50 - busy,
                lag_ms_p95: tail_percentile(&pooled(&traced, |r| &r.lag_ms), 0.95)
                    .unwrap_or_else(|| med(pooled(&traced, |r| &r.lag_ms))),
                overhead_pct: (primary(&traced) / primary(&untraced).max(1e-9) - 1.0) * 100.0,
            },
        );
    }
    report.print(&tally);
    Ok(())
}

/// Per-layer figures a workload measured outside spans.
#[derive(Default)]
pub struct Layers {
    pub append_ms: f64,
    pub fsyncs_per_epoch: f64,
    pub ticker_wait_ms: f64,
    pub b2r_ms: f64,
    pub replay_frames_per_s: f64,
    pub shed_ratio: f64,
    pub evicted: f64,
    pub dwell_ms: f64,
    pub relay_verify_ms: f64,
    pub verifies_per_epoch: f64,
    pub release_wait_ms: f64,
    pub lag_ms_p95: f64,
    pub overhead_pct: f64,
}

/// Adds every per-layer metric, in `BENCHMARK.json` order. A layer a
/// workload does not exercise reports 0.
pub fn add_layers(report: &mut Report, spans: &Spans, l: Layers) {
    report.add("server.sign_ms", spans.median_ms("server.sign"), "ms");
    report.add("archive.append_ms", l.append_ms, "ms");
    report.add("archive.fsyncs_per_epoch", l.fsyncs_per_epoch, "count");
    report.add(
        "archive.read_chunk_us",
        spans.median_ms("archive.read_chunk") * 1e3,
        "us",
    );
    report.add("archive.open_ms", spans.median_ms("archive.open"), "ms");
    report.add("tcp.ticker_wait_ms", l.ticker_wait_ms, "ms");
    report.add("evloop.broadcast_to_read_ms", l.b2r_ms, "ms");
    report.add("evloop.replay_frames_per_s", l.replay_frames_per_s, "1/s");
    report.add("evloop.shed_ratio", l.shed_ratio, "ratio");
    report.add("evloop.evicted", l.evicted, "count");
    report.add("relay.dwell_ms", l.dwell_ms, "ms");
    report.add("relay.verify_ms", l.relay_verify_ms, "ms");
    report.add("relay.verifies_per_epoch", l.verifies_per_epoch, "count");
    report.add("wire.decode_us", spans.median_ms("wire.decode") * 1e3, "us");
    report.add("core.verify_ms", spans.median_ms("core.verify"), "ms");
    report.add("core.open_ms", spans.median_ms("core.open"), "ms");
    report.add("core.seal_hit_ms", spans.median_ms("core.seal_hit"), "ms");
    report.add("core.seal_miss_ms", spans.median_ms("core.seal_miss"), "ms");
    report.add(
        "pairing.pairings_per_open",
        spans.mean_of("core.open", |s| s.pairings),
        "count",
    );
    report.add(
        "pairing.fp_muls_per_open",
        spans.mean_of("core.open", |s| s.fp_muls),
        "count",
    );
    let seals = spans.get("core.seal_hit").len() + spans.get("core.seal_miss").len();
    let per_seal = |f: fn(&crate::report::SpanSample) -> u64| {
        let total: u64 = spans
            .get("core.seal_hit")
            .iter()
            .chain(spans.get("core.seal_miss"))
            .map(f)
            .sum();
        total as f64 / seals.max(1) as f64
    };
    report.add("pairing.fp_muls_per_seal", per_seal(|s| s.fp_muls), "count");
    report.add(
        "pairing.h2c_iters_per_seal",
        per_seal(|s| s.h2c_iters),
        "count",
    );
    report.add("release.wait_ms", l.release_wait_ms, "ms");
    report.add("gen.lag_ms_p95", l.lag_ms_p95, "ms");
    report.add("trace.overhead_pct", l.overhead_pct, "%");
}
