//! The live telemetry plane, end to end: a traced `tred` daemon exposes
//! its unified registry over the minimal HTTP exposition endpoint while
//! a chaos proxy batters the broadcast path, and the scraped counters
//! must stay *consistent* throughout:
//!
//! * every scrape parses back through `Registry::parse_prometheus` and
//!   counters are monotone non-decreasing across scrapes;
//! * the delivery-conservation identity (`frames_offered` equals
//!   written + abandoned + evicted + dropped + in-flight) never
//!   over-resolves mid-run and balances exactly at quiescence;
//! * on a clean rig, the per-epoch stage deltas telescope to the
//!   end-to-end latency (attribution conservation), and the decoded
//!   wire trace carries the right epoch and hop count;
//! * a journaling daemon's scrape carries its journal, archive-read and
//!   subscriber series, every family has a `# HELP` line, and the
//!   exported name set of a traced, journaling `tred` plus a `trerelay`
//!   matches the committed list in `tests/vectors/metric_names.txt`.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tre::obs::Registry;
use tre::prelude::*;
use tre::server::{
    feed, ChaosProxy, Fault, FaultPlan, JournalConfig, Relay, RelayConfig, SupervisedFeed,
    SupervisorConfig, TcpFeed, TelemetryServer, TelemetrySnapshot, TraceSink, Tred, TredConfig,
    UpdateArchive,
};

const DEADLINE: Duration = Duration::from_secs(30);

/// Real-time socket rigs take turns (see `live_tcp.rs`).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Minimal HTTP/1.1 GET over a plain socket: `(status, body)`.
fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(2000)))?;
    stream.set_write_timeout(Some(Duration::from_millis(2000)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

/// The exposition plane a `tred --telemetry` process runs: the daemon's
/// own export, served under the `tred` prefix.
fn serve_telemetry(tred: &Tred<8>) -> TelemetryServer {
    TelemetryServer::bind("127.0.0.1:0", tred.exporter().snapshot("tred"))
        .expect("bind exposition endpoint")
}

/// One `/metrics` scrape of `snapshot` served over HTTP.
fn scrape(snapshot: TelemetrySnapshot) -> String {
    let server = TelemetryServer::bind("127.0.0.1:0", snapshot).expect("bind exposition endpoint");
    let (status, body) = http_get(&server.local_addr().to_string(), "/metrics").expect("scrape");
    assert_eq!(status, 200);
    server.shutdown();
    body
}

/// One consistency probe of a scraped registry against the previous
/// scrape: counters monotone, resolution never exceeds what was offered.
fn check_scrape(registry: &Registry, previous: &mut Vec<(String, u64)>) {
    let offered = registry.counter("tred_frames_offered");
    let resolved = registry.counter("tred_frames_written")
        + registry.counter("tred_frames_abandoned")
        + registry.counter("tred_evicted")
        + registry.counter("tred_frames_dropped");
    assert!(
        resolved <= offered,
        "scrape over-resolved: {resolved} resolved of {offered} offered"
    );
    for (name, before) in previous.iter() {
        let now = registry.counter(name);
        assert!(
            now >= *before,
            "counter {name} went backwards: {before} -> {now}"
        );
    }
    *previous = registry
        .counters()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
}

#[test]
fn telemetry_endpoint_stays_consistent_during_chaos() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const EPOCHS: u64 = 6;
    const CLIENTS: usize = 3;
    let curve = tre::pairing::toy64();
    let mut rng = rand::thread_rng();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
    let sink = TraceSink::new();
    let tred = Tred::bind_traced(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig::default(),
        sink.clone(),
    )
    .unwrap();
    let spk = *tred.public_key();
    let telemetry = serve_telemetry(&tred);
    let http = telemetry.local_addr().to_string();

    let plan = FaultPlan::new()
        .at(
            40,
            Fault::LatencySpike {
                delay_ms: 20,
                for_ms: 100,
            },
        )
        .at(160, Fault::TornFrame { for_ms: 80 })
        .at(290, Fault::ConnReset);
    let proxy = ChaosProxy::bind("127.0.0.1:0", tred.local_addr(), &plan, 18).unwrap();

    let feed: TcpFeed<8> = TcpFeed::new(curve, proxy.local_addr()).with_clock(clock.clone());
    let mut feed = SupervisedFeed::new(feed, Granularity::Seconds, SupervisorConfig::default(), 18);
    feed.set_trace_sink(sink.clone());
    let mut clients: Vec<ReceiverClient<8>> = (0..CLIENTS)
        .map(|_| {
            ReceiverClient::new(curve, spk, UserKeyPair::generate(curve, &spk, &mut rng))
                .with_trace_sink(sink.clone())
        })
        .collect();
    let subs: Vec<_> = clients.iter().map(|_| feed.subscribe()).collect();
    let start = Instant::now();
    while tred.subscriber_count() < CLIENTS && start.elapsed() < DEADLINE {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(tred.subscriber_count(), CLIENTS, "subscribers bridged");

    let g = Granularity::Seconds;
    for (i, c) in clients.iter_mut().enumerate() {
        let sender = Sender::new(curve, &spk, c.public_key()).unwrap();
        for epoch in 1..=EPOCHS {
            let ct = sender.encrypt(
                &g.tag_for_epoch(epoch),
                format!("m-{i}-{epoch}").as_bytes(),
                &mut rng,
            );
            c.receive_ciphertext(ct, 0);
        }
    }

    // Drive one epoch per 50ms, scraping the endpoint throughout the
    // fault windows and checking every scrape for consistency.
    let mut previous = Vec::new();
    let mut scrapes = 0u32;
    for _ in 1..=EPOCHS {
        clock.advance(1);
        let slice = Instant::now();
        while slice.elapsed() < Duration::from_millis(50) {
            for (c, sub) in clients.iter_mut().zip(&subs) {
                c.pump(&mut feed, *sub);
            }
            let (status, body) = http_get(&http, "/metrics").expect("scrape during chaos");
            assert_eq!(status, 200, "exposition endpoint up during faults");
            let registry = Registry::parse_prometheus(&body).expect("scrape parses");
            check_scrape(&registry, &mut previous);
            scrapes += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert!(scrapes >= EPOCHS as u32, "scraped throughout the run");

    // Settle: faults clear, supervision repairs, everyone converges.
    let start = Instant::now();
    while clients.iter().any(|c| c.opened().len() < EPOCHS as usize) && start.elapsed() < DEADLINE {
        for (c, sub) in clients.iter_mut().zip(&subs) {
            c.pump(&mut feed, *sub);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        clients.iter().all(|c| c.opened().len() == EPOCHS as usize),
        "all clients settled through the chaos"
    );

    // Quiescent scrape: probes healthy, the conservation identity
    // balances exactly, and the trace plane saw every epoch.
    let (status, _) = http_get(&http, "/healthz").unwrap();
    assert_eq!(status, 200, "/healthz");
    let (status, _) = http_get(&http, "/readyz").unwrap();
    assert_eq!(status, 200, "/readyz");
    let (status, json) = http_get(&http, "/metrics.json").unwrap();
    assert_eq!(status, 200, "/metrics.json");
    assert!(json.contains("tred_frames_offered"), "JSON view exports");

    let (_, body) = http_get(&http, "/metrics").unwrap();
    let registry = Registry::parse_prometheus(&body).unwrap();
    let offered = registry.counter("tred_frames_offered");
    let resolved = registry.counter("tred_frames_written")
        + registry.counter("tred_frames_abandoned")
        + registry.counter("tred_evicted")
        + registry.counter("tred_frames_dropped");
    assert_eq!(
        offered, resolved,
        "frame conservation balances at quiescence (in-flight 0)"
    );
    assert_eq!(registry.gauge("tred_frames_in_flight"), 0, "nothing stuck");
    assert!(
        registry.counter("tred_trace_epochs_traced") >= EPOCHS,
        "every epoch traced"
    );
    assert!(
        registry.counter("tred_trace_traces_emitted") >= EPOCHS,
        "trailers emitted on the wire"
    );

    telemetry.shutdown();
    proxy.shutdown();
    tred.shutdown();
}

#[test]
fn stage_attribution_conserves_on_a_clean_live_rig() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const EPOCHS: u64 = 4;
    const CLIENTS: usize = 2;
    let curve = tre::pairing::toy64();
    let mut rng = rand::thread_rng();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
    let sink = TraceSink::new();
    let tred = Tred::bind_traced(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig::default(),
        sink.clone(),
    )
    .unwrap();
    let spk = *tred.public_key();

    let feed: TcpFeed<8> = TcpFeed::new(curve, tred.local_addr()).with_clock(clock.clone());
    let mut feed = SupervisedFeed::new(feed, Granularity::Seconds, SupervisorConfig::default(), 7);
    feed.set_trace_sink(sink.clone());
    let mut clients: Vec<ReceiverClient<8>> = (0..CLIENTS)
        .map(|_| {
            ReceiverClient::new(curve, spk, UserKeyPair::generate(curve, &spk, &mut rng))
                .with_trace_sink(sink.clone())
        })
        .collect();
    let subs: Vec<_> = clients.iter().map(|_| feed.subscribe()).collect();
    let start = Instant::now();
    while tred.subscriber_count() < CLIENTS && start.elapsed() < DEADLINE {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(tred.subscriber_count(), CLIENTS, "subscribers bridged");

    // Every client holds one sealed message per epoch, epoch 0 included
    // (due at boot, so it reaches late connectors via catch-up).
    let g = Granularity::Seconds;
    for (i, c) in clients.iter_mut().enumerate() {
        let sender = Sender::new(curve, &spk, c.public_key()).unwrap();
        for epoch in 0..=EPOCHS {
            let ct = sender.encrypt(
                &g.tag_for_epoch(epoch),
                format!("m-{i}-{epoch}").as_bytes(),
                &mut rng,
            );
            c.receive_ciphertext(ct, 0);
        }
    }

    for _ in 1..=EPOCHS {
        clock.advance(1);
        let slice = Instant::now();
        while slice.elapsed() < Duration::from_millis(30) {
            for (c, sub) in clients.iter_mut().zip(&subs) {
                c.pump(&mut feed, *sub);
            }
            std::thread::sleep(Duration::from_millis(3));
        }
    }
    let want = (EPOCHS + 1) as usize;
    let start = Instant::now();
    while clients.iter().any(|c| c.opened().len() < want) && start.elapsed() < DEADLINE {
        for (c, sub) in clients.iter_mut().zip(&subs) {
            c.pump(&mut feed, *sub);
        }
        std::thread::sleep(Duration::from_millis(3));
    }
    assert!(
        clients.iter().all(|c| c.opened().len() == want),
        "all clients opened every epoch"
    );

    // Attribution conservation: every stage stamped, and the per-stage
    // deltas telescope to the end-to-end latency. Each delta is floored
    // to whole µs, so the sum may undershoot by at most 1µs/transition.
    for epoch in 0..=EPOCHS {
        let trace = sink.epoch_trace(epoch).expect("epoch traced");
        let deltas = trace.stage_deltas_us();
        assert!(
            deltas.iter().all(Option::is_some),
            "epoch {epoch}: missing stage stamp: {deltas:?}"
        );
        let sum: u64 = deltas.iter().map(|d| d.unwrap()).sum();
        let e2e = trace.end_to_end_us().unwrap();
        assert!(
            sum <= e2e && e2e - sum <= 5,
            "epoch {epoch}: stage deltas do not telescope: {sum}µs vs {e2e}µs end-to-end"
        );

        // The wire trace context survived to the feed: right epoch,
        // single-daemon origin, and at most one process boundary (live
        // broadcast = 0 hops; a connect-race catch-up replay = 1).
        let ctx = feed.trace_for(epoch).expect("trailer decoded");
        assert_eq!(ctx.epoch, epoch);
        assert_eq!(ctx.origin, 0, "single daemon origin");
        assert!(ctx.hops <= 1, "clean rig crosses at most one boundary");
    }

    // The stage histograms carry one sample per epoch for every
    // transition — the exported table is complete, not ragged.
    let hists = sink.stage_histograms();
    for name in [
        "publish_to_journal_fsync",
        "journal_fsync_to_broadcast",
        "broadcast_to_first_byte",
        "first_byte_to_verified",
        "verified_to_decrypted",
        "end_to_end",
    ] {
        assert_eq!(
            hists[name].count(),
            EPOCHS + 1,
            "histogram {name} has one sample per epoch"
        );
    }

    tred.shutdown();
}

/// A fresh scratch directory for one test's journal.
fn journal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tre-telemetry-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls `done` every millisecond until it holds or the deadline passes.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < DEADLINE, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A traced daemon over a durable (journal-backed) archive, as
/// `tred --journal DIR --telemetry ADDR` runs it.
fn durable_traced_tred(dir: &PathBuf, clock: &SimClock) -> Tred<8> {
    let curve = tre::pairing::toy64();
    let (archive, _) =
        UpdateArchive::open_durable(dir, curve, JournalConfig::default()).expect("open journal");
    let keys = ServerKeyPair::generate(curve, &mut rand::thread_rng());
    let server = TimeServer::recover(
        curve,
        keys,
        clock.clone(),
        Granularity::Seconds,
        Arc::new(archive),
    );
    Tred::bind_traced(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig::default(),
        TraceSink::new(),
    )
    .expect("bind tred")
}

/// Every `# TYPE` line of an exposition is preceded by its `# HELP`.
fn assert_every_family_has_help(text: &str) {
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            let help = format!("# HELP {name} ");
            assert!(
                i > 0 && lines[i - 1].starts_with(&help) && lines[i - 1].len() > help.len(),
                "no help text for {name}"
            );
        }
    }
}

/// The `/metrics` of a journaling daemon carries the journal counters,
/// the archive-read counters and the subscriber gauge: the scrape goes
/// through the same export as `Tred::export_into`.
#[test]
fn durable_tred_scrape_exports_journal_and_subscribers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = journal_dir("scrape");
    let clock = SimClock::new();
    let tred = durable_traced_tred(&dir, &clock);
    let telemetry = serve_telemetry(&tred);
    let http = telemetry.local_addr().to_string();
    let mut feed: TcpFeed<8> = TcpFeed::new(tre::pairing::toy64(), tred.local_addr());
    let _sub = feed.subscribe();
    wait_until("one subscriber", || tred.subscriber_count() == 1);
    wait_until("epoch 0 journaled", || {
        tred.archive()
            .journal_stats()
            .is_some_and(|js| js.appends > 0)
    });

    let (status, body) = http_get(&http, "/metrics").expect("scrape");
    assert_eq!(status, 200);
    assert_every_family_has_help(&body);
    let registry = Registry::parse_prometheus(&body).expect("scrape parses");
    assert!(
        registry.counter("tred_journal_appends") > 0,
        "journal counters exported"
    );
    assert!(
        registry
            .counters()
            .any(|(n, _)| n == "tred_archive_lookups"),
        "archive reads exported"
    );
    assert!(
        body.contains("# TYPE tred_subscribers gauge\n"),
        "subscriber gauge exported"
    );
    assert_eq!(registry.gauge("tred_subscribers"), 1);
    assert!(body.contains("# HELP tred_frames_offered Per-subscriber frame offers"));

    telemetry.shutdown();
    tred.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden name list: the `/metrics` of a traced, journaling `tred` with
/// one subscriber (a relay) and of that `trerelay`, served as the
/// binaries serve them, carry exactly the committed metric names. A
/// renamed or dropped field shows up here as a diff.
#[test]
fn exported_metric_names_match_golden_list() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = journal_dir("names");
    let curve = tre::pairing::toy64();
    let clock = SimClock::new();
    let tred = durable_traced_tred(&dir, &clock);
    let sink = tred.trace_sink().expect("traced");
    let upstream = feed::tcp::<8>(curve, tred.local_addr())
        .supervised(Granularity::Seconds, SupervisorConfig::default(), 7)
        .catch_up_from(0)
        .build();
    let relay = Relay::bind(
        "127.0.0.1:0",
        curve,
        *tred.public_key(),
        upstream,
        RelayConfig::default(),
    )
    .expect("bind relay");
    // Quiesce on a fixed trace shape: epoch 0 stamped through broadcast
    // at the root, and relayed (first byte + re-broadcast) by the relay.
    wait_until("the relay subscribed", || tred.subscriber_count() == 1);
    wait_until("epoch 0 broadcast", || {
        sink.epoch_trace(0).is_some_and(|t| t.stamps[2].is_some())
    });
    wait_until("epoch 0 relayed", || {
        relay
            .stats()
            .epochs_relayed
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    });

    let tred_text = scrape(tred.exporter().snapshot("tred"));
    let relay_text = scrape(relay.exporter().snapshot("trerelay"));
    assert_every_family_has_help(&tred_text);
    assert_every_family_has_help(&relay_text);
    let mut registry = Registry::parse_prometheus(&tred_text).expect("tred scrape parses");
    registry.merge(&Registry::parse_prometheus(&relay_text).expect("relay scrape parses"));
    let mut names: Vec<&str> = registry
        .counters()
        .map(|(n, _)| n)
        .chain(registry.gauges().map(|(n, _)| n))
        .chain(registry.histograms().map(|(n, _)| n))
        .collect();
    names.sort_unstable();
    let actual = names.join("\n") + "\n";
    let golden = include_str!("vectors/metric_names.txt");
    assert!(
        actual == golden,
        "exported names differ from tests/vectors/metric_names.txt; exported:\n{actual}"
    );

    relay.shutdown();
    tred.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
