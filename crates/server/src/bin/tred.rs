//! `tred` — the passive time-server broadcast daemon.
//!
//! Boots a [`tre_server::Tred`] on the toy 64-bit curve and drives its
//! epoch clock from real wall time: one epoch per `--interval-ms`.
//! Subscribers connect with [`tre_server::TcpFeed`] (or anything
//! speaking the `tre-wire` framing), receive every key update as it
//! becomes due, and can request archived epochs with a `CatchUpRequest`
//! frame.
//!
//! ```text
//! tred [--addr 127.0.0.1:7100] [--interval-ms 1000] [--epochs N]
//!      [--journal DIR] [--fsync every|every=N|close] [--segment-bytes N] [--retain N]
//! tred --committee-setup K,N --committee-dir DIR
//! tred --member DIR/member-1.trek [--addr ...] [--interval-ms ...] [--epochs N]
//! tred --watch DIR --members 1=HOST:PORT,2=HOST:PORT,... [--epochs N]
//! ```
//!
//! Committee mode runs the server as a live k-of-n threshold committee
//! instead of a single daemon:
//!
//! * `--committee-setup K,N --committee-dir DIR` — dealer setup: splits
//!   a fresh master secret into N Shamir shares, writes the public
//!   roster (master public key + per-member commitments) to
//!   `DIR/roster.trec` and each member's private share key to
//!   `DIR/member-<i>.trek`, then exits. Hand each member file to one
//!   operator; the roster file is public.
//! * `--member FILE` — boots one committee member: a normal broadcast
//!   daemon except every update it publishes is its *share*
//!   `s_i·H1(T)`, framed with its roster index, and it greets each
//!   subscriber with its index. It never holds the master secret.
//! * `--watch DIR --members 1=addr,...` — boots a committee receiver:
//!   dials every member, verifies each share against its roster
//!   commitment, names Byzantine members in per-member verdicts, and
//!   prints each epoch's aggregated full update as soon as any k valid
//!   shares arrive. Any n−k members may be down, partitioned, or
//!   malicious without stopping the stream.
//!
//! Without `--journal` the daemon is ephemeral: a fresh random key pair
//! and an in-memory archive, both lost on exit. With `--journal DIR`
//! the archive is backed by the durable append-only journal in `DIR`
//! (every publish hits disk before it is acked), the server key pair is
//! persisted to `DIR/key.trek`, and a restart — even after `SIGKILL` —
//! recovers the complete archive, the same public key, and resumes
//! publishing at the next epoch. `--fsync` picks the journal durability
//! policy (default `every`: fsync per record); `--segment-bytes N`
//! shrinks the journal rotation threshold (sealed segments become
//! epoch-indexed archive segments that deep catch-ups stream from);
//! `--retain N` compacts journal epochs older than `latest - N` as the
//! daemon runs.
//!
//! With `--epochs N` the daemon publishes epochs up to `N`, prints its
//! counters, and exits (the CI smoke-test mode); without it the daemon
//! runs until killed. The bound address and the server public key (hex,
//! `tre-wire` framed) are printed on startup so clients can be pointed
//! at a `--addr 127.0.0.1:0` ephemeral port.

use std::io::{Read, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use tre_bigint::U256;
use tre_core::{dealer_setup, CommitteeRoster, ServerKeyPair, ServerPublicKey};
use tre_pairing::{toy64, Curve};
use tre_server::{
    CollectorConfig, CommitteeFeed, Feed, FsyncPolicy, Granularity, JournalConfig, SimClock,
    SupervisorConfig, TelemetryServer, TimeServer, TraceSink, Tred, TredConfig, TredExporter,
    UpdateArchive,
};
use tre_wire::Wire;

struct Args {
    addr: String,
    interval: Duration,
    epochs: Option<u64>,
    journal: Option<PathBuf>,
    fsync: FsyncPolicy,
    segment_bytes: Option<u64>,
    retain: Option<u64>,
    committee_setup: Option<(u32, u32)>,
    committee_dir: Option<PathBuf>,
    member: Option<PathBuf>,
    watch: Option<PathBuf>,
    members: Vec<(u32, String)>,
    telemetry: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tred [--addr HOST:PORT] [--interval-ms MS] [--epochs N] \
         [--journal DIR] [--fsync every|every=N|close] [--segment-bytes N] [--retain N] \
         [--telemetry HOST:PORT]\n\
         \x20      tred --committee-setup K,N --committee-dir DIR\n\
         \x20      tred --member FILE [--addr HOST:PORT] [--interval-ms MS] [--epochs N] \
         [--telemetry HOST:PORT]\n\
         \x20      tred --watch DIR --members 1=HOST:PORT,2=HOST:PORT,... [--epochs N]"
    );
    exit(2);
}

fn parse_fsync(s: &str) -> FsyncPolicy {
    match s {
        "every" => FsyncPolicy::EveryRecord,
        "close" => FsyncPolicy::OnClose,
        _ => match s.strip_prefix("every=").and_then(|n| n.parse().ok()) {
            Some(n) if n > 0 => FsyncPolicy::EveryN(n),
            _ => usage(),
        },
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7100".to_string(),
        interval: Duration::from_millis(1000),
        epochs: None,
        journal: None,
        fsync: FsyncPolicy::EveryRecord,
        segment_bytes: None,
        retain: None,
        committee_setup: None,
        committee_dir: None,
        member: None,
        watch: None,
        members: Vec::new(),
        telemetry: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => args.addr = value(),
            "--interval-ms" => {
                args.interval = Duration::from_millis(value().parse().unwrap_or_else(|_| usage()));
            }
            "--epochs" => args.epochs = Some(value().parse().unwrap_or_else(|_| usage())),
            "--journal" => args.journal = Some(PathBuf::from(value())),
            "--fsync" => args.fsync = parse_fsync(&value()),
            "--segment-bytes" => {
                args.segment_bytes = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--retain" => args.retain = Some(value().parse().unwrap_or_else(|_| usage())),
            "--committee-setup" => {
                let v = value();
                let (k, n) = v.split_once(',').unwrap_or_else(|| usage());
                let k = k.trim().parse().unwrap_or_else(|_| usage());
                let n = n.trim().parse().unwrap_or_else(|_| usage());
                args.committee_setup = Some((k, n));
            }
            "--committee-dir" => args.committee_dir = Some(PathBuf::from(value())),
            "--member" => args.member = Some(PathBuf::from(value())),
            "--watch" => args.watch = Some(PathBuf::from(value())),
            "--members" => {
                for entry in value().split(',') {
                    let (idx, addr) = entry.split_once('=').unwrap_or_else(|| usage());
                    let idx = idx.trim().parse().unwrap_or_else(|_| usage());
                    args.members.push((idx, addr.trim().to_string()));
                }
            }
            "--telemetry" => args.telemetry = Some(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.journal.is_none() && args.segment_bytes.is_some() {
        eprintln!("tred: --segment-bytes requires --journal");
        exit(2);
    }
    if args.journal.is_none() && args.retain.is_some() {
        eprintln!("tred: --retain requires --journal");
        exit(2);
    }
    if args.committee_setup.is_some() != args.committee_dir.is_some() {
        eprintln!("tred: --committee-setup and --committee-dir go together");
        exit(2);
    }
    if args.member.is_some() && args.journal.is_some() {
        eprintln!("tred: --member daemons are ephemeral; --journal is not supported");
        exit(2);
    }
    if args.watch.is_some() && args.members.is_empty() {
        eprintln!("tred: --watch requires --members 1=HOST:PORT,...");
        exit(2);
    }
    args
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Loads the persisted server key pair from `DIR/key.trek`, or generates
/// and persists a fresh one. Layout: the public key's canonical body
/// (two curve points) followed by the 32-byte big-endian secret — enough
/// to reconstruct the pair with [`ServerKeyPair::from_secret`], so a
/// restarted daemon signs with the *same* key and old updates keep
/// verifying.
fn load_or_create_keys(curve: &'static Curve<8>, dir: &Path) -> ServerKeyPair<8> {
    let path = dir.join("key.trek");
    let point_bytes = 2 * curve.point_len();
    if let Ok(mut f) = std::fs::File::open(&path) {
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes).expect("read key.trek");
        if bytes.len() != point_bytes + 32 {
            eprintln!(
                "tred: {} is malformed ({} bytes)",
                path.display(),
                bytes.len()
            );
            exit(1);
        }
        let public = ServerPublicKey::read_body(curve, &bytes[..point_bytes]).unwrap_or_else(|e| {
            eprintln!("tred: {} holds a bad public key: {e:?}", path.display());
            exit(1);
        });
        let secret = U256::from_be_bytes(&bytes[point_bytes..]).expect("32-byte secret");
        return ServerKeyPair::from_secret(curve, *public.g(), secret);
    }
    let mut rng = rand::thread_rng();
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let mut bytes = Vec::with_capacity(point_bytes + 32);
    keys.public().write_body(curve, &mut bytes);
    bytes.extend_from_slice(&keys.secret_scalar().to_be_bytes());
    std::fs::create_dir_all(dir).expect("create journal dir");
    write_atomic(&path, &bytes);
    keys
}

/// Writes `bytes` to `path` via a same-directory temp file + rename, so
/// a crash mid-write never leaves a torn key or roster file behind.
fn write_atomic(path: &Path, bytes: &[u8]) {
    let tmp = path.with_extension("tmp");
    {
        let mut f =
            std::fs::File::create(&tmp).unwrap_or_else(|e| panic!("create {}: {e}", tmp.display()));
        f.write_all(bytes).expect("write temp file");
        f.sync_data().expect("fsync temp file");
    }
    std::fs::rename(&tmp, path).unwrap_or_else(|e| panic!("persist {}: {e}", path.display()));
}

/// Dealer setup: splits a fresh master secret into `n` Shamir share
/// keys with threshold `k`, persisting the public roster to
/// `DIR/roster.trec` and member `i`'s private share key to
/// `DIR/member-<i>.trek` (layout: roster index u32 BE, then the same
/// public-body‖secret layout as `key.trek`). The master secret itself
/// is dropped on exit — after setup it exists nowhere.
fn run_committee_setup(curve: &'static Curve<8>, dir: &Path, k: u32, n: u32) -> ! {
    if k == 0 || k > n {
        eprintln!("tred: --committee-setup needs 1 <= K <= N, got {k},{n}");
        exit(2);
    }
    let mut rng = rand::thread_rng();
    let (roster, members) = dealer_setup(curve, k, n, &mut rng);
    std::fs::create_dir_all(dir).expect("create committee dir");
    let mut bytes = Vec::new();
    roster.write_body(curve, &mut bytes);
    write_atomic(&dir.join("roster.trec"), &bytes);
    for member in &members {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&member.index().to_be_bytes());
        member.key_pair().public().write_body(curve, &mut bytes);
        bytes.extend_from_slice(&member.key_pair().secret_scalar().to_be_bytes());
        write_atomic(&dir.join(format!("member-{}.trek", member.index())), &bytes);
    }
    println!(
        "tred: committee {k}-of-{n} dealt into {} — roster.trec plus {n} member-*.trek share keys",
        dir.display()
    );
    println!(
        "tred: committee public key {}",
        hex(&roster.public().wire_bytes(curve))
    );
    exit(0);
}

/// Loads a member share key written by [`run_committee_setup`],
/// returning the roster index and the share key pair.
fn load_member_key(curve: &'static Curve<8>, path: &Path) -> (u32, ServerKeyPair<8>) {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .unwrap_or_else(|e| {
            eprintln!("tred: cannot read {}: {e}", path.display());
            exit(1);
        });
    let point_bytes = 2 * curve.point_len();
    if bytes.len() != 4 + point_bytes + 32 {
        eprintln!(
            "tred: {} is malformed ({} bytes)",
            path.display(),
            bytes.len()
        );
        exit(1);
    }
    let index = u32::from_be_bytes(bytes[..4].try_into().unwrap());
    let public =
        ServerPublicKey::read_body(curve, &bytes[4..4 + point_bytes]).unwrap_or_else(|e| {
            eprintln!("tred: {} holds a bad public key: {e:?}", path.display());
            exit(1);
        });
    let secret = U256::from_be_bytes(&bytes[4 + point_bytes..]).expect("32-byte secret");
    (
        index,
        ServerKeyPair::from_secret(curve, *public.g(), secret),
    )
}

/// Committee receiver: dials every member, verifies shares against the
/// roster, prints each aggregated epoch and any per-member faults, and
/// exits after `--epochs N` aggregations (or runs until killed).
fn run_watch(curve: &'static Curve<8>, dir: &Path, args: &Args) -> ! {
    let roster_path = dir.join("roster.trec");
    let mut bytes = Vec::new();
    std::fs::File::open(&roster_path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .unwrap_or_else(|e| {
            eprintln!("tred: cannot read {}: {e}", roster_path.display());
            exit(1);
        });
    let roster = CommitteeRoster::read_body(curve, &bytes).unwrap_or_else(|e| {
        eprintln!("tred: {} is malformed: {e:?}", roster_path.display());
        exit(1);
    });
    let members: Vec<(u32, SocketAddr)> = args
        .members
        .iter()
        .map(|(idx, addr)| {
            let resolved = addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .unwrap_or_else(|| {
                    eprintln!("tred: cannot resolve member {idx} address {addr}");
                    exit(1);
                });
            (*idx, resolved)
        })
        .collect();
    println!(
        "tred: watching {}-of-{} committee ({} member links)",
        roster.k(),
        roster.n(),
        members.len()
    );
    println!(
        "tred: committee public key {}",
        hex(&roster.public().wire_bytes(curve))
    );
    let k = roster.k();
    let n = roster.n();
    let mut feed = CommitteeFeed::new(
        curve,
        roster,
        Granularity::Seconds,
        &members,
        SupervisorConfig::default(),
        CollectorConfig {
            quorum_timeout: args.interval * 4,
        },
        0x7265_6463, // arbitrary fixed seed for backoff jitter
    );
    let sub = feed.subscribe();
    let mut aggregated = 0u64;
    loop {
        std::thread::sleep(Duration::from_millis(5));
        for (_, update) in feed.poll(sub) {
            let epoch = Granularity::Seconds
                .epoch_of_tag(update.tag())
                .expect("aggregated updates carry canonical epoch tags");
            let faults: Vec<String> = feed
                .verdicts(epoch)
                .iter()
                .filter_map(|v| v.fault.map(|f| format!("member {} {f:?}", v.member)))
                .collect();
            if faults.is_empty() {
                println!("tred: epoch {epoch} aggregated ({k}-of-{n} quorum, all shares clean)");
            } else {
                println!(
                    "tred: epoch {epoch} aggregated ({k}-of-{n} quorum; faults: {})",
                    faults.join(", ")
                );
            }
            aggregated += 1;
        }
        if args.epochs.is_some_and(|limit| aggregated > limit) {
            break;
        }
    }
    let stats = feed.stats();
    println!(
        "tred: done — {} epochs aggregated, {} shares received, {} rejected, {} verify batches, {} quorum timeouts",
        stats.epochs_aggregated,
        stats.shares_received,
        stats.shares_rejected.values().sum::<u64>(),
        stats.verify_batches,
        stats.quorum_timeouts,
    );
    for (member, link) in feed.member_stats() {
        if link.reconnects > 0 {
            println!(
                "tred: member {member} link — {} reconnects",
                link.reconnects
            );
        }
    }
    exit(0);
}

/// Boots the live exposition plane on `addr`, serving the daemon's
/// own export ([`tre_server::TredExporter::snapshot`]): every scrape
/// re-exports the counters, subscriber gauge, journal and archive-read
/// counters, and trace histograms into a fresh registry, so `/metrics`
/// is always a consistent point-in-time view.
fn start_telemetry(addr: &str, exporter: TredExporter<8>) -> TelemetryServer {
    match TelemetryServer::bind(addr, exporter.snapshot("tred")) {
        Ok(server) => {
            println!("tred: telemetry on http://{}", server.local_addr());
            server
        }
        Err(e) => {
            eprintln!("tred: cannot bind telemetry {addr}: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    let curve = toy64();
    if let (Some((k, n)), Some(dir)) = (args.committee_setup, &args.committee_dir) {
        run_committee_setup(curve, dir, k, n);
    }
    if let Some(dir) = &args.watch {
        run_watch(curve, dir, &args);
    }
    let clock = SimClock::new();

    if let Some(path) = &args.member {
        let (index, keys) = load_member_key(curve, path);
        let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
        let bound = match &args.telemetry {
            Some(_) => Tred::bind_member_traced(
                &args.addr,
                curve,
                index,
                server,
                TredConfig::default(),
                TraceSink::new(),
            ),
            None => Tred::bind_member(&args.addr, curve, index, server, TredConfig::default()),
        };
        let tred = match bound {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tred: cannot bind {}: {e}", args.addr);
                exit(1);
            }
        };
        let _telemetry = args
            .telemetry
            .as_ref()
            .map(|addr| start_telemetry(addr, tred.exporter()));
        println!(
            "tred: committee member {index} listening on {}",
            tred.local_addr()
        );
        println!(
            "tred: share commitment {}",
            hex(&tred.public_key().wire_bytes(curve))
        );
        let mut published = clock.now();
        loop {
            if let Some(last) = args.epochs {
                if published >= last {
                    break;
                }
            }
            std::thread::sleep(args.interval);
            published = clock.advance(1);
        }
        std::thread::sleep(args.interval.max(Duration::from_millis(50)));
        let stats = tred.stats();
        println!(
            "tred: member {index} done — {} share broadcasts, {} connections",
            stats.broadcasts.load(Ordering::Relaxed),
            stats.connections.load(Ordering::Relaxed),
        );
        tred.shutdown();
        return;
    }

    let server = match &args.journal {
        Some(dir) => {
            let mut config = JournalConfig {
                fsync: args.fsync,
                ..JournalConfig::default()
            };
            if let Some(bytes) = args.segment_bytes {
                // Small segments rotate (and seal archive segments)
                // often — the crash-recovery tests lean on this.
                config.max_segment_bytes = bytes;
            }
            let (archive, report) = match UpdateArchive::open_durable(dir, curve, config) {
                Ok(ok) => ok,
                Err(e) => {
                    eprintln!("tred: cannot open journal {}: {e}", dir.display());
                    exit(1);
                }
            };
            println!(
                "tred: journal {} replayed {} records (latest epoch {}, {} quarantined, {} torn-tail bytes)",
                dir.display(),
                report.records,
                report
                    .latest_epoch
                    .map_or_else(|| "none".to_string(), |e| e.to_string()),
                report.quarantined_records,
                report.torn_tail_bytes,
            );
            let keys = load_or_create_keys(curve, dir);
            // Resume the epoch clock where the archive left off: recover
            // sets the publish cursor to latest+1, so the next interval
            // tick publishes exactly the next epoch — no gaps, no
            // double-publish.
            if let Some(latest) = report.latest_epoch {
                clock.set(latest);
            }
            TimeServer::recover(
                curve,
                keys,
                clock.clone(),
                Granularity::Seconds,
                Arc::new(archive),
            )
        }
        None => {
            let mut rng = rand::thread_rng();
            let keys = ServerKeyPair::generate(curve, &mut rng);
            TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds)
        }
    };
    let archive = server.archive_handle();

    let bound = match &args.telemetry {
        Some(_) => Tred::bind_traced(
            &args.addr,
            curve,
            server,
            TredConfig::default(),
            TraceSink::new(),
        ),
        None => Tred::bind(&args.addr, curve, server, TredConfig::default()),
    };
    let tred = match bound {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tred: cannot bind {}: {e}", args.addr);
            exit(1);
        }
    };
    let _telemetry = args
        .telemetry
        .as_ref()
        .map(|addr| start_telemetry(addr, tred.exporter()));
    println!("tred: listening on {}", tred.local_addr());
    println!(
        "tred: server public key {}",
        hex(&tred.public_key().wire_bytes(curve))
    );
    println!(
        "tred: 1 epoch per {:?}{}",
        args.interval,
        match args.epochs {
            Some(n) => format!(", exiting after epoch {n}"),
            None => String::new(),
        }
    );

    // Epoch 0 is due immediately (or, after recovery, the clock resumes
    // at the last archived epoch); each interval makes one more due.
    let mut published = clock.now();
    loop {
        if let Some(last) = args.epochs {
            if published >= last {
                break;
            }
        }
        std::thread::sleep(args.interval);
        published = clock.advance(1);
        if let Some(retain) = args.retain {
            if published > retain {
                if let Err(e) = archive.compact_journal(published - retain) {
                    eprintln!("tred: journal compaction failed: {e}");
                }
            }
        }
    }
    // Leave one interval for the ticker to flush the final epoch.
    std::thread::sleep(args.interval.max(Duration::from_millis(50)));

    let stats = tred.stats();
    println!(
        "tred: done — {} broadcasts, {} connections, {} catch-up requests ({} replies), {} evictions, {} wire errors",
        stats.broadcasts.load(Ordering::Relaxed),
        stats.connections.load(Ordering::Relaxed),
        stats.catch_up_requests.load(Ordering::Relaxed),
        stats.catch_up_replies.load(Ordering::Relaxed),
        stats.evicted.load(Ordering::Relaxed),
        stats.wire_errors.load(Ordering::Relaxed),
    );
    if let Some(js) = archive.journal_stats() {
        println!(
            "tred: journal — {} appends, {} fsyncs, {} rotations, {} compacted",
            js.appends, js.fsyncs, js.rotations, js.compacted_records,
        );
    }
    if let Err(e) = archive.sync() {
        eprintln!("tred: final journal sync failed: {e}");
    }
    tred.shutdown();
}
