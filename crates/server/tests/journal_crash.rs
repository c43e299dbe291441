//! Kill-and-restart durability: a real `tred` process with a journal is
//! SIGKILLed mid-epoch and restarted on the same directory; a
//! reconnecting client must be served the complete epoch range with the
//! same server public key — the paper's "publicly accessible list of
//! old key updates" surviving a crash. In-process tests replay a journal
//! with a torn final record and check recovery to the last intact epoch,
//! and quarantine a record mid-history and check that recovery re-issues
//! it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tre_server::{
    Feed, FsyncPolicy, Granularity, JournalConfig, SimClock, SubscriberId, TcpFeed, TimeServer,
    UpdateArchive,
};
use tre_wire::Wire;

const DEADLINE: Duration = Duration::from_secs(30);

/// Kills the child on drop so a failing assertion never leaks a daemon.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    pubkey_hex: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `tred --journal <dir>` and parses the listen address and the
/// public key off its (line-buffered) stdout.
fn spawn_tred(journal: &std::path::Path, extra: &[&str]) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tred"));
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--interval-ms",
        "25",
        "--journal",
        journal.to_str().unwrap(),
        "--fsync",
        "every",
    ])
    .args(extra)
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn tred");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut addr = None;
    let mut pubkey_hex = None;
    while addr.is_none() || pubkey_hex.is_none() {
        let line = lines
            .next()
            .expect("tred exited before printing startup lines")
            .expect("read tred stdout");
        if let Some(rest) = line.strip_prefix("tred: listening on ") {
            addr = Some(rest.trim().parse().expect("listen addr"));
        } else if let Some(rest) = line.strip_prefix("tred: server public key ") {
            pubkey_hex = Some(rest.trim().to_string());
        }
    }
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Daemon {
        child,
        addr: addr.unwrap(),
        pubkey_hex: pubkey_hex.unwrap(),
    }
}

fn decode_pubkey(hex: &str) -> tre_core::ServerPublicKey<8> {
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect();
    let (header, body, _) = tre_wire::peek_frame(&bytes)
        .expect("well-formed frame")
        .expect("complete frame");
    assert_eq!(
        header.type_tag,
        <tre_core::ServerPublicKey<8> as Wire<8>>::TYPE_TAG
    );
    <tre_core::ServerPublicKey<8> as Wire<8>>::wire_read_body(tre_pairing::toy64(), body)
        .expect("valid public key")
}

/// Polls `feed` until `want(epochs_seen)` or the deadline; returns every
/// distinct epoch received, verifying each update against `spk`.
fn drain_epochs(
    feed: &mut TcpFeed<8>,
    sub: SubscriberId,
    spk: &tre_core::ServerPublicKey<8>,
    mut want: impl FnMut(&std::collections::BTreeSet<u64>) -> bool,
) -> std::collections::BTreeSet<u64> {
    let curve = tre_pairing::toy64();
    let g = Granularity::Seconds;
    let mut seen = std::collections::BTreeSet::new();
    let start = Instant::now();
    while !want(&seen) && start.elapsed() < DEADLINE {
        for (_, update) in feed.poll(sub) {
            assert!(update.verify(curve, spk), "update fails verification");
            if let Some(e) = g.epoch_of_tag(update.tag()) {
                seen.insert(e);
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    seen
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tre-crash-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The journal's segment files are the archive's only on-disk copy:
/// besides them the directory holds just the server key and, after
/// damage, the quarantine file.
fn assert_only_journal_files(dir: &std::path::Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            (name.starts_with("seg-") && name.ends_with(".trej"))
                || name == "quarantine.bin"
                || name == "key.trek",
            "unexpected file {name} in the journal directory"
        );
    }
}

#[test]
fn sigkill_and_restart_serves_complete_epoch_range() {
    let curve = tre_pairing::toy64();
    let journal = tmp_dir("sigkill");

    // First life: publish a few epochs live to a subscriber, then die
    // abruptly (SIGKILL — no shutdown path runs, no final flush).
    let daemon = spawn_tred(&journal, &[]);
    let spk = decode_pubkey(&daemon.pubkey_hex);
    let first_key = daemon.pubkey_hex.clone();

    let mut feed: TcpFeed<8> = TcpFeed::new(curve, daemon.addr);
    let sub = feed.subscribe();
    let seen_before = drain_epochs(&mut feed, sub, &spk, |s| {
        s.iter().next_back().copied().unwrap_or(0) >= 3
    });
    let max_before = *seen_before.iter().next_back().expect("epochs before kill");
    assert!(max_before >= 3, "daemon published a few epochs");
    drop(daemon); // SIGKILL mid-epoch

    // Second life: same journal. The key must be identical and every
    // epoch acked before the kill must be served to a reconnecting
    // client — plus new epochs continue past the old maximum with no
    // gap.
    let daemon = spawn_tred(&journal, &[]);
    assert_eq!(
        daemon.pubkey_hex, first_key,
        "restart recovered the same server key"
    );
    let mut feed: TcpFeed<8> = TcpFeed::new(curve, daemon.addr);
    let sub = feed.subscribe();
    feed.request_catch_up(sub, 0, max_before + 64).unwrap();
    let target = max_before + 2; // proves publishing resumed, not just replay
    let seen_after = drain_epochs(&mut feed, sub, &spk, |s| {
        (0..=target).all(|e| s.contains(&e))
    });
    for e in 0..=target {
        assert!(
            seen_after.contains(&e),
            "epoch {e} missing after restart (saw {seen_after:?})"
        );
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn sigkill_during_segment_rotation_recovers_gap_free() {
    let curve = tre_pairing::toy64();
    let journal = tmp_dir("rotation");

    // First life with tiny segments: every couple of epochs rotates the
    // journal, so the SIGKILL lands with rotation constantly in flight.
    let daemon = spawn_tred(&journal, &["--segment-bytes", "256"]);
    let spk = decode_pubkey(&daemon.pubkey_hex);
    let first_key = daemon.pubkey_hex.clone();

    let mut feed: TcpFeed<8> = TcpFeed::new(curve, daemon.addr);
    let sub = feed.subscribe();
    let seen_before = drain_epochs(&mut feed, sub, &spk, |s| {
        s.iter().next_back().copied().unwrap_or(0) >= 6
    });
    let max_before = *seen_before.iter().next_back().expect("epochs before kill");
    assert!(max_before >= 6, "daemon published across several rotations");
    drop(daemon); // SIGKILL mid-epoch, mid-rotation-cadence

    assert_only_journal_files(&journal);

    // Second life: same key, and a deep catch-up serves every epoch
    // published before the kill plus new ones — no gap at any rotation
    // boundary.
    let daemon = spawn_tred(&journal, &["--segment-bytes", "256"]);
    assert_eq!(
        daemon.pubkey_hex, first_key,
        "restart recovered the same server key"
    );
    let mut feed: TcpFeed<8> = TcpFeed::new(curve, daemon.addr);
    let sub = feed.subscribe();
    feed.request_catch_up(sub, 0, max_before + 64).unwrap();
    let target = max_before + 2;
    let seen_after = drain_epochs(&mut feed, sub, &spk, |s| {
        (0..=target).all(|e| s.contains(&e))
    });
    for e in 0..=target {
        assert!(
            seen_after.contains(&e),
            "epoch {e} missing after rotation crash (saw {seen_after:?})"
        );
    }
    drop(daemon);
    assert_only_journal_files(&journal);
    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn torn_final_record_replays_to_last_intact_epoch() {
    let curve = tre_pairing::toy64();
    let dir = tmp_dir("torn");
    let config = JournalConfig {
        fsync: FsyncPolicy::EveryRecord,
        ..JournalConfig::default()
    };

    // Build a journal of epochs 0..=5 through the real server publish
    // path, then crash "mid-write" by chopping bytes off the tail.
    let mut rng = rand::thread_rng();
    let keys = tre_core::ServerKeyPair::generate(curve, &mut rng);
    let spk = *keys.public();
    {
        let (archive, _) = UpdateArchive::open_durable(&dir, curve, config).unwrap();
        let clock = SimClock::new();
        let mut server = TimeServer::recover(
            curve,
            keys.clone(),
            clock.clone(),
            Granularity::Seconds,
            std::sync::Arc::new(archive),
        );
        clock.advance(5);
        assert_eq!(server.poll().len(), 6, "epochs 0..=5 published");
    }
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "trej"))
        .expect("segment file");
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 7).unwrap(); // tear the final record
    drop(f);

    let (archive, report) = UpdateArchive::open_durable(&dir, curve, config).unwrap();
    assert_eq!(report.latest_epoch, Some(4), "replays to last intact epoch");
    assert!(report.torn_tail_bytes > 0, "tear detected and truncated");
    assert_eq!(
        report.quarantined_records, 0,
        "a torn tail is not corruption"
    );
    for e in 0..=4 {
        assert!(
            archive.get(e).unwrap().verify(curve, &spk),
            "epoch {e} intact"
        );
    }
    assert!(archive.get(5).is_none(), "torn epoch is gone, not mangled");

    // Recovery resumes publishing at the torn epoch — the gap self-heals.
    let clock = SimClock::new();
    clock.set(5);
    let mut server = TimeServer::recover(
        curve,
        keys,
        clock.clone(),
        Granularity::Seconds,
        std::sync::Arc::new(archive),
    );
    let republished = server.poll();
    assert_eq!(republished.len(), 1, "epoch 5 re-published");
    assert!(republished[0].verify(curve, &spk));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_quarantined_mid_history_is_reissued_on_recover() {
    let curve = tre_pairing::toy64();
    let dir = tmp_dir("hole");
    let config = JournalConfig::default();
    let mut rng = rand::thread_rng();
    let keys = tre_core::ServerKeyPair::generate(curve, &mut rng);
    let spk = *keys.public();
    {
        let (archive, _) = UpdateArchive::open_durable(&dir, curve, config).unwrap();
        let clock = SimClock::new();
        let mut server = TimeServer::recover(
            curve,
            keys.clone(),
            clock.clone(),
            Granularity::Seconds,
            std::sync::Arc::new(archive),
        );
        clock.advance(5);
        assert_eq!(server.poll().len(), 6, "epochs 0..=5 published");
    }
    // Flip one byte inside record 2's body: its CRC fails on reopen and
    // the record is quarantined, leaving a hole mid-history.
    let seg = dir.join("seg-0000000001.trej");
    let mut bytes = std::fs::read(&seg).unwrap();
    let record_len = bytes.len() / 6;
    bytes[2 * record_len + 20] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();

    let (archive, report) = UpdateArchive::open_durable(&dir, curve, config).unwrap();
    assert_eq!(
        report.quarantined_records, 1,
        "the damaged record is quarantined"
    );
    let archive = std::sync::Arc::new(archive);
    let clock = SimClock::new();
    clock.set(7);
    let mut server = TimeServer::recover(
        curve,
        keys,
        clock.clone(),
        Granularity::Seconds,
        std::sync::Arc::clone(&archive),
    );
    assert_eq!(server.poll().len(), 2, "epochs 6..=7 published");
    assert!(
        archive.get(2).is_some_and(|u| u.verify(curve, &spk)),
        "the quarantined epoch was re-issued"
    );
    let (served, next) = archive.read_range_chunk_raw(curve, 0, 7, 64);
    let epochs: Vec<u64> = served.iter().map(|(e, _)| *e).collect();
    assert_eq!(epochs, (0..=7).collect::<Vec<_>>(), "zero missed epochs");
    assert_eq!(next, None);
    let _ = std::fs::remove_dir_all(&dir);
}
