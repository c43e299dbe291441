//! Property tests for the durable archive, whose only on-disk copy is
//! the journal's segment files read in place through the epoch index:
//!
//! * arbitrary scripts of publish (including duplicates and
//!   out-of-order back-fills), rotate, compact, reopen, point lookup
//!   and chunked range read answer exactly like a `BTreeMap` oracle at
//!   every step;
//! * arbitrary single-byte corruption of a sealed segment never panics
//!   the open, and reads then serve exactly the records the opening scan
//!   recovers — every record but the one the flipped byte hit.
//!
//! Bodies are real signed updates from two server keys, so a duplicate
//! publish can carry different bytes and "last write wins" is visible.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::TestCaseError;
use tre_core::{KeyUpdate, ServerKeyPair};
use tre_server::{
    FsyncPolicy, Granularity, JournalConfig, UpdateArchive, RECORD_HEADER_LEN, RECORD_TRAILER_LEN,
};

/// Epochs the scripts publish into.
const EPOCHS: u64 = 40;

static CASE: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tre-aprops-{}-{n}", std::process::id()))
}

fn config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::OnClose,
        // Rotation only when the script says so, never implicitly.
        max_segment_bytes: u64::MAX,
    }
}

fn curve() -> &'static tre_pairing::Curve<8> {
    tre_pairing::toy64()
}

/// A signed update and its canonical body bytes.
type Signed = (KeyUpdate<8>, Vec<u8>);

/// `updates[k][e]`: server key `k`'s signed update for epoch `e`.
fn updates() -> &'static [Vec<Signed>; 2] {
    static UPDATES: OnceLock<[Vec<Signed>; 2]> = OnceLock::new();
    UPDATES.get_or_init(|| {
        let mut rng = rand::thread_rng();
        [(); 2].map(|_| {
            let keys = ServerKeyPair::generate(curve(), &mut rng);
            (0..EPOCHS + 1)
                .map(|e| {
                    let u = keys.issue_update(curve(), &Granularity::Seconds.tag_for_epoch(e));
                    let mut body = Vec::new();
                    u.write_body(curve(), &mut body);
                    (u, body)
                })
                .collect()
        })
    })
}

fn body_of(u: &KeyUpdate<8>) -> Vec<u8> {
    let mut body = Vec::new();
    u.write_body(curve(), &mut body);
    body
}

/// Checks a chunked read of `[from, to]` against the oracle, through
/// both the raw (serving) path and the decoding path.
fn check_chunk(
    archive: &UpdateArchive<8>,
    oracle: &BTreeMap<u64, Vec<u8>>,
    from: u64,
    to: u64,
    max: usize,
) -> Result<(), TestCaseError> {
    let want: Vec<(u64, Vec<u8>)> = oracle
        .range(from..=to)
        .take(max)
        .map(|(e, b)| (*e, b.clone()))
        .collect();
    let want_next = match want.last() {
        Some((last, _)) if want.len() >= max && *last < to => Some(last + 1),
        _ => None,
    };
    let (raw, next) = archive.read_range_chunk_raw(curve(), from, to, max);
    prop_assert_eq!(&raw, &want);
    prop_assert_eq!(next, want_next);
    let (decoded, next) = archive.read_range_chunk(from, to, max);
    let decoded: Vec<(u64, Vec<u8>)> = decoded.iter().map(|(e, u)| (*e, body_of(u))).collect();
    prop_assert_eq!(&decoded, &want);
    prop_assert_eq!(next, want_next);
    Ok(())
}

/// The whole archive, swept in small chunks, and its summary queries.
fn check_all(
    archive: &UpdateArchive<8>,
    oracle: &BTreeMap<u64, Vec<u8>>,
) -> Result<(), TestCaseError> {
    let mut swept = Vec::new();
    let mut from = Some(0);
    while let Some(f) = from {
        let (chunk, next) = archive.read_range_chunk_raw(curve(), f, EPOCHS, 3);
        swept.extend(chunk);
        from = next;
    }
    let want: Vec<(u64, Vec<u8>)> = oracle.iter().map(|(e, b)| (*e, b.clone())).collect();
    prop_assert_eq!(&swept, &want);
    prop_assert_eq!(archive.len(), oracle.len());
    prop_assert_eq!(archive.latest_epoch(), oracle.keys().next_back().copied());
    let holes: Vec<u64> = match (oracle.keys().next(), oracle.keys().next_back()) {
        (Some(&lo), Some(&hi)) => (lo..=hi).filter(|e| !oracle.contains_key(e)).collect(),
        _ => Vec::new(),
    };
    prop_assert_eq!(archive.missing_epochs(), holes);
    Ok(())
}

/// Interprets the op script against a durable archive and the oracle.
fn run_script(ops: &[(u8, u16, u16)]) -> Result<(), TestCaseError> {
    let dir = fresh_dir();
    let open = || UpdateArchive::open_durable(&dir, curve(), config()).expect("open archive");
    let (mut archive, _) = open();
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    // Epochs whose newest write sits in the active segment: compaction
    // never touches those.
    let mut active: Vec<u64> = Vec::new();

    for &(kind, a, b) in ops {
        match kind % 7 {
            0 | 1 => {
                // Publish any epoch, in any order, with either key: a
                // repeat is a duplicate (possibly with other bytes) and
                // a lower epoch is a back-fill.
                let e = u64::from(a) % EPOCHS;
                let (update, body) = &updates()[usize::from(b % 2)][e as usize];
                archive.publish(e, update.clone());
                oracle.insert(e, body.clone());
                active.push(e);
            }
            2 => {
                archive.rotate_journal().expect("rotate");
                active.clear();
            }
            3 => {
                let horizon = u64::from(a) % (EPOCHS + 2);
                archive.compact_journal(horizon).expect("compact");
                oracle.retain(|e, _| *e >= horizon || active.contains(e));
            }
            4 => {
                drop(archive);
                archive = open().0;
                check_all(&archive, &oracle)?;
            }
            5 => {
                let e = u64::from(a) % (EPOCHS + 2);
                let got = archive.get(e).map(|u| body_of(&u));
                prop_assert_eq!(got.as_ref(), oracle.get(&e));
            }
            _ => {
                let from = u64::from(a) % (EPOCHS + 2);
                let to = from + u64::from(b % 12);
                check_chunk(&archive, &oracle, from, to, 1 + usize::from(b % 5))?;
            }
        }
    }
    check_all(&archive, &oracle)?;
    let stats = archive.read_stats().expect("durable");
    prop_assert_eq!(stats.read_failures + stats.decode_failures, 0);
    drop(archive);
    check_all(&open().0, &oracle)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary publish/rotate/compact/reopen/lookup/range scripts:
    /// the archive answers exactly like the oracle at every step.
    #[test]
    fn archive_matches_btreemap_oracle(ops in proptest::collection::vec(any::<(u8, u16, u16)>(), 0..48)) {
        run_script(&ops)?;
    }
}

/// A sealed segment of `SEALED` records (epochs `0..SEALED`) and an
/// active one holding epoch `SEALED`, so the newest record is always
/// intact whatever happens to the sealed file.
struct Corpus {
    sealed: Vec<u8>,
    active: Vec<u8>,
    /// Byte offset at which each sealed record ends.
    ends: Vec<usize>,
}

const SEALED: u64 = 8;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = fresh_dir();
        let (archive, _) =
            UpdateArchive::open_durable(&dir, curve(), config()).expect("fresh archive");
        for e in 0..SEALED {
            archive.publish(e, updates()[0][e as usize].0.clone());
        }
        archive.rotate_journal().expect("rotate");
        archive.publish(SEALED, updates()[0][SEALED as usize].0.clone());
        drop(archive);
        let sealed = std::fs::read(dir.join("seg-0000000001.trej")).expect("sealed segment");
        let active = std::fs::read(dir.join("seg-0000000002.trej")).expect("active segment");
        let _ = std::fs::remove_dir_all(&dir);
        let mut ends = Vec::new();
        let mut off = 0;
        for e in 0..SEALED {
            off += RECORD_HEADER_LEN + updates()[0][e as usize].1.len() + RECORD_TRAILER_LEN;
            ends.push(off);
        }
        assert_eq!(off, sealed.len(), "layout arithmetic matches the file");
        Corpus {
            sealed,
            active,
            ends,
        }
    })
}

proptest! {
    /// Single-byte corruption of a sealed segment: the open never
    /// panics, the hit record is quarantined, and every read serves
    /// exactly the surviving records.
    #[test]
    fn sealed_segment_corruption_serves_exactly_the_survivors(
        idx_raw in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let c = corpus();
        let idx = idx_raw % c.sealed.len();
        prop_assume!(c.sealed[idx] != byte);
        let mut mutated = c.sealed.clone();
        mutated[idx] = byte;

        let dir = fresh_dir();
        std::fs::create_dir_all(&dir).expect("case dir");
        std::fs::write(dir.join("seg-0000000001.trej"), &mutated).expect("damaged segment");
        std::fs::write(dir.join("seg-0000000002.trej"), &c.active).expect("active segment");
        let (archive, report) =
            UpdateArchive::open_durable(&dir, curve(), config()).expect("open over damage");

        let hit = c.ends.iter().position(|&end| idx < end).expect("idx in file") as u64;
        let oracle: BTreeMap<u64, Vec<u8>> = (0..=SEALED)
            .filter(|e| *e != hit)
            .map(|e| (e, updates()[0][e as usize].1.clone()))
            .collect();
        prop_assert!(report.quarantined_records > 0, "damage was accounted for");
        check_all(&archive, &oracle)?;
        for e in 0..=SEALED {
            let got = archive.get(e).map(|u| body_of(&u));
            prop_assert_eq!(got.as_ref(), oracle.get(&e));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
