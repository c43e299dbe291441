//! Property tests for the journal replay scanner: arbitrary truncation
//! and arbitrary single-byte corruption of a segment file must
//!
//! * never panic the scanner,
//! * never yield a record that was not appended — in particular never a
//!   [`tre_core::KeyUpdate`] that fails verification (CRC-32 detects
//!   every single-byte mutation, and the signature covers the rest),
//! * always preserve the longest intact prefix of records before the
//!   damage, and
//! * leave the journal appendable (damage is truncated or quarantined,
//!   never left in the write path).
//!
//! Records are read back through the journal's own read path
//! ([`tre_server::JournalReader`]), so every property holds for what the
//! archive actually serves, not just for the opening scan.
//!
//! The corpus is six real signed updates built once — signing is slow in
//! debug builds, but replay itself is pure byte-level parsing.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use tre_core::{KeyUpdate, ServerKeyPair, ServerPublicKey};
use tre_server::{
    FsyncPolicy, Granularity, Journal, JournalConfig, ReplayReport, RECORD_HEADER_LEN,
    RECORD_TRAILER_LEN,
};

const EPOCHS: u64 = 6;

struct Corpus {
    /// The appended (epoch, body) records, in order.
    records: Vec<(u64, Vec<u8>)>,
    /// The pristine segment file bytes.
    segment: Vec<u8>,
    /// Byte offset at which each record ends inside `segment`.
    ends: Vec<usize>,
    spk: ServerPublicKey<8>,
}

static CORPUS: OnceLock<Corpus> = OnceLock::new();
static CASE: AtomicU64 = AtomicU64::new(0);

fn config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::OnClose,
        ..JournalConfig::default()
    }
}

fn fresh_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tre-jprops-{}-{n}", std::process::id()))
}

fn corpus() -> &'static Corpus {
    CORPUS.get_or_init(|| {
        let curve = tre_pairing::toy64();
        let mut rng = rand::thread_rng();
        let keys = ServerKeyPair::generate(curve, &mut rng);
        let g = Granularity::Seconds;
        let records: Vec<(u64, Vec<u8>)> = (0..EPOCHS)
            .map(|e| {
                let update = keys.issue_update(curve, &g.tag_for_epoch(e));
                let mut body = Vec::new();
                update.write_body(curve, &mut body);
                (e, body)
            })
            .collect();

        let dir = fresh_dir();
        let (mut journal, _) = Journal::open(&dir, config()).expect("fresh journal");
        assert!(indexed(&journal).is_empty());
        for (epoch, body) in &records {
            journal.append(*epoch, body).expect("append");
        }
        drop(journal); // OnClose policy syncs here
        let segment = std::fs::read(dir.join("seg-0000000001.trej")).expect("segment file");
        let _ = std::fs::remove_dir_all(&dir);

        let mut ends = Vec::new();
        let mut off = 0;
        for (_, body) in &records {
            off += RECORD_HEADER_LEN + body.len() + RECORD_TRAILER_LEN;
            ends.push(off);
        }
        assert_eq!(off, segment.len(), "layout arithmetic matches the file");
        Corpus {
            records,
            segment,
            ends,
            spk: *keys.public(),
        }
    })
}

/// Every record the journal's index serves, read back off the segments.
fn indexed(journal: &Journal) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    journal
        .reader()
        .read_range(0, u64::MAX, usize::MAX, &mut out)
        .expect("indexed records read back");
    out
}

/// Writes `bytes` as the sole segment of a fresh journal dir, replays
/// it, and (the appendability property) appends one extra record and
/// reopens to check the journal is still a working write path.
fn replay(bytes: &[u8]) -> (Vec<(u64, Vec<u8>)>, ReplayReport) {
    let c = corpus();
    let dir = fresh_dir();
    std::fs::create_dir_all(&dir).expect("create case dir");
    std::fs::write(dir.join("seg-0000000001.trej"), bytes).expect("write damaged segment");

    let (mut journal, report) =
        Journal::open(&dir, config()).expect("replay never errors on damage");
    let replayed = indexed(&journal);
    let probe_body = &c.records[0].1;
    journal
        .append(1_000_000, probe_body)
        .expect("journal still appendable after damage");
    drop(journal);
    let (journal, _) = Journal::open(&dir, config()).expect("reopen after probe append");
    let after = indexed(&journal);
    drop(journal);
    assert_eq!(
        after.len(),
        replayed.len() + 1,
        "probe record is replayed on top of the survivors"
    );
    assert_eq!(after.last().unwrap(), &(1_000_000, probe_body.clone()));

    let _ = std::fs::remove_dir_all(&dir);
    (replayed, report)
}

fn assert_all_verify(records: &[(u64, Vec<u8>)]) {
    let curve = tre_pairing::toy64();
    let c = corpus();
    for (epoch, body) in records.iter().filter(|(e, _)| *e < EPOCHS) {
        let update = KeyUpdate::read_body(curve, body)
            .unwrap_or_else(|e| panic!("replayed record {epoch} does not decode: {e:?}"));
        assert!(
            update.verify(curve, &c.spk),
            "replayed record {epoch} fails verification"
        );
    }
}

proptest! {
    /// Truncation at every possible byte offset: the scanner recovers
    /// exactly the records that are fully contained in the prefix and
    /// treats the partial tail as a torn write, never inventing records.
    #[test]
    fn truncation_preserves_exactly_the_intact_prefix(cut_rev in 0usize..512) {
        let c = corpus();
        prop_assume!(cut_rev <= c.segment.len());
        let cut = c.segment.len() - cut_rev;
        let (replayed, report) = replay(&c.segment[..cut]);
        let expect: Vec<(u64, Vec<u8>)> = c
            .records
            .iter()
            .zip(&c.ends)
            .filter(|(_, &end)| end <= cut)
            .map(|(r, _)| r.clone())
            .collect();
        prop_assert!(
            replayed == expect,
            "cut at {} of {}: got {:?}, want {:?}",
            cut,
            c.segment.len(),
            replayed.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            expect.iter().map(|(e, _)| *e).collect::<Vec<_>>()
        );
        prop_assert_eq!(report.records, expect.len() as u64);
        if cut < c.segment.len() {
            prop_assert!(
                report.torn_tail_bytes > 0 || report.quarantined_bytes > 0,
                "damage was accounted for"
            );
        }
        assert_all_verify(&replayed);
    }

    /// Single-byte corruption anywhere in the file: the record covering
    /// the flipped byte is quarantined (CRC-32 detects any 8-bit burst),
    /// every other record survives, and nothing unverifiable is yielded.
    #[test]
    fn single_byte_corruption_loses_only_the_hit_record(
        idx_raw in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let c = corpus();
        let idx = idx_raw % c.segment.len();
        prop_assume!(c.segment[idx] != byte);
        let mut mutated = c.segment.clone();
        mutated[idx] = byte;
        let (replayed, report) = replay(&mutated);

        let hit = c.ends.iter().position(|&end| idx < end).expect("idx in file");
        let expect: Vec<(u64, Vec<u8>)> = c
            .records
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != hit)
            .map(|(_, r)| r.clone())
            .collect();
        prop_assert!(
            replayed == expect,
            "corrupt byte {} (record {}): got {:?}, want {:?}",
            idx,
            hit,
            replayed.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            expect.iter().map(|(e, _)| *e).collect::<Vec<_>>()
        );
        prop_assert!(
            report.quarantined_records > 0 || report.quarantined_bytes > 0 || report.torn_tail_bytes > 0,
            "damage was accounted for"
        );
        assert_all_verify(&replayed);
    }

    /// Truncation and corruption together: whatever the damage, the
    /// replayed set is a subset of what was appended (no invented or
    /// mangled records) and the prefix before the first damaged byte
    /// survives intact.
    #[test]
    fn combined_damage_never_invents_records(
        cut_rev in 0usize..512,
        idx_raw in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let c = corpus();
        prop_assume!(cut_rev < c.segment.len());
        let cut = c.segment.len() - cut_rev;
        let mut mutated = c.segment[..cut].to_vec();
        let idx = idx_raw % mutated.len();
        mutated[idx] = byte;
        let damage_start = if mutated[idx] == c.segment[idx] { cut } else { idx };
        let (replayed, _) = replay(&mutated);

        for r in &replayed {
            prop_assert!(c.records.contains(r), "invented record epoch {}", r.0);
        }
        for (r, &end) in c.records.iter().zip(&c.ends) {
            if end <= damage_start {
                prop_assert!(
                    replayed.contains(r),
                    "intact record epoch {} lost (cut {}, corrupt {})",
                    r.0, cut, idx
                );
            }
        }
        assert_all_verify(&replayed);
    }
}
