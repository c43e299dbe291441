//! The public archive of past key updates.
//!
//! §3: "keep a list of old key updates (whose release time has passed) at a
//! publicly accessible place" — so a receiver who missed a broadcast can
//! still decrypt (§6 notes full resilience to missing updates as future
//! work; the archive is the paper's interim answer).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use parking_lot::{Mutex, RwLock};
use tre_core::KeyUpdate;
use tre_pairing::Curve;

use crate::journal::{holes, Journal, JournalConfig, JournalReader, JournalStats, ReplayReport};

tre_obs::metrics! {
    /// Read-path counters of a durable archive (all since open).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ArchiveReadStats {
        /// Point lookups served.
        pub lookups: u64,
        /// Index binary-search probes across lookups — the O(log n)
        /// evidence; compare against `len / 2` per lookup for a linear scan.
        pub lookup_probes: u64,
        /// Chunked range reads served.
        pub range_reads: u64,
        /// Records returned by range reads.
        pub range_records: u64,
        /// Segment reads that failed; each ended its chunk early.
        pub read_failures: u64,
        /// Stored bodies that did not decode as a [`KeyUpdate`] and were
        /// skipped.
        pub decode_failures: u64,
    }
}

/// The on-disk backing of a durable archive: the journal (write path),
/// its reader (the epoch index over the segment files), and the curve
/// that encodes / decodes record bodies.
struct Durable<const L: usize> {
    curve: &'static Curve<L>,
    journal: Mutex<Journal>,
    reader: JournalReader,
    stats: Mutex<ArchiveReadStats>,
}

impl<const L: usize> Durable<L> {
    /// Up to `max` stored bodies in `[from, to]`, and whether the read
    /// completed (a failed read ends the chunk at the failed epoch).
    fn read(&self, from: u64, to: u64, max: usize) -> (Vec<(u64, Vec<u8>)>, bool) {
        let mut out = Vec::new();
        let ok = self.reader.read_range(from, to, max, &mut out).is_ok();
        let mut stats = self.stats.lock();
        stats.range_reads += 1;
        stats.range_records += out.len() as u64;
        stats.read_failures += u64::from(!ok);
        (out, ok)
    }

    fn decode(&self, body: &[u8]) -> Option<KeyUpdate<L>> {
        let update = KeyUpdate::read_body(self.curve, body).ok();
        if update.is_none() {
            self.stats.lock().decode_failures += 1;
        }
        update
    }
}

enum Backing<const L: usize> {
    /// Relay and simulation archives: every update decoded, in memory.
    Memory(RwLock<BTreeMap<u64, KeyUpdate<L>>>),
    /// Journal-backed: no decoded history, reads go to the segments.
    Durable(Durable<L>),
}

impl<const L: usize> std::fmt::Debug for Backing<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Memory(map) => f.debug_tuple("Memory").field(&map.read().len()).finish(),
            Backing::Durable(d) => f.debug_tuple("Durable").field(&d.reader.len()).finish(),
        }
    }
}

/// Thread-safe archive of published updates, indexed by epoch.
///
/// By default the archive is purely in-memory; [`UpdateArchive::open_durable`]
/// backs it with an append-only [`Journal`] whose segment files are the
/// archive: every publish hits stable storage *before* it is visible to
/// readers, reads are served from the segments, and a restarted server
/// recovers its complete archive from disk.
#[derive(Debug)]
pub struct UpdateArchive<const L: usize> {
    backing: Backing<L>,
}

impl<const L: usize> Default for UpdateArchive<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const L: usize> UpdateArchive<L> {
    /// An empty, in-memory archive.
    pub fn new() -> Self {
        Self {
            backing: Backing::Memory(RwLock::new(BTreeMap::new())),
        }
    }

    /// Opens a journal-backed archive at `dir`. The journal's opening
    /// scan indexes every record that survived on disk (torn tails
    /// truncated, corrupt records quarantined — see [`Journal::open`]);
    /// nothing is decoded but the newest record, which proves the
    /// journal was written for `curve`. All subsequent
    /// [`publish`](Self::publish) calls append to the journal before
    /// acknowledging.
    ///
    /// # Errors
    /// Propagates journal / filesystem errors, and refuses with
    /// [`io::ErrorKind::InvalidData`] a journal whose newest record does
    /// not decode on `curve`.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        curve: &'static Curve<L>,
        config: JournalConfig,
    ) -> io::Result<(Self, ReplayReport)> {
        let (journal, report) = Journal::open(&dir, config)?;
        let reader = journal.reader();
        if let Some(latest) = report.latest_epoch {
            let mut newest = Vec::with_capacity(1);
            reader.read_range(latest, latest, 1, &mut newest)?;
            if KeyUpdate::read_body(curve, &newest[0].1).is_err() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journal record for epoch {latest} does not decode on this curve"),
                ));
            }
        }
        let archive = Self {
            backing: Backing::Durable(Durable {
                curve,
                journal: Mutex::new(journal),
                reader,
                stats: Mutex::new(ArchiveReadStats::default()),
            }),
        };
        Ok((archive, report))
    }

    fn durable(&self) -> Option<&Durable<L>> {
        match &self.backing {
            Backing::Durable(d) => Some(d),
            Backing::Memory(_) => None,
        }
    }

    /// Whether publishes are journaled to disk.
    pub fn is_durable(&self) -> bool {
        self.durable().is_some()
    }

    /// Journal counters, when durable.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.durable().map(|d| d.journal.lock().stats())
    }

    /// Read-path counters, when durable.
    pub fn read_stats(&self) -> Option<ArchiveReadStats> {
        self.durable().map(|d| *d.stats.lock())
    }

    /// Forces any buffered journal appends to stable storage (no-op for
    /// an in-memory archive or when nothing is pending).
    ///
    /// # Errors
    /// Propagates the underlying fsync error.
    pub fn sync(&self) -> io::Result<()> {
        match self.durable() {
            Some(d) => d.journal.lock().sync(),
            None => Ok(()),
        }
    }

    /// Seals the active journal segment and starts a new one.
    ///
    /// # Errors
    /// Propagates filesystem errors; errors on an in-memory archive never
    /// occur (no-op).
    pub fn rotate_journal(&self) -> io::Result<()> {
        match self.durable() {
            Some(d) => d.journal.lock().rotate(),
            None => Ok(()),
        }
    }

    /// Drops journal records older than `horizon` from sealed segments;
    /// they leave the archive at once (the paper's archive is
    /// conceptually unbounded, so retention is an operator decision).
    /// Returns records dropped; 0 for an in-memory archive.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn compact_journal(&self, horizon: u64) -> io::Result<u64> {
        match self.durable() {
            Some(d) => d.journal.lock().compact(horizon),
            None => Ok(0),
        }
    }

    /// Publishes an update for `epoch` (idempotent — re-publishing the same
    /// epoch overwrites, which is harmless since updates are deterministic).
    ///
    /// On a durable archive the update is appended to the journal **before**
    /// it becomes visible to readers, so an acknowledged publish survives a
    /// crash (under `FsyncPolicy::EveryRecord`; `EveryN` bounds the loss
    /// window to N-1 records).
    ///
    /// # Panics
    /// If the journal append fails: serving an update that is not durable
    /// would silently break the recovery guarantee, so the server crashes
    /// instead.
    pub fn publish(&self, epoch: u64, update: KeyUpdate<L>) {
        match &self.backing {
            Backing::Memory(map) => {
                map.write().insert(epoch, update);
            }
            Backing::Durable(d) => {
                let mut body = Vec::new();
                update.write_body(d.curve, &mut body);
                d.journal
                    .lock()
                    .append(epoch, &body)
                    .expect("journal append failed: refusing to ack a non-durable update");
            }
        }
    }

    /// Fetches the stored update for `epoch`, if any.
    ///
    /// No release-time check happens here: the server only ever *stores*
    /// an update once its epoch has been reached ([`crate::TimeServer`]
    /// refuses to sign future epochs), so presence in the archive already
    /// implies the release time has passed. Callers that accept archives
    /// from untrusted sources must enforce their own clock check — this
    /// is a `get_unchecked` in that sense.
    pub fn get(&self, epoch: u64) -> Option<KeyUpdate<L>> {
        let found = match &self.backing {
            Backing::Memory(map) => map.read().get(&epoch).cloned(),
            Backing::Durable(d) => {
                let mut out = Vec::with_capacity(1);
                let result = d.reader.read_range(epoch, epoch, 1, &mut out);
                {
                    let mut stats = d.stats.lock();
                    stats.lookups += 1;
                    match result {
                        Ok(probes) => stats.lookup_probes += probes,
                        Err(_) => stats.read_failures += 1,
                    }
                }
                out.pop().and_then(|(_, body)| d.decode(&body))
            }
        };
        if tre_obs::is_enabled() {
            let outcome = if found.is_some() { "hit" } else { "miss" };
            tre_obs::event("archive.fetch", &format!("epoch={epoch} {outcome}"));
        }
        found
    }

    /// The most recent archived epoch.
    pub fn latest_epoch(&self) -> Option<u64> {
        match &self.backing {
            Backing::Memory(map) => map.read().keys().next_back().copied(),
            Backing::Durable(d) => d.reader.latest_epoch(),
        }
    }

    /// Epochs absent between the oldest and the newest archived epoch —
    /// holes a quarantined record or an out-of-order writer left.
    pub fn missing_epochs(&self) -> Vec<u64> {
        match &self.backing {
            Backing::Memory(map) => holes(map.read().keys().copied()),
            Backing::Durable(d) => d.reader.missing_epochs(),
        }
    }

    /// Number of archived updates.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Memory(map) => map.read().len(),
            Backing::Durable(d) => d.reader.len(),
        }
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All updates in the inclusive epoch range (for catch-up after an
    /// outage). Materialises the whole span — the serving path should
    /// prefer [`read_range_chunk`](Self::read_range_chunk).
    pub fn range(&self, from: u64, to: u64) -> Vec<(u64, KeyUpdate<L>)> {
        self.read_range_chunk(from, to, usize::MAX).0
    }

    /// Bounded chunk of the inclusive epoch range `[from, to]`: at most
    /// `max` updates in ascending epoch order, plus the epoch to resume
    /// from when the range has more (`None` when this chunk finishes
    /// it). A durable archive reads the chunk off the segment files and
    /// decodes it; a body that fails to decode is skipped and counted.
    pub fn read_range_chunk(
        &self,
        from: u64,
        to: u64,
        max: usize,
    ) -> (Vec<(u64, KeyUpdate<L>)>, Option<u64>) {
        self.chunk(from, to, max, KeyUpdate::clone, |d, body| d.decode(&body))
    }

    /// [`read_range_chunk`](Self::read_range_chunk) without the decode:
    /// at most `max` *canonical body byte strings* in ascending epoch
    /// order, plus the resume epoch. A durable archive returns the
    /// stored bytes verbatim (their CRC was checked on open or write); an
    /// in-memory one re-encodes — pure serialization, no curve
    /// arithmetic either way. A failed segment read ends the chunk at
    /// the failed epoch with no resume epoch; the client re-requests
    /// the gap.
    ///
    /// This is the serving path for deep catch-up replays: decoding a
    /// stored body costs two compressed-point decompressions (a field
    /// sqrt each), which at archive scale turns one replay into hundreds
    /// of milliseconds of shard-thread CPU. Updates are
    /// self-authenticating, so the server ships stored bytes verbatim
    /// and receivers — who verify every update against the server key
    /// anyway — reject anything mangled.
    pub fn read_range_chunk_raw(
        &self,
        curve: &Curve<L>,
        from: u64,
        to: u64,
        max: usize,
    ) -> (Vec<(u64, Vec<u8>)>, Option<u64>) {
        let encode = |u: &KeyUpdate<L>| {
            let mut body = Vec::new();
            u.write_body(curve, &mut body);
            body
        };
        self.chunk(from, to, max, encode, |_, body| Some(body))
    }

    /// The one chunked-read implementation behind both public flavours:
    /// `from_memory` converts an in-memory update, `from_disk` a stored
    /// body (`None` skips it).
    fn chunk<T>(
        &self,
        from: u64,
        to: u64,
        max: usize,
        from_memory: impl Fn(&KeyUpdate<L>) -> T,
        from_disk: impl Fn(&Durable<L>, Vec<u8>) -> Option<T>,
    ) -> (Vec<(u64, T)>, Option<u64>) {
        if max == 0 || from > to {
            return (Vec::new(), None);
        }
        let (out, last, full) = match &self.backing {
            Backing::Memory(map) => {
                let out: Vec<(u64, T)> = map
                    .read()
                    .range(from..=to)
                    .take(max)
                    .map(|(e, u)| (*e, from_memory(u)))
                    .collect();
                let last = out.last().map(|(e, _)| *e);
                let full = out.len() >= max;
                (out, last, full)
            }
            Backing::Durable(d) => {
                let (raw, ok) = d.read(from, to, max);
                let last = raw.last().map(|(e, _)| *e);
                let full = ok && raw.len() >= max;
                let out = raw
                    .into_iter()
                    .filter_map(|(e, body)| from_disk(d, body).map(|t| (e, t)))
                    .collect();
                (out, last, full)
            }
        };
        let next = match last {
            Some(last) if full && last < to => Some(last + 1),
            _ => None,
        };
        (out, next)
    }

    /// Total bytes a client would download to fetch `from..=to` (framed
    /// wire encoding, as the TCP catch-up path ships it) — used by the
    /// scalability experiments.
    pub fn range_size_bytes(&self, from: u64, to: u64, curve: &tre_pairing::Curve<L>) -> usize {
        use tre_wire::Wire;
        self.range(from, to)
            .iter()
            .map(|(_, u)| u.wire_bytes(curve).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_core::{ReleaseTag, ServerKeyPair};
    use tre_pairing::toy64;

    fn update(server: &ServerKeyPair<8>, e: u64) -> KeyUpdate<8> {
        server.issue_update(toy64(), &ReleaseTag::time(format!("epoch/{e}")))
    }

    #[test]
    fn publish_get_roundtrip() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let archive = UpdateArchive::new();
        assert!(archive.is_empty());
        assert_eq!(archive.get(3), None);
        archive.publish(3, update(&server, 3));
        assert_eq!(archive.len(), 1);
        assert!(archive.get(3).is_some() && archive.get(2).is_none());
        assert!(archive.get(3).unwrap().verify(curve, server.public()));
        assert_eq!(archive.latest_epoch(), Some(3));
    }

    #[test]
    fn range_catchup() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let archive = UpdateArchive::new();
        for e in 0..10 {
            archive.publish(e, update(&server, e));
        }
        let caught_up = archive.range(4, 7);
        assert_eq!(caught_up.len(), 4);
        assert_eq!(caught_up[0].0, 4);
        assert_eq!(caught_up[3].0, 7);
        assert!(archive.range_size_bytes(4, 7, curve) > 0);
        assert_eq!(archive.range(20, 30).len(), 0);
    }

    #[test]
    fn concurrent_access() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let archive = std::sync::Arc::new(UpdateArchive::new());
        let mut handles = vec![];
        for t in 0..4u64 {
            let a = archive.clone();
            let u = update(&server, t);
            handles.push(std::thread::spawn(move || {
                a.publish(t, u);
                a.get(t).is_some()
            }));
        }
        for h in handles {
            assert!(h.join().unwrap());
        }
        assert_eq!(archive.len(), 4);
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tre-archive-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_archive_survives_reopen() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let dir = tmp_dir("reopen");
        {
            let (archive, report) =
                UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
            assert!(archive.is_durable());
            assert_eq!(report.records, 0);
            for e in 0..6 {
                archive.publish(e, update(&server, e));
            }
            assert_eq!(archive.journal_stats().unwrap().appends, 6);
        }
        // "Restart": a fresh process opening the same directory sees the
        // complete archive, and every replayed update still verifies.
        let (archive, report) =
            UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
        assert_eq!(report.records, 6);
        assert_eq!(report.latest_epoch, Some(5));
        assert_eq!(archive.latest_epoch(), Some(5));
        assert!(archive.get(5).is_some() && archive.get(6).is_none());
        for e in 0..6 {
            let u = archive.get(e).expect("replayed epoch present");
            assert!(u.verify(curve, server.public()), "replayed update verifies");
        }
        assert_eq!(archive.range(0, 5).len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_archive_is_idempotent_across_republish() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let dir = tmp_dir("idem");
        {
            let (archive, _) =
                UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
            let u = update(&server, 7);
            archive.publish(7, u.clone());
            archive.publish(7, u); // duplicate append — harmless
        }
        let (archive, report) =
            UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
        assert_eq!(report.records, 2, "journal keeps both appends");
        assert_eq!(archive.len(), 1, "map deduplicates by epoch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_archive_durability_hooks_are_noops() {
        let archive: UpdateArchive<8> = UpdateArchive::new();
        assert!(!archive.is_durable());
        assert!(archive.journal_stats().is_none());
        archive.sync().unwrap();
        archive.rotate_journal().unwrap();
        assert_eq!(archive.compact_journal(100).unwrap(), 0);
    }

    #[test]
    fn durable_reads_count_failures_and_refuse_foreign_journals() {
        let curve = toy64();
        let dir = tmp_dir("foreign");
        {
            let (mut j, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
            j.append(0, b"not a key update").unwrap();
        }
        let err = UpdateArchive::<8>::open_durable(&dir, curve, JournalConfig::default())
            .expect_err("a journal whose newest record does not decode is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // An undecodable record below a valid newest one is served as
        // absent and counted, not fatal.
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let mut body = Vec::new();
        update(&server, 1).write_body(curve, &mut body);
        {
            let (mut j, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
            j.append(1, &body).unwrap();
        }
        let (archive, _) =
            UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
        assert_eq!(archive.len(), 2);
        assert!(archive.get(0).is_none());
        assert_eq!(archive.range(0, 1).len(), 1);
        assert_eq!(
            archive.read_range_chunk_raw(curve, 0, 1, 8).0.len(),
            2,
            "raw path ships bytes as stored"
        );
        assert_eq!(archive.read_stats().unwrap().decode_failures, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_sealed_segment_ends_the_chunk_and_counts_the_failure() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let dir = tmp_dir("truncated");
        let (archive, _) =
            UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
        for e in 0..4 {
            archive.publish(e, update(&server, e));
        }
        archive.rotate_journal().unwrap();
        for e in 4..6 {
            archive.publish(e, update(&server, e));
        }
        // Chop the sealed segment's last record under the live archive.
        let sealed = dir.join("seg-0000000001.trej");
        let len = std::fs::metadata(&sealed).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&sealed)
            .unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);

        let (got, next) = archive.read_range_chunk_raw(curve, 0, 5, 64);
        let epochs: Vec<u64> = got.iter().map(|(e, _)| *e).collect();
        assert!(
            epochs.len() < 4,
            "the chunk ends at the unreadable epoch: {epochs:?}"
        );
        assert_eq!(next, None, "no resume past a failed read");
        assert!(archive.get(3).is_none());
        let stats = archive.read_stats().unwrap();
        assert_eq!(stats.read_failures, 2);
        // Epochs in the untouched active segment still serve.
        assert_eq!(archive.read_range_chunk_raw(curve, 4, 5, 64).0.len(), 2);
        assert!(archive.get(5).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
