//! Durable append-only journal for the update archive.
//!
//! §3 requires the list of past updates to stay "publicly accessible";
//! §5.3's key-insulation argument assumes every released `I_T = s·H1(T)`
//! remains fetchable forever. The archive is therefore the server's
//! *only* persistent obligation — and this module is where it becomes
//! actually persistent: every published update is appended to a
//! CRC32-framed, length-prefixed log **before** the publish is
//! acknowledged, so a `tred` process can be SIGKILLed at any instant and
//! recover its complete archive on restart.
//!
//! ## Record layout
//!
//! ```text
//! offset  size  field
//! ------  ----  -------------------------------------------
//!      0     4  record magic  b"TREJ"
//!      4     8  epoch         u64, big-endian
//!     12     4  body length   u32, big-endian
//!     16     n  body          KeyUpdate canonical body bytes
//!                             (identical to the `tre-wire` frame body)
//!   16+n     4  crc32         IEEE CRC-32 over bytes [4 .. 16+n)
//! ```
//!
//! The CRC covers epoch, length, and body, so any single-byte corruption
//! anywhere in a record (a burst of ≤ 32 bits) is detected with
//! certainty. A journal is a directory of segment files
//! (`seg-<seq>.trej`); the highest-numbered segment is the active one.
//!
//! ## Failure handling on replay
//!
//! * **Torn tail** — a crash mid-`write` leaves a partial record at the
//!   end of the active segment; replay truncates the segment back to the
//!   last intact record (the valid prefix is always preserved).
//! * **Corrupt record** — a record whose CRC fails (bit rot, torn
//!   overwrite) is *quarantined*: its raw bytes are appended to
//!   `quarantine.bin` for forensics and the scanner resynchronises by
//!   searching for the next record magic, so intact records *after* the
//!   corruption are still recovered.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades durability for throughput: `EveryRecord`
//! fsyncs on each append (no acknowledged update can ever be lost),
//! `EveryN` amortises the fsync over a small window (bounded loss:
//! at most N-1 acknowledged updates — which the restarted server
//! re-issues anyway, since updates are deterministic), `OnClose` is for
//! bulk imports and benches.
//!
//! ## Reading in place
//!
//! The segment files are also the archive's only on-disk copy. The
//! opening scan fills one in-memory index, epoch → (segment, offset,
//! length); [`Journal::append`] extends it (the last write of an epoch
//! wins) and [`Journal::compact`] rewrites the entries of the segments
//! it touches. Quarantined records are simply absent. A
//! [`JournalReader`] serves point and range reads off that index with
//! positioned reads (`pread`) on a shared handle per segment: it copies
//! locations under a short read lock and reads with no lock held, so a
//! reader never waits on an append's fsync.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::RwLock;

/// The four magic bytes opening every journal record.
pub const RECORD_MAGIC: [u8; 4] = *b"TREJ";

/// Record header length: magic (4) + epoch (8) + body length (4).
pub const RECORD_HEADER_LEN: usize = 16;

/// Record trailer length: the CRC-32.
pub const RECORD_TRAILER_LEN: usize = 4;

/// Upper bound on a record body, shared with the wire layer: a corrupt
/// length field can never cause a huge allocation or skip.
pub const MAX_RECORD_BODY: usize = tre_wire::MAX_BODY_LEN;

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// IEEE CRC-32 (the Ethernet / zip polynomial, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// When the journal forces appended records onto stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append — an acked publish is never lost.
    EveryRecord,
    /// `fsync` after every N appends — a crash loses at most the last
    /// N-1 acked records (all re-derivable: updates are deterministic).
    EveryN(u32),
    /// `fsync` only on rotation, explicit [`Journal::sync`], or close —
    /// bulk-import / benchmark mode.
    OnClose,
}

/// Journal tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Durability / throughput trade-off for appends.
    pub fsync: FsyncPolicy,
    /// Active segment is rotated once it reaches this many bytes.
    pub max_segment_bytes: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::EveryRecord,
            max_segment_bytes: 4 << 20,
        }
    }
}

tre_obs::metrics! {
    /// Monotone journal counters (all since open).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct JournalStats {
        /// Records appended.
        pub appends: u64,
        /// Bytes written (records only, not tmp files).
        pub bytes_written: u64,
        /// `fsync` calls issued.
        pub fsyncs: u64,
        /// Segment rotations.
        pub rotations: u64,
        /// Records recovered by the opening replay.
        pub replayed_records: u64,
        /// Corrupt records quarantined by the opening replay.
        pub quarantined_records: u64,
        /// Bytes moved to `quarantine.bin` by the opening replay.
        pub quarantined_bytes: u64,
        /// Bytes truncated off a torn active-segment tail.
        pub torn_tail_bytes: u64,
        /// Whole segments deleted by compaction.
        pub segments_removed: u64,
        /// Records dropped by compaction (retention horizon).
        pub compacted_records: u64,
    }
}

/// What the opening replay found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Intact records recovered.
    pub records: u64,
    /// Segment files scanned.
    pub segments: u64,
    /// Corrupt records quarantined (CRC mismatch / bad framing).
    pub quarantined_records: u64,
    /// Bytes appended to `quarantine.bin`.
    pub quarantined_bytes: u64,
    /// Bytes truncated off the active segment's torn tail.
    pub torn_tail_bytes: u64,
    /// Newest epoch among the recovered records.
    pub latest_epoch: Option<u64>,
}

/// Where one indexed record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    /// Segment sequence number.
    seq: u64,
    /// Byte offset of the record header within the segment.
    offset: u64,
    /// Body length.
    len: u32,
}

impl Loc {
    fn record_len(&self) -> u64 {
        (RECORD_HEADER_LEN + self.len as usize + RECORD_TRAILER_LEN) as u64
    }
}

/// The epoch index the writer maintains and every reader shares.
#[derive(Debug, Default)]
struct Index {
    /// `(epoch, location)` sorted by epoch, one entry per epoch.
    epochs: Vec<(u64, Loc)>,
    /// A read handle per live segment.
    files: BTreeMap<u64, Arc<File>>,
}

impl Index {
    /// Indexes `epoch` at `loc`; a later write of the same epoch wins.
    fn insert(&mut self, epoch: u64, loc: Loc) {
        match self.epochs.binary_search_by_key(&epoch, |(e, _)| *e) {
            Ok(i) => self.epochs[i].1 = loc,
            Err(i) => self.epochs.insert(i, (epoch, loc)),
        }
    }
}

/// A durable append-only record log in a directory of CRC-framed
/// segment files. The journal stores opaque `(epoch, body)` records; the
/// archive layer above decides what a body means.
pub struct Journal {
    dir: PathBuf,
    active: File,
    active_seq: u64,
    active_bytes: u64,
    unsynced: u32,
    config: JournalConfig,
    stats: JournalStats,
    reader: JournalReader,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("active_seq", &self.active_seq)
            .field("active_bytes", &self.active_bytes)
            .field("stats", &self.stats)
            .finish()
    }
}

fn segment_name(seq: u64) -> String {
    format!("seg-{seq:010}.trej")
}

fn segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("seg-")?.strip_suffix(".trej")?;
    digits.parse().ok()
}

/// All segment files in `dir`, sorted by sequence number.
fn segment_paths(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(seq) = segment_seq(&path) {
            segments.push((seq, path));
        }
    }
    segments.sort_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// Outcome of scanning one segment's bytes.
struct SegmentScan {
    /// Every intact record in file order, located in segment `seq`.
    records: Vec<(u64, Loc)>,
    /// Byte ranges that failed CRC / framing, for the quarantine file.
    quarantined: Vec<(usize, usize)>,
    quarantined_records: u64,
    /// Length of the intact prefix — everything before a *trailing*
    /// partial record. Equals the full length when the tail is clean.
    intact_len: usize,
}

/// Scans the bytes of segment `seq`, locating every intact record.
/// Corruption is skipped with byte-level resynchronisation on the
/// record magic; a partial record at the very end is reported as a torn
/// tail via `intact_len` (not quarantined — the caller truncates it
/// away).
fn scan_segment(seq: u64, bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        records: Vec::new(),
        quarantined: Vec::new(),
        quarantined_records: 0,
        intact_len: 0,
    };
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        // Partial header at the tail: torn write, truncate.
        if rest.len() < RECORD_HEADER_LEN {
            if rest[..rest.len().min(4)] == RECORD_MAGIC[..rest.len().min(4)] {
                break; // torn tail: magic-consistent prefix of a header
            }
            // Tail garbage that is not even a header prefix: quarantine.
            scan.quarantined.push((off, bytes.len()));
            scan.quarantined_records += 1;
            scan.intact_len = bytes.len();
            return scan;
        }
        if rest[..4] != RECORD_MAGIC {
            // Corruption: resynchronise on the next record magic.
            let skip = find_magic(&rest[1..]).map_or(bytes.len() - off, |p| p + 1);
            scan.quarantined.push((off, off + skip));
            scan.quarantined_records += 1;
            off += skip;
            scan.intact_len = off;
            continue;
        }
        let epoch = u64::from_be_bytes(rest[4..12].try_into().unwrap());
        let body_len = u32::from_be_bytes(rest[12..16].try_into().unwrap()) as usize;
        if body_len > MAX_RECORD_BODY {
            // Insane length field: corrupt header, resync past the magic.
            let skip = find_magic(&rest[4..]).map_or(bytes.len() - off, |p| p + 4);
            scan.quarantined.push((off, off + skip));
            scan.quarantined_records += 1;
            off += skip;
            scan.intact_len = off;
            continue;
        }
        let total = RECORD_HEADER_LEN + body_len + RECORD_TRAILER_LEN;
        if rest.len() < total {
            // Either a genuinely torn final record or a corrupted length
            // field pointing past the end. A later record magic means
            // more records follow — corruption, so resync; otherwise
            // it is the torn tail.
            match find_magic(&rest[4..]) {
                Some(p) => {
                    let skip = p + 4;
                    scan.quarantined.push((off, off + skip));
                    scan.quarantined_records += 1;
                    off += skip;
                    scan.intact_len = off;
                    continue;
                }
                None => break,
            }
        }
        let stored = u32::from_be_bytes(rest[total - 4..total].try_into().unwrap());
        if crc32(&rest[4..total - 4]) != stored {
            // CRC failure: quarantine this framing attempt and resync
            // just past the magic so records after the corruption (or a
            // mis-framed length field) are still found.
            let skip = find_magic(&rest[4..]).map_or(bytes.len() - off, |p| p + 4);
            scan.quarantined.push((off, off + skip));
            scan.quarantined_records += 1;
            off += skip;
            scan.intact_len = off;
            continue;
        }
        scan.records.push((
            epoch,
            Loc {
                seq,
                offset: off as u64,
                len: body_len as u32,
            },
        ));
        off += total;
        scan.intact_len = off;
    }
    scan
}

fn find_magic(haystack: &[u8]) -> Option<usize> {
    haystack
        .windows(RECORD_MAGIC.len())
        .position(|w| w == RECORD_MAGIC)
}

/// Encodes one record (header + body + CRC) into a fresh buffer.
fn encode_record(epoch: u64, body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_RECORD_BODY, "journal body exceeds bound");
    let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + body.len() + RECORD_TRAILER_LEN);
    rec.extend_from_slice(&RECORD_MAGIC);
    rec.extend_from_slice(&epoch.to_be_bytes());
    rec.extend_from_slice(&(body.len() as u32).to_be_bytes());
    rec.extend_from_slice(body);
    let crc = crc32(&rec[4..]);
    rec.extend_from_slice(&crc.to_be_bytes());
    rec
}

/// Positioned read of exactly `buf.len()` bytes at `offset`: no shared
/// file cursor, so concurrent readers never serialise on a handle.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    let mut done = 0;
    while done < buf.len() {
        match file.seek_read(&mut buf[done..], offset + done as u64)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => done += n,
        }
    }
    Ok(())
}

/// The read side of a [`Journal`]: a cheap, cloneable handle that serves
/// indexed records straight from the segment files while the journal
/// keeps appending. An epoch becomes visible once its append returns.
#[derive(Debug, Clone)]
pub struct JournalReader {
    index: Arc<RwLock<Index>>,
}

impl JournalReader {
    /// Number of indexed epochs.
    pub fn len(&self) -> usize {
        self.index.read().epochs.len()
    }

    /// Whether no epoch is indexed.
    pub fn is_empty(&self) -> bool {
        self.index.read().epochs.is_empty()
    }

    /// The newest indexed epoch.
    pub fn latest_epoch(&self) -> Option<u64> {
        self.index.read().epochs.last().map(|(e, _)| *e)
    }

    /// Epochs absent between the oldest and the newest indexed epoch.
    pub fn missing_epochs(&self) -> Vec<u64> {
        holes(self.index.read().epochs.iter().map(|(e, _)| *e))
    }

    /// Appends to `out` the stored bodies of at most `max` indexed
    /// epochs in `[from, to]`, in ascending epoch order, and returns the
    /// index binary-search probes spent locating `from`.
    ///
    /// Locations and segment handles are copied under the index lock;
    /// the `pread`s run with no lock held, one per run of records that
    /// sit back to back in a segment. Each record's magic, epoch and
    /// length are checked against the index (its CRC was checked when
    /// the record was scanned or written).
    ///
    /// # Errors
    /// A failed read or check ends the range at the failed epoch: `out`
    /// keeps every record before it.
    pub fn read_range(
        &self,
        from: u64,
        to: u64,
        max: usize,
        out: &mut Vec<(u64, Vec<u8>)>,
    ) -> io::Result<u64> {
        if from > to || max == 0 {
            return Ok(0);
        }
        let mut probes = 0u64;
        let mut spans: Vec<(u64, Loc)> = Vec::new();
        // Each run's segment handle and its first index into `spans`.
        let mut runs: Vec<(Arc<File>, usize)> = Vec::new();
        {
            let index = self.index.read();
            let start = index.epochs.partition_point(|(e, _)| {
                probes += 1;
                *e < from
            });
            for &(epoch, loc) in index.epochs[start..]
                .iter()
                .take_while(|(e, _)| *e <= to)
                .take(max)
            {
                let follows = spans.last().is_some_and(|(_, prev)| {
                    prev.seq == loc.seq && prev.offset + prev.record_len() == loc.offset
                });
                if !follows {
                    runs.push((Arc::clone(&index.files[&loc.seq]), spans.len()));
                }
                spans.push((epoch, loc));
            }
        }
        for (k, (file, begin)) in runs.iter().enumerate() {
            let end = runs.get(k + 1).map_or(spans.len(), |(_, next)| *next);
            let run = &spans[*begin..end];
            let base = run[0].1.offset;
            let last = run[run.len() - 1].1;
            let mut window = vec![0u8; (last.offset + last.record_len() - base) as usize];
            read_exact_at(file, &mut window, base)?;
            for &(epoch, loc) in run {
                let at = (loc.offset - base) as usize;
                let head = &window[at..at + RECORD_HEADER_LEN];
                if head[..4] != RECORD_MAGIC
                    || head[4..12] != epoch.to_be_bytes()
                    || head[12..16] != loc.len.to_be_bytes()
                {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "segment {} offset {}: record for epoch {epoch} fails its checks",
                            loc.seq, loc.offset
                        ),
                    ));
                }
                let body = at + RECORD_HEADER_LEN;
                out.push((epoch, window[body..body + loc.len as usize].to_vec()));
            }
        }
        Ok(probes)
    }
}

/// Epochs absent between the first and last of an ascending sequence.
pub(crate) fn holes(epochs: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut missing = Vec::new();
    let mut prev: Option<u64> = None;
    for e in epochs {
        if let Some(p) = prev {
            missing.extend(p + 1..e);
        }
        prev = Some(e);
    }
    missing
}

impl Journal {
    /// Opens (or creates) the journal directory and indexes every
    /// segment: intact records land in the epoch index, the active
    /// segment's torn tail (if any) is truncated away, and corrupt
    /// records are quarantined to `quarantine.bin`.
    ///
    /// # Errors
    /// Propagates filesystem errors; corruption is *not* an error — it is
    /// skipped and reported.
    pub fn open(dir: impl AsRef<Path>, config: JournalConfig) -> io::Result<(Self, ReplayReport)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let segments = segment_paths(&dir)?;
        let mut index = Index::default();
        let mut report = ReplayReport {
            segments: segments.len() as u64,
            ..ReplayReport::default()
        };
        let mut quarantine: Vec<u8> = Vec::new();
        let last_idx = segments.len().checked_sub(1);
        for (i, (seq, path)) in segments.iter().enumerate() {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let scan = scan_segment(*seq, &bytes);
            for (a, b) in &scan.quarantined {
                quarantine.extend_from_slice(&bytes[*a..*b]);
                report.quarantined_bytes += (*b - *a) as u64;
            }
            report.quarantined_records += scan.quarantined_records;
            report.records += scan.records.len() as u64;
            for (epoch, loc) in scan.records {
                index.insert(epoch, loc);
            }
            if scan.intact_len < bytes.len() {
                let torn = (bytes.len() - scan.intact_len) as u64;
                if Some(i) == last_idx {
                    // Torn tail on the active segment: truncate back to
                    // the last intact record so appends resume cleanly.
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(scan.intact_len as u64)?;
                    f.sync_data()?;
                    report.torn_tail_bytes += torn;
                } else {
                    // A sealed segment should never end mid-record; treat
                    // the stray tail as corruption, not a torn write.
                    quarantine.extend_from_slice(&bytes[scan.intact_len..]);
                    report.quarantined_bytes += torn;
                    report.quarantined_records += 1;
                }
            }
            index.files.insert(*seq, Arc::new(File::open(path)?));
        }
        if !quarantine.is_empty() {
            let mut q = OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("quarantine.bin"))?;
            q.write_all(&quarantine)?;
            q.sync_data()?;
        }
        report.latest_epoch = index.epochs.last().map(|(e, _)| *e);

        let active_seq = segments.last().map_or(1, |(seq, _)| *seq);
        let active_path = dir.join(segment_name(active_seq));
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;
        if segments.is_empty() {
            // The active segment was just created.
            let read = Arc::new(File::open(&active_path)?);
            index.files.insert(active_seq, read);
        }
        let active_bytes = active.metadata()?.len();
        let stats = JournalStats {
            replayed_records: report.records,
            quarantined_records: report.quarantined_records,
            quarantined_bytes: report.quarantined_bytes,
            torn_tail_bytes: report.torn_tail_bytes,
            ..JournalStats::default()
        };
        if tre_obs::is_enabled() {
            tre_obs::event(
                "journal.replayed",
                &format!(
                    "records={} quarantined={} torn_tail_bytes={}",
                    report.records, report.quarantined_records, report.torn_tail_bytes
                ),
            );
        }
        let journal = Self {
            dir,
            active,
            active_seq,
            active_bytes,
            unsynced: 0,
            config,
            stats,
            reader: JournalReader {
                index: Arc::new(RwLock::new(index)),
            },
        };
        Ok((journal, report))
    }

    /// A read handle on this journal's index and segments.
    pub fn reader(&self) -> JournalReader {
        self.reader.clone()
    }

    /// Appends one record, applies the fsync policy, then indexes it.
    /// When this returns under [`FsyncPolicy::EveryRecord`], the record
    /// is on stable storage.
    ///
    /// # Errors
    /// Propagates write / fsync errors — the caller must *not* ack the
    /// publish if this fails.
    pub fn append(&mut self, epoch: u64, body: &[u8]) -> io::Result<()> {
        if self.active_bytes >= self.config.max_segment_bytes {
            self.rotate()?;
        }
        let rec = encode_record(epoch, body);
        let offset = self.active_bytes;
        self.active.write_all(&rec)?;
        self.active_bytes += rec.len() as u64;
        self.stats.appends += 1;
        self.stats.bytes_written += rec.len() as u64;
        self.unsynced = self.unsynced.saturating_add(1);
        match self.config.fsync {
            FsyncPolicy::EveryRecord => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::OnClose => {}
        }
        let loc = Loc {
            seq: self.active_seq,
            offset,
            len: body.len() as u32,
        };
        self.reader.index.write().insert(epoch, loc);
        Ok(())
    }

    /// Forces buffered appends onto stable storage (no-op when nothing
    /// is pending).
    ///
    /// # Errors
    /// Propagates the underlying fsync error.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.active.sync_data()?;
        self.stats.fsyncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Seals the active segment (final fsync) and atomically starts the
    /// next one: the new segment file is born with `create_new` and the
    /// directory entry is fsynced, so a crash between the two leaves
    /// either the old tail or an empty new segment — never a half state.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.active.sync_data()?;
        self.stats.fsyncs += 1;
        self.unsynced = 0;
        let seq = self.active_seq + 1;
        let path = self.dir.join(segment_name(seq));
        self.active = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        self.active_seq = seq;
        self.active_bytes = 0;
        self.stats.rotations += 1;
        self.sync_dir()?;
        let read = Arc::new(File::open(&path)?);
        self.reader.index.write().files.insert(seq, read);
        if tre_obs::is_enabled() {
            tre_obs::event("journal.rotated", &format!("seq={seq}"));
        }
        Ok(())
    }

    /// Drops every record with `epoch < horizon` from the **sealed**
    /// segments (the active segment is never rewritten). A segment left
    /// empty is deleted; a partially retained one is rewritten to a temp
    /// file, fsynced, and atomically renamed over the original. The
    /// index follows: dropped epochs leave it and kept ones move to
    /// their new offsets. Returns the number of records dropped.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn compact(&mut self, horizon: u64) -> io::Result<u64> {
        let mut dropped = 0u64;
        // Each touched segment's new read handle (`None` once deleted),
        // and where each kept record moved: (seq, old offset) → offset.
        let mut handles: BTreeMap<u64, Option<Arc<File>>> = BTreeMap::new();
        let mut moved: HashMap<(u64, u64), u64> = HashMap::new();
        for (seq, path) in segment_paths(&self.dir)? {
            if seq >= self.active_seq {
                continue;
            }
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let scan = scan_segment(seq, &bytes);
            let (keep, drop): (Vec<_>, Vec<_>) = scan
                .records
                .into_iter()
                .partition(|(epoch, _)| *epoch >= horizon);
            if drop.is_empty() {
                continue;
            }
            dropped += drop.len() as u64;
            self.stats.compacted_records += drop.len() as u64;
            if keep.is_empty() {
                fs::remove_file(&path)?;
                self.stats.segments_removed += 1;
                handles.insert(seq, None);
                continue;
            }
            let tmp = path.with_extension("trej.tmp");
            {
                let mut f = File::create(&tmp)?;
                let mut offset = 0u64;
                for (epoch, loc) in &keep {
                    let start = loc.offset as usize + RECORD_HEADER_LEN;
                    let rec = encode_record(*epoch, &bytes[start..start + loc.len as usize]);
                    f.write_all(&rec)?;
                    moved.insert((seq, loc.offset), offset);
                    offset += rec.len() as u64;
                }
                f.sync_data()?;
            }
            fs::rename(&tmp, &path)?;
            handles.insert(seq, Some(Arc::new(File::open(&path)?)));
        }
        self.sync_dir()?;
        if !handles.is_empty() {
            // One swap under the write lock: a reader sees either the old
            // file with old offsets or the new file with new ones.
            let mut index = self.reader.index.write();
            index.epochs.retain_mut(|(_, loc)| {
                if !handles.contains_key(&loc.seq) {
                    return true;
                }
                match moved.get(&(loc.seq, loc.offset)) {
                    Some(&offset) => {
                        loc.offset = offset;
                        true
                    }
                    None => false,
                }
            });
            for (seq, file) in handles {
                match file {
                    Some(file) => index.files.insert(seq, file),
                    None => index.files.remove(&seq),
                };
            }
        }
        if tre_obs::is_enabled() && dropped > 0 {
            tre_obs::event(
                "journal.compacted",
                &format!("horizon={horizon} dropped={dropped}"),
            );
        }
        Ok(dropped)
    }

    /// Best-effort directory fsync so renames/creates/unlinks persist.
    fn sync_dir(&self) -> io::Result<()> {
        // Opening a directory read-only for fsync works on unix; on
        // platforms where it does not, the rename is still atomic.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the active segment.
    pub fn active_segment(&self) -> u64 {
        self.active_seq
    }

    /// Counters since open.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Number of segment files currently on disk.
    ///
    /// # Errors
    /// Propagates the directory listing error.
    pub fn segment_count(&self) -> io::Result<usize> {
        Ok(segment_paths(&self.dir)?.len())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // OnClose / EveryN tails: flush whatever is still buffered.
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tre-journal-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn body(i: u64) -> Vec<u8> {
        format!("update-body-{i}").into_bytes()
    }

    /// Every indexed record, read back through the journal's read path.
    fn records(j: &Journal) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        j.reader()
            .read_range(0, u64::MAX, usize::MAX, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut j, report) = Journal::open(&dir, JournalConfig::default()).unwrap();
            assert!(records(&j).is_empty());
            assert_eq!(report.records, 0);
            for e in 0..5 {
                j.append(e, &body(e)).unwrap();
            }
            assert_eq!(j.stats().appends, 5);
            assert_eq!(j.stats().fsyncs, 5, "EveryRecord fsyncs each append");
        }
        let (j, report) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let recovered = records(&j);
        assert_eq!(report.records, 5);
        assert_eq!(report.latest_epoch, Some(4));
        assert_eq!(report.quarantined_records, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        let epochs: Vec<u64> = recovered.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![0, 1, 2, 3, 4]);
        assert_eq!(recovered[3].1, body(3));
        drop(j);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_policy_amortises_fsync() {
        let dir = tmp_dir("everyn");
        let config = JournalConfig {
            fsync: FsyncPolicy::EveryN(4),
            ..JournalConfig::default()
        };
        let (mut j, _) = Journal::open(&dir, config).unwrap();
        for e in 0..10 {
            j.append(e, &body(e)).unwrap();
        }
        assert_eq!(j.stats().fsyncs, 2, "10 appends, window of 4");
        j.sync().unwrap();
        assert_eq!(j.stats().fsyncs, 3, "explicit sync flushes the tail");
        j.sync().unwrap();
        assert_eq!(j.stats().fsyncs, 3, "sync with nothing pending is free");
        drop(j);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_intact_record() {
        let dir = tmp_dir("torn");
        {
            let (mut j, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
            for e in 0..4 {
                j.append(e, &body(e)).unwrap();
            }
        }
        // Simulate a crash mid-write: chop the final record in half.
        let seg = dir.join(segment_name(1));
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);

        let (j, report) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let recovered = records(&j);
        assert_eq!(report.records, 3, "epochs 0..=2 survive");
        assert_eq!(report.latest_epoch, Some(2));
        assert!(report.torn_tail_bytes > 0);
        assert_eq!(
            report.quarantined_records, 0,
            "a torn tail is not corruption"
        );
        assert_eq!(recovered.len(), 3);
        // The file was truncated: a second replay is clean.
        let (mut j2, report2) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let recovered2 = records(&j2);
        assert_eq!(report2.torn_tail_bytes, 0);
        assert_eq!(recovered2.len(), 3);
        // And appends resume exactly where the intact prefix ended.
        j2.append(3, &body(3)).unwrap();
        drop(j2);
        let (j3, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let recovered3 = records(&j3);
        assert_eq!(recovered3.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_quarantined_and_later_records_survive() {
        let dir = tmp_dir("corrupt");
        {
            let (mut j, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
            for e in 0..5 {
                j.append(e, &body(e)).unwrap();
            }
        }
        // Flip one byte inside record 2's body.
        let seg = dir.join(segment_name(1));
        let mut bytes = fs::read(&seg).unwrap();
        let rec_len = encode_record(0, &body(0)).len();
        bytes[2 * rec_len + RECORD_HEADER_LEN + 3] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();

        let (j, report) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let recovered = records(&j);
        let epochs: Vec<u64> = recovered.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![0, 1, 3, 4], "only the corrupt record is lost");
        assert_eq!(report.quarantined_records, 1);
        assert!(report.quarantined_bytes > 0);
        assert!(dir.join("quarantine.bin").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_length_field_resyncs_on_next_magic() {
        let dir = tmp_dir("badlen");
        {
            let (mut j, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
            for e in 0..4 {
                j.append(e, &body(e)).unwrap();
            }
        }
        let seg = dir.join(segment_name(1));
        let mut bytes = fs::read(&seg).unwrap();
        let rec_len = encode_record(0, &body(0)).len();
        // Record 1's length field: make it point past record 2.
        bytes[rec_len + 12] = 0x00;
        bytes[rec_len + 14] ^= 0x55;
        fs::write(&seg, &bytes).unwrap();

        let (j, report) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let recovered = records(&j);
        let epochs: Vec<u64> = recovered.iter().map(|(e, _)| *e).collect();
        assert_eq!(
            epochs,
            vec![0, 2, 3],
            "resync recovered records after the bad length"
        );
        assert!(report.quarantined_records >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_compaction() {
        let dir = tmp_dir("rotate");
        let config = JournalConfig {
            fsync: FsyncPolicy::OnClose,
            max_segment_bytes: 64, // tiny: force frequent rotation
        };
        let (mut j, _) = Journal::open(&dir, config).unwrap();
        for e in 0..12 {
            j.append(e, &body(e)).unwrap();
        }
        assert!(j.stats().rotations >= 3, "tiny segments rotate");
        let segments_before = j.segment_count().unwrap();
        assert!(segments_before >= 4);

        // Everything before epoch 8 ages out.
        let dropped = j.compact(8).unwrap();
        assert!(dropped >= 6, "old records dropped (active segment kept)");
        assert!(j.segment_count().unwrap() < segments_before);
        // The live index followed the rewrite: it serves exactly what a
        // fresh scan of the compacted files finds.
        let live = records(&j);
        drop(j);

        let (j, _) = Journal::open(&dir, config).unwrap();
        let recovered = records(&j);
        assert_eq!(recovered, live);
        let epochs: Vec<u64> = recovered.iter().map(|(e, _)| *e).collect();
        assert!(
            epochs.iter().all(|&e| e >= 8),
            "compacted journal keeps only the retention window + active segment; got {epochs:?}"
        );
        assert!(epochs.contains(&11), "newest record always survives");
        // Order is preserved.
        let mut sorted = epochs.clone();
        sorted.sort_unstable();
        assert_eq!(epochs, sorted);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_after_rotation_appends_to_newest_segment() {
        let dir = tmp_dir("reopen");
        let config = JournalConfig {
            fsync: FsyncPolicy::OnClose,
            max_segment_bytes: 64,
        };
        {
            let (mut j, _) = Journal::open(&dir, config).unwrap();
            for e in 0..6 {
                j.append(e, &body(e)).unwrap();
            }
        }
        let (mut j, _) = Journal::open(&dir, config).unwrap();
        let recovered = records(&j);
        assert_eq!(recovered.len(), 6);
        assert!(j.active_segment() > 1, "resumes on the newest segment");
        j.append(6, &body(6)).unwrap();
        drop(j);
        let (j2, _) = Journal::open(&dir, config).unwrap();
        let recovered2 = records(&j2);
        assert_eq!(recovered2.len(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_keeps_last_write_and_accepts_backfills() {
        let dir = tmp_dir("index");
        let config = JournalConfig {
            fsync: FsyncPolicy::OnClose,
            max_segment_bytes: 64,
        };
        let (mut j, _) = Journal::open(&dir, config).unwrap();
        for e in [0, 1, 2, 5] {
            j.append(e, &body(e)).unwrap();
        }
        j.append(1, b"rewritten").unwrap(); // lands in a later segment
        j.append(3, &body(3)).unwrap(); // out-of-order back-fill
        let want = vec![
            (0, body(0)),
            (1, b"rewritten".to_vec()),
            (2, body(2)),
            (3, body(3)),
            (5, body(5)),
        ];
        assert_eq!(records(&j), want);
        let reader = j.reader();
        assert_eq!(reader.len(), 5);
        assert_eq!(reader.latest_epoch(), Some(5));
        assert_eq!(reader.missing_epochs(), vec![4]);
        let mut chunk = Vec::new();
        reader.read_range(1, 3, 2, &mut chunk).unwrap();
        assert_eq!(chunk, want[1..3].to_vec());
        drop(j);
        let (j, _) = Journal::open(&dir, config).unwrap();
        assert_eq!(records(&j), want, "a reopen indexes the same records");
        let _ = fs::remove_dir_all(&dir);
    }
}
