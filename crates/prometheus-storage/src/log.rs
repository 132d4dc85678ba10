//! Append-only redo log.
//!
//! Every mutation of the store is written as a [`LogRecord`] inside a framed,
//! CRC-protected entry. A transaction appears in the log as
//! `Begin … mutations … Commit`; recovery applies only mutations belonging to
//! committed transactions, so a crash between frames (a "torn tail") simply
//! loses the uncommitted suffix — the same durability contract the thesis
//! gets from POET's transaction manager.
//!
//! Frame layout on disk:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc32: u32 LE  | payload (len B)  |
//! +----------------+----------------+------------------+
//! ```
//!
//! The payload is a [`LogRecord`] encoded with [`crate::codec`].

use crate::codec;
use crate::crc::crc32;
use crate::error::{StorageError, StorageResult};
use crate::oid::Oid;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Maximum frame payload the reader will accept; guards recovery against a
/// corrupted length word sending it on a gigabyte-sized read.
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Logical operations recorded in the log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A transaction began.
    Begin { txn: u64 },
    /// A transaction committed; `next_oid` is the OID allocator's high-water
    /// mark so recovery never re-issues identifiers.
    Commit { txn: u64, next_oid: u64 },
    /// A record was written (insert or update).
    Put { txn: u64, oid: Oid, bytes: Vec<u8> },
    /// A record was deleted.
    Delete { txn: u64, oid: Oid },
    /// An entry was written in an ordered keyspace (secondary indexes).
    KvPut {
        txn: u64,
        keyspace: u8,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// An entry was removed from an ordered keyspace.
    KvDelete {
        txn: u64,
        keyspace: u8,
        key: Vec<u8>,
    },
    // New variants append only: the codec identifies variants by position, so
    // reordering would misread logs written by earlier builds.
    /// A unit of work opened. Transactions between this frame and the
    /// matching [`LogRecord::UnitEnd`] form one atomic group.
    UnitBegin { unit: u64 },
    /// A unit of work settled. Recovery applies the group's transactions only
    /// when `committed` is true; a missing or false seal discards them all.
    UnitEnd { unit: u64, committed: bool },
    /// Two-phase commit, phase one: this shard's portion of a cross-shard
    /// unit is complete and durable. `gid` is the global unit id (the
    /// coordinator shard's unit id) and `coordinator` the shard index whose
    /// log carries the authoritative [`LogRecord::UnitDecision`]. A log that
    /// ends after this frame but before the matching `UnitEnd` is *in doubt*:
    /// recovery must consult the coordinator instead of presuming abort.
    UnitPrepared {
        unit: u64,
        gid: u64,
        coordinator: u32,
    },
    /// Two-phase commit decision record, written (and fsynced) only on the
    /// coordinator shard before any participant seals. Its presence is the
    /// commit point: a prepared unit whose coordinator log lacks a decision
    /// for `gid` is presumed aborted.
    UnitDecision { gid: u64, committed: bool },
    /// Distributed trace correlation mark: the wire request settling `unit`
    /// ran under the 128-bit trace id `(trace_hi, trace_lo)`. Purely
    /// observational — recovery and the image ignore it — but replication
    /// followers replay it so their `replica_apply` spans carry the *same*
    /// trace id the primary's commit spans do, stitching one distributed
    /// span tree across processes.
    UnitTrace {
        unit: u64,
        trace_hi: u64,
        trace_lo: u64,
    },
}

impl LogRecord {
    /// The transaction (or unit) this record belongs to.
    pub fn txn(&self) -> u64 {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn, .. }
            | LogRecord::Put { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::KvPut { txn, .. }
            | LogRecord::KvDelete { txn, .. } => *txn,
            LogRecord::UnitBegin { unit }
            | LogRecord::UnitEnd { unit, .. }
            | LogRecord::UnitPrepared { unit, .. }
            | LogRecord::UnitTrace { unit, .. } => *unit,
            LogRecord::UnitDecision { gid, .. } => *gid,
        }
    }
}

/// fsync the directory containing `path`, making a just-created or
/// just-renamed log file's directory entry itself durable.
///
/// `sync_data` on the file alone does not persist the rename/creation
/// metadata: after a power loss the parent directory may still point at the
/// old inode (or at nothing). Called after the writer creates the file and
/// after compaction renames the fresh image into place. A relative path with
/// no parent component syncs the current directory.
pub fn fsync_parent_dir(path: &Path) -> StorageResult<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = File::open(parent)?;
    dir.sync_all()?;
    Ok(())
}

/// Sequential writer over the log file.
#[derive(Debug)]
pub struct LogWriter {
    writer: BufWriter<File>,
    /// Byte offset the next frame will start at.
    offset: u64,
}

impl LogWriter {
    /// Open (creating if necessary) the log at `path`, positioned at
    /// `valid_len` — the end of the last fully-recovered frame. Anything
    /// after `valid_len` is a torn tail and is truncated away.
    pub fn open(path: &Path, valid_len: u64) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false) // recovery truncates precisely, via set_len below
            .read(true)
            .write(true)
            .open(path)?;
        // Make the file's directory entry durable: creating (or truncating
        // after a torn tail) only becomes crash-safe once the parent
        // directory is synced too.
        fsync_parent_dir(path)?;
        file.set_len(valid_len)?;
        let mut writer = BufWriter::new(file);
        writer.seek(SeekFrom::Start(valid_len))?;
        Ok(LogWriter {
            writer,
            offset: valid_len,
        })
    }

    /// Append one record; returns the byte offset of its frame.
    pub fn append(&mut self, record: &LogRecord) -> StorageResult<u64> {
        let payload = codec::to_bytes(record)?;
        if payload.len() as u64 > MAX_FRAME_LEN as u64 {
            return Err(StorageError::Codec(format!(
                "record of {} bytes exceeds maximum frame size",
                payload.len()
            )));
        }
        let at = self.offset;
        self.writer
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&crc32(&payload).to_le_bytes())?;
        self.writer.write_all(&payload)?;
        self.offset += 8 + payload.len() as u64;
        Ok(at)
    }

    /// Flush buffered frames and fsync to stable storage.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// Flush without fsync (used when durability is relaxed for benchmarks).
    pub fn flush(&mut self) -> StorageResult<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Offset at which the next frame will be written.
    pub fn len(&self) -> u64 {
        self.offset
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.offset == 0
    }
}

/// One frame recovered from the log.
#[derive(Debug)]
pub struct RecoveredFrame {
    /// Byte offset of the frame header.
    pub offset: u64,
    /// Decoded record.
    pub record: LogRecord,
}

/// Result of scanning a log file.
#[derive(Debug)]
pub struct LogScan {
    /// All structurally valid frames in order.
    pub frames: Vec<RecoveredFrame>,
    /// Length of the valid prefix; any bytes beyond this are torn/corrupt.
    pub valid_len: u64,
}

/// Read and validate every frame in the log at `path`.
///
/// Scanning stops — without error — at the first torn or corrupt frame;
/// crash recovery treats everything before that point as the authoritative
/// history.
pub fn scan(path: &Path) -> StorageResult<LogScan> {
    let mut frames = Vec::new();
    let valid_len = scan_each(path, |offset, record| {
        frames.push(RecoveredFrame { offset, record })
    })?;
    Ok(LogScan { frames, valid_len })
}

/// [`scan`] without collecting: hands each valid frame's offset and record
/// to `f` as it is read, and returns the length of the valid prefix.
/// Recovery replays through this, so a long log is never held in memory
/// whole.
pub fn scan_each(path: &Path, mut f: impl FnMut(u64, LogRecord)) -> StorageResult<u64> {
    let mut valid_len = 0u64;
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(valid_len),
        Err(e) => return Err(e.into()),
    };
    let mut reader = std::io::BufReader::new(file);
    let mut payload = Vec::new();
    while let Some((record, len)) = read_frame(&mut reader, &mut payload, u64::MAX)? {
        f(valid_len, record);
        valid_len += len;
    }
    Ok(valid_len)
}

/// Read frames from `offset` up to `end` (a known committed frame boundary),
/// stopping after at least `max_bytes` of frame data have been collected.
///
/// Returns the decoded records and the offset of the first unread frame.
/// `Ok(None)` means `offset` does not sit on a decodable frame boundary —
/// which happens when the log was rewritten underneath the caller (compaction
/// on the primary while a replication follower still holds byte cursors into
/// the old file). Callers treat `None` as "your cursor is meaningless,
/// re-handshake from scratch".
pub fn tail(
    path: &Path,
    offset: u64,
    max_bytes: u64,
    end: u64,
) -> StorageResult<Option<(Vec<LogRecord>, u64)>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut reader = std::io::BufReader::new(file);
    reader.seek(SeekFrom::Start(offset))?;
    let mut frames = Vec::new();
    let mut at = offset;
    let mut payload = Vec::new();
    while at < end && at - offset < max_bytes.max(1) {
        // A frame cannot straddle the committed boundary, and a file shorter
        // than `end` was rewritten underneath us.
        let Some((record, len)) = read_frame(&mut reader, &mut payload, end - at)? else {
            break;
        };
        frames.push(record);
        at += len;
    }
    if frames.is_empty() && at < end {
        // We were asked for data that provably exists but could not decode a
        // single frame at `offset`: the cursor is misaligned.
        return Ok(None);
    }
    Ok(Some((frames, at)))
}

/// Read the frame at `reader`'s position, of at most `limit` bytes header
/// included, through the buffer `payload`: its record and its length on
/// disk. `None` at the end of the file and wherever a valid frame does not
/// start — a torn header or payload, a corrupt length word, CRC or
/// payload, or a frame longer than `limit`.
fn read_frame<R: Read>(
    reader: &mut R,
    payload: &mut Vec<u8>,
    limit: u64,
) -> StorageResult<Option<(LogRecord, u64)>> {
    let mut header = [0u8; 8];
    if limit < 8 || !read_full(reader, &mut header)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME_LEN || 8 + len as u64 > limit {
        return Ok(None);
    }
    payload.resize(len as usize, 0);
    if !read_full(reader, payload)? || crc32(payload) != crc {
        return Ok(None);
    }
    Ok(codec::from_bytes::<LogRecord>(payload)
        .ok()
        .map(|record| (record, 8 + len as u64)))
}

/// Fill `buf` from `reader`: `false` if the reader ends first.
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> StorageResult<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(false);
        }
        filled += n;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "prometheus-log-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Put {
                txn: 1,
                oid: Oid::from_raw(10),
                bytes: vec![1, 2, 3],
            },
            LogRecord::KvPut {
                txn: 1,
                keyspace: 2,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            LogRecord::Delete {
                txn: 1,
                oid: Oid::from_raw(9),
            },
            LogRecord::Commit {
                txn: 1,
                next_oid: 11,
            },
        ]
    }

    #[test]
    fn append_then_scan_round_trips() {
        let path = tmp_dir().join("roundtrip.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        let records = sample_records();
        for r in &records {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.frames.len(), records.len());
        for (frame, expected) in scan.frames.iter().zip(&records) {
            assert_eq!(&frame.record, expected);
        }
        assert_eq!(scan.valid_len, w.len());
    }

    #[test]
    fn scan_of_missing_file_is_empty() {
        let path = tmp_dir().join("nonexistent.log");
        let _ = std::fs::remove_file(&path);
        let scan = scan(&path).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = tmp_dir().join("torn.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let good_len = w.len();
        drop(w);
        // Simulate a crash mid-append: write half a frame header.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x05, 0x00]).unwrap();
        f.sync_data().unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.frames.len(), 5);
        assert_eq!(scan.valid_len, good_len);
    }

    #[test]
    fn corrupt_payload_stops_scan() {
        let path = tmp_dir().join("corrupt.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Flip one byte in the middle of the file.
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let scan = scan(&path).unwrap();
        assert!(
            scan.frames.len() < 5,
            "scan must stop at the corrupted frame"
        );
    }

    #[test]
    fn reopening_truncates_torn_tail() {
        let path = tmp_dir().join("reopen.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        w.append(&LogRecord::Begin { txn: 1 }).unwrap();
        w.sync().unwrap();
        let good = w.len();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"garbage").unwrap();
        drop(f);
        let s1 = scan(&path).unwrap();
        let mut w = LogWriter::open(&path, s1.valid_len).unwrap();
        assert_eq!(w.len(), good);
        w.append(&LogRecord::Commit {
            txn: 1,
            next_oid: 1,
        })
        .unwrap();
        w.sync().unwrap();
        let s2 = scan(&path).unwrap();
        assert_eq!(s2.frames.len(), 2);
    }
}
