//! The transactional record store.
//!
//! [`Store`] keeps the authoritative database image in memory (a record map
//! plus an ordered key/value namespace for secondary indexes) and makes every
//! mutation durable through the append-only redo [`crate::log`]. On open, the
//! image is rebuilt by replaying committed transactions — uncommitted or torn
//! suffixes are discarded, giving atomicity and durability.
//!
//! This is the substrate the rest of Prometheus builds on; it plays the role
//! POET played for the thesis prototype (see `DESIGN.md`, *Substitutions*).
//! It is intentionally oblivious to classes, relationships and
//! classifications.

use crate::error::{StorageError, StorageResult};
use crate::log::{self, LogRecord, LogWriter};
use crate::oid::{Oid, OidAllocator};
use crate::pmap::{PMap, Touch};
use crate::shard::ShardedStore;
use crate::stats::Stats;
use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard, RwLock};
use prometheus_trace::{Recorder, Span, Stage};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One persistent ordered map per possible keyspace id. Empty [`PMap`]s have
/// no nodes, so unused keyspaces cost a `None` root each.
const KEYSPACES: usize = 256;

/// Identifier of an ordered key/value namespace within the store.
///
/// The object layer assigns one keyspace per index family (extents, attribute
/// indexes, relationship endpoints, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Keyspace(pub u8);

/// Tuning knobs for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// fsync the log on every commit. Disable only for benchmarks that want
    /// to measure CPU-side costs (the thesis benchmark ran POET with default
    /// buffered commits).
    pub sync_on_commit: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync_on_commit: true,
        }
    }
}

/// The committed database image: a persistent record map (keyed by the OID's
/// big-endian bytes) plus one persistent ordered key/value map per keyspace,
/// all built on the structure-sharing [`PMap`]. Mutation goes through
/// [`Image::apply_owned`], which path-copies only the root-to-leaf spine of
/// the touched key, so cloning the image — done once per published snapshot —
/// is 257 root handles, and a commit's publication cost is O(log n) per
/// touched key instead of O(shard).
#[derive(Debug, Clone)]
pub(crate) struct Image {
    pub(crate) records: PMap,
    pub(crate) kv: Vec<PMap>,
}

impl Default for Image {
    fn default() -> Self {
        Image {
            records: PMap::new(),
            kv: (0..KEYSPACES).map(|_| PMap::new()).collect(),
        }
    }
}

fn oid_key(oid: Oid) -> Bytes {
    Bytes::copy_from_slice(&oid.raw().to_be_bytes())
}

impl Image {
    pub(crate) fn get(&self, oid: Oid) -> Option<Bytes> {
        self.records.get(&oid.raw().to_be_bytes())
    }

    pub(crate) fn contains(&self, oid: Oid) -> bool {
        self.records.contains_key(&oid.raw().to_be_bytes())
    }

    pub(crate) fn record_count(&self) -> usize {
        self.records.len()
    }

    pub(crate) fn kv_get(&self, keyspace: Keyspace, key: &[u8]) -> Option<Bytes> {
        self.kv[keyspace.0 as usize].get(key)
    }

    /// Apply one settled log record, consuming it. Taking ownership lets the
    /// `Vec<u8>` payloads the log codec produces become [`Bytes`] without a
    /// copy (`Bytes::from(Vec<u8>)` takes over the allocation), so replay and
    /// commit share one zero-copy path into the image. Path-copy costs are
    /// tallied into `touch`.
    fn apply_owned(&mut self, record: LogRecord, touch: &mut Touch) {
        match record {
            LogRecord::Put { oid, bytes, .. } => {
                self.records.insert(oid_key(oid), Bytes::from(bytes), touch);
            }
            LogRecord::Delete { oid, .. } => {
                self.records.remove(&oid.raw().to_be_bytes(), touch);
            }
            LogRecord::KvPut {
                keyspace,
                key,
                value,
                ..
            } => {
                self.kv[keyspace as usize].insert(Bytes::from(key), Bytes::from(value), touch);
            }
            LogRecord::KvDelete { keyspace, key, .. } => {
                self.kv[keyspace as usize].remove(&key, touch);
            }
            LogRecord::Begin { .. }
            | LogRecord::Commit { .. }
            | LogRecord::UnitBegin { .. }
            | LogRecord::UnitEnd { .. }
            | LogRecord::UnitPrepared { .. }
            | LogRecord::UnitDecision { .. }
            | LogRecord::UnitTrace { .. } => {}
        }
    }
}

/// The one ordered scan: a streaming k-way merge over one image per shard,
/// visiting every entry of `keyspace` with `lo <= key` below `hi` in global
/// key order. Shard maps are key-disjoint and individually sorted, so the
/// merged stream is byte-identical to a single store's; ties (possible only
/// through direct member-store writes) resolve lowest shard first. Entries
/// stream a run at a time — one shard's, up to the next shard's head — so
/// with one image the merge is that image's cursor loop.
pub(crate) fn scan<'a>(
    images: impl IntoIterator<Item = &'a Image>,
    keyspace: Keyspace,
    lo: &[u8],
    hi: Bound<&'a [u8]>,
    mut f: impl FnMut(&'a Bytes, &'a Bytes),
) {
    // Each shard's cursor with its head entry; exhausted shards drop out.
    let mut shards: Vec<_> = images
        .into_iter()
        .filter_map(|image| {
            let mut cursor = image.kv[keyspace.0 as usize].range(Bound::Included(lo), hi);
            cursor.next().map(|head| (head, cursor))
        })
        .collect();
    while !shards.is_empty() {
        let mut min = 0;
        for i in 1..shards.len() {
            if shards[i].0 .0 < shards[min].0 .0 {
                min = i;
            }
        }
        // Stream the run this shard holds before any other shard's head,
        // from locals: the per-key loop then never touches the vector.
        let (mut head, mut cursor) = shards.remove(min);
        let limit = shards.iter().map(|(other, _)| other.0).min();
        loop {
            f(head.0, head.1);
            match cursor.next() {
                None => break,
                Some(next) => head = next,
            }
            if limit.is_some_and(|limit| limit <= head.0) {
                shards.insert(min, (head, cursor));
                break;
            }
        }
    }
}

/// The smallest key greater than every key that starts with `prefix` — the
/// exclusive upper bound that turns a prefix scan into a range scan. `None`
/// when no such key exists (the prefix is empty or all `0xff`).
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let last = prefix.iter().rposition(|&b| b != 0xff)?;
    let mut end = prefix[..=last].to_vec();
    end[last] += 1;
    Some(end)
}

/// Ordered reads over one keyspace, offered by every store-shaped type
/// ([`Store`], [`Snapshot`], [`ShardedStore`], [`crate::ShardSnapshot`] and,
/// with its staged overlay, [`Txn`]). Implementors supply the ranged
/// visitor; the prefix form and the collecting forms are defined here, once.
pub trait KvScan {
    /// Stream every entry with `lo <= key` below `hi`, in key order, with no
    /// intermediate vector. A scan reads pinned images and holds no store
    /// lock, so the callback may read the store again.
    fn kv_for_each(
        &self,
        keyspace: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    );

    /// Stream every entry whose key starts with `prefix`: the ranged scan
    /// from `prefix` up to its successor.
    fn kv_for_each_prefix(&self, keyspace: Keyspace, prefix: &[u8], f: impl FnMut(&[u8], &[u8])) {
        let end = prefix_successor(prefix);
        let hi = end.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
        self.kv_for_each(keyspace, prefix, hi, f)
    }

    /// Stream every entry with `lo <= key < hi`.
    fn kv_for_each_range(
        &self,
        keyspace: Keyspace,
        lo: &[u8],
        hi: &[u8],
        f: impl FnMut(&[u8], &[u8]),
    ) {
        self.kv_for_each(keyspace, lo, Bound::Excluded(hi), f)
    }

    /// All entries whose key starts with `prefix`, in key order, copied out.
    fn kv_scan_prefix(&self, keyspace: Keyspace, prefix: &[u8]) -> Vec<(Bytes, Bytes)> {
        let mut out = Vec::new();
        self.kv_for_each_prefix(keyspace, prefix, |k, v| {
            out.push((Bytes::copy_from_slice(k), Bytes::copy_from_slice(v)));
        });
        out
    }

    /// All entries with `lo <= key < hi`, in key order, copied out.
    fn kv_scan_range(&self, keyspace: Keyspace, lo: &[u8], hi: &[u8]) -> Vec<(Bytes, Bytes)> {
        let mut out = Vec::new();
        self.kv_for_each_range(keyspace, lo, hi, |k, v| {
            out.push((Bytes::copy_from_slice(k), Bytes::copy_from_slice(v)));
        });
        out
    }
}

/// An immutable, point-in-time view of the committed image.
///
/// Obtained from [`Store::snapshot`]; cloning is an `Arc` bump. Reads on a
/// snapshot never take the store mutex, so any number of readers proceed in
/// parallel with the single writer, each seeing the consistent state that was
/// published when it pinned the snapshot. A unit of work reaches the store
/// only as one sealed commit, so a snapshot can never observe a torn unit.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) image: Arc<Image>,
}

impl Snapshot {
    /// Read a record as of this snapshot.
    pub fn get(&self, oid: Oid) -> Option<Bytes> {
        self.image.get(oid)
    }

    /// Whether a record exists as of this snapshot.
    pub fn contains(&self, oid: Oid) -> bool {
        self.image.contains(oid)
    }

    /// Number of records as of this snapshot.
    pub fn record_count(&self) -> usize {
        self.image.record_count()
    }

    /// Read a key/value entry as of this snapshot. The returned value is a
    /// shared handle into the image, not a copy.
    pub fn kv_get(&self, keyspace: Keyspace, key: &[u8]) -> Option<Bytes> {
        self.image.kv_get(keyspace, key)
    }

    /// Whether two snapshots pin the same published image.
    pub fn same_version(&self, other: &Snapshot) -> bool {
        Arc::ptr_eq(&self.image, &other.image)
    }
}

impl KvScan for Snapshot {
    fn kv_for_each(
        &self,
        keyspace: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]),
    ) {
        scan([&*self.image], keyspace, lo, hi, |k, v| f(k, v))
    }
}

/// The log-replay state machine, shared by crash recovery and replication.
///
/// Frames are offered one at a time in log order; [`ReplayState::offer`]
/// returns the records of any transaction group that *settled* with that
/// frame, in apply order. The semantics mirror recovery exactly: a `Commit`
/// outside a unit's `UnitBegin … UnitEnd` brackets settles immediately;
/// commits inside a unit are buffered until the unit seals committed and
/// are discarded on an aborted (or never sealed) unit — so a follower
/// replaying a live tail can never publish half a unit, for the same reason
/// a crash can never recover one. A unit writes one group per shard; logs
/// written when a unit wrote one group per operation replay the same way.
#[derive(Debug, Default)]
pub struct ReplayState {
    pending: HashMap<u64, Vec<LogRecord>>,
    open_unit: Option<(u64, Vec<LogRecord>)>,
    /// `(gid, coordinator)` once the open unit's `UnitPrepared` frame has
    /// been seen: the unit is in doubt if the log ends here.
    prepared: Option<(u64, u32)>,
    /// Two-phase-commit decisions observed on this log (coordinator side).
    /// Bounded by the number of cross-shard units since the last compaction.
    decisions: HashMap<u64, bool>,
    /// Trace-id words from the open unit's `UnitTrace` mark, held until the
    /// seal so a follower applying the settled group can record its replay
    /// spans under the primary's trace id (see [`ReplayState::take_unit_trace`]).
    unit_trace: Option<(u64, u64)>,
    next_txn: u64,
    next_oid: u64,
}

impl ReplayState {
    /// Feed one frame; returns the records of the group it settled, if any.
    /// Data records move into the group, uncopied.
    pub fn offer(&mut self, record: LogRecord) -> Vec<LogRecord> {
        match &record {
            LogRecord::Begin { txn } => {
                self.pending.insert(*txn, Vec::new());
                self.next_txn = self.next_txn.max(txn + 1);
                Vec::new()
            }
            LogRecord::Commit { txn, next_oid } => {
                // The OID high-water mark is honoured even for discarded
                // units, so identifiers are never re-issued.
                self.next_oid = self.next_oid.max(*next_oid);
                match self.pending.remove(txn) {
                    Some(records) => match self.open_unit.as_mut() {
                        Some((_, buffered)) => {
                            buffered.extend(records);
                            Vec::new()
                        }
                        None => records,
                    },
                    // Records for unknown transactions (no Begin) are
                    // ignored; a correct writer never produces them.
                    None => Vec::new(),
                }
            }
            LogRecord::UnitBegin { unit } => {
                // A new unit while one is still open means the previous one
                // was never sealed: discard it.
                self.open_unit = Some((*unit, Vec::new()));
                self.prepared = None;
                self.unit_trace = None;
                self.next_txn = self.next_txn.max(unit + 1);
                Vec::new()
            }
            LogRecord::UnitEnd { unit, committed } => {
                self.prepared = None;
                match self.open_unit.take() {
                    Some((open, buffered)) if *committed && open == *unit => buffered,
                    _ => Vec::new(),
                }
            }
            LogRecord::UnitPrepared {
                unit,
                gid,
                coordinator,
            } => {
                // Phase one of a cross-shard unit: keep buffering, but mark
                // the group so recovery treats a log ending here as in doubt
                // rather than presuming abort.
                if matches!(self.open_unit.as_ref(), Some((open, _)) if open == unit) {
                    self.prepared = Some((*gid, *coordinator));
                }
                Vec::new()
            }
            LogRecord::UnitDecision { gid, committed } => {
                self.decisions.insert(*gid, *committed);
                Vec::new()
            }
            LogRecord::UnitTrace {
                unit,
                trace_hi,
                trace_lo,
            } => {
                // Purely observational: the image never sees the mark, but a
                // follower holds it until the unit's seal to correlate its
                // replay spans with the primary's trace.
                if matches!(self.open_unit.as_ref(), Some((open, _)) if open == unit) {
                    self.unit_trace = Some((*trace_hi, *trace_lo));
                }
                Vec::new()
            }
            other => {
                if let Some(buf) = self.pending.get_mut(&other.txn()) {
                    buf.push(record);
                }
                Vec::new()
            }
        }
    }

    /// Unit id of a group still open mid-replay (the log ended inside it).
    pub fn open_unit_id(&self) -> Option<u64> {
        self.open_unit.as_ref().map(|(u, _)| *u)
    }

    /// `(unit, gid, coordinator)` when the open group has written its
    /// `UnitPrepared` frame — an in-doubt unit whose fate belongs to the
    /// coordinator shard's decision record.
    pub fn open_unit_prepared(&self) -> Option<(u64, u64, u32)> {
        match (self.open_unit.as_ref(), self.prepared) {
            (Some((unit, _)), Some((gid, coordinator))) => Some((*unit, gid, coordinator)),
            _ => None,
        }
    }

    /// The recorded 2PC decision for global unit `gid`, if any.
    pub fn decision(&self, gid: u64) -> Option<bool> {
        self.decisions.get(&gid).copied()
    }

    /// Consume the trace-id words of the most recent `UnitTrace` mark. Call
    /// immediately after an [`ReplayState::offer`] that settled a unit; the
    /// mark survives the seal precisely so this read can follow it.
    pub fn take_unit_trace(&mut self) -> Option<(u64, u64)> {
        self.unit_trace.take()
    }

    /// One past the highest transaction/unit id observed.
    pub fn next_txn(&self) -> u64 {
        self.next_txn
    }

    /// The OID high-water mark carried by observed `Commit` frames.
    pub fn next_oid(&self) -> u64 {
        self.next_oid
    }
}

/// A batch of committed log frames read for a replication follower, together
/// with the cursor and length needed to compute lag.
#[derive(Debug)]
pub struct FrameBatch {
    /// Log epoch the byte offsets belong to (see [`Store::log_epoch`]).
    pub epoch: u64,
    /// Frames starting at the requested offset, verbatim.
    pub frames: Vec<LogRecord>,
    /// Offset of the first frame *not* included — the follower's next cursor.
    pub next_offset: u64,
    /// Committed log length at read time; `log_len - next_offset` is the
    /// follower's byte lag after applying this batch.
    pub log_len: u64,
}

/// Summary of one replicated frame batch applied by a follower store.
#[derive(Debug, Default)]
pub struct ReplicaApply {
    /// Records of settled groups applied to the image.
    pub applied: u64,
    /// Local log length after the batch — the follower's replication cursor.
    pub log_len: u64,
}

/// A store's writer state: one commit, compaction or replicated batch holds
/// it at a time.
#[derive(Debug)]
pub(crate) struct Inner {
    logw: LogWriter,
    next_txn: u64,
    /// Replay state carried across [`Store::apply_replicated`] calls so a
    /// follower can receive a unit of work split over many poll batches.
    replay: ReplayState,
    /// A prepared-but-undecided unit found at the log tail by
    /// [`Store::open_shard_member`]; `(unit, gid, coordinator)`. The shard
    /// owner must call [`Store::resolve_in_doubt`] before accepting writes.
    in_doubt: Option<(u64, u64, u32)>,
    /// Images [`Store::publish`] has replaced that a reader may still pin.
    /// The writer keeps a handle to each so that the last handle dropped is
    /// its own: a reader that ran an image's destructor would free, from
    /// another thread, the nodes the writer allocated, and reader and writer
    /// would then queue on each other's allocator arena for every query and
    /// every commit.
    retired: Vec<Arc<Image>>,
}

impl Inner {
    /// Draw the next transaction or unit id.
    fn next_id(&mut self) -> u64 {
        self.next_txn += 1;
        self.next_txn - 1
    }
}

/// A durable, transactional record store.
#[derive(Debug)]
pub struct Store {
    inner: Mutex<Inner>,
    /// The store's one image. A store holds no uncommitted state: a commit
    /// folds its records into a copy of this image and publishes the copy,
    /// so every read of a store reads what it last published. Readers take
    /// this lock only long enough to clone the `Arc`.
    published: RwLock<Arc<Image>>,
    oids: OidAllocator,
    stats: Arc<Stats>,
    options: StoreOptions,
    path: PathBuf,
    /// Span recorder for commit/fsync/compact timing; disabled by default,
    /// installed by the embedding layer (see [`Store::set_recorder`]).
    recorder: RwLock<Recorder>,
    /// Epoch of the backing log file: bumped whenever compaction rewrites
    /// the log in place, which invalidates every byte offset a replication
    /// follower holds. Persisted in a sidecar file next to the log (written
    /// durably on every compaction), so a restarted primary keeps its epoch
    /// and followers mid-tail continue from their cursor instead of being
    /// forced into a blanket resync.
    log_epoch: AtomicU64,
    /// Length of the committed, flushed log prefix — the bytes a replication
    /// follower may safely read. Advanced only after the frames behind it
    /// have reached the file (flush or fsync), so a concurrent tail read
    /// never observes buffered or torn frames.
    committed_len: AtomicU64,
}

impl Store {
    /// Open (or create) the store whose log lives at `path`.
    ///
    /// Replays the log: transactions without a `Commit` frame are discarded,
    /// and the log file is truncated to its last valid frame.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        Store::open_with(path, StoreOptions::default())
    }

    /// [`Store::open`] with explicit [`StoreOptions`].
    pub fn open_with(path: impl AsRef<Path>, options: StoreOptions) -> StorageResult<Self> {
        Store::open_inner(path.as_ref(), options, false)
    }

    /// Open one member shard of a sharded store. Unlike [`Store::open`], a
    /// log tail inside a *prepared* (2PC phase-one) unit is not presumed
    /// aborted: the unit is left in doubt for the caller to settle against
    /// the coordinator shard's decision record via
    /// [`Store::resolve_in_doubt`]. Plain torn units (no prepare marker) are
    /// still sealed aborted, exactly as a single store would.
    pub fn open_shard_member(path: impl AsRef<Path>, options: StoreOptions) -> StorageResult<Self> {
        Store::open_inner(path.as_ref(), options, true)
    }

    fn open_inner(path: &Path, options: StoreOptions, defer_prepared: bool) -> StorageResult<Self> {
        let path = path.to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut image = Image::default();
        // Group frames by transaction; apply only committed groups, in commit
        // order (commit order equals log order for a single-writer log).
        // Groups inside a unit's brackets are buffered until the unit's
        // seal: applied on `UnitEnd { committed: true }`, discarded
        // otherwise — so a crash mid-unit loses the whole unit, never half
        // of it. The same state machine drives follower replay (see
        // [`ReplayState`]).
        let mut replay = ReplayState::default();
        // Replay applies owned records: the decoded payloads move straight
        // into the image as `Bytes` without a second copy.
        let mut replay_touch = Touch::default();
        let valid_len = log::scan_each(&path, |_, record| {
            for record in replay.offer(record) {
                image.apply_owned(record, &mut replay_touch);
            }
        })?;
        let mut logw = LogWriter::open(&path, valid_len)?;
        let mut in_doubt = None;
        if let Some(unit) = replay.open_unit_id() {
            match replay.open_unit_prepared() {
                Some(doubt) if defer_prepared => {
                    // The tail is a prepared 2PC participant: its fate is the
                    // coordinator's decision, not ours. Leave the group
                    // buffered; the sharded opener resolves it immediately.
                    in_doubt = Some(doubt);
                }
                _ => {
                    // The log ends inside an unsealed unit (crash mid-unit).
                    // Seal it as aborted so later replays — which will see
                    // frames appended after this point — don't buffer them
                    // into the dead unit.
                    let seal = LogRecord::UnitEnd {
                        unit,
                        committed: false,
                    };
                    logw.append(&seal)?;
                    logw.sync()?;
                    replay.offer(seal);
                }
            }
        }
        let next_txn = replay.next_txn().max(1);
        let next_oid = replay.next_oid().max(1);
        let committed_len = logw.len();
        let log_epoch = read_epoch_sidecar(&path);
        Ok(Store {
            inner: Mutex::new(Inner {
                logw,
                next_txn,
                replay,
                in_doubt,
                retired: Vec::new(),
            }),
            published: RwLock::new(Arc::new(image)),
            oids: OidAllocator::starting_at(next_oid),
            stats: Arc::new(Stats::default()),
            options,
            path,
            recorder: RwLock::new(Recorder::disabled()),
            log_epoch: AtomicU64::new(log_epoch),
            committed_len: AtomicU64::new(committed_len),
        })
    }

    /// Pin the latest published image. The returned [`Snapshot`] is immutable
    /// and lock-free: reads on it run concurrently with the writer and with
    /// each other, and never observe a commit made after this call — or any
    /// part of a unit of work that had not settled yet.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            image: Arc::clone(&self.published.read()),
        }
    }

    /// Publish `image` as the store's one image. The image it replaces is
    /// retired, and retired images no reader pins any longer are dropped
    /// here, on the writer's thread (see [`Inner::retired`]); nothing can pin
    /// one again, since snapshots are only taken of `published`.
    fn publish(&self, inner: &mut Inner, image: Image) {
        let replaced = std::mem::replace(&mut *self.published.write(), Arc::new(image));
        inner.retired.push(replaced);
        inner.retired.retain(|image| Arc::strong_count(image) > 1);
        Stats::bump(&self.stats.snapshot_swaps);
    }

    /// Fold settled records into a copy of the published image — only the
    /// root-to-leaf spines of touched keys are cloned — and publish it.
    /// Returns what the path-copy cost.
    fn settle(&self, inner: &mut Inner, records: impl IntoIterator<Item = LogRecord>) -> Touch {
        let mut image = Image::clone(&self.published.read());
        let mut touch = Touch::default();
        for record in records {
            image.apply_owned(record, &mut touch);
        }
        Stats::add(&self.stats.image_nodes_cloned, touch.nodes_cloned);
        Stats::add(&self.stats.image_bytes_copied, touch.bytes_copied);
        Stats::bump(&self.stats.commits);
        self.publish(inner, image);
        touch
    }

    fn append(&self, inner: &mut Inner, record: &LogRecord) -> StorageResult<()> {
        inner.logw.append(record)?;
        Stats::bump(&self.stats.log_appends);
        Ok(())
    }

    /// Make what was appended durable — an fsync under `sync_on_commit`, a
    /// flush otherwise — and move the replication horizon past it.
    fn sync(&self, inner: &mut Inner) -> StorageResult<()> {
        if self.options.sync_on_commit {
            inner.logw.sync()?;
            Stats::bump(&self.stats.syncs);
        } else {
            inner.logw.flush()?;
        }
        self.committed_len
            .store(inner.logw.len(), Ordering::Release);
        Ok(())
    }

    /// Two-phase commit, phase two trigger: durably record the decision for
    /// global unit `gid`. Written only on the coordinator shard; its fsync
    /// is the commit point of the cross-shard unit.
    fn append_decision(&self, inner: &mut Inner, gid: u64, committed: bool) -> StorageResult<()> {
        let record = LogRecord::UnitDecision { gid, committed };
        self.append(inner, &record)?;
        inner.replay.offer(record);
        self.sync(inner)
    }

    /// The recorded 2PC decision for `gid` on this (coordinator) shard's
    /// log, if any. Absence means the decision was never made durable —
    /// presumed abort.
    pub fn decision_for(&self, gid: u64) -> Option<bool> {
        self.inner.lock().replay.decision(gid)
    }

    /// The `(unit, gid, coordinator)` of a prepared-but-undecided unit left
    /// at the log tail by [`Store::open_shard_member`].
    pub fn in_doubt_unit(&self) -> Option<(u64, u64, u32)> {
        self.inner.lock().in_doubt
    }

    /// Settle an in-doubt unit according to the coordinator's decision:
    /// append the seal, and on commit apply + publish the buffered group.
    pub fn resolve_in_doubt(&self, committed: bool) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        let Some((unit, _gid, _coordinator)) = inner.in_doubt.take() else {
            return Ok(());
        };
        let seal = LogRecord::UnitEnd { unit, committed };
        self.append(&mut inner, &seal)?;
        // Resolution is rare and follows a crash: always make it durable.
        inner.logw.sync()?;
        Stats::bump(&self.stats.syncs);
        self.committed_len
            .store(inner.logw.len(), Ordering::Release);
        let ready = inner.replay.offer(seal);
        if !ready.is_empty() {
            self.settle(&mut inner, ready);
        }
        Ok(())
    }

    /// Raise the OID allocator's high-water mark so it never issues `oid`
    /// or anything below it. Used by the sharded allocator, which stripes
    /// identifiers across shards outside this store's `+1` sequence.
    pub fn observe_oid(&self, oid: Oid) {
        self.oids.observe(oid)
    }

    /// One past the highest OID this store has issued or observed.
    pub fn oid_high_water(&self) -> u64 {
        self.oids.high_water_mark()
    }

    /// The options this store was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// Install the span recorder used for commit/fsync/compact spans. The
    /// same recorder is normally shared with the executor and server so all
    /// layers append to one ring.
    pub fn set_recorder(&self, recorder: Recorder) {
        *self.recorder.write() = recorder;
    }

    /// The installed span recorder (disabled unless [`Store::set_recorder`]
    /// was called).
    pub fn recorder(&self) -> Recorder {
        self.recorder.read().clone()
    }

    /// Allocate a fresh, never-used OID.
    pub fn allocate_oid(&self) -> Oid {
        self.oids.allocate()
    }

    /// Operation counters for this store.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.stats
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read a record; the returned value is a shared handle, not a copy.
    pub fn get(&self, oid: Oid) -> Option<Bytes> {
        self.published.read().get(oid)
    }

    /// Whether a record exists.
    pub fn contains(&self, oid: Oid) -> bool {
        self.published.read().contains(oid)
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        self.published.read().record_count()
    }

    /// Read a key/value entry; the returned value is a shared handle, not a
    /// copy.
    pub fn kv_get(&self, keyspace: Keyspace, key: &[u8]) -> Option<Bytes> {
        self.published.read().kv_get(keyspace, key)
    }

    /// [`KvScan::kv_for_each_prefix`], inherent so embedders that only scan
    /// need not import the trait.
    pub fn kv_for_each_prefix(
        &self,
        keyspace: Keyspace,
        prefix: &[u8],
        f: impl FnMut(&[u8], &[u8]),
    ) {
        KvScan::kv_for_each_prefix(self, keyspace, prefix, f)
    }

    /// Begin a read-write transaction.
    pub fn begin(&self) -> Txn<'_> {
        Txn::new(Home::Member(self))
    }

    /// Convenience: run `f` inside a transaction, committing on `Ok` and
    /// aborting on `Err`.
    pub fn with_txn<T>(
        &self,
        f: impl FnOnce(&mut Txn<'_>) -> StorageResult<T>,
    ) -> StorageResult<T> {
        self.begin().run(f)
    }

    /// Rewrite the log so it contains exactly the live image, as a single
    /// committed transaction. Reclaims space occupied by overwritten records.
    pub fn compact(&self) -> StorageResult<()> {
        let span = self.recorder.read().span(Stage::Compact);
        // Only successful compactions belong in the ring: a refused or
        // failed attempt did no work, so its span is discarded rather than
        // recorded with zeroed counters on drop.
        match self.compact_inner() {
            Ok((live_records, log_len)) => {
                span.finish(live_records, log_len);
                Ok(())
            }
            Err(e) => {
                span.cancel();
                Err(e)
            }
        }
    }

    /// The fallible body of [`Store::compact`]; returns the live record
    /// count and compacted log length for the caller's span counters.
    fn compact_inner(&self) -> StorageResult<(u64, u64)> {
        let mut inner = self.inner.lock();
        let image = self.snapshot().image;
        let tmp_path = self.path.with_extension("compact");
        let _ = std::fs::remove_file(&tmp_path);
        let mut new_log = LogWriter::open(&tmp_path, 0)?;
        let txn = inner.next_id();
        new_log.append(&LogRecord::Begin { txn })?;
        for (key, bytes) in image.records.iter() {
            let oid = Oid::from_raw(u64::from_be_bytes(
                key.as_ref().try_into().expect("record keys are 8 bytes"),
            ));
            new_log.append(&LogRecord::Put {
                txn,
                oid,
                bytes: bytes.to_vec(),
            })?;
        }
        for (ks, map) in image.kv.iter().enumerate() {
            for (key, value) in map.iter() {
                new_log.append(&LogRecord::KvPut {
                    txn,
                    keyspace: ks as u8,
                    key: key.to_vec(),
                    value: value.to_vec(),
                })?;
            }
        }
        new_log.append(&LogRecord::Commit {
            txn,
            next_oid: self.oids.high_water_mark(),
        })?;
        new_log.sync()?;
        drop(new_log);
        std::fs::rename(&tmp_path, &self.path)?;
        // The rename only survives power loss once the directory entry is on
        // stable storage; syncing the file alone is not enough.
        log::fsync_parent_dir(&self.path)?;
        // Reopen the writer positioned at the end of the compacted log.
        let scan = log::scan(&self.path)?;
        inner.logw = LogWriter::open(&self.path, scan.valid_len)?;
        // Every byte offset into the old log is now meaningless: bump the
        // epoch so replication followers mid-tail are forced to re-handshake
        // instead of silently reading frames that no longer line up. The new
        // epoch is persisted durably *before* polls can observe it, so a
        // crash between rename and sidecar write can at worst leave the old
        // epoch on disk — which sends followers through the conservative
        // resync path, never through a silent misread of the new log.
        self.committed_len.store(scan.valid_len, Ordering::Release);
        let epoch = self.log_epoch.fetch_add(1, Ordering::Release) + 1;
        persist_epoch_sidecar(&self.path, epoch)?;
        Ok((image.record_count() as u64, scan.valid_len))
    }

    // -----------------------------------------------------------------
    // Replication: log tailing (primary side) and frame replay (follower)
    // -----------------------------------------------------------------

    /// Epoch of the backing log file. Byte offsets handed to
    /// [`Store::read_frames`] are only meaningful within one epoch;
    /// compaction rewrites the log and bumps it.
    pub fn log_epoch(&self) -> u64 {
        self.log_epoch.load(Ordering::Acquire)
    }

    /// Length of the committed, flushed log prefix — the replication horizon.
    pub fn committed_log_len(&self) -> u64 {
        self.committed_len.load(Ordering::Acquire)
    }

    /// Read committed frames for a replication follower whose cursor is
    /// `offset` within log `epoch`, batching roughly `max_bytes` of frames.
    ///
    /// Returns `Ok(None)` when the cursor is stale — wrong epoch, an offset
    /// beyond the committed horizon, or bytes that no longer decode as
    /// frames (compaction raced the read) — in which case the follower must
    /// discard its local state and re-handshake from offset zero. The read
    /// runs off the file without taking the writer lock, so tailing
    /// followers never stall the commit path.
    pub fn read_frames(
        &self,
        epoch: u64,
        offset: u64,
        max_bytes: u64,
    ) -> StorageResult<Option<FrameBatch>> {
        let current = self.log_epoch.load(Ordering::Acquire);
        if epoch != current {
            return Ok(None);
        }
        let end = self.committed_len.load(Ordering::Acquire);
        if offset > end {
            return Ok(None);
        }
        if offset == end {
            return Ok(Some(FrameBatch {
                epoch: current,
                frames: Vec::new(),
                next_offset: offset,
                log_len: end,
            }));
        }
        let read = log::tail(&self.path, offset, max_bytes, end)?;
        // Compaction may have renamed a new log into place mid-read; the
        // epoch check makes that window harmless.
        if self.log_epoch.load(Ordering::Acquire) != current {
            return Ok(None);
        }
        Ok(read.map(|(frames, next_offset)| FrameBatch {
            epoch: current,
            frames,
            next_offset,
            log_len: end,
        }))
    }

    /// Append replicated frames verbatim to the local log and apply every
    /// group that settles, exactly as crash recovery would. This is the
    /// follower's write path: the codec is deterministic, so the local log
    /// stays byte-identical to the primary's and the local length *is* the
    /// replication cursor.
    ///
    /// Groups still open at the end of the batch (a unit of work split over
    /// several polls) stay buffered in the store's [`ReplayState`] and are
    /// published — atomically — only when a later batch delivers the seal.
    pub fn apply_replicated(&self, records: &[LogRecord]) -> StorageResult<ReplicaApply> {
        let rec = self.recorder.read().clone();
        let span = rec.span(Stage::ReplicaApply);
        let mut inner = self.inner.lock();
        let mut summary = ReplicaApply::default();
        let mut appends = 0u64;
        let mut bytes_written = 0u64;
        let mut touch = Touch::default();
        // A copy of the published image, taken when the first group settles.
        let mut image: Option<Image> = None;
        for record in records {
            let at = inner.logw.append(record)?;
            bytes_written += inner.logw.len() - at;
            appends += 1;
            // A follower reopened with a prepared tail carries the unit as
            // in-doubt until the primary's seal arrives through the stream.
            if let LogRecord::UnitEnd { unit, .. } = record {
                if inner.in_doubt.map(|(u, _, _)| u) == Some(*unit) {
                    inner.in_doubt = None;
                }
            }
            let ready = inner.replay.offer(record.clone());
            if !ready.is_empty() {
                Stats::bump(&self.stats.commits);
            }
            // A settled unit carrying the primary's `UnitTrace` mark gets an
            // extra apply span recorded *under the primary's trace id*, so
            // `TraceGet` shows follower replay stitched into the same
            // distributed span tree as the originating request.
            let unit_span = if ready.is_empty() {
                None
            } else {
                inner.replay.take_unit_trace().map(|(hi, lo)| {
                    let trace = prometheus_trace::TraceId::from_words(hi, lo);
                    (rec.span_in(Stage::ReplicaApply, trace, 0), summary.applied)
                })
            };
            for r in ready {
                match &r {
                    LogRecord::Put { .. } => Stats::bump(&self.stats.puts),
                    LogRecord::Delete { .. } => Stats::bump(&self.stats.deletes),
                    _ => {}
                }
                image
                    .get_or_insert_with(|| Image::clone(&self.published.read()))
                    .apply_owned(r, &mut touch);
                summary.applied += 1;
            }
            if let Some((s, before)) = unit_span {
                s.finish(summary.applied - before, record.txn());
            }
        }
        Stats::add(&self.stats.image_nodes_cloned, touch.nodes_cloned);
        Stats::add(&self.stats.image_bytes_copied, touch.bytes_copied);
        self.sync(&mut inner)?;
        Stats::add(&self.stats.log_appends, appends);
        Stats::add(&self.stats.bytes_written, bytes_written);
        inner.next_txn = inner.next_txn.max(inner.replay.next_txn());
        // Keep the local allocator above every identifier the primary has
        // issued, so a promoted follower never re-issues an OID.
        let hwm = inner.replay.next_oid();
        if hwm > 0 {
            self.oids.observe(Oid::from_raw(hwm - 1));
        }
        summary.log_len = inner.logw.len();
        if let Some(image) = image {
            self.publish(&mut inner, image);
        }
        span.finish(appends, summary.applied);
        Ok(summary)
    }

    /// Discard the image, the local log and any buffered replay state,
    /// returning the store to the just-created state. A replication follower
    /// does this when the primary tells it its cursor is from a previous
    /// epoch (the primary compacted): offsets into the old log are
    /// meaningless, so the follower re-replays the compacted log — the
    /// checkpoint — from byte zero.
    pub fn reset_to_empty(&self) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        inner.replay = ReplayState::default();
        inner.logw = LogWriter::open(&self.path, 0)?;
        self.committed_len.store(0, Ordering::Release);
        // The local log restarts from byte zero as a fresh copy of whatever
        // stream is replayed into it; any previous epoch lineage is void.
        self.log_epoch.store(0, Ordering::Release);
        let _ = std::fs::remove_file(epoch_sidecar_path(&self.path));
        self.publish(&mut inner, Image::default());
        Ok(())
    }
}

/// A store's reads are reads of its published image.
impl KvScan for Store {
    fn kv_for_each(
        &self,
        keyspace: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    ) {
        self.snapshot().kv_for_each(keyspace, lo, hi, f)
    }
}

/// Staged record changes: `oid → put(bytes) | delete`.
pub(crate) type StagedRecords = HashMap<Oid, Option<Bytes>>;

/// Staged ordered-keyspace changes, per keyspace: `key → put(value) |
/// delete`. Keyed by keyspace first so a lookup borrows its key.
pub(crate) type StagedKv = BTreeMap<u8, BTreeMap<Vec<u8>, Option<Bytes>>>;

/// One shard's part of a [`Commit`]: its log lock and the group appended
/// under it.
struct Part<'a> {
    shard: usize,
    store: &'a Store,
    inner: MutexGuard<'a, Inner>,
    /// The unit whose `UnitBegin` opened the group, for a unit's group.
    unit: Option<u64>,
    /// The group's records, folded into the image when it settles committed.
    records: Vec<LogRecord>,
}

/// One commit in progress over the shards it writes, holding their log
/// locks from the first append to the last publication.
///
/// Each shard gets one group, `Begin · writes · Commit`; a unit's group is
/// bracketed `UnitBegin · … · [UnitTrace] · UnitEnd`. One shard seals its
/// group with a single sync and publishes. Two or more shards settle by
/// presumed-abort two-phase commit: [`Commit::prepare`] on every
/// participant, [`Commit::decide`] on the coordinator (the lowest), then
/// [`Commit::seal`] everywhere. Every step syncs what it appended, so a
/// commit dropped between two steps leaves the logs a crash there would.
pub(crate) struct Commit<'a> {
    parts: Vec<Part<'a>>,
    rec: Recorder,
    span: Span,
    appends: u64,
    bytes: u64,
}

impl<'a> Commit<'a> {
    /// Append one group per part, locking each part's log in the order
    /// given — ascending shard order, so two commits never wait on each
    /// other in a cycle. Two or more parts always make a unit.
    pub(crate) fn begin(
        unit: bool,
        parts: impl IntoIterator<Item = (usize, &'a Store, StagedRecords, StagedKv)>,
    ) -> StorageResult<Commit<'a>> {
        let parts: Vec<_> = parts.into_iter().collect();
        let unit = unit || parts.len() >= 2;
        let rec = parts
            .first()
            .map_or_else(Recorder::disabled, |(_, store, ..)| store.recorder());
        let mut commit = Commit {
            parts: Vec::with_capacity(parts.len()),
            span: rec.span(Stage::Commit),
            rec,
            appends: 0,
            bytes: 0,
        };
        for (shard, store, records, kv) in parts {
            if let Err(e) = commit.append(shard, store, unit, records, kv) {
                return Err(commit.abandon(e));
            }
        }
        Ok(commit)
    }

    fn append(
        &mut self,
        shard: usize,
        store: &'a Store,
        unit: bool,
        records: StagedRecords,
        kv: StagedKv,
    ) -> StorageResult<()> {
        let mut inner = store.inner.lock();
        let unit = unit.then(|| inner.next_id());
        let txn = inner.next_id();
        let mut group =
            Vec::with_capacity(records.len() + kv.values().map(BTreeMap::len).sum::<usize>() + 3);
        group.extend(unit.map(|unit| LogRecord::UnitBegin { unit }));
        group.push(LogRecord::Begin { txn });
        let mut bytes = 0;
        for (oid, change) in records {
            group.push(match change {
                Some(record) => {
                    bytes += record.len();
                    Stats::bump(&store.stats.puts);
                    LogRecord::Put {
                        txn,
                        oid,
                        bytes: record.to_vec(),
                    }
                }
                None => {
                    Stats::bump(&store.stats.deletes);
                    LogRecord::Delete { txn, oid }
                }
            });
        }
        for (keyspace, entries) in kv {
            for (key, change) in entries {
                group.push(match change {
                    Some(value) => {
                        bytes += key.len() + value.len();
                        LogRecord::KvPut {
                            txn,
                            keyspace,
                            key,
                            value: value.to_vec(),
                        }
                    }
                    None => LogRecord::KvDelete { txn, keyspace, key },
                });
            }
        }
        group.push(LogRecord::Commit {
            txn,
            next_oid: store.oids.high_water_mark(),
        });
        let appended = group
            .iter()
            .try_for_each(|record| inner.logw.append(record).map(drop));
        let appends = group.len() as u64;
        // Held even when an append failed, so `abandon` seals it too.
        self.parts.push(Part {
            shard,
            store,
            inner,
            unit,
            records: group,
        });
        appended?;
        Stats::add(&store.stats.log_appends, appends);
        Stats::add(&store.stats.bytes_written, bytes as u64);
        self.appends += appends;
        self.bytes += bytes as u64;
        Ok(())
    }

    /// The two-phase round's global id and coordinator: the lowest
    /// participant's unit id and shard.
    fn gid(&self) -> (u64, u32) {
        let coordinator = &self.parts[0];
        (
            coordinator.unit.unwrap_or_default(),
            coordinator.shard as u32,
        )
    }

    /// Phase one on part `k`: its durable `UnitPrepared`.
    pub(crate) fn prepare(&mut self, k: usize) -> StorageResult<()> {
        // One prepare span per participant under the unit's trace: c0 =
        // shard index, c1 = 1 on the coordinator shard.
        let span = self.rec.span(Stage::UnitPrepare);
        let (gid, coordinator) = self.gid();
        let part = &mut self.parts[k];
        if let Some(unit) = part.unit {
            let prepared = LogRecord::UnitPrepared {
                unit,
                gid,
                coordinator,
            };
            part.store.append(&mut part.inner, &prepared)?;
        }
        part.store.sync(&mut part.inner)?;
        span.finish(part.shard as u64, (k == 0) as u64);
        Ok(())
    }

    /// The commit point: the coordinator's durable `UnitDecision`.
    pub(crate) fn decide(&mut self, committed: bool) -> StorageResult<()> {
        // c0 = participant count, c1 = 1 committed / 0 aborted.
        let span = self.rec.span(Stage::UnitDecide);
        let (gid, _) = self.gid();
        let participants = self.parts.len() as u64;
        let coordinator = &mut self.parts[0];
        let store = coordinator.store;
        store.append_decision(&mut coordinator.inner, gid, committed)?;
        Stats::bump(&store.stats.units_2pc);
        span.finish(participants, committed as u64);
        Ok(())
    }

    /// Seal part `k` durably — a unit's group with `[UnitTrace] · UnitEnd`
    /// — and, `committed`, fold it into its shard's image and publish it.
    pub(crate) fn seal(&mut self, k: usize, committed: bool) -> StorageResult<()> {
        let (trace, parent) = (self.span.trace_id(), self.span.id());
        let part = &mut self.parts[k];
        let store = part.store;
        if let Some(unit) = part.unit {
            let (ran_under, _) = Recorder::current();
            if !ran_under.is_none() {
                // Stamp the unit with the distributed trace id it ran under,
                // just before the seal: follower replay reads the mark off
                // the replicated stream and records its apply spans under the
                // same id, stitching the cross-process span tree together.
                let mark = LogRecord::UnitTrace {
                    unit,
                    trace_hi: ran_under.hi,
                    trace_lo: ran_under.lo,
                };
                store.append(&mut part.inner, &mark)?;
            }
            store.append(&mut part.inner, &LogRecord::UnitEnd { unit, committed })?;
        }
        let fsync = store
            .options
            .sync_on_commit
            .then(|| self.rec.span_in(Stage::Fsync, trace, parent));
        store.sync(&mut part.inner)?;
        if let Some(fsync) = fsync {
            fsync.finish(part.unit.is_some() as u64, 0);
        }
        if committed {
            // The publish span records the path-copy cost, so EXPLAIN/PROFILE
            // and the exposition can show what a commit paid to become
            // visible.
            let publish = self.rec.span_in(Stage::Publish, trace, parent);
            let touch = store.settle(&mut part.inner, std::mem::take(&mut part.records));
            publish.finish(touch.nodes_cloned, touch.bytes_copied);
        }
        Ok(())
    }

    /// Finish the protocol from wherever [`Commit::begin`] left it.
    pub(crate) fn run(mut self) -> StorageResult<()> {
        let n = self.parts.len();
        if n >= 2 {
            for k in 0..n {
                if let Err(e) = self.prepare(k) {
                    return Err(self.abandon(e));
                }
            }
            if let Err(e) = self.decide(true) {
                return Err(self.abandon(e));
            }
        }
        for k in 0..n {
            self.seal(k, true)?;
        }
        self.span.finish(self.appends, self.bytes);
        Ok(())
    }

    /// Give up before a commit decision: seal every part aborted — the
    /// outcome presumed abort gives recovery anyway — so that groups
    /// appended to these logs later are not buffered into an open unit.
    fn abandon(mut self, e: StorageError) -> StorageError {
        for k in 0..self.parts.len() {
            let _ = self.seal(k, false);
        }
        e
    }
}

/// Where a transaction reads its base state from and sends its staged
/// writes: one store, or a sharded store that routes them.
#[derive(Debug)]
pub(crate) enum Home<'s> {
    Member(&'s Store),
    Sharded(&'s ShardedStore),
    /// A unit of work's transaction: it outlives any one call, so it holds
    /// its store; it stages only on the shards of its claim (a mask) and
    /// commits as one unit group per shard it wrote.
    Unit(Arc<ShardedStore>, u64),
}

/// Scans of the committed state a transaction reads through.
impl KvScan for Home<'_> {
    fn kv_for_each(
        &self,
        keyspace: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    ) {
        match self {
            Home::Member(store) => store.kv_for_each(keyspace, lo, hi, f),
            Home::Sharded(store) => store.kv_for_each(keyspace, lo, hi, f),
            Home::Unit(store, _) => store.kv_for_each(keyspace, lo, hi, f),
        }
    }
}

/// A read-write transaction, begun by [`Store::begin`],
/// [`ShardedStore::begin`] or, for a unit of work,
/// [`ShardedStore::begin_unit`].
///
/// Reads see the transaction's own staged writes first, then the committed
/// image. Nothing touches the log until [`Txn::commit`]; dropping or
/// [`Txn::abort`]ing discards all staged changes.
///
/// A rollback point ([`Txn::take_point`]) is a mark in an undo log: while
/// one is open, each write also logs its key and the staged change it
/// replaced. Keeping a point drops its mark, restoring it puts back the
/// logged changes since the mark, latest first; either costs the point's
/// own writes, not the transaction's.
#[derive(Debug)]
pub struct Txn<'s> {
    home: Home<'s>,
    records: StagedRecords,
    kv: StagedKv,
    /// Each write's key and the staged change it replaced (`None`: none
    /// was staged), logged only while a point is open.
    undo: Vec<Undo>,
    /// The length of `undo` when each open point was taken.
    points: Vec<usize>,
}

/// One undo log entry: a staged key and its change before a write.
#[derive(Debug)]
enum Undo {
    Record(Oid, Option<Option<Bytes>>),
    Kv(u8, Vec<u8>, Option<Option<Bytes>>),
}

impl<'s> Txn<'s> {
    pub(crate) fn new(home: Home<'s>) -> Self {
        Txn {
            home,
            records: HashMap::new(),
            kv: BTreeMap::new(),
            undo: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Run `f` inside this transaction, committing on `Ok` and aborting on
    /// `Err`.
    pub(crate) fn run<T>(
        mut self,
        f: impl FnOnce(&mut Txn<'s>) -> StorageResult<T>,
    ) -> StorageResult<T> {
        match f(&mut self) {
            Ok(value) => {
                self.commit()?;
                Ok(value)
            }
            Err(e) => {
                self.abort();
                Err(e)
            }
        }
    }

    /// Stage a record write.
    pub fn put(&mut self, oid: Oid, bytes: impl Into<Bytes>) {
        self.stage_record(oid, Some(bytes.into()));
    }

    /// Stage a record deletion.
    pub fn delete(&mut self, oid: Oid) {
        self.stage_record(oid, None);
    }

    /// Stage `change` on `oid`, logging the change it replaces while a
    /// point is open.
    fn stage_record(&mut self, oid: Oid, change: Option<Bytes>) {
        let before = self.records.insert(oid, change);
        if !self.points.is_empty() {
            self.undo.push(Undo::Record(oid, before));
        }
    }

    /// Read a record through this transaction.
    pub fn get(&self, oid: Oid) -> Option<Bytes> {
        match self.records.get(&oid) {
            Some(change) => change.clone(),
            None => match &self.home {
                Home::Member(store) => store.get(oid),
                Home::Sharded(store) => store.get(oid),
                Home::Unit(store, _) => store.get(oid),
            },
        }
    }

    /// Whether a record exists from this transaction's point of view.
    pub fn contains(&self, oid: Oid) -> bool {
        self.get(oid).is_some()
    }

    /// Stage a key/value write.
    pub fn kv_put(&mut self, keyspace: Keyspace, key: Vec<u8>, value: Vec<u8>) {
        self.stage_kv(keyspace.0, key, Some(Bytes::from(value)));
    }

    /// Stage a key/value deletion.
    pub fn kv_delete(&mut self, keyspace: Keyspace, key: Vec<u8>) {
        self.stage_kv(keyspace.0, key, None);
    }

    /// Stage `change` on `key`, logging the change it replaces while a
    /// point is open.
    fn stage_kv(&mut self, keyspace: u8, key: Vec<u8>, change: Option<Bytes>) {
        let entries = self.kv.entry(keyspace).or_default();
        if self.points.is_empty() {
            entries.insert(key, change);
        } else {
            let before = entries.insert(key.clone(), change);
            self.undo.push(Undo::Kv(keyspace, key, before));
        }
    }

    /// Read a key/value entry through this transaction. The lookup borrows
    /// `key`, and either answer is a shared handle, not a copy.
    pub fn kv_get(&self, keyspace: Keyspace, key: &[u8]) -> Option<Bytes> {
        match self.kv.get(&keyspace.0).and_then(|staged| staged.get(key)) {
            Some(change) => change.clone(),
            None => match &self.home {
                Home::Member(store) => store.kv_get(keyspace, key),
                Home::Sharded(store) => store.kv_get(keyspace, key),
                Home::Unit(store, _) => store.kv_get(keyspace, key),
            },
        }
    }

    /// Take a rollback point: mark the undo log, so the writes from here on
    /// can be undone until [`Txn::keep_point`] or [`Txn::restore_to`]
    /// settles it. Returns the point's depth: how many points are open with
    /// it.
    pub fn take_point(&mut self) -> usize {
        self.points.push(self.undo.len());
        self.points.len()
    }

    /// Keep the writes of the latest open point: drop its mark, so they
    /// belong to the point below, or once no point is left, for good.
    pub fn keep_point(&mut self) {
        self.points.pop();
        if self.points.is_empty() {
            self.undo.clear();
        }
    }

    /// Restore the point at `depth`: undo every write logged since its
    /// mark, the writes of points taken after it included, latest first.
    pub fn restore_to(&mut self, depth: usize) {
        let Some(&mark) = self.points.get(depth.saturating_sub(1)) else {
            return;
        };
        self.points.truncate(depth.saturating_sub(1));
        for undo in self.undo.drain(mark..).rev() {
            match undo {
                Undo::Record(oid, Some(change)) => _ = self.records.insert(oid, change),
                Undo::Record(oid, None) => _ = self.records.remove(&oid),
                Undo::Kv(ks, key, Some(change)) => {
                    _ = self.kv.entry(ks).or_default().insert(key, change)
                }
                Undo::Kv(ks, key, None) => _ = self.kv.entry(ks).or_default().remove(&key),
            }
        }
    }

    /// How many rollback points are open.
    pub fn points(&self) -> usize {
        self.points.len()
    }

    /// Stage one operation's writes, all or none. In a unit that claims
    /// only some shards, `f` stages behind a rollback point, which is kept
    /// unless one of its writes routes outside the claim: then it is
    /// restored and the error is [`StorageError::TxnState`]. Anywhere else
    /// no write can escape, and `f` stages directly.
    pub fn stage(&mut self, f: impl FnOnce(&mut Txn<'s>)) -> StorageResult<()> {
        let (store, claim) = match &self.home {
            Home::Unit(store, claim) if *claim != store.all_shards_mask() => {
                (Arc::clone(store), *claim)
            }
            _ => {
                f(self);
                return Ok(());
            }
        };
        let depth = self.take_point();
        f(self);
        let written = self.undo[self.points[depth - 1]..]
            .iter()
            .map(|undo| match undo {
                Undo::Record(oid, _) => store.shard_of_oid(*oid),
                Undo::Kv(keyspace, key, _) => store.shard_of_key(Keyspace(*keyspace), key),
            });
        let outside = store.shards_touched(written) & !claim;
        if outside != 0 {
            self.restore_to(depth);
            return Err(StorageError::TxnState(format!(
                "write routed to shard {} outside the unit's shard claim {claim:#x}",
                outside.trailing_zeros()
            )));
        }
        self.keep_point();
        Ok(())
    }

    /// Durably commit all staged changes, those of open points included.
    pub fn commit(self) -> StorageResult<()> {
        let (records, kv) = (self.records, self.kv);
        let commit = match &self.home {
            Home::Member(store) => Some(Commit::begin(false, [(0, *store, records, kv)])?),
            Home::Sharded(store) => store.begin_commit(records, kv, false)?,
            Home::Unit(store, _) => store.begin_commit(records, kv, true)?,
        };
        commit.map_or(Ok(()), Commit::run)
    }

    /// Discard all staged changes.
    pub fn abort(self) {
        let stats = match &self.home {
            Home::Member(store) => store.stats(),
            Home::Sharded(store) => store.stats(),
            Home::Unit(store, _) => store.stats(),
        };
        Stats::bump(&stats.aborts);
    }
}

/// Scans through a transaction overlay its staged changes on the base
/// state: a staged put replaces or adds an entry, a staged delete hides one.
impl KvScan for Txn<'_> {
    fn kv_for_each(
        &self,
        keyspace: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]),
    ) {
        let below_hi = |key: &[u8]| match hi {
            Bound::Unbounded => true,
            Bound::Excluded(hi) => key < hi,
            Bound::Included(hi) => key <= hi,
        };
        let mut staged = self
            .kv
            .get(&keyspace.0)
            .into_iter()
            .flat_map(|entries| entries.range::<[u8], _>((Bound::Included(lo), Bound::Unbounded)))
            .take_while(|(key, _)| below_hi(key))
            .map(|(key, change)| (key.as_slice(), change.as_deref()))
            .peekable();
        if staged.peek().is_none() {
            return self.home.kv_for_each(keyspace, lo, hi, f);
        }
        // Merge the two sorted streams; on equal keys the staged change wins.
        let mut visit = |key: &[u8], value: &[u8]| {
            while let Some((staged_key, change)) = staged.next_if(|(k, _)| *k <= key) {
                if let Some(staged_value) = change {
                    f(staged_key, staged_value);
                }
                if staged_key == key {
                    return;
                }
            }
            f(key, value);
        };
        self.home.kv_for_each(keyspace, lo, hi, &mut visit);
        for (key, change) in staged {
            if let Some(value) = change {
                f(key, value);
            }
        }
    }
}

/// Sidecar file carrying the persisted log epoch (see [`Store::log_epoch`]).
fn epoch_sidecar_path(log_path: &Path) -> PathBuf {
    log_path.with_extension("epoch")
}

/// Read the persisted epoch; a missing or unreadable sidecar is epoch zero
/// (a store that never compacted).
fn read_epoch_sidecar(log_path: &Path) -> u64 {
    std::fs::read_to_string(epoch_sidecar_path(log_path))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Durably persist the epoch: write a temp file, fsync it, rename it over
/// the sidecar, fsync the directory — the same rename discipline compaction
/// uses for the log itself.
fn persist_epoch_sidecar(log_path: &Path, epoch: u64) -> StorageResult<()> {
    use std::io::Write;
    let tmp = log_path.with_extension("epoch-tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(epoch.to_string().as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, epoch_sidecar_path(log_path))?;
    log::fsync_parent_dir(log_path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store() -> (Store, PathBuf) {
        let path = std::env::temp_dir().join(format!(
            "prometheus-store-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(epoch_sidecar_path(&path));
        (Store::open(&path).unwrap(), path)
    }

    #[test]
    fn log_epoch_survives_restart() {
        let (store, path) = temp_store();
        let oid = store.allocate_oid();
        for i in 0..10u8 {
            store
                .with_txn(|t| {
                    t.put(oid, vec![i; 16]);
                    Ok(())
                })
                .unwrap();
        }
        assert_eq!(store.log_epoch(), 0);
        store.compact().unwrap();
        store.compact().unwrap();
        assert_eq!(store.log_epoch(), 2);
        drop(store);
        // A restarted primary must keep its epoch: followers mid-tail hold
        // byte cursors qualified by it, and a reset-to-zero would force
        // every one of them through a blanket resync.
        let store = Store::open(&path).unwrap();
        assert_eq!(store.log_epoch(), 2);
        // A follower-style reset voids the lineage.
        store.reset_to_empty().unwrap();
        assert_eq!(store.log_epoch(), 0);
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.log_epoch(), 0);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(epoch_sidecar_path(&path));
    }

    #[test]
    fn put_get_delete_round_trip() {
        let (store, path) = temp_store();
        let oid = store.allocate_oid();
        let mut txn = store.begin();
        txn.put(oid, vec![1u8, 2, 3]);
        assert_eq!(txn.get(oid).as_deref(), Some(&[1u8, 2, 3][..]));
        txn.commit().unwrap();
        assert_eq!(store.get(oid).as_deref(), Some(&[1u8, 2, 3][..]));

        let mut txn = store.begin();
        txn.delete(oid);
        assert!(txn.get(oid).is_none());
        txn.commit().unwrap();
        assert!(store.get(oid).is_none());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn abort_discards_changes() {
        let (store, path) = temp_store();
        let oid = store.allocate_oid();
        let txn = {
            let mut t = store.begin();
            t.put(oid, vec![9u8]);
            t
        };
        txn.abort();
        assert!(store.get(oid).is_none());
        assert_eq!(store.stats().snapshot().aborts, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn dropping_txn_discards_changes() {
        let (store, path) = temp_store();
        let oid = store.allocate_oid();
        {
            let mut t = store.begin();
            t.put(oid, vec![9u8]);
        }
        assert!(store.get(oid).is_none());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn recovery_replays_committed_only() {
        let path = std::env::temp_dir().join(format!(
            "prometheus-recovery-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let a;
        let b;
        {
            let store = Store::open(&path).unwrap();
            a = store.allocate_oid();
            b = store.allocate_oid();
            let mut txn = store.begin();
            txn.put(a, b"committed".to_vec());
            txn.kv_put(Keyspace(1), b"key".to_vec(), b"val".to_vec());
            txn.commit().unwrap();
            // Simulate a crash mid-transaction: append Begin+Put but no Commit.
            let mut inner = store.inner.lock();
            inner.logw.append(&LogRecord::Begin { txn: 99 }).unwrap();
            inner
                .logw
                .append(&LogRecord::Put {
                    txn: 99,
                    oid: b,
                    bytes: b"lost".to_vec(),
                })
                .unwrap();
            inner.logw.sync().unwrap();
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.get(a).as_deref(), Some(&b"committed"[..]));
        assert!(
            store.get(b).is_none(),
            "uncommitted write must not survive recovery"
        );
        assert_eq!(
            store.kv_get(Keyspace(1), b"key").as_deref(),
            Some(&b"val"[..])
        );
        // OIDs must not be re-issued.
        let c = store.allocate_oid();
        assert!(c > b);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn kv_prefix_scan_merges_staged_overlay() {
        let (store, path) = temp_store();
        let ks = Keyspace(3);
        store
            .with_txn(|t| {
                t.kv_put(ks, b"x/1".to_vec(), b"a".to_vec());
                t.kv_put(ks, b"x/2".to_vec(), b"b".to_vec());
                t.kv_put(ks, b"y/1".to_vec(), b"c".to_vec());
                Ok(())
            })
            .unwrap();
        let mut txn = store.begin();
        txn.kv_delete(ks, b"x/1".to_vec());
        txn.kv_put(ks, b"x/3".to_vec(), b"d".to_vec());
        let scanned = txn.kv_scan_prefix(ks, b"x/");
        let keys: Vec<&[u8]> = scanned.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![&b"x/2"[..], &b"x/3"[..]]);
        txn.abort();
        // After abort the committed state is unchanged.
        assert_eq!(store.kv_scan_prefix(ks, b"x/").len(), 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn kv_range_scan_is_half_open() {
        let (store, path) = temp_store();
        let ks = Keyspace(7);
        store
            .with_txn(|t| {
                for i in 0u8..5 {
                    t.kv_put(ks, vec![i], vec![i]);
                }
                Ok(())
            })
            .unwrap();
        let r = store.kv_scan_range(ks, &[1], &[4]);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].0, vec![1]);
        assert_eq!(r[2].0, vec![3]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn keyspaces_are_isolated() {
        let (store, path) = temp_store();
        store
            .with_txn(|t| {
                t.kv_put(Keyspace(1), b"k".to_vec(), b"one".to_vec());
                t.kv_put(Keyspace(2), b"k".to_vec(), b"two".to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(
            store.kv_get(Keyspace(1), b"k").as_deref(),
            Some(&b"one"[..])
        );
        assert_eq!(
            store.kv_get(Keyspace(2), b"k").as_deref(),
            Some(&b"two"[..])
        );
        assert_eq!(store.kv_scan_prefix(Keyspace(1), b"").len(), 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compact_preserves_image_and_shrinks_log() {
        let (store, path) = temp_store();
        let oid = store.allocate_oid();
        // Write the same record many times so the log accumulates garbage.
        for i in 0..50u8 {
            store
                .with_txn(|t| {
                    t.put(oid, vec![i; 64]);
                    Ok(())
                })
                .unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        store.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(
            after < before,
            "compaction must shrink the log ({before} -> {after})"
        );
        assert_eq!(store.get(oid).as_deref(), Some(&[49u8; 64][..]));
        // The store must remain writable after compaction.
        store
            .with_txn(|t| {
                t.put(oid, vec![7u8]);
                Ok(())
            })
            .unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.get(oid).as_deref(), Some(&[7u8][..]));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compact_then_reopen_preserves_full_image() {
        // Regression test for the compaction durability fix: the renamed log
        // (and its fsynced directory entry) must be what a fresh open reads.
        let (store, path) = temp_store();
        let kept = store.allocate_oid();
        let churn = store.allocate_oid();
        for i in 0..20u8 {
            store
                .with_txn(|t| {
                    t.put(churn, vec![i; 32]);
                    Ok(())
                })
                .unwrap();
        }
        store
            .with_txn(|t| {
                t.put(kept, b"stable".to_vec());
                t.kv_put(Keyspace(4), b"idx".to_vec(), b"entry".to_vec());
                t.delete(churn);
                Ok(())
            })
            .unwrap();
        store.compact().unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.get(kept).as_deref(), Some(&b"stable"[..]));
        assert!(store.get(churn).is_none());
        assert_eq!(
            store.kv_get(Keyspace(4), b"idx").as_deref(),
            Some(&b"entry"[..])
        );
        assert_eq!(store.record_count(), 1);
        // OIDs still monotonic after the compact+reopen cycle.
        assert!(store.allocate_oid() > kept.max(churn));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn with_txn_aborts_on_error() {
        let (store, path) = temp_store();
        let oid = store.allocate_oid();
        let r: StorageResult<()> = store.with_txn(|t| {
            t.put(oid, vec![1u8]);
            Err(StorageError::Codec("forced".into()))
        });
        assert!(r.is_err());
        assert!(store.get(oid).is_none());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn snapshot_pins_published_state() {
        let (store, path) = temp_store();
        let a = store.allocate_oid();
        store
            .with_txn(|t| {
                t.put(a, b"one".to_vec());
                t.kv_put(Keyspace(2), b"k".to_vec(), b"v1".to_vec());
                Ok(())
            })
            .unwrap();
        let before = store.snapshot();
        let b = store.allocate_oid();
        store
            .with_txn(|t| {
                t.put(b, b"two".to_vec());
                t.kv_put(Keyspace(2), b"k".to_vec(), b"v2".to_vec());
                Ok(())
            })
            .unwrap();
        let after = store.snapshot();
        // The old snapshot is frozen; the new one sees the commit.
        assert_eq!(before.get(a).as_deref(), Some(&b"one"[..]));
        assert!(before.get(b).is_none());
        assert_eq!(
            before.kv_get(Keyspace(2), b"k").as_deref(),
            Some(&b"v1"[..])
        );
        assert_eq!(after.get(b).as_deref(), Some(&b"two"[..]));
        assert_eq!(after.kv_get(Keyspace(2), b"k").as_deref(), Some(&b"v2"[..]));
        assert!(!before.same_version(&after));
        assert_eq!(store.stats().snapshot().snapshot_swaps, 2);
        // A replaced image stays retired while a reader pins it, and goes at
        // the first publish after the reader lets go — in the writer's hands,
        // not the reader's.
        let retired = || store.inner.lock().retired.len();
        let republish = || {
            store
                .with_txn(|t| {
                    t.put(a, b"again".to_vec());
                    Ok(())
                })
                .unwrap()
        };
        assert_eq!(retired(), 1, "pinned by `before`");
        drop(before);
        assert_eq!(retired(), 1, "a reader letting go frees nothing");
        republish();
        assert_eq!(retired(), 1, "`before`'s image went; `after`'s came");
        drop(after);
        republish();
        assert_eq!(retired(), 0, "an image nobody pins is not kept");
        let _ = std::fs::remove_file(path);
    }

    /// A one-shard store that can run units, and its log path.
    fn temp_unit_store(tag: &str) -> (Arc<ShardedStore>, PathBuf) {
        let path = std::env::temp_dir().join(format!(
            "prometheus-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let routing = crate::ShardRouting::default();
        let store = ShardedStore::open_with(&path, StoreOptions::default(), 1, routing).unwrap();
        (Arc::new(store), path)
    }

    #[test]
    fn unit_scope_publishes_atomically() {
        let (store, path) = temp_unit_store("unit-publish");
        let a = store.allocate_oid();
        let b = store.allocate_oid();
        let mut unit = store.begin_unit(store.all_shards_mask());
        unit.put(a, b"a".to_vec());
        let mid = store.snapshot();
        assert!(!mid.contains(a), "snapshot must not see an unsettled unit");
        assert!(!store.contains(a), "nor a read of the store");
        // The unit reads its own writes through its overlay.
        assert!(unit.contains(a));
        unit.put(b, b"b".to_vec());
        unit.commit().unwrap();
        let done = store.snapshot();
        assert!(done.contains(a) && done.contains(b));
        // Exactly one commit and one publication for the whole unit.
        let stats = store.stats_aggregate();
        assert_eq!((stats.commits, stats.snapshot_swaps), (1, 1));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unsealed_unit_is_discarded_on_recovery() {
        let path = std::env::temp_dir().join(format!(
            "prometheus-torn-unit-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let before;
        let inside;
        {
            let store = Store::open(&path).unwrap();
            before = store.allocate_oid();
            store
                .with_txn(|t| {
                    t.put(before, b"kept".to_vec());
                    Ok(())
                })
                .unwrap();
            // Crash after a unit's group reached the log and before its seal.
            inside = store.allocate_oid();
            let mut inner = store.inner.lock();
            let (unit, txn) = (inner.next_id(), inner.next_id());
            for record in [
                LogRecord::UnitBegin { unit },
                LogRecord::Begin { txn },
                LogRecord::Put {
                    txn,
                    oid: inside,
                    bytes: b"torn".to_vec(),
                },
                LogRecord::KvPut {
                    txn,
                    keyspace: 1,
                    key: b"idx".to_vec(),
                    value: b"torn".to_vec(),
                },
                LogRecord::Commit {
                    txn,
                    next_oid: store.oid_high_water(),
                },
            ] {
                inner.logw.append(&record).unwrap();
            }
            inner.logw.sync().unwrap();
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.get(before).as_deref(), Some(&b"kept"[..]));
        assert!(store.get(inside).is_none(), "torn unit must be discarded");
        assert!(store.kv_get(Keyspace(1), b"idx").is_none());
        // The open sealed the torn unit; appending new commits and reopening
        // must not resurrect it or lose the new work.
        let later = store.allocate_oid();
        assert!(later > inside, "discarded units still advance the OID mark");
        store
            .with_txn(|t| {
                t.put(later, b"after".to_vec());
                Ok(())
            })
            .unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        assert!(store.get(inside).is_none());
        assert_eq!(store.get(later).as_deref(), Some(&b"after"[..]));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn aborted_unit_replays_to_pre_unit_state() {
        let (store, path) = temp_unit_store("aborted-unit");
        let oid = store.allocate_oid();
        let log_len = store.shard(0).committed_log_len();
        let before = store.stats_aggregate();
        let mut unit = store.begin_unit(store.all_shards_mask());
        unit.put(oid, b"forward".to_vec());
        unit.abort();
        // Aborting drops the staged maps: nothing is appended or published.
        assert!(store.get(oid).is_none());
        assert_eq!(store.shard(0).committed_log_len(), log_len);
        let after = store.stats_aggregate().since(&before);
        assert_eq!(
            (after.log_appends, after.snapshot_swaps, after.aborts),
            (0, 0, 1)
        );
        drop(store);
        let store = Store::open(&path).unwrap();
        assert!(store.get(oid).is_none(), "aborted unit must not replay");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compact_beside_an_open_unit_keeps_its_writes() {
        let (store, path) = temp_unit_store("compact-unit");
        let (kept, staged) = (store.allocate_oid(), store.allocate_oid());
        store
            .with_txn(|t| {
                t.put(kept, b"kept".to_vec());
                Ok(())
            })
            .unwrap();
        let mut unit = store.begin_unit(store.all_shards_mask());
        unit.put(staged, b"staged".to_vec());
        // The unit's writes are in its transaction, not the store: the
        // store compacts what it holds, and the unit seals onto the new log.
        store.compact().unwrap();
        unit.commit().unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.get(kept).as_deref(), Some(&b"kept"[..]));
        assert_eq!(store.get(staged).as_deref(), Some(&b"staged"[..]));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stats_count_operations() {
        let (store, path) = temp_store();
        let oid = store.allocate_oid();
        store
            .with_txn(|t| {
                t.put(oid, vec![1u8, 2, 3]);
                Ok(())
            })
            .unwrap();
        let snap = store.stats().snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.puts, 1);
        assert!(snap.log_appends >= 3); // Begin + Put + Commit
        assert!(snap.bytes_written >= 3);
        let _ = std::fs::remove_file(path);
    }
}
