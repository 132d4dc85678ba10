//! Sharded store: the OID space partitioned across N [`Store`] instances.
//!
//! Each shard is a complete [`Store`] — its own redo log, epoch sidecar and
//! published `Arc` image — so per-shard commits proceed in parallel with no
//! shared writer state. Placement is deterministic:
//!
//! * a record lives on shard `oid % n`;
//! * an ordered-keyspace entry lives on the shard of the OID embedded in its
//!   key ([`RouteRule`]), chosen per keyspace by the object layer so that an
//!   object's record and its index entries co-locate — creating an object is
//!   a single-shard transaction;
//! * keyspaces with no embedded OID (metadata) pin to shard 0.
//!
//! Reads compose: point reads route, ordered scans run the one streaming
//! k-way merge (`store::scan`) over an image per shard — per-shard maps are
//! disjoint and individually sorted, so the merged stream is in global key
//! order, byte-identical to a single store's. One shard is the plain case:
//! a one-way merge, a one-participant commit.
//!
//! A transaction's writes are routed at commit, one group per shard they
//! land on. Writes that land on two or more shards settle through two-phase
//! commit over the per-shard logs (see `store::Commit`): every participant
//! durably appends `UnitPrepared`, the coordinator (lowest participating
//! shard) durably appends `UnitDecision` — the commit point — and then every
//! participant seals with `UnitEnd`. A crash leaves at worst
//! prepared-but-unsealed tails, which [`ShardedStore::open_with`] resolves
//! against the coordinator's decision record (absence of a decision means
//! abort — *presumed abort*).

use crate::error::{StorageError, StorageResult};
use crate::oid::Oid;
use crate::stats::{Stats, StatsSnapshot};
use crate::store::{
    scan, Commit, Home, Keyspace, KvScan, Snapshot, StagedKv, StagedRecords, Store, StoreOptions,
    Txn,
};
use bytes::Bytes;
use prometheus_trace::Recorder;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Maximum shard count: unit shard-claims are a `u64` bitmask.
pub const MAX_SHARDS: usize = 64;

/// How entries of one keyspace map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteRule {
    /// Every key pins to shard 0 (fixed-key metadata keyspaces).
    ShardZero,
    /// The owning OID is the key's trailing 8 big-endian bytes
    /// (extent and attribute-index keys). Shorter keys pin to shard 0.
    TrailingOid,
    /// The owning OID is the key's leading 8 big-endian bytes
    /// (relationship-endpoint and classification-edge keys).
    LeadingOid,
}

/// Per-keyspace routing table. The object layer builds one that matches its
/// index key encodings; the default routes every keyspace by trailing OID.
#[derive(Clone)]
pub struct ShardRouting {
    rules: [RouteRule; 256],
}

impl std::fmt::Debug for ShardRouting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ShardRouting")
    }
}

impl Default for ShardRouting {
    fn default() -> Self {
        ShardRouting {
            rules: [RouteRule::TrailingOid; 256],
        }
    }
}

impl ShardRouting {
    /// The default table with specific keyspaces overridden.
    pub fn with_rules(overrides: &[(u8, RouteRule)]) -> Self {
        let mut routing = ShardRouting::default();
        for (ks, rule) in overrides {
            routing.rules[*ks as usize] = *rule;
        }
        routing
    }

    /// The rule for one keyspace.
    pub fn rule(&self, keyspace: Keyspace) -> RouteRule {
        self.rules[keyspace.0 as usize]
    }

    fn shard_of(&self, keyspace: Keyspace, key: &[u8], n: usize) -> usize {
        let oid = match self.rules[keyspace.0 as usize] {
            RouteRule::ShardZero => return 0,
            RouteRule::TrailingOid => {
                let Some(tail) = key.len().checked_sub(8) else {
                    return 0;
                };
                u64::from_be_bytes(key[tail..].try_into().unwrap())
            }
            RouteRule::LeadingOid => {
                if key.len() < 8 {
                    return 0;
                }
                u64::from_be_bytes(key[..8].try_into().unwrap())
            }
        };
        (oid % n as u64) as usize
    }
}

/// Path of shard `k`'s redo log: shard 0 keeps the store's own path (a
/// pre-sharding log *is* shard 0 of a 1-shard store), extra shards derive
/// sibling files.
fn shard_log_path(path: &Path, k: usize) -> PathBuf {
    if k == 0 {
        path.to_path_buf()
    } else {
        path.with_extension(format!("shard{k}.log"))
    }
}

fn shards_sidecar_path(path: &Path) -> PathBuf {
    path.with_extension("shards")
}

/// N stores behind one storage surface (see the module docs).
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Arc<Store>>,
    routing: ShardRouting,
    /// Per-shard stride OID allocators: shard `k` issues OIDs `≡ k (mod n)`,
    /// so placement is derivable from the identifier alone.
    alloc: Vec<AtomicU64>,
    /// Round-robin cursor for home-shard selection.
    next_home: AtomicUsize,
}

impl ShardedStore {
    /// Open (or create) a store of `shards` partitions rooted at `path`.
    ///
    /// The shard count is fixed at creation and recorded in a `.shards`
    /// sidecar; reopening with a different count is refused (resharding
    /// requires a dump/reload). Any cross-shard unit left in doubt by a
    /// crash between prepare and seal is resolved here, against the
    /// coordinator shard's decision record, before the store accepts writes.
    pub fn open_with(
        path: impl AsRef<Path>,
        options: StoreOptions,
        shards: usize,
        routing: ShardRouting,
    ) -> StorageResult<Self> {
        Self::open_inner(path.as_ref(), options, shards, routing, true)
    }

    /// Open as a replication follower: a prepared-but-undecided unit tail is
    /// left buffered instead of being settled locally. The follower's log
    /// must stay byte-identical to the primary's, and the primary's own
    /// resolution (a `UnitDecision`/`UnitEnd` it appends on recovery) will
    /// arrive through the replicated stream and seal the buffered group.
    pub fn open_follower(
        path: impl AsRef<Path>,
        options: StoreOptions,
        shards: usize,
        routing: ShardRouting,
    ) -> StorageResult<Self> {
        Self::open_inner(path.as_ref(), options, shards, routing, false)
    }

    fn open_inner(
        path: &Path,
        options: StoreOptions,
        shards: usize,
        routing: ShardRouting,
        resolve_in_doubt: bool,
    ) -> StorageResult<Self> {
        if shards == 0 || shards > MAX_SHARDS {
            return Err(StorageError::TxnState(format!(
                "shard count must be 1..={MAX_SHARDS}, got {shards}"
            )));
        }
        let sidecar = shards_sidecar_path(path);
        if let Ok(text) = std::fs::read_to_string(&sidecar) {
            if let Ok(existing) = text.trim().parse::<usize>() {
                if existing != shards {
                    return Err(StorageError::TxnState(format!(
                        "store at {} was created with {existing} shard(s), cannot open with {shards}",
                        path.display()
                    )));
                }
            }
        } else if shards > 1 {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(&sidecar, shards.to_string())?;
        }
        let members = (0..shards)
            .map(|k| {
                Store::open_shard_member(shard_log_path(path, k), options.clone()).map(Arc::new)
            })
            .collect::<StorageResult<Vec<_>>>()?;
        let sharded = ShardedStore {
            alloc: members
                .iter()
                .enumerate()
                .map(|(k, s)| AtomicU64::new(stride_start(s.oid_high_water(), k, shards)))
                .collect(),
            shards: members,
            routing,
            next_home: AtomicUsize::new(0),
        };
        if resolve_in_doubt {
            sharded.resolve_in_doubt_units()?;
        }
        Ok(sharded)
    }

    /// Settle any prepared-but-undecided unit tails left by a crash between
    /// 2PC phases: commit when the coordinator's durable decision says so,
    /// abort otherwise (the decision is written before any participant
    /// seals, so its absence proves nothing committed).
    fn resolve_in_doubt_units(&self) -> StorageResult<()> {
        for shard in &self.shards {
            if let Some((_unit, gid, coordinator)) = shard.in_doubt_unit() {
                let committed = self
                    .shards
                    .get(coordinator as usize)
                    .and_then(|c| c.decision_for(gid))
                    .unwrap_or(false);
                shard.resolve_in_doubt(committed)?;
            }
        }
        Ok(())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One member shard (replication and observability address shards
    /// directly).
    pub fn shard(&self, index: usize) -> &Arc<Store> {
        &self.shards[index]
    }

    /// All member shards, in shard order.
    pub fn shards(&self) -> &[Arc<Store>] {
        &self.shards
    }

    /// The shard a record with this OID lives on.
    pub fn shard_of_oid(&self, oid: Oid) -> usize {
        (oid.raw() % self.shards.len() as u64) as usize
    }

    /// The shard an ordered-keyspace entry with this key lives on.
    pub fn shard_of_key(&self, keyspace: Keyspace, key: &[u8]) -> usize {
        self.routing.shard_of(keyspace, key, self.shards.len())
    }

    /// The routing table in force.
    pub fn routing(&self) -> &ShardRouting {
        &self.routing
    }

    /// Allocate a fresh OID on a round-robin home shard.
    pub fn allocate_oid(&self) -> Oid {
        self.allocate_oid_on(self.next_home_hint())
    }

    /// A round-robin home-shard hint for callers that must choose a single
    /// shard *before* opening a masked unit (e.g. a batch of pure
    /// creations). Advances the same counter as [`ShardedStore::allocate_oid`]
    /// so batch homes spread across shards.
    pub fn next_home_hint(&self) -> usize {
        self.next_home.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Allocate a fresh OID that places its record (and co-routed index
    /// entries) on `shard`.
    pub fn allocate_oid_on(&self, shard: usize) -> Oid {
        let raw = self.alloc[shard].fetch_add(self.shards.len() as u64, Ordering::Relaxed);
        let oid = Oid::from_raw(raw);
        // Keep the member store's own high-water mark current so its commit
        // frames persist it and recovery never re-issues the identifier.
        self.shards[shard].observe_oid(oid);
        oid
    }

    /// A mask claiming every shard.
    pub fn all_shards_mask(&self) -> u64 {
        if self.shards.len() == MAX_SHARDS {
            u64::MAX
        } else {
            (1u64 << self.shards.len()) - 1
        }
    }

    // -----------------------------------------------------------------
    // Reads: each shard's published image. Nothing uncommitted is held
    // here — a unit's writes wait in its transaction until it commits.
    // -----------------------------------------------------------------

    /// Read a record (see [`Store::get`]).
    pub fn get(&self, oid: Oid) -> Option<Bytes> {
        self.shards[self.shard_of_oid(oid)].get(oid)
    }

    /// Whether a record exists (see [`Store::contains`]).
    pub fn contains(&self, oid: Oid) -> bool {
        self.shards[self.shard_of_oid(oid)].contains(oid)
    }

    /// Total records across shards.
    pub fn record_count(&self) -> usize {
        self.shards.iter().map(|s| s.record_count()).sum()
    }

    /// Read a key/value entry (see [`Store::kv_get`]).
    pub fn kv_get(&self, keyspace: Keyspace, key: &[u8]) -> Option<Bytes> {
        self.shards[self.shard_of_key(keyspace, key)].kv_get(keyspace, key)
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

    /// Pin a point-in-time view of every shard, in shard order.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
        }
    }

    // -----------------------------------------------------------------
    // Writes
    // -----------------------------------------------------------------

    /// Begin a transaction whose staged writes are routed to their shards at
    /// commit.
    pub fn begin(&self) -> Txn<'_> {
        Txn::new(Home::Sharded(self))
    }

    /// Begin a unit of work's transaction: it holds this store, stages
    /// writes only on the shards in `claim` (see [`Txn::stage`]) and commits
    /// as one unit group per shard it wrote. The caller owns exclusion: two
    /// live units must never claim overlapping shards (the object layer's
    /// unit table and the server's per-shard lanes both enforce this).
    pub fn begin_unit(self: &Arc<Self>, claim: u64) -> Txn<'static> {
        Txn::new(Home::Unit(Arc::clone(self), claim))
    }

    /// Run `f` inside a routed transaction, committing on `Ok`.
    pub fn with_txn<T>(
        &self,
        f: impl FnOnce(&mut Txn<'_>) -> StorageResult<T>,
    ) -> StorageResult<T> {
        self.begin().run(f)
    }

    /// The shards of `writes` (each write's shard index), as a mask; routing
    /// stops once it is all of them (with one shard, at the first write).
    pub(crate) fn shards_touched(&self, writes: impl IntoIterator<Item = usize>) -> u64 {
        let all = self.all_shards_mask();
        let mut touched = 0u64;
        for shard in writes {
            touched |= 1 << shard;
            if touched == all {
                break;
            }
        }
        touched
    }

    /// Route a transaction's staged writes and append their groups, one per
    /// shard they land on, bracketed as a unit's when `unit` (see
    /// [`Commit::begin`]); the rest of the protocol is the caller's. A
    /// transaction that stages nothing keeps a plain store's behaviour (a
    /// `Begin`/`Commit` pair and a publication on shard 0); a unit that
    /// stages nothing writes nothing (`None`).
    pub(crate) fn begin_commit(
        &self,
        records: StagedRecords,
        kv: StagedKv,
        unit: bool,
    ) -> StorageResult<Option<Commit<'_>>> {
        let records_at = records.keys().map(|oid| self.shard_of_oid(*oid));
        let kv_at = kv.iter().flat_map(|(ks, entries)| {
            entries
                .keys()
                .map(move |key| self.shard_of_key(Keyspace(*ks), key))
        });
        let touched = match self.shards_touched(records_at.chain(kv_at)) {
            0 if unit => return Ok(None),
            0 => 1,
            touched => touched,
        };
        if touched.count_ones() == 1 {
            let shard = touched.trailing_zeros() as usize;
            let part = (shard, &*self.shards[shard], records, kv);
            return Commit::begin(unit, [part]).map(Some);
        }
        // Partition the staged writes by placement.
        let n = self.shards.len();
        let mut parts: Vec<(StagedRecords, StagedKv)> = vec![Default::default(); n];
        for (oid, change) in records {
            parts[self.shard_of_oid(oid)].0.insert(oid, change);
        }
        for (ks, entries) in kv {
            for (key, change) in entries {
                let shard = self.shard_of_key(Keyspace(ks), &key);
                parts[shard].1.entry(ks).or_default().insert(key, change);
            }
        }
        let parts = parts
            .into_iter()
            .enumerate()
            .filter(|(i, _)| touched & (1 << i) != 0)
            .map(|(i, (records, kv))| (i, &*self.shards[i], records, kv));
        Commit::begin(unit, parts).map(Some)
    }

    /// Compact every shard's log.
    pub fn compact(&self) -> StorageResult<()> {
        for shard in &self.shards {
            shard.compact()?;
        }
        Ok(())
    }

    /// Install the span recorder on every shard.
    pub fn set_recorder(&self, recorder: Recorder) {
        for shard in &self.shards {
            shard.set_recorder(recorder.clone());
        }
    }

    /// The span recorder (shard 0's — they are installed identically).
    pub fn recorder(&self) -> Recorder {
        self.shards[0].recorder()
    }

    /// Shard 0's live counters. Layers that bump shared counters (the object
    /// layer's entity decodes) bump here so aggregate totals stay right.
    pub fn stats(&self) -> &Arc<Stats> {
        self.shards[0].stats()
    }

    /// Counter totals summed across shards.
    pub fn stats_aggregate(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for shard in &self.shards {
            total.accumulate(&shard.stats().snapshot());
        }
        total
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn per_shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(|s| s.stats().snapshot()).collect()
    }

    /// Path of shard 0's log (the store's root path).
    pub fn path(&self) -> &Path {
        self.shards[0].path()
    }
}

/// Smallest OID raw value `>= max(1, hwm)` congruent to `k` modulo `n` — the
/// stride allocator's starting point after recovery.
fn stride_start(hwm: u64, k: usize, n: usize) -> u64 {
    let n = n as u64;
    let k = k as u64;
    let floor = hwm.max(1);
    let rem = floor % n;
    if rem == k {
        floor
    } else {
        floor + (k + n - rem) % n
    }
}

/// An immutable, point-in-time view across every shard.
///
/// Pinned by [`ShardedStore::snapshot`]; one [`Snapshot`] per shard, all
/// lock-free. Scans k-way-merge the per-shard cursors in streaming fashion,
/// preserving global key order — query output over a sharded snapshot is
/// byte-identical to a single-store snapshot of the same data.
///
/// The per-shard snapshots are pinned in shard order without a global
/// barrier: two shards' images may be from either side of a cross-shard
/// unit's settle instant. Crash atomicity is absolute (a unit replays all
/// or nothing); point-in-time atomicity is per shard.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    shards: Vec<Snapshot>,
}

impl ShardSnapshot {
    /// Number of shards in this view.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's pinned snapshot.
    pub fn shard(&self, index: usize) -> &Snapshot {
        &self.shards[index]
    }

    fn shard_of_oid(&self, oid: Oid) -> usize {
        (oid.raw() % self.shards.len() as u64) as usize
    }

    /// Read a record as of this view.
    pub fn get(&self, oid: Oid) -> Option<Bytes> {
        self.shards[self.shard_of_oid(oid)].get(oid)
    }

    /// Whether a record exists as of this view.
    pub fn contains(&self, oid: Oid) -> bool {
        self.shards[self.shard_of_oid(oid)].contains(oid)
    }

    /// Total records as of this view.
    pub fn record_count(&self) -> usize {
        self.shards.iter().map(|s| s.record_count()).sum()
    }

    /// Read a key/value entry as of this view. Every shard is probed (the
    /// view carries no routing table); shard maps are key-disjoint so at
    /// most one answers.
    pub fn kv_get(&self, keyspace: Keyspace, key: &[u8]) -> Option<Bytes> {
        self.shards.iter().find_map(|s| s.kv_get(keyspace, key))
    }

    /// Whether two views pin the same published images on every shard.
    pub fn same_version(&self, other: &ShardSnapshot) -> bool {
        self.shards.len() == other.shards.len()
            && self
                .shards
                .iter()
                .zip(&other.shards)
                .all(|(a, b)| a.same_version(b))
    }
}

/// A sharded store's scans are scans of its shards' published images; one
/// shard's needs no merge, and so no vector of pinned images.
impl KvScan for ShardedStore {
    fn kv_for_each(
        &self,
        keyspace: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    ) {
        match self.shards.as_slice() {
            [shard] => shard.kv_for_each(keyspace, lo, hi, f),
            _ => self.snapshot().kv_for_each(keyspace, lo, hi, f),
        }
    }
}

impl KvScan for ShardSnapshot {
    fn kv_for_each(
        &self,
        keyspace: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]),
    ) {
        let images = self.shards.iter().map(|snapshot| &*snapshot.image);
        scan(images, keyspace, lo, hi, |k, v| f(k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "prometheus-shard-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn cleanup(path: &Path, n: usize) {
        for k in 0..n.max(1) {
            let p = shard_log_path(path, k);
            let _ = std::fs::remove_file(&p);
            let _ = std::fs::remove_file(p.with_extension("epoch"));
        }
        let _ = std::fs::remove_file(shards_sidecar_path(path));
    }

    #[test]
    fn stride_start_is_congruent_and_minimal() {
        assert_eq!(stride_start(1, 0, 4), 4);
        assert_eq!(stride_start(1, 1, 4), 1);
        assert_eq!(stride_start(1, 3, 4), 3);
        assert_eq!(stride_start(9, 1, 4), 9);
        assert_eq!(stride_start(10, 1, 4), 13);
        assert_eq!(stride_start(0, 0, 1), 1);
        assert_eq!(stride_start(7, 0, 1), 7);
    }

    #[test]
    fn oids_stripe_and_route_back() {
        let path = temp_path("stripe");
        cleanup(&path, 4);
        let store =
            ShardedStore::open_with(&path, StoreOptions::default(), 4, ShardRouting::default())
                .unwrap();
        for k in 0..4 {
            for _ in 0..3 {
                let oid = store.allocate_oid_on(k);
                assert_eq!(store.shard_of_oid(oid), k);
            }
        }
        cleanup(&path, 4);
    }

    #[test]
    fn routed_writes_read_back_and_merge_in_order(// scans must interleave shards in key order
    ) {
        let path = temp_path("merge");
        cleanup(&path, 3);
        let store =
            ShardedStore::open_with(&path, StoreOptions::default(), 3, ShardRouting::default())
                .unwrap();
        let ks = Keyspace(9);
        store
            .with_txn(|t| {
                for raw in 1..=9u64 {
                    let mut key = b"k/".to_vec();
                    key.extend_from_slice(&raw.to_be_bytes());
                    t.kv_put(ks, key, vec![raw as u8]);
                }
                Ok(())
            })
            .unwrap();
        let scanned = store.kv_scan_prefix(ks, b"k/");
        assert_eq!(scanned.len(), 9);
        let keys: Vec<_> = scanned.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merged scan must be in global key order");
        // Snapshot scan agrees byte for byte.
        let snap = store.snapshot();
        assert_eq!(snap.kv_scan_prefix(ks, b"k/"), scanned);
        cleanup(&path, 3);
    }

    #[test]
    fn shard_count_mismatch_is_refused() {
        let path = temp_path("mismatch");
        cleanup(&path, 4);
        drop(
            ShardedStore::open_with(&path, StoreOptions::default(), 4, ShardRouting::default())
                .unwrap(),
        );
        let err =
            ShardedStore::open_with(&path, StoreOptions::default(), 2, ShardRouting::default());
        assert!(err.is_err(), "reopening with a different shard count");
        cleanup(&path, 4);
    }

    /// A unit claiming one shard of two stages each operation behind a
    /// rollback point over its own writes: the operation reads what the
    /// unit staged before it, and one that routes a write outside the claim
    /// stages none of its writes.
    #[test]
    fn a_partial_claim_stage_reads_the_units_earlier_writes() {
        let path = temp_path("stage-reads");
        cleanup(&path, 2);
        let store = Arc::new(open_two(&path));
        let (a, b) = (store.allocate_oid_on(0), store.allocate_oid_on(1));
        let mut unit = store.begin_unit(1);
        unit.stage(|t| t.put(a, b"first".to_vec())).unwrap();
        let mut seen = None;
        unit.stage(|t| seen = t.get(a)).unwrap();
        assert_eq!(seen.as_deref(), Some(&b"first"[..]));
        let escaped = unit.stage(|t| {
            t.put(a, b"second".to_vec());
            t.put(b, b"outside".to_vec());
        });
        assert!(escaped.is_err());
        assert_eq!(unit.get(a).as_deref(), Some(&b"first"[..]));
        assert!(unit.get(b).is_none());
        assert_eq!(unit.points(), 0);
        unit.abort();
        drop(store);
        cleanup(&path, 2);
    }

    /// Where the "power cut" lands inside a cross-shard commit's protocol
    /// (coordinator = shard 0, the lowest participant).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum CrashPoint {
        /// The unit's groups reached both logs, nothing prepared.
        BeforePrepare,
        /// Coordinator prepared, the other participant was not reached.
        AfterFirstPrepare,
        /// Both participants prepared, no decision recorded.
        AfterAllPrepares,
        /// Prepared everywhere and the coordinator decided *commit*.
        AfterCommitDecision,
        /// Prepared everywhere and the coordinator decided *abort*.
        AfterAbortDecision,
        /// Decided commit and sealed the coordinator; the other shard's seal
        /// never made it out.
        AfterPartialSeal,
    }

    fn open_two(path: &Path) -> ShardedStore {
        let options = StoreOptions {
            sync_on_commit: false,
        };
        ShardedStore::open_with(path, options, 2, ShardRouting::default()).unwrap()
    }

    /// Run a unit writing both shards of a 2-shard store up to `crash`, one
    /// protocol step at a time, and drop the store there — every step syncs
    /// what it appended, so the drop leaves exactly the bytes a power cut at
    /// that boundary would. Returns the two OIDs the unit wrote.
    fn crash_mid_unit(path: &Path, crash: CrashPoint) -> (Oid, Oid) {
        let store = open_two(path);
        let a = store.allocate_oid_on(0);
        let b = store.allocate_oid_on(1);
        let records = HashMap::from([
            (a, Some(Bytes::from("alpha"))),
            (b, Some(Bytes::from("beta"))),
        ]);
        let mut commit = store
            .begin_commit(records, StagedKv::new(), true)
            .unwrap()
            .expect("the unit wrote both shards");
        let prepare_both = |commit: &mut Commit<'_>| {
            commit.prepare(0).unwrap();
            commit.prepare(1).unwrap();
        };
        match crash {
            CrashPoint::BeforePrepare => {}
            CrashPoint::AfterFirstPrepare => commit.prepare(0).unwrap(),
            CrashPoint::AfterAllPrepares => prepare_both(&mut commit),
            CrashPoint::AfterCommitDecision => {
                prepare_both(&mut commit);
                commit.decide(true).unwrap();
            }
            CrashPoint::AfterAbortDecision => {
                prepare_both(&mut commit);
                commit.decide(false).unwrap();
            }
            CrashPoint::AfterPartialSeal => {
                prepare_both(&mut commit);
                commit.decide(true).unwrap();
                commit.seal(0, true).unwrap();
            }
        }
        drop(commit);
        drop(store); // crash: at least one shard's group is never sealed
        (a, b)
    }

    #[test]
    fn cross_shard_unit_converges_after_crash_at_every_2pc_boundary() {
        for crash in [
            CrashPoint::BeforePrepare,
            CrashPoint::AfterFirstPrepare,
            CrashPoint::AfterAllPrepares,
            CrashPoint::AfterCommitDecision,
            CrashPoint::AfterAbortDecision,
            CrashPoint::AfterPartialSeal,
        ] {
            let path = temp_path("crash");
            cleanup(&path, 2);
            let (a, b) = crash_mid_unit(&path, crash);

            // Recovery must settle the in-doubt unit from the coordinator's
            // decision record: presumed abort unless a commit decision is on
            // disk. Either way, never half of the unit.
            let store = open_two(&path);
            let committed = matches!(
                crash,
                CrashPoint::AfterCommitDecision | CrashPoint::AfterPartialSeal
            );
            let expect = |value: &'static [u8]| committed.then_some(value);
            assert_eq!(
                store.get(a).as_deref(),
                expect(b"alpha"),
                "{crash:?}: shard 0"
            );
            assert_eq!(
                store.get(b).as_deref(),
                expect(b"beta"),
                "{crash:?}: shard 1"
            );

            // The recovered store accepts new cross-shard work.
            let c = store.allocate_oid_on(0);
            let d = store.allocate_oid_on(1);
            store
                .with_txn(|t| {
                    t.put(c, b"gamma".to_vec());
                    t.put(d, b"delta".to_vec());
                    Ok(())
                })
                .unwrap();
            drop(store);

            // And the resolution is durable: a second recovery sees the same
            // answer (the first reopen sealed the unit, so nothing is in doubt).
            let store = open_two(&path);
            assert_eq!(
                store.get(a).as_deref(),
                expect(b"alpha"),
                "{crash:?}: again"
            );
            assert_eq!(store.get(c).as_deref(), Some(&b"gamma"[..]));
            assert_eq!(store.get(d).as_deref(), Some(&b"delta"[..]));
            drop(store);
            cleanup(&path, 2);
        }
    }

    #[test]
    fn cross_shard_txn_is_atomic_across_reopen() {
        let path = temp_path("xatomic");
        cleanup(&path, 2);
        let a;
        let b;
        {
            let store =
                ShardedStore::open_with(&path, StoreOptions::default(), 2, ShardRouting::default())
                    .unwrap();
            a = store.allocate_oid_on(0);
            b = store.allocate_oid_on(1);
            store
                .with_txn(|t| {
                    t.put(a, b"alpha".to_vec());
                    t.put(b, b"beta".to_vec());
                    Ok(())
                })
                .unwrap();
            assert_eq!(store.stats_aggregate().units_2pc, 1);
        }
        let store =
            ShardedStore::open_with(&path, StoreOptions::default(), 2, ShardRouting::default())
                .unwrap();
        assert_eq!(store.get(a).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.get(b).as_deref(), Some(&b"beta"[..]));
        cleanup(&path, 2);
    }
}
