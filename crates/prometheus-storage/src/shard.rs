//! Sharded store: the OID space partitioned across N [`Store`] instances.
//!
//! Each shard is a complete [`Store`] — its own redo log, epoch sidecar,
//! working image and published `Arc` snapshot — so per-shard commits proceed
//! in parallel with no shared writer state. Placement is deterministic:
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
//! Cross-shard units of work settle through two-phase commit over the
//! per-shard logs: every participant durably appends `UnitPrepared`, the
//! coordinator (lowest participating shard) durably appends `UnitDecision` —
//! the commit point — and then every participant seals with `UnitEnd`. A
//! crash leaves at worst prepared-but-unsealed tails, which
//! [`ShardedStore::open_with`] resolves against the coordinator's decision
//! record (absence of a decision means abort — *presumed abort*).

use crate::error::{StorageError, StorageResult};
use crate::oid::Oid;
use crate::stats::{Stats, StatsSnapshot};
use crate::store::{
    scan, Home, ImageRef, Keyspace, KvScan, Snapshot, StagedKv, Store, StoreOptions, Txn,
};
use bytes::Bytes;
use prometheus_trace::{Recorder, Stage};
use std::cell::Cell;
use std::collections::HashMap;
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

thread_local! {
    /// The shard-claim of the unit of work bound to this thread, as a
    /// bitmask. Zero = no unit bound: reads use working images everywhere
    /// (single-writer semantics, as before sharding). Non-zero: reads on
    /// claimed shards see the unit's own writes (working image); reads on
    /// foreign shards use the published snapshot, so a parallel unit's
    /// unsettled writes are never observed.
    static CLAIM: Cell<u64> = const { Cell::new(0) };
}

/// RAII restore for a thread's bound shard-claim (see [`ShardedStore::bind_claim`]).
#[derive(Debug)]
pub struct ClaimGuard {
    prev: u64,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        CLAIM.with(|c| c.set(self.prev));
    }
}

fn claimed(mask: u64, shard: usize) -> bool {
    mask == 0 || mask & (1u64 << shard) != 0
}

/// Set this thread's shard-claim mask directly, returning the previous
/// value. Unlike [`ShardedStore::bind_claim`] there is no RAII guard: the
/// object layer's unit-of-work table uses this to bind a claim for the
/// lifetime of a token (which outlives any one stack frame) and restores it
/// on commit/abort.
pub fn set_thread_claim(mask: u64) -> u64 {
    CLAIM.with(|c| {
        let prev = c.get();
        c.set(mask);
        prev
    })
}

/// This thread's currently bound shard-claim mask (0 = unbound).
pub fn thread_claim() -> u64 {
    CLAIM.with(|c| c.get())
}

/// Whether `shard` is readable through this thread's claim with working
/// (unit-local) state: true when unbound (legacy single-writer semantics)
/// or when the claim covers the shard.
pub fn claim_covers(mask: u64, shard: usize) -> bool {
    claimed(mask, shard)
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

    /// Allocate a fresh OID on a home shard: the lowest shard of this
    /// thread's bound claim when the claim is a proper subset (so a masked
    /// unit's creations land inside its claim instead of escaping to a
    /// foreign shard and failing the commit), round-robin otherwise.
    pub fn allocate_oid(&self) -> Oid {
        let claim = Self::current_claim();
        if claim != 0 && claim != self.all_shards_mask() {
            let home = (claim.trailing_zeros() as usize).min(self.shards.len() - 1);
            return self.allocate_oid_on(home);
        }
        let home = self.next_home.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.allocate_oid_on(home)
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

    /// Bind this thread's unit shard-claim (see [`CLAIM`]); restored when
    /// the guard drops. Mask semantics: bit `k` set = shard `k` belongs to
    /// the unit bound to this thread.
    pub fn bind_claim(&self, mask: u64) -> ClaimGuard {
        ClaimGuard {
            prev: CLAIM.with(|c| c.replace(mask)),
        }
    }

    /// The claim mask bound to this thread (0 = none).
    pub fn current_claim() -> u64 {
        CLAIM.with(|c| c.get())
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
    // Reads. On a thread with a bound claim, foreign shards are read from
    // their published snapshots so a parallel unit's unsettled writes are
    // never observed; claimed shards read the working image (the unit sees
    // its own writes).
    // -----------------------------------------------------------------

    /// Shard `shard`'s image as this thread reads it.
    fn image(&self, shard: usize) -> ImageRef<'_> {
        self.shards[shard].image(claimed(Self::current_claim(), shard))
    }

    /// Read a record (see [`Store::get`]).
    pub fn get(&self, oid: Oid) -> Option<Bytes> {
        self.image(self.shard_of_oid(oid)).get(oid)
    }

    /// Whether a record exists (see [`Store::contains`]).
    pub fn contains(&self, oid: Oid) -> bool {
        self.image(self.shard_of_oid(oid)).contains(oid)
    }

    /// Total records across shards.
    pub fn record_count(&self) -> usize {
        self.shards.iter().map(|s| s.record_count()).sum()
    }

    /// Read a key/value entry (see [`Store::kv_get`]).
    pub fn kv_get(&self, keyspace: Keyspace, key: &[u8]) -> Option<Bytes> {
        self.image(self.shard_of_key(keyspace, key))
            .kv_get(keyspace, key)
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

    /// Run `f` inside a routed transaction, committing on `Ok`.
    pub fn with_txn<T>(
        &self,
        f: impl FnOnce(&mut Txn<'_>) -> StorageResult<T>,
    ) -> StorageResult<T> {
        self.begin().run(f)
    }

    /// Commit a transaction's staged writes, routed by placement. Writes
    /// that all land on one shard are exactly a [`Store`] commit on that
    /// member. A cross-shard commit outside a unit scope wraps itself in an
    /// implicit cross-shard unit so the parts settle atomically (2PC);
    /// inside a unit scope the parts join their shards' open groups and the
    /// enclosing unit's seal provides atomicity.
    pub(crate) fn commit_routed(
        &self,
        staged_records: HashMap<Oid, Option<Bytes>>,
        staged_kv: StagedKv,
    ) -> StorageResult<()> {
        // Which shards the writes land on; routing stops once it is all of
        // them (with one shard, at the first write).
        let records = staged_records.keys().map(|oid| self.shard_of_oid(*oid));
        let kvs = staged_kv
            .keys()
            .map(|(ks, key)| self.shard_of_key(Keyspace(*ks), key));
        let all = self.all_shards_mask();
        let mut touched = 0u64;
        for shard in records.chain(kvs) {
            touched |= 1 << shard;
            if touched == all {
                break;
            }
        }
        let claim = Self::current_claim();
        if claim != 0 && touched & !claim != 0 {
            // Inside a unit of work every touched shard must be claimed —
            // the unit's scopes are open there and its seal is the atomic
            // boundary. A write routed outside the claim would silently
            // escape the unit, so fail loudly instead.
            let outside = (touched & !claim).trailing_zeros();
            return Err(StorageError::TxnState(format!(
                "write routed to shard {outside} outside the unit's shard claim {claim:#x}"
            )));
        }
        if touched == 0 {
            // An empty commit keeps a plain store's behaviour (a Begin /
            // Commit pair and a publication) on shard 0 — unless this
            // thread's unit does not own that shard, where it writes nothing.
            if !claimed(claim, 0) {
                return Ok(());
            }
            touched = 1;
        }
        if touched.count_ones() == 1 {
            let shard = &self.shards[touched.trailing_zeros() as usize];
            return shard.commit_txn(&staged_records, &staged_kv);
        }
        // Partition the staged writes by placement.
        let n = self.shards.len();
        let mut records: Vec<HashMap<Oid, Option<Bytes>>> = vec![HashMap::new(); n];
        let mut kvs: Vec<StagedKv> = vec![StagedKv::new(); n];
        for (oid, change) in staged_records {
            records[self.shard_of_oid(oid)].insert(oid, change);
        }
        for ((ks, key), change) in staged_kv {
            let shard = self.shard_of_key(Keyspace(ks), &key);
            kvs[shard].insert((ks, key), change);
        }
        let parts = (0..n).filter(|i| touched & (1 << i) != 0);
        if claim != 0 {
            for i in parts {
                self.shards[i].commit_txn(&records[i], &kvs[i])?;
            }
            return Ok(());
        }
        // Cross-shard auto-commit: an implicit 2PC unit makes the parts one
        // atomic group across logs.
        self.begin_unit_scope_on(touched);
        let mut result: StorageResult<()> = Ok(());
        for i in parts {
            result = self.shards[i].commit_txn(&records[i], &kvs[i]);
            if result.is_err() {
                break;
            }
        }
        // A failed sub-commit aborts the group: the parts that did commit are
        // retracted from their working images and nothing replays.
        let sealed = self.end_unit_scope_on(touched, result.is_ok());
        result.and(sealed)
    }

    /// Open a unit-of-work scope on every shard (the compatibility path:
    /// fully serialized, exactly the pre-sharding semantics).
    pub fn begin_unit_scope(&self) {
        self.begin_unit_scope_on(self.all_shards_mask());
    }

    /// Settle the all-shard unit scope.
    pub fn end_unit_scope(&self, committed: bool) -> StorageResult<()> {
        self.end_unit_scope_on(self.all_shards_mask(), committed)
    }

    /// Open a unit-of-work scope on the shards in `mask`. The caller owns
    /// exclusion: two live units must never claim overlapping shards (the
    /// object layer's unit table and the server's per-shard lanes both
    /// enforce this).
    pub fn begin_unit_scope_on(&self, mask: u64) {
        for (i, shard) in self.shards.iter().enumerate() {
            if mask & (1u64 << i) != 0 {
                shard.begin_unit_scope();
            }
        }
    }

    /// Settle the unit scope over the shards in `mask`. Participants (shards
    /// whose scope wrote frames) number two or more → two-phase commit:
    /// prepare everywhere, decide durably on the coordinator (the lowest
    /// participating shard), then seal everywhere. One participant → the
    /// plain single-log seal, no extra frames. With `committed` false each
    /// claimed member retracts its working image (see
    /// [`Store::end_unit_scope`]). Every scope in `mask` is closed even when
    /// a seal fails; the first failure is returned.
    pub fn end_unit_scope_on(&self, mask: u64, committed: bool) -> StorageResult<()> {
        let participants: Vec<(usize, u64)> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1u64 << i) != 0)
            .filter_map(|(i, s)| s.active_unit_id().map(|u| (i, u)))
            .collect();
        if participants.len() >= 2 {
            let rec = self.shards[0].recorder();
            let (coordinator, gid) = participants[0];
            for (i, _) in &participants {
                // One prepare span per participant under the unit's trace:
                // c0 = shard index, c1 = 1 on the coordinator shard.
                let span = rec.span(Stage::UnitPrepare);
                self.shards[*i].prepare_active_unit(gid, coordinator as u32)?;
                span.finish(*i as u64, (*i == coordinator) as u64);
            }
            // The decision span brackets the commit point: c0 = participant
            // count, c1 = 1 committed / 0 aborted.
            let span = rec.span(Stage::UnitDecide);
            self.shards[coordinator].append_decision(gid, committed)?;
            span.finish(participants.len() as u64, committed as u64);
            Stats::bump(&self.shards[coordinator].stats().units_2pc);
        }
        let mut sealed = Ok(());
        for (i, shard) in self.shards.iter().enumerate() {
            if mask & (1u64 << i) != 0 {
                sealed = sealed.and(shard.end_unit_scope(committed));
            }
        }
        sealed
    }

    /// Compact every shard's log (refused while any unit scope is open).
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
    /// layer's entity cache) bump here so aggregate totals stay right.
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

/// Scans read, per shard, the image this thread's claim selects — the
/// working image under that member's lock (locks taken in ascending shard
/// order) or the published one — and merge them as they stream.
impl KvScan for ShardedStore {
    fn kv_for_each(
        &self,
        keyspace: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]),
    ) {
        let images: Vec<ImageRef<'_>> = (0..self.shards.len()).map(|i| self.image(i)).collect();
        scan(
            images.iter().map(|image| &**image),
            keyspace,
            lo,
            hi,
            |k, v| f(k, v),
        )
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
