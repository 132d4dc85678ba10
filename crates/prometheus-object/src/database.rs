//! The Prometheus object layer: the [`Database`] facade.
//!
//! Wires the storage substrate, schema registry, index layer, event layer,
//! synonym table and units of work into the API the query language, rule
//! engine and applications use.
//!
//! ## Units of work and what-if scenarios
//!
//! Every mutation runs inside a *unit of work*, and a unit is one storage
//! transaction. Explicit units are opened with [`Database::begin_unit`]; a
//! mutation outside any unit gets an implicit single-operation unit. Every
//! write stages into the unit's transaction through one entry,
//! `Database::stage`, and the unit's own reads go through that overlay;
//! nothing reaches the log or the published image until the unit commits,
//! as one group per shard it wrote. Aborting (or a failed deferred
//! constraint at commit) drops the staged writes, so everything written
//! inside the unit — by operations, schema definitions or listeners — is
//! gone at once. A read outside the unit sees committed state and nothing
//! else. This is the mechanism behind the thesis' what-if scenarios
//! (§7.1.4): a taxonomist opens a unit, reorganises a classification
//! speculatively, inspects the result, then commits or abandons it.
//!
//! Every operation is all or none inside a unit too. It runs through one
//! skeleton, [`Database::in_unit_scope`]: inside a unit, behind a rollback
//! point that restores the unit's staged writes, its event list and its
//! meta. A vetoed or failing operation, a compound one included, undoes
//! exactly itself and leaves the unit open with everything else it did. A
//! nested [`Database::begin_unit`] takes the same point, so aborting it
//! undoes only its own work.
//!
//! ## The writer queue
//!
//! A unit claims a mask of shards, and its claim waits in one FIFO queue
//! until it is disjoint from every claim ahead of it, held or waiting; then
//! it is granted whole. Several taxonomists' units therefore never
//! interleave on a shard, none can barge past a queued one, and units on
//! disjoint shards run side by side. This is the only queue a writer waits
//! in: [`Database::begin_unit_on`] blocks in it, and the wire server, which
//! must not block, draws a [`UnitClaim`] with a wake callback, parks the
//! request and takes the unit once the claim is granted.
//!
//! ## Relationship semantics
//!
//! [`Database::create_relationship`] enforces every built-in behaviour of
//! §4.4.3 at creation time: endpoint class conformance, exclusivity,
//! sharability, cardinality on both sides and acyclicity. Lifetime
//! dependency and constancy are enforced on deletion. Violations surface as
//! typed [`DbError`] variants.

use crate::classification::SoundClassifications;
use crate::error::{DbError, DbResult};
use crate::events::{Event, EventListener};
use crate::index::{
    self, KS_ATTR, KS_CLS_EDGES, KS_EDGE_CLS, KS_EXTENT, KS_META, KS_REL_FROM, KS_REL_TO,
};
use crate::instance::{ClassificationMeta, ObjectInstance, RelInstance, StoredEntity};
use crate::read::{Meta, MetaMemo, ReadView, Reader};
use crate::schema::{RelKind, SchemaRegistry, OBJECT_CLASS};
use crate::synonym::SynonymTable;
use crate::traversal;
use crate::value::Value;
use parking_lot::{Mutex, RwLock};
use prometheus_storage::{codec, Oid, ShardedStore, Txn};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Reserved extent name under which classification metadata is indexed.
pub const CLASSIFICATION_EXTENT: &str = "__classification";

/// A meta record a definition stages: its `KS_META` key and encoding.
type MetaRecord = (&'static [u8], Vec<u8>);

/// Token returned by [`Database::begin_unit`]; must be passed back to
/// [`Database::commit_unit`] or [`Database::abort_unit`].
#[derive(Debug)]
#[must_use = "a unit of work must be committed or aborted"]
pub struct UnitToken {
    unit: u64,
    /// A nested unit's rollback point in the unit it shares; `None` for the
    /// outermost unit.
    point: Option<Point>,
}

/// What a unit's writes were when a rollback point was taken: the point's
/// place in the transaction's stack of points, the length of the event
/// list and the meta.
#[derive(Debug)]
struct Point {
    depth: usize,
    events: usize,
    meta: Option<Arc<Meta>>,
}

/// One open unit of work, shared by the unit table and every thread bound
/// to it.
struct Unit {
    id: u64,
    /// Bitmask of the shards this unit claimed at open.
    claim: u64,
    /// Address of the store this unit writes: a thread bound to it reads
    /// any other database unbound.
    store: usize,
    writes: RwLock<Writes>,
}

impl Unit {
    /// Take the unit's writes as it settles, leaving nothing staged.
    fn settle(&self, store: &Arc<ShardedStore>) -> Writes {
        let empty = Writes {
            txn: store.begin_unit(self.claim),
            meta: None,
            events: Vec::new(),
        };
        std::mem::replace(&mut *self.writes.write(), empty)
    }
}

/// A unit's writes: staged in its one transaction, never in the store.
struct Writes {
    txn: Txn<'static>,
    /// The meta the unit's staged definitions make, once it has staged one.
    /// It stays valid for the unit's life: staging a meta record needs a
    /// claim on the meta keyspace's shard, so no other unit can commit a
    /// definition while this one is open. Dropped with the overlay when the
    /// unit settles.
    meta: Option<Arc<Meta>>,
    /// Events so far, handed to the deferred listeners at commit.
    events: Vec<Event>,
}

/// All live units of work plus the writer queue: every claim on a shard
/// mask, held or waiting, in arrival order. A claim is granted whole once
/// its mask is disjoint from every claim ahead of it, held or waiting, so
/// there is no partial hold, no barging and no lock order to keep; units
/// with disjoint claims run (and seal) concurrently.
#[derive(Default)]
struct UnitTable {
    states: HashMap<u64, Arc<Unit>>,
    queue: VecDeque<Queued>,
    next_id: u64,
}

/// What a waiting claim runs once it is granted.
type Wake = Box<dyn FnOnce() + Send>;

/// One claim in the writer queue; its id becomes its unit's.
struct Queued {
    id: u64,
    mask: u64,
    granted: bool,
    /// `None` once run, or for a claim granted at draw.
    wake: Option<Wake>,
}

impl UnitTable {
    /// Queue a claim on `mask`: its id and the claims ahead of it whose
    /// masks overlap it — 0 exactly when it is granted at once.
    fn draw(&mut self, mask: u64, wake: Wake) -> (u64, u64) {
        self.next_id += 1;
        let id = self.next_id;
        let ahead = self.queue.iter().filter(|q| q.mask & mask != 0).count() as u64;
        self.queue.push_back(Queued {
            id,
            mask,
            granted: ahead == 0,
            wake: (ahead != 0).then_some(wake),
        });
        (id, ahead)
    }

    /// The mask of claim `id` once it is granted.
    fn granted(&self, id: u64) -> Option<u64> {
        let claim = self.queue.iter().find(|q| q.id == id)?;
        claim.granted.then_some(claim.mask)
    }

    /// Drop claim `id` from the queue and grant every waiting claim that is
    /// now clear of all ahead of it. Returns their wakes, to run once the
    /// table is unlocked.
    fn release(&mut self, id: u64) -> Vec<Wake> {
        self.queue.retain(|q| q.id != id);
        let mut ahead = 0u64;
        let mut woken = Vec::new();
        for claim in &mut self.queue {
            if !claim.granted && claim.mask & ahead == 0 {
                claim.granted = true;
                woken.extend(claim.wake.take());
            }
            ahead |= claim.mask;
        }
        woken
    }
}

/// Release claim `id` and wake the claims that frees, outside the lock.
fn release_claim(units: &Mutex<UnitTable>, id: u64) {
    let woken = units.lock().release(id);
    for wake in woken {
        wake();
    }
}

/// A place in the writer queue, drawn by [`Database::claim_unit_on`] for a
/// caller that must not block. Once granted, [`Database::take_unit`] opens
/// its unit; dropping it before that cancels it if it still waits, or frees
/// its shards if it was granted, waking the next claim either way.
#[must_use = "a claim holds its place in the writer queue until dropped"]
pub struct UnitClaim {
    units: Arc<Mutex<UnitTable>>,
    /// 0 once its unit is taken: the unit owns the place from then on.
    id: u64,
    ahead: u64,
}

impl UnitClaim {
    /// The claims ahead of this one at draw whose masks overlap it.
    pub fn ahead(&self) -> u64 {
        self.ahead
    }

    /// Whether the claim is granted: its unit can be taken.
    pub fn is_granted(&self) -> bool {
        self.units.lock().granted(self.id).is_some()
    }
}

impl Drop for UnitClaim {
    fn drop(&mut self) {
        if self.id != 0 {
            release_claim(&self.units, self.id);
        }
    }
}

/// Rolls unit `id` back if dropped: it is forgotten once the holder's code
/// returns, so only a holder that panics inside its unit drops it, freeing
/// the unit's shards on the way out.
struct RollbackOnUnwind<'a>(&'a Database, u64);

impl Drop for RollbackOnUnwind<'_> {
    fn drop(&mut self) {
        self.0.rollback_unit(self.1);
    }
}

thread_local! {
    /// The unit of work bound to this thread, if any. Operations stage into,
    /// read through and record their events in the bound unit, so
    /// independent units on different threads stay apart.
    /// [`Database::with_unit_bound`] carries a binding across threads for
    /// the server's event transport, and [`binding`] into the morsel
    /// workers a query starts.
    static BOUND: RefCell<Option<Arc<Unit>>> = const { RefCell::new(None) };
}

/// Bind this thread to `unit` (or unbind it), returning the binding it had.
fn bind_thread(unit: Option<Arc<Unit>>) -> Option<Arc<Unit>> {
    BOUND.with(|bound| bound.replace(unit))
}

/// What binds a worker the calling thread starts — one that ends with its
/// task — to the calling thread's unit, so an in-unit query's morsels read
/// the unit's writes like the query does.
pub(crate) fn binding() -> impl Fn() + Sync {
    let unit = BOUND.with(|bound| bound.borrow().clone());
    move || drop(bind_thread(unit.clone()))
}

/// The Prometheus database.
///
/// Schema and synonyms are not state of their own: they are the two
/// `KS_META` records of whatever a read reads — the published image, a
/// [`ReadView`]'s snapshot or a unit's overlay — decoded through one memo.
/// A definition stages its record in its unit like any write, so it reaches
/// other readers only with the unit's commit, and an abort drops it with
/// the overlay.
pub struct Database {
    store: Arc<ShardedStore>,
    meta: MetaMemo,
    /// Replaced copy-on-write by `add_listener`, so a dispatch takes one
    /// `Arc` bump instead of copying the list.
    listeners: RwLock<Arc<Vec<Arc<dyn EventListener>>>>,
    /// Shared with the [`UnitClaim`]s drawn on it, which release themselves.
    units: Arc<Mutex<UnitTable>>,
    /// The classifications a full check found sound in committed state,
    /// which `check_integrity` answers from.
    pub(crate) sound: SoundClassifications,
}

impl Database {
    /// Open a database over `store` (of one shard or many), failing if its
    /// persisted schema or synonym state does not decode. Use
    /// [`crate::index::shard_routing`] when opening the store so index
    /// entries land on the shard their trailing/leading OID maps to.
    pub fn open_sharded(store: Arc<ShardedStore>) -> DbResult<Self> {
        let db = Database {
            store,
            meta: MetaMemo::default(),
            listeners: RwLock::new(Arc::new(Vec::new())),
            units: Arc::default(),
            sound: SoundClassifications::default(),
        };
        db.published_meta()?;
        Ok(db)
    }

    /// The underlying store (exposed for the benchmark harness).
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// Run `f` with read access to the schema registry this thread reads:
    /// its unit's, or unbound, the committed one.
    pub fn with_schema<T>(&self, f: impl FnOnce(&SchemaRegistry) -> T) -> T {
        f(&self.meta().schema)
    }

    /// Run `f` with read access to the synonym table this thread reads.
    pub fn with_synonyms<T>(&self, f: impl FnOnce(&SynonymTable) -> T) -> T {
        f(&self.meta().synonyms)
    }

    /// Pin an immutable view of the latest settled committed state.
    ///
    /// The view holds the published storage snapshot plus the schema and
    /// synonyms decoded from that snapshot's own meta records; its reads
    /// never take the store mutex. Mutations committed after the pin (and
    /// operations of any unit still streaming) are invisible — pin a fresh
    /// view for fresh state.
    pub fn read_view(&self) -> ReadView {
        ReadView::pin(self.store.snapshot(), &self.meta)
    }

    /// The meta of the published image.
    fn published_meta(&self) -> DbResult<Arc<Meta>> {
        self.meta.read_from(|key| self.store.kv_get(KS_META, key))
    }

    /// The meta this thread reads: its unit's — the one its definitions
    /// made, else that of the records its overlay reads — or unbound, the
    /// published one. A record that does not decode reads as empty; opening
    /// the database reports it.
    fn meta(&self) -> Arc<Meta> {
        let meta = self.bound(|unit| match unit {
            None => self.published_meta(),
            Some(unit) => {
                let writes = unit.writes.read();
                match &writes.meta {
                    Some(meta) => Ok(Arc::clone(meta)),
                    None => self.meta.read_from(|key| writes.txn.kv_get(KS_META, key)),
                }
            }
        });
        meta.unwrap_or_default()
    }

    /// Register an event listener (the rule engine).
    pub fn add_listener(&self, listener: Arc<dyn EventListener>) {
        Arc::make_mut(&mut *self.listeners.write()).push(listener);
    }

    // -----------------------------------------------------------------
    // Schema
    // -----------------------------------------------------------------

    /// Define an ordinary class.
    pub fn define_class(&self, def: crate::schema::ClassDef) -> DbResult<()> {
        self.revise_schema(|schema| schema.define_class(def))
    }

    /// Define a relationship class.
    pub fn define_relationship(&self, def: crate::schema::RelClassDef) -> DbResult<()> {
        self.revise_schema(|schema| schema.define_relationship(def))
    }

    /// Build the next registry from the one this unit reads and stage its
    /// record. The unit keeps the registry decoded from that record, so it
    /// reads exactly what a reader of the record will.
    fn revise_schema(&self, f: impl FnOnce(&mut SchemaRegistry) -> DbResult<()>) -> DbResult<()> {
        self.revise(|meta| {
            let mut schema = SchemaRegistry::clone(&meta.schema);
            f(&mut schema)?;
            let bytes = codec::to_bytes(&schema)?;
            meta.schema = Arc::new(SchemaRegistry::decode(&bytes)?);
            Ok(Some((index::META_SCHEMA, bytes)))
        })
    }

    /// Build the next synonym table from the one this unit reads and, if
    /// `f` says it changed, stage its record.
    fn revise_synonyms(&self, f: impl FnOnce(&mut SynonymTable) -> bool) -> DbResult<()> {
        self.revise(|meta| {
            let synonyms = Arc::make_mut(&mut meta.synonyms);
            if !f(synonyms) {
                return Ok(None);
            }
            Ok(Some((index::META_SYNONYMS, codec::to_bytes(synonyms)?)))
        })
    }

    /// Revise the meta this unit reads with `f`, which returns the meta
    /// record it changed, if any: stage that record and keep the revised
    /// meta with the unit.
    fn revise(&self, f: impl FnOnce(&mut Meta) -> DbResult<Option<MetaRecord>>) -> DbResult<()> {
        self.in_unit_scope(|_| {
            let mut next = Meta::clone(&self.meta());
            let Some((key, bytes)) = f(&mut next)? else {
                return Ok(());
            };
            self.stage_with(
                |t| t.kv_put(KS_META, key.to_vec(), bytes),
                |writes| writes.meta = Some(Arc::new(next)),
            )
        })
    }

    /// Read, revise and stage the `KS_META` record `key` in one unit, so no
    /// other writer of the record commits between the read and the write. `f`
    /// revises the value the unit reads (the default when there is no
    /// record) and says whether it changed; only then is the record staged.
    /// Returns what `f` said. The definitions that are not schema or
    /// synonyms — views, rules — are written this way.
    pub fn revise_record<T: Default + serde::Serialize + serde::de::DeserializeOwned>(
        &self,
        key: &[u8],
        f: impl FnOnce(&mut T) -> DbResult<bool>,
    ) -> DbResult<bool> {
        self.in_unit_scope(|_| {
            let mut value = self.meta_record(key)?;
            if !f(&mut value)? {
                return Ok(false);
            }
            let bytes = codec::to_bytes(&value)?;
            self.stage(|t| t.kv_put(KS_META, key.to_vec(), bytes))?;
            Ok(true)
        })
    }

    // -----------------------------------------------------------------
    // Replication
    // -----------------------------------------------------------------

    /// Refresh derived state after the store changed beneath this facade's
    /// write path — a follower's applied batch or resync, or a write straight
    /// to the store: forget which classifications are sound, since such a
    /// write bypassed the link that keeps them so. Entities, schema and
    /// synonyms need nothing: a read decodes them from the image it reads.
    /// Fails if the published meta does not decode, which a follower answers
    /// with a resync.
    pub fn refresh(&self) -> DbResult<()> {
        self.sound.clear();
        self.published_meta().map(drop)
    }

    // -----------------------------------------------------------------
    // Units of work
    // -----------------------------------------------------------------

    /// Open a (possibly nested) unit of work claiming every shard.
    ///
    /// The unit stages every write in one storage transaction, so readers
    /// outside it keep seeing the pre-unit state until it commits, and a
    /// crash mid-unit leaves nothing of it in the log. If this thread is
    /// already inside a unit, the new unit nests inside it, regardless of
    /// the mask requested: it shares the unit's claim and takes a rollback
    /// point in it.
    pub fn begin_unit(&self) -> UnitToken {
        self.begin_unit_on(self.store.all_shards_mask())
    }

    /// Open a unit of work claiming only the shards in `mask`, blocking
    /// while the claim waits in the writer queue: until every claim ahead
    /// of it that overlaps it has settled. Units with disjoint claims
    /// proceed concurrently. An operation whose writes route outside the
    /// claim fails when it stages them, and stages nothing.
    pub fn begin_unit_on(&self, mask: u64) -> UnitToken {
        if let Some(unit) = self.bound(|unit| unit.cloned()) {
            let mut writes = unit.writes.write();
            let point = Point {
                depth: writes.txn.take_point(),
                events: writes.events.len(),
                meta: writes.meta.clone(),
            };
            return UnitToken {
                unit: unit.id,
                point: Some(point),
            };
        }
        let thread = std::thread::current();
        let mut claim = self.claim_unit_on(mask, move || thread.unpark());
        let unit = loop {
            match self.open(claim) {
                Ok(unit) => break unit,
                Err(waiting) => {
                    claim = waiting;
                    std::thread::park();
                }
            }
        };
        let token = UnitToken {
            unit: unit.id,
            point: None,
        };
        bind_thread(Some(unit));
        token
    }

    /// Draw a claim on the shards in `mask` (0: every shard) at the back of
    /// the writer queue, without blocking. If it is not granted at once,
    /// `wake` runs — on whichever thread frees the shards — when it is.
    pub fn claim_unit_on(&self, mask: u64, wake: impl FnOnce() + Send + 'static) -> UnitClaim {
        let all = self.store.all_shards_mask();
        let mask = match mask & all {
            0 => all,
            m => m,
        };
        let (id, ahead) = self.units.lock().draw(mask, Box::new(wake));
        UnitClaim {
            units: Arc::clone(&self.units),
            id,
            ahead,
        }
    }

    /// Open the unit a granted claim holds, bound to no thread: the server
    /// runs each of its request slices under [`Database::with_unit_bound`].
    /// A claim still waiting is handed back.
    pub fn take_unit(&self, claim: UnitClaim) -> Result<UnitToken, UnitClaim> {
        let unit = self.open(claim)?;
        Ok(UnitToken {
            unit: unit.id,
            point: None,
        })
    }

    /// Writers holding or queued for shard `shard`: the claims in the
    /// writer queue whose masks cover it.
    pub fn claims_on(&self, shard: usize) -> u64 {
        let table = self.units.lock();
        table
            .queue
            .iter()
            .filter(|q| q.mask >> shard & 1 != 0)
            .count() as u64
    }

    /// Open the unit of `claim` once it is granted.
    fn open(&self, mut claim: UnitClaim) -> Result<Arc<Unit>, UnitClaim> {
        assert!(
            Arc::ptr_eq(&claim.units, &self.units),
            "a claim is taken from the database it was drawn on"
        );
        let mut table = self.units.lock();
        let Some(mask) = table.granted(claim.id) else {
            drop(table);
            return Err(claim);
        };
        let id = std::mem::take(&mut claim.id);
        let unit = Arc::new(Unit {
            id,
            claim: mask,
            store: Arc::as_ptr(&self.store) as usize,
            writes: RwLock::new(Writes {
                txn: self.store.begin_unit(mask),
                meta: None,
                events: Vec::new(),
            }),
        });
        table.states.insert(id, Arc::clone(&unit));
        Ok(unit)
    }

    /// Run `f` with the unit bound to this thread, if it is one of this
    /// database's (`None` otherwise).
    fn bound<T>(&self, f: impl FnOnce(Option<&Arc<Unit>>) -> T) -> T {
        BOUND.with(|bound| {
            let bound = bound.borrow();
            let store = Arc::as_ptr(&self.store) as usize;
            f(bound.as_ref().filter(|unit| unit.store == store))
        })
    }

    /// The id of this database's unit bound to this thread (0 = none).
    fn bound_id(&self) -> u64 {
        self.bound(|unit| unit.map_or(0, |unit| unit.id))
    }

    /// Run `f` with this thread bound to `token`'s unit. The server's event
    /// transport executes one unit's requests across readiness callbacks on
    /// one thread interleaved with other sessions' work; each slice is
    /// wrapped in this so staging, reads and event recording follow the
    /// token, not the thread. If `f` settles the unit (commit/abort), the
    /// binding it cleared stays cleared; if `f` panics, the unit is rolled
    /// back.
    pub fn with_unit_bound<T>(&self, token: &UnitToken, f: impl FnOnce(&Database) -> T) -> T {
        let unit = self.units.lock().states.get(&token.unit).cloned();
        let prev = bind_thread(unit);
        let unwind = RollbackOnUnwind(self, token.unit);
        let out = f(self);
        std::mem::forget(unwind);
        if self.bound_id() == token.unit {
            bind_thread(prev);
        }
        out
    }

    /// Commit a unit of work. A nested unit keeps its work in the unit it
    /// shares. Committing the outermost unit fires deferred (`at_commit`)
    /// listeners; if any fails, the whole unit is rolled back and the error
    /// returned. May be called from a thread other than the one that opened
    /// the unit (the event transport's reaper does this); the thread is
    /// bound to the unit for the listeners' benefit.
    pub fn commit_unit(&self, token: UnitToken) -> DbResult<()> {
        let id = token.unit;
        let unit = self.units.lock().states.get(&id).cloned();
        let unit = unit.ok_or_else(|| DbError::Unit("commit without active unit".into()))?;
        let events = {
            let mut writes = unit.writes.write();
            let depth = token.point.map_or(0, |point| point.depth);
            if writes.txn.points() != depth {
                return Err(DbError::Unit(format!(
                    "unit commit out of order: {} points open, token at {depth}",
                    writes.txn.points()
                )));
            }
            if depth > 0 {
                writes.txn.keep_point();
                return Ok(());
            }
            std::mem::take(&mut writes.events)
        };
        bind_thread(Some(Arc::clone(&unit)));
        // Deferred listeners run while the unit is still rollback-able; any
        // write they make (repair actions, history entries) is part of it,
        // and a unit one of them opens nests inside it.
        let listeners = Arc::clone(&self.listeners.read());
        for listener in listeners.iter() {
            if let Err(e) = listener.at_commit(self, &events) {
                self.rollback_unit(id);
                return Err(e);
            }
        }
        // The claim stays held until the seal lands, so a unit opened
        // meanwhile cannot claim its shards; disjoint units seal in
        // parallel.
        self.units.lock().states.remove(&id);
        let sealed = unit.settle(&self.store).txn.commit();
        self.release_unit(id);
        Ok(sealed?)
    }

    /// Abort a unit of work. A nested unit undoes only its own work, and
    /// that of units nested in it; aborting the outermost rolls back
    /// everything the unit changed.
    pub fn abort_unit(&self, token: UnitToken) {
        let Some(point) = token.point else {
            return self.rollback_unit(token.unit);
        };
        let Some(unit) = self.units.lock().states.get(&token.unit).cloned() else {
            return;
        };
        let mut writes = unit.writes.write();
        // A point an enclosing abort has undone already is left alone.
        if writes.txn.points() >= point.depth {
            writes.txn.restore_to(point.depth);
            writes.events.truncate(point.events);
            writes.meta = point.meta;
        }
    }

    /// Whether a unit of work is bound to the calling thread.
    pub fn in_unit(&self) -> bool {
        self.bound_id() != 0
    }

    /// Release `id`'s claim and thread binding after it settled, waking the
    /// claims waiting for the freed shards.
    fn release_unit(&self, id: u64) {
        release_claim(&self.units, id);
        if self.bound_id() == id {
            bind_thread(None);
        }
    }

    /// Abort unit `id`: drop its staged writes and the meta they made —
    /// nothing of them reached the log or the image.
    fn rollback_unit(&self, id: u64) {
        let Some(unit) = self.units.lock().states.remove(&id) else {
            return;
        };
        unit.settle(&self.store).txn.abort();
        self.release_unit(id);
    }

    /// Record an event in the unit bound to this thread, for the deferred
    /// listeners at commit.
    fn record_event(&self, event: Event) {
        self.bound(|unit| unit.map(|unit| unit.writes.write().events.push(event)));
    }

    /// Run `f` as one operation, all or none: outside a unit, in a unit of
    /// its own that commits if `f` succeeds; inside one, behind a rollback
    /// point that keeps `f`'s work if it succeeds. If `f` fails, exactly its
    /// own work is undone and an enclosing unit stays open. If `f` panics,
    /// the whole unit is rolled back.
    pub fn in_unit_scope<T>(&self, f: impl FnOnce(&Database) -> DbResult<T>) -> DbResult<T> {
        let token = self.begin_unit();
        let unwind = RollbackOnUnwind(self, token.unit);
        let result = f(self);
        std::mem::forget(unwind);
        match result {
            Ok(v) => {
                self.commit_unit(token)?;
                Ok(v)
            }
            Err(e) => {
                self.abort_unit(token);
                Err(e)
            }
        }
    }

    /// Stage writes in the unit bound to this thread, all or none: the one
    /// way a write reaches the store. Every caller runs inside a unit.
    pub(crate) fn stage(&self, f: impl FnOnce(&mut Txn<'_>)) -> DbResult<()> {
        self.stage_with(f, |_| {})
    }

    /// [`Database::stage`], then `keep` what the writes make (a
    /// definition's meta) with the unit, under the same lock.
    fn stage_with(
        &self,
        f: impl FnOnce(&mut Txn<'_>),
        keep: impl FnOnce(&mut Writes),
    ) -> DbResult<()> {
        let unit = self.bound(|unit| unit.cloned());
        let unit = unit.expect("a write stages inside its operation's unit");
        let mut writes = unit.writes.write();
        writes.txn.stage(f)?;
        keep(&mut writes);
        Ok(())
    }

    /// Run `f` on what a read of this database sees: the bound unit's
    /// transaction — its staged writes over the committed state — or,
    /// unbound, a transaction with nothing staged.
    pub(crate) fn read_through<T>(&self, f: impl FnOnce(&Txn<'_>) -> T) -> T {
        self.bound(|unit| match unit {
            Some(unit) => f(&unit.writes.read().txn),
            None => f(&self.store.begin()),
        })
    }

    /// A fresh OID: on the lowest shard of the bound unit's claim when that
    /// is a proper subset, so the unit's creations stay inside it;
    /// round-robin otherwise.
    fn allocate_oid(&self) -> Oid {
        let claim = self.bound(|unit| unit.map_or(0, |unit| unit.claim));
        if claim == 0 || claim == self.store.all_shards_mask() {
            return self.store.allocate_oid();
        }
        self.store.allocate_oid_on(claim.trailing_zeros() as usize)
    }

    /// One event of an operation, inside the operation's scope: the `before`
    /// listeners may veto it, `stage` writes it, then it is recorded for the
    /// deferred listeners and the `after` listeners run. Any failure fails
    /// the operation, whose scope undoes it.
    fn emit(&self, event: Event, stage: impl FnOnce() -> DbResult<()>) -> DbResult<()> {
        let listeners = Arc::clone(&self.listeners.read());
        for listener in listeners.iter() {
            listener.before(self, &event)?;
        }
        stage()?;
        self.record_event(event.clone());
        for listener in listeners.iter() {
            listener.after(self, &event)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Entity access
    // -----------------------------------------------------------------

    // The read API below delegates to the [`Reader`] trait (see
    // `crate::read`), which holds the single definition of every read
    // operation; these inherent shims keep existing `Database` callers
    // working without importing the trait. `Database` reads see committed
    // state plus the staged writes of the unit bound to this thread, so code
    // inside a unit of work sees its own operations — only [`ReadView`]
    // pins a published snapshot.

    /// Fetch an object instance.
    pub fn object(&self, oid: Oid) -> DbResult<ObjectInstance> {
        Reader::object(self, oid)
    }

    /// Fetch a relationship instance.
    pub fn rel(&self, oid: Oid) -> DbResult<RelInstance> {
        Reader::rel(self, oid)
    }

    /// Fetch classification metadata.
    pub fn classification_meta(&self, oid: Oid) -> DbResult<ClassificationMeta> {
        Reader::classification_meta(self, oid)
    }

    /// Whether any entity with this OID exists.
    pub fn exists(&self, oid: Oid) -> bool {
        Reader::exists(self, oid)
    }

    /// Most-specific class of the entity (`"__classification"` for
    /// classification metadata).
    pub fn class_of(&self, oid: Oid) -> DbResult<String> {
        Reader::class_of(self, oid)
    }

    // -----------------------------------------------------------------
    // Object CRUD
    // -----------------------------------------------------------------

    /// Create an object of `class` with the given attributes.
    ///
    /// Validates the class (must exist, not abstract), attribute names and
    /// types, applies declared defaults, fires `ObjectCreated`.
    pub fn create_object(
        &self,
        class: &str,
        attrs: impl IntoIterator<Item = (String, Value)>,
    ) -> DbResult<Oid> {
        let attrs: BTreeMap<String, Value> = attrs.into_iter().collect();
        self.in_unit_scope(|_| {
            let checked = {
                let schema = &self.meta().schema;
                let def = schema
                    .class(class)
                    .ok_or_else(|| DbError::Schema(format!("unknown class '{class}'")))?;
                if def.is_abstract {
                    return Err(DbError::Schema(format!("class '{class}' is abstract")));
                }
                let declared = schema.all_attrs(class)?;
                validate_attrs(class, &declared, attrs, true)?
            };
            let oid = self.allocate_oid();
            let event = Event::ObjectCreated {
                oid,
                class: class.to_string(),
            };
            let obj = ObjectInstance {
                oid,
                class: class.to_string(),
                attrs: checked,
            };
            self.emit(event, || self.raw_put_object(&obj))?;
            Ok(oid)
        })
    }

    /// Update one attribute of an object.
    pub fn set_attr(&self, oid: Oid, attr: &str, value: impl Into<Value>) -> DbResult<()> {
        let value = value.into();
        self.in_unit_scope(|_| {
            let mut obj = self.object(oid)?;
            let declared = self.with_schema(|s| s.all_attrs(&obj.class))?;
            let def =
                declared
                    .iter()
                    .find(|a| a.name == attr)
                    .ok_or_else(|| DbError::UnknownAttr {
                        class: obj.class.clone(),
                        attr: attr.into(),
                    })?;
            check_type(&obj.class, def, &value)?;
            let old = obj.attr(attr);
            if old == value {
                return Ok(());
            }
            let event = Event::ObjectUpdated {
                oid,
                class: obj.class.clone(),
                attr: attr.to_string(),
                old,
                new: value.clone(),
            };
            self.emit(event, || self.raw_update_object_attr(&mut obj, attr, value))
        })
    }

    /// Delete an object.
    ///
    /// All incident relationship instances are deleted first (firing their
    /// own events and leaving their classifications). For each outgoing
    /// *dependent* aggregation, the destination is recursively deleted if no
    /// other incoming aggregation still claims it.
    pub fn delete_object(&self, oid: Oid) -> DbResult<()> {
        self.in_unit_scope(|_| {
            let obj = self.object(oid)?;
            let event = Event::ObjectDeleted {
                oid,
                class: obj.class.clone(),
            };
            let mut dependents: Vec<Oid> = Vec::new();
            self.emit(event, || {
                // Incident edges, off the endpoint keys; each is decoded only
                // by its own deletion, whose events carry the record.
                let mut incident: Vec<Oid> = Vec::new();
                let schema = &self.meta().schema;
                self.for_each_incident(oid, true, |class, rel, destination| {
                    incident.push(rel);
                    if schema.rel_class(class).is_some_and(|def| def.dependent) {
                        dependents.push(destination);
                    }
                });
                self.for_each_incident(oid, false, |_, rel, _| incident.push(rel));
                for rel in incident {
                    // A relationship may have been deleted already if it
                    // connects oid to itself or appears in both lists.
                    if self.exists(rel) {
                        self.delete_relationship_inner(rel, true)?;
                    }
                }
                self.raw_delete_object(&obj)?;
                self.revise_synonyms(|synonyms| synonyms.dissolve(oid))
            })?;
            // Lifetime-dependent destinations: delete if orphaned.
            for dest in dependents {
                if self.exists(dest) && !self.has_incoming_aggregation(dest) {
                    self.delete_object(dest)?;
                }
            }
            Ok(())
        })
    }

    fn has_incoming_aggregation(&self, oid: Oid) -> bool {
        let schema = &self.meta().schema;
        let mut found = false;
        self.for_each_incident(oid, false, |class, _, _| {
            found |= schema
                .rel_class(class)
                .is_some_and(|d| d.kind == RelKind::Aggregation);
        });
        found
    }

    // -----------------------------------------------------------------
    // Relationship CRUD
    // -----------------------------------------------------------------

    /// Create a relationship instance of `class` from `origin` to
    /// `destination`, enforcing every built-in behaviour of §4.4.3.
    pub fn create_relationship(
        &self,
        class: &str,
        origin: Oid,
        destination: Oid,
        attrs: impl IntoIterator<Item = (String, Value)>,
    ) -> DbResult<Oid> {
        let attrs: BTreeMap<String, Value> = attrs.into_iter().collect();
        self.in_unit_scope(|_| {
            let checked = {
                let schema = &self.meta().schema;
                let def = schema
                    .rel_class(class)
                    .ok_or_else(|| {
                        DbError::Schema(format!("unknown relationship class '{class}'"))
                    })?
                    .clone();
                // Endpoint class conformance.
                let origin_class = self.class_of(origin)?;
                if def.origin_class != OBJECT_CLASS
                    && !schema.conforms(&origin_class, &def.origin_class)
                {
                    return Err(DbError::EndpointMismatch {
                        relationship: class.into(),
                        expected: def.origin_class.clone(),
                        found: origin_class,
                    });
                }
                let dest_class = self.class_of(destination)?;
                if def.destination_class != OBJECT_CLASS
                    && !schema.conforms(&dest_class, &def.destination_class)
                {
                    return Err(DbError::EndpointMismatch {
                        relationship: class.into(),
                        expected: def.destination_class.clone(),
                        found: dest_class,
                    });
                }
                let declared = schema.all_rel_attrs(class)?;
                let checked = validate_attrs(class, &declared, attrs, true)?;

                // Each check below reads the endpoint keys of the relationships
                // already there — their class and endpoints — and no record.
                //
                // Exclusivity (Figure 15): at most one incoming instance of this
                // class for the destination.
                if def.exclusive && self.degree(destination, class, false) > 0 {
                    return Err(DbError::ExclusivityViolation {
                        relationship: class.into(),
                        destination,
                    });
                }
                // Sharability (Figure 16): a non-sharable aggregation's part may
                // not belong to any other whole, and a part already held by a
                // non-sharable aggregation may not be claimed again.
                if def.kind == RelKind::Aggregation {
                    let mut claimed = false;
                    self.for_each_incident(destination, false, |existing, _, _| {
                        claimed |= schema.rel_class(existing).is_some_and(|other| {
                            other.kind == RelKind::Aggregation && (!def.sharable || !other.sharable)
                        });
                    });
                    if claimed {
                        return Err(DbError::SharabilityViolation {
                            relationship: class.into(),
                            destination,
                        });
                    }
                }
                // Cardinality on both sides; an unbounded side reads nothing.
                for (card, side, end, outgoing) in [
                    (&def.origin_card, "origin", origin, true),
                    (&def.destination_card, "destination", destination, false),
                ] {
                    if let Some(limit) = card.max {
                        if self.degree(end, class, outgoing) >= limit {
                            return Err(DbError::CardinalityViolation {
                                relationship: class.into(),
                                side,
                                limit,
                            });
                        }
                    }
                }
                // Acyclicity: destination must not already reach origin.
                if def.acyclic
                    && traversal::closes_cycle(self, origin, destination, Some(class), None)?
                {
                    return Err(DbError::CycleViolation {
                        relationship: class.into(),
                        origin,
                        destination,
                    });
                }
                checked
            };
            let oid = self.allocate_oid();
            let event = Event::RelCreated {
                oid,
                class: class.to_string(),
                origin,
                destination,
            };
            let rel = RelInstance {
                oid,
                class: class.to_string(),
                origin,
                destination,
                attrs: checked,
            };
            self.emit(event, || self.raw_put_rel(&rel))?;
            Ok(oid)
        })
    }

    /// Update one attribute of a relationship instance.
    pub fn set_rel_attr(&self, oid: Oid, attr: &str, value: impl Into<Value>) -> DbResult<()> {
        let value = value.into();
        self.in_unit_scope(|_| {
            let mut rel = self.rel(oid)?;
            let declared = self.with_schema(|s| s.all_rel_attrs(&rel.class))?;
            let def =
                declared
                    .iter()
                    .find(|a| a.name == attr)
                    .ok_or_else(|| DbError::UnknownAttr {
                        class: rel.class.clone(),
                        attr: attr.into(),
                    })?;
            check_type(&rel.class, def, &value)?;
            let old = rel.attr(attr);
            if old == value {
                return Ok(());
            }
            let event = Event::RelUpdated {
                oid,
                class: rel.class.clone(),
                attr: attr.to_string(),
                old,
                new: value.clone(),
            };
            rel.attrs.insert(attr.to_string(), value);
            self.emit(event, || self.raw_put_rel(&rel))
        })
    }

    /// Delete a relationship instance. Constant relationships may only be
    /// deleted as part of deleting one of their endpoints.
    pub fn delete_relationship(&self, oid: Oid) -> DbResult<()> {
        self.in_unit_scope(|_| self.delete_relationship_inner(oid, false))
    }

    fn delete_relationship_inner(&self, oid: Oid, endpoint_cascade: bool) -> DbResult<()> {
        let rel = self.rel(oid)?;
        let constant = self.with_schema(|s| s.rel_class(&rel.class).is_some_and(|d| d.constant));
        if constant && !endpoint_cascade {
            return Err(DbError::ConstancyViolation { relationship: oid });
        }
        let event = Event::RelDeleted {
            oid,
            class: rel.class.clone(),
            origin: rel.origin,
            destination: rel.destination,
        };
        self.emit(event, || {
            // Leave every classification first.
            for cls in self.classifications_of_edge(oid)? {
                self.raw_remove_cls_edge(cls, &rel)?;
                self.record_event(Event::ClassificationEdgeRemoved {
                    classification: cls,
                    rel: oid,
                });
            }
            self.raw_delete_rel(&rel)
        })
    }

    /// All relationship instances leaving `oid`, optionally restricted to one
    /// relationship class (exact).
    pub fn rels_from(&self, oid: Oid, class: Option<&str>) -> DbResult<Vec<RelInstance>> {
        Reader::rels_from(self, oid, class)
    }

    /// All relationship instances arriving at `oid`, optionally restricted to
    /// one relationship class (exact).
    pub fn rels_to(&self, oid: Oid, class: Option<&str>) -> DbResult<Vec<RelInstance>> {
        Reader::rels_to(self, oid, class)
    }

    /// Record-free adjacency (the §6.1.5.2 indexing fast path): the edges
    /// incident to `oid` as `(relationship oid, opposite endpoint)` pairs,
    /// straight from the index — no relationship records are fetched or
    /// decoded. `outgoing` selects the direction; a `scope` keeps the member
    /// edges of that classification (see [`Reader::adjacency`]).
    pub fn adjacency(
        &self,
        oid: Oid,
        class: Option<&str>,
        outgoing: bool,
        scope: Option<Oid>,
    ) -> DbResult<Vec<(Oid, Oid)>> {
        Reader::adjacency(self, oid, class, outgoing, scope)
    }

    /// How many `class` edges leave (`outgoing`) or reach `oid`: a count of
    /// endpoint keys, no record read.
    fn degree(&self, oid: Oid, class: &str, outgoing: bool) -> u32 {
        let ks = if outgoing { KS_REL_FROM } else { KS_REL_TO };
        let mut n = 0;
        self.raw_kv_for_each_prefix(ks, &index::endpoint_class_prefix(oid, class), |_, _| n += 1);
        n
    }

    /// Every edge incident to `oid` as `(relationship class, relationship
    /// oid, opposite endpoint)`, in key order, read off the endpoint index —
    /// the incidence each §4.4.3 check is stated over, with no record
    /// decoded. The class is borrowed from the key, so `f` runs inside the
    /// scan and must not read through the database.
    fn for_each_incident(&self, oid: Oid, outgoing: bool, mut f: impl FnMut(&str, Oid, Oid)) {
        let ks = if outgoing { KS_REL_FROM } else { KS_REL_TO };
        self.raw_kv_for_each_prefix(ks, &index::endpoint_prefix(oid), |key, value| {
            if let (Some(class), Some(rel), Ok(other)) = (
                index::endpoint_key_class(key),
                index::oid_suffix(key),
                <[u8; 8]>::try_from(value),
            ) {
                f(class, rel, Oid::from_be_bytes(other));
            }
        });
    }

    // -----------------------------------------------------------------
    // Extents and attribute queries
    // -----------------------------------------------------------------

    /// OIDs in the extent of `class`; with `deep`, the deep extent (ODMG
    /// `extent` semantics).
    pub fn extent(&self, class: &str, deep: bool) -> DbResult<Vec<Oid>> {
        Reader::extent(self, class, deep)
    }

    /// Exact-match lookup over an indexed attribute (deep extent).
    pub fn find_by_attr(&self, class: &str, attr: &str, value: &Value) -> DbResult<Vec<Oid>> {
        Reader::find_by_attr(self, class, attr, value)
    }

    /// Range lookup `lo <= value < hi` over an indexed attribute.
    pub fn find_by_attr_range(
        &self,
        class: &str,
        attr: &str,
        lo: &Value,
        hi: &Value,
    ) -> DbResult<Vec<Oid>> {
        Reader::find_by_attr_range(self, class, attr, lo, hi)
    }

    /// Attribute lookup with relationship attribute inheritance (§4.4.5).
    ///
    /// Resolution order: the object's own attribute; the class default; then
    /// values inherited from incoming relationship instances whose class
    /// declares `attr` inheritable. Distinct inherited values are ambiguous.
    pub fn attr_of(&self, oid: Oid, attr: &str) -> DbResult<Value> {
        Reader::attr_of(self, oid, attr)
    }

    // -----------------------------------------------------------------
    // Instance synonyms (§4.5)
    // -----------------------------------------------------------------

    /// Declare two instances synonymous.
    pub fn declare_synonym(&self, a: Oid, b: Oid) -> DbResult<()> {
        if !self.exists(a) {
            return Err(DbError::NotFound(a));
        }
        if !self.exists(b) {
            return Err(DbError::NotFound(b));
        }
        self.revise_synonyms(|synonyms| synonyms.declare(a, b))
    }

    /// Whether two instances are declared synonymous.
    pub fn same_instance(&self, a: Oid, b: Oid) -> bool {
        Reader::same_instance(self, a, b)
    }

    /// All members of `oid`'s synonym set (including itself).
    pub fn synonym_set(&self, oid: Oid) -> Vec<Oid> {
        Reader::synonym_set(self, oid)
    }

    /// Canonical representative of `oid`'s synonym set.
    pub fn synonym_representative(&self, oid: Oid) -> Oid {
        Reader::synonym_representative(self, oid)
    }

    // -----------------------------------------------------------------
    // Classifications (§4.6)
    // -----------------------------------------------------------------

    /// Create a classification: a named, initially empty set of relationship
    /// instances. `attrs` carries traceability data (author, publication,
    /// criteria — requirement 4).
    pub fn create_classification(
        &self,
        name: &str,
        attrs: impl IntoIterator<Item = (String, Value)>,
        strict_hierarchy: bool,
    ) -> DbResult<Oid> {
        self.in_unit_scope(|_| {
            let oid = self.allocate_oid();
            let bytes = codec::to_bytes(&StoredEntity::Classification(ClassificationMeta {
                oid,
                name: name.to_string(),
                attrs: attrs.into_iter().collect(),
                strict_hierarchy,
            }))?;
            self.stage(|t| {
                t.put(oid, bytes);
                t.kv_put(
                    KS_EXTENT,
                    index::extent_key(CLASSIFICATION_EXTENT, oid),
                    Vec::new(),
                );
            })?;
            Ok(oid)
        })
    }

    /// All classification OIDs.
    pub fn classifications(&self) -> DbResult<Vec<Oid>> {
        Reader::classifications(self)
    }

    /// Find a classification by name.
    pub fn classification_by_name(&self, name: &str) -> DbResult<Option<Oid>> {
        Reader::classification_by_name(self, name)
    }

    /// Add a relationship instance to a classification.
    ///
    /// A classification is a hierarchy after every link (§4.6): the edge
    /// `o → d` is refused when `d` is `o` or one of `o`'s ancestors there,
    /// strict or lenient, as the unit bound to this thread sees it — so an
    /// edge staged earlier in the unit counts. The check is
    /// [`traversal::closes_cycle`] scoped to the classification, the climb
    /// an `acyclic` relationship class runs over its own edges. In a
    /// strict-hierarchy classification `d` must not already have a parent
    /// edge there either (one parent per node per classification — the
    /// overlap across classifications is the point). A refused link fails
    /// with [`DbError::Classification`] and undoes exactly itself.
    pub fn add_edge_to_classification(&self, cls: Oid, rel_oid: Oid) -> DbResult<()> {
        self.in_unit_scope(|_| {
            let meta = self.classification_meta(cls)?;
            let rel = self.rel(rel_oid)?;
            if meta.strict_hierarchy {
                let parents = self.adjacency(rel.destination, None, false, Some(cls))?;
                if parents.into_iter().any(|(edge, _)| edge != rel_oid) {
                    return Err(DbError::Classification(format!(
                        "node {} already has a parent in classification '{}'",
                        rel.destination, meta.name
                    )));
                }
            }
            if self.edge_in_classification(cls, rel_oid) {
                return Ok(()); // already a member
            }
            if traversal::closes_cycle(self, rel.origin, rel.destination, None, Some(cls))? {
                return Err(DbError::Classification(format!(
                    "edge {} -> {} closes a cycle in classification '{}'",
                    rel.origin, rel.destination, meta.name
                )));
            }
            let event = Event::ClassificationEdgeAdded {
                classification: cls,
                rel: rel_oid,
            };
            self.emit(event, || self.raw_add_cls_edge(cls, &rel))
        })
    }

    /// Remove a relationship instance from a classification.
    pub fn remove_edge_from_classification(&self, cls: Oid, rel_oid: Oid) -> DbResult<()> {
        self.in_unit_scope(|_| {
            if !self.edge_in_classification(cls, rel_oid) {
                return Ok(());
            }
            let rel = self.rel(rel_oid)?;
            let event = Event::ClassificationEdgeRemoved {
                classification: cls,
                rel: rel_oid,
            };
            self.emit(event, || self.raw_remove_cls_edge(cls, &rel))
        })
    }

    /// All edge OIDs of a classification.
    pub fn classification_edges(&self, cls: Oid) -> DbResult<Vec<Oid>> {
        Reader::classification_edges(self, cls)
    }

    /// All classifications an edge belongs to.
    pub fn classifications_of_edge(&self, rel_oid: Oid) -> DbResult<Vec<Oid>> {
        Reader::classifications_of_edge(self, rel_oid)
    }

    /// Edges of `cls` arriving at `node` (its parent edges there).
    pub fn classification_parent_edges(&self, cls: Oid, node: Oid) -> DbResult<Vec<RelInstance>> {
        Reader::classification_parent_edges(self, cls, node)
    }

    /// Edges of `cls` leaving `node` (its child edges there).
    pub fn classification_child_edges(&self, cls: Oid, node: Oid) -> DbResult<Vec<RelInstance>> {
        Reader::classification_child_edges(self, cls, node)
    }

    /// Whether an edge belongs to a classification.
    pub fn edge_in_classification(&self, cls: Oid, rel_oid: Oid) -> bool {
        Reader::edge_in_classification(self, cls, rel_oid)
    }

    // -----------------------------------------------------------------
    // Raw (event-free) appliers: the storage writes behind each operation.
    // -----------------------------------------------------------------

    fn raw_put_object(&self, obj: &ObjectInstance) -> DbResult<()> {
        let bytes = codec::to_bytes(&StoredEntity::Object(obj.clone()))?;
        let indexed = self.indexed_attrs(&obj.class)?;
        self.stage(|t| {
            t.put(obj.oid, bytes);
            t.kv_put(
                KS_EXTENT,
                index::extent_key(&obj.class, obj.oid),
                Vec::new(),
            );
            for attr in &indexed {
                if let Some(v) = obj.attrs.get(attr) {
                    t.kv_put(
                        KS_ATTR,
                        index::attr_key(&obj.class, attr, v, obj.oid),
                        Vec::new(),
                    );
                }
            }
        })
    }

    fn raw_update_object_attr(
        &self,
        obj: &mut ObjectInstance,
        attr: &str,
        value: Value,
    ) -> DbResult<()> {
        let old = obj.attr(attr);
        if value == Value::Null {
            obj.attrs.remove(attr);
        } else {
            obj.attrs.insert(attr.to_string(), value.clone());
        }
        let bytes = codec::to_bytes(&StoredEntity::Object(obj.clone()))?;
        let indexed = self.indexed_attrs(&obj.class)?.contains(&attr.to_string());
        self.stage(|t| {
            t.put(obj.oid, bytes);
            if indexed {
                if old != Value::Null {
                    t.kv_delete(KS_ATTR, index::attr_key(&obj.class, attr, &old, obj.oid));
                }
                if value != Value::Null {
                    t.kv_put(
                        KS_ATTR,
                        index::attr_key(&obj.class, attr, &value, obj.oid),
                        Vec::new(),
                    );
                }
            }
        })
    }

    fn raw_delete_object(&self, obj: &ObjectInstance) -> DbResult<()> {
        let indexed = self.indexed_attrs(&obj.class)?;
        self.stage(|t| {
            t.delete(obj.oid);
            t.kv_delete(KS_EXTENT, index::extent_key(&obj.class, obj.oid));
            for attr in &indexed {
                if let Some(v) = obj.attrs.get(attr) {
                    t.kv_delete(KS_ATTR, index::attr_key(&obj.class, attr, v, obj.oid));
                }
            }
        })
    }

    fn raw_put_rel(&self, rel: &RelInstance) -> DbResult<()> {
        let bytes = codec::to_bytes(&StoredEntity::Rel(rel.clone()))?;
        self.stage(|t| {
            t.put(rel.oid, bytes);
            t.kv_put(
                KS_EXTENT,
                index::extent_key(&rel.class, rel.oid),
                Vec::new(),
            );
            t.kv_put(
                KS_REL_FROM,
                index::endpoint_key(rel.origin, &rel.class, rel.oid),
                rel.destination.to_be_bytes().to_vec(),
            );
            t.kv_put(
                KS_REL_TO,
                index::endpoint_key(rel.destination, &rel.class, rel.oid),
                rel.origin.to_be_bytes().to_vec(),
            );
        })
    }

    fn raw_delete_rel(&self, rel: &RelInstance) -> DbResult<()> {
        self.stage(|t| {
            t.delete(rel.oid);
            t.kv_delete(KS_EXTENT, index::extent_key(&rel.class, rel.oid));
            t.kv_delete(
                KS_REL_FROM,
                index::endpoint_key(rel.origin, &rel.class, rel.oid),
            );
            t.kv_delete(
                KS_REL_TO,
                index::endpoint_key(rel.destination, &rel.class, rel.oid),
            );
        })
    }

    fn raw_add_cls_edge(&self, cls: Oid, rel: &RelInstance) -> DbResult<()> {
        self.stage(|t| {
            t.kv_put(
                KS_CLS_EDGES,
                index::cls_edge_key(cls, rel.origin, &rel.class, rel.oid),
                rel.destination.to_be_bytes().to_vec(),
            );
            t.kv_put(KS_EDGE_CLS, index::edge_cls_key(rel.oid, cls), Vec::new());
        })
    }

    fn raw_remove_cls_edge(&self, cls: Oid, rel: &RelInstance) -> DbResult<()> {
        self.stage(|t| {
            t.kv_delete(
                KS_CLS_EDGES,
                index::cls_edge_key(cls, rel.origin, &rel.class, rel.oid),
            );
            t.kv_delete(KS_EDGE_CLS, index::edge_cls_key(rel.oid, cls));
        })
    }

    /// Delete a classification (its meta record and membership entries; the
    /// edges and objects themselves are untouched).
    pub fn delete_classification(&self, oid: Oid) -> DbResult<()> {
        self.in_unit_scope(|_| {
            self.classification_meta(oid)?;
            let mut members = Vec::new();
            self.raw_kv_for_each_prefix(KS_CLS_EDGES, &index::cls_prefix(oid), |key, _| {
                members.extend(index::oid_suffix(key).map(|rel| (key.to_vec(), rel)));
            });
            self.stage(|t| {
                for (key, rel) in members {
                    t.kv_delete(KS_CLS_EDGES, key);
                    t.kv_delete(KS_EDGE_CLS, index::edge_cls_key(rel, oid));
                }
                t.delete(oid);
                t.kv_delete(KS_EXTENT, index::extent_key(CLASSIFICATION_EXTENT, oid));
            })?;
            self.sound.remove(oid);
            Ok(())
        })
    }

    /// Validate minimum-cardinality constraints (§4.4.4) across the whole
    /// database: for every relationship class declaring `min > 0` on a side,
    /// every member of that side's class must participate in at least `min`
    /// instances. Maximums are enforced eagerly at creation; minimums can
    /// only hold *eventually* (an object must exist before it can be
    /// linked), so they are validated deferred — call this at commit points
    /// or from a deferred rule. Returns human-readable violations.
    pub fn validate_min_cardinalities(&self) -> DbResult<Vec<String>> {
        let rel_defs: Vec<crate::schema::RelClassDef> = self.with_schema(|s| {
            s.rel_class_names()
                .filter_map(|n| s.rel_class(n).cloned())
                .filter(|d| d.origin_card.min > 0 || d.destination_card.min > 0)
                .collect()
        });
        let mut problems = Vec::new();
        for def in rel_defs {
            if def.origin_card.min > 0 {
                for oid in self.extent(&def.origin_class, true)? {
                    // Relationship instances also live in extents; skip them.
                    if self.rel(oid).is_ok() {
                        continue;
                    }
                    let count = self.degree(oid, &def.name, true);
                    if count < def.origin_card.min {
                        problems.push(format!(
                            "{oid} has {count} outgoing {} instance(s), minimum is {}",
                            def.name, def.origin_card.min
                        ));
                    }
                }
            }
            if def.destination_card.min > 0 {
                for oid in self.extent(&def.destination_class, true)? {
                    if self.rel(oid).is_ok() {
                        continue;
                    }
                    let count = self.degree(oid, &def.name, false);
                    if count < def.destination_card.min {
                        problems.push(format!(
                            "{oid} has {count} incoming {} instance(s), minimum is {}",
                            def.name, def.destination_card.min
                        ));
                    }
                }
            }
        }
        Ok(problems)
    }

    /// Deep-copy a composite object (§4.4.1): the object itself is cloned;
    /// destinations of its outgoing **non-sharable or lifetime-dependent
    /// aggregations** (its exclusive parts) are cloned recursively, while
    /// sharable aggregations and associations are re-linked to the original
    /// destinations. Relationship instances are recreated with their
    /// attributes. Returns the new root's OID.
    ///
    /// This is the object-level counterpart of classification copy
    /// (revisions) — requirement 5's composite-object boundary makes the
    /// distinction between "copy the part" and "share the reference"
    /// well-defined.
    pub fn deep_copy(&self, oid: Oid) -> DbResult<Oid> {
        self.in_unit_scope(|db| db.deep_copy_inner(oid))
    }

    fn deep_copy_inner(&self, oid: Oid) -> DbResult<Oid> {
        let obj = self.object(oid)?;
        let copy = self.create_object(&obj.class, obj.attrs.clone())?;
        for rel in self.rels_from(oid, None)? {
            let is_exclusive_part = self.with_schema(|s| {
                s.rel_class(&rel.class).is_some_and(|def| {
                    def.kind == RelKind::Aggregation && (!def.sharable || def.dependent)
                })
            });
            let target = if is_exclusive_part {
                self.deep_copy_inner(rel.destination)?
            } else {
                rel.destination
            };
            self.create_relationship(&rel.class, copy, target, rel.attrs.clone())?;
        }
        Ok(copy)
    }

    fn indexed_attrs(&self, class: &str) -> DbResult<Vec<String>> {
        let declared = self.with_schema(|s| s.all_attrs(class))?;
        Ok(declared
            .into_iter()
            .filter(|a| a.indexed)
            .map(|a| a.name)
            .collect())
    }
}

fn check_type(class: &str, def: &crate::schema::AttrDef, value: &Value) -> DbResult<()> {
    if *value == Value::Null && !def.optional {
        return Err(DbError::TypeMismatch {
            expected: def.ty.to_string(),
            found: "null".into(),
            context: format!("{class}.{}", def.name),
        });
    }
    if !def.ty.admits_shape(value) {
        return Err(DbError::TypeMismatch {
            expected: def.ty.to_string(),
            found: value.type_name().into(),
            context: format!("{class}.{}", def.name),
        });
    }
    Ok(())
}

fn validate_attrs(
    class: &str,
    declared: &[crate::schema::AttrDef],
    mut provided: BTreeMap<String, Value>,
    apply_defaults: bool,
) -> DbResult<BTreeMap<String, Value>> {
    let mut out = BTreeMap::new();
    for def in declared {
        match provided.remove(&def.name) {
            Some(value) => {
                check_type(class, def, &value)?;
                if value != Value::Null {
                    out.insert(def.name.clone(), value);
                }
            }
            None => {
                if apply_defaults {
                    if let Some(default) = &def.default {
                        out.insert(def.name.clone(), default.clone());
                        continue;
                    }
                }
                if !def.optional {
                    return Err(DbError::TypeMismatch {
                        expected: def.ty.to_string(),
                        found: "missing".into(),
                        context: format!("{class}.{}", def.name),
                    });
                }
            }
        }
    }
    if let Some((name, _)) = provided.into_iter().next() {
        return Err(DbError::UnknownAttr {
            class: class.to_string(),
            attr: name,
        });
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::{AttrDef, Cardinality, ClassDef, RelClassDef};
    use crate::value::Type;
    use prometheus_storage::StoreOptions;

    /// A fresh log path, unique to the test and the moment.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "prometheus-objdb-{tag}-{}-{:?}-{}.log",
            std::process::id(),
            std::thread::current().id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    pub(crate) fn temp_db() -> Database {
        let path = temp_path("db");
        open_at(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
        )
    }

    pub(crate) fn open_at(path: &std::path::Path, options: StoreOptions) -> Database {
        let store = ShardedStore::open_with(path, options, 1, index::shard_routing()).unwrap();
        Database::open_sharded(Arc::new(store)).unwrap()
    }

    /// Record count plus every keyspace's entries: all a reopen can see.
    pub(crate) fn store_contents(db: &Database) -> impl PartialEq + std::fmt::Debug {
        use prometheus_storage::{Keyspace, KvScan};
        let entries = (0..=u8::MAX).map(|ks| db.store().kv_scan_prefix(Keyspace(ks), &[]));
        (db.store().record_count(), entries.collect::<Vec<_>>())
    }

    fn taxo_db() -> Database {
        let db = temp_db();
        db.define_class(
            ClassDef::new("Taxon")
                .attr(AttrDef::required("name", Type::Str).indexed())
                .attr(AttrDef::optional("rank", Type::Str)),
        )
        .unwrap();
        db.define_class(
            ClassDef::new("Specimen")
                .attr(AttrDef::required("code", Type::Str).indexed())
                .attr(AttrDef::optional("year", Type::Int).indexed()),
        )
        .unwrap();
        db.define_relationship(
            RelClassDef::aggregation("Circumscribes", "Taxon", "Object").sharable(true),
        )
        .unwrap();
        db.define_relationship(RelClassDef::association("Cites", "Taxon", "Taxon"))
            .unwrap();
        db
    }

    fn attrs(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn object_crud_round_trip() {
        let db = taxo_db();
        let oid = db
            .create_object("Taxon", attrs(&[("name", "Apium".into())]))
            .unwrap();
        let obj = db.object(oid).unwrap();
        assert_eq!(obj.class, "Taxon");
        assert_eq!(obj.attr("name"), Value::from("Apium"));
        db.set_attr(oid, "rank", "Genus").unwrap();
        assert_eq!(db.object(oid).unwrap().attr("rank"), Value::from("Genus"));
        db.delete_object(oid).unwrap();
        assert!(db.object(oid).is_err());
    }

    #[test]
    fn missing_required_attr_rejected() {
        let db = taxo_db();
        let err = db.create_object("Taxon", attrs(&[])).unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn wrong_type_rejected() {
        let db = taxo_db();
        let err = db
            .create_object("Taxon", attrs(&[("name", Value::Int(3))]))
            .unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn unknown_attr_rejected() {
        let db = taxo_db();
        let err = db
            .create_object(
                "Taxon",
                attrs(&[("name", "x".into()), ("ghost", Value::Int(1))]),
            )
            .unwrap_err();
        assert!(matches!(err, DbError::UnknownAttr { .. }));
    }

    #[test]
    fn abstract_class_cannot_instantiate() {
        let db = temp_db();
        db.define_class(ClassDef::new("Abstract").abstract_class())
            .unwrap();
        assert!(db.create_object("Abstract", attrs(&[])).is_err());
    }

    #[test]
    fn defaults_are_applied() {
        let db = temp_db();
        db.define_class(
            ClassDef::new("X").attr(AttrDef::optional("n", Type::Int).with_default(7i64)),
        )
        .unwrap();
        let oid = db.create_object("X", attrs(&[])).unwrap();
        assert_eq!(db.object(oid).unwrap().attr("n"), Value::Int(7));
    }

    #[test]
    fn extent_and_deep_extent() {
        let db = temp_db();
        db.define_class(ClassDef::new("A")).unwrap();
        db.define_class(ClassDef::new("B").extends("A")).unwrap();
        let a = db.create_object("A", attrs(&[])).unwrap();
        let b = db.create_object("B", attrs(&[])).unwrap();
        assert_eq!(db.extent("A", false).unwrap(), vec![a]);
        let deep = db.extent("A", true).unwrap();
        assert!(deep.contains(&a) && deep.contains(&b));
        assert_eq!(db.extent("B", true).unwrap(), vec![b]);
    }

    #[test]
    fn indexed_attr_lookup_and_update() {
        let db = taxo_db();
        let s1 = db
            .create_object(
                "Specimen",
                attrs(&[("code", "RBGE-1".into()), ("year", Value::Int(1753))]),
            )
            .unwrap();
        let s2 = db
            .create_object(
                "Specimen",
                attrs(&[("code", "RBGE-2".into()), ("year", Value::Int(1821))]),
            )
            .unwrap();
        assert_eq!(
            db.find_by_attr("Specimen", "code", &"RBGE-1".into())
                .unwrap(),
            vec![s1]
        );
        let range = db
            .find_by_attr_range("Specimen", "year", &Value::Int(1800), &Value::Int(1900))
            .unwrap();
        assert_eq!(range, vec![s2]);
        // Update moves the index entry.
        db.set_attr(s1, "code", "RBGE-9").unwrap();
        assert!(db
            .find_by_attr("Specimen", "code", &"RBGE-1".into())
            .unwrap()
            .is_empty());
        assert_eq!(
            db.find_by_attr("Specimen", "code", &"RBGE-9".into())
                .unwrap(),
            vec![s1]
        );
        // Delete removes it.
        db.delete_object(s1).unwrap();
        assert!(db
            .find_by_attr("Specimen", "code", &"RBGE-9".into())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn relationship_crud_and_endpoint_indexes() {
        let db = taxo_db();
        let genus = db
            .create_object("Taxon", attrs(&[("name", "Apium".into())]))
            .unwrap();
        let species = db
            .create_object("Taxon", attrs(&[("name", "graveolens".into())]))
            .unwrap();
        let rel = db
            .create_relationship("Circumscribes", genus, species, attrs(&[]))
            .unwrap();
        assert_eq!(db.rels_from(genus, None).unwrap().len(), 1);
        assert_eq!(
            db.rels_to(species, Some("Circumscribes")).unwrap()[0].oid,
            rel
        );
        db.delete_relationship(rel).unwrap();
        assert!(db.rels_from(genus, None).unwrap().is_empty());
        assert!(db.rel(rel).is_err());
    }

    #[test]
    fn endpoint_class_conformance_enforced() {
        let db = taxo_db();
        let s = db
            .create_object("Specimen", attrs(&[("code", "X".into())]))
            .unwrap();
        let t = db
            .create_object("Taxon", attrs(&[("name", "T".into())]))
            .unwrap();
        // Cites requires Taxon -> Taxon.
        let err = db
            .create_relationship("Cites", s, t, attrs(&[]))
            .unwrap_err();
        assert!(matches!(err, DbError::EndpointMismatch { .. }));
    }

    #[test]
    fn exclusivity_enforced() {
        let db = taxo_db();
        db.define_relationship(
            RelClassDef::association("HasHolotype", "Taxon", "Specimen").exclusive(),
        )
        .unwrap();
        let t1 = db
            .create_object("Taxon", attrs(&[("name", "A".into())]))
            .unwrap();
        let t2 = db
            .create_object("Taxon", attrs(&[("name", "B".into())]))
            .unwrap();
        let s = db
            .create_object("Specimen", attrs(&[("code", "S".into())]))
            .unwrap();
        db.create_relationship("HasHolotype", t1, s, attrs(&[]))
            .unwrap();
        let err = db
            .create_relationship("HasHolotype", t2, s, attrs(&[]))
            .unwrap_err();
        assert!(matches!(err, DbError::ExclusivityViolation { .. }));
    }

    #[test]
    fn sharability_enforced_for_aggregations() {
        let db = temp_db();
        db.define_class(ClassDef::new("Whole")).unwrap();
        db.define_class(ClassDef::new("Part")).unwrap();
        db.define_relationship(RelClassDef::aggregation("Owns", "Whole", "Part"))
            .unwrap();
        let w1 = db.create_object("Whole", attrs(&[])).unwrap();
        let w2 = db.create_object("Whole", attrs(&[])).unwrap();
        let p = db.create_object("Part", attrs(&[])).unwrap();
        db.create_relationship("Owns", w1, p, attrs(&[])).unwrap();
        let err = db
            .create_relationship("Owns", w2, p, attrs(&[]))
            .unwrap_err();
        assert!(matches!(err, DbError::SharabilityViolation { .. }));
    }

    #[test]
    fn sharable_aggregation_allows_sharing() {
        let db = taxo_db(); // Circumscribes is sharable
        let t1 = db
            .create_object("Taxon", attrs(&[("name", "A".into())]))
            .unwrap();
        let t2 = db
            .create_object("Taxon", attrs(&[("name", "B".into())]))
            .unwrap();
        let s = db
            .create_object("Specimen", attrs(&[("code", "S".into())]))
            .unwrap();
        db.create_relationship("Circumscribes", t1, s, attrs(&[]))
            .unwrap();
        // The same specimen may be circumscribed by another taxon — this is
        // the multiple-classification requirement.
        db.create_relationship("Circumscribes", t2, s, attrs(&[]))
            .unwrap();
        assert_eq!(db.rels_to(s, Some("Circumscribes")).unwrap().len(), 2);
    }

    #[test]
    fn cardinality_enforced_on_both_sides() {
        let db = temp_db();
        db.define_class(ClassDef::new("N")).unwrap();
        db.define_relationship(
            RelClassDef::association("Narrow", "N", "N")
                .origin_cardinality(Cardinality {
                    min: 0,
                    max: Some(2),
                })
                .destination_cardinality(Cardinality::OPTIONAL),
        )
        .unwrap();
        let a = db.create_object("N", attrs(&[])).unwrap();
        let b = db.create_object("N", attrs(&[])).unwrap();
        let c = db.create_object("N", attrs(&[])).unwrap();
        let d = db.create_object("N", attrs(&[])).unwrap();
        db.create_relationship("Narrow", a, b, attrs(&[])).unwrap();
        db.create_relationship("Narrow", a, c, attrs(&[])).unwrap();
        let err = db
            .create_relationship("Narrow", a, d, attrs(&[]))
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::CardinalityViolation { side: "origin", .. }
        ));
        let err = db
            .create_relationship("Narrow", c, b, attrs(&[]))
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::CardinalityViolation {
                side: "destination",
                ..
            }
        ));
    }

    #[test]
    fn acyclicity_enforced() {
        let db = temp_db();
        db.define_class(ClassDef::new("N")).unwrap();
        db.define_relationship(RelClassDef::aggregation("Contains", "N", "N").sharable(true))
            .unwrap();
        let a = db.create_object("N", attrs(&[])).unwrap();
        let b = db.create_object("N", attrs(&[])).unwrap();
        let c = db.create_object("N", attrs(&[])).unwrap();
        db.create_relationship("Contains", a, b, attrs(&[]))
            .unwrap();
        db.create_relationship("Contains", b, c, attrs(&[]))
            .unwrap();
        let err = db
            .create_relationship("Contains", c, a, attrs(&[]))
            .unwrap_err();
        assert!(matches!(err, DbError::CycleViolation { .. }));
        let err = db
            .create_relationship("Contains", a, a, attrs(&[]))
            .unwrap_err();
        assert!(matches!(err, DbError::CycleViolation { .. }));
    }

    #[test]
    fn constant_relationship_protected() {
        let db = temp_db();
        db.define_class(ClassDef::new("N")).unwrap();
        db.define_relationship(RelClassDef::association("Fixed", "N", "N").constant())
            .unwrap();
        let a = db.create_object("N", attrs(&[])).unwrap();
        let b = db.create_object("N", attrs(&[])).unwrap();
        let rel = db.create_relationship("Fixed", a, b, attrs(&[])).unwrap();
        let err = db.delete_relationship(rel).unwrap_err();
        assert!(matches!(err, DbError::ConstancyViolation { .. }));
        // Deleting an endpoint cascades through the constant relationship.
        db.delete_object(a).unwrap();
        assert!(db.rel(rel).is_err());
    }

    #[test]
    fn lifetime_dependency_cascades() {
        let db = temp_db();
        db.define_class(ClassDef::new("Whole")).unwrap();
        db.define_class(ClassDef::new("Part")).unwrap();
        db.define_relationship(RelClassDef::aggregation("Owns", "Whole", "Part").dependent())
            .unwrap();
        let w = db.create_object("Whole", attrs(&[])).unwrap();
        let p = db.create_object("Part", attrs(&[])).unwrap();
        db.create_relationship("Owns", w, p, attrs(&[])).unwrap();
        db.delete_object(w).unwrap();
        assert!(
            !db.exists(p),
            "dependent part must be deleted with its whole"
        );
    }

    #[test]
    fn delete_object_detaches_relationships() {
        let db = taxo_db();
        let t = db
            .create_object("Taxon", attrs(&[("name", "T".into())]))
            .unwrap();
        let s = db
            .create_object("Specimen", attrs(&[("code", "S".into())]))
            .unwrap();
        let rel = db
            .create_relationship("Circumscribes", t, s, attrs(&[]))
            .unwrap();
        db.delete_object(t).unwrap();
        assert!(db.rel(rel).is_err());
        assert!(db.exists(s), "sharable, non-dependent part survives");
        assert!(db.rels_to(s, None).unwrap().is_empty());
    }

    #[test]
    fn attribute_inheritance_from_relationships() {
        let db = temp_db();
        db.define_class(ClassDef::new("Person").attr(AttrDef::required("name", Type::Str)))
            .unwrap();
        db.define_relationship(
            RelClassDef::association("Wedding", "Person", "Person")
                .attr(AttrDef::optional("weddingDate", Type::Date))
                .inherits("weddingDate"),
        )
        .unwrap();
        let a = db
            .create_object("Person", attrs(&[("name", "A".into())]))
            .unwrap();
        let b = db
            .create_object("Person", attrs(&[("name", "B".into())]))
            .unwrap();
        let date = crate::value::Date::new(2001, 12, 4);
        db.create_relationship("Wedding", a, b, attrs(&[("weddingDate", date.into())]))
            .unwrap();
        // The destination inherits the relationship attribute (ADAM roles).
        assert_eq!(db.attr_of(b, "weddingDate").unwrap(), Value::Date(date));
        // The origin does not (inheritance targets the destination).
        assert_eq!(db.attr_of(a, "weddingDate").unwrap(), Value::Null);
    }

    #[test]
    fn ambiguous_inherited_attr_is_error() {
        let db = temp_db();
        db.define_class(ClassDef::new("P")).unwrap();
        db.define_relationship(
            RelClassDef::association("R", "P", "P")
                .attr(AttrDef::optional("w", Type::Int))
                .inherits("w"),
        )
        .unwrap();
        let a = db.create_object("P", attrs(&[])).unwrap();
        let b = db.create_object("P", attrs(&[])).unwrap();
        let c = db.create_object("P", attrs(&[])).unwrap();
        db.create_relationship("R", a, c, attrs(&[("w", Value::Int(1))]))
            .unwrap();
        db.create_relationship("R", b, c, attrs(&[("w", Value::Int(2))]))
            .unwrap();
        assert!(matches!(
            db.attr_of(c, "w").unwrap_err(),
            DbError::AmbiguousInheritedAttr { .. }
        ));
    }

    #[test]
    fn synonyms_declare_and_query() {
        let db = taxo_db();
        let a = db
            .create_object("Specimen", attrs(&[("code", "A".into())]))
            .unwrap();
        let b = db
            .create_object("Specimen", attrs(&[("code", "B".into())]))
            .unwrap();
        assert!(!db.same_instance(a, b));
        db.declare_synonym(a, b).unwrap();
        assert!(db.same_instance(a, b));
        assert_eq!(db.synonym_set(a).len(), 2);
        // Deleting one member dissolves it from the set.
        db.delete_object(a).unwrap();
        assert_eq!(db.synonym_set(b).len(), 1);
    }

    #[test]
    fn classification_membership_and_strictness() {
        let db = taxo_db();
        let cls = db
            .create_classification("Linnaeus 1753", attrs(&[]), true)
            .unwrap();
        let g = db
            .create_object("Taxon", attrs(&[("name", "Apium".into())]))
            .unwrap();
        let s1 = db
            .create_object("Taxon", attrs(&[("name", "graveolens".into())]))
            .unwrap();
        let g2 = db
            .create_object("Taxon", attrs(&[("name", "Helio".into())]))
            .unwrap();
        let e1 = db
            .create_relationship("Circumscribes", g, s1, attrs(&[]))
            .unwrap();
        db.add_edge_to_classification(cls, e1).unwrap();
        assert!(db.edge_in_classification(cls, e1));
        // Second parent for s1 in the same classification is rejected.
        let e2 = db
            .create_relationship("Circumscribes", g2, s1, attrs(&[]))
            .unwrap();
        let err = db.add_edge_to_classification(cls, e2).unwrap_err();
        assert!(matches!(err, DbError::Classification(_)));
        // But a different classification may hold it: overlap.
        let cls2 = db
            .create_classification("Koch 1824", attrs(&[]), true)
            .unwrap();
        db.add_edge_to_classification(cls2, e2).unwrap();
        assert_eq!(db.classifications_of_edge(e2).unwrap(), vec![cls2]);
        db.remove_edge_from_classification(cls2, e2).unwrap();
        assert!(!db.edge_in_classification(cls2, e2));
    }

    #[test]
    fn deleting_relationship_leaves_classifications() {
        let db = taxo_db();
        let cls = db.create_classification("C", attrs(&[]), true).unwrap();
        let a = db
            .create_object("Taxon", attrs(&[("name", "a".into())]))
            .unwrap();
        let b = db
            .create_object("Taxon", attrs(&[("name", "b".into())]))
            .unwrap();
        let e = db
            .create_relationship("Circumscribes", a, b, attrs(&[]))
            .unwrap();
        db.add_edge_to_classification(cls, e).unwrap();
        db.delete_relationship(e).unwrap();
        assert!(db.classification_edges(cls).unwrap().is_empty());
    }

    #[test]
    fn unit_abort_rolls_back_everything() {
        let db = taxo_db();
        let pre_existing = db
            .create_object("Taxon", attrs(&[("name", "Keep".into())]))
            .unwrap();
        let token = db.begin_unit();
        let t = db
            .create_object("Taxon", attrs(&[("name", "Gone".into())]))
            .unwrap();
        let s = db
            .create_object("Specimen", attrs(&[("code", "Gone".into())]))
            .unwrap();
        let rel = db
            .create_relationship("Circumscribes", t, s, attrs(&[]))
            .unwrap();
        db.set_attr(pre_existing, "name", "Renamed").unwrap();
        let cls = db
            .create_classification("Scratch", attrs(&[]), true)
            .unwrap();
        db.add_edge_to_classification(cls, rel).unwrap();
        db.abort_unit(token);
        assert!(!db.exists(t));
        assert!(!db.exists(s));
        assert!(!db.exists(rel));
        assert!(!db.exists(cls));
        assert_eq!(
            db.object(pre_existing).unwrap().attr("name"),
            Value::from("Keep")
        );
        // Indexes rolled back too.
        assert!(db
            .find_by_attr("Taxon", "name", &"Gone".into())
            .unwrap()
            .is_empty());
        assert_eq!(
            db.find_by_attr("Taxon", "name", &"Keep".into()).unwrap(),
            vec![pre_existing]
        );
    }

    #[test]
    fn unit_commit_keeps_changes() {
        let db = taxo_db();
        let token = db.begin_unit();
        let t = db
            .create_object("Taxon", attrs(&[("name", "Stay".into())]))
            .unwrap();
        db.commit_unit(token).unwrap();
        assert!(db.exists(t));
        assert!(!db.in_unit());
    }

    #[test]
    fn nested_units_commit_with_outermost() {
        let db = taxo_db();
        let outer = db.begin_unit();
        let t1 = db
            .create_object("Taxon", attrs(&[("name", "one".into())]))
            .unwrap();
        let inner = db.begin_unit();
        let t2 = db
            .create_object("Taxon", attrs(&[("name", "two".into())]))
            .unwrap();
        db.commit_unit(inner).unwrap();
        assert!(db.in_unit(), "outer unit still active");
        db.abort_unit(outer);
        assert!(
            !db.exists(t1) && !db.exists(t2),
            "abort undoes nested work too"
        );
    }

    #[test]
    fn unit_rollback_restores_deleted_object_with_relationships() {
        let db = taxo_db();
        let t = db
            .create_object("Taxon", attrs(&[("name", "T".into())]))
            .unwrap();
        let s = db
            .create_object("Specimen", attrs(&[("code", "S".into())]))
            .unwrap();
        let rel = db
            .create_relationship("Circumscribes", t, s, attrs(&[]))
            .unwrap();
        let cls = db.create_classification("C", attrs(&[]), true).unwrap();
        db.add_edge_to_classification(cls, rel).unwrap();
        let token = db.begin_unit();
        db.delete_object(t).unwrap();
        assert!(!db.exists(rel));
        db.abort_unit(token);
        assert!(db.exists(t));
        assert!(db.exists(rel), "incident relationship restored");
        assert!(
            db.edge_in_classification(cls, rel),
            "classification membership restored"
        );
        assert_eq!(
            db.rels_to(s, None).unwrap().len(),
            1,
            "endpoint index restored"
        );
    }

    struct VetoCreate;
    impl EventListener for VetoCreate {
        fn before(&self, _db: &Database, event: &Event) -> DbResult<()> {
            if matches!(event, Event::ObjectCreated { class, .. } if class == "Taxon") {
                return Err(DbError::Vetoed {
                    rule: "no-taxa".into(),
                    reason: "blocked".into(),
                });
            }
            Ok(())
        }
    }

    #[test]
    fn pre_listener_vetoes_creation() {
        let db = taxo_db();
        db.add_listener(Arc::new(VetoCreate));
        let err = db
            .create_object("Taxon", attrs(&[("name", "X".into())]))
            .unwrap_err();
        assert!(matches!(err, DbError::Vetoed { .. }));
        assert!(db.extent("Taxon", false).unwrap().is_empty());
        // Other classes unaffected.
        assert!(db
            .create_object("Specimen", attrs(&[("code", "ok".into())]))
            .is_ok());
    }

    struct FailAtCommit;
    impl EventListener for FailAtCommit {
        fn at_commit(&self, _db: &Database, events: &[Event]) -> DbResult<()> {
            if events
                .iter()
                .any(|e| matches!(e, Event::ObjectCreated { class, .. } if class == "Taxon"))
            {
                return Err(DbError::ConstraintViolation {
                    rule: "deferred".into(),
                    reason: "no taxa allowed".into(),
                });
            }
            Ok(())
        }
    }

    #[test]
    fn deferred_failure_rolls_back_unit() {
        let db = taxo_db();
        db.add_listener(Arc::new(FailAtCommit));
        let token = db.begin_unit();
        let t = db
            .create_object("Taxon", attrs(&[("name", "X".into())]))
            .unwrap();
        assert!(db.exists(t), "visible inside the unit");
        let err = db.commit_unit(token).unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
        assert!(!db.exists(t), "rolled back at deferred-constraint failure");
    }

    /// Vetoes the second `RelDeleted` it sees.
    #[derive(Default)]
    struct VetoSecondRelDelete(std::sync::atomic::AtomicU32);
    impl EventListener for VetoSecondRelDelete {
        fn before(&self, _db: &Database, event: &Event) -> DbResult<()> {
            use std::sync::atomic::Ordering::SeqCst;
            if matches!(event, Event::RelDeleted { .. }) && self.0.fetch_add(1, SeqCst) == 1 {
                return Err(DbError::Vetoed {
                    rule: "second-delete".into(),
                    reason: "blocked".into(),
                });
            }
            Ok(())
        }
    }

    /// An operation vetoed halfway through its cascade undoes exactly
    /// itself: the edge its cascade had deleted is back, the unit stays
    /// open, and its commit keeps the operations on either side.
    #[test]
    fn a_vetoed_op_undoes_exactly_itself_and_its_unit_stays_open() {
        let db = taxo_db();
        let t = db
            .create_object("Taxon", attrs(&[("name", "T".into())]))
            .unwrap();
        let edges: Vec<Oid> = ["S1", "S2"]
            .iter()
            .map(|code| {
                let s = db
                    .create_object("Specimen", attrs(&[("code", (*code).into())]))
                    .unwrap();
                db.create_relationship("Circumscribes", t, s, attrs(&[]))
                    .unwrap()
            })
            .collect();
        db.add_listener(Arc::new(VetoSecondRelDelete::default()));
        let token = db.begin_unit();
        let first = db
            .create_object("Taxon", attrs(&[("name", "First".into())]))
            .unwrap();
        let err = db.delete_object(t).unwrap_err();
        assert!(matches!(err, DbError::Vetoed { .. }), "{err}");
        assert!(db.in_unit(), "the unit stays open");
        assert!(db.exists(t) && edges.iter().all(|&r| db.exists(r)));
        assert_eq!(db.rels_from(t, None).unwrap().len(), 2);
        let last = db
            .create_object("Taxon", attrs(&[("name", "Last".into())]))
            .unwrap();
        db.commit_unit(token).unwrap();
        for oid in [t, first, last].into_iter().chain(edges) {
            assert!(db.exists(oid), "{oid} committed");
        }
        assert_eq!(db.rels_from(t, None).unwrap().len(), 2);
    }

    /// The events a deferred listener is handed at commit.
    #[derive(Default)]
    struct SeenAtCommit(Mutex<Vec<Event>>);
    impl EventListener for SeenAtCommit {
        fn at_commit(&self, _db: &Database, events: &[Event]) -> DbResult<()> {
            self.0.lock().extend_from_slice(events);
            Ok(())
        }
    }

    /// Aborting a nested unit undoes its writes, definitions and events
    /// and nothing else: the enclosing unit stays open and commits its own.
    #[test]
    fn aborting_a_nested_unit_undoes_only_its_work() {
        let db = taxo_db();
        let seen = Arc::new(SeenAtCommit::default());
        db.add_listener(seen.clone());
        let outer = db.begin_unit();
        let t1 = db
            .create_object("Taxon", attrs(&[("name", "one".into())]))
            .unwrap();
        let inner = db.begin_unit();
        let t2 = db
            .create_object("Taxon", attrs(&[("name", "two".into())]))
            .unwrap();
        db.set_attr(t1, "rank", "Genus").unwrap();
        db.define_class(ClassDef::new("Nested")).unwrap();
        db.abort_unit(inner);
        assert!(db.in_unit(), "outer unit still active");
        assert!(db.exists(t1) && !db.exists(t2));
        assert_eq!(db.object(t1).unwrap().attr("rank"), Value::Null);
        assert!(db.with_schema(|s| s.class("Nested").is_none()));
        db.commit_unit(outer).unwrap();
        assert!(db.exists(t1) && !db.exists(t2));
        let subjects: Vec<Oid> = seen.0.lock().iter().map(Event::subject).collect();
        assert_eq!(subjects, vec![t1]);
    }

    #[test]
    fn schema_defined_in_an_aborted_unit_is_gone() {
        let db = taxo_db();
        let token = db.begin_unit();
        db.define_class(ClassDef::new("Ghost")).unwrap();
        db.define_relationship(RelClassDef::association("Haunts", "Ghost", "Taxon"))
            .unwrap();
        let ghost = db.create_object("Ghost", attrs(&[])).unwrap();
        db.abort_unit(token);
        let gone = |db: &Database| {
            db.with_schema(|s| s.class("Ghost").is_none() && s.rel_class("Haunts").is_none())
        };
        assert!(gone(&db));
        assert!(db.with_schema(|s| s.class("Taxon").is_some()));
        assert!(!db.exists(ghost));
        let live = store_contents(&db);
        let path = db.store().path().to_path_buf();
        drop(db);
        let db = open_at(&path, StoreOptions::default());
        assert!(gone(&db));
        assert_eq!(live, store_contents(&db));
        let _ = std::fs::remove_file(path);
    }

    /// What a thread with no unit bound reads about `oids`: each entity,
    /// its `code` and its incident edges, then the `Specimen` code index and
    /// extent.
    fn seen_elsewhere(db: &Database, oids: &[Oid]) -> String {
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!db.in_unit(), "a thread of its own has no unit bound");
                let mut seen = String::new();
                for &oid in oids {
                    seen += &format!(
                        "{oid}: {:?} code {:?}, {:?} out, {:?} in\n",
                        db.object(oid).ok(),
                        db.attr_of(oid, "code").ok(),
                        db.rels_from(oid, None).map(|r| r.len()).ok(),
                        db.rels_to(oid, None).map(|r| r.len()).ok(),
                    );
                }
                for code in ["Kept", "Renamed", "New", "Fresh"] {
                    let found = db.find_by_attr("Specimen", "code", &code.into());
                    seen += &format!("{code}: {:?}\n", found.unwrap());
                }
                seen + &format!("extent {:?}", db.extent("Specimen", false).unwrap())
            })
            .join()
            .unwrap()
        })
    }

    /// No dirty reads. While a unit is open, a thread with no unit bound
    /// sees the pre-unit state through every read — right after each of the
    /// unit's writes too, since they stay in the unit's overlay — while the
    /// unit reads its own writes. After an abort the other thread reads the
    /// committed state; after a commit it sees the unit's writes.
    #[test]
    fn unbound_reads_see_no_open_unit() {
        for commit in [false, true] {
            let db = taxo_db();
            let taxon = db
                .create_object("Taxon", attrs(&[("name", "T".into())]))
                .unwrap();
            let kept = db
                .create_object("Specimen", attrs(&[("code", "Kept".into())]))
                .unwrap();
            let cached = db.object(kept).unwrap();
            let pre = seen_elsewhere(&db, &[taxon, kept]);
            let invisible = |db: &Database, oid: Oid| {
                std::thread::scope(|s| s.spawn(|| !db.exists(oid)).join().unwrap())
            };
            let token = db.begin_unit();
            let new = db
                .create_object("Specimen", attrs(&[("code", "New".into())]))
                .unwrap();
            assert_eq!(seen_elsewhere(&db, &[taxon, kept]), pre);
            assert!(invisible(&db, new));
            db.set_attr(new, "code", "Fresh").unwrap();
            assert_eq!(seen_elsewhere(&db, &[taxon, kept]), pre);
            db.set_attr(kept, "code", "Renamed").unwrap();
            assert_eq!(seen_elsewhere(&db, &[taxon, kept]), pre);
            let rel = db
                .create_relationship("Circumscribes", taxon, new, attrs(&[]))
                .unwrap();
            assert_eq!(seen_elsewhere(&db, &[taxon, kept]), pre);
            assert!(invisible(&db, new) && invisible(&db, rel));
            // The unit reads its own writes.
            assert_eq!(db.attr_of(kept, "code").unwrap(), Value::from("Renamed"));
            assert_eq!(
                db.find_by_attr("Specimen", "code", &"Fresh".into())
                    .unwrap(),
                vec![new]
            );
            assert_eq!(db.extent("Specimen", false).unwrap().len(), 2);
            assert_eq!(db.rels_to(new, None).unwrap()[0].oid, rel);
            if !commit {
                db.abort_unit(token);
                assert_eq!(seen_elsewhere(&db, &[taxon, kept]), pre);
                assert!(invisible(&db, new) && invisible(&db, rel));
                assert_eq!(db.object(kept).unwrap(), cached);
                continue;
            }
            db.commit_unit(token).unwrap();
            let after = seen_elsewhere(&db, &[taxon, kept, new]);
            for part in [
                "code Some(Str(\"Renamed\"))",
                "Fresh: [#",
                "Some(1) out",
                "Some(1) in",
            ] {
                assert!(after.contains(part), "{part} in {after}");
            }
            assert!(!invisible(&db, rel));
        }
    }

    /// A `Database` read decodes the record of the state it reads — the
    /// bound unit's overlay, else the published image — every time: no
    /// decoded entity is kept anywhere to answer a later read. So `n` reads
    /// count `n` decodes inside a unit and out, the unit reads its staged
    /// write, and another thread reads the committed record after an abort
    /// and the unit's after a commit.
    #[test]
    fn a_read_decodes_from_the_image_it_reads() {
        let db = taxo_db();
        let oid = db
            .create_object("Taxon", attrs(&[("name", "Apium".into())]))
            .unwrap();
        let decodes = |n: u64| {
            let before = db.store().stats().snapshot().cache_misses;
            for _ in 0..n {
                db.object(oid).unwrap();
            }
            db.store().stats().snapshot().cache_misses - before
        };
        let name_elsewhere = |db: &Database| {
            std::thread::scope(|s| s.spawn(|| db.attr_of(oid, "name").unwrap()).join()).unwrap()
        };
        assert_eq!(decodes(5), 5);
        for commit in [false, true] {
            let token = db.begin_unit();
            db.set_attr(oid, "name", "Daucus").unwrap();
            assert_eq!(decodes(5), 5);
            assert_eq!(db.attr_of(oid, "name").unwrap(), Value::from("Daucus"));
            assert_eq!(name_elsewhere(&db), Value::from("Apium"));
            if commit {
                db.commit_unit(token).unwrap();
                assert_eq!(name_elsewhere(&db), Value::from("Daucus"));
            } else {
                db.abort_unit(token);
                assert_eq!(name_elsewhere(&db), Value::from("Apium"));
            }
        }
        assert_eq!(decodes(3), 3);
    }

    /// The synonym twin of `unbound_reads_see_no_open_unit`: a synonymy a
    /// unit declares is the unit's until it commits. Another thread and a
    /// view pinned mid-unit see the instances apart, and after an abort so
    /// does everyone; after a commit, a fresh view sees them as one.
    #[test]
    fn an_open_units_synonyms_are_invisible_outside_it() {
        for commit in [false, true] {
            let db = taxo_db();
            let specimen = |code: &str| {
                db.create_object("Specimen", attrs(&[("code", code.into())]))
                    .unwrap()
            };
            let (a, b) = (specimen("A"), specimen("B"));
            let elsewhere = |db: &Database| {
                std::thread::scope(|s| {
                    s.spawn(|| (db.same_instance(a, b), db.synonym_set(a).len()))
                        .join()
                        .unwrap()
                })
            };
            let token = db.begin_unit();
            db.declare_synonym(a, b).unwrap();
            assert!(db.same_instance(a, b), "the unit reads its own");
            let view = db.read_view();
            assert_eq!(elsewhere(&db), (false, 1));
            assert!(!view.same_instance(a, b));
            if !commit {
                db.abort_unit(token);
                assert!(!db.same_instance(a, b));
                assert_eq!(elsewhere(&db), (false, 1));
                continue;
            }
            db.commit_unit(token).unwrap();
            assert!(!view.same_instance(a, b));
            assert_eq!(elsewhere(&db), (true, 2));
            assert!(db.read_view().same_instance(a, b));
        }
    }

    /// A unit is one storage transaction. A 64-op unit on one shard commits
    /// once, syncs once and publishes once, and its log group is `UnitBegin
    /// · Begin · the ops' records · Commit · UnitEnd`; an aborted unit
    /// appends nothing and publishes nothing; a unit over two shards writes
    /// one group on each, prepares on each and decides once.
    #[test]
    fn a_unit_is_one_storage_transaction() {
        use prometheus_storage::log::{self, LogRecord};
        fn frames(db: &Database, shard: usize) -> Vec<LogRecord> {
            let scan = log::scan(db.store().shard(shard).path()).unwrap();
            scan.frames.into_iter().map(|f| f.record).collect()
        }
        fn kinds(records: &[LogRecord]) -> Vec<&'static str> {
            let kind = |record: &LogRecord| match record {
                LogRecord::UnitBegin { .. } => "unit",
                LogRecord::Begin { .. } => "begin",
                LogRecord::Commit { .. } => "commit",
                LogRecord::UnitPrepared { .. } => "prepared",
                LogRecord::UnitDecision {
                    committed: true, ..
                } => "decided",
                LogRecord::UnitEnd {
                    committed: true, ..
                } => "sealed",
                LogRecord::Put { .. }
                | LogRecord::Delete { .. }
                | LogRecord::KvPut { .. }
                | LogRecord::KvDelete { .. } => "write",
                _ => "other",
            };
            records.iter().map(kind).collect()
        }
        /// `UnitBegin · Begin · writes · Commit`, the 2PC marks, `UnitEnd`.
        fn group(writes: usize, marks: &[&'static str]) -> Vec<&'static str> {
            let mut group = vec!["unit", "begin"];
            group.extend(std::iter::repeat_n("write", writes));
            group.push("commit");
            group.extend(marks);
            group.push("sealed");
            group
        }
        let run_unit = |db: &Database, commit: bool| {
            let before = db.store().stats_aggregate();
            let token = db.begin_unit();
            for i in 0..64 {
                let code = Value::from(format!("S{i}"));
                db.create_object("Specimen", attrs(&[("code", code)]))
                    .unwrap();
            }
            match commit {
                true => db.commit_unit(token).unwrap(),
                false => db.abort_unit(token),
            }
            db.store().stats_aggregate().since(&before)
        };
        let specimen =
            || ClassDef::new("Specimen").attr(AttrDef::required("code", Type::Str).indexed());

        let path = temp_path("one-shard");
        let db = open_at(&path, StoreOptions::default());
        db.define_class(specimen()).unwrap();
        let logged = frames(&db, 0).len();
        let d = run_unit(&db, true);
        assert_eq!(
            (d.commits, d.syncs, d.snapshot_swaps, d.puts),
            (1, 1, 1, 64)
        );
        // Each creation writes its record, its extent entry and its code.
        assert_eq!(kinds(&frames(&db, 0)[logged..]), group(64 * 3, &[]));
        let logged = frames(&db, 0).len();
        let d = run_unit(&db, false);
        assert_eq!(
            (d.log_appends, d.commits, d.syncs, d.snapshot_swaps),
            (0, 0, 0, 0)
        );
        assert_eq!(
            frames(&db, 0).len(),
            logged,
            "an aborted unit appends nothing"
        );
        drop(db);
        let _ = std::fs::remove_file(&path);

        let path = temp_path("two-shards");
        let options = StoreOptions {
            sync_on_commit: false,
        };
        let store = ShardedStore::open_with(&path, options, 2, index::shard_routing()).unwrap();
        let db = Database::open_sharded(Arc::new(store)).unwrap();
        db.define_class(specimen()).unwrap();
        let logged = [frames(&db, 0).len(), frames(&db, 1).len()];
        let d = run_unit(&db, true);
        assert_eq!((d.commits, d.units_2pc, d.puts), (2, 1, 64));
        let groups = [&frames(&db, 0)[logged[0]..], &frames(&db, 1)[logged[1]..]];
        let writes: Vec<usize> = groups
            .iter()
            .map(|g| kinds(g).iter().filter(|k| **k == "write").count())
            .collect();
        assert_eq!(writes.iter().sum::<usize>(), 64 * 3);
        assert_eq!(kinds(groups[0]), group(writes[0], &["prepared", "decided"]));
        assert_eq!(kinds(groups[1]), group(writes[1], &["prepared"]));
        drop(db);
        for path in [
            path.clone(),
            path.with_extension("shard1.log"),
            path.with_extension("shards"),
        ] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn min_cardinality_validation_is_deferred() {
        let db = temp_db();
        db.define_class(ClassDef::new("Name")).unwrap();
        db.define_class(ClassDef::new("Type")).unwrap();
        // Every Name must eventually carry at least one HasType instance.
        db.define_relationship(
            RelClassDef::association("MustType", "Name", "Type")
                .origin_cardinality(Cardinality::at_least(1)),
        )
        .unwrap();
        let name = db.create_object("Name", attrs(&[])).unwrap();
        let problems = db.validate_min_cardinalities().unwrap();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("MustType"));
        let ty = db.create_object("Type", attrs(&[])).unwrap();
        db.create_relationship("MustType", name, ty, attrs(&[]))
            .unwrap();
        assert!(db.validate_min_cardinalities().unwrap().is_empty());
    }

    #[test]
    fn deep_copy_clones_exclusive_parts_and_shares_the_rest() {
        let db = temp_db();
        db.define_class(ClassDef::new("Car").attr(AttrDef::required("model", Type::Str)))
            .unwrap();
        db.define_class(ClassDef::new("Engine").attr(AttrDef::required("serial", Type::Str)))
            .unwrap();
        db.define_class(ClassDef::new("Manual")).unwrap();
        // Engine: exclusive part. Manual: sharable aggregation.
        db.define_relationship(RelClassDef::aggregation("HasEngine", "Car", "Engine"))
            .unwrap();
        db.define_relationship(
            RelClassDef::aggregation("HasManual", "Car", "Manual").sharable(true),
        )
        .unwrap();
        let car = db
            .create_object("Car", attrs(&[("model", "T".into())]))
            .unwrap();
        let engine = db
            .create_object("Engine", attrs(&[("serial", "E-1".into())]))
            .unwrap();
        let manual = db.create_object("Manual", attrs(&[])).unwrap();
        db.create_relationship("HasEngine", car, engine, attrs(&[]))
            .unwrap();
        db.create_relationship("HasManual", car, manual, attrs(&[]))
            .unwrap();

        let copy = db.deep_copy(car).unwrap();
        assert_ne!(copy, car);
        let copy_engine = db.rels_from(copy, Some("HasEngine")).unwrap()[0].destination;
        let copy_manual = db.rels_from(copy, Some("HasManual")).unwrap()[0].destination;
        assert_ne!(copy_engine, engine, "exclusive part must be cloned");
        assert_eq!(copy_manual, manual, "sharable part must be shared");
        assert_eq!(
            db.object(copy_engine).unwrap().attr("serial"),
            Value::from("E-1")
        );
        // The original is untouched.
        assert_eq!(db.rels_from(car, None).unwrap().len(), 2);
        // Copying is atomic: both objects exist, extents updated.
        assert_eq!(db.extent("Engine", false).unwrap().len(), 2);
        assert_eq!(db.extent("Manual", false).unwrap().len(), 1);
    }

    #[test]
    fn deep_copy_rolls_back_atomically_on_failure() {
        let db = temp_db();
        db.define_class(ClassDef::new("A")).unwrap();
        db.define_class(ClassDef::new("B")).unwrap();
        // Exclusive destination: the copy's second link to the same shared
        // associate is fine, but an exclusive association will conflict.
        db.define_relationship(RelClassDef::association("Only", "A", "B").exclusive())
            .unwrap();
        let a = db.create_object("A", attrs(&[])).unwrap();
        let b = db.create_object("B", attrs(&[])).unwrap();
        db.create_relationship("Only", a, b, attrs(&[])).unwrap();
        let before = db.extent("A", false).unwrap().len();
        // Copying re-links the association to the same (exclusive) B: error.
        let err = db.deep_copy(a).unwrap_err();
        assert!(matches!(err, DbError::ExclusivityViolation { .. }));
        assert_eq!(
            db.extent("A", false).unwrap().len(),
            before,
            "copy rolled back"
        );
    }

    #[test]
    fn persistence_across_reopen() {
        let path = std::env::temp_dir().join(format!(
            "prometheus-reopen-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let oid;
        let cls;
        {
            let db = open_at(&path, StoreOptions::default());
            db.define_class(
                ClassDef::new("Taxon").attr(AttrDef::required("name", Type::Str).indexed()),
            )
            .unwrap();
            db.define_relationship(RelClassDef::association("R", "Taxon", "Taxon"))
                .unwrap();
            oid = db
                .create_object("Taxon", attrs(&[("name", "Apium".into())]))
                .unwrap();
            cls = db.create_classification("C", attrs(&[]), true).unwrap();
        }
        let db = open_at(&path, StoreOptions::default());
        assert_eq!(db.object(oid).unwrap().attr("name"), Value::from("Apium"));
        assert_eq!(
            db.find_by_attr("Taxon", "name", &"Apium".into()).unwrap(),
            vec![oid]
        );
        assert_eq!(db.classification_meta(cls).unwrap().name, "C");
        assert!(db.with_schema(|s| s.rel_class("R").is_some()));
        let _ = std::fs::remove_file(path);
    }

    /// The writer queue: one FIFO of claims on shard masks, each granted
    /// whole once no claim ahead of it overlaps it.
    mod queue {
        use super::*;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::mpsc;
        use std::time::Duration;

        fn sharded_db(shards: usize) -> Database {
            let options = StoreOptions {
                sync_on_commit: false,
            };
            let path = temp_path("queue");
            let store =
                ShardedStore::open_with(&path, options, shards, index::shard_routing()).unwrap();
            Database::open_sharded(Arc::new(store)).unwrap()
        }

        /// Take the unit of a claim that must be granted, bound to no thread.
        fn take(db: &Database, claim: UnitClaim) -> UnitToken {
            db.take_unit(claim).ok().expect("the claim is granted")
        }

        /// A claim whose wake counts into `woken`.
        fn counted(db: &Database, mask: u64, woken: &Arc<AtomicU64>) -> UnitClaim {
            let woken = Arc::clone(woken);
            db.claim_unit_on(mask, move || {
                woken.fetch_add(1, Ordering::SeqCst);
            })
        }

        /// Wait until `n` claims cover shard 0.
        fn until_queued(db: &Database, n: u64) {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while db.claims_on(0) < n {
                assert!(std::time::Instant::now() < deadline, "never queued");
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        /// Eight blocking writers queued behind a held unit, in a known
        /// order, are granted in that order: none barges, however the
        /// scheduler wakes them.
        #[test]
        fn grants_follow_arrival_order() {
            let db = temp_db();
            let gate = take(&db, db.claim_unit_on(1, || {}));
            let order = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for i in 0..8u64 {
                    let (db, order) = (&db, &order);
                    s.spawn(move || {
                        let token = db.begin_unit_on(1);
                        order.lock().push(i);
                        // Hold briefly so a barging writer would have a window.
                        std::thread::sleep(Duration::from_millis(1));
                        db.commit_unit(token).unwrap();
                    });
                    // Draw the claims one at a time, so arrival order is known.
                    until_queued(db, i + 2);
                }
                db.commit_unit(gate).unwrap();
            });
            assert_eq!(*order.lock(), (0..8).collect::<Vec<u64>>());
            assert_eq!(db.claims_on(0), 0);
        }

        /// Claims on disjoint masks are held at the same time, each by a
        /// unit of its own.
        #[test]
        fn disjoint_claims_are_held_at_once() {
            let db = sharded_db(2);
            let first = take(&db, db.claim_unit_on(0b01, || {}));
            let second = db.claim_unit_on(0b10, || {});
            assert_eq!(second.ahead(), 0);
            let second = take(&db, second);
            assert_eq!((db.claims_on(0), db.claims_on(1)), (1, 1));
            db.commit_unit(first).unwrap();
            db.commit_unit(second).unwrap();
            // Blocking writers too: each thread opens its unit on its shard
            // while the other's is open. (Detached threads: a writer that
            // waited would fail the test, not hang it.)
            let db = Arc::new(db);
            let (tx, rx) = mpsc::channel();
            let release = Arc::new(std::sync::Barrier::new(3));
            let writers: Vec<_> = [0b01u64, 0b10]
                .into_iter()
                .map(|mask| {
                    let (db, tx, release) = (Arc::clone(&db), tx.clone(), Arc::clone(&release));
                    std::thread::spawn(move || {
                        let token = db.begin_unit_on(mask);
                        tx.send(()).unwrap();
                        release.wait();
                        db.commit_unit(token).unwrap();
                    })
                })
                .collect();
            for _ in 0..2 {
                rx.recv_timeout(Duration::from_secs(10)).unwrap();
            }
            assert_eq!((db.claims_on(0), db.claims_on(1)), (1, 1), "both held");
            release.wait();
            for writer in writers {
                writer.join().unwrap();
            }
        }

        /// A waiting claim holds none of its shards, yet a later claim on a
        /// shard it wants queues behind it: `{1}` behind a waiting `{0,1}`
        /// though shard 1 is free. Each is granted whole, in order.
        #[test]
        fn a_waiting_claim_is_not_barged_and_holds_nothing() {
            let db = sharded_db(2);
            let woken = Arc::new(AtomicU64::new(0));
            let head = take(&db, db.claim_unit_on(0b01, || {}));
            let both = counted(&db, 0b11, &woken);
            let later = counted(&db, 0b10, &woken);
            assert_eq!((both.ahead(), later.ahead()), (1, 1));
            assert!(!both.is_granted() && !later.is_granted());
            db.commit_unit(head).unwrap();
            assert!(both.is_granted() && !later.is_granted());
            assert_eq!(woken.load(Ordering::SeqCst), 1);
            let both = take(&db, both);
            assert!(!later.is_granted(), "the unit holds the claim");
            db.abort_unit(both);
            assert!(later.is_granted());
            assert_eq!(woken.load(Ordering::SeqCst), 2);
        }

        /// Cancelling a waiting claim frees its place; dropping a granted
        /// claim whose unit was never taken frees its shards. Either way
        /// the next claim is granted and woken, and no other wake runs.
        #[test]
        fn a_dropped_claim_frees_its_shards_and_wakes_the_next() {
            let db = temp_db();
            let (cancelled, next, last) = (
                Arc::new(AtomicU64::new(0)),
                Arc::new(AtomicU64::new(0)),
                Arc::new(AtomicU64::new(0)),
            );
            let head = take(&db, db.claim_unit_on(0, || {}));
            let waiting = counted(&db, 0, &cancelled);
            let granted_later = counted(&db, 0, &next);
            let behind = counted(&db, 0, &last);
            drop(waiting);
            assert_eq!(db.claims_on(0), 3);
            db.commit_unit(head).unwrap();
            assert!(granted_later.is_granted() && !behind.is_granted());
            assert_eq!(next.load(Ordering::SeqCst), 1);
            drop(granted_later);
            assert!(behind.is_granted());
            assert_eq!(last.load(Ordering::SeqCst), 1);
            assert_eq!(cancelled.load(Ordering::SeqCst), 0);
            drop(behind);
            assert_eq!(db.claims_on(0), 0);
        }

        /// A nested `begin_unit_on` from a thread bound to a unit shares
        /// that unit's claim: it neither queues behind the claims waiting
        /// for the unit nor adds one of its own.
        #[test]
        fn a_nested_unit_never_queues() {
            let db = Arc::new(temp_db());
            let (tx, rx) = mpsc::channel();
            // Detached: a nested unit that queued would wait forever.
            let nested = std::thread::spawn({
                let db = Arc::clone(&db);
                move || {
                    let outer = db.begin_unit();
                    let waiting = db.claim_unit_on(0, || {});
                    let inner = db.begin_unit_on(1);
                    tx.send(db.claims_on(0)).unwrap();
                    db.commit_unit(inner).unwrap();
                    db.commit_unit(outer).unwrap();
                    tx.send(waiting.is_granted() as u64).unwrap();
                }
            });
            let next = || rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(next(), Ok(2), "the nested unit queued");
            assert_eq!(next(), Ok(1), "the waiting claim follows the unit");
            nested.join().unwrap();
        }

        /// A holder that panics still releases: inside a unit, with a unit
        /// bound for a slice, or holding a granted claim.
        #[test]
        fn a_holder_that_panics_still_releases() {
            let db = temp_db();
            std::thread::scope(|s| {
                let db = &db;
                let scoped = s.spawn(|| db.in_unit_scope(|_| -> DbResult<()> { panic!("holder") }));
                assert!(scoped.join().is_err());
                assert_eq!(db.claims_on(0), 0);
                let token = take(db, db.claim_unit_on(0, || {}));
                let bound = s.spawn(move || db.with_unit_bound(&token, |_| panic!("slice")));
                assert!(bound.join().is_err());
                assert_eq!(db.claims_on(0), 0);
                let claim = db.claim_unit_on(0, || {});
                let held = s.spawn(move || {
                    let _claim = claim;
                    panic!("claim holder");
                });
                assert!(held.join().is_err());
                assert_eq!(db.claims_on(0), 0);
            });
            let token = db.begin_unit();
            db.commit_unit(token).unwrap();
        }
    }
}
