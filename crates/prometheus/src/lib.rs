//! # prometheus-db
//!
//! Facade crate for **Prometheus**, an extended object-oriented database for
//! multiple overlapping classifications — a from-scratch Rust reproduction
//! of the system in C. Raguenaud, *Managing complex taxonomic data in an
//! object-oriented database* (Napier University; published as the Prometheus
//! papers, SSDBM/BIBE 2000–2002).
//!
//! A [`Prometheus`] handle wires together:
//!
//! * the durable storage substrate (`prometheus-storage`),
//! * the object layer with first-class relationships, classifications,
//!   views, synonyms and units of work (`prometheus-object`),
//! * the POOL query language (`prometheus-pool`),
//! * the ECA rule engine and PCL (`prometheus-rules`),
//! * and, optionally, the Prometheus taxonomic model
//!   (`prometheus-taxonomy`).
//!
//! ```no_run
//! use prometheus_db::Prometheus;
//!
//! let p = Prometheus::open("flora.db").unwrap();
//! let tax = p.taxonomy().unwrap();
//! let cls = tax.new_classification("Linnaeus 1753", "L.", "habit").unwrap();
//! # let _ = cls;
//! let result = p.query("select t from CT t").unwrap();
//! println!("{} taxa", result.len());
//! ```

pub use prometheus_object::{
    classification, database, events, index, instance, schema, synonym, traversal, value, views,
};
pub use prometheus_object::{
    history_of, AttrDef, Cardinality, ClassDef, Classification, Database, Date, DbError, DbResult,
    Event, EventListener, HistoryEntry, HistoryRecorder, ObjectInstance, Oid, ReadView, Reader,
    RelClassDef, RelInstance, RelKind, SchemaRegistry, Store, StoreOptions, SynonymMode, Type,
    Value, View,
};
pub use prometheus_pool as pool;
pub use prometheus_pool::{QueryResult, Row};
pub use prometheus_rules as rules;
pub use prometheus_rules::{Action, Rule, RuleEngine, RuleKind, Timing};
pub use prometheus_storage as storage;
pub use prometheus_storage::{Stats, StatsSnapshot};
pub use prometheus_taxonomy as taxonomy;
pub use prometheus_taxonomy::{Rank, Taxonomy, TypeKind};
pub use prometheus_trace as trace;
pub use prometheus_trace::{Recorder, Stage, StageRollup, TraceEvent, TraceId, TraceScope};

use std::path::Path;
use std::sync::Arc;

/// One Prometheus database: storage + object layer + rules, with optional
/// taxonomic schema.
pub struct Prometheus {
    db: Arc<Database>,
    engine: Arc<RuleEngine>,
}

impl Prometheus {
    /// Open (or create) a database at `path` with default options.
    pub fn open(path: impl AsRef<Path>) -> DbResult<Prometheus> {
        Prometheus::open_with(path, StoreOptions::default())
    }

    /// Open with explicit storage options (e.g. `sync_on_commit: false` for
    /// benchmarking).
    pub fn open_with(path: impl AsRef<Path>, options: StoreOptions) -> DbResult<Prometheus> {
        Prometheus::open_sharded(path, options, 1)
    }

    /// Open with the OID space partitioned across `shards` member stores
    /// (1..=64). The count is fixed at creation (a `.shards` sidecar records
    /// it; reopening with a different count is refused). Units of work with
    /// disjoint shard claims commit in parallel, each through its own redo
    /// log; cross-shard units settle with a two-phase prepare/decide round.
    pub fn open_sharded(
        path: impl AsRef<Path>,
        options: StoreOptions,
        shards: usize,
    ) -> DbResult<Prometheus> {
        let store = Arc::new(prometheus_storage::ShardedStore::open_with(
            path,
            options,
            shards,
            prometheus_object::shard_routing(),
        )?);
        let db = Arc::new(Database::open_sharded(store)?);
        let engine = RuleEngine::install(&db)?;
        Ok(Prometheus { db, engine })
    }

    /// Open as a replication follower: a crash-left prepared-but-undecided
    /// 2PC tail is *not* settled locally (the primary's own resolution
    /// arrives through the replicated frame stream), keeping the local logs
    /// byte-identical to the primary's.
    pub fn open_follower(
        path: impl AsRef<Path>,
        options: StoreOptions,
        shards: usize,
    ) -> DbResult<Prometheus> {
        let store = Arc::new(prometheus_storage::ShardedStore::open_follower(
            path,
            options,
            shards,
            prometheus_object::shard_routing(),
        )?);
        let db = Arc::new(Database::open_sharded(store)?);
        let engine = RuleEngine::install(&db)?;
        Ok(Prometheus { db, engine })
    }

    /// The object-layer database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The rule engine.
    pub fn rules(&self) -> &Arc<RuleEngine> {
        &self.engine
    }

    /// Install one span [`Recorder`] across every layer this handle owns:
    /// the store (commit/fsync/compact spans) and the rule engine (rule
    /// firing). Embedders that also run a [`pool::Executor`] or a wire
    /// server share the same recorder with those, so a single ring holds a
    /// request's whole span tree.
    pub fn set_recorder(&self, recorder: Recorder) {
        self.db.store().set_recorder(recorder.clone());
        self.engine.set_recorder(recorder);
    }

    /// The store's installed recorder (disabled unless
    /// [`Prometheus::set_recorder`] was called).
    pub fn recorder(&self) -> Recorder {
        self.db.store().recorder()
    }

    /// Install (idempotently) the Prometheus taxonomic schema and return the
    /// taxonomy facade.
    pub fn taxonomy(&self) -> DbResult<Taxonomy> {
        Taxonomy::install(self.db.clone())
    }

    /// Install the taxonomic schema *and* the ICBN rule set (§7.1.3.2),
    /// adding only the ICBN rules the database does not hold yet.
    pub fn taxonomy_with_icbn(&self) -> DbResult<Taxonomy> {
        let tax = self.taxonomy()?;
        prometheus_taxonomy::icbn::install(&tax, &self.engine)?;
        Ok(tax)
    }

    /// Run a POOL query against the live database (sees the session's own
    /// open unit, if any).
    pub fn query(&self, pool: &str) -> DbResult<QueryResult> {
        prometheus_pool::query(&*self.db, pool)
    }

    /// Pin an immutable [`ReadView`] of the last committed state. Queries and
    /// traversals against the view never take the store mutex and are immune
    /// to concurrent writers: every read resolves from one snapshot.
    pub fn read_view(&self) -> ReadView {
        self.db.read_view()
    }

    /// Run a POOL query against a pinned snapshot (lock-free, consistent).
    pub fn query_snapshot(&self, pool: &str) -> DbResult<QueryResult> {
        prometheus_pool::query(&self.db.read_view(), pool)
    }

    /// Translate a PCL document and install the resulting rules, all in
    /// one unit: every rule or, if one fails, none.
    pub fn install_pcl(&self, pcl: &str) -> DbResult<usize> {
        let mut rules = prometheus_rules::pcl::translate(pcl)?.into_iter();
        let count = rules.len();
        self.unit(|db| rules.try_for_each(|rule| self.engine.add_rule(db, rule)))?;
        Ok(count)
    }

    /// Run `f` inside a unit of work (commit on `Ok`, roll back on `Err`).
    pub fn unit<T>(&self, f: impl FnOnce(&Database) -> DbResult<T>) -> DbResult<T> {
        self.db.in_unit_scope(f)
    }

    /// Compact the backing log, reclaiming space held by overwritten record
    /// versions. Safe at any quiescent point; state is unchanged.
    pub fn compact(&self) -> DbResult<()> {
        self.db.store().compact()?;
        Ok(())
    }

    /// Point-in-time storage I/O counters (log appends, bytes, syncs, cache
    /// behaviour, commits/aborts).
    ///
    /// This is the canonical counter surface: the wire server's `stats`
    /// request and the bench harness both read it instead of reaching through
    /// `db().store()`.
    pub fn stats(&self) -> StatsSnapshot {
        self.db.store().stats_aggregate()
    }

    /// Enable change-history recording (requirement 4 traceability): every
    /// committed event is journaled per subject; query with
    /// [`history_of`]. Call at most once per database.
    pub fn enable_history(&self) -> DbResult<std::sync::Arc<HistoryRecorder>> {
        HistoryRecorder::install(&self.db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "prometheus-facade-{name}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn open_query_and_pcl_round_trip() {
        let p = Prometheus::open_with(
            tmp("roundtrip"),
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        let tax = p.taxonomy().unwrap();
        let ct = tax.create_ct("Taxon 1", Rank::Genus).unwrap();
        let r = p.query("select t from CT t").unwrap();
        assert_eq!(r.oids(), vec![ct]);
        // PCL rule installation and enforcement.
        let n = p
            .install_pcl("context CT pre working: self.working_name != null")
            .unwrap();
        assert_eq!(n, 1);
        assert!(tax.create_ct("ok", Rank::Genus).is_ok());
    }

    #[test]
    fn stats_expose_storage_counters() {
        let p = Prometheus::open_with(
            tmp("stats"),
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        let before = p.stats();
        let tax = p.taxonomy().unwrap();
        tax.create_ct("counted", Rank::Genus).unwrap();
        let after = p.stats();
        let delta = after.since(&before);
        assert!(
            delta.commits >= 1,
            "facade stats must reflect store commits"
        );
        assert!(delta.puts >= 1);
        assert!(delta.bytes_written > 0);
    }

    #[test]
    fn taxonomy_with_icbn_installs_rules() {
        let p = Prometheus::open_with(
            tmp("icbn"),
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        let tax = p.taxonomy_with_icbn().unwrap();
        // Genus names must be capitalised per Figure 36.
        assert!(tax.create_nt("apium", Rank::Genus, 1753, "L.").is_err());
        assert!(!p.rules().rules(p.db()).unwrap().is_empty());
    }

    #[test]
    fn unit_helper_commits_and_aborts() {
        let p = Prometheus::open_with(
            tmp("unit"),
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        let tax = p.taxonomy().unwrap();
        let kept = p.unit(|_| tax.create_ct("kept", Rank::Genus)).unwrap();
        assert!(p.db().exists(kept));
        let result: DbResult<Oid> = p.unit(|_| {
            let _ = tax.create_ct("lost", Rank::Genus)?;
            Err(DbError::Query("forced".into()))
        });
        assert!(result.is_err());
        assert_eq!(p.query("select t from CT t").unwrap().len(), 1);
    }
}
