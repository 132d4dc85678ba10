//! # prometheus-object
//!
//! The Prometheus extended object-oriented model (thesis chapters 4 and 6).
//!
//! This crate implements the layers of Figure 26 that sit between the raw
//! storage substrate and the query/rule languages:
//!
//! * **object layer** — an ODMG-style meta-model ([`schema`]) of classes with
//!   typed attributes, single-rooted multiple inheritance and extents, plus
//!   dynamic instances ([`instance`]);
//! * **first-class relationships** — relationship *classes*
//!   ([`schema::RelClassDef`]) carrying the built-in semantic attributes of
//!   §4.4 (aggregation/association kind, exclusivity, sharability, lifetime
//!   dependency, constancy, attribute inheritance, cardinality, direction)
//!   and relationship *instances* that are ordinary objects with an origin
//!   and a destination;
//! * **classifications** ([`classification`]) — named, overlapping sets of
//!   relationship instances orthogonal to the classified objects (§4.6),
//!   with graph traversal and comparison operations;
//! * **instance synonyms** ([`synonym`]) — the §4.5 mechanism declaring that
//!   two OIDs denote the same real-world instance;
//! * **event layer** ([`events`]) — every mutation raises typed events that
//!   pre-listeners may veto and post-listeners may react to; the rule engine
//!   in `prometheus-rules` plugs in here;
//! * **index layer** ([`index`]) — extent, attribute and relationship-
//!   endpoint indexes over the store's ordered keyspaces;
//! * **views layer** ([`views`]) — named class/classification-scoped subsets
//!   of the database;
//! * **units of work** — [`Database::begin_unit`] stages a unit's
//!   operations in one storage transaction, sealed at commit and dropped at
//!   abort, giving atomicity, deferred-rule scheduling and the *what-if*
//!   workflows of §7.1.4. An operation that fails inside a unit undoes
//!   exactly itself, behind a rollback point, and the unit stays open. Units claim shard masks in one FIFO writer queue,
//!   the only one a writer waits in, embedded or over the wire;
//! * **snapshot read path** ([`read`]) — the [`Reader`] trait defines every
//!   read operation once; [`ReadView`] pins an immutable storage snapshot so
//!   whole queries run lock-free against one consistent committed state.

pub mod classification;
pub mod database;
pub mod error;
pub mod events;
pub mod history;
pub mod index;
pub mod instance;
pub mod morsel;
pub mod read;
pub mod schema;
pub mod synonym;
pub mod traversal;
pub mod value;
pub mod views;

pub use classification::{Classification, ClassificationCompare, SoundClassifications};
pub use database::{Database, UnitClaim, UnitToken};
pub use error::{DbError, DbResult};
pub use events::{Event, EventListener};
pub use history::{history_of, HistoryEntry, HistoryRecorder};
pub use index::shard_routing;
pub use instance::{ObjectInstance, RelInstance};
pub use prometheus_storage::{Oid, ShardRouting, ShardedStore, Store, StoreOptions};
pub use read::{ReadView, Reader};
pub use schema::{AttrDef, Cardinality, ClassDef, RelClassDef, RelKind, SchemaRegistry};
pub use traversal::{Direction, SynonymMode, TraversalSpec};
pub use value::{Date, Type, Value};
pub use views::View;
