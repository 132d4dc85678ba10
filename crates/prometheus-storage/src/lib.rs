//! # prometheus-storage
//!
//! Persistent object-store substrate for the Prometheus extended
//! object-oriented database.
//!
//! The thesis prototype was layered on top of the POET commercial OODB; no
//! such system exists for Rust, so this crate provides the equivalent
//! substrate from scratch (see `DESIGN.md`, *Substitutions*):
//!
//! * [`Oid`] — stable object identifiers,
//! * [`codec`] — a compact binary serde format,
//! * [`log`] — an append-only, CRC-protected redo log,
//! * [`Store`] — a transactional record store with an ordered key/value
//!   namespace for secondary indexes and full crash-recovery from the log,
//! * [`Stats`] — I/O counters consumed by the chapter-7 benchmark harness.
//!
//! The store deliberately mirrors the *role* POET played in the thesis: it
//! knows nothing about classes, relationships or classifications. Everything
//! semantic lives in `prometheus-object` and above, so the benchmark can
//! compare "raw substrate" against "Prometheus feature layer" exactly as the
//! thesis does in chapter 7.2.

pub mod codec;
pub mod crc;
pub mod error;
pub mod log;
pub mod oid;
pub mod pmap;
pub mod shard;
pub mod stats;
pub mod store;

pub use bytes::Bytes;
pub use error::{StorageError, StorageResult};
pub use log::LogRecord;
pub use oid::{Oid, OidAllocator};
pub use pmap::{PMap, Touch};
pub use shard::{RouteRule, ShardRouting, ShardSnapshot, ShardedStore, MAX_SHARDS};
pub use stats::{Stats, StatsSnapshot};
pub use store::{
    prefix_successor, FrameBatch, Keyspace, KvScan, ReplayState, ReplicaApply, Snapshot, Store,
    StoreOptions, Txn,
};
