//! The snapshot read path: [`Reader`] and [`ReadView`].
//!
//! Every read operation of the object layer — entity fetches, extent and
//! attribute-index lookups, relationship adjacency, classification
//! membership, synonym resolution — is expressed once, here, as a default
//! method of the [`Reader`] trait over a small required surface (raw record
//! and index access plus schema/synonym access). Two implementations exist:
//!
//! * [`Database`] reads **committed state plus the staged writes of the
//!   unit bound to the calling thread** (through the unit's transaction),
//!   so code running inside a unit of work sees its own uncommitted
//!   operations and nothing of any other unit's;
//! * [`ReadView`] reads a **pinned immutable snapshot**
//!   ([`prometheus_storage::ShardSnapshot`], one pinned image per shard) plus
//!   the schema registry and synonym table decoded from that snapshot's own
//!   meta records. A `ReadView` never takes the store mutex, so any number
//!   of views proceed in parallel with the writer, and a whole query —
//!   including recursive traversals and graph extraction — executes
//!   against one consistent committed state:
//!   unit-of-work atomicity holds by construction, because a unit reaches
//!   the store only as one sealed commit.
//!
//! The query evaluator, traversals, classification structure queries and
//! views are generic over `Reader`, so the same code serves both paths.

use crate::classification::SoundClassifications;
use crate::database::{Database, CLASSIFICATION_EXTENT};
use crate::error::{DbError, DbResult};
use crate::index::{self, KS_ATTR, KS_CLS_EDGES, KS_EDGE_CLS, KS_EXTENT, KS_REL_FROM, KS_REL_TO};
use crate::instance::{ClassificationMeta, ObjectInstance, RelInstance, StoredEntity};
use crate::schema::SchemaRegistry;
use crate::synonym::SynonymTable;
use crate::value::Value;
use parking_lot::RwLock;
use prometheus_storage::{
    codec, prefix_successor, Bytes, Keyspace, KvScan, Oid, ShardSnapshot, Stats,
};
use std::ops::Bound;
use std::sync::Arc;

/// Read access to a (possibly pinned) database state.
///
/// Implementors provide raw record and index access plus schema/synonym
/// access; everything else is derived. The generic closure methods make the
/// trait non-object-safe by design — callers monomorphise.
///
/// `Send + Sync` is part of the contract: the morsel-parallel executor
/// shares one reader across `std::thread::scope` workers. Both existing
/// implementors already satisfy it — [`ReadView`] is an immutable pinned
/// snapshot, and [`Database`] guards its mutable state internally.
pub trait Reader: Sized + Send + Sync {
    /// Fetch and decode the entity stored under `oid`.
    fn entity(&self, oid: Oid) -> DbResult<StoredEntity>;

    /// Point lookup in an index keyspace. The returned value is a shared
    /// handle into the underlying image, not a copy.
    fn raw_kv_get(&self, ks: Keyspace, key: &[u8]) -> Option<Bytes>;

    /// The `KS_META` record `key` of the state this reads, decoded, or
    /// `T`'s default when there is none (the views, a rules list).
    fn meta_record<T: Default + serde::de::DeserializeOwned>(&self, key: &[u8]) -> DbResult<T> {
        let record = self.raw_kv_get(index::KS_META, key);
        Ok(record.map_or(Ok(T::default()), |bytes| codec::from_bytes(&bytes))?)
    }

    /// Stream every entry of an index keyspace with `lo <= key` below `hi`,
    /// in key order, straight off the storage image's cursors (merged with a
    /// unit's staged entries for a [`Database`] read in one).
    fn raw_kv_for_each(
        &self,
        ks: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    );

    /// Stream every entry under `prefix`: the range up to its successor.
    fn raw_kv_for_each_prefix(&self, ks: Keyspace, prefix: &[u8], f: impl FnMut(&[u8], &[u8])) {
        let end = prefix_successor(prefix);
        let hi = end.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
        self.raw_kv_for_each(ks, prefix, hi, f)
    }

    /// Stream every entry with `lo <= key < hi` in key order.
    fn raw_kv_for_each_range(
        &self,
        ks: Keyspace,
        lo: &[u8],
        hi: &[u8],
        f: impl FnMut(&[u8], &[u8]),
    ) {
        self.raw_kv_for_each(ks, lo, Bound::Excluded(hi), f)
    }

    /// Run `f` with read access to the schema registry of the state this
    /// reader reads — decoded from that state's own meta record, so a
    /// definition is visible exactly where its unit's writes are.
    fn with_schema<T>(&self, f: impl FnOnce(&SchemaRegistry) -> T) -> T;

    /// Run `f` with read access to the synonym table of the state this
    /// reader reads (see [`Reader::with_schema`]).
    fn with_synonyms<T>(&self, f: impl FnOnce(&SynonymTable) -> T) -> T;

    /// The classifications a full check found sound in committed state,
    /// which [`crate::Classification::check_integrity`] answers from and
    /// records into. Only a [`Database`] read with no unit bound to the
    /// calling thread reads committed state, so only it answers `Some`;
    /// `None` (the default, and a [`ReadView`]'s answer) makes every check
    /// read the whole classification.
    fn sound_classifications(&self) -> Option<&SoundClassifications> {
        None
    }

    // -----------------------------------------------------------------
    // Entity access
    // -----------------------------------------------------------------

    /// Fetch an object instance.
    fn object(&self, oid: Oid) -> DbResult<ObjectInstance> {
        match self.entity(oid)? {
            StoredEntity::Object(o) => Ok(o),
            _ => Err(DbError::NotFound(oid)),
        }
    }

    /// Fetch a relationship instance.
    fn rel(&self, oid: Oid) -> DbResult<RelInstance> {
        match self.entity(oid)? {
            StoredEntity::Rel(r) => Ok(r),
            _ => Err(DbError::NotFound(oid)),
        }
    }

    /// Fetch classification metadata.
    fn classification_meta(&self, oid: Oid) -> DbResult<ClassificationMeta> {
        match self.entity(oid)? {
            StoredEntity::Classification(c) => Ok(c),
            _ => Err(DbError::NotFound(oid)),
        }
    }

    /// Whether any entity with this OID exists.
    fn exists(&self, oid: Oid) -> bool {
        self.entity(oid).is_ok()
    }

    /// Most-specific class of the entity (`"__classification"` for
    /// classification metadata).
    fn class_of(&self, oid: Oid) -> DbResult<String> {
        Ok(match self.entity(oid)? {
            StoredEntity::Object(o) => o.class,
            StoredEntity::Rel(r) => r.class,
            StoredEntity::Classification(_) => CLASSIFICATION_EXTENT.to_string(),
        })
    }

    // -----------------------------------------------------------------
    // Relationship adjacency
    // -----------------------------------------------------------------

    /// All relationship instances leaving `oid`, optionally restricted to one
    /// relationship class (exact: a polymorphic caller asks once per class
    /// of the schema's subclass list).
    fn rels_from(&self, oid: Oid, class: Option<&str>) -> DbResult<Vec<RelInstance>> {
        decode_rels(self, self.adjacency(oid, class, true, None)?)
    }

    /// All relationship instances arriving at `oid`, optionally restricted to
    /// one relationship class (exact).
    fn rels_to(&self, oid: Oid, class: Option<&str>) -> DbResult<Vec<RelInstance>> {
        decode_rels(self, self.adjacency(oid, class, false, None)?)
    }

    /// Record-free adjacency (the §6.1.5.2 indexing fast path): the edges
    /// incident to `oid` as `(relationship oid, opposite endpoint)` pairs,
    /// straight from the index — no relationship records are fetched or
    /// decoded. `outgoing` selects the direction. With a `scope`, only the
    /// member edges of that classification: outgoing, one scan of the
    /// membership index; incoming, the endpoint scan and one membership
    /// `get` per edge.
    fn adjacency(
        &self,
        oid: Oid,
        class: Option<&str>,
        outgoing: bool,
        scope: Option<Oid>,
    ) -> DbResult<Vec<(Oid, Oid)>> {
        let endpoint = match class {
            Some(c) => index::endpoint_class_prefix(oid, c),
            None => index::endpoint_prefix(oid),
        };
        let (ks, prefix) = match (outgoing, scope) {
            // A membership key is the outgoing endpoint key behind its
            // classification.
            (true, Some(cls)) => (KS_CLS_EDGES, [index::cls_prefix(cls), endpoint].concat()),
            (true, None) => (KS_REL_FROM, endpoint),
            (false, _) => (KS_REL_TO, endpoint),
        };
        let mut out = Vec::new();
        self.raw_kv_for_each_prefix(ks, &prefix, |key, value| {
            if let (Some(rel_oid), Ok(bytes)) = (index::oid_suffix(key), <[u8; 8]>::try_from(value))
            {
                out.push((rel_oid, Oid::from_be_bytes(bytes)));
            }
        });
        if let (false, Some(cls)) = (outgoing, scope) {
            out.retain(|&(edge, _)| self.edge_in_classification(cls, edge));
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Extents and attribute queries
    // -----------------------------------------------------------------

    /// OIDs in the extent of `class`; with `deep`, the deep extent (ODMG
    /// `extent` semantics).
    fn extent(&self, class: &str, deep: bool) -> DbResult<Vec<Oid>> {
        let classes = if deep {
            self.with_schema(|s| s.with_subclasses(class))
        } else {
            vec![class.to_string()]
        };
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        for c in classes {
            index::build::extent_prefix(&mut prefix, &c);
            self.raw_kv_for_each_prefix(KS_EXTENT, &prefix, |key, _| {
                if let Some(oid) = index::oid_suffix(key) {
                    out.push(oid);
                }
            });
        }
        Ok(out)
    }

    /// Exact-match lookup over an indexed attribute (deep extent). The value
    /// is encoded once and the key prefix buffer reused across subclasses.
    fn find_by_attr(&self, class: &str, attr: &str, value: &Value) -> DbResult<Vec<Oid>> {
        let classes = self.with_schema(|s| s.with_subclasses(class));
        let encoded = index::build::encode_value(value);
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        for c in classes {
            index::build::attr_value_prefix(&mut prefix, &c, attr, &encoded);
            self.raw_kv_for_each_prefix(KS_ATTR, &prefix, |key, _| {
                if let Some(oid) = index::oid_suffix(key) {
                    out.push(oid);
                }
            });
        }
        Ok(out)
    }

    /// Range lookup `lo <= value < hi` over an indexed attribute.
    fn find_by_attr_range(
        &self,
        class: &str,
        attr: &str,
        lo: &Value,
        hi: &Value,
    ) -> DbResult<Vec<Oid>> {
        let classes = self.with_schema(|s| s.with_subclasses(class));
        let enc_lo = index::build::encode_value(lo);
        let enc_hi = index::build::encode_value(hi);
        let mut out = Vec::new();
        let (mut lo_key, mut hi_key) = (Vec::new(), Vec::new());
        for c in classes {
            index::build::attr_value_prefix(&mut lo_key, &c, attr, &enc_lo);
            index::build::attr_value_prefix(&mut hi_key, &c, attr, &enc_hi);
            self.raw_kv_for_each_range(KS_ATTR, &lo_key, &hi_key, |key, _| {
                if let Some(oid) = index::oid_suffix(key) {
                    out.push(oid);
                }
            });
        }
        Ok(out)
    }

    /// Attribute lookup with relationship attribute inheritance (§4.4.5).
    ///
    /// Resolution order: the object's own attribute; the class default; then
    /// values inherited from incoming relationship instances whose class
    /// declares `attr` inheritable. Distinct inherited values are ambiguous.
    fn attr_of(&self, oid: Oid, attr: &str) -> DbResult<Value> {
        self.attr_of_object(&self.object(oid)?, attr)
    }

    /// [`Reader::attr_of`] for an object the caller has already decoded.
    fn attr_of_object(&self, obj: &ObjectInstance, attr: &str) -> DbResult<Value> {
        if let Some(v) = obj.attrs.get(attr) {
            if *v != Value::Null {
                return Ok(v.clone());
            }
        }
        let default = self.with_schema(|schema| {
            schema.all_attrs(&obj.class).ok().and_then(|declared| {
                declared
                    .iter()
                    .find(|a| a.name == attr)
                    .and_then(|def| def.default.clone())
            })
        });
        if let Some(default) = default {
            if !obj.attrs.contains_key(attr) {
                return Ok(default);
            }
        }
        // Inherited from incoming relationships.
        let incoming = self.rels_to(obj.oid, None)?;
        let mut inherited = self.with_schema(|schema| {
            let mut inherited: Vec<Value> = Vec::new();
            for rel in &incoming {
                if let Some(def) = schema.rel_class(&rel.class) {
                    if def.inheritable_attrs.iter().any(|a| a == attr) {
                        let v = rel.attr(attr);
                        if v != Value::Null && !inherited.contains(&v) {
                            inherited.push(v);
                        }
                    }
                }
            }
            inherited
        });
        match inherited.len() {
            0 => Ok(Value::Null),
            1 => Ok(inherited.pop().unwrap()),
            _ => Err(DbError::AmbiguousInheritedAttr {
                oid: obj.oid,
                attr: attr.to_string(),
            }),
        }
    }

    // -----------------------------------------------------------------
    // Instance synonyms (§4.5)
    // -----------------------------------------------------------------

    /// Whether two instances are declared synonymous.
    fn same_instance(&self, a: Oid, b: Oid) -> bool {
        self.with_synonyms(|s| s.same(a, b))
    }

    /// All members of `oid`'s synonym set (including itself).
    fn synonym_set(&self, oid: Oid) -> Vec<Oid> {
        self.with_synonyms(|s| s.set_of(oid).into_iter().collect())
    }

    /// Canonical representative of `oid`'s synonym set.
    fn synonym_representative(&self, oid: Oid) -> Oid {
        self.with_synonyms(|s| s.find(oid))
    }

    // -----------------------------------------------------------------
    // Classifications (§4.6)
    // -----------------------------------------------------------------

    /// All classification OIDs.
    fn classifications(&self) -> DbResult<Vec<Oid>> {
        let prefix = index::extent_prefix(CLASSIFICATION_EXTENT);
        let mut out = Vec::new();
        self.raw_kv_for_each_prefix(KS_EXTENT, &prefix, |key, _| {
            if let Some(oid) = index::oid_suffix(key) {
                out.push(oid);
            }
        });
        Ok(out)
    }

    /// Find a classification by name.
    fn classification_by_name(&self, name: &str) -> DbResult<Option<Oid>> {
        for oid in self.classifications()? {
            if self.classification_meta(oid)?.name == name {
                return Ok(Some(oid));
            }
        }
        Ok(None)
    }

    /// All edge OIDs of a classification, in edge order.
    fn classification_edges(&self, cls: Oid) -> DbResult<Vec<Oid>> {
        let edges = self.classification_edge_endpoints(cls)?;
        Ok(edges.into_iter().map(|(edge, _, _)| edge).collect())
    }

    /// All classifications an edge belongs to.
    fn classifications_of_edge(&self, rel_oid: Oid) -> DbResult<Vec<Oid>> {
        let mut out = Vec::new();
        self.raw_kv_for_each_prefix(KS_EDGE_CLS, &index::edge_prefix(rel_oid), |key, _| {
            if let Some(oid) = index::oid_suffix(key) {
                out.push(oid);
            }
        });
        Ok(out)
    }

    /// Edges of `cls` arriving at `node` (its parent edges there), decoded.
    fn classification_parent_edges(&self, cls: Oid, node: Oid) -> DbResult<Vec<RelInstance>> {
        decode_rels(self, self.adjacency(node, None, false, Some(cls))?)
    }

    /// Edges of `cls` leaving `node` (its child edges there), decoded.
    fn classification_child_edges(&self, cls: Oid, node: Oid) -> DbResult<Vec<RelInstance>> {
        decode_rels(self, self.adjacency(node, None, true, Some(cls))?)
    }

    /// Whether an edge belongs to a classification: one `get` of its
    /// reverse membership entry.
    fn edge_in_classification(&self, cls: Oid, rel_oid: Oid) -> bool {
        self.raw_kv_get(KS_EDGE_CLS, &index::edge_cls_key(rel_oid, cls))
            .is_some()
    }

    /// Whether `oid` participates in `cls`: whether it has a member child
    /// edge there (one scan) or, failing that, a member parent edge.
    /// Record-free, at a cost that follows the node's degree and not the
    /// classification's size.
    fn node_in_classification(&self, cls: Oid, oid: Oid) -> bool {
        [true, false].into_iter().any(|outgoing| {
            self.adjacency(oid, None, outgoing, Some(cls))
                .is_ok_and(|edges| !edges.is_empty())
        })
    }

    /// The member edges of a classification as `(edge, origin, destination)`,
    /// in edge order: one prefix scan of the membership index, whose keys
    /// carry the origin and values the destination — no relationship record
    /// is decoded.
    fn classification_edge_endpoints(&self, cls: Oid) -> DbResult<Vec<(Oid, Oid, Oid)>> {
        let mut entries = Vec::new();
        self.raw_kv_for_each_prefix(KS_CLS_EDGES, &index::cls_prefix(cls), |key, value| {
            if let (Some(edge), Some(origin), Ok(destination)) = (
                index::oid_suffix(key),
                index::cls_edge_key_origin(key),
                <[u8; 8]>::try_from(value),
            ) {
                entries.push((edge, origin, Oid::from_be_bytes(destination)));
            }
        });
        // The keys sort by origin; an edge appears once.
        entries.sort_unstable();
        Ok(entries)
    }
}

/// Decode the relationships of an adjacency list.
fn decode_rels<R: Reader>(db: &R, adjacent: Vec<(Oid, Oid)>) -> DbResult<Vec<RelInstance>> {
    adjacent.into_iter().map(|(edge, _)| db.rel(edge)).collect()
}

/// [`Database`] reads see committed state plus the staged writes of the
/// unit bound to this thread — inside a unit of work, the unit's own
/// operations.
impl Reader for Database {
    /// The record as `read_through` sees it, decoded; each decode counts
    /// one `cache_misses` on the store's stats.
    fn entity(&self, oid: Oid) -> DbResult<StoredEntity> {
        let bytes = self
            .read_through(|txn| txn.get(oid))
            .ok_or(DbError::NotFound(oid))?;
        Stats::bump(&self.store().stats().cache_misses);
        Ok(codec::from_bytes(&bytes)?)
    }

    fn raw_kv_get(&self, ks: Keyspace, key: &[u8]) -> Option<Bytes> {
        self.read_through(|txn| txn.kv_get(ks, key))
    }

    fn raw_kv_for_each(
        &self,
        ks: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    ) {
        self.read_through(|txn| txn.kv_for_each(ks, lo, hi, f))
    }

    fn with_schema<T>(&self, f: impl FnOnce(&SchemaRegistry) -> T) -> T {
        Database::with_schema(self, f)
    }

    fn with_synonyms<T>(&self, f: impl FnOnce(&SynonymTable) -> T) -> T {
        Database::with_synonyms(self, f)
    }

    fn sound_classifications(&self) -> Option<&SoundClassifications> {
        (!self.in_unit()).then_some(&self.sound)
    }
}

/// A shared reference to a reader is itself a reader, so call sites may pass
/// `&db`, `&Arc<Database>`, a borrowed [`ReadView`], … into the generic query
/// and traversal entry points without manual derefs.
impl<R: Reader> Reader for &R {
    fn entity(&self, oid: Oid) -> DbResult<StoredEntity> {
        (**self).entity(oid)
    }

    fn raw_kv_get(&self, ks: Keyspace, key: &[u8]) -> Option<Bytes> {
        (**self).raw_kv_get(ks, key)
    }

    fn raw_kv_for_each(
        &self,
        ks: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    ) {
        (**self).raw_kv_for_each(ks, lo, hi, f)
    }

    fn with_schema<T>(&self, f: impl FnOnce(&SchemaRegistry) -> T) -> T {
        (**self).with_schema(f)
    }

    fn with_synonyms<T>(&self, f: impl FnOnce(&SynonymTable) -> T) -> T {
        (**self).with_synonyms(f)
    }

    fn sound_classifications(&self) -> Option<&SoundClassifications> {
        (**self).sound_classifications()
    }
}

/// `Arc<Database>` (the shape most embedders hold) reads like the database
/// it wraps.
impl<R: Reader> Reader for Arc<R> {
    fn entity(&self, oid: Oid) -> DbResult<StoredEntity> {
        (**self).entity(oid)
    }

    fn raw_kv_get(&self, ks: Keyspace, key: &[u8]) -> Option<Bytes> {
        (**self).raw_kv_get(ks, key)
    }

    fn raw_kv_for_each(
        &self,
        ks: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    ) {
        (**self).raw_kv_for_each(ks, lo, hi, f)
    }

    fn with_schema<T>(&self, f: impl FnOnce(&SchemaRegistry) -> T) -> T {
        (**self).with_schema(f)
    }

    fn with_synonyms<T>(&self, f: impl FnOnce(&SynonymTable) -> T) -> T {
        (**self).with_synonyms(f)
    }

    fn sound_classifications(&self) -> Option<&SoundClassifications> {
        (**self).sound_classifications()
    }
}

/// The definitions of one database state: the schema registry and synonym
/// table decoded from its two `KS_META` records.
#[derive(Debug, Default, Clone)]
pub(crate) struct Meta {
    pub(crate) schema: Arc<SchemaRegistry>,
    pub(crate) synonyms: Arc<SynonymTable>,
}

/// The last [`Meta`] decoded, keyed by the identity of the records it came
/// from. A key is a clone of the record's `Bytes`, so while the memo holds
/// it no other record can take its address: a record at the same address
/// and length is the same record. Each half is decoded only when its own
/// record changed, so a synonym write never rebuilds the schema's closures.
#[derive(Default)]
pub(crate) struct MetaMemo(RwLock<(Option<Bytes>, Option<Bytes>, Arc<Meta>)>);

impl MetaMemo {
    /// The meta of the state `get` reads `KS_META` records from — the one
    /// place a read decodes a meta record.
    pub(crate) fn read_from(&self, get: impl Fn(&[u8]) -> Option<Bytes>) -> DbResult<Arc<Meta>> {
        let (schema, synonyms) = (get(index::META_SCHEMA), get(index::META_SYNONYMS));
        let id = |record: &Option<Bytes>| record.as_ref().map(|b| (b.as_ptr(), b.len()));
        let held = self.0.read();
        let fresh = (id(&held.0) == id(&schema), id(&held.1) == id(&synonyms));
        if fresh == (true, true) {
            return Ok(Arc::clone(&held.2));
        }
        let meta = Arc::new(Meta {
            schema: match &schema {
                _ if fresh.0 => Arc::clone(&held.2.schema),
                Some(bytes) => Arc::new(SchemaRegistry::decode(bytes)?),
                None => Arc::default(),
            },
            synonyms: match &synonyms {
                _ if fresh.1 => Arc::clone(&held.2.synonyms),
                Some(bytes) => Arc::new(codec::from_bytes(bytes)?),
                None => Arc::default(),
            },
        });
        drop(held);
        *self.0.write() = (schema, synonyms, Arc::clone(&meta));
        Ok(meta)
    }
}

/// An immutable, pinned view of one committed database state.
///
/// Obtained from [`Database::read_view`]. Holds a storage snapshot plus the
/// schema registry and synonym table decoded from that snapshot's own meta
/// records, resolved once at pin time; reads never take the store mutex and
/// never decode through shared state, so views scale with reader
/// parallelism. State committed (or rolled back) after the
/// pin is invisible; re-pin for fresh state. Cloning bumps one `Arc` per
/// shard plus one for the meta.
#[derive(Debug, Clone)]
pub struct ReadView {
    snap: ShardSnapshot,
    meta: Arc<Meta>,
}

impl ReadView {
    /// Pin `snap` with the meta its own records hold, through `memo`. A
    /// record that does not decode reads as empty.
    pub(crate) fn pin(snap: ShardSnapshot, memo: &MetaMemo) -> ReadView {
        let meta = memo
            .read_from(|key| snap.kv_get(index::KS_META, key))
            .unwrap_or_default();
        ReadView { snap, meta }
    }

    /// Whether `other` pins the same published storage image.
    pub fn same_version(&self, other: &ReadView) -> bool {
        self.snap.same_version(&other.snap)
    }

    /// Number of records in the pinned image.
    pub fn record_count(&self) -> usize {
        self.snap.record_count()
    }
}

impl Reader for ReadView {
    fn entity(&self, oid: Oid) -> DbResult<StoredEntity> {
        let bytes = self.snap.get(oid).ok_or(DbError::NotFound(oid))?;
        Ok(codec::from_bytes(&bytes)?)
    }

    fn raw_kv_get(&self, ks: Keyspace, key: &[u8]) -> Option<Bytes> {
        self.snap.kv_get(ks, key)
    }

    fn raw_kv_for_each(
        &self,
        ks: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    ) {
        self.snap.kv_for_each(ks, lo, hi, f)
    }

    fn with_schema<T>(&self, f: impl FnOnce(&SchemaRegistry) -> T) -> T {
        f(&self.meta.schema)
    }

    fn with_synonyms<T>(&self, f: impl FnOnce(&SynonymTable) -> T) -> T {
        f(&self.meta.synonyms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::temp_db;
    use crate::schema::{AttrDef, ClassDef, RelClassDef};
    use crate::value::Type;

    fn seeded() -> (Database, Oid, Oid) {
        let db = temp_db();
        db.define_class(
            ClassDef::new("Taxon").attr(AttrDef::required("name", Type::Str).indexed()),
        )
        .unwrap();
        db.define_relationship(RelClassDef::aggregation("Circ", "Taxon", "Taxon").sharable(true))
            .unwrap();
        let a = db
            .create_object("Taxon", vec![("name".to_string(), Value::from("Apium"))])
            .unwrap();
        let b = db
            .create_object(
                "Taxon",
                vec![("name".to_string(), Value::from("graveolens"))],
            )
            .unwrap();
        db.create_relationship("Circ", a, b, Vec::new()).unwrap();
        (db, a, b)
    }

    #[test]
    fn read_view_matches_database_when_quiescent() {
        let (db, a, b) = seeded();
        let view = db.read_view();
        assert_eq!(view.object(a).unwrap(), db.object(a).unwrap());
        assert_eq!(
            view.extent("Taxon", true).unwrap(),
            db.extent("Taxon", true).unwrap()
        );
        assert_eq!(
            view.find_by_attr("Taxon", "name", &Value::from("Apium"))
                .unwrap(),
            vec![a]
        );
        assert_eq!(
            view.rels_from(a, None).unwrap(),
            db.rels_from(a, None).unwrap()
        );
        assert_eq!(
            view.adjacency(a, None, true, None).unwrap(),
            db.adjacency(a, None, true, None).unwrap()
        );
        assert_eq!(view.class_of(b).unwrap(), "Taxon");
    }

    #[test]
    fn read_view_is_pinned_while_database_moves_on() {
        let (db, a, _b) = seeded();
        let view = db.read_view();
        let c = db
            .create_object("Taxon", vec![("name".to_string(), Value::from("later"))])
            .unwrap();
        db.set_attr(a, "name", "renamed").unwrap();
        // The pinned view still sees the pre-mutation state…
        assert!(!view.exists(c));
        assert_eq!(view.object(a).unwrap().attr("name"), Value::from("Apium"));
        assert_eq!(
            view.find_by_attr("Taxon", "name", &Value::from("Apium"))
                .unwrap(),
            vec![a]
        );
        // …while the database and a fresh view see the new one.
        assert_eq!(db.object(a).unwrap().attr("name"), Value::from("renamed"));
        let fresh = db.read_view();
        assert!(fresh.exists(c));
        assert!(!fresh.same_version(&view));
    }

    #[test]
    fn read_view_does_not_observe_an_open_unit() {
        let (db, a, _b) = seeded();
        let token = db.begin_unit();
        db.set_attr(a, "name", "speculative").unwrap();
        // Inside the unit the database reads its own write…
        assert_eq!(
            db.object(a).unwrap().attr("name"),
            Value::from("speculative")
        );
        // …but a view pinned mid-unit sees the last settled state.
        let view = db.read_view();
        assert_eq!(view.object(a).unwrap().attr("name"), Value::from("Apium"));
        db.commit_unit(token).unwrap();
        assert_eq!(
            db.read_view().object(a).unwrap().attr("name"),
            Value::from("speculative")
        );
    }
}
