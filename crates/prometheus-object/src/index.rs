//! The index layer (thesis §6.1.4): key encodings for the store's ordered
//! keyspaces.
//!
//! Five index families keep queries off full scans:
//!
//! * **extent** — `class ⇒ oid`, membership of each class's extent;
//! * **attribute** — `class · attr · value ⇒ oid`, for attributes declared
//!   `indexed` in the schema (exact-match and range queries);
//! * **relationship endpoints** — `origin ⇒ (class, rel)` and
//!   `destination ⇒ (class, rel)`, the adjacency lists every traversal and
//!   classification operation runs on;
//! * **classification membership** — `classification · origin · relclass ·
//!   rel ⇒ destination` plus the reverse `rel · classification`. The
//!   forward key is the member edge's outgoing adjacency entry behind its
//!   classification: a node's member children there are one prefix scan,
//!   and the structure of a classification (nodes, roots, leaves,
//!   integrity) is one prefix scan that decodes no relationship record.
//!   Whether an edge is a member is one `get` on the reverse entry.
//!
//! Keys are built so that prefix scans answer the natural questions: "all
//! members of class C", "all edges leaving O via relationship class R", "all
//! edges of classification K".

use crate::value::Value;
use prometheus_storage::{Keyspace, Oid, RouteRule, ShardRouting};

/// Keyspace holding schema, classification metadata and synonym state.
pub const KS_META: Keyspace = Keyspace(0);
/// Extent index.
pub const KS_EXTENT: Keyspace = Keyspace(1);
/// Attribute value index.
pub const KS_ATTR: Keyspace = Keyspace(2);
/// Outgoing relationship endpoint index.
pub const KS_REL_FROM: Keyspace = Keyspace(3);
/// Incoming relationship endpoint index.
pub const KS_REL_TO: Keyspace = Keyspace(4);
/// Classification membership (classification · origin -> edge).
pub const KS_CLS_EDGES: Keyspace = Keyspace(5);
/// Reverse classification membership (edge -> classification).
pub const KS_EDGE_CLS: Keyspace = Keyspace(6);

/// Reserved meta keys.
pub const META_SCHEMA: &[u8] = b"schema";
pub const META_SYNONYMS: &[u8] = b"synonyms";
pub const META_VIEWS: &[u8] = b"views";

/// The shard-routing table matching this module's key encodings, for
/// [`prometheus_storage::ShardedStore::open_with`].
///
/// * Meta state (schema, synonyms, views) is global → shard 0.
/// * Extent and attribute keys end in the member's OID → route with the
///   record, so creating an object writes exactly one shard.
/// * Endpoint/adjacency and classification-membership keys lead with the
///   subject's OID → route with the *subject*, so "edges of X" scans one
///   shard, and creating a relationship co-locates the edge record with its
///   from-adjacency entry (the edge's OID is allocated on the same shard).
/// * History entries (keyspace 7, see `crate::history`) lead with the
///   subject OID → route with the subject.
pub fn shard_routing() -> ShardRouting {
    ShardRouting::with_rules(&[
        (KS_META.0, RouteRule::ShardZero),
        (KS_EXTENT.0, RouteRule::TrailingOid),
        (KS_ATTR.0, RouteRule::TrailingOid),
        (KS_REL_FROM.0, RouteRule::LeadingOid),
        (KS_REL_TO.0, RouteRule::LeadingOid),
        (KS_CLS_EDGES.0, RouteRule::LeadingOid),
        (KS_EDGE_CLS.0, RouteRule::LeadingOid),
        (crate::history::KS_HISTORY.0, RouteRule::LeadingOid),
    ])
}

const SEP: u8 = 0x00;

fn push_name(key: &mut Vec<u8>, name: &str) {
    key.extend_from_slice(name.as_bytes());
    key.push(SEP);
}

/// `class · oid` — one entry per extent member.
pub fn extent_key(class: &str, oid: Oid) -> Vec<u8> {
    let mut key = Vec::with_capacity(class.len() + 9);
    push_name(&mut key, class);
    key.extend_from_slice(&oid.to_be_bytes());
    key
}

/// Prefix selecting the whole extent of `class` (exact class, no subclasses).
pub fn extent_prefix(class: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(class.len() + 1);
    push_name(&mut key, class);
    key
}

/// `class · attr · encoded value · oid` — one entry per indexed attribute
/// value.
pub fn attr_key(class: &str, attr: &str, value: &Value, oid: Oid) -> Vec<u8> {
    let mut key = Vec::new();
    push_name(&mut key, class);
    push_name(&mut key, attr);
    value.encode_ordered(&mut key);
    key.extend_from_slice(&oid.to_be_bytes());
    key
}

/// Prefix selecting all index entries of `class.attr` with exactly `value`.
pub fn attr_value_prefix(class: &str, attr: &str, value: &Value) -> Vec<u8> {
    let mut key = Vec::new();
    push_name(&mut key, class);
    push_name(&mut key, attr);
    value.encode_ordered(&mut key);
    key
}

/// Prefix selecting all index entries of `class.attr` (for range scans; pair
/// with [`attr_value_prefix`] bounds).
pub fn attr_prefix(class: &str, attr: &str) -> Vec<u8> {
    let mut key = Vec::new();
    push_name(&mut key, class);
    push_name(&mut key, attr);
    key
}

/// In-place variants for hot scan loops: a caller probing many classes (deep
/// extents, attribute lookups over subclasses) clears and refills one buffer
/// instead of allocating a fresh `Vec<u8>` per probe.
pub mod build {
    use super::*;

    /// Fill `key` with the extent prefix of `class`.
    pub fn extent_prefix(key: &mut Vec<u8>, class: &str) {
        key.clear();
        push_name(key, class);
    }

    /// Encode `value` once for use with [`attr_value_prefix`]; scanning N
    /// subclasses then reuses the encoding instead of re-encoding per class.
    pub fn encode_value(value: &Value) -> Vec<u8> {
        let mut enc = Vec::new();
        value.encode_ordered(&mut enc);
        enc
    }

    /// Fill `key` with `class · attr · encoded`, where `encoded` came from
    /// [`encode_value`].
    pub fn attr_value_prefix(key: &mut Vec<u8>, class: &str, attr: &str, encoded: &[u8]) {
        key.clear();
        push_name(key, class);
        push_name(key, attr);
        key.extend_from_slice(encoded);
    }
}

/// Extract the trailing OID from an index key.
pub fn oid_suffix(key: &[u8]) -> Option<Oid> {
    if key.len() < 8 {
        return None;
    }
    let tail: [u8; 8] = key[key.len() - 8..].try_into().ok()?;
    Some(Oid::from_be_bytes(tail))
}

/// `endpoint · relclass · rel` — adjacency entry. The stored value is the
/// opposite endpoint's OID so traversals avoid a record fetch.
pub fn endpoint_key(endpoint: Oid, rel_class: &str, rel: Oid) -> Vec<u8> {
    let mut key = Vec::with_capacity(rel_class.len() + 18);
    key.extend_from_slice(&endpoint.to_be_bytes());
    push_name(&mut key, rel_class);
    key.extend_from_slice(&rel.to_be_bytes());
    key
}

/// Prefix selecting every adjacency entry of `endpoint`.
pub fn endpoint_prefix(endpoint: Oid) -> Vec<u8> {
    endpoint.to_be_bytes().to_vec()
}

/// Prefix selecting `endpoint`'s adjacency entries via `rel_class` only.
pub fn endpoint_class_prefix(endpoint: Oid, rel_class: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(rel_class.len() + 9);
    key.extend_from_slice(&endpoint.to_be_bytes());
    push_name(&mut key, rel_class);
    key
}

/// The relationship-class name of an adjacency key, borrowed from the key
/// (the rel OID is its [`oid_suffix`]).
pub fn endpoint_key_class(key: &[u8]) -> Option<&str> {
    let name_part = key.get(8..key.len().checked_sub(8)?)?;
    let name_end = name_part.iter().position(|&b| b == SEP)?;
    std::str::from_utf8(&name_part[..name_end]).ok()
}

/// `classification · origin · relclass · rel` — membership entry: the
/// member edge's [`endpoint_key`] behind its classification, so one prefix
/// scan lists a node's member children. The value is the destination's OID,
/// as in [`KS_REL_FROM`].
pub fn cls_edge_key(classification: Oid, origin: Oid, rel_class: &str, rel: Oid) -> Vec<u8> {
    let mut key = cls_prefix(classification);
    key.extend_from_slice(&endpoint_key(origin, rel_class, rel));
    key
}

/// Prefix selecting all edges of a classification.
pub fn cls_prefix(classification: Oid) -> Vec<u8> {
    classification.to_be_bytes().to_vec()
}

/// The origin of a membership key (its rel OID is the [`oid_suffix`]).
pub fn cls_edge_key_origin(key: &[u8]) -> Option<Oid> {
    let bytes: [u8; 8] = key.get(8..16)?.try_into().ok()?;
    Some(Oid::from_be_bytes(bytes))
}

/// `rel · classification` — reverse membership entry.
pub fn edge_cls_key(rel: Oid, classification: Oid) -> Vec<u8> {
    let mut key = Vec::with_capacity(16);
    key.extend_from_slice(&rel.to_be_bytes());
    key.extend_from_slice(&classification.to_be_bytes());
    key
}

/// Prefix selecting all classifications an edge belongs to.
pub fn edge_prefix(rel: Oid) -> Vec<u8> {
    rel.to_be_bytes().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_keys_group_by_class() {
        let a = extent_key("CT", Oid::from_raw(1));
        let b = extent_key("CT", Oid::from_raw(2));
        let c = extent_key("NT", Oid::from_raw(1));
        assert!(a.starts_with(&extent_prefix("CT")));
        assert!(b.starts_with(&extent_prefix("CT")));
        assert!(!c.starts_with(&extent_prefix("CT")));
        assert_eq!(oid_suffix(&a), Some(Oid::from_raw(1)));
    }

    #[test]
    fn class_prefix_does_not_capture_longer_names() {
        // "CT" must not match members of class "CTX".
        let other = extent_key("CTX", Oid::from_raw(1));
        assert!(!other.starts_with(&extent_prefix("CT")));
    }

    #[test]
    fn attr_keys_sort_by_value() {
        let k1 = attr_key("NT", "year", &Value::Int(1753), Oid::from_raw(5));
        let k2 = attr_key("NT", "year", &Value::Int(1824), Oid::from_raw(1));
        assert!(k1 < k2);
        assert!(k1.starts_with(&attr_prefix("NT", "year")));
        assert!(k1.starts_with(&attr_value_prefix("NT", "year", &Value::Int(1753))));
        assert!(!k1.starts_with(&attr_value_prefix("NT", "year", &Value::Int(1824))));
    }

    #[test]
    fn endpoint_keys_decode() {
        let key = endpoint_key(Oid::from_raw(10), "Circumscribes", Oid::from_raw(77));
        assert!(key.starts_with(&endpoint_prefix(Oid::from_raw(10))));
        assert!(key.starts_with(&endpoint_class_prefix(Oid::from_raw(10), "Circumscribes")));
        assert_eq!(endpoint_key_class(&key), Some("Circumscribes"));
        assert_eq!(oid_suffix(&key), Some(Oid::from_raw(77)));
        assert_eq!(endpoint_key_class(&key[..16]), None);
        assert_eq!(endpoint_key_class(&key[..4]), None);
    }

    #[test]
    fn endpoint_class_prefix_is_exact() {
        let key = endpoint_key(Oid::from_raw(10), "HasTypeX", Oid::from_raw(1));
        assert!(!key.starts_with(&endpoint_class_prefix(Oid::from_raw(10), "HasType")));
    }

    #[test]
    fn build_variants_match_allocating_forms() {
        let mut buf = Vec::new();
        build::extent_prefix(&mut buf, "CT");
        assert_eq!(buf, extent_prefix("CT"));
        let v = Value::Int(1753);
        let enc = build::encode_value(&v);
        build::attr_value_prefix(&mut buf, "NT", "year", &enc);
        assert_eq!(buf, attr_value_prefix("NT", "year", &v));
    }

    #[test]
    fn classification_keys() {
        let (cls, origin, rel) = (Oid::from_raw(3), Oid::from_raw(4), Oid::from_raw(9));
        let k = cls_edge_key(cls, origin, "Circumscribes", rel);
        assert!(k.starts_with(&cls_prefix(cls)));
        assert_eq!(k[8..], endpoint_key(origin, "Circumscribes", rel));
        assert_eq!(cls_edge_key_origin(&k), Some(origin));
        assert_eq!(oid_suffix(&k), Some(rel));
        assert_eq!(cls_edge_key_origin(&k[..12]), None);
        let r = edge_cls_key(rel, cls);
        assert!(r.starts_with(&edge_prefix(rel)));
        assert_eq!(oid_suffix(&r), Some(cls));
    }
}
