//! Instance synonyms (thesis §4.5).
//!
//! Two instances may be declared *synonymous*: they denote the same
//! real-world entity even though they are distinct database objects (for
//! example, the same herbarium specimen recorded by two institutions, or a
//! node reused conceptually across classifications). Synonymy is an
//! equivalence relation, implemented as a union–find structure persisted in
//! the meta keyspace.
//!
//! Three operations take a [`crate::traversal::SynonymMode`]: a traversal
//! ([`crate::traversal::traverse`]), the classification comparisons
//! (`Classification::compare` and `circumscription_overlap`) and the
//! taxonomy's synonym detection. `Ignore` treats instances literally;
//! `Transparent` makes that operation see a synonym set as one logical
//! instance. POOL queries have no such switch: they read OIDs literally.

use prometheus_storage::Oid;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Persistent union–find over OIDs.
///
/// Only non-singleton sets are stored; an OID absent from `parent` is its own
/// representative.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SynonymTable {
    parent: BTreeMap<Oid, Oid>,
}

impl SynonymTable {
    /// Empty table.
    pub fn new() -> Self {
        SynonymTable::default()
    }

    /// Canonical representative of `oid`'s synonym set.
    pub fn find(&self, oid: Oid) -> Oid {
        let mut current = oid;
        while let Some(&p) = self.parent.get(&current) {
            if p == current {
                break;
            }
            current = p;
        }
        current
    }

    /// Declare `a` and `b` synonymous (merging their sets). Returns `true`
    /// if the sets were previously distinct.
    pub fn declare(&mut self, a: Oid, b: Oid) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        // Keep the smaller OID as representative for determinism.
        let (root, child) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent.insert(child, root);
        // Path-compress the inputs.
        if a != root {
            self.parent.insert(a, root);
        }
        if b != root {
            self.parent.insert(b, root);
        }
        true
    }

    /// Whether two instances are synonymous.
    pub fn same(&self, a: Oid, b: Oid) -> bool {
        a == b || self.find(a) == self.find(b)
    }

    /// Every member of `oid`'s synonym set, including itself.
    pub fn set_of(&self, oid: Oid) -> BTreeSet<Oid> {
        let root = self.find(oid);
        let mut out: BTreeSet<Oid> = BTreeSet::new();
        out.insert(root);
        for &child in self.parent.keys() {
            if self.find(child) == root {
                out.insert(child);
            }
        }
        out.insert(oid);
        out
    }

    /// Remove `oid` from its synonym set (e.g. when the instance is deleted).
    /// Returns `true` if it was in one, so the table changed.
    pub fn dissolve(&mut self, oid: Oid) -> bool {
        // Collect the set, drop every link in it, then relink the remainder.
        // Sets are tiny in practice (a handful of duplicates).
        let members: Vec<Oid> = self.set_of(oid).into_iter().filter(|&m| m != oid).collect();
        if members.is_empty() {
            return false;
        }
        let root = self.find(oid);
        let stale: Vec<Oid> = self
            .parent
            .keys()
            .copied()
            .filter(|&child| self.find(child) == root)
            .collect();
        for child in stale {
            self.parent.remove(&child);
        }
        self.parent.remove(&oid);
        for pair in members.windows(2) {
            self.declare(pair[0], pair[1]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u64) -> Oid {
        Oid::from_raw(n)
    }

    #[test]
    fn singletons_are_their_own_representative() {
        let table = SynonymTable::new();
        assert_eq!(table.find(oid(5)), oid(5));
        assert!(table.same(oid(5), oid(5)));
        assert!(!table.same(oid(5), oid(6)));
    }

    #[test]
    fn declare_merges_sets() {
        let mut table = SynonymTable::new();
        assert!(table.declare(oid(1), oid(2)));
        assert!(!table.declare(oid(2), oid(1)), "already synonymous");
        assert!(table.same(oid(1), oid(2)));
        table.declare(oid(3), oid(4));
        assert!(!table.same(oid(1), oid(3)));
        table.declare(oid(2), oid(3));
        assert!(
            table.same(oid(1), oid(4)),
            "transitivity across merged sets"
        );
    }

    #[test]
    fn representative_is_smallest_oid() {
        let mut table = SynonymTable::new();
        table.declare(oid(9), oid(4));
        table.declare(oid(4), oid(7));
        assert_eq!(table.find(oid(9)), oid(4));
        assert_eq!(table.find(oid(7)), oid(4));
    }

    #[test]
    fn set_of_lists_all_members() {
        let mut table = SynonymTable::new();
        table.declare(oid(1), oid(2));
        table.declare(oid(2), oid(3));
        let set = table.set_of(oid(2));
        assert_eq!(
            set.into_iter().collect::<Vec<_>>(),
            vec![oid(1), oid(2), oid(3)]
        );
        assert_eq!(table.set_of(oid(10)).len(), 1);
    }

    #[test]
    fn dissolve_removes_only_the_target() {
        let mut table = SynonymTable::new();
        table.declare(oid(1), oid(2));
        table.declare(oid(2), oid(3));
        assert!(
            !table.dissolve(oid(9)),
            "a singleton leaves the table as it is"
        );
        assert!(table.dissolve(oid(2)));
        assert!(!table.same(oid(2), oid(1)));
        assert!(!table.same(oid(2), oid(3)));
        assert!(
            table.same(oid(1), oid(3)),
            "remaining members stay synonymous"
        );
    }

    #[test]
    fn serde_round_trip() {
        let mut table = SynonymTable::new();
        table.declare(oid(1), oid(2));
        let bytes = prometheus_storage::codec::to_bytes(&table).unwrap();
        let back: SynonymTable = prometheus_storage::codec::from_bytes(&bytes).unwrap();
        assert!(back.same(oid(1), oid(2)));
    }
}
