//! Classifications as first-class entities (thesis §4.6).
//!
//! A [`Classification`] is a named set of relationship instances over
//! arbitrary objects, orthogonal to the objects themselves (requirement 12).
//! Because edges — not objects — carry membership, the same object can sit
//! in any number of classifications at once (requirement 3), which is
//! exactly the multiple-overlapping-classifications structure of Figure 4.
//!
//! The type is a convenience handle over [`Database`]: structure queries
//! (roots, leaves, children, descendants), whole-graph operations (deep
//! copy for revisions, requirement 1) and comparisons (specimen-based
//! synonym detection, §2.3). Structure queries are generic over
//! [`Reader`], so they run equally against the live database or a pinned
//! snapshot view.

use crate::database::Database;
use crate::error::DbResult;
use crate::instance::RelInstance;
use crate::read::Reader;
use crate::traversal::{self, Direction, SynonymMode, TraversalSpec};
use crate::value::Value;
use parking_lot::Mutex;
use prometheus_storage::Oid;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Handle over one classification in a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    oid: Oid,
}

/// Result of comparing two classifications (or two taxa across them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassificationCompare {
    /// Objects appearing in both classifications.
    pub shared_nodes: BTreeSet<Oid>,
    /// Leaves (objects with no outgoing member edge) in both.
    pub shared_leaves: BTreeSet<Oid>,
    /// Nodes only in the first classification.
    pub only_first: BTreeSet<Oid>,
    /// Nodes only in the second.
    pub only_second: BTreeSet<Oid>,
}

impl Classification {
    /// Create a new classification.
    pub fn create(
        db: &Database,
        name: &str,
        attrs: impl IntoIterator<Item = (String, Value)>,
        strict_hierarchy: bool,
    ) -> DbResult<Self> {
        Ok(Classification {
            oid: db.create_classification(name, attrs, strict_hierarchy)?,
        })
    }

    /// Wrap an existing classification OID.
    pub fn from_oid(oid: Oid) -> Self {
        Classification { oid }
    }

    /// Look a classification up by name.
    pub fn by_name<R: Reader>(db: &R, name: &str) -> DbResult<Option<Self>> {
        Ok(db
            .classification_by_name(name)?
            .map(Classification::from_oid))
    }

    /// The classification's OID.
    pub fn oid(&self) -> Oid {
        self.oid
    }

    /// The classification's name.
    pub fn name<R: Reader>(&self, db: &R) -> DbResult<String> {
        Ok(db.classification_meta(self.oid)?.name)
    }

    /// Add an existing relationship instance as an edge.
    pub fn add_edge(&self, db: &Database, rel: Oid) -> DbResult<()> {
        db.add_edge_to_classification(self.oid, rel)
    }

    /// Create a relationship instance and add it in one step — the usual way
    /// classifications are built.
    pub fn link(
        &self,
        db: &Database,
        rel_class: &str,
        parent: Oid,
        child: Oid,
        attrs: impl IntoIterator<Item = (String, Value)>,
    ) -> DbResult<Oid> {
        db.in_unit_scope(|db| {
            let rel = db.create_relationship(rel_class, parent, child, attrs)?;
            db.add_edge_to_classification(self.oid, rel)?;
            Ok(rel)
        })
    }

    /// Remove an edge from the classification (the relationship instance
    /// survives).
    pub fn remove_edge(&self, db: &Database, rel: Oid) -> DbResult<()> {
        db.remove_edge_from_classification(self.oid, rel)
    }

    /// All member edges.
    pub fn edges<R: Reader>(&self, db: &R) -> DbResult<Vec<RelInstance>> {
        db.classification_edges(self.oid)?
            .into_iter()
            .map(|oid| db.rel(oid))
            .collect()
    }

    /// All objects participating in the classification (origins and
    /// destinations of member edges).
    pub fn nodes<R: Reader>(&self, db: &R) -> DbResult<BTreeSet<Oid>> {
        Ok(nodes_of(&db.classification_edge_endpoints(self.oid)?))
    }

    /// Nodes that are never the destination of a member edge — the tops of
    /// the hierarchy.
    pub fn roots<R: Reader>(&self, db: &R) -> DbResult<Vec<Oid>> {
        Ok(roots_of(&db.classification_edge_endpoints(self.oid)?))
    }

    /// Nodes that are never the origin of a member edge — in taxonomy, the
    /// specimens (or lowest taxa).
    pub fn leaves<R: Reader>(&self, db: &R) -> DbResult<Vec<Oid>> {
        let edges = db.classification_edge_endpoints(self.oid)?;
        let origins: BTreeSet<Oid> = edges.iter().map(|&(_, origin, _)| origin).collect();
        Ok(edges
            .iter()
            .map(|&(_, _, destination)| destination)
            .filter(|d| !origins.contains(d))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect())
    }

    /// Direct children of `node` within this classification (record-free:
    /// one scan of the membership index).
    pub fn children<R: Reader>(&self, db: &R, node: Oid) -> DbResult<Vec<Oid>> {
        let edges = db.adjacency(node, None, true, Some(self.oid))?;
        Ok(edges.into_iter().map(|(_, child)| child).collect())
    }

    /// Direct parents of `node` within this classification (at most one in a
    /// strict hierarchy).
    pub fn parents<R: Reader>(&self, db: &R, node: Oid) -> DbResult<Vec<Oid>> {
        let edges = db.adjacency(node, None, false, Some(self.oid))?;
        Ok(edges.into_iter().map(|(_, parent)| parent).collect())
    }

    /// All descendants of `node` (requirement 9: recursive exploration),
    /// optionally depth-bounded.
    pub fn descendants<R: Reader>(
        &self,
        db: &R,
        node: Oid,
        max_depth: Option<u32>,
    ) -> DbResult<Vec<Oid>> {
        let spec = TraversalSpec::closure(Vec::new())
            .in_classification(self.oid)
            .depth(1, max_depth);
        traversal::traverse(db, node, &spec)
    }

    /// All ancestors of `node`.
    pub fn ancestors<R: Reader>(
        &self,
        db: &R,
        node: Oid,
        max_depth: Option<u32>,
    ) -> DbResult<Vec<Oid>> {
        let spec = TraversalSpec::closure(Vec::new())
            .direction(Direction::Incoming)
            .in_classification(self.oid)
            .depth(1, max_depth);
        traversal::traverse(db, node, &spec)
    }

    /// The leaf set below `node` — in taxonomy, the *circumscription* of the
    /// taxon in terms of specimens, the objective basis of every comparison
    /// (§2.1.3).
    pub fn leaf_set<R: Reader>(&self, db: &R, node: Oid) -> DbResult<BTreeSet<Oid>> {
        let mut leaves = BTreeSet::new();
        let descendants = self.descendants(db, node, None)?;
        for d in descendants {
            if self.children(db, d)?.is_empty() {
                leaves.insert(d);
            }
        }
        Ok(leaves)
    }

    /// Deep-copy this classification: fresh relationship instances with the
    /// same endpoints, attributes copied, membership in a new classification.
    /// Objects are **shared**, not copied — this is what makes a revision an
    /// *overlapping* classification (§2.1.3).
    pub fn copy(&self, db: &Database, new_name: &str) -> DbResult<Classification> {
        let meta = db.classification_meta(self.oid)?;
        db.in_unit_scope(|db| {
            let copy =
                Classification::create(db, new_name, meta.attrs.clone(), meta.strict_hierarchy)?;
            for edge in self.edges(db)? {
                let attrs: BTreeMap<String, Value> = edge.attrs.clone();
                copy.link(db, &edge.class, edge.origin, edge.destination, attrs)?;
            }
            Ok(copy)
        })
    }

    /// Compare two classifications node-wise and leaf-wise. With
    /// `SynonymMode::Transparent`, instance synonyms count as the same node.
    pub fn compare<R: Reader>(
        &self,
        db: &R,
        other: &Classification,
        synonyms: SynonymMode,
    ) -> DbResult<ClassificationCompare> {
        let canon = |oid: Oid| match synonyms {
            SynonymMode::Ignore => oid,
            SynonymMode::Transparent => db.synonym_representative(oid),
        };
        let a_nodes: BTreeSet<Oid> = self.nodes(db)?.into_iter().map(canon).collect();
        let b_nodes: BTreeSet<Oid> = other.nodes(db)?.into_iter().map(canon).collect();
        let a_leaves: BTreeSet<Oid> = self.leaves(db)?.into_iter().map(canon).collect();
        let b_leaves: BTreeSet<Oid> = other.leaves(db)?.into_iter().map(canon).collect();
        Ok(ClassificationCompare {
            shared_nodes: a_nodes.intersection(&b_nodes).copied().collect(),
            shared_leaves: a_leaves.intersection(&b_leaves).copied().collect(),
            only_first: a_nodes.difference(&b_nodes).copied().collect(),
            only_second: b_nodes.difference(&a_nodes).copied().collect(),
        })
    }

    /// Degree of leaf-set overlap between a taxon here and a taxon in
    /// `other`: `(shared, only_self, only_other)`. Full synonymy means both
    /// "only" sets are empty; *pro parte* synonymy means `shared` is
    /// non-empty but so is at least one "only" set (§2.1.3).
    pub fn circumscription_overlap<R: Reader>(
        &self,
        db: &R,
        node: Oid,
        other: &Classification,
        other_node: Oid,
        synonyms: SynonymMode,
    ) -> DbResult<(usize, usize, usize)> {
        let canon = |oid: Oid| match synonyms {
            SynonymMode::Ignore => oid,
            SynonymMode::Transparent => db.synonym_representative(oid),
        };
        let a: BTreeSet<Oid> = self.leaf_set(db, node)?.into_iter().map(canon).collect();
        let b: BTreeSet<Oid> = other
            .leaf_set(db, other_node)?
            .into_iter()
            .map(canon)
            .collect();
        let shared = a.intersection(&b).count();
        Ok((shared, a.len() - shared, b.len() - shared))
    }

    /// Extract the subtree under `node` into a new classification — POOL's
    /// graph-extraction operator uses this.
    pub fn extract_subtree(
        &self,
        db: &Database,
        node: Oid,
        new_name: &str,
    ) -> DbResult<Classification> {
        let meta = db.classification_meta(self.oid)?;
        db.in_unit_scope(|db| {
            let sub =
                Classification::create(db, new_name, meta.attrs.clone(), meta.strict_hierarchy)?;
            let mut stack = vec![node];
            let mut seen: BTreeSet<Oid> = BTreeSet::new();
            while let Some(current) = stack.pop() {
                if !seen.insert(current) {
                    continue;
                }
                for (edge, child) in db.adjacency(current, None, true, Some(self.oid))? {
                    sub.add_edge(db, edge)?;
                    stack.push(child);
                }
            }
            Ok(sub)
        })
    }

    /// Verify the classification is structurally sound: acyclic and (if
    /// strict) single-parented. Returns problem descriptions — the same ones
    /// [`Classification::check_integrity_full`] returns.
    ///
    /// On a reader that keeps [`SoundClassifications`] (a [`Database`] with
    /// no unit bound to the calling thread), a classification a full check
    /// found sound answers from the set; otherwise the full check runs, and
    /// a clean result joins the set.
    pub fn check_integrity<R: Reader>(&self, db: &R) -> DbResult<Vec<String>> {
        let Some(sound) = db.sound_classifications() else {
            return self.check_integrity_full(db);
        };
        // A deleted classification is `NotFound` here too, as in the full
        // check, whatever the set still holds.
        db.classification_meta(self.oid)?;
        if sound.contains(self.oid) {
            return Ok(Vec::new());
        }
        let clears = sound.clears();
        let problems = self.check_integrity_full(db)?;
        if problems.is_empty() {
            sound.record(self.oid, clears);
        }
        Ok(problems)
    }

    /// [`Classification::check_integrity`] from the whole member list: the
    /// thesis' revalidation, whose cost follows the classification's size,
    /// and the oracle for member entries written straight to the store.
    pub fn check_integrity_full<R: Reader>(&self, db: &R) -> DbResult<Vec<String>> {
        let mut problems = Vec::new();
        let meta = db.classification_meta(self.oid)?;
        // One read of the member list; every structure below derives from it.
        let edges = db.classification_edge_endpoints(self.oid)?;
        if meta.strict_hierarchy {
            let mut parent_count: BTreeMap<Oid, usize> = BTreeMap::new();
            for &(_, _, destination) in &edges {
                *parent_count.entry(destination).or_default() += 1;
            }
            for (node, count) in parent_count {
                if count > 1 {
                    problems.push(format!("node {node} has {count} parents"));
                }
            }
        }
        // Cycle check over the member list alone: walk from each root; if
        // some node is never reached and edges exist, there is a cycle among
        // the rest.
        let children = children_of(&edges);
        let roots = roots_of(&edges);
        let mut reached: BTreeSet<Oid> = roots.iter().copied().collect();
        let mut stack = roots.clone();
        while let Some(node) = stack.pop() {
            for &child in children.get(&node).into_iter().flatten() {
                if reached.insert(child) {
                    stack.push(child);
                }
            }
        }
        let nodes = nodes_of(&edges);
        let unreached: Vec<&Oid> = nodes.difference(&reached).collect();
        // A cycle a root reaches leaves no node unreached: only the member
        // edges failing to peel (Kahn) show it.
        if unreached.is_empty() && !is_acyclic(&edges, roots, &children) {
            problems.push("a cycle is reachable from a root".to_string());
        }
        for node in unreached {
            problems.push(format!("node {node} is unreachable from any root (cycle)"));
        }
        Ok(problems)
    }
}

/// Each origin's destinations over `(edge, origin, destination)` triples.
fn children_of(edges: &[(Oid, Oid, Oid)]) -> HashMap<Oid, Vec<Oid>> {
    let mut children: HashMap<Oid, Vec<Oid>> = HashMap::new();
    for &(_, origin, destination) in edges {
        children.entry(origin).or_default().push(destination);
    }
    children
}

/// Whether `(edge, origin, destination)` triples form no cycle: peel edges
/// from the roots down (Kahn); an edge never peeled lies on or below a cycle.
/// Each node is made ready once, when its last parent edge is peeled.
fn is_acyclic(
    edges: &[(Oid, Oid, Oid)],
    roots: Vec<Oid>,
    children: &HashMap<Oid, Vec<Oid>>,
) -> bool {
    let mut parents: HashMap<Oid, usize> = HashMap::new();
    for &(_, _, destination) in edges {
        *parents.entry(destination).or_default() += 1;
    }
    let mut ready = roots;
    let mut peeled = 0;
    while let Some(node) = ready.pop() {
        for child in children.get(&node).into_iter().flatten() {
            peeled += 1;
            let left = parents
                .get_mut(child)
                .expect("every destination is counted");
            *left -= 1;
            if *left == 0 {
                ready.push(*child);
            }
        }
    }
    peeled == edges.len()
}

/// The classifications a full check found sound in committed state, which
/// [`Classification::check_integrity`] answers from. A [`Database`] owns one
/// (see [`Reader::sound_classifications`]); nothing else does.
///
/// An entry stays true while every member edge arrives through
/// [`Database::add_edge_to_classification`]: removing an edge cannot make a
/// classification unsound, and a link that would is refused.
/// [`Database::refresh`], which a write that bypassed the link owes the
/// database, clears the set; [`Database::delete_classification`] drops its
/// entry.
#[derive(Debug, Default)]
pub struct SoundClassifications {
    /// The set, and how many times `refresh` cleared it.
    inner: Mutex<(HashSet<Oid>, u64)>,
}

impl SoundClassifications {
    /// Whether a full check found `cls` sound.
    pub fn contains(&self, cls: Oid) -> bool {
        self.inner.lock().0.contains(&cls)
    }

    /// How many times the set was cleared, read before a full check starts.
    fn clears(&self) -> u64 {
        self.inner.lock().1
    }

    /// Record that a full check which started at `clears` found `cls`
    /// sound — unless the set was cleared since, when the state it read may
    /// be gone.
    fn record(&self, cls: Oid, clears: u64) {
        let mut inner = self.inner.lock();
        if inner.1 == clears {
            inner.0.insert(cls);
        }
    }

    pub(crate) fn remove(&self, cls: Oid) {
        self.inner.lock().0.remove(&cls);
    }

    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.0.clear();
        inner.1 += 1;
    }
}

/// The endpoints of `(edge, origin, destination)` triples.
fn nodes_of(edges: &[(Oid, Oid, Oid)]) -> BTreeSet<Oid> {
    edges
        .iter()
        .flat_map(|&(_, origin, destination)| [origin, destination])
        .collect()
}

/// The origins that are no triple's destination, ascending.
fn roots_of(edges: &[(Oid, Oid, Oid)]) -> Vec<Oid> {
    let dests: BTreeSet<Oid> = edges.iter().map(|&(_, _, d)| d).collect();
    edges
        .iter()
        .map(|&(_, origin, _)| origin)
        .filter(|o| !dests.contains(o))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

impl From<Classification> for Oid {
    fn from(c: Classification) -> Oid {
        c.oid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::temp_db;
    use crate::database::Database;
    use crate::error::DbError;
    use crate::schema::{AttrDef, ClassDef, RelClassDef};
    use crate::value::Type;

    fn shapes_db() -> Database {
        let db = temp_db();
        db.define_class(ClassDef::new("Taxon").attr(AttrDef::required("name", Type::Str)))
            .unwrap();
        db.define_class(ClassDef::new("Specimen").attr(AttrDef::required("code", Type::Str)))
            .unwrap();
        db.define_relationship(
            RelClassDef::aggregation("Circ", "Taxon", "Object")
                .sharable(true)
                .acyclic(true),
        )
        .unwrap();
        db
    }

    fn taxon(db: &Database, name: &str) -> Oid {
        db.create_object("Taxon", vec![("name".to_string(), Value::from(name))])
            .unwrap()
    }

    fn specimen(db: &Database, code: &str) -> Oid {
        db.create_object("Specimen", vec![("code".to_string(), Value::from(code))])
            .unwrap()
    }

    /// Figure 4, top-left: Shapes > {Squares, Triangles, Ovals} > specimens.
    fn first_classification(db: &Database) -> (Classification, BTreeMap<&'static str, Oid>) {
        let cls = Classification::create(db, "taxonomist-1", Vec::new(), true).unwrap();
        let shapes = taxon(db, "Shapes");
        let squares = taxon(db, "Squares");
        let triangles = taxon(db, "Triangles");
        let ovals = taxon(db, "Ovals");
        let ws = specimen(db, "white-square");
        let gt = specimen(db, "grey-triangle");
        let bo = specimen(db, "black-oval");
        for (parent, child) in [
            (shapes, squares),
            (shapes, triangles),
            (shapes, ovals),
            (squares, ws),
            (triangles, gt),
            (ovals, bo),
        ] {
            cls.link(db, "Circ", parent, child, Vec::new()).unwrap();
        }
        let mut map = BTreeMap::new();
        map.insert("shapes", shapes);
        map.insert("squares", squares);
        map.insert("triangles", triangles);
        map.insert("ovals", ovals);
        map.insert("white-square", ws);
        map.insert("grey-triangle", gt);
        map.insert("black-oval", bo);
        (cls, map)
    }

    #[test]
    fn structure_queries() {
        let db = shapes_db();
        let (cls, m) = first_classification(&db);
        assert_eq!(cls.roots(&db).unwrap(), vec![m["shapes"]]);
        let leaves = cls.leaves(&db).unwrap();
        assert_eq!(leaves.len(), 3);
        assert!(leaves.contains(&m["white-square"]));
        let children = cls.children(&db, m["shapes"]).unwrap();
        assert_eq!(children.len(), 3);
        assert_eq!(cls.parents(&db, m["squares"]).unwrap(), vec![m["shapes"]]);
        let desc = cls.descendants(&db, m["shapes"], None).unwrap();
        assert_eq!(desc.len(), 6);
        let anc = cls.ancestors(&db, m["white-square"], None).unwrap();
        assert_eq!(anc, vec![m["squares"], m["shapes"]]);
    }

    #[test]
    fn leaf_set_is_the_circumscription() {
        let db = shapes_db();
        let (cls, m) = first_classification(&db);
        let circ = cls.leaf_set(&db, m["shapes"]).unwrap();
        assert_eq!(circ.len(), 3);
        let circ = cls.leaf_set(&db, m["squares"]).unwrap();
        assert_eq!(
            circ.into_iter().collect::<Vec<_>>(),
            vec![m["white-square"]]
        );
    }

    #[test]
    fn overlapping_classifications_share_objects() {
        let db = shapes_db();
        let (cls1, m) = first_classification(&db);
        // Taxonomist 3 reclassifies by brightness: same specimens, new taxa.
        let cls2 = Classification::create(&db, "taxonomist-3", Vec::new(), true).unwrap();
        let bright = taxon(&db, "Bright");
        let dark = taxon(&db, "Dark");
        let all = taxon(&db, "Shades");
        cls2.link(&db, "Circ", all, bright, Vec::new()).unwrap();
        cls2.link(&db, "Circ", all, dark, Vec::new()).unwrap();
        cls2.link(&db, "Circ", bright, m["white-square"], Vec::new())
            .unwrap();
        cls2.link(&db, "Circ", dark, m["grey-triangle"], Vec::new())
            .unwrap();
        cls2.link(&db, "Circ", dark, m["black-oval"], Vec::new())
            .unwrap();
        // The specimen sits in both hierarchies simultaneously.
        let cmp = cls1.compare(&db, &cls2, SynonymMode::Ignore).unwrap();
        assert_eq!(cmp.shared_leaves.len(), 3, "all specimens shared");
        assert!(cmp.shared_nodes.contains(&m["white-square"]));
        assert!(cmp.only_first.contains(&m["squares"]));
        assert!(cmp.only_second.contains(&bright));
        // Circumscription overlap: Squares (1 specimen) vs Bright (1 specimen).
        let (shared, only_a, only_b) = cls1
            .circumscription_overlap(&db, m["squares"], &cls2, bright, SynonymMode::Ignore)
            .unwrap();
        assert_eq!((shared, only_a, only_b), (1, 0, 0), "full synonyms");
        // Squares vs Dark: disjoint.
        let (shared, _, _) = cls1
            .circumscription_overlap(&db, m["squares"], &cls2, dark, SynonymMode::Ignore)
            .unwrap();
        assert_eq!(shared, 0);
    }

    #[test]
    fn copy_creates_independent_overlapping_revision() {
        let db = shapes_db();
        let (cls1, m) = first_classification(&db);
        let cls2 = cls1.copy(&db, "revision").unwrap();
        assert_eq!(cls2.name(&db).unwrap(), "revision");
        assert_eq!(
            cls2.edges(&db).unwrap().len(),
            cls1.edges(&db).unwrap().len()
        );
        // Same nodes (objects shared), different edges.
        let e1: BTreeSet<Oid> = cls1.edges(&db).unwrap().iter().map(|e| e.oid).collect();
        let e2: BTreeSet<Oid> = cls2.edges(&db).unwrap().iter().map(|e| e.oid).collect();
        assert!(e1.is_disjoint(&e2));
        assert_eq!(cls1.nodes(&db).unwrap(), cls2.nodes(&db).unwrap());
        // Mutating the copy leaves the original intact.
        let new_taxon = taxon(&db, "Rectangles");
        let edge = cls2
            .link(&db, "Circ", m["shapes"], new_taxon, Vec::new())
            .unwrap();
        assert!(db.edge_in_classification(cls2.oid(), edge));
        assert_eq!(cls1.descendants(&db, m["shapes"], None).unwrap().len(), 6);
        assert_eq!(cls2.descendants(&db, m["shapes"], None).unwrap().len(), 7);
    }

    #[test]
    fn extract_subtree() {
        let db = shapes_db();
        let (cls, m) = first_classification(&db);
        let sub = cls
            .extract_subtree(&db, m["squares"], "just-squares")
            .unwrap();
        assert_eq!(sub.edges(&db).unwrap().len(), 1);
        assert_eq!(sub.roots(&db).unwrap(), vec![m["squares"]]);
        // Shared edges: removing from the extract does not affect the source.
        let edge = sub.edges(&db).unwrap()[0].oid;
        sub.remove_edge(&db, edge).unwrap();
        assert!(db.edge_in_classification(cls.oid(), edge));
    }

    #[test]
    fn integrity_check_flags_multi_parents_in_lenient_mode() {
        let db = shapes_db();
        let cls = Classification::create(&db, "lenient", Vec::new(), false).unwrap();
        let a = taxon(&db, "a");
        let b = taxon(&db, "b");
        let c = taxon(&db, "c");
        cls.link(&db, "Circ", a, c, Vec::new()).unwrap();
        cls.link(&db, "Circ", b, c, Vec::new()).unwrap();
        // Lenient classifications accept this; check_integrity only reports
        // against the strict flag, so no problem is raised here.
        assert!(cls.check_integrity(&db).unwrap().is_empty());
        let strict = Classification::create(&db, "strict", Vec::new(), true).unwrap();
        let d = taxon(&db, "d");
        let edge = db.create_relationship("Circ", a, d, Vec::new()).unwrap();
        strict.add_edge(&db, edge).unwrap();
        assert!(strict.check_integrity(&db).unwrap().is_empty());
    }

    /// An association class, which refuses no cycle of its own: what
    /// guards a classification over it is the link.
    fn with_cites(db: &Database) -> [Oid; 4] {
        db.define_relationship(RelClassDef::association("Cites", "Object", "Object"))
            .unwrap();
        ["x", "y", "z", "w"].map(|name| taxon(db, name))
    }

    fn refused(result: DbResult<Oid>) -> bool {
        matches!(result, Err(DbError::Classification(_)))
    }

    #[test]
    fn a_strict_link_that_closes_a_cycle_is_refused() {
        let db = shapes_db();
        let [x, y, ..] = with_cites(&db);
        let cls = Classification::create(&db, "strict", Vec::new(), true).unwrap();
        cls.link(&db, "Cites", x, y, Vec::new()).unwrap();
        assert!(refused(cls.link(&db, "Cites", y, x, Vec::new())));
        assert!(refused(cls.link(&db, "Cites", x, x, Vec::new())));
        // The refused links undid themselves, relationship included.
        assert_eq!(db.extent("Cites", false).unwrap().len(), 1);
        assert!(cls.check_integrity(&db).unwrap().is_empty());
    }

    #[test]
    fn a_lenient_link_that_closes_a_three_cycle_is_refused() {
        let db = shapes_db();
        let [x, y, z, w] = with_cites(&db);
        let cls = Classification::create(&db, "lenient", Vec::new(), false).unwrap();
        cls.link(&db, "Cites", x, y, Vec::new()).unwrap();
        cls.link(&db, "Cites", y, z, Vec::new()).unwrap();
        // A second parent is still a lenient classification's to hold.
        cls.link(&db, "Cites", w, z, Vec::new()).unwrap();
        assert!(refused(cls.link(&db, "Cites", z, x, Vec::new())));
        assert!(refused(cls.link(&db, "Cites", z, w, Vec::new())));
        assert_eq!(cls.edges(&db).unwrap().len(), 3);
        assert!(cls.check_integrity_full(&db).unwrap().is_empty());
    }

    #[test]
    fn a_cycle_closed_against_an_edge_staged_in_the_same_unit_is_refused() {
        let db = shapes_db();
        let [x, y, ..] = with_cites(&db);
        let cls = Classification::create(&db, "strict", Vec::new(), true).unwrap();
        let token = db.begin_unit();
        let kept = cls.link(&db, "Cites", x, y, Vec::new()).unwrap();
        assert!(refused(cls.link(&db, "Cites", y, x, Vec::new())));
        assert!(db.in_unit(), "a refused link left its unit");
        db.commit_unit(token).unwrap();
        let edges: Vec<Oid> = cls.edges(&db).unwrap().iter().map(|e| e.oid).collect();
        assert_eq!(edges, vec![kept]);
    }

    /// At commit, links `(from, to)` into `cls`.
    struct LinkAtCommit {
        cls: Classification,
        from: Oid,
        to: Oid,
    }

    impl crate::events::EventListener for LinkAtCommit {
        fn at_commit(&self, db: &Database, _events: &[crate::events::Event]) -> DbResult<()> {
            self.cls
                .link(db, "Cites", self.from, self.to, Vec::new())
                .map(drop)
        }
    }

    #[test]
    fn a_cycle_closed_by_an_at_commit_link_rolls_the_unit_back() {
        let db = shapes_db();
        let [x, y, ..] = with_cites(&db);
        let cls = Classification::create(&db, "strict", Vec::new(), true).unwrap();
        db.add_listener(std::sync::Arc::new(LinkAtCommit {
            cls,
            from: y,
            to: x,
        }));
        let token = db.begin_unit();
        cls.link(&db, "Cites", x, y, Vec::new()).unwrap();
        let err = db.commit_unit(token).unwrap_err();
        assert!(matches!(err, DbError::Classification(_)), "{err}");
        assert!(!db.in_unit());
        assert!(cls.edges(&db).unwrap().is_empty());
        assert!(db.extent("Cites", false).unwrap().is_empty());
    }

    /// A lenient cycle a root reaches, written straight to the store as a log
    /// from before links refused cycles holds it: both checks report it once
    /// the database hears of the write, and neither once an edge of it is
    /// removed through the API.
    #[test]
    fn a_lenient_cycle_from_an_older_log_is_reported_by_both_checks() {
        use crate::index::{self, KS_CLS_EDGES, KS_EDGE_CLS};
        let db = shapes_db();
        let [root, a, b, _] = with_cites(&db);
        let cls = Classification::create(&db, "lenient", Vec::new(), false).unwrap();
        cls.link(&db, "Cites", root, a, Vec::new()).unwrap();
        let closing = cls.link(&db, "Cites", a, b, Vec::new()).unwrap();
        assert!(cls.check_integrity(&db).unwrap().is_empty());
        let back = db.create_relationship("Cites", b, a, Vec::new()).unwrap();
        db.store()
            .with_txn(|t| {
                let key = index::cls_edge_key(cls.oid(), b, "Cites", back);
                t.kv_put(KS_CLS_EDGES, key, a.to_be_bytes().to_vec());
                t.kv_put(
                    KS_EDGE_CLS,
                    index::edge_cls_key(back, cls.oid()),
                    Vec::new(),
                );
                Ok(())
            })
            .unwrap();
        db.refresh().unwrap();
        let full = cls.check_integrity_full(&db).unwrap();
        assert_eq!(full, vec!["a cycle is reachable from a root".to_string()]);
        assert_eq!(cls.check_integrity(&db).unwrap(), full);
        cls.remove_edge(&db, closing).unwrap();
        assert!(cls.check_integrity_full(&db).unwrap().is_empty());
        assert!(cls.check_integrity(&db).unwrap().is_empty());
    }

    #[test]
    fn traceability_attrs_are_preserved() {
        let db = shapes_db();
        let cls = Classification::create(
            &db,
            "published",
            vec![
                ("author".to_string(), Value::from("Linnaeus")),
                ("criteria".to_string(), Value::from("leaf shape")),
            ],
            true,
        )
        .unwrap();
        let meta = db.classification_meta(cls.oid()).unwrap();
        assert_eq!(meta.attrs.get("author"), Some(&Value::from("Linnaeus")));
        let a = taxon(&db, "a");
        let b = taxon(&db, "b");
        let edge = cls
            .link(
                &db,
                "Circ",
                a,
                b,
                vec![("".to_string(), Value::Null)]
                    .into_iter()
                    .filter(|_| false)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert!(db.rel(edge).is_ok());
    }
}
