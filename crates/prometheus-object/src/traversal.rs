//! Generic graph traversal over relationship instances.
//!
//! Implements the recursive-exploration requirement (requirement 9):
//! classification descendants and ancestors and POOL's recursive path
//! operator (`->*`, `->[a..b]`) are each one [`traverse`] with a
//! [`TraversalSpec`].
//!
//! A traversal is one breadth-first walk that expands each frontier node
//! through [`Reader::adjacency`]. It is cycle-safe, honours depth bounds
//! (`min_depth..=max_depth`, giving POOL its `[a..b]` depth-controlled path
//! expressions), can be scoped to a single classification (querying *in
//! context*, §4.6.2), and can treat instance synonyms transparently (§4.5).
//!
//! [`closes_cycle`] is the one cycle check: an early-exit climb that both
//! an acyclic relationship class and a classification run before a link.

use crate::error::DbResult;
use crate::morsel;
use crate::read::Reader;
use prometheus_storage::Oid;
use std::collections::BTreeSet;

/// Which way to walk relationship instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow origin → destination (e.g. taxon → its circumscribed children).
    Outgoing,
    /// Follow destination → origin (e.g. specimen → the taxa containing it).
    Incoming,
}

/// How instance synonyms participate in a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynonymMode {
    /// Treat every OID literally.
    Ignore,
    /// Treat a synonym set as one logical node: edges incident to any member
    /// are followed, and visited-tracking collapses the set.
    Transparent,
}

/// Parameters of one traversal.
#[derive(Debug, Clone)]
pub struct TraversalSpec {
    /// Relationship classes to follow, each with its subclasses (a listed
    /// class matches polymorphically); empty means *all*.
    pub rel_classes: Vec<String>,
    pub direction: Direction,
    /// Minimum depth for a node to be reported (1 = direct neighbours;
    /// 0 additionally reports the start node).
    pub min_depth: u32,
    /// Maximum depth to explore; `None` = unbounded (transitive closure).
    pub max_depth: Option<u32>,
    /// Restrict to edges belonging to this classification.
    pub classification: Option<Oid>,
    pub synonyms: SynonymMode,
}

impl TraversalSpec {
    /// Unbounded outgoing closure over the given relationship classes.
    pub fn closure(rel_classes: impl IntoIterator<Item = String>) -> Self {
        TraversalSpec {
            rel_classes: rel_classes.into_iter().collect(),
            direction: Direction::Outgoing,
            min_depth: 1,
            max_depth: None,
            classification: None,
            synonyms: SynonymMode::Ignore,
        }
    }

    /// Builder-style adjustments.
    pub fn direction(mut self, d: Direction) -> Self {
        self.direction = d;
        self
    }
    pub fn depth(mut self, min: u32, max: Option<u32>) -> Self {
        self.min_depth = min;
        self.max_depth = max;
        self
    }
    pub fn in_classification(mut self, cls: Oid) -> Self {
        self.classification = Some(cls);
        self
    }
    pub fn synonym_mode(mut self, mode: SynonymMode) -> Self {
        self.synonyms = mode;
        self
    }
}

/// Breadth-first traversal from `start` according to `spec`.
///
/// Returns each reachable node exactly once, in discovery order — so by
/// increasing depth. Nodes shallower than `min_depth` are explored but not
/// reported.
///
/// Generic over [`Reader`]: run it against the live `Database` or against a
/// pinned `ReadView` for a traversal over one consistent snapshot.
pub fn traverse<R: Reader>(db: &R, start: Oid, spec: &TraversalSpec) -> DbResult<Vec<Oid>> {
    Ok(traverse_with(db, start, spec, 1)?.0)
}

/// Items per frontier morsel. Expanding one node costs several index scans,
/// so morsels are much smaller than the executor's filter morsels.
const FRONTIER_MORSEL: usize = 16;

/// [`traverse`] with a worker budget: each BFS level's frontier is expanded
/// morsel-parallel, and the expansions are merged in frontier order before
/// the visited-set is updated sequentially. Level-by-level expansion in
/// frontier order discovers exactly the nodes of the FIFO walk in the same
/// order, so the result is identical for every worker count. Also returns
/// the number of frontier morsels expanded in parallel (0 when the walk
/// stayed sequential).
pub fn traverse_with<R: Reader>(
    db: &R,
    start: Oid,
    spec: &TraversalSpec,
    workers: usize,
) -> DbResult<(Vec<Oid>, u64)> {
    let canon = |oid: Oid| match spec.synonyms {
        SynonymMode::Ignore => oid,
        SynonymMode::Transparent => db.synonym_representative(oid),
    };
    // Subclass-expand the class filter once per traversal; `None` = all.
    let classes: Vec<Option<String>> = if spec.rel_classes.is_empty() {
        vec![None]
    } else {
        db.with_schema(|s| {
            spec.rel_classes
                .iter()
                .flat_map(|class| s.with_subclasses(class))
                .map(Some)
                .collect()
        })
    };
    let mut out = Vec::new();
    let mut visited: BTreeSet<Oid> = BTreeSet::new();
    visited.insert(canon(start));
    let mut level = vec![start];
    let mut depth = 0u32;
    let mut parallel_morsels = 0u64;
    while !level.is_empty() {
        if depth >= spec.min_depth {
            out.extend_from_slice(&level);
        }
        if spec.max_depth.is_some_and(|max| depth >= max) {
            break;
        }
        let run = morsel::run(&level, workers, FRONTIER_MORSEL, |chunk| {
            let mut next = Vec::new();
            for &node in chunk {
                expand(db, node, &classes, spec, &mut next)?;
            }
            Ok(next)
        })?;
        parallel_morsels += run.parallel_morsels;
        level = run
            .output
            .into_iter()
            .filter(|&next| visited.insert(canon(next)))
            .collect();
        depth += 1;
    }
    Ok((out, parallel_morsels))
}

/// Push the nodes one admitted edge away from `node` onto `out`: for each
/// source (the node, or its synonym set under [`SynonymMode::Transparent`]),
/// for each class of the pre-expanded `classes`, the opposite endpoints
/// [`Reader::adjacency`] lists in `spec`'s classification (if any).
fn expand<R: Reader>(
    db: &R,
    node: Oid,
    classes: &[Option<String>],
    spec: &TraversalSpec,
    out: &mut Vec<Oid>,
) -> DbResult<()> {
    let synonym_set;
    let sources = match spec.synonyms {
        SynonymMode::Ignore => std::slice::from_ref(&node),
        SynonymMode::Transparent => {
            synonym_set = db.synonym_set(node);
            synonym_set.as_slice()
        }
    };
    let outgoing = spec.direction == Direction::Outgoing;
    for &source in sources {
        for class in classes {
            let edges = db.adjacency(source, class.as_deref(), outgoing, spec.classification)?;
            out.extend(edges.into_iter().map(|(_, next)| next));
        }
    }
    Ok(())
}

/// Whether the edge `origin → destination` would close a cycle over the
/// edges of exactly `class` (all classes when `None`), within `scope`'s
/// member edges when one is given: `destination` is `origin` or one of
/// `origin`'s ancestors there. The one walk that guards every acyclic link —
/// an `acyclic` relationship class's (§4.4.1) and a classification's (§4.6)
/// — record-free over [`Reader::adjacency`]: a scan of `destination`'s
/// outgoing edges and, only if it has any, a climb up from `origin` that
/// stops as soon as it meets `destination`.
pub fn closes_cycle<R: Reader>(
    db: &R,
    origin: Oid,
    destination: Oid,
    class: Option<&str>,
    scope: Option<Oid>,
) -> DbResult<bool> {
    if origin == destination {
        return Ok(true);
    }
    // A node with no outgoing edge is nobody's ancestor: a link that
    // attaches a new or leaf node stops at this one scan.
    if db.adjacency(destination, class, true, scope)?.is_empty() {
        return Ok(false);
    }
    let mut visited = BTreeSet::from([origin]);
    let mut stack = vec![origin];
    while let Some(node) = stack.pop() {
        for (_, parent) in db.adjacency(node, class, false, scope)? {
            if parent == destination {
                return Ok(true);
            }
            if visited.insert(parent) {
                stack.push(parent);
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::temp_db;
    use crate::database::Database;
    use crate::schema::{ClassDef, RelClassDef};

    /// a -> b -> c, a -> d, plus an association d -> c.
    fn diamond() -> (Database, [Oid; 4]) {
        let db = temp_db();
        db.define_class(ClassDef::new("N")).unwrap();
        db.define_relationship(RelClassDef::aggregation("Tree", "N", "N").sharable(true))
            .unwrap();
        db.define_relationship(RelClassDef::association("Link", "N", "N"))
            .unwrap();
        let a = db.create_object("N", Vec::new()).unwrap();
        let b = db.create_object("N", Vec::new()).unwrap();
        let c = db.create_object("N", Vec::new()).unwrap();
        let d = db.create_object("N", Vec::new()).unwrap();
        db.create_relationship("Tree", a, b, Vec::new()).unwrap();
        db.create_relationship("Tree", b, c, Vec::new()).unwrap();
        db.create_relationship("Tree", a, d, Vec::new()).unwrap();
        db.create_relationship("Link", d, c, Vec::new()).unwrap();
        (db, [a, b, c, d])
    }

    #[test]
    fn closure_reaches_everything_via_all_classes() {
        let (db, [a, b, c, d]) = diamond();
        let nodes = traverse(&db, a, &TraversalSpec::closure(Vec::new())).unwrap();
        assert_eq!(nodes.len(), 3);
        assert!(nodes.contains(&b) && nodes.contains(&c) && nodes.contains(&d));
    }

    #[test]
    fn class_filter_restricts_edges() {
        let (db, [_a, _b, c, d]) = diamond();
        // Only Link edges from d.
        let nodes = traverse(&db, d, &TraversalSpec::closure(vec!["Link".into()])).unwrap();
        assert_eq!(nodes, vec![c]);
        // Only Tree edges from d: none.
        let nodes = traverse(&db, d, &TraversalSpec::closure(vec!["Tree".into()])).unwrap();
        assert!(nodes.is_empty());
    }

    #[test]
    fn depth_bounds_are_honoured() {
        let (db, [a, b, c, d]) = diamond();
        let set = |min, max| -> BTreeSet<Oid> {
            let spec = TraversalSpec::closure(vec!["Tree".into()]).depth(min, max);
            traverse(&db, a, &spec).unwrap().into_iter().collect()
        };
        assert_eq!(set(1, Some(1)), BTreeSet::from([b, d]));
        // min_depth 2 skips direct children: c is the only node at depth 2.
        assert_eq!(set(2, None), BTreeSet::from([c]));
        // depth 0 includes the start node.
        assert_eq!(set(0, Some(0)), BTreeSet::from([a]));
        assert_eq!(set(0, None), BTreeSet::from([a, b, c, d]));
    }

    #[test]
    fn incoming_direction_walks_up() {
        let (db, [a, _b, c, _d]) = diamond();
        let spec = TraversalSpec::closure(Vec::new()).direction(Direction::Incoming);
        let nodes = traverse(&db, c, &spec).unwrap();
        assert!(nodes.contains(&a), "must reach the root upward");
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn cycles_terminate() {
        let db = temp_db();
        db.define_class(ClassDef::new("N")).unwrap();
        db.define_relationship(RelClassDef::association("Next", "N", "N"))
            .unwrap();
        let a = db.create_object("N", Vec::new()).unwrap();
        let b = db.create_object("N", Vec::new()).unwrap();
        db.create_relationship("Next", a, b, Vec::new()).unwrap();
        db.create_relationship("Next", b, a, Vec::new()).unwrap();
        let nodes = traverse(&db, a, &TraversalSpec::closure(vec!["Next".into()])).unwrap();
        assert_eq!(nodes, vec![b], "each node reported once despite the cycle");
    }

    #[test]
    fn classification_scope_filters_edges() {
        let (db, [a, b, _c, d]) = diamond();
        let cls = db
            .create_classification("only-ab", Vec::new(), false)
            .unwrap();
        let edge_ab = db.rels_from(a, Some("Tree")).unwrap();
        let ab = edge_ab.iter().find(|e| e.destination == b).unwrap().oid;
        db.add_edge_to_classification(cls, ab).unwrap();
        let spec = TraversalSpec::closure(Vec::new()).in_classification(cls);
        assert_eq!(traverse(&db, a, &spec).unwrap(), vec![b]);
        let _ = d;
    }

    #[test]
    fn transparent_synonyms_bridge_edges() {
        let db = temp_db();
        db.define_class(ClassDef::new("N")).unwrap();
        db.define_relationship(RelClassDef::association("Next", "N", "N"))
            .unwrap();
        // a -> b ; b' -> c with b ≡ b'.
        let a = db.create_object("N", Vec::new()).unwrap();
        let b = db.create_object("N", Vec::new()).unwrap();
        let b2 = db.create_object("N", Vec::new()).unwrap();
        let c = db.create_object("N", Vec::new()).unwrap();
        db.create_relationship("Next", a, b, Vec::new()).unwrap();
        db.create_relationship("Next", b2, c, Vec::new()).unwrap();
        db.declare_synonym(b, b2).unwrap();
        let ignore = traverse(&db, a, &TraversalSpec::closure(vec!["Next".into()])).unwrap();
        assert_eq!(ignore.len(), 1, "without synonyms the walk stops at b");
        let spec =
            TraversalSpec::closure(vec!["Next".into()]).synonym_mode(SynonymMode::Transparent);
        let nodes = traverse(&db, a, &spec).unwrap();
        assert!(nodes.contains(&c), "synonym set bridges to c");
    }

    #[test]
    fn subclass_edges_are_followed_when_requested() {
        // A listed class always matches its subclasses.
        let db = temp_db();
        db.define_class(ClassDef::new("N")).unwrap();
        db.define_relationship(RelClassDef::association("Base", "N", "N"))
            .unwrap();
        db.define_relationship(RelClassDef::association("Derived", "N", "N").extends("Base"))
            .unwrap();
        let a = db.create_object("N", Vec::new()).unwrap();
        let b = db.create_object("N", Vec::new()).unwrap();
        db.create_relationship("Derived", a, b, Vec::new()).unwrap();
        let poly = traverse(&db, a, &TraversalSpec::closure(vec!["Base".into()])).unwrap();
        assert_eq!(poly, vec![b]);
    }

    #[test]
    fn parallel_traversal_matches_sequential_exactly() {
        // A dense layered graph big enough that several frontier morsels
        // actually run in parallel (frontier width > FRONTIER_MORSEL).
        let db = temp_db();
        db.define_class(ClassDef::new("N")).unwrap();
        db.define_relationship(RelClassDef::association("E", "N", "N"))
            .unwrap();
        let layers: Vec<Vec<Oid>> = (0..3)
            .map(|i| {
                (0..(20 + i * 30))
                    .map(|_| db.create_object("N", Vec::new()).unwrap())
                    .collect()
            })
            .collect();
        for w in layers.windows(2) {
            for (i, &from) in w[0].iter().enumerate() {
                for (j, &to) in w[1].iter().enumerate() {
                    if (i + j) % 3 == 0 {
                        db.create_relationship("E", from, to, Vec::new()).unwrap();
                    }
                }
            }
        }
        let root = db.create_object("N", Vec::new()).unwrap();
        for &n in &layers[0] {
            db.create_relationship("E", root, n, Vec::new()).unwrap();
        }
        for spec in [
            TraversalSpec::closure(vec!["E".into()]),
            TraversalSpec::closure(Vec::new()).depth(0, Some(2)),
        ] {
            let seq = traverse(&db, root, &spec).unwrap();
            let (par, morsels) = traverse_with(&db, root, &spec, 8).unwrap();
            assert_eq!(seq, par, "parallel discovery order must be identical");
            assert!(morsels > 0, "wide frontiers must actually parallelise");
        }
    }
}
