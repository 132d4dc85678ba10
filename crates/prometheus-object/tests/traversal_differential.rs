//! Differential test of the one breadth-first walk: `traverse` against a
//! naive reference built from other read paths — decoded relationships
//! (`rels_from` / `rels_to`), the reverse membership index
//! (`classifications_of_edge`), `synonym_set` and the schema's subclass
//! list — on seeded random graphs with a relationship subclass, declared
//! synonyms and a classification scope. `traverse_with` must give the same
//! list at 1 and 8 workers. The cycle check, `closes_cycle`, is held to a
//! walk down the decoded relationships on the same graphs.

use prometheus_object::{
    shard_routing, ClassDef, Database, Direction, Oid, RelClassDef, ShardedStore, StoreOptions,
    SynonymMode, TraversalSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

const GRAPHS: u64 = 24;
const SPECS_PER_GRAPH: usize = 40;
const PAIRS_PER_GRAPH: usize = 40;

fn temp_db(seed: u64) -> (Database, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "traversal-differential-{}-{seed}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let store = ShardedStore::open_with(&path, options, 1, shard_routing()).unwrap();
    (Database::open_sharded(Arc::new(store)).unwrap(), path)
}

/// A random graph over `Base`, its subclass `Derived` and the unrelated
/// `Other`, with a few synonym pairs and a classification holding a random
/// subset of the edges. Returns the nodes and the classification.
fn random_graph(db: &Database, rng: &mut StdRng) -> (Vec<Oid>, Oid) {
    db.define_class(ClassDef::new("N")).unwrap();
    db.define_relationship(RelClassDef::association("Base", "N", "N"))
        .unwrap();
    db.define_relationship(RelClassDef::association("Derived", "N", "N").extends("Base"))
        .unwrap();
    db.define_relationship(RelClassDef::association("Other", "N", "N"))
        .unwrap();
    let n = rng.gen_range(8..64usize);
    let nodes: Vec<Oid> = (0..n)
        .map(|_| db.create_object("N", Vec::new()).unwrap())
        .collect();
    let cls = db
        .create_classification("scope", Vec::new(), false)
        .unwrap();
    let classes = ["Base", "Derived", "Other"];
    for _ in 0..rng.gen_range(n..5 * n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a == b {
            continue;
        }
        let class = classes[rng.gen_range(0..classes.len())];
        let edge = db
            .create_relationship(class, nodes[a], nodes[b], Vec::new())
            .unwrap();
        // A member that would close a cycle in the scope is refused; the
        // edge stays outside it.
        if rng.gen_bool(0.6) {
            let _ = db.add_edge_to_classification(cls, edge);
        }
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        db.declare_synonym(nodes[a], nodes[b]).unwrap();
    }
    (nodes, cls)
}

/// The reference walk: a FIFO queue of `(node, depth)`, visited-tracking
/// over whole synonym sets under `Transparent`, and each node's edges read
/// as decoded relationships, class by class of the subclass-expanded list.
fn reference(db: &Database, start: Oid, spec: &TraversalSpec) -> Vec<Oid> {
    let classes: Option<Vec<String>> = (!spec.rel_classes.is_empty()).then(|| {
        db.with_schema(|s| {
            spec.rel_classes
                .iter()
                .flat_map(|c| s.with_subclasses(c))
                .collect()
        })
    });
    let members = |node: Oid| match spec.synonyms {
        SynonymMode::Ignore => vec![node],
        SynonymMode::Transparent => db.synonym_set(node),
    };
    let mut visited: BTreeSet<Oid> = members(start).into_iter().collect();
    let mut queue = VecDeque::from([(start, 0u32)]);
    let mut out = Vec::new();
    while let Some((node, depth)) = queue.pop_front() {
        if depth >= spec.min_depth {
            out.push(node);
        }
        if spec.max_depth.is_some_and(|max| depth >= max) {
            continue;
        }
        for source in members(node) {
            let rels = match spec.direction {
                Direction::Outgoing => db.rels_from(source, None).unwrap(),
                Direction::Incoming => db.rels_to(source, None).unwrap(),
            };
            let by_class: Vec<_> = match &classes {
                None => rels.iter().collect(),
                Some(classes) => classes
                    .iter()
                    .flat_map(|c| rels.iter().filter(move |r| &r.class == c))
                    .collect(),
            };
            for rel in by_class {
                if let Some(cls) = spec.classification {
                    if !db.classifications_of_edge(rel.oid).unwrap().contains(&cls) {
                        continue;
                    }
                }
                let next = match spec.direction {
                    Direction::Outgoing => rel.destination,
                    Direction::Incoming => rel.origin,
                };
                if !visited.contains(&next) {
                    visited.extend(members(next));
                    queue.push_back((next, depth + 1));
                }
            }
        }
    }
    out
}

fn random_spec(rng: &mut StdRng, cls: Oid) -> TraversalSpec {
    let class_lists: [&[&str]; 5] = [&[], &["Base"], &["Derived"], &["Other"], &["Base", "Other"]];
    let classes = class_lists[rng.gen_range(0..class_lists.len())];
    let direction = if rng.gen_bool(0.5) {
        Direction::Outgoing
    } else {
        Direction::Incoming
    };
    let min = rng.gen_range(0..4u32);
    let max = match rng.gen_range(0..5u32) {
        4 => None,
        m => Some(m),
    };
    let mut spec = TraversalSpec::closure(classes.iter().map(|c| c.to_string()))
        .direction(direction)
        .depth(min, max);
    if rng.gen_bool(0.5) {
        spec = spec.in_classification(cls);
    }
    if rng.gen_bool(0.5) {
        spec = spec.synonym_mode(SynonymMode::Transparent);
    }
    spec
}

#[test]
fn traverse_matches_a_naive_reference_on_random_graphs() {
    let mut parallel_morsels = 0;
    for seed in 0..GRAPHS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (db, path) = temp_db(seed);
        let (nodes, cls) = random_graph(&db, &mut rng);
        for _ in 0..SPECS_PER_GRAPH {
            let start = nodes[rng.gen_range(0..nodes.len())];
            let spec = random_spec(&mut rng, cls);
            let expected = reference(&db, start, &spec);
            let (one, _) =
                prometheus_object::traversal::traverse_with(&db, start, &spec, 1).unwrap();
            let (eight, morsels) =
                prometheus_object::traversal::traverse_with(&db, start, &spec, 8).unwrap();
            parallel_morsels += morsels;
            assert_eq!(one, expected, "seed {seed}, start {start}, {spec:?}");
            assert_eq!(eight, one, "seed {seed}, 8 workers, {spec:?}");
            assert_eq!(
                prometheus_object::traversal::traverse(&db, start, &spec).unwrap(),
                one
            );
        }
        drop(db);
        let _ = std::fs::remove_file(path);
    }
    assert!(
        parallel_morsels > 0,
        "some frontier must be wide enough to split"
    );
}

/// The reference cycle check: `origin` is `destination`, or a FIFO walk down
/// from `destination` over decoded relationships of exactly `class` (all
/// when `None`), members of `scope` when one is given, meets `origin`.
fn reference_closes_cycle(
    db: &Database,
    origin: Oid,
    destination: Oid,
    class: Option<&str>,
    scope: Option<Oid>,
) -> bool {
    if origin == destination {
        return true;
    }
    let mut visited = BTreeSet::from([destination]);
    let mut queue = VecDeque::from([destination]);
    while let Some(node) = queue.pop_front() {
        for rel in db.rels_from(node, None).unwrap() {
            if class.is_some_and(|c| rel.class != c)
                || scope
                    .is_some_and(|cls| !db.classifications_of_edge(rel.oid).unwrap().contains(&cls))
            {
                continue;
            }
            if rel.destination == origin {
                return true;
            }
            if visited.insert(rel.destination) {
                queue.push_back(rel.destination);
            }
        }
    }
    false
}

#[test]
fn closes_cycle_matches_a_naive_reference_on_random_graphs() {
    let (mut checks, mut cycles) = (0, 0);
    for seed in 0..GRAPHS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (db, path) = temp_db(seed);
        let (nodes, cls) = random_graph(&db, &mut rng);
        for _ in 0..PAIRS_PER_GRAPH {
            let origin = nodes[rng.gen_range(0..nodes.len())];
            let destination = nodes[rng.gen_range(0..nodes.len())];
            for class in [None, Some("Base"), Some("Derived"), Some("Other")] {
                for scope in [None, Some(cls)] {
                    let expected = reference_closes_cycle(&db, origin, destination, class, scope);
                    let got = prometheus_object::traversal::closes_cycle(
                        &db,
                        origin,
                        destination,
                        class,
                        scope,
                    )
                    .unwrap();
                    assert_eq!(
                        got, expected,
                        "seed {seed}, {origin} -> {destination}, {class:?}, {scope:?}"
                    );
                    checks += 1;
                    cycles += usize::from(expected);
                }
            }
        }
        drop(db);
        let _ = std::fs::remove_file(path);
    }
    println!("closes_cycle: {cycles} of {checks} checks close a cycle");
    assert!(
        0 < cycles && cycles < checks,
        "the graphs must give both verdicts"
    );
}
