//! Property-based tests (proptest) over the core invariants: the binary
//! codec, order-preserving value encoding, the synonym union–find, rank
//! ordering, and classification structure and membership under random edit
//! sequences.

use prometheus_db::index::{self, KS_CLS_EDGES};
use prometheus_db::{
    AttrDef, ClassDef, Classification, Database, Oid, Prometheus, Rank, Reader, RelClassDef,
    StoreOptions, Type, Value,
};
use prometheus_object::synonym::SynonymTable;
use prometheus_storage::{codec, Keyspace, KvScan};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Zéü ]{0,12}".prop_map(Value::Str),
        (1800i32..2100, 1u8..13, 1u8..29)
            .prop_map(|(y, m, d)| Value::Date(prometheus_db::Date::new(y, m, d))),
        (1u64..10_000).prop_map(|n| Value::Ref(Oid::from_raw(n))),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

proptest! {
    /// Every Value round-trips through the storage codec.
    #[test]
    fn codec_round_trips_values(v in arb_value()) {
        let bytes = codec::to_bytes(&v).unwrap();
        let back: Value = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Maps of values round-trip (the shape of object attribute maps).
    #[test]
    fn codec_round_trips_attr_maps(
        entries in prop::collection::btree_map("[a-z]{1,8}", arb_value(), 0..8)
    ) {
        let bytes = codec::to_bytes(&entries).unwrap();
        let back: BTreeMap<String, Value> = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, entries);
    }

    /// The order-preserving encoding agrees with Value's total order for
    /// same-variant values (the property attribute-range scans rely on).
    #[test]
    fn ordered_encoding_is_monotone_ints(a in any::<i64>(), b in any::<i64>()) {
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        Value::Int(a).encode_ordered(&mut ea);
        Value::Int(b).encode_ordered(&mut eb);
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
    }

    #[test]
    fn ordered_encoding_is_monotone_strings(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        Value::Str(a.clone()).encode_ordered(&mut ea);
        Value::Str(b.clone()).encode_ordered(&mut eb);
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
    }

    /// The union–find synonym table is equivalent to a naive partition
    /// model under any sequence of declarations.
    #[test]
    fn synonym_table_matches_naive_partition(
        pairs in prop::collection::vec((1u64..30, 1u64..30), 0..40)
    ) {
        let mut table = SynonymTable::new();
        let mut naive: Vec<BTreeSet<u64>> = Vec::new();
        for (a, b) in &pairs {
            table.declare(Oid::from_raw(*a), Oid::from_raw(*b));
            let ia = naive.iter().position(|s| s.contains(a));
            let ib = naive.iter().position(|s| s.contains(b));
            match (ia, ib) {
                (None, None) => naive.push([*a, *b].into_iter().collect()),
                (Some(i), None) => { naive[i].insert(*b); }
                (None, Some(j)) => { naive[j].insert(*a); }
                (Some(i), Some(j)) if i != j => {
                    let merged: BTreeSet<u64> = naive[i].union(&naive[j]).copied().collect();
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    naive.remove(hi);
                    naive[lo] = merged;
                }
                _ => {}
            }
        }
        for x in 1u64..30 {
            for y in 1u64..30 {
                let same_naive = naive.iter().any(|s| s.contains(&x) && s.contains(&y)) || x == y;
                prop_assert_eq!(
                    table.same(Oid::from_raw(x), Oid::from_raw(y)),
                    same_naive,
                    "x={} y={}", x, y
                );
            }
        }
    }

    /// Rank placement is a strict order: irreflexive, antisymmetric, and
    /// consistent with the Figure 1 ladder.
    #[test]
    fn rank_placement_is_strict_order(a in 0usize..24, b in 0usize..24) {
        let (ra, rb) = (Rank::ALL[a], Rank::ALL[b]);
        prop_assert!(!ra.may_be_placed_below(ra));
        if ra.may_be_placed_below(rb) {
            prop_assert!(!rb.may_be_placed_below(ra));
            prop_assert!(rb < ra);
        }
    }
}

/// Everything a reader can observe, plus every raw keyspace: extents with
/// their objects and synonym sets, adjacency, attribute-index lookups (exact
/// and whole-range, so a leftover entry shows), relationships with their
/// classifications, and classification membership.
fn fingerprint(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    let classes: Vec<String> = db.with_schema(|s| s.class_names().map(String::from).collect());
    let rel_classes: Vec<String> =
        db.with_schema(|s| s.rel_class_names().map(String::from).collect());
    for class in &classes {
        for oid in db.extent(class, false).unwrap() {
            let obj = db.object(oid).unwrap();
            out.push(format!("{obj:?} = {:?}", db.synonym_set(oid)));
            out.push(format!(
                "  out {:?} in {:?}",
                db.adjacency(oid, None, true).unwrap(),
                db.adjacency(oid, None, false).unwrap()
            ));
            for (attr, value) in &obj.attrs {
                let hits = db.find_by_attr(class, attr, value).ok();
                out.push(format!("  {attr} = {value} -> {hits:?}"));
            }
        }
        for attr in db.with_schema(|s| s.all_attrs(class)).unwrap() {
            if attr.indexed && attr.ty == Type::Str {
                let all =
                    db.find_by_attr_range(class, &attr.name, &"".into(), &"\u{10ffff}".into());
                out.push(format!("{class}.{} -> {:?}", attr.name, all.unwrap()));
            }
        }
    }
    for class in &rel_classes {
        for oid in db.extent(class, false).unwrap() {
            let member_of = db.classifications_of_edge(oid).unwrap();
            out.push(format!("{:?} in {member_of:?}", db.rel(oid).unwrap()));
        }
    }
    for cls in db.classifications().unwrap() {
        let edges = db.classification_edges(cls).unwrap();
        out.push(format!(
            "{:?}: {edges:?}",
            db.classification_meta(cls).unwrap()
        ));
    }
    out.push(format!("{} records", db.store().record_count()));
    for ks in 0..=u8::MAX {
        let entries = db.store().kv_scan_prefix(Keyspace(ks), &[]);
        if !entries.is_empty() {
            out.push(format!("keyspace {ks}: {entries:?}"));
        }
    }
    out
}

/// What the object layer says about classification membership, every way it
/// can be asked. Asserts that the ways agree — the record-free reads against
/// the ones that decode every member edge — and returns the answers, so a
/// live database can be compared with its reopened log.
fn membership(db: &Database) -> Vec<String> {
    let classes: Vec<String> = db.with_schema(|s| s.class_names().map(String::from).collect());
    let objects: Vec<Oid> = classes
        .iter()
        .flat_map(|c| db.extent(c, false).unwrap())
        .collect();
    let mut out = Vec::new();
    for cls in db.classifications().unwrap() {
        let handle = Classification::from_oid(cls);
        let decoded: Vec<(Oid, Oid, Oid)> = handle
            .edges(db)
            .unwrap()
            .iter()
            .map(|e| (e.oid, e.origin, e.destination))
            .collect();
        assert_eq!(db.classification_edge_endpoints(cls).unwrap(), decoded);
        let nodes = handle.nodes(db).unwrap();
        let from_records: BTreeSet<Oid> = decoded.iter().flat_map(|&(_, o, d)| [o, d]).collect();
        assert_eq!(nodes, from_records);
        for &oid in &objects {
            assert_eq!(
                db.node_in_classification(cls, oid),
                nodes.contains(&oid),
                "probe and node set disagree on {oid} in {cls}"
            );
        }
        out.push(format!(
            "{cls}: {nodes:?} roots {:?} leaves {:?} {:?}",
            handle.roots(db).unwrap(),
            handle.leaves(db).unwrap(),
            handle.check_integrity(db).unwrap(),
        ));
    }
    out
}

/// Random interleavings of create/link/unlink operations keep a strict
/// classification single-parented and acyclic, a what-if of arbitrary
/// mutations that is aborted is a unit that never began, and the record-free
/// membership reads agree with the decoding ones after every step.
#[test]
fn classification_invariants_under_random_edits() {
    random_edits(1234, 300);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same, from any seed.
    #[test]
    fn classification_invariants_from_any_seed(seed in any::<u64>()) {
        random_edits(seed, 60);
    }
}

fn random_edits(seed: u64, steps: usize) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let path = std::env::temp_dir().join(format!(
        "prop-cls-{seed}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_with(&path, options.clone()).unwrap();
    let tax = p.taxonomy().unwrap();
    let db = tax.db();
    // A lifetime-dependent part per specimen: deleting the specimen is a
    // delete of several entities.
    db.define_class(ClassDef::new("Sheet").attr(AttrDef::required("label", Type::Str).indexed()))
        .unwrap();
    db.define_relationship(RelClassDef::aggregation("Mounts", "Specimen", "Sheet").dependent())
        .unwrap();
    let cls = tax.new_classification("fuzz", "f", "f").unwrap();
    let mut loose = db
        .create_classification("loose", Vec::new(), false)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<_> = (0..20)
        .map(|i| tax.create_ct(&format!("N{i}"), Rank::ALL[i % 24]).unwrap())
        .collect();
    for i in 0..6 {
        let specimen = tax.create_specimen(&format!("S{i}")).unwrap();
        let label = vec![("label".to_string(), Value::from(format!("sheet {i}")))];
        let sheet = db.create_object("Sheet", label).unwrap();
        db.create_relationship("Mounts", specimen, sheet, Vec::new())
            .unwrap();
        db.declare_synonym(specimen, nodes[i]).unwrap();
        nodes.push(specimen);
    }
    let mut edges: Vec<Oid> = Vec::new();
    for step in 0..steps {
        let op = rng.gen_range(0..5);
        match op {
            0 => {
                let a = nodes[rng.gen_range(0..nodes.len())];
                let b = nodes[rng.gen_range(0..nodes.len())];
                // Any violation (rank, cycle, strictness) must be rejected,
                // never applied partially.
                if let Ok(edge) = tax.circumscribe(&cls, a, b) {
                    edges.push(edge);
                    db.add_edge_to_classification(loose, edge).unwrap();
                }
            }
            1 => {
                if !edges.is_empty() {
                    let i = rng.gen_range(0..edges.len());
                    let edge = edges.swap_remove(i);
                    if db.exists(edge) {
                        cls.remove_edge(db, edge).unwrap();
                    }
                }
            }
            2 => {
                // Deleting a relationship takes it out of every classification.
                if !edges.is_empty() {
                    let edge = edges.swap_remove(rng.gen_range(0..edges.len()));
                    if db.exists(edge) {
                        db.delete_relationship(edge).unwrap();
                    }
                }
            }
            3 => {
                // A classification deleted and made again over some of the
                // edges that survive.
                db.delete_classification(loose).unwrap();
                loose = db
                    .create_classification("loose", Vec::new(), false)
                    .unwrap();
                for &edge in edges.iter().filter(|e| db.exists(**e)) {
                    if rng.gen_range(0..2) == 0 {
                        db.add_edge_to_classification(loose, edge).unwrap();
                    }
                }
            }
            _ => {
                // Speculative what-if that is always rolled back must leave
                // no trace, whatever it did. A failed operation ends it: an
                // immediate rule's veto has rolled the unit back already, and
                // anything after it would run (and commit) outside it.
                let before = fingerprint(db);
                let token = db.begin_unit();
                for i in 0..rng.gen_range(1..8) {
                    let a = nodes[rng.gen_range(0..nodes.len())];
                    let b = nodes[rng.gen_range(0..nodes.len())];
                    let edge = edges.get(rng.gen_range(0..edges.len().max(1))).copied();
                    let name = Value::from(format!("what-if {step}.{i}"));
                    let done = match (rng.gen_range(0..10), edge) {
                        (0, _) => tax
                            .create_ct(&format!("W{step}.{i}"), Rank::ALL[i])
                            .map(drop),
                        (1, _) => db.delete_object(a),
                        (2, _) => tax.circumscribe(&cls, a, b).map(drop),
                        (3, Some(edge)) => db.delete_relationship(edge),
                        (4, _) if tax.is_specimen(a) => db.set_attr(a, "code", name),
                        (4, _) => db.set_attr(a, "working_name", name),
                        (5, _) => db.declare_synonym(a, b),
                        (6, Some(edge)) => db.add_edge_to_classification(cls.oid(), edge),
                        (7, Some(edge)) => db.remove_edge_from_classification(loose, edge),
                        (8, _) => {
                            db.delete_classification(if i % 2 == 0 { loose } else { cls.oid() })
                        }
                        _ => db
                            .create_classification(&format!("scratch {step}.{i}"), Vec::new(), true)
                            .map(drop),
                    };
                    if done.is_err() {
                        break;
                    }
                }
                db.abort_unit(token);
                assert_eq!(fingerprint(db), before);
            }
        }
        // Invariants hold after every step.
        let problems = cls.check_integrity(db).unwrap();
        assert!(problems.is_empty(), "integrity violated: {problems:?}");
        membership(db);
    }
    // What the aborted units left behind in the log replays to the same state.
    let live = (fingerprint(db), membership(db));
    drop(tax);
    drop(p);
    let p = Prometheus::open_with(&path, options).unwrap();
    assert_eq!((fingerprint(p.db()), membership(p.db())), live);
    let _ = std::fs::remove_file(path);
}

/// A log written before membership values carried the endpoints holds them
/// empty. Such entries — all of them, or some beside newer ones — answer
/// every structure question as the 16-byte ones do.
#[test]
fn membership_entries_with_an_empty_value_read_the_same() {
    let path = std::env::temp_dir().join(format!("prop-oldlog-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_with(&path, options.clone()).unwrap();
    let db = p.db();
    db.define_class(ClassDef::new("N")).unwrap();
    db.define_relationship(RelClassDef::association("E", "N", "N"))
        .unwrap();
    let n: Vec<Oid> = (0..7)
        .map(|_| db.create_object("N", Vec::new()).unwrap())
        .collect();
    // Two roots, a node with two parents, and a cycle no root reaches: every
    // check of `check_integrity` has something to say.
    let strict = db.create_classification("old", Vec::new(), true).unwrap();
    let lenient = db
        .create_classification("mixed", Vec::new(), false)
        .unwrap();
    for (i, (a, b)) in [(0, 2), (1, 3), (4, 5), (5, 6), (6, 4), (1, 2)]
        .into_iter()
        .enumerate()
    {
        let edge = db.create_relationship("E", n[a], n[b], Vec::new()).unwrap();
        db.add_edge_to_classification(lenient, edge).unwrap();
        // Put raw: the strict one would refuse the second parent.
        let value = index::cls_edge_value(n[a], n[b]);
        db.store()
            .with_txn(|t| {
                t.kv_put(
                    KS_CLS_EDGES,
                    index::cls_edge_key(strict, edge),
                    value.clone(),
                );
                if i % 2 == 0 {
                    t.kv_put(KS_CLS_EDGES, index::cls_edge_key(lenient, edge), Vec::new());
                }
                Ok(())
            })
            .unwrap();
    }
    let with_endpoints = membership(db);
    assert!(
        with_endpoints[0].contains("has 2 parents") && with_endpoints[0].contains("unreachable"),
        "{with_endpoints:?}"
    );
    for edge in db.classification_edges(strict).unwrap() {
        db.store()
            .with_txn(|t| {
                t.kv_put(KS_CLS_EDGES, index::cls_edge_key(strict, edge), Vec::new());
                Ok(())
            })
            .unwrap();
    }
    assert_eq!(membership(db), with_endpoints);
    drop(p);
    let p = Prometheus::open_with(&path, options).unwrap();
    assert_eq!(membership(p.db()), with_endpoints);
    let _ = std::fs::remove_file(path);
}
