//! Property-based tests (proptest) over the core invariants: the binary
//! codec, order-preserving value encoding, the synonym union–find, rank
//! ordering, and classification structure and membership under random edit
//! sequences.

use prometheus_db::classification::SoundClassifications;
use prometheus_db::index::{self, KS_CLS_EDGES, KS_EDGE_CLS};
use prometheus_db::instance::StoredEntity;
use prometheus_db::taxonomy::revision::Revision;
use prometheus_db::{
    AttrDef, Cardinality, ClassDef, Classification, Database, DbError, DbResult, Event,
    EventListener, Oid, Prometheus, Rank, Reader, RelClassDef, RelKind, SchemaRegistry,
    StoreOptions, Type, Value,
};
use prometheus_object::synonym::SynonymTable;
use prometheus_object::traversal::closes_cycle;
use prometheus_storage::{codec, Bytes, Keyspace, KvScan};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
                db.adjacency(oid, None, true, None).unwrap(),
                db.adjacency(oid, None, false, None).unwrap()
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
            let sorted = |mut kin: Vec<Oid>| {
                kin.sort();
                kin
            };
            let children = decoded.iter().filter(|e| e.1 == oid).map(|e| e.2);
            let parents = decoded.iter().filter(|e| e.2 == oid).map(|e| e.1);
            assert_eq!(
                sorted(handle.children(db, oid).unwrap()),
                sorted(children.collect()),
                "children of {oid} in {cls}"
            );
            assert_eq!(
                sorted(handle.parents(db, oid).unwrap()),
                sorted(parents.collect()),
                "parents of {oid} in {cls}"
            );
        }
        let problems = handle.check_integrity(db).unwrap();
        assert_eq!(
            problems,
            handle.check_integrity_full(db).unwrap(),
            "the set's answer and the full check disagree on {cls}"
        );
        out.push(format!(
            "{cls}: {nodes:?} roots {:?} leaves {:?} {problems:?}",
            handle.roots(db).unwrap(),
            handle.leaves(db).unwrap(),
        ));
    }
    out
}

/// At commit, links `(a, b)` into the classification `ring` for every pair
/// queued since: an edge only an `at_commit` listener adds.
struct Echo {
    ring: Oid,
    queued: std::sync::Mutex<Vec<(Oid, Oid)>>,
    linked: std::sync::Mutex<Vec<Oid>>,
}

impl EventListener for Echo {
    fn at_commit(&self, db: &Database, _events: &[Event]) -> prometheus_db::DbResult<()> {
        for (a, b) in self.queued.lock().unwrap().drain(..) {
            let edge = Classification::from_oid(self.ring).link(db, "Near", a, b, Vec::new())?;
            self.linked.lock().unwrap().push(edge);
        }
        Ok(())
    }
}

/// Once armed, fails the operation it is armed for at its `n`-th event,
/// in `before` or in `after`: a veto at any step of a compound operation.
#[derive(Default)]
struct Veto {
    armed: std::sync::Mutex<Option<(usize, bool)>>,
}

impl Veto {
    fn hit(&self, after: bool) -> DbResult<()> {
        let mut armed = self.armed.lock().unwrap();
        let Some((n, phase)) = armed.as_mut() else {
            return Ok(());
        };
        if *phase != after {
            return Ok(());
        }
        if *n > 0 {
            *n -= 1;
            return Ok(());
        }
        *armed = None;
        Err(DbError::Vetoed {
            rule: "veto".into(),
            reason: format!("armed veto, after: {after}"),
        })
    }
}

impl EventListener for Veto {
    fn before(&self, _db: &Database, _event: &Event) -> DbResult<()> {
        self.hit(false)
    }

    fn after(&self, _db: &Database, _event: &Event) -> DbResult<()> {
        self.hit(true)
    }
}

/// Random interleavings of create/link/unlink operations keep a strict
/// classification and a lenient one sound, a what-if of arbitrary mutations
/// that is aborted is a unit that never began, an operation that fails
/// inside it — at a veto on any of its events, a link that would close a
/// cycle, or of its own accord — undoes exactly itself and leaves the
/// what-if open, and the record-free membership reads agree with the
/// decoding ones after every step — as does the integrity check with the
/// full one, on every classification: among them a lenient ring whose links
/// close no cycle, in committed units, listener writes or what-ifs, and
/// which holds one only after a raw store write.
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
    db.define_relationship(RelClassDef::association("Near", "Object", "Object"))
        .unwrap();
    let ring = db.create_classification("ring", Vec::new(), false).unwrap();
    let echo = Arc::new(Echo {
        ring,
        queued: Default::default(),
        linked: Default::default(),
    });
    db.add_listener(echo.clone());
    let veto = Arc::new(Veto::default());
    db.add_listener(veto.clone());
    let mut ring_edges: Vec<Oid> = Vec::new();
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
        // Ring edges join the first twelve nodes and are unlinked more often
        // than linked, so links that would close a cycle come and go.
        let (a, b) = (nodes[rng.gen_range(0..12)], nodes[rng.gen_range(0..12)]);
        let op = rng.gen_range(0..12);
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
            4 => match Classification::from_oid(ring).link(db, "Near", a, b, Vec::new()) {
                Ok(edge) => ring_edges.push(edge),
                Err(e) => assert!(matches!(e, DbError::Classification(_)), "{e}"),
            },
            5..=8 => {
                if !ring_edges.is_empty() {
                    let edge = ring_edges.swap_remove(rng.gen_range(0..ring_edges.len()));
                    if rng.gen_range(0..2) == 0 {
                        db.remove_edge_from_classification(ring, edge).unwrap();
                    } else {
                        db.delete_relationship(edge).unwrap();
                    }
                }
            }
            9 => {
                // The listener adds the edge while an empty unit commits; an
                // edge that closes a cycle rolls the unit back.
                echo.queued.lock().unwrap().push((a, b));
                let token = db.begin_unit();
                let committed = db.commit_unit(token);
                let mut linked = std::mem::take(&mut *echo.linked.lock().unwrap());
                match committed {
                    Ok(()) => ring_edges.append(&mut linked),
                    Err(e) => assert!(matches!(e, DbError::Classification(_)), "{e}"),
                }
                assert!(!db.in_unit());
            }
            10 => {
                // A member edge written straight to the store, as a
                // replica's apply does, with its reverse beside it
                // when there is one to reverse: the facade hears of it
                // through `refresh`, as of any write that bypasses it.
                let (o, d) = match ring_edges.first() {
                    Some(&edge) => db.rel(edge).map(|r| (r.destination, r.origin)).unwrap(),
                    None => (a, b),
                };
                let edge = db.create_relationship("Near", o, d, Vec::new()).unwrap();
                db.store()
                    .with_txn(|t| {
                        let key = index::cls_edge_key(ring, o, "Near", edge);
                        t.kv_put(KS_CLS_EDGES, key, d.to_be_bytes().to_vec());
                        t.kv_put(KS_EDGE_CLS, index::edge_cls_key(edge, ring), Vec::new());
                        Ok(())
                    })
                    .unwrap();
                db.refresh().unwrap();
                ring_edges.push(edge);
            }
            _ => {
                // Speculative what-if that is always rolled back must leave
                // no trace, whatever it did.
                let before = fingerprint(db);
                let token = db.begin_unit();
                for i in 0..rng.gen_range(1..8) {
                    let a = nodes[rng.gen_range(0..nodes.len())];
                    let b = nodes[rng.gen_range(0..nodes.len())];
                    let edge = edges.get(rng.gen_range(0..edges.len().max(1))).copied();
                    let ring_edge = ring_edges
                        .get(rng.gen_range(0..ring_edges.len().max(1)))
                        .copied();
                    let name = Value::from(format!("what-if {step}.{i}"));
                    if rng.gen_range(0..3) == 0 {
                        let at = (rng.gen_range(0..4), rng.gen_range(0..2) == 0);
                        *veto.armed.lock().unwrap() = Some(at);
                    }
                    let before_op = fingerprint(db);
                    let done = match (rng.gen_range(0..13), edge) {
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
                        (10 | 11, _) => Classification::from_oid(ring)
                            .link(db, "Near", a, b, Vec::new())
                            .map(drop),
                        (12, _) => match ring_edge {
                            Some(edge) => db.remove_edge_from_classification(ring, edge),
                            None => Ok(()),
                        },
                        _ => db
                            .create_classification(&format!("scratch {step}.{i}"), Vec::new(), true)
                            .map(drop),
                    };
                    *veto.armed.lock().unwrap() = None;
                    if done.is_err() {
                        assert!(db.in_unit(), "a failed operation left its unit");
                        assert_eq!(
                            fingerprint(db),
                            before_op,
                            "a failed operation left a trace"
                        );
                    }
                }
                // A check inside the unit sees the unit's own edges.
                for handle in [cls, Classification::from_oid(ring)] {
                    if db.in_unit() && db.exists(handle.oid()) {
                        assert_eq!(
                            handle.check_integrity(db).unwrap(),
                            handle.check_integrity_full(db).unwrap()
                        );
                    }
                }
                db.abort_unit(token);
                assert_eq!(fingerprint(db), before);
            }
        }
        // Invariants hold after every step; `membership` compares the check
        // with the full one on every classification.
        for handle in [cls, Classification::from_oid(loose)] {
            let problems = handle.check_integrity(db).unwrap();
            assert!(problems.is_empty(), "integrity violated: {problems:?}");
        }
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

/// A reader that counts what a check asks of the database beneath it,
/// handing on the database's set of sound classifications.
struct Counting<'a> {
    db: &'a Database,
    relationships_decoded: AtomicU64,
    index_gets: AtomicU64,
    index_scans: AtomicU64,
}

impl Counting<'_> {
    /// `(relationship records decoded, raw_kv_get calls, raw_kv_for_each calls)`
    fn counts(&self) -> (u64, u64, u64) {
        (
            self.relationships_decoded.load(Ordering::Relaxed),
            self.index_gets.load(Ordering::Relaxed),
            self.index_scans.load(Ordering::Relaxed),
        )
    }
}

impl Reader for Counting<'_> {
    fn entity(&self, oid: Oid) -> prometheus_db::DbResult<StoredEntity> {
        let entity = self.db.entity(oid)?;
        if matches!(entity, StoredEntity::Rel(_)) {
            self.relationships_decoded.fetch_add(1, Ordering::Relaxed);
        }
        Ok(entity)
    }

    fn raw_kv_get(&self, ks: Keyspace, key: &[u8]) -> Option<Bytes> {
        self.index_gets.fetch_add(1, Ordering::Relaxed);
        self.db.raw_kv_get(ks, key)
    }

    fn raw_kv_for_each(
        &self,
        ks: Keyspace,
        lo: &[u8],
        hi: Bound<&[u8]>,
        f: impl FnMut(&[u8], &[u8]),
    ) {
        self.index_scans.fetch_add(1, Ordering::Relaxed);
        self.db.raw_kv_for_each(ks, lo, hi, f)
    }

    fn with_schema<T>(&self, f: impl FnOnce(&SchemaRegistry) -> T) -> T {
        Reader::with_schema(self.db, f)
    }

    fn with_synonyms<T>(&self, f: impl FnOnce(&SynonymTable) -> T) -> T {
        Reader::with_synonyms(self.db, f)
    }

    fn sound_classifications(&self) -> Option<&SoundClassifications> {
        self.db.sound_classifications()
    }
}

/// A link walks its origin's ancestors, not the classification. After one
/// committed move of a species that has a specimen below it, the walk its
/// link made (`traversal::closes_cycle` scoped to the classification, as
/// `add_edge_to_classification` runs it) climbs from the new genus to the
/// family at the same index calls in a classification of 50 edges and of
/// 5 000, and decodes no relationship; the integrity check after it
/// answers from the set of sound classifications without an index call.
/// The counts repeat exactly, so they gate on any runner.
#[test]
fn a_link_and_the_check_after_it_cost_the_same_in_a_classification_of_any_size() {
    let path = std::env::temp_dir().join(format!("prop-counting-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_with(&path, options).unwrap();
    let tax = p.taxonomy().unwrap();
    let db = tax.db();
    let cost = |edges: usize| {
        // A family over genera of five species each.
        let cls = tax
            .new_classification(&format!("c{edges}"), "a", "c")
            .unwrap();
        let family = tax.create_ct(&format!("F{edges}"), Rank::Familia).unwrap();
        let (mut genera, mut species) = (Vec::new(), Vec::new());
        for i in 0..edges {
            if species.len() == genera.len() * 5 {
                let genus = tax
                    .create_ct(&format!("G{edges}.{i}"), Rank::Genus)
                    .unwrap();
                tax.circumscribe(&cls, family, genus).unwrap();
                genera.push(genus);
            } else {
                let sp = tax
                    .create_ct(&format!("s{edges}.{i}"), Rank::Species)
                    .unwrap();
                tax.circumscribe(&cls, *genera.last().unwrap(), sp).unwrap();
                species.push(sp);
            }
        }
        // The moved species is no leaf, so the move's link must climb.
        let specimen = tax.create_specimen(&format!("S{edges}")).unwrap();
        tax.circumscribe(&cls, species[0], specimen).unwrap();
        // A full check finds the classification sound, then one committed
        // move, whose link walks from its new parent up.
        assert!(cls.check_integrity(db).unwrap().is_empty());
        let rev = Revision {
            base: cls,
            working: cls,
        };
        rev.move_taxon(&tax, species[0], genera[1]).unwrap();
        let sound = |cls: Oid| db.sound_classifications().unwrap().contains(cls);
        assert!(
            sound(cls.oid()),
            "a committed link keeps a classification sound"
        );
        let counting = || Counting {
            db,
            relationships_decoded: AtomicU64::new(0),
            index_gets: AtomicU64::new(0),
            index_scans: AtomicU64::new(0),
        };
        let walk = counting();
        assert!(!closes_cycle(&walk, genera[1], species[0], None, Some(cls.oid())).unwrap());
        let check = counting();
        assert!(cls.check_integrity(&check).unwrap().is_empty());
        assert_eq!(check.counts(), (0, 0, 0), "the check answers from the set");
        walk.counts()
    };
    let (small, big) = (cost(50), cost(5_000));
    println!(
        "a link's cycle walk: {} index gets, {} index scans, {} relationships decoded",
        small.1, small.2, small.0
    );
    assert_eq!(small.0, 0, "the walk decodes no relationship");
    // The children scan of the moved species, then the genus' parent edge
    // (one scan, one `get`) and the family's (one scan, none).
    assert_eq!(small, (0, 1, 3), "one climb costs what it did");
    assert_eq!(small, big, "cost follows the classification's size");
    drop(tax);
    drop(p);
    let _ = std::fs::remove_file(path);
}

/// An acyclic class's check climbs from the new parent, not down from the
/// child. A `Circumscribes` family → genus, where the genus already holds 50
/// descendants and then 5 000, is checked by `traversal::closes_cycle` with
/// the arguments `create_relationship` passes at the same index calls,
/// decoding no relationship: the genus' children scan, which finds it no
/// leaf, and the family's parents scan, which finds none. The reverse link
/// is still refused. The counts repeat exactly, so they gate on any runner.
#[test]
fn an_acyclic_link_costs_the_same_whatever_hangs_below_the_child() {
    let path = std::env::temp_dir().join(format!("prop-acyclic-cost-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_with(&path, options).unwrap();
    let tax = p.taxonomy().unwrap();
    let db = tax.db();
    let circumscribes = prometheus_db::taxonomy::CIRCUMSCRIBES;
    let cost = |descendants: usize| {
        // A genus over species of five specimens each.
        let family = tax
            .create_ct(&format!("F{descendants}"), Rank::Familia)
            .unwrap();
        let genus = tax
            .create_ct(&format!("G{descendants}"), Rank::Genus)
            .unwrap();
        let mut species = genus;
        for i in 0..descendants {
            let (parent, child) = if i % 6 == 0 {
                species = tax
                    .create_ct(&format!("s{descendants}.{i}"), Rank::Species)
                    .unwrap();
                (genus, species)
            } else {
                let specimen = tax.create_specimen(&format!("S{descendants}.{i}")).unwrap();
                (species, specimen)
            };
            db.create_relationship(circumscribes, parent, child, Vec::new())
                .unwrap();
        }
        let climb = Counting {
            db,
            relationships_decoded: AtomicU64::new(0),
            index_gets: AtomicU64::new(0),
            index_scans: AtomicU64::new(0),
        };
        assert!(!closes_cycle(&climb, family, genus, Some(circumscribes), None).unwrap());
        db.create_relationship(circumscribes, family, genus, Vec::new())
            .unwrap();
        let reverse = db.create_relationship(circumscribes, genus, family, Vec::new());
        assert!(
            matches!(
                reverse,
                Err(DbError::CycleViolation { ref relationship, origin, destination })
                    if relationship == circumscribes && origin == genus && destination == family
            ),
            "{reverse:?}"
        );
        climb.counts()
    };
    let (small, big) = (cost(50), cost(5_000));
    println!(
        "an acyclic link's climb: {} index gets, {} index scans, {} relationships decoded",
        small.1, small.2, small.0
    );
    assert_eq!(
        small,
        (0, 0, 2),
        "the genus' children, the family's parents"
    );
    assert_eq!(
        small, big,
        "cost follows the parent's ancestry, not the child's subtree"
    );
    drop(tax);
    drop(p);
    let _ = std::fs::remove_file(path);
}

/// A full check is a function of the member list: it reads the list in one
/// scan and answers from that, decoding no relationship and asking the
/// indexes nothing more, in a classification of 50 edges as of 5 000. The
/// counts repeat exactly, so they gate on any runner.
#[test]
fn a_full_check_reads_the_member_list_once_at_any_size() {
    let path = std::env::temp_dir().join(format!("prop-full-check-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_with(&path, options).unwrap();
    let db = p.db();
    db.define_class(ClassDef::new("N")).unwrap();
    db.define_relationship(RelClassDef::association("E", "N", "N"))
        .unwrap();
    let cost = |edges: usize| {
        // A five-way tree: node i hangs below node (i - 1) / 5.
        let cls = Classification::create(db, &format!("c{edges}"), Vec::new(), true).unwrap();
        let mut nodes = vec![db.create_object("N", Vec::new()).unwrap()];
        for i in 1..=edges {
            let node = db.create_object("N", Vec::new()).unwrap();
            cls.link(db, "E", nodes[(i - 1) / 5], node, Vec::new())
                .unwrap();
            nodes.push(node);
        }
        let check = Counting {
            db,
            relationships_decoded: AtomicU64::new(0),
            index_gets: AtomicU64::new(0),
            index_scans: AtomicU64::new(0),
        };
        assert!(cls.check_integrity_full(&check).unwrap().is_empty());
        check.counts()
    };
    let (small, big) = (cost(50), cost(5_000));
    println!(
        "a full check: {} index gets, {} index scans, {} relationships decoded",
        small.1, small.2, small.0
    );
    assert_eq!(
        (small.0, small.2),
        (0, 1),
        "one member-list scan, no decode"
    );
    assert_eq!(small, big, "cost is one scan at any size");
    drop(p);
    let _ = std::fs::remove_file(path);
}

/// Membership entries written straight to the store, both halves, as a
/// replica's apply writes them, answer every structure question as the
/// facade's own do: two roots, a node with two parents in a strict
/// classification, and a cycle no root reaches, live and from the reopened
/// log.
#[test]
fn membership_entries_written_straight_to_the_store_read_the_same() {
    let path = std::env::temp_dir().join(format!("prop-rawlog-{}.log", std::process::id()));
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
    let strict = db.create_classification("raw", Vec::new(), true).unwrap();
    let lenient = db
        .create_classification("mixed", Vec::new(), false)
        .unwrap();
    for (a, b) in [(0, 2), (1, 3), (4, 5), (5, 6), (6, 4), (1, 2)] {
        let edge = db.create_relationship("E", n[a], n[b], Vec::new()).unwrap();
        // Put raw: the strict one would refuse the second parent, and a link
        // in either would refuse the edge that closes the cycle.
        let closes = (a, b) == (6, 4);
        if !closes {
            db.add_edge_to_classification(lenient, edge).unwrap();
        }
        let raw = if closes {
            vec![strict, lenient]
        } else {
            vec![strict]
        };
        db.store()
            .with_txn(|t| {
                for &cls in &raw {
                    let key = index::cls_edge_key(cls, n[a], "E", edge);
                    t.kv_put(KS_CLS_EDGES, key, n[b].to_be_bytes().to_vec());
                    t.kv_put(KS_EDGE_CLS, index::edge_cls_key(edge, cls), Vec::new());
                }
                Ok(())
            })
            .unwrap();
    }
    db.refresh().unwrap();
    let live = membership(db);
    assert!(
        live[0].contains("has 2 parents") && live[0].contains("unreachable"),
        "{live:?}"
    );
    drop(p);
    let p = Prometheus::open_with(&path, options).unwrap();
    assert_eq!(membership(p.db()), live);
    let _ = std::fs::remove_file(path);
}

/// Today's formula for `create_relationship`'s verdict, written on the
/// decoding read API: every check of §4.4.3, in the order `Database` runs
/// them, over the relationship records themselves.
fn oracle_create(db: &Database, class: &str, origin: Oid, destination: Oid) -> DbResult<()> {
    let def = db.with_schema(|s| s.rel_class(class).cloned()).unwrap();
    // Every endpoint is an `N`: conformance reduces to existence.
    db.class_of(origin)?;
    db.class_of(destination)?;
    if def.exclusive && !db.rels_to(destination, Some(class))?.is_empty() {
        return Err(DbError::ExclusivityViolation {
            relationship: class.into(),
            destination,
        });
    }
    if def.kind == RelKind::Aggregation {
        for existing in db.rels_to(destination, None)? {
            let other = db.with_schema(|s| s.rel_class(&existing.class).cloned());
            if other
                .is_some_and(|o| o.kind == RelKind::Aggregation && (!def.sharable || !o.sharable))
            {
                return Err(DbError::SharabilityViolation {
                    relationship: class.into(),
                    destination,
                });
            }
        }
    }
    let sides = [
        (
            &def.origin_card,
            "origin",
            db.rels_from(origin, Some(class))?,
        ),
        (
            &def.destination_card,
            "destination",
            db.rels_to(destination, Some(class))?,
        ),
    ];
    for (card, side, existing) in sides {
        if card.exceeded_by(existing.len() as u32 + 1) {
            return Err(DbError::CardinalityViolation {
                relationship: class.into(),
                side,
                limit: card.max.unwrap_or(u32::MAX),
            });
        }
    }
    if def.acyclic && (origin == destination || oracle_reaches(db, destination, origin, class)?) {
        return Err(DbError::CycleViolation {
            relationship: class.into(),
            origin,
            destination,
        });
    }
    Ok(())
}

/// Whether `from` reaches `to` over decoded `class` relationships.
fn oracle_reaches(db: &Database, from: Oid, to: Oid, class: &str) -> DbResult<bool> {
    let (mut stack, mut seen) = (vec![from], BTreeSet::new());
    while let Some(node) = stack.pop() {
        if node == to {
            return Ok(true);
        }
        if seen.insert(node) {
            stack.extend(
                db.rels_from(node, Some(class))?
                    .iter()
                    .map(|r| r.destination),
            );
        }
    }
    Ok(false)
}

/// Today's formula for `add_edge_to_classification`'s verdict: a strict
/// classification refuses a destination that has another member parent edge,
/// and any classification refuses a new member edge whose destination is its
/// origin or one of the origin's ancestors.
fn oracle_add_edge(db: &Database, cls: Oid, rel_oid: Oid) -> DbResult<()> {
    let meta = db.classification_meta(cls)?;
    let rel = db.rel(rel_oid)?;
    let second_parent = db
        .rels_to(rel.destination, None)?
        .iter()
        .any(|r| r.oid != rel_oid && db.edge_in_classification(cls, r.oid));
    if meta.strict_hierarchy && second_parent {
        return Err(DbError::Classification(format!(
            "node {} already has a parent in classification '{}'",
            rel.destination, meta.name
        )));
    }
    if db.edge_in_classification(cls, rel_oid) {
        return Ok(());
    }
    // The origin and its ancestors, climbed through the relationship records.
    let mut climb = vec![rel.origin];
    let mut seen = BTreeSet::new();
    while let Some(node) = climb.pop() {
        if node == rel.destination {
            return Err(DbError::Classification(format!(
                "edge {} -> {} closes a cycle in classification '{}'",
                rel.origin, rel.destination, meta.name
            )));
        }
        if seen.insert(node) {
            for parent_edge in db.rels_to(node, None)? {
                if db.edge_in_classification(cls, parent_edge.oid) {
                    climb.push(parent_edge.origin);
                }
            }
        }
    }
    Ok(())
}

/// The relationship classes the verdict test draws from: one per Table 3
/// behaviour the write path checks, with names that share prefixes, and a
/// subclass that must count apart from its superclass.
const VERDICT_CLASSES: [&str; 7] = [
    "Excl",
    "ExclSub",
    "Part",
    "PartShared",
    "Opt",
    "OptSub",
    "Acyc",
];

/// `create_relationship` and `add_edge_to_classification` answer from the
/// endpoint and membership indexes; the oracles above answer from the
/// records. Under random creates, deletes (of relationships, and of objects
/// with their lifetime-dependent parts) and strict classification adds,
/// both give the same verdict — the same `DbError`, down to the cardinality
/// side — before every operation.
#[test]
fn relationship_verdicts_match_the_record_oracle() {
    relationship_verdicts(77, 600);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same, from any seed.
    #[test]
    fn relationship_verdicts_match_from_any_seed(seed in any::<u64>()) {
        relationship_verdicts(seed, 200);
    }
}

fn relationship_verdicts(seed: u64, steps: usize) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let path = std::env::temp_dir().join(format!(
        "prop-verdict-{seed}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let db = p.db();
    db.define_class(ClassDef::new("N")).unwrap();
    let at_most_two = Cardinality {
        min: 0,
        max: Some(2),
    };
    for def in [
        RelClassDef::association("Excl", "N", "N").exclusive(),
        RelClassDef::association("ExclSub", "N", "N")
            .extends("Excl")
            .exclusive(),
        RelClassDef::aggregation("Part", "N", "N").dependent(),
        RelClassDef::aggregation("PartShared", "N", "N").sharable(true),
        RelClassDef::association("Opt", "N", "N")
            .origin_cardinality(Cardinality::OPTIONAL)
            .destination_cardinality(at_most_two),
        RelClassDef::association("OptSub", "N", "N")
            .extends("Opt")
            .origin_cardinality(at_most_two)
            .destination_cardinality(Cardinality::OPTIONAL),
        RelClassDef::association("Acyc", "N", "N").acyclic(true),
    ] {
        db.define_relationship(def).unwrap();
    }
    let cls = db
        .create_classification("strict", Vec::new(), true)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<Oid> = (0..6)
        .map(|_| db.create_object("N", Vec::new()).unwrap())
        .collect();
    let mut rels: Vec<Oid> = Vec::new();
    let mut verdicts: BTreeMap<String, usize> = BTreeMap::new();
    let mut judge = |what: String, got: DbResult<()>, expected: DbResult<()>| {
        assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{what}");
        let kind = match got {
            Ok(()) => "Ok".to_string(),
            Err(DbError::CardinalityViolation { side, .. }) => format!("Cardinality {side}"),
            Err(e) => format!("{e:?}")
                .split([' ', '('])
                .next()
                .unwrap()
                .to_string(),
        };
        *verdicts.entry(kind).or_default() += 1;
    };
    for step in 0..steps {
        let pick = |rng: &mut StdRng, from: &[Oid]| from[rng.gen_range(0..from.len())];
        match rng.gen_range(0..10) {
            0..=5 => {
                // Half the destinations are among three nodes, so bounded
                // incoming sides fill up.
                let class = VERDICT_CLASSES[rng.gen_range(0..VERDICT_CLASSES.len())];
                let o = pick(&mut rng, &nodes);
                let few = if rng.gen() { 3 } else { nodes.len() };
                let d = pick(&mut rng, &nodes[..few]);
                let expected = oracle_create(db, class, o, d);
                let got = db.create_relationship(class, o, d, Vec::new());
                let got = got.map(|rel| rels.push(rel));
                judge(format!("step {step}: {class} {o} -> {d}"), got, expected);
            }
            6 if !rels.is_empty() => {
                let rel = rels.swap_remove(rng.gen_range(0..rels.len()));
                if db.exists(rel) {
                    db.delete_relationship(rel).unwrap();
                }
            }
            7 => {
                // An object goes with its incident edges and any `Part` it
                // alone held; whatever went is replaced, so six stay live.
                db.delete_object(pick(&mut rng, &nodes)).unwrap();
                nodes.retain(|&n| db.exists(n));
                while nodes.len() < 6 {
                    nodes.push(db.create_object("N", Vec::new()).unwrap());
                }
            }
            _ if !rels.is_empty() => {
                let rel = pick(&mut rng, &rels);
                let expected = oracle_add_edge(db, cls, rel);
                let got = db.add_edge_to_classification(cls, rel);
                judge(
                    format!("step {step}: add {rel} to the strict one"),
                    got,
                    expected,
                );
            }
            _ => {}
        }
    }
    drop(p);
    let _ = std::fs::remove_file(path);
    // A long run must have met every check, not only the easy verdicts.
    if steps >= 600 {
        for kind in [
            "Ok",
            "NotFound",
            "ExclusivityViolation",
            "SharabilityViolation",
            "Cardinality origin",
            "Cardinality destination",
            "CycleViolation",
            "Classification",
        ] {
            assert!(
                verdicts.contains_key(kind),
                "no {kind} verdict in {verdicts:?}"
            );
        }
    }
}

/// A `Circumscribes` written under a genus of 50 species and under one of
/// 5 000, then added to a strict classification, fetches the same entities:
/// the two endpoints for `create_relationship` (their classes), and for
/// `add_edge_to_classification` the classification's record and the
/// relationship. No sibling is read — the Table 3 checks answer from the
/// endpoint keys, and the unbounded `Circumscribes` sides read nothing. The
/// count repeats exactly, so it gates on any runner.
#[test]
fn a_relationship_write_costs_the_same_under_a_parent_of_any_size() {
    let path = std::env::temp_dir().join(format!("prop-write-cost-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_with(&path, options).unwrap();
    let tax = p.taxonomy().unwrap();
    let db = tax.db();
    let circumscribes = prometheus_db::taxonomy::CIRCUMSCRIBES;
    let fetches = || {
        let stats = db.store().stats().snapshot();
        stats.cache_hits + stats.cache_misses
    };
    let cost = |children: usize| {
        let cls = db
            .create_classification(&format!("c{children}"), Vec::new(), true)
            .unwrap();
        let genus = tax.create_ct(&format!("G{children}"), Rank::Genus).unwrap();
        for i in 0..children {
            let sp = tax
                .create_ct(&format!("s{children}.{i}"), Rank::Species)
                .unwrap();
            let edge = db
                .create_relationship(circumscribes, genus, sp, Vec::new())
                .unwrap();
            db.add_edge_to_classification(cls, edge).unwrap();
        }
        let sp = tax
            .create_ct(&format!("new{children}"), Rank::Species)
            .unwrap();
        let before = fetches();
        let edge = db
            .create_relationship(circumscribes, genus, sp, Vec::new())
            .unwrap();
        let created = fetches();
        db.add_edge_to_classification(cls, edge).unwrap();
        (created - before, fetches() - created)
    };
    let (small, big) = (cost(50), cost(5_000));
    println!("entity fetches (create_relationship, add_edge): 50 children {small:?}, 5 000 children {big:?}");
    assert_eq!(
        small,
        (2, 2),
        "the endpoints; the classification and the edge"
    );
    assert_eq!(small, big, "cost follows the parent's degree");
    drop(tax);
    drop(p);
    let _ = std::fs::remove_file(path);
}
