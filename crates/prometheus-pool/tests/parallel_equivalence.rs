//! The determinism contract of the parallel executor: for *any* database
//! and *any* query, parallel execution returns exactly the sequential
//! result — same rows, same order, same column headers. Morsel outputs
//! merge positionally, so this must hold bit-for-bit, not just as sets.
//!
//! Contextual queries are held to more: over overlapping classifications,
//! workers 1 ≡ N **and** both equal a brute-force reference kept in this
//! file (cross product of the scoped extents, the whole `where` at the leaf),
//! so probe scoping, residual placement and haystack hoisting cannot change
//! an answer; and a counting reader pins what a seeded contextual query
//! costs — a count of index calls that does not move with the size of the
//! classification — and what an extent filter decodes.
//!
//! Also pins that a plan follows the schema: a plan carries schema-derived
//! decisions (index seeds), so the next query after a
//! schema change must plan against it — the stale-plan failure mode is a
//! subclass instance silently dropped from its superclass extent.

use prometheus_object::instance::StoredEntity;
use prometheus_object::{
    shard_routing, AttrDef, Cardinality, ClassDef, Classification, Database, DbError, DbResult,
    Oid, Reader, RelClassDef, SchemaRegistry, ShardedStore, StoreOptions, Type, Value, View,
};
use prometheus_pool::{eval, Executor, Query, Row};
use prometheus_storage::{Bytes, Keyspace};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn fresh_db(tag: &str) -> Database {
    let path = std::env::temp_dir().join(format!(
        "pool-par-{tag}-{}-{:?}-{}.log",
        std::process::id(),
        std::thread::current().id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let _ = std::fs::remove_file(&path);
    let store = Arc::new(
        ShardedStore::open_with(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
            1,
            shard_routing(),
        )
        .unwrap(),
    );
    Database::open_sharded(store).unwrap()
}

/// Schema shared by all random databases: a base class, a subclass, and a
/// many-to-many relationship for traversals.
fn define_schema(db: &Database) {
    db.define_class(
        ClassDef::new("T")
            .attr(AttrDef::required("name", Type::Str).indexed())
            .attr(AttrDef::optional("year", Type::Int).indexed()),
    )
    .unwrap();
    db.define_class(ClassDef::new("S").extends("T")).unwrap();
    db.define_relationship(
        RelClassDef::association("R", "T", "T")
            .origin_cardinality(Cardinality::MANY)
            .destination_cardinality(Cardinality::MANY),
    )
    .unwrap();
}

/// One random database: per-object (is-subclass, name, year) plus random
/// relationship edges. Edge endpoints are raw draws reduced modulo the
/// object count at build time (the vendored proptest has no flat_map).
#[derive(Debug, Clone)]
struct DbSpec {
    objects: Vec<(bool, String, i64)>,
    edges: Vec<(u16, u16)>,
}

fn db_spec() -> impl Strategy<Value = DbSpec> {
    let object = (any::<bool>(), "[a-e]{1,3}", 1750i64..1758);
    (
        prop::collection::vec(object, 20..120),
        prop::collection::vec((any::<u16>(), any::<u16>()), 0..160),
    )
        .prop_map(|(objects, edges)| DbSpec { objects, edges })
}

fn build(spec: &DbSpec, tag: &str) -> Database {
    let db = fresh_db(tag);
    define_schema(&db);
    let mut oids = Vec::with_capacity(spec.objects.len());
    for (sub, name, year) in &spec.objects {
        let class = if *sub { "S" } else { "T" };
        let attrs = vec![
            ("name".to_string(), Value::Str(name.clone())),
            ("year".to_string(), Value::Int(*year)),
        ];
        oids.push(db.create_object(class, attrs).unwrap());
    }
    for &(a, b) in &spec.edges {
        let (a, b) = (a as usize % oids.len(), b as usize % oids.len());
        if a != b {
            let _ = db.create_relationship("R", oids[a], oids[b], Vec::<(String, Value)>::new());
        }
    }
    db
}

/// A menu of query shapes covering every parallel stage: extent scans with
/// pushdown, index seeds, joins, distinct/order/limit, subqueries and
/// recursive traversals.
fn query_text() -> impl Strategy<Value = String> {
    prop_oneof![
        (1750i64..1758)
            .prop_map(|y| format!("select x.name from T x where x.year < {y} order by x.name")),
        "[a-e]".prop_map(|p| format!("select x, x.year from T x where x.name like \"{p}%\"")),
        (1750i64..1758).prop_map(|y| format!(
            // year is indexed: exercises the plan-time index seed.
            "select x.name from T x where x.year = {y}"
        )),
        (1usize..30).prop_map(|l| format!(
            "select distinct x.name from S x order by x.name desc limit {l}"
        )),
        (1750i64..1758).prop_map(|y| format!(
            "select x.name, y.name from T x, T y \
             where x.year = y.year and x.year >= {y} order by x.name, y.name limit 200"
        )),
        (1750i64..1758).prop_map(|y| format!(
            "select x.name from T x \
             where x.year = {y} and exists \
             (select z from T z where z.year = x.year and z.name != x.name)"
        )),
        (1750i64..1754).prop_map(|y| format!(
            "select x.name, count(x -> R*) from T x where x.year < {y} order by x.name"
        )),
        Just("select x.name, count(x ->> R) from S x order by x.name".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_equals_sequential((spec, queries) in (db_spec(), prop::collection::vec(query_text(), 3..6))) {
        let db = build(&spec, "equiv");
        let executor = Executor::new(8);
        for text in &queries {
            let q = prometheus_pool::parse(text).unwrap();
            let sequential = eval::evaluate(&db, &q).unwrap();
            let parallel = executor.query(&db, text, None).unwrap();
            prop_assert_eq!(
                &sequential, &parallel,
                "parallel diverged from sequential for: {}", text
            );
        }
    }
}

/// Names of the overlapping classifications of a [`build_contextual`] database.
const CONTEXTS: [&str; 3] = ["c0", "c1", "c2"];

/// [`build`], plus three lenient classifications each holding the edges one
/// bit of `membership` selects (so they overlap, and some edges are in
/// none) but for those whose link would close a cycle, and two views: the
/// subclass, and the subclass inside `c0`.
fn build_contextual(spec: &DbSpec, membership: &[u8], tag: &str) -> Database {
    let db = build(spec, tag);
    let edges = db.extent("R", false).unwrap();
    for (bit, name) in CONTEXTS.iter().enumerate() {
        let cls = db.create_classification(name, Vec::new(), false).unwrap();
        for (i, &edge) in edges.iter().enumerate() {
            if membership[i % membership.len()] >> bit & 1 == 1 {
                match db.add_edge_to_classification(cls, edge) {
                    Ok(()) | Err(DbError::Classification(_)) => {}
                    Err(e) => panic!("{e}"),
                }
            }
        }
    }
    View::new("subs").class("S").save(&db).unwrap();
    let c0 = db.classification_by_name("c0").unwrap().unwrap();
    View::new("subs-in-c0")
        .class("S")
        .classification(c0)
        .save(&db)
        .unwrap();
    db
}

/// The unoptimised meaning of a query: the cross product of the sources'
/// extents (a context keeps what `nodes()` / the member list contains), the
/// whole `where` evaluated at the leaf, then the stable sort `order by` asks
/// for. No seed, no pushdown, no probe, no residual placement.
fn reference(db: &Database, q: &Query) -> DbResult<Vec<Row>> {
    let context = match &q.context {
        Some(name) => Some(db.classification_by_name(name)?.expect("a known context")),
        None => None,
    };
    let mut sets = Vec::new();
    for clause in &q.from {
        let mut candidates: Vec<Oid> = if clause.view {
            View::load(db, &clause.class)?
                .members(db)?
                .into_iter()
                .collect()
        } else {
            db.extent(&clause.class, true)?
        };
        if let Some(cls) = context {
            let members: BTreeSet<Oid> = if clause.edges {
                db.classification_edges(cls)?.into_iter().collect()
            } else {
                Classification::from_oid(cls).nodes(db)?
            };
            candidates.retain(|c| members.contains(c));
        }
        sets.push(candidates);
    }
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();
    let mut odometer = vec![0usize; sets.len()];
    if sets.iter().all(|s| !s.is_empty()) {
        'product: loop {
            let mut env = eval::Env::empty();
            for ((clause, set), &i) in q.from.iter().zip(&sets).zip(&odometer) {
                env.bind(&clause.var, Value::Ref(set[i]));
            }
            let keep = match &q.where_clause {
                Some(w) => eval::eval_expr(db, w, &env, context)?.is_truthy(),
                None => true,
            };
            if keep {
                let value = |e| eval::eval_expr(db, e, &env, context);
                let columns = q.projection.iter().map(|(e, _)| value(e));
                let keys = q.order_by.iter().map(|k| value(&k.expr));
                keyed.push((
                    keys.collect::<DbResult<_>>()?,
                    Row {
                        columns: columns.collect::<DbResult<_>>()?,
                    },
                ));
            }
            // Rightmost variable fastest: the nested loop's order.
            for slot in (0..sets.len()).rev() {
                odometer[slot] += 1;
                if odometer[slot] < sets[slot].len() {
                    continue 'product;
                }
                odometer[slot] = 0;
            }
            break;
        }
    }
    keyed.sort_by(|(a, _), (b, _)| {
        q.order_by
            .iter()
            .zip(a.iter().zip(b))
            .map(|(key, (a, b))| if key.descending { b.cmp(a) } else { a.cmp(b) })
            .find(|c| c.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

/// Contextual query shapes: every kind of source, both scoping paths' small
/// side (the large side is `large_sources_are_scoped_against_the_member_set`),
/// and joins whose residuals sit at different depths, hoisted and not.
fn contextual_query_text() -> impl Strategy<Value = String> {
    let shape = prop_oneof![
        // Seeded object sources (year and name are indexed).
        (1750i64..1758).prop_map(|y| format!(
            "select x.name, count(x -> R*) from T x CONTEXT where x.year = {y}"
        )),
        "[a-c]{1,2}"
            .prop_map(|n| format!("select x, x <- R from S x CONTEXT where x.name = \"{n}\"")),
        // Unseeded object source.
        (1750i64..1758).prop_map(|y| format!(
            "select x.name, count(x ->> R) from T x CONTEXT where x.year < {y} order by x.name"
        )),
        // Edge source.
        (1750i64..1758).prop_map(|y| format!(
            "select e.origin, e.destination from edges R e CONTEXT where e.origin.year >= {y}"
        )),
        // View sources, with and without a classification of their own.
        (1750i64..1758).prop_map(|y| format!(
            "select v.name, v.year from view \"subs\" v CONTEXT where v.year >= {y}"
        )),
        Just("select v.name from view \"subs-in-c0\" v CONTEXT order by v.name desc".to_string()),
        // Two variables, the residual an `in`-traversal whose haystack
        // depends on the outer variable only (hoisted) …
        (1750i64..1758).prop_map(|y| format!(
            "select x.name, y.name from T x, T y CONTEXT \
             where x.year = {y} and y in x -> R"
        )),
        Just("select x, y from S x, T y CONTEXT where y in x -> R*".to_string()),
        // … and one whose haystack depends on the inner variable (not).
        (1750i64..1758).prop_map(|y| format!(
            "select x.name, y.name from T x, T y CONTEXT \
             where x in y <- R and y.year >= {y}"
        )),
        // Three variables: residuals at depth 2 and 3, one haystack hoisted
        // past two loops, and a plain comparison beside them.
        (1750i64..1758).prop_map(|y| format!(
            "select x.name, y.name, z.name from S x, S y, S z CONTEXT \
             where x.year >= {y} and y in x -> R and z in x -> R* and y.year <= z.year"
        )),
        Just(
            "select x, y, z from S x, S y, T z CONTEXT \
             where z in y -> R and y in x -> R"
                .to_string()
        ),
        // A correlated subquery as a residual's haystack (hoisted past y),
        // and one inside a residual that is no `in`.
        Just(
            "select x.name, y.name from S x, S y CONTEXT \
             where y in (select z from T z where z.year = x.year and z in x -> R)"
                .to_string()
        ),
        Just(
            "select x.name, y.name from S x, S y CONTEXT \
             where x.year = y.year and exists \
             (select z from T z where z in x -> R and z in y -> R)"
                .to_string()
        ),
    ];
    (shape, 0usize..CONTEXTS.len()).prop_map(|(text, c)| {
        text.replace("CONTEXT", &format!("in classification \"{}\"", CONTEXTS[c]))
    })
}

fn small_db_spec() -> impl Strategy<Value = DbSpec> {
    // Small enough that a three-variable cross product stays cheap.
    let object = (any::<bool>(), "[a-c]{1,2}", 1750i64..1758);
    (
        prop::collection::vec(object, 12..40),
        prop::collection::vec((any::<u16>(), any::<u16>()), 10..90),
    )
        .prop_map(|(objects, edges)| DbSpec { objects, edges })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn contextual_queries_equal_the_brute_force_reference(
        (spec, membership, queries) in (
            small_db_spec(),
            prop::collection::vec(0u8..8, 7..23),
            prop::collection::vec(contextual_query_text(), 4..8),
        )
    ) {
        let db = build_contextual(&spec, &membership, "context");
        let (one, many) = (Executor::new(1), Executor::new(8));
        for text in &queries {
            let q = prometheus_pool::parse(text).unwrap();
            let expected = reference(&db, &q).unwrap();
            let sequential = one.query(&db, text, None).unwrap();
            let parallel = many.query(&db, text, None).unwrap();
            prop_assert_eq!(&sequential, &parallel, "1 and 8 workers differ for: {}", text);
            prop_assert_eq!(&sequential.rows, &expected, "not the reference answer for: {}", text);
        }
    }
}

#[test]
fn large_sources_are_scoped_against_the_member_set() {
    // More candidates than one morsel, so every kind of source takes the
    // member-set path, twice over in the join (the set is read once).
    let objects = (0..700)
        .map(|i| (i % 3 == 0, format!("n{}", i % 50), 1750 + i % 8))
        .collect();
    let edges = (0..900u16).map(|i| (i * 7 % 700, i * 13 % 700)).collect();
    let db = build_contextual(&DbSpec { objects, edges }, &[1, 6, 0, 3, 5], "large");
    let (one, many) = (Executor::new(1), Executor::new(8));
    for text in [
        "select x.name from T x in classification \"c1\" where x.year < 1755",
        "select e.origin.name from edges R e in classification \"c0\"",
        "select v from view \"subs\" v in classification \"c2\"",
        "select x.name, y.name from T x, T y in classification \"c1\" \
         where x.year = 1751 and x.name like \"n1%\" and y in x -> R",
    ] {
        let q = prometheus_pool::parse(text).unwrap();
        let expected = reference(&db, &q).unwrap();
        assert!(!expected.is_empty(), "vacuous: {text}");
        let sequential = one.query(&db, text, None).unwrap();
        assert_eq!(sequential, many.query(&db, text, None).unwrap(), "{text}");
        assert_eq!(sequential.rows, expected, "{text}");
    }
}

/// A reader that counts what a query asks of the one beneath it.
struct Counting<'a> {
    db: &'a Database,
    entities_decoded: AtomicU64,
    relationships_decoded: AtomicU64,
    index_gets: AtomicU64,
    index_scans: AtomicU64,
}

impl<'a> Counting<'a> {
    fn new(db: &'a Database) -> Self {
        Counting {
            db,
            entities_decoded: AtomicU64::new(0),
            relationships_decoded: AtomicU64::new(0),
            index_gets: AtomicU64::new(0),
            index_scans: AtomicU64::new(0),
        }
    }

    /// Records of any kind decoded.
    fn decodes(&self) -> u64 {
        self.entities_decoded.load(Ordering::Relaxed)
    }

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
    fn entity(&self, oid: Oid) -> DbResult<StoredEntity> {
        let entity = self.db.entity(oid)?;
        self.entities_decoded.fetch_add(1, Ordering::Relaxed);
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

    fn with_synonyms<T>(
        &self,
        f: impl FnOnce(&prometheus_object::synonym::SynonymTable) -> T,
    ) -> T {
        Reader::with_synonyms(self.db, f)
    }
}

#[test]
fn a_seeded_contextual_query_costs_the_same_in_a_classification_of_any_size() {
    // Two classifications of the same shape, one a hundred times the other:
    // `n` leaves, five under each parent. The query names one leaf.
    let db = fresh_db("counting");
    define_schema(&db);
    let object = |name: String| {
        let attrs = vec![("name".to_string(), Value::Str(name))];
        db.create_object("T", attrs).unwrap()
    };
    for (name, n) in [("small", 50), ("big", 5_000)] {
        let cls = db.create_classification(name, Vec::new(), false).unwrap();
        let mut parent = None;
        for i in 0..n {
            if i % 5 == 0 {
                parent = Some(object(format!("parent-{name}-{i}")));
            }
            let leaf = object(format!("leaf-{name}-{i}"));
            let none = Vec::<(String, Value)>::new();
            let edge = db.create_relationship("R", parent.unwrap(), leaf, none);
            db.add_edge_to_classification(cls, edge.unwrap()).unwrap();
        }
    }
    let cost = |name: &str| {
        let counting = Counting::new(&db);
        let text = format!(
            "select x.name, x <- R, x ->> R from T x in classification \"{name}\" \
             where x.name = \"leaf-{name}-7\""
        );
        let q = prometheus_pool::parse(&text).unwrap();
        let result = eval::evaluate(&counting, &q).unwrap();
        assert_eq!(result.len(), 1, "{text}");
        counting.counts()
    };
    let (small, big) = (cost("small"), cost("big"));
    assert_eq!(
        small.0, 0,
        "a seeded contextual query decodes no relationship"
    );
    assert_eq!(small, big, "cost follows the classification's size");
    assert_eq!(small, cost("small"), "the count repeats exactly");

    // A scoped closure and edge step from a parent: the index calls they
    // add to the same query without them. Each expanded node is one scan of
    // the membership index, and no edge is looked up.
    let steps = |name: &str| {
        let run = |select: &str| {
            let counting = Counting::new(&db);
            let text = format!(
                "select {select} from T x in classification \"{name}\" \
                 where x.name = \"parent-{name}-5\""
            );
            let q = prometheus_pool::parse(&text).unwrap();
            assert_eq!(eval::evaluate(&counting, &q).unwrap().len(), 1, "{text}");
            counting.counts()
        };
        let (base, with) = (run("x.name"), run("x.name, x -> R*, x ->> R"));
        (with.0 - base.0, with.1 - base.1, with.2 - base.2)
    };
    // The closure expands the parent and its five leaves, the edge step the
    // parent.
    assert_eq!(steps("small"), (0, 0, 7), "scoped steps: one scan a node");
    assert_eq!(steps("big"), (0, 0, 7), "scoped steps: one scan a node");

    // Past one morsel of candidates the member list is read instead — from
    // the membership index alone, whose entries carry the endpoints.
    let counting = Counting::new(&db);
    let q = prometheus_pool::parse("select x from T x in classification \"big\"").unwrap();
    assert_eq!(eval::evaluate(&counting, &q).unwrap().len(), 6_000);
    assert_eq!(counting.counts().0, 0, "the member list decodes no record");
}

/// An extent filter no index serves decodes each candidate once, for its
/// pushed-down conjunct, and each row it keeps once more, for the
/// projection. A candidate is never decoded to test its class: the deep
/// extent lists only the classes that conform.
#[test]
fn an_extent_filter_decodes_each_candidate_once() {
    let db = fresh_db("decodes");
    define_schema(&db);
    for i in 0..600 {
        let class = if i % 2 == 0 { "T" } else { "S" };
        let attrs = vec![("name".to_string(), Value::Str(format!("n{i}")))];
        db.create_object(class, attrs).unwrap();
    }
    let counting = Counting::new(&db);
    let q = prometheus_pool::parse("select x.name from T x where x.name like \"%5\"").unwrap();
    let rows = eval::evaluate(&counting, &q).unwrap().len();
    assert_eq!(rows, 60);
    assert_eq!(
        counting.decodes(),
        600 + 60,
        "one decode a candidate and a row"
    );
}

#[test]
fn parallel_workers_actually_run() {
    // Enough objects that both the filter pass (256-per-morsel) and the
    // join loop (16-per-morsel) split into several morsels.
    let db = fresh_db("morsels");
    define_schema(&db);
    for i in 0..600 {
        db.create_object(
            "T",
            vec![
                ("name".to_string(), Value::Str(format!("n{i}"))),
                ("year".to_string(), Value::Int(1750 + (i % 8))),
            ],
        )
        .unwrap();
    }
    let executor = Executor::new(8);
    let result = executor
        .query(
            &db,
            "select x.name from T x where x.year >= 1750 order by x.name",
            None,
        )
        .unwrap();
    assert_eq!(result.len(), 600);
    assert!(
        executor.stats().parallel_morsels > 0,
        "a 600-candidate scan must fan out: {:?}",
        executor.stats()
    );
}

/// A query inside a unit reads the unit's staged writes on every worker:
/// the workers a query starts inherit the caller's unit, so workers 1 ≡ 8
/// holds over writes no other thread can see yet.
#[test]
fn an_in_unit_query_reads_staged_writes_on_every_worker() {
    let db = fresh_db("in-unit");
    define_schema(&db);
    let object = |class: &str, name: String, year: i64| {
        let attrs = vec![
            ("name".to_string(), Value::Str(name)),
            ("year".to_string(), Value::Int(year)),
        ];
        db.create_object(class, attrs).unwrap()
    };
    let committed: Vec<Oid> = (0..300)
        .map(|i| object("T", format!("t{i:03}"), 1750 + i % 8))
        .collect();
    let unit = db.begin_unit();
    for i in 0..300 {
        object("S", format!("s{i:03}"), 1750 + i % 8);
    }
    for &oid in &committed[..100] {
        db.set_attr(oid, "year", 1760i64).unwrap();
    }
    let parallel = Executor::new(8);
    for text in [
        "select x.name from T x where x.year >= 1750 order by x.name",
        "select x.name from T x where x.year = 1760 order by x.name",
        "select x.name, y.name from S x, T y \
         where x.year = y.year and x.year = 1751 order by x.name, y.name",
    ] {
        let sequential = Executor::new(1).query(&db, text, None).unwrap();
        assert_eq!(
            sequential,
            parallel.query(&db, text, None).unwrap(),
            "{text}"
        );
    }
    assert!(
        parallel.stats().parallel_morsels > 0,
        "the filter pass fans out"
    );
    let staged = parallel.query(&db, "select x from S x where x.year >= 1750", None);
    assert_eq!(staged.unwrap().len(), 300);
    db.abort_unit(unit);
}

#[test]
fn the_next_query_after_a_schema_change_sees_it() {
    let db = fresh_db("invalidate");
    define_schema(&db);
    db.create_object(
        "T",
        vec![
            ("name".to_string(), Value::Str("a".into())),
            ("year".to_string(), Value::Int(1750)),
        ],
    )
    .unwrap();

    let executor = Executor::new(2);
    let text = "select x from T x";
    assert_eq!(executor.query(&db, text, None).unwrap().len(), 1);

    // A new subclass bumps the schema version; the next query must list
    // the S2 instance in T's deep extent.
    db.define_class(ClassDef::new("S2").extends("T")).unwrap();
    db.create_object(
        "S2",
        vec![
            ("name".to_string(), Value::Str("b".into())),
            ("year".to_string(), Value::Int(1751)),
        ],
    )
    .unwrap();
    assert_eq!(
        executor.query(&db, text, None).unwrap().len(),
        2,
        "stale plan survived a schema change"
    );
}

#[test]
fn aborted_definition_does_not_leave_its_plan_behind() {
    let db = fresh_db("abort-invalidate");
    define_schema(&db);
    let executor = Executor::new(2);
    let text = "select x from T x";

    // Plan against a subclass that an abort then takes back.
    let unit = db.begin_unit();
    db.define_class(ClassDef::new("Ghost").extends("T"))
        .unwrap();
    assert_eq!(executor.query(&db, text, None).unwrap().len(), 0);
    db.abort_unit(unit);

    // A different subclass in its place brings the definition count back to
    // what the aborted unit's plan saw; the next query must list the Real
    // instance.
    db.define_class(ClassDef::new("Real").extends("T")).unwrap();
    db.create_object("Real", vec![("name".to_string(), Value::Str("r".into()))])
        .unwrap();
    assert_eq!(
        executor.query(&db, text, None).unwrap().len(),
        1,
        "the aborted unit's plan survived"
    );
}

/// What a reader outside an open unit that defines `Ghost` must see,
/// through a shared executor: no `Ghost` in the schema, no plan for it,
/// and an extent of `T` whose plan names no `Ghost`.
fn sees_no_ghost<R: Reader>(reader: &R, executor: &Executor) {
    assert!(reader.with_schema(|s| s.class("Ghost").is_none()));
    for (text, rows) in [
        ("select x from Ghost x", None),
        ("select x from T x", Some(1)),
    ] {
        let answer = executor.query(reader, text, None);
        assert_eq!(answer.as_ref().ok().map(|r| r.len()), rows, "{text}");
        let plan = executor
            .explain(reader, text, None)
            .map(|lines| lines.join("\n"));
        assert_eq!(plan.is_ok(), rows.is_some(), "{text}");
        assert!(!plan.unwrap_or_default().contains("Ghost"), "{text}");
    }
}

/// No dirty meta reads: the schema twin of the object layer's
/// `unbound_reads_see_no_open_unit`. While a unit defines `Ghost extends T`
/// and creates one, another thread, a view pinned mid-unit and the executor
/// they share see no `Ghost`, while the unit reads its own. After an abort
/// no cached plan names `Ghost`; after a commit a fresh view sees it.
#[test]
fn an_open_units_definitions_are_invisible_outside_it() {
    for commit in [false, true] {
        let db = fresh_db("dirty-meta");
        define_schema(&db);
        let name = |n: &str| vec![("name".to_string(), Value::Str(n.into()))];
        db.create_object("T", name("t")).unwrap();
        let executor = Executor::new(2);
        let unit = db.begin_unit();
        db.define_class(ClassDef::new("Ghost").extends("T"))
            .unwrap();
        db.create_object("Ghost", name("g")).unwrap();
        assert_eq!(
            executor
                .query(&db, "select x from T x", None)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            executor
                .query(&db, "select x from Ghost x", None)
                .unwrap()
                .len(),
            1
        );
        let view = db.read_view();
        std::thread::scope(|s| s.spawn(|| sees_no_ghost(&db, &executor)).join().unwrap());
        sees_no_ghost(&view, &executor);
        if !commit {
            db.abort_unit(unit);
            sees_no_ghost(&db, &executor);
            sees_no_ghost(&db.read_view(), &executor);
            continue;
        }
        db.commit_unit(unit).unwrap();
        sees_no_ghost(&view, &executor);
        let fresh = db.read_view();
        assert!(fresh.with_schema(|s| s.class("Ghost").is_some()));
        assert_eq!(
            executor
                .query(&fresh, "select x from T x", None)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            executor
                .query(&fresh, "select x from Ghost x", None)
                .unwrap()
                .len(),
            1
        );
    }
}
