//! The determinism contract of the parallel executor: for *any* database
//! and *any* query, parallel execution returns exactly the sequential
//! result — same rows, same order, same column headers. Morsel outputs
//! merge positionally, so this must hold bit-for-bit, not just as sets.
//!
//! Also pins the plan cache's schema-version invalidation: a cached plan
//! carries schema-derived decisions (conformance sets, index seeds), so a
//! schema change must force a re-plan — the stale-plan failure mode is a
//! subclass instance silently dropped from its superclass extent.

use prometheus_object::{
    shard_routing, AttrDef, Cardinality, ClassDef, Database, RelClassDef, ShardedStore,
    StoreOptions, Type, Value,
};
use prometheus_pool::{eval, Executor};
use proptest::prelude::*;
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

#[test]
fn schema_change_invalidates_cached_plans() {
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
    assert_eq!(executor.query(&db, text, None).unwrap().len(), 1);
    let warm = executor.stats();
    assert_eq!((warm.plan_cache_misses, warm.plan_cache_hits), (1, 1));

    // A new subclass bumps the schema version. The cached plan's
    // conformance set predates the subclass — reused stale, it would
    // silently drop the S2 instance from T's extent.
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
    let after = executor.stats();
    assert_eq!(
        after.plan_cache_misses, 2,
        "schema change must force a re-plan"
    );

    // And the re-planned entry is cached again.
    executor.query(&db, text, None).unwrap();
    assert_eq!(executor.stats().plan_cache_hits, 2);
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
    // what the cached plan saw; its conformance set {T, S, Ghost} would drop
    // the Real instance.
    db.define_class(ClassDef::new("Real").extends("T")).unwrap();
    db.create_object("Real", vec![("name".to_string(), Value::Str("r".into()))])
        .unwrap();
    assert_eq!(
        executor.query(&db, text, None).unwrap().len(),
        1,
        "the aborted unit's plan survived"
    );
}
