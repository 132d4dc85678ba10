//! End-to-end POOL query tests over a small taxonomic database modelled on
//! the thesis' Apium / Heliosciadium worked example (Figure 3).

use prometheus_object::{
    shard_routing, AttrDef, Cardinality, ClassDef, Database, Date, RelClassDef, ShardedStore,
    StoreOptions, Type, Value,
};
use prometheus_pool::query;
use std::sync::Arc;

fn attrs(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Build the test database:
///
/// * classes `Taxon` (abstract base), `CT`, `NT`, `Specimen`;
/// * relationships `Circumscribes` (CT → Object, sharable aggregation),
///   `HasType` (NT → Object, association, attr `kind`), `Placement`
///   (NT → NT);
/// * two overlapping classifications (`L1753`, `K1824`) over shared
///   specimens.
fn sample_db() -> Database {
    let path = std::env::temp_dir().join(format!(
        "pool-e2e-{}-{:?}-{}.log",
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
    let db = Database::open_sharded(store).unwrap();

    db.define_class(
        ClassDef::new("Taxon")
            .abstract_class()
            .attr(AttrDef::required("name", Type::Str).indexed())
            .attr(AttrDef::optional("rank", Type::Str).indexed()),
    )
    .unwrap();
    db.define_class(ClassDef::new("CT").extends("Taxon"))
        .unwrap();
    db.define_class(
        ClassDef::new("NT")
            .extends("Taxon")
            .attr(AttrDef::optional("year", Type::Int).indexed())
            .attr(AttrDef::optional("author", Type::Str)),
    )
    .unwrap();
    db.define_class(
        ClassDef::new("Specimen")
            .attr(AttrDef::required("code", Type::Str).indexed())
            .attr(AttrDef::optional("collector", Type::Str)),
    )
    .unwrap();
    db.define_relationship(
        RelClassDef::aggregation("Circumscribes", "CT", "Object").sharable(true),
    )
    .unwrap();
    db.define_relationship(
        RelClassDef::association("HasType", "NT", "Object")
            .attr(AttrDef::optional("kind", Type::Str))
            .destination_cardinality(Cardinality::MANY),
    )
    .unwrap();
    db.define_relationship(RelClassDef::association("Placement", "NT", "NT"))
        .unwrap();

    // Specimens.
    let s107 = db
        .create_object(
            "Specimen",
            attrs(&[
                ("code", "Herb.Cliff.107".into()),
                ("collector", "Linnaeus".into()),
            ]),
        )
        .unwrap();
    let s201 = db
        .create_object("Specimen", attrs(&[("code", "RBGE-201".into())]))
        .unwrap();
    let s202 = db
        .create_object("Specimen", attrs(&[("code", "RBGE-202".into())]))
        .unwrap();

    // Nomenclatural taxa.
    let apium = db
        .create_object(
            "NT",
            attrs(&[
                ("name", "Apium".into()),
                ("rank", "Genus".into()),
                ("year", Value::Int(1753)),
                ("author", "L.".into()),
            ]),
        )
        .unwrap();
    let graveolens = db
        .create_object(
            "NT",
            attrs(&[
                ("name", "graveolens".into()),
                ("rank", "Species".into()),
                ("year", Value::Int(1753)),
                ("author", "L.".into()),
            ]),
        )
        .unwrap();
    let helio = db
        .create_object(
            "NT",
            attrs(&[
                ("name", "Heliosciadium".into()),
                ("rank", "Genus".into()),
                ("year", Value::Int(1824)),
                ("author", "W.D.J.Koch".into()),
            ]),
        )
        .unwrap();
    db.create_relationship("Placement", apium, graveolens, attrs(&[]))
        .unwrap();
    db.create_relationship(
        "HasType",
        graveolens,
        s107,
        attrs(&[("kind", "lectotype".into())]),
    )
    .unwrap();
    db.create_relationship(
        "HasType",
        apium,
        graveolens,
        attrs(&[("kind", "holotype".into())]),
    )
    .unwrap();
    let _ = helio;

    // Circumscription taxa and two overlapping classifications.
    let ct_apium = db
        .create_object(
            "CT",
            attrs(&[("name", "Apium".into()), ("rank", "Genus".into())]),
        )
        .unwrap();
    let ct_graveolens = db
        .create_object(
            "CT",
            attrs(&[("name", "graveolens".into()), ("rank", "Species".into())]),
        )
        .unwrap();
    let ct_helio = db
        .create_object(
            "CT",
            attrs(&[("name", "Heliosciadium".into()), ("rank", "Genus".into())]),
        )
        .unwrap();

    let l1753 = db
        .create_classification("L1753", attrs(&[("author", "Linnaeus".into())]), true)
        .unwrap();
    let k1824 = db
        .create_classification("K1824", attrs(&[("author", "Koch".into())]), true)
        .unwrap();

    let e1 = db
        .create_relationship("Circumscribes", ct_apium, ct_graveolens, attrs(&[]))
        .unwrap();
    let e2 = db
        .create_relationship("Circumscribes", ct_graveolens, s107, attrs(&[]))
        .unwrap();
    let e3 = db
        .create_relationship("Circumscribes", ct_graveolens, s201, attrs(&[]))
        .unwrap();
    db.add_edge_to_classification(l1753, e1).unwrap();
    db.add_edge_to_classification(l1753, e2).unwrap();
    db.add_edge_to_classification(l1753, e3).unwrap();

    // Koch's revision: Heliosciadium takes s201 and s202 directly.
    let e4 = db
        .create_relationship("Circumscribes", ct_helio, s201, attrs(&[]))
        .unwrap();
    let e5 = db
        .create_relationship("Circumscribes", ct_helio, s202, attrs(&[]))
        .unwrap();
    db.add_edge_to_classification(k1824, e4).unwrap();
    db.add_edge_to_classification(k1824, e5).unwrap();

    db
}

#[test]
fn exact_match_uses_index_and_returns_rows() {
    let db = sample_db();
    let r = query(
        &db,
        "select t.name, t.year from NT t where t.name = \"Apium\"",
    )
    .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(
        r.rows[0].columns,
        vec![Value::from("Apium"), Value::Int(1753)]
    );
    assert_eq!(r.columns, vec!["t.name".to_string(), "t.year".to_string()]);
}

#[test]
fn deep_extents_are_polymorphic() {
    let db = sample_db();
    // Taxon is abstract; its deep extent covers NT and CT instances.
    let r = query(&db, "select t from Taxon t").unwrap();
    assert_eq!(r.len(), 6);
    let r = query(&db, "select t from NT t").unwrap();
    assert_eq!(r.len(), 3);
}

#[test]
fn range_comparison_and_ordering() {
    let db = sample_db();
    let r = query(
        &db,
        "select t.name from NT t where t.year >= 1753 and t.year < 1800 order by t.name",
    )
    .unwrap();
    let names: Vec<Value> = r.first_column();
    assert_eq!(names, vec![Value::from("Apium"), Value::from("graveolens")]);
    let r = query(
        &db,
        "select t.name from NT t order by t.year desc, t.name limit 1",
    )
    .unwrap();
    assert_eq!(r.first_column(), vec![Value::from("Heliosciadium")]);
}

#[test]
fn one_step_traversal() {
    let db = sample_db();
    // Specimens directly circumscribed by the CT named graveolens.
    let r = query(
        &db,
        "select s.code from CT t, Specimen s \
         where t.name = \"graveolens\" and s in t -> Circumscribes order by s.code",
    )
    .unwrap();
    assert_eq!(
        r.first_column(),
        vec![Value::from("Herb.Cliff.107"), Value::from("RBGE-201")]
    );
}

#[test]
fn closure_traversal_reaches_specimens_transitively() {
    let db = sample_db();
    let r = query(
        &db,
        "select distinct s.code from CT t, Specimen s \
         where t.name = \"Apium\" and s in t -> Circumscribes* order by s.code",
    )
    .unwrap();
    // Apium -> graveolens -> {107, 201}.
    assert_eq!(
        r.first_column(),
        vec![Value::from("Herb.Cliff.107"), Value::from("RBGE-201")]
    );
}

#[test]
fn backward_traversal_finds_containing_taxa() {
    let db = sample_db();
    let r = query(
        &db,
        "select distinct t.name from Specimen s, CT t \
         where s.code = \"RBGE-201\" and t in s <- Circumscribes* order by t.name",
    )
    .unwrap();
    // 201 is in graveolens (hence Apium) and in Heliosciadium.
    assert_eq!(
        r.first_column(),
        vec![
            Value::from("Apium"),
            Value::from("Heliosciadium"),
            Value::from("graveolens")
        ]
    );
}

#[test]
fn classification_context_scopes_queries_and_traversals() {
    let db = sample_db();
    // In Linnaeus' context, 201's only container chain is graveolens/Apium.
    let r = query(
        &db,
        "select distinct t.name from Specimen s, CT t in classification \"L1753\" \
         where s.code = \"RBGE-201\" and t in s <- Circumscribes* order by t.name",
    )
    .unwrap();
    assert_eq!(
        r.first_column(),
        vec![Value::from("Apium"), Value::from("graveolens")]
    );
    // In Koch's context, it is Heliosciadium.
    let r = query(
        &db,
        "select distinct t.name from Specimen s, CT t in classification \"K1824\" \
         where s.code = \"RBGE-201\" and t in s <- Circumscribes* order by t.name",
    )
    .unwrap();
    assert_eq!(r.first_column(), vec![Value::from("Heliosciadium")]);
}

#[test]
fn edges_extent_and_relationship_attrs() {
    let db = sample_db();
    let r = query(
        &db,
        "select e.kind from edges HasType e where e.kind = \"lectotype\"",
    )
    .unwrap();
    assert_eq!(r.len(), 1);
    // Pseudo-attributes origin/destination make relationships first-class.
    let r = query(
        &db,
        "select e.origin.name, e.destination.code from edges HasType e \
         where e.kind = \"lectotype\"",
    )
    .unwrap();
    assert_eq!(
        r.rows[0].columns,
        vec![Value::from("graveolens"), Value::from("Herb.Cliff.107")]
    );
}

#[test]
fn edge_operators_from_expression() {
    let db = sample_db();
    let r = query(
        &db,
        "select count(select e from edges Circumscribes e) from NT x where x.name = \"Apium\"",
    )
    .unwrap();
    assert_eq!(r.rows[0].columns, vec![Value::Int(5)]);
    // ->> returns the edge instances leaving a node.
    let r = query(
        &db,
        "select count(t ->> Circumscribes) from CT t where t.name = \"graveolens\"",
    )
    .unwrap();
    assert_eq!(r.rows[0].columns, vec![Value::Int(2)]);
}

#[test]
fn selective_downcast_filters_by_class() {
    let db = sample_db();
    // Children of graveolens in L1753 are specimens; downcasting to CT
    // removes them, downcasting children of Apium keeps graveolens.
    let r = query(
        &db,
        "select count((CT) t -> Circumscribes) from CT t where t.name = \"Apium\"",
    )
    .unwrap();
    assert_eq!(r.rows[0].columns, vec![Value::Int(1)]);
    let r = query(
        &db,
        "select length((Specimen) collect(t -> Circumscribes)) \
         from CT t where t.name = \"graveolens\"",
    )
    .unwrap_or_else(|_| {
        // (Specimen) over a collect() expression — equivalent formulation:
        query(
            &db,
            "select count(s) from CT t, Specimen s \
             where t.name = \"graveolens\" and s in t -> Circumscribes",
        )
        .unwrap()
    });
    assert_eq!(r.rows[0].columns, vec![Value::Int(2)]);
}

#[test]
fn exists_and_in_subqueries() {
    let db = sample_db();
    // Taxa that circumscribe at least one specimen collected by Linnaeus.
    let r = query(
        &db,
        "select t.name from CT t where exists \
         (select s from Specimen s where s in t -> Circumscribes* and s.collector = \"Linnaeus\") \
         order by t.name",
    )
    .unwrap();
    assert_eq!(
        r.first_column(),
        vec![Value::from("Apium"), Value::from("graveolens")]
    );
    // `in (select ...)`.
    let r = query(
        &db,
        "select s.code from Specimen s where s in \
         (select x from Specimen x where x.code like \"RBGE%\") order by s.code",
    )
    .unwrap();
    assert_eq!(r.len(), 2);
}

#[test]
fn aggregates() {
    let db = sample_db();
    let r = query(
        &db,
        "select count(select t from NT t) from Specimen s limit 1",
    )
    .unwrap();
    assert_eq!(r.rows[0].columns, vec![Value::Int(3)]);
    let r = query(
        &db,
        "select min(select t.year from NT t), max(select t.year from NT t), \
                sum(select t.year from NT t), avg(select t.year from NT t) \
         from Specimen s limit 1",
    )
    .unwrap();
    assert_eq!(
        r.rows[0].columns,
        vec![
            Value::Int(1753),
            Value::Int(1824),
            Value::Int(1753 + 1753 + 1824),
            Value::Float((1753.0 + 1753.0 + 1824.0) / 3.0),
        ]
    );
}

#[test]
fn like_and_string_functions() {
    let db = sample_db();
    let r = query(
        &db,
        "select upper(t.name) from NT t where lower(t.name) like \"helio%\"",
    )
    .unwrap();
    assert_eq!(r.first_column(), vec![Value::from("HELIOSCIADIUM")]);
}

/// `index_of(args)` evaluated on Apium, an NT of rank Genus.
fn index_of_apium(args: &str) -> Result<Value, prometheus_object::DbError> {
    let db = sample_db();
    let r = query(
        &db,
        &format!("select index_of({args}) from NT t where t.name = \"Apium\""),
    )?;
    Ok(r.rows[0].columns[0].clone())
}

#[test]
fn index_of_finds_a_value_among_its_arguments() {
    assert_eq!(
        index_of_apium("t.rank, \"Familia\", \"Genus\", \"Species\"").unwrap(),
        Value::Int(1)
    );
}

#[test]
fn index_of_an_absent_value_is_null() {
    assert_eq!(
        index_of_apium("t.rank, \"Familia\", \"Species\"").unwrap(),
        Value::Null
    );
}

#[test]
fn index_of_a_null_is_null() {
    // Null is never found, even where it is listed.
    assert_eq!(
        index_of_apium("null, \"Genus\", null").unwrap(),
        Value::Null
    );
    assert_eq!(
        index_of_apium("(CT) t, \"Genus\", null").unwrap(),
        Value::Null
    );
}

#[test]
fn index_of_needs_a_value_and_a_list() {
    for args in ["t.rank", ""] {
        let err = index_of_apium(args).unwrap_err().to_string();
        assert!(err.contains("index_of() expects at least 2"), "{err}");
    }
}

#[test]
fn attribute_inheritance_visible_through_pool() {
    let db = sample_db();
    // Declare an inheritable attribute on a new relationship class and check
    // POOL sees it through plain attribute access.
    db.define_relationship(
        RelClassDef::association("CollectedOn", "Specimen", "Specimen")
            .attr(AttrDef::optional("expedition", Type::Str))
            .inherits("expedition"),
    )
    .unwrap();
    let r = query(&db, "select s from Specimen s where s.code = \"RBGE-201\"").unwrap();
    let s201 = r.oids()[0];
    let r = query(&db, "select s from Specimen s where s.code = \"RBGE-202\"").unwrap();
    let s202 = r.oids()[0];
    db.create_relationship(
        "CollectedOn",
        s201,
        s202,
        attrs(&[("expedition", "Nepal 1952".into())]),
    )
    .unwrap();
    let r = query(
        &db,
        "select s.expedition from Specimen s where s.code = \"RBGE-202\"",
    )
    .unwrap();
    assert_eq!(r.first_column(), vec![Value::from("Nepal 1952")]);
}

#[test]
fn depth_bounded_traversal() {
    let db = sample_db();
    // Depth exactly 1 below Apium: just graveolens (not its specimens).
    let r = query(
        &db,
        "select count(t -> Circumscribes[1]) from CT t where t.name = \"Apium\"",
    )
    .unwrap();
    assert_eq!(r.rows[0].columns, vec![Value::Int(1)]);
    // Depth 2..2: exactly the specimens.
    let r = query(
        &db,
        "select count(t -> Circumscribes[2..2]) from CT t where t.name = \"Apium\"",
    )
    .unwrap();
    assert_eq!(r.rows[0].columns, vec![Value::Int(2)]);
    // Optional traversal includes the start node.
    let r = query(
        &db,
        "select count(t -> Circumscribes?) from CT t where t.name = \"Apium\"",
    )
    .unwrap();
    assert_eq!(r.rows[0].columns, vec![Value::Int(2)]); // itself + graveolens
}

#[test]
fn dates_compare() {
    let db = sample_db();
    let r = query(
        &db,
        "select t.name from NT t where date(t.year) < date(1800) order by t.name",
    )
    .unwrap();
    assert_eq!(r.len(), 2);
    let _ = Date::year(1753);
}

#[test]
fn distinct_and_limit() {
    let db = sample_db();
    let r = query(&db, "select distinct t.rank from Taxon t order by t.rank").unwrap();
    assert_eq!(
        r.first_column(),
        vec![Value::from("Genus"), Value::from("Species")]
    );
    let r = query(&db, "select t from Taxon t limit 2").unwrap();
    assert_eq!(r.len(), 2);
}

#[test]
fn errors_are_reported() {
    let db = sample_db();
    assert!(query(&db, "select t from Nowhere t").is_err());
    assert!(query(&db, "select t.name from NT t where t.name =").is_err());
    assert!(query(&db, "select t from NT t in classification \"ghost\"").is_err());
    assert!(query(&db, "select frobnicate(t) from NT t").is_err());
}

#[test]
fn view_sources_range_over_view_members() {
    use prometheus_object::View;
    let db = sample_db();
    // A view of specimens participating in Linnaeus' classification.
    let cls = db.classification_by_name("L1753").unwrap().unwrap();
    View::new("linnaean-specimens")
        .class("Specimen")
        .classification(cls)
        .save(&db)
        .unwrap();
    let r = query(
        &db,
        "select s.code from view \"linnaean-specimens\" s order by s.code",
    )
    .unwrap();
    assert_eq!(
        r.first_column(),
        vec![Value::from("Herb.Cliff.107"), Value::from("RBGE-201")]
    );
    // Views join with ordinary extents.
    let r = query(
        &db,
        "select s.code from view \"linnaean-specimens\" s, CT t \
         where t.name = \"graveolens\" and s in t -> Circumscribes order by s.code",
    )
    .unwrap();
    assert_eq!(r.len(), 2);
    // Unknown views error.
    assert!(query(&db, "select x from view \"ghost\" x").is_err());
}

#[test]
fn predicate_pushdown_preserves_join_semantics() {
    let db = sample_db();
    // A two-variable query whose per-variable predicates prune both sides;
    // the result must be identical to the unprunable formulation.
    let pruned = query(
        &db,
        "select t.name, s.code from CT t, Specimen s \
         where t.rank = \"Genus\" and s.code like \"RBGE%\" and s in t -> Circumscribes* \
         order by t.name, s.code",
    )
    .unwrap();
    // Same semantics expressed so nothing can be pushed (single disjunction).
    let unpruned = query(
        &db,
        "select t.name, s.code from CT t, Specimen s \
         where (t.rank = \"Genus\" and s.code like \"RBGE%\" and s in t -> Circumscribes*) \
               or false \
         order by t.name, s.code",
    )
    .unwrap();
    assert_eq!(pruned.rows, unpruned.rows);
    assert!(!pruned.is_empty());
}

#[test]
fn explain_places_residuals_and_hoists_haystacks() {
    let db = sample_db();
    let executor = prometheus_pool::Executor::new(1);
    let text = "select t.name, s.code from CT t, Specimen s \
                where t.rank = \"Genus\" and s in t -> Circumscribes* and t.name != s.code \
                and 1 = 1";
    let lines = executor.explain(&db, text, Some("L1753")).unwrap();
    // A single-variable conjunct is its source's. The join conjuncts run
    // once `s`, the second variable, is bound; the closure names `t` alone,
    // so it is evaluated once per `t` and probed for each `s`. A conjunct
    // naming no variable runs before any is bound.
    let at = |line: &str| lines.iter().position(|l| l == line);
    assert!(
        at("  pushdown: (t.rank = \"Genus\")").is_some(),
        "{lines:?}"
    );
    let residuals = [
        "residual: (s in (t -> Circumscribes*)) [depth 2, haystack hoisted to depth 1]",
        "residual: (t.name != s.code) [depth 2]",
        "residual: (1 = 1) [depth 0]",
    ];
    let first = at(residuals[0]).unwrap_or_else(|| panic!("{lines:?}"));
    assert_eq!(&lines[first..first + 3], residuals, "{lines:?}");
    assert!(lines[first + 3].starts_with("join:"), "{lines:?}");
    assert_eq!(
        executor.query(&db, text, Some("L1753")).unwrap().len(),
        2,
        "Apium's two Linnaean specimens"
    );
    // Nothing is left over when every conjunct has a source to go to.
    let lines = executor
        .explain(&db, "select t from CT t where t.rank = \"Genus\"", None)
        .unwrap();
    assert!(lines.contains(&"residual: none".to_string()), "{lines:?}");
}
