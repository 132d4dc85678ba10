//! Integration tests for the ICBN constraint set (§7.1.3.2, Figures 35–40)
//! installed through the facade, plus PCL-defined custom rules.

use prometheus_db::{DbError, Prometheus, Rank, Reader, StoreOptions, TypeKind};

fn open(name: &str) -> Prometheus {
    let path = std::env::temp_dir().join(format!(
        "icbn-int-{name}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    Prometheus::open_with(
        path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap()
}

#[test]
fn the_full_icbn_set_installs_and_enforces() {
    let p = open("full");
    let tax = p.taxonomy_with_icbn().unwrap();
    let db = tax.db().clone();

    // Figure 35: family names end in -aceae (with the classical exceptions).
    assert!(tax.create_nt("Apium", Rank::Familia, 1753, "L.").is_err());
    // Figure 36: genus names capitalised; species epithets lowercase.
    assert!(tax.create_nt("apium", Rank::Genus, 1753, "L.").is_err());
    assert!(tax
        .create_nt("Graveolens", Rank::Species, 1753, "L.")
        .is_err());

    // Figure 37: the type-existence rule is deferred — a unit that creates
    // and typifies in sequence commits cleanly.
    let token = db.begin_unit();
    let family = tax
        .create_nt("Apiaceae", Rank::Familia, 1789, "Lindl.")
        .unwrap();
    let genus = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
    let species = tax
        .create_nt("graveolens", Rank::Species, 1753, "L.")
        .unwrap();
    let spec = tax.create_specimen("Herb.Cliff.107").unwrap();
    tax.typify(species, spec, TypeKind::Lectotype).unwrap();
    tax.typify(genus, species, TypeKind::Holotype).unwrap();
    tax.typify(family, genus, TypeKind::Holotype).unwrap();
    db.commit_unit(token).unwrap();

    // But a unit that forgets typification rolls back entirely.
    let token = db.begin_unit();
    let orphan = tax.create_nt("Sium", Rank::Genus, 1753, "L.").unwrap();
    let err = db.commit_unit(token).unwrap_err();
    assert!(
        matches!(err, DbError::ConstraintViolation { rule, .. } if rule == "icbn-type-existence")
    );
    assert!(!db.exists(orphan));

    // Figures 38/39 (the rank-order engine rule) and the facade-level check.
    let cls = tax.new_classification("test", "t", "c").unwrap();
    let ct_family = tax.create_ct("Fam", Rank::Familia).unwrap();
    let ct_genus = tax.create_ct("Gen", Rank::Genus).unwrap();
    tax.circumscribe(&cls, ct_family, ct_genus).unwrap();
    assert!(tax.circumscribe(&cls, ct_genus, ct_family).is_err());

    // Figure 40: placements attach epithets to higher names.
    tax.place(genus, species).unwrap();
    assert!(tax.place(species, genus).is_err());
}

#[test]
fn pcl_documents_install_through_the_facade() {
    let p = open("pcl");
    let tax = p.taxonomy().unwrap();
    let n = p
        .install_pcl(
            "-- working names must not be empty\n\
             context CT pre namedWorking: self.working_name != \"\"\n\
             \n\
             context CT inv speciesAreLower when self.rank = \"Species\": \
                 not capitalized(self.working_name) warn",
        )
        .unwrap();
    assert_eq!(n, 2);
    // The pre-condition aborts.
    assert!(tax.create_ct("", Rank::Genus).is_err());
    // The warn-rule lets the operation pass but records the problem.
    tax.create_ct("BadCase", Rank::Species).unwrap();
    assert!(p
        .rules()
        .warnings()
        .iter()
        .any(|w| w.contains("speciesAreLower")));
}

#[test]
fn icbn_rules_coexist_with_user_rules() {
    let p = open("coexist");
    let tax = p.taxonomy_with_icbn().unwrap();
    p.install_pcl("context Specimen pre coded: self.code != \"\"")
        .unwrap();
    assert!(tax.create_specimen("").is_err());
    assert!(tax.create_specimen("E-1").is_ok());
    // ICBN rules still active.
    assert!(tax.create_nt("apium", Rank::Genus, 1753, "L.").is_err());
}

#[test]
fn what_if_scenarios_respect_deferred_rules() {
    // A what-if unit that would leave an NT untypified cannot be kept.
    let p = open("whatif-rules");
    let tax = p.taxonomy_with_icbn().unwrap();
    let db = tax.db().clone();
    let token = db.begin_unit();
    let nt = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
    // The taxonomist inspects the speculative state…
    assert!(db.exists(nt));
    // …and decides to keep it — but the deferred ICBN rule vetoes the commit.
    assert!(db.commit_unit(token).is_err());
    assert!(!db.exists(nt));
}

/// `icbn::install`'s native rank listener once owned the `Arc<Database>` it
/// was registered on, so an ICBN-opened handle was never freed.
#[test]
fn dropping_an_icbn_handle_frees_the_database() {
    let path = std::env::temp_dir().join(format!("icbn-int-drop-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_with(&path, options.clone()).unwrap();
    let tax = p.taxonomy_with_icbn().unwrap();
    let genus = p
        .unit(|_| {
            let genus = tax.create_nt("Apium", Rank::Genus, 1753, "L.")?;
            let specimen = tax.create_specimen("Herb.Cliff.107")?;
            tax.typify(genus, specimen, TypeKind::Lectotype)?;
            Ok(genus)
        })
        .unwrap();
    let db = std::sync::Arc::downgrade(p.db());
    drop(tax);
    drop(p);
    assert!(db.upgrade().is_none(), "the database outlived its handle");

    let p = Prometheus::open_with(&path, options).unwrap();
    assert!(p.db().exists(genus));
    assert!(p.taxonomy_with_icbn().is_ok());
    let _ = std::fs::remove_file(&path);
}

/// The rank rules (Figures 38–40) are engine rules, so they persist with the
/// others in the rules record: a database reopened without installing the
/// ICBN set still rejects an inverted circumscription and a genus placed
/// under a species.
#[test]
fn rank_rules_persist_without_reinstalling() {
    let path = std::env::temp_dir().join(format!(
        "icbn-int-persist-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_with(&path, options.clone()).unwrap();
    let tax = p.taxonomy_with_icbn().unwrap();
    let (genus, species, ct_genus, ct_species) = p
        .unit(|_| {
            let genus = tax.create_nt("Apium", Rank::Genus, 1753, "L.")?;
            let species = tax.create_nt("graveolens", Rank::Species, 1753, "L.")?;
            let specimen = tax.create_specimen("Herb.Cliff.107")?;
            tax.typify(species, specimen, TypeKind::Lectotype)?;
            tax.typify(genus, species, TypeKind::Holotype)?;
            let ct_genus = tax.create_ct("Gen", Rank::Genus)?;
            let ct_species = tax.create_ct("sp", Rank::Species)?;
            Ok((genus, species, ct_genus, ct_species))
        })
        .unwrap();
    drop(tax);
    drop(p);

    let p = Prometheus::open_with(&path, options).unwrap();
    p.taxonomy().unwrap();
    let db = p.db();
    let rule_of = |err: DbError| match err {
        DbError::ConstraintViolation { rule, .. } => rule,
        other => panic!("expected a constraint violation, got {other}"),
    };
    let err = db
        .create_relationship("Circumscribes", ct_species, ct_genus, Vec::new())
        .unwrap_err();
    assert_eq!(rule_of(err), "icbn-rank-order");
    let err = db
        .create_relationship("Placement", species, genus, Vec::new())
        .unwrap_err();
    assert_eq!(rule_of(err), "icbn-placement");
    db.create_relationship("Placement", genus, species, Vec::new())
        .unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A PCL document installs in one unit: when its second rule's name is
/// taken, its first rule is neither listed nor enforced.
#[test]
fn install_pcl_is_all_or_none() {
    let p = open("pcl-all-or-none");
    let tax = p.taxonomy().unwrap();
    let named = "context CT pre named: self.working_name != \"\"";
    assert_eq!(p.install_pcl(named).unwrap(), 1);
    let doc = format!("context CT pre noSium: self.working_name != \"Sium\"\n{named}");
    let err = p.install_pcl(&doc).unwrap_err();
    assert!(err.to_string().contains("already defined"), "{err}");
    let names: Vec<String> = p
        .rules()
        .rules(p.db())
        .unwrap()
        .into_iter()
        .map(|r| r.name)
        .collect();
    assert_eq!(names, vec!["named".to_string()]);
    assert!(tax.create_ct("Sium", Rank::Genus).is_ok());
    assert!(tax.create_ct("", Rank::Genus).is_err());
}

/// A PCL document that fails inside an open unit fails alone: the unit
/// stays open with what it did before, and its commit keeps that.
#[test]
fn install_pcl_failing_inside_a_unit_keeps_the_unit() {
    let p = open("pcl-in-unit");
    let tax = p.taxonomy().unwrap();
    let named = "context CT pre named: self.working_name != \"\"";
    p.install_pcl(named).unwrap();
    let db = p.db();
    let token = db.begin_unit();
    let ct = tax.create_ct("Daucus", Rank::Genus).unwrap();
    let doc = format!("context CT pre noSium: self.working_name != \"Sium\"\n{named}");
    let err = p.install_pcl(&doc).unwrap_err();
    assert!(err.to_string().contains("already defined"), "{err}");
    assert!(db.in_unit(), "the unit stays open");
    assert!(db.exists(ct));
    db.commit_unit(token).unwrap();
    assert!(db.exists(ct));
    assert!(tax.create_ct("Sium", Rank::Genus).is_ok());
}

/// Installing the ICBN set on a reopened database that holds it adds
/// nothing and changes nothing: a rule disabled before the reopen stays
/// disabled, and all six names still come back.
#[test]
fn icbn_installs_again_on_a_reopened_database_and_keeps_a_disabled_rule() {
    let path = std::env::temp_dir().join(format!(
        "icbn-int-reinstall-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_with(&path, options.clone()).unwrap();
    p.taxonomy_with_icbn().unwrap();
    let disabled = "icbn-genus-capitalised";
    assert!(p.rules().set_enabled(p.db(), disabled, false).unwrap());
    drop(p);

    let p = Prometheus::open_with(&path, options).unwrap();
    let tax = p.taxonomy_with_icbn().unwrap();
    let names = prometheus_db::taxonomy::icbn::install(&tax, p.rules()).unwrap();
    assert_eq!(names.len(), 6);
    let rules = p.rules().rules(p.db()).unwrap();
    let stored: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(stored, names.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(rules.iter().all(|r| r.enabled == (r.name != disabled)));
    // The disabled rule does not fire: a lowercase genus, typified in its
    // unit, commits.
    p.unit(|_| {
        let genus = tax.create_nt("apium", Rank::Genus, 1753, "L.")?;
        let specimen = tax.create_specimen("Herb.Cliff.107")?;
        tax.typify(genus, specimen, TypeKind::Lectotype)
    })
    .unwrap();
    let _ = std::fs::remove_file(&path);
}
