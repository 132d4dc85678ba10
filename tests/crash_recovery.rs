//! Durability integration tests: a taxonomic database survives close/reopen
//! and torn-log crashes with schema, data, indexes, classifications, rules
//! and synonyms intact.

use prometheus_db::{Prometheus, Rank, Rule, StoreOptions, TypeKind, Value};
use prometheus_taxonomy::dataset::{random_flora, FloraParams};
use std::io::Write;

fn tmp(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "crash-{name}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn full_state_survives_reopen() {
    let path = tmp("reopen");
    let flora_species;
    let cls_name;
    {
        let p = Prometheus::open_with(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        let tax = p.taxonomy().unwrap();
        let flora = random_flora(&tax, &FloraParams::default(), 99).unwrap();
        flora_species = flora.species.len();
        cls_name = flora.classification.name(tax.db()).unwrap();
        // A rule, a synonym, a view.
        p.rules()
            .add_rule(
                tax.db(),
                Rule::invariant("keep", "CT", "self.working_name != null", "m"),
            )
            .unwrap();
        tax.db()
            .declare_synonym(flora.specimens[0], flora.specimens[1])
            .unwrap();
        // Ensure everything is flushed: reopen relies on commit-time flush
        // (sync_on_commit=false still writes; only fsync is skipped).
    }
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let tax = p.taxonomy().unwrap();
    let db = tax.db();
    // Schema survived (install is idempotent and found it).
    assert!(db.with_schema(|s| s.class("CT").is_some()));
    // Data and indexes.
    assert_eq!(
        db.extent("CT", false).unwrap().len(),
        FloraParams::default().taxon_count()
    );
    let cls = db
        .classification_by_name(&cls_name)
        .unwrap()
        .expect("classification");
    let handle = prometheus_db::Classification::from_oid(cls);
    assert_eq!(
        handle.leaves(db).unwrap().len(),
        FloraParams::default().specimen_count(),
        "classification membership survived"
    );
    let _ = flora_species;
    // Rules are read from the reopened image.
    assert!(p
        .rules()
        .rules(db)
        .unwrap()
        .iter()
        .any(|r| r.name == "keep"));
    // Synonyms.
    let specimens = db.extent("Specimen", false).unwrap();
    assert!(
        db.same_instance(specimens[0], specimens[1]) || {
            // extent order is not creation order; check any synonym pair exists
            specimens.iter().any(|&a| db.synonym_set(a).len() > 1)
        }
    );
}

#[test]
fn torn_tail_is_discarded_but_committed_state_survives() {
    let path = tmp("torn");
    let ct;
    {
        let p = Prometheus::open_with(
            &path,
            StoreOptions {
                sync_on_commit: true,
            },
        )
        .unwrap();
        let tax = p.taxonomy().unwrap();
        ct = tax.create_ct("Survivor", Rank::Genus).unwrap();
    }
    // Simulate a crash mid-append: garbage at the end of the log.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0x13, 0x00, 0x00]).unwrap();
    }
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: true,
        },
    )
    .unwrap();
    let tax = p.taxonomy().unwrap();
    assert_eq!(tax.name_of(ct).unwrap(), "Survivor");
    // The database remains writable after recovery truncated the tail.
    let ct2 = tax.create_ct("PostCrash", Rank::Genus).unwrap();
    assert!(tax.db().exists(ct2));
}

#[test]
fn compaction_preserves_taxonomic_state() {
    let path = tmp("compact");
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let tax = p.taxonomy().unwrap();
    let db = tax.db().clone();
    // Churn: repeatedly rename a CT so the log accumulates garbage.
    let ct = tax.create_ct("Churn", Rank::Genus).unwrap();
    for i in 0..100 {
        db.set_attr(ct, "working_name", format!("Churn-{i}"))
            .unwrap();
    }
    let before = std::fs::metadata(&path).unwrap().len();
    db.store().compact().unwrap();
    let after = std::fs::metadata(&path).unwrap().len();
    assert!(after < before);
    assert_eq!(tax.name_of(ct).unwrap(), "Churn-99");
    // Index still works after compaction.
    assert_eq!(
        db.find_by_attr("CT", "working_name", &Value::from("Churn-99"))
            .unwrap(),
        vec![ct]
    );
    drop(p);
    // And after reopen.
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let tax = p.taxonomy().unwrap();
    assert_eq!(tax.name_of(ct).unwrap(), "Churn-99");
}

#[test]
fn aborted_units_leave_no_trace_after_reopen() {
    let path = tmp("aborted");
    {
        let p = Prometheus::open_with(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        let tax = p.taxonomy().unwrap();
        let db = tax.db().clone();
        let committed = tax.create_ct("Committed", Rank::Genus).unwrap();
        let token = db.begin_unit();
        let _doomed = tax.create_ct("Doomed", Rank::Genus).unwrap();
        let s = tax.create_specimen("doomed-spec").unwrap();
        let nt = tax.create_nt("Doomed", Rank::Genus, 1999, "X.").unwrap();
        tax.typify(nt, s, TypeKind::Holotype).unwrap();
        db.abort_unit(token);
        assert!(db.exists(committed));
    }
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let r = p.query("select t.working_name from CT t").unwrap();
    assert_eq!(r.first_column(), vec![Value::from("Committed")]);
    assert!(p.query("select n from NT n").unwrap().is_empty());
    assert!(p.query("select s from Specimen s").unwrap().is_empty());
}

#[test]
fn every_log_truncation_point_recovers_cleanly() {
    // Crash-anywhere robustness: whatever prefix of the log survives a
    // crash, opening the store must succeed and yield a consistent state
    // (some prefix of the committed history).
    let path = tmp("truncate-sweep");
    {
        let p = Prometheus::open_with(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        let tax = p.taxonomy().unwrap();
        for i in 0..10 {
            let ct = tax.create_ct(&format!("T{i}"), Rank::Genus).unwrap();
            let s = tax.create_specimen(&format!("S{i}")).unwrap();
            let _ = (ct, s);
        }
    }
    let full = std::fs::read(&path).unwrap();
    let step = (full.len() / 23).max(1);
    let scratch = tmp("truncate-scratch");
    let mut last_ct_count = 0usize;
    for cut in (0..=full.len()).step_by(step) {
        std::fs::write(&scratch, &full[..cut]).unwrap();
        let p = Prometheus::open_with(
            &scratch,
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap_or_else(|e| panic!("open failed at truncation {cut}: {e}"));
        // Consistency: every surviving CT is intact and indexed.
        let schema_ready = p.db().with_schema(|s| s.class("CT").is_some());
        if !schema_ready {
            continue; // truncated before the schema write — empty database
        }
        let cts = p.db().extent("CT", false).unwrap();
        for oid in &cts {
            let obj = p.db().object(*oid).unwrap();
            let name = obj.attr("working_name");
            assert!(
                p.db()
                    .find_by_attr("CT", "working_name", &name)
                    .unwrap()
                    .contains(oid),
                "index out of sync at truncation {cut}"
            );
        }
        // Monotonicity: longer prefixes never lose earlier commits.
        assert!(
            cts.len() >= last_ct_count,
            "history regressed at truncation {cut}"
        );
        last_ct_count = cts.len();
    }
    assert_eq!(last_ct_count, 10, "the full log must recover everything");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(scratch);
}
