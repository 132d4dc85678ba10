//! Snapshot-isolation integration tests for the read path.
//!
//! A [`prometheus_db::ReadView`] pins one committed storage image: whatever
//! a writer does afterwards — including streaming a multi-operation unit of
//! work — is invisible to the view, and a unit becomes visible only as a
//! whole, at commit. These tests drive a writer against concurrent readers
//! and assert that no view ever observes a torn unit, in memory and after a
//! crash-reopen; a property test pins down that a quiescent view answers
//! exactly like the live database.

use prometheus_db::{Prometheus, Rank, Reader, StoreOptions, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "snap-iso-{name}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn open(name: &str) -> (Prometheus, std::path::PathBuf) {
    let path = tmp(name);
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    (p, path)
}

/// Count the CTs named `name` as seen by one pinned view.
fn count_in_view<R: Reader>(view: &R, name: &str) -> usize {
    view.find_by_attr("CT", "working_name", &Value::from(name))
        .unwrap()
        .len()
}

#[test]
fn read_views_never_observe_torn_units() {
    // Each unit creates (or deletes) a marker/partner pair. The pair count
    // must match in *every* pinned view — unlike the live database, which
    // only promises operation ordering, a snapshot exposes whole units or
    // nothing.
    let (p, path) = open("torn");
    let tax = p.taxonomy().unwrap();
    let db = tax.db().clone();
    const READERS: usize = 3;
    let stop = Arc::new(AtomicBool::new(false));
    // Readers that have pinned at least one view. The writer starts only
    // when every reader has, so a writer faster than thread start-up still
    // runs beside readers; the readers run until it stops.
    let pinned = Arc::new(AtomicUsize::new(0));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let db = db.clone();
        let stop = stop.clone();
        let pinned = pinned.clone();
        readers.push(std::thread::spawn(move || {
            let mut view = db.read_view();
            pinned.fetch_add(1, Ordering::Relaxed);
            loop {
                let markers = count_in_view(&view, "pair-marker");
                let partners = count_in_view(&view, "pair-partner");
                assert_eq!(
                    markers, partners,
                    "a pinned view saw a torn unit ({markers} markers, {partners} partners)"
                );
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                view = db.read_view();
            }
        }));
    }
    while pinned.load(Ordering::Relaxed) < READERS {
        std::thread::yield_now();
    }
    for _ in 0..40 {
        let token = db.begin_unit();
        let partner = tax.create_ct("pair-partner", Rank::Genus).unwrap();
        let marker = tax.create_ct("pair-marker", Rank::Genus).unwrap();
        db.commit_unit(token).unwrap();
        let token = db.begin_unit();
        db.delete_object(marker).unwrap();
        db.delete_object(partner).unwrap();
        db.commit_unit(token).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    // The committed end state is whole too.
    let view = db.read_view();
    assert_eq!(
        count_in_view(&view, "pair-marker"),
        count_in_view(&view, "pair-partner")
    );
    drop(p);
    let _ = std::fs::remove_file(path);
}

#[test]
fn view_pinned_before_a_unit_commits_stays_pre_unit() {
    let (p, path) = open("pinned");
    let tax = p.taxonomy().unwrap();
    let db = tax.db().clone();
    tax.create_ct("Stable", Rank::Genus).unwrap();
    let before = db.read_view();
    let token = db.begin_unit();
    tax.create_ct("Streaming", Rank::Genus).unwrap();
    // Mid-unit: the open unit is invisible to old and new views alike.
    let mid = db.read_view();
    assert_eq!(count_in_view(&mid, "Streaming"), 0);
    assert!(
        before.same_version(&mid),
        "an open unit must not publish a snapshot"
    );
    db.commit_unit(token).unwrap();
    // Post-commit: the pinned views still answer from their image; a fresh
    // view sees the whole unit.
    assert_eq!(count_in_view(&before, "Streaming"), 0);
    let after = db.read_view();
    assert_eq!(count_in_view(&after, "Streaming"), 1);
    assert!(!after.same_version(&before));
    drop(p);
    let _ = std::fs::remove_file(path);
}

#[test]
fn crashed_unit_is_invisible_after_reopen() {
    let path = tmp("crash");
    {
        let p = Prometheus::open_with(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        let tax = p.taxonomy().unwrap();
        // One whole unit, committed.
        let token = tax.db().begin_unit();
        tax.create_ct("pair-partner", Rank::Genus).unwrap();
        tax.create_ct("pair-marker", Rank::Genus).unwrap();
        tax.db().commit_unit(token).unwrap();
        // One unit streamed but never sealed: the database is dropped with
        // the unit open, like a server crashing mid-stream.
        let _token = tax.db().begin_unit();
        tax.create_ct("torn-partner", Rank::Genus).unwrap();
        tax.create_ct("torn-marker", Rank::Genus).unwrap();
    }
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let view = p.read_view();
    assert_eq!(count_in_view(&view, "pair-partner"), 1);
    assert_eq!(count_in_view(&view, "pair-marker"), 1);
    assert_eq!(
        count_in_view(&view, "torn-partner") + count_in_view(&view, "torn-marker"),
        0,
        "recovery must discard the unsealed unit wholesale"
    );
    drop(p);
    let _ = std::fs::remove_file(path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On a quiescent store, a pinned view is indistinguishable from the
    /// live database: same extents, same attribute reads, same index seeks.
    #[test]
    fn quiescent_view_agrees_with_database(
        names in prop::collection::vec("[a-z]{1,8}", 1..12)
    ) {
        let (p, path) = open("agree");
        let tax = p.taxonomy().unwrap();
        let db = tax.db().clone();
        for name in &names {
            tax.create_ct(name, Rank::Genus).unwrap();
        }
        let view = db.read_view();
        let live_extent = db.extent("CT", false).unwrap();
        prop_assert_eq!(&view.extent("CT", false).unwrap(), &live_extent);
        for &oid in &live_extent {
            prop_assert_eq!(
                view.attr_of(oid, "working_name").unwrap(),
                db.attr_of(oid, "working_name").unwrap()
            );
            prop_assert_eq!(view.class_of(oid).unwrap(), db.class_of(oid).unwrap());
        }
        for name in &names {
            let needle = Value::from(name.as_str());
            prop_assert_eq!(
                view.find_by_attr("CT", "working_name", &needle).unwrap(),
                db.find_by_attr("CT", "working_name", &needle).unwrap()
            );
        }
        drop(p);
        let _ = std::fs::remove_file(path);
    }
}
