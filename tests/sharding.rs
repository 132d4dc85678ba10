//! Sharded-store integration: a sealed cross-shard unit across reopens,
//! equivalence of sharded and single-store query output over the same
//! logical workload, per-shard writer-lane isolation over the wire, a write
//! routed outside a unit's claim, and follower convergence against a
//! sharded primary. Crash injection at every 2PC boundary drives the commit
//! protocol's crate-private steps, so it lives in the storage crate.

use prometheus_db::{Prometheus, Reader, StoreOptions, Value};
use prometheus_replica::{Follower, FollowerConfig};
use prometheus_server::{serve, MutationOp, PrometheusClient, ServerConfig, ServerHandle};
use prometheus_storage::{Oid, ShardRouting, ShardedStore};
use prometheus_taxonomy::Rank;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fresh scratch directory (shard logs and sidecars all live under it).
fn tmp_dir(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "prometheus-sharding-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

// ---------------------------------------------------------------------
// Cross-shard 2PC (crash injection at every boundary lives beside the
// protocol's steps, in the storage crate's `shard` tests)
// ---------------------------------------------------------------------

fn reopen(dir: &Path) -> ShardedStore {
    ShardedStore::open_with(
        dir.join("store.log"),
        StoreOptions {
            sync_on_commit: false,
        },
        2,
        ShardRouting::default(),
    )
    .unwrap()
}

#[test]
fn fully_sealed_cross_shard_unit_is_idempotent_across_reopens() {
    let dir = tmp_dir("sealed");
    let a;
    let b;
    {
        let store = Arc::new(reopen(&dir));
        a = store.allocate_oid_on(0);
        b = store.allocate_oid_on(1);
        let mut unit = store.begin_unit(0b11);
        unit.put(a, b"alpha".to_vec());
        unit.put(b, b"beta".to_vec());
        unit.commit().unwrap();
        assert_eq!(store.stats_aggregate().units_2pc, 1);
    }
    for _ in 0..2 {
        let store = reopen(&dir);
        assert_eq!(store.get(a).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.get(b).as_deref(), Some(&b"beta"[..]));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Sharded output equals single-store output
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum WorkloadOp {
    Create,
    Rename(usize),
    Delete(usize),
}

fn workload_strategy() -> impl Strategy<Value = Vec<WorkloadOp>> {
    // Bias toward creation (the vendored prop_oneof! has no weight arms):
    // draw a selector and map it, two thirds creates, renames over deletes.
    let op = (0u8..6, 0usize..64).prop_map(|(sel, k)| match sel {
        0..=3 => WorkloadOp::Create,
        4 => WorkloadOp::Rename(k),
        _ => WorkloadOp::Delete(k),
    });
    prop::collection::vec(op, 1..24)
}

/// Apply the workload and project it back out through POOL. Raw OIDs differ
/// between shard counts (shard `k` stripes identifiers ≡ k mod n), so
/// equivalence is judged on attribute-projected, deterministically ordered
/// query output — the observable surface — not on identifiers.
fn run_workload(p: &Prometheus, ops: &[WorkloadOp]) -> (usize, Vec<String>) {
    let tax = p.taxonomy().unwrap();
    let mut live: Vec<Oid> = Vec::new();
    let mut counter = 0u32;
    for op in ops {
        match op {
            WorkloadOp::Create => {
                let oid = tax
                    .create_ct(&format!("Tax-{counter:04}"), Rank::Genus)
                    .unwrap();
                counter += 1;
                live.push(oid);
            }
            WorkloadOp::Rename(k) => {
                if !live.is_empty() {
                    let oid = live[k % live.len()];
                    p.db()
                        .set_attr(oid, "working_name", format!("Ren-{counter:04}"))
                        .unwrap();
                    counter += 1;
                }
            }
            WorkloadOp::Delete(k) => {
                if !live.is_empty() {
                    let oid = live.remove(k % live.len());
                    p.db().delete_object(oid).unwrap();
                }
            }
        }
    }
    let r = p
        .query("select t.working_name, t.rank from CT t order by t.working_name")
        .unwrap();
    let names = r
        .rows
        .iter()
        .map(|row| format!("{:?}", row.columns))
        .collect();
    (r.len(), names)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// The same logical workload through a 1-shard and a 3-shard database
    /// produces identical query output.
    #[test]
    fn sharded_query_output_matches_single_store(ops in workload_strategy()) {
        let single_dir = tmp_dir("prop-single");
        let sharded_dir = tmp_dir("prop-sharded");
        let opts = || StoreOptions { sync_on_commit: false };
        let single = Prometheus::open_with(single_dir.join("store.log"), opts()).unwrap();
        let sharded =
            Prometheus::open_sharded(sharded_dir.join("store.log"), opts(), 3).unwrap();

        let base = run_workload(&single, &ops);
        let split = run_workload(&sharded, &ops);
        prop_assert_eq!(&base, &split, "live query output diverged");

        // And after a restart of the sharded store the answer holds.
        drop(sharded);
        let sharded =
            Prometheus::open_sharded(sharded_dir.join("store.log"), opts(), 3).unwrap();
        let r = sharded
            .query("select t.working_name, t.rank from CT t order by t.working_name")
            .unwrap();
        prop_assert_eq!(r.len(), base.0, "row count changed across reopen");

        drop(single);
        drop(sharded);
        let _ = std::fs::remove_dir_all(&single_dir);
        let _ = std::fs::remove_dir_all(&sharded_dir);
    }
}

// ---------------------------------------------------------------------
// Wire-level: per-shard lanes, 2PC units, follower convergence
// ---------------------------------------------------------------------

fn serve_sharded(dir: &Path, shards: usize, io_threads: usize) -> ServerHandle {
    let p = Prometheus::open_sharded(
        dir.join("store.log"),
        StoreOptions {
            sync_on_commit: false,
        },
        shards,
    )
    .unwrap();
    // Install the taxonomy schema but no ICBN rules: rule-free mutation
    // batches keep their single-shard lane masks.
    p.taxonomy().unwrap();
    serve(
        p,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            io_threads,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Create CTs one batch at a time (each singleton creation batch claims one
/// round-robin home lane) until we hold an OID on each of the two shards.
/// `shard_of_oid` is `raw % shards`, so parity identifies the home.
fn one_oid_per_shard(c: &mut PrometheusClient) -> (Oid, Oid) {
    let mut by_shard: [Option<Oid>; 2] = [None, None];
    for i in 0..8 {
        let created = c
            .unit_batch(vec![MutationOp::CreateObject {
                class: "CT".into(),
                attrs: vec![
                    ("working_name".into(), Value::from(format!("Wire-{i:02}"))),
                    ("rank".into(), Value::from("Genus")),
                ],
            }])
            .unwrap();
        let oid = created[0];
        assert!(!oid.is_nil());
        by_shard[(oid.raw() % 2) as usize].get_or_insert(oid);
        if by_shard.iter().all(Option::is_some) {
            break;
        }
    }
    (
        by_shard[0].expect("a creation homed on shard 0"),
        by_shard[1].expect("a creation homed on shard 1"),
    )
}

/// Satellite guarantee: a claim on shard A never gates a session parked on
/// shard B. A long batch pinned to shard 0 must not delay a one-op batch on
/// shard 1 — on the event transport, where a parked session waits for its
/// claim's wake.
#[cfg(target_os = "linux")]
#[test]
fn lane_grant_on_one_shard_does_not_gate_the_other() {
    let dir = tmp_dir("lanes");
    let handle = serve_sharded(&dir, 2, 2);
    let addr = handle.addr();

    let mut c = PrometheusClient::connect(addr).unwrap();
    let (slow, fast) = one_oid_per_shard(&mut c);

    let long_done = std::sync::Arc::new(AtomicBool::new(false));
    let long_writer = {
        let long_done = long_done.clone();
        std::thread::spawn(move || {
            let mut c = PrometheusClient::connect(addr).unwrap();
            let ops: Vec<MutationOp> = (0..5000)
                .map(|i| MutationOp::SetAttr {
                    oid: slow,
                    attr: "working_name".into(),
                    value: Value::from(format!("Slow-{i:05}")),
                })
                .collect();
            c.unit_batch(ops).unwrap();
            long_done.store(true, Ordering::SeqCst);
        })
    };

    // Give the long batch a head start on shard 0, then run a single op on
    // shard 1. If a claim on one shard gated a claim on the other, this
    // would wait ~the whole long batch out.
    std::thread::sleep(Duration::from_millis(5));
    c.unit_batch(vec![MutationOp::SetAttr {
        oid: fast,
        attr: "working_name".into(),
        value: Value::from("Fast-00"),
    }])
    .unwrap();
    assert!(
        !long_done.load(Ordering::SeqCst),
        "shard-1 batch should complete while the shard-0 batch is still running"
    );
    long_writer.join().unwrap();

    let (m, _) = c.stats().unwrap();
    assert_eq!(m.shards, 2);
    assert_eq!(m.per_shard.len(), 2);
    assert!(
        m.per_shard.iter().all(|s| s.lane_depth == 0),
        "lanes drain once the batches settle: {:?}",
        m.per_shard
    );
    // Both shards published snapshots — the work really spread.
    assert!(m.per_shard.iter().all(|s| s.snapshot_swaps > 0));
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wire batch whose relationship spans shards becomes a 2PC unit, shows
/// up in the per-shard counters, and survives a server restart.
#[test]
fn cross_shard_wire_unit_runs_2pc_and_survives_restart() {
    let dir = tmp_dir("wire2pc");
    let handle = serve_sharded(&dir, 2, 0);
    let mut c = PrometheusClient::connect(handle.addr()).unwrap();
    let (a, b) = one_oid_per_shard(&mut c);

    let (_, storage_before) = c.stats().unwrap();
    let created = c
        .unit_batch(vec![MutationOp::CreateRelationship {
            class: "Circumscribes".into(),
            origin: a,
            destination: b,
            attrs: Vec::new(),
        }])
        .unwrap();
    assert!(
        !created[0].is_nil(),
        "relationship creation returns its OID"
    );

    let (m, storage_after) = c.stats().unwrap();
    assert!(
        storage_after.units_2pc > storage_before.units_2pc,
        "a relationship across shards must commit through 2PC \
         ({} -> {})",
        storage_before.units_2pc,
        storage_after.units_2pc
    );
    assert_eq!(
        m.per_shard.iter().map(|s| s.units_2pc).sum::<u64>(),
        storage_after.units_2pc,
        "per-shard 2PC counters sum to the aggregate"
    );
    let rows = c
        .query(
            "select u.working_name from CT t, CT u \
             where u in t -> Circumscribes order by u.working_name",
        )
        .unwrap();
    assert_eq!(rows.rows.len(), 1);
    handle.stop();

    // The decision record replays: the relationship is still there after a
    // cold reopen of the sharded store.
    let p = Prometheus::open_sharded(
        dir.join("store.log"),
        StoreOptions {
            sync_on_commit: false,
        },
        2,
    )
    .unwrap();
    let rels = p.db().rels_from(a, Some("Circumscribes")).unwrap();
    assert_eq!(rels.len(), 1);
    assert_eq!(rels[0].destination, b);
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A follower configured for the primary's shard count replays every
/// shard's log — including a cross-shard 2PC unit — and serves the same
/// answers.
#[test]
fn follower_converges_on_a_sharded_primary() {
    let dir = tmp_dir("follow");
    let handle = serve_sharded(&dir, 2, 0);
    let mut c = PrometheusClient::connect(handle.addr()).unwrap();
    let (a, b) = one_oid_per_shard(&mut c);
    c.unit_batch(vec![MutationOp::CreateRelationship {
        class: "Circumscribes".into(),
        origin: a,
        destination: b,
        attrs: Vec::new(),
    }])
    .unwrap();

    let fdir = tmp_dir("follow-replica");
    let mut config = FollowerConfig::new(handle.addr().to_string(), fdir.join("replica.log"));
    config.name = "sharded-follower".into();
    config.shards = 2;
    let follower = Follower::start(config).unwrap();
    assert!(
        follower.wait_caught_up(Duration::from_secs(30)),
        "follower catches up on both shard logs"
    );

    let pool = "select t.working_name from CT t order by t.working_name";
    let mut fc = PrometheusClient::connect(follower.addr()).unwrap();
    let on_follower = fc.query(pool).unwrap();
    let on_primary = c.query(pool).unwrap();
    assert_eq!(on_follower, on_primary, "replica answers match the primary");
    let via_rel = fc
        .query(
            "select u.working_name from CT t, CT u \
             where u in t -> Circumscribes order by u.working_name",
        )
        .unwrap();
    assert_eq!(via_rel.rows.len(), 1, "cross-shard unit replicated whole");

    follower.stop();
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// An operation whose writes route outside its unit's shard claim fails
/// when it stages them, with the storage layer's `TxnState` error and
/// nothing of it staged; the unit goes on to commit its other work alone.
#[test]
fn a_write_outside_the_claim_fails_before_it_stages() {
    let dir = tmp_dir("escape");
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let p = Prometheus::open_sharded(dir.join("store.log"), options, 2).unwrap();
    let tax = p.taxonomy().unwrap();
    let db = p.db();
    let mut by_shard: [Option<Oid>; 2] = [None, None];
    for i in 0..8 {
        let oid = tax.create_ct(&format!("Home-{i}"), Rank::Genus).unwrap();
        by_shard[(oid.raw() % 2) as usize].get_or_insert(oid);
    }
    let (a, b) = (by_shard[0].unwrap(), by_shard[1].unwrap());

    let token = db.begin_unit_on(0b01);
    let inside = tax.create_ct("Inside", Rank::Species).unwrap();
    assert_eq!(inside.raw() % 2, 0, "a claimed unit creates on its claim");
    db.set_attr(a, "working_name", "Renamed").unwrap();
    let circumscribes = prometheus_db::taxonomy::CIRCUMSCRIBES;
    let escape = db.create_relationship(circumscribes, a, b, Vec::new());
    assert!(
        matches!(
            escape,
            Err(prometheus_db::DbError::Storage(
                prometheus_storage::StorageError::TxnState(_)
            ))
        ),
        "an endpoint key on shard 1 escapes the claim: {escape:?}"
    );
    db.commit_unit(token).unwrap();
    assert!(db.exists(inside));
    assert_eq!(
        db.object(a).unwrap().attr("working_name"),
        Value::from("Renamed")
    );
    assert!(db.rels_from(a, None).unwrap().is_empty());
    assert!(db.rels_to(b, None).unwrap().is_empty());
    assert!(db.extent(circumscribes, false).unwrap().is_empty());
    drop(tax);
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deleting an object rewrites the synonym table (on shard 0) only when the
/// object was in a synonym set. A unit claiming shard 1 alone deletes a
/// plain object there; deleting `b`, synonymous with `c`, would change the
/// table, so it fails before it stages, and the abort leaves `b ~ c` — live,
/// in a fresh view and after a reopen.
#[test]
fn a_delete_stages_the_synonym_table_only_when_it_changes_it() {
    let dir = tmp_dir("dissolve");
    let open = || {
        let options = StoreOptions {
            sync_on_commit: false,
        };
        Prometheus::open_sharded(dir.join("store.log"), options, 2).unwrap()
    };
    let p = open();
    let tax = p.taxonomy().unwrap();
    let db = p.db();
    let on_shard_1: Vec<Oid> = (0..8)
        .map(|i| tax.create_ct(&format!("Name-{i}"), Rank::Genus).unwrap())
        .filter(|oid| oid.raw() % 2 == 1)
        .collect();
    let &[plain, b, c, ..] = on_shard_1.as_slice() else {
        panic!("round-robin allocation puts half of eight objects on shard 1");
    };
    db.declare_synonym(b, c).unwrap();

    let token = db.begin_unit_on(0b10);
    db.delete_object(plain).unwrap();
    db.commit_unit(token).unwrap();
    assert!(!db.exists(plain));

    let token = db.begin_unit_on(0b10);
    let dissolve = db.delete_object(b);
    assert!(
        matches!(
            dissolve,
            Err(prometheus_db::DbError::Storage(
                prometheus_storage::StorageError::TxnState(_)
            ))
        ),
        "the synonym table lives on shard 0: {dissolve:?}"
    );
    db.abort_unit(token);
    assert!(db.exists(b));
    assert!(db.same_instance(b, c), "live");
    assert!(p.read_view().same_instance(b, c), "in a fresh view");
    drop(tax);
    drop(p);
    let p = open();
    assert!(p.db().same_instance(b, c), "after a reopen");
    assert!(!p.db().exists(plain) && p.db().exists(b));
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
}
