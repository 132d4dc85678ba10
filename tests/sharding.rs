//! Sharded-store integration: cross-shard two-phase commit atomicity under
//! crash injection at every 2PC boundary, equivalence of sharded and
//! single-store query output over the same logical workload, per-shard
//! writer-lane isolation over the wire, and follower convergence against a
//! sharded primary.
//!
//! Crash injection drives the member stores' public 2PC API
//! ([`Store::prepare_active_unit`] / [`Store::append_decision`] /
//! [`Store::end_unit_scope`]) by hand and then *drops* the store without
//! sealing — every append is flushed when written, so a drop leaves exactly
//! the bytes a power cut at that boundary would.

use prometheus_db::{Prometheus, StoreOptions, Value};
use prometheus_replica::{Follower, FollowerConfig};
use prometheus_server::{serve, MutationOp, PrometheusClient, ServerConfig, ServerHandle};
use prometheus_storage::{Oid, ShardRouting, ShardedStore};
use prometheus_taxonomy::Rank;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
// Cross-shard 2PC: crash injection at every boundary
// ---------------------------------------------------------------------

/// Where the "power cut" lands inside `end_unit_scope_on`'s commit protocol
/// (coordinator = shard 0, the lowest participant).
#[derive(Debug, Clone, Copy, PartialEq)]
enum CrashPoint {
    /// Unit wrote on both shards, nothing prepared.
    BeforePrepare,
    /// Coordinator prepared, the other participant was not reached.
    AfterFirstPrepare,
    /// Both participants prepared, no decision recorded.
    AfterAllPrepares,
    /// Prepared everywhere and the coordinator decided *commit*.
    AfterCommitDecision,
    /// Prepared everywhere and the coordinator decided *abort*.
    AfterAbortDecision,
    /// Decided commit and sealed the coordinator; the other shard's seal
    /// never made it out.
    AfterPartialSeal,
}

impl CrashPoint {
    fn expect_committed(self) -> bool {
        matches!(
            self,
            CrashPoint::AfterCommitDecision | CrashPoint::AfterPartialSeal
        )
    }
}

/// Open a 2-shard store, run a cross-shard unit up to `crash`, and drop the
/// store mid-protocol. Returns the two OIDs the unit wrote.
fn crash_mid_unit(dir: &Path, crash: CrashPoint) -> (Oid, Oid) {
    let path = dir.join("store.log");
    let store = ShardedStore::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
        2,
        ShardRouting::default(),
    )
    .unwrap();
    let a = store.allocate_oid_on(0);
    let b = store.allocate_oid_on(1);

    store.begin_unit_scope_on(0b11);
    let claim = store.bind_claim(0b11);
    store
        .with_txn(|t| {
            t.put(a, b"alpha".to_vec());
            t.put(b, b"beta".to_vec());
            Ok(())
        })
        .unwrap();
    let gid = store.shard(0).active_unit_id().expect("unit wrote shard 0");
    assert!(
        store.shard(1).active_unit_id().is_some(),
        "unit wrote shard 1"
    );

    // Drive end_unit_scope_on's protocol by hand, stopping at the boundary.
    let prepare_both = |s: &ShardedStore| {
        s.shard(0).prepare_active_unit(gid, 0).unwrap();
        s.shard(1).prepare_active_unit(gid, 0).unwrap();
    };
    match crash {
        CrashPoint::BeforePrepare => {}
        CrashPoint::AfterFirstPrepare => {
            store.shard(0).prepare_active_unit(gid, 0).unwrap();
        }
        CrashPoint::AfterAllPrepares => prepare_both(&store),
        CrashPoint::AfterCommitDecision => {
            prepare_both(&store);
            store.shard(0).append_decision(gid, true).unwrap();
        }
        CrashPoint::AfterAbortDecision => {
            prepare_both(&store);
            store.shard(0).append_decision(gid, false).unwrap();
        }
        CrashPoint::AfterPartialSeal => {
            prepare_both(&store);
            store.shard(0).append_decision(gid, true).unwrap();
            store.shard(0).end_unit_scope(true).unwrap();
        }
    }
    drop(claim);
    drop(store); // crash: the scope is never settled on at least one shard
    (a, b)
}

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
fn cross_shard_unit_converges_after_crash_at_every_2pc_boundary() {
    for crash in [
        CrashPoint::BeforePrepare,
        CrashPoint::AfterFirstPrepare,
        CrashPoint::AfterAllPrepares,
        CrashPoint::AfterCommitDecision,
        CrashPoint::AfterAbortDecision,
        CrashPoint::AfterPartialSeal,
    ] {
        let dir = tmp_dir("crash");
        let (a, b) = crash_mid_unit(&dir, crash);

        // Recovery must settle the in-doubt unit from the coordinator's
        // decision record: presumed abort unless a commit decision is on
        // disk. Either way, never half of the unit.
        let store = reopen(&dir);
        let expect: Option<&[u8]> = if crash.expect_committed() {
            Some(b"alpha")
        } else {
            None
        };
        assert_eq!(
            store.get(a).as_deref(),
            expect,
            "{crash:?}: shard-0 record after recovery"
        );
        assert_eq!(
            store.get(b).as_deref(),
            expect.map(|_| &b"beta"[..]),
            "{crash:?}: shard-1 record after recovery"
        );

        // The recovered store accepts new cross-shard work.
        let c = store.allocate_oid_on(0);
        let d = store.allocate_oid_on(1);
        store
            .with_txn(|t| {
                t.put(c, b"gamma".to_vec());
                t.put(d, b"delta".to_vec());
                Ok(())
            })
            .unwrap();
        drop(store);

        // And the resolution is durable: a second recovery sees the same
        // answer (the first reopen sealed the unit, so nothing is in doubt).
        let store = reopen(&dir);
        assert_eq!(
            store.get(a).as_deref(),
            expect,
            "{crash:?}: shard-0 record after second recovery"
        );
        assert_eq!(store.get(c).as_deref(), Some(&b"gamma"[..]));
        assert_eq!(store.get(d).as_deref(), Some(&b"delta"[..]));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fully_sealed_cross_shard_unit_is_idempotent_across_reopens() {
    let dir = tmp_dir("sealed");
    let path = dir.join("store.log");
    let a;
    let b;
    {
        let store = ShardedStore::open_with(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
            2,
            ShardRouting::default(),
        )
        .unwrap();
        a = store.allocate_oid_on(0);
        b = store.allocate_oid_on(1);
        store.begin_unit_scope_on(0b11);
        let _claim = store.bind_claim(0b11);
        store
            .with_txn(|t| {
                t.put(a, b"alpha".to_vec());
                t.put(b, b"beta".to_vec());
                Ok(())
            })
            .unwrap();
        store.end_unit_scope_on(0b11, true).unwrap();
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

/// Satellite guarantee: a lane grant on shard A never rouses (or gates) a
/// session parked on shard B. A long batch pinned to shard 0's lane must
/// not delay a one-op batch on shard 1's lane — on the event transport,
/// where lane pumps are strictly per-lane.
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

    // Give the long batch a head start into shard 0's lane, then run a
    // single op on shard 1. If the lanes shared a queue (or a grant on one
    // roused the other), this would wait ~the whole long batch out.
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
