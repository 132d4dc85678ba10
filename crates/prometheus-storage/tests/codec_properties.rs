//! Property tests for the storage layer: codec round-trips over arbitrary
//! log records, log scan/append as inverse operations, and every scan of
//! the kv namespace — one shard or several, through the store, a snapshot,
//! a transaction's overlay or a unit's — against a model map.

use prometheus_storage::codec;
use prometheus_storage::log::{self, LogRecord, LogWriter};
use prometheus_storage::{
    Keyspace, KvScan, Oid, ShardRouting, ShardedStore, Store, StoreOptions, Txn,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn arb_record() -> impl Strategy<Value = LogRecord> {
    let oid = (1u64..1_000_000).prop_map(Oid::from_raw);
    let bytes = prop::collection::vec(any::<u8>(), 0..64);
    prop_oneof![
        (1u64..1000).prop_map(|txn| LogRecord::Begin { txn }),
        (1u64..1000, 1u64..1_000_000)
            .prop_map(|(txn, next_oid)| LogRecord::Commit { txn, next_oid }),
        (1u64..1000, oid.clone(), bytes.clone()).prop_map(|(txn, oid, bytes)| LogRecord::Put {
            txn,
            oid,
            bytes
        }),
        (1u64..1000, oid).prop_map(|(txn, oid)| LogRecord::Delete { txn, oid }),
        (1u64..1000, any::<u8>(), bytes.clone(), bytes.clone()).prop_map(
            |(txn, keyspace, key, value)| LogRecord::KvPut {
                txn,
                keyspace,
                key,
                value
            }
        ),
        (1u64..1000, any::<u8>(), bytes).prop_map(|(txn, keyspace, key)| LogRecord::KvDelete {
            txn,
            keyspace,
            key
        }),
    ]
}

proptest! {
    #[test]
    fn log_records_round_trip_through_codec(record in arb_record()) {
        let bytes = codec::to_bytes(&record).unwrap();
        let back: LogRecord = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, record);
    }

    #[test]
    fn scan_recovers_exactly_what_was_appended(
        records in prop::collection::vec(arb_record(), 0..30)
    ) {
        let path = std::env::temp_dir().join(format!(
            "prop-log-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut writer = LogWriter::open(&path, 0).unwrap();
        for r in &records {
            writer.append(r).unwrap();
        }
        writer.sync().unwrap();
        drop(writer);
        let scan = log::scan(&path).unwrap();
        prop_assert_eq!(scan.frames.len(), records.len());
        for (frame, expected) in scan.frames.iter().zip(&records) {
            prop_assert_eq!(&frame.record, expected);
        }
        // A torn byte after the valid prefix never destroys earlier frames.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, &[0xAB]))
            .unwrap();
        let rescan = log::scan(&path).unwrap();
        prop_assert_eq!(rescan.frames.len(), records.len());
        let _ = std::fs::remove_file(path);
    }
}

const KS: Keyspace = Keyspace(1);

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// One staged kv change: put `Some(value)` or delete.
type Op = (Vec<u8>, Option<Vec<u8>>);

/// Keys over a three-byte alphabet (`0xff` included, so prefix successors
/// carry), most of them ending in an 8-byte tail: the default routing reads
/// the tail as the owning OID, so a transaction's keys spread over shards.
fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    let head = prop::collection::vec(prop::sample::select(vec![0u8, 1, 0xff]), 0..3);
    (head, prop::option::of(0u64..6)).prop_map(|(mut key, tail)| {
        if let Some(tail) = tail {
            key.extend_from_slice(&tail.to_be_bytes());
        }
        key
    })
}

fn arb_txn() -> impl Strategy<Value = Vec<Op>> {
    let value = prop::collection::vec(any::<u8>(), 0..4);
    prop::collection::vec((arb_key(), prop::option::of(value)), 0..5)
}

/// One staged record change, on the record of the shard an index picks:
/// put `Some(bytes)` or delete.
type RecordOp = (usize, Option<Vec<u8>>);

fn arb_record_ops() -> impl Strategy<Value = Vec<RecordOp>> {
    let bytes = prop::collection::vec(any::<u8>(), 0..3);
    prop::collection::vec((0usize..3, prop::option::of(bytes)), 0..3)
}

/// The record each [`RecordOp`] writes: one per shard.
fn record_of(oids: &[Oid], index: usize) -> Oid {
    oids[index % oids.len()]
}

fn stage_records(txn: &mut Txn<'_>, oids: &[Oid], ops: &[RecordOp]) {
    for (index, change) in ops {
        match change {
            Some(bytes) => txn.put(record_of(oids, *index), bytes.clone()),
            None => txn.delete(record_of(oids, *index)),
        }
    }
}

/// One operation of a unit: its writes, whether they are still staged, and
/// the depth of the point taken before it, if one was.
struct UnitOp<'a> {
    kv: &'a Vec<Op>,
    records: &'a [RecordOp],
    staged: bool,
    point: Option<usize>,
}

/// Every record reads through `txn` as `model` has it.
fn assert_records(txn: &Txn<'_>, oids: &[Oid], model: &BTreeMap<Oid, Option<Vec<u8>>>, what: &str) {
    for oid in oids {
        let expected = model.get(oid).cloned().flatten();
        assert_eq!(
            txn.get(*oid).map(|b| b.to_vec()),
            expected,
            "{what}: record {oid:?}"
        );
    }
}

fn stage(txn: &mut Txn<'_>, ops: &[Op]) {
    for (key, change) in ops {
        match change {
            Some(value) => txn.kv_put(KS, key.clone(), value.clone()),
            None => txn.kv_delete(KS, key.clone()),
        }
    }
}

fn apply(model: &mut Model, ops: &[Op]) {
    for (key, change) in ops {
        match change {
            Some(value) => model.insert(key.clone(), value.clone()),
            None => model.remove(key),
        };
    }
}

/// A prefix scan and a range scan of `source` both equal the model's.
fn assert_scans(source: &impl KvScan, model: &Model, bounds: &[Vec<u8>; 3], what: &str) {
    let [prefix, lo, hi] = bounds;
    let copied = |scanned: Vec<(bytes::Bytes, bytes::Bytes)>| -> Vec<(Vec<u8>, Vec<u8>)> {
        scanned
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    };
    let expected = |keep: &dyn Fn(&[u8]) -> bool| -> Vec<(Vec<u8>, Vec<u8>)> {
        model
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    };
    assert_eq!(
        copied(source.kv_scan_prefix(KS, prefix)),
        expected(&|k| k.starts_with(prefix)),
        "{what}: prefix scan of {prefix:?}"
    );
    assert_eq!(
        copied(source.kv_scan_range(KS, lo, hi)),
        expected(&|k| lo.as_slice() <= k && k < hi.as_slice()),
        "{what}: range scan of {lo:?}..{hi:?}"
    );
}

fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "prop-{tag}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    for k in 0..3 {
        let log = if k == 0 {
            path.clone()
        } else {
            path.with_extension(format!("shard{k}.log"))
        };
        let _ = std::fs::remove_file(&log);
        let _ = std::fs::remove_file(log.with_extension("epoch"));
    }
    let _ = std::fs::remove_file(path.with_extension("shards"));
    path
}

/// Shard `shard`'s log, decoded.
fn log_of(store: &ShardedStore, shard: usize) -> Vec<LogRecord> {
    let frames = log::scan(store.shard(shard).path()).unwrap().frames;
    frames.into_iter().map(|f| f.record).collect()
}

/// A log record without its transaction and unit ids.
fn shape(record: &LogRecord) -> String {
    match record {
        LogRecord::Begin { .. } => "begin".into(),
        LogRecord::Commit { .. } => "commit".into(),
        LogRecord::KvPut { key, value, .. } => format!("put {key:?} {value:?}"),
        LogRecord::KvDelete { key, .. } => format!("delete {key:?}"),
        LogRecord::Put { oid, bytes, .. } => format!("put record {oid:?} {bytes:?}"),
        LogRecord::Delete { oid, .. } => format!("delete record {oid:?}"),
        LogRecord::UnitBegin { .. } => "unit".into(),
        LogRecord::UnitPrepared { coordinator, .. } => format!("prepared under {coordinator}"),
        LogRecord::UnitDecision { committed, .. } => format!("decided {committed}"),
        LogRecord::UnitEnd { committed, .. } => format!("sealed {committed}"),
        other => format!("{other:?}"),
    }
}

/// The [`shape`]s each shard's log must gain from a unit that staged the
/// operations `ops` and the last record changes `records` (at most one
/// record per shard), and committed: one group per shard they wrote — the
/// open, the record's change, the last change per key in key order, the
/// prepare/decide round when two or more shards took part, and the seal. A
/// shard the unit did not write gains nothing.
fn unit_logs(
    store: &ShardedStore,
    ops: &[&Vec<Op>],
    records: &BTreeMap<Oid, Option<Vec<u8>>>,
) -> Vec<Vec<String>> {
    let staged: BTreeMap<_, _> = ops.iter().flat_map(|ops| ops.iter().cloned()).collect();
    let mut logs: Vec<Vec<String>> = vec![Vec::new(); store.shard_count()];
    for (oid, change) in records {
        logs[store.shard_of_oid(*oid)].push(match change {
            Some(bytes) => format!("put record {oid:?} {bytes:?}"),
            None => format!("delete record {oid:?}"),
        });
    }
    for (key, change) in staged {
        logs[store.shard_of_key(KS, &key)].push(match change {
            Some(value) => format!("put {key:?} {value:?}"),
            None => format!("delete {key:?}"),
        });
    }
    let participants: Vec<usize> = (0..logs.len()).filter(|k| !logs[*k].is_empty()).collect();
    for &shard in &participants {
        let log = &mut logs[shard];
        log.splice(0..0, ["unit".to_string(), "begin".to_string()]);
        log.push("commit".into());
        if participants.len() >= 2 {
            log.push(format!("prepared under {}", participants[0]));
            if shard == participants[0] {
                log.push("decided true".into());
            }
        }
        log.push("sealed true".into());
    }
    logs
}

fn append_group(log: &mut LogWriter, txn: u64, ops: &[Op]) {
    log.append(&LogRecord::Begin { txn }).unwrap();
    for (key, change) in ops {
        let key = key.clone();
        log.append(&match change {
            Some(value) => LogRecord::KvPut {
                txn,
                keyspace: KS.0,
                key,
                value: value.clone(),
            },
            None => LogRecord::KvDelete {
                txn,
                keyspace: KS.0,
                key,
            },
        })
        .unwrap();
    }
    log.append(&LogRecord::Commit { txn, next_oid: 1 }).unwrap();
}

/// The same writes, in the log shape units had when each operation
/// committed a group of its own inside the unit's brackets: `settled` as
/// plain groups; the unit's operations once sealed aborted, then once sealed
/// `committed`; and a torn tail — the operations again in a unit whose seal
/// never came, then half a frame.
fn write_parent_shaped_log(path: &Path, settled: &[Vec<Op>], unit: &[&Vec<Op>], committed: bool) {
    let mut log = LogWriter::open(path, 0).unwrap();
    let mut ids = 1u64..;
    for ops in settled {
        append_group(&mut log, ids.next().unwrap(), ops);
    }
    for seal in [Some(false), Some(committed), None] {
        let id = ids.next().unwrap();
        log.append(&LogRecord::UnitBegin { unit: id }).unwrap();
        for ops in unit {
            append_group(&mut log, ids.next().unwrap(), ops);
        }
        if let Some(committed) = seal {
            log.append(&LogRecord::UnitEnd {
                unit: id,
                committed,
            })
            .unwrap();
        }
    }
    log.sync().unwrap();
    drop(log);
    std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, &[0x20, 0, 0]))
        .unwrap();
}

fn open_sharded(path: &Path, shards: usize) -> ShardedStore {
    let options = StoreOptions {
        sync_on_commit: false,
    };
    ShardedStore::open_with(path, options, shards, ShardRouting::default()).unwrap()
}

proptest! {
    /// Settled transactions, then a unit of work staged on a claimed subset
    /// of the shards, some of its operations behind rollback points: every
    /// way of scanning sees exactly the state it should. The unit's overlay
    /// and its record reads see its staged writes over the committed state,
    /// with its points open, once an outer point is restored under open
    /// inner ones, and once each is kept or restored; the store, a pinned
    /// snapshot and a transaction's overlay read
    /// only what was committed, and the logs gain nothing while the unit is
    /// open. An operation whose writes route outside the claim fails when it
    /// stages, and stages nothing. Then the unit settles: committed, it is
    /// one group per shard it wrote; aborted, it never began and no log
    /// gains a byte. A follower fed each shard's stream holds the same bytes
    /// and the same state, a reopen replays the same state, and so does the
    /// log the same writes make in the shape units had before they were one
    /// transaction.
    #[test]
    fn scans_match_model_on_every_path(
        shards in 1usize..4,
        settled in prop::collection::vec(arb_txn(), 0..6),
        claim in 1u64..8,
        in_unit in prop::collection::vec(arb_txn(), 0..4),
        (points, record_ops, outer) in (
            prop::collection::vec(prop::option::of(any::<bool>()), 4..5),
            prop::collection::vec(arb_record_ops(), 4..5),
            prop::option::of(1usize..4),
        ),
        staged in arb_txn(),
        bounds in (arb_key(), arb_key(), arb_key()),
        commit in any::<bool>(),
    ) {
        let path = scratch("scans");
        let store = Arc::new(open_sharded(&path, shards));
        let bounds = [bounds.0, bounds.1, bounds.2];
        let mut committed = Model::new();
        for ops in &settled {
            store.with_txn(|t| { stage(t, ops); Ok(()) }).unwrap();
            apply(&mut committed, ops);
        }

        let all = store.all_shards_mask();
        let claim = if claim & all == 0 { all } else { claim & all };
        let logs_before: Vec<usize> = (0..shards).map(|k| log_of(&store, k).len()).collect();
        let oids: Vec<Oid> = (0..shards).map(|k| store.allocate_oid_on(k)).collect();
        let mut unit = store.begin_unit(claim);
        let mut staged_ops = Vec::new();
        for ((ops, records), point) in in_unit.iter().zip(&record_ops).zip(&points) {
            let depth = point.map(|_| unit.take_point());
            let escapes = ops
                .iter()
                .any(|(key, _)| claim & (1 << store.shard_of_key(KS, key)) == 0)
                || records
                    .iter()
                    .any(|(i, _)| claim & (1 << store.shard_of_oid(record_of(&oids, *i))) == 0);
            let result = unit.stage(|t| {
                stage_records(t, &oids, records);
                stage(t, ops);
            });
            prop_assert_eq!(result.is_err(), escapes);
            staged_ops.push(UnitOp { kv: ops, records, staged: !escapes, point: depth });
        }
        // The kv and record state of the ops still staged.
        let replay = |staged_ops: &[UnitOp]| {
            let mut working = committed.clone();
            let mut records = BTreeMap::new();
            for op in staged_ops.iter().filter(|op| op.staged) {
                apply(&mut working, op.kv);
                for (i, change) in op.records {
                    records.insert(record_of(&oids, *i), change.clone());
                }
            }
            (working, records)
        };
        let (working, records) = replay(&staged_ops);
        assert_scans(&unit, &working, &bounds, "unit overlay under open points");
        assert_records(&unit, &oids, &records, "unit under open points");
        // Restore an outer point while the points inside it are open: it
        // drops its op and every later one.
        if let Some(depth) = outer.filter(|depth| *depth < unit.points()) {
            unit.restore_to(depth);
            prop_assert_eq!(unit.points(), depth - 1);
            let first = staged_ops.iter().position(|op| op.point == Some(depth)).unwrap();
            staged_ops[first..].iter_mut().for_each(|op| op.staged = false);
            let (working, records) = replay(&staged_ops);
            assert_scans(&unit, &working, &bounds, "unit overlay after an outer restore");
            assert_records(&unit, &oids, &records, "unit after an outer restore");
        }
        // Settle the points still open, latest first: restoring one drops
        // its op and every later op still staged.
        for i in (0..staged_ops.len()).rev() {
            let Some(depth) = staged_ops[i].point.filter(|depth| *depth <= unit.points()) else {
                continue;
            };
            if points[i] == Some(true) {
                unit.keep_point();
            } else {
                unit.restore_to(depth);
                staged_ops[i..].iter_mut().for_each(|op| op.staged = false);
            }
        }
        prop_assert_eq!(unit.points(), 0);
        let forward: Vec<_> = staged_ops.iter().filter(|op| op.staged).map(|op| op.kv).collect();
        let (working, records) = replay(&staged_ops);
        assert_scans(&unit, &working, &bounds, "unit overlay");
        assert_records(&unit, &oids, &records, "unit with its points settled");
        assert_scans(&*store, &committed, &bounds, "unbound thread");
        assert_scans(&store.snapshot(), &committed, &bounds, "snapshot under an open unit");
        let mut txn = store.begin();
        stage(&mut txn, &staged);
        let mut overlaid = committed.clone();
        apply(&mut overlaid, &staged);
        assert_scans(&txn, &overlaid, &bounds, "transaction overlay beside an open unit");
        txn.abort();
        let open: Vec<usize> = (0..shards).map(|k| log_of(&store, k).len()).collect();
        prop_assert_eq!(&open, &logs_before, "an open unit writes nothing");

        if commit {
            unit.commit().unwrap();
        } else {
            unit.abort();
        }
        let outcome = if commit { &working } else { &committed };
        assert_scans(&*store, outcome, &bounds, "store after the seal");
        assert_scans(&store.snapshot(), outcome, &bounds, "snapshot after the seal");
        let mut txn = store.begin();
        stage(&mut txn, &staged);
        let mut overlaid = outcome.clone();
        apply(&mut overlaid, &staged);
        assert_scans(&txn, &overlaid, &bounds, "transaction overlay after the seal");
        txn.abort();
        let expected = if commit {
            unit_logs(&store, &forward, &records)
        } else {
            vec![Vec::new(); shards]
        };
        for (k, expected) in expected.into_iter().enumerate() {
            let group: Vec<_> = log_of(&store, k)[logs_before[k]..].iter().map(shape).collect();
            prop_assert_eq!(group, expected, "shard {}'s unit group", k);
            let member = store.shard(k);
            let follower_path = scratch("follower");
            let follower = Store::open_with(&follower_path, member.options().clone()).unwrap();
            let stream = member.read_frames(member.log_epoch(), 0, u64::MAX).unwrap().unwrap();
            follower.apply_replicated(&stream.frames).unwrap();
            prop_assert_eq!(
                std::fs::read(&follower_path).unwrap(),
                std::fs::read(member.path()).unwrap()
            );
            prop_assert_eq!(follower.kv_scan_prefix(KS, &[]), member.kv_scan_prefix(KS, &[]));
            drop(follower);
            scratch("follower");
        }
        drop(store);
        let reopened = open_sharded(&path, shards);
        assert_scans(&reopened, outcome, &bounds, "reopened store");
        for oid in &oids {
            let expected = if commit { records.get(oid).cloned().flatten() } else { None };
            prop_assert_eq!(reopened.get(*oid).map(|b| b.to_vec()), expected);
        }
        let parent_path = scratch("parent-shape");
        write_parent_shaped_log(&parent_path, &settled, &forward, commit);
        let parent = Store::open(&parent_path).unwrap();
        prop_assert_eq!(
            parent.kv_scan_prefix(KS, &[]),
            reopened.kv_scan_prefix(KS, &[]),
            "the parent's log shape replays to the same image"
        );
        drop((parent, reopened));
        scratch("parent-shape");
        scratch("scans");
    }

    /// One shard is the plain case: a 1-shard store writes the log a plain
    /// `Store` writes when fed the same transactions, byte for byte — with a
    /// record, with index entries only, and for a transaction that stages
    /// nothing.
    #[test]
    fn one_shard_log_is_a_plain_stores_log(
        settled in prop::collection::vec(arb_txn(), 0..6),
        unrecorded in prop::collection::vec(arb_txn(), 0..4),
    ) {
        let (sharded_path, plain_path) = (scratch("one-shard"), scratch("plain"));
        let sharded = open_sharded(&sharded_path, 1);
        let plain = Store::open_with(&plain_path, StoreOptions { sync_on_commit: false }).unwrap();
        let record = |txn: &mut Txn<'_>, oid: Oid, ops: &[Op]| {
            txn.put(oid, vec![ops.len() as u8]);
            stage(txn, ops);
        };
        for ops in &settled {
            sharded.with_txn(|t| { record(t, sharded.allocate_oid(), ops); Ok(()) }).unwrap();
            plain.with_txn(|t| { record(t, plain.allocate_oid(), ops); Ok(()) }).unwrap();
        }
        for ops in &unrecorded {
            sharded.with_txn(|t| { stage(t, ops); Ok(()) }).unwrap();
            plain.with_txn(|t| { stage(t, ops); Ok(()) }).unwrap();
        }
        drop((sharded, plain));
        prop_assert_eq!(
            std::fs::read(&sharded_path).unwrap(),
            std::fs::read(&plain_path).unwrap()
        );
        scratch("one-shard");
        scratch("plain");
    }
}
