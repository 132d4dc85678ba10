//! End-to-end distributed trace correlation (protocol v8).
//!
//! The tentpole contract: a unit written through the wire across multiple
//! shards is reconstructable — by trace id alone — into one span tree
//! containing the lane waits, the 2PC prepare votes and decision, and the
//! snapshot publishes from every participating shard; and when a follower
//! replays that unit, its replay spans carry the *same* 128-bit trace id
//! the primary's commit spans do, stitching one tree across processes.

use prometheus_db::{Prometheus, StoreOptions, Value};
use prometheus_replica::{Follower, FollowerConfig};
use prometheus_server::{
    serve, MutationOp, PrometheusClient, ServerConfig, ServerHandle, Stage, TraceId, TraceSpan,
};
use prometheus_storage::Oid;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trace-corr-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve_sharded(dir: &Path, shards: usize) -> ServerHandle {
    let p = Prometheus::open_sharded(
        dir.join("store.log"),
        StoreOptions {
            sync_on_commit: false,
        },
        shards,
    )
    .unwrap();
    // Taxonomy schema but no ICBN rules: rule-free mutation batches keep
    // their narrow single-shard lane masks, so the unit below claims
    // exactly the shards its objects live on.
    p.taxonomy().unwrap();
    serve(
        p,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Create CTs one singleton batch at a time (round-robin home placement)
/// until every one of `shards` shards holds at least one OID.
fn one_oid_per_shard(c: &mut PrometheusClient, shards: usize) -> Vec<Oid> {
    let mut by_shard: Vec<Option<Oid>> = vec![None; shards];
    for i in 0..(shards * 8) {
        let created = c
            .unit_batch(vec![MutationOp::CreateObject {
                class: "CT".into(),
                attrs: vec![
                    ("working_name".into(), Value::from(format!("Home-{i:02}"))),
                    ("rank".into(), Value::from("Genus")),
                ],
            }])
            .unwrap();
        let oid = created[0];
        by_shard[(oid.raw() % shards as u64) as usize].get_or_insert(oid);
        if by_shard.iter().all(Option::is_some) {
            break;
        }
    }
    by_shard
        .into_iter()
        .enumerate()
        .map(|(k, o)| o.unwrap_or_else(|| panic!("no creation homed on shard {k}")))
        .collect()
}

fn events_of(spans: &[TraceSpan], stage: Stage) -> Vec<&TraceSpan> {
    spans.iter().filter(|s| s.event.stage == stage).collect()
}

/// The acceptance-criteria test: one wire unit across all three shards of
/// a 3-shard server, reconstructed via `TraceGet` into a single tree with
/// lane-wait, per-participant 2PC prepare, the coordinator decision, and
/// publish spans — all under the id the client learned from the response
/// envelope.
#[test]
fn cross_shard_unit_reconstructs_one_span_tree() {
    const SHARDS: usize = 3;
    let dir = tmp_dir("2pc");
    let handle = serve_sharded(&dir, SHARDS);
    let mut c = PrometheusClient::connect(handle.addr()).unwrap();
    let homes = one_oid_per_shard(&mut c, SHARDS);

    // One unit touching an object on every shard: the claim mask covers
    // all three lanes and settlement goes through the 2PC prepare/decide
    // round. The server mints the trace id and echoes it on the envelope.
    let ops: Vec<MutationOp> = homes
        .iter()
        .enumerate()
        .map(|(k, &oid)| MutationOp::SetAttr {
            oid,
            attr: "working_name".into(),
            value: Value::from(format!("Spanning-{k}")),
        })
        .collect();
    c.unit_batch(ops).unwrap();
    let trace = c.last_trace_id();
    assert!(
        !trace.is_none(),
        "the response envelope carries the trace id"
    );

    let spans = c.trace_get(trace).unwrap();
    assert!(!spans.is_empty(), "TraceGet assembles the recorded tree");
    for s in &spans {
        assert_eq!(s.event.trace_id, trace, "one trace id across the tree");
        assert_eq!(s.origin, "primary");
    }
    // Spans arrive sorted by start time — a readable flame-graph order.
    for pair in spans.windows(2) {
        assert!(pair[0].event.start_us <= pair[1].event.start_us);
    }

    // The root request span and a real lane acquisition.
    assert!(!events_of(&spans, Stage::Request).is_empty());
    assert!(
        events_of(&spans, Stage::LaneWait)
            .iter()
            .any(|s| s.event.c1 == 1),
        "a real lane acquisition is spanned: {spans:?}"
    );
    // Every participating shard votes in the prepare round (c0 = shard
    // index), exactly one of them as coordinator (c1 = 1).
    let prepares = events_of(&spans, Stage::UnitPrepare);
    let mut voters: Vec<u64> = prepares.iter().map(|s| s.event.c0).collect();
    voters.sort_unstable();
    assert_eq!(voters, vec![0, 1, 2], "every shard voted: {prepares:?}");
    assert_eq!(
        prepares.iter().filter(|s| s.event.c1 == 1).count(),
        1,
        "exactly one coordinator"
    );
    // One committed decision naming all participants.
    let decisions = events_of(&spans, Stage::UnitDecide);
    assert_eq!(decisions.len(), 1, "one decision record: {decisions:?}");
    assert_eq!(decisions[0].event.c0, SHARDS as u64);
    assert_eq!(decisions[0].event.c1, 1, "the unit committed");
    // Publication of the settled unit is spanned under the same trace.
    assert!(
        !events_of(&spans, Stage::Publish).is_empty(),
        "snapshot publish is part of the tree: {spans:?}"
    );

    // A second, read-only request gets its own fresh trace.
    c.query("select t from CT t").unwrap();
    let read_trace = c.last_trace_id();
    assert!(!read_trace.is_none());
    assert_ne!(read_trace, trace, "each request gets its own trace id");

    c.close().unwrap();
    handle.stop();
}

/// A client-stamped trace id wins over minting: the server adopts it,
/// records the whole execution under it, and echoes it back.
#[test]
fn client_stamped_trace_id_is_adopted() {
    let dir = tmp_dir("stamp");
    let handle = serve_sharded(&dir, 1);
    let mut c = PrometheusClient::connect(handle.addr()).unwrap();

    let stamped = TraceId::from_words(0xDEAD_BEEF_0000_0001, 0xCAFE_F00D_0000_0002);
    c.set_trace(stamped);
    c.query("select t from CT t").unwrap();
    assert_eq!(c.last_trace_id(), stamped, "the envelope echoes our id");

    let spans = c.trace_get(stamped).unwrap();
    assert!(
        !events_of(&spans, Stage::Request).is_empty(),
        "the request ran under the stamped id: {spans:?}"
    );
    // Clearing the stamp returns to server-minted ids.
    c.set_trace(TraceId::NONE);
    c.query("select t from CT t").unwrap();
    let minted = c.last_trace_id();
    assert!(!minted.is_none());
    assert_ne!(minted, stamped);

    c.close().unwrap();
    handle.stop();
}

/// Round-trip of the trace id through the redo log: a follower replaying a
/// unit records its `replica_apply` span under the primary's trace id, so
/// `TraceGet` against the follower merges local replay spans with the
/// primary's commit spans into one distributed tree.
#[test]
fn follower_replay_spans_carry_the_primary_trace() {
    let dir = tmp_dir("replay");
    let handle = serve_sharded(&dir, 1);
    let mut c = PrometheusClient::connect(handle.addr()).unwrap();

    let mut config = FollowerConfig::new(handle.addr().to_string(), tmp_dir("replay-f").join("f"));
    config.name = "trace-follower".into();
    let follower = Follower::start(config).unwrap();
    assert!(follower.wait_caught_up(Duration::from_secs(10)));

    c.unit_batch(vec![MutationOp::CreateObject {
        class: "CT".into(),
        attrs: vec![
            ("working_name".into(), Value::from("Replayed")),
            ("rank".into(), Value::from("Genus")),
        ],
    }])
    .unwrap();
    let trace = c.last_trace_id();
    assert!(!trace.is_none());
    assert!(
        follower.wait_caught_up(Duration::from_secs(10)),
        "follower never replayed the unit"
    );

    // Ask the *follower* for the tree: it merges its own replay spans with
    // the primary's, fetched over the replica connection.
    let mut fc = PrometheusClient::connect(follower.addr()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let spans = loop {
        let spans = fc.trace_get(trace).unwrap();
        let has_replay = spans
            .iter()
            .any(|s| s.origin == "replica" && s.event.stage == Stage::ReplicaApply);
        if has_replay || std::time::Instant::now() > deadline {
            break spans;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let replays: Vec<_> = spans
        .iter()
        .filter(|s| s.origin == "replica" && s.event.stage == Stage::ReplicaApply)
        .collect();
    assert!(
        !replays.is_empty(),
        "follower replay is spanned under the primary's trace id: {spans:?}"
    );
    for r in &replays {
        assert_eq!(r.event.trace_id, trace);
    }
    // The merged tree also contains the primary's side of the story.
    assert!(
        spans
            .iter()
            .any(|s| s.origin == "primary" && s.event.stage == Stage::Commit),
        "primary commit spans merged into the follower's answer: {spans:?}"
    );

    fc.close().unwrap();
    c.close().unwrap();
    follower.stop();
    handle.stop();
}
