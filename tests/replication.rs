//! End-to-end replication: follower catch-up from the compacted checkpoint,
//! byte-aligned replay, read-only enforcement, compaction-forced resync,
//! primary failover and reconnect, and lag-aware client routing.
//!
//! Every test runs a real primary server plus real [`Follower`] processes
//! (threads) speaking the wire protocol over loopback — nothing is mocked.

use prometheus_db::{Prometheus, StoreOptions, Value};
use prometheus_replica::{Consistency, Follower, FollowerConfig, Route, RoutedClient};
use prometheus_server::frame::{read_msg, write_msg};
use prometheus_server::protocol::{Request, Response};
use prometheus_server::{
    serve, ErrorKind, MutationOp, PrometheusClient, ServerConfig, ServerError, ServerHandle,
    TraceId, PROTOCOL_VERSION,
};
use prometheus_taxonomy::Rank;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "prometheus-replication-{name}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Open a primary at `path`, seed `genera`, and serve it.
fn boot_primary(path: &PathBuf, genera: &[&str]) -> ServerHandle {
    let p = Prometheus::open_with(
        path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let tax = p.taxonomy().unwrap();
    for g in genera {
        tax.create_ct(g, Rank::Genus).unwrap();
    }
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

/// Re-serve an existing store on a fixed address (failover restart). The
/// old listener's port can linger briefly after a stop, so retry the bind.
fn reserve_primary(path: &PathBuf, addr: SocketAddr) -> ServerHandle {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let p = Prometheus::open_with(
            path,
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        match serve(
            p,
            ServerConfig {
                addr: addr.to_string(),
                workers: 4,
                ..ServerConfig::default()
            },
        ) {
            Ok(handle) => return handle,
            Err(e) => {
                assert!(Instant::now() < deadline, "could not rebind {addr}: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn follower_of(primary: SocketAddr, name: &str) -> prometheus_replica::FollowerHandle {
    let mut config = FollowerConfig::new(primary.to_string(), tmp(name));
    config.name = name.into();
    Follower::start(config).unwrap()
}

fn add_genus(client: &mut PrometheusClient, name: &str) {
    client
        .unit_batch(vec![MutationOp::CreateObject {
            class: "CT".into(),
            attrs: vec![
                ("working_name".into(), Value::Str(name.into())),
                ("rank".into(), Value::Str("Genus".into())),
            ],
        }])
        .unwrap();
}

/// The pool-typical read suite: results must be identical on primary and
/// follower once the follower reports the same applied position.
const SUITE: [&str; 4] = [
    "select t.working_name from CT t order by t.working_name",
    "select t from CT t",
    "select t.working_name from CT t where t.rank = 'Genus' order by t.working_name",
    "select t.rank from CT t order by t.working_name",
];

#[test]
fn follower_catches_up_from_checkpoint_and_matches_primary() {
    let path = tmp("catchup-primary");
    let handle = boot_primary(&path, &["Apium", "Daucus"]);
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    // Compact so a fresh follower must bootstrap from the checkpoint prefix,
    // then write a live tail on top of it.
    client.compact().unwrap();
    add_genus(&mut client, "Heliosciadium");
    add_genus(&mut client, "Sium");

    let follower = follower_of(handle.addr(), "catchup");
    assert!(
        follower.wait_caught_up(Duration::from_secs(10)),
        "follower never caught up: {:?} bytes behind",
        follower.status().lag_bytes()
    );

    let mut replica_client = PrometheusClient::connect(follower.addr()).unwrap();
    let status = replica_client.replica_status().unwrap();
    assert_eq!(status.role, "replica");
    assert_eq!(status.primary, Some(handle.addr().to_string()));
    assert_eq!(
        status.applied_offset, status.log_len,
        "caught up means the cursor sits at the primary's horizon"
    );
    assert!(status.log_len > 0);

    let primary_status = client.replica_status().unwrap();
    assert_eq!(primary_status.role, "primary");
    assert_eq!(primary_status.epoch, status.epoch);
    assert_eq!(primary_status.log_len, status.applied_offset);

    for q in SUITE {
        let on_primary = client.query(q).unwrap();
        let on_replica = replica_client.query(q).unwrap();
        assert_eq!(on_primary, on_replica, "results diverged for {q}");
    }

    // The primary saw the follower: per-follower lag is in its stats, and
    // the replication request class has a populated latency histogram.
    let (stats, _) = client.stats().unwrap();
    let lag = stats
        .replication
        .iter()
        .find(|f| f.follower == "catchup")
        .expect("primary must track the follower");
    assert_eq!(lag.log_len, status.log_len);
    assert_eq!(lag.lag_bytes, 0, "a caught-up follower has converged");
    let (_, replication_latency) = stats
        .latency_by_class
        .iter()
        .find(|(class, _)| class == "replication")
        .expect("per-class histograms must include replication");
    assert!(replication_latency.count > 0);

    replica_client.close().unwrap();
    client.close().unwrap();
    follower.stop();
    handle.stop();
}

#[test]
fn replica_rejects_writes_with_typed_error_naming_primary() {
    let path = tmp("readonly-primary");
    let handle = boot_primary(&path, &["Apium"]);
    let follower = follower_of(handle.addr(), "readonly");
    assert!(follower.wait_caught_up(Duration::from_secs(10)));

    let mut client = PrometheusClient::connect(follower.addr()).unwrap();
    // Reads work.
    assert_eq!(client.query("select t from CT t").unwrap().len(), 1);
    // Every mutating verb is refused with the typed error, message naming
    // the primary; the session survives.
    let primary_addr = handle.addr().to_string();
    let assert_read_only = |err: ServerError| match err {
        ServerError::Remote { kind, message } => {
            assert_eq!(kind, ErrorKind::ReadOnlyReplica);
            assert!(
                message.contains(&primary_addr),
                "error must name the primary: {message}"
            );
        }
        other => panic!("expected read-only-replica error, got {other:?}"),
    };
    assert_read_only(
        client
            .unit_batch(vec![MutationOp::CreateObject {
                class: "CT".into(),
                attrs: vec![],
            }])
            .unwrap_err(),
    );
    assert_read_only(client.compact().unwrap_err());
    assert_read_only(
        client
            .install_pcl("rule r: before create CT {}")
            .unwrap_err(),
    );
    assert_read_only(client.begin_unit().err().expect("unit must be refused"));
    client.ping().unwrap();
    client.close().unwrap();
    follower.stop();
    handle.stop();
}

#[test]
fn primary_compaction_mid_stream_forces_clean_resync() {
    let path = tmp("compact-primary");
    let handle = boot_primary(&path, &["Apium", "Daucus"]);
    let follower = follower_of(handle.addr(), "compact");
    assert!(follower.wait_caught_up(Duration::from_secs(10)));
    let resyncs_before = follower.status().resyncs();

    // Grow the log, then compact: the epoch bump must invalidate the
    // follower's cursor and force a full, clean resync — not a silent replay
    // of mismatched offsets.
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    for name in ["Heliosciadium", "Sium", "Berula"] {
        add_genus(&mut client, name);
    }
    client.compact().unwrap();
    add_genus(&mut client, "Cicuta");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = follower.status();
        if s.resyncs() > resyncs_before && s.polls() > 0 && s.lag_bytes() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never resynced after compaction (resyncs {})",
            s.resyncs()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Post-resync state matches the primary exactly.
    let mut replica_client = PrometheusClient::connect(follower.addr()).unwrap();
    for q in SUITE {
        assert_eq!(client.query(q).unwrap(), replica_client.query(q).unwrap());
    }
    assert_eq!(replica_client.query("select t from CT t").unwrap().len(), 6);
    replica_client.close().unwrap();
    client.close().unwrap();
    follower.stop();
    handle.stop();
}

/// A follower's view reads the definitions of the image it pins: one
/// pinned right after a batch is applied, before any refresh, already
/// knows the class the batch defined, and once the store is reset to empty
/// a fresh view knows none.
#[test]
fn a_follower_view_reads_the_definitions_of_its_own_image() {
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let primary = Prometheus::open_with(tmp("gap-primary"), options.clone()).unwrap();
    primary
        .taxonomy()
        .unwrap()
        .create_ct("Apium", Rank::Genus)
        .unwrap();
    let follower = Prometheus::open_follower(tmp("gap-follower"), options, 1).unwrap();
    let (source, local) = (
        primary.db().store().shard(0),
        follower.db().store().shard(0),
    );
    let batch = source
        .read_frames(source.log_epoch(), local.committed_log_len(), u64::MAX)
        .unwrap()
        .expect("a fresh follower's cursor is current");
    local.apply_replicated(&batch.frames).unwrap();
    let query = |view: &prometheus_db::ReadView| {
        prometheus_db::pool::query(view, "select t from CT t").map(|rows| rows.len())
    };
    let view = follower.read_view();
    assert_eq!(query(&view).unwrap(), 1);
    local.reset_to_empty().unwrap();
    let err = query(&follower.read_view()).unwrap_err().to_string();
    assert!(err.contains("unknown class 'CT'"), "{err}");
    assert_eq!(query(&view).unwrap(), 1, "a pinned view keeps its image");
}

/// A read through the follower's `Database` after the primary changed an
/// object it already read, and the follower caught up, sees the new value:
/// nothing the first read decoded outlives the image it came from.
#[test]
fn a_follower_database_reads_an_update_it_has_read_before() {
    let path = tmp("reread-primary");
    let handle = boot_primary(&path, &["Apium"]);
    let follower = follower_of(handle.addr(), "reread");
    assert!(follower.wait_caught_up(Duration::from_secs(10)));
    let db = follower.db();
    let name = |oid| db.attr_of(oid, "working_name").unwrap();
    let oid = db
        .find_by_attr("CT", "working_name", &Value::from("Apium"))
        .unwrap()[0];
    assert_eq!(name(oid), Value::from("Apium"));

    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    client
        .unit_batch(vec![MutationOp::SetAttr {
            oid,
            attr: "working_name".into(),
            value: Value::from("Apium s.l."),
        }])
        .unwrap();
    let horizon = client.replica_status().unwrap().log_len;
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.status().applied_offset() < horizon {
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(name(oid), Value::from("Apium s.l."));
    client.close().unwrap();
    follower.stop();
    handle.stop();
}

/// A rule is a record of the image, so it replicates like any write: once
/// caught up, an engine reading the follower's database lists a rule
/// installed over the wire on the primary.
#[test]
fn a_follower_lists_a_rule_installed_on_the_primary() {
    let path = tmp("rules-primary");
    let handle = boot_primary(&path, &["Apium"]);
    let follower = follower_of(handle.addr(), "rules");
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    client
        .install_pcl("context CT pre named: self.working_name != \"\"")
        .unwrap();
    let horizon = client.replica_status().unwrap().log_len;
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.status().applied_offset() < horizon {
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }
    let rules = prometheus_db::RuleEngine::new()
        .rules(follower.db())
        .unwrap();
    assert_eq!(rules.len(), 1);
    assert_eq!(rules[0].name, "named");
    client.close().unwrap();
    follower.stop();
    handle.stop();
}

#[test]
fn failover_replica_serves_reads_then_resumes_from_cursor() {
    let path = tmp("failover-primary");
    let handle = boot_primary(&path, &["Apium", "Daucus"]);
    let addr = handle.addr();
    let follower = follower_of(addr, "failover");
    assert!(follower.wait_caught_up(Duration::from_secs(10)));
    let resyncs_before = follower.status().resyncs();

    // Kill the primary mid-stream.
    handle.stop();

    // The follower keeps serving a consistent pinned view…
    let mut replica_client = PrometheusClient::connect(follower.addr()).unwrap();
    let rows = replica_client
        .query("select t.working_name from CT t order by t.working_name")
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.rows[0][0], Value::Str("Apium".into()));
    // …while its staleness age grows and writes stay refused.
    std::thread::sleep(Duration::from_millis(50));
    let status = replica_client.replica_status().unwrap();
    assert!(status.caught_up_age_us >= 50_000);
    assert!(matches!(
        replica_client.compact(),
        Err(ServerError::Remote {
            kind: ErrorKind::ReadOnlyReplica,
            ..
        })
    ));

    // Restart the primary on the same address with the same store, and
    // write something new. The follower must reconnect and resume from its
    // cursor — same epoch, same byte offsets — without a resync.
    let handle = reserve_primary(&path, addr);
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    add_genus(&mut client, "Heliosciadium");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let rows = replica_client.query("select t from CT t").unwrap();
        if rows.len() == 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never caught up after failover"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        follower.status().resyncs(),
        resyncs_before,
        "reconnect after failover must resume from the cursor, not resync"
    );
    replica_client.close().unwrap();
    client.close().unwrap();
    follower.stop();
    handle.stop();
}

#[test]
fn primary_restart_preserves_epoch_and_avoids_blanket_resync() {
    let path = tmp("epoch-primary");
    let handle = boot_primary(&path, &["Apium", "Daucus"]);
    let addr = handle.addr();
    let mut client = PrometheusClient::connect(addr).unwrap();
    // Compact so the primary sits on a non-zero epoch — exactly the state a
    // restart used to lose (the epoch lived only in memory, so reopening the
    // store regressed it to zero and every follower's cursor stopped
    // matching).
    client.compact().unwrap();
    add_genus(&mut client, "Heliosciadium");

    let follower = follower_of(addr, "epoch");
    assert!(follower.wait_caught_up(Duration::from_secs(10)));
    // The fresh follower resynced onto the compacted epoch once; that count
    // must not move again for the rest of the test.
    let resyncs_before = follower.status().resyncs();
    let epoch_before = client.replica_status().unwrap().epoch;
    assert_eq!(epoch_before, 1, "compaction must bump the log epoch");

    // Restart the primary: same store, same address.
    client.close().unwrap();
    handle.stop();
    let handle = reserve_primary(&path, addr);
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    assert_eq!(
        client.replica_status().unwrap().epoch,
        epoch_before,
        "the log epoch must survive a primary restart"
    );

    // New writes must reach the follower through its existing cursor.
    add_genus(&mut client, "Sium");
    let mut replica_client = PrometheusClient::connect(follower.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let rows = replica_client.query("select t from CT t").unwrap();
        if rows.len() == 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never saw the post-restart write"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        follower.status().resyncs(),
        resyncs_before,
        "a restarted primary must not force a blanket resync"
    );
    for q in SUITE {
        assert_eq!(client.query(q).unwrap(), replica_client.query(q).unwrap());
    }
    replica_client.close().unwrap();
    client.close().unwrap();
    follower.stop();
    handle.stop();
}

#[test]
fn protocol_version_mismatch_is_typed_on_the_client() {
    // Server side: a wrong Hello version earns the typed error with both
    // versions named.
    let path = tmp("version-primary");
    let handle = boot_primary(&path, &["Apium"]);
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    let mut reader = BufReader::new(stream);
    write_msg(
        &mut writer,
        TraceId::NONE,
        &Request::Hello {
            version: 1,
            client: "time-traveller".into(),
        },
    )
    .unwrap();
    match read_msg::<_, Response>(&mut reader).unwrap().1 {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::ProtocolMismatch);
            assert!(
                message.contains('1') && message.contains(&PROTOCOL_VERSION.to_string()),
                "{message}"
            );
        }
        other => panic!("expected typed mismatch, got {other:?}"),
    }
    handle.stop();

    // Client side: a server speaking another version answers the handshake
    // with the typed error, and connect surfaces it as ErrorKind, not a
    // string the caller must parse.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let _: (TraceId, Request) = read_msg(&mut reader).unwrap();
        write_msg(
            &mut writer,
            TraceId::NONE,
            &Response::Error {
                kind: ErrorKind::ProtocolMismatch,
                message: "protocol version 5 unsupported (server speaks 99)".into(),
            },
        )
        .unwrap();
    });
    match PrometheusClient::connect(addr) {
        Err(ServerError::Remote { kind, message }) => {
            assert_eq!(kind, ErrorKind::ProtocolMismatch);
            assert!(message.contains("99"));
        }
        Err(other) => panic!("expected typed mismatch from connect, got {other:?}"),
        Ok(_) => panic!("connect must fail against a mismatched server"),
    }
    fake.join().unwrap();
}

#[test]
fn routed_client_scales_stale_reads_and_keeps_read_your_writes() {
    let path = tmp("routing-primary");
    let handle = boot_primary(&path, &["Apium", "Daucus"]);
    let f1 = follower_of(handle.addr(), "route-a");
    let f2 = follower_of(handle.addr(), "route-b");
    assert!(f1.wait_caught_up(Duration::from_secs(10)));
    assert!(f2.wait_caught_up(Duration::from_secs(10)));

    let mut routed = RoutedClient::connect(handle.addr(), &[f1.addr(), f2.addr()]).unwrap();
    // Strong reads pin to the primary.
    routed
        .query("select t from CT t", Consistency::Strong)
        .unwrap();
    assert_eq!(routed.last_route(), Route::Primary);
    // Stale reads with a generous budget go to a caught-up follower, and
    // round-robin across them.
    let mut follower_routes = std::collections::HashSet::new();
    for _ in 0..4 {
        routed
            .query(
                "select t from CT t",
                Consistency::Stale(Duration::from_secs(10)),
            )
            .unwrap();
        match routed.last_route() {
            Route::Follower(i) => {
                follower_routes.insert(i);
            }
            Route::Primary => panic!("caught-up followers must serve stale reads"),
        }
    }
    assert_eq!(
        follower_routes.len(),
        2,
        "reads must fan out across replicas"
    );
    // An impossible budget falls back to the primary.
    routed
        .query("select t from CT t", Consistency::Stale(Duration::ZERO))
        .unwrap();
    assert_eq!(routed.last_route(), Route::Primary);

    // Read-your-writes: immediately after a write through this client, a
    // stale read still sees the write — either the primary served it, or a
    // follower that provably caught up after the write did.
    routed
        .unit_batch(vec![MutationOp::CreateObject {
            class: "CT".into(),
            attrs: vec![
                ("working_name".into(), Value::Str("Sium".into())),
                ("rank".into(), Value::Str("Genus".into())),
            ],
        }])
        .unwrap();
    let rows = routed
        .query(
            "select t.working_name from CT t order by t.working_name",
            Consistency::Stale(Duration::from_secs(10)),
        )
        .unwrap();
    assert!(
        rows.rows.iter().any(|r| r[0] == Value::Str("Sium".into())),
        "stale read after own write lost the write (routed to {:?})",
        routed.last_route()
    );

    routed.close().unwrap();
    f1.stop();
    f2.stop();
    handle.stop();
}
