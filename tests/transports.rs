//! One behaviour under both transports.
//!
//! The blocking transport (`io_threads == 0`) and the event-driven one
//! (`io_threads > 0`) are I/O shells around the same request driver, so a
//! session's lifecycle — a unit that idles out, a session the reaper
//! closes, a client killed mid-unit, a deadline that fires mid-frame, a
//! writer queued for a lane — is one test body run over each, and a
//! scripted session must leave the same counters and the same spans
//! whichever transport carried it.

use prometheus_db::{Prometheus, StoreOptions, Value};
use prometheus_server::frame::{read_msg, write_msg};
use prometheus_server::{
    serve, ErrorKind, MutationOp, PrometheusClient, Request, Response, ServerConfig, ServerError,
    ServerHandle, Stage, TraceId, PROTOCOL_VERSION,
};
use prometheus_taxonomy::Rank;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `io_threads` of every transport this platform has (the event loop is
/// epoll, so Linux only).
#[cfg(target_os = "linux")]
const TRANSPORTS: [usize; 2] = [0, 2];
#[cfg(not(target_os = "linux"))]
const TRANSPORTS: [usize; 1] = [0];

const CONTEXT: &str = "Linnaeus 1753";

fn tmp(name: &str, io_threads: usize) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "transports-{name}-{io_threads}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn open(path: &Path) -> Prometheus {
    Prometheus::open_with(
        path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap()
}

/// Serve a database of `seed` genera.
fn serve_seeded(path: &Path, seed: usize, config: ServerConfig) -> ServerHandle {
    let p = open(path);
    let tax = p.taxonomy().unwrap();
    for i in 0..seed {
        tax.create_ct(&format!("Seed-{i:03}"), Rank::Genus).unwrap();
    }
    serve(p, config).unwrap()
}

fn config(io_threads: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        io_threads,
        ..ServerConfig::default()
    }
}

fn genus(name: &str) -> MutationOp {
    MutationOp::CreateObject {
        class: "CT".into(),
        attrs: vec![
            ("working_name".into(), Value::Str(name.into())),
            ("rank".into(), Value::Str("Genus".into())),
        ],
    }
}

/// One request, one response, on a raw socket: the echoed trace id and the
/// answer.
fn exchange(s: &mut TcpStream, req: &Request) -> (TraceId, Response) {
    write_msg(s, TraceId::NONE, req).unwrap();
    read_msg::<_, Response>(s).unwrap()
}

/// The wire handshake on a raw socket, leaving every later byte to us.
fn raw_handshake(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        client: "raw-test".into(),
    };
    match exchange(&mut s, &hello).1 {
        Response::Welcome { .. } => s,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

#[test]
fn silent_unit_times_out_rolls_back_and_frees_the_lane() {
    for io_threads in TRANSPORTS {
        let handle = serve_seeded(
            &tmp("unit-timeout", io_threads),
            1,
            ServerConfig {
                unit_idle_timeout: Duration::from_millis(150),
                ..config(io_threads)
            },
        );
        let addr = handle.addr();
        let mut stalled = PrometheusClient::connect(addr).unwrap();
        let mut other = PrometheusClient::connect(addr).unwrap();
        {
            let mut unit = stalled.begin_unit().unwrap();
            unit.op(genus("Ghost")).unwrap();
            // Go silent past the deadline. The server must roll the unit
            // back and free the writer lane — otherwise the other session's
            // batch below would block on the lane indefinitely.
            std::thread::sleep(Duration::from_millis(400));
            other.unit_batch(vec![genus("Daucus")]).unwrap();
            // The stalled session learns via the typed error on its next
            // frame, whatever that frame asks.
            match unit.query("select t from CT t") {
                Err(ServerError::Remote { kind, .. }) => {
                    assert_eq!(kind, ErrorKind::UnitTimedOut)
                }
                res => panic!("io_threads {io_threads}: expected unit-timed-out, got {res:?}"),
            }
            // Guard drop sends a best-effort UnitAbort; the server answers
            // it as protocol misuse (no unit open) and the client ignores
            // the response.
        }
        // The timed-out write is gone; the other session's batch survived,
        // and the stalled session itself is still usable.
        let rows = stalled
            .query("select t.working_name from CT t order by t.working_name")
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.rows[0][0], Value::Str("Daucus".into()));
        assert_eq!(rows.rows[1][0], Value::Str("Seed-000".into()));
        assert_eq!(handle.metrics().units_timed_out, 1);
        stalled.close().unwrap();
        other.close().unwrap();
        handle.stop();
    }
}

/// A unit's idle deadline that fires while half a frame has arrived must not
/// lose the half: the rest completes the frame, the request is answered
/// with the typed error, and the session carries on.
#[test]
fn a_unit_deadline_that_fires_mid_frame_keeps_the_stream_in_sync() {
    for io_threads in TRANSPORTS {
        let handle = serve_seeded(
            &tmp("mid-frame", io_threads),
            1,
            ServerConfig {
                unit_idle_timeout: Duration::from_millis(150),
                ..config(io_threads)
            },
        );
        let mut s = raw_handshake(handle.addr());
        assert_eq!(exchange(&mut s, &Request::UnitBegin).1, Response::Ack);
        let mut frame: Vec<u8> = Vec::new();
        write_msg(
            &mut frame,
            TraceId::NONE,
            &Request::UnitOp { op: genus("Late") },
        )
        .unwrap();
        // Header plus a little body, then silence past the deadline.
        s.write_all(&frame[..11]).unwrap();
        s.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.metrics().units_timed_out == 0 {
            assert!(Instant::now() < deadline, "the unit never timed out");
            std::thread::sleep(Duration::from_millis(10));
        }
        s.write_all(&frame[11..]).unwrap();
        s.flush().unwrap();
        let (_, resp) = read_msg::<_, Response>(&mut s)
            .unwrap_or_else(|e| panic!("io_threads {io_threads}: session died: {e}"));
        let timed_out = ErrorKind::UnitTimedOut;
        assert!(
            matches!(resp, Response::Error { kind, .. } if kind == timed_out),
            "io_threads {io_threads}: got {resp:?}"
        );
        assert_eq!(exchange(&mut s, &Request::Ping).1, Response::Pong);
        let m = handle.metrics();
        assert_eq!(m.protocol_errors, 0, "io_threads {io_threads}");
        assert_eq!(m.units_timed_out, 1);
        handle.stop();
    }
}

#[test]
fn idle_sessions_are_reaped_and_counted() {
    for io_threads in TRANSPORTS {
        let config = ServerConfig::builder()
            .io_threads(io_threads)
            .unit_idle_timeout(Duration::from_millis(200))
            .idle_timeout(Duration::from_millis(400))
            .build()
            .unwrap();
        let handle = serve_seeded(&tmp("reap", io_threads), 1, config);
        let addr = handle.addr();

        let mut idlers = Vec::new();
        for _ in 0..3 {
            let mut c = PrometheusClient::connect(addr).unwrap();
            c.ping().unwrap();
            idlers.push(c);
        }
        assert_eq!(handle.metrics().connections_active, 3);

        // Go silent past the idle deadline; the reaper closes all three.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.metrics().sessions_reaped < 3 || handle.metrics().connections_active > 0 {
            assert!(
                Instant::now() < deadline,
                "io_threads {io_threads}: reaper never fired"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        for mut c in idlers {
            assert!(c.ping().is_err(), "reaped session should be gone");
        }

        // The listener is untouched: fresh sessions connect fine.
        let mut fresh = PrometheusClient::connect(addr).unwrap();
        fresh.ping().unwrap();
        fresh.close().unwrap();
        handle.stop();
    }
}

#[test]
fn client_killed_mid_unit_rolls_back_and_survives_reopen() {
    const SEED: usize = 3;
    for io_threads in TRANSPORTS {
        let path = tmp("kill", io_threads);
        let handle = serve_seeded(&path, SEED, config(io_threads));
        let addr = handle.addr();

        // A well-behaved observer connection, open throughout.
        let mut observer = PrometheusClient::connect(addr).unwrap();
        assert_eq!(observer.query("select t from CT t").unwrap().len(), SEED);

        // The doomed client: opens a unit, creates an object inside it, then
        // its process "crashes" — the socket drops with the unit still open.
        let mut doomed = PrometheusClient::connect(addr).unwrap();
        {
            let mut unit = doomed.begin_unit().unwrap();
            assert!(unit.op(genus("Ghost")).unwrap().is_some());
            // The guard must not send an abort: simulate a crash instead.
            std::mem::forget(unit);
        }
        doomed.kill();

        // The server notices the EOF and rolls the unit back; wait for it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.metrics().units_rolled_back_on_disconnect == 0 {
            assert!(
                Instant::now() < deadline,
                "io_threads {io_threads}: the orphaned unit was never rolled back"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // In-memory state is back to the pre-unit image …
        assert_eq!(observer.query("select t from CT t").unwrap().len(), SEED);
        // … and the writer lane is free again for the next client.
        observer.unit_batch(vec![genus("AfterCrash")]).unwrap();
        assert_eq!(
            observer.query("select t from CT t").unwrap().len(),
            SEED + 1
        );
        assert_eq!(handle.metrics().units_rolled_back_on_disconnect, 1);
        observer.close().unwrap();
        handle.stop();

        // Reopen from the log: the rollback must also hold durably.
        let reopened = Prometheus::open(&path).unwrap();
        assert_eq!(
            reopened.query("select t from CT t").unwrap().len(),
            SEED + 1
        );
        let named = |name: &str| {
            let q = format!("select t from CT t where t.working_name = \"{name}\"");
            reopened.query(&q).unwrap().len()
        };
        assert_eq!(named("Ghost"), 0, "aborted unit leaked into the log");
        assert_eq!(named("AfterCrash"), 1);
    }
}

/// A writer queued behind a held lane records one real (`c1 = 1`)
/// `lane_wait` span under its own request's trace — beside exactly one
/// `Request` root span, however long it parked — and the stage rollup that
/// `Stats` reports grows by that wait.
#[test]
fn a_queued_writer_records_its_lane_wait() {
    fn lane_wait_sum(c: &mut PrometheusClient) -> u64 {
        let (server, _) = c.stats().unwrap();
        let rollup = server.trace_rollups.iter().find(|r| r.stage == "lane_wait");
        rollup.map_or(0, |r| r.sum_us)
    }
    for io_threads in TRANSPORTS {
        let handle = serve_seeded(&tmp("lane-wait", io_threads), 1, config(io_threads));
        let addr = handle.addr();
        let mut observer = PrometheusClient::connect(addr).unwrap();
        let mut holder = PrometheusClient::connect(addr).unwrap();
        let mut unit = holder.begin_unit().unwrap();
        unit.op(genus("Held")).unwrap();
        let before = lane_wait_sum(&mut observer);

        let writer = std::thread::spawn(move || {
            let mut c = PrometheusClient::connect(addr).unwrap();
            c.unit_batch(vec![genus("Queued")]).unwrap();
            let trace = c.last_trace_id();
            c.close().unwrap();
            trace
        });
        // Hold the lane until the writer is really queued on it, then a
        // little longer so its wait is unmistakable.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.metrics().per_shard[0].lane_depth < 2 {
            assert!(Instant::now() < deadline, "the writer never queued");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(40));
        unit.commit().unwrap();
        let trace = writer.join().unwrap();

        let spans = observer.trace_get(trace).unwrap();
        let stage_count = |stage: Stage| spans.iter().filter(|s| s.event.stage == stage).count();
        assert_eq!(
            stage_count(Stage::Request),
            1,
            "io_threads {io_threads}: one root span per request: {spans:?}"
        );
        let waits: Vec<_> = spans
            .iter()
            .filter(|s| s.event.stage == Stage::LaneWait && s.event.c1 == 1)
            .collect();
        assert_eq!(
            waits.len(),
            1,
            "io_threads {io_threads}: one real lane_wait span: {spans:?}"
        );
        let wait = &waits[0].event;
        assert!(wait.c0 >= 1, "queued behind a holder: {wait:?}");
        assert!(wait.dur_us >= 30_000, "waited out the hold: {wait:?}");
        let grown = lane_wait_sum(&mut observer) - before;
        assert!(
            grown >= wait.dur_us,
            "io_threads {io_threads}: lane_wait rollup grew {grown} µs, span {wait:?}"
        );
        observer.close().unwrap();
        holder.close().unwrap();
        handle.stop();
    }
}

/// A writer killed while it waits behind a held unit leaves the writer
/// queue by itself: once the holder commits, the dead session's unit is
/// rolled back, a third writer queued behind it completes its batch, and
/// every shard's lane depth drains to 0.
#[test]
fn a_writer_killed_while_parked_leaves_the_queue() {
    for io_threads in TRANSPORTS {
        let handle = serve_seeded(&tmp("dead-parked", io_threads), 1, config(io_threads));
        let addr = handle.addr();
        let depth = || handle.metrics().per_shard[0].lane_depth;
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "io_threads {io_threads}: {what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        let mut holder = PrometheusClient::connect(addr).unwrap();
        let mut unit = holder.begin_unit().unwrap();
        unit.op(genus("Held")).unwrap();

        // The doomed writer is acked, parks behind the holder and dies.
        let mut doomed = raw_handshake(addr);
        assert_eq!(exchange(&mut doomed, &Request::UnitBegin).1, Response::Ack);
        wait_for("the doomed writer never queued", &|| depth() == 2);
        drop(doomed);

        let (tx, rx) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            let mut c = PrometheusClient::connect(addr).unwrap();
            let _ = tx.send(c.unit_batch(vec![genus("Third")]).map(|c| c.len()));
        });
        wait_for("the third writer never queued", &|| depth() == 3);
        unit.commit().unwrap();
        let third = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            third.ok().map(Result::ok),
            Some(Some(1)),
            "io_threads {io_threads}"
        );
        writer.join().unwrap();
        wait_for("the queue never drained", &|| depth() == 0);
        let m = handle.metrics();
        assert_eq!(
            m.units_rolled_back_on_disconnect, 1,
            "io_threads {io_threads}"
        );
        assert_eq!(
            holder.query("select t from CT t").unwrap().len(),
            3,
            "io_threads {io_threads}: the seed, the held unit's and the batch's"
        );
        holder.close().unwrap();
        handle.stop();
    }
}

/// What a scripted session leaves behind on one transport.
#[derive(Debug, PartialEq)]
struct Footprint {
    responses: Vec<String>,
    requests_by_kind: Vec<(String, u64)>,
    units_committed: u64,
    units_aborted: u64,
    db_errors: u64,
    protocol_errors: u64,
    /// Per request of the script: its kind and the sorted stages of every
    /// span recorded under its trace.
    stages: Vec<(&'static str, Vec<String>)>,
    /// Slow-log entries (threshold zero: every query), oldest first:
    /// query text, pinned, lane mask.
    slow_log: Vec<(String, bool, u64)>,
}

fn run_script(io_threads: usize) -> Footprint {
    // A genus and its species inside [`CONTEXT`], one genus outside it.
    let p = open(&tmp("differential", io_threads));
    let tax = p.taxonomy().unwrap();
    let cls = tax.new_classification(CONTEXT, "L.", "habit").unwrap();
    let genus_ct = tax.create_ct("Apium", Rank::Genus).unwrap();
    let species = tax.create_ct("graveolens", Rank::Species).unwrap();
    tax.circumscribe(&cls, genus_ct, species).unwrap();
    tax.create_ct("Orphan", Rank::Genus).unwrap();
    let handle = serve(
        p,
        ServerConfig {
            slow_query_threshold: Duration::ZERO,
            ..config(io_threads)
        },
    )
    .unwrap();
    let script = vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
            client: "script".into(),
        },
        Request::SetContext {
            classification: Some(CONTEXT.into()),
        },
        Request::Query {
            pool: "select t.working_name from CT t order by t.working_name".into(),
        },
        Request::Query {
            pool: "selec t frm".into(),
        },
        Request::UnitBatch {
            ops: vec![genus("Batched-1"), genus("Batched-2")],
        },
        Request::UnitBegin,
        Request::UnitOp {
            op: genus("Streamed"),
        },
        Request::Query {
            pool: "select t from Nope t".into(),
        },
        Request::Query {
            pool: "select t.working_name from CT t".into(),
        },
        // Not in the in-unit request set: refused, the unit stays open.
        Request::Compact,
        Request::Ping,
        Request::UnitCommit,
        Request::UnitBegin,
        Request::UnitOp {
            op: genus("Dropped"),
        },
        Request::UnitAbort,
        Request::UnitCommit,
        Request::Stats,
        Request::Bye,
    ];
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut responses = Vec::new();
    let mut traces = Vec::new();
    for req in &script {
        let (trace, resp) = exchange(&mut s, req);
        assert!(!trace.is_none(), "{req:?} echoed no trace id");
        traces.push((req.kind_name(), trace));
        // The variant and, for errors, the class: enough to pin the answer
        // without comparing session ids, oids or timings.
        responses.push(match resp {
            Response::Error { kind, .. } => format!("error:{kind:?}"),
            Response::Rows(rows) => format!("rows:{}", rows.len()),
            Response::Batch { created } => format!("batch:{}", created.len()),
            other => format!("{other:?}")
                .split([' ', '(', '{'])
                .next()
                .unwrap_or_default()
                .to_string(),
        });
    }
    // Counters first (the observer below would move them), then the spans.
    let m = handle.metrics();
    let mut observer = PrometheusClient::connect(handle.addr()).unwrap();
    let stages = traces
        .into_iter()
        .map(|(kind, trace)| {
            let spans = observer.trace_get(trace).unwrap();
            let mut stages: Vec<String> = spans.iter().map(|s| s.event.stage.to_string()).collect();
            stages.sort();
            (kind, stages)
        })
        .collect();
    let mut slow_log: Vec<_> = observer
        .slow_log(64)
        .unwrap()
        .into_iter()
        .map(|e| (e.query, e.pinned, e.lane_mask))
        .collect();
    slow_log.reverse();
    observer.close().unwrap();
    handle.stop();
    Footprint {
        responses,
        requests_by_kind: m.requests_by_kind,
        units_committed: m.units_committed,
        units_aborted: m.units_aborted,
        db_errors: m.db_errors,
        protocol_errors: m.protocol_errors,
        stages,
        slow_log,
    }
}

/// The same scripted session — handshake, context, pinned queries, a batch,
/// a streamed unit committed (ops, in-unit queries, a request illegal inside
/// a unit), a streamed unit aborted, a settle with no unit open, `Bye` —
/// against each transport over equal databases.
#[test]
fn both_transports_leave_the_same_footprint() {
    let blocking = run_script(TRANSPORTS[0]);
    // What the script must leave behind, whichever transport carried it.
    assert_eq!(blocking.units_committed, 2, "{blocking:?}");
    assert_eq!(blocking.units_aborted, 1);
    assert_eq!(blocking.db_errors, 2);
    assert_eq!(blocking.protocol_errors, 2);
    assert_eq!(
        blocking.responses[2], "rows:2",
        "the context scopes the query"
    );
    assert_eq!(blocking.responses[5..8], ["Ack", "Created", "error:Db"]);
    // Every request has exactly one root span; lane-bound ones (the batch,
    // both `UnitBegin`s) one lane wait under it, and an in-unit query is
    // logged with the unit's lane mask.
    for (kind, stages) in &blocking.stages {
        let count = |name: &str| stages.iter().filter(|s| *s == name).count();
        assert_eq!(count("request"), 1, "{kind}: {stages:?}");
        let lane_bound = matches!(*kind, "unit_batch" | "unit_begin");
        assert_eq!(
            count("lane_wait"),
            lane_bound as usize,
            "{kind}: {stages:?}"
        );
    }
    let in_unit: Vec<_> = blocking.slow_log.iter().filter(|e| !e.1).collect();
    assert_eq!(in_unit.len(), 1, "{:?}", blocking.slow_log);
    assert_eq!(in_unit[0].2, 1, "in-unit lane mask is the unit's");
    for io_threads in &TRANSPORTS[1..] {
        assert_eq!(run_script(*io_threads), blocking, "io_threads {io_threads}");
    }
}
