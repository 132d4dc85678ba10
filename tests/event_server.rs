//! Integration tests for what only the event-driven transport
//! (`io_threads > 0`) does: writer-lane fairness without blocked workers,
//! slow-client isolation, thousands of parked sessions, the HTTP `GET
//! /metrics` scrape endpoint, the connection cap, and graceful shutdown.
//! Session lifecycle — deadlines, the reaper, a killed client — is one
//! behaviour under both transports and lives in `tests/transports.rs`.
//!
//! The event path is Linux-only (epoll), so the whole file is.
#![cfg(target_os = "linux")]

use prometheus_db::{Prometheus, StoreOptions, Value};
use prometheus_server::frame::{read_msg, write_msg};
use prometheus_server::{
    serve, MutationOp, PrometheusClient, Request, Response, ServerConfig, ServerError,
    ServerHandle, TraceId, PROTOCOL_VERSION,
};
use prometheus_taxonomy::Rank;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "event-server-{name}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn serve_seeded(path: &PathBuf, seed: usize, config: ServerConfig) -> ServerHandle {
    let p = Prometheus::open_with(
        path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let tax = p.taxonomy().unwrap();
    for i in 0..seed {
        tax.create_ct(&format!("Seed-{i:03}"), Rank::Genus).unwrap();
    }
    serve(p, config).unwrap()
}

fn event_config(io_threads: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        io_threads,
        ..ServerConfig::default()
    }
}

/// Do the wire handshake on a raw socket, like `PrometheusClient::connect`
/// but leaving us in control of every byte afterwards.
fn raw_handshake(addr: SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    write_msg(
        &mut s,
        TraceId::NONE,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            client: "raw-test".into(),
        },
    )
    .unwrap();
    match read_msg::<_, Response>(&mut s).unwrap().1 {
        Response::Welcome { .. } => s,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

/// One blocking HTTP exchange against the scrape listener.
fn http_get(addr: SocketAddr, target: &str, method: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "{method} {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap(); // server sends Connection: close
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

#[test]
fn event_mode_round_trips_the_whole_protocol_under_contention() {
    const SEED: usize = 4;
    const WRITERS: usize = 3;
    const BATCHES: usize = 6;
    let path = tmp("rt");
    let handle = serve_seeded(&path, SEED, event_config(2));
    let addr = handle.addr();

    // Lane-contending batch writers.
    let mut threads = Vec::new();
    for w in 0..WRITERS {
        threads.push(std::thread::spawn(move || {
            let mut c = PrometheusClient::connect(addr)?;
            for i in 0..BATCHES {
                let created = c.unit_batch(vec![MutationOp::CreateObject {
                    class: "CT".into(),
                    attrs: vec![
                        ("working_name".into(), Value::Str(format!("W{w}-{i:02}"))),
                        ("rank".into(), Value::Str("Species".into())),
                    ],
                }])?;
                assert_eq!(created.len(), 1);
            }
            c.close()
        }));
    }
    // A streamed unit (open/op/commit holds the lane across frames).
    threads.push(std::thread::spawn(move || {
        let mut c = PrometheusClient::connect(addr)?;
        let mut unit = c.begin_unit()?;
        let oid = unit.create_object(
            "CT",
            vec![
                ("working_name".into(), Value::Str("Streamed".into())),
                ("rank".into(), Value::Str("Genus".into())),
            ],
        )?;
        unit.set_attr(oid, "working_name", Value::Str("Streamed!".into()))?;
        unit.commit()?;
        c.close()
    }));
    // Concurrent readers on pinned snapshots.
    for r in 0..3 {
        threads.push(std::thread::spawn(move || {
            let mut c = PrometheusClient::connect(addr)?;
            c.ping()?;
            let mut last = 0usize;
            for _ in 0..25 {
                let rows = c.query("select t from CT t")?;
                assert!(rows.len() >= SEED, "reader {r} saw fewer than the seed");
                assert!(rows.len() >= last, "count went backwards for reader {r}");
                last = rows.len();
            }
            c.close()
        }));
    }
    for t in threads {
        t.join().unwrap().unwrap();
    }

    let mut check = PrometheusClient::connect(addr).unwrap();
    check.set_context(None).unwrap();
    assert_eq!(
        check.query("select t from CT t").unwrap().len(),
        SEED + WRITERS * BATCHES + 1
    );
    let (server, _) = check.stats().unwrap();
    assert_eq!(server.protocol_errors, 0, "mixed workload must be clean");
    assert_eq!(server.units_committed, (WRITERS * BATCHES) as u64 + 1);
    assert_eq!(server.units_rolled_back_on_disconnect, 0);
    check.close().unwrap();
    handle.stop();

    // Everything the event transport wrote is durable.
    let reopened = Prometheus::open(&path).unwrap();
    assert_eq!(
        reopened.query("select t from CT t").unwrap().len(),
        SEED + WRITERS * BATCHES + 1
    );
}

#[test]
fn slow_client_never_stalls_other_sessions() {
    // One io thread: if a half-sent frame could park a worker the way it
    // parks a blocking thread, this test would hang.
    let path = tmp("slow");
    let handle = serve_seeded(&path, 2, event_config(1));
    let addr = handle.addr();

    let mut slow = raw_handshake(addr);
    let mut ping_frame: Vec<u8> = Vec::new();
    write_msg(&mut ping_frame, TraceId::NONE, &Request::Ping).unwrap();
    // Trickle out half the frame and stall mid-header.
    slow.write_all(&ping_frame[..3]).unwrap();
    slow.flush().unwrap();

    let mut other = PrometheusClient::connect(addr).unwrap();
    let start = Instant::now();
    for _ in 0..50 {
        assert_eq!(other.query("select t from CT t").unwrap().len(), 2);
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "queries crawled while a slow client held a partial frame"
    );
    other.close().unwrap();

    // The slow client finishes its frame and still gets its answer.
    slow.write_all(&ping_frame[3..]).unwrap();
    slow.flush().unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert!(matches!(
        read_msg::<_, Response>(&mut slow).unwrap().1,
        Response::Pong
    ));
    handle.stop();
}

#[test]
fn http_scrape_matches_wire_stats() {
    let path = tmp("scrape");
    let handle = serve_seeded(
        &path,
        2,
        ServerConfig {
            metrics_http_addr: Some("127.0.0.1:0".into()),
            ..event_config(2)
        },
    );
    let scrape_addr = handle.metrics_addr().expect("scrape listener");

    let mut c = PrometheusClient::connect(handle.addr()).unwrap();
    c.unit_batch(vec![MutationOp::CreateObject {
        class: "CT".into(),
        attrs: vec![
            ("working_name".into(), Value::Str("Scraped".into())),
            ("rank".into(), Value::Str("Genus".into())),
        ],
    }])
    .unwrap();
    let (server, storage) = c.stats().unwrap();

    let (status, body) = http_get(scrape_addr, "/metrics", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    // The scrape and a wire Stats render through the same code over the
    // same counters — values that nothing moved between the two reads must
    // be byte-equal.
    for line in [
        format!(
            "prometheus_server_units_committed_total {}",
            server.units_committed
        ),
        format!(
            "prometheus_server_connections_accepted_total {}",
            server.connections_accepted
        ),
        format!(
            "prometheus_server_sessions_reaped_total {}",
            server.sessions_reaped
        ),
        format!("prometheus_storage_commits_total {}", storage.commits),
        format!(
            "prometheus_server_connections_active {}",
            server.connections_active
        ),
    ] {
        assert!(body.contains(&line), "scrape missing `{line}`:\n{body}");
    }
    assert!(body.contains("# TYPE prometheus_server_request_latency_us histogram"));
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        assert_eq!(line.split_whitespace().count(), 2, "malformed line: {line}");
    }

    // The endpoint speaks just enough HTTP to say no politely.
    let (status, _) = http_get(scrape_addr, "/other", "GET");
    assert!(status.contains("404"), "bad status: {status}");
    let (status, _) = http_get(scrape_addr, "/metrics", "POST");
    assert!(status.contains("405"), "bad status: {status}");

    c.close().unwrap();
    handle.stop();
}

#[test]
fn blocking_mode_serves_the_scrape_endpoint_too() {
    // io_threads = 0 keeps the thread-per-session transport for the wire
    // protocol; a one-thread readiness loop serves only the HTTP listener.
    let path = tmp("scrape-blocking");
    let handle = serve_seeded(
        &path,
        1,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            metrics_http_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    );
    let mut c = PrometheusClient::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    let (status, body) = http_get(handle.metrics_addr().unwrap(), "/metrics", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    assert!(body.contains("prometheus_server_connections_accepted_total 1"));
    assert!(body.contains("prometheus_server_requests_total{kind=\"ping\"} 1"));
    c.close().unwrap();
    handle.stop();
}

#[test]
fn hundreds_of_idle_sessions_on_two_io_threads() {
    // The size the deleted `idle-connections` CI smoke parked.
    const IDLE: usize = 1500;
    let path = tmp("many");
    let handle = serve_seeded(&path, 2, event_config(2));
    let addr = handle.addr();

    let mut parked = Vec::with_capacity(IDLE);
    for _ in 0..IDLE {
        parked.push(PrometheusClient::connect(addr).unwrap());
    }
    assert_eq!(handle.metrics().connections_active, IDLE as u64);

    // A busy session stays fast while the others sit idle.
    let mut busy = PrometheusClient::connect(addr).unwrap();
    for _ in 0..50 {
        assert_eq!(busy.query("select t from CT t").unwrap().len(), 2);
    }
    // The idle sessions are all still live, not silently dropped.
    for c in parked.iter_mut().step_by(50) {
        c.ping().unwrap();
    }
    for c in parked {
        c.close().unwrap();
    }
    busy.close().unwrap();
    assert_eq!(handle.metrics().protocol_errors, 0);
    handle.stop();
}

#[test]
fn connection_cap_pauses_accepts_and_resumes() {
    let path = tmp("cap");
    let handle = serve_seeded(
        &path,
        0,
        ServerConfig {
            max_connections: 2,
            ..event_config(1)
        },
    );
    let addr = handle.addr();
    let mut c1 = PrometheusClient::connect(addr).unwrap();
    c1.ping().unwrap();
    let mut c2 = PrometheusClient::connect(addr).unwrap();
    c2.ping().unwrap();

    // The third connection sits in the TCP backlog: its handshake cannot
    // complete until a slot frees.
    let third = std::thread::spawn(move || {
        let mut c = PrometheusClient::connect(addr)?;
        c.ping()?;
        c.close()
    });
    std::thread::sleep(Duration::from_millis(400));
    assert!(
        !third.is_finished(),
        "third session got in past max_connections = 2"
    );
    c1.close().unwrap();
    // The freed slot wakes the poll thread, which resumes accepting.
    third.join().unwrap().unwrap();
    c2.close().unwrap();
    handle.stop();
}

#[test]
fn event_mode_shuts_down_gracefully() {
    let path = tmp("shutdown");
    let handle = serve_seeded(&path, 1, event_config(2));
    let addr = handle.addr();
    let mut open = PrometheusClient::connect(addr).unwrap();
    open.ping().unwrap();
    handle.stop();
    // Existing sessions are torn down …
    assert!(open.ping().is_err());
    // … and the listener is gone, not just paused.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener still accepting"
    );
}

#[test]
fn builder_validates_event_configs() {
    assert!(matches!(
        ServerConfig::builder().addr("").build(),
        Err(ServerError::Config(_))
    ));
    assert!(matches!(
        ServerConfig::builder().workers(0).io_threads(0).build(),
        Err(ServerError::Config(_))
    ));
    assert!(matches!(
        ServerConfig::builder().io_threads(5000).build(),
        Err(ServerError::Config(_))
    ));
    assert!(matches!(
        ServerConfig::builder()
            .unit_idle_timeout(Duration::ZERO)
            .build(),
        Err(ServerError::Config(_))
    ));
    assert!(matches!(
        ServerConfig::builder().idle_timeout(Duration::ZERO).build(),
        Err(ServerError::Config(_))
    ));
    // idle_timeout must not undercut the unit deadline.
    assert!(matches!(
        ServerConfig::builder()
            .unit_idle_timeout(Duration::from_secs(30))
            .idle_timeout(Duration::from_secs(5))
            .build(),
        Err(ServerError::Config(_))
    ));
    // A sane event-mode config passes and keeps its settings.
    let cfg = ServerConfig::builder()
        .io_threads(4)
        .max_connections(10_000)
        .metrics_http_addr("127.0.0.1:0")
        .idle_timeout(Duration::from_secs(600))
        .build()
        .unwrap();
    assert_eq!(cfg.io_threads, 4);
    assert_eq!(cfg.max_connections, 10_000);
    assert_eq!(cfg.metrics_http_addr.as_deref(), Some("127.0.0.1:0"));
}
