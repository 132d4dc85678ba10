//! Wire-level concurrency tests for prometheus-server's blocking worker
//! pool: one writer plus many reader clients against a live server, and
//! sessions queueing for a free worker. (The crash-consistency guarantee —
//! a client dropped mid-unit leaves the database exactly as it was — is
//! checked on both transports in `tests/transports.rs`.)

use prometheus_db::{Prometheus, StoreOptions, Value};
use prometheus_server::{serve, MutationOp, PrometheusClient, ServerConfig, ServerHandle};
use prometheus_taxonomy::Rank;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "server-conc-{name}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn serve_seeded(path: &PathBuf, seed: usize, workers: usize) -> ServerHandle {
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
    serve(
        p,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn one_writer_many_readers_over_the_wire() {
    const SEED: usize = 8;
    const WRITES: usize = 24;
    const READERS: usize = 8;
    let path = tmp("rw");
    let handle = serve_seeded(&path, SEED, READERS + 2);
    let addr = handle.addr();

    let writer = std::thread::spawn(move || {
        let mut client = PrometheusClient::connect(addr)?;
        for i in 0..WRITES {
            let created = client.unit_batch(vec![MutationOp::CreateObject {
                class: "CT".into(),
                attrs: vec![
                    ("working_name".into(), Value::Str(format!("W-{i:03}"))),
                    ("rank".into(), Value::Str("Species".into())),
                ],
            }])?;
            assert_eq!(created.len(), 1);
        }
        client.close()
    });

    let mut readers = Vec::new();
    for r in 0..READERS {
        readers.push(std::thread::spawn(move || {
            let mut client = PrometheusClient::connect(addr)?;
            let mut last = 0usize;
            for _ in 0..30 {
                let rows = client.query("select t from CT t")?;
                // Batches are atomic: the count only ever grows, never
                // exceeds the final total, and no torn row is visible.
                assert!(rows.len() >= SEED, "reader {r} saw fewer than the seed");
                assert!(rows.len() <= SEED + WRITES, "reader {r} saw too many");
                assert!(rows.len() >= last, "count went backwards for reader {r}");
                last = rows.len();
            }
            client.close()
        }));
    }

    writer.join().unwrap().unwrap();
    for reader in readers {
        reader.join().unwrap().unwrap();
    }

    let mut check = PrometheusClient::connect(addr).unwrap();
    assert_eq!(
        check.query("select t from CT t").unwrap().len(),
        SEED + WRITES
    );
    let (server, _) = check.stats().unwrap();
    assert_eq!(server.protocol_errors, 0, "mixed workload must be clean");
    assert_eq!(server.units_committed, WRITES as u64);
    check.close().unwrap();
    handle.stop();
}

#[test]
fn sessions_queue_when_workers_are_busy() {
    // More clients than workers: connections beyond the pool size wait in
    // the channel and are served as workers free up — none are dropped.
    let path = tmp("queue");
    let handle = serve_seeded(&path, 2, 2);
    let addr = handle.addr();
    let mut clients = Vec::new();
    for _ in 0..6 {
        clients.push(std::thread::spawn(move || {
            let mut c = PrometheusClient::connect(addr)?;
            let n = c.query("select t from CT t")?.len();
            c.close()?;
            Ok::<_, prometheus_server::ServerError>(n)
        }));
    }
    for c in clients {
        assert_eq!(c.join().unwrap().unwrap(), 2);
    }
    handle.stop();
}
