//! Load generator for the prometheus-server wire protocol.
//!
//! Three scenarios:
//!
//! * **mixed** (default, legacy positional args) — N concurrent clients
//!   running a read/write mix, reporting throughput and exact latency
//!   percentiles (every measurement is kept, so p50/p99 are not histogram
//!   approximations), then failing if the run produced protocol errors or
//!   rolled-back units.
//! * **contention** — N pure readers measured twice: first against an idle
//!   server, then while one writer streams units of work through the writer
//!   lane. Because queries run on pinned snapshots, reader latency should
//!   barely move; the report prints idle vs active percentiles side by side
//!   plus the storage layer's snapshot-swap count, and writes the numbers to
//!   `BENCH_contention.json` for CI artifact upload.
//! * **parallel** — in-process, no server: the same scan-, join- and
//!   traversal-heavy POOL queries run through a 1-worker and an N-worker
//!   [`Executor`] over a pinned snapshot. Results must be byte-identical
//!   (the ordered-merge determinism contract); the report is throughput
//!   both ways plus the machine's core count, written to
//!   `BENCH_parallel.json`. On a single-core box the speedup is honestly
//!   ~1× — the `cores` field is there so readers can tell.
//! * **trace-smoke** — boots a server with a zero slow-query threshold,
//!   runs a short read/write burst plus a `profile` statement, then pulls
//!   `Trace { n }` and `SlowLog { n }` over the wire and checks both are
//!   non-empty and well-formed (spans carry ids, the request/commit stages
//!   appear, slow-log entries carry fingerprints). Exit 1 on any miss —
//!   this is the CI gate for the tracing path.
//! * **replication** — a primary plus in-process log-shipping followers:
//!   one writer streams units at the primary throughout while the same
//!   read workload runs twice — first with every reader on the primary,
//!   then fanned across the followers. A sampler thread watches the
//!   primary's per-follower lag gauges the whole time; the report is
//!   primary-only vs fanned read throughput, lag percentiles (bytes), and
//!   whether lag converged back to zero once the writer stopped — written
//!   to `BENCH_replication.json`, exit 1 on any failure or an unconverged
//!   follower.
//! * **idle-connections** — the event-transport capacity check: boots the
//!   server in event-driven mode (`io_threads` ≤ 4) with the HTTP scrape
//!   endpoint on, measures a query baseline, then opens thousands of
//!   idle wire sessions (handshaking through the public sans-io
//!   `FrameEncoder`/`FrameDecoder`) and measures the same queries again
//!   while every session stays open. Pass requires the loaded p99 within
//!   2× the idle baseline (with a small floor for timer noise), every
//!   session still live, and a raw `GET /metrics` scrape whose counters
//!   equal the same instant's wire `Stats` snapshot — written to
//!   `BENCH_idle.json`, exit 1 on any failure. Linux only.
//! * **sharded-writes** — the per-shard writer-lane check: N writer clients
//!   stream pure-creation unit batches (each batch claims exactly one
//!   shard's lane via round-robin home placement) against a 1-shard server,
//!   then against an n-shard server on the same hardware. The report is
//!   units/sec both ways, the speedup, the per-shard commit distribution
//!   (proving the batches actually spread), and an honest `cores` field —
//!   written to `BENCH_shard.json`. The ≥1.5× speedup gate only arms when
//!   `shards ≥ 2` **and** the box has more than one core; on a single-core
//!   machine lane parallelism cannot buy wall-clock time, so the run is
//!   informational there (and still fails on any protocol or unit error).
//! * **commit-cost** — in-process, no server: at each image size (default
//!   10k / 100k / 1M keys) a reader snapshot is pinned and probe commits run
//!   against it, so publication must path-copy the persistent map instead of
//!   mutating in place. The report is nodes cloned and bytes copied per
//!   commit straight from the storage counters, plus commit latency
//!   percentiles, written to `BENCH_commit.json`. Exit 1 unless the
//!   per-commit clone cost grows sublinearly in the image size — the
//!   structure-sharing contract (a commit clones a root-to-leaf path, not
//!   the snapshot).
//!
//! ```text
//! cargo run --release -p prometheus-bench --bin loadgen                # mixed defaults
//! cargo run --release -p prometheus-bench --bin loadgen -- 8 500 20   # clients ops write%
//! cargo run --release -p prometheus-bench --bin loadgen -- contention 4 200 6
//! #                                                        readers ops workers
//! cargo run --release -p prometheus-bench --bin loadgen -- parallel 4000 5 8
//! #                                                        objects iters workers
//! cargo run --release -p prometheus-bench --bin loadgen -- trace-smoke
//! cargo run --release -p prometheus-bench --bin loadgen -- replication 4 150 2
//! #                                                        readers ops followers
//! cargo run --release -p prometheus-bench --bin loadgen -- sharded-writes 4 50 2
//! #                                                        writers units shards
//! cargo run --release -p prometheus-bench --bin loadgen -- commit-cost 10000 100000 1000000
//! #                                                        image sizes (keys)
//! cargo run --release -p prometheus-bench --bin loadgen -- idle-connections 5000 200 4
//! #                                                        conns ops io_threads
//! ```

use prometheus_bench::report::{percentile_us, render_latency_summary};
use prometheus_db::storage::ShardedStore;
use prometheus_db::{
    AttrDef, Cardinality, ClassDef, Database, Prometheus, RelClassDef, StoreOptions, Type, Value,
};
use prometheus_pool::Executor;
use prometheus_server::{serve, MutationOp, PrometheusClient, ServerConfig, ServerHandle};
use prometheus_taxonomy::Rank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    clients: usize,
    ops_per_client: usize,
    write_pct: u32,
    workers: usize,
}

fn parse_args(argv: &[String]) -> Args {
    let num =
        |i: usize, default: usize| argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(default);
    Args {
        clients: num(0, 8).max(1),
        ops_per_client: num(1, 200).max(1),
        write_pct: num(2, 20).min(100) as u32,
        workers: num(3, 12).max(2),
    }
}

/// Read queries rotated through by every client.
const QUERIES: [&str; 4] = [
    "select t from CT t",
    "select t.working_name from CT t where t.rank = \"Genus\"",
    "select t from CT t where t.working_name like \"Seed%\"",
    "select distinct t.rank from CT t order by t.rank",
];

fn boot_seeded_server(tag: &str, workers: usize) -> (ServerHandle, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "prometheus-loadgen-{tag}-{}.db",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    // Seed a small flora so reads have something to scan.
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .expect("open scratch database");
    let tax = p.taxonomy().expect("install taxonomy schema");
    for i in 0..32 {
        tax.create_ct(&format!("Seed-{i:03}"), Rank::Genus)
            .expect("seed taxon");
    }
    let handle = serve(
        p,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    (handle, path)
}

/// Like [`boot_seeded_server`], but the store is split into `shards`
/// partitions and every shard log lives in a scratch directory (a sharded
/// store is one file per shard plus sidecars, so cleanup is `remove_dir_all`
/// rather than `remove_file`).
fn boot_sharded_server(
    tag: &str,
    workers: usize,
    shards: usize,
) -> (ServerHandle, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "prometheus-loadgen-{tag}-{}shard-{}",
        shards,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let p = Prometheus::open_sharded(
        dir.join("store.db"),
        StoreOptions {
            sync_on_commit: false,
        },
        shards,
    )
    .expect("open sharded scratch database");
    let tax = p.taxonomy().expect("install taxonomy schema");
    for i in 0..32 {
        tax.create_ct(&format!("Seed-{i:03}"), Rank::Genus)
            .expect("seed taxon");
    }
    let handle = serve(
        p,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            shards,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    (handle, dir)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("contention") => contention(&argv[1..]),
        Some("parallel") => parallel(&argv[1..]),
        Some("trace-smoke") => trace_smoke(&argv[1..]),
        Some("replication") => replication(&argv[1..]),
        Some("commit-cost") => commit_cost(&argv[1..]),
        Some("sharded-writes") => sharded_writes(&argv[1..]),
        Some("idle-connections") => idle_connections(&argv[1..]),
        _ => mixed(parse_args(&argv)),
    }
}

/// A histogram percentile, or an honest marker when the rank fell in the
/// overflow bucket (beyond the last bound).
fn bound_or_overflow(p: Option<u64>) -> String {
    match p {
        Some(us) => us.to_string(),
        None => "overflow".into(),
    }
}

fn mixed(args: Args) {
    let (handle, path) = boot_seeded_server("mixed", args.workers);
    let addr = handle.addr();
    println!(
        "loadgen: {} clients × {} ops ({}% writes) against {addr} ({} workers)",
        args.clients, args.ops_per_client, args.write_pct, args.workers
    );

    let wall = Instant::now();
    let mut threads = Vec::new();
    for client_id in 0..args.clients {
        let ops = args.ops_per_client;
        let write_pct = args.write_pct;
        threads.push(std::thread::spawn(move || {
            let mut client = PrometheusClient::connect(addr)?;
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ client_id as u64);
            let mut reads: Vec<u64> = Vec::new();
            let mut writes: Vec<u64> = Vec::new();
            for i in 0..ops {
                let start = Instant::now();
                if rng.gen_range(0..100) < write_pct {
                    client.unit_batch(vec![MutationOp::CreateObject {
                        class: "CT".into(),
                        attrs: vec![
                            (
                                "working_name".into(),
                                Value::Str(format!("Load-{client_id}-{i}")),
                            ),
                            ("rank".into(), Value::Str("Species".into())),
                        ],
                    }])?;
                    writes.push(start.elapsed().as_micros() as u64);
                } else {
                    let q = QUERIES[rng.gen_range(0..QUERIES.len())];
                    client.query(q)?;
                    reads.push(start.elapsed().as_micros() as u64);
                }
            }
            client.close()?;
            Ok::<_, prometheus_server::ServerError>((reads, writes))
        }));
    }

    let mut reads: Vec<u64> = Vec::new();
    let mut writes: Vec<u64> = Vec::new();
    let mut failures = 0usize;
    for t in threads {
        match t.join() {
            Ok(Ok((r, w))) => {
                reads.extend(r);
                writes.extend(w);
            }
            Ok(Err(e)) => {
                failures += 1;
                eprintln!("client error: {e}");
            }
            Err(_) => {
                failures += 1;
                eprintln!("client thread panicked");
            }
        }
    }
    let elapsed = wall.elapsed().as_secs_f64();

    reads.sort_unstable();
    writes.sort_unstable();
    let mut all: Vec<u64> = reads.iter().chain(writes.iter()).copied().collect();
    all.sort_unstable();
    println!();
    println!("{}", render_latency_summary("reads", &reads, elapsed));
    println!("{}", render_latency_summary("writes", &writes, elapsed));
    println!("{}", render_latency_summary("all", &all, elapsed));

    // The server's own view of the run, over the wire.
    let mut observer = PrometheusClient::connect(addr).expect("connect for stats");
    let (server, storage) = observer.stats().expect("fetch stats");
    let _ = observer.close();
    println!();
    println!(
        "server: {} connections, {} requests, {} units committed, \
         {} protocol errors, {} db errors, {} disconnect rollbacks",
        server.connections_accepted,
        server.requests_total(),
        server.units_committed,
        server.protocol_errors,
        server.db_errors,
        server.units_rolled_back_on_disconnect,
    );
    println!(
        "server latency: mean {:.1} µs, ~p50 {} µs, ~p99 {} µs (histogram bounds)",
        server.latency.mean_us(),
        bound_or_overflow(server.latency.approx_percentile_us(0.50)),
        bound_or_overflow(server.latency.approx_percentile_us(0.99)),
    );
    println!(
        "storage: {} commits, {} puts, {} bytes written, {} snapshot swaps",
        storage.commits, storage.puts, storage.bytes_written, storage.snapshot_swaps
    );

    handle.stop();
    let _ = std::fs::remove_file(&path);

    if failures > 0 || server.protocol_errors > 0 || server.db_errors > 0 {
        eprintln!(
            "FAILED: {failures} client failures, {} protocol errors, {} db errors",
            server.protocol_errors, server.db_errors
        );
        std::process::exit(1);
    }
    println!("\nOK: zero client failures, zero protocol errors.");
}

/// Smoke-test the observability path end to end: every query is "slow"
/// (threshold zero), so after a short burst the trace ring and the slow
/// log must both have well-formed contents over the wire.
fn trace_smoke(argv: &[String]) {
    use prometheus_server::Stage;
    use std::time::Duration;

    let ops: usize = argv
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25)
        .max(5);

    let path = std::env::temp_dir().join(format!(
        "prometheus-loadgen-trace-smoke-{}.db",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .expect("open scratch database");
    let tax = p.taxonomy().expect("install taxonomy schema");
    for i in 0..8 {
        tax.create_ct(&format!("Seed-{i:03}"), Rank::Genus)
            .expect("seed taxon");
    }
    let handle = serve(
        p,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            slow_query_threshold: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    println!(
        "loadgen trace-smoke: {ops} queries against {}",
        handle.addr()
    );

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("  ok: {what}");
        } else {
            failures.push(what.to_string());
            eprintln!("  MISSING: {what}");
        }
    };

    let mut client = PrometheusClient::connect(handle.addr()).expect("connect");
    for i in 0..ops {
        let q = QUERIES[i % QUERIES.len()];
        client.query(q).expect("query");
    }
    client
        .unit_batch(vec![MutationOp::CreateObject {
            class: "CT".into(),
            attrs: vec![
                ("working_name".into(), Value::Str("Smoke".into())),
                ("rank".into(), Value::Str("Species".into())),
            ],
        }])
        .expect("unit batch");
    let profile = client
        .query("profile select t.working_name from CT t order by t.working_name")
        .expect("profile");
    check(
        profile.columns.iter().any(|c| c == "stage") && !profile.rows.is_empty(),
        "profile returns a non-empty span tree",
    );

    let events = client.trace(4096).expect("trace");
    check(!events.is_empty(), "trace ring has events");
    check(
        events
            .iter()
            .all(|ev| ev.span_id != 0 && !ev.trace_id.is_none()),
        "every span carries a span id and a trace id",
    );
    check(
        events.iter().any(|ev| ev.stage == Stage::Request),
        "request framing is spanned",
    );
    check(
        events.iter().any(|ev| ev.stage == Stage::Scan),
        "query execution is spanned",
    );
    check(
        events.iter().any(|ev| ev.stage == Stage::Commit),
        "the unit commit is spanned",
    );

    let entries = client.slow_log(256).expect("slow log");
    check(!entries.is_empty(), "slow log has entries");
    check(
        entries
            .iter()
            .filter(|e| e.pinned)
            .all(|e| e.fingerprint != 0),
        "pinned slow queries carry plan fingerprints",
    );
    check(
        entries.iter().all(|e| !e.trace_id.is_none()),
        "slow-log entries link to the trace ring",
    );

    client.close().expect("close");
    handle.stop();
    let _ = std::fs::remove_file(&path);

    if !failures.is_empty() {
        eprintln!("FAILED: {} tracing checks missed", failures.len());
        std::process::exit(1);
    }
    println!("OK: trace ring and slow log are live and well-formed.");
}

/// Run every reader for `ops` queries each; returns merged, sorted latencies
/// (µs) and the failure count.
fn run_readers(addr: SocketAddr, readers: usize, ops: usize) -> (Vec<u64>, usize) {
    let mut threads = Vec::new();
    for reader_id in 0..readers {
        threads.push(std::thread::spawn(move || {
            let mut client = PrometheusClient::connect(addr)?;
            let mut rng = StdRng::seed_from_u64(0xBEEF ^ reader_id as u64);
            let mut samples: Vec<u64> = Vec::with_capacity(ops);
            for _ in 0..ops {
                let q = QUERIES[rng.gen_range(0..QUERIES.len())];
                let start = Instant::now();
                client.query(q)?;
                samples.push(start.elapsed().as_micros() as u64);
            }
            client.close()?;
            Ok::<_, prometheus_server::ServerError>(samples)
        }));
    }
    let mut merged = Vec::new();
    let mut failures = 0usize;
    for t in threads {
        match t.join() {
            Ok(Ok(samples)) => merged.extend(samples),
            Ok(Err(e)) => {
                failures += 1;
                eprintln!("reader error: {e}");
            }
            Err(_) => {
                failures += 1;
                eprintln!("reader thread panicked");
            }
        }
    }
    merged.sort_unstable();
    (merged, failures)
}

/// Readers vs a streaming writer: because queries run on pinned snapshots,
/// reader latency with an active writer should stay close to the idle
/// baseline instead of serialising behind the writer lane.
fn contention(argv: &[String]) {
    let num =
        |i: usize, default: usize| argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(default);
    let readers = num(0, 4).max(1);
    let ops = num(1, 200).max(1);
    let workers = num(2, readers + 2).max(2);

    let (handle, path) = boot_seeded_server("contention", workers);
    let addr = handle.addr();
    println!(
        "loadgen contention: {readers} readers × {ops} ops against {addr} \
         ({workers} workers), idle then with 1 streaming writer"
    );

    let wall = Instant::now();
    // Phase 1: no writer anywhere — the baseline.
    let (idle, idle_failures) = run_readers(addr, readers, ops);

    // Phase 2: same read workload while one writer streams units of work,
    // holding the writer lane for multi-operation stretches.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = PrometheusClient::connect(addr)?;
            let mut units = 0u64;
            let mut serial = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let mut unit = client.begin_unit()?;
                for _ in 0..16 {
                    serial += 1;
                    unit.create_object(
                        "CT",
                        vec![
                            ("working_name".into(), Value::Str(format!("Churn-{serial}"))),
                            ("rank".into(), Value::Str("Species".into())),
                        ],
                    )?;
                }
                unit.commit()?;
                units += 1;
                // Pace the churn: with structure-shared images a commit no
                // longer copies the snapshot, so an unthrottled writer floods
                // millions of rows and the readers' full scans end up
                // measuring data volume instead of writer interference.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            client.close()?;
            Ok::<_, prometheus_server::ServerError>(units)
        })
    };
    let swaps_before = {
        let mut observer = PrometheusClient::connect(addr).expect("connect for stats");
        let (_, storage) = observer.stats().expect("fetch stats");
        let _ = observer.close();
        storage.snapshot_swaps
    };
    let (active, active_failures) = run_readers(addr, readers, ops);
    stop.store(true, Ordering::Relaxed);
    let (writer_units, writer_failed) = match writer.join() {
        Ok(Ok(units)) => (units, false),
        Ok(Err(e)) => {
            eprintln!("writer error: {e}");
            (0, true)
        }
        Err(_) => {
            eprintln!("writer thread panicked");
            (0, true)
        }
    };
    let elapsed = wall.elapsed().as_secs_f64();

    let mut observer = PrometheusClient::connect(addr).expect("connect for stats");
    let (server, storage) = observer.stats().expect("fetch stats");
    let _ = observer.close();
    let swaps_during = storage.snapshot_swaps - swaps_before;

    println!();
    println!("{}", render_latency_summary("idle", &idle, elapsed));
    println!("{}", render_latency_summary("active", &active, elapsed));
    println!();
    println!(
        "writer: {writer_units} units committed while readers ran; \
         {} units committed server-wide, {} timed out",
        server.units_committed, server.units_timed_out
    );
    println!(
        "snapshots: {} swaps during the active phase ({} total), \
         readers pinned one per query",
        swaps_during, storage.snapshot_swaps
    );

    let json = format!(
        "{{\n  \"scenario\": \"contention\",\n  \"readers\": {readers},\n  \
         \"ops_per_reader\": {ops},\n  \"workers\": {workers},\n  \
         \"idle_p50_us\": {},\n  \"idle_p99_us\": {},\n  \
         \"active_p50_us\": {},\n  \"active_p99_us\": {},\n  \
         \"writer_units_committed\": {writer_units},\n  \
         \"snapshot_swaps_active_phase\": {swaps_during},\n  \
         \"elapsed_secs\": {elapsed:.3}\n}}\n",
        percentile_us(&idle, 0.50),
        percentile_us(&idle, 0.99),
        percentile_us(&active, 0.50),
        percentile_us(&active, 0.99),
    );
    std::fs::write("BENCH_contention.json", &json).expect("write BENCH_contention.json");
    println!("\nwrote BENCH_contention.json");

    handle.stop();
    let _ = std::fs::remove_file(&path);

    let failures = idle_failures + active_failures;
    if failures > 0 || writer_failed || server.protocol_errors > 0 || server.db_errors > 0 {
        eprintln!(
            "FAILED: {failures} reader failures, writer failed: {writer_failed}, \
             {} protocol errors, {} db errors",
            server.protocol_errors, server.db_errors
        );
        std::process::exit(1);
    }
    println!("OK: zero reader failures, zero protocol errors.");
}

/// One sharded-writes measurement leg: `writers` concurrent clients each
/// commit `units` pure-creation batches of `ops_per_unit` objects. Returns
/// (units/sec, total units committed, failure count).
fn run_sharded_writers(
    addr: SocketAddr,
    writers: usize,
    units: usize,
    ops_per_unit: usize,
) -> (f64, u64, usize) {
    let wall = Instant::now();
    let mut threads = Vec::new();
    for writer_id in 0..writers {
        threads.push(std::thread::spawn(move || {
            let mut client = PrometheusClient::connect(addr)?;
            for unit in 0..units {
                let ops = (0..ops_per_unit)
                    .map(|i| MutationOp::CreateObject {
                        class: "CT".into(),
                        attrs: vec![
                            (
                                "working_name".into(),
                                Value::Str(format!("Shard-{writer_id}-{unit}-{i}")),
                            ),
                            ("rank".into(), Value::Str("Species".into())),
                        ],
                    })
                    .collect();
                client.unit_batch(ops)?;
            }
            client.close()?;
            Ok::<_, prometheus_server::ServerError>(units as u64)
        }));
    }
    let mut committed = 0u64;
    let mut failures = 0usize;
    for t in threads {
        match t.join() {
            Ok(Ok(n)) => committed += n,
            Ok(Err(e)) => {
                failures += 1;
                eprintln!("writer error: {e}");
            }
            Err(_) => {
                failures += 1;
                eprintln!("writer thread panicked");
            }
        }
    }
    let elapsed = wall.elapsed().as_secs_f64().max(1e-9);
    (committed as f64 / elapsed, committed, failures)
}

/// Writer-lane scaling across shards: the same pure-creation write workload
/// against a 1-shard server, then an n-shard server. Pure-creation batches
/// claim exactly one lane (the round-robin home shard), so with n lanes up
/// to n batches commit concurrently — on a multi-core box that must show up
/// as throughput; on one core it honestly cannot, and the JSON says so.
fn sharded_writes(argv: &[String]) {
    let num =
        |i: usize, default: usize| argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(default);
    let writers = num(0, 4).max(1);
    let units = num(1, 50).max(1);
    let shards = num(2, 2).clamp(1, 64);
    let ops_per_unit = 16usize;
    let workers = writers + 2;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "loadgen sharded-writes: {writers} writers × {units} units × {ops_per_unit} creations, \
         1 shard vs {shards} shards"
    );
    println!(
        "{}",
        prometheus_bench::report::render_machine_summary(cores, shards)
    );

    // Leg 1: the single-lane baseline.
    let (base_handle, base_dir) = boot_sharded_server("shardbase", workers, 1);
    let (baseline_rate, baseline_units, baseline_failures) =
        run_sharded_writers(base_handle.addr(), writers, units, ops_per_unit);
    base_handle.stop();
    let _ = std::fs::remove_dir_all(&base_dir);

    // Leg 2: same workload, n lanes.
    let (handle, dir) = boot_sharded_server("shardfan", workers, shards);
    let addr = handle.addr();
    let (sharded_rate, sharded_units, sharded_failures) =
        run_sharded_writers(addr, writers, units, ops_per_unit);

    // The sharded leg must still be a correct database: every creation
    // visible, spread across shards, with no 2PC units (pure single-shard
    // batches never prepare).
    let mut observer = PrometheusClient::connect(addr).expect("connect for stats");
    let rows = observer
        .query("select t from CT t")
        .expect("count rows")
        .rows
        .len();
    let expected = 32 + writers * units * ops_per_unit;
    let (server, storage) = observer.stats().expect("fetch stats");
    let _ = observer.close();
    let per_shard_swaps: Vec<u64> = server.per_shard.iter().map(|s| s.snapshot_swaps).collect();
    let shards_written = per_shard_swaps.iter().filter(|&&n| n > 0).count();
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = if baseline_rate > 0.0 {
        sharded_rate / baseline_rate
    } else {
        0.0
    };
    println!();
    println!("1 shard:  {baseline_rate:>8.1} units/sec ({baseline_units} committed)");
    println!("{shards} shards: {sharded_rate:>8.1} units/sec ({sharded_units} committed)");
    println!(
        "speedup: {speedup:.2}× on {cores} core(s); commits landed on \
         {shards_written}/{shards} shards {per_shard_swaps:?}; {} 2PC units",
        storage.units_2pc
    );

    let json = format!(
        "{{\n  \"scenario\": \"sharded-writes\",\n  \"writers\": {writers},\n  \
         \"units_per_writer\": {units},\n  \"ops_per_unit\": {ops_per_unit},\n  \
         \"shards\": {shards},\n  \"cores\": {cores},\n  \
         \"baseline_units_per_sec\": {baseline_rate:.1},\n  \
         \"sharded_units_per_sec\": {sharded_rate:.1},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"shards_written\": {shards_written},\n  \
         \"units_2pc\": {}\n}}\n",
        storage.units_2pc
    );
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("\nwrote BENCH_shard.json");

    let mut failed = false;
    if baseline_failures + sharded_failures > 0 {
        eprintln!(
            "FAILED: {} writer failures",
            baseline_failures + sharded_failures
        );
        failed = true;
    }
    if server.protocol_errors > 0 || server.db_errors > 0 {
        eprintln!(
            "FAILED: {} protocol errors, {} db errors",
            server.protocol_errors, server.db_errors
        );
        failed = true;
    }
    if rows != expected {
        eprintln!("FAILED: sharded server holds {rows} rows, expected {expected}");
        failed = true;
    }
    if shards > 1 && shards_written < 2 {
        eprintln!(
            "FAILED: commits landed on {shards_written} shard(s); expected spread across lanes"
        );
        failed = true;
    }
    // The throughput gate only arms where parallel lanes *can* win.
    if shards >= 2 && cores > 1 && speedup < 1.5 {
        eprintln!("FAILED: {speedup:.2}× speedup on {cores} cores; gate is 1.5×");
        failed = true;
    } else if shards >= 2 && cores <= 1 {
        println!("note: single-core box — the 1.5× gate is informational here.");
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: sharded writes correct; lanes spread across shards.");
}

/// Measure what one commit costs to *publish* as the image grows: with a
/// reader snapshot pinned, applying a commit must path-copy the persistent
/// map, and the `image_nodes_cloned` / `image_bytes_copied` counters say
/// exactly how much was copied. Sublinear growth across a 100× size spread
/// is the structure-sharing contract; anything near linear means a commit
/// is cloning the snapshot, and the run exits 1.
fn commit_cost(argv: &[String]) {
    use prometheus_storage::{Keyspace, Store, StoreOptions};

    let sizes: Vec<usize> = if argv.is_empty() {
        vec![10_000, 100_000, 1_000_000]
    } else {
        argv.iter()
            .filter_map(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .collect()
    };
    const PROBES: usize = 64;
    const WRITES_PER_COMMIT: usize = 4;
    const VALUE_LEN: usize = 16;
    let ks = Keyspace(7);

    println!(
        "loadgen commit-cost: {PROBES} probe commits × {WRITES_PER_COMMIT} writes \
         against pinned snapshots at image sizes {sizes:?}"
    );

    struct SizeRow {
        keys: usize,
        bulk_load_secs: f64,
        nodes_per_commit: f64,
        bytes_per_commit: f64,
        p50_us: u64,
        p99_us: u64,
    }
    let mut rows: Vec<SizeRow> = Vec::new();

    for &n in &sizes {
        let path = std::env::temp_dir().join(format!(
            "prometheus-commit-cost-{n}-{}.db",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let store = Store::open_with(
            &path,
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .expect("open scratch store");

        // Bulk-load n keys; nothing pins the image, so these commits mutate
        // the unique spine in place and are not what we are measuring.
        let load = Instant::now();
        let mut next = 0usize;
        while next < n {
            let end = (next + 4096).min(n);
            store
                .with_txn(|t| {
                    for k in next..end {
                        t.kv_put(ks, (k as u64).to_be_bytes().to_vec(), vec![0xAB; VALUE_LEN]);
                    }
                    Ok(())
                })
                .expect("bulk load");
            next = end;
        }
        let bulk_load_secs = load.elapsed().as_secs_f64();

        // Probe: every commit runs against a freshly pinned reader snapshot,
        // forcing publication to clone the root-to-leaf path of each write.
        let mut rng = StdRng::seed_from_u64(7);
        let before = store.stats().snapshot();
        let mut samples = Vec::with_capacity(PROBES);
        for _ in 0..PROBES {
            let pin = store.snapshot();
            let t0 = Instant::now();
            store
                .with_txn(|t| {
                    for _ in 0..WRITES_PER_COMMIT {
                        let k: u64 = rng.gen_range(0..n as u64);
                        t.kv_put(ks, k.to_be_bytes().to_vec(), vec![0xCD; VALUE_LEN]);
                    }
                    Ok(())
                })
                .expect("probe commit");
            samples.push(t0.elapsed().as_micros() as u64);
            drop(pin);
        }
        let after = store.stats().snapshot();
        samples.sort_unstable();

        let nodes_per_commit =
            (after.image_nodes_cloned - before.image_nodes_cloned) as f64 / PROBES as f64;
        let bytes_per_commit =
            (after.image_bytes_copied - before.image_bytes_copied) as f64 / PROBES as f64;
        println!(
            "  {n:>9} keys: {nodes_per_commit:.1} nodes / {bytes_per_commit:.0} bytes \
             cloned per commit, p50 {} us, p99 {} us (bulk load {bulk_load_secs:.2}s)",
            percentile_us(&samples, 0.50),
            percentile_us(&samples, 0.99),
        );
        rows.push(SizeRow {
            keys: n,
            bulk_load_secs,
            nodes_per_commit,
            bytes_per_commit,
            p50_us: percentile_us(&samples, 0.50),
            p99_us: percentile_us(&samples, 0.99),
        });

        drop(store);
        let _ = std::fs::remove_file(&path);
    }

    // Sublinearity verdict across the extremes: if the image grew R× but the
    // per-commit clone cost grew anywhere near R×, commits are copying the
    // map, not a path. Demand at least a 5× gap.
    let mut sublinear = true;
    if let (Some(small), Some(large)) = (rows.first(), rows.last()) {
        if large.keys > small.keys && small.nodes_per_commit > 0.0 {
            let size_ratio = large.keys as f64 / small.keys as f64;
            let cost_ratio = large.nodes_per_commit / small.nodes_per_commit;
            sublinear = cost_ratio * 5.0 <= size_ratio;
            println!(
                "image grew {size_ratio:.0}×, per-commit clone cost grew {cost_ratio:.2}× \
                 — {}",
                if sublinear {
                    "sublinear"
                } else {
                    "NOT sublinear"
                }
            );
        }
    }

    let mut json = String::from("{\n  \"scenario\": \"commit-cost\",\n  \"sizes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"keys\": {}, \"nodes_cloned_per_commit\": {:.2}, \
             \"bytes_copied_per_commit\": {:.0}, \"commit_p50_us\": {}, \
             \"commit_p99_us\": {}, \"bulk_load_secs\": {:.3} }}{}\n",
            r.keys,
            r.nodes_per_commit,
            r.bytes_per_commit,
            r.p50_us,
            r.p99_us,
            r.bulk_load_secs,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"probe_commits\": {PROBES},\n  \"writes_per_commit\": {WRITES_PER_COMMIT},\n  \
         \"sublinear\": {sublinear}\n}}\n"
    ));
    std::fs::write("BENCH_commit.json", &json).expect("write BENCH_commit.json");
    println!("\nwrote BENCH_commit.json");

    if !sublinear {
        eprintln!("FAILED: per-commit publication cost is not sublinear in the image size");
        std::process::exit(1);
    }
    println!("OK: publication cost is a path, not the image.");
}

/// Like [`run_readers`], but reader `i` connects to `addrs[i % addrs.len()]`
/// — the fan-out the replication scenario uses to spread reads across
/// followers.
fn run_readers_across(addrs: &[SocketAddr], readers: usize, ops: usize) -> (Vec<u64>, usize) {
    let mut threads = Vec::new();
    for reader_id in 0..readers {
        let addr = addrs[reader_id % addrs.len()];
        threads.push(std::thread::spawn(move || {
            let mut client = PrometheusClient::connect(addr)?;
            let mut rng = StdRng::seed_from_u64(0xFA11 ^ reader_id as u64);
            let mut samples: Vec<u64> = Vec::with_capacity(ops);
            for _ in 0..ops {
                let q = QUERIES[rng.gen_range(0..QUERIES.len())];
                let start = Instant::now();
                client.query(q)?;
                samples.push(start.elapsed().as_micros() as u64);
            }
            client.close()?;
            Ok::<_, prometheus_server::ServerError>(samples)
        }));
    }
    let mut merged = Vec::new();
    let mut failures = 0usize;
    for t in threads {
        match t.join() {
            Ok(Ok(samples)) => merged.extend(samples),
            Ok(Err(e)) => {
                failures += 1;
                eprintln!("reader error: {e}");
            }
            Err(_) => {
                failures += 1;
                eprintln!("reader thread panicked");
            }
        }
    }
    merged.sort_unstable();
    (merged, failures)
}

/// Primary + log-shipping followers under a steady write stream: measure
/// how far follower reads scale query throughput, and what replication lag
/// looks like while it happens.
fn replication(argv: &[String]) {
    use prometheus_replica::{Follower, FollowerConfig};
    use std::time::Duration;

    let num =
        |i: usize, default: usize| argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(default);
    let readers = num(0, 4).max(1);
    let ops = num(1, 150).max(1);
    let follower_count = num(2, 2).clamp(1, 8);

    let (handle, path) = boot_seeded_server("replication", readers + 2);
    let addr = handle.addr();
    println!(
        "loadgen replication: {readers} readers × {ops} ops, 1 writer, \
         {follower_count} followers of {addr}"
    );

    // A fixed churn pool the writer will update in place: the redo log (and
    // so the replication stream) keeps flowing, but the table size — and so
    // the read workload's cost — stays identical across both phases.
    let churn_pool: Vec<_> = {
        let mut seeder = PrometheusClient::connect(addr).expect("connect seeder");
        let pool = seeder
            .unit_batch(
                (0..64)
                    .map(|i| MutationOp::CreateObject {
                        class: "CT".into(),
                        attrs: vec![
                            ("working_name".into(), Value::Str(format!("Churn-{i:03}"))),
                            ("rank".into(), Value::Str("Species".into())),
                        ],
                    })
                    .collect(),
            )
            .expect("seed churn pool");
        let _ = seeder.close();
        pool
    };

    let mut followers = Vec::new();
    let mut follower_paths = Vec::new();
    for i in 0..follower_count {
        let fpath = std::env::temp_dir().join(format!(
            "prometheus-loadgen-replica-{i}-{}.db",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&fpath);
        let mut config = FollowerConfig::new(addr.to_string(), &fpath);
        config.name = format!("bench-{i}");
        config.poll_interval = Duration::from_millis(10);
        config.max_batch_bytes = 64 * 1024;
        followers.push(Follower::start(config).expect("start follower"));
        follower_paths.push(fpath);
    }
    for f in &followers {
        assert!(
            f.wait_caught_up(Duration::from_secs(30)),
            "follower failed to catch up with the seed data"
        );
    }
    let follower_addrs: Vec<SocketAddr> = followers.iter().map(|f| f.addr()).collect();

    // One writer streams units at the primary for the whole run, so both
    // read phases — and the lag samples — happen under live replication.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = PrometheusClient::connect(addr)?;
            let mut units = 0u64;
            let mut serial = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut unit = client.begin_unit()?;
                for k in 0..32usize {
                    serial += 1;
                    let oid = churn_pool[(units as usize * 32 + k) % churn_pool.len()];
                    unit.set_attr(oid, "working_name", Value::Str(format!("Churn-{serial}")))?;
                }
                unit.commit()?;
                units += 1;
            }
            client.close()?;
            Ok::<_, prometheus_server::ServerError>(units)
        })
    };
    // Lag sampler: the primary's own per-follower gauges, every few ms.
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut observer = PrometheusClient::connect(addr)?;
            let mut samples: Vec<u64> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let (server, _) = observer.stats()?;
                for f in &server.replication {
                    samples.push(f.lag_bytes);
                }
                std::thread::sleep(Duration::from_millis(3));
            }
            observer.close()?;
            Ok::<_, prometheus_server::ServerError>(samples)
        })
    };

    let wall = Instant::now();
    // Phase 1: every reader on the primary — the no-replica baseline.
    let (primary_lat, primary_failures) = run_readers_across(&[addr], readers, ops);
    let primary_secs = wall.elapsed().as_secs_f64();
    // Phase 2: the same read workload fanned across the followers.
    let fanned_start = Instant::now();
    let (fanned_lat, fanned_failures) = run_readers_across(&follower_addrs, readers, ops);
    let fanned_secs = fanned_start.elapsed().as_secs_f64();

    stop.store(true, Ordering::Relaxed);
    let (writer_units, writer_failed) = match writer.join() {
        Ok(Ok(units)) => (units, false),
        Ok(Err(e)) => {
            eprintln!("writer error: {e}");
            (0, true)
        }
        Err(_) => {
            eprintln!("writer thread panicked");
            (0, true)
        }
    };
    let mut lag_samples = match sampler.join() {
        Ok(Ok(samples)) => samples,
        _ => {
            eprintln!("lag sampler failed");
            Vec::new()
        }
    };

    // Writer stopped: every follower must converge back to zero lag, as
    // seen from the primary's own gauges (which measure against the live
    // commit horizon, so a follower is only "caught up" once it has polled
    // past the writer's final unit).
    let mut observer = PrometheusClient::connect(addr).expect("connect for stats");
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut server, mut storage) = observer.stats().expect("fetch stats");
    while server.replication.iter().any(|f| f.lag_bytes > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        (server, storage) = observer.stats().expect("fetch stats");
    }
    let _ = observer.close();
    let converged = server.replication.iter().all(|f| f.lag_bytes == 0);
    if !converged {
        for f in &server.replication {
            eprintln!(
                "follower {} never converged: {} bytes behind",
                f.follower, f.lag_bytes
            );
        }
    }
    // The primary's exposition must carry the per-follower lag gauges — the
    // scrape surface operators actually watch.
    let exposition = prometheus_bench::report::render_prometheus_exposition(&server, &storage);
    let exposes_lag = exposition.contains("prometheus_server_replication_follower_lag_bytes{");
    let final_lag: u64 = server.replication.iter().map(|f| f.lag_bytes).sum();

    lag_samples.sort_unstable();
    let saw_lag = lag_samples.iter().any(|&l| l > 0);
    let primary_qps = primary_lat.len() as f64 / primary_secs.max(1e-9);
    let fanned_qps = fanned_lat.len() as f64 / fanned_secs.max(1e-9);
    let scaling = fanned_qps / primary_qps.max(1e-9);

    println!();
    println!(
        "{}",
        render_latency_summary("primary", &primary_lat, primary_secs)
    );
    println!(
        "{}",
        render_latency_summary("fanned", &fanned_lat, fanned_secs)
    );
    println!();
    println!(
        "throughput: primary-only {primary_qps:.0} q/s, fanned {fanned_qps:.0} q/s \
         ({scaling:.2}x across {follower_count} followers)"
    );
    println!(
        "lag: {} samples, p50 {} B, p99 {} B, max {} B; saw lag: {saw_lag}; \
         converged to {final_lag} B; exposition gauges: {exposes_lag}",
        lag_samples.len(),
        percentile_us(&lag_samples, 0.50),
        percentile_us(&lag_samples, 0.99),
        lag_samples.last().copied().unwrap_or(0),
    );
    println!("writer: {writer_units} units shipped while reads ran");

    let json = format!(
        "{{\n  \"scenario\": \"replication\",\n  \"readers\": {readers},\n  \
         \"ops_per_reader\": {ops},\n  \"followers\": {follower_count},\n  \
         \"primary_qps\": {primary_qps:.2},\n  \"fanned_qps\": {fanned_qps:.2},\n  \
         \"read_scaling\": {scaling:.3},\n  \
         \"lag_p50_bytes\": {},\n  \"lag_p99_bytes\": {},\n  \"lag_max_bytes\": {},\n  \
         \"lag_saw_nonzero\": {saw_lag},\n  \"lag_final_bytes\": {final_lag},\n  \
         \"lag_converged\": {converged},\n  \
         \"writer_units_committed\": {writer_units},\n  \
         \"exposition_has_follower_gauges\": {exposes_lag}\n}}\n",
        percentile_us(&lag_samples, 0.50),
        percentile_us(&lag_samples, 0.99),
        lag_samples.last().copied().unwrap_or(0),
    );
    std::fs::write("BENCH_replication.json", &json).expect("write BENCH_replication.json");
    println!("\nwrote BENCH_replication.json");

    for f in followers {
        f.stop();
    }
    handle.stop();
    let _ = std::fs::remove_file(&path);
    for p in follower_paths {
        let _ = std::fs::remove_file(p);
    }

    let failures = primary_failures + fanned_failures;
    if failures > 0 || writer_failed || !converged || !exposes_lag || server.protocol_errors > 0 {
        eprintln!(
            "FAILED: {failures} reader failures, writer failed: {writer_failed}, \
             converged: {converged}, exposition gauges: {exposes_lag}, \
             {} protocol errors",
            server.protocol_errors
        );
        std::process::exit(1);
    }
    println!("OK: followers converged, reads fanned out, zero failures.");
}

/// Queries for the `parallel` scenario, chosen to hit every morsel-parallel
/// stage: candidate filters (pushdown + conformance), the outer join loop,
/// and recursive traversal frontiers.
const PARALLEL_QUERIES: [&str; 4] = [
    "select x.name from BT x where x.year >= 1780 and x.rank = \"Species\" order by x.name",
    "select distinct x.name from BT x where x.name like \"n00%\" order by x.name desc",
    "select x.name, y.name from BT x, BT y \
     where x.year = y.year and x.rank = \"Genus\" and y.rank = \"Family\" \
     order by x.name, y.name limit 500",
    "select x.name, count(x -> Near[1..4]) from BT x where x.year < 1705 order by x.name",
];

/// Sequential vs morsel-parallel execution of the same queries over the
/// same pinned snapshot. The point is twofold: the results must be
/// identical (determinism), and the N-worker throughput is reported next
/// to the core count so the speedup claim is honest about the hardware.
fn parallel(argv: &[String]) {
    let num =
        |i: usize, default: usize| argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(default);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let objects = num(0, 4000).max(100);
    let iters = num(1, 5).max(1);
    let workers = num(2, cores.max(2)).max(2);

    let path = std::env::temp_dir().join(format!(
        "prometheus-loadgen-parallel-{}.db",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let store = ShardedStore::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
        1,
        prometheus_db::index::shard_routing(),
    )
    .expect("open scratch database");
    let db = Database::open_sharded(Arc::new(store)).expect("open database");

    // A benchmark flora: a base class with indexed attributes, a subclass
    // (so conformance checks do real work) and a branching relationship
    // (so traversal frontiers grow past one morsel).
    db.define_class(
        ClassDef::new("BT")
            .attr(AttrDef::required("name", Type::Str).indexed())
            .attr(AttrDef::optional("year", Type::Int).indexed())
            .attr(AttrDef::optional("rank", Type::Str)),
    )
    .expect("define BT");
    db.define_class(ClassDef::new("BTS").extends("BT"))
        .expect("define BTS");
    db.define_relationship(
        RelClassDef::association("Near", "BT", "BT")
            .origin_cardinality(Cardinality::MANY)
            .destination_cardinality(Cardinality::MANY),
    )
    .expect("define Near");

    const RANKS: [&str; 3] = ["Genus", "Species", "Family"];
    let mut oids = Vec::with_capacity(objects);
    for i in 0..objects {
        let class = if i % 4 == 0 { "BTS" } else { "BT" };
        oids.push(
            db.create_object(
                class,
                vec![
                    ("name".to_string(), Value::Str(format!("n{i:05}"))),
                    ("year".to_string(), Value::Int(1700 + (i as i64 % 200))),
                    (
                        "rank".to_string(),
                        Value::Str(RANKS[i % RANKS.len()].to_string()),
                    ),
                ],
            )
            .expect("seed object"),
        );
    }
    // Three outgoing edges per object so a depth-4 traversal fans out well
    // past the frontier morsel size.
    for i in 0..objects {
        for stride in [1usize, 7, 31] {
            let j = (i + stride) % objects;
            if i != j {
                db.create_relationship("Near", oids[i], oids[j], Vec::new())
                    .expect("seed edge");
            }
        }
    }

    println!(
        "loadgen parallel: {objects} objects × {} queries × {iters} iters, \
         1 vs {workers} workers ({cores} cores available)",
        PARALLEL_QUERIES.len()
    );

    let view = db.read_view();
    let mut timings = Vec::new(); // (label, workers, elapsed_secs, results)
    for (label, w) in [("sequential", 1usize), ("parallel", workers)] {
        let executor = Executor::new(w);
        // Warm pass: plans get cached, page cache fills; the timed loop
        // then measures execution, not planning.
        let warm: Vec<_> = PARALLEL_QUERIES
            .iter()
            .map(|q| executor.query(&view, q, None).expect("query"))
            .collect();
        let start = Instant::now();
        for _ in 0..iters {
            for q in PARALLEL_QUERIES {
                executor.query(&view, q, None).expect("query");
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let stats = executor.stats();
        println!(
            "  {label:>10} ({w} workers): {:.3}s, {:.1} q/s, {} morsels, \
             cache {}h/{}m",
            elapsed,
            (iters * PARALLEL_QUERIES.len()) as f64 / elapsed,
            stats.parallel_morsels,
            stats.plan_cache_hits,
            stats.plan_cache_misses,
        );
        timings.push((label, w, elapsed, warm, stats));
    }

    let (_, _, seq_secs, seq_rows, _) = &timings[0];
    let (_, _, par_secs, par_rows, par_stats) = &timings[1];
    let identical = seq_rows == par_rows;
    let total = (iters * PARALLEL_QUERIES.len()) as f64;
    let seq_qps = total / seq_secs;
    let par_qps = total / par_secs;
    let speedup = seq_secs / par_secs;
    println!();
    println!("speedup: {speedup:.2}x on {cores} core(s); results identical: {identical}");

    let json = format!(
        "{{\n  \"scenario\": \"parallel\",\n  \"objects\": {objects},\n  \
         \"iterations\": {iters},\n  \"queries\": {},\n  \
         \"workers\": {workers},\n  \"cores\": {cores},\n  \
         \"sequential_qps\": {seq_qps:.2},\n  \"parallel_qps\": {par_qps:.2},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"parallel_morsels\": {},\n  \"plan_cache_hits\": {},\n  \
         \"plan_cache_misses\": {},\n  \"results_identical\": {identical}\n}}\n",
        PARALLEL_QUERIES.len(),
        par_stats.parallel_morsels,
        par_stats.plan_cache_hits,
        par_stats.plan_cache_misses,
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");

    drop(view);
    drop(db);
    let _ = std::fs::remove_file(&path);

    if !identical {
        eprintln!("FAILED: parallel execution diverged from sequential");
        std::process::exit(1);
    }
    println!("OK: parallel results identical to sequential.");
}

/// Handshake a wire session through the public sans-io codecs — the same
/// `FrameEncoder`/`FrameDecoder` the event transport itself uses — and
/// return the socket to be parked open.
fn sansio_handshake(addr: SocketAddr) -> std::io::Result<std::net::TcpStream> {
    use prometheus_server::{FrameDecoder, FrameEncoder, Request, Response, PROTOCOL_VERSION};
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr)?;
    let mut enc = FrameEncoder::new();
    enc.push(
        prometheus_server::TraceId::NONE,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            client: "loadgen-idle".into(),
        },
    )
    .expect("encode Hello");
    while !enc.is_empty() {
        let n = s.write(enc.pending())?;
        enc.consume(n);
    }
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some((_, resp)) = dec.next_msg::<Response>().expect("decode handshake reply") {
            match resp {
                Response::Welcome { .. } => return Ok(s),
                other => panic!("expected Welcome, got {other:?}"),
            }
        }
        let n = s.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed during handshake",
            ));
        }
        dec.extend(&buf[..n]);
    }
}

/// One raw `GET /metrics` scrape; returns the body.
fn http_scrape(addr: SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect to scrape endpoint");
    s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set scrape timeout");
    write!(s, "GET /metrics HTTP/1.1\r\nHost: loadgen\r\n\r\n").expect("send scrape request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read scrape response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete HTTP response");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "scrape returned non-200: {head}"
    );
    body.to_string()
}

/// Pull one unlabelled metric value out of an exposition body.
fn scrape_value(body: &str, name: &str) -> Option<u64> {
    body.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

/// `loadgen idle-connections [conns] [ops] [io_threads]`
fn idle_connections(argv: &[String]) {
    let num =
        |i: usize, default: usize| argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(default);
    let conns = num(0, 5000).max(1);
    let ops = num(1, 200).max(1);
    let io_threads = num(2, 4).clamp(1, 4);

    let path =
        std::env::temp_dir().join(format!("prometheus-loadgen-idle-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .expect("open scratch database");
    let tax = p.taxonomy().expect("install taxonomy schema");
    for i in 0..32 {
        tax.create_ct(&format!("Seed-{i:03}"), Rank::Genus)
            .expect("seed taxon");
    }
    let handle = match serve(
        p,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            io_threads,
            metrics_http_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            // Event mode is Linux-only; report rather than panic elsewhere.
            eprintln!("idle-connections needs the event transport: {e}");
            std::process::exit(2);
        }
    };
    let addr = handle.addr();
    let scrape_addr = handle.metrics_addr().expect("scrape listener");
    println!(
        "loadgen idle-connections: {conns} parked sessions against {addr} \
         ({io_threads} io threads), scrape endpoint on {scrape_addr}"
    );

    let wall = Instant::now();
    // Baseline: one client, an empty house.
    let (mut idle, baseline_failures) = run_readers(addr, 1, ops);
    idle.sort_unstable();

    // Park the idle herd, handshaking through the sans-io codecs.
    let mut parked = Vec::with_capacity(conns);
    for i in 0..conns {
        match sansio_handshake(addr) {
            Ok(s) => parked.push(s),
            Err(e) => {
                eprintln!("FAILED: handshake {i} refused: {e}");
                std::process::exit(1);
            }
        }
        if (i + 1) % 1000 == 0 {
            println!("  {} sessions parked …", i + 1);
        }
    }
    let active_peak = handle.metrics().connections_active;

    // Same workload again with every session still open.
    let (mut loaded, loaded_failures) = run_readers(addr, 1, ops);
    loaded.sort_unstable();

    // Scrape vs wire stats: same counters, two transports, one instant —
    // compare values nothing moves between the two reads.
    let mut observer = PrometheusClient::connect(addr).expect("connect for stats");
    let (server, storage) = observer.stats().expect("fetch stats");
    let body = http_scrape(scrape_addr);
    let _ = observer.close();
    let scrape_checks = [
        (
            "prometheus_server_connections_accepted_total",
            server.connections_accepted,
        ),
        (
            "prometheus_server_sessions_reaped_total",
            server.sessions_reaped,
        ),
        (
            "prometheus_server_units_committed_total",
            server.units_committed,
        ),
        ("prometheus_storage_commits_total", storage.commits),
    ];
    let mut scrape_ok = true;
    for (name, wire) in scrape_checks {
        match scrape_value(&body, name) {
            Some(v) if v == wire => {}
            got => {
                eprintln!("scrape mismatch: {name} = {got:?}, wire said {wire}");
                scrape_ok = false;
            }
        }
    }

    let survivors = handle.metrics().connections_active;
    let elapsed = wall.elapsed().as_secs_f64();
    println!();
    println!("{}", render_latency_summary("baseline", &idle, elapsed));
    println!("{}", render_latency_summary("loaded", &loaded, elapsed));
    println!(
        "sessions: {active_peak} live at peak, {survivors} after the loaded run \
         ({} accepted, {} reaped)",
        server.connections_accepted, server.sessions_reaped
    );

    let idle_p99 = percentile_us(&idle, 0.99);
    let loaded_p99 = percentile_us(&loaded, 0.99);
    // A small floor keeps the ratio honest when the baseline p99 is a few
    // dozen µs and scheduler noise alone could double it.
    let budget_us = (2 * idle_p99).max(5_000);
    let ratio = if idle_p99 > 0 {
        loaded_p99 as f64 / idle_p99 as f64
    } else {
        f64::NAN
    };
    let json = format!(
        "{{\n  \"scenario\": \"idle-connections\",\n  \"idle_conns\": {conns},\n  \
         \"ops\": {ops},\n  \"io_threads\": {io_threads},\n  \
         \"baseline_p50_us\": {},\n  \"baseline_p99_us\": {idle_p99},\n  \
         \"loaded_p50_us\": {},\n  \"loaded_p99_us\": {loaded_p99},\n  \
         \"p99_ratio\": {ratio:.3},\n  \"connections_active_peak\": {active_peak},\n  \
         \"scrape_matches_wire_stats\": {scrape_ok},\n  \
         \"elapsed_secs\": {elapsed:.3}\n}}\n",
        percentile_us(&idle, 0.50),
        percentile_us(&loaded, 0.50),
    );
    std::fs::write("BENCH_idle.json", &json).expect("write BENCH_idle.json");
    println!("\nwrote BENCH_idle.json");

    drop(parked);
    handle.stop();
    let _ = std::fs::remove_file(&path);

    let failures = baseline_failures + loaded_failures;
    let held = active_peak >= conns as u64;
    let p99_ok = loaded_p99 <= budget_us;
    if failures > 0 || !held || !p99_ok || !scrape_ok || server.protocol_errors > 0 {
        eprintln!(
            "FAILED: {failures} reader failures; held {active_peak}/{conns} sessions; \
             loaded p99 {loaded_p99}µs vs budget {budget_us}µs; scrape ok: {scrape_ok}; \
             {} protocol errors",
            server.protocol_errors
        );
        std::process::exit(1);
    }
    println!(
        "OK: {conns} idle sessions held on {io_threads} io threads; \
         loaded p99 {loaded_p99}µs within budget {budget_us}µs; scrape agrees with the wire."
    );
}
