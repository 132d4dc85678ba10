//! The chapter-7.2 harness: regenerates every measured table and figure of
//! the thesis' performance evaluation.
//!
//! ```text
//! cargo run --release -p prometheus-bench --bin harness            # everything
//! cargo run --release -p prometheus-bench --bin harness -- raw    # one section
//! ```
//!
//! Sections: `schema`, `raw`, `queries`, `traversals`, `t5`, `s1`, `s2`,
//! `ablation` (design-choice costs: indexes, rules, context scoping).
//! CSV artifacts are written to `bench-results/`.
//!
//! Operational (not part of `all`): `stats [--format=prometheus] [addr]`
//! fetches a running server's counters over the wire (or boots a demo
//! server when no address is given) and prints them — with
//! `--format=prometheus`, in the Prometheus text exposition format, ready
//! for a scrape endpoint or file-based collector.
//!
//! `serve [--addr ip:port] [--metrics ip:port] [--io-threads n]
//! [--duration secs]` boots a seeded demo server on the event-driven
//! transport with the HTTP `GET /metrics` scrape endpoint enabled, prints
//! both addresses, and blocks (or exits after `--duration`) — the CI smoke
//! target for `curl`-ing the scrape endpoint, and a convenient way to point
//! a real Prometheus collector at the reproduction.
//!
//! `trace <trace-id> <addr>` prints the merged cross-shard span tree for
//! one trace id from a running server (follower spans included when a
//! replica is attached); `top <addr> [--interval secs] [--iterations n]`
//! streams a live per-stage rollup view of the flight recorder.
//!
//! `replica <primary-addr> <data-path> [--addr ip:port] [--name s]
//! [--shards n]` runs a read-only follower of a running primary
//! (`--shards` must match the primary's shard count): it replays the primary's redo
//! log into `data-path`, serves POOL queries on `--addr` (default an
//! ephemeral port, printed at startup), and reports its applied position
//! once a second until killed. Restarting with the same `data-path`
//! resumes from the local cursor.

use prometheus_bench::ops;
use prometheus_bench::report::{
    growth_ratio, render_revalidation, render_sweep, render_table, write_revalidation_csv,
    write_sweep_csv, write_table_csv, CompareRow, RevalidationPoint, SweepPoint,
};
use prometheus_bench::schema::{BenchParams, PromDb, RawDb};
use prometheus_bench::{micros, time_median, time_once};
use std::path::PathBuf;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("stats") {
        stats_section(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("replica") {
        replica_section(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("serve") {
        serve_section(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("trace") {
        trace_section(&argv[1..]);
        return;
    }
    if argv.first().map(String::as_str) == Some("top") {
        top_section(&argv[1..]);
        return;
    }
    let section = argv.first().cloned().unwrap_or_else(|| "all".to_string());
    let out_dir = PathBuf::from("bench-results");
    let _ = std::fs::create_dir_all(&out_dir);
    let run = |s: &str| section == "all" || section == s;

    if run("schema") {
        schema_section();
    }
    if run("raw") {
        raw_performance(&out_dir);
    }
    if run("queries") {
        queries(&out_dir);
    }
    if run("traversals") {
        traversals(&out_dir);
    }
    if run("t5") {
        sweep_t5(&out_dir);
    }
    if run("s1") {
        sweep_structural(&out_dir, false);
    }
    if run("s2") {
        sweep_structural(&out_dir, true);
    }
    if run("ablation") {
        ablation(&out_dir);
    }
    println!("\nCSV artifacts in {}/", out_dir.display());
}

/// Resolve the target sizes to the distinct node counts the tree shape can
/// actually produce (levels are discrete, so nearby targets may coincide).
fn sweep_sizes(targets: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for &t in targets {
        let n = BenchParams::with_target_nodes(t).node_count();
        if seen.insert(n) {
            out.push(t);
        }
    }
    out
}

fn medium() -> BenchParams {
    BenchParams {
        fanout: 3,
        levels: 6,
        parts_per_leaf: 5,
    }
}

/// Figures 43/47/48: report the generated schema sizes.
fn schema_section() {
    let p = medium();
    println!("== benchmark schema (Figures 43/47/48) ==");
    println!(
        "fanout {} · levels {} · parts/leaf {}  =>  {} assemblies, {} parts, {} edges",
        p.fanout,
        p.levels,
        p.parts_per_leaf,
        p.assembly_count(),
        p.leaf_count() * p.parts_per_leaf,
        p.edge_count()
    );
    let (raw, raw_build) = time_once(|| RawDb::build("h-schema-raw", medium()).unwrap());
    let (prom, prom_build) = time_once(|| PromDb::build("h-schema-prom", medium()).unwrap());
    println!(
        "build time: raw {:.1} ms, prometheus {:.1} ms (schema checks, relationship semantics, \
         indexes and classification membership included)",
        micros(raw_build) / 1000.0,
        micros(prom_build) / 1000.0
    );
    raw.cleanup();
    prom.cleanup();
}

/// §7.2.1.2.1 — raw performance table.
fn raw_performance(out: &std::path::Path) {
    let raw = RawDb::build("h-raw", medium()).unwrap();
    let prom = PromDb::build("h-prom", medium()).unwrap();
    let n = 1000usize;
    let mut rows = Vec::new();

    let (raw_ids, d_raw_create) = time_once(|| ops::raw_create(&raw, n).unwrap());
    let (prom_ids, d_prom_create) = time_once(|| ops::prom_create(&prom, n).unwrap());
    rows.push(CompareRow {
        operation: "create object".into(),
        raw_us: micros(d_raw_create),
        prom_us: micros(d_prom_create),
        items: n,
    });

    let d_raw = time_median(5, || ops::raw_lookup(&raw, &raw_ids).unwrap());
    let d_prom = time_median(5, || ops::prom_lookup(&prom, &prom_ids).unwrap());
    rows.push(CompareRow {
        operation: "lookup by oid".into(),
        raw_us: micros(d_raw),
        prom_us: micros(d_prom),
        items: n,
    });

    let d_raw = time_median(5, || ops::raw_read_attr(&raw, &raw_ids).unwrap());
    let d_prom = time_median(5, || ops::prom_read_attr(&prom, &prom_ids).unwrap());
    rows.push(CompareRow {
        operation: "read attribute".into(),
        raw_us: micros(d_raw),
        prom_us: micros(d_prom),
        items: n,
    });

    let (_, d_raw) = time_once(|| ops::raw_update_attr(&raw, &raw_ids).unwrap());
    let (_, d_prom) = time_once(|| ops::prom_update_attr(&prom, &prom_ids).unwrap());
    rows.push(CompareRow {
        operation: "update attribute".into(),
        raw_us: micros(d_raw),
        prom_us: micros(d_prom),
        items: n,
    });

    // Relationship creation: raw appends into a record vector, Prometheus
    // creates first-class instances with semantics + endpoint indexes.
    let pairs_raw: Vec<_> = raw_ids.iter().map(|&o| (raw.assemblies[0], o)).collect();
    let pairs_prom: Vec<_> = prom_ids.iter().map(|&o| (prom.assemblies[0], o)).collect();
    let (_, d_raw) = time_once(|| ops::raw_link(&raw, &pairs_raw).unwrap());
    let (_, d_prom) = time_once(|| ops::prom_link(&prom, &pairs_prom).unwrap());
    rows.push(CompareRow {
        operation: "create relationship".into(),
        raw_us: micros(d_raw),
        prom_us: micros(d_prom),
        items: n,
    });

    print!("{}", render_table("raw performance (§7.2.1.2.1)", &rows));
    let _ = write_table_csv(&out.join("raw_performance.csv"), &rows);
    raw.cleanup();
    prom.cleanup();
}

/// §7.2.1.2.2 — query table.
fn queries(out: &std::path::Path) {
    let raw = RawDb::build("h-q-raw", medium()).unwrap();
    let prom = PromDb::build("h-q-prom", medium()).unwrap();
    let mut rows = Vec::new();

    let d_raw = time_median(5, || ops::raw_q1(&raw, "part-17").unwrap());
    let d_prom = time_median(5, || ops::prom_q1(&prom, "part-17").unwrap());
    rows.push(CompareRow {
        operation: "Q1 exact match (indexed)".into(),
        raw_us: micros(d_raw),
        prom_us: micros(d_prom),
        items: 1,
    });

    let d_raw = time_median(5, || ops::raw_q2(&raw, 1000, 1050).unwrap());
    let d_prom = time_median(5, || ops::prom_q2(&prom, 1000, 1050).unwrap());
    rows.push(CompareRow {
        operation: "Q2 range (indexed)".into(),
        raw_us: micros(d_raw),
        prom_us: micros(d_prom),
        items: 1,
    });

    let d_prom = time_median(3, || ops::prom_q4(&prom).unwrap());
    rows.push(CompareRow {
        operation: "Q4 closure (POOL ->*)".into(),
        raw_us: micros(time_median(3, || ops::raw_t1(&raw).unwrap())),
        prom_us: micros(d_prom),
        items: medium().node_count(),
    });

    let d_raw = time_median(5, || ops::raw_q3(&raw, raw.assemblies[0]).unwrap());
    let d_prom = time_median(5, || ops::prom_q3(&prom, prom.assemblies[0]).unwrap());
    rows.push(CompareRow {
        operation: "Q3 one-hop path".into(),
        raw_us: micros(d_raw),
        prom_us: micros(d_prom),
        items: 1,
    });

    let d_prom = time_median(3, || ops::prom_q5(&prom).unwrap());
    rows.push(CompareRow {
        operation: "Q5 context-scoped closure".into(),
        raw_us: micros(time_median(3, || ops::raw_t1(&raw).unwrap())),
        prom_us: micros(d_prom),
        items: medium().node_count(),
    });

    let d_raw = time_median(5, || ops::raw_q6(&raw, raw.parts[7]).unwrap());
    let d_prom = time_median(5, || ops::prom_q6(&prom, prom.parts[7]).unwrap());
    rows.push(CompareRow {
        operation: "Q6 reverse traversal".into(),
        raw_us: micros(d_raw),
        prom_us: micros(d_prom),
        items: 1,
    });

    let d_raw = time_median(3, || ops::raw_q7(&raw).unwrap());
    let d_prom = time_median(3, || ops::prom_q7(&prom).unwrap());
    rows.push(CompareRow {
        operation: "Q7 selective downcast".into(),
        raw_us: micros(d_raw),
        prom_us: micros(d_prom),
        items: medium().node_count(),
    });

    let (_, d_prom) = time_once(|| ops::prom_q8(&prom, prom.assemblies[0]).unwrap());
    rows.push(CompareRow {
        operation: "Q8 graph extraction".into(),
        raw_us: f64::NAN, // no raw equivalent: classifications do not exist there
        prom_us: micros(d_prom),
        items: medium().parts_per_leaf,
    });

    print!("{}", render_table("queries (§7.2.1.2.2)", &rows));
    let _ = write_table_csv(&out.join("queries.csv"), &rows);
    raw.cleanup();
    prom.cleanup();
}

/// T1–T3 traversal table.
fn traversals(out: &std::path::Path) {
    let raw = RawDb::build("h-t-raw", medium()).unwrap();
    let prom = PromDb::build("h-t-prom", medium()).unwrap();
    let nodes = medium().node_count();
    let rows = vec![
        CompareRow {
            operation: "T1 full read traversal".into(),
            raw_us: micros(time_median(3, || ops::raw_t1(&raw).unwrap())),
            prom_us: micros(time_median(3, || ops::prom_t1(&prom).unwrap())),
            items: nodes,
        },
        CompareRow {
            operation: "T2 full update traversal".into(),
            raw_us: micros(time_median(2, || ops::raw_t2(&raw).unwrap())),
            prom_us: micros(time_median(2, || ops::prom_t2(&prom).unwrap())),
            items: nodes,
        },
        CompareRow {
            operation: "T3 sparse traversal".into(),
            raw_us: micros(time_median(5, || ops::raw_t3(&raw).unwrap())),
            prom_us: micros(time_median(5, || ops::prom_t3(&prom).unwrap())),
            items: medium().levels + 1,
        },
    ];
    print!("{}", render_table("traversals", &rows));
    let _ = write_table_csv(&out.join("traversals.csv"), &rows);
    raw.cleanup();
    prom.cleanup();
}

/// Figure 44: T5 cost vs database size — the per-node cost should stay
/// roughly constant ("Constant increase in cost (T5)").
fn sweep_t5(out: &std::path::Path) {
    let mut points = Vec::new();
    for target in sweep_sizes(&[500, 2_000, 8_000, 16_000, 32_000]) {
        let params = BenchParams::with_target_nodes(target);
        let prom = PromDb::build(&format!("h-t5-{target}"), params).unwrap();
        let _ = ops::prom_t1(&prom).unwrap(); // one untimed warm-up run
        let d = time_median(3, || ops::prom_t1(&prom).unwrap());
        let nodes = params.node_count();
        points.push(SweepPoint {
            nodes,
            total_us: micros(d),
            per_item_us: micros(d) / nodes as f64,
        });
        prom.cleanup();
    }
    print!(
        "{}",
        render_sweep("Figure 44 — T5 traversal cost vs size", &points)
    );
    println!(
        "growth ratio (last/first per-node cost): {:.2}  [paper: ~constant]",
        growth_ratio(&points)
    );
    let _ = write_sweep_csv(&out.join("figure44_t5.csv"), &points);
}

/// Figures 45 (S1, structural insert) and 46 (S2, structural delete) vs
/// database size: 64 parts inserted under one assembly, or deleted from it,
/// then the classification revalidated both ways. The thesis' protocol —
/// the modification plus a revalidation of the whole classification — is
/// the non-constant curve. Beside it, the lookup: `check_integrity`
/// answering from the set of classifications a full check found sound,
/// which the modification keeps sound because each of its links refuses a
/// cycle — a check timed inside the modification.
fn sweep_structural(out: &std::path::Path, delete: bool) {
    let (figure, name, what) = if delete {
        (46, "s2", "delete")
    } else {
        (45, "s1", "insert")
    };
    let mut points = Vec::new();
    let k = 64usize;
    for target in sweep_sizes(&[500, 2_000, 8_000, 16_000, 32_000]) {
        let params = BenchParams::with_target_nodes(target);
        let prom = PromDb::build(&format!("h-{name}-{target}"), params).unwrap();
        let parent = *prom.assemblies.first().unwrap();
        // Warm up with a small insert/delete pair outside the measurement,
        // then revalidate: the full check puts the classification in the
        // set the lookup answers from.
        let warm = ops::prom_s1(&prom, parent, 4).unwrap();
        ops::prom_s2(&prom, &warm).unwrap();
        let sound = |problems: Vec<String>| assert!(problems.is_empty(), "{problems:?}");
        sound(prom.cls.check_integrity(&prom.db).unwrap());
        let (_, d_mod) = if delete {
            let fresh = ops::prom_s1(&prom, parent, k).unwrap();
            sound(prom.cls.check_integrity(&prom.db).unwrap());
            time_once(|| ops::prom_s2(&prom, &fresh).unwrap())
        } else {
            time_once(|| drop(ops::prom_s1(&prom, parent, k).unwrap()))
        };
        let (found, d_lookup) = time_once(|| prom.cls.check_integrity(&prom.db).unwrap());
        sound(found);
        let (found, d_full) = time_once(|| prom.cls.check_integrity_full(&prom.db).unwrap());
        sound(found);
        let point = RevalidationPoint {
            nodes: params.node_count(),
            parts: k,
            modify_us: micros(d_mod),
            full_us: micros(d_full),
            lookup_us: micros(d_lookup),
        };
        println!(
            "  nodes {:>6}: modification {:>10.1} µs + revalidation {:>10.1} µs full / {:>8.1} µs lookup",
            point.nodes, point.modify_us, point.full_us, point.lookup_us
        );
        points.push(point);
        prom.cleanup();
    }
    let title = format!(
        "Figure {figure} — {} structural {what} cost vs size",
        name.to_uppercase()
    );
    print!("{}", render_revalidation(&title, &points));
    let full: Vec<SweepPoint> = points.iter().map(RevalidationPoint::full).collect();
    let lookup: Vec<SweepPoint> = points.iter().map(RevalidationPoint::lookup).collect();
    println!(
        "growth ratio (last/first per-part cost): full {:.2}  [paper: non-constant], lookup {:.2}",
        growth_ratio(&full),
        growth_ratio(&lookup)
    );
    let _ = write_revalidation_csv(&out.join(format!("figure{figure}_{name}.csv")), &points);
}

/// Ablations of the design choices DESIGN.md calls out: what each feature
/// costs (or saves) with everything else held constant.
fn ablation(out: &std::path::Path) {
    use prometheus_rules::{Rule, RuleEngine};
    let prom = PromDb::build("h-abl", medium()).unwrap();
    let mut rows = Vec::new();

    // 1. Attribute index on vs off: the same exact-match over `label`
    //    (indexed) and `note` (identical values, unindexed).
    let d_indexed = time_median(5, || {
        prometheus_pool::query(&prom.db, "select p from Part p where p.label = \"part-17\"")
            .unwrap()
            .len()
    });
    let d_scan = time_median(5, || {
        prometheus_pool::query(&prom.db, "select p from Part p where p.note = \"part-17\"")
            .unwrap()
            .len()
    });
    rows.push(CompareRow {
        operation: "exact match: scan vs index".into(),
        raw_us: micros(d_scan),
        prom_us: micros(d_indexed),
        items: 1,
    });

    // 2. Rule engine off vs on (one immediate rule over Part creations).
    let (_, d_no_rules) = time_once(|| ops::prom_create(&prom, 500).unwrap());
    let engine = RuleEngine::install(&prom.db).unwrap();
    let rule = Rule::invariant("abl", "Part", "self.label != null", "label required");
    engine.add_rule(&prom.db, rule.immediate()).unwrap();
    let (_, d_rules) = time_once(|| ops::prom_create(&prom, 500).unwrap());
    rows.push(CompareRow {
        operation: "create: no rules vs 1 rule".into(),
        raw_us: micros(d_no_rules),
        prom_us: micros(d_rules),
        items: 500,
    });

    // 3. Traversal with vs without classification scoping (querying in
    //    context: each node's member children are one membership scan).
    let d_unscoped = time_median(3, || {
        let spec = prometheus_object::TraversalSpec::closure(Vec::new());
        prometheus_object::traversal::traverse(&prom.db, prom.root, &spec)
            .unwrap()
            .len()
    });
    let d_scoped = time_median(3, || ops::prom_t1(&prom).unwrap());
    rows.push(CompareRow {
        operation: "closure: unscoped vs context".into(),
        raw_us: micros(d_unscoped),
        prom_us: micros(d_scoped),
        items: medium().node_count(),
    });

    print!("{}", render_table("ablations (design-choice costs)", &rows));
    let _ = write_table_csv(&out.join("ablations.csv"), &rows);
    prom.cleanup();
}

/// `harness replica <primary-addr> <data-path> [--addr ip:port] [--name s]
/// [--shards n]`
///
/// Run a read-only follower of a running primary until the process is
/// killed. `--shards` must match the primary's shard count (default 1). The follower owns `data-path` exclusively; point a second
/// invocation at a different path. Status is printed once a second so an
/// operator can watch the applied cursor and lag without a scrape setup.
fn replica_section(argv: &[String]) {
    use prometheus_replica::{Follower, FollowerConfig};

    let mut positional = Vec::new();
    let mut addr = "127.0.0.1:0".to_string();
    let mut name = format!("replica-{}", std::process::id());
    let mut shards = 1usize;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => {
                    eprintln!("replica: --addr needs a value");
                    std::process::exit(2);
                }
            },
            "--name" => match it.next() {
                Some(v) => name = v.clone(),
                None => {
                    eprintln!("replica: --name needs a value");
                    std::process::exit(2);
                }
            },
            "--shards" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if (1..=64).contains(&n) => shards = n,
                _ => {
                    eprintln!("replica: --shards needs a number in 1..=64");
                    std::process::exit(2);
                }
            },
            other => positional.push(other.to_string()),
        }
    }
    let [primary, path] = positional.as_slice() else {
        eprintln!(
            "usage: harness replica <primary-addr> <data-path> \
             [--addr ip:port] [--name s] [--shards n]"
        );
        std::process::exit(2);
    };

    let mut config = FollowerConfig::new(primary.clone(), PathBuf::from(path));
    config.addr = addr;
    config.name = name.clone();
    config.shards = shards;
    let follower = Follower::start(config).expect("start follower");
    println!(
        "replica '{name}' following {primary}; serving read-only queries on {}",
        follower.addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        let s = follower.status();
        println!(
            "applied {} / {} bytes (epoch {}, lag {} B, resyncs {}, caught-up age {:.1}s)",
            s.applied_offset(),
            s.primary_log_len(),
            s.epoch(),
            s.lag_bytes(),
            s.resyncs(),
            s.caught_up_age_us() as f64 / 1e6,
        );
    }
}

/// `harness serve [--addr ip:port] [--metrics ip:port] [--io-threads n]
/// [--shards n] [--duration secs]`
///
/// Boot a seeded demo server on the event-driven transport with the HTTP
/// scrape endpoint on, print both addresses, and block — or exit cleanly
/// after `--duration` seconds (the CI smoke mode). `--shards n` splits the
/// store into n partitions with one writer lane each; mutations bound for
/// different shards then commit in parallel.
fn serve_section(argv: &[String]) {
    use prometheus_server::{serve, ServerConfig};
    use std::time::Duration;

    let mut addr = "127.0.0.1:0".to_string();
    let mut metrics = "127.0.0.1:0".to_string();
    let mut io_threads = 2usize;
    let mut shards = 1usize;
    let mut duration: Option<u64> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("serve: {flag} needs a value");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--metrics" => metrics = value("--metrics"),
            "--io-threads" => match value("--io-threads").parse() {
                Ok(n) => io_threads = n,
                Err(_) => {
                    eprintln!("serve: --io-threads needs a number");
                    std::process::exit(2);
                }
            },
            "--shards" => match value("--shards").parse::<usize>() {
                Ok(n) if (1..=64).contains(&n) => shards = n,
                _ => {
                    eprintln!("serve: --shards needs a number in 1..=64");
                    std::process::exit(2);
                }
            },
            "--duration" => match value("--duration").parse() {
                Ok(s) => duration = Some(s),
                Err(_) => {
                    eprintln!("serve: --duration needs seconds");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("serve: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    // A sharded store is one log file per shard plus sidecars; keep the
    // whole family in a scratch directory so cleanup is a single rmdir.
    let dir = std::env::temp_dir().join(format!("prometheus-harness-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("store.log");
    let prom = prometheus_db::Prometheus::open_sharded(
        &path,
        prometheus_db::StoreOptions {
            sync_on_commit: false,
        },
        shards,
    )
    .expect("open store");
    let tax = prom.taxonomy().expect("taxonomy layer");
    for name in ["Apium", "Daucus", "Torilis"] {
        tax.create_ct(name, prometheus_taxonomy::Rank::Genus)
            .expect("seed genus");
    }
    let config = ServerConfig::builder()
        .addr(addr)
        .io_threads(io_threads)
        .metrics_http_addr(metrics)
        .build()
        .expect("valid serve config");
    let handle = match serve(prom, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "serving wire protocol on {} ({shards} shard{})",
        handle.addr(),
        if shards == 1 { "" } else { "s" }
    );
    println!(
        "serving GET /metrics on http://{}/metrics",
        handle.metrics_addr().expect("scrape listener")
    );
    match duration {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs(secs));
            handle.stop();
            let _ = std::fs::remove_dir_all(&dir);
            println!("serve: done after {secs}s");
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}

/// `harness trace <trace-id> <addr>`
///
/// Assemble and print the merged cross-shard span tree for one trace id
/// from a running server. The server merges follower spans over the
/// replica connection when one is attached, so the tree shows the whole
/// distributed execution: request framing, lane waits, 2PC prepare/decide
/// rounds, snapshot publishes, and replica replay — all under the one
/// 128-bit id a client stamped (or the server minted) on the wire.
fn trace_section(argv: &[String]) {
    use prometheus_server::{PrometheusClient, TraceId};

    let (id, addr) = match argv {
        [id, addr] => (
            id.parse::<TraceId>().unwrap_or_else(|_| {
                eprintln!("trace: bad trace id {id:?} (expected 1..32 hex digits)");
                std::process::exit(2);
            }),
            addr.parse::<std::net::SocketAddr>().unwrap_or_else(|_| {
                eprintln!("trace: bad address {addr:?}");
                std::process::exit(2);
            }),
        ),
        _ => {
            eprintln!("usage: harness trace <trace-id> <addr>");
            std::process::exit(2);
        }
    };
    let mut client = PrometheusClient::connect(addr).expect("connect to server");
    let spans = client.trace_get(id).expect("fetch trace");
    let _ = client.close();
    if spans.is_empty() {
        println!("no spans recorded for trace {id} (evicted, or tracing disabled)");
        return;
    }
    let events: Vec<_> = spans.iter().map(|s| s.event).collect();
    print!("{}", prometheus_server::render_tree(&events));
    let mut by_origin = std::collections::BTreeMap::<&str, usize>::new();
    for s in &spans {
        *by_origin.entry(s.origin.as_str()).or_default() += 1;
    }
    let origins: Vec<String> = by_origin
        .iter()
        .map(|(o, n)| format!("{n} from {o}"))
        .collect();
    println!("({} span(s): {})", spans.len(), origins.join(", "));
}

/// `harness top <addr> [--interval secs] [--iterations n]`
///
/// Live per-stage rollup view: every interval, fetch the server's stats
/// over the wire and render the flight recorder's stage histograms —
/// count, mean, and a coarse p99 read off the bucket bounds — plus the
/// recorder's own health counters. `--iterations` bounds the run for
/// scripted use; the default streams until killed.
fn top_section(argv: &[String]) {
    use prometheus_server::PrometheusClient;

    let mut addr: Option<std::net::SocketAddr> = None;
    let mut interval = 1u64;
    let mut iterations: Option<u64> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => match it.next().map(|v| v.parse()) {
                Some(Ok(s)) => interval = s,
                _ => {
                    eprintln!("top: --interval needs seconds");
                    std::process::exit(2);
                }
            },
            "--iterations" => match it.next().map(|v| v.parse()) {
                Some(Ok(n)) => iterations = Some(n),
                _ => {
                    eprintln!("top: --iterations needs a number");
                    std::process::exit(2);
                }
            },
            other => match other.parse() {
                Ok(a) => addr = Some(a),
                Err(_) => {
                    eprintln!("top: expected an addr, --interval, or --iterations; got {other}");
                    std::process::exit(2);
                }
            },
        }
    }
    let Some(addr) = addr else {
        eprintln!("usage: harness top <addr> [--interval secs] [--iterations n]");
        std::process::exit(2);
    };

    let mut client = PrometheusClient::connect(addr).expect("connect to server");
    let mut round = 0u64;
    loop {
        let (server, _) = client.stats().expect("fetch stats");
        println!(
            "-- up {}s · {} requests · recorder: {} written, {} dropped --",
            server.uptime_s,
            server.requests_total(),
            server.trace_events_written,
            server.trace_dropped,
        );
        println!(
            "{:<16} {:>10} {:>12} {:>12}",
            "stage", "count", "mean µs", "~p99 µs"
        );
        for r in server.trace_rollups.iter().filter(|r| r.count > 0) {
            // Coarse p99: the upper bound of the bucket holding the 99th
            // percentile observation; past the last bound, ">bound".
            let p99 = match r.approx_percentile_us(0.99) {
                Some(bound) => bound.to_string(),
                None => format!(">{}", r.bounds_us.last().copied().unwrap_or(0)),
            };
            println!(
                "{:<16} {:>10} {:>12} {:>12}",
                r.stage,
                r.count,
                r.mean_us(),
                p99
            );
        }
        round += 1;
        if iterations.is_some_and(|n| round >= n) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs(interval));
    }
    let _ = client.close();
}

/// `harness stats [--format=prometheus] [addr]`
///
/// With an address, scrape a running server's counters over the wire.
/// Without one, boot an ephemeral seeded server, run a handful of
/// representative requests, and report what they produced — a smoke path
/// for the exposition format that needs no prior deployment.
fn stats_section(argv: &[String]) {
    use prometheus_server::{serve, PrometheusClient, ServerConfig};

    let mut prometheus_format = false;
    let mut addr: Option<std::net::SocketAddr> = None;
    for arg in argv {
        match arg.as_str() {
            "--format=prometheus" => prometheus_format = true,
            "--format=text" => prometheus_format = false,
            other => match other.parse() {
                Ok(a) => addr = Some(a),
                Err(_) => {
                    eprintln!("stats: expected --format=prometheus|text or an addr, got {other}");
                    std::process::exit(2);
                }
            },
        }
    }

    let (server, storage, handle) = match addr {
        Some(addr) => {
            let mut client = PrometheusClient::connect(addr).expect("connect to server");
            let stats = client.stats().expect("fetch stats");
            let _ = client.close();
            (stats.0, stats.1, None)
        }
        None => {
            let path = std::env::temp_dir().join(format!(
                "prometheus-harness-stats-{}.log",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let prom = prometheus_db::Prometheus::open_with(
                &path,
                prometheus_db::StoreOptions {
                    sync_on_commit: false,
                },
            )
            .expect("open store");
            let tax = prom.taxonomy().expect("taxonomy layer");
            for name in ["Apium", "Daucus", "Torilis"] {
                tax.create_ct(name, prometheus_taxonomy::Rank::Genus)
                    .expect("seed genus");
            }
            let handle = serve(
                prom,
                ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    ..ServerConfig::default()
                },
            )
            .expect("serve");
            let mut client = PrometheusClient::connect(handle.addr()).expect("connect");
            client.ping().expect("ping");
            for _ in 0..3 {
                client
                    .query("select t.working_name from CT t order by t.working_name")
                    .expect("query");
            }
            let stats = client.stats().expect("fetch stats");
            let _ = client.close();
            (stats.0, stats.1, Some((handle, path)))
        }
    };

    if prometheus_format {
        print!(
            "{}",
            prometheus_server::render_prometheus_exposition(&server, &storage)
        );
    } else {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        println!(
            "{}",
            prometheus_bench::report::render_machine_summary(cores, server.shards.max(1) as usize)
        );
        println!("server: {server:#?}");
        println!("storage: {storage:#?}");
    }

    if let Some((handle, path)) = handle {
        handle.stop();
        let _ = std::fs::remove_file(&path);
    }
}
