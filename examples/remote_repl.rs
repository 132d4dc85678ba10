//! The POOL shell, served over the wire: boots a prometheus-server on an
//! ephemeral port over the Figure 3 + Figure 4 datasets, then talks to it
//! exclusively through [`prometheus_server::PrometheusClient`] — the same
//! path a remote taxonomist's workstation would use.
//!
//! The one capability this adds over `pool_repl` is *session classification
//! context*: `\context <name>` scopes every following query to one
//! classification server-side (§4.6.2 "working inside a classification"),
//! without editing the query text. Contexts are per-session, so several
//! connected taxonomists can work in different classifications at once.
//!
//! ```text
//! cargo run -p prometheus-server --example remote_repl
//! pool> select t from CT t
//! pool> \context taxonomist-1
//! pool> select t from CT t          // now only taxonomist-1's taxa
//! pool> \context                    // clear
//! pool> \stats                      // server + storage counters, over the wire
//! pool> \profile select t from CT t // span tree for one execution
//! pool> \trace 20                   // newest span events from the trace ring
//! pool> \slowlog 10                 // slow-query log with plan fingerprints
//! pool> \quit
//! ```

use prometheus_db::{Prometheus, StoreOptions};
use prometheus_server::{serve, PrometheusClient, ServerConfig, ServerError};
use prometheus_taxonomy::dataset::{figure3, figure4};
use std::io::{BufRead, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join("prometheus-remote-repl.db");
    let _ = std::fs::remove_file(&path);
    let p = Prometheus::open_with(
        &path,
        StoreOptions {
            sync_on_commit: false,
        },
    )?;
    let tax = p.taxonomy()?;
    figure3(&tax)?;
    figure4(&tax)?;

    let handle = serve(p, ServerConfig::default())?;
    let mut client = PrometheusClient::connect(handle.addr())?;
    println!(
        "Prometheus wire shell — session {} on {} (Figure 3 + Figure 4 data).",
        client.session(),
        handle.addr()
    );
    println!("Classifications: Raguenaud 2000, taxonomist-1..4. Classes: NT, CT, Specimen.");
    println!(
        "Commands: \\context [name], \\stats, \\profile <query>, \\trace [n | hex-id], \
         \\slowlog [n], \\quit. Also: explain <query>, profile <query>."
    );

    let stdin = std::io::stdin();
    loop {
        print!("pool> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        if line == "\\context" {
            client.set_context(None)?;
            println!("context cleared");
            continue;
        }
        if let Some(name) = line.strip_prefix("\\context ") {
            match client.set_context(Some(name.trim())) {
                Ok(()) => println!("context: {}", name.trim()),
                Err(ServerError::Remote { message, .. }) => println!("error: {message}"),
                Err(e) => return Err(e.into()),
            }
            continue;
        }
        if let Some(q) = line.strip_prefix("\\profile ") {
            match client.query(&format!("profile {}", q.trim())) {
                Ok(rows) => print_rows(&rows),
                Err(ServerError::Remote { message, .. }) => println!("error: {message}"),
                Err(e) => return Err(e.into()),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\trace") {
            let arg = rest.trim();
            // A small decimal argument dumps the newest ring events (the
            // historic behaviour); anything that parses as a hex trace id
            // assembles that one trace's cross-shard span tree instead.
            if let Ok(n) = arg.parse::<u32>() {
                let events = client.trace(n.max(1))?;
                if events.is_empty() {
                    println!("trace ring is empty (tracing may be disabled)");
                } else {
                    print!("{}", prometheus_trace::render_tree(&events));
                    println!("({} span(s))", events.len());
                }
            } else if arg.is_empty() {
                let events = client.trace(20)?;
                if events.is_empty() {
                    println!("trace ring is empty (tracing may be disabled)");
                } else {
                    print!("{}", prometheus_trace::render_tree(&events));
                    println!("({} span(s))", events.len());
                }
            } else {
                match arg.parse::<prometheus_server::TraceId>() {
                    Ok(id) => match client.trace_get(id) {
                        Ok(spans) if spans.is_empty() => {
                            println!("no spans recorded for trace {id}")
                        }
                        Ok(spans) => {
                            let events: Vec<_> = spans.iter().map(|s| s.event).collect();
                            print!("{}", prometheus_trace::render_tree(&events));
                            println!("({} span(s) for trace {id})", spans.len());
                        }
                        Err(ServerError::Remote { message, .. }) => println!("error: {message}"),
                        Err(e) => return Err(e.into()),
                    },
                    Err(_) => println!("usage: \\trace [n | hex-trace-id]"),
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\slowlog") {
            let n: u32 = rest.trim().parse().unwrap_or(10);
            let entries = client.slow_log(n)?;
            if entries.is_empty() {
                println!("slow log is empty (raise traffic or lower the threshold)");
            }
            for e in &entries {
                println!(
                    "{:>8} µs  {} row(s)  fp {:016x}  trace {}  lanes {:#06b}  \
                     lane-wait {} µs  session {}{}  {}",
                    e.dur_us,
                    e.rows,
                    e.fingerprint,
                    e.trace_id,
                    e.lane_mask,
                    e.lane_wait_us,
                    e.session,
                    e.context
                        .as_deref()
                        .map(|c| format!("  [{c}]"))
                        .unwrap_or_default(),
                    e.query,
                );
            }
            continue;
        }
        if line == "\\stats" {
            let (server, storage) = client.stats()?;
            println!(
                "server: {} requests over {} connections, {} units committed, \
                 mean latency {:.1} µs",
                server.requests_total(),
                server.connections_accepted,
                server.units_committed,
                server.latency.mean_us(),
            );
            println!(
                "executor: {} queries planned, {} parallel morsels",
                server.plan_cache_misses, server.parallel_morsels,
            );
            println!(
                "storage: {} commits, {} puts, {} bytes written, {} entities decoded",
                storage.commits, storage.puts, storage.bytes_written, storage.cache_misses,
            );
            continue;
        }
        match client.query(line) {
            Ok(rows) => print_rows(&rows),
            Err(ServerError::Remote { message, .. }) => println!("error: {message}"),
            Err(e) => return Err(e.into()),
        }
    }
    client.close()?;
    handle.stop();
    Ok(())
}

fn print_rows(rows: &prometheus_server::WireRows) {
    println!("{}", rows.columns.join(" | "));
    for row in &rows.rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }
    println!("({} row(s))", rows.len());
}
