//! Prometheus text-exposition rendering of the server + storage counters.
//!
//! One function, one format: [`render_prometheus_exposition`] turns a
//! [`MetricsSnapshot`] and a [`StatsSnapshot`] into the text format the
//! *monitoring system* Prometheus scrapes (a happy naming coincidence with
//! the database). It backs both consumers:
//!
//! * the HTTP `GET /metrics` scrape endpoint
//!   ([`crate::ServerConfig::metrics_http_addr`]), rendered inside the
//!   event loop from the live counters;
//! * `harness stats --format=prometheus`, rendered client-side from a wire
//!   `Request::Stats` snapshot.
//!
//! Both paths go through this function, so a scrape and a wire stats call
//! can never disagree about a counter's name or meaning. Scalars are a loop
//! over the two snapshots' `series()` — their names and help text live in
//! the `counter_table!` rows, not here; what this file knows is the
//! labelled families and the histograms.

use crate::metrics::{FollowerLag, MetricsSnapshot, ShardMetrics};
use prometheus_storage::StatsSnapshot;
use std::fmt::Write as _;

/// A sample's labels. Values may come off the socket (a follower's name).
type Labels<'a> = &'a [(&'a str, &'a str)];

/// Write `{k="v",…}` (nothing when there are no labels), escaping
/// backslash, quote and newline in values as the text format requires —
/// the one place a label reaches the output, so no value can close its
/// quotes and forge a sample line.
fn write_labels(out: &mut String, labels: Labels) {
    for (i, (key, value)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        let _ = write!(out, "{key}=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if !labels.is_empty() {
        out.push('}');
    }
}

fn write_sample(out: &mut String, name: &str, suffix: &str, labels: Labels, value: u64) {
    let _ = write!(out, "{name}{suffix}");
    write_labels(out, labels);
    let _ = writeln!(out, " {value}");
}

fn write_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// One family: HELP and TYPE once, then a sample per row. A family with no
/// rows is not declared at all.
fn write_family<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    rows: impl IntoIterator<Item = (Vec<(&'a str, &'a str)>, u64)>,
) {
    for (i, (labels, value)) in rows.into_iter().enumerate() {
        if i == 0 {
            write_header(out, name, help, kind);
        }
        write_sample(out, name, "", &labels, value);
    }
}

/// One histogram of a family: the labels that tell it from its siblings
/// (none for a family of one), then bounds, per-bucket counts with a
/// trailing overflow bucket, sum and count.
type HistogramRow<'a> = (Option<(&'a str, &'a str)>, &'a [u64], &'a [u64], u64, u64);

/// One histogram family: the standard cumulative `_bucket{le=…}` / `_sum` /
/// `_count` triple per row.
fn write_histograms<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    rows: impl IntoIterator<Item = HistogramRow<'a>>,
) {
    for (i, (label, bounds, counts, sum, count)) in rows.into_iter().enumerate() {
        if i == 0 {
            write_header(out, name, help, "histogram");
        }
        let labels = label.as_slice();
        let mut cumulative = 0u64;
        for (bucket, n) in counts.iter().enumerate() {
            cumulative += n;
            let le = bounds
                .get(bucket)
                .map_or("+Inf".to_string(), |bound| bound.to_string());
            let with_le = [labels, &[("le", le.as_str())]].concat();
            write_sample(out, name, "_bucket", &with_le, cumulative);
        }
        write_sample(out, name, "_sum", labels, sum);
        write_sample(out, name, "_count", labels, count);
    }
}

/// Render server + storage counters in the Prometheus text exposition
/// format, one metric per line, ready for a scrape endpoint or a
/// file-based collector. Counter names follow the convention
/// `prometheus_{server,storage,trace}_<what>[_total]`.
pub fn render_prometheus_exposition(server: &MetricsSnapshot, storage: &StatsSnapshot) -> String {
    let mut out = String::new();
    for series in server.series().chain(storage.series()) {
        let Some(kind) = series.kind.scraped_as() else {
            continue;
        };
        write_family(
            &mut out,
            series.name,
            series.help,
            kind,
            [(Vec::new(), series.value)],
        );
    }

    // Per-shard breakdowns, labelled shard="k". The aggregates above keep
    // their unlabelled names, so single-shard dashboards are untouched and
    // sharded ones can sum or drill down.
    type ShardFamily = (
        &'static str,
        &'static str,
        &'static str,
        fn(&ShardMetrics) -> u64,
    );
    let per_shard: [ShardFamily; 4] = [
        (
            "prometheus_server_shard_lane_depth",
            "Writers holding or queued for this shard's lane.",
            "gauge",
            |s| s.lane_depth,
        ),
        (
            "prometheus_storage_shard_snapshot_swaps_total",
            "Immutable snapshot publications on this shard.",
            "counter",
            |s| s.snapshot_swaps,
        ),
        (
            "prometheus_storage_shard_image_bytes_copied_total",
            "Bytes copied cloning image nodes on this shard.",
            "counter",
            |s| s.image_bytes_copied,
        ),
        (
            "prometheus_storage_shard_units_2pc_total",
            "Two-phase units this shard participated in.",
            "counter",
            |s| s.units_2pc,
        ),
    ];
    let shard_ids: Vec<String> = (0..server.per_shard.len()).map(|k| k.to_string()).collect();
    for (name, help, kind, value) in per_shard {
        let rows = server.per_shard.iter().zip(&shard_ids);
        write_family(
            &mut out,
            name,
            help,
            kind,
            rows.map(|(s, k)| (vec![("shard", k.as_str())], value(s))),
        );
    }

    write_family(
        &mut out,
        "prometheus_server_requests_total",
        "Requests processed, by kind.",
        "counter",
        server
            .requests_by_kind
            .iter()
            .map(|(kind, n)| (vec![("kind", kind.as_str())], *n)),
    );

    let hist = &server.latency;
    write_histograms(
        &mut out,
        "prometheus_server_request_latency_us",
        "Per-request wall-clock latency (µs).",
        [(
            None,
            &hist.bounds_us[..],
            &hist.counts[..],
            hist.sum_us,
            hist.count,
        )],
    );
    write_histograms(
        &mut out,
        "prometheus_server_request_class_latency_us",
        "Request latency (µs) by request class.",
        server.latency_by_class.iter().map(|(class, h)| {
            let label = Some(("class", class.as_str()));
            (label, &h.bounds_us[..], &h.counts[..], h.sum_us, h.count)
        }),
    );
    // Only stages that have observed a span are emitted, keeping quiet
    // servers terse.
    write_histograms(
        &mut out,
        "prometheus_trace_stage_duration_us",
        "Span duration (µs) by pipeline stage.",
        server
            .trace_rollups
            .iter()
            .filter(|r| r.count > 0)
            .map(|r| {
                let label = Some(("stage", r.stage.as_str()));
                (label, &r.bounds_us[..], &r.counts[..], r.sum_us, r.count)
            }),
    );

    // `build_info` follows the Prometheus convention of a constant `1`
    // gauge whose labels carry the versions.
    let build: Vec<(&str, &str)> = server
        .build_info
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    write_family(
        &mut out,
        "prometheus_server_build_info",
        "Constant 1; labels carry crate and protocol versions.",
        "gauge",
        (!build.is_empty()).then_some((build, 1)),
    );

    type FollowerFamily = (&'static str, &'static str, fn(&FollowerLag) -> u64);
    let per_follower: [FollowerFamily; 3] = [
        (
            "prometheus_server_replication_follower_lag_bytes",
            "Committed redo-log bytes a follower has not pulled yet.",
            |f| f.lag_bytes,
        ),
        (
            "prometheus_server_replication_follower_next_offset",
            "The log offset a follower will poll next.",
            |f| f.next_offset,
        ),
        (
            "prometheus_server_replication_follower_last_poll_age_us",
            "Micros since a follower last polled; large means it is gone.",
            |f| f.last_poll_age_us,
        ),
    ];
    let follower_shards: Vec<String> = server
        .replication
        .iter()
        .map(|f| f.shard.to_string())
        .collect();
    for (name, help, value) in per_follower {
        let rows = server.replication.iter().zip(&follower_shards);
        write_family(
            &mut out,
            name,
            help,
            "gauge",
            rows.map(|(f, shard)| {
                let labels = vec![("follower", f.follower.as_str()), ("shard", shard.as_str())];
                (labels, value(f))
            }),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{LATENCY_BOUNDS_US, LATENCY_BUCKETS};
    use std::collections::HashMap;

    #[test]
    fn exposition_renders_counters_and_histogram() {
        let mut server = MetricsSnapshot {
            connections_accepted: 3,
            connections_active: 1,
            accept_queue_depth: 2,
            sessions_reaped: 4,
            requests_by_kind: vec![("query".into(), 12), ("ping".into(), 2)],
            plan_cache_hits: 9,
            ..MetricsSnapshot::default()
        };
        server.latency.bounds_us = LATENCY_BOUNDS_US.to_vec();
        server.latency.counts = vec![0; LATENCY_BUCKETS];
        server.latency.counts[0] = 5;
        server.latency.counts[LATENCY_BUCKETS - 1] = 1;
        server.latency.count = 6;
        server.latency.sum_us = 2_000_100;
        let mut query_hist = server.latency.clone();
        query_hist.counts[LATENCY_BUCKETS - 1] = 0;
        query_hist.count = 5;
        server.latency_by_class = vec![("query".into(), query_hist)];
        server.replication = vec![FollowerLag {
            follower: "replica-a".into(),
            shard: 0,
            next_offset: 100,
            log_len: 400,
            lag_bytes: 300,
            last_poll_age_us: 1_500,
        }];
        server.shards = 2;
        server.per_shard = vec![
            ShardMetrics {
                lane_depth: 1,
                snapshot_swaps: 7,
                image_bytes_copied: 64,
                units_2pc: 2,
            },
            ShardMetrics {
                lane_depth: 0,
                snapshot_swaps: 3,
                image_bytes_copied: 32,
                units_2pc: 2,
            },
        ];
        let storage = StatsSnapshot {
            commits: 4,
            units_2pc: 4,
            ..StatsSnapshot::default()
        };
        let text = render_prometheus_exposition(&server, &storage);
        assert!(text.contains("prometheus_server_connections_accepted_total 3"));
        assert!(text.contains("prometheus_server_connections_active 1"));
        assert!(text.contains("prometheus_server_accept_queue_depth 2"));
        assert!(text.contains("prometheus_server_sessions_reaped_total 4"));
        assert!(text.contains("prometheus_server_requests_total{kind=\"query\"} 12"));
        assert!(text.contains("prometheus_server_plan_cache_hits_total 9"));
        assert!(text.contains("prometheus_storage_commits_total 4"));
        // Histogram buckets are cumulative and end at +Inf = count.
        assert!(text.contains("prometheus_server_request_latency_us_bucket{le=\"50\"} 5"));
        assert!(text.contains("prometheus_server_request_latency_us_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("prometheus_server_request_latency_us_count 6"));
        // Per-class histograms and per-follower replication-lag gauges.
        assert!(text.contains(
            "prometheus_server_request_class_latency_us_bucket{class=\"query\",le=\"50\"} 5"
        ));
        assert!(
            text.contains("prometheus_server_request_class_latency_us_count{class=\"query\"} 5")
        );
        assert!(text.contains(
            "prometheus_server_replication_follower_lag_bytes{follower=\"replica-a\",shard=\"0\"} 300"
        ));
        assert!(text.contains(
            "prometheus_server_replication_follower_next_offset{follower=\"replica-a\",shard=\"0\"} 100"
        ));
        // Shard-labelled breakdowns alongside unlabelled aggregates.
        assert!(text.contains("prometheus_server_shards 2"));
        assert!(text.contains("prometheus_storage_units_2pc_total 4"));
        assert!(text.contains("prometheus_server_shard_lane_depth{shard=\"0\"} 1"));
        assert!(text.contains("prometheus_storage_shard_snapshot_swaps_total{shard=\"1\"} 3"));
        assert!(text.contains("prometheus_storage_shard_units_2pc_total{shard=\"0\"} 2"));
        assert!(text.contains("prometheus_storage_shard_image_bytes_copied_total{shard=\"1\"} 32"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "malformed line: {line}");
        }
    }

    /// A deterministic snapshot pair that exercises every family the
    /// renderer knows: plain counters, gauges, shard/follower labels,
    /// histograms, build_info, and the trace rollups.
    fn full_snapshots() -> (MetricsSnapshot, StatsSnapshot) {
        let mut server = MetricsSnapshot {
            connections_accepted: 7,
            connections_active: 2,
            accept_queue_depth: 1,
            sessions_reaped: 3,
            protocol_errors: 1,
            db_errors: 2,
            units_committed: 11,
            units_aborted: 1,
            units_rolled_back_on_disconnect: 1,
            units_timed_out: 1,
            plan_cache_hits: 20,
            plan_cache_misses: 4,
            parallel_morsels: 16,
            requests_by_kind: vec![("ping".into(), 2), ("query".into(), 24)],
            shards: 2,
            start_unix_s: 1_700_000_000,
            uptime_s: 3_600,
            // Fixture labels, pinned by the golden file — not the live
            // crate or protocol version.
            build_info: vec![
                ("version".into(), "0.1.0".into()),
                ("protocol".into(), "8".into()),
            ],
            trace_events_written: 900,
            trace_dropped: 5,
            trace_index_evictions: 2,
            trace_index_overflows: 1,
            ..MetricsSnapshot::default()
        };
        server.latency.bounds_us = LATENCY_BOUNDS_US.to_vec();
        server.latency.counts = vec![0; LATENCY_BUCKETS];
        server.latency.counts[0] = 9;
        server.latency.count = 9;
        server.latency.sum_us = 450;
        server.per_shard = vec![
            ShardMetrics {
                lane_depth: 1,
                snapshot_swaps: 6,
                image_bytes_copied: 640,
                units_2pc: 3,
            },
            ShardMetrics {
                lane_depth: 0,
                snapshot_swaps: 5,
                image_bytes_copied: 320,
                units_2pc: 3,
            },
        ];
        server.replication = vec![FollowerLag {
            follower: "replica-a".into(),
            shard: 1,
            next_offset: 2_048,
            log_len: 4_096,
            lag_bytes: 2_048,
            last_poll_age_us: 500,
        }];
        server.trace_rollups = vec![
            prometheus_trace::StageRollup {
                stage: "lane_wait".into(),
                bounds_us: prometheus_trace::ROLLUP_BOUNDS_US.to_vec(),
                counts: vec![4, 2, 0, 0, 0, 0, 0, 0, 1],
                count: 7,
                sum_us: 1_234,
            },
            prometheus_trace::StageRollup {
                stage: "unit_prepare".into(),
                bounds_us: prometheus_trace::ROLLUP_BOUNDS_US.to_vec(),
                counts: vec![3, 0, 0, 0, 0, 0, 0, 0, 0],
                count: 3,
                sum_us: 90,
            },
            // A silent stage must be omitted from the exposition entirely.
            prometheus_trace::StageRollup {
                stage: "replica_apply".into(),
                bounds_us: prometheus_trace::ROLLUP_BOUNDS_US.to_vec(),
                counts: vec![0; 9],
                count: 0,
                sum_us: 0,
            },
        ];
        let storage = StatsSnapshot {
            log_appends: 40,
            bytes_written: 8_192,
            syncs: 12,
            cache_hits: 300,
            cache_misses: 30,
            commits: 11,
            aborts: 2,
            snapshot_swaps: 11,
            image_nodes_cloned: 88,
            image_bytes_copied: 960,
            units_2pc: 3,
            ..StatsSnapshot::default()
        };
        (server, storage)
    }

    /// Split a sample line into its series (name plus any `{…}` label
    /// block, scanned quote- and escape-aware so a label value may hold
    /// spaces, braces or escaped quotes) and its value.
    fn split_sample(line: &str) -> (&str, &str) {
        let mut in_quotes = false;
        let mut escaped = false;
        for (i, c) in line.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_quotes => escaped = true,
                '"' => in_quotes = !in_quotes,
                ' ' if !in_quotes => return (&line[..i], &line[i + 1..]),
                _ => {}
            }
        }
        panic!("sample without a value: {line}");
    }

    /// Parse an exposition, enforcing the text-format grammar — HELP before
    /// TYPE, TYPE before samples, valid metric kinds, histogram suffix
    /// rules, no sample without a preceding family declaration, no family
    /// declared and never sampled — and return each family's type and its
    /// sampled series.
    fn parse_exposition(text: &str) -> HashMap<String, (String, Vec<String>)> {
        let mut helped: HashMap<String, bool> = HashMap::new(); // name -> typed?
        let mut families: HashMap<String, (String, Vec<String>)> = HashMap::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().expect("HELP has a name");
                assert!(
                    rest.len() > name.len() + 1,
                    "HELP without help text: {line}"
                );
                assert!(
                    helped.insert(name.to_string(), false).is_none(),
                    "duplicate HELP for {name}"
                );
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().expect("TYPE has a name");
                let kind = it.next().expect("TYPE has a kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown metric kind: {line}"
                );
                assert_eq!(
                    helped.get(name),
                    Some(&false),
                    "TYPE without preceding HELP (or duplicate TYPE): {name}"
                );
                helped.insert(name.to_string(), true);
                families.insert(name.to_string(), (kind.to_string(), Vec::new()));
            } else {
                let (series, value) = split_sample(line);
                value.parse::<f64>().expect("sample value is numeric");
                let base = series.split('{').next().unwrap();
                // Histogram samples attach _bucket/_sum/_count to the family.
                let family = ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|suf| base.strip_suffix(suf))
                    .filter(|stripped| {
                        families.get(*stripped).map(|f| f.0.as_str()) == Some("histogram")
                    })
                    .unwrap_or(base);
                let Some((kind, sampled)) = families.get_mut(family) else {
                    panic!("sample without HELP+TYPE declaration: {line}");
                };
                if kind != "histogram" {
                    assert_eq!(base, family, "suffix on non-histogram series: {line}");
                }
                sampled.push(series.to_string());
            }
        }
        for (name, typed) in &helped {
            assert!(typed, "HELP without TYPE: {name}");
            assert!(
                !families[name].1.is_empty(),
                "family {name} declared but has no samples"
            );
        }
        families
    }

    /// Every exposed series has `# HELP` and `# TYPE` lines, verified by
    /// actually parsing the exposition rather than spot checks.
    #[test]
    fn every_series_is_declared_with_help_and_type() {
        let (mut server, storage) = full_snapshots();
        let families = parse_exposition(&render_prometheus_exposition(&server, &storage));
        for required in [
            "prometheus_server_start_time_seconds",
            "prometheus_server_uptime_seconds",
            "prometheus_server_build_info",
            "prometheus_trace_events_written_total",
            "prometheus_trace_events_dropped_total",
            "prometheus_trace_index_evictions_total",
            "prometheus_trace_index_overflows_total",
            "prometheus_trace_stage_duration_us",
        ] {
            assert!(families.contains_key(required), "missing family {required}");
        }

        // A follower's name is a string off the socket, and `build_info`
        // values take the same path: one that tries to close its quotes and
        // append a sample of its own must come out as one escaped label.
        let hostile = "x\"} 1\nforged_total{a=\"\\";
        server.replication[0].follower = hostile.into();
        server.build_info[0].1 = hostile.into();
        let text = render_prometheus_exposition(&server, &storage);
        let families = parse_exposition(&text);
        assert!(!families.contains_key("forged_total"));
        assert!(!text.lines().any(|l| l.starts_with("forged_total")));
        let escaped = r#"x\"} 1\nforged_total{a=\"\\"#;
        assert_eq!(
            families["prometheus_server_replication_follower_lag_bytes"].1,
            [format!(
                "prometheus_server_replication_follower_lag_bytes\
                 {{follower=\"{escaped}\",shard=\"1\"}}"
            )]
        );
        assert_eq!(
            families["prometheus_server_build_info"].1,
            [format!(
                "prometheus_server_build_info{{version=\"{escaped}\",protocol=\"8\"}}"
            )]
        );
        assert_eq!(
            text.lines().count(),
            render_prometheus_exposition(&full_snapshots().0, &storage)
                .lines()
                .count(),
            "a hostile label adds no line"
        );
    }

    /// What the table promises: every `series()` row of both tables is in
    /// the exposition exactly once, under the row's own name, help and
    /// kind, and the whole snapshot pair survives the wire.
    #[test]
    fn every_table_row_is_exposed_once_and_survives_the_wire() {
        use prometheus_storage::codec;
        let (server, storage) = full_snapshots();
        let text = render_prometheus_exposition(&server, &storage);
        let families = parse_exposition(&text);
        for row in server.series().chain(storage.series()) {
            let Some(kind) = row.kind.scraped_as() else {
                assert!(!families.contains_key(row.name), "{} is scraped", row.name);
                continue;
            };
            let (exposed_as, sampled) = &families[row.name];
            assert_eq!(exposed_as, kind, "{}", row.name);
            assert_eq!(sampled, &[row.name.to_string()], "sampled once, unlabelled");
            assert!(text.contains(&format!("# HELP {} {}\n", row.name, row.help)));
            assert!(text.contains(&format!("\n{} {}\n", row.name, row.value)));
        }

        let back: MetricsSnapshot = codec::from_bytes(&codec::to_bytes(&server).unwrap()).unwrap();
        assert_eq!(back, server);
        let back: StatsSnapshot = codec::from_bytes(&codec::to_bytes(&storage).unwrap()).unwrap();
        assert_eq!(back, storage);
    }

    /// Golden-file test. The exposition of a fixed snapshot is
    /// byte-for-byte stable — ordering included — so dashboards and scrape
    /// configs never see series silently renamed or reordered. Regenerate
    /// with `UPDATE_GOLDEN=1 cargo test -p prometheus-server golden`.
    #[test]
    fn exposition_matches_golden_file() {
        let (server, storage) = full_snapshots();
        let text = render_prometheus_exposition(&server, &storage);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("testdata")
            .join("exposition.golden.txt");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &text).unwrap();
            return;
        }
        let golden = std::fs::read_to_string(&path)
            .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
        assert_eq!(
            text, golden,
            "exposition drifted from the golden file; if intentional, \
             regenerate with UPDATE_GOLDEN=1"
        );
    }

    #[test]
    fn stage_rollups_render_cumulative_buckets() {
        let (server, storage) = full_snapshots();
        let text = render_prometheus_exposition(&server, &storage);
        // lane_wait counts [4,2,...,1] → cumulative 4, 6, …, +Inf = 7.
        assert!(text.contains(
            "prometheus_trace_stage_duration_us_bucket{stage=\"lane_wait\",le=\"50\"} 4"
        ));
        assert!(text.contains(
            "prometheus_trace_stage_duration_us_bucket{stage=\"lane_wait\",le=\"100\"} 6"
        ));
        assert!(text.contains(
            "prometheus_trace_stage_duration_us_bucket{stage=\"lane_wait\",le=\"+Inf\"} 7"
        ));
        assert!(text.contains("prometheus_trace_stage_duration_us_count{stage=\"lane_wait\"} 7"));
        assert!(text.contains("prometheus_trace_stage_duration_us_sum{stage=\"lane_wait\"} 1234"));
        // The silent replica_apply rollup is omitted.
        assert!(!text.contains("stage=\"replica_apply\""));
        // Self-metrics and build info.
        assert!(text.contains("prometheus_server_start_time_seconds 1700000000"));
        assert!(text.contains("prometheus_server_uptime_seconds 3600"));
        assert!(text.contains("prometheus_server_build_info{version=\"0.1.0\",protocol=\"8\"} 1"));
    }
}
