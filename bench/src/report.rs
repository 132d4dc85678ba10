//! Metric names and units (the vocabulary later issues refer to), the run
//! configuration, and how one workload's results are printed.

use crate::flora::Shape;
use crate::json::Json;

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of each time-bound measured phase.
    pub seconds: f64,
    pub traced: bool,
    /// Tiny datasets and phases: every code path, asserted correct, fast.
    pub smoke: bool,
}

impl Config {
    /// `flora-S`, which fits the decoded-object cache.
    pub fn small(&self) -> Shape {
        if self.smoke {
            Shape::SMOKE
        } else {
            Shape::SMALL
        }
    }
    /// `flora-L`, which exceeds it.
    pub fn large(&self) -> Shape {
        if self.smoke {
            Shape::SMOKE
        } else {
            Shape::LARGE
        }
    }
    /// Warm-up before timing: long enough for caches to fill and lazy
    /// set-up to finish.
    pub fn warm_seconds(&self) -> f64 {
        if self.smoke {
            0.05
        } else {
            2.0
        }
    }
    /// The fixed work of a phase that is bound by work, not time: what
    /// `--seconds` at the workload's nominal rate comes to.
    pub fn quota(&self, nominal_per_s: f64) -> u64 {
        (nominal_per_s * self.seconds).ceil().max(1.0) as u64
    }
    /// Times a database is reopened; `reopen_s` is the median.
    pub fn reopens(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

pub const WORKLOADS: [&str; 5] = [
    "flora-load",
    "revision-session",
    "point-reads",
    "closure-scans",
    "mixed-rw",
];

/// End-to-end metrics: what a user of the system sees. Measured with all
/// benchmark tracing off; every workload reports every one. `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("reopen_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, reported by a traced run. `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 84] = [
    // What the clients saw, by kind of operation. The p99s live here, not
    // among the end-to-end metrics: repetitions of the same code do not
    // agree on them within a tenth on a two-core sandbox.
    ("client.query_p50_us", "us"),
    ("client.unit_p50_us", "us"),
    ("server.query_p99_us", "us"),
    ("server.unit_p99_us", "us"),
    // The persistent map under everything.
    ("storage.pmap.get_ns", "ns"),
    ("storage.pmap.insert_ns", "ns"),
    ("storage.pmap.cow_insert_ns", "ns"),
    ("storage.pmap.scan_ns_per_key", "ns"),
    ("storage.pmap.nodes_cloned_per_insert", "count"),
    // One store: log, commit, publication.
    ("storage.store.put1_us", "us"),
    ("storage.store.put64_us", "us"),
    ("storage.store.get_ns", "ns"),
    ("storage.store.scan_ns_per_key", "ns"),
    ("storage.store.log_bytes_per_put", "bytes"),
    ("storage.store.nodes_cloned_per_commit", "count"),
    ("storage.store.replay_us_per_record", "us"),
    ("storage.store.compact_ms", "ms"),
    // The sharded path: N = 1 minus the store row is the one-shard tax.
    ("storage.shard.put1_us", "us"),
    ("storage.shard.put64_us", "us"),
    ("storage.shard.get_ns", "ns"),
    ("storage.shard.scan_ns_per_key", "ns"),
    ("storage.shard.put64_2pc_us", "us"),
    // Store counters over the workload's measured phase.
    ("storage.log_bytes_per_op", "bytes"),
    ("storage.log_bytes_per_unit", "bytes"),
    ("storage.commits_per_unit", "count"),
    ("storage.snapshot_swaps_per_unit", "count"),
    ("storage.image_bytes_copied_per_commit", "bytes"),
    ("storage.syncs", "count"),
    // The object layer.
    ("object.create_object_us", "us"),
    ("object.set_attr_us", "us"),
    ("object.create_relationship_us", "us"),
    ("object.delete_relationship_us", "us"),
    ("object.add_edge_us", "us"),
    ("object.lookup_hit_ns", "ns"),
    ("object.lookup_miss_ns", "ns"),
    ("object.unit_commit_us", "us"),
    ("object.unit_abort_us", "us"),
    ("object.traverse_ns_per_node", "ns"),
    ("object.check_integrity_us_per_edge", "us"),
    ("object.copy_classification_us_per_edge", "us"),
    ("object.cache_hit_rate", "ratio"),
    ("object.batch64_us", "us"),
    // ICBN installed minus not.
    ("rules.create_object_premium_us", "us"),
    ("rules.create_relationship_premium_us", "us"),
    ("rules.deferred_commit_us", "us"),
    // POOL.
    ("pool.parse_us", "us"),
    ("pool.plan_us", "us"),
    ("pool.exec_point_us", "us"),
    ("pool.exec_closure_us", "us"),
    ("pool.exec_scan_us", "us"),
    ("pool.exec_join_us", "us"),
    ("pool.plan_cache_hit_rate", "ratio"),
    ("pool.parallel_morsels_per_query", "count"),
    // The taxonomic model.
    ("taxonomy.circumscribe_us", "us"),
    ("taxonomy.move_taxon_us", "us"),
    ("taxonomy.merge_taxa_us", "us"),
    ("taxonomy.split_taxon_us", "us"),
    ("taxonomy.what_if_discard_us", "us"),
    ("taxonomy.derive_names_us_per_taxon", "us"),
    ("taxonomy.detect_synonyms_us_per_taxon", "us"),
    // The server, innermost first.
    ("server.frame.encode_query_ns", "ns"),
    ("server.frame.decode_query_ns", "ns"),
    ("server.frame.encode_rows1k_us", "us"),
    ("server.frame.decode_rows1k_us", "us"),
    ("server.frame.bytes_per_row", "bytes"),
    ("server.core.on_request_ns", "ns"),
    ("server.blocking.ping_rtt_us", "us"),
    ("server.event.ping_rtt_us", "us"),
    ("server.blocking.point_rtt_us", "us"),
    ("server.event.point_rtt_us", "us"),
    ("server.wire_premium_point_us", "us"),
    ("server.batch64_rtt_us", "us"),
    ("server.wire_premium_batch64_us", "us"),
    ("server.lane_wait_us_per_unit", "us"),
    ("server.frames_per_unit", "count"),
    ("server.db_errors", "count"),
    ("server.protocol_errors", "count"),
    // The program's flight recorder, priced by a gate that can fail.
    ("trace.recorder_cost_pct", "%"),
    ("trace.recorder_cost_q1_pct", "%"),
    ("trace.recorder_cost_q3_pct", "%"),
    ("trace.events_per_request", "count"),
    ("trace.dropped", "count"),
    // The benchmark's own span recorder.
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans_dropped", "count"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// How many samples stand behind the value (0 for a plain count).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            samples,
        }
    }
}

/// Everything one workload's run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: &'static str,
    /// Dataset and work sizes, for the record.
    pub sizes: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations (the first few) and failed end-of-run checks. Any
    /// entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Values for [`END_TO_END`] names, plus the per-kind latencies that
    /// apply to the workload.
    pub end_to_end: Vec<Metric>,
    /// Values for [`PER_LAYER`] names; present after a traced run. A name
    /// that does not apply to the workload is absent.
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of a driver run: `correct`, `attempted`, `failed` and
    /// every metric of the kind the run measured. The contract wants every
    /// name on every run, so a per-layer metric that does not apply to this
    /// workload reads 0 here (the table above it leaves such metrics out).
    pub fn driver_line(&self, traced: bool) -> Json {
        let (names, values): (&[(&str, &str)], &[Metric]) = if traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let mut metrics = Json::obj();
        for (name, unit) in names {
            let value = values
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            metrics = metrics.field(name, Json::obj().field("value", value).field("unit", *unit));
        }
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failed)
            .field("metrics", metrics)
    }

    /// The full record of the run, for `bench/baseline/`.
    pub fn to_json(&self) -> Json {
        let mut sizes = Json::obj();
        for (name, n) in &self.sizes {
            sizes = sizes.field(name, *n);
        }
        let render = |metrics: &[Metric]| {
            let mut out = Json::obj();
            for m in metrics {
                out = out.field(
                    &m.name,
                    Json::obj()
                        .field("value", m.value)
                        .field("unit", unit_of(&m.name))
                        .field("samples", m.samples),
                );
            }
            out
        };
        Json::obj()
            .field("workload", self.workload)
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("failed_share", self.failed_share())
            .field("sizes", sizes)
            .field("end_to_end", render(&self.end_to_end))
            .field("per_layer", render(&self.per_layer))
    }

    /// Every metric by name, with its unit and sample count.
    pub fn print(&self) {
        println!("== {} ==", self.workload);
        let sizes: Vec<String> = self
            .sizes
            .iter()
            .map(|(name, n)| format!("{name}={n}"))
            .collect();
        println!("  sizes: {}", sizes.join(" "));
        println!(
            "  attempted={} failed={} failed_share={}",
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let unit = unit_of(&m.name);
            let samples = match m.samples {
                0 => String::new(),
                n => format!("  (n={n})"),
            };
            println!("  {:<44} {:>16.4} {unit}{samples}", m.name, m.value);
        }
        for problem in &self.problems {
            println!("  PROBLEM: {problem}");
        }
    }
}

/// The unit of a metric: as listed, or — for the per-kind figures an
/// untraced run prints beside the end-to-end metrics — by name.
fn unit_of(name: &str) -> &'static str {
    let listed = END_TO_END.iter().chain(PER_LAYER.iter());
    match listed.into_iter().find(|(n, _)| *n == name) {
        Some((_, unit)) => unit,
        None if name == "failed_share" => "ratio",
        None if name == "log_bytes_per_unit" => "bytes",
        None => "us",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16 && !unit.is_empty());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let text = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for workload in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{workload}\"")));
        }
    }

    #[test]
    fn driver_line_has_every_name_and_only_those() {
        let report = Report {
            workload: "point-reads",
            attempted: 10,
            end_to_end: vec![
                Metric::new("setup_s", 1.5, 1),
                Metric::new("query_p99_us", 9.0, 10),
            ],
            ..Report::default()
        };
        let line = report.driver_line(false).render();
        assert!(line.starts_with(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}"#));
        assert!(line.contains(r#""rss_peak_mb":{"value":0.0,"unit":"MB"}"#));
        assert!(!line.contains("query_p99_us"));
        let traced = report.driver_line(true).render();
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
