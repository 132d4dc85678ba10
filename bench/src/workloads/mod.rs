//! The five workloads. Each sets up its dataset, warms up, measures with all
//! benchmark tracing off, optionally repeats the measurement traced and runs
//! the layer ladder, then stops, reopens and checks the database.

pub mod flora_load;
pub mod mixed_rw;
pub mod reads;
pub mod revision_session;

use crate::flora::Flora;
use crate::harness::{self, err, Counts, Dataset, Res, CLIENTS};
use crate::ladder;
use crate::measure::Phase;
use crate::queries::{self, Churn, Query};
use crate::report::{Config, Metric, Report};
use crate::stats;
use crate::wire::ServerDelta;
use prometheus_db::{Prometheus, StatsSnapshot};
use prometheus_server::WireRows;
use std::path::Path;
use std::time::Instant;

pub fn run(name: &str, cfg: &Config) -> Res<Report> {
    match name {
        "flora-load" => flora_load::run(cfg),
        "revision-session" => revision_session::run(cfg),
        "point-reads" => reads::run(cfg, "point-reads", cfg.large(), CLIENTS, |s| s.point()),
        // One client: a scan already fans out over both cores (a dozen
        // morsels a query), so a second client would only oversubscribe the
        // box and measure its scheduler.
        "closure-scans" => reads::run(cfg, "closure-scans", cfg.small(), 1, |s| s.scan()),
        "mixed-rw" => mixed_rw::run(cfg),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Answer `query` through the embedded facade and compare.
pub fn check_embedded(db: &Prometheus, query: &Query) -> Result<(), String> {
    let rows: WireRows = db.query_snapshot(&query.text).map_err(err)?.into();
    query
        .expect
        .check(&rows)
        .map_err(|e| format!("{}: {e}", query.text))
}

/// Drop → reopen → first correct query, at least `cfg.reopens()` times and
/// for at least a second and a half (so a database that reopens in a tenth
/// of a second is reopened often enough for a steady median); returns the
/// median time and the last handle.
pub fn reopen(cfg: &Config, path: &Path, first: &Query) -> Res<(f64, Prometheus)> {
    let began_all = Instant::now();
    let enough = |times: &[f64]| {
        times.len() >= cfg.reopens()
            && (cfg.smoke || began_all.elapsed().as_secs_f64() >= 1.5 || times.len() >= 15)
    };
    let mut times = Vec::new();
    let mut last = None;
    while !enough(&times) {
        drop(last.take());
        let began = Instant::now();
        let db = harness::reopen(path)?;
        check_embedded(&db, first)?;
        times.push(began.elapsed().as_secs_f64());
        last = Some(db);
    }
    println!("  reopen_s samples: {times:?}");
    Ok((
        stats::median_of(times).expect("at least one reopen"),
        last.expect("at least one reopen"),
    ))
}

/// The end-of-run checks every workload shares, on the reopened database:
/// counts as expected, and one query of each class answering as the
/// generator says.
pub fn final_checks(
    db: &Prometheus,
    flora: &Flora,
    expected: &Counts,
    churn: Option<Churn>,
    problems: &mut Vec<String>,
) {
    match harness::counts(db.db()) {
        Ok(found) if found == *expected => {}
        Ok(found) => problems.push(format!(
            "counts after reopen {found:?} differ from expected {expected:?}"
        )),
        Err(e) => problems.push(format!("counting after reopen: {e}")),
    }
    for query in queries::one_of_each(flora, churn) {
        if let Err(e) = check_embedded(db, &query) {
            problems.push(format!("after reopen: {e}"));
        }
    }
}

/// After a traced run: write its spans out and run the layer ladder on the
/// workload's (reopened) database. Nothing after an untraced one.
pub fn ladder_rows(
    cfg: &Config,
    name: &str,
    traced: &Option<Phase>,
    db: Prometheus,
    path: &Path,
    dataset: &Dataset,
    churn: Option<Churn>,
) -> Res<Vec<Metric>> {
    let Some(phase) = traced else {
        return Ok(Vec::new());
    };
    ladder::write_spans(name, &phase.spans)?;
    ladder::run(cfg, db, path, dataset, churn)
}

/// Everything measured about one workload before it is shaped into a
/// [`Report`].
pub struct Measured {
    pub setup_s: f64,
    pub untraced: Phase,
    /// Store counters over the untraced phase.
    pub storage: StatsSnapshot,
    /// Units of work the untraced phase committed (not aborted, discarded
    /// or failed).
    pub committed_units: u64,
    /// Server counters over the untraced phase (wire workloads only).
    pub server: Option<ServerDelta>,
    pub traced: Option<Phase>,
    pub reopen_s: f64,
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

impl Measured {
    /// Units of work attempted, whatever their outcome.
    fn units(&self) -> u64 {
        self.untraced.unit.map_or(0, |u| u.samples)
    }

    /// Shape the measurements into the report's metric lists.
    pub fn into_report(self, report: &mut Report, ladder: Vec<Metric>) {
        let phase = &self.untraced;
        report.attempted = phase.attempted;
        report.failed = phase.failed;
        report.problems.extend(phase.problems.iter().cloned());
        let primary = phase.unit.or(phase.query);
        let mut e2e = vec![
            Metric::new("setup_s", self.setup_s, 1),
            Metric::new("ops_per_s", phase.ops_per_s, phase.attempted),
            Metric::new(
                "op_p50_us",
                primary.map_or(0.0, |l| l.p50_us),
                primary.map_or(0, |l| l.samples),
            ),
            Metric::new("reopen_s", self.reopen_s, 1),
            Metric::new("rss_peak_mb", harness::rss_peak_mb(), 1),
        ];
        // The per-kind figures, where the workload has the kind.
        if let Some(q) = phase.query {
            e2e.push(Metric::new("query_p50_us", q.p50_us, q.samples));
            e2e.push(Metric::new("query_p99_us", q.p99_us, q.samples));
        }
        if let Some(u) = phase.unit {
            e2e.push(Metric::new("unit_p50_us", u.p50_us, u.samples));
            e2e.push(Metric::new("unit_p99_us", u.p99_us, u.samples));
            e2e.push(Metric::new(
                "log_bytes_per_unit",
                ratio(self.storage.bytes_written, self.committed_units),
                self.committed_units,
            ));
        }
        e2e.push(Metric::new(
            "failed_share",
            report.failed_share(),
            phase.attempted,
        ));
        report.end_to_end = e2e;

        let Some(traced) = &self.traced else {
            return;
        };
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        report.problems.extend(traced.problems.iter().cloned());
        let mut layers = Vec::new();
        if let Some(q) = phase.query {
            layers.push(Metric::new("client.query_p50_us", q.p50_us, q.samples));
            layers.push(Metric::new("server.query_p99_us", q.p99_us, q.samples));
        }
        let units = self.units();
        let st = &self.storage;
        if let Some(u) = phase.unit {
            layers.push(Metric::new("client.unit_p50_us", u.p50_us, u.samples));
            layers.push(Metric::new("server.unit_p99_us", u.p99_us, u.samples));
            layers.push(Metric::new(
                "storage.log_bytes_per_unit",
                ratio(st.bytes_written, self.committed_units),
                self.committed_units,
            ));
            layers.push(Metric::new(
                "storage.commits_per_unit",
                ratio(st.commits, units),
                units,
            ));
            layers.push(Metric::new(
                "storage.snapshot_swaps_per_unit",
                ratio(st.snapshot_swaps, units),
                units,
            ));
            layers.push(Metric::new(
                "storage.image_bytes_copied_per_commit",
                ratio(st.image_bytes_copied, st.commits),
                st.commits,
            ));
        }
        layers.push(Metric::new(
            "storage.log_bytes_per_op",
            ratio(st.bytes_written, phase.attempted),
            phase.attempted,
        ));
        layers.push(Metric::new("storage.syncs", st.syncs as f64, 0));
        layers.push(Metric::new(
            "object.cache_hit_rate",
            ratio(st.cache_hits, st.cache_hits + st.cache_misses),
            st.cache_hits + st.cache_misses,
        ));
        if let Some(s) = &self.server {
            let planned = s.plan_cache_hits + s.plan_cache_misses;
            if planned > 0 {
                layers.push(Metric::new(
                    "pool.plan_cache_hit_rate",
                    ratio(s.plan_cache_hits, planned),
                    planned,
                ));
                layers.push(Metric::new(
                    "pool.parallel_morsels_per_query",
                    ratio(s.parallel_morsels, s.queries),
                    s.queries,
                ));
            }
            let settled = s.units_committed + s.units_aborted;
            if settled > 0 {
                layers.push(Metric::new(
                    "server.lane_wait_us_per_unit",
                    ratio(s.lane_wait_us, settled),
                    settled,
                ));
                layers.push(Metric::new(
                    "server.frames_per_unit",
                    ratio(s.unit_frames, settled),
                    settled,
                ));
            }
            layers.push(Metric::new("server.db_errors", s.db_errors as f64, 0));
            layers.push(Metric::new(
                "server.protocol_errors",
                s.protocol_errors as f64,
                0,
            ));
            layers.push(Metric::new(
                "trace.events_per_request",
                ratio(s.trace_events, s.requests),
                s.requests,
            ));
            layers.push(Metric::new("trace.dropped", s.trace_dropped as f64, 0));
        }
        layers.push(Metric::new(
            "bench.trace_overhead_pct",
            (phase.ops_per_s - traced.ops_per_s) / phase.ops_per_s * 100.0,
            traced.attempted,
        ));
        layers.push(Metric::new(
            "bench.spans_dropped",
            traced.spans.dropped as f64,
            0,
        ));
        layers.extend(ladder);
        report.per_layer = layers;
    }
}
