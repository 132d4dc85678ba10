//! Server-side operation counters and latency histograms.
//!
//! Extends the `Stats`/`StatsSnapshot` pattern of `prometheus-storage` one
//! layer up: lock-free atomics bumped on the hot path, and a plain-data,
//! serialisable [`MetricsSnapshot`] that the `stats` wire request returns so
//! any client (the benchmark, an operator's REPL) can observe a live
//! server. Every scalar is one row of the `counter_table!` below — adding
//! one touches neither the exposition nor the protocol.

use crate::protocol::{KINDS, REQUEST_CLASSES};
use prometheus_trace::{HistogramCells, StageRollup};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bounds (µs, inclusive) of the latency histogram buckets; one
/// overflow bucket follows the last bound.
pub const LATENCY_BOUNDS_US: [u64; 9] =
    [50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// Number of histogram buckets (bounds + overflow).
pub const LATENCY_BUCKETS: usize = LATENCY_BOUNDS_US.len() + 1;

/// Most `(follower, shard)` cursors the primary remembers. The name is a
/// string off the socket, so without a bound any client could grow the
/// table — and every scrape — for ever; past it the stalest poll is evicted.
pub const MAX_FOLLOWER_CURSORS: usize = 256;

prometheus_trace::counter_table! {
    /// Shared, lock-free counters for one running server.
    ///
    /// A row whose value lives with another owner (the executor's planning
    /// counters, the recorder's health counters, the process gauges) has an
    /// atomic here that nothing bumps: `server.rs::metrics_snapshot` sets
    /// the snapshot's field from that owner.
    #[derive(Debug, Default)]
    pub struct ServerMetrics {
        /// Requests processed, by [`KINDS`] index.
        requests: [AtomicU64; KINDS.len()],
        /// Per-request wall-clock latency, all kinds merged.
        latency: LatencyCells,
        /// The same, per [`REQUEST_CLASSES`] index.
        class_latency: [LatencyCells; REQUEST_CLASSES.len()],
        /// Replication followers by (name, shard): cursor and horizon at
        /// their last poll of that shard's log. Cold path (one update per
        /// poll), so a plain mutex is fine here.
        followers: Mutex<HashMap<(String, u32), FollowerTrack>>,
    }
    /// Plain-data snapshot of [`ServerMetrics`]; crosses the wire in
    /// `Response::Stats`.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct MetricsSnapshot {
        pub requests_by_kind: Vec<(String, u64)>,
        pub latency: LatencyHistogram,
        /// Per-request-class latency histograms, in [`REQUEST_CLASSES`]
        /// order.
        pub latency_by_class: Vec<(String, LatencyHistogram)>,
        /// Per-follower replication lag as of each follower's last poll,
        /// sorted by (follower name, shard); empty when nothing replicates.
        pub replication: Vec<FollowerLag>,
        /// One entry per shard in shard order. The scalars here and in the
        /// storage snapshot are totals across shards; these break the
        /// contended ones down.
        pub per_shard: Vec<ShardMetrics>,
        /// Build identity as (key, value) label pairs — crate and protocol
        /// version — for the `build_info` gauge.
        pub build_info: Vec<(String, String)>,
        /// Flight-recorder per-stage rollup histograms, in `Stage::ALL`
        /// order; empty when tracing is disabled.
        pub trace_rollups: Vec<StageRollup>,
    }
    series {
        connections_accepted: Counter, "prometheus_server_connections_accepted_total", "Connections handed to the worker pool.";
        connections_active: Gauge, "prometheus_server_connections_active", "Sessions currently being served.";
        /// A persistently non-zero gauge means the worker pool is the
        /// bottleneck.
        accept_queue_depth: Gauge, "prometheus_server_accept_queue_depth", "Accepted connections waiting for a free worker (blocking mode) or a ready slot (event mode).";
        /// [`crate::ServerConfig::idle_timeout`]: socket closed, any open
        /// unit rolled back.
        sessions_reaped: Counter, "prometheus_server_sessions_reaped_total", "Idle sessions closed by the reaper.";
        protocol_errors: Counter, "prometheus_server_protocol_errors_total", "Frames that failed to decode or out-of-order requests.";
        db_errors: Counter, "prometheus_server_db_errors_total", "Requests the database layer rejected.";
        units_committed: Counter, "prometheus_server_units_committed_total", "Units of work committed over the wire.";
        units_aborted: Counter, "prometheus_server_units_aborted_total", "Units rolled back on client request.";
        units_rolled_back_on_disconnect: Counter, "prometheus_server_units_rolled_back_on_disconnect_total", "Units rolled back because the connection dropped mid-unit.";
        /// The client sat silent past the idle deadline while holding a
        /// unit's claim in the writer queue.
        units_timed_out: Counter, "prometheus_server_units_timed_out_total", "Units rolled back at the idle deadline.";
        plan_cache_hits: Counter, "prometheus_server_plan_cache_hits_total", "Never bumped: the POOL executor keeps no plans.";
        /// Every query, `EXPLAIN` included: nothing is cached.
        plan_cache_misses: Counter, "prometheus_server_plan_cache_misses_total", "Queries parsed and planned (every query).";
        /// Candidate filters, outer join loops and traversal frontiers.
        parallel_morsels: Counter, "prometheus_server_parallel_morsels_total", "Work morsels executed by parallel query workers.";
        shards: Gauge, "prometheus_server_shards", "Writer lanes / shard logs this server runs (1 = unsharded).";
        start_unix_s: Gauge, "prometheus_server_start_time_seconds", "Unix time the server started.";
        uptime_s: Gauge, "prometheus_server_uptime_seconds", "Seconds since the server started.";
        trace_events_written: Counter, "prometheus_trace_events_written_total", "Span events accepted by the flight recorder.";
        /// A rising rate means the ring is undersized for the load.
        trace_dropped: Counter, "prometheus_trace_events_dropped_total", "Span events dropped because the recorder ring was contended or full.";
    }
    fill ServerMetrics::fill;
}

/// One latency histogram's cells.
type LatencyCells = HistogramCells<{ LATENCY_BOUNDS_US.len() }>;

/// Snapshot one latency histogram.
fn latency_histogram(cells: &LatencyCells) -> LatencyHistogram {
    LatencyHistogram {
        bounds_us: LATENCY_BOUNDS_US.to_vec(),
        counts: cells.counts(),
        count: cells.count(),
        sum_us: cells.sum(),
    }
}

#[derive(Debug)]
struct FollowerTrack {
    next_offset: u64,
    log_len: u64,
    last_poll: Instant,
}

impl ServerMetrics {
    /// Count one request of the given kind ([`crate::Request::kind`]).
    pub fn count_request(&self, kind: usize) {
        self.requests[kind].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request's wall-clock latency, both in the merged histogram
    /// and in the histogram of the class `kind` belongs to.
    pub fn record_latency_us(&self, kind: usize, us: u64) {
        self.latency.observe(&LATENCY_BOUNDS_US, us);
        self.class_latency[KINDS[kind].1].observe(&LATENCY_BOUNDS_US, us);
    }

    /// Record a replication follower's poll of one shard's log: its cursor
    /// after the batch and the committed horizon it was served against.
    pub fn record_follower_poll(&self, follower: &str, shard: u32, next_offset: u64, log_len: u64) {
        let mut followers = self.followers.lock().expect("follower map poisoned");
        let key = (follower.to_string(), shard);
        if followers.len() >= MAX_FOLLOWER_CURSORS && !followers.contains_key(&key) {
            let stalest = followers
                .iter()
                .min_by_key(|(_, track)| track.last_poll)
                .map(|(key, _)| key.clone());
            if let Some(stalest) = stalest {
                followers.remove(&stalest);
            }
        }
        followers.insert(
            key,
            FollowerTrack {
                next_offset,
                log_len,
                last_poll: Instant::now(),
            },
        );
    }

    /// The non-scalar half of [`ServerMetrics::snapshot`]: per-kind counts,
    /// the histograms and the follower table.
    fn fill(&self, mut snap: MetricsSnapshot) -> MetricsSnapshot {
        snap.requests_by_kind = KINDS
            .iter()
            .zip(self.requests.iter())
            .map(|((name, _), counter)| (name.to_string(), counter.load(Ordering::Relaxed)))
            .collect();
        snap.latency = latency_histogram(&self.latency);
        snap.latency_by_class = REQUEST_CLASSES
            .iter()
            .zip(self.class_latency.iter())
            .map(|(name, cells)| (name.to_string(), latency_histogram(cells)))
            .collect();
        let followers = self.followers.lock().expect("follower map poisoned");
        snap.replication = followers
            .iter()
            .map(|((name, shard), t)| FollowerLag {
                follower: name.clone(),
                shard: *shard,
                next_offset: t.next_offset,
                log_len: t.log_len,
                lag_bytes: t.log_len.saturating_sub(t.next_offset),
                last_poll_age_us: t.last_poll.elapsed().as_micros() as u64,
            })
            .collect();
        snap.replication
            .sort_by(|a, b| (&a.follower, a.shard).cmp(&(&b.follower, b.shard)));
        snap
    }
}

/// One shard's slice of the contended counters.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ShardMetrics {
    /// Writers holding or queued for this shard right now: the claims in
    /// the database's writer queue whose masks cover it.
    pub lane_depth: u64,
    /// Snapshot publications on this shard's store.
    pub snapshot_swaps: u64,
    /// Bytes copied publishing this shard's image.
    pub image_bytes_copied: u64,
    /// Cross-shard (two-phase) units this shard participated in.
    pub units_2pc: u64,
}

/// One replication follower's position on one shard's log, as the primary
/// last saw it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FollowerLag {
    /// The follower's self-chosen stable name.
    pub follower: String,
    /// The member shard this cursor tracks.
    pub shard: u32,
    /// Byte cursor the follower will poll from next.
    pub next_offset: u64,
    /// Committed log length it was last served against.
    pub log_len: u64,
    /// `log_len - next_offset`: bytes the follower had not yet applied.
    pub lag_bytes: u64,
    /// Microseconds since the follower's last poll.
    pub last_poll_age_us: u64,
}

impl MetricsSnapshot {
    /// Total requests across all kinds.
    pub fn requests_total(&self) -> u64 {
        self.requests_by_kind.iter().map(|(_, n)| n).sum()
    }

    /// Count for one request kind.
    pub fn requests_of(&self, kind: &str) -> u64 {
        self.requests_by_kind
            .iter()
            .find(|(name, _)| name == kind)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

/// Bucketed latency distribution.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Inclusive upper bounds (µs); one overflow bucket follows.
    pub bounds_us: Vec<u64>,
    /// Populations, `bounds_us.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations, µs.
    pub sum_us: u64,
}

impl LatencyHistogram {
    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// [`prometheus_trace::bucket_percentile_us`] over these buckets: quick
    /// server-side introspection; a client that kept every measurement
    /// should report its own exact percentiles instead.
    pub fn approx_percentile_us(&self, p: f64) -> Option<u64> {
        prometheus_trace::bucket_percentile_us(&self.bounds_us, &self.counts, self.count, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request kind's [`KINDS`] index, by name.
    fn kind(name: &str) -> usize {
        KINDS.iter().position(|k| k.0 == name).expect("a kind")
    }

    #[test]
    fn latency_buckets_accumulate() {
        let m = ServerMetrics::default();
        m.record_latency_us(kind("query"), 10); // bucket 0 (<=50)
        m.record_latency_us(kind("query"), 80); // bucket 1 (<=100)
        m.record_latency_us(kind("query"), 2_000_000); // overflow
        let snap = m.snapshot();
        assert_eq!(snap.latency.count, 3);
        assert_eq!(snap.latency.counts[0], 1);
        assert_eq!(snap.latency.counts[1], 1);
        assert_eq!(snap.latency.counts[LATENCY_BUCKETS - 1], 1);
        assert_eq!(snap.latency.sum_us, 2_000_090);
        assert!(snap.latency.mean_us() > 0.0);
    }

    #[test]
    fn per_class_histograms_split_by_request_kind() {
        let m = ServerMetrics::default();
        m.record_latency_us(kind("query"), 10);
        m.record_latency_us(kind("query"), 80);
        m.record_latency_us(kind("unit_batch"), 600);
        m.record_latency_us(kind("replica_poll"), 30);
        m.record_latency_us(kind("trace"), 40);
        m.record_latency_us(kind("ping"), 5);
        let snap = m.snapshot();
        let of = |class: &str| {
            snap.latency_by_class
                .iter()
                .find(|(name, _)| name == class)
                .map(|(_, h)| h.clone())
                .unwrap()
        };
        assert_eq!(of("query").count, 2);
        assert_eq!(of("unit").count, 1);
        assert_eq!(of("replication").count, 1);
        assert_eq!(of("observability").count, 1);
        assert_eq!(of("other").count, 1);
        // The merged histogram still sees everything.
        assert_eq!(snap.latency.count, 6);
        // Every class observation lands in exactly one bucket of its class.
        assert_eq!(of("query").counts.iter().sum::<u64>(), 2);
        assert_eq!(of("unit").counts[4], 1); // 600µs → <=1000 bucket
    }

    #[test]
    fn follower_polls_surface_as_lag() {
        let m = ServerMetrics::default();
        m.record_follower_poll("replica-b", 0, 100, 400);
        m.record_follower_poll("replica-a", 0, 400, 400);
        let snap = m.snapshot();
        assert_eq!(snap.replication.len(), 2);
        // Sorted by (follower, shard) for stable exposition output.
        assert_eq!(snap.replication[0].follower, "replica-a");
        assert_eq!(snap.replication[0].lag_bytes, 0);
        assert_eq!(snap.replication[1].follower, "replica-b");
        assert_eq!(snap.replication[1].lag_bytes, 300);
        // A later poll replaces the entry, never duplicates it.
        m.record_follower_poll("replica-b", 0, 400, 400);
        let snap = m.snapshot();
        assert_eq!(snap.replication.len(), 2);
        assert_eq!(snap.replication[1].lag_bytes, 0);
        // One cursor per polled shard: the same follower on another shard
        // is its own entry, in shard order.
        m.record_follower_poll("replica-b", 1, 10, 50);
        let snap = m.snapshot();
        assert_eq!(snap.replication.len(), 3);
        assert_eq!(snap.replication[2].shard, 1);
        assert_eq!(snap.replication[2].lag_bytes, 40);
    }

    #[test]
    fn the_follower_table_is_capped_and_keeps_the_freshest() {
        let m = ServerMetrics::default();
        for i in 0..MAX_FOLLOWER_CURSORS + 10 {
            m.record_follower_poll(&format!("f{i:04}"), 0, 1, 1);
        }
        // A follower already in the table refreshes in place at the cap.
        m.record_follower_poll("f0010", 0, 2, 2);
        let names: Vec<String> = m
            .snapshot()
            .replication
            .into_iter()
            .map(|f| f.follower)
            .collect();
        assert_eq!(names.len(), MAX_FOLLOWER_CURSORS);
        // The ten stalest polls went; everything polled since stayed.
        assert_eq!(names[0], "f0010");
        assert_eq!(
            names.last().unwrap(),
            &format!("f{:04}", MAX_FOLLOWER_CURSORS + 9)
        );
    }

    #[test]
    fn percentile_walks_buckets() {
        let m = ServerMetrics::default();
        for _ in 0..99 {
            m.record_latency_us(kind("query"), 40);
        }
        m.record_latency_us(kind("query"), 900); // lands in the <=1000 bucket
        let snap = m.snapshot();
        assert_eq!(snap.latency.approx_percentile_us(0.50), Some(50));
        assert_eq!(snap.latency.approx_percentile_us(1.0), Some(1_000));
        assert_eq!(LatencyHistogram::default().approx_percentile_us(0.5), None);
    }

    #[test]
    fn percentile_in_the_overflow_bucket_is_honestly_unknown() {
        let m = ServerMetrics::default();
        m.record_latency_us(kind("query"), 40);
        m.record_latency_us(kind("query"), 2_000_000); // past the last bound
        let snap = m.snapshot();
        // The median is still known…
        assert_eq!(snap.latency.approx_percentile_us(0.50), Some(50));
        // …but the max fell off the end of the bounds: no fabricated
        // `last_bound * 10`, just an explicit absence.
        assert_eq!(snap.latency.approx_percentile_us(1.0), None);
    }

    #[test]
    fn request_counters_by_kind() {
        let m = ServerMetrics::default();
        m.count_request(kind("query"));
        m.count_request(kind("query"));
        m.count_request(kind("ping"));
        let snap = m.snapshot();
        assert_eq!(snap.requests_of("query"), 2);
        assert_eq!(snap.requests_of("ping"), 1);
        assert_eq!(snap.requests_of("compact"), 0);
        assert_eq!(snap.requests_total(), 3);
    }

    /// Satellite coverage: hammer the server counters and the trace ring
    /// from many threads at once. Snapshot totals must come out exact (no
    /// lost updates), and concurrent ring reads must never block or return
    /// a torn event — the seqlock either yields a consistent payload or
    /// skips the slot.
    #[test]
    fn metrics_and_trace_ring_survive_concurrent_hammering() {
        use prometheus_db::{Recorder, Stage, TraceEvent};
        use std::sync::atomic::{AtomicBool, Ordering};

        const THREADS: u64 = 8;
        const OPS: u64 = 2_000;

        let metrics = ServerMetrics::default();
        let recorder = Recorder::new(256); // small ring: force heavy lapping
        let stop = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let metrics = &metrics;
                let recorder = &recorder;
                scope.spawn(move || {
                    for i in 0..OPS {
                        metrics.count_request(kind("query"));
                        metrics.record_latency_us(kind("query"), i % 3_000);
                        // Self-consistent payload: every word equals the
                        // marker, so a torn read is detectable.
                        let marker = t * OPS + i + 1;
                        recorder.record(TraceEvent {
                            trace_id: prometheus_trace::TraceId::from_words(marker, marker),
                            span_id: marker,
                            parent_id: marker,
                            stage: Stage::Scan,
                            start_us: marker,
                            dur_us: marker,
                            c0: marker,
                            c1: marker,
                        });
                    }
                });
            }
            // A reader racing the writers: every event it sees must be
            // internally consistent.
            // The flag is read before each pass, so the last pass runs after
            // the writers finished: a reader the scheduler starts late still
            // reads a full ring.
            let reader = scope.spawn(|| {
                let mut seen = 0usize;
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    for ev in recorder.recent(64) {
                        assert_eq!(ev.trace_id.lo, ev.span_id, "torn event: {ev:?}");
                        assert_eq!(ev.trace_id.hi, ev.start_us, "torn event: {ev:?}");
                        assert_eq!(ev.trace_id.lo, ev.c1, "torn event: {ev:?}");
                        seen += 1;
                    }
                    if done {
                        return seen;
                    }
                }
            });
            // Scope drops writer handles first; signal the reader once the
            // writers are done by spawning a watcher that joins them via the
            // scope's implicit join — simplest is to let the main thread
            // wait on the metrics totals.
            while metrics.latency.count() < THREADS * OPS {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
            let seen = reader.join().unwrap();
            assert!(seen > 0, "reader must observe events while racing");
        });

        let snap = metrics.snapshot();
        assert_eq!(snap.requests_of("query"), THREADS * OPS);
        assert_eq!(snap.latency.count, THREADS * OPS);
        assert_eq!(
            snap.latency.counts.iter().sum::<u64>(),
            THREADS * OPS,
            "every latency observation lands in exactly one bucket"
        );
        // The ring either kept an event or counted it dropped — none vanish.
        assert_eq!(
            recorder.events_written() + recorder.dropped(),
            THREADS * OPS
        );
        assert!(recorder.recent(256).len() <= 256);
    }
}
