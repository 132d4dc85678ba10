//! Driving closed-loop client threads for a fixed time or a fixed amount of
//! work, and reading the
//! server's public counters at the phase boundaries.

use crate::harness::{err, Res};
use crate::measure::{Phase, Tally};
use prometheus_db::StatsSnapshot;
use prometheus_server::{MetricsSnapshot, PrometheusClient};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// When a measured phase ends: after a time, or when the client that has a
/// quota of work to do says it has done it.
pub struct Until {
    deadline: Option<Instant>,
    finished: AtomicBool,
}

impl Until {
    /// The phase lasts `seconds`.
    pub fn after(seconds: f64) -> Until {
        Until {
            deadline: Some(Instant::now() + Duration::from_secs_f64(seconds)),
            finished: AtomicBool::new(false),
        }
    }

    /// The phase lasts until some client calls [`Until::finish`].
    pub fn told() -> Until {
        Until {
            deadline: None,
            finished: AtomicBool::new(false),
        }
    }

    pub fn over(&self) -> bool {
        // Relaxed: the flag publishes nothing but itself.
        self.finished.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    pub fn finish(&self) {
        self.finished.store(true, Ordering::Relaxed);
    }
}

/// Run one closed-loop thread per context until the phase is over. `body`
/// loops while `!until.over()`, tallying every operation; an `Err` from it
/// (a broken transport, not a failed operation) ends the run.
pub fn run_phase<C: Send>(
    contexts: &mut [C],
    until: Until,
    traced: bool,
    body: impl Fn(usize, &mut C, &Until, &mut Tally) -> Res<()> + Sync,
) -> Res<Phase> {
    let started = Instant::now();
    let until = &until;
    let results: Vec<Res<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = contexts
            .iter_mut()
            .enumerate()
            .map(|(i, context)| {
                let body = &body;
                scope.spawn(move || {
                    crate::harness::pin_client(i);
                    let mut tally = Tally::new(started, traced);
                    body(i, context, until, &mut tally)?;
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = started.elapsed();
    let tallies = results.into_iter().collect::<Res<Vec<_>>>()?;
    Ok(Phase::merge(tallies, elapsed))
}

/// The server's and the store's public counters at one instant.
pub struct Counters {
    pub server: MetricsSnapshot,
    pub storage: StatsSnapshot,
}

impl Counters {
    pub fn read(client: &mut PrometheusClient) -> Res<Counters> {
        let (server, storage) = client.stats().map_err(err)?;
        Ok(Counters { server, storage })
    }
}

/// What the server counted between two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerDelta {
    pub queries: u64,
    /// Frames that belong to units of work: begin, op, commit, abort, batch.
    pub unit_frames: u64,
    pub requests: u64,
    pub units_committed: u64,
    pub units_aborted: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub parallel_morsels: u64,
    pub db_errors: u64,
    pub protocol_errors: u64,
    pub lane_wait_us: u64,
    pub trace_events: u64,
    pub trace_dropped: u64,
}

fn lane_wait_us(m: &MetricsSnapshot) -> u64 {
    m.trace_rollups
        .iter()
        .find(|r| r.stage == "lane_wait")
        .map_or(0, |r| r.sum_us)
}

impl ServerDelta {
    pub fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> ServerDelta {
        let kind = |k: &str| after.requests_of(k) - before.requests_of(k);
        ServerDelta {
            queries: kind("query"),
            unit_frames: [
                "unit_begin",
                "unit_op",
                "unit_commit",
                "unit_abort",
                "unit_batch",
            ]
            .iter()
            .map(|k| kind(k))
            .sum(),
            requests: after.requests_total() - before.requests_total(),
            units_committed: after.units_committed - before.units_committed,
            units_aborted: after.units_aborted - before.units_aborted,
            plan_cache_hits: after.plan_cache_hits - before.plan_cache_hits,
            plan_cache_misses: after.plan_cache_misses - before.plan_cache_misses,
            parallel_morsels: after.parallel_morsels - before.parallel_morsels,
            db_errors: after.db_errors - before.db_errors,
            protocol_errors: after.protocol_errors - before.protocol_errors,
            lane_wait_us: lane_wait_us(after) - lane_wait_us(before),
            trace_events: after.trace_events_written - before.trace_events_written,
            trace_dropped: after.trace_dropped - before.trace_dropped,
        }
    }
}
