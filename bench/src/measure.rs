//! Closed-loop measurement: what one client thread tallies while it runs,
//! and how tallies become the reported numbers.

use crate::spans::Spans;
use crate::stats;
use std::time::{Duration, Instant};

/// The two kinds of operation a user of the system waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One POOL query.
    Query,
    /// One unit of work: a batch, a streamed begin…commit/abort, or one
    /// embedded unit.
    Unit,
    /// Anything else that is attempted and checked but is neither (the
    /// revision session's periodic name derivation and synonym detection).
    Other,
}

/// Throughput is the median over this many equal-count slices of the
/// phase's operations, so that one stall moves one slice and not the result.
pub const SLICES: usize = 20;

/// What one client thread records during a measured phase.
pub struct Tally {
    started: Instant,
    /// Completion time of every operation, ns since the phase started.
    done_ns: Vec<u64>,
    query_us: Vec<f64>,
    unit_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim, for the report.
    pub problems: Vec<String>,
    pub spans: Spans,
}

impl Tally {
    pub fn new(started: Instant, traced: bool) -> Tally {
        Tally {
            started,
            done_ns: Vec::new(),
            query_us: Vec::new(),
            unit_us: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            spans: Spans::new(traced, started),
        }
    }

    /// Record one operation that began at `began` and has just completed;
    /// `outcome` is `Err` when it failed or answered wrongly.
    pub fn op(&mut self, kind: Kind, began: Instant, outcome: Result<(), String>) {
        let now = Instant::now();
        self.attempted += 1;
        self.done_ns.push((now - self.started).as_nanos() as u64);
        let us = (now - began).as_secs_f64() * 1e6;
        match kind {
            Kind::Query => self.query_us.push(us),
            Kind::Unit => self.unit_us.push(us),
            Kind::Other => {}
        }
        if let Err(problem) = outcome {
            self.fail(problem);
        }
    }

    /// Count a failed check that is not itself a timed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }

    /// The id the next operation's spans carry.
    pub fn next_op(&self) -> u64 {
        self.attempted + 1
    }
}

/// Latency of one kind of operation, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
}

fn latency(mut us: Vec<f64>) -> Option<Latency> {
    stats::sort(&mut us);
    Some(Latency {
        p50_us: stats::percentile(&us, 50.0)?,
        p99_us: stats::percentile(&us, 99.0)?,
        samples: us.len() as u64,
    })
}

/// Median operations per second over [`SLICES`] equal-count slices of the
/// completion times (all clients merged, ns since the phase started): each
/// slice's rate is its operation count over the time between the last
/// completion before it and its own last completion. Equal counts, not equal
/// times, so the rate is continuous however few operations a second there
/// are. Falls back to the plain mean below two operations a slice.
pub fn sliced_rate(done_ns: &mut [u64], elapsed: Duration) -> f64 {
    let n = done_ns.len();
    if n < 2 * SLICES {
        return n as f64 / elapsed.as_secs_f64().max(1e-9);
    }
    done_ns.sort_unstable();
    let mut rates = Vec::with_capacity(SLICES);
    let mut begin = 0u64;
    for slice in 0..SLICES {
        let (first, end) = (slice * n / SLICES, (slice + 1) * n / SLICES);
        let finish = done_ns[end - 1];
        rates.push((end - first) as f64 / ((finish - begin).max(1) as f64 / 1e9));
        begin = finish;
    }
    stats::median_of(rates).unwrap_or(0.0)
}

/// One measured phase, all clients merged.
pub struct Phase {
    /// The median slice's rate (see [`sliced_rate`]): the throughput of a
    /// phase that runs for a fixed time.
    pub ops_per_s: f64,
    /// Operations over elapsed time: the throughput of a phase that does a
    /// fixed amount of work, where the time it takes is the result.
    pub mean_ops_per_s: f64,
    pub query: Option<Latency>,
    pub unit: Option<Latency>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub spans: Spans,
}

impl Phase {
    pub fn merge(tallies: Vec<Tally>, elapsed: Duration) -> Phase {
        let started = tallies.first().map_or_else(Instant::now, |t| t.started);
        let mut done_ns = Vec::new();
        let mut query_us = Vec::new();
        let mut unit_us = Vec::new();
        let mut spans = Spans::new(true, started);
        let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
        for tally in tallies {
            done_ns.extend(tally.done_ns);
            query_us.extend(tally.query_us);
            unit_us.extend(tally.unit_us);
            attempted += tally.attempted;
            failed += tally.failed;
            problems.extend(tally.problems);
            spans.absorb(tally.spans);
        }
        Phase {
            mean_ops_per_s: done_ns.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            ops_per_s: sliced_rate(&mut done_ns, elapsed),
            query: latency(query_us),
            unit: latency(unit_us),
            attempted,
            failed,
            problems,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_rate_is_the_median_slice() {
        // 400 operations at one per millisecond, but for a 2 s stall after
        // the hundredth: the mean says 167/s, the median slice 1000/s.
        let mut done: Vec<u64> = (1..=400u64)
            .map(|i| i * 1_000_000 + if i > 100 { 2_000_000_000 } else { 0 })
            .collect();
        let rate = sliced_rate(&mut done, Duration::from_millis(2400));
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        // Too few operations to slice: the mean.
        let rate = sliced_rate(&mut [1, 2, 3], Duration::from_millis(150));
        assert!((rate - 20.0).abs() < 1e-9);
    }

    #[test]
    fn tallies_merge_by_kind() {
        let started = Instant::now();
        let mut a = Tally::new(started, false);
        let mut b = Tally::new(started, false);
        a.op(Kind::Query, started, Ok(()));
        a.op(Kind::Unit, started, Err("wrong".into()));
        b.op(Kind::Query, started, Ok(()));
        b.op(Kind::Other, started, Ok(()));
        b.fail("leak".into());
        let phase = Phase::merge(vec![a, b], Duration::from_secs(1));
        assert_eq!(phase.attempted, 4);
        assert_eq!(phase.failed, 2);
        assert_eq!(phase.query.unwrap().samples, 2);
        assert_eq!(phase.unit.unwrap().samples, 1);
        assert_eq!(
            phase.problems,
            vec!["wrong".to_string(), "leak".to_string()]
        );
    }
}
