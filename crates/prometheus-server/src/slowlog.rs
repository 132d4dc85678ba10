//! The server's slow-query log.
//!
//! Every wire query slower than [`crate::ServerConfig::slow_query_threshold`]
//! is appended here: the query text, the session's classification context,
//! the plan fingerprint (correlate with `EXPLAIN`/`PROFILE` output and other
//! log entries), the trace id of the request's span tree in the trace ring,
//! and the measured wall-clock. The log is a bounded ring: the newest
//! [`SlowLog::capacity`] entries win, so a misbehaving workload cannot grow
//! server memory. Clients fetch entries with `Request::SlowLog`.

use prometheus_trace::TraceId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Default bound on retained slow-query entries.
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 128;

/// One slow query, as captured server-side and shipped over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowLogEntry {
    /// Session that ran the query.
    pub session: u64,
    /// The query text as received (including an `explain`/`profile` verb).
    pub query: String,
    /// The session's classification context at execution time.
    pub context: Option<String>,
    /// Trace id of the request's span tree — feed it to
    /// `Request::TraceGet` (or look it up in the trace ring via
    /// `Request::Trace`) while the ring still holds those spans.
    pub trace_id: TraceId,
    /// Fingerprint of the plan that ran, pinned or inside a unit (0 for
    /// `EXPLAIN`, which runs nothing).
    pub fingerprint: u64,
    /// Wall-clock from request dispatch to result, µs.
    pub dur_us: u64,
    /// Rows returned.
    pub rows: u64,
    /// Whether the query ran against a pinned snapshot (out-of-unit) or the
    /// live database (inside a unit of work).
    pub pinned: bool,
    /// Writer-lane shard mask the request claimed before executing (bit k =
    /// shard k's lane; 0 = lock-free snapshot read). Distinguishes lane
    /// contention from execution cost.
    pub lane_mask: u64,
    /// Total µs the request spent queued on writer lanes before running.
    pub lane_wait_us: u64,
}

/// Bounded, newest-wins log of [`SlowLogEntry`]. A plain mutex is fine: the
/// log is touched only by queries that already burned more than the slow
/// threshold, never on the general hot path.
#[derive(Debug)]
pub struct SlowLog {
    entries: Mutex<VecDeque<SlowLogEntry>>,
    capacity: usize,
}

impl SlowLog {
    /// A log retaining at most `capacity` entries (clamped to at least 1).
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog {
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Maximum retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one entry, evicting the oldest when full.
    pub fn push(&self, entry: SlowLogEntry) {
        let mut entries = self.lock();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The newest `n` entries, oldest first.
    pub fn recent(&self, n: usize) -> Vec<SlowLogEntry> {
        let entries = self.lock();
        let skip = entries.len().saturating_sub(n);
        entries.iter().skip(skip).cloned().collect()
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<SlowLogEntry>> {
        // Entries are plain data; a panicking pusher cannot corrupt them.
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Default for SlowLog {
    fn default() -> Self {
        SlowLog::new(DEFAULT_SLOW_LOG_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u64) -> SlowLogEntry {
        SlowLogEntry {
            session: n,
            query: format!("select t from CT t -- {n}"),
            context: None,
            trace_id: TraceId::from_words(1, n),
            fingerprint: 0xfeed,
            dur_us: 1_000 + n,
            rows: 2,
            pinned: true,
            lane_mask: 0b11,
            lane_wait_us: 40 + n,
        }
    }

    #[test]
    fn bounded_and_newest_wins() {
        let log = SlowLog::new(3);
        for n in 0..5 {
            log.push(entry(n));
        }
        assert_eq!(log.len(), 3);
        let recent = log.recent(10);
        let sessions: Vec<u64> = recent.iter().map(|e| e.session).collect();
        assert_eq!(sessions, vec![2, 3, 4]);
        // recent(n) trims to the newest n, oldest first.
        let last_two: Vec<u64> = log.recent(2).iter().map(|e| e.session).collect();
        assert_eq!(last_two, vec![3, 4]);
    }

    #[test]
    fn entries_round_trip_through_the_codec() {
        let e = entry(7);
        let bytes = prometheus_storage::codec::to_bytes(&e).unwrap();
        let back: SlowLogEntry = prometheus_storage::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, e);
    }
}
