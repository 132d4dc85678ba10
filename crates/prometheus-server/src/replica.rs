//! Follower-side replication status, shared between the puller and the
//! server.
//!
//! A read-only follower runs two loops: the **puller** (in
//! `prometheus-replica`) streams redo frames from the primary and applies
//! them, and the **server** answers read-only queries plus
//! [`crate::protocol::Request::ReplicaStatus`]. They meet in a
//! [`ReplicaStatusCell`]: a handful of atomics the puller writes after every
//! poll and the server reads when asked, so status requests never wait on
//! the replication socket.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Marks a server as a read-only replication follower.
///
/// Passed to [`crate::ServerConfig::replica`]: the server then rejects every
/// mutating verb with [`crate::ErrorKind::ReadOnlyReplica`] (the error
/// message names `primary`) and answers `ReplicaStatus` from `status`
/// instead of its own store.
#[derive(Debug, Clone)]
pub struct ReplicaInfo {
    /// Address of the primary that accepts writes, as clients should dial it.
    pub primary: String,
    /// Live replication progress, written by the puller thread.
    pub status: Arc<ReplicaStatusCell>,
}

/// Lock-free replication progress shared by the puller and the server.
///
/// All timestamps are microseconds since the cell was created, so readers
/// can turn them into ages without a wall clock. A follower that has never
/// caught up — or has not since its last resync — reports its age since
/// start: honest, and it converges to the real lag the moment the next
/// catch-up lands.
#[derive(Debug)]
pub struct ReplicaStatusCell {
    /// Primary's log epoch as of the last successful poll.
    epoch: AtomicU64,
    /// How far the follower has durably applied, in primary log bytes.
    applied_offset: AtomicU64,
    /// The primary's committed log length as of the last successful poll.
    primary_log_len: AtomicU64,
    /// Micros-since-start of the last poll that left us fully caught up
    /// (`applied_offset == primary_log_len`); 0 until then, and again
    /// after a resync.
    caught_up_at_us: AtomicU64,
    /// Times the follower discarded its state and resynced from offset 0
    /// (primary compacted, or the cursors diverged).
    resyncs: AtomicU64,
    /// Successful polls against the primary (0 = never reached it).
    polls: AtomicU64,
    origin: Instant,
}

impl Default for ReplicaStatusCell {
    fn default() -> Self {
        ReplicaStatusCell {
            epoch: AtomicU64::new(0),
            applied_offset: AtomicU64::new(0),
            primary_log_len: AtomicU64::new(0),
            caught_up_at_us: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            origin: Instant::now(),
        }
    }
}

impl ReplicaStatusCell {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Record a successful poll: where we are, where the primary is.
    pub fn record_progress(&self, epoch: u64, applied_offset: u64, primary_log_len: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.applied_offset.store(applied_offset, Ordering::Relaxed);
        self.primary_log_len
            .store(primary_log_len, Ordering::Relaxed);
        self.polls.fetch_add(1, Ordering::Relaxed);
        if applied_offset >= primary_log_len {
            self.caught_up_at_us.store(self.now_us(), Ordering::Relaxed);
        }
    }

    /// Record a forced resync (epoch change or cursor divergence): the
    /// follower has discarded everything it applied. Until a later
    /// [`ReplicaStatusCell::record_progress`] catches up, it has applied
    /// nothing, lags by the whole last-seen horizon, and reports no
    /// catch-up since it started — so neither `lag_bytes` nor the
    /// caught-up age makes an empty follower look current.
    pub fn record_resync(&self) {
        self.applied_offset.store(0, Ordering::Relaxed);
        self.caught_up_at_us.store(0, Ordering::Relaxed);
        self.resyncs.fetch_add(1, Ordering::Relaxed);
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    pub fn applied_offset(&self) -> u64 {
        self.applied_offset.load(Ordering::Relaxed)
    }

    pub fn primary_log_len(&self) -> u64 {
        self.primary_log_len.load(Ordering::Relaxed)
    }

    /// Bytes of primary log the follower has not applied yet, as of the
    /// last successful poll. Stale (too small) while the primary is
    /// unreachable — pair with [`ReplicaStatusCell::caught_up_age_us`].
    pub fn lag_bytes(&self) -> u64 {
        self.primary_log_len().saturating_sub(self.applied_offset())
    }

    /// Micros since the follower last observed itself fully caught up.
    /// Grows without bound while the primary is unreachable, which is
    /// exactly what staleness-bounded routing needs.
    pub fn caught_up_age_us(&self) -> u64 {
        self.now_us()
            .saturating_sub(self.caught_up_at_us.load(Ordering::Relaxed))
    }

    pub fn resyncs(&self) -> u64 {
        self.resyncs.load(Ordering::Relaxed)
    }

    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_and_catch_up_accounting() {
        let cell = ReplicaStatusCell::default();
        assert_eq!(cell.lag_bytes(), 0);
        // The age since start tells "never caught up" apart from a
        // catch-up, once the cell is older than the clock's resolution.
        let never_caught_up = |cell: &ReplicaStatusCell| {
            let since_start = cell.now_us();
            cell.caught_up_age_us() >= since_start
        };
        std::thread::sleep(std::time::Duration::from_millis(1));
        cell.record_progress(1, 100, 400);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.lag_bytes(), 300);
        let age_behind = cell.caught_up_age_us();
        cell.record_progress(1, 400, 400);
        assert_eq!(cell.lag_bytes(), 0);
        assert!(
            cell.caught_up_age_us() <= age_behind.max(1_000),
            "catching up must reset the staleness clock"
        );
        cell.record_resync();
        assert_eq!(cell.resyncs(), 1);
        // A resync discards what was applied: nothing is, the horizon is
        // all lag, and the pre-resync catch-up no longer counts.
        assert_eq!(cell.applied_offset(), 0);
        assert_eq!(cell.lag_bytes(), 400);
        assert!(never_caught_up(&cell), "no catch-up since the resync");
        cell.record_progress(2, 100, 250);
        assert_eq!(cell.lag_bytes(), 150);
        assert!(never_caught_up(&cell), "still behind");
        cell.record_progress(2, 250, 250);
        assert!(!never_caught_up(&cell), "caught up again");
    }
}
