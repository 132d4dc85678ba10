//! I/O and operation counters.
//!
//! The chapter-7 benchmark compares the Prometheus feature layer against the
//! raw substrate; these counters let the harness report *why* an operation
//! costs what it does (log appends, record decodes, commits) rather
//! than only wall-clock time.

use std::sync::atomic::{AtomicU64, Ordering};

prometheus_trace::counter_table! {
    /// Shared, lock-free operation counters for one [`crate::Store`].
    #[derive(Debug, Default)]
    pub struct Stats {}
    /// Plain-data snapshot of [`Stats`].
    ///
    /// Serialisable so the server layer can ship it over the wire in answer
    /// to a `stats` request; `since` brackets a benchmark phase.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StatsSnapshot {}
    series {
        log_appends: Counter, "prometheus_storage_log_appends_total", "Redo-log records appended.";
        bytes_written: Counter, "prometheus_storage_bytes_written_total", "Bytes appended to the redo log.";
        syncs: Counter, "prometheus_storage_syncs_total", "fsync calls on the redo log.";
        cache_hits: Counter, "prometheus_storage_cache_hits_total", "Never bumped: the object layer keeps no decoded entities.";
        cache_misses: Counter, "prometheus_storage_cache_misses_total", "Entities decoded by object-layer database reads.";
        // `puts` and `deletes` were never scraped; exposing them is a
        // one-word change here, and a visible one.
        puts: Unscraped, "prometheus_storage_puts_total", "Records written.";
        deletes: Unscraped, "prometheus_storage_deletes_total", "Records deleted.";
        commits: Counter, "prometheus_storage_commits_total", "Transactions committed.";
        aborts: Counter, "prometheus_storage_aborts_total", "Transactions rolled back.";
        /// One per commit or settled unit of work; readers pin the image
        /// published by the latest swap.
        snapshot_swaps: Counter, "prometheus_storage_snapshot_swaps_total", "Immutable snapshot publications.";
        /// The path-copy cost of publication: nodes shared with a pinned
        /// snapshot that had to be made unique.
        image_nodes_cloned: Counter, "prometheus_storage_image_nodes_cloned_total", "Persistent-map nodes path-copied while publishing commits.";
        /// Entry vectors, not payloads — payload `Bytes` are refcounted and
        /// never copied.
        image_bytes_copied: Counter, "prometheus_storage_image_bytes_copied_total", "Bytes copied cloning image nodes (structure only, not payloads).";
        /// Counted on the coordinator shard.
        units_2pc: Counter, "prometheus_storage_units_2pc_total", "Cross-shard units settled with a two-phase prepare/decide round.";
    }
}

impl Stats {
    #[inline]
    /// Increment a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    /// Increment a counter by `n`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let stats = Stats::default();
        Stats::bump(&stats.puts);
        Stats::add(&stats.bytes_written, 128);
        let snap = stats.snapshot();
        assert_eq!(snap.puts, 1);
        assert_eq!(snap.bytes_written, 128);
        stats.reset();
        assert_eq!(stats.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn since_subtracts_counterwise() {
        let stats = Stats::default();
        Stats::bump(&stats.commits);
        let a = stats.snapshot();
        Stats::bump(&stats.commits);
        Stats::bump(&stats.cache_hits);
        let b = stats.snapshot();
        let d = b.since(&a);
        assert_eq!(d.commits, 1);
        assert_eq!(d.cache_hits, 1);
    }

    /// The wire form is the `series()` list, read back by name: a body
    /// from a build with one counter more and one fewer still decodes.
    #[test]
    fn wire_form_is_self_describing() {
        use crate::codec;
        let snap = StatsSnapshot {
            commits: 4,
            puts: 9,
            ..Default::default()
        };
        let back: StatsSnapshot = codec::from_bytes(&codec::to_bytes(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);

        let foreign: Vec<(&str, u64)> = snap
            .series()
            .filter(|s| s.name != "prometheus_storage_puts_total")
            .map(|s| (s.name, s.value))
            .chain([("prometheus_storage_from_a_later_build_total", 7)])
            .collect();
        let back: StatsSnapshot =
            codec::from_bytes(&codec::to_bytes(&(foreign,)).unwrap()).unwrap();
        assert_eq!(back.commits, 4, "known names land in their fields");
        assert_eq!(back.puts, 0, "a missing name reads as zero");
    }
}
