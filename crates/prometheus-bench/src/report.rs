//! Table and series formatting for the harness binary, plus CSV output so
//! EXPERIMENTS.md can reference reproducible artifacts.

use std::fmt::Write as _;
use std::path::Path;

/// One row of a comparison table: operation, raw µs, Prometheus µs.
#[derive(Debug, Clone)]
pub struct CompareRow {
    pub operation: String,
    pub raw_us: f64,
    pub prom_us: f64,
    /// Units of work done (e.g. objects touched), for per-item columns.
    pub items: usize,
}

impl CompareRow {
    /// Prometheus-over-raw cost factor.
    pub fn factor(&self) -> f64 {
        if self.raw_us == 0.0 {
            f64::NAN
        } else {
            self.prom_us / self.raw_us
        }
    }
}

/// Render a comparison table in the thesis' layout.
pub fn render_table(title: &str, rows: &[CompareRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>14} {:>8} {:>12}",
        "operation", "raw (µs)", "prometheus (µs)", "factor", "items"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>12.1} {:>14.1} {:>8.2} {:>12}",
            row.operation,
            row.raw_us,
            row.prom_us,
            row.factor(),
            row.items
        );
    }
    out
}

/// One point of a size-sweep series (Figures 44–46).
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    pub nodes: usize,
    pub total_us: f64,
    pub per_item_us: f64,
}

/// Render a sweep series.
pub fn render_sweep(title: &str, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>14}",
        "nodes", "total (µs)", "per-item (µs)"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>10} {:>14.1} {:>14.3}",
            p.nodes, p.total_us, p.per_item_us
        );
    }
    out
}

/// One point of the S1/S2 sweeps (Figures 45–46): a modification of
/// `parts` parts and the two ways to revalidate the classification after it.
/// Each link of the modification refuses a cycle, so `modify_us` includes
/// that check.
#[derive(Debug, Clone, Copy)]
pub struct RevalidationPoint {
    pub nodes: usize,
    pub parts: usize,
    pub modify_us: f64,
    /// The thesis' revalidation: the whole classification.
    pub full_us: f64,
    /// `check_integrity`: an answer from the set of classifications a full
    /// check found sound, which a modification through the API keeps sound.
    pub lookup_us: f64,
}

impl RevalidationPoint {
    /// Modification plus `revalidation_us`, per part.
    fn with(&self, revalidation_us: f64) -> SweepPoint {
        let total_us = self.modify_us + revalidation_us;
        SweepPoint {
            nodes: self.nodes,
            total_us,
            per_item_us: total_us / self.parts as f64,
        }
    }

    /// The thesis' protocol: modification plus full revalidation.
    pub fn full(&self) -> SweepPoint {
        self.with(self.full_us)
    }

    /// Modification plus the answer from the set.
    pub fn lookup(&self) -> SweepPoint {
        self.with(self.lookup_us)
    }
}

/// Render an S1/S2 series: both revalidations beside the modification, and
/// the per-part cost under each.
pub fn render_revalidation(title: &str, points: &[RevalidationPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>14} {:>14} {:>16} {:>16}",
        "nodes", "modify (µs)", "full (µs)", "lookup (µs)", "per-part full", "per-part lookup"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>10} {:>14.1} {:>14.1} {:>14.1} {:>16.3} {:>16.3}",
            p.nodes,
            p.modify_us,
            p.full_us,
            p.lookup_us,
            p.full().per_item_us,
            p.lookup().per_item_us
        );
    }
    out
}

/// Write an S1/S2 series as CSV.
pub fn write_revalidation_csv(path: &Path, points: &[RevalidationPoint]) -> std::io::Result<()> {
    let mut csv = String::from(
        "nodes,parts,modify_us,full_us,lookup_us,per_part_full_us,per_part_lookup_us\n",
    );
    for p in points {
        let _ = writeln!(
            csv,
            "{},{},{:.3},{:.3},{:.3},{:.5},{:.5}",
            p.nodes,
            p.parts,
            p.modify_us,
            p.full_us,
            p.lookup_us,
            p.full().per_item_us,
            p.lookup().per_item_us
        );
    }
    std::fs::write(path, csv)
}

/// Write a comparison table as CSV.
pub fn write_table_csv(path: &Path, rows: &[CompareRow]) -> std::io::Result<()> {
    let mut csv = String::from("operation,raw_us,prometheus_us,factor,items\n");
    for row in rows {
        let _ = writeln!(
            csv,
            "{},{:.3},{:.3},{:.4},{}",
            row.operation,
            row.raw_us,
            row.prom_us,
            row.factor(),
            row.items
        );
    }
    std::fs::write(path, csv)
}

/// Write a sweep series as CSV.
pub fn write_sweep_csv(path: &Path, points: &[SweepPoint]) -> std::io::Result<()> {
    let mut csv = String::from("nodes,total_us,per_item_us\n");
    for p in points {
        let _ = writeln!(csv, "{},{:.3},{:.5}", p.nodes, p.total_us, p.per_item_us);
    }
    std::fs::write(path, csv)
}

/// One-line environment stamp for bench output: core count and shard count
/// side by side, so a reader of a stats dump can tell at a glance whether
/// per-shard writer lanes *could* have bought wall-clock time on this
/// machine (they cannot on one core, however many lanes).
pub fn render_machine_summary(cores: usize, shards: usize) -> String {
    format!(
        "machine: {cores} core{}, {shards} shard{}",
        if cores == 1 { "" } else { "s" },
        if shards == 1 { "" } else { "s" },
    )
}

/// Classify a sweep's growth: the ratio of the last per-item cost to the
/// first. Near 1.0 ⇒ constant per-item cost (Figure 44's claim); well above
/// 1.0 ⇒ non-constant (Figures 45/46).
pub fn growth_ratio(points: &[SweepPoint]) -> f64 {
    match (points.first(), points.last()) {
        (Some(a), Some(b)) if a.per_item_us > 0.0 => b.per_item_us / a.per_item_us,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![
            CompareRow {
                operation: "create".into(),
                raw_us: 10.0,
                prom_us: 30.0,
                items: 100,
            },
            CompareRow {
                operation: "lookup".into(),
                raw_us: 5.0,
                prom_us: 5.5,
                items: 100,
            },
        ];
        let s = render_table("raw performance", &rows);
        assert!(s.contains("create"));
        assert!(s.contains("3.00"));
        assert!(s.contains("raw performance"));
    }

    #[test]
    fn factor_handles_zero_baseline() {
        let row = CompareRow {
            operation: "x".into(),
            raw_us: 0.0,
            prom_us: 1.0,
            items: 1,
        };
        assert!(row.factor().is_nan());
    }

    #[test]
    fn sweep_growth_ratio() {
        let constant = vec![
            SweepPoint {
                nodes: 100,
                total_us: 100.0,
                per_item_us: 1.0,
            },
            SweepPoint {
                nodes: 1000,
                total_us: 1050.0,
                per_item_us: 1.05,
            },
        ];
        assert!((growth_ratio(&constant) - 1.05).abs() < 1e-9);
        let growing = vec![
            SweepPoint {
                nodes: 100,
                total_us: 100.0,
                per_item_us: 1.0,
            },
            SweepPoint {
                nodes: 1000,
                total_us: 5000.0,
                per_item_us: 5.0,
            },
        ];
        assert!(growth_ratio(&growing) > 4.0);
    }

    #[test]
    fn machine_summary_pluralises() {
        assert_eq!(render_machine_summary(1, 1), "machine: 1 core, 1 shard");
        assert_eq!(render_machine_summary(8, 4), "machine: 8 cores, 4 shards");
    }

    #[test]
    fn csv_round_trips_to_disk() {
        let dir = std::env::temp_dir();
        let p = dir.join("bench-report-test.csv");
        write_sweep_csv(
            &p,
            &[SweepPoint {
                nodes: 10,
                total_us: 1.0,
                per_item_us: 0.1,
            }],
        )
        .unwrap();
        let content = std::fs::read_to_string(&p).unwrap();
        assert!(content.starts_with("nodes,"));
        assert!(content.contains("10,"));
        let _ = std::fs::remove_file(p);
    }
}
