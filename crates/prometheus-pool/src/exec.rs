//! The POOL executor: per-query planning in front of morsel-parallel
//! execution.
//!
//! [`Executor`] is the long-lived query front end an embedder (the wire
//! server, the benchmark) keeps next to its database handle. Per query
//! it:
//!
//! 1. parses the text, applies the default context when the query names
//!    none, and plans it against the schema the reader sees — a plan is
//!    made for every query and kept by no one, so neither `define_class`
//!    nor an aborted unit's definitions can leave a stale seed behind;
//! 2. stamps the plan with [`prometheus_object::SchemaRegistry::version`]
//!    (a digest of the definitions the reader sees) and a fingerprint, for
//!    `EXPLAIN`, `PROFILE` and the slow-query log;
//! 3. executes the plan with this executor's worker budget — candidate
//!    filtering, the outer join loop and traversal frontiers run
//!    morsel-parallel, with outputs merged in morsel order so results are
//!    byte-identical to a sequential run.
//!
//! The executor is `Sync`: one instance serves concurrent sessions.

use crate::ast::Query;
use crate::eval::{self, QueryResult};
use crate::plan::{self, PlanInfo};
use prometheus_object::{DbResult, Reader};
use prometheus_trace::{Recorder, Stage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An immutable plan: the contextualised parsed query, the planner's
/// per-clause decisions, and the schema version they were made against.
#[derive(Debug)]
pub struct QueryPlan {
    pub query: Query,
    pub info: PlanInfo,
    pub schema_version: u64,
    /// Stable FNV-1a hash over the contextualised query text and the schema
    /// version. The plan is a function of those two, so two queries with
    /// the same fingerprint took the same plan. Reported by `EXPLAIN`,
    /// `PROFILE` and the slow-query log so operators can correlate entries.
    pub fingerprint: u64,
}

/// FNV-1a over the rendered query and the schema version.
fn fingerprint_of(query: &Query, schema_version: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    eat(query.to_string().as_bytes());
    eat(&schema_version.to_le_bytes());
    h
}

/// Point-in-time executor counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStatsSnapshot {
    /// Queries parsed and planned (every query, `EXPLAIN` included).
    pub plans: u64,
    /// Morsels executed by parallel workers across all stages (candidate
    /// filters, outer join loops, traversal frontiers). Zero under a
    /// one-worker budget or when inputs fit in single morsels.
    pub parallel_morsels: u64,
}

#[derive(Debug, Default)]
struct ExecStats {
    plans: AtomicU64,
    parallel_morsels: AtomicU64,
}

/// Worker-pooled POOL query front end. See the module docs.
#[derive(Debug)]
pub struct Executor {
    workers: usize,
    stats: ExecStats,
    /// Span recorder for plan and execution-stage spans; disabled until
    /// [`Executor::set_recorder`] installs a live one.
    recorder: RwLock<Recorder>,
}

fn lock_rw<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

fn lock_rw_read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

impl Executor {
    /// An executor with `workers` parallel workers per query (clamped to at
    /// least 1).
    pub fn new(workers: usize) -> Executor {
        Executor {
            workers: workers.max(1),
            stats: ExecStats::default(),
            recorder: RwLock::new(Recorder::disabled()),
        }
    }

    /// The per-query worker budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Install the span recorder used for planning and execution
    /// stages (scan, filter, join, emit). Normally the same recorder the
    /// store and server share, so one ring holds the whole request.
    pub fn set_recorder(&self, recorder: Recorder) {
        *lock_rw(&self.recorder) = recorder;
    }

    /// The installed span recorder (disabled by default).
    pub fn recorder(&self) -> Recorder {
        lock_rw_read(&self.recorder).clone()
    }

    /// Parse, plan and execute `text`.
    ///
    /// `default_context` is the session's classification context: applied
    /// only when the query has no `in classification` clause of its own.
    pub fn query<R: Reader>(
        &self,
        db: &R,
        text: &str,
        default_context: Option<&str>,
    ) -> DbResult<QueryResult> {
        self.query_with_plan(db, text, default_context)
            .map(|(result, _)| result)
    }

    /// [`Executor::query`], also returning the plan that ran — the wire
    /// server reads its fingerprint for the slow-query log.
    pub fn query_with_plan<R: Reader>(
        &self,
        db: &R,
        text: &str,
        default_context: Option<&str>,
    ) -> DbResult<(QueryResult, Arc<QueryPlan>)> {
        let plan = self.plan(db, text, default_context)?;
        let result = eval::execute_parallel(
            db,
            &plan.query,
            &plan.info,
            self.workers,
            &self.stats.parallel_morsels,
            &self.recorder(),
        )?;
        Ok((result, plan))
    }

    /// `EXPLAIN`: plan the query and render the plan as text lines —
    /// source index seeds, pushed-down conjuncts, the
    /// residual conjuncts with the join depth each runs at (how many `from`
    /// variables are bound by then) and the depth an `in` haystack is
    /// hoisted to, the schema digest and the plan fingerprint. Nothing is
    /// executed.
    pub fn explain<R: Reader>(
        &self,
        db: &R,
        text: &str,
        default_context: Option<&str>,
    ) -> DbResult<Vec<String>> {
        let plan = self.plan(db, text, default_context)?;
        let mut lines = vec![
            format!(
                "plan: schema {:016x}, fingerprint {:016x}",
                plan.schema_version, plan.fingerprint,
            ),
            format!("query: {}", plan.query),
        ];
        match &plan.query.context {
            Some(name) => lines.push(format!("context: classification \"{name}\"")),
            None => lines.push("context: none".into()),
        }
        let conjuncts = match &plan.query.where_clause {
            Some(w) => plan::conjuncts_of(w),
            None => Vec::new(),
        };
        for (clause, source) in plan.query.from.iter().zip(&plan.info.sources) {
            let kind = if clause.view {
                "view"
            } else if clause.edges {
                "relationship class"
            } else {
                "class"
            };
            lines.push(format!("source {}: {} {}", clause.var, kind, clause.class));
            match &source.seed {
                Some((attr, value)) => {
                    lines.push(format!("  seed: index probe {attr} = {value}"));
                }
                None => lines.push("  seed: deep extent scan".into()),
            }
            if source.pushdown.is_empty() {
                lines.push("  pushdown: none".into());
            } else {
                let rendered: Vec<String> = source
                    .pushdown
                    .iter()
                    .map(|&i| conjuncts[i].to_string())
                    .collect();
                lines.push(format!("  pushdown: {}", rendered.join(" and ")));
            }
        }
        if plan.info.residuals.is_empty() {
            lines.push("residual: none".into());
        }
        for r in &plan.info.residuals {
            let hoisted = match r.hoist {
                Some(h) => format!(", haystack hoisted to depth {h}"),
                None => String::new(),
            };
            lines.push(format!(
                "residual: {} [depth {}{hoisted}]",
                conjuncts[r.conjunct], r.depth
            ));
        }
        lines.push(format!(
            "join: nested-loop over {} source(s), morsel-parallel outer loop ({} worker(s))",
            plan.query.from.len(),
            self.workers,
        ));
        Ok(lines)
    }

    /// Counter snapshot (plans made, parallel morsels).
    pub fn stats(&self) -> ExecStatsSnapshot {
        ExecStatsSnapshot {
            plans: self.stats.plans.load(Ordering::Relaxed),
            parallel_morsels: self.stats.parallel_morsels.load(Ordering::Relaxed),
        }
    }

    /// Parse `text`, apply `default_context` when it names none, plan it
    /// against the reader's schema and fingerprint the result. Records one
    /// `plan` span (c1 = fingerprint).
    fn plan<R: Reader>(
        &self,
        db: &R,
        text: &str,
        default_context: Option<&str>,
    ) -> DbResult<Arc<QueryPlan>> {
        let span = self.recorder().span(Stage::Plan);
        self.stats.plans.fetch_add(1, Ordering::Relaxed);
        let mut query = crate::parse(text)?;
        if query.context.is_none() {
            query.context = default_context.map(str::to_string);
        }
        let info = plan::plan(db, &query)?;
        let schema_version = db.with_schema(|s| s.version());
        let fingerprint = fingerprint_of(&query, schema_version);
        span.finish(0, fingerprint);
        Ok(Arc::new(QueryPlan {
            query,
            info,
            schema_version,
            fingerprint,
        }))
    }
}
