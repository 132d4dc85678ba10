//! POOL execution (the query layer of §6.1.5).
//!
//! Planning lives in [`crate::plan`]: index seeding and predicate pushdown
//! are resolved there, once, against the schema. This
//! module *executes* a plan: candidate enumeration, per-candidate filters,
//! the nested-loop join, expression evaluation, ordering and projection.
//!
//! ## Parallelism
//!
//! Execution is optionally morsel-parallel (see
//! [`prometheus_object::morsel`]): with a worker budget above one, the
//! per-candidate filter pass and the outermost join loop fan work out to
//! scoped threads, and deep traversals expand their frontiers in parallel.
//! Each parallel stage merges per-morsel outputs in morsel order, so the
//! result — rows, row order, even which error surfaces — is byte-identical
//! to the sequential run. `tests/parallel_equivalence.rs` holds this
//! property over randomized databases and queries.
//!
//! Workers inside a parallel stage run nested evaluation sequentially (one
//! level of fan-out, no thread explosion); when the outer loop is too small
//! to split, the budget flows to traversal frontiers instead.
//!
//! Queries with a classification context range over the classification's
//! participants only, and every traversal operator follows only that
//! classification's edges (§4.6.2). `from view "…" x` ranges over a
//! persisted view's members (§6.1.3). Scoping costs what it touches: see
//! [`scope_to_context`].

use crate::ast::*;
use crate::plan::{self, PlanInfo, Residual};
use prometheus_object::classification::Classification;
use prometheus_object::instance::StoredEntity;
use prometheus_object::morsel;
use prometheus_object::traversal::{self, Direction, TraversalSpec};
use prometheus_object::{DbError, DbResult, Oid, Reader, Value};
use prometheus_trace::{Recorder, Stage};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// One result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub columns: Vec<Value>,
}

/// A fully materialised query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Column headers (aliases, or rendered expressions).
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// The values of the first column — the common single-projection case.
    pub fn first_column(&self) -> Vec<Value> {
        self.rows
            .iter()
            .filter_map(|r| r.columns.first().cloned())
            .collect()
    }

    /// The OIDs in the first column (non-refs are skipped).
    pub fn oids(&self) -> Vec<Oid> {
        self.first_column()
            .iter()
            .filter_map(Value::as_ref_oid)
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Variable bindings; subqueries extend a clone of the outer environment, so
/// correlated references resolve naturally and `from` variables shadow.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vars: BTreeMap<String, Value>,
}

impl Env {
    /// No bindings.
    pub fn empty() -> Env {
        Env::default()
    }

    /// Bind a variable.
    pub fn bind(&mut self, name: &str, value: Value) {
        self.vars.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }
}

/// Execution context threaded through the evaluator: the worker budget and
/// where to tally morsels that actually ran on parallel workers.
#[derive(Clone, Copy)]
pub(crate) struct Cx<'a> {
    pub workers: usize,
    pub morsels: Option<&'a AtomicU64>,
    /// Span recorder for the *top-level* execution only: [`execute`] strips
    /// it before delegating to per-row work, so subqueries and pushed-down
    /// predicates never flood the trace ring with one span per candidate.
    pub tracer: Option<&'a Recorder>,
}

impl<'a> Cx<'a> {
    /// Sequential execution, no telemetry — the default for the plain
    /// [`evaluate`] entry points and the rule engine.
    pub(crate) const SEQ: Cx<'static> = Cx {
        workers: 1,
        morsels: None,
        tracer: None,
    };

    fn tally(&self, n: u64) {
        if n > 0 {
            if let Some(counter) = self.morsels {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// The context handed to work running *inside* a parallel stage:
    /// sequential (one level of fan-out only), same telemetry sink.
    fn inner(&self) -> Cx<'a> {
        Cx {
            workers: 1,
            morsels: self.morsels,
            tracer: None,
        }
    }
}

/// Candidates per morsel in the outer join loop. Each item is a full inner
/// evaluation (remaining joins, where clause, projection), so morsels are
/// much smaller than the filter pass's [`morsel::MORSEL_SIZE`].
const JOIN_MORSEL: usize = 16;

/// Evaluate a parsed query.
///
/// Generic over [`Reader`]: pass the live `Database`, or a pinned `ReadView`
/// so the whole query — candidate enumeration, predicates, traversals,
/// subqueries — executes against one consistent snapshot without ever taking
/// the store mutex.
pub fn evaluate<R: Reader>(db: &R, q: &Query) -> DbResult<QueryResult> {
    evaluate_with_env(db, q, &Env::empty())
}

/// Evaluate with outer bindings in scope (correlated subqueries).
pub fn evaluate_with_env<R: Reader>(db: &R, q: &Query, outer: &Env) -> DbResult<QueryResult> {
    evaluate_with_env_cx(db, q, outer, Cx::SEQ)
}

fn evaluate_with_env_cx<R: Reader>(
    db: &R,
    q: &Query,
    outer: &Env,
    cx: Cx<'_>,
) -> DbResult<QueryResult> {
    let info = plan::plan(db, q)?;
    execute(db, q, &info, outer, cx)
}

/// Execute a pre-planned query with a worker budget, tallying parallel
/// morsels into `morsels`. Entry point for [`crate::exec::Executor`].
pub(crate) fn execute_parallel<R: Reader>(
    db: &R,
    q: &Query,
    info: &PlanInfo,
    workers: usize,
    morsels: &AtomicU64,
    tracer: &Recorder,
) -> DbResult<QueryResult> {
    execute(
        db,
        q,
        info,
        &Env::empty(),
        Cx {
            workers: workers.max(1),
            morsels: Some(morsels),
            tracer: Some(tracer),
        },
    )
}

fn execute<R: Reader>(
    db: &R,
    q: &Query,
    info: &PlanInfo,
    outer: &Env,
    cx: Cx<'_>,
) -> DbResult<QueryResult> {
    debug_assert_eq!(info.sources.len(), q.from.len(), "plan and query disagree");
    // Only this frame records spans; everything downstream (pushdown
    // filters, subqueries, per-row projection) runs with the tracer
    // stripped so the ring sees stages, not per-candidate noise.
    let tracer = cx.tracer;
    let cx = Cx { tracer: None, ..cx };
    let context = match &q.context {
        Some(name) => Some(
            db.classification_by_name(name)?
                .ok_or_else(|| DbError::Query(format!("no classification named '{name}'")))?,
        ),
        None => None,
    };
    let conjuncts = match &q.where_clause {
        Some(w) => plan::conjuncts_of(w),
        None => Vec::new(),
    };

    // Candidate sets per from-variable: enumerate (index seed, extent or
    // view), scope to the classification context, then filter candidates
    // by the pushed-down conjuncts, morsel-parallel.
    let mut candidate_sets: Vec<(String, Vec<Oid>)> = Vec::with_capacity(q.from.len());
    // The context's participants and its member edges, each read at most
    // once per query, by the first source too large to probe.
    let (mut context_nodes, mut context_edges) = (None, None);
    for (clause, source) in q.from.iter().zip(&info.sources) {
        let scan_span = tracer.map(|r| r.span(Stage::Scan));
        let mut candidates = if clause.view {
            crate::view_members(db, &clause.class)?
        } else if let Some((attr, value)) = &source.seed {
            db.find_by_attr(&clause.class, attr, value)?
        } else {
            db.extent(&clause.class, true)?
        };
        if let Some(cls) = context {
            let members = if clause.edges {
                &mut context_edges
            } else {
                &mut context_nodes
            };
            scope_to_context(db, cls, clause.edges, &mut candidates, members)?;
        }
        if let Some(span) = scan_span {
            // c0 = candidate rows entering the filter; c1 = 1 when an index
            // seeded the scan instead of a deep-extent walk.
            span.finish(candidates.len() as u64, source.seed.is_some() as u64);
        }
        let pushdown: Vec<&Expr> = source.pushdown.iter().map(|&i| conjuncts[i]).collect();
        let filter_span = tracer.map(|r| r.span(Stage::Filter));
        let filtered = if pushdown.is_empty() {
            candidates
        } else {
            let run = morsel::run(&candidates, cx.workers, morsel::MORSEL_SIZE, |chunk| {
                filter_candidates(db, chunk, clause, &pushdown, outer, context, cx.inner())
            })?;
            cx.tally(run.parallel_morsels);
            run.output
        };
        if let Some(span) = filter_span {
            span.finish(filtered.len() as u64, cx.workers as u64);
        }
        candidate_sets.push((clause.var.clone(), filtered));
    }

    // Nested-loop join, outermost variable partitioned across workers.
    let join_span = tracer.map(|r| r.span(Stage::Join));
    let join = Join {
        db,
        q,
        context,
        sets: &candidate_sets,
        residuals: &info.residuals,
        conjuncts: &conjuncts,
        cx,
    };
    let mut rows = join.rows(outer)?;
    if let Some(span) = join_span {
        span.finish(rows.len() as u64, cx.workers as u64);
    }
    let emit_span = tracer.map(|r| r.span(Stage::Emit));

    // Order by (hidden trailing sort keys appended in bind_loop).
    if !q.order_by.is_empty() {
        let keys = q.order_by.len();
        rows.sort_by(|a, b| {
            let a_keys = &a.columns[a.columns.len() - keys..];
            let b_keys = &b.columns[b.columns.len() - keys..];
            for (i, ord) in q.order_by.iter().enumerate() {
                let c = a_keys[i].cmp(&b_keys[i]);
                let c = if ord.descending { c.reverse() } else { c };
                if c != std::cmp::Ordering::Equal {
                    return c;
                }
            }
            std::cmp::Ordering::Equal
        });
        for row in &mut rows {
            row.columns.truncate(row.columns.len() - keys);
        }
    }

    if q.distinct {
        let mut seen: Vec<Vec<Value>> = Vec::new();
        rows.retain(|r| {
            if seen.contains(&r.columns) {
                false
            } else {
                seen.push(r.columns.clone());
                true
            }
        });
    }
    if let Some(limit) = q.limit {
        rows.truncate(limit);
    }

    let columns = q
        .projection
        .iter()
        .enumerate()
        .map(|(i, (expr, alias))| alias.clone().unwrap_or_else(|| render_expr(expr, i)))
        .collect();
    if let Some(span) = emit_span {
        span.finish(rows.len() as u64, 0);
    }
    Ok(QueryResult { columns, rows })
}

/// Per-candidate filter for one morsel: the pushed-down conjuncts,
/// short-circuiting in source order. Every candidate conforms already: the
/// deep extent and the attribute index list only the classes of
/// `with_subclasses`, and class names are unique across object and
/// relationship classes.
fn filter_candidates<R: Reader>(
    db: &R,
    chunk: &[Oid],
    clause: &FromClause,
    pushdown: &[&Expr],
    outer: &Env,
    context: Option<Oid>,
    cx: Cx<'_>,
) -> DbResult<Vec<Oid>> {
    let mut env = outer.clone();
    let mut kept = Vec::with_capacity(chunk.len());
    'cand: for &oid in chunk {
        env.bind(&clause.var, Value::Ref(oid));
        for e in pushdown {
            // Unbound references to *other* from-variables cannot occur
            // (the planner filtered those out).
            if !eval_expr_cx(db, e, &env, context, cx)?.is_truthy() {
                continue 'cand;
            }
        }
        kept.push(oid);
    }
    Ok(kept)
}

/// Keep the candidates that take part in classification `cls`: its member
/// edges for an edge source (`edges`), its participants otherwise.
///
/// A candidate set that fits one morsel is probed — each candidate's own
/// index entries say whether it takes part, at a cost that does not depend
/// on the classification's size. A larger one is checked against the whole
/// member set, read into `members` by the first source that needs it.
fn scope_to_context<R: Reader>(
    db: &R,
    cls: Oid,
    edges: bool,
    candidates: &mut Vec<Oid>,
    members: &mut Option<BTreeSet<Oid>>,
) -> DbResult<()> {
    if candidates.len() <= morsel::MORSEL_SIZE {
        candidates.retain(|&c| {
            if edges {
                db.edge_in_classification(cls, c)
            } else {
                db.node_in_classification(cls, c)
            }
        });
        return Ok(());
    }
    let members = match members {
        Some(members) => members,
        None => members.insert(if edges {
            db.classification_edges(cls)?.into_iter().collect()
        } else {
            Classification::from_oid(cls).nodes(db)?
        }),
    };
    candidates.retain(|c| members.contains(c));
    Ok(())
}

/// The nested-loop join: what stays fixed while it binds variables.
struct Join<'a, R> {
    db: &'a R,
    q: &'a Query,
    context: Option<Oid>,
    /// The filtered candidates of each `from` variable, in clause order.
    sets: &'a [(String, Vec<Oid>)],
    /// The plan's residuals, and the `where` conjuncts they index.
    residuals: &'a [Residual],
    conjuncts: &'a [&'a Expr],
    cx: Cx<'a>,
}

/// One slot per residual: the haystack of a hoisted `in`, once evaluated
/// under the current binding of the variables it depends on.
type Haystacks = Vec<Option<Vec<Value>>>;

impl<R: Reader> Join<'_, R> {
    /// With a worker budget and an outermost candidate set spanning more
    /// than one morsel, the outer loop is split across workers — each chunk
    /// runs the full inner join sequentially and the per-morsel row vectors
    /// concatenate in morsel order, reproducing the sequential row order
    /// exactly. Small outer sets stay sequential so the budget reaches
    /// traversal frontiers inside the expressions instead.
    fn rows(&self, outer: &Env) -> DbResult<Vec<Row>> {
        let mut rows = Vec::new();
        let mut env = outer.clone();
        let mut hays: Haystacks = vec![None; self.residuals.len()];
        let cx = self.cx;
        if cx.workers > 1
            && self
                .sets
                .first()
                .is_some_and(|(_, c)| c.len() > JOIN_MORSEL)
        {
            // Depth 0 happens here, once; every chunk resumes at depth 1.
            if !self.residuals_hold(0, &env, &mut hays)? {
                return Ok(rows);
            }
            let (var0, candidates) = &self.sets[0];
            let inner = Join {
                cx: cx.inner(),
                ..*self
            };
            let run = morsel::run(candidates, cx.workers, JOIN_MORSEL, |chunk| {
                let mut env = outer.clone();
                let mut hays: Haystacks = vec![None; inner.residuals.len()];
                let mut out = Vec::new();
                for &oid in chunk {
                    env.bind(var0, Value::Ref(oid));
                    inner.bind_loop(1, &mut env, &mut hays, &mut out)?;
                }
                Ok(out)
            })?;
            cx.tally(run.parallel_morsels);
            return Ok(run.output);
        }
        self.bind_loop(0, &mut env, &mut hays, &mut rows)?;
        Ok(rows)
    }

    /// Extend a binding of the first `depth` variables that the pushed-down
    /// conjuncts accepted: check the residuals that have just become
    /// evaluable, then bind the next variable to each of its candidates, or
    /// emit the row when none is left.
    fn bind_loop(
        &self,
        depth: usize,
        env: &mut Env,
        hays: &mut Haystacks,
        rows: &mut Vec<Row>,
    ) -> DbResult<()> {
        if !self.residuals_hold(depth, env, hays)? {
            return Ok(());
        }
        let (db, q, context, cx) = (self.db, self.q, self.context, self.cx);
        if depth == self.sets.len() {
            let mut columns = Vec::with_capacity(q.projection.len() + q.order_by.len());
            for (expr, _) in &q.projection {
                columns.push(eval_expr_cx(db, expr, env, context, cx)?);
            }
            // Hidden trailing sort keys (stripped after sorting).
            for key in &q.order_by {
                columns.push(eval_expr_cx(db, &key.expr, env, context, cx)?);
            }
            rows.push(Row { columns });
            return Ok(());
        }
        let (var, candidates) = &self.sets[depth];
        for oid in candidates {
            env.bind(var, Value::Ref(*oid));
            self.bind_loop(depth + 1, env, hays, rows)?;
        }
        env.vars.remove(var);
        Ok(())
    }

    /// Whether the residuals placed at `depth` hold under `env`, which has
    /// just bound the first `depth` variables afresh.
    fn residuals_hold(&self, depth: usize, env: &Env, hays: &mut Haystacks) -> DbResult<bool> {
        let (db, context, cx) = (self.db, self.context, self.cx);
        // A haystack hoisted to this depth was evaluated under the binding
        // this one replaces.
        for (r, hay) in self.residuals.iter().zip(hays.iter_mut()) {
            if r.hoist == Some(depth) {
                *hay = None;
            }
        }
        for (r, hay) in self.residuals.iter().zip(hays.iter_mut()) {
            if r.depth != depth {
                continue;
            }
            let expr = self.conjuncts[r.conjunct];
            let holds = match (r.hoist, expr) {
                // Needle first, then — on first use — the haystack: the
                // order `in` evaluates them in, so a binding that never
                // reaches this residual never evaluates its haystack.
                (Some(_), Expr::In(needle, source)) => {
                    let v = eval_expr_cx(db, needle, env, context, cx)?;
                    let items = match hay {
                        Some(items) => items,
                        None => hay.insert(eval_haystack(db, source, env, context, cx)?),
                    };
                    items.contains(&v)
                }
                _ => eval_expr_cx(db, expr, env, context, cx)?.is_truthy(),
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

fn render_expr(expr: &Expr, i: usize) -> String {
    match expr {
        Expr::Var(v) => v.clone(),
        Expr::Attr(base, attr) => {
            if let Expr::Var(v) = base.as_ref() {
                format!("{v}.{attr}")
            } else {
                format!("col{i}")
            }
        }
        Expr::Call(name, _) => name.clone(),
        _ => format!("col{i}"),
    }
}

/// Attribute of any entity kind, from one decode of the entity: objects
/// resolve through [`Reader::attr_of_object`] (inheritance-aware);
/// relationship instances expose their own attributes plus the
/// pseudo-attributes `origin` and `destination` (uniform treatment,
/// §5.1.1.2); classifications their name and traceability attributes.
fn attr_of_any<R: Reader>(db: &R, oid: Oid, attr: &str) -> DbResult<Value> {
    Ok(match db.entity(oid)? {
        StoredEntity::Object(obj) => return db.attr_of_object(&obj, attr),
        StoredEntity::Rel(rel) => match attr {
            "origin" => Value::Ref(rel.origin),
            "destination" => Value::Ref(rel.destination),
            _ => rel.attr(attr),
        },
        StoredEntity::Classification(meta) => match attr {
            "name" => Value::Str(meta.name),
            _ => meta.attrs.get(attr).cloned().unwrap_or(Value::Null),
        },
    })
}

/// Evaluate an expression (sequential; the rule engine's entry point).
pub fn eval_expr<R: Reader>(
    db: &R,
    expr: &Expr,
    env: &Env,
    context: Option<Oid>,
) -> DbResult<Value> {
    eval_expr_cx(db, expr, env, context, Cx::SEQ)
}

fn eval_expr_cx<R: Reader>(
    db: &R,
    expr: &Expr,
    env: &Env,
    context: Option<Oid>,
    cx: Cx<'_>,
) -> DbResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::Query(format!("unbound variable '{name}'"))),
        Expr::Attr(base, attr) => {
            let base = eval_expr_cx(db, base, env, context, cx)?;
            match base {
                Value::Ref(oid) => attr_of_any(db, oid, attr),
                Value::Null => Ok(Value::Null),
                Value::List(items) => {
                    // Attribute over a collection maps element-wise.
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            Value::Ref(oid) => out.push(attr_of_any(db, oid, attr)?),
                            other => {
                                return Err(DbError::Query(format!(
                                    "cannot read attribute '{attr}' of {other}"
                                )))
                            }
                        }
                    }
                    Ok(Value::List(out))
                }
                other => Err(DbError::Query(format!(
                    "cannot read attribute '{attr}' of {other}"
                ))),
            }
        }
        Expr::Bin(op, l, r) => {
            // Short-circuit booleans.
            match op {
                BinOp::And => {
                    let lv = eval_expr_cx(db, l, env, context, cx)?;
                    if !lv.is_truthy() {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(
                        eval_expr_cx(db, r, env, context, cx)?.is_truthy(),
                    ));
                }
                BinOp::Or => {
                    let lv = eval_expr_cx(db, l, env, context, cx)?;
                    if lv.is_truthy() {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(
                        eval_expr_cx(db, r, env, context, cx)?.is_truthy(),
                    ));
                }
                _ => {}
            }
            let lv = eval_expr_cx(db, l, env, context, cx)?;
            let rv = eval_expr_cx(db, r, env, context, cx)?;
            eval_binop(*op, lv, rv)
        }
        Expr::Un(op, inner) => {
            let v = eval_expr_cx(db, inner, env, context, cx)?;
            match op {
                UnOp::Not => Ok(Value::Bool(!v.is_truthy())),
                UnOp::Neg => match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(x) => Ok(Value::Float(-x)),
                    other => Err(DbError::Query(format!("cannot negate {other}"))),
                },
            }
        }
        Expr::Traverse {
            from,
            rel,
            dir,
            depth,
        } => {
            let start = eval_expr_cx(db, from, env, context, cx)?;
            let starts = refs_of(&start, "traversal source")?;
            let direction = match dir {
                TravDir::Forward => Direction::Outgoing,
                TravDir::Backward => Direction::Incoming,
            };
            let mut spec = TraversalSpec::closure(vec![rel.clone()])
                .direction(direction)
                .depth(depth.min, depth.max);
            if let Some(cls) = context {
                spec = spec.in_classification(cls);
            }
            let mut out: Vec<Value> = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            for s in starts {
                // Frontier-parallel under a worker budget; sequential (and
                // identical) otherwise.
                let (nodes, frontier_morsels) = traversal::traverse_with(db, s, &spec, cx.workers)?;
                cx.tally(frontier_morsels);
                for node in nodes {
                    if seen.insert(node) {
                        out.push(Value::Ref(node));
                    }
                }
            }
            Ok(Value::List(out))
        }
        Expr::Edges { from, rel, dir } => {
            let start = eval_expr_cx(db, from, env, context, cx)?;
            let starts = refs_of(&start, "edge-traversal source")?;
            // The endpoint index names the instances, the membership index
            // under a context. No record is decoded.
            let classes = db.with_schema(|s| s.with_subclasses(rel));
            let outgoing = matches!(dir, TravDir::Forward);
            let mut out = Vec::new();
            for &start in &starts {
                for class in &classes {
                    let edges = db.adjacency(start, Some(class), outgoing, context)?;
                    out.extend(edges.into_iter().map(|(edge, _)| Value::Ref(edge)));
                }
            }
            Ok(Value::List(out))
        }
        Expr::Downcast { class, expr } => {
            let v = eval_expr_cx(db, expr, env, context, cx)?;
            match v {
                Value::Ref(oid) => {
                    let actual = db.class_of(oid)?;
                    if db.with_schema(|s| s.conforms(&actual, class)) {
                        Ok(Value::Ref(oid))
                    } else {
                        Ok(Value::Null)
                    }
                }
                Value::List(items) => {
                    // Selective downcast over a collection keeps conforming
                    // members only (§5.1, selective downcast).
                    let mut out = Vec::new();
                    for item in items {
                        if let Value::Ref(oid) = item {
                            let actual = db.class_of(oid)?;
                            if db.with_schema(|s| s.conforms(&actual, class)) {
                                out.push(Value::Ref(oid));
                            }
                        }
                    }
                    Ok(Value::List(out))
                }
                Value::Null => Ok(Value::Null),
                other => Err(DbError::Query(format!("cannot downcast {other}"))),
            }
        }
        Expr::In(needle, source) => {
            let v = eval_expr_cx(db, needle, env, context, cx)?;
            let haystack = eval_haystack(db, source, env, context, cx)?;
            Ok(Value::Bool(haystack.contains(&v)))
        }
        Expr::Exists(q) => {
            let result = evaluate_with_env_cx(db, q, env, cx)?;
            Ok(Value::Bool(!result.is_empty()))
        }
        Expr::Call(name, args) => eval_call(db, name, args, env, context, cx),
    }
}

/// The collection on the right of `in`: a subquery's first column, or an
/// expression's value as a collection.
fn eval_haystack<R: Reader>(
    db: &R,
    source: &InSource,
    env: &Env,
    context: Option<Oid>,
    cx: Cx<'_>,
) -> DbResult<Vec<Value>> {
    Ok(match source {
        InSource::Query(q) => evaluate_with_env_cx(db, q, env, cx)?.first_column(),
        InSource::Expr(e) => collection_of(eval_expr_cx(db, e, env, context, cx)?),
    })
}

/// A value read as a collection: a list's items, nothing for null, a
/// singleton for any other scalar.
fn collection_of(v: Value) -> Vec<Value> {
    match v {
        Value::List(items) => items,
        Value::Null => Vec::new(),
        single => vec![single],
    }
}

fn refs_of(v: &Value, what: &str) -> DbResult<Vec<Oid>> {
    match v {
        Value::Ref(oid) => Ok(vec![*oid]),
        Value::Null => Ok(Vec::new()),
        Value::List(items) => items
            .iter()
            .map(|i| {
                i.as_ref_oid()
                    .ok_or_else(|| DbError::Query(format!("{what} must be references, found {i}")))
            })
            .collect(),
        other => Err(DbError::Query(format!(
            "{what} must be a reference, found {other}"
        ))),
    }
}

fn eval_binop(op: BinOp, l: Value, r: Value) -> DbResult<Value> {
    use BinOp::*;
    Ok(match op {
        Eq => Value::Bool(l == r),
        Ne => Value::Bool(l != r),
        Lt => Value::Bool(l < r),
        Le => Value::Bool(l <= r),
        Gt => Value::Bool(l > r),
        Ge => Value::Bool(l >= r),
        Like => {
            let (Value::Str(s), Value::Str(p)) = (&l, &r) else {
                return Err(DbError::Query(format!(
                    "like requires strings, found {l} and {r}"
                )));
            };
            Value::Bool(like_match(s, p))
        }
        Add | Sub | Mul | Div => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => match op {
                Add => Value::Int(a + b),
                Sub => Value::Int(a - b),
                Mul => Value::Int(a * b),
                Div => {
                    if *b == 0 {
                        return Err(DbError::Query("division by zero".into()));
                    }
                    Value::Int(a / b)
                }
                _ => unreachable!(),
            },
            (Value::Str(a), Value::Str(b)) if op == Add => Value::Str(format!("{a}{b}")),
            _ => {
                let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
                    return Err(DbError::Query(format!(
                        "arithmetic requires numbers, found {l} and {r}"
                    )));
                };
                match op {
                    Add => Value::Float(a + b),
                    Sub => Value::Float(a - b),
                    Mul => Value::Float(a * b),
                    Div => {
                        if b == 0.0 {
                            return Err(DbError::Query("division by zero".into()));
                        }
                        Value::Float(a / b)
                    }
                    _ => unreachable!(),
                }
            }
        },
        And | Or => unreachable!("handled with short-circuit"),
    })
}

/// SQL-style `%` wildcard matching (no `_`), the subset POOL needs.
fn like_match(s: &str, pattern: &str) -> bool {
    let parts: Vec<&str> = pattern.split('%').collect();
    if parts.len() == 1 {
        return s == pattern;
    }
    let mut rest = s;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if i == 0 {
            match rest.strip_prefix(part) {
                Some(r) => rest = r,
                None => return false,
            }
        } else if i == parts.len() - 1 {
            return rest.ends_with(part);
        } else {
            match rest.find(part) {
                Some(pos) => rest = &rest[pos + part.len()..],
                None => return false,
            }
        }
    }
    true
}

fn eval_call<R: Reader>(
    db: &R,
    name: &str,
    args: &[CallArg],
    env: &Env,
    context: Option<Oid>,
    cx: Cx<'_>,
) -> DbResult<Value> {
    // Aggregate / collection argument: a subquery's first column or a list.
    let collection = |arg: &CallArg| -> DbResult<Vec<Value>> {
        match arg {
            CallArg::Query(q) => Ok(evaluate_with_env_cx(db, q, env, cx)?.first_column()),
            CallArg::Expr(e) => Ok(collection_of(eval_expr_cx(db, e, env, context, cx)?)),
        }
    };
    let scalar = |arg: &CallArg| -> DbResult<Value> {
        match arg {
            CallArg::Expr(e) => eval_expr_cx(db, e, env, context, cx),
            CallArg::Query(q) => {
                let c = evaluate_with_env_cx(db, q, env, cx)?.first_column();
                Ok(c.into_iter().next().unwrap_or(Value::Null))
            }
        }
    };
    let need = |n: usize| -> DbResult<()> {
        if args.len() != n {
            return Err(DbError::Query(format!("{name}() expects {n} argument(s)")));
        }
        Ok(())
    };
    match name {
        "count" => {
            need(1)?;
            Ok(Value::Int(collection(&args[0])?.len() as i64))
        }
        "collect" => {
            need(1)?;
            Ok(Value::List(collection(&args[0])?))
        }
        "min" | "max" => {
            need(1)?;
            let items = collection(&args[0])?;
            let it = items.into_iter().filter(|v| *v != Value::Null);
            Ok(if name == "min" { it.min() } else { it.max() }.unwrap_or(Value::Null))
        }
        "sum" | "avg" => {
            need(1)?;
            let items = collection(&args[0])?;
            let mut total = 0.0;
            let mut count = 0usize;
            let mut all_int = true;
            let mut int_total = 0i64;
            for v in &items {
                match v {
                    Value::Int(i) => {
                        int_total += i;
                        total += *i as f64;
                        count += 1;
                    }
                    Value::Float(x) => {
                        all_int = false;
                        total += x;
                        count += 1;
                    }
                    Value::Null => {}
                    other => {
                        return Err(DbError::Query(format!("{name}() over non-number {other}")))
                    }
                }
            }
            if name == "sum" {
                Ok(if all_int {
                    Value::Int(int_total)
                } else {
                    Value::Float(total)
                })
            } else if count == 0 {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(total / count as f64))
            }
        }
        "length" => {
            need(1)?;
            Ok(Value::Int(collection(&args[0])?.len() as i64))
        }
        "first" => {
            need(1)?;
            Ok(collection(&args[0])?
                .into_iter()
                .next()
                .unwrap_or(Value::Null))
        }
        "oid" => {
            need(1)?;
            match scalar(&args[0])? {
                Value::Ref(oid) => Ok(Value::Int(oid.raw() as i64)),
                other => Err(DbError::Query(format!(
                    "oid() expects a reference, found {other}"
                ))),
            }
        }
        "class" => {
            need(1)?;
            match scalar(&args[0])? {
                Value::Ref(oid) => Ok(Value::Str(db.class_of(oid)?)),
                other => Err(DbError::Query(format!(
                    "class() expects a reference, found {other}"
                ))),
            }
        }
        "starts_with" | "ends_with" => {
            need(2)?;
            match (scalar(&args[0])?, scalar(&args[1])?) {
                (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(if name == "starts_with" {
                    s.starts_with(&p)
                } else {
                    s.ends_with(&p)
                })),
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Bool(false)),
                (a, b) => Err(DbError::Query(format!(
                    "{name}() expects strings, found {a}, {b}"
                ))),
            }
        }
        "capitalized" => {
            // First character is uppercase — the ICBN capitalisation rules
            // (genus-name rule, Figure 36) need exactly this predicate.
            need(1)?;
            match scalar(&args[0])? {
                Value::Str(s) => Ok(Value::Bool(
                    s.chars().next().map(char::is_uppercase).unwrap_or(false),
                )),
                Value::Null => Ok(Value::Bool(false)),
                other => Err(DbError::Query(format!(
                    "capitalized() expects a string, found {other}"
                ))),
            }
        }
        "index_of" => {
            // Position of the first argument among the rest, or null when it
            // is null or absent: an order stated as data (the ICBN rank
            // lattice, Figures 38–40) without teaching POOL its names.
            if args.len() < 2 {
                return Err(DbError::Query(
                    "index_of() expects at least 2 arguments".into(),
                ));
            }
            let x = scalar(&args[0])?;
            if x == Value::Null {
                return Ok(Value::Null);
            }
            for (i, arg) in args[1..].iter().enumerate() {
                // A literal is compared in place, not cloned out.
                let found = match arg {
                    CallArg::Expr(Expr::Literal(v)) => *v == x,
                    other => scalar(other)? == x,
                };
                if found {
                    return Ok(Value::Int(i as i64));
                }
            }
            Ok(Value::Null)
        }
        "lower" | "upper" => {
            need(1)?;
            match scalar(&args[0])? {
                Value::Str(s) => Ok(Value::Str(if name == "lower" {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                Value::Null => Ok(Value::Null),
                other => Err(DbError::Query(format!(
                    "{name}() expects a string, found {other}"
                ))),
            }
        }
        "date" => {
            if args.is_empty() || args.len() > 3 {
                return Err(DbError::Query("date() expects 1 to 3 arguments".into()));
            }
            let mut parts = [1i64, 1, 1];
            for (i, arg) in args.iter().enumerate() {
                match scalar(arg)? {
                    Value::Int(n) => parts[i] = n,
                    other => {
                        return Err(DbError::Query(format!(
                            "date() expects integers, found {other}"
                        )))
                    }
                }
            }
            Ok(Value::Date(prometheus_object::Date::new(
                parts[0] as i32,
                parts[1] as u8,
                parts[2] as u8,
            )))
        }
        other => Err(DbError::Query(format!("unknown function '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_matching() {
        assert!(like_match("Apium", "Apium"));
        assert!(like_match("Apium", "Api%"));
        assert!(like_match("Apium", "%ium"));
        assert!(like_match("Apium", "%piu%"));
        assert!(like_match("Apium", "A%m"));
        assert!(!like_match("Apium", "B%"));
        assert!(!like_match("Apium", "%x%"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
    }

    #[test]
    fn binop_arithmetic_and_comparison() {
        assert_eq!(
            eval_binop(BinOp::Add, Value::Int(2), Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_binop(BinOp::Add, Value::from("a"), Value::from("b")).unwrap(),
            Value::from("ab")
        );
        assert_eq!(
            eval_binop(BinOp::Mul, Value::Int(2), Value::Float(1.5)).unwrap(),
            Value::Float(3.0)
        );
        assert!(eval_binop(BinOp::Div, Value::Int(1), Value::Int(0)).is_err());
        assert_eq!(
            eval_binop(BinOp::Lt, Value::Int(1), Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
    }
}
