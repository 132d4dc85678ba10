//! The POOL planner (§6.1.5.3): everything about a query that depends only
//! on its *text* and the *schema* — never on the data — resolved once,
//! ahead of execution.
//!
//! For each `from` clause the planner records a [`SourcePlan`]:
//!
//! * **index seed** — a top-level conjunct `var.attr = literal` over an
//!   attribute the schema declares `indexed` seeds the candidate set from
//!   the attribute index instead of the full deep extent;
//! * **pushed-down conjuncts** — conjuncts whose only `from` variable is
//!   this clause's filter its candidates *before* the join, so a
//!   two-variable query does not enumerate the full product.
//!
//! and for the query as a whole the [`Residual`]s: the conjuncts no source
//! takes, each placed at the depth of the join loop where its last `from`
//! variable is bound, with the haystack of an `in` hoisted out of the loops
//! it does not depend on.
//!
//! A plan depends only on query text and schema; [`crate::exec::Executor`]
//! makes one per query against the schema its reader sees.

use crate::ast::*;
use prometheus_object::{DbError, DbResult, Reader, Value};
use std::collections::BTreeSet;

/// Plan for one `from` clause.
#[derive(Debug, Clone)]
pub struct SourcePlan {
    /// `Some((attr, value))`: probe the attribute index for
    /// `class.attr = value` instead of scanning the extent.
    pub seed: Option<(String, Value)>,
    /// Indices into [`conjuncts_of`] of the query's where clause: conjuncts
    /// whose only `from` variable is this clause's, evaluated against each
    /// candidate before the join.
    pub pushdown: Vec<usize>,
}

/// A `where` conjunct no source takes — it names several `from` variables,
/// or none — so the join loop evaluates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residual {
    /// Index into [`conjuncts_of`] of the query's where clause.
    pub conjunct: usize,
    /// How many `from` variables, in clause order, are bound when it runs:
    /// one past the last it names, 0 when it names none. A binding it
    /// rejects is never extended to the variables after it.
    pub depth: usize,
    /// For `needle in haystack`: `Some(h)` when the haystack names no `from`
    /// variable past the first `h < depth`. It is then evaluated lazily, at
    /// most once per binding of those `h` variables, and probed for each
    /// needle.
    pub hoist: Option<usize>,
}

/// The text- and schema-dependent part of a query plan: one [`SourcePlan`]
/// per `from` clause, and the residual conjuncts in source order.
#[derive(Debug, Clone)]
pub struct PlanInfo {
    pub sources: Vec<SourcePlan>,
    pub residuals: Vec<Residual>,
}

/// Plan `q` against the current schema.
///
/// Fails like evaluation used to when a `from` clause names an unknown
/// class.
pub fn plan<R: Reader>(db: &R, q: &Query) -> DbResult<PlanInfo> {
    let from_vars: Vec<&str> = q.from.iter().map(|c| c.var.as_str()).collect();
    let conjuncts = match &q.where_clause {
        Some(w) => conjuncts_of(w),
        None => Vec::new(),
    };
    // Free-variable sets once per conjunct, not once per (conjunct, clause).
    let conjunct_free = free_sets(&conjuncts);
    let mut sources = Vec::with_capacity(q.from.len());
    for clause in &q.from {
        let pushdown = pushdown_of(&clause.var, &from_vars, &conjunct_free);
        if clause.view {
            sources.push(SourcePlan {
                seed: None,
                pushdown,
            });
            continue;
        }
        let known = db.with_schema(|s| {
            if clause.edges {
                s.rel_class(&clause.class).is_some()
            } else {
                s.class(&clause.class).is_some()
            }
        });
        if !known {
            return Err(DbError::Query(format!(
                "unknown {} '{}' in from clause",
                if clause.edges {
                    "relationship class"
                } else {
                    "class"
                },
                clause.class
            )));
        }
        sources.push(SourcePlan {
            seed: seed_of(db, clause, &conjuncts),
            pushdown,
        });
    }
    Ok(PlanInfo {
        sources,
        residuals: residuals_of(&from_vars, &conjuncts, &conjunct_free),
    })
}

/// The conjuncts [`pushdown_of`] gives to no source, placed in the join loop.
fn residuals_of(
    from_vars: &[&str],
    conjuncts: &[&Expr],
    conjunct_free: &[BTreeSet<String>],
) -> Vec<Residual> {
    // A later clause shadows an earlier one of the same name, so the last
    // position is where a variable takes the value a conjunct sees.
    let depth_of = |free: &BTreeSet<String>| {
        from_vars
            .iter()
            .rposition(|v| free.contains(*v))
            .map_or(0, |i| i + 1)
    };
    let mut residuals = Vec::new();
    for (i, (expr, free)) in conjuncts.iter().zip(conjunct_free).enumerate() {
        if free
            .iter()
            .filter(|v| from_vars.contains(&v.as_str()))
            .count()
            == 1
        {
            continue; // pushed down
        }
        let depth = depth_of(free);
        let hoist = match expr {
            Expr::In(_, source) => {
                let mut haystack_free = BTreeSet::new();
                match source.as_ref() {
                    InSource::Expr(e) => free_vars(e, &mut haystack_free),
                    InSource::Query(q) => query_free_vars(q, &mut haystack_free),
                }
                Some(depth_of(&haystack_free)).filter(|h| *h < depth)
            }
            _ => None,
        };
        residuals.push(Residual {
            conjunct: i,
            depth,
            hoist,
        });
    }
    residuals
}

/// The free variables of each conjunct.
fn free_sets(conjuncts: &[&Expr]) -> Vec<BTreeSet<String>> {
    conjuncts
        .iter()
        .map(|e| {
            let mut s = BTreeSet::new();
            free_vars(e, &mut s);
            s
        })
        .collect()
}

/// Conjuncts eligible for pushdown to `clause_var`: those whose free
/// variables, restricted to the query's own `from` variables, are exactly
/// `{clause_var}`. Free variables *outside* the `from` set don't block
/// pushdown — they resolve from the outer environment (correlated
/// subqueries) or raise the same unbound-variable error the unpushed
/// evaluation would raise.
fn pushdown_of(
    clause_var: &str,
    from_vars: &[&str],
    conjunct_free: &[BTreeSet<String>],
) -> Vec<usize> {
    conjunct_free
        .iter()
        .enumerate()
        .filter(|(_, free)| {
            let mut refs = free.iter().filter(|v| from_vars.contains(&v.as_str()));
            refs.next().map(String::as_str) == Some(clause_var) && refs.next().is_none()
        })
        .map(|(i, _)| i)
        .collect()
}

/// Index seeding: the first top-level conjunct `clause.var.attr = literal`
/// (either orientation) over an attribute the schema declares `indexed`.
/// The probe itself happens at execution time — only the *decision* (which
/// attribute, which value, is it indexed) is fixed here.
fn seed_of<R: Reader>(db: &R, clause: &FromClause, conjuncts: &[&Expr]) -> Option<(String, Value)> {
    if clause.edges {
        return None; // relationship attrs are not indexed
    }
    for e in conjuncts {
        if let Expr::Bin(BinOp::Eq, l, r) = e {
            for (attr_side, lit_side) in [(l, r), (r, l)] {
                if let (Expr::Attr(base, attr), Expr::Literal(v)) =
                    (attr_side.as_ref(), lit_side.as_ref())
                {
                    if let Expr::Var(name) = base.as_ref() {
                        if name == &clause.var && attr_is_indexed(db, &clause.class, attr) {
                            return Some((attr.clone(), v.clone()));
                        }
                    }
                }
            }
        }
    }
    None
}

fn attr_is_indexed<R: Reader>(db: &R, class: &str, attr: &str) -> bool {
    db.with_schema(|s| {
        s.all_attrs(class)
            .map(|attrs| attrs.iter().any(|a| a.name == attr && a.indexed))
            .unwrap_or(false)
    })
}

/// Flatten a where clause's top-level `and` tree, in source order. The
/// executor re-derives this from the query so [`SourcePlan::pushdown`]
/// indices stay plain numbers instead of self-references into the plan.
pub fn conjuncts_of(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    collect_conjuncts(expr, &mut out);
    out
}

fn collect_conjuncts<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Bin(BinOp::And, l, r) = expr {
        collect_conjuncts(l, out);
        collect_conjuncts(r, out);
    } else {
        out.push(expr);
    }
}

/// Free variables of an expression (including those referenced inside
/// subqueries, minus the subqueries' own `from` bindings).
pub fn free_vars(expr: &Expr, out: &mut BTreeSet<String>) {
    match expr {
        Expr::Literal(_) => {}
        Expr::Var(name) => {
            out.insert(name.clone());
        }
        Expr::Attr(base, _) => free_vars(base, out),
        Expr::Bin(_, l, r) => {
            free_vars(l, out);
            free_vars(r, out);
        }
        Expr::Un(_, e) => free_vars(e, out),
        Expr::Traverse { from, .. } | Expr::Edges { from, .. } => free_vars(from, out),
        Expr::Downcast { expr, .. } => free_vars(expr, out),
        Expr::In(needle, source) => {
            free_vars(needle, out);
            match source.as_ref() {
                InSource::Expr(e) => free_vars(e, out),
                InSource::Query(q) => query_free_vars(q, out),
            }
        }
        Expr::Exists(q) => query_free_vars(q, out),
        Expr::Call(_, args) => {
            for arg in args {
                match arg {
                    CallArg::Expr(e) => free_vars(e, out),
                    CallArg::Query(q) => query_free_vars(q, out),
                }
            }
        }
    }
}

fn query_free_vars(q: &Query, out: &mut BTreeSet<String>) {
    let mut inner = BTreeSet::new();
    for (e, _) in &q.projection {
        free_vars(e, &mut inner);
    }
    if let Some(w) = &q.where_clause {
        free_vars(w, &mut inner);
    }
    for k in &q.order_by {
        free_vars(&k.expr, &mut inner);
    }
    for clause in &q.from {
        inner.remove(&clause.var);
    }
    out.extend(inner);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(q: &str) -> Query {
        crate::parse(q).unwrap()
    }

    #[test]
    fn conjuncts_flatten_in_source_order() {
        let q = parse("select x from Object x where x.a = 1 and x.b = 2 and x.c = 3");
        let w = q.where_clause.as_ref().unwrap();
        let cs = conjuncts_of(w);
        assert_eq!(cs.len(), 3);
        for (i, attr) in ["a", "b", "c"].iter().enumerate() {
            assert!(
                matches!(cs[i], Expr::Bin(BinOp::Eq, l, _)
                    if matches!(l.as_ref(), Expr::Attr(_, a) if a == attr)),
                "conjunct {i} is {:?}",
                cs[i]
            );
        }
    }

    #[test]
    fn pushdown_selects_single_variable_conjuncts() {
        let q = parse(
            "select x, y from Object x, Object y \
             where x.a = 1 and y.b = 2 and x.c = y.c and x.d = outer_var",
        );
        let from_vars: Vec<&str> = q.from.iter().map(|c| c.var.as_str()).collect();
        let conjuncts = conjuncts_of(q.where_clause.as_ref().unwrap());
        let free = free_sets(&conjuncts);
        // x gets its own conjunct plus the correlated one; never x.c = y.c.
        assert_eq!(pushdown_of("x", &from_vars, &free), vec![0, 3]);
        assert_eq!(pushdown_of("y", &from_vars, &free), vec![1]);
    }

    #[test]
    fn residuals_run_where_their_last_variable_is_bound() {
        let residuals = |text: &str| {
            let q = parse(text);
            let from_vars: Vec<&str> = q.from.iter().map(|c| c.var.as_str()).collect();
            let conjuncts = conjuncts_of(q.where_clause.as_ref().unwrap());
            let free = free_sets(&conjuncts);
            residuals_of(&from_vars, &conjuncts, &free)
                .into_iter()
                .map(|r| (r.conjunct, r.depth, r.hoist))
                .collect::<Vec<_>>()
        };
        // Pushed-down conjuncts are no residual; a join conjunct runs once
        // both its variables are bound; one naming no variable runs first.
        assert_eq!(
            residuals(
                "select x from Object x, Object y, Object z \
                 where x.a = 1 and x.c = y.c and 1 = 1 and z.d = x.d"
            ),
            vec![(1, 2, None), (2, 0, None), (3, 3, None)]
        );
        // A haystack over x alone is hoisted out of the loops over y and z;
        // one that names the needle's own (innermost) variable is not.
        assert_eq!(
            residuals(
                "select x from Object x, Object y, Object z \
                 where z in x -> R and x in z <- R and y.a + z.a in (select w.a from Object w)"
            ),
            vec![(0, 3, Some(1)), (1, 3, None), (2, 3, Some(0))]
        );
        // A correlated subquery haystack is hoisted as far as its free
        // variables allow: past y, not past x.
        assert_eq!(
            residuals(
                "select x from Object x, Object y \
                 where y in (select w from Object w where w.a = x.a)"
            ),
            vec![(0, 2, Some(1))]
        );
    }

    #[test]
    fn subquery_from_vars_do_not_block_pushdown() {
        // The subquery binds s itself; only x is free in the conjunct.
        let q = parse(
            "select x from Object x \
             where exists (select s from Object s where s.a = x.a)",
        );
        let from_vars: Vec<&str> = q.from.iter().map(|c| c.var.as_str()).collect();
        let conjuncts = conjuncts_of(q.where_clause.as_ref().unwrap());
        let free = free_sets(&conjuncts);
        assert_eq!(free[0].iter().collect::<Vec<_>>(), vec!["x"]);
        assert_eq!(pushdown_of("x", &from_vars, &free), vec![0]);
    }
}
