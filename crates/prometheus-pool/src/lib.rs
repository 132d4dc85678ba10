//! # prometheus-pool
//!
//! POOL — the *Prometheus Object Oriented Language* (thesis chapter 5.1):
//! OQL extended with uniform treatment of objects and relationships,
//! relationship traversal operators, recursive graph exploration with depth
//! control, selective downcast, classification contexts and graph
//! extraction.
//!
//! ## Syntax overview
//!
//! ```text
//! select [distinct] expr [, expr ...]
//! from   Class x [, Class y ...]
//! [in classification "name"]
//! [where predicate]
//! [order by expr [desc]]
//! [limit n]
//! ```
//!
//! Expressions:
//!
//! * `x.name` — attribute access (inheritance-aware, including attributes
//!   inherited from relationships, §4.4.5);
//! * `x -> Rel` / `x <- Rel` — destinations / origins one relationship step
//!   away (the *uniform* operators of §5.1.1.2);
//! * `x -> Rel*` — transitive closure (depth ≥ 1); `x -> Rel?` — depth 0–1;
//!   `x -> Rel[2..4]` — explicit depth bounds (§5.1.1.3 graph exploration);
//! * `x ->> Rel` / `x <<- Rel` — the relationship *instances* themselves,
//!   so relationships can be selected and filtered like objects;
//! * `(CT) x` — selective downcast: keeps `x` when it is a `CT` (or
//!   subclass), else null (§5.1, "selective downcast");
//! * `x in (select …)`, `exists (select …)` — subqueries (§5.1.2.5);
//! * `count(…)`, `min/max/sum/avg(…)` over a subquery or collection;
//! * `oid(x)`, `class(x)`, `lower(s)`, `upper(s)`, `date(y)`,
//!   `date(y, m, d)`;
//! * `index_of(x, v1, …, vn)` — the position of `x` among the listed
//!   values, or null when `x` is null or absent (how a rule states an order,
//!   such as the ICBN rank lattice, as data);
//! * `s like "Api%"` — prefix/suffix/infix string matching;
//! * the usual comparison, boolean and arithmetic operators.
//!
//! POOL is **select-only**, as the thesis specifies (§5.1.2.1): queries
//! never mutate; updates go through the object API inside units of work, so
//! object conservation (§5.1.2.2) holds — query results are the stored
//! objects themselves (references), never copies.
//!
//! The optional `in classification "…"` clause makes the query *contextual*
//! (§4.6.2): `from` variables range over the classification's participants
//! and every traversal operator follows only that classification's edges.
//!
//! ## Example
//!
//! ```text
//! select t.name
//! from CT t
//! in classification "Linnaeus 1753"
//! where exists (select s from Specimen s
//!               where s in t -> Circumscribes* and s.code = "RBGE-107")
//! order by t.name
//! ```

pub mod ast;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod printer;

pub use ast::{BinOp, Expr, FromClause, OrderKey, Query, UnOp};
pub use eval::{QueryResult, Row};
pub use exec::{ExecStatsSnapshot, Executor, QueryPlan};
use prometheus_object::{DbError, DbResult, Reader};

/// Parse a POOL query string.
pub fn parse(input: &str) -> DbResult<Query> {
    let tokens = lexer::lex(input).map_err(DbError::Query)?;
    parser::Parser::new(tokens)
        .parse_query()
        .map_err(DbError::Query)
}

/// A top-level POOL statement: a plain query, or a query wrapped in one of
/// the introspection verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// Execute the query and return its rows.
    Select(Query),
    /// Render the plan (`EXPLAIN <query>`); nothing is executed.
    Explain(Query),
    /// Execute the query and return its span tree (`PROFILE <query>`).
    Profile(Query),
}

/// How a statement's text should be dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    Select,
    Explain,
    Profile,
}

/// Split an introspection verb off the front of a statement, returning the
/// kind and the bare query text. `EXPLAIN`/`PROFILE` are case-insensitive
/// and must be followed by whitespace; everything else is a plain select.
pub fn split_statement(input: &str) -> (StatementKind, &str) {
    let trimmed = input.trim_start();
    for (verb, kind) in [
        ("explain", StatementKind::Explain),
        ("profile", StatementKind::Profile),
    ] {
        // Compare bytes, not a `str` slice: `verb.len()` need not be a char
        // boundary of arbitrary wire input (e.g. `profilé x`), and slicing
        // off-boundary panics. A byte match implies the prefix is ASCII, so
        // the slice below is boundary-safe.
        if trimmed.len() > verb.len()
            && trimmed.as_bytes()[..verb.len()].eq_ignore_ascii_case(verb.as_bytes())
            && trimmed.as_bytes()[verb.len()].is_ascii_whitespace()
        {
            return (kind, trimmed[verb.len()..].trim_start());
        }
    }
    (StatementKind::Select, trimmed)
}

/// Parse a top-level POOL statement (`EXPLAIN`/`PROFILE` prefix allowed).
pub fn parse_statement(input: &str) -> DbResult<Statement> {
    let (kind, text) = split_statement(input);
    let query = parse(text)?;
    Ok(match kind {
        StatementKind::Select => Statement::Select(query),
        StatementKind::Explain => Statement::Explain(query),
        StatementKind::Profile => Statement::Profile(query),
    })
}

/// Parse and evaluate a POOL query.
///
/// Generic over [`Reader`], so the whole query can run either against the
/// live [`prometheus_object::Database`] or against a pinned
/// [`prometheus_object::ReadView`] snapshot (lock-free, consistent).
pub fn query<R: Reader>(db: &R, input: &str) -> DbResult<QueryResult> {
    let q = parse(input)?;
    eval::evaluate(db, &q)
}

/// Members of a persisted view, for `from view "name" x` sources.
pub(crate) fn view_members<R: Reader>(db: &R, name: &str) -> DbResult<Vec<prometheus_object::Oid>> {
    let view = prometheus_object::View::load(db, name)?;
    Ok(view.members(db)?.into_iter().collect())
}

/// Parse a standalone POOL expression (no `select`). The rule engine uses
/// this for conditions, evaluated later against event bindings.
pub fn parse_expr(input: &str) -> DbResult<Expr> {
    let tokens = lexer::lex(input).map_err(DbError::Query)?;
    parser::Parser::new(tokens)
        .parse_standalone_expr()
        .map_err(DbError::Query)
}

/// Parse and evaluate a POOL *expression* (no `select`), with no variables
/// in scope. Useful for rule conditions over literals and functions.
pub fn eval_expr<R: Reader>(db: &R, input: &str) -> DbResult<prometheus_object::Value> {
    let tokens = lexer::lex(input).map_err(DbError::Query)?;
    let expr = parser::Parser::new(tokens)
        .parse_standalone_expr()
        .map_err(DbError::Query)?;
    let env = eval::Env::empty();
    eval::eval_expr(db, &expr, &env, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_statement_strips_the_verb_case_insensitively() {
        let (kind, text) = split_statement("  EXPLAIN select t from CT t");
        assert_eq!(kind, StatementKind::Explain);
        assert_eq!(text, "select t from CT t");
        let (kind, text) = split_statement("Profile\tselect t from CT t");
        assert_eq!(kind, StatementKind::Profile);
        assert_eq!(text, "select t from CT t");
    }

    #[test]
    fn a_verb_needs_trailing_whitespace_to_count() {
        // An identifier that merely starts with a verb is a plain select —
        // the parser will reject it, but the splitter must not eat it.
        let (kind, text) = split_statement("explainer");
        assert_eq!(kind, StatementKind::Select);
        assert_eq!(text, "explainer");
        let (kind, _) = split_statement("profile");
        assert_eq!(kind, StatementKind::Select);
    }

    #[test]
    fn multibyte_input_near_a_verb_boundary_does_not_panic() {
        // `é` is two bytes straddling the would-be slice at byte 7; this
        // used to panic on a non-char-boundary `str` slice.
        let (kind, text) = split_statement("profilé x");
        assert_eq!(kind, StatementKind::Select);
        assert_eq!(text, "profilé x");
        let (kind, _) = split_statement("explaiñ y");
        assert_eq!(kind, StatementKind::Select);
        // A multibyte char *after* the verb is fine and still splits.
        let (kind, text) = split_statement("profile séance");
        assert_eq!(kind, StatementKind::Profile);
        assert_eq!(text, "séance");
    }

    #[test]
    fn statements_parse_through_the_same_grammar() {
        let q = "select t from CT t";
        match parse_statement(&format!("explain {q}")).unwrap() {
            Statement::Explain(query) => assert_eq!(query, parse(q).unwrap()),
            other => panic!("expected Explain, got {other:?}"),
        }
        match parse_statement(&format!("profile {q}")).unwrap() {
            Statement::Profile(query) => assert_eq!(query, parse(q).unwrap()),
            other => panic!("expected Profile, got {other:?}"),
        }
        assert!(parse_statement("explain not a query").is_err());
    }
}
