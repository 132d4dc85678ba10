//! End-to-end observability over the wire: `EXPLAIN`/`PROFILE` POOL
//! statements, the trace ring (`Request::Trace`) and the slow-query log
//! (`Request::SlowLog`).
//!
//! Acceptance coverage for the tracing subsystem:
//!
//! * `PROFILE <query>` returns a span tree whose stages include the
//!   planning, the per-source scan (with row/index-seek counters),
//!   morsel execution (worker count) and the lane wait;
//! * a query slower than the server's threshold appears in the slow log
//!   with its plan fingerprint, pinned or inside a unit;
//! * `Trace { n }` returns well-formed span events.

use prometheus_db::{Prometheus, StoreOptions, Value};
use prometheus_server::{serve, PrometheusClient, ServerConfig, Stage, TraceEvent};
use prometheus_taxonomy::Rank;
use std::time::Duration;

fn tmp(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "prometheus-tracing-{name}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A server over a small taxonomy, logging *every* query as slow
/// (threshold zero) so the slow log is deterministic under test.
fn serve_traced(name: &str) -> prometheus_server::ServerHandle {
    let p = Prometheus::open_with(
        tmp(name),
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let tax = p.taxonomy().unwrap();
    tax.create_ct("Apium", Rank::Genus).unwrap();
    tax.create_ct("Heliosciadium", Rank::Genus).unwrap();
    tax.create_ct("Daucus", Rank::Genus).unwrap();
    serve(
        p,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            slow_query_threshold: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Column index by name in a wire result.
fn col(rows: &prometheus_server::WireRows, name: &str) -> usize {
    rows.columns
        .iter()
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("column {name} in {:?}", rows.columns))
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn as_int(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        other => panic!("expected int, got {other:?}"),
    }
}

#[test]
fn profile_returns_a_span_tree_with_all_stages() {
    let handle = serve_traced("profile");
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    let q = "select t.working_name from CT t order by t.working_name";
    let profile = client.query(&format!("profile {q}")).unwrap();

    let stage_col = col(&profile, "stage");
    let c0_col = col(&profile, "c0");
    let c1_col = col(&profile, "c1");
    let parent_col = col(&profile, "parent");
    let stages: Vec<String> = profile
        .rows
        .iter()
        .map(|r| as_str(&r[stage_col]).trim().to_string())
        .collect();
    for wanted in ["request", "lane_wait", "plan", "scan", "filter", "emit"] {
        assert!(
            stages.iter().any(|s| s == wanted),
            "profile must include a {wanted} span, got {stages:?}"
        );
    }

    let row_of = |stage: &str| {
        profile
            .rows
            .iter()
            .find(|r| as_str(&r[stage_col]).trim() == stage)
            .unwrap()
    };
    // Plan span: c1 is the plan's fingerprint.
    let plan = row_of("plan");
    assert_ne!(as_int(&plan[c1_col]), 0, "fingerprint recorded");
    // Scan span: c0 counts candidate rows (three genera seeded).
    let scan = row_of("scan");
    assert!(as_int(&scan[c0_col]) >= 3, "scan saw the extent: {scan:?}");
    // Filter (morsel execution): c1 is the worker count.
    let filter = row_of("filter");
    assert!(as_int(&filter[c1_col]) >= 1, "workers recorded: {filter:?}");
    // Lane wait is synthetic for a pinned query: c1 = 0 (never drew a
    // ticket), c0 = 0 (no holders ahead of a wait that never happened).
    let lane = row_of("lane_wait");
    assert_eq!(as_int(&lane[c0_col]), 0, "pinned query waits on nobody");
    assert_eq!(as_int(&lane[c1_col]), 0, "pinned query takes no lane");
    // Tree shape: exactly one root (the request span), everything else
    // parented inside the same trace.
    let roots = profile
        .rows
        .iter()
        .filter(|r| as_int(&r[parent_col]) == 0)
        .count();
    assert_eq!(roots, 1, "one request root span");

    client.close().unwrap();
    handle.stop();
}

#[test]
fn explain_renders_the_plan_without_executing() {
    let handle = serve_traced("explain");
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    let q = "select t from CT t where t.working_name = \"Apium\"";
    let explained = client.query(&format!("explain {q}")).unwrap();
    assert_eq!(explained.columns, vec!["plan".to_string()]);
    let text: Vec<String> = explained
        .rows
        .iter()
        .map(|r| as_str(&r[0]).to_string())
        .collect();
    assert!(
        text[0].starts_with("plan: schema ") && text[0].contains(", fingerprint "),
        "first line names the schema digest and the fingerprint: {text:?}"
    );
    assert!(
        text.iter().any(|l| l.contains("seed: index probe")),
        "equality on an indexed attr must seed: {text:?}"
    );
    assert!(text.iter().any(|l| l == "residual: none"), "{text:?}");
    assert!(text.iter().any(|l| l.starts_with("join:")), "{text:?}");
    // A join's leftover conjunct is placed where its last variable is bound,
    // and a haystack that names the outer variable alone is hoisted to it.
    let join = client
        .query(
            "explain select g.working_name, s.working_name from CT g, CT s \
             where g.working_name = \"Apium\" and s in g -> Circumscribes",
        )
        .unwrap();
    let residual = "residual: (s in (g -> Circumscribes)) [depth 2, haystack hoisted to depth 1]";
    assert!(
        join.rows.iter().any(|r| as_str(&r[0]) == residual),
        "{:?}",
        join.rows
    );
    client.close().unwrap();
    handle.stop();
}

#[test]
fn slow_queries_land_in_the_log_with_their_fingerprint() {
    let handle = serve_traced("slowlog");
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    let q = "select t.working_name from CT t order by t.working_name";
    client.query(q).unwrap();
    client.query(q).unwrap();

    let entries = client.slow_log(16).unwrap();
    assert!(!entries.is_empty(), "threshold zero must log every query");
    let ours: Vec<_> = entries.iter().filter(|e| e.query == q).collect();
    assert!(ours.len() >= 2, "both runs logged: {entries:?}");
    for e in &ours {
        assert_ne!(e.fingerprint, 0, "pinned query logs its plan fingerprint");
        assert!(e.pinned);
        assert_eq!(e.rows, 3);
        assert!(!e.trace_id.is_none(), "entry links to the trace ring");
    }
    // Same text, same schema: the fingerprint is stable across runs.
    assert_eq!(ours[0].fingerprint, ours[1].fingerprint);
    // The logged trace is still in the ring and carries the query's spans.
    let events = client.trace(u32::MAX).unwrap();
    let traced: Vec<&TraceEvent> = events
        .iter()
        .filter(|ev| ev.trace_id == ours[1].trace_id)
        .collect();
    assert!(
        traced.iter().any(|ev| ev.stage == Stage::Plan),
        "slow-log trace id resolves to spans in the ring: {traced:?}"
    );
    // The same query inside a streamed unit runs through the same executor
    // on the live database: its entry is not pinned and logs the same plan
    // fingerprint.
    let mut unit = client.begin_unit().unwrap();
    assert_eq!(unit.query(q).unwrap().len(), 3);
    unit.abort().unwrap();
    let in_unit: Vec<_> = client
        .slow_log(16)
        .unwrap()
        .into_iter()
        .filter(|e| e.query == q && !e.pinned)
        .collect();
    assert_eq!(in_unit.len(), 1, "the in-unit run is logged: {in_unit:?}");
    assert_ne!(in_unit[0].fingerprint, 0, "in-unit query logs its plan");
    assert_eq!(in_unit[0].fingerprint, ours[0].fingerprint);
    client.close().unwrap();
    handle.stop();
}

#[test]
fn trace_request_returns_well_formed_spans() {
    let handle = serve_traced("trace");
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    client
        .query("select t from CT t where t.rank = \"Genus\"")
        .unwrap();
    let events = client.trace(256).unwrap();
    assert!(!events.is_empty(), "the ring holds the session's requests");
    assert!(
        events.iter().any(|ev| ev.stage == Stage::Request),
        "request framing is spanned: {events:?}"
    );
    assert!(
        events.iter().any(|ev| ev.stage == Stage::Scan),
        "query execution is spanned: {events:?}"
    );
    for ev in &events {
        assert_ne!(ev.span_id, 0, "span ids are allocated: {ev:?}");
        assert!(!ev.trace_id.is_none(), "spans belong to a trace: {ev:?}");
    }
    // Mutations wait on the writer lane and say so.
    client
        .unit_batch(vec![prometheus_server::MutationOp::CreateObject {
            class: "CT".into(),
            attrs: vec![
                ("working_name".into(), Value::Str("Torilis".into())),
                ("rank".into(), Value::Str("Genus".into())),
            ],
        }])
        .unwrap();
    let events = client.trace(512).unwrap();
    assert!(
        events
            .iter()
            .any(|ev| ev.stage == Stage::LaneWait && ev.c1 == 1),
        "a real lane acquisition is spanned: {events:?}"
    );
    assert!(
        events.iter().any(|ev| ev.stage == Stage::Commit),
        "the storage commit is spanned: {events:?}"
    );
    client.close().unwrap();
    handle.stop();
}

#[test]
fn profile_inside_a_unit_sees_its_own_writes() {
    let handle = serve_traced("unitprofile");
    let mut client = PrometheusClient::connect(handle.addr()).unwrap();
    {
        let mut unit = client.begin_unit().unwrap();
        unit.create_object(
            "CT",
            vec![
                ("working_name".into(), Value::Str("Anethum".into())),
                ("rank".into(), Value::Str("Genus".into())),
            ],
        )
        .unwrap();
        // The profile runs on the live database inside the unit: the scan
        // must count the uncommitted fourth genus.
        let profile = unit.query("profile select t from CT t").unwrap();
        let stage_col = col(&profile, "stage");
        let c0_col = col(&profile, "c0");
        let scan = profile
            .rows
            .iter()
            .find(|r| as_str(&r[stage_col]).trim() == "scan")
            .expect("scan span");
        assert!(
            as_int(&scan[c0_col]) >= 4,
            "in-unit profile sees its own write: {scan:?}"
        );
        unit.abort().unwrap();
    }
    client.close().unwrap();
    handle.stop();
}
