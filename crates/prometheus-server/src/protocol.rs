//! Versioned request/response messages of the Prometheus wire protocol.
//!
//! One request frame yields exactly one response frame. The protocol is
//! deliberately small: a handshake, POOL queries, PCL installation, units of
//! work (streamed or batched), maintenance (compact/stats) and connection
//! control. Every message is encoded with `prometheus_storage::codec` inside
//! a [`crate::frame`] envelope.
//!
//! ## Versioning
//!
//! The first request on a connection must be [`Request::Hello`] carrying
//! [`PROTOCOL_VERSION`]; the server answers [`Response::Welcome`] or an
//! error. Because the codec is not self-describing, *all* other messages are
//! only interpretable once the handshake has pinned the version — the server
//! drops connections that skip it.
//!
//! ## Units of work
//!
//! A client opens a unit with [`Request::UnitBegin`], streams
//! [`Request::UnitOp`]s (interleaving queries freely), then settles it with
//! [`Request::UnitCommit`] or [`Request::UnitAbort`]. While a unit is open
//! the session exclusively holds the server's writer lane — the wire-level
//! reflection of the engine's single-writer discipline. A connection that
//! drops mid-unit has its unit rolled back by the server (see
//! `tests/server_concurrency.rs`). [`Request::UnitBatch`] is the one-frame
//! convenience form: all ops run in a single unit, atomically.

use prometheus_db::{Oid, QueryResult, Value};
use prometheus_storage::StatsSnapshot;
use prometheus_trace::TraceEvent;
use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;
use crate::slowlog::SlowLogEntry;

/// Wire protocol version; bumped on any incompatible message change.
///
/// v2, v5, v6: each appended scalar counters to the positional `Stats`
/// structs and changed nothing else — a peer one counter behind could not
/// decode the response. v9 is what they would have needed.
///
/// v3: observability — [`Request::Trace`]/[`Request::SlowLog`] with the
/// matching [`Response::Trace`]/[`Response::SlowLog`], carrying span events
/// from the server's trace ring and entries from the slow-query log.
/// (`EXPLAIN`/`PROFILE` need no new messages: they travel as ordinary
/// queries and answer with rows.)
///
/// v4: replication — [`Request::ReplicaPoll`]/[`Request::ReplicaStatus`]
/// with [`Response::ReplicaFrames`]/[`Response::ReplicaReset`]/
/// [`Response::ReplicaStatus`]; `MetricsSnapshot` gained per-request-class
/// latency histograms and per-follower replication lag; a version-mismatched
/// handshake now answers the typed `protocol-mismatch` error kind.
///
/// v7: sharding — [`Request::ReplicaPoll`] gained `shard` (followers keep
/// one cursor per shard log) and `MetricsSnapshot` gained the per-shard
/// breakdown ([`crate::metrics::ShardMetrics`]).
///
/// v8: distributed tracing — the *frame envelope* gained a fixed 128-bit
/// trace id ahead of every payload (see [`crate::frame`]), which is
/// envelope-breaking: a v7 peer's frames no longer parse at all, in either
/// direction. [`Request::TraceGet`] / [`Response::TraceTree`] assemble one
/// trace's merged span tree (with follower spans when reachable);
/// `TraceEvent::trace_id` widened to the two-word `TraceId`;
/// `SlowLogEntry` gained `lane_mask` and `lane_wait_us`; and
/// `MetricsSnapshot` gained `build_info` and per-stage trace rollup
/// histograms.
///
/// v9: self-describing stats — the scalars of `MetricsSnapshot` and the
/// storage `StatsSnapshot` travel as a list of `(exposition name, value)`
/// pairs and are read back by name (`prometheus_trace::counter_table!`):
/// an unknown name is skipped, a missing one reads zero. Had v2, v5 and v6
/// had this, none of them would exist — a counter is now one table row and
/// no version. This is the last bump a scalar causes; a new *non-scalar*
/// stats field (a histogram family, a labelled list) is still positional
/// and still needs one.
pub const PROTOCOL_VERSION: u16 = 9;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake; must be the first request on a connection.
    Hello { version: u16, client: String },
    /// Liveness probe.
    Ping,
    /// Run a POOL query. If the session has a classification context set
    /// (see [`Request::SetContext`]) and the query has no `in
    /// classification` clause of its own, the session context is applied.
    Query { pool: String },
    /// Set (or clear, with `None`) this session's classification context.
    SetContext { classification: Option<String> },
    /// Translate a PCL document and install the resulting rules.
    InstallPcl { source: String },
    /// Open a unit of work; the session takes the writer lane until the
    /// unit is settled or the connection drops.
    UnitBegin,
    /// One mutation inside the open unit.
    UnitOp { op: MutationOp },
    /// Commit the open unit.
    UnitCommit,
    /// Roll back the open unit.
    UnitAbort,
    /// Run all `ops` inside one unit, committing on success and rolling the
    /// whole batch back on the first failure.
    UnitBatch { ops: Vec<MutationOp> },
    /// Compact the backing log.
    Compact,
    /// Server + storage counters.
    Stats,
    /// The newest `n` span events from the server's trace ring.
    Trace { n: u32 },
    /// The newest `n` slow-query log entries.
    SlowLog { n: u32 },
    /// Ask the server to shut down gracefully (drain and close).
    Shutdown,
    /// Close this session politely.
    Bye,
    /// A replication follower asks for committed log frames of one member
    /// `shard` from `offset` within that shard's log `epoch`, batched to
    /// roughly `max_bytes`. `follower` is a stable name the primary uses
    /// for per-follower lag accounting; followers keep an independent
    /// `(epoch, offset)` cursor per shard.
    ReplicaPoll {
        follower: String,
        shard: u32,
        epoch: u64,
        offset: u64,
        max_bytes: u64,
    },
    /// Replication role and position of the answering server; clients use
    /// this for lag-aware routing.
    ReplicaStatus,
    /// Assemble the span tree of one distributed trace from this server's
    /// flight recorder. A primary merges in reachable followers' replay
    /// spans; a follower merges in the primary's spans. Read-only, so it
    /// works against either role.
    TraceGet { trace_id: prometheus_trace::TraceId },
}

/// Coarse request classes, each with its own latency histogram: a query's
/// latency profile and a replication poll's have nothing in common, and one
/// merged histogram hides both.
pub const REQUEST_CLASSES: [&str; 5] = ["query", "unit", "observability", "replication", "other"];
const QUERY: usize = 0;
const UNIT: usize = 1;
const OBSERVABILITY: usize = 2;
const REPLICATION: usize = 3;
const OTHER: usize = 4;

/// The one table of request kinds: a row per [`Request`] variant gives its
/// stable name and its [`REQUEST_CLASSES`] index, and the row's position is
/// [`Request::kind`]. The generated `match` is exhaustive, so a variant
/// without a row does not compile.
macro_rules! request_kinds {
    ($($variant:ident => $name:literal, $class:ident;)*) => {
        /// `(name, class)` of every request kind, indexed by [`Request::kind`].
        pub const KINDS: [(&str, usize); [$($name),*].len()] = [$(($name, $class)),*];

        impl Request {
            /// This request's index into [`KINDS`]: what per-kind metrics
            /// count by and the root span records as `c0`.
            pub fn kind(&self) -> usize {
                enum Row {
                    $($variant),*
                }
                match self {
                    $(Request::$variant { .. } => Row::$variant as usize),*
                }
            }
        }
    };
}

request_kinds! {
    Hello => "hello", OTHER;
    Ping => "ping", OTHER;
    Query => "query", QUERY;
    SetContext => "set_context", OTHER;
    InstallPcl => "install_pcl", UNIT;
    UnitBegin => "unit_begin", UNIT;
    UnitOp => "unit_op", UNIT;
    UnitCommit => "unit_commit", UNIT;
    UnitAbort => "unit_abort", UNIT;
    UnitBatch => "unit_batch", UNIT;
    Compact => "compact", OTHER;
    Stats => "stats", OBSERVABILITY;
    Trace => "trace", OBSERVABILITY;
    SlowLog => "slow_log", OBSERVABILITY;
    Shutdown => "shutdown", OTHER;
    Bye => "bye", OTHER;
    ReplicaPoll => "replica_poll", REPLICATION;
    ReplicaStatus => "replica_status", REPLICATION;
    TraceGet => "trace_get", OBSERVABILITY;
}

impl Request {
    /// Short stable name, used for per-kind metrics.
    pub fn kind_name(&self) -> &'static str {
        KINDS[self.kind()].0
    }
}

/// A mutation applied inside a unit of work.
///
/// These map one-to-one onto the object-layer API, so the full §4.4
/// relationship semantics (cardinality, exclusivity, cycles, rules …) are
/// enforced server-side exactly as for in-process callers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MutationOp {
    /// `Database::create_object`.
    CreateObject {
        class: String,
        attrs: Vec<(String, Value)>,
    },
    /// `Database::set_attr`.
    SetAttr {
        oid: Oid,
        attr: String,
        value: Value,
    },
    /// `Database::delete_object`.
    DeleteObject { oid: Oid },
    /// `Database::create_relationship`.
    CreateRelationship {
        class: String,
        origin: Oid,
        destination: Oid,
        attrs: Vec<(String, Value)>,
    },
    /// `Database::delete_relationship`.
    DeleteRelationship { oid: Oid },
    /// `Database::create_classification`.
    CreateClassification {
        name: String,
        attrs: Vec<(String, Value)>,
        strict_hierarchy: bool,
    },
    /// `Database::add_edge_to_classification`.
    AddEdgeToClassification { classification: Oid, rel: Oid },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted.
    Welcome { version: u16, session: u64 },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Query result set.
    Rows(WireRows),
    /// Generic success for requests with nothing to return.
    Ack,
    /// A creating [`MutationOp`] succeeded.
    Created { oid: Oid },
    /// OIDs created by a [`Request::UnitBatch`], in op order (`Oid::NIL`
    /// for ops that create nothing).
    Batch { created: Vec<Oid> },
    /// Number of rules a PCL document installed.
    Installed { rules: usize },
    /// Server + storage counters. Boxed: the snapshot dwarfs every other
    /// variant, and responses are built once and serialized immediately.
    Stats {
        server: Box<MetricsSnapshot>,
        storage: StatsSnapshot,
    },
    /// Span events from the trace ring, oldest first.
    Trace { events: Vec<TraceEvent> },
    /// Slow-query log entries, oldest first.
    SlowLog { entries: Vec<SlowLogEntry> },
    /// The request failed; the session stays usable unless the transport
    /// itself broke.
    Error {
        kind: crate::error::ErrorKind,
        message: String,
    },
    /// Answer to [`Request::Bye`]; the server closes after sending it.
    Goodbye,
    /// Committed log frames for a [`Request::ReplicaPoll`] whose cursor was
    /// valid. An empty `frames` with `next_offset == log_len` means the
    /// follower is caught up.
    ReplicaFrames {
        epoch: u64,
        frames: Vec<prometheus_storage::LogRecord>,
        next_offset: u64,
        log_len: u64,
    },
    /// The poll's cursor is from a previous log epoch (the primary
    /// compacted) or otherwise meaningless: the follower must discard its
    /// local state and re-poll from offset zero with the given epoch.
    ReplicaReset { epoch: u64, log_len: u64 },
    /// Answer to [`Request::ReplicaStatus`].
    ReplicaStatus(Box<ReplicaStatusInfo>),
    /// Answer to [`Request::TraceGet`]: every span the reachable flight
    /// recorders still hold for the trace, labelled with the process that
    /// recorded each. Empty `spans` means the trace aged out of (or never
    /// entered) every ring.
    TraceTree {
        trace_id: prometheus_trace::TraceId,
        spans: Vec<TraceSpan>,
    },
}

/// One span of an assembled distributed trace: the raw event plus which
/// process's flight recorder it came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// `"primary"`, `"replica"`, or a follower's configured name.
    pub origin: String,
    /// The recorded span event.
    pub event: TraceEvent,
}

/// Replication role and position of a server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStatusInfo {
    /// `"primary"` or `"replica"`.
    pub role: String,
    /// For a replica: the primary address writes should go to.
    pub primary: Option<String>,
    /// Log epoch this server is on (for a replica: the primary epoch it
    /// last synced against).
    pub epoch: u64,
    /// Committed log length. For a replica this equals its applied cursor;
    /// for a primary it is the replication horizon followers chase.
    pub log_len: u64,
    /// The replica's applied byte cursor (equals `log_len` on a primary).
    pub applied_offset: u64,
    /// Microseconds since this replica last confirmed it was caught up with
    /// the primary's horizon; 0 on a primary. Grows without bound while the
    /// primary is unreachable, which is exactly what staleness routing
    /// needs.
    pub caught_up_age_us: u64,
    /// Number of full resyncs this replica has performed.
    pub resyncs: u64,
}

/// A query result in wire form: column labels plus row-major values.
///
/// [`QueryResult`] itself holds evaluator-side types; this is the stable
/// plain-data projection that crosses the network.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WireRows {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl WireRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// First-column OIDs, mirroring `QueryResult::oids` for the common
    /// `select x from Class x` shape.
    pub fn oids(&self) -> Vec<Oid> {
        self.rows
            .iter()
            .filter_map(|row| row.first().and_then(|v| v.as_ref_oid()))
            .collect()
    }
}

impl From<QueryResult> for WireRows {
    fn from(result: QueryResult) -> Self {
        WireRows {
            columns: result.columns,
            rows: result.rows.into_iter().map(|row| row.columns).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prometheus_storage::codec;

    /// The compiler checks every variant has a row; this checks the rows:
    /// position is `kind()`, names are distinct, classes exist.
    #[test]
    fn kinds_table_is_indexed_by_kind() {
        assert_eq!(
            Request::Hello {
                version: 1,
                client: String::new()
            }
            .kind(),
            0
        );
        assert_eq!(Request::Ping.kind_name(), "ping");
        let last = Request::TraceGet {
            trace_id: prometheus_trace::TraceId::NONE,
        };
        assert_eq!(last.kind(), KINDS.len() - 1);
        assert_eq!(last.kind_name(), "trace_get");
        assert_eq!(REQUEST_CLASSES[KINDS[last.kind()].1], "observability");
        for (i, (name, class)) in KINDS.iter().enumerate() {
            assert!(*class < REQUEST_CLASSES.len(), "{name} has no class");
            assert!(KINDS[..i].iter().all(|k| k.0 != *name), "{name} twice");
        }
    }

    #[test]
    fn requests_round_trip_through_the_codec() {
        let samples = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
                client: "test".into(),
            },
            Request::Ping,
            Request::Query {
                pool: "select t from CT t".into(),
            },
            Request::SetContext {
                classification: Some("Linnaeus 1753".into()),
            },
            Request::SetContext {
                classification: None,
            },
            Request::InstallPcl {
                source: "context CT pre w: self.rank != null".into(),
            },
            Request::UnitBegin,
            Request::UnitOp {
                op: MutationOp::SetAttr {
                    oid: Oid::from_raw(7),
                    attr: "working_name".into(),
                    value: Value::Str("Apium".into()),
                },
            },
            Request::UnitCommit,
            Request::UnitAbort,
            Request::UnitBatch {
                ops: vec![MutationOp::CreateObject {
                    class: "CT".into(),
                    attrs: vec![("working_name".into(), Value::Str("x".into()))],
                }],
            },
            Request::Compact,
            Request::Stats,
            Request::Trace { n: 64 },
            Request::SlowLog { n: 16 },
            Request::Shutdown,
            Request::Bye,
            Request::ReplicaPoll {
                follower: "replica-1".into(),
                shard: 1,
                epoch: 2,
                offset: 4096,
                max_bytes: 1 << 20,
            },
            Request::ReplicaStatus,
            Request::TraceGet {
                trace_id: prometheus_trace::TraceId::from_words(0xdead, 0xbeef),
            },
        ];
        for req in samples {
            let bytes = codec::to_bytes(&req).unwrap();
            let back: Request = codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip_through_the_codec() {
        let samples = vec![
            Response::Welcome {
                version: 1,
                session: 42,
            },
            Response::Pong,
            Response::Rows(WireRows {
                columns: vec!["t".into()],
                rows: vec![vec![Value::Ref(Oid::from_raw(3))], vec![Value::Null]],
            }),
            Response::Ack,
            Response::Created {
                oid: Oid::from_raw(9),
            },
            Response::Batch {
                created: vec![Oid::from_raw(1), Oid::NIL],
            },
            Response::Installed { rules: 4 },
            Response::Trace {
                events: vec![TraceEvent {
                    trace_id: prometheus_trace::TraceId::from_words(9, 1),
                    span_id: 2,
                    parent_id: 0,
                    stage: prometheus_trace::Stage::Scan,
                    start_us: 10,
                    dur_us: 250,
                    c0: 42,
                    c1: 1,
                }],
            },
            Response::SlowLog {
                entries: vec![crate::slowlog::SlowLogEntry {
                    session: 3,
                    query: "select t from CT t".into(),
                    context: Some("Linnaeus 1753".into()),
                    trace_id: prometheus_trace::TraceId::from_words(9, 1),
                    fingerprint: 0xdead_beef,
                    dur_us: 120_000,
                    rows: 2,
                    pinned: true,
                    lane_mask: 0b101,
                    lane_wait_us: 350,
                }],
            },
            Response::Error {
                kind: crate::error::ErrorKind::Db,
                message: "unknown class 'XT'".into(),
            },
            Response::Error {
                kind: crate::error::ErrorKind::ReadOnlyReplica,
                message: "writes go to 127.0.0.1:7070".into(),
            },
            Response::Goodbye,
            Response::ReplicaFrames {
                epoch: 1,
                frames: vec![
                    prometheus_storage::LogRecord::Begin { txn: 7 },
                    prometheus_storage::LogRecord::Put {
                        txn: 7,
                        oid: Oid::from_raw(3),
                        bytes: vec![1, 2, 3],
                    },
                    prometheus_storage::LogRecord::Commit {
                        txn: 7,
                        next_oid: 4,
                    },
                ],
                next_offset: 512,
                log_len: 2048,
            },
            Response::ReplicaReset {
                epoch: 3,
                log_len: 128,
            },
            Response::ReplicaStatus(Box::new(ReplicaStatusInfo {
                role: "replica".into(),
                primary: Some("127.0.0.1:7070".into()),
                epoch: 3,
                log_len: 1024,
                applied_offset: 1024,
                caught_up_age_us: 1500,
                resyncs: 1,
            })),
            Response::TraceTree {
                trace_id: prometheus_trace::TraceId::from_words(0xdead, 0xbeef),
                spans: vec![TraceSpan {
                    origin: "primary".into(),
                    event: TraceEvent {
                        trace_id: prometheus_trace::TraceId::from_words(0xdead, 0xbeef),
                        span_id: 4,
                        parent_id: 0,
                        stage: prometheus_trace::Stage::UnitDecide,
                        start_us: 5,
                        dur_us: 7,
                        c0: 3,
                        c1: 1,
                    },
                }],
            },
        ];
        for resp in samples {
            let bytes = codec::to_bytes(&resp).unwrap();
            let back: Response = codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn wire_rows_extract_oids_like_query_results() {
        let rows = WireRows {
            columns: vec!["t".into(), "name".into()],
            rows: vec![
                vec![Value::Ref(Oid::from_raw(5)), Value::Str("a".into())],
                vec![Value::Str("not-a-ref".into()), Value::Str("b".into())],
                vec![Value::Ref(Oid::from_raw(8)), Value::Null],
            ],
        };
        assert_eq!(rows.oids(), vec![Oid::from_raw(5), Oid::from_raw(8)]);
        assert_eq!(rows.len(), 3);
        assert!(!rows.is_empty());
    }
}
