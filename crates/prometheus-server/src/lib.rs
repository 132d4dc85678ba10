//! # prometheus-server — serving the Prometheus OODB over the wire
//!
//! The thesis (§2.4, §7) frames Prometheus as a *multi-user* taxonomic
//! database: several taxonomists build overlapping classifications against
//! one shared object store. This crate supplies that service layer for the
//! reproduction: a concurrent TCP server exposing a running
//! [`prometheus_db::Prometheus`] database through a compact, versioned,
//! binary wire protocol, plus the matching blocking client.
//!
//! * [`frame`] — length-prefixed, CRC-protected frames (the redo-log
//!   envelope, reused for the network), both blocking ([`frame::read_msg`] /
//!   [`frame::write_msg`], the client's) and incremental ([`FrameDecoder`] /
//!   [`FrameEncoder`], the server's), over one parser;
//! * [`protocol`] — versioned [`protocol::Request`]/[`protocol::Response`]
//!   messages: handshake, POOL queries, PCL installation, units of work
//!   (streamed and batched), compaction, stats, shutdown;
//! * [`core`] — the **sans-io** per-session protocol state machine
//!   ([`SessionCore`]): consumes decoded requests, answers with ready
//!   responses or typed [`Work`] items, and never touches a socket. One
//!   (also sans-io) request driver runs it under both transports below, so
//!   neither the protocol nor a request's bookkeeping — counters, spans,
//!   writer-queue claims, unit rollback — can drift between them;
//! * [`server`] — the two transports behind one [`serve`] entry point, each
//!   an I/O shell around that driver: the blocking accept-loop + worker-pool
//!   path ([`ServerConfig::io_threads`]` == 0`), and the **event-driven**
//!   path (`io_threads > 0`, Linux) where an epoll readiness loop ([`poll`],
//!   [`event`]) owns thousands of connections with a handful of threads and
//!   also serves the HTTP `GET /metrics` scrape endpoint. In both, queries
//!   run lock-free against pinned storage snapshots while every mutation
//!   takes one claim in the database's fair FIFO **writer queue** (see
//!   [`prometheus_db::database`]), the same queue an embedded writer waits
//!   in, so units never interleave on a shard; a unit that sits silent past
//!   the idle deadline is rolled back so the queue keeps moving;
//! * [`client`] — [`client::PrometheusClient`] and the RAII
//!   [`client::UnitGuard`];
//! * [`metrics`] — lock-free server counters, latency histograms (merged
//!   and per request class) and per-follower replication lag, queryable
//!   over the wire — and [`exposition`], their Prometheus text rendering;
//! * [`replica`] — the state a server carries when it runs as a read-only
//!   replication follower (see the `prometheus-replica` crate for the
//!   puller that drives it);
//! * [`error`] — transport, protocol and remote error types.
//!
//! ## Example
//!
//! ```no_run
//! use prometheus_db::Prometheus;
//! use prometheus_server::{serve, PrometheusClient, ServerConfig};
//!
//! let db = Prometheus::open("/tmp/flora.db").unwrap();
//! let handle = serve(db, ServerConfig::default()).unwrap();
//!
//! let mut client = PrometheusClient::connect(handle.addr()).unwrap();
//! client.set_context(Some("Linnaeus 1753")).unwrap();
//! let rows = client.query("select t.working_name from CT t").unwrap();
//! println!("{} taxa", rows.len());
//! client.close().unwrap();
//! handle.stop();
//! ```

pub mod client;
pub mod core;
mod driver;
pub mod error;
#[cfg(target_os = "linux")]
pub mod event;
pub mod exposition;
pub mod frame;
pub mod metrics;
#[cfg(target_os = "linux")]
pub mod poll;
pub mod protocol;
pub mod replica;
pub mod server;
pub mod slowlog;

pub use crate::core::{is_mutating, SessionCore, Step, Work};
pub use client::{ClientConfig, PollOutcome, PrometheusClient, UnitGuard};
pub use error::{ErrorKind, ServerError, ServerResult};
pub use exposition::render_prometheus_exposition;
pub use frame::{FrameDecoder, FrameEncoder, MAX_FRAME_LEN};
pub use metrics::{FollowerLag, LatencyHistogram, MetricsSnapshot, ServerMetrics};
pub use prometheus_trace::{render_tree, Recorder, Stage, StageRollup, TraceEvent, TraceId};
pub use protocol::{
    MutationOp, ReplicaStatusInfo, Request, Response, TraceSpan, WireRows, PROTOCOL_VERSION,
    REQUEST_CLASSES,
};
pub use replica::{ReplicaInfo, ReplicaStatusCell};
pub use server::{serve, ServerConfig, ServerConfigBuilder, ServerHandle};
pub use slowlog::{SlowLog, SlowLogEntry};
