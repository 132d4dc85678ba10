//! The sans-io session protocol core.
//!
//! [`SessionCore`] is the per-connection protocol state machine with every
//! byte of I/O removed: it consumes decoded [`Request`]s and answers with a
//! [`Step`] — a ready-made [`Response`], a unit to open or settle, or a
//! typed [`Work`] item to execute against the database.
//!
//! ## Who drives it
//!
//! One caller: the crate's request driver (`driver.rs`), itself sans-io,
//! which both transports run — the blocking one (`server.rs`, a thread per
//! live session) and the event-driven one (`event.rs`, a readiness loop
//! over non-blocking sockets) feed it decoded frames from a
//! [`crate::frame::FrameDecoder`] and differ only in how a parked
//! writer-queue claim is awaited (park the thread, or reschedule the
//! session when the claim is granted). What the driver does with a [`Step`]
//! is therefore one behaviour, not one per transport:
//!
//! * **The lane rule.** `server::lane_mask_for` is the one decision of
//!   which [`Work`] claims shards in the database's writer queue (batches,
//!   PCL install, compact); `UnitBegin` claims every shard after its ack.
//!   Each such request draws exactly one claim, granted whole.
//! * **The span rule.** Every request gets exactly one `Request` root span,
//!   covering a park in the writer queue as well as the execution after
//!   it. A real (`c1 = 1`) `lane_wait` span is recorded under that span for
//!   every claim — a `UnitBegin`'s claim is drawn inside the `UnitBegin`
//!   request's span — and an in-unit query's slow-log `lane_mask` is the
//!   mask its unit holds.
//!
//! ## State machine
//!
//! ```text
//!             Hello(v==N)                    UnitBegin (ack first,
//!  ┌───────┐ ───────────► ┌───────┐          then the writer queue)
//!  │ Fresh │              │ Ready │ ─────────────────────► ┌─────────┐
//!  └───────┘ ───────────► └───────┘ ◄───────────────────── │ In unit │
//!    Hello(v≠N) → close      │  ▲    UnitCommit/UnitAbort/ └─────────┘
//!    anything else → close   │  │    idle deadline (flag)
//!                            │  └── next request after a timed-out unit
//!                            ▼      answers `unit-timed-out`, then Ready
//!                       Bye/Shutdown → close
//! ```
//!
//! The core never touches sockets, clocks, metrics or the database — which
//! is exactly what makes it reusable: the transports own time (idle
//! deadlines) and I/O (framing, backpressure), the driver owns effects
//! (claims, units, [`Work`] execution, accounting), and the core owns
//! ordering and protocol legality.
//!
//! ```
//! use prometheus_server::{Request, Response, SessionCore, Step, Work, PROTOCOL_VERSION};
//!
//! let mut core = SessionCore::new(7, None);
//! // Handshake gates everything.
//! let step = core.on_request(Request::Hello {
//!     version: PROTOCOL_VERSION,
//!     client: "example".into(),
//! });
//! assert!(matches!(step, Step::Reply(Response::Welcome { session: 7, .. })));
//! // Pure protocol answers come back as `Reply`…
//! assert!(matches!(core.on_request(Request::Ping), Step::Reply(Response::Pong)));
//! // …requests that need the database come back as typed work items.
//! match core.on_request(Request::Query { pool: "select t from CT t".into() }) {
//!     Step::Do(Work::Query { pinned, .. }) => assert!(pinned), // out of unit → snapshot
//!     other => panic!("expected query work, got {other:?}"),
//! }
//! ```

use crate::error::ErrorKind;
use crate::protocol::{MutationOp, Request, Response, PROTOCOL_VERSION};

/// What the transport driver must do with one request, as decided by the
/// sans-io [`SessionCore`].
#[derive(Debug)]
pub enum Step {
    /// Send this response; the session continues.
    Reply(Response),
    /// Send this response, then close the connection.
    ReplyClose(Response),
    /// `UnitBegin` was accepted: send [`Response::Ack`] immediately, then
    /// claim every shard in the writer queue (FIFO; possibly queueing), open
    /// the claim's unit, and call [`SessionCore::unit_opened`]. The ack
    /// precedes the claim on purpose — a queued writer learns it is queued
    /// by its *next* response stalling, exactly like the in-process API
    /// blocking in the queue.
    OpenUnit,
    /// `UnitCommit` (`commit: true`) or `UnitAbort` inside an open unit:
    /// settle the unit's database token (which frees its claim), answer and
    /// call [`SessionCore::unit_closed`]. A step of its own rather than a
    /// [`Work`] item because the token lives with the driver — the work
    /// executor never sees a settlement.
    SettleUnit { commit: bool },
    /// Execute this work item against the database / observability state
    /// and send whatever response it produces.
    Do(Work),
    /// Send this response, then initiate server-wide graceful shutdown and
    /// close this connection.
    ShutdownAfter(Response),
}

/// A request the core cannot answer by itself: the driver executes it —
/// inside the unit of a claim on the shards `server::lane_mask_for` names,
/// the one place that decides which work is lane-bound — and sends the
/// resulting response.
#[derive(Debug, Clone, PartialEq)]
pub enum Work {
    /// Evaluate a POOL statement. `pinned` is true outside a unit (run on an
    /// immutable snapshot) and false inside one (run on the live database so
    /// the session observes its own uncommitted writes).
    Query { pool: String, pinned: bool },
    /// Validate and set (or clear) the session's classification context.
    SetContext { classification: Option<String> },
    /// Translate and install a PCL document. Claims its shards.
    InstallPcl { source: String },
    /// Run a whole batch atomically in one unit. Claims its shards.
    UnitBatch { ops: Vec<MutationOp> },
    /// Compact the redo log. Claims its shards.
    Compact,
    /// Server + storage counters.
    Stats,
    /// Recent trace-ring events.
    Trace { n: u32 },
    /// Recent slow-query log entries.
    SlowLog { n: u32 },
    /// Serve committed redo-log frames of one member shard to a
    /// replication follower.
    ReplicaPoll {
        follower: String,
        shard: u32,
        epoch: u64,
        offset: u64,
        max_bytes: u64,
    },
    /// Replication role and position.
    ReplicaStatus,
    /// Assemble one distributed trace's span tree from the flight
    /// recorder(s). Read-only: works on primaries and followers alike.
    TraceGet { trace_id: prometheus_trace::TraceId },
    /// One mutation inside the open unit.
    UnitOp { op: MutationOp },
}

/// The sans-io protocol state machine for one session.
///
/// Owns the session's protocol position (handshake done? unit open? timed
/// out?) and its classification context — the server-side analogue of a
/// taxonomist "working inside" one classification (§4.6.2); contexts are
/// per-session, so two clients can query the same database through
/// different classifications concurrently (see `examples/remote_repl.rs`).
/// Makes every ordering/legality decision. See the [module docs](self) for
/// the state diagram and a usage example.
#[derive(Debug)]
pub struct SessionCore {
    /// Server-assigned identifier, echoed in `Welcome`.
    id: u64,
    /// Classification context applied to queries without their own
    /// `in classification` clause.
    context: Option<String>,
    /// Whether the handshake completed.
    ready: bool,
    /// Set when the session's streamed unit was rolled back by the idle
    /// deadline; the next request is answered with a
    /// [`ErrorKind::UnitTimedOut`] error instead of being processed, then
    /// the flag clears.
    unit_timed_out: bool,
    /// Whether a streamed unit of work is currently open.
    in_unit: bool,
    /// `Some(primary_addr)` when serving as a read-only replication
    /// follower: every mutating verb is refused with a typed error naming
    /// the primary.
    replica_primary: Option<String>,
}

impl SessionCore {
    /// A fresh, pre-handshake session core. `replica_primary` is the
    /// primary's address when this server is a read-only follower.
    pub fn new(id: u64, replica_primary: Option<String>) -> SessionCore {
        SessionCore {
            id,
            context: None,
            ready: false,
            unit_timed_out: false,
            in_unit: false,
            replica_primary,
        }
    }

    /// Server-assigned session id (echoed in `Welcome`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether a streamed unit of work is open on this session.
    pub fn in_unit(&self) -> bool {
        self.in_unit
    }

    /// The session's classification context.
    pub fn context(&self) -> Option<&str> {
        self.context.as_deref()
    }

    /// Set (or clear) the session's classification context. Drivers call
    /// this after [`Work::SetContext`] validated the name against the
    /// database.
    pub fn set_context(&mut self, context: Option<String>) {
        self.context = context;
    }

    /// The driver opened a database unit for this session (after `OpenUnit`
    /// acquired the lane).
    pub fn unit_opened(&mut self) {
        self.in_unit = true;
    }

    /// The driver settled the open unit (commit, abort, or rollback on
    /// disconnect).
    pub fn unit_closed(&mut self) {
        self.in_unit = false;
    }

    /// The driver rolled the open unit back at the idle deadline: the next
    /// request — whatever it asks — answers with a typed
    /// [`ErrorKind::UnitTimedOut`] error, then the session is back to
    /// normal.
    pub fn note_unit_timed_out(&mut self) {
        self.in_unit = false;
        self.unit_timed_out = true;
    }

    /// Advance the state machine by one request.
    pub fn on_request(&mut self, req: Request) -> Step {
        if !self.ready {
            return match req {
                Request::Hello { version, .. } => {
                    if version != PROTOCOL_VERSION {
                        Step::ReplyClose(Response::Error {
                            kind: ErrorKind::ProtocolMismatch,
                            message: format!(
                                "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                            ),
                        })
                    } else {
                        self.ready = true;
                        Step::Reply(Response::Welcome {
                            version: PROTOCOL_VERSION,
                            session: self.id,
                        })
                    }
                }
                _ => Step::ReplyClose(Response::Error {
                    kind: ErrorKind::Protocol,
                    message: "handshake required: send Hello first".into(),
                }),
            };
        }
        if self.unit_timed_out {
            // The unit this session was streaming hit the idle deadline and
            // was rolled back. Answer the next frame — whatever it asked —
            // with the typed error, so the client never acts on the
            // assumption that the unit is still open; then the session is
            // back to normal.
            self.unit_timed_out = false;
            return Step::Reply(Response::Error {
                kind: ErrorKind::UnitTimedOut,
                message: "unit of work idled past the server deadline and was rolled back".into(),
            });
        }
        if self.in_unit {
            return match req {
                Request::UnitOp { op } => Step::Do(Work::UnitOp { op }),
                // In-unit reads stay on the live database: the session must
                // see its own uncommitted operations.
                Request::Query { pool } => Step::Do(Work::Query {
                    pool,
                    pinned: false,
                }),
                Request::Ping => Step::Reply(Response::Pong),
                Request::Stats => Step::Do(Work::Stats),
                Request::UnitCommit => Step::SettleUnit { commit: true },
                Request::UnitAbort => Step::SettleUnit { commit: false },
                other => Step::Reply(Response::Error {
                    kind: ErrorKind::Protocol,
                    message: format!(
                        "request '{}' is not allowed inside a unit of work",
                        other.kind_name()
                    ),
                }),
            };
        }
        // A follower is a full query endpoint but owns no redo log of its
        // own — its store is a replay of the primary's. Letting a write
        // through would fork the histories, so every mutating verb gets a
        // typed error that names where writes actually go.
        if let Some(primary) = &self.replica_primary {
            if is_mutating(&req) {
                return Step::Reply(Response::Error {
                    kind: ErrorKind::ReadOnlyReplica,
                    message: format!(
                        "this server is a read-only replica; send writes to the primary at {primary}"
                    ),
                });
            }
        }
        match req {
            Request::Hello { .. } => Step::Reply(Response::Error {
                kind: ErrorKind::Protocol,
                message: "duplicate handshake".into(),
            }),
            Request::Ping => Step::Reply(Response::Pong),
            Request::Query { pool } => Step::Do(Work::Query { pool, pinned: true }),
            Request::SetContext { classification } => Step::Do(Work::SetContext { classification }),
            Request::InstallPcl { source } => Step::Do(Work::InstallPcl { source }),
            Request::UnitBegin => Step::OpenUnit,
            Request::UnitOp { .. } | Request::UnitCommit | Request::UnitAbort => {
                Step::Reply(Response::Error {
                    kind: ErrorKind::Protocol,
                    message: "no unit of work is open on this session".into(),
                })
            }
            Request::UnitBatch { ops } => Step::Do(Work::UnitBatch { ops }),
            Request::Compact => Step::Do(Work::Compact),
            Request::Stats => Step::Do(Work::Stats),
            Request::Trace { n } => Step::Do(Work::Trace { n }),
            Request::SlowLog { n } => Step::Do(Work::SlowLog { n }),
            Request::TraceGet { trace_id } => Step::Do(Work::TraceGet { trace_id }),
            Request::ReplicaPoll {
                follower,
                shard,
                epoch,
                offset,
                max_bytes,
            } => Step::Do(Work::ReplicaPoll {
                follower,
                shard,
                epoch,
                offset,
                max_bytes,
            }),
            Request::ReplicaStatus => Step::Do(Work::ReplicaStatus),
            Request::Shutdown => Step::ShutdownAfter(Response::Ack),
            Request::Bye => Step::ReplyClose(Response::Goodbye),
        }
    }
}

/// Whether a request would mutate the database — the set a read-only
/// replication follower must reject. `Compact` counts: it rewrites the redo
/// log, and a follower's log is owned by its replication puller.
pub fn is_mutating(req: &Request) -> bool {
    matches!(
        req,
        Request::InstallPcl { .. }
            | Request::UnitBegin
            | Request::UnitOp { .. }
            | Request::UnitCommit
            | Request::UnitAbort
            | Request::UnitBatch { .. }
            | Request::Compact
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_core() -> SessionCore {
        let mut core = SessionCore::new(1, None);
        let step = core.on_request(Request::Hello {
            version: PROTOCOL_VERSION,
            client: "test".into(),
        });
        assert!(matches!(step, Step::Reply(Response::Welcome { .. })));
        core
    }

    #[test]
    fn handshake_gates_everything() {
        let mut core = SessionCore::new(1, None);
        match core.on_request(Request::Ping) {
            Step::ReplyClose(Response::Error { kind, .. }) => {
                assert_eq!(kind, ErrorKind::Protocol)
            }
            other => panic!("expected close, got {other:?}"),
        }
        let mut core = SessionCore::new(1, None);
        match core.on_request(Request::Hello {
            version: 999,
            client: "old".into(),
        }) {
            Step::ReplyClose(Response::Error { kind, message }) => {
                assert_eq!(kind, ErrorKind::ProtocolMismatch);
                assert!(message.contains("999"));
            }
            other => panic!("expected mismatch close, got {other:?}"),
        }
    }

    #[test]
    fn unit_state_restricts_the_request_set() {
        let mut core = ready_core();
        assert!(matches!(
            core.on_request(Request::UnitBegin),
            Step::OpenUnit
        ));
        core.unit_opened();
        assert!(core.in_unit());
        // Allowed inside a unit: ops, queries (unpinned), ping, stats,
        // settle verbs.
        match core.on_request(Request::Query { pool: "q".into() }) {
            Step::Do(Work::Query { pinned, .. }) => assert!(!pinned),
            other => panic!("expected unpinned query, got {other:?}"),
        }
        // Everything else is protocol misuse but keeps the session alive.
        match core.on_request(Request::Compact) {
            Step::Reply(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Protocol),
            other => panic!("expected protocol error, got {other:?}"),
        }
        assert!(matches!(
            core.on_request(Request::UnitCommit),
            Step::SettleUnit { commit: true }
        ));
        core.unit_closed();
        assert!(!core.in_unit());
        // Settle verbs outside a unit are misuse.
        match core.on_request(Request::UnitCommit) {
            Step::Reply(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Protocol),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn timed_out_flag_answers_exactly_one_request() {
        let mut core = ready_core();
        assert!(matches!(
            core.on_request(Request::UnitBegin),
            Step::OpenUnit
        ));
        core.unit_opened();
        core.note_unit_timed_out();
        match core.on_request(Request::Ping) {
            Step::Reply(Response::Error { kind, .. }) => {
                assert_eq!(kind, ErrorKind::UnitTimedOut)
            }
            other => panic!("expected timed-out error, got {other:?}"),
        }
        // The flag clears; the session is back to normal.
        assert!(matches!(
            core.on_request(Request::Ping),
            Step::Reply(Response::Pong)
        ));
    }

    #[test]
    fn replica_refuses_mutations_and_names_the_primary() {
        let mut core = SessionCore::new(1, Some("10.0.0.1:7070".into()));
        core.on_request(Request::Hello {
            version: PROTOCOL_VERSION,
            client: "t".into(),
        });
        match core.on_request(Request::UnitBegin) {
            Step::Reply(Response::Error { kind, message }) => {
                assert_eq!(kind, ErrorKind::ReadOnlyReplica);
                assert!(message.contains("10.0.0.1:7070"));
            }
            other => panic!("expected read-only error, got {other:?}"),
        }
        // Reads pass through untouched.
        assert!(matches!(
            core.on_request(Request::Query { pool: "q".into() }),
            Step::Do(Work::Query { pinned: true, .. })
        ));
    }

    #[test]
    fn shutdown_and_bye_close_politely() {
        let mut core = ready_core();
        assert!(matches!(
            core.on_request(Request::Shutdown),
            Step::ShutdownAfter(Response::Ack)
        ));
        let mut core = ready_core();
        assert!(matches!(
            core.on_request(Request::Bye),
            Step::ReplyClose(Response::Goodbye)
        ));
    }
}
