//! The one request driver under both transports.
//!
//! [`Driver`] is a connection's protocol engine with the socket removed: it
//! owns the session's [`SessionCore`], its open streamed unit (the database
//! token and the writer-lane guards) and a request parked for a lane, takes
//! one decoded `(TraceId, Request)` at a time and pushes the responses into
//! a [`FrameEncoder`]. Everything a request costs in bookkeeping happens
//! here, once: the request counter, trace adoption, the `Request` root span,
//! the state machine step, lane acquisition with its `lane_wait` span, unit
//! open / settle / rollback, work execution, error counting and the latency
//! histogram.
//!
//! A transport supplies bytes in, bytes out, and a [`LaneSource`] — *how* a
//! writer lane is waited for, the only thing the two transports do
//! differently. The blocking source waits on the lane's condvar; the event
//! loop's source queues the session and answers "parked", and the loop hands
//! the guard to [`Driver::on_grant`] when the lane comes round. Because
//! nothing here performs I/O, a scripted lane source is all a test (or a
//! deterministic simulator) needs to drive whole sessions.

use crate::core::{SessionCore, Step, Work};
use crate::error::ErrorKind;
use crate::frame::{FrameDecoder, FrameEncoder};
use crate::lane::OwnedLaneGuard;
use crate::protocol::{Request, Response};
use crate::server::{db_err, execute_work, initiate_shutdown, lane_mask_for, Shared};
use prometheus_db::database::UnitToken;
use prometheus_trace::{Span, Stage, TraceId, TraceScope};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// How a transport obtains writer lanes for its sessions.
pub(crate) trait LaneSource {
    /// Draw a ticket on lane `lane` and hold the lane, or queue for it.
    /// Returns the ticket's distance from the head of the queue at draw time
    /// and the guard — `None` means *parked*: the transport keeps the ticket
    /// and passes the guard to [`Driver::on_grant`] once it is served. `out`
    /// holds the responses produced so far; a source that blocks must put
    /// them on the wire first, so a `UnitBegin` ack precedes the wait.
    fn acquire(&mut self, lane: usize, out: &mut FrameEncoder) -> (u64, Option<OwnedLaneGuard>);

    /// Lane `lane`'s guard was just dropped.
    fn released(&mut self, lane: usize);
}

/// Why a streamed unit ends without the client settling it.
pub(crate) enum UnitEnd {
    /// The connection closed (EOF, transport error, reaped, server
    /// shutdown) with the unit still open.
    Disconnected,
    /// The unit sat silent past `unit_idle_timeout`; the session survives.
    TimedOut,
}

/// A streamed unit between `UnitBegin` and its settlement: the lanes stay
/// held across requests, and `mask` is both the lanes and the unit's shard
/// claim.
struct OpenUnit {
    token: UnitToken,
    mask: u64,
    guards: Vec<(usize, OwnedLaneGuard)>,
}

/// What to do once every lane of a claim is held.
enum Deferred {
    /// `UnitBegin` was acked; open the unit and keep the lanes.
    OpenUnit,
    /// One-shot lane-bound work (batch, PCL install, compact).
    Work(Work),
}

/// One request's bookkeeping, from decode to response: it travels with a
/// parked claim so the request is counted, spanned and timed exactly once
/// however long it queues.
struct InFlight {
    kind: usize,
    start: Instant,
    root: Span,
}

/// A multi-lane claim in progress. Lanes are claimed in ascending index
/// order and each lane's ticket is drawn only after the previous lane is
/// *held* — a holder of lane `j` only ever waits on lanes `> j`, so sessions
/// on both transports are jointly deadlock-free. While parked the session is
/// queued on exactly one lane: the lowest unheld lane of the mask.
struct Claim {
    what: Deferred,
    mask: u64,
    held: Vec<(usize, OwnedLaneGuard)>,
    /// The real `lane_wait` span: `c0` the largest ticket distance seen,
    /// `c1 = 1` (pinned queries record a synthetic `c1 = 0` one instead).
    wait: Span,
    worst: u64,
    flight: InFlight,
}

/// A connection's protocol engine; see the [module docs](self).
pub(crate) struct Driver {
    shared: Arc<Shared>,
    core: SessionCore,
    unit: Option<OpenUnit>,
    parked: Option<Claim>,
    closing: bool,
}

impl Driver {
    pub(crate) fn new(shared: &Arc<Shared>, session: u64) -> Driver {
        let primary = shared.replica.as_ref().map(|r| r.primary.clone());
        Driver {
            shared: Arc::clone(shared),
            core: SessionCore::new(session, primary),
            unit: None,
            parked: None,
            closing: false,
        }
    }

    /// Whether a streamed unit is open — the transport applies
    /// `unit_idle_timeout` instead of `idle_timeout` while it is.
    pub(crate) fn in_unit(&self) -> bool {
        self.unit.is_some()
    }

    /// Whether a request is queued for a lane. A parked session takes no
    /// further requests until [`Driver::on_grant`] completes the claim.
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// Whether the connection must close once the encoder has drained.
    pub(crate) fn is_closing(&self) -> bool {
        self.closing
    }

    /// The next whole request `decoder` holds, if the session may take one:
    /// not while it is parked for a lane, not once it is closing. A corrupt
    /// stream cannot be resynchronised: it is counted and the connection
    /// closes.
    pub(crate) fn next_request(
        &mut self,
        decoder: &mut FrameDecoder,
    ) -> Option<(TraceId, Request)> {
        if self.closing || self.parked.is_some() {
            return None;
        }
        decoder.next_msg().unwrap_or_else(|_| {
            let errors = &self.shared.metrics.protocol_errors;
            errors.fetch_add(1, Ordering::Relaxed);
            self.closing = true;
            None
        })
    }

    /// Serve one decoded request.
    pub(crate) fn on_request(
        &mut self,
        lanes: &mut dyn LaneSource,
        out: &mut FrameEncoder,
        wire_trace: TraceId,
        req: Request,
    ) {
        let start = Instant::now();
        let kind = req.kind();
        self.shared.metrics.count_request(kind);
        // A client that stamped a trace id into the frame envelope is the
        // trace origin — adopt its id; otherwise mint one (still `NONE` when
        // the flight recorder is disabled). Either way the id is echoed in
        // the response envelope so the client can `TraceGet` the span tree.
        let trace = if wire_trace.is_none() {
            self.shared.recorder.new_trace_id()
        } else {
            wire_trace
        };
        // The request's root span: while it is the thread's trace scope,
        // every span any layer records (lane wait, plan cache, execution,
        // storage commit…) attaches to this trace.
        let mut root = self.shared.recorder.span_in(Stage::Request, trace, 0);
        root.set_counters(kind as u64, self.core.id());
        let _scope = TraceScope::enter(trace, root.id());
        let flight = InFlight { kind, start, root };
        match self.core.on_request(req) {
            Step::Reply(resp) => self.send(out, trace, &resp),
            Step::ReplyClose(resp) => {
                self.send(out, trace, &resp);
                self.closing = true;
            }
            Step::ShutdownAfter(resp) => {
                self.send(out, trace, &resp);
                initiate_shutdown(&self.shared);
                self.closing = true;
            }
            // Ack precedes the lanes on purpose: a queued writer learns it
            // is queued by its *next* response stalling, exactly like the
            // in-process API blocking on the lane. A streamed unit's ops
            // arrive one frame at a time, so no shard mask can be inferred
            // up front: claim every lane.
            Step::OpenUnit => {
                self.send(out, trace, &Response::Ack);
                let mask = self.shared.db.db().store().all_shards_mask();
                return self.claim(lanes, out, Deferred::OpenUnit, mask, flight);
            }
            Step::SettleUnit { commit } => {
                let unit = self.unit.take().expect("the core says a unit is open");
                let (db, metrics) = (self.shared.db.db(), &self.shared.metrics);
                let resp = if commit {
                    // commit_unit rolls the unit back itself on failure.
                    match db.commit_unit(unit.token) {
                        Ok(()) => {
                            metrics.units_committed.fetch_add(1, Ordering::Relaxed);
                            Response::Ack
                        }
                        Err(e) => db_err(e.to_string()),
                    }
                } else {
                    db.abort_unit(unit.token);
                    metrics.units_aborted.fetch_add(1, Ordering::Relaxed);
                    Response::Ack
                };
                self.core.unit_closed();
                self.send(out, trace, &resp);
                release(unit.guards, lanes);
            }
            Step::Do(work) => {
                // Infer the lane mask once, here, and execute under exactly
                // those lanes. The same mask becomes the unit's shard claim:
                // recomputing it inside `execute_work` would advance the
                // round-robin home hint a second time and could home a
                // creation batch on a shard whose lane we do not hold.
                let mask = lane_mask_for(&self.shared, &work);
                if mask != 0 {
                    return self.claim(lanes, out, Deferred::Work(work), mask, flight);
                }
                let (shared, core) = (&self.shared, &mut self.core);
                let resp = match &self.unit {
                    // An in-unit slice runs on whichever thread is handy;
                    // bind it to the session's unit for the slice so its
                    // staging, reads and events follow the unit, not the
                    // thread. Its mask is what the slow log reports.
                    Some(unit) => shared.db.db().with_unit_bound(&unit.token, |_| {
                        execute_work(shared, core, work, unit.mask)
                    }),
                    None => execute_work(shared, core, work, 0),
                };
                self.send(out, trace, &resp);
            }
        }
        self.finish(flight);
    }

    /// The transport claimed `lane` for this session's parked request: fold
    /// the guard in and carry on from where [`Driver::on_request`] stopped.
    pub(crate) fn on_grant(
        &mut self,
        lanes: &mut dyn LaneSource,
        out: &mut FrameEncoder,
        lane: usize,
        guard: OwnedLaneGuard,
    ) {
        match self.parked.take() {
            Some(mut claim) => {
                claim.held.push((lane, guard));
                self.advance(lanes, out, claim);
            }
            None => release(vec![(lane, guard)], lanes),
        }
    }

    /// End a streamed unit the client did not settle: roll it back, count
    /// why, tell the core, and only then let the lanes go — so no queued
    /// writer ever sees half of it. No-op without an open unit.
    pub(crate) fn end_unit(&mut self, lanes: &mut dyn LaneSource, why: UnitEnd) {
        let Some(unit) = self.unit.take() else { return };
        self.shared.db.db().abort_unit(unit.token);
        let counter = match why {
            UnitEnd::Disconnected => {
                self.core.unit_closed();
                &self.shared.metrics.units_rolled_back_on_disconnect
            }
            // The session survives; the client is told on its next frame.
            UnitEnd::TimedOut => {
                self.core.note_unit_timed_out();
                &self.shared.metrics.units_timed_out
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        release(unit.guards, lanes);
    }

    /// The connection is gone: roll back an open unit and free the lanes a
    /// parked claim already holds. (The ticket it was queued on is the
    /// transport's to retire.)
    pub(crate) fn disconnect(&mut self, lanes: &mut dyn LaneSource) {
        self.end_unit(lanes, UnitEnd::Disconnected);
        if let Some(claim) = self.parked.take() {
            release(claim.held, lanes);
        }
    }

    /// Start claiming the lanes in `mask` for the request in `flight`.
    fn claim(
        &mut self,
        lanes: &mut dyn LaneSource,
        out: &mut FrameEncoder,
        what: Deferred,
        mask: u64,
        flight: InFlight,
    ) {
        let mut wait = self.shared.recorder.span(Stage::LaneWait);
        wait.set_counters(0, 1);
        let claim = Claim {
            what,
            mask,
            held: Vec::new(),
            wait,
            worst: 0,
            flight,
        };
        self.advance(lanes, out, claim);
    }

    /// Walk the claim's mask upward from the last lane held; park where the
    /// source says so, and once every lane is held run the deferred action
    /// and close the request's books.
    fn advance(&mut self, lanes: &mut dyn LaneSource, out: &mut FrameEncoder, mut claim: Claim) {
        let lane_count = self.shared.writer_lanes.len();
        loop {
            let from = claim.held.last().map_or(0, |(k, _)| k + 1);
            let Some(lane) = (from..lane_count).find(|k| claim.mask >> k & 1 != 0) else {
                break;
            };
            let (distance, guard) = lanes.acquire(lane, out);
            claim.worst = claim.worst.max(distance);
            match guard {
                Some(guard) => claim.held.push((lane, guard)),
                None => {
                    self.parked = Some(claim);
                    return;
                }
            }
        }
        claim.wait.finish(claim.worst, 1);
        let (mask, flight) = (claim.mask, claim.flight);
        let trace = flight.root.trace_id();
        let _scope = TraceScope::enter(trace, flight.root.id());
        match claim.what {
            // Detached: the thread serves other sessions between this
            // unit's requests, so the unit must not stay bound to it.
            Deferred::OpenUnit => {
                let token = self.shared.db.db().begin_unit_detached();
                self.core.unit_opened();
                self.unit = Some(OpenUnit {
                    token,
                    mask,
                    guards: claim.held,
                });
            }
            Deferred::Work(work) => {
                let resp = execute_work(&self.shared, &mut self.core, work, mask);
                self.send(out, trace, &resp);
                release(claim.held, lanes);
            }
        }
        self.finish(flight);
    }

    /// Count and encode one response, echoing the request's trace id in the
    /// response envelope. This is the one place the error counters are
    /// bumped; `ShuttingDown` and `UnitTimedOut` are lifecycle notices, not
    /// request failures, and count nowhere.
    fn send(&mut self, out: &mut FrameEncoder, trace: TraceId, resp: &Response) {
        let metrics = &self.shared.metrics;
        if let Response::Error { kind, .. } = resp {
            match kind {
                ErrorKind::Protocol | ErrorKind::ProtocolMismatch => {
                    metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                ErrorKind::Db | ErrorKind::ReadOnlyReplica => {
                    metrics.db_errors.fetch_add(1, Ordering::Relaxed);
                }
                ErrorKind::ShuttingDown | ErrorKind::UnitTimedOut => {}
            }
        }
        if out.push(trace, resp).is_err() {
            // An unencodable response (oversized frame) leaves the client
            // waiting for an answer that cannot come; closing is the only
            // honest option.
            self.closing = true;
        }
    }

    /// Close a request's books: its root span and its latency sample.
    fn finish(&self, flight: InFlight) {
        drop(flight.root);
        let us = flight.start.elapsed().as_micros() as u64;
        self.shared.metrics.record_latency_us(flight.kind, us);
    }
}

/// Drop lane guards, telling the source which lanes came free.
fn release(guards: Vec<(usize, OwnedLaneGuard)>, lanes: &mut dyn LaneSource) {
    for (lane, guard) in guards {
        drop(guard);
        lanes.released(lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::TicketLane;
    use crate::protocol::{MutationOp, PROTOCOL_VERSION};
    use crate::server::ServerConfig;
    use prometheus_db::{Prometheus, StoreOptions, Value};

    /// A lane source with a script instead of a socket: lanes are claimed on
    /// the spot unless `park` says the next acquisition queues, in which
    /// case the test plays the event loop and grants the ticket itself.
    struct Scripted<'a> {
        shared: &'a Shared,
        park: bool,
        queued: Vec<(usize, u64)>,
        released: Vec<usize>,
    }

    impl LaneSource for Scripted<'_> {
        fn acquire(
            &mut self,
            lane: usize,
            _out: &mut FrameEncoder,
        ) -> (u64, Option<OwnedLaneGuard>) {
            let (ticket, distance) = self.shared.writer_lanes[lane].ticket_with_distance();
            if std::mem::take(&mut self.park) {
                self.queued.push((lane, ticket));
                return (distance, None);
            }
            let guard = TicketLane::try_claim(&self.shared.writer_lanes[lane], ticket);
            (distance, Some(guard.expect("scripted lane is free")))
        }

        fn released(&mut self, lane: usize) {
            self.released.push(lane);
        }
    }

    fn shared(name: &str) -> Arc<Shared> {
        let path = std::env::temp_dir().join(format!(
            "prometheus-driver-{name}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let db = Prometheus::open_with(
            path,
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        db.taxonomy().unwrap();
        let addr = "127.0.0.1:0".parse().unwrap();
        Arc::new(Shared::new(db, &ServerConfig::default(), addr))
    }

    fn genus(name: &str) -> MutationOp {
        MutationOp::CreateObject {
            class: "CT".into(),
            attrs: vec![
                ("working_name".into(), Value::Str(name.into())),
                ("rank".into(), Value::Str("Genus".into())),
            ],
        }
    }

    fn responses(out: &mut FrameEncoder) -> Vec<Response> {
        let mut decoder = FrameDecoder::new();
        decoder.extend(out.pending());
        out.consume(out.pending().len());
        std::iter::from_fn(|| decoder.next_msg::<Response>().unwrap())
            .map(|(_, resp)| resp)
            .collect()
    }

    /// Whole sessions with no socket anywhere: every request is counted and
    /// timed exactly once, whether its lanes come at once or after a park.
    #[test]
    fn latency_is_recorded_once_per_request_parked_or_not() {
        let shared = shared("latency");
        let mut lanes = Scripted {
            shared: &shared,
            park: false,
            queued: Vec::new(),
            released: Vec::new(),
        };
        let mut driver = Driver::new(&shared, 1);
        let mut out = FrameEncoder::new();
        let ask = |driver: &mut Driver, lanes: &mut Scripted<'_>, out: &mut FrameEncoder, req| {
            driver.on_request(lanes, out, TraceId::NONE, req);
        };
        // (requests counted, latency samples taken)
        let books = || {
            let m = shared.metrics.snapshot();
            (m.requests_total(), m.latency.count)
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            client: "scripted".into(),
        };
        ask(&mut driver, &mut lanes, &mut out, hello);
        ask(&mut driver, &mut lanes, &mut out, Request::Ping);
        // Lanes at once: batch, then a streamed unit.
        let batch = Request::UnitBatch {
            ops: vec![genus("Apium")],
        };
        ask(&mut driver, &mut lanes, &mut out, batch);
        assert_eq!(lanes.released, [0], "a batch lets its lane go");
        ask(&mut driver, &mut lanes, &mut out, Request::UnitBegin);
        assert!(driver.in_unit());
        let op = Request::UnitOp {
            op: genus("Daucus"),
        };
        ask(&mut driver, &mut lanes, &mut out, op);
        ask(&mut driver, &mut lanes, &mut out, Request::UnitCommit);
        assert!(!driver.in_unit());
        assert_eq!(lanes.released, [0, 0]);
        assert_eq!(books(), (6, 6));
        assert_eq!(responses(&mut out).len(), 6);

        // Parked, then granted: the ack goes out, nothing else happens —
        // no unit, no latency sample — until the grant arrives.
        lanes.park = true;
        ask(&mut driver, &mut lanes, &mut out, Request::UnitBegin);
        assert!(driver.is_parked() && !driver.in_unit());
        assert_eq!(responses(&mut out), [Response::Ack]);
        assert_eq!(books(), (7, 6));
        let (lane, ticket) = lanes.queued.pop().unwrap();
        let guard = TicketLane::try_claim(&shared.writer_lanes[lane], ticket).unwrap();
        driver.on_grant(&mut lanes, &mut out, lane, guard);
        assert!(!driver.is_parked() && driver.in_unit());
        assert_eq!(books(), (7, 7));

        // A timed-out unit is rolled back and counted, its lane released,
        // and the next request — whatever it asks — is told.
        driver.end_unit(&mut lanes, UnitEnd::TimedOut);
        assert_eq!(lanes.released, [0, 0, 0]);
        ask(&mut driver, &mut lanes, &mut out, Request::Ping);
        let told = responses(&mut out);
        assert!(
            matches!(
                told[..],
                [Response::Error {
                    kind: ErrorKind::UnitTimedOut,
                    ..
                }]
            ),
            "{told:?}"
        );

        // A parked batch on a connection that then drops: nothing runs,
        // nothing is sampled, and `disconnect` leaves no lane held.
        lanes.park = true;
        let batch = Request::UnitBatch {
            ops: vec![genus("Torilis")],
        };
        ask(&mut driver, &mut lanes, &mut out, batch);
        assert!(driver.is_parked());
        driver.disconnect(&mut lanes);
        assert_eq!(books(), (9, 8));
        let m = shared.metrics.snapshot();
        assert_eq!((m.units_committed, m.units_timed_out), (2, 1));
        assert_eq!(m.units_rolled_back_on_disconnect, 0);
    }
}
