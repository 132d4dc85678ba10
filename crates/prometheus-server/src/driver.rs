//! The one request driver under both transports.
//!
//! [`Driver`] is a connection's protocol engine with the socket removed: it
//! owns the session's [`SessionCore`], its open streamed unit and a request
//! parked in the writer queue, takes one decoded `(TraceId, Request)` at a
//! time and pushes the responses into a [`FrameEncoder`]. Everything a
//! request costs in bookkeeping happens here, once: the request counter,
//! trace adoption, the `Request` root span, the state machine step, the
//! writer-queue claim with its `lane_wait` span, unit open / settle /
//! rollback, work execution, error counting and the latency histogram.
//!
//! A lane-bound request draws one claim in the database's writer queue on
//! the shards [`lane_mask_for`] names and runs inside the unit the claim
//! opens once granted. A claim not granted at once *parks* the driver; its
//! wake callback — the one thing a transport supplies besides bytes — tells
//! the transport to call [`Driver::on_wake`]. The blocking transport waits
//! for it on the session's own thread, the event loop reschedules the
//! session. Because nothing here performs I/O, a unit held on the same
//! database is all a test needs to drive a session through a park.

use crate::core::{SessionCore, Step, Work};
use crate::error::ErrorKind;
use crate::frame::{FrameDecoder, FrameEncoder};
use crate::protocol::{Request, Response};
use crate::server::{db_err, execute_work, initiate_shutdown, lane_mask_for, Shared};
use prometheus_db::database::{UnitClaim, UnitToken};
use prometheus_trace::{Span, Stage, TraceId, TraceScope};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// How a transport learns that a parked request's claim was granted. It
/// runs on whichever thread freed the shards, so it must not block.
pub(crate) type Wake = Arc<dyn Fn() + Send + Sync>;

/// Why a streamed unit ends without the client settling it.
pub(crate) enum UnitEnd {
    /// The connection closed (EOF, transport error, reaped, server
    /// shutdown) with the unit still open.
    Disconnected,
    /// The unit sat silent past `unit_idle_timeout`; the session survives.
    TimedOut,
}

/// A streamed unit between `UnitBegin` and its settlement: it keeps its
/// claim across requests, and `mask` is that claim's shards.
struct OpenUnit {
    token: UnitToken,
    mask: u64,
}

/// What to do once the claim is granted.
enum Deferred {
    /// `UnitBegin` was acked; keep the unit open across requests.
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

/// A lane-bound request waiting in the writer queue.
struct Parked {
    what: Deferred,
    mask: u64,
    claim: UnitClaim,
    /// The real `lane_wait` span: `c0` the claims ahead at draw that overlap
    /// the mask, `c1 = 1` (pinned queries record a synthetic `c1 = 0` one
    /// instead). It closes when the claim is granted.
    wait: Span,
    flight: InFlight,
}

/// A connection's protocol engine; see the [module docs](self).
pub(crate) struct Driver {
    shared: Arc<Shared>,
    core: SessionCore,
    unit: Option<OpenUnit>,
    parked: Option<Parked>,
    wake: Wake,
    closing: bool,
}

impl Driver {
    /// A session's driver; `wake` is how its transport hears that a parked
    /// request's claim was granted.
    pub(crate) fn new(shared: &Arc<Shared>, session: u64, wake: Wake) -> Driver {
        let primary = shared.replica.as_ref().map(|r| r.primary.clone());
        Driver {
            shared: Arc::clone(shared),
            core: SessionCore::new(session, primary),
            unit: None,
            parked: None,
            wake,
            closing: false,
        }
    }

    /// Whether a streamed unit is open — the transport applies
    /// `unit_idle_timeout` instead of `idle_timeout` while it is.
    pub(crate) fn in_unit(&self) -> bool {
        self.unit.is_some()
    }

    /// Whether a request waits in the writer queue. A parked session takes
    /// no further requests until [`Driver::on_wake`] completes it.
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.is_some()
    }
    /// Whether the connection must close once the encoder has drained.
    pub(crate) fn is_closing(&self) -> bool {
        self.closing
    }

    /// The next whole request `decoder` holds, if the session may take one:
    /// not while it is parked in the writer queue, not once it is closing.
    /// A corrupt stream cannot be resynchronised: it is counted and the
    /// connection closes.
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
    pub(crate) fn on_request(&mut self, out: &mut FrameEncoder, wire_trace: TraceId, req: Request) {
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
        // every span any layer records (lane wait, planning, execution,
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
            // Ack precedes the claim on purpose: a queued writer learns it
            // is queued by its *next* response stalling, exactly like the
            // in-process API blocking in the queue. A streamed unit's ops
            // arrive one frame at a time, so no shard mask can be inferred
            // up front: claim every shard.
            Step::OpenUnit => {
                self.send(out, trace, &Response::Ack);
                let mask = self.shared.db.db().store().all_shards_mask();
                return self.claim(out, Deferred::OpenUnit, mask, flight);
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
            }
            Step::Do(work) => {
                // Infer the mask once, here, and run under exactly that
                // claim: recomputing it inside `execute_work` would advance
                // the round-robin home hint a second time and could home a
                // creation batch on a shard outside the claim.
                let mask = lane_mask_for(&self.shared, &work);
                if mask != 0 {
                    return self.claim(out, Deferred::Work(work), mask, flight);
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

    /// Carry on with the parked request if its claim is granted — run it
    /// and close its books — or stay parked. The transport calls this once
    /// the claim's wake has run; a call before that changes nothing.
    pub(crate) fn on_wake(&mut self, out: &mut FrameEncoder) {
        let Some(parked) = self.parked.take() else {
            return;
        };
        let token = match self.shared.db.db().take_unit(parked.claim) {
            Ok(token) => token,
            Err(claim) => {
                self.parked = Some(Parked { claim, ..parked });
                return;
            }
        };
        let Parked {
            what,
            mask,
            wait,
            flight,
            ..
        } = parked;
        drop(wait);
        let trace = flight.root.trace_id();
        let _scope = TraceScope::enter(trace, flight.root.id());
        match what {
            // Detached: the thread serves other sessions between this
            // unit's requests, so the unit must not stay bound to it.
            Deferred::OpenUnit => {
                self.core.unit_opened();
                self.unit = Some(OpenUnit { token, mask });
            }
            Deferred::Work(work) => {
                let resp = self.run_claimed(token, work, mask);
                self.send(out, trace, &resp);
            }
        }
        self.finish(flight);
    }

    /// End a streamed unit the client did not settle: roll it back — which
    /// frees its claim, so no queued writer ever sees half of it — count
    /// why and tell the core. No-op without an open unit.
    pub(crate) fn end_unit(&mut self, why: UnitEnd) {
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
    }

    /// The connection is gone: roll back an open unit and drop a parked
    /// claim, which leaves the queue by itself, granted or not.
    pub(crate) fn disconnect(&mut self) {
        self.end_unit(UnitEnd::Disconnected);
        self.parked = None;
    }

    /// Draw one claim on `mask` for the request in `flight`, and run the
    /// request at once if it is granted.
    fn claim(&mut self, out: &mut FrameEncoder, what: Deferred, mask: u64, flight: InFlight) {
        let mut wait = self.shared.recorder.span(Stage::LaneWait);
        let wake = Arc::clone(&self.wake);
        let claim = self.shared.db.db().claim_unit_on(mask, move || wake());
        wait.set_counters(claim.ahead(), 1);
        self.parked = Some(Parked {
            what,
            mask,
            claim,
            wait,
            flight,
        });
        self.on_wake(out);
    }

    /// Run one-shot lane-bound work inside the unit its claim opened, and
    /// settle the unit: commit it when the work succeeded, roll it back
    /// when it failed.
    fn run_claimed(&mut self, token: UnitToken, work: Work, mask: u64) -> Response {
        let (shared, core) = (&self.shared, &mut self.core);
        let db = shared.db.db();
        let resp = db.with_unit_bound(&token, |_| execute_work(shared, core, work, mask));
        if let Response::Error { .. } = resp {
            db.abort_unit(token);
            return resp;
        }
        match db.commit_unit(token) {
            Ok(()) => {
                if let Response::Batch { .. } = resp {
                    shared
                        .metrics
                        .units_committed
                        .fetch_add(1, Ordering::Relaxed);
                }
                resp
            }
            Err(e) => db_err(e.to_string()),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{MutationOp, PROTOCOL_VERSION};
    use crate::server::ServerConfig;
    use prometheus_db::{Prometheus, StoreOptions, Value};
    use std::sync::atomic::AtomicU64;

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
    /// timed exactly once, whether its claim is granted at once or after a
    /// park. A unit held on the same database from another token parks the
    /// driver; settling it grants the claim.
    #[test]
    fn latency_is_recorded_once_per_request_parked_or_not() {
        let shared = shared("latency");
        let db = shared.db.db();
        let woken = Arc::new(AtomicU64::new(0));
        let wake: Wake = {
            let woken = Arc::clone(&woken);
            Arc::new(move || {
                woken.fetch_add(1, Ordering::Relaxed);
            })
        };
        let mut driver = Driver::new(&shared, 1, wake);
        let mut out = FrameEncoder::new();
        let ask = |driver: &mut Driver, out: &mut FrameEncoder, req| {
            driver.on_request(out, TraceId::NONE, req);
        };
        // (requests counted, latency samples taken)
        let books = || {
            let m = shared.metrics.snapshot();
            (m.requests_total(), m.latency.count)
        };
        // A unit held from another token, bound to no thread.
        let hold = || {
            let claim = db.claim_unit_on(0, || {});
            db.take_unit(claim)
                .ok()
                .expect("an idle queue grants at once")
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            client: "scripted".into(),
        };
        ask(&mut driver, &mut out, hello);
        ask(&mut driver, &mut out, Request::Ping);
        // Granted at once: batch, then a streamed unit.
        let batch = Request::UnitBatch {
            ops: vec![genus("Apium")],
        };
        ask(&mut driver, &mut out, batch);
        assert_eq!(db.claims_on(0), 0, "a batch lets its claim go");
        ask(&mut driver, &mut out, Request::UnitBegin);
        assert!(driver.in_unit());
        let op = Request::UnitOp {
            op: genus("Daucus"),
        };
        ask(&mut driver, &mut out, op);
        ask(&mut driver, &mut out, Request::UnitCommit);
        assert!(!driver.in_unit());
        assert_eq!(db.claims_on(0), 0);
        assert_eq!(books(), (6, 6));
        assert_eq!(responses(&mut out).len(), 6);

        // Parked, then granted: the ack goes out, nothing else happens —
        // no unit, no latency sample — until the holder settles.
        let held = hold();
        ask(&mut driver, &mut out, Request::UnitBegin);
        assert!(driver.is_parked() && !driver.in_unit());
        assert_eq!(responses(&mut out), [Response::Ack]);
        assert_eq!(books(), (7, 6));
        driver.on_wake(&mut out);
        assert!(driver.is_parked(), "no grant while the holder holds");
        db.commit_unit(held).unwrap();
        assert_eq!(woken.load(Ordering::Relaxed), 1);
        driver.on_wake(&mut out);
        assert!(!driver.is_parked() && driver.in_unit());
        assert_eq!(books(), (7, 7));

        // A timed-out unit is rolled back and counted, its claim released,
        // and the next request — whatever it asks — is told.
        driver.end_unit(UnitEnd::TimedOut);
        assert_eq!(db.claims_on(0), 0);
        ask(&mut driver, &mut out, Request::Ping);
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
        // nothing is sampled, and `disconnect` leaves only the holder's
        // claim in the queue.
        let held = hold();
        let batch = Request::UnitBatch {
            ops: vec![genus("Torilis")],
        };
        ask(&mut driver, &mut out, batch);
        assert!(driver.is_parked());
        assert_eq!(db.claims_on(0), 2);
        driver.disconnect();
        assert_eq!(db.claims_on(0), 1);
        db.abort_unit(held);
        assert_eq!(db.claims_on(0), 0);
        assert_eq!(books(), (9, 8));
        let m = shared.metrics.snapshot();
        assert_eq!((m.units_committed, m.units_timed_out), (2, 1));
        assert_eq!(m.units_rolled_back_on_disconnect, 0);
    }
}
