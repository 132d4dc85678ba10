//! The event-driven transport: a readiness loop that owns every connection.
//!
//! The blocking path in `server.rs` spends one thread per live session —
//! fine for tens of clients, hopeless for thousands of mostly-idle
//! herbarium terminals. This module serves the *same wire protocol* (the
//! same [`SessionCore`] state machine, frame format and counters) from a
//! fixed, tiny thread budget:
//!
//! ```text
//!   poll thread ── epoll_wait ──► ready queue ──► io workers (N threads)
//!        │                                            │
//!        │  accepts, idle/unit deadline scans,        │  read → FrameDecoder
//!        │  max_connections pause/resume              │  SessionCore::on_request
//!        │                                            │  execute_work / lane queue
//!        └── also owns the GET /metrics listener      │  FrameEncoder → write
//! ```
//!
//! Every socket is non-blocking and registered **one-shot**: after an event
//! fires the descriptor stays silent until the worker that served it
//! re-arms it, so at most one worker touches a connection at a time without
//! any per-connection thread.
//!
//! ## The writer lanes without blocking
//!
//! Workers must never block in [`TicketLane::wait`]: the current holder may
//! be an idle in-unit session whose commit frame needs a free worker, so a
//! blocked pool would deadlock. Instead lane-bound work *parks*: the
//! session draws a ticket (under that lane's queue mutex, preserving FIFO),
//! stops consuming decoded frames, and is rescheduled when
//! [`pump_lane`] claims its ticket with [`TicketLane::try_claim`]. A parked
//! session is not re-armed for reads either — the kernel buffers its
//! backlog exactly as it would for a blocked thread.
//!
//! With sharded stores there is one lane per shard, each with its **own**
//! park queue: releasing shard A's lane pumps only shard A's queue, so a
//! grant on one shard never rouses (or reorders) sessions parked on
//! another. A multi-lane claim is acquired one lane at a time in ascending
//! index order — the same resource ordering as the blocking transport's
//! `acquire_lanes`, so sessions on both transports are jointly
//! deadlock-free.
//!
//! ## Backpressure
//!
//! A session whose encoder holds more than [`HIGH_WATER`] unsent bytes
//! stops having frames decoded (and stops being re-armed for reads) until
//! the socket drains — a slow reader throttles only itself.

use crate::core::{SessionCore, Step, Work};
use crate::error::{ErrorKind, ServerError, ServerResult};
use crate::frame::{FrameDecoder, FrameEncoder};
use crate::lane::{OwnedLaneGuard, TicketLane};
use crate::metrics::MetricsSnapshot;
use crate::poll::{PollEvent, Poller, Waker, EV_READ, EV_WRITE};
use crate::protocol::{Request, Response};
use crate::server::{count_response, execute_work, initiate_shutdown, metrics_snapshot, Shared};
use prometheus_db::database::UnitToken;
use prometheus_trace::{Stage, TraceId, TraceScope};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Stop decoding frames for a session holding this many unsent bytes.
const HIGH_WATER: usize = 1 << 20;

/// Cap on a pipelined HTTP request head before the connection is dropped.
const HTTP_HEAD_MAX: usize = 16 * 1024;

/// How often the poll thread sweeps for idle sessions and silent units.
const SCAN_INTERVAL_MS: i32 = 100;

const TOKEN_DB_LISTENER: u64 = 0;
const TOKEN_HTTP_LISTENER: u64 = 1;
const TOKEN_WAKER: u64 = 2;
const FIRST_CONN_TOKEN: u64 = 16;

/// What [`spawn_event_loop`] should own.
pub(crate) struct EventConfig {
    /// The wire-protocol listener, when this loop serves database sessions
    /// (`None` for the HTTP-only loop behind the blocking path).
    pub(crate) db_listener: Option<TcpListener>,
    /// The `GET /metrics` scrape listener, if configured.
    pub(crate) metrics_listener: Option<TcpListener>,
    /// Worker threads executing ready work (≥ 1 is forced).
    pub(crate) io_threads: usize,
    /// Pause accepting at this many live connections; `0` = unlimited.
    pub(crate) max_connections: usize,
}

/// Join handle for a running event loop (1 poll thread + N workers).
pub(crate) struct EventLoopHandle {
    pub(crate) metrics_addr: Option<SocketAddr>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl EventLoopHandle {
    /// Block until the poll thread and every worker have exited. Call after
    /// [`initiate_shutdown`] — the loop only winds down once the shutdown
    /// flag is up and its waker has fired.
    pub(crate) fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

enum ConnKind {
    /// A wire-protocol session.
    Db,
    /// A plain-HTTP scrape of `GET /metrics`.
    Http,
}

/// Why a session stopped consuming frames: it is queued for a writer lane.
enum LanePending {
    /// `UnitBegin` was acked; open the unit once every lane grants.
    OpenUnit,
    /// A one-shot lane-bound work item (batch, PCL install, compact); the
    /// request kind and start instant carry the latency accounting across
    /// the park, and the adopted trace id keeps the parked work — and its
    /// response envelope — on the request's distributed trace.
    Work {
        work: Work,
        kind: usize,
        start: Instant,
        trace: TraceId,
    },
}

/// An in-flight multi-lane claim: the deferred action, the shard-lane mask
/// being acquired (it becomes the unit's shard claim), and the guards
/// already held — ascending by lane index, because lanes are always claimed
/// in ascending order. While parked, the session is queued on exactly one
/// lane: the lowest unheld lane of the mask.
struct LanePark {
    what: LanePending,
    mask: u64,
    held: Vec<(usize, OwnedLaneGuard)>,
}

/// An open streamed unit: the database token and the held lane guards.
struct UnitState {
    token: UnitToken,
    guards: Vec<(usize, OwnedLaneGuard)>,
}

struct ConnState {
    core: SessionCore,
    decoder: FrameDecoder,
    encoder: FrameEncoder,
    /// Raw buffers for HTTP connections (which never touch the framed
    /// encoder/decoder).
    http_in: Vec<u8>,
    http_out: Vec<u8>,
    http_pos: usize,
    unit: Option<UnitState>,
    pending: Option<LanePark>,
    last_activity: Instant,
    eof: bool,
    /// Deliver what the encoder holds, then tear down.
    closing: bool,
    dead: bool,
}

struct Conn {
    token: u64,
    kind: ConnKind,
    stream: TcpStream,
    state: Mutex<ConnState>,
}

/// Everything the poll thread and the workers share.
struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    waker: Waker,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    /// Tokens with work to do, handed from the poll thread (readiness
    /// events) or a lane grant to the worker pool.
    ready: Mutex<VecDeque<u64>>,
    ready_cv: Condvar,
    /// Workers may exit once this is set and the ready queue is drained.
    stopping: AtomicBool,
    /// Per-lane FIFOs of `(ticket, token)` sessions parked for that writer
    /// lane (index-aligned with `Shared::writer_lanes`). Tickets are drawn
    /// under the lane's queue mutex so event sessions keep strict arrival
    /// order among themselves, and a grant on one lane touches only that
    /// lane's queue.
    lane_queues: Vec<Mutex<VecDeque<(u64, u64)>>>,
    /// A lane guard claimed on behalf of a parked session, waiting for a
    /// worker to pick the session up. At most one per session: a session
    /// queues on one lane at a time.
    grants: Mutex<HashMap<u64, (usize, OwnedLaneGuard)>>,
    next_token: AtomicU64,
    max_connections: usize,
}

/// Start the readiness loop: 1 poll thread plus `io_threads` workers.
pub(crate) fn spawn_event_loop(
    shared: Arc<Shared>,
    cfg: EventConfig,
) -> ServerResult<EventLoopHandle> {
    let poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.register(waker.as_raw_fd(), TOKEN_WAKER, EV_READ)?;
    let metrics_addr = match &cfg.metrics_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    if let Some(l) = &cfg.db_listener {
        l.set_nonblocking(true)?;
        poller.register(l.as_raw_fd(), TOKEN_DB_LISTENER, EV_READ)?;
    }
    if let Some(l) = &cfg.metrics_listener {
        l.set_nonblocking(true)?;
        poller.register(l.as_raw_fd(), TOKEN_HTTP_LISTENER, EV_READ)?;
    }
    let rx = Arc::new(Reactor {
        shared: Arc::clone(&shared),
        poller,
        waker,
        conns: Mutex::new(HashMap::new()),
        ready: Mutex::new(VecDeque::new()),
        ready_cv: Condvar::new(),
        stopping: AtomicBool::new(false),
        lane_queues: (0..shared.writer_lanes.len())
            .map(|_| Mutex::new(VecDeque::new()))
            .collect(),
        grants: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(FIRST_CONN_TOKEN),
        max_connections: cfg.max_connections,
    });
    // A wire `Shutdown` only sees `Shared`; this callback lets it reach us.
    {
        let w = rx.waker.clone();
        lock(&shared.shutdown_wakers).push(Box::new(move || w.wake()));
    }
    let mut threads = Vec::new();
    for i in 0..cfg.io_threads.max(1) {
        let rx = Arc::clone(&rx);
        threads.push(
            thread::Builder::new()
                .name(format!("prometheus-io-{i}"))
                .spawn(move || worker_loop(rx))?,
        );
    }
    {
        let rx = Arc::clone(&rx);
        threads.push(
            thread::Builder::new()
                .name("prometheus-poll".into())
                .spawn(move || poll_loop(rx, cfg.db_listener, cfg.metrics_listener))?,
        );
    }
    Ok(EventLoopHandle {
        metrics_addr,
        threads,
    })
}

/// Hand a token to the worker pool. Every push increments the
/// `accept_queue_depth` gauge; the matching pop in [`worker_loop`] decrements
/// it, so the gauge reads as "ready work waiting for a free io thread".
fn enqueue_ready(rx: &Reactor, token: u64) {
    rx.shared
        .metrics
        .accept_queue_depth
        .fetch_add(1, Ordering::Relaxed);
    lock(&rx.ready).push_back(token);
    rx.ready_cv.notify_one();
}

fn worker_loop(rx: Arc<Reactor>) {
    loop {
        let token = {
            let mut q = lock(&rx.ready);
            loop {
                if let Some(t) = q.pop_front() {
                    break Some(t);
                }
                if rx.stopping.load(Ordering::SeqCst) {
                    break None;
                }
                q = rx
                    .ready_cv
                    .wait(q)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        let Some(token) = token else { break };
        rx.shared
            .metrics
            .accept_queue_depth
            .fetch_sub(1, Ordering::Relaxed);
        let conn = lock(&rx.conns).get(&token).cloned();
        match conn {
            Some(conn) => process_conn(&rx, &conn),
            None => {
                // Torn down after scheduling; a lane grant may be parked.
                if let Some((lane, guard)) = lock(&rx.grants).remove(&token) {
                    drop(guard);
                    pump_lane(&rx, lane);
                }
            }
        }
    }
}

fn poll_loop(
    rx: Arc<Reactor>,
    db_listener: Option<TcpListener>,
    http_listener: Option<TcpListener>,
) {
    let mut events: Vec<PollEvent> = Vec::new();
    let mut accept_paused = false;
    let mut last_scan = Instant::now();
    loop {
        events.clear();
        let _ = rx.poller.wait(&mut events, SCAN_INTERVAL_MS);
        if rx.shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        for ev in &events {
            match ev.token {
                TOKEN_WAKER => {
                    rx.waker.drain();
                    let _ = rx.poller.rearm(rx.waker.as_raw_fd(), TOKEN_WAKER, EV_READ);
                }
                TOKEN_DB_LISTENER => {
                    if let Some(l) = &db_listener {
                        accept_paused = accept_ready(&rx, l, TOKEN_DB_LISTENER, true);
                    }
                }
                TOKEN_HTTP_LISTENER => {
                    if let Some(l) = &http_listener {
                        accept_ready(&rx, l, TOKEN_HTTP_LISTENER, false);
                    }
                }
                token => enqueue_ready(&rx, token),
            }
        }
        // Resume accepting once sessions have closed below the cap.
        if accept_paused {
            if let Some(l) = &db_listener {
                if lock(&rx.conns).len() < rx.max_connections {
                    accept_paused = rx
                        .poller
                        .rearm(l.as_raw_fd(), TOKEN_DB_LISTENER, EV_READ)
                        .is_err();
                }
            }
        }
        if last_scan.elapsed() >= Duration::from_millis(SCAN_INTERVAL_MS as u64) {
            last_scan = Instant::now();
            scan_deadlines(&rx);
        }
    }
    shutdown_drain(&rx);
}

/// Accept everything the backlog holds. Returns `true` when the cap was hit
/// and the listener was left un-armed (paused).
fn accept_ready(rx: &Arc<Reactor>, listener: &TcpListener, token: u64, is_db: bool) -> bool {
    loop {
        if is_db && rx.max_connections > 0 && lock(&rx.conns).len() >= rx.max_connections {
            // Leave the backlog in the kernel; resume when sessions close.
            return true;
        }
        match listener.accept() {
            Ok((stream, _)) => register_conn(rx, stream, is_db),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    let _ = rx.poller.rearm(listener.as_raw_fd(), token, EV_READ);
    false
}

fn register_conn(rx: &Arc<Reactor>, stream: TcpStream, is_db: bool) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let token = rx.next_token.fetch_add(1, Ordering::Relaxed);
    let (kind, core) = if is_db {
        rx.shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        rx.shared
            .metrics
            .connections_active
            .fetch_add(1, Ordering::Relaxed);
        let id = rx.shared.next_session.fetch_add(1, Ordering::Relaxed);
        (
            ConnKind::Db,
            SessionCore::new(id, rx.shared.replica.as_ref().map(|r| r.primary.clone())),
        )
    } else {
        (ConnKind::Http, SessionCore::new(0, None))
    };
    let conn = Arc::new(Conn {
        token,
        kind,
        stream,
        state: Mutex::new(ConnState {
            core,
            decoder: FrameDecoder::new(),
            encoder: FrameEncoder::new(),
            http_in: Vec::new(),
            http_out: Vec::new(),
            http_pos: 0,
            unit: None,
            pending: None,
            last_activity: Instant::now(),
            eof: false,
            closing: false,
            dead: false,
        }),
    });
    let fd = conn.stream.as_raw_fd();
    lock(&rx.conns).insert(token, Arc::clone(&conn));
    if rx.poller.register(fd, token, EV_READ).is_err() {
        teardown(rx, &conn, false);
    }
}

/// Grant writer lane `lane` to its longest-parked session that is still
/// alive, dropping grants for sessions torn down while queued so the lane
/// never stalls behind a ghost. Call after *every* [`OwnedLaneGuard`] drop,
/// with that guard's lane index — only this lane's queue is inspected, so a
/// release on shard A never rouses a session parked on shard B.
fn pump_lane(rx: &Reactor, lane: usize) {
    loop {
        let claimed = {
            let mut q = lock(&rx.lane_queues[lane]);
            match q.front().copied() {
                None => return,
                Some((ticket, token)) => {
                    match TicketLane::try_claim(&rx.shared.writer_lanes[lane], ticket) {
                        Some(guard) => {
                            q.pop_front();
                            (guard, token)
                        }
                        // Head ticket not serving yet: the current holder
                        // will pump again when its guard drops.
                        None => return,
                    }
                }
            }
        };
        let (guard, token) = claimed;
        {
            // Hold the conns lock across the grant so a concurrent teardown
            // cannot slip between the aliveness check and the insert (its
            // own `grants` cleanup runs after it removed the conn here).
            let conns = lock(&rx.conns);
            if let Some(conn) = conns.get(&token) {
                if !lock(&conn.state).dead {
                    lock(&rx.grants).insert(token, (lane, guard));
                    drop(conns);
                    enqueue_ready(rx, token);
                    return;
                }
            }
        }
        // Dead or gone: release the lane and try the next waiter.
        drop(guard);
    }
}

/// Drop held lane guards and record their lanes for pumping. The pump runs
/// *after* the caller releases the connection's state lock — `pump_lane`
/// locks the granted session's state to check liveness, and the grantee may
/// be the very connection the caller still holds.
fn release_guards(guards: Vec<(usize, OwnedLaneGuard)>, pump: &mut Vec<usize>) {
    for (lane, guard) in guards {
        drop(guard);
        pump.push(lane);
    }
}

/// Close a connection and release everything it held. Idempotent.
fn teardown(rx: &Reactor, conn: &Arc<Conn>, reaped: bool) {
    let (unit, pending) = {
        let mut st = lock(&conn.state);
        if st.dead {
            return;
        }
        st.dead = true;
        (st.unit.take(), st.pending.take())
    };
    let mut pump = Vec::new();
    if let Some(unit) = unit {
        // Disconnect (or reap) mid-unit: roll back so no half-applied unit
        // is ever visible or durable, then free the lanes.
        rx.shared.db.db().abort_unit(unit.token);
        rx.shared
            .metrics
            .units_rolled_back_on_disconnect
            .fetch_add(1, Ordering::Relaxed);
        release_guards(unit.guards, &mut pump);
    }
    if let Some(park) = pending {
        // Parked mid-acquisition: free the lanes already held. The stale
        // queue entry on the lane it was waiting for is skipped by
        // `pump_lane`'s liveness check when it reaches the head.
        release_guards(park.held, &mut pump);
    }
    rx.poller.deregister(conn.stream.as_raw_fd());
    lock(&rx.conns).remove(&conn.token);
    if let Some((lane, guard)) = lock(&rx.grants).remove(&conn.token) {
        drop(guard);
        pump.push(lane);
    }
    if matches!(conn.kind, ConnKind::Db) {
        rx.shared
            .metrics
            .connections_active
            .fetch_sub(1, Ordering::Relaxed);
        if reaped {
            rx.shared
                .metrics
                .sessions_reaped
                .fetch_add(1, Ordering::Relaxed);
        }
    }
    for lane in pump {
        pump_lane(rx, lane);
    }
    // Let the poll thread resume accepting if it paused at the cap.
    rx.waker.wake();
}

/// The poll thread's periodic sweep: silent units are rolled back at
/// `unit_idle_timeout` (the session survives and learns via the typed
/// error), idle sessions are reaped at `idle_timeout`. Busy connections
/// (state lock held by a worker) are by definition not idle and are
/// skipped.
fn scan_deadlines(rx: &Arc<Reactor>) {
    let conns: Vec<Arc<Conn>> = lock(&rx.conns).values().cloned().collect();
    for conn in conns {
        let mut lane_guards = None;
        let mut reap = false;
        {
            let Ok(mut st) = conn.state.try_lock() else {
                continue;
            };
            if st.dead {
                continue;
            }
            if st.unit.is_some() {
                if st.last_activity.elapsed() >= rx.shared.unit_idle_timeout {
                    let unit = st.unit.take().expect("unit state");
                    rx.shared.db.db().abort_unit(unit.token);
                    rx.shared
                        .metrics
                        .units_timed_out
                        .fetch_add(1, Ordering::Relaxed);
                    st.core.note_unit_timed_out();
                    st.last_activity = Instant::now();
                    lane_guards = Some(unit.guards);
                }
            } else if let Some(idle) = rx.shared.idle_timeout {
                // A session parked for a lane is waiting on us, not idle.
                if st.pending.is_none() && st.last_activity.elapsed() >= idle {
                    reap = true;
                }
            }
        }
        if let Some(guards) = lane_guards.take() {
            let mut pump = Vec::new();
            release_guards(guards, &mut pump);
            for lane in pump {
                pump_lane(rx, lane);
            }
        }
        if reap {
            teardown(rx, &conn, matches!(conn.kind, ConnKind::Db));
        }
    }
}

/// Graceful drain once the shutdown flag is up: schedule every connection
/// to flush-and-close, keep delivering write readiness briefly, then force
/// whatever is left and release the workers.
fn shutdown_drain(rx: &Arc<Reactor>) {
    let tokens: Vec<u64> = lock(&rx.conns).keys().copied().collect();
    for t in tokens {
        enqueue_ready(rx, t);
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut events: Vec<PollEvent> = Vec::new();
    while Instant::now() < deadline && !lock(&rx.conns).is_empty() {
        events.clear();
        let _ = rx.poller.wait(&mut events, 50);
        for ev in &events {
            if ev.token >= FIRST_CONN_TOKEN {
                enqueue_ready(rx, ev.token);
            }
        }
    }
    let leftovers: Vec<Arc<Conn>> = lock(&rx.conns).values().cloned().collect();
    for conn in leftovers {
        teardown(rx, &conn, false);
    }
    rx.stopping.store(true, Ordering::SeqCst);
    rx.ready_cv.notify_all();
}

/// Drain the socket into the session's decoder (or HTTP buffer).
fn read_ready(conn: &Conn, st: &mut ConnState) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match (&conn.stream).read(&mut buf) {
            Ok(0) => {
                st.eof = true;
                break;
            }
            Ok(n) => {
                st.last_activity = Instant::now();
                match conn.kind {
                    ConnKind::Db => st.decoder.extend(&buf[..n]),
                    ConnKind::Http => st.http_in.extend_from_slice(&buf[..n]),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                st.eof = true;
                break;
            }
        }
    }
}

/// Flush the encoder until the socket pushes back.
fn flush(conn: &Conn, st: &mut ConnState) {
    while !st.encoder.is_empty() {
        match (&conn.stream).write(st.encoder.pending()) {
            Ok(0) => {
                st.dead = true;
                return;
            }
            Ok(n) => st.encoder.consume(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                st.dead = true;
                return;
            }
        }
    }
}

/// Count and encode one response, echoing the request's trace id in the
/// response envelope.
fn push_msg(shared: &Shared, st: &mut ConnState, trace: TraceId, resp: &Response) {
    count_response(&shared.metrics, resp);
    if st.encoder.push(trace, resp).is_err() {
        // An unencodable response (oversized frame) desyncs the stream;
        // closing is the only honest option — same as a blocking write_msg
        // failure ending the session.
        st.dead = true;
    }
}

/// Execute a (possibly lane-parked) work item under a fresh request span
/// and settle its latency accounting. `claim_mask` is the lane mask the
/// session holds for this work — the same mask inferred at dispatch, so the
/// unit's shard claim matches the held lanes exactly.
fn run_work(
    rx: &Reactor,
    core: &mut SessionCore,
    work: Work,
    claim_mask: u64,
    kind: usize,
    start: Instant,
    trace: TraceId,
) -> Response {
    let shared = &rx.shared;
    let root = shared.recorder.span_in(Stage::Request, trace, 0);
    let scope = TraceScope::enter(root.trace_id(), root.id());
    let resp = execute_work(shared, core, work, claim_mask);
    drop(scope);
    root.finish(kind as u64, core.id());
    shared
        .metrics
        .record_latency_us(kind, start.elapsed().as_micros() as u64);
    resp
}

/// Draw a ticket on lane `lane` for this session and claim it immediately
/// when the lane is free and nobody is parked ahead; otherwise enqueue. The
/// ticket is drawn under the lane's queue lock so FIFO order matches
/// arrival order.
fn claim_or_enqueue(rx: &Reactor, lane: usize, token: u64) -> Option<OwnedLaneGuard> {
    let mut q = lock(&rx.lane_queues[lane]);
    let ticket = rx.shared.writer_lanes[lane].ticket();
    if q.is_empty() {
        if let Some(guard) = TicketLane::try_claim(&rx.shared.writer_lanes[lane], ticket) {
            return Some(guard);
        }
    }
    q.push_back((ticket, token));
    None
}

/// Advance a multi-lane claim without blocking: claim each unheld lane of
/// the mask in ascending index order until either every lane is held
/// (returns `true`) or one must be queued for (returns `false`; the session
/// parks and a future grant resumes the walk). Ascending order is the
/// deadlock-freedom invariant shared with the blocking transport.
fn advance_acquire(rx: &Reactor, token: u64, park: &mut LanePark) -> bool {
    loop {
        let from = park.held.last().map_or(0, |(k, _)| k + 1);
        let Some(lane) = (from..rx.shared.writer_lanes.len()).find(|k| park.mask >> k & 1 != 0)
        else {
            return true;
        };
        match claim_or_enqueue(rx, lane, token) {
            Some(guard) => park.held.push((lane, guard)),
            None => return false,
        }
    }
}

/// A parked claim completed: perform the deferred action. One-shot work
/// releases its lanes immediately; an opened unit keeps them until it
/// settles.
fn finish_park(rx: &Reactor, st: &mut ConnState, park: LanePark, pump: &mut Vec<usize>) {
    match park.what {
        LanePending::OpenUnit => {
            // Detached: this worker thread serves other sessions next, so
            // the unit must not stay bound to it. Each of the unit's
            // request slices re-binds via `with_unit_bound`.
            let token = rx.shared.db.db().begin_unit_detached();
            st.core.unit_opened();
            st.last_activity = Instant::now();
            st.unit = Some(UnitState {
                token,
                guards: park.held,
            });
        }
        LanePending::Work {
            work,
            kind,
            start,
            trace,
        } => {
            let resp = run_work(rx, &mut st.core, work, park.mask, kind, start, trace);
            push_msg(&rx.shared, st, trace, &resp);
            release_guards(park.held, pump);
        }
    }
}

/// Serve one scheduled wake-up of a connection: perform any lane grant,
/// read, run the state machine over every decodable frame, flush, and
/// decide between re-arming and teardown.
fn process_conn(rx: &Arc<Reactor>, conn: &Arc<Conn>) {
    let mut pump = Vec::new();
    let fate = {
        let mut st = lock(&conn.state);
        if st.dead {
            drop(st);
            if let Some((lane, guard)) = lock(&rx.grants).remove(&conn.token) {
                drop(guard);
                pump_lane(rx, lane);
            }
            return;
        }
        if rx.shared.shutting_down.load(Ordering::SeqCst) {
            st.closing = true;
        }
        match conn.kind {
            ConnKind::Http => process_http(rx, conn, &mut st),
            ConnKind::Db => process_db(rx, conn, &mut st, &mut pump),
        }
    };
    for lane in pump {
        pump_lane(rx, lane);
    }
    match fate {
        Fate::Teardown => teardown(rx, conn, false),
        Fate::Arm(interest) => {
            if rx
                .poller
                .rearm(conn.stream.as_raw_fd(), conn.token, interest)
                .is_err()
            {
                teardown(rx, conn, false);
            }
        }
        // Parked for the lane with nothing left to write: the grant (or
        // teardown) reschedules us; no readiness interest at all.
        Fate::Parked => {}
    }
}

enum Fate {
    Teardown,
    Arm(u32),
    Parked,
}

fn process_db(
    rx: &Arc<Reactor>,
    conn: &Arc<Conn>,
    st: &mut ConnState,
    pump: &mut Vec<usize>,
) -> Fate {
    // 1. A lane grant parked for this session? Fold it into the in-flight
    //    claim and keep walking the mask; the deferred action runs only
    //    once every lane is held.
    if let Some((lane, guard)) = lock(&rx.grants).remove(&conn.token) {
        match st.pending.take() {
            Some(mut park) => {
                park.held.push((lane, guard));
                if advance_acquire(rx, conn.token, &mut park) {
                    finish_park(rx, st, park, pump);
                } else {
                    st.pending = Some(park);
                }
            }
            None => {
                drop(guard);
                pump.push(lane);
            }
        }
    }
    // 2. Pull in whatever the socket has (unless we are parked — the kernel
    //    buffers a parked session's backlog, like a blocked thread would).
    if st.pending.is_none() && !st.eof {
        read_ready(conn, st);
    }
    // 3. Run the state machine over every decodable frame, flushing as the
    //    encoder fills; backpressure pauses decoding until the socket
    //    drains.
    loop {
        let mut backpressured = false;
        while st.pending.is_none() && !st.closing && !st.dead {
            if st.encoder.pending().len() >= HIGH_WATER {
                backpressured = true;
                break;
            }
            match st.decoder.next_msg::<Request>() {
                Ok(Some((wire_trace, req))) => handle_request(rx, conn, st, wire_trace, req, pump),
                Ok(None) => break,
                Err(e) => {
                    if matches!(e, ServerError::Frame(_) | ServerError::Codec(_)) {
                        rx.shared
                            .metrics
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    // A torn or corrupt stream cannot be resynchronised.
                    st.closing = true;
                    break;
                }
            }
        }
        flush(conn, st);
        if backpressured && st.encoder.pending().len() < HIGH_WATER && !st.dead {
            continue;
        }
        break;
    }
    // 4. Fate.
    if st.dead {
        return Fate::Teardown;
    }
    if (st.closing || st.eof) && st.encoder.is_empty() {
        return Fate::Teardown;
    }
    let mut interest = 0u32;
    if !st.encoder.is_empty() {
        interest |= EV_WRITE;
    }
    if !st.eof && !st.closing && st.pending.is_none() && st.encoder.pending().len() < HIGH_WATER {
        interest |= EV_READ;
    }
    if interest == 0 {
        Fate::Parked
    } else {
        Fate::Arm(interest)
    }
}

/// Advance the sans-io state machine by one decoded frame and perform the
/// resulting step, mirroring the blocking transport's bookkeeping (request
/// counters, root span, latency histogram) exactly.
fn handle_request(
    rx: &Arc<Reactor>,
    conn: &Arc<Conn>,
    st: &mut ConnState,
    wire_trace: TraceId,
    req: Request,
    pump: &mut Vec<usize>,
) {
    let shared = &rx.shared;
    let start = Instant::now();
    let kind = req.kind();
    shared.metrics.count_request(kind);
    // Same adoption rule as the blocking transport: a client-stamped trace
    // id wins, a blank envelope gets a minted one, and the id is echoed in
    // every response envelope of this request.
    let trace = crate::server::adopt_trace(&shared.recorder, wire_trace);
    let root = shared.recorder.span_in(Stage::Request, trace, 0);
    let scope = TraceScope::enter(root.trace_id(), root.id());
    let mut parked = false;
    match st.core.on_request(req) {
        Step::Reply(resp) => push_msg(shared, st, trace, &resp),
        Step::ReplyClose(resp) => {
            push_msg(shared, st, trace, &resp);
            st.closing = true;
        }
        Step::ShutdownAfter(resp) => {
            push_msg(shared, st, trace, &resp);
            initiate_shutdown(shared);
            st.closing = true;
        }
        Step::OpenUnit => {
            // Ack first (it goes out even while we queue for the lanes),
            // then claim or park — never block a worker on a lane. A
            // streamed unit's ops arrive one frame at a time, so no shard
            // mask can be inferred up front: claim every lane.
            push_msg(shared, st, trace, &Response::Ack);
            let mut park = LanePark {
                what: LanePending::OpenUnit,
                mask: crate::server::all_lanes_mask(shared),
                held: Vec::new(),
            };
            if advance_acquire(rx, conn.token, &mut park) {
                finish_park(rx, st, park, pump);
            } else {
                st.pending = Some(park);
                parked = true;
            }
        }
        Step::Do(Work::UnitCommit) => {
            let unit = st.unit.take().expect("unit state");
            let resp = match shared.db.db().commit_unit(unit.token) {
                Ok(()) => {
                    shared
                        .metrics
                        .units_committed
                        .fetch_add(1, Ordering::Relaxed);
                    Response::Ack
                }
                // commit_unit rolls the unit back itself on failure.
                Err(e) => Response::Error {
                    kind: ErrorKind::Db,
                    message: e.to_string(),
                },
            };
            st.core.unit_closed();
            push_msg(shared, st, trace, &resp);
            release_guards(unit.guards, pump);
        }
        Step::Do(Work::UnitAbort) => {
            let unit = st.unit.take().expect("unit state");
            shared.db.db().abort_unit(unit.token);
            shared.metrics.units_aborted.fetch_add(1, Ordering::Relaxed);
            st.core.unit_closed();
            push_msg(shared, st, trace, &Response::Ack);
            release_guards(unit.guards, pump);
        }
        Step::Do(work) => {
            // Infer the lane mask once, here; it travels with the park so
            // the shard claim and the held lanes cannot drift apart.
            let mask = crate::server::lane_mask_for(shared, &work);
            if mask == 0 {
                // In-unit slices (ops, unpinned queries) run on whichever
                // worker is handy; bind the thread to the session's unit for
                // the slice so event recording and claim routing follow the
                // unit, not the thread.
                let resp = match &st.unit {
                    Some(unit) => {
                        let core = &mut st.core;
                        shared
                            .db
                            .db()
                            .with_unit_bound(&unit.token, |_| execute_work(shared, core, work, 0))
                    }
                    None => execute_work(shared, &mut st.core, work, 0),
                };
                push_msg(shared, st, trace, &resp);
            } else {
                let mut park = LanePark {
                    what: LanePending::Work {
                        work,
                        kind,
                        start,
                        trace,
                    },
                    mask,
                    held: Vec::new(),
                };
                if advance_acquire(rx, conn.token, &mut park) {
                    let LanePending::Work { work, .. } = park.what else {
                        unreachable!("park built with Work")
                    };
                    let resp = execute_work(shared, &mut st.core, work, mask);
                    push_msg(shared, st, trace, &resp);
                    release_guards(park.held, pump);
                } else {
                    st.pending = Some(park);
                    parked = true;
                }
            }
        }
    }
    drop(scope);
    root.finish(kind as u64, st.core.id());
    if !parked {
        shared
            .metrics
            .record_latency_us(kind, start.elapsed().as_micros() as u64);
    }
}

/// Serve one `GET /metrics` scrape: parse the request head, render the
/// exposition from the live counters, write, close.
fn process_http(rx: &Arc<Reactor>, conn: &Arc<Conn>, st: &mut ConnState) -> Fate {
    if st.http_out.is_empty() && !st.eof {
        read_ready(conn, st);
    }
    if st.http_out.is_empty() {
        if let Some(end) = find_head_end(&st.http_in) {
            let head = String::from_utf8_lossy(&st.http_in[..end]);
            let mut parts = head.lines().next().unwrap_or("").split_whitespace();
            let method = parts.next().unwrap_or("");
            let path = parts.next().unwrap_or("");
            let (status, body) = if method != "GET" {
                ("405 Method Not Allowed", "method not allowed\n".to_string())
            } else if path == "/metrics" || path.starts_with("/metrics?") {
                ("200 OK", render_scrape(&rx.shared))
            } else {
                (
                    "404 Not Found",
                    "not found; metrics are at /metrics\n".to_string(),
                )
            };
            st.http_out = format!(
                "HTTP/1.1 {status}\r\n\
                 Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                 Content-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len(),
            )
            .into_bytes();
            st.closing = true;
        } else if st.http_in.len() > HTTP_HEAD_MAX {
            return Fate::Teardown;
        }
    }
    while st.http_pos < st.http_out.len() {
        match (&conn.stream).write(&st.http_out[st.http_pos..]) {
            Ok(0) => return Fate::Teardown,
            Ok(n) => st.http_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Fate::Teardown,
        }
    }
    let flushed = st.http_pos >= st.http_out.len();
    if st.eof && st.http_out.is_empty() {
        return Fate::Teardown;
    }
    if st.closing && flushed {
        return Fate::Teardown;
    }
    if flushed {
        Fate::Arm(EV_READ)
    } else {
        Fate::Arm(EV_WRITE)
    }
}

/// The scrape body: the same renderer `harness stats --format=prometheus`
/// uses, over the same snapshot a wire `Stats` request would return.
fn render_scrape(shared: &Shared) -> String {
    let server: MetricsSnapshot = metrics_snapshot(shared);
    let storage = shared.db.stats();
    crate::exposition::render_prometheus_exposition(&server, &storage)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}
