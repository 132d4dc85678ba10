//! The event-driven transport: a readiness loop that owns every connection.
//!
//! The blocking path in `server.rs` spends one thread per live session —
//! fine for tens of clients, hopeless for thousands of mostly-idle
//! herbarium terminals. This module puts the same `Driver` (`driver.rs`)
//! behind non-blocking sockets and a fixed, tiny thread budget; what it owns
//! is readiness, deadlines, backpressure and how a parked claim is waited
//! for:
//!
//! ```text
//!   poll thread ── epoll_wait ──► ready queue ──► io workers (N threads)
//!        │                                            │
//!        │  accepts, idle/unit deadline scans,        │  read → FrameDecoder
//!        │  max_connections pause/resume              │  Driver::on_request / on_wake
//!        │                                            │    (claim granted or parked)
//!        └── also owns the GET /metrics listener      │  FrameEncoder → write
//! ```
//!
//! Every socket is non-blocking and registered **one-shot**: after an event
//! fires the descriptor stays silent until the worker that served it
//! re-arms it, so at most one worker touches a connection at a time without
//! any per-connection thread.
//!
//! ## The writer queue without blocking
//!
//! Workers must never block in the database's writer queue: the holder of
//! a claim may be an idle in-unit session whose commit frame needs a free
//! worker, so a blocked pool would deadlock. A claim that is not granted at
//! once *parks* the driver instead: the session stops consuming decoded
//! frames, and the claim's wake callback — run by whoever frees the shards
//! — puts the session back on the ready queue, where a worker calls
//! `Driver::on_wake`. A parked session is not re-armed for reads either —
//! the kernel buffers its backlog exactly as it would for a blocked thread.
//! A session torn down while parked drops its claim, which leaves the
//! queue by itself; a wake that arrives after the teardown finds no
//! connection and does nothing.
//!
//! ## Backpressure
//!
//! A session whose encoder holds more than [`HIGH_WATER`] unsent bytes
//! stops having frames decoded (and stops being re-armed for reads) until
//! the socket drains — a slow reader throttles only itself.

use crate::driver::{Driver, UnitEnd};
use crate::error::ServerResult;
use crate::frame::{FrameDecoder, FrameEncoder};
use crate::metrics::MetricsSnapshot;
use crate::poll::{PollEvent, Poller, Waker, EV_READ, EV_WRITE};
use crate::server::{lock, metrics_snapshot, Shared};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
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

enum ConnKind {
    /// A wire-protocol session.
    Db,
    /// A plain-HTTP scrape of `GET /metrics`.
    Http,
}

struct ConnState {
    driver: Driver,
    decoder: FrameDecoder,
    encoder: FrameEncoder,
    /// Raw buffers for HTTP connections (which never touch the framed
    /// encoder/decoder).
    http_in: Vec<u8>,
    http_out: Vec<u8>,
    http_pos: usize,
    last_activity: Instant,
    eof: bool,
    /// Deliver what the encoder holds, then tear down.
    closing: bool,
    /// Torn down: set by [`teardown`] alone.
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
    /// events) or a claim's wake to the worker pool.
    ready: Mutex<VecDeque<u64>>,
    ready_cv: Condvar,
    /// Workers may exit once this is set and the ready queue is drained.
    stopping: AtomicBool,
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
        // A connection torn down after it was scheduled is gone: nothing is
        // left to serve.
        let conn = lock(&rx.conns).get(&token).cloned();
        if let Some(conn) = conn {
            process_conn(&rx, &conn);
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
    // A parked claim's grant reschedules the session. Weak: the reactor
    // owns the connection, and so the driver holding this.
    let wake = {
        let rx = Arc::downgrade(rx);
        move || {
            if let Some(rx) = Weak::upgrade(&rx) {
                enqueue_ready(&rx, token);
            }
        }
    };
    let (kind, session) = if is_db {
        rx.shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        rx.shared
            .metrics
            .connections_active
            .fetch_add(1, Ordering::Relaxed);
        let id = rx.shared.next_session.fetch_add(1, Ordering::Relaxed);
        (ConnKind::Db, id)
    } else {
        (ConnKind::Http, 0)
    };
    let conn = Arc::new(Conn {
        token,
        kind,
        stream,
        state: Mutex::new(ConnState {
            driver: Driver::new(&rx.shared, session, Arc::new(wake)),
            decoder: FrameDecoder::new(),
            encoder: FrameEncoder::new(),
            http_in: Vec::new(),
            http_out: Vec::new(),
            http_pos: 0,
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

/// Close a connection and release everything it held. Idempotent.
fn teardown(rx: &Reactor, conn: &Arc<Conn>, reaped: bool) {
    {
        let mut st = lock(&conn.state);
        if st.dead {
            return;
        }
        st.dead = true;
        // A unit left open is rolled back and a parked claim dropped: both
        // leave the writer queue, waking whoever waits behind them.
        st.driver.disconnect();
    }
    rx.poller.deregister(conn.stream.as_raw_fd());
    lock(&rx.conns).remove(&conn.token);
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
        let mut reap = false;
        {
            let Ok(mut st) = conn.state.try_lock() else {
                continue;
            };
            if st.dead {
                continue;
            }
            if st.driver.in_unit() {
                if st.last_activity.elapsed() >= rx.shared.unit_idle_timeout {
                    st.driver.end_unit(UnitEnd::TimedOut);
                    st.last_activity = Instant::now();
                }
            } else if let Some(idle) = rx.shared.idle_timeout {
                // A session parked in the writer queue is waiting on us,
                // not idle.
                reap = !st.driver.is_parked() && st.last_activity.elapsed() >= idle;
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

/// Flush the encoder until the socket pushes back; `false` when the socket
/// is gone.
fn flush(conn: &Conn, st: &mut ConnState) -> bool {
    while !st.encoder.is_empty() {
        match (&conn.stream).write(st.encoder.pending()) {
            Ok(0) => return false,
            Ok(n) => st.encoder.consume(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Serve one scheduled wake-up of a connection: complete a parked request
/// whose claim was granted, read, run the state machine over every
/// decodable frame, flush, and decide between re-arming and teardown.
fn process_conn(rx: &Arc<Reactor>, conn: &Arc<Conn>) {
    let fate = {
        let mut st = lock(&conn.state);
        if st.dead {
            return;
        }
        if rx.shared.shutting_down.load(Ordering::SeqCst) {
            st.closing = true;
        }
        match conn.kind {
            ConnKind::Http => process_http(rx, conn, &mut st),
            ConnKind::Db => process_db(conn, &mut st),
        }
    };
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
        // Parked in the writer queue with nothing left to write: the
        // claim's wake (or teardown) reschedules us; no readiness interest.
        Fate::Parked => {}
    }
}

enum Fate {
    Teardown,
    Arm(u32),
    Parked,
}

fn process_db(conn: &Arc<Conn>, st: &mut ConnState) -> Fate {
    // 1. A parked request whose claim was granted completes here; one still
    //    waiting stays parked.
    st.driver.on_wake(&mut st.encoder);
    // 2. Pull in whatever the socket has (unless we are parked — the kernel
    //    buffers a parked session's backlog, like a blocked thread would).
    if !st.driver.is_parked() && !st.eof {
        read_ready(conn, st);
    }
    // 3. Run the driver over every decodable frame, flushing as the encoder
    //    fills; backpressure pauses decoding until the socket drains.
    loop {
        let mut backpressured = false;
        while !st.closing {
            if st.encoder.pending().len() >= HIGH_WATER {
                backpressured = true;
                break;
            }
            let Some((trace, req)) = st.driver.next_request(&mut st.decoder) else {
                break;
            };
            st.driver.on_request(&mut st.encoder, trace, req);
        }
        st.closing |= st.driver.is_closing();
        if !flush(conn, st) {
            return Fate::Teardown;
        }
        if backpressured && st.encoder.pending().len() < HIGH_WATER {
            continue;
        }
        break;
    }
    // 4. Fate.
    if (st.closing || st.eof) && st.encoder.is_empty() {
        return Fate::Teardown;
    }
    let mut interest = 0u32;
    if !st.encoder.is_empty() {
        interest |= EV_WRITE;
    }
    if !st.eof && !st.closing && !st.driver.is_parked() && st.encoder.pending().len() < HIGH_WATER {
        interest |= EV_READ;
    }
    if interest == 0 {
        Fate::Parked
    } else {
        Fate::Arm(interest)
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
