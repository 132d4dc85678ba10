//! The concurrent TCP server.
//!
//! ## Architecture
//!
//! ```text
//!            accept loop (1 thread)
//!                 │  mpsc channel of connections
//!                 ▼
//!   worker pool (N threads) ── one session per worker at a time
//!                 │
//!                 │  read (deadline) → FrameDecoder → Driver → FrameEncoder → write
//!                 │                                     │
//!        ┌────────┴─────────┐                           │  the same driver the event
//!        ▼                  ▼                           │  transport runs (`event.rs`)
//!   read requests      the database's writer queue (FIFO claims on shard
//!   (each query runs   masks) — every mutating request (units, batches,
//!    on a pinned         PCL install, compact) takes one claim there,
//!    snapshot)            granted strictly in arrival order
//! ```
//!
//! This file's transport is an I/O shell: the accept loop, the worker pool,
//! `catch_unwind` around a session, and a loop that reads under the deadline
//! that applies, hands each whole frame to the session's
//! `Driver` (`driver.rs`) and writes what it answered. Counting, spans,
//! the protocol state machine, claims, units and their rollback all live in
//! the driver; the one thing this transport decides is that a parked claim
//! is waited for by parking the session's own thread.
//!
//! Units of work claim shard masks in the `Database`'s writer queue, and a
//! claim is granted whole once no claim ahead of it overlaps it. Every
//! mutating request goes through it: a session holds one claim for the
//! duration of a streamed unit (`UnitBegin` … `UnitCommit`/`UnitAbort`) or
//! one batch, granted in FIFO order so no session can barge past queued
//! writers. A connection that drops while holding an open unit has the unit
//! rolled back, which is what frees its claim, so a killed client can never
//! leave a half-applied unit behind; a connection that merely goes *silent*
//! mid-unit is timed out after [`ServerConfig::unit_idle_timeout`], its unit
//! rolled back and its claim freed, and the client learns via a typed
//! [`ErrorKind::UnitTimedOut`] error on its next request.
//!
//! Queries outside a unit evaluate against a pinned
//! [`prometheus_db::ReadView`] snapshot: they never touch the store mutex or
//! the writer queue, so readers are oblivious to even a long-streaming
//! writer. Queries *inside* a unit stay on the live database, preserving
//! read-your-own-writes.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or a wire `Request::Shutdown`) flips the
//! shutdown flag, wakes the accept loop, and half-closes the read side of
//! every live session. In-flight requests finish and their responses are
//! delivered; the next read on each session observes EOF, open units are
//! rolled back, and the worker threads drain and exit. [`ServerHandle`]
//! joins all threads on drop, so no test or embedder leaks threads.

use crate::client::{ClientConfig, PrometheusClient};
use crate::core::{SessionCore, Work};
use crate::driver::{Driver, UnitEnd};
use crate::error::{ErrorKind, ServerError, ServerResult};
use crate::frame::{FrameDecoder, FrameEncoder};
use crate::metrics::{MetricsSnapshot, ServerMetrics, ShardMetrics};
use crate::protocol::{MutationOp, ReplicaStatusInfo, Response, TraceSpan, WireRows};
use crate::replica::ReplicaInfo;
use crate::slowlog::{SlowLog, SlowLogEntry};
use prometheus_db::{Database, DbResult, Oid, Prometheus, Reader, Value};
use prometheus_pool::{Executor, StatementKind};
use prometheus_trace::{Recorder, Stage, TraceEvent, TraceId, TraceScope};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for [`serve`].
///
/// Plain-struct construction keeps working (`ServerConfig { ..Default::default() }`),
/// but prefer [`ServerConfig::builder`] — it validates knob combinations at
/// build time instead of letting a zero timeout or an impossible thread
/// count surface as runtime behaviour.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; use port 0 for an ephemeral port (tests, the benchmark).
    pub addr: String,
    /// Fixed worker-thread pool size for the **blocking** path
    /// (`io_threads == 0`). Each live session occupies one worker for its
    /// lifetime, so this bounds concurrent sessions; further connections
    /// queue until a worker frees up (visible as the `accept_queue_depth`
    /// gauge). Ignored when `io_threads > 0`.
    pub workers: usize,
    /// How long a streamed unit may sit silent (no frame from the client)
    /// while holding the writer lane before the server rolls it back and
    /// frees the lane for queued writers.
    pub unit_idle_timeout: Duration,
    /// Degree of parallelism for each query, pinned or in a unit: the worker
    /// budget of the shared [`prometheus_pool::Executor`]. `0` means auto —
    /// use the machine's available parallelism. `1` forces sequential
    /// execution. Results are identical either way; only latency changes.
    pub parallelism: usize,
    /// Queries at or above this wall-clock land in the slow-query log
    /// (fetch with `Request::SlowLog`). `Duration::ZERO` logs every query —
    /// useful in tests and when characterising a workload.
    pub slow_query_threshold: Duration,
    /// Capacity (events) of the trace ring shared by every layer — request
    /// framing, lane waits, planning, execution stages, storage commits.
    /// `0` disables tracing entirely (spans become no-ops; `PROFILE` returns
    /// an empty span tree).
    pub trace_capacity: usize,
    /// `Some` marks this server as a read-only replication follower: every
    /// mutating verb is rejected with a typed
    /// [`ErrorKind::ReadOnlyReplica`] error naming the primary, and
    /// `Request::ReplicaStatus` answers from the follower's
    /// [`crate::replica::ReplicaStatusCell`] instead of the local store.
    /// `None` (the default) is a normal primary.
    pub replica: Option<ReplicaInfo>,
    /// `0` (the default) keeps the blocking one-thread-per-session path.
    /// `> 0` switches to the **event-driven** path: a readiness loop
    /// (epoll) owns every connection and this many worker threads execute
    /// only ready work, so live sessions are no longer capped by thread
    /// count. The wire protocol is identical in both modes. Linux only;
    /// [`serve`] returns [`ServerError::Config`] elsewhere.
    pub io_threads: usize,
    /// Maximum concurrently live sessions; `0` = unlimited. The
    /// event-driven path stops accepting at the cap and resumes as sessions
    /// close; the blocking path closes excess connections at accept.
    pub max_connections: usize,
    /// `Some(addr)` serves the Prometheus text exposition of
    /// [`ServerHandle::metrics`] over plain HTTP at `GET /metrics` on a
    /// second listener (the scrape endpoint). Works in both modes — the
    /// blocking path spins up a one-thread readiness loop just for HTTP.
    /// Linux only.
    pub metrics_http_addr: Option<String>,
    /// Close sessions that send no frame for this long (between requests —
    /// a unit holding the writer lane is governed by the stricter
    /// `unit_idle_timeout` instead): the socket is closed, any open unit is
    /// rolled back, and the `sessions_reaped` counter is bumped. `None`
    /// (the default) never reaps.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            unit_idle_timeout: Duration::from_secs(30),
            parallelism: 0,
            slow_query_threshold: Duration::from_millis(100),
            trace_capacity: Recorder::DEFAULT_CAPACITY,
            replica: None,
            io_threads: 0,
            max_connections: 0,
            metrics_http_addr: None,
            idle_timeout: None,
        }
    }
}

impl ServerConfig {
    /// A validating builder; see [`ServerConfigBuilder`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::default(),
        }
    }
}

/// Validating builder for [`ServerConfig`].
///
/// ```
/// use prometheus_server::ServerConfig;
/// use std::time::Duration;
///
/// let cfg = ServerConfig::builder()
///     .addr("127.0.0.1:0")
///     .io_threads(2)                 // event-driven mode
///     .max_connections(10_000)
///     .metrics_http_addr("127.0.0.1:0") // GET /metrics scrape endpoint
///     .idle_timeout(Duration::from_secs(600))
///     .build()
///     .unwrap();
/// assert_eq!(cfg.io_threads, 2);
///
/// // Nonsense combinations fail at build time, not at runtime:
/// assert!(ServerConfig::builder()
///     .unit_idle_timeout(Duration::ZERO)
///     .build()
///     .is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Address to bind (port 0 for ephemeral).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.addr = addr.into();
        self
    }

    /// Blocking-mode worker pool size (ignored when `io_threads > 0`).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Event-mode worker threads; `0` keeps the blocking path.
    pub fn io_threads(mut self, io_threads: usize) -> Self {
        self.cfg.io_threads = io_threads;
        self
    }

    /// Cap on concurrently live sessions (`0` = unlimited).
    pub fn max_connections(mut self, max: usize) -> Self {
        self.cfg.max_connections = max;
        self
    }

    /// Serve `GET /metrics` (Prometheus text exposition) on this address.
    pub fn metrics_http_addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.metrics_http_addr = Some(addr.into());
        self
    }

    /// Reap sessions idle longer than this between requests.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.idle_timeout = Some(timeout);
        self
    }

    /// Idle deadline for streamed units holding the writer lane.
    pub fn unit_idle_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.unit_idle_timeout = timeout;
        self
    }

    /// Per-query parallelism budget (`0` = auto).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.cfg.parallelism = parallelism;
        self
    }

    /// Slow-query log threshold.
    pub fn slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.cfg.slow_query_threshold = threshold;
        self
    }

    /// Trace ring capacity (`0` disables tracing).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.cfg.trace_capacity = capacity;
        self
    }

    /// Run as a read-only replication follower.
    pub fn replica(mut self, replica: ReplicaInfo) -> Self {
        self.cfg.replica = Some(replica);
        self
    }

    /// Validate and produce the config.
    ///
    /// Rejected combinations: an empty bind address; `workers == 0` in
    /// blocking mode; an implausible `io_threads` (> 1024); a zero
    /// `unit_idle_timeout` or zero `idle_timeout` (every unit/session would
    /// die instantly); an `idle_timeout` shorter than `unit_idle_timeout`
    /// (the reaper would undercut the unit deadline it defers to).
    pub fn build(self) -> ServerResult<ServerConfig> {
        let cfg = self.cfg;
        if cfg.addr.is_empty() {
            return Err(ServerError::Config("bind address must not be empty".into()));
        }
        if cfg.io_threads == 0 && cfg.workers == 0 {
            return Err(ServerError::Config(
                "workers must be >= 1 in blocking mode (or set io_threads > 0)".into(),
            ));
        }
        if cfg.io_threads > 1024 {
            return Err(ServerError::Config(format!(
                "io_threads = {} is implausible (max 1024)",
                cfg.io_threads
            )));
        }
        if cfg.unit_idle_timeout.is_zero() {
            return Err(ServerError::Config(
                "unit_idle_timeout must be non-zero (every unit would time out instantly)".into(),
            ));
        }
        if let Some(idle) = cfg.idle_timeout {
            if idle.is_zero() {
                return Err(ServerError::Config(
                    "idle_timeout must be non-zero (every session would be reaped instantly)"
                        .into(),
                ));
            }
            if idle < cfg.unit_idle_timeout {
                return Err(ServerError::Config(format!(
                    "idle_timeout ({idle:?}) must be >= unit_idle_timeout ({:?})",
                    cfg.unit_idle_timeout
                )));
            }
        }
        Ok(cfg)
    }
}

/// State shared by the accept loop, the worker pool and the handle (and, in
/// event mode, the readiness loop).
pub(crate) struct Shared {
    pub(crate) db: Prometheus,
    pub(crate) metrics: ServerMetrics,
    /// Morsel-parallel POOL executor every query runs through, pinned or
    /// in a unit. One instance across all sessions.
    pub(crate) executor: Executor,
    /// Idle deadline for streamed units holding a claim.
    pub(crate) unit_idle_timeout: Duration,
    /// Idle deadline for whole sessions (the reaper); `None` never reaps.
    pub(crate) idle_timeout: Option<Duration>,
    /// One span recorder across every layer: the store, the rule engine,
    /// the executor and the server itself all record into this ring, so a
    /// request's whole span tree shares one trace id.
    pub(crate) recorder: Recorder,
    /// Bounded log of queries slower than `slow_query_threshold`.
    pub(crate) slow_log: SlowLog,
    pub(crate) slow_query_threshold: Duration,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) next_session: AtomicU64,
    /// Read-half clones of live session sockets, for shutdown.
    pub(crate) conns: Mutex<HashMap<u64, TcpStream>>,
    pub(crate) addr: SocketAddr,
    /// `Some` when serving as a read-only replication follower.
    pub(crate) replica: Option<ReplicaInfo>,
    /// Callbacks that wake any event loops attached to this server, so a
    /// wire `Shutdown` (which only sees `Shared`) can reach them.
    pub(crate) shutdown_wakers: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    /// Monotonic mark of server start, for the `uptime_seconds` gauge.
    pub(crate) started_at: Instant,
    /// Wall-clock of server start (seconds since the Unix epoch), for the
    /// `start_time_seconds` gauge.
    pub(crate) started_unix_s: u64,
}

impl Shared {
    /// The server's shared state over `db`. Needs no socket — `addr` is
    /// only what shutdown dials to wake the accept loop.
    pub(crate) fn new(db: Prometheus, config: &ServerConfig, addr: SocketAddr) -> Shared {
        let parallelism = if config.parallelism == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.parallelism
        };
        let recorder = if config.trace_capacity == 0 {
            Recorder::disabled()
        } else {
            Recorder::new(config.trace_capacity)
        };
        // One recorder everywhere: storage commit/fsync/compact spans, rule
        // firing, planning and execution stages all land in the
        // same ring as the server's own request and lane-wait spans.
        db.set_recorder(recorder.clone());
        let executor = Executor::new(parallelism);
        executor.set_recorder(recorder.clone());
        Shared {
            db,
            metrics: ServerMetrics::default(),
            executor,
            unit_idle_timeout: config.unit_idle_timeout,
            idle_timeout: config.idle_timeout,
            recorder,
            slow_log: SlowLog::default(),
            slow_query_threshold: config.slow_query_threshold,
            shutting_down: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            conns: Mutex::new(HashMap::new()),
            addr,
            replica: config.replica.clone(),
            shutdown_wakers: Mutex::new(Vec::new()),
            started_at: Instant::now(),
            started_unix_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }
}

/// Recover from a poisoned lock: the protected state (the connection
/// hand-off queue, the socket registry, the event loop's queues and
/// per-connection state) stays consistent across a panicking thread, so it
/// is safe to reuse.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Start serving `db` on `config.addr`; returns once the listener is bound.
///
/// The handle owns the database: stop the server (drop or
/// [`ServerHandle::stop`]) before reopening the same path elsewhere.
///
/// With `config.io_threads == 0` (the default) this is the blocking
/// one-thread-per-session server; with `io_threads > 0` the event-driven
/// readiness loop serves the same wire protocol over non-blocking sockets
/// (Linux only). `config.metrics_http_addr` additionally serves `GET
/// /metrics` in either mode.
pub fn serve(db: Prometheus, config: ServerConfig) -> ServerResult<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let shared = Arc::new(Shared::new(db, &config, listener.local_addr()?));

    #[cfg(not(target_os = "linux"))]
    if config.io_threads > 0 || config.metrics_http_addr.is_some() {
        return Err(ServerError::Config(
            "io_threads > 0 and metrics_http_addr need the epoll event loop (Linux only)".into(),
        ));
    }

    #[cfg(target_os = "linux")]
    if config.io_threads > 0 {
        // Fully event-driven: the readiness loop owns the db listener (and
        // the metrics listener, if any); no blocking worker pool at all.
        let event = crate::event::spawn_event_loop(
            Arc::clone(&shared),
            crate::event::EventConfig {
                db_listener: Some(listener),
                metrics_listener: bind_metrics(&config)?,
                io_threads: config.io_threads,
                max_connections: config.max_connections,
            },
        )?;
        return Ok(ServerHandle {
            shared,
            accept: None,
            workers: Vec::new(),
            event: Some(event),
        });
    }

    // Blocking path: accept thread + fixed worker pool. A metrics address
    // still gets the event loop, but one that only owns the HTTP listener.
    #[cfg(target_os = "linux")]
    let event = match bind_metrics(&config)? {
        Some(metrics_listener) => Some(crate::event::spawn_event_loop(
            Arc::clone(&shared),
            crate::event::EventConfig {
                db_listener: None,
                metrics_listener: Some(metrics_listener),
                io_threads: 1,
                max_connections: 0,
            },
        )?),
        None => None,
    };

    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name(format!("prometheus-worker-{i}"))
            .spawn(move || worker_loop(shared, rx))?;
        workers.push(handle);
    }
    let accept = {
        let shared = Arc::clone(&shared);
        let max_connections = config.max_connections;
        thread::Builder::new()
            .name("prometheus-accept".into())
            .spawn(move || accept_loop(shared, listener, tx, max_connections))?
    };
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers,
        #[cfg(target_os = "linux")]
        event,
    })
}

/// Bind the scrape-endpoint listener named by the config, if any.
#[cfg(target_os = "linux")]
fn bind_metrics(config: &ServerConfig) -> ServerResult<Option<TcpListener>> {
    match &config.metrics_http_addr {
        Some(addr) => Ok(Some(TcpListener::bind(addr)?)),
        None => Ok(None),
    }
}

/// A running server: address, metrics, shutdown and join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    event: Option<crate::event::EventLoopHandle>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound address of the HTTP `GET /metrics` scrape endpoint, when
    /// [`ServerConfig::metrics_http_addr`] asked for one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        #[cfg(target_os = "linux")]
        {
            self.event.as_ref().and_then(|e| e.metrics_addr)
        }
        #[cfg(not(target_os = "linux"))]
        {
            None
        }
    }

    /// Point-in-time server counters (also available over the wire).
    pub fn metrics(&self) -> MetricsSnapshot {
        metrics_snapshot(&self.shared)
    }

    /// Initiate graceful shutdown: stop accepting, finish in-flight
    /// requests, roll back open units, close sessions. Idempotent.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Block until every server thread has exited.
    pub fn join(mut self) {
        self.join_threads();
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn stop(mut self) {
        initiate_shutdown(&self.shared);
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        #[cfg(target_os = "linux")]
        if let Some(event) = self.event.take() {
            event.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        initiate_shutdown(&self.shared);
        self.join_threads();
    }
}

pub(crate) fn initiate_shutdown(shared: &Arc<Shared>) {
    if shared.shutting_down.swap(true, Ordering::SeqCst) {
        return; // already in progress
    }
    // Wake the accept loop so it observes the flag.
    let _ = TcpStream::connect(shared.addr);
    // Wake any event loops attached to this server (event mode, or the
    // HTTP-only loop behind the blocking path); they tear their own
    // connections down.
    for wake in lock(&shared.shutdown_wakers).iter() {
        wake();
    }
    // Half-close every live session: pending responses still flush, the
    // next read sees EOF and the session winds down (aborting open units).
    for stream in lock(&shared.conns).values() {
        let _ = stream.shutdown(Shutdown::Read);
    }
}

fn accept_loop(
    shared: Arc<Shared>,
    listener: TcpListener,
    tx: mpsc::Sender<TcpStream>,
    max_connections: usize,
) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(s) => {
                shared
                    .metrics
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                let live = shared.metrics.connections_active.load(Ordering::Relaxed)
                    + shared.metrics.accept_queue_depth.load(Ordering::Relaxed);
                if max_connections > 0 && live as usize >= max_connections {
                    // At the session cap: close the excess connection rather
                    // than queue it behind a bound it can never clear.
                    drop(s);
                    continue;
                }
                // Gauge the hand-off queue: incremented here, decremented
                // when a worker picks the connection up. A persistently
                // non-zero depth means every worker is occupied by a live
                // session (the classic thread-per-session ceiling).
                shared
                    .metrics
                    .accept_queue_depth
                    .fetch_add(1, Ordering::Relaxed);
                if tx.send(s).is_err() {
                    break;
                }
            }
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    // Dropping the sender lets workers drain queued connections and exit.
}

fn worker_loop(shared: Arc<Shared>, rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    loop {
        // Take the receiver lock only while waiting for a connection, not
        // while serving one, so idle workers keep accepting hand-offs.
        let next = {
            let guard = lock(&rx);
            guard.recv()
        };
        match next {
            Ok(stream) => {
                shared
                    .metrics
                    .accept_queue_depth
                    .fetch_sub(1, Ordering::Relaxed);
                serve_connection(&shared, stream)
            }
            Err(_) => break, // accept loop gone and queue drained
        }
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    if let Ok(clone) = stream.try_clone() {
        lock(&shared.conns).insert(id, clone);
    }
    shared
        .metrics
        .connections_active
        .fetch_add(1, Ordering::Relaxed);
    // A parked claim is waited for by parking this thread; its grant
    // unparks it.
    let thread = thread::current();
    let mut driver = Driver::new(shared, id, Arc::new(move || thread.unpark()));
    // Session errors are per-connection: counted in metrics, never fatal to
    // the server. That includes panics — a worker thread serves many
    // connections over its lifetime, so an unwinding session must not kill
    // it (or skip the bookkeeping below).
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session_io(shared, &mut driver, &stream)
    }));
    // However the session ended — EOF, a transport error, the reaper, a
    // panic — a unit it left open is rolled back, which frees its claim.
    driver.disconnect();
    lock(&shared.conns).remove(&id);
    shared
        .metrics
        .connections_active
        .fetch_sub(1, Ordering::Relaxed);
}

/// Write out everything the encoder holds.
fn write_pending(mut stream: &TcpStream, out: &mut FrameEncoder) -> std::io::Result<()> {
    if !out.is_empty() {
        stream.write_all(out.pending())?;
        out.consume(out.pending().len());
    }
    Ok(())
}

/// The blocking transport's whole job: bytes in, [`Driver`], bytes out. One
/// `read` under the deadline that applies, every frame it completed through
/// the driver, one `write` per answered request.
fn session_io(shared: &Shared, driver: &mut Driver, mut stream: &TcpStream) -> ServerResult<()> {
    let mut decoder = FrameDecoder::new();
    let mut out = FrameEncoder::new();
    if shared.shutting_down.load(Ordering::SeqCst) {
        out.push(
            TraceId::NONE,
            &Response::Error {
                kind: ErrorKind::ShuttingDown,
                message: "server is shutting down".into(),
            },
        )?;
        let _ = write_pending(stream, &mut out);
        return Ok(());
    }
    let mut buf = [0u8; 16 * 1024];
    // The read deadline in force on the socket; re-armed (a syscall) only
    // when the one that applies changes.
    let mut armed = None;
    loop {
        while let Some((trace, req)) = driver.next_request(&mut decoder) {
            driver.on_request(&mut out, trace, req);
            if driver.is_parked() {
                // About to queue: what is already answered (a `UnitBegin`
                // ack) goes out first. A failed write resurfaces at the
                // next one.
                let _ = write_pending(stream, &mut out);
                while driver.is_parked() {
                    thread::park();
                    driver.on_wake(&mut out);
                }
            }
            write_pending(stream, &mut out)?;
            if shared.shutting_down.load(Ordering::SeqCst) {
                return Ok(()); // drained: last response delivered
            }
        }
        if driver.is_closing() {
            return Ok(());
        }
        // While the session holds a unit, silence is billed: a stalled
        // client must not block queued writers forever. Between units the
        // idle reaper's deadline (or none) applies.
        let deadline = if driver.in_unit() {
            Some(shared.unit_idle_timeout)
        } else {
            shared.idle_timeout
        };
        if deadline != armed {
            stream.set_read_timeout(deadline)?;
            armed = deadline;
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()),
            // Half a frame is kept: a deadline that fires before the rest
            // arrives leaves the stream in sync.
            Ok(n) => decoder.extend(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !driver.in_unit() {
                    shared
                        .metrics
                        .sessions_reaped
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                driver.end_unit(UnitEnd::TimedOut);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// The shards `work` must claim in the writer queue, as a mask (0 = none) —
/// the one decision of which work is lane-bound. For a slice of a streamed
/// unit it answers 0: the unit's claim is already held.
pub(crate) fn lane_mask_for(shared: &Shared, work: &Work) -> u64 {
    match work {
        // PCL installation changes what every future mutation does, and
        // compaction rewrites each shard's log: both quiesce every shard.
        Work::InstallPcl { .. } | Work::Compact => shared.db.db().store().all_shards_mask(),
        Work::UnitBatch { ops } => batch_lane_mask(shared, ops),
        _ => 0,
    }
}

/// Infer which shards a batch can touch, as a claim mask. Conservative by
/// construction: a write routed outside the unit's claim fails when it
/// stages, so anything unpredictable widens to every shard (deletes
/// cascade through relationships on arbitrary shards; installed rules — those
/// of the published rules record — may fire repair actions anywhere). The
/// masks here are meant to never trip that check.
pub(crate) fn batch_lane_mask(shared: &Shared, ops: &[MutationOp]) -> u64 {
    let store = shared.db.db().store();
    let all = store.all_shards_mask();
    let rules = shared.db.rules().rules(shared.db.db());
    if store.shard_count() == 1 || !matches!(rules.as_deref(), Ok([])) {
        return all;
    }
    let mut mask = 0u64;
    let mut creations = false;
    for op in ops {
        match op {
            MutationOp::CreateObject { .. } | MutationOp::CreateClassification { .. } => {
                creations = true;
            }
            MutationOp::SetAttr { oid, .. } => {
                mask |= 1u64 << store.shard_of_oid(*oid);
            }
            MutationOp::CreateRelationship {
                origin,
                destination,
                ..
            } => {
                mask |= 1u64 << store.shard_of_oid(*origin);
                mask |= 1u64 << store.shard_of_oid(*destination);
                creations = true; // the relationship record itself
            }
            MutationOp::AddEdgeToClassification {
                classification,
                rel,
            } => {
                mask |= 1u64 << store.shard_of_oid(*classification);
                mask |= 1u64 << store.shard_of_oid(*rel);
            }
            // Deletes cascade (dependent destinations, incident
            // relationships, synonym dissolution in the meta keyspace) to
            // shards no static inspection can bound.
            MutationOp::DeleteObject { .. } | MutationOp::DeleteRelationship { .. } => {
                return all;
            }
        }
    }
    if creations && mask == 0 {
        // Pure creations: home the whole batch on one round-robin shard.
        // Inside the unit, claim-aware OID allocation keeps every created
        // record on the claimed shard.
        mask = 1u64 << store.next_home_hint();
    }
    if mask == 0 {
        all
    } else {
        mask
    }
}

pub(crate) fn db_err(message: String) -> Response {
    Response::Error {
        kind: ErrorKind::Db,
        message,
    }
}

/// Execute one [`Work`] item against the database and observability state.
///
/// Lane-bound work runs bound to the unit of its granted claim on
/// `claim_mask` (the mask [`lane_mask_for`] computed at dispatch; for a
/// slice of a streamed unit, the unit's mask), and the driver settles that
/// unit: a batch's ops stage in it and commit, or roll back, together.
/// Error **counting** happens when the response is sent, not here. Unit
/// settlement is not [`Work`]: the driver owns the token.
pub(crate) fn execute_work(
    shared: &Shared,
    core: &mut SessionCore,
    work: Work,
    claim_mask: u64,
) -> Response {
    match work {
        Work::Query { pool, pinned } => query_response(shared, core, &pool, pinned, claim_mask),
        Work::SetContext { classification } => match &classification {
            Some(name) => match shared.db.db().classification_by_name(name) {
                Ok(Some(_)) => {
                    core.set_context(classification);
                    Response::Ack
                }
                Ok(None) => db_err(format!("unknown classification '{name}'")),
                Err(e) => db_err(e.to_string()),
            },
            None => {
                core.set_context(None);
                Response::Ack
            }
        },
        Work::InstallPcl { source } => match shared.db.install_pcl(&source) {
            Ok(rules) => Response::Installed { rules },
            Err(e) => db_err(e.to_string()),
        },
        Work::UnitBatch { ops } => {
            let db = shared.db.db();
            let created = ops
                .iter()
                .map(|op| Ok(apply_op(db, op)?.unwrap_or(Oid::NIL)))
                .collect::<DbResult<_>>();
            match created {
                Ok(created) => Response::Batch { created },
                Err(e) => db_err(e.to_string()),
            }
        }
        Work::Compact => match shared.db.compact() {
            Ok(()) => Response::Ack,
            Err(e) => db_err(e.to_string()),
        },
        Work::Stats => Response::Stats {
            server: Box::new(metrics_snapshot(shared)),
            storage: shared.db.stats(),
        },
        Work::Trace { n } => Response::Trace {
            events: shared.recorder.recent(n as usize),
        },
        Work::SlowLog { n } => Response::SlowLog {
            entries: shared.slow_log.recent(n as usize),
        },
        Work::TraceGet { trace_id } => trace_tree_response(shared, trace_id),
        Work::ReplicaPoll {
            follower,
            shard,
            epoch,
            offset,
            max_bytes,
        } => {
            // Serve committed frames straight off the requested shard's log
            // file: the member store reads below its flushed horizon without
            // the inner lock, so a polling follower never contends with
            // writers. `None` means the cursor no longer matches this log
            // (compaction bumped the epoch, or the offsets diverged) — tell
            // the follower to resync from scratch rather than guess.
            let sharded = shared.db.db().store();
            if shard as usize >= sharded.shard_count() {
                return db_err(format!(
                    "replica poll for shard {shard} but this database has {} shard(s)",
                    sharded.shard_count()
                ));
            }
            let span = shared.recorder.span(Stage::ReplicaPoll);
            let store = sharded.shard(shard as usize);
            match store.read_frames(epoch, offset, max_bytes) {
                Ok(Some(batch)) => {
                    shared.metrics.record_follower_poll(
                        &follower,
                        shard,
                        batch.next_offset,
                        batch.log_len,
                    );
                    span.finish(
                        batch.frames.len() as u64,
                        batch.log_len.saturating_sub(batch.next_offset),
                    );
                    Response::ReplicaFrames {
                        epoch: batch.epoch,
                        frames: batch.frames,
                        next_offset: batch.next_offset,
                        log_len: batch.log_len,
                    }
                }
                Ok(None) => {
                    let epoch = store.log_epoch();
                    let log_len = store.committed_log_len();
                    shared
                        .metrics
                        .record_follower_poll(&follower, shard, 0, log_len);
                    span.finish(0, log_len);
                    Response::ReplicaReset { epoch, log_len }
                }
                Err(e) => {
                    span.finish(0, 0);
                    db_err(e.to_string())
                }
            }
        }
        Work::ReplicaStatus => Response::ReplicaStatus(Box::new(replica_status_info(shared))),
        Work::UnitOp { op } => unit_op_response(shared.db.db(), &op),
    }
}

/// Assemble the merged span tree for `trace_id`: every event the local
/// flight recorder still holds, tagged with this process's origin, plus the
/// spans of the other side of the replication link when one exists and is
/// reachable. A follower dials its primary (it knows the address from its
/// replica config); the fetch uses a short read timeout and no connect
/// retries, so an unreachable peer degrades to a local-only tree instead of
/// stalling the session.
pub(crate) fn trace_tree_response(shared: &Shared, trace_id: TraceId) -> Response {
    let origin = if shared.replica.is_some() {
        "replica"
    } else {
        "primary"
    };
    let mut spans: Vec<TraceSpan> = shared
        .recorder
        .events_for(trace_id)
        .into_iter()
        .map(|event| TraceSpan {
            origin: origin.into(),
            event,
        })
        .collect();
    if let Some(info) = &shared.replica {
        if let Some(remote) = fetch_peer_spans(&info.primary, trace_id) {
            spans.extend(remote);
        }
    }
    // One merged timeline: clocks differ across processes, but within each
    // process spans stay in causal order, which is what the tree needs.
    spans.sort_by_key(|s| (s.event.start_us, s.event.span_id));
    Response::TraceTree { trace_id, spans }
}

/// Best-effort fetch of a replication peer's half of a distributed trace.
fn fetch_peer_spans(addr: &str, trace_id: TraceId) -> Option<Vec<TraceSpan>> {
    use std::net::ToSocketAddrs;
    let addr = addr.to_socket_addrs().ok()?.next()?;
    let mut client = PrometheusClient::connect_with(
        addr,
        ClientConfig {
            connect_retries: 0,
            retry_delay: Duration::from_millis(1),
            read_timeout: Some(Duration::from_secs(2)),
            client_name: "prometheus-trace-merge".into(),
        },
    )
    .ok()?;
    let spans = client.trace_get(trace_id).ok()?;
    let _ = client.close();
    Some(spans)
}

/// Apply one in-unit mutation and shape the wire response. A failed op
/// undoes exactly itself and leaves the unit open: the client chooses to
/// retry differently, commit what succeeded, or abort — exactly the
/// in-process unit semantics.
pub(crate) fn unit_op_response(db: &Database, op: &MutationOp) -> Response {
    match apply_op(db, op) {
        Ok(Some(oid)) => Response::Created { oid },
        Ok(None) => Response::Ack,
        Err(e) => db_err(e.to_string()),
    }
}

/// Run a POOL statement for this session on `reader` through the
/// executor; returns the wire rows plus the fingerprint of the plan that
/// ran (0 for `EXPLAIN`, which runs nothing).
///
/// A pinned query reads one immutable [`prometheus_db::ReadView`] snapshot
/// (traversals included): no store mutex and no interaction with the
/// writer queue. A query inside a unit reads the live database, so the
/// session observes its own uncommitted writes. Nothing else differs.
///
/// The statement may carry an `EXPLAIN` or `PROFILE` verb: `EXPLAIN`
/// answers with the plan rendered as one-column rows; `PROFILE` executes
/// under a fresh trace and answers with the span tree.
fn run_query<R: Reader>(
    shared: &Shared,
    core: &SessionCore,
    pool: &str,
    reader: &R,
) -> DbResult<(WireRows, u64)> {
    let (verb, text) = prometheus_pool::split_statement(pool);
    match verb {
        StatementKind::Select => {
            let (result, plan) = shared
                .executor
                .query_with_plan(reader, text, core.context())?;
            Ok((result.into(), plan.fingerprint))
        }
        StatementKind::Explain => {
            let lines = shared.executor.explain(reader, text, core.context())?;
            let rows = lines.into_iter().map(|l| vec![Value::Str(l)]).collect();
            Ok((
                WireRows {
                    columns: vec!["plan".into()],
                    rows,
                },
                0,
            ))
        }
        StatementKind::Profile => profile_query(shared, core, text, reader),
    }
}

/// `PROFILE <query>`: execute under a fresh trace id and answer with the
/// span tree — one row per span, parent-linked, with per-stage wall-clock
/// and counters (rows scanned, index seeding, worker counts).
fn profile_query<R: Reader>(
    shared: &Shared,
    core: &SessionCore,
    text: &str,
    reader: &R,
) -> DbResult<(WireRows, u64)> {
    let rec = &shared.recorder;
    let trace_id = rec.new_trace_id();
    let root = rec.span_in(Stage::Request, trace_id, 0);
    let root_id = root.id();
    let ran = {
        let _scope = TraceScope::enter(trace_id, root_id);
        // A profile never waits on the writer queue — record the zero wait
        // explicitly (c1 = 0: synthetic) so the profile shows the stage
        // honestly instead of omitting it. An in-unit profile's real lane
        // wait sits under its `UnitBegin` request's trace, not this one.
        rec.span(Stage::LaneWait).finish(0, 0);
        shared
            .executor
            .query_with_plan(reader, text, core.context())
    };
    let (result, plan) = ran?;
    root.finish(result.rows.len() as u64, plan.fingerprint);
    let events = rec.events_for(trace_id);
    Ok((profile_rows(&events), plan.fingerprint))
}

/// Render a trace's events as wire rows, one per span, depth-indented in
/// [`prometheus_trace::tree_order`] (parents before children, siblings in
/// start order).
fn profile_rows(events: &[TraceEvent]) -> WireRows {
    let rows = prometheus_trace::tree_order(events)
        .into_iter()
        .map(|(depth, ev)| {
            vec![
                Value::Str(format!("{:indent$}{}", "", ev.stage, indent = depth * 2)),
                Value::Int(ev.start_us as i64),
                Value::Int(ev.dur_us as i64),
                Value::Int(ev.c0 as i64),
                Value::Int(ev.c1 as i64),
                Value::Int(ev.span_id as i64),
                Value::Int(ev.parent_id as i64),
            ]
        })
        .collect();
    WireRows {
        columns: vec![
            "stage".into(),
            "start_us".into(),
            "dur_us".into(),
            "c0".into(),
            "c1".into(),
            "span".into(),
            "parent".into(),
        ],
        rows,
    }
}

/// Run a query and shape the wire response, feeding the slow-query log on
/// the way (the calling transport's current trace scope is the request root
/// span, so the entry links to the span tree still held by the trace ring).
/// `claim_mask` is the writer-lane mask the request executed under (0 for a
/// lock-free pinned read); the entry also carries the total lane-wait µs
/// recorded for the request's trace, so a slow query can be split into
/// queueing and execution at a glance.
pub(crate) fn query_response(
    shared: &Shared,
    core: &SessionCore,
    pool: &str,
    pinned: bool,
    claim_mask: u64,
) -> Response {
    let start = Instant::now();
    let ran = if pinned {
        run_query(shared, core, pool, &shared.db.read_view())
    } else {
        run_query(shared, core, pool, shared.db.db())
    };
    match ran {
        Ok((rows, fingerprint)) => {
            let elapsed = start.elapsed();
            if elapsed >= shared.slow_query_threshold {
                let trace_id = Recorder::current().0;
                // The slow path can afford the ring scan: sum the real
                // (c1 = 1) lane-wait spans recorded under this trace.
                let lane_wait_us = shared
                    .recorder
                    .events_for(trace_id)
                    .iter()
                    .filter(|e| e.stage == Stage::LaneWait && e.c1 == 1)
                    .map(|e| e.dur_us)
                    .sum();
                shared.slow_log.push(SlowLogEntry {
                    session: core.id(),
                    query: pool.to_string(),
                    context: core.context().map(str::to_string),
                    trace_id,
                    fingerprint,
                    dur_us: elapsed.as_micros() as u64,
                    rows: rows.len() as u64,
                    pinned,
                    lane_mask: claim_mask,
                    lane_wait_us,
                });
            }
            Response::Rows(rows)
        }
        Err(e) => db_err(e.to_string()),
    }
}

/// Answer `Request::ReplicaStatus` for either role. A primary reports its
/// own committed log as both ends of the cursor (zero lag by definition); a
/// follower reports the puller's live progress cell.
fn replica_status_info(shared: &Shared) -> ReplicaStatusInfo {
    match &shared.replica {
        Some(info) => ReplicaStatusInfo {
            role: "replica".into(),
            primary: Some(info.primary.clone()),
            epoch: info.status.epoch(),
            log_len: info.status.primary_log_len(),
            applied_offset: info.status.applied_offset(),
            caught_up_age_us: info.status.caught_up_age_us(),
            resyncs: info.status.resyncs(),
        },
        None => {
            // Sum the commit horizon across every shard log; the epoch
            // reported is shard 0's (each shard keeps its own epoch, but
            // compaction bumps them together, and single-shard databases —
            // the common case — have exactly one).
            let store = shared.db.db().store();
            let len: u64 = (0..store.shard_count())
                .map(|k| store.shard(k).committed_log_len())
                .sum();
            ReplicaStatusInfo {
                role: "primary".into(),
                primary: None,
                epoch: store.shard(0).log_epoch(),
                log_len: len,
                applied_offset: len,
                caught_up_age_us: 0,
                resyncs: 0,
            }
        }
    }
}

/// Server counters plus the query executor's, as one wire-ready snapshot.
pub(crate) fn metrics_snapshot(shared: &Shared) -> MetricsSnapshot {
    let mut snap = shared.metrics.snapshot();
    let exec = shared.executor.stats();
    // No plan is cached: every query plans, so every query is a miss and
    // `plan_cache_hits` stays 0.
    snap.plan_cache_misses = exec.plans;
    snap.parallel_morsels = exec.parallel_morsels;
    let store = shared.db.db().store();
    // Lag is measured against the shard's commit horizon *now*, not the
    // horizon at the follower's last poll: a follower that fully drained its
    // last batch is still behind by whatever committed since.
    for f in &mut snap.replication {
        if (f.shard as usize) < store.shard_count() {
            let committed = store.shard(f.shard as usize).committed_log_len();
            f.log_len = f.log_len.max(committed);
        }
        f.lag_bytes = f.log_len.saturating_sub(f.next_offset);
    }
    snap.shards = store.shard_count() as u64;
    snap.per_shard = store
        .per_shard_stats()
        .into_iter()
        .enumerate()
        .map(|(k, s)| ShardMetrics {
            lane_depth: shared.db.db().claims_on(k),
            snapshot_swaps: s.snapshot_swaps,
            image_bytes_copied: s.image_bytes_copied,
            units_2pc: s.units_2pc,
        })
        .collect();
    // Process self-metrics and flight-recorder health, so the scrape
    // endpoint and the wire Stats verb agree on them by construction.
    snap.start_unix_s = shared.started_unix_s;
    snap.uptime_s = shared.started_at.elapsed().as_secs();
    snap.build_info = vec![
        ("version".into(), env!("CARGO_PKG_VERSION").into()),
        (
            "protocol".into(),
            crate::protocol::PROTOCOL_VERSION.to_string(),
        ),
    ];
    snap.trace_rollups = shared.recorder.stage_rollups();
    snap.trace_events_written = shared.recorder.events_written();
    snap.trace_dropped = shared.recorder.dropped();
    snap
}

/// Apply one wire mutation through the object layer (full §4.4 semantics).
fn apply_op(db: &Database, op: &MutationOp) -> DbResult<Option<Oid>> {
    match op {
        MutationOp::CreateObject { class, attrs } => {
            db.create_object(class, attrs.iter().cloned()).map(Some)
        }
        MutationOp::SetAttr { oid, attr, value } => {
            db.set_attr(*oid, attr, value.clone()).map(|_| None)
        }
        MutationOp::DeleteObject { oid } => db.delete_object(*oid).map(|_| None),
        MutationOp::CreateRelationship {
            class,
            origin,
            destination,
            attrs,
        } => db
            .create_relationship(class, *origin, *destination, attrs.iter().cloned())
            .map(Some),
        MutationOp::DeleteRelationship { oid } => db.delete_relationship(*oid).map(|_| None),
        MutationOp::CreateClassification {
            name,
            attrs,
            strict_hierarchy,
        } => db
            .create_classification(name, attrs.iter().cloned(), *strict_hierarchy)
            .map(Some),
        MutationOp::AddEdgeToClassification {
            classification,
            rel,
        } => db
            .add_edge_to_classification(*classification, *rel)
            .map(|_| None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PrometheusClient;
    use crate::frame::{read_msg, write_msg};
    use crate::protocol::{Request, PROTOCOL_VERSION};
    use prometheus_db::{StoreOptions, Value};
    use prometheus_taxonomy::Rank;

    fn tmp(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "prometheus-server-{name}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn serve_taxonomy(name: &str, workers: usize) -> ServerHandle {
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
        serve(
            p,
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn ping_query_stats_round_trip() {
        let handle = serve_taxonomy("roundtrip", 2);
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        let rows = client
            .query("select t.working_name from CT t order by t.working_name")
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.rows[0][0], Value::Str("Apium".into()));
        let (server, storage) = client.stats().unwrap();
        assert!(server.requests_of("query") >= 1);
        assert!(server.connections_active >= 1);
        assert!(storage.commits > 0, "seeding must show in storage counters");
        client.close().unwrap();
        handle.stop();
    }

    #[test]
    fn unit_batch_commits_and_bad_batch_rolls_back() {
        let handle = serve_taxonomy("batch", 2);
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        let created = client
            .unit_batch(vec![MutationOp::CreateObject {
                class: "CT".into(),
                attrs: vec![
                    ("working_name".into(), Value::Str("Daucus".into())),
                    ("rank".into(), Value::Str("Genus".into())),
                ],
            }])
            .unwrap();
        assert_eq!(created.len(), 1);
        assert!(!created[0].is_nil());
        assert_eq!(client.query("select t from CT t").unwrap().len(), 3);
        // Second op is invalid: the whole batch must roll back.
        let err = client.unit_batch(vec![
            MutationOp::CreateObject {
                class: "CT".into(),
                attrs: vec![
                    ("working_name".into(), Value::Str("Lost".into())),
                    ("rank".into(), Value::Str("Genus".into())),
                ],
            },
            MutationOp::CreateObject {
                class: "NoSuchClass".into(),
                attrs: vec![],
            },
        ]);
        assert!(err.is_err());
        assert_eq!(client.query("select t from CT t").unwrap().len(), 3);
        client.close().unwrap();
        handle.stop();
    }

    #[test]
    fn streamed_unit_commit_and_abort() {
        let handle = serve_taxonomy("unit", 2);
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        {
            let mut unit = client.begin_unit().unwrap();
            let oid = unit
                .create_object(
                    "CT",
                    vec![
                        ("working_name".into(), Value::Str("Kept".into())),
                        ("rank".into(), Value::Str("Genus".into())),
                    ],
                )
                .unwrap();
            assert!(!oid.is_nil());
            // Reads inside the unit see its own writes.
            assert_eq!(unit.query("select t from CT t").unwrap().len(), 3);
            unit.commit().unwrap();
        }
        assert_eq!(client.query("select t from CT t").unwrap().len(), 3);
        {
            let mut unit = client.begin_unit().unwrap();
            unit.create_object(
                "CT",
                vec![
                    ("working_name".into(), Value::Str("Dropped".into())),
                    ("rank".into(), Value::Str("Genus".into())),
                ],
            )
            .unwrap();
            unit.abort().unwrap();
        }
        assert_eq!(client.query("select t from CT t").unwrap().len(), 3);
        client.close().unwrap();
        handle.stop();
    }

    #[test]
    fn unit_guard_drop_aborts() {
        let handle = serve_taxonomy("guard", 2);
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        {
            let mut unit = client.begin_unit().unwrap();
            unit.create_object(
                "CT",
                vec![
                    ("working_name".into(), Value::Str("Ghost".into())),
                    ("rank".into(), Value::Str("Genus".into())),
                ],
            )
            .unwrap();
            // Guard dropped without commit: abort is sent on Drop.
        }
        assert_eq!(client.query("select t from CT t").unwrap().len(), 2);
        client.close().unwrap();
        handle.stop();
    }

    #[test]
    fn session_context_scopes_queries() {
        let p = Prometheus::open_with(
            tmp("context"),
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        let tax = p.taxonomy().unwrap();
        let cls = tax
            .new_classification("Linnaeus 1753", "L.", "habit")
            .unwrap();
        let genus = tax.create_ct("Apium", Rank::Genus).unwrap();
        let species = tax.create_ct("graveolens", Rank::Species).unwrap();
        tax.circumscribe(&cls, genus, species).unwrap();
        tax.create_ct("Orphan", Rank::Genus).unwrap(); // outside the classification
        tax.new_classification("Koch 1824", "K.", "habit").unwrap(); // empty
        let handle = serve(
            p,
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        assert_eq!(client.query("select t from CT t").unwrap().len(), 3);
        client.set_context(Some("Linnaeus 1753")).unwrap();
        assert_eq!(client.query("select t from CT t").unwrap().len(), 2);
        client.set_context(None).unwrap();
        assert_eq!(client.query("select t from CT t").unwrap().len(), 3);
        assert!(client.set_context(Some("No Such Revision")).is_err());
        // Inside a unit the query reads the live database through the same
        // executor: the session context scopes it, and the query's own
        // `in classification` clause overrides the session context.
        client.set_context(Some("Koch 1824")).unwrap();
        let mut unit = client.begin_unit().unwrap();
        assert_eq!(unit.query("select t from CT t").unwrap().len(), 0);
        let linnaeus = "select t from CT t in classification \"Linnaeus 1753\"";
        assert_eq!(unit.query(linnaeus).unwrap().len(), 2);
        unit.abort().unwrap();
        client.close().unwrap();
        handle.stop();
    }

    #[test]
    fn protocol_misuse_is_reported() {
        let handle = serve_taxonomy("misuse", 2);
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        // Commit without an open unit.
        let err = client.commit_orphan_unit();
        match err {
            Err(ServerError::Remote { kind, .. }) => assert_eq!(kind, ErrorKind::Protocol),
            other => panic!("expected protocol error, got {other:?}"),
        }
        // Bad POOL text is a db error; the session survives both.
        assert!(client.query("selec t frm").is_err());
        client.ping().unwrap();
        client.close().unwrap();
        handle.stop();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let handle = serve_taxonomy("version", 2);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_msg(
            &mut stream,
            TraceId::NONE,
            &Request::Hello {
                version: 999,
                client: "old".into(),
            },
        )
        .unwrap();
        let (_, resp): (TraceId, Response) = read_msg(&mut stream).unwrap();
        match resp {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::ProtocolMismatch);
                assert!(
                    message.contains("999") && message.contains(&PROTOCOL_VERSION.to_string()),
                    "mismatch error must name both versions: {message}"
                );
            }
            other => panic!("expected protocol-mismatch error, got {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn profile_rows_follow_the_tree_walk() {
        let ev = |span_id, parent_id, stage, start_us| TraceEvent {
            trace_id: TraceId::from_words(1, 1),
            span_id,
            parent_id,
            stage,
            start_us,
            dur_us: 1,
            c0: 0,
            c1: 0,
        };
        // Finish order: the root request span records last.
        let events = [
            ev(4, 3, Stage::Filter, 30),
            ev(3, 1, Stage::Scan, 20),
            ev(2, 1, Stage::Plan, 10),
            ev(1, 0, Stage::Request, 0),
        ];
        let rows = profile_rows(&events);
        let cells: Vec<(Value, Value)> = rows
            .rows
            .iter()
            .map(|row| (row[0].clone(), row[5].clone()))
            .collect();
        let want = [
            ("request", 1),
            ("  plan", 2),
            ("  scan", 3),
            ("    filter", 4),
        ];
        let want: Vec<(Value, Value)> = want
            .iter()
            .map(|&(stage, span)| (Value::Str(stage.into()), Value::Int(span)))
            .collect();
        assert_eq!(cells, want);
    }

    /// Open the store at `path` — no file is removed — with the taxonomic
    /// schema, and serve it.
    fn serve_at(path: &std::path::Path) -> ServerHandle {
        let p = Prometheus::open_with(
            path,
            StoreOptions {
                sync_on_commit: false,
            },
        )
        .unwrap();
        p.taxonomy().unwrap();
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServerConfig::default()
        };
        serve(p, config).unwrap()
    }

    fn create_ct(client: &mut PrometheusClient, name: &str) -> ServerResult<Vec<Oid>> {
        client.unit_batch(vec![MutationOp::CreateObject {
            class: "CT".into(),
            attrs: vec![
                ("working_name".into(), Value::Str(name.into())),
                ("rank".into(), Value::Str("Genus".into())),
            ],
        }])
    }

    /// The names of the rules the store at `path` holds, read by an engine
    /// of a handle opened after the server that wrote them stopped.
    fn stored_rules(path: &std::path::Path) -> Vec<String> {
        let p = Prometheus::open_with(path, StoreOptions::default()).unwrap();
        let rules = p.rules().rules(p.db()).unwrap();
        rules.into_iter().map(|r| r.name).collect()
    }

    /// A PCL document over the wire installs in the unit its request runs
    /// in: when its second rule's name is taken, its first is not kept.
    #[test]
    fn install_pcl_over_the_wire_is_all_or_none() {
        let path = tmp("pcl-all-or-none");
        let handle = serve_at(&path);
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        let named = "context CT pre named: self.working_name != \"\"";
        assert_eq!(client.install_pcl(named).unwrap(), 1);
        let doc = format!("context CT pre noSium: self.working_name != \"Sium\"\n{named}");
        let err = client.install_pcl(&doc).unwrap_err();
        assert!(err.to_string().contains("already defined"), "{err}");
        create_ct(&mut client, "Sium").expect("noSium was not installed");
        client.close().unwrap();
        handle.stop();
        assert_eq!(stored_rules(&path), vec!["named".to_string()]);
    }

    /// A vetoed op in a streamed unit fails alone: the unit stays open, and
    /// its commit keeps exactly the ops on either side of it.
    #[test]
    fn a_vetoed_unit_op_leaves_the_streamed_unit_open() {
        let handle = serve_at(&tmp("vetoed-op"));
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        client
            .install_pcl("context CT pre named: self.working_name != \"\"")
            .unwrap();
        let ct = |name: &str| {
            vec![
                ("working_name".to_string(), Value::Str(name.into())),
                ("rank".to_string(), Value::Str("Genus".into())),
            ]
        };
        let mut unit = client.begin_unit().unwrap();
        unit.create_object("CT", ct("A")).unwrap();
        let err = unit.create_object("CT", ct("")).unwrap_err();
        assert!(err.to_string().contains("named"), "{err}");
        unit.create_object("CT", ct("C")).unwrap();
        unit.commit().unwrap();
        let names = client
            .query("select t.working_name from CT t order by t.working_name")
            .unwrap();
        let names: Vec<Value> = names.rows.into_iter().flatten().collect();
        assert_eq!(names, vec![Value::Str("A".into()), Value::Str("C".into())]);
        client.close().unwrap();
        handle.stop();
    }

    /// Rules installed over the wire are in the image: a restarted server
    /// lists them and they fire.
    #[test]
    fn rules_installed_over_the_wire_survive_a_restart() {
        let path = tmp("pcl-restart");
        let handle = serve_at(&path);
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        client
            .install_pcl("context CT pre named: self.working_name != \"\"")
            .unwrap();
        client.close().unwrap();
        handle.stop();
        assert_eq!(stored_rules(&path), vec!["named".to_string()]);
        let handle = serve_at(&path);
        let mut client = PrometheusClient::connect(handle.addr()).unwrap();
        let err = create_ct(&mut client, "").unwrap_err();
        assert!(err.to_string().contains("named"), "{err}");
        create_ct(&mut client, "Daucus").unwrap();
        client.close().unwrap();
        handle.stop();
    }

    #[test]
    fn graceful_shutdown_drains_and_joins() {
        let handle = serve_taxonomy("shutdown", 2);
        let addr = handle.addr();
        let mut client = PrometheusClient::connect(addr).unwrap();
        client.ping().unwrap();
        client.shutdown_server().unwrap();
        handle.join();
        // After join, either connects are refused or the session is told the
        // server is shutting down; a fresh ping must not succeed.
        let late = PrometheusClient::connect(addr);
        assert!(late.is_err());
    }
}
