//! # prometheus-replica — log-shipping read replicas for Prometheus
//!
//! The thesis (§2.4) frames Prometheus as a multi-user taxonomic database;
//! the wire layer (`prometheus-server`) already lets many taxonomists share
//! one primary. This crate adds the missing scale-out half: **read
//! replicas** that replay the primary's redo log and serve the same POOL
//! query surface, so browse-heavy workloads (the common case for a published
//! flora) fan out across machines while every write still funnels through
//! the primary's single writer lane.
//!
//! ## How replication works
//!
//! The redo log *is* the replication stream — there is no second format.
//! A [`Follower`] runs a puller thread that cursors over the primary's
//! committed log with `Request::ReplicaPoll { epoch, offset, … }`:
//!
//! * The first poll from offset 0 streams the compacted prefix — the
//!   checkpoint — and then the live tail; there is no separate snapshot
//!   transfer.
//! * Frames are appended to the follower's own log verbatim (the codec is
//!   deterministic, so the two logs stay **byte-identical** and the
//!   follower's local log length is the cursor), then replayed through the
//!   same group-buffering state machine crash recovery uses: a unit's
//!   frames are buffered and only published when its `UnitEnd` seals it, so
//!   readers on the follower never observe half a unit.
//! * The primary stamps every answer with its **log epoch**, bumped by
//!   compaction. An epoch change (or a cursor that no longer falls on a
//!   frame boundary, e.g. after a crash un-wrote unsynced bytes) makes the
//!   primary answer `ReplicaReset`: the follower discards its state and
//!   resyncs from offset 0 — conservative, simple, and always correct.
//!
//! The follower serves queries through the ordinary server with
//! [`ServerConfig::replica`] set: mutating verbs get a typed
//! `read-only-replica` error naming the primary, and `ReplicaStatus`
//! reports the puller's live progress (applied offset, primary horizon,
//! staleness age, resync count).
//!
//! ## Routing
//!
//! [`RoutedClient`] gives applications one endpoint view over a primary
//! plus followers. Reads declare their staleness budget via
//! [`Consistency`]: `Strong` pins to the primary; `Stale(max)` may be
//! served by any follower that was observed fully caught up within `max`
//! — and, after this client has written, only by a follower that caught up
//! *after* that write (read-your-writes).

use prometheus_db::{Database, Prometheus, StoreOptions};
use prometheus_server::client::PollOutcome;
use prometheus_server::{
    serve, ClientConfig, ErrorKind, MutationOp, PrometheusClient, ReplicaInfo, ReplicaStatusCell,
    ServerConfig, ServerError, ServerHandle, ServerResult, WireRows,
};
use prometheus_storage::{Oid, ShardedStore};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Everything needed to run one read replica.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Address of the primary, as dialled by the puller (and named in the
    /// `read-only-replica` error clients get for writes).
    pub primary: String,
    /// Path of the follower's own redo log (a byte-wise replica of the
    /// primary's; safe to delete — the follower resyncs from scratch).
    pub path: PathBuf,
    /// Bind address for the follower's read-only server (port 0 for
    /// ephemeral).
    pub addr: String,
    /// Follower name reported in polls; keys the primary's per-follower
    /// lag gauges, so give each follower a distinct one.
    pub name: String,
    /// How long to sleep when fully caught up before polling again. Bounds
    /// the follower's idle staleness; while behind, the puller polls
    /// continuously.
    pub poll_interval: Duration,
    /// Soft cap on redo bytes per poll answer (one oversized frame still
    /// comes through whole).
    pub max_batch_bytes: u64,
    /// Worker threads for the read-only server.
    pub workers: usize,
    /// Whether the follower fsyncs applied batches. Defaults off: the
    /// primary's log is the durable copy, and a crashed follower rebuilds
    /// from it.
    pub sync_on_commit: bool,
    /// Shard count — **must match the primary's**. The puller cursors each
    /// shard's log independently (the wire poll names a shard since
    /// protocol v7), keeping every local shard log byte-identical to its
    /// primary counterpart.
    pub shards: usize,
}

impl FollowerConfig {
    /// Sensible defaults for a follower of `primary` storing at `path`.
    pub fn new(primary: impl Into<String>, path: impl Into<PathBuf>) -> FollowerConfig {
        FollowerConfig {
            primary: primary.into(),
            path: path.into(),
            addr: "127.0.0.1:0".into(),
            name: "follower".into(),
            poll_interval: Duration::from_millis(20),
            max_batch_bytes: 1 << 20,
            workers: 4,
            sync_on_commit: false,
            shards: 1,
        }
    }
}

/// A running read replica: a replay puller plus a read-only server.
pub struct Follower;

impl Follower {
    /// Open (or create) the local replica store, start the read-only server
    /// and the puller thread. Returns once the server is bound — the
    /// replica serves (possibly stale) reads immediately while catching up.
    pub fn start(config: FollowerConfig) -> ServerResult<FollowerHandle> {
        // Follower-mode open: a crash-left prepared 2PC tail stays in-doubt
        // locally — the primary's own resolution frames arrive through the
        // replicated stream, keeping the shard logs byte-identical.
        let db = Prometheus::open_follower(
            &config.path,
            StoreOptions {
                sync_on_commit: config.sync_on_commit,
            },
            config.shards.max(1),
        )
        .map_err(|e| ServerError::Connect(format!("open replica store: {e}")))?;
        let store = Arc::clone(db.db().store());
        let database = Arc::clone(db.db());
        let status = Arc::new(ReplicaStatusCell::default());
        let server = serve(
            db,
            ServerConfig {
                addr: config.addr.clone(),
                workers: config.workers,
                replica: Some(ReplicaInfo {
                    primary: config.primary.clone(),
                    status: Arc::clone(&status),
                }),
                ..ServerConfig::default()
            },
        )?;
        let stop = Arc::new(AtomicBool::new(false));
        let puller = {
            let stop = Arc::clone(&stop);
            let status = Arc::clone(&status);
            let puller_db = Arc::clone(&database);
            thread::Builder::new()
                .name(format!("prometheus-puller-{}", config.name))
                .spawn(move || pull_loop(config, store, puller_db, status, stop))?
        };
        Ok(FollowerHandle {
            addr: server.addr(),
            database,
            status,
            stop,
            puller: Some(puller),
            server: Some(server),
        })
    }
}

/// Handle to a running [`Follower`]; stops both threads on drop.
pub struct FollowerHandle {
    addr: SocketAddr,
    database: Arc<Database>,
    status: Arc<ReplicaStatusCell>,
    stop: Arc<AtomicBool>,
    puller: Option<thread::JoinHandle<()>>,
    server: Option<ServerHandle>,
}

impl FollowerHandle {
    /// Bound address of the read-only server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replica's database, which the puller applies batches beneath.
    pub fn db(&self) -> &Arc<Database> {
        &self.database
    }

    /// Live replication progress (shared with the server's `ReplicaStatus`).
    pub fn status(&self) -> &Arc<ReplicaStatusCell> {
        &self.status
    }

    /// Block until the follower has polled the primary at least once and
    /// observed itself fully caught up; `false` on timeout. Catch-up is a
    /// moving target under live writes — this is a test/benchmark aid, not
    /// a consistency barrier.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.status.polls() > 0 && self.status.lag_bytes() == 0 {
                return true;
            }
            thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// Stop the puller and the server, and join both.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(puller) = self.puller.take() {
            let _ = puller.join();
        }
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The puller: connect to the primary (forever, with backoff), cursor over
/// each shard's committed log, apply frames locally, repeat. A shard's
/// cursor is the follower's own shard-log length — no separate progress
/// file to keep honest. The status cell aggregates across shards (applied
/// and horizon bytes summed), so lag and catch-up read exactly like the
/// single-shard case.
fn pull_loop(
    config: FollowerConfig,
    store: Arc<ShardedStore>,
    db: Arc<Database>,
    status: Arc<ReplicaStatusCell>,
    stop: Arc<AtomicBool>,
) {
    let nshards = store.shard_count();
    // Per-shard epochs under which the local log bytes were pulled. Not
    // persisted: a restarted follower starts at 0 and the primary's first
    // answer either matches (that shard never compacted) or forces one
    // clean resync.
    let mut epochs = vec![0u64; nshards];
    // The primary's committed length per shard, as of the last poll that
    // answered for it — the aggregate horizon for lag accounting.
    let mut horizons = vec![0u64; nshards];
    while !stop.load(Ordering::SeqCst) {
        let client = PrometheusClient::connect_with(
            parse_addr(&config.primary),
            ClientConfig {
                connect_retries: 0,
                client_name: format!("replica:{}", config.name),
                ..ClientConfig::default()
            },
        );
        let Ok(mut client) = client else {
            // Primary unreachable: keep the replica serving its last state,
            // retry after a beat. Staleness age keeps growing meanwhile,
            // which is what routing needs to see.
            sleep_unless_stopped(&stop, config.poll_interval);
            continue;
        };
        'connected: while !stop.load(Ordering::SeqCst) {
            // One sweep: poll every shard once, then report aggregate
            // progress. While any shard has a backlog the sweep repeats
            // immediately; fully drained, the puller eases off.
            let mut caught_up = true;
            for shard in 0..nshards {
                let member = store.shard(shard);
                let offset = member.committed_log_len();
                match client.replica_poll(
                    &config.name,
                    shard as u32,
                    epochs[shard],
                    offset,
                    config.max_batch_bytes,
                ) {
                    Ok(PollOutcome::Frames {
                        epoch: e,
                        frames,
                        next_offset,
                        log_len,
                    }) => {
                        epochs[shard] = e;
                        horizons[shard] = log_len;
                        if !frames.is_empty() {
                            caught_up = false;
                            // A batch that does not apply, or whose meta no
                            // longer decodes, resyncs from zero.
                            if member.apply_replicated(&frames).is_err() || db.refresh().is_err() {
                                resync(&store, &db, &status, &mut horizons);
                                continue 'connected;
                            }
                        }
                        let applied = member.committed_log_len();
                        if applied < log_len {
                            caught_up = false;
                        }
                        debug_assert!(
                            frames.is_empty() || applied == next_offset,
                            "replayed shard log must stay byte-aligned with the primary"
                        );
                    }
                    Ok(PollOutcome::Reset {
                        epoch: e,
                        log_len: _,
                    }) => {
                        // Any shard diverging discards *all* local state:
                        // cross-shard units settle with records on several
                        // shard logs, so per-shard partial resync could
                        // tear a committed unit apart.
                        epochs[shard] = e;
                        resync(&store, &db, &status, &mut horizons);
                        continue 'connected;
                    }
                    Err(e) if e.is_fatal() => break 'connected, // reconnect
                    Err(ServerError::Remote {
                        kind: ErrorKind::ShuttingDown,
                        ..
                    }) => break 'connected,
                    Err(_) => {
                        // Non-fatal remote hiccup: back off and re-poll on
                        // the same connection.
                        sleep_unless_stopped(&stop, config.poll_interval);
                        continue 'connected;
                    }
                }
            }
            let applied: u64 = (0..nshards)
                .map(|k| store.shard(k).committed_log_len())
                .sum();
            status.record_progress(epochs[0], applied, horizons.iter().sum());
            if caught_up {
                // Caught up on every shard: ease off the primary.
                sleep_unless_stopped(&stop, config.poll_interval);
            }
        }
    }
}

/// Discard all local replica state — every shard — and count the resync;
/// the next sweep starts every cursor over from offset 0.
fn resync(store: &ShardedStore, db: &Database, status: &ReplicaStatusCell, horizons: &mut [u64]) {
    for k in 0..store.shard_count() {
        if store.shard(k).reset_to_empty().is_err() {
            return;
        }
    }
    horizons.fill(0);
    let _ = db.refresh();
    status.record_resync();
}

fn sleep_unless_stopped(stop: &AtomicBool, d: Duration) {
    let deadline = Instant::now() + d;
    while !stop.load(Ordering::SeqCst) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2).min(d));
    }
}

fn parse_addr(addr: &str) -> SocketAddr {
    addr.parse()
        .unwrap_or_else(|_| SocketAddr::from(([127, 0, 0, 1], 0)))
}

/// How fresh a routed read must be; see [`RoutedClient::query`].
#[derive(Debug, Clone, Copy)]
pub enum Consistency {
    /// Serve from the primary: always current, never scales out.
    Strong,
    /// May be served by a follower observed fully caught up within the
    /// given budget (and after this client's last write). Falls back to the
    /// primary when no follower qualifies.
    Stale(Duration),
}

/// Which endpoint served the last routed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Primary,
    Follower(usize),
}

/// One logical connection over a primary plus its read replicas.
///
/// Writes always go to the primary. Reads carry a [`Consistency`]: strong
/// reads pin to the primary; staleness-tolerant reads round-robin across
/// followers whose catch-up age fits the budget, falling back to the
/// primary when none does. After any write through this client, followers
/// are only eligible once observed caught up *after* the write instant, so
/// a session never fails to read its own writes.
pub struct RoutedClient {
    primary: PrometheusClient,
    followers: Vec<PrometheusClient>,
    rr: usize,
    last_write: Option<Instant>,
    last_route: Route,
}

impl RoutedClient {
    /// Connect to the primary and every follower.
    pub fn connect(primary: SocketAddr, followers: &[SocketAddr]) -> ServerResult<RoutedClient> {
        let primary = PrometheusClient::connect(primary)?;
        let followers = followers
            .iter()
            .map(|addr| PrometheusClient::connect(*addr))
            .collect::<ServerResult<Vec<_>>>()?;
        Ok(RoutedClient {
            primary,
            followers,
            rr: 0,
            last_write: None,
            last_route: Route::Primary,
        })
    }

    /// Run a POOL query under the given consistency.
    pub fn query(&mut self, pool: &str, consistency: Consistency) -> ServerResult<WireRows> {
        let route = match consistency {
            Consistency::Strong => Route::Primary,
            Consistency::Stale(budget) => match self.pick_follower(budget) {
                Some(i) => Route::Follower(i),
                None => Route::Primary,
            },
        };
        self.last_route = route;
        match route {
            Route::Primary => self.primary.query(pool),
            Route::Follower(i) => self.followers[i].query(pool),
        }
    }

    /// Which endpoint the last [`RoutedClient::query`] used.
    pub fn last_route(&self) -> Route {
        self.last_route
    }

    /// Run one atomic unit of work on the primary; counts as a write for
    /// read-your-writes routing.
    pub fn unit_batch(&mut self, ops: Vec<MutationOp>) -> ServerResult<Vec<Oid>> {
        let created = self.primary.unit_batch(ops)?;
        self.note_write();
        Ok(created)
    }

    /// Install PCL rules on the primary; counts as a write.
    pub fn install_pcl(&mut self, source: &str) -> ServerResult<usize> {
        let rules = self.primary.install_pcl(source)?;
        self.note_write();
        Ok(rules)
    }

    /// Set (or clear) the classification context on every endpoint, so a
    /// later query reads the same scope wherever it routes.
    pub fn set_context(&mut self, classification: Option<&str>) -> ServerResult<()> {
        self.primary.set_context(classification)?;
        for follower in &mut self.followers {
            follower.set_context(classification)?;
        }
        Ok(())
    }

    /// Direct access to the primary connection (streamed units, stats,
    /// compaction…). After writing through it, call
    /// [`RoutedClient::note_write`] to keep read-your-writes routing honest.
    pub fn primary(&mut self) -> &mut PrometheusClient {
        &mut self.primary
    }

    /// Record that this client just wrote: stale reads stay pinned to the
    /// primary until a follower is observed caught up after this instant.
    pub fn note_write(&mut self) {
        self.last_write = Some(Instant::now());
    }

    /// Close every connection politely.
    pub fn close(mut self) -> ServerResult<()> {
        for follower in self.followers.drain(..) {
            follower.close()?;
        }
        self.primary.close()
    }

    /// Round-robin scan for a follower whose last observed full catch-up is
    /// within `budget` — and newer than this client's last write.
    fn pick_follower(&mut self, budget: Duration) -> Option<usize> {
        let n = self.followers.len();
        for step in 0..n {
            let i = (self.rr + step) % n;
            let Ok(status) = self.followers[i].replica_status() else {
                continue;
            };
            let age = Duration::from_micros(status.caught_up_age_us);
            if age > budget {
                continue;
            }
            if let Some(write) = self.last_write {
                match Instant::now().checked_sub(age) {
                    Some(caught_up_at) if caught_up_at > write => {}
                    _ => continue, // caught up before (or unknown): not RYW-safe
                }
            }
            self.rr = (i + 1) % n;
            return Some(i);
        }
        None
    }
}
