//! The cost ladder: the same logical operations priced at every layer they
//! cross, from outside, by timing calls into each layer's public functions.
//!
//! Rows run bottom-up: persistent map → `Store` → `ShardedStore` → object
//! layer → rules → POOL → taxonomy → frame codec and `SessionCore` → TCP on
//! each transport. A layer's self time is its row minus the row beneath it
//! (`bench/README.md` says which row sits beneath which).
//!
//! Read rows run on the workload's own dataset, so the size that matters —
//! whether it fits the decoded-object cache — is the workload's. Rows that
//! write run on a scratch `flora-S` built here, so no traced run alters the
//! database its workload has just checked.

use crate::flora::{FamilyIds, Flora};
use crate::harness::{self, apply, err, Dataset, Res, Scratch};
use crate::measure::Kind;
use crate::queries::{Churn, Query, Stream};
use crate::report::{Config, Metric};
use crate::rng::Rng;
use crate::spans::{rollup, Spans};
use crate::stats;
use crate::wire::{run_phase, Until};
use crate::workloads::reads::ask;
use crate::workloads::revision_session::{Budget, Session};
use prometheus_db::pool::{self, Executor};
use prometheus_db::storage::{Bytes, Keyspace, PMap, ShardRouting, ShardedStore, Store, Touch};
use prometheus_db::{Classification, Database, Oid, Prometheus, Reader, Value};
use prometheus_server::{
    serve, FrameDecoder, FrameEncoder, MutationOp, PrometheusClient, Request, Response,
    ServerConfig, ServerHandle, SessionCore, TraceId, WireRows, PROTOCOL_VERSION,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Write a traced phase's spans next to the executable.
pub fn write_spans(workload: &str, spans: &Spans) -> Res<()> {
    let exe = std::env::current_exe().map_err(err)?;
    let file = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("ladder-spans-{workload}.tsv"));
    let out = std::io::BufWriter::new(std::fs::File::create(&file).map_err(err)?);
    spans.write_to(out).map_err(err)?;
    println!(
        "  spans: {} written to {}",
        spans.spans().len(),
        file.display()
    );
    Ok(())
}

/// Collects the ladder's rows.
struct Rows {
    budget: Duration,
    out: Vec<Metric>,
}

impl Rows {
    fn push(&mut self, name: &str, value: f64, samples: u64) {
        self.out.push(Metric::new(name, value, samples));
    }

    /// Time `f`: the median, over five equal slices of the row's budget, of
    /// the mean time of one call, in nanoseconds. `batch` calls run between
    /// clock readings, so a call of tens of nanoseconds is not drowned by
    /// the clock.
    fn time(&self, batch: u64, mut f: impl FnMut()) -> (f64, u64) {
        let slice = self.budget / 5;
        let mut means = Vec::with_capacity(5);
        let mut calls = 0;
        for _ in 0..5 {
            let began = Instant::now();
            let mut n = 0u64;
            loop {
                for _ in 0..batch {
                    f();
                }
                n += batch;
                if began.elapsed() >= slice {
                    break;
                }
            }
            means.push(began.elapsed().as_nanos() as f64 / n as f64);
            calls += n;
        }
        (stats::median_of(means).expect("five slices"), calls)
    }

    fn row_ns(&mut self, name: &str, batch: u64, f: impl FnMut()) -> f64 {
        let (ns, calls) = self.time(batch, f);
        self.push(name, ns, calls);
        ns
    }

    fn row_us(&mut self, name: &str, batch: u64, f: impl FnMut()) -> f64 {
        let (ns, calls) = self.time(batch, f);
        self.push(name, ns / 1000.0, calls);
        ns / 1000.0
    }
}

fn median_us(samples: &[Duration]) -> f64 {
    stats::median_of(samples.iter().map(|d| d.as_secs_f64() * 1e6).collect()).unwrap_or(0.0)
}

/// Run the whole ladder. Takes the workload's database (reopened, embedded)
/// and gives nothing back: the transport rows serve it.
pub fn run(
    cfg: &Config,
    db: Prometheus,
    path: &Path,
    dataset: &Dataset,
    churn: Option<Churn>,
) -> Res<Vec<Metric>> {
    let mut rows = Rows {
        budget: Duration::from_millis(if cfg.smoke { 5 } else { 150 }),
        out: Vec::new(),
    };
    let scratch = Scratch::new("ladder")?;
    let entities = dataset.flora.shape.objects() + dataset.flora.shape.relationships();
    pmap_rows(&mut rows, entities, cfg.seed);
    store_rows(&mut rows, &scratch, entities.min(100_000))?;
    shard_rows(&mut rows, &scratch, entities.min(100_000))?;
    object_read_rows(&mut rows, &db, dataset)?;
    let point = texts(dataset, churn, 64, |s| s.taxon_by_name());
    let exec_point_us = pool_rows(&mut rows, &db, dataset, churn, &point)?;
    frame_rows(&mut rows, dataset, &point[0])?;
    transport_rows(&mut rows, db, path, &point, exec_point_us)?;

    // Rows that write: on a scratch flora-S of the run's seed.
    let flora = Flora::generate(cfg.small(), cfg.seed);
    let scratch_path = scratch.path("write-rows.db");
    let scratch_db = harness::open(&scratch_path)?;
    let scratch_set = harness::build(&scratch_db, flora.clone())?;
    object_write_rows(&mut rows, &scratch_db, &scratch_set)?;
    taxonomy_rows(&mut rows, cfg, &scratch_db, &scratch_set)?;
    rules_rows(&mut rows, &scratch)?;
    let embedded_batch_us = batch64_embedded(&mut rows, &scratch_db)?;
    let batch_server = harness::boot(scratch_db)?;
    let wire_batch_us = batch64_wire(&mut rows, harness::connect(&batch_server)?)?;
    batch_server.stop();
    rows.push(
        "server.wire_premium_batch64_us",
        wire_batch_us - embedded_batch_us,
        0,
    );
    recorder_gate(&mut rows, cfg, &scratch, &flora)?;
    Ok(rows.out)
}

// ---------------------------------------------------------------------
// storage::pmap
// ---------------------------------------------------------------------

fn oid_key(raw: u64) -> Bytes {
    Bytes::from(raw.to_be_bytes().to_vec())
}

fn pmap_rows(rows: &mut Rows, entities: usize, seed: u64) {
    let mut rng = Rng::fork(seed, "ladder/pmap");
    let value = Bytes::from(vec![7u8; 96]);
    let n = entities as u64;
    // Build a map the size of the dataset's record map, unshared, so inserts
    // mutate in place.
    let mut map = PMap::new();
    let mut touch = Touch::default();
    let began = Instant::now();
    for raw in 1..=n {
        map.insert(oid_key(raw), value.clone(), &mut touch);
    }
    rows.push(
        "storage.pmap.insert_ns",
        began.elapsed().as_nanos() as f64 / n as f64,
        n,
    );
    rows.row_ns("storage.pmap.get_ns", 64, || {
        black_box(map.get(&(1 + rng.next_u64() % n).to_be_bytes()));
    });
    // Copy-on-write: the previous version stays pinned, as a snapshot pins
    // it, so every insert path-copies its spine.
    let mut cow = Touch::default();
    let (ns, calls) = rows.time(16, || {
        let pinned = map.clone();
        map.insert(oid_key(1 + rng.next_u64() % n), value.clone(), &mut cow);
        drop(pinned);
    });
    rows.push("storage.pmap.cow_insert_ns", ns, calls);
    rows.push(
        "storage.pmap.nodes_cloned_per_insert",
        cow.nodes_cloned as f64 / calls as f64,
        calls,
    );
    let began = Instant::now();
    let seen = map.iter().count();
    rows.push(
        "storage.pmap.scan_ns_per_key",
        began.elapsed().as_nanos() as f64 / seen.max(1) as f64,
        seen as u64,
    );
}

// ---------------------------------------------------------------------
// storage::Store and ShardedStore
// ---------------------------------------------------------------------

/// The keyspace the storage rows index their records in.
const LADDER_KS: Keyspace = Keyspace(200);

/// What the store and shard rows need from either store type, so both run
/// the same operations.
trait Puts {
    fn allocate(&self) -> Oid;
    /// One transaction putting `oids`' records, each with one index entry.
    fn put(&self, oids: &[Oid], record: &Bytes) -> Res<()>;
    fn get(&self, oid: Oid) -> Option<Bytes>;
    fn scan(&self) -> usize;
}

// `Store` and `ShardedStore` offer the same methods under the same names but
// share no trait; one body serves both.
macro_rules! impl_puts {
    ($store:ty) => {
        impl Puts for $store {
            fn allocate(&self) -> Oid {
                self.allocate_oid()
            }
            fn put(&self, oids: &[Oid], record: &Bytes) -> Res<()> {
                let mut txn = self.begin();
                for &oid in oids {
                    txn.put(oid, record.clone());
                    txn.kv_put(LADDER_KS, oid.to_be_bytes().to_vec(), Vec::new());
                }
                txn.commit().map_err(err)
            }
            fn get(&self, oid: Oid) -> Option<Bytes> {
                <$store>::get(self, oid)
            }
            fn scan(&self) -> usize {
                let mut n = 0;
                self.kv_for_each_prefix(LADDER_KS, &[], |_, _| n += 1);
                n
            }
        }
    };
}
impl_puts!(Store);
impl_puts!(ShardedStore);

/// Populate to the dataset's size in transactions of 64 puts (timing them),
/// then time single puts, gets and a scan. Returns the OIDs written.
fn put_get_scan(rows: &mut Rows, prefix: &str, store: &impl Puts, records: usize) -> Res<Vec<Oid>> {
    let record = Bytes::from(vec![7u8; 96]);
    let mut oids = Vec::with_capacity(records);
    let mut batches = Vec::new();
    while oids.len() < records {
        let batch: Vec<Oid> = (0..64).map(|_| store.allocate()).collect();
        let began = Instant::now();
        store.put(&batch, &record)?;
        batches.push(began.elapsed());
        oids.extend(batch);
    }
    // The store's size matters (deeper maps path-copy more), so the row is
    // the median over the last half of the population.
    rows.push(
        &format!("{prefix}.put64_us"),
        median_us(&batches[batches.len() / 2..]),
        (batches.len() - batches.len() / 2) as u64,
    );
    let mut failed = None;
    rows.row_us(&format!("{prefix}.put1_us"), 1, || {
        let oid = store.allocate();
        if let Err(e) = store.put(&[oid], &record) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let mut rng = Rng::new(oids.len() as u64);
    rows.row_ns(&format!("{prefix}.get_ns"), 64, || {
        black_box(store.get(oids[rng.below(oids.len())]));
    });
    let began = Instant::now();
    let seen = store.scan();
    rows.push(
        &format!("{prefix}.scan_ns_per_key"),
        began.elapsed().as_nanos() as f64 / seen.max(1) as f64,
        seen as u64,
    );
    Ok(oids)
}

fn store_rows(rows: &mut Rows, scratch: &Scratch, records: usize) -> Res<()> {
    let path = scratch.path("store.log");
    let store = Store::open_with(&path, harness::store_options()).map_err(err)?;
    let before = store.stats().snapshot();
    put_get_scan(rows, "storage.store", &store, records)?;
    let delta = store.stats().snapshot().since(&before);
    rows.push(
        "storage.store.log_bytes_per_put",
        delta.bytes_written as f64 / delta.puts.max(1) as f64,
        delta.puts,
    );
    rows.push(
        "storage.store.nodes_cloned_per_commit",
        delta.image_nodes_cloned as f64 / delta.commits.max(1) as f64,
        delta.commits,
    );
    drop(store);
    let began = Instant::now();
    let store = Store::open_with(&path, harness::store_options()).map_err(err)?;
    rows.push(
        "storage.store.replay_us_per_record",
        began.elapsed().as_secs_f64() * 1e6 / delta.log_appends.max(1) as f64,
        delta.log_appends,
    );
    let began = Instant::now();
    store.compact().map_err(err)?;
    rows.push(
        "storage.store.compact_ms",
        began.elapsed().as_secs_f64() * 1e3,
        1,
    );
    Ok(())
}

fn shard_rows(rows: &mut Rows, scratch: &Scratch, records: usize) -> Res<()> {
    let one = ShardedStore::open_with(
        scratch.path("shard1.log"),
        harness::store_options(),
        1,
        ShardRouting::default(),
    )
    .map_err(err)?;
    put_get_scan(rows, "storage.shard", &one, records)?;
    drop(one);
    // Two shards: 64 records spread over both, so the commit is a two-phase
    // prepare/decide round.
    let two = ShardedStore::open_with(
        scratch.path("shard2.log"),
        harness::store_options(),
        2,
        ShardRouting::default(),
    )
    .map_err(err)?;
    let record = Bytes::from(vec![7u8; 96]);
    let mut failed = None;
    rows.row_us("storage.shard.put64_2pc_us", 1, || {
        let mut txn = two.begin();
        for i in 0..64 {
            txn.put(two.allocate_oid_on(i % 2), record.clone());
        }
        if let Err(e) = txn.commit() {
            failed = Some(err(e));
        }
    });
    match failed {
        Some(e) => Err(e),
        None if two.stats_aggregate().units_2pc == 0 => {
            Err("cross-shard commits took no two-phase round".into())
        }
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------
// The object layer
// ---------------------------------------------------------------------

fn object_read_rows(rows: &mut Rows, p: &Prometheus, dataset: &Dataset) -> Res<()> {
    let db: &Database = p.db();
    let flora = &dataset.flora;
    let all: Vec<Oid> = dataset
        .families
        .iter()
        .flat_map(|f| f.objects.iter().copied())
        .collect();
    // A hit: a handful of objects read again and again through the
    // database's decoded-object cache. A miss: the same read through a
    // pinned view, which decodes from the image every time — what every
    // query over the wire pays.
    let hot: Vec<Oid> = all.iter().copied().take(512).collect();
    let mut rng = Rng::fork(flora.seed, "ladder/object");
    rows.row_ns("object.lookup_hit_ns", 64, || {
        black_box(db.object(hot[rng.below(hot.len())]).is_ok());
    });
    let view = p.read_view();
    rows.row_ns("object.lookup_miss_ns", 64, || {
        black_box(view.object(all[rng.below(all.len())]).is_ok());
    });
    let ids = FamilyIds::of(&flora.shape);
    let base = Classification::from_oid(dataset.classifications[0]);
    let roots: Vec<Oid> = dataset
        .families
        .iter()
        .map(|f| f.objects[ids.family_ct() as usize])
        .collect();
    let mut next = 0;
    let mut wrong = None;
    let (ns, calls) = rows.time(1, || {
        let found = base.descendants(&view, roots[next % roots.len()], None);
        next += 1;
        match found {
            Ok(nodes) if nodes.len() == flora.family_closure() => {}
            other => wrong = Some(format!("family closure: {other:?}")),
        }
    });
    if let Some(e) = wrong {
        return Err(e);
    }
    rows.push(
        "object.traverse_ns_per_node",
        ns / flora.family_closure() as f64,
        calls * flora.family_closure() as u64,
    );
    let edges = flora.shape.edges_per_classification() as f64;
    let mut unsound = None;
    let (ns, calls) = rows.time(1, || match base.check_integrity(db) {
        Ok(found) if found.is_empty() => {}
        other => unsound = Some(format!("base classification: {other:?}")),
    });
    if let Some(e) = unsound {
        return Err(e);
    }
    rows.push(
        "object.check_integrity_us_per_edge",
        ns / 1000.0 / edges,
        calls * edges as u64,
    );
    Ok(())
}

fn specimen_attrs(code: String) -> Vec<(String, Value)> {
    vec![("code".to_string(), Value::Str(code))]
}

/// Write rows, in rounds of four units of 64 operations each: create and
/// commit; update, relate and classify and commit; delete and commit;
/// create and abort. Every round leaves the database as it found it.
fn object_write_rows(rows: &mut Rows, p: &Prometheus, dataset: &Dataset) -> Res<()> {
    let db = p.db();
    let ids = FamilyIds::of(&dataset.flora.shape);
    let species = dataset.families[0].objects[ids.species_ct(0, 0) as usize];
    let base = dataset.classifications[0];
    let rounds = if rows.budget < Duration::from_millis(50) {
        2
    } else {
        12
    };
    const OPS: usize = 64;
    let mut t: [Vec<Duration>; 7] = Default::default();
    let per_op = |began: Instant| began.elapsed() / OPS as u32;
    for round in 0..rounds {
        let token = db.begin_unit();
        let began = Instant::now();
        let mut created = Vec::with_capacity(OPS);
        for i in 0..OPS {
            created.push(
                db.create_object("Specimen", specimen_attrs(format!("LADDER-{round}-{i}")))
                    .map_err(err)?,
            );
        }
        t[0].push(per_op(began));
        let began = Instant::now();
        db.commit_unit(token).map_err(err)?;
        t[1].push(began.elapsed());

        let token = db.begin_unit();
        let began = Instant::now();
        for &oid in &created {
            db.set_attr(oid, "locality", Value::Str("Edinburgh".into()))
                .map_err(err)?;
        }
        t[2].push(per_op(began));
        let began = Instant::now();
        let mut rels = Vec::with_capacity(OPS);
        for &oid in &created {
            rels.push(
                db.create_relationship("Circumscribes", species, oid, Vec::new())
                    .map_err(err)?,
            );
        }
        t[3].push(per_op(began));
        let began = Instant::now();
        for &rel in &rels {
            db.add_edge_to_classification(base, rel).map_err(err)?;
        }
        t[4].push(per_op(began));
        db.commit_unit(token).map_err(err)?;

        let token = db.begin_unit();
        let began = Instant::now();
        for &rel in &rels {
            db.delete_relationship(rel).map_err(err)?;
        }
        t[5].push(per_op(began));
        for &oid in &created {
            db.delete_object(oid).map_err(err)?;
        }
        db.commit_unit(token).map_err(err)?;

        let token = db.begin_unit();
        for i in 0..OPS {
            db.create_object("Specimen", specimen_attrs(format!("LADDER-abort-{i}")))
                .map_err(err)?;
        }
        let began = Instant::now();
        db.abort_unit(token);
        t[6].push(began.elapsed());
    }
    for (name, samples) in [
        "object.create_object_us",
        "object.unit_commit_us",
        "object.set_attr_us",
        "object.create_relationship_us",
        "object.add_edge_us",
        "object.delete_relationship_us",
        "object.unit_abort_us",
    ]
    .iter()
    .zip(&t)
    {
        rows.push(name, median_us(samples), samples.len() as u64);
    }

    // Copying a classification (what `Revision::start` does), inside a unit
    // that is then aborted so the copy leaves no trace.
    let edges = dataset.flora.shape.edges_per_classification() as f64;
    let mut copies = Vec::new();
    for i in 0..3 {
        let token = db.begin_unit();
        let began = Instant::now();
        Classification::from_oid(base)
            .copy(db, &format!("ladder copy {i}"))
            .map_err(err)?;
        copies.push(began.elapsed());
        db.abort_unit(token);
    }
    rows.push(
        "object.copy_classification_us_per_edge",
        median_us(&copies) / edges,
        3 * edges as u64,
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Rules: ICBN installed minus not
// ---------------------------------------------------------------------

/// Median cost of creating a genus name, of circumscribing a species under a
/// genus, and of committing a unit of 32 names with their types, on a small
/// fresh database.
fn rule_costs(p: &Prometheus) -> Res<[f64; 3]> {
    let db = p.db();
    let genus = db
        .create_object(
            "CT",
            vec![
                ("working_name".to_string(), Value::Str("Ladderia".into())),
                ("rank".to_string(), Value::Str("Genus".into())),
            ],
        )
        .map_err(err)?;
    let specimen = db
        .create_object("Specimen", specimen_attrs("LADDER-TYPE".into()))
        .map_err(err)?;
    let (mut create, mut relate, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..12 {
        // Names and their types in one unit: the deferred type-existence
        // rule is evaluated when it commits.
        let token = db.begin_unit();
        let began = Instant::now();
        let mut names = Vec::with_capacity(32);
        for i in 0..32 {
            names.push(
                db.create_object(
                    "NT",
                    vec![
                        (
                            "name".to_string(),
                            Value::Str(format!("Ladderia{round}x{i}")),
                        ),
                        ("rank".to_string(), Value::Str("Genus".into())),
                        ("year".to_string(), Value::Int(1753)),
                    ],
                )
                .map_err(err)?,
            );
        }
        create.push(began.elapsed() / 32);
        for &name in &names {
            db.create_relationship(
                "HasType",
                name,
                specimen,
                vec![("kind".to_string(), Value::Str("holotype".into()))],
            )
            .map_err(err)?;
        }
        let began = Instant::now();
        db.commit_unit(token).map_err(err)?;
        commit.push(began.elapsed());

        let token = db.begin_unit();
        let mut species = Vec::with_capacity(32);
        for i in 0..32 {
            species.push(
                db.create_object(
                    "CT",
                    vec![
                        (
                            "working_name".to_string(),
                            Value::Str(format!("sp{round}x{i}")),
                        ),
                        ("rank".to_string(), Value::Str("Species".into())),
                    ],
                )
                .map_err(err)?,
            );
        }
        let began = Instant::now();
        for &child in &species {
            db.create_relationship("Circumscribes", genus, child, Vec::new())
                .map_err(err)?;
        }
        relate.push(began.elapsed() / 32);
        db.abort_unit(token);
    }
    Ok([median_us(&create), median_us(&relate), median_us(&commit)])
}

fn rules_rows(rows: &mut Rows, scratch: &Scratch) -> Res<()> {
    let with = harness::open(&scratch.path("rules-on.db"))?;
    let without = Prometheus::open_with(scratch.path("rules-off.db"), harness::store_options())
        .map_err(err)?;
    without.taxonomy().map_err(err)?;
    let on = rule_costs(&with)?;
    let off = rule_costs(&without)?;
    for (i, name) in [
        "rules.create_object_premium_us",
        "rules.create_relationship_premium_us",
        "rules.deferred_commit_us",
    ]
    .iter()
    .enumerate()
    {
        rows.push(name, on[i] - off[i], 12);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// POOL
// ---------------------------------------------------------------------

/// A few dozen distinct texts of one query class, few enough to stay in the
/// plan cache. `churn` keeps them off what the workload's writer changed.
fn texts(
    dataset: &Dataset,
    churn: Option<Churn>,
    n: usize,
    mut pick: impl FnMut(&mut Stream) -> Query,
) -> Vec<Query> {
    let mut stream = Stream::new(&dataset.flora, "ladder/pool", churn);
    (0..n).map(|_| pick(&mut stream)).collect()
}

/// Returns `pool.exec_point_us`, the row the wire premium is measured
/// against.
fn pool_rows(
    rows: &mut Rows,
    p: &Prometheus,
    dataset: &Dataset,
    churn: Option<Churn>,
    point: &[Query],
) -> Res<f64> {
    let view = p.read_view();
    let sample = point[0].text.clone();
    rows.row_us("pool.parse_us", 16, || {
        black_box(pool::parse(&sample).is_ok());
    });
    let parsed = pool::parse(&sample).map_err(err)?;
    rows.row_us("pool.plan_us", 16, || {
        black_box(pool::plan::plan(&view, &parsed).is_ok());
    });
    // The executor the server would build: plan cache on, one worker per
    // core.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let executor = Executor::new(workers);
    let exec_row = |rows: &mut Rows, name: &str, queries: &[Query]| -> Res<f64> {
        let mut next = 0;
        let mut wrong = None;
        let us = rows.row_us(name, 1, || {
            let query = &queries[next % queries.len()];
            next += 1;
            match executor.query(&view, &query.text, None) {
                Ok(result) => {
                    if let Err(e) = query.expect.check(&WireRows::from(result)) {
                        wrong = Some(format!("{}: {e}", query.text));
                    }
                }
                Err(e) => wrong = Some(format!("{}: {e}", query.text)),
            }
        });
        match wrong {
            Some(e) => Err(e),
            None => Ok(us),
        }
    };
    let exec_point_us = exec_row(rows, "pool.exec_point_us", point)?;
    let closures = texts(dataset, churn, 32, |s| s.genus_closure());
    exec_row(rows, "pool.exec_closure_us", &closures)?;
    let scans = texts(dataset, churn, 8, |s| s.extent_filter());
    exec_row(rows, "pool.exec_scan_us", &scans)?;
    let joins = texts(dataset, churn, 8, |s| s.genus_species_join());
    exec_row(rows, "pool.exec_join_us", &joins)?;
    Ok(exec_point_us)
}

// ---------------------------------------------------------------------
// Taxonomy: a short traced revision session, rolled up by span name
// ---------------------------------------------------------------------

fn taxonomy_rows(rows: &mut Rows, cfg: &Config, p: &Prometheus, dataset: &Dataset) -> Res<()> {
    let tax = p.taxonomy().map_err(err)?;
    // Circumscribing a new species under a genus, on its own.
    let ids = FamilyIds::of(&dataset.flora.shape);
    let genus = dataset.families[0].objects[ids.genus_ct(0) as usize];
    let base = Classification::from_oid(dataset.classifications[0]);
    let token = p.db().begin_unit();
    let mut samples = Vec::new();
    for i in 0..64 {
        let child = tax
            .create_ct(&format!("ladderspecies{i}"), prometheus_db::Rank::Species)
            .map_err(err)?;
        let began = Instant::now();
        tax.circumscribe(&base, genus, child).map_err(err)?;
        samples.push(began.elapsed());
    }
    p.db().abort_unit(token);
    rows.push("taxonomy.circumscribe_us", median_us(&samples), 64);

    // The rest: the revision session's own steps, traced.
    let mut session = Session::start(p, dataset)?;
    session.analyse_every(25);
    let phase = session.run(Budget::Seconds(if cfg.smoke { 0.2 } else { 2.0 }), true);
    if phase.failed > 0 {
        return Err(format!("ladder session: {:?}", phase.problems));
    }
    let by_name = rollup(phase.spans.spans());
    let taxa = dataset.flora.shape.cts() as f64;
    for (name, span, per) in [
        ("taxonomy.move_taxon_us", "taxonomy.move_taxon", 1.0),
        ("taxonomy.merge_taxa_us", "taxonomy.merge_taxa", 1.0),
        ("taxonomy.split_taxon_us", "taxonomy.split_taxon", 1.0),
        (
            "taxonomy.what_if_discard_us",
            "taxonomy.what_if_discard",
            1.0,
        ),
        (
            "taxonomy.derive_names_us_per_taxon",
            "taxonomy.derive_names",
            taxa,
        ),
        (
            "taxonomy.detect_synonyms_us_per_taxon",
            "taxonomy.detect_synonyms",
            taxa,
        ),
    ] {
        let r = by_name.get(span).copied().unwrap_or_default();
        rows.push(name, r.mean_us() / per, r.count);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Frame codec and SessionCore
// ---------------------------------------------------------------------

fn frame_rows(rows: &mut Rows, dataset: &Dataset, point: &Query) -> Res<()> {
    let query = Request::Query {
        pool: point.text.clone(),
    };
    let mut encoder = FrameEncoder::new();
    rows.row_ns("server.frame.encode_query_ns", 64, || {
        encoder.push(TraceId::NONE, &query).expect("a query frames");
        let n = encoder.pending().len();
        encoder.consume(n);
    });
    encoder.push(TraceId::NONE, &query).map_err(err)?;
    let query_frame = encoder.pending().to_vec();
    let mut decoder = FrameDecoder::new();
    rows.row_ns("server.frame.decode_query_ns", 64, || {
        decoder.extend(&query_frame);
        black_box(decoder.next_msg::<Request>().is_ok());
    });

    // A thousand rows of (reference, name): what a scan sends back.
    let all: Vec<Oid> = dataset.families[0].objects.clone();
    let rows1k = Response::Rows(WireRows {
        columns: vec!["t".into(), "t.working_name".into()],
        rows: (0..1000)
            .map(|i| {
                vec![
                    Value::Ref(all[i % all.len()]),
                    Value::Str(format!("Genladder{i:04}")),
                ]
            })
            .collect(),
    });
    let mut encoder = FrameEncoder::new();
    rows.row_us("server.frame.encode_rows1k_us", 1, || {
        encoder.push(TraceId::NONE, &rows1k).expect("rows frame");
        let n = encoder.pending().len();
        encoder.consume(n);
    });
    encoder.push(TraceId::NONE, &rows1k).map_err(err)?;
    let rows_frame = encoder.pending().to_vec();
    rows.row_us("server.frame.decode_rows1k_us", 1, || {
        decoder.extend(&rows_frame);
        black_box(decoder.next_msg::<Response>().is_ok());
    });
    rows.push(
        "server.frame.bytes_per_row",
        rows_frame.len() as f64 / 1000.0,
        1000,
    );

    // The sans-io protocol state machine: one query request in, one work
    // item out.
    let mut core = SessionCore::new(1, None);
    core.on_request(Request::Hello {
        version: PROTOCOL_VERSION,
        client: "ladder".into(),
    });
    rows.row_ns("server.core.on_request_ns", 64, || {
        black_box(core.on_request(query.clone()));
    });
    Ok(())
}

// ---------------------------------------------------------------------
// TCP, on each transport
// ---------------------------------------------------------------------

/// Median round trip of a ping and of a cached point query, as two pinned
/// closed-loop clients see them — the conditions of the wire workloads.
fn rtt_rows(rows: &mut Rows, transport: &str, server: &ServerHandle, point: &[Query]) -> Res<f64> {
    let mut clients: Vec<PrometheusClient> = (0..harness::CLIENTS)
        .map(|_| harness::connect(server))
        .collect::<Res<_>>()?;
    let seconds = rows.budget.as_secs_f64() * 2.0;
    let pings = run_phase(
        &mut clients,
        Until::after(seconds),
        false,
        |_, client, until, tally| {
            while !until.over() {
                let began = Instant::now();
                client.ping().map_err(err)?;
                tally.op(Kind::Query, began, Ok(()));
            }
            Ok(())
        },
    )?;
    let queries = run_phase(
        &mut clients,
        Until::after(seconds),
        false,
        |i, client, until, tally| {
            let mut next = i;
            while !until.over() {
                ask(client, &point[next % point.len()], tally)?;
                next += 1;
            }
            Ok(())
        },
    )?;
    for client in clients {
        client.close().map_err(err)?;
    }
    if queries.failed > 0 {
        return Err(format!("{transport} transport: {:?}", queries.problems));
    }
    let ping = pings.query.ok_or("no ping completed")?;
    let query = queries.query.ok_or("no query completed")?;
    rows.push(
        &format!("server.{transport}.ping_rtt_us"),
        ping.p50_us,
        ping.samples,
    );
    rows.push(
        &format!("server.{transport}.point_rtt_us"),
        query.p50_us,
        query.samples,
    );
    Ok(query.p50_us)
}

fn transport_rows(
    rows: &mut Rows,
    db: Prometheus,
    path: &Path,
    point: &[Query],
    exec_point_us: f64,
) -> Res<()> {
    let blocking = harness::boot(db)?;
    let point_rtt_us = rtt_rows(rows, "blocking", &blocking, point)?;
    blocking.stop();
    rows.push(
        "server.wire_premium_point_us",
        point_rtt_us - exec_point_us,
        0,
    );
    let event = serve(
        harness::reopen(path)?,
        ServerConfig::builder().io_threads(2).build().map_err(err)?,
    )
    .map_err(err)?;
    rtt_rows(rows, "event", &event, point)?;
    event.stop();
    Ok(())
}

// ---------------------------------------------------------------------
// A batch of 64, embedded and over the wire
// ---------------------------------------------------------------------

fn batch_ops(round: usize) -> Vec<MutationOp> {
    (0..64)
        .map(|i| MutationOp::CreateObject {
            class: "Specimen".into(),
            attrs: specimen_attrs(format!("BATCH-{round}-{i}")),
        })
        .collect()
}

fn delete_ops(created: Vec<Oid>) -> Vec<MutationOp> {
    created
        .into_iter()
        .map(|oid| MutationOp::DeleteObject { oid })
        .collect()
}

const BATCH_ROUNDS: usize = 24;

fn batch64_embedded(rows: &mut Rows, p: &Prometheus) -> Res<f64> {
    let mut samples = Vec::new();
    for round in 0..BATCH_ROUNDS {
        let ops = batch_ops(round);
        let began = Instant::now();
        let created: Vec<Oid> = p
            .unit(|db| ops.into_iter().map(|op| apply(db, op)).collect())
            .map_err(err)?;
        samples.push(began.elapsed());
        p.unit(|db| {
            delete_ops(created)
                .into_iter()
                .try_for_each(|op| apply(db, op).map(|_| ()))
        })
        .map_err(err)?;
    }
    let us = median_us(&samples);
    rows.push("object.batch64_us", us, BATCH_ROUNDS as u64);
    Ok(us)
}

/// The same batches over the wire, from one pinned client.
fn batch64_wire(rows: &mut Rows, client: PrometheusClient) -> Res<f64> {
    let mut clients = [client];
    let phase = run_phase(&mut clients, Until::told(), false, |_, client, _, tally| {
        for round in 0..BATCH_ROUNDS {
            let ops = batch_ops(round);
            let began = Instant::now();
            let created = client.unit_batch(ops).map_err(err)?;
            tally.op(Kind::Unit, began, Ok(()));
            client.unit_batch(delete_ops(created)).map_err(err)?;
        }
        Ok(())
    })?;
    let [client] = clients;
    client.close().map_err(err)?;
    let unit = phase.unit.ok_or("no batch completed")?;
    rows.push("server.batch64_rtt_us", unit.p50_us, unit.samples);
    Ok(unit.p50_us)
}

// ---------------------------------------------------------------------
// The flight recorder's cost: a gate that can fail
// ---------------------------------------------------------------------

/// Point reads against two servers over identical, fixed datasets — one with
/// the default trace ring, one with `trace_capacity` 0 — in alternating
/// paired windows, two pinned clients each as in `point-reads`. The cost is
/// the median pair's throughput loss; the quartiles say how far the pairs
/// disagree.
fn recorder_gate(rows: &mut Rows, cfg: &Config, scratch: &Scratch, flora: &Flora) -> Res<()> {
    type Clients<'a> = Vec<(PrometheusClient, Stream<'a>)>;
    let serve_copy = |name: &str, config: ServerConfig| -> Res<(ServerHandle, Clients)> {
        let db = harness::open(&scratch.path(name))?;
        harness::build(&db, flora.clone())?;
        let server = serve(db, config).map_err(err)?;
        let clients = (0..harness::CLIENTS)
            .map(|i| {
                Ok((
                    harness::connect(&server)?,
                    Stream::new(flora, &format!("ladder/recorder-gate-{i}"), None),
                ))
            })
            .collect::<Res<_>>()?;
        Ok((server, clients))
    };
    let (on_server, mut on) = serve_copy("recorder-on.db", ServerConfig::default())?;
    let (off_server, mut off) = serve_copy(
        "recorder-off.db",
        ServerConfig::builder()
            .trace_capacity(0)
            .build()
            .map_err(err)?,
    )?;
    let window = if cfg.smoke { 0.02 } else { 0.25 };
    let rate = |clients: &mut Clients| -> Res<f64> {
        let phase = run_phase(
            clients,
            Until::after(window),
            false,
            |_, c, until, tally| {
                while !until.over() {
                    let query = c.1.point();
                    ask(&mut c.0, &query, tally)?;
                }
                Ok(())
            },
        )?;
        match phase.failed {
            0 => Ok(phase.mean_ops_per_s),
            _ => Err(format!("recorder gate: {:?}", phase.problems)),
        }
    };
    // One unpaired window each to warm both plan caches.
    rate(&mut on)?;
    rate(&mut off)?;
    let pairs = 12;
    let mut costs = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let (with, without) = if pair % 2 == 0 {
            let with = rate(&mut on)?;
            (with, rate(&mut off)?)
        } else {
            let without = rate(&mut off)?;
            (rate(&mut on)?, without)
        };
        costs.push((without - with) / without * 100.0);
    }
    stats::sort(&mut costs);
    let [q1, q2, q3] = stats::quartiles(&costs).expect("twelve pairs");
    rows.push("trace.recorder_cost_pct", q2, pairs as u64);
    rows.push("trace.recorder_cost_q1_pct", q1, pairs as u64);
    rows.push("trace.recorder_cost_q3_pct", q3, pairs as u64);
    for (client, _) in on.into_iter().chain(off) {
        client.close().map_err(err)?;
    }
    on_server.stop();
    off_server.stop();
    Ok(())
}
