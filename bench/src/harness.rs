//! What every workload shares: the fixed conditions, a scratch directory
//! inside the checkout, the two loaders that turn a checklist into calls,
//! server boot, and the counts the correctness checks compare.

use crate::flora::{Flora, Group, LoadOp};
use prometheus_db::{Database, DbResult, Oid, Prometheus, StoreOptions};
use prometheus_server::{
    serve, MutationOp, PrometheusClient, ServerConfig, ServerError, ServerHandle,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The flush policy of every run, on both sides of every comparison: the
/// sandbox's fsync is not a device's, so commits are buffered and
/// `storage.syncs` is reported to show a policy change.
pub const SYNC_ON_COMMIT: bool = false;

pub fn store_options() -> StoreOptions {
    StoreOptions {
        sync_on_commit: SYNC_ON_COMMIT,
    }
}

/// Client threads (and connections) the benchmark drives at most: the box
/// has two cores, and all load comes from this one process.
pub const CLIENTS: usize = 2;

extern "C" {
    /// `sched_setaffinity(2)`; pid 0 means the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling client thread to core `client % cores`.
///
/// Only the benchmark's own client threads are pinned, never a thread of the
/// program. A request/reply exchange of tens of microseconds runs 40 % faster
/// when client and server thread share a core than when every wake-up
/// crosses cores, and left alone the scheduler flips between the two
/// arrangements every few seconds; with each client held to a core of its
/// own, the server thread it wakes settles beside it and stays.
pub fn pin_client(client: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mask: u64 = 1 << (client % cores.min(64));
    // SAFETY: `mask` is a live 8-byte CPU set for the duration of the call,
    // its size is passed alongside, and the kernel only reads it. A failure
    // (an unusual cgroup or an offline core) leaves the thread unpinned,
    // which is safe; the run is merely noisier.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

pub type Res<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// A directory for one run's databases, next to the benchmark's executable
/// (so inside the checkout's build directory), removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> Res<Scratch> {
        let exe = std::env::current_exe().map_err(err)?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join(format!("ladder-data-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Open (or reopen) a database the way every workload does: buffered
/// commits, taxonomic schema, ICBN rule set installed.
pub fn open(path: &Path) -> Res<Prometheus> {
    let p = Prometheus::open_with(path, store_options()).map_err(err)?;
    p.taxonomy_with_icbn().map_err(err)?;
    Ok(p)
}

/// Reopen for reading: the schema, but not the ICBN rule set. The rule set's
/// native rank listener holds the database it is installed on, so a handle
/// opened with [`open`] is never freed when dropped; reopening that way
/// three times in a run would add three whole images to `rss_peak_mb`.
pub fn reopen(path: &Path) -> Res<Prometheus> {
    let p = Prometheus::open_with(path, store_options()).map_err(err)?;
    p.taxonomy().map_err(err)?;
    Ok(p)
}

/// Serve with `ServerConfig::default()`: blocking transport, one shard,
/// flight recorder on.
pub fn boot(db: Prometheus) -> Res<ServerHandle> {
    serve(db, ServerConfig::default()).map_err(err)
}

pub fn connect(server: &ServerHandle) -> Res<PrometheusClient> {
    PrometheusClient::connect(server.addr()).map_err(err)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Loading a checklist
// ---------------------------------------------------------------------

/// Where a loader sends units of work: straight into the object layer, or
/// over the wire.
pub trait Sink {
    /// One atomic unit of operations that name only existing OIDs. Returns
    /// the created OIDs in op order (`Oid::NIL` where nothing is created).
    fn batch(&mut self, ops: Vec<MutationOp>) -> Res<Vec<Oid>>;

    /// One atomic unit sent op by op: `step` is given the OID the previous
    /// op created (`None` before the first) and returns the next op, or
    /// `None` to commit.
    fn streamed(&mut self, step: &mut dyn FnMut(Option<Oid>) -> Option<MutationOp>) -> Res<()>;
}

/// `MutationOp` → object-layer call, as the server maps them.
pub fn apply(db: &Database, op: MutationOp) -> DbResult<Oid> {
    match op {
        MutationOp::CreateObject { class, attrs } => db.create_object(&class, attrs),
        MutationOp::SetAttr { oid, attr, value } => {
            db.set_attr(oid, &attr, value).map(|_| Oid::NIL)
        }
        MutationOp::DeleteObject { oid } => db.delete_object(oid).map(|_| Oid::NIL),
        MutationOp::CreateRelationship {
            class,
            origin,
            destination,
            attrs,
        } => db.create_relationship(&class, origin, destination, attrs),
        MutationOp::DeleteRelationship { oid } => db.delete_relationship(oid).map(|_| Oid::NIL),
        MutationOp::CreateClassification {
            name,
            attrs,
            strict_hierarchy,
        } => db.create_classification(&name, attrs, strict_hierarchy),
        MutationOp::AddEdgeToClassification {
            classification,
            rel,
        } => db
            .add_edge_to_classification(classification, rel)
            .map(|_| Oid::NIL),
    }
}

/// Loads through the embedded facade (used to build a dataset in set-up).
pub struct Embedded<'a>(pub &'a Prometheus);

impl Sink for Embedded<'_> {
    fn batch(&mut self, ops: Vec<MutationOp>) -> Res<Vec<Oid>> {
        self.0
            .unit(|db| ops.into_iter().map(|op| apply(db, op)).collect())
            .map_err(err)
    }

    fn streamed(&mut self, step: &mut dyn FnMut(Option<Oid>) -> Option<MutationOp>) -> Res<()> {
        self.0
            .unit(|db| {
                let mut last = None;
                while let Some(op) = step(last) {
                    last = Some(apply(db, op)?);
                }
                Ok(())
            })
            .map_err(err)
    }
}

/// Loads over one wire connection.
pub struct Wire<'a>(pub &'a mut PrometheusClient);

impl Sink for Wire<'_> {
    fn batch(&mut self, ops: Vec<MutationOp>) -> Res<Vec<Oid>> {
        self.0.unit_batch(ops).map_err(err)
    }

    fn streamed(&mut self, step: &mut dyn FnMut(Option<Oid>) -> Option<MutationOp>) -> Res<()> {
        let mut unit = self.0.begin_unit().map_err(err)?;
        let mut last = None;
        while let Some(op) = step(last) {
            last = Some(unit.op(op).map_err(err)?.unwrap_or(Oid::NIL));
        }
        unit.commit().map_err(err)
    }
}

/// The OIDs the program assigned to one family's checklist entries, in
/// creation order (see [`crate::flora::FamilyIds`]).
#[derive(Debug, Clone, Default)]
pub struct Loaded {
    pub objects: Vec<Oid>,
    pub rels: Vec<Oid>,
}

/// Create the flora's classifications (one batch); returns their OIDs.
pub fn create_classifications(flora: &Flora, sink: &mut dyn Sink) -> Res<Vec<Oid>> {
    let ops = flora
        .classifications
        .iter()
        .map(|name| MutationOp::CreateClassification {
            name: name.clone(),
            attrs: Vec::new(),
            strict_hierarchy: true,
        })
        .collect();
    sink.batch(ops)
}

/// Send one family's checklist to `sink`, unit by unit. `observe` sees each
/// group and how long its unit took, as the client saw it.
pub fn load_family(
    groups: &[Group],
    classifications: &[Oid],
    sink: &mut dyn Sink,
    observe: &mut dyn FnMut(&Group, Duration),
) -> Res<Loaded> {
    let mut loaded = Loaded::default();
    for group in groups {
        let started = Instant::now();
        if group.streamed {
            let mut next = 0;
            sink.streamed(&mut |created| {
                if let Some(oid) = created {
                    record(&group.ops[next - 1], oid, &mut loaded);
                }
                let op = group.ops.get(next)?;
                next += 1;
                Some(resolve(op, &loaded, classifications))
            })?;
        } else {
            let ops = group
                .ops
                .iter()
                .map(|op| resolve(op, &loaded, classifications))
                .collect();
            let created = sink.batch(ops)?;
            if created.len() != group.ops.len() {
                return Err(format!(
                    "batch of {} ops answered {} oids",
                    group.ops.len(),
                    created.len()
                ));
            }
            for (op, oid) in group.ops.iter().zip(created) {
                record(op, oid, &mut loaded);
            }
        }
        observe(group, started.elapsed());
    }
    Ok(loaded)
}

fn record(op: &LoadOp, oid: Oid, loaded: &mut Loaded) {
    match op {
        LoadOp::Object { .. } => loaded.objects.push(oid),
        LoadOp::Rel { .. } => loaded.rels.push(oid),
        LoadOp::Edge { .. } => {}
    }
}

fn resolve(op: &LoadOp, loaded: &Loaded, classifications: &[Oid]) -> MutationOp {
    match op {
        LoadOp::Object { class, attrs } => MutationOp::CreateObject {
            class: class.to_string(),
            attrs: attrs.clone(),
        },
        LoadOp::Rel {
            class,
            origin,
            destination,
            attrs,
        } => MutationOp::CreateRelationship {
            class: class.to_string(),
            origin: loaded.objects[*origin as usize],
            destination: loaded.objects[*destination as usize],
            attrs: attrs.clone(),
        },
        LoadOp::Edge { cls, rel } => MutationOp::AddEdgeToClassification {
            classification: classifications[*cls],
            rel: loaded.rels[*rel as usize],
        },
    }
}

/// A flora loaded into a database: the OID tables the workloads draw on.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub flora: Flora,
    pub classifications: Vec<Oid>,
    pub families: Vec<Loaded>,
}

/// Build a whole flora through the embedded facade (set-up of every
/// workload but `flora-load`, which loads over the wire as its measured
/// work).
pub fn build(db: &Prometheus, flora: Flora) -> Res<Dataset> {
    let mut sink = Embedded(db);
    let classifications = create_classifications(&flora, &mut sink)?;
    let mut families = Vec::with_capacity(flora.families.len());
    for f in 0..flora.families.len() {
        families.push(load_family(
            &flora.checklist(f),
            &classifications,
            &mut sink,
            &mut |_, _| {},
        )?);
    }
    Ok(Dataset {
        flora,
        classifications,
        families,
    })
}

// ---------------------------------------------------------------------
// Counts
// ---------------------------------------------------------------------

pub const OBJECT_CLASSES: [&str; 3] = ["CT", "NT", "Specimen"];
pub const REL_CLASSES: [&str; 5] = [
    "Circumscribes",
    "HasType",
    "Placement",
    "AscribedName",
    "CalculatedName",
];

/// Extent sizes per class and edge counts per classification — what a
/// churn workload must leave unchanged and a reopen must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub objects: Vec<usize>,
    pub rels: Vec<usize>,
    pub edges: Vec<(String, usize)>,
}

pub fn counts(db: &Database) -> Res<Counts> {
    let extent = |class: &str| db.extent(class, false).map(|e| e.len()).map_err(err);
    let mut edges = Vec::new();
    for cls in db.classifications().map_err(err)? {
        let name = db.classification_meta(cls).map_err(err)?.name;
        edges.push((name, db.classification_edges(cls).map_err(err)?.len()));
    }
    edges.sort();
    Ok(Counts {
        objects: OBJECT_CLASSES
            .iter()
            .map(|c| extent(c))
            .collect::<Res<_>>()?,
        rels: REL_CLASSES.iter().map(|c| extent(c)).collect::<Res<_>>()?,
        edges,
    })
}

/// What a freshly loaded flora of this shape must count, by the
/// generator's arithmetic alone.
pub fn expected_counts(flora: &Flora) -> Counts {
    let s = &flora.shape;
    let mut edges: Vec<(String, usize)> = flora
        .classifications
        .iter()
        .map(|name| (name.clone(), s.edges_per_classification()))
        .collect();
    edges.sort();
    Counts {
        objects: vec![s.cts(), s.nts(), s.specimens_total()],
        rels: vec![
            s.edges_per_classification() * s.classifications(),
            s.nts(),
            s.species_total(),
            s.cts(),
            0,
        ],
        edges,
    }
}

/// Whether a wire error is the server answering (a failed operation) as
/// opposed to the transport breaking (which ends the run).
pub fn is_remote(e: &ServerError) -> bool {
    matches!(e, ServerError::Remote { .. })
}
