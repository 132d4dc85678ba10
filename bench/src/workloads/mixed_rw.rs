//! `mixed-rw`: reads beside writes on `flora-S`. Client A streams small
//! units that move species round the genera of one family inside one working
//! classification (the last revision); one unit in four aborts. Client B
//! runs a 70/30 point/scan query mix over that and the other
//! classifications.

use super::reads::ask;
use super::{final_checks, ladder_rows, reopen, Measured};
use crate::flora::{FamilyIds, Flora};
use crate::harness::{self, err, Dataset, Res, Scratch};
use crate::measure::{Kind, Tally};
use crate::queries::{Churn, Stream};
use crate::report::{Config, Report};
use crate::rng::{Cycle, Rng};
use crate::wire::{run_phase, Counters, ServerDelta, Until};
use prometheus_db::{Classification, Oid, Prometheus};
use prometheus_server::{MutationOp, PrometheusClient, ServerError};
use std::time::Instant;

/// The writer's nominal rate: `--seconds` times this many units is the fixed
/// work of a measured phase (about what this box does in that time).
pub const NOMINAL_UNITS_PER_S: f64 = 5000.0;

/// The family whose species the writer moves.
pub const CHURN_FAMILY: usize = 0;

/// The fixed churn pool and where the writer has put each species so far.
pub struct Writer {
    rng: Rng,
    /// Commit three units, abort the fourth (in a fixed shuffled order).
    outcome: Cycle,
    working: Oid,
    genera: Vec<Oid>,
    species: Vec<Oid>,
    /// Per pool species: the genus (index into `genera`) it sits in now, and
    /// the relationship that says so.
    genus_of: Vec<usize>,
    edge_of: Vec<Oid>,
    pub committed: u64,
    /// Units to do in the next phase, after which the writer ends it;
    /// `None` while a phase is bound by time (the warm-up).
    quota: Option<u64>,
}

impl Writer {
    pub fn new(dataset: &Dataset, working: usize) -> Writer {
        let flora = &dataset.flora;
        let ids = FamilyIds::of(&flora.shape);
        let loaded = &dataset.families[CHURN_FAMILY];
        let family = &flora.families[CHURN_FAMILY];
        let mut rng = Rng::fork(flora.seed, "mixed-rw/writer");
        let mut writer = Writer {
            outcome: Cycle::new(&[3, 1], &mut rng),
            rng,
            working: dataset.classifications[working],
            genera: (0..family.genera.len())
                .map(|g| loaded.objects[ids.genus_ct(g) as usize])
                .collect(),
            species: Vec::new(),
            genus_of: Vec::new(),
            edge_of: Vec::new(),
            committed: 0,
            quota: None,
        };
        for (g, genus) in family.genera.iter().enumerate() {
            for (s, species) in genus.species.iter().enumerate() {
                writer
                    .species
                    .push(loaded.objects[ids.species_ct(g, s) as usize]);
                writer.genus_of.push(species.genus_in[working]);
                writer
                    .edge_of
                    .push(loaded.rels[ids.species_edge(working, g, s) as usize]);
            }
        }
        writer
    }

    /// One unit: `begin; DeleteRelationship; CreateRelationship;
    /// AddEdgeToClassification; commit` — or `abort`, one time in four.
    fn unit(&mut self, client: &mut PrometheusClient, tally: &mut Tally) -> Res<()> {
        let i = self.rng.below(self.species.len());
        let target =
            (self.genus_of[i] + 1 + self.rng.below(self.genera.len() - 1)) % self.genera.len();
        let abort = self.outcome.next() == 1;
        let began = Instant::now();
        let op = tally.next_op();
        let whole = tally.spans.enter("unit", op);
        let sent = self.send(client, tally, op, i, target, abort);
        tally.spans.exit(whole);
        let outcome = match sent {
            Ok(new_edge) => {
                if !abort {
                    self.genus_of[i] = target;
                    self.edge_of[i] = new_edge;
                    self.committed += 1;
                }
                Ok(())
            }
            Err(e) if harness::is_remote(&e) => Err(format!("unit on species {i}: {e}")),
            Err(e) => return Err(err(e)),
        };
        tally.op(Kind::Unit, began, outcome);
        Ok(())
    }

    fn send(
        &self,
        client: &mut PrometheusClient,
        tally: &mut Tally,
        op: u64,
        i: usize,
        target: usize,
        abort: bool,
    ) -> Result<Oid, ServerError> {
        let spans = &mut tally.spans;
        // Dropping the guard on an early return aborts the unit.
        let mut unit = spans.record("wire.begin", op, || client.begin_unit())?;
        spans.record("wire.op", op, || {
            unit.op(MutationOp::DeleteRelationship {
                oid: self.edge_of[i],
            })
        })?;
        let new_edge = spans.record("wire.op", op, || {
            unit.create_relationship(
                "Circumscribes",
                self.genera[target],
                self.species[i],
                Vec::new(),
            )
        })?;
        spans.record("wire.op", op, || {
            unit.op(MutationOp::AddEdgeToClassification {
                classification: self.working,
                rel: new_edge,
            })
        })?;
        if abort {
            spans.record("wire.abort", op, || unit.abort())?;
        } else {
            spans.record("wire.commit", op, || unit.commit())?;
        }
        Ok(new_edge)
    }

    /// After the run: every pool species has exactly the parent the writer
    /// last committed, through exactly the edge it created — so no aborted
    /// unit left a trace and no committed one was lost.
    fn verify(&self, db: &Prometheus, problems: &mut Vec<String>) {
        let working = Classification::from_oid(self.working);
        for (i, &species) in self.species.iter().enumerate() {
            match db.db().classification_parent_edges(working.oid(), species) {
                Ok(edges)
                    if edges.len() == 1
                        && edges[0].oid == self.edge_of[i]
                        && edges[0].origin == self.genera[self.genus_of[i]] => {}
                Ok(edges) => problems.push(format!(
                    "species {i} should sit under genus {} via {}, found {edges:?}",
                    self.genus_of[i], self.edge_of[i]
                )),
                Err(e) => problems.push(format!("species {i}: {e}")),
            }
        }
        match working.check_integrity(&**db.db()) {
            Ok(found) if found.is_empty() => {}
            Ok(found) => problems.push(format!("working classification unsound: {found:?}")),
            Err(e) => problems.push(format!("check_integrity: {e}")),
        }
    }
}

enum Role<'a> {
    Writer(PrometheusClient, Writer),
    Reader(PrometheusClient, Stream<'a>),
}

pub fn run(cfg: &Config) -> Res<Report> {
    let shape = cfg.small();
    let working = shape.classifications() - 1;
    let churn = Churn {
        family: CHURN_FAMILY,
        working,
    };
    let mut report = Report {
        workload: "mixed-rw",
        sizes: vec![
            ("objects", shape.objects() as u64),
            ("relationships", shape.relationships() as u64),
            ("classifications", shape.classifications() as u64),
            ("pool_species", (shape.genera * shape.species) as u64),
            ("pool_genera", shape.genera as u64),
            ("clients", 2),
        ],
        ..Report::default()
    };

    let setup = Instant::now();
    let scratch = Scratch::new("mixed-rw")?;
    let path = scratch.path("flora.db");
    let db = harness::open(&path)?;
    let dataset = harness::build(&db, Flora::generate(shape, cfg.seed))?;
    report
        .sizes
        .push(("flora_fingerprint", dataset.flora.fingerprint()));
    // The workload ends at its starting size: every committed unit deletes
    // one relationship and creates one.
    let expected = harness::counts(db.db())?;
    let server = harness::boot(db)?;
    let flora = &dataset.flora;
    let mut roles = vec![
        Role::Writer(harness::connect(&server)?, Writer::new(&dataset, working)),
        Role::Reader(
            harness::connect(&server)?,
            Stream::new(flora, "mixed-rw/reader", Some(churn)),
        ),
    ];
    let body = |_: usize, role: &mut Role, until: &Until, tally: &mut Tally| match role {
        Role::Writer(client, writer) => {
            let mut left = writer.quota;
            let mut outcome = Ok(());
            while outcome.is_ok() && !until.over() && left != Some(0) {
                outcome = writer.unit(client, tally);
                left = left.map(|n| n - 1);
            }
            // Whatever happened, the reader must not wait for ever.
            if writer.quota.is_some() {
                until.finish();
            }
            outcome
        }
        Role::Reader(client, stream) => {
            while !until.over() {
                let query = stream.mixed();
                ask(client, &query, tally)?;
            }
            Ok(())
        }
    };
    let warm = run_phase(&mut roles, Until::after(cfg.warm_seconds()), false, body)?;
    report.problems.extend(warm.problems);
    let setup_s = setup.elapsed().as_secs_f64();

    let committed = |roles: &[Role]| match &roles[0] {
        Role::Writer(_, w) => w.committed,
        Role::Reader(..) => 0,
    };
    let stats_via = |roles: &mut [Role]| match &mut roles[1] {
        Role::Reader(client, _) | Role::Writer(client, _) => Counters::read(client),
    };
    let before = stats_via(&mut roles)?;
    let committed_before = committed(&roles);
    // Fixed work: the writer does the units `--seconds` of its nominal rate
    // come to, and the reader reads for as long as that takes. A phase bound
    // by time would leave a log, an image and a reopen time that grow with
    // the writer's speed, so a faster writer would read as a slower reopen.
    let units = cfg.quota(NOMINAL_UNITS_PER_S);
    report.sizes.push(("units", units));
    let set_quota = |roles: &mut [Role]| {
        if let Role::Writer(_, writer) = &mut roles[0] {
            writer.quota = Some(units);
        }
    };
    set_quota(&mut roles);
    let untraced = run_phase(&mut roles, Until::told(), false, body)?;
    let after = stats_via(&mut roles)?;
    let committed_units = committed(&roles) - committed_before;
    let traced = match cfg.traced {
        true => Some(run_phase(&mut roles, Until::told(), true, body)?),
        false => None,
    };

    let mut writer = None;
    for role in roles {
        match role {
            Role::Writer(client, w) => {
                client.close().map_err(err)?;
                writer = Some(w);
            }
            Role::Reader(client, _) => client.close().map_err(err)?,
        }
    }
    server.stop();
    let first = Stream::new(flora, "reopen", Some(churn)).taxon_by_name();
    let (reopen_s, db) = reopen(cfg, &path, &first)?;
    final_checks(&db, flora, &expected, Some(churn), &mut report.problems);
    writer
        .expect("the writer role exists")
        .verify(&db, &mut report.problems);

    let ladder = ladder_rows(cfg, "mixed-rw", &traced, db, &path, &dataset, Some(churn))?;
    Measured {
        setup_s,
        untraced,
        storage: after.storage.since(&before.storage),
        committed_units,
        server: Some(ServerDelta::between(&before.server, &after.server)),
        traced,
        reopen_s,
    }
    .into_report(&mut report, ladder);
    Ok(report)
}
