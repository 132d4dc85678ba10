//! `revision-session`: the paper's own §7.1.4 session, one thread through
//! the embedded facade on `flora-S`. `Revision::start` copies the base
//! classification; then a loop over a fixed churn pool moves, merges and
//! splits taxa — one step in four as a what-if that is discarded — checking
//! integrity after every structural unit (the thesis' S1/S2 protocol), and
//! derives names and detects synonyms against the base every 200 units.
//!
//! The library's revision operations remove edges from the working
//! classification but leave the relationship instances behind. A session
//! that ran for hours would grow the database without bound, so — as a
//! careful tool would — each unit here also deletes the instances it
//! orphaned, in the same unit of work. That keeps the workload at its
//! starting size, which the end-of-run check asserts.

use super::{final_checks, ladder_rows, reopen, Measured};
use crate::flora::{FamilyIds, Flora};
use crate::harness::{self, err, Dataset, Res, Scratch};
use crate::measure::{Kind, Phase, Tally};
use crate::queries::{Churn, Stream};
use crate::report::{Config, Report};
use crate::rng::{Cycle, Rng};
use prometheus_db::taxonomy::revision::{Revision, WhatIf};
use prometheus_db::taxonomy::{derivation, synonymy};
use prometheus_db::{Classification, DbResult, Oid, Prometheus, SynonymMode, Taxonomy};
use std::collections::BTreeSet;
use std::time::Instant;

/// Structural units between two name derivations.
pub const ANALYSIS_EVERY: u64 = 200;

/// The churn pool is one family: its genera and their species.
const POOL_FAMILY: usize = 0;

/// The session's nominal rate: `--seconds` times this many structural units
/// is the fixed work of a measured phase (about what this box does in that
/// time).
pub const NOMINAL_UNITS_PER_S: f64 = 65.0;

/// How long a stretch of the session lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    /// Structural units. The measured phases are fixed work: bound by time,
    /// they would leave a log and a reopen time that grow with the session's
    /// speed, so a faster session would read as a slower reopen.
    Units(u64),
}

/// A merge or split waiting for its inverse.
enum Pending {
    Merged { loser: usize, children: Vec<Oid> },
    Split { from: usize, new_taxon: Oid },
}

pub struct Session<'a> {
    db: &'a Prometheus,
    tax: Taxonomy,
    rev: Revision,
    rng: Rng,
    /// What the next fresh step is: per sixteen, eight moves, four merges and
    /// four splits, a quarter of each as a discarded what-if.
    plan: Cycle,
    family: Oid,
    genera: Vec<Oid>,
    species: Vec<Oid>,
    /// Genus (index into `genera`) each pool species was described under,
    /// and the one it sits in now.
    home: Vec<usize>,
    genus_of: Vec<usize>,
    pending: Option<Pending>,
    units: u64,
    next_analysis: u64,
    /// Structural units between two analyses.
    analysis_every: u64,
    splits: u64,
    total_taxa: usize,
    pub committed: u64,
}

/// What one step did, for the span name and the tally.
struct Step {
    name: &'static str,
    discarded: bool,
}

impl<'a> Session<'a> {
    pub fn start(db: &'a Prometheus, dataset: &Dataset) -> Res<Session<'a>> {
        let tax = db.taxonomy().map_err(err)?;
        let base = Classification::from_oid(dataset.classifications[0]);
        let rev = Revision::start(&tax, &base, "working").map_err(err)?;
        let flora = &dataset.flora;
        let ids = FamilyIds::of(&flora.shape);
        let loaded = &dataset.families[POOL_FAMILY];
        let family = &flora.families[POOL_FAMILY];
        let mut species = Vec::new();
        let mut home = Vec::new();
        for (g, genus) in family.genera.iter().enumerate() {
            for s in 0..genus.species.len() {
                species.push(loaded.objects[ids.species_ct(g, s) as usize]);
                home.push(g);
            }
        }
        let mut rng = Rng::fork(flora.seed, "revision-session");
        Ok(Session {
            db,
            tax,
            rev,
            plan: Cycle::new(&[6, 2, 3, 1, 3, 1], &mut rng),
            rng,
            family: loaded.objects[ids.family_ct() as usize],
            genera: (0..family.genera.len())
                .map(|g| loaded.objects[ids.genus_ct(g) as usize])
                .collect(),
            species,
            genus_of: home.clone(),
            home,
            pending: None,
            units: 0,
            next_analysis: ANALYSIS_EVERY,
            analysis_every: ANALYSIS_EVERY,
            splits: 0,
            total_taxa: flora.shape.cts(),
            committed: 0,
        })
    }

    /// Analyse every `units` structural units instead of every
    /// [`ANALYSIS_EVERY`] (the ladder's session is too short for that).
    pub fn analyse_every(&mut self, units: u64) {
        self.analysis_every = units;
        self.next_analysis = self.units + units;
    }

    fn working(&self) -> Oid {
        self.rev.working.oid()
    }

    /// Relationship instances placing `node` under a parent in the working
    /// classification — what a move orphans.
    fn parent_edges(&self, node: Oid) -> DbResult<Vec<Oid>> {
        Ok(self
            .db
            .db()
            .classification_parent_edges(self.working(), node)?
            .into_iter()
            .map(|e| e.oid)
            .collect())
    }

    /// Run `change` as one unit of work and delete the instances it
    /// orphaned — or, for a what-if, run it and discard everything.
    fn unit(
        &self,
        discard: bool,
        orphans: &[Oid],
        change: impl FnOnce() -> DbResult<()>,
    ) -> DbResult<()> {
        if discard {
            self.rev
                .what_if(&self.tax, |_, _| change().map(|()| (WhatIf::Discard, ())))
                .map(|_| ())
        } else {
            self.db.unit(|db| {
                change()?;
                orphans
                    .iter()
                    .try_for_each(|&rel| db.delete_relationship(rel))
            })
        }
    }

    /// Move pool species `i` to another pool genus.
    fn move_species(&mut self, discard: bool) -> DbResult<Step> {
        let i = self.rng.below(self.species.len());
        let to = (self.genus_of[i] + 1 + self.rng.below(self.genera.len() - 1)) % self.genera.len();
        let orphans = self.parent_edges(self.species[i])?;
        self.unit(discard, &orphans, || {
            self.rev
                .move_taxon(&self.tax, self.species[i], self.genera[to])
        })?;
        if !discard {
            self.genus_of[i] = to;
        }
        Ok(Step {
            name: "taxonomy.move_taxon",
            discarded: discard,
        })
    }

    /// Merge one pool genus into another. Its inverse follows as the next
    /// step.
    fn merge(&mut self, discard: bool) -> DbResult<Step> {
        let winner = self.rng.below(self.genera.len());
        let loser = (winner + 1 + self.rng.below(self.genera.len() - 1)) % self.genera.len();
        let db = self.db.db();
        let child_edges = db.classification_child_edges(self.working(), self.genera[loser])?;
        let mut orphans: Vec<Oid> = child_edges.iter().map(|e| e.oid).collect();
        orphans.extend(self.parent_edges(self.genera[loser])?);
        self.unit(discard, &orphans, || {
            self.rev
                .merge_taxa(&self.tax, self.genera[winner], self.genera[loser])
        })?;
        if !discard {
            self.pending = Some(Pending::Merged {
                loser,
                children: child_edges.into_iter().map(|e| e.destination).collect(),
            });
        }
        Ok(Step {
            name: "taxonomy.merge_taxa",
            discarded: discard,
        })
    }

    /// Undo a merge: the loser returns under the family and takes its
    /// children back.
    fn unmerge(&mut self, loser: usize, children: Vec<Oid>) -> DbResult<Step> {
        let mut orphans = Vec::new();
        for &child in &children {
            orphans.extend(self.parent_edges(child)?);
        }
        self.unit(false, &orphans, || {
            self.tax
                .circumscribe(&self.rev.working, self.family, self.genera[loser])?;
            children
                .iter()
                .try_for_each(|&child| self.rev.move_taxon(&self.tax, child, self.genera[loser]))
        })?;
        Ok(Step {
            name: "session.unmerge",
            discarded: false,
        })
    }

    /// Split half the children of the fullest pool genus into a new taxon.
    /// Its inverse follows as the next step.
    fn split(&mut self, discard: bool) -> DbResult<Step> {
        let db = self.db.db();
        let mut fullest = (0, Vec::new());
        for g in 0..self.genera.len() {
            let edges = db.classification_child_edges(self.working(), self.genera[g])?;
            if edges.len() > fullest.1.len() {
                fullest = (g, edges);
            }
        }
        let (from, edges) = fullest;
        let moved = &edges[..edges.len() / 2];
        let orphans: Vec<Oid> = moved.iter().map(|e| e.oid).collect();
        let children: Vec<Oid> = moved.iter().map(|e| e.destination).collect();
        self.splits += 1;
        let name = format!("Split{}", self.splits);
        let mut new_taxon = Oid::NIL;
        self.unit(discard, &orphans, || {
            new_taxon = self
                .rev
                .split_taxon(&self.tax, self.genera[from], &children, &name)?;
            Ok(())
        })?;
        if !discard {
            self.pending = Some(Pending::Split { from, new_taxon });
        }
        Ok(Step {
            name: "taxonomy.split_taxon",
            discarded: discard,
        })
    }

    /// Undo a split: merge the new taxon back and delete it (which deletes
    /// every relationship instance still naming it).
    fn unsplit(&mut self, from: usize, new_taxon: Oid) -> DbResult<Step> {
        self.db.unit(|db| {
            self.rev
                .merge_taxa(&self.tax, self.genera[from], new_taxon)?;
            db.delete_object(new_taxon)
        })?;
        Ok(Step {
            name: "session.unsplit",
            discarded: false,
        })
    }

    /// The next structural unit, then the integrity check the S1/S2
    /// protocol runs after every one. One operation.
    fn step(&mut self, tally: &mut Tally) {
        let began = Instant::now();
        let op = tally.next_op();
        let whole = tally.spans.enter("unit", op);
        let inner = tally.spans.enter("unit.change", op);
        let step = match self.pending.take() {
            Some(Pending::Merged { loser, children }) => self.unmerge(loser, children),
            Some(Pending::Split { from, new_taxon }) => self.unsplit(from, new_taxon),
            None => match self.plan.next() {
                0 => self.move_species(false),
                1 => self.move_species(true),
                2 => self.merge(false),
                3 => self.merge(true),
                4 => self.split(false),
                _ => self.split(true),
            },
        };
        tally.spans.exit(inner);
        let outcome = match step {
            Ok(step) => {
                if step.discarded {
                    tally.spans.rename(inner, "taxonomy.what_if_discard");
                } else {
                    tally.spans.rename(inner, step.name);
                    self.committed += 1;
                }
                let db = self.db.db();
                let sound = tally.spans.record("object.check_integrity", op, || {
                    self.rev.working.check_integrity(&**db)
                });
                match sound {
                    Ok(found) if found.is_empty() => Ok(()),
                    Ok(found) => Err(format!("{}: integrity {found:?}", step.name)),
                    Err(e) => Err(format!("{}: check_integrity: {e}", step.name)),
                }
            }
            Err(e) => Err(format!("structural unit failed: {e}")),
        };
        tally.spans.exit(whole);
        tally.op(Kind::Unit, began, outcome);
        self.units += 1;
    }

    /// Derive every name in the working classification (as a what-if, so
    /// nothing is published) and detect synonyms against the base. One
    /// operation, checked against what the session's own bookkeeping says.
    fn analyse(&mut self, tally: &mut Tally) {
        let began = Instant::now();
        let op = tally.next_op();
        let derived = tally.spans.record("taxonomy.derive_names", op, || {
            self.rev.what_if(&self.tax, |tax, working| {
                let outcome = derivation::derive_names(tax, working, "Bench.", 2000)?;
                Ok((WhatIf::Discard, outcome.names.len()))
            })
        });
        let synonyms = tally.spans.record("taxonomy.detect_synonyms", op, || {
            synonymy::detect_synonyms(
                &self.tax,
                &self.rev.working,
                &self.rev.base,
                SynonymMode::Ignore,
            )
        });
        // A genus here and a different genus in the base are synonyms (pro
        // parte) exactly when some species sits in the one now and was
        // described under the other.
        let expected: BTreeSet<(usize, usize)> = self
            .genus_of
            .iter()
            .zip(&self.home)
            .filter(|(now, home)| now != home)
            .map(|(now, home)| (*now, *home))
            .collect();
        let outcome = match (derived, synonyms) {
            (Ok((_, names)), Ok(reports)) => {
                if names != self.total_taxa {
                    Err(format!(
                        "derived {names} names for {} taxa",
                        self.total_taxa
                    ))
                } else if reports.len() != expected.len() {
                    Err(format!(
                        "{} synonym pairs detected, {} expected",
                        reports.len(),
                        expected.len()
                    ))
                } else {
                    Ok(())
                }
            }
            (Err(e), _) | (_, Err(e)) => Err(format!("analysis failed: {e}")),
        };
        tally.op(Kind::Other, began, outcome);
    }

    /// Run the session for a time or for a number of structural units, then
    /// finish any pending inverse so the database is back at its starting
    /// size.
    pub fn run(&mut self, budget: Budget, traced: bool) -> Phase {
        let started = Instant::now();
        let last_unit = self.units;
        let mut tally = Tally::new(started, traced);
        let spent = |session: &Session| match budget {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Units(n) => session.units - last_unit >= n,
        };
        while !spent(self) {
            self.step(&mut tally);
            // Never between a merge or split and its inverse: the expected
            // answers assume the pool's genera are all in place.
            if self.pending.is_none() && self.units >= self.next_analysis {
                self.analyse(&mut tally);
                self.next_analysis = self.units + self.analysis_every;
            }
        }
        let elapsed = started.elapsed();
        if self.pending.is_some() {
            self.step(&mut tally);
        }
        Phase::merge(vec![tally], elapsed)
    }

    /// Every pool species sits where the session last put it, and the
    /// working classification is sound.
    fn verify(&self, problems: &mut Vec<String>) {
        let db = self.db.db();
        for (i, &species) in self.species.iter().enumerate() {
            match self.rev.working.parents(&**db, species) {
                Ok(parents) if parents == [self.genera[self.genus_of[i]]] => {}
                Ok(parents) => problems.push(format!(
                    "species {i} should sit under genus {}, found {parents:?}",
                    self.genus_of[i]
                )),
                Err(e) => problems.push(format!("species {i}: {e}")),
            }
        }
        match self.rev.working.check_integrity(&**db) {
            Ok(found) if found.is_empty() => {}
            Ok(found) => problems.push(format!("working classification unsound: {found:?}")),
            Err(e) => problems.push(format!("check_integrity: {e}")),
        }
    }
}

pub fn run(cfg: &Config) -> Res<Report> {
    let shape = cfg.small();
    let mut report = Report {
        workload: "revision-session",
        sizes: vec![
            ("objects", shape.objects() as u64),
            ("relationships", shape.relationships() as u64),
            ("working_edges", shape.edges_per_classification() as u64),
            ("pool_species", (shape.genera * shape.species) as u64),
            ("pool_genera", shape.genera as u64),
            ("units", cfg.quota(NOMINAL_UNITS_PER_S)),
            ("analysis_every", ANALYSIS_EVERY),
            ("clients", 1),
        ],
        ..Report::default()
    };

    let setup = Instant::now();
    let scratch = Scratch::new("revision-session")?;
    let path = scratch.path("flora.db");
    let db = harness::open(&path)?;
    let dataset = harness::build(&db, Flora::generate(shape, cfg.seed))?;
    report
        .sizes
        .push(("flora_fingerprint", dataset.flora.fingerprint()));
    let mut session = Session::start(&db, &dataset)?;
    // The session ends at this size: every unit deletes what it orphans.
    let expected = harness::counts(db.db())?;
    let warm = session.run(Budget::Seconds(cfg.warm_seconds()), false);
    report.problems.extend(warm.problems);
    let setup_s = setup.elapsed().as_secs_f64();

    let before = db.stats();
    let committed_before = session.committed;
    let units = Budget::Units(cfg.quota(NOMINAL_UNITS_PER_S));
    let untraced = session.run(units, false);
    let storage = db.stats().since(&before);
    let committed_units = session.committed - committed_before;
    let traced = cfg.traced.then(|| session.run(units, true));

    session.verify(&mut report.problems);
    drop(session);
    drop(db);
    let first = Stream::new(&dataset.flora, "reopen", None).taxon_by_name();
    let (reopen_s, db) = reopen(cfg, &path, &first)?;
    // The working copy is a sixth classification the generator knows nothing
    // of; queries that cross classifications keep off the family it changed.
    let churn = Some(Churn {
        family: POOL_FAMILY,
        working: usize::MAX,
    });
    final_checks(&db, &dataset.flora, &expected, churn, &mut report.problems);

    let ladder = ladder_rows(cfg, "revision-session", &traced, db, &path, &dataset, churn)?;
    Measured {
        setup_s,
        untraced,
        storage,
        committed_units,
        server: None,
        traced,
        reopen_s,
    }
    .into_report(&mut report, ladder);
    Ok(report)
}
