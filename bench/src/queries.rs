//! Seeded POOL query streams with the answers the generator says they must
//! give. Two families of query share the read path and use it differently:
//! *point* queries name one indexed key and return one row; *scan* queries
//! walk a classification, an extent or a join.

use crate::flora::{Flora, COLLECTORS};
use crate::rng::{Cycle, Rng, Zipf};
use prometheus_db::Value;
use prometheus_server::WireRows;

/// What a query must answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Exactly these rows.
    Rows(Vec<Vec<Value>>),
    /// This many rows.
    Count(usize),
    /// One row whose first cell is a collection of this many members (how
    /// POOL returns a traversal).
    Cells(usize),
}

impl Expect {
    pub fn check(&self, got: &WireRows) -> Result<(), String> {
        match self {
            Expect::Rows(rows) if got.rows == *rows => Ok(()),
            Expect::Rows(rows) => Err(format!("expected rows {rows:?}, got {:?}", got.rows)),
            Expect::Count(n) if got.rows.len() == *n => Ok(()),
            Expect::Count(n) => Err(format!("expected {n} rows, got {}", got.rows.len())),
            Expect::Cells(n) => match got.rows.as_slice() {
                [row] => match row.first() {
                    Some(Value::List(items)) if items.len() == *n => Ok(()),
                    Some(Value::List(items)) => {
                        Err(format!("expected {n} members, got {}", items.len()))
                    }
                    other => Err(format!("expected a collection, got {other:?}")),
                },
                rows => Err(format!("expected one row, got {}", rows.len())),
            },
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub text: String,
    pub expect: Expect,
    /// The query class, for the per-class reopen check and the traced
    /// run's span names.
    pub class: &'static str,
}

/// What a concurrent writer is changing, so readers beside it ask only what
/// has one right answer whatever the writer has committed so far: the
/// writer moves species of `family` between that family's genera inside
/// classification `working`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    pub family: usize,
    pub working: usize,
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// A seeded, endless stream of queries over one flora.
pub struct Stream<'a> {
    flora: &'a Flora,
    rng: Rng,
    churn: Option<Churn>,
    /// Zipf(0.99) over species and over genera, each through its own seeded
    /// permutation so the popular keys are scattered over the flora.
    species_zipf: Zipf,
    species_order: Vec<(usize, usize, usize)>,
    genus_zipf: Zipf,
    genus_order: Vec<(usize, usize)>,
    /// Which class of query comes next, per mix (see [`Cycle`]).
    point_mix: Cycle,
    scan_mix: Cycle,
    mixed_mix: Cycle,
}

pub const ZIPF_THETA: f64 = 0.99;

impl<'a> Stream<'a> {
    /// `purpose` separates the streams of different clients and workloads
    /// drawn from one seed.
    pub fn new(flora: &'a Flora, purpose: &str, churn: Option<Churn>) -> Stream<'a> {
        let mut order_rng = Rng::fork(flora.seed, "key-order");
        let mut species_order = Vec::new();
        let mut genus_order = Vec::new();
        for (f, family) in flora.families.iter().enumerate() {
            for (g, genus) in family.genera.iter().enumerate() {
                genus_order.push((f, g));
                for sp in 0..genus.species.len() {
                    species_order.push((f, g, sp));
                }
            }
        }
        order_rng.shuffle(&mut species_order);
        order_rng.shuffle(&mut genus_order);
        let mut rng = Rng::fork(flora.seed, purpose);
        Stream {
            flora,
            point_mix: Cycle::new(&[6, 6, 5, 3], &mut rng),
            scan_mix: Cycle::new(&[6, 3, 3, 3, 1, 4], &mut rng),
            mixed_mix: Cycle::new(&[7, 1, 2], &mut rng),
            rng,
            churn,
            species_zipf: Zipf::new(species_order.len(), ZIPF_THETA),
            species_order,
            genus_zipf: Zipf::new(genus_order.len(), ZIPF_THETA),
            genus_order,
        }
    }

    fn species_key(&mut self) -> (usize, usize, usize) {
        self.species_order[self.species_zipf.draw(&mut self.rng)]
    }

    fn genus_key(&mut self) -> (usize, usize) {
        self.genus_order[self.genus_zipf.draw(&mut self.rng)]
    }

    /// A genus the writer (if any) leaves alone.
    fn quiet_genus(&mut self) -> (usize, usize) {
        loop {
            let (f, g) = self.genus_key();
            if self.churn.is_none_or(|c| c.family != f) {
                return (f, g);
            }
        }
    }

    fn classification(&mut self) -> usize {
        self.rng.below(self.flora.classifications.len())
    }

    /// A `(family, genus, classification)` whose circumscription the writer
    /// (if any) never changes. Scans draw their roots uniformly: a genus'
    /// size decides what its scan costs, and on a flora of sixty genera a
    /// Zipf draw would let the one genus a seed happens to favour decide the
    /// run.
    fn quiet_circumscription(&mut self) -> (usize, usize, usize) {
        loop {
            let (f, g) = self.genus_order[self.rng.below(self.genus_order.len())];
            let c = self.classification();
            if self.churn.is_none_or(|w| w.family != f || w.working != c) {
                return (f, g, c);
            }
        }
    }

    // -----------------------------------------------------------------
    // Point queries: one indexed key, one row
    // -----------------------------------------------------------------

    /// `CT.working_name =`
    pub fn taxon_by_name(&mut self) -> Query {
        let (f, g, sp) = self.species_key();
        // One draw in eight asks for the genus instead, so every rank is hit.
        let (name, rank) = if self.rng.below(8) == 0 {
            (self.flora.families[f].genera[g].name.clone(), "Genus")
        } else {
            (
                self.flora.families[f].genera[g].species[sp].epithet.clone(),
                "Species",
            )
        };
        Query {
            text: format!(
                "select t.working_name, t.rank from CT t where t.working_name = \"{name}\""
            ),
            expect: Expect::Rows(vec![vec![s(&name), s(rank)]]),
            class: "point.taxon",
        }
    }

    /// `Specimen.code =`
    pub fn specimen_by_code(&mut self) -> Query {
        let (f, g, sp) = self.species_key();
        let species = &self.flora.families[f].genera[g].species[sp];
        let specimen = &species.specimens[self.rng.below(species.specimens.len())];
        Query {
            text: format!(
                "select s.code, s.collector from Specimen s where s.code = \"{}\"",
                specimen.code
            ),
            expect: Expect::Rows(vec![vec![s(&specimen.code), s(specimen.collector)]]),
            class: "point.specimen",
        }
    }

    /// `NT.name =` plus a year range (the half-century the name was
    /// published in).
    pub fn name_by_name_and_year(&mut self) -> Query {
        let (f, g, sp) = self.species_key();
        let species = &self.flora.families[f].genera[g].species[sp];
        let lo = species.year - species.year % 50;
        Query {
            text: format!(
                "select t.name, t.year from NT t where t.name = \"{}\" \
                 and t.year >= {lo} and t.year < {}",
                species.epithet,
                lo + 50
            ),
            expect: Expect::Rows(vec![vec![s(&species.epithet), Value::Int(species.year)]]),
            class: "point.name",
        }
    }

    /// One hop down `Circumscribes` from a genus, across every
    /// classification at once: each species some classification places in
    /// the genus, once.
    pub fn one_hop(&mut self) -> Query {
        let (f, g) = self.quiet_genus();
        let mut species: Vec<(usize, usize)> = (0..self.flora.classifications.len())
            .flat_map(|c| self.flora.species_of(f, g, c))
            .collect();
        species.sort_unstable();
        species.dedup();
        Query {
            text: format!(
                "select t -> Circumscribes from CT t where t.working_name = \"{}\"",
                self.flora.families[f].genera[g].name
            ),
            expect: Expect::Cells(species.len()),
            class: "point.one_hop",
        }
    }

    /// The `point-reads` mix: 30 % taxon, 30 % specimen, 25 % name + year,
    /// 15 % one hop — exactly, in every stretch of twenty queries.
    pub fn point(&mut self) -> Query {
        match self.point_mix.next() {
            0 => self.taxon_by_name(),
            1 => self.specimen_by_code(),
            2 => self.name_by_name_and_year(),
            _ => self.one_hop(),
        }
    }

    // -----------------------------------------------------------------
    // Scan queries: closures, extents, joins
    // -----------------------------------------------------------------

    fn cls_name(&self, c: usize) -> &str {
        &self.flora.classifications[c]
    }

    /// Context-scoped `->*` closure from a genus root.
    pub fn genus_closure(&mut self) -> Query {
        let (f, g, c) = self.quiet_circumscription();
        Query {
            text: format!(
                "select t -> Circumscribes* from CT t in classification \"{}\" \
                 where t.working_name = \"{}\"",
                self.cls_name(c),
                self.flora.families[f].genera[g].name
            ),
            expect: Expect::Cells(self.flora.genus_closure(f, g, c)),
            class: "scan.genus_closure",
        }
    }

    /// Context-scoped `->*` closure from a family root. Revisions (and the
    /// writer) move species within their family, so the answer is the same
    /// in every classification at every moment.
    pub fn family_closure(&mut self) -> Query {
        let f = self.rng.below(self.flora.families.len());
        let c = self.classification();
        Query {
            text: format!(
                "select t -> Circumscribes* from CT t in classification \"{}\" \
                 where t.working_name = \"{}\"",
                self.cls_name(c),
                self.flora.families[f].name
            ),
            expect: Expect::Cells(self.flora.family_closure()),
            class: "scan.family_closure",
        }
    }

    /// Reverse traversal of a specimen across all classifications at once.
    pub fn specimen_ancestors(&mut self) -> Query {
        let (f, g, sp) = loop {
            let key = self.species_order[self.rng.below(self.species_order.len())];
            if self.churn.is_none_or(|c| c.family != key.0) {
                break key;
            }
        };
        let species = &self.flora.families[f].genera[g].species[sp];
        let specimen = &species.specimens[self.rng.below(species.specimens.len())];
        Query {
            text: format!(
                "select s <- Circumscribes* from Specimen s where s.code = \"{}\"",
                specimen.code
            ),
            expect: Expect::Cells(self.flora.specimen_ancestors(f, g, sp)),
            class: "scan.ancestors",
        }
    }

    /// A filter on an attribute with no index: the whole `Specimen` extent
    /// is read.
    pub fn extent_filter(&mut self) -> Query {
        let collector = COLLECTORS[self.rng.below(COLLECTORS.len())];
        Query {
            text: format!("select s.code from Specimen s where s.collector = \"{collector}\""),
            expect: Expect::Count(self.flora.specimens_collected_by(collector)),
            class: "scan.extent_filter",
        }
    }

    /// Genus × species join inside a classification.
    pub fn genus_species_join(&mut self) -> Query {
        let (f, g, c) = self.quiet_circumscription();
        Query {
            text: format!(
                "select g.working_name, s.working_name from CT g, CT s \
                 in classification \"{}\" where g.working_name = \"{}\" \
                 and s.rank = \"Species\" and s in g -> Circumscribes",
                self.cls_name(c),
                self.flora.families[f].genera[g].name
            ),
            expect: Expect::Count(self.flora.species_of(f, g, c).len()),
            class: "scan.join",
        }
    }

    /// `(Specimen)` downcast over a closure: the specimens below a genus.
    pub fn downcast_closure(&mut self) -> Query {
        let (f, g, c) = self.quiet_circumscription();
        Query {
            text: format!(
                "select (Specimen) collect(g -> Circumscribes*) from CT g \
                 in classification \"{}\" where g.working_name = \"{}\"",
                self.cls_name(c),
                self.flora.families[f].genera[g].name
            ),
            expect: Expect::Cells(self.flora.genus_specimens(f, g, c)),
            class: "scan.downcast",
        }
    }

    /// Beside a writer only: the parents of a species the writer moves, in
    /// the classification it moves it in. A strict hierarchy pinned at any
    /// committed state shows exactly one — never none (the old edge deleted,
    /// the new one not yet added) and never two.
    pub fn moved_species_parent(&mut self) -> Query {
        let churn = self.churn.expect("only asked beside a writer");
        let family = &self.flora.families[churn.family];
        let g = self.rng.below(family.genera.len());
        let sp = self.rng.below(family.genera[g].species.len());
        Query {
            text: format!(
                "select s <- Circumscribes from CT s in classification \"{}\" \
                 where s.working_name = \"{}\"",
                self.cls_name(churn.working),
                family.genera[g].species[sp].epithet
            ),
            expect: Expect::Cells(1),
            class: "scan.moved_parent",
        }
    }

    /// The `closure-scans` mix. The join costs ten times the rest and is
    /// kept to one query in twenty so it does not become the workload.
    pub fn scan(&mut self) -> Query {
        match self.scan_mix.next() {
            0 => self.genus_closure(),
            1 => self.family_closure(),
            2 => self.specimen_ancestors(),
            3 => self.extent_filter(),
            4 => self.genus_species_join(),
            _ => self.downcast_closure(),
        }
    }

    /// The reader's mix in `mixed-rw`: 70 % point, 30 % scan, and among the
    /// scans one in three asks after a species the writer is moving.
    pub fn mixed(&mut self) -> Query {
        match self.mixed_mix.next() {
            0 => self.point(),
            1 => self.moved_species_parent(),
            _ => self.scan(),
        }
    }
}

/// One query of each class, for the "answers identically after reopen"
/// check.
pub fn one_of_each(flora: &Flora, churn: Option<Churn>) -> Vec<Query> {
    let mut stream = Stream::new(flora, "one-of-each", churn);
    vec![
        stream.taxon_by_name(),
        stream.specimen_by_code(),
        stream.name_by_name_and_year(),
        stream.one_hop(),
        stream.genus_closure(),
        stream.family_closure(),
        stream.specimen_ancestors(),
        stream.extent_filter(),
        stream.genus_species_join(),
        stream.downcast_closure(),
    ]
}

/// FNV-1a over the first `n` queries of a stream: the op-stream hash of the
/// read workloads.
#[cfg(test)]
pub fn stream_fingerprint(flora: &Flora, purpose: &str, churn: Option<Churn>, n: usize) -> u64 {
    let mut stream = Stream::new(flora, purpose, churn);
    let mut h = crate::flora::Fnv::new();
    for _ in 0..n {
        let q = stream.mixed_or_plain();
        h.eat(q.text.as_bytes());
        h.eat(format!("{:?}", q.expect).as_bytes());
    }
    h.finish()
}

#[cfg(test)]
impl Stream<'_> {
    /// Every query class the stream's setting allows, in the proportions of
    /// the workloads (used to fingerprint a stream).
    fn mixed_or_plain(&mut self) -> Query {
        if self.churn.is_some() {
            self.mixed()
        } else if self.rng.below(2) == 0 {
            self.point()
        } else {
            self.scan()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flora::Shape;

    #[test]
    fn same_seed_same_stream_different_seed_different() {
        let a = Flora::generate(Shape::SMOKE, 21);
        let b = Flora::generate(Shape::SMOKE, 22);
        assert_eq!(
            stream_fingerprint(&a, "client-0", None, 500),
            stream_fingerprint(&a, "client-0", None, 500)
        );
        assert_ne!(
            stream_fingerprint(&a, "client-0", None, 500),
            stream_fingerprint(&a, "client-1", None, 500)
        );
        assert_ne!(
            stream_fingerprint(&a, "client-0", None, 500),
            stream_fingerprint(&b, "client-0", None, 500)
        );
    }

    #[test]
    fn readers_beside_a_writer_avoid_what_it_changes() {
        let flora = Flora::generate(Shape::SMOKE, 4);
        let churn = Churn {
            family: 0,
            working: flora.classifications.len() - 1,
        };
        let working = &flora.classifications[churn.working];
        // Family 0's genera are named "…00gg" and its specimens "…-00ggss-k".
        let churned_genus = |text: &str| {
            flora.families[0]
                .genera
                .iter()
                .any(|g| text.contains(&format!("\"{}\"", g.name)))
        };
        let mut stream = Stream::new(&flora, "reader", Some(churn));
        for _ in 0..2000 {
            let q = stream.mixed();
            match q.class {
                // Context-free traversals see the working classification too.
                "point.one_hop" => assert!(!churned_genus(&q.text), "{}", q.text),
                "scan.ancestors" => assert!(!q.text.contains("-00"), "{}", q.text),
                "scan.genus_closure" | "scan.join" | "scan.downcast" => {
                    assert!(!(churned_genus(&q.text) && q.text.contains(working)))
                }
                _ => {}
            }
        }
    }

    #[test]
    fn expectations_check_shapes() {
        let rows = WireRows {
            columns: vec!["x".into()],
            rows: vec![vec![Value::List(vec![Value::Int(1), Value::Int(2)])]],
        };
        assert!(Expect::Cells(2).check(&rows).is_ok());
        assert!(Expect::Cells(3).check(&rows).is_err());
        assert!(Expect::Count(1).check(&rows).is_ok());
        assert!(Expect::Count(0).check(&rows).is_err());
        assert!(Expect::Rows(rows.rows.clone()).check(&rows).is_ok());
        assert!(Expect::Rows(vec![]).check(&rows).is_err());
    }
}
