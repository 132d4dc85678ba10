//! The benchmark's own dataset generator: a synthetic flora with overlapping
//! revisions, the checklist of operations that loads it, and the answers
//! queries over it must give.
//!
//! Nothing here calls the program. A flora is plain data derived from
//! `--seed`; the loaders in `harness.rs` turn its checklist into calls, and
//! the workloads compare what the program answers with what this file says
//! it should. Sizes depend on the [`Shape`] only, never on the seed, so runs
//! with different seeds do the same amount of work on differently named and
//! differently arranged data.

use crate::rng::Rng;
use prometheus_db::Value;

/// Dataset dimensions. One flora has a base classification plus
/// `revisions` overlapping revisions; all of them share every taxon and
/// specimen and differ in which genus circumscribes which species.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub families: usize,
    /// Genera per family.
    pub genera: usize,
    /// Species per genus (in the base classification).
    pub species: usize,
    /// Specimens per species.
    pub specimens: usize,
    pub revisions: usize,
    /// Per cent of each family's species that a revision places in another
    /// genus of the family.
    pub moved_pct: usize,
}

impl Shape {
    /// `flora-S`: about 24 k objects and relationships — fits the object
    /// layer's 131 072-entry decoded-object cache several times over.
    pub const SMALL: Shape = Shape {
        families: 5,
        genera: 12,
        species: 14,
        specimens: 3,
        revisions: 4,
        moved_pct: 20,
    };
    /// `flora-L`: about 210 k objects and relationships — exceeds that cache.
    pub const LARGE: Shape = Shape {
        families: 20,
        genera: 15,
        species: 15,
        specimens: 6,
        revisions: 4,
        moved_pct: 20,
    };
    /// `--smoke`: every code path in well under a second.
    pub const SMOKE: Shape = Shape {
        families: 2,
        genera: 3,
        species: 4,
        specimens: 2,
        revisions: 2,
        moved_pct: 25,
    };

    pub fn classifications(&self) -> usize {
        1 + self.revisions
    }
    pub fn species_total(&self) -> usize {
        self.families * self.genera * self.species
    }
    pub fn specimens_total(&self) -> usize {
        self.species_total() * self.specimens
    }
    /// Circumscription taxa: one per family, genus and species.
    pub fn cts(&self) -> usize {
        self.families + self.families * self.genera + self.species_total()
    }
    /// Nomenclatural taxa: one published name per circumscription taxon.
    pub fn nts(&self) -> usize {
        self.cts()
    }
    pub fn objects(&self) -> usize {
        self.cts() + self.nts() + self.specimens_total()
    }
    pub fn edges_per_classification(&self) -> usize {
        self.families * self.genera + self.species_total() + self.specimens_total()
    }
    /// `HasType` (one per name) + `Placement` (one per species name) +
    /// `AscribedName` (one per taxon) + one `Circumscribes` per edge of every
    /// classification.
    pub fn relationships(&self) -> usize {
        self.nts()
            + self.species_total()
            + self.cts()
            + self.edges_per_classification() * self.classifications()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Specimen {
    pub code: String,
    pub collector: &'static str,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Species {
    pub epithet: String,
    pub year: i64,
    pub specimens: Vec<Specimen>,
    /// Index (within the family) of the genus circumscribing this species,
    /// per classification; `[0]` is the base.
    pub genus_in: Vec<usize>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Genus {
    pub name: String,
    pub year: i64,
    /// The species described under this genus (its children in the base).
    pub species: Vec<Species>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    pub name: String,
    pub year: i64,
    pub genera: Vec<Genus>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Flora {
    pub shape: Shape,
    pub seed: u64,
    /// Classification names; `[0]` is the base, the rest are revisions.
    pub classifications: Vec<String>,
    pub families: Vec<Family>,
}

/// Collectors are deliberately few and not indexed: filtering on one is the
/// benchmark's full-extent scan.
pub const COLLECTORS: [&str; 8] = [
    "Linnaeus", "Banks", "Hooker", "Brown", "Forrest", "Wallich", "Sibthorp", "Burchell",
];

/// Five lowercase letters derived from the seed, woven into every name so
/// two seeds never share a key.
fn tag_of(seed: u64) -> String {
    let mut rng = Rng::fork(seed, "tag");
    (0..5)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

impl Flora {
    pub fn generate(shape: Shape, seed: u64) -> Flora {
        let tag = tag_of(seed);
        let mut years = Rng::fork(seed, "years");
        let mut people = Rng::fork(seed, "collectors");
        let mut moves = Rng::fork(seed, "moves");
        let classifications = (0..shape.classifications())
            .map(|c| match c {
                0 => format!("{tag} base"),
                c => format!("{tag} revision {c}"),
            })
            .collect();
        let mut families = Vec::with_capacity(shape.families);
        for f in 0..shape.families {
            let mut genera = Vec::with_capacity(shape.genera);
            for g in 0..shape.genera {
                let species: Vec<Species> = (0..shape.species)
                    .map(|s| Species {
                        epithet: format!("sp{tag}{f:02}{g:02}{s:02}"),
                        year: 1753 + years.below(200) as i64,
                        specimens: (0..shape.specimens)
                            .map(|k| Specimen {
                                code: format!("{}-{f:02}{g:02}{s:02}-{k}", tag.to_uppercase()),
                                collector: COLLECTORS[people.below(COLLECTORS.len())],
                            })
                            .collect(),
                        genus_in: vec![g; shape.classifications()],
                    })
                    .collect();
                genera.push(Genus {
                    name: format!("Gen{tag}{f:02}{g:02}"),
                    // A genus is as old as its first-described species.
                    year: species.iter().map(|s| s.year).min().unwrap_or(1753),
                    species,
                });
            }
            // Each revision moves exactly the same number of species (so
            // every seed does the same work), choosing which by shuffle.
            let per_family = shape.genera * shape.species;
            let moved = per_family * shape.moved_pct / 100;
            for c in 1..shape.classifications() {
                let mut order: Vec<usize> = (0..per_family).collect();
                moves.shuffle(&mut order);
                for &flat in order.iter().take(moved) {
                    let (g, s) = (flat / shape.species, flat % shape.species);
                    if shape.genera > 1 {
                        let other = (g + 1 + moves.below(shape.genera - 1)) % shape.genera;
                        genera[g].species[s].genus_in[c] = other;
                    }
                }
            }
            families.push(Family {
                name: format!("Fam{tag}{f:02}aceae"),
                year: genera.iter().map(|g| g.year).min().unwrap_or(1753),
                genera,
            });
        }
        Flora {
            shape,
            seed,
            classifications,
            families,
        }
    }

    /// FNV-1a over every generated value: two floras are the same dataset
    /// exactly when their fingerprints agree.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for name in &self.classifications {
            h.eat(name.as_bytes());
        }
        for family in &self.families {
            h.eat(family.name.as_bytes());
            h.eat(&family.year.to_le_bytes());
            for genus in &family.genera {
                h.eat(genus.name.as_bytes());
                h.eat(&genus.year.to_le_bytes());
                for species in &genus.species {
                    h.eat(species.epithet.as_bytes());
                    h.eat(&species.year.to_le_bytes());
                    for &g in &species.genus_in {
                        h.eat(&(g as u64).to_le_bytes());
                    }
                    for specimen in &species.specimens {
                        h.eat(specimen.code.as_bytes());
                        h.eat(specimen.collector.as_bytes());
                    }
                }
            }
        }
        h.finish()
    }

    // -----------------------------------------------------------------
    // Expected answers
    // -----------------------------------------------------------------

    /// The species genus `g` of family `f` circumscribes in classification
    /// `c`, as `(described-under genus, species index)` pairs.
    pub fn species_of(&self, f: usize, g: usize, c: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (home, genus) in self.families[f].genera.iter().enumerate() {
            for (s, species) in genus.species.iter().enumerate() {
                if species.genus_in[c] == g {
                    out.push((home, s));
                }
            }
        }
        out
    }

    /// Size of the downward closure of a genus in a classification: its
    /// species and their specimens.
    pub fn genus_closure(&self, f: usize, g: usize, c: usize) -> usize {
        self.species_of(f, g, c).len() * (1 + self.shape.specimens)
    }

    /// Specimens below a genus in a classification.
    pub fn genus_specimens(&self, f: usize, g: usize, c: usize) -> usize {
        self.species_of(f, g, c).len() * self.shape.specimens
    }

    /// Size of the downward closure of a family: the same in every
    /// classification, since revisions move species within their family.
    pub fn family_closure(&self) -> usize {
        self.shape.genera * (1 + self.shape.species * (1 + self.shape.specimens))
    }

    /// Everything above a specimen across all classifications at once: its
    /// species, every genus some classification places that species in, and
    /// the family.
    pub fn specimen_ancestors(&self, f: usize, g: usize, s: usize) -> usize {
        let mut genera = self.families[f].genera[g].species[s].genus_in.clone();
        genera.sort_unstable();
        genera.dedup();
        1 + genera.len() + 1
    }

    pub fn specimens_collected_by(&self, collector: &str) -> usize {
        self.families
            .iter()
            .flat_map(|f| &f.genera)
            .flat_map(|g| &g.species)
            .flat_map(|s| &s.specimens)
            .filter(|s| s.collector == collector)
            .count()
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------
// The checklist: the operations that load a flora
// ---------------------------------------------------------------------

/// One abstract load operation. Objects and relationships are named by
/// their creation index within the family's checklist; a loader keeps the
/// table from index to the OID the program assigned.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadOp {
    Object {
        class: &'static str,
        attrs: Vec<(String, Value)>,
    },
    Rel {
        class: &'static str,
        origin: u32,
        destination: u32,
        attrs: Vec<(String, Value)>,
    },
    /// Add relationship `rel` to classification `cls` (an index into
    /// [`Flora::classifications`]).
    Edge { cls: usize, rel: u32 },
}

/// Operations that make up one unit of work. A batch names only objects and
/// relationships created by *earlier* groups, so it can travel as one
/// `unit_batch` frame; a streamed group may name its own creations and is
/// sent op by op inside `begin … commit`.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    pub streamed: bool,
    pub ops: Vec<LoadOp>,
}

/// Operations per unit of work during a load.
pub const BATCH: usize = 64;

/// Where one family's entities sit in its checklist's creation order.
#[derive(Debug, Clone, Copy)]
pub struct FamilyIds {
    genera: usize,
    species: usize,
    specimens: usize,
}

impl FamilyIds {
    pub fn of(shape: &Shape) -> FamilyIds {
        FamilyIds {
            genera: shape.genera,
            species: shape.species,
            specimens: shape.specimens,
        }
    }
    fn flat(&self, g: usize, s: usize) -> usize {
        g * self.species + s
    }
    fn n_specimens(&self) -> usize {
        self.genera * self.species * self.specimens
    }
    fn n_cts(&self) -> usize {
        1 + self.genera + self.genera * self.species
    }
    pub fn specimen(&self, g: usize, s: usize, k: usize) -> u32 {
        (self.flat(g, s) * self.specimens + k) as u32
    }
    pub fn family_ct(&self) -> u32 {
        self.n_specimens() as u32
    }
    pub fn genus_ct(&self, g: usize) -> u32 {
        (self.n_specimens() + 1 + g) as u32
    }
    pub fn species_ct(&self, g: usize, s: usize) -> u32 {
        (self.n_specimens() + 1 + self.genera + self.flat(g, s)) as u32
    }
    // Names are created lowest rank first, so each name's type exists
    // before it.
    pub fn species_nt(&self, g: usize, s: usize) -> u32 {
        (self.n_specimens() + self.n_cts() + self.flat(g, s)) as u32
    }
    pub fn genus_nt(&self, g: usize) -> u32 {
        (self.n_specimens() + self.n_cts() + self.genera * self.species + g) as u32
    }
    pub fn family_nt(&self) -> u32 {
        (self.n_specimens() + self.n_cts() + self.genera * self.species + self.genera) as u32
    }
    /// Index, among the family's relationships, of the `Circumscribes` edge
    /// placing species `(g, s)` under its genus in classification `c`.
    /// (Relationship creation order: `Placement`s, `AscribedName`s, then per
    /// classification family→genus, genus→species, species→specimen edges —
    /// `HasType`s come first of all, one per name.)
    pub fn species_edge(&self, c: usize, g: usize, s: usize) -> u32 {
        let names = self.n_cts();
        let per_cls = self.genera + self.genera * self.species + self.n_specimens();
        (names + self.genera * self.species + names + c * per_cls + self.genera + self.flat(g, s))
            as u32
    }
}

fn str_attr(name: &str, value: &str) -> (String, Value) {
    (name.to_string(), Value::Str(value.to_string()))
}

fn ct(name: &str, rank: &str) -> LoadOp {
    LoadOp::Object {
        class: "CT",
        attrs: vec![str_attr("working_name", name), str_attr("rank", rank)],
    }
}

fn nt(name: &str, rank: &str, year: i64) -> LoadOp {
    LoadOp::Object {
        class: "NT",
        attrs: vec![
            str_attr("name", name),
            str_attr("rank", rank),
            ("year".to_string(), Value::Int(year)),
            str_attr("author", "Gen."),
        ],
    }
}

fn rel(class: &'static str, origin: u32, destination: u32) -> LoadOp {
    LoadOp::Rel {
        class,
        origin,
        destination,
        attrs: Vec::new(),
    }
}

fn batches(ops: Vec<LoadOp>, out: &mut Vec<Group>) {
    let mut ops = ops.into_iter().peekable();
    while ops.peek().is_some() {
        out.push(Group {
            streamed: false,
            ops: ops.by_ref().take(BATCH).collect(),
        });
    }
}

impl Flora {
    /// The checklist for family `f`: objects, then relationships, each
    /// classification edge following the relationship it classifies, in
    /// units of [`BATCH`] operations.
    ///
    /// Names are the exception to batching. The ICBN type-existence rule is
    /// checked when a unit commits and wants every new name typified by
    /// then, and a `HasType` must name the OID its name was just given — so
    /// names and their type designations travel together in streamed units.
    pub fn checklist(&self, f: usize) -> Vec<Group> {
        let family = &self.families[f];
        let ids = FamilyIds::of(&self.shape);
        let mut groups = Vec::new();

        // Objects: specimens, then circumscription taxa.
        let mut objects = Vec::new();
        for genus in &family.genera {
            for species in &genus.species {
                for specimen in &species.specimens {
                    objects.push(LoadOp::Object {
                        class: "Specimen",
                        attrs: vec![
                            str_attr("code", &specimen.code),
                            str_attr("collector", specimen.collector),
                        ],
                    });
                }
            }
        }
        objects.push(ct(&family.name, "Familia"));
        for genus in &family.genera {
            objects.push(ct(&genus.name, "Genus"));
        }
        for genus in &family.genera {
            for species in &genus.species {
                objects.push(ct(&species.epithet, "Species"));
            }
        }
        batches(objects, &mut groups);

        // Names with their types: a species name is typified by the
        // species' first specimen, a genus name by its first species' name,
        // the family name by its first genus' name (Figure 2's hierarchy).
        let mut named: Vec<(LoadOp, u32, u32)> = Vec::new();
        for (g, genus) in family.genera.iter().enumerate() {
            for (s, species) in genus.species.iter().enumerate() {
                named.push((
                    nt(&species.epithet, "Species", species.year),
                    ids.species_nt(g, s),
                    ids.specimen(g, s, 0),
                ));
            }
        }
        for (g, genus) in family.genera.iter().enumerate() {
            named.push((
                nt(&genus.name, "Genus", genus.year),
                ids.genus_nt(g),
                ids.species_nt(g, 0),
            ));
        }
        named.push((
            nt(&family.name, "Familia", family.year),
            ids.family_nt(),
            ids.genus_nt(0),
        ));
        for chunk in named.chunks(BATCH / 2) {
            let mut ops = Vec::with_capacity(chunk.len() * 2);
            for (create, _, _) in chunk {
                ops.push(create.clone());
            }
            for (_, name, target) in chunk {
                ops.push(LoadOp::Rel {
                    class: "HasType",
                    origin: *name,
                    destination: *target,
                    attrs: vec![str_attr("kind", "holotype")],
                });
            }
            groups.push(Group {
                streamed: true,
                ops,
            });
        }

        // Relationships that belong to no classification, in batches of
        // their own.
        let mut rels = Vec::new();
        for g in 0..family.genera.len() {
            for s in 0..family.genera[g].species.len() {
                rels.push(rel("Placement", ids.genus_nt(g), ids.species_nt(g, s)));
            }
        }
        rels.push(rel("AscribedName", ids.family_ct(), ids.family_nt()));
        for g in 0..family.genera.len() {
            rels.push(rel("AscribedName", ids.genus_ct(g), ids.genus_nt(g)));
        }
        for g in 0..family.genera.len() {
            for s in 0..family.genera[g].species.len() {
                rels.push(rel(
                    "AscribedName",
                    ids.species_ct(g, s),
                    ids.species_nt(g, s),
                ));
            }
        }
        let mut next_rel = (named.len() + rels.len()) as u32;
        batches(rels, &mut groups);

        // Classification edges, created top-down — the order a printed
        // checklist lists them in. A batch cannot add to a classification a
        // relationship it has itself just created, so each batch creates 32
        // relationships and classifies the 32 the batch before it created:
        // every edge is in its classification one unit after it exists, and
        // all these units cost alike.
        let mut circumscribes = Vec::new();
        for c in 0..self.classifications.len() {
            for g in 0..family.genera.len() {
                circumscribes.push((c, ids.family_ct(), ids.genus_ct(g)));
            }
            for (g, genus) in family.genera.iter().enumerate() {
                for (s, species) in genus.species.iter().enumerate() {
                    debug_assert_eq!(
                        ids.species_edge(c, g, s) as usize,
                        next_rel as usize + circumscribes.len()
                    );
                    circumscribes.push((
                        c,
                        ids.genus_ct(species.genus_in[c]),
                        ids.species_ct(g, s),
                    ));
                }
            }
            for (g, genus) in family.genera.iter().enumerate() {
                for (s, species) in genus.species.iter().enumerate() {
                    for k in 0..species.specimens.len() {
                        circumscribes.push((c, ids.species_ct(g, s), ids.specimen(g, s, k)));
                    }
                }
            }
        }
        let mut unclassified: Vec<LoadOp> = Vec::new();
        for chunk in circumscribes.chunks(BATCH / 2) {
            let mut ops: Vec<LoadOp> = chunk
                .iter()
                .map(|&(_, parent, child)| rel("Circumscribes", parent, child))
                .collect();
            ops.append(&mut unclassified);
            for &(cls, _, _) in chunk {
                unclassified.push(LoadOp::Edge { cls, rel: next_rel });
                next_rel += 1;
            }
            groups.push(Group {
                streamed: false,
                ops,
            });
        }
        groups.push(Group {
            streamed: false,
            ops: unclassified,
        });
        groups
    }

    /// FNV-1a over every family's checklist.
    pub fn checklist_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for f in 0..self.families.len() {
            for group in self.checklist(f) {
                h.eat(format!("{group:?}").as_bytes());
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_flora_different_seed_different() {
        let a = Flora::generate(Shape::SMOKE, 11);
        let b = Flora::generate(Shape::SMOKE, 11);
        let c = Flora::generate(Shape::SMOKE, 12);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.checklist_fingerprint(), b.checklist_fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.checklist_fingerprint(), c.checklist_fingerprint());
    }

    #[test]
    fn sizes_depend_on_the_shape_only() {
        for seed in [1, 2, 99] {
            let flora = Flora::generate(Shape::SMOKE, seed);
            let shape = flora.shape;
            let (mut objects, mut rels, mut edges) = (0, 0, 0);
            for f in 0..shape.families {
                for group in flora.checklist(f) {
                    assert!(group.ops.len() <= BATCH);
                    for op in &group.ops {
                        match op {
                            LoadOp::Object { .. } => objects += 1,
                            LoadOp::Rel { .. } => rels += 1,
                            LoadOp::Edge { .. } => edges += 1,
                        }
                    }
                }
            }
            assert_eq!(objects, shape.objects());
            assert_eq!(rels, shape.relationships());
            assert_eq!(
                edges,
                shape.edges_per_classification() * shape.classifications()
            );
            // Every revision moves the same number of species.
            for c in 1..shape.classifications() {
                let moved = flora
                    .families
                    .iter()
                    .flat_map(|f| f.genera.iter().enumerate())
                    .flat_map(|(g, genus)| genus.species.iter().map(move |s| (g, s)))
                    .filter(|(g, s)| s.genus_in[c] != *g)
                    .count();
                assert_eq!(
                    moved,
                    shape.families * (shape.genera * shape.species * shape.moved_pct / 100)
                );
            }
        }
    }

    #[test]
    fn the_documented_sizes_hold() {
        let s = Shape::SMALL;
        assert_eq!(s.objects() + s.relationships(), 24_080);
        let l = Shape::LARGE;
        assert_eq!(l.objects() + l.relationships(), 209_780);
        assert!(l.objects() + l.relationships() > 131_072);
    }

    #[test]
    fn batches_never_name_their_own_creations() {
        let flora = Flora::generate(Shape::SMOKE, 5);
        let (mut objects, mut rels) = (0u32, 0u32);
        for group in flora.checklist(0) {
            let (objects_before, rels_before) = (objects, rels);
            for op in &group.ops {
                match op {
                    LoadOp::Object { .. } => objects += 1,
                    LoadOp::Rel {
                        origin,
                        destination,
                        ..
                    } => {
                        let limit = if group.streamed {
                            objects
                        } else {
                            objects_before
                        };
                        assert!(*origin < limit && *destination < limit);
                        rels += 1;
                    }
                    LoadOp::Edge { rel, .. } => assert!(*rel < rels_before),
                }
            }
        }
    }

    #[test]
    fn expected_answers_are_consistent() {
        let flora = Flora::generate(Shape::SMOKE, 3);
        let shape = flora.shape;
        for c in 0..shape.classifications() {
            for f in 0..shape.families {
                let total: usize = (0..shape.genera)
                    .map(|g| flora.genus_closure(f, g, c))
                    .sum();
                assert_eq!(total + shape.genera, flora.family_closure());
            }
        }
        let by_collector: usize = COLLECTORS
            .iter()
            .map(|c| flora.specimens_collected_by(c))
            .sum();
        assert_eq!(by_collector, shape.specimens_total());
        assert!(flora.specimen_ancestors(0, 0, 0) >= 3);
    }
}
