//! The Prometheus taxonomic schema (Figure 6) and the [`Taxonomy`] facade.
//!
//! Classes installed:
//!
//! * `Specimen` — physical evidence: `code` (indexed), `collector`,
//!   `collected` (date), `locality`;
//! * `NT` — nomenclatural taxon: `name` (indexed), `rank` (indexed),
//!   `year` (indexed), `author`, `publication`, `valid`;
//! * `CT` — circumscription taxon: `working_name` (indexed), `rank`
//!   (indexed), `author`, `publication`.
//!
//! Relationship classes (the Figure 6 edges, as first-class relationships):
//!
//! * `Circumscribes` (aggregation, CT → CT|Specimen, sharable, acyclic) —
//!   sharable because the same specimen/taxon sits in many overlapping
//!   classifications; edges carry a `remark` for traceability;
//! * `HasType` (association, NT → Specimen|NT) with a `kind` attribute
//!   (holotype/lectotype/…) — the type hierarchy of Figure 2;
//! * `Placement` (association, NT → NT) — a published *combination* of
//!   names, no classification meaning (§2.1.2);
//! * `AscribedName` / `CalculatedName` (association, CT → NT) — the two
//!   name attachments of Figure 6.

use crate::nomenclature;
use crate::rank::Rank;
use crate::typification::TypeKind;
use prometheus_object::{
    AttrDef, Cardinality, ClassDef, Classification, Database, DbError, DbResult, Oid, RelClassDef,
    Type, Value,
};
use std::sync::Arc;

/// Relationship class names.
pub const CIRCUMSCRIBES: &str = "Circumscribes";
pub const HAS_TYPE: &str = "HasType";
pub const PLACEMENT: &str = "Placement";
pub const ASCRIBED_NAME: &str = "AscribedName";
pub const CALCULATED_NAME: &str = "CalculatedName";

/// Facade over a [`Database`] with the taxonomic schema installed.
#[derive(Clone)]
pub struct Taxonomy {
    db: Arc<Database>,
}

impl Taxonomy {
    /// Install the schema (idempotent) and return the facade.
    pub fn install(db: Arc<Database>) -> DbResult<Taxonomy> {
        let installed = db.with_schema(|s| s.class("Specimen").is_some());
        if !installed {
            db.define_class(
                ClassDef::new("Specimen")
                    .attr(AttrDef::required("code", Type::Str).indexed())
                    .attr(AttrDef::optional("collector", Type::Str))
                    .attr(AttrDef::optional("collected", Type::Date))
                    .attr(AttrDef::optional("locality", Type::Str)),
            )?;
            db.define_class(
                ClassDef::new("NT")
                    .attr(AttrDef::required("name", Type::Str).indexed())
                    .attr(AttrDef::required("rank", Type::Str).indexed())
                    .attr(AttrDef::optional("year", Type::Int).indexed())
                    .attr(AttrDef::optional("author", Type::Str))
                    .attr(AttrDef::optional("publication", Type::Str))
                    .attr(AttrDef::optional("valid", Type::Bool).with_default(true)),
            )?;
            db.define_class(
                ClassDef::new("CT")
                    .attr(AttrDef::required("working_name", Type::Str).indexed())
                    .attr(AttrDef::required("rank", Type::Str).indexed())
                    .attr(AttrDef::optional("author", Type::Str))
                    .attr(AttrDef::optional("publication", Type::Str)),
            )?;
            db.define_relationship(
                RelClassDef::aggregation(CIRCUMSCRIBES, "CT", "Object")
                    .sharable(true)
                    .acyclic(true)
                    .attr(AttrDef::optional("remark", Type::Str)),
            )?;
            db.define_relationship(
                RelClassDef::association(HAS_TYPE, "NT", "Object")
                    .attr(AttrDef::required("kind", Type::Str)),
            )?;
            db.define_relationship(
                RelClassDef::association(PLACEMENT, "NT", "NT")
                    .attr(AttrDef::optional("year", Type::Int))
                    .acyclic(true),
            )?;
            db.define_relationship(
                RelClassDef::association(ASCRIBED_NAME, "CT", "NT")
                    .origin_cardinality(Cardinality::OPTIONAL),
            )?;
            db.define_relationship(
                RelClassDef::association(CALCULATED_NAME, "CT", "NT")
                    .origin_cardinality(Cardinality::OPTIONAL),
            )?;
        }
        Ok(Taxonomy { db })
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    // -------------------------------------------------------------
    // Creation helpers
    // -------------------------------------------------------------

    /// Record a specimen.
    pub fn create_specimen(&self, code: &str) -> DbResult<Oid> {
        self.db
            .create_object("Specimen", vec![("code".to_string(), Value::from(code))])
    }

    /// Publish a nomenclatural taxon (a name). The name element is validated
    /// against the lexical rules of §2.1.2 — violations are reported but the
    /// thesis treats historically published names as valid forever, so they
    /// do not block creation; use the ICBN rule set for enforcement.
    pub fn create_nt(&self, name: &str, rank: Rank, year: i32, author: &str) -> DbResult<Oid> {
        self.db.create_object(
            "NT",
            vec![
                ("name".to_string(), Value::from(name)),
                ("rank".to_string(), Value::from(rank.name())),
                ("year".to_string(), Value::Int(year as i64)),
                ("author".to_string(), Value::from(author)),
            ],
        )
    }

    /// Create a circumscription taxon under a working name (§2.3: CTs are
    /// deliberately nameless until derivation).
    pub fn create_ct(&self, working_name: &str, rank: Rank) -> DbResult<Oid> {
        self.db.create_object(
            "CT",
            vec![
                ("working_name".to_string(), Value::from(working_name)),
                ("rank".to_string(), Value::from(rank.name())),
            ],
        )
    }

    // -------------------------------------------------------------
    // Nomenclatural side
    // -------------------------------------------------------------

    /// Designate `target` (a specimen or a lower NT) as a type of `nt`.
    ///
    /// Enforces §2.1.2: at most one holotype, one lectotype and one neotype
    /// per name; any number of isotypes/syntypes.
    pub fn typify(&self, nt: Oid, target: Oid, kind: TypeKind) -> DbResult<Oid> {
        if kind.unique_per_name() {
            for existing in self.db.rels_from(nt, Some(HAS_TYPE))? {
                if existing.attr("kind").as_str() == Some(kind.as_str()) {
                    return Err(DbError::ConstraintViolation {
                        rule: "single-primary-type".into(),
                        reason: format!("name {nt} already has a {kind}"),
                    });
                }
            }
        }
        self.db.create_relationship(
            HAS_TYPE,
            nt,
            target,
            vec![("kind".to_string(), Value::from(kind.as_str()))],
        )
    }

    /// The type designations of a name, as `(kind, target)` pairs.
    pub fn types_of(&self, nt: Oid) -> DbResult<Vec<(TypeKind, Oid)>> {
        let mut out = Vec::new();
        for rel in self.db.rels_from(nt, Some(HAS_TYPE))? {
            if let Some(kind) = rel.attr("kind").as_str().and_then(TypeKind::from_str_opt) {
                out.push((kind, rel.destination));
            }
        }
        Ok(out)
    }

    /// The name's primary type target by ICBN priority
    /// (holotype > lectotype > neotype).
    pub fn primary_type(&self, nt: Oid) -> DbResult<Option<Oid>> {
        let mut best: Option<(u8, Oid)> = None;
        for (kind, target) in self.types_of(nt)? {
            if let Some(p) = kind.naming_priority() {
                if best.is_none_or(|(bp, _)| p < bp) {
                    best = Some((p, target));
                }
            }
        }
        Ok(best.map(|(_, t)| t))
    }

    /// Names typified (directly) by `target` — walking the type hierarchy
    /// bottom-up (§2.1.2 derivation).
    pub fn names_typified_by(&self, target: Oid) -> DbResult<Vec<Oid>> {
        Ok(self
            .db
            .rels_to(target, Some(HAS_TYPE))?
            .into_iter()
            .map(|r| r.origin)
            .collect())
    }

    /// Record a published combination: `epithet` was used inside `genus`
    /// (nomenclatural bookkeeping only, §2.1.2).
    pub fn place(&self, genus: Oid, epithet: Oid) -> DbResult<Oid> {
        self.db
            .create_relationship(PLACEMENT, genus, epithet, Vec::new())
    }

    /// The genus name an epithet NT is placed in, if any.
    pub fn placement_of(&self, epithet: Oid) -> DbResult<Option<Oid>> {
        Ok(self
            .db
            .rels_to(epithet, Some(PLACEMENT))?
            .first()
            .map(|r| r.origin))
    }

    /// Has the combination `genus name + epithet name` been published?
    pub fn combination_published(&self, genus_name: &str, epithet_name: &str) -> DbResult<bool> {
        for nt in self
            .db
            .find_by_attr("NT", "name", &Value::from(epithet_name))?
        {
            if let Some(genus) = self.placement_of(nt)? {
                if self.name_of(genus)? == genus_name {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    // -------------------------------------------------------------
    // Classification side
    // -------------------------------------------------------------

    /// Start a classification (strict hierarchy), recording author and
    /// criteria for traceability (requirement 4).
    pub fn new_classification(
        &self,
        name: &str,
        author: &str,
        criteria: &str,
    ) -> DbResult<Classification> {
        Classification::create(
            &self.db,
            name,
            vec![
                ("author".to_string(), Value::from(author)),
                ("criteria".to_string(), Value::from(criteria)),
            ],
            true,
        )
    }

    /// Circumscribe: place `child` (CT or specimen) inside `parent` within
    /// `cls`, validating the rank order when both ends are CTs (the ICBN
    /// rank rule of §2.1.1).
    pub fn circumscribe(&self, cls: &Classification, parent: Oid, child: Oid) -> DbResult<Oid> {
        let parent_rank = self.rank_of(parent)?;
        let child_rank = if self.is_specimen(child) {
            None
        } else {
            self.rank_of(child)?
        };
        if let (Some(pr), Some(cr)) = (parent_rank, child_rank) {
            if !cr.may_be_placed_below(pr) {
                return Err(DbError::ConstraintViolation {
                    rule: "rank-order".into(),
                    reason: format!("{cr} may not be placed below {pr}"),
                });
            }
        }
        cls.link(&self.db, CIRCUMSCRIBES, parent, child, Vec::new())
    }

    /// The circumscription of a CT in `cls`: its leaf set, which for a fully
    /// specimen-based classification is its set of specimens (§2.1.3).
    pub fn circumscription(
        &self,
        cls: &Classification,
        ct: Oid,
    ) -> DbResult<std::collections::BTreeSet<Oid>> {
        cls.leaf_set(&self.db, ct)
    }

    /// Attach an ascribed (historically published) name to a CT.
    pub fn ascribe_name(&self, ct: Oid, nt: Oid) -> DbResult<Oid> {
        self.db
            .create_relationship(ASCRIBED_NAME, ct, nt, Vec::new())
    }

    /// Attach a calculated name (the derivation algorithm's output).
    pub fn set_calculated_name(&self, ct: Oid, nt: Oid) -> DbResult<Oid> {
        for existing in self.db.rels_from(ct, Some(CALCULATED_NAME))? {
            self.db.delete_relationship(existing.oid)?;
        }
        self.db
            .create_relationship(CALCULATED_NAME, ct, nt, Vec::new())
    }

    /// The calculated name of a CT, if derivation ran.
    pub fn calculated_name(&self, ct: Oid) -> DbResult<Option<Oid>> {
        Ok(self
            .db
            .rels_from(ct, Some(CALCULATED_NAME))?
            .first()
            .map(|r| r.destination))
    }

    /// The ascribed name of a CT, if any.
    pub fn ascribed_name(&self, ct: Oid) -> DbResult<Option<Oid>> {
        Ok(self
            .db
            .rels_from(ct, Some(ASCRIBED_NAME))?
            .first()
            .map(|r| r.destination))
    }

    // -------------------------------------------------------------
    // Attribute accessors
    // -------------------------------------------------------------

    /// `name` of an NT / `working_name` of a CT / `code` of a specimen.
    pub fn name_of(&self, oid: Oid) -> DbResult<String> {
        let obj = self.db.object(oid)?;
        let attr = match obj.class.as_str() {
            "NT" => "name",
            "CT" => "working_name",
            "Specimen" => "code",
            other => {
                return Err(DbError::Query(format!(
                    "no name attribute for class {other}"
                )))
            }
        };
        Ok(obj.attr(attr).as_str().unwrap_or_default().to_string())
    }

    /// The rank of an NT or CT (`None` for specimens).
    pub fn rank_of(&self, oid: Oid) -> DbResult<Option<Rank>> {
        let obj = self.db.object(oid)?;
        Ok(obj.attr("rank").as_str().and_then(Rank::from_name))
    }

    /// Publication year of an NT.
    pub fn year_of(&self, nt: Oid) -> DbResult<Option<i32>> {
        Ok(self.db.object(nt)?.attr("year").as_int().map(|y| y as i32))
    }

    /// Render an NT's full name with author citation, using its placement
    /// for the binomial part.
    pub fn full_name(&self, nt: Oid) -> DbResult<String> {
        let obj = self.db.object(nt)?;
        let element = obj.attr("name").as_str().unwrap_or_default().to_string();
        let author = obj.attr("author").as_str().unwrap_or_default().to_string();
        let rank = obj
            .attr("rank")
            .as_str()
            .and_then(Rank::from_name)
            .unwrap_or(Rank::Genus);
        let genus = if rank.is_multinomial() {
            match self.placement_of(nt)? {
                Some(g) => Some(self.name_of(g)?),
                None => None,
            }
        } else {
            None
        };
        // Recombinations store the citation in `author` directly (e.g.
        // "(Jacq.)Lag."), so no further bracketing here.
        Ok(nomenclature::full_name(
            rank,
            &element,
            genus.as_deref(),
            &author,
            None,
        ))
    }

    /// Whether an object is a specimen.
    pub fn is_specimen(&self, oid: Oid) -> bool {
        self.db
            .class_of(oid)
            .map(|c| c == "Specimen")
            .unwrap_or(false)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use prometheus_object::{shard_routing, ShardedStore, StoreOptions};

    pub(crate) fn fresh() -> Taxonomy {
        let path = std::env::temp_dir().join(format!(
            "taxonomy-model-{}-{:?}-{}.log",
            std::process::id(),
            std::thread::current().id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let _ = std::fs::remove_file(&path);
        let store = Arc::new(
            ShardedStore::open_with(
                &path,
                StoreOptions {
                    sync_on_commit: false,
                },
                1,
                shard_routing(),
            )
            .unwrap(),
        );
        let db = Arc::new(Database::open_sharded(store).unwrap());
        Taxonomy::install(db).unwrap()
    }

    #[test]
    fn install_is_idempotent() {
        let tax = fresh();
        Taxonomy::install(tax.db().clone()).unwrap();
        assert!(tax
            .db()
            .with_schema(|s| s.rel_class(CIRCUMSCRIBES).is_some()));
    }

    #[test]
    fn specimen_nt_ct_creation_and_accessors() {
        let tax = fresh();
        let s = tax.create_specimen("Herb.Cliff.107").unwrap();
        let nt = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
        let ct = tax.create_ct("Taxon 1", Rank::Genus).unwrap();
        assert_eq!(tax.name_of(s).unwrap(), "Herb.Cliff.107");
        assert_eq!(tax.name_of(nt).unwrap(), "Apium");
        assert_eq!(tax.name_of(ct).unwrap(), "Taxon 1");
        assert_eq!(tax.rank_of(nt).unwrap(), Some(Rank::Genus));
        assert_eq!(tax.rank_of(s).unwrap(), None);
        assert_eq!(tax.year_of(nt).unwrap(), Some(1753));
        assert!(tax.is_specimen(s));
        assert!(!tax.is_specimen(nt));
    }

    #[test]
    fn typification_rules() {
        let tax = fresh();
        let nt = tax
            .create_nt("graveolens", Rank::Species, 1753, "L.")
            .unwrap();
        let s1 = tax.create_specimen("S1").unwrap();
        let s2 = tax.create_specimen("S2").unwrap();
        tax.typify(nt, s1, TypeKind::Lectotype).unwrap();
        // A second lectotype is illegal…
        assert!(tax.typify(nt, s2, TypeKind::Lectotype).is_err());
        // …but isotypes are unlimited.
        tax.typify(nt, s2, TypeKind::Isotype).unwrap();
        tax.typify(nt, s1, TypeKind::Isotype).unwrap();
        let kinds: Vec<TypeKind> = tax
            .types_of(nt)
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k == TypeKind::Isotype).count(), 2);
    }

    #[test]
    fn primary_type_priority() {
        let tax = fresh();
        let nt = tax.create_nt("x", Rank::Species, 1800, "A.").unwrap();
        let lecto = tax.create_specimen("L").unwrap();
        let holo = tax.create_specimen("H").unwrap();
        tax.typify(nt, lecto, TypeKind::Lectotype).unwrap();
        assert_eq!(tax.primary_type(nt).unwrap(), Some(lecto));
        tax.typify(nt, holo, TypeKind::Holotype).unwrap();
        assert_eq!(
            tax.primary_type(nt).unwrap(),
            Some(holo),
            "holotype outranks lectotype"
        );
        assert_eq!(tax.names_typified_by(holo).unwrap(), vec![nt]);
    }

    #[test]
    fn placement_and_combinations() {
        let tax = fresh();
        let apium = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
        let graveolens = tax
            .create_nt("graveolens", Rank::Species, 1753, "L.")
            .unwrap();
        tax.place(apium, graveolens).unwrap();
        assert_eq!(tax.placement_of(graveolens).unwrap(), Some(apium));
        assert!(tax.combination_published("Apium", "graveolens").unwrap());
        assert!(!tax
            .combination_published("Heliosciadium", "graveolens")
            .unwrap());
        assert_eq!(tax.full_name(graveolens).unwrap(), "Apium graveolens L.");
        assert_eq!(tax.full_name(apium).unwrap(), "Apium L.");
    }

    #[test]
    fn circumscribe_validates_rank_order() {
        let tax = fresh();
        let cls = tax.new_classification("test", "me", "shape").unwrap();
        let genus = tax.create_ct("G", Rank::Genus).unwrap();
        let species = tax.create_ct("s", Rank::Species).unwrap();
        let spec = tax.create_specimen("S1").unwrap();
        tax.circumscribe(&cls, genus, species).unwrap();
        tax.circumscribe(&cls, species, spec).unwrap();
        // Species above Genus is rejected.
        let genus2 = tax.create_ct("G2", Rank::Genus).unwrap();
        let err = tax.circumscribe(&cls, species, genus2).unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
        // Circumscription = leaf set.
        let circ = tax.circumscription(&cls, genus).unwrap();
        assert_eq!(circ.into_iter().collect::<Vec<_>>(), vec![spec]);
    }

    #[test]
    fn names_attach_to_cts() {
        let tax = fresh();
        let ct = tax.create_ct("Taxon 1", Rank::Genus).unwrap();
        let nt1 = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
        let nt2 = tax
            .create_nt("Heliosciadium", Rank::Genus, 1824, "Koch")
            .unwrap();
        tax.ascribe_name(ct, nt1).unwrap();
        assert_eq!(tax.ascribed_name(ct).unwrap(), Some(nt1));
        tax.set_calculated_name(ct, nt1).unwrap();
        assert_eq!(tax.calculated_name(ct).unwrap(), Some(nt1));
        // Re-deriving replaces the calculated name.
        tax.set_calculated_name(ct, nt2).unwrap();
        assert_eq!(tax.calculated_name(ct).unwrap(), Some(nt2));
    }
}
