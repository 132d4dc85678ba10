//! The ICBN rule set of the evaluation chapter (§7.1.3.2, Figures 35–40),
//! expressed as Prometheus rules.
//!
//! Object rules (§7.1.3.2.1):
//!
//! * **family-name rule** (Figure 35) — Familia-rank names end in `-aceae`,
//!   modulo the eight traditional exceptions;
//! * **genus-name rule** (Figure 36) — Genus-rank names are capitalised
//!   (and species epithets are not);
//! * **type-existence rule** (Figure 37) — every validly published name
//!   carries at least one type designation (deferred: typification may
//!   legitimately follow creation inside the same unit of work);
//!
//! Relationship rules (§7.1.3.2.2):
//!
//! * **species-rank rule** (Figure 38) and **series-rank rule** (Figure 39)
//!   — a taxon may only be circumscribed below a taxon of strictly higher
//!   rank; the thesis states these per-rank, we install the general form as
//!   a native relationship rule (the rank lattice is not expressible in a
//!   POOL string);
//! * **placement rule** (Figure 40) — a `Placement` must attach an epithet
//!   to a Genus-or-higher name.

use crate::model::{is_specimen, rank_of, Taxonomy, CIRCUMSCRIBES, PLACEMENT};
use crate::nomenclature::FAMILY_EXCEPTIONS;
use prometheus_object::{Database, DbError, DbResult, Event, EventListener};
use prometheus_rules::{Rule, RuleEngine};
use std::sync::Arc;

/// Install the POOL-expressible ICBN rules on `engine` and the native rank
/// rules on the database. Returns the names of the installed rules.
pub fn install(tax: &Taxonomy, engine: &RuleEngine) -> DbResult<Vec<String>> {
    let mut names = Vec::new();

    // Figure 35: family name rule.
    let exceptions = FAMILY_EXCEPTIONS
        .iter()
        .map(|e| format!("self.name = \"{e}\""))
        .collect::<Vec<_>>()
        .join(" or ");
    let rule = Rule::invariant(
        "icbn-family-ending",
        "NT",
        &format!("ends_with(self.name, \"aceae\") or {exceptions}"),
        "family names must end in -aceae",
    )
    .applicable_when("self.rank = \"Familia\"")
    .immediate();
    engine.add_rule(rule)?;
    names.push("icbn-family-ending".into());

    // Figure 36: genus name rule (capitalised); plus the species-epithet
    // lowercase counterpart from §2.1.2.
    engine.add_rule(
        Rule::invariant(
            "icbn-genus-capitalised",
            "NT",
            "capitalized(self.name)",
            "genus names must start with a capital letter",
        )
        .applicable_when("self.rank = \"Genus\"")
        .immediate(),
    )?;
    names.push("icbn-genus-capitalised".into());
    engine.add_rule(
        Rule::invariant(
            "icbn-species-lowercase",
            "NT",
            "not capitalized(self.name)",
            "species epithets must start with a lowercase letter",
        )
        .applicable_when("self.rank = \"Species\"")
        .immediate(),
    )?;
    names.push("icbn-species-lowercase".into());

    // Figure 37: type existence rule — deferred, because a unit of work may
    // create the name first and typify it a few operations later.
    engine.add_rule(Rule::invariant(
        "icbn-type-existence",
        "NT",
        "count(self ->> HasType) >= 1",
        "a validly published name must have a taxonomic type",
    ))?;
    names.push("icbn-type-existence".into());

    // Figures 38–40: native rank-lattice rules.
    tax.db().add_listener(Arc::new(RankRules));
    names.push("icbn-rank-order (native)".into());
    names.push("icbn-placement (native)".into());
    Ok(names)
}

/// Native relationship rules over the rank lattice (Figures 38–40). Holds
/// no database handle — it reads through the one each event arrives with —
/// so installing it does not keep the database it listens on alive.
struct RankRules;

impl EventListener for RankRules {
    fn after(&self, db: &Database, event: &Event) -> DbResult<()> {
        let Event::RelCreated {
            class,
            origin,
            destination,
            ..
        } = event
        else {
            return Ok(());
        };
        match class.as_str() {
            // Figures 38/39 (generalised): the destination's rank must be
            // strictly below the origin's.
            CIRCUMSCRIBES => {
                if is_specimen(db, *destination) {
                    return Ok(());
                }
                let (Some(above), Some(below)) =
                    (rank_of(db, *origin)?, rank_of(db, *destination)?)
                else {
                    return Ok(());
                };
                if !below.may_be_placed_below(above) {
                    return Err(DbError::ConstraintViolation {
                        rule: "icbn-rank-order".into(),
                        reason: format!("{below} may not be placed below {above}"),
                    });
                }
                Ok(())
            }
            // Figure 40: a placement attaches an epithet (Species or below)
            // to a name at Genus rank or above-Species.
            PLACEMENT => {
                let (Some(genus), Some(epithet)) =
                    (rank_of(db, *origin)?, rank_of(db, *destination)?)
                else {
                    return Ok(());
                };
                if !epithet.is_multinomial() || genus >= epithet {
                    return Err(DbError::ConstraintViolation {
                        rule: "icbn-placement".into(),
                        reason: format!(
                            "placement must attach a Species-or-below epithet to a higher name \
                             (got {epithet} under {genus})"
                        ),
                    });
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::fresh;
    use crate::rank::Rank;
    use crate::typification::TypeKind;

    fn with_rules() -> (Taxonomy, Arc<RuleEngine>) {
        let tax = fresh();
        let engine = RuleEngine::install(tax.db()).unwrap();
        install(&tax, &engine).unwrap();
        (tax, engine)
    }

    #[test]
    fn family_ending_enforced_with_exceptions() {
        let (tax, _) = with_rules();
        assert!(tax.create_nt("Apium", Rank::Familia, 1753, "L.").is_err());
        // Valid ending passes (type rule is deferred but the implicit unit
        // will also run it — so typify inside a unit).
        let db = tax.db().clone();
        let token = db.begin_unit();
        let nt = tax
            .create_nt("Apiaceae", Rank::Familia, 1789, "Lindl.")
            .unwrap();
        let s = tax.create_specimen("S").unwrap();
        tax.typify(nt, s, TypeKind::Lectotype).unwrap();
        db.commit_unit(token).unwrap();
        // Exception family.
        let token = db.begin_unit();
        let nt = tax
            .create_nt("Umbelliferae", Rank::Familia, 1753, "Juss.")
            .unwrap();
        tax.typify(nt, s, TypeKind::Lectotype).unwrap();
        db.commit_unit(token).unwrap();
    }

    #[test]
    fn capitalisation_rules() {
        let (tax, _) = with_rules();
        assert!(tax.create_nt("apium", Rank::Genus, 1753, "L.").is_err());
        assert!(tax
            .create_nt("Graveolens", Rank::Species, 1753, "L.")
            .is_err());
    }

    #[test]
    fn type_existence_is_deferred_to_commit() {
        let (tax, _) = with_rules();
        // Standalone creation without a type fails at the implicit commit.
        assert!(tax.create_nt("Apium", Rank::Genus, 1753, "L.").is_err());
        // Inside a unit: create, then typify, then commit — passes.
        let db = tax.db().clone();
        let token = db.begin_unit();
        let nt = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
        let s = tax.create_specimen("Herb.Cliff.107").unwrap();
        tax.typify(nt, s, TypeKind::Lectotype).unwrap();
        db.commit_unit(token).unwrap();
        assert!(db.exists(nt));
    }

    #[test]
    fn rank_order_rule_fires_on_raw_relationship_creation() {
        let (tax, _) = with_rules();
        let db = tax.db().clone();
        let genus = tax.create_ct("G", Rank::Genus).unwrap();
        let species = tax.create_ct("s", Rank::Species).unwrap();
        // Bypassing the facade: create the relationship directly. The native
        // rule still rejects the inverted order.
        let err = db
            .create_relationship(CIRCUMSCRIBES, species, genus, Vec::new())
            .unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
        assert!(db
            .create_relationship(CIRCUMSCRIBES, genus, species, Vec::new())
            .is_ok());
    }

    #[test]
    fn placement_rule() {
        let (tax, _) = with_rules();
        let db = tax.db().clone();
        // Build two valid names inside units (type rule).
        let token = db.begin_unit();
        let genus = tax.create_nt("Apium", Rank::Genus, 1753, "L.").unwrap();
        let species = tax
            .create_nt("graveolens", Rank::Species, 1753, "L.")
            .unwrap();
        let s = tax.create_specimen("S1").unwrap();
        tax.typify(species, s, TypeKind::Lectotype).unwrap();
        tax.typify(genus, species, TypeKind::Holotype).unwrap();
        db.commit_unit(token).unwrap();
        // Epithet under genus: fine.
        tax.place(genus, species).unwrap();
        // A genus name used as the epithet of a placement: rejected by the
        // placement rule (built with a second, unrelated genus so that the
        // acyclicity check does not trigger first).
        let token = db.begin_unit();
        let genus2 = tax.create_nt("Sium", Rank::Genus, 1753, "L.").unwrap();
        tax.typify(genus2, s, TypeKind::Lectotype).unwrap();
        db.commit_unit(token).unwrap();
        let err = tax.place(species, genus2).unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
    }
}
