//! The ICBN rule set of the evaluation chapter (§7.1.3.2, Figures 35–40),
//! expressed as Prometheus rules: every one is an engine rule, listed,
//! enabled, disabled and persisted the same way — as an entry of the
//! database's rules record, so it outlives the handle that installed it.
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
//! Relationship rules (§7.1.3.2.2), over the rank lattice stated once as
//! data — [`Rank::ALL`], read through POOL's `index_of`:
//!
//! * **species-rank rule** (Figure 38) and **series-rank rule** (Figure 39)
//!   — a taxon may only be circumscribed below a taxon of strictly higher
//!   rank; the thesis states these per rank, we install the general form;
//! * **placement rule** (Figure 40) — a `Placement` must attach a
//!   Species-or-below epithet to a name of higher rank.

use crate::model::{Taxonomy, CIRCUMSCRIBES, PLACEMENT};
use crate::nomenclature::FAMILY_EXCEPTIONS;
use crate::rank::Rank;
use prometheus_object::DbResult;
use prometheus_rules::{Rule, RuleEngine};

/// Install the ICBN rules in the rules record of `tax`'s database, which
/// holds the taxonomic schema they name, and return the names of all six.
/// A rule already stored under one of those names is left exactly as
/// stored — one the user disabled stays disabled — and the missing ones are
/// added in one unit, so installing on a reopened database is a no-op.
pub fn install(tax: &Taxonomy, engine: &RuleEngine) -> DbResult<Vec<String>> {
    let exceptions = FAMILY_EXCEPTIONS
        .iter()
        .map(|e| format!("self.name = \"{e}\""))
        .collect::<Vec<_>>()
        .join(" or ");
    // Figures 38–40: a rank's place in the global order is its index in
    // `Rank::ALL`, highest first; a rank outside the list is not known, and
    // an end whose rank is not known satisfies the rule. Every `x.rank`
    // reads `x` again, so the comparison comes first: a valid link reads
    // each end once.
    let ranks = |listed: fn(Rank) -> bool| {
        Rank::ALL
            .map(|r| {
                if listed(r) {
                    format!("\"{r}\"")
                } else {
                    "null".into()
                }
            })
            .join(", ")
    };
    let origin = format!("index_of(origin.rank, {})", ranks(|_| true));
    let destination = format!("index_of(destination.rank, {})", ranks(|_| true));
    // An epithet's place, found only at Species or below: the higher ranks
    // are listed as `null`, which `index_of` never finds.
    let epithet = format!(
        "index_of(destination.rank, {})",
        ranks(Rank::is_multinomial)
    );
    let unranked = format!("{origin} = null or {destination} = null");

    let rules = vec![
        // Figure 35: family name rule.
        Rule::invariant(
            "icbn-family-ending",
            "NT",
            &format!("ends_with(self.name, \"aceae\") or {exceptions}"),
            "family names must end in -aceae",
        )
        .applicable_when("self.rank = \"Familia\"")
        .immediate(),
        // Figure 36: genus name rule (capitalised); plus the species-epithet
        // lowercase counterpart from §2.1.2.
        Rule::invariant(
            "icbn-genus-capitalised",
            "NT",
            "capitalized(self.name)",
            "genus names must start with a capital letter",
        )
        .applicable_when("self.rank = \"Genus\"")
        .immediate(),
        Rule::invariant(
            "icbn-species-lowercase",
            "NT",
            "not capitalized(self.name)",
            "species epithets must start with a lowercase letter",
        )
        .applicable_when("self.rank = \"Species\"")
        .immediate(),
        // Figure 37: type existence rule — deferred, because a unit of work
        // may create the name first and typify it a few operations later.
        Rule::invariant(
            "icbn-type-existence",
            "NT",
            "count(self ->> HasType) >= 1",
            "a validly published name must have a taxonomic type",
        ),
        // Figures 38/39 (generalised): the destination's rank must be
        // strictly below the origin's. A specimen has no rank to compare.
        Rule::on_link(
            "icbn-rank-order",
            CIRCUMSCRIBES,
            &format!("{origin} < {destination} or {unranked}"),
            "a taxon may only be circumscribed below a taxon of strictly higher rank",
        )
        .applicable_when("class(destination) != \"Specimen\""),
        // Figure 40: a placement attaches an epithet (Species or below) to
        // a name of higher rank.
        Rule::on_link(
            "icbn-placement",
            PLACEMENT,
            &format!("{origin} < {epithet} or {unranked}"),
            "placement must attach a Species-or-below epithet to a higher name",
        ),
    ];
    tax.db().in_unit_scope(|db| {
        let stored: Vec<String> = engine.rules(db)?.into_iter().map(|r| r.name).collect();
        for rule in rules.iter().filter(|r| !stored.contains(&r.name)) {
            engine.add_rule(db, rule.clone())?;
        }
        Ok(rules.into_iter().map(|r| r.name).collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::fresh;
    use crate::typification::TypeKind;
    use prometheus_object::{DbError, Oid};
    use std::sync::Arc;

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

    fn violated_rule(err: DbError) -> String {
        match err {
            DbError::ConstraintViolation { rule, .. } => rule,
            other => panic!("expected a constraint violation, got {other}"),
        }
    }

    #[test]
    fn rank_rules_are_engine_rules_that_can_be_disabled() {
        let (tax, engine) = with_rules();
        let names: Vec<String> = engine
            .rules(tax.db())
            .unwrap()
            .into_iter()
            .map(|r| r.name)
            .collect();
        assert!(names.iter().any(|n| n == "icbn-rank-order"), "{names:?}");
        assert!(names.iter().any(|n| n == "icbn-placement"), "{names:?}");
        let db = tax.db().clone();
        let genus = tax.create_ct("G", Rank::Genus).unwrap();
        let first = tax.create_ct("s", Rank::Species).unwrap();
        let second = tax.create_ct("t", Rank::Species).unwrap();
        // Disabled, an inverted circumscription goes through...
        assert!(engine.set_enabled(&db, "icbn-rank-order", false).unwrap());
        db.create_relationship(CIRCUMSCRIBES, first, genus, Vec::new())
            .unwrap();
        // ...and enabled again, the rule rejects the next one.
        assert!(engine.set_enabled(&db, "icbn-rank-order", true).unwrap());
        let err = db
            .create_relationship(CIRCUMSCRIBES, second, genus, Vec::new())
            .unwrap_err();
        assert_eq!(violated_rule(err), "icbn-rank-order");
    }

    #[test]
    fn circumscribing_an_object_without_a_rank_is_accepted() {
        let (tax, _) = with_rules();
        let db = tax.db().clone();
        db.define_class(prometheus_object::ClassDef::new("Herbarium").attr(
            prometheus_object::AttrDef::required("code", prometheus_object::Type::Str),
        ))
        .unwrap();
        let herbarium = db
            .create_object("Herbarium", vec![("code".to_string(), "E".into())])
            .unwrap();
        let genus = tax.create_ct("G", Rank::Genus).unwrap();
        db.create_relationship(CIRCUMSCRIBES, genus, herbarium, Vec::new())
            .unwrap();
    }

    /// The rank rules against the lattice they state, on every pair of
    /// ranks plus a rank that is not one (`None`): a circumscription holds
    /// iff the destination may be placed below the origin, a placement iff
    /// it attaches a multinomial epithet to a higher name, and either holds
    /// when a rank is not known.
    #[test]
    fn rank_rules_match_the_rank_lattice_on_every_pair() {
        let (tax, engine) = with_rules();
        let db = tax.db().clone();
        // Names are created raw, so only the rank rules are under test.
        for name in [
            "icbn-family-ending",
            "icbn-genus-capitalised",
            "icbn-species-lowercase",
            "icbn-type-existence",
        ] {
            assert!(engine.set_enabled(&db, name, false).unwrap());
        }
        let ranks: Vec<Option<Rank>> = std::iter::once(None).chain(Rank::ALL.map(Some)).collect();
        let create = |class: &str, name: &str, rank: Option<Rank>| {
            let rank = rank.map_or("Nothus", Rank::name);
            db.create_object(
                class,
                vec![
                    (name.to_string(), "x".into()),
                    ("rank".to_string(), rank.into()),
                ],
            )
            .unwrap()
        };
        // One origin and one destination per rank, so no link is a loop.
        let ends = |class: &str, name: &str| -> Vec<(Oid, Oid)> {
            ranks
                .iter()
                .map(|&r| (create(class, name, r), create(class, name, r)))
                .collect()
        };
        let (cts, nts) = (ends("CT", "working_name"), ends("NT", "name"));
        for (i, &above) in ranks.iter().enumerate() {
            for (j, &below) in ranks.iter().enumerate() {
                let cases = [
                    (
                        CIRCUMSCRIBES,
                        cts[i].0,
                        cts[j].1,
                        "icbn-rank-order",
                        above
                            .zip(below)
                            .is_none_or(|(a, b)| b.may_be_placed_below(a)),
                    ),
                    (
                        PLACEMENT,
                        nts[i].0,
                        nts[j].1,
                        "icbn-placement",
                        above
                            .zip(below)
                            .is_none_or(|(g, e)| e.is_multinomial() && g < e),
                    ),
                ];
                for (class, origin, destination, rule, holds) in cases {
                    match db.create_relationship(class, origin, destination, Vec::new()) {
                        Ok(rel) => {
                            assert!(holds, "{class} {above:?} -> {below:?} was accepted");
                            db.delete_relationship(rel).unwrap();
                        }
                        Err(err) => {
                            assert!(!holds, "{class} {above:?} -> {below:?}: {err}");
                            assert_eq!(violated_rule(err), rule);
                        }
                    }
                }
            }
        }
    }
}
