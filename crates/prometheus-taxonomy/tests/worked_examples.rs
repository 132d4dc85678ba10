//! The thesis' worked examples, end to end: Figure 3 (name derivation),
//! Figure 4 (multiple overlapping classifications and synonym detection)
//! and the §7.1.4 what-if scenarios.

use prometheus_object::{shard_routing, Database, ShardedStore, StoreOptions, SynonymMode};
use prometheus_taxonomy::dataset::{figure3, figure4, random_flora, FloraParams};
use prometheus_taxonomy::derivation::derive_names;
use prometheus_taxonomy::revision::{Revision, WhatIf};
use prometheus_taxonomy::synonymy::{detect_synonyms, taxon_type, SynonymKind};
use prometheus_taxonomy::{Rank, SynonymKind as SK, Taxonomy};
use std::sync::Arc;

fn fresh() -> Taxonomy {
    let path = std::env::temp_dir().join(format!(
        "taxo-worked-{}-{:?}-{}.log",
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
    Taxonomy::install(Arc::new(Database::open_sharded(store).unwrap())).unwrap()
}

#[test]
fn figure3_derivation_produces_heliosciadium_repens() {
    let tax = fresh();
    let fig = figure3(&tax).unwrap();
    let outcome = derive_names(&tax, &fig.cls, "Raguenaud.", 2000).unwrap();

    // Taxon 1 (Genus): only Heliosciadium is reachable at Genus rank through
    // the type hierarchy (Apium's type, graveolens, is not in the
    // circumscription), so Taxon 1 becomes Heliosciadium W.D.J.Koch.
    let t1 = outcome.for_ct(fig.taxon1).expect("taxon 1 derived");
    assert_eq!(t1.nt, fig.nt_heliosciadium);
    assert!(!t1.is_new);
    assert_eq!(t1.rendered, "Heliosciadium W.D.J.Koch");

    // Taxon 2 (Species): candidates are repens (1821) and nodiflorum (1824);
    // repens is older and wins. But "Heliosciadium repens" was never
    // published, so a new combination is published with the basionym author
    // bracketed — exactly Figure 3's result.
    let t2 = outcome.for_ct(fig.taxon2).expect("taxon 2 derived");
    assert!(t2.is_new && t2.new_combination);
    assert_eq!(t2.rendered, "Heliosciadium repens (Jacq.)Raguenaud.");

    // The calculated names are attached to the CTs.
    assert_eq!(
        tax.calculated_name(fig.taxon1).unwrap(),
        Some(fig.nt_heliosciadium)
    );
    assert_eq!(tax.calculated_name(fig.taxon2).unwrap(), Some(t2.nt));
    // The new combination is placed in Heliosciadium and typified by the
    // old repens type.
    assert_eq!(tax.placement_of(t2.nt).unwrap(), Some(fig.nt_heliosciadium));
    let types = tax.types_of(t2.nt).unwrap();
    assert_eq!(types.len(), 1);
    assert_eq!(types[0].1, fig.spec_repens_type);
}

#[test]
fn figure3_rederivation_reuses_published_combination() {
    let tax = fresh();
    let fig = figure3(&tax).unwrap();
    let first = derive_names(&tax, &fig.cls, "Raguenaud.", 2000).unwrap();
    let new_nt = first.for_ct(fig.taxon2).unwrap().nt;
    // Run derivation again: the combination now exists, so nothing new is
    // published and the same NT is reused.
    let second = derive_names(&tax, &fig.cls, "Raguenaud.", 2001).unwrap();
    let t2 = second.for_ct(fig.taxon2).unwrap();
    assert!(!t2.is_new, "second run must not publish a duplicate");
    assert_eq!(t2.nt, new_nt);
}

#[test]
fn figure4_overlap_and_synonyms() {
    let tax = fresh();
    let fig = figure4(&tax).unwrap();
    let db = tax.db();

    // All four classifications share specimen objects.
    let t1_nodes = fig.taxonomist1.nodes(db).unwrap();
    let t3_nodes = fig.taxonomist3.nodes(db).unwrap();
    let white_square = fig
        .specimens
        .iter()
        .find(|(n, _)| n == "white-square")
        .unwrap()
        .1;
    assert!(t1_nodes.contains(&white_square) && t3_nodes.contains(&white_square));

    // Publish a name typified by the white square so the groups have a
    // taxonomic type (Figure 4: "The Squares group is typified by the white
    // square").
    {
        let db = tax.db().clone();
        let token = db.begin_unit();
        let nt = tax
            .create_nt("squarea", Rank::Species, 1753, "T1.")
            .unwrap();
        tax.typify(nt, white_square, prometheus_taxonomy::TypeKind::Holotype)
            .unwrap();
        db.commit_unit(token).unwrap();
    }

    // Synonym detection between taxonomist 1 and taxonomist 2: the Squares
    // group appears in both with the same single specimen — a full synonym.
    let reports = detect_synonyms(
        &tax,
        &fig.taxonomist1,
        &fig.taxonomist2,
        SynonymMode::Ignore,
    )
    .unwrap();
    let squares_report = reports
        .iter()
        .find(|r| {
            tax.name_of(r.taxon_a).unwrap() == "Squares"
                && tax.name_of(r.taxon_b).unwrap() == "Squares-2"
        })
        .expect("Squares/Squares-2 synonym found");
    assert_eq!(squares_report.kind, SynonymKind::Full);
    assert!(
        squares_report.homotypic,
        "both typified by the white square"
    );

    // Between taxonomist 2's Circles (dark-circle + white-circle) and
    // taxonomist 3's Dark (black-oval, dark-triangle, dark-circle):
    // pro-parte overlap (shared: dark-circle).
    let reports = detect_synonyms(
        &tax,
        &fig.taxonomist2,
        &fig.taxonomist3,
        SynonymMode::Ignore,
    )
    .unwrap();
    let pro_parte = reports
        .iter()
        .find(|r| {
            tax.name_of(r.taxon_a).unwrap() == "Circles"
                && tax.name_of(r.taxon_b).unwrap() == "Dark"
        })
        .expect("Circles/Dark overlap");
    assert_eq!(pro_parte.kind, SK::ProParte);
    assert_eq!(pro_parte.shared, 1);

    // Requirement 3 in action: the same specimen sits under different
    // parents in different classifications, with no interference.
    let parents1 = fig.taxonomist1.parents(db, white_square).unwrap();
    let parents3 = fig.taxonomist3.parents(db, white_square).unwrap();
    assert_eq!(parents1.len(), 1);
    assert_eq!(parents3.len(), 1);
    assert_ne!(parents1[0], parents3[0]);
}

#[test]
fn figure4_taxon_types_follow_oldest_published_type() {
    let tax = fresh();
    let fig = figure4(&tax).unwrap();
    // Publish names so the shapes have types: white-square is the oldest.
    let db = tax.db().clone();
    let token = db.begin_unit();
    let ws = fig
        .specimens
        .iter()
        .find(|(n, _)| n == "white-square")
        .unwrap()
        .1;
    let bo = fig
        .specimens
        .iter()
        .find(|(n, _)| n == "black-oval")
        .unwrap()
        .1;
    let nt_squares = tax
        .create_nt("squarea", Rank::Species, 1753, "T1.")
        .unwrap();
    let nt_ovals = tax.create_nt("ovalea", Rank::Species, 1790, "T1.").unwrap();
    tax.typify(nt_squares, ws, prometheus_taxonomy::TypeKind::Holotype)
        .unwrap();
    tax.typify(nt_ovals, bo, prometheus_taxonomy::TypeKind::Holotype)
        .unwrap();
    db.commit_unit(token).unwrap();

    // The type of taxonomist 1's whole Shapes group is the white square
    // (oldest published type below it) — Figure 4's "the group called
    // Squares is the type of all the shapes".
    let shapes_root = fig.taxonomist1.roots(&db).unwrap()[0];
    assert_eq!(
        taxon_type(&tax, &fig.taxonomist1, shapes_root).unwrap(),
        Some(ws)
    );
}

#[test]
fn revision_what_if_keep_and_discard() {
    let tax = fresh();
    let flora = random_flora(&tax, &FloraParams::default(), 7).unwrap();
    let revision = Revision::start(&tax, &flora.classification, "rev-A").unwrap();
    assert_eq!(
        revision.shared_edge_count(&tax).unwrap(),
        0,
        "copies share no edges"
    );
    let db = tax.db();
    let species = flora.species[0];
    let old_parent = revision.working.parents(db, species).unwrap()[0];
    let new_parent = *flora
        .genera
        .iter()
        .find(|g| **g != old_parent)
        .expect("another genus exists");

    // Discarded scenario leaves the working classification untouched.
    let (decision, _) = revision
        .what_if(&tax, |tax, working| {
            let db = tax.db();
            for edge in db.classification_parent_edges(working.oid(), species)? {
                working.remove_edge(db, edge.oid)?;
            }
            tax.circumscribe(working, new_parent, species)?;
            assert_eq!(working.parents(db, species)?, vec![new_parent]);
            Ok((WhatIf::Discard, ()))
        })
        .unwrap();
    assert_eq!(decision, WhatIf::Discard);
    assert_eq!(
        revision.working.parents(db, species).unwrap(),
        vec![old_parent]
    );

    // Kept scenario persists.
    revision.move_taxon(&tax, species, new_parent).unwrap();
    assert_eq!(
        revision.working.parents(db, species).unwrap(),
        vec![new_parent]
    );
    // The base classification never moved.
    assert_eq!(
        revision.base.parents(db, species).unwrap(),
        vec![old_parent]
    );
}

#[test]
fn revision_merge_and_split() {
    let tax = fresh();
    let flora = random_flora(
        &tax,
        &FloraParams {
            families: 1,
            genera_per_family: 2,
            species_per_genus: 3,
            ..Default::default()
        },
        11,
    )
    .unwrap();
    let db = tax.db();
    let revision = Revision::start(&tax, &flora.classification, "rev-B").unwrap();
    let [g1, g2] = [flora.genera[0], flora.genera[1]];

    // Merge genus 2 into genus 1: all its species move.
    let before = revision.working.children(db, g1).unwrap().len();
    let moved = revision.working.children(db, g2).unwrap().len();
    revision.merge_taxa(&tax, g1, g2).unwrap();
    assert_eq!(
        revision.working.children(db, g1).unwrap().len(),
        before + moved
    );
    assert!(revision.working.children(db, g2).unwrap().is_empty());
    assert!(revision.working.parents(db, g2).unwrap().is_empty());

    // Split genus 1: move two species into a new CT.
    let children = revision.working.children(db, g1).unwrap();
    let to_move = &children[..2];
    let new_ct = revision
        .split_taxon(&tax, g1, to_move, "GenusNovus")
        .unwrap();
    assert_eq!(revision.working.children(db, new_ct).unwrap().len(), 2);
    assert_eq!(
        revision.working.children(db, g1).unwrap().len(),
        before + moved - 2
    );
    assert_eq!(tax.rank_of(new_ct).unwrap(), Some(Rank::Genus));
}

#[test]
fn flora_generator_counts_match_params() {
    let tax = fresh();
    let params = FloraParams {
        families: 2,
        genera_per_family: 3,
        species_per_genus: 4,
        specimens_per_species: 2,
        type_percent: 100,
    };
    let flora = random_flora(&tax, &params, 42).unwrap();
    assert_eq!(flora.families.len(), 2);
    assert_eq!(flora.genera.len(), 6);
    assert_eq!(flora.species.len(), 24);
    assert_eq!(flora.specimens.len(), 48);
    assert_eq!(params.taxon_count(), 2 + 6 + 24);
    assert_eq!(params.specimen_count(), 48);
    // Structure: every species sits under a genus, every genus under a family.
    let db = tax.db();
    for &sp in &flora.species {
        let parents = flora.classification.parents(db, sp).unwrap();
        assert_eq!(parents.len(), 1);
        assert!(flora.genera.contains(&parents[0]));
    }
    // Determinism: the same seed yields the same shape.
    let tax2 = fresh();
    let flora2 = random_flora(&tax2, &params, 42).unwrap();
    assert_eq!(flora2.species.len(), flora.species.len());
}

#[test]
fn derivation_over_random_flora_is_total() {
    let tax = fresh();
    let params = FloraParams {
        families: 1,
        genera_per_family: 2,
        species_per_genus: 3,
        specimens_per_species: 2,
        type_percent: 100,
    };
    let flora = random_flora(&tax, &params, 3).unwrap();
    let outcome = derive_names(&tax, &flora.classification, "Gen.", 2001).unwrap();
    // Every ranked CT received a name.
    assert_eq!(outcome.names.len(), params.taxon_count());
    for &sp in &flora.species {
        assert!(tax.calculated_name(sp).unwrap().is_some());
    }
    // Species with published, typified names reuse them (not new), since
    // the generator placed their types in their own circumscriptions —
    // unless the epithet had to be recombined, which cannot happen here
    // because genera had no published names (all genus names are new).
    let new_genera = outcome
        .names
        .iter()
        .filter(|n| flora.genera.contains(&n.ct))
        .filter(|n| n.is_new)
        .count();
    assert_eq!(
        new_genera,
        flora.genera.len(),
        "no genus names existed; all published fresh"
    );
}
