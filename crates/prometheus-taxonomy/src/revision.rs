//! Revision workflows and what-if scenarios (thesis §7.1.4).
//!
//! A revision starts from a published classification, deep-copies it into a
//! *working* classification (objects shared, edges fresh — §2.1.3's
//! overlapping-revision structure), and then experiments: moving taxa,
//! merging and splitting groups, re-deriving names — all inside units of
//! work so that any speculative branch can be inspected and rolled back.

use crate::model::{Taxonomy, CIRCUMSCRIBES};
use prometheus_object::{Classification, DbError, DbResult, Oid};

/// A revision in progress.
pub struct Revision {
    /// The published classification being revised (never mutated).
    pub base: Classification,
    /// The working copy.
    pub working: Classification,
}

impl Revision {
    /// Start a revision: deep-copy `base` into a working classification.
    pub fn start(tax: &Taxonomy, base: &Classification, working_name: &str) -> DbResult<Revision> {
        let working = base.copy(tax.db(), working_name)?;
        Ok(Revision {
            base: *base,
            working,
        })
    }

    /// Move `taxon` under `new_parent` in the working classification
    /// (HICLAS' *move* operation, but recorded as structure, not history).
    ///
    /// The old parent edge only leaves the working classification: its
    /// `Circumscribes` instance survives, and a caller that wants it gone
    /// deletes it (in the same unit, with
    /// [`prometheus_object::Database::delete_relationship`]).
    pub fn move_taxon(&self, tax: &Taxonomy, taxon: Oid, new_parent: Oid) -> DbResult<()> {
        let db = tax.db();
        db.in_unit_scope(|db| {
            for (edge, _) in db.adjacency(taxon, None, false, Some(self.working.oid()))? {
                self.working.remove_edge(db, edge)?;
            }
            tax.circumscribe(&self.working, new_parent, taxon)?;
            Ok(())
        })
    }

    /// Merge `loser` into `winner`: every child of `loser` moves under
    /// `winner`, and `loser` leaves the working classification.
    ///
    /// As for [`Revision::move_taxon`], the unlinked `Circumscribes`
    /// instances — `loser`'s child edges and its parent edge — survive; the
    /// caller deletes them if it wants them gone.
    pub fn merge_taxa(&self, tax: &Taxonomy, winner: Oid, loser: Oid) -> DbResult<()> {
        let db = tax.db();
        db.in_unit_scope(|db| {
            let working = Some(self.working.oid());
            for (edge, child) in db.adjacency(loser, None, true, working)? {
                self.working.remove_edge(db, edge)?;
                tax.circumscribe(&self.working, winner, child)?;
            }
            for (edge, _) in db.adjacency(loser, None, false, working)? {
                self.working.remove_edge(db, edge)?;
            }
            Ok(())
        })
    }

    /// Split `taxon`: the listed children move into a brand-new CT of the
    /// same rank, placed under `taxon`'s parent.
    ///
    /// As for [`Revision::move_taxon`], the unlinked `Circumscribes`
    /// instances from `taxon` to the moved children survive; the caller
    /// deletes them if it wants them gone.
    pub fn split_taxon(
        &self,
        tax: &Taxonomy,
        taxon: Oid,
        children_to_move: &[Oid],
        new_working_name: &str,
    ) -> DbResult<Oid> {
        let db = tax.db();
        let rank = tax
            .rank_of(taxon)?
            .ok_or_else(|| DbError::Classification("cannot split an unranked node".into()))?;
        db.in_unit_scope(|db| {
            let new_ct = tax.create_ct(new_working_name, rank)?;
            let parents = self.working.parents(db, taxon)?;
            if let Some(parent) = parents.first() {
                tax.circumscribe(&self.working, *parent, new_ct)?;
            }
            for &child in children_to_move {
                for (edge, parent) in db.adjacency(child, None, false, Some(self.working.oid()))? {
                    if parent == taxon {
                        self.working.remove_edge(db, edge)?;
                    }
                }
                tax.circumscribe(&self.working, new_ct, child)?;
            }
            Ok(new_ct)
        })
    }

    /// Run a speculative scenario: `f` mutates the working classification
    /// inside a unit of work; if `f` returns `Keep`, the changes stay,
    /// otherwise everything rolls back. This is §7.1.4's what-if mechanism.
    pub fn what_if<T>(
        &self,
        tax: &Taxonomy,
        f: impl FnOnce(&Taxonomy, &Classification) -> DbResult<(WhatIf, T)>,
    ) -> DbResult<(WhatIf, T)> {
        let db = tax.db();
        let token = db.begin_unit();
        match f(tax, &self.working) {
            Ok((WhatIf::Keep, value)) => {
                db.commit_unit(token)?;
                Ok((WhatIf::Keep, value))
            }
            Ok((WhatIf::Discard, value)) => {
                db.abort_unit(token);
                Ok((WhatIf::Discard, value))
            }
            Err(e) => {
                db.abort_unit(token);
                Err(e)
            }
        }
    }

    /// Number of edges the base and working classifications share (zero —
    /// they are fully independent copies; a sanity check used by tests).
    pub fn shared_edge_count(&self, tax: &Taxonomy) -> DbResult<usize> {
        let db = tax.db();
        let base: std::collections::BTreeSet<Oid> = db
            .classification_edges(self.base.oid())?
            .into_iter()
            .collect();
        Ok(db
            .classification_edges(self.working.oid())?
            .into_iter()
            .filter(|e| base.contains(e))
            .count())
    }

    /// The relationship class revisions build edges with.
    pub fn edge_class() -> &'static str {
        CIRCUMSCRIBES
    }
}

/// Decision returned by a what-if scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhatIf {
    Keep,
    Discard,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::fresh;
    use crate::rank::Rank;

    fn seeded() -> (crate::model::Taxonomy, Classification, [Oid; 4]) {
        let tax = fresh();
        let cls = tax.new_classification("base", "b", "c").unwrap();
        let g1 = tax.create_ct("G1", Rank::Genus).unwrap();
        let g2 = tax.create_ct("G2", Rank::Genus).unwrap();
        let s1 = tax.create_ct("s1", Rank::Species).unwrap();
        let s2 = tax.create_ct("s2", Rank::Species).unwrap();
        let root = tax.create_ct("Fam", Rank::Familia).unwrap();
        tax.circumscribe(&cls, root, g1).unwrap();
        tax.circumscribe(&cls, root, g2).unwrap();
        tax.circumscribe(&cls, g1, s1).unwrap();
        tax.circumscribe(&cls, g1, s2).unwrap();
        (tax, cls, [g1, g2, s1, s2])
    }

    #[test]
    fn start_copies_without_sharing_edges() {
        let (tax, cls, _) = seeded();
        let rev = Revision::start(&tax, &cls, "wk").unwrap();
        assert_eq!(rev.shared_edge_count(&tax).unwrap(), 0);
        assert_eq!(
            rev.working.edges(tax.db()).unwrap().len(),
            cls.edges(tax.db()).unwrap().len()
        );
        assert_eq!(Revision::edge_class(), crate::model::CIRCUMSCRIBES);
    }

    #[test]
    fn move_taxon_changes_only_the_working_copy() {
        let (tax, cls, [g1, g2, s1, _]) = seeded();
        let rev = Revision::start(&tax, &cls, "wk").unwrap();
        rev.move_taxon(&tax, s1, g2).unwrap();
        assert_eq!(rev.working.parents(tax.db(), s1).unwrap(), vec![g2]);
        assert_eq!(cls.parents(tax.db(), s1).unwrap(), vec![g1]);
    }

    #[test]
    fn move_respects_rank_rule_and_rolls_back() {
        let (tax, cls, [g1, _, s1, _]) = seeded();
        let rev = Revision::start(&tax, &cls, "wk").unwrap();
        // Moving a genus under a species violates rank order; the move is
        // atomic, so the old parent edge must survive the failure.
        let err = rev.move_taxon(&tax, g1, s1).unwrap_err();
        assert!(matches!(err, DbError::ConstraintViolation { .. }));
        assert_eq!(rev.working.parents(tax.db(), g1).unwrap().len(), 1);
    }

    /// A merge that fails inside a what-if fails alone: the scenario keeps
    /// what it did before the merge, and no edge the merge moved stays
    /// moved.
    #[test]
    fn a_failed_merge_inside_a_what_if_keeps_the_what_if() {
        let (tax, cls, [g1, _, s1, s2]) = seeded();
        let rev = Revision::start(&tax, &cls, "wk").unwrap();
        let (_, kept) = rev
            .what_if(&tax, |tax, _| {
                let kept = tax.create_ct("G3", Rank::Genus)?;
                // Merging the genus into one of its species would put the
                // other species under a species.
                assert!(rev.merge_taxa(tax, s1, g1).is_err());
                Ok((WhatIf::Keep, kept))
            })
            .unwrap();
        assert!(tax.db().exists(kept));
        for species in [s1, s2] {
            assert_eq!(rev.working.parents(tax.db(), species).unwrap(), vec![g1]);
        }
    }

    #[test]
    fn what_if_propagates_inner_errors_and_aborts() {
        let (tax, cls, [_, g2, s1, _]) = seeded();
        let rev = Revision::start(&tax, &cls, "wk").unwrap();
        let before = rev.working.edges(tax.db()).unwrap().len();
        let result: DbResult<(WhatIf, ())> = rev.what_if(&tax, |tax, working| {
            tax.circumscribe(working, g2, s1).ok(); // may fail (two parents)
            Err(DbError::Query("forced".into()))
        });
        assert!(result.is_err());
        assert_eq!(rev.working.edges(tax.db()).unwrap().len(), before);
    }
}
