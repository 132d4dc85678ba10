//! Automatic derivation of names from classifications (thesis §2.1.2,
//! Figure 3; requirement in §2.3: "Names must be derived automatically").
//!
//! The algorithm is the top-down/bottom-up process the thesis describes:
//!
//! 1. CTs are visited top-down (parents before children), because a
//!    multinomial name needs its genus name settled first;
//! 2. for each CT, every specimen in its circumscription (recursing to
//!    whatever depth that branch has — requirement 9) is examined and the
//!    **type specimens** among them extracted;
//! 3. from those specimens the type hierarchy is walked **bottom-up**
//!    (specimen → name it typifies → name *that* name typifies → …)
//!    collecting names published at the CT's rank;
//! 4. the **oldest validly published** candidate wins;
//! 5. at multinomial ranks, if the winning epithet has never been published
//!    in combination with the derived genus name, a **new combination** is
//!    published — epithet preserved, basionym author bracketed, the old
//!    primary type carried over (Figure 3's *Heliosciadium repens*
//!    (Jacq.)Raguenaud.);
//! 6. if no candidate exists at all, a **new name** is published from the
//!    CT's working name, typified by electing the first specimen of the
//!    circumscription.

use crate::model::Taxonomy;
use crate::rank::Rank;
use crate::typification::TypeKind;
use prometheus_object::{Classification, DbResult, Oid, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The derived name of one CT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivedName {
    pub ct: Oid,
    /// The NT chosen or published for this CT.
    pub nt: Oid,
    /// Rendered full name (with author citation).
    pub rendered: String,
    /// A brand-new name had to be published (no candidate existed).
    pub is_new: bool,
    /// An existing epithet was recombined under a new genus.
    pub new_combination: bool,
}

/// Result of a derivation run.
#[derive(Debug, Clone, Default)]
pub struct DerivationOutcome {
    pub names: Vec<DerivedName>,
}

impl DerivationOutcome {
    /// The derived name record for a CT.
    pub fn for_ct(&self, ct: Oid) -> Option<&DerivedName> {
        self.names.iter().find(|n| n.ct == ct)
    }
}

/// Derive (and attach as calculated names) the names of every ranked CT in
/// `cls`. `publishing_author` and `publish_year` are used when a new name or
/// combination must be published.
pub fn derive_names(
    tax: &Taxonomy,
    cls: &Classification,
    publishing_author: &str,
    publish_year: i32,
) -> DbResult<DerivationOutcome> {
    let db = tax.db();
    let mut outcome = DerivationOutcome::default();
    // Track each CT's nearest derived genus name, inherited down the tree.
    let mut genus_above: BTreeMap<Oid, Oid> = BTreeMap::new();

    // Top-down order: BFS from the classification's roots.
    let mut queue: VecDeque<Oid> = cls.roots(db)?.into_iter().collect();
    let mut seen: BTreeSet<Oid> = BTreeSet::new();
    while let Some(node) = queue.pop_front() {
        if !seen.insert(node) {
            continue;
        }
        for child in cls.children(db, node)? {
            // Propagate the genus context before the child is processed.
            queue.push_back(child);
        }
        if tax.is_specimen(node) {
            continue;
        }
        let Some(rank) = tax.rank_of(node)? else {
            continue;
        };

        // Steps 2–3: candidates at this rank via the type hierarchy.
        let circumscription: Vec<Oid> = tax
            .circumscription(cls, node)?
            .into_iter()
            .filter(|oid| tax.is_specimen(*oid))
            .collect();
        let candidates = candidates_at_rank(tax, &circumscription, rank)?;

        // Step 4: the oldest validly published candidate.
        let mut chosen: Option<(i32, Oid)> = None;
        for nt in &candidates {
            let valid = db.object(*nt)?.attr("valid") != Value::Bool(false);
            if !valid {
                continue;
            }
            let year = tax.year_of(*nt)?.unwrap_or(i32::MAX);
            if chosen.is_none_or(|(y, o)| (year, *nt) < (y, o)) {
                chosen = Some((year, *nt));
            }
        }

        let genus_nt = genus_context(tax, cls, node, &genus_above)?;
        let record = match chosen {
            Some((_, candidate)) => resolve_candidate(
                tax,
                node,
                rank,
                candidate,
                genus_nt,
                publishing_author,
                publish_year,
            )?,
            None => publish_new_name(
                tax,
                node,
                rank,
                &circumscription,
                genus_nt,
                publishing_author,
                publish_year,
            )?,
        };
        tax.set_calculated_name(node, record.nt)?;
        if rank == Rank::Genus {
            genus_above.insert(node, record.nt);
        }
        outcome.names.push(record);
    }
    Ok(outcome)
}

/// All names published at `rank` that a CT's circumscription could support:
/// the bottom-up walk of step 3 exposed on its own. The derivation picks the
/// oldest of these; the rest are that name's nomenclatural synonyms, which
/// is what checklist generation lists.
pub fn name_candidates(
    tax: &Taxonomy,
    cls: &prometheus_object::Classification,
    ct: Oid,
    rank: Rank,
) -> DbResult<BTreeSet<Oid>> {
    let specimens: Vec<Oid> = tax
        .circumscription(cls, ct)?
        .into_iter()
        .filter(|oid| tax.is_specimen(*oid))
        .collect();
    candidates_at_rank(tax, &specimens, rank)
}

/// Walk the type hierarchy bottom-up from `specimens`, returning the NTs at
/// `rank` reachable through chains of type designations.
fn candidates_at_rank(tax: &Taxonomy, specimens: &[Oid], rank: Rank) -> DbResult<BTreeSet<Oid>> {
    let mut candidates = BTreeSet::new();
    let mut stack: Vec<Oid> = specimens.to_vec();
    let mut visited: BTreeSet<Oid> = BTreeSet::new();
    while let Some(node) = stack.pop() {
        if !visited.insert(node) {
            continue;
        }
        for nt in tax.names_typified_by(node)? {
            if tax.rank_of(nt)? == Some(rank) {
                candidates.insert(nt);
            }
            // Keep walking upward: this name may itself typify a higher name.
            stack.push(nt);
        }
    }
    Ok(candidates)
}

/// The genus NT governing `node`: the calculated name of its nearest
/// ancestor CT at rank Genus (already derived — we go top-down).
fn genus_context(
    tax: &Taxonomy,
    cls: &Classification,
    node: Oid,
    derived_genus: &BTreeMap<Oid, Oid>,
) -> DbResult<Option<Oid>> {
    let db = tax.db();
    let mut current = node;
    loop {
        let parents = cls.parents(db, current)?;
        let Some(parent) = parents.first().copied() else {
            return Ok(None);
        };
        if let Some(nt) = derived_genus.get(&parent) {
            return Ok(Some(*nt));
        }
        if !tax.is_specimen(parent) && tax.rank_of(parent)? == Some(Rank::Genus) {
            // Genus not derived (e.g. derivation of a subtree only): fall
            // back to its calculated name if present.
            if let Some(nt) = tax.calculated_name(parent)? {
                return Ok(Some(nt));
            }
        }
        current = parent;
    }
}

/// Step 5: use the candidate directly, or publish the new combination the
/// ICBN requires when the epithet moves to a different genus.
fn resolve_candidate(
    tax: &Taxonomy,
    ct: Oid,
    rank: Rank,
    candidate: Oid,
    genus_nt: Option<Oid>,
    publishing_author: &str,
    publish_year: i32,
) -> DbResult<DerivedName> {
    if !rank.is_multinomial() {
        return Ok(DerivedName {
            ct,
            nt: candidate,
            rendered: tax.full_name(candidate)?,
            is_new: false,
            new_combination: false,
        });
    }
    let Some(genus_nt) = genus_nt else {
        return Ok(DerivedName {
            ct,
            nt: candidate,
            rendered: tax.full_name(candidate)?,
            is_new: false,
            new_combination: false,
        });
    };
    let genus_name = tax.name_of(genus_nt)?;
    let epithet = tax.name_of(candidate)?;
    let current_placement = tax.placement_of(candidate)?;
    let placement_matches = match current_placement {
        Some(g) => tax.name_of(g)? == genus_name,
        None => false,
    };
    if placement_matches {
        return Ok(DerivedName {
            ct,
            nt: candidate,
            rendered: tax.full_name(candidate)?,
            is_new: false,
            new_combination: false,
        });
    }
    // Has the combination been published before? Reuse that NT.
    let db = tax.db();
    for nt in db.find_by_attr("NT", "name", &Value::from(epithet.as_str()))? {
        if nt == candidate {
            continue;
        }
        if let Some(g) = tax.placement_of(nt)? {
            if tax.name_of(g)? == genus_name {
                return Ok(DerivedName {
                    ct,
                    nt,
                    rendered: tax.full_name(nt)?,
                    is_new: false,
                    new_combination: false,
                });
            }
        }
    }
    // Publish the new combination: epithet kept, basionym author bracketed,
    // primary type carried over.
    let basionym_citation = db
        .object(candidate)?
        .attr("author")
        .as_str()
        .unwrap_or("")
        .to_string();
    let basionym = basionym_author(&basionym_citation);
    let citation = format!("({basionym}){publishing_author}");
    let new_nt = tax.create_nt(&epithet, rank, publish_year, &citation)?;
    tax.place(genus_nt, new_nt)?;
    if let Some(type_target) = tax.primary_type(candidate)? {
        // The old type specimen is *elected* as the type of the new
        // combination (Figure 3's closing step).
        tax.typify(new_nt, type_target, TypeKind::Lectotype)?;
    }
    Ok(DerivedName {
        ct,
        nt: new_nt,
        rendered: tax.full_name(new_nt)?,
        is_new: true,
        new_combination: true,
    })
}

/// Step 6: no candidate at all — publish a brand-new name from the CT's
/// working name, electing the first circumscribed specimen as its type.
fn publish_new_name(
    tax: &Taxonomy,
    ct: Oid,
    rank: Rank,
    circumscription: &[Oid],
    genus_nt: Option<Oid>,
    publishing_author: &str,
    publish_year: i32,
) -> DbResult<DerivedName> {
    let element = tax.name_of(ct)?;
    let nt = tax.create_nt(&element, rank, publish_year, publishing_author)?;
    if let Some(first) = circumscription.first() {
        tax.typify(nt, *first, TypeKind::Holotype)?;
    }
    if rank.is_multinomial() {
        if let Some(genus) = genus_nt {
            tax.place(genus, nt)?;
        }
    }
    Ok(DerivedName {
        ct,
        nt,
        rendered: tax.full_name(nt)?,
        is_new: true,
        new_combination: false,
    })
}

/// The basionym author inside a citation: `"(Jacq.)Lag."` → `Jacq.`;
/// a plain `"L."` is its own basionym author.
pub fn basionym_author(citation: &str) -> &str {
    if let Some(rest) = citation.strip_prefix('(') {
        if let Some(end) = rest.find(')') {
            return &rest[..end];
        }
    }
    citation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basionym_extraction() {
        assert_eq!(basionym_author("(Jacq.)Lag."), "Jacq.");
        assert_eq!(basionym_author("L."), "L.");
        assert_eq!(basionym_author("(unclosed"), "(unclosed");
    }
}
