//! The views layer (thesis §6.1.3, Figure 29).
//!
//! A view is a named, persistent scoping of the database: a set of classes
//! (deep extents) intersected with a set of classifications. The thesis uses
//! views to present a taxonomist with "one classification at a time" out of
//! the overlapping whole — the objects stay shared, the view only filters.

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::index::META_VIEWS;
use crate::read::Reader;
use prometheus_storage::Oid;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A named subset of the database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct View {
    pub name: String,
    /// Classes whose deep extents are visible; empty = all classes.
    pub classes: Vec<String>,
    /// Classifications whose participants are visible; empty = no
    /// classification filter.
    pub classifications: Vec<Oid>,
}

impl View {
    /// Define a view.
    pub fn new(name: impl Into<String>) -> Self {
        View {
            name: name.into(),
            classes: Vec::new(),
            classifications: Vec::new(),
        }
    }

    /// Restrict to a class (deep extent).
    pub fn class(mut self, class: impl Into<String>) -> Self {
        self.classes.push(class.into());
        self
    }

    /// Restrict to participants of a classification.
    pub fn classification(mut self, cls: Oid) -> Self {
        self.classifications.push(cls);
        self
    }

    /// The OIDs visible through this view.
    ///
    /// With both filters present the result is the intersection: members of
    /// the listed classes that participate in at least one of the listed
    /// classifications. Generic over [`Reader`], so a view can be evaluated
    /// against a pinned snapshot.
    pub fn members<R: Reader>(&self, db: &R) -> DbResult<BTreeSet<Oid>> {
        let class_members: Option<BTreeSet<Oid>> = if self.classes.is_empty() {
            None
        } else {
            let mut out = BTreeSet::new();
            for class in &self.classes {
                out.extend(db.extent(class, true)?);
            }
            Some(out)
        };
        let cls_members: Option<BTreeSet<Oid>> = if self.classifications.is_empty() {
            None
        } else {
            let mut out = BTreeSet::new();
            for cls in &self.classifications {
                let handle = crate::classification::Classification::from_oid(*cls);
                out.extend(handle.nodes(db)?);
            }
            Some(out)
        };
        Ok(match (class_members, cls_members) {
            (Some(a), Some(b)) => a.intersection(&b).copied().collect(),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => db
                .with_schema(|s| s.class_names().map(String::from).collect::<Vec<_>>())
                .iter()
                .flat_map(|c| db.extent(c, false).unwrap_or_default())
                .collect(),
        })
    }

    /// Persist this view definition: the views record is read and staged
    /// in one unit, so a concurrent save of another view is not lost.
    pub fn save(&self, db: &Database) -> DbResult<()> {
        db.revise_record(META_VIEWS, |all: &mut Views| {
            all.insert(self.name.clone(), self.clone());
            Ok(true)
        })
        .map(drop)
    }

    /// Load a view by name.
    pub fn load<R: Reader>(db: &R, name: &str) -> DbResult<View> {
        db.meta_record::<Views>(META_VIEWS)?
            .remove(name)
            .ok_or_else(|| DbError::Schema(format!("no view named '{name}'")))
    }

    /// Delete a persisted view definition; returns whether it existed.
    pub fn delete(db: &Database, name: &str) -> DbResult<bool> {
        db.revise_record(META_VIEWS, |all: &mut Views| Ok(all.remove(name).is_some()))
    }

    /// Names of all persisted views.
    pub fn names<R: Reader>(db: &R) -> DbResult<Vec<String>> {
        Ok(db.meta_record::<Views>(META_VIEWS)?.into_keys().collect())
    }
}

/// The views record: every view by name.
type Views = BTreeMap<String, View>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classification::Classification;
    use crate::database::tests::temp_db;
    use crate::schema::{AttrDef, ClassDef, RelClassDef};
    use crate::value::{Type, Value};

    #[test]
    fn class_and_classification_filters_intersect() {
        let db = temp_db();
        db.define_class(ClassDef::new("Taxon").attr(AttrDef::required("name", Type::Str)))
            .unwrap();
        db.define_class(ClassDef::new("Specimen").attr(AttrDef::required("code", Type::Str)))
            .unwrap();
        db.define_relationship(RelClassDef::association("R", "Object", "Object"))
            .unwrap();
        let t1 = db
            .create_object("Taxon", vec![("name".to_string(), Value::from("a"))])
            .unwrap();
        let t2 = db
            .create_object("Taxon", vec![("name".to_string(), Value::from("b"))])
            .unwrap();
        let s = db
            .create_object("Specimen", vec![("code".to_string(), Value::from("s"))])
            .unwrap();
        let cls = Classification::create(&db, "C", Vec::new(), true).unwrap();
        cls.link(&db, "R", t1, s, Vec::new()).unwrap();

        // Class filter only.
        let v = View::new("taxa").class("Taxon");
        let members = v.members(&db).unwrap();
        assert!(members.contains(&t1) && members.contains(&t2) && !members.contains(&s));

        // Classification filter only.
        let v = View::new("c").classification(cls.oid());
        let members = v.members(&db).unwrap();
        assert!(members.contains(&t1) && members.contains(&s) && !members.contains(&t2));

        // Intersection.
        let v = View::new("both").class("Taxon").classification(cls.oid());
        let members = v.members(&db).unwrap();
        assert_eq!(members.into_iter().collect::<Vec<_>>(), vec![t1]);
    }

    #[test]
    fn views_persist_by_name() {
        let db = temp_db();
        db.define_class(ClassDef::new("Taxon")).unwrap();
        let v = View::new("mine").class("Taxon");
        v.save(&db).unwrap();
        let loaded = View::load(&db, "mine").unwrap();
        assert_eq!(loaded, v);
        assert_eq!(View::names(&db).unwrap(), vec!["mine".to_string()]);
        assert!(View::delete(&db, "mine").unwrap());
        assert!(View::load(&db, "mine").is_err());
        assert!(!View::delete(&db, "mine").unwrap());
    }

    /// Saves of distinct views started together keep every view: each reads
    /// the views record in the unit it stages the new record in.
    #[test]
    fn concurrent_saves_of_distinct_views_keep_every_view() {
        const THREADS: usize = 4;
        let db = temp_db();
        db.define_class(ClassDef::new("Taxon")).unwrap();
        let barrier = std::sync::Barrier::new(THREADS);
        for round in 0..100 {
            let names: Vec<String> = (0..THREADS).map(|t| format!("v{round}-{t}")).collect();
            std::thread::scope(|s| {
                for name in &names {
                    let (db, barrier) = (&db, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        View::new(name.as_str()).class("Taxon").save(db).unwrap();
                    });
                }
            });
            assert_eq!(View::names(&db).unwrap(), names, "round {round}");
            for name in &names {
                assert!(View::delete(&db, name).unwrap(), "round {round}: {name}");
            }
        }
    }
}
