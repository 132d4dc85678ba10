//! The views layer (thesis §6.1.3, Figure 29).
//!
//! A view is a named, persistent scoping of the database: a set of classes
//! (deep extents) intersected with a set of classifications. The thesis uses
//! views to present a taxonomist with "one classification at a time" out of
//! the overlapping whole — the objects stay shared, the view only filters.

use crate::database::Database;
use crate::error::{DbError, DbResult};
use crate::index::{KS_META, META_VIEWS};
use crate::read::Reader;
use prometheus_storage::{codec, Oid};
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

    /// Persist this view definition.
    pub fn save(&self, db: &Database) -> DbResult<()> {
        let mut all = load_views(db)?;
        all.insert(self.name.clone(), self.clone());
        save_views(db, &all)
    }

    /// Load a view by name.
    pub fn load<R: Reader>(db: &R, name: &str) -> DbResult<View> {
        load_views(db)?
            .remove(name)
            .ok_or_else(|| DbError::Schema(format!("no view named '{name}'")))
    }

    /// Delete a persisted view definition.
    pub fn delete(db: &Database, name: &str) -> DbResult<bool> {
        let mut all = load_views(db)?;
        let existed = all.remove(name).is_some();
        if existed {
            save_views(db, &all)?;
        }
        Ok(existed)
    }

    /// Names of all persisted views.
    pub fn names<R: Reader>(db: &R) -> DbResult<Vec<String>> {
        Ok(load_views(db)?.into_keys().collect())
    }
}

fn load_views<R: Reader>(db: &R) -> DbResult<BTreeMap<String, View>> {
    match db.raw_kv_get(KS_META, META_VIEWS) {
        Some(bytes) => Ok(codec::from_bytes(&bytes)?),
        None => Ok(BTreeMap::new()),
    }
}

fn save_views(db: &Database, all: &BTreeMap<String, View>) -> DbResult<()> {
    let bytes = codec::to_bytes(all)?;
    db.stage(|t| t.kv_put(KS_META, META_VIEWS.to_vec(), bytes))
}

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
}
