//! Event specifications: which database events wake a rule up (§5.2.1.1).

use prometheus_object::{Database, Event};
use serde::{Deserialize, Serialize};

/// A pattern over [`Event`]s. `class: None` matches any class; a named class
/// matches itself and its subclasses (so a rule on `Taxon` fires for `CT`).
/// `attr: None` matches updates to any attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventSpec {
    ObjectCreated {
        class: Option<String>,
    },
    ObjectUpdated {
        class: Option<String>,
        attr: Option<String>,
    },
    ObjectDeleted {
        class: Option<String>,
    },
    RelCreated {
        class: Option<String>,
    },
    RelUpdated {
        class: Option<String>,
        attr: Option<String>,
    },
    RelDeleted {
        class: Option<String>,
    },
    ClassificationEdgeAdded,
    ClassificationEdgeRemoved,
    /// Composite event (§5.2.1.1): fires when any member fires.
    AnyOf(Vec<EventSpec>),
}

impl EventSpec {
    /// Convenience: any mutation of objects of `class` (create/update/delete).
    pub fn any_object_change(class: &str) -> EventSpec {
        EventSpec::AnyOf(vec![
            EventSpec::ObjectCreated {
                class: Some(class.to_string()),
            },
            EventSpec::ObjectUpdated {
                class: Some(class.to_string()),
                attr: None,
            },
            EventSpec::ObjectDeleted {
                class: Some(class.to_string()),
            },
        ])
    }

    /// Does `event` match this specification?
    pub fn matches(&self, db: &Database, event: &Event) -> bool {
        let class_ok = |want: &Option<String>, got: &str| match want {
            None => true,
            Some(w) => db.with_schema(|s| s.conforms(got, w)),
        };
        match (self, event) {
            (EventSpec::ObjectCreated { class }, Event::ObjectCreated { class: got, .. }) => {
                class_ok(class, got)
            }
            (
                EventSpec::ObjectUpdated { class, attr },
                Event::ObjectUpdated {
                    class: got,
                    attr: got_attr,
                    ..
                },
            ) => class_ok(class, got) && attr.as_deref().is_none_or(|a| a == got_attr),
            (EventSpec::ObjectDeleted { class }, Event::ObjectDeleted { class: got, .. }) => {
                class_ok(class, got)
            }
            (EventSpec::RelCreated { class }, Event::RelCreated { class: got, .. }) => {
                class_ok(class, got)
            }
            (
                EventSpec::RelUpdated { class, attr },
                Event::RelUpdated {
                    class: got,
                    attr: got_attr,
                    ..
                },
            ) => class_ok(class, got) && attr.as_deref().is_none_or(|a| a == got_attr),
            (EventSpec::RelDeleted { class }, Event::RelDeleted { class: got, .. }) => {
                class_ok(class, got)
            }
            (EventSpec::ClassificationEdgeAdded, Event::ClassificationEdgeAdded { .. }) => true,
            (EventSpec::ClassificationEdgeRemoved, Event::ClassificationEdgeRemoved { .. }) => true,
            (EventSpec::AnyOf(specs), e) => specs.iter().any(|s| s.matches(db, e)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prometheus_object::{shard_routing, ClassDef, Oid, ShardedStore, StoreOptions};
    use std::sync::Arc;

    fn db() -> Database {
        let path = std::env::temp_dir().join(format!(
            "rules-event-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
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
        let db = Database::open_sharded(store).unwrap();
        db.define_class(ClassDef::new("Taxon")).unwrap();
        db.define_class(ClassDef::new("CT").extends("Taxon"))
            .unwrap();
        db
    }

    #[test]
    fn class_matching_includes_subclasses() {
        let db = db();
        let spec = EventSpec::ObjectCreated {
            class: Some("Taxon".into()),
        };
        let e = Event::ObjectCreated {
            oid: Oid::from_raw(1),
            class: "CT".into(),
        };
        assert!(spec.matches(&db, &e));
        let e = Event::ObjectCreated {
            oid: Oid::from_raw(1),
            class: "Taxon".into(),
        };
        assert!(spec.matches(&db, &e));
        let spec = EventSpec::ObjectCreated {
            class: Some("CT".into()),
        };
        let e = Event::ObjectCreated {
            oid: Oid::from_raw(1),
            class: "Taxon".into(),
        };
        assert!(!spec.matches(&db, &e));
    }

    #[test]
    fn attr_filter() {
        let db = db();
        let spec = EventSpec::ObjectUpdated {
            class: None,
            attr: Some("rank".into()),
        };
        let hit = Event::ObjectUpdated {
            oid: Oid::from_raw(1),
            class: "CT".into(),
            attr: "rank".into(),
            old: prometheus_object::Value::Null,
            new: prometheus_object::Value::Null,
        };
        assert!(spec.matches(&db, &hit));
        let miss = Event::ObjectUpdated {
            oid: Oid::from_raw(1),
            class: "CT".into(),
            attr: "name".into(),
            old: prometheus_object::Value::Null,
            new: prometheus_object::Value::Null,
        };
        assert!(!spec.matches(&db, &miss));
    }

    #[test]
    fn composite_any_of() {
        let db = db();
        let spec = EventSpec::any_object_change("Taxon");
        assert!(spec.matches(
            &db,
            &Event::ObjectDeleted {
                oid: Oid::from_raw(1),
                class: "CT".into()
            }
        ));
        assert!(!spec.matches(
            &db,
            &Event::RelCreated {
                oid: Oid::from_raw(1),
                class: "R".into(),
                origin: Oid::from_raw(2),
                destination: Oid::from_raw(3)
            }
        ));
    }

    #[test]
    fn wrong_kind_never_matches() {
        let db = db();
        let spec = EventSpec::ClassificationEdgeAdded;
        assert!(!spec.matches(
            &db,
            &Event::ObjectCreated {
                oid: Oid::from_raw(1),
                class: "CT".into()
            }
        ));
    }
}
